//! End-to-end and per-layer benchmark of the BNCG stability daemon and
//! solver.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload wire_mixed --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Workloads (see `perfbench/README.md` for the full rationale):
//! - `wire_mixed`: open-loop Poisson traffic at 300 req/s from 8 tenants
//!   through the in-process daemon — 75% light (atlas hits, polynomial
//!   checks), 25% heavy (exponential checks, streamed trajectories);
//! - `tenant_flood`: a closed-loop heavy tenant keeping 8 checks
//!   resident, plus a light tenant probing every 10 ms;
//! - `solver_sweep`: in-process sweep rows on one thread, no daemon.
//!
//! With `--trace 0` the run prints every end-to-end metric; with
//! `--trace 1` it measures half the time untraced and half traced,
//! replays the run's inputs through each layer, prints the per-layer
//! table, and writes its spans next to the binary. The last line of
//! standard output is always one JSON object.

mod catalog;
mod client;
mod layers;
mod sweep;
mod util;
mod wire;

use bncg_atlas::{
    build, verify_atlas, AlphaSpec, Atlas, BuildSpec, DynAtlas, MemoryBacking, RamBacking,
};
use bncg_core::{Alpha, Concept};
use bncg_serve::{AtlasService, SchedulerConfig, Server, ServerConfig};
use layers::{Layers, PER_LAYER};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use sweep::Sweep;
use util::{median, quantile, ratio, Cuts, Rng, SpanLog, SUB_WINDOWS};
use wire::{Kind, Wire};

/// Excluded from every measurement window.
const WARMUP: Duration = Duration::from_secs(2);
/// Fixture builds per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Daemon knobs, pinned.
const WORKERS: usize = 1;
const SLICE: u64 = catalog::SLICE;

/// Every end-to-end metric the run prints, with its unit and whether
/// `BENCHMARK.json` gates it. The ungated tails and heavy median moved
/// 0.26–0.45 (interquartile range over median, ten seeds) between runs
/// of `wire_mixed` on a 2-vCPU host, beyond the largest bound a gate
/// allows; they are printed for people and left out of the result line.
const END_TO_END: [(&str, &str, bool); 9] = [
    ("setup_s", "s", true),
    ("p50_ms", "ms", true),
    ("p99_ms", "ms", false),
    ("light_p50_ms", "ms", true),
    ("light_p99_ms", "ms", false),
    ("heavy_p50_ms", "ms", false),
    ("heavy_p99_ms", "ms", false),
    ("goodput_rps", "1/s", true),
    ("cpu_ms_per_req", "ms", true),
];

/// Latency samples (ms) of the successful ops, per sub-window.
pub struct Samples {
    all: Vec<Vec<f64>>,
    light: Vec<Vec<f64>>,
    heavy: Vec<Vec<f64>>,
    /// How late the generator sent, pooled over the window.
    pub lag: Vec<f64>,
}

impl Default for Samples {
    fn default() -> Samples {
        Samples {
            all: vec![Vec::new(); SUB_WINDOWS],
            light: vec![Vec::new(); SUB_WINDOWS],
            heavy: vec![Vec::new(); SUB_WINDOWS],
            lag: Vec::new(),
        }
    }
}

impl Samples {
    pub fn push(&mut self, sub: usize, light: bool, latency_ms: f64) {
        self.all[sub].push(latency_ms);
        if light {
            self.light[sub].push(latency_ms);
        } else {
            self.heavy[sub].push(latency_ms);
        }
    }
}

/// The end-to-end numbers of one measured window: each metric is taken
/// per sub-window, and the median over the sub-windows is reported.
pub struct Summary {
    attempted: u64,
    failed: u64,
    error: Option<String>,
    metrics: BTreeMap<String, f64>,
}

impl Summary {
    pub fn new(
        attempted: u64,
        failed: u64,
        error: Option<String>,
        cuts: &Cuts,
        mut s: Samples,
    ) -> Summary {
        let mut per: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for (w, cpu_ms) in cuts.cpu_ms().into_iter().enumerate() {
            let ok = s.all[w].len() as f64;
            for (prefix, values) in [
                ("", &mut s.all[w]),
                ("light_", &mut s.light[w]),
                ("heavy_", &mut s.heavy[w]),
            ] {
                for (suffix, q) in [("p50_ms", 0.5), ("p99_ms", 0.99)] {
                    per.entry(format!("{prefix}{suffix}"))
                        .or_default()
                        .push(quantile(values, q));
                }
            }
            per.entry("goodput_rps".into())
                .or_default()
                .push(ratio(ok, cuts.sub_secs()));
            per.entry("cpu_ms_per_req".into())
                .or_default()
                .push(ratio(cpu_ms, ok));
        }
        let mut metrics: BTreeMap<String, f64> = per
            .into_iter()
            .map(|(name, mut v)| (name, median(&mut v)))
            .collect();
        metrics.insert("lag_ms_p99".into(), quantile(&mut s.lag, 0.99));
        Summary {
            attempted,
            failed,
            error,
            metrics,
        }
    }

    fn get(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }

    fn with_setup(mut self, setup_s: f64) -> Summary {
        self.metrics.insert("setup_s".into(), setup_s);
        self
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 30,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(2),
            "--trace" => args.trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !["wire_mixed", "tenant_flood", "solver_sweep"].contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

/// The n ≤ 8 corpus every workload shares: PS and BNE over α ∈ {1/2, 2, n}.
fn atlas_spec() -> BuildSpec {
    BuildSpec {
        max_n: 8,
        grid: vec![
            AlphaSpec::Fixed(Alpha::from_ratio(1, 2).expect("α = 1/2")),
            AlphaSpec::Fixed(Alpha::integer(2).expect("α = 2")),
            AlphaSpec::N,
        ],
        concepts: vec![Concept::Ps, Concept::Bne],
    }
}

/// The shared fixture: the atlas, and for the wire workloads the daemon
/// serving it.
struct Fixture {
    setup_s: f64,
    build_s: f64,
    records: u64,
    server: Option<Server>,
    atlas: Option<DynAtlas>,
    /// Whether a seeded sample of the corpus replayed exactly.
    verified: Result<(), String>,
}

fn build_atlas() -> Result<(DynAtlas, u64), String> {
    let backing: Box<dyn MemoryBacking + Send + Sync> = Box::new(RamBacking::new());
    let mut atlas = Atlas::open(backing).map_err(|e| e.to_string())?;
    let report = build(&mut atlas, &atlas_spec(), u64::MAX, None).map_err(|e| e.to_string())?;
    if !report.complete {
        return Err("the atlas build did not complete".into());
    }
    Ok((atlas, report.appended))
}

fn start_server(atlas: DynAtlas) -> Result<Server, String> {
    Server::start(ServerConfig {
        scheduler: SchedulerConfig {
            workers: WORKERS,
            slice: SLICE,
            ..SchedulerConfig::default()
        },
        atlas: Arc::new(AtlasService::with_atlas(atlas)),
        ..ServerConfig::default()
    })
    .map_err(|e| e.to_string())
}

/// Builds the fixture `SETUPS` times, keeping the last one.
fn setup(daemon: bool, seed: u64) -> Result<Fixture, String> {
    let (mut setups, mut builds) = (Vec::new(), Vec::new());
    let mut kept: Option<(Option<Server>, Option<DynAtlas>)> = None;
    let (mut records, mut verified) = (0, Ok(()));
    for k in 0..SETUPS {
        let start = Instant::now();
        let (atlas, appended) = build_atlas()?;
        let built = start.elapsed();
        if k == 0 {
            verified = verify_atlas(&atlas, 64, seed, 8)
                .map(|_| ())
                .map_err(|e| e.to_string());
        }
        let start = Instant::now();
        let fixture = if daemon {
            (Some(start_server(atlas)?), None)
        } else {
            (None, Some(atlas))
        };
        setups.push((built + start.elapsed()).as_secs_f64());
        builds.push(built.as_secs_f64());
        records = appended;
        if let Some((Some(old), _)) = kept.replace(fixture) {
            old.stop();
        }
    }
    let (server, atlas) = kept.expect("SETUPS > 0");
    Ok(Fixture {
        setup_s: median(&mut setups),
        build_s: median(&mut builds),
        records,
        server,
        atlas,
        verified,
    })
}

/// Solves every instance once (the oracle) and replays its witnesses.
fn solve_all(instances: &mut [catalog::Instance]) -> Result<(), String> {
    for inst in instances.iter_mut() {
        inst.solve()?;
    }
    Ok(())
}

struct Report {
    header: String,
    hash: u64,
    attempted: u64,
    failed: u64,
    error: Option<String>,
    /// The untraced run, or a traced run's traced half.
    summary: Summary,
    /// Per-layer metrics of a traced run.
    layers: Option<Layers>,
}

impl Report {
    fn untraced(header: String, hash: u64, s: Summary) -> Report {
        Report {
            header,
            hash,
            attempted: s.attempted,
            failed: s.failed,
            error: s.error.clone(),
            summary: s,
            layers: None,
        }
    }

    /// A traced run: both halves count toward correctness; the overhead
    /// of tracing is the traced half over the untraced one.
    fn traced(
        header: String,
        hash: u64,
        untraced: Summary,
        traced: Summary,
        mut m: Layers,
    ) -> Report {
        m.insert("client.lag_ms_p99".into(), traced.get("lag_ms_p99"));
        m.insert(
            "trace.overhead_p50".into(),
            ratio(traced.get("p50_ms"), untraced.get("p50_ms")),
        );
        m.insert(
            "trace.overhead_goodput".into(),
            ratio(traced.get("goodput_rps"), untraced.get("goodput_rps")),
        );
        Report {
            header,
            hash,
            attempted: untraced.attempted + traced.attempted,
            failed: untraced.failed + traced.failed,
            error: untraced.error.or_else(|| traced.error.clone()),
            summary: traced,
            layers: Some(m),
        }
    }
}

fn spans_path(workload: &str, seed: u64) -> PathBuf {
    let dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.to_path_buf()))
        .unwrap_or_else(|| PathBuf::from("."));
    dir.join("spans")
        .join(format!("{workload}-seed{seed}.jsonl"))
}

fn run_wire(args: &Args, kind: Kind) -> Result<Report, String> {
    let mut rng = Rng::new(args.seed);
    let mut work = Wire::new(kind, &mut rng);
    solve_all(&mut work.instances)?;
    let fixture = setup(true, args.seed)?;
    let server = fixture
        .server
        .as_ref()
        .expect("wire workloads run a daemon");
    let seconds = Duration::from_secs(args.seconds);
    let header = match kind {
        Kind::Mixed => format!(
            "open loop, Poisson {} req/s, {} tenants, {:.0}% light",
            wire::MIXED_RATE,
            wire::MIXED_TENANTS,
            wire::MIXED_LIGHT * 100.0
        ),
        Kind::Flood => format!(
            "closed loop: heavy tenant window {}; light tenant paced every {} ms",
            wire::FLOOD_WINDOW,
            wire::FLOOD_PROBE_MS
        ),
    };
    let header = format!("{header}; daemon workers {WORKERS}, slice {SLICE}");
    let report = if !args.trace {
        let (s, hash) = wire::measure(server, &work, &mut rng, WARMUP, seconds);
        Report::untraced(header, hash, s.with_setup(fixture.setup_s))
    } else {
        let half = seconds / 2;
        let (untraced, hash) = wire::measure(server, &work, &mut rng, WARMUP, half);
        let (sources, _) = work.plan(&mut rng, WARMUP + half, true, 1 << 32);
        let stats_conn = usize::from(kind == Kind::Flood);
        let (phase, counters) = wire::with_counters(server, || {
            client::drive(
                server.addr(),
                &sources,
                WARMUP,
                half,
                Some((stats_conn, Duration::from_millis(50))),
            )
        });
        let phase = phase.map_err(|e| e.to_string())?;
        let traced = wire::summarize(&phase, &work);
        let mut spans = SpanLog::new();
        let mut m = Layers::new();
        wire::traced_layers(&phase, &counters, &mut m, &mut spans);
        let (used, lines) = wire::used(&sources, &phase);
        layers::solver(&work.instances, &used, &mut m, &mut spans)?;
        layers::protocol(&lines, &wire::responses(&phase), &mut m, &mut spans)?;
        layers::atlas(
            Some(server.atlas()),
            None,
            &work.instances,
            &used,
            &mut m,
            &mut spans,
        );
        layers::builder(fixture.build_s, fixture.records, &mut m, &mut spans);
        write_spans(&spans, &args.workload, args.seed);
        Report::traced(
            header,
            hash,
            untraced,
            traced.with_setup(fixture.setup_s),
            m,
        )
    };
    server.stop();
    with_fixture_check(report, fixture.verified)
}

fn run_sweep(args: &Args) -> Result<Report, String> {
    let mut rng = Rng::new(args.seed);
    let mut sweep = Sweep::new(&mut rng);
    solve_all(&mut sweep.instances)?;
    let fixture = setup(false, args.seed)?;
    let atlas = fixture
        .atlas
        .as_ref()
        .expect("the sweep keeps its corpus in process");
    let seconds = Duration::from_secs(args.seconds);
    let (seq, hash) = sweep.plan(&mut rng, 20_000);
    let header = format!(
        "closed loop, one in-process thread, {:.0}% light rows; no daemon",
        sweep::SWEEP_LIGHT * 100.0
    );
    let report = if !args.trace {
        let s = sweep.summarize(&sweep.run(atlas, &seq, WARMUP, seconds, None));
        Report::untraced(header, hash, s.with_setup(fixture.setup_s))
    } else {
        let half = seconds / 2;
        let untraced = sweep.summarize(&sweep.run(atlas, &seq, WARMUP, half, None));
        let mut spans = SpanLog::new();
        let phase = sweep.run(atlas, &seq, WARMUP, half, Some(&mut spans));
        let traced = sweep.summarize(&phase);
        let mut m = Layers::new();
        m.insert(
            "atlas.hit_ratio".into(),
            ratio(phase.hits as f64, phase.lookups as f64),
        );
        let used = sweep.used(&phase);
        layers::solver(&sweep.instances, &used, &mut m, &mut spans)?;
        layers::atlas(
            None,
            Some(atlas),
            &sweep.instances,
            &used,
            &mut m,
            &mut spans,
        );
        layers::builder(fixture.build_s, fixture.records, &mut m, &mut spans);
        write_spans(&spans, &args.workload, args.seed);
        Report::traced(
            header,
            hash,
            untraced,
            traced.with_setup(fixture.setup_s),
            m,
        )
    };
    with_fixture_check(report, fixture.verified)
}

/// A corpus sample that failed to replay makes the whole run incorrect.
fn with_fixture_check(mut report: Report, verified: Result<(), String>) -> Result<Report, String> {
    if let Err(e) = verified {
        report.failed = report.failed.max(1);
        report
            .error
            .get_or_insert(format!("atlas sample diverges: {e}"));
    }
    Ok(report)
}

fn write_spans(spans: &SpanLog, workload: &str, seed: u64) {
    let path = spans_path(workload, seed);
    match spans.write(&path) {
        Ok(()) => println!("# spans: {} written to {}", spans.len(), path.display()),
        Err(e) => println!("# spans: not written ({e})"),
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload wire_mixed|tenant_flood|solver_sweep --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    let result = match args.workload.as_str() {
        "wire_mixed" => run_wire(&args, Kind::Mixed),
        "tenant_flood" => run_wire(&args, Kind::Flood),
        _ => run_sweep(&args),
    };
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "# workload {} seed {} seconds {} trace {}: {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        report.header
    );
    println!("# request stream hash {:016x}", report.hash);
    let half = if report.layers.is_some() {
        " (traced half)"
    } else {
        ""
    };
    let mut metrics = String::new();
    for (name, unit, gated) in END_TO_END {
        let value = report.summary.get(name);
        let note = if gated { "" } else { "  (printed, not gated)" };
        println!("# {name:<16} {value:>12.4} {unit}{half}{note}");
        if gated && report.layers.is_none() {
            let _ = write!(
                metrics,
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}},",
                json_number(value)
            );
        }
    }
    if let Some(m) = &report.layers {
        println!(
            "# {:<36} {:>12}  {:<6} {:<58} should move",
            "per-layer metric", "value", "unit", "base"
        );
        for (name, unit, base, moves) in PER_LAYER {
            let value = m.get(*name).copied().unwrap_or(0.0);
            println!("# {name:<36} {value:>12.4}  {unit:<6} {base:<58} {moves}");
            let _ = write!(
                metrics,
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}},",
                json_number(value)
            );
        }
    }
    metrics.pop();
    println!(
        "# failed_share {} ({} failed of {} attempted)",
        ratio(report.failed as f64, report.attempted as f64),
        report.failed,
        report.attempted
    );
    if let Some(e) = &report.error {
        println!("# first error: {e}");
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        report.failed == 0 && report.error.is_none() && report.attempted > 0,
        report.attempted.max(1),
        report.failed
    );
}
