//! Integration tests for the stability atlas: the disk-resident
//! precomputed corpus (`bncg-atlas`) and its serving path through the
//! daemon's `atlas_lookup` op.
//!
//! The contracts exercised here are the ones the subsystem exists for —
//!
//! 1. **resumability**: a build interrupted at arbitrary points and
//!    resumed across real process-style reopens produces an atlas
//!    byte-identical to the one-shot build;
//! 2. **honesty**: stored verdicts replay exactly against a live solver
//!    (differential verification), and a torn segment tail is detected
//!    and re-derived, never silently served;
//! 3. **zero-cost serving**: an `atlas_lookup` hit over the wire charges
//!    the tenant's budget pool nothing.

use bncg::atlas::{
    build, key, verify_atlas, AlphaSpec, Atlas, AtlasRecord, BuildReport, BuildSpec, DiskBacking,
    MemoryBacking, RamBacking, StoredVerdict,
};
use bncg::core::jsonio;
use bncg::core::{Alpha, Concept, CostModelSpec, ExecPolicy, Solver, StabilityQuery};
use bncg::graph::{enumerate, generators};
use bncg::serve::protocol::render_edges;
use bncg::serve::scheduler::SchedulerConfig;
use bncg::serve::server::{Server, ServerConfig};
use bncg::serve::AtlasService;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

/// A scratch directory under the target dir, wiped on creation and
/// removed on drop (kept on panic for post-mortem).
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Scratch {
        let dir =
            std::env::temp_dir().join(format!("bncg-atlas-test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}

/// Every stored line of an atlas, in order — the byte-level identity the
/// resume property is stated over.
fn lines<B: MemoryBacking>(atlas: &Atlas<B>) -> Vec<String> {
    let mut out = Vec::new();
    atlas
        .backing()
        .for_each_line(&mut |_, line| out.push(line.to_string()))
        .expect("readable backing");
    out
}

/// A spec cheap enough to build many times in one test: every concept,
/// two fixed prices plus the n-dependent one, trees-through-cliques.
fn small_spec() -> BuildSpec {
    BuildSpec::standard(5)
}

#[test]
fn interrupted_builds_resume_to_the_identical_atlas() {
    // Reference: the one-shot build.
    let scratch = Scratch::new("resume-oneshot");
    let spec = small_spec();
    let mut oneshot = Atlas::open(DiskBacking::open(scratch.path()).unwrap()).unwrap();
    let report = build(&mut oneshot, &spec, u64::MAX, None).unwrap();
    assert!(report.complete);
    assert!(report.appended > 1000, "n ≤ 5 must store > 1000 records");
    let want = lines(&oneshot);

    // Property: for seeded random interruption schedules, a chain of
    // step-limited builds — each reopening the directory from scratch,
    // as a new process would — reaches the same bytes.
    for seed in 0..4u64 {
        let mut rng = SmallRng::seed_from_u64(0xA71A5 ^ seed);
        let scratch = Scratch::new(&format!("resume-chain-{seed}"));
        // Small segments so the chain also crosses rotation boundaries.
        let mut rounds = 0;
        loop {
            rounds += 1;
            let backing = DiskBacking::open_with_segment_records(scratch.path(), 97).unwrap();
            let mut atlas = Atlas::open(backing).unwrap();
            let step = rng.gen_range(50..400);
            let report = build(&mut atlas, &spec, u64::MAX, Some(step)).unwrap();
            if report.complete {
                assert_eq!(
                    lines(&atlas),
                    want,
                    "seed {seed}: resumed chain diverged from the one-shot build"
                );
                break;
            }
            assert!(rounds < 100, "seed {seed}: chain failed to converge");
        }
    }
}

#[test]
fn resume_does_not_recheck_the_stored_prefix() {
    // The resume walk must skip stored records without re-running the
    // solver: a drained budget pool would otherwise turn the prefix into
    // exhausted records on the second pass.
    let spec = small_spec();
    let mut atlas = Atlas::open(RamBacking::new()).unwrap();
    let first = build(&mut atlas, &spec, u64::MAX, None).unwrap();
    assert!(first.complete);
    // Resume with a budget equal to what is already stored: zero slack,
    // yet nothing new to compute — the walk must finish charging nothing.
    let stored_evals = atlas.evals_total();
    let again = build(&mut atlas, &spec, stored_evals, None).unwrap();
    assert!(again.complete);
    assert_eq!(again.appended, 0);
    assert_eq!(again.evals_charged, 0);
    assert_eq!(again.skipped, first.appended);
}

/// The sequential reference walk: every connected class of every level,
/// then each concept, then each price, each query checked on one thread
/// against one pool. Returns each record's line and evals.
fn reference_build(spec: &BuildSpec, budget: u64) -> Vec<(String, u64)> {
    let solver = Solver::new(
        ExecPolicy::default()
            .with_threads(1)
            .with_batch_budget(budget),
    );
    let pool = AtomicU64::new(0);
    let mut out = Vec::new();
    for (n, level) in enumerate::graph_class_levels(spec.max_n as usize).unwrap() {
        let mut grid: Vec<Alpha> = (spec.grid.iter())
            .map(|a| match a {
                AlphaSpec::Fixed(a) => *a,
                AlphaSpec::N => Alpha::integer(n as i64).unwrap(),
            })
            .collect();
        grid.sort();
        grid.dedup();
        for g in level.iter().filter(|g| g.is_connected()) {
            let (key, _, _) = key::instance_key(g).unwrap();
            for (&concept, &alpha) in spec
                .concepts
                .iter()
                .flat_map(|c| grid.iter().map(move |a| (c, a)))
            {
                let query = StabilityQuery::new(concept, g, alpha);
                let verdict = solver.check_many_pooled(&[query], &pool).pop().unwrap();
                let (verdict, evals) = StoredVerdict::of_verdict(&verdict.unwrap());
                let record = AtlasRecord {
                    key: key.clone(),
                    n: n as u32,
                    concept,
                    alpha,
                    model: CostModelSpec::SumDistances,
                    verdict,
                    evals,
                };
                out.push((record.to_string(), evals));
            }
        }
    }
    out
}

/// Builds `spec` under `budget` in calls of at most `step` records, each
/// on the atlas `open` hands back (`None` on the first call), and checks
/// every call's report and the final lines against the reference walk.
fn assert_build_matches_reference<B: MemoryBacking>(
    spec: &BuildSpec,
    budget: u64,
    step: Option<u64>,
    open: &mut dyn FnMut(Option<Atlas<B>>) -> Atlas<B>,
) {
    let want = reference_build(spec, budget);
    let total = want.len() as u64;
    let cum: Vec<u64> = std::iter::once(0)
        .chain(want.iter().scan(0, |sum, (_, evals)| {
            *sum += evals;
            Some(*sum)
        }))
        .collect();
    let mut atlas = open(None);
    loop {
        let done = atlas.len();
        let report = build(&mut atlas, spec, budget, step).unwrap();
        let end = step.map_or(total, |s| total.min(done + s));
        let at = |i: u64| cum[usize::try_from(i).unwrap()];
        let expected = BuildReport {
            appended: end - done,
            skipped: done,
            evals_charged: at(end) - at(done),
            pool_used: at(end),
            complete: end == total,
            rederived_tail: 0,
        };
        assert_eq!(
            report, expected,
            "budget {budget}, step {step:?}, from {done}"
        );
        if report.complete {
            break;
        }
        atlas = open(Some(atlas));
    }
    let want: Vec<String> = want.into_iter().map(|(line, _)| line).collect();
    assert!(
        lines(&atlas) == want,
        "budget {budget}, step {step:?}: the build diverged from the sequential walk"
    );
}

#[test]
fn builds_match_the_sequential_walk_at_every_budget() {
    // Speculation must be invisible: at every budget — none, zero, one
    // quantum either side of the first poll, and one eval either side of
    // the reference's pool position at every 37th record, so each kind of
    // drain point is crossed — the lines and every report field equal the
    // sequential walk's, in one call or in chains of step-limited calls.
    let spec = small_spec();
    let unlimited = reference_build(&spec, u64::MAX);
    let mut budgets = vec![0, 1, 64, 65, u64::MAX];
    let mut sum = 0;
    for (i, (_, evals)) in unlimited.iter().enumerate() {
        sum += evals;
        if i % 37 == 36 {
            budgets.extend([sum.saturating_sub(1), sum, sum + 1]);
        }
    }
    budgets.sort_unstable();
    budgets.dedup();
    let ram = &mut |prev: Option<Atlas<RamBacking>>| {
        prev.unwrap_or_else(|| Atlas::open(RamBacking::new()).unwrap())
    };
    for &budget in &budgets {
        assert_build_matches_reference(&spec, budget, None, ram);
        let scratch = Scratch::new("budget-oneshot");
        let disk = &mut |_: Option<Atlas<DiskBacking>>| {
            Atlas::open(DiskBacking::open_with_segment_records(scratch.path(), 97).unwrap())
                .unwrap()
        };
        assert_build_matches_reference(&spec, budget, None, disk);
    }
    // Chains at a finite budget that drains midway, each call reopening
    // the directory as a new process would.
    let half = unlimited[..unlimited.len() / 2]
        .iter()
        .map(|(_, e)| e)
        .sum::<u64>();
    for (budget, step) in [(half, 7), (half + 1, 50), (1000, 331)] {
        assert_build_matches_reference(&spec, budget, Some(step), ram);
        let scratch = Scratch::new("budget-chain");
        let disk = &mut |_: Option<Atlas<DiskBacking>>| {
            Atlas::open(DiskBacking::open_with_segment_records(scratch.path(), 97).unwrap())
                .unwrap()
        };
        assert_build_matches_reference(&spec, budget, Some(step), disk);
    }
}

#[test]
fn differential_verify_replays_stored_verdicts_exactly() {
    // The satellite contract: a seeded sample of stored entries at
    // n ≤ 8 over α ∈ {1/2, 2, n}, each replayed against a live Solver
    // demanding exact verdict + witness + eval-count equality.
    let spec = BuildSpec {
        max_n: 8,
        grid: vec![
            AlphaSpec::Fixed(Alpha::from_ratio(1, 2).unwrap()),
            AlphaSpec::Fixed(Alpha::integer(2).unwrap()),
            AlphaSpec::N,
        ],
        concepts: vec![Concept::Ps, Concept::Bne],
    };
    let mut atlas = Atlas::open(RamBacking::new()).unwrap();
    let report = build(&mut atlas, &spec, u64::MAX, None).unwrap();
    assert!(report.complete);

    let verified = verify_atlas(&atlas, 256, 0xD1FF, 8).unwrap();
    assert_eq!(verified.replayed, 256);
    assert_eq!(verified.skipped_exhausted, 0);
    assert!(verified.eligible > 50_000, "n ≤ 8 corpus is ~73k records");
}

#[test]
fn torn_segment_tail_is_detected_and_rederived() {
    let scratch = Scratch::new("torn-tail");
    let spec = small_spec();
    let backing = DiskBacking::open_with_segment_records(scratch.path(), 97).unwrap();
    let mut atlas = Atlas::open(backing).unwrap();
    build(&mut atlas, &spec, u64::MAX, None).unwrap();
    let want = lines(&atlas);
    let stored = atlas.len();
    drop(atlas);

    // Tear the last segment mid-record, as a crashed writer would: chop
    // the final 40 bytes (well inside the last line plus its newline).
    let last_seg = std::fs::read_dir(scratch.path())
        .unwrap()
        .filter_map(|e| {
            let p = e.unwrap().path();
            p.file_name()?.to_str()?.starts_with("seg-").then_some(p)
        })
        .max()
        .unwrap();
    let bytes = std::fs::read(&last_seg).unwrap();
    std::fs::write(&last_seg, &bytes[..bytes.len() - 40]).unwrap();

    // Reopen: the torn line is dropped (detected, not served)...
    let backing = DiskBacking::open_with_segment_records(scratch.path(), 97).unwrap();
    let mut atlas = Atlas::open(backing).unwrap();
    assert_eq!(atlas.dropped_tail(), 1);
    assert_eq!(atlas.len(), stored - 1);

    // ...and the resumed build re-derives it, restoring byte identity.
    let report = build(&mut atlas, &spec, u64::MAX, None).unwrap();
    assert!(report.complete);
    assert_eq!(report.rederived_tail, 1);
    assert_eq!(report.appended, 1);
    assert_eq!(lines(&atlas), want);
}

/// Spins up a daemon backed by an n ≤ 5 corpus and runs one
/// request/response exchange per line.
fn exchange(server: &Server, line: &str) -> String {
    let mut sock = TcpStream::connect(server.addr()).expect("connect");
    let mut reader = BufReader::new(sock.try_clone().expect("clone"));
    sock.write_all(line.as_bytes()).expect("send");
    sock.write_all(b"\n").expect("send");
    let mut response = String::new();
    reader.read_line(&mut response).expect("recv");
    response.trim().to_string()
}

#[test]
fn served_atlas_hits_charge_the_tenant_pool_nothing() {
    let mut atlas = Atlas::open(RamBacking::new()).unwrap();
    build(&mut atlas, &small_spec(), u64::MAX, None).unwrap();
    // Re-open type-erased, as the daemon's loader does.
    let mut boxed: Box<dyn MemoryBacking + Send + Sync> = Box::new(RamBacking::new());
    atlas
        .backing()
        .for_each_line(&mut |_, line| boxed.append_line(line).unwrap())
        .unwrap();
    let server = Server::start(ServerConfig {
        scheduler: SchedulerConfig {
            workers: 1,
            slice: 256,
            default_grant: 10_000,
            journal: None,
        },
        atlas: Arc::new(AtlasService::with_atlas(Atlas::open(boxed).unwrap())),
        ..ServerConfig::default()
    })
    .expect("bind");

    let g = generators::path(5);
    let lookup = |id: u64, alpha: &str| {
        format!(
            "{{\"id\":{id},\"op\":\"atlas_lookup\",\"tenant\":\"carol\",\"concept\":\"bne\",\
             \"alpha\":\"{alpha}\",\"n\":{},\"edges\":{}}}",
            g.n(),
            render_edges(&g)
        )
    };

    // On-grid: answered from the corpus, zero evals, zero slices.
    let hit = exchange(&server, &lookup(1, "2"));
    assert_eq!(jsonio::str_field(&hit, "source"), Some("atlas"));
    assert_eq!(jsonio::str_field(&hit, "verdict"), Some("unstable"));
    assert_eq!(jsonio::u64_field(&hit, "evals"), Some(0));
    assert_eq!(jsonio::u64_field(&hit, "slices"), Some(0));
    // The hit never reached the scheduler: carol has no pool at all yet.
    assert!(server.scheduler().tenants().is_empty());
    assert_eq!((server.atlas().hits(), server.atlas().misses()), (1, 0));

    // Off-grid α: falls through to a live check that *does* meter.
    let live = exchange(&server, &lookup(2, "7/3"));
    assert_eq!(jsonio::str_field(&live, "source"), Some("live"));
    assert_eq!(jsonio::str_field(&live, "verdict"), Some("unstable"));
    assert!(jsonio::u64_field(&live, "evals").unwrap() > 0);
    let carol = server
        .scheduler()
        .tenants()
        .into_iter()
        .find(|t| t.name == "carol")
        .expect("live fall-through creates the pool");
    assert!(carol.used > 0, "live path must charge the pool");
    assert_eq!((server.atlas().hits(), server.atlas().misses()), (1, 1));

    // Both verdicts agree: the corpus and the solver are one substrate.
    assert_eq!(
        jsonio::object_field(&hit, "witness"),
        jsonio::object_field(&live, "witness")
    );
    server.stop();
}

/// The full n ≤ 9 standard corpus under one pooled budget. ~260k graph
/// classes with every concept: minutes of wall clock, so opt-in.
#[test]
#[ignore = "builds the full n ≤ 9 corpus; run explicitly"]
fn full_n9_atlas_builds_under_a_single_pooled_budget() {
    let scratch = Scratch::new("full-n9");
    let spec = BuildSpec::standard(9);
    let budget: u64 = 2_000_000_000;
    let mut atlas = Atlas::open(DiskBacking::open(scratch.path()).unwrap()).unwrap();
    let report = build(&mut atlas, &spec, budget, None).unwrap();
    assert!(report.complete);
    assert!(report.pool_used <= budget);
    // Spot-check honesty on a seeded sample before declaring victory.
    let verified = verify_atlas(&atlas, 64, 0x9A7C, 8).unwrap();
    assert_eq!(verified.replayed, 64);
}
