//! The two daemon workloads: `wire_mixed` (open-loop mixed traffic well
//! below saturation) and `tenant_flood` (a saturating heavy tenant plus
//! a paced light prober).

use crate::catalog::{self, Group, Instance};
use crate::client::{drive, Phase, Planned, Source};
use crate::layers::Layers;
use crate::util::{fnv1a, mean, ms, quantile, ratio, Rng, Span, SpanLog, FNV_OFFSET};
use crate::{Samples, Summary};
use bncg_core::jsonio;
use bncg_serve::Server;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// `wire_mixed` offered load, requests per second (Poisson arrivals).
pub const MIXED_RATE: f64 = 300.0;
/// Share of `wire_mixed` ops in the light class.
pub const MIXED_LIGHT: f64 = 0.75;
/// Interactive tenants of `wire_mixed`; their shares of the light ops
/// are drawn exponentially. Heavy ops run under one shared batch tenant,
/// so a light op waits behind at most one heavy slice per pass of the
/// fair-share ring.
pub const MIXED_TENANTS: usize = 8;
/// `tenant_flood` heavy tenant: ops kept resident (closed loop).
pub const FLOOD_WINDOW: usize = 8;
/// `tenant_flood` light tenant: one probe due every this many ms.
pub const FLOOD_PROBE_MS: u64 = 10;
/// Heavy-class family weights of `wire_mixed` (and `solver_sweep`).
/// Weighted so the heavy median falls inside the 2-BSE cluster rather
/// than on the edge between two families.
pub const HEAVY_MIX: [(Group, f64); 5] = [
    (Group::Bne, 25.0),
    (Group::Kbse2, 35.0),
    (Group::Kbse3, 15.0),
    (Group::Bse, 10.0),
    (Group::Traj, 15.0),
];
/// `tenant_flood` heavy-tenant weights; `Poly` is the star(256) checks.
const FLOOD_MIX: [(Group, f64); 5] = [
    (Group::Bne, 15.0),
    (Group::Kbse2, 25.0),
    (Group::Kbse3, 30.0),
    (Group::Bse, 27.0),
    (Group::Poly, 3.0),
];

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Mixed,
    Flood,
}

/// A workload's instance table, indexed by family.
pub struct Wire {
    kind: Kind,
    pub instances: Vec<Instance>,
    /// Heavy families (flood: with the star(256) checks under `Poly`).
    heavy: BTreeMap<&'static str, Vec<usize>>,
    /// Light pools: atlas hits and poly checks (mixed), probes (flood).
    light: Vec<Vec<usize>>,
}

fn push_all(table: &mut Vec<Instance>, items: Vec<Instance>) -> Vec<usize> {
    let start = table.len();
    table.extend(items);
    (start..table.len()).collect()
}

impl Wire {
    pub fn new(kind: Kind, rng: &mut Rng) -> Wire {
        let mut instances = Vec::new();
        let shapes = &mut Rng::new(catalog::SHAPE_SEED);
        let mut heavy: BTreeMap<&'static str, Vec<usize>> = BTreeMap::new();
        for inst in catalog::heavy(shapes) {
            heavy
                .entry(inst.group.label())
                .or_default()
                .push(instances.len());
            instances.push(inst);
        }
        let light = match kind {
            Kind::Mixed => {
                let atlas = push_all(&mut instances, catalog::atlas_hits(shapes, 400));
                let poly = push_all(
                    &mut instances,
                    catalog::poly(shapes, &[16, 24, 32, 48, 64], 300),
                );
                vec![atlas, poly]
            }
            Kind::Flood => {
                heavy.insert(
                    Group::Poly.label(),
                    push_all(&mut instances, catalog::big_poly()),
                );
                vec![push_all(
                    &mut instances,
                    catalog::poly(shapes, &[16, 32, 64], 60),
                )]
            }
        };
        catalog::relabel(&mut instances, rng);
        Wire {
            kind,
            instances,
            heavy,
            light,
        }
    }

    fn pick_heavy(&self, rng: &mut Rng) -> usize {
        let mix = match self.kind {
            Kind::Mixed => &HEAVY_MIX,
            Kind::Flood => &FLOOD_MIX,
        };
        let weights: Vec<f64> = mix.iter().map(|(_, w)| *w).collect();
        let pool = &self.heavy[mix[rng.weighted(&weights)].0.label()];
        pool[rng.below(pool.len())]
    }

    /// Renders the phase's request stream before timing starts, with the
    /// FNV-1a hash of every line and due time. Heavy ops stream progress
    /// frames when `traced`; trajectories always do.
    pub fn plan(
        &self,
        rng: &mut Rng,
        horizon: Duration,
        traced: bool,
        first_id: u64,
    ) -> (Vec<Source>, u64) {
        let mut id = first_id;
        let mut hash = FNV_OFFSET;
        let mut op = |inst: usize, tenant: &str, light: bool, due: Duration| {
            let item = &self.instances[inst];
            let stream = !light && (traced || item.group == Group::Traj);
            let line = item.request(id, tenant, stream);
            hash = fnv1a(hash, line.as_bytes());
            hash = fnv1a(hash, &due.as_nanos().to_le_bytes());
            id += 1;
            Planned {
                id: id - 1,
                light,
                inst,
                line,
                due,
            }
        };
        let sources = match self.kind {
            Kind::Mixed => {
                let shares: Vec<f64> = (0..MIXED_TENANTS).map(|_| rng.exp(1.0)).collect();
                let mut ops = Vec::new();
                let mut t = 0.0;
                loop {
                    t += rng.exp(1.0 / MIXED_RATE);
                    let due = Duration::from_secs_f64(t);
                    if due >= horizon {
                        break;
                    }
                    if rng.unit() < MIXED_LIGHT {
                        let user = rng.weighted(&shares);
                        let pool = &self.light[rng.below(self.light.len())];
                        ops.push(op(
                            pool[rng.below(pool.len())],
                            &format!("u{user}"),
                            true,
                            due,
                        ));
                    } else {
                        ops.push(op(self.pick_heavy(rng), BULK, false, due));
                    }
                }
                vec![Source::Open(ops)]
            }
            Kind::Flood => {
                // Enough closed-loop ops for far more than the worker's
                // capacity over the horizon.
                let count = (horizon.as_secs_f64() * 1000.0) as usize;
                let heavy = (0..count)
                    .map(|_| op(self.pick_heavy(rng), BULK, false, Duration::ZERO))
                    .collect();
                let probes = &self.light[0];
                let slots = horizon.as_millis() as u64 / FLOOD_PROBE_MS;
                let paced = (0..slots)
                    .map(|k| {
                        op(
                            probes[rng.below(probes.len())],
                            "interactive",
                            true,
                            Duration::from_millis(k * FLOOD_PROBE_MS),
                        )
                    })
                    .collect();
                vec![Source::Window(heavy, FLOOD_WINDOW), Source::Paced(paced)]
            }
        };
        (sources, hash)
    }

    /// Checks every answer of a phase: per-record verdicts, plus
    /// (attempted, failed) over the window and the first error anywhere.
    pub fn verify(&self, phase: &Phase) -> (Vec<bool>, u64, u64, Option<String>) {
        let (mut ok, mut attempted, mut failed, mut first) = (Vec::new(), 0, 0, None);
        for r in &phase.records {
            let result = match r.done {
                None => Err(format!("op {} got no answer", r.id)),
                Some(_) => self.instances[r.inst].verify_line(&r.response),
            };
            let in_window = phase.sub_window(r).is_some();
            attempted += u64::from(in_window);
            ok.push(result.is_ok());
            if let Err(e) = result {
                failed += u64::from(in_window);
                first.get_or_insert(e);
            }
        }
        (ok, attempted, failed, first)
    }
}

/// End-to-end numbers of one phase; failed ops are excluded from the
/// latency samples and counted in `failed`.
pub fn summarize(phase: &Phase, wire: &Wire) -> Summary {
    let (ok, attempted, failed, error) = wire.verify(phase);
    let mut s = Samples::default();
    for (r, ok) in phase.records.iter().zip(ok) {
        let Some(sub) = phase.sub_window(r) else {
            continue;
        };
        s.lag.push(ms(r.sent.saturating_duration_since(r.ready)));
        if let (true, Some(l)) = (ok, r.latency()) {
            s.push(sub, r.light, ms(l));
        }
    }
    Summary::new(attempted, failed, error, &phase.cuts, s)
}

/// The tenant every heavy op runs under, on both wire workloads.
const BULK: &str = "bulk";

/// Scheduler counters of one traced phase, read through the daemon's
/// public accessors: per-tenant rows before and after, and `resident()`
/// sampled every 10 ms by a ticker thread.
pub struct Counters {
    rows_before: Vec<bncg_serve::TenantRow>,
    rows_after: Vec<bncg_serve::TenantRow>,
    resident: Vec<f64>,
    hits: (u64, u64),
    misses: (u64, u64),
}

/// Runs `load` while a ticker samples the scheduler.
pub fn with_counters<T>(server: &Server, load: impl FnOnce() -> T) -> (T, Counters) {
    let rows_before = server.scheduler().tenant_rows();
    let hits0 = server.atlas().hits();
    let misses0 = server.atlas().misses();
    let stop = AtomicBool::new(false);
    let (out, resident) = std::thread::scope(|s| {
        let ticker = s.spawn(|| {
            let mut samples = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                samples.push(server.scheduler().resident() as f64);
                std::thread::sleep(Duration::from_millis(10));
            }
            samples
        });
        let out = load();
        stop.store(true, Ordering::Relaxed);
        (out, ticker.join().expect("the ticker does not panic"))
    });
    let counters = Counters {
        rows_before,
        rows_after: server.scheduler().tenant_rows(),
        resident,
        hits: (hits0, server.atlas().hits()),
        misses: (misses0, server.atlas().misses()),
    };
    (out, counters)
}

/// The traced phase's wire-side layer metrics, and its request spans
/// (one per op, with a child span per slice bounded by the streamed
/// progress frames).
pub fn traced_layers(phase: &Phase, counters: &Counters, m: &mut Layers, spans: &mut SpanLog) {
    let mut rtt = phase.stats_rtt_us.clone();
    m.insert("server.stats_rtt_us_p50".into(), quantile(&mut rtt, 0.5));
    m.insert("server.stats_rtt_us_p99".into(), quantile(&mut rtt, 0.99));
    let (hits, misses) = (
        counters.hits.1 - counters.hits.0,
        counters.misses.1 - counters.misses.0,
    );
    m.insert(
        "atlas.hit_ratio".into(),
        ratio(hits as f64, (hits + misses) as f64),
    );

    let before: BTreeMap<&str, &bncg_serve::TenantRow> = counters
        .rows_before
        .iter()
        .map(|r| (r.name.as_str(), r))
        .collect();
    let (mut waited, mut used) = ([0f64; 2], 0f64);
    for row in &counters.rows_after {
        let (w0, u0) = before
            .get(row.name.as_str())
            .map_or((0, 0), |b| (b.waited_ms, b.used));
        waited[usize::from(row.name != BULK)] += (row.waited_ms - w0) as f64;
        used += (row.used - u0) as f64;
    }
    let (mut slices, mut evals, mut heavy_slices) = ([0f64; 2], 0f64, Vec::new());
    for r in &phase.records {
        let s = jsonio::u64_field(&r.response, "slices").unwrap_or(0) as f64;
        slices[usize::from(r.light)] += s;
        evals += jsonio::u64_field(&r.response, "evals").unwrap_or(0) as f64;
        if !r.light {
            heavy_slices.push(s);
        }
    }
    m.insert(
        "scheduler.wait_ms_per_slice.light".into(),
        ratio(waited[1], slices[1]),
    );
    m.insert(
        "scheduler.wait_ms_per_slice.heavy".into(),
        ratio(waited[0], slices[0]),
    );
    m.insert("scheduler.slices_per_req.heavy".into(), mean(&heavy_slices));
    m.insert("scheduler.resident_mean".into(), mean(&counters.resident));
    m.insert("scheduler.pool_gap".into(), used - evals);

    for r in &phase.records {
        let Some(done) = r.done else { continue };
        let parent = spans.push(Span {
            name: if r.light {
                "request.light"
            } else {
                "request.heavy"
            },
            start: r.sent,
            end: done,
            parent: None,
            req: r.id,
        });
        let mut from = r.sent;
        for &at in r.frames.iter().chain(std::iter::once(&done)) {
            spans.push(Span {
                name: "slice",
                start: from,
                end: at,
                parent: Some(parent),
                req: r.id,
            });
            from = at;
        }
    }
}

/// Distinct instances and request lines a phase used, for the replays.
pub fn used<'a>(sources: &'a [Source], phase: &Phase) -> (Vec<usize>, Vec<&'a str>) {
    let sent: BTreeSet<u64> = phase.records.iter().map(|r| r.id).collect();
    let mut insts = BTreeSet::new();
    let mut lines = Vec::new();
    for source in sources {
        for op in source.ops().iter().filter(|op| sent.contains(&op.id)) {
            if insts.insert(op.inst) {
                lines.push(op.line.as_str());
            }
        }
    }
    (insts.into_iter().collect(), lines)
}

/// Response lines of a phase (final lines only).
pub fn responses(phase: &Phase) -> Vec<&str> {
    phase
        .records
        .iter()
        .filter(|r| r.done.is_some())
        .map(|r| r.response.as_str())
        .collect()
}

/// Runs one untraced phase and returns its summary and hash.
pub fn measure(
    server: &Server,
    wire: &Wire,
    rng: &mut Rng,
    warmup: Duration,
    window: Duration,
) -> (Summary, u64) {
    let (sources, hash) = wire.plan(rng, warmup + window, false, 1);
    let phase =
        drive(server.addr(), &sources, warmup, window, None).expect("the daemon serves the load");
    (summarize(&phase, wire), hash)
}
