//! Per-layer metrics of traced runs. Every number is taken from outside
//! the program: by timing public calls on the run's own distinct inputs
//! after the load phase, or by reading public counters during it.

use crate::catalog::{expect_of, Group, Instance, Task};
use crate::util::{mean, ms, quantile, ratio, timed, us, Span, SpanLog};
use bncg_atlas::{key, DynAtlas};
use bncg_core::{CostModelSpec, ExecPolicy, Solver, StabilityQuery, Verdict};
use bncg_graph::enumerate::connected_graph_classes;
use bncg_serve::{parse_request, AtlasService};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Measured per-layer values by metric name.
pub type Layers = BTreeMap<String, f64>;

/// Every per-layer metric: name, unit, base (what it is measured over),
/// and the end-to-end metric and workload it should move.
pub const PER_LAYER: &[(&str, &str, &str, &str)] = &[
    (
        "server.stats_rtt_us_p50",
        "us",
        "wire stats probes, answered on the event loop",
        "light_p50_ms, cpu_ms_per_req on wire_mixed",
    ),
    (
        "server.stats_rtt_us_p99",
        "us",
        "wire stats probes",
        "light_p50_ms, cpu_ms_per_req on wire_mixed",
    ),
    (
        "protocol.parse_us_p50",
        "us",
        "parse_request over the run's distinct request lines",
        "cpu_ms_per_req on wire_mixed",
    ),
    (
        "protocol.parse_us_p99",
        "us",
        "parse_request over the run's distinct request lines",
        "cpu_ms_per_req on wire_mixed",
    ),
    (
        "protocol.resp_bytes_mean",
        "B",
        "final response lines",
        "cpu_ms_per_req on wire_mixed",
    ),
    (
        "atlas.hit_ratio",
        "ratio",
        "atlas lookups",
        "light_p50_ms on wire_mixed",
    ),
    (
        "atlas.lookup_us_p50",
        "us",
        "AtlasService::try_answer (sweep: Atlas::lookup) on distinct inputs",
        "light_p50_ms on wire_mixed",
    ),
    (
        "atlas.lookup_us_p99",
        "us",
        "AtlasService::try_answer (sweep: Atlas::lookup) on distinct inputs",
        "light_p50_ms on wire_mixed",
    ),
    (
        "graph.canon_us_p50",
        "us",
        "key::instance_key on the atlas inputs",
        "light_p50_ms on wire_mixed",
    ),
    (
        "atlas.build_s",
        "s",
        "bncg_atlas::build of the n <= 8 corpus, median of the set-ups",
        "setup_s on all",
    ),
    (
        "atlas.build_records_per_s",
        "1/s",
        "records appended per build second",
        "setup_s on all",
    ),
    (
        "graph.enumerate_s",
        "s",
        "connected_graph_classes(n) for n <= 8",
        "setup_s on all",
    ),
    (
        "scheduler.wait_ms_per_slice.light",
        "ms",
        "tenant_rows waited_ms delta over light-tenant slices",
        "light_p99_ms on tenant_flood",
    ),
    (
        "scheduler.wait_ms_per_slice.heavy",
        "ms",
        "tenant_rows waited_ms delta over heavy-tenant slices",
        "heavy_p99_ms on wire_mixed",
    ),
    (
        "scheduler.slices_per_req.heavy",
        "count",
        "response slices of heavy ops",
        "heavy_p99_ms on wire_mixed, goodput_rps on tenant_flood",
    ),
    (
        "scheduler.resident_mean",
        "count",
        "Scheduler::resident sampled every 10 ms",
        "heavy_p99_ms on wire_mixed",
    ),
    (
        "scheduler.pool_gap",
        "count",
        "sum of pool used minus sum of response evals",
        "goodput_rps on tenant_flood",
    ),
    (
        "solver.slice_ms_p50",
        "ms",
        "check_sliced calls of quantum 2048 on distinct checks",
        "light_p99_ms, goodput_rps on tenant_flood",
    ),
    (
        "solver.slice_ms_p99",
        "ms",
        "check_sliced calls of quantum 2048 on distinct checks",
        "light_p99_ms, goodput_rps on tenant_flood",
    ),
    (
        "solver.poly_slice_ms_max",
        "ms",
        "slowest one-slice polynomial check",
        "light_p99_ms on tenant_flood",
    ),
    (
        "solver.sliced_over_oneshot",
        "ratio",
        "sliced chain time over one-shot check time, same checks",
        "goodput_rps on tenant_flood; nothing on solver_sweep",
    ),
    (
        "solver.chain_eval_excess",
        "ratio",
        "sliced-chain evals minus one-shot evals, over one-shot evals",
        "goodput_rps on tenant_flood",
    ),
    (
        "solver.token_bytes_mean",
        "B",
        "Frontier::to_json between slices",
        "goodput_rps on tenant_flood",
    ),
    (
        "solver.token_parse_us_p50",
        "us",
        "Frontier parse between slices",
        "goodput_rps on tenant_flood",
    ),
    (
        "solver.check_ms_p50.bne",
        "ms",
        "one-shot Solver::check, BNE inputs",
        "heavy_p50_ms, goodput_rps on solver_sweep and tenant_flood",
    ),
    (
        "solver.check_ms_p50.kbse2",
        "ms",
        "one-shot Solver::check, 2-BSE inputs",
        "heavy_p50_ms, goodput_rps on solver_sweep and tenant_flood",
    ),
    (
        "solver.check_ms_p50.kbse3",
        "ms",
        "one-shot Solver::check, 3-BSE inputs",
        "heavy_p50_ms, goodput_rps on solver_sweep and tenant_flood",
    ),
    (
        "solver.check_ms_p50.bse",
        "ms",
        "one-shot Solver::check, BSE inputs",
        "heavy_p50_ms, goodput_rps on solver_sweep and tenant_flood",
    ),
    (
        "solver.check_ms_p50.poly",
        "ms",
        "one-shot Solver::check, polynomial inputs",
        "light_p50_ms on solver_sweep",
    ),
    (
        "solver.check_ms_p99.bne",
        "ms",
        "one-shot Solver::check, BNE inputs",
        "heavy_p99_ms on solver_sweep",
    ),
    (
        "solver.check_ms_p99.kbse2",
        "ms",
        "one-shot Solver::check, 2-BSE inputs",
        "heavy_p99_ms on solver_sweep",
    ),
    (
        "solver.check_ms_p99.kbse3",
        "ms",
        "one-shot Solver::check, 3-BSE inputs",
        "heavy_p99_ms on solver_sweep",
    ),
    (
        "solver.check_ms_p99.bse",
        "ms",
        "one-shot Solver::check, BSE inputs",
        "heavy_p99_ms on solver_sweep",
    ),
    (
        "solver.check_ms_p99.poly",
        "ms",
        "one-shot Solver::check, polynomial inputs",
        "light_p99_ms on solver_sweep",
    ),
    (
        "solver.evals_per_req.bne",
        "count",
        "evals per one-shot BNE check",
        "heavy_p50_ms on solver_sweep",
    ),
    (
        "solver.evals_per_req.kbse2",
        "count",
        "evals per one-shot 2-BSE check",
        "heavy_p50_ms on solver_sweep",
    ),
    (
        "solver.evals_per_req.kbse3",
        "count",
        "evals per one-shot 3-BSE check",
        "heavy_p50_ms on solver_sweep",
    ),
    (
        "solver.evals_per_req.bse",
        "count",
        "evals per one-shot BSE check",
        "heavy_p50_ms on solver_sweep",
    ),
    (
        "solver.evals_per_req.poly",
        "count",
        "evals per one-shot polynomial check (unmetered: 0)",
        "light_p50_ms on solver_sweep",
    ),
    (
        "solver.pruned_share",
        "ratio",
        "pruned over pruned plus evals, stable exponential checks",
        "heavy_p50_ms on solver_sweep",
    ),
    (
        "solver.evals_per_s",
        "1/s",
        "evals over one-shot time, exponential checks",
        "goodput_rps on solver_sweep and tenant_flood",
    ),
    (
        "dynamics.traj_ms_p50",
        "ms",
        "round_robin::run_with_policy_under on distinct trajectories",
        "heavy_p50_ms on wire_mixed",
    ),
    (
        "client.lag_ms_p99",
        "ms",
        "send time minus the earliest allowed send time",
        "run validity",
    ),
    (
        "trace.overhead_p50",
        "ratio",
        "traced p50_ms over untraced p50_ms, same run",
        "run validity",
    ),
    (
        "trace.overhead_goodput",
        "ratio",
        "traced goodput_rps over untraced goodput_rps, same run",
        "run validity",
    ),
];

const GROUPS: [Group; 5] = [
    Group::Bne,
    Group::Kbse2,
    Group::Kbse3,
    Group::Bse,
    Group::Poly,
];

/// Times `f` as a span named `name` under `parent`.
fn span<T>(
    spans: &mut SpanLog,
    name: &'static str,
    parent: usize,
    f: impl FnOnce() -> T,
) -> (T, Duration) {
    let start = Instant::now();
    let (out, d) = timed(f);
    spans.push(Span {
        name,
        start,
        end: start + d,
        parent: Some(parent),
        req: 0,
    });
    (out, d)
}

/// Replays the run's distinct solver inputs through one-shot checks,
/// sliced chains at the daemon quantum (with frontier round trips), and
/// trajectories. Every answer must pass the oracle.
pub fn solver(
    instances: &[Instance],
    used: &[usize],
    m: &mut Layers,
    spans: &mut SpanLog,
) -> Result<(), String> {
    let root = spans.open("replay.solver");
    let solver = Solver::new(ExecPolicy::default().with_threads(1));
    let mut check_ms: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut evals_by: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let (mut slice_ms, mut token_bytes, mut token_parse_us, mut traj_ms) =
        (vec![], vec![], vec![], vec![]);
    let (mut poly_max, mut sliced_s, mut oneshot_s) = (0f64, 0f64, 0f64);
    let (mut pruned, mut pruned_base, mut exp_evals, mut exp_s) = (0f64, 0f64, 0f64, 0f64);
    let mut excess = 0f64;
    for &i in used {
        let inst = &instances[i];
        match inst.task {
            Task::Trajectory { .. } => {
                let (got, d) = span(spans, "dynamics.trajectory", root, || inst.run_one_shot());
                inst.verify_answer(&got)?;
                traj_ms.push(ms(d));
            }
            Task::Check { concept, alpha } => {
                if inst.group == Group::Atlas {
                    continue;
                }
                let (verdict, d) = span(spans, "solver.check", root, || {
                    solver.check(&StabilityQuery::new(concept, &inst.graph, alpha))
                });
                let verdict = verdict.map_err(|e| e.to_string())?;
                inst.verify_answer(&expect_of(&verdict))?;
                let key = inst.group.label();
                check_ms.entry(key).or_default().push(ms(d));
                let evals = match &verdict {
                    Verdict::Stable {
                        evals, pruned: p, ..
                    } => {
                        if concept.is_exponential() {
                            pruned += *p as f64;
                            pruned_base += (*p + *evals) as f64;
                        }
                        *evals
                    }
                    Verdict::Unstable { evals, .. } => *evals,
                    Verdict::Exhausted { .. } => unreachable!("unbudgeted"),
                };
                evals_by.entry(key).or_default().push(evals as f64);
                if concept.is_exponential() {
                    exp_evals += evals as f64;
                    exp_s += d.as_secs_f64();
                }
                // The same check as the daemon runs it, slice by slice.
                let chain_start = Instant::now();
                let done = inst.sliced(|took, token| {
                    slice_ms.push(ms(took));
                    if inst.group == Group::Poly {
                        poly_max = poly_max.max(ms(took));
                    }
                    if let Some((token, parse)) = token {
                        token_bytes.push(token.len() as f64);
                        token_parse_us.push(us(parse));
                    }
                })?;
                let chain = chain_start.elapsed();
                spans.push(Span {
                    name: "solver.check_sliced",
                    start: chain_start,
                    end: chain_start + chain,
                    parent: Some(root),
                    req: 0,
                });
                let chain_evals = inst.verify_chain(&expect_of(&done))?;
                if concept.is_exponential() {
                    excess += chain_evals as f64 - evals as f64;
                }
                sliced_s += chain.as_secs_f64();
                oneshot_s += d.as_secs_f64();
            }
        }
    }
    m.insert("solver.slice_ms_p50".into(), quantile(&mut slice_ms, 0.5));
    m.insert("solver.slice_ms_p99".into(), quantile(&mut slice_ms, 0.99));
    m.insert("solver.poly_slice_ms_max".into(), poly_max);
    m.insert(
        "solver.sliced_over_oneshot".into(),
        ratio(sliced_s, oneshot_s),
    );
    m.insert("solver.chain_eval_excess".into(), ratio(excess, exp_evals));
    m.insert("solver.token_bytes_mean".into(), mean(&token_bytes));
    m.insert(
        "solver.token_parse_us_p50".into(),
        quantile(&mut token_parse_us, 0.5),
    );
    for g in GROUPS {
        let mut t = check_ms.remove(g.label()).unwrap_or_default();
        m.insert(
            format!("solver.check_ms_p50.{}", g.label()),
            quantile(&mut t, 0.5),
        );
        m.insert(
            format!("solver.check_ms_p99.{}", g.label()),
            quantile(&mut t, 0.99),
        );
        m.insert(
            format!("solver.evals_per_req.{}", g.label()),
            mean(&evals_by.remove(g.label()).unwrap_or_default()),
        );
    }
    m.insert("solver.pruned_share".into(), ratio(pruned, pruned_base));
    m.insert("solver.evals_per_s".into(), ratio(exp_evals, exp_s));
    m.insert("dynamics.traj_ms_p50".into(), quantile(&mut traj_ms, 0.5));
    spans.finish(root, Instant::now());
    Ok(())
}

/// `parse_request` over distinct request lines, plus response sizes.
pub fn protocol(
    lines: &[&str],
    responses: &[&str],
    m: &mut Layers,
    spans: &mut SpanLog,
) -> Result<(), String> {
    let root = spans.open("replay.protocol");
    let mut parse_us = Vec::with_capacity(lines.len());
    for line in lines {
        let (req, d) = span(spans, "protocol.parse", root, || {
            parse_request(line.trim_end())
        });
        req.map_err(|e| format!("request line does not parse: {}", e.reason))?;
        parse_us.push(us(d));
    }
    m.insert("protocol.parse_us_p50".into(), quantile(&mut parse_us, 0.5));
    m.insert(
        "protocol.parse_us_p99".into(),
        quantile(&mut parse_us, 0.99),
    );
    let bytes: Vec<f64> = responses.iter().map(|r| r.len() as f64).collect();
    m.insert("protocol.resp_bytes_mean".into(), mean(&bytes));
    spans.finish(root, Instant::now());
    Ok(())
}

/// Atlas probes and canonical keys on the run's distinct atlas inputs,
/// through the daemon's service (`svc`) or the in-process corpus.
pub fn atlas(
    svc: Option<&AtlasService>,
    corpus: Option<&DynAtlas>,
    instances: &[Instance],
    used: &[usize],
    m: &mut Layers,
    spans: &mut SpanLog,
) {
    let root = spans.open("replay.atlas");
    let (mut lookup_us, mut canon_us) = (vec![], vec![]);
    for &i in used {
        let inst = &instances[i];
        let Task::Check { concept, alpha } = inst.task else {
            continue;
        };
        if inst.graph.n() > 8 {
            continue;
        }
        let d = match (svc, corpus) {
            (Some(svc), _) if inst.group == Group::Atlas => {
                span(spans, "atlas.try_answer", root, || {
                    svc.try_answer(0, concept, &inst.graph, alpha, CostModelSpec::SumDistances)
                })
                .1
            }
            (None, Some(corpus)) => {
                span(spans, "atlas.lookup", root, || {
                    corpus.lookup(&inst.graph, concept, alpha)
                })
                .1
            }
            _ => continue,
        };
        lookup_us.push(us(d));
        canon_us.push(us(span(spans, "graph.canon", root, || {
            key::instance_key(&inst.graph)
        })
        .1));
    }
    m.insert("atlas.lookup_us_p50".into(), quantile(&mut lookup_us, 0.5));
    m.insert("atlas.lookup_us_p99".into(), quantile(&mut lookup_us, 0.99));
    m.insert("graph.canon_us_p50".into(), quantile(&mut canon_us, 0.5));
    spans.finish(root, Instant::now());
}

/// The builder's layers: corpus build (timed at set-up) and graph-class
/// enumeration.
pub fn builder(build_s: f64, records: u64, m: &mut Layers, spans: &mut SpanLog) {
    let root = spans.open("replay.enumerate");
    let (_, d) = span(spans, "graph.enumerate", root, || {
        (1..=8)
            .map(|n| connected_graph_classes(n).map_or(0, |c| c.len()))
            .sum::<usize>()
    });
    spans.finish(root, Instant::now());
    m.insert("graph.enumerate_s".into(), d.as_secs_f64());
    m.insert("atlas.build_s".into(), build_s);
    m.insert(
        "atlas.build_records_per_s".into(),
        ratio(records as f64, build_s),
    );
}
