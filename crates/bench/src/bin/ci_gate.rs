//! The CI perf-regression gate (the `perf-gate` job in
//! `.github/workflows/ci.yml`).
//!
//! Runs pinned-seed kernels from the `engine_vs_naive` and `pruning`
//! bench suites at n = 16, writes the measurements to `BENCH_ci.json`
//! (uploaded as a workflow artifact), and fails when
//!
//! * a pruned checker disagrees with its raw reference (exactness),
//! * the `u64`-bitset distance substrate disagrees with the scalar BFS
//!   reference on the pinned G(64, 0.1) — per-source distances and
//!   materialization-free cost sums alike — or the all-pairs bitset
//!   build fails to beat the scalar path by the 5× floor
//!   (`bitset_speedup/allpairs_g64`); the batched bitset leaf
//!   evaluation is tracked by `batched_leaf_eval/bne_cycle12`, an
//!   evaluation-bound pinned scan exactness-asserted against both
//!   retained scalar scans and budgeted against the baseline like
//!   every wall-clock kernel,
//! * the branch-and-bound generator disagrees with the retained PR 2
//!   dense loop (witness or evaluated stream), touches more than 1% of
//!   a pinned stable instance's raw mask space, fails to beat the dense
//!   loop by the 3× floor (`generator_vs_dense/bne_star16`), or a
//!   4-slice resume chain on the pinned n = 24 cycle costs more than
//!   the per-slice setup budget (`generator_resume_overhead/bne_cycle24`
//!   — exactness-asserted first, including that the n = 24 scan
//!   *completes* under a finite eval budget),
//! * a pruning speedup drops below the 3× floor the PR 2 acceptance
//!   criteria demand (machine-independent: both sides run on the same
//!   host),
//! * the unified `Solver` facade adds more than 5% overhead over the
//!   direct pruned scans it drives (machine-independent ratio, batched
//!   so each sample is tens of milliseconds; the µs-scale star16 kernel
//!   carries a looser 20% ceiling because the bitset substrate left it
//!   too fast to amortize the facade's fixed per-query setup),
//! * the metered anytime best-response scan adds more than 5% overhead
//!   over the direct `best_response_in` path it wraps, or a sliced
//!   checkpoint-resume round-robin chain costs more than 10% wall clock
//!   over the uninterrupted run (both exactness-checked first: the
//!   metered scan must return the identical response, the chain the
//!   identical final state),
//! * the stability atlas is dishonest or pointless: a 128-record seeded
//!   sample of the real builder's n ≤ 8 corpus must replay exactly
//!   against a live solver, the pinned K4,4 BSE record's relabeled
//!   witness must improve every deviator on the query-labeled graph,
//!   and the hit path (canonicalize + probe + relabel) must beat the
//!   live coalition scan by the 100× floor
//!   (`atlas_lookup_vs_live/n8_grid`),
//! * the serving layer's time-slicing scheduler costs more than 25%
//!   wall clock over running the same pinned mixed batch — an
//!   evaluation-bound BNE check, a round-robin trajectory, and a
//!   best-response scan — as direct one-shot calls
//!   (`sched_slicing_overhead/mixed_batch`; every scheduler verdict is
//!   exactness-asserted against its direct counterpart first, and the
//!   check is forced through multiple slices),
//! * weighted round-robin dispatch fails to bound a light tenant's
//!   delay behind a 100-query heavy flood (asserted machine-independent;
//!   the light query's latency is also budgeted as
//!   `sched_fairness/mixed_tenants`), or 500 idle connections parked on
//!   the readiness-loop front end push the wire cost of the pinned
//!   mixed batch past the scheduler ceiling
//!   (`idle_conns_overhead/mixed_batch_500`; exactness-asserted through
//!   the wire first),
//! * the documented [`CheckBudget::default`] wall-clock meaning drifts
//!   outside sanity (the gate derives `budget_default_seconds` from the
//!   measured raw-reference evaluation rate — this is the calibration
//!   the `CheckBudget` rustdoc cites), or
//! * a kernel's wall-clock regresses more than `BENCH_CI_TOLERANCE`
//!   (default 0.25 = 25%) against the checked-in
//!   `crates/bench/BENCH_baseline.json`, after scaling the baseline by a
//!   substrate **calibration kernel** (pure BFS distance-matrix builds,
//!   untouched by checker changes) so a slower or faster CI host moves
//!   every budget proportionally instead of failing spuriously.
//!
//! When running under GitHub Actions the gate also appends a markdown
//! kernel table (baseline, measured, ratio, pass/fail) to
//! `$GITHUB_STEP_SUMMARY`, so a regression is readable from the PR
//! checks page without downloading the `BENCH_ci` artifact.
//!
//! Regenerate the baseline on a quiet machine with
//! `cargo run --release -p bncg-bench --bin ci_gate -- --write-baseline`.

use bncg_bench::pruning_kernels::{budget, instances};
use bncg_core::solver::{ExecPolicy, Solver, StabilityQuery, Verdict};
use bncg_core::{
    best_response_in, best_response_with_policy, concepts, Alpha, BestResponseVerdict, CheckBudget,
    Concept, CostModelSpec, GameState, Utility,
};
use bncg_dynamics::round_robin;
use bncg_graph::{bfs_distances, generators, BitsetGraph, DistanceMatrix, UNREACHABLE};
use bncg_serve::{QuerySpec, Scheduler, SchedulerConfig, Work};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

const SPEEDUP_FLOOR: f64 = 3.0;
/// The word-parallel bitset substrate must beat the scalar BFS path by
/// at least this factor on the pinned all-pairs kernel.
const BITSET_SPEEDUP_FLOOR: f64 = 5.0;
/// The solver facade may cost at most this factor over the direct scan.
const SOLVER_OVERHEAD_CEILING: f64 = 1.05;
/// The facade ceiling for the µs-scale star16 kernel. The bitset
/// substrate cut the direct pruned scan to ~4 µs, so the facade's fixed
/// per-query setup (query validation, policy plumbing, verdict
/// assembly) is no longer amortizable there (measured 1.02–1.11×); the
/// ms-scale kbse3 kernel keeps guarding the amortized regime at the
/// strict 5%.
const SOLVER_SETUP_OVERHEAD_CEILING: f64 = 1.20;
/// The metered best-response scan may cost at most this factor over the
/// direct unmetered path.
const METERED_BR_OVERHEAD_CEILING: f64 = 1.05;
/// A sliced checkpoint-resume round-robin chain may cost at most this
/// factor over the uninterrupted policy run.
const RR_RESUME_OVERHEAD_CEILING: f64 = 1.10;
/// Draining a mixed batch through the serving layer's time-slicing
/// scheduler may cost at most this factor over the same batch as
/// one-shot calls. The scheduler genuinely pays queue round-trips,
/// frontier/checkpoint serialization at every slice boundary, and
/// per-slice query setup, so the ceiling sits above the in-process
/// resume kernels'.
const SCHED_SLICING_OVERHEAD_CEILING: f64 = 1.25;
/// A 4-slice generator resume chain may cost at most this factor over
/// the uninterrupted scan. The chain genuinely pays per-slice query
/// setup (pruner rebuild, O(n²)) that the µs-scale cycle24 scan cannot
/// amortize, so the ceiling sits above the metered kernels' ~1.0
/// (measured: ~1.09).
const GENERATOR_RESUME_OVERHEAD_CEILING: f64 = 1.30;
/// Serving a stored atlas verdict (canonicalize + probe + relabel) must
/// beat recomputing the pinned expensive live check by this factor.
const ATLAS_HIT_SPEEDUP_FLOOR: f64 = 100.0;
/// The trait-dispatched `generalized:id` model — the identical
/// objective through the generic `CostModel` arm instead of the default
/// model's monomorphic fast paths — may cost at most this factor on the
/// hot scan path (ISSUE 9's acceptance ceiling). Both sides share the
/// solver facade and the same pruning decisions, so the ratio isolates
/// pure dispatch.
const COST_MODEL_DISPATCH_CEILING: f64 = 1.05;
const CALIBRATION_KEY: &str = "calibration/substrate_bfs";

/// The machine-speed yardstick: ~100 ms of all-pairs BFS matrix builds on
/// a pinned G(64, 0.1). Deliberately substrate-only — it shares no code
/// with the checkers under test, so a checker regression cannot inflate
/// the calibration and mask itself. Long enough (and preceded by a
/// warm-up run in `main`) that turbo/cache state cannot swing it.
fn calibration_kernel() {
    let mut rng = bncg_graph::test_rng(0xCA11B);
    let g = generators::random_connected(64, 0.1, &mut rng);
    for _ in 0..8_000 {
        black_box(DistanceMatrix::new(black_box(&g)));
    }
}

/// Median wall-clock of `samples` runs of `f`.
fn median_secs(samples: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    times[times.len() / 2]
}

/// Median of per-pair `other/reference` wall-clock ratios across 7
/// samples of `iters` iterations each. Both sides are timed back to
/// back inside every sample, so slow frequency drift across the
/// measurement window cancels out of the ratio instead of landing
/// entirely on one side of a ~1.00 value judged against a tight
/// ceiling — the shared methodology of every overhead kernel.
fn paired_overhead(iters: usize, reference: &dyn Fn(), other: &dyn Fn()) -> f64 {
    let mut ratios: Vec<f64> = (0..7)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                reference();
            }
            let reference_batch = t.elapsed().as_secs_f64();
            let t = Instant::now();
            for _ in 0..iters {
                other();
            }
            t.elapsed().as_secs_f64() / reference_batch.max(1e-12)
        })
        .collect();
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    ratios[ratios.len() / 2]
}

struct Gate {
    results: Vec<(String, f64)>,
    failures: Vec<String>,
}

impl Gate {
    fn record(&mut self, name: &str, secs: f64) {
        println!("{name}: {:.4} s", secs);
        self.results.push((name.to_string(), secs));
    }

    fn check_speedup(&mut self, name: &str, reference: f64, pruned: f64) {
        self.check_speedup_floor(name, reference / pruned.max(1e-12), SPEEDUP_FLOOR);
    }

    /// [`Gate::check_speedup`] against an explicit floor (the bitset
    /// substrate kernels carry a higher one than the pruning kernels).
    fn check_speedup_floor(&mut self, name: &str, speedup: f64, floor: f64) {
        println!("{name}: {speedup:.1}x");
        self.results.push((name.to_string(), speedup));
        if speedup < floor {
            self.failures.push(format!(
                "{name}: speedup {speedup:.2}x is below the {floor}x floor"
            ));
        }
    }

    /// Records a paired-sampling overhead ratio and fails the gate when
    /// it exceeds its ceiling — the one record/check/report path every
    /// overhead kernel shares.
    fn check_overhead(&mut self, name: &str, overhead: f64, ceiling: f64) {
        println!("{name}: {overhead:.3}x (median of paired samples)");
        self.results.push((name.to_string(), overhead));
        if overhead > ceiling {
            self.failures.push(format!(
                "{name}: overhead {overhead:.3}x exceeds the {ceiling}x ceiling"
            ));
        }
    }
}

fn main() -> std::process::ExitCode {
    let write_baseline = std::env::args().any(|a| a == "--write-baseline");
    let tolerance: f64 = std::env::var("BENCH_CI_TOLERANCE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.25);
    let mut gate = Gate {
        results: Vec::new(),
        failures: Vec::new(),
    };

    // Machine yardstick first; one discarded warm-up run settles CPU
    // frequency and caches before the timed samples.
    calibration_kernel();
    let calibration = median_secs(5, calibration_kernel);
    gate.record(CALIBRATION_KEY, calibration);

    // Bitset substrate vs scalar BFS: exactness before timing, on the
    // pinned G(64, 0.1) at the substrate's n = 64 capacity — per-source
    // distance rows, reachable counts, and the materialization-free
    // `cost_from` sums must all agree with the scalar adjacency-list
    // BFS. Then the full all-pairs build (including the one-off
    // `from_graph` conversion a fresh `DistanceMatrix` pays) must clear
    // the 5× floor.
    let g64 = generators::random_connected(64, 0.1, &mut bncg_graph::test_rng(0xB175E7));
    let bits64 = BitsetGraph::from_graph(&g64).expect("n = 64 fits the bitset substrate");
    let mut scalar_row = Vec::new();
    let mut bitset_row = vec![0u32; 64];
    for u in 0..64u32 {
        let scalar_reached = bfs_distances(&g64, u, &mut scalar_row);
        let bitset_reached = bits64.write_distances(u, &mut bitset_row);
        assert_eq!(
            bitset_row, scalar_row,
            "bitset distances diverged from scalar BFS at source {u}"
        );
        assert_eq!(
            bitset_reached, scalar_reached,
            "bitset reachable count diverged at source {u}"
        );
        let (unreachable, sum) = bits64.cost_from(u);
        assert_eq!(
            unreachable as usize,
            64 - scalar_reached,
            "cost_from unreachable count diverged at source {u}"
        );
        let scalar_sum: u64 = scalar_row
            .iter()
            .filter(|&&d| d != UNREACHABLE)
            .map(|&d| u64::from(d))
            .sum();
        assert_eq!(
            sum, scalar_sum,
            "cost_from distance sum diverged at source {u}"
        );
    }
    let bitset_buf = std::cell::RefCell::new(vec![0u32; 64]);
    let scalar_buf = std::cell::RefCell::new(Vec::new());
    let bitset_speedup = paired_overhead(
        512,
        &|| {
            let bits = BitsetGraph::from_graph(black_box(&g64)).expect("n = 64");
            let buf = &mut *bitset_buf.borrow_mut();
            for u in 0..64u32 {
                black_box(bits.write_distances(u, buf));
            }
        },
        &|| {
            let buf = &mut *scalar_buf.borrow_mut();
            for u in 0..64u32 {
                black_box(bfs_distances(black_box(&g64), u, buf));
            }
        },
    );
    gate.check_speedup_floor(
        "bitset_speedup/allpairs_g64",
        bitset_speedup,
        BITSET_SPEEDUP_FLOOR,
    );

    // The pruning-suite instances (stable ⇒ full scans), shared with
    // `benches/pruning.rs` via `pruning_kernels::instances()`.
    let states: Vec<(&'static str, GameState)> = instances()
        .into_iter()
        .map(|(name, g, alpha)| (name, GameState::new(g, alpha)))
        .collect();
    let gnp = &states.last().expect("two instances").1;

    let mut bne_reference_star16 = f64::NAN;
    for (name, state) in states.iter().map(|(n, s)| (*n, s)) {
        // Exactness before any timing: generator ≡ raw reference ≡ the
        // retained PR 2 dense loop, witness and evaluated stream alike.
        let (pruned_mv, stats) =
            concepts::bne::find_violation_in_with_stats(state, budget()).unwrap();
        let reference_mv = concepts::bne::find_violation_in_reference(state, budget()).unwrap();
        let (dense_mv, dense_stats) =
            concepts::bne::find_violation_in_dense(state, budget()).unwrap();
        assert_eq!(pruned_mv, reference_mv, "BNE witness diverged on {name}");
        assert_eq!(pruned_mv, dense_mv, "generator witness diverged on {name}");
        assert_eq!(
            stats.evaluated, dense_stats.evaluated,
            "generator priced different candidates than the dense loop on {name}"
        );
        assert!(pruned_mv.is_none(), "{name} must scan to completion");
        // The ISSUE 5 acceptance bound: on the pinned stable instances
        // the generator touches ≤ 1% of the raw mask space.
        assert!(
            stats.visited * 100 <= stats.generated,
            "{name}: generator visited {} steps of a {}-mask space (> 1%)",
            stats.visited,
            stats.generated
        );
        let pruned = median_secs(5, || {
            concepts::bne::find_violation_in_with_stats(state, budget()).unwrap();
        });
        let reference = median_secs(3, || {
            concepts::bne::find_violation_in_reference(state, budget()).unwrap();
        });
        gate.record(&format!("bne_pruned/{name}"), pruned);
        gate.record(&format!("bne_reference/{name}"), reference);
        gate.check_speedup(&format!("bne_speedup/{name}"), reference, pruned);
        if name == "star16" {
            bne_reference_star16 = reference;
        }

        let kp = concepts::kbse::find_violation_in_with_stats(state, 2, budget())
            .unwrap()
            .0;
        let kr = concepts::kbse::find_violation_in_reference(state, 2, budget()).unwrap();
        assert_eq!(
            kp.is_some(),
            kr.is_some(),
            "2-BSE verdict diverged on {name}"
        );
        let pruned = median_secs(5, || {
            concepts::kbse::find_violation_in_with_stats(state, 2, budget()).unwrap();
        });
        let reference = median_secs(3, || {
            concepts::kbse::find_violation_in_reference(state, 2, budget()).unwrap();
        });
        gate.record(&format!("kbse2_pruned/{name}"), pruned);
        gate.record(&format!("kbse2_reference/{name}"), reference);
        gate.check_speedup(&format!("kbse2_speedup/{name}"), reference, pruned);
    }

    // The 3-BSE scan only the pruned checker can afford (raw space ~1.2e9).
    let pruned_k3 = median_secs(5, || {
        concepts::kbse::find_violation_in_with_stats(gnp, 3, budget()).unwrap();
    });
    gate.record("kbse3_pruned/gnp16_diam2", pruned_k3);

    // Generator vs the PR 2 dense mask loop it replaced (ISSUE 5): on
    // the star16 kernel the dense scan iterates the hub's 2¹⁵
    // pure-removal masks one by one; the generator kills them in a
    // handful of probes. Exactness was asserted above (witness and
    // evaluated stream); the paired ratio must clear the 3× floor — the
    // measured value is an order of magnitude above it.
    let star16_state = &states[0].1;
    let generator_speedup = paired_overhead(
        256,
        &|| {
            concepts::bne::find_violation_in_with_stats(black_box(star16_state), budget()).unwrap();
        },
        &|| {
            concepts::bne::find_violation_in_dense(black_box(star16_state), budget()).unwrap();
        },
    );
    gate.check_speedup("generator_vs_dense/bne_star16", generator_speedup, 1.0);

    // Batched bitset leaf evaluation: the pinned cycle12 at α = 16 sits
    // in the cycle stability window yet survives pruning with ~900
    // priced leaves per scan, so its wall clock tracks the batched
    // bitset pricing path rather than the pruning layer — the one
    // baseline-budgeted kernel that is evaluation-bound. Exactness
    // first: witness and evaluated stream must match both retained
    // scalar scans.
    let cycle12 = GameState::new(generators::cycle(12), Alpha::integer(16).expect("α"));
    let (batched_mv, batched_stats) =
        concepts::bne::find_violation_in_with_stats(&cycle12, budget()).unwrap();
    let (dense12_mv, dense12_stats) =
        concepts::bne::find_violation_in_dense(&cycle12, budget()).unwrap();
    let reference12_mv = concepts::bne::find_violation_in_reference(&cycle12, budget()).unwrap();
    assert_eq!(
        batched_mv, dense12_mv,
        "batched witness diverged from the dense scan on cycle12"
    );
    assert_eq!(
        batched_mv, reference12_mv,
        "batched witness diverged from the raw reference on cycle12"
    );
    assert_eq!(
        batched_stats.evaluated, dense12_stats.evaluated,
        "batched scan priced different candidates than the dense loop on cycle12"
    );
    assert!(batched_mv.is_none(), "cycle12 at α = 16 must be stable");
    assert!(
        batched_stats.evaluated >= 500,
        "cycle12 must stay evaluation-bound (only {} priced leaves)",
        batched_stats.evaluated
    );
    let batched = median_secs(5, || {
        concepts::bne::find_violation_in_with_stats(&cycle12, budget()).unwrap();
    });
    gate.record("batched_leaf_eval/bne_cycle12", batched);

    // Generator resume overhead (ISSUE 5): draining the pinned n = 24
    // cycle — a size the old raw-space guard refused outright — through a
    // chain of budgeted slices must stay within a small factor of the
    // uninterrupted scan: resuming re-derives one branch path, it does
    // not re-scan. Exactness first: the chain must reach the identical
    // (stable) verdict, and the uninterrupted run must *complete* under
    // a finite eval budget — the ISSUE 5 acceptance criterion.
    let (_, cycle24_g, cycle24_alpha, _) = bncg_analysis::table1::bne_n24_instances()
        .into_iter()
        .find(|(name, ..)| *name == "cycle24")
        .expect("the shared n = 24 kernel set names cycle24");
    let cycle24 = GameState::new(cycle24_g, cycle24_alpha);
    let uninterrupted = Solver::new(ExecPolicy::default().with_eval_budget(1 << 20));
    let v = uninterrupted
        .check(&StabilityQuery::on(Concept::Bne, &cycle24))
        .unwrap();
    let Verdict::Stable { evals, .. } = v else {
        panic!("cycle24 must complete exactly under a finite eval budget, got {v:?}");
    };
    assert!(evals > 0, "cycle24's pure removals are genuinely priced");
    let sliced = Solver::new(ExecPolicy::default().with_eval_budget((evals / 4).max(1)));
    let drain = |solver: &Solver| {
        let mut query = StabilityQuery::on(Concept::Bne, &cycle24);
        loop {
            match solver.check(&query).unwrap() {
                Verdict::Stable { .. } => return true,
                Verdict::Unstable { .. } => return false,
                Verdict::Exhausted { frontier, .. } => {
                    query = StabilityQuery::on(Concept::Bne, &cycle24).resume(frontier);
                }
            }
        }
    };
    assert!(
        drain(&sliced),
        "sliced chain diverged from the uninterrupted verdict"
    );
    let resume_overhead = paired_overhead(
        64,
        &|| {
            assert!(matches!(
                uninterrupted
                    .check(&StabilityQuery::on(Concept::Bne, black_box(&cycle24)))
                    .unwrap(),
                Verdict::Stable { .. }
            ));
        },
        &|| {
            assert!(drain(black_box(&sliced)));
        },
    );
    gate.check_overhead(
        "generator_resume_overhead/bne_cycle24",
        resume_overhead,
        GENERATOR_RESUME_OVERHEAD_CEILING,
    );

    // CheckBudget::default() calibration: the rustdoc's wall-clock claim
    // is derived here, not assumed. The star16 raw BNE reference prices
    // exactly 16·(2^15 − 1) candidates; the measured rate converts the
    // default budget into seconds of raw scanning on this host.
    let star16_raw_evals = 16.0 * ((1u64 << 15) - 1) as f64;
    let eval_rate = star16_raw_evals / bne_reference_star16.max(1e-12);
    let budget_default_secs = CheckBudget::DEFAULT_MAX_EVALS as f64 / eval_rate;
    gate.record("budget_default_seconds", budget_default_secs);
    if !(0.5..=500.0).contains(&budget_default_secs) {
        gate.failures.push(format!(
            "budget_default_seconds = {budget_default_secs:.1}s drifted outside \
             [0.5, 500] — update the CheckBudget::default() rustdoc and the \
             default budget"
        ));
    }

    // Solver-facade overhead: the unified query surface must stay within
    // 5% of the direct pruned scans it drives. Batched so each sample is
    // tens of milliseconds (the pruned kernels alone are µs-scale).
    let star16 = &states[0].1;
    let solver = Solver::default();
    for (key, iters, ceiling, direct, facade) in [
        (
            "solver_overhead/bne_star16",
            256usize,
            SOLVER_SETUP_OVERHEAD_CEILING,
            &(|| {
                concepts::bne::find_violation_in_with_stats(black_box(star16), budget()).unwrap();
            }) as &dyn Fn(),
            &(|| {
                let v = solver
                    .check(&StabilityQuery::on(Concept::Bne, black_box(star16)))
                    .unwrap();
                assert!(matches!(v, Verdict::Stable { .. }));
            }) as &dyn Fn(),
        ),
        (
            "solver_overhead/kbse3_gnp16",
            16usize,
            SOLVER_OVERHEAD_CEILING,
            &(|| {
                concepts::kbse::find_violation_in_with_stats(black_box(gnp), 3, budget()).unwrap();
            }) as &dyn Fn(),
            &(|| {
                let v = solver
                    .check(&StabilityQuery::on(Concept::KBse(3), black_box(gnp)))
                    .unwrap();
                assert!(matches!(v, Verdict::Stable { .. }));
            }) as &dyn Fn(),
        ),
    ] {
        let overhead = paired_overhead(iters, direct, facade);
        gate.check_overhead(key, overhead, ceiling);
    }

    // Cost-model dispatch overhead (ISSUE 9): `generalized:id` is the
    // paper's objective routed through the generic `CostModel` arm
    // instead of the default model's monomorphic fast paths, so pairing
    // it against the default on the same facade isolates what a
    // pluggable model pays per scan. Exactness first: identity utility
    // is distance-linear, so verdict, priced stream, and pruning
    // decisions must all coincide — only then is the ratio a dispatch
    // measurement rather than a work difference.
    let star16_id = GameState::with_cost_model(
        generators::star(16),
        Alpha::integer(2).expect("α"),
        CostModelSpec::Generalized(Utility::Identity),
    );
    let mono_v = solver
        .check(&StabilityQuery::on(Concept::Bne, star16))
        .unwrap();
    let dispatched_v = solver
        .check(&StabilityQuery::on(Concept::Bne, &star16_id))
        .unwrap();
    match (&mono_v, &dispatched_v) {
        (
            Verdict::Stable {
                evals: e1,
                pruned: p1,
                ..
            },
            Verdict::Stable {
                evals: e2,
                pruned: p2,
                ..
            },
        ) => {
            assert_eq!(e1, e2, "generalized:id priced a different candidate stream");
            assert_eq!(p1, p2, "generalized:id pruned differently than the default");
        }
        other => panic!("star16 at α = 2 must be BNE-stable under both models: {other:?}"),
    }
    let dispatch_overhead = paired_overhead(
        256,
        &|| {
            let v = solver
                .check(&StabilityQuery::on(Concept::Bne, black_box(star16)))
                .unwrap();
            assert!(matches!(v, Verdict::Stable { .. }));
        },
        &|| {
            let v = solver
                .check(&StabilityQuery::on(Concept::Bne, black_box(&star16_id)))
                .unwrap();
            assert!(matches!(v, Verdict::Stable { .. }));
        },
    );
    gate.check_overhead(
        "cost_model_dispatch/bne_star16",
        dispatch_overhead,
        COST_MODEL_DISPATCH_CEILING,
    );

    // Generalized-utility smoke kernel: a genuinely non-linear model on
    // the wall-clock ledger. `generalized:cap2` on the pinned path12 at
    // α = 2 runs filter-free (the proven bounds are sum-of-distances
    // theorems — `pruned` must be exactly 0) and flips the instance's
    // verdict to stable: capping the per-hop utility at 2 removes the
    // incentive to shorten long distances, which is the whole point of
    // the pluggable layer. The pinned eval count keeps the kernel's
    // workload honest across refactors.
    let path12_cap = GameState::with_cost_model(
        generators::path(12),
        Alpha::integer(2).expect("α"),
        CostModelSpec::Generalized(Utility::Capped(2)),
    );
    let cap_v = solver
        .check(&StabilityQuery::on(Concept::Bne, &path12_cap))
        .unwrap();
    let Verdict::Stable { pruned, evals, .. } = cap_v else {
        panic!("path12 at α = 2 must be BNE-stable under generalized:cap2, got {cap_v:?}");
    };
    assert_eq!(pruned, 0, "a non-linear model must run filter-free");
    assert!(
        evals > 10_000,
        "the filter-free scan must price the full candidate stream (got {evals})"
    );
    let generalized_smoke = median_secs(5, || {
        let v = solver
            .check(&StabilityQuery::on(Concept::Bne, &path12_cap))
            .unwrap();
        assert!(matches!(v, Verdict::Stable { .. }));
    });
    gate.record("cost_model_generalized/bne_path12", generalized_smoke);

    // The engine_vs_naive representative: 50 rounds of engine-backed
    // round-robin dynamics on path16 (the PR 1 headline kernel).
    let path = generators::path(16);
    let alpha2 = Alpha::integer(2).expect("α");
    let rr = median_secs(3, || {
        round_robin::run(&path, alpha2, 50).unwrap();
    });
    gate.record("round_robin50/path16", rr);

    // Metered best-response overhead: the ScanCtl-driven anytime scan
    // must stay within 5% of the direct unmetered path (it is now the
    // activation engine of every policy-driven round-robin run). The
    // path16 endpoint has a genuinely evaluated candidate space, so the
    // per-candidate poll is exercised, and the metering is *active* (a
    // finite budget, never reached) rather than the inert unbounded
    // control.
    let path_state = GameState::new(path.clone(), alpha2);
    let metered_policy = ExecPolicy::default().with_eval_budget(1 << 40);
    let direct_br = best_response_in(&path_state, 0, budget()).unwrap();
    match best_response_with_policy(&path_state, 0, &metered_policy).unwrap() {
        BestResponseVerdict::Optimal { response, .. } => {
            assert_eq!(response, direct_br, "metered best response diverged");
        }
        v => panic!("an unreachable budget must complete the scan, got {v:?}"),
    }
    let overhead = paired_overhead(
        8,
        &|| {
            best_response_in(black_box(&path_state), 0, budget()).unwrap();
        },
        &|| {
            best_response_with_policy(black_box(&path_state), 0, &metered_policy).unwrap();
        },
    );
    gate.check_overhead(
        "metered_br_overhead/path16",
        overhead,
        METERED_BR_OVERHEAD_CEILING,
    );

    // Anytime resume-chain overhead: slicing the same 50-round run into
    // ~20 budgeted checkpoint→resume slices must stay within 10% of the
    // uninterrupted policy run — the cost of true anytime trajectories
    // is bounded re-hydration, not re-scanning. Exactness first: the
    // chain must land on the identical final state.
    let unbounded = ExecPolicy::default();
    let model = CostModelSpec::SumDistances;
    let reference_run =
        round_robin::run_with_policy_under(&path, alpha2, model, 50, &unbounded).unwrap();
    let slice_budget = (reference_run.evals / 20).max(1_000);
    let slice_policy = ExecPolicy::default().with_eval_budget(slice_budget);
    let chain = |policy: &ExecPolicy| {
        let mut out = round_robin::run_with_policy_under(&path, alpha2, model, 50, policy).unwrap();
        while let Some(checkpoint) = out.checkpoint.take() {
            out =
                round_robin::resume_under(&out.final_graph, alpha2, model, 50, policy, &checkpoint)
                    .unwrap();
        }
        out
    };
    let chained = chain(&slice_policy);
    assert_eq!(
        chained.final_graph.fingerprint(),
        reference_run.final_graph.fingerprint(),
        "checkpoint-resume chain diverged from the uninterrupted run"
    );
    assert_eq!(chained.moves, reference_run.moves, "move counts diverged");
    let overhead = paired_overhead(
        1,
        &|| {
            round_robin::run_with_policy_under(&path, alpha2, model, 50, &unbounded).unwrap();
        },
        &|| {
            chain(&slice_policy);
        },
    );
    println!("rr_resume chain: {slice_budget}-eval slices");
    gate.check_overhead(
        "rr_resume_overhead/path16",
        overhead,
        RR_RESUME_OVERHEAD_CEILING,
    );

    // Scheduler slicing overhead (ISSUE 7): draining a pinned mixed
    // batch — the evaluation-bound cycle40 BNE check at α = 370 (the
    // Lemma 2.4 stability window, 120 genuinely priced candidates), a
    // 50-round path9 trajectory, and a path12 best-response scan —
    // through a 1-worker time-slicing scheduler must stay within 25%
    // of the same batch as direct one-shot calls. Exactness first:
    // every scheduler verdict must match its direct counterpart, and
    // the slice size is pinned small enough that the check provably
    // runs as a multi-slice requeue chain rather than one shot.
    let c40 = generators::cycle(40);
    let a370 = Alpha::integer(370).expect("α");
    let path9 = generators::path(9);
    let path12 = generators::path(12);
    let one_shot = Solver::new(ExecPolicy::default().with_threads(1));
    let direct_check = one_shot
        .check(&StabilityQuery::new(Concept::Bne, &c40, a370))
        .unwrap();
    let Verdict::Stable {
        evals: c40_evals, ..
    } = direct_check
    else {
        panic!("cycle40 at α = 370 must be BNE-stable, got {direct_check:?}");
    };
    assert!(c40_evals > 64, "cycle40 must out-price one 48-eval slice");
    let direct_rr = round_robin::run(&path9, alpha2, 50).unwrap();
    assert!(direct_rr.converged, "path9 round robin must converge");
    let direct_br = best_response_in(&GameState::new(path12.clone(), alpha2), 0, budget()).unwrap();
    assert!(
        direct_br.best.is_some(),
        "path12 agent 0 must have an improving response"
    );
    let next_id = std::cell::Cell::new(0u64);
    let submit_to = |sched: &Scheduler, work: Work| {
        next_id.set(next_id.get() + 1);
        sched.submit_blocking(QuerySpec {
            id: next_id.get(),
            tenant: "gate".into(),
            work,
            resume: None,
            deadline_ms: None,
        })
    };
    let sched_batch = |sched: &Scheduler| {
        [
            submit_to(
                sched,
                Work::Check {
                    concept: Concept::Bne,
                    graph: c40.clone(),
                    alpha: a370,
                    cost_model: bncg_core::CostModelSpec::SumDistances,
                },
            ),
            submit_to(
                sched,
                Work::Trajectory {
                    graph: path9.clone(),
                    alpha: alpha2,
                    rounds: 50,
                    cost_model: bncg_core::CostModelSpec::SumDistances,
                },
            ),
            submit_to(
                sched,
                Work::BestResponse {
                    agent: 0,
                    graph: path12.clone(),
                    alpha: alpha2,
                    cost_model: bncg_core::CostModelSpec::SumDistances,
                },
            ),
        ]
    };
    let assert_batch_exact = |[check_line, traj_line, br_line]: &[String; 3]| {
        assert!(
            check_line.contains("\"verdict\":\"stable\"")
                && check_line.contains(&format!("\"evals\":{c40_evals}")),
            "scheduler check diverged from the direct solver: {check_line}"
        );
        assert!(
            traj_line.contains("\"converged\":1")
                && traj_line.contains(&format!("\"moves\":{}", direct_rr.moves)),
            "scheduler trajectory diverged from the direct run: {traj_line}"
        );
        assert!(
            br_line.contains("\"improving\":1"),
            "scheduler best response diverged from the direct scan: {br_line}"
        );
    };
    // Multi-slice proof on a fresh fine-grained scheduler: a 48-eval
    // slice forces the 120-eval check through a requeue chain, and the
    // chain's verdicts must still match the direct runs exactly.
    let fine = Scheduler::start(SchedulerConfig {
        workers: 1,
        slice: 48,
        default_grant: u64::MAX,
        journal: None,
    })
    .expect("ungated scheduler start");
    let proof = sched_batch(&fine);
    assert!(
        parse_json_number(&proof[0], "slices").is_some_and(|s| s >= 2.0),
        "the 48-eval slice must requeue the 120-eval check: {}",
        proof[0]
    );
    assert_batch_exact(&proof);
    fine.stop();
    // The timed scheduler runs production-sized slices (the best-response
    // scan still requeues several times; µs-scale slices would measure
    // the per-slice state rebuild, not the scheduling layer).
    let timed = Scheduler::start(SchedulerConfig {
        workers: 1,
        slice: 512,
        default_grant: u64::MAX,
        journal: None,
    })
    .expect("ungated scheduler start");
    assert_batch_exact(&sched_batch(&timed));
    let sched_overhead = paired_overhead(
        8,
        &|| {
            assert!(matches!(
                one_shot
                    .check(&StabilityQuery::new(Concept::Bne, black_box(&c40), a370))
                    .unwrap(),
                Verdict::Stable { .. }
            ));
            black_box(round_robin::run(black_box(&path9), alpha2, 50).unwrap());
            black_box(
                best_response_in(&GameState::new(path12.clone(), alpha2), 0, budget()).unwrap(),
            );
        },
        &|| {
            black_box(sched_batch(&timed));
        },
    );
    timed.stop();
    gate.check_overhead(
        "sched_slicing_overhead/mixed_batch",
        sched_overhead,
        SCHED_SLICING_OVERHEAD_CEILING,
    );

    // Weighted fairness (PR 10): a heavy tenant flooding a 1-worker
    // scheduler with 100 multi-slice scans must not be able to delay a
    // light tenant's single cheap query behind the flood. The
    // machine-independent bound is asserted directly (the light query
    // completes after a bounded number of heavy completions — FIFO
    // would put all 100 first); the light query's wall-clock latency is
    // also recorded as a budgeted kernel so scheduling-layer latency
    // regressions show against the baseline.
    {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let fair = Scheduler::start(SchedulerConfig {
            workers: 1,
            slice: 48,
            default_grant: u64::MAX,
            journal: None,
        })
        .expect("ungated scheduler start");
        let p5 = generators::path(5);
        let heavy_done = Arc::new(AtomicU64::new(0));
        let mut light_lats = Vec::new();
        let mut worst_heavy_before_light = 0u64;
        for trial in 0..5u64 {
            for k in 0..100u64 {
                let done = Arc::clone(&heavy_done);
                fair.submit(
                    QuerySpec {
                        id: trial * 1000 + k + 1,
                        tenant: "heavy".into(),
                        work: Work::Check {
                            concept: Concept::Bne,
                            graph: c40.clone(),
                            alpha: a370,
                            cost_model: CostModelSpec::SumDistances,
                        },
                        resume: None,
                        deadline_ms: None,
                    },
                    Box::new(move |_| {
                        done.fetch_add(1, Ordering::SeqCst);
                    }),
                );
            }
            let before = heavy_done.load(Ordering::SeqCst);
            // Snapshot the heavy count inside the response callback:
            // reading it after a blocking recv() would also count jobs
            // the worker drained during this thread's wakeup latency.
            let at_light = Arc::new(AtomicU64::new(0));
            let (tx, rx) = std::sync::mpsc::channel::<String>();
            let t = Instant::now();
            {
                let done = Arc::clone(&heavy_done);
                let at_light = Arc::clone(&at_light);
                fair.submit(
                    QuerySpec {
                        id: trial * 1000 + 999,
                        tenant: "light".into(),
                        work: Work::Check {
                            concept: Concept::Ps,
                            graph: p5.clone(),
                            alpha: alpha2,
                            cost_model: CostModelSpec::SumDistances,
                        },
                        resume: None,
                        deadline_ms: None,
                    },
                    Box::new(move |line| {
                        at_light.store(done.load(Ordering::SeqCst), Ordering::SeqCst);
                        let _ = tx.send(line);
                    }),
                );
            }
            let light = rx.recv().expect("light response");
            light_lats.push(t.elapsed().as_secs_f64());
            assert!(
                light.contains("\"verdict\":\"unstable\""),
                "light P5 check diverged: {light}"
            );
            worst_heavy_before_light =
                worst_heavy_before_light.max(at_light.load(Ordering::SeqCst) - before);
            // Drain the flood before the next trial so trials measure
            // the same contention shape.
            while heavy_done.load(Ordering::SeqCst) < (trial + 1) * 100 {
                std::thread::yield_now();
            }
        }
        fair.stop();
        assert!(
            worst_heavy_before_light <= 8,
            "light tenant waited behind {worst_heavy_before_light} heavy \
             completions — round-robin dispatch is not bounding its delay"
        );
        println!("sched_fairness: worst heavy-before-light = {worst_heavy_before_light}");
        light_lats.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        gate.record(
            "sched_fairness/mixed_tenants",
            light_lats[light_lats.len() / 2],
        );
    }

    // Idle-connection overhead (PR 10): the readiness-loop front end
    // claims an idle connection costs buffers, not threads. Draining
    // the pinned mixed batch (×4) over the wire of a daemon with 500
    // idle sockets parked on it must stay within the scheduler ceiling
    // of the same wire batch on an otherwise-identical unloaded daemon
    // — the poll-set scan over the idle fds must be noise against real
    // solver work. (The wire + scheduler cost itself is gated above by
    // `sched_slicing_overhead/mixed_batch`.)
    {
        use bncg_serve::protocol::render_edges;
        use bncg_serve::server::{Server, ServerConfig};
        use std::cell::RefCell;
        use std::io::{BufRead, BufReader, Write};
        use std::net::TcpStream;
        let daemon = || {
            Server::start(ServerConfig {
                addr: "127.0.0.1:0".into(),
                scheduler: SchedulerConfig {
                    workers: 1,
                    slice: 512,
                    default_grant: u64::MAX,
                    journal: None,
                },
                ..ServerConfig::default()
            })
            .expect("daemon start")
        };
        let bare_server = daemon();
        let idle_server = daemon();
        let idle: Vec<TcpStream> = (0..500)
            .map(|_| TcpStream::connect(idle_server.addr()).expect("idle connect"))
            .collect();
        let client = |server: &Server| {
            let sock = TcpStream::connect(server.addr()).expect("active connect");
            sock.set_nodelay(true).expect("nodelay");
            let reader = BufReader::new(sock.try_clone().expect("clone"));
            RefCell::new((sock, reader))
        };
        let mut batch = String::new();
        for rep in 0..4u64 {
            let base = rep * 10;
            batch.push_str(&format!(
                "{{\"id\":{},\"op\":\"check\",\"concept\":\"bne\",\"alpha\":\"370\",\
                 \"n\":40,\"edges\":{}}}\n",
                base + 1,
                render_edges(&c40)
            ));
            batch.push_str(&format!(
                "{{\"id\":{},\"op\":\"trajectory\",\"alpha\":\"2\",\"n\":9,\
                 \"edges\":{},\"rounds\":50}}\n",
                base + 2,
                render_edges(&path9)
            ));
            batch.push_str(&format!(
                "{{\"id\":{},\"op\":\"best_response\",\"agent\":0,\"alpha\":\"2\",\
                 \"n\":12,\"edges\":{}}}\n",
                base + 3,
                render_edges(&path12)
            ));
        }
        let bare = client(&bare_server);
        let loaded = client(&idle_server);
        let run_batch = |wire: &RefCell<(TcpStream, BufReader<TcpStream>)>| {
            let (sock, reader) = &mut *wire.borrow_mut();
            sock.write_all(batch.as_bytes()).expect("send batch");
            let mut line = String::new();
            for _ in 0..12 {
                line.clear();
                reader.read_line(&mut line).expect("recv");
                assert!(line.contains("\"ok\":1"), "wire batch failed: {line}");
            }
        };
        // Exactness through the wire first: the loaded daemon's
        // verdicts on one batch must match the direct runs.
        {
            let (sock, reader) = &mut *loaded.borrow_mut();
            sock.write_all(batch.as_bytes()).expect("send batch");
            let mut line = String::new();
            for _ in 0..12 {
                line.clear();
                reader.read_line(&mut line).expect("recv");
                let id = parse_json_number(&line, "id").expect("id") as u64 % 10;
                match id {
                    1 => assert!(
                        line.contains("\"verdict\":\"stable\"")
                            && line.contains(&format!("\"evals\":{c40_evals}")),
                        "wire check diverged: {line}"
                    ),
                    2 => assert!(
                        line.contains("\"converged\":1")
                            && line.contains(&format!("\"moves\":{}", direct_rr.moves)),
                        "wire trajectory diverged: {line}"
                    ),
                    _ => assert!(line.contains("\"improving\":1"), "wire BR diverged: {line}"),
                }
            }
        }
        // Warm both wire paths (connection buffers, scheduler caches)
        // before timing, and use enough iterations per paired sample
        // that one scheduling hiccup cannot dominate a ~10ms batch.
        run_batch(&bare);
        run_batch(&loaded);
        let idle_overhead = paired_overhead(4, &|| run_batch(&bare), &|| run_batch(&loaded));
        drop(idle);
        bare_server.stop();
        idle_server.stop();
        gate.check_overhead(
            "idle_conns_overhead/mixed_batch_500",
            idle_overhead,
            SCHED_SLICING_OVERHEAD_CEILING,
        );
    }

    // Atlas lookup vs live (ISSUE 8): the precomputed corpus must (a) be
    // honest — a seeded sample of stored verdicts replays exactly against
    // a live solver — and (b) earn its disk: serving a stored verdict
    // (canonicalize, probe, relabel the witness) must beat recomputing it
    // live by the 100× floor. The corpus is the real builder's n ≤ 8 walk
    // over the polynomial-and-BNE concepts; the latency instance is the
    // pinned K4,4 under full-coalition BSE at α = 1/2 — a dense class
    // whose live scan runs ~10⁵ candidate coalitions before finding its
    // witness, stored via the same canonical-derivation path the builder
    // uses (check the canonical representative, key by safe graph6).
    {
        use bncg_atlas::{
            build as build_atlas, key::instance_key, verify_atlas, AlphaSpec, Atlas, AtlasRecord,
            BuildSpec, RamBacking, StoredVerdict,
        };
        let half = Alpha::from_ratio(1, 2).expect("α");
        let spec = BuildSpec {
            max_n: 8,
            grid: vec![
                AlphaSpec::Fixed(half),
                AlphaSpec::Fixed(Alpha::integer(2).expect("α")),
                AlphaSpec::N,
            ],
            concepts: vec![Concept::Ps, Concept::Bne],
        };
        let mut atlas = Atlas::open(RamBacking::new()).expect("RAM atlas");
        let report = build_atlas(&mut atlas, &spec, u64::MAX, None).expect("corpus build");
        assert!(report.complete, "the n ≤ 8 corpus walk must complete");
        let verified = verify_atlas(&atlas, 128, 0xA71A5, 8).expect("stored verdicts must replay");
        assert_eq!(verified.replayed, 128, "differential sample came up short");

        let mut k44 = bncg_graph::Graph::new(8);
        for u in 0..4u32 {
            for v in 4..8u32 {
                k44.add_edge(u, v).expect("simple edge");
            }
        }
        let (safe, canon, _) = instance_key(&k44).expect("keyable instance");
        let one_shot = Solver::new(ExecPolicy::default().with_threads(1));
        let live_check = || {
            one_shot
                .check(&StabilityQuery::new(Concept::Bse, &canon, half))
                .expect("live BSE check")
        };
        let live_verdict = live_check();
        let (stored, evals) = StoredVerdict::of_verdict(&live_verdict);
        assert!(
            matches!(stored, StoredVerdict::Unstable(_)),
            "K4,4 at α = 1/2 must be BSE-unstable, got {live_verdict:?}"
        );
        atlas
            .append(&AtlasRecord {
                key: safe,
                n: 8,
                concept: Concept::Bse,
                alpha: half,
                model: bncg_core::CostModelSpec::SumDistances,
                verdict: stored,
                evals,
            })
            .expect("append the pinned record");
        // End-to-end exactness through the hit path: the lookup must
        // surface the stored verdict with the witness relabeled into the
        // *query's* labels, and that witness must genuinely improve
        // every deviator on the query graph.
        let hit = atlas
            .lookup(&k44, Concept::Bse, half)
            .expect("lookup")
            .expect("the just-stored record must hit");
        let witness = hit.witness.expect("unstable hit carries a witness");
        assert!(
            bncg_core::delta::move_improves_all(&k44, half, &witness).expect("replayable witness"),
            "relabeled witness does not improve all deviators on the query graph"
        );
        let hit_lat = median_secs(5, || {
            let hit = atlas
                .lookup(black_box(&k44), Concept::Bse, half)
                .expect("lookup")
                .expect("hit");
            black_box(hit);
        });
        let live_lat = median_secs(3, || {
            black_box(live_check());
        });
        gate.record("atlas_hit/k44_bse", hit_lat);
        gate.check_speedup_floor(
            "atlas_lookup_vs_live/n8_grid",
            live_lat / hit_lat.max(1e-12),
            ATLAS_HIT_SPEEDUP_FLOOR,
        );
    }

    // Serialize BENCH_ci.json.
    let mut json = String::from("{\n");
    for (i, (name, value)) in gate.results.iter().enumerate() {
        let comma = if i + 1 == gate.results.len() { "" } else { "," };
        writeln!(json, "  \"{name}\": {value:.6}{comma}").expect("string write");
    }
    json.push_str("}\n");
    std::fs::write("BENCH_ci.json", &json).expect("write BENCH_ci.json");
    println!("wrote BENCH_ci.json");

    let baseline_path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_baseline.json");
    if write_baseline {
        // Every ceiling, floor and exactness check above has already run;
        // a run that fails any of them must not become the new baseline.
        if !gate.failures.is_empty() {
            for f in &gate.failures {
                eprintln!("perf gate FAILURE: {f}");
            }
            eprintln!("refusing to write {baseline_path}: the run above failed its checks");
            return std::process::ExitCode::FAILURE;
        }
        std::fs::write(baseline_path, &json).expect("write baseline");
        println!("wrote {baseline_path}");
        return std::process::ExitCode::SUCCESS;
    }

    // Compare wall-clock kernels (not speedups) against the baseline,
    // rescaled by the calibration ratio so a slower/faster host shifts
    // every budget proportionally instead of failing the gate outright.
    // Every kernel — compared or limit-checked — also becomes a row of
    // the step-summary markdown table.
    let mut summary: Vec<[String; 5]> = Vec::new();
    let status = |ok: bool| if ok { "pass" } else { "**FAIL**" }.to_string();
    match std::fs::read_to_string(baseline_path) {
        Ok(baseline) => {
            // Clamped at 1: a slower host inflates every budget
            // proportionally, but an apparently-faster one never
            // *shrinks* them (that direction is where calibration noise
            // would turn into spurious failures).
            let machine_factor = parse_json_number(&baseline, CALIBRATION_KEY)
                .map_or(1.0, |base_cal| (calibration / base_cal.max(1e-12)).max(1.0));
            println!("machine calibration factor vs baseline: {machine_factor:.2}x");
            for (name, value) in &gate.results {
                // Ratios and derived values were asserted directly above
                // (machine-independent); only wall-clock kernels budget
                // against the baseline. Everything gets a summary row.
                let row = if name.starts_with("bitset_speedup/") {
                    [
                        name.clone(),
                        format!("≥ {BITSET_SPEEDUP_FLOOR:.0}x floor"),
                        format!("{value:.1}x"),
                        format!("{:.2}", value / BITSET_SPEEDUP_FLOOR),
                        status(*value >= BITSET_SPEEDUP_FLOOR),
                    ]
                } else if name.starts_with("atlas_lookup_vs_live/") {
                    [
                        name.clone(),
                        format!("≥ {ATLAS_HIT_SPEEDUP_FLOOR:.0}x floor"),
                        format!("{value:.0}x"),
                        format!("{:.2}", value / ATLAS_HIT_SPEEDUP_FLOOR),
                        status(*value >= ATLAS_HIT_SPEEDUP_FLOOR),
                    ]
                } else if name.contains("_speedup/") || name.starts_with("generator_vs_dense/") {
                    [
                        name.clone(),
                        format!("≥ {SPEEDUP_FLOOR:.0}x floor"),
                        format!("{value:.1}x"),
                        format!("{:.2}", value / SPEEDUP_FLOOR),
                        status(*value >= SPEEDUP_FLOOR),
                    ]
                } else if name.starts_with("cost_model_dispatch/") {
                    [
                        name.clone(),
                        format!("≤ {COST_MODEL_DISPATCH_CEILING:.2}x ceiling"),
                        format!("{value:.3}x"),
                        format!("{:.2}", value / COST_MODEL_DISPATCH_CEILING),
                        status(*value <= COST_MODEL_DISPATCH_CEILING),
                    ]
                } else if name.contains("_overhead/") {
                    let ceiling = if name.starts_with("rr_resume_overhead/") {
                        RR_RESUME_OVERHEAD_CEILING
                    } else if name.starts_with("sched_slicing_overhead/")
                        || name.starts_with("idle_conns_overhead/")
                    {
                        SCHED_SLICING_OVERHEAD_CEILING
                    } else if name.starts_with("generator_resume_overhead/") {
                        GENERATOR_RESUME_OVERHEAD_CEILING
                    } else if name.starts_with("metered_br_overhead/") {
                        METERED_BR_OVERHEAD_CEILING
                    } else if name == "solver_overhead/bne_star16" {
                        SOLVER_SETUP_OVERHEAD_CEILING
                    } else {
                        SOLVER_OVERHEAD_CEILING
                    };
                    [
                        name.clone(),
                        format!("≤ {ceiling:.2}x ceiling"),
                        format!("{value:.3}x"),
                        format!("{:.2}", value / ceiling),
                        status(*value <= ceiling),
                    ]
                } else if name == "budget_default_seconds" {
                    [
                        name.clone(),
                        "[0.5, 500] s".into(),
                        format!("{value:.1} s"),
                        "–".into(),
                        status((0.5..=500.0).contains(value)),
                    ]
                } else if name == CALIBRATION_KEY {
                    [
                        name.clone(),
                        parse_json_number(&baseline, name)
                            .map_or("n/a".into(), |b| format!("{b:.4} s")),
                        format!("{value:.4} s"),
                        format!("{machine_factor:.2}x host"),
                        "info".into(),
                    ]
                } else {
                    match parse_json_number(&baseline, name) {
                        None => {
                            println!("note: kernel {name} missing from baseline (skipped)");
                            [
                                name.clone(),
                                "n/a (new kernel)".into(),
                                format!("{value:.4} s"),
                                "–".into(),
                                "info".into(),
                            ]
                        }
                        Some(base) => {
                            // 1 ms of absolute slack on top of the
                            // relative budget: the microsecond-scale
                            // pruned kernels sit inside
                            // scheduler/allocator noise that no relative
                            // tolerance can absorb, and a genuine
                            // algorithmic regression on them dwarfs a
                            // millisecond anyway.
                            let scaled = base * machine_factor;
                            let limit = scaled * (1.0 + tolerance) + 1e-3;
                            if *value > limit {
                                gate.failures.push(format!(
                                    "{name}: {value:.4}s regressed >{:.0}% over scaled baseline {scaled:.4}s",
                                    tolerance * 100.0,
                                ));
                            } else {
                                println!("{name}: {value:.4}s within {limit:.4}s budget");
                            }
                            [
                                name.clone(),
                                format!("{scaled:.4} s"),
                                format!("{value:.4} s"),
                                format!("{:.2}", value / scaled.max(1e-12)),
                                status(*value <= limit),
                            ]
                        }
                    }
                };
                summary.push(row);
            }
        }
        Err(e) => {
            gate.failures
                .push(format!("cannot read baseline {baseline_path}: {e}"));
        }
    }
    write_step_summary(&summary, &gate.failures);

    if gate.failures.is_empty() {
        println!("perf gate: PASS");
        std::process::ExitCode::SUCCESS
    } else {
        for f in &gate.failures {
            eprintln!("perf gate FAILURE: {f}");
        }
        std::process::ExitCode::FAILURE
    }
}

/// Appends the kernel table to `$GITHUB_STEP_SUMMARY` (markdown shown on
/// the PR checks page) when running under GitHub Actions; does nothing
/// elsewhere. Written best-effort — a summary write failure must never
/// flip the gate's verdict.
fn write_step_summary(rows: &[[String; 5]], failures: &[String]) {
    let Some(path) = std::env::var_os("GITHUB_STEP_SUMMARY") else {
        return;
    };
    let mut md = String::from(
        "## Perf-regression gate\n\n\
         | kernel | baseline / limit | measured | ratio | status |\n\
         |---|---|---|---|---|\n",
    );
    for row in rows {
        writeln!(
            md,
            "| `{}` | {} | {} | {} | {} |",
            row[0], row[1], row[2], row[3], row[4]
        )
        .expect("string write");
    }
    md.push('\n');
    if failures.is_empty() {
        md.push_str("**Perf gate: PASS**\n");
    } else {
        md.push_str("**Perf gate: FAIL**\n\n");
        for f in failures {
            writeln!(md, "- {f}").expect("string write");
        }
    }
    use std::io::Write as _;
    match std::fs::OpenOptions::new()
        .append(true)
        .create(true)
        .open(&path)
    {
        Ok(mut file) => {
            if let Err(e) = file.write_all(md.as_bytes()) {
                eprintln!("cannot write step summary: {e}");
            }
        }
        Err(e) => eprintln!("cannot open step summary {path:?}: {e}"),
    }
}

/// Minimal `"key": number` extractor for the gate's flat JSON files (the
/// workspace is offline — no serde).
fn parse_json_number(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}
