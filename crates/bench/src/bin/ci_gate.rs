//! The CI perf-regression gate (the `perf-gate` job in
//! `.github/workflows/ci.yml`).
//!
//! Every kernel is one entry of the table in [`kernels`]: its name, the
//! [`Kind`] that says how it is judged, and a run that first asserts the
//! kernel's exactness (a pruned scan that diverges from its reference
//! panics the gate) and then measures it. All measurements go to
//! `BENCH_ci.json`; [`judge`] then turns each into a pass/fail verdict:
//!
//! * [`Kind::WallClock`] — seconds, failing when they exceed the
//!   checked-in `crates/bench/BENCH_baseline.json` value by more than
//!   [`TOLERANCE`] plus [`SLACK_SECS`]. The baseline is first scaled by
//!   the machine factor — this host's calibration kernel over the
//!   baseline's, clamped at 1 so a faster host never shrinks a budget.
//!   A kernel missing from the baseline is reported, not judged.
//! * [`Kind::Ceiling`] / [`Kind::Floor`] — ratios of two code paths
//!   timed on this host, so they are judged against their limit alone.
//!   Paired ratios also report the min and max of their samples.
//! * [`Kind::Within`] — a derived duration that must stay in range.
//! * [`Kind::Calibration`] — the machine yardstick, reported only.
//!
//! The verdict table is printed and, under GitHub Actions, appended to
//! `$GITHUB_STEP_SUMMARY`. Regenerate the baseline on a quiet machine
//! with `cargo run --release -p bncg-bench --bin ci_gate -- --write-baseline`;
//! it stores only the calibration and wall-clock kernels, and refuses to
//! write when any ceiling, floor or range fails.

use bncg_atlas::{
    build as build_atlas, key::instance_key, verify_atlas, AlphaSpec, Atlas, AtlasRecord,
    BuildSpec, RamBacking, StoredVerdict,
};
use bncg_bench::pruning_kernels::{budget, instances, solve};
use bncg_core::jsonio::{str_field, u64_field};
use bncg_core::solver::{ExecPolicy, Solver, StabilityQuery, Verdict};
use bncg_core::{
    best_response, concepts, Alpha, CandidateStats, CheckBudget, Concept, CostModelSpec, GameState,
    Utility,
};
use bncg_dynamics::round_robin;
use bncg_graph::enumerate::graph_classes;
use bncg_graph::{
    bfs_distances, fnv1a_lines, generators, graph6, BitsetGraph, DistanceMatrix, Graph, UNREACHABLE,
};
use bncg_serve::protocol::render_edges;
use bncg_serve::server::{Server, ServerConfig};
use bncg_serve::{QuerySpec, Scheduler, SchedulerConfig, Work};
use std::cell::RefCell;
use std::fmt::Write as _;
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write as _};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The relative regression a wall-clock kernel may show over its scaled
/// baseline.
const TOLERANCE: f64 = 0.25;
/// Absolute slack on top of [`TOLERANCE`]: the microsecond-scale pruned
/// kernels sit inside scheduler/allocator noise that no relative
/// tolerance can absorb, and a genuine algorithmic regression on them
/// dwarfs a millisecond anyway.
const SLACK_SECS: f64 = 1e-3;
const CALIBRATION_KEY: &str = "calibration/substrate_bfs";

/// How a kernel's measurement is judged.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Kind {
    /// The machine-speed yardstick that scales every wall-clock budget.
    Calibration,
    /// Seconds, budgeted against the scaled baseline.
    WallClock,
    /// A ratio that must not exceed the limit.
    Ceiling(f64),
    /// A ratio that must not fall below the limit.
    Floor(f64),
    /// Seconds that must stay inside `[lo, hi]`.
    Within(f64, f64),
}

/// A kernel's value; paired kernels also carry the (min, max) of their
/// per-sample ratios, reported but never judged.
#[derive(Clone, Copy, Debug)]
struct Measured {
    value: f64,
    spread: Option<(f64, f64)>,
}

impl From<f64> for Measured {
    fn from(value: f64) -> Self {
        Measured {
            value,
            spread: None,
        }
    }
}

/// A measured kernel.
struct Entry {
    name: String,
    kind: Kind,
    measured: Measured,
}

/// A kernel's run: exactness assertions, then the measurement. It sees
/// the shared fixtures and the kernels measured before it.
type Run = Box<dyn Fn(&Fixtures, &[Entry]) -> Measured>;

struct Kernel {
    name: String,
    kind: Kind,
    run: Run,
}

fn kernel<M: Into<Measured>>(
    name: impl Into<String>,
    kind: Kind,
    run: impl Fn(&Fixtures, &[Entry]) -> M + 'static,
) -> Kernel {
    Kernel {
        name: name.into(),
        kind,
        run: Box::new(move |fx, earlier| run(fx, earlier).into()),
    }
}

/// The value of a kernel that ran earlier in the table.
fn earlier(entries: &[Entry], name: &str) -> f64 {
    entries
        .iter()
        .find(|e| e.name == name)
        .unwrap_or_else(|| panic!("kernel {name} must run before the kernels derived from it"))
        .measured
        .value
}

/// Every kernel of the gate, in run order (which is also the key order
/// of `BENCH_ci.json`).
fn kernels() -> Vec<Kernel> {
    use Kind::{Calibration, Ceiling, Floor, WallClock, Within};
    let mut table = vec![
        // One discarded warm-up run settles CPU frequency and caches
        // before the timed samples.
        kernel(CALIBRATION_KEY, Calibration, |_, _| {
            calibration_kernel();
            median_secs(5, calibration_kernel)
        }),
        // The word-parallel bitset substrate must beat the scalar BFS
        // path on the pinned all-pairs build.
        kernel("bitset_speedup/allpairs_g64", Floor(5.0), |_, _| {
            bitset_speedup()
        }),
    ];
    // The pruning-suite instances (stable ⇒ full scans). Each speedup
    // must clear the pruning layer's 3× acceptance floor.
    for (i, (inst, ..)) in instances().into_iter().enumerate() {
        let key = |kernel: &str| format!("{kernel}/{inst}");
        let (bne_pruned, bne_reference) = (key("bne_pruned"), key("bne_reference"));
        let (kbse_pruned, kbse_reference) = (key("kbse2_pruned"), key("kbse2_reference"));
        let speedup = |reference: String, pruned: String| {
            move |_: &Fixtures, e: &[Entry]| earlier(e, &reference) / earlier(e, &pruned).max(1e-12)
        };
        table.extend([
            // The generator's acceptance bound: on the pinned stable
            // instances the generator touches ≤ 1% of the raw mask space.
            kernel(&bne_pruned, WallClock, move |fx, _| {
                stable_bne_secs(inst, &fx.states[i], |s| {
                    assert!(
                        s.visited * 100 <= s.generated,
                        "{inst}: generator visited {} steps of a {}-mask space (> 1%)",
                        s.visited,
                        s.generated
                    );
                })
            }),
            kernel(&bne_reference, WallClock, move |fx, _| {
                median_secs(3, || {
                    concepts::bne::find_violation_in_reference(&fx.states[i], budget()).unwrap();
                })
            }),
            kernel(
                key("bne_speedup"),
                Floor(3.0),
                speedup(bne_reference, bne_pruned),
            ),
            kernel(&kbse_pruned, WallClock, move |fx, _| {
                kbse2_pruned_secs(inst, &fx.states[i])
            }),
            kernel(&kbse_reference, WallClock, move |fx, _| {
                median_secs(3, || {
                    concepts::kbse::find_violation_in_reference(&fx.states[i], 2, budget())
                        .unwrap();
                })
            }),
            kernel(
                key("kbse2_speedup"),
                Floor(3.0),
                speedup(kbse_reference, kbse_pruned),
            ),
        ]);
    }
    table.extend([
        // The 3-BSE scan only the pruned checker can afford (raw space
        // ~1.2·10⁹).
        kernel("kbse3_pruned/gnp16_diam2", WallClock, |fx, _| {
            median_secs(5, || {
                black_box(solve(Concept::KBse(3), fx.gnp16()));
            })
        }),
        // Generator vs the same scan with its subtree kills disabled: on
        // star16 the dense leg visits the hub's 2¹⁵ pure-removal masks
        // one by one; the generator kills them in a handful of probes
        // (witness and evaluated stream were asserted by
        // `bne_pruned/star16`).
        kernel("generator_vs_dense/bne_star16", Floor(3.0), |fx, _| {
            let star16 = fx.star16();
            paired_overhead(
                256,
                &|| {
                    black_box(solve(Concept::Bne, black_box(star16)));
                },
                &|| {
                    concepts::bne::find_violation_in_dense(black_box(star16), budget()).unwrap();
                },
            )
        }),
        // The pinned cycle12 at α = 16 sits in the cycle stability window
        // yet survives pruning with ~900 priced leaves per scan: the one
        // evaluation-bound BNE kernel, tracking the batched bitset leaf
        // pricing rather than the pruning layer.
        kernel("batched_leaf_eval/bne_cycle12", WallClock, |_, _| {
            let cycle12 = GameState::new(generators::cycle(12), Alpha::integer(16).expect("α"));
            stable_bne_secs("cycle12", &cycle12, |s| {
                assert!(
                    s.evaluated >= 500,
                    "cycle12 must stay evaluation-bound (only {} priced leaves)",
                    s.evaluated
                );
            })
        }),
        // A 4-slice generator resume chain genuinely pays per-slice query
        // setup (pruner rebuild, O(n²)) that the µs-scale cycle24 scan
        // cannot amortize, so the ceiling sits above the metered
        // kernels' ~1.0 (measured: ~1.09).
        kernel(
            "generator_resume_overhead/bne_cycle24",
            Ceiling(1.30),
            |_, _| resume_chain_overhead(),
        ),
        // The wall-clock meaning the `CheckBudget::default()` rustdoc
        // cites, derived from the measured raw-reference rate: star16's
        // raw BNE reference prices exactly 16·(2¹⁵ − 1) candidates. If it
        // drifts out of range, update that rustdoc and the default
        // budget.
        kernel("budget_default_seconds", Within(0.5, 500.0), |_, e| {
            let star16_raw_evals = 16.0 * ((1u64 << 15) - 1) as f64;
            let eval_rate = star16_raw_evals / earlier(e, "bne_reference/star16").max(1e-12);
            CheckBudget::DEFAULT_MAX_EVALS as f64 / eval_rate
        }),
        // `generalized:id` routes the paper's objective through the
        // generic `CostModel` arm instead of the default model's
        // monomorphic fast paths; with identical pruning the ratio
        // isolates pure dispatch (the cost-model acceptance ceiling).
        kernel("cost_model_dispatch/bne_star16", Ceiling(1.05), |fx, _| {
            cost_model_dispatch(fx.star16())
        }),
        // A genuinely non-linear model on the wall-clock ledger.
        kernel("cost_model_generalized/bne_path12", WallClock, |_, _| {
            cost_model_generalized_secs()
        }),
        // The engine_vs_naive representative: 50 rounds of engine-backed
        // round-robin dynamics on path16 (the engine's headline kernel).
        kernel("round_robin50/path16", WallClock, |_, _| {
            median_secs(3, || {
                round_robin::run(&generators::path(16), alpha2(), 50).unwrap();
            })
        }),
        // Slicing a 50-round run into ~20 checkpoint→resume slices may
        // cost at most 10% over the uninterrupted run: anytime
        // trajectories pay bounded re-hydration, not re-scanning.
        kernel("rr_resume_overhead/path16", Ceiling(1.10), |_, _| {
            rr_resume_overhead()
        }),
        // The time-slicing scheduler genuinely pays queue round-trips,
        // frontier/checkpoint serialization at every slice boundary, and
        // per-slice query setup, so its ceiling sits above the in-process
        // resume kernels'.
        kernel(
            "sched_slicing_overhead/mixed_batch",
            Ceiling(1.25),
            |fx, _| sched_overhead(fx),
        ),
        // A light tenant's latency behind a 100-query heavy flood; the
        // machine-independent delay bound is asserted inside.
        kernel("sched_fairness/mixed_tenants", WallClock, |fx, _| {
            sched_fairness_secs(fx)
        }),
        // The readiness-loop front end claims an idle connection costs
        // buffers, not threads: 500 idle sockets must stay within the
        // scheduler's ceiling on the wire batch.
        kernel(
            "idle_conns_overhead/mixed_batch_500",
            Ceiling(1.25),
            |fx, _| idle_overhead(fx),
        ),
        kernel("atlas_hit/k44_bse", WallClock, |fx, _| atlas_hit_secs(fx)),
        // Serving a stored verdict (canonicalize + probe + relabel) must
        // beat recomputing the pinned expensive live check.
        kernel("atlas_lookup_vs_live/n8_grid", Floor(100.0), |fx, e| {
            let live = median_secs(3, || {
                black_box(live_k44_bse(&fx.k44_canon));
            });
            live / earlier(e, "atlas_hit/k44_bse").max(1e-12)
        }),
        // The vertex-extension class walk to n = 8 (the atlas fixture's
        // enumeration half), on every available core.
        kernel("enumerate_classes/n8", WallClock, |_, _| {
            enumerate_n8_secs()
        }),
    ]);
    table
}

fn alpha2() -> Alpha {
    Alpha::integer(2).expect("α")
}

fn half() -> Alpha {
    Alpha::from_ratio(1, 2).expect("α")
}

fn one_shot() -> Solver {
    Solver::new(ExecPolicy::default().with_threads(1))
}

fn query(id: u64, tenant: &str, work: Work) -> QuerySpec {
    QuerySpec {
        id,
        tenant: tenant.into(),
        work,
        resume: None,
        deadline_ms: None,
    }
}

/// Asserts the default facade certifies `state` stable for `concept`.
fn assert_stable(concept: Concept, state: &GameState) {
    let v = Solver::default()
        .check(&StabilityQuery::on(concept, state))
        .unwrap();
    assert!(matches!(v, Verdict::Stable { .. }));
}

/// The machine-speed yardstick: ~100 ms of all-pairs BFS matrix builds on
/// a pinned G(64, 0.1). Deliberately substrate-only — it shares no code
/// with the checkers under test, so a checker regression cannot inflate
/// the calibration and mask itself.
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

/// The min, median and max of per-pair `other/reference` wall-clock
/// ratios across 7 samples of `iters` iterations each. Both sides are
/// timed back to back inside every sample, so slow frequency drift
/// across the measurement window cancels out of the ratio instead of
/// landing entirely on one side of a ~1.00 value judged against a tight
/// ceiling — the shared methodology of every paired kernel.
fn paired_overhead(iters: usize, reference: &dyn Fn(), other: &dyn Fn()) -> Measured {
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
    Measured {
        value: ratios[ratios.len() / 2],
        spread: Some((ratios[0], ratios[ratios.len() - 1])),
    }
}

/// Bitset substrate vs scalar BFS on the pinned G(64, 0.1), at the
/// substrate's n = 64 capacity. Exactness first: per-source distance
/// rows, reachable counts, and the materialization-free `cost_from` sums
/// must all agree with the scalar adjacency-list BFS. The timed bitset
/// side includes the one-off `from_graph` conversion a fresh
/// `DistanceMatrix` pays.
fn bitset_speedup() -> Measured {
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
    let bitset_buf = RefCell::new(vec![0u32; 64]);
    let scalar_buf = RefCell::new(Vec::new());
    paired_overhead(
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
    )
}

/// Times the pruned BNE scan of a stable pinned instance. Exactness
/// first: generator ≡ raw reference ≡ the kill-free dense leg,
/// witness and evaluated stream alike, and `bound` holds on the
/// generator's counters.
fn stable_bne_secs(name: &str, state: &GameState, bound: impl Fn(&CandidateStats)) -> f64 {
    let (pruned_mv, stats) = solve(Concept::Bne, state);
    let reference_mv = concepts::bne::find_violation_in_reference(state, budget()).unwrap();
    let (dense_mv, dense_stats) = concepts::bne::find_violation_in_dense(state, budget()).unwrap();
    assert_eq!(pruned_mv, reference_mv, "BNE witness diverged on {name}");
    assert_eq!(pruned_mv, dense_mv, "generator witness diverged on {name}");
    assert_eq!(
        stats.evaluated, dense_stats.evaluated,
        "generator priced different candidates than the dense leg on {name}"
    );
    assert!(pruned_mv.is_none(), "{name} must scan to completion");
    bound(&stats);
    median_secs(5, || {
        black_box(solve(Concept::Bne, state));
    })
}

/// The pruned 2-BSE scan of a pinned instance, verdict-checked against
/// the raw reference first.
fn kbse2_pruned_secs(name: &str, state: &GameState) -> f64 {
    let (kp, _) = solve(Concept::KBse(2), state);
    let kr = concepts::kbse::find_violation_in_reference(state, 2, budget()).unwrap();
    assert_eq!(
        kp.is_some(),
        kr.is_some(),
        "2-BSE verdict diverged on {name}"
    );
    median_secs(5, || {
        black_box(solve(Concept::KBse(2), state));
    })
}

/// Draining the pinned n = 24 cycle through a chain of budgeted slices
/// vs the uninterrupted scan: resuming re-derives one branch path, it
/// does not re-scan. Exactness first: the chain must reach the identical
/// (stable) verdict, and the uninterrupted run must *complete* under a
/// finite eval budget — the generator's acceptance criterion.
fn resume_chain_overhead() -> Measured {
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
    paired_overhead(
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
    )
}

/// `generalized:id` vs the default model on the same facade. Exactness
/// first: identity utility is distance-linear, so verdict, priced
/// stream, and pruning decisions must all coincide — only then is the
/// ratio a dispatch measurement rather than a work difference.
fn cost_model_dispatch(star16: &GameState) -> Measured {
    let star16_id = GameState::with_cost_model(
        generators::star(16),
        alpha2(),
        CostModelSpec::Generalized(Utility::Identity),
    );
    let solver = Solver::default();
    let mono_v = solver
        .check(&StabilityQuery::on(Concept::Bne, star16))
        .unwrap();
    let dispatched_v = solver
        .check(&StabilityQuery::on(Concept::Bne, &star16_id))
        .unwrap();
    let work = |v: Verdict| match v {
        Verdict::Stable { evals, pruned, .. } => (evals, pruned),
        other => panic!("star16 at α = 2 must be BNE-stable under both models: {other:?}"),
    };
    let ((e1, p1), (e2, p2)) = (work(mono_v), work(dispatched_v));
    assert_eq!(e1, e2, "generalized:id priced a different candidate stream");
    assert_eq!(p1, p2, "generalized:id pruned differently than the default");
    paired_overhead(
        256,
        &|| assert_stable(Concept::Bne, black_box(star16)),
        &|| assert_stable(Concept::Bne, black_box(&star16_id)),
    )
}

/// `generalized:cap2` on the pinned path12 at α = 2 runs filter-free
/// (the proven bounds are sum-of-distances theorems — `pruned` must be
/// exactly 0) and flips the instance's verdict to stable: capping the
/// per-hop utility at 2 removes the incentive to shorten long distances.
/// The pinned eval count keeps the workload honest across refactors.
fn cost_model_generalized_secs() -> f64 {
    let path12_cap = GameState::with_cost_model(
        generators::path(12),
        alpha2(),
        CostModelSpec::Generalized(Utility::Capped(2)),
    );
    let cap_v = Solver::default()
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
    median_secs(5, || assert_stable(Concept::Bne, &path12_cap))
}

/// The 50-round path16 run sliced into ~20 budgeted checkpoint→resume
/// slices vs the uninterrupted policy run. Exactness first: the chain
/// must land on the identical final state.
fn rr_resume_overhead() -> Measured {
    let path = generators::path(16);
    let alpha2 = alpha2();
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
    println!("rr_resume chain: {slice_budget}-eval slices");
    paired_overhead(
        1,
        &|| {
            round_robin::run_with_policy_under(&path, alpha2, model, 50, &unbounded).unwrap();
        },
        &|| {
            chain(&slice_policy);
        },
    )
}

/// The pinned batch drained through the 512-eval-slice scheduler vs the
/// same batch as in-process one-shot calls. Both sides run the same
/// metered scans (`round_robin::run` and `best_response` wrap the
/// policy-driven scans the scheduler slices), so the ratio is the cost
/// of slicing alone. Exactness first: the 48-eval scheduler must requeue
/// the check through a multi-slice chain, and both schedulers' verdicts
/// must match the direct runs.
fn sched_overhead(fx: &Fixtures) -> Measured {
    let batch = &fx.batch;
    let proof = batch.submit(&fx.fine);
    assert!(
        u64_field(&proof[0], "slices").is_some_and(|s| s >= 2),
        "the 48-eval slice must requeue the {}-eval check: {}",
        batch.c40_evals,
        proof[0]
    );
    batch.assert_batch_exact(&proof);
    batch.assert_batch_exact(&batch.submit(&fx.timed));
    let one_shot = one_shot();
    paired_overhead(8, &|| batch.run_direct(&one_shot), &|| {
        black_box(batch.submit(&fx.timed));
    })
}

/// A heavy tenant floods the 1-worker scheduler with 100 multi-slice
/// scans, then a light tenant submits one cheap query; returns the light
/// query's median latency over 5 trials. The machine-independent bound
/// is asserted: the light query completes after a bounded number of
/// heavy completions (FIFO would put all 100 first).
fn sched_fairness_secs(fx: &Fixtures) -> f64 {
    let fair = &fx.fair;
    let p5 = generators::path(5);
    let heavy_done = Arc::new(AtomicU64::new(0));
    let mut light_lats = Vec::new();
    let mut worst_heavy_before_light = 0u64;
    for trial in 0..5u64 {
        for k in 0..100u64 {
            let done = Arc::clone(&heavy_done);
            fair.submit(
                query(trial * 1000 + k + 1, "heavy", fx.batch.check()),
                Box::new(move |_| {
                    done.fetch_add(1, Ordering::SeqCst);
                }),
            );
        }
        let before = heavy_done.load(Ordering::SeqCst);
        // Snapshot the heavy count inside the response callback: reading
        // it after a blocking recv() would also count jobs the worker
        // drained during this thread's wakeup latency.
        let at_light = Arc::new(AtomicU64::new(0));
        let (tx, rx) = std::sync::mpsc::channel::<String>();
        let t = Instant::now();
        {
            let done = Arc::clone(&heavy_done);
            let at_light = Arc::clone(&at_light);
            let light = Work::Check {
                concept: Concept::Ps,
                graph: p5.clone(),
                alpha: alpha2(),
                cost_model: CostModelSpec::SumDistances,
            };
            fair.submit(
                query(trial * 1000 + 999, "light", light),
                Box::new(move |line| {
                    at_light.store(done.load(Ordering::SeqCst), Ordering::SeqCst);
                    let _ = tx.send(line.to_string());
                }),
            );
        }
        let light = rx.recv().expect("light response");
        light_lats.push(t.elapsed().as_secs_f64());
        assert_eq!(
            str_field(&light, "verdict"),
            Some("unstable"),
            "light P5 check diverged: {light}"
        );
        worst_heavy_before_light =
            worst_heavy_before_light.max(at_light.load(Ordering::SeqCst) - before);
        // Drain the flood before the next trial so trials measure the
        // same contention shape.
        while heavy_done.load(Ordering::SeqCst) < (trial + 1) * 100 {
            std::thread::yield_now();
        }
    }
    assert!(
        worst_heavy_before_light <= 8,
        "light tenant waited behind {worst_heavy_before_light} heavy \
         completions — round-robin dispatch is not bounding its delay"
    );
    println!("sched_fairness: worst heavy-before-light = {worst_heavy_before_light}");
    light_lats.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    light_lats[light_lats.len() / 2]
}

/// The pinned batch ×4 over the wire of the daemon with 500 idle sockets
/// vs an otherwise-identical unloaded daemon: the poll-set scan over the
/// idle fds must be noise against real solver work. Exactness first:
/// the loaded daemon's verdicts on one batch must match the direct runs.
fn idle_overhead(fx: &Fixtures) -> Measured {
    let client = |server: &Server| {
        let sock = TcpStream::connect(server.addr()).expect("active connect");
        sock.set_nodelay(true).expect("nodelay");
        let reader = BufReader::new(sock.try_clone().expect("clone"));
        RefCell::new((sock, reader))
    };
    let requests = fx.batch.wire_requests(4);
    let round_trip = |wire: &RefCell<(TcpStream, BufReader<TcpStream>)>| {
        let (sock, reader) = &mut *wire.borrow_mut();
        sock.write_all(requests.as_bytes()).expect("send batch");
        (0..12)
            .map(|_| {
                let mut line = String::new();
                reader.read_line(&mut line).expect("recv");
                assert_eq!(u64_field(&line, "ok"), Some(1), "wire batch failed: {line}");
                line
            })
            .collect::<Vec<_>>()
    };
    let bare = client(&fx.bare);
    let loaded = client(&fx.idle);
    fx.batch.assert_batch_exact(&round_trip(&loaded));
    // Warm both wire paths (connection buffers, scheduler caches) before
    // timing, and use enough iterations per paired sample that one
    // scheduling hiccup cannot dominate a ~10ms batch.
    round_trip(&bare);
    round_trip(&loaded);
    paired_overhead(
        4,
        &|| {
            round_trip(&bare);
        },
        &|| {
            round_trip(&loaded);
        },
    )
}

/// The atlas hit path (canonicalize + probe + relabel) on the pinned
/// K4,4 BSE record. Exactness first: the lookup must surface the stored
/// verdict with the witness relabeled into the *query's* labels, and
/// that witness must genuinely improve every deviator on the query graph.
fn atlas_hit_secs(fx: &Fixtures) -> f64 {
    let hit = fx
        .atlas
        .lookup(&fx.k44, Concept::Bse, half())
        .expect("lookup")
        .expect("the pinned record must hit");
    let witness = hit.witness.expect("unstable hit carries a witness");
    assert!(
        bncg_core::delta::move_improves_all(&fx.k44, half(), &witness).expect("replayable witness"),
        "relabeled witness does not improve all deviators on the query graph"
    );
    median_secs(5, || {
        let hit = fx
            .atlas
            .lookup(black_box(&fx.k44), Concept::Bse, half())
            .expect("lookup")
            .expect("hit");
        black_box(hit);
    })
}

/// FNV-1a digest of the graph6 lines of `connected_graph_classes(8)`,
/// the golden pin also asserted by the graph crate's enumeration tests.
const CONNECTED_N8_DIGEST: u64 = 0x8450_4c69_5dc8_3661;

/// The n ≤ 8 class walk. Exactness first: the OEIS class counts and the
/// golden digest of the connected representatives in atlas order.
fn enumerate_n8_secs() -> f64 {
    let classes = graph_classes(8).expect("n = 8 is enumerable");
    assert_eq!(classes.len(), 12_346, "graph classes on 8 nodes");
    let connected: Vec<String> = classes
        .iter()
        .filter(|g| g.is_connected())
        .map(|g| graph6::encode(g).expect("n = 8 encodes"))
        .collect();
    assert_eq!(connected.len(), 11_117, "connected classes on 8 nodes");
    assert_eq!(
        fnv1a_lines(connected.iter().map(String::as_str)),
        CONNECTED_N8_DIGEST,
        "connected class representatives or their order changed"
    );
    median_secs(3, || {
        black_box(graph_classes(black_box(8)).expect("n = 8 is enumerable"));
    })
}

/// The live full-coalition BSE check of the canonical K4,4 at α = 1/2 —
/// a dense class whose scan runs ~10⁵ candidate coalitions before
/// finding its witness.
fn live_k44_bse(canon: &Graph) -> Verdict {
    one_shot()
        .check(&StabilityQuery::new(Concept::Bse, canon, half()))
        .expect("live BSE check")
}

/// The pinned mixed batch of the serving kernels: the evaluation-bound
/// cycle40 BNE check at α = 370 (the Lemma 2.4 stability window, 120
/// genuinely priced candidates), a 50-round path9 trajectory, and a
/// path12 best-response scan.
struct MixedBatch {
    c40: Graph,
    a370: Alpha,
    path9: Graph,
    path12: Graph,
    /// Evals the direct solver priced on the cycle40 check.
    c40_evals: u64,
    /// Moves of the direct path9 round-robin run.
    rr_moves: u64,
}

impl MixedBatch {
    /// The batch, with each query's direct answer established.
    fn new() -> Self {
        let c40 = generators::cycle(40);
        let a370 = Alpha::integer(370).expect("α");
        let path9 = generators::path(9);
        let path12 = generators::path(12);
        let direct_check = one_shot()
            .check(&StabilityQuery::new(Concept::Bne, &c40, a370))
            .unwrap();
        let Verdict::Stable {
            evals: c40_evals, ..
        } = direct_check
        else {
            panic!("cycle40 at α = 370 must be BNE-stable, got {direct_check:?}");
        };
        assert!(c40_evals > 64, "cycle40 must out-price one 48-eval slice");
        let direct_rr = round_robin::run(&path9, alpha2(), 50).unwrap();
        assert!(direct_rr.converged, "path9 round robin must converge");
        let direct_br = best_response(&path12, alpha2(), 0).unwrap();
        assert!(
            direct_br.best.is_some(),
            "path12 agent 0 must have an improving response"
        );
        MixedBatch {
            c40,
            a370,
            path9,
            path12,
            c40_evals,
            rr_moves: direct_rr.moves as u64,
        }
    }

    /// The batch as direct one-shot calls.
    fn run_direct(&self, one_shot: &Solver) {
        assert!(matches!(
            one_shot
                .check(&StabilityQuery::new(
                    Concept::Bne,
                    black_box(&self.c40),
                    self.a370
                ))
                .unwrap(),
            Verdict::Stable { .. }
        ));
        black_box(round_robin::run(black_box(&self.path9), alpha2(), 50).unwrap());
        black_box(best_response(black_box(&self.path12), alpha2(), 0).unwrap());
    }

    /// The batch through `sched`, one blocking submission per query.
    fn submit(&self, sched: &Scheduler) -> [String; 3] {
        let cost_model = CostModelSpec::SumDistances;
        let mut id = 0;
        [
            self.check(),
            Work::Trajectory {
                graph: self.path9.clone(),
                alpha: alpha2(),
                rounds: 50,
                cost_model,
            },
            Work::BestResponse {
                agent: 0,
                graph: self.path12.clone(),
                alpha: alpha2(),
                cost_model,
            },
        ]
        .map(|work| {
            id += 1;
            sched.submit_blocking(query(id, "gate", work)).to_string()
        })
    }

    /// The batch's cycle40 BNE check.
    fn check(&self) -> Work {
        Work::Check {
            concept: Concept::Bne,
            graph: self.c40.clone(),
            alpha: self.a370,
            cost_model: CostModelSpec::SumDistances,
        }
    }

    /// The batch `reps` times as wire request lines.
    fn wire_requests(&self, reps: u64) -> String {
        let (c40, path9, path12) = [&self.c40, &self.path9, &self.path12]
            .map(render_edges)
            .into();
        (0..reps)
            .map(|rep| {
                let id = rep * 10;
                format!(
                    "{{\"id\":{},\"op\":\"check\",\"concept\":\"bne\",\"alpha\":\"370\",\"n\":40,\"edges\":{c40}}}\n\
                     {{\"id\":{},\"op\":\"trajectory\",\"alpha\":\"2\",\"n\":9,\"edges\":{path9},\"rounds\":50}}\n\
                     {{\"id\":{},\"op\":\"best_response\",\"agent\":0,\"alpha\":\"2\",\"n\":12,\"edges\":{path12}}}\n",
                    id + 1,
                    id + 2,
                    id + 3
                )
            })
            .collect()
    }

    /// Asserts `responses` are whole copies of the batch (each op equally
    /// often), each matching the direct answer field for field.
    fn assert_batch_exact(&self, responses: &[String]) {
        let mut seen = [0usize; 3];
        for line in responses {
            match str_field(line, "op") {
                Some("check") => {
                    seen[0] += 1;
                    assert!(
                        str_field(line, "verdict") == Some("stable")
                            && u64_field(line, "evals") == Some(self.c40_evals),
                        "served check diverged from the direct solver: {line}"
                    );
                }
                Some("trajectory") => {
                    seen[1] += 1;
                    assert!(
                        u64_field(line, "converged") == Some(1)
                            && u64_field(line, "moves") == Some(self.rr_moves),
                        "served trajectory diverged from the direct run: {line}"
                    );
                }
                Some("best_response") => {
                    seen[2] += 1;
                    assert_eq!(
                        u64_field(line, "improving"),
                        Some(1),
                        "served best response diverged from the direct scan: {line}"
                    );
                }
                _ => panic!("unexpected response to the mixed batch: {line}"),
            }
        }
        assert_eq!(
            seen,
            [responses.len() / 3; 3],
            "the responses are not whole copies of the batch"
        );
    }
}

/// Everything several kernels share, built and exactness-checked once
/// before the table runs.
struct Fixtures {
    /// The pruning-suite instances, in `instances()` order — shared with
    /// `benches/pruning.rs`.
    states: Vec<GameState>,
    batch: MixedBatch,
    /// A 48-eval-slice scheduler, fine enough to force the cycle40 check
    /// through a requeue chain.
    fine: Scheduler,
    /// The timed scheduler runs production-sized slices (the
    /// best-response scan still requeues several times; µs-scale slices
    /// would measure the per-slice state rebuild, not the scheduling
    /// layer).
    timed: Scheduler,
    /// The fairness kernel's 48-eval-slice scheduler.
    fair: Scheduler,
    bare: Server,
    idle: Server,
    /// 500 idle connections parked on `idle`.
    idle_conns: Vec<TcpStream>,
    /// The real builder's n ≤ 8 corpus over the polynomial-and-BNE
    /// concepts, plus the pinned K4,4 BSE record.
    atlas: Atlas<RamBacking>,
    k44: Graph,
    k44_canon: Graph,
}

impl Fixtures {
    fn build() -> Self {
        let scheduler = |slice| SchedulerConfig {
            workers: 1,
            slice,
            default_grant: u64::MAX,
            journal: None,
        };
        let start = |slice| Scheduler::start(scheduler(slice)).expect("ungated scheduler start");
        let daemon = || {
            Server::start(ServerConfig {
                addr: "127.0.0.1:0".into(),
                scheduler: scheduler(512),
                ..ServerConfig::default()
            })
            .expect("daemon start")
        };
        let idle = daemon();
        let idle_conns = (0..500)
            .map(|_| TcpStream::connect(idle.addr()).expect("idle connect"))
            .collect();
        let (atlas, k44, k44_canon) = pinned_atlas();
        Fixtures {
            states: instances()
                .into_iter()
                .map(|(_, g, alpha)| GameState::new(g, alpha))
                .collect(),
            batch: MixedBatch::new(),
            fine: start(48),
            timed: start(512),
            fair: start(48),
            bare: daemon(),
            idle,
            idle_conns,
            atlas,
            k44,
            k44_canon,
        }
    }

    fn star16(&self) -> &GameState {
        &self.states[0]
    }

    fn gnp16(&self) -> &GameState {
        &self.states[1]
    }

    fn stop(self) {
        drop(self.idle_conns);
        self.bare.stop();
        self.idle.stop();
        for sched in [self.fine, self.timed, self.fair] {
            sched.stop();
        }
    }
}

/// The atlas corpus, honest before it is used: a 128-record seeded
/// sample of the stored verdicts must replay exactly against a live
/// solver. The pinned K4,4 record is stored via the builder's canonical
/// derivation (check the canonical representative, key by safe graph6).
fn pinned_atlas() -> (Atlas<RamBacking>, Graph, Graph) {
    let spec = BuildSpec {
        max_n: 8,
        grid: vec![
            AlphaSpec::Fixed(half()),
            AlphaSpec::Fixed(alpha2()),
            AlphaSpec::N,
        ],
        concepts: vec![Concept::Ps, Concept::Bne],
    };
    let mut atlas = Atlas::open(RamBacking::new()).expect("RAM atlas");
    let report = build_atlas(&mut atlas, &spec, u64::MAX, None).expect("corpus build");
    assert!(report.complete, "the n ≤ 8 corpus walk must complete");
    let verified = verify_atlas(&atlas, 128, 0xA71A5, 8).expect("stored verdicts must replay");
    assert_eq!(verified.replayed, 128, "differential sample came up short");

    let k44 = generators::complete_bipartite(4, 4);
    let (safe, canon, _) = instance_key(&k44).expect("keyable instance");
    let live_verdict = live_k44_bse(&canon);
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
            alpha: half(),
            model: CostModelSpec::SumDistances,
            verdict: stored,
            evals,
        })
        .expect("append the pinned record");
    (atlas, k44, canon)
}

/// One row of the verdict table, and the failure it reports, if any.
struct Row {
    /// Kernel, baseline or limit, measured, ratio, status.
    cells: [String; 5],
    failure: Option<String>,
}

/// How a measurement prints: seconds, or a ratio with its paired spread.
fn show(kind: Kind, m: Measured) -> String {
    let (p, unit) = match kind {
        Kind::Ceiling(_) => (3, "x"),
        Kind::Floor(_) => (1, "x"),
        Kind::Within(..) => (1, " s"),
        Kind::Calibration | Kind::WallClock => (4, " s"),
    };
    let spread = m
        .spread
        .map_or(String::new(), |(lo, hi)| format!(" ({lo:.p$}–{hi:.p$})"));
    format!("{:.p$}{unit}{spread}", m.value)
}

/// The clamped host-speed factor that scales every wall-clock baseline:
/// a slower host inflates every budget proportionally, but an
/// apparently faster one never *shrinks* them (that direction is where
/// calibration noise would turn into spurious failures).
fn machine_factor(calibration: f64, baseline: Option<f64>) -> f64 {
    baseline.map_or(1.0, |base| (calibration / base.max(1e-12)).max(1.0))
}

/// Judges one kernel: its verdict-table row and failure, from one place.
fn judge(e: &Entry, baseline: Option<f64>, machine_factor: f64) -> Row {
    let (name, kind, m) = (&e.name, e.kind, e.measured);
    let v = m.value;
    let row = |limit: String, ratio: String, status: &str, failure: Option<String>| Row {
        cells: [name.into(), limit, show(kind, m), ratio, status.into()],
        failure,
    };
    let judged = |limit, ratio, failed: bool, why: String| {
        let status = if failed { "**FAIL**" } else { "pass" };
        row(limit, ratio, status, failed.then_some(why))
    };
    match (kind, baseline) {
        (Kind::Calibration, _) => row(
            baseline.map_or("n/a".into(), |b| format!("{b:.4} s")),
            format!("{machine_factor:.2}x host"),
            "info",
            None,
        ),
        (Kind::WallClock, None) => row("n/a (new kernel)".into(), "–".into(), "info", None),
        (Kind::WallClock, Some(base)) => {
            let scaled = base * machine_factor;
            judged(
                format!("{scaled:.4} s"),
                format!("{:.2}", v / scaled.max(1e-12)),
                v > scaled * (1.0 + TOLERANCE) + SLACK_SECS,
                format!(
                    "{name}: {v:.4}s regressed >{:.0}% over scaled baseline {scaled:.4}s",
                    TOLERANCE * 100.0
                ),
            )
        }
        (Kind::Ceiling(c), _) => judged(
            format!("≤ {c:.2}x ceiling"),
            format!("{:.2}", v / c),
            v > c,
            format!("{name}: overhead {v:.3}x exceeds the {c}x ceiling"),
        ),
        (Kind::Floor(f), _) => judged(
            format!("≥ {f:.0}x floor"),
            format!("{:.2}", v / f),
            v < f,
            format!("{name}: speedup {v:.2}x is below the {f}x floor"),
        ),
        (Kind::Within(lo, hi), _) => judged(
            format!("[{lo}, {hi}] s"),
            "–".into(),
            !(lo..=hi).contains(&v),
            format!("{name} = {v:.1}s drifted outside [{lo}, {hi}] s"),
        ),
    }
}

/// Judges every measured kernel against the baseline file's text (or
/// the reason it could not be read, itself a failure).
fn judge_all(entries: &[Entry], baseline: Result<&str, String>) -> (Vec<Row>, Vec<String>) {
    let mut failures = Vec::new();
    let baseline = baseline.unwrap_or_else(|e| {
        failures.push(e);
        ""
    });
    let factor = machine_factor(
        earlier(entries, CALIBRATION_KEY),
        parse_json_number(baseline, CALIBRATION_KEY),
    );
    let rows: Vec<Row> = entries
        .iter()
        .map(|e| judge(e, parse_json_number(baseline, &e.name), factor))
        .collect();
    failures.extend(rows.iter().filter_map(|r| r.failure.clone()));
    (rows, failures)
}

/// The flat `{"name": value}` JSON of `entries`.
fn to_json<'e>(entries: impl Iterator<Item = &'e Entry>) -> String {
    let lines: Vec<String> = entries
        .map(|e| format!("  \"{}\": {:.6}", e.name, e.measured.value))
        .collect();
    format!("{{\n{}\n}}\n", lines.join(",\n"))
}

/// What `--write-baseline` stores — only the values a later run reads
/// back (the calibration and the wall-clock kernels) — or, when any
/// ceiling, floor or range fails, the failures that refuse the write.
/// The run is judged against no baseline: its wall-clock kernels are
/// the new baseline.
fn new_baseline(entries: &[Entry]) -> Result<String, Vec<String>> {
    let (_, failures) = judge_all(entries, Ok(""));
    if failures.is_empty() {
        Ok(to_json(entries.iter().filter(|e| {
            matches!(e.kind, Kind::Calibration | Kind::WallClock)
        })))
    } else {
        Err(failures)
    }
}

/// The verdict table as markdown, then the gate's verdict.
fn render(rows: &[Row], failures: &[String]) -> String {
    let mut md = String::from(
        "## Perf-regression gate\n\n\
         | kernel | baseline / limit | measured | ratio | status |\n\
         |---|---|---|---|---|\n",
    );
    for Row { cells: c, .. } in rows {
        writeln!(
            md,
            "| `{}` | {} | {} | {} | {} |",
            c[0], c[1], c[2], c[3], c[4]
        )
        .expect("string write");
    }
    if failures.is_empty() {
        md.push_str("\n**Perf gate: PASS**\n");
    } else {
        md.push_str("\n**Perf gate: FAIL**\n\n");
        for f in failures {
            writeln!(md, "- {f}").expect("string write");
        }
    }
    md
}

/// Appends `md` to `$GITHUB_STEP_SUMMARY` (shown on the PR checks page)
/// when running under GitHub Actions. Best-effort — a summary write
/// failure must never flip the gate's verdict.
fn append_step_summary(md: &str) {
    let Some(path) = std::env::var_os("GITHUB_STEP_SUMMARY") else {
        return;
    };
    let written = std::fs::OpenOptions::new()
        .append(true)
        .create(true)
        .open(&path)
        .and_then(|mut file| file.write_all(md.as_bytes()));
    if let Err(e) = written {
        eprintln!("cannot write step summary {path:?}: {e}");
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

fn main() -> std::process::ExitCode {
    let write_baseline = std::env::args().any(|a| a == "--write-baseline");
    let fixtures = Fixtures::build();
    let mut entries: Vec<Entry> = Vec::new();
    for Kernel { name, kind, run } in kernels() {
        let measured = run(&fixtures, &entries);
        println!("{name}: {}", show(kind, measured));
        entries.push(Entry {
            name,
            kind,
            measured,
        });
    }
    fixtures.stop();
    std::fs::write("BENCH_ci.json", to_json(entries.iter())).expect("write BENCH_ci.json");
    println!("wrote BENCH_ci.json");

    let baseline_path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_baseline.json");
    let failures = if write_baseline {
        match new_baseline(&entries) {
            Ok(json) => {
                std::fs::write(baseline_path, json).expect("write baseline");
                println!("wrote {baseline_path}");
                return std::process::ExitCode::SUCCESS;
            }
            Err(failures) => {
                eprintln!("refusing to write {baseline_path}: the run failed its checks");
                failures
            }
        }
    } else {
        let baseline = std::fs::read_to_string(baseline_path)
            .map_err(|e| format!("cannot read baseline {baseline_path}: {e}"));
        let (rows, failures) = judge_all(&entries, baseline.as_deref().map_err(Clone::clone));
        let md = render(&rows, &failures);
        print!("{md}");
        append_step_summary(&md);
        failures
    };
    if failures.is_empty() {
        println!("perf gate: PASS");
        std::process::ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("perf gate FAILURE: {f}");
        }
        std::process::ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(name: &str, kind: Kind, value: f64) -> Entry {
        Entry {
            name: name.into(),
            kind,
            measured: value.into(),
        }
    }

    fn fails(kind: Kind, value: f64) -> bool {
        judge(&entry("k", kind, value), None, 1.0).failure.is_some()
    }

    #[test]
    fn each_kind_passes_at_its_limit_and_fails_just_past_it() {
        assert!(!fails(Kind::Ceiling(1.05), 1.05));
        assert!(fails(Kind::Ceiling(1.05), 1.050_001));
        assert!(!fails(Kind::Floor(3.0), 3.0));
        assert!(fails(Kind::Floor(3.0), 2.999_999));
        for edge in [0.5, 500.0] {
            assert!(!fails(Kind::Within(0.5, 500.0), edge));
        }
        assert!(fails(Kind::Within(0.5, 500.0), 0.499_999));
        assert!(fails(Kind::Within(0.5, 500.0), 500.000_1));
        let limit = 0.2 * (1.0 + TOLERANCE) + SLACK_SECS;
        let wall = |v: f64| judge(&entry("k", Kind::WallClock, v), Some(0.2), 1.0);
        assert_eq!(wall(limit).cells[4], "pass");
        let past = wall(limit + 1e-9);
        assert_eq!(past.cells[4], "**FAIL**");
        assert!(past.failure.is_some_and(|f| f.contains("regressed")));
    }

    #[test]
    fn a_faster_host_never_shrinks_a_budget() {
        assert_eq!(machine_factor(0.5, Some(1.0)), 1.0);
        assert_eq!(machine_factor(2.0, Some(1.0)), 2.0);
        assert_eq!(machine_factor(2.0, None), 1.0);
        let baseline = "{\"calibration/substrate_bfs\": 1.0, \"k\": 1.0}";
        // A half-speed calibration would shrink the 1.251 s budget to
        // 0.6 s if the factor were not clamped.
        let run = [
            entry(CALIBRATION_KEY, Kind::Calibration, 0.5),
            entry("k", Kind::WallClock, 1.2),
        ];
        assert!(judge_all(&run, Ok(baseline)).1.is_empty());
        // A slower host scales the budget up.
        let slow = [
            entry(CALIBRATION_KEY, Kind::Calibration, 2.0),
            entry("k", Kind::WallClock, 2.4),
        ];
        assert!(judge_all(&slow, Ok(baseline)).1.is_empty());
    }

    #[test]
    fn microsecond_kernels_get_one_millisecond_of_slack() {
        let wall = |v: f64| judge(&entry("k", Kind::WallClock, v), Some(1e-6), 1.0);
        assert!(
            wall(9e-4).failure.is_none(),
            "900× the baseline, inside 1 ms"
        );
        assert!(wall(1.1e-3).failure.is_some());
    }

    #[test]
    fn a_kernel_missing_from_the_baseline_is_an_info_row() {
        let run = [
            entry(CALIBRATION_KEY, Kind::Calibration, 1.0),
            entry("new/kernel", Kind::WallClock, 100.0),
        ];
        let (rows, failures) = judge_all(&run, Ok("{\"calibration/substrate_bfs\": 1.0}"));
        assert!(failures.is_empty());
        assert_eq!(rows[0].cells[4], "info");
        assert_eq!(rows[1].cells[1], "n/a (new kernel)");
        assert_eq!(rows[1].cells[4], "info");
    }

    #[test]
    fn an_unreadable_baseline_fails_the_gate() {
        let run = [entry(CALIBRATION_KEY, Kind::Calibration, 1.0)];
        let (_, failures) = judge_all(&run, Err("cannot read baseline: gone".into()));
        assert_eq!(failures, ["cannot read baseline: gone"]);
    }

    #[test]
    fn write_baseline_refuses_any_failed_limit_and_stores_only_wall_clock() {
        let run = |extra: Entry| {
            vec![
                entry(CALIBRATION_KEY, Kind::Calibration, 0.05),
                entry("wall", Kind::WallClock, 9.0),
                extra,
            ]
        };
        for failing in [
            entry("c", Kind::Ceiling(1.25), 1.42),
            entry("f", Kind::Floor(3.0), 2.0),
            entry("w", Kind::Within(0.5, 500.0), 501.0),
        ] {
            let name = failing.name.clone();
            let refused = new_baseline(&run(failing)).expect_err("a failed limit refuses");
            assert!(refused.iter().any(|f| f.starts_with(&name)), "{refused:?}");
        }
        let json = new_baseline(&run(entry("c", Kind::Ceiling(1.25), 1.1))).expect("passes");
        assert_eq!(
            json,
            "{\n  \"calibration/substrate_bfs\": 0.050000,\n  \"wall\": 9.000000\n}\n"
        );
    }

    #[test]
    fn table_names_are_unique_and_the_baseline_names_only_wall_clock_kernels() {
        let table = kernels();
        let mut names: Vec<&str> = table.iter().map(|k| k.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), table.len(), "duplicate kernel names");
        let stored = include_str!("../../BENCH_baseline.json");
        for line in stored.lines().filter(|l| l.contains(':')) {
            let key = line.split('"').nth(1).expect("quoted key");
            let kernel = table.iter().find(|k| k.name == key);
            assert!(
                kernel.is_some_and(|k| matches!(k.kind, Kind::Calibration | Kind::WallClock)),
                "baseline key {key} names no calibration or wall-clock kernel"
            );
        }
    }
}
