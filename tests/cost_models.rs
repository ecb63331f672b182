//! Per-model property suite for the pluggable cost-model layer
//! (`bncg::core::cost_model`): the incremental-evaluation contract —
//! [`GameState::evaluator`] deltas and [`GameState::apply_move`]
//! cache maintenance agree with a from-scratch recomputation of the
//! model on the successor graph — holds for **every** model, resumed
//! scan chains reproduce uninterrupted scans, and unproven pruning
//! filters are skipped (never silently wrong) under non-linear models.
//!
//! Same seeded-case harness as `tests/proptests.rs` (the container is
//! offline, so no `proptest` crate): failures name the seed.

use bncg::core::solver::{ExecPolicy, Solver, StabilityQuery, Verdict};
use bncg::core::{
    best_response_resume, best_response_with_policy, Alpha, BestResponseVerdict, Concept,
    CostModel, CostModelSpec, GameState, Move, Utility,
};
use bncg::graph::{generators, Graph};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 48;

/// Every model the layer ships, spanning all three soundness classes:
/// the default, a distance-linear generic model, two non-linear
/// utilities, and the scenario-summed adversary model.
const MODELS: [CostModelSpec; 5] = [
    CostModelSpec::SumDistances,
    CostModelSpec::Generalized(Utility::Identity),
    CostModelSpec::Generalized(Utility::Capped(2)),
    CostModelSpec::Generalized(Utility::Quadratic),
    CostModelSpec::AdversaryRobust,
];

/// Runs `f` on `CASES` independently seeded RNGs, naming the seed on panic.
fn prop(name: &str, mut f: impl FnMut(&mut SmallRng)) {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xC057_u64 ^ (seed * 0x9E37_79B9));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut rng)));
        assert!(result.is_ok(), "property `{name}` failed at seed {seed}");
    }
}

/// A random connected graph on 3..=12 nodes (the suite's n ceiling).
fn random_connected(rng: &mut SmallRng) -> Graph {
    let n = rng.gen_range(3..=12usize);
    generators::random_connected(n, 0.3, rng)
}

/// The issue's α grid: below the tree threshold, the workhorse value,
/// and the n-scale regime.
fn alpha_grid(n: usize) -> [Alpha; 3] {
    [
        Alpha::from_ratio(1, 2).expect("α"),
        Alpha::integer(2).expect("α"),
        Alpha::integer(n as i64).expect("α"),
    ]
}

/// A random valid move against `g`, if the drawn kind has a candidate.
fn random_move(g: &Graph, rng: &mut SmallRng) -> Option<Move> {
    let edges: Vec<(u32, u32)> = g.edges().collect();
    let non_edges: Vec<(u32, u32)> = g.non_edges().collect();
    match rng.gen_range(0..3u32) {
        0 => {
            let &(u, v) = edges.get(rng.gen_range(0..edges.len().max(1)))?;
            let (agent, target) = if rng.gen_bool(0.5) { (u, v) } else { (v, u) };
            Some(Move::Remove { agent, target })
        }
        1 => {
            if non_edges.is_empty() {
                return None;
            }
            let &(u, v) = non_edges.get(rng.gen_range(0..non_edges.len()))?;
            Some(Move::BilateralAdd { u, v })
        }
        _ => {
            let &(agent, old) = edges.get(rng.gen_range(0..edges.len().max(1)))?;
            let candidates: Vec<u32> = (0..g.n() as u32)
                .filter(|&w| w != agent && w != old && !g.has_edge(agent, w))
                .collect();
            let &new = candidates.get(rng.gen_range(0..candidates.len().max(1)))?;
            Some(Move::Swap { agent, old, new })
        }
    }
}

#[test]
fn evaluate_move_matches_from_scratch_model_cost() {
    prop("evaluate ≡ from-scratch per model", |rng| {
        let g = random_connected(rng);
        for model in MODELS {
            for alpha in alpha_grid(g.n()) {
                let state = GameState::with_cost_model(g.clone(), alpha, model);
                let Some(mv) = random_move(&g, rng) else {
                    continue;
                };
                let mut evaluator = state.evaluator();
                let delta = evaluator.evaluate(&mv).expect("valid move");
                let successor = mv.apply(&g).expect("valid move");
                for d in &delta.agents {
                    assert_eq!(
                        d.before,
                        model.cost(&g, d.agent),
                        "stale `before` for agent {} under {model} (α = {alpha})",
                        d.agent
                    );
                    assert_eq!(
                        d.after,
                        model.cost(&successor, d.agent),
                        "wrong `after` for agent {} under {model} on {mv} (α = {alpha})",
                        d.agent
                    );
                }
            }
        }
    });
}

#[test]
fn apply_move_maintains_every_models_cost_cache() {
    prop("apply_move cache ≡ from-scratch per model", |rng| {
        let g = random_connected(rng);
        for model in MODELS {
            let alpha = alpha_grid(g.n())[rng.gen_range(0..3usize)];
            let mut state = GameState::with_cost_model(g.clone(), alpha, model);
            // A short random walk: the cache must stay exact after
            // every mutation, not just the first.
            for _ in 0..4 {
                let Some(mv) = random_move(state.graph(), rng) else {
                    break;
                };
                state.apply_move(&mv).expect("valid move");
                for u in 0..state.n() as u32 {
                    assert_eq!(
                        state.costs()[u as usize],
                        model.cost(state.graph(), u),
                        "cache diverged at agent {u} under {model} after {mv}"
                    );
                }
            }
        }
    });
}

#[test]
fn resumed_best_response_chains_match_uninterrupted_scans() {
    prop("resume chain ≡ uninterrupted per model", |rng| {
        let g = random_connected(rng);
        let alpha = alpha_grid(g.n())[rng.gen_range(0..3usize)];
        let agent = rng.gen_range(0..g.n()) as u32;
        for model in MODELS {
            let state = GameState::with_cost_model(g.clone(), alpha, model);
            let uninterrupted = best_response_with_policy(&state, agent, &ExecPolicy::default())
                .expect("unbudgeted scan completes");
            let BestResponseVerdict::Optimal {
                response, evals, ..
            } = uninterrupted
            else {
                panic!("unbudgeted scan cannot exhaust");
            };
            // Drive the identical scan in 7-eval slices to completion.
            let sliced = ExecPolicy::default().with_eval_budget(7);
            let mut verdict =
                best_response_with_policy(&state, agent, &sliced).expect("sliced scan starts");
            let mut slices = 1usize;
            loop {
                match verdict {
                    BestResponseVerdict::Optimal {
                        response: chained,
                        evals: chained_evals,
                        ..
                    } => {
                        assert_eq!(
                            chained.best, response.best,
                            "chained best move diverged under {model} (α = {alpha})"
                        );
                        assert_eq!(
                            chained_evals, evals,
                            "chained cumulative evals diverged under {model}"
                        );
                        break;
                    }
                    BestResponseVerdict::ImprovedSoFar { frontier, .. }
                    | BestResponseVerdict::Exhausted { frontier, .. } => {
                        slices += 1;
                        assert!(slices < 10_000, "chain failed to converge under {model}");
                        verdict = best_response_resume(&state, &sliced, &frontier)
                            .expect("resume from own frontier");
                    }
                }
            }
        }
    });
}

#[test]
fn resumed_solver_chains_match_uninterrupted_checks() {
    prop("solver chain ≡ uninterrupted per model", |rng| {
        let g = random_connected(rng);
        let alpha = alpha_grid(g.n())[rng.gen_range(0..3usize)];
        for model in MODELS {
            let query = StabilityQuery::new(Concept::Bne, &g, alpha).with_cost_model(model);
            let direct = Solver::default().check(&query).expect("unbudgeted check");
            let sliced = ExecPolicy::default().with_eval_budget(11);
            let mut chained = Solver::new(sliced.clone()).check(&query).expect("slice");
            let mut slices = 1usize;
            let chained = loop {
                match chained {
                    Verdict::Exhausted { frontier, .. } => {
                        slices += 1;
                        assert!(slices < 10_000, "chain failed to converge under {model}");
                        let resumed = StabilityQuery::new(Concept::Bne, &g, alpha)
                            .with_cost_model(model)
                            .resume(frontier);
                        chained = Solver::new(sliced.clone()).check(&resumed).expect("slice");
                    }
                    done => break done,
                }
            };
            match (&direct, &chained) {
                (Verdict::Stable { evals, .. }, Verdict::Stable { evals: e2, .. }) => {
                    assert_eq!(evals, e2, "cumulative evals diverged under {model}");
                }
                (Verdict::Unstable { witness, .. }, Verdict::Unstable { witness: w2, .. }) => {
                    assert_eq!(witness, w2, "witness diverged under {model}");
                }
                (a, b) => panic!("verdicts diverged under {model}: {a:?} vs {b:?}"),
            }
        }
    });
}

#[test]
fn unsound_filters_are_skipped_and_verdicts_match_the_per_agent_reference() {
    // Scan-level capability check on pinned instances: non-linear
    // models must report zero pruned candidates (the proven filters are
    // sum-of-distances theorems), and the verdict must still equal the
    // filter-free per-agent truth — BNE-stable iff no agent has any
    // improving strategy change.
    let alpha = Alpha::integer(2).expect("α");
    for g in [
        generators::star(10),
        generators::path(8),
        generators::cycle(9),
    ] {
        for model in [
            CostModelSpec::Generalized(Utility::Capped(2)),
            CostModelSpec::Generalized(Utility::Quadratic),
            CostModelSpec::AdversaryRobust,
        ] {
            let verdict = Solver::default()
                .check(&StabilityQuery::new(Concept::Bne, &g, alpha).with_cost_model(model))
                .expect("check completes");
            let state = GameState::with_cost_model(g.clone(), alpha, model);
            let reference_stable = (0..g.n() as u32).all(|u| {
                let verdict = best_response_with_policy(&state, u, &ExecPolicy::default())
                    .expect("per-agent scan");
                assert!(verdict.frontier().is_none(), "unbudgeted scans complete");
                verdict.best().is_none()
            });
            match verdict {
                Verdict::Stable { pruned, .. } => {
                    assert_eq!(pruned, 0, "non-linear {model} must run filter-free");
                    assert!(
                        reference_stable,
                        "scan says stable, per-agent reference disagrees under {model}"
                    );
                }
                Verdict::Unstable { .. } => {
                    assert!(
                        !reference_stable,
                        "scan says unstable, per-agent reference disagrees under {model}"
                    );
                }
                Verdict::Exhausted { .. } => panic!("unbudgeted scan cannot exhaust"),
            }
        }
    }
}

#[test]
fn distance_linear_models_keep_the_proven_filters() {
    // The flip side of the capability table: the default model and
    // `generalized:id` still prune on an instance where the bounds bite,
    // and their verdicts coincide (identity utility IS the paper's
    // objective, only the dispatch path differs).
    let g = generators::star(16);
    let alpha = Alpha::integer(2).expect("α");
    let mut pruned_counts = Vec::new();
    for model in [
        CostModelSpec::SumDistances,
        CostModelSpec::Generalized(Utility::Identity),
    ] {
        let verdict = Solver::default()
            .check(&StabilityQuery::new(Concept::Bne, &g, alpha).with_cost_model(model))
            .expect("check completes");
        match verdict {
            Verdict::Stable { pruned, .. } => pruned_counts.push(pruned),
            other => panic!("star16 at α = 2 must be BNE-stable under {model}: {other:?}"),
        }
    }
    assert!(
        pruned_counts.iter().all(|&p| p > 0),
        "distance-linear models must keep pruning: {pruned_counts:?}"
    );
}

/// The single-edge move space of a polynomial concept in its checker's
/// scan order: removals (edge order, then both endpoints), bilateral
/// additions (non-edge order), swaps (agent, dropped neighbor, new
/// partner).
fn polynomial_moves(concept: Concept, g: &Graph) -> Vec<Move> {
    let n = g.n() as u32;
    let removals = g.edges().flat_map(|(u, v)| {
        [
            Move::Remove {
                agent: u,
                target: v,
            },
            Move::Remove {
                agent: v,
                target: u,
            },
        ]
    });
    let adds = g.non_edges().map(|(u, v)| Move::BilateralAdd { u, v });
    let swaps = (0..n).flat_map(|agent| {
        g.neighbors(agent).iter().flat_map(move |&old| {
            (0..n)
                .filter(move |&new| new != agent && !g.has_edge(agent, new))
                .map(move |new| Move::Swap { agent, old, new })
        })
    });
    match concept {
        Concept::Re => removals.collect(),
        Concept::Bae => adds.collect(),
        Concept::Bswe => swaps.collect(),
        Concept::Ps => removals.chain(adds).collect(),
        Concept::Bge => removals.chain(adds).chain(swaps).collect(),
        other => unreachable!("{other} is not a single-edge concept"),
    }
}

#[test]
fn polynomial_checks_price_moves_under_the_querys_model() {
    prop("polynomial checks ≡ brute force per model", |rng| {
        // A tree (matrix-free default pricing, RE vacuous) and a graph
        // with cycles (matrix additions, evaluator swaps, RE's bridge
        // skip under every model).
        let n = rng.gen_range(5..=9usize);
        let tree = generators::random_tree(n, rng);
        let n = rng.gen_range(4..=9usize);
        let cyclic = generators::random_connected(n, 0.3, rng);
        let alphas = ["1/2", "1", "2", "5"].map(|a| a.parse::<Alpha>().expect("α"));
        for g in [tree, cyclic] {
            for model in MODELS {
                for alpha in alphas {
                    let state = GameState::with_cost_model(g.clone(), alpha, model);
                    for concept in [
                        Concept::Re,
                        Concept::Bae,
                        Concept::Bswe,
                        Concept::Ps,
                        Concept::Bge,
                    ] {
                        // The spec: the first candidate in scan order that
                        // the generic evaluator finds improving for everyone.
                        let mut ev = state.evaluator();
                        let expected = polynomial_moves(concept, &g)
                            .into_iter()
                            .find(|mv| ev.improves_all(mv).expect("valid move").is_some());
                        let got = Solver::new(ExecPolicy::default())
                            .check(&StabilityQuery::new(concept, &g, alpha).with_cost_model(model))
                            .expect("polynomial checks always complete")
                            .into_violation()
                            .expect("unbudgeted");
                        assert_eq!(
                            got, expected,
                            "{concept} under {model} (α = {alpha}) on {g:?}"
                        );
                    }
                }
            }
        }
    });
}
