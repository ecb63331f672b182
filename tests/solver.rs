//! Property suite for the unified `Solver` query surface (ISSUE 3): the
//! anytime/resumable contract. A query stopped at an eval budget B and
//! resumed from its frontier — any number of times, at any B, at any
//! thread count — must return the **identical witness** (same
//! enumeration order) as one uninterrupted run, and
//! `GameError::CheckTooLarge` must be unreachable from the solver path.
//!
//! Extended for the metered dynamics surface (ISSUE 4) with the resume
//! laws of the two new anytime shapes: a chain of budgeted
//! **best-response** slices must return the identical move an
//! uninterrupted scan returns, a **checkpointed round-robin trajectory**
//! must resume to the identical move/fingerprint sequence and final
//! state, and a `check_many` batch draining one shared **budget pool**
//! must keep input order and resume cleanly to the unbudgeted verdicts.
//!
//! Seeded-case harness as in `proptests.rs` (the container is offline,
//! so no `proptest` crate): failures reproduce from the printed seed.

use bncg::core::delta;
use bncg::core::solver::{ExecPolicy, Frontier, Solver, StabilityQuery, Verdict};
use bncg::core::CostModelSpec::SumDistances;
use bncg::core::{
    best_response, best_response_resume, best_response_with_policy, Alpha, BestResponseFrontier,
    BestResponseVerdict, Concept, GameError, GameState, Move,
};
use bncg::dynamics::round_robin;
use bncg::graph::generators;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

const CASES: u64 = 12;

fn prop(name: &str, mut f: impl FnMut(&mut SmallRng)) {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x50_1E_u64 ^ (seed * 0x9E37_79B9));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut rng)));
        assert!(result.is_ok(), "property `{name}` failed at seed {seed}");
    }
}

/// The ISSUE's α grid: below 1, above 1, and at the scale of n.
fn alpha_grid(n: usize) -> Vec<Alpha> {
    vec![
        Alpha::from_ratio(1, 2).unwrap(),
        Alpha::integer(2).unwrap(),
        Alpha::integer(n as i64).unwrap(),
    ]
}

fn random_instance(max_n: usize, rng: &mut SmallRng) -> bncg::graph::Graph {
    let n = rng.gen_range(4..=max_n);
    if rng.gen_bool(0.4) {
        generators::random_tree(n, rng)
    } else {
        generators::random_connected(n, 0.3, rng)
    }
}

/// Drains a budgeted query to a conclusive verdict through resume
/// frontiers, asserting forward progress and JSON round-trips along the
/// way.
fn resolve_with_resume(solver: &Solver, concept: Concept, state: &GameState) -> Option<Move> {
    let mut query = StabilityQuery::on(concept, state);
    let mut previous: Option<Frontier> = None;
    let mut rounds = 0u32;
    loop {
        match solver.check(&query).unwrap() {
            Verdict::Stable { .. } => return None,
            Verdict::Unstable { witness, .. } => return Some(witness),
            Verdict::Exhausted { frontier, .. } => {
                // The frontier serializes and parses back bit-identically.
                let round_trip: Frontier = frontier.to_json().parse().unwrap();
                assert_eq!(round_trip, frontier, "frontier JSON round trip");
                // Every resumed slice must advance the frontier.
                assert_ne!(previous, Some(frontier), "resume made no progress");
                previous = Some(frontier);
                query = StabilityQuery::on(concept, state).resume(round_trip);
                rounds += 1;
                assert!(rounds < 100_000, "resume loop failed to terminate");
            }
        }
    }
}

#[test]
fn budgeted_resume_chain_returns_the_uninterrupted_witness() {
    prop("resume determinism", |rng| {
        let concepts = [
            (Concept::Bne, 9usize),
            (Concept::KBse(2), 7),
            (Concept::Bse, 6),
        ];
        for (concept, max_n) in concepts {
            let g = random_instance(max_n, rng);
            for alpha in alpha_grid(g.n()) {
                let state = GameState::new(g.clone(), alpha);
                let uninterrupted = Solver::default()
                    .check(&StabilityQuery::on(concept, &state))
                    .unwrap();
                let canonical = uninterrupted.witness().cloned();
                for budget in [1u64, 17] {
                    for threads in [1usize, 2] {
                        let solver = Solver::new(
                            ExecPolicy::default()
                                .with_eval_budget(budget)
                                .with_threads(threads),
                        );
                        let resolved = resolve_with_resume(&solver, concept, &state);
                        assert_eq!(
                            resolved,
                            canonical,
                            "witness diverged under {concept}, budget {budget}, \
                             {threads} threads, α = {}",
                            state.alpha()
                        );
                    }
                }
            }
        }
    });
}

#[test]
fn parallel_unbudgeted_checks_match_sequential_witnesses() {
    prop("parallel == sequential", |rng| {
        let g = random_instance(8, rng);
        let alpha = Alpha::integer(2).unwrap();
        let state = GameState::new(g, alpha);
        for concept in [Concept::Bne, Concept::KBse(3)] {
            let seq = Solver::default()
                .check(&StabilityQuery::on(concept, &state))
                .unwrap();
            for threads in [2usize, 3] {
                let par = Solver::new(ExecPolicy::default().with_threads(threads))
                    .check(&StabilityQuery::on(concept, &state))
                    .unwrap();
                assert_eq!(
                    par.witness(),
                    seq.witness(),
                    "{concept} witness diverged at {threads} threads"
                );
                assert_eq!(par.is_stable(), seq.is_stable());
            }
        }
    });
}

#[test]
fn check_too_large_is_unreachable_from_the_solver_path() {
    // (a) An instance the legacy n ≤ 21 raw-space guard once refused
    // outright — C40 inside its Lemma 2.4 stability window — is simply
    // *solved*: the pruning layer collapses the 40·2³⁹ raw space to a
    // few hundred candidates, and since the branch-and-bound generator
    // landed even the convenience entry point runs it exactly (the
    // default budget now meters evaluations, not the raw space).
    let cycle = generators::cycle(40);
    let alpha = Alpha::integer(370).unwrap();
    assert!(Concept::Bne
        .find_violation(&cycle, alpha)
        .unwrap()
        .is_none());
    let v = Solver::default()
        .check(&StabilityQuery::new(Concept::Bne, &cycle, alpha))
        .unwrap();
    assert_eq!(v.is_stable(), Some(true), "C40 is BNE-stable in its window");
    // The coalition concepts' raw spaces are no longer sized either:
    // 3-BSE on a 20-star and on a dense random graph, and BSE on a
    // 9-path (2³⁶ raw target graphs), get exact answers.
    let two = Alpha::integer(2).unwrap();
    let star = generators::star(20);
    assert_eq!(Concept::KBse(3).find_violation(&star, two).unwrap(), None);
    let g = generators::gnp(16, 0.3, &mut bncg::graph::test_rng(7));
    let witness = Concept::KBse(3).find_violation(&g, two).unwrap();
    let v = Solver::default()
        .check(&StabilityQuery::new(Concept::KBse(3), &g, two))
        .unwrap();
    assert_eq!(v.witness(), witness.as_ref());
    assert!(delta::move_improves_all(&g, two, &witness.expect("not 3-BSE")).unwrap());
    let path = generators::path(9);
    let witness = Concept::Bse.find_violation(&path, two).unwrap();
    assert!(delta::move_improves_all(&path, two, &witness.expect("not BSE")).unwrap());

    // (b) The same oversized instance under a 1-eval budget: the cycle's
    // pure-removal candidates are genuinely evaluated (α > 1, not a
    // tree), so the budget trips mid-scan with a frontier, and the
    // resume chain still certifies stability.
    let state = GameState::new(cycle, alpha);
    let solver = Solver::new(ExecPolicy::default().with_eval_budget(1));
    match solver
        .check(&StabilityQuery::on(Concept::Bne, &state))
        .unwrap()
    {
        Verdict::Exhausted { frontier, progress } => {
            assert!(progress.evals_total >= 1, "budget stops only after work");
            assert_eq!(frontier.concept(), Concept::Bne);
            assert!(progress.units_done < progress.units_total);
        }
        v => panic!("expected exhaustion under a 1-eval budget, got {v:?}"),
    }
    assert_eq!(resolve_with_resume(&solver, Concept::Bne, &state), None);
}

#[test]
fn zero_deadline_exhausts_and_resumes_to_stability() {
    let star = generators::star(16);
    let alpha = Alpha::integer(2).unwrap();
    let state = GameState::new(star, alpha);
    let tight = Solver::new(ExecPolicy::default().with_deadline(Duration::ZERO));
    let Verdict::Exhausted { frontier, .. } = tight
        .check(&StabilityQuery::on(Concept::Bne, &state))
        .unwrap()
    else {
        panic!("a zero deadline must exhaust the star16 BNE scan")
    };
    let done = Solver::default()
        .check(&StabilityQuery::on(Concept::Bne, &state).resume(frontier))
        .unwrap();
    assert_eq!(done.is_stable(), Some(true));
}

#[test]
fn raised_cancel_token_exhausts_exponential_checks() {
    let token = Arc::new(AtomicBool::new(true));
    let solver = Solver::new(ExecPolicy::default().with_cancel(token));
    let state = GameState::new(generators::star(16), Alpha::integer(2).unwrap());
    let v = solver
        .check(&StabilityQuery::on(Concept::Bne, &state))
        .unwrap();
    assert!(matches!(v, Verdict::Exhausted { .. }));
    // Polynomial concepts complete eagerly regardless.
    let v = solver
        .check(&StabilityQuery::on(Concept::Ps, &state))
        .unwrap();
    assert_eq!(v.is_stable(), Some(true));
}

#[test]
fn check_many_returns_input_order_and_matches_individual_checks() {
    let alpha = Alpha::integer(2).unwrap();
    let mut rng = bncg::graph::test_rng(0xBA7C);
    let states: Vec<GameState> = (0..12)
        .map(|_| GameState::new(generators::random_connected(8, 0.3, &mut rng), alpha))
        .collect();
    let queries: Vec<StabilityQuery> = states
        .iter()
        .map(|s| StabilityQuery::on(Concept::Bne, s))
        .collect();
    let solo = Solver::default();
    let pooled = Solver::new(ExecPolicy::default().with_threads(4));
    let batch = pooled.check_many(&queries);
    assert_eq!(batch.len(), queries.len());
    for (i, (state, verdict)) in states.iter().zip(batch).enumerate() {
        let expected = solo
            .check(&StabilityQuery::on(Concept::Bne, state))
            .unwrap();
        let got = verdict.unwrap();
        assert_eq!(
            got.witness(),
            expected.witness(),
            "batch slot {i} diverged from the individual check"
        );
        assert_eq!(got.is_stable(), expected.is_stable());
    }
}

/// `token` with its `"evals"` field replaced by `u64::MAX`.
fn forge_evals(token: &str) -> String {
    let at = token.find("\"evals\":").expect("tokens carry evals") + "\"evals\":".len();
    let end = at + token[at..].find([',', '}']).expect("a terminated field");
    format!("{}{}{}", &token[..at], u64::MAX, &token[end..])
}

#[test]
fn mismatched_frontiers_are_rejected_not_misapplied() {
    let alpha = Alpha::integer(2).unwrap();
    let state = GameState::new(generators::star(16), alpha);
    let tight = Solver::new(ExecPolicy::default().with_deadline(Duration::ZERO));
    let Verdict::Exhausted { frontier, .. } = tight
        .check(&StabilityQuery::on(Concept::Bne, &state))
        .unwrap()
    else {
        panic!("expected exhaustion")
    };
    let solver = Solver::default();
    // Wrong concept.
    let wrong = StabilityQuery::on(Concept::KBse(2), &state).resume(frontier);
    assert!(matches!(
        solver.check(&wrong),
        Err(GameError::Unsupported { .. })
    ));
    // Wrong instance (different α ⇒ different fingerprint).
    let other = GameState::new(generators::star(16), Alpha::integer(3).unwrap());
    let wrong = StabilityQuery::on(Concept::Bne, &other).resume(frontier);
    assert!(matches!(
        solver.check(&wrong),
        Err(GameError::Unsupported { .. })
    ));
    // A token forged for a polynomial concept is rejected outright —
    // those checks complete eagerly, so no genuine frontier names them.
    let forged: Frontier =
        "{\"v\":1,\"concept\":\"ps\",\"instance\":1,\"unit\":0,\"pos\":0,\"evals\":0}"
            .parse()
            .unwrap();
    let wrong = StabilityQuery::on(Concept::Ps, &state).resume(forged);
    assert!(matches!(
        solver.check(&wrong),
        Err(GameError::Unsupported { .. })
    ));
    // A forged token naming a unit outside the scan is rejected —
    // mirroring round_robin's forged-cursor rejection. Before the check
    // landed, the drive loop started past the last unit, completed
    // instantly, and reported Stable without scanning anything.
    let forged: Frontier = format!(
        "{{\"v\":1,\"concept\":\"bne\",\"instance\":{},\"unit\":999,\"pos\":0,\"evals\":0}}",
        state.fingerprint()
    )
    .parse()
    .unwrap();
    let wrong = StabilityQuery::on(Concept::Bne, &state).resume(forged);
    assert!(matches!(
        solver.check(&wrong),
        Err(GameError::Unsupported { .. })
    ));
    // A genuine frontier whose eval count was forged to u64::MAX must
    // saturate the cumulative count, not overflow it (a panic in debug
    // builds, a silently wrapped count in release).
    let cycle12 = GameState::new(generators::cycle(12), Alpha::integer(16).unwrap());
    let sliced = Solver::new(ExecPolicy::default().with_eval_budget(100));
    let Verdict::Exhausted { frontier, .. } = sliced
        .check(&StabilityQuery::on(Concept::Bne, &cycle12))
        .unwrap()
    else {
        panic!("a 100-eval budget must exhaust the cycle12 scan")
    };
    let forged: Frontier = forge_evals(&frontier.to_json()).parse().unwrap();
    let resumed = StabilityQuery::on(Concept::Bne, &cycle12).resume(forged);
    assert!(matches!(
        solver.check(&resumed).unwrap(),
        Verdict::Stable {
            evals: u64::MAX,
            ..
        }
    ));
    // The same forgery on a best-response frontier.
    let path12 = GameState::new(generators::path(12), alpha);
    let tight = ExecPolicy::default().with_eval_budget(1);
    let verdict = best_response_with_policy(&path12, 0, &tight).unwrap();
    let frontier = verdict.frontier().expect("a 1-eval budget stops the scan");
    let forged: BestResponseFrontier = forge_evals(&frontier.to_json()).parse().unwrap();
    assert!(matches!(
        best_response_resume(&path12, &ExecPolicy::default(), &forged).unwrap(),
        BestResponseVerdict::Optimal {
            evals: u64::MAX,
            ..
        }
    ));
    // Malformed tokens fail to parse instead of resuming garbage.
    assert!("{\"concept\":\"bne\"}".parse::<Frontier>().is_err());
    assert!("nonsense".parse::<Frontier>().is_err());
    // A layout-version mismatch is rejected at parse time.
    assert!(
        "{\"v\":9,\"concept\":\"bne\",\"instance\":1,\"unit\":0,\"pos\":0,\"evals\":0}"
            .parse::<Frontier>()
            .is_err()
    );
}

#[test]
fn structural_limits_error_as_unsupported_not_too_large() {
    // BSE's 64-bit target-graph masks cap at n = 11: a representational
    // limit, reported as such (not as a budget refusal).
    let g = generators::path(12);
    let q = StabilityQuery::new(Concept::Bse, &g, Alpha::integer(1).unwrap());
    assert!(matches!(
        Solver::default().check(&q),
        Err(GameError::Unsupported { .. })
    ));
    // k-BSE caps its materialized coalition index (C(50,1..10) ≈ 1e10
    // units would exhaust memory before any stop condition could fire).
    let g = generators::path(50);
    let q = StabilityQuery::new(Concept::KBse(10), &g, Alpha::integer(1).unwrap());
    assert!(matches!(
        Solver::default().check(&q),
        Err(GameError::Unsupported { .. })
    ));
    // The `Concept` shorthands hit the same limits (BNE needs n ≤ 64).
    let two = Alpha::integer(2).unwrap();
    for (concept, n) in [(Concept::Bse, 12), (Concept::Bne, 70)] {
        assert!(matches!(
            concept.find_violation(&generators::path(n), two),
            Err(GameError::Unsupported { .. })
        ));
    }
}

/// The best-response resume law: any chain of budgeted slices returns
/// the identical move (and post-move cost) the uninterrupted scan
/// returns — for every agent, across the α grid, at interrupt-happy
/// budgets.
#[test]
fn budgeted_best_response_chain_returns_the_uninterrupted_move() {
    prop("best-response resume determinism", |rng| {
        let g = random_instance(9, rng);
        for alpha in alpha_grid(g.n()) {
            let state = GameState::new(g.clone(), alpha);
            for u in 0..g.n() as u32 {
                let uninterrupted = best_response(&g, alpha, u).unwrap();
                for budget in [1u64, 17] {
                    let policy = ExecPolicy::default().with_eval_budget(budget);
                    let mut verdict = best_response_with_policy(&state, u, &policy).unwrap();
                    let mut slices = 0u32;
                    let resolved = loop {
                        match verdict {
                            BestResponseVerdict::Optimal { response, .. } => break response,
                            BestResponseVerdict::ImprovedSoFar { ref frontier, .. }
                            | BestResponseVerdict::Exhausted { ref frontier, .. } => {
                                // Tokens round-trip through JSON mid-chain.
                                let parsed: BestResponseFrontier =
                                    frontier.to_json().parse().unwrap();
                                assert_eq!(&parsed, frontier, "frontier JSON round trip");
                                verdict = best_response_resume(&state, &policy, &parsed).unwrap();
                                slices += 1;
                                assert!(slices < 100_000, "resume chain failed to terminate");
                            }
                        }
                    };
                    assert_eq!(
                        resolved,
                        uninterrupted,
                        "best response diverged for u = {u}, budget {budget}, α = {}",
                        state.alpha()
                    );
                }
            }
        }
    });
}

/// The trajectory resume law: a round-robin run interrupted by its
/// eval-budget pool at arbitrary activations and resumed from its
/// checkpoints replays the identical move sequence — hence the
/// identical state-fingerprint sequence — and reaches the identical
/// final state and verdict an uninterrupted run reaches.
#[test]
fn checkpointed_round_robin_resumes_the_identical_trajectory() {
    prop("round-robin checkpoint determinism", |rng| {
        let g = random_instance(9, rng);
        for alpha in alpha_grid(g.n()) {
            let uninterrupted = round_robin::run_with_policy_under(
                &g,
                alpha,
                SumDistances,
                60,
                &ExecPolicy::default(),
            )
            .unwrap();
            for budget in [25u64, 150] {
                let policy = ExecPolicy::default().with_eval_budget(budget);
                let mut out =
                    round_robin::run_with_policy_under(&g, alpha, SumDistances, 60, &policy)
                        .unwrap();
                let mut history = out.history.clone();
                let mut slices = 1u32;
                while let Some(checkpoint) = out.checkpoint.take() {
                    let parsed: round_robin::Checkpoint = checkpoint.to_json().parse().unwrap();
                    assert_eq!(parsed, checkpoint, "checkpoint JSON round trip");
                    out = round_robin::resume_under(
                        &out.final_graph,
                        alpha,
                        SumDistances,
                        60,
                        &policy,
                        &parsed,
                    )
                    .unwrap();
                    history.extend(out.history.iter().cloned());
                    slices += 1;
                    assert!(slices < 100_000, "resume chain failed to terminate");
                }
                assert_eq!(
                    history, uninterrupted.history,
                    "move sequence diverged at budget {budget}, α = {alpha}"
                );
                assert_eq!(out.converged, uninterrupted.converged);
                assert_eq!(out.cycled, uninterrupted.cycled);
                assert_eq!(out.rounds, uninterrupted.rounds);
                assert_eq!(out.moves, uninterrupted.moves);
                assert_eq!(
                    out.final_graph.fingerprint(),
                    uninterrupted.final_graph.fingerprint()
                );
            }
        }
    });
}

/// The batch pool: a `check_many` whose queries drain one shared eval
/// budget keeps its input-order results, sheds the tail once the pool
/// drains, and every shed frontier resumes to the exact verdict the
/// unbudgeted batch returns.
#[test]
fn batch_budget_pool_sheds_and_resumes_in_order() {
    let alpha = Alpha::integer(2).unwrap();
    let mut rng = bncg::graph::test_rng(0xB001);
    let states: Vec<GameState> = (0..10)
        .map(|_| GameState::new(generators::random_connected(9, 0.3, &mut rng), alpha))
        .collect();
    let queries: Vec<StabilityQuery> = states
        .iter()
        .map(|s| StabilityQuery::on(Concept::Bne, s))
        .collect();
    let reference: Vec<Verdict> = queries
        .iter()
        .map(|q| Solver::default().check(q).unwrap())
        .collect();

    // A 5-eval pool: the first queries drain it, the rest load-shed.
    let pooled = Solver::new(ExecPolicy::default().with_batch_budget(5));
    let verdicts = pooled.check_many(&queries);
    assert_eq!(verdicts.len(), queries.len());
    let mut shed = 0usize;
    for (i, verdict) in verdicts.into_iter().enumerate() {
        match verdict.unwrap() {
            Verdict::Exhausted { frontier, .. } => {
                shed += 1;
                let done = Solver::default()
                    .check(&StabilityQuery::on(Concept::Bne, &states[i]).resume(frontier))
                    .unwrap();
                assert_eq!(done.witness(), reference[i].witness(), "slot {i} resumed");
                assert_eq!(done.is_stable(), reference[i].is_stable());
            }
            conclusive => {
                assert_eq!(conclusive.witness(), reference[i].witness(), "slot {i}");
                assert_eq!(conclusive.is_stable(), reference[i].is_stable());
            }
        }
    }
    assert!(shed > 0, "a 5-eval pool must shed part of the batch");

    // A roomy pool completes every query with the reference verdicts,
    // threads notwithstanding (order is the input order by contract).
    let roomy = Solver::new(
        ExecPolicy::default()
            .with_batch_budget(100_000_000)
            .with_threads(3),
    );
    for (i, verdict) in roomy.check_many(&queries).into_iter().enumerate() {
        let verdict = verdict.unwrap();
        assert_eq!(verdict.witness(), reference[i].witness(), "slot {i}");
        assert_eq!(verdict.is_stable(), reference[i].is_stable());
    }
}

#[test]
fn verdicts_carry_work_accounting() {
    let state = GameState::new(generators::path(10), Alpha::integer(2).unwrap());
    match Solver::default()
        .check(&StabilityQuery::on(Concept::Bne, &state))
        .unwrap()
    {
        Verdict::Unstable { evals, .. } => assert!(evals > 0, "the scan priced candidates"),
        v => panic!("P10 is not in BNE at α = 2, got {v:?}"),
    }
    let stable = GameState::new(generators::star(10), Alpha::integer(2).unwrap());
    match Solver::default()
        .check(&StabilityQuery::on(Concept::Bne, &stable))
        .unwrap()
    {
        Verdict::Stable { pruned, .. } => {
            assert!(pruned > 0, "the star scan is pruned, not evaluated");
        }
        v => panic!("the star is in BNE at α = 2, got {v:?}"),
    }
}

/// The serving layer's slice primitive (ISSUE 7): a chain of
/// `check_sliced` calls against one long-lived `BudgetPool` must land on
/// the identical verdict, witness, and cumulative eval count as one
/// uninterrupted run — at any slice quantum — and a drained pool must
/// shed with zero further work while keeping the frontier resumable.
#[test]
fn sliced_chains_match_one_shot_runs() {
    use bncg::core::BudgetPool;
    prop("check_sliced == check", |rng| {
        let g = random_instance(9, rng);
        let alpha = Alpha::integer(2).unwrap();
        let state = GameState::new(g, alpha);
        for concept in [Concept::Bne, Concept::KBse(2)] {
            let reference = Solver::default()
                .check(&StabilityQuery::on(concept, &state))
                .unwrap();
            for slice in [1u64, 17, 100_000] {
                let pool = BudgetPool::new(u64::MAX);
                let solver = Solver::default();
                let mut resume: Option<Frontier> = None;
                let mut slices = 0u32;
                let verdict = loop {
                    let mut query = StabilityQuery::on(concept, &state);
                    if let Some(f) = resume {
                        query = query.resume(f);
                    }
                    match solver.check_sliced(&query, &pool, slice).unwrap() {
                        Verdict::Exhausted { frontier, .. } => {
                            resume = Some(frontier);
                            slices += 1;
                            assert!(slices < 100_000, "chain failed to terminate");
                        }
                        conclusive => break conclusive,
                    }
                };
                assert_eq!(verdict.witness(), reference.witness(), "slice {slice}");
                assert_eq!(verdict.is_stable(), reference.is_stable());
                match (&verdict, &reference) {
                    (
                        Verdict::Stable { evals, .. },
                        Verdict::Stable {
                            evals: ref_evals, ..
                        },
                    )
                    | (
                        Verdict::Unstable { evals, .. },
                        Verdict::Unstable {
                            evals: ref_evals, ..
                        },
                    ) => assert_eq!(
                        evals, ref_evals,
                        "cumulative evals diverged at slice {slice}"
                    ),
                    _ => unreachable!(),
                }
                // The pool metered exactly the chain's priced candidates.
                assert_eq!(
                    pool.used(),
                    verdict.frontier().map_or_else(
                        || match verdict {
                            Verdict::Stable { evals, .. } | Verdict::Unstable { evals, .. } =>
                                evals,
                            Verdict::Exhausted { .. } => unreachable!(),
                        },
                        |_| unreachable!(),
                    )
                );
            }
        }
    });
}

#[test]
fn drained_and_expired_pools_shed_sliced_checks_with_zero_work() {
    use bncg::core::BudgetPool;
    use std::time::Instant;
    let g = generators::cycle(40);
    let alpha = Alpha::integer(370).unwrap();
    let state = GameState::new(g, alpha);

    // Drain a 30-eval pool mid-scan (the C40 check prices ~120).
    let pool = BudgetPool::new(30);
    let first = Solver::default()
        .check_sliced(&StabilityQuery::on(Concept::Bne, &state), &pool, 1_000)
        .unwrap();
    let Verdict::Exhausted { frontier, .. } = first else {
        panic!("a 30-eval pool cannot complete the C40 scan, got {first:?}")
    };
    assert!(pool.drained(), "the slice must charge the pool as it scans");
    let used_at_shed = pool.used();

    // Every further slice is a zero-work shed: same frontier evals, no
    // new pool usage — the admission-control invariant the daemon's
    // fair-share layer is built on.
    let again = Solver::default()
        .check_sliced(
            &StabilityQuery::on(Concept::Bne, &state).resume(frontier),
            &pool,
            1_000,
        )
        .unwrap();
    let Verdict::Exhausted {
        frontier: stalled, ..
    } = again
    else {
        panic!("drained pool must shed, got {again:?}")
    };
    assert_eq!(stalled.evals(), frontier.evals(), "zero work after drain");
    assert_eq!(pool.used(), used_at_shed);

    // Topping up resumes to the one-shot verdict with cumulative evals.
    pool.top_up(u64::MAX - 30);
    let done = Solver::default()
        .check_sliced(
            &StabilityQuery::on(Concept::Bne, &state).resume(stalled),
            &pool,
            u64::MAX,
        )
        .unwrap();
    match done {
        Verdict::Stable { evals, .. } => assert_eq!(evals, 120),
        v => panic!("C40 at α = 370 is BNE-stable, got {v:?}"),
    }

    // An expired pool sheds regardless of remaining budget.
    let expired = BudgetPool::new(u64::MAX).with_expiry(Instant::now());
    let shed = Solver::default()
        .check_sliced(&StabilityQuery::on(Concept::Bne, &state), &expired, 1_000)
        .unwrap();
    assert!(
        matches!(shed, Verdict::Exhausted { .. }),
        "expired pools shed, got {shed:?}"
    );
    assert_eq!(expired.used(), 0, "expiry shed does zero work");
}
