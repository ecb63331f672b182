//! Differential test harness for the branch-and-bound candidate
//! generator (ISSUE 5). The generator replaces the dense mask loops of
//! the exponential scans, so three equalities must hold everywhere:
//!
//! 1. **Generator ≡ raw reference**: verdicts — and, where enumeration
//!    order is shared (BNE, BSE), witnesses — equal the retained
//!    `*_reference` raw scans over pinned seeded instances
//!    (n ≤ 12, α ∈ {1/2, 2, n}).
//! 2. **Generator ≡ dense leg**: the BNE scan prices *exactly* the
//!    candidates the same scan prices with its subtree kills disabled
//!    (`find_violation_in_dense`) — same witness, same
//!    evaluated/pruned/generated counts, the generator's read from
//!    `Verdict::stats()` — the generator only changes how fast
//!    non-candidates are passed over. Because the two legs share their
//!    enumeration, the dense leg's counters are also checked against
//!    the raw reference's candidate count on stable instances.
//! 3. **Resumed ≡ uninterrupted**: a chain of generator scans resumed
//!    from frontiers under adversarial 1-eval budgets lands on the
//!    identical witness an uninterrupted generator scan returns.
//!
//! Plus the scale headline the generator buys: pinned n = 24 instances
//! whose exact BNE check was out of reach of the dense loops complete
//! under a finite eval budget, and the golden (concept, instance,
//! witness) triples recorded from the PR 4 scans at n = 16
//! (`tests/golden/witnesses_n16.jsonl`) are reproduced bit-for-bit —
//! the lexicographic-order contract.
//!
//! Seeded-case harness as in `proptests.rs` (the container is offline,
//! so no `proptest` crate): failures reproduce from the printed seed.

use bncg::core::candidates::NeighborhoodPruner;
use bncg::core::solver::{ExecPolicy, Solver, StabilityQuery, Verdict};
use bncg::core::{
    concepts, delta, jsonio, Alpha, CandidateStats, CheckBudget, Concept, GameState, Move,
};
use bncg::graph::{generators, graph6};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 10;

fn prop(name: &str, mut f: impl FnMut(&mut SmallRng)) {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x9E4E_u64 ^ (seed * 0x9E37_79B9));
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

/// A budget the raw references never hit — the differential corpus is
/// sized so the *reference* side stays affordable, not the generator.
fn huge() -> CheckBudget {
    CheckBudget::new(u64::MAX)
}

/// One unbounded sequential solver check: the witness and the run's
/// candidate counters, read from the verdict.
fn solve(concept: Concept, state: &GameState) -> (Option<Move>, CandidateStats) {
    let verdict = Solver::default()
        .check(&StabilityQuery::on(concept, state))
        .unwrap();
    (verdict.witness().cloned(), *verdict.stats())
}

/// Drains a budgeted query to a conclusive verdict through resume
/// frontiers.
fn resolve_with_resume(solver: &Solver, concept: Concept, state: &GameState) -> Option<Move> {
    let mut query = StabilityQuery::on(concept, state);
    let mut rounds = 0u32;
    loop {
        match solver.check(&query).unwrap() {
            Verdict::Stable { .. } => return None,
            Verdict::Unstable { witness, .. } => return Some(witness),
            Verdict::Exhausted { frontier, .. } => {
                query = StabilityQuery::on(concept, state).resume(frontier);
                rounds += 1;
                assert!(rounds < 1_000_000, "resume loop failed to terminate");
            }
        }
    }
}

/// The dense leg is the generated scan with its kills off, so on a
/// stable instance its counters must also add up against the raw
/// reference: every one of the n·(2^{n−1} − 1) raw candidates is priced
/// or pruned, and every position of the partner-filtered space is
/// visited as a leaf.
fn assert_dense_leg_counts_the_raw_space(state: &GameState, dstats: &CandidateStats) {
    let n = state.n() as u64;
    assert_eq!(
        dstats.evaluated + dstats.pruned,
        dstats.generated,
        "dense counters must partition the space"
    );
    assert_eq!(
        dstats.generated,
        n * ((1u64 << (n - 1)) - 1),
        "dense leg generated other than the raw reference's candidates"
    );
    let pruner = NeighborhoodPruner::new(state);
    let leaves: u64 = (0..n as u32)
        .map(|u| {
            let (partners, _) = pruner.filtered_partners(state, u);
            (1u64 << (state.graph().degree(u) + partners.len())) - 1
        })
        .sum();
    assert_eq!(dstats.visited, leaves, "dense leg skipped a leaf");
}

/// Differential law 1 + 2 for BNE: generator ≡ raw reference ≡ the
/// same scan with its subtree kills disabled, witness *and* work
/// accounting.
#[test]
fn generated_bne_scan_matches_reference_and_dense_loop_exactly() {
    prop("bne generator ≡ reference ≡ dense", |rng| {
        let g = random_instance(12, rng);
        for alpha in alpha_grid(g.n()) {
            let state = GameState::new(g.clone(), alpha);
            let reference = concepts::bne::find_violation_in_reference(&state, huge()).unwrap();
            let (generated, gstats) = solve(Concept::Bne, &state);
            let (dense, dstats) = concepts::bne::find_violation_in_dense(&state, huge()).unwrap();
            assert_eq!(
                generated, reference,
                "generator witness diverged from the raw reference at α = {alpha}"
            );
            assert_eq!(
                generated, dense,
                "generator witness diverged from the dense leg at α = {alpha}"
            );
            assert_eq!(
                gstats.evaluated, dstats.evaluated,
                "generator priced different candidates than the dense leg at α = {alpha}"
            );
            assert_eq!(gstats.generated, dstats.generated, "raw-space accounting");
            assert_eq!(
                gstats.pruned, dstats.pruned,
                "skip accounting at α = {alpha}"
            );
            assert!(
                gstats.visited <= dstats.generated + 1,
                "generator took more steps than the raw space has masks"
            );
            if reference.is_none() {
                assert_dense_leg_counts_the_raw_space(&state, &dstats);
            }
            if let Some(mv) = generated {
                assert!(delta::move_improves_all(&g, alpha, &mv).unwrap());
            }
        }
    });
    // Pinned stable instances, so the raw-space identity is exercised on
    // trees, cycles and cliques whatever the seeded corpus draws.
    for (g, alpha) in [
        (generators::star(10), 2),
        (generators::star(16), 4),
        (generators::cycle(8), 12),
        (generators::cycle(10), 20),
        (generators::clique(7), 1),
    ] {
        let state = GameState::new(g, Alpha::integer(alpha).unwrap());
        let (dense, dstats) = concepts::bne::find_violation_in_dense(&state, huge()).unwrap();
        assert_eq!(dense, None, "pinned instance must be BNE-stable");
        assert_eq!(
            concepts::bne::find_violation_in_reference(&state, huge()).unwrap(),
            None
        );
        let (_, gstats) = solve(Concept::Bne, &state);
        assert_eq!(
            (gstats.evaluated, gstats.generated, gstats.pruned),
            (dstats.evaluated, dstats.generated, dstats.pruned)
        );
        assert_dense_leg_counts_the_raw_space(&state, &dstats);
    }
}

/// Differential law 1 for k-BSE (verdicts — the coalition scan reorders
/// candidates across coalitions) and BSE (witnesses — order is shared).
#[test]
fn generated_coalition_scans_match_their_references() {
    prop("kbse/bse generator ≡ reference", |rng| {
        let g = random_instance(7, rng);
        for alpha in alpha_grid(g.n()) {
            let state = GameState::new(g.clone(), alpha);
            for k in [2u32, 3] {
                let (generated, _) = solve(Concept::KBse(k), &state);
                let reference =
                    concepts::kbse::find_violation_in_reference(&state, k as usize, huge())
                        .unwrap();
                assert_eq!(
                    generated.is_some(),
                    reference.is_some(),
                    "{k}-BSE verdict diverged at α = {alpha}"
                );
                if let Some(mv) = generated {
                    assert!(delta::move_improves_all(&g, alpha, &mv).unwrap());
                }
            }
        }
        let g = random_instance(6, rng);
        for alpha in alpha_grid(g.n()) {
            let state = GameState::new(g.clone(), alpha);
            let (generated, _) = solve(Concept::Bse, &state);
            let reference = concepts::bse::find_violation_in_reference(&state, huge()).unwrap();
            assert_eq!(generated, reference, "BSE witness diverged at α = {alpha}");
        }
    });
}

/// Differential law 3: generator-resumed chains under adversarial
/// 1-eval budgets equal the uninterrupted generator scans — for every
/// exponential concept, sequential and sharded.
#[test]
fn generator_resumed_chains_equal_uninterrupted_scans() {
    prop("resume chains under 1-eval budgets", |rng| {
        let concepts_grid = [
            (Concept::Bne, 10usize),
            (Concept::KBse(2), 7),
            (Concept::Bse, 5),
        ];
        for (concept, max_n) in concepts_grid {
            let g = random_instance(max_n, rng);
            for alpha in alpha_grid(g.n()) {
                let state = GameState::new(g.clone(), alpha);
                let uninterrupted = Solver::default()
                    .check(&StabilityQuery::on(concept, &state))
                    .unwrap();
                for threads in [1usize, 2] {
                    let adversarial = Solver::new(
                        ExecPolicy::default()
                            .with_eval_budget(1)
                            .with_threads(threads),
                    );
                    let resolved = resolve_with_resume(&adversarial, concept, &state);
                    assert_eq!(
                        resolved,
                        uninterrupted.witness().cloned(),
                        "chain diverged under {concept}, α = {alpha}, {threads} threads"
                    );
                }
            }
        }
    });
}

/// The scale headline: pinned n = 24 instances complete **exactly**
/// under a finite eval budget — the dense loops could not even iterate
/// their 24·2²³ surviving masks inside it, and the legacy raw-space
/// guard refused them outright at any n > 21. The instance set is the
/// one definition `table1` and `ci_gate` also use.
#[test]
fn exact_bne_completes_on_pinned_n24_instances_under_a_finite_budget() {
    let alpha2 = Alpha::integer(2).unwrap();
    let solver = Solver::new(ExecPolicy::default().with_eval_budget(2_000_000));
    for (name, g, alpha, stable) in &bncg::analysis::table1::bne_n24_instances() {
        let verdict = solver
            .check(&StabilityQuery::new(Concept::Bne, g, *alpha))
            .unwrap();
        match verdict.is_stable() {
            Some(s) => assert_eq!(s, *stable, "{name} verdict"),
            None => panic!("{name} exhausted a 2M-eval budget instead of completing"),
        }
        if let Some(mv) = verdict.witness() {
            assert!(delta::move_improves_all(g, *alpha, mv).unwrap());
        }
    }
    // The convenience entry point (previously hard-refused past n = 21)
    // carries the same result.
    assert!(Concept::Bne
        .is_stable(&generators::star(24), alpha2)
        .unwrap());
}

/// The raw 3-BSE reference confirms the pruned scan's stable verdict on
/// star16 at α = 2: the one pinned n = 16 coalition scan whose raw space
/// (~7.4·10⁶ candidates) the reference can still afford.
#[test]
fn star16_3bse_reference_confirms_the_stable_verdict() {
    let state = GameState::new(generators::star(16), Alpha::integer(2).unwrap());
    assert_eq!(solve(Concept::KBse(3), &state).0, None);
    let reference = concepts::kbse::find_violation_in_reference(&state, 3, huge()).unwrap();
    assert_eq!(reference, None);
}

/// The enumeration-boundedness fix, measured: on the pinned star16
/// kernel the generator touches ≤ 1% of the raw mask space (the dense
/// loop touched 100% of the surviving space) while pricing nothing.
#[test]
fn generator_touches_a_vanishing_fraction_of_the_star16_space() {
    let state = GameState::new(generators::star(16), Alpha::integer(2).unwrap());
    let (mv, stats) = solve(Concept::Bne, &state);
    assert!(mv.is_none());
    assert_eq!(stats.evaluated, 0, "the star scan is fully pruned");
    assert_eq!(stats.skipped(), stats.generated);
    assert!(
        stats.visited * 100 <= stats.generated,
        "generator visited {} steps of a {}-mask raw space (> 1%)",
        stats.visited,
        stats.generated
    );
}

/// Golden-witness regression (the lexicographic-order contract): the
/// generator reproduces the (concept, instance, witness) triples the
/// PR 4 dense scans produced at n = 16 for the bench families,
/// bit-for-bit.
#[test]
fn generator_reproduces_the_pinned_golden_witnesses() {
    let corpus = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/witnesses_n16.jsonl"
    ))
    .expect("golden corpus present");
    let solver = Solver::default();
    let mut checked = 0usize;
    for line in corpus.lines().filter(|l| !l.trim().is_empty()) {
        let field = |key: &str| {
            jsonio::str_field(line, key)
                .unwrap_or_else(|| panic!("golden line missing {key:?}: {line}"))
        };
        let concept: Concept = field("concept").parse().unwrap();
        let alpha: Alpha = field("alpha").parse().unwrap();
        let g = graph6::decode(field("graph6")).unwrap();
        assert_eq!(g.n(), 16, "golden corpus is the n = 16 bench families");
        let verdict = solver
            .check(&StabilityQuery::new(concept, &g, alpha))
            .unwrap();
        let got = verdict
            .witness()
            .map(ToString::to_string)
            .unwrap_or_default();
        assert_eq!(
            got,
            field("witness"),
            "{concept} witness drifted on {} (α = {alpha})",
            field("family")
        );
        if let Some(mv) = verdict.witness() {
            assert!(delta::move_improves_all(&g, alpha, mv).unwrap());
        }
        checked += 1;
    }
    assert_eq!(checked, 9, "golden corpus must stay complete");
}
