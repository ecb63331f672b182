//! Property tests for the candidate-pruning layer (PR 2): every pruned
//! checker must be **exactness-preserving** against the raw `*_reference`
//! enumeration it replaced — same stability verdict on every instance,
//! and (where the scans share enumeration order: BNE, BSE) the *same
//! first violation*, which makes the first-violation cost delta equal by
//! construction. The k-BSE scan reorders candidates across coalitions, so
//! there the verdict is compared and both witnesses must replay as
//! strictly improving moves of ≤ k members.
//!
//! Seeded-case harness as in `proptests.rs` (the container is offline, so
//! no `proptest` crate): failures reproduce from the printed seed.

use bncg::core::solver::{ExecPolicy, Solver, StabilityQuery};
use bncg::core::{concepts, delta, Alpha, CheckBudget, Concept, GameState, Move};
use bncg::graph::generators;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 24;

fn prop(name: &str, mut f: impl FnMut(&mut SmallRng)) {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x9121_u64 ^ (seed * 0x9E37_79B9));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut rng)));
        assert!(result.is_ok(), "property `{name}` failed at seed {seed}");
    }
}

/// The unbounded solver's witness for `concept` on `state` under
/// `threads` scan workers — the pruned path every reference scan is
/// compared against.
fn solve(concept: Concept, state: &GameState, threads: usize) -> Option<Move> {
    Solver::new(ExecPolicy::default().with_threads(threads))
        .check(&StabilityQuery::on(concept, state))
        .and_then(|verdict| verdict.into_violation())
        .expect("unbounded solver checks complete")
}

/// The α grid: below 1, above 1, and at the scale of n.
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

#[test]
fn bne_pruned_equals_unpruned_with_identical_witness() {
    let budget = CheckBudget::default();
    prop("bne pruned == unpruned", |rng| {
        let g = random_instance(14, rng);
        for alpha in alpha_grid(g.n()) {
            let state = GameState::new(g.clone(), alpha);
            let pruned = solve(Concept::Bne, &state, 1);
            let raw = concepts::bne::find_violation_in_reference(&state, budget).unwrap();
            // Shared enumeration order + sound filters ⇒ identical first
            // violation, hence identical first-violation cost delta.
            assert_eq!(pruned, raw, "BNE witness diverged at α = {alpha}");
            if let Some(mv) = pruned {
                assert!(delta::move_improves_all(&g, alpha, &mv).unwrap());
            }
        }
    });
}

#[test]
fn bse_pruned_equals_unpruned_with_identical_witness() {
    let budget = CheckBudget::default();
    prop("bse pruned == unpruned", |rng| {
        let g = random_instance(6, rng);
        for alpha in alpha_grid(g.n()) {
            let state = GameState::new(g.clone(), alpha);
            let pruned = solve(Concept::Bse, &state, 1);
            let raw = concepts::bse::find_violation_in_reference(&state, budget).unwrap();
            assert_eq!(pruned, raw, "BSE witness diverged at α = {alpha}");
            if let Some(mv) = pruned {
                assert!(delta::move_improves_all(&g, alpha, &mv).unwrap());
            }
        }
    });
}

#[test]
fn kbse_pruned_equals_unpruned_verdict_and_both_witnesses_replay() {
    let budget = CheckBudget::default();
    prop("kbse pruned == unpruned", |rng| {
        let g = random_instance(8, rng);
        for alpha in alpha_grid(g.n()) {
            let state = GameState::new(g.clone(), alpha);
            for k in [2usize, 3] {
                let pruned = solve(Concept::KBse(k as u32), &state, 1);
                let raw = concepts::kbse::find_violation_in_reference(&state, k, budget).unwrap();
                assert_eq!(
                    pruned.is_some(),
                    raw.is_some(),
                    "k-BSE verdict diverged at α = {alpha}, k = {k}"
                );
                for mv in [&pruned, &raw].into_iter().flatten() {
                    assert!(
                        delta::move_improves_all(&g, alpha, mv).unwrap(),
                        "witness {mv} does not replay"
                    );
                    if let Move::Coalition { members, .. } = mv {
                        assert!(members.len() <= k, "coalition exceeds k");
                    }
                }
            }
        }
    });
}

#[test]
fn parallel_scans_match_sequential_witnesses() {
    prop("parallel == sequential", |rng| {
        let g = random_instance(8, rng);
        let alpha = Alpha::integer(2).unwrap();
        let state = GameState::new(g.clone(), alpha);
        let bne = solve(Concept::Bne, &state, 1);
        let kbse = solve(Concept::KBse(3), &state, 1);
        for threads in [2usize, 3] {
            assert_eq!(bne, solve(Concept::Bne, &state, threads));
            assert_eq!(kbse, solve(Concept::KBse(3), &state, threads));
        }
        if g.n() <= 6 {
            let bse = solve(Concept::Bse, &state, 1);
            assert_eq!(bse, solve(Concept::Bse, &state, 4));
        }
    });
}

#[test]
fn restricted_kbse_serial_and_parallel_share_one_iterator() {
    prop("restricted serial == parallel", |rng| {
        let g = random_instance(9, rng);
        for alpha in alpha_grid(g.n()) {
            let serial = concepts::kbse::find_violation_restricted(&g, alpha, 2, 2, 1).unwrap();
            for threads in [2usize, 4] {
                let parallel =
                    concepts::kbse::find_violation_restricted(&g, alpha, 2, 2, threads).unwrap();
                assert_eq!(
                    serial, parallel,
                    "restricted witness diverged at α = {alpha}"
                );
            }
            if let Some(mv) = &serial {
                assert!(delta::move_improves_all(&g, alpha, mv).unwrap());
            }
        }
    });
}

/// The inequality-6 caps fed to the restricted refuter are
/// exactness-preserving: wherever the restricted and unrestricted paths
/// both apply, they agree. With a non-binding removal cap the restricted
/// scan covers the full space, so its verdict must equal the exact
/// checker's; with a binding cap it scans a subspace, so exact-stable
/// forces restricted-none, an exact witness inside the cap forces a
/// restricted find, and every restricted witness replays.
#[test]
fn restricted_caps_agree_with_the_unrestricted_path_where_both_apply() {
    prop("restricted ineq-6 caps are exact", |rng| {
        let g = random_instance(7, rng);
        for alpha in alpha_grid(g.n()) {
            for k in [2usize, 3] {
                let exact = Concept::KBse(k as u32).find_violation(&g, alpha).unwrap();
                // Non-binding cap: the restricted space is the full
                // space, so the verdicts must coincide.
                let unrestricted =
                    concepts::kbse::find_violation_restricted(&g, alpha, k, g.m(), 1).unwrap();
                assert_eq!(
                    exact.is_some(),
                    unrestricted.is_some(),
                    "unbound restricted scan diverged at α = {alpha}, k = {k}"
                );
                // Binding cap: one-sided agreement on the shared space.
                let capped = concepts::kbse::find_violation_restricted(&g, alpha, k, 1, 1).unwrap();
                match &exact {
                    None => assert!(
                        capped.is_none(),
                        "restricted refuted a stable instance at α = {alpha}, k = {k}"
                    ),
                    Some(Move::Coalition { remove_edges, .. }) if remove_edges.len() <= 1 => {
                        assert!(
                            capped.is_some(),
                            "exact witness lies inside the cap but the capped \
                             scan missed it at α = {alpha}, k = {k}"
                        );
                    }
                    Some(_) => {}
                }
                if let Some(mv) = capped {
                    assert!(delta::move_improves_all(&g, alpha, &mv).unwrap());
                }
            }
        }
    });
}

/// The pruned best response must still find the *optimal* feasible move:
/// cross-check against a from-scratch unpruned enumeration in the
/// scan's documented addition-mask-major order, so ties (distinct moves
/// with equal cost keys) resolve to the identical `(edges, dist)` pair
/// the metered scan commits to.
#[test]
fn best_response_pruning_preserves_the_optimum() {
    use bncg::core::{agent_cost, best_response, AgentCost};
    prop("best response optimal", |rng| {
        let g = random_instance(8, rng);
        let n = g.n() as u32;
        for alpha in alpha_grid(g.n()) {
            for u in 0..n {
                let br = best_response(&g, alpha, u).unwrap();
                // Naive scan: every (addition set, removal set) pair.
                let neighbors: Vec<u32> = g.neighbors(u).to_vec();
                let others: Vec<u32> = (0..n).filter(|&v| v != u && !g.has_edge(u, v)).collect();
                let old: Vec<AgentCost> = (0..n).map(|w| agent_cost(&g, w)).collect();
                let mut best: AgentCost = old[u as usize];
                for add_mask in 0u64..1 << others.len() {
                    for rem_mask in 0u64..1 << neighbors.len() {
                        if rem_mask == 0 && add_mask == 0 {
                            continue;
                        }
                        let remove: Vec<u32> = neighbors
                            .iter()
                            .enumerate()
                            .filter(|(i, _)| rem_mask >> i & 1 == 1)
                            .map(|(_, &v)| v)
                            .collect();
                        let add: Vec<u32> = others
                            .iter()
                            .enumerate()
                            .filter(|(i, _)| add_mask >> i & 1 == 1)
                            .map(|(_, &v)| v)
                            .collect();
                        let mv = Move::Neighborhood {
                            center: u,
                            remove,
                            add: add.clone(),
                        };
                        let g2 = mv.apply(&g).unwrap();
                        let mine = agent_cost(&g2, u);
                        let feasible = mine.better_than(&best, alpha)
                            && add
                                .iter()
                                .all(|&a| agent_cost(&g2, a).better_than(&old[a as usize], alpha));
                        if feasible {
                            best = mine;
                        }
                    }
                }
                assert_eq!(br.cost, best, "pruned best response is suboptimal for {u}");
            }
        }
    });
}
