//! Property-based tests on the reproduction's core invariants: the engine
//! and the generic recomputation agree, canonical forms are isomorphism
//! invariants, costs obey the model's algebra, and checkers' witnesses
//! always replay.
//!
//! The build container is offline, so instead of the `proptest` crate this
//! file drives a small seeded-case harness: every property runs over a
//! fixed number of pseudo-random cases drawn from the workspace RNG, which
//! keeps failures reproducible from the printed seed.

use bncg::core::{agent_cost, delta, optimum_cost, social_cost, Alpha, Concept, GameState, Move};
use bncg::graph::{generators, graph6, iso, DistanceMatrix, Graph};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 64;

/// Runs `f` on `CASES` independently seeded RNGs, naming the seed on panic.
fn prop(name: &str, mut f: impl FnMut(&mut SmallRng)) {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xB11C_u64 ^ (seed * 0x9E37_79B9));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut rng)));
        assert!(result.is_ok(), "property `{name}` failed at seed {seed}");
    }
}

/// A random labeled tree on 3..=max_n nodes.
fn random_tree(max_n: usize, rng: &mut SmallRng) -> Graph {
    let n = rng.gen_range(3..=max_n);
    generators::random_tree(n, rng)
}

/// A random connected graph: tree plus some extra edges.
fn random_connected(max_n: usize, rng: &mut SmallRng) -> Graph {
    let n = rng.gen_range(3..=max_n);
    generators::random_connected(n, 0.25, rng)
}

/// A random positive rational price.
fn random_alpha(rng: &mut SmallRng) -> Alpha {
    Alpha::from_ratio(rng.gen_range(1..=400i64), rng.gen_range(1..=4i64)).expect("positive")
}

/// A random valid move of any of the five kinds, or `None` when the graph
/// offers no candidate of the drawn kind.
fn random_move(g: &Graph, rng: &mut SmallRng) -> Option<Move> {
    let n = g.n() as u32;
    let edges: Vec<(u32, u32)> = g.edges().collect();
    let non_edges: Vec<(u32, u32)> = g.non_edges().collect();
    match rng.gen_range(0..5u32) {
        0 => {
            let &(u, v) = pick(&edges, rng)?;
            let (agent, target) = if rng.gen_bool(0.5) { (u, v) } else { (v, u) };
            Some(Move::Remove { agent, target })
        }
        1 => {
            let &(u, v) = pick(&non_edges, rng)?;
            Some(Move::BilateralAdd { u, v })
        }
        2 => {
            let &(agent, old) = pick(&edges, rng)?;
            let candidates: Vec<u32> = (0..n)
                .filter(|&w| w != agent && !g.has_edge(agent, w))
                .collect();
            let &new = pick(&candidates, rng)?;
            Some(Move::Swap { agent, old, new })
        }
        3 => {
            let center = rng.gen_range(0..n);
            let mut remove: Vec<u32> = g
                .neighbors(center)
                .iter()
                .copied()
                .filter(|_| rng.gen_bool(0.4))
                .collect();
            let add: Vec<u32> = (0..n)
                .filter(|&w| w != center && !g.has_edge(center, w) && rng.gen_bool(0.3))
                .collect();
            if remove.is_empty() && add.is_empty() {
                remove = g.neighbors(center).first().copied().into_iter().collect();
            }
            if remove.is_empty() && add.is_empty() {
                return None;
            }
            Some(Move::Neighborhood {
                center,
                remove,
                add,
            })
        }
        _ => {
            let mut members: Vec<u32> = (0..n).filter(|_| rng.gen_bool(0.4)).collect();
            if members.len() < 2 {
                members = vec![0, n - 1];
            }
            let in_coalition = |x: u32| members.contains(&x);
            let remove_edges: Vec<(u32, u32)> = edges
                .iter()
                .copied()
                .filter(|&(u, v)| (in_coalition(u) || in_coalition(v)) && rng.gen_bool(0.3))
                .collect();
            let add_edges: Vec<(u32, u32)> = non_edges
                .iter()
                .copied()
                .filter(|&(u, v)| in_coalition(u) && in_coalition(v) && rng.gen_bool(0.3))
                .collect();
            if remove_edges.is_empty() && add_edges.is_empty() {
                return None;
            }
            Some(Move::Coalition {
                members,
                remove_edges,
                add_edges,
            })
        }
    }
}

fn pick<'a, T>(items: &'a [T], rng: &mut SmallRng) -> Option<&'a T> {
    if items.is_empty() {
        None
    } else {
        items.get(rng.gen_range(0..items.len()))
    }
}

/// ISSUE property 1: `GameState::evaluate_move` equals a from-scratch
/// `agent_cost` recomputation on the mutated graph, for random graphs and
/// random moves of every kind.
#[test]
fn evaluate_move_matches_scratch_recomputation() {
    prop("evaluate_move_matches_scratch", |rng| {
        let g = if rng.gen_bool(0.3) {
            random_tree(10, rng)
        } else {
            random_connected(10, rng)
        };
        let alpha = random_alpha(rng);
        let state = GameState::new(g.clone(), alpha);
        let mut ev = state.evaluator();
        for _ in 0..8 {
            let Some(mv) = random_move(&g, rng) else {
                continue;
            };
            let delta = ev.evaluate(&mv).expect("generated moves are valid");
            let g2 = mv.apply(&g).expect("generated moves are valid");
            for d in &delta.agents {
                assert_eq!(d.before, agent_cost(&g, d.agent), "stale before on {mv}");
                assert_eq!(d.after, agent_cost(&g2, d.agent), "wrong after on {mv}");
            }
            assert_eq!(
                delta.improving_all,
                delta::move_improves_all(&g, alpha, &mv).unwrap(),
                "predicate mismatch on {mv}"
            );
        }
    });
}

/// ISSUE property 2: `DistanceMatrix::apply_edge_toggle` equals
/// `DistanceMatrix::new` on the mutated graph, through long toggle chains
/// (including disconnections and reconnections).
#[test]
fn apply_edge_toggle_matches_rebuild() {
    prop("apply_edge_toggle_matches_rebuild", |rng| {
        let n = rng.gen_range(2..=12usize);
        let mut g = generators::gnp(n, 0.3, rng);
        let mut d = DistanceMatrix::new(&g);
        for _ in 0..15 {
            let u = rng.gen_range(0..n as u32);
            let v = rng.gen_range(0..n as u32);
            if u == v {
                continue;
            }
            g.toggle_edge(u, v).unwrap();
            d.apply_edge_toggle(&g, u, v);
            assert_eq!(d, DistanceMatrix::new(&g), "matrix drift at {{{u}, {v}}}");
        }
    });
}

/// Applying random moves through `GameState::apply_move` never lets the
/// caches drift from a from-scratch recomputation.
#[test]
fn game_state_caches_never_drift() {
    prop("game_state_caches_never_drift", |rng| {
        let g = random_connected(9, rng);
        let mut state = GameState::new(g, random_alpha(rng));
        for _ in 0..10 {
            let Some(mv) = random_move(&state.graph().clone(), rng) else {
                continue;
            };
            state.apply_move(&mv).expect("generated moves are valid");
            assert_eq!(*state.distances(), DistanceMatrix::new(state.graph()));
            for u in 0..state.n() as u32 {
                assert_eq!(state.cost(u), agent_cost(state.graph(), u));
            }
            assert_eq!(state.is_tree(), state.graph().is_tree());
        }
    });
}

#[test]
fn fast_add_engine_matches_generic() {
    prop("fast_add_engine_matches_generic", |rng| {
        let g = random_connected(12, rng);
        let alpha = random_alpha(rng);
        let d = DistanceMatrix::new(&g);
        for (u, v) in g.non_edges().take(20) {
            let fast = delta::cost_after_add(&g, &d, u, v);
            let g2 = Move::BilateralAdd { u, v }.apply(&g).unwrap();
            assert_eq!(fast, agent_cost(&g2, u));
            let old = agent_cost(&g, u);
            assert_eq!(
                fast.better_than(&old, alpha),
                agent_cost(&g2, u).better_than(&old, alpha)
            );
        }
    });
}

#[test]
fn tree_swap_engine_matches_generic() {
    prop("tree_swap_engine_matches_generic", |rng| {
        let g = random_tree(12, rng);
        let d = DistanceMatrix::new(&g);
        let tree = delta::TreeSummary::new(&g).unwrap();
        let mut pricer = delta::TreeSwapPricer::new(&g, &tree);
        for agent in 0..g.n() as u32 {
            for &old in g.neighbors(agent) {
                for new in 0..g.n() as u32 {
                    if new == agent || g.has_edge(agent, new) {
                        continue;
                    }
                    let mv = Move::Swap { agent, old, new };
                    let g2 = mv.apply(&g).unwrap();
                    let costs = delta::tree_swap_costs(&g, &d, agent, old, new);
                    // The `O(1)` pricer is a third side of the same swap.
                    assert_eq!(pricer.swap_costs(agent, old, new), costs);
                    match costs {
                        Some((ca, cn)) => {
                            assert_eq!(ca, agent_cost(&g2, agent));
                            assert_eq!(cn, agent_cost(&g2, new));
                        }
                        None => assert!(agent_cost(&g2, agent).unreachable > 0),
                    }
                }
            }
        }
    });
}

#[test]
fn canonical_tree_encoding_is_invariant() {
    prop("canonical_tree_encoding_is_invariant", |rng| {
        let g = random_tree(12, rng);
        let perm = generators::random_permutation(g.n(), rng);
        let h = g.relabeled(&perm);
        assert_eq!(
            iso::canonical_tree_encoding(&g),
            iso::canonical_tree_encoding(&h)
        );
        assert!(iso::are_isomorphic(&g, &h));
    });
}

#[test]
fn graph6_roundtrips() {
    prop("graph6_roundtrips", |rng| {
        let g = random_connected(14, rng);
        let enc = graph6::encode(&g).unwrap();
        assert_eq!(graph6::decode(&enc).unwrap(), g);
    });
}

#[test]
fn social_optimum_formula_is_a_true_minimum() {
    prop("social_optimum_formula_is_a_true_minimum", |rng| {
        let g = random_connected(9, rng);
        let alpha = random_alpha(rng);
        let cost = social_cost(&g, alpha).unwrap();
        assert!(cost >= optimum_cost(g.n(), alpha));
    });
}

#[test]
fn checker_witnesses_always_replay() {
    prop("checker_witnesses_always_replay", |rng| {
        let g = random_connected(8, rng);
        let alpha = random_alpha(rng);
        for concept in [
            Concept::Re,
            Concept::Bae,
            Concept::Ps,
            Concept::Bswe,
            Concept::Bge,
        ] {
            if let Some(mv) = concept.find_violation(&g, alpha).unwrap() {
                assert!(
                    delta::move_improves_all(&g, alpha, &mv).unwrap(),
                    "non-improving witness from {concept} on {g:?}"
                );
            }
        }
    });
}

#[test]
fn lattice_subsets_hold_on_random_instances() {
    prop("lattice_subsets_hold_on_random_instances", |rng| {
        let g = random_connected(7, rng);
        let alpha = random_alpha(rng);
        // One state serves every checker of the ladder.
        let state = GameState::new(g.clone(), alpha);
        let ps = Concept::Ps.find_violation_in(&state).unwrap().is_none();
        let re = Concept::Re.find_violation_in(&state).unwrap().is_none();
        let bae = Concept::Bae.find_violation_in(&state).unwrap().is_none();
        let bge = Concept::Bge.find_violation_in(&state).unwrap().is_none();
        let bswe = Concept::Bswe.find_violation_in(&state).unwrap().is_none();
        assert_eq!(ps, re && bae);
        assert_eq!(bge, ps && bswe);
        if Concept::Bne.is_stable_in(&state).unwrap() {
            assert!(bge && bae);
        }
        if Concept::KBse(3).is_stable_in(&state).unwrap() {
            assert!(Concept::KBse(2).is_stable_in(&state).unwrap());
        }
        if Concept::KBse(2).is_stable_in(&state).unwrap() {
            assert!(bge);
        }
    });
}

#[test]
fn removing_then_adding_is_identity() {
    prop("removing_then_adding_is_identity", |rng| {
        let g = random_tree(10, rng);
        let (u, v) = g.edges().next().unwrap();
        let removed = Move::Remove {
            agent: u,
            target: v,
        }
        .apply(&g)
        .unwrap();
        let restored = Move::BilateralAdd { u, v }.apply(&removed).unwrap();
        assert_eq!(restored, g);
    });
}

#[test]
fn tree_cost_identities() {
    prop("tree_cost_identities", |rng| {
        let g = random_tree(14, rng);
        let alpha = random_alpha(rng);
        let t = bncg::graph::RootedTree::new(&g, 0).unwrap();
        let total: u64 = t.dist_sums().iter().sum();
        let d = DistanceMatrix::new(&g);
        assert_eq!(total, d.total_distance().unwrap());
        let cost = social_cost(&g, alpha).unwrap();
        let expected_num = i128::from(alpha.num()) * (2 * g.m() as i128)
            + i128::from(alpha.den()) * i128::from(total);
        assert_eq!(
            cost,
            bncg::core::Ratio::new(expected_num, i128::from(alpha.den()))
        );
    });
}

#[test]
fn graph6_decode_never_panics() {
    prop("graph6_decode_never_panics", |rng| {
        let len = rng.gen_range(0..40usize);
        let bytes: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=255u32) as u8).collect();
        if let Ok(s) = std::str::from_utf8(&bytes) {
            let _ = graph6::decode(s);
        }
    });
}

#[test]
fn alpha_ordering_is_total_and_consistent() {
    prop("alpha_ordering_is_total_and_consistent", |rng| {
        let x = Alpha::from_ratio(rng.gen_range(1..10_000i64), rng.gen_range(1..100i64)).unwrap();
        let y = Alpha::from_ratio(rng.gen_range(1..10_000i64), rng.gen_range(1..100i64)).unwrap();
        let lhs = i128::from(x.num()) * i128::from(y.den());
        let rhs = i128::from(y.num()) * i128::from(x.den());
        assert_eq!(x.cmp(&y), lhs.cmp(&rhs));
        let reparsed: Alpha = x.to_string().parse().unwrap();
        assert_eq!(x, reparsed);
        assert!(x.cost_key(2, 10) > x.cost_key(1, 10));
        assert!(x.cost_key(1, 11) > x.cost_key(1, 10));
    });
}

#[test]
fn bilateral_re_iff_unilateral_re_for_all_assignments() {
    prop("bilateral_re_iff_unilateral_re", |rng| {
        let g = random_connected(6, rng);
        let alpha = random_alpha(rng);
        let bilateral = Concept::Re.is_stable(&g, alpha).unwrap();
        let unilateral_all = bncg::core::unilateral::UnilateralState::all_assignments(&g)
            .unwrap()
            .iter()
            .all(|s| s.is_remove_stable(alpha));
        assert_eq!(bilateral, unilateral_all);
    });
}

#[test]
fn bridges_never_yield_re_violations() {
    prop("bridges_never_yield_re_violations", |rng| {
        let g = random_connected(10, rng);
        let alpha = random_alpha(rng);
        for (u, v) in bncg::graph::connectivity::analyze(&g).bridges {
            for (agent, target) in [(u, v), (v, u)] {
                let mv = Move::Remove { agent, target };
                assert!(!delta::move_improves_all(&g, alpha, &mv).unwrap());
            }
        }
    });
}

#[test]
fn one_median_minimizes_and_splits() {
    prop("one_median_minimizes_and_splits", |rng| {
        let g = random_tree(14, rng);
        let medians = bncg::graph::tree_medians(&g).unwrap();
        let t = bncg::graph::RootedTree::new(&g, 0).unwrap();
        let sums = t.dist_sums();
        let min = *sums.iter().min().unwrap();
        for &m in &medians {
            assert_eq!(sums[m as usize], min);
            let rooted = bncg::graph::RootedTree::new(&g, m).unwrap();
            for &c in rooted.children(m) {
                assert!(rooted.subtree_size(c) as usize * 2 <= g.n());
            }
        }
    });
}
