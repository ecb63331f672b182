//! The single-edge concepts RE, BAE, PS, BSwE and BGE (Section 1.1):
//! stability against one edge removal, one bilateral addition (both
//! endpoints pay `α`), or one swap (agent `u` replaces its neighbor `v`
//! by a consenting `w`; `u`'s buying cost is unchanged, `w` pays for one
//! new edge, `v` is not asked). PS is RE ∩ BAE and BGE is PS ∩ BSwE.
//!
//! Their move space and its scan order are written once; [`moves`] lists
//! it. The checker behind [`Concept::find_violation`] returns the first
//! move in that order that strictly improves every consenting agent,
//! pricing it with one pricer chosen per state:
//!
//! * on a tree under the default cost model, from the state's `O(n)`
//!   tree summary with no distance matrix: an addition `{u, v}` in
//!   `O(d(u, v))` ([`TreeSummary::add_costs`](crate::delta::TreeSummary::add_costs)),
//!   a swap in `O(1)` from one `O(n)` distance row per agent
//!   ([`TreeSwapPricer`]);
//! * on any other default-model state, an addition in `O(n)` over the
//!   distance matrix ([`cost_after_add`]), `O(n³)` in all;
//! * everything else (non-default models, removals, swaps off trees)
//!   through the state's evaluator, which BFS-es only the consenting
//!   agents.
//!
//! Removals are never priced on a tree, nor anywhere for a bridge: they
//! disconnect the remover, which is lexicographically worse at any α.
//! By Proposition A.2 RE coincides with the Pure Nash Equilibrium, and
//! on trees BGE coincides with 2-BSE (Proposition 3.7).
//!
//! # Examples
//!
//! RE: a clique at high α sheds edges; any tree is in RE.
//!
//! ```
//! use bncg_core::{Alpha, Concept, Move};
//! use bncg_graph::generators;
//!
//! let alpha = Alpha::integer(10)?;
//! let clique = generators::clique(4);
//! assert!(matches!(Concept::Re.find_violation(&clique, alpha)?, Some(Move::Remove { .. })));
//! assert!(Concept::Re.find_violation(&generators::path(6), alpha)?.is_none());
//! # Ok::<(), bncg_core::GameError>(())
//! ```
//!
//! BAE at α = 1: the ends of a long path link up; the star is in BAE, as
//! a leaf-leaf edge saves only distance 1 < α + ε.
//!
//! ```
//! use bncg_core::{Alpha, Concept};
//! use bncg_graph::generators;
//!
//! let alpha = Alpha::integer(1)?;
//! assert!(Concept::Bae.find_violation(&generators::path(6), alpha)?.is_some());
//! assert!(Concept::Bae.find_violation(&generators::star(6), alpha)?.is_none());
//! # Ok::<(), bncg_core::GameError>(())
//! ```
//!
//! PS: a cycle is pairwise stable in the Θ(n²) window of Lemma 2.4.
//!
//! ```
//! use bncg_core::{Alpha, Concept};
//! use bncg_graph::generators;
//!
//! let c8 = generators::cycle(8);
//! assert!(Concept::Ps.find_violation(&c8, Alpha::integer(10)?)?.is_none());
//! # Ok::<(), bncg_core::GameError>(())
//! ```
//!
//! BSwE: a path wants to fold into a star when edges are expensive
//! relative to distance (the far end swaps its edge towards the
//! center); the star is swap-stable.
//!
//! ```
//! use bncg_core::{Alpha, Concept};
//! use bncg_graph::generators;
//!
//! let alpha = Alpha::integer(2)?;
//! assert!(Concept::Bswe.find_violation(&generators::path(6), alpha)?.is_some());
//! assert!(Concept::Bswe.find_violation(&generators::star(6), alpha)?.is_none());
//! # Ok::<(), bncg_core::GameError>(())
//! ```
//!
//! BGE: the star is greedy-stable, the path is not.
//!
//! ```
//! use bncg_core::{Alpha, Concept};
//! use bncg_graph::generators;
//!
//! let alpha = Alpha::integer(2)?;
//! assert!(Concept::Bge.find_violation(&generators::star(8), alpha)?.is_none());
//! assert!(Concept::Bge.find_violation(&generators::path(8), alpha)?.is_some());
//! # Ok::<(), bncg_core::GameError>(())
//! ```

use crate::concepts::Concept;
use crate::cost::AgentCost;
use crate::delta::{cost_after_add, TreeSwapPricer};
use crate::moves::Move;
use crate::state::GameState;
use bncg_graph::Graph;
use std::cell::RefCell;

/// The single-edge move kinds a concept is stable against.
#[derive(Debug, Clone, Copy)]
struct Kinds {
    remove: bool,
    add: bool,
    swap: bool,
}

impl Kinds {
    fn of(concept: Concept) -> Kinds {
        let (remove, add, swap) = match concept {
            Concept::Re => (true, false, false),
            Concept::Bae => (false, true, false),
            Concept::Ps => (true, true, false),
            Concept::Bswe => (false, false, true),
            Concept::Bge => (true, true, true),
            Concept::Bne | Concept::KBse(_) | Concept::Bse => (false, false, false),
        };
        Kinds { remove, add, swap }
    }

    /// The one encoding of the move space and its scan order: removals
    /// (edge order, then both endpoints), then bilateral additions
    /// (non-edge order), then swaps (agent, dropped neighbor, new
    /// partner), limited to the enabled kinds. Returns the first
    /// candidate its kind's test accepts; one test per kind keeps each
    /// block's loop free of the other kinds' pricing.
    fn first(
        self,
        g: &Graph,
        mut remove: impl FnMut(u32, u32) -> bool,
        mut add: impl FnMut(u32, u32) -> bool,
        mut swap: impl FnMut(u32, u32, u32) -> bool,
    ) -> Option<Move> {
        if self.remove {
            for (u, v) in g.edges() {
                for (agent, target) in [(u, v), (v, u)] {
                    if remove(agent, target) {
                        return Some(Move::Remove { agent, target });
                    }
                }
            }
        }
        if self.add {
            if let Some((u, v)) = g.non_edges().find(|&(u, v)| add(u, v)) {
                return Some(Move::BilateralAdd { u, v });
            }
        }
        if self.swap {
            let n = g.n() as u32;
            for agent in 0..n {
                for &old in g.neighbors(agent) {
                    for new in 0..n {
                        if new != agent && !g.has_edge(agent, new) && swap(agent, old, new) {
                            return Some(Move::Swap { agent, old, new });
                        }
                    }
                }
            }
        }
        None
    }
}

/// Every candidate move of the single-edge `concept` on `g`, in the order
/// all scans of them use: removals (edge order, then both endpoints),
/// then bilateral additions (non-edge order), then swaps (agent, dropped
/// neighbor, new partner), limited to the concept's kinds. Empty for the
/// exponential concepts (BNE, k-BSE, BSE).
///
/// # Examples
///
/// ```
/// use bncg_core::{concepts::single_edge::moves, Concept, Move};
/// use bncg_graph::generators;
///
/// let g = generators::path(3);
/// let ps = moves(&g, Concept::Ps);
/// assert_eq!(ps.len(), 2 * 2 + 1);
/// assert_eq!(ps[4], Move::BilateralAdd { u: 0, v: 2 });
/// assert_eq!(moves(&g, Concept::Bswe).len(), 2);
/// assert!(moves(&g, Concept::Bne).is_empty());
/// ```
#[must_use]
pub fn moves(g: &Graph, concept: Concept) -> Vec<Move> {
    let out = RefCell::new(Vec::new());
    let push = |mv: Move| {
        out.borrow_mut().push(mv);
        false
    };
    Kinds::of(concept).first(
        g,
        |agent, target| push(Move::Remove { agent, target }),
        |u, v| push(Move::BilateralAdd { u, v }),
        |agent, old, new| push(Move::Swap { agent, old, new }),
    );
    out.into_inner()
}

/// The first move of [`moves`] that strictly improves every consenting
/// agent of `state`, or `None` if the state is stable for `concept`.
pub(crate) fn find_violation_in(state: &GameState, concept: Concept) -> Option<Move> {
    let (g, alpha, before) = (state.graph(), state.alpha(), state.costs());
    let mut kinds = Kinds::of(concept);
    // A tree edge and a bridge disconnect their remover: never priced.
    kinds.remove &= !state.is_tree();
    let bridges = if kinds.remove {
        bncg_graph::connectivity::analyze(g).bridges
    } else {
        Vec::new()
    };
    // Present exactly for a default-model tree.
    let tree = state.tree();
    let matrix =
        (kinds.add && tree.is_none() && state.cost_model().is_default()).then(|| state.distances());
    let ev = RefCell::new(None);
    let evaluate = |mv: Move| {
        ev.borrow_mut()
            .get_or_insert_with(|| state.evaluator())
            .improves_all(&mv)
            .expect("single-edge candidates are valid moves")
            .is_some()
    };
    let improves = |a: u32, after: AgentCost| after.better_than(&before[a as usize], alpha);
    let remove = |agent: u32, target: u32| {
        bridges
            .binary_search(&(agent.min(target), agent.max(target)))
            .is_err()
            && evaluate(Move::Remove { agent, target })
    };
    let add = |u, v| match (tree, matrix) {
        (Some(t), _) => {
            let [cu, cv] = t.add_costs(g, u, v);
            improves(u, cu) && improves(v, cv)
        }
        (_, Some(d)) => {
            improves(u, cost_after_add(g, d, u, v)) && improves(v, cost_after_add(g, d, v, u))
        }
        (None, None) => evaluate(Move::BilateralAdd { u, v }),
    };
    // One scan per swap pricer, so the tree's O(1) swap loop carries no
    // evaluator branch.
    match tree.filter(|_| kinds.swap) {
        Some(t) => {
            let mut p = TreeSwapPricer::new(g, t);
            // `None` marks a disconnecting swap, never improving from a tree.
            kinds.first(g, remove, add, |agent, old, new| {
                p.swap_costs(agent, old, new)
                    .is_some_and(|(ca, cn)| improves(agent, ca) && improves(new, cn))
            })
        }
        None => kinds.first(g, remove, add, |agent, old, new| {
            evaluate(Move::Swap { agent, old, new })
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alpha::Alpha;
    use crate::concepts::Concept::{Bae, Bge, Bswe, Ps, Re};
    use crate::delta::move_improves_all;
    use bncg_graph::generators;

    fn a(s: &str) -> Alpha {
        s.parse().unwrap()
    }

    fn stable(c: Concept, g: &Graph, alpha: Alpha) -> bool {
        c.is_stable(g, alpha).unwrap()
    }

    fn witness(c: Concept, g: &Graph, alpha: Alpha) -> Option<Move> {
        c.find_violation(g, alpha).unwrap()
    }

    /// The first improving swap of a brute-force scan over every swap.
    fn brute_force_swap(g: &Graph, alpha: Alpha) -> Option<Move> {
        let n = g.n() as u32;
        for agent in 0..n {
            for &old in g.neighbors(agent) {
                for new in 0..n {
                    if new == agent || g.has_edge(agent, new) {
                        continue;
                    }
                    let mv = Move::Swap { agent, old, new };
                    if move_improves_all(g, alpha, &mv).unwrap() {
                        return Some(mv);
                    }
                }
            }
        }
        None
    }

    mod re {
        use super::*;

        #[test]
        fn trees_are_always_in_re() {
            let mut rng = bncg_graph::test_rng(1);
            for _ in 0..20 {
                let g = generators::random_tree(12, &mut rng);
                for alpha in ["1/3", "1", "50"] {
                    assert!(stable(Re, &g, a(alpha)));
                }
            }
        }

        #[test]
        fn cycle_re_window_matches_lemma_2_4_arithmetic() {
            // From the proof of Lemma 2.4: C_n is in RE iff removing an edge
            // (distance increase) does not pay for α. For even n the distance
            // cost of a cycle agent is n²/4 and of a path-end agent n(n−1)/2;
            // removal is improving iff α > n(n−1)/2 − n²/4.
            for n in [4usize, 6, 8] {
                let g = generators::cycle(n);
                let threshold = (n * (n - 1) / 2 - n * n / 4) as i64;
                assert!(stable(Re, &g, Alpha::integer(threshold).unwrap()));
                assert!(!stable(Re, &g, Alpha::integer(threshold + 1).unwrap()));
            }
        }

        #[test]
        fn clique_sheds_edges_at_high_alpha() {
            let g = generators::clique(5);
            // Removing one clique edge costs distance +1, saves α.
            assert!(stable(Re, &g, a("1")));
            assert!(!stable(Re, &g, a("2")));
            // Strictness: at α = 1 the trade is exactly neutral.
            assert!(stable(Re, &g, a("1")));
        }

        #[test]
        fn witness_is_replayable() {
            let g = generators::clique(4);
            let alpha = a("5");
            let mv = witness(Re, &g, alpha).expect("clique is unstable");
            assert!(move_improves_all(&g, alpha, &mv).unwrap());
        }

        #[test]
        fn disconnected_graphs_are_handled() {
            // Two disjoint edges: removing either edge increases unreachability.
            let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
            assert!(stable(Re, &g, a("100")));
        }

        #[test]
        fn bridge_pruning_matches_brute_force() {
            // The optimized checker must agree with an unpruned scan on
            // graphs mixing bridges and cycles.
            let mut rng = bncg_graph::test_rng(83);
            for _ in 0..20 {
                let g = generators::random_connected(9, 0.15, &mut rng);
                for alpha in ["1/2", "1", "2", "6"] {
                    let alpha = a(alpha);
                    let brute = g.edges().any(|(u, v)| {
                        [(u, v), (v, u)].into_iter().any(|(agent, target)| {
                            move_improves_all(&g, alpha, &Move::Remove { agent, target }).unwrap()
                        })
                    });
                    assert_eq!(!stable(Re, &g, alpha), brute, "pruned RE check diverged");
                }
            }
        }
    }

    mod bae {
        use super::*;

        #[test]
        fn clique_is_trivially_in_bae() {
            assert!(stable(Bae, &generators::clique(5), a("1/2")));
        }

        #[test]
        fn path_ends_connect_when_cheap() {
            let g = generators::path(5);
            // Ends adding {0,4}: each saves dist (4−1) + (3−2) = 4 > α for α < 4.
            let mv = witness(Bae, &g, a("3")).unwrap();
            assert_eq!(mv, Move::BilateralAdd { u: 0, v: 4 });
            // Strictness boundary: gain is exactly 4.
            assert!(stable(Bae, &g, a("4")));
            assert!(!stable(Bae, &g, a("7/2")));
        }

        #[test]
        fn disconnected_agents_always_link() {
            // Lexicographic reachability: two components always want to merge.
            let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
            assert!(witness(Bae, &g, a("1000")).is_some());
        }

        #[test]
        fn star_is_in_bae_for_alpha_at_least_one() {
            for n in [4usize, 6, 9] {
                assert!(stable(Bae, &generators::star(n), a("1")));
                // For α < 1 leaves do want to pair up.
                assert!(!stable(Bae, &generators::star(n), a("1/2")));
            }
        }

        #[test]
        fn witness_is_replayable() {
            let mut rng = bncg_graph::test_rng(5);
            for _ in 0..20 {
                let g = generators::random_tree(10, &mut rng);
                for alpha in ["1/2", "1", "2"] {
                    if let Some(mv) = witness(Bae, &g, a(alpha)) {
                        assert!(move_improves_all(&g, a(alpha), &mv).unwrap());
                    }
                }
            }
        }

        #[test]
        fn matches_brute_force_on_small_graphs() {
            let mut rng = bncg_graph::test_rng(6);
            for _ in 0..15 {
                let g = generators::random_connected(8, 0.25, &mut rng);
                for alpha in ["1/2", "1", "3", "11/2"] {
                    let alpha = a(alpha);
                    let fast = stable(Bae, &g, alpha);
                    // Brute force via the generic engine.
                    let brute = g.non_edges().all(|(u, v)| {
                        !move_improves_all(&g, alpha, &Move::BilateralAdd { u, v }).unwrap()
                    });
                    assert_eq!(fast, brute);
                }
            }
        }
    }

    mod ps {
        use super::*;

        #[test]
        fn ps_is_intersection_of_re_and_bae() {
            let mut rng = bncg_graph::test_rng(10);
            for _ in 0..30 {
                let g = generators::random_connected(7, 0.3, &mut rng);
                for alpha in ["1/2", "1", "2", "9"] {
                    let alpha = a(alpha);
                    assert_eq!(
                        stable(Ps, &g, alpha),
                        stable(Re, &g, alpha) && stable(Bae, &g, alpha)
                    );
                }
            }
        }

        #[test]
        fn stars_are_pairwise_stable_for_alpha_at_least_one() {
            assert!(stable(Ps, &generators::star(9), a("1")));
            assert!(stable(Ps, &generators::star(9), a("42")));
        }

        #[test]
        fn clique_is_pairwise_stable_below_one() {
            assert!(stable(Ps, &generators::clique(5), a("1/2")));
            assert!(!stable(Ps, &generators::clique(5), a("3/2")));
        }
    }

    mod bswe {
        use super::*;

        #[test]
        fn star_is_swap_stable() {
            for alpha in ["1/2", "1", "17"] {
                assert!(stable(Bswe, &generators::star(7), a(alpha)));
            }
        }

        #[test]
        fn long_path_folds() {
            // On the path 0-…-5 the end agent 0 prefers swapping its edge
            // {0,1} towards the middle; the middle node gains many shortcuts.
            let g = generators::path(6);
            let mv = witness(Bswe, &g, a("2")).unwrap();
            assert!(move_improves_all(&g, a("2"), &mv).unwrap());
        }

        #[test]
        fn tree_fast_path_agrees_with_generic_on_random_trees() {
            let mut rng = bncg_graph::test_rng(8);
            for _ in 0..15 {
                let g = generators::random_tree(11, &mut rng);
                for alpha in ["1/2", "1", "3", "10"] {
                    let alpha = a(alpha);
                    let fast = witness(Bswe, &g, alpha);
                    // Brute force through every swap with the generic engine.
                    let brute = brute_force_swap(&g, alpha);
                    assert_eq!(fast.is_some(), brute.is_some(), "α = {alpha}, g = {g:?}");
                    if let Some(mv) = fast {
                        assert!(move_improves_all(&g, alpha, &mv).unwrap());
                    }
                }
            }
        }

        #[test]
        fn general_graph_swaps_are_detected() {
            // A 6-cycle at moderate α: agents reroute a cycle edge into a
            // chord is never possible (buying unchanged only for the swapper);
            // verify against brute force rather than intuition.
            let g = generators::cycle(6);
            for alpha in ["1/2", "1", "2"] {
                let alpha = a(alpha);
                let fast = witness(Bswe, &g, alpha);
                let brute = brute_force_swap(&g, alpha);
                assert_eq!(fast.is_some(), brute.is_some());
            }
        }

        #[test]
        fn witnesses_are_replayable() {
            let mut rng = bncg_graph::test_rng(9);
            for _ in 0..10 {
                let g = generators::random_connected(9, 0.2, &mut rng);
                for alpha in ["1", "5/2"] {
                    if let Some(mv) = witness(Bswe, &g, a(alpha)) {
                        assert!(move_improves_all(&g, a(alpha), &mv).unwrap());
                    }
                }
            }
        }
    }

    mod bge {
        use super::*;

        #[test]
        fn bge_is_triple_intersection() {
            let mut rng = bncg_graph::test_rng(11);
            for _ in 0..25 {
                let g = generators::random_connected(7, 0.3, &mut rng);
                for alpha in ["1/2", "1", "3", "8"] {
                    let alpha = a(alpha);
                    assert_eq!(
                        stable(Bge, &g, alpha),
                        stable(Re, &g, alpha) && stable(Bae, &g, alpha) && stable(Bswe, &g, alpha)
                    );
                }
            }
        }

        #[test]
        fn proposition_3_7_bge_equals_2bse_on_trees() {
            // Exhaustive over all trees with up to 8 nodes and an α grid.
            for n in 2..=8usize {
                for tree in bncg_graph::enumerate::free_trees(n).unwrap() {
                    for alpha in ["1/2", "1", "2", "7/2", "6", "20"] {
                        let alpha = a(alpha);
                        let bge = stable(Bge, &tree, alpha);
                        let two_bse = stable(Concept::KBse(2), &tree, alpha);
                        assert_eq!(
                            bge, two_bse,
                            "Prop 3.7 violated on an {n}-node tree at α = {alpha}"
                        );
                    }
                }
            }
        }

        #[test]
        fn star_is_greedy_stable() {
            for alpha in ["1", "2", "50"] {
                assert!(stable(Bge, &generators::star(10), a(alpha)));
            }
        }
    }
}
