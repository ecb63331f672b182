//! Bilateral Swap Equilibrium (BSwE): stable when no agent `u` with a
//! bilateral edge `{u, v}` can replace `v` by some consenting `w` such that
//! both `u` and `w` strictly improve. `u`'s buying cost is unchanged, `w`
//! pays for one new edge, `v` is not asked (Section 1.1).

use crate::alpha::Alpha;
use crate::delta::TreeSwapPricer;
use crate::moves::Move;
use crate::state::GameState;
use bncg_graph::Graph;

/// Finds a mutually profitable swap, or `None` if `g` is in BSwE.
///
/// Candidates are scanned agent by agent, dropped neighbor by dropped
/// neighbor, new partner by new partner; there are `O(n·m)` of them. On
/// trees under the default cost model each is priced in `O(1)` by a
/// [`TreeSwapPricer`] over the state's tree summary and one `O(n)`
/// distance row per agent (`O(n²)` total, no distance matrix); every
/// other state applies each candidate and re-runs BFS for the two
/// consenting agents through the state's evaluator.
///
/// # Examples
///
/// ```
/// use bncg_core::{concepts::bswe, Alpha};
/// use bncg_graph::generators;
///
/// // A path wants to fold into a star when edges are expensive relative
/// // to distance: the far end swaps its edge towards the center.
/// let path = generators::path(6);
/// assert!(bswe::find_violation(&path, Alpha::integer(2)?).is_some());
///
/// // The star is swap-stable.
/// assert!(bswe::find_violation(&generators::star(6), Alpha::integer(2)?).is_none());
/// # Ok::<(), bncg_core::GameError>(())
/// ```
#[must_use]
pub fn find_violation(g: &Graph, alpha: Alpha) -> Option<Move> {
    find_violation_in(&GameState::new(g.clone(), alpha))
}

/// [`find_violation`] against a caller-maintained [`GameState`]: the tree
/// fast path reads the state's tree summary; every other state BFS-es
/// only the two consenting agents through the state's evaluator, priced
/// under the state's cost model.
#[must_use]
pub fn find_violation_in(state: &GameState) -> Option<Move> {
    let g = state.graph();
    // The `O(1)` pricing is a sum-of-distances identity on trees; the
    // state keeps a tree summary exactly under the default model.
    if let Some(tree) = state.tree() {
        let (alpha, old) = (state.alpha(), state.costs());
        let mut pricer = TreeSwapPricer::new(g, tree);
        // `None` marks a disconnecting swap, never improving from a tree.
        return first_improving_swap(g, |agent, dropped, new| {
            pricer
                .swap_costs(agent, dropped, new)
                .is_some_and(|(c_agent, c_new)| {
                    c_agent.better_than(&old[agent as usize], alpha)
                        && c_new.better_than(&old[new as usize], alpha)
                })
        });
    }
    let mut ev = state.evaluator();
    first_improving_swap(g, |agent, old, new| {
        ev.improves_all(&Move::Swap { agent, old, new })
            .expect("swap candidate is valid")
    })
}

/// The first swap `agent: old → new` in scan order that `improves`
/// accepts.
fn first_improving_swap(
    g: &Graph,
    mut improves: impl FnMut(u32, u32, u32) -> bool,
) -> Option<Move> {
    let n = g.n() as u32;
    for agent in 0..n {
        for &old in g.neighbors(agent) {
            for new in 0..n {
                if new != agent && !g.has_edge(agent, new) && improves(agent, old, new) {
                    return Some(Move::Swap { agent, old, new });
                }
            }
        }
    }
    None
}

/// Whether `g` is in Bilateral Swap Equilibrium.
#[must_use]
pub fn is_stable(g: &Graph, alpha: Alpha) -> bool {
    find_violation(g, alpha).is_none()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bncg_graph::generators;

    fn a(s: &str) -> Alpha {
        s.parse().unwrap()
    }

    #[test]
    fn star_is_swap_stable() {
        for alpha in ["1/2", "1", "17"] {
            assert!(is_stable(&generators::star(7), a(alpha)));
        }
    }

    #[test]
    fn long_path_folds() {
        // On the path 0-…-5 the end agent 0 prefers swapping its edge
        // {0,1} towards the middle; the middle node gains many shortcuts.
        let g = generators::path(6);
        let mv = find_violation(&g, a("2")).unwrap();
        assert!(crate::delta::move_improves_all(&g, a("2"), &mv).unwrap());
    }

    #[test]
    fn tree_fast_path_agrees_with_generic_on_random_trees() {
        let mut rng = bncg_graph::test_rng(8);
        for _ in 0..15 {
            let g = generators::random_tree(11, &mut rng);
            for alpha in ["1/2", "1", "3", "10"] {
                let alpha = a(alpha);
                let fast = find_violation(&g, alpha);
                // Brute force through every swap with the generic engine.
                let mut brute = None;
                'outer: for agent in 0..11u32 {
                    for &old in g.neighbors(agent) {
                        for new in 0..11u32 {
                            if new == agent || g.has_edge(agent, new) {
                                continue;
                            }
                            let mv = Move::Swap { agent, old, new };
                            if crate::delta::move_improves_all(&g, alpha, &mv).unwrap() {
                                brute = Some(mv);
                                break 'outer;
                            }
                        }
                    }
                }
                assert_eq!(fast.is_some(), brute.is_some(), "α = {alpha}, g = {g:?}");
                if let Some(mv) = fast {
                    assert!(crate::delta::move_improves_all(&g, alpha, &mv).unwrap());
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
            let fast = find_violation(&g, alpha);
            let mut brute = None;
            'outer: for agent in 0..6u32 {
                for &old in g.neighbors(agent) {
                    for new in 0..6u32 {
                        if new == agent || g.has_edge(agent, new) {
                            continue;
                        }
                        let mv = Move::Swap { agent, old, new };
                        if crate::delta::move_improves_all(&g, alpha, &mv).unwrap() {
                            brute = Some(mv);
                            break 'outer;
                        }
                    }
                }
            }
            assert_eq!(fast.is_some(), brute.is_some());
        }
    }

    #[test]
    fn witnesses_are_replayable() {
        let mut rng = bncg_graph::test_rng(9);
        for _ in 0..10 {
            let g = generators::random_connected(9, 0.2, &mut rng);
            for alpha in ["1", "5/2"] {
                if let Some(mv) = find_violation(&g, a(alpha)) {
                    assert!(crate::delta::move_improves_all(&g, a(alpha), &mv).unwrap());
                }
            }
        }
    }
}
