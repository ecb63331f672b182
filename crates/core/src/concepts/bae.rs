//! Bilateral Add Equilibrium (BAE): no two agents can both strictly profit
//! from jointly creating a single new edge, each paying `α`.

use crate::alpha::Alpha;
use crate::delta::cost_after_add;
use crate::moves::Move;
use crate::state::GameState;
use bncg_graph::Graph;

/// Finds a mutually profitable edge addition, or `None` if `g` is in BAE.
///
/// On a tree under the default cost model each non-edge `{u, v}` is
/// priced in `O(d(u, v))` from the state's tree summary
/// ([`TreeSummary::add_costs`](crate::delta::TreeSummary::add_costs)),
/// `O(n²)` on a stable star and `O(W)` for any tree with Wiener index
/// `W`, with no distance matrix. Every other default-model state runs
/// in `O(n³)` over the pre-move distance matrix: the post-add distance
/// row of an endpoint is `min(d(u,·), 1 + d(v,·))`.
///
/// # Examples
///
/// ```
/// use bncg_core::{concepts::bae, Alpha, Move};
/// use bncg_graph::generators;
///
/// // A long path at α = 1: the two ends gain a lot by linking up.
/// let g = generators::path(6);
/// let alpha = Alpha::integer(1)?;
/// assert!(bae::find_violation(&g, alpha).is_some());
///
/// // The star is in BAE: a leaf-leaf edge saves only distance 1 < α + ε.
/// assert!(bae::find_violation(&generators::star(6), alpha).is_none());
/// # Ok::<(), bncg_core::GameError>(())
/// ```
#[must_use]
pub fn find_violation(g: &Graph, alpha: Alpha) -> Option<Move> {
    find_violation_in(&GameState::new(g.clone(), alpha))
}

/// [`find_violation`] against a caller-maintained [`GameState`], reusing
/// its cached tree summary or matrix and its pre-move costs (no
/// recomputation at all). Both pricings are sum-of-distances identities,
/// so a state under another cost model prices each candidate through its
/// evaluator.
#[must_use]
pub fn find_violation_in(state: &GameState) -> Option<Move> {
    let (g, alpha) = (state.graph(), state.alpha());
    if !state.cost_model().is_default() {
        let mut ev = state.evaluator();
        return g
            .non_edges()
            .map(|(u, v)| Move::BilateralAdd { u, v })
            .find(|mv| {
                ev.improves_all(mv)
                    .expect("addition of a non-edge is valid")
            });
    }
    let old = state.costs();
    if let Some(tree) = state.tree() {
        return g.non_edges().find_map(|(u, v)| {
            let [cu, cv] = tree.add_costs(g, u, v);
            (cu.better_than(&old[u as usize], alpha) && cv.better_than(&old[v as usize], alpha))
                .then_some(Move::BilateralAdd { u, v })
        });
    }
    let d = state.distances();
    for (u, v) in g.non_edges() {
        let cu = cost_after_add(g, d, u, v);
        if !cu.better_than(&old[u as usize], alpha) {
            continue;
        }
        let cv = cost_after_add(g, d, v, u);
        if cv.better_than(&old[v as usize], alpha) {
            return Some(Move::BilateralAdd { u, v });
        }
    }
    None
}

/// Whether `g` is in Bilateral Add Equilibrium.
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
    fn clique_is_trivially_in_bae() {
        assert!(is_stable(&generators::clique(5), a("1/2")));
    }

    #[test]
    fn path_ends_connect_when_cheap() {
        let g = generators::path(5);
        // Ends adding {0,4}: each saves dist (4−1) + (3−2) = 4 > α for α < 4.
        let mv = find_violation(&g, a("3")).unwrap();
        assert_eq!(mv, Move::BilateralAdd { u: 0, v: 4 });
        // Strictness boundary: gain is exactly 4.
        assert!(is_stable(&g, a("4")));
        assert!(!is_stable(&g, a("7/2")));
    }

    #[test]
    fn disconnected_agents_always_link() {
        // Lexicographic reachability: two components always want to merge.
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        assert!(find_violation(&g, a("1000")).is_some());
    }

    #[test]
    fn star_is_in_bae_for_alpha_at_least_one() {
        for n in [4usize, 6, 9] {
            assert!(is_stable(&generators::star(n), a("1")));
            // For α < 1 leaves do want to pair up.
            assert!(!is_stable(&generators::star(n), a("1/2")));
        }
    }

    #[test]
    fn witness_is_replayable() {
        let mut rng = bncg_graph::test_rng(5);
        for _ in 0..20 {
            let g = generators::random_tree(10, &mut rng);
            for alpha in ["1/2", "1", "2"] {
                if let Some(mv) = find_violation(&g, a(alpha)) {
                    assert!(crate::delta::move_improves_all(&g, a(alpha), &mv).unwrap());
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
                let fast = find_violation(&g, alpha).is_none();
                // Brute force via the generic engine.
                let brute = g.non_edges().all(|(u, v)| {
                    !crate::delta::move_improves_all(&g, alpha, &Move::BilateralAdd { u, v })
                        .unwrap()
                });
                assert_eq!(fast, brute);
            }
        }
    }
}
