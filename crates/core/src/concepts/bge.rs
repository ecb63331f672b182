//! Bilateral Greedy Equilibrium (BGE): Pairwise Stability plus Bilateral
//! Swap Equilibrium — stability against every single-edge greedy change
//! (add, remove, swap). On trees BGE coincides with 2-BSE
//! (Proposition 3.7), which the test suite verifies exhaustively.

use crate::alpha::Alpha;
use crate::concepts::{bae, bswe, re};
use crate::moves::Move;
use crate::state::GameState;
use bncg_graph::Graph;

/// Finds a profitable greedy change (removal, mutual addition, or swap),
/// or `None` if `g` is in BGE.
///
/// # Examples
///
/// ```
/// use bncg_core::{concepts::bge, Alpha};
/// use bncg_graph::generators;
///
/// assert!(bge::find_violation(&generators::star(8), Alpha::integer(2)?).is_none());
/// assert!(bge::find_violation(&generators::path(8), Alpha::integer(2)?).is_some());
/// # Ok::<(), bncg_core::GameError>(())
/// ```
#[must_use]
pub fn find_violation(g: &Graph, alpha: Alpha) -> Option<Move> {
    find_violation_in(&GameState::new(g.clone(), alpha))
}

/// [`find_violation`] against a caller-maintained [`GameState`]: all three
/// sub-checkers share one cost vector and one tree summary or cached
/// matrix (previously each rebuilt its own).
#[must_use]
pub fn find_violation_in(state: &GameState) -> Option<Move> {
    re::find_violation_in(state)
        .or_else(|| bae::find_violation_in(state))
        .or_else(|| bswe::find_violation_in(state))
}

/// Whether `g` is in Bilateral Greedy Equilibrium.
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
    fn bge_is_triple_intersection() {
        let mut rng = bncg_graph::test_rng(11);
        for _ in 0..25 {
            let g = generators::random_connected(7, 0.3, &mut rng);
            for alpha in ["1/2", "1", "3", "8"] {
                let alpha = a(alpha);
                assert_eq!(
                    is_stable(&g, alpha),
                    re::is_stable(&g, alpha)
                        && bae::is_stable(&g, alpha)
                        && bswe::is_stable(&g, alpha)
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
                    let bge = is_stable(&tree, alpha);
                    let two_bse = crate::concepts::Concept::KBse(2)
                        .find_violation(&tree, alpha)
                        .unwrap()
                        .is_none();
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
            assert!(is_stable(&generators::star(10), a(alpha)));
        }
    }
}
