//! Pairwise Stability (PS, Jackson–Wolinsky): Remove Equilibrium plus
//! Bilateral Add Equilibrium — the solution concept Corbo and Parkes
//! analyzed for the BNCG and the baseline of the paper's Table 1.

use crate::alpha::Alpha;
use crate::concepts::{bae, re};
use crate::moves::Move;
use crate::state::GameState;
use bncg_graph::Graph;

/// Finds a profitable removal or mutual addition, or `None` if `g` is
/// pairwise stable.
///
/// # Examples
///
/// ```
/// use bncg_core::{concepts::ps, Alpha};
/// use bncg_graph::generators;
///
/// // A cycle is pairwise stable in the Θ(n²) window of Lemma 2.4.
/// let c8 = generators::cycle(8);
/// assert!(ps::find_violation(&c8, Alpha::integer(10)?).is_none());
/// # Ok::<(), bncg_core::GameError>(())
/// ```
#[must_use]
pub fn find_violation(g: &Graph, alpha: Alpha) -> Option<Move> {
    find_violation_in(&GameState::new(g.clone(), alpha))
}

/// [`find_violation`] against a caller-maintained [`GameState`]: both
/// sub-checkers share one cost vector and one tree summary or cached
/// matrix.
#[must_use]
pub fn find_violation_in(state: &GameState) -> Option<Move> {
    re::find_violation_in(state).or_else(|| bae::find_violation_in(state))
}

/// Whether `g` is pairwise stable.
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
    fn ps_is_intersection_of_re_and_bae() {
        let mut rng = bncg_graph::test_rng(10);
        for _ in 0..30 {
            let g = generators::random_connected(7, 0.3, &mut rng);
            for alpha in ["1/2", "1", "2", "9"] {
                let alpha = a(alpha);
                assert_eq!(
                    is_stable(&g, alpha),
                    re::is_stable(&g, alpha) && bae::is_stable(&g, alpha)
                );
            }
        }
    }

    #[test]
    fn stars_are_pairwise_stable_for_alpha_at_least_one() {
        assert!(is_stable(&generators::star(9), a("1")));
        assert!(is_stable(&generators::star(9), a("42")));
    }

    #[test]
    fn clique_is_pairwise_stable_below_one() {
        assert!(is_stable(&generators::clique(5), a("1/2")));
        assert!(!is_stable(&generators::clique(5), a("3/2")));
    }
}
