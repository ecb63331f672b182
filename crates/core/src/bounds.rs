//! Executable versions of the paper's bounds: closed-form PoA formulas for
//! each theorem and exact structural predicates for the key lemmas.
//!
//! The closed forms return `f64` — they are *reporting* quantities the
//! experiments plot measured ρ against. The lemma predicates, by contrast,
//! gate proofs and are evaluated **exactly** in integer arithmetic
//! (`ℓ(v) ≤ ℓ(u) + 2α/n` becomes `(ℓ(v) − ℓ(u))·n·den ≤ 2·num`).

use crate::alpha::Alpha;
use crate::error::GameError;
use bncg_graph::{Graph, RootedTree};

/// Theorem 3.6: trees in BSwE satisfy `ρ(G) ≤ 2 + 2·log₂ α`.
#[must_use]
pub fn theorem_3_6_bound(alpha: Alpha) -> f64 {
    2.0 + 2.0 * alpha.as_f64().log2().max(0.0)
}

/// Theorem 3.10: the stretched-tree-star family achieves
/// `ρ(G) ≥ ¼·log₂ α − 17/8` in BGE.
#[must_use]
pub fn theorem_3_10_lower(alpha: Alpha) -> f64 {
    0.25 * alpha.as_f64().log2() - 17.0 / 8.0
}

/// Theorem 3.12(i): BNE lower bound `ρ ≥ (ε/168)·log₂ α − 3/28` for
/// `9η ≤ α ≤ η^{2−ε}`.
#[must_use]
pub fn theorem_3_12_i_lower(eps: f64, alpha: Alpha) -> f64 {
    eps / 168.0 * alpha.as_f64().log2() - 3.0 / 28.0
}

/// Theorem 3.13: trees in BNE with `α ≤ √n` (and `n > 15`) have `ρ ≤ 4`.
#[must_use]
pub fn theorem_3_13_bound() -> f64 {
    4.0
}

/// Theorem 3.15: trees in 3-BSE have `ρ ≤ 25`.
#[must_use]
pub fn theorem_3_15_bound() -> f64 {
    25.0
}

/// Theorem 3.19: BSE with `α ≥ n·log₂ n` have `ρ ≤ 5`.
#[must_use]
pub fn theorem_3_19_bound() -> f64 {
    5.0
}

/// Theorem 3.20: BSE with `α ≤ n^{1−ε}` have `ρ ≤ 3 + 2/ε`.
#[must_use]
pub fn theorem_3_20_bound(eps: f64) -> f64 {
    3.0 + 2.0 / eps
}

/// Theorem 3.21: BSE in general have
/// `ρ ≤ 2 + log₂ log₂ n + 2·log₂ n / log₂ log₂ log₂ n`.
#[must_use]
pub fn theorem_3_21_bound(n: usize) -> f64 {
    let lg = (n as f64).log2();
    let lglg = lg.log2();
    let lglglg = lglg.log2();
    2.0 + lglg + 2.0 * lg / lglglg
}

/// The known PS bound `Θ(min{√α, n/√α})` (Corbo–Parkes upper, Demaine et
/// al. lower), as the upper-bound envelope the Table 1 baseline row is
/// compared against.
#[must_use]
pub fn ps_poa_envelope(alpha: Alpha, n: usize) -> f64 {
    let a = alpha.as_f64();
    let root = a.sqrt();
    root.min(n as f64 / root).max(1.0)
}

/// Lemma 3.18: in an almost complete `d`-ary tree every agent's cost is at
/// most `(d+1)·α + 2(n−1)·log_d n`.
#[must_use]
pub fn lemma_3_18_bound(d: usize, n: usize, alpha: Alpha) -> f64 {
    (d as f64 + 1.0) * alpha.as_f64() + 2.0 * (n as f64 - 1.0) * (n as f64).log(d as f64)
}

/// Lemma 3.3 (exact): in a BSwE tree rooted at a 1-median `r`, every `u`
/// has a `T_u`-1-median `v` with `ℓ(v) ≤ ℓ(u) + 2α/n`.
///
/// # Errors
///
/// Returns [`GameError::NotATree`] if `g` is not a tree.
pub fn lemma_3_3_holds(g: &Graph, alpha: Alpha) -> Result<bool, GameError> {
    let t = bncg_graph::root_at_median(g).map_err(|_| GameError::NotATree)?;
    let n = g.n() as i128;
    let two_num = 2 * i128::from(alpha.num());
    let den = i128::from(alpha.den());
    for u in 0..g.n() as u32 {
        let sub_nodes = t.subtree_nodes(u);
        let (sub, map) = g.induced_subgraph(&sub_nodes);
        let sub_tree = RootedTree::new(&sub, map[u as usize]).map_err(|_| GameError::NotATree)?;
        // Minimum layer among the subtree's 1-medians (mapped back).
        let min_layer = sub_tree
            .one_medians()
            .iter()
            .map(|&local| {
                let global = sub_nodes[local as usize];
                i128::from(t.layer(global))
            })
            .min()
            .expect("subtree has a median");
        // ℓ(v) ≤ ℓ(u) + 2α/n  ⟺  (ℓ(v) − ℓ(u))·n·den ≤ 2·num
        if (min_layer - i128::from(t.layer(u))) * n * den > two_num {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Lemma 3.4: in a BSwE tree rooted at a 1-median,
/// `depth(T_u) ≤ (1 + 2α/n)·log₂|T_u|` for every `u`.
/// Evaluated in `f64` with a `1e−9` slack (the bound itself is
/// transcendental; it gates no equilibrium decision).
///
/// # Errors
///
/// Returns [`GameError::NotATree`] if `g` is not a tree.
pub fn lemma_3_4_holds(g: &Graph, alpha: Alpha) -> Result<bool, GameError> {
    let t = bncg_graph::root_at_median(g).map_err(|_| GameError::NotATree)?;
    let n = g.n() as f64;
    let factor = 1.0 + 2.0 * alpha.as_f64() / n;
    for u in 0..g.n() as u32 {
        let size = f64::from(t.subtree_size(u));
        let depth = f64::from(t.subtree_depth(u));
        if depth > factor * size.log2() + 1e-9 {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Lemma 3.5 (exact): in a BSwE tree rooted at a 1-median, every `u` with
/// `ℓ(u) ≥ 2` has `|T_u| ≤ α/(ℓ(u) − 1)`.
///
/// # Errors
///
/// Returns [`GameError::NotATree`] if `g` is not a tree.
pub fn lemma_3_5_holds(g: &Graph, alpha: Alpha) -> Result<bool, GameError> {
    let t = bncg_graph::root_at_median(g).map_err(|_| GameError::NotATree)?;
    let num = i128::from(alpha.num());
    let den = i128::from(alpha.den());
    for u in 0..g.n() as u32 {
        let layer = i128::from(t.layer(u));
        if layer >= 2 {
            // |T_u|·(ℓ(u)−1)·den ≤ num
            if i128::from(t.subtree_size(u)) * (layer - 1) * den > num {
                return Ok(false);
            }
        }
    }
    Ok(true)
}

/// Lemma 3.14 (exact): in a 3-BSE tree rooted at a 1-median, every node has
/// at most one child `c` with `depth(T_c) > 2·⌈4α/n⌉ + 1`.
///
/// # Errors
///
/// Returns [`GameError::NotATree`] if `g` is not a tree.
pub fn lemma_3_14_holds(g: &Graph, alpha: Alpha) -> Result<bool, GameError> {
    let t = bncg_graph::root_at_median(g).map_err(|_| GameError::NotATree)?;
    let threshold = 2 * ceil_ratio(4 * alpha.num(), alpha.den() * g.n() as i64) + 1;
    for u in 0..g.n() as u32 {
        let deep = t
            .children(u)
            .iter()
            .filter(|&&c| i64::from(t.subtree_depth(c)) > threshold)
            .count();
        if deep > 1 {
            return Ok(false);
        }
    }
    Ok(true)
}

/// `⌈a/b⌉` for positive `b`.
fn ceil_ratio(a: i64, b: i64) -> i64 {
    debug_assert!(b > 0);
    a.div_euclid(b) + i64::from(a.rem_euclid(b) != 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concepts::Concept;
    use crate::cost::{agent_cost, social_cost_ratio, Ratio};
    use bncg_graph::{enumerate, generators};

    fn a(s: &str) -> Alpha {
        s.parse().unwrap()
    }

    /// Proposition 3.1: for connected `G` in RE and any node `u`,
    /// `ρ(G) ≤ (α + dist(u)) / (α + n − 1)`. Returns the exact right-hand side.
    fn proposition_3_1_bound(alpha: Alpha, n: usize, dist_u: u64) -> Ratio {
        let num = i128::from(alpha.num());
        let den = i128::from(alpha.den());
        Ratio::new(num + den * i128::from(dist_u), num + den * (n as i128 - 1))
    }

    /// Corollary 3.2: `ρ(G) ≤ 1 + n²/α` for connected RE graphs.
    fn corollary_3_2_bound(alpha: Alpha, n: usize) -> Ratio {
        let num = i128::from(alpha.num());
        let den = i128::from(alpha.den());
        let n = n as i128;
        // 1 + n²·den/num
        Ratio::new(num + n * n * den, num)
    }

    /// Theorem 3.12(ii): BNE lower bound `ρ ≥ ¼·ε·log₂ α − 9/8` for
    /// `η^{1/2+ε} ≤ α ≤ η`.
    fn theorem_3_12_ii_lower(eps: f64, alpha: Alpha) -> f64 {
        0.25 * eps * alpha.as_f64().log2() - 9.0 / 8.0
    }

    #[test]
    fn proposition_3_1_holds_on_enumerated_re_trees() {
        // For every small tree (trees are always in RE) and a price grid,
        // ρ(G) ≤ (α + dist(u))/(α + n − 1) for every node u.
        for n in 2..=8usize {
            for tree in enumerate::free_trees(n).unwrap() {
                for alpha in ["1", "2", "7/2", "12"] {
                    let alpha = a(alpha);
                    let rho = social_cost_ratio(&tree, alpha).unwrap();
                    for u in 0..n as u32 {
                        let bound = proposition_3_1_bound(alpha, n, agent_cost(&tree, u).dist);
                        assert!(rho <= bound, "Prop 3.1 violated (n={n}, α={alpha}, u={u})");
                    }
                }
            }
        }
    }

    #[test]
    fn corollary_3_2_dominates_proposition_3_1() {
        for n in [4usize, 7, 9] {
            for alpha in ["1", "5", "40"] {
                let alpha = a(alpha);
                // dist(u) < n² always, so Cor 3.2 ≥ Prop 3.1's bound.
                let cor = corollary_3_2_bound(alpha, n);
                let prop = proposition_3_1_bound(alpha, n, (n * n - 1) as u64);
                assert!(cor >= prop);
            }
        }
    }

    #[test]
    fn lemmas_3_3_to_3_5_hold_on_exhaustive_bswe_trees() {
        for n in 3..=8usize {
            for tree in enumerate::free_trees(n).unwrap() {
                for alpha in ["1", "2", "4", "10"] {
                    let alpha = a(alpha);
                    if Concept::Bswe.is_stable(&tree, alpha).unwrap() {
                        assert!(
                            lemma_3_3_holds(&tree, alpha).unwrap(),
                            "Lemma 3.3 violated (n={n}, α={alpha})"
                        );
                        assert!(
                            lemma_3_4_holds(&tree, alpha).unwrap(),
                            "Lemma 3.4 violated (n={n}, α={alpha})"
                        );
                        assert!(
                            lemma_3_5_holds(&tree, alpha).unwrap(),
                            "Lemma 3.5 violated (n={n}, α={alpha})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn lemma_3_14_holds_on_exhaustive_3bse_trees() {
        for n in 3..=7usize {
            for tree in enumerate::free_trees(n).unwrap() {
                for alpha in ["1", "3", "9"] {
                    let alpha = a(alpha);
                    if Concept::KBse(3)
                        .find_violation(&tree, alpha)
                        .unwrap()
                        .is_none()
                    {
                        assert!(
                            lemma_3_14_holds(&tree, alpha).unwrap(),
                            "Lemma 3.14 violated (n={n}, α={alpha})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn lemma_3_14_detects_violations() {
        // A path is deep on both sides of its median: with tiny α the
        // threshold shrinks and both children of the median are too deep.
        let path = generators::path(11);
        assert!(!lemma_3_14_holds(&path, a("1")).unwrap());
    }

    #[test]
    fn lemma_3_18_bound_dominates_measured_cost() {
        for d in [2usize, 3, 5] {
            for n in [10usize, 50, 200] {
                let g = generators::almost_complete_dary_tree(d, n);
                for alpha in ["1", "10"] {
                    let alpha = a(alpha);
                    let bound = lemma_3_18_bound(d, n, alpha);
                    for u in 0..n as u32 {
                        let c = agent_cost(&g, u);
                        let value = alpha.as_f64() * f64::from(c.edges) + c.dist as f64;
                        assert!(
                            value <= bound + 1e-6,
                            "Lemma 3.18 violated (d={d}, n={n}, u={u})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn closed_forms_are_sane() {
        assert!((theorem_3_6_bound(a("1")) - 2.0).abs() < 1e-9);
        assert!(theorem_3_10_lower(a("1024")) < theorem_3_6_bound(a("1024")));
        assert_eq!(theorem_3_13_bound(), 4.0);
        assert_eq!(theorem_3_15_bound(), 25.0);
        assert_eq!(theorem_3_19_bound(), 5.0);
        assert!((theorem_3_20_bound(0.5) - 7.0).abs() < 1e-9);
        assert!(theorem_3_21_bound(1 << 20) > 2.0);
        assert!(ps_poa_envelope(a("100"), 1000) <= 10.0 + 1e-9);
        assert!(theorem_3_12_i_lower(1.0, Alpha::integer(1 << 30).unwrap()) > 0.0);
        assert!(theorem_3_12_ii_lower(0.5, a("4096")) > 0.0);
    }

    #[test]
    fn ceil_ratio_matches_definition() {
        assert_eq!(ceil_ratio(4, 2), 2);
        assert_eq!(ceil_ratio(5, 2), 3);
        assert_eq!(ceil_ratio(1, 3), 1);
        assert_eq!(ceil_ratio(0, 3), 0);
    }
}
