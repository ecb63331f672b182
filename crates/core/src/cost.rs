//! Agent and social cost, the social optimum, and the social cost ratio ρ.
//!
//! An agent's cost is `α·|S_u| + Σ_v dist(u, v)` with disconnected pairs
//! priced at `M > α·n³` (paper, Section 1.1). The `M` construction makes
//! cost comparison *lexicographic*: an agent first prefers reaching more
//! nodes, then the finite cost. [`AgentCost`] implements exactly that
//! semantics, which is the paper's stated intent for `M`.

use crate::alpha::Alpha;
use crate::error::GameError;
use bncg_graph::{bfs_distances, BitsetGraph, DistanceMatrix, Graph, UNREACHABLE};
use std::cmp::Ordering;

/// The cost of a single agent, kept in unevaluated form so comparisons can
/// be exact for any rational `α`.
///
/// # Examples
///
/// ```
/// use bncg_core::{agent_cost, Alpha};
/// use bncg_graph::generators;
///
/// let star = generators::star(5);
/// let center = agent_cost(&star, 0);
/// let leaf = agent_cost(&star, 1);
/// assert_eq!((center.edges, center.dist), (4, 4));
/// assert_eq!((leaf.edges, leaf.dist), (1, 7));
/// let alpha = Alpha::integer(2)?;
/// // center: 2·4 + 4 = 12, leaf: 2·1 + 7 = 9
/// assert!(leaf.better_than(&center, alpha));
/// # Ok::<(), bncg_core::GameError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AgentCost {
    /// Number of nodes the agent cannot reach (each priced at `M`).
    pub unreachable: u32,
    /// Number of edges the agent pays for (`|S_u|`; in a BNCG graph state
    /// this is the degree).
    pub edges: u32,
    /// Sum of finite hop distances to the reachable nodes.
    pub dist: u64,
}

impl AgentCost {
    /// Exact three-way comparison under edge price `alpha`:
    /// lexicographically by unreachable count, then by `α·edges + dist`.
    #[must_use]
    pub(crate) fn compare(&self, other: &AgentCost, alpha: Alpha) -> Ordering {
        self.unreachable.cmp(&other.unreachable).then_with(|| {
            alpha
                .cost_key(self.edges, self.dist)
                .cmp(&alpha.cost_key(other.edges, other.dist))
        })
    }

    /// Whether this cost is *strictly* lower than `other` — the improvement
    /// predicate every solution concept is built on.
    #[must_use]
    pub fn better_than(&self, other: &AgentCost, alpha: Alpha) -> bool {
        self.compare(other, alpha) == Ordering::Less
    }
}

/// An exact non-negative fraction used for social costs and ρ values.
///
/// # Examples
///
/// ```
/// use bncg_core::Ratio;
///
/// let r = Ratio::new(3, 2);
/// assert_eq!(r.as_f64(), 1.5);
/// assert!(r > Ratio::new(1, 1));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Ratio {
    num: i128,
    den: i128,
}

impl Ratio {
    /// Creates `num/den`.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    #[must_use]
    pub fn new(num: i128, den: i128) -> Self {
        assert!(den != 0, "ratio denominator must be nonzero");
        let (num, den) = if den < 0 { (-num, -den) } else { (num, den) };
        Ratio { num, den }
    }

    /// Numerator (denominator normalized positive).
    #[must_use]
    pub fn num(&self) -> i128 {
        self.num
    }

    /// Denominator (always positive).
    #[must_use]
    pub fn den(&self) -> i128 {
        self.den
    }

    /// Approximate `f64` value for reporting.
    #[must_use]
    pub fn as_f64(&self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Exact division of two ratios.
    ///
    /// # Panics
    ///
    /// Panics if `other` is zero.
    #[must_use]
    pub(crate) fn div(&self, other: &Ratio) -> Ratio {
        assert!(other.num != 0, "division by zero ratio");
        Ratio::new(self.num * other.den, self.den * other.num)
    }
}

impl PartialEq for Ratio {
    fn eq(&self, other: &Self) -> bool {
        self.num * other.den == other.num * self.den
    }
}

impl Eq for Ratio {}

impl PartialOrd for Ratio {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ratio {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.num * other.den).cmp(&(other.num * self.den))
    }
}

impl std::fmt::Display for Ratio {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

/// Computes the cost of agent `u` in graph state `g` by a single BFS.
///
/// In a BNCG graph state the strategy bijection means `|S_u| = deg(u)`.
///
/// # Panics
///
/// Panics if `u` is out of range.
#[must_use]
pub fn agent_cost(g: &Graph, u: u32) -> AgentCost {
    agent_cost_with_buf(g, u, &mut Vec::new())
}

/// Like [`agent_cost`] but reusing a caller-owned BFS buffer — the hot
/// candidate-evaluation paths run millions of BFS passes and per-call
/// allocation would dominate.
///
/// # Panics
///
/// Panics if `u` is out of range.
#[must_use]
pub(crate) fn agent_cost_with_buf(g: &Graph, u: u32, buf: &mut Vec<u32>) -> AgentCost {
    let reached = bfs_distances(g, u, buf);
    let dist_sum = buf
        .iter()
        .filter(|&&d| d != UNREACHABLE)
        .map(|&d| u64::from(d))
        .sum();
    AgentCost {
        unreachable: (g.n() - reached) as u32,
        edges: g.degree(u) as u32,
        dist: dist_sum,
    }
}

/// Computes the cost of agent `u` from a word-parallel bitset graph —
/// the batched leaf-evaluation kernel: one frontier BFS summing
/// `level · popcount(level_set)` per level, never materializing a
/// distance row, with the degree read off the adjacency word.
///
/// Differential-tested equal to [`agent_cost`] (the scalar reference)
/// on every graph with `n ≤ 64`.
///
/// # Panics
///
/// Panics if `u` is out of range.
#[must_use]
pub(crate) fn agent_cost_bits(bits: &BitsetGraph, u: u32) -> AgentCost {
    let (unreachable, dist) = bits.cost_from(u);
    AgentCost {
        unreachable,
        edges: bits.degree(u),
        dist,
    }
}

/// Computes the cost of agent `u` from a precomputed distance matrix.
#[must_use]
pub fn agent_cost_from_matrix(g: &Graph, d: &DistanceMatrix, u: u32) -> AgentCost {
    let mut dist_sum = 0u64;
    let mut unreachable = 0u32;
    for &dd in d.row(u) {
        if dd == UNREACHABLE {
            unreachable += 1;
        } else {
            dist_sum += u64::from(dd);
        }
    }
    AgentCost {
        unreachable,
        edges: g.degree(u) as u32,
        dist: dist_sum,
    }
}

/// The social cost `Σ_u cost(u)` of a *connected* graph as an exact ratio.
///
/// # Errors
///
/// Returns [`GameError::Disconnected`] for disconnected graphs: the paper
/// compares ρ only over connected equilibria (any state with unreachable
/// pairs is dominated lexicographically and never optimal).
pub fn social_cost(g: &Graph, alpha: Alpha) -> Result<Ratio, GameError> {
    let total_dist = if g.is_tree() {
        // Trees (the bulk of the paper's constructions, some with 10⁴⁺
        // nodes): rerooted distance sums in O(n) memory instead of the
        // O(n²) all-pairs matrix.
        let t = bncg_graph::RootedTree::new(g, 0).expect("validated tree");
        t.dist_sums().iter().sum::<u64>()
    } else {
        let d = DistanceMatrix::new(g);
        d.total_distance().ok_or(GameError::Disconnected)?
    };
    // Total buying cost: every edge is paid by both endpoints.
    let edges_paid = 2 * g.m() as u64;
    Ok(Ratio::new(
        i128::from(alpha.num()) * i128::from(edges_paid)
            + i128::from(alpha.den()) * i128::from(total_dist),
        i128::from(alpha.den()),
    ))
}

/// The cost of the social optimum for `n` agents at price `alpha`
/// (Section 3.1): the star for `α ≥ 1` with cost `2(n−1)(α+n−1)`, the
/// clique for `α ≤ 1` with cost `n(n−1)(1+α)`; at `α = 1` both coincide.
///
/// # Examples
///
/// ```
/// use bncg_core::{optimum_cost, Alpha, Ratio};
///
/// let alpha = Alpha::integer(3)?;
/// // 2(n−1)(α+n−1) with n = 5: 2·4·7 = 56
/// assert_eq!(optimum_cost(5, alpha), Ratio::new(56, 1));
/// # Ok::<(), bncg_core::GameError>(())
/// ```
#[must_use]
pub fn optimum_cost(n: usize, alpha: Alpha) -> Ratio {
    let n = n as i128;
    if n <= 1 {
        return Ratio::new(0, 1);
    }
    let num = i128::from(alpha.num());
    let den = i128::from(alpha.den());
    // star: 2(n−1)(α + n − 1) = 2(n−1)(num + den(n−1)) / den
    let star = Ratio::new(2 * (n - 1) * (num + den * (n - 1)), den);
    // clique: n(n−1)(1 + α) = n(n−1)(den + num) / den
    let clique = Ratio::new(n * (n - 1) * (den + num), den);
    star.min(clique)
}

/// The social cost ratio `ρ(G) = cost(G) / cost(OPT)` (paper, Section 1.1).
///
/// # Errors
///
/// Returns [`GameError::Disconnected`] for disconnected graphs.
pub fn social_cost_ratio(g: &Graph, alpha: Alpha) -> Result<Ratio, GameError> {
    Ok(ratio_against_optimum(social_cost(g, alpha)?, g.n(), alpha))
}

/// The single definition of `ρ = cost / cost(OPT)`, shared by the
/// graph-based and the engine-based entry points.
pub(crate) fn ratio_against_optimum(cost: Ratio, n: usize, alpha: Alpha) -> Ratio {
    let opt = optimum_cost(n, alpha);
    if opt.num() == 0 {
        // n ≤ 1: a single agent is trivially optimal.
        return Ratio::new(1, 1);
    }
    cost.div(&opt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bncg_graph::generators;

    fn a(s: &str) -> Alpha {
        s.parse().unwrap()
    }

    #[test]
    fn star_is_optimal_for_alpha_above_one() {
        let alpha = a("2");
        for n in 2..8 {
            let star = generators::star(n);
            let rho = social_cost_ratio(&star, alpha).unwrap();
            assert_eq!(rho, Ratio::new(1, 1), "star must be optimal at n = {n}");
        }
    }

    #[test]
    fn clique_is_optimal_for_alpha_below_one() {
        let alpha = a("1/2");
        for n in 2..7 {
            let clique = generators::clique(n);
            let rho = social_cost_ratio(&clique, alpha).unwrap();
            assert_eq!(rho, Ratio::new(1, 1), "clique must be optimal at n = {n}");
        }
    }

    #[test]
    fn star_and_clique_tie_at_alpha_one() {
        let alpha = a("1");
        for n in 2..7 {
            let star = social_cost(&generators::star(n), alpha).unwrap();
            let clique = social_cost(&generators::clique(n), alpha).unwrap();
            assert_eq!(star, clique);
        }
    }

    #[test]
    fn no_small_graph_beats_the_optimum() {
        // Exhaustive sanity check of the closed form on all connected
        // graphs with 5 nodes.
        for alpha in ["1/2", "1", "3/2", "4", "30"] {
            let alpha = a(alpha);
            let opt = optimum_cost(5, alpha);
            for g in bncg_graph::enumerate::connected_graphs(5).unwrap() {
                let c = social_cost(&g, alpha).unwrap();
                assert!(c >= opt, "graph beats closed-form optimum at α = {alpha}");
            }
        }
    }

    #[test]
    fn agent_cost_counts_unreachable() {
        let g = Graph::from_edges(4, [(0, 1)]).unwrap();
        let c = agent_cost(&g, 0);
        assert_eq!(c.unreachable, 2);
        assert_eq!(c.dist, 1);
        assert_eq!(c.edges, 1);
    }

    #[test]
    fn lexicographic_preference_for_reachability() {
        let alpha = a("1");
        // Reaching one more node beats any finite saving.
        let more_reach = AgentCost {
            unreachable: 0,
            edges: 50,
            dist: 10_000,
        };
        let less_reach = AgentCost {
            unreachable: 1,
            edges: 0,
            dist: 0,
        };
        assert!(more_reach.better_than(&less_reach, alpha));
        assert!(!less_reach.better_than(&more_reach, alpha));
    }

    #[test]
    fn strictness_at_fractional_alpha() {
        // α = 1/2: one extra edge for a distance saving of 1 is strictly
        // improving; a saving of exactly α·2 = 1 for 2 edges is not.
        let alpha = a("1/2");
        let before = AgentCost {
            unreachable: 0,
            edges: 1,
            dist: 10,
        };
        let after = AgentCost {
            unreachable: 0,
            edges: 2,
            dist: 9,
        };
        assert!(after.better_than(&before, alpha));
        let after_tie = AgentCost {
            unreachable: 0,
            edges: 3,
            dist: 9,
        };
        assert!(!after_tie.better_than(&before, alpha));
        assert_eq!(after_tie.compare(&before, alpha), Ordering::Equal);
    }

    #[test]
    fn matrix_and_bfs_costs_agree() {
        let mut rng = bncg_graph::test_rng(77);
        for _ in 0..10 {
            let g = generators::random_connected(15, 0.2, &mut rng);
            let d = DistanceMatrix::new(&g);
            for u in 0..15u32 {
                assert_eq!(agent_cost(&g, u), agent_cost_from_matrix(&g, &d, u));
            }
        }
    }

    #[test]
    fn bitset_and_bfs_costs_agree() {
        // Includes disconnected G(n, p) draws: the unreachable count and
        // the finite distance sum must both match the scalar reference.
        let mut rng = bncg_graph::test_rng(78);
        for _ in 0..10 {
            let g = generators::gnp(20, 0.15, &mut rng);
            let bits = BitsetGraph::from_graph(&g).unwrap();
            for u in 0..20u32 {
                assert_eq!(agent_cost(&g, u), agent_cost_bits(&bits, u));
            }
        }
    }

    #[test]
    fn social_cost_of_disconnected_graph_errors() {
        let g = Graph::new(3);
        assert_eq!(social_cost(&g, a("1")), Err(GameError::Disconnected));
    }

    #[test]
    fn social_cost_matches_manual_path() {
        // Path on 3 nodes, α = 2: buy = 2α·m = 8; dist = 2·(1+2) + 2 = 8.
        let g = generators::path(3);
        let c = social_cost(&g, a("2")).unwrap();
        assert_eq!(c, Ratio::new(16, 1));
    }

    #[test]
    fn rho_of_single_node() {
        let g = Graph::new(1);
        assert_eq!(social_cost_ratio(&g, a("1")).unwrap(), Ratio::new(1, 1));
    }

    #[test]
    fn ratio_arithmetic() {
        let r = Ratio::new(6, 4);
        assert_eq!(r, Ratio::new(3, 2));
        assert_eq!(r.div(&Ratio::new(1, 2)), Ratio::new(3, 1));
        assert_eq!(r.to_string(), "6/4");
        assert_eq!(Ratio::new(5, 1).to_string(), "5");
        assert!(Ratio::new(-3, -2) == Ratio::new(3, 2));
    }
}
