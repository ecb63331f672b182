//! Stretched binary trees and stretched tree stars — the lower-bound
//! machinery of Sections 3.2.2 and 3.2.3 (Figure 3).
//!
//! A *k-stretched binary tree* replaces every edge of a complete binary
//! tree of depth `d` by a path of `k` edges; a *stretched tree star* glues
//! `⌈(η−1)/|T|⌉` copies of a stretched tree to a shared root. The paper
//! instantiates these to prove `Ω(log α)` PoA lower bounds for BGE
//! (Theorem 3.10) and BNE (Theorem 3.12).

use bncg_core::Alpha;
use bncg_graph::Graph;

/// A k-stretched binary tree together with the bookkeeping the proofs use.
///
/// Node 0 is the root `r`. The nodes of the underlying binary tree `B`
/// (the "joints") are recorded in [`StretchedBinaryTree::b_nodes`].
///
/// # Examples
///
/// ```
/// use bncg_constructions::stretched::StretchedBinaryTree;
///
/// // Figure 3: d = 2, k = 3 has (2^{d+1} − 2)·k + 1 = 19 nodes.
/// let t = StretchedBinaryTree::build(2, 3);
/// assert_eq!(t.graph.n(), 19);
/// assert!(t.graph.is_tree());
/// assert_eq!(t.depth(), 6); // k · d
/// ```
#[derive(Debug, Clone)]
pub struct StretchedBinaryTree {
    /// The tree itself.
    pub graph: Graph,
    /// Depth of the underlying binary tree.
    pub d: usize,
    /// Stretch factor.
    pub k: usize,
    /// Nodes corresponding to the underlying binary tree (including the
    /// root), in BFS order of `B`.
    pub b_nodes: Vec<u32>,
}

impl StretchedBinaryTree {
    /// Builds the k-stretched binary tree of depth `d` (of the underlying
    /// binary tree `B`).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    #[must_use]
    pub fn build(d: usize, k: usize) -> Self {
        assert!(k >= 1, "stretch factor must be at least 1");
        // |B| = 2^{d+1} − 1; nodes of T: (|B| − 1)·k + 1.
        let b_count = (1usize << (d + 1)) - 1;
        let n = (b_count - 1) * k + 1;
        let mut graph = Graph::new(n);
        let mut b_nodes = vec![0u32; b_count];
        let mut next = 1u32;
        // BFS over B: b-index i has children 2i+1, 2i+2.
        for i in 0..b_count {
            for child in [2 * i + 1, 2 * i + 2] {
                if child >= b_count {
                    continue;
                }
                // Path of k edges from b_nodes[i] to the new joint.
                let mut prev = b_nodes[i];
                for _ in 0..k {
                    graph
                        .add_edge(prev, next)
                        .expect("stretched layout is simple");
                    prev = next;
                    next += 1;
                }
                b_nodes[child] = prev;
            }
        }
        debug_assert_eq!(next as usize, n);
        StretchedBinaryTree {
            graph,
            d,
            k,
            b_nodes,
        }
    }

    /// Largest stretched tree with parameter `k` and at most `t` nodes
    /// (`d` maximal subject to `n ≤ t`), per the stretched-tree-star
    /// definition. Returns `d = 0` (a single node) if even depth 1 exceeds
    /// `t`.
    #[must_use]
    pub(crate) fn with_target_size(k: usize, t: usize) -> Self {
        let mut d = 0usize;
        loop {
            let next_n = ((1usize << (d + 2)) - 2) * k + 1;
            if next_n > t {
                break;
            }
            d += 1;
        }
        StretchedBinaryTree::build(d, k)
    }

    /// Depth of the stretched tree: `k · d`.
    #[must_use]
    pub fn depth(&self) -> u32 {
        (self.k * self.d) as u32
    }
}

/// A stretched tree star (Section 3.2.2): a root with
/// `⌈(η−1)/|T|⌉` stretched-tree children.
#[derive(Debug, Clone)]
pub struct StretchedTreeStar {
    /// The tree itself; node 0 is the shared root.
    pub graph: Graph,
    /// The stretched subtree that was replicated.
    pub subtree: StretchedBinaryTree,
    /// Number of copies attached to the root.
    pub copies: usize,
}

impl StretchedTreeStar {
    /// Builds a stretched tree star with stretch factor `k`, target subtree
    /// size `t`, and target total size `eta`.
    ///
    /// The definition requires `t ≥ 2k + 1` and `η ≥ 2t + 1`; the
    /// constructor clamps `t` up to `2k + 1` and panics on an inconsistent
    /// `eta`.
    ///
    /// # Panics
    ///
    /// Panics if `eta < 2t + 1` after clamping, or `k == 0`.
    #[must_use]
    pub fn build(k: usize, t: usize, eta: usize) -> Self {
        let t = t.max(2 * k + 1);
        assert!(eta > 2 * t, "target size must be at least 2t + 1");
        let subtree = StretchedBinaryTree::with_target_size(k, t);
        let sub_n = subtree.graph.n();
        let copies = (eta - 1).div_ceil(sub_n);
        let n = copies * sub_n + 1;
        let mut graph = Graph::new(n);
        for c in 0..copies {
            let offset = (1 + c * sub_n) as u32;
            graph
                .add_edge(0, offset)
                .expect("root-to-copy edge is simple");
            for (u, v) in subtree.graph.edges() {
                graph
                    .add_edge(offset + u, offset + v)
                    .expect("copy edges are simple");
            }
        }
        StretchedTreeStar {
            graph,
            subtree,
            copies,
        }
    }

    /// Depth of the star: `1 + depth(T)`.
    #[must_use]
    pub fn depth(&self) -> u32 {
        1 + self.subtree.depth()
    }
}

/// The executable inequality of Lemma 3.11: a stretched tree star with
/// parameter `k` (where `k = 1` or `α ≥ 6kn`) is in BNE if
/// `3n·depth(G)/α + 1 ≤ α / (3|T|·depth(G))`.
///
/// Evaluated exactly in integer arithmetic after clearing denominators.
#[must_use]
pub fn lemma_3_11_certificate(star: &StretchedTreeStar, alpha: Alpha) -> bool {
    lemma_3_11_certificate_params(
        star.graph.n(),
        star.depth(),
        star.subtree.graph.n(),
        star.subtree.k,
        alpha,
    )
}

/// Parameter-level form of [`lemma_3_11_certificate`], for instances too
/// large to materialize (the inequality only needs `n`, `depth(G)`, `|T|`,
/// and `k`).
#[must_use]
pub(crate) fn lemma_3_11_certificate_params(
    n: usize,
    depth: u32,
    t_size: usize,
    k: usize,
    alpha: Alpha,
) -> bool {
    let n = n as i128;
    let depth = i128::from(depth);
    let t_size = t_size as i128;
    let num = i128::from(alpha.num());
    let den = i128::from(alpha.den());
    // Precondition: k = 1 or α ≥ 6kn.
    let precondition = k == 1 || num >= 6 * k as i128 * n * den;
    if !precondition {
        return false;
    }
    // 3n·depth/α + 1 ≤ α/(3|T|·depth), with α = num/den:
    // LHS = (3n·depth·den + num)/num, RHS = num/(3|T|·depth·den), so
    // cross-multiplying the positive denominators gives
    // (3n·depth·den + num)·(3|T|·depth·den) ≤ num².
    let lhs = (3 * n * depth * den + num) * (3 * t_size * depth * den);
    let rhs = num * num;
    lhs <= rhs
}

/// Parameters for Theorem 3.10's BGE lower-bound instance: `k = 1`,
/// `t = α/15`, target size `η`. Requires `α ≥ 15·(2k+1)` so the subtree is
/// nontrivial, and `η ≥ α` as in the theorem statement.
#[must_use]
pub fn theorem_3_10_instance(alpha_int: usize, eta: usize) -> StretchedTreeStar {
    let t = (alpha_int / 15).max(3);
    StretchedTreeStar::build(1, t, eta.max(2 * t + 1))
}

/// Parameters for Theorem 3.12(i): `k = ⌊α/(9η)⌋`, `t = η^{1−ε/2}`.
#[must_use]
pub fn theorem_3_12_i_instance(alpha_int: usize, eta: usize, eps: f64) -> StretchedTreeStar {
    let k = (alpha_int / (9 * eta)).max(1);
    let t = (eta as f64).powf(1.0 - eps / 2.0).round() as usize;
    StretchedTreeStar::build(k, t.max(2 * k + 1), eta.max(2 * t.max(2 * k + 1) + 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bncg_core::Concept;
    use bncg_graph::{root_at_median, DistanceMatrix};

    fn a(v: i64) -> Alpha {
        Alpha::integer(v).unwrap()
    }

    /// Parameters for Theorem 3.12(ii): `k = 1`, `t = η^ε`.
    fn theorem_3_12_ii_instance(eta: usize, eps: f64) -> StretchedTreeStar {
        let t = (eta as f64).powf(eps).round() as usize;
        StretchedTreeStar::build(1, t.max(3), eta.max(2 * t.max(3) + 1))
    }

    #[test]
    fn figure_3_shape() {
        // Figure 3: complete binary tree d = 2 and 3-stretched version.
        let plain = StretchedBinaryTree::build(2, 1);
        assert_eq!(plain.graph.n(), 7);
        assert_eq!(plain.depth(), 2);
        let stretched = StretchedBinaryTree::build(2, 3);
        assert_eq!(stretched.graph.n(), 19);
        assert_eq!(stretched.depth(), 6);
        assert!(stretched.graph.is_tree());
        // Joint distances scale by k (dist_T(u,v) = k·dist_B(u,v)).
        let d = DistanceMatrix::new(&stretched.graph);
        let b = &stretched.b_nodes;
        assert_eq!(d.dist(b[0], b[1]), 3);
        assert_eq!(d.dist(b[1], b[2]), 6);
        assert_eq!(d.dist(b[3], b[6]), 12);
    }

    #[test]
    fn root_is_median_of_stretched_tree() {
        let t = StretchedBinaryTree::build(3, 2);
        let rooted = root_at_median(&t.graph).unwrap();
        assert_eq!(rooted.root(), 0);
    }

    #[test]
    fn with_target_size_is_maximal() {
        for k in 1..4usize {
            for t in (2 * k + 1)..60 {
                let tree = StretchedBinaryTree::with_target_size(k, t);
                assert!(tree.graph.n() <= t.max(1));
                let bigger = StretchedBinaryTree::build(tree.d + 1, k);
                assert!(bigger.graph.n() > t, "d should be maximal (k={k}, t={t})");
            }
        }
    }

    #[test]
    fn star_size_bounds_match_lemma_d9() {
        // Lemma D.9: η ≤ n ≤ 3η/2 and depth(G) ≤ 2k·log₂ t.
        for (k, t, eta) in [(1usize, 7usize, 40usize), (2, 11, 60), (3, 31, 200)] {
            let star = StretchedTreeStar::build(k, t, eta);
            let n = star.graph.n();
            assert!(n >= eta, "n ≥ η violated: n = {n}, η = {eta}");
            assert!(
                n <= 3 * eta / 2 + 1,
                "n ≤ 3η/2 violated: n = {n}, η = {eta}"
            );
            let depth_bound = 2.0 * k as f64 * (t as f64).log2();
            assert!(f64::from(star.depth()) <= depth_bound + 1.0);
            assert!(star.graph.is_tree());
        }
    }

    #[test]
    fn proposition_3_8_stretched_tree_is_bge_for_large_alpha() {
        // α ≥ 7kn suffices for BGE (trees are automatically in RE).
        for (d, k) in [(2usize, 1usize), (2, 2), (3, 1)] {
            let t = StretchedBinaryTree::build(d, k);
            let n = t.graph.n();
            let alpha = a((7 * k * n) as i64);
            assert!(
                Concept::Bge.is_stable(&t.graph, alpha).unwrap(),
                "stretched tree (d={d}, k={k}) must be BGE at α = 7kn"
            );
        }
    }

    #[test]
    fn small_alpha_destabilizes_stretched_trees() {
        // Far below the threshold the deep leaves rewire.
        let t = StretchedBinaryTree::build(3, 2);
        assert!(Concept::Bge
            .find_violation(&t.graph, a(2))
            .unwrap()
            .is_some());
    }

    #[test]
    fn theorem_3_10_instance_is_bge_and_costly() {
        // α = 600, η = 600: k = 1, t = 40.
        let star = theorem_3_10_instance(600, 600);
        let alpha = a(600);
        assert!(star.graph.is_tree());
        assert!(
            Concept::Bge.is_stable(&star.graph, alpha).unwrap(),
            "Theorem 3.10 instance must be in BGE"
        );
        // Its ρ must exceed 1 (it is a bad equilibrium, though the
        // asymptotic ¼log α − 17/8 only binds for large α).
        let rho = bncg_core::social_cost_ratio(&star.graph, alpha).unwrap();
        assert!(rho.as_f64() > 1.0);
    }

    #[test]
    fn lemma_3_11_certificate_matches_direct_inequality() {
        let star = theorem_3_12_ii_instance(400, 0.5);
        // t = 20, |T| small, depth small: scan α values and compare the
        // exact certificate against a float evaluation with slack.
        for alpha_v in [50i64, 100, 200, 400, 1000] {
            let alpha = a(alpha_v);
            let exact = lemma_3_11_certificate(&star, alpha);
            let n = star.graph.n() as f64;
            let depth = f64::from(star.depth());
            let t_size = star.subtree.graph.n() as f64;
            let av = alpha.as_f64();
            let float = 3.0 * n * depth / av + 1.0 <= av / (3.0 * t_size * depth);
            assert_eq!(exact, float, "certificate mismatch at α = {alpha_v}");
        }
    }

    #[test]
    fn theorem_3_12_instances_certified_bne_at_paper_parameters() {
        // Theorem 3.12(i) with ε = 1, η = 2^14, α = 9η: k = 1, t = √η.
        // The certificate binds: 3n·depth/α + 1 ≈ 3.3 ≤ α/(3|T|·depth) ≈ 55.
        let eta = 1usize << 14;
        let alpha_v = 9 * eta;
        let star = theorem_3_12_i_instance(alpha_v, eta, 1.0);
        let alpha = a(alpha_v as i64);
        assert!(
            lemma_3_11_certificate(&star, alpha),
            "Lemma 3.11 certificate must hold at Theorem 3.12(i) parameters"
        );
        // Theorem 3.12(ii) needs astronomically large η before the
        // certificate margin opens (ε = 1/4, η = 2^64): check at the
        // parameter level without materializing the graph. There
        // t = η^ε = 2^16, |T| ≤ t, depth ≤ 2·log₂ t = 32,
        // n ≤ 3η/2, α = η^{1/2+ε} = 2^48.
        let n = 3u128 << 63; // 3η/2 as upper bound, fits usize? use u64 math
        let _ = n;
        let ok = lemma_3_11_certificate_params(
            usize::MAX / 8, // stand-in for 3η/2 ≈ 2.76e19 — clipped below
            33,
            1 << 16,
            1,
            Alpha::integer(1 << 48).unwrap(),
        );
        // With n ≈ 2.3e18, depth 33, |T| = 65536, α = 2^48:
        // LHS ≈ 3·2.3e18·33/2.8e14 ≈ 8.1e5; RHS ≈ 2.8e14/(3·65536·33) ≈ 4.3e7.
        assert!(
            ok,
            "Lemma 3.11 certificate must hold at Theorem 3.12(ii) scale"
        );
    }
}
