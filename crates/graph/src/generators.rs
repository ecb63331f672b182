//! Deterministic and random graph generators used throughout the
//! reproduction: the social optima (star, clique), the paper's baseline
//! topologies (path, cycle, d-ary trees), and random instances for testing
//! and dynamics.

use crate::graph::Graph;
use rand::seq::SliceRandom;
use rand::Rng;

/// The path `0 − 1 − ⋯ − (n−1)`.
///
/// # Examples
///
/// ```
/// use bncg_graph::generators::path;
/// let g = path(4);
/// assert!(g.is_tree());
/// assert_eq!(g.degree(0), 1);
/// assert_eq!(g.degree(1), 2);
/// ```
#[must_use]
pub fn path(n: usize) -> Graph {
    let mut g = Graph::new(n);
    for u in 1..n as u32 {
        g.add_edge(u - 1, u).expect("path edges are simple");
    }
    g
}

/// The cycle `C_n` (for `n ≥ 3`); for `n < 3` returns the path.
///
/// Cycles are the paper's example of non-tree Bilateral Strong Equilibria
/// for `α ∈ Θ(n²)` (Lemma 2.4).
#[must_use]
pub fn cycle(n: usize) -> Graph {
    let mut g = path(n);
    if n >= 3 {
        g.add_edge(0, n as u32 - 1).expect("closing edge is new");
    }
    g
}

/// The star with center `0` and `n − 1` leaves — the social optimum for
/// `α ≥ 1`.
#[must_use]
pub fn star(n: usize) -> Graph {
    let mut g = Graph::new(n);
    for u in 1..n as u32 {
        g.add_edge(0, u).expect("star edges are simple");
    }
    g
}

/// The complete graph `K_n` — the social optimum for `α < 1`.
#[must_use]
pub fn clique(n: usize) -> Graph {
    let mut g = Graph::new(n);
    for u in 0..n as u32 {
        for v in u + 1..n as u32 {
            g.add_edge(u, v).expect("clique edges are simple");
        }
    }
    g
}

/// A complete `d`-ary tree of the given `depth`: every internal node has
/// exactly `d` children and all leaves sit at layer `depth`. Node `0` is the
/// root; children are laid out in BFS order.
///
/// # Panics
///
/// Panics if `d == 0`.
#[must_use]
pub fn complete_dary_tree(d: usize, depth: usize) -> Graph {
    assert!(d >= 1, "arity must be positive");
    // n = 1 + d + d² + ⋯ + d^depth
    let mut n = 1usize;
    let mut level = 1usize;
    for _ in 0..depth {
        level *= d;
        n += level;
    }
    let mut g = Graph::new(n);
    // BFS layout: children of node u are d·u + 1 .. d·u + d.
    for u in 0..n {
        for c in 1..=d {
            let child = d * u + c;
            if child < n {
                g.add_edge(u as u32, child as u32)
                    .expect("d-ary layout is simple");
            }
        }
    }
    g
}

/// An *almost complete* `d`-ary tree on exactly `n` nodes (Lemma 3.18):
/// nodes are filled in BFS order, so all layers except possibly the last are
/// full, and each agent pays for at most `d + 1` incident edges.
///
/// # Panics
///
/// Panics if `d == 0`.
#[must_use]
pub fn almost_complete_dary_tree(d: usize, n: usize) -> Graph {
    assert!(d >= 1, "arity must be positive");
    let mut g = Graph::new(n);
    for u in 1..n {
        let parent = (u - 1) / d;
        g.add_edge(parent as u32, u as u32)
            .expect("BFS layout is simple");
    }
    g
}

/// A spider: `legs` paths of length `leg_len` glued at a common center
/// (node `0`). Spiders realize the pairwise-stability PoA lower bound
/// shape (large distances at small edge counts).
#[must_use]
pub fn spider(legs: usize, leg_len: usize) -> Graph {
    let n = 1 + legs * leg_len;
    let mut g = Graph::new(n);
    let mut next = 1u32;
    for _ in 0..legs {
        let mut prev = 0u32;
        for _ in 0..leg_len {
            g.add_edge(prev, next).expect("spider edges are simple");
            prev = next;
            next += 1;
        }
    }
    g
}

/// A double star: two adjacent centers with `a` and `b` leaves respectively.
#[must_use]
pub fn double_star(a: usize, b: usize) -> Graph {
    let n = 2 + a + b;
    let mut g = Graph::new(n);
    g.add_edge(0, 1).expect("center edge is simple");
    for i in 0..a {
        g.add_edge(0, (2 + i) as u32).expect("leaf edge is simple");
    }
    for i in 0..b {
        g.add_edge(1, (2 + a + i) as u32)
            .expect("leaf edge is simple");
    }
    g
}

/// A broom: a path of length `handle` whose far end carries `bristles`
/// extra leaves.
#[must_use]
pub fn broom(handle: usize, bristles: usize) -> Graph {
    let n = handle + 1 + bristles;
    let mut g = Graph::new(n);
    for u in 1..=handle as u32 {
        g.add_edge(u - 1, u).expect("handle edge is simple");
    }
    for i in 0..bristles {
        g.add_edge(handle as u32, (handle + 1 + i) as u32)
            .expect("bristle edge is simple");
    }
    g
}

/// A caterpillar: a spine path of `spine` nodes, where spine node `i`
/// carries `legs[i]` pendant leaves. Caterpillars are the tree shapes the
/// PS-PoA worst cases concentrate on at moderate α.
///
/// # Panics
///
/// Panics if `legs.len() != spine`.
#[must_use]
pub fn caterpillar(spine: usize, legs: &[usize]) -> Graph {
    assert_eq!(legs.len(), spine, "one leg count per spine node");
    let n = spine + legs.iter().sum::<usize>();
    let mut g = Graph::new(n);
    for u in 1..spine as u32 {
        g.add_edge(u - 1, u).expect("spine edge is simple");
    }
    let mut next = spine as u32;
    for (i, &count) in legs.iter().enumerate() {
        for _ in 0..count {
            g.add_edge(i as u32, next).expect("leg edge is simple");
            next += 1;
        }
    }
    g
}

/// The complete bipartite graph `K_{a,b}` with parts `0..a` and `a..a+b`.
#[must_use]
pub fn complete_bipartite(a: usize, b: usize) -> Graph {
    let mut g = Graph::new(a + b);
    for u in 0..a as u32 {
        for v in a as u32..(a + b) as u32 {
            g.add_edge(u, v).expect("bipartite edge is simple");
        }
    }
    g
}

/// The wheel `W_n`: a hub (node 0) joined to every node of a cycle on
/// `n − 1` nodes. Requires `n ≥ 4`.
///
/// # Panics
///
/// Panics if `n < 4`.
#[must_use]
pub fn wheel(n: usize) -> Graph {
    assert!(n >= 4, "a wheel needs a hub plus a 3-cycle");
    let rim = n - 1;
    let mut g = Graph::new(n);
    for i in 0..rim as u32 {
        g.add_edge(0, 1 + i).expect("spoke is simple");
        g.add_edge(1 + i, 1 + (i + 1) % rim as u32)
            .expect("rim edge is simple");
    }
    g
}

/// A uniformly random labeled tree on `n` nodes via a random Prüfer
/// sequence.
///
/// # Examples
///
/// ```
/// use bncg_graph::generators::random_tree;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(42);
/// let g = random_tree(20, &mut rng);
/// assert!(g.is_tree());
/// ```
#[must_use]
pub fn random_tree<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Graph {
    if n <= 1 {
        return Graph::new(n);
    }
    if n == 2 {
        return path(2);
    }
    let seq: Vec<u32> = (0..n - 2).map(|_| rng.gen_range(0..n as u32)).collect();
    tree_from_pruefer(n, &seq)
}

/// Decodes a Prüfer sequence of length `n − 2` into the labeled tree it
/// encodes.
///
/// # Panics
///
/// Panics if `n < 2`, the sequence length is not `n − 2`, or an entry is out
/// of range.
#[must_use]
pub fn tree_from_pruefer(n: usize, seq: &[u32]) -> Graph {
    assert!(n >= 2, "Prüfer decoding needs n ≥ 2");
    assert_eq!(seq.len(), n - 2, "Prüfer sequence must have length n − 2");
    let mut degree = vec![1u32; n];
    for &s in seq {
        assert!((s as usize) < n, "Prüfer entry out of range");
        degree[s as usize] += 1;
    }
    let mut g = Graph::new(n);
    // Min-leaf selection via an index scan pointer plus a binary heap would
    // be overkill at reproduction sizes; use a simple BinaryHeap of leaves.
    let mut leaves: std::collections::BinaryHeap<std::cmp::Reverse<u32>> = (0..n as u32)
        .filter(|&u| degree[u as usize] == 1)
        .map(std::cmp::Reverse)
        .collect();
    for &s in seq {
        let std::cmp::Reverse(leaf) = leaves.pop().expect("a leaf always exists");
        g.add_edge(leaf, s).expect("Prüfer decoding is simple");
        degree[s as usize] -= 1;
        if degree[s as usize] == 1 {
            leaves.push(std::cmp::Reverse(s));
        }
    }
    let std::cmp::Reverse(a) = leaves.pop().expect("two leaves remain");
    let std::cmp::Reverse(b) = leaves.pop().expect("two leaves remain");
    g.add_edge(a, b).expect("final Prüfer edge is simple");
    g
}

/// An Erdős–Rényi graph `G(n, p)`.
#[must_use]
pub fn gnp<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> Graph {
    let mut g = Graph::new(n);
    for u in 0..n as u32 {
        for v in u + 1..n as u32 {
            if rng.gen_bool(p) {
                g.add_edge(u, v).expect("fresh pair");
            }
        }
    }
    g
}

/// A random connected graph: a uniform random spanning tree plus each
/// remaining pair independently with probability `extra_p`.
#[must_use]
pub fn random_connected<R: Rng + ?Sized>(n: usize, extra_p: f64, rng: &mut R) -> Graph {
    let mut g = random_tree(n, rng);
    let non_edges: Vec<(u32, u32)> = g.non_edges().collect();
    for (u, v) in non_edges {
        if rng.gen_bool(extra_p) {
            g.add_edge(u, v).expect("non-edge becomes edge");
        }
    }
    g
}

/// A random permutation of `0..n`.
#[must_use]
pub fn random_permutation<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Vec<u32> {
    let mut perm: Vec<u32> = (0..n as u32).collect();
    perm.shuffle(rng);
    perm
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::{diameter, DistanceMatrix};
    use crate::tree::tree_medians;

    #[test]
    fn basic_shapes() {
        assert!(path(7).is_tree());
        assert_eq!(cycle(7).m(), 7);
        assert_eq!(cycle(2).m(), 1);
        assert!(star(8).is_tree());
        assert_eq!(clique(6).m(), 15);
        assert_eq!(diameter(&clique(6)), Some(1));
        assert_eq!(diameter(&star(6)), Some(2));
    }

    #[test]
    fn complete_dary_tree_shape() {
        let g = complete_dary_tree(2, 3); // 1 + 2 + 4 + 8 = 15 nodes
        assert_eq!(g.n(), 15);
        assert!(g.is_tree());
        assert_eq!(g.degree(0), 2);
        let d = DistanceMatrix::new(&g);
        assert_eq!(d.eccentricity(0), Some(3));
        // ternary
        let g3 = complete_dary_tree(3, 2); // 1 + 3 + 9 = 13
        assert_eq!(g3.n(), 13);
        assert_eq!(g3.degree(0), 3);
    }

    #[test]
    fn almost_complete_dary_tree_degrees() {
        for d in 2..5usize {
            for n in 1..40usize {
                let g = almost_complete_dary_tree(d, n);
                assert!(g.is_tree() || n == 0);
                for u in 0..n as u32 {
                    // Lemma 3.18: at most d children plus one parent.
                    assert!(g.degree(u) <= d + 1);
                }
            }
        }
    }

    #[test]
    fn almost_complete_tree_depth_is_logarithmic() {
        let g = almost_complete_dary_tree(2, 1000);
        let d = DistanceMatrix::new(&g);
        // depth ≤ ⌈log2(1001)⌉ = 10
        assert!(d.eccentricity(0).unwrap() <= 10);
    }

    #[test]
    fn spider_and_broom_shapes() {
        let s = spider(3, 4);
        assert_eq!(s.n(), 13);
        assert!(s.is_tree());
        assert_eq!(s.degree(0), 3);
        assert_eq!(diameter(&s), Some(8));
        assert_eq!(tree_medians(&s).unwrap(), vec![0]);

        let b = broom(3, 4);
        assert_eq!(b.n(), 8);
        assert!(b.is_tree());
        assert_eq!(b.degree(3), 5);
    }

    #[test]
    fn double_star_shape() {
        let g = double_star(3, 2);
        assert_eq!(g.n(), 7);
        assert!(g.is_tree());
        assert_eq!(g.degree(0), 4);
        assert_eq!(g.degree(1), 3);
        assert_eq!(diameter(&g), Some(3));
    }

    #[test]
    fn caterpillar_shape() {
        let g = caterpillar(3, &[2, 0, 1]);
        assert_eq!(g.n(), 6);
        assert!(g.is_tree());
        assert_eq!(g.degree(0), 3); // spine end with 2 legs
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.degree(2), 2);
        // Degenerate: no legs at all is just a path.
        let p = caterpillar(4, &[0, 0, 0, 0]);
        assert!(crate::iso::are_isomorphic(&p, &path(4)));
    }

    #[test]
    fn complete_bipartite_shape() {
        let g = complete_bipartite(2, 3);
        assert_eq!(g.n(), 5);
        assert_eq!(g.m(), 6);
        assert!(!g.has_edge(0, 1)); // same side
        assert!(g.has_edge(0, 2));
        assert_eq!(diameter(&g), Some(2));
        // K_{1,b} is the star.
        assert!(crate::iso::are_isomorphic(
            &complete_bipartite(1, 4),
            &star(5)
        ));
    }

    #[test]
    fn wheel_shape() {
        let g = wheel(6);
        assert_eq!(g.n(), 6);
        assert_eq!(g.m(), 10); // 5 spokes + 5 rim edges
        assert_eq!(g.degree(0), 5);
        assert_eq!(diameter(&g), Some(2));
        // Minimum wheel is K4.
        assert!(crate::iso::are_isomorphic(&wheel(4), &clique(4)));
    }

    #[test]
    fn pruefer_decoding_matches_known_example() {
        // Classic example: sequence (3, 3, 3, 4) on 6 nodes gives a tree
        // where 3 has degree 4 and 4 has degree 2.
        let g = tree_from_pruefer(6, &[3, 3, 3, 4]);
        assert!(g.is_tree());
        assert_eq!(g.degree(3), 4);
        assert_eq!(g.degree(4), 2);
    }

    #[test]
    fn random_trees_are_trees() {
        let mut rng = crate::test_rng(99);
        for n in [1usize, 2, 3, 10, 57] {
            let g = random_tree(n, &mut rng);
            assert_eq!(g.n(), n);
            if n >= 1 {
                assert!(g.is_tree());
            }
        }
    }

    #[test]
    fn random_connected_is_connected() {
        let mut rng = crate::test_rng(5);
        for _ in 0..20 {
            let g = random_connected(30, 0.1, &mut rng);
            assert!(g.is_connected());
        }
    }

    #[test]
    fn gnp_extremes() {
        let mut rng = crate::test_rng(1);
        assert_eq!(gnp(10, 0.0, &mut rng).m(), 0);
        assert_eq!(gnp(10, 1.0, &mut rng).m(), 45);
    }

    #[test]
    fn random_permutation_is_permutation() {
        let mut rng = crate::test_rng(2);
        let p = random_permutation(20, &mut rng);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20u32).collect::<Vec<_>>());
    }
}
