//! Word-parallel distance kernels over a `u64`-bitset adjacency.
//!
//! # The n ≤ 64 contract
//!
//! A [`BitsetGraph`] stores one `u64` adjacency row per vertex, so it
//! exists **only for graphs on at most 64 nodes** — exactly one machine
//! word. [`BitsetGraph::from_graph`] returns `None` past that bound and
//! every caller must keep a scalar fallback. This is not a practical
//! restriction for the exponential scans it accelerates: the solver
//! layer already refuses move enumerations past mask width 64, so every
//! candidate-evaluation hot path is structurally within the contract.
//!
//! The payoff is a frontier BFS whose level expansion is pure word
//! arithmetic: OR together the adjacency rows of the current frontier's
//! bits, mask out everything already reached, and the surviving bits
//! *are* the next level. One BFS level costs `O(n)` word ops (popcounts
//! and ORs) instead of `O(n + m)` pointer chasing through adjacency
//! lists, and a whole single-source BFS costs `O(diam · n)` word ops.
//! Distance *sums* ([`BitsetGraph::cost_from`]) never materialize a row
//! at all: each level contributes `level · popcount(next)`.
//!
//! # The scalar-reference testing invariant
//!
//! The scalar substrate ([`bfs_distances`](crate::bfs_distances), the
//! adjacency-list [`Graph`]) is **kept unchanged as the reference
//! implementation**. Every bitset kernel is differential-tested against
//! it: BFS distance rows must be identical (including on disconnected
//! graphs), incrementally toggled matrices must equal rebuilt ones, and
//! the game layer's evaluated candidate streams must be bit-identical so
//! stability witnesses are unchanged. Any future kernel change must keep
//! those equivalences — the scalar path is the spec, the bitset path is
//! the optimization.

use crate::graph::Graph;
use crate::traversal::UNREACHABLE;

/// Maximum node count a [`BitsetGraph`] can represent (one `u64` word).
pub const BITSET_MAX_N: usize = 64;

/// A graph on `n ≤ 64` nodes with one `u64` adjacency word per vertex.
///
/// Bit `v` of `row(u)` is set iff the edge `{u, v}` exists. Edge updates
/// are two bit flips; BFS is word-parallel frontier expansion. The
/// module docs in `bitset.rs` spell out the n ≤ 64 contract and the
/// testing invariant tying this type to the scalar reference substrate.
///
/// # Examples
///
/// ```
/// use bncg_graph::{generators, BitsetGraph};
///
/// let g = generators::path(5);
/// let mut b = BitsetGraph::from_graph(&g).expect("n = 5 ≤ 64");
/// assert!(b.has_edge(1, 2));
/// let (unreachable, dist) = b.cost_from(0);
/// assert_eq!((unreachable, dist), (0, 1 + 2 + 3 + 4));
/// b.remove_edge(1, 2);
/// let (unreachable, _) = b.cost_from(0);
/// assert_eq!(unreachable, 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitsetGraph {
    n: usize,
    rows: [u64; BITSET_MAX_N],
}

impl BitsetGraph {
    /// Converts an adjacency-list graph, or `None` when `g.n() > 64`.
    #[must_use]
    pub fn from_graph(g: &Graph) -> Option<Self> {
        let n = g.n();
        if n > BITSET_MAX_N {
            return None;
        }
        let mut rows = [0u64; BITSET_MAX_N];
        for (u, row) in rows.iter_mut().enumerate().take(n) {
            let mut w = 0u64;
            for &v in g.neighbors(u as u32) {
                w |= 1u64 << v;
            }
            *row = w;
        }
        Some(BitsetGraph { n, rows })
    }

    /// Re-syncs the adjacency words from `g` without reallocating.
    ///
    /// # Panics
    ///
    /// Panics if `g.n()` differs from this graph's node count (use
    /// [`BitsetGraph::from_graph`] to change dimension).
    pub fn reset_from(&mut self, g: &Graph) {
        assert_eq!(g.n(), self.n, "bitset/graph dimension mismatch");
        for u in 0..self.n {
            let mut w = 0u64;
            for &v in g.neighbors(u as u32) {
                w |= 1u64 << v;
            }
            self.rows[u] = w;
        }
    }

    /// Number of nodes.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The adjacency word of `u`: bit `v` set iff `{u, v}` is an edge.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[must_use]
    pub fn row(&self, u: u32) -> u64 {
        assert!((u as usize) < self.n, "node out of range");
        self.rows[u as usize]
    }

    /// Degree of `u` (one popcount).
    #[must_use]
    pub fn degree(&self, u: u32) -> u32 {
        self.row(u).count_ones()
    }

    /// Whether the edge `{u, v}` exists.
    #[must_use]
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        self.row(u) & (1u64 << v) != 0
    }

    /// Inserts the edge `{u, v}` (idempotent; `u ≠ v` required).
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range or `u == v`.
    pub fn add_edge(&mut self, u: u32, v: u32) {
        assert!(u != v, "self loop");
        assert!(
            (u as usize) < self.n && (v as usize) < self.n,
            "node out of range"
        );
        self.rows[u as usize] |= 1u64 << v;
        self.rows[v as usize] |= 1u64 << u;
    }

    /// Deletes the edge `{u, v}` (idempotent).
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub fn remove_edge(&mut self, u: u32, v: u32) {
        assert!(
            (u as usize) < self.n && (v as usize) < self.n,
            "node out of range"
        );
        self.rows[u as usize] &= !(1u64 << v);
        self.rows[v as usize] &= !(1u64 << u);
    }

    /// Flips the edge `{u, v}`; returns `true` iff it now exists.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range or `u == v`.
    pub fn toggle_edge(&mut self, u: u32, v: u32) -> bool {
        assert!(u != v, "self loop");
        assert!(
            (u as usize) < self.n && (v as usize) < self.n,
            "node out of range"
        );
        self.rows[u as usize] ^= 1u64 << v;
        self.rows[v as usize] ^= 1u64 << u;
        self.rows[u as usize] & (1u64 << v) != 0
    }

    /// Writes BFS hop distances from `src` into `out` (all `n` entries
    /// overwritten; [`UNREACHABLE`] for other components). Returns the
    /// number of reached nodes, including `src` — the same contract as
    /// the scalar [`bfs_distances`](crate::bfs_distances).
    ///
    /// # Panics
    ///
    /// Panics if `src` is out of range or `out` is shorter than `n`.
    pub fn write_distances(&self, src: u32, out: &mut [u32]) -> usize {
        assert!((src as usize) < self.n, "source node out of range");
        let out = &mut out[..self.n];
        out.fill(UNREACHABLE);
        out[src as usize] = 0;
        let mut reached = 1u64 << src;
        let mut frontier = reached;
        let mut level = 0u32;
        while frontier != 0 {
            let mut next = 0u64;
            let mut f = frontier;
            while f != 0 {
                let v = f.trailing_zeros() as usize;
                f &= f - 1;
                next |= self.rows[v];
            }
            next &= !reached;
            level += 1;
            let mut w = next;
            while w != 0 {
                let v = w.trailing_zeros() as usize;
                w &= w - 1;
                out[v] = level;
            }
            reached |= next;
            frontier = next;
        }
        reached.count_ones() as usize
    }

    /// BFS hop distances from `src` into a `Vec` (resized to `n`),
    /// mirroring the scalar [`bfs_distances`](crate::bfs_distances)
    /// signature. Returns the number of reached nodes.
    ///
    /// # Panics
    ///
    /// Panics if `src` is out of range.
    pub fn bfs_distances(&self, src: u32, out: &mut Vec<u32>) -> usize {
        out.clear();
        out.resize(self.n, UNREACHABLE);
        self.write_distances(src, out)
    }

    /// The distance-sum kernel of the candidate-evaluation hot path:
    /// `(unreachable_count, Σ dist(src, v) over reached v)` with **no
    /// distance row materialized** — each BFS level contributes
    /// `level · popcount(level_set)` to the sum.
    ///
    /// # Panics
    ///
    /// Panics if `src` is out of range.
    #[must_use]
    pub fn cost_from(&self, src: u32) -> (u32, u64) {
        assert!((src as usize) < self.n, "source node out of range");
        let mut reached = 1u64 << src;
        let mut frontier = reached;
        let mut level = 0u64;
        let mut dist = 0u64;
        while frontier != 0 {
            let mut next = 0u64;
            let mut f = frontier;
            while f != 0 {
                let v = f.trailing_zeros() as usize;
                f &= f - 1;
                next |= self.rows[v];
            }
            next &= !reached;
            if next == 0 {
                break;
            }
            level += 1;
            dist += level * u64::from(next.count_ones());
            reached |= next;
            frontier = next;
        }
        (self.n as u32 - reached.count_ones(), dist)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::bfs_distances;
    use crate::{generators, test_rng};

    fn random_cases() -> Vec<Graph> {
        let mut rng = test_rng(0xB175E7);
        let mut cases = vec![
            Graph::new(1),
            Graph::new(5),
            generators::path(2),
            generators::star(9),
            generators::cycle(12),
            Graph::from_edges(6, [(0, 1), (1, 2), (3, 4)]).unwrap(),
        ];
        for n in [8, 17, 33, 63, 64] {
            for p in [0.05, 0.2, 0.6] {
                cases.push(generators::gnp(n, p, &mut rng));
            }
            cases.push(generators::random_connected(n, 0.1, &mut rng));
        }
        cases
    }

    #[test]
    fn bitset_bfs_matches_scalar_reference() {
        // The differential contract from the module docs: identical
        // distance rows and reach counts on every source, including
        // disconnected graphs and the n = 64 boundary.
        let mut scalar = Vec::new();
        let mut bits_row = Vec::new();
        for g in random_cases() {
            let b = BitsetGraph::from_graph(&g).unwrap();
            for u in 0..g.n() as u32 {
                let r1 = bfs_distances(&g, u, &mut scalar);
                let r2 = b.bfs_distances(u, &mut bits_row);
                assert_eq!(r1, r2, "reach count from {u}");
                assert_eq!(scalar, bits_row, "distance row from {u}");
            }
        }
    }

    #[test]
    fn cost_from_matches_materialized_rows() {
        let mut row = Vec::new();
        for g in random_cases() {
            let b = BitsetGraph::from_graph(&g).unwrap();
            for u in 0..g.n() as u32 {
                let reached = bfs_distances(&g, u, &mut row);
                let expect_unreachable = (g.n() - reached) as u32;
                let expect_dist: u64 = row
                    .iter()
                    .filter(|&&d| d != UNREACHABLE)
                    .map(|&d| u64::from(d))
                    .sum();
                assert_eq!(b.cost_from(u), (expect_unreachable, expect_dist));
            }
        }
    }

    #[test]
    fn edge_updates_mirror_the_graph() {
        let mut rng = test_rng(99);
        let g = generators::gnp(16, 0.3, &mut rng);
        let mut b = BitsetGraph::from_graph(&g).unwrap();
        let mut g2 = g.clone();
        for step in 0u32..40 {
            let u = step % 16;
            let v = (step * 7 + 3) % 16;
            if u == v {
                continue;
            }
            let now = b.toggle_edge(u, v);
            g2.toggle_edge(u, v).unwrap();
            assert_eq!(now, g2.has_edge(u, v));
            assert_eq!(b, BitsetGraph::from_graph(&g2).unwrap());
            assert_eq!(b.degree(u), g2.degree(u) as u32);
        }
        // add/remove are idempotent, unlike Graph's checked versions.
        b.add_edge(0, 1);
        b.add_edge(0, 1);
        assert!(b.has_edge(0, 1) && b.has_edge(1, 0));
        b.remove_edge(0, 1);
        b.remove_edge(0, 1);
        assert!(!b.has_edge(0, 1));
    }

    #[test]
    fn reset_from_resyncs_in_place() {
        let g = generators::cycle(10);
        let mut b = BitsetGraph::from_graph(&g).unwrap();
        b.toggle_edge(0, 5);
        b.toggle_edge(1, 2);
        b.reset_from(&g);
        assert_eq!(b, BitsetGraph::from_graph(&g).unwrap());
    }

    #[test]
    fn oversized_graphs_are_refused() {
        assert!(BitsetGraph::from_graph(&Graph::new(65)).is_none());
        assert!(BitsetGraph::from_graph(&Graph::new(64)).is_some());
    }
}
