//! Breadth-first search, distances, and the all-pairs distance matrix.
//!
//! Distances are hop counts; `UNREACHABLE` marks disconnected pairs. The
//! game layer translates `UNREACHABLE` into the paper's `M` constant
//! (lexicographically dominant disconnection penalty).

use crate::bitset::BitsetGraph;
use crate::graph::Graph;
use crate::tree::RootedTree;

/// Sentinel distance for unreachable pairs.
pub const UNREACHABLE: u32 = u32::MAX;

/// Writes BFS hop distances from `src` into `out` (resized to `n`), using
/// [`UNREACHABLE`] for nodes in other components. Returns the number of
/// reachable nodes, including `src` itself.
///
/// # Panics
///
/// Panics if `src` is out of range.
///
/// # Examples
///
/// ```
/// use bncg_graph::{bfs_distances, Graph, UNREACHABLE};
///
/// let g = Graph::from_edges(4, [(0, 1), (1, 2)])?;
/// let mut dist = Vec::new();
/// let reached = bfs_distances(&g, 0, &mut dist);
/// assert_eq!(reached, 3);
/// assert_eq!(dist, vec![0, 1, 2, UNREACHABLE]);
/// # Ok::<(), bncg_graph::GraphError>(())
/// ```
pub fn bfs_distances(g: &Graph, src: u32, out: &mut Vec<u32>) -> usize {
    let n = g.n();
    assert!((src as usize) < n, "source node out of range");
    out.clear();
    out.resize(n, UNREACHABLE);
    out[src as usize] = 0;
    let mut queue = std::collections::VecDeque::with_capacity(n);
    queue.push_back(src);
    let mut reached = 1usize;
    while let Some(u) = queue.pop_front() {
        let du = out[u as usize];
        for &v in g.neighbors(u) {
            if out[v as usize] == UNREACHABLE {
                out[v as usize] = du + 1;
                reached += 1;
                queue.push_back(v);
            }
        }
    }
    reached
}

/// The all-pairs hop-distance matrix of a graph, stored densely.
///
/// Rows are BFS distance vectors; disconnected pairs hold [`UNREACHABLE`].
///
/// # Examples
///
/// ```
/// use bncg_graph::{DistanceMatrix, Graph};
///
/// let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)])?;
/// let d = DistanceMatrix::new(&g);
/// assert_eq!(d.dist(0, 3), 3);
/// assert_eq!(d.row_sum(1), Some(4));
/// assert_eq!(d.diameter(), Some(3));
/// # Ok::<(), bncg_graph::GraphError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistanceMatrix {
    n: usize,
    d: Vec<u32>,
}

impl DistanceMatrix {
    /// Computes the distance matrix. The input picks one of three exact
    /// engines, all producing the same matrix:
    ///
    /// * `n ≤ 64` ([`crate::BITSET_MAX_N`]): one word-parallel
    ///   [`BitsetGraph`] frontier BFS per source (`O(n · diam · n)` word
    ///   ops for the whole matrix).
    /// * a tree with `n > 64`: the tree is rooted once ([`RootedTree`]);
    ///   the root's row is its layer vector and every other row is its
    ///   parent's row plus one, minus two on the child's own subtree —
    ///   one branch-free `O(n)` pass per row, no per-source BFS.
    /// * any other graph: one scalar adjacency-list BFS per source,
    ///   `O(n·(n + m))`.
    #[must_use]
    pub fn new(g: &Graph) -> Self {
        let n = g.n();
        let mut d = vec![UNREACHABLE; n * n];
        if let Some(bits) = BitsetGraph::from_graph(g) {
            for u in 0..n {
                bits.write_distances(u as u32, &mut d[u * n..(u + 1) * n]);
            }
        } else if let Ok(tree) = RootedTree::new(g, 0) {
            write_tree_rows(&tree, &mut d);
        } else {
            let mut row = Vec::new();
            for u in 0..n as u32 {
                bfs_distances(g, u, &mut row);
                d[u as usize * n..(u as usize + 1) * n].copy_from_slice(&row);
            }
        }
        DistanceMatrix { n, d }
    }

    /// Number of nodes.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Distance between `u` and `v` ([`UNREACHABLE`] if disconnected).
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range.
    #[must_use]
    pub fn dist(&self, u: u32, v: u32) -> u32 {
        self.d[u as usize * self.n + v as usize]
    }

    /// The full distance row of node `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[must_use]
    pub fn row(&self, u: u32) -> &[u32] {
        &self.d[u as usize * self.n..(u as usize + 1) * self.n]
    }

    /// Sum of distances from `u` to everyone, or `None` if `u` cannot reach
    /// some node.
    #[must_use]
    pub fn row_sum(&self, u: u32) -> Option<u64> {
        let mut sum = 0u64;
        for &d in self.row(u) {
            if d == UNREACHABLE {
                return None;
            }
            sum += u64::from(d);
        }
        Some(sum)
    }

    /// Eccentricity of `u` (max distance), or `None` if `u` cannot reach
    /// some node.
    #[must_use]
    pub(crate) fn eccentricity(&self, u: u32) -> Option<u32> {
        let mut ecc = 0u32;
        for &d in self.row(u) {
            if d == UNREACHABLE {
                return None;
            }
            ecc = ecc.max(d);
        }
        Some(ecc)
    }

    /// Diameter of the graph, or `None` if disconnected. The single-node
    /// graph has diameter 0.
    #[must_use]
    pub fn diameter(&self) -> Option<u32> {
        let mut diam = 0u32;
        for u in 0..self.n as u32 {
            diam = diam.max(self.eccentricity(u)?);
        }
        Some(diam)
    }

    /// Total distance `Σ_u Σ_v dist(u, v)` over ordered pairs, or `None`
    /// if the graph is disconnected.
    #[must_use]
    pub fn total_distance(&self) -> Option<u64> {
        let mut sum = 0u64;
        for u in 0..self.n as u32 {
            sum += self.row_sum(u)?;
        }
        Some(sum)
    }
}

/// Fills the `n × n` matrix `d` of the rooted tree `t` row by row in BFS
/// order, so every parent row is final before its children read it.
/// Moving the source from `p` to its child `c` brings the subtree `T_c`
/// one hop closer and pushes everything else one hop away; `T_c` is the
/// preorder interval `[tin(c), tin(c) + size(c))`, so membership is one
/// unsigned compare per entry.
fn write_tree_rows(t: &RootedTree, d: &mut [u32]) {
    let n = t.n();
    let tin = t.preorder_positions();
    let root = t.root() as usize;
    for (v, out) in d[root * n..(root + 1) * n].iter_mut().enumerate() {
        *out = t.layer(v as u32);
    }
    for &c in &t.bfs_order()[1..] {
        let (lo, size) = (tin[c as usize], t.subtree_size(c));
        let (c, p) = (c as usize, t.parent(c) as usize);
        let (row_p, row_c) = if p < c {
            let (head, tail) = d.split_at_mut(c * n);
            (&head[p * n..(p + 1) * n], &mut tail[..n])
        } else {
            let (head, tail) = d.split_at_mut(p * n);
            (&tail[..n], &mut head[c * n..(c + 1) * n])
        };
        for ((out, &dp), &pos) in row_c.iter_mut().zip(row_p).zip(tin) {
            let inside = u32::from(pos.wrapping_sub(lo) < size);
            // No underflow: inside `T_c` the parent is one hop further
            // than the child, so `dp = d(c, v) + 1 ≥ 1`.
            *out = dp + 1 - 2 * inside;
        }
    }
}

impl DistanceMatrix {
    /// Sources whose distance row can change when the edge `{u, v}` is
    /// **removed**: exactly those `s` with `|d(s,u) − d(s,v)| == 1`, since
    /// along any shortest path consecutive distances-from-`s` differ by
    /// exactly one, so no other source routes a shortest path through the
    /// edge. Sources that reach neither endpoint are unaffected too (if `s`
    /// reaches one endpoint of an existing edge it reaches both).
    #[must_use]
    pub(crate) fn removal_affected_sources(&self, u: u32, v: u32) -> Vec<u32> {
        let row_u = self.row(u);
        let row_v = self.row(v);
        (0..self.n as u32)
            .filter(|&s| {
                let (du, dv) = (row_u[s as usize], row_v[s as usize]);
                du != UNREACHABLE && dv != UNREACHABLE && du.abs_diff(dv) == 1
            })
            .collect()
    }

    /// Sources whose distance row can change when the edge `{u, v}` is
    /// **added**: exactly those `s` with `|d(s,u) − d(s,v)| ≥ 2` (including
    /// the case where `s` reaches one endpoint but not the other). If the
    /// endpoint distances differ by at most one, the new edge shortens no
    /// path from `s` by the triangle inequality.
    #[must_use]
    pub(crate) fn addition_affected_sources(&self, u: u32, v: u32) -> Vec<u32> {
        let row_u = self.row(u);
        let row_v = self.row(v);
        (0..self.n as u32)
            .filter(|&s| {
                let (du, dv) = (row_u[s as usize], row_v[s as usize]);
                match (du == UNREACHABLE, dv == UNREACHABLE) {
                    (true, true) => false,
                    (true, false) | (false, true) => true,
                    (false, false) => du.abs_diff(dv) >= 2,
                }
            })
            .collect()
    }

    /// Incrementally updates the matrix after the single edge `{u, v}` was
    /// toggled; `g` must be the **post-toggle** graph. Returns the sources
    /// whose rows were recomputed (a superset of those that changed is never
    /// returned — only genuinely affected sources are re-expanded).
    ///
    /// * **Addition** — affected rows are rewritten in `O(n)` each via the
    ///   exact shortcut formula `d'(s,w) = min(d(s,w), d(s,u)+1+d(v,w),
    ///   d(s,v)+1+d(u,w))` (a shortest path uses a new positive-weight edge
    ///   at most once).
    /// * **Removal** — a delta-BFS: only sources with
    ///   `|d(s,u) − d(s,v)| == 1` can route shortest paths through the
    ///   edge; exactly those are re-expanded with a fresh BFS.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range, or if `g`'s node count differs
    /// from the matrix dimension.
    ///
    /// # Examples
    ///
    /// ```
    /// use bncg_graph::{DistanceMatrix, Graph};
    ///
    /// let mut g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)])?;
    /// let mut d = DistanceMatrix::new(&g);
    /// g.add_edge(0, 3)?;
    /// let affected = d.apply_edge_toggle(&g, 0, 3);
    /// assert_eq!(d, DistanceMatrix::new(&g));
    /// assert!(affected.contains(&0) && affected.contains(&3));
    /// g.remove_edge(1, 2)?;
    /// d.apply_edge_toggle(&g, 1, 2);
    /// assert_eq!(d, DistanceMatrix::new(&g));
    /// # Ok::<(), bncg_graph::GraphError>(())
    /// ```
    pub fn apply_edge_toggle(&mut self, g: &Graph, u: u32, v: u32) -> Vec<u32> {
        assert_eq!(g.n(), self.n, "graph/matrix dimension mismatch");
        assert!(
            (u as usize) < self.n && (v as usize) < self.n,
            "endpoint out of range"
        );
        if g.has_edge(u, v) {
            self.apply_edge_addition(u, v)
        } else {
            self.apply_edge_removal(g, u, v)
        }
    }

    fn apply_edge_addition(&mut self, u: u32, v: u32) -> Vec<u32> {
        let affected = self.addition_affected_sources(u, v);
        if affected.is_empty() {
            return affected;
        }
        // The shortcut formula only reads pre-toggle distances to/from the
        // endpoints, so snapshot those two rows before rewriting anything.
        let row_u = self.row(u).to_vec();
        let row_v = self.row(v).to_vec();
        let via = |a: u32, b: u32| -> u32 {
            if a == UNREACHABLE || b == UNREACHABLE {
                UNREACHABLE
            } else {
                a + 1 + b
            }
        };
        for &s in &affected {
            let du = row_u[s as usize];
            let dv = row_v[s as usize];
            let base = s as usize * self.n;
            for w in 0..self.n {
                let old = self.d[base + w];
                let new = old.min(via(du, row_v[w])).min(via(dv, row_u[w]));
                self.d[base + w] = new;
            }
        }
        affected
    }

    fn apply_edge_removal(&mut self, g: &Graph, u: u32, v: u32) -> Vec<u32> {
        let affected = self.removal_affected_sources(u, v);
        if affected.is_empty() {
            return affected;
        }
        // The re-BFS of the affected sources is the delta-update hot
        // spot; one bitset conversion amortizes over all of them.
        if let Some(bits) = BitsetGraph::from_graph(g) {
            for &s in &affected {
                bits.write_distances(
                    s,
                    &mut self.d[s as usize * self.n..(s as usize + 1) * self.n],
                );
            }
        } else {
            let mut row = Vec::new();
            for &s in &affected {
                bfs_distances(g, s, &mut row);
                self.d[s as usize * self.n..(s as usize + 1) * self.n].copy_from_slice(&row);
            }
        }
        affected
    }
}

/// Computes the diameter directly from a graph (`None` if disconnected).
///
/// # Examples
///
/// ```
/// use bncg_graph::{diameter, generators};
///
/// assert_eq!(diameter(&generators::cycle(6)), Some(3));
/// assert_eq!(diameter(&generators::star(9)), Some(2));
/// ```
#[must_use]
pub fn diameter(g: &Graph) -> Option<u32> {
    let mut row = Vec::new();
    let mut diam = 0u32;
    for u in 0..g.n() as u32 {
        if bfs_distances(g, u, &mut row) != g.n() {
            return None;
        }
        diam = diam.max(row.iter().copied().max().unwrap_or(0));
    }
    Some(diam)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn bfs_on_disconnected_graph_reports_reachable_count() {
        let g = Graph::from_edges(5, [(0, 1), (2, 3)]).unwrap();
        let mut dist = Vec::new();
        assert_eq!(bfs_distances(&g, 2, &mut dist), 2);
        assert_eq!(dist[3], 1);
        assert_eq!(dist[0], UNREACHABLE);
        assert_eq!(dist[4], UNREACHABLE);
    }

    #[test]
    fn dist_sum_matches_matrix() {
        let g = generators::path(6);
        let d = DistanceMatrix::new(&g);
        let sums: Vec<_> = (0..6).map(|u| d.row_sum(u)).collect();
        assert_eq!(sums, [15, 11, 9, 9, 11, 15].map(Some));
    }

    #[test]
    fn dist_sum_is_none_when_disconnected() {
        let g = Graph::new(3);
        let d = DistanceMatrix::new(&g);
        assert_eq!(d.row_sum(0), None);
        assert_eq!(d.diameter(), None);
        assert_eq!(d.total_distance(), None);
    }

    #[test]
    fn matrix_is_symmetric_with_zero_diagonal() {
        let g = generators::cycle(7);
        let d = DistanceMatrix::new(&g);
        for u in 0..7u32 {
            assert_eq!(d.dist(u, u), 0);
            for v in 0..7u32 {
                assert_eq!(d.dist(u, v), d.dist(v, u));
            }
        }
    }

    #[test]
    fn path_distances_are_index_differences() {
        let g = generators::path(5);
        let d = DistanceMatrix::new(&g);
        for u in 0..5u32 {
            for v in 0..5u32 {
                assert_eq!(d.dist(u, v), u.abs_diff(v));
            }
        }
        assert_eq!(d.diameter(), Some(4));
    }

    #[test]
    fn star_total_distance_matches_closed_form() {
        // Star on n nodes: total over ordered pairs is
        // 2(n−1) (center↔leaves) + 2(n−1)(n−2) (leaf↔leaf).
        for n in 2..10u64 {
            let g = generators::star(n as usize);
            let d = DistanceMatrix::new(&g);
            assert_eq!(
                d.total_distance(),
                Some(2 * (n - 1) + 2 * (n - 1) * (n - 2))
            );
        }
    }

    #[test]
    fn tree_rows_match_per_source_bfs() {
        let mut rng = crate::test_rng(65);
        let mut trees = vec![generators::path(300), generators::star(300)];
        for n in [65, 97, 128, 200, 256] {
            let g = generators::random_tree(n, &mut rng);
            let perm = generators::random_permutation(n, &mut rng);
            trees.push(g.relabeled(&perm));
            trees.push(g);
        }
        let mut row = Vec::new();
        for g in &trees {
            let d = DistanceMatrix::new(g);
            for u in 0..g.n() as u32 {
                bfs_distances(g, u, &mut row);
                assert_eq!(d.row(u), &row[..], "row {u} of a {}-node tree", g.n());
            }
        }
    }

    #[test]
    fn edge_toggle_matches_rebuild_on_random_graphs() {
        let mut rng = crate::test_rng(4242);
        for _ in 0..30 {
            let mut g = generators::gnp(14, 0.25, &mut rng);
            let mut d = DistanceMatrix::new(&g);
            for step in 0..20 {
                // Alternate random toggles over all pairs.
                let u = step % 14;
                let v = (step * 5 + 3) % 14;
                if u == v {
                    continue;
                }
                g.toggle_edge(u as u32, v as u32).unwrap();
                d.apply_edge_toggle(&g, u as u32, v as u32);
                assert_eq!(
                    d,
                    DistanceMatrix::new(&g),
                    "drift after toggling {{{u}, {v}}}"
                );
            }
        }
    }

    #[test]
    fn affected_sources_are_sound_and_tight_on_removal() {
        // Soundness: every row that actually changes is listed. The listed
        // set may include rows that end up unchanged (multiple shortest
        // paths), which the update handles by re-BFS.
        let mut rng = crate::test_rng(7);
        for _ in 0..20 {
            let g = generators::random_connected(12, 0.3, &mut rng);
            let d = DistanceMatrix::new(&g);
            for (u, v) in g.edges() {
                let mut g2 = g.clone();
                g2.remove_edge(u, v).unwrap();
                let d2 = DistanceMatrix::new(&g2);
                let affected: std::collections::HashSet<u32> =
                    d.removal_affected_sources(u, v).into_iter().collect();
                for s in 0..12u32 {
                    if d.row(s) != d2.row(s) {
                        assert!(affected.contains(&s), "changed row {s} not predicted");
                    }
                }
            }
        }
    }

    #[test]
    fn affected_sources_are_sound_on_addition() {
        let mut rng = crate::test_rng(8);
        for _ in 0..20 {
            let g = generators::gnp(12, 0.2, &mut rng);
            let d = DistanceMatrix::new(&g);
            for (u, v) in g.non_edges() {
                let mut g2 = g.clone();
                g2.add_edge(u, v).unwrap();
                let d2 = DistanceMatrix::new(&g2);
                let affected: std::collections::HashSet<u32> =
                    d.addition_affected_sources(u, v).into_iter().collect();
                for s in 0..12u32 {
                    if d.row(s) != d2.row(s) {
                        assert!(affected.contains(&s), "changed row {s} not predicted");
                    }
                }
            }
        }
    }

    #[test]
    fn toggle_handles_component_merges_and_splits() {
        // Merging two components and splitting them again.
        let mut g = Graph::from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)]).unwrap();
        let mut d = DistanceMatrix::new(&g);
        g.add_edge(2, 3).unwrap();
        d.apply_edge_toggle(&g, 2, 3);
        assert_eq!(d, DistanceMatrix::new(&g));
        assert_eq!(d.dist(0, 5), 5);
        g.remove_edge(2, 3).unwrap();
        d.apply_edge_toggle(&g, 2, 3);
        assert_eq!(d, DistanceMatrix::new(&g));
        assert_eq!(d.dist(0, 5), UNREACHABLE);
    }

    #[test]
    fn single_node_graph_has_zero_diameter() {
        let g = Graph::new(1);
        let d = DistanceMatrix::new(&g);
        assert_eq!(d.diameter(), Some(0));
        assert_eq!(d.total_distance(), Some(0));
        assert_eq!(diameter(&g), Some(0));
    }
}
