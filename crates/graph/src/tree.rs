//! Rooted-tree machinery: layers, subtree sizes, medians, and rerooted
//! distance sums.
//!
//! The paper's tree proofs are phrased over a tree rooted at a 1-median
//! (Section 3.2); this module provides exactly those primitives.

use crate::error::GraphError;
use crate::graph::Graph;

/// A rooted view of a tree graph with precomputed structure.
///
/// Construction validates that the underlying graph is a tree. All vectors
/// are indexed by node id.
///
/// # Examples
///
/// ```
/// use bncg_graph::{generators, RootedTree};
///
/// let g = generators::path(5);
/// let t = RootedTree::new(&g, 0)?;
/// assert_eq!(t.depth(), 4);
/// assert_eq!(t.layer(3), 3);
/// assert_eq!(t.subtree_size(2), 3);
/// # Ok::<(), bncg_graph::GraphError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RootedTree {
    root: u32,
    parent: Vec<u32>,
    layer: Vec<u32>,
    /// `children(u)` is `order[kids[u].0 .. kids[u].1]`: a BFS appends
    /// the children of each node contiguously, so the order doubles as
    /// the flat child array.
    kids: Vec<(u32, u32)>,
    subtree_size: Vec<u32>,
    /// Nodes in BFS order from the root (parents precede children).
    order: Vec<u32>,
    /// Preorder positions: `T_u` is `[tin(u), tin(u) + subtree_size(u))`.
    tin: Vec<u32>,
}

impl RootedTree {
    /// Roots the tree `g` at `root`, in `O(n)`: one BFS, one bottom-up
    /// pass for the subtree sizes and one top-down pass for the
    /// preorder positions.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NotATree`] if `g` is not a tree and
    /// [`GraphError::NodeOutOfRange`] if `root` is out of range.
    pub fn new(g: &Graph, root: u32) -> Result<Self, GraphError> {
        let n = g.n();
        if root as usize >= n {
            return Err(GraphError::NodeOutOfRange { node: root, n });
        }
        // `n − 1` edges and connected is a tree; the BFS checks the
        // second half.
        if g.m() != n - 1 {
            return Err(GraphError::NotATree);
        }
        let mut parent = vec![u32::MAX; n];
        let mut layer = vec![0u32; n];
        let mut kids = vec![(0u32, 0u32); n];
        let mut order = Vec::with_capacity(n);
        parent[root as usize] = root;
        order.push(root);
        let mut head = 0usize;
        while head < order.len() {
            let u = order[head];
            head += 1;
            let first = order.len() as u32;
            for &v in g.neighbors(u) {
                if parent[v as usize] == u32::MAX {
                    parent[v as usize] = u;
                    layer[v as usize] = layer[u as usize] + 1;
                    order.push(v);
                }
            }
            kids[u as usize] = (first, order.len() as u32);
        }
        if order.len() != n {
            return Err(GraphError::NotATree);
        }

        let mut subtree_size = vec![1u32; n];
        for &u in order[1..].iter().rev() {
            subtree_size[parent[u as usize] as usize] += subtree_size[u as usize];
        }

        // Preorder positions top-down: a node's children take
        // consecutive blocks right after it, each as wide as its subtree.
        let mut tin = vec![0u32; n];
        for &u in &order {
            let (lo, hi) = kids[u as usize];
            let mut next = tin[u as usize] + 1;
            for &c in &order[lo as usize..hi as usize] {
                tin[c as usize] = next;
                next += subtree_size[c as usize];
            }
        }

        Ok(RootedTree {
            root,
            parent,
            layer,
            kids,
            subtree_size,
            order,
            tin,
        })
    }

    /// Number of nodes.
    #[must_use]
    pub fn n(&self) -> usize {
        self.parent.len()
    }

    /// The root node.
    #[must_use]
    pub fn root(&self) -> u32 {
        self.root
    }

    /// Parent of `u`; the root is its own parent.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    #[must_use]
    pub fn parent(&self, u: u32) -> u32 {
        self.parent[u as usize]
    }

    /// Layer (distance from the root) of `u` — `ℓ(u)` in the paper.
    #[inline]
    #[must_use]
    pub fn layer(&self, u: u32) -> u32 {
        self.layer[u as usize]
    }

    /// Children of `u`.
    #[must_use]
    pub fn children(&self, u: u32) -> &[u32] {
        let (lo, hi) = self.kids[u as usize];
        &self.order[lo as usize..hi as usize]
    }

    /// Size of the subtree `T_u` (including `u`).
    #[inline]
    #[must_use]
    pub fn subtree_size(&self, u: u32) -> u32 {
        self.subtree_size[u as usize]
    }

    /// Nodes in BFS order from the root; parents precede children.
    #[must_use]
    pub fn bfs_order(&self) -> &[u32] {
        &self.order
    }

    /// Preorder positions, indexed by node: the subtree `T_u` occupies
    /// exactly the positions `[tin(u), tin(u) + subtree_size(u))`.
    #[must_use]
    pub(crate) fn preorder_positions(&self) -> &[u32] {
        &self.tin
    }

    /// Depth of the whole tree: `max_u ℓ(u)`.
    #[must_use]
    pub fn depth(&self) -> u32 {
        self.layer.iter().copied().max().unwrap_or(0)
    }

    /// Depth of the subtree `T_u`: `max {dist(u, v) | v ∈ T_u}`.
    #[must_use]
    pub fn subtree_depth(&self, u: u32) -> u32 {
        let mut max = 0;
        for &v in &self.order {
            if self.is_in_subtree(v, u) {
                max = max.max(self.layer(v) - self.layer(u));
            }
        }
        max
    }

    /// Whether `v` lies in the subtree rooted at `u` (`v ∈ T_u`), using the
    /// preorder intervals — `O(1)`.
    #[inline]
    #[must_use]
    pub fn is_in_subtree(&self, v: u32, u: u32) -> bool {
        self.tin[v as usize].wrapping_sub(self.tin[u as usize]) < self.subtree_size[u as usize]
    }

    /// Collects the nodes of the subtree `T_u` in BFS order.
    #[must_use]
    pub fn subtree_nodes(&self, u: u32) -> Vec<u32> {
        self.order
            .iter()
            .copied()
            .filter(|&v| self.is_in_subtree(v, u))
            .collect()
    }

    /// Distance sums `dist(u) = Σ_v dist(u, v)` for every node via the
    /// classic rerooting recurrence, in `O(n)`.
    ///
    /// # Examples
    ///
    /// ```
    /// use bncg_graph::{generators, RootedTree};
    ///
    /// let g = generators::star(5);
    /// let t = RootedTree::new(&g, 0)?;
    /// let sums = t.dist_sums();
    /// assert_eq!(sums[0], 4);      // center
    /// assert_eq!(sums[1], 1 + 3 * 2); // a leaf
    /// # Ok::<(), bncg_graph::GraphError>(())
    /// ```
    #[must_use]
    pub fn dist_sums(&self) -> Vec<u64> {
        let n = self.n();
        let mut sums = vec![0u64; n];
        let root_sum: u64 = self.layer.iter().map(|&l| u64::from(l)).sum();
        sums[self.root as usize] = root_sum;
        for &u in &self.order {
            if u == self.root {
                continue;
            }
            let p = self.parent(u);
            let su = u64::from(self.subtree_size(u));
            sums[u as usize] = sums[p as usize] + n as u64 - 2 * su;
        }
        sums
    }

    /// The 1-median(s) of the tree: the nodes minimizing the distance sum.
    /// A tree has one or two medians; two medians are always adjacent.
    ///
    /// # Examples
    ///
    /// ```
    /// use bncg_graph::{generators, RootedTree};
    ///
    /// let path4 = generators::path(4);
    /// let t = RootedTree::new(&path4, 0)?;
    /// assert_eq!(t.one_medians(), vec![1, 2]);
    /// # Ok::<(), bncg_graph::GraphError>(())
    /// ```
    #[must_use]
    pub fn one_medians(&self) -> Vec<u32> {
        let sums = self.dist_sums();
        let min = sums.iter().copied().min().expect("tree is nonempty");
        (0..self.n() as u32)
            .filter(|&u| sums[u as usize] == min)
            .collect()
    }

    /// Every node's sum of distances into its own subtree,
    /// `dist(u, T_u) = Σ_{v ∈ T_u} dist(u, v)`, in `O(n)`.
    #[must_use]
    pub fn subtree_dist_sums(&self) -> Vec<u64> {
        let mut sums = vec![0u64; self.n()];
        for &v in self.order.iter().rev() {
            for &c in self.children(v) {
                sums[v as usize] += sums[c as usize] + u64::from(self.subtree_size(c));
            }
        }
        sums
    }
}

/// Returns the 1-median(s) of a tree graph, validating treeness.
///
/// # Errors
///
/// Returns [`GraphError::NotATree`] if `g` is not a tree.
pub fn tree_medians(g: &Graph) -> Result<Vec<u32>, GraphError> {
    let t = RootedTree::new(g, 0)?;
    Ok(t.one_medians())
}

/// Roots a tree at (one of) its 1-median(s). When there are two medians the
/// smaller node id is chosen, matching the paper's convention of an
/// arbitrary-but-fixed median root.
///
/// # Errors
///
/// Returns [`GraphError::NotATree`] if `g` is not a tree.
pub fn root_at_median(g: &Graph) -> Result<RootedTree, GraphError> {
    let medians = tree_medians(g)?;
    RootedTree::new(g, medians[0])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::traversal::DistanceMatrix;

    #[test]
    fn rejects_non_trees() {
        let cycle = generators::cycle(4);
        assert_eq!(RootedTree::new(&cycle, 0), Err(GraphError::NotATree));
        let disconnected = Graph::new(3);
        assert_eq!(RootedTree::new(&disconnected, 0), Err(GraphError::NotATree));
        let path = generators::path(3);
        assert_eq!(
            RootedTree::new(&path, 9),
            Err(GraphError::NodeOutOfRange { node: 9, n: 3 })
        );
    }

    #[test]
    fn layers_match_bfs_distances() {
        let g = generators::random_tree(40, &mut crate::test_rng(7));
        let t = RootedTree::new(&g, 3).unwrap();
        let d = DistanceMatrix::new(&g);
        for u in 0..40u32 {
            assert_eq!(t.layer(u), d.dist(3, u));
        }
    }

    #[test]
    fn subtree_sizes_sum_over_children() {
        let g = generators::random_tree(60, &mut crate::test_rng(11));
        let t = RootedTree::new(&g, 0).unwrap();
        for u in 0..60u32 {
            let from_children: u32 = t.children(u).iter().map(|&c| t.subtree_size(c)).sum();
            assert_eq!(t.subtree_size(u), 1 + from_children);
        }
        assert_eq!(t.subtree_size(0), 60);
    }

    #[test]
    fn dist_sums_match_matrix() {
        let g = generators::random_tree(50, &mut crate::test_rng(3));
        let t = RootedTree::new(&g, 5).unwrap();
        let d = DistanceMatrix::new(&g);
        let sums = t.dist_sums();
        for u in 0..50u32 {
            assert_eq!(sums[u as usize], d.row_sum(u).unwrap());
        }
    }

    #[test]
    fn medians_have_all_components_at_most_half() {
        // Jordan: the distance-sum median of a tree is also the centroid.
        let g = generators::random_tree(31, &mut crate::test_rng(19));
        let medians = tree_medians(&g).unwrap();
        assert!(!medians.is_empty() && medians.len() <= 2);
        for &m in &medians {
            let t = RootedTree::new(&g, m).unwrap();
            for &c in t.children(m) {
                assert!(t.subtree_size(c) as usize * 2 <= g.n());
            }
        }
    }

    #[test]
    fn two_medians_are_adjacent() {
        let g = generators::path(6);
        let medians = tree_medians(&g).unwrap();
        assert_eq!(medians, vec![2, 3]);
        assert!(g.has_edge(medians[0], medians[1]));
    }

    #[test]
    fn star_median_is_center() {
        let g = generators::star(9);
        assert_eq!(tree_medians(&g).unwrap(), vec![0]);
        let t = root_at_median(&g).unwrap();
        assert_eq!(t.root(), 0);
        assert_eq!(t.depth(), 1);
    }

    #[test]
    fn subtree_membership_and_nodes() {
        // path 0-1-2-3-4 rooted at 0
        let g = generators::path(5);
        let t = RootedTree::new(&g, 0).unwrap();
        assert!(t.is_in_subtree(4, 2));
        assert!(t.is_in_subtree(2, 2));
        assert!(!t.is_in_subtree(1, 2));
        assert_eq!(t.subtree_nodes(2), vec![2, 3, 4]);
        assert_eq!(t.subtree_depth(2), 2);
        assert_eq!(t.subtree_depth(4), 0);
    }

    #[test]
    fn subtree_dist_sums_match_matrix() {
        let g = generators::random_tree(30, &mut crate::test_rng(23));
        let t = RootedTree::new(&g, 0).unwrap();
        let d = DistanceMatrix::new(&g);
        let sums = t.subtree_dist_sums();
        for u in 0..30u32 {
            let expected: u64 = t
                .subtree_nodes(u)
                .iter()
                .map(|&v| u64::from(d.dist(u, v)))
                .sum();
            assert_eq!(sums[u as usize], expected);
        }
    }

    #[test]
    fn preorder_positions_lay_subtrees_out_contiguously() {
        let g = generators::random_tree(45, &mut crate::test_rng(37));
        let t = RootedTree::new(&g, 6).unwrap();
        let tin = t.preorder_positions();
        for u in 0..45u32 {
            let (lo, size) = (tin[u as usize], t.subtree_size(u));
            for v in 0..45u32 {
                let inside = (lo..lo + size).contains(&tin[v as usize]);
                assert_eq!(inside, t.is_in_subtree(v, u), "u = {u}, v = {v}");
            }
        }
    }

    #[test]
    fn bfs_order_puts_parents_first() {
        let g = generators::random_tree(25, &mut crate::test_rng(31));
        let t = RootedTree::new(&g, 4).unwrap();
        let pos: Vec<usize> = {
            let mut pos = vec![0; 25];
            for (i, &u) in t.bfs_order().iter().enumerate() {
                pos[u as usize] = i;
            }
            pos
        };
        for u in 0..25u32 {
            if u != t.root() {
                assert!(pos[t.parent(u) as usize] < pos[u as usize]);
            }
        }
    }

    #[test]
    fn single_node_tree() {
        let g = Graph::new(1);
        let t = RootedTree::new(&g, 0).unwrap();
        assert_eq!(t.depth(), 0);
        assert_eq!(t.one_medians(), vec![0]);
        assert_eq!(t.dist_sums(), vec![0]);
        assert_eq!(t.subtree_dist_sums(), vec![0]);
    }
}
