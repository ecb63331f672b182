//! The core undirected simple-graph type.

use crate::error::GraphError;

/// An undirected simple graph over nodes `0..n` with sorted adjacency lists.
///
/// This is the substrate every game-theoretic structure in the reproduction
/// is built on. Nodes are dense `u32` ids; edges are unordered pairs of
/// distinct nodes. The representation keeps each neighbor list sorted so that
/// adjacency tests are `O(log deg)` and edge iteration is deterministic.
///
/// # Examples
///
/// ```
/// use bncg_graph::Graph;
///
/// let mut g = Graph::new(4);
/// g.add_edge(0, 1).unwrap();
/// g.add_edge(1, 2).unwrap();
/// g.add_edge(2, 3).unwrap();
/// assert!(g.is_tree());
/// assert_eq!(g.degree(1), 2);
/// assert!(g.has_edge(2, 1));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Graph {
    adj: Vec<Vec<u32>>,
    m: usize,
}

/// FNV-1a offset basis for the stable fingerprints.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One FNV-1a step over the little-endian bytes of `v` — the stable
/// 64-bit hash primitive behind [`Graph::fingerprint`] (and the game
/// layer's instance binding). Deterministic across platforms, processes,
/// and compiler versions, unlike `std`'s `DefaultHasher`.
#[must_use]
pub fn fnv1a_u64(mut h: u64, v: u64) -> u64 {
    for b in v.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The FNV-1a digest of a sequence of newline-terminated text lines:
/// [`fnv1a_u64`] over each byte, from the offset basis. A stable pin
/// for ordered string lists — the graph6 lines of a class enumeration,
/// the record lines of an atlas — that changes if any byte or the order
/// does.
///
/// # Examples
///
/// ```
/// use bncg_graph::fnv1a_lines;
///
/// assert_ne!(fnv1a_lines(["A", "B"]), fnv1a_lines(["B", "A"]));
/// assert_ne!(fnv1a_lines(["AB"]), fnv1a_lines(["A", "B"]));
/// ```
#[must_use]
pub fn fnv1a_lines<'a>(lines: impl IntoIterator<Item = &'a str>) -> u64 {
    lines.into_iter().fold(FNV_OFFSET, |h, line| {
        line.bytes()
            .chain([b'\n'])
            .fold(h, |h, b| fnv1a_u64(h, u64::from(b)))
    })
}

impl Graph {
    /// Creates an edgeless graph on `n` nodes.
    ///
    /// # Examples
    ///
    /// ```
    /// use bncg_graph::Graph;
    /// let g = Graph::new(5);
    /// assert_eq!(g.n(), 5);
    /// assert_eq!(g.m(), 0);
    /// ```
    #[must_use]
    pub fn new(n: usize) -> Self {
        Graph {
            adj: vec![Vec::new(); n],
            m: 0,
        }
    }

    /// Builds a graph on `n` nodes from an edge list.
    ///
    /// # Errors
    ///
    /// Returns an error if any endpoint is out of range, an edge is a self
    /// loop, or an edge appears twice.
    ///
    /// # Examples
    ///
    /// ```
    /// use bncg_graph::Graph;
    /// let g = Graph::from_edges(3, [(0, 1), (1, 2)])?;
    /// assert_eq!(g.m(), 2);
    /// # Ok::<(), bncg_graph::GraphError>(())
    /// ```
    pub fn from_edges<I>(n: usize, edges: I) -> Result<Self, GraphError>
    where
        I: IntoIterator<Item = (u32, u32)>,
    {
        let mut g = Graph::new(n);
        for (u, v) in edges {
            g.add_edge(u, v)?;
        }
        Ok(g)
    }

    /// Number of nodes.
    #[must_use]
    pub fn n(&self) -> usize {
        self.adj.len()
    }

    /// Number of edges.
    #[must_use]
    pub fn m(&self) -> usize {
        self.m
    }

    /// A 64-bit fingerprint of the node count and the canonical (sorted)
    /// edge list — the labelled graph's identity in `O(1)` memory, for
    /// visited-state sets (round-robin cycle detection) and for binding
    /// resume tokens to the instance they were issued for. FNV-1a, so
    /// the value is **stable across platforms, processes, and Rust
    /// toolchains** (unlike `DefaultHasher`) — serialized tokens keep
    /// resolving on any replica. Two graphs collide with probability
    /// ≈ 2⁻⁶⁴; isomorphic but differently labelled graphs are *not*
    /// identified.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut h = fnv1a_u64(FNV_OFFSET, self.n() as u64);
        for (u, v) in self.edges() {
            h = fnv1a_u64(h, u64::from(u) << 32 | u64::from(v));
        }
        h
    }

    /// Degree of node `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[must_use]
    pub fn degree(&self, u: u32) -> usize {
        self.adj[u as usize].len()
    }

    /// The sorted neighbor list of `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[must_use]
    pub fn neighbors(&self, u: u32) -> &[u32] {
        &self.adj[u as usize]
    }

    /// Whether the edge `{u, v}` is present. Returns `false` for `u == v`
    /// and for out-of-range endpoints.
    #[must_use]
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        if u == v || u as usize >= self.n() || v as usize >= self.n() {
            return false;
        }
        self.adj[u as usize].binary_search(&v).is_ok()
    }

    fn check_endpoints(&self, u: u32, v: u32) -> Result<(), GraphError> {
        let n = self.n();
        if u as usize >= n {
            return Err(GraphError::NodeOutOfRange { node: u, n });
        }
        if v as usize >= n {
            return Err(GraphError::NodeOutOfRange { node: v, n });
        }
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        Ok(())
    }

    /// Adds the edge `{u, v}`.
    ///
    /// # Errors
    ///
    /// Returns an error on out-of-range endpoints, a self loop, or if the
    /// edge already exists.
    pub fn add_edge(&mut self, u: u32, v: u32) -> Result<(), GraphError> {
        self.check_endpoints(u, v)?;
        let pos_v = match self.adj[u as usize].binary_search(&v) {
            Ok(_) => return Err(GraphError::DuplicateEdge { u, v }),
            Err(pos) => pos,
        };
        self.adj[u as usize].insert(pos_v, v);
        let pos_u = self.adj[v as usize]
            .binary_search(&u)
            .expect_err("edge set must stay symmetric");
        self.adj[v as usize].insert(pos_u, u);
        self.m += 1;
        Ok(())
    }

    /// Removes the edge `{u, v}`.
    ///
    /// # Errors
    ///
    /// Returns an error on out-of-range endpoints, a self loop, or if the
    /// edge does not exist.
    pub fn remove_edge(&mut self, u: u32, v: u32) -> Result<(), GraphError> {
        self.check_endpoints(u, v)?;
        let pos_v = self.adj[u as usize]
            .binary_search(&v)
            .map_err(|_| GraphError::MissingEdge { u, v })?;
        self.adj[u as usize].remove(pos_v);
        let pos_u = self.adj[v as usize]
            .binary_search(&u)
            .expect("edge set must stay symmetric");
        self.adj[v as usize].remove(pos_u);
        self.m -= 1;
        Ok(())
    }

    /// Toggles the edge `{u, v}`: adds it if absent, removes it if present.
    /// Returns `true` if the edge is present after the call.
    ///
    /// # Errors
    ///
    /// Returns an error on out-of-range endpoints or a self loop.
    pub fn toggle_edge(&mut self, u: u32, v: u32) -> Result<bool, GraphError> {
        self.check_endpoints(u, v)?;
        if self.has_edge(u, v) {
            self.remove_edge(u, v)?;
            Ok(false)
        } else {
            self.add_edge(u, v)?;
            Ok(true)
        }
    }

    /// Iterates over all edges as pairs `(u, v)` with `u < v`, ordered
    /// lexicographically.
    ///
    /// # Examples
    ///
    /// ```
    /// use bncg_graph::Graph;
    /// let g = Graph::from_edges(3, [(2, 1), (0, 2)])?;
    /// let edges: Vec<_> = g.edges().collect();
    /// assert_eq!(edges, vec![(0, 2), (1, 2)]);
    /// # Ok::<(), bncg_graph::GraphError>(())
    /// ```
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.adj.iter().enumerate().flat_map(|(u, nbrs)| {
            let u = u as u32;
            nbrs.iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Iterates over all node ids `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = u32> {
        0..self.n() as u32
    }

    /// Iterates over all unordered non-adjacent pairs `(u, v)` with `u < v`,
    /// i.e. the edges of the complement graph.
    pub fn non_edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        let n = self.n() as u32;
        (0..n).flat_map(move |u| {
            (u + 1..n)
                .filter(move |&v| !self.has_edge(u, v))
                .map(move |v| (u, v))
        })
    }

    /// Whether the graph is connected. The empty graph (`n == 0`) counts as
    /// connected.
    #[must_use]
    pub fn is_connected(&self) -> bool {
        let n = self.n();
        if n == 0 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0u32];
        seen[0] = true;
        let mut count = 1usize;
        while let Some(u) = stack.pop() {
            for &v in self.neighbors(u) {
                if !seen[v as usize] {
                    seen[v as usize] = true;
                    count += 1;
                    stack.push(v);
                }
            }
        }
        count == n
    }

    /// Whether the graph is a tree (connected with `n − 1` edges). The empty
    /// graph is not a tree; a single node is.
    #[must_use]
    pub fn is_tree(&self) -> bool {
        self.n() >= 1 && self.m == self.n() - 1 && self.is_connected()
    }

    /// Relabels the graph by a permutation: node `u` of `self` becomes node
    /// `perm[u]` of the result.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..n`.
    #[must_use]
    pub fn relabeled(&self, perm: &[u32]) -> Graph {
        assert_eq!(perm.len(), self.n(), "permutation length must equal n");
        let mut check = vec![false; self.n()];
        for &p in perm {
            assert!(
                (p as usize) < self.n() && !check[p as usize],
                "perm must be a permutation of 0..n"
            );
            check[p as usize] = true;
        }
        let mut g = Graph::new(self.n());
        for (u, v) in self.edges() {
            g.add_edge(perm[u as usize], perm[v as usize])
                .expect("relabeling a simple graph stays simple");
        }
        g
    }

    /// Returns the subgraph induced by `keep` together with the mapping from
    /// old node ids to new ones (`u32::MAX` for dropped nodes).
    #[must_use]
    pub fn induced_subgraph(&self, keep: &[u32]) -> (Graph, Vec<u32>) {
        let mut map = vec![u32::MAX; self.n()];
        for (new, &old) in keep.iter().enumerate() {
            map[old as usize] = new as u32;
        }
        let mut g = Graph::new(keep.len());
        for (u, v) in self.edges() {
            let (nu, nv) = (map[u as usize], map[v as usize]);
            if nu != u32::MAX && nv != u32::MAX {
                g.add_edge(nu, nv).expect("induced subgraph stays simple");
            }
        }
        (g, map)
    }

    /// Packs the upper-triangular adjacency into a bitmask, little-endian in
    /// lexicographic pair order. Only valid for `n ≤ 11` (55 pairs ≤ 64 bits).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::TooLarge`] for `n > 11`.
    pub fn to_bitmask(&self) -> Result<u64, GraphError> {
        let n = self.n();
        if n > 11 {
            return Err(GraphError::TooLarge {
                requested: n,
                max: 11,
            });
        }
        let mut mask = 0u64;
        for (u, v) in self.edges() {
            mask |= 1u64 << pair_index(n, u, v);
        }
        Ok(mask)
    }

    /// Rebuilds a graph from a bitmask produced by [`Graph::to_bitmask`].
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::TooLarge`] for `n > 11`.
    pub fn from_bitmask(n: usize, mask: u64) -> Result<Graph, GraphError> {
        if n > 11 {
            return Err(GraphError::TooLarge {
                requested: n,
                max: 11,
            });
        }
        let mut g = Graph::new(n);
        let mut idx = 0u32;
        for u in 0..n as u32 {
            for v in u + 1..n as u32 {
                if mask >> idx & 1 == 1 {
                    g.add_edge(u, v).expect("bitmask encodes a simple graph");
                }
                idx += 1;
            }
        }
        Ok(g)
    }
}

/// Index of the unordered pair `{u, v}` (with `u < v`) in lexicographic
/// order among all pairs of `0..n`.
#[must_use]
pub(crate) fn pair_index(n: usize, u: u32, v: u32) -> u32 {
    let (u, v) = if u < v { (u, v) } else { (v, u) };
    let (n, u, v) = (n as u64, u as u64, v as u64);
    (u * (2 * n - u - 1) / 2 + (v - u - 1)) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The fingerprint is a documented-stable value: resume tokens
    /// serialized by one process must resolve in another, so the hash
    /// may never drift with toolchain or platform. P5's value is pinned.
    #[test]
    fn fingerprint_is_stable_and_edge_order_independent() {
        let mut a = Graph::new(5);
        let mut b = Graph::new(5);
        for &(u, v) in &[(0u32, 1u32), (1, 2), (2, 3), (3, 4)] {
            a.add_edge(u, v).unwrap();
        }
        for &(u, v) in &[(3u32, 4u32), (1, 2), (0, 1), (2, 3)] {
            b.add_edge(u, v).unwrap();
        }
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint(), 14972715144986967940);
        b.remove_edge(3, 4).unwrap();
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn add_remove_roundtrip() {
        let mut g = Graph::new(4);
        g.add_edge(0, 1).unwrap();
        g.add_edge(3, 1).unwrap();
        assert_eq!(g.m(), 2);
        assert!(g.has_edge(1, 3));
        g.remove_edge(1, 3).unwrap();
        assert_eq!(g.m(), 1);
        assert!(!g.has_edge(1, 3));
        assert_eq!(g.neighbors(1), &[0]);
    }

    #[test]
    fn rejects_bad_edges() {
        let mut g = Graph::new(3);
        assert_eq!(
            g.add_edge(0, 3),
            Err(GraphError::NodeOutOfRange { node: 3, n: 3 })
        );
        assert_eq!(g.add_edge(1, 1), Err(GraphError::SelfLoop { node: 1 }));
        g.add_edge(0, 1).unwrap();
        assert_eq!(
            g.add_edge(1, 0),
            Err(GraphError::DuplicateEdge { u: 1, v: 0 })
        );
        assert_eq!(
            g.remove_edge(1, 2),
            Err(GraphError::MissingEdge { u: 1, v: 2 })
        );
    }

    #[test]
    fn toggle_edge_flips_presence() {
        let mut g = Graph::new(3);
        assert!(g.toggle_edge(0, 2).unwrap());
        assert!(g.has_edge(0, 2));
        assert!(!g.toggle_edge(0, 2).unwrap());
        assert!(!g.has_edge(0, 2));
    }

    #[test]
    fn connectivity_and_tree_detection() {
        let path = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        assert!(path.is_connected());
        assert!(path.is_tree());

        let cycle = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        assert!(cycle.is_connected());
        assert!(!cycle.is_tree());

        let split = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        assert!(!split.is_connected());
        assert!(!split.is_tree());

        assert!(Graph::new(1).is_tree());
        assert!(!Graph::new(0).is_tree());
        assert!(Graph::new(0).is_connected());
    }

    #[test]
    fn non_edges_complement_edges() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let non: Vec<_> = g.non_edges().collect();
        assert_eq!(non, vec![(0, 2), (0, 3), (1, 2), (1, 3)]);
        let total = g.edges().count() + non.len();
        assert_eq!(total, 4 * 3 / 2);
    }

    #[test]
    fn relabeled_preserves_structure() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        let h = g.relabeled(&[2, 0, 1]);
        assert!(h.has_edge(2, 0));
        assert!(h.has_edge(0, 1));
        assert!(!h.has_edge(2, 1));
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        let (sub, map) = g.induced_subgraph(&[1, 2, 4]);
        assert_eq!(sub.n(), 3);
        assert_eq!(sub.m(), 1);
        assert!(sub.has_edge(map[1], map[2]));
        assert_eq!(map[0], u32::MAX);
    }

    #[test]
    fn bitmask_roundtrip() {
        let g = Graph::from_edges(5, [(0, 4), (1, 2), (3, 4)]).unwrap();
        let mask = g.to_bitmask().unwrap();
        let h = Graph::from_bitmask(5, mask).unwrap();
        assert_eq!(g, h);
        assert!(Graph::new(12).to_bitmask().is_err());
    }

    #[test]
    fn pair_index_is_lexicographic() {
        let n = 5;
        let mut expected = 0;
        for u in 0..n as u32 {
            for v in u + 1..n as u32 {
                assert_eq!(pair_index(n, u, v), expected);
                assert_eq!(pair_index(n, v, u), expected);
                expected += 1;
            }
        }
    }
}
