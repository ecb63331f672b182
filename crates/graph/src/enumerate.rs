//! Exhaustive enumeration of small trees and graphs.
//!
//! The empirical Price-of-Anarchy experiments quantify over *all* trees (or
//! all connected graphs) with a given number of nodes. Rooted trees are
//! generated as canonical level sequences with the Beyer–Hedetniemi
//! successor algorithm; free trees are obtained by centroid-canonical
//! filtering; small connected graphs by edge-subset iteration with
//! isomorphism deduplication ([`connected_graphs`], `n ≤ 7`) or, up to
//! `n = 10`, by one vertex-extension walk over canonical forms
//! ([`graph_class_levels`], [`graph_classes`],
//! [`connected_graph_classes`]). The walk extends each level's classes
//! on scoped threads, one per available core, and sorts every level, so
//! its output does not depend on the thread count.

use crate::error::GraphError;
use crate::graph::Graph;
use crate::iso::{canonical_tree_encoding, CanonicalSet};
use std::collections::HashSet;

/// Iterator over the canonical level sequences of all rooted trees on `n`
/// nodes (Beyer–Hedetniemi 1980). Levels start at 1 for the root.
#[derive(Debug, Clone)]
pub(crate) struct RootedTreeSequences {
    levels: Vec<u32>,
    started: bool,
    done: bool,
}

impl RootedTreeSequences {
    /// Starts the enumeration for trees on `n` nodes.
    #[must_use]
    pub fn new(n: usize) -> Self {
        RootedTreeSequences {
            levels: (1..=n as u32).collect(),
            started: false,
            done: n == 0,
        }
    }
}

impl Iterator for RootedTreeSequences {
    type Item = Vec<u32>;

    fn next(&mut self) -> Option<Vec<u32>> {
        if self.done {
            return None;
        }
        if !self.started {
            self.started = true;
            return Some(self.levels.clone());
        }
        // Successor: find the rightmost entry > 2, shrink it by repeating
        // the pattern from its new parent.
        let n = self.levels.len();
        let Some(p) = (0..n).rev().find(|&i| self.levels[i] > 2) else {
            self.done = true;
            return None;
        };
        let target = self.levels[p] - 1;
        let q = (0..p)
            .rev()
            .find(|&i| self.levels[i] == target)
            .expect("a parent level always exists to the left");
        for i in p..n {
            self.levels[i] = self.levels[i - (p - q)];
        }
        Some(self.levels.clone())
    }
}

/// Builds the rooted tree encoded by a canonical level sequence. Node ids
/// follow the sequence order; node 0 is the root.
///
/// # Errors
///
/// Returns [`GraphError::InvalidEncoding`] if the sequence is not a valid
/// level sequence (must start at 1 and each entry `L[i] ≥ 2` must have a
/// previous entry at level `L[i] − 1`).
pub(crate) fn tree_from_level_sequence(levels: &[u32]) -> Result<Graph, GraphError> {
    let n = levels.len();
    if n == 0 || levels[0] != 1 {
        return Err(GraphError::InvalidEncoding);
    }
    let mut g = Graph::new(n);
    let mut last_at_level: Vec<u32> = vec![u32::MAX; n + 2];
    last_at_level[1] = 0;
    for (i, &level) in levels.iter().enumerate().skip(1) {
        if level < 2 || level as usize > n {
            return Err(GraphError::InvalidEncoding);
        }
        let parent = last_at_level[level as usize - 1];
        if parent == u32::MAX {
            return Err(GraphError::InvalidEncoding);
        }
        g.add_edge(parent, i as u32)
            .map_err(|_| GraphError::InvalidEncoding)?;
        last_at_level[level as usize] = i as u32;
    }
    Ok(g)
}

/// Maximum `n` supported by [`free_trees`]; the count grows like `2.96^n`
/// and the centroid-filter pass touches every rooted tree.
pub(crate) const MAX_FREE_TREE_NODES: usize = 18;

/// All free (unlabeled) trees on `n` nodes, one representative per
/// isomorphism class.
///
/// # Errors
///
/// Returns [`GraphError::TooLarge`] if `n > MAX_FREE_TREE_NODES`.
///
/// # Examples
///
/// ```
/// use bncg_graph::enumerate::free_trees;
///
/// assert_eq!(free_trees(7)?.len(), 11);
/// assert_eq!(free_trees(10)?.len(), 106);
/// # Ok::<(), bncg_graph::GraphError>(())
/// ```
pub fn free_trees(n: usize) -> Result<Vec<Graph>, GraphError> {
    if n > MAX_FREE_TREE_NODES {
        return Err(GraphError::TooLarge {
            requested: n,
            max: MAX_FREE_TREE_NODES,
        });
    }
    if n == 0 {
        return Ok(Vec::new());
    }
    let mut seen: HashSet<Vec<u8>> = HashSet::new();
    let mut out = Vec::new();
    for levels in RootedTreeSequences::new(n) {
        let g = tree_from_level_sequence(&levels).expect("generated sequences are valid");
        let code = canonical_tree_encoding(&g);
        if seen.insert(code) {
            out.push(g);
        }
    }
    Ok(out)
}

/// Maximum `n` supported by [`connected_graphs`]: `2^{n(n−1)/2}` edge
/// subsets are scanned, which is about 2 million at `n = 7`.
pub(crate) const MAX_CONNECTED_GRAPH_NODES: usize = 7;

/// All connected graphs on `n` nodes up to isomorphism.
///
/// # Errors
///
/// Returns [`GraphError::TooLarge`] if `n > MAX_CONNECTED_GRAPH_NODES`.
///
/// # Examples
///
/// ```
/// use bncg_graph::enumerate::connected_graphs;
///
/// assert_eq!(connected_graphs(4)?.len(), 6);
/// assert_eq!(connected_graphs(5)?.len(), 21);
/// # Ok::<(), bncg_graph::GraphError>(())
/// ```
pub fn connected_graphs(n: usize) -> Result<Vec<Graph>, GraphError> {
    if n > MAX_CONNECTED_GRAPH_NODES {
        return Err(GraphError::TooLarge {
            requested: n,
            max: MAX_CONNECTED_GRAPH_NODES,
        });
    }
    if n == 0 {
        return Ok(Vec::new());
    }
    if n == 1 {
        return Ok(vec![Graph::new(1)]);
    }
    let pairs: Vec<(u32, u32)> = (0..n as u32)
        .flat_map(|u| (u + 1..n as u32).map(move |v| (u, v)))
        .collect();
    let num_pairs = pairs.len();
    let mut set = CanonicalSet::new();
    for mask in 0u64..1u64 << num_pairs {
        if !mask_is_connected(n, &pairs, mask) {
            continue;
        }
        let mut g = Graph::new(n);
        for (i, &(u, v)) in pairs.iter().enumerate() {
            if mask >> i & 1 == 1 {
                g.add_edge(u, v).expect("mask edges are simple");
            }
        }
        set.insert(g);
    }
    let mut graphs = set.into_graphs();
    graphs.sort_by_key(|g| (g.m(), g.to_bitmask().expect("n ≤ 7 fits")));
    Ok(graphs)
}

/// Connectivity check on an edge-subset mask without materializing a graph.
fn mask_is_connected(n: usize, pairs: &[(u32, u32)], mask: u64) -> bool {
    let mut adj = [0u16; 16];
    for (i, &(u, v)) in pairs.iter().enumerate() {
        if mask >> i & 1 == 1 {
            adj[u as usize] |= 1 << v;
            adj[v as usize] |= 1 << u;
        }
    }
    let full: u16 = if n == 16 { u16::MAX } else { (1 << n) - 1 };
    let mut reached: u16 = 1;
    loop {
        let mut next = reached;
        let mut bits = reached;
        while bits != 0 {
            let u = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            next |= adj[u];
        }
        if next == reached {
            break;
        }
        reached = next;
    }
    reached == full
}

/// Maximum `n` supported by [`graph_classes`] / [`connected_graph_classes`].
/// The vertex-extension walk is polynomial in the *class counts* rather
/// than the `2^{n(n−1)/2}` mask space, but the counts themselves explode
/// past this point (12 005 168 classes at n = 10).
pub const MAX_GRAPH_CLASS_NODES: usize = 10;

/// The vertex-extension walk over all graph classes, one level per
/// step: yields `(n, classes)` for `n = 1, 2, …, max_n`, each level the
/// canonical representatives ([`crate::iso::canonical_form`]) of every
/// graph on `n` nodes — connected or not — sorted by
/// `(m, canonical graph6 key)`.
///
/// Every graph on `k + 1` nodes arises from a graph on `k` nodes by
/// adding one vertex with some neighbor subset, so each level extends
/// the previous level's classes. The walk runs on `u64` bit rows: each
/// candidate is canonicalized without building a [`Graph`], classes are
/// deduplicated on their packed column-major upper triangle (the graph6
/// bit string as one integer, ≤ 45 bits at `n ≤ 10`, which orders like
/// graph6 for a fixed `n`), and only the survivors become graphs. A
/// level's parents are split into contiguous chunks over scoped
/// threads, one per available core; the merged level is sorted, so the
/// output does not depend on the thread count.
///
/// Levels are produced lazily, so a consumer that stops early never
/// pays for the larger levels.
#[derive(Debug)]
pub struct GraphClassLevels {
    max_n: usize,
    n: usize,
    /// The packed keys of level `n`, sorted by `(m, key)`.
    keys: Vec<u64>,
}

/// Starts the level walk of [`GraphClassLevels`] up to `max_n` nodes.
///
/// # Errors
///
/// Returns [`GraphError::TooLarge`] if `max_n > MAX_GRAPH_CLASS_NODES`.
///
/// # Examples
///
/// ```
/// use bncg_graph::enumerate::graph_class_levels;
///
/// let counts: Vec<(usize, usize)> = graph_class_levels(5)?
///     .map(|(n, classes)| (n, classes.len()))
///     .collect();
/// assert_eq!(counts, [(1, 1), (2, 2), (3, 4), (4, 11), (5, 34)]);
/// # Ok::<(), bncg_graph::GraphError>(())
/// ```
pub fn graph_class_levels(max_n: usize) -> Result<GraphClassLevels, GraphError> {
    if max_n > MAX_GRAPH_CLASS_NODES {
        return Err(GraphError::TooLarge {
            requested: max_n,
            max: MAX_GRAPH_CLASS_NODES,
        });
    }
    Ok(GraphClassLevels {
        max_n,
        n: 0,
        keys: Vec::new(),
    })
}

impl Iterator for GraphClassLevels {
    type Item = (usize, Vec<Graph>);

    fn next(&mut self) -> Option<(usize, Vec<Graph>)> {
        if self.n == self.max_n {
            return None;
        }
        self.keys = if self.n == 0 {
            vec![0]
        } else {
            let threads = std::thread::available_parallelism().map_or(1, usize::from);
            extend_level(&self.keys, self.n, threads)
        };
        self.n += 1;
        let n = self.n;
        Some((
            n,
            self.keys.iter().map(|&key| graph_of_key(n, key)).collect(),
        ))
    }
}

/// The bit rows of the `k`-node graph whose packed key is `key` (bit
/// `k(k−1)/2 − 1` is the pair `(0, 1)`, then column by column).
fn rows_of_key(k: usize, key: u64) -> Vec<u64> {
    let mut rows = vec![0u64; k];
    let mut pos = k * k.saturating_sub(1) / 2;
    for v in 1..k {
        for u in 0..v {
            pos -= 1;
            if key >> pos & 1 == 1 {
                rows[u] |= 1 << v;
                rows[v] |= 1 << u;
            }
        }
    }
    rows
}

/// The graph on `k` nodes whose packed key is `key`.
fn graph_of_key(k: usize, key: u64) -> Graph {
    let rows = &rows_of_key(k, key);
    let edges = (0..k as u32).flat_map(|u| {
        (u + 1..k as u32)
            .filter(move |&v| rows[u as usize] >> v & 1 == 1)
            .map(move |v| (u, v))
    });
    Graph::from_edges(k, edges).expect("packed keys encode simple graphs")
}

/// Extends the sorted level of `k`-node classes to the sorted, deduped
/// level of `k + 1`-node classes, on `threads` scoped threads.
fn extend_level(parents: &[u64], k: usize, threads: usize) -> Vec<u64> {
    let chunk = parents.len().div_ceil(threads.max(1)).max(1);
    let mut next: Vec<u64> = std::thread::scope(|scope| {
        let workers: Vec<_> = parents
            .chunks(chunk)
            .map(|part| scope.spawn(move || extend_parents(part, k)))
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("a level-extension worker panicked"))
            .collect()
    });
    next.sort_unstable_by_key(|&key| (key.count_ones(), key));
    next.dedup();
    next
}

/// The distinct canonical keys of every one-vertex extension of
/// `parents` (each a `k`-node class).
fn extend_parents(parents: &[u64], k: usize) -> Vec<u64> {
    let mut seen = std::collections::HashSet::new();
    let mut rows = vec![0u64; k + 1];
    for &parent in parents {
        let parent_rows = rows_of_key(k, parent);
        for mask in 0u64..1 << k {
            for (u, (row, &p)) in rows.iter_mut().zip(&parent_rows).enumerate() {
                *row = p | (mask >> u & 1) << k;
            }
            rows[k] = mask;
            seen.insert(crate::iso::canonical_labeling(&rows).packed_key());
        }
    }
    seen.into_iter().collect()
}

/// All graphs on `n` nodes up to isomorphism — connected or not — as
/// **canonical representatives** ([`crate::iso::canonical_form`]), sorted
/// by `(m, canonical graph6 key)`: the last level of
/// [`graph_class_levels`]. Unlike [`connected_graphs`]' mask scan (capped
/// at `n = 7`), this reaches `n = 10`.
///
/// # Errors
///
/// Returns [`GraphError::TooLarge`] if `n > MAX_GRAPH_CLASS_NODES`.
pub fn graph_classes(n: usize) -> Result<Vec<Graph>, GraphError> {
    Ok(graph_class_levels(n)?
        .last()
        .map_or_else(Vec::new, |(_, classes)| classes))
}

/// All **connected** graphs on `n` nodes up to isomorphism, as canonical
/// representatives sorted by `(m, canonical graph6 key)` — the atlas
/// enumeration order. Same classes as [`connected_graphs`] where both are
/// defined, but reaches `n = 10` ([`MAX_GRAPH_CLASS_NODES`]).
///
/// # Errors
///
/// Returns [`GraphError::TooLarge`] if `n > MAX_GRAPH_CLASS_NODES`.
///
/// # Examples
///
/// ```
/// use bncg_graph::enumerate::connected_graph_classes;
///
/// assert_eq!(connected_graph_classes(5)?.len(), 21);
/// # Ok::<(), bncg_graph::GraphError>(())
/// ```
pub fn connected_graph_classes(n: usize) -> Result<Vec<Graph>, GraphError> {
    Ok(graph_classes(n)?
        .into_iter()
        .filter(Graph::is_connected)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// OEIS A000081: rooted trees on n nodes.
    const ROOTED_COUNTS: [usize; 11] = [0, 1, 1, 2, 4, 9, 20, 48, 115, 286, 719];
    /// OEIS A000055: free trees on n nodes.
    const FREE_COUNTS: [usize; 13] = [0, 1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551];
    /// OEIS A001349-style: connected graphs on n nodes (n = 1..6).
    const CONNECTED_COUNTS: [usize; 7] = [0, 1, 1, 2, 6, 21, 112];

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn rooted_tree_counts_match_oeis() {
        for n in 1..=10 {
            assert_eq!(
                RootedTreeSequences::new(n).count(),
                ROOTED_COUNTS[n],
                "rooted count mismatch at n = {n}"
            );
        }
    }

    #[test]
    fn all_generated_sequences_are_trees() {
        for levels in RootedTreeSequences::new(7) {
            let g = tree_from_level_sequence(&levels).unwrap();
            assert!(g.is_tree());
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn free_tree_counts_match_oeis() {
        for n in 1..=12 {
            assert_eq!(
                free_trees(n).unwrap().len(),
                FREE_COUNTS[n],
                "free tree count mismatch at n = {n}"
            );
        }
    }

    #[test]
    fn free_trees_are_pairwise_non_isomorphic() {
        let trees = free_trees(8).unwrap();
        for (i, a) in trees.iter().enumerate() {
            assert!(a.is_tree());
            for b in trees.iter().skip(i + 1) {
                assert!(!crate::iso::are_isomorphic(a, b));
            }
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn connected_graph_counts_match_oeis() {
        for n in 1..=6 {
            assert_eq!(
                connected_graphs(n).unwrap().len(),
                CONNECTED_COUNTS[n],
                "connected graph count mismatch at n = {n}"
            );
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn connected_graphs_include_tree_classes() {
        // Trees are exactly the connected graphs with n − 1 edges.
        for n in 2..=6 {
            let mut trees = connected_graphs(n).unwrap();
            trees.retain(|g| g.m() == n - 1);
            assert_eq!(trees.len(), FREE_COUNTS[n]);
            assert!(trees.iter().all(Graph::is_tree));
        }
    }

    #[test]
    fn size_guards_fire() {
        assert!(matches!(
            free_trees(MAX_FREE_TREE_NODES + 1),
            Err(GraphError::TooLarge { .. })
        ));
        assert!(matches!(
            connected_graphs(MAX_CONNECTED_GRAPH_NODES + 1),
            Err(GraphError::TooLarge { .. })
        ));
    }

    #[test]
    fn level_sequence_validation() {
        assert!(tree_from_level_sequence(&[]).is_err());
        assert!(tree_from_level_sequence(&[2]).is_err());
        assert!(tree_from_level_sequence(&[1, 3]).is_err());
        assert!(tree_from_level_sequence(&[1, 2, 4]).is_err());
        let g = tree_from_level_sequence(&[1, 2, 3, 2]).unwrap();
        assert!(g.is_tree());
        assert_eq!(g.degree(0), 2);
    }

    #[test]
    fn trivial_sizes() {
        assert!(free_trees(0).unwrap().is_empty());
        assert_eq!(free_trees(1).unwrap().len(), 1);
        assert_eq!(connected_graphs(1).unwrap().len(), 1);
        assert!(connected_graphs(0).unwrap().is_empty());
    }

    /// OEIS A000088: graphs on n nodes up to isomorphism (n = 0..8).
    const ALL_GRAPH_COUNTS: [usize; 9] = [1, 1, 2, 4, 11, 34, 156, 1044, 12346];
    /// OEIS A001349: connected graphs on n nodes (n = 0..8).
    const CONNECTED_CLASS_COUNTS: [usize; 9] = [1, 1, 1, 2, 6, 21, 112, 853, 11117];

    /// FNV-1a digests ([`crate::fnv1a_lines`]) of the graph6 lines of
    /// `graph_classes(n)` and `connected_graph_classes(n)` (n = 0..8),
    /// recorded from the adjacency-list implementation that preceded the
    /// bit-row walk: any change to a representative or to the order
    /// changes a digest.
    const ALL_CLASS_DIGESTS: [u64; 9] = [
        0xcbf2_9ce4_8422_2325,
        0x7d71_5818_939e_59ef,
        0x3744_e22a_987d_29c5,
        0x598f_673a_0f56_95fd,
        0xe424_208a_90e4_0329,
        0x7533_69b3_f4f1_e7a1,
        0x72d8_4966_29ee_54b7,
        0x657e_3964_a7e1_8a53,
        0xb76a_346b_7978_38c9,
    ];
    const CONNECTED_CLASS_DIGESTS: [u64; 9] = [
        0xcbf2_9ce4_8422_2325,
        0x7d71_5818_939e_59ef,
        0x2897_a225_2193_0931,
        0x3e40_a926_bae9_30e5,
        0x62f2_c35b_fac2_cf7c,
        0x2590_15a4_531e_b90d,
        0x7b15_890b_9d62_5149,
        0xf2fa_e9f8_fcb4_c981,
        0x8450_4c69_5dc8_3661,
    ];

    fn digest(classes: &[Graph]) -> u64 {
        let lines: Vec<String> = classes
            .iter()
            .map(|g| crate::graph6::encode(g).unwrap())
            .collect();
        crate::fnv1a_lines(lines.iter().map(String::as_str))
    }

    #[test]
    fn class_levels_match_oeis_counts_and_golden_digests() {
        let mut seen = 0;
        for (n, classes) in graph_class_levels(8).unwrap() {
            seen += 1;
            assert_eq!(n, seen);
            assert_eq!(classes.len(), ALL_GRAPH_COUNTS[n], "class count at n = {n}");
            assert_eq!(digest(&classes), ALL_CLASS_DIGESTS[n], "classes at n = {n}");
            let connected: Vec<Graph> = classes.into_iter().filter(Graph::is_connected).collect();
            assert_eq!(connected.len(), CONNECTED_CLASS_COUNTS[n]);
            assert_eq!(digest(&connected), CONNECTED_CLASS_DIGESTS[n]);
        }
        assert_eq!(seen, 8);
    }

    #[test]
    fn connected_graph_classes_match_golden_digests() {
        for n in 0..=8 {
            let classes = connected_graph_classes(n).unwrap();
            // The walk has no level 0: n = 0 yields no classes.
            let expected = if n == 0 { 0 } else { CONNECTED_CLASS_COUNTS[n] };
            assert_eq!(classes.len(), expected, "connected class count at n = {n}");
            assert_eq!(
                digest(&classes),
                CONNECTED_CLASS_DIGESTS[n],
                "connected classes at n = {n}"
            );
        }
        assert_eq!(digest(&graph_classes(8).unwrap()), ALL_CLASS_DIGESTS[8]);
    }

    #[test]
    fn level_extension_does_not_depend_on_the_thread_count() {
        let mut level = vec![0u64];
        for k in 1..7 {
            let one = extend_level(&level, k, 1);
            assert_eq!(extend_level(&level, k, 3), one, "level {} differs", k + 1);
            level = one;
        }
        assert_eq!(level.len(), ALL_GRAPH_COUNTS[7]);
    }

    #[test]
    fn graph_classes_match_mask_scan() {
        // Same isomorphism classes as the 2^{n(n−1)/2} mask scan where
        // both enumerations are defined.
        for n in 1..=6 {
            let key = |g: &Graph| crate::graph6::encode(&crate::iso::canonical_form(g).0).unwrap();
            let by_extension: std::collections::BTreeSet<String> = connected_graph_classes(n)
                .unwrap()
                .iter()
                .map(key)
                .collect();
            let by_mask: std::collections::BTreeSet<String> =
                connected_graphs(n).unwrap().iter().map(key).collect();
            assert_eq!(by_extension, by_mask, "class mismatch at n = {n}");
        }
    }

    #[test]
    fn graph_classes_are_canonical_and_ordered() {
        let classes = connected_graph_classes(6).unwrap();
        let mut keys = Vec::new();
        for g in &classes {
            // Each representative is its own canonical form…
            assert_eq!(crate::iso::canonical_form(g).0, *g);
            keys.push((g.m(), crate::graph6::encode(g).unwrap()));
        }
        // …and the list is strictly sorted by (m, key): a deterministic,
        // duplicate-free enumeration order (the atlas build order).
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn graph_class_size_guard_fires() {
        assert!(matches!(
            graph_classes(MAX_GRAPH_CLASS_NODES + 1),
            Err(GraphError::TooLarge { .. })
        ));
    }
}
