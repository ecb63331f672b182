//! Graph isomorphism, invariant fingerprints, canonical forms, and
//! canonical tree encodings.
//!
//! The enumeration experiments need to deduplicate isomorphic graphs and the
//! witness searches need to report *one* representative per isomorphism
//! class. For trees we use the linear-time AHU encoding rooted at the
//! centroid; for general (small) graphs a distance-profile fingerprint
//! prefilter plus a backtracking isomorphism test.
//!
//! [`canonical_form`] — the atlas key and the class walk's dedup key —
//! runs on `u64` adjacency rows, so it is defined for `n ≤ 64`: bitset
//! BFS distance profiles, 1-WL color refinement over one flat byte
//! buffer, and a branch-and-bound over columns extended one bit per
//! placed vertex. Its representatives and permutations are exactly
//! those of the adjacency-list implementation it replaced, which the
//! tests keep as a differential reference. Large vertex-transitive
//! graphs remain exponentially expensive (see [`canonical_form`]).

use crate::bitset::BITSET_MAX_N;
use crate::graph::Graph;
use crate::traversal::DistanceMatrix;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// The AHU canonical encoding of a tree rooted at `root`: a balanced-paren
/// style byte string that two rooted trees share iff they are isomorphic as
/// rooted trees.
///
/// # Panics
///
/// Panics if `g` is not a tree or `root` is out of range.
#[must_use]
pub(crate) fn ahu_encoding(g: &Graph, root: u32) -> Vec<u8> {
    assert!(g.is_tree(), "AHU encoding requires a tree");
    // Iterative post-order: children encodings are sorted and concatenated.
    fn encode(g: &Graph, u: u32, parent: u32) -> Vec<u8> {
        let mut child_codes: Vec<Vec<u8>> = g
            .neighbors(u)
            .iter()
            .copied()
            .filter(|&v| v != parent)
            .map(|v| encode(g, v, u))
            .collect();
        child_codes.sort();
        let mut code = Vec::with_capacity(2 + child_codes.iter().map(Vec::len).sum::<usize>());
        code.push(b'(');
        for c in child_codes {
            code.extend_from_slice(&c);
        }
        code.push(b')');
        code
    }
    encode(g, root, root)
}

/// The centroid(s) of a tree: nodes whose removal leaves components of size
/// at most `n/2`. Every tree has one or two centroids (two are adjacent).
/// For trees these coincide with the 1-medians (Jordan), which the tree
/// module exposes via distance sums; this is the component-size definition
/// used by the paper.
///
/// # Panics
///
/// Panics if `g` is not a tree.
#[must_use]
pub(crate) fn tree_centroids(g: &Graph) -> Vec<u32> {
    assert!(g.is_tree(), "centroid requires a tree");
    let n = g.n();
    if n == 1 {
        return vec![0];
    }
    let t = crate::tree::RootedTree::new(g, 0).expect("validated tree");
    let mut centroids = Vec::new();
    for u in 0..n as u32 {
        let mut max_comp = n as u32 - t.subtree_size(u);
        for &c in t.children(u) {
            max_comp = max_comp.max(t.subtree_size(c));
        }
        if u64::from(max_comp) * 2 <= n as u64 {
            centroids.push(u);
        }
    }
    centroids
}

/// A canonical byte string for a *free* tree: the minimum AHU encoding over
/// its centroid(s). Two trees are isomorphic iff their canonical encodings
/// are equal.
///
/// # Panics
///
/// Panics if `g` is not a tree.
///
/// # Examples
///
/// ```
/// use bncg_graph::{generators, iso::canonical_tree_encoding};
///
/// let a = generators::path(5);
/// // The same path with scrambled labels.
/// let b = a.relabeled(&[4, 2, 0, 1, 3]);
/// assert_eq!(canonical_tree_encoding(&a), canonical_tree_encoding(&b));
/// ```
#[must_use]
pub fn canonical_tree_encoding(g: &Graph) -> Vec<u8> {
    let centroids = tree_centroids(g);
    centroids
        .iter()
        .map(|&c| ahu_encoding(g, c))
        .min()
        .expect("tree has a centroid")
}

/// An isomorphism-invariant fingerprint of a connected graph: hash of the
/// sorted multiset of per-node profiles, where a node's profile is its
/// sorted distance-frequency vector. Equal fingerprints are necessary but
/// not sufficient for isomorphism — use [`are_isomorphic`] to confirm.
#[must_use]
pub(crate) fn invariant_fingerprint(g: &Graph) -> u64 {
    let d = DistanceMatrix::new(g);
    let n = g.n();
    let mut profiles: Vec<Vec<u32>> = Vec::with_capacity(n);
    for u in 0..n as u32 {
        let mut freq = vec![0u32; n + 1];
        for &dist in d.row(u) {
            let idx = if dist == crate::traversal::UNREACHABLE {
                n
            } else {
                dist as usize
            };
            freq[idx] += 1;
        }
        profiles.push(freq);
    }
    profiles.sort();
    let mut hasher = DefaultHasher::new();
    n.hash(&mut hasher);
    g.m().hash(&mut hasher);
    profiles.hash(&mut hasher);
    hasher.finish()
}

/// Exact isomorphism test via backtracking with degree and distance-profile
/// pruning. Intended for the small graphs of the enumeration experiments
/// (`n ≲ 12`).
///
/// # Examples
///
/// ```
/// use bncg_graph::{generators, iso::are_isomorphic};
///
/// let c5 = generators::cycle(5);
/// let p5 = generators::path(5);
/// assert!(!are_isomorphic(&c5, &p5));
/// assert!(are_isomorphic(&c5, &c5.relabeled(&[2, 0, 3, 1, 4])));
/// ```
#[must_use]
pub fn are_isomorphic(a: &Graph, b: &Graph) -> bool {
    if a.n() != b.n() || a.m() != b.m() {
        return false;
    }
    let n = a.n();
    if n == 0 {
        return true;
    }
    let da = DistanceMatrix::new(a);
    let db = DistanceMatrix::new(b);
    let profile = |d: &DistanceMatrix, u: u32| -> Vec<u32> {
        let mut freq = vec![0u32; n + 1];
        for &dist in d.row(u) {
            let idx = if dist == crate::traversal::UNREACHABLE {
                n
            } else {
                dist as usize
            };
            freq[idx] += 1;
        }
        freq
    };
    let pa: Vec<Vec<u32>> = (0..n as u32).map(|u| profile(&da, u)).collect();
    let pb: Vec<Vec<u32>> = (0..n as u32).map(|u| profile(&db, u)).collect();
    {
        let mut sa = pa.clone();
        let mut sb = pb.clone();
        sa.sort();
        sb.sort();
        if sa != sb {
            return false;
        }
    }

    // Map nodes of `a` in order of rarest profile first to fail fast.
    let mut order: Vec<u32> = (0..n as u32).collect();
    let mut rarity = std::collections::HashMap::new();
    for p in &pa {
        *rarity.entry(p.clone()).or_insert(0u32) += 1;
    }
    order.sort_by_key(|&u| (rarity[&pa[u as usize]], std::cmp::Reverse(a.degree(u))));

    let mut mapping = vec![u32::MAX; n];
    let mut used = vec![false; n];

    #[allow(clippy::too_many_arguments)]
    fn backtrack(
        a: &Graph,
        b: &Graph,
        pa: &[Vec<u32>],
        pb: &[Vec<u32>],
        order: &[u32],
        pos: usize,
        mapping: &mut [u32],
        used: &mut [bool],
    ) -> bool {
        if pos == order.len() {
            return true;
        }
        let u = order[pos];
        for cand in 0..b.n() as u32 {
            if used[cand as usize] || pa[u as usize] != pb[cand as usize] {
                continue;
            }
            // All previously mapped neighbors must map consistently.
            let consistent = order[..pos].iter().all(|&w| {
                let mw = mapping[w as usize];
                a.has_edge(u, w) == b.has_edge(cand, mw)
            });
            if !consistent {
                continue;
            }
            mapping[u as usize] = cand;
            used[cand as usize] = true;
            if backtrack(a, b, pa, pb, order, pos + 1, mapping, used) {
                return true;
            }
            mapping[u as usize] = u32::MAX;
            used[cand as usize] = false;
        }
        false
    }

    backtrack(a, b, &pa, &pb, &order, 0, &mut mapping, &mut used)
}

/// A canonical key for small graphs combining the cheap fingerprint with a
/// full representative check: graphs hash to the same bucket iff they share
/// the fingerprint, and a [`CanonicalSet`] resolves collisions exactly.
#[derive(Debug, Default)]
pub(crate) struct CanonicalSet {
    buckets: std::collections::HashMap<u64, Vec<Graph>>,
}

impl CanonicalSet {
    /// Creates an empty set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts `g` if no isomorphic graph is present. Returns `true` if the
    /// graph was new.
    pub fn insert(&mut self, g: Graph) -> bool {
        let key = invariant_fingerprint(&g);
        let bucket = self.buckets.entry(key).or_default();
        if bucket.iter().any(|h| are_isomorphic(h, &g)) {
            return false;
        }
        bucket.push(g);
        true
    }

    /// Consumes the set, returning all representatives.
    #[must_use]
    pub(crate) fn into_graphs(self) -> Vec<Graph> {
        self.buckets.into_values().flatten().collect()
    }
}

/// `1 << i` as a row bit.
const fn bit(i: usize) -> u64 {
    1 << i
}

/// The adjacency rows of `g`: bit `v` of `rows[u]` is set iff `{u, v}`
/// is an edge.
///
/// # Panics
///
/// Panics if `g.n() > 64`.
fn bit_rows(g: &Graph) -> Vec<u64> {
    assert!(
        g.n() <= BITSET_MAX_N,
        "canonical forms work on u64 bit rows: n = {} exceeds {BITSET_MAX_N}",
        g.n()
    );
    (0..g.n() as u32)
        .map(|u| {
            g.neighbors(u)
                .iter()
                .fold(0, |row, &v| row | bit(v as usize))
        })
        .collect()
}

/// Ranks `ids.len()` fixed-width byte keys (key `u` is
/// `keys[u * stride..][..stride]`) by sorting: a key's id is the number
/// of distinct keys below it. Returns the number of distinct keys.
fn rank_keys(keys: &[u8], stride: usize, ids: &mut [u8]) -> u8 {
    let key = |u: u8| &keys[usize::from(u) * stride..][..stride];
    let mut order: Vec<u8> = (0..ids.len() as u8).collect();
    order.sort_unstable_by(|&a, &b| key(a).cmp(key(b)));
    let mut id = 0u8;
    ids[usize::from(order[0])] = 0;
    for pair in order.windows(2) {
        if key(pair[1]) != key(pair[0]) {
            id += 1;
        }
        ids[usize::from(pair[1])] = id;
    }
    id + 1
}

/// Iteratively refined, isomorphism-invariant node colors on bit rows.
/// Initial colors rank the distance profiles (`key[d]` = popcount of
/// BFS level `d`, the last slot the unreachable count — the
/// [`invariant_fingerprint`] ingredient); then 1-WL refinement — a
/// node's new color is its old color plus the sorted multiset of
/// neighbor colors — runs to a fixpoint. Every key lives in one flat
/// buffer of `n + 1` bytes per node; neighbor colors are stored `+ 1`
/// and padded with 0, so a shorter multiset sorts first exactly as a
/// shorter `Vec` does. Color ids rank the keys, so two isomorphic
/// graphs end with the identical id-per-orbit assignment.
fn refined_colors(rows: &[u64]) -> Vec<u8> {
    let n = rows.len();
    let stride = n + 1;
    let mut keys = vec![0u8; n * stride];
    for (u, key) in keys.chunks_exact_mut(stride).enumerate() {
        let (mut reached, mut frontier) = (bit(u), bit(u));
        key[0] = 1;
        for level in key[1..n].iter_mut() {
            let mut next = 0;
            let mut f = frontier;
            while f != 0 {
                next |= rows[f.trailing_zeros() as usize];
                f &= f - 1;
            }
            next &= !reached;
            if next == 0 {
                break;
            }
            *level = next.count_ones() as u8;
            reached |= next;
            frontier = next;
        }
        key[n] = (n - reached.count_ones() as usize) as u8;
    }
    let mut colors = vec![0u8; n];
    let mut classes = rank_keys(&keys, stride, &mut colors);
    let mut next = vec![0u8; n];
    loop {
        for (u, key) in keys.chunks_exact_mut(stride).enumerate() {
            key[0] = colors[u];
            let mut len = 1;
            let mut nb = rows[u];
            while nb != 0 {
                key[len] = colors[nb.trailing_zeros() as usize] + 1;
                len += 1;
                nb &= nb - 1;
            }
            key[1..len].sort_unstable();
            key[len..].fill(0);
        }
        let refined = rank_keys(&keys, stride, &mut next);
        std::mem::swap(&mut colors, &mut next);
        if refined == classes {
            return colors;
        }
        classes = refined;
    }
}

/// The canonical labeling of a graph given as bit rows: the best
/// placement found by the search and its adjacency columns.
pub(crate) struct Labeling {
    /// `placement[k]` is the vertex placed at canonical position `k`.
    placement: Vec<u8>,
    /// Column `k` of the canonical adjacency: bit `k − 1 − i` is set iff
    /// positions `i < k` and `k` are adjacent (row 0 most significant,
    /// the graph6 bit order).
    cols: Vec<u64>,
}

impl Labeling {
    /// `perm[u]` is the canonical label of node `u`.
    pub(crate) fn perm(&self) -> Vec<u32> {
        let mut perm = vec![0u32; self.placement.len()];
        for (pos, &w) in self.placement.iter().enumerate() {
            perm[usize::from(w)] = pos as u32;
        }
        perm
    }

    /// The canonical graph6 bit string (the columns concatenated) packed
    /// most significant first, so for a fixed `n` packed keys order like
    /// graph6 strings. Fits a `u64` for `n ≤ 11`.
    pub(crate) fn packed_key(&self) -> u64 {
        debug_assert!(self.cols.len() <= 11, "n(n − 1)/2 bits must fit a u64");
        self.cols
            .iter()
            .enumerate()
            .skip(1)
            .fold(0, |key, (k, &col)| key << k | col)
    }
}

/// The class-blocked branch-and-bound behind [`canonical_form`], on bit
/// rows. Positions are filled class by class; only the unplaced class
/// members with the minimum column are branched (in ascending vertex
/// order), and a tie that is a twin of an already branched vertex is
/// skipped.
struct Search<'a> {
    rows: &'a [u64],
    /// Vertex bitmask of each color class.
    class_members: Vec<u64>,
    /// `schedule[k]`: the color class that fills position `k`.
    schedule: Vec<u8>,
    placed: u64,
    placement: Vec<u8>,
    cols: Vec<u64>,
    /// `next_cols[k * n + w]`: the column `w` would get at position `k`,
    /// extended one bit per placed vertex.
    next_cols: Vec<u64>,
    best: Option<(Vec<u64>, Vec<u8>)>, // (columns, placement)
}

impl Search<'_> {
    fn run(&mut self, k: usize) {
        let n = self.rows.len();
        if k == n {
            let better = match &self.best {
                None => true,
                Some((cols, _)) => self.cols < *cols,
            };
            if better {
                self.best = Some((self.cols.clone(), self.placement.clone()));
            }
            return;
        }
        let here = &self.next_cols[k * n..][..n];
        let mut ties = 0u64;
        let mut min_col = u64::MAX;
        let mut candidates = self.class_members[usize::from(self.schedule[k])] & !self.placed;
        while candidates != 0 {
            let w = candidates.trailing_zeros() as usize;
            candidates &= candidates - 1;
            match here[w].cmp(&min_col) {
                std::cmp::Ordering::Less => {
                    min_col = here[w];
                    ties = bit(w);
                }
                std::cmp::Ordering::Equal => ties |= bit(w),
                std::cmp::Ordering::Greater => {}
            }
        }
        // Prefix-equal against the incumbent: a worse column can never
        // recover, an equal one must keep searching.
        if let Some((best_cols, _)) = &self.best {
            if self.cols[..k] == best_cols[..k] && min_col > best_cols[k] {
                return;
            }
        }
        let mut branched = 0u64;
        while ties != 0 {
            let w = ties.trailing_zeros() as usize;
            ties &= ties - 1;
            if self.twin_of_any(w, branched) {
                continue;
            }
            branched |= bit(w);
            if k + 1 < n {
                // Position k + 1 sees every column one bit longer.
                let row = self.rows[w];
                let (here, next) = self.next_cols[k * n..].split_at_mut(n);
                for (x, (col, &prev)) in next[..n].iter_mut().zip(here.iter()).enumerate() {
                    *col = prev << 1 | (row >> x & 1);
                }
            }
            self.placed |= bit(w);
            self.placement.push(w as u8);
            self.cols.push(min_col);
            self.run(k + 1);
            self.cols.pop();
            self.placement.pop();
            self.placed &= !bit(w);
        }
    }

    /// Whether `w` is a twin of some vertex in `branched`: the
    /// transposition `(u w)` is an automorphism iff their rows agree
    /// once each other is excluded (true twins share an edge, false
    /// twins do not), so branching on one of them suffices.
    fn twin_of_any(&self, w: usize, mut branched: u64) -> bool {
        while branched != 0 {
            let u = branched.trailing_zeros() as usize;
            branched &= branched - 1;
            if self.rows[u] & !bit(w) == self.rows[w] & !bit(u) {
                return true;
            }
        }
        false
    }
}

/// Runs the canonical labeling search on the bit rows of a graph with
/// `1 ≤ n ≤ 64` nodes.
pub(crate) fn canonical_labeling(rows: &[u64]) -> Labeling {
    let n = rows.len();
    debug_assert!((1..=BITSET_MAX_N).contains(&n));
    let colors = refined_colors(rows);
    // Position k is filled from the k-th color class in color-id order
    // (sizes and ids are isomorphism-invariant, so this schedule is too).
    let mut schedule = colors.clone();
    schedule.sort_unstable();
    let mut class_members = vec![0u64; n];
    for (w, &c) in colors.iter().enumerate() {
        class_members[usize::from(c)] |= bit(w);
    }
    let mut search = Search {
        rows,
        class_members,
        schedule,
        placed: 0,
        placement: Vec::with_capacity(n),
        cols: Vec::with_capacity(n),
        next_cols: vec![0; n * n],
        best: None,
    };
    search.run(0);
    let (cols, placement) = search.best.expect("every class schedule completes");
    Labeling { placement, cols }
}

/// A canonical labeling of `g`: returns the canonical representative of
/// `g`'s isomorphism class together with the permutation that produces it
/// (`perm[u]` is the canonical label of node `u`, i.e.
/// `g.relabeled(&perm)` equals the returned graph).
///
/// The representative minimizes the graph6 bit order (the column-major
/// upper triangle) over all labelings consistent with the refined color
/// classes — an isomorphism-invariant restriction, so two isomorphic
/// graphs always map to the *same* representative, which is what makes
/// its graph6 encoding usable as an exact atlas/dedup key. The search is a
/// class-blocked branch-and-bound: positions are filled class by class,
/// only minimum-column candidates are branched (ties only, in ascending
/// vertex order), and unplaced twins are pruned (swapping them is an
/// automorphism).
///
/// Everything runs on `u64` bit rows: bitset-BFS distance profiles,
/// 1-WL refinement over one flat byte-key buffer, columns extended one
/// bit per placed vertex, and placed/tie/twin sets as bitmasks. The
/// representatives and permutations are exactly those of the earlier
/// adjacency-list implementation (kept as the test-only reference).
///
/// The cost is small for the enumeration sizes (`n ≲ 11`) and for
/// graphs with little symmetry, but the search branches along the
/// automorphism orbits that twin pruning cannot see, so large
/// vertex-transitive graphs are exponentially expensive: the cost grows
/// about tenfold per two nodes along the cycles, `cycle(16)` already
/// takes tens of milliseconds, and `cycle(32)` does not finish in
/// minutes. Callers keying arbitrary input should
/// bound `n` first, as the atlas lookup does.
///
/// # Panics
///
/// Panics if `g.n() > 64`, the bit-row domain.
///
/// # Examples
///
/// ```
/// use bncg_graph::{generators, iso::canonical_form};
///
/// let g = generators::cycle(6);
/// let h = g.relabeled(&[3, 1, 5, 0, 4, 2]);
/// assert_eq!(canonical_form(&g).0, canonical_form(&h).0);
/// ```
#[must_use]
pub fn canonical_form(g: &Graph) -> (Graph, Vec<u32>) {
    if g.n() == 0 {
        return (Graph::new(0), Vec::new());
    }
    let perm = canonical_labeling(&bit_rows(g)).perm();
    (g.relabeled(&perm), perm)
}

/// The adjacency-list canonical form this module shipped before the
/// bit-row rewrite, kept verbatim as the differential spec: the bit-row
/// [`canonical_form`] must return its `(graph, perm)` exactly. Its
/// `1u32 << (k - 1 - i)` columns overflow past `n = 32`, so comparisons
/// stop there.
#[cfg(test)]
mod reference {
    use crate::graph::Graph;
    use crate::traversal::DistanceMatrix;

    /// Iteratively refined, isomorphism-invariant node colors: initial colors
    /// are the sorted distance-frequency profiles (the [`invariant_fingerprint`]
    /// ingredient), then 1-WL refinement — a node's new color is its old color
    /// plus the sorted multiset of neighbor colors — runs to a fixpoint. Color
    /// *ids* are assigned by sorting the underlying signatures, so two
    /// isomorphic graphs end with the identical id-per-orbit assignment.
    fn refined_colors(g: &Graph) -> Vec<u32> {
        let n = g.n();
        if n == 0 {
            return Vec::new();
        }
        let d = DistanceMatrix::new(g);
        let mut profiles: Vec<Vec<u32>> = Vec::with_capacity(n);
        for u in 0..n as u32 {
            let mut freq = vec![0u32; n + 1];
            for &dist in d.row(u) {
                let idx = if dist == crate::traversal::UNREACHABLE {
                    n
                } else {
                    dist as usize
                };
                freq[idx] += 1;
            }
            profiles.push(freq);
        }
        let assign = |keys: &[Vec<u32>]| -> Vec<u32> {
            let mut sorted: Vec<&Vec<u32>> = keys.iter().collect();
            sorted.sort();
            sorted.dedup();
            keys.iter()
                .map(|k| sorted.binary_search(&k).expect("key present") as u32)
                .collect()
        };
        let mut colors = assign(&profiles);
        loop {
            let signatures: Vec<Vec<u32>> = (0..n as u32)
                .map(|u| {
                    let mut sig = vec![colors[u as usize]];
                    let mut nb: Vec<u32> =
                        g.neighbors(u).iter().map(|&v| colors[v as usize]).collect();
                    nb.sort_unstable();
                    sig.extend(nb);
                    sig
                })
                .collect();
            let next = assign(&signatures);
            let classes = |c: &[u32]| c.iter().copied().max().map_or(0, |m| m + 1);
            if classes(&next) == classes(&colors) {
                return next;
            }
            colors = next;
        }
    }

    /// Whether unplaced vertices `u` and `v` are interchangeable by the
    /// transposition `(u v)`: their neighborhoods agree once each other is
    /// excluded (true twins share an edge, false twins do not — both make the
    /// swap an automorphism, so branching on one of them suffices).
    fn are_twins(g: &Graph, u: u32, v: u32) -> bool {
        let strip = |w: u32, other: u32| -> Vec<u32> {
            let mut nb: Vec<u32> = g
                .neighbors(w)
                .iter()
                .copied()
                .filter(|&x| x != other)
                .collect();
            nb.sort_unstable();
            nb
        };
        strip(u, v) == strip(v, u)
    }

    /// A canonical labeling of `g`: returns the canonical representative of
    /// `g`'s isomorphism class together with the permutation that produces it
    /// (`perm[u]` is the canonical label of node `u`, i.e.
    /// `g.relabeled(&perm)` equals the returned graph).
    ///
    /// The representative minimizes the graph6 bit order (the column-major
    /// upper triangle) over all labelings consistent with the refined color
    /// classes — an isomorphism-invariant restriction, so two isomorphic
    /// graphs always map to the *same* representative, which is what makes
    /// its graph6 encoding usable as an exact atlas/dedup key. The search is a
    /// class-blocked branch-and-bound: positions are filled class by class,
    /// only minimum-column candidates are branched (ties only), and unplaced
    /// twins are pruned (swapping them is an automorphism). Intended for the
    /// enumeration sizes (`n ≲ 11`); highly symmetric graphs branch along
    /// their automorphism orbits, which stays small at these sizes.
    ///
    /// # Examples
    ///
    /// ```
    /// use bncg_graph::{generators, iso::canonical_form};
    ///
    /// let g = generators::cycle(6);
    /// let h = g.relabeled(&[3, 1, 5, 0, 4, 2]);
    /// assert_eq!(canonical_form(&g).0, canonical_form(&h).0);
    /// ```
    #[must_use]
    pub fn canonical_form(g: &Graph) -> (Graph, Vec<u32>) {
        let n = g.n();
        if n == 0 {
            return (Graph::new(0), Vec::new());
        }
        let colors = refined_colors(g);
        // Position k is filled from the k-th color class in color-id order
        // (sizes and ids are isomorphism-invariant, so this schedule is too).
        let mut schedule: Vec<u32> = Vec::with_capacity(n);
        let classes = colors.iter().copied().max().expect("n > 0") + 1;
        for c in 0..classes {
            for _ in colors.iter().filter(|&&x| x == c) {
                schedule.push(c);
            }
        }

        struct Search<'a> {
            g: &'a Graph,
            colors: &'a [u32],
            schedule: &'a [u32],
            placed: Vec<u32>,
            cols: Vec<u32>,
            best: Option<(Vec<u32>, Vec<u32>)>, // (columns, placement)
        }

        impl Search<'_> {
            /// The column-`k` bits of placing `w` next: adjacency to the
            /// placed prefix, row 0 most significant (graph6 bit order).
            fn column(&self, w: u32) -> u32 {
                let k = self.placed.len();
                let mut col = 0u32;
                for (i, &p) in self.placed.iter().enumerate() {
                    if self.g.has_edge(p, w) {
                        col |= 1 << (k - 1 - i);
                    }
                }
                col
            }

            fn run(&mut self) {
                let k = self.placed.len();
                if k == self.schedule.len() {
                    let better = match &self.best {
                        None => true,
                        Some((cols, _)) => self.cols < *cols,
                    };
                    if better {
                        self.best = Some((self.cols.clone(), self.placed.clone()));
                    }
                    return;
                }
                let class = self.schedule[k];
                let mut ties: Vec<u32> = Vec::new();
                let mut min_col = u32::MAX;
                for w in 0..self.g.n() as u32 {
                    if self.colors[w as usize] != class || self.placed.contains(&w) {
                        continue;
                    }
                    let col = self.column(w);
                    match col.cmp(&min_col) {
                        std::cmp::Ordering::Less => {
                            min_col = col;
                            ties.clear();
                            ties.push(w);
                        }
                        std::cmp::Ordering::Equal => ties.push(w),
                        std::cmp::Ordering::Greater => {}
                    }
                }
                // Prefix-equal against the incumbent: a worse column can never
                // recover, an equal one must keep searching.
                if let Some((best_cols, _)) = &self.best {
                    if self.cols[..k] == best_cols[..k] && min_col > best_cols[k] {
                        return;
                    }
                }
                let mut branched: Vec<u32> = Vec::new();
                for w in ties {
                    if branched.iter().any(|&u| are_twins(self.g, u, w)) {
                        continue;
                    }
                    branched.push(w);
                    self.placed.push(w);
                    self.cols.push(min_col);
                    self.run();
                    self.cols.pop();
                    self.placed.pop();
                }
            }
        }

        let mut search = Search {
            g,
            colors: &colors,
            schedule: &schedule,
            placed: Vec::with_capacity(n),
            cols: Vec::with_capacity(n),
            best: None,
        };
        search.run();
        let (_, placement) = search.best.expect("every class schedule completes");
        let mut perm = vec![0u32; n];
        for (pos, &w) in placement.iter().enumerate() {
            perm[w as usize] = pos as u32;
        }
        (g.relabeled(&perm), perm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn ahu_distinguishes_rooted_positions() {
        let g = generators::path(4);
        // Rooted at an end vs at an inner node: different rooted trees.
        assert_ne!(ahu_encoding(&g, 0), ahu_encoding(&g, 1));
        // The two ends are symmetric.
        assert_eq!(ahu_encoding(&g, 0), ahu_encoding(&g, 3));
    }

    #[test]
    fn centroids_match_medians() {
        let mut rng = crate::test_rng(17);
        for _ in 0..30 {
            let g = generators::random_tree(20, &mut rng);
            let mut centroids = tree_centroids(&g);
            let mut medians = crate::tree::tree_medians(&g).unwrap();
            centroids.sort_unstable();
            medians.sort_unstable();
            assert_eq!(centroids, medians);
        }
    }

    #[test]
    fn canonical_tree_encoding_is_isomorphism_invariant() {
        let mut rng = crate::test_rng(23);
        for _ in 0..25 {
            let g = generators::random_tree(12, &mut rng);
            let perm = generators::random_permutation(12, &mut rng);
            let h = g.relabeled(&perm);
            assert_eq!(canonical_tree_encoding(&g), canonical_tree_encoding(&h));
        }
    }

    #[test]
    fn canonical_tree_encoding_separates_non_isomorphic() {
        let star = generators::star(6);
        let path = generators::path(6);
        let spider = generators::spider(2, 2); // n = 5, skip
        assert_ne!(
            canonical_tree_encoding(&star),
            canonical_tree_encoding(&path)
        );
        assert_eq!(spider.n(), 5);
    }

    #[test]
    fn isomorphism_respects_relabeling() {
        let mut rng = crate::test_rng(31);
        for _ in 0..15 {
            let g = generators::random_connected(9, 0.3, &mut rng);
            let perm = generators::random_permutation(9, &mut rng);
            assert!(are_isomorphic(&g, &g.relabeled(&perm)));
        }
    }

    #[test]
    fn isomorphism_rejects_different_graphs() {
        assert!(!are_isomorphic(&generators::cycle(6), &generators::path(6)));
        assert!(!are_isomorphic(&generators::star(5), &generators::path(5)));
        // Same degree sequence, different graphs: C6 vs two triangles.
        let c6 = generators::cycle(6);
        let two_triangles =
            Graph::from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]).unwrap();
        assert!(!are_isomorphic(&c6, &two_triangles));
    }

    #[test]
    fn fingerprint_is_invariant() {
        let mut rng = crate::test_rng(41);
        for _ in 0..15 {
            let g = generators::random_connected(10, 0.25, &mut rng);
            let perm = generators::random_permutation(10, &mut rng);
            assert_eq!(
                invariant_fingerprint(&g),
                invariant_fingerprint(&g.relabeled(&perm))
            );
        }
    }

    #[test]
    fn canonical_set_deduplicates() {
        let mut set = CanonicalSet::new();
        let g = generators::cycle(5);
        assert!(set.insert(g.clone()));
        assert!(!set.insert(g.relabeled(&[3, 1, 4, 0, 2])));
        assert!(set.insert(generators::path(5)));
        assert!(!set.insert(generators::cycle(5)));
        assert!(set.insert(generators::star(5)));
        assert_eq!(set.into_graphs().len(), 3);
    }

    #[test]
    fn empty_graphs_are_isomorphic() {
        assert!(are_isomorphic(&Graph::new(0), &Graph::new(0)));
        assert!(are_isomorphic(&Graph::new(3), &Graph::new(3)));
        assert!(!are_isomorphic(&Graph::new(3), &Graph::new(4)));
    }

    /// The canonical graph6 key of `g`'s isomorphism class, the atlas
    /// key format.
    fn canonical_key(g: &Graph) -> String {
        crate::graph6::encode(&canonical_form(g).0).unwrap()
    }

    #[test]
    fn canonical_form_is_isomorphism_invariant() {
        let mut rng = crate::test_rng(53);
        for n in [1usize, 2, 5, 8, 9] {
            for _ in 0..12 {
                let g = generators::random_connected(n, 0.35, &mut rng);
                let perm = generators::random_permutation(n, &mut rng);
                let h = g.relabeled(&perm);
                let (cg, _) = canonical_form(&g);
                let (ch, _) = canonical_form(&h);
                assert_eq!(
                    cg.edges().collect::<Vec<_>>(),
                    ch.edges().collect::<Vec<_>>(),
                    "relabeled copies must share the canonical representative (n = {n})"
                );
                assert_eq!(canonical_key(&g), canonical_key(&h));
            }
        }
    }

    #[test]
    fn canonical_form_permutation_produces_the_representative() {
        let mut rng = crate::test_rng(59);
        for _ in 0..20 {
            let g = generators::random_connected(8, 0.3, &mut rng);
            let (cg, perm) = canonical_form(&g);
            assert_eq!(g.relabeled(&perm), cg);
            assert!(are_isomorphic(&g, &cg));
        }
    }

    #[test]
    fn canonical_form_handles_symmetric_and_disconnected_graphs() {
        // Highly symmetric: the complete graph (all vertices twins) and
        // the Petersen graph (vertex-transitive, no twins — the branch
        // search must follow its automorphism orbits).
        let k7 = generators::clique(7);
        assert_eq!(canonical_form(&k7).0, k7);
        let petersen = Graph::from_edges(
            10,
            [
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 0),
                (0, 5),
                (1, 6),
                (2, 7),
                (3, 8),
                (4, 9),
                (5, 7),
                (7, 9),
                (9, 6),
                (6, 8),
                (8, 5),
            ],
        )
        .unwrap();
        let scrambled = petersen.relabeled(&[7, 2, 9, 0, 4, 1, 8, 3, 6, 5]);
        assert_eq!(canonical_key(&petersen), canonical_key(&scrambled));
        // Disconnected graphs canonicalize too (the vertex-extension
        // enumeration walks through them).
        let two_triangles =
            Graph::from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]).unwrap();
        let swapped = two_triangles.relabeled(&[3, 4, 5, 0, 1, 2]);
        assert_eq!(canonical_key(&two_triangles), canonical_key(&swapped));
        assert_ne!(
            canonical_key(&two_triangles),
            canonical_key(&generators::cycle(6))
        );
    }

    #[test]
    fn canonical_keys_separate_all_small_classes() {
        // Every pair of non-isomorphic connected graphs on 6 nodes gets a
        // distinct key: 112 classes, 112 keys.
        let classes = crate::enumerate::connected_graphs(6).unwrap();
        let keys: std::collections::HashSet<String> = classes.iter().map(canonical_key).collect();
        assert_eq!(keys.len(), classes.len());
        assert_eq!(keys.len(), 112);
    }

    /// Asserts the bit-row canonical form returns the reference's
    /// `(graph, perm)` on `g`.
    fn assert_matches_reference(g: &Graph) {
        assert_eq!(
            canonical_form(g),
            reference::canonical_form(g),
            "bit-row and reference canonical forms differ on {:?}",
            crate::graph6::encode(g)
        );
    }

    #[test]
    fn bit_rows_match_the_reference_on_every_walk_candidate_up_to_n7() {
        let mut candidates = 0;
        for (k, parents) in crate::enumerate::graph_class_levels(6).unwrap() {
            for parent in &parents {
                for mask in 0u32..1 << k {
                    let mut g = Graph::new(k + 1);
                    for (u, v) in parent.edges() {
                        g.add_edge(u, v).unwrap();
                    }
                    for u in (0..k as u32).filter(|&u| mask >> u & 1 == 1) {
                        g.add_edge(u, k as u32).unwrap();
                    }
                    assert_matches_reference(&g);
                    candidates += 1;
                }
            }
        }
        // Σ_k (classes on k nodes) · 2^k for k = 1..6.
        assert_eq!(candidates, 2 + 2 * 4 + 4 * 8 + 11 * 16 + 34 * 32 + 156 * 64);
    }

    #[test]
    fn bit_rows_match_the_reference_on_seeded_relabelings_up_to_n32() {
        let mut rng = crate::test_rng(0xB175);
        for n in [9usize, 10, 12, 16, 24, 32] {
            for p in [0.05, 0.2, 0.5] {
                let g = generators::random_connected(n, p, &mut rng);
                assert_matches_reference(&g);
                for _ in 0..4 {
                    let perm = generators::random_permutation(n, &mut rng);
                    assert_matches_reference(&g.relabeled(&perm));
                }
            }
        }
        // Symmetric shapes exercise twin pruning and orbit branching.
        for g in [
            generators::cycle(9),
            generators::clique(12),
            generators::star(16),
            generators::path(24),
            Graph::new(10),
        ] {
            assert_matches_reference(&g);
        }
    }

    #[test]
    fn canonical_form_is_relabeling_invariant_past_the_reference_range() {
        let mut rng = crate::test_rng(0xB176);
        for n in [33usize, 48, 64] {
            let g = generators::random_connected(n, 0.15, &mut rng);
            let (canon, perm) = canonical_form(&g);
            assert_eq!(g.relabeled(&perm), canon);
            for _ in 0..3 {
                let h = g.relabeled(&generators::random_permutation(n, &mut rng));
                let (canon_h, perm_h) = canonical_form(&h);
                assert_eq!(canon_h, canon, "n = {n}");
                assert_eq!(h.relabeled(&perm_h), canon_h);
            }
        }
    }

    #[test]
    #[should_panic(expected = "bit rows")]
    fn canonical_form_refuses_graphs_past_64_nodes() {
        let _ = canonical_form(&generators::path(65));
    }
}
