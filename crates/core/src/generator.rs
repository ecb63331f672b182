//! Branch-and-bound candidate generation for the exponential scans.
//!
//! PR 2's pruning layer made the exact checkers *enumeration-bound*: the
//! six inequalities reject ~100% of the candidates on stable instances,
//! but the scan loops still **iterated every mask** of the surviving
//! `2^d · 2^p` removal × addition space to apply the per-candidate tests
//! — which is what kept exact BNE checks pinned to small `n`. This
//! module replaces those dense mask loops with a **branch-and-bound
//! cursor**: candidates are generated by branching on one mask bit at a
//! time, and a per-scan [`SubtreeOracle`] turns the pruning inequalities
//! into *subtree* bounds that discard whole aligned mask ranges before
//! they are materialized.
//!
//! # Contract
//!
//! [`BranchScan`] walks the mask interval `[start, end)` in **ascending
//! order** — the same lexicographic `(unit, position)` order the dense
//! loops used — and emits a [`Step`] per advance:
//!
//! * [`Step::Leaf`]: a position no subtree bound could discard. The scan
//!   loop applies the *exact* per-candidate filters (the same code the
//!   dense loop ran) and evaluates survivors, so the evaluated candidate
//!   stream — and therefore the first-violation **witness** — is
//!   bit-identical to the dense scan's.
//! * [`Step::Skipped`]: an aligned subtree `[base, base + 2^k)` the
//!   oracle proved free of improving candidates, skipped in `O(1)`.
//! * [`Step::Done`]: the interval is exhausted.
//!
//! The oracle contract that makes this exactness-preserving: `probe`
//! may report a subtree dead **only if every leaf in it would have been
//! skipped by the scan's own leaf-level filters**. Kills are therefore a
//! subset of the dense scan's skips — the generator changes *how fast*
//! non-candidates are passed over, never *which* candidates are priced.
//! `tests/generator.rs` property-tests this against the retained raw
//! `*_reference` scans and against the BNE scan run with its kills
//! disabled ([`crate::concepts::bne::find_violation_in_dense`]), which
//! must price the identical stream.
//!
//! # Resumability
//!
//! The cursor is a plain `u64` position, so the `crate::scan`
//! unit/position drive protocol — and the serialized
//! [`crate::solver::Frontier`] — carry generated scans unchanged: the
//! frontier's `pos` *is* the branch stack, packed as the path-from-root
//! bit string of the next unvisited leaf (bit `i` of `pos` is the branch
//! taken at depth `width − i`). Resuming seeks the cursor and re-derives
//! the kill decisions on the path in `O(width)` probes; a resumed chain
//! emits exactly the leaves an uninterrupted scan would
//! (`tests/generator.rs` drives this under adversarial 1-eval budgets).
//!
//! # The oracles
//!
//! * [`NeighborhoodOracle`] — BNE centers and `best_response` agents.
//!   Inequality 3/6's per-class saving caps, relaxed to the
//!   removal-count worst case of the subtree and upper-bounded by the
//!   all-partners cap (caps are monotone in the added set), plus the
//!   pure-removal rules of inequality 4. Layout-parametric: the BNE
//!   checker packs positions removal-major, `best_response`
//!   addition-major, and the oracle only needs to know where each field
//!   lives.
//! * [`RemovalIntervalOracle`] — k-BSE removal subspaces. Inequality 6's
//!   per-endpoint own-removal-count requirements become interval tests:
//!   a subtree whose reachable incident-removal counts cannot meet some
//!   endpoint's requirement dies whole.
//! * [`EditOracle`] — BSE target-graph chunks. The distance-floor bound
//!   (inequality 1) applied to the *fixed* edits of a subtree under the
//!   worst-case free completion, plus the pure-removal rules.

use crate::candidates::{EditSetPruner, NeighborhoodPruner};
use crate::state::GameState;

/// One advance of a [`BranchScan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// A surviving position: no subtree bound discarded it, so the scan
    /// loop must apply its exact leaf-level filters and (maybe) price it.
    Leaf(u64),
    /// An aligned subtree proven free of improving candidates and
    /// skipped whole.
    Skipped {
        /// First position of the skipped range.
        base: u64,
        /// Number of positions skipped (`2^level`).
        count: u64,
    },
    /// The scan interval is exhausted.
    Done,
}

/// A subtree bound for one scan: judges aligned mask ranges.
///
/// `probe(base, level)` judges `[base, base + 2^level)` for `level ≥ 1`
/// (`base` is `2^level`-aligned) and returns `true` **only** when every
/// leaf in the range is provably skipped by the scan's own leaf-level
/// filters — `false` is no claim. Leaves themselves are never probed;
/// they are emitted for the scan loop's exact per-candidate logic.
pub(crate) trait SubtreeOracle {
    /// Whether the aligned subtree `[base, base + 2^level)` is dead.
    fn probe(&mut self, base: u64, level: u32) -> bool;
}

/// The branch-and-bound cursor over a mask interval (see the
/// [module docs](self) for the contract).
#[derive(Debug, Clone)]
pub(crate) struct BranchScan {
    cursor: u64,
    end: u64,
}

impl BranchScan {
    /// A scan over positions `start..end` in ascending order.
    #[must_use]
    pub fn new(start: u64, end: u64) -> Self {
        BranchScan { cursor: start, end }
    }

    /// The next unvisited position: everything strictly before it has
    /// been emitted or skipped — exactly the resumable frontier position
    /// the `crate::scan` drive protocol records on a stop.
    #[must_use]
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// Advances by one step: the largest aligned subtree at the cursor
    /// that the oracle kills (probed top-down), or the cursor position
    /// itself as a surviving leaf.
    pub fn next<O: SubtreeOracle>(&mut self, oracle: &mut O) -> Step {
        let c = self.cursor;
        if c >= self.end {
            return Step::Done;
        }
        // Largest level at which [c, c + 2^level) is aligned and within
        // the interval; width never exceeds 63 bits in any scan, so the
        // shifts below cannot overflow.
        let align = if c == 0 {
            63
        } else {
            c.trailing_zeros().min(63)
        };
        let mut level = align;
        while level > 0 && (1u64 << level) > self.end - c {
            level -= 1;
        }
        for k in (1..=level).rev() {
            if oracle.probe(c, k) {
                let count = 1u64 << k;
                self.cursor = c + count;
                return Step::Skipped { base: c, count };
            }
        }
        self.cursor = c + 1;
        Step::Leaf(c)
    }
}

/// Number of a field's bits below `level` (the free bits of the field in
/// a `2^level`-aligned subtree).
#[inline]
fn free_bits(level: u32, shift: u32, width: u32) -> u32 {
    level.saturating_sub(shift).min(width)
}

#[inline]
fn field(mask: u64, shift: u32, width: u32) -> u64 {
    if width == 0 {
        0
    } else {
        (mask >> shift) & (u64::MAX >> (64 - width))
    }
}

/// Subtree bounds for neighborhood scans (BNE centers, `best_response`
/// agents): positions pack a removal mask over the center's neighbors
/// and an addition mask over its surviving partners, in either field
/// order. A subtree is killed when
///
/// * it holds only pure removals and inequality 4 applies
///   (`α ≤ 1`, or a tree), and/or
/// * inequality 3/6's class condition
///   `α·|A| − (α − 1)·|R| ≥ save_A` already holds at the subtree's
///   *worst case* — the minimum addition count, the removal count least
///   favourable to pruning, and the saving cap of the **largest added
///   set the subtree can reach**: the fixed addition prefix plus every
///   free partner. Caps are monotone in the added set, so that suffix
///   cap bounds every class in the subtree; it is memoized one entry
///   per level (the scan descends a branch path re-probing the same
///   prefix), and once the addition field is fully fixed it *is* the
///   exact class cap.
///
/// Both relaxations only ever strengthen the per-leaf inequality, so a
/// killed subtree contains no candidate the dense leaf tests would have
/// kept — the exactness contract of [`SubtreeOracle`].
pub(crate) struct NeighborhoodOracle<'a> {
    state: &'a GameState,
    pruner: &'a NeighborhoodPruner,
    center: u32,
    partners: &'a [u32],
    add_shift: u32,
    add_width: u32,
    rem_shift: u32,
    rem_width: u32,
    num: i128,
    den: i128,
    save_all: u64,
    removal_only_prunable: bool,
    active: bool,
    /// One-entry memo of the exact class cap (`add_mask`, `save_A`),
    /// shared with the leaf loop: classes are visited in order, so one
    /// entry gives the same hit rate a streaming computation would.
    class_cache: Option<(u64, u64)>,
    /// Per-level memo of suffix caps, indexed by the number of free
    /// addition bits: entry `k` holds `(add_fixed, cap)` for the class
    /// `add_fixed | (2^k − 1)` — the largest added set reachable in a
    /// subtree with `k` free addition bits. One slot per level matches
    /// the scan's probe pattern (a branch path is descended at one
    /// prefix before the prefix advances).
    suffix_caps: Vec<Option<(u64, u64)>>,
}

impl<'a> NeighborhoodOracle<'a> {
    /// An oracle for `center`'s scan with the addition field at bits
    /// `add_shift..add_shift + partners.len()` and the removal field at
    /// `rem_shift..rem_shift + rem_width` of each position.
    #[must_use]
    pub fn new(
        state: &'a GameState,
        pruner: &'a NeighborhoodPruner,
        center: u32,
        partners: &'a [u32],
        add_shift: u32,
        rem_shift: u32,
        rem_width: u32,
    ) -> Self {
        let active = pruner.active();
        let save_all = if active && !partners.is_empty() {
            pruner.center_add_cap(state, center, partners)
        } else {
            0
        };
        NeighborhoodOracle {
            state,
            pruner,
            center,
            partners,
            add_shift,
            add_width: partners.len() as u32,
            rem_shift,
            rem_width,
            num: i128::from(state.alpha().num()),
            den: i128::from(state.alpha().den()),
            save_all,
            removal_only_prunable: pruner.removal_only_prunable(),
            active,
            class_cache: None,
            suffix_caps: vec![None; partners.len() + 1],
        }
    }

    /// The inequality-3 saving cap of the added set selected by the
    /// field-local `add_mask`.
    fn cap_of(&self, add_mask: u64) -> u64 {
        let added: Vec<u32> = self
            .partners
            .iter()
            .enumerate()
            .filter(|(i, _)| add_mask >> i & 1 == 1)
            .map(|(_, &v)| v)
            .collect();
        self.pruner.center_add_cap(self.state, self.center, &added)
    }

    /// The exact inequality-3 saving cap of the class selected by
    /// `add_mask`, memoized for the class the scan is currently inside
    /// (ascending order visits each class in one contiguous run).
    pub(crate) fn class_cap(&mut self, add_mask: u64) -> u64 {
        if let Some((m, cap)) = self.class_cache {
            if m == add_mask {
                return cap;
            }
        }
        let cap = self.cap_of(add_mask);
        self.class_cache = Some((add_mask, cap));
        cap
    }

    /// The saving cap of the **largest** added set a subtree with fixed
    /// addition prefix `add_fixed` and `add_free` free addition bits can
    /// reach: `add_fixed | (2^add_free − 1)` (alignment zeroes the low
    /// prefix bits). Monotonicity makes it bound every class in the
    /// subtree, so it can replace the looser all-partners cap in the
    /// probe; memoized per level because the scan descends each branch
    /// path at one prefix before moving on.
    fn suffix_cap(&mut self, add_fixed: u64, add_free: u32) -> u64 {
        let slot = add_free as usize;
        if let Some((f, cap)) = self.suffix_caps[slot] {
            if f == add_fixed {
                return cap;
            }
        }
        let cap = self.cap_of(add_fixed | ((1u64 << add_free) - 1));
        self.suffix_caps[slot] = Some((add_fixed, cap));
        cap
    }
}

impl SubtreeOracle for NeighborhoodOracle<'_> {
    fn probe(&mut self, base: u64, level: u32) -> bool {
        if !self.active {
            return false;
        }
        let add_fixed = field(base, self.add_shift, self.add_width);
        let na_fixed = add_fixed.count_ones();
        let add_free = free_bits(level, self.add_shift, self.add_width);
        if na_fixed == 0 {
            // The subtree holds pure-removal candidates (and possibly
            // the identity, which the leaf loop never prices anyway).
            if add_free == 0 {
                // *Only* pure removals: the class inequality below is
                // vacuous here, so the pure-removal rule alone decides.
                return self.removal_only_prunable;
            }
            if !self.removal_only_prunable {
                return false;
            }
        }
        // Non-empty added sets must die under the class inequality at
        // the subtree's worst case.
        let nr_fixed = field(base, self.rem_shift, self.rem_width).count_ones();
        let rem_free = free_bits(level, self.rem_shift, self.rem_width);
        let na_min = na_fixed.max(1);
        // α > 1 ⇒ own removals pay for additions, so the largest
        // reachable removal count is the hardest to prune; α ≤ 1 ⇒ the
        // smallest is.
        let nr_worst = if self.num > self.den {
            nr_fixed + rem_free
        } else {
            nr_fixed
        };
        // Saving caps are monotone in the added set: the cap of the
        // largest reachable set bounds every class in the subtree. With
        // the addition field fully fixed that largest set *is* the
        // class, so the bound is exact; with a partially fixed field
        // the memoized suffix cap is tighter than the all-partners cap.
        let cap = if add_free == 0 {
            self.class_cap(add_fixed)
        } else if add_free >= self.add_width {
            self.save_all
        } else {
            self.suffix_cap(add_fixed, add_free)
        };
        self.num * i128::from(na_min) - (self.num - self.den) * i128::from(nr_worst)
            >= self.den * i128::from(cap)
    }
}

/// An inequality-6 endpoint requirement resolved against removal masks:
/// the count of set bits in `incident` must fall in `[lo, hi]` for the
/// endpoint to possibly improve.
#[derive(Debug, Clone, Copy)]
pub(crate) struct IncidentInterval {
    /// Mask of removal positions incident to the endpoint.
    pub incident: u64,
    /// Minimum own-incident removals required.
    pub lo: u32,
    /// Maximum own-incident removals allowed.
    pub hi: u32,
}

/// Subtree bounds for k-BSE removal subspaces: a subtree dies when some
/// endpoint requirement is unreachable — the fixed removals already
/// exceed its maximum, or even taking every free incident removal stays
/// below its minimum. Leaves the intervals keep may still fail them
/// individually; the leaf loop re-checks exactly.
pub(crate) struct RemovalIntervalOracle<'a> {
    /// The per-endpoint requirements of the current addition class.
    pub reqs: &'a [IncidentInterval],
}

impl SubtreeOracle for RemovalIntervalOracle<'_> {
    fn probe(&mut self, base: u64, level: u32) -> bool {
        let freem = (1u64 << level) - 1;
        self.reqs.iter().any(|r| {
            let fixed = (base & r.incident).count_ones();
            let reach = fixed + (freem & r.incident).count_ones();
            reach < r.lo || fixed > r.hi
        })
    }
}

/// Subtree bounds for the BSE target-graph scan. Positions are whole
/// target-graph bitmasks; the edits of a subtree split into a *fixed*
/// part (bits at or above the subtree level, already differing from the
/// current graph) and *free* flips below it. A subtree dies when
///
/// * a fixed added edge has an endpoint that cannot improve even in the
///   completion least favourable to pruning (all free incident removals
///   taken, no free additions counted — both only strengthen the
///   distance-floor inequality 1 at the leaves),
/// * a fixed removed edge has **both** endpoints in that state, or
/// * every fixed edit is a removal, every free flip is a removal, and
///   the pure-removal rules (inequality 4) apply.
///
/// Subtrees containing the current graph's own mask are never killed, so
/// the identity skip stays a leaf-loop concern.
pub(crate) struct EditOracle {
    current: u64,
    pairs: Vec<(u32, u32)>,
    /// Per-node mask of incident pair positions.
    incident: Vec<u64>,
    /// The leaf filter itself: the oracle applies
    /// [`EditSetPruner::agent_cannot_improve`] to its worst-case deltas
    /// and reuses the pruner's connectivity/pure-removal gates, so the
    /// subtree bounds cannot drift from the per-candidate tests they
    /// must under-approximate.
    pruner: EditSetPruner,
    gained: Vec<u32>,
    lost: Vec<u32>,
    /// The fixed-edit set currently tallied into `gained`/`lost`.
    /// Probes walk only `applied ^ desired` and push/pop the per-node
    /// deltas: the scan descends one branch path bit by bit before the
    /// base advances, so consecutive probes differ by a handful of
    /// edits and the tallies amortize to `O(Δ)` instead of a full
    /// re-walk of every fixed edit per probe.
    applied: u64,
}

impl EditOracle {
    /// Builds the oracle from the scan's pre-move state and its pair
    /// list (bit `i` of a target mask toggles `pairs[i]`).
    #[must_use]
    pub fn new(state: &GameState, current: u64, pairs: &[(u32, u32)]) -> Self {
        let n = state.n();
        let mut incident = vec![0u64; n];
        for (i, &(u, v)) in pairs.iter().enumerate() {
            incident[u as usize] |= 1 << i;
            incident[v as usize] |= 1 << i;
        }
        EditOracle {
            current,
            pairs: pairs.to_vec(),
            incident,
            pruner: EditSetPruner::from_state(state),
            gained: vec![0; n],
            lost: vec![0; n],
            applied: 0,
        }
    }

    /// Inequality 1 at the subtree's worst case: can endpoint `x`,
    /// gaining its fixed edges and shedding at most its fixed plus free
    /// incident removals, still never improve? (The decision itself is
    /// the pruner's, applied to the least-prunable reachable delta.)
    #[inline]
    fn endpoint_dead(&self, x: u32, free_rem: u64) -> bool {
        let l_max = self.lost[x as usize] + (free_rem & self.incident[x as usize]).count_ones();
        self.pruner
            .agent_cannot_improve(x, self.gained[x as usize], l_max)
    }
}

impl SubtreeOracle for EditOracle {
    fn probe(&mut self, base: u64, level: u32) -> bool {
        if !self.pruner.active() {
            return false;
        }
        // Never kill across the identity: the leaf loop skips it.
        if base >> level == self.current >> level {
            return false;
        }
        let freem = (1u64 << level) - 1;
        let diff_fixed = (base ^ self.current) & !freem;
        let free_adds = !self.current & freem;
        if diff_fixed & !self.current == 0 && free_adds == 0 && self.pruner.removal_only_prunable()
        {
            return true;
        }
        // Push/pop only the edits that changed since the last probe.
        let mut delta = self.applied ^ diff_fixed;
        while delta != 0 {
            let i = delta.trailing_zeros() as usize;
            delta &= delta - 1;
            let (u, v) = self.pairs[i];
            let tally = if self.current >> i & 1 == 1 {
                &mut self.lost
            } else {
                &mut self.gained
            };
            if diff_fixed >> i & 1 == 1 {
                tally[u as usize] += 1;
                tally[v as usize] += 1;
            } else {
                tally[u as usize] -= 1;
                tally[v as usize] -= 1;
            }
        }
        self.applied = diff_fixed;
        let free_rem = self.current & freem;
        let mut bits = diff_fixed;
        while bits != 0 {
            let i = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let (u, v) = self.pairs[i];
            if self.current >> i & 1 == 1 {
                // Fixed removal: dead when no endpoint can improve.
                if self.endpoint_dead(u, free_rem) && self.endpoint_dead(v, free_rem) {
                    return true;
                }
            } else {
                // Fixed addition: both endpoints must improve.
                if self.endpoint_dead(u, free_rem) || self.endpoint_dead(v, free_rem) {
                    return true;
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An oracle killing nothing: the scan must emit every position of
    /// the interval in order — dense enumeration as a degenerate case.
    struct Never;
    impl SubtreeOracle for Never {
        fn probe(&mut self, _base: u64, _level: u32) -> bool {
            false
        }
    }

    /// Kills every probed subtree: one maximal skip per step.
    struct Always;
    impl SubtreeOracle for Always {
        fn probe(&mut self, _base: u64, _level: u32) -> bool {
            true
        }
    }

    #[test]
    fn never_killing_oracle_is_dense_enumeration() {
        let mut scan = BranchScan::new(0, 16);
        let mut seen = Vec::new();
        loop {
            match scan.next(&mut Never) {
                Step::Leaf(p) => seen.push(p),
                Step::Skipped { .. } => panic!("Never cannot kill"),
                Step::Done => break,
            }
        }
        assert_eq!(seen, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn always_killing_oracle_skips_in_maximal_aligned_ranges() {
        // Interval [3, 21): expected aligned decomposition
        // [3,4) leaf-free? 3 is odd ⇒ no probe ⇒ emitted as a leaf — an
        // Always oracle only kills *probed* subtrees (level ≥ 1).
        let mut scan = BranchScan::new(3, 21);
        let mut skipped = 0u64;
        let mut leaves = Vec::new();
        loop {
            match scan.next(&mut Always) {
                Step::Leaf(p) => leaves.push(p),
                Step::Skipped { base, count } => {
                    assert_eq!(base % count, 0, "skips must be aligned");
                    skipped += count;
                }
                Step::Done => break,
            }
        }
        // Unaligned endpoints surface as leaves; the bulk is skipped.
        assert_eq!(skipped + leaves.len() as u64, 18);
        for p in leaves {
            assert!(p == 3 || p == 20, "only unalignable cursor positions leak");
        }
    }

    #[test]
    fn resumed_scan_emits_a_superset_of_the_tail_with_only_dead_extras() {
        // Kill subtrees whose base has bit 2 set (size-4 classes) —
        // modelling leaves whose leaf-level filter would skip them.
        struct Bit2;
        impl SubtreeOracle for Bit2 {
            fn probe(&mut self, base: u64, level: u32) -> bool {
                level <= 2 && base & 4 != 0
            }
        }
        let dead = |p: u64| p & 4 != 0;
        let collect = |start: u64| {
            let mut scan = BranchScan::new(start, 32);
            let mut out = Vec::new();
            loop {
                match scan.next(&mut Bit2) {
                    Step::Leaf(p) => out.push(p),
                    Step::Skipped { .. } => {}
                    Step::Done => break,
                }
            }
            out
        };
        let full = collect(0);
        assert!(full.iter().all(|&p| !dead(p)));
        for start in 0..32 {
            let resumed = collect(start);
            // The resume contract the scan loops rely on: every leaf the
            // uninterrupted scan would emit at or after `start` is
            // emitted, in order; an unaligned `start` may additionally
            // emit leaves from inside a kill, but only ones the
            // leaf-level filters (here: `dead`) skip anyway — so the
            // *evaluated* candidate stream is identical either way.
            let survivors: Vec<u64> = resumed.iter().copied().filter(|&p| !dead(p)).collect();
            let tail: Vec<u64> = full.iter().copied().filter(|&p| p >= start).collect();
            assert_eq!(survivors, tail, "resume at {start} diverged");
        }
    }

    #[test]
    fn cursor_is_the_certified_prefix() {
        let mut scan = BranchScan::new(0, 8);
        assert_eq!(scan.cursor(), 0);
        let s = scan.next(&mut Always);
        assert_eq!(s, Step::Skipped { base: 0, count: 8 });
        assert_eq!(scan.cursor(), 8);
        assert_eq!(scan.next(&mut Always), Step::Done);
    }

    /// The incremental edit tallies must be indistinguishable from a
    /// full recomputation at every probe a real scan issues: one
    /// long-lived oracle is driven through a complete [`BranchScan`]
    /// walk while a from-scratch oracle shadows every probe.
    #[test]
    fn edit_oracle_incremental_tallies_match_fresh_recomputation() {
        use crate::state::GameState;
        use bncg_graph::generators;

        struct Shadow<'a> {
            inc: EditOracle,
            state: &'a GameState,
            current: u64,
            pairs: &'a [(u32, u32)],
        }
        impl SubtreeOracle for Shadow<'_> {
            fn probe(&mut self, base: u64, level: u32) -> bool {
                let got = self.inc.probe(base, level);
                let want = EditOracle::new(self.state, self.current, self.pairs).probe(base, level);
                assert_eq!(got, want, "probe({base}, {level}) diverged");
                got
            }
        }

        let mut rng = bncg_graph::test_rng(0xED17);
        for (case, alpha) in ["1/2", "2", "6"].iter().enumerate() {
            let g = generators::random_connected(6, 0.3 + 0.1 * case as f64, &mut rng);
            let state = GameState::new(g.clone(), alpha.parse().unwrap());
            let n = state.n() as u32;
            let mut pairs = Vec::new();
            let mut current = 0u64;
            for u in 0..n {
                for v in (u + 1)..n {
                    if g.has_edge(u, v) {
                        current |= 1 << pairs.len();
                    }
                    pairs.push((u, v));
                }
            }
            let total = 1u64 << pairs.len();
            let mut shadow = Shadow {
                inc: EditOracle::new(&state, current, &pairs),
                state: &state,
                current,
                pairs: &pairs,
            };
            let mut scan = BranchScan::new(0, total);
            while scan.next(&mut shadow) != Step::Done {}
        }
    }

    #[test]
    fn probe_amortizes_to_constant_per_leaf() {
        // A full no-kill scan of 2^16 positions must probe O(2^17)
        // subtrees, not O(width · 2^16).
        struct Count(u64);
        impl SubtreeOracle for Count {
            fn probe(&mut self, _b: u64, _l: u32) -> bool {
                self.0 += 1;
                false
            }
        }
        let mut oracle = Count(0);
        let mut scan = BranchScan::new(0, 1 << 16);
        let mut leaves = 0u64;
        while scan.next(&mut oracle) != Step::Done {
            leaves += 1;
        }
        assert_eq!(leaves, 1 << 16);
        assert!(
            oracle.0 < (1 << 17),
            "probes {} exceed the 2-per-leaf amortized bound",
            oracle.0
        );
    }
}
