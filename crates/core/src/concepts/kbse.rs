//! Bilateral k-Strong Equilibrium (k-BSE): no coalition `Γ` with `|Γ| ≤ k`
//! has a joint move — deleting any edges that touch `Γ` and creating any
//! edges inside `Γ` — from which *every* member strictly benefits.
//!
//! The exact checker enumerates coalitions and their full move spaces —
//! a coalition touching high-degree nodes owns `2^{|E_Γ|}` removal
//! subsets — so it runs under an evaluation budget. The restricted
//! checker bounds the number of simultaneous removals instead, trading
//! completeness for scale (a `None` from it is evidence, not proof).
//!
//! Both scans — exact and restricted, on any number of threads — are
//! one unit scanner (one unit per coalition) run by the one parallel
//! driver, `scan::drive`, over the [`candidates`](crate::candidates)
//! layer; the restricted refuter only adds a removal cap and shares the
//! exact scan's coalition-unit limit. Two observations make that layer
//! bite hard here:
//!
//! 1. An edit set is a k-BSE violation **iff** its strictly improving
//!    endpoints admit a covering coalition of size ≤ k (both endpoints of
//!    every added edge improve, every removed edge has an improving
//!    endpoint, and a ≤ k cover of those exists) — the same covering
//!    argument the BSE target-graph checker uses, bounded by `k`. The
//!    verdict is therefore *coalition-independent*, so
//! 2. each canonical edit set needs to be evaluated **once**, even though
//!    the coalition enumeration regenerates it for every covering
//!    coalition. The scan deduplicates by canonical fingerprint
//!    ([`crate::candidates::edit_fingerprint`]) and prunes candidates the
//!    [`EditSetPruner`] inequalities prove non-improving.
//!
//! The pre-dedup scan is retained as [`find_violation_in_reference`] for
//! the property suite and the `ci_gate` kernels. The exact scan's one
//! entry point is the [`crate::solver`] surface, which drives the
//! scanner anytime-style in size-major coalition order and reports its
//! counters on the verdict; [`find_violation_restricted`] drives it
//! unbounded.

use crate::alpha::Alpha;
use crate::candidates::{
    add_endpoint_requirement, coalition_member_cap, coalition_min_rows, edit_fingerprint, edit_key,
    CandidateStats, EditSetPruner, EndpointRequirement,
};
use crate::combinatorics::{bounded_subsets, combinations};
use crate::concepts::CheckBudget;
use crate::error::GameError;
use crate::generator::{BranchScan, IncidentInterval, RemovalIntervalOracle, Step};
use crate::moves::Move;
use crate::scan::{drive, CtlLocal, DriveOutcome, ScanCtl, UnitOutcome, UnitScanner};
use crate::state::GameState;
use bncg_graph::Graph;
use std::collections::HashSet;
use std::sync::atomic::AtomicU64;

/// [`CheckBudget::admit`] for the summed raw move space of all
/// coalitions (pruning and dedup only ever shrink the work below this
/// bound).
fn check_budget(g: &Graph, k: usize, budget: CheckBudget) -> Result<(), GameError> {
    let n = g.n();
    let k = k.min(n);
    let mut total_work: u128 = 0;
    for size in 1..=k {
        for coalition in combinations(n, size) {
            let (removable, addable) = coalition_move_space(g, &coalition);
            let bits = removable.len() + addable.len();
            if bits >= 60 {
                return Err(GameError::CheckTooLarge {
                    reason: format!("coalition {coalition:?} owns 2^{bits} candidate moves"),
                });
            }
            total_work += 1u128 << bits;
            budget.admit(total_work, || {
                format!("k-BSE move space for n = {n}, k = {k}")
            })?;
        }
    }
    Ok(())
}

/// Hard cap on materialized coalition units (≈ 50 MB of small vectors
/// at the limit; every instance the exact scan could ever drain sits far
/// below it).
const MAX_UNITS: u64 = 1 << 20;

/// `Σ_{i=1..k} C(n, i)`, saturating early once past [`MAX_UNITS`] (the
/// caller only needs "over the cap", so intermediate binomials never
/// overflow: each term is checked before it can grow past the cap times
/// `n`).
fn unit_count(n: usize, k: usize) -> u128 {
    let k = k.min(n);
    let mut total: u128 = 0;
    let mut c: u128 = 1;
    for i in 1..=k {
        c = c * (n - i + 1) as u128 / i as u128;
        total = total.saturating_add(c);
        if total > u128::from(MAX_UNITS) {
            return total;
        }
    }
    total
}

/// The k-BSE unit scanner behind both the solver and the restricted
/// refuter: one unit per coalition in the canonical size-major order,
/// positions in each coalition's raw edit enumeration order (mask-based
/// where the move space fits 63 bits and no removal cap binds,
/// size-bounded subset order otherwise). A sequential one-shot check
/// scans every coalition in one workspace, so its dedup set spans the
/// whole scan. Dedup sets are per workspace, so a resumed or parallel
/// scan may re-evaluate edit sets an uninterrupted run deduplicated —
/// wasted work, never a wrong verdict (a deduplicated set is always a
/// previously judged non-violation).
pub(crate) struct SolverScan<'a> {
    state: &'a GameState,
    k: usize,
    /// Most edges one candidate may delete (`usize::MAX` for the exact
    /// scan).
    max_removals: usize,
    coalitions: Vec<Vec<u32>>,
}

impl<'a> SolverScan<'a> {
    /// Materializes the coalition list of `(state, k)`.
    ///
    /// # Errors
    ///
    /// [`GameError::Unsupported`] when `(n, k)` yields more than
    /// [`MAX_UNITS`] coalitions — checked before allocation, so an
    /// absurd `(n, k)` errors structurally instead of exhausting memory.
    pub(crate) fn new(
        state: &'a GameState,
        k: usize,
        max_removals: usize,
    ) -> Result<Self, GameError> {
        let n = state.n();
        if unit_count(n, k) > u128::from(MAX_UNITS) {
            return Err(GameError::Unsupported {
                reason: format!(
                    "the {k}-BSE scan indexes its coalitions as materialized \
                     units and supports at most {MAX_UNITS} of them; n = {n} \
                     with k = {k} yields more"
                ),
            });
        }
        let k = k.min(n);
        let coalitions = if n <= 1 || k == 0 {
            Vec::new()
        } else {
            (1..=k).flat_map(|size| combinations(n, size)).collect()
        };
        Ok(SolverScan {
            state,
            k,
            max_removals,
            coalitions,
        })
    }
}

impl<'a> UnitScanner for SolverScan<'a> {
    type Ws = CoalitionScan<'a>;

    fn units(&self) -> u64 {
        self.coalitions.len() as u64
    }

    fn workspace(&self) -> CoalitionScan<'a> {
        CoalitionScan::new(self.state, self.k)
    }

    fn scan_unit(
        &self,
        ws: &mut CoalitionScan<'a>,
        stats: &mut CandidateStats,
        unit: u64,
        start: u64,
        ctl: &ScanCtl,
        cl: &mut CtlLocal,
        _racing: Option<&AtomicU64>,
    ) -> UnitOutcome {
        ws.scan_coalition(
            &self.coalitions[unit as usize],
            self.max_removals,
            stats,
            ctl,
            cl,
            start,
        )
    }
}

/// Restricted k-BSE refuter: only moves deleting at most `max_removals`
/// edges are scanned (additions inside a size-k coalition are at most
/// `C(k,2)` and always fully enumerated). `None` means *no violation found
/// in the restricted space* — it is not a stability certificate.
///
/// The refuter runs the exact scan's unit scanner under a removal cap,
/// through the same `scan::drive` on `threads` workers: the lowest-coalition
/// violation wins the race, so the witness is identical at every thread
/// count. The inequality-6 saving caps apply to the removal-restricted
/// subset scan too: each addition subset's endpoint caps are memoized
/// once per coalition, and any candidate whose own-removal count cannot
/// pay for an added endpoint's edges is pruned before the covering
/// search. The caps are exactness-preserving, so the restricted verdict
/// is unchanged — tested against the unrestricted exact path on
/// instances where the removal cap does not bind (`tests/pruning.rs`).
///
/// # Errors
///
/// [`GameError::Unsupported`] past the coalition-unit cap the exact
/// scan shares.
pub fn find_violation_restricted(
    g: &Graph,
    alpha: Alpha,
    k: usize,
    max_removals: usize,
    threads: usize,
) -> Result<Option<Move>, GameError> {
    let state = GameState::new(g.clone(), alpha);
    let scan = SolverScan::new(&state, k, max_removals)?;
    match drive(&scan, threads, 0, 0, &ScanCtl::unbounded()).0 {
        DriveOutcome::Completed(found) => Ok(found),
        DriveOutcome::Stopped { .. } => unreachable!("unbounded controls never stop"),
    }
}

/// The unified candidate iterator state: one per scanning thread. Holds
/// the scratch graph, the dedup set, and the pruner; `scan_coalition`
/// walks one coalition's (possibly removal-restricted) move space in the
/// canonical order every entry point shares and funnels every candidate
/// through the same dedup → prune → judge pipeline.
///
/// Two enumeration strategies back the shared pipeline, and both carry
/// the inequality-6 saving caps from the state's distance matrix. With an
/// unrestricted removal budget, removal subsets are walked as
/// branch-and-bound generated masks ([`crate::generator`]) so
/// inequality 6 discards whole subspaces — per class up front, and per
/// removal subtree through the interval oracle; with a removal cap (or
/// removable sets past 64 edges), size-bounded subset iteration is used
/// instead, with the same caps memoized per addition subset and applied
/// per candidate.
pub(crate) struct CoalitionScan<'a> {
    state: &'a GameState,
    k: usize,
    scratch: Graph,
    buf: Vec<u32>,
    pruner: EditSetPruner,
    seen: HashSet<u128>,
    /// Inequality 6 scratch: the coalition distance profile.
    min_gamma: Vec<u32>,
    /// Inequality 6 requirements for the subset strategy, memoized per
    /// addition subset ordinal of the current coalition: `(endpoint,
    /// requirement)` pairs computed on first touch — through the same
    /// [`endpoint_caps`](Self::endpoint_caps) +
    /// [`add_endpoint_requirement`] pipeline the mask strategy uses —
    /// and reused across every removal subset (the addition subsets
    /// repeat identically inside each removal iteration).
    add_caps: Vec<Option<Vec<(u32, EndpointRequirement)>>>,
    rem_list: Vec<(u32, u32)>,
}

impl<'a> CoalitionScan<'a> {
    fn new(state: &'a GameState, k: usize) -> Self {
        CoalitionScan {
            state,
            k,
            scratch: state.graph().clone(),
            buf: Vec::new(),
            pruner: EditSetPruner::from_state(state),
            seen: HashSet::new(),
            min_gamma: Vec::new(),
            add_caps: Vec::new(),
            rem_list: Vec::new(),
        }
    }

    /// Scans one coalition's candidate edit sets from position `start`:
    /// removal subsets of the edges touching Γ (at most `max_removals`
    /// at once), crossed with addition subsets of the non-edges inside
    /// Γ. Each canonical edit set is fingerprint-deduplicated, filtered
    /// by the pruning inequalities, and — when it survives — judged
    /// coalition-independently by the ≤ k covering argument. `ctl`/`cl`
    /// stop the scan anytime-style at an exact resumable position.
    fn scan_coalition(
        &mut self,
        coalition: &[u32],
        max_removals: usize,
        stats: &mut CandidateStats,
        ctl: &ScanCtl,
        cl: &mut CtlLocal,
        start: u64,
    ) -> UnitOutcome {
        let (removable, addable) = coalition_move_space(self.state.graph(), coalition);
        // The mask strategy additionally needs positions to fit one u64
        // (`add_mask · 2^r + rem_mask`); coalitions past 63 total bits
        // fall back to subset order, whose ordinal positions index only
        // what a scan could ever actually visit.
        if max_removals >= removable.len()
            && removable.len() < 60
            && addable.len() <= 20
            && removable.len() + addable.len() <= 63
        {
            return self.scan_coalition_masks(&removable, &addable, stats, ctl, cl, start);
        }
        let rcap = max_removals.min(removable.len());
        // Inequality 6 for the subset strategy (the restricted refuter's
        // path): requirements are memoized per addition subset and
        // applied per candidate.
        let use_caps = self.pruner.active();
        self.add_caps.clear();
        let mut idx: u64 = 0;
        for rem in bounded_subsets(&removable, 0, rcap) {
            for (cur_add, add) in bounded_subsets(&addable, 0, addable.len()).enumerate() {
                let pos = idx;
                idx += 1;
                if rem.is_empty() && add.is_empty() {
                    continue;
                }
                if pos < start {
                    // Resume seek: regeneration is cheap next to the
                    // evaluations the prior run already paid for.
                    continue;
                }
                stats.generated += 1;
                if self.pruner.prunable(&rem, &add) {
                    stats.pruned += 1;
                    if cl.tick_skipped(ctl, 1) {
                        return UnitOutcome::Stopped(pos + 1);
                    }
                    continue;
                }
                if use_caps && !add.is_empty() {
                    if cur_add >= self.add_caps.len() {
                        self.add_caps.resize(cur_add + 1, None);
                    }
                    if self.add_caps[cur_add].is_none() {
                        let reqs = self
                            .endpoint_caps(&add)
                            .into_iter()
                            .map(|(u, gained, cap)| {
                                let inc =
                                    removable.iter().filter(|&&(a, b)| a == u || b == u).count()
                                        as u32;
                                let alpha = self.state.alpha();
                                (u, add_endpoint_requirement(alpha, gained, cap, inc))
                            })
                            .collect();
                        self.add_caps[cur_add] = Some(reqs);
                    }
                    let reqs = self.add_caps[cur_add].as_ref().expect("just filled");
                    // The same per-endpoint requirement the mask
                    // strategy applies, resolved against this
                    // candidate's own-incident removal count.
                    let blocked = reqs.iter().any(|&(u, req)| {
                        let l = rem.iter().filter(|&&(a, b)| a == u || b == u).count() as u32;
                        match req {
                            EndpointRequirement::Dead => true,
                            EndpointRequirement::MinIncident(lo) => l < lo,
                            EndpointRequirement::MaxIncident(hi) => l > hi,
                            EndpointRequirement::Free => false,
                        }
                    });
                    if blocked {
                        stats.pruned += 1;
                        if cl.tick_skipped(ctl, 1) {
                            return UnitOutcome::Stopped(pos + 1);
                        }
                        continue;
                    }
                }
                let fp = edit_fingerprint(&rem, &add);
                if !self.seen.insert(fp) {
                    stats.deduped += 1;
                    if cl.tick_skipped(ctl, 1) {
                        return UnitOutcome::Stopped(pos + 1);
                    }
                    continue;
                }
                stats.evaluated += 1;
                if let Some(mv) = self.judge_edit_set(&rem, &add) {
                    // Winning eval still counts toward the shared pool.
                    let _ = cl.tick_eval(ctl);
                    return UnitOutcome::Found(mv);
                }
                if cl.tick_eval(ctl) {
                    return UnitOutcome::Stopped(pos + 1);
                }
            }
        }
        UnitOutcome::Done
    }

    /// Mask-based exact scan of one coalition (addition masks outer,
    /// removal masks inner), with class-level pruning: pure-removal
    /// subspaces are skipped arithmetically, and inequality 6 turns each
    /// added set into per-endpoint own-removal-count constraints that
    /// discard removal masks with one popcount — or the whole subspace
    /// when an endpoint's constraint is unmeetable. Within a class the
    /// removal masks are generated branch-and-bound style
    /// ([`crate::generator`]): the same constraints kill unreachable
    /// removal *subtrees* whole instead of testing their masks one by
    /// one.
    fn scan_coalition_masks(
        &mut self,
        removable: &[(u32, u32)],
        addable: &[(u32, u32)],
        stats: &mut CandidateStats,
        ctl: &ScanCtl,
        cl: &mut CtlLocal,
        start: u64,
    ) -> UnitOutcome {
        let rbits = removable.len();
        let rspace = 1u64 << rbits;
        if start >> rbits >= 1u64 << addable.len() {
            return UnitOutcome::Done;
        }
        let bounds_active = self.pruner.active();
        let removal_only_prunable = self.pruner.removal_only_prunable();
        // Per-edge Zobrist keys (rem role), computed once per coalition.
        let rem_keys: Vec<u128> = removable
            .iter()
            .map(|&(u, v)| edit_key(u, v, false))
            .collect();
        // Inequality 6's own-incident removal-count requirement per
        // added-set endpoint — the same intervals double as the
        // generator's subtree bounds over the removal space.
        let mut reqs: Vec<IncidentInterval> = Vec::new();
        let add0 = start / rspace;
        let rem0 = start % rspace;
        for add_mask in add0..1u64 << addable.len() {
            let base = add_mask * rspace;
            if add_mask == 0 && removal_only_prunable {
                // Pure-removal subspace: one arithmetic skip when the
                // rules apply (the 2^r − 1 nonempty removal subsets).
                stats.generated += rspace - 1;
                stats.pruned += rspace - 1;
                if cl.tick_skipped(ctl, rspace - 1) {
                    return UnitOutcome::Stopped(base + rspace);
                }
                continue;
            }
            let mut add: Vec<(u32, u32)> = Vec::new();
            let mut fp_add = 0u128;
            for (i, &(u, v)) in addable.iter().enumerate() {
                if add_mask >> i & 1 == 1 {
                    add.push((u, v));
                    fp_add ^= edit_key(u, v, true);
                }
            }
            // Inequality 6 against this added set's endpoint profile
            // (shared with the subset strategy via `endpoint_caps`).
            reqs.clear();
            let mut class_dead = false;
            if bounds_active && !add.is_empty() {
                for (u, gained, cap) in self.endpoint_caps(&add) {
                    let mut inc = 0u64;
                    for (i, &(a, b)) in removable.iter().enumerate() {
                        if a == u || b == u {
                            inc |= 1u64 << i;
                        }
                    }
                    let alpha = self.state.alpha();
                    match add_endpoint_requirement(alpha, gained, cap, inc.count_ones()) {
                        EndpointRequirement::Dead => {
                            class_dead = true;
                            break;
                        }
                        EndpointRequirement::MinIncident(l) => reqs.push(IncidentInterval {
                            incident: inc,
                            lo: l,
                            hi: u32::MAX,
                        }),
                        EndpointRequirement::MaxIncident(l) => reqs.push(IncidentInterval {
                            incident: inc,
                            lo: 0,
                            hi: l,
                        }),
                        EndpointRequirement::Free => {}
                    }
                }
            }
            if class_dead {
                stats.generated += rspace;
                stats.pruned += rspace;
                if cl.tick_skipped(ctl, rspace) {
                    return UnitOutcome::Stopped(base + rspace);
                }
                continue;
            }
            let rem_from = if add_mask == add0 { rem0 } else { 0 };
            // The removal space is *generated*, not iterated: the
            // requirement intervals double as subtree bounds, so a
            // removal range that cannot reach some endpoint's required
            // own-removal count dies whole. Leaves keep the exact
            // per-candidate pipeline (reqs → dedup → pruner → judge).
            let mut oracle = RemovalIntervalOracle { reqs: &reqs };
            let mut scan = BranchScan::new(rem_from, rspace);
            loop {
                match scan.next(&mut oracle) {
                    Step::Done => break,
                    Step::Skipped { base: _, count } => {
                        stats.visited += 1;
                        stats.generated += count;
                        stats.pruned += count;
                        if cl.tick_skipped(ctl, count) {
                            return UnitOutcome::Stopped(base + scan.cursor());
                        }
                    }
                    Step::Leaf(rem_mask) => {
                        if add_mask == 0 && rem_mask == 0 {
                            continue;
                        }
                        stats.visited += 1;
                        let pos = base + rem_mask;
                        stats.generated += 1;
                        if !reqs.iter().all(|r| {
                            let l = (rem_mask & r.incident).count_ones();
                            l >= r.lo && l <= r.hi
                        }) {
                            stats.pruned += 1;
                            if cl.tick_skipped(ctl, 1) {
                                return UnitOutcome::Stopped(pos + 1);
                            }
                            continue;
                        }
                        let mut fp = fp_add;
                        let mut bits = rem_mask;
                        while bits != 0 {
                            fp ^= rem_keys[bits.trailing_zeros() as usize];
                            bits &= bits - 1;
                        }
                        if !self.seen.insert(fp) {
                            stats.deduped += 1;
                            if cl.tick_skipped(ctl, 1) {
                                return UnitOutcome::Stopped(pos + 1);
                            }
                            continue;
                        }
                        self.rem_list.clear();
                        for (i, &e) in removable.iter().enumerate() {
                            if rem_mask >> i & 1 == 1 {
                                self.rem_list.push(e);
                            }
                        }
                        let rem = std::mem::take(&mut self.rem_list);
                        if self.pruner.prunable(&rem, &add) {
                            stats.pruned += 1;
                            self.rem_list = rem;
                            if cl.tick_skipped(ctl, 1) {
                                return UnitOutcome::Stopped(pos + 1);
                            }
                            continue;
                        }
                        stats.evaluated += 1;
                        let verdict = self.judge_edit_set(&rem, &add);
                        self.rem_list = rem;
                        if let Some(mv) = verdict {
                            // Winning eval still counts toward the pool.
                            let _ = cl.tick_eval(ctl);
                            return UnitOutcome::Found(mv);
                        }
                        if cl.tick_eval(ctl) {
                            return UnitOutcome::Stopped(pos + 1);
                        }
                    }
                }
            }
        }
        UnitOutcome::Done
    }

    /// Inequality 6's endpoint profile of one added set: per distinct
    /// added-edge endpoint, its gained-edge count and its
    /// removal-independent saving cap — the one computation both
    /// enumeration strategies feed to [`add_endpoint_requirement`], so
    /// the two paths cannot drift on which candidates the caps prune.
    fn endpoint_caps(&mut self, add: &[(u32, u32)]) -> Vec<(u32, u32, u64)> {
        let dist = self.state.distances();
        let mut endpoints: Vec<u32> = add.iter().flat_map(|&(u, v)| [u, v]).collect();
        endpoints.sort_unstable();
        endpoints.dedup();
        coalition_min_rows(dist, &endpoints, &mut self.min_gamma);
        endpoints
            .iter()
            .map(|&u| {
                let gained = add.iter().filter(|&&(a, b)| a == u || b == u).count() as u32;
                (u, gained, coalition_member_cap(dist, u, &self.min_gamma))
            })
            .collect()
    }

    /// The coalition-independent verdict: applies the edit set, computes
    /// which endpoints strictly improve (lazily, one BFS each), and looks
    /// for a covering coalition of size ≤ k made of improving endpoints.
    fn judge_edit_set(&mut self, rem: &[(u32, u32)], add: &[(u32, u32)]) -> Option<Move> {
        for &(u, v) in rem {
            self.scratch.remove_edge(u, v).expect("removable edge");
        }
        for &(u, v) in add {
            self.scratch.add_edge(u, v).expect("addable non-edge");
        }
        let mut memo: Vec<(u32, bool)> = Vec::new();
        let state = self.state;
        let mut improves = |x: u32, scratch: &Graph, buf: &mut Vec<u32>| -> bool {
            if let Some(&(_, s)) = memo.iter().find(|&&(y, _)| y == x) {
                return s;
            }
            let s = state
                .price_scalar(scratch, x, buf)
                .better_than(&state.cost(x), state.alpha());
            memo.push((x, s));
            s
        };
        // Both endpoints of every added edge must improve; every removed
        // edge needs at least one improving endpoint.
        let mut feasible = add.iter().all(|&(u, v)| {
            improves(u, &self.scratch, &mut self.buf) && improves(v, &self.scratch, &mut self.buf)
        });
        if feasible {
            feasible = rem.iter().all(|&(u, v)| {
                improves(u, &self.scratch, &mut self.buf)
                    || improves(v, &self.scratch, &mut self.buf)
            });
        }
        let witness = if feasible {
            let mut members: Vec<u32> = add.iter().flat_map(|&(u, v)| [u, v]).collect();
            members.sort_unstable();
            members.dedup();
            if members.len() <= self.k {
                let uncovered: Vec<(u32, u32)> = rem
                    .iter()
                    .copied()
                    .filter(|&(u, v)| !members.contains(&u) && !members.contains(&v))
                    .collect();
                let mut imp = |x: u32| improves(x, &self.scratch, &mut self.buf);
                if cover_removals(&mut members, &uncovered, self.k, &mut imp) {
                    members.sort_unstable();
                    Some(Move::Coalition {
                        members,
                        remove_edges: rem.to_vec(),
                        add_edges: add.to_vec(),
                    })
                } else {
                    None
                }
            } else {
                None
            }
        } else {
            None
        };
        for &(u, v) in add {
            self.scratch.remove_edge(u, v).expect("restore added");
        }
        for &(u, v) in rem {
            self.scratch.add_edge(u, v).expect("restore removed");
        }
        witness
    }
}

/// Exhaustive bounded search for a ≤ `k` covering extension: every edge in
/// `uncovered` must gain an improving endpoint in `members`. Deterministic
/// (edges in order, lower endpoint tried first), so witnesses are stable
/// across entry points.
fn cover_removals(
    members: &mut Vec<u32>,
    uncovered: &[(u32, u32)],
    k: usize,
    improves: &mut impl FnMut(u32) -> bool,
) -> bool {
    if members.len() > k {
        return false;
    }
    let Some(&(u, v)) = uncovered.first() else {
        return true;
    };
    if members.contains(&u) || members.contains(&v) {
        return cover_removals(members, &uncovered[1..], k, improves);
    }
    for x in [u, v] {
        if improves(x) {
            members.push(x);
            if members.len() <= k && cover_removals(members, &uncovered[1..], k, improves) {
                return true;
            }
            members.pop();
        }
    }
    false
}

/// The raw pre-dedup scan, retained as ground truth: per-coalition mask
/// enumeration requiring *every coalition member* to improve, exactly the
/// PR 1 engine-era checker. Property tests and the `ci_gate` kernels
/// compare against this path.
///
/// # Errors
///
/// The raw-space pre-guard against `budget`.
pub fn find_violation_in_reference(
    state: &GameState,
    k: usize,
    budget: CheckBudget,
) -> Result<Option<Move>, GameError> {
    let g = state.graph();
    let n = g.n();
    if n <= 1 || k == 0 {
        return Ok(None);
    }
    check_budget(g, k, budget)?;
    let mut scratch = g.clone();
    let mut buf = Vec::new();
    let select = |edges: &[(u32, u32)], mask: u64| -> Vec<(u32, u32)> {
        (0..edges.len())
            .filter(|&i| mask >> i & 1 == 1)
            .map(|i| edges[i])
            .collect()
    };
    for size in 1..=k.min(n) {
        for coalition in combinations(n, size) {
            let (removable, addable) = coalition_move_space(g, &coalition);
            for rem_mask in 0u64..1u64 << removable.len() {
                for add_mask in 0u64..1u64 << addable.len() {
                    if rem_mask == 0 && add_mask == 0 {
                        continue;
                    }
                    let rem = select(&removable, rem_mask);
                    let add = select(&addable, add_mask);
                    if coalition_improves(&mut scratch, state, &coalition, &rem, &add, &mut buf) {
                        return Ok(Some(Move::Coalition {
                            members: coalition,
                            remove_edges: rem,
                            add_edges: add,
                        }));
                    }
                }
            }
        }
    }
    Ok(None)
}

/// Deletable edges and creatable pairs of a coalition.
type MoveSpace = (Vec<(u32, u32)>, Vec<(u32, u32)>);

/// The edges a coalition may delete (touching Γ) and the pairs it may
/// create (inside Γ).
fn coalition_move_space(g: &Graph, coalition: &[u32]) -> MoveSpace {
    let in_coalition = |x: u32| coalition.contains(&x);
    let removable: Vec<(u32, u32)> = g
        .edges()
        .filter(|&(u, v)| in_coalition(u) || in_coalition(v))
        .collect();
    let mut addable = Vec::new();
    for (i, &u) in coalition.iter().enumerate() {
        for &v in &coalition[i + 1..] {
            if !g.has_edge(u, v) {
                addable.push((u.min(v), u.max(v)));
            }
        }
    }
    (removable, addable)
}

/// Applies a coalition move in place, checks that every member strictly
/// improves, and restores the graph (reference path).
fn coalition_improves(
    scratch: &mut Graph,
    state: &GameState,
    coalition: &[u32],
    rem: &[(u32, u32)],
    add: &[(u32, u32)],
    buf: &mut Vec<u32>,
) -> bool {
    for &(u, v) in rem {
        scratch.remove_edge(u, v).expect("removable edge exists");
    }
    for &(u, v) in add {
        scratch.add_edge(u, v).expect("addable pair is a non-edge");
    }
    let improving = coalition.iter().all(|&w| {
        state
            .price_scalar(scratch, w, buf)
            .better_than(&state.cost(w), state.alpha())
    });
    for &(u, v) in add {
        scratch.remove_edge(u, v).expect("restore added");
    }
    for &(u, v) in rem {
        scratch.add_edge(u, v).expect("restore removed");
    }
    improving
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concepts::solve_with_threads;
    use crate::concepts::Concept;
    use crate::solver::{ExecPolicy, Solver, StabilityQuery, Verdict};
    use bncg_graph::generators;

    fn a(s: &str) -> Alpha {
        s.parse().unwrap()
    }

    fn kbse(k: usize) -> Concept {
        Concept::KBse(k as u32)
    }

    #[test]
    fn one_bse_handles_multi_removal() {
        // 1-BSE allows one agent to drop several edges at once (stronger
        // than RE syntactically; equivalent by the Corbo–Parkes argument,
        // which this exercises).
        let mut rng = bncg_graph::test_rng(14);
        for _ in 0..20 {
            let g = generators::random_connected(7, 0.35, &mut rng);
            for alpha in ["1/2", "1", "3"] {
                let alpha = a(alpha);
                assert_eq!(
                    kbse(1).find_violation(&g, alpha).unwrap().is_none(),
                    crate::concepts::re::is_stable(&g, alpha),
                    "1-BSE must coincide with RE (Prop. A.2 argument)"
                );
            }
        }
    }

    #[test]
    fn kbse_ladder_is_monotone() {
        // (k+1)-BSE ⊆ k-BSE: more cooperation can only destabilize.
        let mut rng = bncg_graph::test_rng(15);
        for _ in 0..15 {
            let g = generators::random_connected(6, 0.3, &mut rng);
            for alpha in ["1/2", "1", "2", "5"] {
                let alpha = a(alpha);
                let mut prev_stable = true;
                for k in 1..=6usize {
                    let stable = kbse(k).is_stable(&g, alpha).unwrap();
                    if !prev_stable {
                        assert!(!stable, "stability must be antitone in k");
                    }
                    prev_stable = stable;
                }
            }
        }
    }

    #[test]
    fn star_is_3bse_stable() {
        for alpha in ["1", "2", "20"] {
            assert!(kbse(3).is_stable(&generators::star(7), a(alpha)).unwrap());
        }
    }

    #[test]
    fn witnesses_are_replayable() {
        let mut rng = bncg_graph::test_rng(16);
        for _ in 0..10 {
            let g = generators::random_connected(6, 0.3, &mut rng);
            for alpha in ["1/2", "2"] {
                for k in [2usize, 3] {
                    if let Some(mv) = kbse(k).find_violation(&g, a(alpha)).unwrap() {
                        assert!(crate::delta::move_improves_all(&g, a(alpha), &mv).unwrap());
                        if let Move::Coalition { members, .. } = &mv {
                            assert!(members.len() <= k);
                        }
                    }
                }
            }
        }
    }

    /// The pruned+deduped scan and the raw reference coalition scan agree
    /// on the stability verdict everywhere, and both witnesses replay.
    #[test]
    fn pruned_scan_matches_reference_verdict() {
        let mut rng = bncg_graph::test_rng(0xCBE);
        for case in 0..14 {
            let g = if case % 3 == 0 {
                generators::random_tree(7, &mut rng)
            } else {
                generators::random_connected(7, 0.3, &mut rng)
            };
            for alpha in ["1/2", "1", "2", "7"] {
                let state = GameState::new(g.clone(), a(alpha));
                for k in [1usize, 2, 3] {
                    let budget = CheckBudget::default();
                    let pruned = solve_with_threads(kbse(k), &state, 1);
                    let reference = find_violation_in_reference(&state, k, budget).unwrap();
                    assert_eq!(
                        pruned.is_some(),
                        reference.is_some(),
                        "verdict mismatch at α = {alpha}, k = {k}"
                    );
                    if let Some(mv) = pruned {
                        assert!(crate::delta::move_improves_all(&g, a(alpha), &mv).unwrap());
                    }
                }
            }
        }
    }

    #[test]
    fn parallel_exact_matches_sequential_witness() {
        let mut rng = bncg_graph::test_rng(74);
        for _ in 0..6 {
            let g = generators::random_connected(6, 0.35, &mut rng);
            for alpha in ["1", "4"] {
                let state = GameState::new(g.clone(), a(alpha));
                let seq = solve_with_threads(kbse(3), &state, 1);
                for threads in [2usize, 4] {
                    let par = solve_with_threads(kbse(3), &state, threads);
                    assert_eq!(seq, par);
                }
            }
        }
    }

    #[test]
    fn dedup_skips_regenerated_edit_sets() {
        // Overlapping coalitions regenerate each other's edit sets; the
        // scan must evaluate each canonical set at most once. The cycle
        // inside its BSE window keeps pure-removal subsets alive (α > 1,
        // not a tree), and neighboring coalitions share those edges.
        let g = generators::cycle(8);
        let state = GameState::new(g, a("10"));
        let verdict = Solver::default()
            .check(&StabilityQuery::on(kbse(3), &state))
            .unwrap();
        assert!(
            verdict.is_stable().unwrap(),
            "C8 is in its BSE window at α = 10"
        );
        let stats = verdict.stats();
        assert!(stats.deduped > 0, "cycle coalitions must overlap");
        assert!(
            stats.evaluated + stats.pruned + stats.deduped == stats.generated,
            "counters must partition the space"
        );
    }

    #[test]
    fn star_scan_is_fully_pruned() {
        // Inequality 6 with removal penalties kills every add class on a
        // star at α ≥ 1 and the tree rule kills every pure removal: the
        // exact 3-BSE scan prices nothing at all.
        let state = GameState::new(generators::star(8), a("2"));
        let verdict = Solver::default()
            .check(&StabilityQuery::on(kbse(3), &state))
            .unwrap();
        assert!(verdict.is_stable().unwrap());
        assert_eq!(
            verdict.stats().evaluated,
            0,
            "star scan should be fully pruned"
        );
    }

    #[test]
    fn budget_guard_fires() {
        // A dense graph with a huge coalition move space: the raw
        // reference scan refuses it before any work …
        let state = GameState::new(generators::clique(16), a("1"));
        let tiny = CheckBudget::new(1000);
        assert!(matches!(
            find_violation_in_reference(&state, 3, tiny),
            Err(GameError::CheckTooLarge { .. })
        ));
        // … while the solver, capped at the same budget, certifies the
        // clique without pricing a single candidate: the budget meters
        // work done, not the raw space.
        let verdict = Solver::new(ExecPolicy::default().with_eval_budget(tiny.max_evals))
            .check(&StabilityQuery::on(kbse(3), &state))
            .unwrap();
        assert!(
            matches!(verdict, Verdict::Stable { evals: 0, .. }),
            "{verdict:?}"
        );
    }

    #[test]
    fn cycle_collapses_under_coalitions_at_low_alpha() {
        // At α slightly above the RE threshold a cycle is pairwise stable,
        // but for very low α agents build chords bilaterally; 2-BSE must
        // catch what BAE catches.
        let g = generators::cycle(6);
        let alpha = a("1");
        assert_eq!(
            kbse(2).find_violation(&g, alpha).unwrap().is_some(),
            crate::concepts::bge::find_violation(&g, alpha).is_some()
                || find_violation_restricted(&g, alpha, 2, 6, 1)
                    .unwrap()
                    .is_some()
        );
    }
}
