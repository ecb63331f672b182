//! Shared scan-control infrastructure behind the [`crate::solver`]
//! surface: a cooperative stop protocol (`ScanCtl`/`CtlLocal`) the
//! exponential checkers poll from their hot loops, a per-unit outcome
//! type, and the generic sequential/parallel drive loop that turns a
//! unit-structured scan (BNE centers, k-BSE coalitions, BSE target-mask
//! chunks) into an anytime, resumable search.
//!
//! # The unit/position contract
//!
//! Every exponential checker factors its candidate space into **units**
//! (outer index, scanned in ascending order) and **positions** within a
//! unit (inner index in raw enumeration order). The contract the driver
//! relies on:
//!
//! 1. `scan_unit(unit, start)` scans positions `start..` of `unit` in
//!    ascending order and never looks at another unit.
//! 2. `UnitOutcome::Found` reports the *first* violation at or after
//!    `start`; `UnitOutcome::Done` certifies no violation at or after
//!    `start`; `UnitOutcome::Stopped(p)` certifies positions
//!    `start..p` and that `p > start` whenever any candidate was
//!    processed (forward progress).
//! 3. Enumeration is deterministic in `(unit, position)` — independent
//!    of thread count, budgets, and resume points — so a scan stopped at
//!    a frontier and resumed later visits exactly the candidates an
//!    uninterrupted scan would, in the same order.
//!
//! Under that contract [`drive`] guarantees: a `Completed(Some(mv))`
//! result is the same witness the sequential unbudgeted scan returns,
//! and a `Stopped` result's `(unit, pos)` frontier has every candidate
//! strictly before it certified non-improving — resuming there can never
//! skip or reorder a candidate.
//!
//! The control protocol is substrate-agnostic: workspaces now carry a
//! per-thread [`bncg_graph::BitsetGraph`] whose toggled state is batched
//! across consecutive leaves of one unit, which is safe precisely
//! because a unit is owned by one worker end to end — the contract above
//! never migrates a half-scanned unit, so no bitset state crosses
//! threads.

use crate::candidates::CandidateStats;
use crate::moves::Move;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Immutable stop conditions for one query execution, shared by all
/// worker threads. An inactive control (no budget, deadline, or cancel
/// token) reduces every poll to a single branch so unbounded scans (the
/// default policy, the restricted refuters) pay nothing for the shared
/// code path.
pub(crate) struct ScanCtl<'a> {
    /// Shared evaluation counter; `None` means the control is inert.
    shared_evals: Option<&'a AtomicU64>,
    /// Stop once the shared counter reaches this (`u64::MAX` = none).
    eval_budget: u64,
    /// Stop once the wall clock passes this instant.
    deadline: Option<Instant>,
    /// Stop once this flag is raised.
    cancel: Option<&'a AtomicBool>,
    /// Local work between flushes of the shared counter: stop conditions
    /// are polled at this granularity, which bounds budget overshoot to
    /// `threads · poll` evaluations.
    poll: u64,
}

impl<'a> ScanCtl<'a> {
    /// A control that never stops the scan.
    pub(crate) fn unbounded() -> ScanCtl<'static> {
        ScanCtl {
            shared_evals: None,
            eval_budget: u64::MAX,
            deadline: None,
            cancel: None,
            poll: u64::MAX,
        }
    }

    /// A control enforcing the given stop conditions through `shared`.
    pub(crate) fn new(
        shared: &'a AtomicU64,
        eval_budget: Option<u64>,
        deadline: Option<Instant>,
        cancel: Option<&'a AtomicBool>,
    ) -> ScanCtl<'a> {
        if eval_budget.is_none() && deadline.is_none() && cancel.is_none() {
            return ScanCtl::unbounded();
        }
        // A zero budget still makes progress: the first poll fires only
        // after `poll` candidates were processed.
        let budget = eval_budget.unwrap_or(u64::MAX).max(1);
        ScanCtl {
            shared_evals: Some(shared),
            eval_budget: budget,
            deadline,
            cancel,
            poll: (budget / 8).clamp(64, 1024),
        }
    }
}

/// Per-thread poll state: counts work locally and only touches the
/// shared counter (and the clock) every [`ScanCtl::poll`] candidates.
pub(crate) struct CtlLocal {
    /// Evaluations not yet flushed to the shared counter.
    pending: u64,
    /// Candidates until the next flush.
    countdown: u64,
}

impl CtlLocal {
    pub(crate) fn new(ctl: &ScanCtl) -> Self {
        CtlLocal {
            pending: 0,
            countdown: ctl.poll,
        }
    }

    /// Records one engine evaluation; `true` means stop the scan.
    #[inline]
    pub(crate) fn tick_eval(&mut self, ctl: &ScanCtl) -> bool {
        let Some(shared) = ctl.shared_evals else {
            return false;
        };
        self.pending += 1;
        if self.countdown > 1 {
            self.countdown -= 1;
            return false;
        }
        self.flush(ctl, shared)
    }

    /// Records `n` generated-but-skipped candidates (pruned, deduped, or
    /// bulk-eliminated subspaces). Only the wall-clock conditions can
    /// fire here — skipped candidates cost no evaluation budget — but
    /// polling on them keeps prune-heavy scans responsive to deadlines
    /// and cancellation.
    #[inline]
    pub(crate) fn tick_skipped(&mut self, ctl: &ScanCtl, n: u64) -> bool {
        let Some(shared) = ctl.shared_evals else {
            return false;
        };
        if self.countdown > n {
            self.countdown -= n;
            return false;
        }
        self.flush(ctl, shared)
    }

    /// Flushes any unreported evaluations to the shared counter
    /// *without* evaluating stop conditions — called when a drive
    /// worker finishes so a counter that outlives the query (the
    /// [`crate::solver`] batch budget pool) observes every evaluation,
    /// not just those past a poll boundary.
    pub(crate) fn finish(&mut self, ctl: &ScanCtl) {
        if let Some(shared) = ctl.shared_evals {
            if self.pending > 0 {
                shared.fetch_add(self.pending, Ordering::Relaxed);
                self.pending = 0;
            }
        }
    }

    #[cold]
    fn flush(&mut self, ctl: &ScanCtl, shared: &AtomicU64) -> bool {
        self.countdown = ctl.poll;
        let total = shared.fetch_add(self.pending, Ordering::Relaxed) + self.pending;
        self.pending = 0;
        if total >= ctl.eval_budget {
            return true;
        }
        if let Some(c) = ctl.cancel {
            if c.load(Ordering::Relaxed) {
                return true;
            }
        }
        if let Some(d) = ctl.deadline {
            if Instant::now() >= d {
                return true;
            }
        }
        false
    }
}

/// What one unit's scan produced (see the module docs for the contract).
pub(crate) enum UnitOutcome {
    /// Every position at or after `start` is certified non-improving.
    Done,
    /// The first improving move at or after `start`.
    Found(Move),
    /// The scan certified positions `start..p` and was stopped by the
    /// control; `p` is the next position to resume at.
    Stopped(u64),
}

/// A unit-structured candidate scan (one per exponential concept).
pub(crate) trait UnitScanner: Sync {
    /// Per-thread scratch (scratch graph, bitset workspace, dedup set,
    /// memo caches).
    type Ws: Send;

    /// Number of units in the scan.
    fn units(&self) -> u64;

    /// Fresh per-thread scratch.
    fn workspace(&self) -> Self::Ws;

    /// Scans positions `start..` of `unit` under `ctl`. `racing` carries
    /// the parallel drive's lowest-found-unit index: once it undercuts
    /// `unit`, the scan may abandon (return `Done`) because a violation
    /// in a strictly lower unit already beats anything found here — the
    /// driver never certifies a prefix past a recorded stop, and a
    /// recorded find below `unit` makes this unit's completeness moot.
    #[allow(clippy::too_many_arguments)]
    fn scan_unit(
        &self,
        ws: &mut Self::Ws,
        stats: &mut CandidateStats,
        unit: u64,
        start: u64,
        ctl: &ScanCtl,
        cl: &mut CtlLocal,
        racing: Option<&AtomicU64>,
    ) -> UnitOutcome;
}

/// Outcome of a full drive over a scanner's units.
pub(crate) enum DriveOutcome {
    /// The scan ran to completion: `Some` witness or certified stability.
    Completed(Option<Move>),
    /// The control stopped the scan; everything strictly before
    /// `(unit, pos)` is certified non-improving.
    Stopped {
        /// First unit not fully certified.
        unit: u64,
        /// First uncertified position within that unit.
        pos: u64,
    },
}

/// Runs `scanner` from `(start_unit, start_pos)` across `threads`
/// workers. The verdict — and, on completion, the witness — equals the
/// sequential scan's: units are raced with a lowest-unit-wins atomic
/// (the same protocol the PR 2 parallel checkers used), and a stop in a
/// unit below the lowest found violation downgrades the result to
/// `Stopped` so an unscanned earlier candidate can never be skipped.
pub(crate) fn drive<S: UnitScanner>(
    scanner: &S,
    threads: usize,
    start_unit: u64,
    start_pos: u64,
    ctl: &ScanCtl,
) -> (DriveOutcome, CandidateStats) {
    let units = scanner.units();
    if threads <= 1 {
        let mut ws = scanner.workspace();
        let mut cl = CtlLocal::new(ctl);
        let mut stats = CandidateStats::default();
        let mut unit = start_unit;
        let mut outcome = DriveOutcome::Completed(None);
        while unit < units {
            let s = if unit == start_unit { start_pos } else { 0 };
            match scanner.scan_unit(&mut ws, &mut stats, unit, s, ctl, &mut cl, None) {
                UnitOutcome::Done => unit += 1,
                UnitOutcome::Found(mv) => {
                    outcome = DriveOutcome::Completed(Some(mv));
                    break;
                }
                UnitOutcome::Stopped(pos) => {
                    outcome = DriveOutcome::Stopped { unit, pos };
                    break;
                }
            }
        }
        cl.finish(ctl);
        return (outcome, stats);
    }

    let best_unit = AtomicU64::new(u64::MAX);
    let found: Mutex<Option<(u64, Move)>> = Mutex::new(None);
    let stops: Mutex<Vec<(u64, u64)>> = Mutex::new(Vec::new());
    let total: Mutex<CandidateStats> = Mutex::new(CandidateStats::default());
    std::thread::scope(|scope| {
        for t in 0..threads as u64 {
            let best_unit = &best_unit;
            let found = &found;
            let stops = &stops;
            let total = &total;
            scope.spawn(move || {
                let mut ws = scanner.workspace();
                let mut cl = CtlLocal::new(ctl);
                let mut stats = CandidateStats::default();
                let mut unit = start_unit + t;
                while unit < units {
                    if best_unit.load(Ordering::Relaxed) < unit {
                        break;
                    }
                    let s = if unit == start_unit { start_pos } else { 0 };
                    match scanner.scan_unit(
                        &mut ws,
                        &mut stats,
                        unit,
                        s,
                        ctl,
                        &mut cl,
                        Some(best_unit),
                    ) {
                        UnitOutcome::Done => unit += threads as u64,
                        UnitOutcome::Found(mv) => {
                            let mut guard = found.lock().expect("no poisoning");
                            if unit < best_unit.load(Ordering::Relaxed) {
                                best_unit.store(unit, Ordering::Relaxed);
                                *guard = Some((unit, mv));
                            }
                            break;
                        }
                        UnitOutcome::Stopped(pos) => {
                            stops.lock().expect("no poisoning").push((unit, pos));
                            break;
                        }
                    }
                }
                cl.finish(ctl);
                total.lock().expect("no poisoning").merge(&stats);
            });
        }
    });
    let stats = total.into_inner().expect("no poisoning");
    let found = found.into_inner().expect("no poisoning");
    let stop = stops.into_inner().expect("no poisoning").into_iter().min();
    let outcome = match (found, stop) {
        (Some((_, mv)), None) => DriveOutcome::Completed(Some(mv)),
        (Some((w, mv)), Some((su, sp))) => {
            if w < su {
                // Every unit before `w` was certified (no stop below it
                // and strided owners passed them in order), so this is
                // the sequential-order first witness.
                DriveOutcome::Completed(Some(mv))
            } else {
                // A stop below the found unit: the witness cannot be
                // certified as first-in-order, so it is discarded and the
                // resumable frontier wins (the resumed scan will
                // deterministically rediscover it or an earlier one).
                DriveOutcome::Stopped { unit: su, pos: sp }
            }
        }
        (None, Some((su, sp))) => DriveOutcome::Stopped { unit: su, pos: sp },
        (None, None) => DriveOutcome::Completed(None),
    };
    (outcome, stats)
}
