//! Shared evaluation-budget pools with admission control.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A shared, top-uppable evaluation budget with admission control.
///
/// [`ExecPolicy::batch_budget`] caps one `check_many` batch with a
/// single anonymous atomic counter. A [`BudgetPool`] makes that pool a
/// first-class, long-lived object: it carries its **grant** (total
/// evaluations allowed, top-uppable while the pool is live), its
/// **used** counter (the atomic every scan flushes into — the same
/// counter `check_many_pooled` accepts), and an optional **expiry
/// instant**, so a serving layer can hold one pool per tenant and admit,
/// meter, and shed that tenant's queries independently of every other
/// tenant's.
///
/// The intended consumer is [`Solver::check_sliced`]
/// (one query, one bounded time slice, drawn from a shared pool — the
/// scheduling primitive of `bncg-serve`), but the type is useful
/// anywhere a budget outlives a single call: sweeps that chunk their
/// instances, dynamics runs that meter activations across slices, or a
/// daemon's per-tenant fair-share accounting.
///
/// # Accounting contract
///
/// * The pool never blocks: admission is a load, draining is the scan
///   poll protocol, so overshoot is bounded by the scan poll quantum
///   (at most `threads · 1024` evaluations past the grant — the same
///   bound [`ExecPolicy::batch_budget`] documents).
/// * [`BudgetPool::drained`] is monotone under a fixed grant: once a
///   pool reads drained, every later admission check sheds until
///   [`BudgetPool::top_up`] raises the grant.
/// * Counters are cumulative for the lifetime of the pool — a tenant's
///   `used` total is its fair-share accounting record, not a per-call
///   scratch value.
///
/// [`ExecPolicy::batch_budget`]: crate::solver::ExecPolicy::batch_budget
/// [`Solver::check_sliced`]: crate::solver::Solver::check_sliced
#[derive(Debug)]
pub struct BudgetPool {
    /// Total evaluations granted over the pool's lifetime.
    granted: AtomicU64,
    /// Evaluations consumed so far (the counter scans flush into).
    used: AtomicU64,
    /// Hard wall-clock expiry: past it the pool admits nothing,
    /// regardless of remaining budget.
    expires_at: Option<Instant>,
}

impl BudgetPool {
    /// A pool granting `evals` candidate evaluations, with no expiry.
    #[must_use]
    pub fn new(evals: u64) -> Self {
        BudgetPool {
            granted: AtomicU64::new(evals),
            used: AtomicU64::new(0),
            expires_at: None,
        }
    }

    /// Attaches a hard wall-clock expiry: once `at` passes, the pool
    /// sheds every admission check even if budget remains. This is the
    /// deadline-propagation half of fair-share accounting — a tenant's
    /// whole sweep shares one expiry instead of each query anchoring
    /// its own deadline.
    #[must_use]
    pub fn with_expiry(mut self, at: Instant) -> Self {
        self.expires_at = Some(at);
        self
    }

    /// Total evaluations granted so far (initial grant plus top-ups).
    #[must_use]
    pub fn granted(&self) -> u64 {
        self.granted.load(Ordering::Relaxed)
    }

    /// Evaluations consumed so far (may overshoot the grant by at most
    /// one scan poll quantum per worker thread).
    #[must_use]
    pub fn used(&self) -> u64 {
        self.used.load(Ordering::Relaxed)
    }

    /// Evaluations still admissible (`0` once drained).
    #[must_use]
    pub fn remaining(&self) -> u64 {
        self.granted().saturating_sub(self.used())
    }

    /// Whether the budget is exhausted. Queries admitted against a
    /// drained pool must be shed with zero work (the solver's
    /// [`check_sliced`](crate::solver::Solver::check_sliced) does this
    /// itself; callers metering other scans check before running).
    #[must_use]
    pub fn drained(&self) -> bool {
        self.used() >= self.granted()
    }

    /// Whether the pool's wall-clock expiry has passed (always `false`
    /// without one).
    #[must_use]
    pub fn expired(&self) -> bool {
        self.expires_at.is_some_and(|at| Instant::now() >= at)
    }

    /// The expiry instant, if one is set — callers propagate the
    /// remaining slice into per-call [`ExecPolicy::deadline`]s.
    ///
    /// [`ExecPolicy::deadline`]: crate::solver::ExecPolicy::deadline
    #[must_use]
    pub(crate) fn expires_at(&self) -> Option<Instant> {
        self.expires_at
    }

    /// Whether a new query may start work: budget remains and the
    /// expiry (if any) has not passed.
    #[must_use]
    pub fn admits(&self) -> bool {
        !self.drained() && !self.expired()
    }

    /// Raises the grant by `evals` (a drained pool becomes admissible
    /// again). Returns the new grant total.
    pub fn top_up(&self, evals: u64) -> u64 {
        self.granted.fetch_add(evals, Ordering::Relaxed) + evals
    }

    /// Charges `evals` consumed outside the scan protocol (polynomial
    /// concepts complete eagerly and unmetered; a fair-share layer
    /// charges them a flat rate so they cannot bypass the pool).
    pub fn charge(&self, evals: u64) {
        self.used.fetch_add(evals, Ordering::Relaxed);
    }

    /// The raw used-counter, in the shape
    /// [`Solver::check_many_pooled`](crate::solver::Solver::check_many_pooled)
    /// drains: pass it there with
    /// [`ExecPolicy::batch_budget`](crate::solver::ExecPolicy::batch_budget)
    /// set to this pool's grant to span the pool across a batch sweep.
    #[must_use]
    pub(crate) fn counter(&self) -> &AtomicU64 {
        &self.used
    }

    /// The effective batch-budget cap for one time slice of at most
    /// `slice` evaluations: `min(granted, used + max(slice, 1))`. A
    /// scan bounded by this cap stops after roughly one slice of work
    /// *and* never overruns the pool, in a single stop condition.
    #[must_use]
    pub(crate) fn slice_cap(&self, slice: u64) -> u64 {
        self.granted().min(self.used().saturating_add(slice.max(1)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn accounting_and_admission() {
        let pool = BudgetPool::new(100);
        assert!(pool.admits());
        assert_eq!(pool.remaining(), 100);
        pool.charge(40);
        assert_eq!(pool.used(), 40);
        assert_eq!(pool.remaining(), 60);
        assert_eq!(pool.slice_cap(10), 50);
        assert_eq!(pool.slice_cap(1000), 100);
        pool.charge(60);
        assert!(pool.drained());
        assert!(!pool.admits());
        // A drained pool's slice cap never exceeds the grant, so a
        // sliced scan sheds with zero work.
        assert_eq!(pool.slice_cap(10), 100);
        pool.top_up(50);
        assert!(pool.admits());
        assert_eq!(pool.remaining(), 50);
    }

    #[test]
    fn zero_slices_clamp_to_one_evaluation() {
        let pool = BudgetPool::new(100);
        assert_eq!(pool.slice_cap(0), 1, "a zero slice must make progress");
    }

    #[test]
    fn expiry_sheds_regardless_of_budget() {
        let pool = BudgetPool::new(u64::MAX).with_expiry(Instant::now() - Duration::from_secs(1));
        assert!(pool.expired());
        assert!(!pool.admits());
        assert!(!pool.drained());
    }
}
