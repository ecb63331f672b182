//! The unified stability-query surface: **one way to ask "is this state
//! stable?"** for every solution concept, under an explicit execution
//! policy with budgets, deadlines, cancellation, and threads — returning
//! a structured [`Verdict`] instead of a zoo of per-concept entry
//! points.
//!
//! A [`StabilityQuery`] names the concept and the instance (a graph plus
//! α, or a borrowed [`GameState`] whose caches are reused). A [`Solver`]
//! executes queries under its [`ExecPolicy`]:
//!
//! * **Budgeted** — `eval_budget` caps the number of candidate-move
//!   evaluations (the unit [`CheckBudget`](crate::CheckBudget) counts);
//! * **anytime** — a query stopped by budget, deadline, or cancellation
//!   returns [`Verdict::Exhausted`] with the work done so far, never a
//!   [`GameError::CheckTooLarge`] refusal;
//! * **resumable** — the exhausted verdict carries a serializable
//!   [`Frontier`]; a follow-up query built with
//!   [`StabilityQuery::resume`] continues the scan exactly where it
//!   stopped. Enumeration order is deterministic, so a chain of budgeted
//!   queries returns the **identical witness** an uninterrupted run
//!   would (property-tested in `tests/solver.rs`);
//! * **poolable** — [`Solver::check_many`] executes a batch on one
//!   scoped thread pool with deterministic (input-order) results, and
//!   an [`ExecPolicy::batch_budget`] makes the whole batch drain one
//!   shared atomic eval pool first-come: queries past the drained pool
//!   load-shed into zero-work exhausted verdicts instead of running
//!   ([`Solver::check_many_pooled`] spans one pool across chunked
//!   sweeps).
//!
//! The polynomial concepts (RE, BAE, PS, BSwE, BGE) are executed
//! eagerly: they never exhaust, their evaluation counts are not metered,
//! and no stop condition bounds them. They are cheap on small instances
//! but not on large ones — a stable star(1024) BGE check runs for
//! seconds. The exponential concepts (BNE, k-BSE, BSE) run through the
//! pruned scans, sharded across `threads` std scoped threads with the
//! deterministic lowest-unit-wins witness protocol.
//!
//! # Examples
//!
//! ```
//! use bncg_core::solver::{ExecPolicy, Solver, StabilityQuery, Verdict};
//! use bncg_core::{Alpha, Concept};
//! use bncg_graph::generators;
//!
//! let alpha = Alpha::integer(2)?;
//! let solver = Solver::new(ExecPolicy::default().with_threads(2));
//! // The star is a Bilateral Neighborhood Equilibrium at α ≥ 1 …
//! let q = StabilityQuery::new(Concept::Bne, &generators::star(12), alpha);
//! assert!(matches!(solver.check(&q)?, Verdict::Stable { .. }));
//! // … the path is not, and the verdict carries the witness move.
//! let q = StabilityQuery::new(Concept::Bne, &generators::path(12), alpha);
//! assert!(matches!(solver.check(&q)?, Verdict::Unstable { .. }));
//! # Ok::<(), bncg_core::GameError>(())
//! ```
//!
//! Anytime + resume: drain a too-large check in budgeted slices.
//!
//! ```
//! use bncg_core::solver::{ExecPolicy, Solver, StabilityQuery, Verdict};
//! use bncg_core::{Alpha, Concept, GameState};
//! use bncg_graph::generators;
//!
//! let state = GameState::new(generators::path(12), Alpha::integer(2)?);
//! let solver = Solver::new(ExecPolicy::default().with_eval_budget(50));
//! let mut query = StabilityQuery::on(Concept::Bne, &state);
//! let witness = loop {
//!     match solver.check(&query)? {
//!         Verdict::Unstable { witness, .. } => break Some(witness),
//!         Verdict::Stable { .. } => break None,
//!         Verdict::Exhausted { frontier, .. } => {
//!             query = StabilityQuery::on(Concept::Bne, &state).resume(frontier);
//!         }
//!     }
//! };
//! assert!(witness.is_some());
//! # Ok::<(), bncg_core::GameError>(())
//! ```

use crate::alpha::Alpha;
use crate::candidates::CandidateStats;
use crate::concepts::{bae, bge, bne, bse, bswe, kbse, ps, re, Concept};
use crate::cost_model::CostModelSpec;
use crate::error::GameError;
use crate::jsonio;
use crate::moves::Move;
use crate::pool::BudgetPool;
use crate::scan::{drive, DriveOutcome, ScanCtl, UnitScanner};
use crate::state::GameState;
use bncg_graph::Graph;
use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How a [`Solver`] executes queries: thread count and stop conditions.
///
/// The default policy is sequential and unbounded — semantically the
/// exhaustive scan with no size guard (an oversized query
/// simply runs until a stop condition fires, so pair unbounded policies
/// with instances you know terminate, or set a budget or deadline).
#[derive(Debug, Clone)]
pub struct ExecPolicy {
    /// Worker threads for the exponential scans and for
    /// [`Solver::check_many`] batches. `0` is treated as `1`.
    pub threads: usize,
    /// Maximum candidate-move evaluations per query (the unit
    /// [`CheckBudget`](crate::CheckBudget) counts). Enforced within a
    /// poll quantum of at most 1024 evaluations per thread.
    pub eval_budget: Option<u64>,
    /// Wall-clock allowance per query, measured from the start of each
    /// [`Solver::check`] call (batch sweeps therefore grant it per
    /// instance). Run-level consumers — `dynamics::run_with_policy_under`,
    /// `round_robin::run_with_policy_under` — anchor it once per run and pass
    /// the remainder down, so there it bounds the whole run.
    pub deadline: Option<Duration>,
    /// Cooperative cancellation: raise the flag and every running query
    /// of this policy returns [`Verdict::Exhausted`] at its next poll.
    pub cancel: Option<Arc<AtomicBool>>,
    /// Shared evaluation budget for a **whole batch**: when set,
    /// [`Solver::check_many`] drains this many candidate evaluations
    /// from one atomic pool across all its queries (first-come
    /// draining), instead of granting `eval_budget` to each query
    /// individually. Queries that find the pool already drained return
    /// [`Verdict::Exhausted`] immediately with a zero-work frontier, so
    /// an over-budget batch sheds load instead of overrunning — the
    /// service primitive behind budgeted empirical-PoA sweeps. In a
    /// batch, `batch_budget` takes precedence over `eval_budget`;
    /// single [`Solver::check`] calls ignore it. Enforcement shares the
    /// scan poll quantum, so the pool can overshoot by at most
    /// `threads · 1024` evaluations.
    pub batch_budget: Option<u64>,
}

impl Default for ExecPolicy {
    fn default() -> Self {
        ExecPolicy {
            threads: 1,
            eval_budget: None,
            deadline: None,
            cancel: None,
            batch_budget: None,
        }
    }
}

impl ExecPolicy {
    /// Sets the worker-thread count.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Caps candidate evaluations per query.
    #[must_use]
    pub fn with_eval_budget(mut self, evals: u64) -> Self {
        self.eval_budget = Some(evals);
        self
    }

    /// Caps wall-clock time per query.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Attaches a cancellation token.
    #[must_use]
    pub fn with_cancel(mut self, token: Arc<AtomicBool>) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Caps candidate evaluations for a whole [`Solver::check_many`]
    /// batch via one shared pool (see [`ExecPolicy::batch_budget`]).
    #[must_use]
    pub fn with_batch_budget(mut self, evals: u64) -> Self {
        self.batch_budget = Some(evals);
        self
    }
}

/// The frontier layout version: positions are meaningful only under the
/// exact enumeration layout of the build that issued them (BSE chunk
/// size, pruning-derived partner lists, k-BSE strategy thresholds).
/// Bump this whenever any of those change so stale cross-build tokens
/// are rejected instead of silently reinterpreted.
const FRONTIER_LAYOUT: u64 = 1;

/// A serializable resume point for an exhausted exponential scan.
///
/// The frontier certifies that every candidate strictly before
/// `(unit, pos)` in the concept's deterministic enumeration order is
/// non-improving; resuming continues from exactly there. It is bound to
/// the concept and to a fingerprint of the instance (graph + α), so
/// resuming against a different query — or with a unit cursor outside
/// the scan — is rejected instead of silently producing garbage.
///
/// Since the branch-and-bound [`crate::generator`] landed, `pos` is the
/// generator's **branch stack in packed form**: the path from the root
/// of the mask tree to the next unvisited leaf, one bit per branching
/// level (bit `i` is the branch taken at depth `width − i`), which is
/// numerically identical to the flat lexicographic cursor the dense
/// scans used. Resuming re-derives the subtree-kill decisions along
/// that path in `O(width)` probes, so nothing beyond the cursor needs
/// to be serialized and old tokens stay readable.
///
/// Serialization is a flat JSON object (`to_json`/`FromStr`) carrying
/// an enumeration-layout version, so frontiers can cross process
/// boundaries — a service can hand the token to the client and continue
/// the scan on any replica *of the same build* (the instance
/// fingerprint is toolchain-stable FNV-1a; tokens from a build with a
/// different layout version are rejected on parse).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frontier {
    concept: Concept,
    instance: u64,
    unit: u64,
    pos: u64,
    evals: u64,
}

impl Frontier {
    /// The concept this frontier belongs to.
    #[must_use]
    pub fn concept(&self) -> Concept {
        self.concept
    }

    /// Cumulative candidate evaluations across all runs so far.
    #[must_use]
    pub fn evals(&self) -> u64 {
        self.evals
    }

    /// Serializes the frontier as a flat JSON object (including the
    /// enumeration-layout version, checked on parse).
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"v\":{FRONTIER_LAYOUT},\"concept\":\"{}\",\"instance\":{},\
             \"unit\":{},\"pos\":{},\"evals\":{}}}",
            self.concept.token(),
            self.instance,
            self.unit,
            self.pos,
            self.evals
        )
    }
}

impl fmt::Display for Frontier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_json())
    }
}

impl FromStr for Frontier {
    type Err = GameError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let concept: Concept = jsonio::str_field(s, "concept")
            .ok_or_else(|| bad_frontier("missing \"concept\""))?
            .parse()?;
        let field = |key: &str| jsonio::u64_field(s, key).ok_or_else(|| bad_frontier(key));
        let layout = field("v")?;
        if layout != FRONTIER_LAYOUT {
            return Err(GameError::Unsupported {
                reason: format!(
                    "frontier token has enumeration-layout version {layout}, \
                     this build speaks version {FRONTIER_LAYOUT} — restart the \
                     scan instead of resuming"
                ),
            });
        }
        Ok(Frontier {
            concept,
            instance: field("instance")?,
            unit: field("unit")?,
            pos: field("pos")?,
            evals: field("evals")?,
        })
    }
}

fn bad_frontier(what: &str) -> GameError {
    GameError::Unsupported {
        reason: format!("malformed frontier token: missing or invalid {what}"),
    }
}

/// How far an exhausted scan got (attached to [`Verdict::Exhausted`]).
#[derive(Debug, Clone)]
pub struct Progress {
    /// Candidate counters for **this run** (a resumed query reports the
    /// slice it scanned, not the cumulative totals).
    pub stats: CandidateStats,
    /// Cumulative candidate evaluations across all runs of this query
    /// chain (equals the frontier's [`Frontier::evals`]).
    pub evals_total: u64,
    /// Fully certified leading units (the frontier's unit index).
    pub units_done: u64,
    /// Total units in the scan (centers, coalitions, or mask chunks).
    pub units_total: u64,
    /// Wall-clock time of this run.
    pub elapsed: Duration,
}

/// The structured result of a stability query.
#[derive(Debug, Clone)]
pub enum Verdict {
    /// The full candidate space was certified non-improving.
    Stable {
        /// Candidate evaluations performed across the whole resume
        /// chain (0 for polynomial concepts, whose scans are not
        /// metered).
        evals: u64,
        /// Candidates skipped without evaluation in **this run's
        /// slice**: always `stats.skipped()`.
        pruned: u64,
        /// Candidate counters for **this run** (a resumed query reports
        /// the slice it scanned, not the cumulative totals; all zero
        /// for polynomial concepts).
        stats: CandidateStats,
        /// Wall-clock time of this check call.
        elapsed: Duration,
    },
    /// An improving move the concept forbids — the same witness the
    /// sequential exhaustive scan returns.
    Unstable {
        /// The violating move (replayable via [`crate::delta`]).
        witness: Move,
        /// Candidate evaluations performed across the whole resume
        /// chain.
        evals: u64,
        /// Candidate counters for **this run**, as for `Stable`.
        stats: CandidateStats,
        /// Wall-clock time of this check call.
        elapsed: Duration,
    },
    /// The execution policy stopped the scan first: everything before
    /// `frontier` is certified, the rest is unknown. Resume with
    /// [`StabilityQuery::resume`].
    Exhausted {
        /// Resume token.
        frontier: Frontier,
        /// Work accounting for this run.
        progress: Progress,
    },
}

impl Verdict {
    /// `Some(true)`/`Some(false)` for conclusive verdicts, `None` when
    /// exhausted.
    #[must_use]
    pub fn is_stable(&self) -> Option<bool> {
        match self {
            Verdict::Stable { .. } => Some(true),
            Verdict::Unstable { .. } => Some(false),
            Verdict::Exhausted { .. } => None,
        }
    }

    /// The witness move, if the verdict is `Unstable`.
    #[must_use]
    pub fn witness(&self) -> Option<&Move> {
        match self {
            Verdict::Unstable { witness, .. } => Some(witness),
            _ => None,
        }
    }

    /// This run's candidate counters, whatever the verdict.
    #[must_use]
    pub fn stats(&self) -> &CandidateStats {
        match self {
            Verdict::Stable { stats, .. } | Verdict::Unstable { stats, .. } => stats,
            Verdict::Exhausted { progress, .. } => &progress.stats,
        }
    }

    /// The resume token, if the verdict is `Exhausted`.
    #[must_use]
    pub fn frontier(&self) -> Option<&Frontier> {
        match self {
            Verdict::Exhausted { frontier, .. } => Some(frontier),
            _ => None,
        }
    }

    /// Collapses to the [`Concept::find_violation`] signature: `Unstable`
    /// yields the witness, `Stable` yields `None`, and `Exhausted` maps
    /// to [`GameError::CheckTooLarge`].
    ///
    /// # Errors
    ///
    /// [`GameError::CheckTooLarge`] when the verdict is `Exhausted`.
    pub fn into_violation(self) -> Result<Option<Move>, GameError> {
        match self {
            Verdict::Stable { .. } => Ok(None),
            Verdict::Unstable { witness, .. } => Ok(Some(witness)),
            Verdict::Exhausted { frontier, progress } => Err(GameError::CheckTooLarge {
                reason: format!(
                    "query exhausted its execution policy after {} evaluations \
                     ({}/{} units); resume from frontier {}",
                    progress.evals_total, progress.units_done, progress.units_total, frontier
                ),
            }),
        }
    }
}

/// One stability question: a concept applied to an instance, optionally
/// resuming from a prior [`Frontier`].
///
/// Build with [`StabilityQuery::new`] (owns a fresh [`GameState`]) or
/// [`StabilityQuery::on`] (borrows a caller-maintained state and reuses
/// its cached distance matrix and costs — the right choice inside
/// dynamics loops and sweeps).
#[derive(Debug, Clone)]
pub struct StabilityQuery<'a> {
    concept: Concept,
    state: QueryState<'a>,
    resume: Option<Frontier>,
}

#[derive(Debug, Clone)]
enum QueryState<'a> {
    Owned(Box<GameState>),
    Borrowed(&'a GameState),
}

impl StabilityQuery<'static> {
    /// A query owning its evaluation state, built from a graph and α.
    #[must_use]
    pub fn new(concept: Concept, g: &Graph, alpha: Alpha) -> StabilityQuery<'static> {
        StabilityQuery {
            concept,
            state: QueryState::Owned(Box::new(GameState::new(g.clone(), alpha))),
            resume: None,
        }
    }
}

impl<'a> StabilityQuery<'a> {
    /// A query borrowing a caller-maintained state (no cache rebuild).
    #[must_use]
    pub fn on(concept: Concept, state: &'a GameState) -> StabilityQuery<'a> {
        StabilityQuery {
            concept,
            state: QueryState::Borrowed(state),
            resume: None,
        }
    }

    /// Continues a scan from a prior run's frontier. The frontier must
    /// come from the same concept and instance, or
    /// [`Solver::check`] rejects the query.
    #[must_use]
    pub fn resume(mut self, frontier: Frontier) -> Self {
        self.resume = Some(frontier);
        self
    }

    /// Re-prices the query under `model`. Defaults to the state's own
    /// model ([`CostModelSpec::SumDistances`] for states built with
    /// [`GameState::new`]), so every existing query is unchanged. A
    /// borrowed state whose model already matches is kept as-is; any
    /// other case rebuilds an owned state under `model` — the cache
    /// rebuild is the honest price of re-pricing, since every cached
    /// per-agent cost depends on the model.
    #[must_use]
    pub fn with_cost_model(mut self, model: CostModelSpec) -> Self {
        if self.state().cost_model() != model {
            let (g, alpha) = {
                let s = self.state();
                (s.graph().clone(), s.alpha())
            };
            self.state = QueryState::Owned(Box::new(GameState::with_cost_model(g, alpha, model)));
        }
        self
    }

    /// The cost model the query prices moves under.
    #[must_use]
    pub fn cost_model(&self) -> CostModelSpec {
        self.state().cost_model()
    }

    /// The queried concept.
    #[must_use]
    pub fn concept(&self) -> Concept {
        self.concept
    }

    fn state(&self) -> &GameState {
        match &self.state {
            QueryState::Owned(s) => s,
            QueryState::Borrowed(s) => s,
        }
    }
}

/// Executes [`StabilityQuery`]s under one [`ExecPolicy`].
#[derive(Debug, Clone, Default)]
pub struct Solver {
    policy: ExecPolicy,
}

impl Solver {
    /// A solver with the given execution policy.
    #[must_use]
    pub fn new(policy: ExecPolicy) -> Self {
        Solver { policy }
    }

    /// The solver's execution policy.
    #[must_use]
    pub fn policy(&self) -> &ExecPolicy {
        &self.policy
    }

    /// Executes one query.
    ///
    /// # Errors
    ///
    /// [`GameError::Unsupported`] when a resume frontier does not match
    /// the query (different concept or instance, or a unit cursor
    /// outside the scan — a forged token) or the instance exceeds a
    /// structural representation limit (BNE needs `n ≤ 64` and BSE
    /// `n ≤ 11` for their 64-bit masks; k-BSE caps its materialized
    /// coalition index at 2²⁰ units). The `n ≤ 64` BNE limit is the
    /// *only* BNE size guard left: the branch-and-bound generator made
    /// the scan evaluation-bound, so there is no raw-space refusal —
    /// an instance that is too expensive simply exhausts its budget.
    /// Never [`GameError::CheckTooLarge`]: running out of budget is a
    /// [`Verdict::Exhausted`], not an error.
    pub fn check(&self, query: &StabilityQuery) -> Result<Verdict, GameError> {
        self.check_with_threads(query, self.policy.threads, None)
    }

    /// Executes a batch of queries on one scoped thread pool, returning
    /// results in input order regardless of completion order. Each query
    /// runs sequentially on one worker (the pool parallelizes *across*
    /// queries); stop conditions apply per query, with deadlines
    /// measured from each query's own start — except when the policy
    /// sets a [`ExecPolicy::batch_budget`], in which case all queries
    /// drain **one shared eval pool** (first-come; result order is
    /// still the input order, but which queries exhaust depends on
    /// completion timing under multiple threads).
    pub fn check_many(&self, queries: &[StabilityQuery]) -> Vec<Result<Verdict, GameError>> {
        match self.policy.batch_budget {
            Some(_) => {
                let pool = AtomicU64::new(0);
                self.check_many_in(queries, Some(&pool))
            }
            None => self.check_many_in(queries, None),
        }
    }

    /// [`Solver::check_many`] against a **caller-owned** budget pool:
    /// the counter accumulates evaluations across calls, so a sweep
    /// that batches its instances in chunks (to bound resident state)
    /// can still drain one global budget over the whole sweep — the
    /// load-shedding shape behind `empirical::tree_poa_grid`. Requires
    /// [`ExecPolicy::batch_budget`] to be set; without it the pool is
    /// ignored and this is exactly [`Solver::check_many`].
    pub fn check_many_pooled(
        &self,
        queries: &[StabilityQuery],
        pool: &AtomicU64,
    ) -> Vec<Result<Verdict, GameError>> {
        let pool = self.policy.batch_budget.map(|_| pool);
        self.check_many_in(queries, pool)
    }

    /// Executes **one bounded time slice** of a query against a shared
    /// [`BudgetPool`] — the scheduling primitive a serving layer
    /// time-slices thousands of concurrent queries with.
    ///
    /// The slice runs under a batch-budget cap of
    /// [`BudgetPool::slice_cap`]`(slice)` = `min(granted, used +
    /// max(slice, 1))`, flushing its evaluations into the pool's
    /// counter: one scan stop condition simultaneously bounds the slice
    /// at roughly `slice` evaluations *and* guarantees the pool's grant
    /// is never overrun (beyond the documented poll-quantum overshoot).
    /// A query admitted against a pool that is already
    /// [drained](BudgetPool::drained) or [expired](BudgetPool::expired)
    /// returns [`Verdict::Exhausted`] with a **zero-work** frontier at
    /// its resume cursor — load shedding, exactly the
    /// [`ExecPolicy::batch_budget`] batch semantics. If the pool
    /// carries an [expiry instant](BudgetPool::expires_at), the
    /// remaining wall-clock is propagated into this slice's deadline
    /// (tightening any per-query [`ExecPolicy::deadline`]).
    ///
    /// Because enumeration order is deterministic, a chain of
    /// `check_sliced` calls — interleaved with slices of *other*
    /// queries against the same pool — returns the identical verdict,
    /// witness, and cumulative eval count an uninterrupted
    /// [`Solver::check`] would (asserted by `tests/solver.rs` and the
    /// `sched_slicing_overhead` gate kernel).
    ///
    /// Polynomial concepts complete eagerly within their first slice
    /// and are not metered (they return before the shed logic, as in
    /// every other entry point); fair-share layers charge them a flat
    /// rate via [`BudgetPool::charge`] so they cannot bypass the pool.
    ///
    /// # Errors
    ///
    /// As [`Solver::check`]: mismatched or forged resume frontiers and
    /// structural size limits. Running dry is a verdict, not an error.
    pub fn check_sliced(
        &self,
        query: &StabilityQuery,
        pool: &BudgetPool,
        slice: u64,
    ) -> Result<Verdict, GameError> {
        // An expired pool admits nothing: cap the slice at the used
        // count so the drained-pool shed path fires with zero work.
        let cap = if pool.expired() {
            pool.used()
        } else {
            pool.slice_cap(slice)
        };
        let mut policy = self.policy.clone();
        policy.batch_budget = Some(cap);
        if let Some(at) = pool.expires_at() {
            let left = at.saturating_duration_since(Instant::now());
            policy.deadline = Some(policy.deadline.map_or(left, |d| d.min(left)));
        }
        let threads = policy.threads;
        Solver { policy }.check_with_threads(query, threads, Some(pool.counter()))
    }

    fn check_many_in(
        &self,
        queries: &[StabilityQuery],
        pool: Option<&AtomicU64>,
    ) -> Vec<Result<Verdict, GameError>> {
        let workers = self.policy.threads.max(1).min(queries.len());
        if workers <= 1 {
            // A single worker (one query, or a sequential policy) keeps
            // the policy's full thread count *inside* each query — the
            // pool parallelizes across queries only when there are
            // enough of them to shard.
            return queries
                .iter()
                .map(|q| self.check_with_threads(q, self.policy.threads, pool))
                .collect();
        }
        let next = AtomicU64::new(0);
        let collected: Mutex<Vec<(usize, Result<Verdict, GameError>)>> =
            Mutex::new(Vec::with_capacity(queries.len()));
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let next = &next;
                let collected = &collected;
                scope.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed) as usize;
                        if i >= queries.len() {
                            break;
                        }
                        local.push((i, self.check_with_threads(&queries[i], 1, pool)));
                    }
                    collected.lock().expect("no poisoning").extend(local);
                });
            }
        });
        let mut results = collected.into_inner().expect("no poisoning");
        results.sort_by_key(|(i, _)| *i);
        results.into_iter().map(|(_, r)| r).collect()
    }

    fn check_with_threads(
        &self,
        query: &StabilityQuery,
        threads: usize,
        pool: Option<&AtomicU64>,
    ) -> Result<Verdict, GameError> {
        let state = query.state();
        let started = Instant::now();

        // Resume validation first — a mismatched token is a caller bug
        // that must surface even on queries that would complete eagerly.
        // The frontier must name this concept (which also rules out the
        // polynomial concepts: they never exhaust, so there is nothing
        // to resume) and this exact instance.
        let (start_unit, start_pos, prior_evals) = match &query.resume {
            Some(f) => {
                if f.concept != query.concept {
                    return Err(GameError::Unsupported {
                        reason: format!(
                            "frontier belongs to {} but the query asks for {}",
                            f.concept, query.concept
                        ),
                    });
                }
                if !query.concept.is_exponential() {
                    return Err(GameError::Unsupported {
                        reason: format!(
                            "{} completes eagerly and never exhausts; a resume \
                             frontier for it cannot be genuine",
                            query.concept
                        ),
                    });
                }
                if f.instance != state.fingerprint() {
                    return Err(GameError::Unsupported {
                        reason: "frontier was issued for a different instance \
                                 (graph, α, or cost model differ)"
                            .into(),
                    });
                }
                (f.unit, f.pos, f.evals)
            }
            None => (0, 0, 0),
        };

        // Polynomial concepts complete eagerly; they never exhaust.
        let poly = match query.concept {
            Concept::Re => Some(re::find_violation_in(state)),
            Concept::Bae => Some(bae::find_violation_in(state)),
            Concept::Ps => Some(ps::find_violation_in(state)),
            Concept::Bswe => Some(bswe::find_violation_in(state)),
            Concept::Bge => Some(bge::find_violation_in(state)),
            _ => None,
        };
        if let Some(found) = poly {
            return Ok(match found {
                Some(witness) => Verdict::Unstable {
                    witness,
                    evals: 0,
                    stats: CandidateStats::default(),
                    elapsed: started.elapsed(),
                },
                None => Verdict::Stable {
                    evals: 0,
                    pruned: 0,
                    stats: CandidateStats::default(),
                    elapsed: started.elapsed(),
                },
            });
        }

        let threads = threads.max(1);
        let shared_evals = AtomicU64::new(0);
        let deadline = self.policy.deadline.map(|d| started + d);
        let cancel = self.policy.cancel.as_deref();
        // A batch pool replaces the per-query counter: every query of
        // the batch flushes into the caller's atomic, and the batch
        // budget caps the shared total. A query that finds the pool
        // already drained sheds immediately with a zero-work frontier
        // instead of burning a poll quantum discovering it.
        let (counter, budget) = match (pool, self.policy.batch_budget) {
            (Some(p), Some(b)) => (p, Some(b)),
            _ => (&shared_evals, self.policy.eval_budget),
        };
        let shed = pool.is_some() && budget.is_some_and(|b| counter.load(Ordering::Relaxed) >= b);
        let ctl = ScanCtl::new(counter, budget, deadline, cancel);

        let resumed = query.resume.is_some();
        let ((outcome, stats), units_total) = match query.concept {
            Concept::Bne => {
                if state.n() > 64 {
                    return Err(unsupported_size("BNE", state.n(), 64));
                }
                let scanner: bne::SolverScan = bne::SolverScan::new(state);
                validate_resume_unit(resumed, start_unit, scanner.units())?;
                (
                    drive_or_shed(&scanner, threads, start_unit, start_pos, &ctl, shed),
                    scanner.units(),
                )
            }
            Concept::KBse(k) => {
                let scanner = kbse::SolverScan::new(state, k as usize, usize::MAX)?;
                validate_resume_unit(resumed, start_unit, scanner.units())?;
                (
                    drive_or_shed(&scanner, threads, start_unit, start_pos, &ctl, shed),
                    scanner.units(),
                )
            }
            Concept::Bse => {
                if state.n() > 11 {
                    return Err(unsupported_size("BSE", state.n(), 11));
                }
                let scanner = bse::SolverScan::new(state);
                validate_resume_unit(resumed, start_unit, scanner.units())?;
                (
                    drive_or_shed(&scanner, threads, start_unit, start_pos, &ctl, shed),
                    scanner.units(),
                )
            }
            _ => unreachable!("polynomial concepts returned above"),
        };

        let elapsed = started.elapsed();
        // Saturating: a forged token's `evals` must not overflow the sum.
        let evals = prior_evals.saturating_add(stats.evaluated);
        Ok(match outcome {
            DriveOutcome::Completed(None) => Verdict::Stable {
                evals,
                pruned: stats.skipped(),
                stats,
                elapsed,
            },
            DriveOutcome::Completed(Some(witness)) => Verdict::Unstable {
                witness,
                evals,
                stats,
                elapsed,
            },
            DriveOutcome::Stopped { unit, pos } => Verdict::Exhausted {
                frontier: Frontier {
                    concept: query.concept,
                    instance: state.fingerprint(),
                    unit,
                    pos,
                    evals,
                },
                progress: Progress {
                    stats,
                    evals_total: evals,
                    units_done: unit,
                    units_total,
                    elapsed,
                },
            },
        })
    }
}

/// [`drive`], unless the batch pool is already drained (`shed`): then
/// the query is load-shed with a zero-work stop at its resume start —
/// everything strictly before it was certified by prior slices, so the
/// frontier stays sound.
fn drive_or_shed<S: UnitScanner>(
    scanner: &S,
    threads: usize,
    start_unit: u64,
    start_pos: u64,
    ctl: &ScanCtl,
    shed: bool,
) -> (DriveOutcome, CandidateStats) {
    if shed {
        (
            DriveOutcome::Stopped {
                unit: start_unit,
                pos: start_pos,
            },
            CandidateStats::default(),
        )
    } else {
        drive(scanner, threads, start_unit, start_pos, ctl)
    }
}

/// Rejects resume frontiers whose unit cursor lies outside the scan —
/// the stability-query analogue of `round_robin::resume_under`'s forged-cursor
/// rejection. A genuine frontier always names a unit strictly inside
/// the scan (the drive only records stops there); a forged or
/// bit-rotted one past the end would otherwise make the drive loop
/// complete instantly and report **Stable without scanning anything**.
///
/// # Errors
///
/// [`GameError::Unsupported`] for an out-of-range unit on a resumed
/// query.
fn validate_resume_unit(resumed: bool, start_unit: u64, units: u64) -> Result<(), GameError> {
    if resumed && start_unit >= units {
        return Err(GameError::Unsupported {
            reason: format!(
                "frontier names unit {start_unit} of a scan with {units} \
                 units — the token was forged or corrupted, restart the \
                 scan instead of resuming"
            ),
        });
    }
    Ok(())
}

/// The structural size error of the mask-packed exact scans.
pub(crate) fn unsupported_size(what: &str, n: usize, max: usize) -> GameError {
    GameError::Unsupported {
        reason: format!(
            "the exact {what} scan represents candidates as 64-bit masks and \
             supports n ≤ {max}; got n = {n} (use the sampled/restricted \
             refuters for larger instances)"
        ),
    }
}
