//! The time-slicing scheduler: a fixed worker pool interleaving
//! thousands of resident queries through bounded evaluation slices,
//! dispatched across tenants by **weighted deficit round-robin**.
//!
//! Every query runs as a sequence of **slices** — each slice is one
//! budgeted call into the solver surface ([`Solver::check_sliced`],
//! [`best_response_with_policy`], the dynamics runners) capped at the
//! scheduler's per-slice evaluation quantum. A slice that completes its
//! query responds; a slice stopped by the quantum requeues the job at
//! the back of **its tenant's own queue** with the typed resume token
//! it produced. Between slices nothing is held but the job struct
//! itself: the solver's resume contract guarantees a sliced chain
//! reaches the **identical** verdict, witness, and cumulative
//! evaluation count an uninterrupted run produces.
//!
//! ## Dispatch: weighted deficit round-robin
//!
//! Jobs queue per tenant, and a single active list rotates over the
//! tenants that have queued work. When a tenant reaches the front with
//! an empty deficit, the deficit refills to the tenant's **weight**
//! (default 1, set via the extended `grant` op); every dispatched slice
//! costs one deficit, and the tenant keeps the front only while deficit
//! remains. Slices are unit-cost, so a weight-w tenant receives w
//! consecutive slices per rotation. The fairness bound follows
//! directly: a tenant with 10,000 queued checks cannot delay another
//! tenant's single query by more than one full rotation — the sum of
//! the *other* active tenants' weights, independent of queue depth (the
//! `sched_fairness` CI kernel pins this down).
//!
//! Fairness in *volume* stays budget-driven: before and after every
//! slice the job's tenant pool is consulted, and a drained (or
//! expired) pool sheds the job with zero further work — carrying the
//! resume token, so the shed work is suspended, not lost. An operator
//! `grant` plus a resubmission with the token continues exactly where
//! the shed happened. Weight shapes *latency* under contention; the
//! pool caps *total computation*.
//!
//! Grants and weights are durable when the scheduler is given a journal
//! path: each control action appends one line to
//! `grants.jsonl` before it is applied, and a restart replays the
//! journal, so provisioned tenants survive the daemon.
//!
//! [`Solver::check_sliced`]: bncg_core::Solver::check_sliced
//! [`best_response_with_policy`]: bncg_core::best_response_with_policy

use crate::journal::{GrantEvent, GrantJournal};
use crate::protocol::{ErrorClass, Response, TenantRow, Token};
use crate::tenant::{Tenant, TenantRegistry, TenantStats};
use bncg_core::solver::{ExecPolicy, Solver, StabilityQuery, Verdict};
use bncg_core::{
    best_response_resume, best_response_with_policy, Alpha, BestResponseVerdict, Concept,
    CostModelSpec, GameError, GameState,
};
use bncg_dynamics::round_robin;
use bncg_dynamics::{self as dynamics, SelectionRule};
use bncg_graph::Graph;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Scheduler tuning knobs.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Worker threads draining the run queues. Each worker runs its
    /// slices single-threaded — parallelism comes from concurrent
    /// queries, not from sharding one query's scan.
    pub workers: usize,
    /// Candidate evaluations per slice. Smaller slices interleave more
    /// fairly; larger slices amortize the per-slice state rebuild.
    pub slice: u64,
    /// Evaluations granted to tenants that first appear in a query
    /// rather than in an explicit `grant`. The default is effectively
    /// unmetered; multi-tenant operators set this low and fund tenants
    /// explicitly.
    pub default_grant: u64,
    /// Where to journal grants and weights (a file path, or a directory
    /// under which `grants.jsonl` is used). `None` disables
    /// persistence: grants live and die with the process.
    pub journal: Option<PathBuf>,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            workers: 2,
            slice: 2048,
            default_grant: u64::MAX,
            journal: None,
        }
    }
}

/// The game-theoretic payload of a query, decoupled from the wire
/// protocol so embedders (tests, benchmarks) can submit work directly.
#[derive(Debug, Clone)]
pub enum Work {
    /// A stability check (`op:"check"`).
    Check {
        /// The queried solution concept.
        concept: Concept,
        /// The instance graph.
        graph: Graph,
        /// Edge price α.
        alpha: Alpha,
        /// The cost model the check prices agents under.
        cost_model: CostModelSpec,
    },
    /// A best-response scan (`op:"best_response"`).
    BestResponse {
        /// The optimizing agent.
        agent: u32,
        /// The instance graph.
        graph: Graph,
        /// Edge price α.
        alpha: Alpha,
        /// The cost model the scan prices the agent under.
        cost_model: CostModelSpec,
    },
    /// Round-robin best-response dynamics (`op:"trajectory"`).
    Trajectory {
        /// The current graph (advances across requeued slices).
        graph: Graph,
        /// Edge price α.
        alpha: Alpha,
        /// Round cap.
        rounds: usize,
        /// The cost model every activation prices under.
        cost_model: CostModelSpec,
    },
    /// Improving-move dynamics under a concept (`op:"dynamics"`).
    Dynamics {
        /// The concept whose violations drive the dynamics.
        concept: Concept,
        /// The current graph (advances across requeued slices).
        graph: Graph,
        /// Edge price α.
        alpha: Alpha,
        /// Step cap.
        steps: usize,
        /// The cost model the violation scans price under.
        cost_model: CostModelSpec,
    },
}

impl Work {
    /// The graph a shed response reports as `final_edges` — only the
    /// dynamics ops, whose graph advances with the trajectory (a check's
    /// graph is the client's own input, not worth echoing).
    fn evolving_graph(&self) -> Option<&Graph> {
        match self {
            Work::Trajectory { graph, .. } | Work::Dynamics { graph, .. } => Some(graph),
            Work::Check { .. } | Work::BestResponse { .. } => None,
        }
    }
}

/// One query as submitted: payload plus scheduling metadata.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    /// Client correlation id, echoed in the response.
    pub id: u64,
    /// Tenant whose pool meters the work.
    pub tenant: String,
    /// The payload.
    pub work: Work,
    /// A resume token from an earlier shed response. A token of
    /// another op's kind is answered `bad_resume`.
    pub resume: Option<Token>,
    /// Wall-clock allowance from submission, in milliseconds.
    pub deadline_ms: Option<u64>,
}

/// A resident query: spec plus the scheduler's bookkeeping. The
/// `respond` callback fires exactly once, with the final response;
/// `progress` (streaming submissions only) fires once per requeued
/// slice, always before `respond`.
struct Job {
    id: u64,
    tenant: Arc<Tenant>,
    work: Work,
    resume: Option<Token>,
    slices: u64,
    deadline: Option<Instant>,
    enqueued: Instant,
    progress: Option<Box<dyn Fn(Response) + Send>>,
    respond: Box<dyn FnOnce(Response) + Send>,
}

/// One tenant's slot in the run state: its queue plus the deficit
/// round-robin and accounting counters. Slots persist after the queue
/// drains — `waited_ms` is cumulative for the `stats` op.
#[derive(Default)]
struct TenantQueue {
    jobs: VecDeque<Job>,
    /// Slices this tenant may still dispatch before rotating to the
    /// back of the active list. Refilled to the tenant's weight when it
    /// reaches the front empty; reset when the queue drains so deficit
    /// never accumulates across idle periods.
    deficit: u64,
    /// Jobs currently mid-slice on a worker. Incremented under the same
    /// lock as the pop, so every resident job is counted in exactly one
    /// of `jobs`/`in_flight` at all times.
    in_flight: u64,
    /// Cumulative microseconds jobs of this tenant spent queued, summed
    /// at each dispatch.
    waited_us: u64,
}

impl TenantQueue {
    fn depth(&self) -> u64 {
        self.jobs.len() as u64 + self.in_flight
    }
}

/// Everything the dispatch decision reads, under one lock: the
/// per-tenant queues, the rotation order, and the stop flag (checked
/// under this same lock by `submit`, closing the submit/stop race).
struct RunState {
    queues: HashMap<String, TenantQueue>,
    /// Tenant names with non-empty `jobs`, in dispatch order. Invariant:
    /// a name is listed exactly once iff its queue holds jobs.
    active: VecDeque<String>,
    stopping: bool,
}

struct Shared {
    state: Mutex<RunState>,
    available: Condvar,
    /// Mirror of `RunState::stopping` for lock-free mid-slice checks.
    stop: AtomicBool,
    slice: u64,
    tenants: TenantRegistry,
    journal: Option<Mutex<GrantJournal>>,
}

/// The worker pool plus per-tenant run queues. See the module docs for
/// the scheduling model.
pub struct Scheduler {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

/// Pops the next job per weighted deficit round-robin. Caller holds the
/// state lock; wait and in-flight accounting happen here, under it.
fn pop_next(state: &mut RunState) -> Option<Job> {
    let name = state.active.pop_front()?;
    let q = state
        .queues
        .get_mut(&name)
        .expect("active tenants have queues");
    if q.deficit == 0 {
        q.deficit = q.jobs.front().map_or(1, |j| j.tenant.weight()).max(1);
    }
    q.deficit -= 1;
    let job = q.jobs.pop_front().expect("active tenants have queued jobs");
    q.in_flight += 1;
    q.waited_us += u64::try_from(job.enqueued.elapsed().as_micros()).unwrap_or(u64::MAX);
    if q.jobs.is_empty() {
        q.deficit = 0;
    } else if q.deficit > 0 {
        state.active.push_front(name);
    } else {
        state.active.push_back(name);
    }
    Some(job)
}

/// Enqueues at the back of the job's tenant queue. Caller holds the
/// state lock.
fn enqueue(state: &mut RunState, job: Job) {
    let name = job.tenant.name().to_string();
    let q = state.queues.entry(name.clone()).or_default();
    if q.jobs.is_empty() {
        state.active.push_back(name);
    }
    q.jobs.push_back(job);
}

impl Scheduler {
    /// Starts the worker pool; when the config names a journal, opens
    /// it and replays every recorded grant and weight first.
    ///
    /// # Errors
    ///
    /// Propagates journal open/replay I/O failures. A journal-less
    /// config cannot fail.
    pub fn start(cfg: SchedulerConfig) -> io::Result<Self> {
        let tenants = TenantRegistry::new(cfg.default_grant);
        let journal = match &cfg.journal {
            None => None,
            Some(path) => {
                let (journal, events) = GrantJournal::open(path)?;
                for event in events {
                    match event {
                        GrantEvent::Grant { tenant, evals } => {
                            tenants.grant(&tenant, evals);
                        }
                        GrantEvent::Weight { tenant, weight } => {
                            tenants.set_weight(&tenant, weight);
                        }
                    }
                }
                Some(Mutex::new(journal))
            }
        };
        let shared = Arc::new(Shared {
            state: Mutex::new(RunState {
                queues: HashMap::new(),
                active: VecDeque::new(),
                stopping: false,
            }),
            available: Condvar::new(),
            stop: AtomicBool::new(false),
            slice: cfg.slice.max(1),
            tenants,
            journal,
        });
        let workers = (0..cfg.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Ok(Scheduler {
            shared,
            workers: Mutex::new(workers),
        })
    }

    /// Enqueues a query; `respond` fires exactly once with the response
    /// (immediately, when the scheduler is already stopping). A worker
    /// calls it under the scheduler's state lock, so it must not call
    /// back into the scheduler.
    pub fn submit(&self, spec: QuerySpec, respond: Box<dyn FnOnce(Response) + Send>) {
        self.submit_inner(spec, None, respond);
    }

    /// [`submit`](Scheduler::submit), plus a `progress` callback fired
    /// once per requeued slice — each call carries one streaming
    /// `progress` frame, and every frame precedes the final response.
    pub(crate) fn submit_with_progress(
        &self,
        spec: QuerySpec,
        progress: Box<dyn Fn(Response) + Send>,
        respond: Box<dyn FnOnce(Response) + Send>,
    ) {
        self.submit_inner(spec, Some(progress), respond);
    }

    fn submit_inner(
        &self,
        spec: QuerySpec,
        progress: Option<Box<dyn Fn(Response) + Send>>,
        respond: Box<dyn FnOnce(Response) + Send>,
    ) {
        let job = Job {
            id: spec.id,
            tenant: self.shared.tenants.get_or_create(&spec.tenant),
            work: spec.work,
            resume: spec.resume,
            slices: 0,
            deadline: spec
                .deadline_ms
                .map(|ms| Instant::now() + Duration::from_millis(ms)),
            enqueued: Instant::now(),
            progress,
            respond,
        };
        // The stop check happens under the same lock as the enqueue:
        // either the job lands before `stop()` drains (and is shed by
        // the drain), or it observes `stopping` and answers here. No
        // window where a job slips into a queue no worker will visit.
        let rejected = {
            let mut state = self.shared.state.lock().expect("no poisoning");
            if state.stopping {
                Some(job)
            } else {
                enqueue(&mut state, job);
                None
            }
        };
        match rejected {
            None => self.shared.available.notify_one(),
            Some(job) => {
                let response = shed(&job, ErrorClass::Shutdown, "daemon is shutting down");
                (job.respond)(response);
            }
        }
    }

    /// [`submit`](Scheduler::submit) and block for the response — the
    /// convenience path for tests and benchmarks.
    pub fn submit_blocking(&self, spec: QuerySpec) -> Response {
        let (tx, rx) = mpsc::channel();
        self.submit(
            spec,
            Box::new(move |response| {
                let _ = tx.send(response);
            }),
        );
        rx.recv().expect("scheduler dropped the response")
    }

    /// Funds a tenant (see [`TenantRegistry::grant`]), journaling the
    /// event first when persistence is on. Returns its new total grant.
    pub fn grant(&self, tenant: &str, evals: u64) -> u64 {
        if let Some(journal) = &self.shared.journal {
            let _ = journal
                .lock()
                .expect("no poisoning")
                .record_grant(tenant, evals);
        }
        self.shared.tenants.grant(tenant, evals)
    }

    /// Sets a tenant's deficit round-robin weight (clamped to ≥ 1),
    /// journaling the stored value when persistence is on. Returns the
    /// weight as stored.
    pub(crate) fn set_weight(&self, tenant: &str, weight: u64) -> u64 {
        let stored = self.shared.tenants.set_weight(tenant, weight);
        if let Some(journal) = &self.shared.journal {
            let _ = journal
                .lock()
                .expect("no poisoning")
                .record_weight(tenant, stored);
        }
        stored
    }

    /// The tenant registry, for embedders reading pool state directly.
    #[must_use]
    pub(crate) fn registry(&self) -> &TenantRegistry {
        &self.shared.tenants
    }

    /// Queries resident right now: queued plus mid-slice, read in one
    /// pass under the state lock — a dispatched-but-uncounted window
    /// does not exist.
    #[must_use]
    pub fn resident(&self) -> u64 {
        let state = self.shared.state.lock().expect("no poisoning");
        state.queues.values().map(TenantQueue::depth).sum()
    }

    /// Per-tenant accounting rows (pool side only; see
    /// [`Scheduler::tenant_rows`] for the merged `stats` view).
    #[must_use]
    pub fn tenants(&self) -> Vec<TenantStats> {
        self.shared.tenants.snapshot()
    }

    /// The `stats` op's merged per-tenant rows: pool accounting plus
    /// queue depth, in-flight count, weight, and cumulative wait — one
    /// pass under the state lock, sorted by name.
    #[must_use]
    pub fn tenant_rows(&self) -> Vec<TenantRow> {
        let stats = self.shared.tenants.snapshot();
        let state = self.shared.state.lock().expect("no poisoning");
        stats
            .into_iter()
            .map(|t| {
                let q = state.queues.get(&t.name);
                TenantRow {
                    queued: q.map_or(0, |q| q.jobs.len() as u64),
                    in_flight: q.map_or(0, |q| q.in_flight),
                    waited_ms: q.map_or(0, |q| q.waited_us / 1000),
                    name: t.name,
                    granted: t.granted,
                    used: t.used,
                    weight: t.weight,
                }
            })
            .collect()
    }

    /// Stops the pool: queued jobs still get slices, but unfinished work
    /// is shed with its resume token instead of requeued, so the drain
    /// is bounded by one slice per resident query. Jobs that race into
    /// the queue as the workers exit are shed here, after the join —
    /// every accepted `respond` callback still fires. Idempotent;
    /// blocks until every worker has exited.
    pub fn stop(&self) {
        self.shared.stop.store(true, Ordering::Release);
        self.shared.state.lock().expect("no poisoning").stopping = true;
        self.shared.available.notify_all();
        let handles: Vec<_> = self
            .workers
            .lock()
            .expect("no poisoning")
            .drain(..)
            .collect();
        for h in handles {
            let _ = h.join();
        }
        let leftovers: Vec<Job> = {
            let mut state = self.shared.state.lock().expect("no poisoning");
            state.active.clear();
            state
                .queues
                .values_mut()
                .flat_map(|q| q.jobs.drain(..))
                .collect()
        };
        for job in leftovers {
            let response = shed(&job, ErrorClass::Shutdown, "daemon is shutting down");
            (job.respond)(response);
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut state = shared.state.lock().expect("no poisoning");
            loop {
                if let Some(job) = pop_next(&mut state) {
                    break Some(job);
                }
                if state.stopping {
                    break None;
                }
                state = shared.available.wait(state).expect("no poisoning");
            }
        };
        let Some(mut job) = job else { return };
        job.slices += 1;
        match drive(shared, &mut job) {
            SliceOutcome::Done(response) => {
                // Count the job out and deliver under one hold of the
                // state lock, so a `stats` sent on the answer never counts
                // it. `respond` only takes an outbox lock, which is never
                // held while calling into the scheduler.
                let mut state = shared.state.lock().expect("no poisoning");
                let q = state
                    .queues
                    .entry(job.tenant.name().to_string())
                    .or_default();
                q.in_flight = q.in_flight.saturating_sub(1);
                (job.respond)(response);
            }
            SliceOutcome::Requeue => {
                job.enqueued = Instant::now();
                let mut state = shared.state.lock().expect("no poisoning");
                {
                    let q = state
                        .queues
                        .entry(job.tenant.name().to_string())
                        .or_default();
                    q.in_flight = q.in_flight.saturating_sub(1);
                }
                enqueue(&mut state, job);
                drop(state);
                shared.available.notify_one();
            }
        }
    }
}

/// What one slice left behind: a response (the query is over) or a
/// requeue order (the job's `resume` token has been advanced in place).
enum SliceOutcome {
    Done(Response),
    Requeue,
}

/// The uniform suspension response: `error` is `Shed`/`Deadline`/
/// `Shutdown`, the job's current resume token rides along, and the
/// dynamics ops echo their advanced graph so the client can resume
/// against it. Built fresh at each call site — after a slice the
/// trajectory graph has moved.
fn shed(job: &Job, error: ErrorClass, reason: &str) -> Response {
    Response::Error {
        id: job.id,
        error,
        reason: reason.to_string(),
        final_edges: job.work.evolving_graph().cloned(),
        resume: job.resume.clone(),
    }
}

fn suspend(job: &Job, error: ErrorClass, reason: &str) -> SliceOutcome {
    SliceOutcome::Done(shed(job, error, reason))
}

/// Admission control around one slice of work.
fn drive(shared: &Shared, job: &mut Job) -> SliceOutcome {
    if job.deadline.is_some_and(|d| Instant::now() >= d) {
        return suspend(job, ErrorClass::Deadline, "query deadline passed");
    }
    if !job.tenant.pool().admits() {
        return suspend(job, ErrorClass::Shed, "tenant budget pool is drained");
    }
    let left = job
        .deadline
        .map(|d| d.saturating_duration_since(Instant::now()));
    let mut policy = ExecPolicy::default().with_threads(1);
    policy.deadline = left;
    match step(job, &policy, shared.slice) {
        Ok(Stepped::Finished(response)) => SliceOutcome::Done(response),
        Ok(Stepped::Suspended(token)) => {
            job.resume = Some(token);
            if shared.stop.load(Ordering::Acquire) {
                return suspend(job, ErrorClass::Shutdown, "daemon is shutting down");
            }
            if job.deadline.is_some_and(|d| Instant::now() >= d) {
                return suspend(job, ErrorClass::Deadline, "query deadline passed");
            }
            if !job.tenant.pool().admits() {
                return suspend(job, ErrorClass::Shed, "tenant budget pool is drained");
            }
            if let (Some(emit), Some(token)) = (&job.progress, &job.resume) {
                emit(Response::Progress {
                    id: job.id,
                    source: None,
                    slices: job.slices,
                    token: token.clone(),
                });
            }
            SliceOutcome::Requeue
        }
        Err(e) => {
            let error = if job.resume.is_some() {
                ErrorClass::BadResume
            } else {
                ErrorClass::BadRequest
            };
            SliceOutcome::Done(Response::error(job.id, error, e.to_string()))
        }
    }
}

/// A slice's work result before scheduling policy is applied.
enum Stepped {
    /// The query completed — here is its `ok:1` response.
    Finished(Response),
    /// The slice quantum stopped the work — here is the fresh resume
    /// token (the dynamics arms have also advanced their job's graph).
    Suspended(Token),
}

/// A resume token of another op's kind: an embedder's [`QuerySpec`] can
/// pair any token with any work.
fn wrong_kind(token: &Token) -> GameError {
    GameError::Unsupported {
        reason: format!("a {} resume token cannot resume this query", token.op()),
    }
}

/// One budgeted slice of actual work. `Err` is answered as
/// `bad_request`/`bad_resume`.
fn step(job: &mut Job, policy: &ExecPolicy, slice: u64) -> Result<Stepped, GameError> {
    let id = job.id;
    let slices = job.slices;
    let pool = job.tenant.pool();
    let resume = job.resume.as_ref();
    // The optimization and dynamics surfaces take the slice as a plain
    // eval budget (a check slices against the pool itself).
    let mut budgeted = policy.clone();
    budgeted.eval_budget = Some(slice.min(pool.remaining().max(1)));
    match &mut job.work {
        Work::Check {
            concept,
            graph,
            alpha,
            cost_model,
        } => {
            let mut query =
                StabilityQuery::new(*concept, graph, *alpha).with_cost_model(*cost_model);
            match resume {
                None => {}
                Some(Token::Check(frontier)) => query = query.resume(*frontier),
                Some(other) => return Err(wrong_kind(other)),
            }
            let (witness, evals) =
                match Solver::new(policy.clone()).check_sliced(&query, pool, slice)? {
                    Verdict::Stable { evals, .. } => (None, evals),
                    Verdict::Unstable { witness, evals, .. } => (Some(witness), evals),
                    Verdict::Exhausted { frontier, .. } => {
                        return Ok(Stepped::Suspended(Token::Check(frontier)));
                    }
                };
            if evals == 0 {
                // Polynomial concepts complete unmetered; bill a flat
                // rate so drained tenants cannot freeride.
                pool.charge(1);
            }
            Ok(Stepped::Finished(Response::Verdict {
                id,
                source: None,
                witness,
                evals,
                slices,
            }))
        }
        Work::BestResponse {
            agent,
            graph,
            alpha,
            cost_model,
        } => {
            let state = GameState::with_cost_model(graph.clone(), *alpha, *cost_model);
            let (verdict, prior) = match resume {
                None => (best_response_with_policy(&state, *agent, &budgeted)?, 0),
                Some(Token::BestResponse(frontier)) => (
                    best_response_resume(&state, &budgeted, frontier)?,
                    frontier.evals(),
                ),
                Some(other) => return Err(wrong_kind(other)),
            };
            // No batch-pool plumbing on the optimization surface — bill
            // the slice's cumulative-eval delta by hand (min 1, so even
            // no-op slices drain a finite pool and the shed fires).
            pool.charge(verdict.evals().saturating_sub(prior).max(1));
            match verdict {
                BestResponseVerdict::Optimal {
                    response, evals, ..
                } => Ok(Stepped::Finished(Response::BestResponse {
                    id,
                    best: response.best,
                    evals,
                    slices,
                })),
                BestResponseVerdict::ImprovedSoFar { frontier, .. }
                | BestResponseVerdict::Exhausted { frontier, .. } => {
                    Ok(Stepped::Suspended(Token::BestResponse(frontier)))
                }
            }
        }
        Work::Trajectory {
            graph,
            alpha,
            rounds,
            cost_model,
        } => {
            let (out, prior) = match resume {
                Some(Token::Trajectory(ckpt)) => {
                    let out = round_robin::resume_under(
                        graph,
                        *alpha,
                        *cost_model,
                        *rounds,
                        &budgeted,
                        ckpt,
                    )?;
                    (out, ckpt.evals())
                }
                Some(other) => return Err(wrong_kind(other)),
                None => {
                    let out = round_robin::run_with_policy_under(
                        graph,
                        *alpha,
                        *cost_model,
                        *rounds,
                        &budgeted,
                    )?;
                    (out, 0)
                }
            };
            pool.charge(out.evals.saturating_sub(prior).max(1));
            let Some(ckpt) = out.checkpoint else {
                return Ok(Stepped::Finished(Response::Trajectory {
                    id,
                    converged: out.converged,
                    cycled: out.cycled,
                    rounds: out.rounds as u64,
                    moves: out.moves as u64,
                    evals: out.evals,
                    slices,
                    final_edges: out.final_graph,
                }));
            };
            *graph = out.final_graph;
            Ok(Stepped::Suspended(Token::Trajectory(Box::new(ckpt))))
        }
        Work::Dynamics {
            concept,
            graph,
            alpha,
            steps,
            cost_model,
        } => {
            let (traj, prior_evals, prior_steps) = match resume {
                Some(Token::Dynamics(ckpt)) => {
                    let traj = dynamics::resume_with_policy_under(
                        graph,
                        *alpha,
                        *cost_model,
                        *concept,
                        SelectionRule::First,
                        *steps,
                        &budgeted,
                        ckpt,
                    )?;
                    (traj, ckpt.evals(), ckpt.steps())
                }
                Some(other) => return Err(wrong_kind(other)),
                None => {
                    let traj = dynamics::run_with_policy_under(
                        graph,
                        *alpha,
                        *cost_model,
                        *concept,
                        SelectionRule::First,
                        *steps,
                        &budgeted,
                    )?;
                    (traj, 0, 0)
                }
            };
            pool.charge(traj.evals.saturating_sub(prior_evals).max(1));
            let steps_total = prior_steps + traj.len();
            let Some(ckpt) = traj.checkpoint else {
                return Ok(Stepped::Finished(Response::Dynamics {
                    id,
                    converged: traj.converged,
                    steps: steps_total as u64,
                    evals: traj.evals,
                    slices,
                    final_edges: traj.final_graph,
                }));
            };
            *graph = traj.final_graph;
            Ok(Stepped::Suspended(Token::Dynamics(ckpt)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bncg_graph::generators;
    use std::sync::atomic::AtomicU64;

    fn spec(id: u64, tenant: &str, work: Work) -> QuerySpec {
        QuerySpec {
            id,
            tenant: tenant.into(),
            work,
            resume: None,
            deadline_ms: None,
        }
    }

    fn check_c40(tenant: &str, id: u64) -> QuerySpec {
        spec(
            id,
            tenant,
            Work::Check {
                concept: Concept::Bne,
                graph: generators::cycle(40),
                alpha: Alpha::integer(370).unwrap(),
                cost_model: CostModelSpec::SumDistances,
            },
        )
    }

    /// The uninterrupted run's evals for [`check_c40`] (a stable
    /// instance).
    fn c40_direct_evals() -> u64 {
        let g = generators::cycle(40);
        let query = StabilityQuery::new(Concept::Bne, &g, Alpha::integer(370).unwrap());
        match Solver::default().check(&query).unwrap() {
            Verdict::Stable { evals, .. } => evals,
            other => panic!("C40 at α = 370 is BNE-stable: {other:?}"),
        }
    }

    fn start(workers: usize, slice: u64, default_grant: u64) -> Scheduler {
        Scheduler::start(SchedulerConfig {
            workers,
            slice,
            default_grant,
            journal: None,
        })
        .expect("journal-less start cannot fail")
    }

    #[test]
    fn sliced_check_matches_direct_solver_run() {
        let sched = start(1, 64, u64::MAX);
        // C40 at α = 370 is BNE-stable with ~120 genuinely priced
        // candidates (see tests/solver.rs) — enough to straddle slices.
        let response = sched.submit_blocking(check_c40("t", 9));
        let Response::Verdict {
            witness: None,
            evals,
            slices,
            ..
        } = response
        else {
            panic!("{response}")
        };
        assert_eq!(evals, c40_direct_evals());
        assert!(slices > 1, "a 64-eval slice must requeue the C40 BNE scan");
        sched.stop();
    }

    #[test]
    fn drained_tenant_sheds_with_resume_token() {
        let sched = start(1, 32, 40);
        let response = sched.submit_blocking(check_c40("poor", 1));
        let Response::Error {
            error: ErrorClass::Shed,
            resume: Some(token),
            ..
        } = response
        else {
            panic!("shed responses carry the resume token: {response}")
        };
        // Topping the tenant up and resubmitting with the shed token
        // completes the scan with the cumulative eval count intact.
        sched.grant("poor", u64::MAX - 40);
        let response = sched.submit_blocking(QuerySpec {
            resume: Some(token),
            ..check_c40("poor", 2)
        });
        let Response::Verdict { evals, .. } = response else {
            panic!("{response}")
        };
        assert_eq!(
            evals,
            c40_direct_evals(),
            "resumed chain must report the uninterrupted cumulative evals"
        );
        sched.stop();
    }

    #[test]
    fn trajectory_advances_its_graph_across_slices() {
        let sched = start(2, 16, u64::MAX);
        let g = generators::path(9);
        let alpha = Alpha::integer(2).unwrap();
        let response = sched.submit_blocking(spec(
            3,
            "t",
            Work::Trajectory {
                graph: g.clone(),
                alpha,
                rounds: 100,
                cost_model: CostModelSpec::SumDistances,
            },
        ));
        let Response::Trajectory {
            converged: true,
            moves,
            slices,
            final_edges,
            ..
        } = response
        else {
            panic!("{response}")
        };
        assert!(slices > 1);
        let direct = round_robin::run(&g, alpha, 100).unwrap();
        assert_eq!(final_edges, direct.final_graph);
        assert_eq!(moves, direct.moves as u64);
        sched.stop();
    }

    #[test]
    fn bad_resume_tokens_are_rejected_not_run() {
        let sched = Scheduler::start(SchedulerConfig::default()).unwrap();
        let g = generators::path(6);
        let alpha = Alpha::integer(2).unwrap();
        let model = CostModelSpec::SumDistances;
        let works = [
            check_c40("t", 0).work,
            Work::BestResponse {
                agent: 0,
                graph: g.clone(),
                alpha,
                cost_model: model,
            },
            Work::Trajectory {
                graph: g.clone(),
                alpha,
                rounds: 10,
                cost_model: model,
            },
            Work::Dynamics {
                concept: Concept::Bne,
                graph: g,
                alpha,
                steps: 10,
                cost_model: model,
            },
        ];
        let tokens = [
            "{\"v\":1,\"concept\":\"bne\",\"instance\":1,\"unit\":0,\"pos\":0,\"evals\":0}",
            "{\"v\":1,\"agent\":0,\"instance\":1,\"pos\":0,\"evals\":0,\"best\":0}",
            "{\"v\":1,\"instance\":1,\"round\":1,\"agent\":0,\"moved\":0,\"moves\":0,\
             \"evals\":0,\"seen\":[]}",
            "{\"v\":1,\"instance\":1,\"steps\":0,\"evals\":0}",
        ];
        // An embedder can pair any token with any work: a token of the
        // wrong kind, like one issued for another instance, is refused.
        for (i, work) in works.iter().enumerate() {
            for (j, token) in tokens.iter().enumerate() {
                let kind = &works[j];
                let response = sched.submit_blocking(QuerySpec {
                    resume: Some(Token::parse(kind, token).unwrap()),
                    ..spec(4, "t", work.clone())
                });
                assert!(
                    matches!(
                        response,
                        Response::Error {
                            error: ErrorClass::BadResume,
                            ..
                        }
                    ),
                    "work {i}, token {j}: {response}"
                );
            }
        }
        sched.stop();
    }

    #[test]
    fn submit_after_stop_answers_shutdown() {
        let sched = Scheduler::start(SchedulerConfig::default()).unwrap();
        sched.stop();
        let response = sched.submit_blocking(check_c40("t", 5));
        assert!(
            matches!(
                response,
                Response::Error {
                    error: ErrorClass::Shutdown,
                    ..
                }
            ),
            "{response}"
        );
        // A dynamics op refused at submit echoes its graph to resume
        // against, exactly like one shed by the drain.
        let g = generators::path(6);
        let response = sched.submit_blocking(spec(
            6,
            "t",
            Work::Trajectory {
                graph: g.clone(),
                alpha: Alpha::integer(2).unwrap(),
                rounds: 10,
                cost_model: CostModelSpec::SumDistances,
            },
        ));
        let Response::Error {
            error: ErrorClass::Shutdown,
            final_edges: Some(edges),
            ..
        } = response
        else {
            panic!("{response}")
        };
        assert_eq!(edges, g);
        sched.stop();
    }

    #[test]
    fn submit_racing_stop_always_answers() {
        // Regression: `submit` used to check the stop flag before taking
        // the queue lock; a `stop()` landing in between left the job
        // queued forever after the workers exited, and the response
        // never fired. Loop the race — every submission must answer.
        for round in 0..60 {
            let sched = Arc::new(start(1, 64, u64::MAX));
            let (tx, rx) = mpsc::channel::<Response>();
            let submitter = {
                let sched = Arc::clone(&sched);
                std::thread::spawn(move || {
                    for id in 0..8 {
                        let tx = tx.clone();
                        sched.submit(
                            spec(
                                id,
                                "racer",
                                Work::Check {
                                    concept: Concept::Re,
                                    graph: generators::path(4),
                                    alpha: Alpha::integer(1).unwrap(),
                                    cost_model: CostModelSpec::SumDistances,
                                },
                            ),
                            Box::new(move |response| {
                                let _ = tx.send(response);
                            }),
                        );
                        if id == round % 8 {
                            std::thread::yield_now();
                        }
                    }
                })
            };
            sched.stop();
            submitter.join().unwrap();
            for _ in 0..8 {
                rx.recv_timeout(Duration::from_secs(20))
                    .expect("a submission raced stop() and its response never fired");
            }
        }
    }

    #[test]
    fn resident_counts_jobs_through_the_dispatch_window() {
        // Regression: between `pop_front` and the in-flight increment a
        // job was counted nowhere, so `resident()` (and the stats rows)
        // could report a busy daemon idle. The count now moves under the
        // pop lock and only drops after the response is delivered, so
        // while the response channel is empty, resident() ≥ 1 always.
        let sched = start(1, 1, u64::MAX);
        // A single round can complete before the first sample lands;
        // repeat until at least one mid-flight sample is observed.
        let mut samples = 0u64;
        for round in 0..200 {
            let (tx, rx) = mpsc::channel::<Response>();
            sched.submit(
                check_c40("busy", round),
                Box::new(move |response| {
                    let _ = tx.send(response);
                }),
            );
            loop {
                let resident = sched.resident();
                match rx.try_recv() {
                    Err(mpsc::TryRecvError::Empty) => {
                        assert!(
                            resident >= 1,
                            "job unanswered but resident()=0 after {samples} samples"
                        );
                        samples += 1;
                    }
                    Ok(_) => break,
                    Err(e) => panic!("{e}"),
                }
            }
            if samples > 0 {
                break;
            }
        }
        assert!(samples > 0, "no round straddled a sample point");
        sched.stop();
        assert_eq!(sched.resident(), 0);
    }

    #[test]
    fn weighted_drr_bounds_light_tenant_delay() {
        // One worker, a heavy tenant with a deep queue, then one light
        // query: deficit round-robin must answer the light tenant after
        // a bounded number of heavy completions, regardless of depth.
        let sched = start(1, 512, u64::MAX);
        let heavy_done = Arc::new(AtomicU64::new(0));
        // Park the worker so the heavy queue builds before dispatch
        // order is decided, then count heavy completions.
        let gate = sched.submit_blocking(check_c40("heavy", 0));
        assert!(matches!(gate, Response::Verdict { .. }), "{gate}");
        let (heavy_tx, heavy_rx) = mpsc::channel::<Response>();
        for id in 1..=40 {
            let done = Arc::clone(&heavy_done);
            let tx = heavy_tx.clone();
            sched.submit(
                check_c40("heavy", id),
                Box::new(move |response| {
                    done.fetch_add(1, Ordering::SeqCst);
                    let _ = tx.send(response);
                }),
            );
        }
        // The worker drains heavy checks while they are still being
        // submitted; only completions after the light query exists count.
        let heavy_before_submit = heavy_done.load(Ordering::SeqCst);
        let (light_tx, light_rx) = mpsc::channel::<(Response, u64)>();
        {
            let done = Arc::clone(&heavy_done);
            sched.submit(
                check_c40("light", 100),
                Box::new(move |response| {
                    let _ = light_tx.send((response, done.load(Ordering::SeqCst)));
                }),
            );
        }
        let (light, heavy_done_at_light) = light_rx
            .recv_timeout(Duration::from_secs(60))
            .expect("light tenant response");
        let heavy_before_light = heavy_done_at_light - heavy_before_submit;
        assert!(matches!(light, Response::Verdict { .. }), "{light}");
        // Each C40 check is one 512-eval slice; equal weights mean the
        // rotation reaches "light" after at most a couple of heavy
        // slices — never after the whole 40-deep heavy queue.
        assert!(
            heavy_before_light <= 5,
            "light query waited behind {heavy_before_light} of 40 heavy queries"
        );
        for _ in 0..40 {
            let _ = heavy_rx.recv_timeout(Duration::from_secs(60)).unwrap();
        }
        sched.stop();
    }

    #[test]
    fn weights_skew_dispatch_toward_heavier_tenants() {
        let sched = start(1, 512, u64::MAX);
        sched.set_weight("fat", 4);
        // Park the worker on a warmup so both queues build up first.
        let gate = sched.submit_blocking(check_c40("warmup", 0));
        assert!(matches!(gate, Response::Verdict { .. }), "{gate}");
        let order: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));
        let (tx, rx) = mpsc::channel::<()>();
        for id in 0..8 {
            for (tenant, tag) in [("fat", "fat"), ("thin", "thin")] {
                let order = Arc::clone(&order);
                let tx = tx.clone();
                sched.submit(
                    check_c40(tenant, 200 + id),
                    Box::new(move |_| {
                        order.lock().unwrap().push(tag);
                        let _ = tx.send(());
                    }),
                );
            }
        }
        for _ in 0..16 {
            rx.recv_timeout(Duration::from_secs(120)).unwrap();
        }
        let order = order.lock().unwrap();
        let fat_in_first_five = order.iter().take(5).filter(|t| **t == "fat").count();
        assert!(
            fat_in_first_five >= 3,
            "weight-4 tenant must dominate early dispatch: {order:?}"
        );
        sched.stop();
    }

    #[test]
    fn streaming_progress_precedes_identical_final_line() {
        let sched = start(1, 16, u64::MAX);
        let g = generators::path(9);
        let alpha = Alpha::integer(2).unwrap();
        let work = Work::Trajectory {
            graph: g.clone(),
            alpha,
            rounds: 100,
            cost_model: CostModelSpec::SumDistances,
        };
        let frames: Arc<Mutex<Vec<Response>>> = Arc::new(Mutex::new(Vec::new()));
        let (tx, rx) = mpsc::channel::<Response>();
        {
            let frames = Arc::clone(&frames);
            sched.submit_with_progress(
                spec(31, "s", work.clone()),
                Box::new(move |frame| frames.lock().unwrap().push(frame)),
                Box::new(move |response| {
                    let _ = tx.send(response);
                }),
            );
        }
        let streamed = rx.recv_timeout(Duration::from_secs(60)).unwrap();
        let frames = frames.lock().unwrap();
        assert!(!frames.is_empty(), "a 16-eval slice must requeue P9");
        let mut last_evals = 0;
        for frame in frames.iter() {
            let Response::Progress {
                id: 31,
                token: Token::Trajectory(ckpt),
                ..
            } = frame
            else {
                panic!("{frame}")
            };
            let evals = ckpt.evals();
            assert!(evals >= last_evals, "evals must be monotone: {frames:?}");
            last_evals = evals;
        }
        // The final line is byte-identical to a non-streaming run up to
        // the id — streaming never perturbs the work itself.
        let plain = sched.submit_blocking(spec(31, "s", work));
        assert_eq!(streamed.to_string(), plain.to_string());
        let Response::Trajectory { evals, .. } = streamed else {
            panic!("{streamed}")
        };
        assert!(
            evals >= last_evals,
            "final evals cannot fall below the last progress frame"
        );
        sched.stop();
    }

    #[test]
    fn grants_and_weights_replay_from_journal() {
        let dir = std::env::temp_dir().join(format!("bncg-sched-journal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = SchedulerConfig {
            workers: 1,
            slice: 256,
            default_grant: 1000,
            journal: Some(dir.clone()),
        };
        let sched = Scheduler::start(cfg.clone()).unwrap();
        sched.grant("alice", 50);
        sched.grant("alice", 25);
        sched.set_weight("alice", 6);
        sched.grant("bob", 9000);
        sched.stop();
        drop(sched);
        let sched = Scheduler::start(cfg).unwrap();
        let rows = sched.tenant_rows();
        let alice = rows.iter().find(|r| r.name == "alice").unwrap();
        assert_eq!(alice.granted, 75, "grant events replay cumulatively");
        assert_eq!(alice.weight, 6);
        let bob = rows.iter().find(|r| r.name == "bob").unwrap();
        assert_eq!(bob.granted, 9000);
        assert_eq!(bob.weight, 1);
        sched.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
