//! Round-robin best-response dynamics: agents are activated in a fixed
//! cyclic order and each plays its *best feasible neighborhood move*
//! (partners must consent — the BNE move model). A full silent round means
//! the state is a Bilateral Neighborhood Equilibrium.
//!
//! One persistent [`GameState`] is threaded through the whole run: each
//! activation reads the previous round's cached distance matrix and agent
//! costs, and every applied move updates them incrementally instead of
//! recomputing from scratch.
//!
//! Improving-move dynamics in network creation games need not converge
//! (Kawald–Lenzner study this for the unilateral game), so the runner also
//! detects exact state revisits and reports *cycling* separately from
//! hitting the round cap. Visited states are remembered as 64-bit hashes
//! of the canonical edge list (not full graph clones), so long runs stay
//! in `O(1)` memory per state.
//!
//! # Anytime runs and trajectory checkpoints
//!
//! [`run_with_policy_under`] executes the same dynamics under a solver
//! [`ExecPolicy`] with **true anytime semantics**: every activation runs
//! through the metered [`best_response_with_policy`] scan, the policy's
//! eval budget is a **run-level pool** every activation drains, and a
//! stop condition firing *mid-activation* ends the run with the partial
//! work intact — applied moves stay applied, and the interrupted scan's
//! exact position is preserved. An exhausted outcome carries a
//! [`Checkpoint`]; [`resume_under`] continues the trajectory from it and a
//! chain of budgeted slices reaches the **identical final state** (same
//! move sequence, same fingerprints, same converged/cycled verdict) an
//! uninterrupted run reaches (property-tested in `tests/solver.rs`).

use bncg_core::jsonio::{TokenReader, TokenWriter};
use bncg_core::solver::ExecPolicy;
use bncg_core::{
    best_response_resume, best_response_with_policy, check_enumeration_budget,
    BestResponseFrontier, BestResponseVerdict, CheckBudget, CostModelSpec, GameError, GameState,
    Move,
};
use bncg_graph::Graph;
use std::collections::HashSet;
use std::fmt;
use std::str::FromStr;
use std::sync::atomic::Ordering;
use std::time::Instant;

/// The checkpoint layout version: tokens embed a best-response frontier
/// whose positions are enumeration-layout-bound, so a layout bump there
/// implies one here.
const CHECKPOINT_LAYOUT: u64 = 1;

/// A resumable snapshot of an interrupted round-robin trajectory.
///
/// Carries everything [`resume_under`] needs to continue to the exact state an
/// uninterrupted run reaches: the **instance fingerprint** of the graph
/// at interruption (the caller re-supplies the graph itself — typically
/// [`RoundRobinOutcome::final_graph`] — and a mismatch is rejected), the
/// in-progress **round** and next **agent index**, the cumulative
/// move/evaluation counters, the **visited-state fingerprints** that
/// power cycle detection, and — when the stop fired mid-activation — the
/// interrupted best-response **scan frontier** with its best-so-far
/// move.
///
/// Serialization is a flat JSON object (`to_json`/`FromStr`):
/// `{"v":1,"instance":…,"round":…,"agent":…,"moved":0|1,"moves":…,`
/// `"evals":…,"seen":[…],"scan":{…}}` where `scan` (optional, always
/// last) is the embedded [`BestResponseFrontier`] token. Tokens cross
/// process boundaries like the solver's; a layout-version mismatch is
/// rejected on parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    instance: u64,
    round: usize,
    agent: u32,
    moved: bool,
    moves: usize,
    evals: u64,
    seen: Vec<u64>,
    scan: Option<BestResponseFrontier>,
}

impl Checkpoint {
    /// The in-progress round (1-based; counts toward `max_rounds`).
    #[must_use]
    pub fn round(&self) -> usize {
        self.round
    }

    /// The next agent to activate (the interrupted one, if a scan
    /// frontier is present).
    #[must_use]
    pub fn agent(&self) -> u32 {
        self.agent
    }

    /// Cumulative applied moves across the whole trajectory chain.
    #[must_use]
    pub fn moves(&self) -> usize {
        self.moves
    }

    /// Cumulative candidate evaluations across the whole chain.
    #[must_use]
    pub fn evals(&self) -> u64 {
        self.evals
    }

    /// The interrupted activation's scan frontier, if the stop fired
    /// mid-scan.
    #[must_use]
    pub fn scan(&self) -> Option<&BestResponseFrontier> {
        self.scan.as_ref()
    }

    /// The checkpoint as a flat JSON token, the embedded scan token last.
    #[must_use]
    pub fn to_json(&self) -> String {
        TokenWriter::new(CHECKPOINT_LAYOUT)
            .int("instance", self.instance)
            .int("round", self.round as u64)
            .int("agent", u64::from(self.agent))
            .int("moved", u64::from(self.moved))
            .int("moves", self.moves as u64)
            .int("evals", self.evals)
            .ints("seen", self.seen.iter().copied())
            .finish(self.scan.as_ref().map(BestResponseFrontier::to_json))
    }
}

impl fmt::Display for Checkpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_json())
    }
}

impl FromStr for Checkpoint {
    type Err = GameError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let r = TokenReader::new(s, "trajectory checkpoint", CHECKPOINT_LAYOUT)?;
        Ok(Checkpoint {
            instance: r.int("instance")?,
            round: r.int("round")?,
            agent: r.int("agent")?,
            moved: r.flag("moved")?,
            moves: r.int("moves")?,
            evals: r.int("evals")?,
            seen: r.ints("seen")?,
            scan: r.nested()?,
        })
    }
}

/// Outcome of a round-robin run.
#[derive(Debug, Clone)]
pub struct RoundRobinOutcome {
    /// Activation rounds started so far, cumulatively across a resume
    /// chain (a round activates every agent once).
    pub rounds: usize,
    /// Total moves applied across the whole trajectory chain (equals
    /// `history.len()` plus the moves of any prior slices).
    pub moves: usize,
    /// The moves applied **by this slice**, in order (an uninterrupted
    /// run's history is the full trajectory).
    pub history: Vec<Move>,
    /// `true` iff a full round passed with no agent moving (BNE reached).
    pub converged: bool,
    /// `true` iff a previously seen state recurred (a best-response cycle).
    pub cycled: bool,
    /// `true` iff the run stopped because the [`ExecPolicy`] eval-budget
    /// pool drained, its deadline passed, or its cancel token was raised
    /// (only reachable through [`run_with_policy_under`]/[`resume_under`]).
    pub exhausted: bool,
    /// The resume token — present exactly when `exhausted` is set.
    pub checkpoint: Option<Checkpoint>,
    /// Candidate evaluations across the whole trajectory chain so far.
    pub evals: u64,
    /// Candidate positions the pruning layer skipped inside **this
    /// slice's** best-response scans (generator subtree kills plus
    /// leaf-filter skips). Unlike `evals` this is not carried through
    /// checkpoints — the resume token stays layout-stable — so a chain
    /// reports per-slice counts; together with the slice's evals it
    /// yields the visited fraction of the scanned move space.
    pub skipped: u64,
    /// The final state (of this slice; pass it back to [`resume_under`]).
    pub final_graph: Graph,
}

/// Runs round-robin best-response dynamics from `start` for at most
/// `max_rounds` rounds: the [`check_enumeration_budget`] guard at the
/// default [`CheckBudget`], then [`run_with_policy_under`] under
/// [`ExecPolicy::default()`] and the paper's cost model.
///
/// # Errors
///
/// [`GameError::CheckTooLarge`] when one agent's `2^{n−1}` raw
/// candidates exceed the default budget (`n ≥ 27`), refused before any
/// activation; otherwise as [`run_with_policy_under`].
///
/// # Examples
///
/// ```
/// use bncg_core::{Alpha, Concept};
/// use bncg_dynamics::round_robin::run;
/// use bncg_graph::generators;
///
/// let out = run(&generators::path(9), Alpha::integer(2)?, 100)?;
/// assert!(out.converged);
/// assert!(Concept::Bne.is_stable(&out.final_graph, Alpha::integer(2)?)?);
/// # Ok::<(), bncg_core::GameError>(())
/// ```
pub fn run(
    start: &Graph,
    alpha: bncg_core::Alpha,
    max_rounds: usize,
) -> Result<RoundRobinOutcome, GameError> {
    check_enumeration_budget(start.n(), CheckBudget::default())?;
    let model = CostModelSpec::SumDistances;
    run_with_policy_under(start, alpha, model, max_rounds, &ExecPolicy::default())
}

/// [`run`] under a solver [`ExecPolicy`] with **true anytime
/// semantics**: every activation is a metered
/// [`best_response_with_policy`] scan, so the policy's eval budget is a
/// run-level pool drained across activations, the deadline (anchored
/// once at call time) and cancel token are polled *inside* scans — not
/// just between them — and any stop yields partial work plus a
/// [`Checkpoint`] in the outcome instead of an error. There is no size
/// guard on this path: an instance whose per-agent move space dwarfs the
/// budget simply makes progress until the pool drains. `threads` is
/// ignored: activations are inherently sequential (each move changes the
/// state the next agent sees).
///
/// Every activation is priced under `model`
/// ([`CostModelSpec::SumDistances`] is the paper's objective);
/// checkpoints are model-bound through the instance fingerprint.
///
/// Pass the outcome's `final_graph` and `checkpoint` to
/// [`resume_under`] to continue; each slice's policy grants a fresh
/// budget/deadline allowance, and the chain reaches the identical final
/// state an uninterrupted run reaches.
///
/// # Errors
///
/// Forwards engine errors ([`GameError::InvalidMove`] from a corrupt
/// move application); never [`GameError::CheckTooLarge`].
pub fn run_with_policy_under(
    start: &Graph,
    alpha: bncg_core::Alpha,
    model: CostModelSpec,
    max_rounds: usize,
    policy: &ExecPolicy,
) -> Result<RoundRobinOutcome, GameError> {
    run_metered(start, alpha, model, max_rounds, policy, None)
}

/// Continues an interrupted trajectory: `start` must be the interrupted
/// run's `final_graph` (the checkpoint's instance fingerprint is
/// validated against it), `model` the interrupted run's cost model, and
/// `max_rounds` the same cap — the checkpoint's round counter keeps
/// counting against it. The policy's budget and deadline are granted
/// afresh to this slice.
///
/// # Errors
///
/// [`GameError::Unsupported`] when the checkpoint does not match
/// `(start, alpha, model)` or carries a stale scan frontier; otherwise
/// as [`run_with_policy_under`].
pub fn resume_under(
    start: &Graph,
    alpha: bncg_core::Alpha,
    model: CostModelSpec,
    max_rounds: usize,
    policy: &ExecPolicy,
    checkpoint: &Checkpoint,
) -> Result<RoundRobinOutcome, GameError> {
    run_metered(start, alpha, model, max_rounds, policy, Some(checkpoint))
}

/// The anytime loop behind [`run_with_policy_under`] and [`resume_under`].
fn run_metered(
    start: &Graph,
    alpha: bncg_core::Alpha,
    model: CostModelSpec,
    max_rounds: usize,
    policy: &ExecPolicy,
    from: Option<&Checkpoint>,
) -> Result<RoundRobinOutcome, GameError> {
    let mut state = GameState::with_cost_model(start.clone(), alpha, model);
    let n = start.n() as u32;
    let run_deadline = policy.deadline.map(|d| Instant::now() + d);
    // A zero budget still makes progress (mirroring `ScanCtl::new`'s
    // clamp): every slice admits at least one evaluation before the
    // pool reads as drained, so a `while checkpoint { resume }` driver
    // always advances instead of re-issuing the identical checkpoint.
    let budget_total = policy.eval_budget.map(|b| b.max(1));

    // Chain state: either fresh or rehydrated from the checkpoint.
    let mut seen: HashSet<u64>;
    let mut rounds;
    let start_agent;
    let mut moved;
    let moves_prior;
    let evals_prior;
    let mut pending_scan: Option<BestResponseFrontier>;
    match from {
        Some(c) => {
            if c.instance != state.fingerprint() {
                return Err(GameError::Unsupported {
                    reason: "trajectory checkpoint was issued for a different \
                             state (pass the interrupted run's final_graph and \
                             the same α)"
                        .into(),
                });
            }
            // The cursor must be one this runner could actually have
            // issued — a hand-edited or corrupted token with an
            // out-of-range agent or round would otherwise skip the
            // remaining activations and report a false `converged`.
            if c.agent >= n || c.round == 0 || c.round > max_rounds {
                return Err(GameError::Unsupported {
                    reason: format!(
                        "trajectory checkpoint cursor (round {}, agent {}) is \
                         out of range for this run (n = {n}, max_rounds = \
                         {max_rounds})",
                        c.round, c.agent
                    ),
                });
            }
            if c.scan.as_ref().is_some_and(|f| f.agent() != c.agent) {
                return Err(GameError::Unsupported {
                    reason: "trajectory checkpoint's scan frontier names a \
                             different agent than its cursor"
                        .into(),
                });
            }
            seen = c.seen.iter().copied().collect();
            rounds = c.round;
            start_agent = c.agent;
            moved = c.moved;
            // Token counters are outside input: the sums below saturate.
            moves_prior = c.moves;
            evals_prior = c.evals;
            pending_scan = c.scan.clone();
        }
        None => {
            seen = HashSet::new();
            seen.insert(state.graph().fingerprint());
            rounds = 0;
            start_agent = 0;
            moved = false;
            moves_prior = 0;
            evals_prior = 0;
            pending_scan = None;
        }
    }

    let mut history = Vec::new();
    let mut slice_evals = 0u64;
    let mut slice_skipped = 0u64;
    let mut converged = false;
    let mut cycled = false;
    let mut checkpoint: Option<Checkpoint> = None;
    let mut resuming = from.is_some();

    let make_checkpoint = |state: &GameState,
                           round: usize,
                           agent: u32,
                           moved: bool,
                           moves: usize,
                           evals: u64,
                           seen: &HashSet<u64>,
                           scan: Option<BestResponseFrontier>| {
        let mut seen: Vec<u64> = seen.iter().copied().collect();
        seen.sort_unstable();
        Checkpoint {
            instance: state.fingerprint(),
            round,
            agent,
            moved,
            moves,
            evals,
            seen,
            scan,
        }
    };

    // Minimum-progress guarantee: the between-activation stop check is
    // suppressed until this slice has attempted at least one activation,
    // so even a zero deadline or pre-raised cancel token admits one
    // scan attempt (which itself stops at its first poll, advancing the
    // frontier) — a `while checkpoint { resume }` driver therefore
    // always terminates, mirroring `ScanCtl`'s one-quantum floor.
    let mut attempted = false;
    'outer: while resuming || rounds < max_rounds {
        if !resuming {
            rounds += 1;
            moved = false;
        }
        let first_agent = if resuming { start_agent } else { 0 };
        resuming = false;
        for u in first_agent..n {
            // Between-activation stop check: a drained pool, passed
            // deadline, or raised token checkpoints *before* the next
            // scan starts (the scan's own polls catch mid-activation
            // stops).
            let drained = budget_total.is_some_and(|b| slice_evals >= b);
            let overdue = run_deadline.is_some_and(|at| Instant::now() >= at);
            let cancelled = policy
                .cancel
                .as_ref()
                .is_some_and(|c| c.load(Ordering::Relaxed));
            if attempted && (drained || overdue || cancelled) {
                checkpoint = Some(make_checkpoint(
                    &state,
                    rounds,
                    u,
                    moved,
                    moves_prior.saturating_add(history.len()),
                    evals_prior.saturating_add(slice_evals),
                    &seen,
                    pending_scan.take(),
                ));
                break 'outer;
            }
            // Each activation receives the remaining slice of the
            // run-level pool and deadline.
            let act_policy = ExecPolicy {
                threads: 1,
                eval_budget: budget_total.map(|b| b - slice_evals),
                deadline: run_deadline.map(|at| at.saturating_duration_since(Instant::now())),
                cancel: policy.cancel.clone(),
                batch_budget: None,
            };
            let scan_prior = pending_scan.as_ref().map_or(0, BestResponseFrontier::evals);
            attempted = true;
            let verdict = match pending_scan.take() {
                Some(f) => best_response_resume(&state, &act_policy, &f)?,
                None => best_response_with_policy(&state, u, &act_policy)?,
            };
            slice_evals += verdict.evals() - scan_prior;
            // Verdict skip counts are per-call, so a resumed scan needs
            // no prior subtraction.
            slice_skipped += verdict.skipped();
            match verdict {
                BestResponseVerdict::Optimal { response, .. } => {
                    if let Some(mv) = response.best {
                        state.apply_move(&mv)?;
                        history.push(mv);
                        moved = true;
                        if !seen.insert(state.graph().fingerprint()) {
                            cycled = true;
                            break 'outer;
                        }
                    }
                }
                BestResponseVerdict::ImprovedSoFar { frontier, .. }
                | BestResponseVerdict::Exhausted { frontier, .. } => {
                    // Mid-activation stop: the move (if any) is NOT
                    // applied — the scan has not certified the argmin —
                    // but its frontier keeps the partial pricing, so no
                    // work is lost.
                    checkpoint = Some(make_checkpoint(
                        &state,
                        rounds,
                        u,
                        moved,
                        moves_prior.saturating_add(history.len()),
                        evals_prior.saturating_add(slice_evals),
                        &seen,
                        Some(frontier),
                    ));
                    break 'outer;
                }
            }
        }
        if checkpoint.is_some() {
            break;
        }
        if !moved {
            converged = true;
            break;
        }
    }
    Ok(RoundRobinOutcome {
        rounds,
        moves: moves_prior.saturating_add(history.len()),
        exhausted: checkpoint.is_some(),
        checkpoint,
        evals: evals_prior.saturating_add(slice_evals),
        skipped: slice_skipped,
        history,
        converged,
        cycled,
        final_graph: state.graph().clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bncg_core::CostModelSpec::SumDistances;
    use bncg_core::{Alpha, Concept};
    use bncg_graph::generators;

    fn a(s: &str) -> Alpha {
        s.parse().unwrap()
    }

    #[test]
    fn converged_states_are_bne() {
        let mut rng = bncg_graph::test_rng(61);
        for _ in 0..8 {
            let start = generators::random_tree(9, &mut rng);
            for alpha in ["3/2", "3"] {
                let out = run(&start, a(alpha), 200).unwrap();
                if out.converged {
                    assert!(
                        Concept::Bne.is_stable(&out.final_graph, a(alpha)).unwrap(),
                        "a silent round must certify BNE"
                    );
                }
                assert_eq!(out.moves, out.history.len());
            }
        }
    }

    #[test]
    fn stable_start_converges_in_one_round() {
        let star = generators::star(8);
        let out = run(&star, a("2"), 10).unwrap();
        assert!(out.converged);
        assert_eq!(out.rounds, 1);
        assert_eq!(out.moves, 0);
        assert!(!out.cycled);
        assert!(out.checkpoint.is_none());
        assert_eq!(out.final_graph, star);
    }

    #[test]
    fn every_history_move_was_feasible_when_played() {
        let start = generators::path(8);
        let alpha = a("2");
        let out = run(&start, alpha, 100).unwrap();
        // Replay the history and re-certify each step.
        let mut g = start.clone();
        for mv in &out.history {
            assert!(bncg_core::delta::move_improves_all(&g, alpha, mv).unwrap());
            g = mv.apply(&g).unwrap();
        }
        assert_eq!(g, out.final_graph);
    }

    #[test]
    fn cycle_or_cap_is_reported_not_mislabelled() {
        // Whatever happens on random graphs, the outcome flags must be
        // consistent: converged and cycled are mutually exclusive, and a
        // converged state passes the BNE check.
        let mut rng = bncg_graph::test_rng(62);
        for _ in 0..6 {
            let start = generators::random_connected(8, 0.25, &mut rng);
            let out = run(&start, a("2"), 60).unwrap();
            assert!(!(out.converged && out.cycled));
        }
    }

    #[test]
    fn budget_guard_propagates() {
        let big = generators::path(40);
        assert!(run(&big, a("1"), 5).is_err());
    }

    #[test]
    fn policy_deadline_marks_exhausted() {
        let policy = ExecPolicy::default().with_deadline(std::time::Duration::ZERO);
        let out = run_with_policy_under(&generators::path(12), a("2"), SumDistances, 100, &policy)
            .unwrap();
        assert!(out.exhausted);
        assert!(!out.converged && !out.cycled);
        assert_eq!(out.moves, 0);
        let ckpt = out.checkpoint.expect("exhausted runs carry a checkpoint");
        assert_eq!(ckpt.round(), 1);
        assert_eq!(ckpt.agent(), 0);
    }

    #[test]
    fn policy_budget_pool_drains_with_partial_work() {
        // The run-level pool replaces `run`'s raw-space size guard: a
        // 30-eval pool does real work (possibly applying early
        // moves) before draining, instead of refusing the whole run.
        let tight = ExecPolicy::default().with_eval_budget(30);
        let out =
            run_with_policy_under(&generators::path(12), a("2"), SumDistances, 50, &tight).unwrap();
        assert!(out.exhausted, "anytime contract: exhaust, not fail");
        assert!(out.evals >= 1, "the pool must have been drained by work");
        assert!(out.checkpoint.is_some());
    }

    #[test]
    fn metered_runs_report_pruned_work() {
        let out = run_with_policy_under(
            &generators::path(10),
            a("2"),
            SumDistances,
            100,
            &ExecPolicy::default(),
        )
        .unwrap();
        assert!(out.converged);
        assert!(out.evals > 0);
        assert!(
            out.skipped > 0,
            "the pruning layer must skip part of the scanned move space"
        );
        // The guarded wrapper runs the identical metered loop.
        let guarded = run(&generators::path(10), a("2"), 100).unwrap();
        assert_eq!((guarded.evals, guarded.skipped), (out.evals, out.skipped));
        assert_eq!(guarded.history, out.history);
    }

    #[test]
    fn policy_cancel_token_stops_the_run() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let token = Arc::new(AtomicBool::new(true));
        let policy = ExecPolicy::default().with_cancel(token);
        let out = run_with_policy_under(&generators::path(12), a("2"), SumDistances, 100, &policy)
            .unwrap();
        assert!(out.exhausted);
        assert_eq!(out.moves, 0);
        assert!(out.checkpoint.is_some());
    }

    #[test]
    fn resume_chain_reaches_the_uninterrupted_final_state() {
        let start = generators::path(10);
        let alpha = a("2");
        let uninterrupted =
            run_with_policy_under(&start, alpha, SumDistances, 100, &ExecPolicy::default())
                .unwrap();
        assert!(uninterrupted.converged);

        let slice_policy = ExecPolicy::default().with_eval_budget(40);
        let mut out =
            run_with_policy_under(&start, alpha, SumDistances, 100, &slice_policy).unwrap();
        let mut full_history = out.history.clone();
        let mut slices = 1u32;
        while let Some(ckpt) = out.checkpoint.take() {
            // Round-trip the token through JSON every slice.
            let parsed: Checkpoint = ckpt.to_json().parse().unwrap();
            assert_eq!(parsed, ckpt);
            out = resume_under(
                &out.final_graph,
                alpha,
                SumDistances,
                100,
                &slice_policy,
                &parsed,
            )
            .unwrap();
            full_history.extend(out.history.iter().cloned());
            slices += 1;
            assert!(slices < 10_000, "resume chain failed to terminate");
        }
        assert!(slices > 1, "a 40-eval pool must interrupt the P10 run");
        assert!(out.converged);
        assert_eq!(full_history, uninterrupted.history);
        assert_eq!(out.moves, uninterrupted.moves);
        assert_eq!(out.rounds, uninterrupted.rounds);
        assert_eq!(
            out.final_graph.fingerprint(),
            uninterrupted.final_graph.fingerprint()
        );
    }

    #[test]
    fn zero_budget_policy_still_makes_progress() {
        // A zero budget clamps to one evaluation per slice (mirroring
        // ScanCtl), so even the degenerate resume loop terminates at
        // the uninterrupted run's verdict instead of spinning on an
        // identical checkpoint forever.
        let policy = ExecPolicy::default().with_eval_budget(0);
        let mut out =
            run_with_policy_under(&generators::path(10), a("2"), SumDistances, 100, &policy)
                .unwrap();
        let mut slices = 1u32;
        while let Some(ckpt) = out.checkpoint.take() {
            out =
                resume_under(&out.final_graph, a("2"), SumDistances, 100, &policy, &ckpt).unwrap();
            slices += 1;
            assert!(slices < 100_000, "zero-budget chain must advance");
        }
        assert!(out.converged);
    }

    #[test]
    fn zero_deadline_resume_chain_still_terminates() {
        // The minimum-progress guarantee: each slice attempts one
        // activation before honoring the (already passed) deadline, and
        // that scan stops at its first poll with an advanced frontier —
        // so even the degenerate all-zero-deadline chain converges.
        let policy = ExecPolicy::default().with_deadline(std::time::Duration::ZERO);
        let alpha = a("2");
        let mut out =
            run_with_policy_under(&generators::path(10), alpha, SumDistances, 100, &policy)
                .unwrap();
        let mut slices = 1u32;
        while let Some(ckpt) = out.checkpoint.take() {
            out = resume_under(&out.final_graph, alpha, SumDistances, 100, &policy, &ckpt).unwrap();
            slices += 1;
            assert!(slices < 100_000, "zero-deadline chain must advance");
        }
        assert!(out.converged);
    }

    #[test]
    fn forged_checkpoint_cursors_are_rejected() {
        // A token with the right instance fingerprint but an impossible
        // cursor must error, not skip the remaining activations into a
        // false `converged`.
        let g = generators::path(8);
        let alpha = a("2");
        let fp = bncg_core::GameState::new(g.clone(), alpha).fingerprint();
        let policy = ExecPolicy::default();
        let forged: Checkpoint = format!(
            "{{\"v\":1,\"instance\":{fp},\"round\":1,\"agent\":99,\
             \"moved\":0,\"moves\":0,\"evals\":0,\"seen\":[]}}"
        )
        .parse()
        .unwrap();
        assert!(matches!(
            resume_under(&g, alpha, SumDistances, 100, &policy, &forged),
            Err(GameError::Unsupported { .. })
        ));
        let forged: Checkpoint = format!(
            "{{\"v\":1,\"instance\":{fp},\"round\":500,\"agent\":0,\
             \"moved\":0,\"moves\":0,\"evals\":0,\"seen\":[]}}"
        )
        .parse()
        .unwrap();
        assert!(matches!(
            resume_under(&g, alpha, SumDistances, 100, &policy, &forged),
            Err(GameError::Unsupported { .. })
        ));
        // Forged counters saturate the cumulative totals instead of
        // overflowing them.
        let forged: Checkpoint = format!(
            "{{\"v\":1,\"instance\":{fp},\"round\":1,\"agent\":0,\
             \"moved\":0,\"moves\":{max},\"evals\":{max},\"seen\":[]}}",
            max = u64::MAX
        )
        .parse()
        .unwrap();
        let out = resume_under(&g, alpha, SumDistances, 100, &policy, &forged).unwrap();
        assert!(!out.history.is_empty(), "path8 moves at α = 2");
        assert_eq!((out.moves, out.evals), (usize::MAX, u64::MAX));
        // A nested scan placed first cannot hide the checkpoint's own
        // fields: it parses to the checkpoint the scan-last layout does.
        let tight = ExecPolicy::default().with_eval_budget(5);
        let ckpt = run_with_policy_under(&g, alpha, SumDistances, 100, &tight)
            .unwrap()
            .checkpoint
            .expect("a 5-eval budget stops the run");
        let json = ckpt.to_json();
        let at = json.find(",\"scan\":").expect("the stop fired mid-scan");
        let scan_first = format!("{{{},{}}}", &json[at + 1..json.len() - 1], &json[1..at]);
        assert_eq!(scan_first.parse::<Checkpoint>().unwrap(), ckpt);
    }

    #[test]
    fn mismatched_checkpoints_are_rejected() {
        let tight = ExecPolicy::default().with_eval_budget(5);
        let out = run_with_policy_under(&generators::path(10), a("2"), SumDistances, 100, &tight)
            .unwrap();
        let ckpt = out.checkpoint.expect("tight pool exhausts");
        // Resuming against a different graph (or α) is rejected.
        assert!(matches!(
            resume_under(
                &generators::path(10),
                a("3"),
                SumDistances,
                100,
                &tight,
                &ckpt
            ),
            Err(GameError::Unsupported { .. })
        ));
        assert!(matches!(
            resume_under(
                &generators::star(10),
                a("2"),
                SumDistances,
                100,
                &tight,
                &ckpt
            ),
            Err(GameError::Unsupported { .. })
        ));
        // Malformed and version-bumped tokens fail to parse.
        assert!("{\"v\":1}".parse::<Checkpoint>().is_err());
        assert!(
            "{\"v\":9,\"instance\":1,\"round\":1,\"agent\":0,\"moved\":0,\
             \"moves\":0,\"evals\":0,\"seen\":[]}"
                .parse::<Checkpoint>()
                .is_err()
        );
    }
}
