//! # bncg-dynamics
//!
//! Improving-move dynamics for the Bilateral Network Creation Game: how do
//! decentralized agents *reach* the equilibria whose quality the paper
//! bounds? A run repeatedly finds a move the chosen solution concept
//! forbids and applies it, until no such move exists (the state is an
//! equilibrium of that concept) or a step limit fires.
//!
//! Three move-selection rules are provided: the deterministic first
//! violation, a uniformly random improving move, and the "most improving"
//! move (largest joint cost reduction of the consenting agents). The
//! trajectory records every step so experiments can analyze convergence
//! speed and the social-cost path.
//!
//! # Anytime runs and checkpoints
//!
//! Two policy-driven runners give the dynamics the solver's anytime
//! contract:
//!
//! * [`run_with_policy_under`] drives the improving-move loop through
//!   the [`Solver`] under an [`ExecPolicy`]; a budget, deadline, or
//!   cancel stop ends the run with the partial trajectory intact and a
//!   [`DynamicsCheckpoint`] carrying the interrupted check's scan
//!   frontier. [`resume_with_policy_under`] continues from it, and a
//!   chain of budgeted slices replays the **identical trajectory** an
//!   uninterrupted run produces (the per-step checks are deterministic
//!   first-violation scans, and a resumed frontier provably returns the
//!   same witness).
//! * [`round_robin::run_with_policy_under`] does the same for round-robin
//!   best-response dynamics, with a run-level eval pool and
//!   mid-activation [`round_robin::Checkpoint`]s.
//!
//! Both checkpoint tokens serialize as flat JSON via
//! `to_json`/[`FromStr`] and cross process
//! boundaries, which is what lets a serving layer (`bncg-serve`)
//! time-slice thousands of concurrent trajectories through one worker
//! pool by checkpointing and requeueing them.
//!
//! # Examples
//!
//! ```
//! use bncg_core::{Alpha, Concept};
//! use bncg_dynamics::{run, SelectionRule};
//! use bncg_graph::generators;
//!
//! // A path under greedy dynamics folds into a low-cost tree.
//! let path = generators::path(12);
//! let alpha = Alpha::integer(3)?;
//! let t = run(&path, alpha, Concept::Bge, SelectionRule::First, 10_000)?;
//! assert!(t.converged);
//! # Ok::<(), bncg_core::GameError>(())
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod round_robin;

use bncg_core::concepts::single_edge;
use bncg_core::jsonio::{TokenReader, TokenWriter};
use bncg_core::solver::{ExecPolicy, Frontier, Solver, StabilityQuery, Verdict};
use bncg_core::{Alpha, CheckBudget, Concept, CostModelSpec, GameError, GameState, Move};
use bncg_graph::Graph;
use rand::seq::SliceRandom;
use rand::Rng;
use std::fmt;
use std::str::FromStr;

/// How the next improving move is chosen among the violations of the
/// concept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectionRule {
    /// The first violation in the checker's deterministic scan order.
    First,
    /// A uniformly random improving move (polynomial concepts only).
    Random,
    /// The move with the largest total strict improvement of its
    /// consenting agents (polynomial concepts only).
    MostImproving,
}

/// The checkpoint layout version: tokens embed a solver [`Frontier`]
/// whose positions are enumeration-layout-bound, so a layout bump there
/// implies one here.
const CHECKPOINT_LAYOUT: u64 = 1;

/// A resumable snapshot of an interrupted improving-move trajectory —
/// the [`run_with_policy_under`] analogue of [`round_robin::Checkpoint`].
///
/// Carries the **instance fingerprint** of the graph at interruption
/// (the caller re-supplies the graph itself — typically
/// [`Trajectory::final_graph`] — and a mismatch is rejected), the
/// cumulative applied-**step** and candidate-**evaluation** counters,
/// and — when the stop fired mid-scan — the interrupted stability
/// check's solver [`Frontier`], so no certified work is repeated on
/// resume.
///
/// Serialization is a flat JSON object (`to_json`/`FromStr`):
/// `{"v":1,"instance":…,"steps":…,"evals":…,"scan":{…}}` where `scan`
/// (optional, always last) is the embedded [`Frontier`] token. Tokens
/// cross process boundaries like the solver's; a layout-version
/// mismatch is rejected on parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DynamicsCheckpoint {
    instance: u64,
    steps: usize,
    evals: u64,
    scan: Option<Frontier>,
}

impl DynamicsCheckpoint {
    /// Cumulative applied moves across the whole trajectory chain.
    #[must_use]
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Cumulative candidate evaluations across the whole chain.
    #[must_use]
    pub fn evals(&self) -> u64 {
        self.evals
    }

    /// The interrupted check's scan frontier, if the stop fired
    /// mid-scan (absent when the run deadline passed between steps).
    #[must_use]
    pub fn scan(&self) -> Option<&Frontier> {
        self.scan.as_ref()
    }

    /// The checkpoint as a flat JSON token, the embedded scan token last.
    #[must_use]
    pub fn to_json(&self) -> String {
        TokenWriter::new(CHECKPOINT_LAYOUT)
            .int("instance", self.instance)
            .int("steps", self.steps as u64)
            .int("evals", self.evals)
            .finish(self.scan.as_ref().map(Frontier::to_json))
    }
}

impl fmt::Display for DynamicsCheckpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_json())
    }
}

impl FromStr for DynamicsCheckpoint {
    type Err = GameError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let r = TokenReader::new(s, "dynamics checkpoint", CHECKPOINT_LAYOUT)?;
        Ok(DynamicsCheckpoint {
            instance: r.int("instance")?,
            steps: r.int("steps")?,
            evals: r.int("evals")?,
            scan: r.nested()?,
        })
    }
}

/// A recorded dynamics run.
#[derive(Debug, Clone)]
pub struct Trajectory {
    /// The moves applied **by this run call**, in order (an
    /// uninterrupted run's `steps` is the full trajectory; in a resume
    /// chain each slice reports its own segment and the checkpoint
    /// carries the cumulative count).
    pub steps: Vec<Move>,
    /// Whether the run reached a stable state (vs. hitting the step cap).
    pub converged: bool,
    /// Whether a stability check exhausted its [`ExecPolicy`] (budget,
    /// deadline, or cancellation) before the run could converge — only
    /// reachable through the policy runners. Mutually exclusive with
    /// `converged`.
    pub exhausted: bool,
    /// The resume token — present exactly when `exhausted` is set. Pass
    /// it with `final_graph` to [`resume_with_policy_under`] to continue
    /// the trajectory.
    pub checkpoint: Option<DynamicsCheckpoint>,
    /// Candidate evaluations metered by the per-step stability checks
    /// across the whole trajectory chain so far (0 for polynomial
    /// concepts, whose checks are unmetered).
    pub evals: u64,
    /// The final graph.
    pub final_graph: Graph,
    /// Social cost after every step of **this run call** (including its
    /// starting state), as `f64` for reporting; `None` entries mark
    /// disconnected states.
    pub cost_trace: Vec<Option<f64>>,
}

impl Trajectory {
    /// Number of applied moves.
    #[must_use]
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether no move was applied.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }
}

/// Runs improving dynamics from `start` under `concept` until stable or
/// `max_steps` moves were applied.
///
/// # Errors
///
/// Forwards guard errors from the exponential checkers, and
/// [`GameError::InvalidMove`] if a checker ever emits a non-applicable
/// move (a bug the dynamics would rather surface than skip).
pub fn run(
    start: &Graph,
    alpha: Alpha,
    concept: Concept,
    rule: SelectionRule,
    max_steps: usize,
) -> Result<Trajectory, GameError> {
    let mut rng = bncg_graph::test_rng(0x5eed);
    run_with_rng(start, alpha, concept, rule, max_steps, &mut rng)
}

/// [`run`] with a caller-supplied RNG (used by [`SelectionRule::Random`]).
/// Each step's check is the solver call [`Concept::find_violation_in`]
/// makes: the default policy under a [`CheckBudget::DEFAULT_MAX_EVALS`]
/// evaluation budget.
///
/// # Errors
///
/// Same as [`run`]; a check that exhausts its budget surfaces as
/// [`GameError::CheckTooLarge`].
pub fn run_with_rng<R: Rng + ?Sized>(
    start: &Graph,
    alpha: Alpha,
    concept: Concept,
    rule: SelectionRule,
    max_steps: usize,
    rng: &mut R,
) -> Result<Trajectory, GameError> {
    let policy = ExecPolicy::default().with_eval_budget(CheckBudget::DEFAULT_MAX_EVALS);
    let t = run_impl(
        start,
        alpha,
        CostModelSpec::SumDistances,
        concept,
        rule,
        max_steps,
        rng,
        &policy,
        None,
    )?;
    if t.exhausted {
        return Err(GameError::CheckTooLarge {
            reason: format!(
                "a {concept} stability check exhausted its {} evaluation budget \
                 after {} steps",
                CheckBudget::DEFAULT_MAX_EVALS,
                t.len()
            ),
        });
    }
    Ok(t)
}

/// [`run`] under an explicit [`ExecPolicy`] and [`CostModelSpec`]:
/// every per-step exponential-concept stability check goes through one
/// [`Solver`] (threads shard the scans, and this holds for **all**
/// selection rules — for BNE/k-BSE/BSE the enumerating rules degrade to
/// the checker's single deterministic violation). The policy's deadline
/// is anchored once and bounds the **whole run** (each step's check receives the
/// remaining slice, matching [`round_robin::run_with_policy_under`]);
/// the eval budget applies per step. A step stopped by the policy ends
/// the run with `exhausted = true` and a [`DynamicsCheckpoint`]
/// carrying the interrupted check's scan frontier — the anytime
/// contract of the solver surface, lifted to dynamics. Continue with
/// [`resume_with_policy_under`]; a chain of budgeted slices replays the
/// identical trajectory an uninterrupted run produces.
/// Polynomial-concept steps complete eagerly (the solver does not meter
/// them), so those runs are bounded by `max_steps`, not the policy.
/// Checkpoints are model-bound: a token issued under one model cannot
/// resume a run under another.
///
/// # Errors
///
/// Forwards [`GameError::InvalidMove`] if a checker emits a
/// non-applicable move; unlike [`run`], oversized instances do not error
/// with [`GameError::CheckTooLarge`] — bound them via the policy.
#[allow(clippy::too_many_arguments)]
pub fn run_with_policy_under(
    start: &Graph,
    alpha: Alpha,
    model: CostModelSpec,
    concept: Concept,
    rule: SelectionRule,
    max_steps: usize,
    policy: &ExecPolicy,
) -> Result<Trajectory, GameError> {
    let mut rng = bncg_graph::test_rng(0x5eed);
    run_impl(
        start, alpha, model, concept, rule, max_steps, &mut rng, policy, None,
    )
}

/// Continues an interrupted trajectory: `start` must be the interrupted
/// run's `final_graph` (the checkpoint's instance fingerprint is
/// validated against it), `model` the interrupted run's cost model, and
/// `max_steps` the same cap — the checkpoint's step counter keeps
/// counting against it. The policy's budget and deadline are granted
/// afresh to this slice, and the checkpoint's scan frontier (if any)
/// resumes the interrupted stability check exactly where it stopped, so
/// no certified work is repeated.
///
/// # Errors
///
/// [`GameError::Unsupported`] when the checkpoint does not match
/// `(start, alpha, model, concept)` or its cursor is out of range for
/// this run; otherwise as [`run_with_policy_under`].
#[allow(clippy::too_many_arguments)]
pub fn resume_with_policy_under(
    start: &Graph,
    alpha: Alpha,
    model: CostModelSpec,
    concept: Concept,
    rule: SelectionRule,
    max_steps: usize,
    policy: &ExecPolicy,
    checkpoint: &DynamicsCheckpoint,
) -> Result<Trajectory, GameError> {
    let mut rng = bncg_graph::test_rng(0x5eed);
    run_impl(
        start,
        alpha,
        model,
        concept,
        rule,
        max_steps,
        &mut rng,
        policy,
        Some(checkpoint),
    )
}

/// One per-step check outcome: either the deterministic next move (or
/// `None` at an equilibrium), or a policy stop with the scan frontier to
/// checkpoint.
enum Step {
    Next(Option<Move>),
    Stopped(Option<Frontier>),
}

#[allow(clippy::too_many_arguments)]
fn run_impl<R: Rng + ?Sized>(
    start: &Graph,
    alpha: Alpha,
    model: CostModelSpec,
    concept: Concept,
    rule: SelectionRule,
    max_steps: usize,
    rng: &mut R,
    policy: &ExecPolicy,
    from: Option<&DynamicsCheckpoint>,
) -> Result<Trajectory, GameError> {
    // The policy deadline bounds the *run*, not each step: it is
    // anchored once here and each per-step check receives only the
    // remaining slice (the same run-level anchoring the round-robin
    // dynamics uses, so `deadline` means one thing across both APIs).
    let run_deadline = policy.deadline.map(|d| std::time::Instant::now() + d);
    let mut state = GameState::with_cost_model(start.clone(), alpha, model);

    // Chain state: either fresh or rehydrated from the checkpoint.
    let (steps_prior, evals_prior, mut pending) = match from {
        Some(c) => {
            if c.instance != state.fingerprint() {
                return Err(GameError::Unsupported {
                    reason: "dynamics checkpoint was issued for a different \
                             state (pass the interrupted run's final_graph and \
                             the same α)"
                        .into(),
                });
            }
            if c.steps > max_steps {
                return Err(GameError::Unsupported {
                    reason: format!(
                        "dynamics checkpoint counts {} applied steps, past this \
                         run's max_steps = {max_steps} — the token was forged \
                         or the cap shrank",
                        c.steps
                    ),
                });
            }
            // A frontier for the wrong concept would also be rejected by
            // the solver's own resume validation, but failing here keeps
            // the error message at the dynamics level.
            if c.scan.as_ref().is_some_and(|f| f.concept() != concept) {
                return Err(GameError::Unsupported {
                    reason: "dynamics checkpoint's scan frontier belongs to a \
                             different concept than this run's"
                        .into(),
                });
            }
            (c.steps, c.evals, c.scan)
        }
        None => (0, 0, None),
    };

    let mut slice_evals = 0u64;
    // Minimum-progress guarantee (mirroring round_robin's): the
    // deadline-passed early return is suppressed until this slice has
    // attempted one check, so even an all-zero-deadline resume chain
    // advances the frontier by at least one scan quantum per slice and
    // terminates.
    let mut attempted = false;
    // Resolves the next deterministic first-violation move under the
    // caller's policy (anytime semantics). `resume` carries the
    // interrupted scan frontier on the first check of a resumed slice.
    let mut next_first = |state: &GameState,
                          resume: Option<Frontier>,
                          slice_evals: &mut u64|
     -> Result<Step, GameError> {
        let mut step_policy = policy.clone();
        if let Some(at) = run_deadline {
            let remaining = at.saturating_duration_since(std::time::Instant::now());
            if attempted && remaining.is_zero() {
                // Run deadline already passed between steps: stop
                // without starting a scan, keeping any pending
                // frontier for the checkpoint.
                return Ok(Step::Stopped(resume));
            }
            step_policy.deadline = Some(remaining);
        }
        attempted = true;
        // Verdict eval counts are cumulative across a resumed query
        // chain; delta-track against the frontier's prior.
        let scan_prior = resume.as_ref().map_or(0, Frontier::evals);
        let mut query = StabilityQuery::on(concept, state);
        if let Some(f) = resume {
            query = query.resume(f);
        }
        match Solver::new(step_policy).check(&query)? {
            Verdict::Stable { evals, .. } => {
                *slice_evals += evals - scan_prior;
                Ok(Step::Next(None))
            }
            Verdict::Unstable { witness, evals, .. } => {
                *slice_evals += evals - scan_prior;
                Ok(Step::Next(Some(witness)))
            }
            Verdict::Exhausted { frontier, progress } => {
                *slice_evals += progress.evals_total - scan_prior;
                Ok(Step::Stopped(Some(frontier)))
            }
        }
    };
    let mut steps = Vec::new();
    let mut cost_trace = vec![state.social_cost().ok().map(|c| c.as_f64())];
    let mut converged = false;
    let mut checkpoint: Option<DynamicsCheckpoint> = None;
    // For exponential concepts every rule reduces to the checker's
    // single deterministic violation, so the solver-routed path covers
    // Random/MostImproving too — without it they would bypass the
    // policy. (This also means every
    // checkpointable check is deterministic, which is what makes resumed
    // chains replay the identical trajectory.)
    let effective_rule = if concept.is_exponential() {
        SelectionRule::First
    } else {
        rule
    };
    let mut steps_done = steps_prior;
    while steps_done < max_steps {
        let next = match effective_rule {
            SelectionRule::First => match next_first(&state, pending.take(), &mut slice_evals)? {
                Step::Next(next) => next,
                Step::Stopped(scan) => {
                    checkpoint = Some(DynamicsCheckpoint {
                        instance: state.fingerprint(),
                        steps: steps_done,
                        // Saturating: a forged checkpoint's `evals` must
                        // not overflow the sum.
                        evals: evals_prior.saturating_add(slice_evals),
                        scan,
                    });
                    break;
                }
            },
            SelectionRule::Random => enumerate_violations(&state, concept)?.choose(rng).cloned(),
            SelectionRule::MostImproving => pick_most_improving(&state, concept)?,
        };
        let Some(mv) = next else {
            converged = true;
            break;
        };
        state.apply_move(&mv)?;
        cost_trace.push(state.social_cost().ok().map(|c| c.as_f64()));
        steps.push(mv);
        steps_done += 1;
    }
    if !converged && checkpoint.is_none() {
        // The step cap fired: certify (or refute) stability of the final
        // state so `converged` reflects it.
        match next_first(&state, pending.take(), &mut slice_evals)? {
            Step::Next(None) => converged = true,
            Step::Next(Some(_)) => {}
            Step::Stopped(scan) => {
                checkpoint = Some(DynamicsCheckpoint {
                    instance: state.fingerprint(),
                    steps: steps_done,
                    evals: evals_prior.saturating_add(slice_evals),
                    scan,
                });
            }
        }
    }
    Ok(Trajectory {
        steps,
        converged,
        exhausted: checkpoint.is_some(),
        checkpoint,
        evals: evals_prior.saturating_add(slice_evals),
        final_graph: state.graph().clone(),
        cost_trace,
    })
}

/// Enumerates every violating move of a *polynomial* concept (RE, BAE, PS,
/// BSwE, BGE) in `state`, in [`single_edge::moves`] order: each candidate
/// is priced by the engine (matrix fast path for additions,
/// consenting-agent BFS otherwise) against the cached pre-move costs.
///
/// # Errors
///
/// Forwards the evaluator's move validation, which the generated
/// candidates always pass.
pub(crate) fn enumerate_violations(
    state: &GameState,
    concept: Concept,
) -> Result<Vec<Move>, GameError> {
    let mut ev = state.evaluator();
    let mut out = Vec::new();
    for mv in single_edge::moves(state.graph(), concept) {
        if ev.improves_all(&mv)?.is_some() {
            out.push(mv);
        }
    }
    Ok(out)
}

/// The violating move of a polynomial concept with the largest total
/// gain of its consenting agents, the first such in
/// [`single_edge::moves`] order on ties. Each candidate is priced once,
/// stopping at its first non-improving agent; the delta of a violation
/// also carries the gain.
fn pick_most_improving(state: &GameState, concept: Concept) -> Result<Option<Move>, GameError> {
    let alpha = state.alpha();
    let mut ev = state.evaluator();
    let mut best: Option<(i128, Move)> = None;
    for mv in single_edge::moves(state.graph(), concept) {
        let Some(delta) = ev.improves_all(&mv)? else {
            continue;
        };
        let gain: i128 = delta
            .agents
            .iter()
            .map(|d| {
                alpha.cost_key(d.before.edges, d.before.dist)
                    - alpha.cost_key(d.after.edges, d.after.dist)
            })
            .sum();
        if best.as_ref().is_none_or(|(b, _)| gain > *b) {
            best = Some((gain, mv));
        }
    }
    Ok(best.map(|(_, mv)| mv))
}

/// Convergence statistics over many random starting trees.
#[derive(Debug, Clone)]
pub struct ConvergenceReport {
    /// Runs that reached an equilibrium.
    pub converged: usize,
    /// Total runs.
    pub runs: usize,
    /// Mean number of moves among converged runs.
    pub mean_steps: f64,
    /// Mean social cost ratio ρ of the reached equilibria.
    pub mean_rho: f64,
    /// Worst ρ among reached equilibria.
    pub max_rho: f64,
}

/// Runs `runs` dynamics from random trees on `n` nodes and aggregates
/// convergence and equilibrium quality.
///
/// # Errors
///
/// Forwards checker guard errors.
pub fn convergence_experiment<R: Rng + ?Sized>(
    n: usize,
    alpha: Alpha,
    concept: Concept,
    rule: SelectionRule,
    runs: usize,
    max_steps: usize,
    rng: &mut R,
) -> Result<ConvergenceReport, GameError> {
    let mut converged = 0usize;
    let mut steps_sum = 0usize;
    let mut rho_sum = 0.0f64;
    let mut rho_max = 0.0f64;
    for _ in 0..runs {
        let start = bncg_graph::generators::random_tree(n, rng);
        let t = run_with_rng(&start, alpha, concept, rule, max_steps, rng)?;
        if t.converged {
            converged += 1;
            steps_sum += t.len();
            let rho = bncg_core::social_cost_ratio(&t.final_graph, alpha)?.as_f64();
            rho_sum += rho;
            rho_max = rho_max.max(rho);
        }
    }
    Ok(ConvergenceReport {
        converged,
        runs,
        mean_steps: if converged > 0 {
            steps_sum as f64 / converged as f64
        } else {
            f64::NAN
        },
        mean_rho: if converged > 0 {
            rho_sum / converged as f64
        } else {
            f64::NAN
        },
        max_rho: rho_max,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bncg_core::CostModelSpec::SumDistances;
    use bncg_graph::generators;

    fn a(s: &str) -> Alpha {
        s.parse().unwrap()
    }

    #[test]
    fn dynamics_reach_stable_states() {
        let mut rng = bncg_graph::test_rng(31);
        for concept in [Concept::Ps, Concept::Bge] {
            for _ in 0..10 {
                let start = generators::random_tree(10, &mut rng);
                let t = run(&start, a("2"), concept, SelectionRule::First, 5_000).unwrap();
                assert!(t.converged, "dynamics must converge on small instances");
                assert!(concept.is_stable(&t.final_graph, a("2")).unwrap());
            }
        }
    }

    #[test]
    fn stable_start_is_a_fixpoint() {
        let star = generators::star(9);
        let t = run(&star, a("2"), Concept::Bge, SelectionRule::First, 100).unwrap();
        assert!(t.converged);
        assert!(t.is_empty());
        assert_eq!(t.final_graph, star);
        assert_eq!(t.cost_trace.len(), 1);
    }

    #[test]
    fn all_rules_reach_equilibria() {
        let mut rng = bncg_graph::test_rng(33);
        let start = generators::random_tree(9, &mut rng);
        for rule in [
            SelectionRule::First,
            SelectionRule::Random,
            SelectionRule::MostImproving,
        ] {
            let t = run_with_rng(&start, a("3/2"), Concept::Bge, rule, 5_000, &mut rng).unwrap();
            assert!(t.converged, "rule {rule:?} must converge");
            assert!(Concept::Bge.is_stable(&t.final_graph, a("3/2")).unwrap());
        }
    }

    /// Every single-edge move of `concept` on `g` that improves all its
    /// consenting agents: removals (edge order, both endpoints), then
    /// additions, then swaps (agent, dropped neighbor, new partner),
    /// written out here independently of the library's move iterator.
    fn brute_force_violations(g: &Graph, alpha: Alpha, concept: Concept) -> Vec<Move> {
        let n = g.n() as u32;
        let mut candidates = Vec::new();
        if matches!(concept, Concept::Re | Concept::Ps | Concept::Bge) {
            for (u, v) in g.edges() {
                candidates.push(Move::Remove {
                    agent: u,
                    target: v,
                });
                candidates.push(Move::Remove {
                    agent: v,
                    target: u,
                });
            }
        }
        if matches!(concept, Concept::Bae | Concept::Ps | Concept::Bge) {
            for u in 0..n {
                for v in u + 1..n {
                    if !g.has_edge(u, v) {
                        candidates.push(Move::BilateralAdd { u, v });
                    }
                }
            }
        }
        if matches!(concept, Concept::Bswe | Concept::Bge) {
            for agent in 0..n {
                for &old in g.neighbors(agent) {
                    for new in 0..n {
                        if new != agent && !g.has_edge(agent, new) {
                            candidates.push(Move::Swap { agent, old, new });
                        }
                    }
                }
            }
        }
        candidates.retain(|mv| bncg_core::delta::move_improves_all(g, alpha, mv).unwrap());
        candidates
    }

    #[test]
    fn enumerated_violations_are_exactly_the_improving_moves() {
        let mut rng = bncg_graph::test_rng(35);
        for _ in 0..10 {
            let g = generators::random_connected(7, 0.3, &mut rng);
            for alpha in ["1/2", "1", "3"].map(a) {
                let state = GameState::new(g.clone(), alpha);
                for concept in [
                    Concept::Re,
                    Concept::Bae,
                    Concept::Ps,
                    Concept::Bswe,
                    Concept::Bge,
                ] {
                    let all = enumerate_violations(&state, concept).unwrap();
                    assert_eq!(
                        all,
                        brute_force_violations(&g, alpha, concept),
                        "{concept} at α = {alpha} on {g:?}"
                    );
                    // The checker's witness is the first of them.
                    assert_eq!(
                        concept.find_violation_in(&state).unwrap().as_ref(),
                        all.first(),
                        "checker and enumerator disagree under {concept}"
                    );
                }
            }
        }
    }

    /// The spec of [`SelectionRule::MostImproving`]: the brute-force
    /// violations ranked by the consenting agents' total cost drop,
    /// priced from scratch; the first maximum wins.
    fn most_improving_spec(g: &Graph, alpha: Alpha, concept: Concept) -> Option<Move> {
        let key = |g: &Graph, u: u32| {
            let c = bncg_core::agent_cost(g, u);
            alpha.cost_key(c.edges, c.dist)
        };
        let mut best: Option<(i128, Move)> = None;
        for mv in brute_force_violations(g, alpha, concept) {
            let after = mv.apply(g).unwrap();
            let gain: i128 = mv
                .consenting_agents()
                .into_iter()
                .map(|u| key(g, u) - key(&after, u))
                .sum();
            if best.as_ref().is_none_or(|(b, _)| gain > *b) {
                best = Some((gain, mv));
            }
        }
        best.map(|(_, mv)| mv)
    }

    #[test]
    fn most_improving_steps_match_the_spec() {
        let mut rng = bncg_graph::test_rng(37);
        for n in [5usize, 7, 9] {
            let mut starts = Vec::new();
            for _ in 0..3 {
                starts.push(generators::random_tree(n, &mut rng));
                starts.push(generators::random_connected(n, 0.3, &mut rng));
            }
            let alphas = [a("1/2"), a("2"), Alpha::integer(n as i64).unwrap()];
            for (start, alpha) in starts.iter().flat_map(|g| alphas.map(|x| (g, x))) {
                for concept in [
                    Concept::Re,
                    Concept::Bae,
                    Concept::Ps,
                    Concept::Bswe,
                    Concept::Bge,
                ] {
                    let t = run(start, alpha, concept, SelectionRule::MostImproving, 100).unwrap();
                    let mut g = start.clone();
                    for (i, mv) in t.steps.iter().enumerate() {
                        assert_eq!(
                            Some(mv),
                            most_improving_spec(&g, alpha, concept).as_ref(),
                            "{concept} at α = {alpha}, step {i} on {g:?}"
                        );
                        g = mv.apply(&g).unwrap();
                    }
                    if t.converged {
                        assert_eq!(most_improving_spec(&g, alpha, concept), None);
                    }
                }
            }
        }
    }

    #[test]
    fn policy_runs_match_default_runs() {
        // The solver-routed policy path replays the exact trajectory of
        // the default run, threads notwithstanding (witness determinism).
        let start = generators::path(9);
        let t1 = run(&start, a("2"), Concept::Bge, SelectionRule::First, 5_000).unwrap();
        let policy = ExecPolicy::default().with_threads(2);
        let t2 = run_with_policy_under(
            &start,
            a("2"),
            SumDistances,
            Concept::Bge,
            SelectionRule::First,
            5_000,
            &policy,
        )
        .unwrap();
        assert_eq!(t1.steps, t2.steps);
        assert_eq!(t1.final_graph, t2.final_graph);
        assert!(t2.converged);
        assert!(!t2.exhausted);
    }

    #[test]
    fn exhausted_policy_stops_dynamics_gracefully() {
        // A zero deadline exhausts the first exponential check mid-scan
        // (the star's BNE space is large, so the scan cannot finish
        // before the first poll) instead of erroring.
        let policy = ExecPolicy::default().with_deadline(std::time::Duration::ZERO);
        let t = run_with_policy_under(
            &generators::star(16),
            a("2"),
            SumDistances,
            Concept::Bne,
            SelectionRule::First,
            100,
            &policy,
        )
        .unwrap();
        assert!(t.exhausted);
        assert!(!t.converged);
        assert!(t.is_empty());
    }

    #[test]
    fn exhausted_runs_carry_a_checkpoint_and_resume_identically() {
        // The PR 4 leftover, closed: an exhausted policy run no longer
        // discards the interrupted scan's frontier — it checkpoints, and
        // a chain of budgeted slices replays the exact trajectory the
        // uninterrupted run produces.
        let start = generators::path(9);
        let alpha = a("2");
        let full = run_with_policy_under(
            &start,
            alpha,
            SumDistances,
            Concept::Bne,
            SelectionRule::First,
            2_000,
            &ExecPolicy::default(),
        )
        .unwrap();
        assert!(full.converged);
        assert!(full.evals > 0, "exponential checks are metered");

        let tight = ExecPolicy::default().with_eval_budget(40);
        let mut t = run_with_policy_under(
            &start,
            alpha,
            SumDistances,
            Concept::Bne,
            SelectionRule::First,
            2_000,
            &tight,
        )
        .unwrap();
        let mut all_steps = t.steps.clone();
        let mut slices = 1u32;
        while let Some(ckpt) = t.checkpoint.take() {
            // Round-trip the token through JSON every slice.
            let parsed: DynamicsCheckpoint = ckpt.to_json().parse().unwrap();
            assert_eq!(parsed, ckpt);
            t = resume_with_policy_under(
                &t.final_graph,
                alpha,
                SumDistances,
                Concept::Bne,
                SelectionRule::First,
                2_000,
                &tight,
                &parsed,
            )
            .unwrap();
            all_steps.extend(t.steps.iter().cloned());
            slices += 1;
            assert!(slices < 100_000, "resume chain failed to terminate");
        }
        assert!(slices > 1, "a 40-eval budget must interrupt the P9 run");
        assert!(t.converged && !t.exhausted);
        assert_eq!(all_steps, full.steps);
        assert_eq!(t.final_graph.fingerprint(), full.final_graph.fingerprint());
        assert_eq!(t.evals, full.evals, "chains meter identical total work");
    }

    #[test]
    fn zero_deadline_resume_chain_still_terminates() {
        // Minimum-progress guarantee: each slice attempts one check
        // before honoring the already-passed deadline, and that scan
        // stops at its first poll with an advanced frontier.
        let policy = ExecPolicy::default().with_deadline(std::time::Duration::ZERO);
        let alpha = a("2");
        let mut t = run_with_policy_under(
            &generators::star(12),
            alpha,
            SumDistances,
            Concept::Bne,
            SelectionRule::First,
            100,
            &policy,
        )
        .unwrap();
        let mut slices = 1u32;
        while let Some(ckpt) = t.checkpoint.take() {
            t = resume_with_policy_under(
                &t.final_graph,
                alpha,
                SumDistances,
                Concept::Bne,
                SelectionRule::First,
                100,
                &policy,
                &ckpt,
            )
            .unwrap();
            slices += 1;
            assert!(slices < 100_000, "zero-deadline chain must advance");
        }
        assert!(t.converged, "the star is a BNE at α = 2");
    }

    #[test]
    fn mismatched_dynamics_checkpoints_are_rejected() {
        let tight = ExecPolicy::default().with_eval_budget(5);
        let t = run_with_policy_under(
            &generators::path(9),
            a("2"),
            SumDistances,
            Concept::Bne,
            SelectionRule::First,
            2_000,
            &tight,
        )
        .unwrap();
        let ckpt = t.checkpoint.expect("a 5-eval budget exhausts");
        // Wrong graph, wrong α, wrong concept: all rejected.
        for (g, alpha, concept, cap) in [
            (generators::star(9), a("2"), Concept::Bne, 2_000usize),
            (generators::path(9), a("3"), Concept::Bne, 2_000),
            (generators::path(9), a("2"), Concept::Bse, 2_000),
        ] {
            assert!(matches!(
                resume_with_policy_under(
                    &g,
                    alpha,
                    SumDistances,
                    concept,
                    SelectionRule::First,
                    cap,
                    &tight,
                    &ckpt
                ),
                Err(GameError::Unsupported { .. })
            ));
        }
        // Malformed and version-bumped tokens fail to parse.
        assert!("{\"v\":1}".parse::<DynamicsCheckpoint>().is_err());
        assert!("{\"v\":9,\"instance\":1,\"steps\":0,\"evals\":0}"
            .parse::<DynamicsCheckpoint>()
            .is_err());
    }

    #[test]
    fn forged_checkpoint_evals_saturate_instead_of_overflowing() {
        let tight = ExecPolicy::default().with_eval_budget(5);
        let alpha = a("2");
        let t = run_with_policy_under(
            &generators::path(10),
            alpha,
            SumDistances,
            Concept::Bne,
            SelectionRule::First,
            2_000,
            &tight,
        )
        .unwrap();
        let ckpt = t.checkpoint.expect("a 5-eval budget exhausts");
        // The checkpoint's own `evals` precedes the embedded scan token.
        let forged: DynamicsCheckpoint = ckpt
            .to_json()
            .replacen(
                &format!("\"evals\":{}", ckpt.evals()),
                &format!("\"evals\":{}", u64::MAX),
                1,
            )
            .parse()
            .unwrap();
        assert_eq!(forged.evals(), u64::MAX);
        // A nested scan placed first cannot hide the checkpoint's own
        // fields: it parses to the checkpoint the scan-last layout does.
        let json = ckpt.to_json();
        let at = json.find(",\"scan\":").expect("the stop fired mid-scan");
        let scan_first = format!("{{{},{}}}", &json[at + 1..json.len() - 1], &json[1..at]);
        assert_eq!(scan_first.parse::<DynamicsCheckpoint>().unwrap(), ckpt);
        let resumed = resume_with_policy_under(
            &t.final_graph,
            alpha,
            SumDistances,
            Concept::Bne,
            SelectionRule::First,
            2_000,
            &tight,
            &forged,
        )
        .unwrap();
        assert_eq!(resumed.evals, u64::MAX);
        if let Some(next) = resumed.checkpoint {
            assert_eq!(next.evals(), u64::MAX);
        }
    }

    #[test]
    fn trajectory_costs_are_recorded() {
        let t = run(
            &generators::path(8),
            a("1"),
            Concept::Ps,
            SelectionRule::First,
            1_000,
        )
        .unwrap();
        assert_eq!(t.cost_trace.len(), t.len() + 1);
        assert!(t.cost_trace.iter().all(Option::is_some));
    }

    #[test]
    fn convergence_experiment_aggregates() {
        let mut rng = bncg_graph::test_rng(37);
        let report = convergence_experiment(
            8,
            a("2"),
            Concept::Bge,
            SelectionRule::Random,
            12,
            5_000,
            &mut rng,
        )
        .unwrap();
        assert_eq!(report.runs, 12);
        assert!(report.converged > 0);
        assert!(report.max_rho >= 1.0 - 1e-12);
        assert!(report.mean_rho >= 1.0 - 1e-12);
    }

    #[test]
    fn bne_dynamics_run_on_small_instances() {
        let t = run(
            &generators::path(9),
            a("2"),
            Concept::Bne,
            SelectionRule::First,
            2_000,
        )
        .unwrap();
        assert!(t.converged);
        assert!(t.evals > 0, "run meters its exponential checks");
        assert!(Concept::Bne.is_stable(&t.final_graph, a("2")).unwrap());
    }
}
