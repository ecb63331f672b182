//! # bncg-core
//!
//! The primary contribution of *The Impact of Cooperation in Bilateral
//! Network Creation* (Friedrich, Gawendowicz, Lenzner, Zahn; PODC 2023),
//! as an executable model:
//!
//! * the **Bilateral Network Creation Game**: agents are nodes, an edge
//!   needs consent and `α` from both endpoints, and
//!   `cost(u) = α·|S_u| + Σ_v dist(u, v)` with a lexicographic
//!   disconnection penalty ([`agent_cost`], [`Alpha`], [`Game`]);
//! * the incremental **`GameState` evaluation engine** every checker and
//!   dynamics loop routes through: cached distance matrix and agent costs,
//!   exact per-move deltas without full recomputation ([`GameState`]);
//! * the full ladder of **solution concepts** ordered by cooperation —
//!   RE, BAE, PS, BSwE, BGE, BNE, k-BSE, BSE — each with a
//!   witness-producing checker ([`concepts`], [`Concept`]);
//! * the **candidate-pruning layer** the exponential checkers and
//!   [`best_response()`] route through: sound cost-threshold and locality
//!   filters plus canonical-fingerprint dedup that skip provably
//!   non-improving moves without pricing them ([`candidates`]);
//! * the **branch-and-bound candidate generator** those scans are
//!   built on: candidates are generated by branching on one mask bit at
//!   a time, with the pruning inequalities lifted to subtree bounds
//!   that skip whole mask ranges in `O(1)` — what makes exact BNE
//!   checking evaluation-bound up to the structural `n ≤ 64` limit
//!   instead of enumeration-bound at `n ≤ 21`;
//! * the **unilateral NCG** comparison layer with edge assignments
//!   ([`unilateral`]), used to disprove the Corbo–Parkes conjecture;
//! * the unified **[`solver`] query surface** every stability check
//!   routes through: a [`StabilityQuery`] executed under an
//!   [`ExecPolicy`] (threads, evaluation budget, deadline, cancel
//!   token, shared batch pool) returns a structured [`Verdict`] —
//!   stable, unstable with a witness, or *exhausted* with a
//!   serializable resume [`Frontier`]. Best responses speak the same
//!   policy dialect: [`best_response_with_policy`] meters the scan
//!   anytime-style and [`best_response_resume`] continues a
//!   [`BestResponseFrontier`] to the identical argmin;
//! * the paper's **bounds** as executable closed forms and exact lemma
//!   predicates ([`bounds`]).
//!
//! # Examples
//!
//! One query surface for the whole cooperation ladder — budgeted,
//! anytime, resumable:
//!
//! ```
//! use bncg_core::solver::{ExecPolicy, Solver, StabilityQuery, Verdict};
//! use bncg_core::{delta, Alpha, Concept};
//! use bncg_graph::generators;
//!
//! let path = generators::path(6);
//! let alpha = Alpha::integer(2)?;
//! let solver = Solver::new(ExecPolicy::default().with_threads(2));
//!
//! // Trees are always in Remove Equilibrium …
//! let q = StabilityQuery::new(Concept::Re, &path, alpha);
//! assert!(matches!(solver.check(&q)?, Verdict::Stable { .. }));
//!
//! // … but the path's ends profit from a joint edge: not pairwise
//! // stable, and the verdict carries a replayable witness move.
//! let q = StabilityQuery::new(Concept::Ps, &path, alpha);
//! let Verdict::Unstable { witness, .. } = solver.check(&q)? else {
//!     panic!("the path is not pairwise stable")
//! };
//! assert!(delta::move_improves_all(&path, alpha, &witness)?);
//!
//! // Exponential concepts degrade gracefully instead of erroring: a
//! // deadline (or eval budget) turns into an `Exhausted` verdict whose
//! // frontier resumes the scan exactly where it stopped.
//! let star = generators::star(16);
//! let tight = Solver::new(ExecPolicy::default().with_deadline(std::time::Duration::ZERO));
//! let Verdict::Exhausted { frontier, .. } =
//!     tight.check(&StabilityQuery::new(Concept::Bne, &star, alpha))?
//! else {
//!     panic!("a zero deadline must exhaust the BNE scan")
//! };
//! let resumed = StabilityQuery::new(Concept::Bne, &star, alpha).resume(frontier);
//! assert!(matches!(solver.check(&resumed)?, Verdict::Stable { .. }));
//! # Ok::<(), bncg_core::GameError>(())
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

mod alpha;
mod best_response;
mod combinatorics;
mod cost;
mod error;
mod game;
mod generator;
mod moves;
mod pool;
mod scan;
mod state;

pub mod bounds;
pub mod candidates;
pub mod concepts;
pub mod cost_model;
pub mod delta;
pub mod jsonio;
pub mod solver;
pub mod unilateral;
pub mod windows;

pub use alpha::Alpha;
pub use best_response::{
    best_response, best_response_resume, best_response_with_policy, check_enumeration_budget,
    BestResponse, BestResponseFrontier, BestResponseVerdict,
};
pub use candidates::CandidateStats;
pub use concepts::{CheckBudget, Concept};
pub use cost::{
    agent_cost, agent_cost_from_matrix, optimum_cost, social_cost, social_cost_ratio, AgentCost,
    Ratio,
};
pub use cost_model::{CostModel, CostModelSpec, Utility};
pub use error::GameError;
pub use game::Game;
pub use moves::{AppliedMove, Move};
pub use pool::BudgetPool;
pub use solver::{ExecPolicy, Frontier, Progress, Solver, StabilityQuery, Verdict};
pub use state::{AgentDelta, GameState, MoveDelta, MoveEvaluator};
