//! # bncg — Bilateral Network Creation Games
//!
//! A full reproduction of *The Impact of Cooperation in Bilateral Network
//! Creation* (Friedrich, Gawendowicz, Lenzner, Zahn; PODC 2023) as a Rust
//! workspace. This facade crate re-exports the member crates:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`graph`] | `bncg-graph` | graph substrate: traversal, incremental distance matrices ([`graph::DistanceMatrix::apply_edge_toggle`]), rooted trees, generators, isomorphism, enumeration, graph6 |
//! | [`core`] | `bncg-core` | the game: exact costs, the incremental [`core::GameState`] evaluation engine, the eight solution concepts, unilateral NCG, theorem bounds |
//! | [`constructions`] | `bncg-constructions` | stretched trees, figure witnesses, conjecture/Venn searches |
//! | [`dynamics`] | `bncg-dynamics` | improving-move and round-robin dynamics running on one persistent engine state |
//! | [`atlas`] | `bncg-atlas` | the precomputed stability corpus: pluggable RAM/disk backings, the resumable canonical build walk, differential verification |
//! | [`serve`] | `bncg-serve` | the stability-checking daemon: line-JSON over TCP, time-slicing scheduler, per-tenant fair-share budget pools, atlas-backed `atlas_lookup` |
//! | [`analysis`] | `bncg-analysis` | the experiment harness regenerating every table and figure |
//!
//! # The solver surface
//!
//! All stability checking routes through [`core::solver`]: a
//! [`core::StabilityQuery`] (concept + instance) executed by a
//! [`core::Solver`] under an [`core::ExecPolicy`] — threads, evaluation
//! budget, deadline, cancel token — returns a structured
//! [`core::Verdict`]: stable, unstable with a replayable witness, or
//! *exhausted* with a serializable frontier that resumes the scan. The
//! engine underneath is [`core::GameState`]: cached all-pairs distances
//! and per-agent costs, exact per-move deltas
//! ([`core::GameState::evaluate_move`]), and per-toggle delta-BFS
//! application ([`core::GameState::apply_move`]). The `Concept`
//! shorthands ([`core::Concept::find_violation`],
//! [`core::Concept::is_stable_in`], …) are one sequential solver call
//! each, capped at [`core::CheckBudget::DEFAULT_MAX_EVALS`] evaluations.
//!
//! ```
//! use bncg::core::{Alpha, Concept, GameState, Move, Solver, StabilityQuery};
//! use bncg::graph::generators;
//!
//! let solver = Solver::default();
//! let mut state = GameState::new(generators::path(8), Alpha::integer(2)?);
//! // Drive the state to a pairwise-stable network, reusing every cache.
//! while let Some(mv) = solver
//!     .check(&StabilityQuery::on(Concept::Ps, &state))?
//!     .witness()
//!     .cloned()
//! {
//!     state.apply_move(&mv)?;
//! }
//! assert!(Concept::Ps.is_stable_in(&state)?);
//! # Ok::<(), bncg::core::GameError>(())
//! ```
//!
//! # Quickstart
//!
//! ```
//! use bncg::core::{Alpha, Concept, Game};
//! use bncg::graph::generators;
//!
//! let game = Game::new(generators::star(20), Alpha::integer(5)?);
//! assert!(game.is_stable(Concept::Ps)?);              // pairwise stable
//! assert_eq!(game.social_cost_ratio()?.as_f64(), 1.0); // and socially optimal
//! # Ok::<(), bncg::core::GameError>(())
//! ```
//!
//! See `examples/` for runnable scenarios and the `experiments` binary
//! (`cargo run --release -p bncg-analysis --bin experiments -- all`) for
//! the paper's tables and figures.

#![warn(missing_docs)]

pub use bncg_analysis as analysis;
pub use bncg_atlas as atlas;
pub use bncg_constructions as constructions;
pub use bncg_core as core;
pub use bncg_dynamics as dynamics;
pub use bncg_graph as graph;
pub use bncg_serve as serve;
