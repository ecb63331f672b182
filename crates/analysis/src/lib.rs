//! # bncg-analysis
//!
//! The experiment harness: regenerates **every table and figure** of
//! *The Impact of Cooperation in Bilateral Network Creation* as measured,
//! machine-checked artifacts.
//!
//! * [`empirical`] — exhaustive Price-of-Anarchy over all small trees /
//!   connected graphs per solution concept;
//! * [`table1`] — one runner per row of the paper's Table 1;
//! * [`figures`] — runners for Figures 1a, 1b, 2–8;
//! * [`propositions`] — Lemma 2.4, Propositions 3.16 and 3.22;
//! * [`dynamics_exp`] — the cooperation-ladder simulation;
//! * [`report`] — the plain-text table builder all runners write into.
//!
//! The `experiments` binary exposes each runner as a subcommand; its
//! `all` mode produces the full reproduction report recorded in
//! `EXPERIMENTS.md`.
//!
//! # Examples
//!
//! ```
//! use bncg_analysis::{empirical, report::Report};
//! use bncg_core::{Alpha, Concept};
//!
//! // Worst pairwise-stable tree on 7 nodes at α = 4.
//! let point = empirical::tree_poa(7, Alpha::integer(4)?, Concept::Ps)?;
//! assert!(point.max_rho.unwrap() >= 1.0);
//! # Ok::<(), bncg_core::GameError>(())
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod ablations;
pub mod dynamics_exp;
pub mod empirical;
pub mod exact_curve;
pub mod figures;
pub mod propositions;
pub mod report;
pub mod structure;
pub mod table1;
pub mod windows_exp;

use bncg_atlas::DynAtlas;
use bncg_core::solver::ExecPolicy;
use bncg_core::{CostModelSpec, GameError};
use report::Report;

/// Runs the complete experiment suite into one report (the artifact behind
/// `EXPERIMENTS.md`). The [`ExecPolicy`] governs every solver-routed
/// stability sweep (thread count per enumeration batch), and an optional
/// precomputed stability atlas answers the Table 1 enumeration sweeps'
/// stored instances at zero solver cost.
///
/// # Errors
///
/// Forwards the first failing runner's error.
pub fn run_all(
    quick: bool,
    policy: &ExecPolicy,
    atlas: Option<&DynAtlas>,
) -> Result<Report, GameError> {
    let mut r = table1::full_table(quick, policy, atlas, CostModelSpec::SumDistances)?;
    figures::fig1a(&mut r, quick)?;
    figures::fig1b(&mut r, quick)?;
    figures::fig2(&mut r, quick)?;
    figures::fig3(&mut r, quick)?;
    figures::fig4(&mut r, quick)?;
    figures::fig5(&mut r, quick)?;
    figures::fig6(&mut r, quick)?;
    figures::fig7(&mut r, quick)?;
    figures::fig8(&mut r, quick)?;
    propositions::cycles_bse(&mut r, quick)?;
    propositions::prop_3_16(&mut r, quick)?;
    propositions::prop_3_22(&mut r, quick)?;
    dynamics_exp::ladder(&mut r, quick)?;
    dynamics_exp::round_robin_census(&mut r, quick, policy)?;
    dynamics_exp::trees_vs_graphs(&mut r, quick)?;
    structure::bswe_depth(&mut r, quick)?;
    windows_exp::named_windows(&mut r, quick)?;
    exact_curve::curve_report(&mut r, quick)?;
    ablations::delta_engines(&mut r, quick)?;
    ablations::kbse_restriction(&mut r, quick)?;
    ablations::parallel_scan(&mut r, quick)?;
    ablations::incremental_engine(&mut r, quick)?;
    ablations::pruning(&mut r, quick)?;
    ablations::generator(&mut r, quick)?;
    ablations::trajectory_pruning(&mut r, quick)?;
    ablations::cost_models(&mut r, quick)?;
    Ok(r)
}
