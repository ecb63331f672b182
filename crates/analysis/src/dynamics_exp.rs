//! Simulation support for the paper's narrative: improving-move dynamics
//! from random trees, measuring how the quality of the *reached*
//! equilibria changes as the allowed cooperation grows. This is the
//! empirical cooperation ladder behind Table 1.

use crate::report::{fnum, Report};
use bncg_core::solver::ExecPolicy;
use bncg_core::{Alpha, Concept, CostModelSpec, GameError};
use bncg_dynamics::{convergence_experiment, SelectionRule};

/// Runs the cooperation-ladder dynamics experiment.
///
/// # Errors
///
/// Forwards checker guards.
pub fn ladder(report: &mut Report, quick: bool) -> Result<(), GameError> {
    let (n, runs) = if quick { (10usize, 10usize) } else { (14, 30) };
    let alphas: Vec<Alpha> = ["3/2", "3", "8"]
        .iter()
        .map(|s| s.parse().expect("grid α"))
        .collect();
    let concepts = [Concept::Ps, Concept::Bge, Concept::Bne];
    let section = report.section(format!(
        "Dynamics: cooperation ladder (random trees, n = {n}, {runs} runs each)"
    ));
    section.note(
        "random improving moves until the concept's checker is satisfied; ρ of reached equilibria",
    );
    let table = section.table(["concept", "α", "converged", "mean steps", "mean ρ", "max ρ"]);
    let mut rng = bncg_graph::test_rng(0xD15C0);
    for concept in concepts {
        // BNE checking is exponential; keep its instances smaller.
        let n_c = if concept == Concept::Bne {
            n.min(12)
        } else {
            n
        };
        for &alpha in &alphas {
            let rule = if concept == Concept::Bne {
                SelectionRule::First
            } else {
                SelectionRule::Random
            };
            let rep = convergence_experiment(n_c, alpha, concept, rule, runs, 20_000, &mut rng)?;
            table.row([
                concept.to_string(),
                alpha.to_string(),
                format!("{}/{}", rep.converged, rep.runs),
                fnum(rep.mean_steps),
                fnum(rep.mean_rho),
                fnum(rep.max_rho),
            ]);
        }
    }
    Ok(())
}

/// Round-robin best-response dynamics: convergence vs. cycling incidence.
///
/// Improving dynamics in network creation games are not potential games in
/// general (Kawald–Lenzner show unilateral cycling); this experiment
/// measures how often round-robin *bilateral* best responses converge,
/// cycle (exact state revisit), or time out, from random trees and random
/// connected graphs. Each run executes under the caller's [`ExecPolicy`]
/// (a run-level eval pool drained by metered activations, deadline and
/// cancel per run), so a bounded policy reports exhausted runs — with
/// their partial trajectories intact — instead of hanging the census.
///
/// # Errors
///
/// Forwards checker guards.
pub fn round_robin_census(
    report: &mut Report,
    quick: bool,
    policy: &ExecPolicy,
) -> Result<(), GameError> {
    let (n, runs) = if quick { (9usize, 12usize) } else { (11, 40) };
    let alphas: Vec<Alpha> = ["3/2", "3", "8"]
        .iter()
        .map(|s| s.parse().expect("grid α"))
        .collect();
    let section = report.section(format!(
        "Dynamics: round-robin best responses (n = {n}, {runs} starts per cell)"
    ));
    section.note("each agent in turn plays its best feasible neighborhood move; silent round = certified BNE");
    let table = section.table([
        "start family",
        "α",
        "converged",
        "cycled",
        "capped",
        "exhausted",
        "mean moves",
    ]);
    let mut rng = bncg_graph::test_rng(0xC1C1E);
    for family in ["random trees", "random graphs"] {
        for &alpha in &alphas {
            let mut converged = 0usize;
            let mut cycled = 0usize;
            let mut capped = 0usize;
            let mut exhausted = 0usize;
            let mut moves = 0usize;
            for _ in 0..runs {
                let start = if family == "random trees" {
                    bncg_graph::generators::random_tree(n, &mut rng)
                } else {
                    bncg_graph::generators::random_connected(n, 0.2, &mut rng)
                };
                let out = bncg_dynamics::round_robin::run_with_policy_under(
                    &start,
                    alpha,
                    CostModelSpec::SumDistances,
                    400,
                    policy,
                )?;
                moves += out.moves;
                if out.converged {
                    converged += 1;
                } else if out.cycled {
                    cycled += 1;
                } else if out.exhausted {
                    exhausted += 1;
                } else {
                    capped += 1;
                }
            }
            table.row([
                family.to_string(),
                alpha.to_string(),
                format!("{converged}/{runs}"),
                cycled.to_string(),
                capped.to_string(),
                exhausted.to_string(),
                crate::report::fnum(moves as f64 / runs as f64),
            ]);
        }
    }
    Ok(())
}

/// Tree equilibria vs. general-graph equilibria at tiny n: the paper
/// restricts Table 1's upper section to trees — this experiment measures
/// how much worse general connected-graph equilibria are at exhaustive
/// scale.
///
/// # Errors
///
/// Forwards enumeration/checker guards.
pub fn trees_vs_graphs(report: &mut Report, quick: bool) -> Result<(), GameError> {
    let n = if quick { 5 } else { 6 };
    let alphas: Vec<Alpha> = ["1", "2", "4", "8"]
        .iter()
        .map(|s| s.parse().expect("grid α"))
        .collect();
    let section = report.section(format!(
        "Trees vs general graphs: exhaustive PoA at n = {n} (PS and BGE)"
    ));
    section.note("the paper's tree restriction is conservative: general-graph equilibria include cycles (Lemma 2.4) whose ρ exceeds the tree worst case at matching α");
    let table = section.table(["α", "PS trees", "PS graphs", "BGE trees", "BGE graphs"]);
    for &alpha in &alphas {
        let pt = crate::empirical::tree_poa(n, alpha, Concept::Ps)?;
        let pg = crate::empirical::graph_poa(n, alpha, Concept::Ps)?;
        let bt = crate::empirical::tree_poa(n, alpha, Concept::Bge)?;
        let bg = crate::empirical::graph_poa(n, alpha, Concept::Bge)?;
        let cell = |p: &crate::empirical::PoaPoint| {
            p.max_rho.map(crate::report::fnum).unwrap_or("–".into())
        };
        // Trees are a subset of connected graphs: graph PoA dominates.
        if let (Some(t), Some(g)) = (pt.max_rho, pg.max_rho) {
            assert!(g >= t - 1e-12);
        }
        table.row([
            alpha.to_string(),
            cell(&pt),
            cell(&pg),
            cell(&bt),
            cell(&bg),
        ]);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_runs_quick() {
        let mut r = Report::new();
        ladder(&mut r, true).unwrap();
        let text = r.render();
        assert!(text.contains("cooperation ladder"));
        assert!(text.contains("BGE"));
    }

    #[test]
    fn round_robin_census_runs_quick() {
        let mut r = Report::new();
        round_robin_census(&mut r, true, &ExecPolicy::default()).unwrap();
        assert!(r.render().contains("round-robin"));
    }

    #[test]
    fn trees_vs_graphs_runs_quick() {
        let mut r = Report::new();
        trees_vs_graphs(&mut r, true).unwrap();
        assert!(r.render().contains("general graphs"));
    }
}
