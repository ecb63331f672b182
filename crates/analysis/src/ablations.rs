//! Ablation experiments for the reproduction's own design choices
//! (DESIGN.md §2): the tree-specialized delta engines versus the generic
//! apply-and-BFS engine, and the restricted coalition refuter versus the
//! exact k-BSE checker. Each ablation reports both *agreement* (the
//! correctness claim, asserted) and *work saved* (the reason the design
//! exists).

use crate::report::{fnum, Report};
use bncg_core::concepts::single_edge;
use bncg_core::solver::{Solver, StabilityQuery};
use bncg_core::{
    agent_cost, agent_cost_from_matrix, concepts, delta, Alpha, CandidateStats, Concept,
    CostModelSpec, GameError, GameState, Move,
};
use bncg_graph::{generators, DistanceMatrix};
use std::time::Instant;

/// One unbounded sequential solver check: the witness and this run's
/// candidate counters.
fn solve(concept: Concept, state: &GameState) -> Result<(Option<Move>, CandidateStats), GameError> {
    let verdict = Solver::default().check(&StabilityQuery::on(concept, state))?;
    Ok((verdict.witness().cloned(), *verdict.stats()))
}

/// Ablation 1: fast distance-matrix add/swap evaluation vs. the generic
/// engine — exact agreement on every candidate, with measured speedup.
///
/// # Errors
///
/// Forwards move-application errors (none expected).
pub fn delta_engines(report: &mut Report, quick: bool) -> Result<(), GameError> {
    let ns: Vec<usize> = if quick {
        vec![60, 120]
    } else {
        vec![60, 120, 240]
    };
    let section = report.section("Ablation: fast delta engines vs generic apply+BFS");
    section.note("every candidate move evaluated by both engines; agreement asserted; time per full BAE+BSwE scan");
    let table = section.table([
        "n",
        "candidates",
        "fast scan (ms)",
        "generic scan (ms)",
        "speedup",
    ]);
    let alpha = Alpha::integer(50).expect("α");
    for n in ns {
        let mut rng = bncg_graph::test_rng(n as u64);
        let tree = generators::random_tree(n, &mut rng);
        let d = DistanceMatrix::new(&tree);
        let old: Vec<_> = (0..n as u32).map(|u| agent_cost(&tree, u)).collect();

        // The BAE and BSwE candidate spaces, collected once; an addition
        // prices both endpoints.
        let moves: Vec<Move> = [Concept::Bae, Concept::Bswe]
            .into_iter()
            .flat_map(|c| single_edge::moves(&tree, c))
            .collect();
        let candidates = moves.len() + tree.non_edges().count();

        // Fast engine pass.
        let t0 = Instant::now();
        let mut fast_improving = 0usize;
        for mv in &moves {
            let improving = match *mv {
                Move::BilateralAdd { u, v } => {
                    delta::cost_after_add(&tree, &d, u, v).better_than(&old[u as usize], alpha)
                        && delta::cost_after_add(&tree, &d, v, u)
                            .better_than(&old[v as usize], alpha)
                }
                Move::Swap { agent, old: o, new } => {
                    delta::tree_swap_costs(&tree, &d, agent, o, new).is_some_and(|(ca, cn)| {
                        ca.better_than(&old[agent as usize], alpha)
                            && cn.better_than(&old[new as usize], alpha)
                    })
                }
                _ => unreachable!("BAE and BSwE candidates are additions and swaps"),
            };
            fast_improving += usize::from(improving);
        }
        let fast_ms = t0.elapsed().as_secs_f64() * 1e3;

        // Generic engine pass.
        let t1 = Instant::now();
        let mut generic_improving = 0usize;
        for mv in &moves {
            if delta::move_improves_all_cached(&tree, alpha, mv, &old)? {
                generic_improving += 1;
            }
        }
        let generic_ms = t1.elapsed().as_secs_f64() * 1e3;

        assert_eq!(
            fast_improving, generic_improving,
            "delta engines disagree at n = {n}"
        );
        table.row([
            n.to_string(),
            candidates.to_string(),
            fnum(fast_ms),
            fnum(generic_ms),
            fnum(generic_ms / fast_ms.max(1e-9)),
        ]);
    }
    Ok(())
}

/// Ablation 2: restricted k-BSE refuter (≤ r removals) vs. the exact
/// checker — verdict agreement rate on an exhaustive corpus, per removal
/// budget.
///
/// # Errors
///
/// Forwards enumeration/checker guards.
pub fn kbse_restriction(report: &mut Report, quick: bool) -> Result<(), GameError> {
    let n = if quick { 6 } else { 7 };
    let corpus = if n <= 6 {
        bncg_graph::enumerate::connected_graphs(n).map_err(GameError::Graph)?
    } else {
        bncg_graph::enumerate::free_trees(n).map_err(GameError::Graph)?
    };
    let alphas: Vec<Alpha> = ["1", "2", "4", "8"]
        .iter()
        .map(|s| s.parse().expect("α"))
        .collect();
    let section = report.section(format!(
        "Ablation: restricted k-BSE refuter vs exact checker (corpus n = {n}, k = 3)"
    ));
    section.note("agreement = identical stable/unstable verdict; the restricted refuter may only miss violations");
    let table = section.table([
        "removal budget",
        "agreements",
        "missed violations",
        "agreement rate",
    ]);
    for max_removals in [0usize, 1, 2, 3] {
        let mut agree = 0usize;
        let mut missed = 0usize;
        let mut total = 0usize;
        for g in &corpus {
            for &alpha in &alphas {
                total += 1;
                let exact_unstable = Concept::KBse(3).find_violation(g, alpha)?.is_some();
                let restricted_unstable =
                    concepts::kbse::find_violation_restricted(g, alpha, 3, max_removals, 1)?
                        .is_some();
                // Soundness: the refuter never invents violations.
                assert!(
                    !restricted_unstable || exact_unstable,
                    "restricted refuter produced a false violation"
                );
                if exact_unstable == restricted_unstable {
                    agree += 1;
                } else {
                    missed += 1;
                }
            }
        }
        table.row([
            max_removals.to_string(),
            format!("{agree}/{total}"),
            missed.to_string(),
            fnum(agree as f64 / total as f64),
        ]);
    }
    Ok(())
}

/// Ablation 3: serial vs. parallel restricted coalition scan on the
/// Figure 7 family (the largest coalition workload in the reproduction).
///
/// # Errors
///
/// Forwards the refuter's coalition-unit limit (not reached here).
pub fn parallel_scan(report: &mut Report, quick: bool) -> Result<(), GameError> {
    let rows = if quick {
        vec![8usize, 12]
    } else {
        vec![8, 12, 16]
    };
    let section =
        report.section("Ablation: serial vs parallel restricted 2-BSE scan (Figure 7 family)");
    section.note(
        "identical stable verdicts asserted; wall time for the full coalition scan (≤ 2 removals)",
    );
    let table = section.table(["i", "n", "serial (ms)", "parallel ×4 (ms)", "speedup"]);
    for i in rows {
        let fig = bncg_constructions::figures::figure7(i);
        let t0 = Instant::now();
        let serial = concepts::kbse::find_violation_restricted(&fig.graph, fig.alpha, 2, 2, 1)?;
        let serial_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t1 = Instant::now();
        let parallel = concepts::kbse::find_violation_restricted(&fig.graph, fig.alpha, 2, 2, 4)?;
        let parallel_ms = t1.elapsed().as_secs_f64() * 1e3;
        assert_eq!(
            serial.is_some(),
            parallel.is_some(),
            "parallel scan verdict must match"
        );
        table.row([
            i.to_string(),
            fig.graph.n().to_string(),
            fnum(serial_ms),
            fnum(parallel_ms),
            fnum(serial_ms / parallel_ms.max(1e-9)),
        ]);
    }
    Ok(())
}

/// Ablation 4: the incremental `GameState` engine vs. the scratch path
/// that rebuilds a full distance matrix per candidate — exact agreement on
/// every candidate move, with measured speedup, plus the engine's parallel
/// batch evaluator.
///
/// # Errors
///
/// Forwards move-evaluation errors (none expected).
pub fn incremental_engine(report: &mut Report, quick: bool) -> Result<(), GameError> {
    let ns: Vec<usize> = if quick {
        vec![12, 16]
    } else {
        vec![12, 16, 24]
    };
    let section = report.section("Ablation: incremental GameState engine vs scratch recomputation");
    section.note("every single-edge candidate priced by both paths; agreement asserted; engine also shown with the parallel batch evaluator");
    let table = section.table([
        "n",
        "candidates",
        "engine (ms)",
        "engine ×4 threads (ms)",
        "scratch (ms)",
        "speedup",
    ]);
    let alpha = Alpha::integer(3).expect("α");
    for n in ns {
        let mut rng = bncg_graph::test_rng(0xEC0 + n as u64);
        let g = generators::random_connected(n, 0.2, &mut rng);
        let moves: Vec<Move> = g
            .non_edges()
            .map(|(u, v)| Move::BilateralAdd { u, v })
            .chain(g.edges().map(|(u, v)| Move::Remove {
                agent: u,
                target: v,
            }))
            .collect();
        let state = GameState::new(g.clone(), alpha);

        // Engine pass: cached matrix + consenting-agent evaluation.
        let t0 = Instant::now();
        let mut ev = state.evaluator();
        let engine_improving = moves
            .iter()
            .filter(|mv| ev.improves_all(mv).expect("valid candidate").is_some())
            .count();
        let engine_ms = t0.elapsed().as_secs_f64() * 1e3;

        // Engine pass, batched over 4 worker threads.
        let t1 = Instant::now();
        let parallel_improving = state
            .evaluate_moves_parallel(&moves, 4)?
            .iter()
            .filter(|d| d.improving_all)
            .count();
        let parallel_ms = t1.elapsed().as_secs_f64() * 1e3;

        // Scratch pass: full matrix rebuild per candidate.
        let t2 = Instant::now();
        let mut scratch_improving = 0usize;
        for mv in &moves {
            let g2 = mv.apply(&g)?;
            let d = DistanceMatrix::new(&g2);
            if mv
                .consenting_agents()
                .iter()
                .all(|&a| agent_cost_from_matrix(&g2, &d, a).better_than(&state.cost(a), alpha))
            {
                scratch_improving += 1;
            }
        }
        let scratch_ms = t2.elapsed().as_secs_f64() * 1e3;

        assert_eq!(
            engine_improving, scratch_improving,
            "engines disagree at n = {n}"
        );
        assert_eq!(
            engine_improving, parallel_improving,
            "parallel batch disagrees at n = {n}"
        );
        table.row([
            n.to_string(),
            moves.len().to_string(),
            fnum(engine_ms),
            fnum(parallel_ms),
            fnum(scratch_ms),
            fnum(scratch_ms / engine_ms.max(1e-9)),
        ]);
    }
    Ok(())
}

/// Ablation 5: the candidate-space pruning layer vs. the raw engine-era
/// scans — verdict agreement asserted on every instance, with the skipped
/// fraction of the raw candidate space and the wall-clock effect per
/// exponential checker (the PR 2 pruning-stats section).
///
/// # Errors
///
/// Forwards checker guards (none expected at these sizes).
pub fn pruning(report: &mut Report, quick: bool) -> Result<(), GameError> {
    use bncg_core::CheckBudget;
    let n = if quick { 10 } else { 12 };
    let section = report.section("Ablation: candidate-space pruning vs raw enumeration");
    section.note("pruned checkers must return the raw scans' verdict; skipped = (pruned + deduplicated) / raw candidates; reference = the engine path without the candidates layer");
    let table = section.table([
        "instance",
        "concept",
        "stable",
        "raw candidates",
        "skipped",
        "pruned (ms)",
        "reference (ms)",
        "speedup",
    ]);
    let mut rng = bncg_graph::test_rng(0xAB1A);
    let instances: Vec<(String, bncg_graph::Graph, Alpha)> = vec![
        (
            format!("star{n}"),
            generators::star(n),
            Alpha::integer(2).expect("α"),
        ),
        (
            format!("cycle{n} (BSE window)"),
            generators::cycle(n),
            // Inside Lemma 2.4's window: n(n−2)/4 for even n.
            Alpha::from_ratio((n * (n - 2) / 4) as i64, 1).expect("α"),
        ),
        (
            format!("gnp{n}"),
            generators::random_connected(n, 0.3, &mut rng),
            Alpha::integer(1).expect("α"),
        ),
    ];
    let budget = CheckBudget::new(4_000_000_000);
    for (name, g, alpha) in instances {
        let state = GameState::new(g.clone(), alpha);
        // BNE row.
        let t0 = Instant::now();
        let (pruned, stats) = solve(Concept::Bne, &state)?;
        let pruned_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t1 = Instant::now();
        let reference = concepts::bne::find_violation_in_reference(&state, budget)?;
        let reference_ms = t1.elapsed().as_secs_f64() * 1e3;
        assert_eq!(pruned, reference, "BNE pruning changed the witness");
        table.row([
            name.clone(),
            "BNE".into(),
            pruned.is_none().to_string(),
            stats.generated.to_string(),
            format!("{:.1}%", 100.0 * stats.skipped_fraction()),
            fnum(pruned_ms),
            fnum(reference_ms),
            fnum(reference_ms / pruned_ms.max(1e-9)),
        ]);
        // k-BSE row (k = 2 keeps the raw reference tractable here).
        let t2 = Instant::now();
        let (kp, kstats) = solve(Concept::KBse(2), &state)?;
        let kp_ms = t2.elapsed().as_secs_f64() * 1e3;
        let t3 = Instant::now();
        let kr = concepts::kbse::find_violation_in_reference(&state, 2, budget)?;
        let kr_ms = t3.elapsed().as_secs_f64() * 1e3;
        assert_eq!(
            kp.is_some(),
            kr.is_some(),
            "2-BSE pruning changed the verdict"
        );
        table.row([
            name,
            "2-BSE".into(),
            kp.is_none().to_string(),
            kstats.generated.to_string(),
            format!("{:.1}%", 100.0 * kstats.skipped_fraction()),
            fnum(kp_ms),
            fnum(kr_ms),
            fnum(kr_ms / kp_ms.max(1e-9)),
        ]);
    }
    Ok(())
}

/// Ablation 6: the branch-and-bound candidate generator vs. the same
/// scan with its subtree kills disabled (the dense leg, which visits
/// every leaf) — witness agreement asserted, with the fraction of the
/// raw mask space the generator actually touched (`visited`) and the
/// wall-clock effect of the kills. The last row runs a size the dense
/// leg cannot reasonably iterate (the enumeration-bound regime the
/// kills remove); its dense column is measured only when cheap.
///
/// # Errors
///
/// Forwards checker guards (none expected at these sizes).
pub fn generator(report: &mut Report, quick: bool) -> Result<(), GameError> {
    use bncg_core::CheckBudget;
    let n = if quick { 10 } else { 12 };
    let section =
        report.section("Ablation: branch-and-bound generator vs the same scan without kills");
    section.note(
        "dense = the same scan with its subtree kills disabled; the generated scan must \
         return its witness and price the identical candidates; visited = generator steps \
         (leaves emitted + subtrees skipped) / raw masks",
    );
    let table = section.table([
        "instance",
        "raw candidates",
        "evaluated",
        "visited",
        "generated (ms)",
        "dense (ms)",
        "speedup",
    ]);
    let mut rng = bncg_graph::test_rng(0xAB1B);
    let big = if quick { 24 } else { 34 };
    let instances: Vec<(String, bncg_graph::Graph, Alpha, bool)> = vec![
        (
            format!("star{n}"),
            generators::star(n),
            Alpha::integer(2).expect("α"),
            true,
        ),
        (
            format!("gnp{n}"),
            generators::random_connected(n, 0.3, &mut rng),
            Alpha::integer(1).expect("α"),
            true,
        ),
        (
            // The enumeration-bound regime: a star hub owns 2^{n−1}
            // pure-removal masks the dense leg iterates one by one and
            // the generator kills in one probe.
            format!("star{big}"),
            generators::star(big),
            Alpha::integer(2).expect("α"),
            quick,
        ),
    ];
    let budget = CheckBudget::new(u64::MAX);
    for (name, g, alpha, run_dense) in instances {
        let state = GameState::new(g.clone(), alpha);
        let t0 = Instant::now();
        let (generated, stats) = solve(Concept::Bne, &state)?;
        let generated_ms = t0.elapsed().as_secs_f64() * 1e3;
        let (dense_cell, speedup_cell) = if run_dense {
            let t1 = Instant::now();
            let (dense, dstats) = concepts::bne::find_violation_in_dense(&state, budget)?;
            let dense_ms = t1.elapsed().as_secs_f64() * 1e3;
            assert_eq!(generated, dense, "generator changed the BNE witness");
            assert_eq!(
                stats.evaluated, dstats.evaluated,
                "generator priced different candidates than the dense leg"
            );
            (fnum(dense_ms), fnum(dense_ms / generated_ms.max(1e-9)))
        } else {
            ("not run".into(), "—".into())
        };
        table.row([
            name,
            stats.generated.to_string(),
            stats.evaluated.to_string(),
            format!(
                "{} ({:.4}%)",
                stats.visited,
                100.0 * stats.visited as f64 / stats.generated.max(1) as f64
            ),
            fnum(generated_ms),
            dense_cell,
            speedup_cell,
        ]);
    }
    Ok(())
}

/// Ablation 7: pruning work inside *trajectories*. Every round-robin
/// best-response activation is a generated scan, and since the metered
/// runner surfaces the verdicts' skip counters, whole dynamics runs
/// report the fraction of their scanned move space that was actually
/// visited — the per-scan numbers of Ablation 6, lifted to the
/// trajectory level.
///
/// # Errors
///
/// Forwards engine errors from the metered runner (none expected).
pub fn trajectory_pruning(report: &mut Report, quick: bool) -> Result<(), GameError> {
    use bncg_core::solver::ExecPolicy;
    use bncg_dynamics::round_robin;
    let ns: Vec<usize> = if quick { vec![10] } else { vec![10, 12] };
    let section = report.section("Ablation: pruning inside round-robin trajectories");
    section.note(
        "evals + skipped covers every best-response activation of the run; \
         visited = evals / (evals + skipped) — the scan-level fractions of \
         the generator ablation, lifted to whole trajectories",
    );
    let table = section.table(["start", "rounds", "moves", "evals", "skipped", "visited"]);
    let alpha = Alpha::integer(2).expect("α");
    let policy = ExecPolicy::default();
    for n in ns {
        let mut rng = bncg_graph::test_rng(0xAB1C + n as u64);
        let instances = [
            (format!("path{n}"), generators::path(n)),
            (format!("tree{n}"), generators::random_tree(n, &mut rng)),
        ];
        for (name, g) in instances {
            let out = round_robin::run_with_policy_under(
                &g,
                alpha,
                CostModelSpec::SumDistances,
                200,
                &policy,
            )?;
            assert!(
                !out.exhausted,
                "an unbounded policy must finish the {name} trajectory"
            );
            let scanned = out.evals + out.skipped;
            table.row([
                name,
                out.rounds.to_string(),
                out.moves.to_string(),
                out.evals.to_string(),
                out.skipped.to_string(),
                format!("{:.4}%", 100.0 * out.evals as f64 / scanned.max(1) as f64),
            ]);
        }
    }
    Ok(())
}

/// Ablation 8: the pluggable cost-model layer's soundness capability.
/// The same BNE scans run under every model; distance-linear models
/// (`sum_distances`, `generalized:id`) keep the proven candidate
/// filters and must agree verdict-for-verdict, while non-linear models
/// run filter-free (`pruned = 0`) — correct by construction, slower by
/// measurement.
///
/// # Errors
///
/// Forwards solver errors (none expected on these pinned instances).
pub fn cost_models(report: &mut Report, quick: bool) -> Result<(), GameError> {
    use bncg_core::solver::{ExecPolicy, Verdict};
    let n = if quick { 12 } else { 16 };
    let models: [CostModelSpec; 4] = [
        CostModelSpec::SumDistances,
        CostModelSpec::Generalized(bncg_core::Utility::Identity),
        CostModelSpec::Generalized(bncg_core::Utility::Capped(2)),
        CostModelSpec::AdversaryRobust,
    ];
    let instances = [
        ("star", generators::star(n)),
        ("path", generators::path(n)),
        ("cycle", generators::cycle(n)),
    ];
    let alpha = Alpha::integer(2).expect("α");
    let section = report.section(format!(
        "Ablation: cost models and filter soundness (BNE, n = {n})"
    ));
    section.note(
        "distance-linear models (sum_distances, generalized:id) keep the          proven pruning filters and must agree exactly; non-linear models          run the identical scan filter-free (pruned = 0)",
    );
    let table = section.table([
        "instance",
        "model",
        "verdict",
        "evals",
        "pruned",
        "time (ms)",
    ]);
    let solver = Solver::new(ExecPolicy::default().with_threads(1));
    for (name, g) in &instances {
        let mut default_stable: Option<bool> = None;
        for model in models {
            let t0 = Instant::now();
            let verdict = solver.check(
                &StabilityQuery::new(bncg_core::Concept::Bne, g, alpha).with_cost_model(model),
            )?;
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            let (stable, evals, pruned) = match &verdict {
                Verdict::Stable { evals, pruned, .. } => (true, *evals, *pruned),
                Verdict::Unstable { evals, .. } => (false, *evals, 0),
                Verdict::Exhausted { .. } => unreachable!("unbudgeted scan"),
            };
            match default_stable {
                None => default_stable = Some(stable),
                Some(base) => {
                    // generalized:id prices identically to the default
                    // model, so its verdict is pinned to it; the other
                    // models merely report theirs.
                    assert!(
                        model != CostModelSpec::Generalized(bncg_core::Utility::Identity)
                            || stable == base,
                        "generalized:id diverged from sum_distances on {name}"
                    );
                }
            }
            assert!(
                model.distance_linear() || pruned == 0,
                "a non-linear model must run filter-free on {name}"
            );
            table.row([
                (*name).to_string(),
                model.token(),
                if stable { "stable" } else { "unstable" }.to_string(),
                evals.to_string(),
                pruned.to_string(),
                fnum(ms),
            ]);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trajectory_pruning_ablation_runs() {
        let mut r = Report::new();
        trajectory_pruning(&mut r, true).unwrap();
        let text = r.render();
        assert!(text.contains("round-robin trajectories"));
        assert!(text.contains("path10"));
    }

    #[test]
    fn pruning_ablation_runs_and_agrees() {
        let mut r = Report::new();
        pruning(&mut r, true).unwrap();
        assert!(r.render().contains("candidate-space pruning"));
    }

    #[test]
    fn generator_ablation_runs_and_agrees() {
        let mut r = Report::new();
        generator(&mut r, true).unwrap();
        let text = r.render();
        assert!(text.contains("branch-and-bound generator"));
        assert!(text.contains("star24"), "quick mode runs the n = 24 row");
    }

    #[test]
    fn incremental_engine_ablation_runs_and_agrees() {
        let mut r = Report::new();
        incremental_engine(&mut r, true).unwrap();
        assert!(r.render().contains("incremental GameState engine"));
    }

    #[test]
    fn parallel_scan_ablation_runs() {
        let mut r = Report::new();
        parallel_scan(&mut r, true).unwrap();
        assert!(r.render().contains("parallel"));
    }

    #[test]
    fn delta_engine_ablation_runs_and_agrees() {
        let mut r = Report::new();
        delta_engines(&mut r, true).unwrap();
        assert!(r.render().contains("fast delta engines"));
    }

    #[test]
    fn cost_model_ablation_runs_and_agrees() {
        let mut r = Report::new();
        cost_models(&mut r, true).unwrap();
        let text = r.render();
        assert!(text.contains("cost models"));
        assert!(text.contains("adversary_robust"));
    }

    #[test]
    fn kbse_restriction_ablation_runs() {
        let mut r = Report::new();
        kbse_restriction(&mut r, true).unwrap();
        let text = r.render();
        assert!(text.contains("restricted k-BSE"));
    }
}
