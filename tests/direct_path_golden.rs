//! Golden pins for the exponential scans and the round-robin dynamics,
//! each folded into one FNV-1a digest. The digests were recorded from
//! the standalone unmetered scans that preceded the single scan path
//! per check (one per concept for BNE, k-BSE and BSE, an unmetered
//! per-agent best response, and an unmetered round-robin loop). Now
//! the lines come from `Verdict::stats()` and the guarded wrappers over
//! the metered scans, so any change to a witness, a work counter, a
//! best-response move or a trajectory changes a digest. The restricted
//! k-BSE refuter's witnesses and the dense BNE leg's witnesses and
//! counters were likewise recorded from their standalone loops before
//! both were re-routed through the solver's unit scanners.

use bncg::constructions::figures::figure7;
use bncg::core::solver::{Solver, StabilityQuery, Verdict};
use bncg::core::{
    best_response, concepts, Alpha, CandidateStats, CheckBudget, Concept, GameState, Move,
};
use bncg::dynamics::round_robin;
use bncg::graph::{fnv1a_lines, generators, graph6, test_rng, Graph};

/// Three seeded trees and three connected G(n, 0.3) graphs for each
/// n = `lo..=hi`.
fn pinned_graphs(lo: usize, hi: usize, seed: u64) -> Vec<Graph> {
    let mut rng = test_rng(seed);
    (lo..=hi)
        .flat_map(|n| (0..3).map(move |_| n))
        .flat_map(|n| {
            [
                generators::random_tree(n, &mut rng),
                generators::random_connected(n, 0.3, &mut rng),
            ]
        })
        .collect()
}

fn render(mv: Option<&Move>) -> String {
    mv.map_or_else(|| "stable".into(), Move::render_json)
}

/// One uninterrupted solver check of `concept`: its witness and the
/// work counters the verdict carries.
fn scan(concept: Concept, state: &GameState) -> (Option<Move>, CandidateStats) {
    let verdict = Solver::default()
        .check(&StabilityQuery::on(concept, state))
        .unwrap();
    let stats = *verdict.stats();
    match &verdict {
        Verdict::Stable { evals, pruned, .. } => {
            assert_eq!(*pruned, stats.skipped(), "pruned is the skip total");
            assert_eq!(*evals, stats.evaluated, "a one-shot run's evals");
        }
        Verdict::Unstable { evals, .. } => assert_eq!(*evals, stats.evaluated),
        Verdict::Exhausted { .. } => panic!("an unbounded check cannot exhaust"),
    }
    (verdict.witness().cloned(), stats)
}

#[test]
fn exponential_scans_match_the_golden_digest() {
    let alphas = ["1/2", "1", "2", "9"].map(|a| a.parse::<Alpha>().unwrap());
    let mut lines = Vec::new();
    for g in pinned_graphs(5, 10, 0x601D) {
        let code = graph6::encode(&g).unwrap();
        for alpha in alphas {
            let state = GameState::new(g.clone(), alpha);
            let mut ladder = vec![Concept::Bne, Concept::KBse(2), Concept::KBse(3)];
            if g.n() <= 7 {
                ladder.push(Concept::Bse);
            }
            for concept in ladder {
                let (mv, s) = scan(concept, &state);
                lines.push(format!(
                    "{concept} | {code} | {alpha} | {} | {} | {} | {} | {} | {}",
                    render(mv.as_ref()),
                    s.evaluated,
                    s.pruned,
                    s.deduped,
                    s.generated,
                    s.visited
                ));
            }
        }
    }
    let digest = fnv1a_lines(lines.iter().map(String::as_str));
    assert_eq!(
        digest,
        0x16e9_5115_4137_d36d,
        "scan digest {digest:#018x}\n{}",
        lines.join("\n")
    );
}

#[test]
fn round_robin_dynamics_match_the_golden_digest() {
    let alphas = ["1/2", "1", "2", "5", "20"].map(|a| a.parse::<Alpha>().unwrap());
    let mut lines = Vec::new();
    for g in pinned_graphs(5, 12, 0xD1AA) {
        let code = graph6::encode(&g).unwrap();
        for alpha in alphas {
            for u in 0..g.n() as u32 {
                let br = best_response(&g, alpha, u).unwrap();
                lines.push(format!(
                    "br | {code} | {alpha} | {u} | {} | {:?}",
                    render(br.best.as_ref()),
                    br.cost
                ));
            }
            let out = round_robin::run(&g, alpha, 40).unwrap();
            let history: Vec<String> = out.history.iter().map(Move::render_json).collect();
            lines.push(format!(
                "rr | {code} | {alpha} | {} | {} | {} | {} | {}",
                history.join(" "),
                out.rounds,
                out.converged,
                out.cycled,
                graph6::encode(&out.final_graph).unwrap()
            ));
        }
    }
    let digest = fnv1a_lines(lines.iter().map(String::as_str));
    assert_eq!(
        digest,
        0x684c_f438_aa2b_9657,
        "dynamics digest {digest:#018x}\n{}",
        lines.join("\n")
    );
}

/// The restricted k-BSE refuter on `threads` workers.
fn restricted(g: &Graph, alpha: Alpha, k: usize, cap: usize, threads: usize) -> Option<Move> {
    concepts::kbse::find_violation_restricted(g, alpha, k, cap, threads).unwrap()
}

/// The restricted refuter's witnesses on the pinned graphs and the
/// Figure 7 family, at every removal cap from none to unrestricted and
/// on one and four workers.
#[test]
fn restricted_refuter_matches_the_golden_digest() {
    let alphas = ["1/2", "1", "2", "9"].map(|a| a.parse::<Alpha>().unwrap());
    let mut cases: Vec<(Graph, Vec<Alpha>)> = pinned_graphs(5, 10, 0x601D)
        .into_iter()
        .map(|g| (g, alphas.to_vec()))
        .collect();
    for i in [4, 8] {
        let fig = figure7(i);
        cases.push((fig.graph, vec![alphas[2], fig.alpha]));
    }
    let mut lines = Vec::new();
    for (g, alphas) in &cases {
        let code = graph6::encode(g).unwrap();
        for &alpha in alphas {
            for k in [2usize, 3] {
                for cap in [0, 1, 2, g.m()] {
                    for threads in [1usize, 4] {
                        let mv = restricted(g, alpha, k, cap, threads);
                        lines.push(format!(
                            "restricted | {code} | {alpha} | {k} | {cap} | {threads} | {}",
                            render(mv.as_ref())
                        ));
                    }
                }
            }
        }
    }
    let digest = fnv1a_lines(lines.iter().map(String::as_str));
    assert_eq!(
        digest,
        0xd0ca_fcfe_297d_7585,
        "restricted digest {digest:#018x}\n{}",
        lines.join("\n")
    );
}

/// The dense BNE reference's witnesses and work counters.
#[test]
fn dense_bne_reference_matches_the_golden_digest() {
    let alphas = ["1/2", "1", "2", "9"].map(|a| a.parse::<Alpha>().unwrap());
    let mut lines = Vec::new();
    for g in pinned_graphs(5, 10, 0x601D) {
        let code = graph6::encode(&g).unwrap();
        for alpha in alphas {
            let state = GameState::new(g.clone(), alpha);
            let (mv, s) =
                concepts::bne::find_violation_in_dense(&state, CheckBudget::default()).unwrap();
            lines.push(format!(
                "dense | {code} | {alpha} | {} | {} | {} | {}",
                render(mv.as_ref()),
                s.evaluated,
                s.generated,
                s.pruned
            ));
        }
    }
    let digest = fnv1a_lines(lines.iter().map(String::as_str));
    assert_eq!(
        digest,
        0xc316_e1d1_6127_1e28,
        "dense digest {digest:#018x}\n{}",
        lines.join("\n")
    );
}
