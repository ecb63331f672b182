//! Cross-crate integration tests for the cooperation machinery added on
//! top of the core reproduction: best responses, round-robin dynamics,
//! the ablation experiments, and the extra topology generators in game
//! context.

use bncg::core::{best_response, Alpha, Concept};
use bncg::dynamics::round_robin;
use bncg::graph::generators;

fn a(s: &str) -> Alpha {
    s.parse().unwrap()
}

#[test]
fn round_robin_reaches_certified_bne() {
    let mut rng = bncg::graph::test_rng(7);
    let mut converged = 0;
    for _ in 0..6 {
        let start = generators::random_tree(10, &mut rng);
        let out = round_robin::run(&start, a("2"), 300).unwrap();
        if out.converged {
            converged += 1;
            assert!(Concept::Bne.is_stable(&out.final_graph, a("2")).unwrap());
            assert!(!out.cycled);
        }
    }
    assert!(converged > 0, "at least some runs must converge");
}

#[test]
fn best_responses_characterize_bne_on_figure_six() {
    // Figure 6's graph is a BNE: no agent may have a feasible improving
    // neighborhood move.
    let fig = bncg::constructions::figures::figure6();
    for u in 0..fig.graph.n() as u32 {
        let br = best_response(&fig.graph, fig.alpha, u).unwrap();
        assert!(br.best.is_none(), "agent {u} should have no feasible move");
    }
}

#[test]
fn best_response_dynamics_never_hurt_the_mover() {
    let mut rng = bncg::graph::test_rng(8);
    let start = generators::random_tree(9, &mut rng);
    let alpha = a("3/2");
    let out = round_robin::run(&start, alpha, 200).unwrap();
    // Replaying the history, each mover's own cost strictly decreases.
    let mut g = start;
    for mv in &out.history {
        let center = match mv {
            bncg::core::Move::Neighborhood { center, .. } => *center,
            other => panic!("round robin only plays neighborhood moves, got {other}"),
        };
        let before = bncg::core::agent_cost(&g, center);
        g = mv.apply(&g).unwrap();
        let after = bncg::core::agent_cost(&g, center);
        assert!(after.better_than(&before, alpha));
    }
}

#[test]
fn complete_bipartite_and_wheel_have_expected_stability() {
    // K_{a,b} has diameter 2, so by Prop. 3.16 it is a BSE at α = 1.
    let k23 = generators::complete_bipartite(2, 3);
    assert!(Concept::Bse.is_stable(&k23, a("1")).unwrap());
    // At α > 1 a same-side pair is at distance 2 and edges are redundant:
    // removal reasoning belongs to RE — the wheel sheds rim edges at high α.
    let w6 = generators::wheel(6);
    assert!(Concept::Re.is_stable(&w6, a("1")).unwrap());
    assert!(!Concept::Re.is_stable(&w6, a("3")).unwrap());
}

#[test]
fn brooms_fold_under_swaps_but_not_pairwise() {
    // Brooms (a path with a leaf tuft at one end) realize the PS-vs-BSwE
    // gap: the tuft makes a far-end swap valuable for the tuft holder
    // while no single *addition* pays for itself. broom(4, 3) at α = 6 is
    // the smallest such witness (found by exhaustive search over all
    // 8-node trees; it doubles as the curated Figure 1a properness
    // witness for BGE ⊊ PS).
    let g = generators::broom(4, 3);
    let alpha = a("6");
    assert!(Concept::Ps.is_stable(&g, alpha).unwrap());
    let swap = Concept::Bswe
        .find_violation(&g, alpha)
        .unwrap()
        .expect("swap must exist");
    assert!(bncg::core::delta::move_improves_all(&g, alpha, &swap).unwrap());
    // A broom is a caterpillar with one tufted end; the generators agree.
    let as_caterpillar = generators::caterpillar(5, &[0, 0, 0, 0, 3]);
    assert!(bncg::graph::iso::are_isomorphic(&g, &as_caterpillar));
}

#[test]
fn ablation_experiments_hold_their_assertions() {
    // The ablation runners assert engine agreement / refuter soundness
    // and the pruned scans' witness and evaluated-count agreement with
    // the raw and dense references internally; running them is the test.
    let mut r = bncg::analysis::report::Report::new();
    bncg::analysis::ablations::delta_engines(&mut r, true).unwrap();
    bncg::analysis::ablations::kbse_restriction(&mut r, true).unwrap();
    bncg::analysis::ablations::pruning(&mut r, true).unwrap();
    bncg::analysis::ablations::generator(&mut r, true).unwrap();
    bncg::analysis::structure::bswe_depth(&mut r, true).unwrap();
    let json = r.to_json();
    assert!(json.contains("\"sections\""));
}
