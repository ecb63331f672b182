//! Regenerating the paper's **figures** as measured artifacts.
//!
//! Figures 1a/1b are relationship diagrams — reproduced as exhaustive
//! verification plus certified witnesses. Figures 2 and 4–8 are witness
//! graphs or proof illustrations — reproduced by building (or searching
//! for) the graph and machine-checking every claim the caption makes.
//! Figure 3 is the stretched-tree construction — reproduced together with
//! a *measured* stability frontier compared against Proposition 3.8's
//! sufficient `α ≥ 7kn`.

use crate::report::{fnum, Report};
use bncg_constructions::figures::{figure5, figure6, figure7, figure8_witness};
use bncg_constructions::stretched::StretchedBinaryTree;
use bncg_constructions::{conjecture, venn};
use bncg_core::unilateral::UnilateralState;
use bncg_core::{concepts, delta, Alpha, Concept, GameError};
use bncg_graph::{enumerate, graph6, Graph};

/// Figure 1a: the subset lattice of solution concepts, verified on an
/// exhaustive corpus, with properness witnesses.
///
/// # Errors
///
/// Forwards enumeration/checker guards.
pub fn fig1a(report: &mut Report, quick: bool) -> Result<(), GameError> {
    let max_n = if quick { 5 } else { 6 };
    let alphas: Vec<Alpha> = ["1/2", "1", "3/2", "2", "3", "5", "8"]
        .iter()
        .map(|s| s.parse().expect("grid α"))
        .collect();
    // The arrows of Figure 1a (subset → superset).
    let arrows: Vec<(Concept, Concept)> = vec![
        (Concept::Ps, Concept::Re),
        (Concept::Ps, Concept::Bae),
        (Concept::Bge, Concept::Ps),
        (Concept::Bge, Concept::Bswe),
        (Concept::Bne, Concept::Bge),
        (Concept::Bne, Concept::Bae),
        (Concept::KBse(2), Concept::Bge),
        (Concept::KBse(3), Concept::KBse(2)),
        (Concept::Bse, Concept::KBse(3)),
    ];
    let mut corpus: Vec<Graph> = Vec::new();
    for n in 2..=max_n {
        corpus.extend(enumerate::connected_graphs(n).map_err(GameError::Graph)?);
    }
    let section = report.section(format!(
        "Figure 1a: solution-concept lattice (corpus: all connected graphs n ≤ {max_n} × {} prices)",
        alphas.len()
    ));
    let table = section.table(["subset ⊆ superset", "counterexamples", "proper (witness)"]);
    for (sub, sup) in arrows {
        let mut counterexamples = 0usize;
        let mut proper = false;
        for g in &corpus {
            for &alpha in &alphas {
                let in_sub = sub.is_stable(g, alpha)?;
                let in_sup = sup.is_stable(g, alpha)?;
                if in_sub && !in_sup {
                    counterexamples += 1;
                }
                if in_sup && !in_sub {
                    proper = true;
                }
            }
        }
        assert_eq!(
            counterexamples, 0,
            "lattice arrow {sub} ⊆ {sup} violated on the corpus"
        );
        let mut witness_note = if proper {
            "corpus".to_string()
        } else {
            String::new()
        };
        if !proper {
            // Curated witnesses found by larger searches (see the probe
            // experiments): each is re-certified here.
            if let Some((g, alpha, not_in_sub)) = curated_properness(sub, sup)? {
                assert!(sup.is_stable(&g, alpha)?, "curated witness not in {sup}");
                assert!(not_in_sub, "curated witness unexpectedly in {sub}");
                proper = true;
                witness_note = format!("curated (n = {}, α = {alpha})", g.n());
            }
        }
        assert!(
            proper,
            "lattice arrow {sub} ⊂ {sup} lacks a properness witness"
        );
        table.row([
            format!("{sub} ⊆ {sup}"),
            counterexamples.to_string(),
            witness_note,
        ]);
    }
    // Incomparability of BNE and 2-BSE via the paper's Figures 6 and 7.
    let f6 = figure6();
    let f7 = figure7(6);
    section.note(format!(
        "BNE vs k-BSE incomparable: Figure 6 graph is BNE ∧ ¬2-BSE ({}), Figure 7 graph is ¬BNE ({})",
        Concept::Bne.is_stable(&f6.graph, f6.alpha)?,
        delta::move_improves_all(&f7.graph, f7.alpha, f7.violation.as_ref().expect("move"))?
    ));
    Ok(())
}

/// Curated properness witnesses for arrows the tiny corpus cannot
/// separate, discovered by larger offline searches. Returns the witness
/// graph, its price, and the (already evaluated) fact that the graph is
/// *not* in the subset concept — evaluated here with the appropriate
/// sound substitute when the exact subset check is infeasible (for
/// `BSE ⊆ 3-BSE` the 4-BSE refutation implies ¬BSE since BSE ⊆ 4-BSE).
///
/// # Errors
///
/// Forwards checker guards.
fn curated_properness(
    sub: Concept,
    sup: Concept,
) -> Result<Option<(Graph, Alpha, bool)>, GameError> {
    let parse = |s: &str| -> Alpha { s.parse().expect("valid α") };
    Ok(match (sub, sup) {
        // PS-stable tree that admits an improving swap (8-node search hit).
        (Concept::Bge, Concept::Ps) => {
            let g = graph6::decode("GhCGOO").map_err(GameError::Graph)?;
            let alpha = parse("6");
            let not_in_sub = !Concept::Bge.is_stable(&g, alpha)?;
            Some((g, alpha, not_in_sub))
        }
        // BGE-stable 6-node graph with an improving neighborhood move.
        (Concept::Bne, Concept::Bge) => {
            let g = graph6::decode("E]a?").map_err(GameError::Graph)?;
            let alpha = parse("2");
            let not_in_sub = !Concept::Bne.is_stable(&g, alpha)?;
            Some((g, alpha, not_in_sub))
        }
        // Figure 6: in BNE ⊆ BGE but not in 2-BSE.
        (Concept::KBse(2), Concept::Bge) => {
            let fig = figure6();
            let not_in_sub = !Concept::KBse(2).is_stable(&fig.graph, fig.alpha)?;
            Some((fig.graph, fig.alpha, not_in_sub))
        }
        // Spider(3 legs × 3): 2-BSE (= BGE on trees) at α = 9 but not 3-BSE.
        (Concept::KBse(3), Concept::KBse(2)) => {
            let g = bncg_graph::generators::spider(3, 3);
            let alpha = parse("9");
            let not_in_sub = !Concept::KBse(3).is_stable(&g, alpha)?;
            Some((g, alpha, not_in_sub))
        }
        // Spider(3 legs × 3) at α = 10: 3-BSE but not 4-BSE (⊇ BSE).
        (Concept::Bse, Concept::KBse(3)) => {
            let g = bncg_graph::generators::spider(3, 3);
            let alpha = parse("10");
            let not_in_sub = !Concept::KBse(4).is_stable(&g, alpha)?;
            Some((g, alpha, not_in_sub))
        }
        _ => None,
    })
}

/// Figure 1b: the RE/BAE/BSwE Venn diagram — a certified witness for each
/// of the eight regions.
///
/// # Errors
///
/// Forwards enumeration guards.
pub fn fig1b(report: &mut Report, quick: bool) -> Result<(), GameError> {
    let (max_graph_n, max_tree_n) = if quick { (5, 8) } else { (6, 9) };
    let grid = venn::default_alpha_grid();
    let witnesses = venn::find_all_witnesses(max_graph_n, max_tree_n, &grid)?;
    let section = report.section("Figure 1b: Venn diagram of RE, BAE, BSwE (Proposition A.1)");
    let table = section.table(["region", "witness (graph6)", "n", "α"]);
    for (region, w) in witnesses {
        match w {
            Some(w) => {
                table.row([
                    region.to_string(),
                    graph6::encode(&w.graph).map_err(GameError::Graph)?,
                    w.graph.n().to_string(),
                    w.alpha.to_string(),
                ]);
            }
            None => {
                table.row([
                    region.to_string(),
                    "NOT FOUND".into(),
                    "–".into(),
                    "–".into(),
                ]);
            }
        }
    }
    Ok(())
}

/// Figure 2 / Proposition 2.3: the Corbo–Parkes conjecture is false.
///
/// # Errors
///
/// Forwards guards; panics if no witness exists in the search space
/// (the proposition guarantees one).
pub fn fig2(report: &mut Report, _quick: bool) -> Result<(), GameError> {
    let alphas: Vec<Alpha> = ["4", "3", "2", "7/2", "5"]
        .iter()
        .map(|s| s.parse().expect("grid α"))
        .collect();
    let witness = conjecture::find_ne_not_ps(5, &alphas)?
        .expect("Proposition 2.3 witness must exist among n ≤ 5");
    let section =
        report.section("Figure 2 / Proposition 2.3: unilateral NE that is not pairwise stable");
    section.note(format!(
        "graph6 = {}, α = {}",
        graph6::encode(witness.state.graph()).map_err(GameError::Graph)?,
        witness.alpha
    ));
    section.note(format!("bilateral deviation: {}", witness.removal));
    section.note(format!(
        "certified: unilateral NE = {}, bilateral PS = {}",
        witness.state.is_ne(witness.alpha)?,
        Concept::Ps.is_stable(witness.state.graph(), witness.alpha)?
    ));
    let table = section.table(["edge", "owner"]);
    let g = witness.state.graph().clone();
    for (u, v) in g.edges() {
        table.row([
            format!("{{{u}, {v}}}"),
            witness.state.owner(u, v).to_string(),
        ]);
    }
    Ok(())
}

/// Figure 3: stretched binary trees and their measured BGE stability
/// frontier vs. Proposition 3.8's sufficient `α ≥ 7kn`.
///
/// # Errors
///
/// Forwards checker guards.
pub fn fig3(report: &mut Report, quick: bool) -> Result<(), GameError> {
    let shapes: Vec<(usize, usize)> = if quick {
        vec![(2, 1), (2, 2), (3, 1)]
    } else {
        vec![(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1)]
    };
    let section =
        report.section("Figure 3: stretched binary trees — measured BGE frontier vs Prop 3.8");
    section.note(
        "min integer α with the tree in BGE (monotone on trees: partner payments rise with α)",
    );
    let table = section.table([
        "d",
        "k",
        "n",
        "min α (measured)",
        "α*/(kn)",
        "paper sufficient 7kn",
    ]);
    for (d, k) in shapes {
        let tree = StretchedBinaryTree::build(d, k);
        let n = tree.graph.n();
        // Binary search the frontier on integers in [1, 7kn].
        let mut lo = 1i64;
        let mut hi = (7 * k * n) as i64;
        debug_assert!(Concept::Bge.is_stable(&tree.graph, Alpha::integer(hi).expect("α"))?);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if Concept::Bge.is_stable(&tree.graph, Alpha::integer(mid).expect("α"))? {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        table.row([
            d.to_string(),
            k.to_string(),
            n.to_string(),
            lo.to_string(),
            fnum(lo as f64 / (k * n) as f64),
            (7 * k * n).to_string(),
        ]);
    }
    Ok(())
}

/// Figure 4 / Lemma 3.14: at most one deep child subtree in 3-BSE trees,
/// and the proof's coalition move materialized on a violating tree.
///
/// # Errors
///
/// Forwards enumeration/checker guards.
pub fn fig4(report: &mut Report, quick: bool) -> Result<(), GameError> {
    let max_n = if quick { 7 } else { 8 };
    let alphas: Vec<Alpha> = ["1", "2", "4", "9"]
        .iter()
        .map(|s| s.parse().expect("grid α"))
        .collect();
    let section = report.section("Figure 4 / Lemma 3.14: deep-child uniqueness in 3-BSE trees");
    let mut checked = 0usize;
    for n in 3..=max_n {
        for tree in enumerate::free_trees(n).map_err(GameError::Graph)? {
            for &alpha in &alphas {
                if Concept::KBse(3).find_violation(&tree, alpha)?.is_none() {
                    assert!(
                        bncg_core::bounds::lemma_3_14_holds(&tree, alpha)?,
                        "Lemma 3.14 violated on a 3-BSE tree"
                    );
                    checked += 1;
                }
            }
        }
    }
    section.note(format!(
        "all {checked} (tree, α) pairs in 3-BSE over n ≤ {max_n} satisfy the at-most-one-deep-child property"
    ));
    // A two-deep-legs tree violates the property and indeed admits the
    // figure's coalition move.
    let spider = bncg_graph::generators::spider(2, 6);
    let alpha: Alpha = "2".parse().expect("α");
    assert!(!bncg_core::bounds::lemma_3_14_holds(&spider, alpha)?);
    let mv = concepts::kbse::find_violation_restricted(&spider, alpha, 3, 1, 1)?
        .expect("the deep spider must admit a size-3 coalition move");
    section.note(format!(
        "counterexample spider(2 legs × 6): violates the depth property and admits {mv}"
    ));
    assert!(delta::move_improves_all(&spider, alpha, &mv)?);
    Ok(())
}

/// Figure 5 / Proposition A.4: BAE ∩ BGE but not BNE.
///
/// # Errors
///
/// Forwards checker guards.
pub fn fig5(report: &mut Report, _quick: bool) -> Result<(), GameError> {
    let fig = figure5();
    let section =
        report.section("Figure 5 / Proposition A.4: in BAE ∩ BGE, not in BNE (α = 104.5)");
    let bae = Concept::Bae.is_stable(&fig.graph, fig.alpha)?;
    let bge = Concept::Bge.is_stable(&fig.graph, fig.alpha)?;
    let mv = fig.violation.as_ref().expect("figure move");
    let improving = delta::move_improves_all(&fig.graph, fig.alpha, mv)?;
    assert!(bae && bge && improving);
    section.note(format!(
        "n = {}, in BAE: {bae}, in BGE: {bge}",
        fig.graph.n()
    ));
    section.note(format!("improving neighborhood move (⇒ not BNE): {mv}"));
    Ok(())
}

/// Figure 6 / Proposition A.5: BNE but not 2-BSE.
///
/// # Errors
///
/// Forwards checker guards.
pub fn fig6(report: &mut Report, _quick: bool) -> Result<(), GameError> {
    let fig = figure6();
    let section =
        report.section("Figure 6 / Proposition A.5: in BNE, not in 2-BSE (α = 7, n = 10)");
    let bne = Concept::Bne.is_stable(&fig.graph, fig.alpha)?;
    let two_bse_violation = Concept::KBse(2).find_violation(&fig.graph, fig.alpha)?;
    assert!(bne && two_bse_violation.is_some());
    section.note(format!(
        "reconstructed topology (graph6 = {}): dist(a1) = 19, dist(b1) = 27, dist(c1) = 19 as stated",
        graph6::encode(&fig.graph).map_err(GameError::Graph)?
    ));
    section.note(format!(
        "in BNE: {bne}; 2-BSE violation: {}",
        two_bse_violation.expect("present")
    ));
    Ok(())
}

/// Figure 7 / Proposition A.7: k-BSE but not BNE.
///
/// # Errors
///
/// Forwards checker guards.
pub fn fig7(report: &mut Report, quick: bool) -> Result<(), GameError> {
    let i = if quick { 8 } else { 12 };
    let fig = figure7(i);
    let section = report.section(format!(
        "Figure 7 / Proposition A.7: k-BSE but not BNE (i = {i}, α = {})",
        fig.alpha
    ));
    let mv = fig.violation.as_ref().expect("figure move");
    assert!(delta::move_improves_all(&fig.graph, fig.alpha, mv)?);
    section.note(format!(
        "the center's full rewire improves it and every c_j (⇒ not BNE): {} agents move",
        mv.consenting_agents().len()
    ));
    let refuted = concepts::kbse::find_violation_restricted(&fig.graph, fig.alpha, 2, 2, 4)?;
    section.note(format!(
        "restricted 2-BSE refuter (≤ 2 removals): {}",
        refuted.map_or("no improving coalition move".to_string(), |m| m.to_string())
    ));
    for k in [2usize, 3] {
        let cert = bncg_constructions::figures::figure7_kbse_certificate(k);
        assert!(cert, "Figure 7 certificate must hold at k = {k}");
        section.note(format!(
            "paper-scale certificate (i = 20k = {}, α = {}): geometry + margin inequalities hold = {cert}",
            20 * k,
            4 * 20 * k - 4
        ));
    }
    Ok(())
}

/// Figure 8 / Proposition 2.1 (reverse): BAE but not unilateral Add
/// Equilibrium (compact substitution witness; see `bncg-constructions`).
///
/// # Errors
///
/// Forwards checker guards.
pub fn fig8(report: &mut Report, _quick: bool) -> Result<(), GameError> {
    let fig = figure8_witness();
    let section = report.section("Figure 8 / Proposition 2.1 reverse: BAE but not unilateral AE");
    let bae = Concept::Bae.is_stable(&fig.graph, fig.alpha)?;
    let mut all_assignments_unstable = true;
    for state in UnilateralState::all_assignments(&fig.graph)? {
        if state.find_add_violation(fig.alpha).is_none() {
            all_assignments_unstable = false;
        }
    }
    assert!(bae && all_assignments_unstable);
    section.note(format!(
        "double star (n = {}, α = {}): in BAE = {bae}; unilateral add instability holds for all 2^m assignments = {all_assignments_unstable}",
        fig.graph.n(),
        fig.alpha
    ));
    section.note("substitution: the paper's 28-node drawing is not fully specified in the text; this 6-node graph certifies the same separation");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_figures_run_quick() {
        let mut r = Report::new();
        fig1b(&mut r, true).unwrap();
        fig2(&mut r, true).unwrap();
        fig3(&mut r, true).unwrap();
        fig4(&mut r, true).unwrap();
        fig5(&mut r, true).unwrap();
        fig6(&mut r, true).unwrap();
        fig7(&mut r, true).unwrap();
        fig8(&mut r, true).unwrap();
        let text = r.render();
        assert!(text.contains("Figure 2"));
        assert!(text.contains("Figure 6"));
        assert!(!text.contains("NOT FOUND"));
    }

    #[test]
    fn lattice_verification_runs_quick() {
        let mut r = Report::new();
        fig1a(&mut r, true).unwrap();
        assert!(r.render().contains("lattice"));
    }
}
