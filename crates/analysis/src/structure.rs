//! Structural consequences of the paper's lemmas, measured: Section 3.2's
//! proofs all flow through *depth control* — swap stability forces
//! equilibrium trees to be shallow (Lemmas 3.3–3.5), and coalition
//! stability caps the number of deep branches (Lemma 3.14). This
//! experiment measures the actual depth/diameter of equilibrium trees
//! against the lemma bounds.

use crate::report::{fnum, Report};
use bncg_core::{bounds, Alpha, Concept, GameError};
use bncg_graph::{enumerate, root_at_median};

/// Depth of BSwE trees vs. Lemma 3.4's `(1 + 2α/n)·log₂ n` and the
/// resulting diameter picture, exhaustively over all trees on `n` nodes.
/// Every BSwE tree is also checked against Lemmas 3.3 and 3.5, whose
/// hypothesis is exactly a swap-stable tree.
///
/// # Panics
///
/// Panics if a BSwE tree violates Lemma 3.3, 3.4 or 3.5.
///
/// # Errors
///
/// Forwards enumeration guards.
pub fn bswe_depth(report: &mut Report, quick: bool) -> Result<(), GameError> {
    let n = if quick { 9 } else { 10 };
    let alphas: Vec<i64> = vec![1, 2, 4, 8, 16, 32];
    let section = report.section(format!(
        "Structure: depth of BSwE trees vs Lemma 3.4 (exhaustive, n = {n})"
    ));
    section.note("median-rooted depth of every swap-stable tree; bound = (1 + 2α/n)·log₂ n");
    let table = section.table(["α", "max depth (BSwE)", "lemma bound", "max depth (PS)"]);
    for v in alphas {
        let alpha = Alpha::integer(v).expect("positive");
        let mut max_depth_bswe = 0u32;
        let mut max_depth_ps = 0u32;
        for tree in enumerate::free_trees(n).map_err(GameError::Graph)? {
            let depth = root_at_median(&tree).map_err(GameError::Graph)?.depth();
            if Concept::Bswe.is_stable(&tree, alpha)? {
                max_depth_bswe = max_depth_bswe.max(depth);
                assert!(
                    bounds::lemma_3_3_holds(&tree, alpha)?,
                    "Lemma 3.3 violated at α = {v}"
                );
                assert!(
                    bounds::lemma_3_4_holds(&tree, alpha)?,
                    "Lemma 3.4 violated at α = {v}"
                );
                assert!(
                    bounds::lemma_3_5_holds(&tree, alpha)?,
                    "Lemma 3.5 violated at α = {v}"
                );
            }
            if Concept::Ps.is_stable(&tree, alpha)? {
                max_depth_ps = max_depth_ps.max(depth);
            }
        }
        let bound = (1.0 + 2.0 * v as f64 / n as f64) * (n as f64).log2();
        table.row([
            v.to_string(),
            max_depth_bswe.to_string(),
            fnum(bound),
            max_depth_ps.to_string(),
        ]);
    }
    section.note("reading: swap stability caps depth strictly below the pairwise-stable worst case once α ≳ n");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn structure_report_runs_quick() {
        let mut r = Report::new();
        bswe_depth(&mut r, true).unwrap();
        let text = r.render();
        assert!(text.contains("Lemma 3.4"));
    }
}
