//! The exact Price-of-Anarchy **curve** over trees.
//!
//! For trees on a fixed `n` the social cost is `2(n−1)·α + D_T` with
//! `D_T` the tree's total distance, and the optimum is
//! `2(n−1)·(α + n − 1)` — the same denominator for every tree. Hence at
//! any price the worst stable tree is simply the stable tree with the
//! **largest total distance**, independent of α. Combining this with the
//! exact stability windows of `bncg_core::windows` turns the sampled
//! Table 1 rows into a closed-form piecewise curve: finitely many rational
//! breakpoints, and between consecutive breakpoints the PoA equals
//! `(2(n−1)α + D*) / (2(n−1)(α + n − 1))` for the segment's argmax tree.

use crate::report::{fnum, Report};
use bncg_core::windows::{stability_windows, windows_contain, StabilityWindow};
use bncg_core::{Alpha, Concept, GameError};
use bncg_graph::{enumerate, graph6, Graph, RootedTree};

/// One maximal α-interval on which the same tree attains the PoA.
#[derive(Debug, Clone)]
pub(crate) struct CurveSegment {
    /// Left endpoint (`None` = 0); segments are closed at breakpoints in
    /// the same semantics as stability windows.
    pub lo: Option<Alpha>,
    /// Right endpoint (`None` = ∞).
    pub hi: Option<Alpha>,
    /// Total distance of the worst stable tree (`None` if no tree is
    /// stable on this segment).
    pub worst_distance: Option<u64>,
    /// The worst stable tree itself.
    pub worst: Option<Graph>,
}

impl CurveSegment {
    /// Evaluates the segment's PoA at a price inside it.
    #[must_use]
    pub(crate) fn rho_at(&self, n: usize, alpha: Alpha) -> Option<f64> {
        let d = self.worst_distance? as f64;
        let a = alpha.as_f64();
        let n1 = (n - 1) as f64;
        Some((2.0 * n1 * a + d) / (2.0 * n1 * (a + n1)))
    }
}

/// Computes the exact PoA curve over all trees on `n` nodes for a
/// polynomial concept (RE, BAE, BSwE, PS, BGE).
///
/// # Errors
///
/// Forwards the enumeration guard and the windows module's
/// polynomial-concept restriction.
pub(crate) fn exact_tree_poa_curve(
    n: usize,
    concept: Concept,
) -> Result<Vec<CurveSegment>, GameError> {
    let trees = enumerate::free_trees(n).map_err(GameError::Graph)?;
    // Per tree: total distance + exact stability windows.
    let mut data: Vec<(Graph, u64, Vec<StabilityWindow>)> = Vec::with_capacity(trees.len());
    let mut breakpoints: Vec<(i128, i128)> = Vec::new();
    for tree in trees {
        let total: u64 = RootedTree::new(&tree, 0)
            .expect("enumerated trees are trees")
            .dist_sums()
            .iter()
            .sum();
        let windows = stability_windows(&tree, concept)?;
        for w in &windows {
            for bound in [w.lo, w.hi].into_iter().flatten() {
                if bound.num() > 0 {
                    breakpoints.push((bound.num(), bound.den()));
                }
            }
        }
        data.push((tree, total, windows));
    }
    breakpoints.sort_by(|a, b| (a.0 * b.1).cmp(&(b.0 * a.1)));
    breakpoints.dedup_by(|a, b| a.0 * b.1 == b.0 * a.1);

    let to_alpha = |p: (i128, i128)| -> Alpha {
        Alpha::from_ratio(p.0 as i64, p.1 as i64).expect("small positive rational")
    };
    // Elementary evaluation points: below, at, and between breakpoints.
    let mut eval_points: Vec<(Option<Alpha>, Option<Alpha>, Alpha)> = Vec::new();
    let mut prev: Option<(i128, i128)> = None;
    for (i, &p) in breakpoints.iter().enumerate() {
        let rep = match prev {
            None => (p.0, p.1 * 2),
            Some(q) => (p.0 * q.1 + q.0 * p.1, 2 * p.1 * q.1),
        };
        eval_points.push((prev.map(to_alpha), Some(to_alpha(p)), to_alpha(rep)));
        eval_points.push((Some(to_alpha(p)), Some(to_alpha(p)), to_alpha(p)));
        prev = Some(p);
        if i == breakpoints.len() - 1 {
            eval_points.push((Some(to_alpha(p)), None, to_alpha((p.0 + p.1, p.1))));
        }
    }
    if breakpoints.is_empty() {
        eval_points.push((None, None, Alpha::integer(1).expect("one")));
    }

    // Worst stable tree per piece, merged into maximal segments.
    let mut out: Vec<CurveSegment> = Vec::new();
    for (lo, hi, rep) in eval_points {
        let mut best: Option<(u64, &Graph)> = None;
        for (tree, total, windows) in &data {
            if windows_contain(windows, rep, true) && best.as_ref().is_none_or(|(b, _)| total > b) {
                best = Some((*total, tree));
            }
        }
        let (worst_distance, worst) = match best {
            Some((d, g)) => (Some(d), Some(g.clone())),
            None => (None, None),
        };
        match out.last_mut() {
            Some(last) if last.worst_distance == worst_distance => {
                last.hi = hi;
            }
            _ => out.push(CurveSegment {
                lo,
                hi,
                worst_distance,
                worst,
            }),
        }
    }
    Ok(out)
}

/// Report runner: the exact PS and BGE PoA curves over trees on `n`
/// nodes, one row per segment.
///
/// # Errors
///
/// Forwards the tree enumeration guard.
pub fn curve_report(report: &mut Report, quick: bool) -> Result<(), GameError> {
    let n = if quick { 8 } else { 9 };
    for concept in [Concept::Ps, Concept::Bge] {
        let segments = exact_tree_poa_curve(n, concept)?;
        let section = report.section(format!(
            "Exact PoA curve over trees (n = {n}, {concept}): {} segments",
            segments.len()
        ));
        section.note("on each segment the SAME tree is worst (PoA ordering on fixed-n trees is α-free); ρ evaluated at segment endpoints");
        let table = section.table([
            "segment",
            "worst D",
            "worst tree (graph6)",
            "ρ at left",
            "ρ slope",
        ]);
        for seg in &segments {
            let span = format!(
                "[{}, {}]",
                seg.lo.map_or("0".into(), |a| a.to_string()),
                seg.hi.map_or("∞".into(), |a| a.to_string())
            );
            let at_left = seg
                .lo
                .or(Some(Alpha::integer(1).expect("one")))
                .and_then(|a| seg.rho_at(n, a));
            let decreasing = seg
                .worst_distance
                .map(|d| d > 2 * (n as u64 - 1) * (n as u64 - 1));
            table.row([
                span,
                seg.worst_distance.map_or("–".into(), |d| d.to_string()),
                seg.worst
                    .as_ref()
                    .map_or(Ok("–".into()), graph6::encode)
                    .map_err(GameError::Graph)?,
                at_left.map_or("–".into(), fnum),
                decreasing.map_or("–".into(), |d| {
                    if d { "falling" } else { "rising" }.into()
                }),
            ]);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curve_matches_grid_empirical_poa() {
        // The closed-form curve must agree with the sampled empirical PoA
        // at every grid price.
        let n = 7;
        for concept in [Concept::Ps, Concept::Bge] {
            let segments = exact_tree_poa_curve(n, concept).unwrap();
            for alpha in ["1/2", "1", "2", "3", "9/2", "8", "16", "64"] {
                let alpha: Alpha = alpha.parse().unwrap();
                let grid = crate::empirical::tree_poa(n, alpha, concept).unwrap();
                // At a shared breakpoint two segments apply; instability
                // regions are open, so the stable set at the breakpoint is
                // the union of its neighbors' — take the max.
                let curve_rho = segments
                    .iter()
                    .filter(|seg| {
                        let above = seg.lo.is_none_or(|l| alpha >= l);
                        let below = seg.hi.is_none_or(|h| alpha <= h);
                        above && below
                    })
                    .filter_map(|seg| seg.rho_at(n, alpha))
                    .fold(None::<f64>, |acc, r| Some(acc.map_or(r, |a| a.max(r))));
                match (grid.max_rho, curve_rho) {
                    (Some(g), Some(c)) => {
                        assert!(
                            (g - c).abs() < 1e-9,
                            "curve ≠ grid at α = {alpha} ({concept})"
                        )
                    }
                    (None, None) => {}
                    other => panic!("stability disagreement at α = {alpha}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn segments_tile_the_positive_axis() {
        let segments = exact_tree_poa_curve(7, Concept::Ps).unwrap();
        assert!(segments.first().unwrap().lo.is_none());
        assert!(segments.last().unwrap().hi.is_none());
        for pair in segments.windows(2) {
            assert_eq!(pair[0].hi, pair[1].lo, "segments must abut");
        }
    }

    #[test]
    fn curve_report_renders() {
        let mut r = Report::new();
        curve_report(&mut r, true).unwrap();
        assert!(r.render().contains("Exact PoA curve"));
    }
}
