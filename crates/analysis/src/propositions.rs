//! The remaining standalone results: Lemma 2.4 (cycles in BSE),
//! Proposition 3.16 (the BSE landscape across α), and Proposition 3.22
//! (no evenly-spread constant-cost family at α = n).

use crate::report::{fnum, Report};
use bncg_core::{Alpha, Concept, GameError};
use bncg_graph::{diameter, generators, RootedTree};

/// Lemma 2.4: cycles are in BSE inside a `Θ(n²)` window of α. The
/// measured exact window is compared against the worked-out formula
/// window (even n: `(n²/4 − (n−1), n(n−2)/4]`; odd n:
/// `((n+1)(n−1)/4 − (n−1), (n−1)²/4]`).
///
/// # Errors
///
/// Forwards checker guards.
pub fn cycles_bse(report: &mut Report, quick: bool) -> Result<(), GameError> {
    let ns: Vec<usize> = if quick {
        vec![4, 5, 6]
    } else {
        vec![4, 5, 6, 7]
    };
    let section = report.section("Lemma 2.4: cycles in BSE for α ∈ Θ(n²)");
    section.note("measured = exact BSE over a quarter-integer α grid; window = formula from the lemma's proof");
    let table = section.table(["n", "measured stable α range", "formula window", "agrees"]);
    for n in ns {
        let g = generators::cycle(n);
        // Formula window (lower exclusive, upper inclusive).
        let (lo4, hi4) = if n % 2 == 0 {
            ((n * n - 4 * (n - 1)) as i64, (n * (n - 2)) as i64)
        } else {
            (
                ((n + 1) * (n - 1) - 4 * (n - 1)) as i64,
                ((n - 1) * (n - 1)) as i64,
            )
        }; // both in quarter units (value·4)
        let mut first_stable: Option<i64> = None;
        let mut last_stable: Option<i64> = None;
        let mut contiguous = true;
        let mut prev_stable = false;
        for q in 1..=(hi4 + 8) {
            let alpha = Alpha::from_ratio(q, 4).expect("grid α");
            let stable = Concept::Bse.is_stable(&g, alpha)?;
            if stable {
                if first_stable.is_none() {
                    first_stable = Some(q);
                } else if !prev_stable {
                    contiguous = false;
                }
                last_stable = Some(q);
            }
            prev_stable = stable;
        }
        let measured = match (first_stable, last_stable) {
            (Some(a), Some(b)) => format!("[{}/4, {}/4]", a, b),
            _ => "empty".to_string(),
        };
        // The formula window must be contained in the measured stable set.
        let mut contained = true;
        if let (Some(a), Some(b)) = (first_stable, last_stable) {
            if lo4 + 1 < a || hi4 > b {
                contained = false;
            }
        } else {
            contained = false;
        }
        assert!(
            contained,
            "Lemma 2.4 window not contained in the measured stable range for C{n}"
        );
        table.row([
            n.to_string(),
            format!("{measured}{}", if contiguous { "" } else { " (gaps)" }),
            format!("({}/4, {}/4]", lo4, hi4),
            contained.to_string(),
        ]);
    }
    Ok(())
}

/// Proposition 3.16: for α < 1 the clique is the only BSE; at α = 1
/// exactly the diameter ≤ 2 graphs; for α > 1 the star plus others (the
/// 4-path at α = 100).
///
/// # Errors
///
/// Forwards enumeration/checker guards.
pub fn prop_3_16(report: &mut Report, quick: bool) -> Result<(), GameError> {
    let n = if quick { 5 } else { 6 };
    let graphs = bncg_graph::enumerate::connected_graphs(n).map_err(GameError::Graph)?;
    let below: Alpha = "1/2".parse().expect("α");
    let at_one = Alpha::integer(1).expect("α");
    let mut clique_only = true;
    let mut diam2_exact = true;
    for g in &graphs {
        let is_clique = g.m() == n * (n - 1) / 2;
        if Concept::Bse.is_stable(g, below)? != is_clique {
            clique_only = false;
        }
        let diam_ok = diameter(g).is_some_and(|d| d <= 2);
        if Concept::Bse.is_stable(g, at_one)? != diam_ok {
            diam2_exact = false;
        }
    }
    assert!(clique_only && diam2_exact);
    let star_stable =
        Concept::Bse.is_stable(&generators::star(n), Alpha::integer(2).expect("α"))?;
    let p4_stable =
        Concept::Bse.is_stable(&generators::path(4), Alpha::integer(100).expect("α"))?;
    assert!(star_stable && p4_stable);
    let section = report.section(format!(
        "Proposition 3.16: the BSE landscape (exhaustive, n = {n})"
    ));
    let table = section.table(["claim", "verified"]);
    table
        .row(["α < 1: clique is the only BSE", &clique_only.to_string()])
        .row(["α = 1: BSE ⟺ diameter ≤ 2", &diam2_exact.to_string()])
        .row(["α > 1: star is in BSE", &star_stable.to_string()])
        .row(["α = 100: P4 is in BSE (non-star)", &p4_stable.to_string()]);
    Ok(())
}

/// Proposition 3.22: at α = n no graph family keeps every agent's
/// normalized cost bounded by a constant — the best known families' worst
/// agent grows like `log n`.
///
/// # Errors
///
/// Never fails; the signature matches the other runners.
pub fn prop_3_22(report: &mut Report, quick: bool) -> Result<(), GameError> {
    let ns: Vec<usize> = if quick {
        vec![64, 256, 1024]
    } else {
        vec![64, 256, 1024, 4096, 16384]
    };
    let section = report.section("Proposition 3.22: no evenly-spread constant cost at α = n");
    section.note(
        "minimum over candidate families of max-agent cost/(α+n−1); growth ⇒ no constant p exists",
    );
    let table = section.table([
        "n",
        "star",
        "binary tree",
        "8-ary tree",
        "min over families",
    ]);
    for n in ns {
        let alpha = Alpha::integer(n as i64).expect("α");
        let star = worst_normalized(&generators::star(n), alpha);
        let bin = worst_normalized(&generators::almost_complete_dary_tree(2, n), alpha);
        let oct = worst_normalized(&generators::almost_complete_dary_tree(8, n), alpha);
        let min = star.min(bin).min(oct);
        table.row([n.to_string(), fnum(star), fnum(bin), fnum(oct), fnum(min)]);
    }
    Ok(())
}

fn worst_normalized(g: &bncg_graph::Graph, alpha: Alpha) -> f64 {
    let n = g.n();
    let t = RootedTree::new(g, 0).expect("families are trees");
    let sums = t.dist_sums();
    let mut worst: f64 = 0.0;
    for u in 0..n as u32 {
        let cost = alpha.as_f64() * g.degree(u) as f64 + sums[u as usize] as f64;
        worst = worst.max(cost / (alpha.as_f64() + n as f64 - 1.0));
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_report_runs_quick() {
        let mut r = Report::new();
        cycles_bse(&mut r, true).unwrap();
        assert!(r.render().contains("Lemma 2.4"));
    }

    #[test]
    fn prop_3_16_runs_quick() {
        let mut r = Report::new();
        prop_3_16(&mut r, true).unwrap();
        assert!(r.render().contains("clique"));
    }

    #[test]
    fn prop_3_22_shows_growth() {
        let mut r = Report::new();
        prop_3_22(&mut r, true).unwrap();
        let text = r.render();
        assert!(text.contains("3.22"));
        // The binary-tree family's worst agent grows between n = 64 and 1024.
        let alpha64 = Alpha::integer(64).unwrap();
        let alpha1024 = Alpha::integer(1024).unwrap();
        let small = worst_normalized(&generators::almost_complete_dary_tree(2, 64), alpha64);
        let large = worst_normalized(&generators::almost_complete_dary_tree(2, 1024), alpha1024);
        assert!(large > small);
    }
}
