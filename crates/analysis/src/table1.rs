//! Regenerating **Table 1** — the paper's asymptotic PoA bounds per
//! solution concept — as measured data.
//!
//! Each `row_*` function appends one section to a [`Report`]:
//!
//! | Row | Paper's bound | What is measured |
//! |---|---|---|
//! | PS | `Θ(min{√α, n/√α})` | exhaustive tree PoA over an α grid vs. the envelope |
//! | BSwE | `Θ(log α)` | exhaustive tree PoA; Theorem 3.6 upper bound asserted |
//! | BGE | `Θ(log α)` | Theorem 3.10 stretched-tree-star lower bound, exact BGE certification, ρ vs. `¼log α − 17/8` |
//! | BNE | `Θ(log α)` for large α, `Θ(1)` for `α ≤ √n` | Lemma 3.11-certified stars + sampled refutation; Theorem 3.13 spot check |
//! | 3-BSE | `Θ(1)` | exhaustive tree PoA under 3-BSE vs. the constant 25; 2-BSE inherits the BGE lower bound (Prop. 3.7) |
//! | BSE | `Θ(1)` for most α | exact tiny-n general-graph PoA + Lemma 3.18 d-ary regimes vs. Theorems 3.19–3.21 |

use crate::empirical;
use crate::report::{fnum, Report};
use bncg_atlas::DynAtlas;
use bncg_constructions::stretched::{
    lemma_3_11_certificate, theorem_3_10_instance, theorem_3_12_i_instance,
};
use bncg_core::concepts::bne::SplitMix;
use bncg_core::solver::{ExecPolicy, Solver, StabilityQuery, Verdict};
use bncg_core::{bounds, concepts, social_cost_ratio, Alpha, Concept, CostModelSpec, GameError};
use bncg_graph::{generators, Graph, RootedTree};

fn alpha_int(v: i64) -> Alpha {
    Alpha::integer(v).expect("positive α")
}

/// Notes a sweep section's shared batch budget, if the policy carries
/// one — the per-α exhausted counts in the `stable` column then read as
/// load shedding against this pool, not per-instance budget stops.
/// Attached only to the **exponential** rows (3-BSE, BSE): polynomial
/// checks complete eagerly before the pool logic and can never be shed,
/// so the note would be false on the PS/BSwE rows.
fn note_batch_budget(section: &mut crate::report::Section, policy: &ExecPolicy) {
    if let Some(b) = policy.batch_budget {
        section.note(format!(
            "batch budget: each α sweep drains one shared pool of {b} \
             candidate evaluations; instances past the pool are counted \
             as exhausted (load shedding), not checked"
        ));
    }
}

/// Notes how much of a sweep the precomputed atlas absorbed, when any
/// of it. Hits are served at zero solver cost — they never touch the
/// sweep's eval pool — so a partially-hit budgeted row sheds strictly
/// less than an unaided one.
fn note_atlas_hits(section: &mut crate::report::Section, points: &[empirical::PoaPoint]) {
    let hits: usize = points.iter().map(|p| p.atlas_hits).sum();
    if hits > 0 {
        let total: usize = points.iter().map(|p| p.total).sum();
        section.note(format!(
            "atlas: {hits}/{total} verdicts served from the precomputed \
             corpus at zero solver cost"
        ));
    }
}

/// A sweep section title, suffixed with the cost-model token when the
/// row runs under a non-default model (default rows keep their exact
/// historical titles).
fn title_under(prefix: &str, n: usize, model: CostModelSpec) -> String {
    if model.is_default() {
        format!("{prefix}, n = {n})")
    } else {
        format!("{prefix}, n = {n}) under {}", model.token())
    }
}

/// Notes the pricing model on non-default rows; paper bounds in the
/// section are reference values there, not assertions.
fn note_cost_model(section: &mut crate::report::Section, model: CostModelSpec) {
    if !model.is_default() {
        section.note(format!(
            "cost model: every stability check and ρ priced under              {}; the paper's bounds are sum-of-distances statements              and are shown for reference only",
            model.token()
        ));
    }
}

/// Renders a PoA point's stable-count cell, flagging instances whose
/// checks exhausted the execution policy — those verdicts are unknown,
/// so the row is explicitly partial rather than silently exact.
fn stable_cell(point: &empirical::PoaPoint) -> String {
    if point.exhausted > 0 {
        format!(
            "{}/{} ({} exhausted)",
            point.stable_count, point.total, point.exhausted
        )
    } else {
        format!("{}/{}", point.stable_count, point.total)
    }
}

/// Renders a PoA value cell, marking it partial when exhausted checks
/// were excluded (the true worst case can only be at least this, or is
/// entirely unknown when nothing certified as stable).
fn rho_cell(point: &empirical::PoaPoint) -> String {
    match (point.max_rho, point.exhausted) {
        (Some(rho), 0) => fnum(rho),
        (Some(rho), _) => format!("≥ {} (partial)", fnum(rho)),
        (None, 0) => "–".into(),
        (None, e) => format!("? ({e} exhausted)"),
    }
}

/// PS row: exhaustive tree PoA vs. the `min{√α, n/√α}` envelope, with
/// the sweep priced under `model`. The paper's envelope is a
/// default-model statement, so a non-default row shows it for reference
/// without asserting against it.
///
/// # Errors
///
/// Forwards enumeration/checker guards.
pub fn row_ps(
    report: &mut Report,
    quick: bool,
    policy: &ExecPolicy,
    atlas: Option<&DynAtlas>,
    model: CostModelSpec,
) -> Result<(), GameError> {
    let n = if quick { 9 } else { 10 };
    let alphas: Vec<Alpha> = [1, 2, 4, 8, 16, 32, 64, 128].map(alpha_int).to_vec();
    let points = empirical::tree_poa_grid(n, &alphas, Concept::Ps, model, policy, atlas)?;
    let section = report.section(title_under("Table 1 / PS on trees (exhaustive", n, model));
    section.note("paper: PoA = Θ(min{√α, n/√α}); the measured curve should rise then fall with the crossover near α ≈ n²ish scale");
    note_cost_model(section, model);
    note_atlas_hits(section, &points);
    let table = section.table([
        "α",
        "PoA(PS)",
        "envelope",
        "stable trees",
        "worst tree (graph6)",
    ]);
    for point in &points {
        let alpha = point.alpha;
        let witness = point
            .worst
            .as_ref()
            .map(|g| bncg_graph::graph6::encode(g).expect("small graph"))
            .unwrap_or("–".into());
        table.row([
            alpha.to_string(),
            rho_cell(point),
            fnum(bounds::ps_poa_envelope(alpha, n)),
            stable_cell(point),
            witness,
        ]);
    }
    Ok(())
}

/// BSwE row: exhaustive tree PoA with Theorem 3.6's `2 + 2log α`,
/// priced under `model`. The theorem is asserted only on the default
/// model, where it is a theorem.
///
/// # Errors
///
/// Forwards enumeration/checker guards; fails loudly if the theorem's
/// bound were violated.
pub fn row_bswe(
    report: &mut Report,
    quick: bool,
    policy: &ExecPolicy,
    atlas: Option<&DynAtlas>,
    model: CostModelSpec,
) -> Result<(), GameError> {
    let n = if quick { 9 } else { 10 };
    let alphas: Vec<Alpha> = [1, 2, 4, 8, 16, 32, 64, 128].map(alpha_int).to_vec();
    let points = empirical::tree_poa_grid(n, &alphas, Concept::Bswe, model, policy, atlas)?;
    let section = report.section(title_under("Table 1 / BSwE on trees (exhaustive", n, model));
    section
        .note("paper: PoA = Θ(log α); Theorem 3.6 upper bound 2 + 2·log₂ α checked on every point");
    note_cost_model(section, model);
    note_atlas_hits(section, &points);
    let table = section.table(["α", "PoA(BSwE)", "2 + 2log₂α", "stable trees"]);
    for point in &points {
        let alpha = point.alpha;
        let bound = bounds::theorem_3_6_bound(alpha);
        if let Some(rho) = point.max_rho {
            // The theorem is a default-model statement; other models
            // show the bound for reference only.
            assert!(
                !model.is_default() || rho <= bound + 1e-9,
                "Theorem 3.6 violated at α = {alpha}"
            );
        }
        table.row([
            alpha.to_string(),
            rho_cell(point),
            fnum(bound),
            stable_cell(point),
        ]);
    }
    Ok(())
}

/// BGE row: the Theorem 3.10 lower-bound family, exactly certified.
///
/// # Errors
///
/// Forwards checker guards.
pub fn row_bge(report: &mut Report, quick: bool) -> Result<(), GameError> {
    let alphas: Vec<i64> = if quick {
        vec![240, 480]
    } else {
        vec![240, 480, 960]
    };
    let section = report.section("Table 1 / BGE on trees (Theorem 3.10 lower bound family)");
    section.note(
        "stretched tree star with k = 1, t = α/15, η = α; BGE certified by the exact checkers",
    );
    section
        .note("paper: ρ ≥ ¼·log₂ α − 17/8 for sufficiently large α (the constant is asymptotic)");
    let table = section.table(["α", "n", "ρ(G)", "¼log₂α − 17/8", "BGE certified"]);
    for v in alphas {
        let alpha = alpha_int(v);
        let star = theorem_3_10_instance(v as usize, v as usize);
        let certified = Concept::Bge.is_stable(&star.graph, alpha)?;
        assert!(certified, "Theorem 3.10 instance must be BGE at α = {v}");
        let rho = social_cost_ratio(&star.graph, alpha)?.as_f64();
        table.row([
            alpha.to_string(),
            star.graph.n().to_string(),
            fnum(rho),
            fnum(bounds::theorem_3_10_lower(alpha)),
            certified.to_string(),
        ]);
    }
    Ok(())
}

/// BNE row: certified `Ω(log α)` instances for large α and the
/// Theorem 3.13 constant-PoA regime for `α ≤ √n`.
///
/// # Errors
///
/// Forwards checker guards.
pub fn row_bne(report: &mut Report, quick: bool) -> Result<(), GameError> {
    // Part (a): Theorem 3.12(i) stretched tree stars, certified by the
    // exact Lemma 3.11 inequality plus a sampled refutation search.
    let etas: Vec<usize> = if quick {
        vec![1 << 12, 1 << 14]
    } else {
        vec![1 << 12, 1 << 14, 1 << 16]
    };
    let section = report.section("Table 1 / BNE on trees, α ≥ n^{1/2+ε} (Theorem 3.12(i) family)");
    section.note(
        "stretched tree star with α = 9η, ε = 1; BNE certified via the exact Lemma 3.11 inequality",
    );
    section.note("sampled neighborhood-move refuter additionally found no improving move (evidence, not proof)");
    let table = section.table([
        "η",
        "α",
        "n",
        "ρ(G)",
        "(ε/168)log₂α − 3/28",
        "Lemma 3.11",
        "sampled refuter",
    ]);
    for eta in etas {
        let alpha_v = 9 * eta as i64;
        let alpha = alpha_int(alpha_v);
        let star = theorem_3_12_i_instance(alpha_v as usize, eta, 1.0);
        let cert = lemma_3_11_certificate(&star, alpha);
        assert!(cert, "Lemma 3.11 must certify the Theorem 3.12(i) instance");
        let samples = if quick { 2_000 } else { 20_000 };
        let refuted = concepts::bne::find_violation_sampled(
            &star.graph,
            alpha,
            &mut SplitMix(0xBEEF),
            samples,
        );
        assert!(
            refuted.is_none(),
            "sampled refuter contradicts the Lemma 3.11 certificate"
        );
        let rho = social_cost_ratio(&star.graph, alpha)?.as_f64();
        table.row([
            eta.to_string(),
            alpha.to_string(),
            star.graph.n().to_string(),
            fnum(rho),
            fnum(bounds::theorem_3_12_i_lower(1.0, alpha)),
            "holds".to_string(),
            "none found".to_string(),
        ]);
    }

    // Part (b): Theorem 3.13 — trees in BNE at α ≤ √n have ρ ≤ 4.
    let n = 16usize;
    let samples = if quick { 15 } else { 60 };
    let section =
        report.section("Table 1 / BNE on trees, α ≤ √n (Theorem 3.13 spot check, n = 16)");
    section.note(
        "sampled trees plus named shapes; exact BNE check; every stable tree must satisfy ρ ≤ 4",
    );
    let table = section.table(["α", "trees checked", "in BNE", "max ρ among BNE", "bound"]);
    for alpha_v in [2i64, 3, 4] {
        let alpha = alpha_int(alpha_v);
        let mut corpus: Vec<Graph> = vec![
            generators::star(n),
            generators::double_star(7, 7),
            generators::spider(5, 3),
            generators::broom(4, 11),
            generators::path(n),
        ];
        let mut rng = bncg_graph::test_rng(1234 + alpha_v as u64);
        for _ in 0..samples {
            corpus.push(generators::random_tree(n, &mut rng));
        }
        let mut stable = 0usize;
        let mut max_rho = f64::NAN;
        for tree in &corpus {
            if Concept::Bne.is_stable(tree, alpha)? {
                stable += 1;
                let rho = social_cost_ratio(tree, alpha)?.as_f64();
                if max_rho.is_nan() || rho > max_rho {
                    max_rho = rho;
                }
            }
        }
        assert!(
            max_rho.is_nan() || max_rho <= bounds::theorem_3_13_bound() + 1e-9,
            "Theorem 3.13 violated at α = {alpha_v}"
        );
        table.row([
            alpha.to_string(),
            corpus.len().to_string(),
            stable.to_string(),
            fnum(max_rho),
            fnum(bounds::theorem_3_13_bound()),
        ]);
    }

    // Part (c): the branch-and-bound generator's new scale — *exact*
    // BNE verdicts at n = 24, a size the legacy n ≤ 21 raw-space guard
    // refused outright and the dense mask loops could not iterate. The
    // solver runs each pinned instance under a finite eval budget; the
    // verdicts are conclusive, with the evaluation counts showing how
    // little of the 24·2²³ raw space is ever priced.
    let section = report
        .section("Table 1 / BNE at n = 24 (exact verdicts via the branch-and-bound generator)");
    section.note(
        "pinned instances, 2·10⁶-eval budget; the n ≤ 21 guard previously refused all of these",
    );
    let table = section.table(["instance", "α", "in BNE", "evals", "pruned"]);
    let solver = Solver::new(ExecPolicy::default().with_eval_budget(2_000_000));
    for (name, g, alpha, expect_stable) in &bne_n24_instances() {
        let (stable, evals, pruned) =
            match solver.check(&StabilityQuery::new(Concept::Bne, g, *alpha))? {
                Verdict::Stable { evals, pruned, .. } => (true, evals, Some(pruned)),
                // Early-exit scans stop counting skips at the witness,
                // so an honest cell shows "no total" rather than 0.
                Verdict::Unstable { evals, .. } => (false, evals, None),
                Verdict::Exhausted { .. } => {
                    unreachable!("the pinned n = 24 instances complete under the budget")
                }
            };
        assert_eq!(stable, *expect_stable, "{name} verdict drifted");
        table.row([
            (*name).to_string(),
            alpha.to_string(),
            stable.to_string(),
            evals.to_string(),
            pruned.map_or("—".to_string(), |p| p.to_string()),
        ]);
    }
    Ok(())
}

/// The pinned n = 24 BNE kernel instances — one definition shared by
/// the Table 1 n = 24 section, the `tests/generator.rs` acceptance
/// test, and the `ci_gate` generator kernels, so the table, the tests,
/// and the perf gate always speak about the same instances:
/// `(name, graph, α, stable)`. All four complete *exactly* under a
/// 2·10⁶-eval budget; the legacy n ≤ 21 raw-space guard refused every
/// one of them.
///
/// # Panics
///
/// Panics if the pinned G(24, 0.4) seed stops yielding a diameter-2
/// draw — Proposition 3.16 is what makes that instance BNE-stable at
/// α = 1.
#[must_use]
pub fn bne_n24_instances() -> Vec<(&'static str, Graph, Alpha, bool)> {
    let mut rng = bncg_graph::test_rng(0x24BE);
    let gnp24 = generators::random_connected(24, 0.4, &mut rng);
    assert!(
        bncg_graph::diameter(&gnp24).expect("connected") <= 2,
        "the pinned seed must give a diameter-2 instance"
    );
    vec![
        ("star24", generators::star(24), alpha_int(2), true),
        // Inside C24's Lemma 2.4 BSE stability window ((121, 132]).
        ("cycle24", generators::cycle(24), alpha_int(126), true),
        ("gnp24 (diam 2)", gnp24, alpha_int(1), true),
        ("path24", generators::path(24), alpha_int(2), false),
    ]
}

/// 3-BSE row: exhaustive tree PoA under 3-BSE (constant), with the 2-BSE
/// `Ω(log α)` contrast inherited from BGE via Proposition 3.7, priced
/// under `model`. Theorem 3.15 is asserted only on the default model.
///
/// # Errors
///
/// Forwards enumeration/checker guards.
pub fn row_3bse(
    report: &mut Report,
    quick: bool,
    policy: &ExecPolicy,
    atlas: Option<&DynAtlas>,
    model: CostModelSpec,
) -> Result<(), GameError> {
    let n = if quick { 8 } else { 9 };
    let alphas: Vec<Alpha> = [1, 2, 4, 8, 16, 32].map(alpha_int).to_vec();
    let threes = empirical::tree_poa_grid(n, &alphas, Concept::KBse(3), model, policy, atlas)?;
    let twos = empirical::tree_poa_grid(n, &alphas, Concept::KBse(2), model, policy, atlas)?;
    let section = report.section(title_under(
        "Table 1 / 3-BSE on trees (exhaustive",
        n,
        model,
    ));
    note_cost_model(section, model);
    section.note("paper: PoA ≤ 25 (Theorem 3.15); 2-BSE column shows the strictly weaker concept (Ω(log α) via Prop 3.7 + Theorem 3.10)");
    note_batch_budget(section, policy);
    note_atlas_hits(section, &threes);
    let table = section.table(["α", "PoA(3-BSE)", "PoA(2-BSE)", "bound(3-BSE)"]);
    for (three, two) in threes.iter().zip(&twos) {
        if let Some(rho) = three.max_rho {
            assert!(
                !model.is_default() || rho <= 25.0 + 1e-9,
                "Theorem 3.15 violated at α = {}",
                three.alpha
            );
        }
        table.row([
            three.alpha.to_string(),
            rho_cell(three),
            rho_cell(two),
            fnum(bounds::theorem_3_15_bound()),
        ]);
    }
    Ok(())
}

/// BSE row: exact tiny-n general-graph PoA plus the Lemma 3.18 d-ary
/// regimes against Theorems 3.19–3.21. The exact sweep is priced under
/// `model`; the d-ary regimes are default-model machinery (worst-agent
/// cost against the default optimum), so a non-default row renders only
/// the exact tiny-n sweep.
///
/// # Errors
///
/// Forwards enumeration/checker guards.
pub fn row_bse(
    report: &mut Report,
    quick: bool,
    policy: &ExecPolicy,
    atlas: Option<&DynAtlas>,
    model: CostModelSpec,
) -> Result<(), GameError> {
    // (a) Exact general-graph BSE PoA at tiny n.
    let n = if quick { 5 } else { 6 };
    let alphas: Vec<Alpha> = ["1/2", "1", "3/2", "2", "4", "8", "16"]
        .map(|s| s.parse().expect("grid α"))
        .to_vec();
    let points = empirical::graph_poa_grid(n, &alphas, Concept::Bse, model, policy, atlas)?;
    let section = report.section(title_under(
        "Table 1 / BSE on general graphs (exact",
        n,
        model,
    ));
    note_cost_model(section, model);
    section.note("paper: Θ(1) for α ≤ n^{1−ε} and α ≥ n·log n; the exact tiny-n PoA stays near 1 across the grid");
    note_batch_budget(section, policy);
    note_atlas_hits(section, &points);
    let table = section.table(["α", "PoA(BSE)", "stable graphs"]);
    for point in &points {
        table.row([point.alpha.to_string(), rho_cell(point), stable_cell(point)]);
    }

    if !model.is_default() {
        return Ok(());
    }
    // (b) Lemma 3.18 regimes: worst-agent normalized cost of almost
    // complete d-ary trees vs. the theorems' constants.
    let ns: Vec<usize> = if quick {
        vec![1 << 10, 1 << 12]
    } else {
        vec![1 << 10, 1 << 12, 1 << 14]
    };
    let section = report.section("Table 1 / BSE regimes via Lemma 3.18 (d-ary trees)");
    section.note("max-agent cost divided by α + n − 1 upper bounds ρ of ANY BSE (Lemma 3.17)");
    let table = section.table([
        "n",
        "regime",
        "d",
        "α",
        "max agent cost/(α+n−1)",
        "theorem bound",
    ]);
    for &n in &ns {
        let log2n = (n as f64).log2();
        // Regime 1: α = n·log₂ n, d = 2 (Theorem 3.19: ρ ≤ 5).
        let alpha1 = alpha_int((n as f64 * log2n) as i64);
        push_dary_row(
            table,
            n,
            "α = n·log n",
            2,
            alpha1,
            "Theorem 3.19",
            bounds::theorem_3_19_bound(),
        );
        // Regime 2: α = n^{1−ε} with ε = 1/2, d = ⌈n^ε⌉ (Thm 3.20: 3 + 2/ε).
        let alpha2 = alpha_int((n as f64).sqrt() as i64);
        let d2 = (n as f64).sqrt().ceil() as usize;
        push_dary_row(
            table,
            n,
            "α = √n",
            d2,
            alpha2,
            "Theorem 3.20",
            bounds::theorem_3_20_bound(0.5),
        );
        // Regime 3: α = n, d = ⌈log₂ log₂ n⌉ (Theorem 3.21 envelope).
        let alpha3 = alpha_int(n as i64);
        let d3 = (log2n.log2().ceil() as usize).max(2);
        push_dary_row(
            table,
            n,
            "α = n",
            d3,
            alpha3,
            "Theorem 3.21",
            bounds::theorem_3_21_bound(n),
        );
    }
    Ok(())
}

fn push_dary_row(
    table: &mut crate::report::Table,
    n: usize,
    regime: &str,
    d: usize,
    alpha: Alpha,
    theorem: &str,
    bound: f64,
) {
    let g = generators::almost_complete_dary_tree(d, n);
    let t = RootedTree::new(&g, 0).expect("d-ary tree is a tree");
    let sums = t.dist_sums();
    let lemma_bound = bounds::lemma_3_18_bound(d, n, alpha);
    let mut worst = 0.0f64;
    for u in 0..n as u32 {
        let cost = alpha.as_f64() * g.degree(u) as f64 + sums[u as usize] as f64;
        assert!(
            cost <= lemma_bound + 1e-6,
            "Lemma 3.18 violated (n={n}, d={d}, u={u})"
        );
        let normalized = cost / (alpha.as_f64() + n as f64 - 1.0);
        worst = worst.max(normalized);
    }
    assert!(
        worst <= bound + 1e-6,
        "{theorem} bound violated (n={n}, d={d})"
    );
    table.row([
        n.to_string(),
        regime.to_string(),
        d.to_string(),
        alpha.to_string(),
        fnum(worst),
        fnum(bound),
    ]);
}

/// Runs every Table 1 row into a fresh report. An optional
/// precomputed atlas answers stored instances of the enumeration sweeps
/// at zero solver cost, noting the hit share per section. The sweeps are
/// priced under `model`; the construction-certifying rows (BGE, BNE) are
/// default-model proofs and render only on the default model, and the
/// sweep rows downgrade the paper's bounds to reference values on any
/// other model.
///
/// # Errors
///
/// Forwards the per-row errors.
pub fn full_table(
    quick: bool,
    policy: &ExecPolicy,
    atlas: Option<&DynAtlas>,
    model: CostModelSpec,
) -> Result<Report, GameError> {
    let mut report = Report::new();
    row_ps(&mut report, quick, policy, atlas, model)?;
    row_bswe(&mut report, quick, policy, atlas, model)?;
    if model.is_default() {
        row_bge(&mut report, quick)?;
        row_bne(&mut report, quick)?;
    }
    row_3bse(&mut report, quick, policy, atlas, model)?;
    row_bse(&mut report, quick, policy, atlas, model)?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bncg_core::CostModelSpec::SumDistances;

    #[test]
    fn ps_and_bswe_rows_render() {
        let mut r = Report::new();
        let policy = ExecPolicy::default().with_threads(2);
        row_ps(&mut r, true, &policy, None, SumDistances).unwrap();
        row_bswe(&mut r, true, &policy, None, SumDistances).unwrap();
        let text = r.render();
        assert!(text.contains("PS on trees"));
        assert!(text.contains("BSwE on trees"));
        assert!(!text.contains("atlas:"), "no atlas, no hit note");
    }

    #[test]
    fn batch_budget_note_renders_on_exponential_rows_only() {
        // A pooled policy flags the exponential sweep sections so
        // partial rows read as load shedding; the polynomial PS row
        // completes eagerly before the pool logic, so it must NOT carry
        // the (false-there) note.
        let mut r = Report::new();
        let policy = ExecPolicy::default().with_batch_budget(100_000);
        row_3bse(&mut r, true, &policy, None, SumDistances).unwrap();
        assert!(r.render().contains("batch budget"));
        let mut r = Report::new();
        row_ps(&mut r, true, &policy, None, SumDistances).unwrap();
        assert!(!r.render().contains("batch budget"));
    }

    #[test]
    fn bse_row_consumes_an_atlas_when_present() {
        use bncg_atlas::{build, AlphaSpec, Atlas, BuildSpec, MemoryBacking, RamBacking};
        // Cover exactly the BSE row's tiny-n sweep (n = 5 in quick
        // mode) for two of its grid α values; the row must serve those
        // from the corpus and note the hit share.
        let spec = BuildSpec {
            max_n: 5,
            grid: vec![
                AlphaSpec::Fixed(Alpha::from_ratio(1, 2).unwrap()),
                AlphaSpec::Fixed(Alpha::integer(2).unwrap()),
            ],
            concepts: vec![Concept::Bse],
        };
        let backing: Box<dyn MemoryBacking + Send + Sync> = Box::new(RamBacking::new());
        let mut atlas = Atlas::open(backing).unwrap();
        build(&mut atlas, &spec, 10_000_000, None).unwrap();

        let mut with = Report::new();
        row_bse(
            &mut with,
            true,
            &ExecPolicy::default(),
            Some(&atlas),
            SumDistances,
        )
        .unwrap();
        let text = with.render();
        assert!(text.contains("atlas:"), "hit note must render: {text}");

        let mut without = Report::new();
        row_bse(
            &mut without,
            true,
            &ExecPolicy::default(),
            None,
            SumDistances,
        )
        .unwrap();
        // Served verdicts change provenance, never the table itself.
        let strip = |s: &str| {
            s.lines()
                .filter(|l| !l.contains("atlas:"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(
            strip(&text),
            strip(&without.render()),
            "atlas-backed row must render the identical table"
        );
    }

    #[test]
    fn bge_row_certifies_lower_bound_instance() {
        let mut r = Report::new();
        row_bge(&mut r, true).unwrap();
        assert!(r.render().contains("Theorem 3.10"));
    }

    #[test]
    fn bse_regime_rows_respect_bounds() {
        let mut r = Report::new();
        row_bse(&mut r, true, &ExecPolicy::default(), None, SumDistances).unwrap();
        let text = r.render();
        assert!(text.contains("Lemma 3.18"));
        assert!(text.contains("α = n·log n"));
    }
}
