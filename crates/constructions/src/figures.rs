//! Explicit witness graphs from the paper's figures.
//!
//! * [`figure5`] — in BAE ∩ BGE but not BNE (Proposition A.4, α = 104.5);
//! * [`figure6`] — in BNE but not 2-BSE (Proposition A.5, α = 7);
//! * [`figure7`] — in k-BSE but not BNE (Proposition A.7, α = 4i − 4);
//! * [`figure8_witness`] — in BAE but not in unilateral Add Equilibrium
//!   (Proposition 2.1's reverse direction). The paper's 28-node drawing is
//!   not fully specified in the text; a 6-node double star certifies the
//!   same separation and is used instead (documented substitution).
//!
//! Figure 6's edge list is likewise reconstructed: the text pins down the
//! distance costs (`dist(a1) = 19`, `dist(b1) = 27`, `dist(c1) = 19`), the
//! group symmetry, and the violating coalition `{a1, a3}`; the unique
//! topology satisfying all of these is two matched `a`-pairs cross-linked
//! by the `c`-agents with one pendant `b` per `a`. The tests verify every
//! stated quantity.

use bncg_core::{Alpha, Move};
use bncg_graph::Graph;

/// A figure instance: the graph, its price, and the move the figure is
/// about (the violation it exhibits, if it exhibits one).
#[derive(Debug, Clone)]
pub struct FigureInstance {
    /// The witness graph.
    pub graph: Graph,
    /// The edge price used in the figure.
    pub alpha: Alpha,
    /// The deviating move the figure illustrates, if any.
    pub violation: Option<Move>,
}

/// Figure 5 (Proposition A.4): a 107-node tree in BAE and BGE but not in
/// BNE at `α = 104.5`.
///
/// Center `a` (node 0) is adjacent to `b1`, `b2` and one hundred leaves
/// `e_i`; two paths `b_i − c_i − d_i` hang off the `b`s. Agent `a` cannot
/// profit from any *single* greedy change, but the simultaneous double
/// swap — drop both `b`s, connect to both `c`s — helps `a` by 2 and each
/// `c_i` by 105 > α.
///
/// # Examples
///
/// ```
/// use bncg_constructions::figures::figure5;
///
/// let fig = figure5();
/// assert_eq!(fig.graph.n(), 107);
/// assert!(fig.graph.is_tree());
/// ```
#[must_use]
pub fn figure5() -> FigureInstance {
    // Layout: a = 0, b1 = 1, b2 = 2, c1 = 3, c2 = 4, d1 = 5, d2 = 6,
    // e1..e100 = 7..106.
    let mut edges = vec![(0u32, 1u32), (0, 2), (1, 3), (2, 4), (3, 5), (4, 6)];
    for e in 7..107u32 {
        edges.push((0, e));
    }
    let graph = Graph::from_edges(107, edges).expect("figure 5 edge list is simple");
    FigureInstance {
        graph,
        alpha: Alpha::from_ratio(209, 2).expect("α = 104.5"),
        violation: Some(Move::Neighborhood {
            center: 0,
            remove: vec![1, 2],
            add: vec![3, 4],
        }),
    }
}

/// Figure 6 (Proposition A.5): a 10-node graph in BNE but not in 2-BSE at
/// `α = 7`.
///
/// Nodes: `a1..a4 = 0..3`, `b1..b4 = 4..7`, `c1 = 8`, `c2 = 9`. The `a`s
/// form two matched pairs (`a1a2`, `a3a4`), the `c`s cross-link the pairs
/// (`c1 ∼ {a1, a4}`, `c2 ∼ {a2, a3}`), and each `a_i` carries the pendant
/// `b_i`. The coalition `{a1, a3}` improves by dropping `a1c1` and `a3c2`
/// while adding `a1a3` — a move no single-agent neighborhood change can
/// imitate.
#[must_use]
pub fn figure6() -> FigureInstance {
    let edges = [
        (0u32, 1u32), // a1–a2
        (2, 3),       // a3–a4
        (8, 0),       // c1–a1
        (8, 3),       // c1–a4
        (9, 1),       // c2–a2
        (9, 2),       // c2–a3
        (0, 4),       // a1–b1
        (1, 5),       // a2–b2
        (2, 6),       // a3–b3
        (3, 7),       // a4–b4
    ];
    let graph = Graph::from_edges(10, edges).expect("figure 6 edge list is simple");
    FigureInstance {
        graph,
        alpha: Alpha::integer(7).expect("α = 7"),
        violation: Some(Move::Coalition {
            members: vec![0, 2],
            remove_edges: vec![(0, 8), (2, 9)],
            add_edges: vec![(0, 2)],
        }),
    }
}

/// Figure 7 (Proposition A.7): for `i` rows, the spider-of-paths with
/// center `a` and rows `a − b_j − c_j − d_j` at `α = 4i − 4`. With
/// `i = 20k` the paper proves it is in k-BSE but not in BNE: the center
/// swaps *all* `b`-edges for `c`-edges at once, which helps it and every
/// `c_j` but is far beyond any size-k coalition.
///
/// # Panics
///
/// Panics if `i < 2` (the price `4i − 4` must be positive).
#[must_use]
pub fn figure7(i: usize) -> FigureInstance {
    assert!(i >= 2, "figure 7 needs at least two rows");
    let n = 3 * i + 1;
    let mut edges = Vec::with_capacity(3 * i);
    for j in 0..i as u32 {
        let (b, c, d) = (1 + 3 * j, 2 + 3 * j, 3 + 3 * j);
        edges.push((0, b));
        edges.push((b, c));
        edges.push((c, d));
    }
    let graph = Graph::from_edges(n, edges).expect("figure 7 edge list is simple");
    FigureInstance {
        graph,
        alpha: Alpha::integer(4 * i as i64 - 4).expect("α = 4i − 4 > 0"),
        violation: Some(Move::Neighborhood {
            center: 0,
            remove: (0..i as u32).map(|j| 1 + 3 * j).collect(),
            add: (0..i as u32).map(|j| 2 + 3 * j).collect(),
        }),
    }
}

/// The number of rows Figure 7 uses for a given coalition bound `k`
/// (`i = 20k`).
#[must_use]
pub(crate) fn figure7_rows_for_k(k: usize) -> usize {
    20 * k
}

/// The executable certificate behind Proposition A.7's k-BSE claim at the
/// paper's scale (`i = 20k`, `α = 4i − 4`), checking the proof's
/// distance-accounting inequalities on the *actual graph*:
///
/// 1. every agent's summed distance to any row `R_j = {b_j, c_j, d_j}` is
///    at most 15, and at least 3 after any rewiring, so membership of a
///    row in the coalition is worth at most 12 — hence at most `12k`
///    total;
/// 2. `12k < α` — no `b`-agent will ever pay for an extra edge;
/// 3. `n + 12k < α` — no `c`-agent will either, even counting a full hop
///    towards the center.
///
/// These are the exact inequalities from which the proof's degree-counting
/// argument concludes stability; the function evaluates them in integer
/// arithmetic for the given `k` and returns whether all hold.
///
/// # Panics
///
/// Panics if `k == 0`.
#[must_use]
pub fn figure7_kbse_certificate(k: usize) -> bool {
    assert!(k >= 1, "coalition bound must be positive");
    let i = figure7_rows_for_k(k);
    let fig = figure7(i);
    let g = &fig.graph;
    let n = g.n() as i64;
    let alpha = 4 * i as i64 - 4;
    debug_assert_eq!(fig.alpha, Alpha::integer(alpha).expect("positive"));
    // Geometric facts, measured rather than assumed.
    let mut dist = Vec::new();
    let mut max_row_sum = 0i64;
    for u in 0..g.n() as u32 {
        bncg_graph::bfs_distances(g, u, &mut dist);
        for j in 0..i as u32 {
            let row_sum = i64::from(dist[(1 + 3 * j) as usize])
                + i64::from(dist[(2 + 3 * j) as usize])
                + i64::from(dist[(3 + 3 * j) as usize]);
            max_row_sum = max_row_sum.max(row_sum);
        }
    }
    // (1) geometry: row sums within [3, 15], so per-row value ≤ 12.
    let per_row_reduction = max_row_sum - 3;
    let geometric = max_row_sum <= 15 && per_row_reduction <= 12;
    // (2) b-agents: 12k < α. (3) c-agents: n + 12k < α.
    let b_inequality = 12 * (k as i64) < alpha;
    let c_inequality = n + 12 * (k as i64) < alpha;
    geometric && b_inequality && c_inequality
}

/// Figure 8's role (Proposition 2.1, reverse direction): a graph in BAE
/// that is **not** in unilateral Add Equilibrium for any edge assignment.
///
/// Substitution note: the paper's 28-node drawing is not fully specified
/// in the text, so the smallest graph we found with the same property is
/// used — the double star with two leaves per center at `α = 5/2`. A leaf
/// gains `3 > α` from unilaterally buying an edge to the far center, but
/// the far center itself gains only `1 < α`, so it never consents
/// bilaterally; no other pair profits mutually either. Unilateral add
/// stability is assignment-independent (the buyer pays regardless of who
/// owns the existing edges), so the single graph suffices.
#[must_use]
pub fn figure8_witness() -> FigureInstance {
    let graph = bncg_graph::generators::double_star(2, 2);
    FigureInstance {
        graph,
        alpha: Alpha::from_ratio(5, 2).expect("α = 5/2"),
        violation: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bncg_core::{agent_cost, concepts, delta, unilateral::UnilateralState, Concept};

    #[test]
    fn figure5_is_in_bae_and_bge_but_not_bne() {
        let fig = figure5();
        let (g, alpha) = (&fig.graph, fig.alpha);
        assert!(
            Concept::Bae.is_stable(g, alpha).unwrap(),
            "Figure 5 must be in BAE"
        );
        assert!(
            Concept::Bge.is_stable(g, alpha).unwrap(),
            "Figure 5 must be in BGE"
        );
        let mv = fig.violation.as_ref().unwrap();
        assert!(
            delta::move_improves_all(g, alpha, mv).unwrap(),
            "the double swap around a must improve a, c1, and c2"
        );
    }

    #[test]
    fn figure5_gains_match_the_papers_arithmetic() {
        // The single swap a: b1 → c1 helps a but gives c1 only 104 < α.
        let fig = figure5();
        let g = &fig.graph;
        let single = Move::Swap {
            agent: 0,
            old: 1,
            new: 3,
        };
        let g2 = single.apply(g).unwrap();
        let c1_gain = agent_cost(g, 3).dist - agent_cost(&g2, 3).dist;
        assert_eq!(c1_gain, 104);
        // The full neighborhood change gives c1 105 > α = 104.5 and a 2.
        let mv = fig.violation.as_ref().unwrap();
        let g3 = mv.apply(g).unwrap();
        assert_eq!(agent_cost(g, 3).dist - agent_cost(&g3, 3).dist, 105);
        assert_eq!(agent_cost(g, 0).dist - agent_cost(&g3, 0).dist, 2);
    }

    #[test]
    fn figure6_distance_costs_match_the_paper() {
        let fig = figure6();
        let g = &fig.graph;
        assert_eq!(g.n(), 10);
        assert_eq!(agent_cost(g, 0).dist, 19, "dist(a1) = 19");
        assert_eq!(agent_cost(g, 4).dist, 27, "dist(b1) = 27");
        assert_eq!(agent_cost(g, 8).dist, 19, "dist(c1) = 19");
        // Group symmetry: all a's, all b's, all c's share their cost.
        for i in 0..4u32 {
            assert_eq!(agent_cost(g, i).dist, 19);
            assert_eq!(agent_cost(g, 4 + i).dist, 27);
        }
        assert_eq!(agent_cost(g, 9).dist, 19);
    }

    #[test]
    fn figure6_is_in_bne_but_not_2bse() {
        let fig = figure6();
        let (g, alpha) = (&fig.graph, fig.alpha);
        assert!(
            Concept::Bne.is_stable(g, alpha).unwrap(),
            "Figure 6 must be in BNE at α = 7"
        );
        let mv = fig.violation.as_ref().unwrap();
        assert!(
            delta::move_improves_all(g, alpha, mv).unwrap(),
            "the {{a1, a3}} coalition move must improve both members"
        );
        // And the exact 2-BSE checker agrees.
        let found = Concept::KBse(2).find_violation(g, alpha).unwrap();
        assert!(found.is_some(), "2-BSE checker must find a violation");
    }

    #[test]
    fn figure7_violating_move_matches_the_papers_arithmetic() {
        for i in [4usize, 10, 40] {
            let fig = figure7(i);
            let g = &fig.graph;
            let mv = fig.violation.as_ref().unwrap();
            let g2 = mv.apply(g).unwrap();
            // c_j: from 4 + 12(i−1) to 3 + 8(i−1).
            let c0 = 2u32;
            assert_eq!(agent_cost(g, c0).dist, (4 + 12 * (i as u64 - 1)));
            assert_eq!(agent_cost(&g2, c0).dist, (3 + 8 * (i as u64 - 1)));
            // The move improves the center and every c_j at α = 4i − 4.
            assert!(delta::move_improves_all(g, fig.alpha, mv).unwrap());
        }
    }

    #[test]
    fn figure7_certificate_holds_at_paper_scale() {
        // Proposition A.7's inequalities verified on the real graphs at
        // i = 20k for k = 2, 3, 4.
        for k in [2usize, 3, 4] {
            assert!(
                figure7_kbse_certificate(k),
                "Figure 7 certificate must hold at k = {k}"
            );
        }
    }

    #[test]
    fn figure7_certificate_margins_are_tight_in_k() {
        // The c-inequality n + 12k < α reads 72k + 1 < 80k − 4: it holds
        // for every k ≥ 1 at the paper's i = 20k, but would fail if the
        // instance were scaled down to i = 10k (32k + 1 + 12k ≥ 40k − 4
        // for k ≤ 5/4... verify the failure numerically at k = 1, i = 10).
        let i = 10;
        let fig = figure7(i);
        let n = fig.graph.n() as i64;
        let alpha = 4 * i as i64 - 4;
        assert!(n + 12 >= alpha, "scaled-down instance must lose the margin");
    }

    #[test]
    fn figure7_small_coalitions_cannot_imitate() {
        // Restricted 2-BSE refutation on a mid-sized instance: no improving
        // coalition move with at most 2 members and ≤ 2 removals.
        let fig = figure7(10);
        assert!(
            concepts::kbse::find_violation_restricted(&fig.graph, fig.alpha, 2, 2, 1)
                .unwrap()
                .is_none(),
            "no small coalition move should exist at i = 10"
        );
    }

    #[test]
    fn figure8_separates_bae_from_unilateral_add() {
        let fig = figure8_witness();
        let (g, alpha) = (&fig.graph, fig.alpha);
        assert!(
            Concept::Bae.is_stable(g, alpha).unwrap(),
            "double star must be in BAE"
        );
        // Unilateral add instability holds for every assignment; check all.
        for state in UnilateralState::all_assignments(g).unwrap() {
            assert!(
                state.find_add_violation(alpha).is_some(),
                "some agent must profit from a unilateral purchase"
            );
        }
    }

    #[test]
    fn figure_instances_are_valid_moves() {
        for fig in [figure5(), figure6(), figure7(5)] {
            let mv = fig.violation.as_ref().unwrap();
            assert!(mv.apply(&fig.graph).is_ok(), "figure move must type-check");
        }
    }
}
