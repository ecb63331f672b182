//! Differentials for the matrix-free tree kernels: every quantity a tree
//! state prices from its `O(n)` summary must equal the matrix kernel it
//! replaces, on every candidate of every input.
//!
//! * `TreeSummary::add_costs` against `delta::cost_after_add` for both
//!   endpoints of every non-edge;
//! * `TreeSwapPricer` (cached agent row) and `TreeSummary::swap_costs`
//!   (one climb per candidate) against `delta::tree_swap_costs` on every
//!   swap candidate;
//! * a tree state's costs and social cost against
//!   `agent_cost_from_matrix` and the matrix total, and its lazily built
//!   matrix against `DistanceMatrix::new`.
//!
//! Inputs: every free tree with n ≤ 9, seeded random trees with
//! n ∈ {63, 64, 65, 128, 256} as generated and relabeled (across the
//! bitset / tree-row boundary of `DistanceMatrix::new`), and paths,
//! stars and brooms.

use bncg::core::delta::{cost_after_add, tree_swap_costs, TreeSummary, TreeSwapPricer};
use bncg::core::{agent_cost_from_matrix, Alpha, GameState};
use bncg::graph::{enumerate, generators, test_rng, DistanceMatrix, Graph};

fn inputs() -> Vec<(String, Graph)> {
    let mut out = Vec::new();
    for n in 1..=9 {
        for (i, g) in enumerate::free_trees(n).unwrap().into_iter().enumerate() {
            out.push((format!("free{n}#{i}"), g));
        }
    }
    let mut rng = test_rng(0x7d1f);
    for n in [63usize, 64, 65, 128, 256] {
        let g = generators::random_tree(n, &mut rng);
        let perm = generators::random_permutation(n, &mut rng);
        out.push((format!("tree{n}relabeled"), g.relabeled(&perm)));
        out.push((format!("tree{n}"), g));
    }
    for n in [2usize, 3, 65, 130] {
        out.push((format!("path{n}"), generators::path(n)));
        out.push((format!("star{n}"), generators::star(n)));
    }
    for (handle, bristles) in [(1, 1), (3, 5), (40, 30), (10, 90)] {
        out.push((
            format!("broom{handle}x{bristles}"),
            generators::broom(handle, bristles),
        ));
    }
    out
}

#[test]
fn add_pricing_matches_the_matrix_kernel_on_every_non_edge() {
    for (label, g) in inputs() {
        let t = TreeSummary::new(&g).expect("input is a tree");
        let d = DistanceMatrix::new(&g);
        for (u, v) in g.non_edges() {
            assert_eq!(
                t.add_costs(&g, u, v),
                [cost_after_add(&g, &d, u, v), cost_after_add(&g, &d, v, u)],
                "{label}: add {{{u}, {v}}}"
            );
            assert_eq!(t.distance(u, v), d.dist(u, v), "{label}: d({u}, {v})");
        }
    }
}

#[test]
fn swap_pricing_matches_the_matrix_kernel_on_every_candidate() {
    for (label, g) in inputs() {
        let t = TreeSummary::new(&g).expect("input is a tree");
        let d = DistanceMatrix::new(&g);
        let mut pricer = TreeSwapPricer::new(&g, &t);
        let n = g.n() as u32;
        for agent in 0..n {
            for &old in g.neighbors(agent) {
                for new in (0..n).filter(|&w| w != agent && !g.has_edge(agent, w)) {
                    let want = tree_swap_costs(&g, &d, agent, old, new);
                    assert_eq!(
                        pricer.swap_costs(agent, old, new),
                        want,
                        "{label}: {agent}: {old} → {new}"
                    );
                    assert_eq!(
                        t.swap_costs(&g, agent, old, new),
                        want,
                        "{label}: {agent}: {old} → {new} (one climb)"
                    );
                }
            }
        }
    }
}

#[test]
fn tree_state_costs_match_the_matrix_for_every_agent() {
    let alpha = Alpha::from_ratio(3, 2).unwrap();
    for (label, g) in inputs() {
        let state = GameState::new(g.clone(), alpha);
        assert!(state.tree().is_some(), "{label}: no tree summary");
        let d = DistanceMatrix::new(&g);
        for u in 0..g.n() as u32 {
            assert_eq!(
                state.cost(u),
                agent_cost_from_matrix(&g, &d, u),
                "{label}: agent {u}"
            );
        }
        // α = 3/2: social cost = (3 · 2m + 2 · Σ d) / 2.
        let total = d.total_distance().unwrap();
        let edges_paid = 2 * g.m() as i128;
        let social = state.social_cost().unwrap();
        assert_eq!(
            social.num(),
            3 * edges_paid + 2 * i128::from(total),
            "{label}: social cost"
        );
        assert_eq!(social.den(), 2, "{label}: social cost denominator");
        assert_eq!(*state.distances(), d, "{label}: lazily built matrix");
    }
}
