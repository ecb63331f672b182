//! Bridges and articulation points (Tarjan lowpoint computation).
//!
//! In the bilateral game a *bridge* removal disconnects its endpoints —
//! lexicographically never improving for the remover — so the Remove
//! Equilibrium checker only needs to examine non-bridge edges. Beyond the
//! optimization, 2-edge-connectivity structure is useful when reasoning
//! about which equilibria can shed edges at all.

use crate::graph::Graph;
use std::collections::HashSet;

/// The result of one lowpoint pass: bridges and articulation points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Connectivity {
    /// Bridge edges, normalized as `(min, max)` and sorted.
    pub bridges: Vec<(u32, u32)>,
    /// Articulation points, sorted.
    pub articulation_points: Vec<u32>,
}

/// Computes bridges and articulation points with an iterative DFS
/// (no recursion, so deep paths cannot overflow the stack).
///
/// # Examples
///
/// ```
/// use bncg_graph::{connectivity::analyze, generators, Graph};
///
/// // A path: every edge is a bridge, every inner node articulates.
/// let path = generators::path(4);
/// let c = analyze(&path);
/// assert_eq!(c.bridges.len(), 3);
/// assert_eq!(c.articulation_points, vec![1, 2]);
///
/// // A cycle has neither.
/// let c = analyze(&generators::cycle(5));
/// assert!(c.bridges.is_empty());
/// assert!(c.articulation_points.is_empty());
/// ```
#[must_use]
pub fn analyze(g: &Graph) -> Connectivity {
    let n = g.n();
    let mut disc = vec![u32::MAX; n]; // discovery times
    let mut low = vec![u32::MAX; n];
    let mut parent = vec![u32::MAX; n];
    let mut bridges = Vec::new();
    let mut artic: HashSet<u32> = HashSet::new();
    let mut time = 0u32;

    for root in 0..n as u32 {
        if disc[root as usize] != u32::MAX {
            continue;
        }
        // Iterative DFS frame: (node, index into its neighbor list).
        let mut stack: Vec<(u32, usize)> = vec![(root, 0)];
        disc[root as usize] = time;
        low[root as usize] = time;
        time += 1;
        let mut root_children = 0u32;
        while let Some(&mut (u, ref mut idx)) = stack.last_mut() {
            let neighbors = g.neighbors(u);
            if *idx < neighbors.len() {
                let v = neighbors[*idx];
                *idx += 1;
                if disc[v as usize] == u32::MAX {
                    parent[v as usize] = u;
                    if u == root {
                        root_children += 1;
                    }
                    disc[v as usize] = time;
                    low[v as usize] = time;
                    time += 1;
                    stack.push((v, 0));
                } else if v != parent[u as usize] {
                    low[u as usize] = low[u as usize].min(disc[v as usize]);
                }
            } else {
                stack.pop();
                if let Some(&(p, _)) = stack.last() {
                    low[p as usize] = low[p as usize].min(low[u as usize]);
                    if low[u as usize] > disc[p as usize] {
                        bridges.push((p.min(u), p.max(u)));
                    }
                    if p != root && low[u as usize] >= disc[p as usize] {
                        artic.insert(p);
                    }
                }
            }
        }
        if root_children >= 2 {
            artic.insert(root);
        }
    }
    bridges.sort_unstable();
    let mut articulation_points: Vec<u32> = artic.into_iter().collect();
    articulation_points.sort_unstable();
    Connectivity {
        bridges,
        articulation_points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    /// The oracle: whether the edge `{u, v}` of a connected graph is a
    /// bridge, by removing it and testing connectivity.
    fn is_bridge(g: &Graph, u: u32, v: u32) -> bool {
        let mut h = g.clone();
        h.remove_edge(u, v).expect("edge exists");
        !h.is_connected()
    }

    #[test]
    fn trees_are_all_bridges() {
        let mut rng = crate::test_rng(81);
        for _ in 0..10 {
            let g = generators::random_tree(20, &mut rng);
            let c = analyze(&g);
            assert_eq!(c.bridges.len(), g.m());
            // In a tree every internal (non-leaf) node articulates.
            let internal = (0..20u32).filter(|&u| g.degree(u) >= 2).count();
            assert_eq!(c.articulation_points.len(), internal);
        }
    }

    #[test]
    fn cliques_have_no_cut_structure() {
        let c = analyze(&generators::clique(6));
        assert!(c.bridges.is_empty());
        assert!(c.articulation_points.is_empty());
    }

    #[test]
    fn lowpoint_matches_component_oracle() {
        let mut rng = crate::test_rng(82);
        for _ in 0..25 {
            let g = generators::random_connected(12, 0.15, &mut rng);
            let c = analyze(&g);
            let bridge_set: std::collections::HashSet<(u32, u32)> =
                c.bridges.iter().copied().collect();
            for (u, v) in g.edges() {
                assert_eq!(
                    bridge_set.contains(&(u, v)),
                    is_bridge(&g, u, v),
                    "bridge disagreement on {{{u}, {v}}}"
                );
            }
        }
    }

    #[test]
    fn barbell_structure() {
        // Two triangles joined by one edge: that edge is the only bridge,
        // its endpoints are the articulation points.
        let g =
            Graph::from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)]).unwrap();
        let c = analyze(&g);
        assert_eq!(c.bridges, vec![(2, 3)]);
        assert_eq!(c.articulation_points, vec![2, 3]);
    }

    #[test]
    fn disconnected_graphs_are_handled() {
        let g = Graph::from_edges(5, [(0, 1), (2, 3), (3, 4)]).unwrap();
        let c = analyze(&g);
        assert_eq!(c.bridges.len(), 3);
        assert_eq!(c.articulation_points, vec![3]);
    }

    #[test]
    fn deep_path_does_not_overflow() {
        let g = generators::path(50_000);
        let c = analyze(&g);
        assert_eq!(c.bridges.len(), 49_999);
    }
}
