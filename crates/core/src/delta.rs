//! Improvement evaluation: does a move strictly lower an agent's cost?
//!
//! Two engines are provided. The **generic engine** applies the move and
//! recomputes BFS costs — correct on any graph, used as ground truth. The
//! **fast engine** evaluates single-edge additions from a precomputed
//! distance matrix and edge swaps on trees from component sums, avoiding
//! the post-move BFS; property tests assert both engines agree. Tree
//! swaps have two fast forms: [`tree_swap_costs`] sums the components
//! in one `O(n)` pass over the matrix and serves as the reference, and
//! [`TreeSwapPricer`] derives the same sums in `O(1)` from a
//! [`TreeSummary`] (per-node totals computed once per tree) without any
//! matrix. [`TreeSummary::add_costs`] likewise prices a single-edge
//! addition on a tree in `O(d(u, v))` from the same summary.
//!
//! The batched exponential scans price surviving leaves through a third
//! path — the word-parallel `agent_cost_bits` kernel on a
//! toggled [`bncg_graph::BitsetGraph`] — which the tests here also pin
//! against the matrix-based fast engine, closing the differential
//! triangle between all three.

use crate::alpha::Alpha;
use crate::cost::{agent_cost, AgentCost};
use crate::error::GameError;
use crate::moves::Move;
use bncg_graph::{DistanceMatrix, Graph, RootedTree, UNREACHABLE};

/// Ground truth: applies `mv` and reports whether **all** consenting agents
/// strictly improve.
///
/// # Errors
///
/// Returns an error if the move does not type-check against `g`.
pub fn move_improves_all(g: &Graph, alpha: Alpha, mv: &Move) -> Result<bool, GameError> {
    let g2 = mv.apply(g)?;
    Ok(mv
        .consenting_agents()
        .iter()
        .all(|&a| agent_cost(&g2, a).better_than(&agent_cost(g, a), alpha)))
}

/// Like [`move_improves_all`] but with the pre-move costs supplied, so
/// checkers that scan many candidate moves do not recompute them.
///
/// # Errors
///
/// Returns an error if the move does not type-check against `g`.
pub fn move_improves_all_cached(
    g: &Graph,
    alpha: Alpha,
    mv: &Move,
    old_costs: &[AgentCost],
) -> Result<bool, GameError> {
    let g2 = mv.apply(g)?;
    Ok(mv
        .consenting_agents()
        .iter()
        .all(|&a| agent_cost(&g2, a).better_than(&old_costs[a as usize], alpha)))
}

/// Fast engine: the cost of agent `u` after the bilateral addition of
/// `{u, v}`, computed from the *pre-move* distance matrix.
///
/// After adding an edge incident to `u`, the new distance from `u` to any
/// `w` is exactly `min(d(u,w), 1 + d(v,w))`: a shortest path either avoids
/// the new edge or starts with it.
#[must_use]
pub fn cost_after_add(g: &Graph, d: &DistanceMatrix, u: u32, v: u32) -> AgentCost {
    let row_u = d.row(u);
    let row_v = d.row(v);
    let mut dist = 0u64;
    let mut unreachable = 0u32;
    for w in 0..g.n() {
        let du = row_u[w];
        let dv = row_v[w];
        let new = match (du, dv) {
            (UNREACHABLE, UNREACHABLE) => UNREACHABLE,
            (UNREACHABLE, dv) => dv + 1,
            (du, UNREACHABLE) => du,
            (du, dv) => du.min(dv + 1),
        };
        if new == UNREACHABLE {
            unreachable += 1;
        } else {
            dist += u64::from(new);
        }
    }
    AgentCost {
        unreachable,
        edges: g.degree(u) as u32 + 1,
        dist,
    }
}

/// Fast engine: post-swap costs on a **tree**.
///
/// For the swap `agent: old → new` on a tree, removing `{agent, old}`
/// splits the tree into the component `C` of `old` and the rest; the swap
/// keeps the graph a tree iff `new ∈ C`. Distances inside each part are
/// unchanged and cross distances route through the new bridge
/// `{agent, new}`.
///
/// Returns `None` when the swap disconnects the graph (`new ∉ C`), which
/// can never be improving from a connected state.
///
/// # Panics
///
/// Panics (in debug builds) if `g` is not a tree or `{agent, old}` is not
/// an edge; call sites guarantee both.
#[must_use]
pub fn tree_swap_costs(
    g: &Graph,
    d: &DistanceMatrix,
    agent: u32,
    old: u32,
    new: u32,
) -> Option<(AgentCost, AgentCost)> {
    debug_assert!(g.is_tree(), "tree_swap_costs requires a tree");
    debug_assert!(g.has_edge(agent, old), "swap requires the old edge");
    debug_assert!(
        !g.has_edge(agent, new) && agent != new,
        "swap target must be a non-neighbor"
    );
    let n = g.n();
    let row_agent = d.row(agent);
    let row_old = d.row(old);
    let row_new = d.row(new);
    // `new` must sit on the `old` side of the split.
    if row_old[new as usize] >= row_agent[new as usize] {
        return None;
    }
    let mut c_size = 0u64; // |C|, the old-side component
    let mut sum_new_c = 0u64; // Σ_{y∈C} d(new, y)
    let mut sum_agent_rest = 0u64; // Σ_{x∉C} d(agent, x)
    for w in 0..n {
        if row_old[w] < row_agent[w] {
            c_size += 1;
            sum_new_c += u64::from(row_new[w]);
        } else {
            sum_agent_rest += u64::from(row_agent[w]);
        }
    }
    let rest_size = n as u64 - c_size;
    // Agent: unchanged to its own side, 1 + d(new, y) across the bridge.
    let agent_dist = sum_agent_rest + c_size + sum_new_c;
    // New partner: unchanged inside C, 1 + d(agent, x) across the bridge.
    let new_dist = sum_new_c + rest_size + sum_agent_rest;
    Some((
        AgentCost {
            unreachable: 0,
            edges: g.degree(agent) as u32,
            dist: agent_dist,
        },
        AgentCost {
            unreachable: 0,
            edges: g.degree(new) as u32 + 1,
            dist: new_dist,
        },
    ))
}

/// The `O(n)` summary the matrix-free tree kernels price from: the tree
/// rooted at node 0 ([`RootedTree`]), every node's distance sum
/// `S(x) = Σ_y d(x, y)` and its downward sum `down(v) = Σ_{y ∈ T_v} d(v, y)`.
///
/// A [`crate::GameState`] on a tree under the default cost model keeps
/// one summary and takes its agents' costs from `S`, so the polynomial
/// checks on trees never build the `n × n` [`DistanceMatrix`]:
///
/// * [`TreeSummary::add_costs`] prices a bilateral addition in `O(L)`,
///   `L = d(u, v)`, equal to [`cost_after_add`] for both endpoints;
/// * [`TreeSwapPricer`] prices a swap in `O(1)` from one `O(n)` distance
///   row per swapping agent, equal to [`tree_swap_costs`].
///
/// # Examples
///
/// ```
/// use bncg_core::delta::{cost_after_add, TreeSummary};
/// use bncg_graph::{generators, DistanceMatrix};
///
/// let g = generators::path(6);
/// let t = TreeSummary::new(&g).expect("a path is a tree");
/// let d = DistanceMatrix::new(&g);
/// let [cu, cv] = t.add_costs(&g, 0, 4);
/// assert_eq!(cu, cost_after_add(&g, &d, 0, 4));
/// assert_eq!(cv, cost_after_add(&g, &d, 4, 0));
/// assert_eq!(t.distance(0, 4), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeSummary {
    tree: RootedTree,
    sums: Vec<u64>,
    down: Vec<u64>,
}

impl TreeSummary {
    /// Roots `g` at node 0 and computes both sum vectors, in `O(n)`;
    /// `None` if `g` is not a tree.
    #[must_use]
    pub fn new(g: &Graph) -> Option<Self> {
        let tree = RootedTree::new(g, 0).ok()?;
        let sums = tree.dist_sums();
        let down = tree.subtree_dist_sums();
        Some(TreeSummary { tree, sums, down })
    }

    /// Every node's distance sum `S(x) = Σ_y d(x, y)`, indexed by node.
    #[must_use]
    pub fn dist_sums(&self) -> &[u64] {
        &self.sums
    }

    /// `d(u, v)`, by climbing both nodes to their lowest common ancestor:
    /// `O(d(u, v))`.
    #[must_use]
    pub fn distance(&self, u: u32, v: u32) -> u32 {
        let lca = self.lca(u, v);
        let t = &self.tree;
        t.layer(u) + t.layer(v) - 2 * t.layer(lca)
    }

    fn lca(&self, mut u: u32, mut v: u32) -> u32 {
        let t = &self.tree;
        while t.layer(u) > t.layer(v) {
            u = t.parent(u);
        }
        while t.layer(v) > t.layer(u) {
            v = t.parent(v);
        }
        while u != v {
            u = t.parent(u);
            v = t.parent(v);
        }
        u
    }

    /// The costs of `u` and of `v` after the bilateral addition of the
    /// non-edge `{u, v}`, in `O(L)` for `L = d(u, v)`.
    ///
    /// Number the `u`–`v` path `p_0 = u, …, p_L = v` and let `s_i` be
    /// the size of the part hanging off `p_i` (`p_i` and everything
    /// reached from it without a path edge). A node hanging off `p_i`
    /// moves from `u`'s distance `i + h` to `min(i, L + 1 − i) + h`, so
    /// `u` saves `Σ_i s_i · max(0, 2i − L − 1)` and, symmetrically, `v`
    /// saves `Σ_i s_i · max(0, L − 2i − 1)`. The walk climbs both ends to
    /// their lowest common ancestor: off a non-apex path node hangs its
    /// subtree minus the subtree of the path node below it, and off the
    /// apex hangs everything not under its (at most two) path children.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `{u, v}` is an edge or `u == v`.
    #[must_use]
    pub fn add_costs(&self, g: &Graph, u: u32, v: u32) -> [AgentCost; 2] {
        debug_assert!(u != v && !g.has_edge(u, v), "addition needs a non-edge");
        let t = &self.tree;
        let apex = self.lca(u, v);
        let up_u = i64::from(t.layer(u) - t.layer(apex));
        let len = up_u + i64::from(t.layer(v) - t.layer(apex));
        let (mut save_u, mut save_v) = (0u64, 0u64);
        let mut credit = |i: i64, s: u32| {
            // At most one of the two weights is positive.
            let w = 2 * i - len - 1;
            if w > 0 {
                save_u += u64::from(s) * w as u64;
            } else if w < -2 {
                save_v += u64::from(s) * (-2 - w) as u64;
            }
        };
        let below_u = self.climb(u, apex, 0, 1, &mut credit);
        let below_v = self.climb(v, apex, len, -1, &mut credit);
        credit(up_u, g.n() as u32 - below_u - below_v);
        let after = |a: u32, saved: u64| AgentCost {
            unreachable: 0,
            edges: g.degree(a) as u32 + 1,
            dist: self.sums[a as usize] - saved,
        };
        [after(u, save_u), after(v, save_v)]
    }

    /// Feeds `credit(i, s_i)` for the path nodes from `end` (path index
    /// `i`, moving by `step`) up to, not including, `apex`; returns the
    /// size of the apex's path child on that side (0 if `end == apex`).
    fn climb(
        &self,
        end: u32,
        apex: u32,
        mut i: i64,
        step: i64,
        credit: &mut impl FnMut(i64, u32),
    ) -> u32 {
        let t = &self.tree;
        let (mut x, mut below) = (end, 0u32);
        while x != apex {
            let size = t.subtree_size(x);
            credit(i, size - below);
            below = size;
            x = t.parent(x);
            i += step;
        }
        below
    }

    /// Writes `d(src, ·)` into `out` (resized to `n`), in `O(n)`: down
    /// the BFS order, a child is one hop closer than its parent if `src`
    /// lies in its subtree and one hop further otherwise.
    fn write_row(&self, src: u32, out: &mut Vec<u32>) {
        let t = &self.tree;
        out.clear();
        out.resize(t.n(), 0);
        out[t.root() as usize] = t.layer(src);
        for &c in &t.bfs_order()[1..] {
            let dp = out[t.parent(c) as usize];
            // No underflow: a parent of a subtree holding `src` is at
            // least one hop from it.
            out[c as usize] = if t.is_in_subtree(src, c) {
                dp - 1
            } else {
                dp + 1
            };
        }
    }

    /// The swap `agent: old → new` priced from `d(agent, new)`; see
    /// [`TreeSwapPricer`] for the derivation.
    fn swap_costs_at(
        &self,
        g: &Graph,
        agent: u32,
        old: u32,
        new: u32,
        d_agent_new: u32,
    ) -> (AgentCost, AgentCost) {
        let t = &self.tree;
        let n = g.n() as u64;
        let (a, o, w) = (agent as usize, old as usize, new as usize);
        let (c, down_c) = if t.parent(old) == agent {
            (u64::from(t.subtree_size(old)), self.down[o])
        } else {
            let size_agent = u64::from(t.subtree_size(agent));
            (n - size_agent, self.sums[o] - size_agent - self.down[a])
        };
        let rest = self.sums[a] - c - down_c;
        let inside = self.sums[w] - (n - c) * u64::from(d_agent_new) - rest;
        (
            AgentCost {
                unreachable: 0,
                edges: g.degree(agent) as u32,
                dist: rest + c + inside,
            },
            AgentCost {
                unreachable: 0,
                edges: g.degree(new) as u32 + 1,
                dist: inside + (n - c) + rest,
            },
        )
    }

    /// Whether `new` lies on `old`'s side of the edge `{agent, old}` —
    /// the swap keeps the tree connected exactly then. A preorder
    /// interval test: `old`'s side is `T_old` when `old` is `agent`'s
    /// child, and everything outside `T_agent` when it is the parent.
    fn on_old_side(&self, agent: u32, old: u32, new: u32) -> bool {
        let t = &self.tree;
        if t.parent(old) == agent {
            t.is_in_subtree(new, old)
        } else {
            !t.is_in_subtree(new, agent)
        }
    }

    /// The post-swap costs of `agent` and `new`, or `None` for a
    /// disconnecting swap — [`TreeSwapPricer::swap_costs`] for one
    /// candidate, with `d(agent, new)` from an `O(d(agent, new))` climb
    /// instead of a cached row.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `{agent, old}` is not an edge or
    /// `new` is `agent` or one of its neighbors.
    #[must_use]
    pub fn swap_costs(
        &self,
        g: &Graph,
        agent: u32,
        old: u32,
        new: u32,
    ) -> Option<(AgentCost, AgentCost)> {
        debug_assert!(g.has_edge(agent, old), "swap requires the old edge");
        debug_assert!(
            !g.has_edge(agent, new) && agent != new,
            "swap target must be a non-neighbor"
        );
        self.on_old_side(agent, old, new)
            .then(|| self.swap_costs_at(g, agent, old, new, self.distance(agent, new)))
    }
}

/// Fast engine: post-swap costs on a **tree** in `O(1)` per candidate,
/// equal to [`tree_swap_costs`] on every input, with no distance matrix.
///
/// It reads a [`TreeSummary`] (the tree rooted at node 0, every node's
/// distance sum `S(x) = Σ_y d(x, y)` and downward sum
/// `down(v) = Σ_{y ∈ T_v} d(v, y)`) and one `O(n)` distance row of the
/// swapping agent, rebuilt whenever the agent changes — so a scan that
/// walks candidates agent by agent pays `O(n)` per agent. For the swap
/// `agent: old → new`, let `C` be `old`'s side of `{agent, old}`, with
/// `c = |C|` and `D = Σ_{y∈C} d(old, y)`:
///
/// * if `old` is a child of `agent`, `C = T_old`, so `c = size(old)` and
///   `D = down(old)`;
/// * otherwise `old` is `agent`'s parent and `C` is everything outside
///   `T_agent`, so `c = n − size(agent)` and
///   `D = S(old) − size(agent) − down(agent)`.
///
/// Whether `new ∈ C` is a preorder-interval test. When it holds, the
/// path from `agent` to `new` runs through `old`, so
/// `d(old, new) = d(agent, new) − 1`. Then
/// `rest = Σ_{x∉C} d(agent, x) = S(agent) − c − D` and
/// `in = Σ_{y∈C} d(new, y) = S(new) − (n − c)·d(agent, new) − rest`,
/// and the component sums of [`tree_swap_costs`] follow. Every
/// subtraction removes a part of the sum it is taken from, so none
/// underflows.
///
/// # Examples
///
/// ```
/// use bncg_core::delta::{tree_swap_costs, TreeSummary, TreeSwapPricer};
/// use bncg_graph::{generators, DistanceMatrix};
///
/// let g = generators::path(6);
/// let t = TreeSummary::new(&g).expect("a path is a tree");
/// let mut pricer = TreeSwapPricer::new(&g, &t);
/// let d = DistanceMatrix::new(&g);
/// assert_eq!(pricer.swap_costs(0, 1, 3), tree_swap_costs(&g, &d, 0, 1, 3));
/// ```
#[derive(Debug, Clone)]
pub struct TreeSwapPricer<'a> {
    g: &'a Graph,
    t: &'a TreeSummary,
    /// The agent whose distance row `row` holds (`u32::MAX`: none yet).
    agent: u32,
    row: Vec<u32>,
}

impl<'a> TreeSwapPricer<'a> {
    /// A pricer for swaps on the tree `g` summarized by `t`.
    #[must_use]
    pub fn new(g: &'a Graph, t: &'a TreeSummary) -> Self {
        TreeSwapPricer {
            g,
            t,
            agent: u32::MAX,
            row: Vec::new(),
        }
    }

    /// The post-swap costs of `agent` and `new`, or `None` for a
    /// disconnecting swap — the same contract as [`tree_swap_costs`].
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `{agent, old}` is not an edge or
    /// `new` is `agent` or one of its neighbors.
    #[must_use]
    pub fn swap_costs(&mut self, agent: u32, old: u32, new: u32) -> Option<(AgentCost, AgentCost)> {
        debug_assert!(self.g.has_edge(agent, old), "swap requires the old edge");
        debug_assert!(
            !self.g.has_edge(agent, new) && agent != new,
            "swap target must be a non-neighbor"
        );
        if !self.t.on_old_side(agent, old, new) {
            return None;
        }
        if self.agent != agent {
            self.t.write_row(agent, &mut self.row);
            self.agent = agent;
        }
        let d_agent_new = self.row[new as usize];
        Some(self.t.swap_costs_at(self.g, agent, old, new, d_agent_new))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bncg_graph::generators;

    fn alpha(s: &str) -> Alpha {
        s.parse().unwrap()
    }

    #[test]
    fn generic_engine_detects_improvement() {
        // Path 0-1-2-3, α = 1: adding {0,3} saves each endpoint
        // dist 3→1 plus nothing else... 0's distances: 1,2,3 → 1,2,1:
        // gain 2 > α = 1.
        let g = generators::path(4);
        let mv = Move::BilateralAdd { u: 0, v: 3 };
        assert!(move_improves_all(&g, alpha("1"), &mv).unwrap());
        assert!(!move_improves_all(&g, alpha("2"), &mv).unwrap());
    }

    #[test]
    fn cached_engine_matches_generic() {
        let g = generators::path(5);
        let old: Vec<AgentCost> = (0..5).map(|u| agent_cost(&g, u)).collect();
        for mv in [
            Move::BilateralAdd { u: 0, v: 4 },
            Move::BilateralAdd { u: 0, v: 2 },
            Move::Remove {
                agent: 1,
                target: 2,
            },
        ] {
            assert_eq!(
                move_improves_all(&g, alpha("3/2"), &mv).unwrap(),
                move_improves_all_cached(&g, alpha("3/2"), &mv, &old).unwrap()
            );
        }
    }

    #[test]
    fn fast_add_matches_generic_on_random_graphs() {
        let mut rng = bncg_graph::test_rng(42);
        for _ in 0..20 {
            let g = generators::random_connected(12, 0.2, &mut rng);
            let d = DistanceMatrix::new(&g);
            for (u, v) in g.non_edges() {
                let fast = cost_after_add(&g, &d, u, v);
                let g2 = Move::BilateralAdd { u, v }.apply(&g).unwrap();
                let slow = agent_cost(&g2, u);
                assert_eq!(fast, slow, "fast add disagrees at ({u}, {v})");
            }
        }
    }

    #[test]
    fn fast_add_matches_bitset_kernel() {
        // The matrix-based add engine and the word-parallel bitset
        // kernel are independent fast paths; they must agree with each
        // other on every candidate addition (and, via
        // `fast_add_matches_generic_on_random_graphs`, with ground
        // truth).
        use crate::cost::agent_cost_bits;
        use bncg_graph::BitsetGraph;
        let mut rng = bncg_graph::test_rng(0xB1D5);
        for _ in 0..10 {
            let g = generators::random_connected(12, 0.2, &mut rng);
            let d = DistanceMatrix::new(&g);
            let mut bits = BitsetGraph::from_graph(&g).unwrap();
            for (u, v) in g.non_edges() {
                bits.add_edge(u, v);
                let from_bits = agent_cost_bits(&bits, u);
                bits.remove_edge(u, v);
                assert_eq!(
                    cost_after_add(&g, &d, u, v),
                    from_bits,
                    "bitset kernel disagrees with the add engine at ({u}, {v})"
                );
            }
        }
    }

    #[test]
    fn fast_add_handles_disconnected_components() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let d = DistanceMatrix::new(&g);
        let c = cost_after_add(&g, &d, 0, 2);
        assert_eq!(c.unreachable, 0);
        assert_eq!(c.dist, 1 + 1 + 2); // to 1, 2, 3
        assert_eq!(c.edges, 2);
    }

    #[test]
    fn tree_swap_matches_generic_on_random_trees() {
        let mut rng = bncg_graph::test_rng(7);
        for _ in 0..10 {
            let g = generators::random_tree(14, &mut rng);
            let d = DistanceMatrix::new(&g);
            for u in 0..14u32 {
                for &old in g.neighbors(u) {
                    for new in 0..14u32 {
                        if new == u || g.has_edge(u, new) {
                            continue;
                        }
                        let mv = Move::Swap { agent: u, old, new };
                        let g2 = mv.apply(&g).unwrap();
                        match tree_swap_costs(&g, &d, u, old, new) {
                            Some((cu, cn)) => {
                                assert_eq!(cu, agent_cost(&g2, u));
                                assert_eq!(cn, agent_cost(&g2, new));
                            }
                            None => {
                                // Disconnecting swap: generic engine must
                                // report unreachable nodes.
                                assert!(agent_cost(&g2, u).unreachable > 0);
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn constant_time_swap_pricing_matches_component_sums_past_the_bitset_ceiling() {
        // Past n = 64 the matrix comes from the tree-row engine, so this
        // pins the two tree fast paths against each other.
        let mut rng = bncg_graph::test_rng(0x5A4B);
        for n in [65usize, 100] {
            let g = generators::random_tree(n, &mut rng);
            let perm = generators::random_permutation(n, &mut rng);
            let g = g.relabeled(&perm);
            let d = DistanceMatrix::new(&g);
            let t = TreeSummary::new(&g).unwrap();
            let mut pricer = TreeSwapPricer::new(&g, &t);
            for agent in 0..n as u32 {
                for &old in g.neighbors(agent) {
                    for new in 0..n as u32 {
                        if new != agent && !g.has_edge(agent, new) {
                            assert_eq!(
                                pricer.swap_costs(agent, old, new),
                                tree_swap_costs(&g, &d, agent, old, new),
                                "{agent}: {old} → {new}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn add_kernels_price_the_distance_gain() {
        // The spec: adding `{u, v}` shortens `u`'s route to `w` from
        // `d(u, w)` to `d(v, w) + 1` whenever that is shorter.
        let gain = |d: &DistanceMatrix, u: u32, v: u32| -> u64 {
            let (row_u, row_v) = (d.row(u), d.row(v));
            (0..row_u.len())
                .map(|w| u64::from(row_u[w].saturating_sub(row_v[w] + 1)))
                .sum()
        };
        let tree = generators::random_tree(12, &mut bncg_graph::test_rng(7));
        for g in [generators::cycle(8), tree] {
            let d = DistanceMatrix::new(&g);
            let summary = TreeSummary::new(&g);
            for (u, v) in g.non_edges() {
                let (cu, cv) = (agent_cost(&g, u), agent_cost(&g, v));
                let after = [cost_after_add(&g, &d, u, v), cost_after_add(&g, &d, v, u)];
                assert_eq!(cu.dist - after[0].dist, gain(&d, u, v));
                assert_eq!(cv.dist - after[1].dist, gain(&d, v, u));
                if let Some(t) = &summary {
                    assert_eq!(t.add_costs(&g, u, v), after, "({u}, {v})");
                }
            }
        }
    }
}
