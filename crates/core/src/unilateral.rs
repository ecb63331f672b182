//! The unilateral Network Creation Game (NCG) of Fabrikant et al., as far
//! as the paper needs it: Section 2 compares bilateral and unilateral
//! equilibria (Propositions 2.1–2.3) and disproves the Corbo–Parkes
//! conjecture with a graph that is in unilateral NE but not pairwise
//! stable.
//!
//! A unilateral state is a graph plus an *edge assignment*: every edge is
//! owned (paid for) by exactly one endpoint. An agent may unilaterally
//! drop owned edges and buy arbitrary new ones.

use crate::alpha::Alpha;
use crate::cost::AgentCost;
use crate::error::GameError;
use bncg_graph::{bfs_distances, Graph, UNREACHABLE};
use std::collections::BTreeMap;

/// A unilateral NCG state: graph plus edge ownership.
///
/// # Examples
///
/// ```
/// use bncg_core::unilateral::UnilateralState;
/// use bncg_core::Alpha;
/// use bncg_graph::Graph;
///
/// // Path 0-1-2 where 0 owns {0,1} and 2 owns {1,2}.
/// let g = Graph::from_edges(3, [(0, 1), (1, 2)])?;
/// let s = UnilateralState::new(g, [((0, 1), 0), ((1, 2), 2)])?;
/// assert_eq!(s.agent_cost(1).edges, 0);
/// assert_eq!(s.agent_cost(0).edges, 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnilateralState {
    graph: Graph,
    /// Owner per edge, keyed by the normalized pair `(min, max)`.
    owner: BTreeMap<(u32, u32), u32>,
}

/// A single-agent deviation in the unilateral game, reported as a witness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UnilateralMove {
    /// Drop an owned edge.
    Drop {
        /// The deviating agent (must own the edge).
        agent: u32,
        /// The other endpoint.
        target: u32,
    },
    /// Buy a new edge.
    Buy {
        /// The deviating agent (pays `α`).
        agent: u32,
        /// The other endpoint (does not pay and is not asked).
        target: u32,
    },
    /// Replace the full target set: drop `drops`, buy `buys`.
    Rewire {
        /// The deviating agent.
        agent: u32,
        /// Owned edges to drop.
        drops: Vec<u32>,
        /// New targets to buy.
        buys: Vec<u32>,
    },
}

impl UnilateralState {
    /// Builds a state, validating that every graph edge has exactly one
    /// owner which is one of its endpoints.
    ///
    /// # Errors
    ///
    /// Returns [`GameError::InvalidMove`] if ownership does not match the
    /// edge set.
    pub fn new<I>(graph: Graph, owners: I) -> Result<Self, GameError>
    where
        I: IntoIterator<Item = ((u32, u32), u32)>,
    {
        let mut owner = BTreeMap::new();
        for ((u, v), o) in owners {
            let key = (u.min(v), u.max(v));
            if !graph.has_edge(u, v) {
                return Err(GameError::InvalidMove(format!(
                    "ownership given for non-edge {{{u}, {v}}}"
                )));
            }
            if o != u && o != v {
                return Err(GameError::InvalidMove(format!(
                    "owner {o} is not an endpoint of {{{u}, {v}}}"
                )));
            }
            if owner.insert(key, o).is_some() {
                return Err(GameError::InvalidMove(format!(
                    "edge {{{u}, {v}}} owned twice"
                )));
            }
        }
        if owner.len() != graph.m() {
            return Err(GameError::InvalidMove(format!(
                "{} edges but {} ownerships",
                graph.m(),
                owner.len()
            )));
        }
        Ok(UnilateralState { graph, owner })
    }

    /// Enumerates all `2^m` edge assignments of a graph (for exhaustive
    /// small-instance searches).
    ///
    /// # Errors
    ///
    /// Returns [`GameError::CheckTooLarge`] if the graph has more than 20
    /// edges.
    pub fn all_assignments(graph: &Graph) -> Result<Vec<UnilateralState>, GameError> {
        let edges: Vec<(u32, u32)> = graph.edges().collect();
        if edges.len() > 20 {
            return Err(GameError::CheckTooLarge {
                reason: format!("2^{} assignments", edges.len()),
            });
        }
        let mut out = Vec::with_capacity(1 << edges.len());
        for mask in 0u32..1 << edges.len() {
            let owners = edges
                .iter()
                .enumerate()
                .map(|(i, &(u, v))| ((u, v), if mask >> i & 1 == 1 { v } else { u }));
            out.push(
                UnilateralState::new(graph.clone(), owners)
                    .expect("endpoint owners are always valid"),
            );
        }
        Ok(out)
    }

    /// The underlying graph.
    #[must_use]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The owner of edge `{u, v}`.
    ///
    /// # Panics
    ///
    /// Panics if `{u, v}` is not an edge.
    #[must_use]
    pub fn owner(&self, u: u32, v: u32) -> u32 {
        self.owner[&(u.min(v), u.max(v))]
    }

    /// How many edges `u` owns (pays for).
    #[must_use]
    pub(crate) fn owned_count(&self, u: u32) -> u32 {
        self.owner.values().filter(|&&o| o == u).count() as u32
    }

    /// The targets `u` currently buys (its strategy `S_u`).
    #[must_use]
    pub(crate) fn strategy(&self, u: u32) -> Vec<u32> {
        self.owner
            .iter()
            .filter(|&(_, &o)| o == u)
            .map(|(&(a, b), _)| if a == u { b } else { a })
            .collect()
    }

    /// Cost of agent `u` in the unilateral game: `α·(owned edges) + dist`.
    #[must_use]
    pub fn agent_cost(&self, u: u32) -> AgentCost {
        let mut dist = Vec::new();
        let reached = bfs_distances(&self.graph, u, &mut dist);
        AgentCost {
            unreachable: (self.graph.n() - reached) as u32,
            edges: self.owned_count(u),
            dist: dist
                .iter()
                .filter(|&&d| d != UNREACHABLE)
                .map(|&d| u64::from(d))
                .sum(),
        }
    }

    /// Finds a profitable single-edge removal by its owner, or `None` if
    /// the state is in unilateral Remove Equilibrium.
    #[must_use]
    pub(crate) fn find_remove_violation(&self, alpha: Alpha) -> Option<UnilateralMove> {
        let mut scratch = self.graph.clone();
        for (&(u, v), &o) in &self.owner {
            let old = self.agent_cost(o);
            scratch.remove_edge(u, v).expect("edge exists");
            let after = cost_without(&scratch, o, old.edges - 1);
            scratch.add_edge(u, v).expect("restore");
            if after.better_than(&old, alpha) {
                return Some(UnilateralMove::Drop {
                    agent: o,
                    target: if o == u { v } else { u },
                });
            }
        }
        None
    }

    /// Finds a profitable single-edge purchase, or `None` if the state is
    /// in unilateral Add Equilibrium. The buyer pays `α`; the other
    /// endpoint is not asked (this is what makes Proposition 2.1's reverse
    /// direction fail).
    #[must_use]
    pub fn find_add_violation(&self, alpha: Alpha) -> Option<UnilateralMove> {
        let mut scratch = self.graph.clone();
        for (u, v) in self.graph.non_edges() {
            for (agent, target) in [(u, v), (v, u)] {
                let old = self.agent_cost(agent);
                scratch.add_edge(u, v).expect("non-edge");
                let after = cost_without(&scratch, agent, old.edges + 1);
                scratch.remove_edge(u, v).expect("restore");
                if after.better_than(&old, alpha) {
                    return Some(UnilateralMove::Buy { agent, target });
                }
            }
        }
        None
    }

    /// Finds a profitable arbitrary strategy change by a single agent, or
    /// `None` if the state is a Pure Nash Equilibrium of the unilateral
    /// game.
    ///
    /// Enumerates `2^c` candidate target sets per agent, where `c` counts
    /// the agent's plausible targets (nodes not already connected to it by
    /// an edge the *other* side owns).
    ///
    /// # Errors
    ///
    /// Returns [`GameError::CheckTooLarge`] if any agent has more than 20
    /// plausible targets.
    pub(crate) fn find_ne_violation(
        &self,
        alpha: Alpha,
    ) -> Result<Option<UnilateralMove>, GameError> {
        let n = self.graph.n() as u32;
        for agent in 0..n {
            let old = self.agent_cost(agent);
            // Base graph: all edges not owned by `agent`.
            let mut base = Graph::new(n as usize);
            for (&(u, v), &o) in &self.owner {
                if o != agent {
                    base.add_edge(u, v).expect("subset of a simple graph");
                }
            }
            // Buying an edge the other side already pays for is strictly
            // dominated; exclude those targets.
            let candidates: Vec<u32> = (0..n)
                .filter(|&t| t != agent && !base.has_edge(agent, t))
                .collect();
            if candidates.len() > 20 {
                return Err(GameError::CheckTooLarge {
                    reason: format!("agent {agent} has {} candidate targets", candidates.len()),
                });
            }
            let current: Vec<u32> = self.strategy(agent);
            let mut scratch = base.clone();
            for mask in 0u32..1 << candidates.len() {
                let mut bought = Vec::new();
                for (i, &t) in candidates.iter().enumerate() {
                    if mask >> i & 1 == 1 {
                        scratch.add_edge(agent, t).expect("fresh edge");
                        bought.push(t);
                    }
                }
                let after = cost_without(&scratch, agent, bought.len() as u32);
                for &t in &bought {
                    scratch.remove_edge(agent, t).expect("restore");
                }
                if after.better_than(&old, alpha) {
                    let drops = current
                        .iter()
                        .copied()
                        .filter(|t| !bought.contains(t))
                        .collect();
                    let buys = bought
                        .iter()
                        .copied()
                        .filter(|t| !current.contains(t))
                        .collect();
                    return Ok(Some(UnilateralMove::Rewire { agent, drops, buys }));
                }
            }
        }
        Ok(None)
    }

    /// Whether the state is in unilateral Remove Equilibrium.
    #[must_use]
    pub fn is_remove_stable(&self, alpha: Alpha) -> bool {
        self.find_remove_violation(alpha).is_none()
    }

    /// Whether the state is a Pure Nash Equilibrium.
    ///
    /// # Errors
    ///
    /// Returns [`GameError::CheckTooLarge`] if any agent has more than 20
    /// plausible targets (the `2^c` candidate target sets per agent are
    /// enumerated).
    pub fn is_ne(&self, alpha: Alpha) -> Result<bool, GameError> {
        Ok(self.find_ne_violation(alpha)?.is_none())
    }
}

/// Agent cost in a mutated graph with an explicit owned-edge count (the
/// unilateral game decouples paying from adjacency).
fn cost_without(g: &Graph, u: u32, owned: u32) -> AgentCost {
    let mut dist = Vec::new();
    let reached = bfs_distances(g, u, &mut dist);
    AgentCost {
        unreachable: (g.n() - reached) as u32,
        edges: owned,
        dist: dist
            .iter()
            .filter(|&&d| d != UNREACHABLE)
            .map(|&d| u64::from(d))
            .sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concepts::Concept;
    use bncg_graph::generators;

    fn a(s: &str) -> Alpha {
        s.parse().unwrap()
    }

    /// Star where the center owns every edge.
    fn center_owned_star(n: usize) -> UnilateralState {
        let g = generators::star(n);
        let owners: Vec<((u32, u32), u32)> = g.edges().map(|(u, v)| ((u, v), u)).collect();
        UnilateralState::new(g, owners).unwrap()
    }

    /// Star where each leaf owns its edge.
    fn leaf_owned_star(n: usize) -> UnilateralState {
        let g = generators::star(n);
        let owners: Vec<((u32, u32), u32)> = g.edges().map(|(u, v)| ((u, v), v)).collect();
        UnilateralState::new(g, owners).unwrap()
    }

    #[test]
    fn construction_validates_ownership() {
        let g = generators::path(3);
        assert!(UnilateralState::new(g.clone(), [((0, 1), 2), ((1, 2), 1)]).is_err());
        assert!(UnilateralState::new(g.clone(), [((0, 1), 0)]).is_err());
        assert!(UnilateralState::new(g.clone(), [((0, 2), 0), ((1, 2), 1)]).is_err());
        assert!(
            UnilateralState::new(g, [((0, 1), 0), ((1, 2), 1), ((1, 2), 2)]).is_err(),
            "double ownership must be rejected"
        );
    }

    #[test]
    fn leaf_owned_star_is_ne_for_reasonable_alpha() {
        // Classic: the star with leaf-owned edges is a NE for α ≥ 1.
        let s = leaf_owned_star(6);
        for alpha in ["1", "2", "10"] {
            assert!(s.is_ne(a(alpha)).unwrap(), "leaf-owned star at α = {alpha}");
        }
    }

    #[test]
    fn center_owned_star_center_drops_edges_at_high_alpha() {
        let s = center_owned_star(6);
        // Dropping a leaf edge saves α, costs reachability — never good.
        assert!(s.is_remove_stable(a("100")));
        // But a full rewire is different: still no, the center needs all
        // leaves. The *leaves* cannot do anything either (they own nothing).
        assert!(s.is_ne(a("2")).unwrap());
    }

    #[test]
    fn add_violations_found_on_paths() {
        let g = generators::path(5);
        let owners: Vec<((u32, u32), u32)> = g.edges().map(|(u, v)| ((u, v), u)).collect();
        let s = UnilateralState::new(g, owners).unwrap();
        // End agent buys an edge to the middle: distance gain 4 > α.
        assert!(matches!(
            s.find_add_violation(a("3")),
            Some(UnilateralMove::Buy { .. })
        ));
        assert!(s.find_add_violation(a("4")).is_none());
    }

    #[test]
    fn all_assignments_enumerates_2_to_m() {
        let g = generators::path(4);
        let states = UnilateralState::all_assignments(&g).unwrap();
        assert_eq!(states.len(), 8);
        // All states share the graph but differ in ownership.
        let mut strategies: Vec<Vec<u32>> = states.iter().map(|s| s.strategy(1)).collect();
        strategies.sort();
        strategies.dedup();
        assert!(strategies.len() > 1);
    }

    #[test]
    fn proposition_2_2_remove_equilibria_coincide() {
        // G is in bilateral RE iff G is in unilateral RE for EVERY edge
        // assignment.
        let mut rng = bncg_graph::test_rng(21);
        for _ in 0..15 {
            let g = generators::random_connected(6, 0.35, &mut rng);
            for alpha in ["1/2", "1", "2", "6"] {
                let alpha = a(alpha);
                let bilateral = Concept::Re.is_stable(&g, alpha).unwrap();
                let unilateral_all = UnilateralState::all_assignments(&g)
                    .unwrap()
                    .iter()
                    .all(|s| s.is_remove_stable(alpha));
                assert_eq!(
                    bilateral, unilateral_all,
                    "Prop 2.2 violated at α = {alpha}"
                );
            }
        }
    }

    #[test]
    fn proposition_2_1_add_equilibrium_implies_bae() {
        // If (G, f) is in unilateral Add Equilibrium then G is in BAE.
        let mut rng = bncg_graph::test_rng(22);
        for _ in 0..10 {
            let g = generators::random_connected(6, 0.3, &mut rng);
            for alpha in ["1", "2"] {
                let alpha = a(alpha);
                for s in UnilateralState::all_assignments(&g).unwrap().iter().take(8) {
                    if s.find_add_violation(alpha).is_none() {
                        assert!(
                            Concept::Bae.is_stable(&g, alpha).unwrap(),
                            "Prop 2.1 violated at α = {alpha}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn ne_guard_fires_on_large_instances() {
        let g = generators::star(30);
        let owners: Vec<((u32, u32), u32)> = g.edges().map(|(u, v)| ((u, v), v)).collect();
        let s = UnilateralState::new(g, owners).unwrap();
        // Agent 0 (center): candidates are the 0 non-adjacent nodes — fine;
        // a leaf has 28 candidates > 20 → guard.
        assert!(matches!(
            s.find_ne_violation(a("1")),
            Err(GameError::CheckTooLarge { .. })
        ));
    }
}
