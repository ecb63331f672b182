//! The incremental `GameState` evaluation engine.

use crate::alpha::Alpha;
use crate::cost::{AgentCost, Ratio};
use crate::cost_model::{CostModel, CostModelSpec};
use crate::delta::{cost_after_add, TreeSummary};
use crate::error::GameError;
use crate::moves::Move;
use bncg_graph::{BitsetGraph, DistanceMatrix, Graph};
use std::sync::OnceLock;

/// A game state with incrementally maintained distance and cost caches.
///
/// Every solution-concept checker, best-response computation, and dynamics
/// loop reduces to one primitive: *given a state, how do agent costs change
/// under a candidate [`Move`]?* The naive answer — apply the move and
/// rebuild the all-pairs [`DistanceMatrix`] — costs `O(n·(n+m))` per
/// candidate and caps the reproduction at toy sizes, because the BNE-style
/// move spaces alone hold `Θ(n·2^{n−1})` candidates.
///
/// [`GameState`] owns the graph together with two caches that are kept
/// **exactly** consistent with it at all times:
///
/// * the all-pairs [`DistanceMatrix`], and
/// * the per-agent [`AgentCost`] vector.
///
/// A tree under the default cost model keeps a third, the `O(n)`
/// [`TreeSummary`], takes its costs from the summary's rerooted distance
/// sums, and builds the `O(n²)` matrix only when something first asks
/// for it ([`GameState::distances`]). The polynomial checks (RE, BAE,
/// PS, BSwE, BGE) and the evaluator's add and swap fast paths price tree
/// moves from the summary, so on a tree none of them builds the matrix.
///
/// # The incremental-evaluation contract
///
/// 1. **Evaluation is pure and exact.** The [`MoveEvaluator`] from
///    [`GameState::evaluator`] never touches the state and returns
///    the same lexicographic [`AgentCost`]s a from-scratch recomputation on
///    the successor graph would produce — the engine only swaps the
///    *algorithm*, never the *semantics*. Single-edge additions are priced
///    in `O(n)` straight from the cached matrix (`d'(u,w) =
///    min(d(u,w), 1 + d(v,w))`), or in `O(d(u, v))` from the summary
///    on a tree, and tree swaps in `O(d(agent, new))` from the summary;
///    everything else applies the move to a private scratch graph and
///    re-runs BFS **only for the consenting agents**, never a full
///    matrix rebuild.
/// 2. **Application is incremental.** [`GameState::apply_move`] replays the
///    move one edge toggle at a time through
///    [`DistanceMatrix::apply_edge_toggle`], which re-expands only the
///    sources whose distance vector can change (endpoint-distance gap ≥ 2
///    for additions, exactly 1 for removals), then refreshes exactly the
///    affected agents' costs.
/// 3. **Caches never drift.** After any sequence of `apply_move` calls the
///    caches equal `DistanceMatrix::new(graph)` and `agent_cost(graph, u)`
///    for every `u` — the property suite in `tests/proptests.rs` asserts
///    this on random graphs and random moves of all five kinds.
///
/// # Examples
///
/// Evaluating a candidate move without recomputing anything:
///
/// ```
/// use bncg_core::{agent_cost, Alpha, GameState, Move};
/// use bncg_graph::generators;
///
/// let alpha = Alpha::integer(1)?;
/// let state = GameState::new(generators::path(6), alpha);
/// let delta = state.evaluator().evaluate(&Move::BilateralAdd { u: 0, v: 5 })?;
/// // Exact: matches a from-scratch recomputation on the successor graph.
/// let g2 = Move::BilateralAdd { u: 0, v: 5 }.apply(state.graph())?;
/// assert_eq!(delta.agents[0].after, agent_cost(&g2, 0));
/// assert!(delta.improving_all); // the two path ends both profit at α = 1
/// # Ok::<(), bncg_core::GameError>(())
/// ```
///
/// Applying moves keeps the caches exact:
///
/// ```
/// use bncg_core::{agent_cost, Alpha, GameState, Move};
/// use bncg_graph::{generators, DistanceMatrix};
///
/// let mut state = GameState::new(generators::path(5), Alpha::integer(2)?);
/// state.apply_move(&Move::BilateralAdd { u: 0, v: 4 })?;
/// state.apply_move(&Move::Remove { agent: 1, target: 2 })?;
/// assert_eq!(*state.distances(), DistanceMatrix::new(state.graph()));
/// assert_eq!(state.cost(1), agent_cost(state.graph(), 1));
/// # Ok::<(), bncg_core::GameError>(())
/// ```
#[derive(Debug, Clone)]
pub struct GameState {
    g: Graph,
    alpha: Alpha,
    model: CostModelSpec,
    /// Set at construction for every state but a default-model tree,
    /// which builds it on the first [`GameState::distances`] call.
    dist: OnceLock<DistanceMatrix>,
    costs: Vec<AgentCost>,
    /// Present exactly for a tree under the default model.
    tree: Option<TreeSummary>,
    is_tree: bool,
}

/// The before/after cost of one consenting agent under a candidate move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AgentDelta {
    /// The agent whose consent the move requires.
    pub agent: u32,
    /// Its cost in the current state.
    pub before: AgentCost,
    /// Its exact cost in the successor state.
    pub after: AgentCost,
}

/// The exact effect of a candidate move on its consenting agents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MoveDelta {
    /// One entry per consenting agent, in [`Move::consenting_agents`] order.
    pub agents: Vec<AgentDelta>,
    /// Whether **every** consenting agent strictly improves — the
    /// feasibility predicate all solution concepts share.
    pub improving_all: bool,
}

impl GameState {
    /// Builds the state and its caches under the default
    /// [`CostModelSpec::SumDistances`] objective. A tree is rooted once
    /// and every cost read off its rerooted distance sums, `O(n)`, with
    /// the matrix left for the first [`GameState::distances`] call; any
    /// other graph gets the matrix at once, one BFS per node,
    /// `O(n·(n+m))`.
    #[must_use]
    pub fn new(g: Graph, alpha: Alpha) -> Self {
        GameState::with_cost_model(g, alpha, CostModelSpec::SumDistances)
    }

    /// Builds the state and its caches pricing agents under `model`.
    /// The default model is byte-identical to [`GameState::new`]; a
    /// non-default model changes what the cost cache holds (and
    /// therefore every stability verdict), folds its tag into
    /// [`GameState::fingerprint`], disables the evaluation fast
    /// paths that are proven only for the paper's objective, and always
    /// builds the matrix at once.
    #[must_use]
    pub fn with_cost_model(g: Graph, alpha: Alpha, model: CostModelSpec) -> Self {
        let tree = if model.is_default() {
            TreeSummary::new(&g)
        } else {
            None
        };
        let dist = OnceLock::new();
        let costs = match &tree {
            Some(t) => t
                .dist_sums()
                .iter()
                .enumerate()
                .map(|(u, &sum)| AgentCost {
                    unreachable: 0,
                    edges: g.degree(u as u32) as u32,
                    dist: sum,
                })
                .collect(),
            None => {
                let d = dist.get_or_init(|| DistanceMatrix::new(&g));
                (0..g.n() as u32)
                    .map(|u| model.cost_matrix(&g, d, u))
                    .collect()
            }
        };
        let is_tree = if model.is_default() {
            tree.is_some()
        } else {
            g.is_tree()
        };
        GameState {
            g,
            alpha,
            model,
            dist,
            costs,
            tree,
            is_tree,
        }
    }

    /// The current graph.
    #[must_use]
    pub fn graph(&self) -> &Graph {
        &self.g
    }

    /// The edge price.
    #[must_use]
    pub fn alpha(&self) -> Alpha {
        self.alpha
    }

    /// The cost model agents are priced under.
    #[must_use]
    pub fn cost_model(&self) -> CostModelSpec {
        self.model
    }

    /// Prices agent `u` on a bitset mirror of some candidate graph
    /// under this state's model — the routed form of
    /// [`crate::cost::agent_cost_bits`] the scan loops call.
    #[inline]
    #[must_use]
    pub(crate) fn price_bits(&self, bits: &BitsetGraph, u: u32) -> AgentCost {
        self.model.cost_bits(bits, u)
    }

    /// Prices agent `u` on a scratch graph under this state's model —
    /// the routed form of [`crate::agent_cost`] (with a caller-owned
    /// BFS buffer).
    #[inline]
    #[must_use]
    pub(crate) fn price_scalar(&self, g: &Graph, u: u32, buf: &mut Vec<u32>) -> AgentCost {
        self.model.cost_scalar(g, u, buf)
    }

    /// Number of agents.
    #[must_use]
    pub fn n(&self) -> usize {
        self.g.n()
    }

    /// The all-pairs distance matrix (always exact). Every state but a
    /// tree under the default cost model builds it at construction; such
    /// a tree builds it on the first call, `O(n²)`, and keeps it from
    /// then on (as does [`GameState::apply_move`], which updates it).
    #[must_use]
    pub fn distances(&self) -> &DistanceMatrix {
        self.dist.get_or_init(|| DistanceMatrix::new(&self.g))
    }

    /// The `O(n)` tree summary the matrix-free tree kernels price from,
    /// present exactly when the graph is a tree and the cost model is the
    /// default one.
    #[must_use]
    pub fn tree(&self) -> Option<&TreeSummary> {
        self.tree.as_ref()
    }

    /// Whether the distance matrix has been built.
    #[cfg(test)]
    pub(crate) fn matrix_built(&self) -> bool {
        self.dist.get().is_some()
    }

    /// The cached cost of agent `u` (always exact).
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[must_use]
    pub fn cost(&self, u: u32) -> AgentCost {
        self.costs[u as usize]
    }

    /// The cached costs of all agents, indexed by agent id.
    #[must_use]
    pub fn costs(&self) -> &[AgentCost] {
        &self.costs
    }

    /// Whether the current graph is a tree (cached; enables the `O(n)`
    /// swap fast path).
    #[must_use]
    pub fn is_tree(&self) -> bool {
        self.is_tree
    }

    /// A 64-bit fingerprint of the *instance* — the labelled graph plus
    /// α — binding a [`crate::solver::Frontier`] resume token to the
    /// exact state it was issued for. Applied moves change the graph and
    /// therefore the fingerprint, so stale tokens are rejected instead
    /// of resuming into a different instance. Built on the stable
    /// [`bncg_graph::fnv1a_u64`] primitive, so serialized tokens resolve
    /// across processes, platforms, and toolchains.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let h = bncg_graph::fnv1a_u64(self.g.fingerprint(), self.alpha.num() as u64);
        let h = bncg_graph::fnv1a_u64(h, self.alpha.den() as u64);
        if self.model.is_default() {
            // The default model contributes nothing, so fingerprints —
            // and every serialized resume token, checkpoint, and atlas
            // key built on them — are unchanged from the pre-trait
            // engine.
            h
        } else {
            bncg_graph::fnv1a_u64(h, self.model.fingerprint_tag())
        }
    }

    /// Social cost of the state from the caches, without any BFS:
    /// the rerooted distance sums on a default-model tree, the matrix
    /// otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`GameError::Disconnected`] for disconnected states.
    pub fn social_cost(&self) -> Result<Ratio, GameError> {
        if !self.model.is_default() {
            // Generic arm: Σ_u of the model's finite per-agent cost.
            // For the adversary model this is K× the expected social
            // cost — a fixed positive scale at fixed n, so ratios over
            // a common instance set are unaffected.
            if self.costs.iter().any(|c| c.unreachable > 0) {
                return Err(GameError::Disconnected);
            }
            let total: i128 = self
                .costs
                .iter()
                .map(|c| self.alpha.cost_key(c.edges, c.dist))
                .sum();
            return Ok(Ratio::new(total, i128::from(self.alpha.den())));
        }
        let total = match &self.tree {
            Some(t) => t.dist_sums().iter().sum(),
            None => self
                .distances()
                .total_distance()
                .ok_or(GameError::Disconnected)?,
        };
        let edges_paid = 2 * self.g.m() as u64;
        Ok(Ratio::new(
            i128::from(self.alpha.num()) * i128::from(edges_paid)
                + i128::from(self.alpha.den()) * i128::from(total),
            i128::from(self.alpha.den()),
        ))
    }

    /// The social cost ratio `ρ` against the optimum for this `n` and `α`,
    /// from the caches (same definition as
    /// [`social_cost_ratio`](crate::social_cost_ratio)).
    ///
    /// # Errors
    ///
    /// Returns [`GameError::Disconnected`] for disconnected states.
    pub fn social_cost_ratio(&self) -> Result<Ratio, GameError> {
        Ok(crate::cost::ratio_against_optimum(
            self.social_cost()?,
            self.n(),
            self.alpha,
        ))
    }

    /// A reusable evaluator holding the scratch storage for candidate
    /// evaluation. Checkers that stream through large move spaces create
    /// one evaluator and feed every candidate through it.
    #[must_use]
    pub fn evaluator(&self) -> MoveEvaluator<'_> {
        MoveEvaluator {
            state: self,
            scratch: self.g.clone(),
            bits: BitsetGraph::from_graph(&self.g),
            buf: Vec::new(),
        }
    }

    /// Evaluates a batch of candidate moves across worker threads, each
    /// with its own scratch evaluator. Results keep the input order.
    ///
    /// (The roadmap calls for rayon here; the build container is offline,
    /// so this uses `std::thread::scope` with the same chunked shape.)
    ///
    /// # Errors
    ///
    /// Returns the first per-move validation error, if any.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn evaluate_moves_parallel(
        &self,
        moves: &[Move],
        threads: usize,
    ) -> Result<Vec<MoveDelta>, GameError> {
        assert!(threads > 0, "need at least one worker thread");
        if threads == 1 || moves.len() < 2 {
            let mut ev = self.evaluator();
            return moves.iter().map(|mv| ev.evaluate(mv)).collect();
        }
        let chunk = moves.len().div_ceil(threads);
        let mut out = Vec::with_capacity(moves.len());
        std::thread::scope(|scope| {
            let handles: Vec<_> = moves
                .chunks(chunk)
                .map(|piece| {
                    scope.spawn(move || {
                        let mut ev = self.evaluator();
                        piece
                            .iter()
                            .map(|mv| ev.evaluate(mv))
                            .collect::<Vec<Result<MoveDelta, GameError>>>()
                    })
                })
                .collect();
            for h in handles {
                out.extend(h.join().expect("evaluator threads do not panic"));
            }
        });
        out.into_iter().collect()
    }

    /// Applies a move, updating graph, distance matrix, and cost cache
    /// incrementally (per-toggle delta-BFS instead of a full rebuild).
    /// A state whose matrix is not built yet builds it first; a
    /// default-model state that is a tree afterwards re-roots its tree
    /// summary, `O(n)`.
    ///
    /// # Errors
    ///
    /// Returns [`GameError::InvalidMove`] / [`GameError::NodeOutOfRange`]
    /// if the move does not type-check; the state is left unchanged.
    pub fn apply_move(&mut self, mv: &Move) -> Result<(), GameError> {
        // Validate and apply on the graph, then rewind so the matrix can
        // watch every intermediate single-toggle state.
        let applied = mv.apply_in_place(&mut self.g)?;
        applied.undo(&mut self.g);
        if self.dist.get().is_none() {
            self.dist = OnceLock::from(DistanceMatrix::new(&self.g));
        }
        let dist = self.dist.get_mut().expect("built just above");
        let mut affected = vec![false; self.g.n()];
        for &(u, v, added) in applied.toggles() {
            if added {
                self.g.add_edge(u, v).expect("replaying validated toggle");
            } else {
                self.g
                    .remove_edge(u, v)
                    .expect("replaying validated toggle");
            }
            for s in dist.apply_edge_toggle(&self.g, u, v) {
                affected[s as usize] = true;
            }
            // Degrees changed even where distances did not.
            affected[u as usize] = true;
            affected[v as usize] = true;
        }
        if self.model.is_default() {
            for (s, touched) in affected.iter().enumerate() {
                if *touched {
                    self.costs[s] = self.model.cost_matrix(&self.g, dist, s as u32);
                }
            }
        } else {
            // The affected-agents-only refresh is a sum-of-distances
            // theorem: under the adversary model an edge toggle changes
            // every agent's scenario set even where distance rows are
            // untouched, and generalized utilities share the cache, so
            // non-default models refresh the whole cost vector.
            for s in 0..self.g.n() {
                self.costs[s] = self.model.cost_matrix(&self.g, dist, s as u32);
            }
        }
        self.is_tree = self.g.n() >= 1 && self.g.m() == self.g.n() - 1 && dist.row_sum(0).is_some();
        self.tree = if self.is_tree && self.model.is_default() {
            TreeSummary::new(&self.g)
        } else {
            None
        };
        Ok(())
    }
}

/// Scratch storage for streaming candidate-move evaluation against one
/// [`GameState`]. Create via [`GameState::evaluator`].
#[derive(Debug)]
pub struct MoveEvaluator<'a> {
    state: &'a GameState,
    scratch: Graph,
    /// Word-parallel mirror of the scratch graph, present iff `n ≤ 64`;
    /// the generic path prices consenting agents on it via frontier BFS
    /// instead of adjacency-list BFS.
    bits: Option<BitsetGraph>,
    buf: Vec<u32>,
}

impl MoveEvaluator<'_> {
    /// The state this evaluator prices moves against.
    #[must_use]
    pub fn state(&self) -> &GameState {
        self.state
    }

    /// Evaluates one candidate move exactly; see [`GameState`] for the
    /// algorithm per move shape.
    ///
    /// # Errors
    ///
    /// Returns [`GameError::InvalidMove`] / [`GameError::NodeOutOfRange`]
    /// if the move does not type-check against the current graph.
    pub fn evaluate(&mut self, mv: &Move) -> Result<MoveDelta, GameError> {
        self.eval(mv, false)
    }

    /// The full delta of `mv` if every consenting agent strictly
    /// improves, `None` otherwise — the shared feasibility predicate,
    /// stopping at the first non-improving agent (the rejection-dominated
    /// scans never pay for more than one cost computation past the
    /// failure). A returned delta prices every consenting agent.
    ///
    /// # Errors
    ///
    /// Same contract as [`MoveEvaluator::evaluate`].
    pub fn improves_all(&mut self, mv: &Move) -> Result<Option<MoveDelta>, GameError> {
        let delta = self.eval(mv, true)?;
        Ok(delta.improving_all.then_some(delta))
    }

    /// Shared evaluation core. With `short_circuit` the per-agent loop
    /// stops at the first non-improving agent, so the returned delta
    /// covers every agent exactly when `improving_all` holds.
    fn eval(&mut self, mv: &Move, short_circuit: bool) -> Result<MoveDelta, GameError> {
        let state = self.state;
        let alpha = state.alpha;
        // The matrix-delta fast paths below are sum-of-distances
        // theorems; non-default models take the generic
        // apply/price/undo path for every move shape.
        if state.model.is_default() {
            // Fast path 1: single bilateral addition, priced straight from
            // the tree summary or the cached matrix with no graph
            // mutation at all.
            if let Move::BilateralAdd { u, v } = *mv {
                let n = state.g.n();
                if u as usize >= n {
                    return Err(GameError::NodeOutOfRange { node: u, n });
                }
                if v as usize >= n {
                    return Err(GameError::NodeOutOfRange { node: v, n });
                }
                if u == v || state.g.has_edge(u, v) {
                    return Err(GameError::InvalidMove(format!(
                        "cannot add existing or degenerate edge {{{u}, {v}}}"
                    )));
                }
                // The tree summary prices both endpoints in one walk;
                // the matrix prices each in `O(n)`, so only on demand.
                let on_tree = state.tree.as_ref().map(|t| t.add_costs(&state.g, u, v));
                let mut deltas = Vec::with_capacity(2);
                for (i, (a, b)) in [(u, v), (v, u)].into_iter().enumerate() {
                    let after = match on_tree {
                        Some(costs) => costs[i],
                        None => cost_after_add(&state.g, state.distances(), a, b),
                    };
                    let d = AgentDelta {
                        agent: a,
                        before: state.costs[a as usize],
                        after,
                    };
                    let improves = d.after.better_than(&d.before, alpha);
                    deltas.push(d);
                    if short_circuit && !improves {
                        break;
                    }
                }
                return Ok(finish(deltas, alpha));
            }
            // Fast path 2: swaps on trees via component sums over the
            // tree summary (`O(d(agent, new))` per candidate instead of
            // two BFS runs; the pair comes from one pass, so there is
            // nothing to short-circuit).
            if let Move::Swap { agent, old, new } = *mv {
                if let Some(t) = &state.tree {
                    if state.g.has_edge(agent, old)
                        && new != agent
                        && (new as usize) < state.g.n()
                        && !state.g.has_edge(agent, new)
                        && old != new
                    {
                        if let Some((c_agent, c_new)) = t.swap_costs(&state.g, agent, old, new) {
                            let deltas = vec![
                                AgentDelta {
                                    agent,
                                    before: state.costs[agent as usize],
                                    after: c_agent,
                                },
                                AgentDelta {
                                    agent: new,
                                    before: state.costs[new as usize],
                                    after: c_new,
                                },
                            ];
                            return Ok(finish(deltas, alpha));
                        }
                        // Disconnecting swap: fall through to the generic
                        // engine, which prices the unreachability exactly.
                    }
                }
            }
        }
        // Generic path: apply to the scratch graph (full validation), BFS
        // only the consenting agents (lazily when short-circuiting), undo.
        // At n ≤ 64 the toggles are mirrored onto the bitset scratch and
        // every agent is priced by the word-parallel frontier BFS; the
        // adjacency-list BFS is the reference fallback above that.
        let applied = mv.apply_in_place(&mut self.scratch)?;
        let consenting = mv.consenting_agents();
        let mut deltas = Vec::with_capacity(consenting.len());
        if let Some(bits) = &mut self.bits {
            applied.redo_on_bits(bits);
            for a in consenting {
                let d = AgentDelta {
                    agent: a,
                    before: state.costs[a as usize],
                    after: state.model.cost_bits(bits, a),
                };
                let improves = d.after.better_than(&d.before, alpha);
                deltas.push(d);
                if short_circuit && !improves {
                    break;
                }
            }
            applied.undo_on_bits(bits);
        } else {
            for a in consenting {
                let d = AgentDelta {
                    agent: a,
                    before: state.costs[a as usize],
                    after: state.model.cost_scalar(&self.scratch, a, &mut self.buf),
                };
                let improves = d.after.better_than(&d.before, alpha);
                deltas.push(d);
                if short_circuit && !improves {
                    break;
                }
            }
        }
        applied.undo(&mut self.scratch);
        Ok(finish(deltas, alpha))
    }
}

fn finish(agents: Vec<AgentDelta>, alpha: Alpha) -> MoveDelta {
    let improving_all = agents.iter().all(|d| d.after.better_than(&d.before, alpha));
    MoveDelta {
        agents,
        improving_all,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::agent_cost;
    use bncg_graph::generators;

    fn a(s: &str) -> Alpha {
        s.parse().unwrap()
    }

    /// Every move kind, on random graphs: evaluation equals from-scratch.
    #[test]
    fn evaluate_matches_scratch_recomputation() {
        let mut rng = bncg_graph::test_rng(1001);
        for _ in 0..12 {
            let g = generators::random_connected(9, 0.25, &mut rng);
            let state = GameState::new(g.clone(), a("3/2"));
            let mut ev = state.evaluator();
            let mut candidates: Vec<Move> = Vec::new();
            for (u, v) in g.edges().take(4) {
                candidates.push(Move::Remove {
                    agent: u,
                    target: v,
                });
            }
            for (u, v) in g.non_edges().take(4) {
                candidates.push(Move::BilateralAdd { u, v });
            }
            for u in 0..3u32 {
                for &old in g.neighbors(u).iter().take(1) {
                    for new in 0..9u32 {
                        if new != u && !g.has_edge(u, new) {
                            candidates.push(Move::Swap { agent: u, old, new });
                            break;
                        }
                    }
                }
            }
            candidates.push(Move::Neighborhood {
                center: 0,
                remove: g.neighbors(0).to_vec(),
                add: vec![(g.n() - 1) as u32; usize::from(!g.has_edge(0, g.n() as u32 - 1))],
            });
            for mv in candidates {
                if mv.apply(&g).is_err() {
                    continue;
                }
                let delta = ev.evaluate(&mv).unwrap();
                let g2 = mv.apply(&g).unwrap();
                for d in &delta.agents {
                    assert_eq!(d.before, agent_cost(&g, d.agent), "before mismatch on {mv}");
                    assert_eq!(d.after, agent_cost(&g2, d.agent), "after mismatch on {mv}");
                }
                assert_eq!(
                    delta.improving_all,
                    crate::delta::move_improves_all(&g, a("3/2"), &mv).unwrap(),
                    "predicate mismatch on {mv}"
                );
            }
        }
    }

    #[test]
    fn tree_swap_fast_path_agrees_with_generic() {
        let mut rng = bncg_graph::test_rng(1002);
        for _ in 0..10 {
            let g = generators::random_tree(10, &mut rng);
            let state = GameState::new(g.clone(), a("2"));
            assert!(state.is_tree());
            let mut ev = state.evaluator();
            for agent in 0..10u32 {
                for &old in g.neighbors(agent) {
                    for new in 0..10u32 {
                        if new == agent || g.has_edge(agent, new) {
                            continue;
                        }
                        let mv = Move::Swap { agent, old, new };
                        let delta = ev.evaluate(&mv).unwrap();
                        let g2 = mv.apply(&g).unwrap();
                        // Consenting agents in `Move::consenting_agents` order.
                        assert_eq!(delta.agents[0].after, agent_cost(&g2, agent));
                        assert_eq!(delta.agents[1].after, agent_cost(&g2, new));
                    }
                }
            }
        }
    }

    #[test]
    fn apply_move_keeps_caches_exact() {
        let mut rng = bncg_graph::test_rng(1003);
        let mut state = GameState::new(generators::random_connected(10, 0.2, &mut rng), a("2"));
        let moves = [
            Move::BilateralAdd { u: 0, v: 9 },
            Move::Remove {
                agent: 0,
                target: 9,
            },
            Move::Neighborhood {
                center: 3,
                remove: vec![],
                add: vec![9],
            },
        ];
        for mv in moves {
            if state.evaluator().evaluate(&mv).is_err() {
                continue;
            }
            state.apply_move(&mv).unwrap();
            assert_eq!(*state.distances(), DistanceMatrix::new(state.graph()));
            for u in 0..state.n() as u32 {
                assert_eq!(state.cost(u), agent_cost(state.graph(), u));
            }
            assert_eq!(state.is_tree(), state.graph().is_tree());
        }
    }

    #[test]
    fn failed_apply_leaves_state_unchanged() {
        let state0 = GameState::new(generators::path(5), a("1"));
        let mut state = state0.clone();
        let bad = Move::Coalition {
            members: vec![0, 1, 4],
            remove_edges: vec![(0, 1), (2, 4)], // second removal invalid
            add_edges: vec![(0, 4)],
        };
        assert!(state.apply_move(&bad).is_err());
        assert_eq!(state.graph(), state0.graph());
        assert_eq!(state.costs(), state0.costs());
        assert_eq!(*state.distances(), *state0.distances());
    }

    #[test]
    fn parallel_batch_matches_sequential() {
        let g = generators::cycle(9);
        let state = GameState::new(g.clone(), a("2"));
        let moves: Vec<Move> = g
            .non_edges()
            .map(|(u, v)| Move::BilateralAdd { u, v })
            .chain(g.edges().map(|(u, v)| Move::Remove {
                agent: u,
                target: v,
            }))
            .collect();
        let serial = state.evaluate_moves_parallel(&moves, 1).unwrap();
        let parallel = state.evaluate_moves_parallel(&moves, 4).unwrap();
        assert_eq!(serial, parallel);
        assert_eq!(serial.len(), moves.len());
    }

    #[test]
    fn social_cost_matches_direct_computation() {
        let g = generators::path(6);
        let state = GameState::new(g.clone(), a("2"));
        assert_eq!(
            state.social_cost().unwrap(),
            crate::cost::social_cost(&g, a("2")).unwrap()
        );
        let disconnected = GameState::new(Graph::new(3), a("1"));
        assert_eq!(disconnected.social_cost(), Err(GameError::Disconnected));
    }

    #[test]
    fn polynomial_checks_on_a_tree_state_never_build_the_matrix() {
        use crate::concepts::Concept;
        use crate::solver::{ExecPolicy, Solver, StabilityQuery, Verdict};
        let solver = Solver::new(ExecPolicy::default());
        let trees = [
            generators::random_tree(200, &mut bncg_graph::test_rng(1004)),
            generators::star(200),
        ];
        let (mut stable, mut unstable) = (0, 0);
        for g in &trees {
            for alpha in ["1/2", "2", "200"] {
                let state = GameState::new(g.clone(), a(alpha));
                for concept in [
                    Concept::Re,
                    Concept::Bae,
                    Concept::Ps,
                    Concept::Bswe,
                    Concept::Bge,
                ] {
                    match solver.check(&StabilityQuery::on(concept, &state)).unwrap() {
                        Verdict::Stable { .. } => stable += 1,
                        _ => unstable += 1,
                    }
                    assert!(!state.matrix_built(), "{concept} at α = {alpha}");
                }
                state.social_cost().unwrap();
                let mut ev = state.evaluator();
                let (u, v) = g.non_edges().next().unwrap();
                ev.evaluate(&Move::BilateralAdd { u, v }).unwrap();
                let old = g.neighbors(u)[0];
                ev.evaluate(&Move::Swap {
                    agent: u,
                    old,
                    new: v,
                })
                .unwrap();
                assert!(!state.matrix_built(), "social cost or evaluator");
            }
        }
        assert!(
            stable > 0 && unstable > 0,
            "{stable} stable, {unstable} unstable"
        );
        // Every other state builds the matrix at once.
        assert!(GameState::new(generators::cycle(200), a("2")).matrix_built());
        let robust = CostModelSpec::AdversaryRobust;
        assert!(GameState::with_cost_model(trees[0].clone(), a("2"), robust).matrix_built());
    }

    #[test]
    fn moves_on_a_lazy_tree_state_match_a_fresh_state() {
        let g = generators::random_tree(80, &mut bncg_graph::test_rng(1005));
        let mut state = GameState::new(g.clone(), a("2"));
        assert!(!state.matrix_built());
        // A swap that keeps the tree, an addition that closes a cycle,
        // and a removal on that cycle that makes a tree again.
        let t = state.tree().unwrap();
        let swap = (0..80u32)
            .flat_map(|agent| g.neighbors(agent).iter().map(move |&old| (agent, old)))
            .flat_map(|(agent, old)| (0..80u32).map(move |new| (agent, old, new)))
            .find(|&(agent, old, new)| {
                new != agent
                    && !g.has_edge(agent, new)
                    && t.swap_costs(&g, agent, old, new).is_some()
            })
            .map(|(agent, old, new)| Move::Swap { agent, old, new })
            .unwrap();
        let mut moves = vec![swap];
        let after_swap = moves[0].apply(&g).unwrap();
        let (u, v) = after_swap
            .non_edges()
            .find(|&(u, v)| DistanceMatrix::new(&after_swap).dist(u, v) >= 3)
            .unwrap();
        moves.push(Move::BilateralAdd { u, v });
        let d = DistanceMatrix::new(&after_swap);
        let toward = *after_swap
            .neighbors(u)
            .iter()
            .find(|&&x| d.dist(x, v) + 1 == d.dist(u, v))
            .unwrap();
        moves.push(Move::Remove {
            agent: u,
            target: toward,
        });
        for (i, mv) in moves.iter().enumerate() {
            state.apply_move(mv).unwrap();
            let fresh = GameState::new(state.graph().clone(), a("2"));
            assert_eq!(*state.distances(), *fresh.distances(), "move {i}: {mv}");
            assert_eq!(state.costs(), fresh.costs(), "move {i}: {mv}");
            assert_eq!(state.is_tree(), fresh.is_tree(), "move {i}: {mv}");
            assert_eq!(state.tree(), fresh.tree(), "move {i}: {mv}");
            assert_eq!(
                state.social_cost().unwrap(),
                fresh.social_cost().unwrap(),
                "move {i}: {mv}"
            );
        }
        assert!(state.is_tree(), "the removal reopens the cycle");
    }

    #[test]
    fn invalid_moves_are_rejected_without_mutation() {
        let state = GameState::new(generators::path(4), a("1"));
        let mut ev = state.evaluator();
        assert!(ev.evaluate(&Move::BilateralAdd { u: 0, v: 0 }).is_err());
        assert!(ev.evaluate(&Move::BilateralAdd { u: 0, v: 1 }).is_err());
        assert!(matches!(
            ev.evaluate(&Move::BilateralAdd { u: 0, v: 9 }),
            Err(GameError::NodeOutOfRange { .. })
        ));
        assert!(ev
            .evaluate(&Move::Remove {
                agent: 0,
                target: 2
            })
            .is_err());
        // The scratch graph is intact after rejected candidates.
        let ok = ev.evaluate(&Move::BilateralAdd { u: 0, v: 2 }).unwrap();
        assert_eq!(ok.agents.len(), 2);
    }
}
