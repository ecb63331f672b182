//! Pluggable per-agent cost models.
//!
//! The engine was built around one objective — the paper's
//! `cost(u) = α·|S_u| + Σ_v dist(u, v)` with the lexicographic
//! disconnection penalty — and every layer (state caches, candidate
//! pruning, solver, analysis, wire protocol) hard-coded it. This module
//! turns the objective into a **capability**: a [`CostModel`] prices one
//! agent from any of the three distance substrates the engine already
//! maintains (scalar BFS, word-parallel bitset, cached all-pairs
//! matrix), and the rest of the stack threads a [`CostModelSpec`] value
//! instead of calling `agent_cost` directly.
//!
//! # The incremental-evaluation contract
//!
//! Every model must return the *same* [`AgentCost`] from all three
//! substrates, and [`crate::GameState::evaluate_move`] /
//! [`crate::GameState::apply_move`] must agree with a from-scratch
//! recomputation of the model on the successor graph — the exact
//! contract `state.rs` documents for the default objective, now
//! property-tested **per model** (`tests/cost_models.rs`).
//!
//! All models express their objective through the existing [`AgentCost`]
//! triple `(unreachable, edges, dist)` compared lexicographically by
//! `unreachable`, then `α·edges + dist`. The fields carry model-specific
//! *semantics* but the comparison machinery — and therefore every
//! checker, the solver, and the dynamics loops — is reused unchanged:
//!
//! * [`SumDistances`] — the paper's objective. The default; the pricing
//!   functions are byte-for-byte the pre-trait `agent_cost*` paths, so
//!   default-model witnesses and verdicts are bit-identical to before.
//! * `GeneralizedDistance` — distance-based utilities (arXiv
//!   2510.00239): `dist = Σ_v f(d(u, v))` for a non-decreasing per-hop
//!   [`Utility`] `f`. [`Utility::Identity`] reproduces the paper's
//!   objective through the generic dispatch arm (the perf gate's
//!   dispatch-overhead kernel is built on that equivalence).
//! * [`AdversaryRobust`] — expected post-deletion cost (arXiv
//!   1308.1832): an adversary removes one of `K = n²` attack slots
//!   uniformly at random; slots `1..=m` delete one existing edge, the
//!   rest are no-ops. All three fields are the **sum over scenarios**
//!   (`K ×` the expectation — a fixed positive scaling, so strict
//!   comparisons are preserved): `edges = K·deg(u)` (edges are bought
//!   before the attack), `dist = Σ_scenarios Σ_v d(u, v)`, `unreachable
//!   = Σ_scenarios |{v unreachable}|`. Lexicographic comparison then
//!   orders by expected disconnection first, expected finite cost
//!   second.
//!
//! # Soundness capability
//!
//! The PR 2 pruning inequalities and the PR 5 subtree oracles are
//! *theorems about the sum-of-distances objective*; under another model
//! they are unproven and may discard improving moves. Every filter
//! family is proven for exactly the distance-linear models
//! ([`CostModelSpec::distance_linear`]), and the pruning layer consults
//! that predicate at construction time:
//! an unproven combination runs **filter-free** — correct but slower —
//! never silently wrong. Canonical-fingerprint dedup is model-free (it
//! only collapses identical successor graphs) and stays on everywhere.
//! The coalition bounds (inequality 6's minimum rows, member caps and
//! per-endpoint removal requirements) run inside the edit-set scan and
//! share its gate.
//!
//! | Filter family | `sum_distances` | `generalized:id` | other `generalized` | `adversary_robust` |
//! |---|---|---|---|---|
//! | neighborhood bounds | ✓ | ✓ | — | — |
//! | edit-set bounds | ✓ | ✓ | — | — |
//!
//! `generalized:id` inherits every proof because `f(d) = d` *is* the
//! paper's objective — only the dispatch path differs.

use crate::cost::{agent_cost_bits, agent_cost_from_matrix, agent_cost_with_buf, AgentCost};
use crate::error::GameError;
use bncg_graph::{bfs_distances, BitsetGraph, DistanceMatrix, Graph, UNREACHABLE};
use std::fmt;
use std::str::FromStr;

/// A non-decreasing per-hop utility `f` for `GeneralizedDistance`:
/// the agent pays `Σ_v f(d(u, v))` instead of `Σ_v d(u, v)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Utility {
    /// `f(d) = d` — the paper's objective routed through the generic
    /// dispatch arm. Semantically identical to [`SumDistances`]; used by
    /// the perf gate to price trait dispatch in isolation.
    Identity,
    /// `f(d) = min(d, k)`: hops beyond `k` cost nothing extra — agents
    /// only care about their `k`-neighborhood.
    Capped(u32),
    /// `f(d) = d²`: long detours are penalized superlinearly.
    Quadratic,
}

impl Utility {
    /// Applies the utility to one hop distance.
    #[inline]
    #[must_use]
    pub fn apply(self, d: u32) -> u64 {
        match self {
            Utility::Identity => u64::from(d),
            Utility::Capped(k) => u64::from(d.min(k)),
            Utility::Quadratic => u64::from(d) * u64::from(d),
        }
    }
}

/// The cost-model selector threaded through the stack: `Copy`, ordered
/// token round-trip via [`FromStr`]/[`fmt::Display`], and itself a
/// [`CostModel`] (enum dispatch over the three concrete models).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CostModelSpec {
    /// The paper's sum-of-distances objective (the default).
    #[default]
    SumDistances,
    /// Distance-based utility `Σ_v f(d(u, v))`.
    Generalized(Utility),
    /// Expected post-deletion cost under one uniform edge deletion.
    AdversaryRobust,
}

impl CostModelSpec {
    /// Whether this is the default model, whose pricing must stay
    /// byte-identical to the pre-trait engine. The fast paths
    /// ([`crate::MoveEvaluator`]'s matrix-priced additions and tree
    /// swaps, the affected-agents-only cost refresh in `apply_move`,
    /// the social-cost matrix total) are proven only for it and gate on
    /// this predicate.
    #[inline]
    #[must_use]
    pub fn is_default(self) -> bool {
        matches!(self, CostModelSpec::SumDistances)
    }

    /// Whether the model's `dist` field is the plain sum of hop
    /// distances — the hypothesis of every pruning-inequality proof.
    /// True for [`SumDistances`] and [`Utility::Identity`] (identical
    /// objective, different dispatch path). The pruning layer's
    /// soundness gate: both filter families (the neighborhood bounds
    /// and the edit-set bounds) run only where this holds; see the
    /// [module docs](self) for the table.
    #[inline]
    #[must_use]
    pub fn distance_linear(self) -> bool {
        matches!(
            self,
            CostModelSpec::SumDistances | CostModelSpec::Generalized(Utility::Identity)
        )
    }

    /// The canonical machine token: `sum_distances`, `generalized:id`,
    /// `generalized:cap<k>`, `generalized:quad`, `adversary_robust`.
    /// Round-trips through [`CostModelSpec::from_str`], which also
    /// accepts bare `generalized` as `generalized:cap2`.
    #[must_use]
    pub fn token(self) -> String {
        match self {
            CostModelSpec::SumDistances => "sum_distances".into(),
            CostModelSpec::Generalized(Utility::Identity) => "generalized:id".into(),
            CostModelSpec::Generalized(Utility::Capped(k)) => format!("generalized:cap{k}"),
            CostModelSpec::Generalized(Utility::Quadratic) => "generalized:quad".into(),
            CostModelSpec::AdversaryRobust => "adversary_robust".into(),
        }
    }

    /// A stable 64-bit tag of the model, folded into
    /// [`crate::GameState::fingerprint`] for **non-default** models so
    /// resume tokens and checkpoints bind to the objective they were
    /// issued under. The default model contributes nothing — existing
    /// serialized frontiers, atlas records, and checkpoints stay valid.
    #[must_use]
    pub(crate) fn fingerprint_tag(self) -> u64 {
        self.token().bytes().fold(0xBC05_7A61u64, |h, b| {
            bncg_graph::fnv1a_u64(h, u64::from(b))
        })
    }
}

impl fmt::Display for CostModelSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.token())
    }
}

impl FromStr for CostModelSpec {
    type Err = GameError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let t = s.trim().to_ascii_lowercase();
        match t.as_str() {
            "sum_distances" | "sum-distances" | "default" => Ok(CostModelSpec::SumDistances),
            "generalized" => Ok(CostModelSpec::Generalized(Utility::Capped(2))),
            "generalized:id" => Ok(CostModelSpec::Generalized(Utility::Identity)),
            "generalized:quad" => Ok(CostModelSpec::Generalized(Utility::Quadratic)),
            "adversary_robust" | "adversary-robust" => Ok(CostModelSpec::AdversaryRobust),
            _ => {
                if let Some(k) = t.strip_prefix("generalized:cap") {
                    if let Ok(k) = k.parse::<u32>() {
                        if k >= 1 {
                            return Ok(CostModelSpec::Generalized(Utility::Capped(k)));
                        }
                    }
                }
                Err(GameError::Unsupported {
                    reason: format!(
                        "unknown cost model {s:?}; expected sum_distances, generalized, \
                         generalized:id, generalized:cap<k>, generalized:quad, or \
                         adversary_robust"
                    ),
                })
            }
        }
    }
}

/// A per-agent objective priced from the engine's three distance
/// substrates. See the [module docs](self) for the contract.
pub trait CostModel {
    /// The selector value identifying this model.
    fn spec(&self) -> CostModelSpec;

    /// Prices agent `u` by scalar BFS over the adjacency lists, reusing
    /// a caller-owned distance buffer.
    fn cost_scalar(&self, g: &Graph, u: u32, buf: &mut Vec<u32>) -> AgentCost;

    /// Prices agent `u` from the word-parallel bitset mirror
    /// (`n ≤ 64`).
    fn cost_bits(&self, bits: &BitsetGraph, u: u32) -> AgentCost;

    /// Prices agent `u` from the cached all-pairs matrix (exact for the
    /// graph `g` it was built from).
    fn cost_matrix(&self, g: &Graph, d: &DistanceMatrix, u: u32) -> AgentCost;

    /// Convenience: [`CostModel::cost_scalar`] with a fresh buffer.
    fn cost(&self, g: &Graph, u: u32) -> AgentCost {
        self.cost_scalar(g, u, &mut Vec::new())
    }
}

/// The paper's objective `α·|S_u| + Σ_v dist(u, v)` (the default
/// model). Pricing delegates to the pre-trait `agent_cost*` functions
/// unchanged, which is what keeps default witnesses byte-identical.
#[derive(Debug, Clone, Copy, Default)]
pub struct SumDistances;

impl CostModel for SumDistances {
    fn spec(&self) -> CostModelSpec {
        CostModelSpec::SumDistances
    }

    fn cost_scalar(&self, g: &Graph, u: u32, buf: &mut Vec<u32>) -> AgentCost {
        agent_cost_with_buf(g, u, buf)
    }

    fn cost_bits(&self, bits: &BitsetGraph, u: u32) -> AgentCost {
        agent_cost_bits(bits, u)
    }

    fn cost_matrix(&self, g: &Graph, d: &DistanceMatrix, u: u32) -> AgentCost {
        agent_cost_from_matrix(g, d, u)
    }
}

/// Distance-based utilities (arXiv 2510.00239): `dist = Σ_v f(d(u, v))`
/// for a non-decreasing per-hop [`Utility`] `f`. Unreachable nodes keep
/// the lexicographic penalty regardless of `f`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GeneralizedDistance {
    /// The per-hop utility.
    pub utility: Utility,
}

impl CostModel for GeneralizedDistance {
    fn spec(&self) -> CostModelSpec {
        CostModelSpec::Generalized(self.utility)
    }

    fn cost_scalar(&self, g: &Graph, u: u32, buf: &mut Vec<u32>) -> AgentCost {
        let reached = bfs_distances(g, u, buf);
        let dist = buf
            .iter()
            .filter(|&&d| d != UNREACHABLE)
            .map(|&d| self.utility.apply(d))
            .sum();
        AgentCost {
            unreachable: (g.n() - reached) as u32,
            edges: g.degree(u) as u32,
            dist,
        }
    }

    fn cost_bits(&self, bits: &BitsetGraph, u: u32) -> AgentCost {
        // Frontier BFS mirroring `BitsetGraph::cost_from`, pricing each
        // level at `f(level) · popcount` instead of `level · popcount`.
        let n = bits.n();
        let full = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
        let mut visited = 1u64 << u;
        let mut frontier = bits.row(u);
        let mut level = 1u32;
        let mut dist = 0u64;
        while frontier != 0 {
            dist += self.utility.apply(level) * u64::from(frontier.count_ones());
            visited |= frontier;
            let mut next = 0u64;
            let mut f = frontier;
            while f != 0 {
                let v = f.trailing_zeros();
                f &= f - 1;
                next |= bits.row(v);
            }
            frontier = next & !visited;
            level += 1;
        }
        AgentCost {
            unreachable: (full & !visited).count_ones(),
            edges: bits.degree(u),
            dist,
        }
    }

    fn cost_matrix(&self, g: &Graph, d: &DistanceMatrix, u: u32) -> AgentCost {
        let mut dist = 0u64;
        let mut unreachable = 0u32;
        for &dd in d.row(u) {
            if dd == UNREACHABLE {
                unreachable += 1;
            } else {
                dist += self.utility.apply(dd);
            }
        }
        AgentCost {
            unreachable,
            edges: g.degree(u) as u32,
            dist,
        }
    }
}

/// Expected post-deletion cost (arXiv 1308.1832): one of `K = n²` attack
/// slots fires uniformly; slots `1..=m` delete one existing edge, the
/// rest are no-ops. Fields are the scenario **sums** (`K ×` the
/// expectation, a fixed positive scale at fixed `n`, so the strict
/// improvement predicate is the expected-cost one): see the
/// [module docs](self).
#[derive(Debug, Clone, Copy, Default)]
pub struct AdversaryRobust;

/// `K = n²` keeps the probability space independent of `m`, which moves
/// change; `K·deg(u) ≤ n³` and the scenario-summed unreachable count
/// `≤ n³` must fit the `u32` cost fields.
const ADVERSARY_MAX_N: usize = 1024;

impl AdversaryRobust {
    fn scenario_sum(
        &self,
        n: usize,
        deg: u32,
        base: (u32, u64),
        per_edge: impl Iterator<Item = (u32, u64)>,
    ) -> AgentCost {
        assert!(
            n <= ADVERSARY_MAX_N,
            "adversary_robust is defined for n ≤ {ADVERSARY_MAX_N} (scenario sums must fit u32)"
        );
        let k = (n as u64) * (n as u64);
        let mut m = 0u64;
        let mut unreachable = 0u64;
        let mut dist = 0u64;
        for (u_e, d_e) in per_edge {
            m += 1;
            unreachable += u64::from(u_e);
            dist += d_e;
        }
        unreachable += (k - m) * u64::from(base.0);
        dist += (k - m) * base.1;
        AgentCost {
            unreachable: u32::try_from(unreachable).expect("n ≤ 1024 bounds the scenario sum"),
            edges: u32::try_from(k * u64::from(deg)).expect("n ≤ 1024 bounds K·deg"),
            dist,
        }
    }
}

impl CostModel for AdversaryRobust {
    fn spec(&self) -> CostModelSpec {
        CostModelSpec::AdversaryRobust
    }

    fn cost_scalar(&self, g: &Graph, u: u32, buf: &mut Vec<u32>) -> AgentCost {
        let reach = |h: &Graph, buf: &mut Vec<u32>| -> (u32, u64) {
            let reached = bfs_distances(h, u, buf);
            let dist = buf
                .iter()
                .filter(|&&d| d != UNREACHABLE)
                .map(|&d| u64::from(d))
                .sum();
            ((h.n() - reached) as u32, dist)
        };
        let base = reach(g, buf);
        let edges: Vec<(u32, u32)> = g.edges().collect();
        let mut scratch = g.clone();
        let per_edge: Vec<(u32, u64)> = edges
            .iter()
            .map(|&(a, b)| {
                scratch.remove_edge(a, b).expect("edge exists");
                let r = reach(&scratch, buf);
                scratch.add_edge(a, b).expect("edge was just removed");
                r
            })
            .collect();
        self.scenario_sum(g.n(), g.degree(u) as u32, base, per_edge.into_iter())
    }

    fn cost_bits(&self, bits: &BitsetGraph, u: u32) -> AgentCost {
        let n = bits.n();
        let base = bits.cost_from(u);
        let mut scratch = bits.clone();
        let mut per_edge = Vec::new();
        for a in 0..n as u32 {
            // Each undirected edge once: partners above `a`.
            let mut above = scratch.row(a) & !((1u64 << a) | ((1u64 << a) - 1));
            while above != 0 {
                let b = above.trailing_zeros();
                above &= above - 1;
                scratch.toggle_edge(a, b);
                per_edge.push(scratch.cost_from(u));
                scratch.toggle_edge(a, b);
            }
        }
        self.scenario_sum(n, bits.degree(u), base, per_edge.into_iter())
    }

    fn cost_matrix(&self, g: &Graph, d: &DistanceMatrix, u: u32) -> AgentCost {
        // Deletion scenarios are not derivable from the base matrix; the
        // base row is, but re-running the scalar path keeps one
        // definition for all substrates.
        let _ = d;
        self.cost_scalar(g, u, &mut Vec::new())
    }
}

impl CostModel for CostModelSpec {
    fn spec(&self) -> CostModelSpec {
        *self
    }

    fn cost_scalar(&self, g: &Graph, u: u32, buf: &mut Vec<u32>) -> AgentCost {
        match *self {
            CostModelSpec::SumDistances => SumDistances.cost_scalar(g, u, buf),
            CostModelSpec::Generalized(utility) => {
                GeneralizedDistance { utility }.cost_scalar(g, u, buf)
            }
            CostModelSpec::AdversaryRobust => AdversaryRobust.cost_scalar(g, u, buf),
        }
    }

    fn cost_bits(&self, bits: &BitsetGraph, u: u32) -> AgentCost {
        match *self {
            CostModelSpec::SumDistances => SumDistances.cost_bits(bits, u),
            CostModelSpec::Generalized(utility) => {
                GeneralizedDistance { utility }.cost_bits(bits, u)
            }
            CostModelSpec::AdversaryRobust => AdversaryRobust.cost_bits(bits, u),
        }
    }

    fn cost_matrix(&self, g: &Graph, d: &DistanceMatrix, u: u32) -> AgentCost {
        match *self {
            CostModelSpec::SumDistances => SumDistances.cost_matrix(g, d, u),
            CostModelSpec::Generalized(utility) => {
                GeneralizedDistance { utility }.cost_matrix(g, d, u)
            }
            CostModelSpec::AdversaryRobust => AdversaryRobust.cost_matrix(g, d, u),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::agent_cost;
    use bncg_graph::generators;

    #[test]
    fn tokens_round_trip() {
        let specs = [
            CostModelSpec::SumDistances,
            CostModelSpec::Generalized(Utility::Identity),
            CostModelSpec::Generalized(Utility::Capped(2)),
            CostModelSpec::Generalized(Utility::Capped(7)),
            CostModelSpec::Generalized(Utility::Quadratic),
            CostModelSpec::AdversaryRobust,
        ];
        for s in specs {
            assert_eq!(s.token().parse::<CostModelSpec>().unwrap(), s);
            assert_eq!(s.to_string(), s.token());
        }
        assert_eq!(
            "generalized".parse::<CostModelSpec>().unwrap(),
            CostModelSpec::Generalized(Utility::Capped(2))
        );
        assert_eq!(
            "default".parse::<CostModelSpec>().unwrap(),
            CostModelSpec::SumDistances
        );
        for bad in ["", "sum", "generalized:cap0", "generalized:cube", "robust"] {
            assert!(
                bad.parse::<CostModelSpec>().is_err(),
                "{bad:?} must not parse"
            );
        }
    }

    #[test]
    fn default_model_prices_identically_to_agent_cost() {
        let mut rng = bncg_graph::test_rng(0xC057);
        for _ in 0..8 {
            let g = generators::gnp(12, 0.25, &mut rng);
            let bits = BitsetGraph::from_graph(&g).unwrap();
            let d = DistanceMatrix::new(&g);
            let mut buf = Vec::new();
            for u in 0..12u32 {
                let want = agent_cost(&g, u);
                assert_eq!(SumDistances.cost_scalar(&g, u, &mut buf), want);
                assert_eq!(SumDistances.cost_bits(&bits, u), want);
                assert_eq!(SumDistances.cost_matrix(&g, &d, u), want);
            }
        }
    }

    #[test]
    fn identity_utility_equals_sum_distances() {
        let mut rng = bncg_graph::test_rng(0x1DE7);
        let id = GeneralizedDistance {
            utility: Utility::Identity,
        };
        for _ in 0..8 {
            let g = generators::gnp(14, 0.2, &mut rng);
            let bits = BitsetGraph::from_graph(&g).unwrap();
            for u in 0..14u32 {
                assert_eq!(id.cost(&g, u), agent_cost(&g, u));
                assert_eq!(id.cost_bits(&bits, u), agent_cost(&g, u));
            }
        }
    }

    #[test]
    fn every_model_agrees_across_substrates() {
        let mut rng = bncg_graph::test_rng(0x5B57);
        let specs = [
            CostModelSpec::SumDistances,
            CostModelSpec::Generalized(Utility::Capped(2)),
            CostModelSpec::Generalized(Utility::Quadratic),
            CostModelSpec::AdversaryRobust,
        ];
        for _ in 0..6 {
            let g = generators::gnp(9, 0.3, &mut rng);
            let bits = BitsetGraph::from_graph(&g).unwrap();
            let d = DistanceMatrix::new(&g);
            let mut buf = Vec::new();
            for spec in specs {
                for u in 0..9u32 {
                    let scalar = spec.cost_scalar(&g, u, &mut buf);
                    assert_eq!(spec.cost_bits(&bits, u), scalar, "{spec} bits vs scalar");
                    assert_eq!(
                        spec.cost_matrix(&g, &d, u),
                        scalar,
                        "{spec} matrix vs scalar"
                    );
                }
            }
        }
    }

    #[test]
    fn capped_utility_saturates() {
        // Path 0-1-2-3-4: from node 0 under cap 2 the hops price 1, 2,
        // 2, 2.
        let g = generators::path(5);
        let m = GeneralizedDistance {
            utility: Utility::Capped(2),
        };
        let c = m.cost(&g, 0);
        assert_eq!((c.unreachable, c.edges, c.dist), (0, 1, 7));
        let q = GeneralizedDistance {
            utility: Utility::Quadratic,
        };
        // 1 + 4 + 9 + 16 = 30.
        assert_eq!(q.cost(&g, 0).dist, 30);
    }

    #[test]
    fn adversary_robust_on_a_triangle_by_hand() {
        // Triangle, agent 0, K = 9, m = 3. No deletion disconnects.
        // Scenario dists for agent 0: six no-ops at 2, deleting {0,1}
        // or {0,2} reroutes one neighbor to 2 hops (dist 3 each), and
        // deleting {1,2} changes nothing (dist 2). Sum = 12 + 3 + 3 + 2
        // = 20; unreachable = 0; edges = K·deg = 9·2.
        let g = generators::clique(3);
        let c = AdversaryRobust.cost(&g, 0);
        assert_eq!((c.unreachable, c.edges, c.dist), (0, 18, 20));
    }

    #[test]
    fn adversary_robust_counts_disconnection_scenarios() {
        // Path 0-1: K = 4, m = 1. Deleting the single edge strands the
        // other node: unreachable = 1 in that scenario, 0 in the three
        // no-ops; dist = 3·1 + 0.
        let g = generators::path(2);
        let c = AdversaryRobust.cost(&g, 0);
        assert_eq!((c.unreachable, c.edges, c.dist), (1, 4, 3));
    }

    #[test]
    fn adversary_robust_prefers_redundancy() {
        // On 4 nodes at small α the cycle beats the star for the
        // center-adjacent agents: the star's center edges are single
        // points of failure. Compare leaf costs under α = 1/2.
        let alpha: crate::Alpha = "1/2".parse().unwrap();
        let star_leaf = AdversaryRobust.cost(&generators::star(4), 1);
        let cycle_agent = AdversaryRobust.cost(&generators::cycle(4), 1);
        assert!(
            cycle_agent.better_than(&star_leaf, alpha),
            "cycle {cycle_agent:?} must beat star leaf {star_leaf:?}"
        );
    }

    #[test]
    fn soundness_table() {
        for model in [
            CostModelSpec::SumDistances,
            CostModelSpec::Generalized(Utility::Identity),
        ] {
            assert!(model.distance_linear());
        }
        for model in [
            CostModelSpec::Generalized(Utility::Capped(2)),
            CostModelSpec::Generalized(Utility::Quadratic),
            CostModelSpec::AdversaryRobust,
        ] {
            assert!(!model.distance_linear());
        }
    }

    #[test]
    fn fingerprint_tags_are_distinct_per_model() {
        let specs = [
            CostModelSpec::SumDistances,
            CostModelSpec::Generalized(Utility::Identity),
            CostModelSpec::Generalized(Utility::Capped(2)),
            CostModelSpec::Generalized(Utility::Quadratic),
            CostModelSpec::AdversaryRobust,
        ];
        for (i, a) in specs.iter().enumerate() {
            for b in &specs[i + 1..] {
                assert_ne!(a.fingerprint_tag(), b.fingerprint_tag(), "{a} vs {b}");
            }
        }
    }
}
