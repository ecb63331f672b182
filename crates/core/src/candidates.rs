//! Candidate-space pruning for the exponential checkers.
//!
//! PR 1's incremental engine cut the *per-candidate* cost of stability
//! checking; this layer cuts the *number of candidates*. Every filter is
//! **exactness-preserving**: a candidate is skipped only when one of the
//! inequalities below proves no consenting agent set can strictly improve,
//! so the pruned checkers return the same stability verdict — and, where
//! enumeration order is preserved, the same witness — as raw enumeration.
//! The property suite in `tests/pruning.rs` asserts this against the
//! retained `*_reference` scans on seeded corpora.
//!
//! # The pruning inequalities
//!
//! All bounds are applied only from **connected** states (every cached
//! [`AgentCost`](crate::AgentCost) has `unreachable == 0`); on
//! disconnected states the checkers fall back to raw enumeration. Costs compare
//! lexicographically, so a move that disconnects an agent that could
//! previously reach everything is never improving — each bound only has
//! to handle the connected-successor case.
//!
//! 1. **Distance floor (α-budget).** In a connected successor every agent
//!    still has `n − 1` targets at distance ≥ 1, so agent `x`'s distance
//!    sum can never drop below `n − 1` and its saving is at most
//!    `slack(x) = D(x) − (n − 1)`, where `D(x)` is its current distance
//!    sum. An agent that nets `g − l > 0` extra edges pays `α·(g − l)`
//!    more to buy, hence can only improve if `α·(g − l) < slack(x)`.
//!    `EditSetPruner` applies this to every agent whose consent a
//!    coalition/target-graph move requires.
//!
//! 2. **Partner two-hop bound (neighborhood moves).** Every edge a
//!    neighborhood move around `c` edits is incident to `c`. An added
//!    partner `a` gains exactly the edge `{a, c}`, and any strictly
//!    shorter path for `a` must use a new edge, hence passes through `c`:
//!    its length is ≥ 1 to `c` itself and ≥ 2 to every other node.
//!    Removals only lengthen paths that avoid the new edges. Therefore
//!    `d'(a, w) ≥ min(d(a, w), 2)` for `w ≠ c` and `d'(a, c) ≥ 1`, so
//!    `a`'s saving is at most
//!    `(d(a, c) − 1) + Σ_{w ∉ {a, c}} max(0, d(a, w) − 2)`.
//!    If `α` is at least that bound, `a` can never consent to `c` and
//!    every candidate adding `{a, c}` is pruned —
//!    `NeighborhoodPruner::partner_may_consent` shrinks the partner
//!    list, which shrinks the scan *exponentially* (the add masks range
//!    over the surviving partners only).
//!
//! 3. **Per-add-set center bound.** For a fixed added set `A` (all edges
//!    `{c, a}`, `a ∈ A`), `d'(c, w) ≥ min(d(c, w), 1 + min_{a∈A} d(a, w))`
//!    — a shortest path either avoids all new edges or leaves `c` through
//!    one of them. Summing gives a floor `LB_A(c)` and a saving cap
//!    `save_A = D(c) − LB_A(c)` that is independent of the removal set, so
//!    one `O(|A|·n)` computation (`NeighborhoodPruner::center_add_cap`)
//!    prunes every removal mask with `|R| ≤ |A|` and
//!    `α·(|A| − |R|) ≥ save_A` across the whole `2^{|N(c)|}` inner loop.
//!
//! 4. **Pure removals.** With no additions, distances only grow, and each
//!    removed edge `{x, r}` forces `d'(x, r) ≥ 2`, so the remover's
//!    distance sum grows by at least the number of dropped edges: the cost
//!    change is ≥ `|R|·(1 − α)`, non-improving whenever `α ≤ 1`. On a
//!    **tree**, removing any nonempty edge set disconnects the graph and
//!    makes *every* agent lexicographically worse, so pure-removal
//!    candidates are pruned outright.
//!
//! 5. **Canonical-fingerprint dedup.** The k-BSE coalition scan generates
//!    the same edit set once per covering coalition (the removal subsets
//!    of `Γ = {hub, a, b}` are re-enumerated for every `{a, b}` pair, for
//!    example). The improving-endpoint verdict of an edit set is
//!    coalition-independent, so each canonical edit set is evaluated once
//!    and recalled by fingerprint — the same hash-the-canonical-form
//!    technique the round-robin dynamics uses for visited states, realized
//!    as a Zobrist XOR over per-(edge, role) keys so masks fold
//!    incrementally, and widened to 128 bits so a collision (which would
//!    *skip* a candidate) is beyond reach at any feasible scan size.
//!
//! 6. **Interior add bound with removal penalties.** All edges a
//!    coalition move creates lie inside the added set's endpoint set `Z`.
//!    On any strictly shorter `u`–`w` path in the successor, take the
//!    *last* new edge: it ends in some `z ∈ Z`, and the suffix after it
//!    uses only surviving old edges, so the path costs at least
//!    `1 + d(z, w) ≥ 1 + min_{z∈Z} d(z, w)`. Hence
//!    `d'(u, w) ≥ min(d(u, w), 1 + min_{z∈Z} d(z, w))`, and summing the
//!    positive parts gives a per-endpoint saving cap `cap_u`
//!    (`coalition_member_cap`) independent of the removal subset.
//!    Each removed *own-incident* edge `{u, x}` additionally pushes
//!    `d'(u, x)` from 1 to ≥ 2 (no other saving is counted at `x`, whose
//!    current distance is already minimal), so an endpoint gaining `g`
//!    edges and shedding `l` own edges improves only if
//!    `α·g − (α − 1)·l < cap_u`. `add_endpoint_requirement` solves this
//!    inequality per endpoint into a verdict the mask scans apply with
//!    one popcount per removal mask — a minimum (α > 1) or maximum
//!    (α < 1) own-incident removal count, a whole-subspace kill, or no
//!    constraint. At `α = 1` the `l` term vanishes and `g ≥ cap_u` kills
//!    the entire class, which fully prunes diameter-2 instances.
//!
//! # From enumeration-bound to evaluation-bound
//!
//! When this layer landed (PR 2) the exact scans were left
//! *enumeration-bound*: the inequalities rejected ~100% of the
//! candidates on stable instances, but the scan loops still iterated
//! every surviving mask to apply the per-candidate tests — a star hub
//! alone owns `2^{n−1}` pure-removal masks, all skipped one by one.
//! The branch-and-bound candidate generator removed that
//! bound: the same inequalities, relaxed to subtree worst cases (caps
//! are monotone in the added set; removal counts take the
//! least-prunable end of their range), kill whole aligned mask ranges
//! in `O(1)` before they are materialized, and only surviving leaves
//! reach the exact per-candidate tests below. That is what lifted the
//! exact BNE path from the old `n ≤ 21` enumeration guard to the
//! structural `n ≤ 64` mask limit — past it, cost is governed by the
//! *evaluated* candidates, which the solver's budgets meter.
//!
//! The [`CandidateStats`] counters make the effect measurable: the
//! `pruning` bench and the analysis ablations record the skipped
//! fraction and the generator's visited fraction per instance, and
//! every [`crate::solver::Verdict`] carries the evaluated/pruned split
//! of the scan that produced it (the solver drives exactly these
//! pruned scans — budgets meter the *evaluated* candidates, never the
//! pruned ones).

use crate::alpha::Alpha;
use crate::state::GameState;
use bncg_graph::DistanceMatrix;

/// Counters for one pruned candidate scan: how much of the raw move space
/// was skipped without evaluation, and why.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CandidateStats {
    /// Size of the raw (unpruned) candidate space the scan covered.
    pub generated: u64,
    /// Candidates proven non-improving by an inequality and skipped.
    pub pruned: u64,
    /// Candidates skipped because an identical edit set was already
    /// evaluated (k-BSE coalition overlap).
    pub deduped: u64,
    /// Candidates actually priced by the engine.
    pub evaluated: u64,
    /// Enumeration steps the branch-and-bound candidate generator
    /// took: surviving leaves emitted
    /// plus dead subtrees skipped whole. On a dense (non-generated)
    /// scan this stays 0; on a generated scan,
    /// `visited / generated` is the fraction of the raw mask space the
    /// scan actually had to touch — the `ci_gate` `generator_vs_dense`
    /// kernel bounds it at 1% on the pinned stable instances.
    pub visited: u64,
}

impl CandidateStats {
    /// Total candidates skipped (pruned + deduplicated).
    #[must_use]
    pub fn skipped(&self) -> u64 {
        self.pruned + self.deduped
    }

    /// Fraction of the raw space skipped, in `[0, 1]`.
    #[must_use]
    pub fn skipped_fraction(&self) -> f64 {
        if self.generated == 0 {
            0.0
        } else {
            self.skipped() as f64 / self.generated as f64
        }
    }

    /// Accumulates another scan's counters (parallel shards, sweeps).
    pub(crate) fn merge(&mut self, other: &CandidateStats) {
        self.generated += other.generated;
        self.pruned += other.pruned;
        self.deduped += other.deduped;
        self.evaluated += other.evaluated;
        self.visited += other.visited;
    }
}

/// Shared precomputation for pruning center-based (neighborhood) scans:
/// one pass over the cached distance matrix yields, per agent, the
/// distance sum, the distance floor slack, and the two-hop spread used by
/// the partner bound.
#[derive(Debug)]
pub struct NeighborhoodPruner {
    alpha: Alpha,
    /// Whether every agent reaches every other **and** the state's cost
    /// model is one inequalities 2/3/4 are proven for
    /// ([`crate::CostModelSpec::distance_linear`]) — the gate for all
    /// bounds.
    active: bool,
    is_tree: bool,
    alpha_le_one: bool,
    /// `spread2[x] = Σ_w max(0, d(x, w) − 2)` (inequality 2).
    spread2: Vec<u64>,
}

impl NeighborhoodPruner {
    /// Builds the pruner from a state's cached matrix and costs: `O(n²)`.
    /// Consults the model-soundness capability: under a cost model the
    /// neighborhood bounds are not proven for, the pruner constructs
    /// inactive and the scan runs filter-free.
    #[must_use]
    pub fn new(state: &GameState) -> Self {
        let n = state.n();
        let connected = state.costs().iter().all(|c| c.unreachable == 0);
        let active = connected && state.cost_model().distance_linear();
        let mut spread2 = Vec::with_capacity(n);
        for u in 0..n as u32 {
            let s2 = if active {
                state
                    .distances()
                    .row(u)
                    .iter()
                    .map(|&d| u64::from(d.saturating_sub(2)))
                    .sum()
            } else {
                0
            };
            spread2.push(s2);
        }
        let alpha = state.alpha();
        NeighborhoodPruner {
            alpha,
            active,
            is_tree: state.is_tree(),
            alpha_le_one: alpha.cmp_ratio(1, 1) != std::cmp::Ordering::Greater,
            spread2,
        }
    }

    /// Whether the bounds may be applied at all (connected state, and a
    /// cost model the inequalities are proven for).
    #[must_use]
    pub fn active(&self) -> bool {
        self.active
    }

    /// Inequality 2: can `partner` ever strictly improve from gaining the
    /// single edge to `center` under a neighborhood move around `center`?
    /// `false` is a proof of impossibility; `true` is no claim.
    #[must_use]
    pub(crate) fn partner_may_consent(&self, state: &GameState, partner: u32, center: u32) -> bool {
        if !self.active {
            return true;
        }
        let d_pc = u64::from(state.distances().dist(partner, center));
        // spread2 counts the center term max(0, d(p,c) − 2); the exact cap
        // for the center target is d(p,c) − 1, so add the difference.
        let cap = self.spread2[partner as usize] - d_pc.saturating_sub(2) + d_pc.saturating_sub(1);
        // partner nets exactly one extra edge: improvement needs α·1 < cap.
        self.alpha.times_lt(1, cap)
    }

    /// The partner list for `center` with provably non-consenting nodes
    /// removed (relative order preserved), plus the number dropped.
    #[must_use]
    pub fn filtered_partners(&self, state: &GameState, center: u32) -> (Vec<u32>, usize) {
        let g = state.graph();
        let raw: Vec<u32> = (0..g.n() as u32)
            .filter(|&v| v != center && !g.has_edge(center, v))
            .collect();
        let before = raw.len();
        let kept: Vec<u32> = raw
            .into_iter()
            .filter(|&v| self.partner_may_consent(state, v, center))
            .collect();
        let dropped = before - kept.len();
        (kept, dropped)
    }

    /// Inequality 4: are all pure-removal candidates non-improving from
    /// this state (`α ≤ 1`, or a tree where any removal disconnects)?
    #[must_use]
    pub(crate) fn removal_only_prunable(&self) -> bool {
        self.active && (self.alpha_le_one || self.is_tree)
    }

    /// Inequality 3: the removal-independent cap `save_A` on the center's
    /// distance saving for the added set `A` (`O(|A|·n)`).
    #[must_use]
    pub(crate) fn center_add_cap(&self, state: &GameState, center: u32, added: &[u32]) -> u64 {
        debug_assert!(self.active);
        let dist = state.distances();
        let row_c = dist.row(center);
        let mut save = 0u64;
        for (w, &dc) in row_c.iter().enumerate() {
            let dc = u64::from(dc);
            let via = added
                .iter()
                .map(|&a| 1 + u64::from(dist.dist(a, w as u32)))
                .min()
                .unwrap_or(u64::MAX);
            if via < dc {
                save += dc - via;
            }
        }
        save
    }

    /// Whether a `(|R| = nr, |A| = na)` candidate around a center with add
    /// cap `save_a` is proven non-improving for the center: the center
    /// pays `α` per added edge, recoups `α` but loses ≥ 1 distance per
    /// removed own edge, and can save at most `save_a` distance — so it
    /// improves only if `α·na − (α − 1)·nr < save_a` (inequality 6's
    /// specialization to neighborhood moves).
    #[must_use]
    pub(crate) fn center_class_prunable(&self, nr: u32, na: u32, save_a: u64) -> bool {
        if !self.active {
            return false;
        }
        let num = i128::from(self.alpha.num());
        let den = i128::from(self.alpha.den());
        // α·na − (α−1)·nr < save_a, multiplied through by den.
        num * i128::from(na) - (num - den) * i128::from(nr) >= den * i128::from(save_a)
    }
}

/// Per-add-mask memo of [`NeighborhoodPruner::center_add_cap`], shared by
/// the BNE checker and `best_response` so the inequality-3 pruning logic
/// has exactly one implementation. Dense table below 2²⁰ masks; sparse
/// map above, so the budget-maximal partner counts (up to 2²⁵ masks)
/// never pre-allocate gigabytes for scans that visit few classes.
#[derive(Debug, Default)]
pub(crate) struct CenterCapCache {
    dense: Vec<u64>,
    sparse: std::collections::HashMap<u64, u64>,
    use_dense: bool,
    added: Vec<u32>,
}

impl CenterCapCache {
    const DENSE_BITS: usize = 20;
    const UNSET: u64 = u64::MAX;

    /// Clears the memo for a new center with `partner_count` partners.
    pub(crate) fn reset(&mut self, partner_count: usize) {
        self.use_dense = partner_count <= Self::DENSE_BITS;
        self.dense.clear();
        self.sparse.clear();
        if self.use_dense {
            self.dense.resize(1usize << partner_count, Self::UNSET);
        }
    }

    /// The memoized saving cap for the partners selected by `add_mask`
    /// (computed once per distinct mask via
    /// [`NeighborhoodPruner::center_add_cap`]).
    pub fn get(
        &mut self,
        pruner: &NeighborhoodPruner,
        state: &GameState,
        center: u32,
        partners: &[u32],
        add_mask: u64,
    ) -> u64 {
        if self.use_dense {
            let slot = self.dense[add_mask as usize];
            if slot != Self::UNSET {
                return slot;
            }
        } else if let Some(&cap) = self.sparse.get(&add_mask) {
            return cap;
        }
        self.added.clear();
        for (i, &v) in partners.iter().enumerate() {
            if add_mask >> i & 1 == 1 {
                self.added.push(v);
            }
        }
        let cap = pruner.center_add_cap(state, center, &self.added);
        if self.use_dense {
            self.dense[add_mask as usize] = cap;
        } else {
            self.sparse.insert(add_mask, cap);
        }
        cap
    }
}

/// Pruning for arbitrary edit sets (coalition moves, BSE target graphs):
/// the distance-floor bound per required consenter and the pure-removal
/// rules, computed from per-agent edge deltas in `O(|edits|)`.
#[derive(Debug)]
pub(crate) struct EditSetPruner {
    alpha: Alpha,
    /// Connected state **and** a cost model inequalities 1/4/6 are
    /// proven for ([`crate::CostModelSpec::distance_linear`]).
    active: bool,
    is_tree: bool,
    alpha_le_one: bool,
    slack: Vec<u64>,
    /// Scratch: net gained/lost edge counts, reset per edit set via the
    /// touched list.
    gained: Vec<u32>,
    lost: Vec<u32>,
    touched: Vec<u32>,
}

impl EditSetPruner {
    /// Builds the pruner from the state's pre-move costs (`costs[x].dist`
    /// is the distance sum `D(x)` — which is only the case under a
    /// distance-linear model; the soundness capability deactivates the
    /// bounds otherwise).
    #[must_use]
    pub(crate) fn from_state(state: &GameState) -> Self {
        let (alpha, costs) = (state.alpha(), state.costs());
        let n = costs.len();
        let connected = costs.iter().all(|c| c.unreachable == 0);
        let active = connected && state.cost_model().distance_linear();
        let floor = n.saturating_sub(1) as u64;
        EditSetPruner {
            alpha,
            active,
            is_tree: state.is_tree(),
            alpha_le_one: alpha.cmp_ratio(1, 1) != std::cmp::Ordering::Greater,
            slack: costs.iter().map(|c| c.dist.saturating_sub(floor)).collect(),
            gained: vec![0; n],
            lost: vec![0; n],
            touched: Vec::new(),
        }
    }

    /// Whether the bounds may be applied at all (connected state, and a
    /// cost model the inequalities are proven for).
    #[must_use]
    pub fn active(&self) -> bool {
        self.active
    }

    /// Inequality 4: are all pure-removal edit sets non-improving from
    /// this state (`α ≤ 1`, or a tree where any removal disconnects)?
    #[must_use]
    pub(crate) fn removal_only_prunable(&self) -> bool {
        self.active && (self.alpha_le_one || self.is_tree)
    }

    /// Inequality 1 for one agent, given its net edge delta: `true` is
    /// a proof the agent cannot strictly improve under any move with
    /// that delta; `false` is no claim. Public so the generator's
    /// subtree oracles share **this** decision (applied to their
    /// worst-case deltas) instead of re-implementing the arithmetic —
    /// the oracle kills must stay a subset of this filter's skips, and
    /// one implementation cannot drift from itself.
    #[must_use]
    pub(crate) fn agent_cannot_improve(&self, x: u32, gained: u32, lost: u32) -> bool {
        gained > lost
            && !self
                .alpha
                .times_lt(u64::from(gained - lost), self.slack[x as usize])
    }

    /// Whether the edit set `(rem, add)` is proven non-improving for every
    /// legal consenting set: some added edge has an endpoint that cannot
    /// improve, some removed edge has no endpoint that could improve, or
    /// the pure-removal rules apply. Exactness-preserving (see the
    /// [module docs](self)); `false` is no claim.
    pub(crate) fn prunable(&mut self, rem: &[(u32, u32)], add: &[(u32, u32)]) -> bool {
        if !self.active {
            return false;
        }
        if add.is_empty() && !rem.is_empty() && (self.alpha_le_one || self.is_tree) {
            return true;
        }
        for &u in &self.touched {
            self.gained[u as usize] = 0;
            self.lost[u as usize] = 0;
        }
        self.touched.clear();
        for &(u, v) in add {
            self.gained[u as usize] += 1;
            self.gained[v as usize] += 1;
            self.touched.push(u);
            self.touched.push(v);
        }
        for &(u, v) in rem {
            self.lost[u as usize] += 1;
            self.lost[v as usize] += 1;
            self.touched.push(u);
            self.touched.push(v);
        }
        // Every endpoint of an added edge must consent.
        for &(u, v) in add {
            for x in [u, v] {
                if self.agent_cannot_improve(x, self.gained[x as usize], self.lost[x as usize]) {
                    return true;
                }
            }
        }
        // Every removed edge needs at least one endpoint that improves.
        for &(u, v) in rem {
            let dead = [u, v].into_iter().all(|x| {
                self.agent_cannot_improve(x, self.gained[x as usize], self.lost[x as usize])
            });
            if dead {
                return true;
            }
        }
        false
    }
}

/// SplitMix64 finalizer: the key generator behind the Zobrist
/// fingerprints (well-distributed, stateless, cheap).
fn splitmix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The canonical 128-bit Zobrist key of one edit: an edge (unordered) in
/// the removed or added role. Edit-set fingerprints are XORs of edit keys,
/// so they are order-independent by construction and mask scans can fold
/// them bit by bit.
#[must_use]
pub(crate) fn edit_key(u: u32, v: u32, added: bool) -> u128 {
    let id = (u64::from(u.min(v)) << 33) | (u64::from(u.max(v)) << 1) | u64::from(added);
    (u128::from(splitmix(id ^ 0x5EED_CAFE_F00D_BA5E)) << 64)
        | u128::from(splitmix(id ^ 0x0BAD_C0DE_DEAD_BEA7))
}

/// A canonical 128-bit fingerprint of an edit set (inequality 5's dedup
/// key; see the [module docs](self) on collision safety). Edit sets never
/// repeat an edge, so the XOR fold cannot self-cancel.
#[must_use]
pub(crate) fn edit_fingerprint(rem: &[(u32, u32)], add: &[(u32, u32)]) -> u128 {
    let mut fp = 0u128;
    for &(u, v) in rem {
        fp ^= edit_key(u, v, false);
    }
    for &(u, v) in add {
        fp ^= edit_key(u, v, true);
    }
    fp
}

/// Inequality 6 support: `out[w] = min_{z∈nodes} d(z, w)`, the distance
/// profile of an added set's endpoints, computed in `O(|nodes|·n)`.
pub(crate) fn coalition_min_rows(dist: &DistanceMatrix, nodes: &[u32], out: &mut Vec<u32>) {
    out.clear();
    out.resize(dist.n(), u32::MAX);
    for &z in nodes {
        for (w, &d) in dist.row(z).iter().enumerate() {
            if d < out[w] {
                out[w] = d;
            }
        }
    }
}

/// Inequality 6: the removal-independent cap on endpoint `u`'s distance
/// saving under any move whose added edges all have their endpoints in
/// the profiled node set (see [`coalition_min_rows`]). Only meaningful on
/// connected states.
#[must_use]
pub(crate) fn coalition_member_cap(dist: &DistanceMatrix, u: u32, min_profile: &[u32]) -> u64 {
    let mut cap = 0u64;
    for (w, &d) in dist.row(u).iter().enumerate() {
        let floor = u64::from(min_profile[w]).saturating_add(1);
        let d = u64::from(d);
        if floor < d {
            cap += d - floor;
        }
    }
    cap
}

/// The per-endpoint verdict of inequality 6, resolved against a removal
/// subspace (see [`add_endpoint_requirement`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EndpointRequirement {
    /// No removal subset makes the endpoint improve: the whole class dies.
    Dead,
    /// Improvement requires at least this many own-incident removals.
    MinIncident(u32),
    /// Improvement requires at most this many own-incident removals.
    MaxIncident(u32),
    /// The inequality constrains nothing in this class.
    Free,
}

/// Solves inequality 6 for one added-edge endpoint: the endpoint gains
/// `gained ≥ 1` edges, can shed at most `incident_removable` own edges,
/// and improves only if `α·gained − (α − 1)·l < cap` for its own-removal
/// count `l`. Returns the strongest constraint on `l` the inequality
/// supports — callers apply it to removal masks with one popcount.
#[must_use]
pub(crate) fn add_endpoint_requirement(
    alpha: Alpha,
    gained: u32,
    cap: u64,
    incident_removable: u32,
) -> EndpointRequirement {
    let num = i128::from(alpha.num());
    let den = i128::from(alpha.den());
    let g = i128::from(gained);
    let cap = i128::from(cap);
    let slope = num - den; // sign of (α − 1), scaled by den
    if slope > 0 {
        // α > 1: own removals help; need l > (num·g − den·cap)/slope.
        let excess = num * g - den * cap;
        if excess < 0 {
            return EndpointRequirement::Free;
        }
        let l_min = excess / slope + 1;
        if l_min > i128::from(incident_removable) {
            EndpointRequirement::Dead
        } else {
            EndpointRequirement::MinIncident(l_min as u32)
        }
    } else if slope == 0 {
        // α = 1: removals are cost-neutral; need gained < cap outright.
        if g >= cap {
            EndpointRequirement::Dead
        } else {
            EndpointRequirement::Free
        }
    } else {
        // α < 1: own removals hurt; need l < (den·cap − num·g)/(−slope).
        let room = den * cap - num * g;
        if room <= 0 {
            return EndpointRequirement::Dead;
        }
        let l_max = (room - 1) / (-slope);
        if l_max >= i128::from(incident_removable) {
            EndpointRequirement::Free
        } else {
            EndpointRequirement::MaxIncident(l_max as u32)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::AgentCost;
    use crate::moves::Move;
    use crate::state::MoveDelta;
    use bncg_graph::generators;

    /// The post-move cost of `agent`, if it is a consenting agent.
    fn cost_after(delta: &MoveDelta, agent: u32) -> Option<AgentCost> {
        delta
            .agents
            .iter()
            .find(|d| d.agent == agent)
            .map(|d| d.after)
    }

    fn a(s: &str) -> Alpha {
        s.parse().unwrap()
    }

    #[test]
    fn stats_fractions() {
        let mut s = CandidateStats {
            generated: 100,
            pruned: 30,
            deduped: 20,
            evaluated: 50,
            visited: 60,
        };
        assert_eq!(s.skipped(), 50);
        assert!((s.skipped_fraction() - 0.5).abs() < 1e-12);
        s.merge(&CandidateStats::default());
        assert_eq!(s.generated, 100);
        assert_eq!(CandidateStats::default().skipped_fraction(), 0.0);
    }

    /// Inequality 2 is sound: a pruned partner never consents to any
    /// neighborhood move around the center, exhaustively verified.
    #[test]
    fn partner_filter_is_sound_exhaustively() {
        let mut rng = bncg_graph::test_rng(0xF117);
        for _ in 0..12 {
            let g = generators::random_connected(8, 0.25, &mut rng);
            for alpha in ["1/2", "1", "2", "8"] {
                let state = GameState::new(g.clone(), a(alpha));
                let pruner = NeighborhoodPruner::new(&state);
                let mut ev = state.evaluator();
                for center in 0..8u32 {
                    for partner in 0..8u32 {
                        if partner == center || g.has_edge(center, partner) {
                            continue;
                        }
                        if pruner.partner_may_consent(&state, partner, center) {
                            continue;
                        }
                        // Pruned: every move adding {center, partner} must
                        // fail the partner's consent. Scan all of them.
                        let neighbors: Vec<u32> = g.neighbors(center).to_vec();
                        for rem_mask in 0u64..1 << neighbors.len() {
                            let remove: Vec<u32> = neighbors
                                .iter()
                                .enumerate()
                                .filter(|(i, _)| rem_mask >> i & 1 == 1)
                                .map(|(_, &v)| v)
                                .collect();
                            let mv = Move::Neighborhood {
                                center,
                                remove,
                                add: vec![partner],
                            };
                            let d = ev.evaluate(&mv).unwrap();
                            let pd = cost_after(&d, partner).unwrap();
                            assert!(
                                !pd.better_than(&state.cost(partner), state.alpha()),
                                "pruned partner {partner} consented to {mv} at α = {alpha}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Inequality 1/4 soundness on arbitrary edit sets: a prunable edit
    /// set admits no coalition whose members all strictly improve.
    #[test]
    fn edit_set_pruner_is_sound() {
        let mut rng = bncg_graph::test_rng(0xF118);
        for _ in 0..15 {
            let g = generators::random_connected(7, 0.3, &mut rng);
            for alpha in ["1/2", "1", "3", "12"] {
                let state = GameState::new(g.clone(), a(alpha));
                let mut pruner = EditSetPruner::from_state(&state);
                let edges: Vec<(u32, u32)> = g.edges().collect();
                let non_edges: Vec<(u32, u32)> = g.non_edges().collect();
                let mut ev = state.evaluator();
                for rmask in 0u64..1 << edges.len().min(4) {
                    for amask in 0u64..1 << non_edges.len().min(3) {
                        let rem: Vec<(u32, u32)> = edges
                            .iter()
                            .enumerate()
                            .filter(|(i, _)| rmask >> i & 1 == 1)
                            .map(|(_, &e)| e)
                            .collect();
                        let add: Vec<(u32, u32)> = non_edges
                            .iter()
                            .enumerate()
                            .filter(|(i, _)| amask >> i & 1 == 1)
                            .map(|(_, &e)| e)
                            .collect();
                        if rem.is_empty() && add.is_empty() {
                            continue;
                        }
                        if !pruner.prunable(&rem, &add) {
                            continue;
                        }
                        // Pruned: the all-agents coalition covering the
                        // edits must contain a non-improving endpoint for
                        // every choice of consenters; check the strongest
                        // consequence — no endpoint-only coalition works.
                        let mut members: Vec<u32> = rem
                            .iter()
                            .chain(add.iter())
                            .flat_map(|&(u, v)| [u, v])
                            .collect();
                        members.sort_unstable();
                        members.dedup();
                        let mv = Move::Coalition {
                            members: members.clone(),
                            remove_edges: rem.clone(),
                            add_edges: add.clone(),
                        };
                        if let Ok(delta) = ev.evaluate(&mv) {
                            // Added endpoints must all improve and each
                            // removed edge needs an improving endpoint.
                            let improves = |x: u32| {
                                cost_after(&delta, x)
                                    .is_some_and(|c| c.better_than(&state.cost(x), state.alpha()))
                            };
                            let viable = add.iter().all(|&(u, v)| improves(u) && improves(v))
                                && rem.iter().all(|&(u, v)| improves(u) || improves(v));
                            assert!(
                                !viable,
                                "pruned edit set rem {rem:?} add {add:?} is viable at α = {alpha}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fingerprints_are_canonical_and_distinct() {
        let f1 = edit_fingerprint(&[(1, 2), (3, 4)], &[(0, 5)]);
        let f2 = edit_fingerprint(&[(2, 1), (4, 3)], &[(5, 0)]);
        assert_eq!(f1, f2, "endpoint order must not matter");
        let f3 = edit_fingerprint(&[(1, 2)], &[(3, 4), (0, 5)]);
        assert_ne!(f1, f3, "removal/addition role must matter");
        // Moving an edge between the rem and add roles changes the print.
        let f4 = edit_fingerprint(&[], &[(1, 2)]);
        let f5 = edit_fingerprint(&[(1, 2)], &[]);
        assert_ne!(f4, f5);
    }

    #[test]
    fn pure_removal_rules() {
        // Tree at α = 4 > 1: still prunable because removals disconnect.
        let tree = generators::random_tree(9, &mut bncg_graph::test_rng(5));
        let state = GameState::new(tree.clone(), a("4"));
        let mut pruner = EditSetPruner::from_state(&state);
        let e = tree.edges().next().unwrap();
        assert!(pruner.prunable(&[e], &[]));
        // Cycle at α = 1/2 ≤ 1: prunable by the α ≤ 1 rule.
        let cyc = generators::cycle(8);
        let state = GameState::new(cyc.clone(), a("1/2"));
        let mut pruner = EditSetPruner::from_state(&state);
        let e = cyc.edges().next().unwrap();
        assert!(pruner.prunable(&[e], &[]));
        // Cycle at α = 4 > 1: not provable by these rules.
        let state = GameState::new(cyc, a("4"));
        let mut pruner = EditSetPruner::from_state(&state);
        assert!(!pruner.prunable(&[e], &[]));
    }

    #[test]
    fn unsound_model_disables_inequality_bounds_but_not_dedup() {
        // Connected state, but priced under a model the inequality
        // proofs do not cover: every bound must report inactive, so the
        // scans run filter-free instead of silently wrong. The Zobrist
        // dedup is model-free and has no gate.
        use crate::cost_model::{CostModelSpec, Utility};
        let g = generators::cycle(8);
        for model in [
            CostModelSpec::Generalized(Utility::Quadratic),
            CostModelSpec::AdversaryRobust,
        ] {
            let state = GameState::with_cost_model(g.clone(), a("1/2"), model);
            let pruner = NeighborhoodPruner::new(&state);
            assert!(!pruner.active(), "{model}: neighborhood bounds must be off");
            assert!(!pruner.removal_only_prunable());
            assert!(pruner.partner_may_consent(&state, 3, 0));
            let mut ep = EditSetPruner::from_state(&state);
            assert!(!ep.active(), "{model}: edit-set bounds must be off");
            let e = g.edges().next().unwrap();
            assert!(!ep.prunable(&[e], &[]));
        }
        // The identity utility is the paper's objective on the generic
        // dispatch path: every proof carries over and the bounds stay on.
        let state = GameState::with_cost_model(
            g.clone(),
            a("1/2"),
            CostModelSpec::Generalized(Utility::Identity),
        );
        assert!(NeighborhoodPruner::new(&state).active());
        assert!(EditSetPruner::from_state(&state).active());
    }

    #[test]
    fn disconnected_states_disable_all_bounds() {
        let g = bncg_graph::Graph::from_edges(5, [(0, 1), (2, 3)]).unwrap();
        let state = GameState::new(g, a("100"));
        let pruner = NeighborhoodPruner::new(&state);
        assert!(!pruner.active());
        assert!(pruner.partner_may_consent(&state, 4, 0));
        assert!(!pruner.removal_only_prunable());
        let mut ep = EditSetPruner::from_state(&state);
        assert!(!ep.prunable(&[(0, 1)], &[]));
    }
}
