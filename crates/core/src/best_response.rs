//! Best responses in the bilateral game.
//!
//! The unilateral NCG has a textbook best response (pick the cheapest
//! target set); bilaterally an agent cannot force edges, so the natural
//! notion — used by the round-robin dynamics — is the **best feasible
//! neighborhood move**: among all moves "remove `R ⊆ S_u`, add `A`" whose
//! added partners all strictly consent (improve), the one minimizing `u`'s
//! own cost. This mirrors the BNE move set, so a state where no agent has
//! a feasible improving neighborhood move is exactly a BNE.
//!
//! Best responses are *optimization* queries (argmin over a move space),
//! not stability queries, so they keep their own entry points rather than
//! the [`crate::solver`] surface — but they speak the same
//! execution-policy dialect: [`best_response_with_policy`] runs the scan
//! through the [`crate::scan`] poll protocol, so an [`ExecPolicy`]'s
//! eval budget, deadline, and cancel token stop it **anytime**-style. A
//! stopped scan returns a [`BestResponseVerdict`] carrying the best move
//! found so far and a serializable [`BestResponseFrontier`];
//! [`best_response_resume`] continues from exactly there, and a chain of
//! budgeted slices returns the **identical** move an uninterrupted scan
//! would (enumeration order, pruning decisions, and tie-breaks are all
//! deterministic functions of the state — property-tested in
//! `tests/solver.rs`). This is what gives round-robin dynamics true
//! anytime budgets instead of a per-activation size guard.

use crate::alpha::Alpha;
use crate::candidates::NeighborhoodPruner;
use crate::concepts::CheckBudget;
use crate::cost::AgentCost;
use crate::error::GameError;
use crate::generator::{BranchScan, NeighborhoodOracle, Step};
use crate::jsonio;
use crate::moves::Move;
use crate::scan::{CtlLocal, ScanCtl};
use crate::solver::{unsupported_size, ExecPolicy};
use crate::state::GameState;
use bncg_graph::{BitsetGraph, Graph};
use std::fmt;
use std::str::FromStr;
use std::sync::atomic::AtomicU64;
use std::time::{Duration, Instant};

/// The outcome of a best-response computation for one agent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BestResponse {
    /// The best feasible improving move, if any exists.
    pub best: Option<Move>,
    /// The agent's cost after playing it (equals the current cost when
    /// `best` is `None`).
    pub cost: AgentCost,
}

/// The frontier layout version: positions index the raw
/// addition-mask-major `(addition mask, removal mask)` enumeration over
/// the pruning layer's filtered partner list, so they are meaningful
/// only under the exact layout of the build that issued them. Bump on
/// any layout change so stale cross-build tokens are rejected instead
/// of reinterpreted.
const BR_FRONTIER_LAYOUT: u64 = 1;

/// A serializable resume point for a stopped best-response scan.
///
/// The frontier certifies that every candidate strictly before `pos` in
/// the agent's deterministic enumeration order has been priced against
/// the carried best-so-far move, and it is bound to a fingerprint of the
/// instance (graph + α), so resuming against a different state is
/// rejected instead of silently producing garbage. Unlike the solver's
/// stability [`crate::solver::Frontier`], an *optimization* frontier must
/// also carry the evolving argmin — the best feasible move found so far —
/// or a resumed slice would restart the comparison from the agent's
/// current cost and could return a different (later, equally-improving)
/// move than the uninterrupted scan.
///
/// Serialization is a flat JSON object (`to_json`/`FromStr`) with an
/// enumeration-layout version, so frontiers can cross process boundaries
/// like the solver's; the round-robin trajectory checkpoint embeds one
/// verbatim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BestResponseFrontier {
    agent: u32,
    instance: u64,
    pos: u64,
    evals: u64,
    /// Best feasible move over the certified prefix (always
    /// [`Move::Neighborhood`] centered on `agent`).
    best: Option<Move>,
}

impl BestResponseFrontier {
    /// The agent whose scan this frontier belongs to.
    #[must_use]
    pub fn agent(&self) -> u32 {
        self.agent
    }

    /// Cumulative candidate evaluations across all slices so far.
    #[must_use]
    pub fn evals(&self) -> u64 {
        self.evals
    }

    /// The best feasible move over the certified prefix, if one exists.
    #[must_use]
    pub fn best(&self) -> Option<&Move> {
        self.best.as_ref()
    }

    /// Serializes the frontier as a flat JSON object (including the
    /// enumeration-layout version, checked on parse).
    #[must_use]
    pub fn to_json(&self) -> String {
        let best = match &self.best {
            Some(Move::Neighborhood { remove, add, .. }) => {
                let rem: Vec<u64> = remove.iter().map(|&v| u64::from(v)).collect();
                let add: Vec<u64> = add.iter().map(|&v| u64::from(v)).collect();
                format!(
                    ",\"best\":1,\"rem\":{},\"add\":{}",
                    jsonio::render_u64_list(&rem),
                    jsonio::render_u64_list(&add)
                )
            }
            Some(_) => unreachable!("best responses are neighborhood moves"),
            None => ",\"best\":0".to_string(),
        };
        format!(
            "{{\"v\":{BR_FRONTIER_LAYOUT},\"agent\":{},\"instance\":{},\
             \"pos\":{},\"evals\":{}{best}}}",
            self.agent, self.instance, self.pos, self.evals
        )
    }
}

impl fmt::Display for BestResponseFrontier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_json())
    }
}

impl FromStr for BestResponseFrontier {
    type Err = GameError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let field = |key: &str| {
            jsonio::u64_field(s, key).ok_or_else(|| GameError::Unsupported {
                reason: format!("malformed best-response frontier: missing or invalid {key:?}"),
            })
        };
        let layout = field("v")?;
        if layout != BR_FRONTIER_LAYOUT {
            return Err(GameError::Unsupported {
                reason: format!(
                    "best-response frontier has enumeration-layout version \
                     {layout}, this build speaks version {BR_FRONTIER_LAYOUT} \
                     — restart the scan instead of resuming"
                ),
            });
        }
        let agent = u32::try_from(field("agent")?).map_err(|_| GameError::Unsupported {
            reason: "malformed best-response frontier: agent overflows u32".into(),
        })?;
        let best = match field("best")? {
            0 => None,
            1 => {
                let list = |key: &str| -> Result<Vec<u32>, GameError> {
                    jsonio::u64_list_field(s, key)
                        .and_then(|xs| {
                            xs.into_iter()
                                .map(u32::try_from)
                                .collect::<Result<_, _>>()
                                .ok()
                        })
                        .ok_or_else(|| GameError::Unsupported {
                            reason: format!(
                                "malformed best-response frontier: missing or invalid {key:?}"
                            ),
                        })
                };
                Some(Move::Neighborhood {
                    center: agent,
                    remove: list("rem")?,
                    add: list("add")?,
                })
            }
            other => {
                return Err(GameError::Unsupported {
                    reason: format!(
                        "malformed best-response frontier: \"best\" must be 0 or 1, got {other}"
                    ),
                })
            }
        };
        Ok(BestResponseFrontier {
            agent,
            instance: field("instance")?,
            pos: field("pos")?,
            evals: field("evals")?,
            best,
        })
    }
}

/// The structured result of a metered best-response scan.
#[derive(Debug, Clone)]
pub enum BestResponseVerdict {
    /// The full candidate space was priced: `response` is the true
    /// argmin (or the no-move response if nothing improves).
    Optimal {
        /// The certified best response.
        response: BestResponse,
        /// Candidate evaluations across the whole resume chain.
        evals: u64,
        /// Candidates certified-skipped without pricing **by this call**
        /// (subtree skips plus leaf-filter skips; not carried across a
        /// resume chain — the frontier token stays layout-stable).
        skipped: u64,
        /// Wall-clock time of this call.
        elapsed: Duration,
    },
    /// The execution policy stopped the scan after it had already found
    /// an improving feasible move: `response` is the best over the
    /// certified prefix — usable as-is by load-shedding dynamics — and
    /// the frontier resumes toward the true optimum.
    ImprovedSoFar {
        /// The best response over the certified prefix.
        response: BestResponse,
        /// Resume token (carries the same best-so-far move).
        frontier: BestResponseFrontier,
        /// Candidates certified-skipped without pricing by this call.
        skipped: u64,
        /// Wall-clock time of this call.
        elapsed: Duration,
    },
    /// The execution policy stopped the scan before any improving move
    /// surfaced; everything before the frontier is certified
    /// non-improving (relative to the agent's current cost).
    Exhausted {
        /// Resume token.
        frontier: BestResponseFrontier,
        /// Candidates certified-skipped without pricing by this call.
        skipped: u64,
        /// Wall-clock time of this call.
        elapsed: Duration,
    },
}

impl BestResponseVerdict {
    /// The resume token, unless the scan completed.
    #[must_use]
    pub fn frontier(&self) -> Option<&BestResponseFrontier> {
        match self {
            BestResponseVerdict::Optimal { .. } => None,
            BestResponseVerdict::ImprovedSoFar { frontier, .. }
            | BestResponseVerdict::Exhausted { frontier, .. } => Some(frontier),
        }
    }

    /// The best move in hand (certified optimal only for `Optimal`).
    #[must_use]
    pub fn best(&self) -> Option<&Move> {
        match self {
            BestResponseVerdict::Optimal { response, .. }
            | BestResponseVerdict::ImprovedSoFar { response, .. } => response.best.as_ref(),
            BestResponseVerdict::Exhausted { .. } => None,
        }
    }

    /// Cumulative candidate evaluations across the resume chain.
    #[must_use]
    pub fn evals(&self) -> u64 {
        match self {
            BestResponseVerdict::Optimal { evals, .. } => *evals,
            BestResponseVerdict::ImprovedSoFar { frontier, .. }
            | BestResponseVerdict::Exhausted { frontier, .. } => frontier.evals,
        }
    }

    /// Candidates certified-skipped without pricing **by this call** —
    /// the subtree-skip and leaf-filter tallies the dynamics traces
    /// aggregate into per-trajectory visited fractions. Per-slice, not
    /// cumulative: frontiers do not serialize the counter, so a resumed
    /// chain sums the slices itself.
    #[must_use]
    pub fn skipped(&self) -> u64 {
        match self {
            BestResponseVerdict::Optimal { skipped, .. }
            | BestResponseVerdict::ImprovedSoFar { skipped, .. }
            | BestResponseVerdict::Exhausted { skipped, .. } => *skipped,
        }
    }
}

/// Computes agent `u`'s best feasible neighborhood move: the
/// [`check_enumeration_budget`] guard at the default [`CheckBudget`],
/// then one [`best_response_with_policy`] scan under
/// [`ExecPolicy::default()`].
///
/// # Errors
///
/// Returns [`GameError::CheckTooLarge`] when the agent's `2^{n−1}` raw
/// candidates exceed the default budget (so `n ≥ 27` is refused before
/// any work) and [`GameError::NodeOutOfRange`] for a bad agent id.
///
/// # Examples
///
/// ```
/// use bncg_core::{best_response, Alpha, Move};
/// use bncg_graph::generators;
///
/// // On a path the far end rewires towards the middle; its best feasible
/// // move strictly beats any single greedy change.
/// let g = generators::path(7);
/// let alpha = Alpha::integer(2)?;
/// let br = best_response(&g, alpha, 0)?;
/// assert!(br.best.is_some());
/// # Ok::<(), bncg_core::GameError>(())
/// ```
pub fn best_response(g: &Graph, alpha: Alpha, u: u32) -> Result<BestResponse, GameError> {
    let n = g.n();
    if u as usize >= n {
        return Err(GameError::NodeOutOfRange { node: u, n });
    }
    check_enumeration_budget(n, CheckBudget::default())?;
    let state = GameState::new(g.clone(), alpha);
    match best_response_with_policy(&state, u, &ExecPolicy::default())? {
        BestResponseVerdict::Optimal { response, .. } => Ok(response),
        v => unreachable!("an unbounded policy completes the scan, got {v:?}"),
    }
}

/// The raw-space size guard of [`best_response`] and
/// `round_robin::run`: an agent's `2^{n−1}` candidates must fit the
/// budget before any work starts (the policy-driven paths have no such
/// guard; they exhaust instead).
///
/// # Errors
///
/// [`GameError::CheckTooLarge`] when `2^{n−1}` exceeds the budget.
pub fn check_enumeration_budget(n: usize, budget: CheckBudget) -> Result<(), GameError> {
    if n <= 1 {
        return Ok(());
    }
    let work = 1u128 << (n - 1);
    if work > u128::from(budget.max_evals) {
        return Err(GameError::CheckTooLarge {
            reason: format!(
                "best response enumerates 2^{} candidates, budget is {}",
                n - 1,
                budget.max_evals
            ),
        });
    }
    Ok(())
}

/// Metered best response under an [`ExecPolicy`]: the caller's
/// persistent [`GameState`] supplies the pre-move costs of every agent
/// for free, so one activation costs only the candidate evaluations
/// themselves. The scan runs through the same poll protocol as the
/// solver's stability checkers, so the policy's eval budget, deadline
/// (anchored at call time), and cancel token stop it anytime-style with
/// a resumable [`BestResponseFrontier`]. `threads` is ignored — the
/// scan is a single enumeration unit whose argmin tie-break ("first in
/// enumeration order among equal minima") the dynamics trajectories
/// depend on.
///
/// There is no *budget* guard on this path: an oversized agent scan
/// does partial work up to the policy's stop conditions instead of
/// refusing outright, which is exactly what
/// `round_robin::run_with_policy_under` needs for true anytime activations.
/// The structural `n ≤ 64` mask limit still applies (the same shape as
/// the solver's BNE limit).
///
/// # Errors
///
/// [`GameError::NodeOutOfRange`] for a bad agent id and
/// [`GameError::Unsupported`] for `n > 64`. Never
/// [`GameError::CheckTooLarge`].
pub fn best_response_with_policy(
    state: &GameState,
    u: u32,
    policy: &ExecPolicy,
) -> Result<BestResponseVerdict, GameError> {
    metered(state, u, policy, 0, None, 0)
}

/// Continues a stopped best-response scan from its frontier under
/// `policy`. The policy's stop conditions are granted afresh to this
/// slice (each call gets its own budget and deadline, like
/// [`crate::solver::StabilityQuery::resume`]); the returned verdict's
/// eval counts stay cumulative across the chain. A chain of resumed
/// slices returns the identical final move an uninterrupted
/// [`best_response_with_policy`] call would.
///
/// # Errors
///
/// [`GameError::Unsupported`] when the frontier was issued for a
/// different instance (graph, α, or cost model differ), names an out-of-range agent,
/// or carries a best-so-far move that does not apply to the state.
pub fn best_response_resume(
    state: &GameState,
    policy: &ExecPolicy,
    frontier: &BestResponseFrontier,
) -> Result<BestResponseVerdict, GameError> {
    if frontier.instance != state.fingerprint() {
        return Err(GameError::Unsupported {
            reason: "best-response frontier was issued for a different \
                     instance (graph, α, or cost model differ)"
                .into(),
        });
    }
    let u = frontier.agent;
    if u as usize >= state.n() {
        return Err(GameError::NodeOutOfRange {
            node: u,
            n: state.n(),
        });
    }
    // Re-price the carried best-so-far move so the resumed slice
    // compares candidates against exactly the cost the issuing slice
    // did (deterministic recomputation, not serialized state).
    let best = match &frontier.best {
        None => None,
        Some(mv) => {
            let g2 = mv
                .apply(state.graph())
                .map_err(|_| GameError::Unsupported {
                    reason: "best-response frontier carries a move that does \
                         not apply to this state"
                        .into(),
                })?;
            let mut buf = Vec::new();
            let cost = state.price_scalar(&g2, u, &mut buf);
            Some((mv.clone(), cost))
        }
    };
    metered(state, u, policy, frontier.pos, best, frontier.evals)
}

/// The shared metered driver behind the policy/resume entry points.
fn metered(
    state: &GameState,
    u: u32,
    policy: &ExecPolicy,
    start: u64,
    prior_best: Option<(Move, AgentCost)>,
    prior_evals: u64,
) -> Result<BestResponseVerdict, GameError> {
    let n = state.n();
    if u as usize >= n {
        return Err(GameError::NodeOutOfRange { node: u, n });
    }
    let started = Instant::now();
    if n <= 1 {
        return Ok(BestResponseVerdict::Optimal {
            response: BestResponse {
                best: None,
                cost: state.cost(u),
            },
            evals: prior_evals,
            skipped: 0,
            elapsed: started.elapsed(),
        });
    }
    // A position packs the `(addition mask, removal mask)` pair into one
    // `u64`, so an oversized instance must error here instead of
    // overflowing the mask shifts — the solver's BNE limit, same shape.
    if n > 64 {
        return Err(unsupported_size("best-response", n, 64));
    }
    let shared = AtomicU64::new(0);
    let deadline = policy.deadline.map(|d| started + d);
    let ctl = ScanCtl::new(
        &shared,
        policy.eval_budget,
        deadline,
        policy.cancel.as_deref(),
    );
    let mut cl = CtlLocal::new(&ctl);
    let mut best = prior_best;
    let (stopped, evals, skipped) = scan_best_response(state, u, start, &mut best, &ctl, &mut cl);
    // Saturating: a forged frontier's `evals` must not overflow the sum.
    let evals = prior_evals.saturating_add(evals);
    let elapsed = started.elapsed();
    Ok(match stopped {
        None => BestResponseVerdict::Optimal {
            response: into_response(state, u, best),
            evals,
            skipped,
            elapsed,
        },
        Some(pos) => {
            let frontier = BestResponseFrontier {
                agent: u,
                instance: state.fingerprint(),
                pos,
                evals,
                best: best.as_ref().map(|(mv, _)| mv.clone()),
            };
            match best {
                Some((mv, cost)) => BestResponseVerdict::ImprovedSoFar {
                    response: BestResponse {
                        best: Some(mv),
                        cost,
                    },
                    frontier,
                    skipped,
                    elapsed,
                },
                None => BestResponseVerdict::Exhausted {
                    frontier,
                    skipped,
                    elapsed,
                },
            }
        }
    })
}

fn into_response(state: &GameState, u: u32, best: Option<(Move, AgentCost)>) -> BestResponse {
    match best {
        Some((mv, cost)) => BestResponse {
            best: Some(mv),
            cost,
        },
        None => BestResponse {
            best: None,
            cost: state.cost(u),
        },
    }
}

/// Scans agent `u`'s pruned candidate space in **addition-mask-major**
/// enumeration order (`pos = (add_mask << nb) | rem_mask`) from position
/// `start`, tracking the evolving argmin in `best` and polling `ctl`
/// anytime-style. Returns `(Some(next_pos), evals, skipped)` when the
/// control stopped the scan — every position strictly before `next_pos`
/// has been priced against `best` — or `(None, evals, skipped)` when the
/// space is complete; `skipped` counts the candidates certified away
/// without pricing (subtree skips plus leaf-filter skips).
///
/// Leaf evaluation is **batched on the word-parallel bitset substrate**:
/// the scan width is structurally ≤ 64, so the whole scratch state is one
/// [`BitsetGraph`]. The current addition class stays applied across its
/// run of consecutive leaves (addition-major order makes the run maximal)
/// and each surviving leaf only toggles its removal edges — `O(1)` word
/// flips — before pricing the center and the added partners through the
/// state's [`GameState::price_bits`] (frontier-BFS kernel routed through
/// the state's cost model). The scalar [`GameState::price_scalar`] path
/// remains the differential-test reference.
///
/// Positions are *generated* by a [`BranchScan`], not iterated: the
/// [`NeighborhoodOracle`] skips whole mask subtrees the pruning
/// inequalities kill — with the addition field in the high bits, an
/// entire addition class whose exact saving cap cannot pay for its
/// edges even at the friendliest removal count dies in **one probe**
/// instead of `2^{nb}` per-mask tests, which is what the round-robin
/// dynamics' activation loop spends most of its time on.
///
/// Addition-major order (unlike the BNE checker's removal-major order —
/// irrelevant here, since an argmin has no "first violation" to agree
/// on) keeps the inequality-3 saving cap a *streaming* computation: each
/// add set's cap is needed for exactly one run of consecutive leaves,
/// so an interrupted-and-resumed activation recomputes at most the one
/// in-progress cap instead of rematerializing the whole
/// [`CenterCapCache`](crate::candidates::CenterCapCache) a prior slice
/// had filled — which is what keeps the checkpoint-resume overhead of
/// anytime round-robin runs within the perf gate's ceiling.
///
/// The candidate layer's filters (leaf-level and subtree-level alike)
/// are order-preserving and only skip candidates proven no better than
/// the agent's *current* cost — hence no better than any evolving best —
/// and depend only on the state, never on `best`, so a
/// stopped-and-resumed chain replays the identical candidate stream
/// (including tie-breaks, which dynamics trajectories depend on).
fn scan_best_response(
    state: &GameState,
    u: u32,
    start: u64,
    best: &mut Option<(Move, AgentCost)>,
    ctl: &ScanCtl,
    cl: &mut CtlLocal,
) -> (Option<u64>, u64, u64) {
    let g = state.graph();
    let alpha = state.alpha();
    let old = state.costs();
    let neighbors: Vec<u32> = g.neighbors(u).to_vec();
    let pruner = NeighborhoodPruner::new(state);
    let (others, _) = pruner.filtered_partners(state, u);
    let nb = neighbors.len();
    let no = others.len();
    let total = 1u64 << (nb + no);
    if start >= total {
        return (None, 0, 0);
    }
    let removal_only_prunable = pruner.removal_only_prunable();
    let bounds_active = pruner.active();
    // The batched scratch state: the callers check the n ≤ 64 mask width
    // before scanning, so the bitset substrate always exists here.
    let mut bits = BitsetGraph::from_graph(g).expect("scan width checked: n ≤ 64");
    let mut removed: Vec<u32> = Vec::new();
    let mut added: Vec<u32> = Vec::new();
    let mut best_cost = best.as_ref().map_or(old[u as usize], |(_, c)| *c);
    let mut evals = 0u64;
    let mut skipped = 0u64;
    let mut oracle = NeighborhoodOracle::new(state, &pruner, u, &others, nb as u32, 0, nb as u32);
    let mut scan = BranchScan::new(start, total);
    // The addition class currently applied to the bitset scratch, with
    // its streaming inequality-3 cap. (Early returns may leave the add
    // edges applied; `bits` is function-local and dropped.)
    let mut cur_add = u64::MAX;
    let mut save_a = 0u64;
    loop {
        match scan.next(&mut oracle) {
            Step::Done => break,
            Step::Skipped { base, count } => {
                // The identity (position 0) was never a candidate.
                let dead = count - u64::from(base == 0);
                skipped += dead;
                if cl.tick_skipped(ctl, dead) {
                    return (Some(scan.cursor()), evals, skipped);
                }
            }
            Step::Leaf(pos) => {
                if pos == 0 {
                    continue;
                }
                let add_mask = pos >> nb;
                let rem_mask = pos & ((1u64 << nb) - 1);
                if add_mask != cur_add {
                    for &v in &added {
                        bits.remove_edge(u, v);
                    }
                    added.clear();
                    for (i, &v) in others.iter().enumerate() {
                        if add_mask >> i & 1 == 1 {
                            bits.add_edge(u, v);
                            added.push(v);
                        }
                    }
                    save_a = if add_mask != 0 && bounds_active {
                        oracle.class_cap(add_mask)
                    } else {
                        0
                    };
                    cur_add = add_mask;
                }
                if add_mask == 0 {
                    if removal_only_prunable {
                        skipped += 1;
                        if cl.tick_skipped(ctl, 1) {
                            return (Some(pos + 1), evals, skipped);
                        }
                        continue;
                    }
                } else if bounds_active
                    && pruner.center_class_prunable(
                        rem_mask.count_ones(),
                        add_mask.count_ones(),
                        save_a,
                    )
                {
                    skipped += 1;
                    if cl.tick_skipped(ctl, 1) {
                        return (Some(pos + 1), evals, skipped);
                    }
                    continue;
                }
                removed.clear();
                for (i, &v) in neighbors.iter().enumerate() {
                    if rem_mask >> i & 1 == 1 {
                        bits.remove_edge(u, v);
                        removed.push(v);
                    }
                }
                evals += 1;
                let mine = state.price_bits(&bits, u);
                let feasible = mine.better_than(&best_cost, alpha)
                    && added.iter().all(|&a| {
                        state
                            .price_bits(&bits, a)
                            .better_than(&old[a as usize], alpha)
                    });
                for &v in &removed {
                    bits.add_edge(u, v);
                }
                if feasible {
                    best_cost = mine;
                    *best = Some((
                        Move::Neighborhood {
                            center: u,
                            remove: removed.clone(),
                            add: added.clone(),
                        },
                        mine,
                    ));
                }
                if cl.tick_eval(ctl) {
                    return (Some(pos + 1), evals, skipped);
                }
            }
        }
    }
    (None, evals, skipped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concepts::Concept;
    use crate::cost::agent_cost;
    use bncg_graph::generators;

    fn a(s: &str) -> Alpha {
        s.parse().unwrap()
    }

    #[test]
    fn no_best_response_exactly_when_bne() {
        let mut rng = bncg_graph::test_rng(55);
        for _ in 0..15 {
            let g = generators::random_connected(8, 0.3, &mut rng);
            for alpha in ["1", "2", "4"] {
                let alpha = a(alpha);
                let any_move =
                    (0..8u32).any(|u| best_response(&g, alpha, u).unwrap().best.is_some());
                let bne = Concept::Bne.is_stable(&g, alpha).unwrap();
                assert_eq!(any_move, !bne, "best responses must characterize BNE");
            }
        }
    }

    #[test]
    fn best_response_dominates_first_violation() {
        // The best feasible move is at least as good for the mover as the
        // checker's first-found neighborhood violation.
        let g = generators::path(8);
        let alpha = a("2");
        for u in 0..8u32 {
            let br = best_response(&g, alpha, u).unwrap();
            if let Some(mv) = &br.best {
                let g2 = mv.apply(&g).unwrap();
                assert_eq!(agent_cost(&g2, u), br.cost);
                assert!(br.cost.better_than(&agent_cost(&g, u), alpha));
            }
        }
    }

    #[test]
    fn added_partners_always_consent() {
        let mut rng = bncg_graph::test_rng(56);
        for _ in 0..10 {
            let g = generators::random_tree(9, &mut rng);
            let alpha = a("3/2");
            for u in 0..9u32 {
                if let Some(mv) = best_response(&g, alpha, u).unwrap().best {
                    assert!(
                        crate::delta::move_improves_all(&g, alpha, &mv).unwrap(),
                        "best response must be a legal BNE-style move"
                    );
                }
            }
        }
    }

    #[test]
    fn budget_guard_fires() {
        let g = generators::path(40);
        assert!(matches!(
            best_response(&g, a("1"), 0),
            Err(GameError::CheckTooLarge { .. })
        ));
        assert!(matches!(
            check_enumeration_budget(8, CheckBudget::new(10)),
            Err(GameError::CheckTooLarge { .. })
        ));
        assert!(matches!(
            best_response(&generators::path(3), a("1"), 9),
            Err(GameError::NodeOutOfRange { .. })
        ));
    }

    #[test]
    fn stable_star_center_has_no_move() {
        let g = generators::star(8);
        let br = best_response(&g, a("2"), 0).unwrap();
        assert!(br.best.is_none());
        assert_eq!(br.cost, agent_cost(&g, 0));
    }

    #[test]
    fn budgeted_resume_chain_reaches_the_uninterrupted_move() {
        let g = generators::path(12);
        let alpha = a("2");
        let uninterrupted = best_response(&g, alpha, 0).unwrap();
        let state = GameState::new(g, alpha);
        let tight = ExecPolicy::default().with_eval_budget(1);
        let mut verdict = best_response_with_policy(&state, 0, &tight).unwrap();
        let mut slices = 1u32;
        let response = loop {
            match verdict {
                BestResponseVerdict::Optimal { response, .. } => break response,
                BestResponseVerdict::ImprovedSoFar { ref frontier, .. }
                | BestResponseVerdict::Exhausted { ref frontier, .. } => {
                    // JSON round-trip must be lossless mid-chain.
                    let parsed: BestResponseFrontier = frontier.to_json().parse().unwrap();
                    assert_eq!(&parsed, frontier);
                    verdict = best_response_resume(&state, &tight, &parsed).unwrap();
                    slices += 1;
                    assert!(slices < 100_000, "resume chain failed to terminate");
                }
            }
        };
        assert!(slices > 1, "a 1-eval budget must interrupt the P12 scan");
        assert_eq!(response, uninterrupted);
    }

    #[test]
    fn zero_deadline_stops_and_resumes_to_the_optimum() {
        // The star-16 center's scan walks 2¹⁵ − 1 positions (all pruned
        // on a tree, but pruned candidates still poll the clock), so a
        // zero deadline is guaranteed to trip before completion; the
        // resumed slice certifies the no-move optimum.
        let state = GameState::new(generators::star(16), a("2"));
        let tight = ExecPolicy::default().with_deadline(Duration::ZERO);
        let verdict = best_response_with_policy(&state, 0, &tight).unwrap();
        let frontier = verdict
            .frontier()
            .expect("a zero deadline must stop the star-center scan")
            .clone();
        assert!(frontier.best().is_none(), "the star center has no move");
        match best_response_resume(&state, &ExecPolicy::default(), &frontier).unwrap() {
            BestResponseVerdict::Optimal { response, .. } => assert!(response.best.is_none()),
            v => panic!("an unbounded resume must complete, got {v:?}"),
        }
    }

    #[test]
    fn mismatched_frontiers_are_rejected() {
        let state = GameState::new(generators::star(16), a("2"));
        let tight = ExecPolicy::default().with_deadline(Duration::ZERO);
        let verdict = best_response_with_policy(&state, 0, &tight).unwrap();
        let frontier = verdict.frontier().expect("zero deadline exhausts").clone();
        // Different α ⇒ different instance fingerprint.
        let other = GameState::new(generators::star(16), a("3"));
        assert!(matches!(
            best_response_resume(&other, &tight, &frontier),
            Err(GameError::Unsupported { .. })
        ));
        // Malformed tokens fail to parse instead of resuming garbage.
        assert!("{\"v\":1,\"agent\":0}"
            .parse::<BestResponseFrontier>()
            .is_err());
        assert!("nonsense".parse::<BestResponseFrontier>().is_err());
        // Layout-version mismatches are rejected at parse time.
        assert!(
            "{\"v\":9,\"agent\":0,\"instance\":1,\"pos\":0,\"evals\":0,\"best\":0}"
                .parse::<BestResponseFrontier>()
                .is_err()
        );
    }

    #[test]
    fn oversized_instances_error_structurally_not_by_overflow() {
        // n > 64 would overflow the packed 64-bit position masks; the
        // metered path (which has no budget guard) must refuse
        // structurally instead of panicking or wrapping the scan.
        let state = GameState::new(generators::path(70), a("2"));
        assert!(matches!(
            best_response_with_policy(&state, 0, &ExecPolicy::default()),
            Err(GameError::Unsupported { .. })
        ));
        // The u128 raw-space guard rejects every n > 64 (2^{n−1}
        // exceeds any u64 budget), even the maximal one.
        assert!(matches!(
            check_enumeration_budget(70, CheckBudget::new(u64::MAX)),
            Err(GameError::CheckTooLarge { .. })
        ));
    }

    #[test]
    fn cancel_token_stops_the_scan() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let state = GameState::new(generators::star(16), a("2"));
        let token = Arc::new(AtomicBool::new(true));
        let policy = ExecPolicy::default().with_cancel(token);
        let verdict = best_response_with_policy(&state, 0, &policy).unwrap();
        assert!(verdict.frontier().is_some(), "raised token must stop work");
    }
}
