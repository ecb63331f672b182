//! Bilateral Neighborhood Equilibrium (BNE): no agent `u` can rearrange its
//! whole neighborhood — removing any subset `R ⊆ S_u` of its edges and
//! adding edges to any set `A` of new partners — such that `u` *and every
//! agent in `A`* strictly improve. This is the bilateral analogue of the
//! Nash equilibrium of the unilateral game (paper, footnote 4).
//!
//! The move space is `Θ(n·2^{n−1})`. Since the branch-and-bound
//! candidate generator landed, the exact scan is
//! **evaluation-bound**, not enumeration-bound: the candidate stream is
//! generated by branching on one endpoint at a time, and whole mask
//! subtrees the pruning inequalities kill are skipped in `O(1)` instead
//! of being iterated. The structural limit is the 64-bit position mask
//! (`n ≤ 64`). The scan has one entry point, the [`crate::solver`]
//! surface: budgets and deadlines exhaust into a resumable frontier (one
//! unit per center) rather than erroring, and the verdict carries the
//! scan's [`CandidateStats`]. [`crate::Concept::find_violation`] is one
//! solver call under the default [`CheckBudget`] as an *evaluation*
//! budget (overruns surface as [`GameError::CheckTooLarge`]).
//!
//! The checker routes through the [`candidates`](crate::candidates)
//! pruning layer: partners that provably cannot consent are dropped from
//! the add space (shrinking it exponentially), per-add-set saving caps
//! prune removal masks — wholesale as generator subtree kills, exactly
//! at the surviving leaves — and pure-removal candidates are skipped
//! when `α ≤ 1` or the state is a tree. Every filter is
//! exactness-preserving and the generator emits leaves in the same
//! lexicographic order the dense loops used, so the verdict — and the
//! witness — equals the raw scan retained as
//! [`find_violation_in_reference`]. [`find_violation_in_dense`] runs the
//! same scan with the subtree kills disabled, which pins that kills only
//! skip what the leaf filters would skip (both property-tested in
//! `tests/generator.rs`).
//!
//! Surviving leaves are priced **word-parallel**: the scan keeps one
//! [`BitsetGraph`] per workspace, holds each removal class applied
//! across its run of consecutive leaves, flips only the addition words
//! per leaf, and prices every consenting agent with the `u64`-frontier
//! `agent_cost_bits` BFS kernel (routed
//! through the state's [`CostModelSpec`](crate::CostModelSpec), so
//! non-default models price the identical stream with their own bitset
//! kernels). The scalar
//! [`eval_candidate`](find_violation_in_reference) path is retained
//! unchanged inside the raw reference scan, which is what makes the
//! witness-equality tests a differential proof of the bitset kernels.

use crate::alpha::Alpha;
use crate::candidates::{CandidateStats, CenterCapCache, NeighborhoodPruner};
use crate::concepts::CheckBudget;
use crate::cost::{agent_cost, AgentCost};
use crate::error::GameError;
use crate::generator::{BranchScan, NeighborhoodOracle, Step, SubtreeOracle};
use crate::moves::Move;
use crate::scan::{drive, CtlLocal, DriveOutcome, ScanCtl, UnitOutcome, UnitScanner};
use crate::state::GameState;
use bncg_graph::{BitsetGraph, Graph};
use std::sync::atomic::{AtomicU64, Ordering};

/// Minimal RNG abstraction so the sampled refuter does not force a `rand`
/// dependency onto every caller; implemented for closures and for anything
/// resembling `rand::Rng`.
mod rand_like {
    /// Source of uniform `u64`s.
    pub trait RngLike {
        /// Next pseudo-random value.
        fn next_u64(&mut self) -> u64;
        /// Uniform value in `0..bound` (bound > 0).
        fn below(&mut self, bound: u64) -> u64 {
            self.next_u64() % bound
        }
    }

    /// A small xorshift generator, deterministic from a seed — enough for
    /// refutation sampling (no statistical claims rest on it).
    #[derive(Debug, Clone)]
    pub struct SplitMix(pub u64);

    impl RngLike for SplitMix {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }
}

pub use rand_like::{RngLike, SplitMix};

/// [`CheckBudget::admit`] for the `n·2^{n−1}` raw BNE move space.
pub(crate) fn check_budget(n: usize, budget: CheckBudget) -> Result<(), GameError> {
    let work = if n <= 1 {
        0
    } else {
        (1u128 << (n - 1)) * n as u128
    };
    budget.admit(work, || {
        format!("exact BNE needs {work} move evaluations for n = {n}")
    })
}

/// The solver's BNE unit scanner: one unit per center, positions in
/// `(removal mask, addition mask)` raw enumeration order. `KILL = false`
/// disables the generator's subtree kills, so every position reaches the
/// leaf filters — the dense reference [`find_violation_in_dense`].
pub(crate) struct SolverScan<'a, const KILL: bool = true> {
    state: &'a GameState,
    pruner: NeighborhoodPruner,
}

impl<'a, const KILL: bool> SolverScan<'a, KILL> {
    pub(crate) fn new(state: &'a GameState) -> Self {
        SolverScan {
            state,
            pruner: NeighborhoodPruner::new(state),
        }
    }
}

impl<const KILL: bool> UnitScanner for SolverScan<'_, KILL> {
    type Ws = CenterScanSpace;

    fn units(&self) -> u64 {
        self.state.n() as u64
    }

    fn workspace(&self) -> CenterScanSpace {
        CenterScanSpace::new(self.state.graph())
    }

    fn scan_unit(
        &self,
        ws: &mut CenterScanSpace,
        stats: &mut CandidateStats,
        unit: u64,
        start: u64,
        ctl: &ScanCtl,
        cl: &mut CtlLocal,
        racing: Option<&AtomicU64>,
    ) -> UnitOutcome {
        scan_center::<KILL>(
            self.state,
            &self.pruner,
            unit as u32,
            ws,
            stats,
            racing,
            ctl,
            cl,
            start,
        )
    }
}

/// Reusable scratch for one center's candidate scan.
pub(crate) struct CenterScanSpace {
    /// Word-parallel scratch for the batched generated scan (`Some` iff
    /// `n ≤ 64`, which the scan's packed 64-bit positions require
    /// anyway); re-synced from the base graph at every `scan_center`
    /// entry, so early returns may leave it dirty.
    bits: Option<BitsetGraph>,
    removed: Vec<u32>,
    added: Vec<u32>,
    /// Lazily filled per-add-mask saving caps (inequality 3 memo).
    caps: CenterCapCache,
}

impl CenterScanSpace {
    fn new(g: &Graph) -> Self {
        CenterScanSpace {
            bits: BitsetGraph::from_graph(g),
            removed: Vec::new(),
            added: Vec::new(),
            caps: CenterCapCache::default(),
        }
    }
}

/// Consults the inner oracle only when `KILL` is set (constant-folded
/// away on the production path): `Gate<false, _>` kills nothing, so the
/// scan visits every position and its leaf filters alone decide.
struct Gate<const KILL: bool, O>(O);

impl<const KILL: bool, O: SubtreeOracle> SubtreeOracle for Gate<KILL, O> {
    #[inline]
    fn probe(&mut self, base: u64, level: u32) -> bool {
        KILL && self.0.probe(base, level)
    }
}

/// Scans one center's pruned candidate space in raw enumeration order
/// (removal-mask major) from position `start`, returning the first
/// improving move at or after it. Since the branch-and-bound generator
/// landed, positions are *generated*, not iterated: a [`BranchScan`]
/// over the `(removal, addition)` mask space skips subtrees the
/// [`NeighborhoodOracle`] proves dead in `O(1)`, and only surviving
/// leaves reach the exact per-candidate filters below. With
/// `KILL = false` nothing is skipped and every position reaches those
/// filters — the dense reference, which prices the same stream because
/// a kill only ever covers leaves the filters would skip.
///
/// Surviving leaves are priced on the workspace [`BitsetGraph`] in
/// **batches**: consecutive leaves share their removal class (the order
/// is removal-mask major), so the removal edges are toggled once per
/// class run and each leaf only flips its addition words — `O(1)` per
/// edge — before the state's model-routed word-parallel kernel
/// ([`GameState::price_bits`]) prices the center and every added partner
/// with the same short-circuit order the scalar [`eval_candidate`]
/// reference uses. `racing` carries
/// the parallel drive's first-violation center index: once it falls
/// below `center` this scan cannot win and abandons. `ctl`/`cl` stop
/// the scan anytime-style at an exact resumable position.
#[allow(clippy::too_many_arguments)]
fn scan_center<const KILL: bool>(
    state: &GameState,
    pruner: &NeighborhoodPruner,
    center: u32,
    ws: &mut CenterScanSpace,
    stats: &mut CandidateStats,
    racing: Option<&AtomicU64>,
    ctl: &ScanCtl,
    cl: &mut CtlLocal,
    start: u64,
) -> UnitOutcome {
    let g = state.graph();
    let alpha = state.alpha();
    let old = state.costs();
    let neighbors: Vec<u32> = g.neighbors(center).to_vec();
    let (partners, dropped) = pruner.filtered_partners(state, center);
    let nb = neighbors.len();
    let no = partners.len();
    let total = 1u64 << (nb + no);
    if start >= total {
        return UnitOutcome::Done;
    }
    if start == 0 {
        // Raw-space accounting happens once per center; resumed slices
        // only add their per-candidate counters.
        let raw = (1u64 << nb) * (1u64 << (no + dropped)) - 1;
        stats.generated += raw;
        stats.pruned += raw - (total - 1);
    }
    let CenterScanSpace {
        ref mut bits,
        ref mut removed,
        ref mut added,
        ref mut caps,
    } = *ws;
    // Any n the raw-space or structural guards admit fits the 64-bit
    // position mask, and BitsetGraph covers exactly that range.
    let bits = bits.as_mut().expect("BNE scan admits only n ≤ 64");
    // A prior early return (witness found, budget stop) leaves the
    // batching scratch dirty; one re-sync per center restores it.
    bits.reset_from(g);
    removed.clear();
    // The removal class currently applied to `bits`; `u64::MAX` is safe
    // as "none" because nb ≤ 63 keeps every real mask strictly below it.
    let mut cur_rem = u64::MAX;
    caps.reset(no);
    let removal_only_prunable = pruner.removal_only_prunable();
    let bounds_active = pruner.active();
    let mut oracle = Gate::<KILL, _>(NeighborhoodOracle::new(
        state, pruner, center, &partners, 0, no as u32, nb as u32,
    ));
    let mut scan = BranchScan::new(start, total);
    loop {
        if let Some(flag) = racing {
            if flag.load(Ordering::Relaxed) < u64::from(center) {
                return UnitOutcome::Done;
            }
        }
        match scan.next(&mut oracle) {
            Step::Done => return UnitOutcome::Done,
            Step::Skipped { base, count } => {
                stats.visited += 1;
                // The identity (position 0) is neither generated nor a
                // candidate; a kill spanning it skips one fewer.
                let skipped = count - u64::from(base == 0);
                stats.pruned += skipped;
                if cl.tick_skipped(ctl, skipped) {
                    return UnitOutcome::Stopped(scan.cursor());
                }
            }
            Step::Leaf(pos) => {
                if pos == 0 {
                    continue;
                }
                stats.visited += 1;
                let rem_mask = pos >> no;
                let add_mask = pos & ((1u64 << no) - 1);
                if add_mask == 0 {
                    if removal_only_prunable {
                        stats.pruned += 1;
                        if cl.tick_skipped(ctl, 1) {
                            return UnitOutcome::Stopped(pos + 1);
                        }
                        continue;
                    }
                } else if bounds_active {
                    let save_a = caps.get(pruner, state, center, &partners, add_mask);
                    if pruner.center_class_prunable(
                        rem_mask.count_ones(),
                        add_mask.count_ones(),
                        save_a,
                    ) {
                        stats.pruned += 1;
                        if cl.tick_skipped(ctl, 1) {
                            return UnitOutcome::Stopped(pos + 1);
                        }
                        continue;
                    }
                }
                stats.evaluated += 1;
                if rem_mask != cur_rem {
                    for &v in removed.iter() {
                        bits.add_edge(center, v);
                    }
                    removed.clear();
                    for (i, &v) in neighbors.iter().enumerate() {
                        if rem_mask >> i & 1 == 1 {
                            bits.remove_edge(center, v);
                            removed.push(v);
                        }
                    }
                    cur_rem = rem_mask;
                }
                added.clear();
                for (i, &v) in partners.iter().enumerate() {
                    if add_mask >> i & 1 == 1 {
                        bits.add_edge(center, v);
                        added.push(v);
                    }
                }
                let improving = state
                    .price_bits(bits, center)
                    .better_than(&old[center as usize], alpha)
                    && added.iter().all(|&a| {
                        state
                            .price_bits(bits, a)
                            .better_than(&old[a as usize], alpha)
                    });
                for &v in added.iter() {
                    bits.remove_edge(center, v);
                }
                if improving {
                    // Tick the winning evaluation too (stop verdict moot:
                    // we return Found) so a batch pool outliving this
                    // query observes every priced candidate.
                    let _ = cl.tick_eval(ctl);
                    return UnitOutcome::Found(Move::Neighborhood {
                        center,
                        remove: removed.clone(),
                        add: added.clone(),
                    });
                }
                if cl.tick_eval(ctl) {
                    return UnitOutcome::Stopped(pos + 1);
                }
            }
        }
    }
}

/// The dense reference: the solver's scan with the generator's subtree
/// kills disabled, so every position of the surviving space reaches the
/// per-candidate filters. `tests/generator.rs` asserts witness and
/// evaluated/generated/pruned equality against the generated scan, and
/// the `generator_vs_dense` perf-gate kernel measures the enumeration
/// cost the kills remove.
///
/// # Errors
///
/// The raw-space pre-guard against `budget` (this path genuinely
/// iterates).
pub fn find_violation_in_dense(
    state: &GameState,
    budget: CheckBudget,
) -> Result<(Option<Move>, CandidateStats), GameError> {
    check_budget(state.n(), budget)?;
    let scan = SolverScan::<false>::new(state);
    match drive(&scan, 1, 0, 0, &ScanCtl::unbounded()) {
        (DriveOutcome::Completed(found), stats) => Ok((found, stats)),
        (DriveOutcome::Stopped { .. }, _) => unreachable!("unbounded controls never stop"),
    }
}

/// The raw (unpruned) scan, retained as ground truth: identical
/// enumeration order to the pruned checker, no filters. Property tests
/// and the `ci_gate` kernels compare against this path — it is exactly the
/// PR 1 engine-era BNE scan.
///
/// # Errors
///
/// The raw-space pre-guard against `budget`.
pub fn find_violation_in_reference(
    state: &GameState,
    budget: CheckBudget,
) -> Result<Option<Move>, GameError> {
    let g = state.graph();
    let n = g.n();
    if n <= 1 {
        return Ok(None);
    }
    check_budget(n, budget)?;
    let mut scratch = g.clone();
    let mut buf = Vec::new();
    let mut removed = Vec::new();
    let mut added = Vec::new();
    for center in 0..n as u32 {
        let neighbors: Vec<u32> = g.neighbors(center).to_vec();
        let others: Vec<u32> = (0..n as u32)
            .filter(|&v| v != center && !g.has_edge(center, v))
            .collect();
        let nb = neighbors.len();
        let no = others.len();
        for rem_mask in 0u64..1u64 << nb {
            for add_mask in 0u64..1u64 << no {
                if rem_mask == 0 && add_mask == 0 {
                    continue;
                }
                if let Some(mv) = eval_candidate(
                    &mut scratch,
                    state,
                    center,
                    &neighbors,
                    rem_mask,
                    &others,
                    add_mask,
                    &mut buf,
                    &mut removed,
                    &mut added,
                ) {
                    return Ok(Some(mv));
                }
            }
        }
    }
    Ok(None)
}

/// Applies a candidate neighborhood move in place, evaluates it, restores
/// the graph, and returns the move if improving for the center and every
/// added partner.
#[allow(clippy::too_many_arguments)]
fn eval_candidate(
    scratch: &mut Graph,
    state: &GameState,
    center: u32,
    neighbors: &[u32],
    rem_mask: u64,
    others: &[u32],
    add_mask: u64,
    buf: &mut Vec<u32>,
    removed: &mut Vec<u32>,
    added: &mut Vec<u32>,
) -> Option<Move> {
    removed.clear();
    added.clear();
    for (i, &v) in neighbors.iter().enumerate() {
        if rem_mask >> i & 1 == 1 {
            scratch.remove_edge(center, v).expect("neighbor edge");
            removed.push(v);
        }
    }
    for (i, &v) in others.iter().enumerate() {
        if add_mask >> i & 1 == 1 {
            scratch.add_edge(center, v).expect("non-neighbor pair");
            added.push(v);
        }
    }
    let improves = |x: u32, scratch: &Graph, buf: &mut Vec<u32>| {
        state
            .price_scalar(scratch, x, buf)
            .better_than(&state.cost(x), state.alpha())
    };
    let improving =
        improves(center, scratch, buf) && added.iter().all(|&a| improves(a, scratch, buf));
    // Restore.
    for &v in removed.iter() {
        scratch.add_edge(center, v).expect("restore removed");
    }
    for &v in added.iter() {
        scratch.remove_edge(center, v).expect("restore added");
    }
    debug_assert_eq!(scratch.m(), state.graph().m());
    if improving {
        Some(Move::Neighborhood {
            center,
            remove: removed.clone(),
            add: added.clone(),
        })
    } else {
        None
    }
}

/// Randomized refutation search for large graphs: samples `samples`
/// neighborhood moves biased towards small changes and returns the first
/// improving one. A `None` result is **not** a stability certificate.
#[must_use]
pub fn find_violation_sampled<R: RngLike>(
    g: &Graph,
    alpha: Alpha,
    rng: &mut R,
    samples: u32,
) -> Option<Move> {
    let n = g.n();
    if n <= 2 {
        return None;
    }
    let old: Vec<AgentCost> = (0..n as u32).map(|u| agent_cost(g, u)).collect();
    let mut scratch = g.clone();
    for _ in 0..samples {
        let center = rng.below(n as u64) as u32;
        let neighbors: Vec<u32> = g.neighbors(center).to_vec();
        let others: Vec<u32> = (0..n as u32)
            .filter(|&v| v != center && !g.has_edge(center, v))
            .collect();
        if others.is_empty() && neighbors.is_empty() {
            continue;
        }
        // Geometric-ish sizes: mostly 0–2 removals and 1–3 additions.
        let n_rem = (rng.below(4)).min(neighbors.len() as u64) as usize;
        let n_add = (1 + rng.below(3)).min(others.len() as u64) as usize;
        if n_rem == 0 && n_add == 0 {
            continue;
        }
        // Sample distinct indices directly (candidate sets can be far
        // larger than 64, so bitmasks are not an option here).
        let mut removed: Vec<u32> = Vec::with_capacity(n_rem);
        while removed.len() < n_rem {
            let v = neighbors[rng.below(neighbors.len() as u64) as usize];
            if !removed.contains(&v) {
                removed.push(v);
            }
        }
        let mut added: Vec<u32> = Vec::with_capacity(n_add);
        while added.len() < n_add {
            let v = others[rng.below(others.len() as u64) as usize];
            if !added.contains(&v) {
                added.push(v);
            }
        }
        if let Some(mv) =
            eval_candidate_lists(&mut scratch, g, alpha, &old, center, &removed, &added)
        {
            return Some(mv);
        }
    }
    None
}

/// List-based twin of `eval_candidate` for samplers whose candidate sets
/// exceed 64 entries.
fn eval_candidate_lists(
    scratch: &mut Graph,
    g: &Graph,
    alpha: Alpha,
    old: &[AgentCost],
    center: u32,
    removed: &[u32],
    added: &[u32],
) -> Option<Move> {
    for &v in removed {
        scratch.remove_edge(center, v).expect("neighbor edge");
    }
    for &v in added {
        scratch.add_edge(center, v).expect("non-neighbor pair");
    }
    let improving = agent_cost(scratch, center).better_than(&old[center as usize], alpha)
        && added
            .iter()
            .all(|&a| agent_cost(scratch, a).better_than(&old[a as usize], alpha));
    for &v in removed {
        scratch.add_edge(center, v).expect("restore removed");
    }
    for &v in added {
        scratch.remove_edge(center, v).expect("restore added");
    }
    debug_assert_eq!(scratch.m(), g.m());
    if improving {
        Some(Move::Neighborhood {
            center,
            remove: removed.to_vec(),
            add: added.to_vec(),
        })
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concepts::{solve_with_threads, Concept};
    use crate::solver::{Solver, StabilityQuery};
    use bncg_graph::generators;

    fn a(s: &str) -> Alpha {
        s.parse().unwrap()
    }

    #[test]
    fn star_is_in_bne() {
        for alpha in ["1", "2", "9"] {
            assert!(Concept::Bne
                .is_stable(&generators::star(7), a(alpha))
                .unwrap());
        }
    }

    #[test]
    fn bne_is_subset_of_bge() {
        // Proposition A.4 direction: BNE ⊆ BAE ∩ BGE.
        let mut rng = bncg_graph::test_rng(12);
        for _ in 0..25 {
            let g = generators::random_connected(7, 0.3, &mut rng);
            for alpha in ["1/2", "1", "2", "6"] {
                let alpha = a(alpha);
                if Concept::Bne.is_stable(&g, alpha).unwrap() {
                    assert!(Concept::Bge.is_stable(&g, alpha).unwrap());
                    assert!(Concept::Bae.is_stable(&g, alpha).unwrap());
                }
            }
        }
    }

    #[test]
    fn guards_are_evaluation_bound_and_structural() {
        // The raw reference scan keeps the raw-space pre-guard.
        let tiny = CheckBudget::new(10);
        let path8 = GameState::new(generators::path(8), a("1"));
        assert!(matches!(
            find_violation_in_reference(&path8, tiny),
            Err(GameError::CheckTooLarge { .. })
        ));
        // The default entry point is evaluation-bound since the
        // generator: n = 40 (a 40·2³⁹ raw space the old n ≤ 21 guard
        // refused outright) now solves exactly, because the generator
        // skips the pruned subtrees instead of iterating them.
        assert!(Concept::Bne
            .find_violation(&generators::star(40), a("2"))
            .unwrap()
            .is_none());
        // The 64-bit position mask is a hard structural limit.
        assert!(matches!(
            Concept::Bne.find_violation(&generators::path(70), a("2")),
            Err(GameError::Unsupported { .. })
        ));
    }

    #[test]
    fn witnesses_are_replayable() {
        let mut rng = bncg_graph::test_rng(13);
        for _ in 0..10 {
            let g = generators::random_tree(8, &mut rng);
            for alpha in ["1/2", "1", "3"] {
                if let Some(mv) = Concept::Bne.find_violation(&g, a(alpha)).unwrap() {
                    assert!(crate::delta::move_improves_all(&g, a(alpha), &mv).unwrap());
                }
            }
        }
    }

    /// The pruned solver scan and the raw reference scan return the
    /// *same* witness, not just the same verdict (pruned candidates are
    /// all non-improving and the enumeration order is shared).
    #[test]
    fn pruned_scan_matches_reference_witness_exactly() {
        let mut rng = bncg_graph::test_rng(0xB14E);
        for case in 0..18 {
            let g = if case % 3 == 0 {
                generators::random_tree(9, &mut rng)
            } else {
                generators::random_connected(9, 0.3, &mut rng)
            };
            for alpha in ["1/2", "1", "2", "9"] {
                let state = GameState::new(g.clone(), a(alpha));
                let budget = CheckBudget::default();
                let pruned = solve_with_threads(Concept::Bne, &state, 1);
                let reference = find_violation_in_reference(&state, budget).unwrap();
                assert_eq!(pruned, reference, "witness mismatch at α = {alpha}");
            }
        }
    }

    #[test]
    fn parallel_scan_matches_sequential_witness_exactly() {
        let mut rng = bncg_graph::test_rng(0xB14F);
        for _ in 0..10 {
            let g = generators::random_connected(9, 0.3, &mut rng);
            for alpha in ["1", "3"] {
                let state = GameState::new(g.clone(), a(alpha));
                let seq = solve_with_threads(Concept::Bne, &state, 1);
                for threads in [1usize, 2, 4] {
                    let par = solve_with_threads(Concept::Bne, &state, threads);
                    assert_eq!(seq, par, "threads = {threads}");
                }
            }
        }
    }

    #[test]
    fn pruning_skips_most_of_a_stable_star_scan() {
        // On a star at α ≥ 1 the partner filter and the tree pure-removal
        // rule eliminate the entire candidate space.
        let state = GameState::new(generators::star(16), a("2"));
        let verdict = Solver::default()
            .check(&StabilityQuery::on(Concept::Bne, &state))
            .unwrap();
        assert!(verdict.is_stable().unwrap());
        let stats = verdict.stats();
        assert_eq!(stats.evaluated, 0, "star scan should be fully pruned");
        assert_eq!(stats.skipped(), stats.generated);
    }

    #[test]
    fn exact_bne_at_n32_under_the_default_budget() {
        // The bitset-substrate acceptance target: an n = 32 instance far
        // past the old enumeration bound solves exactly under the
        // *default* evaluation budget — the generator collapses the
        // 32·2³¹ raw space and the surviving leaves are priced by the
        // batched word-parallel kernel.
        let alpha = Alpha::from_ratio(240, 1).unwrap(); // cycle window n(n−2)/4
        assert!(Concept::Bne
            .find_violation(&generators::cycle(32), alpha)
            .unwrap()
            .is_none());
    }

    #[test]
    fn sampled_refuter_finds_known_violations() {
        // The path at α = 2 is not in BNE; the sampler should find some
        // improving move with a modest sample count.
        let g = generators::path(9);
        let mut rng = SplitMix(7);
        let found = find_violation_sampled(&g, a("2"), &mut rng, 5000);
        let mv = found.expect("sampler should refute the long path");
        assert!(crate::delta::move_improves_all(&g, a("2"), &mv).unwrap());
    }

    #[test]
    fn sampled_refuter_respects_stability() {
        // On the star (stable) the sampler must return nothing.
        let g = generators::star(9);
        let mut rng = SplitMix(11);
        assert!(find_violation_sampled(&g, a("2"), &mut rng, 3000).is_none());
    }

    #[test]
    fn trivial_graphs_are_stable() {
        assert!(Concept::Bne.is_stable(&Graph::new(1), a("1")).unwrap());
        assert!(Concept::Bne
            .is_stable(&generators::path(2), a("1"))
            .unwrap());
    }
}
