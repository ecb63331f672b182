//! Bilateral Strong Equilibrium (BSE = n-BSE): stability against joint
//! moves of *arbitrary* coalitions.
//!
//! The exact checker enumerates target graphs rather than coalitions: a
//! move to graph `G'` is an improving coalition move iff the set `I` of
//! strictly improving agents covers it — both endpoints of every added
//! edge lie in `I` and every removed edge touches `I` (taking `Γ` to be
//! exactly those covering agents; adding further members only adds
//! constraints). This cuts the double exponential to `2^{C(n,2)}` target
//! graphs, which is feasible for `n ≤ 7`.
//!
//! The default scan filters each target graph's edit set through the
//! [`EditSetPruner`] inequalities (see [`crate::candidates`]) before any
//! BFS is paid: masks whose added edges touch an agent that provably
//! cannot improve, whose removed edges have no viable endpoint, or that
//! are pure removals at `α ≤ 1` (or on a tree) are skipped. The filters
//! are exactness-preserving and order-preserving, so verdict and witness
//! equal the raw scan retained as [`find_violation_in_reference`]. The
//! [`crate::solver`] surface drives the same scan anytime-style over
//! fixed-size mask chunks (4096-mask units), and within each chunk the
//! masks are generated branch-and-bound style ([`crate::generator`]):
//! aligned mask ranges whose fixed edits already violate the filters
//! are skipped whole instead of being iterated.

use crate::candidates::{CandidateStats, EditSetPruner};
use crate::concepts::CheckBudget;
use crate::cost_model::CostModel;
use crate::error::GameError;
use crate::generator::{BranchScan, EditOracle, Step};
use crate::moves::Move;
use crate::scan::{CtlLocal, ScanCtl, UnitOutcome, UnitScanner};
use crate::state::GameState;
use bncg_graph::Graph;
use std::sync::atomic::{AtomicU64, Ordering};

/// [`CheckBudget::admit`] for the `2^{C(n,2)}` raw BSE target space.
pub(crate) fn check_budget(n: usize, budget: CheckBudget) -> Result<(), GameError> {
    let pairs = n * (n - 1) / 2;
    let work = if pairs >= 63 {
        u128::MAX
    } else {
        1u128 << pairs
    };
    budget.admit(work, || {
        format!("exact BSE scans 2^{pairs} target graphs for n = {n}")
    })
}

/// Fixed shard size of the target-mask space: frontier positions stay
/// meaningful across thread counts, and at `n = 7` (2²¹ masks) the scan
/// still splits into 512 units for parallel drive.
pub(crate) const BSE_CHUNK: u64 = 1 << 12;

/// The solver's BSE unit scanner: units are contiguous [`BSE_CHUNK`]
/// ranges of the target-graph mask space, positions are mask offsets.
pub(crate) struct SolverScan<'a> {
    state: &'a GameState,
}

impl<'a> SolverScan<'a> {
    pub(crate) fn new(state: &'a GameState) -> Self {
        SolverScan { state }
    }
}

impl UnitScanner for SolverScan<'_> {
    type Ws = TargetScan;

    fn units(&self) -> u64 {
        let n = self.state.n();
        if n <= 1 {
            return 0;
        }
        let pairs = n * (n - 1) / 2;
        (1u64 << pairs).div_ceil(BSE_CHUNK)
    }

    fn workspace(&self) -> TargetScan {
        TargetScan::new(self.state)
    }

    fn scan_unit(
        &self,
        ws: &mut TargetScan,
        stats: &mut CandidateStats,
        unit: u64,
        start: u64,
        ctl: &ScanCtl,
        cl: &mut CtlLocal,
        racing: Option<&AtomicU64>,
    ) -> UnitOutcome {
        ws.scan_chunk(self.state, unit, start, stats, ctl, cl, racing)
    }
}

/// Scratch for one thread's target-graph scan.
pub(crate) struct TargetScan {
    current: u64,
    pair_list: Vec<(u32, u32)>,
    pruner: EditSetPruner,
    oracle: EditOracle,
    rem: Vec<(u32, u32)>,
    add: Vec<(u32, u32)>,
}

impl TargetScan {
    fn new(state: &GameState) -> Self {
        let n = state.n();
        let current = state.graph().to_bitmask().expect("n ≤ 11 here");
        let pair_list: Vec<(u32, u32)> = (0..n as u32)
            .flat_map(|u| (u + 1..n as u32).map(move |v| (u, v)))
            .collect();
        TargetScan {
            current,
            oracle: EditOracle::new(state, current, &pair_list),
            pair_list,
            pruner: EditSetPruner::from_state(state),
            rem: Vec::new(),
            add: Vec::new(),
        }
    }

    /// Scans positions `start..` of chunk `unit` (masks
    /// `unit·BSE_CHUNK + start ..`) in ascending order. `racing` carries
    /// the parallel drive's lowest violating chunk: once it undercuts
    /// this one, nothing here can beat it and the scan abandons.
    #[allow(clippy::too_many_arguments)]
    fn scan_chunk(
        &mut self,
        state: &GameState,
        unit: u64,
        start: u64,
        stats: &mut CandidateStats,
        ctl: &ScanCtl,
        cl: &mut CtlLocal,
        racing: Option<&AtomicU64>,
    ) -> UnitOutcome {
        let n = state.n();
        let alpha = state.alpha();
        let old = state.costs();
        let pairs = n * (n - 1) / 2;
        let total = 1u64 << pairs;
        let base = unit * BSE_CHUNK;
        let lo = base + start;
        let hi = (base + BSE_CHUNK).min(total);
        if lo >= hi {
            return UnitOutcome::Done;
        }
        // Target masks are generated branch-and-bound style: the
        // [`EditOracle`] kills aligned mask ranges whose fixed edits
        // already violate the distance-floor or pure-removal rules;
        // surviving leaves run the exact per-mask pipeline below.
        let mut scan = BranchScan::new(lo, hi);
        let mut steps = 0u64;
        loop {
            // Poll the shared first-violation chunk every 64 steps.
            if let Some(flag) = racing {
                if steps & 63 == 0 && flag.load(Ordering::Relaxed) < unit {
                    return UnitOutcome::Done;
                }
            }
            steps += 1;
            let mask = match scan.next(&mut self.oracle) {
                Step::Done => break,
                Step::Skipped { base: _, count } => {
                    stats.visited += 1;
                    stats.generated += count;
                    stats.pruned += count;
                    if cl.tick_skipped(ctl, count) {
                        return UnitOutcome::Stopped(scan.cursor() - base);
                    }
                    continue;
                }
                Step::Leaf(mask) => mask,
            };
            if mask == self.current {
                if cl.tick_skipped(ctl, 1) {
                    return UnitOutcome::Stopped(mask + 1 - base);
                }
                continue;
            }
            stats.visited += 1;
            stats.generated += 1;
            let diff = mask ^ self.current;
            self.rem.clear();
            self.add.clear();
            for (i, &(u, v)) in self.pair_list.iter().enumerate() {
                if diff >> i & 1 == 0 {
                    continue;
                }
                if self.current >> i & 1 == 1 {
                    self.rem.push((u, v));
                } else {
                    self.add.push((u, v));
                }
            }
            if self.pruner.prunable(&self.rem, &self.add) {
                stats.pruned += 1;
                if cl.tick_skipped(ctl, 1) {
                    return UnitOutcome::Stopped(mask + 1 - base);
                }
                continue;
            }
            stats.evaluated += 1;
            let target = Graph::from_bitmask(n, mask).expect("n ≤ 11 here");
            let model = state.cost_model();
            // Lazily computed improving-agent memo over touched nodes.
            let mut improving: Vec<Option<bool>> = vec![None; n];
            let mut improves = |w: u32, target: &Graph| -> bool {
                let slot = &mut improving[w as usize];
                if let Some(v) = *slot {
                    return v;
                }
                let v = model.cost(target, w).better_than(&old[w as usize], alpha);
                *slot = Some(v);
                v
            };
            let valid = self
                .add
                .iter()
                .all(|&(u, v)| improves(u, &target) && improves(v, &target))
                && self
                    .rem
                    .iter()
                    .all(|&(u, v)| improves(u, &target) || improves(v, &target));
            if !valid {
                if cl.tick_eval(ctl) {
                    return UnitOutcome::Stopped(mask + 1 - base);
                }
                continue;
            }
            // Assemble the minimal coalition: endpoints of additions plus
            // one improving endpoint per removal.
            let mut members: Vec<u32> = Vec::new();
            for &(u, v) in &self.add {
                members.push(u);
                members.push(v);
            }
            for &(u, v) in &self.rem {
                if improves(u, &target) {
                    members.push(u);
                } else {
                    members.push(v);
                }
            }
            members.sort_unstable();
            members.dedup();
            // Winning eval still counts toward the shared pool.
            let _ = cl.tick_eval(ctl);
            return UnitOutcome::Found(Move::Coalition {
                members,
                remove_edges: self.rem.clone(),
                add_edges: self.add.clone(),
            });
        }
        UnitOutcome::Done
    }
}

/// The raw (unpruned) target-graph scan, retained as ground truth:
/// identical enumeration order, no filters — exactly the PR 1 engine-era
/// checker. Property tests compare against it.
///
/// # Errors
///
/// The raw-space pre-guard against `budget`.
pub fn find_violation_in_reference(
    state: &GameState,
    budget: CheckBudget,
) -> Result<Option<Move>, GameError> {
    let g = state.graph();
    let alpha = state.alpha();
    let n = g.n();
    if n <= 1 {
        return Ok(None);
    }
    check_budget(n, budget)?;
    let pairs = n * (n - 1) / 2;
    let current = g.to_bitmask().expect("n ≤ 11 here");
    let old = state.costs();
    let pair_list: Vec<(u32, u32)> = (0..n as u32)
        .flat_map(|u| (u + 1..n as u32).map(move |v| (u, v)))
        .collect();
    let model = state.cost_model();
    for mask in 0u64..1u64 << pairs {
        if mask == current {
            continue;
        }
        let diff = mask ^ current;
        let target = Graph::from_bitmask(n, mask).expect("n ≤ 11 here");
        let mut improving: Vec<Option<bool>> = vec![None; n];
        let mut improves = |w: u32, target: &Graph| -> bool {
            let slot = &mut improving[w as usize];
            if let Some(v) = *slot {
                return v;
            }
            let v = model.cost(target, w).better_than(&old[w as usize], alpha);
            *slot = Some(v);
            v
        };
        let mut valid = true;
        let mut removed = Vec::new();
        let mut added = Vec::new();
        for (i, &(u, v)) in pair_list.iter().enumerate() {
            if diff >> i & 1 == 0 {
                continue;
            }
            if current >> i & 1 == 1 {
                // removed edge: needs an improving endpoint
                if !improves(u, &target) && !improves(v, &target) {
                    valid = false;
                    break;
                }
                removed.push((u, v));
            } else {
                // added edge: needs both endpoints improving
                if !improves(u, &target) || !improves(v, &target) {
                    valid = false;
                    break;
                }
                added.push((u, v));
            }
        }
        if !valid {
            continue;
        }
        let mut members: Vec<u32> = Vec::new();
        for &(u, v) in &added {
            members.push(u);
            members.push(v);
        }
        for &(u, v) in &removed {
            if improves(u, &target) {
                members.push(u);
            } else {
                members.push(v);
            }
        }
        members.sort_unstable();
        members.dedup();
        return Ok(Some(Move::Coalition {
            members,
            remove_edges: removed,
            add_edges: added,
        }));
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concepts::{solve_with_threads, Concept};
    use crate::Alpha;
    use bncg_graph::generators;

    fn a(s: &str) -> Alpha {
        s.parse().unwrap()
    }

    #[test]
    fn bse_equals_n_bse_on_small_graphs() {
        // Cross-validate the target-graph enumeration against the
        // coalition-first k-BSE checker with k = n.
        let mut rng = bncg_graph::test_rng(18);
        for _ in 0..12 {
            let g = generators::random_connected(5, 0.4, &mut rng);
            for alpha in ["1/2", "1", "2", "4"] {
                let alpha = a(alpha);
                let by_target = Concept::Bse.find_violation(&g, alpha).unwrap().is_some();
                let by_coalition = Concept::KBse(5)
                    .find_violation(&g, alpha)
                    .unwrap()
                    .is_some();
                assert_eq!(by_target, by_coalition, "engines disagree at α = {alpha}");
            }
        }
    }

    #[test]
    fn proposition_3_16_clique_only_bse_below_one() {
        let alpha = a("1/2");
        for g in bncg_graph::enumerate::connected_graphs(5).unwrap() {
            let stable = Concept::Bse.is_stable(&g, alpha).unwrap();
            let is_clique = g.m() == 5 * 4 / 2;
            assert_eq!(stable, is_clique, "only the clique is BSE for α < 1");
        }
    }

    #[test]
    fn proposition_3_16_diameter_two_at_alpha_one() {
        let alpha = a("1");
        for g in bncg_graph::enumerate::connected_graphs(5).unwrap() {
            let stable = Concept::Bse.is_stable(&g, alpha).unwrap();
            let diam = bncg_graph::diameter(&g).unwrap();
            assert_eq!(
                stable,
                diam <= 2,
                "BSE at α = 1 are exactly the diameter ≤ 2 graphs"
            );
        }
    }

    #[test]
    fn proposition_3_16_star_and_p4_above_one() {
        assert!(Concept::Bse
            .is_stable(&generators::star(6), a("2"))
            .unwrap());
        // A path of 4 nodes is in BSE for α = 100 (Prop. 3.16).
        assert!(Concept::Bse
            .is_stable(&generators::path(4), a("100"))
            .unwrap());
        // …but not for small α (ends would link up).
        assert!(!Concept::Bse
            .is_stable(&generators::path(4), a("1"))
            .unwrap());
    }

    #[test]
    fn lemma_2_4_cycle_windows() {
        // C_n is in BSE inside a Θ(n²) window (Lemma 2.4). With the RE
        // threshold worked out exactly: even n gives
        // (n²/4 − (n−1), n(n−2)/4], odd n gives
        // ((n+1)(n−1)/4 − (n−1), (n−1)²/4].
        // n = 5: window (2, 4]; n = 6: window (4, 6].
        for (n, inside, outside) in [
            (5usize, "3", "9/2"),
            (6, "5", "7"),
            (5, "7/2", "5"),
            (6, "23/4", "13/2"),
        ] {
            let g = generators::cycle(n);
            assert!(
                Concept::Bse.is_stable(&g, a(inside)).unwrap(),
                "C{n} must be BSE at α = {inside}"
            );
            assert!(
                !Concept::Bse.is_stable(&g, a(outside)).unwrap(),
                "C{n} must not be BSE at α = {outside}"
            );
        }
    }

    /// Pruned and reference scans return identical witnesses (filters are
    /// order-preserving and only ever skip non-violations).
    #[test]
    fn pruned_scan_matches_reference_witness_exactly() {
        let mut rng = bncg_graph::test_rng(0xB5E);
        for case in 0..10 {
            let g = if case % 3 == 0 {
                generators::random_tree(6, &mut rng)
            } else {
                generators::random_connected(6, 0.4, &mut rng)
            };
            for alpha in ["1/2", "1", "2", "8"] {
                let state = GameState::new(g.clone(), a(alpha));
                let budget = CheckBudget::default();
                let pruned = solve_with_threads(Concept::Bse, &state, 1);
                let reference = find_violation_in_reference(&state, budget).unwrap();
                assert_eq!(pruned, reference, "witness mismatch at α = {alpha}");
            }
        }
    }

    #[test]
    fn parallel_scan_matches_sequential_witness_exactly() {
        let mut rng = bncg_graph::test_rng(0xB5F);
        for _ in 0..6 {
            let g = generators::random_connected(6, 0.35, &mut rng);
            for alpha in ["1/2", "2"] {
                let state = GameState::new(g.clone(), a(alpha));
                let seq = solve_with_threads(Concept::Bse, &state, 1);
                for threads in [2usize, 4] {
                    let par = solve_with_threads(Concept::Bse, &state, threads);
                    assert_eq!(seq, par, "threads = {threads}");
                }
            }
        }
    }

    #[test]
    fn guard_fires_for_large_instances() {
        // The raw reference scan keeps the raw-space pre-guard (2²⁸
        // target graphs at n = 8).
        let state = GameState::new(generators::path(8), a("1"));
        assert!(matches!(
            find_violation_in_reference(&state, CheckBudget::default()),
            Err(GameError::CheckTooLarge { .. })
        ));
    }

    #[test]
    fn witnesses_are_replayable() {
        let mut rng = bncg_graph::test_rng(19);
        for _ in 0..10 {
            let g = generators::random_connected(5, 0.4, &mut rng);
            for alpha in ["1/2", "1", "3"] {
                if let Some(mv) = Concept::Bse.find_violation(&g, a(alpha)).unwrap() {
                    assert!(
                        crate::delta::move_improves_all(&g, a(alpha), &mv).unwrap(),
                        "witness {mv} must replay"
                    );
                }
            }
        }
    }
}
