//! # bncg-bench
//!
//! The `ci_gate` perf-regression binary and the pinned kernels it
//! shares with this crate's counter test. `ci_gate` asserts each
//! kernel's exactness before it times it; the end-to-end benchmark is
//! `perfbench/`, a workspace of its own.

/// The pinned kernels the `ci_gate` binary times and the counter test
/// pins — one definition so the gate always measures exactly the
/// instances the recorded numbers describe.
pub mod pruning_kernels {
    use bncg_core::solver::{Solver, StabilityQuery};
    use bncg_core::{Alpha, CandidateStats, CheckBudget, Concept, GameState, Move};
    use bncg_graph::{generators, Graph};

    /// A large explicit budget, so the raw-space guards of the reference
    /// scans never refuse a pinned instance.
    #[must_use]
    pub fn budget() -> CheckBudget {
        CheckBudget::new(8_000_000_000)
    }

    /// The pruned scan every kernel times: one unbounded sequential
    /// [`Solver::check`], returning the witness and the run's counters.
    ///
    /// # Panics
    ///
    /// When the instance exceeds a structural scan limit.
    #[must_use]
    pub fn solve(concept: Concept, state: &GameState) -> (Option<Move>, CandidateStats) {
        let verdict = Solver::default()
            .check(&StabilityQuery::on(concept, state))
            .expect("pinned instances fit the structural limits");
        (verdict.witness().cloned(), *verdict.stats())
    }

    /// `(name, graph, α)` instances whose full scans are stable: the star
    /// at α = 2, and a pinned-seed G(16, 0.35) draw verified to have
    /// diameter 2, which Proposition 3.16 makes BSE-stable (hence BNE-
    /// and k-BSE-stable) at α = 1.
    #[must_use]
    pub fn instances() -> Vec<(&'static str, Graph, Alpha)> {
        let mut rng = bncg_graph::test_rng(0xE16 ^ (9 * 0x9E37));
        vec![
            (
                "star16",
                generators::star(16),
                Alpha::integer(2).expect("α"),
            ),
            (
                "gnp16_diam2",
                generators::random_connected(16, 0.35, &mut rng),
                Alpha::integer(1).expect("α"),
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::pruning_kernels::{instances, solve};
    use bncg_core::{Concept, GameState};

    /// The pinned stable scans do exactly the recorded work: raw space
    /// (`generated`), generator steps (`visited`), priced leaves
    /// (`evaluated`) and skipped candidates, per instance and concept.
    /// A pruning or generator change that moves any counter fails here
    /// deterministically, where a timing could only drift.
    #[test]
    fn pinned_stable_scans_do_the_recorded_work() {
        // (generated, visited, evaluated, skipped) for BNE, 2-BSE, 3-BSE.
        let recorded = [
            [
                (524_272, 16, 0, 524_272),
                (525_022, 0, 0, 525_022),
                (7_434_862, 0, 0, 7_434_862),
            ],
            [
                (524_272, 16, 0, 524_272),
                (2_205_448, 0, 0, 2_205_448),
                (1_155_032_280, 0, 0, 1_155_032_280),
            ],
        ];
        let instances = instances();
        assert_eq!(instances.len(), recorded.len(), "an instance has no row");
        for ((name, g, alpha), counts) in instances.into_iter().zip(recorded) {
            let state = GameState::new(g, alpha);
            for (concept, want) in [Concept::Bne, Concept::KBse(2), Concept::KBse(3)]
                .into_iter()
                .zip(counts)
            {
                let (witness, s) = solve(concept, &state);
                assert_eq!(witness, None, "{concept} must scan {name} to completion");
                assert_eq!(
                    (s.generated, s.visited, s.evaluated, s.skipped()),
                    want,
                    "{concept} counters drifted on {name}"
                );
            }
        }
    }
}
