//! # bncg-bench
//!
//! Criterion benchmarks for the BNCG reproduction, organized one bench
//! target per paper artifact:
//!
//! * `table1` — the verification kernel behind each Table 1 row
//!   (exhaustive tree PoA per concept, lower-bound family certification,
//!   d-ary regime evaluation);
//! * `figures` — the kernels behind Figures 1b–8 (witness searches and
//!   certifications) and Lemma 2.4's cycle windows;
//! * `substrate` — the graph layer (BFS, distance matrices, rerooted
//!   sums, enumeration, isomorphism, graph6);
//! * `dynamics` — improving-move dynamics throughput.
//!
//! Run with `cargo bench --workspace`; each group uses reduced sample
//! counts so a full sweep stays in CI-friendly time.

/// Shared α grid used across bench groups, mirroring the experiments.
#[must_use]
pub fn alpha_grid() -> Vec<bncg_core::Alpha> {
    [1i64, 4, 16, 64]
        .iter()
        .map(|&v| bncg_core::Alpha::integer(v).expect("positive"))
        .collect()
}

/// The pinned kernels shared by the `pruning` bench and the `ci_gate`
/// perf-regression binary — one definition so the gate always measures
/// exactly the instances the recorded numbers describe.
pub mod pruning_kernels {
    use bncg_core::{Alpha, CheckBudget};
    use bncg_graph::{generators, Graph};

    /// A large explicit budget, so the raw-space guards of the reference
    /// and guarded direct scans never refuse a pinned instance.
    #[must_use]
    pub fn budget() -> CheckBudget {
        CheckBudget::new(8_000_000_000)
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
    #[test]
    fn grid_is_nonempty() {
        assert_eq!(super::alpha_grid().len(), 4);
    }
}
