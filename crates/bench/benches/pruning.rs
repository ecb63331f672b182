//! The headline benchmark for the candidate-pruning layer (PR 2) and
//! the branch-and-bound generator (PR 5): exact BNE and k-BSE **full
//! scans** at n = 16 — the generated scans (one `Solver::check` each)
//! vs. the same BNE scan with its subtree kills disabled
//! (`bne::find_violation_in_dense`) vs. the unpruned raw scans retained
//! as `*_reference`. Instances are chosen so the scans
//! certify stability (no early exit): the star at α = 2, and a
//! pinned-seed diameter-2 G(n, p) at α = 1, which Proposition 3.16 makes
//! BSE-stable (hence BNE- and k-BSE-stable).
//!
//! Candidates-skipped fractions per instance are printed once before the
//! timings; the recorded numbers live in CHANGES.md, and the `ci_gate`
//! binary reruns the same kernels as a regression gate.

use bncg_bench::pruning_kernels::{budget, instances, solve};
use bncg_core::{concepts, Concept, GameState};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_bne_full_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("pruning/bne_full_scan");
    group.sample_size(10);
    for (name, g, alpha) in instances() {
        let state = GameState::new(g.clone(), alpha);
        let (pruned, stats) = solve(Concept::Bne, &state);
        let reference = concepts::bne::find_violation_in_reference(&state, budget()).unwrap();
        let (dense, dense_stats) =
            concepts::bne::find_violation_in_dense(&state, budget()).unwrap();
        assert_eq!(
            pruned, reference,
            "pruning changed the BNE witness on {name}"
        );
        assert_eq!(
            (pruned.clone(), stats.evaluated),
            (dense, dense_stats.evaluated),
            "the generator diverged from the dense leg on {name}"
        );
        assert!(pruned.is_none(), "{name} must be a full (stable) scan");
        println!(
            "pruning/bne_full_scan/{name}: {} raw candidates, {:.2}% skipped, \
             {} generator steps ({:.4}% of the space)",
            stats.generated,
            100.0 * stats.skipped_fraction(),
            stats.visited,
            100.0 * stats.visited as f64 / stats.generated.max(1) as f64
        );
        group.bench_with_input(BenchmarkId::new("generated", name), &state, |b, s| {
            b.iter(|| solve(Concept::Bne, black_box(s)));
        });
        group.bench_with_input(BenchmarkId::new("dense_pr2", name), &state, |b, s| {
            b.iter(|| concepts::bne::find_violation_in_dense(black_box(s), budget()).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("reference", name), &state, |b, s| {
            b.iter(|| concepts::bne::find_violation_in_reference(black_box(s), budget()).unwrap());
        });
    }
    group.finish();
}

fn bench_kbse_full_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("pruning/kbse_full_scan");
    group.sample_size(3);
    for (name, g, alpha) in instances() {
        // k = 3 on the star stays tractable for the raw reference; the
        // dense diameter-2 instance uses k = 2 (its raw k = 3 space is
        // ~1.2·10⁹ candidates — the pruned scan still handles it, shown
        // as a pruned-only extra measurement below).
        let k = if name == "star16" { 3 } else { 2 };
        let state = GameState::new(g.clone(), alpha);
        let (pruned, stats) = solve(Concept::KBse(k), &state);
        let reference =
            concepts::kbse::find_violation_in_reference(&state, k as usize, budget()).unwrap();
        assert_eq!(
            pruned.is_some(),
            reference.is_some(),
            "pruning changed the {k}-BSE verdict on {name}"
        );
        assert!(pruned.is_none(), "{name} must be a full (stable) scan");
        println!(
            "pruning/kbse_full_scan/{name} (k={k}): {} raw candidates, {:.2}% skipped",
            stats.generated,
            100.0 * stats.skipped_fraction()
        );
        group.bench_with_input(
            BenchmarkId::new(format!("pruned_k{k}"), name),
            &state,
            |b, s| {
                b.iter(|| solve(Concept::KBse(k), black_box(s)));
            },
        );
        group.bench_with_input(
            BenchmarkId::new(format!("reference_k{k}"), name),
            &state,
            |b, s| {
                b.iter(|| {
                    concepts::kbse::find_violation_in_reference(black_box(s), k as usize, budget())
                        .unwrap()
                });
            },
        );
    }
    // Pruned-only: the 3-BSE scan of the dense diameter-2 instance, whose
    // raw space no unpruned checker can touch.
    let (name, g, alpha) = instances().pop().expect("two instances");
    let state = GameState::new(g, alpha);
    let (mv, stats) = solve(Concept::KBse(3), &state);
    assert!(mv.is_none());
    println!(
        "pruning/kbse_full_scan/{name} (k=3, pruned only): {} raw candidates, {:.4}% skipped",
        stats.generated,
        100.0 * stats.skipped_fraction()
    );
    group.bench_with_input(BenchmarkId::new("pruned_k3", name), &state, |b, s| {
        b.iter(|| solve(Concept::KBse(3), black_box(s)));
    });
    group.finish();
}

// Parallel sharding of the pruned scans is measured where real work
// survives pruning — the restricted-refuter workloads in
// `bncg_analysis::ablations::parallel_scan`; at n = 16 the pruning layer
// leaves these exact scans too little work for threads to matter.

criterion_group!(pruning, bench_bne_full_scan, bench_kbse_full_scan);
criterion_main!(pruning);
