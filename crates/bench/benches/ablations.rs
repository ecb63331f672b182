//! Benchmarks for the reproduction's design-choice ablations: the same
//! kernels the `experiments ablations` subcommand measures, here under
//! criterion's statistics.

use bncg_constructions::figures::figure7;
use bncg_core::{agent_cost, concepts, delta, Alpha, Move};
use bncg_graph::{generators, DistanceMatrix};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn alpha(v: i64) -> Alpha {
    Alpha::integer(v).expect("positive")
}

/// Fast distance-matrix adds vs. generic apply+BFS, full scan on one tree.
fn bench_delta_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablations/delta_engines");
    let mut rng = bncg_graph::test_rng(21);
    let tree = generators::random_tree(80, &mut rng);
    let d = DistanceMatrix::new(&tree);
    let a = alpha(50);
    let old: Vec<_> = (0..80u32).map(|u| agent_cost(&tree, u)).collect();
    let adds: Vec<(u32, u32)> = tree.non_edges().collect();
    group.bench_function("fast_add_scan", |b| {
        b.iter(|| {
            adds.iter()
                .filter(|&&(u, v)| {
                    delta::cost_after_add(&tree, &d, u, v).better_than(&old[u as usize], a)
                })
                .count()
        });
    });
    group.bench_function("generic_add_scan", |b| {
        b.iter(|| {
            adds.iter()
                .filter(|&&(u, v)| {
                    let g2 = Move::BilateralAdd { u, v }.apply(&tree).unwrap();
                    agent_cost(&g2, u).better_than(&old[u as usize], a)
                })
                .count()
        });
    });
    let _ = black_box(&old);
    group.finish();
}

/// Serial vs parallel restricted coalition scans on the Figure 7 family.
fn bench_coalition_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablations/coalition_scan");
    group.sample_size(10);
    let fig = figure7(12);
    for threads in [1usize, 4] {
        group.bench_function(format!("threads{threads}_i12"), |b| {
            b.iter(|| {
                let found = concepts::kbse::find_violation_restricted(
                    black_box(&fig.graph),
                    fig.alpha,
                    2,
                    2,
                    threads,
                )
                .unwrap();
                assert!(found.is_none());
            });
        });
    }
    group.finish();
}

criterion_group!(ablations, bench_delta_engines, bench_coalition_scan);
criterion_main!(ablations);
