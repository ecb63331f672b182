//! Benchmarks for the improving-move dynamics and the checker throughput
//! they depend on (the simulation layer behind the cooperation-ladder
//! experiment).

use bncg_core::{concepts, Alpha, Concept, GameState};
use bncg_dynamics::{run, SelectionRule};
use bncg_graph::generators;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn alpha(v: i64) -> Alpha {
    Alpha::integer(v).expect("positive")
}

fn bench_checker_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("dynamics/checkers");
    for n in [50usize, 150] {
        let mut rng = bncg_graph::test_rng(7);
        let tree = generators::random_tree(n, &mut rng);
        group.bench_with_input(BenchmarkId::new("bae_scan", n), &tree, |b, g| {
            b.iter(|| black_box(concepts::bae::find_violation(g, alpha(50))));
        });
        group.bench_with_input(BenchmarkId::new("bswe_scan", n), &tree, |b, g| {
            b.iter(|| black_box(concepts::bswe::find_violation(g, alpha(50))));
        });
    }
    group.finish();
}

fn bench_full_runs(c: &mut Criterion) {
    let mut group = c.benchmark_group("dynamics/runs");
    group.sample_size(10);
    for n in [15usize, 25] {
        let mut rng = bncg_graph::test_rng(11);
        let start = generators::random_tree(n, &mut rng);
        group.bench_with_input(BenchmarkId::new("bge_first", n), &start, |b, g| {
            b.iter(|| {
                let t = run(
                    black_box(g),
                    alpha(3),
                    Concept::Bge,
                    SelectionRule::First,
                    50_000,
                )
                .unwrap();
                assert!(t.converged);
            });
        });
    }
    group.finish();
}

fn bench_move_enumeration(c: &mut Criterion) {
    let mut group = c.benchmark_group("dynamics/enumerate");
    let mut rng = bncg_graph::test_rng(13);
    let g = generators::random_tree(30, &mut rng);
    group.bench_function("all_bge_violations_n30", |b| {
        b.iter(|| {
            let state = GameState::new(black_box(&g).clone(), alpha(4));
            bncg_dynamics::enumerate_violations(&state, Concept::Bge).unwrap()
        });
    });
    group.finish();
}

criterion_group!(
    dynamics,
    bench_checker_throughput,
    bench_full_runs,
    bench_move_enumeration
);
criterion_main!(dynamics);
