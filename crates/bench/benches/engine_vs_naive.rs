//! The headline benchmark for the incremental `GameState` engine: the
//! exact BNE check and round-robin best-response dynamics, engine vs. the
//! naive scratch path that rebuilds a full `DistanceMatrix` per candidate
//! move (what every checker effectively paid before the engine landed).
//!
//! Run with `cargo bench -p bncg-bench --bench engine_vs_naive`; the
//! recorded speedups live in CHANGES.md.

use bncg_bench::pruning_kernels::solve;
use bncg_core::{agent_cost_from_matrix, Alpha, Concept, GameState, Move};
use bncg_graph::{generators, DistanceMatrix, Graph};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn alpha() -> Alpha {
    Alpha::integer(2).expect("positive")
}

fn instances() -> Vec<(&'static str, Graph)> {
    let mut rng = bncg_graph::test_rng(0xE16);
    vec![
        ("path16", generators::path(16)),
        ("star16", generators::star(16)),
        ("gnp16", generators::random_connected(16, 0.2, &mut rng)),
    ]
}

/// The scratch path: the same BNE candidate space, but every candidate is
/// priced by rebuilding the full all-pairs matrix of the mutated graph.
fn naive_bne_find_violation(g: &Graph, alpha: Alpha) -> Option<Move> {
    let n = g.n();
    let base = DistanceMatrix::new(g);
    let old: Vec<_> = (0..n as u32)
        .map(|u| agent_cost_from_matrix(g, &base, u))
        .collect();
    let mut scratch = g.clone();
    for center in 0..n as u32 {
        let neighbors: Vec<u32> = g.neighbors(center).to_vec();
        let others: Vec<u32> = (0..n as u32)
            .filter(|&v| v != center && !g.has_edge(center, v))
            .collect();
        for rem_mask in 0u64..1u64 << neighbors.len() {
            for add_mask in 0u64..1u64 << others.len() {
                if rem_mask == 0 && add_mask == 0 {
                    continue;
                }
                let mut removed = Vec::new();
                let mut added = Vec::new();
                for (i, &v) in neighbors.iter().enumerate() {
                    if rem_mask >> i & 1 == 1 {
                        scratch.remove_edge(center, v).expect("neighbor edge");
                        removed.push(v);
                    }
                }
                for (i, &v) in others.iter().enumerate() {
                    if add_mask >> i & 1 == 1 {
                        scratch.add_edge(center, v).expect("non-neighbor");
                        added.push(v);
                    }
                }
                // Full rebuild per candidate — the pre-engine cost model.
                let d = DistanceMatrix::new(&scratch);
                let improving = agent_cost_from_matrix(&scratch, &d, center)
                    .better_than(&old[center as usize], alpha)
                    && added.iter().all(|&a| {
                        agent_cost_from_matrix(&scratch, &d, a).better_than(&old[a as usize], alpha)
                    });
                for &v in &removed {
                    scratch.add_edge(center, v).expect("restore");
                }
                for &v in &added {
                    scratch.remove_edge(center, v).expect("restore");
                }
                if improving {
                    return Some(Move::Neighborhood {
                        center,
                        remove: removed,
                        add: added,
                    });
                }
            }
        }
    }
    None
}

/// The scratch path for round-robin: every activation recomputes all old
/// costs from a fresh matrix and every candidate rebuilds the matrix.
fn naive_round_robin(start: &Graph, alpha: Alpha, max_rounds: usize) -> (usize, Graph) {
    let mut g = start.clone();
    let n = g.n() as u32;
    let mut moves = 0usize;
    for _ in 0..max_rounds {
        let mut moved = false;
        for u in 0..n {
            let base = DistanceMatrix::new(&g);
            let old: Vec<_> = (0..n)
                .map(|w| agent_cost_from_matrix(&g, &base, w))
                .collect();
            let neighbors: Vec<u32> = g.neighbors(u).to_vec();
            let others: Vec<u32> = (0..n).filter(|&v| v != u && !g.has_edge(u, v)).collect();
            let mut scratch = g.clone();
            let mut best_cost = old[u as usize];
            let mut best: Option<Move> = None;
            for rem_mask in 0u64..1u64 << neighbors.len() {
                for add_mask in 0u64..1u64 << others.len() {
                    if rem_mask == 0 && add_mask == 0 {
                        continue;
                    }
                    let mut removed = Vec::new();
                    let mut added = Vec::new();
                    for (i, &v) in neighbors.iter().enumerate() {
                        if rem_mask >> i & 1 == 1 {
                            scratch.remove_edge(u, v).expect("neighbor edge");
                            removed.push(v);
                        }
                    }
                    for (i, &v) in others.iter().enumerate() {
                        if add_mask >> i & 1 == 1 {
                            scratch.add_edge(u, v).expect("non-neighbor");
                            added.push(v);
                        }
                    }
                    let d = DistanceMatrix::new(&scratch);
                    let mine = agent_cost_from_matrix(&scratch, &d, u);
                    let feasible = mine.better_than(&best_cost, alpha)
                        && added.iter().all(|&a| {
                            agent_cost_from_matrix(&scratch, &d, a)
                                .better_than(&old[a as usize], alpha)
                        });
                    for &v in &removed {
                        scratch.add_edge(u, v).expect("restore");
                    }
                    for &v in &added {
                        scratch.remove_edge(u, v).expect("restore");
                    }
                    if feasible {
                        best_cost = mine;
                        best = Some(Move::Neighborhood {
                            center: u,
                            remove: removed,
                            add: added,
                        });
                    }
                }
            }
            if let Some(mv) = best {
                g = mv.apply(&g).expect("feasible move");
                moves += 1;
                moved = true;
            }
        }
        if !moved {
            break;
        }
    }
    (moves, g)
}

fn bench_bne_check(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_vs_naive/bne_check");
    group.sample_size(10);
    let a = alpha();
    for (name, g) in instances() {
        // Both paths must agree on the verdict before timing anything.
        let engine_verdict = Concept::Bne.is_stable(&g, a).unwrap();
        let naive_verdict = naive_bne_find_violation(&g, a).is_none();
        assert_eq!(engine_verdict, naive_verdict, "paths disagree on {name}");
        group.bench_with_input(BenchmarkId::new("engine", name), &g, |b, g| {
            b.iter(|| {
                let state = GameState::new(black_box(g).clone(), a);
                solve(Concept::Bne, &state)
            });
        });
        group.bench_with_input(BenchmarkId::new("naive", name), &g, |b, g| {
            b.iter(|| naive_bne_find_violation(black_box(g), a));
        });
    }
    group.finish();
}

fn bench_round_robin(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_vs_naive/round_robin50");
    group.sample_size(10);
    let a = alpha();
    for (name, g) in instances() {
        let engine = bncg_dynamics::round_robin::run(&g, a, 50).unwrap();
        let (_, naive_final) = naive_round_robin(&g, a, 50);
        assert_eq!(
            engine.final_graph, naive_final,
            "dynamics paths diverge on {name}"
        );
        group.bench_with_input(BenchmarkId::new("engine", name), &g, |b, g| {
            b.iter(|| bncg_dynamics::round_robin::run(black_box(g), a, 50).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("naive", name), &g, |b, g| {
            b.iter(|| naive_round_robin(black_box(g), a, 50));
        });
    }
    group.finish();
}

criterion_group!(engine_vs_naive, bench_bne_check, bench_round_robin);
criterion_main!(engine_vs_naive);
