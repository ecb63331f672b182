//! Benchmarks for the Table 1 kernels: one group per row of the paper's
//! table, measuring the work needed to regenerate that row's data point.

use bncg_analysis::empirical;
use bncg_constructions::stretched::{
    lemma_3_11_certificate, theorem_3_10_instance, theorem_3_12_i_instance,
};
use bncg_core::{concepts, social_cost_ratio, Alpha, Concept};
use bncg_graph::{generators, RootedTree};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn alpha(v: i64) -> Alpha {
    Alpha::integer(v).expect("positive")
}

/// Row PS: exhaustive pairwise-stability PoA over all trees on n nodes.
fn bench_row_ps(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1/ps");
    group.sample_size(10);
    for n in [8usize, 9] {
        group.bench_with_input(BenchmarkId::new("tree_poa", n), &n, |b, &n| {
            b.iter(|| empirical::tree_poa(black_box(n), alpha(8), Concept::Ps).unwrap());
        });
    }
    group.finish();
}

/// Row BSwE: exhaustive swap-equilibrium PoA (Theorem 3.6 regime).
fn bench_row_bswe(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1/bswe");
    group.sample_size(10);
    for n in [8usize, 9] {
        group.bench_with_input(BenchmarkId::new("tree_poa", n), &n, |b, &n| {
            b.iter(|| empirical::tree_poa(black_box(n), alpha(8), Concept::Bswe).unwrap());
        });
    }
    group.finish();
}

/// Row BGE: certifying the Theorem 3.10 stretched-tree-star lower bound.
fn bench_row_bge(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1/bge");
    group.sample_size(10);
    for av in [240usize, 480] {
        let star = theorem_3_10_instance(av, av);
        group.bench_with_input(
            BenchmarkId::new("certify_thm_3_10", av),
            &star.graph,
            |b, g| {
                b.iter(|| {
                    assert!(concepts::bge::is_stable(black_box(g), alpha(av as i64)));
                });
            },
        );
    }
    group.finish();
}

/// Row BNE: the Lemma 3.11 certificate plus an exact small-n BNE check.
fn bench_row_bne(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1/bne");
    group.sample_size(10);
    let eta = 1usize << 12;
    let star = theorem_3_12_i_instance(9 * eta, eta, 1.0);
    let a9 = alpha(9 * eta as i64);
    group.bench_function("lemma_3_11_certificate", |b| {
        b.iter(|| assert!(lemma_3_11_certificate(black_box(&star), a9)));
    });
    group.bench_function("exact_bne_n16_star", |b| {
        let g = generators::star(16);
        b.iter(|| assert!(Concept::Bne.is_stable(black_box(&g), alpha(4)).unwrap()));
    });
    group.bench_function("rho_of_instance", |b| {
        b.iter(|| social_cost_ratio(black_box(&star.graph), a9).unwrap());
    });
    group.finish();
}

/// Row 3-BSE: exhaustive coalition-of-three PoA on trees.
fn bench_row_3bse(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1/3bse");
    group.sample_size(10);
    for n in [7usize, 8] {
        group.bench_with_input(BenchmarkId::new("tree_poa", n), &n, |b, &n| {
            b.iter(|| empirical::tree_poa(black_box(n), alpha(8), Concept::KBse(3)).unwrap());
        });
    }
    group.finish();
}

/// Row BSE: exact tiny-n general-graph PoA and the d-ary regime kernel.
fn bench_row_bse(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1/bse");
    group.sample_size(10);
    group.bench_function("graph_poa_n5", |b| {
        b.iter(|| empirical::graph_poa(5, alpha(2), Concept::Bse).unwrap());
    });
    group.bench_function("dary_regime_n4096", |b| {
        b.iter(|| {
            let g = generators::almost_complete_dary_tree(2, 4096);
            let t = RootedTree::new(&g, 0).unwrap();
            let sums = t.dist_sums();
            let a = alpha(4096);
            let worst = (0..4096u32)
                .map(|u| a.as_f64() * g.degree(u) as f64 + sums[u as usize] as f64)
                .fold(0.0f64, f64::max);
            black_box(worst)
        });
    });
    group.finish();
}

criterion_group!(
    table1,
    bench_row_ps,
    bench_row_bswe,
    bench_row_bge,
    bench_row_bne,
    bench_row_3bse,
    bench_row_bse
);
criterion_main!(table1);
