//! Benchmarks for the figure kernels: each group measures the
//! verification or search behind one figure (or appendix lemma) of the
//! paper.

use bncg_constructions::figures::{figure5, figure6, figure7};
use bncg_constructions::{conjecture, venn};
use bncg_core::{concepts, delta, Alpha, Concept};
use bncg_graph::generators;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn alpha(s: &str) -> Alpha {
    s.parse().expect("valid α")
}

/// Figure 1b: the Venn-region witness search over small graphs.
fn bench_fig1b(c: &mut Criterion) {
    let mut group = c.benchmark_group("figures/fig1b");
    group.sample_size(10);
    let grid = venn::default_alpha_grid();
    group.bench_function("venn_search_n5", |b| {
        b.iter(|| venn::find_all_witnesses(black_box(5), 8, &grid).unwrap());
    });
    group.finish();
}

/// Figure 2: the Corbo–Parkes counterexample search.
fn bench_fig2(c: &mut Criterion) {
    let mut group = c.benchmark_group("figures/fig2");
    group.sample_size(10);
    let alphas = [alpha("4"), alpha("3"), alpha("2")];
    group.bench_function("conjecture_search_n5", |b| {
        b.iter(|| {
            conjecture::find_ne_not_ps(black_box(5), &alphas)
                .unwrap()
                .expect("witness exists")
        });
    });
    group.finish();
}

/// Figure 3: BGE certification of a stretched binary tree.
fn bench_fig3(c: &mut Criterion) {
    let mut group = c.benchmark_group("figures/fig3");
    group.sample_size(10);
    let tree = bncg_constructions::stretched::StretchedBinaryTree::build(3, 2);
    let a = Alpha::integer((7 * 2 * tree.graph.n()) as i64).unwrap();
    group.bench_function("bge_certify_d3_k2", |b| {
        b.iter(|| assert!(concepts::bge::is_stable(black_box(&tree.graph), a)));
    });
    group.finish();
}

/// Figure 4 / Lemma 3.14: the deep-child predicate over a tree corpus.
fn bench_fig4(c: &mut Criterion) {
    let mut group = c.benchmark_group("figures/fig4");
    group.sample_size(10);
    let trees = bncg_graph::enumerate::free_trees(8).unwrap();
    let a2 = alpha("2");
    group.bench_function("lemma_3_14_over_trees_n8", |b| {
        b.iter(|| {
            trees
                .iter()
                .filter(|t| bncg_core::bounds::lemma_3_14_holds(t, a2).unwrap())
                .count()
        });
    });
    group.finish();
}

/// Figures 5–7: verifying the explicit witness graphs.
fn bench_fig5_6_7(c: &mut Criterion) {
    let mut group = c.benchmark_group("figures/witnesses");
    group.sample_size(10);
    let f5 = figure5();
    group.bench_function("fig5_bge_certify_n107", |b| {
        b.iter(|| assert!(concepts::bge::is_stable(black_box(&f5.graph), f5.alpha)));
    });
    let f6 = figure6();
    group.bench_function("fig6_exact_bne_n10", |b| {
        b.iter(|| {
            assert!(Concept::Bne
                .is_stable(black_box(&f6.graph), f6.alpha)
                .unwrap())
        });
    });
    let f7 = figure7(10);
    let mv = f7.violation.clone().expect("move");
    group.bench_function("fig7_replay_center_rewire", |b| {
        b.iter(|| assert!(delta::move_improves_all(black_box(&f7.graph), f7.alpha, &mv).unwrap()));
    });
    group.finish();
}

/// Lemma 2.4: exact BSE certification of a cycle inside its window.
fn bench_cycles(c: &mut Criterion) {
    let mut group = c.benchmark_group("figures/lemma_2_4");
    group.sample_size(10);
    let c6 = generators::cycle(6);
    let a5 = alpha("5");
    group.bench_function("bse_certify_c6", |b| {
        b.iter(|| assert!(Concept::Bse.is_stable(black_box(&c6), a5).unwrap()));
    });
    group.finish();
}

criterion_group!(
    figures,
    bench_fig1b,
    bench_fig2,
    bench_fig3,
    bench_fig4,
    bench_fig5_6_7,
    bench_cycles
);
criterion_main!(figures);
