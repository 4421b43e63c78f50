//! Criterion benchmarks for the pipeline's component algorithms: chi-square
//! feature selection (Figure 8's "Compare Attribute" stage), k-means
//! clustering (Figures 9-10's dominant cost), and diversified top-k.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dbex_bench::{base_cars_table, five_make_view, FIVE_MAKES};
use dbex_cluster::{kmeans_packed, KMeansConfig, PackedMatrix};
use dbex_stats::discretize::{CodedColumn, CodedMatrix};
use dbex_stats::feature::{select_compare_attributes, FeatureSelectionConfig};
use dbex_stats::histogram::BinningStrategy;
use dbex_topk::{div_astar, greedy, ConflictGraph};
use std::hint::black_box;

fn bench_feature_selection(c: &mut Criterion) {
    let table = base_cars_table();
    let population = five_make_view(&table);
    let schema = table.schema();
    let pivot = schema.index_of("Make").expect("Make exists");
    let dict = table.column(pivot).dictionary().expect("categorical");
    let codes: Vec<u32> = FIVE_MAKES
        .iter()
        .map(|m| dict.code(m).expect("present"))
        .collect();
    let candidates: Vec<usize> = (0..schema.len()).filter(|&i| i != pivot).collect();

    let mut group = c.benchmark_group("feature_selection");
    group.sample_size(10);
    for &size in &[10_000usize, 40_000] {
        let result = population.sample(size);
        group.bench_with_input(BenchmarkId::new("full", size), &size, |b, _| {
            b.iter(|| {
                black_box(select_compare_attributes(
                    &result,
                    pivot,
                    &codes,
                    &[],
                    &candidates,
                    &FeatureSelectionConfig::default(),
                ))
            });
        });
        group.bench_with_input(BenchmarkId::new("sampled_5k", size), &size, |b, _| {
            let config = FeatureSelectionConfig {
                sample: Some(5_000),
                ..FeatureSelectionConfig::default()
            };
            b.iter(|| {
                black_box(select_compare_attributes(
                    &result, pivot, &codes, &[], &candidates, &config,
                ))
            });
        });
    }
    group.finish();
}

fn bench_kmeans(c: &mut Criterion) {
    let table = base_cars_table();
    let population = five_make_view(&table);
    let schema = table.schema();
    let attrs: Vec<usize> = ["Model", "Engine", "Price", "Drivetrain", "Year"]
        .iter()
        .map(|n| schema.index_of(n).expect("exists"))
        .collect();

    let mut group = c.benchmark_group("kmeans");
    group.sample_size(10);
    for &size in &[5_000usize, 20_000] {
        let result = population.sample(size);
        let matrix = CodedMatrix::encode(&result, &attrs, 6, BinningStrategy::EquiDepth);
        let coded: Vec<&CodedColumn> = matrix.columns.iter().collect();
        let positions: Vec<usize> = (0..result.len()).collect();
        let points = PackedMatrix::from_columns(&coded, &positions).expect("bench data packs");
        group.bench_with_input(BenchmarkId::new("l15", size), &size, |b, _| {
            b.iter(|| {
                black_box(kmeans_packed(
                    &points,
                    &KMeansConfig {
                        k: 15,
                        ..Default::default()
                    },
                ))
            });
        });
    }
    group.finish();
}

fn bench_topk(c: &mut Criterion) {
    // Candidate scores + a mid-density conflict graph at CAD-View scale.
    let l = 15;
    let scores: Vec<f64> = (0..l).map(|i| 100.0 + (i as f64 * 37.0) % 900.0).collect();
    let mut graph = ConflictGraph::new(l);
    for a in 0..l {
        for b in (a + 1)..l {
            if (a * 31 + b * 17) % 10 < 3 {
                graph.add_conflict(a, b);
            }
        }
    }
    let mut group = c.benchmark_group("diversified_topk");
    group.bench_function("div_astar", |b| {
        b.iter(|| black_box(div_astar(&scores, &graph, 6)))
    });
    group.bench_function("greedy", |b| {
        b.iter(|| black_box(greedy(&scores, &graph, 6)))
    });
    group.finish();
}

criterion_group!(benches, bench_feature_selection, bench_kmeans, bench_topk);
criterion_main!(benches);
