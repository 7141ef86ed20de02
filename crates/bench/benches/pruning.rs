//! Criterion benchmarks of cr-object derivation (Algorithm 2): the seed /
//! I-pruning / C-pruning pipeline that makes UV-index construction tractable,
//! plus the R-tree substrate queries it relies on.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::Arc;
use uv_core::crobjects::derive_cr_objects;
use uv_core::{cell::build_exact_cell, UvConfig};
use uv_data::{Dataset, GeneratorConfig};
use uv_rtree::RTree;
use uv_store::PageStore;

fn bench_cr_object_derivation(c: &mut Criterion) {
    let mut group = c.benchmark_group("derive_cr_objects");
    for &n in &[1_000usize, 5_000] {
        let dataset = Dataset::generate(GeneratorConfig::paper_uniform(n));
        let rtree = RTree::build(&dataset.objects, Arc::new(PageStore::new()));
        let config = UvConfig::default();
        let subject = &dataset.objects[n / 2];
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                std::hint::black_box(derive_cr_objects(
                    subject,
                    &rtree,
                    &dataset.objects,
                    &dataset.domain,
                    &config,
                ))
            })
        });
    }
    group.finish();
}

fn bench_exact_cell(c: &mut Criterion) {
    let mut group = c.benchmark_group("exact_uv_cell");
    group.sample_size(10);
    for &n in &[200usize, 800] {
        let dataset = Dataset::generate(GeneratorConfig::paper_uniform(n));
        let config = UvConfig::default();
        let subject = &dataset.objects[n / 2];
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                std::hint::black_box(build_exact_cell(
                    subject,
                    dataset.objects.iter().filter(|o| o.id != subject.id),
                    &dataset.domain,
                    &config,
                ))
            })
        });
    }
    group.finish();
}

fn bench_rtree_substrate(c: &mut Criterion) {
    let dataset = Dataset::generate(GeneratorConfig::paper_uniform(10_000));
    let rtree = RTree::build(&dataset.objects, Arc::new(PageStore::new()));
    let q = dataset.objects[5_000].center();

    c.bench_function("rtree_knn_300", |b| {
        b.iter(|| std::hint::black_box(rtree.knn(q, 300, Some(5_000))))
    });
    c.bench_function("rtree_range_circle_centers", |b| {
        b.iter(|| std::hint::black_box(rtree.range_circle_centers(q, 500.0)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_cr_object_derivation, bench_exact_cell, bench_rtree_substrate
}
criterion_main!(benches);
