//! Criterion benchmarks of UV-index construction: the Basic / ICR / IC
//! comparison behind Figure 7(a)/(c), at bench-friendly sizes. Each build
//! is a whole `UvSystem::build`: object store, R-tree, derivation and grid.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::Arc;
use uv_core::{Method, UvConfig, UvSystem};
use uv_data::{Dataset, GeneratorConfig};
use uv_rtree::RTree;
use uv_store::PageStore;

fn bench_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("uv_index_construction");
    group.sample_size(10);
    for &n in &[200usize, 800] {
        let dataset = Dataset::generate(GeneratorConfig::paper_uniform(n));
        for method in [Method::Basic, Method::ICR, Method::IC] {
            // Keep Basic to the small size only: it is the slow straw man.
            if method == Method::Basic && n > 200 {
                continue;
            }
            group.bench_with_input(BenchmarkId::new(method.name(), n), &method, |b, &method| {
                b.iter(|| {
                    let system = UvSystem::build(
                        dataset.objects.clone(),
                        dataset.domain,
                        method,
                        UvConfig::default(),
                    )
                    .unwrap();
                    let stats = system.construction_stats();
                    std::hint::black_box((stats.leaf_nodes, stats.leaf_pages))
                })
            });
        }
    }
    group.finish();
}

fn bench_rtree_bulk_load(c: &mut Criterion) {
    let mut group = c.benchmark_group("rtree_bulk_load");
    for &n in &[1_000usize, 10_000] {
        let dataset = Dataset::generate(GeneratorConfig::paper_uniform(n));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let tree = RTree::build(&dataset.objects, Arc::new(PageStore::new()));
                std::hint::black_box(tree.num_leaves())
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_construction, bench_rtree_bulk_load
}
criterion_main!(benches);
