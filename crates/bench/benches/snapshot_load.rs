//! Criterion micro-benchmarks of snapshot persistence: loading a persisted
//! 1k-object system versus rebuilding it cold, plus the save path. The
//! asymmetry is the *build once, query many* cost model of the paper made
//! durable — a warm restart pays `O(bytes)`, not the derivation cost.
//!
//! A second group saves and loads the paper-scale system (8k uniform
//! objects at the default configuration, about 8.4 MB of snapshot), where
//! the reference-table decode dominates a load.

use criterion::{criterion_group, criterion_main, BenchmarkGroup, Criterion};
use uv_core::{Method, UvConfig, UvSystem};
use uv_data::{Dataset, GeneratorConfig};

const N: usize = 1_000;

/// Objects of the paper-configuration group.
const PAPER_N: usize = 8_000;

fn dynamic_config() -> UvConfig {
    UvConfig::default()
        .with_seed_knn(32)
        .with_leaf_split_capacity(12)
        .with_max_nonleaf(20_000)
}

fn build_system() -> (Dataset, UvSystem) {
    let dataset = Dataset::generate(GeneratorConfig::paper_uniform(N));
    let system = UvSystem::build(
        dataset.objects.clone(),
        dataset.domain,
        Method::IC,
        dynamic_config(),
    )
    .unwrap();
    (dataset, system)
}

/// Benchmarks saving `system` and loading its snapshot back.
fn bench_save_and_load(group: &mut BenchmarkGroup<'_>, system: &UvSystem) {
    let mut bytes = Vec::new();
    system
        .save_snapshot(&mut bytes)
        .expect("snapshot save must succeed");
    group.bench_function("save", |b| {
        b.iter(|| {
            let mut out = Vec::with_capacity(bytes.len());
            std::hint::black_box(system.save_snapshot(&mut out).expect("save"));
        })
    });
    group.bench_function("load", |b| {
        b.iter(|| {
            let loaded = UvSystem::load_snapshot(&mut bytes.as_slice()).expect("load must succeed");
            std::hint::black_box(loaded.epoch());
        })
    });
}

fn bench_snapshot(c: &mut Criterion) {
    let (dataset, system) = build_system();
    let mut group = c.benchmark_group("snapshot_1k");
    bench_save_and_load(&mut group, &system);
    group.bench_function("cold_build", |b| {
        b.iter(|| {
            std::hint::black_box(
                UvSystem::build(
                    dataset.objects.clone(),
                    dataset.domain,
                    Method::IC,
                    dynamic_config(),
                )
                .unwrap(),
            )
        })
    });
    group.finish();
}

fn bench_paper_snapshot(c: &mut Criterion) {
    let dataset = Dataset::generate(GeneratorConfig::paper_uniform(PAPER_N));
    let system = UvSystem::build(
        dataset.objects,
        dataset.domain,
        Method::IC,
        UvConfig::default(),
    )
    .unwrap();
    let mut group = c.benchmark_group("snapshot_8k_paper");
    bench_save_and_load(&mut group, &system);
    group.finish();
}

criterion_group!(benches, bench_snapshot, bench_paper_snapshot);
criterion_main!(benches);
