//! Criterion benchmarks of the geometry kernels on the UV-diagram hot path:
//! possible-region clipping (including the domain-seeded build that opens
//! every cr-derivation, and the clip's containment test), convex hulls,
//! overlap checking and the qualification-probability integration — each
//! scalar reference next to its batched SoA arena counterpart, so the
//! kernel-pass speedup is measured directly.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use uv_core::index::check_overlap;
use uv_core::{PossibleRegion, UvConfig};
use uv_data::{
    qualification_probabilities, EntryArena, KernelArena, ObjectEntry, QuadratureScratch,
    ScreenScratch, UncertainObject,
};
use uv_geom::{convex_hull, Circle, ClipScratch, ContainmentIndex, Point, Polygon, Rect};

fn ring_of_circles(n: usize, center: Point, radius: f64) -> Vec<Circle> {
    (0..n)
        .map(|k| {
            let angle = std::f64::consts::TAU * k as f64 / n as f64;
            Circle::new(
                Point::new(
                    center.x + radius * angle.cos(),
                    center.y + radius * angle.sin(),
                ),
                20.0,
            )
        })
        .collect()
}

fn bench_region_clip(c: &mut Criterion) {
    let domain = Rect::square(10_000.0);
    let subject = Circle::new(Point::new(5_000.0, 5_000.0), 20.0);
    let mut group = c.benchmark_group("possible_region_clip");
    for &neighbours in &[8usize, 32, 128] {
        let others = ring_of_circles(neighbours, subject.center, 400.0);
        group.bench_with_input(
            BenchmarkId::from_parameter(neighbours),
            &others,
            |b, others| {
                b.iter(|| {
                    let mut region = PossibleRegion::full(subject, &domain);
                    for o in others {
                        region.clip(*o, 8, 156.0);
                    }
                    std::hint::black_box(region.area())
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("scratch", neighbours),
            &others,
            |b, others| {
                b.iter(|| {
                    let mut region = PossibleRegion::full(subject, &domain);
                    let mut scratch = ClipScratch::default();
                    for o in others {
                        region.clip_with(*o, 8, 156.0, &mut scratch);
                    }
                    std::hint::black_box(region.area())
                })
            },
        );
    }
    group.finish();
}

/// Eight seeds around `subject`, one per 45° sector, at the distances a
/// `k = 300` neighbour query finds on 8k uniform objects over 10 km.
fn sector_seeds(subject: Circle) -> Vec<Circle> {
    (0..8)
        .map(|k| {
            let angle = std::f64::consts::TAU * (k as f64 + 0.3) / 8.0;
            let dist = 70.0 + 23.0 * ((k * 5) % 8) as f64;
            Circle::new(
                Point::new(
                    subject.center.x + dist * angle.cos(),
                    subject.center.y + dist * angle.sin(),
                ),
                20.0,
            )
        })
        .collect()
}

/// The opening of every cr-derivation (Algorithm 2, `initPossibleRegion`):
/// the 10 km domain clipped by eight sector seeds at the paper's curve
/// fidelity. The first clips trace long curves through large polygons, so
/// this is where a derivation's clipping cost sits.
fn bench_seeded_region(c: &mut Criterion) {
    let config = UvConfig::default();
    let domain = Rect::square(10_000.0);
    let max_edge_len = config.max_edge_len(domain.width());
    let subject = Circle::new(Point::new(5_000.0, 5_000.0), 20.0);
    let seeds = sector_seeds(subject);
    c.bench_function("seeded_possible_region_8", |b| {
        b.iter(|| {
            let mut region = PossibleRegion::full(subject, &domain);
            let mut scratch = ClipScratch::default();
            for seed in &seeds {
                region.clip_with(*seed, config.curve_samples, max_edge_len, &mut scratch);
            }
            std::hint::black_box(region.area())
        })
    });
}

/// The clip's containment test: `Polygon::contains` next to the y-bucketed
/// `ContainmentIndex` on a traced possible region of ~200 vertices (the
/// domain after four sector seeds), queried at 256 points spread over its
/// bounding box. `index_build` is the per-clip cost of indexing that polygon
/// into reused buffers.
fn bench_containment(c: &mut Criterion) {
    let config = UvConfig::default();
    let domain = Rect::square(10_000.0);
    let subject = Circle::new(Point::new(5_000.0, 5_000.0), 20.0);
    let mut region = PossibleRegion::full(subject, &domain);
    for seed in &sector_seeds(subject)[..4] {
        region.clip(
            *seed,
            config.curve_samples,
            config.max_edge_len(domain.width()),
        );
    }
    let polygon: &Polygon = region.polygon();
    let mbr = polygon.mbr();
    let queries: Vec<Point> = (0..256)
        .map(|k| {
            let (i, j) = ((k % 16) as f64 + 0.5, (k / 16) as f64 + 0.5);
            Point::new(
                mbr.min_x + mbr.width() * i / 16.0,
                mbr.min_y + mbr.height() * j / 16.0,
            )
        })
        .collect();
    let mut group = c.benchmark_group("containment");
    let vertices = polygon.len();
    group.bench_with_input(
        BenchmarkId::new("polygon_contains", vertices),
        &queries,
        |b, queries| {
            b.iter(|| {
                std::hint::black_box(queries.iter().filter(|q| polygon.contains(**q)).count())
            })
        },
    );
    let index = ContainmentIndex::new(polygon);
    group.bench_with_input(
        BenchmarkId::new("indexed", vertices),
        &queries,
        |b, queries| {
            b.iter(|| std::hint::black_box(queries.iter().filter(|q| index.contains(**q)).count()))
        },
    );
    group.bench_with_input(
        BenchmarkId::new("index_build", vertices),
        polygon,
        |b, polygon| {
            let mut index = ContainmentIndex::default();
            b.iter(|| {
                index.rebuild(polygon);
                std::hint::black_box(index.contains(subject.center))
            })
        },
    );
    group.finish();
}

fn bench_convex_hull(c: &mut Criterion) {
    let mut group = c.benchmark_group("convex_hull");
    for &n in &[64usize, 1_024] {
        let points: Vec<Point> = (0..n)
            .map(|k| {
                let a = k as f64 * 0.7;
                Point::new(a.sin() * 500.0 + a, a.cos() * 500.0 - a * 0.3)
            })
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &points, |b, pts| {
            b.iter(|| std::hint::black_box(convex_hull(pts)))
        });
    }
    group.finish();
}

fn bench_check_overlap(c: &mut Criterion) {
    let subject = Circle::new(Point::new(5_000.0, 5_000.0), 20.0);
    let crs = ring_of_circles(24, subject.center, 300.0);
    let region = Rect::new(6_000.0, 6_000.0, 6_200.0, 6_200.0);
    c.bench_function("check_overlap_4point", |b| {
        b.iter(|| std::hint::black_box(check_overlap(subject, &crs, &region)))
    });
}

fn bench_probability(c: &mut Criterion) {
    let mut group = c.benchmark_group("qualification_probability");
    for &candidates in &[2usize, 8, 24] {
        let objects: Vec<UncertainObject> = (0..candidates as u32)
            .map(|k| {
                UncertainObject::with_gaussian(
                    k,
                    Point::new(100.0 + 15.0 * k as f64, 80.0 + 7.0 * k as f64),
                    20.0,
                )
            })
            .collect();
        let refs: Vec<&UncertainObject> = objects.iter().collect();
        group.bench_with_input(BenchmarkId::from_parameter(candidates), &refs, |b, refs| {
            b.iter(|| {
                std::hint::black_box(qualification_probabilities(Point::new(0.0, 0.0), refs, 100))
            })
        });
        // The batched SoA arena kernel on the same candidate set: assign
        // once, integrate many times through reused scratch — the engine's
        // per-leaf usage pattern.
        group.bench_with_input(
            BenchmarkId::new("arena", candidates),
            &objects,
            |b, objects| {
                let mut arena = KernelArena::new();
                arena.assign(objects.iter());
                let mut scratch = QuadratureScratch::default();
                b.iter(|| {
                    std::hint::black_box(arena.qualification_probabilities(
                        Point::new(0.0, 0.0),
                        100,
                        &mut scratch,
                    ))
                })
            },
        );
    }
    group.finish();
}

fn bench_fused_screen(c: &mut Criterion) {
    let mut group = c.benchmark_group("fused_screen");
    for &entries in &[32usize, 256] {
        let objects: Vec<UncertainObject> = (0..entries as u32)
            .map(|k| {
                UncertainObject::with_uniform(
                    k,
                    Point::new((k as f64 * 37.0) % 1_000.0, (k as f64 * 91.0) % 1_000.0),
                    5.0 + (k % 7) as f64,
                )
            })
            .collect();
        let leaf: Vec<ObjectEntry> = objects.iter().map(|o| ObjectEntry::new(o, 0)).collect();
        group.bench_with_input(BenchmarkId::from_parameter(entries), &leaf, |b, leaf| {
            let mut arena = EntryArena::default();
            arena.assign(leaf);
            let mut scratch = ScreenScratch::default();
            let mut candidates = Vec::new();
            b.iter(|| {
                std::hint::black_box(arena.screen(
                    Point::new(500.0, 500.0),
                    &mut scratch,
                    &mut candidates,
                ))
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_region_clip, bench_seeded_region, bench_containment, bench_convex_hull,
        bench_check_overlap, bench_probability, bench_fused_screen
}
criterion_main!(benches);
