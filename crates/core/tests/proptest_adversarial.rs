//! Adversarial churn suite: op sequences *biased to provoke the retired
//! full-rebuild fallbacks* — staircase growth (repeated inserts just beyond
//! the current domain), hotspot mass-inserts that overflow the non-leaf
//! node budget, and interleaved deletes/moves — across
//! {IC, ICR} × {Uniform, GaussianSkew}.
//!
//! The invariant under attack: no batch falls back to a cold rebuild — every
//! effective batch advances the epoch exactly once, in place. Domain growth
//! extends the grid in place
//! (exponentially, so staircases amortize to `O(log)` growth events) and
//! budget overflow is repaired locally (unbounded split + a replay of the
//! cold build's preorder budget allocation). Throughout, the maintained
//! system must stay *bit-identical* to a cold rebuild over the same objects
//! at the same (grown) domain — leaf regions, member lists, PNN answers,
//! `cell_area` — and the epoch must advance exactly once per effective
//! batch so the query engine's per-leaf cache can never serve stale
//! entries.
//!
//! The vendored proptest shim honours `PROPTEST_CASES` globally: the CI PR
//! gate keeps the configured (small) count, a scheduled deep run dials it
//! up with one environment variable.

use proptest::prelude::*;
use uv_core::{Method, UpdateBatch, UvConfig, UvSystem};
use uv_data::{Dataset, GeneratorConfig, UncertainObject};
use uv_geom::Point;

/// Local sensitivity bounds + small leaves (the `proptest_update.rs`
/// tuning), with an optionally *tiny* non-leaf budget so the budget-replay
/// path runs under pressure on every batch.
fn test_config(budget_pick: u8) -> UvConfig {
    let config = UvConfig::default()
        .with_seed_knn(24)
        .with_leaf_split_capacity(16);
    match budget_pick {
        0 => config,
        _ => config.with_max_nonleaf(12),
    }
}

fn build_case(
    n: usize,
    method_pick: u8,
    kind_pick: u8,
    sigma: f64,
    seed: u64,
    budget_pick: u8,
) -> UvSystem {
    let method = if method_pick == 0 {
        Method::IC
    } else {
        Method::ICR
    };
    let generator = if kind_pick == 0 {
        GeneratorConfig::paper_uniform(n)
    } else {
        GeneratorConfig::paper_skewed(n, sigma)
    }
    .with_seed(seed);
    let dataset = Dataset::generate(generator);
    UvSystem::build(
        dataset.objects.clone(),
        dataset.domain,
        method,
        test_config(budget_pick),
    )
    .unwrap()
}

fn canonical_leaves(sys: &UvSystem) -> Vec<uv_core::index::CanonicalLeaf> {
    sys.index().canonical_leaves()
}

/// One raw adversarial op: discriminant, target pick and two unit-interval
/// fractions resolved against the *current* domain at application time (the
/// domain grows mid-sequence, so absolute positions would stop provoking).
type RawOp = (u8, u16, f64, f64);

/// Outcome counters of one adversarial churn run.
struct ChurnOutcome {
    applied: usize,
    batches: usize,
    growths: usize,
}

/// Applies `raw_ops` in batches, translating each op against the live id
/// set and current domain. Asserts per batch that the epoch advances
/// exactly once per batch with a net effect.
fn churn(
    sys: &mut UvSystem,
    raw_ops: &[RawOp],
    batch_size: usize,
    mut next_id: u32,
) -> ChurnOutcome {
    let mut out = ChurnOutcome {
        applied: 0,
        batches: 0,
        growths: 0,
    };
    for chunk in raw_ops.chunks(batch_size.max(1)) {
        let domain = sys.domain();
        let w = domain.width();
        let h = domain.height();
        let live: Vec<u32> = sys.objects().iter().map(|o| o.id).collect();
        let mut batch = UpdateBatch::new();
        let mut used: Vec<u32> = Vec::new();
        let mut ops_in_batch = 0usize;
        for (op_pick, id_pick, fx, fy) in chunk {
            let target = live
                .get(*id_pick as usize % live.len().max(1))
                .copied()
                .filter(|id| !used.contains(id));
            match op_pick {
                0 => {
                    // Staircase growth: just beyond the NE corner, at an
                    // offset proportional to the current domain so the
                    // provocation survives every expansion.
                    batch = batch.insert(UncertainObject::with_gaussian(
                        next_id,
                        Point::new(
                            domain.max_x + 25.0 + fx * 0.05 * w,
                            domain.max_y + 25.0 + fy * 0.05 * h,
                        ),
                        10.0,
                    ));
                    next_id += 1;
                    ops_in_batch += 1;
                }
                1 => {
                    // Growth on the opposite (SW) flank.
                    batch = batch.insert(UncertainObject::with_gaussian(
                        next_id,
                        Point::new(domain.min_x - 25.0 - fx * 0.04 * w, domain.min_y + fy * h),
                        10.0,
                    ));
                    next_id += 1;
                    ops_in_batch += 1;
                }
                2 | 3 => {
                    // Hotspot mass-insert: a narrow box in one quadrant, so
                    // leaves there overflow their split capacity and press
                    // against the non-leaf budget.
                    batch = batch.insert(UncertainObject::with_gaussian(
                        next_id,
                        Point::new(
                            domain.min_x + (0.72 + fx * 0.06) * w,
                            domain.min_y + (0.72 + fy * 0.06) * h,
                        ),
                        8.0,
                    ));
                    next_id += 1;
                    ops_in_batch += 1;
                }
                4 if live.len() > used.len() + 10 => {
                    if let Some(target) = target {
                        batch = batch.delete(target);
                        used.push(target);
                        ops_in_batch += 1;
                    }
                }
                _ => {
                    if let Some(target) = target {
                        // Move into the hotspot: churns the overflowing
                        // subtree from the other direction.
                        batch = batch.move_to(
                            target,
                            Point::new(
                                domain.min_x + (0.70 + fx * 0.10) * w,
                                domain.min_y + (0.70 + fy * 0.10) * h,
                            ),
                        );
                        used.push(target);
                        ops_in_batch += 1;
                    }
                }
            }
        }
        let epoch_before = sys.epoch();
        let stats = sys.apply(batch).expect("adversarial batch must validate");
        if ops_in_batch > 0 {
            assert_eq!(
                sys.epoch(),
                epoch_before + 1,
                "the epoch must advance exactly once per effective batch"
            );
        }
        out.applied += ops_in_batch;
        out.batches += 1;
        out.growths += usize::from(stats.domain_grown);
    }
    out
}

/// The non-negotiable oracle: bit-identical to a cold rebuild of the final
/// object set at the final (grown) domain — leaves and member lists,
/// per-object `cell_area` bits, and PNN answers through both the sequential
/// path and the batched engine.
fn assert_matches_cold_rebuild(sys: &UvSystem, query_seed: u64) {
    let rebuilt = UvSystem::build(
        sys.objects().to_vec(),
        sys.domain(),
        sys.method(),
        *sys.config(),
    )
    .unwrap();
    assert_eq!(
        canonical_leaves(sys),
        canonical_leaves(&rebuilt),
        "maintained grid diverged from a cold rebuild"
    );
    for o in sys.objects().iter().step_by(7) {
        assert_eq!(
            sys.cell_area(o.id).to_bits(),
            rebuilt.cell_area(o.id).to_bits(),
            "cell_area diverged for {}",
            o.id
        );
    }
    // Queries over the *grown* domain, rim included.
    let domain = sys.domain();
    let queries: Vec<Point> = Dataset::generate(GeneratorConfig::paper_uniform(10))
        .query_points(24, query_seed)
        .into_iter()
        .map(|q| {
            Point::new(
                domain.min_x + (q.x / 10_000.0) * domain.width(),
                domain.min_y + (q.y / 10_000.0) * domain.height(),
            )
        })
        .collect();
    let batched = sys.pnn_batch(&queries);
    for (q, batched) in queries.iter().zip(&batched) {
        let a = sys.pnn(*q);
        let b = rebuilt.pnn(*q);
        assert_eq!(a.probabilities, b.probabilities, "answers differ at {q:?}");
        assert_eq!(a.candidates_examined, b.candidates_examined);
        assert_eq!(batched.probabilities, b.probabilities);
        assert_eq!(batched.candidates_examined, b.candidates_examined);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 3, ..ProptestConfig::default() })]

    /// The tentpole property: ≥50 adversarial ops — staircase growth on two
    /// flanks, hotspot mass-inserts, interleaved deletes/moves — across
    /// {IC, ICR} × {Uniform, GaussianSkew} × {default budget, tiny budget},
    /// with one in-place epoch step per effective batch, at least one
    /// in-place domain growth, and the final state bit-identical to a cold
    /// rebuild.
    #[test]
    fn adversarial_sequences_never_full_rebuild(
        case in (50..80usize, 0..2u8, 0..2u8, 900.0..2_500.0f64, 0..10_000u64, 0..2u8),
        raw_ops in prop::collection::vec(
            (0..6u8, 0..u16::MAX, 0.0..1.0f64, 0.0..1.0f64),
            52..62,
        ),
        batch_size in 3..9usize,
    ) {
        let (n, method_pick, kind_pick, sigma, seed, budget_pick) = case;
        let mut sys = build_case(n, method_pick, kind_pick, sigma, seed, budget_pick);
        let out = churn(&mut sys, &raw_ops, batch_size, 100_000);
        prop_assert!(out.applied >= 50, "sequence must mix at least 50 ops");
        prop_assert!(out.growths >= 1, "the biased sequence must grow the domain");
        prop_assert_eq!(sys.engine().cache_epoch(), Some(sys.epoch()));
        assert_matches_cold_rebuild(&sys, seed ^ 0xadf5);
    }
}

// ---------------------------------------------------------------------------
// Deterministic regression corpus: the fixed sequences that exercised the
// two retired fallback paths (extracted from the former unit tests
// `domain_growth_triggers_full_rebuild` and
// `budget_bound_index_falls_back_to_full_rebuild`, polarity flipped), plus
// the staircase-amortization and epoch-coherence guards. These run at full
// strength even when `PROPTEST_CASES` is dialed down.
// ---------------------------------------------------------------------------

fn fixed_system(n: usize, config: UvConfig) -> (Dataset, UvSystem) {
    let ds = Dataset::generate(GeneratorConfig::paper_uniform(n));
    let sys = UvSystem::build(ds.objects.clone(), ds.domain, Method::IC, config).unwrap();
    (ds, sys)
}

/// The former domain-growth fallback sequence: one insert beyond the NE
/// corner. Now it must grow in place — no rebuild, one epoch bump, and the
/// cold-rebuild oracle at the grown domain.
#[test]
fn growth_corpus_insert_beyond_the_corner() {
    let (ds, mut sys) = fixed_system(80, test_config(0));
    let outside = UncertainObject::with_uniform(
        800,
        Point::new(ds.domain.max_x + 500.0, ds.domain.max_y + 500.0),
        10.0,
    );
    let stats = sys.insert_object(outside).unwrap();
    assert!(stats.domain_grown);
    assert_eq!(stats.epoch, 1);
    assert_eq!(sys.epoch(), 1);
    assert!(sys.domain().max_x >= ds.domain.max_x + 510.0);
    assert_matches_cold_rebuild(&sys, 0x9e3779b9);
}

/// A 6-step staircase marching east: exponential expansion must absorb the
/// whole staircase in a single growth event.
#[test]
fn growth_corpus_staircase_amortizes() {
    let (ds, mut sys) = fixed_system(80, test_config(0));
    let mut growths = 0usize;
    for k in 1..=6u32 {
        let stats = sys
            .insert_object(UncertainObject::with_uniform(
                800 + k,
                Point::new(ds.domain.max_x + f64::from(k) * 60.0, 4_800.0),
                5.0,
            ))
            .unwrap();
        assert_eq!(stats.epoch, u64::from(k));
        growths += usize::from(stats.domain_grown);
    }
    assert_eq!(growths, 1, "one doubling must swallow the staircase");
    assert_matches_cold_rebuild(&sys, 0x51caffe);
}

/// The former budget-bound fallback sequence: a `max_nonleaf = 1` system
/// where any local split decision is order-dependent. The updater now
/// repairs unbounded and replays the preorder budget instead of rebuilding.
#[test]
fn budget_corpus_tiny_budget_move() {
    let (_, mut sys) = fixed_system(
        400,
        UvConfig::default()
            .with_max_nonleaf(1)
            .with_leaf_split_capacity(16),
    );
    assert!(sys.index().num_nonleaf_nodes() <= 1);
    let stats = sys.move_object(0, Point::new(5_001.0, 5_002.0)).unwrap();
    assert_eq!(stats.epoch, 1);
    assert!(!stats.domain_grown);
    assert_matches_cold_rebuild(&sys, 0xb0d6e7);
}

/// Budget pressure from mass-insertion: a hotspot burst against a small
/// budget must deny splits exactly like the cold build would, batch after
/// batch, without ever rebuilding.
#[test]
fn budget_corpus_hotspot_mass_insert() {
    let (_, mut sys) = fixed_system(120, test_config(1));
    for wave in 0..4u32 {
        let mut batch = UpdateBatch::new();
        for i in 0..12u32 {
            let id = 10_000 + wave * 100 + i;
            batch = batch.insert(UncertainObject::with_gaussian(
                id,
                Point::new(
                    7_200.0 + f64::from(i % 4) * 90.0,
                    7_200.0 + f64::from(i / 4) * 90.0,
                ),
                8.0,
            ));
        }
        let stats = sys.apply(batch).unwrap();
        assert_eq!(stats.epoch, u64::from(wave) + 1);
    }
    assert_matches_cold_rebuild(&sys, 0xca11ab1e);
}

/// Epoch/cache coherence across an in-place domain extension: the epoch
/// bumps exactly once for the growth batch, a fresh engine is tagged with
/// the new epoch, and batched answers (the cached engine path) equal a
/// fresh cold-built system's answers — no stale per-leaf cache entry can
/// survive the growth.
#[test]
fn growth_preserves_query_cache_coherence() {
    let (ds, mut sys) = fixed_system(90, test_config(0));
    // Warm a batch through the engine path at epoch 0.
    let warm: Vec<Point> = ds.query_points(16, 5);
    let _ = sys.pnn_batch(&warm);

    let stats = sys
        .insert_object(UncertainObject::with_uniform(
            900,
            Point::new(ds.domain.max_x + 333.0, ds.domain.max_y + 111.0),
            12.0,
        ))
        .unwrap();
    assert!(stats.domain_grown);
    assert_eq!(sys.epoch(), 1);
    assert_eq!(sys.engine().cache_epoch(), Some(1));

    // A second, non-growing batch bumps exactly once more.
    let stats = sys.move_object(3, Point::new(4_100.0, 4_200.0)).unwrap();
    assert!(!stats.domain_grown);
    assert_eq!(sys.epoch(), 2);
    assert_eq!(sys.engine().cache_epoch(), Some(2));

    // Batched (cache-backed) answers equal a fresh build's everywhere,
    // including inside the annexed ring the old cache never indexed.
    let fresh = UvSystem::build(
        sys.objects().to_vec(),
        sys.domain(),
        sys.method(),
        *sys.config(),
    )
    .unwrap();
    let mut queries = warm;
    queries.push(Point::new(ds.domain.max_x + 300.0, ds.domain.max_y + 100.0));
    queries.push(Point::new(ds.domain.max_x + 5.0, 50.0));
    let cached = sys.pnn_batch(&queries);
    let oracle = fresh.pnn_batch(&queries);
    for ((q, a), b) in queries.iter().zip(&cached).zip(&oracle) {
        assert_eq!(a.probabilities, b.probabilities, "stale answer at {q:?}");
        assert_eq!(a.candidates_examined, b.candidates_examined);
    }
}

/// Growth is a pure function of (domain, violating rectangle): the same
/// sequence applied in one batch or op-by-op lands on the same domain, and
/// both match the cold rebuild (batching must not change the grown
/// geometry).
#[test]
fn growth_corpus_batching_invariance() {
    let objects: Vec<UncertainObject> = (1..=3u32)
        .map(|k| {
            UncertainObject::with_uniform(
                800 + k,
                Point::new(10_000.0 + f64::from(k) * 210.0, f64::from(k) * 900.0),
                6.0,
            )
        })
        .collect();
    let (_, mut one_batch) = fixed_system(70, test_config(0));
    let (_, mut op_by_op) = fixed_system(70, test_config(0));

    let mut batch = UpdateBatch::new();
    for o in &objects {
        batch = batch.insert(o.clone());
    }
    let stats = one_batch.apply(batch).unwrap();
    assert!(stats.domain_grown);
    assert_eq!(stats.epoch, 1);

    for (k, o) in objects.iter().enumerate() {
        let stats = op_by_op.insert_object(o.clone()).unwrap();
        assert_eq!(stats.epoch, k as u64 + 1);
    }
    assert_eq!(one_batch.domain(), op_by_op.domain());
    assert_eq!(canonical_leaves(&one_batch), canonical_leaves(&op_by_op));
    assert_matches_cold_rebuild(&one_batch, 0x0ddba11);
}
