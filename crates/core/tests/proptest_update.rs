//! Property-based tests of the dynamic maintenance subsystem: for random
//! update sequences (inserts, deletes, moves — applied in batches) across
//! {IC, ICR} × {Uniform, GaussianSkew}, the incrementally maintained system
//! must be *bit-identical* to a cold full rebuild over the same object set —
//! grid structure, leaf member lists, PNN probabilities, candidate counts —
//! and the query engine's leaf cache must never serve a pre-update epoch.

use proptest::prelude::*;
use uv_core::{Method, UpdateBatch, UvConfig, UvSystem};
use uv_data::{Dataset, GeneratorConfig, QueryBreakdown, UncertainObject};
use uv_geom::Point;

/// A configuration that keeps sensitivity bounds *local* at test-sized
/// datasets (the paper's `k = 300` exceeds every test cardinality, which
/// would make every object affected by every change and bypass the
/// affected-set logic entirely) and produces enough leaves for splits and
/// merges to actually happen.
fn test_config() -> UvConfig {
    UvConfig::default()
        .with_seed_knn(24)
        .with_leaf_split_capacity(16)
}

fn build_case(n: usize, method_pick: u8, kind_pick: u8, sigma: f64, seed: u64) -> UvSystem {
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
        test_config(),
    )
    .unwrap()
}

/// Canonical view of the grid (the shared `UvIndex::canonical_leaves`
/// oracle): every leaf's region (bit-exact) with its id-sorted member list,
/// ordered by region.
fn canonical_leaves(sys: &UvSystem) -> Vec<uv_core::index::CanonicalLeaf> {
    sys.index().canonical_leaves()
}

/// One raw op drawn by proptest: discriminant, target pick and a position.
type RawOp = (u8, u16, f64, f64);

/// Applies `raw_ops` in batches of `batch_size` ops, translating picks to
/// live ids (avoiding intra-batch collisions on deleted ids so every batch
/// validates). Returns the number of applied operations.
fn churn(sys: &mut UvSystem, raw_ops: &[RawOp], batch_size: usize, mut next_id: u32) -> usize {
    let mut applied = 0usize;
    for chunk in raw_ops.chunks(batch_size.max(1)) {
        let mut live: Vec<u32> = sys.objects().iter().map(|o| o.id).collect();
        let mut batch = UpdateBatch::new();
        for (op_pick, id_pick, x, y) in chunk {
            let target = live.get(*id_pick as usize % live.len().max(1)).copied();
            match op_pick % 3 {
                0 => {
                    batch = batch.insert(UncertainObject::with_gaussian(
                        next_id,
                        Point::new(*x, *y),
                        20.0,
                    ));
                    next_id += 1;
                    applied += 1;
                }
                1 if live.len() > 10 => {
                    let target = target.expect("live set is non-empty");
                    batch = batch.delete(target);
                    live.retain(|id| *id != target);
                    applied += 1;
                }
                _ => {
                    let Some(target) = target else { continue };
                    batch = batch.move_to(target, Point::new(*x, *y));
                    applied += 1;
                }
            }
        }
        sys.apply(batch)
            .expect("collision-free batch must validate");
    }
    applied
}

fn op_strategy() -> impl Strategy<Value = Vec<RawOp>> {
    // Positions keep a margin so the 20-unit radius stays inside the domain
    // (sequences biased to *leave* the domain — staircase growth, budget
    // overflow — live in `proptest_adversarial.rs`; here we exercise the
    // steady-state localized-repair path).
    prop::collection::vec(
        (0..3u8, 0..u16::MAX, 50.0..9_950.0f64, 50.0..9_950.0f64),
        50..70,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    /// The tentpole oracle: after >= 50 random mixed update operations the
    /// maintained system equals a cold rebuild of its final object set —
    /// structurally (leaf regions and member lists, bit-exact) and on every
    /// PNN answer (probabilities and candidate counts, bit-exact), through
    /// both the sequential path and the batched engine; and the fresh
    /// engine's leaf cache carries the post-update epoch.
    #[test]
    fn random_update_sequences_match_cold_rebuild(
        case in (60..110usize, 0..2u8, 0..2u8, 900.0..2_500.0f64, 0..10_000u64),
        raw_ops in op_strategy(),
        batch_size in 1..8usize,
    ) {
        let (n, method_pick, kind_pick, sigma, seed) = case;
        let mut sys = build_case(n, method_pick, kind_pick, sigma, seed);
        let applied = churn(&mut sys, &raw_ops, batch_size, 100_000);
        prop_assert!(applied >= 50, "sequence must mix at least 50 ops");
        prop_assert!(sys.epoch() > 0, "churn must bump the epoch");

        let rebuilt = UvSystem::build(
            sys.objects().to_vec(),
            sys.domain(),
            sys.method(),
            *sys.config(),
        ).unwrap();
        prop_assert_eq!(canonical_leaves(&sys), canonical_leaves(&rebuilt));

        let queries = Dataset::generate(GeneratorConfig::paper_uniform(10))
            .query_points(24, seed ^ 0xd15c);
        let maintained_batch = sys.pnn_batch(&queries);
        for (q, batched) in queries.iter().zip(&maintained_batch) {
            let a = sys.pnn(*q);
            let b = rebuilt.pnn(*q);
            prop_assert_eq!(&a.probabilities, &b.probabilities);
            prop_assert_eq!(a.candidates_examined, b.candidates_examined);
            // The engine path over the maintained index agrees bit-exactly
            // with the rebuilt sequential path too.
            prop_assert_eq!(&batched.probabilities, &b.probabilities);
            prop_assert_eq!(batched.candidates_examined, b.candidates_examined);
        }

        // The leaf cache of any engine created now is tagged with the
        // current epoch — a cache from before any update (epoch 0) is
        // unreachable by construction, and the engine bypasses caches whose
        // epoch mismatches the index.
        let engine = sys.engine();
        prop_assert_eq!(engine.cache_epoch(), Some(sys.epoch()));
        prop_assert!(sys.epoch() > 0);
    }

    /// Satellite: delete-then-reinsert of the same object is a perfect
    /// round-trip — PNN answers (sequential and batched engine path) and the
    /// object's `cell_area` are bit-identical to the untouched system.
    #[test]
    fn delete_then_reinsert_is_bit_identical(
        case in (60..110usize, 0..2u8, 0..2u8, 900.0..2_500.0f64, 0..10_000u64),
        victim_pick in 0..60usize,
    ) {
        let (n, method_pick, kind_pick, sigma, seed) = case;
        let mut sys = build_case(n, method_pick, kind_pick, sigma, seed);
        let victim = sys.objects()[victim_pick % sys.objects().len()].clone();

        let queries = Dataset::generate(GeneratorConfig::paper_uniform(10))
            .query_points(20, seed ^ 0xbeef);
        let before_answers: Vec<_> = queries.iter().map(|q| sys.pnn(*q)).collect();
        let before_batch = sys.pnn_batch(&queries);
        let before_area = sys.cell_area(victim.id);
        let before_leaves = canonical_leaves(&sys);

        let del = sys.delete_object(victim.id).unwrap();
        prop_assert_eq!(del.deleted, 1);
        prop_assert!(sys.cell_area(victim.id) == 0.0);
        let ins = sys.insert_object(victim.clone()).unwrap();
        prop_assert_eq!(ins.inserted, 1);

        prop_assert_eq!(canonical_leaves(&sys), before_leaves);
        prop_assert_eq!(sys.cell_area(victim.id).to_bits(), before_area.to_bits());
        let after_batch = sys.pnn_batch(&queries);
        for ((q, before), (before_b, after_b)) in queries
            .iter()
            .zip(&before_answers)
            .zip(before_batch.iter().zip(&after_batch))
        {
            let after = sys.pnn(*q);
            prop_assert_eq!(&after.probabilities, &before.probabilities, "at {:?}", q);
            prop_assert_eq!(after.candidates_examined, before.candidates_examined);
            prop_assert_eq!(&after_b.probabilities, &before_b.probabilities);
        }
        prop_assert_eq!(sys.epoch(), 2);
    }

    /// Satellite: per-query I/O attribution stays exact on a churned system —
    /// summing every answer's breakdown reproduces the atomic store counters,
    /// rewritten, shrunk and recycled object pages included.
    #[test]
    fn io_attribution_stays_exact_after_churn(
        case in (60..110usize, 0..2u8, 0..2u8, 900.0..2_500.0f64, 0..10_000u64),
        raw_ops in prop::collection::vec(
            (0..3u8, 0..u16::MAX, 50.0..9_950.0f64, 50.0..9_950.0f64),
            20..30,
        ),
    ) {
        let (n, method_pick, kind_pick, sigma, seed) = case;
        let mut sys = build_case(n, method_pick, kind_pick, sigma, seed);
        let built = sys.object_store().store().io().writes;
        churn(&mut sys, &raw_ops, 4, 200_000);
        prop_assert!(sys.object_store().store().io().writes > built || sys.epoch() == 0);

        let queries = Dataset::generate(GeneratorConfig::paper_uniform(10))
            .query_points(32, seed ^ 0x10aa);
        for cache in [true, false] {
            let engine = sys.engine().with_workers(4).with_cache(cache);
            sys.index().store().reset_io();
            sys.object_store().store().reset_io();
            let answers = engine.pnn_batch(&queries);
            let total = QueryBreakdown::sum(answers.iter().map(|a| &a.breakdown));
            prop_assert_eq!(total.index_io, sys.index().store().io().reads);
            prop_assert_eq!(total.object_io, sys.object_store().store().io().reads);
        }
    }
}
