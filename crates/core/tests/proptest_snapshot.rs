//! Property-based tests of the snapshot subsystem (ISSUE 4):
//!
//! * **Round-trip**: `build → save → load → {pnn_batch, apply(UpdateBatch)}`
//!   equals the never-persisted system — leaf structure, member lists,
//!   epoch, `cell_area` and every PNN answer, bit-exact — across
//!   {IC, ICR} × {Uniform, GaussianSkew}; the update step ends with a
//!   domain-growing insert, so in-place growth and a post-growth snapshot
//!   round-trip are covered too.
//! * **Corruption**: truncated streams, flipped bytes and unsupported
//!   format versions surface as the right typed [`UvError`], never a panic.

use proptest::prelude::*;
use uv_core::{Method, UpdateBatch, UvConfig, UvError, UvSystem};
use uv_data::{Dataset, GeneratorConfig, UncertainObject};
use uv_geom::Point;

/// The dynamic-serving tuning of the update proptests: local sensitivity
/// bounds and enough leaves for splits/merges (see `proptest_update.rs`).
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
/// oracle): bit-exact region corners plus id-sorted member lists.
fn canonical_leaves(sys: &UvSystem) -> Vec<uv_core::index::CanonicalLeaf> {
    sys.index().canonical_leaves()
}

fn snapshot_bytes(sys: &UvSystem) -> Vec<u8> {
    let mut bytes = Vec::new();
    sys.save_snapshot(&mut bytes).expect("save must succeed");
    bytes
}

type RawOp = (u8, u16, f64, f64);

/// One update batch from raw ops: inserts get fresh ids from `next_id`,
/// deletes and moves pick live targets, each at most once.
fn batch_of(sys: &UvSystem, ops: &[RawOp], next_id: &mut u32) -> UpdateBatch {
    let mut batch = UpdateBatch::new();
    let live: Vec<u32> = sys.objects().iter().map(|o| o.id).collect();
    let mut used: Vec<u32> = Vec::new();
    for &(op, pick, x, y) in ops {
        let target = live[pick as usize % live.len()];
        match op % 3 {
            0 => {
                batch = batch.insert(UncertainObject::with_gaussian(
                    *next_id,
                    Point::new(x, y),
                    20.0,
                ));
                *next_id += 1;
            }
            1 if !used.contains(&target) => {
                batch = batch.delete(target);
                used.push(target);
            }
            _ if !used.contains(&target) => {
                batch = batch.move_to(target, Point::new(x, y));
                used.push(target);
            }
            _ => {}
        }
    }
    batch
}

/// The raw bytes of each page store — pages and free set — of `sys`.
fn page_stores(sys: &UvSystem) -> [Vec<u8>; 3] {
    use uv_store::codec::to_bytes;
    [
        to_bytes(&**sys.index().store()),
        to_bytes(&**sys.object_store().store()),
        to_bytes(&**sys.rtree().store()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 3, ..ProptestConfig::default() })]

    /// The tentpole oracle: a loaded system is indistinguishable from the
    /// saved one — structurally and behaviourally, through queries *and*
    /// through a subsequent update batch, after which both hold
    /// byte-identical page stores, free sets included. The system churns
    /// through up to three batches before the save, so the snapshot carries
    /// freed pages.
    #[test]
    fn save_load_roundtrip_is_bit_identical(
        case in (60..110usize, 0..2u8, 0..2u8, 900.0..2_500.0f64, 0..10_000u64),
        ops in prop::collection::vec(
            (0..3u8, 0..u16::MAX, 50.0..9_950.0f64, 50.0..9_950.0f64),
            6..14,
        ),
        churn in prop::collection::vec(
            prop::collection::vec(
                (0..3u8, 0..u16::MAX, 50.0..9_950.0f64, 50.0..9_950.0f64),
                6..14,
            ),
            0..4,
        ),
    ) {
        let (n, method_pick, kind_pick, sigma, seed) = case;
        let mut sys = build_case(n, method_pick, kind_pick, sigma, seed);
        let mut next_id = 500_000u32;
        for batch in &churn {
            let batch = batch_of(&sys, batch, &mut next_id);
            sys.apply(batch).unwrap();
        }

        let bytes = snapshot_bytes(&sys);
        let mut loaded = UvSystem::load_snapshot(&mut bytes.as_slice()).unwrap();

        prop_assert_eq!(loaded.epoch(), sys.epoch());
        prop_assert_eq!(canonical_leaves(&loaded), canonical_leaves(&sys));
        for o in sys.objects() {
            prop_assert_eq!(
                loaded.cell_area(o.id).to_bits(),
                sys.cell_area(o.id).to_bits()
            );
        }
        let queries = Dataset::generate(GeneratorConfig::paper_uniform(10))
            .query_points(20, seed ^ 0x54AA);
        let a = sys.pnn_batch(&queries);
        let b = loaded.pnn_batch(&queries);
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(&x.probabilities, &y.probabilities);
            prop_assert_eq!(x.candidates_examined, y.candidates_examined);
        }

        // The same update batch applied to both systems converges to the
        // same state: persistence must not disturb dynamic maintenance.
        let batch = batch_of(&sys, &ops, &mut next_id);
        let sa = sys.apply(batch.clone()).unwrap();
        let sb = loaded.apply(batch).unwrap();
        prop_assert_eq!(sa.objects_rederived, sb.objects_rederived);
        prop_assert_eq!(sa.objects_in_knn_radius, sb.objects_in_knn_radius);
        prop_assert_eq!(sa.leaves_refined, sb.leaves_refined);
        prop_assert_eq!(sa.epoch, sb.epoch);
        prop_assert_eq!(canonical_leaves(&loaded), canonical_leaves(&sys));
        prop_assert_eq!(loaded.epoch(), sys.epoch());
        // A loaded store allocates exactly as the saved one would have.
        prop_assert_eq!(page_stores(&loaded), page_stores(&sys));
        for q in &queries {
            let x = sys.pnn(*q);
            let y = loaded.pnn(*q);
            prop_assert_eq!(&x.probabilities, &y.probabilities);
            prop_assert_eq!(x.candidates_examined, y.candidates_examined);
        }

        // Growth step: an insert beyond the domain extends the grid in
        // place on both sides of the round-trip, the states stay equal, and
        // a post-growth system snapshots and reloads bit-identically.
        let epoch = sys.epoch();
        let far = sys.domain().max_x + 321.0;
        let grow = UpdateBatch::new().insert(UncertainObject::with_gaussian(
            900_000,
            Point::new(far, far),
            15.0,
        ));
        let ga = sys.apply(grow.clone()).unwrap();
        let gb = loaded.apply(grow).unwrap();
        prop_assert!(ga.domain_grown && gb.domain_grown);
        prop_assert!(ga.epoch == epoch + 1 && gb.epoch == epoch + 1);
        prop_assert_eq!(sys.domain(), loaded.domain());
        prop_assert_eq!(canonical_leaves(&loaded), canonical_leaves(&sys));
        let bytes = snapshot_bytes(&sys);
        let reloaded = UvSystem::load_snapshot(&mut bytes.as_slice()).unwrap();
        prop_assert_eq!(reloaded.epoch(), sys.epoch());
        prop_assert_eq!(reloaded.domain(), sys.domain());
        prop_assert_eq!(canonical_leaves(&reloaded), canonical_leaves(&sys));
    }

    /// Corruption never panics and always yields the right typed error:
    /// a flipped byte anywhere in the stream, or a truncation at any
    /// length, is reported as a snapshot error — and the specific header
    /// fields map to their specific variants.
    #[test]
    fn corruption_surfaces_as_typed_errors(
        seed in 0..10_000u64,
        flips in prop::collection::vec((0.0..1.0f64, 1..255u8), 12..20),
        cuts in prop::collection::vec(0.0..1.0f64, 6..10),
    ) {
        let sys = build_case(60, 0, 0, 1_000.0, seed);
        let bytes = snapshot_bytes(&sys);

        for (pos, mask) in flips {
            let at = ((pos * bytes.len() as f64) as usize).min(bytes.len() - 1);
            let mut bad = bytes.clone();
            bad[at] ^= mask;
            match UvSystem::load_snapshot(&mut bad.as_slice()) {
                Err(
                    UvError::SnapshotCorrupt(_)
                    | UvError::SnapshotVersionMismatch { .. }
                    | UvError::ConfigMismatch,
                ) => {}
                Err(other) => prop_assert!(false, "flip at {} gave {:?}", at, other),
                Ok(_) => prop_assert!(false, "flip at {} went undetected", at),
            }
        }

        for cut in cuts {
            let len = (cut * bytes.len() as f64) as usize;
            let err = UvSystem::load_snapshot(&mut &bytes[..len.min(bytes.len() - 1)])
                .unwrap_err();
            prop_assert!(
                matches!(err, UvError::SnapshotCorrupt(_)),
                "truncation to {} gave {:?}",
                len,
                err
            );
        }

        // The version field maps to its dedicated variant.
        let mut bad = bytes.clone();
        bad[8..12].copy_from_slice(&99u32.to_le_bytes());
        prop_assert_eq!(
            UvSystem::load_snapshot(&mut bad.as_slice()).unwrap_err(),
            UvError::SnapshotVersionMismatch {
                found: 99,
                supported: uv_core::snapshot::FORMAT_VERSION,
            }
        );
        // The config fingerprint maps to ConfigMismatch.
        let mut bad = bytes.clone();
        bad[15] ^= 0x40;
        prop_assert_eq!(
            UvSystem::load_snapshot(&mut bad.as_slice()).unwrap_err(),
            UvError::ConfigMismatch
        );
    }
}
