//! Golden digests of the two snapshot formats: one FNV-64 over every
//! section of an unsharded snapshot with a subscription table, and one over
//! every section of a sharded snapshot, each taken after churn.
//!
//! The constants pin the exact bytes both systems persist — object and
//! grid pages, free sets, grid nodes, reference tables, the shard layout
//! and the subscription table. A refactor of the serving or repair code
//! must leave both unchanged; a change that means to alter the format or
//! the repaired state must say so and update them.
//!
//! Construction statistics carry wall-clock durations, so before hashing
//! the five `Duration` fields of each persisted `ConstructionStats` are
//! zeroed, and the per-section checksums (which cover them) are skipped.

use uv_core::{Method, ShardedUvSystem, SubscriptionEngine, UpdateBatch, UvConfig, UvSystem};
use uv_data::{Dataset, GeneratorConfig, UncertainObject};
use uv_geom::Point;
use uv_store::codec::fnv64;

/// Encoded length of a `ConstructionStats`: the object count, five
/// durations, three ratios and three counts, eight bytes each.
const STATS_LEN: usize = 96;

/// Byte range of the five durations inside an encoded `ConstructionStats`.
const DURATIONS: std::ops::Range<usize> = 8..48;

/// Unsharded STATS section tag: its payload is one `ConstructionStats`.
const UNSHARDED_STATS: u8 = 11;

/// Sharded SHARD section tag: each payload ends with the shard's
/// `ConstructionStats`.
const SHARD: u8 = 3;

/// FNV-64 over the `header` bytes and every framed section's tag, length
/// and payload, with the durations of the `ConstructionStats` that ends
/// each `stats_tag` payload zeroed.
fn masked_digest(bytes: &[u8], header: usize, stats_tag: u8) -> u64 {
    let mut hashed = bytes[..header].to_vec();
    let mut rest = &bytes[header..];
    let mut sections = 0;
    while !rest.is_empty() {
        let (tag, len_bytes) = (rest[0], &rest[1..9]);
        let len = u64::from_le_bytes(len_bytes.try_into().expect("8 length bytes")) as usize;
        let mut payload = rest[9..9 + len].to_vec();
        if tag == stats_tag {
            let stats = len - STATS_LEN;
            payload[stats + DURATIONS.start..stats + DURATIONS.end].fill(0);
        }
        hashed.push(tag);
        hashed.extend_from_slice(len_bytes);
        hashed.extend_from_slice(&payload);
        rest = &rest[9 + len + 8..];
        sections += 1;
    }
    assert!(sections > 3, "the snapshot must hold framed sections");
    fnv64(&hashed)
}

fn config() -> UvConfig {
    UvConfig::default()
        .with_seed_knn(24)
        .with_leaf_split_capacity(16)
}

/// Churn batch `round`: two inserts at fresh ids, a delete and two moves.
fn churn(round: u32) -> UpdateBatch {
    let base = 10_000 + 10 * round;
    let f = f64::from(round);
    UpdateBatch::new()
        .insert(UncertainObject::with_gaussian(
            base,
            Point::new(1_200.0 + 900.0 * f, 6_400.0 - 700.0 * f),
            20.0,
        ))
        .insert(UncertainObject::with_uniform(
            base + 1,
            Point::new(8_100.0 - 500.0 * f, 2_300.0 + 400.0 * f),
            15.0,
        ))
        .delete(3 + 5 * round)
        .move_to(
            40 + round,
            Point::new(4_700.0 + 300.0 * f, 5_100.0 + 200.0 * f),
        )
        .move_to(
            90 + round,
            Point::new(2_900.0 - 250.0 * f, 7_800.0 - 150.0 * f),
        )
}

/// An insert past the domain's east edge, which grows the domain.
fn outside(domain: uv_geom::Rect, id: u32) -> UncertainObject {
    let at = Point::new(domain.max_x + 600.0, domain.min_y + 2_000.0);
    UncertainObject::with_uniform(id, at, 12.0)
}

/// An unsharded system serving 24 subscribed clients through three churn
/// batches and a domain growth, each followed by a refresh and a tick; its
/// snapshot with the table.
fn unsharded_snapshot() -> Vec<u8> {
    let ds = Dataset::generate(GeneratorConfig::paper_uniform(160));
    let mut system = UvSystem::build(ds.objects.clone(), ds.domain, Method::IC, config())
        .expect("the golden configuration validates");
    let mut subs = SubscriptionEngine::new(&system);
    for (id, q) in ds.query_points(24, 5).into_iter().enumerate() {
        subs.subscribe(id as u64, q).expect("fresh client id");
    }
    let mut table = subs.into_table();
    for round in 0..4 {
        let batch = match round {
            3 => UpdateBatch::new().insert(outside(ds.domain, 20_000)),
            _ => churn(round),
        };
        let stats = system.apply(batch).expect("valid churn batch");
        assert_eq!(stats.domain_grown, round == 3);
        let mut subs = SubscriptionEngine::with_table(&system, table);
        subs.refresh_after(&stats);
        let moves: Vec<(u64, Point)> = ds
            .query_points(24, 40 + u64::from(round))
            .into_iter()
            .enumerate()
            .map(|(id, q)| (id as u64, q))
            .collect();
        subs.tick(&moves);
        table = subs.into_table();
    }
    let mut bytes = Vec::new();
    system
        .save_snapshot_with_subscriptions(&mut bytes, &table)
        .expect("in-memory save");
    bytes
}

/// A 2×2 sharded system after two churn batches, a domain growth and a
/// split; its snapshot.
fn sharded_snapshot() -> Vec<u8> {
    let ds = Dataset::generate(GeneratorConfig::paper_uniform(160));
    let mut sharded = ShardedUvSystem::build(
        ds.objects.clone(),
        ds.domain,
        Method::IC,
        config().with_num_shards(2),
    )
    .expect("the golden configuration validates");
    for round in 0..2 {
        sharded.apply(churn(round)).expect("valid churn batch");
    }
    let grown = sharded
        .insert_object(outside(ds.domain, 20_000))
        .expect("valid insert");
    assert!(grown.domain_grown, "the insert must grow the domain");
    sharded.apply(churn(2)).expect("valid churn batch");
    sharded.split_shard(1).expect("the shard splits");
    let mut bytes = Vec::new();
    sharded.save_snapshot(&mut bytes).expect("in-memory save");
    bytes
}

/// Pinned digests. Recompute only for a change that means to alter the
/// persisted bytes, and say so.
const UNSHARDED_DIGEST: u64 = 0xda92_4266_f943_b630;
const SHARDED_DIGEST: u64 = 0xc1f1_67d6_90a2_ccc7;

#[test]
fn snapshot_bytes_match_the_golden_digests() {
    // Unsharded header: magic, version and config fingerprint; sharded:
    // magic and version.
    let unsharded = masked_digest(&unsharded_snapshot(), 20, UNSHARDED_STATS);
    let sharded = masked_digest(&sharded_snapshot(), 12, SHARD);
    assert_eq!(
        (unsharded, sharded),
        (UNSHARDED_DIGEST, SHARDED_DIGEST),
        "snapshot digests moved: {unsharded:#018x}, {sharded:#018x}"
    );
}
