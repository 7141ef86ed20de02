//! Live bytes only: page stores reclaim what updates rewrite, so a churned
//! system holds, and snapshots, about what a fresh build of its objects
//! would.
//!
//! * After every churn batch each page store spans at most its earlier
//!   page ids, or its live pages plus the pages that batch freed: a store
//!   appends a page only when no freed one is left to reuse. (A batch that
//!   shrinks a store, say by merging leaves, leaves free ids that hold no
//!   bytes until a later batch reuses them.)
//! * After every batch the object pages number at most the live records'
//!   pages plus the batch's op count.
//! * After the churn the snapshot is at most 1.25× the snapshot of a fresh
//!   build of the same objects and layout.
//! * Domain growth rebuilds every grid into the store it already had, so
//!   the store's read and write counters never step back.
//!
//! The churn inserts as many objects as it deletes, as every benchmark
//! workload does: a record never changes page unless its own op moves it,
//! so a stream of deletes alone leaves holes until inserts fill them.
//! No clock is read.

use std::sync::Arc;
use uv_core::{Method, ShardedUvSystem, UpdateBatch, UvConfig, UvSystem};
use uv_data::{Dataset, GeneratorConfig, ObjectId, UncertainObject};
use uv_geom::{Point, Rect};
use uv_store::{IoSnapshot, PageStore};

const OBJECTS: usize = 300;
const BATCHES: usize = 12;

fn config() -> UvConfig {
    UvConfig::default()
        .with_seed_knn(24)
        .with_leaf_split_capacity(16)
}

/// A deterministic batch of 4 moves, 2 deletes and 2 inserts inside the
/// domain.
fn churn_batch(objects: &[UncertainObject], step: u64, next_id: &mut ObjectId) -> UpdateBatch {
    let mut state = step.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut picked: Vec<usize> = Vec::new();
    while picked.len() < 6 {
        let k = (next() % objects.len() as u64) as usize;
        if !picked.contains(&k) {
            picked.push(k);
        }
    }
    let coord = |v: u64| 100.0 + (v % 9_800) as f64;
    let mut batch = UpdateBatch::new();
    for &k in &picked[..4] {
        let c = objects[k].center();
        let dx = (next() % 200) as f64 - 100.0;
        let dy = (next() % 200) as f64 - 100.0;
        let to = Point::new(
            (c.x + dx).clamp(100.0, 9_900.0),
            (c.y + dy).clamp(100.0, 9_900.0),
        );
        batch = batch.move_to(objects[k].id, to);
    }
    for &k in &picked[4..] {
        batch = batch.delete(objects[k].id);
    }
    for _ in 0..2 {
        let at = Point::new(coord(next()), coord(next()));
        batch = batch.insert(UncertainObject::with_gaussian(*next_id, at, 20.0));
        *next_id += 1;
    }
    batch
}

/// The three page stores of a serving system, by role.
fn stores(sys: &UvSystem) -> [(&'static str, &Arc<PageStore>); 3] {
    [
        ("index", sys.index().store()),
        ("object", sys.object_store().store()),
        ("rtree", sys.rtree().store()),
    ]
}

/// Page ids spanned by `store`: its live pages plus its free ones.
fn span(store: &PageStore) -> usize {
    store.num_pages() + store.free_pages()
}

/// Each store's span and counters ahead of a batch.
fn ahead(sys: &UvSystem) -> Vec<(usize, IoSnapshot)> {
    stores(sys).iter().map(|(_, s)| (span(s), s.io())).collect()
}

/// Each store of `sys` spans at most its span before the batch or its live
/// pages plus the pages the batch freed, and its object pages number at
/// most the live records' pages plus `ops`.
fn assert_live_pages_plus_one_batch(
    sys: &UvSystem,
    before: &[(usize, IoSnapshot)],
    ops: usize,
    what: &str,
) {
    for ((role, store), (span_before, io)) in stores(sys).iter().zip(before) {
        let freed = store.io().since(*io).frees as usize;
        let bound = (*span_before).max(store.num_pages() + freed);
        assert!(
            span(store) <= bound,
            "{what}: the {role} store spans {} pages ({} live) after freeing {freed}, \
             {span_before} before",
            span(store),
            store.num_pages()
        );
    }
    let objects = sys.object_store();
    let live_pages = objects.len().div_ceil(objects.objects_per_page());
    assert!(
        objects.store().num_pages() <= live_pages + ops,
        "{what}: {} object pages for {} live records ({live_pages} pages) after {ops} ops",
        objects.store().num_pages(),
        objects.len()
    );
}

fn snapshot_len(save: impl FnOnce(&mut Vec<u8>) -> u64) -> u64 {
    let mut bytes = Vec::new();
    let written = save(&mut bytes);
    assert_eq!(written, bytes.len() as u64);
    written
}

fn dataset() -> Dataset {
    Dataset::generate(GeneratorConfig::paper_uniform(OBJECTS).with_seed(17))
}

#[test]
fn a_churned_system_holds_and_snapshots_its_live_bytes_only() {
    let ds = dataset();
    let mut sys = UvSystem::build(ds.objects.clone(), ds.domain, Method::IC, config()).unwrap();
    let mut next_id = 100_000;
    for step in 0..BATCHES as u64 {
        let batch = churn_batch(sys.objects(), step, &mut next_id);
        let ops = batch.len();
        let before = ahead(&sys);
        sys.apply(batch).unwrap();
        assert_live_pages_plus_one_batch(&sys, &before, ops, &format!("batch {step}"));
    }
    let fresh =
        UvSystem::build(sys.objects().to_vec(), sys.domain(), Method::IC, config()).unwrap();
    assert_eq!(
        fresh.index().canonical_leaves(),
        sys.index().canonical_leaves()
    );
    let churned = snapshot_len(|w| sys.save_snapshot(w).unwrap());
    let cold = snapshot_len(|w| fresh.save_snapshot(w).unwrap());
    assert!(
        churned * 4 <= cold * 5,
        "the churned snapshot is {churned} bytes, a fresh build's {cold}"
    );
}

#[test]
fn churned_shards_hold_and_snapshot_their_live_bytes_only() {
    let ds = dataset();
    let config = config().with_num_shards(2);
    let mut sharded =
        ShardedUvSystem::build(ds.objects.clone(), ds.domain, Method::IC, config).unwrap();
    let mut next_id = 100_000;
    for step in 0..BATCHES as u64 {
        let batch = churn_batch(sharded.objects(), step, &mut next_id);
        let before: Vec<_> = (0..sharded.shard_count())
            .map(|s| ahead(sharded.shard(s)))
            .collect();
        let stats = sharded.apply(batch).unwrap();
        for (s, before) in before.iter().enumerate() {
            let shard = sharded.shard(s);
            assert!(shard.rtree().is_empty(), "shard {s} holds an R-tree");
            let st = &stats.per_shard[s];
            let ops = st.inserted + st.deleted + st.moved;
            let what = format!("batch {step}, shard {s}");
            assert_live_pages_plus_one_batch(shard, before, ops, &what);
        }
    }
    let fresh = ShardedUvSystem::build(
        sharded.objects().to_vec(),
        sharded.domain(),
        Method::IC,
        config,
    )
    .unwrap();
    assert_eq!(fresh.shard_rects(), sharded.shard_rects());
    let churned = snapshot_len(|w| sharded.save_snapshot(w).unwrap());
    let cold = snapshot_len(|w| fresh.save_snapshot(w).unwrap());
    assert!(
        churned * 4 <= cold * 5,
        "the churned snapshot is {churned} bytes, a fresh build's {cold}"
    );
}

/// Every store of `sys` is the same `Arc` as in `before`, and none of its
/// read or write counters went back.
fn assert_same_stores_monotone(
    before: &[(Arc<PageStore>, IoSnapshot)],
    sys: &UvSystem,
    what: &str,
) {
    for ((role, store), (old, io)) in stores(sys).iter().zip(before) {
        assert!(
            Arc::ptr_eq(store, old),
            "{what}: the {role} store was swapped"
        );
        let now = store.io();
        assert!(
            now.reads >= io.reads && now.writes >= io.writes,
            "{what}: the {role} store's counters went back from {io:?} to {now:?}"
        );
    }
}

fn store_handles(sys: &UvSystem) -> Vec<(Arc<PageStore>, IoSnapshot)> {
    stores(sys)
        .iter()
        .map(|(_, s)| (Arc::clone(s), s.io()))
        .collect()
}

/// An insert past the north-east corner of `domain`.
fn beyond(domain: Rect) -> UpdateBatch {
    UpdateBatch::new().insert(UncertainObject::with_uniform(
        900_000,
        Point::new(domain.max_x + 400.0, domain.max_y + 400.0),
        10.0,
    ))
}

#[test]
fn domain_growth_rebuilds_every_grid_into_the_store_it_had() {
    let ds = Dataset::generate(GeneratorConfig::paper_uniform(200));
    let queries = ds.query_points(50, 3);

    let mut sys = UvSystem::build(ds.objects.clone(), ds.domain, Method::IC, config()).unwrap();
    sys.pnn_batch(&queries);
    let before = store_handles(&sys);
    assert!(before[0].1.reads > 0, "the queries read index pages");
    let stats = sys.apply(beyond(ds.domain)).unwrap();
    assert!(stats.domain_grown);
    assert_same_stores_monotone(&before, &sys, "unsharded");

    let config = config().with_num_shards(2);
    let mut sharded =
        ShardedUvSystem::build(ds.objects.clone(), ds.domain, Method::IC, config).unwrap();
    sharded.pnn_batch(&queries);
    let before: Vec<_> = (0..sharded.shard_count())
        .map(|s| store_handles(sharded.shard(s)))
        .collect();
    let stats = sharded.apply(beyond(ds.domain)).unwrap();
    assert!(stats.domain_grown);
    for (s, before) in before.iter().enumerate() {
        assert_same_stores_monotone(before, sharded.shard(s), &format!("shard {s}"));
    }
}
