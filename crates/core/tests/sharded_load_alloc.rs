//! Allocation bound of the sharded snapshot loader: a small snapshot whose
//! META section claims the largest shard grid must fail with a typed error
//! without the loader reserving memory for shards it has not read.
//!
//! A counting global allocator records the largest single allocation made
//! while loading, so this test lives in its own binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use uv_core::{Method, ShardedUvSystem, UvConfig, UvError};
use uv_data::{Dataset, GeneratorConfig};
use uv_store::codec::{write_section, Encode};

/// Forwards to the system allocator, remembering the largest request.
struct Counting;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The largest grid dimension META accepts per axis.
const SIDE: usize = 1_024;

/// Reads one framed section (`tag | len u64 | payload | section_checksum`)
/// off the front of `bytes`, returning its full frame.
fn take_frame<'a>(bytes: &mut &'a [u8]) -> &'a [u8] {
    let len = u64::from_le_bytes(bytes[1..9].try_into().expect("8 length bytes")) as usize;
    let (frame, rest) = bytes.split_at(9 + len + 8);
    *bytes = rest;
    frame
}

/// A 40-object 1×1 sharded snapshot whose META is rewritten to a
/// `SIDE × SIDE` grid with valid boundaries spanning the domain, and whose
/// shard sections are cut off.
fn crafted_snapshot() -> Vec<u8> {
    let ds = Dataset::generate(GeneratorConfig::paper_uniform(40));
    let config = UvConfig::default().with_seed_knn(24).with_num_shards(1);
    let sharded = ShardedUvSystem::build(ds.objects.clone(), ds.domain, Method::IC, config)
        .expect("the configuration validates");
    let mut saved = Vec::new();
    sharded.save_snapshot(&mut saved).expect("in-memory save");

    let (header, mut rest) = saved.split_at(12);
    take_frame(&mut rest); // the 1×1 META
    let router = take_frame(&mut rest);

    let domain = sharded.domain();
    let axis = |lo: f64, hi: f64| -> Vec<f64> {
        let mut bounds: Vec<f64> = (0..=SIDE)
            .map(|k| lo + (hi - lo) * k as f64 / SIDE as f64)
            .collect();
        bounds[SIDE] = hi;
        bounds
    };
    let mut meta = Vec::new();
    (SIDE as u64).write_to(&mut meta).expect("in-memory write");
    (SIDE as u64).write_to(&mut meta).expect("in-memory write");
    axis(domain.min_x, domain.max_x)
        .write_to(&mut meta)
        .expect("in-memory write");
    axis(domain.min_y, domain.max_y)
        .write_to(&mut meta)
        .expect("in-memory write");

    let mut crafted = header.to_vec();
    write_section(&mut crafted, 1, &meta).expect("in-memory write");
    crafted.extend_from_slice(router);
    crafted
}

#[test]
fn a_huge_meta_grid_without_shards_is_corrupt_and_allocates_little() {
    let crafted = crafted_snapshot();
    LARGEST.store(0, Ordering::Relaxed);
    let result = ShardedUvSystem::load_snapshot(&mut crafted.as_slice());
    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(
        matches!(result, Err(UvError::SnapshotCorrupt(_))),
        "a snapshot without its shard sections must be corrupt, got {:?}",
        result.map(|s| s.shard_count())
    );
    assert!(
        largest <= 1 << 20,
        "the loader made a {largest}-byte allocation for a {}-byte input",
        crafted.len()
    );
}
