//! Snapshot persistence: save a whole [`UvSystem`] to a versioned binary
//! stream and load it back query-ready, with **zero re-derivation**.
//!
//! The UV-diagram's cost model is *build once, query many* (Sections IV–VI
//! of the paper): deriving reference sets and the adaptive grid is the
//! expensive part, PNN queries are cheap index probes. A deployment that
//! pays the construction cost on every process start throws that asymmetry
//! away — warm restarts, replicas and crash recovery all want the derived
//! state on disk. This module persists it:
//!
//! * the [`uv_data::ObjectStore`] pages and directory;
//! * the packed [`uv_rtree::RTree`] and its leaf pages (index-only entries,
//!   which carry the null record pointer);
//! * the [`UvIndex`] grid — nodes, member lists, epoch, free slots and the
//!   budget flag, plus its leaf page store;
//! * every page store's free set, so a loaded store reuses freed pages in
//!   the order the saved one would have;
//! * the per-object [`crate::update::ObjectState`] (reference ids and
//!   [`crate::UpdateSensitivity`]) that dynamic maintenance needs — the
//!   C-pruning d-bounds as bare hull vertices, their radii recomputed
//!   bit-identically from the persisted object centres on load (so snapshot
//!   size no longer grows by a redundant 8 bytes per hull vertex);
//! * the [`UvConfig`], method, domain, object set and construction stats.
//!
//! Runtime-only state — I/O counters, the query engine's per-leaf
//! `OnceLock` cache — is *not* persisted; counters restart at zero and
//! caches refill lazily, exactly as after a cold build.
//!
//! # Format
//!
//! Everything is little-endian, written through [`uv_store::codec`] (not the
//! vendored `serde` shim — the layout is an explicit stability contract):
//!
//! ```text
//! magic   b"UVDSNAP\0"                      8 bytes
//! version u32 (= FORMAT_VERSION)            4 bytes
//! config  u64 FNV-1a fingerprint            8 bytes
//! then, in fixed order, framed sections     tag u8 | len u64 | payload | checksum u64
//!   1 CONFIG   2 META      3 OBJECTS   4 OBJECT_PAGES  5 OBJECT_STORE
//!   6 RTREE_PAGES  7 RTREE  8 INDEX_PAGES  9 INDEX  10 REF_TABLE  11 STATS
//!   12 SUBSCRIPTIONS
//! ```
//!
//! The header fingerprint is the byte-serial [`fnv64`] of the CONFIG
//! payload; each section's checksum is the word-wide
//! [`section_checksum`](uv_store::codec::section_checksum) of its payload.
//!
//! A page store persists as its page size, every page id's bytes in order
//! (a free page is empty) and then its free set. A page list, R-tree leaf
//! or object directory that names a free page, and a free set that names an
//! out-of-range or non-empty page, are corruption.
//!
//! Every malformation maps to a typed [`UvError`], never a panic: a wrong
//! magic, flipped byte, truncated stream or invariant-violating payload —
//! among them an object that a build rejects (a non-finite centre, a
//! negative radius, an invalid histogram) — is
//! [`UvError::SnapshotCorrupt`]; an unknown `version` is
//! [`UvError::SnapshotVersionMismatch`]; a header fingerprint that
//! disagrees with the persisted configuration is [`UvError::ConfigMismatch`];
//! environmental failures are [`UvError::Io`].
//!
//! # Correctness contract
//!
//! A loaded system is *bit-identical* to the saved one: leaf structure and
//! member lists, PNN answers (probabilities, candidate counts, per-query
//! I/O), `cell_area`, epoch — and updates applied after a load equal updates
//! applied without the round-trip (property-tested in
//! `tests/proptest_snapshot.rs`). Loading is `O(bytes)`.

use crate::builder::Method;
use crate::config::UvConfig;
use crate::crobjects::UpdateSensitivity;
use crate::index::{GridNode, UvIndex};
use crate::router::DerivationRouter;
use crate::stats::ConstructionStats;
use crate::subscribe::SubscriptionTable;
use crate::system::UvSystem;
use crate::update::{validate_domain, validate_objects, ObjectState, RefTable};
use crate::UvError;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;
use uv_data::{ObjectStore, UncertainObject};
use uv_geom::{Circle, Point, Rect};
use uv_rtree::RTree;
use uv_store::codec::{corrupt, fnv64, read_section, to_bytes, write_section, Decode, Encode};
use uv_store::{ensure_disjoint, PageStore, PagedList};

/// Magic bytes every snapshot starts with.
pub const MAGIC: [u8; 8] = *b"UVDSNAP\0";

/// The snapshot format version this build reads and writes.
///
/// Version history:
/// * **1** — the PR-4 format: `UpdateSensitivity::d_bounds` persisted as
///   full circles (centre + radius).
/// * **2** — `UvConfig` gained `num_shards`, and the C-pruning d-bounds are
///   persisted as their hull *vertices* only; the radius (the vertex's
///   distance from the subject centre — exactly how the derivation computed
///   it) is recomputed bit-identically on load. Snapshot size no longer
///   carries 8 redundant bytes per hull vertex.
/// * **3** — the *sharded* container's META section now carries the exact
///   shard-axis boundaries (in-place domain growth keeps interior split
///   lines pinned, so the boundaries are no longer derivable from the
///   domain). The unsharded stream layout is unchanged from v2; the
///   persisted budget flag is still read and written bit-faithfully but is
///   now recomputed after every repair and never forces a rebuild.
/// * **4** — `UvConfig` gained `safe_region` and
///   `safe_region_min_radius_fraction`, and every snapshot ends with a
///   SUBSCRIPTIONS section persisting the continuous-query subscription
///   table (client id, position, answer id set; empty for
///   [`UvSystem::save_snapshot`]). Restored clients carry no safe region,
///   so their first tick re-derives and the pushed delta chain continues
///   unbroken.
/// * **5** — `UvConfig` gained the elastic-resharding thresholds
///   `reshard_split_load` and `reshard_merge_load`. The *sharded*
///   container's ROUTER section now persists the slim
///   [`crate::DerivationRouter`] state (config, method, domain, epoch,
///   objects, reference table — the R-tree is rebuilt deterministically on
///   load) instead of a full [`UvSystem`] snapshot, and its META section
///   carries the two grid dimensions `nx × ny` plus both axis boundary
///   vectors, because elastic split/merge makes the layout non-square and
///   non-uniform. The unsharded stream layout is unchanged beyond the two
///   appended config fields.
/// * **6** — shards index from the router's reference table instead of
///   deriving their own, so every shard section's REF_TABLE now holds the
///   router's states for its members (loading checks they agree). A v5
///   sharded snapshot, whose shards hold states derived against their halo
///   subsets, is rejected rather than mixed with router-derived states. The
///   stream layout is unchanged.
/// * **7** — live bytes only. Every page store ends with its free set (the
///   ids freed for reuse, whose pages are empty), and the OBJECT_STORE
///   section is the id → page directory alone: object pages hold live
///   records only, and the pages with room follow from the directory. A
///   sharded snapshot's shard section is no longer a full [`UvSystem`]
///   snapshot: it holds the shard's member ids, object pages and directory,
///   grid pages and grid state, and construction statistics, while
///   objects, reference states, configuration and domain come from the
///   ROUTER section alone. Shards hold no R-tree. A v6 snapshot is
///   rejected. Since the unsharded R-tree became index-only, its leaf
///   entries carry the null record pointer; an older v7 snapshot's entries
///   still hold record pointers, which load and answer alike (nothing reads
///   them), and its next apply repacks them away.
/// * **8** — every section's checksum is
///   [`section_checksum`](uv_store::codec::section_checksum), FNV-1a's
///   step over 8-byte words in four lanes, instead of the byte-serial
///   FNV-1a 64, so a load verifies its sections at memory speed. Payloads,
///   lengths and the header's configuration fingerprint (still FNV-1a 64)
///   are unchanged; only the 8 checksum bytes of each section differ. A v7
///   snapshot is rejected.
pub const FORMAT_VERSION: u32 = 8;

mod tag {
    pub const CONFIG: u8 = 1;
    pub const META: u8 = 2;
    pub const OBJECTS: u8 = 3;
    pub const OBJECT_PAGES: u8 = 4;
    pub const OBJECT_STORE: u8 = 5;
    pub const RTREE_PAGES: u8 = 6;
    pub const RTREE: u8 = 7;
    pub const INDEX_PAGES: u8 = 8;
    pub const INDEX: u8 = 9;
    pub const REF_TABLE: u8 = 10;
    pub const STATS: u8 = 11;
    pub const SUBSCRIPTIONS: u8 = 12;
}

// ---------------------------------------------------------------------------
// Codec impls for the core types (field order is part of the format).
// ---------------------------------------------------------------------------

impl Encode for UvConfig {
    fn write_to<W: Write + ?Sized>(&self, w: &mut W) -> io::Result<()> {
        self.curve_samples.write_to(w)?;
        self.max_edge_len_fraction.write_to(w)?;
        self.seed_knn.write_to(w)?;
        self.num_seeds.write_to(w)?;
        self.max_nonleaf.write_to(w)?;
        self.split_threshold.write_to(w)?;
        self.integration_steps.write_to(w)?;
        self.parallel.write_to(w)?;
        self.query_workers.write_to(w)?;
        self.leaf_cache.write_to(w)?;
        self.leaf_split_capacity.write_to(w)?;
        self.num_shards.write_to(w)?;
        self.safe_region.write_to(w)?;
        self.safe_region_min_radius_fraction.write_to(w)?;
        self.reshard_split_load.write_to(w)?;
        self.reshard_merge_load.write_to(w)
    }
}

impl Decode for UvConfig {
    fn read_from<R: Read + ?Sized>(r: &mut R) -> io::Result<Self> {
        Ok(Self {
            curve_samples: usize::read_from(r)?,
            max_edge_len_fraction: f64::read_from(r)?,
            seed_knn: usize::read_from(r)?,
            num_seeds: usize::read_from(r)?,
            max_nonleaf: usize::read_from(r)?,
            split_threshold: f64::read_from(r)?,
            integration_steps: usize::read_from(r)?,
            parallel: bool::read_from(r)?,
            query_workers: usize::read_from(r)?,
            leaf_cache: bool::read_from(r)?,
            leaf_split_capacity: usize::read_from(r)?,
            num_shards: usize::read_from(r)?,
            safe_region: bool::read_from(r)?,
            safe_region_min_radius_fraction: f64::read_from(r)?,
            reshard_split_load: u64::read_from(r)?,
            reshard_merge_load: u64::read_from(r)?,
        })
    }
}

impl Encode for Method {
    fn write_to<W: Write + ?Sized>(&self, w: &mut W) -> io::Result<()> {
        let tag: u8 = match self {
            Method::Basic => 0,
            Method::ICR => 1,
            Method::IC => 2,
        };
        tag.write_to(w)
    }
}

impl Decode for Method {
    fn read_from<R: Read + ?Sized>(r: &mut R) -> io::Result<Self> {
        match u8::read_from(r)? {
            0 => Ok(Method::Basic),
            1 => Ok(Method::ICR),
            2 => Ok(Method::IC),
            other => Err(corrupt(format!("invalid construction method {other}"))),
        }
    }
}

/// Persists a reference table: the entry count, then every entry's id and
/// [`ObjectState`] in ascending id order. The one encoding of the table,
/// shared by the REF_TABLE section and the slim router's state
/// ([`crate::router`]).
pub(crate) fn write_ref_table<W: Write + ?Sized>(table: &RefTable, w: &mut W) -> io::Result<()> {
    let mut entries: Vec<(u32, &ObjectState)> = table.iter().map(|(id, s)| (*id, s)).collect();
    entries.sort_unstable_by_key(|(id, _)| *id);
    entries.len().write_to(w)?;
    for (id, state) in &entries {
        id.write_to(w)?;
        write_object_state(state, w)?;
    }
    Ok(())
}

/// Inverse of [`write_ref_table`], validated against the live `objects`:
/// entries come in strictly ascending id order, each names a live object,
/// and together they cover the whole object set.
pub(crate) fn read_ref_table<R: Read + ?Sized>(
    objects: &[UncertainObject],
    r: &mut R,
) -> Result<RefTable, UvError> {
    let entries = usize::read_from(r)?;
    // Entries ascend by id, so one cursor over the live objects sorted by
    // id finds every entry's subject.
    let mut centers: Vec<(u32, Point)> = objects.iter().map(|o| (o.id, o.center())).collect();
    centers.sort_unstable_by_key(|(id, _)| *id);
    let mut live = centers.iter();
    let mut table = RefTable::with_capacity(objects.len());
    let mut prev: Option<u32> = None;
    for _ in 0..entries {
        let id = u32::read_from(r)?;
        if prev.is_some_and(|p| p >= id) {
            return Err(UvError::SnapshotCorrupt(format!(
                "reference table ids not strictly ascending at {id}"
            )));
        }
        prev = Some(id);
        // The subject centre anchors the d-bound radius recomputation, so
        // an entry for an unknown object is unreadable corruption.
        let Some(&(_, center)) = live
            .find(|(live_id, _)| *live_id >= id)
            .filter(|(live_id, _)| *live_id == id)
        else {
            return Err(UvError::SnapshotCorrupt(format!(
                "reference table names unknown object {id}"
            )));
        };
        table.insert(id, read_object_state(center, r)?);
    }
    // Each entry took a distinct object off the cursor, so as many entries
    // as objects means every object has one.
    if table.len() != objects.len() {
        return Err(UvError::SnapshotCorrupt(
            "reference table does not cover the live object set".into(),
        ));
    }
    Ok(table)
}

/// Persists one [`ObjectState`]. The C-pruning d-bounds are written as their
/// hull *vertices* only: each d-bound is the circle through the subject
/// centre around one hull vertex of the possible region, so its radius is
/// `vertex.dist(centre)` — derivable, and therefore not stored (format
/// version 2; version 1 spent 8 extra bytes per vertex on it, which made
/// snapshots grow with region complexity).
fn write_object_state<W: Write + ?Sized>(state: &ObjectState, w: &mut W) -> io::Result<()> {
    state.reference_ids.write_to(w)?;
    let s = &state.sensitivity;
    s.knn_dist.write_to(w)?;
    s.prune_radius.write_to(w)?;
    s.seed_dists.write_to(w)?;
    let hull: Vec<Point> = s.d_bounds.iter().map(|b| b.center).collect();
    hull.write_to(w)
}

/// Inverse of [`write_object_state`]: `center` is the subject's centre, from
/// which the d-bound radii are recomputed exactly as the derivation computed
/// them (`Circle::new(v, v.dist(center))`), keeping loaded ≡ saved bit-exact.
/// Each hull vertex decodes straight into its d-bound.
fn read_object_state<R: Read + ?Sized>(center: Point, r: &mut R) -> io::Result<ObjectState> {
    let reference_ids = Vec::read_from(r)?;
    let knn_dist = f64::read_from(r)?;
    let prune_radius = f64::read_from(r)?;
    let seed_dists = Vec::read_from(r)?;
    // Capped like the `Vec` decoder's allocation, so a corrupted count
    // runs into end-of-input.
    let vertices = usize::read_from(r)?;
    let mut d_bounds = Vec::with_capacity(vertices.min(4_096));
    for _ in 0..vertices {
        let v = Point::read_from(r)?;
        d_bounds.push(Circle::new(v, v.dist(center)));
    }
    Ok(ObjectState {
        reference_ids,
        sensitivity: UpdateSensitivity {
            knn_dist,
            prune_radius,
            seed_dists,
            d_bounds,
        },
    })
}

fn write_duration<W: Write + ?Sized>(d: Duration, w: &mut W) -> io::Result<()> {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX).write_to(w)
}

fn read_duration<R: Read + ?Sized>(r: &mut R) -> io::Result<Duration> {
    Ok(Duration::from_nanos(u64::read_from(r)?))
}

impl Encode for ConstructionStats {
    fn write_to<W: Write + ?Sized>(&self, w: &mut W) -> io::Result<()> {
        self.objects.write_to(w)?;
        write_duration(self.total, w)?;
        write_duration(self.seed_time, w)?;
        write_duration(self.pruning_time, w)?;
        write_duration(self.refinement_time, w)?;
        write_duration(self.indexing_time, w)?;
        self.avg_i_ratio.write_to(w)?;
        self.avg_c_ratio.write_to(w)?;
        self.avg_reference_objects.write_to(w)?;
        self.nonleaf_nodes.write_to(w)?;
        self.leaf_nodes.write_to(w)?;
        self.leaf_pages.write_to(w)
    }
}

impl Decode for ConstructionStats {
    fn read_from<R: Read + ?Sized>(r: &mut R) -> io::Result<Self> {
        Ok(Self {
            objects: usize::read_from(r)?,
            total: read_duration(r)?,
            seed_time: read_duration(r)?,
            pruning_time: read_duration(r)?,
            refinement_time: read_duration(r)?,
            indexing_time: read_duration(r)?,
            avg_i_ratio: f64::read_from(r)?,
            avg_c_ratio: f64::read_from(r)?,
            avg_reference_objects: f64::read_from(r)?,
            nonleaf_nodes: usize::read_from(r)?,
            leaf_nodes: usize::read_from(r)?,
            leaf_pages: usize::read_from(r)?,
        })
    }
}

// ---------------------------------------------------------------------------
// UvIndex persistence
// ---------------------------------------------------------------------------

/// Writes the persistent state of the grid. The leaf page *contents* belong
/// to the index page store (its own section); here go the node table with
/// per-leaf page-list states, node regions, epoch, free slots and the
/// budget flag. The non-leaf count is derivable and recomputed on load.
fn write_index<W: Write + ?Sized>(index: &UvIndex, w: &mut W) -> io::Result<()> {
    index.epoch.write_to(w)?;
    index.budget_bound.write_to(w)?;
    index.free_slots.write_to(w)?;
    index.nodes.len().write_to(w)?;
    for (node, region) in index.nodes.iter().zip(&index.node_regions) {
        region.write_to(w)?;
        match node {
            GridNode::Internal {
                children,
                object_ids,
            } => {
                0u8.write_to(w)?;
                for child in children {
                    child.write_to(w)?;
                }
                object_ids.write_to(w)?;
            }
            GridNode::Leaf { list, object_ids } => {
                1u8.write_to(w)?;
                list.write_state(w)?;
                object_ids.write_to(w)?;
            }
            GridNode::Free => 2u8.write_to(w)?,
        }
    }
    Ok(())
}

/// Reconstructs the grid over an already-loaded page `store`. Child and
/// free-slot references are validated, and the slots reachable from the
/// root must form a tree of live nodes, so corrupt input errors out instead
/// of panicking or looping in a later `locate_leaf`.
fn read_index<R: Read + ?Sized>(
    store: Arc<PageStore>,
    domain: Rect,
    config: UvConfig,
    r: &mut R,
) -> io::Result<UvIndex> {
    let epoch = u64::read_from(r)?;
    let budget_bound = bool::read_from(r)?;
    let free_slots: Vec<u32> = Vec::read_from(r)?;
    let num_nodes = usize::read_from(r)?;
    if num_nodes == 0 {
        return Err(corrupt("grid without a root node"));
    }
    let mut nodes = Vec::with_capacity(num_nodes.min(4_096));
    let mut node_regions = Vec::with_capacity(num_nodes.min(4_096));
    for _ in 0..num_nodes {
        node_regions.push(Rect::read_from(r)?);
        let node = match u8::read_from(r)? {
            0 => {
                let mut children = [0u32; 4];
                for child in &mut children {
                    *child = u32::read_from(r)?;
                }
                GridNode::Internal {
                    children,
                    object_ids: Vec::read_from(r)?,
                }
            }
            1 => GridNode::Leaf {
                list: PagedList::read_state(Arc::clone(&store), r)?,
                object_ids: Vec::read_from(r)?,
            },
            2 => GridNode::Free,
            other => Err(corrupt(format!("invalid grid-node tag {other}")))?,
        };
        nodes.push(node);
    }
    for node in &nodes {
        if let GridNode::Internal { children, .. } = node {
            for child in children {
                if (*child as usize) >= nodes.len() {
                    return Err(corrupt(format!("grid child {child} out of range")));
                }
            }
        }
    }
    for slot in &free_slots {
        if (*slot as usize) >= nodes.len() {
            return Err(corrupt(format!("free slot {slot} out of range")));
        }
        if !matches!(nodes[*slot as usize], GridNode::Free) {
            return Err(corrupt(format!("free slot {slot} names a live node")));
        }
    }
    // Every slot reachable from the root must be live and reached once: the
    // grid walks (leaf location, repair, budget replay) would otherwise
    // panic on a free slot or loop forever on a cycle.
    let mut reached = vec![false; nodes.len()];
    let mut stack = vec![0usize];
    while let Some(node) = stack.pop() {
        if std::mem::replace(&mut reached[node], true) {
            return Err(corrupt(format!("grid slot {node} is reached twice")));
        }
        match &nodes[node] {
            GridNode::Internal { children, .. } => {
                stack.extend(children.iter().map(|c| *c as usize));
            }
            GridNode::Leaf { .. } => {}
            GridNode::Free => {
                return Err(corrupt(format!(
                    "grid slot {node} is free but reachable from the root"
                )))
            }
        }
    }
    ensure_disjoint(nodes.iter().filter_map(|node| match node {
        GridNode::Leaf { list, .. } => Some(list),
        _ => None,
    }))?;
    let nonleaf_count = nodes
        .iter()
        .filter(|n| matches!(n, GridNode::Internal { .. }))
        .count();
    Ok(UvIndex {
        config,
        domain,
        nodes,
        node_regions,
        nonleaf_count,
        store,
        epoch,
        free_slots,
        budget_bound,
    })
}

// ---------------------------------------------------------------------------
// Save / load
// ---------------------------------------------------------------------------

/// Bytes one framed section adds on top of its payload: tag (1) +
/// length (8) + checksum (8). Shared with the sharded snapshot container
/// ([`crate::shard`]), which frames whole per-shard snapshots as sections.
pub(crate) const SECTION_OVERHEAD: u64 = 17;

impl UvSystem {
    /// Serialises the whole system — object store, R-tree, UV-index,
    /// per-object maintenance state, configuration and construction
    /// statistics — to `w`. Returns the number of bytes written.
    ///
    /// Sections are built and written one at a time, so transient memory
    /// peaks at the largest single section (a page store), not the whole
    /// snapshot. The inverse is [`UvSystem::load_snapshot`]; see the
    /// [module docs](crate::snapshot) for the format and the correctness
    /// contract.
    pub fn save_snapshot<W: Write>(&self, w: &mut W) -> Result<u64, UvError> {
        self.save_snapshot_with_subscriptions(w, &SubscriptionTable::new())
    }

    /// Like [`UvSystem::save_snapshot`], additionally persisting a
    /// continuous-query subscription table
    /// ([`crate::subscribe::SubscriptionEngine::into_table`]) in the
    /// snapshot's SUBSCRIPTIONS section: client ids, positions and answer
    /// id sets. Safe regions and epoch tags are runtime state and are *not*
    /// persisted — a restored client re-derives on its first tick, which
    /// keeps its pushed delta chain unbroken across the restart.
    pub fn save_snapshot_with_subscriptions<W: Write>(
        &self,
        w: &mut W,
        subscriptions: &SubscriptionTable,
    ) -> Result<u64, UvError> {
        let config_payload = to_bytes(&self.router.config);

        w.write_all(&MAGIC)?;
        FORMAT_VERSION.write_to(w)?;
        fnv64(&config_payload).write_to(w)?;
        let mut written: u64 = MAGIC.len() as u64 + 4 + 8;
        let emit = |w: &mut W, tag: u8, payload: Vec<u8>| -> io::Result<u64> {
            write_section(w, tag, &payload)?;
            Ok(SECTION_OVERHEAD + payload.len() as u64)
        };

        written += emit(w, tag::CONFIG, config_payload)?;

        let mut meta = Vec::new();
        self.router.domain.write_to(&mut meta)?;
        self.router.method.write_to(&mut meta)?;
        written += emit(w, tag::META, meta)?;

        written += emit(w, tag::OBJECTS, to_bytes(&self.router.objects))?;
        written += emit(w, tag::OBJECT_PAGES, to_bytes(&**self.object_store.store()))?;

        let mut object_store_state = Vec::new();
        self.object_store.write_state(&mut object_store_state)?;
        written += emit(w, tag::OBJECT_STORE, object_store_state)?;

        written += emit(w, tag::RTREE_PAGES, to_bytes(&**self.router.rtree.store()))?;
        let mut rtree_state = Vec::new();
        self.router.rtree.write_state(&mut rtree_state)?;
        written += emit(w, tag::RTREE, rtree_state)?;

        written += emit(w, tag::INDEX_PAGES, to_bytes(&**self.index.store()))?;
        let mut index_state = Vec::new();
        write_index(&self.index, &mut index_state)?;
        written += emit(w, tag::INDEX, index_state)?;

        let mut ref_payload = Vec::new();
        write_ref_table(&self.router.ref_table, &mut ref_payload)?;
        written += emit(w, tag::REF_TABLE, ref_payload)?;

        written += emit(w, tag::STATS, to_bytes(&self.construction))?;

        let mut subs_payload = Vec::new();
        subscriptions.len().write_to(&mut subs_payload)?;
        for (id, client) in subscriptions.iter() {
            id.write_to(&mut subs_payload)?;
            client.position().write_to(&mut subs_payload)?;
            client.answer_ids().to_vec().write_to(&mut subs_payload)?;
        }
        written += emit(w, tag::SUBSCRIPTIONS, subs_payload)?;
        w.flush()?;
        Ok(written)
    }

    /// Saves a snapshot to a file (created or truncated), returning the
    /// number of bytes written.
    pub fn save_snapshot_to_path<P: AsRef<Path>>(&self, path: P) -> Result<u64, UvError> {
        let file = std::fs::File::create(path)?;
        let mut w = std::io::BufWriter::new(file);
        self.save_snapshot(&mut w)
    }

    /// Loads a snapshot written by [`UvSystem::save_snapshot`],
    /// reconstructing a query-ready system in `O(bytes)` with zero
    /// re-derivation. I/O counters start at zero; query-engine caches
    /// refill lazily.
    pub fn load_snapshot<R: Read>(r: &mut R) -> Result<UvSystem, UvError> {
        Ok(Self::load_snapshot_inner(r, None)?.0)
    }

    /// Like [`UvSystem::load_snapshot`], additionally restoring the
    /// persisted subscription table. Restored clients carry their saved
    /// position and answer id set but no safe region; resume serving with
    /// [`crate::subscribe::SubscriptionEngine::with_table`].
    pub fn load_snapshot_with_subscriptions<R: Read>(
        r: &mut R,
    ) -> Result<(UvSystem, SubscriptionTable), UvError> {
        Self::load_snapshot_inner(r, None)
    }

    fn load_snapshot_inner<R: Read>(
        r: &mut R,
        expected: Option<&UvConfig>,
    ) -> Result<(UvSystem, SubscriptionTable), UvError> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if magic != MAGIC {
            return Err(UvError::SnapshotCorrupt(format!("bad magic {magic:02x?}")));
        }
        let version = u32::read_from(r)?;
        if version != FORMAT_VERSION {
            return Err(UvError::SnapshotVersionMismatch {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let fingerprint = u64::read_from(r)?;
        if let Some(expected) = expected {
            // Reject a wrong tuning from the header alone — before paying
            // the O(bytes) reconstruction (the decoded config is compared
            // again below, so a fingerprint collision cannot slip through).
            if fnv64(&to_bytes(expected)) != fingerprint {
                return Err(UvError::ConfigMismatch);
            }
        }

        let config_payload = read_section(r, tag::CONFIG)?;
        if fnv64(&config_payload) != fingerprint {
            return Err(UvError::ConfigMismatch);
        }
        let config: UvConfig = uv_store::codec::from_bytes(&config_payload)?;
        config
            .validate()
            .map_err(|e| UvError::SnapshotCorrupt(format!("persisted configuration: {e}")))?;

        let meta = read_section(r, tag::META)?;
        let mut meta_r: &[u8] = &meta;
        let domain = Rect::read_from(&mut meta_r)?;
        validate_domain(&domain)
            .map_err(|e| UvError::SnapshotCorrupt(format!("persisted domain: {e}")))?;
        let method = Method::read_from(&mut meta_r)?;

        let objects: Vec<UncertainObject> =
            uv_store::codec::from_bytes(&read_section(r, tag::OBJECTS)?)?;
        validate_objects(&objects)
            .map_err(|e| UvError::SnapshotCorrupt(format!("persisted objects: {e}")))?;

        let object_pages: PageStore =
            uv_store::codec::from_bytes(&read_section(r, tag::OBJECT_PAGES)?)?;
        let object_pages = Arc::new(object_pages);
        let store_state = read_section(r, tag::OBJECT_STORE)?;
        let object_store =
            ObjectStore::read_state(object_pages, &objects, &mut store_state.as_slice())?;

        let rtree_pages: PageStore =
            uv_store::codec::from_bytes(&read_section(r, tag::RTREE_PAGES)?)?;
        let rtree_state = read_section(r, tag::RTREE)?;
        let rtree = RTree::read_state(Arc::new(rtree_pages), &mut rtree_state.as_slice())?;
        if rtree.len() != objects.len() {
            return Err(UvError::SnapshotCorrupt(format!(
                "R-tree indexes {} objects, dataset holds {}",
                rtree.len(),
                objects.len()
            )));
        }

        let index_pages: PageStore =
            uv_store::codec::from_bytes(&read_section(r, tag::INDEX_PAGES)?)?;
        let index_state = read_section(r, tag::INDEX)?;
        let index = read_index(
            Arc::new(index_pages),
            domain,
            config,
            &mut index_state.as_slice(),
        )?;

        let ref_payload = read_section(r, tag::REF_TABLE)?;
        let ref_table = read_ref_table(&objects, &mut ref_payload.as_slice())?;

        let construction: ConstructionStats =
            uv_store::codec::from_bytes(&read_section(r, tag::STATS)?)?;

        let subs_payload = read_section(r, tag::SUBSCRIPTIONS)?;
        let mut subs_r: &[u8] = &subs_payload;
        let num_clients = usize::read_from(&mut subs_r)?;
        let mut subscriptions = SubscriptionTable::new();
        let mut prev_id: Option<u64> = None;
        for _ in 0..num_clients {
            let id = u64::read_from(&mut subs_r)?;
            if prev_id.is_some_and(|p| p >= id) {
                return Err(UvError::SnapshotCorrupt(format!(
                    "subscription client ids not strictly ascending at {id}"
                )));
            }
            prev_id = Some(id);
            let position = Point::read_from(&mut subs_r)?;
            if !position.x.is_finite() || !position.y.is_finite() {
                return Err(UvError::SnapshotCorrupt(format!(
                    "subscription client {id} has a non-finite position"
                )));
            }
            let answer_ids: Vec<u32> = Vec::read_from(&mut subs_r)?;
            if answer_ids.windows(2).any(|w| w[0] >= w[1]) {
                return Err(UvError::SnapshotCorrupt(format!(
                    "subscription client {id} answer ids not strictly ascending"
                )));
            }
            // The reference table's keys are exactly the live ids.
            if let Some(dead) = answer_ids.iter().find(|a| !ref_table.contains_key(a)) {
                return Err(UvError::SnapshotCorrupt(format!(
                    "subscription client {id} answers with unknown object {dead}"
                )));
            }
            // The restored answer set is exactly the saved system's answer
            // at this position, so tag the client with the loaded epoch:
            // it is current until the next update.
            subscriptions.insert_persisted(id, position, answer_ids, index.epoch);
        }
        if !subs_r.is_empty() {
            return Err(UvError::SnapshotCorrupt(
                "subscription section has trailing bytes".into(),
            ));
        }

        // The subscriptions section is the last one: anything after it (a
        // second snapshot concatenated on, a partially overwritten longer
        // file) is corruption, not data to ignore.
        let mut probe = [0u8; 1];
        if r.read(&mut probe)? != 0 {
            return Err(UvError::SnapshotCorrupt(
                "trailing bytes after the final section".into(),
            ));
        }

        let router = DerivationRouter {
            objects,
            domain,
            rtree,
            ref_table,
            config,
            method,
            epoch: index.epoch,
            derivations: 0,
        };
        Ok((
            UvSystem {
                router,
                object_store,
                index,
                construction,
            },
            subscriptions,
        ))
    }

    /// Writes this shard's section of a sharded snapshot: its member ids in
    /// order, its object pages and directory, its grid pages and grid state,
    /// and its construction statistics. Objects, reference states,
    /// configuration and domain are the router's, persisted once in the
    /// ROUTER section ([`crate::shard`]).
    pub(crate) fn write_shard_state<W: Write + ?Sized>(&self, w: &mut W) -> io::Result<()> {
        let ids: Vec<u32> = self.router.objects.iter().map(|o| o.id).collect();
        ids.write_to(w)?;
        self.object_store.store().write_to(w)?;
        self.object_store.write_state(w)?;
        self.index.store().write_to(w)?;
        write_index(&self.index, w)?;
        self.construction.write_to(w)
    }

    /// Inverse of [`UvSystem::write_shard_state`]: the shard's members and
    /// their states come from the loaded `router`, `live` maps its objects
    /// by id, and a member that is not live there is corruption. Derives
    /// nothing.
    pub(crate) fn read_shard_state<R: Read + ?Sized>(
        router: &DerivationRouter,
        live: &HashMap<u32, &UncertainObject>,
        r: &mut R,
    ) -> Result<UvSystem, UvError> {
        let ids: Vec<u32> = Vec::read_from(r)?;
        let mut members = Vec::with_capacity(ids.len());
        for id in ids {
            let Some(o) = live.get(&id) else {
                return Err(UvError::SnapshotCorrupt(format!(
                    "shard replica {id} is not live in the router"
                )));
            };
            members.push((*o).clone());
        }
        let object_pages = Arc::new(PageStore::read_from(r)?);
        let object_store = ObjectStore::read_state(object_pages, &members, r)?;
        let index_pages = Arc::new(PageStore::read_from(r)?);
        let index = read_index(index_pages, router.domain, router.config, r)?;
        let construction = ConstructionStats::read_from(r)?;
        let mut shard = DerivationRouter::replica(members, router);
        shard.epoch = index.epoch;
        Ok(UvSystem {
            router: shard,
            object_store,
            index,
            construction,
        })
    }

    /// Loads a snapshot from a file.
    pub fn load_snapshot_from_path<P: AsRef<Path>>(path: P) -> Result<UvSystem, UvError> {
        let file = std::fs::File::open(path)?;
        let mut r = std::io::BufReader::new(file);
        Self::load_snapshot(&mut r)
    }

    /// Like [`UvSystem::load_snapshot`], but additionally requires the
    /// persisted configuration to equal `expected` — the replica-fleet
    /// use case where every process is compiled against one known tuning.
    /// Returns [`UvError::ConfigMismatch`] otherwise; a wrong tuning is
    /// rejected from the header fingerprint alone, before any section is
    /// reconstructed.
    pub fn load_snapshot_expecting<R: Read>(
        r: &mut R,
        expected: &UvConfig,
    ) -> Result<UvSystem, UvError> {
        let (system, _) = Self::load_snapshot_inner(r, Some(expected))?;
        if system.config() != expected {
            return Err(UvError::ConfigMismatch);
        }
        Ok(system)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::ShardedUvSystem;
    use crate::update::UpdateBatch;
    use uv_data::{Dataset, GeneratorConfig, Pdf};
    use uv_geom::Point;
    use uv_store::codec::section_checksum;

    fn fixture(n: usize) -> (Dataset, UvSystem) {
        let ds = Dataset::generate(GeneratorConfig::paper_uniform(n));
        let config = UvConfig::default()
            .with_seed_knn(24)
            .with_leaf_split_capacity(16);
        let sys = UvSystem::build(ds.objects.clone(), ds.domain, Method::IC, config).unwrap();
        (ds, sys)
    }

    fn snapshot_bytes(sys: &UvSystem) -> Vec<u8> {
        let mut bytes = Vec::new();
        let written = sys.save_snapshot(&mut bytes).expect("save must succeed");
        assert_eq!(written, bytes.len() as u64);
        bytes
    }

    fn assert_bit_identical(ds: &Dataset, a: &UvSystem, b: &UvSystem) {
        assert_eq!(a.epoch(), b.epoch());
        assert_eq!(a.domain(), b.domain());
        assert_eq!(a.objects(), b.objects());
        assert_eq!(a.index().num_leaf_nodes(), b.index().num_leaf_nodes());
        assert_eq!(a.index().num_nonleaf_nodes(), b.index().num_nonleaf_nodes());
        assert_eq!(a.index().num_leaf_pages(), b.index().num_leaf_pages());
        let leaves = |s: &UvSystem| {
            s.index()
                .leaves()
                .map(|(r, ids)| (*r, ids.to_vec()))
                .collect::<Vec<_>>()
        };
        assert_eq!(leaves(a), leaves(b));
        for o in a.objects() {
            assert_eq!(a.cell_area(o.id).to_bits(), b.cell_area(o.id).to_bits());
            assert_eq!(
                a.object_state(o.id).map(|s| s.reference_ids().to_vec()),
                b.object_state(o.id).map(|s| s.reference_ids().to_vec())
            );
            // The whole sensitivity — including the d-bound radii that the
            // loader recomputes from the persisted hull vertices — must be
            // bit-identical, or maintenance after a load would diverge.
            assert_eq!(
                a.object_state(o.id).map(|s| s.sensitivity()),
                b.object_state(o.id).map(|s| s.sensitivity()),
                "sensitivity of object {} diverged through the round-trip",
                o.id
            );
        }
        a.reset_io();
        b.reset_io();
        for q in ds.query_points(20, 41) {
            let pa = a.pnn(q);
            let pb = b.pnn(q);
            assert_eq!(
                pa.probabilities, pb.probabilities,
                "answers differ at {q:?}"
            );
            assert_eq!(pa.candidates_examined, pb.candidates_examined);
            assert_eq!(pa.breakdown.index_io, pb.breakdown.index_io);
            assert_eq!(pa.breakdown.object_io, pb.breakdown.object_io);
        }
    }

    #[test]
    fn roundtrip_is_bit_identical_and_updatable() {
        let (ds, mut sys) = fixture(150);
        // Exercise a non-zero epoch, freed pages and free slots before saving.
        sys.updater()
            .delete(3)
            .move_to(7, Point::new(4_321.0, 1_234.0))
            .insert(UncertainObject::with_gaussian(
                900,
                Point::new(2_500.0, 2_500.0),
                20.0,
            ))
            .commit()
            .unwrap();
        let bytes = snapshot_bytes(&sys);
        let mut loaded = UvSystem::load_snapshot(&mut bytes.as_slice()).unwrap();
        assert_bit_identical(&ds, &sys, &loaded);

        // Updates after the round-trip equal updates without it.
        let batch = UpdateBatch::new()
            .insert(UncertainObject::with_uniform(
                901,
                Point::new(6_000.0, 3_000.0),
                15.0,
            ))
            .delete(11)
            .move_to(42, Point::new(1_111.0, 8_888.0));
        let sa = sys.apply(batch.clone()).unwrap();
        let sb = loaded.apply(batch).unwrap();
        assert_eq!(sa.leaves_refined, sb.leaves_refined);
        assert_eq!(sa.objects_rederived, sb.objects_rederived);
        assert_eq!(sa.epoch, sb.epoch);
        assert_bit_identical(&ds, &sys, &loaded);
    }

    #[test]
    fn empty_and_tiny_systems_roundtrip() {
        let domain = Rect::square(1_000.0);
        let sys = UvSystem::with_defaults(Vec::new(), domain);
        let bytes = snapshot_bytes(&sys);
        let mut loaded = UvSystem::load_snapshot(&mut bytes.as_slice()).unwrap();
        assert!(loaded.objects().is_empty());
        assert!(loaded
            .pnn(Point::new(500.0, 500.0))
            .probabilities
            .is_empty());
        // The loaded empty system accepts inserts.
        loaded
            .insert_object(UncertainObject::with_uniform(
                0,
                Point::new(400.0, 400.0),
                10.0,
            ))
            .unwrap();
        assert_eq!(loaded.objects().len(), 1);

        let one = UvSystem::with_defaults(
            vec![UncertainObject::with_gaussian(5, Point::new(1.0, 2.0), 3.0)],
            domain,
        );
        let bytes = snapshot_bytes(&one);
        let loaded = UvSystem::load_snapshot(&mut bytes.as_slice()).unwrap();
        assert_eq!(loaded.objects(), one.objects());
    }

    #[test]
    fn construction_stats_and_config_survive() {
        let (_, sys) = fixture(120);
        let bytes = snapshot_bytes(&sys);
        let loaded = UvSystem::load_snapshot(&mut bytes.as_slice()).unwrap();
        assert_eq!(loaded.config(), sys.config());
        assert_eq!(loaded.method(), sys.method());
        let (a, b) = (loaded.construction_stats(), sys.construction_stats());
        assert_eq!(a.objects, b.objects);
        assert_eq!(a.leaf_nodes, b.leaf_nodes);
        assert_eq!(a.nonleaf_nodes, b.nonleaf_nodes);
        assert_eq!(a.leaf_pages, b.leaf_pages);
        assert_eq!(a.avg_c_ratio.to_bits(), b.avg_c_ratio.to_bits());
        assert_eq!(a.total, b.total);
    }

    #[test]
    fn header_corruption_yields_typed_errors() {
        let (_, sys) = fixture(60);
        let bytes = snapshot_bytes(&sys);

        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            UvSystem::load_snapshot(&mut bad.as_slice()),
            Err(UvError::SnapshotCorrupt(_))
        ));

        // Unsupported versions, among them 6, whose object-store state
        // carries tombstones and whose page stores carry no free set.
        for found in [6, FORMAT_VERSION + 7] {
            let mut bad = bytes.clone();
            bad[8..12].copy_from_slice(&found.to_le_bytes());
            assert_eq!(
                UvSystem::load_snapshot(&mut bad.as_slice()).unwrap_err(),
                UvError::SnapshotVersionMismatch {
                    found,
                    supported: FORMAT_VERSION,
                }
            );
        }

        // Fingerprint/config disagreement.
        let mut bad = bytes.clone();
        bad[12] ^= 0xA5;
        assert_eq!(
            UvSystem::load_snapshot(&mut bad.as_slice()).unwrap_err(),
            UvError::ConfigMismatch
        );

        // Truncation at every boundary class: header, mid-section, checksum.
        for cut in [3, 15, 40, bytes.len() / 2, bytes.len() - 1] {
            let err = UvSystem::load_snapshot(&mut &bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, UvError::SnapshotCorrupt(_)),
                "truncation at {cut} gave {err:?}"
            );
        }

        // Trailing garbage — e.g. two snapshots concatenated — is rejected,
        // not silently half-loaded.
        let mut doubled = bytes.clone();
        doubled.extend_from_slice(&bytes);
        assert!(matches!(
            UvSystem::load_snapshot(&mut doubled.as_slice()),
            Err(UvError::SnapshotCorrupt(_))
        ));
    }

    #[test]
    fn a_grid_whose_leaves_share_a_page_fails_to_load() {
        // Each leaf frees its own page list, so a loaded grid must not let
        // two leaves own one page.
        let (_, mut sys) = fixture(150);
        let leaves: Vec<usize> = (0..sys.index.nodes.len())
            .filter(|&i| matches!(sys.index.nodes[i], GridNode::Leaf { .. }))
            .collect();
        let GridNode::Leaf { list, .. } = &sys.index.nodes[leaves[0]] else {
            unreachable!("filtered to leaves")
        };
        let shared = list.clone();
        if let GridNode::Leaf { list, .. } = &mut sys.index.nodes[leaves[1]] {
            *list = shared;
        }
        let mut state = Vec::new();
        write_index(&sys.index, &mut state).unwrap();
        let store = Arc::clone(sys.index.store());
        let err =
            read_index(store, sys.domain(), *sys.config(), &mut state.as_slice()).unwrap_err();
        assert!(err.to_string().contains("two page lists"), "{err}");
    }

    #[test]
    fn a_grid_that_reaches_a_free_slot_or_a_node_twice_fails_to_load() {
        // The grid walks (leaf location, repair, budget replay) rely on
        // every slot reachable from the root being live and reached once.
        let (_, sys) = fixture(150);
        let GridNode::Internal { children, .. } = &sys.index.nodes[0] else {
            panic!("a 150-object grid at leaf capacity 16 splits its root");
        };
        let children = *children;
        let forge = |edit: &dyn Fn(&mut UvIndex)| {
            let mut state = Vec::new();
            write_index(&sys.index, &mut state).unwrap();
            let store = Arc::clone(sys.index.store());
            let mut index = read_index(store, sys.domain(), *sys.config(), &mut state.as_slice())
                .expect("the unforged grid loads");
            edit(&mut index);
            let mut forged = Vec::new();
            write_index(&index, &mut forged).unwrap();
            let store = Arc::clone(index.store());
            read_index(store, sys.domain(), *sys.config(), &mut forged.as_slice())
                .map(|_| ())
                .unwrap_err()
                .to_string()
        };
        // A child link to a free slot (the orphaned child stays live).
        let err = forge(&|index: &mut UvIndex| {
            index.nodes.push(GridNode::Free);
            index
                .node_regions
                .push(index.node_regions[children[0] as usize]);
            if let GridNode::Internal { children, .. } = &mut index.nodes[0] {
                children[0] = (index.node_regions.len() - 1) as u32;
            }
        });
        assert!(err.contains("free"), "{err}");
        // A child link back to the root: a cycle.
        let err = forge(&|index: &mut UvIndex| {
            if let GridNode::Internal { children, .. } = &mut index.nodes[0] {
                children[1] = 0;
            }
        });
        assert!(err.contains("twice"), "{err}");
        // Two parents sharing one child.
        let err = forge(&|index: &mut UvIndex| {
            if let GridNode::Internal { children, .. } = &mut index.nodes[0] {
                children[1] = children[0];
            }
        });
        assert!(err.contains("twice"), "{err}");
    }

    #[test]
    fn persisted_config_with_a_nan_edge_fraction_fails_to_load() {
        let (_, sys) = fixture(60);
        let mut bytes = snapshot_bytes(&sys);
        // Forge a self-consistent snapshot whose CONFIG section — the first
        // one, after magic(8) + version(4) + fingerprint(8) and its own
        // tag(1) + len(8) — persists a NaN subdivision fraction: payload,
        // section checksum and header fingerprint all agree.
        let forged = to_bytes(&UvConfig {
            max_edge_len_fraction: f64::NAN,
            ..*sys.config()
        });
        assert_eq!(bytes[20], tag::CONFIG);
        let start = 8 + 4 + 8 + 1 + 8;
        let end = start + forged.len();
        bytes[start..end].copy_from_slice(&forged);
        bytes[end..end + 8].copy_from_slice(&section_checksum(&forged).to_le_bytes());
        bytes[12..20].copy_from_slice(&fnv64(&forged).to_le_bytes());
        let err = UvSystem::load_snapshot(&mut bytes.as_slice()).unwrap_err();
        assert!(
            matches!(&err, UvError::SnapshotCorrupt(m) if m.contains("max_edge_len_fraction")),
            "{err:?}"
        );
    }

    #[test]
    fn persisted_domain_with_a_nan_edge_fails_to_load() {
        let (_, sys) = fixture(60);
        let mut bytes = snapshot_bytes(&sys);
        // META follows CONFIG. Re-frame it with a NaN west edge and a valid
        // checksum, so that only the domain check can reject it.
        let section_len = |at: usize| u64::from_le_bytes(bytes[at + 1..at + 9].try_into().unwrap());
        let meta = 20 + 17 + section_len(20) as usize;
        assert_eq!(bytes[meta], tag::META);
        let (start, end) = (meta + 9, meta + 9 + section_len(meta) as usize);
        bytes[start..start + 8].copy_from_slice(&f64::NAN.to_le_bytes());
        let checksum = section_checksum(&bytes[start..end]);
        bytes[end..end + 8].copy_from_slice(&checksum.to_le_bytes());
        let err = UvSystem::load_snapshot(&mut bytes.as_slice()).unwrap_err();
        assert!(
            matches!(&err, UvError::SnapshotCorrupt(m) if m.contains("domain")),
            "{err:?}"
        );
    }

    /// The framed sections after the `header` bytes: each one's tag and
    /// payload range (its checksum follows the payload).
    fn sections(bytes: &[u8], header: usize) -> Vec<(u8, std::ops::Range<usize>)> {
        let mut found = Vec::new();
        let mut at = header;
        while at < bytes.len() {
            let len = u64::from_le_bytes(bytes[at + 1..at + 9].try_into().unwrap()) as usize;
            found.push((bytes[at], at + 9..at + 9 + len));
            at += 9 + len + 8;
        }
        found
    }

    /// Rewrites every section checksum after the `header` bytes, so that a
    /// forged payload passes the framing and only semantic validation can
    /// reject it.
    fn reframe(bytes: &mut [u8], header: usize) {
        for (_, payload) in sections(bytes, header) {
            let checksum = section_checksum(&bytes[payload.clone()]);
            bytes[payload.end..payload.end + 8].copy_from_slice(&checksum.to_le_bytes());
        }
    }

    /// `bytes` with the payload of the section tagged `tag` replaced by
    /// `payload`, framed with its own length and checksum.
    fn with_section(bytes: &[u8], header: usize, tag: u8, payload: &[u8]) -> Vec<u8> {
        let (_, old) = sections(bytes, header)
            .into_iter()
            .find(|(t, _)| *t == tag)
            .expect("the snapshot has the section");
        let mut out = bytes[..old.start - 9].to_vec();
        write_section(&mut out, tag, payload).unwrap();
        out.extend_from_slice(&bytes[old.end + 8..]);
        out
    }

    /// A 60-object system saved unsharded and as a 2×2 sharded system.
    fn both_formats() -> (Dataset, Vec<u8>, Vec<u8>) {
        let (ds, sys) = fixture(60);
        let config = sys.config().with_num_shards(2);
        let sharded =
            ShardedUvSystem::build(ds.objects.clone(), ds.domain, Method::IC, config).unwrap();
        let mut sharded_bytes = Vec::new();
        sharded.save_snapshot(&mut sharded_bytes).unwrap();
        let unsharded_bytes = snapshot_bytes(&sys);
        (ds, unsharded_bytes, sharded_bytes)
    }

    #[test]
    fn forged_invalid_objects_fail_to_load_in_both_formats() {
        // Each forgery is an object both builds reject. Written over the
        // object's encoding in OBJECTS (unsharded) or ROUTER (sharded) and
        // re-framed with valid checksums, it must not load either.
        let (ds, unsharded, sharded) = both_formats();
        let victim = &ds.objects[7];
        let forge = |edit: fn(&mut UncertainObject)| {
            let mut forged = victim.clone();
            edit(&mut forged);
            forged
        };
        fn set_bar(o: &mut UncertainObject, k: usize, value: f64) {
            match &mut o.pdf {
                Pdf::Histogram { bars } => bars[k] = value,
                Pdf::Uniform => unreachable!("the paper dataset carries histogram pdfs"),
            }
        }
        let forgeries = [
            ("a NaN centre", forge(|o| o.region.center.x = f64::NAN)),
            ("a negative radius", forge(|o| o.region.radius = -5.0)),
            ("a negative bar", forge(|o| set_bar(o, 0, -0.3))),
            ("a NaN bar", forge(|o| set_bar(o, 3, f64::NAN))),
        ];
        let original = to_bytes(victim);
        let named = format!("object {}", victim.id);
        for (what, forged) in forgeries {
            let forged = to_bytes(&forged);
            assert_eq!(forged.len(), original.len());
            for (format, bytes, header) in
                [("unsharded", &unsharded, 20), ("sharded", &sharded, 12)]
            {
                let mut bad = bytes.clone();
                let at: Vec<usize> = (0..bad.len() - original.len())
                    .filter(|&i| bad[i..i + original.len()] == original[..])
                    .collect();
                assert_eq!(at.len(), 1, "{format}: the object is encoded once");
                bad[at[0]..at[0] + forged.len()].copy_from_slice(&forged);
                reframe(&mut bad, header);
                let result = if header == 20 {
                    UvSystem::load_snapshot(&mut bad.as_slice()).map(|_| ())
                } else {
                    ShardedUvSystem::load_snapshot(&mut bad.as_slice()).map(|_| ())
                };
                assert!(
                    matches!(&result, Err(UvError::SnapshotCorrupt(m)) if m.contains(&named)),
                    "{format} snapshot with {what}: {result:?}"
                );
            }
        }
        // The re-framing alone leaves both snapshots loadable.
        let (mut plain, mut plain_sharded) = (unsharded.clone(), sharded.clone());
        reframe(&mut plain, 20);
        reframe(&mut plain_sharded, 12);
        assert!(UvSystem::load_snapshot(&mut plain.as_slice()).is_ok());
        assert!(ShardedUvSystem::load_snapshot(&mut plain_sharded.as_slice()).is_ok());
    }

    #[test]
    fn version_7_snapshots_are_rejected_in_both_formats() {
        // Version 7 framed sections with the byte-serial FNV-1a checksum.
        let (_, mut unsharded, mut sharded) = both_formats();
        unsharded[8..12].copy_from_slice(&7u32.to_le_bytes());
        sharded[8..12].copy_from_slice(&7u32.to_le_bytes());
        let expected = UvError::SnapshotVersionMismatch {
            found: 7,
            supported: FORMAT_VERSION,
        };
        assert_eq!(FORMAT_VERSION, 8);
        assert_eq!(
            UvSystem::load_snapshot(&mut unsharded.as_slice()).unwrap_err(),
            expected
        );
        assert_eq!(
            ShardedUvSystem::load_snapshot(&mut sharded.as_slice()).unwrap_err(),
            expected
        );
    }

    #[test]
    fn forged_reference_tables_fail_to_load_in_both_formats() {
        // The reference table must list every live object once, in
        // ascending id order. Each forgery breaks that and is framed with a
        // valid length and checksum: in REF_TABLE (unsharded), and as the
        // tail of the router state in ROUTER (sharded).
        let (_, unsharded, sharded) = both_formats();
        let (_, ref_table) = sections(&unsharded, 20)
            .into_iter()
            .find(|(t, _)| *t == tag::REF_TABLE)
            .unwrap();
        // The sharded format's second section, after META.
        let (router_tag, router) = sections(&sharded, 12).swap_remove(1);
        let router = &sharded[router];
        // The router state before its table: configuration, method,
        // domain, epoch and objects.
        let mut rest = router;
        UvConfig::read_from(&mut rest).unwrap();
        Method::read_from(&mut rest).unwrap();
        Rect::read_from(&mut rest).unwrap();
        u64::read_from(&mut rest).unwrap();
        Vec::<UncertainObject>::read_from(&mut rest).unwrap();
        let router_head = &router[..router.len() - rest.len()];
        // Each entry's raw bytes, its id first.
        let entries = |table: &[u8]| -> Vec<Vec<u8>> {
            let mut r = table;
            (0..usize::read_from(&mut r).unwrap())
                .map(|_| {
                    let entry = r;
                    u32::read_from(&mut r).unwrap();
                    read_object_state(Point::new(0.0, 0.0), &mut r).unwrap();
                    entry[..entry.len() - r.len()].to_vec()
                })
                .collect()
        };
        let encode = |entries: &[Vec<u8>]| {
            let mut table = to_bytes(&entries.len());
            entries.iter().for_each(|e| table.extend_from_slice(e));
            table
        };
        type Forge = fn(&mut Vec<Vec<u8>>);
        let forgeries: [(&str, Forge, &str); 4] = [
            (
                "two swapped entries",
                |e| e.swap(10, 11),
                "not strictly ascending",
            ),
            (
                "a duplicated entry",
                |e| e.insert(11, e[10].clone()),
                "not strictly ascending",
            ),
            (
                "an entry whose id is not live",
                |e| {
                    let last = e.len() - 1;
                    let id = u32::from_le_bytes(e[last][..4].try_into().unwrap());
                    e[last][..4].copy_from_slice(&(id + 1).to_le_bytes());
                },
                "names unknown object",
            ),
            (
                "a dropped entry",
                |e| {
                    e.remove(20);
                },
                "does not cover the live object set",
            ),
        ];
        for (format, table) in [("unsharded", &unsharded[ref_table]), ("sharded", rest)] {
            assert_eq!(
                encode(&entries(table)),
                table,
                "{format}: the table re-encodes"
            );
            for (what, forge, expected) in forgeries {
                let mut forged = entries(table);
                forge(&mut forged);
                let result = if format == "unsharded" {
                    let bad = with_section(&unsharded, 20, tag::REF_TABLE, &encode(&forged));
                    UvSystem::load_snapshot(&mut bad.as_slice()).map(|_| ())
                } else {
                    let state = [router_head, &encode(&forged)].concat();
                    let bad = with_section(&sharded, 12, router_tag, &state);
                    ShardedUvSystem::load_snapshot(&mut bad.as_slice()).map(|_| ())
                };
                assert!(
                    matches!(&result, Err(UvError::SnapshotCorrupt(m)) if m.contains(expected)),
                    "{format} snapshot with {what}: {result:?}"
                );
            }
        }
    }

    #[test]
    fn ref_table_section_persists_d_bounds_as_bare_vertices() {
        // Format-2 size regression, checked against the *actual bytes*: the
        // REF_TABLE section must be exactly as long as the hull-vertex
        // encoding predicts — 16 bytes per d-bound vertex, not the 24 the
        // PR-4 format spent (vertex + redundant radius). An accidental
        // re-persist of the radius (or any new field) fails this.
        let (_, sys) = fixture(100);
        let bytes = snapshot_bytes(&sys);

        // Walk the framing: magic(8) + version(4) + fingerprint(8), then
        // sections of tag(1) + len(8) + payload + checksum(8).
        let mut at = 8 + 4 + 8;
        let mut ref_payload_len = None;
        while at < bytes.len() {
            let tag = bytes[at];
            let len = u64::from_le_bytes(bytes[at + 1..at + 9].try_into().unwrap()) as usize;
            if tag == tag::REF_TABLE {
                ref_payload_len = Some(len);
            }
            at += 1 + 8 + len + 8;
        }
        let actual = ref_payload_len.expect("snapshot contains a REF_TABLE section");

        let expected: usize = 8 // entry count
            + sys
                .objects()
                .iter()
                .map(|o| {
                    let state = sys.object_state(o.id).expect("live object has state");
                    let s = state.sensitivity();
                    4 // id
                        + 8 + 4 * state.reference_ids().len() // Vec<u32>
                        + 8 // knn_dist
                        + 8 // prune_radius
                        + 8 + 8 * s.seed_dists().map_or(0, <[f64]>::len) // Vec<f64>
                        + 8 + 16 * s.d_bounds().len() // Vec<Point>: vertices only
                })
                .sum::<usize>();
        assert_eq!(
            actual, expected,
            "REF_TABLE section size diverged from the hull-vertex encoding"
        );
        // The fixture exercises the regression for real: d-bounds exist.
        assert!(sys.objects().iter().any(|o| !sys
            .object_state(o.id)
            .unwrap()
            .sensitivity()
            .d_bounds()
            .is_empty()));
    }

    #[test]
    fn expecting_variant_rejects_other_configs() {
        let (_, sys) = fixture(60);
        let bytes = snapshot_bytes(&sys);
        let loaded =
            UvSystem::load_snapshot_expecting(&mut bytes.as_slice(), sys.config()).unwrap();
        assert_eq!(loaded.config(), sys.config());
        let other = UvConfig::default().with_seed_knn(99);
        assert_eq!(
            UvSystem::load_snapshot_expecting(&mut bytes.as_slice(), &other).unwrap_err(),
            UvError::ConfigMismatch
        );
    }

    #[test]
    fn save_to_path_and_load_from_path() {
        let (ds, sys) = fixture(80);
        let path = std::env::temp_dir().join(format!(
            "uv-snapshot-test-{}-{:?}.bin",
            std::process::id(),
            std::thread::current().id()
        ));
        let written = sys.save_snapshot_to_path(&path).unwrap();
        assert_eq!(written, std::fs::metadata(&path).unwrap().len());
        let loaded = UvSystem::load_snapshot_from_path(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_bit_identical(&ds, &sys, &loaded);
        // A missing file is an I/O error, not corruption.
        assert!(matches!(
            UvSystem::load_snapshot_from_path(&path),
            Err(UvError::Io(_))
        ));
    }

    #[test]
    fn subscription_table_roundtrips_and_resumes_the_delta_chain() {
        use crate::subscribe::SubscriptionEngine;

        let (ds, sys) = fixture(120);
        let queries = ds.query_points(6, 77);
        let mut engine = SubscriptionEngine::new(&sys);
        for (i, q) in queries.iter().enumerate() {
            engine.subscribe(i as u64 * 10, *q).unwrap();
        }
        let table = engine.into_table();

        let mut bytes = Vec::new();
        sys.save_snapshot_with_subscriptions(&mut bytes, &table)
            .unwrap();
        let (loaded, restored) =
            UvSystem::load_snapshot_with_subscriptions(&mut bytes.as_slice()).unwrap();

        assert_eq!(restored.len(), table.len());
        for (id, client) in table.iter() {
            let r = restored.client(id).expect("client survives the roundtrip");
            assert_eq!(r.position(), client.position());
            assert_eq!(r.answer_ids(), client.answer_ids());
            // Safe regions are runtime-only state: rebuilt on first miss.
            assert!(r.safe_region().is_none());
        }

        // Resuming from the restored table must continue the delta chain:
        // each pushed delta applied to the *persisted* answer set yields the
        // oracle answer at the new position.
        let mut resumed = SubscriptionEngine::with_table(&loaded, restored);
        let moves: Vec<(u64, Point)> = queries
            .iter()
            .enumerate()
            .map(|(i, q)| (i as u64 * 10, Point::new(q.x + 3.0, q.y - 2.0)))
            .collect();
        let deltas = resumed.tick(&moves);
        let after = resumed.into_table();
        for (id, p) in &moves {
            let oracle: Vec<u32> = loaded
                .pnn(*p)
                .probabilities
                .iter()
                .map(|(id, _)| *id)
                .collect();
            assert_eq!(
                after.client(*id).unwrap().answer_ids(),
                oracle.as_slice(),
                "client {id} diverged from the oracle after resume"
            );
        }
        for (id, delta) in &deltas {
            let before = table.client(*id).unwrap().answer_ids();
            assert!(delta.entered.iter().all(|e| !before.contains(e)));
            assert!(delta.left.iter().all(|l| before.contains(l)));
        }
    }

    #[test]
    fn plain_save_persists_an_empty_subscription_table() {
        let (_, sys) = fixture(60);
        let bytes = snapshot_bytes(&sys);
        let (_, restored) =
            UvSystem::load_snapshot_with_subscriptions(&mut bytes.as_slice()).unwrap();
        assert!(restored.is_empty());
    }

    /// Re-frames the final (SUBSCRIPTIONS) section of a valid snapshot with
    /// a crafted payload, keeping the checksum consistent so the *semantic*
    /// validation — not the framing — is what rejects it.
    fn with_subscription_payload(sys: &UvSystem, payload: &[u8]) -> Vec<u8> {
        let mut bytes = snapshot_bytes(sys);
        // The empty table's section is SECTION_OVERHEAD + 8 bytes (count 0).
        bytes.truncate(bytes.len() - (SECTION_OVERHEAD as usize + 8));
        write_section(&mut bytes, tag::SUBSCRIPTIONS, payload).unwrap();
        bytes
    }

    #[test]
    fn subscription_corruption_yields_typed_errors() {
        let (_, sys) = fixture(60);
        let live = sys.objects()[0].id;

        let encode = |clients: &[(u64, Point, Vec<u32>)]| {
            let mut p = Vec::new();
            clients.len().write_to(&mut p).unwrap();
            for (id, pos, ids) in clients {
                id.write_to(&mut p).unwrap();
                pos.write_to(&mut p).unwrap();
                ids.write_to(&mut p).unwrap();
            }
            p
        };
        let expect_corrupt = |payload: Vec<u8>, what: &str| {
            let bytes = with_subscription_payload(&sys, &payload);
            match UvSystem::load_snapshot_with_subscriptions(&mut bytes.as_slice()) {
                Err(UvError::SnapshotCorrupt(msg)) => assert!(
                    msg.contains(what),
                    "expected {what:?} in the error, got {msg:?}"
                ),
                other => panic!("expected SnapshotCorrupt for {what}, got {other:?}"),
            }
        };

        let p = Point::new(10.0, 10.0);
        expect_corrupt(
            encode(&[(5, p, vec![live]), (5, p, vec![live])]),
            "not strictly ascending",
        );
        expect_corrupt(
            encode(&[(1, Point::new(f64::NAN, 0.0), vec![live])]),
            "non-finite position",
        );
        expect_corrupt(
            encode(&[(1, p, vec![live, live])]),
            "answer ids not strictly ascending",
        );
        expect_corrupt(encode(&[(1, p, vec![u32::MAX])]), "unknown object");
        let mut trailing = encode(&[(1, p, vec![live])]);
        trailing.push(0xAB);
        expect_corrupt(trailing, "trailing bytes");

        // A valid payload through the same framing still loads.
        let ok = with_subscription_payload(&sys, &encode(&[(1, p, vec![live])]));
        let (_, restored) = UvSystem::load_snapshot_with_subscriptions(&mut ok.as_slice()).unwrap();
        assert_eq!(restored.len(), 1);
    }
}
