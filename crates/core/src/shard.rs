//! Domain-sharded serving: a [`ShardedUvSystem`] splits the domain into an
//! `nx × ny` grid of shard rectangles and serves each rectangle from its own
//! [`UvSystem`], while answering every query *bit-identically* to one
//! unsharded system over the whole dataset.
//!
//! The ROADMAP names sharding as the next scaling axis, and the UV-partition
//! is already domain-decomposed: a PNN query is a point lookup, so queries
//! (and trajectory workloads, which concentrate spatially — cf. the moving
//! PNN setting of Ali et al.) route cleanly by position, and incremental
//! repair (Arseneva et al.'s locality argument) stays confined to the shards
//! an update actually touches.
//!
//! # Halo replication
//!
//! A shard must answer any query inside its rectangle without consulting its
//! neighbours, so it holds more than the objects *centred* in the rectangle:
//! it holds every object whose **influence region** intersects the
//! rectangle. The influence region is the disk `Cir(c_i, d)` with
//! `d = (prune_radius + r_i) / 2` — the inversion of the I-pruning radius
//! `2d − r_i` that PR 3's [`crate::UpdateSensitivity`] already maintains per
//! object. That disk circumscribes the object's possible region (Definition
//! 2), which in turn contains every point the object can be a PNN answer
//! for; objects replicated into a neighbouring shard's halo are exactly the
//! ones whose UV-cells cross the shard boundary. An object whose derivation
//! is globally sensitive (`prune_radius = ∞`, e.g. the degenerate co-located
//! path) is replicated everywhere.
//!
//! # Why sharded answers are bit-identical
//!
//! A shard indexes only its halo members, so its grid differs from the
//! unsharded grid — but it indexes them *from the router's reference
//! table*: a member's Algorithm 5 overlap test uses exactly the reference
//! ids and reference MBCs it has in the unsharded system (the MBCs come from
//! the router, because a reference can lie outside the halo). A shard leaf
//! over a region therefore holds exactly the halo members an unsharded leaf
//! over the same region would hold. The verification step of Section V-A
//! then makes the answer a function of the filtered candidate set, not of
//! the grid: every possible NN of a query point is in the halo of the
//! point's shard and passes the overlap test of every region containing the
//! point (Algorithm 5 never prunes an object from a region where it can be
//! a nearest neighbour), so the leaf containing the point holds all of them
//! in either system; `d_minmax` is attained by one of them, so the surviving
//! candidates and their qualification probabilities are the same set and
//! the same bits. The property suite (`tests/proptest_shard.rs`) enforces
//! this bit-exactly across {IC, ICR} × {Uniform, GaussianSkew}, before and
//! after random update batches; a property in this module's tests checks
//! that every maintained shard grid equals a cold grid-only build of that
//! shard from the router's current table.
//!
//! # The derivation-only router
//!
//! [`ShardedUvSystem`] keeps one [`DerivationRouter`] over the whole
//! dataset — the live object set, an index-only R-tree and the per-object
//! sensitivity table, with no UV-grid and no pages — and it is the only
//! thing that derives, so it is the only thing that holds an R-tree: a
//! shard's [`UvSystem::rtree`] is empty, and the R-tree baseline of
//! Figure 6 ([`UvSystem::pnn_rtree`]) runs on an unsharded system. Its
//! sensitivity bounds yield the halo radii, and
//! [`DerivationRouter::apply`] is the validated, atomic global state
//! transition (steps 1–8 of the update pipeline). Shards never derive:
//! build, in-place domain growth and reshard rebuilds index each shard's
//! halo members from the router's states (a grid-only build), and
//! [`ShardedUvSystem::apply`] repairs each touched shard's grid from the
//! router's change record restricted to the shard — replicas gained or
//! lost, kept replicas whose geometry or overlap inputs changed — through
//! the same localized repair the unsharded system runs. An object is
//! re-derived once per batch however many halos replicate it
//! ([`ShardedUpdateStats::per_shard`] reports `objects_rederived = 0`).
//! When the router grows its domain in place ([`UpdateStats::domain_grown`])
//! the shard *geometry* grows with it — only the outermost axis boundaries
//! move, interior split lines stay pinned, so interior shard rectangles are
//! bit-unchanged and the grid dimensions survive every update batch — and
//! every shard re-indexes the grown domain from the router's re-derived
//! table.
//!
//! # Elastic resharding
//!
//! The layout is elastic *between* batches: [`ShardedUvSystem::split_shard`]
//! inserts a midpoint boundary on a hot shard's longer axis and
//! [`ShardedUvSystem::merge_shards`] removes the boundary between two cold
//! axis-adjacent slabs. Both keep the layout a product grid (a split divides
//! the whole row or column; a merge fuses a whole pair), so routing stays
//! two binary axis lookups. Only the shards whose rectangles changed are
//! re-indexed from their halo member sets and the router's table — grid
//! construction only, no derivation ([`ReshardStats::rebuilt`]); every
//! other shard moves wholesale — epoch, leaf structure and safe regions
//! intact — to its new slot ([`ReshardStats::shard_map`]). Answers are
//! bit-identical to the unsharded oracle before, during and after a
//! reshard, and live [`crate::SubscriptionEngine`] clients migrate with
//! unbroken delta chains
//! ([`crate::SubscriptionEngine::refresh_after_reshard`]).
//!
//! Lock-free per-shard query/update tallies ([`ShardedUvSystem::load_stats`])
//! feed the [`ShardedUvSystem::maybe_reshard`] policy: when
//! [`crate::UvConfig::reshard_split_load`] is set, the hottest shard at or
//! above the threshold splits; otherwise, when
//! [`crate::UvConfig::reshard_merge_load`] is set, the coldest adjacent slab
//! pair at or below it merges. Tallies are *per interval*: every reshard
//! resets them, so the thresholds meter load since the last layout change.
//!
//! # Persistence
//!
//! [`ShardedUvSystem::save_snapshot`] writes one versioned header
//! ([`SHARD_MAGIC`], the [`crate::snapshot::FORMAT_VERSION`], then a META
//! section carrying the grid dimensions `nx × ny` and the exact shard-axis
//! boundaries — non-uniform after a reshard or domain growth, so they
//! cannot be recomputed from the domain) followed by framed
//! `uv_store::codec` sections: the router's slim state (config, method,
//! domain, epoch, objects and reference table; the R-tree is rebuilt on
//! load from the object set), then one section per shard holding only what
//! is the shard's own — its member ids in order, its object pages and
//! directory, its grid pages and grid state, and its construction
//! statistics. Objects, reference states, configuration and domain are
//! stored once, in the ROUTER section, and a loaded shard takes them from
//! the loaded router. Loading validates every section checksum, the grid
//! geometry and halo coverage (every member live in the router, every live
//! object in some shard) — malformed input maps to typed [`UvError`]s,
//! never a panic — and derives nothing.

use crate::builder::{mbcs_of, Method};
use crate::config::UvConfig;
use crate::engine::{fan_out, trajectory_steps, QueryEngine, StepReuse, TrajectoryStep};
use crate::router::{Change, DerivationReport, DerivationRouter, NetDiff};
use crate::snapshot::{FORMAT_VERSION, SECTION_OVERHEAD};
use crate::system::UvSystem;
use crate::update::{UpdateBatch, UpdateStats};
use crate::UvError;
use std::collections::{HashMap, HashSet};
use std::io::{Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use uv_data::{ObjectId, PnnAnswer, UncertainObject};
use uv_geom::{Circle, Point, Rect};
use uv_store::codec::{read_section, write_section, Decode, Encode};

/// Magic bytes every sharded snapshot starts with (the per-shard payloads
/// inside carry the regular [`crate::snapshot::MAGIC`]).
pub const SHARD_MAGIC: [u8; 8] = *b"UVDSHRD\0";

mod tag {
    pub const META: u8 = 1;
    pub const ROUTER: u8 = 2;
    pub const SHARD: u8 = 3;
}

/// Statistics of one update batch applied through the sharded system: the
/// router's global [`UpdateStats`] plus the per-shard reconciliation.
#[derive(Debug, Clone, Default)]
pub struct ShardedUpdateStats {
    /// The router's (global) update statistics — net inserts/deletes/moves
    /// and the global re-derivation counters. The router has no grid, so
    /// its leaf counters are zero by contract.
    pub router: UpdateStats,
    /// Per-shard grid-repair statistics, indexed by shard; untouched shards
    /// keep a default entry with their current epoch untouched. `inserted`
    /// and `deleted` count replicas gained and lost, `moved` kept replicas
    /// whose object state changed, and `objects_repartitioned` the members
    /// that entered the repair. Shards never derive: `objects_rederived`
    /// and `objects_in_knn_radius` are always 0 — the router's entry
    /// carries the batch's only derivation.
    pub per_shard: Vec<UpdateStats>,
    /// Shards whose grid was repaired (or, after domain growth, re-indexed).
    pub shards_touched: usize,
    /// Object replicas inserted across shards (membership gained: genuine
    /// inserts plus halo growth of existing objects).
    pub replicas_added: usize,
    /// Object replicas removed across shards (membership lost: genuine
    /// deletes plus halo shrinkage).
    pub replicas_removed: usize,
    /// `true` when the router grew its domain in place this batch; the shard
    /// geometry grew with it (outer boundaries only — interior rectangles
    /// are bit-unchanged) and every shard re-indexed the grown domain.
    /// Applying a batch never changes the layout otherwise: elastic
    /// resharding is a separate explicit operation
    /// ([`ShardedUvSystem::split_shard`], [`ShardedUvSystem::merge_shards`],
    /// [`ShardedUvSystem::maybe_reshard`]) reporting through
    /// [`ReshardStats`].
    pub domain_grown: bool,
}

/// Per-shard query/update tallies since the last reshard (or build /
/// snapshot load), maintained lock-free on the query paths. Indexed like
/// the shard rectangles: row-major from the south-west.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardLoadStats {
    /// PNN queries (single, batched and trajectory steps) routed to each
    /// shard as its owner. Out-of-domain queries are counted nowhere.
    pub queries: Vec<u64>,
    /// Update batches that repaired each shard's grid (net no-ops and
    /// untouched shards count zero).
    pub updates: Vec<u64>,
}

/// The outcome of one elastic reshard: how the old layout maps onto the new
/// one and which shards were rebuilt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReshardStats {
    /// For each *old* shard index: its slot in the new layout, or `None`
    /// when its rectangle changed and the shard was rebuilt. Mapped shards
    /// move wholesale — epoch, leaf structure and member set intact.
    pub shard_map: Vec<Option<usize>>,
    /// New grid width (columns).
    pub nx: usize,
    /// New grid height (rows).
    pub ny: usize,
    /// New-layout slots that were re-indexed from their halo member sets
    /// and the router's table, ascending.
    pub rebuilt: Vec<usize>,
}

/// A domain-sharded UV-diagram serving deployment: an `nx × ny` grid of
/// shard rectangles, each served by its own [`UvSystem`] over the objects
/// whose influence region intersects the rectangle (halo replication), plus
/// a slim [`DerivationRouter`] as the derivation authority. See the [module
/// docs](crate::shard) for the correctness contract.
///
/// ```
/// use uv_core::{shard::ShardedUvSystem, Method, UvConfig, UvSystem};
/// use uv_data::{Dataset, GeneratorConfig};
///
/// let ds = Dataset::generate(GeneratorConfig::paper_uniform(120));
/// let config = UvConfig::default().with_seed_knn(24).with_num_shards(2);
/// let sharded =
///     ShardedUvSystem::build(ds.objects.clone(), ds.domain, Method::IC, config).unwrap();
/// let unsharded = UvSystem::build(ds.objects.clone(), ds.domain, Method::IC, config).unwrap();
/// for q in ds.query_points(12, 7) {
///     // Routed answers are bit-identical to the unsharded system.
///     assert_eq!(sharded.pnn(q).probabilities, unsharded.pnn(q).probabilities);
/// }
/// assert_eq!(sharded.shard_count(), 4);
/// ```
#[derive(Debug)]
pub struct ShardedUvSystem {
    /// The derivation-only routing authority: objects, domain, index-only
    /// R-tree and the sensitivity table — no grid, no pages.
    router: DerivationRouter,
    /// Grid width (columns) and height (rows). Uniform `num_shards ×
    /// num_shards` at build; elastic resharding makes them diverge.
    nx: usize,
    ny: usize,
    /// The `nx × ny` shard rectangles, row-major from the south-west.
    rects: Vec<Rect>,
    /// Cached split coordinates of the two axes (the exact values the
    /// rectangles were built from), so per-query routing allocates nothing.
    bounds_x: Vec<f64>,
    bounds_y: Vec<f64>,
    /// One serving system per rectangle, over its halo member set.
    shards: Vec<UvSystem>,
    /// Lock-free per-shard tallies since the last reshard: queries routed
    /// to each owner, and non-empty reconciliation batches applied.
    query_loads: Vec<AtomicU64>,
    update_loads: Vec<AtomicU64>,
}

/// Influence radius of one object: the radius of the disk circumscribing its
/// possible region, inverted from the I-pruning radius `2d − r_i` the
/// sensitivity bound stores. `None` means globally sensitive — the object is
/// replicated into every shard.
fn influence_radius(o: &UncertainObject, router: &DerivationRouter) -> Option<f64> {
    let state = router.object_state(o.id)?;
    let prune_radius = state.sensitivity().prune_radius;
    if !prune_radius.is_finite() {
        return None;
    }
    // prune_radius = 2d − r_i, so d = (prune_radius + r_i) / 2; the possible
    // region contains the uncertainty region itself, so d ≥ r_i — the max
    // guards the (unreachable) clamped case.
    Some((0.5 * (prune_radius + o.radius())).max(o.radius()))
}

/// The split coordinates of one axis: `side + 1` monotone boundaries with
/// the domain edges kept exact (no accumulated float drift at the rim).
fn axis_bounds(lo: f64, hi: f64, side: usize) -> Vec<f64> {
    let step = (hi - lo) / side as f64;
    let mut bounds: Vec<f64> = (0..=side).map(|k| lo + step * k as f64).collect();
    bounds[0] = lo;
    bounds[side] = hi;
    bounds
}

/// Index of the axis interval containing `v` under closed-edge semantics: a
/// value exactly on an interior boundary belongs to the lower (south/west)
/// interval — the same `<=` tie-break [`crate::UvIndex`]'s `locate_leaf`
/// uses on its split lines, and consistent with [`Rect::contains`] treating
/// boundaries as inside.
fn axis_index(bounds: &[f64], v: f64) -> usize {
    let side = bounds.len() - 1;
    for k in 0..side {
        if v <= bounds[k + 1] {
            return k;
        }
    }
    side - 1
}

/// The shard rectangles spanned by two (possibly non-uniform, possibly
/// different-length) axis boundary vectors, row-major from the south-west,
/// sharing exact boundary coordinates with [`axis_index`].
fn rects_from_bounds(xs: &[f64], ys: &[f64]) -> Vec<Rect> {
    let nx = xs.len() - 1;
    let ny = ys.len() - 1;
    let mut rects = Vec::with_capacity(nx * ny);
    for iy in 0..ny {
        for ix in 0..nx {
            rects.push(Rect::new(xs[ix], ys[iy], xs[ix + 1], ys[iy + 1]));
        }
    }
    rects
}

/// Domain growth on one shard axis: only the two outermost boundaries move
/// out to the grown domain edge. Interior split lines stay pinned, so every
/// interior shard rectangle survives bit-unchanged and only the border ring
/// absorbs the new territory.
fn extend_axis_bounds(bounds: &mut [f64], lo: f64, hi: f64) {
    bounds[0] = bounds[0].min(lo);
    let last = bounds.len() - 1;
    bounds[last] = bounds[last].max(hi);
}

/// Fresh (zeroed) lock-free tallies for `n` shards.
fn zero_loads(n: usize) -> Vec<AtomicU64> {
    (0..n).map(|_| AtomicU64::new(0)).collect()
}

/// Halo member sets: for every shard rectangle, the objects whose influence
/// disk intersects it (globally sensitive objects join every shard). Every
/// live object lands in at least one shard — its influence disk contains its
/// own uncertainty region, which intersects the rectangle owning its centre.
fn shard_members(router: &DerivationRouter, rects: &[Rect]) -> Vec<Vec<UncertainObject>> {
    let mut members: Vec<Vec<UncertainObject>> = vec![Vec::new(); rects.len()];
    for o in router.objects() {
        match influence_radius(o, router) {
            None => {
                for list in members.iter_mut() {
                    list.push(o.clone());
                }
            }
            Some(radius) => {
                for (list, rect) in members.iter_mut().zip(rects) {
                    if rect.intersects_circle(o.center(), radius) {
                        list.push(o.clone());
                    }
                }
            }
        }
    }
    members
}

/// Pool workers of a per-shard fan-out: a thread per job when
/// `config.parallel`, the calling thread otherwise. Shard builds, batched
/// query routing, update reconciliation and reshard rebuilds all use it.
fn shard_workers(config: &UvConfig) -> usize {
    if config.parallel {
        usize::MAX
    } else {
        1
    }
}

/// Indexes one shard system per member set from `router`'s table — grid
/// construction only, on scoped threads when the configuration allows.
/// Every shard indexes the *full* domain so `locate_leaf` works for any
/// point its rectangle can receive. `mbcs` must cover every live object.
fn build_shard_systems(
    member_sets: Vec<Vec<UncertainObject>>,
    router: &DerivationRouter,
    mbcs: &HashMap<ObjectId, Circle>,
) -> Vec<UvSystem> {
    fan_out(shard_workers(&router.config), member_sets, |(), members| {
        UvSystem::routed(members, router, mbcs)
    })
}

/// One shard's share of a routed batch, every list ascending.
#[derive(Debug, Default)]
struct ShardDelta {
    /// Replicas gained: genuine inserts plus halo growth.
    added: Vec<ObjectId>,
    /// Replicas lost: genuine deletes plus halo shrinkage.
    removed: Vec<ObjectId>,
    /// Kept replicas whose object state changed.
    moved: Vec<ObjectId>,
    /// Kept replicas the router re-derived (their states are copied over).
    refreshed: Vec<ObjectId>,
    /// Kept replicas whose overlap-test inputs changed.
    dirty: Vec<ObjectId>,
}

impl ShardDelta {
    /// `true` when the shard's grid needs no repair.
    fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty() && self.dirty.is_empty()
    }
}

/// Splits a routed change into per-shard deltas, diffing halo
/// membership only for the *candidate* ids whose membership can have
/// changed — never rescanning the whole object set. Membership is a
/// function of an object's geometry (changed only for the batch's own
/// ids) and its influence radius (changed only through a
/// re-derivation, which the router reports); everything else provably
/// kept its replicas. Returns the deltas with the live candidates by id.
fn shard_deltas<'r>(
    router: &'r DerivationRouter,
    shards: &[UvSystem],
    rects: &[Rect],
    change: &Change,
) -> (Vec<ShardDelta>, HashMap<ObjectId, &'r UncertainObject>) {
    let mut candidates: Vec<ObjectId> = change
        .inserted
        .iter()
        .chain(&change.deleted)
        .chain(&change.changed)
        .chain(&change.stats.rederived_ids)
        .copied()
        .collect();
    candidates.sort_unstable();
    candidates.dedup();
    let live: HashMap<ObjectId, &UncertainObject> = router
        .objects()
        .iter()
        .filter(|o| candidates.binary_search(&o.id).is_ok())
        .map(|o| (o.id, o))
        .collect();
    let mut deltas: Vec<ShardDelta> = (0..shards.len()).map(|_| ShardDelta::default()).collect();
    for id in &candidates {
        let current = live.get(id).copied(); // None = deleted
        let changed = change.changed.binary_search(id).is_ok();
        let memberships = current.map(|o| match influence_radius(o, router) {
            None => vec![true; rects.len()],
            Some(radius) => rects
                .iter()
                .map(|rect| rect.intersects_circle(o.center(), radius))
                .collect(),
        });
        for (s, delta) in deltas.iter_mut().enumerate() {
            // The shards are still pre-batch here (only the router has
            // applied), so current replica membership is an O(1) lookup
            // against the shard's own state table.
            let was = shards[s].object_state(*id).is_some();
            let now = memberships.as_ref().is_some_and(|m| m[s]);
            match (was, now) {
                (false, true) => delta.added.push(*id),
                (true, false) => delta.removed.push(*id),
                (true, true) => {
                    if changed {
                        delta.moved.push(*id);
                    }
                    delta.refreshed.push(*id);
                }
                (false, false) => {}
            }
        }
    }
    // Kept replicas whose overlap inputs changed — re-derived with new
    // references, moved, or referencing moved geometry (the router's
    // repartition-only subjects, which are no membership candidates).
    for id in &change.dirty {
        for (s, delta) in deltas.iter_mut().enumerate() {
            if shards[s].object_state(*id).is_some() && delta.removed.binary_search(id).is_err() {
                delta.dirty.push(*id);
            }
        }
    }
    (deltas, live)
}

/// Applies one shard's share of a routed batch: replica set, object store
/// and router states first, then the grid — a localized repair, or a full
/// grid-only re-index when the router grew the domain (`regrown`). Nothing
/// here derives, so nothing here packs an R-tree.
fn reconcile_shard(
    shard: &mut UvSystem,
    delta: ShardDelta,
    router: &DerivationRouter,
    live: &HashMap<ObjectId, &UncertainObject>,
    mbcs: &HashMap<ObjectId, Circle>,
    regrown: bool,
) -> UpdateStats {
    let mut stats = UpdateStats {
        epoch: shard.index.epoch,
        inserted: delta.added.len(),
        deleted: delta.removed.len(),
        moved: delta.moved.len(),
        objects_repartitioned: delta.dirty.len() + delta.added.len() + delta.removed.len(),
        domain_grown: regrown,
        ..UpdateStats::default()
    };
    let table = &mut shard.router;
    let replicas = NetDiff {
        deleted: &delta.removed,
        changed: delta.moved.iter().map(|id| live[id]).collect(),
        inserted: delta.added.iter().map(|id| live[id]).collect(),
    };
    if !replicas.is_empty() {
        replicas.apply_to(&mut table.objects);
        replicas.apply_to_store(&mut shard.object_store);
    }
    for id in &delta.removed {
        table.ref_table.remove(id);
    }
    for id in delta.added.iter().chain(&delta.refreshed) {
        table.ref_table.insert(*id, router.ref_table[id].clone());
    }
    if regrown {
        table.domain = router.domain;
        shard.reindex_grid(mbcs, &DerivationReport::default());
        stats.leaves_refined = shard.index.num_leaf_nodes();
        stats.total_leaves = shard.index.num_leaf_nodes();
        stats.epoch = shard.index.epoch;
        stats.repaired_rects = vec![router.domain];
    } else if !delta.is_empty() {
        let entry_dirty: HashSet<ObjectId> = delta.moved.iter().copied().collect();
        shard.repair_grid(
            mbcs,
            &delta.added,
            &delta.removed,
            &delta.dirty,
            &entry_dirty,
            &mut stats,
        );
    }
    shard.router.epoch = shard.index.epoch;
    stats
}

impl ShardedUvSystem {
    /// Builds the sharded system: the derivation-only router over the full
    /// dataset (the build's only derivation), then the `config.num_shards ×
    /// config.num_shards` shard grids over their halo member sets, indexed
    /// from the router's table (in parallel when `config.parallel`). A
    /// configuration failing [`UvConfig::validate`] is a typed error, never
    /// a panic.
    pub fn build(
        objects: Vec<UncertainObject>,
        domain: Rect,
        method: Method,
        config: UvConfig,
    ) -> Result<Self, UvError> {
        let router = DerivationRouter::build(objects, domain, method, config)?;
        let side = config.num_shards;
        let bounds_x = axis_bounds(domain.min_x, domain.max_x, side);
        let bounds_y = axis_bounds(domain.min_y, domain.max_y, side);
        let rects = rects_from_bounds(&bounds_x, &bounds_y);
        let mbcs = mbcs_of(&router.objects);
        let shards = build_shard_systems(shard_members(&router, &rects), &router, &mbcs);
        Ok(Self {
            router,
            nx: side,
            ny: side,
            query_loads: zero_loads(rects.len()),
            update_loads: zero_loads(rects.len()),
            rects,
            bounds_x,
            bounds_y,
            shards,
        })
    }

    /// Grid dimensions `(nx, ny)` — columns and rows of the shard layout.
    /// Equal at build (`num_shards` each); elastic resharding makes them
    /// diverge.
    pub fn grid_dims(&self) -> (usize, usize) {
        (self.nx, self.ny)
    }

    /// Total number of shards (`nx × ny`).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard rectangles, row-major from the south-west.
    pub fn shard_rects(&self) -> &[Rect] {
        &self.rects
    }

    /// The serving system of shard `idx`. A shard never derives, so it
    /// holds no R-tree: its [`UvSystem::rtree`] is empty and its
    /// [`UvSystem::pnn_rtree`] gives the empty answer — run the Figure 6
    /// baseline on an unsharded [`UvSystem`].
    pub fn shard(&self, idx: usize) -> &UvSystem {
        &self.shards[idx]
    }

    /// The derivation-only router: the update authority holding the live
    /// object set, the domain and the per-object sensitivity table — and
    /// nothing else (no grid, no pages).
    pub fn router(&self) -> &DerivationRouter {
        &self.router
    }

    /// Serialized size of the router's section inside a sharded snapshot
    /// (section header plus the [`DerivationRouter::state_bytes`] payload).
    /// The `shard` experiment subtracts this from the snapshot total and
    /// adds back a full unsharded snapshot to reconstruct what the retired
    /// full-`UvSystem`-router layout would have cost — the footprint win
    /// its memory gate enforces.
    pub fn router_snapshot_bytes(&self) -> u64 {
        SECTION_OVERHEAD + self.router.state_bytes()
    }

    /// The live object set (the router's view — shard member lists replicate
    /// subsets of it).
    pub fn objects(&self) -> &[UncertainObject] {
        self.router.objects()
    }

    /// The indexed domain.
    pub fn domain(&self) -> Rect {
        self.router.domain()
    }

    /// The configuration every subsystem was built with.
    pub fn config(&self) -> &UvConfig {
        self.router.config()
    }

    /// The construction method.
    pub fn method(&self) -> Method {
        self.router.method()
    }

    /// Objects derived by the shards themselves since build or load: zero,
    /// because a shard only ever indexes from the router's table. The
    /// `shard` experiment reports it and fails when it is not.
    pub fn shard_derivations(&self) -> u64 {
        self.shards.iter().map(|s| s.router.derivations()).sum()
    }

    /// Total object replicas across shards divided by the live object count:
    /// `1.0` means no halo replication at all, `nx·ny` full replication. The
    /// halo-overhead statistic the `shard` experiment reports is this
    /// minus one.
    pub fn replication_factor(&self) -> f64 {
        let replicas: usize = self.shards.iter().map(|s| s.objects().len()).sum();
        replicas as f64 / self.router.objects().len().max(1) as f64
    }

    /// The shard owning query point `q` under closed-edge semantics (a point
    /// exactly on a shard split line belongs to the south/west shard, the
    /// same tie-break the grid's `locate_leaf` uses), or `None` when `q`
    /// lies outside the domain.
    pub fn owner_of(&self, q: Point) -> Option<usize> {
        if !self.domain().contains(q) {
            return None;
        }
        Some(axis_index(&self.bounds_y, q.y) * self.nx + axis_index(&self.bounds_x, q.x))
    }

    /// The per-shard query/update tallies since the last reshard (or build
    /// / snapshot load). Lock-free reads of the live counters.
    pub fn load_stats(&self) -> ShardLoadStats {
        ShardLoadStats {
            queries: self
                .query_loads
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            updates: self
                .update_loads
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
        }
    }

    /// Answers a PNN query through the owning shard — bit-identical
    /// (probabilities, candidate counts) to the unsharded [`UvSystem::pnn`].
    pub fn pnn(&self, q: Point) -> PnnAnswer {
        match self.owner_of(q) {
            Some(s) => {
                self.query_loads[s].fetch_add(1, Ordering::Relaxed);
                self.shards[s].pnn(q)
            }
            None => PnnAnswer::default(),
        }
    }

    /// Answers a batch of PNN queries: queries are grouped per owning shard
    /// and fanned out through each involved shard's [`crate::QueryEngine`] —
    /// on scoped threads when `config.parallel` (the same switch the shard
    /// builds and update reconciliation honour), sequentially otherwise.
    /// Answers come back in query order, bit-identical to the unsharded
    /// [`UvSystem::pnn_batch`]. Out-of-domain points get the empty answer,
    /// exactly as unsharded.
    pub fn pnn_batch(&self, queries: &[Point]) -> Vec<PnnAnswer> {
        let mut groups: Vec<Vec<(usize, Point)>> = vec![Vec::new(); self.shards.len()];
        let mut answers: Vec<PnnAnswer> = vec![PnnAnswer::default(); queries.len()];
        for (i, q) in queries.iter().enumerate() {
            if let Some(s) = self.owner_of(*q) {
                self.query_loads[s].fetch_add(1, Ordering::Relaxed);
                groups[s].push((i, *q));
            }
        }
        let jobs: Vec<(usize, Vec<(usize, Point)>)> = groups
            .into_iter()
            .enumerate()
            .filter(|(_, group)| !group.is_empty())
            .collect();
        let results = fan_out(shard_workers(self.config()), jobs, |(), (s, group)| {
            let points: Vec<Point> = group.iter().map(|(_, q)| *q).collect();
            (group, self.shards[s].pnn_batch(&points))
        });
        for (group, shard_answers) in results {
            for ((i, _), answer) in group.into_iter().zip(shard_answers) {
                answers[i] = answer;
            }
        }
        answers
    }

    /// Answers a moving-PNN trajectory. Every path point routes to its
    /// owning shard — the query re-routes at each shard-boundary crossing —
    /// while the per-step answer deltas chain across the whole path, so the
    /// steps equal the unsharded [`UvSystem::pnn_trajectory`] bit-exactly.
    ///
    /// With [`UvConfig::safe_region`] enabled (the default) the walk carries
    /// the same per-step stability disk as the unsharded engine, scoped to
    /// the current owning shard: consecutive points inside the disk reuse
    /// the cached candidate set ([`TrajectoryStep::reused`]); a
    /// shard-boundary crossing drops the disk and re-derives on the
    /// destination shard. Answers are bit-identical either way.
    pub fn pnn_trajectory(&self, path: &[Point]) -> Vec<TrajectoryStep> {
        if !self.config().safe_region {
            let answers = self.pnn_batch(path).into_iter().map(|a| (a, false));
            return trajectory_steps(path, answers.collect());
        }
        let engines: Vec<QueryEngine<'_>> = self
            .shards
            .iter()
            .map(|s| QueryEngine::new(s.index(), s.object_store()))
            .collect();
        let mut reuse: Option<StepReuse> = None;
        let mut current: Option<usize> = None;
        let mut answers = Vec::with_capacity(path.len());
        for q in path {
            let owner = self.owner_of(*q);
            if owner != current {
                reuse = None;
                current = owner;
            }
            answers.push(match owner {
                Some(s) => {
                    self.query_loads[s].fetch_add(1, Ordering::Relaxed);
                    engines[s].pnn_step(*q, &mut reuse)
                }
                None => {
                    reuse = None;
                    (PnnAnswer::default(), false)
                }
            });
        }
        trajectory_steps(path, answers)
    }

    /// Applies an update batch atomically: the router validates it and
    /// runs the derivation pipeline globally (nothing is mutated on error),
    /// then every shard whose halo members the change touches repairs its
    /// grid from the router's change record — no shard derives. When the
    /// batch grew the router's domain in place, the shard geometry grows
    /// with it first — only the outer ring of rectangles changes, every
    /// shard re-indexes the grown domain from the router's table, and the
    /// layout is never rebuilt (the grid dimensions and interior split lines
    /// stay as they are).
    pub fn apply(&mut self, batch: UpdateBatch) -> Result<ShardedUpdateStats, UvError> {
        let change = self.router.apply_change(batch)?;
        let mut stats = ShardedUpdateStats {
            router: change.stats.clone(),
            per_shard: vec![UpdateStats::default(); self.shards.len()],
            ..ShardedUpdateStats::default()
        };
        if change.is_noop() {
            return Ok(stats); // net no-op: shards keep their epochs
        }
        let regrown = change.regrown.is_some();
        if regrown {
            // In-place geometry growth: pin the interior split lines and move
            // only the outermost boundaries to the grown domain edges. The
            // grown domain is a pure function the router already computed,
            // so router, shards and rectangles agree without coordination.
            let domain = self.router.domain();
            extend_axis_bounds(&mut self.bounds_x, domain.min_x, domain.max_x);
            extend_axis_bounds(&mut self.bounds_y, domain.min_y, domain.max_y);
            self.rects = rects_from_bounds(&self.bounds_x, &self.bounds_y);
            stats.domain_grown = true;
        }
        let (deltas, live) = shard_deltas(&self.router, &self.shards, &self.rects, &change);
        for delta in &deltas {
            stats.replicas_added += delta.added.len();
            stats.replicas_removed += delta.removed.len();
        }
        let mbcs = mbcs_of(&self.router.objects);

        // Shards with a grid to repair (all of them after growth) or states
        // to refresh get a job; the rest are not visited.
        let router = &self.router;
        let jobs: Vec<(usize, &mut UvSystem, ShardDelta)> = self
            .shards
            .iter_mut()
            .zip(deltas)
            .enumerate()
            .filter(|(_, (_, delta))| regrown || !delta.is_empty() || !delta.refreshed.is_empty())
            .map(|(s, (shard, delta))| (s, shard, delta))
            .collect();
        let outcomes = fan_out(
            shard_workers(&router.config),
            jobs,
            |(), (s, shard, delta)| {
                let repaired = regrown || !delta.is_empty();
                let shard_stats = reconcile_shard(shard, delta, router, &live, &mbcs, regrown);
                (s, repaired, shard_stats)
            },
        );
        for (s, repaired, shard_stats) in outcomes {
            if repaired {
                stats.shards_touched += 1;
                self.update_loads[s].fetch_add(1, Ordering::Relaxed);
            }
            stats.per_shard[s] = shard_stats;
        }
        Ok(stats)
    }

    /// Inserts one object (a single-op batch).
    pub fn insert_object(
        &mut self,
        object: UncertainObject,
    ) -> Result<ShardedUpdateStats, UvError> {
        self.apply(UpdateBatch::new().insert(object))
    }

    /// Deletes one object (a single-op batch).
    pub fn delete_object(&mut self, id: ObjectId) -> Result<ShardedUpdateStats, UvError> {
        self.apply(UpdateBatch::new().delete(id))
    }

    /// Moves one object (a single-op batch).
    pub fn move_object(
        &mut self,
        id: ObjectId,
        center: Point,
    ) -> Result<ShardedUpdateStats, UvError> {
        self.apply(UpdateBatch::new().move_to(id, center))
    }

    /// Splits shard `idx` by inserting a midpoint boundary on its longer
    /// axis. The layout stays a product grid, so the whole row or column
    /// containing `idx` is divided: those shards are re-indexed from their
    /// halo member sets and the router's table (no derivation), every other
    /// shard moves wholesale to its new slot
    /// (epoch and leaf structure intact — see [`ReshardStats::shard_map`]).
    /// Answers stay bit-identical to the unsharded oracle; tallies reset.
    /// Out-of-range `idx`, a slab too thin to split and an axis already at
    /// its maximum resolution (1024) are typed errors that leave the
    /// deployment untouched.
    pub fn split_shard(&mut self, idx: usize) -> Result<ReshardStats, UvError> {
        if idx >= self.shards.len() {
            return Err(UvError::InvalidConfig("split_shard index out of range"));
        }
        let (ix, iy) = (idx % self.nx, idx / self.nx);
        let rect = self.rects[idx];
        let nx = self.nx;
        if rect.width() >= rect.height() {
            if nx + 1 > 1_024 {
                return Err(UvError::InvalidConfig(
                    "shard x-axis is already at its maximum resolution",
                ));
            }
            let (lo, hi) = (self.bounds_x[ix], self.bounds_x[ix + 1]);
            let mid = 0.5 * (lo + hi);
            if !(lo < mid && mid < hi) {
                return Err(UvError::InvalidConfig("shard slab is too thin to split"));
            }
            let mut xs = self.bounds_x.clone();
            xs.insert(ix + 1, mid);
            let shard_map: Vec<Option<usize>> = (0..self.shards.len())
                .map(|old| {
                    let (ox, oy) = (old % nx, old / nx);
                    if ox == ix {
                        None // the split column is rebuilt in both halves
                    } else {
                        Some(oy * (nx + 1) + if ox < ix { ox } else { ox + 1 })
                    }
                })
                .collect();
            let ys = self.bounds_y.clone();
            self.reshard_to(xs, ys, shard_map)
        } else {
            if self.ny + 1 > 1_024 {
                return Err(UvError::InvalidConfig(
                    "shard y-axis is already at its maximum resolution",
                ));
            }
            let (lo, hi) = (self.bounds_y[iy], self.bounds_y[iy + 1]);
            let mid = 0.5 * (lo + hi);
            if !(lo < mid && mid < hi) {
                return Err(UvError::InvalidConfig("shard slab is too thin to split"));
            }
            let mut ys = self.bounds_y.clone();
            ys.insert(iy + 1, mid);
            let shard_map: Vec<Option<usize>> = (0..self.shards.len())
                .map(|old| {
                    let (ox, oy) = (old % nx, old / nx);
                    if oy == iy {
                        None // the split row is rebuilt in both halves
                    } else {
                        Some((if oy < iy { oy } else { oy + 1 }) * nx + ox)
                    }
                })
                .collect();
            let xs = self.bounds_x.clone();
            self.reshard_to(xs, ys, shard_map)
        }
    }

    /// Merges two axis-adjacent shards by removing the boundary between
    /// them. The layout stays a product grid, so the whole pair of rows or
    /// columns fuses: each fused shard is rebuilt from its halo member set,
    /// every other shard moves wholesale (see [`ReshardStats::shard_map`]).
    /// Answers stay bit-identical to the unsharded oracle; tallies reset.
    /// Out-of-range, identical or non-adjacent (e.g. diagonal) indices are
    /// typed errors that leave the deployment untouched.
    pub fn merge_shards(&mut self, a: usize, b: usize) -> Result<ReshardStats, UvError> {
        if a >= self.shards.len() || b >= self.shards.len() {
            return Err(UvError::InvalidConfig("merge_shards index out of range"));
        }
        if a == b {
            return Err(UvError::InvalidConfig(
                "merge_shards requires two distinct shards",
            ));
        }
        let nx = self.nx;
        let (ax, ay) = (a % nx, a / nx);
        let (bx, by) = (b % nx, b / nx);
        if ay == by && ax.abs_diff(bx) == 1 {
            let c = ax.min(bx); // fuse columns c and c+1
            let mut xs = self.bounds_x.clone();
            xs.remove(c + 1);
            let shard_map: Vec<Option<usize>> = (0..self.shards.len())
                .map(|old| {
                    let (ox, oy) = (old % nx, old / nx);
                    if ox == c || ox == c + 1 {
                        None // every fused shard is rebuilt
                    } else {
                        Some(oy * (nx - 1) + if ox < c { ox } else { ox - 1 })
                    }
                })
                .collect();
            let ys = self.bounds_y.clone();
            self.reshard_to(xs, ys, shard_map)
        } else if ax == bx && ay.abs_diff(by) == 1 {
            let r = ay.min(by); // fuse rows r and r+1
            let mut ys = self.bounds_y.clone();
            ys.remove(r + 1);
            let shard_map: Vec<Option<usize>> = (0..self.shards.len())
                .map(|old| {
                    let (ox, oy) = (old % nx, old / nx);
                    if oy == r || oy == r + 1 {
                        None
                    } else {
                        Some((if oy < r { oy } else { oy - 1 }) * nx + ox)
                    }
                })
                .collect();
            let xs = self.bounds_x.clone();
            self.reshard_to(xs, ys, shard_map)
        } else {
            Err(UvError::InvalidConfig(
                "merge_shards requires two axis-adjacent shards",
            ))
        }
    }

    /// The elastic policy: consults the per-shard tallies against the
    /// [`UvConfig::reshard_split_load`] / [`UvConfig::reshard_merge_load`]
    /// thresholds and performs at most one reshard. When the split
    /// threshold is set and some shard's combined tally reaches it, the
    /// (first) hottest shard splits; otherwise, when the merge threshold is
    /// set, the coldest axis-adjacent slab pair at or below it merges.
    /// Returns `Ok(None)` when neither trigger fires (or both thresholds
    /// are zero — the default, resharding disabled). Tallies meter the
    /// interval since the last reshard: every reshard resets them.
    pub fn maybe_reshard(&mut self) -> Result<Option<ReshardStats>, UvError> {
        let split_at = self.config().reshard_split_load;
        let merge_at = self.config().reshard_merge_load;
        let loads = self.load_stats();
        let combined: Vec<u64> = loads
            .queries
            .iter()
            .zip(&loads.updates)
            .map(|(q, u)| q + u)
            .collect();
        if split_at > 0 {
            // Strict `>` keeps the first-encountered maximum: deterministic
            // for equal loads.
            let (hot, load) =
                combined.iter().enumerate().fold(
                    (0, 0),
                    |(bi, bl), (i, &l)| {
                        if l > bl {
                            (i, l)
                        } else {
                            (bi, bl)
                        }
                    },
                );
            if load >= split_at {
                return self.split_shard(hot).map(Some);
            }
        }
        if merge_at > 0 {
            let col_load = |c: usize| (0..self.ny).map(|r| combined[r * self.nx + c]).sum::<u64>();
            let row_load = |r: usize| (0..self.nx).map(|c| combined[r * self.nx + c]).sum::<u64>();
            // The coldest fusable pair across both axes; representatives are
            // any two axis-adjacent members, first-found wins ties.
            let mut best: Option<(u64, usize, usize)> = None;
            for c in 0..self.nx.saturating_sub(1) {
                let load = col_load(c) + col_load(c + 1);
                if best.is_none_or(|(bl, _, _)| load < bl) {
                    best = Some((load, c, c + 1));
                }
            }
            for r in 0..self.ny.saturating_sub(1) {
                let load = row_load(r) + row_load(r + 1);
                if best.is_none_or(|(bl, _, _)| load < bl) {
                    best = Some((load, r * self.nx, (r + 1) * self.nx));
                }
            }
            if let Some((load, a, b)) = best {
                if load <= merge_at {
                    return self.merge_shards(a, b).map(Some);
                }
            }
        }
        Ok(None)
    }

    /// Commits a new product-grid layout. `shard_map[old]` names the new
    /// slot of each current shard whose rectangle is unchanged (it moves
    /// wholesale — membership is a function of the rectangle, so its member
    /// set, epoch and leaf structure stay valid); unmapped slots are
    /// re-indexed from their halo member sets and the router's table.
    /// Replacement shards are built *before* any live state mutates. Tallies
    /// reset to zero.
    fn reshard_to(
        &mut self,
        bounds_x: Vec<f64>,
        bounds_y: Vec<f64>,
        shard_map: Vec<Option<usize>>,
    ) -> Result<ReshardStats, UvError> {
        let nx = bounds_x.len() - 1;
        let ny = bounds_y.len() - 1;
        let rects = rects_from_bounds(&bounds_x, &bounds_y);
        let mut claimed = vec![false; nx * ny];
        for target in shard_map.iter().flatten() {
            debug_assert!(!claimed[*target], "two old shards map to one new slot");
            claimed[*target] = true;
        }
        let rebuilt: Vec<usize> = (0..nx * ny).filter(|s| !claimed[*s]).collect();

        let mut members = shard_members(&self.router, &rects);
        let member_sets: Vec<Vec<UncertainObject>> = rebuilt
            .iter()
            .map(|&s| std::mem::take(&mut members[s]))
            .collect();
        let mbcs = mbcs_of(&self.router.objects);
        let fresh =
            rebuilt
                .iter()
                .copied()
                .zip(build_shard_systems(member_sets, &self.router, &mbcs));

        // Commit: nothing below can fail.
        let old = std::mem::take(&mut self.shards);
        let mut slots: Vec<Option<UvSystem>> = (0..nx * ny).map(|_| None).collect();
        for (old_idx, shard) in old.into_iter().enumerate() {
            if let Some(target) = shard_map[old_idx] {
                slots[target] = Some(shard);
            }
        }
        for (s, shard) in fresh {
            slots[s] = Some(shard);
        }
        self.shards = slots
            .into_iter()
            .map(|s| s.expect("every new slot is mapped or rebuilt"))
            .collect();
        self.nx = nx;
        self.ny = ny;
        self.rects = rects;
        self.bounds_x = bounds_x;
        self.bounds_y = bounds_y;
        self.query_loads = zero_loads(nx * ny);
        self.update_loads = zero_loads(nx * ny);
        Ok(ReshardStats {
            shard_map,
            nx,
            ny,
            rebuilt,
        })
    }

    /// Serialises the whole sharded deployment — the router's slim state
    /// and every shard — under one versioned header; returns the bytes
    /// written. See the [module docs](crate::shard) for the layout.
    pub fn save_snapshot<W: Write>(&self, w: &mut W) -> Result<u64, UvError> {
        w.write_all(&SHARD_MAGIC)?;
        FORMAT_VERSION.write_to(w)?;
        let mut written: u64 = SHARD_MAGIC.len() as u64 + 4;

        let mut meta = Vec::new();
        (self.nx as u64).write_to(&mut meta)?;
        (self.ny as u64).write_to(&mut meta)?;
        // The exact axis boundaries: non-uniform after a reshard or domain
        // growth, so a loader cannot recompute them from the domain alone.
        self.bounds_x.write_to(&mut meta)?;
        self.bounds_y.write_to(&mut meta)?;
        write_section(w, tag::META, &meta)?;
        written += SECTION_OVERHEAD + meta.len() as u64;

        let mut router_payload = Vec::new();
        self.router.write_state(&mut router_payload)?;
        write_section(w, tag::ROUTER, &router_payload)?;
        written += SECTION_OVERHEAD + router_payload.len() as u64;

        for shard in &self.shards {
            let mut payload = Vec::new();
            shard.write_shard_state(&mut payload)?;
            write_section(w, tag::SHARD, &payload)?;
            written += SECTION_OVERHEAD + payload.len() as u64;
        }
        w.flush()?;
        Ok(written)
    }

    /// Saves a snapshot to a file (created or truncated), returning the
    /// bytes written.
    pub fn save_snapshot_to_path<P: AsRef<Path>>(&self, path: P) -> Result<u64, UvError> {
        let file = std::fs::File::create(path)?;
        let mut w = std::io::BufWriter::new(file);
        self.save_snapshot(&mut w)
    }

    /// Loads a sharded snapshot written by
    /// [`ShardedUvSystem::save_snapshot`]: every section checksum, the grid
    /// geometry and halo coverage are validated, and every shard takes its
    /// members' objects and states, the configuration and the domain from
    /// the loaded router; malformed input is a typed [`UvError`], never a
    /// panic. Load tallies start at zero.
    pub fn load_snapshot<R: Read>(r: &mut R) -> Result<Self, UvError> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if magic != SHARD_MAGIC {
            return Err(UvError::SnapshotCorrupt(format!(
                "bad sharded-snapshot magic {magic:02x?}"
            )));
        }
        let version = u32::read_from(r)?;
        if version != FORMAT_VERSION {
            return Err(UvError::SnapshotVersionMismatch {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let meta = read_section(r, tag::META)?;
        let mut meta_slice = meta.as_slice();
        let nx = u64::read_from(&mut meta_slice)? as usize;
        let ny = u64::read_from(&mut meta_slice)? as usize;
        for (axis, dim) in [("x", nx), ("y", ny)] {
            if dim == 0 || dim > 1_024 {
                return Err(UvError::SnapshotCorrupt(format!(
                    "implausible shard grid {axis}-dimension {dim}"
                )));
            }
        }
        let bounds_x = Vec::<f64>::read_from(&mut meta_slice)?;
        let bounds_y = Vec::<f64>::read_from(&mut meta_slice)?;
        for (bounds, dim) in [(&bounds_x, nx), (&bounds_y, ny)] {
            if bounds.len() != dim + 1 {
                return Err(UvError::SnapshotCorrupt(format!(
                    "expected {} axis boundaries for grid dimension {dim}, found {}",
                    dim + 1,
                    bounds.len()
                )));
            }
            // `partial_cmp != Less` also rejects NaN boundaries (incomparable).
            if bounds
                .windows(2)
                .any(|w| w[0].partial_cmp(&w[1]) != Some(std::cmp::Ordering::Less))
            {
                return Err(UvError::SnapshotCorrupt(
                    "shard axis boundaries are not strictly increasing".into(),
                ));
            }
        }

        let router_payload = read_section(r, tag::ROUTER)?;
        let mut router_slice = router_payload.as_slice();
        let router = DerivationRouter::read_state(&mut router_slice)?;
        if !router_slice.is_empty() {
            return Err(UvError::SnapshotCorrupt(
                "trailing bytes after the router state".into(),
            ));
        }
        let domain = router.domain();
        if bounds_x[0] != domain.min_x
            || bounds_x[nx] != domain.max_x
            || bounds_y[0] != domain.min_y
            || bounds_y[ny] != domain.max_y
        {
            return Err(UvError::SnapshotCorrupt(
                "shard axis boundaries do not span the router's domain".into(),
            ));
        }

        // Halo coverage: every shard member must be live in the router
        // (checked as each section is read), and every live object must be
        // replicated somewhere.
        let live: HashMap<ObjectId, &UncertainObject> =
            router.objects().iter().map(|o| (o.id, o)).collect();
        let mut covered: HashSet<ObjectId> = HashSet::with_capacity(live.len());
        let mut shards = Vec::with_capacity(nx * ny);
        for _ in 0..nx * ny {
            let payload = read_section(r, tag::SHARD)?;
            let mut payload = payload.as_slice();
            let shard = UvSystem::read_shard_state(&router, &live, &mut payload)?;
            if !payload.is_empty() {
                return Err(UvError::SnapshotCorrupt(
                    "trailing bytes after a shard's state".into(),
                ));
            }
            covered.extend(shard.objects().iter().map(|o| o.id));
            shards.push(shard);
        }
        let mut probe = [0u8; 1];
        if r.read(&mut probe)? != 0 {
            return Err(UvError::SnapshotCorrupt(
                "trailing bytes after the final shard section".into(),
            ));
        }
        if covered.len() != live.len() {
            return Err(UvError::SnapshotCorrupt(
                "some live objects are replicated into no shard".into(),
            ));
        }

        Ok(Self {
            router,
            nx,
            ny,
            query_loads: zero_loads(nx * ny),
            update_loads: zero_loads(nx * ny),
            rects: rects_from_bounds(&bounds_x, &bounds_y),
            bounds_x,
            bounds_y,
            shards,
        })
    }

    /// Loads a sharded snapshot from a file.
    pub fn load_snapshot_from_path<P: AsRef<Path>>(path: P) -> Result<Self, UvError> {
        let file = std::fs::File::open(path)?;
        let mut r = std::io::BufReader::new(file);
        Self::load_snapshot(&mut r)
    }

    /// Resets the I/O counters of every shard (the router holds no pages,
    /// so it has none).
    pub fn reset_io(&self) {
        for shard in &self.shards {
            shard.reset_io();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use uv_data::{Dataset, GeneratorConfig};

    fn config() -> UvConfig {
        UvConfig::default()
            .with_seed_knn(24)
            .with_leaf_split_capacity(16)
            .with_num_shards(2)
    }

    fn fixture(n: usize, shards: usize) -> (Dataset, ShardedUvSystem, UvSystem) {
        let ds = Dataset::generate(GeneratorConfig::paper_uniform(n));
        let cfg = config().with_num_shards(shards);
        let sharded =
            ShardedUvSystem::build(ds.objects.clone(), ds.domain, Method::IC, cfg).unwrap();
        let unsharded = UvSystem::build(ds.objects.clone(), ds.domain, Method::IC, cfg).unwrap();
        (ds, sharded, unsharded)
    }

    fn assert_answers_match(sharded: &ShardedUvSystem, unsharded: &UvSystem, queries: &[Point]) {
        let batch = sharded.pnn_batch(queries);
        for (q, batched) in queries.iter().zip(&batch) {
            let single = sharded.pnn(*q);
            let oracle = unsharded.pnn(*q);
            assert_eq!(
                single.probabilities, oracle.probabilities,
                "sharded pnn diverged at {q:?}"
            );
            assert_eq!(single.candidates_examined, oracle.candidates_examined);
            assert_eq!(batched.probabilities, oracle.probabilities);
            assert_eq!(batched.candidates_examined, oracle.candidates_examined);
        }
    }

    /// Applying a batch never changes the layout: the grid dimensions stay,
    /// and every split line off the domain boundary is bit-unchanged (domain
    /// growth moves only the outer boundaries), so interior rectangles are
    /// bit-unchanged.
    fn assert_layout_kept(sharded: &ShardedUvSystem, dims: (usize, usize), before: &[Rect]) {
        assert_eq!(sharded.grid_dims(), dims, "apply changed the grid");
        let (nx, ny) = dims;
        for (i, (a, b)) in before.iter().zip(sharded.shard_rects()).enumerate() {
            let (ix, iy) = (i % nx, i / nx);
            for (interior, was, now) in [
                (ix > 0, a.min_x, b.min_x),
                (ix + 1 < nx, a.max_x, b.max_x),
                (iy > 0, a.min_y, b.min_y),
                (iy + 1 < ny, a.max_y, b.max_y),
            ] {
                assert!(
                    !interior || was.to_bits() == now.to_bits(),
                    "apply moved an interior split line of shard {i}"
                );
            }
        }
    }

    /// The rectangles must tile the domain exactly (no gaps, no overlap
    /// beyond shared boundaries) — checked by area.
    fn assert_rects_tile_domain(sharded: &ShardedUvSystem) {
        let domain = sharded.domain();
        let area: f64 = sharded.shard_rects().iter().map(Rect::area).sum();
        assert!(
            (area - domain.area()).abs() <= 1e-6 * domain.area(),
            "shard rects do not tile the domain"
        );
        assert!(sharded
            .shard_rects()
            .iter()
            .all(|r| domain.contains_rect(r)));
    }

    #[test]
    fn sharded_answers_match_unsharded_on_uniform_data() {
        let (ds, sharded, unsharded) = fixture(220, 2);
        assert_eq!(sharded.shard_count(), 4);
        assert!(sharded.replication_factor() >= 1.0);
        assert_answers_match(&sharded, &unsharded, &ds.query_points(40, 11));
    }

    #[test]
    fn larger_grids_still_match() {
        let (ds, sharded, unsharded) = fixture(200, 3);
        assert_eq!(sharded.shard_count(), 9);
        assert_answers_match(&sharded, &unsharded, &ds.query_points(30, 23));
    }

    #[test]
    fn split_line_queries_agree_with_closed_edge_semantics() {
        let (_, sharded, unsharded) = fixture(180, 2);
        let domain = sharded.domain();
        let cx = (domain.min_x + domain.max_x) * 0.5;
        let cy = (domain.min_y + domain.max_y) * 0.5;
        // Points exactly on the shard split lines, their crossing, and the
        // domain corners/edges (the same boundary classes `locate_leaf`'s
        // regression test probes).
        let mut boundary = vec![
            Point::new(cx, cy),
            Point::new(cx, domain.min_y + 100.0),
            Point::new(cx, domain.max_y - 100.0),
            Point::new(domain.min_x + 100.0, cy),
            Point::new(domain.max_x - 100.0, cy),
            Point::new(domain.min_x, cy),
            Point::new(domain.max_x, cy),
            Point::new(cx, domain.min_y),
            Point::new(cx, domain.max_y),
        ];
        boundary.extend(domain.corners());
        for q in &boundary {
            let owner = sharded.owner_of(*q).expect("boundary point is in-domain");
            // The owner must be the south/west shard: its closed rectangle
            // contains the point (consistent with Rect::quadrants/contains),
            // and no shard with a smaller index also contains it.
            assert!(
                sharded.shard_rects()[owner].contains(*q),
                "owner rect must contain {q:?}"
            );
            for (s, rect) in sharded.shard_rects().iter().enumerate() {
                if s >= owner {
                    break;
                }
                // Earlier (more south/west) rects may only contain the point
                // if they share the boundary — in which case the `<=`
                // tie-break must have picked the earliest one.
                assert!(
                    !rect.contains(*q) || sharded.owner_of(*q) == Some(owner),
                    "tie-break must be deterministic for {q:?}"
                );
            }
        }
        assert_answers_match(&sharded, &unsharded, &boundary);
        // Out-of-domain points return the empty answer, as unsharded.
        let outside = Point::new(domain.min_x - 50.0, cy);
        assert!(sharded.owner_of(outside).is_none());
        assert!(sharded.pnn(outside).probabilities.is_empty());
    }

    #[test]
    fn wide_halos_span_three_or_more_shards() {
        // A 3×3 grid over a modest dataset: seed-knn radii at n=160 are a
        // sizeable fraction of the domain, so many influence disks cross
        // several shard rectangles. Verify at least one object is
        // replicated into ≥3 shards and that its every replica answers
        // queries consistently (covered by the answer oracle).
        let (ds, sharded, unsharded) = fixture(160, 3);
        let mut max_replicas = 0usize;
        for o in sharded.objects() {
            let replicas = (0..sharded.shard_count())
                .filter(|s| sharded.shard(*s).objects().iter().any(|m| m.id == o.id))
                .count();
            assert!(replicas >= 1, "object {} is in no shard", o.id);
            max_replicas = max_replicas.max(replicas);
        }
        assert!(
            max_replicas >= 3,
            "expected some halo to span >= 3 shards, widest spans {max_replicas}"
        );
        assert_answers_match(&sharded, &unsharded, &ds.query_points(25, 3));
    }

    #[test]
    fn updates_route_to_touched_shards_and_stay_bit_identical() {
        let (ds, mut sharded, mut unsharded) = fixture(200, 2);
        let batch = UpdateBatch::new()
            .insert(UncertainObject::with_gaussian(
                9_000,
                Point::new(2_600.0, 7_300.0),
                20.0,
            ))
            .delete(11)
            .move_to(42, Point::new(7_700.0, 1_900.0));
        let (dims, rects) = (sharded.grid_dims(), sharded.shard_rects().to_vec());
        let stats = sharded.apply(batch.clone()).unwrap();
        unsharded.apply(batch).unwrap();
        assert_eq!(stats.router.inserted, 1);
        assert_eq!(stats.router.deleted, 1);
        assert_eq!(stats.router.moved, 1);
        assert_layout_kept(&sharded, dims, &rects);
        assert!(stats.shards_touched >= 1);
        // The router has no grid: its stats never report leaf work.
        assert_eq!(stats.router.leaves_refined, 0);
        assert_eq!(stats.router.total_leaves, 0);
        assert_answers_match(&sharded, &unsharded, &ds.query_points(30, 5));
    }

    #[test]
    fn delete_then_reinsert_round_trips_through_the_sharded_path() {
        let (ds, mut sharded, unsharded) = fixture(150, 2);
        let victim = sharded.objects()[37].clone();
        let queries = ds.query_points(20, 41);
        let before: Vec<PnnAnswer> = queries.iter().map(|q| sharded.pnn(*q)).collect();
        let membership_before: Vec<Vec<bool>> = (0..sharded.shard_count())
            .map(|s| {
                sharded
                    .shard(s)
                    .objects()
                    .iter()
                    .map(|o| o.id == victim.id)
                    .collect()
            })
            .collect();

        let del = sharded.delete_object(victim.id).unwrap();
        assert_eq!(del.router.deleted, 1);
        assert!(del.replicas_removed >= 1);
        let ins = sharded.insert_object(victim.clone()).unwrap();
        assert_eq!(ins.router.inserted, 1);
        assert!(ins.replicas_added >= 1);

        // Membership, answers and the unsharded oracle all agree again.
        let membership_after: Vec<Vec<bool>> = (0..sharded.shard_count())
            .map(|s| {
                sharded
                    .shard(s)
                    .objects()
                    .iter()
                    .map(|o| o.id == victim.id)
                    .collect()
            })
            .collect();
        assert_eq!(
            membership_before
                .iter()
                .map(|v| v.iter().filter(|x| **x).count())
                .collect::<Vec<_>>(),
            membership_after
                .iter()
                .map(|v| v.iter().filter(|x| **x).count())
                .collect::<Vec<_>>(),
            "replica placement must round-trip"
        );
        for (q, b) in queries.iter().zip(&before) {
            let a = sharded.pnn(*q);
            assert_eq!(a.probabilities, b.probabilities);
            assert_eq!(a.candidates_examined, b.candidates_examined);
        }
        assert_answers_match(&sharded, &unsharded, &queries);
    }

    #[test]
    fn domain_growth_extends_the_shard_geometry_in_place() {
        let (ds, mut sharded, mut unsharded) = fixture(120, 2);
        let outside = UncertainObject::with_uniform(
            8_000,
            Point::new(ds.domain.max_x + 700.0, ds.domain.max_y + 700.0),
            10.0,
        );
        let (dims, rects) = (sharded.grid_dims(), sharded.shard_rects().to_vec());
        let stats = sharded.insert_object(outside.clone()).unwrap();
        unsharded.insert_object(outside).unwrap();
        assert_layout_kept(&sharded, dims, &rects);
        assert!(stats.domain_grown);
        assert!(stats.router.domain_grown);
        assert_eq!(stats.router.epoch, 1);
        assert_eq!(sharded.domain(), unsharded.domain());
        assert_rects_tile_domain(&sharded);
        let domain = sharded.domain();
        for shard in 0..sharded.shard_count() {
            assert_eq!(sharded.shard(shard).domain(), domain);
        }
        // Answers match everywhere, including inside the newly annexed ring.
        let mut queries = ds.query_points(20, 9);
        queries.push(Point::new(ds.domain.max_x + 650.0, ds.domain.max_y + 650.0));
        queries.push(Point::new(ds.domain.max_x + 5.0, ds.domain.min_y + 5.0));
        assert_answers_match(&sharded, &unsharded, &queries);
    }

    #[test]
    fn domain_growth_touches_only_border_shard_geometry() {
        // On a 3×3 grid a north-east growth moves only the outermost axis
        // boundaries: every rect not on the grown border must survive
        // bit-unchanged, and the reconciliation that does reach the shards
        // is pure membership expansion — never a rebuild, eviction or move.
        let (ds, mut sharded, _) = fixture(140, 3);
        let (side, _) = sharded.grid_dims();
        let before = sharded.shard_rects().to_vec();
        let stats = sharded
            .insert_object(UncertainObject::with_uniform(
                8_100,
                Point::new(ds.domain.max_x + 900.0, ds.domain.max_y + 900.0),
                10.0,
            ))
            .unwrap();
        assert!(stats.domain_grown);
        assert_eq!(sharded.grid_dims(), (side, side));
        let after = sharded.shard_rects();
        let mut unchanged = 0usize;
        for iy in 0..side {
            for ix in 0..side {
                let idx = iy * side + ix;
                if ix + 1 < side && iy + 1 < side {
                    assert_eq!(
                        before[idx], after[idx],
                        "non-border rect ({ix},{iy}) must be bit-unchanged"
                    );
                    unchanged += 1;
                }
            }
        }
        assert_eq!(unchanged, (side - 1) * (side - 1));
        // Reconciliation is membership-only and incremental everywhere: the
        // domain-seeded re-derivation widens influence disks, so shards may
        // *gain* replicas (the grown domain makes halos larger — that is
        // genuine, reportable work, not hidden structural churn), but no
        // shard loses members, no shard moves anything, and no shard — not
        // even the one annexing the new corner — rebuilds.
        for (s, st) in stats.per_shard.iter().enumerate() {
            assert_eq!(st.epoch, 1, "shard {s} must re-index exactly once");
            assert_eq!(st.deleted, 0, "growth must not evict replicas (shard {s})");
            assert_eq!(st.moved, 0, "growth must not move replicas (shard {s})");
        }
        assert_eq!(stats.replicas_removed, 0);
    }

    #[test]
    fn trajectory_reroutes_across_shards_bit_identically() {
        let (_, sharded, unsharded) = fixture(200, 2);
        let domain = sharded.domain();
        // A diagonal path crossing both split lines several times.
        let path: Vec<Point> = (0..40)
            .map(|i| {
                let t = i as f64 / 39.0;
                Point::new(
                    domain.min_x + domain.width() * (0.05 + 0.9 * t),
                    domain.min_y + domain.height() * (0.05 + 0.9 * ((2.5 * t) % 1.0)),
                )
            })
            .collect();
        let crossings = path
            .windows(2)
            .filter(|w| sharded.owner_of(w[0]) != sharded.owner_of(w[1]))
            .count();
        assert!(crossings >= 2, "path must cross shard boundaries");
        let sharded_steps = sharded.pnn_trajectory(&path);
        let oracle_steps = unsharded.pnn_trajectory(&path);
        assert_eq!(sharded_steps.len(), oracle_steps.len());
        for (a, b) in sharded_steps.iter().zip(&oracle_steps) {
            assert_eq!(a.answer.probabilities, b.answer.probabilities);
            assert_eq!(a.delta, b.delta);
        }
    }

    #[test]
    fn io_attribution_stays_exact_across_the_shard_fanout() {
        // Per-query I/O *values* legitimately differ from the unsharded
        // system (each shard has its own page layout), but attribution must
        // stay exact: summing the returned breakdowns reproduces the
        // physical read counters across every shard store.
        let (ds, sharded, _) = fixture(220, 2);
        let queries = ds.query_points(50, 77);
        sharded.reset_io();
        let answers = sharded.pnn_batch(&queries);
        let total = uv_data::QueryBreakdown::sum(answers.iter().map(|a| &a.breakdown));
        let index_reads: u64 = (0..sharded.shard_count())
            .map(|s| sharded.shard(s).index().store().io().reads)
            .sum();
        let object_reads: u64 = (0..sharded.shard_count())
            .map(|s| sharded.shard(s).object_store().store().io().reads)
            .sum();
        assert_eq!(total.index_io, index_reads);
        assert_eq!(total.object_io, object_reads);
    }

    #[test]
    fn load_counters_track_query_and_update_routing() {
        let (ds, mut sharded, _) = fixture(150, 2);
        let zero = sharded.load_stats();
        assert_eq!(zero.queries, vec![0; 4]);
        assert_eq!(zero.updates, vec![0; 4]);

        let queries = ds.query_points(25, 7);
        let in_domain = queries
            .iter()
            .filter(|q| sharded.owner_of(**q).is_some())
            .count() as u64;
        sharded.pnn(queries[0]);
        sharded.pnn_batch(&queries);
        let loads = sharded.load_stats();
        assert_eq!(
            loads.queries.iter().sum::<u64>(),
            in_domain + 1,
            "every owned query must be tallied exactly once"
        );
        // Each tally lands on the owner shard.
        for (s, rect) in sharded.shard_rects().iter().enumerate() {
            let owned = queries
                .iter()
                .filter(|q| sharded.owner_of(**q) == Some(s))
                .count() as u64;
            let extra = u64::from(sharded.owner_of(queries[0]) == Some(s));
            assert_eq!(
                loads.queries[s],
                owned + extra,
                "tally of shard {s} {rect:?}"
            );
        }
        assert_eq!(loads.updates.iter().sum::<u64>(), 0);

        let stats = sharded
            .move_object(42, Point::new(7_700.0, 1_900.0))
            .unwrap();
        let loads = sharded.load_stats();
        assert_eq!(
            loads.updates.iter().sum::<u64>(),
            stats.shards_touched as u64,
            "one update tally per touched shard"
        );
    }

    #[test]
    fn explicit_split_and_merge_keep_answers_bit_identical() {
        let (ds, mut sharded, unsharded) = fixture(180, 2);
        let queries = ds.query_points(30, 19);
        assert_answers_match(&sharded, &unsharded, &queries);

        // Shard 3 of the 2×2 layout is square, so the split lands on x:
        // its whole column divides and the grid becomes 3×2.
        let stats = sharded.split_shard(3).unwrap();
        assert_eq!((stats.nx, stats.ny), (3, 2));
        assert_eq!(sharded.grid_dims(), (3, 2));
        assert_eq!(sharded.shard_count(), 6);
        assert_eq!(stats.shard_map, vec![Some(0), None, Some(3), None]);
        assert_eq!(stats.rebuilt, vec![1, 2, 4, 5]);
        assert_rects_tile_domain(&sharded);
        // Counters reset with the new layout.
        assert_eq!(sharded.load_stats().queries, vec![0; 6]);
        assert_answers_match(&sharded, &unsharded, &queries);

        // Merge the two split columns back: the layout returns to the exact
        // original 2×2 geometry, and answers still match the oracle.
        let rects_before = sharded.shard_rects().to_vec();
        let stats = sharded.merge_shards(1, 2).unwrap();
        assert_eq!((stats.nx, stats.ny), (2, 2));
        assert_eq!(sharded.grid_dims(), (2, 2));
        assert_eq!(
            stats.shard_map,
            vec![Some(0), None, None, Some(2), None, None]
        );
        assert_eq!(stats.rebuilt, vec![1, 3]);
        assert_rects_tile_domain(&sharded);
        assert_ne!(rects_before, sharded.shard_rects());
        assert_answers_match(&sharded, &unsharded, &queries);
        // Moved shards kept their epoch and structure (shard 0 was never
        // rebuilt across either reshard).
        assert_eq!(sharded.shard(0).epoch(), 0);
    }

    #[test]
    fn maybe_reshard_follows_the_load_policy() {
        let ds = Dataset::generate(GeneratorConfig::paper_uniform(150));

        // Split trigger: hammer one shard past the threshold.
        let cfg = config()
            .with_reshard_split_load(10)
            .with_reshard_merge_load(4);
        let mut sharded =
            ShardedUvSystem::build(ds.objects.clone(), ds.domain, Method::IC, cfg).unwrap();
        let unsharded = UvSystem::build(ds.objects.clone(), ds.domain, Method::IC, cfg).unwrap();
        let hot = sharded.shard_rects()[0].center();
        for _ in 0..9 {
            sharded.pnn(hot); // below threshold: nothing fires yet
        }
        assert!(sharded.maybe_reshard().unwrap().is_none());
        for _ in 0..3 {
            sharded.pnn(hot); // 12 ≥ 10: the hot shard must split
        }
        let stats = sharded
            .maybe_reshard()
            .unwrap()
            .expect("hot shard must split");
        assert_eq!(stats.nx * stats.ny, 6, "2×2 must grow to 6 shards");
        assert_eq!(sharded.load_stats().queries.iter().sum::<u64>(), 0);
        assert_answers_match(&sharded, &unsharded, &ds.query_points(15, 5));

        // Merge trigger: with no split threshold, an all-cold layout folds
        // back one slab pair per policy call until a single shard remains.
        let cfg = config().with_reshard_merge_load(50);
        let mut cold =
            ShardedUvSystem::build(ds.objects.clone(), ds.domain, Method::IC, cfg).unwrap();
        let merged = cold.maybe_reshard().unwrap().expect("cold pair must merge");
        assert_eq!(merged.nx * merged.ny, 2, "2×2 must shrink to 2 shards");
        while cold.shard_count() > 1 {
            assert!(cold.maybe_reshard().unwrap().is_some());
        }
        assert_eq!(cold.grid_dims(), (1, 1));
        assert!(
            cold.maybe_reshard().unwrap().is_none(),
            "nothing left to fuse"
        );
        assert_answers_match(&cold, &unsharded, &ds.query_points(15, 6));

        // Disabled thresholds (the default): the policy never fires.
        let (_, mut inert, _) = fixture(60, 2);
        for _ in 0..50 {
            inert.pnn(hot);
        }
        assert!(inert.maybe_reshard().unwrap().is_none());
    }

    #[test]
    fn reshard_rejects_invalid_operations_untouched() {
        let (_, mut sharded, _) = fixture(80, 2);
        let rects = sharded.shard_rects().to_vec();
        // Diagonal, self and out-of-range merges; out-of-range split.
        for result in [
            sharded.merge_shards(0, 3),
            sharded.merge_shards(1, 1),
            sharded.merge_shards(0, 9),
            sharded.split_shard(4),
        ] {
            assert!(matches!(result, Err(UvError::InvalidConfig(_))));
        }
        assert_eq!(sharded.grid_dims(), (2, 2));
        assert_eq!(sharded.shard_rects(), rects.as_slice());
    }

    #[test]
    fn snapshot_roundtrip_preserves_every_shard() {
        let (ds, mut sharded, _) = fixture(150, 2);
        sharded
            .apply(
                UpdateBatch::new()
                    .delete(3)
                    .move_to(7, Point::new(4_300.0, 1_200.0)),
            )
            .unwrap();
        let mut bytes = Vec::new();
        let written = sharded.save_snapshot(&mut bytes).unwrap();
        assert_eq!(written, bytes.len() as u64);
        let loaded = ShardedUvSystem::load_snapshot(&mut bytes.as_slice()).unwrap();
        assert_eq!(loaded.grid_dims(), sharded.grid_dims());
        assert_eq!(loaded.shard_rects(), sharded.shard_rects());
        for s in 0..sharded.shard_count() {
            assert_eq!(
                loaded.shard(s).index().canonical_leaves(),
                sharded.shard(s).index().canonical_leaves(),
                "shard {s} grid diverged through the round-trip"
            );
            assert_eq!(loaded.shard(s).epoch(), sharded.shard(s).epoch());
        }
        // The router's slim state round-trips bit-identically.
        assert_eq!(loaded.router().epoch(), sharded.router().epoch());
        assert_eq!(loaded.router().objects(), sharded.router().objects());
        for o in sharded.router().objects() {
            let a = sharded.router().object_state(o.id).expect("saved state");
            let b = loaded.router().object_state(o.id).expect("loaded state");
            assert_eq!(a.reference_ids(), b.reference_ids(), "refs of {}", o.id);
            assert_eq!(a.sensitivity(), b.sensitivity(), "sensitivity of {}", o.id);
        }
        // Load tallies start at zero.
        assert_eq!(loaded.load_stats().queries, vec![0; 4]);
        for q in ds.query_points(20, 13) {
            let a = sharded.pnn(q);
            let b = loaded.pnn(q);
            assert_eq!(a.probabilities, b.probabilities);
            assert_eq!(a.candidates_examined, b.candidates_examined);
        }
    }

    #[test]
    fn reshard_snapshot_roundtrips_the_non_uniform_layout() {
        let (ds, mut sharded, unsharded) = fixture(120, 2);
        sharded.split_shard(0).unwrap(); // 3×2, non-uniform x-boundaries
        assert_eq!(sharded.grid_dims(), (3, 2));
        let mut bytes = Vec::new();
        sharded.save_snapshot(&mut bytes).unwrap();
        let loaded = ShardedUvSystem::load_snapshot(&mut bytes.as_slice()).unwrap();
        assert_eq!(loaded.grid_dims(), (3, 2));
        assert_eq!(loaded.shard_rects(), sharded.shard_rects());
        assert_eq!(loaded.load_stats().queries, vec![0; 6]);
        assert_answers_match(&loaded, &unsharded, &ds.query_points(15, 29));
    }

    #[test]
    fn snapshot_corruption_is_a_typed_error() {
        let (_, sharded, _) = fixture(80, 2);
        let mut bytes = Vec::new();
        sharded.save_snapshot(&mut bytes).unwrap();

        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            ShardedUvSystem::load_snapshot(&mut bad.as_slice()),
            Err(UvError::SnapshotCorrupt(_))
        ));

        // Unsupported versions, among them 6, whose shard sections are
        // whole system snapshots repeating the router's objects and states.
        for found in [6, 77u32] {
            let mut bad = bytes.clone();
            bad[8..12].copy_from_slice(&found.to_le_bytes());
            assert_eq!(
                ShardedUvSystem::load_snapshot(&mut bad.as_slice()).unwrap_err(),
                UvError::SnapshotVersionMismatch {
                    found,
                    supported: FORMAT_VERSION,
                }
            );
        }

        for cut in [5, 20, bytes.len() / 3, bytes.len() - 1] {
            let err = ShardedUvSystem::load_snapshot(&mut &bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, UvError::SnapshotCorrupt(_)),
                "truncation at {cut} gave {err:?}"
            );
        }

        let mut doubled = bytes.clone();
        doubled.extend_from_slice(&bytes);
        assert!(matches!(
            ShardedUvSystem::load_snapshot(&mut doubled.as_slice()),
            Err(UvError::SnapshotCorrupt(_))
        ));

        // A mid-stream payload flip lands in some section's checksum scope.
        let mut bad = bytes.clone();
        let mid = bytes.len() / 2;
        bad[mid] ^= 0x10;
        assert!(ShardedUvSystem::load_snapshot(&mut bad.as_slice()).is_err());
    }

    /// Every shard holds exactly its halo member set with the router's
    /// states, and its grid equals a cold grid-only build of that set from
    /// the router's current table (the same `canonical_leaves` oracle the
    /// unsharded repair is held to).
    fn assert_shards_equal_cold_grid_builds(sharded: &ShardedUvSystem) {
        let mbcs = mbcs_of(&sharded.router.objects);
        let halos = shard_members(&sharded.router, &sharded.rects);
        for (s, halo) in halos.into_iter().enumerate() {
            let shard = sharded.shard(s);
            let mut held: Vec<ObjectId> = shard.objects().iter().map(|o| o.id).collect();
            let mut want: Vec<ObjectId> = halo.iter().map(|o| o.id).collect();
            held.sort_unstable();
            want.sort_unstable();
            assert_eq!(held, want, "shard {s} holds the wrong halo");
            for o in shard.objects() {
                assert_eq!(
                    shard.object_state(o.id),
                    sharded.router.object_state(o.id),
                    "shard {s} state of {}",
                    o.id
                );
            }
            assert_eq!(shard.domain(), sharded.domain());
            let cold = UvSystem::routed(halo, &sharded.router, &mbcs);
            assert_eq!(
                shard.index().canonical_leaves(),
                cold.index().canonical_leaves(),
                "shard {s} grid diverged from a cold grid-only build"
            );
        }
        assert_eq!(sharded.shard_derivations(), 0, "a shard derived");
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

        /// Shard grids maintained through churn (with occasional inserts
        /// and moves past the domain, so it grows in place), a split and a
        /// merge equal cold grid-only builds from the router's table after
        /// every step.
        #[test]
        fn maintained_shard_grids_equal_cold_grid_only_builds(
            case in (60..110usize, 0..2u8, 0..10_000u64),
            raw_ops in prop::collection::vec(
                (0..3u8, 0..u16::MAX, -400.0..10_400.0f64, -400.0..10_400.0f64),
                24..40,
            ),
            picks in (0..16usize, 0..16usize),
        ) {
            let (n, method_pick, seed) = case;
            let method = if method_pick == 0 { Method::IC } else { Method::ICR };
            let ds = Dataset::generate(GeneratorConfig::paper_uniform(n).with_seed(seed));
            let mut sharded =
                ShardedUvSystem::build(ds.objects.clone(), ds.domain, method, config()).unwrap();
            assert_shards_equal_cold_grid_builds(&sharded);
            let mut next_id = 50_000u32;
            for (step, chunk) in raw_ops.chunks(6).enumerate() {
                let live: Vec<ObjectId> = sharded.objects().iter().map(|o| o.id).collect();
                let mut used: Vec<ObjectId> = Vec::new();
                let mut batch = UpdateBatch::new();
                for (op, pick, x, y) in chunk {
                    let target = live[*pick as usize % live.len()];
                    match op {
                        0 => {
                            batch = batch.insert(UncertainObject::with_gaussian(
                                next_id,
                                Point::new(*x, *y),
                                20.0,
                            ));
                            next_id += 1;
                        }
                        _ if used.contains(&target) => {}
                        1 if live.len() > used.len() + 20 => {
                            batch = batch.delete(target);
                            used.push(target);
                        }
                        _ => {
                            batch = batch.move_to(target, Point::new(*x, *y));
                            used.push(target);
                        }
                    }
                }
                sharded.apply(batch).unwrap();
                assert_shards_equal_cold_grid_builds(&sharded);
                if step == 1 {
                    sharded.split_shard(picks.0 % sharded.shard_count()).unwrap();
                    assert_shards_equal_cold_grid_builds(&sharded);
                }
                if step == 3 && sharded.shard_count() > 1 {
                    let (nx, _) = sharded.grid_dims();
                    let a = picks.1 % sharded.shard_count();
                    let b = if a % nx + 1 < nx { a + 1 } else { a - 1 };
                    sharded.merge_shards(a, b).unwrap();
                    assert_shards_equal_cold_grid_builds(&sharded);
                }
            }
        }
    }

    #[test]
    fn version_5_snapshots_with_shard_derived_states_are_rejected() {
        // Version 5 shard sections hold states each shard derived against
        // its own halo; they must never be mixed with router states.
        let (_, sharded, _) = fixture(60, 2);
        let mut bytes = Vec::new();
        sharded.save_snapshot(&mut bytes).unwrap();
        bytes[8..12].copy_from_slice(&5u32.to_le_bytes());
        assert_eq!(
            ShardedUvSystem::load_snapshot(&mut bytes.as_slice()).unwrap_err(),
            UvError::SnapshotVersionMismatch {
                found: 5,
                supported: FORMAT_VERSION,
            }
        );
    }

    #[test]
    fn invalid_config_is_rejected_without_panicking() {
        let ds = Dataset::generate(GeneratorConfig::paper_uniform(40));
        let bad = UvConfig::default().with_num_shards(0);
        assert!(matches!(
            ShardedUvSystem::build(ds.objects.clone(), ds.domain, Method::IC, bad),
            Err(UvError::InvalidConfig(_))
        ));
    }
}
