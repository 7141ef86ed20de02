//! Domain-sharded serving: a [`ShardedUvSystem`] splits the domain into a
//! product grid of shard rectangles and serves each rectangle from its own
//! [`UvSystem`], while answering every query *bit-identically* to one
//! unsharded system over the whole dataset. A PNN query is a point lookup,
//! so queries (and trajectories, which concentrate spatially — cf. the
//! moving PNN setting of Ali et al.) route cleanly by position, and repair
//! (Arseneva et al.'s locality argument) stays in the shards a batch touches.
//!
//! # Halo replication
//!
//! A shard answers every query inside its rectangle alone, so it holds every
//! object whose **influence region** intersects the rectangle: the disk
//! `Cir(c_i, d)` with `d = (prune_radius + r_i) / 2`, the inversion of the
//! I-pruning radius `2d − r_i` that [`crate::UpdateSensitivity`] maintains
//! per object. That disk circumscribes the object's possible region
//! (Definition 2), which contains every point the object can answer for. An
//! object whose derivation is globally sensitive (`prune_radius = ∞`, e.g.
//! the degenerate co-located path) is replicated everywhere.
//!
//! # Why sharded answers are bit-identical
//!
//! A shard indexes only its halo members, but *from the router's reference
//! table*: a member's Algorithm 5 overlap test uses exactly the reference
//! ids and MBCs it has in the unsharded system (the MBCs come from the
//! router, because a reference can lie outside the halo). So a shard leaf
//! holds exactly the halo members an unsharded leaf over the same region
//! would hold. Every possible NN of a query point is in the halo of the
//! point's shard and in every region containing the point (Algorithm 5
//! never prunes an object where it can be a nearest neighbour), and
//! `d_minmax` is attained by one of them, so the verification of Section
//! V-A yields the same candidates and the same probability bits. The
//! property suite (`tests/proptest_shard.rs`) enforces this across {IC,
//! ICR} × {Uniform, GaussianSkew} under random update batches, and this
//! module's tests check every maintained shard grid against a cold
//! grid-only build from the router's table.
//!
//! # The derivation-only router
//!
//! One [`DerivationRouter`] over the whole dataset — objects, an index-only
//! R-tree and the sensitivity table, no grid and no pages — is the only
//! thing that derives and the only R-tree: a shard's [`UvSystem::rtree`] is
//! empty, so the Figure 6 baseline ([`UvSystem::pnn_rtree`]) runs unsharded.
//! [`DerivationRouter::apply`] is the validated, atomic global transition
//! (update steps 1–8). Build, domain growth and reshard rebuilds index each
//! shard's halo from the router's states, and [`ShardedUvSystem::apply`]
//! repairs each touched shard from the router's change record restricted
//! to the shard, through the grid-repair step the unsharded system runs; an
//! object is derived once per batch however many halos hold it. When the
//! router grows its domain in place, only the layout's outermost boundaries
//! move: interior rectangles stay bit-unchanged, the grid dimensions survive
//! every batch, and every shard re-indexes the grown domain.
//!
//! # Routing
//!
//! The shard grid is one crate-internal type, `Layout`: the exact split
//! coordinates of both axes and the rectangles they span, row-major from
//! the south-west. A point's owner ([`ShardedUvSystem::owner_of`]) takes two
//! axis lookups under closed-edge semantics — a point on a split line
//! belongs to the south/west shard, the `<=` tie-break of `locate_leaf` —
//! and a point outside the domain, or with a NaN or infinite coordinate,
//! has none. Batches, trajectories and subscriptions of both serving types
//! run one body over a layout, the routed view of [`crate::engine`]; an
//! unsharded [`UvSystem`] is the 1×1 layout, one shard owning the domain.
//!
//! # Elastic resharding
//!
//! Between batches, [`ShardedUvSystem::split_shard`] inserts a midpoint
//! split line on a hot shard's longer axis and
//! [`ShardedUvSystem::merge_shards`] removes the one between two cold
//! axis-adjacent slabs: one axis-generic layout operation each, returning
//! the new layout (still a product grid of at most 1,024 slabs per axis)
//! and the shard map. Shards whose rectangles changed are re-indexed from
//! the router's table ([`ReshardStats::rebuilt`]); the rest move wholesale,
//! epoch and leaf structure intact ([`ReshardStats::shard_map`]), and live
//! subscriptions migrate with unbroken delta chains
//! ([`crate::SubscriptionEngine::refresh_after_reshard`]). Lock-free
//! per-shard tallies ([`ShardedUvSystem::load_stats`]), reset by every
//! reshard, feed the [`ShardedUvSystem::maybe_reshard`] policy: the hottest
//! shard at or above [`crate::UvConfig::reshard_split_load`] splits,
//! otherwise the coldest slab pair at or below
//! [`crate::UvConfig::reshard_merge_load`] merges.
//!
//! # Persistence
//!
//! [`ShardedUvSystem::save_snapshot`] writes [`SHARD_MAGIC`] and the
//! [`crate::snapshot::FORMAT_VERSION`], then framed `uv_store::codec`
//! sections: META, the layout's codec (`nx`, `ny` and both axes' exact
//! boundaries, which reshards and growth make non-uniform); the router's
//! slim state (config, method, domain, epoch, objects and reference table;
//! the R-tree is rebuilt on load); and one section per shard with only its
//! own state — member ids, object pages and directory, grid pages and
//! state, construction statistics. Loading validates every checksum, the
//! layout (1 to 1,024 slabs per axis, strictly increasing boundaries
//! spanning the router's domain) and halo coverage, maps malformed input to
//! typed [`UvError`]s, never a panic, and derives nothing. Shard slots are
//! allocated as their sections arrive, so a META section claiming a large
//! grid reserves nothing for shards the input does not hold.

#![deny(clippy::panic, clippy::unwrap_used, clippy::expect_used)]

use crate::builder::{mbcs_of, Method};
use crate::config::UvConfig;
use crate::engine::{fan_out, shard_workers, QueryEngine, RoutedView, TrajectoryStep};
use crate::router::{Change, DerivationReport, DerivationRouter, NetDiff};
use crate::snapshot::{FORMAT_VERSION, SECTION_OVERHEAD};
use crate::system::UvSystem;
use crate::update::{GridEdit, UpdateBatch, UpdateStats};
use crate::UvError;
use std::collections::{HashMap, HashSet};
use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use uv_data::{ObjectId, PnnAnswer, UncertainObject};
use uv_geom::{Circle, Point, Rect};
use uv_store::codec::{corrupt, read_section, to_bytes, write_section, Decode, Encode};

/// Magic bytes every sharded snapshot starts with (the per-shard payloads
/// inside carry the regular [`crate::snapshot::MAGIC`]).
pub const SHARD_MAGIC: [u8; 8] = *b"UVDSHRD\0";

mod tag {
    pub const META: u8 = 1;
    pub const ROUTER: u8 = 2;
    pub const SHARD: u8 = 3;
}

/// Most slabs one layout axis holds: a split past it is refused, and a
/// META section claiming more is corrupt.
const MAX_AXIS_SLABS: usize = 1_024;

/// The product grid of shard rectangles: the exact split coordinates of the
/// x and the y axis, each strictly increasing from the domain's low edge to
/// its high edge, and the rectangles they span, row-major from the
/// south-west. An unsharded system is served as the 1×1 layout, one shard
/// owning the whole domain. See the [module docs](crate::shard).
#[derive(Debug, Clone)]
pub(crate) struct Layout {
    /// Split coordinates of the x axis (`[0]`) and the y axis (`[1]`).
    bounds: [Vec<f64>; 2],
    /// The rectangles, built on first use: a layout decoded from a snapshot
    /// allocates nothing per shard before the shards are read.
    rects: OnceLock<Vec<Rect>>,
}

/// The `(low, high)` edges of `r` on the x and the y axis.
fn edges(r: Rect) -> [(f64, f64); 2] {
    [(r.min_x, r.max_x), (r.min_y, r.max_y)]
}

impl Layout {
    fn new(bounds: [Vec<f64>; 2]) -> Self {
        Self {
            bounds,
            rects: OnceLock::new(),
        }
    }

    /// `side × side` equal rectangles over `domain`, with the domain edges
    /// kept exact (no accumulated float drift at the rim).
    pub(crate) fn uniform(domain: Rect, side: usize) -> Self {
        Self::new(edges(domain).map(|(lo, hi)| {
            let step = (hi - lo) / side as f64;
            let mut bounds: Vec<f64> = (0..=side).map(|k| lo + step * k as f64).collect();
            bounds[0] = lo;
            bounds[side] = hi;
            bounds
        }))
    }

    /// Columns and rows.
    pub(crate) fn dims(&self) -> (usize, usize) {
        (self.bounds[0].len() - 1, self.bounds[1].len() - 1)
    }

    /// Number of shards (`nx × ny`).
    pub(crate) fn shard_count(&self) -> usize {
        let (nx, ny) = self.dims();
        nx * ny
    }

    /// Column and row of shard `idx`.
    fn cell(&self, idx: usize) -> [usize; 2] {
        let nx = self.dims().0;
        [idx % nx, idx / nx]
    }

    /// The rectangle the outer boundaries span: the domain.
    fn span(&self) -> Rect {
        let [xs, ys] = &self.bounds;
        Rect::new(xs[0], ys[0], xs[xs.len() - 1], ys[ys.len() - 1])
    }

    /// The shard rectangles, row-major from the south-west.
    pub(crate) fn rects(&self) -> &[Rect] {
        self.rects.get_or_init(|| {
            let [xs, ys] = &self.bounds;
            ys.windows(2)
                .flat_map(|y| {
                    xs.windows(2)
                        .map(move |x| Rect::new(x[0], y[0], x[1], y[1]))
                })
                .collect()
        })
    }

    /// The shard owning `p` under closed-edge semantics: a point on a split
    /// line belongs to the south/west shard, the `<=` tie-break of
    /// `locate_leaf`. A point with a NaN or infinite coordinate (checked
    /// first) or outside the domain has no owner.
    pub(crate) fn owner_of(&self, p: Point) -> Option<usize> {
        if !p.is_finite() || !self.span().contains(p) {
            return None;
        }
        // A point in the rim tolerance past the last boundary belongs to the
        // last slab.
        let slab = |bounds: &[f64], v: f64| {
            bounds[1..]
                .iter()
                .position(|b| v <= *b)
                .unwrap_or(bounds.len() - 2)
        };
        Some(slab(&self.bounds[1], p.y) * self.dims().0 + slab(&self.bounds[0], p.x))
    }

    /// Domain growth: only the outermost boundaries move out to `domain`'s
    /// edges, so interior rectangles survive bit-unchanged.
    pub(crate) fn grow_to(&mut self, domain: Rect) {
        for (bounds, (lo, hi)) in self.bounds.iter_mut().zip(edges(domain)) {
            let last = bounds.len() - 1;
            bounds[0] = bounds[0].min(lo);
            bounds[last] = bounds[last].max(hi);
        }
        self.rects = OnceLock::new();
    }

    /// Inserts a midpoint split line into shard `idx` on its longer axis (x
    /// on a tie), dividing the whole row or column. Returns the new layout
    /// and the shard map (see [`Layout::reslab`]); the divided slab's shards
    /// map to `None`. Out-of-range `idx`, an axis already at
    /// [`MAX_AXIS_SLABS`] and a slab too thin to split are typed errors.
    pub(crate) fn split(&self, idx: usize) -> Result<(Self, Vec<Option<usize>>), UvError> {
        let Some(rect) = self.rects().get(idx) else {
            return Err(UvError::InvalidConfig("split_shard index out of range"));
        };
        let axis = usize::from(rect.width() < rect.height());
        let k = self.cell(idx)[axis];
        let bounds = &self.bounds[axis];
        if bounds.len() > MAX_AXIS_SLABS {
            return Err(UvError::InvalidConfig(
                "shard axis is already at its maximum resolution",
            ));
        }
        let (lo, hi) = (bounds[k], bounds[k + 1]);
        let mid = 0.5 * (lo + hi);
        if !(lo < mid && mid < hi) {
            return Err(UvError::InvalidConfig("shard slab is too thin to split"));
        }
        let mut split = bounds.clone();
        split.insert(k + 1, mid);
        Ok(self.reslab(axis, split, |c| (c != k).then(|| c + usize::from(c > k))))
    }

    /// Removes the split line between two axis-adjacent shards, fusing the
    /// whole pair of rows or columns. Returns the new layout and the shard
    /// map (see [`Layout::reslab`]); both fused slabs' shards map to
    /// `None`. Out-of-range, identical or non-adjacent (e.g. diagonal)
    /// indices are typed errors.
    pub(crate) fn merge(&self, a: usize, b: usize) -> Result<(Self, Vec<Option<usize>>), UvError> {
        if a.max(b) >= self.shard_count() {
            return Err(UvError::InvalidConfig("merge_shards index out of range"));
        }
        let (ca, cb) = (self.cell(a), self.cell(b));
        let adjacent =
            |axis: usize| ca[1 - axis] == cb[1 - axis] && ca[axis].abs_diff(cb[axis]) == 1;
        let Some(axis) = (0..2).find(|&axis| adjacent(axis)) else {
            return Err(UvError::InvalidConfig(
                "merge_shards requires two distinct axis-adjacent shards",
            ));
        };
        let k = ca[axis].min(cb[axis]);
        let mut merged = self.bounds[axis].clone();
        merged.remove(k + 1);
        Ok(self.reslab(axis, merged, |c| {
            (c < k || c > k + 1).then(|| c - usize::from(c > k))
        }))
    }

    /// The layout whose `axis` has the split coordinates `bounds`, and the
    /// shard map onto it: each old shard keeps its other coordinate and
    /// moves from slab `c` of `axis` to `slab(c)`; `None` means rebuilt.
    fn reslab(
        &self,
        axis: usize,
        bounds: Vec<f64>,
        slab: impl Fn(usize) -> Option<usize>,
    ) -> (Self, Vec<Option<usize>>) {
        let mut next = self.bounds.clone();
        next[axis] = bounds;
        let next = Self::new(next);
        let nx = next.dims().0;
        let map = (0..self.shard_count())
            .map(|old| {
                let mut cell = self.cell(old);
                cell[axis] = slab(cell[axis])?;
                Some(cell[1] * nx + cell[0])
            })
            .collect();
        (next, map)
    }
}

/// The META section: `nx` and `ny` as `u64`, then the x and the y split
/// coordinates.
impl Encode for Layout {
    fn write_to<W: Write + ?Sized>(&self, w: &mut W) -> io::Result<()> {
        let (nx, ny) = self.dims();
        (nx as u64).write_to(w)?;
        (ny as u64).write_to(w)?;
        self.bounds[0].write_to(w)?;
        self.bounds[1].write_to(w)
    }
}

/// Rejects a dimension outside `1..=1,024`, a boundary count other than
/// the dimension plus one and boundaries that are not strictly increasing.
/// Whether the rim spans the domain is checked against the router.
impl Decode for Layout {
    fn read_from<R: Read + ?Sized>(r: &mut R) -> io::Result<Self> {
        let dims = [u64::read_from(r)? as usize, u64::read_from(r)? as usize];
        for (axis, dim) in ["x", "y"].into_iter().zip(dims) {
            if dim == 0 || dim > MAX_AXIS_SLABS {
                return Err(corrupt(format!(
                    "implausible shard grid {axis}-dimension {dim}"
                )));
            }
        }
        let bounds = [Vec::<f64>::read_from(r)?, Vec::<f64>::read_from(r)?];
        for (axis, dim) in bounds.iter().zip(dims) {
            if axis.len() != dim + 1 {
                return Err(corrupt(format!(
                    "expected {} axis boundaries for grid dimension {dim}, found {}",
                    dim + 1,
                    axis.len()
                )));
            }
            // `partial_cmp != Less` also rejects NaN boundaries (incomparable).
            if axis
                .windows(2)
                .any(|w| w[0].partial_cmp(&w[1]) != Some(std::cmp::Ordering::Less))
            {
                return Err(corrupt("shard axis boundaries are not strictly increasing"));
            }
        }
        Ok(Self::new(bounds))
    }
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
    /// shard as its owner. Unowned queries (outside the domain, or with a
    /// non-finite coordinate) are counted nowhere.
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

/// A domain-sharded UV-diagram serving deployment: a product grid of shard
/// rectangles, each served by its own [`UvSystem`] over the objects whose
/// influence region intersects the rectangle (halo replication), plus a
/// slim [`DerivationRouter`] as the derivation authority. See the [module
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
    /// The shard grid: uniform `num_shards × num_shards` at build, elastic
    /// after.
    pub(crate) layout: Layout,
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

/// Applies one shard's share of a routed batch: replica set, object store,
/// router states and domain first, then — when the domain grew or the
/// delta touches the grid — the grid-repair step the unsharded apply runs.
/// Nothing here derives, so nothing here packs an R-tree.
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
    table.domain = router.domain;
    if regrown || !delta.is_empty() {
        let report = DerivationReport::default(); // a shard derives nothing
        let edit = GridEdit {
            regrown: regrown.then_some(&report),
            added: &delta.added,
            removed: &delta.removed,
            dirty: &delta.dirty,
            entry_dirty: &delta.moved,
        };
        shard.repair_grid(mbcs, edit, &mut stats);
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
        let layout = Layout::uniform(domain, config.num_shards);
        let mbcs = mbcs_of(&router.objects);
        let shards = build_shard_systems(shard_members(&router, layout.rects()), &router, &mbcs);
        Ok(Self {
            router,
            query_loads: zero_loads(shards.len()),
            update_loads: zero_loads(shards.len()),
            layout,
            shards,
        })
    }

    /// Grid dimensions `(nx, ny)` — columns and rows of the shard layout.
    /// Equal at build (`num_shards` each); elastic resharding makes them
    /// diverge.
    pub fn grid_dims(&self) -> (usize, usize) {
        self.layout.dims()
    }

    /// Total number of shards (`nx × ny`).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard rectangles, row-major from the south-west.
    pub fn shard_rects(&self) -> &[Rect] {
        self.layout.rects()
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
    /// lies outside the domain or has a NaN or infinite coordinate.
    pub fn owner_of(&self, q: Point) -> Option<usize> {
        self.layout.owner_of(q)
    }

    /// The per-shard query/update tallies since the last reshard (or build
    /// / snapshot load). Lock-free reads of the live counters.
    pub fn load_stats(&self) -> ShardLoadStats {
        let read = |loads: &[AtomicU64]| loads.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        ShardLoadStats {
            queries: read(&self.query_loads),
            updates: read(&self.update_loads),
        }
    }

    /// Runs `f` on the routed view: a fresh engine per shard, the layout,
    /// and the query tallies.
    fn routed<R>(&self, f: impl FnOnce(RoutedView<'_, '_>) -> R) -> R {
        let engines: Vec<QueryEngine<'_>> = self.shards.iter().map(UvSystem::engine).collect();
        f(RoutedView {
            engines: &engines,
            layout: &self.layout,
            loads: Some(&self.query_loads),
        })
    }

    /// Answers a PNN query through the owning shard's scalar
    /// [`UvSystem::pnn`], bit-identical to the unsharded one. An unowned
    /// point (see [`ShardedUvSystem::owner_of`]) gets the empty answer and
    /// is tallied nowhere.
    pub fn pnn(&self, q: Point) -> PnnAnswer {
        match self.layout.owner_of(q) {
            Some(s) => {
                self.query_loads[s].fetch_add(1, Ordering::Relaxed);
                self.shards[s].pnn(q)
            }
            None => PnnAnswer::default(),
        }
    }

    /// Answers a batch of PNN queries through the routed view: grouped by
    /// owning shard, one thread per group when `config.parallel` and
    /// `query_workers` inside a shard. Answers come back in query order,
    /// bit-identical to the unsharded [`UvSystem::pnn_batch`]; an unowned
    /// point gets the empty answer and is tallied nowhere.
    pub fn pnn_batch(&self, queries: &[Point]) -> Vec<PnnAnswer> {
        self.routed(|view| view.pnn_batch(queries))
    }

    /// Answers a moving-PNN trajectory through the routed view's walk: each
    /// point routes to its owning shard while the answer deltas chain
    /// across the whole path, so answers and deltas equal the unsharded
    /// [`UvSystem::pnn_trajectory`] bit-exactly. With
    /// [`UvConfig::safe_region`] the walk reuses the cached candidate set
    /// inside the stability disk ([`TrajectoryStep::reused`]) and drops the
    /// disk whenever the owner changes. An unowned point gets the empty
    /// answer, is never reused and is tallied nowhere.
    pub fn pnn_trajectory(&self, path: &[Point]) -> Vec<TrajectoryStep> {
        self.routed(|view| view.pnn_trajectory(path))
    }

    /// Applies an update batch atomically: the router validates it and
    /// runs the derivation pipeline globally (nothing is mutated on error),
    /// then every shard whose halo members the change touches repairs its
    /// grid from the router's change record — no shard derives. When the
    /// batch grew the router's domain in place, the layout grows with it
    /// first — only the outer ring of rectangles changes, every shard
    /// re-indexes the grown domain from the router's table, and the layout
    /// is never rebuilt (the grid dimensions and interior split lines stay
    /// as they are).
    pub fn apply(&mut self, batch: UpdateBatch) -> Result<ShardedUpdateStats, UvError> {
        let change = self.router.apply_change(batch)?;
        let regrown = change.regrown.is_some();
        let mut stats = ShardedUpdateStats {
            router: change.stats.clone(),
            per_shard: vec![UpdateStats::default(); self.shards.len()],
            domain_grown: regrown,
            ..ShardedUpdateStats::default()
        };
        if change.is_noop() {
            return Ok(stats); // net no-op: shards keep their epochs
        }
        if regrown {
            // The grown domain is a pure function the router already
            // computed, so router, shards and layout agree without
            // coordination.
            self.layout.grow_to(self.router.domain());
        }
        let (deltas, live) = shard_deltas(&self.router, &self.shards, self.layout.rects(), &change);
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
    /// its maximum resolution (1,024 slabs) are typed errors that leave the
    /// deployment untouched.
    pub fn split_shard(&mut self, idx: usize) -> Result<ReshardStats, UvError> {
        let next = self.layout.split(idx)?;
        Ok(self.reshard_to(next))
    }

    /// Merges two axis-adjacent shards by removing the boundary between
    /// them. The layout stays a product grid, so the whole pair of rows or
    /// columns fuses: each fused shard is rebuilt from its halo member set,
    /// every other shard moves wholesale (see [`ReshardStats::shard_map`]).
    /// Answers stay bit-identical to the unsharded oracle; tallies reset.
    /// Out-of-range, identical or non-adjacent (e.g. diagonal) indices are
    /// typed errors that leave the deployment untouched.
    pub fn merge_shards(&mut self, a: usize, b: usize) -> Result<ReshardStats, UvError> {
        let next = self.layout.merge(a, b)?;
        Ok(self.reshard_to(next))
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
            let (nx, ny) = self.layout.dims();
            let col_load = |c: usize| (0..ny).map(|r| combined[r * nx + c]).sum::<u64>();
            let row_load = |r: usize| (0..nx).map(|c| combined[r * nx + c]).sum::<u64>();
            // The coldest fusable pair across both axes; representatives are
            // any two axis-adjacent members, first-found wins ties.
            let mut best: Option<(u64, usize, usize)> = None;
            for c in 0..nx.saturating_sub(1) {
                let load = col_load(c) + col_load(c + 1);
                if best.is_none_or(|(bl, _, _)| load < bl) {
                    best = Some((load, c, c + 1));
                }
            }
            for r in 0..ny.saturating_sub(1) {
                let load = row_load(r) + row_load(r + 1);
                if best.is_none_or(|(bl, _, _)| load < bl) {
                    best = Some((load, r * nx, (r + 1) * nx));
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

    /// Commits a new layout with its shard map: `shard_map[old]` names the
    /// new slot of each shard whose rectangle is unchanged (it moves
    /// wholesale: membership is a function of the rectangle); every slot no
    /// shard claims is re-indexed from its halo and the router's table,
    /// before any live state mutates. Tallies reset to zero.
    fn reshard_to(&mut self, (layout, shard_map): (Layout, Vec<Option<usize>>)) -> ReshardStats {
        let n = layout.shard_count();
        let mut claimed = vec![false; n];
        for slot in shard_map.iter().flatten() {
            claimed[*slot] = true;
        }
        let rebuilt: Vec<usize> = (0..n).filter(|s| !claimed[*s]).collect();
        let mut members = shard_members(&self.router, layout.rects());
        let member_sets: Vec<Vec<UncertainObject>> = rebuilt
            .iter()
            .map(|&s| std::mem::take(&mut members[s]))
            .collect();
        let mbcs = mbcs_of(&self.router.objects);
        let fresh = build_shard_systems(member_sets, &self.router, &mbcs);

        // Commit: every slot is either claimed by one moved shard or
        // rebuilt, so the shards sorted by slot fill the new layout.
        let mut slots: Vec<(usize, UvSystem)> = std::mem::take(&mut self.shards)
            .into_iter()
            .zip(&shard_map)
            .filter_map(|(shard, slot)| slot.map(|s| (s, shard)))
            .chain(rebuilt.iter().copied().zip(fresh))
            .collect();
        slots.sort_unstable_by_key(|(s, _)| *s);
        self.shards = slots.into_iter().map(|(_, shard)| shard).collect();
        self.query_loads = zero_loads(n);
        self.update_loads = zero_loads(n);
        let (nx, ny) = layout.dims();
        self.layout = layout;
        ReshardStats {
            shard_map,
            nx,
            ny,
            rebuilt,
        }
    }

    /// Serialises the whole sharded deployment — the layout, the router's
    /// slim state and every shard — under one versioned header; returns
    /// the bytes written. See the [module docs](crate::shard) for the
    /// layout.
    pub fn save_snapshot<W: Write>(&self, w: &mut W) -> Result<u64, UvError> {
        w.write_all(&SHARD_MAGIC)?;
        FORMAT_VERSION.write_to(w)?;
        let mut written: u64 = SHARD_MAGIC.len() as u64 + 4;
        let emit = |w: &mut W, tag: u8, payload: Vec<u8>| -> io::Result<u64> {
            write_section(w, tag, &payload)?;
            Ok(SECTION_OVERHEAD + payload.len() as u64)
        };
        written += emit(w, tag::META, to_bytes(&self.layout))?;
        let mut router_payload = Vec::new();
        self.router.write_state(&mut router_payload)?;
        written += emit(w, tag::ROUTER, router_payload)?;
        for shard in &self.shards {
            let mut payload = Vec::new();
            shard.write_shard_state(&mut payload)?;
            written += emit(w, tag::SHARD, payload)?;
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
    /// [`ShardedUvSystem::save_snapshot`]: every section checksum, the
    /// layout and halo coverage are validated, and every shard takes its
    /// members' objects and states, the configuration and the domain from
    /// the loaded router; malformed input is a typed [`UvError`], never a
    /// panic. Shard slots are allocated as their sections arrive. Load
    /// tallies start at zero.
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
        let layout = Layout::read_from(&mut read_section(r, tag::META)?.as_slice())?;

        let router_payload = read_section(r, tag::ROUTER)?;
        let mut router_slice = router_payload.as_slice();
        let router = DerivationRouter::read_state(&mut router_slice)?;
        if !router_slice.is_empty() {
            return Err(UvError::SnapshotCorrupt(
                "trailing bytes after the router state".into(),
            ));
        }
        if layout.span() != router.domain() {
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
        let mut shards = Vec::new();
        for _ in 0..layout.shard_count() {
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
            query_loads: zero_loads(shards.len()),
            update_loads: zero_loads(shards.len()),
            layout,
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
#[allow(clippy::panic, clippy::unwrap_used, clippy::expect_used)]
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

    /// Step-by-step equality of two trajectories: probabilities, candidate
    /// counts and deltas always, the reuse flags when `reuse` is set.
    fn assert_steps_match(a: &[TrajectoryStep], b: &[TrajectoryStep], reuse: bool) {
        assert_eq!(a.len(), b.len());
        for (i, (a, b)) in a.iter().zip(b).enumerate() {
            assert_eq!(a.answer.probabilities, b.answer.probabilities, "step {i}");
            assert_eq!(a.answer.candidates_examined, b.answer.candidates_examined);
            assert_eq!(a.delta, b.delta, "step {i}");
            assert!(!reuse || a.reused == b.reused, "reuse diverged at step {i}");
        }
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
        let oracle_steps = unsharded.pnn_trajectory(&path);
        assert_steps_match(&sharded.pnn_trajectory(&path), &oracle_steps, false);

        // A slow walk north-east, out past the east edge and back: most
        // steps reuse their stability disk. On the 1×1 layout every step,
        // reuse flags included, equals the unsharded walk; on larger grids
        // a crossing may legitimately re-derive where the unsharded walk
        // reused, so only the answers must match.
        let walk: Vec<Point> = (0..1_600)
            .map(|i| {
                let t = f64::from(i) / 1_599.0;
                let x = if t < 0.75 {
                    0.6 + 0.43 * t / 0.75
                } else {
                    1.03 - 0.52 * (t - 0.75)
                };
                Point::new(
                    domain.min_x + domain.width() * x,
                    domain.min_y + domain.height() * (0.3 + 0.4 * t),
                )
            })
            .collect();
        let oracle = unsharded.pnn_trajectory(&walk);
        let reused = oracle.iter().filter(|s| s.reused).count();
        assert!(
            reused * 2 > walk.len(),
            "the walk must mostly reuse ({reused})"
        );
        assert!(
            walk.iter().any(|q| !domain.contains(*q)),
            "the walk must leave"
        );
        for side in [1, 2, 3] {
            let cfg = config().with_num_shards(side);
            let objects = unsharded.objects().to_vec();
            let sharded = ShardedUvSystem::build(objects, domain, Method::IC, cfg).unwrap();
            assert_steps_match(&sharded.pnn_trajectory(&walk), &oracle, side == 1);
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
        let halos = shard_members(&sharded.router, sharded.layout.rects());
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
