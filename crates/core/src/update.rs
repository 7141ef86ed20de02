//! Dynamic maintenance: incremental insert / delete / move with localized
//! UV-partition repair.
//!
//! The paper builds the UV-index once over a frozen dataset; a live
//! deployment (fleet tracking, moving users — see `ROADMAP.md`) sees objects
//! join, leave and change position continuously, and rebuilding the whole
//! index per change is a non-starter. This module maintains a
//! [`UvSystem`] under updates with a correctness contract that is *absolute*:
//! after any update sequence, the index state — grid structure, leaf member
//! lists, and therefore every PNN answer — is **bit-identical** to a cold
//! full rebuild over the same object set.
//!
//! # How it stays exact *and* local
//!
//! 1. **Canonical structure.** The grid built by [`crate::builder`] is a pure
//!    function of the per-object reference sets (id-ordered member lists,
//!    set-determined splits), not of insertion order. Equal object state
//!    implies equal index state, so local repair towards the same state is
//!    possible at all.
//! 2. **Affected objects by sensitivity bound.** A change of object `O_j`
//!    can alter the derivation of `O_i` only if `O_j` enters or leaves one of
//!    the two index queries the derivation makes: the seed-selection k-NN or
//!    the I-pruning range query (Lemma 2). Each object therefore stores an
//!    [`crate::crobjects::UpdateSensitivity`] — the k-th neighbour distance
//!    and the I-pruning radius `2d - r_i` — and only objects whose bound
//!    admits the changed MBC are re-derived.
//! 3. **Dirty objects to dirty leaves.** Only objects whose MBC or reference
//!    set actually changed can change any Algorithm 5 overlap answer. The
//!    repair descends the grid with exact per-node deltas, re-derives member
//!    lists of touched leaves through the same machinery the builder uses,
//!    and re-evaluates the canonical split/merge condition where member
//!    counts crossed it. Untouched leaves are not read, not rewritten, not
//!    even visited.
//! 4. **Substrate rebuild.** The router's packed (STR) R-tree is
//!    bulk-reloaded from the updated object set every batch — deterministic,
//!    cheap (`O(n log n)` comparisons, no UV geometry), and it guarantees
//!    that re-derived objects see exactly the tree a cold build would query.
//!    The expensive, localized part — cr-derivation and leaf refinement — is
//!    what the affected bounds confine.
//! 5. **Live bytes only.** Every writer frees the pages it replaces before
//!    it allocates: a rewritten, split or collapsed leaf frees its page list
//!    (`UvIndex::set_node`), the re-pack frees the old tree's leaves, and
//!    the object store rewrites records in place and frees emptied pages.
//!    Stores reuse the lowest freed id first, so a churned system holds its
//!    live pages plus at most one batch's churn, and snapshots like a fresh
//!    build.
//!
//! # One pipeline
//!
//! [`UvSystem::apply`] is the system's [`crate::DerivationRouter`]
//! pipeline — validation, net diff, R-tree repack, domain growth, affected
//! set, re-derivation and the dirty diff (steps 1–8, [`crate::router`]) —
//! followed by the object store taking the net difference and one
//! grid-repair step, both driven by the change record the router returns:
//! the localized repair and budget reconciliation of this module (steps
//! 9–10), or the canonical re-index after domain growth. The sharded layer
//! runs the same halves: its router derives once, and every touched shard
//! applies its share of the record to its object store and runs the same
//! grid-repair step ([`crate::shard`]).
//!
//! # No full rebuilds
//!
//! Two situations used to abandon incremental repair for a cold rebuild;
//! both are now handled in place, so every applied batch advances the epoch
//! exactly once and leaves the index bit-identical to a cold rebuild (the
//! adversarial suite in `tests/proptest_adversarial.rs` churns both paths
//! and asserts exactly that). Arseneva et al. (*Sublinear Explicit
//! Incremental Planar Voronoi Diagrams*) show Voronoi topology admits
//! incremental maintenance; the two mechanisms here are our budget- and
//! domain-aware analogues:
//!
//! * **Domain growth** — an inserted or moved object extends beyond the
//!   indexed domain `D`. The domain grows *exponentially*: it is doubled
//!   away from every violated side until the new geometry fits, so a
//!   staircase of `K` just-outside inserts triggers only `O(log)` growth
//!   events. Because the derivation is domain-seeded (the possible region
//!   starts from the domain rectangle and the hull discretisation scales
//!   with the domain side), *every* object is re-derived under the grown
//!   domain and the grid is rebuilt canonically — but **into the live
//!   system**: the object store and R-tree carry over, the grown grid is
//!   written into the pages the old grid freed in the same page store (whose
//!   I/O counters therefore stay monotone), the epoch advances exactly
//!   once, and [`UpdateStats::domain_grown`] reports the event. The result
//!   is bit-identical to a cold build at the grown domain by construction.
//! * **Memory budget `M` binds** — when the non-leaf budget denies a split,
//!   budget allocation becomes order-dependent, so no *local* decision can
//!   reproduce it. Repair therefore runs with an **unbounded** budget first
//!   (member sets stay exact everywhere), and whenever the budget is or was
//!   bound, `crate::builder::reconcile_budget` replays the cold build's
//!   preorder allocation over the repaired tree — collapsing subtrees a
//!   bounded cold build could not afford and expanding leaves a past denial
//!   left behind — which reproduces the budget-bound cold grid exactly.
//!
//! # Epochs
//!
//! Every applied batch bumps the index [`UvIndex::epoch`]. The query
//! engine's per-leaf cache tags itself with the epoch it was filled at and
//! is bypassed on mismatch, so a reader can never be served leaf pages from
//! before an update; Rust's aliasing rules additionally make it impossible
//! to hold a live [`crate::QueryEngine`] across a mutation.

use crate::builder::{
    grow_node, make_leaf, mbcs_of, reconcile_budget, split_members, GridCtx, GrowStats, NodeBudget,
};
use crate::crobjects::UpdateSensitivity;
use crate::index::{GridNode, UvIndex};
use crate::router::DerivationReport;
use crate::system::{index_grid, UvSystem};
use crate::UvError;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use uv_data::{ObjectId, Pdf, UncertainObject};
use uv_geom::{Circle, Point, Rect};

/// Per-object state the system retains between updates: the reference ids
/// the object was indexed under and the sensitivity bound that decides when
/// a change elsewhere forces its re-derivation.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectState {
    pub(crate) reference_ids: Vec<ObjectId>,
    pub(crate) sensitivity: UpdateSensitivity,
}

impl ObjectState {
    /// The reference objects (cr- or r-objects, per the construction method)
    /// the object is indexed under.
    pub fn reference_ids(&self) -> &[ObjectId] {
        &self.reference_ids
    }

    /// The affected-object bound of this object's derivation.
    pub fn sensitivity(&self) -> &UpdateSensitivity {
        &self.sensitivity
    }
}

/// Id-indexed [`ObjectState`] of every live object.
pub(crate) type RefTable = HashMap<ObjectId, ObjectState>;

/// One update operation.
#[derive(Debug, Clone)]
pub enum UpdateOp {
    /// Add a new object (its id must be unused).
    Insert(UncertainObject),
    /// Remove an existing object.
    Delete(ObjectId),
    /// Move an existing object's uncertainty region to a new centre
    /// (radius and pdf are kept).
    Move {
        /// The object to move.
        id: ObjectId,
        /// The new centre of its uncertainty region.
        center: Point,
    },
}

/// A batch of update operations, applied atomically as one epoch.
///
/// Ops are applied in order against a shadow of the current object set, so a
/// batch may delete an id and re-insert it; only the *net* difference to the
/// object set drives index repair.
#[derive(Debug, Clone, Default)]
pub struct UpdateBatch {
    pub(crate) ops: Vec<UpdateOp>,
}

impl UpdateBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues an insert.
    pub fn insert(mut self, object: UncertainObject) -> Self {
        self.ops.push(UpdateOp::Insert(object));
        self
    }

    /// Queues a delete.
    pub fn delete(mut self, id: ObjectId) -> Self {
        self.ops.push(UpdateOp::Delete(id));
        self
    }

    /// Queues a move.
    pub fn move_to(mut self, id: ObjectId, center: Point) -> Self {
        self.ops.push(UpdateOp::Move { id, center });
        self
    }

    /// Number of queued operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` when no operations are queued.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// Statistics of one applied update batch — in particular the *locality*
/// counters the churn experiment reports: how many leaves the repair
/// actually rewrote versus the leaf count a full rebuild would have written.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UpdateStats {
    /// Net object insertions.
    pub inserted: usize,
    /// Net object deletions.
    pub deleted: usize,
    /// Net object geometry changes (moves).
    pub moved: usize,
    /// Objects whose reference derivation was repeated (affected set).
    pub objects_rederived: usize,
    /// Re-derivations among [`UpdateStats::objects_rederived`] that reused
    /// the subject's stored possible region and ran no clip: subjects only
    /// re-pruned ([`crate::ChangeImpact::Reprune`]) whose fresh seeds were
    /// their stored ones.
    pub regions_reused: usize,
    /// Objects the plain k-NN-radius bound alone (the PR-3 rule, without
    /// the seed-sector prefilter) would have re-derived. The difference to
    /// [`UpdateStats::objects_rederived`] is the work the prefilter skipped.
    pub objects_in_knn_radius: usize,
    /// Objects whose derivation or geometry actually changed, i.e. that
    /// entered the grid repair.
    pub objects_repartitioned: usize,
    /// Leaf page lists written by the repair (rebuilt, split-produced or
    /// merge-produced). A full rebuild writes every leaf.
    pub leaves_refined: usize,
    /// Leaves that split into subtrees.
    pub leaves_split: usize,
    /// Internal nodes collapsed back into leaves.
    pub leaves_merged: usize,
    /// Leaf count of the index after the update.
    pub total_leaves: usize,
    /// `true` when the batch extended the indexed domain in place: an
    /// inserted or moved object landed outside `D`, the domain was grown
    /// exponentially to cover it and every object was re-derived under the
    /// grown domain (the derivation is domain-seeded), with the object
    /// store, R-tree pages and epoch sequence carrying over.
    pub domain_grown: bool,
    /// Index epoch after the update.
    pub epoch: u64,
    /// Ids whose derivation was repeated this batch (the affected set of
    /// [`UpdateStats::objects_rederived`]). The sharded serving layer diffs
    /// halo membership for exactly these objects (plus the batch's own ids)
    /// instead of rescanning the whole object set — membership depends only
    /// on an object's geometry and its sensitivity, and the sensitivity can
    /// only change through a re-derivation.
    pub(crate) rederived_ids: Vec<ObjectId>,
    /// Regions of every leaf page list the repair rewrote (split products,
    /// merge survivors and plain content rewrites alike — all leaf writes
    /// flow through the builder's `make_leaf`). A PNN answer can only have
    /// changed at query points inside one of these rectangles, which is what
    /// lets [`crate::subscribe::SubscriptionEngine::refresh_after`] re-derive
    /// only the subscriptions whose safe region touches a repaired leaf.
    /// Domain growth re-derives everything, so it reports the grown domain.
    pub(crate) repaired_rects: Vec<Rect>,
}

impl UpdateStats {
    /// Fraction of the index's leaves the repair rewrote (1.0 when the
    /// domain grew in place, since every leaf is re-derived). The churn
    /// experiment's locality criterion is that this stays at or below 0.1
    /// for a 1% churn step.
    pub fn refine_fraction(&self) -> f64 {
        self.leaves_refined as f64 / self.total_leaves.max(1) as f64
    }

    /// Regions of the leaf page lists this batch rewrote — the update's
    /// invalidation footprint. Query answers are unchanged at every point
    /// outside these rectangles; after domain growth the footprint is the
    /// whole (grown) domain.
    pub fn repaired_regions(&self) -> &[Rect] {
        &self.repaired_rects
    }
}

/// What the grid-repair step ([`UvSystem::repair_grid`]) applies, ids
/// ascending: `added` newly indexed, `removed` no longer indexed, `dirty`
/// surviving members whose overlap inputs changed, `entry_dirty` members
/// whose leaf entry bytes (MBC or record pointer) changed. `regrown` holds
/// the derivation behind the states when the domain grew (empty for a
/// shard, which derives nothing); the grid is then re-indexed whole.
pub(crate) struct GridEdit<'e> {
    pub(crate) regrown: Option<&'e DerivationReport>,
    pub(crate) added: &'e [ObjectId],
    pub(crate) removed: &'e [ObjectId],
    pub(crate) dirty: &'e [ObjectId],
    pub(crate) entry_dirty: &'e [ObjectId],
}

/// Fluent update handle borrowing a [`UvSystem`]: queue inserts, deletes and
/// moves, then [`Updater::commit`] them as one atomic batch.
///
/// ```
/// use uv_core::UvSystem;
/// use uv_data::{Dataset, GeneratorConfig, UncertainObject};
/// use uv_geom::Point;
///
/// let ds = Dataset::generate(GeneratorConfig::paper_uniform(120));
/// let mut system = UvSystem::with_defaults(ds.objects.clone(), ds.domain);
/// let stats = system
///     .updater()
///     .insert(UncertainObject::with_uniform(500, Point::new(1_000.0, 2_000.0), 20.0))
///     .delete(3)
///     .move_to(7, Point::new(4_321.0, 1_234.0))
///     .commit()
///     .unwrap();
/// assert_eq!((stats.inserted, stats.deleted, stats.moved), (1, 1, 1));
/// assert_eq!(system.index().epoch(), 1);
/// ```
#[derive(Debug)]
pub struct Updater<'a> {
    system: &'a mut UvSystem,
    batch: UpdateBatch,
}

impl<'a> Updater<'a> {
    pub(crate) fn new(system: &'a mut UvSystem) -> Self {
        Self {
            system,
            batch: UpdateBatch::new(),
        }
    }

    /// Queues an insert.
    pub fn insert(mut self, object: UncertainObject) -> Self {
        self.batch = self.batch.insert(object);
        self
    }

    /// Queues a delete.
    pub fn delete(mut self, id: ObjectId) -> Self {
        self.batch = self.batch.delete(id);
        self
    }

    /// Queues a move.
    pub fn move_to(mut self, id: ObjectId, center: Point) -> Self {
        self.batch = self.batch.move_to(id, center);
        self
    }

    /// Number of queued operations.
    pub fn pending(&self) -> usize {
        self.batch.len()
    }

    /// Applies the queued operations as one atomic batch.
    pub fn commit(self) -> Result<UpdateStats, UvError> {
        self.system.apply(self.batch)
    }
}

impl UvSystem {
    /// Starts a fluent update batch against this system.
    pub fn updater(&mut self) -> Updater<'_> {
        Updater::new(self)
    }

    /// Inserts one object (a single-op [`UpdateBatch`]).
    pub fn insert_object(&mut self, object: UncertainObject) -> Result<UpdateStats, UvError> {
        self.apply(UpdateBatch::new().insert(object))
    }

    /// Deletes one object (a single-op [`UpdateBatch`]).
    pub fn delete_object(&mut self, id: ObjectId) -> Result<UpdateStats, UvError> {
        self.apply(UpdateBatch::new().delete(id))
    }

    /// Moves one object (a single-op [`UpdateBatch`]).
    pub fn move_object(&mut self, id: ObjectId, center: Point) -> Result<UpdateStats, UvError> {
        self.apply(UpdateBatch::new().move_to(id, center))
    }

    /// Applies an update batch atomically: validates every op against a
    /// shadow of the object set (nothing is mutated on error), computes the
    /// net object-set difference, and repairs the UV-partition locally.
    /// Domain growth is handled in place (exponential extension plus a
    /// canonical re-derivation that keeps the stores and epoch sequence) and
    /// a bound non-leaf budget by post-repair reconciliation — an update
    /// never falls back to a full rebuild. Bumps the index epoch exactly
    /// once when the net difference is non-empty.
    ///
    /// Steps 1–8 are the system's [`crate::DerivationRouter`] pipeline,
    /// which also repacks the R-tree; the object store then takes the net
    /// difference, as a shard's does, and the grid-repair step every shard
    /// shares does the rest.
    pub fn apply(&mut self, batch: UpdateBatch) -> Result<UpdateStats, UvError> {
        let change = self.router.apply_change(batch)?;
        change
            .net_diff(&self.router.objects)
            .apply_to_store(&mut self.object_store);
        let noop = change.is_noop();
        let mut stats = change.stats;
        stats.total_leaves = self.index.num_leaf_nodes();
        if !noop {
            let edit = GridEdit {
                regrown: change.regrown.as_ref(),
                added: &change.inserted,
                removed: &change.deleted,
                dirty: &change.dirty,
                entry_dirty: &change.changed,
            };
            self.repair_grid(&mbcs_of(&self.router.objects), edit, &mut stats);
        }
        Ok(stats)
    }

    /// The grid-repair step every applied batch ends with, unsharded or on
    /// a shard; advances the epoch by one. After domain growth the grid is
    /// rebuilt canonically from the system's states (no derivation) into
    /// the pages the old grid frees in the same store; otherwise steps 9–10
    /// repair it locally and reconcile the budget. Overlap tests take MBCs
    /// from `mbcs`, which must cover every referenced object. Fills the leaf
    /// counters, repaired rectangles, epoch and leaf total of `stats`.
    pub(crate) fn repair_grid(
        &mut self,
        mbcs: &HashMap<ObjectId, Circle>,
        edit: GridEdit<'_>,
        stats: &mut UpdateStats,
    ) {
        if let Some(report) = edit.regrown {
            let epoch = self.index.epoch + 1;
            // The grown grid reuses the old grid's freed pages in the same
            // store, whose counters must stay monotone across the batch.
            self.index.free_leaves();
            let store = Arc::clone(self.index.store());
            (self.index, self.construction) =
                index_grid(&self.router, &self.object_store, mbcs, report, store);
            self.index.epoch = epoch;
            stats.leaves_refined = self.index.num_leaf_nodes();
            stats.total_leaves = self.index.num_leaf_nodes();
            stats.epoch = epoch;
            stats.repaired_rects = vec![self.router.domain];
            return;
        }
        let entry_dirty: HashSet<ObjectId> = edit.entry_dirty.iter().copied().collect();
        let ctx = GridCtx {
            mbcs,
            object_store: &self.object_store,
            states: &self.router.ref_table,
        };

        // ---- 9. Localized grid repair ------------------------------------
        // Root-level delta classification.
        let domain = self.router.domain;
        let root_members: HashSet<ObjectId> = match &self.index.nodes[0] {
            GridNode::Leaf { object_ids, .. } | GridNode::Internal { object_ids, .. } => {
                object_ids.iter().copied().collect()
            }
            // Every build, repair and load keeps the root live.
            #[allow(clippy::unreachable)]
            GridNode::Free => unreachable!("the root is never free"),
        };
        let mut added_root: Vec<ObjectId> = Vec::new();
        let mut removed_root: Vec<ObjectId> = Vec::new();
        let mut changed_root: Vec<ObjectId> = Vec::new();
        for id in edit.added {
            if ctx.overlaps(*id, &domain) {
                added_root.push(*id);
            }
        }
        for id in edit.removed {
            if root_members.contains(id) {
                removed_root.push(*id);
            }
        }
        for id in edit.dirty {
            match (root_members.contains(id), ctx.overlaps(*id, &domain)) {
                (true, true) => changed_root.push(*id),
                (true, false) => removed_root.push(*id),
                (false, true) => added_root.push(*id),
                (false, false) => {}
            }
        }

        let prev_budget_bound = self.index.budget_bound;
        let mut repairer = Repairer {
            ctx,
            entry_dirty: &entry_dirty,
            grow: GrowStats::default(),
            merges: 0,
        };
        repairer.repair(
            &mut self.index,
            0,
            &added_root,
            &removed_root,
            &changed_root,
        );
        let Repairer {
            ctx,
            mut grow,
            mut merges,
            ..
        } = repairer;

        // ---- 10. Budget reconciliation & epoch ---------------------------
        // The repair above ran with an unbounded budget, so member sets are
        // exact everywhere but the tree may exceed the non-leaf cap `M` —
        // and if a *previous* build or batch was denied a split, the tree
        // may also contain overflowing leaves a freed-up budget would now
        // expand. Replaying the cold build's preorder allocation restores
        // the bounded canonical structure in both cases. When the budget
        // never bound and the repaired tree fits the cap, no cold-build
        // decision point can differ, so the replay is skipped entirely.
        if prev_budget_bound || self.index.nonleaf_count > self.router.config.max_nonleaf {
            merges += reconcile_budget(&mut self.index, &ctx, &mut grow);
        }
        stats.leaves_refined = grow.leaves_built;
        stats.leaves_split = grow.splits;
        stats.leaves_merged = merges;
        stats.repaired_rects = grow.leaf_rects;
        self.index.epoch += 1;
        stats.epoch = self.index.epoch;
        stats.total_leaves = self.index.num_leaf_nodes();
    }
}

/// The domain-growth policy: doubles the domain away from every violated
/// side until `needed` fits. Growth is exponential so a staircase of `K`
/// just-outside inserts costs `O(log)` growth events, and the result is a
/// pure function of (current domain, needed rectangle) — any cold-rebuild
/// oracle agrees on the grown domain without coordination. Applied by the
/// pipeline in [`crate::router`].
pub(crate) fn grow_domain(mut domain: Rect, needed: &Rect) -> Rect {
    while !domain.contains_rect(needed) {
        let w = domain.width().max(1.0);
        let h = domain.height().max(1.0);
        if needed.min_x < domain.min_x {
            domain.min_x -= w;
        }
        if needed.max_x > domain.max_x {
            domain.max_x += w;
        }
        if needed.min_y < domain.min_y {
            domain.min_y -= h;
        }
        if needed.max_y > domain.max_y {
            domain.max_y += h;
        }
    }
    domain
}

/// Validation of the domain a build starts from or a snapshot persists:
/// every edge finite and `min < max` on both axes. [`grow_domain`] compares
/// against these edges, and from a NaN edge it would never stop growing.
pub(crate) fn validate_domain(domain: &Rect) -> Result<(), UvError> {
    let edges = [domain.min_x, domain.min_y, domain.max_x, domain.max_y];
    if edges.iter().all(|e| e.is_finite())
        && domain.min_x < domain.max_x
        && domain.min_y < domain.max_y
    {
        Ok(())
    } else {
        Err(UvError::InvalidConfig(
            "the domain needs finite edges and min < max on both axes",
        ))
    }
}

/// Validation of an object entering the system, by a build or an insert:
/// finite centre, finite non-negative radius, and a histogram pdf with at
/// least one bar, every bar finite and non-negative. Bars need not sum to
/// one: a truncated Gaussian's sum to less. Applied by both builds and by
/// the pipeline in [`crate::router`].
pub(crate) fn validate_object(o: &UncertainObject) -> Result<(), UvError> {
    let c = o.center();
    let pdf_ok = match &o.pdf {
        Pdf::Uniform => true,
        Pdf::Histogram { bars } => {
            !bars.is_empty() && bars.iter().all(|b| b.is_finite() && *b >= 0.0)
        }
    };
    if !c.x.is_finite()
        || !c.y.is_finite()
        || !o.radius().is_finite()
        || o.radius() < 0.0
        || !pdf_ok
    {
        return Err(UvError::InvalidObject(o.id));
    }
    Ok(())
}

/// Validation of a build's objects: each passes [`validate_object`] and no
/// id repeats.
pub(crate) fn validate_objects(objects: &[UncertainObject]) -> Result<(), UvError> {
    let mut ids = HashSet::with_capacity(objects.len());
    for o in objects {
        validate_object(o)?;
        if !ids.insert(o.id) {
            return Err(UvError::DuplicateObject(o.id));
        }
    }
    Ok(())
}

/// Merges a node's member list with its delta, keeping ascending id order
/// (the canonical member order).
fn merged_members(old: &[ObjectId], added: &[ObjectId], removed: &[ObjectId]) -> Vec<ObjectId> {
    let gone: HashSet<ObjectId> = removed.iter().copied().collect();
    let mut out: Vec<ObjectId> = old
        .iter()
        .filter(|id| !gone.contains(id))
        .copied()
        .collect();
    out.extend_from_slice(added);
    out.sort_unstable();
    out
}

/// Recursive grid repair. Node deltas obey a strict contract established by
/// the parent: `added` pass the node's overlap test and are not members,
/// `removed` are members to drop, `changed` are members that stay members of
/// *this* node but whose entries or deeper membership may differ.
struct Repairer<'a> {
    ctx: GridCtx<'a>,
    entry_dirty: &'a HashSet<ObjectId>,
    grow: GrowStats,
    merges: usize,
}

impl Repairer<'_> {
    fn repair(
        &mut self,
        index: &mut UvIndex,
        node: usize,
        added: &[ObjectId],
        removed: &[ObjectId],
        changed: &[ObjectId],
    ) {
        if added.is_empty() && removed.is_empty() && changed.is_empty() {
            return;
        }
        let region = index.node_regions[node];
        match &index.nodes[node] {
            GridNode::Leaf { object_ids, .. } => {
                let new_members = merged_members(object_ids, added, removed);
                let list_changed = !added.is_empty() || !removed.is_empty();
                if split_members(index, &self.ctx, &region, &new_members).is_some() {
                    // The canonical structure wants a subtree here now (the
                    // member count grew past the capacity, or a changed
                    // reference set flipped the split fraction). Repair runs
                    // with an unbounded budget so the member sets come out
                    // exact; the caller replays the cold build's preorder
                    // allocation afterwards (`reconcile_budget`) if the
                    // non-leaf cap could bind.
                    let mut budget = NodeBudget::unbounded();
                    grow_node(
                        index,
                        node,
                        new_members,
                        &self.ctx,
                        &mut self.grow,
                        &mut budget,
                    );
                } else if list_changed || changed.iter().any(|id| self.entry_dirty.contains(id)) {
                    make_leaf(index, node, new_members, &self.ctx, &mut self.grow);
                }
            }
            GridNode::Internal {
                children,
                object_ids,
            } => {
                let children = *children;
                let new_members = merged_members(object_ids, added, removed);
                // Classify the delta against each child's region and current
                // member set; this also yields the children's new member
                // counts, which decide whether this node keeps its subtree.
                let mut child_added: [Vec<ObjectId>; 4] = Default::default();
                let mut child_removed: [Vec<ObjectId>; 4] = Default::default();
                let mut child_changed: [Vec<ObjectId>; 4] = Default::default();
                let mut new_counts = [0usize; 4];
                for k in 0..4 {
                    let child = children[k] as usize;
                    let child_region = index.node_regions[child];
                    let members: HashSet<ObjectId> = match &index.nodes[child] {
                        GridNode::Leaf { object_ids, .. }
                        | GridNode::Internal { object_ids, .. } => {
                            object_ids.iter().copied().collect()
                        }
                        // As below: the slots reachable from the root are
                        // live (see `UvIndex::height`).
                        #[allow(clippy::unreachable)]
                        GridNode::Free => unreachable!("children are never free"),
                    };
                    for id in added {
                        if self.ctx.overlaps(*id, &child_region) {
                            child_added[k].push(*id);
                        }
                    }
                    for id in removed {
                        if members.contains(id) {
                            child_removed[k].push(*id);
                        }
                    }
                    for id in changed {
                        match (members.contains(id), self.ctx.overlaps(*id, &child_region)) {
                            (true, true) => child_changed[k].push(*id),
                            (true, false) => child_removed[k].push(*id),
                            (false, true) => child_added[k].push(*id),
                            (false, false) => {}
                        }
                    }
                    new_counts[k] = members.len() + child_added[k].len() - child_removed[k].len();
                }
                let min_child = new_counts.iter().min().copied().unwrap_or(0);
                let keep_split = new_members.len() > index.split_capacity()
                    && (min_child as f64) / (new_members.len() as f64)
                        < index.config().split_threshold;
                if keep_split {
                    if let GridNode::Internal { object_ids, .. } = &mut index.nodes[node] {
                        *object_ids = new_members;
                    }
                    for k in 0..4 {
                        self.repair(
                            index,
                            children[k] as usize,
                            &child_added[k],
                            &child_removed[k],
                            &child_changed[k],
                        );
                    }
                } else {
                    // The canonical structure is a leaf here now: collapse
                    // the subtree and rebuild the member list as one page
                    // list.
                    index.free_children(node);
                    index.nonleaf_count -= 1;
                    self.merges += 1;
                    make_leaf(index, node, new_members, &self.ctx, &mut self.grow);
                }
            }
            // The repair descends from the root along child links, and the
            // slots reachable from the root are live (see `UvIndex::height`).
            #[allow(clippy::unreachable)]
            GridNode::Free => unreachable!("free nodes are unreachable from the root"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DerivationRouter, Method, ShardedUvSystem, UvConfig};
    use uv_data::{Dataset, GeneratorConfig};

    fn system(n: usize, config: UvConfig) -> (Dataset, UvSystem) {
        let ds = Dataset::generate(GeneratorConfig::paper_uniform(n));
        let sys = UvSystem::build(ds.objects.clone(), ds.domain, Method::IC, config).unwrap();
        (ds, sys)
    }

    /// Canonical view of the grid for structural comparison (the shared
    /// [`UvIndex::canonical_leaves`] oracle).
    fn canonical_leaves(sys: &UvSystem) -> Vec<crate::index::CanonicalLeaf> {
        sys.index().canonical_leaves()
    }

    fn assert_matches_cold_rebuild(sys: &UvSystem) {
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
            "incrementally maintained grid diverged from a cold rebuild"
        );
        let queries = Dataset::generate(GeneratorConfig::paper_uniform(10)).query_points(25, 99);
        for q in queries {
            let a = sys.pnn(q);
            let b = rebuilt.pnn(q);
            assert_eq!(a.probabilities, b.probabilities, "answers differ at {q:?}");
            assert_eq!(a.candidates_examined, b.candidates_examined);
        }
    }

    #[test]
    fn insert_delete_move_match_cold_rebuild() {
        let (ds, mut sys) = system(150, UvConfig::default().with_leaf_split_capacity(24));
        let stats = sys
            .updater()
            .insert(UncertainObject::with_gaussian(
                900,
                Point::new(2_500.0, 2_500.0),
                20.0,
            ))
            .delete(17)
            .move_to(42, Point::new(7_400.0, 1_200.0))
            .commit()
            .unwrap();
        assert_eq!(stats.inserted, 1);
        assert_eq!(stats.deleted, 1);
        assert_eq!(stats.moved, 1);
        assert_eq!(stats.epoch, 1);
        assert_eq!(sys.index().epoch(), 1);
        assert_eq!(sys.objects().len(), ds.objects.len());
        assert_matches_cold_rebuild(&sys);
    }

    #[test]
    fn empty_batch_and_net_noop_do_not_bump_epoch() {
        let (ds, mut sys) = system(80, UvConfig::default());
        let stats = sys.apply(UpdateBatch::new()).unwrap();
        assert_eq!(stats.epoch, 0);
        assert_eq!(sys.index().epoch(), 0);
        // Delete + identical reinsert nets to nothing.
        let original = ds.objects[5].clone();
        let stats = sys
            .apply(UpdateBatch::new().delete(5).insert(original))
            .unwrap();
        assert_eq!(stats.inserted + stats.deleted + stats.moved, 0);
        assert_eq!(sys.index().epoch(), 0);
        // A move to the same position is also a net no-op.
        let c = ds.objects[9].center();
        let stats = sys.move_object(9, c).unwrap();
        assert_eq!(stats.moved, 0);
        assert_eq!(sys.index().epoch(), 0);
    }

    #[test]
    fn validation_rejects_bad_ops_without_mutating() {
        let (_, mut sys) = system(60, UvConfig::default());
        let before = canonical_leaves(&sys);
        assert_eq!(
            sys.delete_object(999).unwrap_err(),
            UvError::UnknownObject(999)
        );
        assert_eq!(
            sys.insert_object(UncertainObject::with_uniform(
                3,
                Point::new(100.0, 100.0),
                5.0
            ))
            .unwrap_err(),
            UvError::DuplicateObject(3)
        );
        assert_eq!(
            sys.move_object(2, Point::new(f64::NAN, 0.0)).unwrap_err(),
            UvError::InvalidObject(2)
        );
        // (A negative radius cannot occur: `Circle::new` clamps it to zero.)
        assert_eq!(
            sys.insert_object(UncertainObject::with_uniform(
                700,
                Point::new(f64::INFINITY, 0.0),
                1.0
            ))
            .unwrap_err(),
            UvError::InvalidObject(700)
        );
        // A failing op later in a batch must leave earlier ops unapplied.
        let err = sys.apply(
            UpdateBatch::new()
                .delete(1)
                .move_to(55_555, Point::new(1.0, 1.0)),
        );
        assert_eq!(err.unwrap_err(), UvError::UnknownObject(55_555));
        assert_eq!(sys.objects().len(), 60);
        assert_eq!(canonical_leaves(&sys), before);
        assert_eq!(sys.index().epoch(), 0);
    }

    /// Every kind of object a build or an insert must reject, with the
    /// error it gets: a NaN centre, a negative radius, a negative, NaN or
    /// infinite bar, no bars at all.
    fn bad_objects() -> Vec<UncertainObject> {
        let good = || UncertainObject::with_gaussian(900, Point::new(5_000.0, 5_000.0), 20.0);
        let with_bars = |bars: Vec<f64>| UncertainObject {
            pdf: Pdf::Histogram { bars },
            ..good()
        };
        let mut nan_centre = good();
        nan_centre.region.center.y = f64::NAN;
        let mut negative_radius = good();
        negative_radius.region.radius = -1.0;
        let mut negative_bar = vec![0.0; 20];
        (negative_bar[0], negative_bar[19]) = (-0.3, 1.0);
        vec![
            nan_centre,
            negative_radius,
            with_bars(negative_bar),
            with_bars(vec![0.5, f64::NAN, 0.5]),
            with_bars(vec![0.5, f64::INFINITY]),
            with_bars(Vec::new()),
        ]
    }

    #[test]
    fn unsharded_build_rejects_invalid_and_duplicate_objects() {
        let ds = Dataset::generate(GeneratorConfig::paper_uniform(60));
        let build = |objects| UvSystem::build(objects, ds.domain, Method::IC, UvConfig::default());
        for bad in bad_objects() {
            let mut objects = ds.objects.clone();
            objects.push(bad);
            assert_eq!(build(objects).unwrap_err(), UvError::InvalidObject(900));
        }
        let mut objects = ds.objects.clone();
        objects.push(UncertainObject {
            id: 7,
            ..objects[3].clone()
        });
        assert_eq!(build(objects).unwrap_err(), UvError::DuplicateObject(7));
        // Bars need not sum to one.
        let mut objects = ds.objects.clone();
        objects.push(UncertainObject::new(
            900,
            Point::new(5_000.0, 5_000.0),
            20.0,
            Pdf::Histogram {
                bars: vec![0.2, 0.3],
            },
        ));
        assert!(build(objects).is_ok());
    }

    #[test]
    fn sharded_build_rejects_invalid_and_duplicate_objects() {
        let ds = Dataset::generate(GeneratorConfig::paper_uniform(60));
        let config = UvConfig::default().with_num_shards(2);
        let build = |objects| ShardedUvSystem::build(objects, ds.domain, Method::IC, config);
        for bad in bad_objects() {
            let mut objects = ds.objects.clone();
            objects.push(bad);
            assert_eq!(build(objects).unwrap_err(), UvError::InvalidObject(900));
        }
        let mut objects = ds.objects.clone();
        objects.push(UncertainObject {
            id: 7,
            ..objects[3].clone()
        });
        assert_eq!(build(objects).unwrap_err(), UvError::DuplicateObject(7));
    }

    #[test]
    fn every_build_rejects_a_non_finite_or_inverted_domain() {
        let ds = Dataset::generate(GeneratorConfig::paper_uniform(40));
        let good = ds.domain;
        let bad_domains = [
            Rect {
                min_x: f64::NAN,
                ..good
            },
            Rect {
                max_y: f64::NAN,
                ..good
            },
            Rect {
                max_x: f64::INFINITY,
                ..good
            },
            Rect {
                min_y: f64::NEG_INFINITY,
                ..good
            },
            Rect {
                min_x: good.max_x,
                max_x: good.min_x,
                ..good
            },
            Rect {
                min_y: good.max_y,
                max_y: good.min_y,
                ..good
            },
        ];
        let config = UvConfig::default().with_num_shards(2);
        for domain in bad_domains {
            let objects = || ds.objects.clone();
            let errors = [
                UvSystem::build(objects(), domain, Method::IC, config).unwrap_err(),
                ShardedUvSystem::build(objects(), domain, Method::IC, config).unwrap_err(),
                DerivationRouter::build(objects(), domain, Method::IC, config).unwrap_err(),
            ];
            for err in errors {
                assert!(
                    matches!(err, UvError::InvalidConfig(_)),
                    "{domain:?}: {err:?}"
                );
            }
        }
    }

    #[test]
    fn growth_past_the_largest_finite_coordinate_is_rejected() {
        let (_, mut sys) = system(40, UvConfig::default());
        let (domain, before) = (sys.domain(), canonical_leaves(&sys));
        // Doubling the east edge toward 1.7e308 would pass f64::MAX.
        let far = UncertainObject::with_uniform(900, Point::new(1.7e308, 5_000.0), 10.0);
        assert_eq!(
            sys.insert_object(far).unwrap_err(),
            UvError::InvalidObject(900)
        );
        assert_eq!((sys.domain(), sys.index().epoch()), (domain, 0));
        assert_eq!(canonical_leaves(&sys), before);
        // Growth that stays finite is applied, and the system reloads.
        let far = UncertainObject::with_uniform(901, Point::new(1.0e308, 5_000.0), 10.0);
        assert!(sys.insert_object(far).unwrap().domain_grown);
        let mut bytes = Vec::new();
        sys.save_snapshot(&mut bytes).unwrap();
        let loaded = UvSystem::load_snapshot(&mut bytes.as_slice()).unwrap();
        assert_eq!(loaded.domain(), sys.domain());
    }

    #[test]
    fn insert_rejects_invalid_objects_without_mutating() {
        let (_, mut sys) = system(60, UvConfig::default());
        let before = canonical_leaves(&sys);
        for bad in bad_objects() {
            assert_eq!(
                sys.insert_object(bad).unwrap_err(),
                UvError::InvalidObject(900)
            );
        }
        assert_eq!(canonical_leaves(&sys), before);
        assert_eq!(sys.index().epoch(), 0);
    }

    #[test]
    fn delete_then_reinsert_in_separate_batches_restores_state() {
        let (ds, mut sys) = system(120, UvConfig::default().with_leaf_split_capacity(24));
        let before = canonical_leaves(&sys);
        let victim = ds.objects[33].clone();
        sys.delete_object(33).unwrap();
        assert_ne!(canonical_leaves(&sys), before);
        assert_matches_cold_rebuild(&sys);
        sys.insert_object(victim).unwrap();
        assert_eq!(canonical_leaves(&sys), before);
        assert_eq!(sys.index().epoch(), 2);
        assert_matches_cold_rebuild(&sys);
    }

    #[test]
    fn domain_growth_extends_the_grid_in_place() {
        let (ds, mut sys) = system(80, UvConfig::default());
        let outside = UncertainObject::with_uniform(
            800,
            Point::new(ds.domain.max_x + 500.0, ds.domain.max_y + 500.0),
            10.0,
        );
        let stats = sys.insert_object(outside).unwrap();
        assert!(stats.domain_grown);
        assert_eq!(stats.epoch, 1);
        assert!(sys
            .domain()
            .contains_rect(&sys.objects().last().unwrap().mbr()));
        assert!(sys.domain().max_x >= ds.domain.max_x + 510.0);
        assert_matches_cold_rebuild(&sys);
    }

    #[test]
    fn staircase_growth_amortizes_to_one_growth_event() {
        // Exponential expansion: the first just-outside insert doubles the
        // domain, which then swallows the rest of the staircase.
        let (ds, mut sys) = system(80, UvConfig::default());
        let mut growths = 0;
        for k in 1..=6u32 {
            let o = UncertainObject::with_uniform(
                800 + k,
                Point::new(ds.domain.max_x + f64::from(k) * 50.0, 5_000.0),
                5.0,
            );
            let stats = sys.insert_object(o).unwrap();
            assert_eq!(stats.epoch, u64::from(k));
            growths += usize::from(stats.domain_grown);
        }
        assert_eq!(growths, 1, "staircase must not grow on every step");
        assert_matches_cold_rebuild(&sys);
    }

    #[test]
    fn budget_bound_index_repairs_in_place() {
        // A tiny non-leaf budget makes canonical budget allocation
        // order-dependent; the updater repairs unbounded and then replays
        // the cold build's preorder allocation instead of rebuilding.
        let (_, mut sys) = system(
            400,
            UvConfig::default()
                .with_max_nonleaf(1)
                .with_leaf_split_capacity(16),
        );
        assert!(sys.index().num_nonleaf_nodes() <= 1);
        let stats = sys.move_object(0, Point::new(5_001.0, 5_002.0)).unwrap();
        assert_eq!(stats.epoch, 1);
        assert!(!stats.domain_grown);
        assert_matches_cold_rebuild(&sys);
    }

    #[test]
    fn deleting_everything_leaves_an_empty_working_system() {
        let (_, mut sys) = system(60, UvConfig::default());
        let mut batch = UpdateBatch::new();
        for id in 0..60u32 {
            batch = batch.delete(id);
        }
        let stats = sys.apply(batch).unwrap();
        assert_eq!(stats.deleted, 60);
        assert!(sys.objects().is_empty());
        assert_eq!(sys.index().num_leaf_nodes(), 1);
        assert!(sys
            .pnn(Point::new(5_000.0, 5_000.0))
            .probabilities
            .is_empty());
        // And the system accepts new objects again.
        sys.insert_object(UncertainObject::with_uniform(
            0,
            Point::new(4_000.0, 4_000.0),
            20.0,
        ))
        .unwrap();
        assert_eq!(sys.objects().len(), 1);
        assert!(!sys
            .pnn(Point::new(5_000.0, 5_000.0))
            .probabilities
            .is_empty());
        assert_matches_cold_rebuild(&sys);
    }

    #[test]
    fn update_stats_report_locality_counters() {
        let (_, mut sys) = system(300, UvConfig::default().with_leaf_split_capacity(16));
        let total = sys.index().num_leaf_nodes();
        assert!(total > 10, "fixture must split into many leaves");
        let stats = sys.move_object(7, Point::new(5_050.0, 5_050.0)).unwrap();
        assert_eq!(stats.epoch, 1);
        assert!(stats.objects_rederived >= 1);
        assert!(stats.leaves_refined >= 1);
        assert!(stats.leaves_refined < total);
        assert!(stats.refine_fraction() < 1.0);
        assert_eq!(stats.total_leaves, sys.index().num_leaf_nodes());
        assert_matches_cold_rebuild(&sys);
    }

    #[test]
    fn appearances_inside_the_farthest_seed_keep_reference_lists_exact() {
        // A subject whose k-NN set holds its eight seeds plus three members
        // beyond every seed. Each insert lands beyond its own sector's seed
        // (displacing no seed), outside every d-bound, yet inside the
        // farthest seed's distance: it takes the k-NN slot of a member
        // beyond every seed. Three of them exhaust those members; the fourth
        // evicts the farthest seed itself. Every reference list must equal
        // a cold derivation after every batch.
        let at = |deg: f64, dist: f64| {
            let a = deg.to_radians();
            Point::new(5_000.0 + dist * a.cos(), 5_000.0 + dist * a.sin())
        };
        let mut objects = vec![UncertainObject::with_uniform(0, at(0.0, 0.0), 5.0)];
        for sector in 0..8u32 {
            let dist = if sector == 0 { 400.0 } else { 150.0 };
            objects.push(UncertainObject::with_uniform(
                1 + sector,
                at(f64::from(sector) * 45.0 + 22.5, dist),
                5.0,
            ));
        }
        for (i, (deg, dist)) in [(112.5, 600.0), (292.5, 650.0), (117.5, 700.0)]
            .into_iter()
            .enumerate()
        {
            objects.push(UncertainObject::with_uniform(
                20 + i as u32,
                at(deg, dist),
                5.0,
            ));
        }
        for (i, corner) in [
            (500.0, 500.0),
            (9_500.0, 500.0),
            (500.0, 9_500.0),
            (9_500.0, 9_500.0),
        ]
        .into_iter()
        .enumerate()
        {
            let c = Point::new(corner.0, corner.1);
            objects.push(UncertainObject::with_uniform(30 + i as u32, c, 5.0));
        }
        let domain = Rect::new(0.0, 0.0, 10_000.0, 10_000.0);
        let config = UvConfig {
            parallel: false,
            ..UvConfig::default().with_seed_knn(11).with_num_seeds(8)
        };
        let mut sys = UvSystem::build(objects, domain, Method::IC, config).unwrap();
        let subject = sys.object_state(0).unwrap().sensitivity().clone();
        let seeds = subject.seed_dists().expect("the subject is boundary-safe");
        assert!(
            seeds.iter().all(|d| d.is_finite()),
            "every sector is seeded"
        );
        for (k, (deg, dist)) in [
            (195.0, 250.0),
            (200.0, 270.0),
            (205.0, 290.0),
            (210.0, 310.0),
        ]
        .into_iter()
        .enumerate()
        {
            sys.insert_object(UncertainObject::with_uniform(
                40 + k as u32,
                at(deg, dist),
                5.0,
            ))
            .unwrap();
            let cold = UvSystem::build(sys.objects().to_vec(), domain, Method::IC, config).unwrap();
            for o in cold.objects() {
                assert_eq!(
                    sys.object_state(o.id).unwrap().reference_ids(),
                    cold.object_state(o.id).unwrap().reference_ids(),
                    "reference ids of {} are stale after insert {k}",
                    o.id
                );
            }
        }
    }
}
