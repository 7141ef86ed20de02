//! The derivation pipeline: the one place that derives reference sets and
//! applies update batches to them (steps 1–8 of an apply), for the
//! unsharded system and the sharded layer alike.
//!
//! A [`DerivationRouter`] holds exactly the state a derivation reads and
//! writes, and nothing a query touches:
//!
//! * the live object set and the indexed domain;
//! * an R-tree over the objects for the k-NN and range probes of
//!   Algorithm 2 (`derive_subset` never dereferences an entry pointer, so a
//!   standalone router packs an *index-only* tree,
//!   [`uv_rtree::RTree::build_index_only`], with null record pointers; a
//!   shard's router never derives and holds an empty one);
//! * the per-object reference-set / sensitivity table
//!   ([`crate::update::ObjectState`]) — the affected-object oracle;
//! * configuration, construction method and the epoch counter.
//!
//! [`crate::UvSystem`] owns one (over its own objects, with a record-pointer
//! R-tree) and runs grid repair on what it reports;
//! [`crate::ShardedUvSystem`] owns one over the whole dataset and repairs
//! every shard's grid from it. Neither derives anywhere else.
//!
//! # Correctness contract
//!
//! [`DerivationRouter::apply`] *is* the update pipeline's derivation half:
//!
//! 1. validate every op against a shadow of the object set (nothing mutates
//!    on error);
//! 2. compute the net difference;
//! 3. apply it to the object vector;
//! 4. re-index: free the old R-tree's leaf pages, then repack into the same
//!    store (the caller's object store and record-pointer R-tree — a
//!    standalone router repacks its index-only tree);
//! 5. grow the domain in place when the difference left it, re-deriving
//!    every object (the derivation is domain-seeded);
//! 6. expand the affected set through the sensitivity bounds;
//! 7. re-derive it with `crate::builder::derive_subset`;
//! 8. diff the derivations into the dirty set — the live objects whose
//!    Algorithm 5 overlap inputs changed.
//!
//! The crate-internal `Change` record it returns (net diff, dirty ids,
//! re-derived ids, `domain_grown`) is all a grid needs for steps 9–10:
//! [`crate::UvSystem::apply`] repairs its grid from it, and the sharded
//! layer repairs every shard's grid from the *same* record, restricted to
//! the shard's halo members. Because the derivation reads only R-tree
//! probes, objects and the domain, the table is a pure function of the
//! object set — whichever tree packing the caller re-indexes with — and a
//! cold derivation of the final object set reproduces it bit-for-bit
//! (property-tested in `tests/proptest_update.rs` and
//! `tests/proptest_shard.rs`).
//!
//! # Persistence
//!
//! `DerivationRouter::write_state` (crate-internal) persists config,
//! method, domain, epoch, objects and the reference table (through the
//! unsharded snapshot's reference-table codec, d-bounds as bare hull
//! vertices). The R-tree is **not** persisted: STR packing is a pure
//! function of the object set, so `DerivationRouter::read_state` rebuilds
//! it bit-identically with
//! [`uv_rtree::RTree::build_index_only`]. That makes the sharded
//! container's ROUTER section a small multiple of the raw object data —
//! the measured memory win `experiments -- shard` gates on. It is also the
//! sharded snapshot's one lossless copy of the objects, their states, the
//! configuration and the domain: since format v7 a shard section holds
//! only its member ids, pages and grid, and a loaded shard takes the rest
//! from the loaded router ([`crate::shard`]).

use crate::builder::{derive_subset, Method};
use crate::config::UvConfig;
use crate::crobjects::ChangeImpact;
use crate::snapshot::{read_ref_table, write_ref_table};
use crate::update::{
    grow_domain, validate_object, ObjectState, RefTable, UpdateBatch, UpdateOp, UpdateStats,
};
use crate::UvError;
use std::collections::{HashMap, HashSet};
use std::io::{self, Read, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};
use uv_data::{ObjectId, ObjectStore, UncertainObject};
use uv_geom::{Circle, Rect};
use uv_rtree::RTree;
use uv_store::codec::{Decode, Encode};
use uv_store::PageStore;

/// Timings and pruning ratios of one full derivation pass — construction
/// Phase A, or the re-derivation a domain growth forces.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct DerivationReport {
    /// Wall-clock time of the pass.
    pub(crate) wall: Duration,
    /// I+C pruning time, scaled from summed per-object CPU time onto the
    /// pass's wall time (so parallel derivations stay consistent).
    pub(crate) pruning: Duration,
    /// Exact-cell refinement time (ICR and Basic), scaled the same way.
    pub(crate) refinement: Duration,
    /// Mean I-pruning ratio over the derived objects.
    pub(crate) avg_i_ratio: f64,
    /// Mean C-pruning ratio over the derived objects.
    pub(crate) avg_c_ratio: f64,
}

/// Derives the reference table of every object in `objects` over `rtree`,
/// which must index exactly `objects`.
pub(crate) fn derive_table(
    objects: &[UncertainObject],
    rtree: &RTree,
    domain: &Rect,
    config: &UvConfig,
    method: Method,
) -> (RefTable, DerivationReport) {
    let t = Instant::now();
    // One id -> object map for the whole pass: ICR refinement resolves every
    // cr-id through it instead of scanning `objects` per id.
    let by_id: HashMap<ObjectId, &UncertainObject> = objects.iter().map(|o| (o.id, o)).collect();
    let subjects: Vec<&UncertainObject> = objects.iter().collect();
    let per_object = derive_subset(&subjects, objects, &by_id, rtree, domain, config, method);
    let wall = t.elapsed();

    let n = objects.len().max(1) as f64;
    let prune_sum: Duration = per_object.iter().map(|p| p.prune_time).sum();
    let refine_sum: Duration = per_object.iter().map(|p| p.refine_time).sum();
    let cpu_sum = prune_sum + refine_sum;
    let scale = if cpu_sum.is_zero() {
        0.0
    } else {
        wall.as_secs_f64() / cpu_sum.as_secs_f64()
    };
    let report = DerivationReport {
        wall,
        pruning: prune_sum.mul_f64(scale),
        refinement: refine_sum.mul_f64(scale),
        avg_i_ratio: per_object.iter().map(|p| p.prune.i_ratio()).sum::<f64>() / n,
        avg_c_ratio: per_object.iter().map(|p| p.prune.c_ratio()).sum::<f64>() / n,
    };
    let table = per_object
        .into_iter()
        .map(|p| {
            (
                p.id,
                ObjectState {
                    reference_ids: p.reference_ids,
                    sensitivity: p.sensitivity,
                },
            )
        })
        .collect();
    (table, report)
}

/// A net object-set difference: what one batch does to the router's
/// objects, or what one routed batch does to a shard's replicas.
pub(crate) struct NetDiff<'a> {
    /// Deleted ids, ascending.
    pub(crate) deleted: &'a [ObjectId],
    /// New states of the changed objects, ascending by id.
    pub(crate) changed: Vec<&'a UncertainObject>,
    /// Inserted objects, ascending by id.
    pub(crate) inserted: Vec<&'a UncertainObject>,
}

impl NetDiff<'_> {
    /// `true` when the difference changes nothing.
    pub(crate) fn is_empty(&self) -> bool {
        self.deleted.is_empty() && self.changed.is_empty() && self.inserted.is_empty()
    }

    /// Applies the difference to an object vector: deleted objects drop
    /// out, changed ones take their new state in place, inserts append.
    pub(crate) fn apply_to(&self, objects: &mut Vec<UncertainObject>) {
        let gone: HashSet<ObjectId> = self.deleted.iter().copied().collect();
        objects.retain(|o| !gone.contains(&o.id));
        for o in objects.iter_mut() {
            if let Ok(k) = self.changed.binary_search_by_key(&o.id, |c| c.id) {
                *o = self.changed[k].clone();
            }
        }
        objects.extend(self.inserted.iter().map(|o| (*o).clone()));
    }

    /// Applies the difference to `store` — deletes, then changes, then
    /// inserts, each in id order, since the order fixes the page layout.
    pub(crate) fn apply_to_store(&self, store: &mut ObjectStore) {
        for id in self.deleted {
            store.remove(*id);
        }
        for o in &self.changed {
            store.update(o);
        }
        for o in &self.inserted {
            store.insert(o);
        }
    }
}

/// What one applied batch changed — the crate-internal record every grid
/// repair consumes (steps 9–10 of an apply).
#[derive(Debug, Default)]
pub(crate) struct Change {
    /// The router's statistics: net counts, affected-set counters,
    /// `rederived_ids`, `domain_grown` and the epoch. Leaf counters are
    /// zero (there is no grid here).
    pub(crate) stats: UpdateStats,
    /// Net inserted ids, ascending.
    pub(crate) inserted: Vec<ObjectId>,
    /// Net deleted ids, ascending.
    pub(crate) deleted: Vec<ObjectId>,
    /// Ids whose object state changed (moves, or a delete + re-insert with
    /// different geometry), ascending.
    pub(crate) changed: Vec<ObjectId>,
    /// Pre-existing live objects whose Algorithm 5 overlap inputs changed —
    /// own MBC, reference id list, or a referenced object's MBC —
    /// ascending. Empty after domain growth, which rebuilds every grid.
    pub(crate) dirty: Vec<ObjectId>,
    /// The full re-derivation's report when the domain grew.
    pub(crate) regrown: Option<DerivationReport>,
}

impl Change {
    /// `true` when the batch's net difference was empty (nothing changed,
    /// the epoch did not advance).
    pub(crate) fn is_noop(&self) -> bool {
        self.inserted.is_empty() && self.deleted.is_empty() && self.changed.is_empty()
    }
}

/// The update pipeline's derivation half (steps 1–8): object set, domain,
/// R-tree and the per-object sensitivity table — and nothing else. See the
/// [module docs](crate::router).
#[derive(Debug)]
pub struct DerivationRouter {
    pub(crate) objects: Vec<UncertainObject>,
    pub(crate) domain: Rect,
    pub(crate) rtree: RTree,
    pub(crate) ref_table: RefTable,
    pub(crate) config: UvConfig,
    pub(crate) method: Method,
    pub(crate) epoch: u64,
    /// Objects derived since construction (build, re-derivations, growth).
    pub(crate) derivations: u64,
}

impl DerivationRouter {
    /// A shard's router over `members`: `global`'s states for them, its
    /// domain, configuration and method, and an empty R-tree — a shard
    /// never derives, so it never probes one.
    pub(crate) fn replica(members: Vec<UncertainObject>, global: &DerivationRouter) -> Self {
        let ref_table = members
            .iter()
            .map(|o| (o.id, global.ref_table[&o.id].clone()))
            .collect();
        Self {
            objects: members,
            domain: global.domain,
            rtree: RTree::build_index_only(&[], Arc::new(PageStore::new())),
            ref_table,
            config: global.config,
            method: global.method,
            epoch: 0,
            derivations: 0,
        }
    }

    /// Builds a standalone router over `objects`: validates the
    /// configuration, packs an index-only R-tree and derives every object's
    /// reference set and sensitivity.
    pub fn build(
        objects: Vec<UncertainObject>,
        domain: Rect,
        method: Method,
        config: UvConfig,
    ) -> Result<Self, UvError> {
        config.validate()?;
        let rtree = RTree::build_index_only(&objects, Arc::new(PageStore::new()));
        Ok(Self::derive(objects, domain, rtree, method, config).0)
    }

    /// Derives every object's reference set over `rtree` (which must index
    /// exactly `objects`); the configuration must already be validated.
    pub(crate) fn derive(
        objects: Vec<UncertainObject>,
        domain: Rect,
        rtree: RTree,
        method: Method,
        config: UvConfig,
    ) -> (Self, DerivationReport) {
        let (ref_table, report) = derive_table(&objects, &rtree, &domain, &config, method);
        let derivations = objects.len() as u64;
        let router = Self {
            objects,
            domain,
            rtree,
            ref_table,
            config,
            method,
            epoch: 0,
            derivations,
        };
        (router, report)
    }

    /// The live object set.
    pub fn objects(&self) -> &[UncertainObject] {
        &self.objects
    }

    /// The indexed domain rectangle.
    pub fn domain(&self) -> Rect {
        self.domain
    }

    /// The configuration the router (and every shard) was built with.
    pub fn config(&self) -> &UvConfig {
        &self.config
    }

    /// The construction method.
    pub fn method(&self) -> Method {
        self.method
    }

    /// The update epoch: bumped once per applied batch with a non-empty net
    /// difference.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Objects this router has derived since it was built or loaded: the
    /// build's full table, every re-derived affected set and every
    /// domain-growth re-derivation. A shard's router installs the global
    /// router's states instead of deriving, so its count stays zero.
    pub fn derivations(&self) -> u64 {
        self.derivations
    }

    /// The maintenance state of one object (reference ids + sensitivity),
    /// or `None` for an unknown id.
    pub fn object_state(&self, id: ObjectId) -> Option<&ObjectState> {
        self.ref_table.get(&id)
    }

    /// Applies an update batch: validation, net diff, domain growth,
    /// affected-set expansion, re-derivation and the dirty diff (steps 1–8
    /// of the update pipeline), repacking the index-only R-tree. All leaf
    /// counters in the returned stats are zero.
    pub fn apply(&mut self, batch: UpdateBatch) -> Result<UpdateStats, UvError> {
        Ok(self.apply_change(batch)?.stats)
    }

    /// [`DerivationRouter::apply`], returning the full change record.
    pub(crate) fn apply_change(&mut self, batch: UpdateBatch) -> Result<Change, UvError> {
        self.apply_with(batch, |objects, _, pages| {
            RTree::build_index_only(objects, pages)
        })
    }

    /// [`DerivationRouter::apply`] with a caller-supplied re-indexing step
    /// (step 4): `reindex` receives the updated object set, the net
    /// difference and the R-tree's page store, its old leaf pages already
    /// freed, and returns the R-tree the derivation probes, packed into that
    /// store. The unsharded system updates its object store there and packs
    /// record pointers; the k-NN and range probes are identical on every
    /// packing of the same object set.
    pub(crate) fn apply_with(
        &mut self,
        batch: UpdateBatch,
        reindex: impl FnOnce(&[UncertainObject], &NetDiff<'_>, Arc<PageStore>) -> RTree,
    ) -> Result<Change, UvError> {
        let mut stats = UpdateStats {
            epoch: self.epoch,
            ..UpdateStats::default()
        };

        // ---- 1. Validate by simulation -----------------------------------
        // `overlay` shadows only what the batch touches (`Some` = new state,
        // `None` = deleted); the untouched majority of the object set is
        // never cloned. Nothing in `self` is mutated until the whole batch
        // validates.
        let before: HashMap<ObjectId, &UncertainObject> =
            self.objects.iter().map(|o| (o.id, o)).collect();
        let mut overlay: HashMap<ObjectId, Option<UncertainObject>> = HashMap::new();
        let is_live = |overlay: &HashMap<ObjectId, Option<UncertainObject>>,
                       before: &HashMap<ObjectId, &UncertainObject>,
                       id: &ObjectId| {
            overlay
                .get(id)
                .map_or(before.contains_key(id), Option::is_some)
        };
        for op in &batch.ops {
            match op {
                UpdateOp::Insert(o) => {
                    validate_object(o)?;
                    if is_live(&overlay, &before, &o.id) {
                        return Err(UvError::DuplicateObject(o.id));
                    }
                    overlay.insert(o.id, Some(o.clone()));
                }
                UpdateOp::Delete(id) => {
                    if !is_live(&overlay, &before, id) {
                        return Err(UvError::UnknownObject(*id));
                    }
                    overlay.insert(*id, None);
                }
                UpdateOp::Move { id, center } => {
                    let current = match overlay.get(id) {
                        Some(state) => state.as_ref(),
                        None => before.get(id).copied(),
                    };
                    let Some(current) = current else {
                        return Err(UvError::UnknownObject(*id));
                    };
                    if !center.x.is_finite() || !center.y.is_finite() {
                        return Err(UvError::InvalidObject(*id));
                    }
                    let mut moved = current.clone();
                    moved.region.center = *center;
                    overlay.insert(*id, Some(moved));
                }
            }
        }

        // ---- 2. Net difference -------------------------------------------
        // Also captures the old/new geometry of everything that changes or
        // disappears, split by direction: disappearing states (deletes,
        // move origins) and appearing states (inserts, move destinations)
        // carry different seed-displacement hazards, which the sensitivity
        // prefilter exploits.
        let mut deleted: Vec<ObjectId> = Vec::new();
        let mut inserted: Vec<ObjectId> = Vec::new();
        let mut changed: Vec<ObjectId> = Vec::new();
        let mut removed_mbcs: Vec<Circle> = Vec::new();
        let mut added_mbcs: Vec<Circle> = Vec::new();
        let mut moved_mbcs: Vec<(Circle, Circle)> = Vec::new();
        for (id, state) in &overlay {
            match (before.get(id), state) {
                (Some(b), Some(o)) if *b != o => {
                    changed.push(*id);
                    moved_mbcs.push((b.mbc(), o.mbc()));
                }
                (Some(_), Some(_)) => {} // touched but net-unchanged
                (Some(b), None) => {
                    deleted.push(*id);
                    removed_mbcs.push(b.mbc());
                }
                (None, Some(o)) => {
                    inserted.push(*id);
                    added_mbcs.push(o.mbc());
                }
                (None, None) => {} // inserted then deleted within the batch
            }
        }
        drop(before);
        deleted.sort_unstable();
        inserted.sort_unstable();
        changed.sort_unstable();
        stats.deleted = deleted.len();
        stats.inserted = inserted.len();
        stats.moved = changed.len();
        if deleted.is_empty() && inserted.is_empty() && changed.is_empty() {
            return Ok(Change {
                stats,
                ..Change::default()
            });
        }
        let updated = |id: &ObjectId| overlay[id].as_ref().expect("net-changed ids carry a state");
        let diff = NetDiff {
            deleted: &deleted,
            changed: changed.iter().map(updated).collect(),
            inserted: inserted.iter().map(updated).collect(),
        };

        // ---- 3. Apply the net difference to the object vector ------------
        diff.apply_to(&mut self.objects);

        // ---- 4. Re-index -------------------------------------------------
        // The STR packing is rebuilt from the updated object set every
        // batch — deterministic and cheap (no UV geometry), and it
        // guarantees re-derived objects see exactly the tree a cold build
        // would query. The old packing's leaf pages are freed first, so the
        // new one reuses them in the same store.
        self.rtree.clear();
        let pages = Arc::clone(self.rtree.store());
        self.rtree = reindex(&self.objects, &diff, pages);
        drop(diff);

        // ---- 5. In-place domain growth -----------------------------------
        // The derivation is domain-seeded (possible regions start from the
        // domain rectangle, the hull discretisation scales with its side),
        // so a domain change invalidates every derivation.
        let needed = inserted
            .iter()
            .chain(&changed)
            .map(|id| updated(id).mbr())
            .filter(|mbr| !self.domain.contains_rect(mbr))
            .fold(None::<Rect>, |acc, mbr| {
                Some(acc.map_or(mbr, |a| a.union(&mbr)))
            });
        if let Some(needed) = needed {
            self.domain = grow_domain(self.domain, &needed);
            let (table, report) = derive_table(
                &self.objects,
                &self.rtree,
                &self.domain,
                &self.config,
                self.method,
            );
            self.ref_table = table;
            let n = self.objects.len();
            self.derivations += n as u64;
            self.epoch += 1;
            stats.domain_grown = true;
            stats.objects_rederived = n;
            stats.rederived_ids = self.objects.iter().map(|o| o.id).collect();
            stats.objects_in_knn_radius = n;
            stats.objects_repartitioned = n;
            stats.epoch = self.epoch;
            stats.repaired_rects = vec![self.domain];
            return Ok(Change {
                stats,
                inserted,
                deleted,
                changed,
                dirty: Vec::new(),
                regrown: Some(report),
            });
        }

        // ---- 6. Affected objects -----------------------------------------
        let changed_set: HashSet<ObjectId> = changed.iter().copied().collect();
        let inserted_set: HashSet<ObjectId> = inserted.iter().copied().collect();
        let mut affected: HashSet<ObjectId> = changed_set.union(&inserted_set).copied().collect();
        stats.objects_in_knn_radius = affected.len();
        // Subjects whose reference id list is provably unchanged but whose
        // referenced geometry moved: grid repair without re-derivation.
        // Only the IC method may take this shortcut (ICR refines through
        // the references' geometry, so its derivation must repeat).
        let mut repartition_only: Vec<ObjectId> = Vec::new();
        for o in &self.objects {
            if affected.contains(&o.id) {
                continue;
            }
            let sensitivity = &self.ref_table[&o.id].sensitivity;
            let c = o.center();
            let mut impact = ChangeImpact::Unaffected;
            for mbc in &removed_mbcs {
                if sensitivity.affected_by_removed(c, mbc) {
                    impact = ChangeImpact::Rederive;
                    break;
                }
            }
            for mbc in &added_mbcs {
                if impact < ChangeImpact::Rederive && sensitivity.affected_by_added(c, mbc) {
                    impact = ChangeImpact::Rederive;
                }
            }
            for (old, new) in &moved_mbcs {
                if impact < ChangeImpact::Rederive {
                    let mut verdict = sensitivity.move_impact(c, old, new);
                    if verdict == ChangeImpact::RepartitionOnly && self.method != Method::IC {
                        verdict = ChangeImpact::Rederive;
                    }
                    impact = impact.max(verdict);
                }
            }
            match impact {
                ChangeImpact::Rederive => {
                    affected.insert(o.id);
                    stats.objects_in_knn_radius += 1;
                }
                ChangeImpact::RepartitionOnly => {
                    repartition_only.push(o.id);
                    stats.objects_in_knn_radius += 1;
                }
                ChangeImpact::Unaffected => {
                    // Inside the k-NN radius but skipped by the prefilter —
                    // counted so the churn experiment can report the saving
                    // against the PR-3 bound.
                    if removed_mbcs
                        .iter()
                        .chain(&added_mbcs)
                        .chain(moved_mbcs.iter().flat_map(|(a, b)| [a, b]))
                        .any(|mbc| sensitivity.affected_by_knn_bound(c, mbc))
                    {
                        stats.objects_in_knn_radius += 1;
                    }
                }
            }
        }

        // ---- 7. Re-derive the affected objects ---------------------------
        let by_id: HashMap<ObjectId, &UncertainObject> =
            self.objects.iter().map(|o| (o.id, o)).collect();
        let subjects: Vec<&UncertainObject> = self
            .objects
            .iter()
            .filter(|o| affected.contains(&o.id))
            .collect();
        let derived = derive_subset(
            &subjects,
            &self.objects,
            &by_id,
            &self.rtree,
            &self.domain,
            &self.config,
            self.method,
        );
        stats.objects_rederived = derived.len();
        self.derivations += derived.len() as u64;

        // ---- 8. Diff derivations into the dirty set ----------------------
        // An object needs grid repair when its overlap-test inputs changed:
        // its own MBC, its reference id list, or the MBC of an object it
        // references.
        let mut dirty: Vec<ObjectId> = Vec::new();
        for p in derived {
            stats.rederived_ids.push(p.id);
            let refs_changed = self
                .ref_table
                .get(&p.id)
                .is_none_or(|w| w.reference_ids != p.reference_ids);
            let is_dirty = refs_changed
                || changed_set.contains(&p.id)
                || p.reference_ids.iter().any(|r| changed_set.contains(r));
            self.ref_table.insert(
                p.id,
                ObjectState {
                    reference_ids: p.reference_ids,
                    sensitivity: p.sensitivity,
                },
            );
            if is_dirty && !inserted_set.contains(&p.id) {
                dirty.push(p.id);
            }
        }
        for id in &deleted {
            self.ref_table.remove(id);
        }
        // Repartition-only subjects skipped the derivation (their reference
        // id lists are provably unchanged) but reference moved geometry, so
        // their overlap tests must be re-run.
        dirty.extend_from_slice(&repartition_only);
        dirty.sort_unstable();
        stats.objects_repartitioned = dirty.len() + inserted.len() + deleted.len();
        self.epoch += 1;
        stats.epoch = self.epoch;
        Ok(Change {
            stats,
            inserted,
            deleted,
            changed,
            dirty,
            regrown: None,
        })
    }

    /// Serialises the router's persistent state: config, method, domain,
    /// epoch, objects and the reference table (the unsharded snapshot's
    /// REF_TABLE encoding — d-bounds as bare hull vertices). The R-tree
    /// is deliberately absent: STR packing is a pure function of the
    /// object set, so [`DerivationRouter::read_state`] rebuilds it
    /// bit-identically.
    pub(crate) fn write_state<W: Write + ?Sized>(&self, w: &mut W) -> io::Result<()> {
        self.config.write_to(w)?;
        self.method.write_to(w)?;
        self.domain.write_to(w)?;
        self.epoch.write_to(w)?;
        self.objects.write_to(w)?;
        write_ref_table(&self.ref_table, w)
    }

    /// The size of the router's persistent-state encoding in bytes —
    /// what the ROUTER section of a sharded snapshot costs, and the figure
    /// the shard experiment's memory gate compares against a full
    /// unsharded snapshot.
    pub fn state_bytes(&self) -> u64 {
        let mut bytes = Vec::new();
        self.write_state(&mut bytes)
            .expect("writing to a Vec cannot fail");
        bytes.len() as u64
    }

    /// Inverse of [`DerivationRouter::write_state`]: decodes and validates
    /// the slim state, then rebuilds the index-only R-tree from the object
    /// set. Malformed input yields a typed [`UvError`], never a panic.
    pub(crate) fn read_state<R: Read + ?Sized>(r: &mut R) -> Result<Self, UvError> {
        let config = UvConfig::read_from(r)?;
        config.validate().map_err(|e| {
            UvError::SnapshotCorrupt(format!("persisted router configuration: {e}"))
        })?;
        let method = Method::read_from(r)?;
        let domain = Rect::read_from(r)?;
        let epoch = u64::read_from(r)?;
        let objects: Vec<UncertainObject> = Vec::read_from(r)?;
        let ref_table = read_ref_table(&objects, r)?;
        let rtree = RTree::build_index_only(&objects, Arc::new(PageStore::new()));
        Ok(Self {
            objects,
            domain,
            rtree,
            ref_table,
            config,
            method,
            epoch,
            derivations: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::UvSystem;
    use uv_data::{Dataset, GeneratorConfig};
    use uv_geom::Point;

    fn fixture(n: usize) -> (Dataset, UvSystem, DerivationRouter) {
        let ds = Dataset::generate(GeneratorConfig::paper_uniform(n));
        let config = UvConfig::default()
            .with_seed_knn(24)
            .with_leaf_split_capacity(16);
        let sys = UvSystem::build(ds.objects.clone(), ds.domain, Method::IC, config).unwrap();
        let router =
            DerivationRouter::build(ds.objects.clone(), ds.domain, Method::IC, config).unwrap();
        (ds, sys, router)
    }

    fn assert_tables_match(sys: &UvSystem, router: &DerivationRouter) {
        assert_eq!(sys.objects().len(), router.objects().len());
        assert_eq!(sys.domain(), router.domain());
        for o in sys.objects() {
            let a = sys.object_state(o.id).expect("system state");
            let b = router.object_state(o.id).expect("router state");
            assert_eq!(a.reference_ids(), b.reference_ids(), "refs of {}", o.id);
            assert_eq!(a.sensitivity(), b.sensitivity(), "sensitivity of {}", o.id);
        }
    }

    #[test]
    fn build_derives_the_same_reference_table_as_the_full_system() {
        let (_, sys, router) = fixture(150);
        assert_tables_match(&sys, &router);
        assert_eq!(router.epoch(), 0);
    }

    #[test]
    fn apply_mirrors_the_full_pipeline_bit_identically() {
        let (ds, mut sys, mut router) = fixture(150);
        let batch = UpdateBatch::new()
            .insert(UncertainObject::with_gaussian(
                900,
                Point::new(2_500.0, 2_500.0),
                20.0,
            ))
            .delete(17)
            .move_to(42, Point::new(7_400.0, 1_200.0));
        let a = sys.apply(batch.clone()).unwrap();
        let b = router.apply(batch).unwrap();
        assert_eq!(
            (a.inserted, a.deleted, a.moved),
            (b.inserted, b.deleted, b.moved)
        );
        assert_eq!(a.objects_rederived, b.objects_rederived);
        assert_eq!(a.objects_in_knn_radius, b.objects_in_knn_radius);
        assert_eq!(a.objects_repartitioned, b.objects_repartitioned);
        let mut ra = a.rederived_ids.clone();
        let mut rb = b.rederived_ids.clone();
        ra.sort_unstable();
        rb.sort_unstable();
        assert_eq!(ra, rb, "affected sets diverged");
        assert_eq!(a.epoch, b.epoch);
        // The router has no grid: its leaf counters are zero by contract.
        assert_eq!(b.leaves_refined, 0);
        assert_eq!(b.total_leaves, 0);
        assert_tables_match(&sys, &router);
        let _ = ds;
    }

    #[test]
    fn apply_rejects_the_same_ops_without_mutating() {
        let (_, mut sys, mut router) = fixture(60);
        let bad = [
            UpdateBatch::new().delete(999),
            UpdateBatch::new().insert(UncertainObject::with_uniform(
                3,
                Point::new(100.0, 100.0),
                5.0,
            )),
            UpdateBatch::new().move_to(2, Point::new(f64::NAN, 0.0)),
            UpdateBatch::new()
                .delete(1)
                .move_to(55_555, Point::new(1.0, 1.0)),
        ];
        for batch in bad {
            let ea = sys.apply(batch.clone()).unwrap_err();
            let eb = router.apply(batch).unwrap_err();
            assert_eq!(ea, eb, "error behaviour diverged");
        }
        assert_eq!(router.epoch(), 0);
        assert_eq!(router.objects().len(), 60);
        assert_tables_match(&sys, &router);
    }

    #[test]
    fn net_noop_batches_do_not_bump_the_epoch() {
        let (ds, _, mut router) = fixture(60);
        let stats = router.apply(UpdateBatch::new()).unwrap();
        assert_eq!(stats.epoch, 0);
        let original = ds.objects[5].clone();
        router
            .apply(UpdateBatch::new().delete(5).insert(original))
            .unwrap();
        assert_eq!(router.epoch(), 0);
    }

    #[test]
    fn domain_growth_matches_the_full_system() {
        let (ds, mut sys, mut router) = fixture(80);
        let outside = UncertainObject::with_uniform(
            800,
            Point::new(ds.domain.max_x + 500.0, ds.domain.max_y + 500.0),
            10.0,
        );
        let a = sys.insert_object(outside.clone()).unwrap();
        let b = router.apply(UpdateBatch::new().insert(outside)).unwrap();
        assert!(a.domain_grown && b.domain_grown);
        assert_eq!(sys.domain(), router.domain());
        assert_eq!(a.epoch, b.epoch);
        assert_eq!(a.objects_rederived, b.objects_rederived);
        assert_tables_match(&sys, &router);
    }

    #[test]
    fn state_roundtrip_is_bit_identical_and_updatable() {
        let (_, mut sys, mut router) = fixture(120);
        let batch = UpdateBatch::new()
            .delete(3)
            .move_to(7, Point::new(4_321.0, 1_234.0));
        sys.apply(batch.clone()).unwrap();
        router.apply(batch).unwrap();

        let mut bytes = Vec::new();
        router.write_state(&mut bytes).unwrap();
        assert_eq!(bytes.len() as u64, router.state_bytes());
        let mut loaded = DerivationRouter::read_state(&mut bytes.as_slice()).unwrap();
        assert_eq!(loaded.epoch(), router.epoch());
        assert_eq!(loaded.objects(), router.objects());
        assert_tables_match(&sys, &loaded);

        // Updates after the round-trip equal updates without it.
        let next = UpdateBatch::new()
            .insert(UncertainObject::with_uniform(
                901,
                Point::new(6_000.0, 3_000.0),
                15.0,
            ))
            .move_to(42, Point::new(1_111.0, 8_888.0));
        let a = router.apply(next.clone()).unwrap();
        let b = loaded.apply(next).unwrap();
        assert_eq!(a.objects_rederived, b.objects_rederived);
        let mut ra = a.rederived_ids.clone();
        let mut rb = b.rederived_ids.clone();
        ra.sort_unstable();
        rb.sort_unstable();
        assert_eq!(ra, rb);
        sys.apply(
            UpdateBatch::new()
                .insert(UncertainObject::with_uniform(
                    901,
                    Point::new(6_000.0, 3_000.0),
                    15.0,
                ))
                .move_to(42, Point::new(1_111.0, 8_888.0)),
        )
        .unwrap();
        assert_tables_match(&sys, &loaded);
    }

    #[test]
    fn corrupt_state_yields_typed_errors() {
        let (_, _, router) = fixture(60);
        let mut bytes = Vec::new();
        router.write_state(&mut bytes).unwrap();
        for cut in [3, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                matches!(
                    DerivationRouter::read_state(&mut &bytes[..cut]),
                    Err(UvError::SnapshotCorrupt(_))
                ),
                "truncation at {cut} must be corruption"
            );
        }
    }

    #[test]
    fn slim_state_is_smaller_than_a_full_snapshot() {
        // The tentpole's memory claim at unit scope: the router's persisted
        // state must undercut the full system snapshot it replaces.
        let (_, sys, router) = fixture(200);
        let mut full = Vec::new();
        let full_bytes = sys.save_snapshot(&mut full).unwrap();
        assert!(
            router.state_bytes() < full_bytes,
            "slim router ({}) must be smaller than the full snapshot ({})",
            router.state_bytes(),
            full_bytes
        );
    }
}
