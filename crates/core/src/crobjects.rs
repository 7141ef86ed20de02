//! Candidate reference objects (Algorithm 2): an efficiently computable
//! superset of the r-objects that define an object's UV-cell.
//!
//! The three steps of the paper are implemented faithfully:
//!
//! 1. **`initPossibleRegion`** (Section IV-B) — a k-NN query around the
//!    subject's centre retrieves `k` close objects, the domain is divided
//!    into `k_s` sectors centred at `c_i`, and the closest object of each
//!    sector becomes a *seed*; clipping the domain by the seeds' outside
//!    regions yields a small initial possible region.
//! 2. **I-pruning** (Section IV-C, Lemma 2) — a circular range query of
//!    radius `2d - r_i` (where `d` is the maximum distance of the possible
//!    region from `c_i`) discards every object whose centre lies outside the
//!    circle; such objects cannot reshape the region.
//! 3. **C-pruning** (Section IV-D, Lemma 3) — d-bounds are built at the
//!    vertices of the possible region's convex hull; an object whose centre
//!    lies outside every d-bound cannot reshape the region either.
//!
//! The survivors are the cr-objects `C_i ⊇ F_i`.

use crate::config::UvConfig;
use crate::region::PossibleRegion;
use crate::stats::PruneStats;
use uv_data::{ObjectEntry, ObjectId, UncertainObject};
use uv_geom::{Circle, ClipScratch, Point, Rect};
use uv_rtree::RTree;

/// How far away another object's change can be while still (possibly)
/// altering the subject's cr-derivation — the *affected-object bound* of the
/// dynamic maintenance subsystem ([`crate::update`]).
///
/// `derive_cr_objects` consumes exactly two index queries: the seed-selection
/// k-NN and the I-pruning circular range query. An insert/delete/move of an
/// object `O_j` can therefore only change the subject's derivation when `O_j`
/// enters or leaves one of those two result sets:
///
/// * `knn_dist` — the distance of the k-th nearest neighbour (under the k-NN
///   metric `distmin(O_j, c_i)`). A change strictly farther than this cannot
///   alter the k-NN set, hence not the seeds nor the possible region.
/// * `prune_radius` — the I-pruning radius `2d - r_i` (Lemma 2). A change
///   whose centre is strictly outside this circle cannot alter the I-pruning
///   survivors (and C-pruning only filters those).
///
/// Both are `f64::INFINITY` when the derivation is globally sensitive: fewer
/// than `k` other objects exist (every change alters the k-NN set) or the
/// degenerate co-located path was taken (its branch condition depends on the
/// dataset cardinality).
///
/// # The seed-sector prefilter
///
/// The two radii alone are loose: at the dynamic-serving tuning they flag
/// ~30% of a uniform dataset per 1% churn step, yet almost none of those
/// derivations come back different. Two exact observations tighten them,
/// valid whenever the derivation is *boundary-safe* — the k-NN query
/// returned a full `k` result and every seed is strictly closer than the
/// k-th neighbour:
///
/// * **Seed-sector gate** (k-NN radius). The k-NN result feeds the
///   derivation *only through the seeds* — per sector, the closest
///   neighbour. An object *appearing* (insert, or the destination of a
///   move) in sector `s` strictly farther than `seed_dists[s]` cannot
///   displace that sector's seed (an unseeded sector keeps `INFINITY`
///   there, so appearances in it always re-derive), and when it also lands
///   beyond the *farthest* seed the k-NN membership churn it causes is
///   harmless: it evicts the k-th member, which (boundary safety) is
///   farther than every seed and therefore no seed, and the number of
///   members beyond every seed stays the same. An appearance *within* the
///   farthest seed's distance re-derives even when it displaces no seed:
///   it evicts a member beyond every seed, and a run of such appearances
///   would exhaust them until the farthest seed is the k-th member — the
///   next appearance would evict it unseen. (A move that already held a
///   slot within that distance frees the slot it takes, so only its sector
///   gates apply.) An object *disappearing* (delete, or the origin of a move)
///   beyond every seed was itself no seed, and the member its departure
///   admits arrives at a distance at least the k-th — no seed either, but
///   only when **every** sector is seeded; with an unseeded sector the
///   admitted member could seed it, so disappearances inside the k-NN
///   radius of a partially-seeded subject always re-derive. That also
///   keeps the stored `knn_dist` conservative for such subjects: only
///   skipped *appearances* can drift the true k-th distance, and they only
///   move it closer.
/// * **C-pruning gate** (I-pruning circle). A change whose centre lies
///   inside the I-pruning circle enters/leaves the I-survivor set — but
///   C-pruning (Lemma 3) discards any survivor whose centre lies outside
///   every d-bound before it can shape the cr set. With seeds unchanged the
///   possible region, its hull and therefore the `d_bounds` are unchanged,
///   so a centre outside every d-bound (old and new position) leaves the
///   cr-objects exactly as they were.
///
/// Unchanged seeds mean an unchanged possible region, I-pruning radius,
/// seed distances and d-bounds, so the stored bound remains sound without
/// re-derivation, inductively across any number of skipped changes.
/// `seed_dists`/`d_bounds` are empty when the prefilter is unusable (fewer
/// than `k` neighbours exist, a seed ties the k-th distance, or a
/// degenerate path ran); the tests then fall back to the plain radii.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateSensitivity {
    /// Distance of the k-th seed-selection neighbour (`distmin` metric).
    pub knn_dist: f64,
    /// The I-pruning radius `max(0, 2d - r_i)` around the subject centre.
    pub prune_radius: f64,
    /// Per-sector seed distances (`distmin` of each sector's seed from the
    /// subject centre, `INFINITY` for unseeded sectors); empty when the
    /// seed-sector prefilter does not apply.
    pub(crate) seed_dists: Vec<f64>,
    /// The C-pruning d-bounds of the derivation (Lemma 3): one circle per
    /// hull vertex of the possible region, passing through the subject
    /// centre. Empty exactly when `seed_dists` is.
    pub(crate) d_bounds: Vec<Circle>,
}

/// What an update elsewhere means for one subject's retained state — the
/// verdict of [`UpdateSensitivity::move_impact`] and friends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ChangeImpact {
    /// The change cannot alter the subject's derivation or its grid
    /// placement: skip it entirely.
    Unaffected,
    /// The reference *id list* is provably unchanged but a referenced
    /// object's geometry moved: the subject's overlap tests must be
    /// re-evaluated (grid repair), yet the expensive cr-derivation can be
    /// skipped. Only exact for the IC method, whose reference ids are the
    /// cr-ids themselves — ICR refines through the references' geometry,
    /// so its callers must escalate this to [`ChangeImpact::Rederive`].
    RepartitionOnly,
    /// The derivation itself may change: re-derive the subject.
    Rederive,
}

impl UpdateSensitivity {
    /// Sensitivity of a derivation that must be repeated on *any* change.
    pub fn always_affected() -> Self {
        Self {
            knn_dist: f64::INFINITY,
            prune_radius: f64::INFINITY,
            seed_dists: Vec::new(),
            d_bounds: Vec::new(),
        }
    }

    /// Per-sector seed distances when the seed-sector prefilter applies.
    pub fn seed_dists(&self) -> Option<&[f64]> {
        (!self.seed_dists.is_empty()).then_some(self.seed_dists.as_slice())
    }

    /// The C-pruning d-bounds (Lemma 3): one circle per hull vertex of the
    /// possible region, passing through the subject centre. Empty when the
    /// prefilter does not apply. Snapshots persist only the hull vertices —
    /// the radii are recomputed on load — so the per-object snapshot
    /// footprint is `16` bytes per vertex, not `24`.
    pub fn d_bounds(&self) -> &[Circle] {
        &self.d_bounds
    }

    /// `true` when the seed-sector/C-pruning prefilter state is available.
    fn tight(&self) -> bool {
        !self.seed_dists.is_empty() && !self.d_bounds.is_empty()
    }

    /// Pruning admission: a centre inside the I-pruning circle *and* inside
    /// some d-bound survives to the cr set (`contains` carries its own
    /// tolerance, matching the derivation exactly). Only meaningful when
    /// [`UpdateSensitivity::tight`].
    fn admitted(&self, center: uv_geom::Point, mbc: &Circle) -> bool {
        use uv_geom::EPS;
        mbc.center.dist(center) <= self.prune_radius + EPS
            && self.d_bounds.iter().any(|b| b.contains(mbc.center))
    }

    /// `true` when some sector is unseeded, i.e. an object admitted into
    /// the k-NN set could become a brand-new seed.
    fn any_unseeded(&self) -> bool {
        self.seed_dists.iter().any(|s| s.is_infinite())
    }

    /// Per-sector seed-displacement gate for a state at `distmin` `d` from
    /// the subject (the caller has already established `d` is inside the
    /// k-NN radius). A change centred exactly on the subject has no sector
    /// and always hits; a state in an unseeded sector hits through the
    /// `INFINITY` entry.
    fn sector_gate(&self, center: uv_geom::Point, mbc: &Circle, d: f64) -> bool {
        use uv_geom::EPS;
        match sector_of(center, mbc.center, self.seed_dists.len()) {
            Some(sector) => d <= self.seed_dists[sector] + EPS,
            None => true,
        }
    }

    /// Distance of the farthest seed: the largest finite entry of
    /// `seed_dists`.
    fn max_seed(&self) -> f64 {
        self.seed_dists
            .iter()
            .copied()
            .filter(|d| d.is_finite())
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Seed-displacement gate, capped by the k-NN radius. `removed` states
    /// of partially-seeded subjects always hit (the admitted (k+1)-th
    /// member could seed an unseeded sector); appearing states hit within
    /// the farthest seed's distance (they take the k-NN slot of a member
    /// beyond every seed — see the type docs).
    fn seed_hit(&self, center: uv_geom::Point, mbc: &Circle, removed: bool) -> bool {
        use uv_geom::EPS;
        let d = mbc.dist_min(center);
        if d > self.knn_dist + EPS {
            return false;
        }
        if removed {
            return self.any_unseeded() || self.sector_gate(center, mbc, d);
        }
        d <= self.max_seed() + EPS || self.sector_gate(center, mbc, d)
    }

    /// `true` when an object *appearing* with MBC `mbc` (an insert) can
    /// alter a derivation done from `center` with this sensitivity. Sound
    /// with a small tolerance: flagging too much merely costs a
    /// re-derivation, flagging too little would desynchronise the index,
    /// so ties err on the affected side.
    pub fn affected_by_added(&self, center: uv_geom::Point, mbc: &Circle) -> bool {
        if !self.tight() {
            return self.affected_by_knn_bound(center, mbc);
        }
        self.seed_hit(center, mbc, false) || self.admitted(center, mbc)
    }

    /// `true` when an object *disappearing* with MBC `mbc` (a delete) can
    /// alter the derivation. Same tolerance contract as
    /// [`UpdateSensitivity::affected_by_added`].
    pub fn affected_by_removed(&self, center: uv_geom::Point, mbc: &Circle) -> bool {
        if !self.tight() {
            return self.affected_by_knn_bound(center, mbc);
        }
        self.seed_hit(center, mbc, true) || self.admitted(center, mbc)
    }

    /// Direction-agnostic test: affected as either an appearance or a
    /// disappearance.
    pub fn affected_by(&self, center: uv_geom::Point, mbc: &Circle) -> bool {
        self.affected_by_removed(center, mbc) || self.affected_by_added(center, mbc)
    }

    /// Joint verdict for a *move* `old → new` of another object. A move is
    /// strictly weaker than a delete + insert pair:
    ///
    /// * a move whose both states are inside the k-NN radius changes no
    ///   k-NN *membership* — nothing leaves, so no (k+1)-th member is
    ///   admitted and the unseeded-sector hazard of plain deletes does not
    ///   arise; only the per-sector seed gates matter;
    /// * a move whose both states pass the pruning admission while
    ///   displacing no seed keeps the cr *id set* exactly — the moved
    ///   object stays a cr-object — so the subject needs its overlap tests
    ///   re-run ([`ChangeImpact::RepartitionOnly`]) but not its
    ///   derivation.
    pub fn move_impact(&self, center: uv_geom::Point, old: &Circle, new: &Circle) -> ChangeImpact {
        use uv_geom::EPS;
        if !self.tight() {
            return if self.affected_by_knn_bound(center, old)
                || self.affected_by_knn_bound(center, new)
            {
                ChangeImpact::Rederive
            } else {
                ChangeImpact::Unaffected
            };
        }
        let d_old = old.dist_min(center);
        let d_new = new.dist_min(center);
        let old_in = d_old <= self.knn_dist + EPS;
        let new_in = d_new <= self.knn_dist + EPS;
        // Leaving the k-NN set admits the (k+1)-th member, which could
        // seed an unseeded sector.
        if old_in && !new_in && self.any_unseeded() {
            return ChangeImpact::Rederive;
        }
        // Arriving within the farthest seed's distance takes the k-NN slot
        // of a member beyond every seed — unless the object already held a
        // slot within that distance.
        let max_seed = self.max_seed();
        if new_in && d_new <= max_seed + EPS && d_old + EPS > max_seed {
            return ChangeImpact::Rederive;
        }
        if (old_in && self.sector_gate(center, old, d_old))
            || (new_in && self.sector_gate(center, new, d_new))
        {
            return ChangeImpact::Rederive;
        }
        match (self.admitted(center, old), self.admitted(center, new)) {
            (true, true) => ChangeImpact::RepartitionOnly,
            (false, false) => ChangeImpact::Unaffected,
            _ => ChangeImpact::Rederive,
        }
    }

    /// The PR-3 bound: [`UpdateSensitivity::affected_by`] without the
    /// seed-sector prefilter. Kept for reporting — the churn experiment
    /// shows how many re-derivations the prefilter skips.
    pub fn affected_by_knn_bound(&self, center: uv_geom::Point, mbc: &Circle) -> bool {
        use uv_geom::EPS;
        mbc.dist_min(center) <= self.knn_dist + EPS
            || mbc.center.dist(center) <= self.prune_radius + EPS
    }
}

/// The cr-objects of one subject object, with the possible region and the
/// pruning statistics that produced them.
#[derive(Debug, Clone)]
pub struct CrObjects {
    /// The subject object.
    pub object_id: ObjectId,
    /// Candidate reference objects `C_i` (sorted, deduplicated).
    pub cr_ids: Vec<ObjectId>,
    /// The initial possible region built from the seeds.
    pub region: PossibleRegion,
    /// Pruning statistics (seed count, survivors of each phase).
    pub stats: PruneStats,
    /// Affected-object bound for dynamic maintenance.
    pub sensitivity: UpdateSensitivity,
}

impl CrObjects {
    /// Number of cr-objects.
    pub fn len(&self) -> usize {
        self.cr_ids.len()
    }

    /// `true` when no other object can shape the cell (singleton datasets).
    pub fn is_empty(&self) -> bool {
        self.cr_ids.is_empty()
    }
}

/// Derives the cr-objects of `subject` (Algorithm 2).
///
/// `rtree` indexes the whole dataset (including `subject`, which is skipped),
/// and `all_objects` provides uncertainty-region geometry by id.
pub fn derive_cr_objects(
    subject: &UncertainObject,
    rtree: &RTree,
    all_objects: &[UncertainObject],
    domain: &Rect,
    config: &UvConfig,
) -> CrObjects {
    derive_cr_objects_with(
        subject,
        rtree,
        all_objects,
        domain,
        config,
        &mut ClipScratch::default(),
    )
}

/// [`derive_cr_objects`] clipping through the caller's scratch buffers, so
/// a worker deriving many subjects allocates them once.
pub(crate) fn derive_cr_objects_with(
    subject: &UncertainObject,
    rtree: &RTree,
    all_objects: &[UncertainObject],
    domain: &Rect,
    config: &UvConfig,
    clip_scratch: &mut ClipScratch,
) -> CrObjects {
    let total_others = all_objects.len().saturating_sub(1);
    let ci = subject.center();
    let max_edge_len = config.max_edge_len(domain.width().max(domain.height()));

    // ---- Step 1: initial possible region from seeds --------------------------
    let neighbours = rtree.knn(ci, config.seed_knn, Some(subject.id));
    let seeds = select_seeds(ci, &neighbours, config.num_seeds);

    // Degenerate case: every k-NN neighbour is co-located with `c_i`, so no
    // seed exists, the possible region is never clipped and I-pruning's
    // radius degrades to the whole domain. Co-located objects cannot clip the
    // region (their UV-edge against the subject is empty) but they are
    // legitimate reference objects, so when the k-NN set already covers every
    // other object we take them as cr-objects directly and skip the
    // (vacuous) pruning phases. When the dataset holds more objects than the
    // k-NN returned, farther objects could still shape the cell, so we fall
    // through to the normal path, whose full-domain region keeps every
    // survivor — sound, merely unpruned.
    if seeds.is_empty() && !neighbours.is_empty() && neighbours.len() >= total_others {
        let mut cr_ids: Vec<ObjectId> = neighbours.iter().map(|e| e.id).collect();
        cr_ids.sort_unstable();
        cr_ids.dedup();
        let stats = PruneStats {
            total_others,
            seeds: 0,
            after_i_pruning: cr_ids.len(),
            after_c_pruning: cr_ids.len(),
        };
        return CrObjects {
            object_id: subject.id,
            cr_ids,
            region: PossibleRegion::full(subject.mbc(), domain),
            stats,
            // The branch condition compares against the dataset cardinality,
            // so any change re-derives.
            sensitivity: UpdateSensitivity::always_affected(),
        };
    }

    let mut region = PossibleRegion::full(subject.mbc(), domain);
    for seed in &seeds {
        region.clip_with(seed.mbc, config.curve_samples, max_edge_len, clip_scratch);
    }

    // ---- Step 2: I-pruning (Lemma 2) -----------------------------------------
    let d = region.max_dist();
    let i_radius = (2.0 * d - subject.radius()).max(0.0);
    let i_survivors: Vec<ObjectEntry> = rtree
        .range_circle_centers(ci, i_radius)
        .into_iter()
        .filter(|e| e.id != subject.id)
        .collect();

    // ---- Step 3: C-pruning (Lemma 3) -----------------------------------------
    let hull = region.convex_hull();
    let d_bounds: Vec<Circle> = hull.iter().map(|v| Circle::new(*v, v.dist(ci))).collect();
    let mut cr_ids: Vec<ObjectId> = i_survivors
        .iter()
        .filter(|e| d_bounds.iter().any(|bound| bound.contains(e.mbc.center)))
        .map(|e| e.id)
        .collect();

    // The seeds shaped the initial region, so they are candidate reference
    // objects by construction; keep them even if a later, smaller hull would
    // prune them.
    cr_ids.extend(seeds.iter().map(|s| s.id));
    cr_ids.sort_unstable();
    cr_ids.dedup();

    let stats = PruneStats {
        total_others,
        seeds: seeds.len(),
        after_i_pruning: i_survivors.len(),
        after_c_pruning: cr_ids.len(),
    };

    // When fewer than `k` other objects exist, any insert enters the k-NN
    // result; otherwise a change beyond the k-th neighbour distance (the
    // canonical knn result is sorted, so the last entry is farthest) cannot
    // alter the k-NN set.
    let knn_dist = if neighbours.len() < config.seed_knn {
        f64::INFINITY
    } else {
        neighbours.last().map_or(f64::INFINITY, |e| e.dist_min(ci))
    };

    // Seed-sector / C-pruning prefilter state: usable only when the
    // derivation is boundary-safe — a full-`k` neighbour set with every
    // seed strictly inside the k-th neighbour distance, so k-NN membership
    // churn beyond the seeds can never promote or demote a seed (see the
    // type docs). Unseeded sectors keep `INFINITY` (appearances there
    // always re-derive). The d-bounds are the exact circles C-pruning
    // filtered with above; everything stays valid for as long as the seeds
    // do.
    let mut seed_dists = vec![f64::INFINITY; config.num_seeds.max(1)];
    for seed in &seeds {
        if let Some(sector) = sector_of(ci, seed.mbc.center, seed_dists.len()) {
            seed_dists[sector] = seed.mbc.dist_min(ci);
        }
    }
    let max_seed = seeds
        .iter()
        .map(|s| s.mbc.dist_min(ci))
        .fold(f64::NEG_INFINITY, f64::max);
    let boundary_safe =
        knn_dist.is_finite() && max_seed + uv_geom::EPS < knn_dist && !d_bounds.is_empty();
    if !boundary_safe {
        seed_dists.clear();
    }

    CrObjects {
        object_id: subject.id,
        cr_ids,
        region,
        stats,
        sensitivity: UpdateSensitivity {
            knn_dist,
            prune_radius: i_radius,
            seed_dists,
            d_bounds: if boundary_safe { d_bounds } else { Vec::new() },
        },
    }
}

/// The sector (of `num_seeds` equal angular sectors around `ci`) that the
/// point `c` falls into; `None` when `c` coincides with `ci` (no direction).
///
/// Shared by seed selection and by the seed-sector prefilter of
/// [`UpdateSensitivity::affected_by`] — the two must bucket a centre into
/// the same sector or the prefilter would be unsound.
pub(crate) fn sector_of(ci: Point, c: Point, num_seeds: usize) -> Option<usize> {
    if num_seeds == 0 {
        return None;
    }
    let dir = c - ci;
    if dir.norm() <= f64::EPSILON {
        return None;
    }
    let mut angle = dir.y.atan2(dir.x);
    if angle < 0.0 {
        angle += std::f64::consts::TAU;
    }
    Some(((angle / std::f64::consts::TAU * num_seeds as f64) as usize).min(num_seeds - 1))
}

/// Selects at most `num_seeds` seeds from the k-NN result by dividing the
/// plane around `ci` into equal sectors and keeping the closest neighbour of
/// every non-empty sector (Section IV-B).
fn select_seeds(ci: Point, neighbours: &[ObjectEntry], num_seeds: usize) -> Vec<ObjectEntry> {
    let num_seeds = num_seeds.max(1);
    let mut best: Vec<Option<(f64, ObjectEntry)>> = vec![None; num_seeds];
    for e in neighbours {
        let Some(sector) = sector_of(ci, e.mbc.center, num_seeds) else {
            continue;
        };
        let dist = e.mbc.dist_min(ci);
        match &best[sector] {
            Some((d, _)) if *d <= dist => {}
            _ => best[sector] = Some((dist, *e)),
        }
    }
    best.into_iter().flatten().map(|(_, e)| e).collect()
}

/// Soundness check used by tests and debug assertions: every r-object of the
/// exact cell must appear among the cr-objects.
pub fn cr_objects_cover_r_objects(cr: &CrObjects, r_objects: &[ObjectId]) -> bool {
    r_objects.iter().all(|r| cr.cr_ids.binary_search(r).is_ok())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::build_exact_cell;
    use std::sync::Arc;
    use uv_data::{Dataset, DatasetKind, GeneratorConfig, ObjectStore};
    use uv_store::PageStore;

    fn setup(n: usize, kind: DatasetKind) -> (Dataset, RTree) {
        let config = GeneratorConfig {
            kind,
            ..GeneratorConfig::paper_uniform(n)
        };
        let ds = Dataset::generate(config);
        let pages = Arc::new(PageStore::new());
        let objects = ObjectStore::build(Arc::clone(&pages), &ds.objects);
        let tree = RTree::build(&ds.objects, &objects, pages);
        (ds, tree)
    }

    fn test_config() -> UvConfig {
        UvConfig {
            parallel: false,
            ..UvConfig::default()
        }
    }

    #[test]
    fn seeds_are_spread_across_sectors() {
        let (ds, tree) = setup(500, DatasetKind::Uniform);
        let subject = &ds.objects[123];
        let neighbours = tree.knn(subject.center(), 300, Some(subject.id));
        let seeds = select_seeds(subject.center(), &neighbours, 8);
        assert!(!seeds.is_empty());
        assert!(seeds.len() <= 8);
        // Seeds must come from distinct sectors: their angles must differ.
        let mut sectors: Vec<usize> = seeds
            .iter()
            .map(|s| {
                let dir = s.mbc.center - subject.center();
                let mut a = dir.y.atan2(dir.x);
                if a < 0.0 {
                    a += std::f64::consts::TAU;
                }
                (a / std::f64::consts::TAU * 8.0) as usize
            })
            .collect();
        sectors.sort_unstable();
        sectors.dedup();
        assert_eq!(sectors.len(), seeds.len());
    }

    #[test]
    fn pruning_is_sound_cr_objects_cover_r_objects() {
        let (ds, tree) = setup(300, DatasetKind::Uniform);
        let config = test_config();
        for subject in ds.objects.iter().step_by(29) {
            let cr = derive_cr_objects(subject, &tree, &ds.objects, &ds.domain, &config);
            // Exact cell against the full dataset.
            let cell = build_exact_cell(
                subject,
                ds.objects.iter().filter(|o| o.id != subject.id),
                &ds.domain,
                &config,
            );
            assert!(
                cr_objects_cover_r_objects(&cr, &cell.r_objects),
                "object {}: r-objects {:?} not covered by cr-objects {:?}",
                subject.id,
                cell.r_objects,
                cr.cr_ids
            );
        }
    }

    #[test]
    fn pruning_discards_most_objects() {
        let (ds, tree) = setup(800, DatasetKind::Uniform);
        let config = test_config();
        let mut total_ratio = 0.0;
        let samples = 20;
        for subject in ds.objects.iter().step_by(800 / samples) {
            let cr = derive_cr_objects(subject, &tree, &ds.objects, &ds.domain, &config);
            total_ratio += cr.stats.c_ratio();
            assert!(cr.stats.after_i_pruning <= cr.stats.total_others);
            assert!(cr.stats.after_c_pruning <= cr.stats.after_i_pruning + cr.stats.seeds);
        }
        let avg = total_ratio / samples as f64;
        assert!(
            avg > 0.8,
            "C-pruning should discard the vast majority of objects, got ratio {avg}"
        );
    }

    #[test]
    fn i_pruning_is_weaker_than_c_pruning() {
        let (ds, tree) = setup(600, DatasetKind::Uniform);
        let config = test_config();
        let cr = derive_cr_objects(&ds.objects[10], &tree, &ds.objects, &ds.domain, &config);
        assert!(cr.stats.i_ratio() <= cr.stats.c_ratio() + 1e-12);
        assert!(cr.stats.i_ratio() > 0.0);
    }

    #[test]
    fn skewed_data_keeps_pruning_sound() {
        let (ds, tree) = setup(300, DatasetKind::GaussianSkew { sigma: 800.0 });
        let config = test_config();
        for subject in ds.objects.iter().step_by(43) {
            let cr = derive_cr_objects(subject, &tree, &ds.objects, &ds.domain, &config);
            let cell = build_exact_cell(
                subject,
                ds.objects.iter().filter(|o| o.id != subject.id),
                &ds.domain,
                &config,
            );
            assert!(cr_objects_cover_r_objects(&cr, &cell.r_objects));
        }
    }

    #[test]
    fn fully_co_located_neighbours_still_yield_cr_objects() {
        // All objects share one centre: seed selection finds no direction to
        // sector, so without the degenerate-case guard the cr set would be
        // derived from an unclipped whole-domain region. The guard must fall
        // back to taking the co-located objects as cr-objects directly.
        let domain = Rect::square(1_000.0);
        let objects: Vec<UncertainObject> = (0..6)
            .map(|i| UncertainObject::with_uniform(i, Point::new(500.0, 500.0), 10.0))
            .collect();
        let pages = Arc::new(PageStore::new());
        let store = ObjectStore::build(Arc::clone(&pages), &objects);
        let tree = RTree::build(&objects, &store, pages);
        let config = test_config();

        for subject in &objects {
            let cr = derive_cr_objects(subject, &tree, &objects, &domain, &config);
            assert_eq!(cr.stats.seeds, 0, "co-located neighbours yield no seeds");
            let mut expected: Vec<ObjectId> = objects
                .iter()
                .map(|o| o.id)
                .filter(|id| *id != subject.id)
                .collect();
            expected.sort_unstable();
            assert_eq!(
                cr.cr_ids, expected,
                "co-located objects must become cr-objects directly"
            );
            assert_eq!(cr.stats.after_c_pruning, expected.len());
            // The possible region legitimately stays the whole domain: every
            // other object is equidistant from the subject everywhere.
            assert!(cr.region.contains(subject.center()));
        }
    }

    #[test]
    fn co_located_cluster_with_distant_objects_keeps_pruning_sound() {
        // A co-located cluster plus distant objects: seeds exist (from the
        // distant objects), so the normal path runs; the distant shapers must
        // stay in the cr set.
        let domain = Rect::square(1_000.0);
        let mut objects: Vec<UncertainObject> = (0..4)
            .map(|i| UncertainObject::with_uniform(i, Point::new(500.0, 500.0), 10.0))
            .collect();
        objects.push(UncertainObject::with_uniform(
            4,
            Point::new(650.0, 500.0),
            10.0,
        ));
        objects.push(UncertainObject::with_uniform(
            5,
            Point::new(500.0, 320.0),
            10.0,
        ));
        let pages = Arc::new(PageStore::new());
        let store = ObjectStore::build(Arc::clone(&pages), &objects);
        let tree = RTree::build(&objects, &store, pages);
        let config = test_config();

        let subject = &objects[0];
        let cr = derive_cr_objects(subject, &tree, &objects, &domain, &config);
        assert!(cr.stats.seeds > 0);
        // The co-located companions are kept (they are r-objects of the
        // subject's cell) and the cr set covers the exact r-objects.
        for id in [1u32, 2, 3] {
            assert!(cr.cr_ids.contains(&id), "co-located object {id} missing");
        }
        let cell = build_exact_cell(
            subject,
            objects.iter().filter(|o| o.id != subject.id),
            &domain,
            &config,
        );
        assert!(cr_objects_cover_r_objects(&cr, &cell.r_objects));
    }

    #[test]
    fn seed_sector_prefilter_tightens_the_knn_bound() {
        let (ds, tree) = setup(600, DatasetKind::Uniform);
        // A k small enough that the k-NN radius is local, mirroring the
        // dynamic-serving tuning.
        let config = UvConfig {
            parallel: false,
            seed_knn: 32,
            ..UvConfig::default()
        };
        let mut prefiltered = 0usize;
        let mut tightened = 0usize;
        for subject in ds.objects.iter().step_by(17) {
            let cr = derive_cr_objects(subject, &tree, &ds.objects, &ds.domain, &config);
            let s = &cr.sensitivity;
            let Some(seed_dists) = s.seed_dists() else {
                continue;
            };
            prefiltered += 1;
            assert_eq!(seed_dists.len(), config.num_seeds);
            let max_seed = seed_dists
                .iter()
                .copied()
                .filter(|d| d.is_finite())
                .fold(f64::MIN, f64::max);
            assert!(
                max_seed < s.knn_dist,
                "boundary safety requires every seed strictly inside the k-th distance"
            );
            // Anything the tight bound flags, the loose bound flags too.
            let ci = subject.center();
            for other in ds.objects.iter().step_by(23) {
                let mbc = other.mbc();
                if s.affected_by(ci, &mbc) {
                    assert!(
                        s.affected_by_knn_bound(ci, &mbc),
                        "tight bound flagged an object the loose bound missed"
                    );
                } else if s.affected_by_knn_bound(ci, &mbc) {
                    tightened += 1;
                }
            }
            // A change closer than its sector's seed is always affected.
            for (sector, dist) in seed_dists.iter().enumerate() {
                if !dist.is_finite() {
                    continue; // unseeded sector
                }
                let angle = (sector as f64 + 0.5) / seed_dists.len() as f64 * std::f64::consts::TAU;
                let c = Point::new(
                    ci.x + angle.cos() * dist * 0.5,
                    ci.y + angle.sin() * dist * 0.5,
                );
                assert!(s.affected_by(ci, &Circle::new(c, 0.0)));
            }
            // A co-located change has no sector and stays affected.
            assert!(s.affected_by(ci, &Circle::new(ci, 0.0)));
        }
        assert!(
            prefiltered >= 20,
            "uniform data at k=32 should be boundary-safe almost everywhere ({prefiltered})"
        );
        assert!(
            tightened > 0,
            "the prefilter should skip some objects inside the k-NN radius"
        );
    }

    #[test]
    fn tiny_datasets_degenerate_gracefully() {
        let (ds, tree) = setup(2, DatasetKind::Uniform);
        let config = test_config();
        let cr = derive_cr_objects(&ds.objects[0], &tree, &ds.objects, &ds.domain, &config);
        assert_eq!(cr.stats.total_others, 1);
        assert_eq!(cr.cr_ids, vec![1]);
        assert!(!cr.is_empty());
        assert_eq!(cr.len(), 1);
    }

    #[test]
    fn cr_region_is_no_larger_than_domain_and_contains_subject() {
        let (ds, tree) = setup(400, DatasetKind::Uniform);
        let config = test_config();
        let subject = &ds.objects[200];
        let cr = derive_cr_objects(subject, &tree, &ds.objects, &ds.domain, &config);
        assert!(cr.region.area() <= ds.domain.area() + 1e-6);
        assert!(cr.region.contains(subject.center()));
        // With 8 seeds around, the initial region should be far smaller than
        // the domain for a uniform dataset of this size.
        assert!(cr.region.area() < ds.domain.area() * 0.25);
    }
}
