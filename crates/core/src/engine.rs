//! Concurrent batched PNN serving over a shared, read-only [`UvIndex`].
//!
//! Section V-A of the paper evaluates PNN queries one point at a time; a
//! deployment serving heavy traffic instead sees *batches* of query points —
//! the natural workload being streams of positions along trajectories, as in
//! the probabilistic moving-NN setting of Ali et al. [`QueryEngine`] is that
//! serving layer:
//!
//! * **Batched execution** — [`QueryEngine::pnn_batch`] fans a batch out over
//!   the crate's one worker pool: process-wide helper threads, parked while
//!   idle, shared with the subscription engine, the shard layer and the
//!   derivations (crate-internal `pool::fan_out`). The storage layer is
//!   already thread-safe ([`uv_store::PageStore`] uses a reader-writer lock,
//!   its I/O counters are atomic), so workers share the index and object
//!   store without copying.
//! * **Per-leaf memoization** — queries landing in the same leaf reuse the
//!   leaf page read *and* a region-level `d_minmax` candidate screen (see
//!   `prescreen_entries`); both are computed once per leaf and are sound,
//!   so answers stay bit-identical to the sequential path.
//! * **Trajectory workloads** — [`QueryEngine::pnn_trajectory`] answers a
//!   sequence of query points and reports per-step answer deltas
//!   ([`uv_data::AnswerDelta`]): which objects entered/left the answer set as
//!   the query moved.
//! * **One routed serving body** — batches, trajectories and subscriptions
//!   of both serving types run over the crate-internal routed view (shard
//!   engines behind a shard layout); an unsharded system, and a bare
//!   engine's trajectory, are the 1×1 layout.
//!
//! Per-query I/O attribution stays exact under concurrency: every answer's
//! [`uv_data::QueryBreakdown`] counts the page reads *this* query performed
//! (cache hits report zero index I/O), so summing breakdowns over a batch
//! reproduces the store counters' delta.
//!
//! *The paper-to-code map for the whole workspace — every definition, lemma,
//! algorithm and experiment of the paper, with its module and key functions —
//! lives in `docs/PAPER_MAP.md` at the repository root.*

use crate::index::UvIndex;
use crate::pool::{fan_out, parallel_workers};
use crate::shard::Layout;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};
use uv_data::{
    AnswerDelta, EntryArena, KernelArena, ObjectEntry, ObjectStore, PnnAnswer, QuadratureScratch,
    QueryBreakdown, UncertainObject,
};
use uv_geom::{Point, Rect, EPS};

/// One step of a moving-PNN (trajectory) workload: the query position, its
/// full answer and the delta against the previous step's answer set.
#[derive(Debug, Clone)]
pub struct TrajectoryStep {
    /// The query point of this step.
    pub position: Point,
    /// The full PNN answer at this position.
    pub answer: PnnAnswer,
    /// Change of the answer set relative to the previous step (for the first
    /// step, relative to the empty answer: everything `entered`).
    pub delta: AnswerDelta,
    /// `true` when the step was answered from the previous step's safe
    /// region (cached candidate set, zero index/object I/O) rather than a
    /// full index descent. The answer is bit-identical either way.
    pub reused: bool,
}

/// Leaf payload memoized by the engine: the leaf's entries after the sound
/// region-level candidate screen, flattened onto an [`EntryArena`] (the
/// leaf's clearance geometry — every query and subscription miss landing in
/// this leaf shares the one arena), plus the page reads the fill cost.
#[derive(Debug)]
struct CachedLeaf {
    arena: EntryArena,
    io_pages: u64,
}

/// Screened entry arena of one leaf: borrowed from the per-leaf cache when
/// enabled, otherwise built on the spot from a direct page read.
enum LeafArenaRef<'c> {
    Cached(&'c EntryArena),
    Owned(EntryArena),
}

impl LeafArenaRef<'_> {
    fn get(&self) -> &EntryArena {
        match self {
            LeafArenaRef::Cached(a) => a,
            LeafArenaRef::Owned(a) => a,
        }
    }
}

/// Per-worker scratch threaded through the batched kernels: screen
/// distances, candidate indices, the object I/O page set, the candidate
/// [`KernelArena`] and its quadrature buffers. One instance serves every
/// query one participant of a fan-out claims; nothing in it survives a
/// query except its allocations.
#[derive(Debug, Default)]
pub(crate) struct EngineScratch {
    screen: uv_data::ScreenScratch,
    candidates: Vec<usize>,
    touched: HashSet<u32>,
    /// The candidates of the last [`QueryEngine::derive_at`], ring tables
    /// built.
    pub(crate) kernel: KernelArena,
    pub(crate) quad: QuadratureScratch,
}

/// Lazily filled per-leaf cache, indexed by grid-node id. `OnceLock` makes
/// concurrent fills race-free: exactly one worker reads the pages, everyone
/// else blocks briefly and reuses the result.
///
/// The cache is tagged with the index [`UvIndex::epoch`] it was created for.
/// Dynamic maintenance ([`crate::update`]) bumps the epoch on every applied
/// batch; a cache whose epoch no longer matches is bypassed entirely, so a
/// reader can never be served leaf pages from before an update. (While an
/// engine borrows the index the borrow checker already forbids mutation —
/// the epoch tag keeps the invariant explicit and robust under future shared
/// ownership.)
#[derive(Debug)]
struct LeafCache {
    epoch: u64,
    slots: Vec<OnceLock<CachedLeaf>>,
}

impl LeafCache {
    fn new(epoch: u64, nodes: usize) -> Self {
        let mut slots = Vec::with_capacity(nodes);
        slots.resize_with(nodes, OnceLock::new);
        Self { epoch, slots }
    }

    /// Number of leaves whose pages have been read and memoized so far.
    fn filled(&self) -> usize {
        self.slots.iter().filter(|s| s.get().is_some()).count()
    }
}

/// Reuse state threaded through a trajectory walk: the last fully derived
/// step's leaf, a disk around its position inside which the candidate set is
/// provably unchanged, and the candidate [`KernelArena`] (ids, geometry and
/// ring tables of the fetched candidates, in candidate order).
///
/// While the next path point stays strictly inside the disk *and* in the
/// same leaf, the answer is recomputed from the cached arena alone — same
/// candidate ids in the same order, same integration — so it is
/// bit-identical to a full derivation, at zero index and object I/O. Only
/// the three per-candidate distance terms are recomputed per step; the ring
/// tables were built once at derivation time.
#[derive(Debug)]
struct StepReuse {
    leaf: usize,
    anchor: Point,
    radius: f64,
    examined: usize,
    kernel: KernelArena,
    quad: QuadratureScratch,
}

/// A derivation stopped after the screen and the candidate fetch, its
/// candidates' ring tables built in the scratch's kernel arena: the leaf, the
/// signed clearance of the candidate screen (the fused stability term) and
/// whether the leaf's cached clearance geometry was reused rather than built
/// by this derivation. [`QueryEngine::integrate`] finishes it with the
/// quadrature; [`crate::subscribe`] may decide the answer set from the kernel
/// arena instead.
pub(crate) struct Screened {
    pub(crate) leaf: usize,
    pub(crate) clearance: f64,
    pub(crate) arena_reused: bool,
    examined: usize,
    breakdown: QueryBreakdown,
}

/// Drops entries that can never survive the per-query `d_minmax` screen for
/// *any* query point inside `region` (the leaf's rectangle).
///
/// Soundness: for every `q` in the region, `d_minmax(q) = min_e dist_max(e,
/// q)` is at most `D = min_e max_{p in region} dist_max(e, p)`, while an
/// entry's `dist_min(e, q)` is at least `L_e = min_{p in region} dist_min(e,
/// p)`. An entry with `L_e > D` therefore fails `dist_min(e, q) <=
/// d_minmax(q)` everywhere in the region — it can neither be a candidate nor
/// (being non-minimal everywhere) shift the `d_minmax` value itself, so the
/// surviving candidate set and probabilities are bit-identical to screening
/// the full entry list.
pub(crate) fn prescreen_entries(mut entries: Vec<ObjectEntry>, region: &Rect) -> Vec<ObjectEntry> {
    let d = entries
        .iter()
        .map(|e| region.dist_max(e.mbc.center) + e.mbc.radius)
        .fold(f64::INFINITY, f64::min);
    entries.retain(|e| (region.dist_min(e.mbc.center) - e.mbc.radius).max(0.0) <= d + EPS);
    entries
}

/// A concurrent batched PNN query engine over a shared read-only
/// [`UvIndex`] — the serving layer the `docs/PAPER_MAP.md` Section V-A row
/// describes alongside the paper's single-point lookup.
///
/// The engine borrows the index and object store, so building one is free;
/// keep it alive across batches to retain the leaf cache.
///
/// ```
/// use std::sync::Arc;
/// use uv_core::{engine::QueryEngine, UvSystem};
/// use uv_data::{Dataset, GeneratorConfig};
///
/// let ds = Dataset::generate(GeneratorConfig::paper_uniform(120));
/// let system = UvSystem::with_defaults(ds.objects.clone(), ds.domain);
/// let engine = QueryEngine::new(system.index(), system.object_store());
/// let queries = ds.query_points(16, 42);
/// let answers = engine.pnn_batch(&queries);
/// // Identical to the sequential Section V-A path, computed concurrently.
/// for (q, a) in queries.iter().zip(&answers) {
///     assert_eq!(a.probabilities, system.pnn(*q).probabilities);
/// }
/// ```
#[derive(Debug)]
pub struct QueryEngine<'a> {
    index: &'a UvIndex,
    objects: &'a ObjectStore,
    workers: usize,
    integration_steps: usize,
    cache: Option<LeafCache>,
}

impl<'a> QueryEngine<'a> {
    /// Creates an engine over `index` and `objects`, taking the worker count,
    /// cache toggle and integration steps from the index's [`crate::UvConfig`].
    pub fn new(index: &'a UvIndex, objects: &'a ObjectStore) -> Self {
        let config = index.config();
        Self {
            index,
            objects,
            workers: config.resolved_query_workers().max(1),
            integration_steps: config.integration_steps,
            cache: None,
        }
        .with_cache(config.leaf_cache)
    }

    /// Overrides the worker count (clamped to at least 1).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Enables or disables the per-leaf cache (dropping any cached leaves).
    pub fn with_cache(mut self, enabled: bool) -> Self {
        self.cache = enabled.then(|| LeafCache::new(self.index.epoch(), self.index.nodes.len()));
        self
    }

    /// Most threads `pnn_batch` fans out over, the calling thread
    /// included; the worker pool caps it at `available_parallelism()`.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// `true` when the per-leaf cache is enabled.
    pub fn cache_enabled(&self) -> bool {
        self.cache.is_some()
    }

    /// Number of leaves currently memoized (0 when the cache is disabled).
    pub fn cached_leaves(&self) -> usize {
        self.cache.as_ref().map_or(0, LeafCache::filled)
    }

    /// The index epoch the leaf cache was created for, if caching is
    /// enabled. A cache is only ever consulted while this matches
    /// [`UvIndex::epoch`].
    pub fn cache_epoch(&self) -> Option<u64> {
        self.cache.as_ref().map(|c| c.epoch)
    }

    /// Answers a single PNN query through the engine (leaf cache, if
    /// enabled, but no fan-out). Bit-identical to [`UvIndex::pnn`].
    pub fn pnn(&self, q: Point) -> PnnAnswer {
        self.pnn_with(q, &mut EngineScratch::default())
    }

    /// [`QueryEngine::pnn`] with caller-provided kernel scratch, so a worker
    /// reuses its buffers across every query it claims.
    pub(crate) fn pnn_with(&self, q: Point, scratch: &mut EngineScratch) -> PnnAnswer {
        self.derive_at(q, scratch)
            .map_or_else(PnnAnswer::default, |s| self.integrate(q, &s, scratch))
    }

    /// The index this engine serves.
    pub(crate) fn index(&self) -> &'a UvIndex {
        self.index
    }

    /// Screened entry arena of leaf node `leaf`, plus the leaf pages this
    /// call actually read and whether an already-built cached arena was
    /// reused. Goes through the per-leaf cache when enabled (a hit reads
    /// zero pages and reuses the leaf's clearance geometry), otherwise reads
    /// and screens the pages directly. Either way the arena holds the sound
    /// `d_minmax` prescreen of the full page list, so candidate sets derived
    /// from it are bit-identical to the unscreened path for every query
    /// point inside the leaf.
    fn leaf_arena(&self, leaf: usize) -> (LeafArenaRef<'_>, u64, bool) {
        // The cache is only usable while its epoch matches the index (and
        // its slot table still covers the node id): anything else falls back
        // to a direct leaf read, so stale pages are unreachable.
        let cache = self
            .cache
            .as_ref()
            .filter(|c| c.epoch == self.index.epoch() && leaf < c.slots.len());
        let Some(cache) = cache else {
            let (entries, io) = self.index.leaf_entries(leaf);
            let entries = prescreen_entries(entries, &self.index.node_regions[leaf]);
            let mut arena = EntryArena::default();
            arena.assign(&entries);
            return (LeafArenaRef::Owned(arena), io, false);
        };
        let mut filled_here = false;
        let cached = cache.slots[leaf].get_or_init(|| {
            filled_here = true;
            let (entries, io_pages) = self.index.leaf_entries(leaf);
            let entries = prescreen_entries(entries, &self.index.node_regions[leaf]);
            let mut arena = EntryArena::default();
            arena.assign(&entries);
            CachedLeaf { arena, io_pages }
        });
        // Only the worker that actually read the pages is charged the I/O;
        // cache hits cost none, keeping per-query attribution exact.
        let io = if filled_here { cached.io_pages } else { 0 };
        (LeafArenaRef::Cached(&cached.arena), io, !filled_here)
    }

    /// Derives at `q` up to the quadrature — leaf descent, screened entry
    /// arena, fused `d_minmax` verification, pdf retrieval for the surviving
    /// candidates and their ring tables in `scratch`'s kernel arena. `None`
    /// when `q` lies outside the domain. [`QueryEngine::integrate`] finishes
    /// the answer bit-identically to [`crate::index::verify_and_refine`]
    /// over the same (screened) entries.
    pub(crate) fn derive_at(&self, q: Point, scratch: &mut EngineScratch) -> Option<Screened> {
        let t_traversal = Instant::now();
        let leaf = self.index.locate_leaf(q)?;
        let (arena, index_io, arena_reused) = self.leaf_arena(leaf);
        let arena = arena.get();
        let mut breakdown = QueryBreakdown::default();
        let screen = arena.screen(q, &mut scratch.screen, &mut scratch.candidates);
        breakdown.traversal = t_traversal.elapsed();
        breakdown.index_io = index_io;

        let t_retrieval = Instant::now();
        scratch.touched.clear();
        let ids = arena.ids();
        let fetched: Vec<&UncertainObject> = scratch
            .candidates
            .iter()
            .filter_map(|&i| self.objects.fetch(ids[i], &mut scratch.touched))
            .collect();
        breakdown.retrieval = t_retrieval.elapsed();
        // `fetch` charges exactly one page read per page newly inserted into
        // the touched set, so the set size is this query's object I/O.
        breakdown.object_io = scratch.touched.len() as u64;

        let t_prob = Instant::now();
        scratch.kernel.assign(fetched);
        breakdown.probability = t_prob.elapsed();
        Some(Screened {
            leaf,
            clearance: screen.clearance,
            arena_reused,
            examined: scratch.candidates.len(),
            breakdown,
        })
    }

    /// Finishes a [`QueryEngine::derive_at`] at the same `q` and over the
    /// same scratch with the arena quadrature and the positive-probability
    /// filter: the answer bit-identical to [`QueryEngine::pnn`].
    pub(crate) fn integrate(
        &self,
        q: Point,
        screened: &Screened,
        scratch: &mut EngineScratch,
    ) -> PnnAnswer {
        let t_prob = Instant::now();
        let mut probabilities = scratch.kernel.qualification_probabilities(
            q,
            self.integration_steps,
            &mut scratch.quad,
        );
        probabilities.retain(|(_, p)| *p > 0.0);
        let mut breakdown = screened.breakdown;
        breakdown.probability += t_prob.elapsed();
        PnnAnswer {
            probabilities,
            candidates_examined: screened.examined,
            breakdown,
        }
    }

    /// Answers one trajectory point, reusing `reuse` when the point stays
    /// strictly inside the previous full derivation's stability disk (and
    /// leaf). Returns the answer and whether it was served from the cached
    /// candidate arena. On a miss the reuse state is re-derived (or cleared,
    /// outside the domain / when no useful stability radius exists).
    fn pnn_step(&self, q: Point, reuse: &mut Option<StepReuse>) -> (PnnAnswer, bool) {
        if let Some(r) = reuse.as_mut() {
            if q.dist(r.anchor) < r.radius && self.index.locate_leaf(q) == Some(r.leaf) {
                // The tail of the full pipeline over the cached candidate
                // arena (quadrature + positive-probability filter), at zero
                // index and object I/O. Bit-identical to a full derivation
                // because the candidate list is provably frozen inside the
                // disk.
                let t = Instant::now();
                let mut probabilities =
                    r.kernel
                        .qualification_probabilities(q, self.integration_steps, &mut r.quad);
                probabilities.retain(|(_, p)| *p > 0.0);
                let answer = PnnAnswer {
                    probabilities,
                    candidates_examined: r.examined,
                    breakdown: QueryBreakdown {
                        probability: t.elapsed(),
                        ..QueryBreakdown::default()
                    },
                };
                return (answer, true);
            }
        }
        let mut scratch = EngineScratch::default();
        let Some(d) = self.derive_at(q, &mut scratch) else {
            *reuse = None;
            return (PnnAnswer::default(), false);
        };
        let answer = self.integrate(q, &d, &mut scratch);
        let radius = self
            .index
            .config()
            .apply_safe_region_floor(d.clearance, self.index.domain());
        *reuse = (radius > 0.0).then_some(StepReuse {
            leaf: d.leaf,
            anchor: q,
            radius,
            examined: answer.candidates_examined,
            kernel: scratch.kernel,
            quad: scratch.quad,
        });
        (answer, false)
    }

    /// Answers a batch of PNN queries, fanned out over the worker pool.
    ///
    /// Answers come back in query order and are bit-identical (probabilities
    /// and candidate counts) to running [`UvIndex::pnn`] in a sequential
    /// loop; only the timing/I/O breakdowns differ (cache hits read no
    /// pages).
    pub fn pnn_batch(&self, queries: &[Point]) -> Vec<PnnAnswer> {
        fan_out(self.workers, queries.to_vec(), |scratch, q| {
            self.pnn_with(q, scratch)
        })
    }

    /// Like [`QueryEngine::pnn_batch`], additionally returning the wall-clock
    /// time of the whole batch (what a throughput measurement wants).
    pub fn pnn_batch_timed(&self, queries: &[Point]) -> (Vec<PnnAnswer>, Duration) {
        let start = Instant::now();
        let answers = self.pnn_batch(queries);
        (answers, start.elapsed())
    }

    /// Answers a moving-PNN workload: `path` is a sequence of query points
    /// along a trajectory; each step carries the full answer plus the delta
    /// against the previous step's answer set — the routed view's walk, the
    /// engine being the 1×1 layout.
    ///
    /// With [`crate::UvConfig::safe_region`] enabled (the default) the walk
    /// carries a stability disk: consecutive points inside the previous full
    /// derivation's disk skip the index descent and recompute from the
    /// cached candidate set ([`TrajectoryStep::reused`] is `true`), with
    /// answers bit-identical to a full evaluation. When disabled, every
    /// point is answered through [`QueryEngine::pnn_batch`]. A point outside
    /// the domain, or with a NaN or infinite coordinate, gets the empty
    /// answer and is never reused.
    pub fn pnn_trajectory(&self, path: &[Point]) -> Vec<TrajectoryStep> {
        self.routed(|view| view.pnn_trajectory(path))
    }

    /// Runs `f` on the routed view of this engine as the 1×1 layout.
    pub(crate) fn routed<R>(&self, f: impl FnOnce(RoutedView<'_, 'a>) -> R) -> R {
        let layout = Layout::uniform(self.index.domain(), 1);
        f(RoutedView::over(std::slice::from_ref(self), &layout))
    }
}

/// The routed view, the one serving body of both systems: one
/// [`QueryEngine`] per shard behind the [`Layout`] routing points to them;
/// an unsharded system and a bare engine are the 1×1 layout. Every point
/// is routed by [`Layout::owner_of`], so an unowned point — outside the
/// domain, or with a NaN or infinite coordinate — gets the empty answer.
#[derive(Clone, Copy)]
pub(crate) struct RoutedView<'v, 'a> {
    /// One engine per shard, indexed like the layout's rectangles.
    pub(crate) engines: &'v [QueryEngine<'a>],
    pub(crate) layout: &'v Layout,
    /// Per-owner query tallies: the sharded system's, or none.
    pub(crate) loads: Option<&'v [AtomicU64]>,
}

impl<'v, 'a> RoutedView<'v, 'a> {
    /// The view over `engines` and `layout` that tallies nothing.
    pub(crate) fn over(engines: &'v [QueryEngine<'a>], layout: &'v Layout) -> Self {
        Self {
            engines,
            layout,
            loads: None,
        }
    }

    /// The owner of `p` and its engine, tallying the query to the owner.
    fn route(&self, p: Point) -> Option<(usize, &'v QueryEngine<'a>)> {
        let s = self.layout.owner_of(p)?;
        let engine = self.engines.get(s)?;
        if let Some(load) = self.loads.and_then(|loads| loads.get(s)) {
            load.fetch_add(1, Ordering::Relaxed);
        }
        Some((s, engine))
    }

    /// Answers a batch in query order: queries are grouped by owner, one
    /// job per group fans out over the pool when the configuration is
    /// parallel, and each group is answered by its shard's
    /// [`QueryEngine::pnn_batch`], itself a fan-out over the same pool.
    pub(crate) fn pnn_batch(&self, queries: &[Point]) -> Vec<PnnAnswer> {
        let mut groups: Vec<Vec<(usize, Point)>> = vec![Vec::new(); self.engines.len()];
        for (i, q) in queries.iter().enumerate() {
            if let Some((s, _)) = self.route(*q) {
                groups[s].push((i, *q));
            }
        }
        let jobs: Vec<(&QueryEngine<'a>, Vec<(usize, Point)>)> = self
            .engines
            .iter()
            .zip(groups)
            .filter(|(_, group)| !group.is_empty())
            .collect();
        let workers = self
            .engines
            .first()
            .map_or(1, |e| parallel_workers(e.index.config()));
        let results = fan_out(workers, jobs, |(), (engine, group)| {
            let points: Vec<Point> = group.iter().map(|(_, q)| *q).collect();
            (group, engine.pnn_batch(&points))
        });
        let mut answers = vec![PnnAnswer::default(); queries.len()];
        for (group, group_answers) in results {
            for ((i, _), answer) in group.into_iter().zip(group_answers) {
                answers[i] = answer;
            }
        }
        answers
    }

    /// The one moving-PNN walk. With [`crate::UvConfig::safe_region`]
    /// enabled, each point routes to its owner's engine, which reuses the
    /// previous step's stability disk while the point stays inside it and
    /// in the same leaf; the reuse state is dropped whenever the owner
    /// changes. Disabled, the path is answered as one batch.
    pub(crate) fn pnn_trajectory(&self, path: &[Point]) -> Vec<TrajectoryStep> {
        let safe_region = self
            .engines
            .first()
            .is_some_and(|e| e.index.config().safe_region);
        let answers: Vec<(PnnAnswer, bool)> = if safe_region {
            let (mut reuse, mut current) = (None, None);
            path.iter()
                .map(|q| {
                    let routed = self.route(*q);
                    let owner = routed.map(|(s, _)| s);
                    if owner != current {
                        (reuse, current) = (None, owner);
                    }
                    routed.map_or((PnnAnswer::default(), false), |(_, engine)| {
                        engine.pnn_step(*q, &mut reuse)
                    })
                })
                .collect()
        } else {
            self.pnn_batch(path)
                .into_iter()
                .map(|a| (a, false))
                .collect()
        };
        // One delta chain across every owner change.
        let mut prev = PnnAnswer::default();
        path.iter()
            .zip(answers)
            .map(|(position, (answer, reused))| {
                let delta = AnswerDelta::between(&prev, &answer);
                prev = answer.clone();
                TrajectoryStep {
                    position: *position,
                    answer,
                    delta,
                    reused,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::ShardedUvSystem;
    use crate::system::UvSystem;
    use crate::{Method, UvConfig};
    use uv_data::{Dataset, GeneratorConfig, QueryBreakdown};

    fn fixture(n: usize) -> (Dataset, UvSystem) {
        let ds = Dataset::generate(GeneratorConfig::paper_uniform(n));
        let system = UvSystem::build(
            ds.objects.clone(),
            ds.domain,
            Method::IC,
            UvConfig::default(),
        )
        .unwrap();
        (ds, system)
    }

    fn assert_identical(a: &PnnAnswer, b: &PnnAnswer) {
        assert_eq!(a.probabilities, b.probabilities);
        assert_eq!(a.candidates_examined, b.candidates_examined);
    }

    #[test]
    fn batch_matches_sequential_loop_cached_and_uncached() {
        let (ds, system) = fixture(400);
        let queries = ds.query_points(40, 11);
        let sequential: Vec<PnnAnswer> = queries.iter().map(|q| system.pnn(*q)).collect();
        for cache in [true, false] {
            for workers in [1, 4] {
                let engine = QueryEngine::new(system.index(), system.object_store())
                    .with_workers(workers)
                    .with_cache(cache);
                let batch = engine.pnn_batch(&queries);
                assert_eq!(batch.len(), sequential.len());
                for (b, s) in batch.iter().zip(&sequential) {
                    assert_identical(b, s);
                }
            }
        }
    }

    #[test]
    fn cache_elides_repeat_page_reads() {
        let (ds, system) = fixture(300);
        let engine = QueryEngine::new(system.index(), system.object_store()).with_workers(1);
        assert!(engine.cache_enabled());
        assert_eq!(engine.cached_leaves(), 0);
        let q = ds.query_points(1, 3)[0];

        system.index().store().reset_io();
        let first = engine.pnn(q);
        assert!(first.breakdown.index_io >= 1, "first query reads the leaf");
        assert_eq!(engine.cached_leaves(), 1);
        let reads_after_first = system.index().store().io().reads;

        let second = engine.pnn(q);
        assert_identical(&first, &second);
        assert_eq!(second.breakdown.index_io, 0, "cache hit reads no pages");
        assert_eq!(
            system.index().store().io().reads,
            reads_after_first,
            "no physical page reads on a cache hit"
        );
    }

    #[test]
    fn per_query_io_sums_to_store_counters() {
        let (ds, system) = fixture(350);
        let queries = ds.query_points(60, 23);
        for cache in [true, false] {
            let engine = QueryEngine::new(system.index(), system.object_store())
                .with_workers(4)
                .with_cache(cache);
            system.index().store().reset_io();
            system.object_store().store().reset_io();
            let answers = engine.pnn_batch(&queries);
            let total = QueryBreakdown::sum(answers.iter().map(|a| &a.breakdown));
            assert_eq!(
                total.index_io,
                system.index().store().io().reads,
                "index I/O attribution must be exact (cache={cache})"
            );
            assert_eq!(
                total.object_io,
                system.object_store().store().io().reads,
                "object I/O attribution must be exact (cache={cache})"
            );
        }
    }

    #[test]
    fn out_of_domain_queries_return_empty_answers() {
        let (ds, system) = fixture(80);
        let engine = QueryEngine::new(system.index(), system.object_store());
        let outside = Point::new(-50.0, 5_000.0);
        let answer = engine.pnn(outside);
        assert!(answer.probabilities.is_empty());
        let inside = Point::new(5_000.0, 5_000.0);
        let batch = engine.pnn_batch(&[outside, inside]);
        assert!(batch[0].probabilities.is_empty());
        assert!(!batch[1].probabilities.is_empty());

        // A NaN or infinite coordinate on either axis has no owner: all six
        // entry points of both serving types answer it empty, never reuse,
        // read no page and tally no query.
        let bad: Vec<Point> = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY]
            .into_iter()
            .flat_map(|v| [Point::new(v, inside.y), Point::new(inside.x, v)])
            .collect();
        let config = UvConfig::default().with_num_shards(2);
        let sharded =
            ShardedUvSystem::build(ds.objects.clone(), ds.domain, Method::IC, config).unwrap();
        let mut stores = vec![
            system.index().store(),
            system.object_store().store(),
            system.rtree().store(),
            sharded.router().rtree.store(),
        ];
        for s in 0..sharded.shard_count() {
            stores.push(sharded.shard(s).index().store());
            stores.push(sharded.shard(s).object_store().store());
        }
        let reads = || stores.iter().map(|store| store.io().reads).sum::<u64>();
        let (reads_before, loads_before) = (reads(), sharded.load_stats().queries);
        let empty = |a: &PnnAnswer| a.probabilities.is_empty() && a.candidates_examined == 0;
        for q in &bad {
            assert!(empty(&system.pnn(*q)) && empty(&sharded.pnn(*q)), "{q:?}");
        }
        for answers in [system.pnn_batch(&bad), sharded.pnn_batch(&bad)] {
            assert_eq!(answers.len(), bad.len());
            assert!(answers.iter().all(empty));
        }
        for steps in [system.pnn_trajectory(&bad), sharded.pnn_trajectory(&bad)] {
            assert_eq!(steps.len(), bad.len());
            assert!(steps.iter().all(|s| empty(&s.answer) && !s.reused));
        }
        assert_eq!(reads(), reads_before, "a non-finite query read a page");
        assert_eq!(sharded.load_stats().queries, loads_before);

        // Inside a slow walk, a non-finite step answers empty and drops the
        // reuse state the next step would otherwise have used.
        let step = |k: f64| Point::new(inside.x + k * 1e-3, inside.y);
        let plain = [step(0.0), step(1.0), step(2.0)];
        let broken = [step(0.0), step(1.0), bad[0], step(2.0)];
        for (plain, broken) in [
            (
                system.pnn_trajectory(&plain),
                system.pnn_trajectory(&broken),
            ),
            (
                sharded.pnn_trajectory(&plain),
                sharded.pnn_trajectory(&broken),
            ),
        ] {
            assert!(plain[2].reused, "the undisturbed walk reuses its disk");
            assert!(empty(&broken[2].answer) && !broken[2].reused);
            assert!(!broken[3].reused);
            assert_identical(&broken[3].answer, &plain[2].answer);
            assert_eq!(broken[3].delta.entered, plain[2].answer.answer_ids());
        }
    }

    #[test]
    fn trajectory_deltas_are_consistent_with_answers() {
        let (_ds, system) = fixture(300);
        let engine = QueryEngine::new(system.index(), system.object_store());
        // A straight path across the domain, dense enough to see handovers.
        let path: Vec<Point> = (0..50)
            .map(|i| {
                let t = i as f64 / 49.0;
                Point::new(500.0 + 9_000.0 * t, 2_000.0 + 6_000.0 * t)
            })
            .collect();
        let steps = engine.pnn_trajectory(&path);
        assert_eq!(steps.len(), path.len());
        // First step: everything entered.
        assert_eq!(steps[0].delta.entered, steps[0].answer.answer_ids());
        assert!(steps[0].delta.left.is_empty());
        // Every later delta must match recomputing it from the answers, and
        // every answer must match the sequential path.
        for w in steps.windows(2) {
            assert_eq!(w[1].delta, AnswerDelta::between(&w[0].answer, &w[1].answer));
        }
        let mut handovers = 0usize;
        for step in &steps {
            assert_identical(&step.answer, &system.pnn(step.position));
            handovers += step.delta.churn();
        }
        assert!(
            handovers > steps[0].answer.answer_ids().len(),
            "a path across the domain must change its neighbourhood"
        );
        // The moving query visits many leaves; the cache should have filled.
        assert!(engine.cached_leaves() > 1);
    }

    #[test]
    fn safe_region_trajectory_is_bit_identical_to_the_disabled_walk() {
        let ds = Dataset::generate(GeneratorConfig::paper_uniform(250));
        let on = UvSystem::build(
            ds.objects.clone(),
            ds.domain,
            Method::IC,
            UvConfig::default(),
        )
        .unwrap();
        let off = UvSystem::build(
            ds.objects.clone(),
            ds.domain,
            Method::IC,
            UvConfig::default().with_safe_region(false),
        )
        .unwrap();
        // A slow drift: steps short enough that most land inside the
        // previous derivation's stability disk.
        let path: Vec<Point> = (0..120)
            .map(|i| {
                let t = i as f64;
                Point::new(4_000.0 + 6.0 * t, 5_200.0 + 2.5 * t)
            })
            .collect();
        let engine_on = QueryEngine::new(on.index(), on.object_store());
        let engine_off = QueryEngine::new(off.index(), off.object_store());
        let steps_on = engine_on.pnn_trajectory(&path);
        let steps_off = engine_off.pnn_trajectory(&path);

        // The disabled walk never reuses; the enabled one must, and its
        // first step is always a full derivation.
        assert!(steps_off.iter().all(|s| !s.reused));
        assert!(!steps_on[0].reused);
        let reused = steps_on.iter().filter(|s| s.reused).count();
        assert!(
            reused * 2 > steps_on.len(),
            "a slow drift should mostly stay inside its safe regions \
             ({reused}/{} reused)",
            steps_on.len()
        );

        // Bit-identical answers and deltas, step by step.
        for (a, b) in steps_on.iter().zip(&steps_off) {
            assert_eq!(a.position, b.position);
            assert_identical(&a.answer, &b.answer);
            for ((ia, pa), (ib, pb)) in a.answer.probabilities.iter().zip(&b.answer.probabilities) {
                assert_eq!(ia, ib);
                assert_eq!(pa.to_bits(), pb.to_bits(), "probability bits diverged");
            }
            assert_eq!(a.delta, b.delta);
        }
    }

    #[test]
    fn prescreen_never_drops_a_possible_candidate() {
        let (_ds, system) = fixture(250);
        // For every leaf, dense-sample query points and check the screened
        // entry set yields the same candidates as the full set.
        for (region, _) in system.index().leaves().take(12) {
            let leaf = system
                .index()
                .locate_leaf(region.center())
                .expect("leaf centre is in the domain");
            let (entries, _) = system.index().leaf_entries(leaf);
            let screened = prescreen_entries(entries.clone(), region);
            assert!(screened.len() <= entries.len());
            for sx in 0..4 {
                for sy in 0..4 {
                    let q = Point::new(
                        region.min_x + region.width() * (sx as f64 + 0.5) / 4.0,
                        region.min_y + region.height() * (sy as f64 + 0.5) / 4.0,
                    );
                    let dminmax = |es: &[ObjectEntry]| {
                        es.iter()
                            .map(|e| e.dist_max(q))
                            .fold(f64::INFINITY, f64::min)
                    };
                    let candidates = |es: &[ObjectEntry]| {
                        let d = dminmax(es);
                        es.iter()
                            .filter(|e| e.dist_min(q) <= d + EPS)
                            .map(|e| e.id)
                            .collect::<Vec<_>>()
                    };
                    assert_eq!(
                        candidates(&entries),
                        candidates(&screened),
                        "prescreen changed the candidate set at {q:?}"
                    );
                }
            }
        }
    }
}
