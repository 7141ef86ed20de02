//! The three closed-loop workloads and what they share: the per-pass
//! result, per-query and page-store tallies, answer checks and the
//! snapshot/restart phase.

pub mod churn_rw;
pub mod fleet_sharded;
pub mod pnn_static;

use crate::measure::{mean, median, peak_rss_mb, percentile, Ops, Plan};
use crate::metrics::{END_TO_END, PER_LAYER, TAILS};
use crate::trace::Tracer;
use std::collections::{BTreeMap, HashMap};
use uv_core::index::CanonicalLeaf;
use uv_core::{ConstructionStats, UpdateStats, UvError, UvSystem};
use uv_data::{ObjectId, PnnAnswer};
use uv_geom::Point;

/// One pass of a workload: a fixed or timed run over freshly built state.
pub type Workload = fn(u64, Plan, Tracer) -> Result<Pass, String>;

pub const NAMES: [&str; 3] = ["pnn_static", "churn_rw", "fleet_sharded"];

pub fn lookup(name: &str) -> Option<Workload> {
    match name {
        "pnn_static" => Some(pnn_static::run as Workload),
        "churn_rw" => Some(churn_rw::run as Workload),
        "fleet_sharded" => Some(fleet_sharded::run as Workload),
        _ => None,
    }
}

pub struct Pass {
    pub e2e: EndToEnd,
    pub layers: Layers,
    pub ops: Ops,
    pub tracer: Tracer,
}

impl Pass {
    pub fn new(tracer: Tracer) -> Self {
        Self {
            e2e: EndToEnd::default(),
            layers: Layers::new(),
            ops: Ops::default(),
            tracer,
        }
    }

    /// Records how far each end-to-end metric of this (traced) pass moved
    /// from `untraced`, the values of the same work with tracing off.
    pub fn record_overhead(&mut self, untraced: &[f64; END_TO_END.len()]) {
        let traced = self.e2e.values();
        for (metric, (base, (traced, _))) in END_TO_END.iter().zip(untraced.iter().zip(&traced)) {
            let name = PER_LAYER
                .iter()
                .map(|m| m.name)
                .find(|n| n.strip_prefix("trace.overhead_frac.") == Some(metric.name))
                .expect("an overhead metric per end-to-end metric");
            self.layers.set(name, (traced - base) / base);
        }
    }

    /// Sets the per-layer metrics that are span means, plus the share of
    /// round time spent in the benchmark's own code.
    fn finish(mut self) -> Self {
        let spans = [
            ("builder.build", "builder.build_s", 1.0),
            ("subscribe.register", "subscribe.register_s", 1.0),
            ("engine.pnn_batch", "engine.pnn_batch_ms", 1e3),
            ("update.apply", "update.apply_ms", 1e3),
            ("router.apply", "router.apply_ms", 1e3),
            ("shard.apply", "shard.apply_ms", 1e3),
            ("subscribe.refresh", "subscribe.refresh_ms", 1e3),
            ("snapshot.save", "snapshot.save_ms", 1e3),
            ("snapshot.load", "snapshot.load_ms", 1e3),
        ];
        let totals = self.tracer.totals();
        for (span, metric, scale) in spans {
            if let Some(t) = totals.get(span) {
                self.layers.set(metric, scale * t.seconds / t.count as f64);
            }
        }
        if let Some(round) = totals.get("round") {
            self.layers
                .set("bench.round_self_frac", round.self_seconds / round.seconds);
            self.layers.set("bench.rounds", round.count as f64);
        }
        self
    }
}

/// Samples behind the end-to-end metrics of one pass, in the order they
/// were taken.
#[derive(Debug, Default)]
pub struct EndToEnd {
    pub setup_s: Vec<f64>,
    /// Latency of each per-request serving call, µs.
    pub read_us: Vec<f64>,
    /// Answers (or position reports) served by the calls that count toward
    /// read throughput, and the wall time spent inside those calls.
    pub served: u64,
    pub served_s: f64,
    /// Latency of each batch call, ms.
    pub batch_ms: Vec<f64>,
    pub restart_ms: Vec<f64>,
    pub snapshot_bytes: u64,
    pub peak_rss_mb: f64,
}

impl EndToEnd {
    /// `(value, sample count)` per [`END_TO_END`] entry, in table order.
    pub fn values(&self) -> [(f64, usize); END_TO_END.len()] {
        let rate = if self.served_s > 0.0 {
            self.served as f64 / self.served_s
        } else {
            0.0
        };
        [
            (median(&self.setup_s), self.setup_s.len()),
            (percentile(&self.read_us, 0.50), self.read_us.len()),
            (rate, self.served as usize),
            (percentile(&self.batch_ms, 0.50), self.batch_ms.len()),
            (median(&self.restart_ms), self.restart_ms.len()),
            (self.snapshot_bytes as f64, 1),
            (self.peak_rss_mb, 1),
        ]
    }

    /// `(value, sample count)` per [`TAILS`] entry, in table order.
    pub fn tails(&self) -> [(f64, usize); TAILS.len()] {
        let (reads, batches) = (self.read_us.len(), self.batch_ms.len());
        [
            (percentile(&self.read_us, 0.90), reads),
            (percentile(&self.read_us, 0.99), reads),
            (percentile(&self.batch_ms, 0.90), batches),
        ]
    }
}

/// Per-layer metric values; every name of [`PER_LAYER`] is present and a
/// layer the workload never reaches stays 0.
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn new() -> Self {
        Self(PER_LAYER.iter().map(|m| (m.name, 0.0)).collect())
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(self.0.contains_key(name), "unknown per-layer metric {name}");
        self.0
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// Per-query means of the engine's answers and breakdowns.
#[derive(Debug, Default)]
pub struct QueryTotals {
    queries: u64,
    traversal_s: f64,
    retrieval_s: f64,
    probability_s: f64,
    candidates: u64,
    answers: u64,
    no_leaf_reads: u64,
}

impl QueryTotals {
    pub fn add(&mut self, a: &PnnAnswer) {
        self.queries += 1;
        self.traversal_s += a.breakdown.traversal.as_secs_f64();
        self.retrieval_s += a.breakdown.retrieval.as_secs_f64();
        self.probability_s += a.breakdown.probability.as_secs_f64();
        self.candidates += a.candidates_examined as u64;
        self.answers += a.probabilities.len() as u64;
        self.no_leaf_reads += u64::from(a.breakdown.index_io == 0);
    }

    pub fn queries(&self) -> u64 {
        self.queries
    }

    fn write(&self, layers: &mut Layers) {
        let q = self.queries;
        layers.set("engine.traversal_us", 1e6 * mean(self.traversal_s, q));
        layers.set("engine.retrieval_us", 1e6 * mean(self.retrieval_s, q));
        layers.set("engine.probability_us", 1e6 * mean(self.probability_s, q));
        layers.set(
            "engine.candidates_per_query",
            mean(self.candidates as f64, q),
        );
        layers.set("engine.answers_per_query", mean(self.answers as f64, q));
        layers.set("engine.cache_hit_frac", mean(self.no_leaf_reads as f64, q));
    }
}

/// Page-store reads and writes of one system's three stores.
#[derive(Debug, Default, Clone, Copy)]
pub struct Io {
    pub index_reads: u64,
    pub index_writes: u64,
    pub object_reads: u64,
    pub object_writes: u64,
    pub rtree_writes: u64,
}

impl Io {
    pub fn of(s: &UvSystem) -> Self {
        let (index, objects, rtree) = (
            s.index().store().io(),
            s.object_store().store().io(),
            s.rtree().store().io(),
        );
        Self {
            index_reads: index.reads,
            index_writes: index.writes,
            object_reads: objects.reads,
            object_writes: objects.writes,
            rtree_writes: rtree.writes,
        }
    }

    pub fn sum<'a>(systems: impl IntoIterator<Item = &'a UvSystem>) -> Self {
        systems
            .into_iter()
            .fold(Io::default(), |acc, s| acc.plus(Io::of(s)))
    }

    pub fn plus(self, o: Io) -> Self {
        Self {
            index_reads: self.index_reads + o.index_reads,
            index_writes: self.index_writes + o.index_writes,
            object_reads: self.object_reads + o.object_reads,
            object_writes: self.object_writes + o.object_writes,
            rtree_writes: self.rtree_writes + o.rtree_writes,
        }
    }

    pub fn since(self, earlier: Io) -> Self {
        Self {
            index_reads: self.index_reads - earlier.index_reads,
            index_writes: self.index_writes - earlier.index_writes,
            object_reads: self.object_reads - earlier.object_reads,
            object_writes: self.object_writes - earlier.object_writes,
            rtree_writes: self.rtree_writes - earlier.rtree_writes,
        }
    }

    /// Store metrics: reads per query over `queries`, writes per batch
    /// over `batches`.
    fn write(reads: Io, queries: u64, writes: Io, batches: u64, layers: &mut Layers) {
        layers.set(
            "store.index_reads_per_query",
            mean(reads.index_reads as f64, queries),
        );
        layers.set(
            "store.object_reads_per_query",
            mean(reads.object_reads as f64, queries),
        );
        layers.set(
            "store.index_writes_per_batch",
            mean(writes.index_writes as f64, batches),
        );
        layers.set(
            "store.object_writes_per_batch",
            mean(writes.object_writes as f64, batches),
        );
        layers.set(
            "store.rtree_writes_per_batch",
            mean(writes.rtree_writes as f64, batches),
        );
    }
}

/// Reference ids of every live object.
pub fn reference_ids(system: &UvSystem) -> HashMap<ObjectId, Vec<ObjectId>> {
    system
        .objects()
        .iter()
        .filter_map(|o| Some((o.id, system.object_state(o.id)?.reference_ids().to_vec())))
        .collect()
}

/// Live objects whose reference ids differ from `before` (new objects
/// count as changed).
pub fn changed_ids(before: &HashMap<ObjectId, Vec<ObjectId>>, system: &UvSystem) -> usize {
    system
        .objects()
        .iter()
        .filter(|o| {
            let now = system.object_state(o.id).map(|s| s.reference_ids());
            before.get(&o.id).map(Vec::as_slice) != now
        })
        .count()
}

/// Sums of the `UpdateStats` of every applied batch.
#[derive(Debug, Default)]
pub struct UpdateTotals {
    pub batches: u64,
    in_knn_radius: usize,
    rederived: usize,
    repartitioned: usize,
    leaves_refined: usize,
    splits: usize,
    merges: usize,
    repaired_rects: usize,
    changed: usize,
}

impl UpdateTotals {
    /// Adds one batch, given the stats of every system that applied it (one,
    /// or each shard) and, when measured, its count of live objects whose
    /// reference ids changed.
    pub fn batch<'a>(
        &mut self,
        stats: impl IntoIterator<Item = &'a UpdateStats>,
        changed: Option<usize>,
    ) {
        self.batches += 1;
        for s in stats {
            self.in_knn_radius += s.objects_in_knn_radius;
            self.rederived += s.objects_rederived;
            self.repartitioned += s.objects_repartitioned;
            self.leaves_refined += s.leaves_refined;
            self.splits += s.leaves_split;
            self.merges += s.leaves_merged;
            self.repaired_rects += s.repaired_regions().len();
        }
        self.changed += changed.unwrap_or(0);
    }

    pub fn write(&self, layers: &mut Layers) {
        let per_batch = |n: usize| mean(n as f64, self.batches);
        layers.set(
            "update.in_knn_radius_per_batch",
            per_batch(self.in_knn_radius),
        );
        layers.set("update.rederived_per_batch", per_batch(self.rederived));
        layers.set(
            "update.repartitioned_per_batch",
            per_batch(self.repartitioned),
        );
        layers.set(
            "update.leaves_refined_per_batch",
            per_batch(self.leaves_refined),
        );
        layers.set("update.splits_per_batch", per_batch(self.splits));
        layers.set("update.merges_per_batch", per_batch(self.merges));
        layers.set(
            "update.repaired_rects_per_batch",
            per_batch(self.repaired_rects),
        );
        layers.set(
            "update.rederive_yield",
            mean(self.changed as f64, self.rederived as u64),
        );
    }
}

/// Builder metrics of one or more systems built together (a sharded build
/// is its shards), plus derivations the build ran outside them.
fn write_builder<'a>(
    stats: impl IntoIterator<Item = &'a ConstructionStats>,
    extra_derivations: usize,
    layers: &mut Layers,
) {
    let (mut pruning, mut indexing, mut objects, mut refs, mut leaves, mut pages) =
        (0.0, 0.0, 0, 0.0, 0, 0);
    for s in stats {
        pruning += s.pruning_time.as_secs_f64();
        indexing += s.indexing_time.as_secs_f64();
        objects += s.objects;
        refs += s.avg_reference_objects * s.objects as f64;
        leaves += s.leaf_nodes;
        pages += s.leaf_pages;
    }
    layers.set("builder.pruning_s", pruning);
    layers.set("builder.indexing_s", indexing);
    layers.set("builder.derivations", (objects + extra_derivations) as f64);
    layers.set("builder.avg_reference_objects", mean(refs, objects as u64));
    layers.set("builder.leaf_nodes", leaves as f64);
    layers.set("builder.leaf_pages", pages as f64);
}

/// Bit-identical answers: same probabilities to the last bit, same
/// candidate count.
pub fn same_bits(a: &PnnAnswer, b: &PnnAnswer) -> bool {
    a.candidates_examined == b.candidates_examined
        && a.probabilities.len() == b.probabilities.len()
        && a.probabilities
            .iter()
            .zip(&b.probabilities)
            .all(|((ia, pa), (ib, pb))| ia == ib && pa.to_bits() == pb.to_bits())
}

/// How a maintained system differs from a cold build of the same objects:
/// the leaves that differ, the first of them in full, and the live objects
/// whose reference ids differ.
pub fn divergence(live: &UvSystem, cold: &UvSystem) -> String {
    let (ours, theirs) = (
        live.index().canonical_leaves(),
        cold.index().canonical_leaves(),
    );
    let only = |a: &[CanonicalLeaf], b: &[CanonicalLeaf]| -> Vec<CanonicalLeaf> {
        a.iter().filter(|l| !b.contains(l)).cloned().collect()
    };
    let (live_only, cold_only) = (only(&ours, &theirs), only(&theirs, &ours));
    let first = |leaves: &[CanonicalLeaf]| match leaves.first() {
        Some(((x0, y0, x1, y1), ids)) => format!(
            "[{}, {}] x [{}, {}] holds {ids:?}",
            f64::from_bits(*x0),
            f64::from_bits(*x1),
            f64::from_bits(*y0),
            f64::from_bits(*y1)
        ),
        None => "none".to_string(),
    };
    let references = |s: &UvSystem, id| s.object_state(id).map(|o| o.reference_ids().to_vec());
    let stale: Vec<ObjectId> = live
        .objects()
        .iter()
        .map(|o| o.id)
        .filter(|&id| references(live, id) != references(cold, id))
        .collect();
    format!(
        "{} maintained and {} cold leaves differ (first maintained: {}; first cold: {}); \
         objects whose reference ids differ from the cold build: {stale:?}",
        live_only.len(),
        cold_only.len(),
        first(&live_only),
        first(&cold_only),
    )
}

/// Agreement with an independent baseline: the same answer ids, every
/// probability within 1e-9.
pub fn agrees(a: &PnnAnswer, baseline: &PnnAnswer) -> bool {
    a.answer_ids() == baseline.answer_ids()
        && a.probabilities.iter().all(|(id, p)| {
            baseline
                .probabilities
                .iter()
                .find(|(other, _)| other == id)
                .is_some_and(|(_, q)| (p - q).abs() < 1e-9)
        })
}

/// The state metrics, taken once at a fixed amount of work so they do not
/// depend on how many rounds fit in the time budget: the peak RSS so far,
/// and a snapshot of the live state, saved, loaded back and checked by
/// `same` against the live system. Returns the snapshot for [`restart`].
fn checkpoint<S>(
    pass: &mut Pass,
    live_objects: usize,
    save: impl FnOnce(&mut Vec<u8>) -> Result<u64, UvError>,
    load: impl FnOnce(&[u8]) -> Result<S, UvError>,
    same: impl FnOnce(&S) -> bool,
) -> Vec<u8> {
    pass.e2e.peak_rss_mb = peak_rss_mb();
    let mut bytes = Vec::new();
    let (saved, _) = pass.tracer.call("snapshot.save", || save(&mut bytes));
    pass.ops.attempt(2);
    match saved {
        Ok(written) if written == bytes.len() as u64 => {
            pass.e2e.snapshot_bytes = written;
            pass.layers.set(
                "snapshot.bytes_per_object",
                mean(written as f64, live_objects as u64),
            );
        }
        Ok(written) => pass.ops.check(false, || {
            format!(
                "save_snapshot reported {written} bytes but wrote {}",
                bytes.len()
            )
        }),
        Err(e) => pass
            .ops
            .check(false, || format!("save_snapshot failed: {e}")),
    }
    let loaded = load(&bytes);
    let ok = loaded.as_ref().is_ok_and(same);
    pass.ops.check(ok, || match &loaded {
        Ok(_) => "the reloaded snapshot does not answer like the live system".to_string(),
        Err(e) => format!("load_snapshot of the checkpoint failed: {e}"),
    });
    bytes
}

/// [`checkpoint`] of an unsharded system: the reloaded system has the same
/// leaves and answers bit-identically at `probes`.
fn checkpoint_system(pass: &mut Pass, system: &UvSystem, probes: &[Point]) -> Vec<u8> {
    checkpoint(
        pass,
        system.objects().len(),
        |w| system.save_snapshot(w),
        |mut bytes| UvSystem::load_snapshot(&mut bytes),
        |loaded| {
            loaded.index().canonical_leaves() == system.index().canonical_leaves()
                && probes
                    .iter()
                    .all(|q| same_bits(&loaded.pnn(*q), &system.pnn(*q)))
        },
    )
}

/// Reloads the checkpoint snapshot repeatedly, timing each load until it
/// returns a query-ready system.
fn restart<S>(
    pass: &mut Pass,
    plan: &Plan,
    bytes: &[u8],
    load: impl Fn(&[u8]) -> Result<S, UvError>,
) {
    let mut loads = plan.loads();
    while loads.more() {
        let (loaded, seconds) = pass.tracer.call("snapshot.load", || load(bytes));
        pass.ops.attempt(1);
        match loaded {
            Ok(_) => pass.e2e.restart_ms.push(seconds * 1e3),
            Err(e) => pass
                .ops
                .check(false, || format!("load_snapshot failed: {e}")),
        }
    }
}
