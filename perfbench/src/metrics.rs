//! The benchmark's metric tables: every end-to-end and per-layer metric it
//! reports, with its unit, in report order. `BENCHMARK.json` lists the same
//! names; the package's tests keep the two in step.

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// Measured by a clock or the OS (time, memory), so it varies from run
    /// to run; every other metric is a count that repeats exactly at a
    /// fixed seed and run length.
    pub timing: bool,
}

const fn timing(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        timing: true,
    }
}

const fn count(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        timing: false,
    }
}

/// The value of metric `name` in a one-line JSON result.
pub fn metric_value(result: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &result[result.find(&key)? + key.len()..];
    rest[..rest.find([',', '}'])?].trim().parse().ok()
}

/// End-to-end metrics, reported by every workload (untraced runs). `read`
/// is the workload's per-request serving call and `batch` its batch call;
/// see the README for what each is on each workload.
pub const END_TO_END: [Metric; 7] = [
    timing("setup_s", "s"),
    timing("read_p50_us", "us"),
    timing("read_per_s", "1/s"),
    timing("batch_p50_ms", "ms"),
    timing("restart_ms", "ms"),
    count("snapshot_bytes", "bytes"),
    timing("peak_rss_mb", "MB"),
];

/// Latency tails, printed and written to the detail file with their sample
/// counts but not gated: on a shared machine the tails of the
/// multi-threaded calls (`pnn_batch`, `tick`) follow other tenants' load
/// more than the program, so their run-to-run spread exceeds any usable
/// bound.
pub const TAILS: [Metric; 3] = [
    timing("read_p90_us", "us"),
    timing("read_p99_us", "us"),
    timing("batch_p90_ms", "ms"),
];

/// Per-layer metrics, reported by every workload (traced runs). A layer a
/// workload bypasses reports 0.
pub const PER_LAYER: [Metric; 59] = [
    timing("builder.build_s", "s"),
    timing("builder.pruning_s", "s"),
    timing("builder.indexing_s", "s"),
    count("builder.derivations", "count"),
    count("builder.avg_reference_objects", "count"),
    count("builder.leaf_nodes", "count"),
    count("builder.leaf_pages", "count"),
    timing("engine.traversal_us", "us"),
    timing("engine.retrieval_us", "us"),
    timing("engine.probability_us", "us"),
    count("engine.candidates_per_query", "count"),
    count("engine.answers_per_query", "count"),
    count("engine.cache_hit_frac", "ratio"),
    timing("engine.pnn_batch_ms", "ms"),
    count("store.index_reads_per_query", "count"),
    count("store.object_reads_per_query", "count"),
    count("store.index_writes_per_batch", "count"),
    count("store.object_writes_per_batch", "count"),
    count("store.rtree_writes_per_batch", "count"),
    timing("update.apply_ms", "ms"),
    count("update.in_knn_radius_per_batch", "count"),
    count("update.rederived_per_batch", "count"),
    count("update.repartitioned_per_batch", "count"),
    count("update.leaves_refined_per_batch", "count"),
    count("update.splits_per_batch", "count"),
    count("update.merges_per_batch", "count"),
    count("update.rederive_yield", "ratio"),
    count("update.repaired_rects_per_batch", "count"),
    timing("router.apply_ms", "ms"),
    count("router.rederived_per_batch", "count"),
    timing("shard.apply_ms", "ms"),
    count("shard.rederived_per_batch", "count"),
    count("shard.rederive_overhead", "ratio"),
    count("shard.shards_touched_per_batch", "count"),
    count("shard.replica_churn_per_batch", "count"),
    count("shard.replication_factor", "ratio"),
    count("shard.query_load_max_frac", "ratio"),
    timing("subscribe.register_s", "s"),
    count("subscribe.hit_rate", "ratio"),
    count("subscribe.clearance_reuse_frac", "ratio"),
    count("subscribe.derivations_per_report", "count"),
    count("subscribe.migrations_per_report", "count"),
    count("subscribe.deltas_per_report", "count"),
    timing("subscribe.refresh_ms", "ms"),
    count("subscribe.invalidated_per_refresh", "count"),
    count("subscribe.stationary_tick_reads", "count"),
    count("snapshot.bytes_per_object", "bytes"),
    count("snapshot.router_bytes", "bytes"),
    timing("snapshot.save_ms", "ms"),
    timing("snapshot.load_ms", "ms"),
    timing("bench.round_self_frac", "ratio"),
    count("bench.rounds", "count"),
    timing("trace.overhead_frac.setup_s", "ratio"),
    timing("trace.overhead_frac.read_p50_us", "ratio"),
    timing("trace.overhead_frac.read_per_s", "ratio"),
    timing("trace.overhead_frac.batch_p50_ms", "ratio"),
    timing("trace.overhead_frac.restart_ms", "ratio"),
    timing("trace.overhead_frac.snapshot_bytes", "ratio"),
    timing("trace.overhead_frac.peak_rss_mb", "ratio"),
];
