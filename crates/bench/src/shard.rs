//! Shard experiment (beyond the paper): domain-sharded serving with halo
//! replication, a derivation-only router, and elastic resharding.
//!
//! For shard grids `S ∈ {2, 3}` the experiment builds a
//! [`ShardedUvSystem`] and one unsharded oracle over the same dataset at the
//! dynamic-serving tuning, then reports:
//!
//! * **build parallel speedup** — wall-clock of the sharded build with its
//!   fan-outs (the router's derivation, the per-shard grid builds) on scoped
//!   threads versus one at a time (on a single-core machine the ratio
//!   degenerates to ~1×; the measurement is the point);
//! * **shard derivations** — objects the shards derived themselves, summed
//!   over the build, an update batch, an in-place domain growth and the
//!   reshard steps. Shards index from the router's table, so this is 0; any
//!   other value fails the process;
//! * **halo-replication overhead** — `replication_factor − 1`: the fraction
//!   of extra object replicas the halos cost (0 = no replication), never
//!   negative;
//! * **router footprint win** — the sharded snapshot carries a slim
//!   [`uv_core::DerivationRouter`] section (objects + R-tree + sensitivity tables,
//!   no UV-grid or pages) where the retired layout embedded a full
//!   `UvSystem`. The experiment reconstructs that router-inclusive total as
//!   `snapshot_bytes − router_bytes + <full unsharded snapshot>` and gates
//!   `snapshot_bytes < router_inclusive_bytes` through the exit-code path;
//! * **per-shard load tallies** — the lock-free query/update counters that
//!   drive the elastic reshard policy, summed across shards;
//! * **elastic reshard cycle** (`--reshard`) — a policy-driven hot split
//!   ([`ShardedUvSystem::maybe_reshard`]) followed by an explicit cold merge,
//!   with routed answers re-verified bit-identical after each step and the
//!   snapshot round-trip covering the resulting non-uniform layout;
//! * **verification** — routed answers (point + batch) bit-identical to the
//!   unsharded oracle, before and after one update batch applied to both,
//!   after an insert past the domain grows both in place, after each
//!   reshard step, and again after a sharded snapshot round-trip.
//!   A failure (including a lost memory win) fails the process through the
//!   harness's exit-code path, as for churn/snapshot.

use crate::churn::dynamic_config;
use crate::workload::ExperimentScale;
use std::time::Instant;
use uv_core::{Method, ShardedUvSystem, UpdateBatch, UvConfig, UvSystem};
use uv_data::{Dataset, GeneratorConfig, UncertainObject};
use uv_geom::Point;

/// Measurements of one shard-grid configuration.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Shard-grid side `S` (the system is built serving `S × S` shards; a
    /// `--reshard` run ends on a non-uniform grid).
    pub grid: usize,
    /// Objects in the dataset.
    pub objects: usize,
    /// Wall-clock of the unsharded oracle build in ms.
    pub unsharded_build_ms: f64,
    /// Wall-clock of the full sharded build (router + shards) in ms.
    pub sharded_build_ms: f64,
    /// Wall-clock of the sharded build with every fan-out sequential
    /// (`parallel = false`), in ms.
    pub shards_sequential_ms: f64,
    /// Wall-clock of the sharded build with its fan-outs on scoped threads,
    /// in ms.
    pub shards_parallel_ms: f64,
    /// `shards_sequential_ms / shards_parallel_ms`.
    pub parallel_speedup: f64,
    /// `replication_factor − 1` — extra replicas per live object (≥ 0).
    pub halo_overhead: f64,
    /// Bytes of the sharded snapshot (slim router + every shard section).
    pub snapshot_bytes: u64,
    /// Bytes of the slim router section inside the sharded snapshot.
    pub router_bytes: u64,
    /// What the same snapshot would cost under the retired layout that
    /// embedded a full `UvSystem` as the router:
    /// `snapshot_bytes − router_bytes + <full unsharded snapshot bytes>`.
    pub router_inclusive_bytes: u64,
    /// `snapshot_bytes < router_inclusive_bytes` — the footprint win the
    /// derivation-only router exists for. Folded into [`verified`].
    ///
    /// [`verified`]: ShardReport::verified
    pub memory_ok: bool,
    /// Owned PNN queries tallied across all shards (point, batch and
    /// trajectory-step lookups) up to the load-stats capture.
    pub queries_routed: u64,
    /// Non-empty per-shard reconciliation batches tallied by `apply`.
    pub updates_routed: u64,
    /// `Some(ok)` when `--reshard` ran the hot-split + cold-merge cycle;
    /// `None` when resharding was not requested.
    pub reshard_ok: Option<bool>,
    /// Objects the shards derived themselves across the build, the update
    /// batch, the domain growth and the reshard steps — 0, since shards
    /// index from the router's table. Folded into [`verified`].
    ///
    /// [`verified`]: ShardReport::verified
    pub shard_derivations: u64,
    /// `true` when every verification stage matched the unsharded oracle
    /// bit-exactly, no shard derived and the memory gate held.
    pub verified: bool,
}

fn answers_match(sharded: &ShardedUvSystem, oracle: &UvSystem, queries: &[Point]) -> bool {
    let batch = sharded.pnn_batch(queries);
    queries.iter().zip(&batch).all(|(q, batched)| {
        let point = sharded.pnn(*q);
        let expected = oracle.pnn(*q);
        point.probabilities == expected.probabilities
            && point.candidates_examined == expected.candidates_examined
            && batched.probabilities == expected.probabilities
            && batched.candidates_examined == expected.candidates_examined
    })
}

/// Runs the shard experiment for one grid side.
fn run_grid(
    scale: &ExperimentScale,
    n: usize,
    dataset: &Dataset,
    grid: usize,
    reshard: bool,
) -> ShardReport {
    let mut config = dynamic_config(n).with_num_shards(grid);
    if reshard {
        // Any tallied load trips the split policy; the merge leg is driven
        // explicitly so both reshard directions run in one cycle.
        config = config.with_reshard_split_load(1);
    }

    let t = Instant::now();
    let oracle = UvSystem::build(dataset.objects.clone(), dataset.domain, Method::IC, config)
        .expect("oracle build must succeed");
    let unsharded_build_ms = t.elapsed().as_secs_f64() * 1_000.0;

    let t = Instant::now();
    let mut sharded =
        ShardedUvSystem::build(dataset.objects.clone(), dataset.domain, Method::IC, config)
            .expect("sharded build must succeed");
    let sharded_build_ms = t.elapsed().as_secs_f64() * 1_000.0;

    // Build fan-out: the same sharded build with every fan-out sequential,
    // then on scoped threads.
    let timed_build = |config: UvConfig| {
        let t = Instant::now();
        ShardedUvSystem::build(dataset.objects.clone(), dataset.domain, Method::IC, config)
            .expect("sharded build must succeed");
        t.elapsed().as_secs_f64() * 1_000.0
    };
    let shards_sequential_ms = timed_build(UvConfig {
        parallel: false,
        ..config
    });
    let shards_parallel_ms = timed_build(config);
    let mut shard_derivations = sharded.shard_derivations();

    let halo_overhead = sharded.replication_factor() - 1.0;
    let queries = dataset.query_points(scale.queries.max(8), 4_096 + grid as u64);
    let mut verified = halo_overhead >= 0.0 && answers_match(&sharded, &oracle, &queries);

    // One update batch applied to both deployments: the sharded routing and
    // per-shard repair must converge to the oracle's answers.
    let domain = dataset.domain;
    let batch = UpdateBatch::new()
        .insert(UncertainObject::with_gaussian(
            n as u32 + 31,
            Point::new(domain.width() * 0.47, domain.height() * 0.21),
            20.0,
        ))
        .delete(5)
        .move_to(9, Point::new(domain.width() * 0.66, domain.height() * 0.58));
    let mut oracle = oracle;
    sharded.apply(batch.clone()).expect("sharded batch applies");
    oracle.apply(batch).expect("oracle batch applies");
    verified &= answers_match(&sharded, &oracle, &queries);
    shard_derivations += sharded.shard_derivations();

    // One insert past the north-east corner: both deployments grow their
    // domain in place (the router re-derives everything once, every shard
    // re-indexes from its table) and must still agree.
    let beyond = UpdateBatch::new().insert(UncertainObject::with_gaussian(
        n as u32 + 32,
        Point::new(domain.max_x + 150.0, domain.max_y + 150.0),
        20.0,
    ));
    let grown = sharded.apply(beyond.clone()).expect("growth batch applies");
    oracle.apply(beyond).expect("oracle growth batch applies");
    verified &= grown.domain_grown && sharded.domain() == oracle.domain();
    verified &= answers_match(&sharded, &oracle, &queries);
    shard_derivations += sharded.shard_derivations();

    // The reshard policy's raw inputs: every routed query and reconciliation
    // batch since the build, read lock-free off the live counters (a reshard
    // resets them, so capture first).
    let loads = sharded.load_stats();
    let queries_routed: u64 = loads.queries.iter().sum();
    let updates_routed: u64 = loads.updates.iter().sum();

    // `--reshard`: one policy-driven hot split (the tallies above trip the
    // threshold-1 policy) and one explicit cold merge, answers re-verified
    // bit-identical after each step. The snapshot below then round-trips
    // the resulting non-uniform layout.
    let reshard_ok = if reshard {
        let split = sharded
            .maybe_reshard()
            .expect("maybe_reshard on a live system");
        let mut ok = split.is_some_and(|stats| !stats.rebuilt.is_empty());
        ok &= answers_match(&sharded, &oracle, &queries);
        shard_derivations += sharded.shard_derivations();
        ok &= sharded.merge_shards(0, 1).is_ok();
        ok &= answers_match(&sharded, &oracle, &queries);
        shard_derivations += sharded.shard_derivations();
        Some(ok)
    } else {
        None
    };
    if let Some(ok) = reshard_ok {
        verified &= ok;
    }

    // Snapshot round-trip: per-shard sections under one versioned header.
    let mut bytes = Vec::new();
    let snapshot_bytes = sharded
        .save_snapshot(&mut bytes)
        .expect("sharded snapshot save must succeed");
    let loaded =
        ShardedUvSystem::load_snapshot(&mut bytes.as_slice()).expect("sharded snapshot loads");
    verified &= answers_match(&loaded, &oracle, &queries);

    // The memory gate: reconstruct the retired router-inclusive total (a
    // full `UvSystem` snapshot where the slim router section now sits) and
    // require the derivation-only layout to beat it.
    let router_bytes = sharded.router_snapshot_bytes();
    let mut oracle_bytes = Vec::new();
    let oracle_snapshot_bytes = oracle
        .save_snapshot(&mut oracle_bytes)
        .expect("oracle snapshot save must succeed");
    let router_inclusive_bytes = snapshot_bytes - router_bytes + oracle_snapshot_bytes;
    let memory_ok = snapshot_bytes < router_inclusive_bytes;
    verified &= memory_ok;
    verified &= shard_derivations == 0;

    ShardReport {
        grid,
        objects: n,
        unsharded_build_ms,
        sharded_build_ms,
        shards_sequential_ms,
        shards_parallel_ms,
        parallel_speedup: shards_sequential_ms / shards_parallel_ms.max(1e-9),
        halo_overhead,
        snapshot_bytes,
        router_bytes,
        router_inclusive_bytes,
        memory_ok,
        queries_routed,
        updates_routed,
        reshard_ok,
        shard_derivations,
        verified,
    }
}

/// Runs the shard experiment at `scale` (1k objects at the default
/// `--scale 0.05`) for shard grids 2×2 and 3×3. With `reshard` the run
/// includes a hot-split + cold-merge elastic reshard cycle per grid.
pub fn shard_experiment(scale: &ExperimentScale, reshard: bool) -> Vec<ShardReport> {
    let n = scale.scaled(20_000);
    let dataset = Dataset::generate(GeneratorConfig::paper_uniform(n));
    [2usize, 3]
        .iter()
        .map(|grid| run_grid(scale, n, &dataset, *grid, reshard))
        .collect()
}

/// Formats [`ShardReport`]s for `print_table`.
pub fn shard_rows(reports: &[ShardReport]) -> Vec<Vec<String>> {
    reports
        .iter()
        .map(|r| {
            vec![
                format!("{0}x{0}", r.grid),
                r.objects.to_string(),
                format!("{:.1}", r.unsharded_build_ms),
                format!("{:.1}", r.sharded_build_ms),
                format!("{:.1}", r.shards_sequential_ms),
                format!("{:.1}", r.shards_parallel_ms),
                format!("{:.2}", r.parallel_speedup),
                format!("{:.2}", r.halo_overhead),
                r.snapshot_bytes.to_string(),
                r.router_bytes.to_string(),
                r.router_inclusive_bytes.to_string(),
                if r.memory_ok {
                    "yes".into()
                } else {
                    "NO".into()
                },
                format!("{}q/{}u", r.queries_routed, r.updates_routed),
                match r.reshard_ok {
                    None => "-".into(),
                    Some(true) => "yes".into(),
                    Some(false) => "NO".into(),
                },
                r.shard_derivations.to_string(),
                if r.verified {
                    "yes".into()
                } else {
                    "NO".into()
                },
            ]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scaled down for the debug-build test budget: routed answers verify
    /// bit-exactly against the unsharded oracle (fresh, after an update
    /// batch, after an in-place domain growth, after a hot split, after a
    /// cold merge, after a snapshot round-trip of the non-uniform layout),
    /// no shard derives, the slim-router snapshot beats the reconstructed
    /// router-inclusive total, the load tallies count the routed work and
    /// the speedup statistic is reported.
    #[test]
    fn shard_experiment_verifies_and_reports_overheads() {
        let scale = ExperimentScale {
            size_factor: 0.01, // 200 objects
            queries: 8,
            ..ExperimentScale::default()
        };
        let reports = shard_experiment(&scale, true);
        assert_eq!(reports.len(), 2);
        for report in &reports {
            assert_eq!(report.objects, 200);
            assert!(report.verified, "grid {0}x{0} diverged", report.grid);
            assert_eq!(report.reshard_ok, Some(true));
            assert!(
                report.memory_ok && report.snapshot_bytes < report.router_inclusive_bytes,
                "slim router lost the footprint win: {} vs {}",
                report.snapshot_bytes,
                report.router_inclusive_bytes
            );
            assert!(report.router_bytes > 0);
            // answers_match issues one point + one batched lookup per query
            // point, twice before the tallies are captured.
            assert!(report.queries_routed >= 4 * 8);
            assert!(report.updates_routed >= 1);
            assert!(report.halo_overhead >= 0.0);
            assert!(report.parallel_speedup > 0.0);
            assert!(report.snapshot_bytes > 10_000);
            assert_eq!(report.shard_derivations, 0);
        }
        assert_eq!(shard_rows(&reports).len(), 2);
        assert_eq!(shard_rows(&reports)[0].len(), 16);
    }
}
