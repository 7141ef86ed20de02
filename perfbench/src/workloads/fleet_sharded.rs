//! `fleet_sharded`: continuous subscriptions on the sharded layer.
//!
//! 1,000 objects skewed around the domain centre (σ = 2,500) on a 2×2
//! shard grid; 4,000 clients registered at uniform positions. Each fleet
//! tick moves every client and delivers the reports in 10 `tick` calls of
//! 400 (read latency and throughput). Every 2 fleet ticks, one `churn_rw`
//! batch goes through `ShardedUvSystem::apply` followed by
//! `refresh_after_sharded` (batch latency), then 256 rider queries through
//! the sharded `pnn_batch`.

use super::{
    changed_ids, reference_ids, restart, same_bits, write_builder, Io, Pass, QueryTotals,
    UpdateTotals,
};
use crate::inputs::{self, domain, dynamic_config, stream, Churn, Layout, Rng, METHOD};
use crate::measure::{mean, Plan};
use crate::trace::Tracer;
use uv_core::{
    ClientId, ShardedUvSystem, SubscriptionEngine, SubscriptionStats, SubscriptionTable, UvError,
    UvSystem,
};
use uv_data::{AnswerDelta, ObjectId, PnnAnswer};
use uv_geom::Point;

const OBJECTS: usize = 1_000;
const LAYOUT: Layout = Layout::Gaussian { sigma: 2_500.0 };
const SHARDS_PER_AXIS: usize = 2;
const CLIENTS: usize = 4_000;
const REPORTS_PER_TICK: usize = 400;
const FLEET_TICKS_PER_UPDATE: usize = 2;
const RIDERS: usize = 256;
/// Every `SAMPLE`-th rider answer of the last round is checked against a
/// cold unsharded build.
const SAMPLE: usize = 8;

pub fn run(seed: u64, plan: Plan, tracer: Tracer) -> Result<Pass, String> {
    let mut pass = Pass::new(tracer);
    let objects = inputs::objects(OBJECTS, LAYOUT, seed);
    let config = dynamic_config(SHARDS_PER_AXIS);
    let mut positions = inputs::uniform_points(CLIENTS, &mut Rng::new(seed, stream::CLIENTS));

    let mut state = None;
    for _ in 0..plan.setups() {
        drop(state.take());
        let input = objects.clone();
        let (built, build_s) = pass.tracer.call("builder.build", || {
            ShardedUvSystem::build(input, domain(), METHOD, config)
        });
        pass.ops.attempt(1);
        let system = built.map_err(|e| format!("sharded build failed: {e}"))?;
        let (registered, register_s) = pass
            .tracer
            .call("subscribe.register", || register(&system, &positions));
        pass.ops.attempt(CLIENTS as u64);
        let (table, views) = registered.map_err(|e| format!("registration failed: {e}"))?;
        pass.e2e.setup_s.push(build_s + register_s);
        state = Some((system, table, views));
    }
    let (mut system, table, mut views) = state.expect("at least one set-up");
    let shard_stats: Vec<_> = shards(&system)
        .map(|s| s.construction_stats().clone())
        .collect();
    // The router derives every object once, then each shard derives its
    // halo member set again.
    write_builder(&shard_stats, OBJECTS, &mut pass.layers);

    let tracing = pass.tracer.enabled();
    let mut walk = Rng::new(seed, stream::WALK);
    let mut rider_rng = Rng::new(seed, stream::RIDERS);
    let mut churn = Churn::new(&objects, LAYOUT, seed);
    let mut totals = QueryTotals::default();
    let mut updates = UpdateTotals::default();
    let mut sharded = ShardTotals::default();
    let (mut ticks, mut refreshes) = (SubscriptionStats::default(), SubscriptionStats::default());
    let (mut reads, mut writes) = (Io::default(), Io::default());
    let mut last_riders: Vec<(Point, PnnAnswer)> = Vec::new();
    let mut engine = SubscriptionEngine::sharded_with_table(&system, table);
    let mut snapshot = None;
    let mut phase = plan.phase(100, 2.0);
    let mut rounds = 0;
    while phase.more() {
        rounds += 1;
        pass.tracer.begin_round();
        for _ in 0..FLEET_TICKS_PER_UPDATE {
            let moves: Vec<(ClientId, Point)> = positions
                .iter_mut()
                .enumerate()
                .map(|(i, p)| {
                    *p = inputs::walk_step(*p, &mut walk);
                    (i as ClientId, *p)
                })
                .collect();
            for chunk in moves.chunks(REPORTS_PER_TICK) {
                let (deltas, seconds) = pass.tracer.call("subscribe.tick", || engine.tick(chunk));
                pass.ops.attempt(1);
                pass.e2e.read_us.push(seconds * 1e6);
                pass.e2e.served += chunk.len() as u64;
                pass.e2e.served_s += seconds;
                apply_deltas(&mut views, &deltas);
            }
        }
        add_stats(&mut ticks, engine.stats());
        let table = engine.into_table();

        let batch = churn.next_batch();
        let before: Option<Vec<_>> = tracing.then(|| shards(&system).map(reference_ids).collect());
        let io = Io::sum(shards(&system));
        let (applied, apply_s) = pass.tracer.call("shard.apply", || system.apply(batch));
        pass.ops.attempt(1);
        writes = writes.plus(Io::sum(shards(&system)).since(io));
        let (next, refresh_s) = match applied {
            Ok(stats) => {
                let changed = before.map(|b| {
                    b.iter()
                        .zip(shards(&system))
                        .map(|(before, shard)| changed_ids(before, shard))
                        .sum()
                });
                updates.batch(&stats.per_shard, changed);
                sharded.add(&stats);
                let ((refreshed, deltas), seconds) = pass.tracer.call("subscribe.refresh", || {
                    let mut e = SubscriptionEngine::sharded_with_table(&system, table);
                    let deltas = e.refresh_after_sharded(&stats);
                    (e, deltas)
                });
                apply_deltas(&mut views, &deltas);
                (refreshed, seconds)
            }
            Err(e) => {
                pass.ops.check(false, || {
                    format!("fleet_sharded: apply of batch {rounds} failed: {e}")
                });
                (SubscriptionEngine::sharded_with_table(&system, table), 0.0)
            }
        };
        engine = next;
        add_stats(&mut refreshes, engine.stats());
        engine.reset_stats();
        pass.e2e.batch_ms.push((apply_s + refresh_s) * 1e3);

        let riders = inputs::uniform_points(RIDERS, &mut rider_rng);
        let io = Io::sum(shards(&system));
        let (answers, _) = pass
            .tracer
            .call("engine.pnn_batch", || system.pnn_batch(&riders));
        pass.ops.attempt(1);
        reads = reads.plus(Io::sum(shards(&system)).since(io));
        answers.iter().for_each(|a| totals.add(a));
        last_riders = riders.into_iter().zip(answers).step_by(SAMPLE).collect();
        if phase.at_checkpoint() {
            pass.tracer.end_round();
            let probes = probes(&last_riders, &positions);
            snapshot = Some(checkpoint_sharded(&mut pass, &system, &probes));
        }
    }
    pass.tracer.end_rounds();
    let snapshot = snapshot.unwrap_or_else(|| {
        checkpoint_sharded(&mut pass, &system, &probes(&last_riders, &positions))
    });

    if tracing {
        // One tick in which no client moves, after a first one that
        // re-derives any client without a usable safe region.
        let stay: Vec<(ClientId, Point)> = positions
            .iter()
            .enumerate()
            .map(|(i, p)| (i as ClientId, *p))
            .collect();
        let mut stationary_reads = 0;
        for measured in [false, true] {
            let io = Io::sum(shards(&system));
            for chunk in stay.chunks(REPORTS_PER_TICK) {
                apply_deltas(&mut views, &engine.tick(chunk));
            }
            if measured {
                stationary_reads = Io::sum(shards(&system)).since(io).index_reads;
            }
        }
        pass.layers
            .set("subscribe.stationary_tick_reads", stationary_reads as f64);
    }

    totals.write(&mut pass.layers);
    Io::write(
        reads,
        totals.queries(),
        writes,
        updates.batches,
        &mut pass.layers,
    );
    updates.write(&mut pass.layers);
    sharded.write(&system, &mut pass.layers);
    write_subscribe(&ticks, &refreshes, updates.batches, &mut pass.layers);
    pass.layers.set(
        "snapshot.router_bytes",
        system.router_snapshot_bytes() as f64,
    );

    // Every client's delta-maintained answer equals the table's and the
    // routed answer at its position; the last riders equal a cold
    // unsharded build of the final objects.
    let table = engine.into_table();
    for (i, p) in positions.iter().enumerate() {
        let want = system.pnn(*p).answer_ids();
        let held = table.client(i as ClientId).map(|c| c.answer_ids());
        pass.ops
            .check(held == Some(want.as_slice()) && views[i] == want, || {
                format!(
                    "fleet_sharded seed {seed}: after {rounds} rounds client {i} at {p:?} \
                     holds {held:?} in the table and {:?} from its deltas; the routed pnn \
                     gives {want:?}",
                    views[i]
                )
            });
    }
    let cold = UvSystem::build(system.objects().to_vec(), system.domain(), METHOD, config)
        .map_err(|e| format!("cold rebuild failed: {e}"))?;
    for (q, answer) in &last_riders {
        let fresh = cold.pnn(*q);
        pass.ops.check(same_bits(answer, &fresh), || {
            format!(
                "fleet_sharded seed {seed}: after {rounds} rounds the rider answer at {q:?} \
                 is {:?} ({} candidates), a cold unsharded build gives {:?} ({} candidates)",
                answer.probabilities,
                answer.candidates_examined,
                fresh.probabilities,
                fresh.candidates_examined
            )
        });
    }

    restart(&mut pass, &plan, &snapshot, |mut bytes| {
        ShardedUvSystem::load_snapshot(&mut bytes)
    });
    Ok(pass.finish())
}

/// The last riders' points and every 64th client position.
fn probes(riders: &[(Point, PnnAnswer)], positions: &[Point]) -> Vec<Point> {
    riders
        .iter()
        .map(|(q, _)| *q)
        .chain(positions.iter().copied().step_by(64))
        .collect()
}

/// [`super::checkpoint`] of the sharded system: every reloaded shard has
/// the same leaves, and routed answers are bit-identical at `probes`.
fn checkpoint_sharded(pass: &mut Pass, system: &ShardedUvSystem, probes: &[Point]) -> Vec<u8> {
    super::checkpoint(
        pass,
        system.objects().len(),
        |w| system.save_snapshot(w),
        |mut bytes| ShardedUvSystem::load_snapshot(&mut bytes),
        |loaded: &ShardedUvSystem| {
            loaded.shard_count() == system.shard_count()
                && shards(loaded)
                    .zip(shards(system))
                    .all(|(a, b)| a.index().canonical_leaves() == b.index().canonical_leaves())
                && probes
                    .iter()
                    .all(|q| same_bits(&loaded.pnn(*q), &system.pnn(*q)))
        },
    )
}

fn shards(system: &ShardedUvSystem) -> impl Iterator<Item = &UvSystem> {
    (0..system.shard_count()).map(move |i| system.shard(i))
}

/// Registers every client, returning the table and each client's initial
/// answer ids — the head of its delta chain.
fn register(
    system: &ShardedUvSystem,
    positions: &[Point],
) -> Result<(SubscriptionTable, Vec<Vec<ObjectId>>), UvError> {
    let mut engine = SubscriptionEngine::sharded(system);
    let views = positions
        .iter()
        .enumerate()
        .map(|(i, p)| Ok(engine.subscribe(i as ClientId, *p)?.answer_ids()))
        .collect::<Result<_, UvError>>()?;
    Ok((engine.into_table(), views))
}

/// Applies pushed deltas to the clients' answer sets (kept sorted).
fn apply_deltas(views: &mut [Vec<ObjectId>], deltas: &[(ClientId, AnswerDelta)]) {
    for (id, delta) in deltas {
        let view = &mut views[*id as usize];
        view.retain(|o| delta.left.binary_search(o).is_err());
        view.extend_from_slice(&delta.entered);
        view.sort_unstable();
    }
}

fn add_stats(total: &mut SubscriptionStats, s: SubscriptionStats) {
    total.ticks += s.ticks;
    total.hits += s.hits;
    total.derivations += s.derivations;
    total.migrations += s.migrations;
    total.invalidated += s.invalidated;
    total.deltas_pushed += s.deltas_pushed;
    total.clearance_reuses += s.clearance_reuses;
}

fn write_subscribe(
    ticks: &SubscriptionStats,
    refreshes: &SubscriptionStats,
    refresh_count: u64,
    layers: &mut super::Layers,
) {
    let per_report = |n: u64| mean(n as f64, ticks.ticks);
    layers.set("subscribe.hit_rate", ticks.hit_rate());
    layers.set(
        "subscribe.clearance_reuse_frac",
        mean(ticks.clearance_reuses as f64, ticks.derivations),
    );
    layers.set(
        "subscribe.derivations_per_report",
        per_report(ticks.derivations),
    );
    layers.set(
        "subscribe.migrations_per_report",
        per_report(ticks.migrations),
    );
    layers.set(
        "subscribe.deltas_per_report",
        per_report(ticks.deltas_pushed),
    );
    layers.set(
        "subscribe.invalidated_per_refresh",
        mean(refreshes.invalidated as f64, refresh_count),
    );
}

/// Sums of the sharded layer's per-batch statistics.
#[derive(Debug, Default)]
struct ShardTotals {
    batches: u64,
    router_rederived: usize,
    shard_rederived: usize,
    touched: usize,
    replica_churn: usize,
}

impl ShardTotals {
    fn add(&mut self, stats: &uv_core::ShardedUpdateStats) {
        self.batches += 1;
        self.router_rederived += stats.router.objects_rederived;
        self.shard_rederived += stats
            .per_shard
            .iter()
            .map(|s| s.objects_rederived)
            .sum::<usize>();
        self.touched += stats.shards_touched;
        self.replica_churn += stats.replicas_added + stats.replicas_removed;
    }

    fn write(&self, system: &ShardedUvSystem, layers: &mut super::Layers) {
        let per_batch = |n: usize| mean(n as f64, self.batches);
        layers.set(
            "router.rederived_per_batch",
            per_batch(self.router_rederived),
        );
        layers.set("shard.rederived_per_batch", per_batch(self.shard_rederived));
        layers.set(
            "shard.rederive_overhead",
            mean(self.shard_rederived as f64, self.router_rederived as u64),
        );
        layers.set("shard.shards_touched_per_batch", per_batch(self.touched));
        layers.set(
            "shard.replica_churn_per_batch",
            per_batch(self.replica_churn),
        );
        layers.set("shard.replication_factor", system.replication_factor());
        let loads = system.load_stats().queries;
        let total: u64 = loads.iter().sum();
        let max = loads.iter().copied().max().unwrap_or(0);
        layers.set("shard.query_load_max_frac", mean(max as f64, total));
    }
}
