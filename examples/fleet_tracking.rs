//! Fleet tracking: a moving-PNN workload served by the concurrent batched
//! query engine.
//!
//! A city's roadside infrastructure (charging points, depots, service bays)
//! is known only up to sensor uncertainty — each site is an uncertain object.
//! A fleet of delivery vehicles streams GPS fixes; every tick the dispatcher
//! asks, for every vehicle at once, "which site is most likely the nearest?"
//! — a batch of PNN queries per tick, and per vehicle a trajectory whose
//! answer *deltas* (handovers between sites) are what the dispatcher reacts
//! to. This is the workload shape of probabilistic moving-NN queries (Ali et
//! al.) on top of the paper's UV-index.
//!
//! The dispatcher then stops polling: every vehicle registers a *continuous
//! subscription*, carrying a safe region inside which its answer provably
//! cannot change — GPS fixes inside it cost zero leaf page reads and push
//! nothing; only genuine handovers arrive as deltas.
//!
//! The final phase goes live: sites join, leave and drift between ticks, and
//! the dynamic maintenance subsystem repairs the UV-partition locally — the
//! dispatcher keeps serving from an index that is bit-identical to a full
//! rebuild, at a fraction of the cost, and the subscription engine
//! revalidates exactly the vehicles whose safe regions the repair touched.
//!
//! Run with:
//! ```text
//! cargo run --release --example fleet_tracking
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;
use uv_diagram::prelude::*;

/// Uncertain infrastructure sites: clustered in a few districts, with
/// larger uncertainty for sites surveyed from older records.
fn survey_sites(n: usize, domain: Rect, seed: u64) -> Vec<UncertainObject> {
    let mut rng = StdRng::seed_from_u64(seed);
    let districts: Vec<Point> = (0..6)
        .map(|_| {
            Point::new(
                rng.gen_range(domain.min_x + 1_500.0..domain.max_x - 1_500.0),
                rng.gen_range(domain.min_y + 1_500.0..domain.max_y - 1_500.0),
            )
        })
        .collect();
    (0..n as u32)
        .map(|id| {
            let d = districts[id as usize % districts.len()];
            let x = (d.x + rng.gen_range(-1_400.0..1_400.0f64)).clamp(domain.min_x, domain.max_x);
            let y = (d.y + rng.gen_range(-1_400.0..1_400.0f64)).clamp(domain.min_y, domain.max_y);
            let old_record = id % 5 == 0;
            let radius = if old_record {
                rng.gen_range(40.0..80.0)
            } else {
                rng.gen_range(8.0..25.0)
            };
            UncertainObject::with_gaussian(id, Point::new(x, y), radius)
        })
        .collect()
}

/// Straight-line trajectory of `steps` GPS fixes between two waypoints.
fn trajectory(from: Point, to: Point, steps: usize) -> Vec<Point> {
    (0..steps)
        .map(|i| {
            let t = i as f64 / (steps - 1).max(1) as f64;
            Point::new(from.x + (to.x - from.x) * t, from.y + (to.y - from.y) * t)
        })
        .collect()
}

fn main() {
    let domain = Rect::square(10_000.0);
    let sites = survey_sites(3_000, domain, 4242);
    println!("surveyed {} uncertain infrastructure sites", sites.len());

    let mut system = UvSystem::with_defaults(sites, domain);
    println!(
        "UV-index: {} leaves, {} non-leaf nodes, built in {:.2?}",
        system.construction_stats().leaf_nodes,
        system.construction_stats().nonleaf_nodes,
        system.construction_stats().total
    );

    // The fleet: vehicles en route between random waypoints.
    let vehicles = 24usize;
    let steps = 30usize;
    let mut rng = StdRng::seed_from_u64(11);
    let mut wp = || {
        Point::new(
            rng.gen_range(500.0..domain.max_x - 500.0),
            rng.gen_range(500.0..domain.max_y - 500.0),
        )
    };
    let routes: Vec<(Point, Point)> = (0..vehicles).map(|_| (wp(), wp())).collect();

    // --- Per-tick batches: all vehicle positions answered at once. ----------
    let engine = system.engine();
    println!(
        "\nserving {} vehicles x {} ticks with {} workers (leaf cache {})",
        vehicles,
        steps,
        engine.workers(),
        if engine.cache_enabled() { "on" } else { "off" }
    );

    let paths: Vec<Vec<Point>> = routes
        .iter()
        .map(|(from, to)| trajectory(*from, *to, steps))
        .collect();
    let all_fixes: Vec<Point> = (0..steps)
        .flat_map(|tick| paths.iter().map(move |path| path[tick]))
        .collect();

    let t = Instant::now();
    let sequential: Vec<PnnAnswer> = all_fixes.iter().map(|q| system.pnn(*q)).collect();
    let seq_wall = t.elapsed();

    let (batched, batch_wall) = {
        let t = Instant::now();
        let answers = engine.pnn_batch(&all_fixes);
        (answers, t.elapsed())
    };
    for (a, s) in batched.iter().zip(&sequential) {
        assert_eq!(
            a.probabilities, s.probabilities,
            "batched answers must match the sequential path"
        );
    }
    let n_queries = all_fixes.len() as f64;
    println!(
        "  sequential loop: {:>8.1} queries/s",
        n_queries / seq_wall.as_secs_f64()
    );
    println!(
        "  batched engine:  {:>8.1} queries/s ({:.1}x, {} leaves cached)",
        n_queries / batch_wall.as_secs_f64(),
        seq_wall.as_secs_f64() / batch_wall.as_secs_f64(),
        engine.cached_leaves()
    );

    // --- Per-vehicle trajectories: handovers from answer deltas. ------------
    let mut handovers = 0usize;
    let mut quiet_steps = 0usize;
    let mut total_steps = 0usize;
    for (v, path) in paths.iter().enumerate() {
        let steps_v = engine.pnn_trajectory(path);
        if v < 5 {
            let churn: usize = steps_v.iter().skip(1).map(|s| s.delta.churn()).sum();
            let best_start = steps_v.first().and_then(|s| s.answer.best());
            let best_end = steps_v.last().and_then(|s| s.answer.best());
            println!(
                "  vehicle {v}: likely site {} -> {} ({churn} answer-set changes en route)",
                best_start.map_or("-".to_string(), |(id, _)| id.to_string()),
                best_end.map_or("-".to_string(), |(id, _)| id.to_string()),
            );
        }
        for step in steps_v.iter().skip(1) {
            total_steps += 1;
            if step.delta.is_unchanged() {
                quiet_steps += 1;
            } else {
                handovers += step.delta.churn();
            }
        }
    }
    println!(
        "\nfleet summary: {handovers} handovers across {total_steps} steps; {:.0}% of steps kept the answer set unchanged",
        quiet_steps as f64 / total_steps.max(1) as f64 * 100.0
    );

    // --- Continuous subscriptions: the dispatcher stops polling. ------------
    // Each vehicle registers once and streams its *full* GPS feed — the
    // 30-waypoint sampling above becomes a 10 Hz stream along the same
    // routes. Fixes inside a vehicle's safe region are zero-I/O hits; the
    // engine pushes only real answer-set deltas.
    drop(engine);
    let fix_rate = 6_000usize; // fixes per route at 10 Hz
    let dense: Vec<Vec<Point>> = routes
        .iter()
        .map(|(from, to)| trajectory(*from, *to, fix_rate))
        .collect();
    let mut subs = SubscriptionEngine::new(&system);
    for (v, path) in dense.iter().enumerate() {
        subs.subscribe(v as u64, path[0])
            .expect("vehicle ids are fresh");
    }
    subs.reset_stats();
    let mut pushed = 0usize;
    let t = Instant::now();
    for tick in 1..fix_rate {
        let fixes: Vec<(ClientId, Point)> = dense
            .iter()
            .enumerate()
            .map(|(v, path)| (v as u64, path[tick]))
            .collect();
        pushed += subs.tick(&fixes).len();
    }
    let sub_stats = subs.stats();
    println!(
        "\nsubscriptions: {} fixes in {:.2?} -> {:.0}% safe-region hits (zero leaf reads), {} deltas pushed",
        sub_stats.ticks,
        t.elapsed(),
        sub_stats.hit_rate() * 100.0,
        pushed
    );
    println!(
        "  {} misses re-derived, {} of them certified without the quadrature",
        sub_stats.derivations, sub_stats.certified
    );
    let table = subs.into_table();

    // --- Live infrastructure churn: join / leave / move between ticks. ------
    // Engines borrow the system, so the subscription engine hands its table
    // back before each update and resumes after — the refresh re-derives
    // exactly the vehicles whose safe regions the repair invalidated, and
    // the leaf cache is tagged with the index epoch, so a dispatcher can
    // never serve pre-update pages.
    let mut table = Some(table);
    println!("\nlive churn: sites join, leave and drift while serving continues");
    let probe = paths[0][steps - 1];
    let mut next_id = 3_000u32;
    for tick in 0..3 {
        // Re-surveyed sites drift to corrected positions (targets are read
        // before the updater takes its mutable borrow).
        let drifted: Vec<(u32, Point)> = (0..5u32)
            .map(|k| {
                let id = 1_000 + tick * 10 + k;
                let c = system
                    .objects()
                    .iter()
                    .find(|o| o.id == id)
                    .unwrap()
                    .center();
                (
                    id,
                    Point::new(
                        (c.x + rng.gen_range(-60.0..60.0f64)).clamp(100.0, domain.max_x - 100.0),
                        (c.y + rng.gen_range(-60.0..60.0f64)).clamp(100.0, domain.max_y - 100.0),
                    ),
                )
            })
            .collect();
        let joins: Vec<UncertainObject> = (0..5)
            .map(|_| {
                let o = UncertainObject::with_gaussian(
                    next_id,
                    Point::new(
                        rng.gen_range(500.0..domain.max_x - 500.0),
                        rng.gen_range(500.0..domain.max_y - 500.0),
                    ),
                    15.0,
                );
                next_id += 1;
                o
            })
            .collect();

        let mut batch = system.updater();
        for site in joins {
            batch = batch.insert(site); // new sites come online
        }
        for k in 0..5u32 {
            batch = batch.delete(tick * 10 + k); // old ones are decommissioned
        }
        for (id, to) in drifted {
            batch = batch.move_to(id, to);
        }
        let stats = batch.commit().expect("churn batch applies");
        let engine = system.engine();
        let answer = engine.pnn(probe);
        let mut subs =
            SubscriptionEngine::with_table(&system, table.take().expect("table is parked"));
        let refreshed = subs.refresh_after(&stats);
        let invalidated = subs.stats().invalidated;
        table = Some(subs.into_table());
        println!(
            "  tick {tick}: epoch {} | {}i/{}d/{}m -> {} of {} leaves refined ({:.1}%), {} re-derived | {} of {} subscriptions revalidated, {} deltas pushed | probe best site: {}",
            stats.epoch,
            stats.inserted,
            stats.deleted,
            stats.moved,
            stats.leaves_refined,
            stats.total_leaves,
            stats.refine_fraction() * 100.0,
            stats.objects_rederived,
            invalidated,
            vehicles,
            refreshed.len(),
            answer.best().map_or("-".to_string(), |(id, _)| id.to_string()),
        );
        assert_eq!(engine.cache_epoch(), Some(system.epoch()));
    }
    println!(
        "after churn: {} sites live, index epoch {}",
        system.objects().len(),
        system.epoch()
    );
}
