//! Property-based tests of the continuous-PNN subscription engine: across
//! {IC, ICR} × {Uniform, GaussianSkew}, a fleet of randomly walking clients
//! served by a [`SubscriptionEngine`] — safe-region hits, cache-assisted
//! misses, epoch invalidation after random [`UpdateBatch`]es — must hold a
//! pushed delta stream *bit-identical* to re-answering every client's
//! position with a fresh [`UvSystem::pnn`] (or the sharded fan-out) on
//! every tick. Replaying the deltas over each client's previous answer set
//! must reproduce the oracle exactly; clients that received *no* delta must
//! already agree with it — a wrong safe region that silently serves a stale
//! answer fails here, not just a missed push.
//!
//! An unsharded engine is the one-shard layout of the sharded path: over
//! the same objects it pushes the same deltas and counts the same stats as
//! an engine over a 1×1 [`ShardedUvSystem`].
//!
//! A deterministic regression corpus pins the boundary scenarios: a
//! migration crossing a shard boundary mid-tick, safe regions invalidated
//! by a domain-growth batch, unsubscribe-then-resubscribe epoch coherence,
//! a client parked exactly on a leaf split line, and refreshes handed a
//! record of another layout.

use proptest::prelude::*;
use std::collections::BTreeMap;
use uv_core::{
    Method, ShardedUvSystem, SubscriptionEngine, SubscriptionTable, UpdateBatch, UvConfig, UvError,
    UvSystem,
};
use uv_data::{Dataset, GeneratorConfig, UncertainObject};
use uv_geom::{Point, Rect};

/// The dynamic-serving tuning of the update proptests; sharded cases add a
/// 2×2 grid on top.
fn test_config(num_shards: usize) -> UvConfig {
    UvConfig::default()
        .with_seed_knn(24)
        .with_leaf_split_capacity(16)
        .with_num_shards(num_shards)
}

fn generate(n: usize, kind_pick: u8, sigma: f64, seed: u64) -> Dataset {
    let generator = if kind_pick == 0 {
        GeneratorConfig::paper_uniform(n)
    } else {
        GeneratorConfig::paper_skewed(n, sigma)
    }
    .with_seed(seed);
    Dataset::generate(generator)
}

fn method(method_pick: u8) -> Method {
    if method_pick == 0 {
        Method::IC
    } else {
        Method::ICR
    }
}

/// One raw walk step drawn by proptest: client pick, unit offsets, and a
/// jump discriminant (most steps are small enough to stay inside a safe
/// region; jumps force misses and — sharded — migrations).
type RawStep = (u16, f64, f64, u8);

/// One raw update op: discriminant, target pick, position.
type RawOp = (u8, u16, f64, f64);

/// Either backend, so the walk/verify driver is written once.
enum System<'a> {
    Single(&'a UvSystem),
    Sharded(&'a ShardedUvSystem),
}

impl System<'_> {
    fn oracle_ids(&self, p: Point) -> Vec<u32> {
        let answer = match self {
            System::Single(s) => s.pnn(p),
            System::Sharded(s) => s.pnn(p),
        };
        answer.probabilities.iter().map(|(id, _)| *id).collect()
    }

    fn engine(&self, table: SubscriptionTable) -> SubscriptionEngine<'_> {
        match self {
            System::Single(s) => SubscriptionEngine::with_table(s, table),
            System::Sharded(s) => SubscriptionEngine::sharded_with_table(s, table),
        }
    }
}

/// Replay state: each client's position and its answer set as reconstructed
/// purely from the pushed delta stream.
type Replay = BTreeMap<u64, (Point, Vec<u32>)>;

/// Applies one pushed delta to the replayed answer set.
fn replay_delta(replay: &mut Replay, id: u64, delta: &uv_data::AnswerDelta) {
    let (_, ids) = replay.get_mut(&id).expect("delta for unknown client");
    ids.retain(|x| !delta.left.contains(x));
    ids.extend(delta.entered.iter().copied());
    ids.sort_unstable();
}

/// The bit-identity check: every client's replayed answer set — including
/// clients that received no delta this round — must equal re-answering its
/// current position from scratch, and must equal the engine's own table.
fn assert_stream_matches_oracle(system: &System<'_>, table: &SubscriptionTable, replay: &Replay) {
    assert_eq!(table.len(), replay.len());
    for (id, (p, replayed)) in replay {
        let client = table.client(*id).expect("client table lost a client");
        assert_eq!(client.position(), *p, "client {id} position diverged");
        assert_eq!(
            client.answer_ids(),
            replayed.as_slice(),
            "client {id}: delta replay diverged from the engine table"
        );
        let oracle = system.oracle_ids(*p);
        assert_eq!(
            replayed, &oracle,
            "client {id} at {p:?}: pushed stream diverged from per-tick pnn"
        );
    }
}

/// One tick's reports from raw steps: at most one per client, a small step
/// or a jump from its replayed position, clamped to `domain`. The replay
/// takes the new positions.
fn tick_moves(replay: &mut Replay, tick_steps: &[RawStep], domain: Rect) -> Vec<(u64, Point)> {
    let ids: Vec<u64> = replay.keys().copied().collect();
    let mut moves: Vec<(u64, Point)> = Vec::new();
    for (pick, dx, dy, jump) in tick_steps {
        let id = ids[*pick as usize % ids.len()];
        if moves.iter().any(|(m, _)| *m == id) {
            continue;
        }
        let scale = if jump % 4 == 0 { 2_500.0 } else { 18.0 };
        let (p, _) = replay[&id];
        let np = Point::new(
            (p.x + (dx - 0.5) * scale).clamp(domain.min_x, domain.max_x),
            (p.y + (dy - 0.5) * scale).clamp(domain.min_y, domain.max_y),
        );
        moves.push((id, np));
    }
    for (id, np) in &moves {
        replay.get_mut(id).expect("known client").0 = *np;
    }
    moves
}

/// Runs one engine session over `steps` ticks, updating `replay` from the
/// pushed deltas, and returns the table for the next update batch.
fn run_ticks(
    system: &System<'_>,
    table: SubscriptionTable,
    replay: &mut Replay,
    steps: &[Vec<RawStep>],
    domain: Rect,
) -> SubscriptionTable {
    let mut engine = system.engine(table);
    for tick_steps in steps {
        let moves = tick_moves(replay, tick_steps, domain);
        for (id, delta) in engine.tick(&moves) {
            replay_delta(replay, id, &delta);
        }
        assert_stream_matches_oracle(system, engine.table(), replay);
    }
    engine.into_table()
}

/// Applies the pushed refresh deltas after an update batch and re-checks
/// the whole fleet against the post-update oracle.
fn run_refresh(
    system: &System<'_>,
    table: SubscriptionTable,
    replay: &mut Replay,
    refresh: impl FnOnce(&mut SubscriptionEngine<'_>) -> Vec<(u64, uv_data::AnswerDelta)>,
) -> SubscriptionTable {
    let mut engine = system.engine(table);
    for (id, delta) in refresh(&mut engine) {
        replay_delta(replay, id, &delta);
    }
    assert_stream_matches_oracle(system, engine.table(), replay);
    engine.into_table()
}

/// Translates raw ops into one collision-free [`UpdateBatch`] (the
/// `proptest_shard.rs` scheme) against the live object set.
fn translate_batch(live: &mut Vec<u32>, raw_ops: &[RawOp], next_id: &mut u32) -> UpdateBatch {
    let mut batch = UpdateBatch::new();
    for (op_pick, id_pick, x, y) in raw_ops {
        let target = live.get(*id_pick as usize % live.len().max(1)).copied();
        match op_pick % 3 {
            0 => {
                batch = batch.insert(UncertainObject::with_gaussian(
                    *next_id,
                    Point::new(*x, *y),
                    20.0,
                ));
                *next_id += 1;
            }
            1 if live.len() > 10 => {
                let target = target.expect("live set is non-empty");
                batch = batch.delete(target);
                live.retain(|id| *id != target);
            }
            _ => {
                let Some(target) = target else { continue };
                batch = batch.move_to(target, Point::new(*x, *y));
            }
        }
    }
    batch
}

/// Seeds the fleet: subscribe every client, check the initial answers, and
/// initialize the replay state.
fn seed_fleet(system: &System<'_>, positions: &[Point]) -> (SubscriptionTable, Replay) {
    let mut engine = system.engine(SubscriptionTable::new());
    let mut replay = Replay::new();
    for (i, p) in positions.iter().enumerate() {
        let id = i as u64;
        let answer = engine.subscribe(id, *p).expect("fresh id");
        let ids: Vec<u32> = answer.probabilities.iter().map(|(o, _)| *o).collect();
        assert_eq!(ids, system.oracle_ids(*p));
        replay.insert(id, (*p, ids));
    }
    (engine.into_table(), replay)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 2, ..ProptestConfig::default() })]

    /// The tentpole property, unsharded: random walks interleaved with
    /// random update batches; the pushed delta stream stays bit-identical
    /// to per-tick re-answering through safe-region hits, misses and
    /// epoch invalidation.
    #[test]
    fn delta_stream_matches_per_tick_pnn(
        case in (60..110usize, 0..2u8, 0..2u8, 900.0..2_500.0f64, 0..10_000u64),
        walks in prop::collection::vec(
            prop::collection::vec((0..u16::MAX, 0.0..1.0f64, 0.0..1.0f64, 0..8u8), 4..10),
            6..10,
        ),
        raw_ops in prop::collection::vec(
            (0..6u8, 0..u16::MAX, 1_000.0..9_000.0f64, 1_000.0..9_000.0f64),
            8..14,
        ),
    ) {
        let (n, method_pick, kind_pick, sigma, seed) = case;
        let ds = generate(n, kind_pick, sigma, seed);
        let mut sys = UvSystem::build(
            ds.objects.clone(), ds.domain, method(method_pick), test_config(1),
        ).unwrap();
        let positions = ds.query_points(12, seed ^ 0x5afe);
        let (mut table, mut replay) = {
            let system = System::Single(&sys);
            seed_fleet(&system, &positions)
        };
        let mut live: Vec<u32> = sys.objects().iter().map(|o| o.id).collect();
        let mut next_id = 10_000;
        let phases = walks.len().div_ceil(2);
        for (i, chunk) in walks.chunks(2).enumerate() {
            {
                let system = System::Single(&sys);
                table = run_ticks(&system, table, &mut replay, chunk, ds.domain);
            }
            if i + 1 < phases {
                let ops = &raw_ops[i * 4 % raw_ops.len()..];
                let batch = translate_batch(&mut live, &ops[..ops.len().min(5)], &mut next_id);
                let stats = sys.apply(batch).expect("collision-free batch");
                let system = System::Single(&sys);
                table = run_refresh(&system, table, &mut replay, |e| e.refresh_after(&stats));
            }
        }
    }

    /// The same property served by the 2×2 domain-sharded system, with
    /// jump steps crossing shard boundaries (subscription migration) and
    /// per-shard epoch invalidation after each batch.
    #[test]
    fn sharded_delta_stream_matches_per_tick_pnn(
        case in (60..100usize, 0..2u8, 0..2u8, 900.0..2_500.0f64, 0..10_000u64),
        walks in prop::collection::vec(
            prop::collection::vec((0..u16::MAX, 0.0..1.0f64, 0.0..1.0f64, 0..4u8), 4..10),
            4..8,
        ),
        raw_ops in prop::collection::vec(
            (0..6u8, 0..u16::MAX, 1_000.0..9_000.0f64, 1_000.0..9_000.0f64),
            8..14,
        ),
    ) {
        let (n, method_pick, kind_pick, sigma, seed) = case;
        let ds = generate(n, kind_pick, sigma, seed);
        let mut sys = ShardedUvSystem::build(
            ds.objects.clone(), ds.domain, method(method_pick), test_config(2),
        ).unwrap();
        let positions = ds.query_points(10, seed ^ 0x5afe);
        let (mut table, mut replay) = {
            let system = System::Sharded(&sys);
            seed_fleet(&system, &positions)
        };
        let mut live: Vec<u32> = sys.objects().to_vec().iter().map(|o| o.id).collect();
        let mut next_id = 10_000;
        let phases = walks.len().div_ceil(2);
        for (i, chunk) in walks.chunks(2).enumerate() {
            {
                let system = System::Sharded(&sys);
                table = run_ticks(&system, table, &mut replay, chunk, ds.domain);
            }
            if i + 1 < phases {
                let ops = &raw_ops[i * 4 % raw_ops.len()..];
                let batch = translate_batch(&mut live, &ops[..ops.len().min(5)], &mut next_id);
                let stats = sys.apply(batch).expect("collision-free batch");
                let system = System::Sharded(&sys);
                table = run_refresh(&system, table, &mut replay, |e| {
                    e.refresh_after_sharded(&stats)
                });
            }
        }
    }

    /// An unsharded engine is the one-shard layout of the sharded path:
    /// over the same objects, an engine on a [`UvSystem`] and one on a 1×1
    /// [`ShardedUvSystem`] push identical deltas and count identical
    /// [`uv_core::SubscriptionStats`] through ticks, update batches and a
    /// domain growth, and the pushed stream matches per-tick re-answering.
    #[test]
    fn unsharded_engine_matches_the_one_shard_layout(
        case in (60..100usize, 0..2u8, 0..2u8, 900.0..2_500.0f64, 0..10_000u64),
        walks in prop::collection::vec(
            prop::collection::vec((0..u16::MAX, 0.0..1.0f64, 0.0..1.0f64, 0..8u8), 4..10),
            4..8,
        ),
        raw_ops in prop::collection::vec(
            (0..6u8, 0..u16::MAX, 1_000.0..9_000.0f64, 1_000.0..9_000.0f64),
            8..14,
        ),
    ) {
        let (n, method_pick, kind_pick, sigma, seed) = case;
        let ds = generate(n, kind_pick, sigma, seed);
        let method = method(method_pick);
        let mut single =
            UvSystem::build(ds.objects.clone(), ds.domain, method, test_config(1)).unwrap();
        let mut one_shard =
            ShardedUvSystem::build(ds.objects.clone(), ds.domain, method, test_config(1)).unwrap();
        prop_assert_eq!(one_shard.shard_count(), 1);
        let positions = ds.query_points(10, seed ^ 0x5afe);
        let (mut table_u, mut replay) = seed_fleet(&System::Single(&single), &positions);
        let (mut table_s, replay_s) = seed_fleet(&System::Sharded(&one_shard), &positions);
        prop_assert_eq!(&replay, &replay_s);
        let mut live: Vec<u32> = single.objects().iter().map(|o| o.id).collect();
        let mut next_id = 10_000;
        let phases = walks.len().div_ceil(2);
        for (i, chunk) in walks.chunks(2).enumerate() {
            {
                let (su, ss) = (System::Single(&single), System::Sharded(&one_shard));
                let (mut eu, mut es) = (su.engine(table_u), ss.engine(table_s));
                for tick_steps in chunk {
                    let moves = tick_moves(&mut replay, tick_steps, ds.domain);
                    let pushed = eu.tick(&moves);
                    prop_assert_eq!(&pushed, &es.tick(&moves));
                    prop_assert_eq!(eu.stats(), es.stats());
                    for (id, delta) in &pushed {
                        replay_delta(&mut replay, *id, delta);
                    }
                    assert_stream_matches_oracle(&su, eu.table(), &replay);
                }
                (table_u, table_s) = (eu.into_table(), es.into_table());
            }
            if i + 1 < phases {
                let ops = &raw_ops[i * 4 % raw_ops.len()..];
                let mut batch = translate_batch(&mut live, &ops[..ops.len().min(5)], &mut next_id);
                if i + 2 == phases {
                    // The last batch also grows the domain in place.
                    batch = batch.insert(UncertainObject::with_gaussian(
                        next_id,
                        Point::new(ds.domain.max_x + 700.0, ds.domain.max_y + 700.0),
                        20.0,
                    ));
                    next_id += 1;
                }
                let stats_u = single.apply(batch.clone()).expect("collision-free batch");
                let stats_s = one_shard.apply(batch).expect("collision-free batch");
                prop_assert_eq!(stats_u.domain_grown, i + 2 == phases);
                prop_assert_eq!(stats_s.domain_grown, i + 2 == phases);
                let (su, ss) = (System::Single(&single), System::Sharded(&one_shard));
                let (mut eu, mut es) = (su.engine(table_u), ss.engine(table_s));
                let pushed = eu.refresh_after(&stats_u);
                prop_assert_eq!(&pushed, &es.refresh_after_sharded(&stats_s));
                prop_assert_eq!(eu.stats(), es.stats());
                for (id, delta) in &pushed {
                    replay_delta(&mut replay, *id, delta);
                }
                assert_stream_matches_oracle(&su, eu.table(), &replay);
                (table_u, table_s) = (eu.into_table(), es.into_table());
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Deterministic regression corpus: the boundary scenarios, at full strength
// even when `PROPTEST_CASES` is dialed down.
// ---------------------------------------------------------------------------

/// A tick whose path crosses a shard boundary must migrate the subscription
/// to the new owner — mid-tick, among other moving clients — and keep the
/// delta chain unbroken.
#[test]
fn migration_crosses_a_shard_boundary_mid_tick() {
    let ds = Dataset::generate(GeneratorConfig::paper_uniform(150).with_seed(7));
    let sys =
        ShardedUvSystem::build(ds.objects.clone(), ds.domain, Method::IC, test_config(2)).unwrap();
    let system = System::Sharded(&sys);
    // The 2×2 grid splits at the domain centre; walk client 0 straight
    // through the vertical boundary while two bystanders jitter in place.
    let start = Point::new(4_200.0, 3_000.0);
    let positions = vec![
        start,
        Point::new(2_000.0, 8_000.0),
        Point::new(8_000.0, 8_000.0),
    ];
    let (table, mut replay) = seed_fleet(&system, &positions);
    let before = table.client(0).expect("subscribed").shard();

    let mut engine = system.engine(table);
    for step in 1..=20 {
        let x = 4_200.0 + 80.0 * step as f64; // crosses mid-domain at step 10
        let moves = vec![
            (0u64, Point::new(x, 3_000.0)),
            (1u64, Point::new(2_000.0 + step as f64, 8_000.0)),
            (2u64, Point::new(8_000.0, 8_000.0 - step as f64)),
        ];
        for (id, np) in &moves {
            replay.get_mut(id).expect("known client").0 = *np;
        }
        for (id, delta) in engine.tick(&moves) {
            replay_delta(&mut replay, id, &delta);
        }
        assert_stream_matches_oracle(&system, engine.table(), &replay);
    }
    let after = engine.table().client(0).expect("still subscribed").shard();
    assert_ne!(before, after, "the walk must change the owning shard");
    assert_eq!(sys.owner_of(replay[&0].0), after);
    assert!(
        engine.stats().migrations >= 1,
        "a boundary crossing must be accounted as a migration"
    );
    assert!(
        engine.stats().hits > 0,
        "the jittering bystanders should mostly hit their safe regions"
    );
}

/// Domain growth rewrites the whole grid geometry: every in-domain safe
/// region must be invalidated, and the refreshed fleet must agree with the
/// post-growth oracle.
#[test]
fn domain_growth_invalidates_every_safe_region() {
    let ds = Dataset::generate(GeneratorConfig::paper_uniform(120).with_seed(11));
    let mut sys =
        UvSystem::build(ds.objects.clone(), ds.domain, Method::IC, test_config(1)).unwrap();
    let positions = ds.query_points(8, 23);
    let (mut table, mut replay) = {
        let system = System::Single(&sys);
        let (table, replay) = seed_fleet(&system, &positions);
        // A stationary tick builds a safe region for every client.
        let moves: Vec<(u64, Point)> = replay.iter().map(|(id, (p, _))| (*id, *p)).collect();
        let mut engine = system.engine(table);
        engine.tick(&moves);
        (engine.into_table(), replay)
    };
    for (id, _) in replay.iter() {
        assert!(table.client(*id).unwrap().safe_region().is_some());
    }

    // An insert far outside the domain forces in-place domain growth.
    let grow = UpdateBatch::new().insert(UncertainObject::with_gaussian(
        9_999,
        Point::new(14_000.0, 14_000.0),
        20.0,
    ));
    let stats = sys.apply(grow).expect("growth batch");
    assert!(!stats.repaired_regions().is_empty());

    let system = System::Single(&sys);
    let mut engine = system.engine(table);
    let pushed = engine.refresh_after(&stats);
    for (id, delta) in pushed {
        replay_delta(&mut replay, id, &delta);
    }
    assert_eq!(
        engine.stats().invalidated,
        replay.len() as u64,
        "growth rewrites the grid: every client must re-derive"
    );
    assert_stream_matches_oracle(&system, engine.table(), &replay);
    // The refreshed safe regions serve the next stationary tick as hits.
    engine.reset_stats();
    let moves: Vec<(u64, Point)> = replay.iter().map(|(id, (p, _))| (*id, *p)).collect();
    let deltas = engine.tick(&moves);
    assert!(deltas.is_empty());
    assert_eq!(engine.stats().hits, replay.len() as u64);
    table = engine.into_table();
    assert_eq!(table.len(), replay.len());
}

/// Unsubscribing, updating the system, then resubscribing the same id must
/// serve the new epoch — no resurrected answer set, no stale epoch tag.
#[test]
fn unsubscribe_then_resubscribe_is_epoch_coherent() {
    let ds = Dataset::generate(GeneratorConfig::paper_uniform(100).with_seed(3));
    let mut sys =
        UvSystem::build(ds.objects.clone(), ds.domain, Method::IC, test_config(1)).unwrap();
    let p = ds.query_points(1, 9)[0];

    let mut engine = SubscriptionEngine::new(&sys);
    engine.subscribe(42, p).unwrap();
    engine.tick(&[(42, p)]); // builds the safe region at the old epoch
    engine.unsubscribe(42).unwrap();
    assert!(!engine.table().contains(42));
    let table = engine.into_table();

    // Delete the nearest candidates so the answer at `p` actually changes.
    let old_ids = sys
        .pnn(p)
        .probabilities
        .iter()
        .map(|(id, _)| *id)
        .collect::<Vec<_>>();
    let mut batch = UpdateBatch::new();
    for id in old_ids.iter().take(2) {
        batch = batch.delete(*id);
    }
    sys.apply(batch).expect("delete batch");

    let mut engine = SubscriptionEngine::with_table(&sys, table);
    let answer = engine.subscribe(42, p).expect("id was released");
    let ids: Vec<u32> = answer.probabilities.iter().map(|(id, _)| *id).collect();
    let oracle: Vec<u32> = sys.pnn(p).probabilities.iter().map(|(id, _)| *id).collect();
    assert_eq!(ids, oracle, "resubscription must serve the current epoch");
    assert!(old_ids.iter().take(2).all(|d| !ids.contains(d)));

    // Resubscription built a *current-epoch* safe region, so stationary
    // ticks hit it — no residue of the unsubscribed incarnation.
    engine.reset_stats();
    engine.tick(&[(42, p)]);
    engine.tick(&[(42, p)]);
    assert_eq!(engine.stats().hits, 2);
    assert_eq!(engine.stats().derivations, 0);
}

/// A client parked exactly on a leaf split line: `locate_leaf` resolves the
/// tie deterministically, so stationary ticks hit one pinned leaf and the
/// answers stay bit-identical to the oracle on both sides of the line.
#[test]
fn client_parked_exactly_on_a_leaf_split_line() {
    let ds = Dataset::generate(GeneratorConfig::paper_uniform(200).with_seed(5));
    let sys = UvSystem::build(ds.objects.clone(), ds.domain, Method::IC, test_config(1)).unwrap();
    // An interior leaf edge is a genuine split line shared with a sibling.
    let (rect, _) = sys
        .index()
        .leaves()
        .find(|(r, _)| r.min_x > ds.domain.min_x + 1.0)
        .expect("a split index has interior leaf edges");
    let on_line = Point::new(rect.min_x, rect.center().y);

    let system = System::Single(&sys);
    let (table, mut replay) = seed_fleet(&system, &[on_line]);
    let mut engine = system.engine(table);
    engine.reset_stats();
    // Stationary ticks on the line: the subscription's safe region is
    // pinned to whichever leaf `locate_leaf` resolved the tie to, so every
    // tick hits it.
    for _ in 0..5 {
        for (id, delta) in engine.tick(&[(0, on_line)]) {
            replay_delta(&mut replay, id, &delta);
        }
        assert_stream_matches_oracle(&system, engine.table(), &replay);
    }
    assert_eq!(engine.stats().hits, 5);
    assert_eq!(engine.stats().derivations, 0);
    // Nudging across the line stays bit-identical (the hit test re-locates
    // the leaf, so a crossing can never serve the wrong side's cache).
    for dx in [-0.5, 0.5, -0.25, 0.25, 0.0] {
        let np = Point::new(rect.min_x + dx, rect.center().y);
        replay.get_mut(&0).expect("known client").0 = np;
        for (id, delta) in engine.tick(&[(0, np)]) {
            replay_delta(&mut replay, id, &delta);
        }
        assert_stream_matches_oracle(&system, engine.table(), &replay);
    }
}

/// A non-finite position is rejected at the boundary: `subscribe` returns a
/// typed error and `tick` skips the report uncounted, so the table holds
/// only finite positions and the snapshot it saves loads back.
#[test]
fn non_finite_positions_are_rejected_and_the_table_round_trips() {
    let ds = Dataset::generate(GeneratorConfig::paper_uniform(150));
    let sys = UvSystem::with_defaults(ds.objects.clone(), ds.domain);
    let mut engine = SubscriptionEngine::new(&sys);
    let bad = [
        Point::new(f64::NAN, 5.0),
        Point::new(f64::INFINITY, 1.0),
        Point::new(1.0, f64::NEG_INFINITY),
    ];
    for p in bad {
        assert_eq!(engine.subscribe(1, p).unwrap_err(), UvError::InvalidPoint);
    }
    assert!(engine.table().is_empty());
    let q = ds.query_points(2, 5);
    engine.subscribe(2, q[0]).unwrap();
    engine.subscribe(3, q[1]).unwrap();
    let before = engine.stats();

    // Unique ids (the concurrent path) and a repeated id (the sequential
    // path): every non-finite report is skipped and counts nothing.
    let moved = Point::new(q[1].x + 1e-7, q[1].y);
    assert!(engine.tick(&[(2, bad[1]), (3, moved)]).is_empty());
    assert!(engine.tick(&[(2, bad[0]), (2, bad[2])]).is_empty());
    assert_eq!(engine.stats().ticks, before.ticks + 1);
    assert_eq!(engine.table().client(2).unwrap().position(), q[0]);
    assert_eq!(engine.table().client(3).unwrap().position(), moved);

    let mut bytes = Vec::new();
    sys.save_snapshot_with_subscriptions(&mut bytes, engine.table())
        .unwrap();
    let (_, restored) = UvSystem::load_snapshot_with_subscriptions(&mut bytes.as_slice()).unwrap();
    assert_eq!(restored.len(), 2);
    assert!(restored.iter().all(|(_, c)| c.position().is_finite()));
}

/// A refresh handed a record of another layout cannot vouch for any client,
/// so every client re-derives and the pushed deltas still replay onto the
/// oracle: an unsharded apply's stats on a sharded engine, and a sharded
/// apply's or a reshard's stats on an unsharded one.
#[test]
fn refresh_with_a_record_of_another_layout_rederives_every_client() {
    let ds = Dataset::generate(GeneratorConfig::paper_uniform(150).with_seed(17));
    let mut single =
        UvSystem::build(ds.objects.clone(), ds.domain, Method::IC, test_config(2)).unwrap();
    let mut sharded =
        ShardedUvSystem::build(ds.objects.clone(), ds.domain, Method::IC, test_config(2)).unwrap();
    let positions = ds.query_points(10, 41);
    let clients = positions.len() as u64;
    let (table_u, mut replay_u) = seed_fleet(&System::Single(&single), &positions);
    let (table_s, mut replay_s) = seed_fleet(&System::Sharded(&sharded), &positions);

    // Deleting the first client's two best answers changes its answer set.
    let mut batch = UpdateBatch::new();
    for id in single.pnn(positions[0]).answer_ids().iter().take(2) {
        batch = batch.delete(*id);
    }
    let stats_u = single.apply(batch.clone()).expect("delete batch");
    let stats_s = sharded.apply(batch).expect("delete batch");

    run_refresh(&System::Sharded(&sharded), table_s, &mut replay_s, |e| {
        let pushed = e.refresh_after(&stats_u);
        assert_eq!(e.stats().invalidated, clients);
        assert!(!pushed.is_empty());
        pushed
    });
    let table_u = run_refresh(&System::Single(&single), table_u, &mut replay_u, |e| {
        let pushed = e.refresh_after_sharded(&stats_s);
        assert_eq!(e.stats().invalidated, clients);
        assert!(!pushed.is_empty());
        pushed
    });

    // The unsharded system did not change, so re-deriving pushes nothing.
    let reshard = sharded.split_shard(0).expect("2×2 splits");
    run_refresh(&System::Single(&single), table_u, &mut replay_u, |e| {
        let pushed = e.refresh_after_reshard(&reshard);
        assert_eq!(e.stats().invalidated, clients);
        assert!(pushed.is_empty());
        pushed
    });
}
