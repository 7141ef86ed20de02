//! Property-based tests of certified misses: a safe-region miss or a
//! refresh re-derivation may decide its answer set by the sign pass — a few
//! cdf evaluations in the quadrature's own arithmetic — instead of the
//! qualification-probability quadrature. Whichever way a derivation went,
//! the client's answer ids must equal a fresh `pnn` at its position.
//!
//! Random unsharded and 2×2 fleets walk in small drift steps (most stay
//! inside their safe regions, the rest leave them just barely) and jumps
//! (which re-derive far away, and sharded, migrate); some ticks repeat a
//! client, which takes the sequential miss path. Random churn batches, each
//! followed by a refresh, re-derive the clients the update invalidated.
//! After every tick and every refresh, every client's table ids must equal
//! the oracle, and over the run the sign pass must have decided some
//! derivations.

use proptest::prelude::*;
use uv_core::{
    Method, ShardedUvSystem, SubscriptionEngine, SubscriptionStats, SubscriptionTable, UpdateBatch,
    UvConfig, UvSystem,
};
use uv_data::{Dataset, GeneratorConfig, ObjectId, UncertainObject};
use uv_geom::Point;

/// One raw walk step: client pick, unit offsets, and a jump discriminant.
type RawStep = (u16, f64, f64, u8);

/// One raw update op: discriminant, target pick, position.
type RawOp = (u8, u16, f64, f64);

/// Either serving type, so one property covers both.
enum Fleet {
    Single(Box<UvSystem>),
    Sharded(Box<ShardedUvSystem>),
}

impl Fleet {
    fn build(ds: &Dataset, sharded: bool) -> Self {
        let config = UvConfig::default()
            .with_seed_knn(24)
            .with_leaf_split_capacity(16);
        let objects = ds.objects.clone();
        if sharded {
            let config = config.with_num_shards(2);
            let system = ShardedUvSystem::build(objects, ds.domain, Method::IC, config).unwrap();
            Fleet::Sharded(Box::new(system))
        } else {
            let system = UvSystem::build(objects, ds.domain, Method::IC, config).unwrap();
            Fleet::Single(Box::new(system))
        }
    }

    fn engine(&self, table: SubscriptionTable) -> SubscriptionEngine<'_> {
        match self {
            Fleet::Single(s) => SubscriptionEngine::with_table(s, table),
            Fleet::Sharded(s) => SubscriptionEngine::sharded_with_table(s, table),
        }
    }

    fn pnn_ids(&self, p: Point) -> Vec<ObjectId> {
        match self {
            Fleet::Single(s) => s.pnn(p).answer_ids(),
            Fleet::Sharded(s) => s.pnn(p).answer_ids(),
        }
    }

    fn live_ids(&self) -> Vec<ObjectId> {
        let objects = match self {
            Fleet::Single(s) => s.objects(),
            Fleet::Sharded(s) => s.objects(),
        };
        objects.iter().map(|o| o.id).collect()
    }

    /// Applies `batch` and refreshes a table resumed over the new state,
    /// returning the refreshed engine's stats and its table.
    fn apply_and_refresh(
        &mut self,
        batch: UpdateBatch,
        table: SubscriptionTable,
    ) -> (SubscriptionStats, SubscriptionTable) {
        match self {
            Fleet::Single(s) => {
                let stats = s.apply(batch).expect("collision-free batch");
                let mut engine = SubscriptionEngine::with_table(s, table);
                engine.refresh_after(&stats);
                (engine.stats(), engine.into_table())
            }
            Fleet::Sharded(s) => {
                let stats = s.apply(batch).expect("collision-free batch");
                let mut engine = SubscriptionEngine::sharded_with_table(s, table);
                engine.refresh_after_sharded(&stats);
                (engine.stats(), engine.into_table())
            }
        }
    }
}

/// Every client's answer ids equal a fresh `pnn` at its position.
fn assert_table_matches_pnn(fleet: &Fleet, table: &SubscriptionTable, when: &str) {
    for (id, client) in table.iter() {
        let p = client.position();
        assert_eq!(
            client.answer_ids(),
            fleet.pnn_ids(p).as_slice(),
            "client {id} at {p:?} diverged from pnn after {when}"
        );
    }
}

/// One tick's reports: a drift step or a jump per raw step, first report
/// per client only; with `repeat`, the first mover reports twice (its later
/// report back at its old position), which forces the sequential path.
fn tick_moves(
    table: &SubscriptionTable,
    steps: &[RawStep],
    ds: &Dataset,
    repeat: bool,
) -> Vec<(u64, Point)> {
    let ids: Vec<u64> = table.iter().map(|(id, _)| id).collect();
    let d = ds.domain;
    let mut moves: Vec<(u64, Point)> = Vec::new();
    for (pick, dx, dy, jump) in steps {
        let id = ids[*pick as usize % ids.len()];
        if moves.iter().any(|(m, _)| *m == id) {
            continue;
        }
        let Some(client) = table.client(id) else {
            continue;
        };
        let scale = if jump % 4 == 0 { 2_500.0 } else { 30.0 };
        let p = client.position();
        let np = Point::new(
            (p.x + (dx - 0.5) * scale).clamp(d.min_x, d.max_x),
            (p.y + (dy - 0.5) * scale).clamp(d.min_y, d.max_y),
        );
        moves.push((id, np));
    }
    if repeat {
        if let Some((id, _)) = moves.first().copied() {
            if let Some(client) = table.client(id) {
                moves.push((id, client.position()));
            }
        }
    }
    moves
}

/// Translates raw ops into one collision-free batch against the live set.
fn churn_batch(live: &mut Vec<ObjectId>, raw_ops: &[RawOp], next_id: &mut ObjectId) -> UpdateBatch {
    let mut batch = UpdateBatch::new();
    let mut touched: Vec<ObjectId> = Vec::new();
    for (op, pick, x, y) in raw_ops {
        let target = live.get(*pick as usize % live.len().max(1)).copied();
        let p = Point::new(*x, *y);
        match op % 3 {
            0 => {
                let object = if *pick % 2 == 0 {
                    UncertainObject::with_gaussian(*next_id, p, 20.0)
                } else {
                    UncertainObject::with_uniform(*next_id, p, 15.0)
                };
                batch = batch.insert(object);
                *next_id += 1;
            }
            1 if live.len() > 10 => {
                let Some(target) = target.filter(|t| !touched.contains(t)) else {
                    continue;
                };
                batch = batch.delete(target);
                live.retain(|id| *id != target);
            }
            _ => {
                let Some(target) = target.filter(|t| !touched.contains(t)) else {
                    continue;
                };
                batch = batch.move_to(target, p);
                touched.push(target);
            }
        }
    }
    batch
}

fn add(total: &mut SubscriptionStats, s: SubscriptionStats) {
    total.derivations += s.derivations;
    total.certified += s.certified;
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 3, ..ProptestConfig::default() })]

    /// After every tick and every refresh, certified or integrated, each
    /// client's answer ids equal `pnn` at its position; the sign pass
    /// decides some derivations, and only ever a subset of them.
    #[test]
    fn certified_answers_match_pnn_through_ticks_and_refreshes(
        case in (60..100usize, 0..2u8, 0..2u8, 0..10_000u64),
        phases in prop::collection::vec(
            prop::collection::vec(
                prop::collection::vec((0..u16::MAX, 0.0..1.0f64, 0.0..1.0f64, 0..8u8), 6..14),
                2..4,
            ),
            3..5,
        ),
        raw_ops in prop::collection::vec(
            (0..6u8, 0..u16::MAX, 1_000.0..9_000.0f64, 1_000.0..9_000.0f64),
            12..20,
        ),
    ) {
        let (n, kind, sharded, seed) = case;
        let generator = if kind == 0 {
            GeneratorConfig::paper_uniform(n)
        } else {
            GeneratorConfig::paper_skewed(n, 1_500.0)
        };
        let ds = Dataset::generate(generator.with_seed(seed));
        let mut fleet = Fleet::build(&ds, sharded == 1);
        let mut total = SubscriptionStats::default();
        let mut table = {
            let mut engine = fleet.engine(SubscriptionTable::new());
            for (i, p) in ds.query_points(24, seed ^ 0xce27).iter().enumerate() {
                engine.subscribe(i as u64, *p).expect("fresh id");
            }
            add(&mut total, engine.stats());
            engine.into_table()
        };
        let mut live = fleet.live_ids();
        let mut next_id: ObjectId = 10_000;
        for (phase, ticks) in phases.iter().enumerate() {
            let mut engine = fleet.engine(table);
            for (t, steps) in ticks.iter().enumerate() {
                let moves = tick_moves(engine.table(), steps, &ds, t % 3 == 2);
                engine.tick(&moves);
                assert_table_matches_pnn(&fleet, engine.table(), "a tick");
            }
            add(&mut total, engine.stats());
            table = engine.into_table();
            let ops = &raw_ops[phase * 4 % raw_ops.len()..];
            let batch = churn_batch(&mut live, &ops[..ops.len().min(5)], &mut next_id);
            let (stats, refreshed) = fleet.apply_and_refresh(batch, table);
            add(&mut total, stats);
            table = refreshed;
            assert_table_matches_pnn(&fleet, &table, "a refresh");
        }
        prop_assert!(total.certified > 0, "the sign pass decided nothing: {total:?}");
        prop_assert!(total.certified <= total.derivations, "{total:?}");
    }
}
