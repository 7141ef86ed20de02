//! Property-based tests of the domain-sharded serving layer: across
//! {IC, ICR} × {Uniform, GaussianSkew}, a [`ShardedUvSystem`] must answer
//! every PNN query — point, batch and trajectory — *bit-identically*
//! (probabilities and candidate counts) to one unsharded [`UvSystem`] over
//! the same objects, before and after random ≥50-op update batches; and the
//! per-query I/O breakdowns returned by the shard fan-out must attribute
//! every physical page read exactly (per-query I/O *values* legitimately
//! differ from the unsharded system, whose leaves have a different physical
//! page layout — what must hold is that summing the breakdowns reproduces
//! the shard stores' atomic counters). Adversarial sequences biased to
//! provoke the retired full-rebuild triggers additionally assert that
//! `apply` never changes the layout — the grid dimensions stay and domain
//! growth moves only the outer shard boundaries.
//!
//! Elastic resharding is covered by a churn-interleaved property: random
//! [`ShardedUvSystem::split_shard`] / [`ShardedUvSystem::merge_shards`]
//! operations alternate with update batches and live subscription ticks;
//! routed answers and the client-visible delta streams must stay
//! bit-identical to the unsharded oracle throughout, a reshard itself must
//! push no deltas, and the final (generally non-uniform) layout must
//! survive a snapshot round-trip. A deterministic corpus case additionally
//! fuses a 2×2 grid down to a single shard and splits it back up into a
//! non-uniform 3×2.

use proptest::prelude::*;
use uv_core::{
    ClientId, Method, ShardedUvSystem, SubscriptionEngine, SubscriptionTable, UpdateBatch,
    UvConfig, UvSystem,
};
use uv_data::{Dataset, GeneratorConfig, QueryBreakdown, UncertainObject};
use uv_geom::{Point, Rect};

/// The dynamic-serving tuning of the update proptests (local sensitivity
/// bounds, enough leaves for splits/merges), sharded 2×2.
fn test_config() -> UvConfig {
    UvConfig::default()
        .with_seed_knn(24)
        .with_leaf_split_capacity(16)
        .with_num_shards(2)
}

fn build_case(
    n: usize,
    method_pick: u8,
    kind_pick: u8,
    sigma: f64,
    seed: u64,
) -> (Dataset, ShardedUvSystem, UvSystem) {
    let method = if method_pick == 0 {
        Method::IC
    } else {
        Method::ICR
    };
    let generator = if kind_pick == 0 {
        GeneratorConfig::paper_uniform(n)
    } else {
        GeneratorConfig::paper_skewed(n, sigma)
    }
    .with_seed(seed);
    let dataset = Dataset::generate(generator);
    let sharded = ShardedUvSystem::build(
        dataset.objects.clone(),
        dataset.domain,
        method,
        test_config(),
    )
    .unwrap();
    let unsharded = UvSystem::build(
        dataset.objects.clone(),
        dataset.domain,
        method,
        test_config(),
    )
    .unwrap();
    (dataset, sharded, unsharded)
}

/// One raw op drawn by proptest: discriminant, target pick and a position.
type RawOp = (u8, u16, f64, f64);

/// Applies `raw_ops` to both systems in identical batches (the same
/// batch-translation scheme as `proptest_update.rs`). Returns applied ops.
fn churn(
    sharded: &mut ShardedUvSystem,
    unsharded: &mut UvSystem,
    raw_ops: &[RawOp],
    batch_size: usize,
    mut next_id: u32,
) -> usize {
    let mut applied = 0usize;
    for chunk in raw_ops.chunks(batch_size.max(1)) {
        let mut live: Vec<u32> = unsharded.objects().iter().map(|o| o.id).collect();
        let mut batch = UpdateBatch::new();
        for (op_pick, id_pick, x, y) in chunk {
            let target = live.get(*id_pick as usize % live.len().max(1)).copied();
            match op_pick % 3 {
                0 => {
                    batch = batch.insert(UncertainObject::with_gaussian(
                        next_id,
                        Point::new(*x, *y),
                        20.0,
                    ));
                    next_id += 1;
                    applied += 1;
                }
                1 if live.len() > 10 => {
                    let target = target.expect("live set is non-empty");
                    batch = batch.delete(target);
                    live.retain(|id| *id != target);
                    applied += 1;
                }
                _ => {
                    let Some(target) = target else { continue };
                    batch = batch.move_to(target, Point::new(*x, *y));
                    applied += 1;
                }
            }
        }
        sharded
            .apply(batch.clone())
            .expect("collision-free batch must validate on the sharded path");
        unsharded
            .apply(batch)
            .expect("collision-free batch must validate on the unsharded path");
    }
    applied
}

/// Builds one collision-free mixed batch from `raw_ops` (at most one op per
/// live id, like `churn`, but returning the batch so the caller can thread
/// its stats into the subscription refresh). Returns the batch and the next
/// fresh insert id.
fn one_batch(unsharded: &UvSystem, raw_ops: &[RawOp], mut next_id: u32) -> (UpdateBatch, u32) {
    let live: Vec<u32> = unsharded.objects().iter().map(|o| o.id).collect();
    let mut batch = UpdateBatch::new();
    let mut used: Vec<u32> = Vec::new();
    for (op_pick, id_pick, x, y) in raw_ops {
        let target = live
            .get(*id_pick as usize % live.len().max(1))
            .copied()
            .filter(|id| !used.contains(id));
        match op_pick % 3 {
            0 => {
                batch = batch.insert(UncertainObject::with_gaussian(
                    next_id,
                    Point::new(*x, *y),
                    20.0,
                ));
                next_id += 1;
            }
            1 if live.len() > used.len() + 10 => {
                if let Some(target) = target {
                    batch = batch.delete(target);
                    used.push(target);
                }
            }
            _ => {
                if let Some(target) = target {
                    batch = batch.move_to(target, Point::new(*x, *y));
                    used.push(target);
                }
            }
        }
    }
    (batch, next_id)
}

/// The `pick`-th axis-adjacent shard pair of an `nx × ny` grid (column
/// pairs first, then row pairs), or `None` on a single-shard layout.
fn adjacent_pair(nx: usize, ny: usize, pick: usize) -> Option<(usize, usize)> {
    let x_pairs = (nx - 1) * ny;
    let y_pairs = nx * (ny - 1);
    if x_pairs + y_pairs == 0 {
        return None;
    }
    let k = pick % (x_pairs + y_pairs);
    if k < x_pairs {
        let a = (k / (nx - 1)) * nx + k % (nx - 1);
        Some((a, a + 1))
    } else {
        let k = k - x_pairs;
        Some((k, k + nx))
    }
}

/// `apply` never changes the layout: the grid dimensions stay, and every
/// split line off the domain boundary is bit-unchanged (domain growth moves
/// only the outer boundaries), so interior rectangles are bit-unchanged.
fn assert_layout_kept(sharded: &ShardedUvSystem, dims: (usize, usize), before: &[Rect]) {
    assert_eq!(sharded.grid_dims(), dims, "apply changed the grid");
    let (nx, ny) = dims;
    for (i, (a, b)) in before.iter().zip(sharded.shard_rects()).enumerate() {
        let (ix, iy) = (i % nx, i / nx);
        for (interior, was, now) in [
            (ix > 0, a.min_x, b.min_x),
            (ix + 1 < nx, a.max_x, b.max_x),
            (iy > 0, a.min_y, b.min_y),
            (iy + 1 < ny, a.max_y, b.max_y),
        ] {
            assert!(
                !interior || was.to_bits() == now.to_bits(),
                "apply moved an interior split line of shard {i}"
            );
        }
    }
}

fn assert_bit_identical(sharded: &ShardedUvSystem, unsharded: &UvSystem, queries: &[Point]) {
    let batch = sharded.pnn_batch(queries);
    for (q, batched) in queries.iter().zip(&batch) {
        let point = sharded.pnn(*q);
        let oracle = unsharded.pnn(*q);
        prop_assert_eq!(&point.probabilities, &oracle.probabilities, "at {:?}", q);
        prop_assert_eq!(point.candidates_examined, oracle.candidates_examined);
        prop_assert_eq!(&batched.probabilities, &oracle.probabilities);
        prop_assert_eq!(batched.candidates_examined, oracle.candidates_examined);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    /// The tentpole oracle, static half: routed answers equal the unsharded
    /// system on fresh builds, including trajectory steps (whose deltas
    /// chain across shard-boundary re-routes) and exact I/O attribution
    /// across the shard fan-out.
    #[test]
    fn sharded_answers_equal_unsharded_answers(
        case in (60..120usize, 0..2u8, 0..2u8, 900.0..2_500.0f64, 0..10_000u64)
    ) {
        let (n, method_pick, kind_pick, sigma, seed) = case;
        let (dataset, sharded, unsharded) = build_case(n, method_pick, kind_pick, sigma, seed);
        let queries = dataset.query_points(24, seed ^ 0x5a4d);
        assert_bit_identical(&sharded, &unsharded, &queries);

        // Trajectory: same steps, same deltas, across shard crossings.
        let steps_sharded = sharded.pnn_trajectory(&queries);
        let steps_unsharded = unsharded.pnn_trajectory(&queries);
        prop_assert_eq!(steps_sharded.len(), steps_unsharded.len());
        for (a, b) in steps_sharded.iter().zip(&steps_unsharded) {
            prop_assert_eq!(&a.answer.probabilities, &b.answer.probabilities);
            prop_assert_eq!(&a.delta, &b.delta);
        }

        // I/O attribution: the breakdown sum equals the shard stores' atomic
        // counters exactly.
        sharded.reset_io();
        let answers = sharded.pnn_batch(&queries);
        let total = QueryBreakdown::sum(answers.iter().map(|a| &a.breakdown));
        let index_reads: u64 = (0..sharded.shard_count())
            .map(|s| sharded.shard(s).index().store().io().reads)
            .sum();
        let object_reads: u64 = (0..sharded.shard_count())
            .map(|s| sharded.shard(s).object_store().store().io().reads)
            .sum();
        prop_assert_eq!(total.index_io, index_reads);
        prop_assert_eq!(total.object_io, object_reads);
    }

    /// The tentpole oracle, dynamic half: after ≥50 random mixed update
    /// operations applied in identical batches to both systems, routed
    /// answers still equal the unsharded system bit-exactly, and every live
    /// object is still replicated into at least one shard.
    #[test]
    fn sharded_answers_survive_random_update_batches(
        case in (60..110usize, 0..2u8, 0..2u8, 900.0..2_500.0f64, 0..10_000u64),
        raw_ops in prop::collection::vec(
            (0..3u8, 0..u16::MAX, 50.0..9_950.0f64, 50.0..9_950.0f64),
            50..65,
        ),
        batch_size in 2..10usize,
    ) {
        let (n, method_pick, kind_pick, sigma, seed) = case;
        let (dataset, mut sharded, mut unsharded) =
            build_case(n, method_pick, kind_pick, sigma, seed);
        let applied = churn(&mut sharded, &mut unsharded, &raw_ops, batch_size, 100_000);
        prop_assert!(applied >= 50, "sequence must mix at least 50 ops");
        prop_assert_eq!(sharded.objects().len(), unsharded.objects().len());

        // Every live object has at least one replica, and every replica is
        // live.
        let live: std::collections::HashSet<u32> =
            unsharded.objects().iter().map(|o| o.id).collect();
        let mut covered = std::collections::HashSet::new();
        for s in 0..sharded.shard_count() {
            for o in sharded.shard(s).objects() {
                prop_assert!(live.contains(&o.id), "stale replica {}", o.id);
                covered.insert(o.id);
            }
        }
        prop_assert_eq!(covered.len(), live.len(), "some live object lost all replicas");

        let queries = dataset.query_points(24, seed ^ 0xd1ce);
        assert_bit_identical(&sharded, &unsharded, &queries);
    }

    /// Adversarial half (the `proptest_adversarial.rs` sequences routed
    /// through the sharded layer): op sequences biased to provoke the old
    /// full-rebuild triggers — staircase inserts beyond the domain and
    /// hotspot mass-inserts — must never reshard the layout, must grow the
    /// domain at least once, and must keep routed answers bit-identical to
    /// the unsharded oracle, including in the newly annexed territory.
    #[test]
    fn adversarial_growth_sequences_never_reshard(
        case in (60..100usize, 0..2u8, 0..2u8, 900.0..2_500.0f64, 0..10_000u64),
        raw_ops in prop::collection::vec(
            (0..6u8, 0..u16::MAX, 0.0..1.0f64, 0.0..1.0f64),
            30..45,
        ),
        batch_size in 2..8usize,
    ) {
        let (n, method_pick, kind_pick, sigma, seed) = case;
        let (dataset, mut sharded, mut unsharded) =
            build_case(n, method_pick, kind_pick, sigma, seed);
        let mut next_id = 300_000u32;
        let mut growths = 0usize;
        for chunk in raw_ops.chunks(batch_size) {
            let domain = unsharded.domain();
            let live: Vec<u32> = unsharded.objects().iter().map(|o| o.id).collect();
            let mut batch = UpdateBatch::new();
            let mut deleted: Vec<u32> = Vec::new();
            for (op_pick, id_pick, fx, fy) in chunk {
                let target = live.get(*id_pick as usize % live.len().max(1))
                    .copied()
                    .filter(|id| !deleted.contains(id));
                // Positions are *relative to the current domain*, so the
                // strategy keeps provoking growth as the domain expands.
                let w = domain.width();
                let h = domain.height();
                match op_pick {
                    0 => {
                        // Staircase: insert just beyond the NE corner.
                        batch = batch.insert(UncertainObject::with_gaussian(
                            next_id,
                            Point::new(
                                domain.max_x + 30.0 + fx * 0.06 * w,
                                domain.max_y + 30.0 + fy * 0.06 * h,
                            ),
                            10.0,
                        ));
                        next_id += 1;
                    }
                    1 => {
                        // Growth on the opposite side.
                        batch = batch.insert(UncertainObject::with_gaussian(
                            next_id,
                            Point::new(
                                domain.min_x - 30.0 - fx * 0.04 * w,
                                domain.min_y + fy * h,
                            ),
                            10.0,
                        ));
                        next_id += 1;
                    }
                    2 | 3 => {
                        // Hotspot mass-insert into one quadrant.
                        batch = batch.insert(UncertainObject::with_gaussian(
                            next_id,
                            Point::new(
                                domain.min_x + (0.70 + fx * 0.08) * w,
                                domain.min_y + (0.70 + fy * 0.08) * h,
                            ),
                            8.0,
                        ));
                        next_id += 1;
                    }
                    4 if live.len() > deleted.len() + 10 => {
                        if let Some(target) = target {
                            batch = batch.delete(target);
                            deleted.push(target);
                        }
                    }
                    _ => {
                        if let Some(target) = target {
                            batch = batch.move_to(
                                target,
                                Point::new(
                                    domain.min_x + (0.2 + fx * 0.6) * w,
                                    domain.min_y + (0.2 + fy * 0.6) * h,
                                ),
                            );
                            deleted.push(target); // at most one op per id
                        }
                    }
                }
            }
            let (dims, rects) = (sharded.grid_dims(), sharded.shard_rects().to_vec());
            let epoch = sharded.router().epoch();
            let stats = sharded.apply(batch.clone())
                .expect("adversarial batch must validate on the sharded path");
            unsharded.apply(batch)
                .expect("adversarial batch must validate on the unsharded path");
            assert_layout_kept(&sharded, dims, &rects);
            let effective = stats.router.inserted + stats.router.deleted + stats.router.moved > 0;
            prop_assert_eq!(stats.router.epoch, epoch + u64::from(effective));
            growths += usize::from(stats.domain_grown);
            prop_assert_eq!(sharded.domain(), unsharded.domain());
        }
        prop_assert!(growths >= 1, "the biased sequence must grow the domain");

        // Bit-identical everywhere, including the annexed ring beyond the
        // original domain.
        let mut queries = dataset.query_points(20, seed ^ 0x60ee);
        let old = dataset.domain;
        queries.push(Point::new(old.max_x + 40.0, old.max_y + 40.0));
        queries.push(Point::new(old.min_x - 40.0, old.min_y + 10.0));
        assert_bit_identical(&sharded, &unsharded, &queries);
    }

    /// The ISSUE 10 tentpole, elastic half: random splits and merges
    /// interleaved with update batches and live subscription ticks. Routed
    /// answers and the client-visible delta streams stay bit-identical to
    /// the unsharded oracle throughout, a reshard itself pushes no deltas
    /// (its answers are unchanged by construction), and the final —
    /// generally non-uniform — layout survives a snapshot round-trip.
    #[test]
    fn resharding_under_churn_stays_bit_identical(
        case in (60..100usize, 0..2u8, 0..2u8, 900.0..2_500.0f64, 0..10_000u64),
        raw_ops in prop::collection::vec(
            (0..3u8, 0..u16::MAX, 50.0..9_950.0f64, 50.0..9_950.0f64),
            24..33,
        ),
        reshard_picks in prop::collection::vec((0..2u8, 0..4_096usize), 3..5),
    ) {
        let (n, method_pick, kind_pick, sigma, seed) = case;
        let (dataset, mut sharded, mut unsharded) =
            build_case(n, method_pick, kind_pick, sigma, seed);
        let queries = dataset.query_points(16, seed ^ 0xe1a5);

        // The same clients subscribed on both deployments, ticked in
        // lock-step; their delta streams must match op for op.
        let client_points = dataset.query_points(6, seed ^ 0x51b5);
        let mut positions: Vec<Point> = client_points.clone();
        let mut table_s = SubscriptionTable::new();
        let mut table_u = SubscriptionTable::new();
        {
            let mut sub_s = SubscriptionEngine::sharded_with_table(&sharded, table_s);
            let mut sub_u = SubscriptionEngine::with_table(&unsharded, table_u);
            for (i, q) in client_points.iter().enumerate() {
                let a = sub_s.subscribe(i as ClientId, *q).unwrap();
                let b = sub_u.subscribe(i as ClientId, *q).unwrap();
                prop_assert_eq!(a.answer_ids(), b.answer_ids());
            }
            table_s = sub_s.into_table();
            table_u = sub_u.into_table();
        }

        let rounds = reshard_picks.len();
        let mut next_id = 500_000u32;
        for (round, (kind, pick)) in reshard_picks.iter().enumerate() {
            // One mixed update batch applied to both systems, subscriptions
            // refreshed and ticked in lock-step.
            let lo = raw_ops.len() * round / rounds;
            let hi = raw_ops.len() * (round + 1) / rounds;
            let (batch, fresh) = one_batch(&unsharded, &raw_ops[lo..hi], next_id);
            next_id = fresh;
            let stats_s = sharded.apply(batch.clone())
                .expect("churn batch must validate on the sharded path");
            let stats_u = unsharded.apply(batch)
                .expect("churn batch must validate on the unsharded path");
            {
                let mut sub_s = SubscriptionEngine::sharded_with_table(&sharded, table_s);
                let mut sub_u = SubscriptionEngine::with_table(&unsharded, table_u);
                prop_assert_eq!(
                    sub_s.refresh_after_sharded(&stats_s),
                    sub_u.refresh_after(&stats_u),
                    "refresh delta streams diverged in round {}", round
                );
                let domain = unsharded.domain();
                for p in positions.iter_mut() {
                    *p = Point::new(
                        (p.x + 137.0 * ((round % 3) as f64 - 1.0) + 61.0)
                            .clamp(domain.min_x, domain.max_x),
                        (p.y - 89.0 * ((round % 2) as f64) + 43.0)
                            .clamp(domain.min_y, domain.max_y),
                    );
                }
                let moves: Vec<(ClientId, Point)> = positions
                    .iter()
                    .enumerate()
                    .map(|(i, p)| (i as ClientId, *p))
                    .collect();
                prop_assert_eq!(
                    sub_s.tick(&moves),
                    sub_u.tick(&moves),
                    "tick delta streams diverged in round {}", round
                );
                table_s = sub_s.into_table();
                table_u = sub_u.into_table();
            }

            // A random reshard: split anywhere, or merge any adjacent pair.
            let (nx, ny) = sharded.grid_dims();
            let stats = if *kind == 0 || adjacent_pair(nx, ny, *pick).is_none() {
                sharded.split_shard(pick % (nx * ny)).expect("split applies")
            } else {
                let (a, b) = adjacent_pair(nx, ny, *pick).expect("grid has >1 shard");
                sharded.merge_shards(a, b).expect("merge applies")
            };
            {
                let mut sub_s = SubscriptionEngine::sharded_with_table(&sharded, table_s);
                let pushed = sub_s.refresh_after_reshard(&stats);
                prop_assert!(
                    pushed.is_empty(),
                    "a reshard must not change any answer: {:?}", pushed
                );
                table_s = sub_s.into_table();
            }
            assert_bit_identical(&sharded, &unsharded, &queries);
        }

        // One more lock-step tick on the final layout, then verify every
        // tracked answer against the oracle.
        {
            let mut sub_s = SubscriptionEngine::sharded_with_table(&sharded, table_s);
            let mut sub_u = SubscriptionEngine::with_table(&unsharded, table_u);
            let moves: Vec<(ClientId, Point)> = positions
                .iter()
                .enumerate()
                .map(|(i, p)| (i as ClientId, *p))
                .collect();
            prop_assert_eq!(sub_s.tick(&moves), sub_u.tick(&moves));
            for (id, client) in sub_s.table().iter() {
                prop_assert_eq!(
                    client.answer_ids(),
                    unsharded.pnn(positions[id as usize]).answer_ids(),
                    "client {} diverged on the final layout", id
                );
            }
        }

        // The non-uniform layout round-trips through snapshot v5.
        let mut bytes = Vec::new();
        sharded.save_snapshot(&mut bytes).expect("snapshot saves");
        let loaded = ShardedUvSystem::load_snapshot(&mut bytes.as_slice())
            .expect("snapshot loads");
        prop_assert_eq!(loaded.grid_dims(), sharded.grid_dims());
        prop_assert_eq!(loaded.shard_rects(), sharded.shard_rects());
        assert_bit_identical(&loaded, &unsharded, &queries);
    }
}

/// Deterministic corpus case for the elastic half: fuse a 2×2 grid down to
/// a single shard (merge the two columns, then the two remaining rows),
/// churn, then split back up into a non-uniform 3×2 — every intermediate
/// layout answers bit-identically to the unsharded oracle and the final
/// non-uniform layout round-trips through snapshot v5.
#[test]
fn merge_to_single_shard_then_split_back() {
    let (dataset, mut sharded, mut unsharded) = build_case(80, 0, 0, 1_200.0, 42);
    let queries = dataset.query_points(16, 99);

    sharded.merge_shards(0, 1).unwrap(); // 2x2 -> 1x2 (fuse the columns)
    assert_eq!(sharded.grid_dims(), (1, 2));
    sharded.merge_shards(0, 1).unwrap(); // 1x2 -> 1x1 (fuse the rows)
    assert_eq!(sharded.grid_dims(), (1, 1));
    assert_bit_identical(&sharded, &unsharded, &queries);

    // Churn on the single-shard layout.
    let ops: Vec<RawOp> = (0..12u8)
        .map(|i| {
            (
                i % 3,
                i as u16 * 37,
                400.0 + 700.0 * i as f64,
                9_300.0 - 650.0 * i as f64,
            )
        })
        .collect();
    let (batch, _) = one_batch(&unsharded, &ops, 700_000);
    sharded.apply(batch.clone()).unwrap();
    unsharded.apply(batch).unwrap();
    assert_bit_identical(&sharded, &unsharded, &queries);

    // Split back up: 1x1 -> 2x1 -> 2x2 -> non-uniform 3x2.
    sharded.split_shard(0).unwrap();
    assert_eq!(sharded.grid_dims(), (2, 1));
    sharded.split_shard(0).unwrap();
    assert_eq!(sharded.grid_dims(), (2, 2));
    let stats = sharded.split_shard(0).unwrap();
    assert_eq!((stats.nx, stats.ny), (3, 2));
    let widths: Vec<f64> = sharded.shard_rects()[..3]
        .iter()
        .map(|r| r.width())
        .collect();
    assert!(
        widths[0] < widths[2],
        "the third split must leave a non-uniform column layout: {widths:?}"
    );
    assert_bit_identical(&sharded, &unsharded, &queries);

    let mut bytes = Vec::new();
    sharded.save_snapshot(&mut bytes).unwrap();
    let loaded = ShardedUvSystem::load_snapshot(&mut bytes.as_slice()).unwrap();
    assert_eq!(loaded.grid_dims(), (3, 2));
    assert_eq!(loaded.shard_rects(), sharded.shard_rects());
    assert_bit_identical(&loaded, &unsharded, &queries);
}
