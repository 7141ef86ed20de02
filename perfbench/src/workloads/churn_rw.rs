//! `churn_rw`: writes beside reads on the unsharded system.
//!
//! 1,000 uniform objects under the dynamic-serving tuning. Each round
//! applies one 10-op batch through `UvSystem::apply` (batch latency), then
//! answers 200 uniform queries one at a time through a fresh `QueryEngine`
//! (read latency and throughput): every epoch empties the leaf cache, so
//! the engine's cold path runs too. Traced runs also feed clones of every
//! batch to a standalone `DerivationRouter` to time the derivation share of
//! an apply.

use super::{
    changed_ids, checkpoint_system, divergence, reference_ids, restart, same_bits, write_builder,
    Io, Pass, QueryTotals, UpdateTotals,
};
use crate::inputs::{self, domain, dynamic_config, stream, Churn, Layout, Rng, METHOD};
use crate::measure::{mean, Plan};
use crate::trace::Tracer;
use uv_core::{DerivationRouter, UvSystem};
use uv_data::PnnAnswer;
use uv_geom::Point;

const OBJECTS: usize = 1_000;
const QUERIES_PER_ROUND: usize = 200;
/// Every `SAMPLE`-th answer of the last round is checked against a cold
/// rebuild.
const SAMPLE: usize = 8;

pub fn run(seed: u64, plan: Plan, tracer: Tracer) -> Result<Pass, String> {
    let mut pass = Pass::new(tracer);
    let objects = inputs::objects(OBJECTS, Layout::Uniform, seed);
    let config = dynamic_config(1);

    let mut system = None;
    for _ in 0..plan.setups() {
        drop(system.take());
        let input = objects.clone();
        let (built, seconds) = pass.tracer.call("builder.build", || {
            UvSystem::build(input, domain(), METHOD, config)
        });
        pass.ops.attempt(1);
        system = Some(built.map_err(|e| format!("build failed: {e}"))?);
        pass.e2e.setup_s.push(seconds);
    }
    let mut system = system.expect("at least one set-up");
    write_builder([system.construction_stats()], 0, &mut pass.layers);

    // The shadow router only exists in traced runs.
    let mut router = if pass.tracer.enabled() {
        let router = DerivationRouter::build(objects.clone(), domain(), METHOD, config);
        Some(router.map_err(|e| format!("router build failed: {e}"))?)
    } else {
        None
    };

    let mut churn = Churn::new(&objects, Layout::Uniform, seed);
    let mut rng = Rng::new(seed, stream::QUERIES);
    let mut totals = QueryTotals::default();
    let mut updates = UpdateTotals::default();
    let mut router_rederived = 0;
    let (mut reads, mut writes) = (Io::default(), Io::default());
    let mut last_round: Vec<(Point, PnnAnswer)> = Vec::new();
    let mut snapshot = None;
    let mut phase = plan.phase(100, 5.0);
    let mut rounds = 0;
    while phase.more() {
        rounds += 1;
        pass.tracer.begin_round();
        let batch = churn.next_batch();
        let shadow = router.as_ref().map(|_| batch.clone());
        let before = pass.tracer.enabled().then(|| reference_ids(&system));
        let io = Io::of(&system);
        let (applied, seconds) = pass.tracer.call("update.apply", || system.apply(batch));
        pass.ops.attempt(1);
        pass.e2e.batch_ms.push(seconds * 1e3);
        writes = writes.plus(Io::of(&system).since(io));
        match applied {
            Ok(stats) => {
                let changed = before.map(|b| changed_ids(&b, &system));
                updates.batch([&stats], changed);
            }
            Err(e) => pass.ops.check(false, || {
                format!("churn_rw: apply of batch {rounds} failed: {e}")
            }),
        }
        if let (Some(router), Some(shadow)) = (router.as_mut(), shadow) {
            let (routed, _) = pass.tracer.call("router.apply", || router.apply(shadow));
            router_rederived += routed.map_or(0, |s| s.objects_rederived);
        }

        let engine = system.engine();
        let io = Io::of(&system);
        last_round.clear();
        for j in 0..QUERIES_PER_ROUND {
            let q = inputs::uniform_point(&mut rng);
            let (answer, seconds) = pass.tracer.call("engine.pnn", || engine.pnn(q));
            pass.ops.attempt(1);
            pass.e2e.read_us.push(seconds * 1e6);
            pass.e2e.served += 1;
            pass.e2e.served_s += seconds;
            totals.add(&answer);
            if j % SAMPLE == 0 {
                last_round.push((q, answer));
            }
        }
        reads = reads.plus(Io::of(&system).since(io));
        if phase.at_checkpoint() {
            pass.tracer.end_round();
            snapshot = Some(checkpoint_system(&mut pass, &system, &probes(&last_round)));
        }
    }
    pass.tracer.end_rounds();
    let snapshot =
        snapshot.unwrap_or_else(|| checkpoint_system(&mut pass, &system, &probes(&last_round)));
    totals.write(&mut pass.layers);
    Io::write(
        reads,
        totals.queries(),
        writes,
        updates.batches,
        &mut pass.layers,
    );
    updates.write(&mut pass.layers);
    pass.layers.set(
        "router.rederived_per_batch",
        mean(router_rederived as f64, updates.batches),
    );

    // The maintained index and the last round's answers equal a cold build
    // of the final objects.
    let cold = UvSystem::build(system.objects().to_vec(), system.domain(), METHOD, config)
        .map_err(|e| format!("cold rebuild failed: {e}"))?;
    pass.ops.check(
        cold.index().canonical_leaves() == system.index().canonical_leaves(),
        || {
            format!(
                "churn_rw seed {seed}: after {rounds} batches the maintained index differs \
                 from a cold build: {}",
                divergence(&system, &cold)
            )
        },
    );
    for (q, answer) in &last_round {
        let fresh = cold.pnn(*q);
        pass.ops.check(same_bits(answer, &fresh), || {
            format!(
                "churn_rw seed {seed}: after {rounds} batches the answer at {q:?} is {:?}, \
                 a cold build gives {:?}",
                answer.probabilities, fresh.probabilities
            )
        });
    }

    restart(&mut pass, &plan, &snapshot, |mut bytes| {
        UvSystem::load_snapshot(&mut bytes)
    });
    Ok(pass.finish())
}

fn probes(samples: &[(Point, PnnAnswer)]) -> Vec<Point> {
    samples.iter().map(|(q, _)| *q).collect()
}
