//! `pnn_static`: read-only PNN serving at paper scale.
//!
//! 8,000 uniform objects built with the IC method at the paper's defaults.
//! An untimed warm-up fills a long-lived `QueryEngine`'s leaf cache. Then,
//! in a closed loop, each 256-point chunk of the query stream is answered by
//! single `pnn` calls (read latency) and again by one `pnn_batch` call at
//! `nproc` workers (read throughput, batch latency). Interleaving the two
//! keeps both measured over the whole run rather than one half each. No
//! update, shard or subscription work: this is the bypass case for those
//! layers.

use super::{agrees, checkpoint_system, restart, same_bits, write_builder, Io, Pass, QueryTotals};
use crate::inputs::{self, domain, paper_config, stream, Layout, Rng, METHOD};
use crate::measure::Plan;
use crate::trace::Tracer;
use uv_core::UvSystem;
use uv_data::PnnAnswer;
use uv_geom::Point;

const OBJECTS: usize = 8_000;
const BATCH: usize = 256;
/// Distinct query points; the stream cycles through them.
const POOL: usize = 128 * BATCH;
/// Every `SAMPLE`-th single answer, and every 8th batch, of the first pass
/// over the pool is checked.
const SAMPLE: usize = 128;

pub fn run(seed: u64, plan: Plan, tracer: Tracer) -> Result<Pass, String> {
    let mut pass = Pass::new(tracer);
    let objects = inputs::objects(OBJECTS, Layout::Uniform, seed);
    let queries = inputs::uniform_points(POOL, &mut Rng::new(seed, stream::QUERIES));
    let config = paper_config();

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
    let system = system.expect("at least one set-up");
    write_builder([system.construction_stats()], 0, &mut pass.layers);

    let engine = system.engine();
    let leaf_centers: Vec<Point> = system.index().leaves().map(|(r, _)| r.center()).collect();
    for q in leaf_centers {
        engine.pnn(q);
    }

    let mut totals = QueryTotals::default();
    let io_start = Io::of(&system);
    let mut singles: Vec<(Point, PnnAnswer)> = Vec::new();
    let mut batches: Vec<(usize, Vec<PnnAnswer>)> = Vec::new();
    let mut phase = plan.phase(100, 10.0);
    let mut round = 0;
    while phase.more() {
        pass.tracer.begin_round();
        let start = (round * BATCH) % POOL;
        let chunk = &queries[start..start + BATCH];
        let first_pass = round < POOL / BATCH;
        for (j, q) in chunk.iter().enumerate() {
            let (answer, seconds) = pass.tracer.call("engine.pnn", || engine.pnn(*q));
            pass.ops.attempt(1);
            pass.e2e.read_us.push(seconds * 1e6);
            totals.add(&answer);
            if first_pass && j % SAMPLE == 0 {
                singles.push((*q, answer));
            }
        }
        let (answers, seconds) = pass
            .tracer
            .call("engine.pnn_batch", || engine.pnn_batch(chunk));
        pass.ops.attempt(1);
        pass.e2e.batch_ms.push(seconds * 1e3);
        pass.e2e.served += answers.len() as u64;
        pass.e2e.served_s += seconds;
        answers.iter().for_each(|a| totals.add(a));
        if first_pass && round % 8 == 0 {
            batches.push((start, answers));
        }
        round += 1;
    }
    pass.tracer.end_rounds();
    drop(engine);
    let reads = Io::of(&system).since(io_start);
    Io::write(reads, totals.queries(), Io::default(), 0, &mut pass.layers);
    totals.write(&mut pass.layers);
    let probes: Vec<Point> = singles.iter().map(|(q, _)| *q).collect();
    let snapshot = checkpoint_system(&mut pass, &system, &probes);

    // Single answers agree with the independent R-tree baseline and are
    // bit-identical to the sequential Section V-A path; batched answers are
    // bit-identical to it as well.
    for (q, answer) in &singles {
        let (baseline, sequential) = (system.pnn_rtree(*q), system.pnn(*q));
        pass.ops.check(
            agrees(answer, &baseline) && same_bits(answer, &sequential),
            || {
                format!(
                    "pnn_static seed {seed}: the answer at {q:?} is {:?}; the R-tree baseline \
                     gives {:?} and UvSystem::pnn {:?}",
                    answer.probabilities, baseline.probabilities, sequential.probabilities
                )
            },
        );
    }
    for (start, answers) in &batches {
        let points = &queries[*start..*start + BATCH];
        let wrong = points
            .iter()
            .zip(answers)
            .find(|(q, a)| !same_bits(a, &system.pnn(**q)));
        pass.ops.check(wrong.is_none(), || {
            let (q, a) = wrong.expect("a wrong answer");
            format!(
                "pnn_static seed {seed}: pnn_batch answers {q:?} with {:?}, UvSystem::pnn \
                 with {:?}",
                a.probabilities,
                system.pnn(*q).probabilities
            )
        });
    }
    restart(&mut pass, &plan, &snapshot, |mut bytes| {
        UvSystem::load_snapshot(&mut bytes)
    });
    Ok(pass.finish())
}
