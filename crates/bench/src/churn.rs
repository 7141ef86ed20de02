//! Churn experiment (beyond the paper): dynamic maintenance under a live
//! workload of joins, leaves and moves.
//!
//! Every step applies a batch of update operations equal to 1% of the
//! dataset (the *churn rate*) through [`UvSystem::apply`] and records the
//! [`uv_core::UpdateStats`] locality counters: how many leaf page lists the
//! localized repair rewrote versus the leaf count a full rebuild would
//! rewrite. The final state is verified bit-identical against a cold
//! rebuild — the same oracle the property tests enforce.
//!
//! The configuration is the *dynamic-serving* tuning: a seed-selection `k`
//! proportionate to the dataset (the paper's 300 targets 10K–80K objects;
//! pruning stays sound for any `k`) and a small leaf split capacity, which
//! trades non-leaf memory for smaller, more local leaves.
//!
//! With `grow` set (the `--grow` flag of the experiments binary), every
//! batch additionally inserts one object just beyond the current domain, so
//! every step exercises in-place exponential domain growth — the costliest
//! repair the maintenance layer has, since growth re-derives the whole
//! object set into the live index (the domain seeds every derivation).
//! Because each step pays that same derivation-dominated cost, the run
//! demonstrates the absence of a rebuild-latency cliff: the slowest step
//! stays within a small factor (~3x) of the median at a fixed seed.

use crate::workload::ExperimentScale;
use std::time::Instant;
use uv_core::{Method, UpdateBatch, UpdateStats, UvConfig, UvSystem};
use uv_data::{Dataset, GeneratorConfig, UncertainObject};
use uv_geom::Point;

/// Per-step measurements of the churn run.
#[derive(Debug, Clone)]
pub struct ChurnRow {
    /// Step number (1-based).
    pub step: usize,
    /// Update statistics of the applied batch.
    pub stats: UpdateStats,
    /// Wall-clock time of the incremental apply in milliseconds.
    pub apply_ms: f64,
}

/// Summary of the whole churn run.
#[derive(Debug, Clone)]
pub struct ChurnSummary {
    /// Objects at the start of the run.
    pub initial_objects: usize,
    /// Operations per step (1% of the dataset, at least 3).
    pub ops_per_step: usize,
    /// Average fraction of leaves refined per step.
    pub avg_refine_fraction: f64,
    /// Total incremental apply time in milliseconds.
    pub incremental_ms: f64,
    /// Wall-clock time of one cold full rebuild of the final state, for
    /// comparison, in milliseconds.
    pub rebuild_ms: f64,
    /// Steps whose batch grew the domain in place (nonzero only in `--grow`
    /// runs, where every step pushes past the current boundary).
    pub growth_events: usize,
    /// `true` when the final state was verified bit-identical to the cold
    /// rebuild (leaf structure and PNN answers) and its snapshot is at most
    /// 1.25× the rebuild's: the churned stores hold live bytes only.
    pub verified: bool,
}

/// The dynamic-serving configuration the churn workload runs under.
pub fn dynamic_config(n: usize) -> UvConfig {
    UvConfig::default()
        .with_seed_knn((n / 32).clamp(16, 300))
        // Smaller, more local leaves than the paper's one-page trigger; the
        // non-leaf budget is raised accordingly (they trade against each
        // other — a bound budget is replayed in place by the reconciliation
        // pass rather than forcing a rebuild, but a tight bound coarsens
        // the grid). Capacities far below the dataset's cell co-overlap
        // count degenerate (splits stop separating anything), so this stays
        // in the low tens.
        .with_leaf_split_capacity(12)
        .with_max_nonleaf(20_000)
}

/// Deterministic xorshift64* generator — the op mix must be reproducible at
/// a fixed seed without pulling a rand dependency into the harness.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn pick(&mut self, bound: usize) -> usize {
        (self.next() % bound.max(1) as u64) as usize
    }

    fn coord(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (self.next() as f64 / u64::MAX as f64) * (hi - lo)
    }
}

/// One churn step: 1% of the live set as a batch of 60% moves (local GPS-fix
/// jitter), 20% joins and 20% leaves.
fn churn_batch(sys: &UvSystem, rng: &mut XorShift, next_id: &mut u32, grow: bool) -> UpdateBatch {
    let live: Vec<u32> = sys.objects().iter().map(|o| o.id).collect();
    let ops = (live.len() / 100).max(3);
    let domain = sys.domain();
    let mut batch = UpdateBatch::new();
    let mut used: Vec<u32> = Vec::new();
    for k in 0..ops {
        match k * 10 / ops {
            0..=5 => {
                // Move: a local position update, the dominant op of a
                // fleet-tracking feed (a GPS fix drifts by road-segment
                // scale, not across the city).
                let id = live[rng.pick(live.len())];
                if used.contains(&id) {
                    continue;
                }
                let o = sys.objects().iter().find(|o| o.id == id).unwrap();
                let c = o.center();
                let jitter = domain.width() / 250.0;
                let x = (c.x + rng.coord(-jitter, jitter))
                    .clamp(domain.min_x + 25.0, domain.max_x - 25.0);
                let y = (c.y + rng.coord(-jitter, jitter))
                    .clamp(domain.min_y + 25.0, domain.max_y - 25.0);
                batch = batch.move_to(id, Point::new(x, y));
                used.push(id);
            }
            6..=7 => {
                // Join: a new object somewhere in the domain.
                batch = batch.insert(UncertainObject::with_gaussian(
                    *next_id,
                    Point::new(
                        rng.coord(domain.min_x + 25.0, domain.max_x - 25.0),
                        rng.coord(domain.min_y + 25.0, domain.max_y - 25.0),
                    ),
                    20.0,
                ));
                *next_id += 1;
            }
            _ => {
                // Leave.
                let id = live[rng.pick(live.len())];
                if used.contains(&id) {
                    continue;
                }
                batch = batch.delete(id);
                used.push(id);
            }
        }
    }
    if grow {
        // One insert just beyond the NE corner: the batch forces an
        // in-place exponential domain growth, which re-derives the whole
        // object set, so every `--grow` step pays the same
        // derivation-dominated cost and the timings expose any
        // rebuild-style latency cliff.
        let beyond = rng.coord(domain.width() * 0.01, domain.width() * 0.04);
        batch = batch.insert(UncertainObject::with_gaussian(
            *next_id,
            Point::new(domain.max_x + beyond, domain.max_y + beyond),
            20.0,
        ));
        *next_id += 1;
    }
    batch
}

/// Runs the churn experiment `trials` times over the same seeded sequence:
/// builds the system, applies `steps` churn batches (each also growing the
/// domain when `grow` is set), verifies the final state against a cold
/// rebuild.
///
/// Every trial does the same work, so the counters are one trial's; each
/// step's `apply_ms`, the incremental total and the rebuild time are the
/// medians over the trials. The state only verifies when every trial does
/// and all trials agree on every counter.
pub fn churn_experiment(
    scale: &ExperimentScale,
    steps: usize,
    grow: bool,
    trials: usize,
) -> (Vec<ChurnRow>, ChurnSummary) {
    let mut runs: Vec<(Vec<ChurnRow>, ChurnSummary)> = (0..trials.max(1))
        .map(|_| churn_trial(scale, steps, grow))
        .collect();
    let median = |mut times: Vec<f64>| {
        times.sort_by(f64::total_cmp);
        times[times.len() / 2]
    };
    let rebuild_ms = median(runs.iter().map(|(_, s)| s.rebuild_ms).collect());
    let agree = runs.iter().all(|(rows, s)| {
        s.verified
            && rows.len() == runs[0].0.len()
            && rows.iter().zip(&runs[0].0).all(|(a, b)| a.stats == b.stats)
    });
    let step_ms: Vec<f64> = (0..runs[0].0.len())
        .map(|k| median(runs.iter().map(|(rows, _)| rows[k].apply_ms).collect()))
        .collect();
    let (mut rows, mut summary) = runs.swap_remove(0);
    for (row, ms) in rows.iter_mut().zip(step_ms) {
        row.apply_ms = ms;
    }
    summary.incremental_ms = rows.iter().map(|r| r.apply_ms).sum();
    summary.rebuild_ms = rebuild_ms;
    summary.verified = agree;
    (rows, summary)
}

/// One trial of [`churn_experiment`].
fn churn_trial(scale: &ExperimentScale, steps: usize, grow: bool) -> (Vec<ChurnRow>, ChurnSummary) {
    let n = scale.scaled(20_000);
    let dataset = Dataset::generate(GeneratorConfig::paper_uniform(n));
    let config = dynamic_config(n);
    let mut sys =
        UvSystem::build(dataset.objects.clone(), dataset.domain, Method::IC, config).unwrap();

    let mut rng = XorShift(0x5eed_cafe_f00d_0001);
    let mut next_id = n as u32;
    let mut rows = Vec::with_capacity(steps);
    let mut incremental_ms = 0.0;
    for step in 1..=steps {
        let batch = churn_batch(&sys, &mut rng, &mut next_id, grow);
        let t = Instant::now();
        let stats = sys.apply(batch).expect("churn batch must validate");
        let apply_ms = t.elapsed().as_secs_f64() * 1_000.0;
        incremental_ms += apply_ms;
        rows.push(ChurnRow {
            step,
            stats,
            apply_ms,
        });
    }

    // Oracle: a cold rebuild of the final object set must be bit-identical —
    // the full canonical leaf structure (regions and member lists), exactly
    // as the property tests compare it, plus sampled PNN answers — and the
    // churned system must snapshot to at most 1.25× the rebuild's bytes.
    let t = Instant::now();
    let rebuilt =
        UvSystem::build(sys.objects().to_vec(), sys.domain(), Method::IC, config).unwrap();
    let rebuild_ms = t.elapsed().as_secs_f64() * 1_000.0;
    let mut verified = sys.index().canonical_leaves() == rebuilt.index().canonical_leaves();
    for q in dataset.query_points(25, 77) {
        let a = sys.pnn(q);
        let b = rebuilt.pnn(q);
        verified &=
            a.probabilities == b.probabilities && a.candidates_examined == b.candidates_examined;
    }
    let snapshot_len = |s: &UvSystem| {
        s.save_snapshot(&mut std::io::sink())
            .expect("a snapshot to a sink cannot fail")
    };
    verified &= snapshot_len(&sys) * 4 <= snapshot_len(&rebuilt) * 5;

    let ops_per_step = (n / 100).max(3);
    let avg_refine_fraction =
        rows.iter().map(|r| r.stats.refine_fraction()).sum::<f64>() / rows.len().max(1) as f64;
    let growth_events = rows.iter().filter(|r| r.stats.domain_grown).count();
    let summary = ChurnSummary {
        initial_objects: n,
        ops_per_step,
        avg_refine_fraction,
        incremental_ms,
        rebuild_ms,
        growth_events,
        verified,
    };
    (rows, summary)
}

/// Formats [`ChurnRow`]s for `print_table`.
pub fn churn_rows(rows: &[ChurnRow]) -> Vec<Vec<String>> {
    rows.iter()
        .map(|r| {
            vec![
                r.step.to_string(),
                format!(
                    "{}i/{}d/{}m{}",
                    r.stats.inserted,
                    r.stats.deleted,
                    r.stats.moved,
                    if r.stats.domain_grown { " G" } else { "" },
                ),
                r.stats.objects_in_knn_radius.to_string(),
                r.stats.objects_rederived.to_string(),
                r.stats.regions_reused.to_string(),
                r.stats.leaves_refined.to_string(),
                r.stats.total_leaves.to_string(),
                format!("{:.1}%", r.stats.refine_fraction() * 100.0),
                format!("{}/{}", r.stats.leaves_split, r.stats.leaves_merged),
                format!("{:.1}", r.apply_ms),
            ]
        })
        .collect()
}

/// Formats the [`ChurnSummary`] for `print_table`.
pub fn churn_summary_row(s: &ChurnSummary) -> Vec<Vec<String>> {
    vec![vec![
        s.initial_objects.to_string(),
        s.ops_per_step.to_string(),
        format!("{:.1}%", s.avg_refine_fraction * 100.0),
        format!("{:.1}", s.incremental_ms),
        format!("{:.1}", s.rebuild_ms),
        s.growth_events.to_string(),
        if s.verified {
            "yes".into()
        } else {
            "NO".into()
        },
    ]]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three acceptance criteria over one fixed-seed 1k-object churn run
    /// (the fixture is expensive — a 1k build plus 5 churn steps plus the
    /// cold-rebuild oracle — so the assertions share it):
    ///
    /// * **Locality** (PR 3): each 1% churn step refines at most 10% of
    ///   the leaves a full rebuild would write, and the final state
    ///   verifies bit-identical against the oracle.
    /// * **Seed-sector prefilter** (PR 4 regression): the re-derivation
    ///   count drops well below the PR-3 k-NN-radius bound (which flagged
    ///   ~30% of 1k objects at k=31), with the same oracle still holding.
    /// * **Re-pruning fast path**: some re-derivations reuse their stored
    ///   possible region over the run, and no step reuses more regions
    ///   than it re-derives — a refactor that silently turns the fast path
    ///   off fails here.
    #[test]
    fn one_percent_churn_stays_local_and_prefilter_cuts_rederivations() {
        let scale = ExperimentScale {
            size_factor: 0.05, // 1_000 objects
            ..ExperimentScale::default()
        };
        let (rows, summary) = churn_experiment(&scale, 5, false, 1);
        assert_eq!(summary.initial_objects, 1_000);
        assert_eq!(summary.growth_events, 0);
        assert!(summary.ops_per_step >= 10);
        assert!(summary.verified, "final state diverged from a cold rebuild");
        for row in &rows {
            assert_eq!(row.stats.epoch, row.step as u64, "one epoch per step");
            assert!(
                row.stats.refine_fraction() <= 0.10,
                "step {} refined {:.1}% of {} leaves (limit 10%)",
                row.step,
                row.stats.refine_fraction() * 100.0,
                row.stats.total_leaves,
            );
            assert!(
                row.stats.regions_reused <= row.stats.objects_rederived,
                "step {} reused {} regions of {} re-derivations",
                row.step,
                row.stats.regions_reused,
                row.stats.objects_rederived,
            );
        }
        assert!(summary.avg_refine_fraction <= 0.10);
        let reused: usize = rows.iter().map(|r| r.stats.regions_reused).sum();
        assert!(reused > 0, "no re-derivation reused its stored region");

        let rederived: usize = rows.iter().map(|r| r.stats.objects_rederived).sum();
        let in_radius: usize = rows.iter().map(|r| r.stats.objects_in_knn_radius).sum();
        assert!(
            rederived * 2 <= in_radius,
            "prefilter saved too little: {rederived} re-derived of {in_radius} in the k-NN radius"
        );
        // The loose bound still sits near the ~30%-per-step level PR 3
        // measured, so the saving is real, not a degenerate workload.
        let live = summary.initial_objects as f64;
        let avg_in_radius = in_radius as f64 / rows.len() as f64;
        assert!(
            avg_in_radius > live * 0.10,
            "the k-NN-radius bound flags too few objects ({avg_in_radius} of {live}) \
             for the comparison to be meaningful"
        );
    }

    #[test]
    fn tiny_scale_churn_smoke() {
        let scale = ExperimentScale {
            size_factor: 0.01,
            ..ExperimentScale::default()
        };
        // Two trials: `verified` also requires them to agree on every
        // counter, which the seeded sequence guarantees.
        let (rows, summary) = churn_experiment(&scale, 2, false, 2);
        assert_eq!(rows.len(), 2);
        assert!(summary.verified);
        assert_eq!(churn_rows(&rows).len(), 2);
        assert_eq!(churn_summary_row(&summary)[0].len(), 7);
    }

    /// A `--grow` churn run — every step inserts past the current boundary,
    /// so every step triggers in-place exponential domain growth — has no
    /// rebuild-latency cliff, stated in deterministic work rather than
    /// wall-clock time: each step re-derives exactly the live object set
    /// once and writes exactly the grown grid's leaves once (one canonical
    /// re-derivation, never a rebuild on top of it), so at a fixed seed the
    /// heaviest step's work stays within 3x the median step's. Nothing ever
    /// falls back to a full rebuild, and the grown final state still
    /// verifies against the cold-rebuild oracle. The wall-clock form of the
    /// check runs in `experiments -- --grow churn`.
    #[test]
    fn grow_churn_has_no_rebuild_latency_cliff() {
        let scale = ExperimentScale {
            size_factor: 0.01, // 200 objects
            ..ExperimentScale::default()
        };
        let (rows, summary) = churn_experiment(&scale, 5, true, 1);
        assert!(summary.verified, "grown state diverged from a cold rebuild");
        assert_eq!(summary.growth_events, 5, "every --grow step must grow");
        let mut live = summary.initial_objects;
        let mut work: Vec<usize> = Vec::with_capacity(rows.len());
        for row in &rows {
            let s = &row.stats;
            assert_eq!(s.epoch, row.step as u64, "one epoch per step");
            assert!(s.domain_grown, "step {} did not grow", row.step);
            live = live + s.inserted - s.deleted;
            assert_eq!(
                s.objects_rederived, live,
                "step {} must re-derive the live set exactly once",
                row.step
            );
            assert_eq!(
                s.leaves_refined, s.total_leaves,
                "step {} must write the grown grid exactly once",
                row.step
            );
            work.push(s.objects_rederived + s.leaves_refined);
        }
        work.sort_unstable();
        let (median, max) = (work[work.len() / 2], work[work.len() - 1]);
        assert!(
            max <= 3 * median,
            "work cliff: heaviest step {max} vs median {median} (objects re-derived + leaves written)"
        );
    }
}
