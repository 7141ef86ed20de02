//! Figure 7: UV-diagram construction analysis.
//!
//! * 7(a) — construction time `T_c` of Basic, ICR and IC vs. `|O|`.
//! * 7(b) — pruning ratio of I- and C-pruning vs. `|O|`.
//! * 7(c) — `T_c` of IC vs. ICR.
//! * 7(d) — time breakdown of ICR (pruning / r-object generation / indexing).
//! * 7(e) — time breakdown of IC (pruning / indexing).
//! * 7(f) — `T_c` vs. uncertainty-region size (IC vs. ICR).
//! * 7(g) — `T_c` vs. skew (standard deviation of object centres).
//! * 7(h) — UV-partition query time vs. query-region size.

use crate::workload::{build_system, ExperimentScale};
use std::time::{Duration, Instant};
use uv_core::{ConstructionStats, Method, UvConfig, UvSystem};
use uv_data::{Dataset, GeneratorConfig};
use uv_geom::Rect;

/// Construction statistics of every method at one dataset size.
#[derive(Debug, Clone)]
pub struct ConstructionRow {
    pub objects: usize,
    /// `None` when the size exceeds the Basic cap of the experiment scale.
    pub basic: Option<ConstructionStats>,
    pub icr: ConstructionStats,
    pub ic: ConstructionStats,
}

fn build_stats(n: usize, method: Method) -> ConstructionStats {
    let (_, system) = build_system(
        GeneratorConfig::paper_uniform(n),
        method,
        UvConfig::default(),
    );
    system.construction_stats().clone()
}

/// Runs the construction sweep shared by Figures 7(a)–7(e).
pub fn construction_sweep(scale: &ExperimentScale) -> Vec<ConstructionRow> {
    scale
        .size_sweep()
        .into_iter()
        .map(|n| ConstructionRow {
            objects: n,
            basic: (n <= scale.basic_cap).then(|| build_stats(n, Method::Basic)),
            icr: build_stats(n, Method::ICR),
            ic: build_stats(n, Method::IC),
        })
        .collect()
}

fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Figure 7(a): `T_c` of the three methods vs. `|O|`.
pub fn fig7a_rows(sweep: &[ConstructionRow]) -> Vec<Vec<String>> {
    sweep
        .iter()
        .map(|r| {
            vec![
                r.objects.to_string(),
                r.basic
                    .as_ref()
                    .map(|s| secs(s.total))
                    .unwrap_or_else(|| "skipped (> basic cap)".to_string()),
                secs(r.icr.total),
                secs(r.ic.total),
            ]
        })
        .collect()
}

/// Figure 7(b): pruning ratios vs. `|O|` (measured on the IC build).
pub fn fig7b_rows(sweep: &[ConstructionRow]) -> Vec<Vec<String>> {
    sweep
        .iter()
        .map(|r| {
            vec![
                r.objects.to_string(),
                format!("{:.1}%", r.ic.avg_i_ratio * 100.0),
                format!("{:.1}%", r.ic.avg_c_ratio * 100.0),
            ]
        })
        .collect()
}

/// Figure 7(c): `T_c` of IC vs. ICR.
pub fn fig7c_rows(sweep: &[ConstructionRow]) -> Vec<Vec<String>> {
    sweep
        .iter()
        .map(|r| {
            vec![
                r.objects.to_string(),
                secs(r.icr.total),
                secs(r.ic.total),
                format!(
                    "{:.2}x",
                    r.icr.total.as_secs_f64() / r.ic.total.as_secs_f64().max(1e-9)
                ),
            ]
        })
        .collect()
}

/// Figure 7(d): ICR time breakdown (fractions of the accounted time).
pub fn fig7d_rows(sweep: &[ConstructionRow]) -> Vec<Vec<String>> {
    sweep
        .iter()
        .map(|r| {
            vec![
                r.objects.to_string(),
                format!("{:.1}%", r.icr.pruning_fraction() * 100.0),
                format!("{:.1}%", r.icr.refinement_fraction() * 100.0),
                format!("{:.1}%", r.icr.indexing_fraction() * 100.0),
            ]
        })
        .collect()
}

/// Figure 7(e): IC time breakdown.
pub fn fig7e_rows(sweep: &[ConstructionRow]) -> Vec<Vec<String>> {
    sweep
        .iter()
        .map(|r| {
            vec![
                r.objects.to_string(),
                format!("{:.1}%", r.ic.pruning_fraction() * 100.0),
                format!("{:.1}%", r.ic.indexing_fraction() * 100.0),
            ]
        })
        .collect()
}

/// Figure 7(f): `T_c` of IC and ICR vs. uncertainty-region diameter at the
/// paper's base cardinality (30K, scaled).
pub fn fig7f_rows(scale: &ExperimentScale) -> Vec<Vec<String>> {
    let n = scale.scaled(30_000);
    scale
        .diameter_sweep()
        .into_iter()
        .map(|diameter| {
            let config = GeneratorConfig::paper_uniform(n).with_diameter(diameter);
            let (_, icr) = build_system(config.clone(), Method::ICR, UvConfig::default());
            let (_, ic) = build_system(config, Method::IC, UvConfig::default());
            vec![
                format!("{diameter:.0}"),
                secs(icr.construction_stats().total),
                secs(ic.construction_stats().total),
            ]
        })
        .collect()
}

/// Figure 7(g): `T_c` (IC) vs. the standard deviation of the object centres.
/// Smaller sigma = more skew = denser data = higher construction cost.
pub fn fig7g_rows(scale: &ExperimentScale) -> Vec<Vec<String>> {
    let n = scale.scaled(30_000);
    scale
        .sigma_sweep()
        .into_iter()
        .map(|sigma| {
            let (_, system) = build_system(
                GeneratorConfig::paper_skewed(n, sigma),
                Method::IC,
                UvConfig::default(),
            );
            vec![
                format!("{sigma:.0}"),
                secs(system.construction_stats().total),
                format!("{:.1}", system.construction_stats().avg_reference_objects),
            ]
        })
        .collect()
}

/// Figure 7(h): UV-partition query time vs. query-region size.
pub fn fig7h_rows(scale: &ExperimentScale) -> Vec<Vec<String>> {
    let n = scale.scaled(30_000);
    let (dataset, system) = build_system(
        GeneratorConfig::paper_uniform(n),
        Method::IC,
        UvConfig::default(),
    );
    scale
        .query_region_sweep()
        .into_iter()
        .map(|side| {
            let (time, partitions) =
                measure_partition_query(&system, &dataset, side, scale.queries);
            vec![
                format!("{side:.0}"),
                format!("{:.3}", time.as_secs_f64() * 1e3),
                format!("{partitions:.1}"),
            ]
        })
        .collect()
}

/// Average UV-partition query time and result size for query squares of the
/// given side length, placed at workload query points.
pub fn measure_partition_query(
    system: &UvSystem,
    dataset: &Dataset,
    side: f64,
    queries: usize,
) -> (Duration, f64) {
    let centres = dataset.query_points(queries, 31);
    let mut total = Duration::ZERO;
    let mut partitions = 0usize;
    for c in &centres {
        let region = Rect::new(
            c.x - side / 2.0,
            c.y - side / 2.0,
            c.x + side / 2.0,
            c.y + side / 2.0,
        );
        let t = Instant::now();
        let cells = system.partition_query(&region);
        total += t.elapsed();
        partitions += cells.len();
    }
    (
        total / centres.len().max(1) as u32,
        partitions as f64 / centres.len().max(1) as f64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scale() -> ExperimentScale {
        ExperimentScale {
            size_factor: 0.002,
            queries: 3,
            basic_cap: 60,
        }
    }

    #[test]
    fn construction_sweep_has_all_methods_and_respects_basic_cap() {
        let scale = tiny_scale();
        let sweep = construction_sweep(&scale);
        assert_eq!(sweep.len(), 8);
        // The smallest size (50) is under the cap, the largest (160) is over.
        assert!(sweep[0].basic.is_some());
        assert!(sweep.last().unwrap().basic.is_none());
        assert_eq!(fig7a_rows(&sweep).len(), 8);
        assert_eq!(fig7b_rows(&sweep).len(), 8);
        assert_eq!(fig7c_rows(&sweep).len(), 8);
        assert_eq!(fig7d_rows(&sweep)[0].len(), 4);
        assert_eq!(fig7e_rows(&sweep)[0].len(), 3);
        // ICR refines each cr set down to the exact r-objects, so it keeps
        // at most IC's references; IC spends no time on refinement.
        assert!(
            sweep[0].icr.avg_reference_objects <= sweep[0].ic.avg_reference_objects,
            "ICR {} vs IC {} references",
            sweep[0].icr.avg_reference_objects,
            sweep[0].ic.avg_reference_objects
        );
        assert_eq!(sweep[0].ic.refinement_time, Duration::ZERO);
    }

    #[test]
    fn remaining_figure_rows_have_expected_shapes() {
        let scale = tiny_scale();
        assert_eq!(fig7f_rows(&scale).len(), 5);
        assert_eq!(fig7g_rows(&scale).len(), 5);
        let h = fig7h_rows(&scale);
        assert_eq!(h.len(), 5);
        // Larger query regions intersect at least as many partitions.
        let first: f64 = h[0][2].parse().unwrap();
        let last: f64 = h[4][2].parse().unwrap();
        assert!(last >= first);
    }
}
