//! Regenerates the evaluation of the UV-diagram paper (Section VI).
//!
//! ```text
//! cargo run --release -p uv-bench --bin experiments -- all
//! cargo run --release -p uv-bench --bin experiments -- fig6a fig6b
//! cargo run --release -p uv-bench --bin experiments -- --scale 0.1 --queries 50 fig7a
//! cargo run --release -p uv-bench --bin experiments -- --json churn snapshot
//! cargo run --release -p uv-bench --bin experiments -- --grow churn
//! cargo run --release -p uv-bench --bin experiments -- --reshard shard
//! ```
//!
//! Available experiment ids: `fig6a fig6b fig6c fig6d tab2 fig7a fig7b fig7c
//! fig7d fig7e fig7f fig7g fig7h sens_theta sens_memory throughput churn
//! snapshot shard subscribe all`.
//!
//! `--scale` multiplies the paper's dataset cardinalities (default 0.05, i.e.
//! 500–4,000 objects instead of 10K–80K); `--queries` sets the number of PNN
//! queries per measurement (default 50, as in the paper); `--json` replaces
//! the tables with one stable-schema JSON document (see `uv_bench::json`)
//! suitable for committing as `BENCH_*.json` and diffing across PRs;
//! `--grow` makes every churn step insert past the current boundary, so the
//! churn table doubles as a domain-growth latency profile (no step may cost
//! a rebuild-style cliff; each step is timed as the median of three runs of
//! the same seeded sequence); `--reshard` makes the shard experiment run an
//! elastic hot-split + cold-merge cycle per grid, re-verifying bit-identity
//! after each step and snapshotting the resulting non-uniform layout.

use std::collections::BTreeSet;
use uv_bench::json::JsonExperiment;
use uv_bench::{
    churn, fig6, fig7, json, print_table, sensitivity, shard, snapshot, subscribe, table2,
    throughput, ExperimentScale,
};

const ALL: &[&str] = &[
    "fig6a",
    "fig6b",
    "fig6c",
    "fig6d",
    "tab2",
    "fig7a",
    "fig7b",
    "fig7c",
    "fig7d",
    "fig7e",
    "fig7f",
    "fig7g",
    "fig7h",
    "sens_theta",
    "sens_memory",
    "throughput",
    "churn",
    "snapshot",
    "shard",
    "subscribe",
];

/// Routes every experiment's rows either to the human-readable table
/// printer or into the collected JSON document.
struct Output {
    json: bool,
    collected: Vec<JsonExperiment>,
}

impl Output {
    fn table(&mut self, id: &str, title: &str, header: &[&str], rows: Vec<Vec<String>>) {
        if self.json {
            self.collected.push(JsonExperiment {
                id: id.to_string(),
                title: title.to_string(),
                columns: header.iter().map(|h| h.to_string()).collect(),
                rows,
            });
        } else {
            print_table(title, header, &rows);
        }
    }
}

fn main() {
    let mut scale = ExperimentScale::default();
    let mut requested: BTreeSet<String> = BTreeSet::new();
    let mut as_json = false;
    let mut grow_churn = false;
    let mut reshard_shard = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                let v = args.next().expect("--scale needs a value");
                scale.size_factor = v.parse().expect("--scale must be a number");
            }
            "--queries" => {
                let v = args.next().expect("--queries needs a value");
                scale.queries = v.parse().expect("--queries must be an integer");
            }
            "--basic-cap" => {
                let v = args.next().expect("--basic-cap needs a value");
                scale.basic_cap = v.parse().expect("--basic-cap must be an integer");
            }
            "--json" => {
                as_json = true;
            }
            "--grow" => {
                grow_churn = true;
            }
            "--reshard" => {
                reshard_shard = true;
            }
            "--help" | "-h" => {
                println!("Regenerates the evaluation of the UV-diagram paper (Section VI).");
                println!();
                println!(
                    "usage: experiments [--scale F] [--queries N] [--basic-cap N] [--json] [--grow] [--reshard] <ids|all>"
                );
                println!();
                println!(
                    "  --scale F      multiply the paper's dataset cardinalities (default 0.05)"
                );
                println!("  --queries N    PNN queries per measurement (default 50)");
                println!(
                    "  --basic-cap N  largest dataset the Basic method is run on (it is O(n^3))"
                );
                println!("  --json         emit one stable-schema JSON document instead of tables");
                println!("  --grow         every churn step also inserts past the current domain,");
                println!(
                    "                 profiling in-place domain growth (no rebuild-latency cliff)"
                );
                println!("  --reshard      the shard experiment runs a hot-split + cold-merge");
                println!(
                    "                 elastic reshard cycle, bit-identity re-verified each step"
                );
                println!();
                println!("ids: {}", ALL.join(" "));
                println!("With no ids, every experiment runs (same as `all`).");
                return;
            }
            "all" => {
                requested.extend(ALL.iter().map(|s| s.to_string()));
            }
            id if ALL.contains(&id) => {
                requested.insert(id.to_string());
            }
            other => {
                eprintln!("unknown argument `{other}`");
                eprintln!(
                    "usage: experiments [--scale F] [--queries N] [--basic-cap N] [--json] [--grow] [--reshard] <ids|all>"
                );
                eprintln!("ids: {}", ALL.join(" "));
                std::process::exit(2);
            }
        }
    }
    if requested.is_empty() {
        requested.extend(ALL.iter().map(|s| s.to_string()));
    }

    if !as_json {
        println!(
            "UV-diagram experiments — scale factor {}, {} queries per measurement",
            scale.size_factor, scale.queries
        );
        println!(
            "(paper sizes 10K-80K are scaled to {}-{} objects; absolute numbers differ from the paper,",
            scale.scaled(10_000),
            scale.scaled(80_000)
        );
        println!(" the comparisons and trends are what is being reproduced)");
    }

    let wants = |id: &str| requested.contains(id);
    let mut out = Output {
        json: as_json,
        collected: Vec::new(),
    };

    // Figure 6(a)-(c) share one dataset-size sweep.
    if wants("fig6a") || wants("fig6b") || wants("fig6c") {
        let sweep = fig6::size_sweep(&scale);
        if wants("fig6a") {
            out.table(
                "fig6a",
                "Figure 6(a): PNN query time vs |O|",
                &[
                    "|O|",
                    "Tq R-tree (ms, CPU)",
                    "Tq UV-diagram (ms, CPU)",
                    "Tq R-tree (ms, disk-adjusted)",
                    "Tq UV-diagram (ms, disk-adjusted)",
                    "speedup (disk-adjusted)",
                ],
                fig6::fig6a_rows(&sweep),
            );
        }
        if wants("fig6b") {
            out.table(
                "fig6b",
                "Figure 6(b): PNN leaf-page I/O vs |O|",
                &["|O|", "I/O R-tree", "I/O UV-diagram", "ratio"],
                fig6::fig6b_rows(&sweep),
            );
        }
        if wants("fig6c") {
            out.table(
                "fig6c",
                "Figure 6(c): query-time breakdown",
                &[
                    "index",
                    "traversal (ms)",
                    "object retrieval (ms)",
                    "probability (ms)",
                ],
                fig6::fig6c_rows(&sweep),
            );
        }
    }
    if wants("fig6d") {
        let sweep = fig6::uncertainty_sweep(&scale);
        out.table(
            "fig6d",
            "Figure 6(d): query time vs uncertainty-region size",
            &[
                "diameter",
                "Tq R-tree (ms, CPU)",
                "Tq UV-diagram (ms, CPU)",
                "Tq R-tree (ms, disk-adjusted)",
                "Tq UV-diagram (ms, disk-adjusted)",
            ],
            fig6::fig6d_rows(&sweep),
        );
    }
    if wants("tab2") {
        let rows = table2::table2(&scale);
        out.table(
            "tab2",
            "Table II: Germany-like datasets",
            &[
                "dataset",
                "|O|",
                "Tq UVD (ms, disk-adjusted)",
                "Tq R-tree (ms, disk-adjusted)",
                "Tc IC (s)",
                "pc",
            ],
            table2::table2_rows(&rows),
        );
    }

    // Figure 7(a)-(e) share one construction sweep.
    if wants("fig7a") || wants("fig7b") || wants("fig7c") || wants("fig7d") || wants("fig7e") {
        let sweep = fig7::construction_sweep(&scale);
        if wants("fig7a") {
            out.table(
                "fig7a",
                "Figure 7(a): construction time vs |O|",
                &["|O|", "Basic (s)", "ICR (s)", "IC (s)"],
                fig7::fig7a_rows(&sweep),
            );
        }
        if wants("fig7b") {
            out.table(
                "fig7b",
                "Figure 7(b): pruning ratio vs |O|",
                &["|O|", "I-pruning", "C-pruning"],
                fig7::fig7b_rows(&sweep),
            );
        }
        if wants("fig7c") {
            out.table(
                "fig7c",
                "Figure 7(c): construction time, IC vs ICR",
                &["|O|", "ICR (s)", "IC (s)", "ICR/IC"],
                fig7::fig7c_rows(&sweep),
            );
        }
        if wants("fig7d") {
            out.table(
                "fig7d",
                "Figure 7(d): ICR time breakdown",
                &["|O|", "I+C pruning", "r-object generation", "indexing"],
                fig7::fig7d_rows(&sweep),
            );
        }
        if wants("fig7e") {
            out.table(
                "fig7e",
                "Figure 7(e): IC time breakdown",
                &["|O|", "I+C pruning", "indexing"],
                fig7::fig7e_rows(&sweep),
            );
        }
    }
    if wants("fig7f") {
        out.table(
            "fig7f",
            "Figure 7(f): construction time vs uncertainty-region size",
            &["diameter", "ICR (s)", "IC (s)"],
            fig7::fig7f_rows(&scale),
        );
    }
    if wants("fig7g") {
        out.table(
            "fig7g",
            "Figure 7(g): construction time vs skew (sigma of centres)",
            &["sigma", "Tc IC (s)", "avg cr-objects"],
            fig7::fig7g_rows(&scale),
        );
    }
    if wants("fig7h") {
        out.table(
            "fig7h",
            "Figure 7(h): UV-partition query vs query-region size",
            &["region side", "Tq (ms)", "partitions returned"],
            fig7::fig7h_rows(&scale),
        );
    }
    if wants("sens_theta") {
        let rows = sensitivity::theta_sweep(&scale);
        out.table(
            "sens_theta",
            "Sensitivity: split threshold T_theta",
            &[
                "T_theta",
                "non-leaf nodes",
                "leaf nodes",
                "leaf pages",
                "Tq (ms)",
                "Tq (I/O)",
            ],
            sensitivity::theta_rows(&rows),
        );
    }
    if wants("sens_memory") {
        out.table(
            "sens_memory",
            "Ablation: non-leaf memory budget M",
            &["M", "non-leaf nodes", "Tq (I/O)", "Tq (ms)"],
            sensitivity::memory_budget_sweep(&scale),
        );
    }
    if wants("throughput") {
        let (dataset, system) = throughput::build_throughput_system(&scale);
        let rows = throughput::throughput_sweep(&scale, &dataset, &system);
        out.table(
            "throughput",
            "Serving throughput: sequential vs concurrent batched PNN",
            &[
                "mode",
                "workers",
                "cores",
                "batch wall (ms)",
                "queries/s",
                "speedup",
            ],
            throughput::throughput_table(&rows),
        );
        let summary = throughput::trajectory_workload(&scale, &dataset, &system);
        out.table(
            "throughput_trajectory",
            "Trajectory (moving-PNN) workload",
            &[
                "vehicles",
                "steps each",
                "avg answers",
                "avg churn/step",
                "unchanged steps",
                "queries/s",
            ],
            throughput::trajectory_table(&summary),
        );
    }
    // Oracle failures (a maintained or loaded state diverging from a cold
    // rebuild) must fail the process, not just print "NO" — the CI smokes
    // rely on the exit code.
    let mut verification_failed = false;
    if wants("churn") {
        // A --grow run judges wall-clock latency, so each step is timed as
        // the median of three runs of the same seeded sequence.
        let trials = if grow_churn { 3 } else { 1 };
        let (rows, summary) = churn::churn_experiment(&scale, 5, grow_churn, trials);
        verification_failed |= !summary.verified;
        if grow_churn {
            // Every --grow step triggers an in-place domain growth; a step
            // costing a rebuild-style cliff (max far beyond the median)
            // would mean the old full-rebuild fallback is back in disguise.
            let mut times: Vec<f64> = rows.iter().map(|r| r.apply_ms).collect();
            times.sort_by(f64::total_cmp);
            let median = times[times.len() / 2];
            let max = times[times.len() - 1];
            let cliff = max > median * 3.0 + 5.0;
            verification_failed |= cliff;
            if !as_json {
                println!(
                    "domain growth latency: {} growth steps, max {max:.1} ms vs median {median:.1} ms — {}",
                    summary.growth_events,
                    if cliff {
                        "REBUILD-STYLE CLIFF"
                    } else {
                        "no rebuild-latency cliff"
                    }
                );
            }
        }
        out.table(
            "churn",
            if grow_churn {
                "Dynamic maintenance: churn steps with in-place domain growth"
            } else {
                "Dynamic maintenance: 1% churn steps (incremental repair locality)"
            },
            &[
                "step",
                "ops (i/d/m)",
                "in knn radius",
                "re-derived",
                "leaves refined",
                "total leaves",
                "refined %",
                "splits/merges",
                "apply (ms)",
            ],
            churn::churn_rows(&rows),
        );
        out.table(
            "churn_summary",
            "Churn summary (final state verified against a cold rebuild)",
            &[
                "|O|",
                "ops/step",
                "avg refined %",
                "incremental total (ms)",
                "one full rebuild (ms)",
                "growths",
                "verified",
            ],
            churn::churn_summary_row(&summary),
        );
    }
    if wants("snapshot") {
        let report = snapshot::snapshot_experiment(&scale);
        verification_failed |= !report.verified;
        out.table(
            "snapshot",
            "Snapshot persistence: build once, load many",
            &[
                "|O|",
                "build (ms)",
                "save (ms)",
                "load (ms)",
                "bytes",
                "v1 bytes saved",
                "load speedup",
                "verified",
            ],
            snapshot::snapshot_rows(&report),
        );
    }

    if wants("shard") {
        let reports = shard::shard_experiment(&scale, reshard_shard);
        verification_failed |= reports.iter().any(|r| !r.verified);
        out.table(
            "shard",
            "Domain-sharded serving: derivation-only router, halo replication, elastic resharding",
            &[
                "grid",
                "|O|",
                "unsharded build (ms)",
                "sharded build (ms)",
                "shards seq (ms)",
                "shards par (ms)",
                "par speedup",
                "halo overhead",
                "snapshot bytes",
                "router bytes",
                "router-incl bytes",
                "mem win",
                "loads",
                "reshard",
                "shard derivations",
                "verified",
            ],
            shard::shard_rows(&reports),
        );
    }

    if wants("subscribe") {
        let report = subscribe::subscribe_experiment(&scale);
        verification_failed |= !report.verified;
        out.table(
            "subscribe",
            "Continuous PNN subscriptions: safe-region serving for a moving fleet",
            &[
                "|O|",
                "clients",
                "ticks",
                "hit rate",
                "derivations",
                "clearance reuses",
                "deltas",
                "stationary reads",
                "reports/s",
                "clients/core @10Hz",
                "verified",
            ],
            subscribe::subscribe_rows(&report),
        );
    }

    if as_json {
        println!(
            "{}",
            json::render(scale.size_factor, scale.queries, &out.collected)
        );
    }
    if verification_failed {
        eprintln!("verification FAILED: a maintained/loaded state diverged from its oracle");
        std::process::exit(1);
    }
}
