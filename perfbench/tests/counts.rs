//! The machine-independent half of the benchmark: at a fixed seed and run
//! length, every per-layer count of a traced run repeats exactly, and a
//! different seed moves them. No timing is asserted.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

#[allow(dead_code)]
#[path = "../src/metrics.rs"]
mod metrics;

use metrics::{metric_value, END_TO_END, PER_LAYER};
use std::process::Command;

/// Runs one traced pass and returns its result line.
fn traced(workload: &str, seed: u64) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", "1"])
        .output()
        .expect("the benchmark starts");
    assert!(
        out.status.success(),
        "{workload} seed {seed}: {}",
        out.status
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    stdout.lines().last().expect("a result line").to_string()
}

/// `(name, value)` of every per-layer count.
fn counts(result: &str) -> Vec<(&'static str, f64)> {
    assert!(result.contains("\"correct\": true"), "{result}");
    PER_LAYER
        .iter()
        .filter(|m| !m.timing)
        .map(|m| {
            let v = metric_value(result, m.name).unwrap_or_else(|| panic!("{} missing", m.name));
            (m.name, v)
        })
        .collect()
}

fn counts_repeat_and_move_with_the_seed(workload: &str) {
    let first = counts(&traced(workload, 11));
    assert_eq!(first, counts(&traced(workload, 11)), "{workload}");
    assert_ne!(first, counts(&traced(workload, 12)), "{workload}");
}

#[test]
fn pnn_static_counts_are_deterministic() {
    counts_repeat_and_move_with_the_seed("pnn_static");
}

#[test]
fn churn_rw_counts_are_deterministic() {
    counts_repeat_and_move_with_the_seed("churn_rw");
}

#[test]
fn fleet_sharded_counts_are_deterministic() {
    counts_repeat_and_move_with_the_seed("fleet_sharded");
}

#[test]
fn benchmark_json_lists_every_metric() {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    for m in END_TO_END.iter().chain(&PER_LAYER) {
        let entry = format!("{{\"name\": \"{}\", \"unit\": \"{}\",", m.name, m.unit);
        assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(
        spec.matches("\"better\":").count(),
        END_TO_END.len() + PER_LAYER.len(),
        "BENCHMARK.json lists metrics the benchmark does not report"
    );
}
