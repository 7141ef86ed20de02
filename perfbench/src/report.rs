//! Output: a readable report, a detail file beside the executable and, as
//! the last line of standard output, the one-line JSON result.

use crate::metrics::{END_TO_END, PER_LAYER, TAILS};
use crate::workloads::Pass;
use crate::Args;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// What every result records about where it was measured.
pub struct Machine {
    nproc: usize,
    rustc: &'static str,
    git_rev: String,
    source_digest: String,
}

impl Machine {
    pub fn detect() -> Self {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .unwrap_or(Path::new("."));
        Self {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: env!("PERFBENCH_RUSTC_VERSION"),
            git_rev: git_rev(root).unwrap_or_else(|| "none".to_string()),
            source_digest: source_digest(root),
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"rustc\": {}, \"git_rev\": {}, \"source_digest\": {}}}",
            self.nproc,
            json_str(self.rustc),
            json_str(&self.git_rev),
            json_str(&self.source_digest)
        )
    }
}

/// The commit checked out at `root`, read from `.git` directly; `None`
/// outside a git checkout.
fn git_rev(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    fs::read_to_string(git.join("packed-refs"))
        .ok()?
        .lines()
        .find_map(|l| {
            let (rev, name) = l.split_once(' ')?;
            (name == reference).then(|| rev.to_string())
        })
}

/// FNV-1a digest of the program's sources and manifests: identifies the
/// measured code where there is no git metadata.
fn source_digest(root: &Path) -> String {
    fn collect(path: &Path, out: &mut Vec<PathBuf>) {
        if path.is_dir() {
            for entry in fs::read_dir(path).into_iter().flatten().flatten() {
                collect(&entry.path(), out);
            }
        } else if path.is_file() {
            out.push(path.to_path_buf());
        }
    }
    let mut files = Vec::new();
    for top in ["Cargo.toml", "Cargo.lock", "crates", "shims"] {
        collect(&root.join(top), &mut files);
    }
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for file in files {
        let name = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .into_owned();
        let bytes = name
            .into_bytes()
            .into_iter()
            .chain(fs::read(&file).unwrap_or_default());
        for b in bytes {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values (which no metric should produce) as 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// `{"name": {"value": v, "unit": u}, ...}`, each with its sample count
/// when one is given.
fn metrics_json<'a>(rows: impl Iterator<Item = (&'a str, &'a str, f64, Option<usize>)>) -> String {
    let body: Vec<String> = rows
        .map(|(name, unit, value, samples)| {
            let samples = samples.map_or(String::new(), |n| format!(", \"samples\": {n}"));
            format!(
                "{}: {{\"value\": {}, \"unit\": {}{samples}}}",
                json_str(name),
                num(value),
                json_str(unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Prints the report of a run. A traced run passes the end-to-end values
/// of its untraced twin.
pub fn emit(args: &Args, pass: &Pass, twin: Option<&[f64; END_TO_END.len()]>) {
    let machine = Machine::detect();
    let ops = pass.ops;
    let correct = ops.failed == 0;
    let mode = mode(args);
    println!(
        "perfbench: workload={} seed={} seconds={} ({mode})",
        args.workload, args.seed, args.seconds
    );
    println!(
        "machine: nproc={} rustc=\"{}\" git_rev={} source_digest={}",
        machine.nproc, machine.rustc, machine.git_rev, machine.source_digest
    );
    let e2e = pass.e2e.values();
    println!("end-to-end:");
    for (m, (value, n)) in END_TO_END.iter().zip(&e2e) {
        println!("  {:<16} {:>16.4} {:<6} n={n}", m.name, value, m.unit);
    }
    println!(
        "  {:<16} {:>16.4} {:<6} ({} failed / {} attempted)",
        "failed_frac",
        ops.failed as f64 / ops.attempted.max(1) as f64,
        "ratio",
        ops.failed,
        ops.attempted
    );
    let tails = pass.e2e.tails();
    println!("latency tails (not gated):");
    for (m, (value, n)) in TAILS.iter().zip(&tails) {
        println!("  {:<16} {:>16.4} {:<6} n={n}", m.name, value, m.unit);
    }

    let e2e_rows = || {
        END_TO_END
            .iter()
            .zip(&e2e)
            .map(|(m, (v, n))| (m.name, m.unit, *v, Some(*n)))
    };
    let mut detail = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"mode\": {}, \"machine\": {}, \"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"end_to_end\": {}",
        json_str(&args.workload),
        args.seed,
        num(args.seconds),
        json_str(mode),
        machine.json(),
        ops.attempted,
        ops.failed,
        metrics_json(e2e_rows())
    );
    let tail_rows = TAILS
        .iter()
        .zip(&tails)
        .map(|(m, (v, n))| (m.name, m.unit, *v, Some(*n)));
    let _ = write!(detail, ", \"tails\": {}", metrics_json(tail_rows));
    let result = match twin {
        None => metrics_json(e2e_rows().map(|(n, u, v, _)| (n, u, v, None))),
        Some(twin) => {
            let layers = &pass.layers;
            println!("per-layer:");
            for m in &PER_LAYER {
                println!("  {:<36} {:>16.6} {}", m.name, layers.get(m.name), m.unit);
            }
            let rows = || {
                PER_LAYER
                    .iter()
                    .map(|m| (m.name, m.unit, layers.get(m.name), None))
            };
            let twin_rows = END_TO_END
                .iter()
                .zip(twin)
                .map(|(m, v)| (m.name, m.unit, *v, None));
            let span_totals: Vec<String> = pass
                .tracer
                .totals()
                .iter()
                .map(|(name, t)| {
                    format!(
                        "{}: {{\"count\": {}, \"seconds\": {}, \"self_seconds\": {}}}",
                        json_str(name),
                        t.count,
                        num(t.seconds),
                        num(t.self_seconds)
                    )
                })
                .collect();
            let _ = write!(
                detail,
                ", \"untraced_twin_end_to_end\": {}, \"per_layer\": {}, \"counts\": {}, \"span_totals\": {{{}}}, \"spans\": {}",
                metrics_json(twin_rows),
                metrics_json(rows()),
                metrics_json(rows().filter(|(name, ..)| {
                    PER_LAYER.iter().any(|m| m.name == *name && !m.timing)
                })),
                span_totals.join(", "),
                pass.tracer.spans_json()
            );
            metrics_json(rows())
        }
    };
    detail.push_str("}\n");
    if let Some(path) = detail_path(args) {
        match fs::write(&path, detail) {
            Ok(()) => println!("detail: {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {result}}}",
        ops.attempted, ops.failed
    );
}

/// The detail file sits beside the executable, inside the build directory.
fn detail_path(args: &Args) -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    Some(exe.parent()?.join(format!(
        "perfbench-{}-seed{}-{}.json",
        args.workload,
        args.seed,
        mode(args)
    )))
}

/// `untraced`, `traced`, or `twin` for the untraced twin of a traced run.
fn mode(args: &Args) -> &'static str {
    match (args.trace, args.fixed) {
        (true, _) => "traced",
        (false, true) => "twin",
        (false, false) => "untraced",
    }
}
