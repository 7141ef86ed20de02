//! The repository benchmark: three closed-loop workloads driven through the
//! public API of `uv-core`, measured end to end (untraced runs) and per
//! layer (traced runs).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <pnn_static|churn_rw|fleet_sharded> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is the JSON result. See
//! `perfbench/README.md` for the workloads, metrics and layer map.

mod inputs;
mod measure;
mod metrics;
mod report;
mod trace;
mod workloads;

use measure::Plan;
use metrics::{metric_value, END_TO_END};
use std::process::{Command, Stdio};
use trace::Tracer;

const USAGE: &str = "usage: perfbench --workload <pnn_static|churn_rw|fleet_sharded> \
                     --seed <u64> --seconds <s> --trace <0|1>";

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Run the traced run's fixed amount of work (`--fixed 1`); traced runs
    /// start their untraced twin with it.
    pub fixed: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut fixed = false;
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
                "--trace" | "--fixed" => {
                    let on = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    };
                    if flag == "--trace" {
                        trace = Some(on);
                    } else {
                        fixed = on;
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let seconds = seconds.ok_or("missing --seconds")?;
        if !(seconds > 0.0 && seconds <= 60.0) {
            return Err(format!("--seconds must be in (0, 60], got {seconds}"));
        }
        Ok(Self {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds,
            trace: trace.ok_or("missing --trace")?,
            fixed,
        })
    }
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let Some(run) = workloads::lookup(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {:?} (one of {})\n{USAGE}",
            args.workload,
            workloads::NAMES.join(", ")
        );
        std::process::exit(2);
    };
    let plan = Plan {
        seconds: args.seconds,
        fixed: args.fixed || args.trace,
    };
    let result = if args.trace {
        untraced_twin(&args).and_then(|twin| {
            let mut traced = run(args.seed, plan, Tracer::new(true))?;
            traced.record_overhead(&twin);
            Ok((traced, Some(twin)))
        })
    } else {
        run(args.seed, plan, Tracer::new(false)).map(|pass| (pass, None))
    };
    match result {
        Ok((pass, twin)) => report::emit(&args, &pass, twin.as_ref()),
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    }
}

/// Runs the traced run's fixed amount of work untraced, in a fresh process
/// so that its peak RSS is its own, and returns its end-to-end values.
fn untraced_twin(args: &Args) -> Result<[f64; END_TO_END.len()], String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let (seed, seconds) = (args.seed.to_string(), args.seconds.to_string());
    let out = Command::new(exe)
        .args([
            "--workload",
            &args.workload,
            "--seed",
            &seed,
            "--seconds",
            &seconds,
        ])
        .args(["--trace", "0", "--fixed", "1"])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the untraced twin: {e}"))?;
    if !out.status.success() {
        return Err(format!("untraced twin failed: {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let result = stdout.lines().last().unwrap_or_default();
    let mut values = [0.0; END_TO_END.len()];
    for (value, metric) in values.iter_mut().zip(&END_TO_END) {
        *value = metric_value(result, metric.name)
            .ok_or_else(|| format!("untraced twin did not report {}", metric.name))?;
    }
    Ok(values)
}
