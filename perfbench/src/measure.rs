//! Sample statistics, run-length control and process counters.

use std::time::Instant;

/// Nearest-rank percentile (`p` in `(0, 1]`) of unsorted samples; `0.0`
/// when there are none.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

pub fn mean(total: f64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

/// How long a serving phase runs. Untraced runs measure for a wall-clock
/// budget, extended (up to twice the budget) until the phase has the
/// samples its tail percentile needs. Traced runs repeat a fixed amount of
/// work, so their counts are identical from run to run.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    Time { seconds: f64, min_ops: usize },
    Ops(usize),
}

pub struct Phase {
    until: Until,
    start: Instant,
    done: usize,
}

impl Phase {
    pub fn new(until: Until) -> Self {
        Self {
            until,
            start: Instant::now(),
            done: 0,
        }
    }

    /// Whether the iteration just run is the phase's checkpoint: the last
    /// of a fixed amount of work, or the minimum a timed phase always runs.
    pub fn at_checkpoint(&self) -> bool {
        self.done
            == match self.until {
                Until::Ops(n) => n,
                Until::Time { min_ops, .. } => min_ops,
            }
    }

    /// Whether to run one more iteration (counting it).
    pub fn more(&mut self) -> bool {
        let go = match self.until {
            Until::Ops(n) => self.done < n,
            Until::Time { seconds, min_ops } => {
                let elapsed = self.start.elapsed().as_secs_f64();
                (elapsed < seconds || self.done < min_ops) && elapsed < 2.0 * seconds
            }
        };
        if go {
            self.done += 1;
        }
        go
    }
}

/// Run-length settings of one pass.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// `--seconds`.
    pub seconds: f64,
    /// Fixed amount of work (traced runs) instead of a time budget.
    pub fixed: bool,
}

impl Plan {
    /// Set-ups per pass: several for a steady median, one when traced.
    pub fn setups(&self) -> usize {
        if self.fixed {
            1
        } else {
            3
        }
    }

    /// The serving phase: the time budget with at least `min_ops`
    /// iterations, or `ops_per_second × seconds` iterations when fixed.
    pub fn phase(&self, min_ops: usize, ops_per_second: f64) -> Phase {
        Phase::new(if self.fixed {
            Until::Ops(((ops_per_second * self.seconds).round() as usize).max(1))
        } else {
            Until::Time {
                seconds: self.seconds,
                min_ops,
            }
        })
    }

    /// The snapshot-reload phase: repeated loads for a steady median.
    pub fn loads(&self) -> Phase {
        Phase::new(if self.fixed {
            Until::Ops(10)
        } else {
            Until::Time {
                seconds: 1.0,
                min_ops: 20,
            }
        })
    }
}

/// Operations attempted and rejected, for `failed_frac`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts one failed operation unless `ok`. The first few failures of a
    /// run are described on standard error, so a run that reports
    /// `"correct": false` also says which check rejected what.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            if self.failed <= DESCRIBED_FAILURES {
                eprintln!("perfbench: check failed: {}", what());
            }
        }
    }
}

/// Failures per run that [`Ops::check`] describes.
const DESCRIBED_FAILURES: u64 = 8;

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
