//! Atomic I/O counters shared by every page-backed structure.

use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonically increasing counters of page reads and writes, plus the
/// pages freed for reuse (which are no I/O).
///
/// Counters are updated with relaxed atomics: the experiments only need
/// totals observed after the measured operation has completed on the same
/// thread (or after joining worker threads), never cross-thread ordering.
#[derive(Debug, Default)]
pub struct IoCounters {
    reads: AtomicU64,
    writes: AtomicU64,
    frees: AtomicU64,
}

/// A point-in-time copy of the counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IoSnapshot {
    pub reads: u64,
    pub writes: u64,
    /// Pages freed for reuse — not I/O, so not part of [`IoSnapshot::total`].
    pub frees: u64,
}

impl IoSnapshot {
    /// Difference `self - earlier`, saturating at zero (useful when the
    /// counters were reset in between).
    pub fn since(&self, earlier: IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            reads: self.reads.saturating_sub(earlier.reads),
            writes: self.writes.saturating_sub(earlier.writes),
            frees: self.frees.saturating_sub(earlier.frees),
        }
    }

    /// Total number of I/O operations.
    pub fn total(&self) -> u64 {
        self.reads + self.writes
    }
}

impl IoCounters {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn record_read(&self) {
        self.reads.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn record_write(&self) {
        self.writes.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn record_free(&self) {
        self.frees.fetch_add(1, Ordering::Relaxed);
    }

    /// Current totals.
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            frees: self.frees.load(Ordering::Relaxed),
        }
    }

    /// Resets every counter to zero (used between experiment repetitions).
    pub fn reset(&self) {
        self.reads.store(0, Ordering::Relaxed);
        self.writes.store(0, Ordering::Relaxed);
        self.frees.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counts_reads_and_writes() {
        let c = IoCounters::new();
        c.record_read();
        c.record_read();
        c.record_write();
        c.record_free();
        let s = c.snapshot();
        assert_eq!(s.reads, 2);
        assert_eq!(s.writes, 1);
        assert_eq!(s.frees, 1);
        assert_eq!(s.total(), 3);
    }

    #[test]
    fn reset_clears_counts() {
        let c = IoCounters::new();
        c.record_read();
        c.reset();
        assert_eq!(c.snapshot(), IoSnapshot::default());
    }

    #[test]
    fn since_computes_deltas() {
        let c = IoCounters::new();
        c.record_read();
        let before = c.snapshot();
        c.record_read();
        c.record_write();
        let after = c.snapshot();
        let delta = after.since(before);
        assert_eq!(delta.reads, 1);
        assert_eq!(delta.writes, 1);
        // Saturating behaviour after a reset.
        c.reset();
        let post_reset = c.snapshot().since(after);
        assert_eq!(post_reset, IoSnapshot::default());
    }

    #[test]
    fn concurrent_updates_are_not_lost() {
        let c = Arc::new(IoCounters::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    c.record_read();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.snapshot().reads, 8000);
    }
}
