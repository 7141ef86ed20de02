//! Spans around the calls the benchmark makes into each layer.
//!
//! Every call is timed whether or not tracing is on (the end-to-end metrics
//! need the durations); with tracing on, each call also leaves a span with
//! its name, start, end, parent (the round span it ran in) and request id
//! (round, op index). Spans stay in memory until the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing round span.
    pub parent: Option<usize>,
    /// Round number; 0 is set-up and tear-down, outside any round.
    pub round: u32,
    /// Op index within the round.
    pub op: u32,
}

impl Span {
    fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Totals of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    pub count: u64,
    pub seconds: f64,
    /// Duration minus the time covered by child spans.
    pub self_seconds: f64,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open_round: Option<usize>,
    round: u32,
    op: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open_round: None,
            round: 0,
            op: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens the next round; calls until [`Tracer::end_round`] are its
    /// children.
    pub fn begin_round(&mut self) {
        self.end_round();
        self.round += 1;
        self.op = 0;
        if self.enabled {
            let now = self.now_ns();
            self.open_round = Some(self.spans.len());
            self.spans.push(Span {
                name: "round",
                start_ns: now,
                end_ns: now,
                parent: None,
                round: self.round,
                op: 0,
            });
        }
    }

    pub fn end_round(&mut self) {
        if let Some(idx) = self.open_round.take() {
            self.spans[idx].end_ns = self.now_ns();
        }
        self.op = 0;
    }

    /// Leaves the current round: later calls are set-up or tear-down.
    pub fn end_rounds(&mut self) {
        self.end_round();
        self.round = 0;
    }

    /// Runs `f`, returning its result and wall time in seconds; with tracing
    /// on, records a span named `name`.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        if self.enabled {
            let base = self.origin;
            self.spans.push(Span {
                name,
                start_ns: start.duration_since(base).as_nanos() as u64,
                end_ns: end.duration_since(base).as_nanos() as u64,
                parent: self.open_round,
                round: self.round,
                op: self.op,
            });
        }
        self.op += 1;
        (out, end.duration_since(start).as_secs_f64())
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut covered = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent] += span.seconds();
            }
        }
        let mut totals: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(covered) {
            let t = totals.entry(span.name).or_default();
            t.count += 1;
            t.seconds += span.seconds();
            t.self_seconds += span.seconds() - covered;
        }
        totals
    }

    /// The spans as a JSON array.
    pub fn spans_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": [{}, {}]}}",
                s.name, s.start_ns, s.end_ns, s.round, s.op
            );
        }
        out.push_str("\n]");
        out
    }
}
