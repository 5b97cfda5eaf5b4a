//! The benchmark's own tracer: spans recorded around the benchmark's
//! calls into each layer's public functions, kept in memory and reduced
//! to per-layer totals when the run ends.
//!
//! A span has a name, a start, an end and an optional parent. A layer's
//! self time is its spans' duration minus the part of each interval that
//! its child spans cover, so a parent whose children run on worker
//! threads is charged only for the time no child was running.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
}

/// In-memory span store for one traced run. `Sync`, so executor worker
/// threads record their spans into the same store as the main thread.
pub struct Tracer {
    t0: Instant,
    spans: Mutex<Vec<Span>>,
    counts: Mutex<BTreeMap<&'static str, u64>>,
    /// Host seconds of the timed part of every traced operation.
    pub wall_s: f64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
            counts: Mutex::new(BTreeMap::new()),
            wall_s: 0.0,
        }
    }

    /// Open a span; returns its id for [`Tracer::close`] and for children.
    pub fn open(&self, name: &'static str, parent: Option<usize>) -> usize {
        let start = self.t0.elapsed();
        let mut spans = self.spans.lock().expect("no span holder panics");
        spans.push(Span { name, parent, start, end: start });
        spans.len() - 1
    }

    pub fn close(&self, id: usize) {
        let end = self.t0.elapsed();
        self.spans.lock().expect("no span holder panics")[id].end = end;
    }

    /// Record a span of an already measured duration that ended now (for
    /// per-slot spans timed by the caller).
    pub fn record(&self, name: &'static str, elapsed: Duration) {
        let end = self.t0.elapsed();
        let start = end.saturating_sub(elapsed);
        self.spans.lock().expect("no span holder panics").push(Span {
            name,
            parent: None,
            start,
            end,
        });
    }

    /// Add `n` to the named work counter.
    pub fn count(&self, name: &'static str, n: u64) {
        *self.counts.lock().expect("no counter holder panics").entry(name).or_insert(0) += n;
    }

    pub fn counted(&self, name: &str) -> u64 {
        self.counts.lock().expect("no counter holder panics").get(name).copied().unwrap_or(0)
    }

    /// Summed duration of every span called `name`, seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        let spans = self.spans.lock().expect("no span holder panics");
        spans.iter().filter(|s| s.name == name).map(|s| (s.end - s.start).as_secs_f64()).sum()
    }

    /// Per span name: (total seconds, self seconds). Self time subtracts
    /// the union of the children's intervals, clipped to the parent.
    pub fn layers(&self) -> BTreeMap<&'static str, (f64, f64)> {
        let spans = self.spans.lock().expect("no span holder panics");
        let mut children: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        let mut out: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
        for (s, kids) in spans.iter().zip(children.iter_mut()) {
            let total = (s.end - s.start).as_secs_f64();
            let covered = union_within(kids, s.start, s.end).as_secs_f64();
            let entry = out.entry(s.name).or_insert((0.0, 0.0));
            entry.0 += total;
            entry.1 += total - covered;
        }
        out
    }

    /// Summed duration of the spans with no parent — the part of the
    /// traced wall time that some layer accounts for.
    pub fn top_level_s(&self) -> f64 {
        let spans = self.spans.lock().expect("no span holder panics");
        spans.iter().filter(|s| s.parent.is_none()).map(|s| (s.end - s.start).as_secs_f64()).sum()
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_within(intervals: &mut [(Duration, Duration)], lo: Duration, hi: Duration) -> Duration {
    intervals.sort();
    let mut covered = Duration::ZERO;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        let end = end.min(hi);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// Run `f` inside a span when tracing, or just run it.
pub fn time<R>(
    tracer: Option<&Tracer>,
    name: &'static str,
    parent: Option<usize>,
    f: impl FnOnce() -> R,
) -> R {
    match tracer {
        Some(t) => {
            let id = t.open(name, parent);
            let out = f();
            t.close(id);
            out
        }
        None => f(),
    }
}

/// The program's own counters and spans (`obs`), summed over the traced
/// operations only.
#[derive(Debug, Clone, Copy, Default)]
pub struct ObsTotals {
    pub session_records: u64,
    pub exported_records: u64,
    pub session_run_ns: u64,
    pub export_ns: u64,
    pub violations: u64,
}

impl ObsTotals {
    pub fn capture() -> ObsTotals {
        let snap = midband5g::obs::snapshot();
        let span_ns = |name: &str| snap.span(name).map_or(0, |h| h.sum);
        ObsTotals {
            session_records: snap.counter("session.records").unwrap_or(0),
            exported_records: snap.counter("dataset.exported_records").unwrap_or(0),
            session_run_ns: span_ns("session.run"),
            export_ns: span_ns("dataset.export"),
            violations: snap.audit.total_violations,
        }
    }

    /// Add the change from `before` to `after`.
    pub fn accumulate(&mut self, before: &ObsTotals, after: &ObsTotals) {
        self.session_records += after.session_records - before.session_records;
        self.exported_records += after.exported_records - before.exported_records;
        self.session_run_ns += after.session_run_ns - before.session_run_ns;
        self.export_ns += after.export_ns - before.export_ns;
        self.violations += after.violations - before.violations;
    }
}
