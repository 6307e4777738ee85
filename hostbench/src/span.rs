//! In-memory spans recorded around calls into each layer's public API.
//!
//! A span has a name, a start, an end, the span that was open when it
//! started (its parent) and a cell id that every span of one unit of
//! work shares (one simulation cell, one crash bundle, one streamed
//! run). Spans are kept in memory while the workload runs and written
//! out when the benchmark ends; a layer's self time is its spans'
//! durations minus the part covered by their child spans.
//!
//! A disabled tracer reads no clock and stores nothing, so the untraced
//! run pays only a branch at each boundary.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Boundary name, `layer.call`.
    pub name: &'static str,
    /// Unit of work the span belongs to.
    pub cell: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Calls, total and self seconds of every span with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    /// Spans with this name.
    pub calls: u64,
    /// Summed durations.
    pub total_s: f64,
    /// Summed durations minus the time their children cover.
    pub self_s: f64,
}

/// Span recorder for one iteration of a workload (single-threaded: the
/// benchmark only instruments the thread that drives the layers).
#[derive(Debug)]
pub struct Tracer {
    epoch: Option<Instant>,
    layered: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    cells: u32,
}

impl Tracer {
    /// A tracer that records nothing: the workload calls the layers'
    /// entry points as users do.
    pub fn off() -> Self {
        Tracer {
            epoch: None,
            layered: false,
            spans: Vec::new(),
            open: Vec::new(),
            cells: 0,
        }
    }

    /// A tracer that records nothing but makes the workload call one
    /// layer at a time, as a traced iteration does, so that every
    /// per-call check runs and every per-layer count is complete.
    pub fn layer_by_layer() -> Self {
        Tracer {
            layered: true,
            ..Tracer::off()
        }
    }

    /// A recording tracer whose epoch is now; it calls one layer at a
    /// time.
    pub fn on() -> Self {
        Tracer {
            epoch: Some(Instant::now()),
            ..Tracer::layer_by_layer()
        }
    }

    /// Is this tracer recording?
    pub fn enabled(&self) -> bool {
        self.epoch.is_some()
    }

    /// Does the workload call one layer at a time?
    pub fn layered(&self) -> bool {
        self.layered
    }

    /// A fresh cell id.
    pub fn new_cell(&mut self) -> u32 {
        self.cells += 1;
        self.cells
    }

    fn ns_since_epoch(&self, at: Instant) -> u64 {
        self.epoch
            .map_or(0, |e| at.saturating_duration_since(e).as_nanos() as u64)
    }

    /// The start of a leaf span, or `None` when tracing is off.
    pub fn start(&self) -> Option<Instant> {
        self.epoch.map(|_| Instant::now())
    }

    /// Closes a leaf span that began at `start` (from [`Tracer::start`])
    /// and returns its duration in seconds (0 when tracing is off).
    pub fn leaf(&mut self, name: &'static str, cell: u32, start: Option<Instant>) -> f64 {
        let Some(start) = start else {
            return 0.0;
        };
        let span = Span {
            name,
            cell,
            parent: self.open.last().copied(),
            start_ns: self.ns_since_epoch(start),
            end_ns: self.ns_since_epoch(Instant::now()),
        };
        self.spans.push(span);
        span.secs()
    }

    /// Opens a span that encloses the spans recorded until the matching
    /// [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str, cell: u32) {
        if self.enabled() {
            let now = self.ns_since_epoch(Instant::now());
            self.spans.push(Span {
                name,
                cell,
                parent: self.open.last().copied(),
                start_ns: now,
                end_ns: now,
            });
            self.open.push(self.spans.len() - 1);
        }
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics if no span is open (unbalanced enter/exit is a bug in the
    /// benchmark).
    pub fn exit(&mut self) {
        if self.enabled() {
            let idx = self.open.pop().expect("exit without a matching enter");
            self.spans[idx].end_ns = self.ns_since_epoch(Instant::now());
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of the spans named `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// Durations of the spans named `name`, in seconds.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Each span's duration minus its children's, in ns, by span index.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Calls, total and self time per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            let e = out.entry(s.name).or_default();
            e.calls += 1;
            e.total_s += s.secs();
            e.self_s += own as f64 * 1e-9;
        }
        out
    }

    /// Writes one JSON object per span, tagged with `iteration`.
    ///
    /// # Errors
    ///
    /// Returns the writer's error.
    pub fn write_jsonl(&self, iteration: usize, mut w: impl Write) -> io::Result<()> {
        for ((id, s), own) in self.spans.iter().enumerate().zip(self.self_ns()) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"iteration\":{iteration},\"id\":{id},\"parent\":{parent},\"cell\":{},\
                 \"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own}}}",
                s.cell, s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        t.enter("a", 1);
        let s = t.start();
        t.leaf("b", 1, s);
        t.exit();
        assert!(t.spans().is_empty());
        let mut t = Tracer::layer_by_layer();
        let s = t.start();
        assert_eq!(t.leaf("b", 1, s), 0.0);
        assert!(t.layered() && !t.enabled() && t.spans().is_empty());
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::on();
        t.enter("parent", 1);
        let s = t.start();
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.leaf("child", 1, s);
        t.exit();
        let st = t.self_times();
        assert_eq!(st["parent"].calls, 1);
        assert_eq!(t.spans()[1].parent, Some(0));
        let child = st["child"].total_s;
        assert!(child >= 0.002);
        assert!((st["parent"].self_s - (st["parent"].total_s - child)).abs() < 1e-12);
    }
}
