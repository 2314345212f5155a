//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, start and end (ns since the tracer's epoch), the
//! span that was open when it started, and the run it served. A layer's
//! self time is its span minus the part of that interval its child spans
//! cover. A disabled tracer reads no clock and records nothing.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call, e.g. `engine.flush`.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The run the call served, when there is one.
    pub run: Option<u64>,
}

impl Span {
    /// Wall duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Count, total and self time of every span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    /// Spans recorded.
    pub count: usize,
    /// Sum of span durations, ns.
    pub total_ns: u64,
    /// Sum of self times, ns.
    pub self_ns: u64,
}

/// A span recorder.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span (`None` when tracing is off).
#[must_use = "close the span with Tracer::close"]
pub struct Open(Option<usize>);

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Is this tracer recording?
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str, run: Option<u64>) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            run,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        Open(Some(id))
    }

    /// Close a span (and any span opened inside it and left open).
    pub fn close(&mut self, span: Open) {
        let Some(id) = span.0 else { return };
        let end_ns = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = end_ns;
            if top == id {
                break;
            }
        }
    }

    /// Record `f` as a span with no children of its own.
    pub fn span<R>(&mut self, name: &'static str, run: Option<u64>, f: impl FnOnce() -> R) -> R {
        let open = self.open(name, run);
        let out = f();
        self.close(open);
        out
    }

    /// Record a call timed elsewhere (another thread) as a span nested in
    /// the innermost open one.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, run: Option<u64>) {
        if !self.enabled {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent: self.open.last().copied(),
            run,
        });
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the union of its
    /// direct children's intervals, clipped to it.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, kids)| s.duration_ns() - covered_ns(s.start_ns, s.end_ns, kids))
            .collect()
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, LayerTotals> {
        let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times_ns()) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.duration_ns();
            t.self_ns += own;
        }
        out
    }

    /// Durations (ns) of every span of one name, in recording order.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        for s in &self.spans {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"run\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.run)
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals` clipped to `[start, end]`.
pub fn covered_ns(start: u64, end: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in intervals {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer_with(spans: Vec<Span>) -> Tracer {
        let mut t = Tracer::new(true);
        t.spans = spans;
        t
    }

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            run: None,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let t = tracer_with(vec![
            span("flush", 0, 100, None),
            span("scope", 10, 30, Some(0)),
            span("eval", 30, 90, Some(0)),
            span("memo", 40, 50, Some(2)),
        ]);
        assert_eq!(t.self_times_ns(), vec![20, 20, 50, 10]);
        let totals = t.totals();
        assert_eq!(totals["flush"].total_ns, 100);
        assert_eq!(totals["flush"].self_ns, 20);
        assert_eq!(totals["eval"].self_ns, 50);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        // Two children overlap on [20, 30); one overhangs the parent's end.
        assert_eq!(covered_ns(0, 100, vec![(10, 30), (20, 40), (90, 120)]), 40);
        assert_eq!(covered_ns(0, 100, vec![]), 0);
        let t = tracer_with(vec![
            span("parent", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 20, 40, Some(0)),
        ]);
        assert_eq!(t.self_times_ns()[0], 70);
    }

    #[test]
    fn open_close_nests_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        let outer = t.open("outer", Some(7));
        t.span("inner", Some(7), || ());
        t.close(outer);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].run, Some(7));
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);

        let mut off = Tracer::new(false);
        let o = off.open("outer", None);
        off.close(o);
        assert!(off.spans().is_empty());
    }
}
