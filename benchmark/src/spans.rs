//! The benchmark's own span buffer. Spans are recorded around the calls the
//! benchmark itself makes into each layer (never read from the engine's
//! tracer), kept in memory, and written out once when the run ends.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use crate::json;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Shared by every span of one operation. The high 32 bits are the
    /// caller (client thread) index, so concurrent callers get separate
    /// rows in the trace viewer.
    pub op_id: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct SpanBuf {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl SpanBuf {
    pub fn new() -> SpanBuf {
        SpanBuf {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().expect("a span recorder panicked")
    }

    pub fn begin(&self, name: &'static str, parent: Option<usize>, op_id: u64) -> usize {
        let start_ns = self.now_ns();
        let mut spans = self.lock();
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op_id,
        });
        spans.len() - 1
    }

    pub fn end(&self, id: usize) {
        let end_ns = self.now_ns();
        self.lock()[id].end_ns = end_ns;
    }

    /// Record `f` as a child span of `parent`.
    pub fn time<R>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        op_id: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, op_id);
        let out = f();
        self.end(id);
        out
    }

    /// Everything recorded so far.
    pub fn snapshot(&self) -> Vec<Span> {
        self.lock().clone()
    }

    /// Durations in milliseconds of every span called `name` so far.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        durations_ms(&self.lock(), name)
    }
}

/// Durations in milliseconds of every span called `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect()
}

/// Self time of each span: its duration minus the part of its interval that
/// its child spans cover (overlapping children are counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Per span name: (count, total self ms, total duration ms).
pub fn summary(spans: &[Span]) -> BTreeMap<&'static str, (u64, f64, f64)> {
    let selfs = self_times_ns(spans);
    let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += self_ns as f64 / 1e6;
        e.2 += s.dur_ns() as f64 / 1e6;
    }
    out
}

/// Chrome `trace_event` JSON (open in chrome://tracing or ui.perfetto.dev).
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let parent = s.parent.map_or(-1, |p| p as i64);
        out.push_str(&format!(
            "{{\"name\": {}, \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}, \
             \"args\": {{\"id\": {i}, \"parent\": {parent}, \"op_id\": {}}}}}",
            json::quote(s.name),
            s.op_id >> 32,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.op_id & 0xffff_ffff,
        ));
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op_id: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // root 0..100
        //   a 10..40            (30)
        //     a1 15..25         (10)
        //   b 30..60 overlaps a (union a∪b = 10..60 = 50)
        //   c 90..120 sticks out of the root: only 90..100 counts
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a1", 15, 25, Some(1)),
            span("b", 30, 60, Some(0)),
            span("c", 90, 120, Some(0)),
        ];
        let selfs = self_times_ns(&spans);
        assert_eq!(selfs, vec![100 - 50 - 10, 30 - 10, 10, 30, 30]);
        let sum = summary(&spans);
        assert_eq!(sum["root"].0, 1);
        assert!((sum["a"].1 - 20e-6).abs() < 1e-12);
        assert!((sum["a"].2 - 30e-6).abs() < 1e-12);
    }

    #[test]
    fn buffer_records_nesting_and_order() {
        let buf = SpanBuf::new();
        let root = buf.begin("op", None, 7);
        let got = buf.time("child", Some(root), 7, || 41 + 1);
        buf.end(root);
        assert_eq!(got, 42);
        let spans = buf.snapshot();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(durations_ms(&spans, "child").len(), 1);
    }

    #[test]
    fn chrome_trace_is_parseable_json() {
        let spans = vec![
            span("root \"quoted\"", 0, 2_000, None),
            span("kid", 500, 1_500, Some(0)),
        ];
        let text = chrome_trace(&spans);
        let parsed = json::parse(&text).expect("valid JSON");
        let events = parsed.as_array().expect("event array");
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[0].get("name").unwrap().as_str(),
            Some("root \"quoted\"")
        );
        assert_eq!(events[1].get("dur").unwrap().as_f64(), Some(1.0));
    }
}
