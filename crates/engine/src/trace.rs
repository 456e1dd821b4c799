//! Always-on pass tracing and process-wide metrics.
//!
//! The paper's "always-on" claim rests on three optimizations — WFLOW
//! memoization, PRUNE approximate scoring, ASYNC scheduling — whose
//! effectiveness is invisible without telemetry: "why was this print slow?"
//! and "did PRUNE actually fire?" must be answerable at runtime. This module
//! is the zero-dependency instrumentation backbone:
//!
//! - [`TraceCollector`] — a thread-safe span recorder every print pass
//!   carries. Spans form a tree (metadata → per-column, actions →
//!   generate/score/process) and carry free-form tags (memo hit/miss, PRUNE
//!   decision, deadline margin, scheduling order).
//! - [`PassTrace`] — the finished, immutable span tree of one pass, with a
//!   Chrome `trace_event` JSON exporter (loadable in `about://tracing` /
//!   Perfetto) and a human-readable flame-style text renderer.
//! - [`MetricsRegistry`] — process-wide counters and log-scale latency
//!   histograms (prints, memo hit rate, prune activation rate, action
//!   latency p50/p95, circuit-breaker trips) recorded with cheap atomics.
//!
//! Tracing is always on: collectors are allocated per pass, recording is a
//! handful of mutex pushes per span (tens of spans per pass), and the
//! registry is lock-free on the record path once a handle is resolved.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::clock;
use crate::sync::lock_recover;

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

/// Identifier of one span within its [`TraceCollector`] (index order = begin
/// order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(pub u32);

/// One recorded span: a named, timed interval within a pass, optionally
/// nested under a parent and annotated with string tags.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub id: SpanId,
    pub parent: Option<SpanId>,
    pub name: String,
    /// Nanoseconds since the collector's origin.
    pub start_ns: u64,
    /// Span duration in nanoseconds (set at `end`; for spans still open at
    /// snapshot time, the time elapsed so far, with an `unfinished` tag).
    pub dur_ns: u64,
    /// Small sequential number identifying the recording thread (becomes the
    /// Chrome trace `tid`, so parallel actions render on separate rows).
    pub tid: u64,
    pub tags: Vec<(String, String)>,
}

impl SpanRecord {
    /// End of the span relative to the collector origin, in nanoseconds.
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }

    /// The value of a tag, if set.
    pub fn tag(&self, key: &str) -> Option<&str> {
        self.tags
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    pub fn duration(&self) -> Duration {
        Duration::from_nanos(self.dur_ns)
    }
}

struct CollectorInner {
    spans: Vec<SpanRecord>,
    /// Open spans: span index -> begin instant (for duration on `end`).
    open: HashMap<u32, Instant>,
    /// Thread -> small sequential tid for the Chrome export.
    threads: HashMap<std::thread::ThreadId, u64>,
}

/// Thread-safe span recorder for one recommendation pass. Cheap to share:
/// workers clone the `Arc` and record concurrently; ids are stable across
/// threads, so a span begun on the dispatching thread can be ended by the
/// collector thread that absorbs the worker's outcome.
pub struct TraceCollector {
    origin: Instant,
    inner: Mutex<CollectorInner>,
}

impl TraceCollector {
    pub fn new() -> Arc<TraceCollector> {
        Arc::new(TraceCollector {
            origin: clock::now(),
            inner: Mutex::new(CollectorInner {
                spans: Vec::with_capacity(32),
                open: HashMap::new(),
                threads: HashMap::new(),
            }),
        })
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a new span under `parent` (`None` = a root). Returns its id;
    /// close it with [`TraceCollector::end`].
    pub fn begin(&self, parent: Option<SpanId>, name: impl Into<String>) -> SpanId {
        let start = clock::now();
        let start_ns = start.saturating_duration_since(self.origin).as_nanos() as u64;
        let mut inner = lock_recover(&self.inner);
        let next_tid = inner.threads.len() as u64;
        let tid = *inner
            .threads
            .entry(std::thread::current().id())
            .or_insert(next_tid);
        let id = SpanId(inner.spans.len() as u32);
        inner.spans.push(SpanRecord {
            id,
            parent,
            name: name.into(),
            start_ns,
            dur_ns: 0,
            tid,
            tags: Vec::new(),
        });
        inner.open.insert(id.0, start);
        id
    }

    /// Close an open span, fixing its duration. Ending twice is a no-op.
    pub fn end(&self, id: SpanId) {
        let mut inner = lock_recover(&self.inner);
        if let Some(started) = inner.open.remove(&id.0) {
            if let Some(span) = inner.spans.get_mut(id.0 as usize) {
                span.dur_ns = started.elapsed().as_nanos() as u64;
            }
        }
    }

    /// Attach a tag to a span (open or closed).
    pub fn tag(&self, id: SpanId, key: impl Into<String>, value: impl Into<String>) {
        let mut inner = lock_recover(&self.inner);
        if let Some(span) = inner.spans.get_mut(id.0 as usize) {
            span.tags.push((key.into(), value.into()));
        }
    }

    /// Time a closure as a complete child span.
    pub fn time<R>(&self, parent: Option<SpanId>, name: &str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(parent, name);
        let out = f();
        self.end(id);
        out
    }

    /// Freeze the current state into a [`PassTrace`]. Spans still open (e.g.
    /// an abandoned hung worker) are reported with their elapsed-so-far
    /// duration and an `unfinished` tag; the collector remains usable.
    pub fn snapshot(&self) -> PassTrace {
        let now = self.now_ns();
        let inner = lock_recover(&self.inner);
        let mut spans = inner.spans.clone();
        for span in &mut spans {
            if inner.open.contains_key(&span.id.0) {
                span.dur_ns = now.saturating_sub(span.start_ns);
                span.tags
                    .push(("unfinished".to_string(), "true".to_string()));
            }
        }
        let total_ns = spans.iter().map(SpanRecord::end_ns).max().unwrap_or(0);
        PassTrace { spans, total_ns }
    }
}

// ---------------------------------------------------------------------
// PassTrace: the finished span tree
// ---------------------------------------------------------------------

/// The immutable span tree of one print pass: what ran, when, for how long,
/// and with which optimization decisions (as tags). Produced by
/// [`TraceCollector::snapshot`] at the end of every print.
#[derive(Debug, Clone, Default)]
pub struct PassTrace {
    pub spans: Vec<SpanRecord>,
    /// Latest span end, relative to the pass origin (nanoseconds).
    pub total_ns: u64,
}

impl PassTrace {
    /// Wall-clock extent of the pass.
    pub fn total(&self) -> Duration {
        Duration::from_nanos(self.total_ns)
    }

    /// The first root (parentless) span — the `print` span on the print path.
    pub fn root(&self) -> Option<&SpanRecord> {
        self.spans.iter().find(|s| s.parent.is_none())
    }

    /// First span with this exact name.
    pub fn span(&self, name: &str) -> Option<&SpanRecord> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Every span with this exact name (e.g. all `generate` phases).
    pub fn spans_named(&self, name: &str) -> Vec<&SpanRecord> {
        self.spans.iter().filter(|s| s.name == name).collect()
    }

    /// Every span whose name starts with `prefix` (e.g. `action:`).
    pub fn spans_prefixed(&self, prefix: &str) -> Vec<&SpanRecord> {
        self.spans
            .iter()
            .filter(|s| s.name.starts_with(prefix))
            .collect()
    }

    /// Direct children of a span, in begin order.
    pub fn children(&self, id: SpanId) -> Vec<&SpanRecord> {
        self.spans.iter().filter(|s| s.parent == Some(id)).collect()
    }

    /// Sum of durations across all spans with this name.
    pub fn stage_total(&self, name: &str) -> Duration {
        Duration::from_nanos(self.spans_named(name).iter().map(|s| s.dur_ns).sum())
    }

    /// Structural consistency check: every span must lie within the pass
    /// extent, every child must start no earlier than its parent, and the
    /// time covered by children begun on the parent's thread must not exceed
    /// the parent's duration (plus `slack`). Covered time counts overlaps
    /// once: the caller begins an ASYNC pass's action spans, but they run at
    /// the same time on workers. Returns the first violation found.
    pub fn validate(&self, slack: Duration) -> Result<(), String> {
        let slack_ns = slack.as_nanos() as u64;
        for span in &self.spans {
            if span.end_ns() > self.total_ns + slack_ns {
                return Err(format!(
                    "span {:?} ends at {}ns, beyond the pass total {}ns",
                    span.name,
                    span.end_ns(),
                    self.total_ns
                ));
            }
            if let Some(pid) = span.parent {
                let parent = &self.spans[pid.0 as usize];
                if span.start_ns + slack_ns < parent.start_ns {
                    return Err(format!(
                        "span {:?} starts before its parent {:?}",
                        span.name, parent.name
                    ));
                }
            }
        }
        for parent in &self.spans {
            let children = self.children(parent.id).into_iter();
            let mut intervals: Vec<(u64, u64)> = (children.filter(|c| c.tid == parent.tid))
                .map(|c| (c.start_ns, c.end_ns()))
                .collect();
            intervals.sort_unstable();
            let (mut covered, mut reach) = (0, 0);
            for (start, end) in intervals {
                covered += end.saturating_sub(start.max(reach));
                reach = reach.max(end);
            }
            if covered > parent.dur_ns + slack_ns {
                return Err(format!(
                    "children of {:?} cover {}ns, exceeding the parent's {}ns",
                    parent.name, covered, parent.dur_ns
                ));
            }
        }
        Ok(())
    }

    /// Chrome `trace_event` JSON: an array of complete (`"ph": "X"`) events,
    /// loadable in `about://tracing` and Perfetto. Timestamps are
    /// microseconds; each recording thread renders as its own track.
    pub fn to_chrome_json(&self) -> String {
        let mut events = Vec::with_capacity(self.spans.len());
        for span in &self.spans {
            let mut args = String::new();
            for (i, (k, v)) in span.tags.iter().enumerate() {
                if i > 0 {
                    args.push_str(", ");
                }
                let _ = write!(args, "\"{}\": \"{}\"", json_escape(k), json_escape(v));
            }
            events.push(format!(
                "{{\"name\": \"{}\", \"cat\": \"lux\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \"pid\": 0, \"tid\": {}, \"args\": {{{args}}}}}",
                json_escape(&span.name),
                span.start_ns as f64 / 1_000.0,
                span.dur_ns as f64 / 1_000.0,
                span.tid,
            ));
        }
        format!("[{}]", events.join(",\n "))
    }

    /// Flame-style indented text rendering: one line per span with duration,
    /// share of the pass, and tags.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let total = (self.total_ns as f64).max(1.0);
        let mut roots: Vec<&SpanRecord> =
            self.spans.iter().filter(|s| s.parent.is_none()).collect();
        roots.sort_by_key(|s| s.start_ns);
        for root in roots {
            self.render_span(&mut out, root, 0, total);
        }
        out
    }

    fn render_span(&self, out: &mut String, span: &SpanRecord, depth: usize, total_ns: f64) {
        let pct = span.dur_ns as f64 / total_ns * 100.0;
        let tags = if span.tags.is_empty() {
            String::new()
        } else {
            let parts: Vec<String> = span.tags.iter().map(|(k, v)| format!("{k}={v}")).collect();
            format!("  [{}]", parts.join(" "))
        };
        let _ = writeln!(
            out,
            "{:indent$}{:<width$} {:>9} {:>5.1}%{}",
            "",
            span.name,
            fmt_ns(span.dur_ns),
            pct,
            tags,
            indent = depth * 2,
            width = 28usize.saturating_sub(depth * 2),
        );
        let mut kids = self.children(span.id);
        kids.sort_by_key(|s| s.start_ns);
        for child in kids {
            self.render_span(out, child, depth + 1, total_ns);
        }
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else {
        format!("{:.1}us", ns as f64 / 1e3)
    }
}

/// Escape a string for inclusion inside a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------
// Metric names
// ---------------------------------------------------------------------

/// Canonical metric names. Each must have an observer (a test, script, CI job
/// or benchmark probe naming it) — `scripts/lint.sh` enforces it; DESIGN.md §7.
pub mod names {
    /// Counter: total print passes.
    pub const PRINTS: &str = "lux.prints";
    /// Counter: recommendation passes served from the WFLOW memo.
    pub const MEMO_HIT: &str = "lux.wflow.memo_hit";
    /// Counter: recommendation passes that had to compute.
    pub const MEMO_MISS: &str = "lux.wflow.memo_miss";
    /// Counter: metadata served from the WFLOW memo.
    pub const META_MEMO_HIT: &str = "lux.wflow.meta_memo_hit";
    /// Counter: metadata recomputed.
    pub const META_MEMO_MISS: &str = "lux.wflow.meta_memo_miss";
    /// Counter: processed-vis results served from the vis memo cache.
    pub const VIS_MEMO_HIT: &str = "lux.memo.vis.hit";
    /// Counter: processed-vis results computed (and possibly cached).
    pub const VIS_MEMO_MISS: &str = "lux.memo.vis.miss";
    /// Counter: actions where the PRUNE gate engaged approximation.
    pub const PRUNE_ENGAGED: &str = "lux.prune.engaged";
    /// Counter: actions where PRUNE was considered but the cost model
    /// declined (candidate pool or sample ratio too small).
    pub const PRUNE_SKIPPED: &str = "lux.prune.skipped";
    /// Counter: circuit-breaker trips (a failure that left a breaker open).
    pub const BREAKER_TRIPS: &str = "lux.breaker.trips";
    /// Counters: per-pass action terminal statuses.
    pub const ACTIONS_OK: &str = "lux.actions.ok";
    pub const ACTIONS_DEGRADED: &str = "lux.actions.degraded";
    pub const ACTIONS_FAILED: &str = "lux.actions.failed";
    pub const ACTIONS_DISABLED: &str = "lux.actions.disabled";
    /// Counter: resource-governor degradations (any rung below exact).
    pub const GOVERNOR_DEGRADES: &str = "lux.governor.degrades";
    /// Counter: memory-budget breaches (a charge that crossed the byte cap).
    pub const GOVERNOR_BREACHES: &str = "lux.governor.breaches";
    /// Counter: passes admitted by the global admission controller.
    pub const ADMISSION_ADMITS: &str = "lux.admission.admits";
    /// Counter: passes shed (refused) by the admission controller.
    pub const ADMISSION_SHEDS: &str = "lux.admission.sheds";
    /// Counter: per-pass charges the global ledger refused at the cap.
    pub const ADMISSION_LEDGER_REFUSALS: &str = "lux.admission.ledger_refusals";
    /// Counter: failpoint actions actually executed (chaos bookkeeping).
    pub const FAILPOINT_TRIPS: &str = "lux.failpoint.trips";
    /// Counter: `LUX_*` environment values that failed to parse (each
    /// invalid variable also warns once on stderr; see `knobs`).
    pub const ENV_INVALID: &str = "lux.env.invalid";
    /// Counter: requests served by the recommendation server.
    pub const SERVER_REQUESTS: &str = "lux.server.requests";
    /// Counter: malformed/truncated wire frames answered with a typed error.
    pub const SERVER_PROTOCOL_ERRORS: &str = "lux.server.protocol_errors";
    /// Counter: connections reaped by the read/write timeout.
    pub const SERVER_TIMEOUTS: &str = "lux.server.timeouts";
    /// Counter: durable directory mutations of the server's spool
    /// directory: put files, tombstones, tenant dirs.
    pub const SERVER_JOURNAL_APPENDS: &str = "lux.server.journal.appends";
    /// High-water counter (0/1): set once persistence degrades — the metric
    /// form of the sticky "journal: degraded" stats flag.
    pub const SERVER_JOURNAL_DEGRADED: &str = "lux.server.journal.degraded";
    /// Counter: durability fsyncs issued (spool files and their
    /// directories).
    pub const SERVER_JOURNAL_FSYNCS: &str = "lux.server.journal.fsyncs";
    /// Counter: spool files that failed their recovery checksums and were
    /// quarantined instead of served.
    pub const SERVER_JOURNAL_QUARANTINED: &str = "lux.server.journal.quarantined_frames";
    /// Counter: spool I/O failures, injected ones included — the events
    /// that degrade persistence.
    pub const SERVER_JOURNAL_IO_ERRORS: &str = "lux.server.journal.io_errors";
    /// Counter: passes that finished after their client deadline (the
    /// deadline-miss SLO signal; sheds are counted separately).
    pub const DEADLINE_MISSES: &str = "lux.deadline.misses";
    /// Counter: passes recorded by the flight recorder.
    pub const FLIGHT_RECORDED: &str = "lux.flight.recorded";
    /// Counter: flight-dump writes that failed (spool I/O).
    pub const FLIGHT_DUMP_FAILURES: &str = "lux.flight.dump_failures";
    /// Per-tenant counter: print requests attributed to the tenant.
    pub const TENANT_REQUESTS: &str = "lux.tenant.requests";
    /// Per-tenant counter: passes shed (admission or deadline) for the tenant.
    pub const TENANT_SHEDS: &str = "lux.tenant.sheds";
    /// Per-tenant counter: passes that finished after the client deadline.
    pub const TENANT_DEADLINE_MISSES: &str = "lux.tenant.deadline_misses";
    /// Per-tenant histogram: end-to-end pass latency.
    pub const TENANT_PASS_LATENCY: &str = "lux.tenant.pass_latency";
    /// Per-tenant histogram: time spent waiting in the admission queue.
    pub const TENANT_QUEUE_WAIT: &str = "lux.tenant.queue_wait";
    /// Histogram: end-to-end print latency.
    pub const PRINT_LATENCY: &str = "lux.print.latency";
    /// Counter: metadata passes that reused a parent frame's cached
    /// statistics partials across an append and scanned only the tail.
    pub const METADATA_APPEND_MERGES: &str = "lux.metadata.append_merges";
    /// Histogram: time an admitted pass spent waiting for a slot.
    pub const ADMISSION_WAIT: &str = "lux.admission.wait";
}

// ---------------------------------------------------------------------
// Histograms
// ---------------------------------------------------------------------

const HIST_BUCKETS: usize = 48;

/// Lock-free log₂-bucketed latency histogram: bucket `i` covers
/// `[2^i, 2^(i+1))` nanoseconds, which spans 1 ns to ~3.9 days in 48
/// buckets. Quantiles are estimated by linear interpolation within the
/// containing bucket, with the top populated bucket's upper edge pinned to
/// the largest observation — so long-tail p99s are not understated.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    fn bucket_index(ns: u64) -> usize {
        (63 - ns.max(1).leading_zeros() as usize).min(HIST_BUCKETS - 1)
    }

    pub fn observe(&self, d: Duration) {
        self.observe_ns(d.as_nanos() as u64);
    }

    fn observe_ns(&self, ns: u64) {
        self.buckets[Self::bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    fn sum_ns(&self) -> u64 {
        self.sum_ns.load(Ordering::Relaxed)
    }

    fn mean_ns(&self) -> u64 {
        let n = self.count();
        if n == 0 {
            0
        } else {
            self.sum_ns.load(Ordering::Relaxed) / n
        }
    }

    /// Estimated `q`-quantile (0.0..=1.0) in nanoseconds: linear
    /// interpolation by rank within the containing bucket `[2^i, 2^(i+1))`,
    /// with the upper edge capped at the largest recorded observation. The
    /// cap matters in the top populated bucket: a single 1s outlier among
    /// millisecond samples yields p100 = 1s exactly instead of the bucket
    /// midpoint (which understated long-tail quantiles).
    pub fn quantile_ns(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let max = self.max_ns.load(Ordering::Relaxed);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            let in_bucket = b.load(Ordering::Relaxed);
            if in_bucket == 0 {
                continue;
            }
            if seen + in_bucket >= target {
                let lo = 1u64 << i;
                let hi = ((2u128 << i).min(u64::MAX as u128) as u64).min(max).max(lo);
                let frac = (target - seen) as f64 / in_bucket as f64;
                return lo + ((hi - lo) as f64 * frac) as u64;
            }
            seen += in_bucket;
        }
        max
    }

    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count(),
            sum_ns: self.sum_ns(),
            mean_ns: self.mean_ns(),
            p50_ns: self.quantile_ns(0.50),
            p95_ns: self.quantile_ns(0.95),
            p99_ns: self.quantile_ns(0.99),
        }
    }
}

/// Point-in-time digest of one histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSummary {
    pub count: u64,
    pub sum_ns: u64,
    pub mean_ns: u64,
    pub p50_ns: u64,
    pub p95_ns: u64,
    pub p99_ns: u64,
}

// ---------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------

/// A series key: the metric name and its tenant label (`None` for the
/// process-wide series). Labelled series are bounded in practice by live
/// tenants × the handful of `lux.tenant.*` names.
type SeriesKey = (String, Option<String>);

/// One series of a [`MetricsSnapshot`]: name, tenant label, value.
pub type Series<V> = (String, Option<String>, V);

/// Process-wide named counters and histograms, each table keyed by
/// [`SeriesKey`]. The tables are behind a mutex (touched once per metric per
/// record call, on a cold path of a few dozen records per print); the
/// values themselves are plain atomics. [`MetricsRegistry::global`] is the
/// instance the whole engine records to.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<HashMap<SeriesKey, Arc<AtomicU64>>>,
    histograms: Mutex<HashMap<SeriesKey, Arc<Histogram>>>,
}

/// The series `(name, tenant)` of `table` (create-on-first-use).
fn series<T: Default>(
    table: &Mutex<HashMap<SeriesKey, Arc<T>>>,
    name: &str,
    tenant: Option<&str>,
) -> Arc<T> {
    let mut table = lock_recover(table);
    Arc::clone(
        table
            .entry((name.to_string(), tenant.map(str::to_string)))
            .or_default(),
    )
}

/// Every series of `table`, read through `read` and sorted unlabelled
/// first, then by name and tenant — the order both renderings print in.
fn sorted<T, V>(
    table: &Mutex<HashMap<SeriesKey, Arc<T>>>,
    read: impl Fn(&T) -> V,
) -> Vec<Series<V>> {
    let mut out: Vec<Series<V>> = lock_recover(table)
        .iter()
        .map(|((name, tenant), v)| (name.clone(), tenant.clone(), read(v)))
        .collect();
    out.sort_by(|a, b| (a.1.is_some(), &a.0, &a.1).cmp(&(b.1.is_some(), &b.0, &b.1)));
    out
}

impl MetricsRegistry {
    /// The process-wide registry.
    pub fn global() -> &'static MetricsRegistry {
        static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
        GLOBAL.get_or_init(MetricsRegistry::default)
    }

    /// Handle to a counter (create-on-first-use). Callers on hot paths can
    /// cache the `Arc` and `fetch_add` directly.
    pub fn counter_handle(&self, name: &str) -> Arc<AtomicU64> {
        series(&self.counters, name, None)
    }

    /// Handle to a histogram (create-on-first-use).
    pub fn histogram_handle(&self, name: &str) -> Arc<Histogram> {
        series(&self.histograms, name, None)
    }

    /// Increment a counter by 1.
    pub fn incr(&self, name: &str) {
        self.add(name, 1);
    }

    /// Increment a counter by `n`.
    pub fn add(&self, name: &str, n: u64) {
        self.counter_handle(name).fetch_add(n, Ordering::Relaxed);
    }

    /// Current value of a counter (0 if never recorded).
    pub fn counter(&self, name: &str) -> u64 {
        self.read(name, None)
    }

    /// Record one latency observation.
    pub fn observe(&self, name: &str, d: Duration) {
        self.histogram_handle(name).observe(d);
    }

    /// Handle to a per-tenant labeled counter (create-on-first-use).
    pub fn tenant_counter_handle(&self, name: &str, tenant: &str) -> Arc<AtomicU64> {
        series(&self.counters, name, Some(tenant))
    }

    /// Increment a per-tenant counter by 1.
    pub fn incr_tenant(&self, name: &str, tenant: &str) {
        series(&self.counters, name, Some(tenant)).fetch_add(1, Ordering::Relaxed);
    }

    /// Record one per-tenant latency observation.
    pub fn observe_tenant(&self, name: &str, tenant: &str, d: Duration) {
        series(&self.histograms, name, Some(tenant)).observe(d);
    }

    /// Current value of a per-tenant counter (0 if never recorded).
    pub fn tenant_counter(&self, name: &str, tenant: &str) -> u64 {
        self.read(name, Some(tenant))
    }

    fn read(&self, name: &str, tenant: Option<&str>) -> u64 {
        lock_recover(&self.counters)
            .get(&(name.to_string(), tenant.map(str::to_string)))
            .map_or(0, |c| c.load(Ordering::Relaxed))
    }

    /// Point-in-time snapshot of every counter and histogram (global and
    /// per-tenant), sorted unlabelled first, then by name and tenant.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: sorted(&self.counters, |c| c.load(Ordering::Relaxed)),
            histograms: sorted(&self.histograms, Histogram::summary),
        }
    }
}

/// Point-in-time view of the registry, safe to hold and diff.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    pub counters: Vec<Series<u64>>,
    pub histograms: Vec<Series<HistogramSummary>>,
}

/// The value of series `(name, tenant)` in a sorted snapshot table.
fn find<'a, V>(table: &'a [Series<V>], name: &str, tenant: Option<&str>) -> Option<&'a V> {
    table
        .iter()
        .find(|(n, t, _)| n == name && t.as_deref() == tenant)
        .map(|(_, _, v)| v)
}

/// A sorted snapshot table split into its unlabelled and labelled series.
fn split<V>(table: &[Series<V>]) -> (&[Series<V>], &[Series<V>]) {
    table.split_at(table.partition_point(|(_, t, _)| t.is_none()))
}

impl MetricsSnapshot {
    pub fn counter(&self, name: &str) -> u64 {
        find(&self.counters, name, None).map_or(0, |v| *v)
    }

    pub fn tenant_counter(&self, name: &str, tenant: &str) -> u64 {
        find(&self.counters, name, Some(tenant)).map_or(0, |v| *v)
    }

    pub fn tenant_histogram(&self, name: &str, tenant: &str) -> Option<&HistogramSummary> {
        find(&self.histograms, name, Some(tenant))
    }

    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        find(&self.histograms, name, None)
    }

    /// `hits / (hits + misses)`, or `None` when neither was recorded.
    pub fn hit_rate(&self, hit: &str, miss: &str) -> Option<f64> {
        let h = self.counter(hit);
        let m = self.counter(miss);
        if h + m == 0 {
            None
        } else {
            Some(h as f64 / (h + m) as f64)
        }
    }

    /// Human-readable rendering (the REPL `stats` command).
    pub fn render_text(&self) -> String {
        let (counters, tenant_counters) = split(&self.counters);
        let (histograms, tenant_histograms) = split(&self.histograms);
        let mut out = String::from("counters:\n");
        if counters.is_empty() {
            out.push_str("  (none recorded)\n");
        }
        for (name, _, value) in counters {
            let _ = writeln!(out, "  {name:<28} {value}");
        }
        if let Some(rate) = self.hit_rate(names::MEMO_HIT, names::MEMO_MISS) {
            let _ = writeln!(out, "  {:<28} {:.1}%", "memo hit rate", rate * 100.0);
        }
        if let Some(rate) = self.hit_rate(names::PRUNE_ENGAGED, names::PRUNE_SKIPPED) {
            let _ = writeln!(
                out,
                "  {:<28} {:.1}%",
                "prune activation rate",
                rate * 100.0
            );
        }
        out.push_str("latencies (count / mean / p50 / p95 / p99):\n");
        if histograms.is_empty() {
            out.push_str("  (none recorded)\n");
        }
        for (name, _, h) in histograms {
            let _ = writeln!(
                out,
                "  {name:<28} {:>6}  {:>9}  {:>9}  {:>9}  {:>9}",
                h.count,
                fmt_ns(h.mean_ns),
                fmt_ns(h.p50_ns),
                fmt_ns(h.p95_ns),
                fmt_ns(h.p99_ns)
            );
        }
        if !tenant_counters.is_empty() || !tenant_histograms.is_empty() {
            out.push_str("per-tenant:\n");
            let label = |name: &str, tenant: &Option<String>| {
                format!("{name}{{{}}}", tenant.as_deref().unwrap_or_default())
            };
            for (name, tenant, value) in tenant_counters {
                let _ = writeln!(out, "  {:<36} {value}", label(name, tenant));
            }
            for (name, tenant, h) in tenant_histograms {
                let _ = writeln!(
                    out,
                    "  {:<36} {:>6}  p50 {:>9}  p99 {:>9}",
                    label(name, tenant),
                    h.count,
                    fmt_ns(h.p50_ns),
                    fmt_ns(h.p99_ns)
                );
            }
        }
        out
    }

    /// Render the snapshot in the Prometheus plaintext exposition format
    /// (version 0.0.4). Counters become `counter` families; histograms are
    /// rendered as `summary` families (quantile series + `_sum`/`_count`)
    /// with latencies in seconds. Per-tenant series carry a `tenant` label.
    /// A family — a name, unlabelled or tenant-labelled — gets one `# TYPE`
    /// line, before its first series.
    pub fn prometheus_text(&self) -> String {
        let mut out = String::new();
        let mut family = None;
        for (name, tenant, value) in &self.counters {
            let pname = prom_name(name);
            if family.replace((tenant.is_some(), name)) != Some((tenant.is_some(), name)) {
                let _ = writeln!(out, "# TYPE {pname} counter");
            }
            let _ = writeln!(out, "{pname}{} {value}", prom_labels(tenant, None));
        }
        let mut family = None;
        for (name, tenant, h) in &self.histograms {
            let pname = format!("{}_seconds", prom_name(name));
            if family.replace((tenant.is_some(), name)) != Some((tenant.is_some(), name)) {
                let _ = writeln!(out, "# TYPE {pname} summary");
            }
            for (q, v) in [(0.5, h.p50_ns), (0.95, h.p95_ns), (0.99, h.p99_ns)] {
                let _ = writeln!(out, "{pname}{} {}", prom_labels(tenant, Some(q)), secs(v));
            }
            let labels = prom_labels(tenant, None);
            let _ = writeln!(out, "{pname}_sum{labels} {}", secs(h.sum_ns));
            let _ = writeln!(out, "{pname}_count{labels} {}", h.count);
        }
        out
    }
}

/// The `{tenant="…",quantile="…"}` label set of one exposition line (empty
/// when it has neither).
fn prom_labels(tenant: &Option<String>, quantile: Option<f64>) -> String {
    let labels: Vec<String> = tenant
        .iter()
        .map(|t| format!("tenant=\"{}\"", prom_label(t)))
        .chain(quantile.map(|q| format!("quantile=\"{q}\"")))
        .collect();
    if labels.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", labels.join(","))
    }
}

/// Mangle a dotted metric name into a Prometheus-legal one: every character
/// outside `[a-zA-Z0-9_]` becomes `_`.
fn prom_name(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Escape a Prometheus label value (backslash, double quote, newline).
fn prom_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

fn secs(ns: u64) -> String {
    format!("{:.9}", ns as f64 / 1e9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_tree_records_nesting_and_tags() {
        let c = TraceCollector::new();
        let root = c.begin(None, "print");
        let meta = c.begin(Some(root), "metadata");
        c.tag(meta, "memo", "miss");
        std::thread::sleep(Duration::from_millis(2));
        c.end(meta);
        c.end(root);
        let trace = c.snapshot();
        assert_eq!(trace.root().unwrap().name, "print");
        let meta = trace.span("metadata").unwrap();
        assert_eq!(meta.tag("memo"), Some("miss"));
        assert!(
            meta.dur_ns >= 1_000_000,
            "slept 2ms, recorded {}",
            meta.dur_ns
        );
        assert_eq!(trace.children(trace.root().unwrap().id).len(), 1);
        trace.validate(Duration::from_millis(1)).unwrap();
    }

    /// Children begun on the parent's thread but run at once elsewhere (an
    /// ASYNC pass's actions) cover their overlap once, not twice; children
    /// that really cover more than the parent still fail.
    #[test]
    fn validate_counts_overlapping_children_once() {
        let span = |id, parent: Option<u32>, start_ns, dur_ns| SpanRecord {
            id: SpanId(id),
            parent: parent.map(SpanId),
            name: format!("span{id}"),
            start_ns,
            dur_ns,
            tid: 0,
            tags: Vec::new(),
        };
        let trace = |spans: Vec<SpanRecord>| PassTrace {
            total_ns: spans.iter().map(SpanRecord::end_ns).max().unwrap_or(0),
            spans,
        };
        let overlapping = trace(vec![
            span(0, None, 0, 100),
            span(1, Some(0), 0, 90),
            span(2, Some(0), 10, 90),
        ]);
        overlapping
            .validate(Duration::ZERO)
            .expect("overlap counted once");
        let sequential = trace(vec![
            span(0, None, 0, 100),
            span(1, Some(0), 0, 60),
            span(2, Some(0), 60, 60),
        ]);
        let err = sequential.validate(Duration::ZERO).unwrap_err();
        assert!(err.contains("cover 120ns"), "{err}");
    }

    #[test]
    fn snapshot_closes_abandoned_spans() {
        let c = TraceCollector::new();
        let root = c.begin(None, "print");
        let _hung = c.begin(Some(root), "action:Sleeper");
        c.end(root);
        let trace = c.snapshot();
        let hung = trace.span("action:Sleeper").unwrap();
        assert_eq!(hung.tag("unfinished"), Some("true"));
    }

    #[test]
    fn chrome_export_is_valid_event_array() {
        let c = TraceCollector::new();
        let root = c.begin(None, "print");
        let child = c.begin(Some(root), "meta\"quoted\"");
        c.tag(child, "note", "line\nbreak");
        c.end(child);
        c.end(root);
        let json = c.snapshot().to_chrome_json();
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert_eq!(json.matches("\"ph\": \"X\"").count(), 2);
        assert!(json.contains("meta\\\"quoted\\\""));
        assert!(json.contains("line\\nbreak"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn render_text_is_indented_with_percentages() {
        let c = TraceCollector::new();
        let root = c.begin(None, "print");
        let a = c.begin(Some(root), "actions");
        std::thread::sleep(Duration::from_millis(1));
        c.end(a);
        c.end(root);
        let text = c.snapshot().render_text();
        assert!(text.contains("print"));
        assert!(text.contains("  actions"));
        assert!(text.contains('%'));
    }

    #[test]
    fn cross_thread_spans_get_distinct_tids() {
        let c = TraceCollector::new();
        let root = c.begin(None, "print");
        let c2 = Arc::clone(&c);
        std::thread::spawn(move || {
            let s = c2.begin(Some(root), "worker");
            c2.end(s);
        })
        .join()
        .unwrap();
        c.end(root);
        let trace = c.snapshot();
        let worker = trace.span("worker").unwrap();
        assert_ne!(worker.tid, trace.root().unwrap().tid);
    }

    #[test]
    fn histogram_quantiles_bracket_observations() {
        let h = Histogram::default();
        for ms in [1u64, 2, 3, 4, 100] {
            h.observe(Duration::from_millis(ms));
        }
        assert_eq!(h.count(), 5);
        let p50 = h.quantile_ns(0.5);
        assert!((1_000_000..8_000_000).contains(&p50), "p50={p50}");
        let p95 = h.quantile_ns(0.95);
        assert!(p95 > 50_000_000, "p95={p95}");
        assert!(h.mean_ns() > 10_000_000);
    }

    #[test]
    fn histogram_quantiles_pin_known_values() {
        // 99 fast observations plus one long-tail outlier: the top quantile
        // must land on the observed max, not the top bucket's lower bound
        // (the pre-fix behaviour understated long-tail p99 by up to 2x).
        let h = Histogram::default();
        for _ in 0..99 {
            h.observe_ns(1_000_000); // 1ms
        }
        h.observe_ns(1_000_000_000); // 1s outlier
        assert_eq!(h.quantile_ns(1.0), 1_000_000_000);
        let p99 = h.quantile_ns(0.99);
        // rank 99 of 100 is the last 1ms sample: inside its bucket [2^19, 2^20)
        assert!((524_288..2_097_152).contains(&p99), "p99={p99}");
        // Quantiles are monotone non-decreasing.
        let mut last = 0;
        for q in [0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let v = h.quantile_ns(q);
            assert!(v >= last, "quantile({q})={v} < {last}");
            last = v;
        }
        // Empty histogram reads zero everywhere.
        let empty = Histogram::default();
        assert_eq!(empty.quantile_ns(0.99), 0);
        // Single observation: every quantile is exactly that value.
        let one = Histogram::default();
        one.observe_ns(5_000_000);
        assert_eq!(one.quantile_ns(0.5), 5_000_000);
        assert_eq!(one.quantile_ns(1.0), 5_000_000);
        assert_eq!(one.sum_ns(), 5_000_000);
    }

    #[test]
    fn registry_tenant_series_snapshot() {
        let r = MetricsRegistry::default();
        r.incr_tenant(names::TENANT_REQUESTS, "acme");
        r.incr_tenant(names::TENANT_REQUESTS, "acme");
        r.incr_tenant(names::TENANT_REQUESTS, "acme");
        r.incr_tenant(names::TENANT_SHEDS, "beta");
        r.observe_tenant(names::TENANT_PASS_LATENCY, "acme", Duration::from_millis(7));
        assert_eq!(r.tenant_counter(names::TENANT_REQUESTS, "acme"), 3);
        assert_eq!(r.tenant_counter(names::TENANT_REQUESTS, "other"), 0);
        let snap = r.snapshot();
        assert_eq!(snap.tenant_counter(names::TENANT_REQUESTS, "acme"), 3);
        assert_eq!(snap.tenant_counter(names::TENANT_SHEDS, "beta"), 1);
        let lat = snap
            .tenant_histogram(names::TENANT_PASS_LATENCY, "acme")
            .expect("tenant histogram present");
        assert_eq!(lat.count, 1);
        assert!(snap.render_text().contains("lux.tenant.requests{acme}"));
    }

    #[test]
    fn prometheus_exposition_format() {
        let r = MetricsRegistry::default();
        r.add("lux.prints", 4);
        r.observe("lux.print.latency", Duration::from_millis(10));
        r.incr_tenant(names::TENANT_REQUESTS, "te\"nant");
        r.observe_tenant(names::TENANT_PASS_LATENCY, "acme", Duration::from_millis(3));
        let text = r.snapshot().prometheus_text();
        assert!(text.contains("# TYPE lux_prints counter"));
        assert!(text.contains("lux_prints 4"));
        assert!(text.contains("# TYPE lux_print_latency_seconds summary"));
        assert!(text.contains("lux_print_latency_seconds{quantile=\"0.5\"}"));
        assert!(text.contains("lux_print_latency_seconds_count 1"));
        // Label value escaping.
        assert!(text.contains("lux_tenant_requests{tenant=\"te\\\"nant\"} 1"));
        assert!(text.contains("lux_tenant_pass_latency_seconds{tenant=\"acme\",quantile=\"0.99\"}"));
        assert!(text.contains("lux_tenant_pass_latency_seconds_count{tenant=\"acme\"} 1"));
        // Every non-comment line is `name{labels}? value` with a float/int value.
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (_, value) = line.rsplit_once(' ').expect("metric line has a value");
            value.parse::<f64>().expect("metric value parses");
        }
    }

    /// A private registry with global counters and histograms plus two
    /// tenants' series. Populate it the same way in every test that pins its
    /// rendering.
    fn pinned_registry() -> MetricsRegistry {
        let r = MetricsRegistry::default();
        r.add(names::PRINTS, 4);
        r.add(names::MEMO_HIT, 3);
        r.incr(names::MEMO_MISS);
        r.incr("lux.test.zeta");
        r.observe(names::PRINT_LATENCY, Duration::from_millis(10));
        r.observe(names::PRINT_LATENCY, Duration::from_micros(2_500));
        r.observe("lux.test.alpha", Duration::from_nanos(900));
        for _ in 0..3 {
            r.incr_tenant(names::TENANT_REQUESTS, "acme");
        }
        r.incr_tenant(names::TENANT_REQUESTS, "beta");
        r.incr_tenant(names::TENANT_SHEDS, "beta");
        r.incr_tenant(names::TENANT_DEADLINE_MISSES, "acme");
        r.observe_tenant(names::TENANT_PASS_LATENCY, "beta", Duration::from_millis(2));
        r.observe_tenant(names::TENANT_PASS_LATENCY, "acme", Duration::from_millis(7));
        r.observe_tenant(
            names::TENANT_PASS_LATENCY,
            "acme",
            Duration::from_millis(30),
        );
        r.observe_tenant(names::TENANT_QUEUE_WAIT, "acme", Duration::from_micros(150));
        r
    }

    /// Recorded before the registry's four tables became two: the merged
    /// tables must reproduce both renderings byte for byte.
    #[test]
    fn exposition_and_render_text_are_pinned() {
        let snap = pinned_registry().snapshot();
        assert_eq!(snap.prometheus_text(), PINNED_PROMETHEUS);
        assert_eq!(snap.render_text(), PINNED_RENDER);
    }

    const PINNED_PROMETHEUS: &str = r#"# TYPE lux_prints counter
lux_prints 4
# TYPE lux_test_zeta counter
lux_test_zeta 1
# TYPE lux_wflow_memo_hit counter
lux_wflow_memo_hit 3
# TYPE lux_wflow_memo_miss counter
lux_wflow_memo_miss 1
# TYPE lux_tenant_deadline_misses counter
lux_tenant_deadline_misses{tenant="acme"} 1
# TYPE lux_tenant_requests counter
lux_tenant_requests{tenant="acme"} 3
lux_tenant_requests{tenant="beta"} 1
# TYPE lux_tenant_sheds counter
lux_tenant_sheds{tenant="beta"} 1
# TYPE lux_print_latency_seconds summary
lux_print_latency_seconds{quantile="0.5"} 0.004194304
lux_print_latency_seconds{quantile="0.95"} 0.010000000
lux_print_latency_seconds{quantile="0.99"} 0.010000000
lux_print_latency_seconds_sum 0.012500000
lux_print_latency_seconds_count 2
# TYPE lux_test_alpha_seconds summary
lux_test_alpha_seconds{quantile="0.5"} 0.000000900
lux_test_alpha_seconds{quantile="0.95"} 0.000000900
lux_test_alpha_seconds{quantile="0.99"} 0.000000900
lux_test_alpha_seconds_sum 0.000000900
lux_test_alpha_seconds_count 1
# TYPE lux_tenant_pass_latency_seconds summary
lux_tenant_pass_latency_seconds{tenant="acme",quantile="0.5"} 0.008388608
lux_tenant_pass_latency_seconds{tenant="acme",quantile="0.95"} 0.030000000
lux_tenant_pass_latency_seconds{tenant="acme",quantile="0.99"} 0.030000000
lux_tenant_pass_latency_seconds_sum{tenant="acme"} 0.037000000
lux_tenant_pass_latency_seconds_count{tenant="acme"} 2
lux_tenant_pass_latency_seconds{tenant="beta",quantile="0.5"} 0.002000000
lux_tenant_pass_latency_seconds{tenant="beta",quantile="0.95"} 0.002000000
lux_tenant_pass_latency_seconds{tenant="beta",quantile="0.99"} 0.002000000
lux_tenant_pass_latency_seconds_sum{tenant="beta"} 0.002000000
lux_tenant_pass_latency_seconds_count{tenant="beta"} 1
# TYPE lux_tenant_queue_wait_seconds summary
lux_tenant_queue_wait_seconds{tenant="acme",quantile="0.5"} 0.000150000
lux_tenant_queue_wait_seconds{tenant="acme",quantile="0.95"} 0.000150000
lux_tenant_queue_wait_seconds{tenant="acme",quantile="0.99"} 0.000150000
lux_tenant_queue_wait_seconds_sum{tenant="acme"} 0.000150000
lux_tenant_queue_wait_seconds_count{tenant="acme"} 1
"#;

    const PINNED_RENDER: &str = r#"counters:
  lux.prints                   4
  lux.test.zeta                1
  lux.wflow.memo_hit           3
  lux.wflow.memo_miss          1
  memo hit rate                75.0%
latencies (count / mean / p50 / p95 / p99):
  lux.print.latency                 2     6.25ms     4.19ms    10.00ms    10.00ms
  lux.test.alpha                    1      0.9us      0.9us      0.9us      0.9us
per-tenant:
  lux.tenant.deadline_misses{acme}     1
  lux.tenant.requests{acme}            3
  lux.tenant.requests{beta}            1
  lux.tenant.sheds{beta}               1
  lux.tenant.pass_latency{acme}             2  p50    8.39ms  p99   30.00ms
  lux.tenant.pass_latency{beta}             1  p50    2.00ms  p99    2.00ms
  lux.tenant.queue_wait{acme}               1  p50   150.0us  p99   150.0us
"#;

    #[test]
    fn registry_counters_and_snapshot() {
        let r = MetricsRegistry::default();
        r.incr("lux.test.a");
        r.add("lux.test.a", 2);
        r.observe("lux.test.lat", Duration::from_millis(5));
        assert_eq!(r.counter("lux.test.a"), 3);
        let snap = r.snapshot();
        assert_eq!(snap.counter("lux.test.a"), 3);
        assert_eq!(snap.histogram("lux.test.lat").unwrap().count, 1);
        assert!(snap.render_text().contains("lux.test.a"));
    }

    #[test]
    fn hit_rate_math() {
        let r = MetricsRegistry::default();
        r.add(names::MEMO_HIT, 3);
        r.add(names::MEMO_MISS, 1);
        let snap = r.snapshot();
        assert_eq!(snap.hit_rate(names::MEMO_HIT, names::MEMO_MISS), Some(0.75));
        assert_eq!(snap.hit_rate("lux.none.a", "lux.none.b"), None);
    }

    #[test]
    fn json_escape_covers_control_chars() {
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("x\ty\r\n"), "x\\ty\\r\\n");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
