//! Anomaly-triggered flight recorder for recommendation passes.
//!
//! A bounded ring buffer of the most recent [`PassTrace`]s that an operator
//! can inspect after the fact: "the p99 spiked at 14:32 — show me the trace
//! of the pass that did it". Every finished pass is offered to the recorder
//! with its [`PassSummary`]; passes that trip an anomaly trigger are *pinned*
//! (survive ring eviction) and their Chrome trace JSON is dumped to a spool
//! directory for offline analysis.
//!
//! Anomaly triggers, each read off the summary (and so off the trace the
//! dump carries):
//! - the pass was **shed** by admission control (`admission.shed`);
//! - the pass **missed its deadline** (`deadline.missed`);
//! - pass latency exceeded a configurable **multiple of the rolling p99**
//!   (default 4x, after a 32-sample warm-up window).
//!
//! The process-wide recorder holds [`DEFAULT_CAPACITY`] passes and uses a
//! [`DEFAULT_LATENCY_MULT`]x outlier trigger; `LUX_FLIGHT_SPOOL` names the
//! dump directory (the server points it at `<data_dir>/flight`
//! automatically).

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};

use crate::sync::lock_recover;
use std::sync::Arc;

use crate::summary::PassSummary;
use crate::trace::{names, MetricsRegistry, PassTrace};

/// Ring capacity of the process-wide recorder.
pub const DEFAULT_CAPACITY: usize = 64;
/// Latency-outlier multiplier of the process-wide recorder.
pub const DEFAULT_LATENCY_MULT: u64 = 4;
/// Rolling latency window used for the p99 estimate.
const LATENCY_WINDOW: usize = 256;
/// Minimum samples before the latency-outlier trigger arms.
const MIN_P99_SAMPLES: usize = 32;

/// One recorded pass in the ring.
#[derive(Debug, Clone)]
pub struct FlightEntry {
    /// Monotonic sequence number (1-based) within this recorder.
    pub seq: u64,
    /// Wall-clock record time, milliseconds since the Unix epoch.
    pub unix_ms: u64,
    pub total_ns: u64,
    pub request_id: String,
    pub tenant: String,
    /// Trigger that pinned this entry: `"shed"`, `"deadline"` or
    /// `"latency-outlier"`. `None` for routine passes.
    pub anomaly: Option<&'static str>,
    /// Spool file the Chrome trace was dumped to, when an anomaly fired and
    /// a spool directory is configured.
    pub dump_path: Option<PathBuf>,
    /// Shared, not cloned: recording a routine pass must stay O(1) — the
    /// print path hands over its existing `Arc`.
    pub trace: Arc<PassTrace>,
}

struct Inner {
    ring: VecDeque<FlightEntry>,
    /// Anomalous entries, retained independently of ring eviction.
    pinned: VecDeque<FlightEntry>,
    /// Rolling window of recent pass latencies for the p99 estimate.
    latencies: VecDeque<u64>,
    seq: u64,
    anomalies: u64,
}

/// Bounded ring of recent pass traces with anomaly pin-and-dump. One global
/// instance ([`FlightRecorder::global`]) serves the whole process; tests can
/// build private instances with [`FlightRecorder::new`].
pub struct FlightRecorder {
    capacity: usize,
    latency_mult: u64,
    spool: Mutex<Option<PathBuf>>,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.capacity)
            .field("latency_mult", &self.latency_mult)
            .finish_non_exhaustive()
    }
}

impl FlightRecorder {
    pub fn new(capacity: usize, latency_mult: u64) -> FlightRecorder {
        FlightRecorder {
            capacity,
            latency_mult: latency_mult.max(1),
            spool: Mutex::new(None),
            inner: Mutex::new(Inner {
                ring: VecDeque::new(),
                pinned: VecDeque::new(),
                latencies: VecDeque::new(),
                seq: 0,
                anomalies: 0,
            }),
        }
    }

    /// The process-wide recorder; `LUX_FLIGHT_SPOOL` is read on first use.
    pub fn global() -> &'static FlightRecorder {
        static GLOBAL: OnceLock<FlightRecorder> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let rec = FlightRecorder::new(DEFAULT_CAPACITY, DEFAULT_LATENCY_MULT);
            if let Some(dir) = &crate::knobs::knobs().flight_spool {
                rec.set_spool(dir);
            }
            rec
        })
    }

    /// `true` when the recorder accepts samples (capacity > 0).
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Point anomaly dumps at `dir` (created eagerly; failures leave the
    /// spool unset and dumps silently skipped).
    pub fn set_spool(&self, dir: &Path) {
        if std::fs::create_dir_all(dir).is_ok() {
            *lock_recover(&self.spool) = Some(dir.to_path_buf());
        }
    }

    pub fn spool(&self) -> Option<PathBuf> {
        lock_recover(&self.spool).clone()
    }

    /// Offer one finished pass. Returns the spool path when an anomaly fired
    /// and the trace was dumped.
    pub fn record(&self, trace: Arc<PassTrace>, summary: &PassSummary) -> Option<PathBuf> {
        if !self.enabled() {
            return None;
        }
        let total_ns = trace.total_ns;
        let metrics = MetricsRegistry::global();
        let (seq, anomaly) = {
            let mut inner = lock_recover(&self.inner);
            inner.seq += 1;
            let anomaly = self.classify(&inner, total_ns, summary);
            // The window feeds the p99 estimate; exclude anomalous passes so
            // a burst of outliers cannot ratchet the baseline up and mask
            // later ones.
            if anomaly.is_none() {
                if inner.latencies.len() >= LATENCY_WINDOW {
                    inner.latencies.pop_front();
                }
                inner.latencies.push_back(total_ns);
            } else {
                inner.anomalies += 1;
            }
            (inner.seq, anomaly)
        };
        metrics.incr(names::FLIGHT_RECORDED);
        let mut dump_path = None;
        if let Some(reason) = anomaly {
            if let Some(dir) = self.spool() {
                let file = dir.join(format!("flight-{seq:06}-{reason}.json"));
                match std::fs::write(&file, trace.to_chrome_json()) {
                    Ok(()) => dump_path = Some(file),
                    Err(_) => metrics.incr(names::FLIGHT_DUMP_FAILURES),
                }
            }
        }
        let entry = FlightEntry {
            seq,
            unix_ms: unix_ms(),
            total_ns,
            request_id: summary.request_id.clone().unwrap_or_default(),
            tenant: summary.tenant.clone().unwrap_or_default(),
            anomaly,
            dump_path: dump_path.clone(),
            trace,
        };
        let mut inner = lock_recover(&self.inner);
        if anomaly.is_some() {
            if inner.pinned.len() >= self.capacity {
                inner.pinned.pop_front();
            }
            inner.pinned.push_back(entry.clone());
        }
        if inner.ring.len() >= self.capacity {
            inner.ring.pop_front();
        }
        inner.ring.push_back(entry);
        dump_path
    }

    fn classify(
        &self,
        inner: &Inner,
        total_ns: u64,
        summary: &PassSummary,
    ) -> Option<&'static str> {
        if summary.admission_shed.is_some() {
            Some("shed")
        } else if summary.deadline_missed {
            Some("deadline")
        } else if inner.latencies.len() >= MIN_P99_SAMPLES
            && total_ns > rolling_p99(&inner.latencies).saturating_mul(self.latency_mult)
        {
            Some("latency-outlier")
        } else {
            None
        }
    }

    /// The most recent `n` entries, newest first.
    pub fn recent(&self, n: usize) -> Vec<FlightEntry> {
        lock_recover(&self.inner)
            .ring
            .iter()
            .rev()
            .take(n)
            .cloned()
            .collect()
    }

    /// Pinned (anomalous) entries, newest first.
    pub fn pinned(&self) -> Vec<FlightEntry> {
        lock_recover(&self.inner)
            .pinned
            .iter()
            .rev()
            .cloned()
            .collect()
    }

    /// Total passes offered / anomalies pinned over the recorder's lifetime.
    pub fn totals(&self) -> (u64, u64) {
        let inner = lock_recover(&self.inner);
        (inner.seq, inner.anomalies)
    }

    /// Human-readable table of recent entries (the CLI `flight` view).
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let (recorded, anomalies) = self.totals();
        let mut out = format!(
            "flight recorder: {recorded} recorded, {anomalies} anomalies (capacity {})\n",
            self.capacity
        );
        if let Some(dir) = self.spool() {
            let _ = writeln!(out, "spool: {}", dir.display());
        }
        let entries = self.recent(self.capacity.min(32));
        if entries.is_empty() {
            out.push_str("  (no passes recorded)\n");
            return out;
        }
        out.push_str("  seq     total_ms  tenant           request               anomaly\n");
        for e in entries {
            let _ = writeln!(
                out,
                "  {:<6}  {:>8.2}  {:<15}  {:<20}  {}",
                e.seq,
                e.total_ns as f64 / 1e6,
                truncate(&e.tenant, 15),
                truncate(&e.request_id, 20),
                e.anomaly.unwrap_or("-"),
            );
        }
        out
    }
}

fn rolling_p99(window: &VecDeque<u64>) -> u64 {
    let mut sorted: Vec<u64> = window.iter().copied().collect();
    sorted.sort_unstable();
    let rank = ((sorted.len() as f64 * 0.99).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn unix_ms() -> u64 {
    crate::clock::unix_millis()
}

fn truncate(s: &str, n: usize) -> String {
    if s.chars().count() <= n {
        s.to_string()
    } else {
        let cut: String = s.chars().take(n.saturating_sub(1)).collect();
        format!("{cut}…")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceCollector;

    /// A finished pass of `ms` milliseconds with `tags` on its root, as the
    /// print path hands it over: the trace and its summary.
    fn pass(ms: u64, tags: &[(&str, &str)]) -> (Arc<PassTrace>, PassSummary) {
        let c = TraceCollector::new();
        let root = c.begin(None, "print");
        c.tag(root, "request.id", "req-1");
        c.tag(root, "request.tenant", "acme");
        for (k, v) in tags {
            c.tag(root, *k, *v);
        }
        c.end(root);
        let mut t = c.snapshot();
        // Pin a deterministic duration for trigger math.
        t.total_ns = ms * 1_000_000;
        let summary = PassSummary::from_trace(&t);
        (Arc::new(t), summary)
    }

    fn record(r: &FlightRecorder, ms: u64, tags: &[(&str, &str)]) -> Option<PathBuf> {
        let (trace, summary) = pass(ms, tags);
        r.record(trace, &summary)
    }

    const SHED: &[(&str, &str)] = &[("admission.shed", "all 2 session slots busy")];

    #[test]
    fn ring_is_bounded_and_ordered() {
        let r = FlightRecorder::new(4, 4);
        for _ in 0..10 {
            record(&r, 5, &[]);
        }
        let recent = r.recent(16);
        assert_eq!(recent.len(), 4);
        assert_eq!(recent[0].seq, 10, "newest first");
        assert_eq!(recent[3].seq, 7);
        assert!(r.pinned().is_empty());
    }

    #[test]
    fn anomalies_pin_and_survive_eviction() {
        let r = FlightRecorder::new(2, 4);
        record(&r, 5, SHED);
        for _ in 0..5 {
            record(&r, 5, &[]);
        }
        let pinned = r.pinned();
        assert_eq!(pinned.len(), 1);
        assert_eq!(pinned[0].anomaly, Some("shed"));
        // Evicted from the ring but retained in the pinned set.
        assert!(r.recent(16).iter().all(|e| e.seq != pinned[0].seq));
        let (recorded, anomalies) = r.totals();
        assert_eq!((recorded, anomalies), (6, 1));
    }

    #[test]
    fn deadline_trigger_classifies() {
        let r = FlightRecorder::new(8, 4);
        record(&r, 5, &[("deadline.missed", "true")]);
        record(&r, 5, SHED);
        let kinds: Vec<&str> = r.pinned().iter().filter_map(|e| e.anomaly).collect();
        assert_eq!(kinds, vec!["shed", "deadline"]);
    }

    #[test]
    fn latency_outlier_arms_after_warmup() {
        let r = FlightRecorder::new(512, 4);
        // Below the 32-sample warm-up: a huge pass is not an outlier yet.
        for _ in 0..MIN_P99_SAMPLES - 1 {
            record(&r, 10, &[]);
        }
        record(&r, 1000, &[]);
        assert!(r.pinned().is_empty(), "trigger must not arm before warm-up");
        // That 1s pass entered the window; top it up past the threshold.
        for _ in 0..MIN_P99_SAMPLES {
            record(&r, 10, &[]);
        }
        record(&r, 100_000, &[]);
        let pinned = r.pinned();
        assert_eq!(pinned.len(), 1);
        assert_eq!(pinned[0].anomaly, Some("latency-outlier"));
    }

    #[test]
    fn anomaly_dump_written_to_spool() {
        let dir = std::env::temp_dir().join(format!(
            "lux-flight-test-{}-{}",
            std::process::id(),
            unix_ms()
        ));
        let r = FlightRecorder::new(8, 4);
        r.set_spool(&dir);
        let path = record(&r, 5, SHED).expect("anomaly dumps when spool set");
        let json = std::fs::read_to_string(&path).expect("dump readable");
        assert!(json.starts_with('[') && json.trim_end().ends_with(']'));
        // The dump carries why it was pinned.
        assert!(json.contains("admission.shed"), "{json}");
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .expect("dump file name");
        assert!(name.contains("shed"));
        // With the spool directory gone the next dump fails — counted, and
        // the pass is still recorded.
        let _ = std::fs::remove_dir_all(&dir);
        let failures0 = MetricsRegistry::global().counter(names::FLIGHT_DUMP_FAILURES);
        assert!(record(&r, 5, SHED).is_none());
        assert!(MetricsRegistry::global().counter(names::FLIGHT_DUMP_FAILURES) > failures0);
        assert_eq!(r.pinned().len(), 2);
    }

    #[test]
    fn zero_capacity_disables() {
        let r = FlightRecorder::new(0, 4);
        assert!(record(&r, 5, SHED).is_none());
        assert!(r.recent(4).is_empty());
        assert!(!r.enabled());
    }

    #[test]
    fn render_text_lists_entries() {
        let r = FlightRecorder::new(8, 4);
        record(&r, 5, &[("deadline.missed", "true")]);
        let text = r.render_text();
        assert!(text.contains("1 recorded, 1 anomalies"));
        assert!(text.contains("deadline"));
        assert!(text.contains("acme"));
    }
}
