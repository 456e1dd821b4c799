//! One benchmark run of one workload: set up, warm up, measure, check.
//!
//! An untraced run (`--trace 0`) measures the end-to-end metrics with the
//! benchmark's spans off. A traced run (`--trace 1`) measures the workload
//! again with root spans on (their cost is `trace.overhead_pct`), then
//! decomposes a print of the workload's own frames layer by layer
//! ([`crate::probe`]) and runs the fixed-input layer kernels
//! ([`crate::kernels`]).

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lux_core::prelude::*;
use lux_engine::trace::names as counter;

use crate::spans::SpanBuf;
use crate::stats;

/// Discarded before every measured window: fills the worker pool, the
/// allocator and the process-wide caches the way a running session has them.
const WARMUP: Duration = Duration::from_millis(1500);
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_ROUNDS: usize = 5;

pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    /// Scratch directory of this process, removed when the run ends.
    pub scratch: PathBuf,
    /// Where `trace-<workload>.json` goes.
    pub out_dir: PathBuf,
}

/// Process-wide engine counters the workloads are chosen to move (or not).
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub vis_hit: u64,
    pub vis_miss: u64,
    pub wflow_hit: u64,
    pub wflow_miss: u64,
    pub admits: u64,
    pub sheds: u64,
    pub prune_engaged: u64,
    pub prune_skipped: u64,
    pub journal_appends: u64,
    pub journal_fsyncs: u64,
}

impl Counters {
    pub fn now() -> Counters {
        let m = MetricsRegistry::global();
        Counters {
            vis_hit: m.counter(counter::VIS_MEMO_HIT),
            vis_miss: m.counter(counter::VIS_MEMO_MISS),
            wflow_hit: m.counter(counter::MEMO_HIT),
            wflow_miss: m.counter(counter::MEMO_MISS),
            admits: m.counter(counter::ADMISSION_ADMITS),
            sheds: m.counter(counter::ADMISSION_SHEDS),
            prune_engaged: m.counter(counter::PRUNE_ENGAGED),
            prune_skipped: m.counter(counter::PRUNE_SKIPPED),
            journal_appends: m.counter(counter::SERVER_JOURNAL_APPENDS),
            journal_fsyncs: m.counter(counter::SERVER_JOURNAL_FSYNCS),
        }
    }

    fn zip(self, o: Counters, f: impl Fn(u64, u64) -> u64) -> Counters {
        Counters {
            vis_hit: f(self.vis_hit, o.vis_hit),
            vis_miss: f(self.vis_miss, o.vis_miss),
            wflow_hit: f(self.wflow_hit, o.wflow_hit),
            wflow_miss: f(self.wflow_miss, o.wflow_miss),
            admits: f(self.admits, o.admits),
            sheds: f(self.sheds, o.sheds),
            prune_engaged: f(self.prune_engaged, o.prune_engaged),
            prune_skipped: f(self.prune_skipped, o.prune_skipped),
            journal_appends: f(self.journal_appends, o.journal_appends),
            journal_fsyncs: f(self.journal_fsyncs, o.journal_fsyncs),
        }
    }

    /// Movement since an earlier reading.
    pub fn since(self, before: Counters) -> Counters {
        self.zip(before, |now, then| now - then)
    }

    pub fn plus(self, other: Counters) -> Counters {
        self.zip(other, |a, b| a + b)
    }

    pub fn vis_hit_ratio(&self) -> f64 {
        stats::ratio(self.vis_hit, self.vis_miss)
    }

    pub fn wflow_hit_ratio(&self) -> f64 {
        stats::ratio(self.wflow_hit, self.wflow_miss)
    }
}

/// What one measured window of a workload yields. All times in milliseconds.
#[derive(Default)]
pub struct Measured {
    /// The primary op: a cold print, the mean df-print cell of a replay, a
    /// served print round trip.
    pub latency_ms: Vec<f64>,
    /// Request to first recommendation on a frame the system has not seen.
    pub first_result_ms: Vec<f64>,
    /// The data-changing op between prints.
    pub write_ms: Vec<f64>,
    /// `overhead_ratio` = p50(`with_ms`) / p50(`without_ms`): the same
    /// user-visible work with the layer under test on and off.
    pub with_ms: Vec<f64>,
    pub without_ms: Vec<f64>,
    /// `throughput_ops_s` = `ops` / `busy_s`.
    pub ops: u64,
    pub busy_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Engine counter movement over the window.
    pub counters: Counters,
}

impl Measured {
    pub fn absorb(&mut self, other: Measured) {
        self.latency_ms.extend(other.latency_ms);
        self.first_result_ms.extend(other.first_result_ms);
        self.write_ms.extend(other.write_ms);
        self.with_ms.extend(other.with_ms);
        self.without_ms.extend(other.without_ms);
        self.ops += other.ops;
        self.busy_s += other.busy_s;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.counters = self.counters.plus(other.counters);
    }
}

/// The workload's own frames and intents, handed to the layer probes and to
/// the top-k recall check.
pub struct ProbeInputs {
    pub frames: Vec<Arc<DataFrame>>,
    pub intents: Vec<Vec<String>>,
}

pub trait Workload: Sized {
    /// Build inputs from the seed and bring the system under test to the
    /// state the first timed op needs, including one untimed primary op.
    fn setup(ctx: &Ctx, round: usize) -> Self;
    /// Run the closed loop for `window`, recording root spans when given.
    fn measure(&mut self, window: Duration, spans: Option<&SpanBuf>) -> Measured;
    fn probe_inputs(&self) -> ProbeInputs;
    /// Checks that the window exercised (or bypassed) the mechanism the
    /// workload was chosen for; each entry is one violated expectation.
    fn mechanism_violations(counters: &Counters) -> Vec<String>;
    fn teardown(self) {}
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    /// Sample count behind a timing.
    pub samples: Option<usize>,
}

pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Violated output or mechanism checks; empty means correct.
    pub violations: Vec<String>,
    pub notes: Vec<String>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }
}

pub fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// Fresh-fingerprint copy of `base`: every process-wide cache is keyed on
/// the identity fingerprint, so this is what makes a print cold.
pub fn fresh(base: &DataFrame) -> DataFrame {
    let names: Vec<&str> = base.column_names().iter().map(String::as_str).collect();
    base.select(&names)
        .expect("select of a frame's own columns")
}

/// Output check for an in-process print: not shed, at least one tab, at
/// least one visualization with data.
pub fn widget_ok(w: &Widget) -> bool {
    !w.was_shed() && !w.tabs().is_empty() && has_data(w.results())
}

pub fn has_data(results: &[ActionResult]) -> bool {
    results.iter().any(|r| {
        r.visualizations()
            .iter()
            .any(|v| v.data.as_ref().is_some_and(|d| d.num_rows() > 0))
    })
}

/// Share of the exact top-k each action still returns with PRUNE on:
/// |specs under `all_opt` ∩ specs under `wflow_only`| / |exact|, keyed by
/// `spec.describe()`, averaged over actions and frames.
pub fn topk_recall(frames: &[Arc<DataFrame>]) -> f64 {
    let specs = |base: &DataFrame, cfg: LuxConfig| -> Vec<(String, Vec<String>)> {
        LuxDataFrame::with_config(fresh(base), Arc::new(cfg))
            .recommendations()
            .iter()
            .map(|r| {
                let keys = r.visualizations().iter().map(|v| v.spec.describe());
                (r.action.clone(), keys.collect())
            })
            .collect()
    };
    let mut shares = Vec::new();
    for base in frames {
        let approx = specs(base, LuxConfig::all_opt());
        for (action, exact) in specs(base, LuxConfig::wflow_only()) {
            if exact.is_empty() {
                continue;
            }
            let kept = approx
                .iter()
                .find(|(a, _)| *a == action)
                .map_or(0, |(_, got)| {
                    exact.iter().filter(|k| got.contains(k)).count()
                });
            shares.push(kept as f64 / exact.len() as f64);
        }
    }
    stats::mean(&shares)
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn timing(name: &'static str, samples: &[f64], q: f64) -> Metric {
    Metric {
        name,
        value: stats::quantile(&stats::sorted(samples), q),
        samples: Some(samples.len()),
    }
}

pub fn plain(name: &'static str, value: f64) -> Metric {
    Metric {
        name,
        value,
        samples: None,
    }
}

pub fn run<W: Workload>(ctx: &Ctx, trace: bool) -> RunResult {
    let rounds = if trace { 1 } else { SETUP_ROUNDS };
    let mut setups = Vec::with_capacity(rounds);
    let mut workload: Option<W> = None;
    for round in 0..rounds {
        if let Some(previous) = workload.take() {
            previous.teardown();
        }
        let t = Instant::now();
        workload = Some(W::setup(ctx, round));
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut w = workload.expect("at least one set-up round");
    w.measure(WARMUP, None);

    let window = Duration::from_secs_f64(ctx.seconds);
    let result = if trace {
        traced(ctx, &mut w, window)
    } else {
        let m = w.measure(window, None);
        let recall = topk_recall(&w.probe_inputs().frames);
        let violations = W::mechanism_violations(&m.counters);
        untraced(m, &setups, recall, violations)
    };
    w.teardown();
    result
}

fn untraced(m: Measured, setups: &[f64], recall: f64, mut violations: Vec<String>) -> RunResult {
    let mut notes = vec![format!("setup_s is the median of {setups:.4?}")];
    if !stats::tail_is_resolved(m.latency_ms.len(), 0.9) {
        notes.push(format!(
            "latency_p90_ms rests on {} sample(s) beyond it (want >= 10): lengthen --seconds",
            stats::beyond(m.latency_ms.len(), 0.9)
        ));
    }
    for (what, n) in [
        ("latency", m.latency_ms.len()),
        ("first-result", m.first_result_ms.len()),
        ("write", m.write_ms.len()),
        ("overhead baseline", m.without_ms.len()),
    ] {
        if n == 0 {
            violations.push(format!("the window produced no {what} sample"));
        }
    }
    let metrics = vec![
        plain("setup_s", stats::p50(setups)),
        timing("latency_p50_ms", &m.latency_ms, 0.5),
        timing("latency_p90_ms", &m.latency_ms, 0.9),
        plain("throughput_ops_s", m.ops as f64 / m.busy_s),
        timing("first_result_p50_ms", &m.first_result_ms, 0.5),
        timing("write_p50_ms", &m.write_ms, 0.5),
        plain(
            "overhead_ratio",
            stats::p50(&m.with_ms) / stats::p50(&m.without_ms),
        ),
        plain("topk_recall", recall),
        plain(
            "success_ratio",
            1.0 - m.failed as f64 / m.attempted.max(1) as f64,
        ),
        plain("peak_rss_mb", peak_rss_mb()),
    ];
    RunResult {
        attempted: m.attempted,
        failed: m.failed,
        metrics,
        violations,
        notes,
    }
}

fn traced<W: Workload>(ctx: &Ctx, w: &mut W, window: Duration) -> RunResult {
    // The same loop with spans off and on, in alternating slices so both
    // see the same machine: the difference is what observing costs.
    const SLICES: u32 = 4;
    let spans = SpanBuf::new();
    let (mut off, mut on) = (Measured::default(), Measured::default());
    for _ in 0..SLICES {
        off.absorb(w.measure(window.mul_f64(0.2) / SLICES, None));
        on.absorb(w.measure(window.mul_f64(0.3) / SLICES, Some(&spans)));
    }
    let p50_off = stats::p50(&off.latency_ms);
    let overhead_pct = (stats::p50(&on.latency_ms) - p50_off) / p50_off * 100.0;

    let wait_p50_us = MetricsRegistry::global()
        .histogram_handle(counter::ADMISSION_WAIT)
        .quantile_ns(0.5) as f64
        / 1e3;
    let c = on.counters;
    let mut metrics = vec![
        plain("trace.overhead_pct", overhead_pct),
        plain("engine.admission.admits", c.admits as f64),
        plain("engine.admission.sheds", c.sheds as f64),
        plain("engine.admission.wait_p50_us", wait_p50_us),
        plain("recs.prune.gate_engaged", c.prune_engaged as f64),
        plain("recs.prune.gate_skipped", c.prune_skipped as f64),
        plain("core.memo.vis_hit_ratio", c.vis_hit_ratio()),
        plain("core.wflow.memo_hit_ratio", c.wflow_hit_ratio()),
    ];
    let mut violations = W::mechanism_violations(&c);

    metrics.extend(crate::probe::layers(
        &w.probe_inputs(),
        window.mul_f64(0.25),
        &spans,
        &mut violations,
    ));
    let kernels = crate::kernels::run(ctx, &spans);
    metrics.extend(kernels.metrics);
    violations.extend(kernels.violations);

    let spans = spans.snapshot();
    let mut notes = vec![format!(
        "trace.overhead_pct: spans-on p50 over {} op(s) vs spans-off p50 over {} op(s)",
        on.latency_ms.len(),
        off.latency_ms.len()
    )];
    notes.push("self time by span (count, self ms, total ms):".to_string());
    for (name, (count, self_ms, total_ms)) in crate::spans::summary(&spans) {
        notes.push(format!(
            "  {name:<28} {count:>6} {self_ms:>12.3} {total_ms:>12.3}"
        ));
    }
    let path = ctx.out_dir.join(format!("trace-{}.json", ctx.workload));
    match std::fs::write(&path, crate::spans::chrome_trace(&spans)) {
        Ok(()) => notes.push(format!(
            "{} span(s) written to {}",
            spans.len(),
            path.display()
        )),
        Err(e) => violations.push(format!("writing {}: {e}", path.display())),
    }
    RunResult {
        attempted: off.attempted + on.attempted,
        failed: off.failed + on.failed,
        metrics,
        violations,
        notes,
    }
}
