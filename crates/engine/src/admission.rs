//! Global admission control and load shedding for multi-session engines.
//!
//! The governor bounds what *one* pass may do, while the pool and the
//! metrics are process-wide. Nothing else bounds what N concurrent sessions
//! can collectively do to that shared state. This module closes the gap
//! with three pieces (DESIGN.md §10):
//!
//! - an [`AdmissionController`]: every recommendation pass acquires a slot
//!   from a bounded pool through a deadline-aware wait queue where
//!   interactive prints outrank streaming/background passes;
//! - a [`GlobalLedger`]: a process-wide memory cap that every live pass
//!   [`crate::governor::BudgetHandle`] charges in addition to its own
//!   per-pass cap, so concurrent passes can never jointly overshoot;
//! - a shed ladder extending the PR 3 degradation ladder across sessions:
//!   under pressure an admitted pass is forced into PRUNE/sample mode
//!   ([`PressureLevel::Elevated`]), then has its candidate and byte caps
//!   shrunk ([`PressureLevel::Critical`]), and finally the pass is refused
//!   outright with a well-formed "engine busy" notice ([`Admission::Shed`])
//!   — never a panic and never an unbounded wait.
//!
//! [`AdmissionController::admit_request`] is the one door: every grant and
//! every shed is decided there, in one queue where background passes wait
//! once behind interactive ones. Every decision is accounted in
//! `lux.admission.*` metrics and in [`AdmissionController::stats`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, RwLock};
use std::time::Duration;

use crate::clock;
use crate::governor::ResourceBudget;
use crate::sync::lock_recover;
use crate::trace::{names, MetricsRegistry};

// ---------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------

/// Process-wide admission knobs. Defaults come from the environment on
/// first use of [`AdmissionController::global`]; tests reconfigure live via
/// [`AdmissionController::reconfigure`].
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Concurrency slots: passes allowed to execute at once
    /// (`LUX_MAX_SESSIONS`). Clamped to ≥ 1.
    pub max_sessions: usize,
    /// Global memory ledger cap in bytes, aggregated across every live
    /// pass budget.
    pub max_global_bytes: u64,
    /// How long an interactive pass may wait for a slot before it is shed
    /// (`LUX_ADMIT_TIMEOUT_MS`).
    pub interactive_deadline: Duration,
    /// How long a background pass may wait for a slot before it is shed.
    pub background_deadline: Duration,
    /// Waiting passes beyond which new arrivals are shed immediately
    /// instead of queueing (bounds the queue itself).
    pub max_queue: usize,
    /// Concurrent passes one *tenant* may hold at once; follows
    /// `max_sessions` unless set programmatically. Tenants are named by the
    /// serving layer; tenant-less passes (the REPL, library callers) are
    /// not counted. Clamped to ≥ 1.
    pub tenant_max_sessions: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism().map_or(4, |n| n.get());
        AdmissionConfig {
            max_sessions: (2 * cores).max(4),
            max_global_bytes: 1 << 30, // 1 GiB across all live passes
            interactive_deadline: Duration::from_millis(2_000),
            background_deadline: Duration::from_millis(750),
            max_queue: (8 * cores).max(32),
            tenant_max_sessions: (2 * cores).max(4),
        }
    }
}

impl AdmissionConfig {
    /// Defaults overridden by `LUX_MAX_SESSIONS` and `LUX_ADMIT_TIMEOUT_MS`
    /// when set ([`crate::knobs`]; an invalid value keeps the default).
    pub fn from_env() -> AdmissionConfig {
        let env = crate::knobs::knobs();
        let d = AdmissionConfig::default();
        let max_sessions = env.max_sessions.map_or(d.max_sessions, |n| n.max(1));
        AdmissionConfig {
            max_sessions,
            interactive_deadline: env.admit_timeout.unwrap_or(d.interactive_deadline),
            tenant_max_sessions: max_sessions,
            ..d
        }
    }
}

// ---------------------------------------------------------------------
// Global memory ledger
// ---------------------------------------------------------------------

/// Process-wide byte ledger aggregating every live pass budget. A pass's
/// [`crate::governor::BudgetHandle`] charges here *in addition to* its own
/// per-pass cap and releases its whole charge when the pass's handle drops,
/// so `live()` is exactly the sum of live pass charges and can never exceed
/// `cap()` — concurrent sessions jointly stay under the global cap by
/// construction.
#[derive(Debug)]
pub struct GlobalLedger {
    cap: AtomicU64,
    live: AtomicU64,
    peak: AtomicU64,
    /// Cached metric handle: charging is hot, the registry map lock isn't.
    refusal_metric: Arc<AtomicU64>,
}

impl GlobalLedger {
    pub fn new(cap: u64) -> GlobalLedger {
        GlobalLedger {
            cap: AtomicU64::new(cap.max(1)),
            live: AtomicU64::new(0),
            peak: AtomicU64::new(0),
            refusal_metric: MetricsRegistry::global()
                .counter_handle(names::ADMISSION_LEDGER_REFUSALS),
        }
    }

    /// Charge `bytes` against the global cap; false (without charging) when
    /// the charge would cross it.
    pub fn try_charge(&self, bytes: u64) -> bool {
        let cap = self.cap.load(Ordering::Relaxed);
        let mut current = self.live.load(Ordering::Relaxed);
        loop {
            let next = current.saturating_add(bytes);
            if next > cap {
                self.refusal_metric.fetch_add(1, Ordering::Relaxed);
                return false;
            }
            match self.live.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.peak.fetch_max(next, Ordering::Relaxed);
                    return true;
                }
                Err(seen) => current = seen,
            }
        }
    }

    /// Return `bytes` to the ledger (pass budget dropped).
    pub fn release(&self, bytes: u64) {
        let mut current = self.live.load(Ordering::Relaxed);
        loop {
            let next = current.saturating_sub(bytes);
            match self.live.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => current = seen,
            }
        }
    }

    pub fn live(&self) -> u64 {
        self.live.load(Ordering::Relaxed)
    }

    pub fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }

    pub fn cap(&self) -> u64 {
        self.cap.load(Ordering::Relaxed)
    }

    fn set_cap(&self, cap: u64) {
        self.cap.store(cap.max(1), Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------
// Admission controller
// ---------------------------------------------------------------------

/// Who is asking for a slot. Interactive prints outrank background and
/// streaming passes in the wait queue: a slot freed while both wait always
/// goes to an interactive waiter first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Priority {
    /// A user is watching (the `print` path).
    Interactive,
    /// Streaming/background recomputation: waits once, behind every
    /// interactive waiter, for [`AdmissionConfig::background_deadline`].
    Background,
}

impl Priority {
    pub fn name(self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Background => "background",
        }
    }
}

/// How loaded the engine was at admission time; decides the shed-ladder
/// rung the admitted pass must run at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PressureLevel {
    /// Run exact.
    Normal,
    /// Force PRUNE/sample mode (ledger filling up, or passes queueing).
    Elevated,
    /// Also shrink candidate and per-pass byte caps.
    Critical,
}

impl PressureLevel {
    pub fn name(self) -> &'static str {
        match self {
            PressureLevel::Normal => "normal",
            PressureLevel::Elevated => "elevated",
            PressureLevel::Critical => "critical",
        }
    }
}

/// Why a pass was refused.
#[derive(Debug, Clone)]
pub struct ShedReason {
    pub reason: String,
    pub priority: Priority,
}

/// Outcome of an admission request.
pub enum Admission {
    /// A slot was granted; holds it until the permit drops.
    Granted(AdmissionPermit),
    /// The pass was shed; render a busy notice (interactive) or a failed
    /// health entry (background). Never panic, never hang.
    Shed(ShedReason),
}

/// Parameters of one admission request. The plain [`AdmissionController::
/// admit`] path is `AdmitRequest::new(priority)`; the serving layer adds a
/// tenant identity (quota enforcement) and a per-request deadline
/// (propagated from the client's wire deadline, overriding the configured
/// wait).
#[derive(Debug, Clone)]
pub struct AdmitRequest {
    pub priority: Priority,
    /// The request's own end-to-end deadline: it bounds the wait, and one
    /// that queueing leaves under 1 ms sheds. `None` waits for the
    /// priority's configured deadline.
    pub deadline: Option<Duration>,
    /// Tenant this pass is accounted to; `None` passes are un-quota'd.
    pub tenant: Option<String>,
}

impl AdmitRequest {
    pub fn new(priority: Priority) -> AdmitRequest {
        AdmitRequest {
            priority,
            deadline: None,
            tenant: None,
        }
    }

    pub fn with_deadline(mut self, deadline: Option<Duration>) -> AdmitRequest {
        self.deadline = deadline;
        self
    }

    pub fn with_tenant(mut self, tenant: Option<String>) -> AdmitRequest {
        self.tenant = tenant;
        self
    }
}

struct QueueState {
    active: usize,
    /// The tenant of each queued interactive pass (a quota may bar it).
    waiting_interactive: Vec<Option<String>>,
    waiting_background: usize,
    admits: u64,
    sheds: u64,
    queue_waits: u64,
    /// Live passes per tenant (serving layer only; entries are removed at
    /// zero so the map stays bounded by live tenants).
    tenant_active: HashMap<String, usize>,
}

struct Inner {
    cfg: RwLock<AdmissionConfig>,
    state: Mutex<QueueState>,
    cond: Condvar,
    ledger: Arc<GlobalLedger>,
}

/// The process-wide pass gate. See module docs.
pub struct AdmissionController {
    inner: Arc<Inner>,
}

/// Point-in-time admission state for REPL `stats` / `health`.
#[derive(Debug, Clone)]
pub struct AdmissionStats {
    pub live_sessions: usize,
    pub slots: usize,
    pub queue_depth: usize,
    pub admits: u64,
    pub queue_waits: u64,
    pub sheds: u64,
    pub ledger_live: u64,
    pub ledger_peak: u64,
    pub ledger_cap: u64,
    /// Tenants currently holding at least one pass (serving layer).
    pub live_tenants: usize,
}

impl AdmissionStats {
    /// REPL-facing rendering, matching `MetricsSnapshot::render_text` style.
    pub fn render_text(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "admission:");
        let _ = writeln!(
            out,
            "  sessions {} live / {} slots, queue depth {}, {} tenant(s) live",
            self.live_sessions, self.slots, self.queue_depth, self.live_tenants
        );
        let _ = writeln!(
            out,
            "  admits {} (waited {}), sheds {}",
            self.admits, self.queue_waits, self.sheds
        );
        let _ = writeln!(
            out,
            "  ledger {} live / {} cap (peak {})",
            fmt_bytes(self.ledger_live),
            fmt_bytes(self.ledger_cap),
            fmt_bytes(self.ledger_peak),
        );
        out
    }
}

fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 30 {
        format!("{:.1}GiB", b as f64 / (1u64 << 30) as f64)
    } else if b >= 1 << 20 {
        format!("{:.1}MiB", b as f64 / (1u64 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.1}KiB", b as f64 / (1u64 << 10) as f64)
    } else {
        format!("{b}B")
    }
}

impl AdmissionController {
    pub fn new(cfg: AdmissionConfig) -> AdmissionController {
        let ledger = Arc::new(GlobalLedger::new(cfg.max_global_bytes));
        AdmissionController {
            inner: Arc::new(Inner {
                cfg: RwLock::new(cfg),
                state: Mutex::new(QueueState {
                    active: 0,
                    waiting_interactive: Vec::new(),
                    waiting_background: 0,
                    admits: 0,
                    sheds: 0,
                    queue_waits: 0,
                    tenant_active: HashMap::new(),
                }),
                cond: Condvar::new(),
                ledger,
            }),
        }
    }

    /// The process-wide controller, configured from the environment on
    /// first use. Also the spot that initialises the failpoint subsystem:
    /// every print pass goes through here, so `LUX_FAILPOINTS` is always
    /// honoured without any extra call site.
    pub fn global() -> &'static AdmissionController {
        static GLOBAL: OnceLock<AdmissionController> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            crate::failpoint::init();
            AdmissionController::new(AdmissionConfig::from_env())
        })
    }

    /// Replace the configuration live (tests, REPL tuning). Waiters are
    /// woken so a raised slot count takes effect immediately.
    pub fn reconfigure(&self, cfg: AdmissionConfig) {
        self.inner.ledger.set_cap(cfg.max_global_bytes);
        *self
            .inner
            .cfg
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = cfg;
        self.inner.cond.notify_all();
    }

    pub fn config(&self) -> AdmissionConfig {
        self.inner
            .cfg
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// The global memory ledger this controller enforces.
    pub fn ledger(&self) -> Arc<GlobalLedger> {
        Arc::clone(&self.inner.ledger)
    }

    /// Request a slot, waiting up to the priority's deadline. Interactive
    /// waiters always beat background waiters to a freed slot. Returns
    /// [`Admission::Shed`] when the queue is full or the deadline expires —
    /// a bounded wait, never a hang.
    pub fn admit(&self, priority: Priority) -> Admission {
        self.admit_request(AdmitRequest::new(priority))
    }

    /// [`Self::admit`] with explicit parameters: a per-request wait
    /// deadline (the serving layer propagates the client's wire deadline
    /// here) and a tenant identity enforced against
    /// [`AdmissionConfig::tenant_max_sessions`]. A tenant at its quota is
    /// shed immediately with a distinguishable reason rather than queueing —
    /// one greedy tenant can never starve the shared wait queue.
    pub fn admit_request(&self, req: AdmitRequest) -> Admission {
        let priority = req.priority;
        if let Some(msg) = crate::failpoint::hit(crate::failpoint::names::ADMISSION_ACQUIRE) {
            return self.shed(priority, format!("injected refusal: {msg}"));
        }
        let cfg = self.config();
        let slots = cfg.max_sessions.max(1);
        let tenant_cap = cfg.tenant_max_sessions.max(1);
        let deadline = req.deadline.unwrap_or(match priority {
            Priority::Interactive => cfg.interactive_deadline,
            Priority::Background => cfg.background_deadline,
        });
        let start = clock::now();
        let metrics = MetricsRegistry::global();
        let mut st = lock_recover(&self.inner.state);
        if let Some(tenant) = &req.tenant {
            let live = st.tenant_active.get(tenant).copied().unwrap_or(0);
            if live >= tenant_cap {
                drop(st);
                return self.shed(
                    priority,
                    format!("tenant quota: {live} live passes (cap {tenant_cap})"),
                );
            }
        }
        let mut waited = false;
        loop {
            let under_quota = |tenant: &Option<String>| {
                (tenant.as_ref())
                    .is_none_or(|t| st.tenant_active.get(t).copied().unwrap_or(0) < tenant_cap)
            };
            // Background yields only to interactive waiters free to go.
            let eligible = priority == Priority::Interactive
                || !st.waiting_interactive.iter().any(under_quota);
            // Re-checked on every wakeup: a sibling pass of the same tenant
            // may have been admitted while this one waited.
            let tenant_ok = under_quota(&req.tenant);
            if st.active < slots && eligible && tenant_ok {
                let wait = clock::elapsed(start);
                let left = req.deadline.map(|d| d.saturating_sub(wait));
                if left.is_some_and(|l| l < Duration::from_millis(1)) {
                    drop(st);
                    let reason = "deadline exhausted while waiting for a slot";
                    return self.shed(priority, reason.to_string());
                }
                st.active += 1;
                st.admits += 1;
                if let Some(tenant) = &req.tenant {
                    *st.tenant_active.entry(tenant.clone()).or_insert(0) += 1;
                }
                if waited {
                    st.queue_waits += 1;
                }
                metrics.incr(names::ADMISSION_ADMITS);
                metrics.observe(names::ADMISSION_WAIT, wait);
                let pressure = self.pressure_locked(&st, slots);
                drop(st);
                return Admission::Granted(AdmissionPermit {
                    inner: Arc::clone(&self.inner),
                    pressure,
                    waited: wait,
                    priority,
                    tenant: req.tenant,
                });
            }
            if !waited {
                // Arriving to a full engine: shed immediately if the queue
                // itself is full, otherwise join it.
                let queued = st.waiting_interactive.len() + st.waiting_background;
                if queued >= cfg.max_queue {
                    drop(st);
                    return self.shed(
                        priority,
                        format!("admission queue full ({queued} waiting, {slots} slots busy)"),
                    );
                }
            }
            // A waiter sheds the moment its whole deadline has passed.
            let remaining = deadline.saturating_sub(clock::elapsed(start));
            if remaining.is_zero() {
                drop(st);
                let ms = deadline.as_millis();
                return self.shed(
                    priority,
                    format!("no slot within {ms}ms ({slots} slots busy)"),
                );
            }
            waited = true;
            match priority {
                Priority::Interactive => st.waiting_interactive.push(req.tenant.clone()),
                Priority::Background => st.waiting_background += 1,
            }
            // Bounded naps so config changes and missed wakeups can't
            // strand a waiter past its deadline.
            let nap = remaining.min(Duration::from_millis(50));
            let (guard, _timeout) = clock::wait_timeout(&self.inner.cond, st, nap);
            st = guard;
            match priority {
                Priority::Interactive => {
                    let queued = st.waiting_interactive.iter().position(|t| *t == req.tenant);
                    st.waiting_interactive
                        .swap_remove(queued.expect("queued above"));
                }
                Priority::Background => st.waiting_background -= 1,
            }
        }
    }

    fn shed(&self, priority: Priority, reason: String) -> Admission {
        {
            let mut st = lock_recover(&self.inner.state);
            st.sheds += 1;
        }
        MetricsRegistry::global().incr(names::ADMISSION_SHEDS);
        Admission::Shed(ShedReason { reason, priority })
    }

    fn pressure_locked(&self, st: &QueueState, slots: usize) -> PressureLevel {
        let ledger = &self.inner.ledger;
        let util = ledger.live() as f64 / ledger.cap().max(1) as f64;
        let queued = st.waiting_interactive.len() + st.waiting_background;
        if util > 0.85 || queued >= slots.max(1) {
            PressureLevel::Critical
        } else if util > 0.60 || queued > 0 || st.active >= slots {
            PressureLevel::Elevated
        } else {
            PressureLevel::Normal
        }
    }

    /// Point-in-time state for the REPL.
    pub fn stats(&self) -> AdmissionStats {
        let st = lock_recover(&self.inner.state);
        let cfg = self.config();
        AdmissionStats {
            live_sessions: st.active,
            slots: cfg.max_sessions.max(1),
            queue_depth: st.waiting_interactive.len() + st.waiting_background,
            admits: st.admits,
            queue_waits: st.queue_waits,
            sheds: st.sheds,
            ledger_live: self.inner.ledger.live(),
            ledger_peak: self.inner.ledger.peak(),
            ledger_cap: self.inner.ledger.cap(),
            live_tenants: st.tenant_active.len(),
        }
    }
}

/// A held concurrency slot. Shapes the pass budget to the pressure level
/// observed at admission and releases the slot on drop.
pub struct AdmissionPermit {
    inner: Arc<Inner>,
    pressure: PressureLevel,
    waited: Duration,
    priority: Priority,
    tenant: Option<String>,
}

impl AdmissionPermit {
    pub fn pressure(&self) -> PressureLevel {
        self.pressure
    }

    pub fn waited(&self) -> Duration {
        self.waited
    }

    pub fn priority(&self) -> Priority {
        self.priority
    }

    /// The tenant this pass is accounted to, when admitted through
    /// [`AdmissionController::admit_request`] with one.
    pub fn tenant(&self) -> Option<&str> {
        self.tenant.as_deref()
    }

    /// The global ledger the pass budget must charge.
    pub fn ledger(&self) -> Arc<GlobalLedger> {
        Arc::clone(&self.inner.ledger)
    }

    /// Apply the shed ladder to the pass budget: at `Elevated` the pass is
    /// forced into PRUNE/sample mode (the returned floor), at `Critical`
    /// its candidate cap is quartered and its byte cap shrunk to a fair
    /// share of the remaining global headroom.
    pub fn shape_budget(
        &self,
        base: &ResourceBudget,
    ) -> (ResourceBudget, crate::governor::DegradeLevel) {
        use crate::governor::DegradeLevel;
        match self.pressure {
            PressureLevel::Normal => (base.clone(), DegradeLevel::Exact),
            PressureLevel::Elevated => (base.clone(), DegradeLevel::Sampled),
            PressureLevel::Critical => {
                let ledger = &self.inner.ledger;
                let slots = self
                    .inner
                    .cfg
                    .read()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .max_sessions
                    .max(1) as u64;
                let headroom = ledger.cap().saturating_sub(ledger.live());
                // Fair share of what's left, floored so a pass can still
                // make progress and always within the per-pass cap.
                let share = (headroom / slots.max(1)).max(1 << 20);
                let mut shaped = base.clone();
                shaped.max_bytes = shaped.max_bytes.min(share);
                shaped.max_candidates = (shaped.max_candidates / 4).max(8);
                (shaped, DegradeLevel::Sampled)
            }
        }
    }
}

impl Drop for AdmissionPermit {
    fn drop(&mut self) {
        let mut st = lock_recover(&self.inner.state);
        st.active = st.active.saturating_sub(1);
        if let Some(tenant) = &self.tenant {
            // Release the tenant's quota share. Dropping the permit is the
            // *only* release path, so a connection that dies mid-request
            // frees its tenant slot the moment the handler unwinds.
            if let Some(live) = st.tenant_active.get_mut(tenant) {
                *live = live.saturating_sub(1);
                if *live == 0 {
                    st.tenant_active.remove(tenant);
                }
            }
        }
        drop(st);
        self.inner.cond.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(slots: usize) -> AdmissionController {
        AdmissionController::new(AdmissionConfig {
            max_sessions: slots,
            max_global_bytes: 64 << 20,
            interactive_deadline: Duration::from_millis(50),
            background_deadline: Duration::from_millis(10),
            max_queue: 4,
            tenant_max_sessions: 1,
        })
    }

    #[test]
    fn grants_up_to_slots_then_sheds_on_deadline() {
        let c = tiny(2);
        let p1 = match c.admit(Priority::Interactive) {
            Admission::Granted(p) => p,
            Admission::Shed(r) => panic!("unexpected shed: {}", r.reason),
        };
        let _p2 = match c.admit(Priority::Interactive) {
            Admission::Granted(p) => p,
            Admission::Shed(r) => panic!("unexpected shed: {}", r.reason),
        };
        match c.admit(Priority::Interactive) {
            Admission::Granted(_) => panic!("third admit should wait out and shed"),
            Admission::Shed(r) => assert!(r.reason.contains("no slot"), "{}", r.reason),
        }
        drop(p1);
        match c.admit(Priority::Interactive) {
            Admission::Granted(_) => {}
            Admission::Shed(r) => panic!("slot was free: {}", r.reason),
        }
    }

    #[test]
    fn freed_slot_goes_to_interactive_before_background() {
        let c = Arc::new(tiny(1));
        let held = match c.admit(Priority::Interactive) {
            Admission::Granted(p) => p,
            Admission::Shed(r) => panic!("{}", r.reason),
        };
        // Give both waiters generous deadlines for this race.
        c.reconfigure(AdmissionConfig {
            interactive_deadline: Duration::from_secs(5),
            background_deadline: Duration::from_secs(5),
            ..c.config()
        });
        let (tx, rx) = std::sync::mpsc::channel::<&'static str>();
        let cb = Arc::clone(&c);
        let txb = tx.clone();
        let bg = std::thread::spawn(move || {
            let got = cb.admit(Priority::Background);
            let _ = txb.send("background");
            drop(got);
        });
        std::thread::sleep(Duration::from_millis(30));
        let ci = Arc::clone(&c);
        let it = std::thread::spawn(move || {
            let got = ci.admit(Priority::Interactive);
            let _ = tx.send("interactive");
            // Hold briefly so the background waiter observes the slot busy.
            std::thread::sleep(Duration::from_millis(20));
            drop(got);
        });
        std::thread::sleep(Duration::from_millis(30));
        drop(held);
        let first = rx.recv_timeout(Duration::from_secs(5)).expect("one waiter");
        assert_eq!(first, "interactive", "interactive must win the freed slot");
        it.join().expect("interactive thread");
        bg.join().expect("background thread");
    }

    /// A queued print its tenant's quota bars from every slot does not
    /// hold a background request off a free one.
    #[test]
    fn a_quota_barred_waiter_does_not_hold_background_off_a_free_slot() {
        let c = Arc::new(tiny(2)); // tenant cap 1
        let grant = |a: Admission| match a {
            Admission::Granted(p) => p,
            Admission::Shed(r) => panic!("unexpected shed: {}", r.reason),
        };
        let held = [
            grant(c.admit(Priority::Interactive)),
            grant(c.admit(Priority::Interactive)),
        ];
        c.reconfigure(AdmissionConfig {
            interactive_deadline: Duration::from_secs(10),
            ..c.config()
        });
        let settle = |live: usize, queued: usize| {
            let start = clock::now();
            while (c.stats().live_sessions, c.stats().queue_depth) != (live, queued) {
                let stats = c.stats();
                assert!(clock::elapsed(start) < Duration::from_secs(10), "{stats:?}");
                std::thread::yield_now();
            }
        };
        let (tx, rx) = std::sync::mpsc::channel();
        let prints: Vec<_> = (0..2)
            .map(|_| {
                let (c, tx) = (Arc::clone(&c), tx.clone());
                std::thread::spawn(move || {
                    let req =
                        AdmitRequest::new(Priority::Interactive).with_tenant(Some("a".into()));
                    let _ = tx.send(c.admit_request(req));
                })
            })
            .collect();
        settle(2, 2);
        drop(held);
        let first = grant(rx.recv_timeout(Duration::from_secs(10)).expect("a print"));
        // One slot free; the other print waits on its tenant's quota.
        settle(1, 1);
        c.reconfigure(AdmissionConfig {
            background_deadline: Duration::from_millis(100),
            ..c.config()
        });
        let background = grant(c.admit(Priority::Background));
        drop((background, first));
        drop(grant(
            rx.recv_timeout(Duration::from_secs(10))
                .expect("the other print"),
        ));
        for print in prints {
            print.join().expect("print thread");
        }
    }

    #[test]
    fn ledger_charges_and_releases() {
        let l = GlobalLedger::new(1_000);
        let refusals0 = MetricsRegistry::global().counter(names::ADMISSION_LEDGER_REFUSALS);
        assert!(l.try_charge(600));
        assert!(!l.try_charge(600), "would cross cap");
        assert!(MetricsRegistry::global().counter(names::ADMISSION_LEDGER_REFUSALS) > refusals0);
        assert_eq!(l.live(), 600);
        assert_eq!(l.peak(), 600);
        l.release(600);
        assert_eq!(l.live(), 0);
        assert!(l.try_charge(1_000));
        assert_eq!(l.peak(), 1_000);
    }

    #[test]
    fn pressure_shapes_budget() {
        let c = tiny(2);
        // Fill the ledger past the critical threshold.
        assert!(c.ledger().try_charge(60 << 20));
        let p = match c.admit(Priority::Interactive) {
            Admission::Granted(p) => p,
            Admission::Shed(r) => panic!("{}", r.reason),
        };
        assert_eq!(p.pressure(), PressureLevel::Critical);
        let base = ResourceBudget::default();
        let (shaped, floor) = p.shape_budget(&base);
        assert_eq!(floor, crate::governor::DegradeLevel::Sampled);
        assert!(shaped.max_bytes < base.max_bytes);
        assert_eq!(shaped.max_candidates, base.max_candidates / 4);
        c.ledger().release(60 << 20);
    }

    #[test]
    fn tenant_quota_sheds_at_cap_and_releases_on_drop() {
        let c = tiny(4); // 4 slots, but tenant cap is 1
        let req = || AdmitRequest::new(Priority::Interactive).with_tenant(Some("acme".into()));
        let held = match c.admit_request(req()) {
            Admission::Granted(p) => p,
            Admission::Shed(r) => panic!("{}", r.reason),
        };
        assert_eq!(held.tenant(), Some("acme"));
        // Same tenant: quota'd out immediately even though slots are free.
        match c.admit_request(req()) {
            Admission::Granted(_) => panic!("tenant cap is 1"),
            Admission::Shed(r) => assert!(r.reason.contains("tenant quota"), "{}", r.reason),
        }
        // A different tenant is unaffected.
        let other =
            c.admit_request(AdmitRequest::new(Priority::Interactive).with_tenant(Some("b".into())));
        assert!(matches!(other, Admission::Granted(_)));
        assert_eq!(c.stats().live_tenants, 2);
        // Dropping the permit frees the tenant's share.
        drop(held);
        match c.admit_request(req()) {
            Admission::Granted(_) => {}
            Admission::Shed(r) => panic!("quota should be free again: {}", r.reason),
        }
    }

    #[test]
    fn request_deadline_overrides_configured_wait() {
        let c = tiny(1);
        let _held = match c.admit(Priority::Interactive) {
            Admission::Granted(p) => p,
            Admission::Shed(r) => panic!("{}", r.reason),
        };
        // Configured interactive deadline is 50ms; a 1ms request deadline
        // must shed far sooner.
        let start = clock::now();
        let req =
            AdmitRequest::new(Priority::Interactive).with_deadline(Some(Duration::from_millis(1)));
        match c.admit_request(req) {
            Admission::Granted(_) => panic!("slot is held"),
            Admission::Shed(r) => assert!(r.reason.contains("no slot"), "{}", r.reason),
        }
        assert!(
            clock::elapsed(start) < Duration::from_millis(40),
            "request deadline was not honoured: {:?}",
            clock::elapsed(start)
        );
    }

    #[test]
    fn stats_account_for_decisions() {
        let c = tiny(1);
        let p = match c.admit(Priority::Interactive) {
            Admission::Granted(p) => p,
            Admission::Shed(r) => panic!("{}", r.reason),
        };
        let s = c.stats();
        assert_eq!(s.live_sessions, 1);
        assert_eq!(s.admits, 1);
        match c.admit(Priority::Background) {
            Admission::Granted(_) => panic!("held"),
            Admission::Shed(_) => {}
        }
        let s = c.stats();
        assert_eq!(s.sheds, 1);
        drop(p);
        assert_eq!(c.stats().live_sessions, 0);
        assert!(s.render_text().contains("admission:"));
    }
}
