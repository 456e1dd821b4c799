//! The resource governor: per-pass budgets for the always-on print path.
//!
//! The paper's WFLOW/PRUNE optimizations bound *latency*; nothing bounds
//! *memory or work* when the frame itself is adversarial (millions of rows,
//! near-unique categorical columns, megabyte strings). The governor closes
//! that gap: every print pass creates one [`BudgetHandle`] from the
//! [`ResourceBudget`] in `LuxConfig`, charged before anything is allocated
//! by two planning steps that read no column data: the metadata pass's
//! column plan and each action's plan (`lux_recs`). A refused charge
//! degrades the step along a fixed ladder instead of OOMing or stalling:
//!
//! 1. **exact** — the normal path, within budget;
//! 2. **sampled** — recompute over the cached sample (PRUNE machinery);
//! 3. **capped cardinality** — "top-K + other" group enumeration
//!    ([`lux_dataframe`'s `groupby_capped`]).
//!
//! Each downgrade is recorded as a [`GovernorEvent`], surfaced as an
//! `ActionStatus::Degraded` reason, a `lux.governor.*` metric, and a span
//! tag in the pass trace, so a governed pass is always distinguishable from
//! an exact one.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::admission::GlobalLedger;
use crate::sync::lock_recover;
use crate::trace::{names, MetricsRegistry};

/// Per-pass resource ceilings. All knobs live on `LuxConfig` (field
/// `budget`), so callers tune them the same way they tune `top_k` or
/// `sample_cap`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceBudget {
    /// Approximate bytes of intermediate allocation one pass may perform
    /// across metadata, grouping, and processing. Charged via
    /// [`BudgetHandle::try_charge`]; a breach flips the handle to degraded
    /// mode for the rest of the pass.
    pub max_bytes: u64,
    /// Candidate visualizations one action may score; excess candidates are
    /// dropped (cheapest-estimated first ordering is preserved upstream).
    pub max_candidates: usize,
    /// Output cardinality ceiling for groupby / value_counts / bin
    /// results; beyond it, group enumeration folds into "top-K + other".
    pub max_group_cardinality: usize,
}

impl Default for ResourceBudget {
    fn default() -> Self {
        ResourceBudget {
            max_bytes: 256 << 20, // 256 MiB of intermediates per pass
            max_candidates: 64,
            max_group_cardinality: 1_000,
        }
    }
}

impl ResourceBudget {
    /// An effectively unlimited budget (for tests and opt-out).
    pub fn unlimited() -> ResourceBudget {
        ResourceBudget {
            max_bytes: u64::MAX,
            max_candidates: usize::MAX,
            max_group_cardinality: usize::MAX,
        }
    }
}

/// Bytes the metadata planner charges per exact distinct-set slot: a raw
/// `u64` key plus open-addressing slack and the smallest-K share. The fused
/// statistics kernels (`crate::stats`) keep encoded keys, not boxed
/// `Value`s, so this is a third of the old 48 B/slot hash-map estimate.
pub const METADATA_EXACT_SLOT_BYTES: u64 = 16;

/// Bytes the metadata planner charges for a column's cardinality sketch
/// (one `u8` register per bucket), charged only for columns tall enough
/// that the exact distinct set may overflow into a sketch.
pub fn metadata_sketch_bytes(precision: u32) -> u64 {
    1u64 << precision.min(63)
}

/// Where a governed step landed on the degradation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DegradeLevel {
    /// Normal path, within budget.
    Exact,
    /// Recomputed over the cached sample.
    Sampled,
    /// Group enumeration folded into "top-K + other".
    CappedCardinality,
}

impl fmt::Display for DegradeLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DegradeLevel::Exact => "exact",
            DegradeLevel::Sampled => "sampled",
            DegradeLevel::CappedCardinality => "capped-cardinality",
        })
    }
}

/// One recorded downgrade: which stage, to which rung, and why.
#[derive(Debug, Clone)]
pub struct GovernorEvent {
    /// Pipeline stage, e.g. `"metadata:city"`, `"action:Occurrence"`.
    pub stage: String,
    pub level: DegradeLevel,
    /// Human-readable cause, e.g. `"cardinality 998k > cap 1000"`.
    pub detail: String,
}

impl fmt::Display for GovernorEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -> {} ({})", self.stage, self.level, self.detail)
    }
}

/// A pass's byte meter and limits, shared by its [`BudgetHandle::scope`]s:
/// the last [`Account`] to let go of it — by dropping or by being fenced —
/// returns the pass's charge to the global ledger.
#[derive(Debug)]
struct Meter {
    budget: ResourceBudget,
    charged: AtomicU64,
    breached: AtomicBool,
    /// Accounts neither dropped nor fenced.
    holders: AtomicUsize,
    /// Global admission ledger every successful charge is mirrored into.
    /// `None` for ungoverned passes and standalone tests.
    ledger: Option<Arc<GlobalLedger>>,
    /// Admission-forced minimum degradation rung: `Sampled` means the pass
    /// must engage PRUNE/sample mode even where the cost model would not
    /// (the shed ladder, DESIGN.md §10).
    floor: DegradeLevel,
}

/// What one holder of a [`Meter`] has charged onto it: the pass's handle,
/// or an action's scope together with the scopes under it. It holds the
/// meter until it drops or is [fenced](BudgetHandle::fence).
#[derive(Debug)]
struct Account {
    meter: Arc<Meter>,
    /// `None` once fenced: charged bytes given back, later charges refused.
    own: Mutex<Option<u64>>,
}

impl Account {
    fn open(meter: Arc<Meter>) -> Arc<Account> {
        meter.holders.fetch_add(1, Ordering::Relaxed);
        let own = Mutex::new(Some(0));
        Arc::new(Account { meter, own })
    }

    /// Stop holding the meter; the last holder returns what the pass
    /// charged to the ledger. `charged` only ever holds ledger-accepted
    /// bytes (refused mirrors are rolled back in `try_charge`, fenced ones
    /// given back), so the release is exact.
    fn let_go(&self) {
        if self.meter.holders.fetch_sub(1, Ordering::AcqRel) == 1 {
            if let Some(ledger) = &self.meter.ledger {
                ledger.release(self.meter.charged.load(Ordering::Relaxed));
            }
        }
    }
}

impl Drop for Account {
    fn drop(&mut self) {
        if lock_recover(&self.own).is_some() {
            self.let_go();
        }
    }
}

/// The per-pass budget state: a shared [`Meter`] and an event list. Created
/// once per print pass and shared by `Arc` across the metadata, generation,
/// and scoring stages (including the async scheduler's worker threads).
#[derive(Debug)]
pub struct BudgetHandle {
    account: Arc<Account>,
    events: Mutex<Vec<GovernorEvent>>,
    /// False for a scope: its events count in the metrics when the pass's
    /// handle adopts them, so events the executor discards never count.
    counted: bool,
}

impl BudgetHandle {
    pub fn new(budget: ResourceBudget) -> BudgetHandle {
        BudgetHandle::metered(budget, None, DegradeLevel::Exact)
    }

    /// A handle whose charges also count against the process-wide admission
    /// ledger, carrying the admission-imposed degradation floor.
    pub fn governed(
        budget: ResourceBudget,
        ledger: Arc<GlobalLedger>,
        floor: DegradeLevel,
    ) -> BudgetHandle {
        BudgetHandle::metered(budget, Some(ledger), floor)
    }

    fn metered(
        budget: ResourceBudget,
        ledger: Option<Arc<GlobalLedger>>,
        floor: DegradeLevel,
    ) -> BudgetHandle {
        let meter = Meter {
            budget,
            charged: AtomicU64::new(0),
            breached: AtomicBool::new(false),
            holders: AtomicUsize::new(0),
            ledger,
            floor,
        };
        BudgetHandle {
            account: Account::open(Arc::new(meter)),
            events: Mutex::default(),
            counted: true,
        }
    }

    /// A handle on the same meter that keeps its own event list. Work that
    /// races its siblings (an action under ASYNC, a candidate on the pool)
    /// records on its own scope, and the executor [`adopt`](Self::adopt)s
    /// the scopes in schedule order, so the pass's event list is the same
    /// at every thread count. A scope of the pass's handle opens an account
    /// of its own; a scope of a scope charges its parent's.
    pub fn scope(&self) -> BudgetHandle {
        let account = match self.counted {
            true => Account::open(Arc::clone(&self.account.meter)),
            false => Arc::clone(&self.account),
        };
        BudgetHandle {
            account,
            events: Mutex::default(),
            counted: false,
        }
    }

    /// Give back what this handle's account charged, to the meter and the
    /// admission ledger, and refuse every later charge on it (unmirrored):
    /// how a pass lets go of an action it abandoned while the action's
    /// worker may still hold its scopes. Returns the bytes given back.
    pub fn fence(&self) -> u64 {
        let account = &self.account;
        let Some(bytes) = lock_recover(&account.own).take() else {
            return 0;
        };
        account.meter.charged.fetch_sub(bytes, Ordering::Relaxed);
        if let Some(ledger) = &account.meter.ledger {
            ledger.release(bytes);
        }
        account.let_go();
        bytes
    }

    /// Move `scope`'s events to the end of this handle's list; returns how
    /// many moved.
    pub fn adopt(&self, scope: &BudgetHandle) -> usize {
        let events = std::mem::take(&mut *lock_recover(&scope.events));
        let moved = events.len();
        self.append(events);
        moved
    }

    /// The ceilings this handle enforces.
    pub fn budget(&self) -> &ResourceBudget {
        &self.account.meter.budget
    }

    /// The admission-forced minimum degradation rung ([`DegradeLevel::Exact`]
    /// when the pass was admitted without pressure).
    pub fn degrade_floor(&self) -> DegradeLevel {
        self.account.meter.floor
    }

    /// Charge `bytes` of intended allocation against the pass budget.
    /// Returns false — without charging — when the charge would cross the
    /// byte cap; the caller should degrade rather than allocate. The
    /// check-and-add is a single compare-exchange loop, so accounting stays
    /// exact when pool workers charge the same meter concurrently: a
    /// refused charge never inflates `charged()`, and concurrent successful
    /// charges can never jointly overshoot the cap.
    pub fn try_charge(&self, bytes: u64) -> bool {
        // Held across the charge, so a fence sees it whole or not at all.
        let mut own = lock_recover(&self.account.own);
        let Some(own) = own.as_mut() else {
            return false;
        };
        let meter = &*self.account.meter;
        // A breach is sticky: once one charge was refused the pass stays
        // degraded, even if smaller charges would still fit the ledger.
        if meter.breached.load(Ordering::Relaxed) {
            return false;
        }
        let mut current = meter.charged.load(Ordering::Relaxed);
        loop {
            let next = current.saturating_add(bytes);
            if next > meter.budget.max_bytes {
                if !meter.breached.swap(true, Ordering::Relaxed) {
                    MetricsRegistry::global().incr(names::GOVERNOR_BREACHES);
                }
                return false;
            }
            match meter.charged.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    // Mirror the charge into the global admission ledger;
                    // a refusal there breaches this pass too (and rolls the
                    // local charge back so drop-time release stays exact).
                    if let Some(ledger) = &meter.ledger {
                        if !ledger.try_charge(bytes) {
                            meter.charged.fetch_sub(bytes, Ordering::Relaxed);
                            if !meter.breached.swap(true, Ordering::Relaxed) {
                                MetricsRegistry::global().incr(names::GOVERNOR_BREACHES);
                            }
                            return false;
                        }
                    }
                    *own += bytes;
                    return true;
                }
                Err(seen) => current = seen,
            }
        }
    }

    /// Total bytes charged so far.
    pub fn charged(&self) -> u64 {
        self.account.meter.charged.load(Ordering::Relaxed)
    }

    /// True once any charge crossed the byte cap.
    pub fn breached(&self) -> bool {
        self.account.meter.breached.load(Ordering::Relaxed)
    }

    /// Record a downgrade: stored on the handle for end-of-pass surfacing
    /// and, unless this is a scope, counted in the global metrics registry.
    pub fn record(&self, stage: impl Into<String>, level: DegradeLevel, detail: impl Into<String>) {
        self.append(vec![GovernorEvent {
            stage: stage.into(),
            level,
            detail: detail.into(),
        }]);
    }

    fn append(&self, events: Vec<GovernorEvent>) {
        if self.counted && !events.is_empty() {
            MetricsRegistry::global().add(names::GOVERNOR_DEGRADES, events.len() as u64);
        }
        lock_recover(&self.events).extend(events);
    }

    /// Downgrades recorded so far (pass order).
    pub fn events(&self) -> Vec<GovernorEvent> {
        lock_recover(&self.events).clone()
    }

    /// Number of downgrades recorded so far.
    pub fn event_count(&self) -> usize {
        lock_recover(&self.events).len()
    }

    /// One-line pass summary for widget/REPL markers; `None` when the pass
    /// stayed exact.
    pub fn summary(&self) -> Option<String> {
        let events = lock_recover(&self.events);
        if events.is_empty() {
            return None;
        }
        let shown: Vec<String> = events.iter().take(4).map(|e| e.to_string()).collect();
        let more = events.len().saturating_sub(shown.len());
        let suffix = if more > 0 {
            format!(" (+{more} more)")
        } else {
            String::new()
        };
        Some(format!(
            "governor: {} step(s) degraded: {}{suffix}",
            events.len(),
            shown.join("; ")
        ))
    }
}

// ---------------------------------------------------------------------
// NaN-safe ranking comparators
// ---------------------------------------------------------------------
//
// Pathological frames produce NaN scores and cost estimates; `partial_cmp(..)
// .unwrap_or(Equal)` makes such sorts order-dependent (NaN compares "equal"
// to everything, so its final position depends on the sort's visit order).
// Every ranking in the engine sorts through these two total orders instead.

/// Score ordering: descending, NaN deterministically last.
pub fn cmp_score_desc(a: f64, b: f64) -> std::cmp::Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => std::cmp::Ordering::Equal,
        (true, false) => std::cmp::Ordering::Greater, // NaN sorts after b
        (false, true) => std::cmp::Ordering::Less,
        (false, false) => b.total_cmp(&a),
    }
}

/// Cost ordering: ascending, NaN deterministically last.
pub fn cmp_cost_asc(a: f64, b: f64) -> std::cmp::Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => std::cmp::Ordering::Equal,
        (true, false) => std::cmp::Ordering::Greater,
        (false, true) => std::cmp::Ordering::Less,
        (false, false) => a.total_cmp(&b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_bounded() {
        let b = ResourceBudget::default();
        assert!(b.max_bytes > 0 && b.max_bytes < u64::MAX);
        assert!(b.max_candidates >= 15, "must not undercut top_k");
        assert!(b.max_group_cardinality >= 100);
    }

    #[test]
    fn charge_within_budget_succeeds() {
        let h = BudgetHandle::new(ResourceBudget {
            max_bytes: 1000,
            ..ResourceBudget::default()
        });
        assert!(h.try_charge(400));
        assert!(h.try_charge(400));
        assert!(!h.breached());
        assert_eq!(h.charged(), 800);
    }

    #[test]
    fn breach_flips_and_sticks() {
        let h = BudgetHandle::new(ResourceBudget {
            max_bytes: 100,
            ..ResourceBudget::default()
        });
        assert!(!h.try_charge(101));
        assert!(h.breached());
        // later charges keep failing: the pass stays degraded
        assert!(!h.try_charge(1));
    }

    #[test]
    fn refused_charge_does_not_inflate_ledger() {
        let h = BudgetHandle::new(ResourceBudget {
            max_bytes: 100,
            ..ResourceBudget::default()
        });
        assert!(h.try_charge(60));
        assert!(!h.try_charge(60), "would cross the cap");
        // exact accounting: the refused 60 was never added
        assert_eq!(h.charged(), 60);
        assert!(h.breached());
    }

    #[test]
    fn concurrent_charges_never_overshoot_cap() {
        // 8 threads racing 1000 charges of 100 against a 50k cap: exactly
        // 500 charges may succeed, and the ledger must land on the cap.
        let h = std::sync::Arc::new(BudgetHandle::new(ResourceBudget {
            max_bytes: 50_000,
            ..ResourceBudget::default()
        }));
        let ok = std::sync::Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let h = h.clone();
                let ok = ok.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        if h.try_charge(100) {
                            ok.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(h.charged(), 50_000);
        assert_eq!(ok.load(Ordering::Relaxed), 500);
        assert!(h.breached());
    }

    #[test]
    fn scopes_share_the_meter_and_keep_their_own_events() {
        use crate::admission::GlobalLedger;
        let ledger = Arc::new(GlobalLedger::new(u64::MAX));
        let budget = ResourceBudget {
            max_bytes: 100,
            ..ResourceBudget::default()
        };
        let h = BudgetHandle::governed(budget, Arc::clone(&ledger), DegradeLevel::Sampled);
        let (a, b) = (h.scope(), h.scope());
        assert_eq!(a.degrade_floor(), DegradeLevel::Sampled);
        assert!(a.try_charge(60));
        assert_eq!(h.charged(), 60, "a scope charges the pass meter");
        assert!(!b.try_charge(60));
        assert!(h.breached() && a.breached(), "one breach flag per pass");
        b.record("b", DegradeLevel::CappedCardinality, "second");
        a.record("a", DegradeLevel::CappedCardinality, "first");
        assert_eq!(h.event_count(), 0, "scoped events stay on the scope");
        // Adopted in schedule order, whatever order they were recorded in.
        assert_eq!(
            (h.adopt(&a), h.adopt(&b)),
            (1, 1),
            "each adopt reports what moved"
        );
        let stages: Vec<String> = h.events().into_iter().map(|e| e.stage).collect();
        assert_eq!(stages, ["a", "b"]);
        assert_eq!(a.event_count(), 0, "adopting moves the events");
        // The charge goes back to the ledger once, when the last scope drops.
        drop((h, a));
        assert_eq!(ledger.live(), 60);
        drop(b);
        assert_eq!(ledger.live(), 0);
    }

    #[test]
    fn a_fenced_scope_gives_back_its_charge_once_and_charges_nothing_more() {
        use crate::admission::GlobalLedger;
        let ledger = Arc::new(GlobalLedger::new(u64::MAX));
        let h = BudgetHandle::governed(
            ResourceBudget::default(),
            Arc::clone(&ledger),
            DegradeLevel::Exact,
        );
        let (a, b) = (h.scope(), h.scope());
        let under_a = a.scope();
        assert!(a.try_charge(30) && under_a.try_charge(10) && b.try_charge(5));
        assert_eq!(ledger.live(), 45);
        assert_eq!(a.fence(), 40, "an action's account covers its scopes");
        assert_eq!(under_a.fence(), 0, "given back once");
        assert_eq!((ledger.live(), h.charged()), (5, 5));
        assert!(!under_a.try_charge(1), "a fenced account charges nothing");
        assert!(!h.breached(), "a fenced refusal is no breach");
        assert_eq!(ledger.live(), 5);
        // The fenced worker's handles no longer hold the pass's charge.
        drop((h, b));
        assert_eq!(ledger.live(), 0);
        drop((a, under_a));
        assert_eq!(ledger.live(), 0);
    }

    #[test]
    fn unlimited_budget_never_breaches() {
        let h = BudgetHandle::new(ResourceBudget::unlimited());
        assert!(h.try_charge(u64::MAX / 2));
        assert!(h.try_charge(u64::MAX / 2 - 1));
        assert!(!h.breached());
    }

    #[test]
    fn events_accumulate_and_summarize() {
        let h = BudgetHandle::new(ResourceBudget::default());
        assert!(h.summary().is_none());
        h.record(
            "metadata:city",
            DegradeLevel::CappedCardinality,
            "998000 uniques",
        );
        h.record("action:Occurrence", DegradeLevel::Sampled, "over budget");
        assert_eq!(h.event_count(), 2);
        let s = h.summary().expect("summary");
        assert!(s.contains("2 step(s) degraded"), "{s}");
        assert!(s.contains("metadata:city"), "{s}");
        assert!(s.contains("capped-cardinality"), "{s}");
    }

    #[test]
    fn concurrent_charges_are_consistent() {
        let h = std::sync::Arc::new(BudgetHandle::new(ResourceBudget {
            max_bytes: 1_000_000,
            ..ResourceBudget::default()
        }));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let h = h.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        h.try_charge(100);
                    }
                });
            }
        });
        assert_eq!(h.charged(), 800_000);
        assert!(!h.breached());
    }

    #[test]
    fn score_sort_puts_nan_last_desc() {
        let mut v = vec![f64::NAN, 0.5, f64::NAN, 2.0, -1.0];
        v.sort_by(|a, b| cmp_score_desc(*a, *b));
        assert_eq!(v[0], 2.0);
        assert_eq!(v[1], 0.5);
        assert_eq!(v[2], -1.0);
        assert!(v[3].is_nan() && v[4].is_nan());
    }

    #[test]
    fn cost_sort_puts_nan_last_asc() {
        let mut v = vec![f64::NAN, 3.0, 1.0];
        v.sort_by(|a, b| cmp_cost_asc(*a, *b));
        assert_eq!(v[0], 1.0);
        assert_eq!(v[1], 3.0);
        assert!(v[2].is_nan());
    }

    #[test]
    fn degrade_ladder_is_ordered() {
        assert!(DegradeLevel::Exact < DegradeLevel::Sampled);
        assert!(DegradeLevel::Sampled < DegradeLevel::CappedCardinality);
    }
}
