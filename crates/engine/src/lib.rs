//! # lux-engine
//!
//! Low-level engine services for the Lux reproduction:
//!
//! - [`metadata`] — per-column statistics and semantic data type inference
//!   (paper §8.1 "Metadata Computation");
//! - [`cost`] — the per-visualization cost model of Table 2, used by the
//!   ASYNC scheduler and the PRUNE gate (§8.2);
//! - [`sample`] — cached, capped row samples for approximate scoring (§8.2);
//! - [`config`] — the knobs that express the paper's experimental conditions
//!   (`no-opt` / `wflow` / `wflow+prune` / `all-opt`);
//! - [`governor`] — per-pass resource budgets and the degradation ladder
//!   (exact → sampled → capped-cardinality) that keep the
//!   always-on print path bounded in memory as well as latency
//!   (DESIGN.md §8);
//! - [`trace`] — the always-on span/metrics subsystem: every print pass
//!   records a [`PassTrace`] span tree and feeds the process-wide
//!   [`MetricsRegistry`], and [`summary`] boils each finished trace down to
//!   the one [`PassSummary`] every sink reads (see DESIGN.md §7);
//! - [`pool`] — the zero-dependency thread pool behind the
//!   parallel print path: metadata fan-out, per-vis score/process, and
//!   per-action execution (DESIGN.md §9).
//!
//! Higher layers (intent compilation, visualization processing, actions)
//! build on these services; the WFLOW freshness cache lives with the
//! `LuxDataFrame` wrapper in `lux-core` because it is keyed to the wrapper's
//! operation instrumentation.

pub mod admission;
pub mod clock;
pub mod config;
pub mod cost;
pub mod failpoint;
pub mod flight;
pub mod governor;
pub mod knobs;
pub mod metadata;
pub mod pool;
pub mod rng;
pub mod sample;
pub mod stats;
pub mod summary;
pub mod sync;
pub mod trace;
pub mod world;

pub use admission::{
    Admission, AdmissionConfig, AdmissionController, AdmissionPermit, AdmissionStats, AdmitRequest,
    Backoff, GlobalLedger, PressureLevel, Priority, ShedReason,
};
pub use config::LuxConfig;
pub use cost::{CostModel, OpClass};
pub use flight::{FlightEntry, FlightRecorder};
pub use governor::{
    cmp_cost_asc, cmp_score_desc, drain_sink, event_sink, BudgetHandle, DegradeLevel, EventSink,
    GovernorEvent, ResourceBudget,
};
pub use metadata::{ColumnMeta, FrameMeta, SemanticType};
pub use pool::{parallel_for, parallel_map, worker_index, WorkPool};
pub use rng::SeededRng;
pub use sample::{CachedSample, DEFAULT_SAMPLE_CAP};
pub use summary::PassSummary;
pub use sync::lock_recover;
pub use trace::{
    Histogram, HistogramSummary, MetricsRegistry, MetricsSnapshot, PassTrace, SpanId, SpanRecord,
    TraceCollector,
};
