//! # lux-recs
//!
//! The recommendation layer: the action framework (paper §7.2), the four
//! default action classes of Table 1, interestingness scoring, and the one
//! executor: [`run_pass`] runs a [`Pass`] — opened by [`Pass::open`], the
//! one way in — over a registry (ASYNC streams each action's result as it
//! completes, the cheapest first on frames of [`ORDERED_ROWS`] rows or
//! more) and [`execute_action`] runs one action through it (PRUNE:
//! approximate two-pass top-k).

pub mod action;
pub mod fault;
pub mod generate;
pub mod history_actions;
pub mod intent_actions;
pub mod metadata_actions;
pub mod plan;
pub mod score;
pub mod structure_actions;

use std::sync::Arc;

pub use action::{
    Action, ActionClass, ActionContext, ActionRegistry, ActionResult, Candidate, CustomAction,
};
pub use fault::{ActionError, ActionHealth, ActionStatus, CircuitBreaker, RunReport};
pub use generate::{execute_action, run_pass, Pass, PassCtx, StreamingRun, TraceCtx};
pub use plan::ORDERED_ROWS;

/// Every default action of Table 1, in taxonomy order.
pub fn default_actions() -> Vec<Arc<dyn Action>> {
    vec![
        Arc::new(metadata_actions::Univariate::DISTRIBUTION),
        Arc::new(metadata_actions::Univariate::OCCURRENCE),
        Arc::new(metadata_actions::Univariate::TEMPORAL),
        Arc::new(metadata_actions::Geographic),
        Arc::new(metadata_actions::Correlation),
        Arc::new(intent_actions::CurrentVis),
        Arc::new(intent_actions::Enhance),
        Arc::new(intent_actions::FilterAction),
        Arc::new(intent_actions::Generalize),
        Arc::new(structure_actions::SeriesVis),
        Arc::new(structure_actions::IndexVis),
        Arc::new(history_actions::PreFilter),
        Arc::new(history_actions::PreAggregate),
    ]
}
