//! The action framework (paper §7.2 "Recommendation Generation").
//!
//! An *action* generates a ranked [`VisList`] over a predefined search
//! space. The [`ActionRegistry`] holds the default actions plus any
//! user-registered custom actions with trigger predicates; the executor in
//! [`crate::generate`] runs applicable actions, applying the PRUNE
//! optimization per action and the ASYNC schedule across actions.

use std::sync::Arc;

use lux_dataframe::prelude::*;
use lux_engine::{FrameMeta, LuxConfig};
use lux_vis::{ProcessOptions, Vis, VisList, VisSpec};

use crate::score::interestingness;

/// The class an action belongs to (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ActionClass {
    Metadata,
    Intent,
    Structure,
    History,
    Custom,
}

impl ActionClass {
    pub fn name(self) -> &'static str {
        match self {
            ActionClass::Metadata => "metadata",
            ActionClass::Intent => "intent",
            ActionClass::Structure => "structure",
            ActionClass::History => "history",
            ActionClass::Custom => "custom",
        }
    }
}

/// Everything an action may consult while generating candidates.
pub struct ActionContext<'a> {
    pub df: &'a DataFrame,
    pub meta: &'a FrameMeta,
    /// The user's current intent, already compiled to concrete specs
    /// (empty when no intent is set).
    pub intent: &'a [lux_intent::Clause],
    pub intent_specs: &'a [VisSpec],
    pub config: &'a LuxConfig,
    /// How many candidates the pass's plan keeps: its governor's
    /// `max_candidates`, which admission pressure may shrink. A caller that
    /// ranks the whole space passes `usize::MAX`.
    pub max_candidates: usize,
}

impl ActionContext<'_> {
    /// The candidates `intent` compiles to over this frame's metadata. Every
    /// default action states its search space as intents and takes its
    /// marks, channels and aggregations from the compiler's Infer step
    /// (paper §7.1.2), as upstream Lux's do. An intent that fails to expand
    /// (a wildcard no column matches, an over-broad variant) contributes
    /// nothing.
    pub fn compile(&self, intent: &[lux_intent::Clause]) -> Vec<Candidate> {
        match lux_intent::compile(intent, self.meta, &self.config.into()) {
            Ok(specs) => specs.into_iter().map(Candidate::new).collect(),
            Err(_) => Vec::new(),
        }
    }
}

/// A candidate visualization produced by an action. `frame` optionally
/// overrides the dataframe the vis is processed/scored against (used by
/// history actions, which visualize a *parent* frame).
pub struct Candidate {
    pub spec: VisSpec,
    pub frame: Option<Arc<DataFrame>>,
}

impl Candidate {
    pub fn new(spec: VisSpec) -> Candidate {
        Candidate { spec, frame: None }
    }

    pub fn on_frame(spec: VisSpec, frame: Arc<DataFrame>) -> Candidate {
        Candidate {
            spec,
            frame: Some(frame),
        }
    }
}

/// One recommendation action.
pub trait Action: Send + Sync {
    /// Display name — becomes the tab label ("Correlation", "Enhance", ...).
    fn name(&self) -> &str;

    /// The taxonomy class (Table 1).
    fn class(&self) -> ActionClass;

    /// Whether the action applies to the current dataframe/intent state
    /// (the "trigger" condition for custom actions).
    fn applies(&self, ctx: &ActionContext<'_>) -> bool;

    /// Generate the candidate search space (unscored). A `generate` may
    /// stop after `ctx.max_candidates` candidates, the first ones in
    /// enumeration order, since the plan keeps no more; one that does must
    /// report the whole space's size from [`Action::space_size`].
    fn generate(&self, ctx: &ActionContext<'_>) -> Result<Vec<Candidate>>;

    /// The size of the whole search space when `generate` stops at
    /// `ctx.max_candidates`; `None` (the default) when the generated list is
    /// the whole space.
    fn space_size(&self, _ctx: &ActionContext<'_>) -> Option<usize> {
        None
    }

    /// Score one candidate against a frame (full data or sample). The
    /// default uses the mark-appropriate interestingness statistic.
    fn score(&self, spec: &VisSpec, frame: &DataFrame, opts: &ProcessOptions) -> f64 {
        interestingness(spec, frame, opts)
    }
}

/// The ranked output of one action.
#[derive(Debug, Clone)]
pub struct ActionResult {
    pub action: String,
    pub class: ActionClass,
    pub vislist: VisList,
    /// Cost-model estimate used for scheduling (abstract units).
    pub estimated_cost: f64,
    /// Wall time spent generating + processing, in seconds.
    pub elapsed: f64,
    /// True when the action's deadline expired and these are partial,
    /// sample-approximated results (see `lux-recs::fault`).
    pub degraded: bool,
    /// Why the result is degraded, when it is.
    pub degraded_reason: Option<String>,
}

impl ActionResult {
    /// The ranked visualizations.
    pub fn visualizations(&self) -> &[Vis] {
        &self.vislist.visualizations
    }
}

/// Holds default and custom actions (paper §7.2: "the action registry keeps
/// track of a list of possible actions ... users can also register their own
/// custom actions").
#[derive(Default)]
pub struct ActionRegistry {
    actions: Vec<Arc<dyn Action>>,
    /// Per-action failure tracking shared by every pass over this registry
    /// (and, via the `Arc`, by derived frames that clone the registry
    /// handle). See `lux-recs::fault::CircuitBreaker`.
    breaker: Arc<crate::fault::CircuitBreaker>,
}

impl ActionRegistry {
    /// An empty registry.
    pub fn new() -> ActionRegistry {
        ActionRegistry::default()
    }

    /// The registry pre-loaded with every default action of Table 1.
    pub fn with_defaults() -> ActionRegistry {
        let mut r = ActionRegistry::new();
        for a in crate::default_actions() {
            r.register_arc(a);
        }
        r
    }

    pub fn register<A: Action + 'static>(&mut self, action: A) {
        self.actions.push(Arc::new(action));
    }

    pub fn register_arc(&mut self, action: Arc<dyn Action>) {
        self.actions.push(action);
    }

    /// Remove an action by name; returns true if one was removed.
    pub fn remove(&mut self, name: &str) -> bool {
        let before = self.actions.len();
        self.actions.retain(|a| a.name() != name);
        self.actions.len() != before
    }

    pub fn actions(&self) -> &[Arc<dyn Action>] {
        &self.actions
    }

    pub fn len(&self) -> usize {
        self.actions.len()
    }

    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// Actions whose trigger fires for the given context.
    pub fn applicable(&self, ctx: &ActionContext<'_>) -> Vec<Arc<dyn Action>> {
        self.actions
            .iter()
            .filter(|a| a.applies(ctx))
            .cloned()
            .collect()
    }

    /// The circuit breaker tracking this registry's action failures.
    pub fn breaker(&self) -> &Arc<crate::fault::CircuitBreaker> {
        &self.breaker
    }
}

/// A custom action built from closures — the Rust analogue of the paper's
/// Python-UDF custom actions.
pub struct CustomAction<G, T>
where
    G: Fn(&ActionContext<'_>) -> Result<Vec<Candidate>> + Send + Sync,
    T: Fn(&ActionContext<'_>) -> bool + Send + Sync,
{
    name: String,
    generate: G,
    trigger: T,
}

impl<G, T> CustomAction<G, T>
where
    G: Fn(&ActionContext<'_>) -> Result<Vec<Candidate>> + Send + Sync,
    T: Fn(&ActionContext<'_>) -> bool + Send + Sync,
{
    pub fn new(name: impl Into<String>, trigger: T, generate: G) -> Self {
        CustomAction {
            name: name.into(),
            generate,
            trigger,
        }
    }
}

impl<G, T> Action for CustomAction<G, T>
where
    G: Fn(&ActionContext<'_>) -> Result<Vec<Candidate>> + Send + Sync,
    T: Fn(&ActionContext<'_>) -> bool + Send + Sync,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn class(&self) -> ActionClass {
        ActionClass::Custom
    }

    fn applies(&self, ctx: &ActionContext<'_>) -> bool {
        (self.trigger)(ctx)
    }

    fn generate(&self, ctx: &ActionContext<'_>) -> Result<Vec<Candidate>> {
        (self.generate)(ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn context_fixture() -> (DataFrame, FrameMeta, LuxConfig) {
        let df = DataFrameBuilder::new()
            .float("x", [1.0, 2.0])
            .build()
            .unwrap();
        let meta = FrameMeta::compute(&df, &HashMap::new());
        (df, meta, LuxConfig::default())
    }

    #[test]
    fn registry_register_and_remove() {
        let mut r = ActionRegistry::new();
        assert!(r.is_empty());
        r.register(CustomAction::new("mine", |_| true, |_| Ok(vec![])));
        assert_eq!(r.len(), 1);
        assert!(r.remove("mine"));
        assert!(!r.remove("mine"));
    }

    #[test]
    fn defaults_cover_all_classes() {
        let r = ActionRegistry::with_defaults();
        let classes: std::collections::HashSet<ActionClass> =
            r.actions().iter().map(|a| a.class()).collect();
        assert!(classes.contains(&ActionClass::Metadata));
        assert!(classes.contains(&ActionClass::Intent));
        assert!(classes.contains(&ActionClass::Structure));
        assert!(classes.contains(&ActionClass::History));
    }

    #[test]
    fn custom_action_trigger_gates_applicability() {
        let (df, meta, config) = context_fixture();
        let ctx = ActionContext {
            df: &df,
            meta: &meta,
            intent: &[],
            intent_specs: &[],
            config: &config,
            max_candidates: usize::MAX,
        };
        let on = CustomAction::new("on", |_| true, |_| Ok(vec![]));
        let off = CustomAction::new("off", |_| false, |_| Ok(vec![]));
        assert!(on.applies(&ctx));
        assert!(!off.applies(&ctx));
        let mut r = ActionRegistry::new();
        r.register(on);
        r.register(off);
        assert_eq!(r.applicable(&ctx).len(), 1);
    }
}
