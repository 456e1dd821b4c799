//! The recommendation pass (paper §8.2): one executor for every caller.
//!
//! A caller opens a [`Pass`] and hands it to [`run_pass`], which gates the
//! registry's actions on the caller (applicability, circuit breaker),
//! dispatches each runnable one — as a detached pool task under ASYNC,
//! inline otherwise — through the five stages of [`execute_action`]
//! (`enumerate → prune_gate → score → select_top_k → process`, PRUNE being
//! the sample-scored first pass), and settles every outcome in one place.
//! The blocking API is [`StreamingRun::collect_report`].
//!
//! Every action runs under the fault model of [`crate::fault`]: generation,
//! scoring, and processing are panic-isolated; each action gets a wall-clock
//! budget derived from its cost estimate (`LuxConfig::action_budget` scaled
//! by `CostModel::time_budget`) with cooperative checks between steps and —
//! under ASYNC — a hard cutoff that abandons hung workers; and a per-action
//! circuit breaker skips actions that keep failing, with a half-open
//! re-probe after a cooldown of fresh frames. One misbehaving action can
//! therefore never take down a recommendation pass: every healthy action's
//! results are still served, and the per-action health ledger in
//! [`RunReport`] says what happened to the rest.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lux_dataframe::prelude::*;
use lux_engine::governor::{
    drain_sink, event_sink, BudgetHandle, DegradeLevel, EventSink, ResourceBudget,
};
use lux_engine::lock_recover;
use lux_engine::trace::{names as metric, MetricsRegistry, SpanId, TraceCollector};
use lux_engine::{clock, failpoint};
use lux_engine::{AdmissionPermit, CachedSample, CostModel, FrameMeta, GovernorEvent, LuxConfig};
use lux_intent::{Clause, CompileOptions};
use lux_vis::{Channel, ProcessOptions, Vis, VisList, VisSpec};

use crate::action::{Action, ActionContext, ActionRegistry, ActionResult, Candidate};
use crate::fault::{
    isolate, ActionError, ActionHealth, ActionStatus, BreakerDecision, CircuitBreaker, Deadline,
    RunReport,
};

/// Trace attachment: the shared pass collector plus the span this unit of
/// work records under — for a [`Pass`] the parent of its per-action spans,
/// for an executing action its own span. Cloneable so detached workers can
/// carry it across threads.
#[derive(Clone)]
pub struct TraceCtx {
    pub collector: Arc<TraceCollector>,
    pub span: SpanId,
}

impl TraceCtx {
    /// A fresh collector with one open root span — the attachment of a pass
    /// whose trace nobody asked for (standalone passes, background streams).
    pub fn root(name: &str) -> TraceCtx {
        let collector = TraceCollector::new();
        let span = collector.begin(None, name);
        TraceCtx { collector, span }
    }

    /// Begin a child span.
    pub fn child(&self, name: &str) -> TraceCtx {
        let span = self.collector.begin(Some(self.span), name);
        TraceCtx {
            collector: Arc::clone(&self.collector),
            span,
        }
    }

    /// Time a closure as a complete child span.
    pub fn time<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        self.collector.time(Some(self.span), name, f)
    }

    pub fn tag(&self, key: &str, value: impl Into<String>) {
        self.collector.tag(self.span, key, value);
    }

    pub fn end(&self) {
        self.collector.end(self.span);
    }

    /// Close this span on the panic that cut it short.
    fn panicked(&self, panic: ActionError) -> ActionError {
        self.tag("panicked", "true");
        self.end();
        panic
    }
}

/// What a pass is opened in: the span it records under and the budget it
/// charges. Both are always present — a caller with no use for them opens a
/// [`PassCtx::detached`] one — so nothing downstream branches on whether
/// anyone is watching.
#[derive(Clone)]
pub struct PassCtx {
    pub trace: TraceCtx,
    pub governor: Arc<BudgetHandle>,
}

impl PassCtx {
    /// A root span nobody reads and a fresh handle over `budget`, charged
    /// to no ledger (standalone passes).
    pub fn detached(name: &str, budget: ResourceBudget) -> PassCtx {
        PassCtx {
            trace: TraceCtx::root(name),
            governor: Arc::new(BudgetHandle::new(budget)),
        }
    }

    /// The context of an admitted pass: `budget` shaped down by the pressure
    /// `permit` was granted under (the shed ladder, DESIGN.md §10), every
    /// charge mirrored into the process-wide ledger.
    pub fn admitted(name: &str, permit: &AdmissionPermit, budget: &ResourceBudget) -> PassCtx {
        let (budget, floor) = permit.shape_budget(budget);
        PassCtx {
            trace: TraceCtx::root(name),
            governor: Arc::new(BudgetHandle::governed(budget, permit.ledger(), floor)),
        }
    }

    /// The same budget under a child span.
    pub fn child(&self, name: &str) -> PassCtx {
        PassCtx {
            trace: self.trace.child(name),
            governor: Arc::clone(&self.governor),
        }
    }
}

/// One recommendation pass: everything the executor reads, `Arc`'d so
/// detached workers outlive the caller's borrows. [`Pass::open`] is the one
/// way in: it resolves, once, what every action of the pass starts from.
#[derive(Clone)]
pub struct Pass {
    pub df: Arc<DataFrame>,
    pub meta: Arc<FrameMeta>,
    pub intent: Arc<Vec<Clause>>,
    pub intent_specs: Arc<Vec<VisSpec>>,
    pub config: Arc<LuxConfig>,
    /// The frame's PRUNE sample handle; `None` when PRUNE is off. The rows
    /// are drawn by the first stage that reads them (an engaged or forced
    /// gate, a degraded survivor), never up front.
    pub sample: Option<Arc<CachedSample>>,
    /// The span under which per-action spans are recorded.
    pub trace: TraceCtx,
    /// Per-pass resource governor shared by every worker: allocation-heavy
    /// steps degrade against its budget instead of exhausting memory.
    pub governor: Arc<BudgetHandle>,
    /// Admission slot held for the duration of the pass. Under ASYNC the
    /// collector thread takes ownership so the slot is released only once
    /// every action has settled (or been abandoned), not when the caller's
    /// stack frame unwinds. `None` — as opened — when the caller holds the
    /// slot itself.
    pub permit: Option<Arc<AdmissionPermit>>,
    /// `config` as processing options; each action attaches the governor
    /// and its own sinks to a copy.
    opts: ProcessOptions,
    model: CostModel,
}

impl Pass {
    /// Open a pass over `df` in `ctx`: compile `intent` against `meta` (an
    /// empty or invalid intent compiles to no specs — the widget shows the
    /// diagnostics instead), derive the processing options and cost model
    /// from `config`, and keep the `sample` handle only when PRUNE is on.
    pub fn open(
        df: Arc<DataFrame>,
        meta: Arc<FrameMeta>,
        intent: &[Clause],
        config: Arc<LuxConfig>,
        sample: Option<&Arc<CachedSample>>,
        ctx: PassCtx,
    ) -> Pass {
        let intent_specs = ctx.trace.time("intent.compile", || {
            if intent.is_empty() || lux_intent::has_errors(&lux_intent::validate(intent, &meta)) {
                return Vec::new();
            }
            lux_intent::compile(intent, &meta, &CompileOptions::from(&*config)).unwrap_or_default()
        });
        Pass {
            df,
            meta,
            intent: Arc::new(intent.to_vec()),
            intent_specs: Arc::new(intent_specs),
            sample: sample.filter(|_| config.prune).cloned(),
            opts: ProcessOptions::from(&*config),
            model: CostModel::default(),
            config,
            trace: ctx.trace,
            governor: ctx.governor,
            permit: None,
        }
    }

    /// The borrowed view handed to `Action::{applies, generate}`.
    fn action_context(&self) -> ActionContext<'_> {
        ActionContext {
            df: &self.df,
            meta: &self.meta,
            intent: &self.intent,
            intent_specs: &self.intent_specs,
            config: &self.config,
        }
    }
}

/// Estimate `(rows, groups)` for costing one spec against frame metadata.
/// "Groups" is the output cardinality of the primary relational operation
/// (Table 2): selections materialize no groups, binned ops produce one
/// group per bin, and group-bys produce one group per key combination.
fn estimate_spec(spec: &VisSpec, meta: &FrameMeta, num_rows: usize) -> (usize, usize) {
    use lux_engine::OpClass;
    let x_card = spec
        .channel(Channel::X)
        .and_then(|e| meta.column(&e.attribute))
        .map(|c| c.cardinality.min(num_rows))
        .unwrap_or(1);
    let color_card = spec
        .channel(Channel::Color)
        .and_then(|e| meta.column(&e.attribute))
        .map(|c| c.cardinality.min(num_rows))
        .unwrap_or(1);
    let bins = |e: Option<&lux_vis::Encoding>| e.and_then(|e| e.bin).unwrap_or(10);
    let groups = match spec.op_class() {
        OpClass::Selection2 | OpClass::Selection3 => 0,
        OpClass::GroupAgg => x_card,
        OpClass::GroupAgg2D => x_card.saturating_mul(color_card).min(num_rows),
        OpClass::BinCount => bins(spec.channel(Channel::X)),
        OpClass::BinCount2D | OpClass::BinCount2DGroup => {
            bins(spec.channel(Channel::X)) * bins(spec.channel(Channel::Y))
        }
    };
    (num_rows, groups)
}

// ---------------------------------------------------------------------
// One action: enumerate → prune_gate → score → select_top_k → process
// ---------------------------------------------------------------------

/// A candidate with its first-pass score and whether that score was
/// computed on the PRUNE sample.
type Scored = (Candidate, f64, bool);

/// What one per-candidate pool task hands its stage's fold: the outcome
/// (`Err` is a panic inside the action) and the governor events it buffered.
type Slot<T> = (std::result::Result<T, ActionError>, Vec<GovernorEvent>);

type Outcome = std::result::Result<Option<ActionResult>, ActionError>;

/// One action's trip through the five stages: the borrowed inputs, the
/// options every call into the action starts from, and what the stages
/// accumulate for the final [`ActionResult`].
struct ActionRun<'a> {
    action: &'a dyn Action,
    pass: &'a Pass,
    /// The action's own span.
    trace: &'a TraceCtx,
    /// The action's governor-event buffer, replayed onto the pass handle by
    /// [`run_pass`] in dispatch order.
    events: &'a EventSink,
    opts: ProcessOptions,
    // The next three are set by `enumerate`, once there are candidates.
    started: Instant,
    estimated_cost: f64,
    deadline: Deadline,
    /// Why the deadline degraded this action, when it did.
    degraded_reason: Option<String>,
    /// Governor-imposed degradations to surface on the result.
    governor_notes: Vec<String>,
    /// Score/process degradations attributed to THIS action (counted from
    /// its own per-candidate sinks, immune to concurrent actions' events).
    degrade_events: usize,
}

/// Options for one candidate's call into the action, with a call-local
/// event sink attached: the stage's fold replays it in candidate order.
fn candidate_opts(opts: &ProcessOptions) -> (ProcessOptions, EventSink) {
    let sink = event_sink();
    let mut copts = opts.clone();
    copts.event_sink = Some(sink.clone());
    (copts, sink)
}

impl<'a> ActionRun<'a> {
    fn open(
        action: &'a dyn Action,
        pass: &'a Pass,
        trace: &'a TraceCtx,
        events: &'a EventSink,
    ) -> ActionRun<'a> {
        let mut opts = pass.opts.clone();
        opts.governor = Some(Arc::clone(&pass.governor));
        ActionRun {
            action,
            pass,
            trace,
            events,
            opts,
            started: clock::now(),
            estimated_cost: 0.0,
            deadline: Deadline::none(),
            degraded_reason: None,
            governor_notes: Vec::new(),
            degrade_events: 0,
        }
    }

    /// Move one candidate's buffered events onto the action's sink — the
    /// order a sequential run would have recorded them in.
    fn replay(&mut self, events: Vec<GovernorEvent>) {
        self.degrade_events += events.len();
        lock_recover(self.events).extend(events);
    }

    /// Stage 1: run `action.generate` under panic isolation (folding
    /// generation errors into the [`ActionError`] taxonomy), cap the search
    /// space, and cost what is left. `Ok(None)` means no candidates.
    fn enumerate(&mut self) -> std::result::Result<Option<Vec<Candidate>>, ActionError> {
        let name = self.action.name();
        let ctx = self.pass.action_context();
        let span = self.trace.child("generate");
        let generated = isolate(name, || self.action.generate(&ctx))
            .and_then(|r| r.map_err(|e| ActionError::Generation(e.to_string())));
        match &generated {
            Ok(c) => span.tag("candidates", c.len().to_string()),
            Err(_) => span.tag("failed", "true"),
        }
        span.end();
        let mut candidates = generated?;
        if candidates.is_empty() {
            return Ok(None);
        }
        // The action is timed from here: generation has its own span.
        self.started = clock::now();
        // Governor: the candidate search space is the first allocation-heavy
        // surface of an action — cap it before any scoring/processing
        // happens. The governor's budget may be tighter than the config's:
        // under admission pressure the shed ladder hands the pass a shrunk
        // candidate cap (DESIGN.md §10).
        let max_candidates = self.pass.governor.budget().max_candidates;
        if candidates.len() > max_candidates {
            let dropped = candidates.len() - max_candidates;
            candidates.truncate(max_candidates);
            let note =
                format!("candidate search space capped at {max_candidates} ({dropped} dropped)");
            lock_recover(self.events).push(GovernorEvent {
                stage: format!("action:{name}"),
                level: DegradeLevel::CappedCardinality,
                detail: note.clone(),
            });
            self.governor_notes.push(note);
        }
        // Cost-model estimate for the whole action: the sum over its
        // candidates, each costed on the frame it will run against.
        self.estimated_cost = self.pass.model.action_cost(candidates.iter().map(|c| {
            let rows = c.frame.as_deref().unwrap_or(&self.pass.df).num_rows();
            let (r, g) = estimate_spec(&c.spec, &self.pass.meta, rows);
            (c.spec.op_class(), r, g)
        }));
        self.trace.tag("candidates", candidates.len().to_string());
        self.trace
            .tag("cost.estimated", format!("{:.0}", self.estimated_cost));
        // The budget is proportional to how expensive the cost model predicts
        // this action to be — cheap actions get the base budget, heavyweight
        // ones up to the hard-cutoff multiple of it.
        if let Some(base) = self.pass.config.action_budget {
            self.deadline = Deadline::after(self.pass.model.time_budget(self.estimated_cost, base));
            self.trace.tag(
                "deadline.budget_ms",
                format!("{:.1}", self.deadline.budget().as_secs_f64() * 1e3),
            );
        }
        Ok(Some(candidates))
    }

    /// Stage 2, the PRUNE gate: approximate only when the cost model
    /// predicts a win and a genuinely smaller sample exists (paper: "apply
    /// prune for any action where the number of visualizations exceeds k",
    /// subject to the model). The verdict needs only the sample's size;
    /// the sample itself is drawn, and returned to score on, in the same
    /// match that decides to prune, so the "prune without a sample" state
    /// is unrepresentable.
    fn prune_gate(&self, candidates: &[Candidate]) -> Option<Arc<DataFrame>> {
        let config = &self.pass.config;
        let df = &self.pass.df;
        let sample = self.pass.sample.as_deref();
        let rep = &candidates[0].spec;
        let (rep_rows, rep_groups) = estimate_spec(rep, &self.pass.meta, df.num_rows());
        // Admission shed ladder: a pass admitted under pressure carries a
        // `Sampled` degradation floor — approximate scoring is then forced
        // whenever a sample exists, regardless of the cost model's verdict.
        let force_sampled = self.pass.governor.degrade_floor() >= DegradeLevel::Sampled;
        let prune_sample = match sample {
            Some(s) if force_sampled => Some(s.get(df)),
            Some(s)
                if config.prune
                    && self.pass.model.prune_worthwhile(
                        candidates.len(),
                        config.top_k,
                        rep.op_class(),
                        rep_rows,
                        s.rows(df.num_rows()),
                        rep_groups,
                    ) =>
            {
                Some(s.get(df))
            }
            _ => None,
        };
        // PRUNE observability: when approximation was a live question (PRUNE
        // on and a sample available), record whether the gate engaged.
        if (config.prune || force_sampled) && sample.is_some() {
            MetricsRegistry::global().incr(if prune_sample.is_some() {
                metric::PRUNE_ENGAGED
            } else {
                metric::PRUNE_SKIPPED
            });
        }
        self.trace.tag(
            "prune",
            match (
                force_sampled && prune_sample.is_some(),
                config.prune,
                prune_sample.is_some(),
            ) {
                (true, _, _) => "forced",
                (false, true, true) => "engaged",
                (false, true, false) => "skipped",
                (false, false, _) => "off",
            },
        );
        prune_sample
    }

    /// Stage 3, first pass: score every candidate (on the sample when PRUNE
    /// applies). With `threads > 1` candidates score as pool tasks into
    /// per-index slots; the slots are folded in candidate order, stopping at
    /// the first deadline expiry, so a run that never hits its deadline
    /// produces byte-identical output at every thread count (and
    /// `threads = 1` is the plain sequential loop).
    fn score(
        &mut self,
        candidates: Vec<Candidate>,
        prune_sample: Option<&DataFrame>,
    ) -> std::result::Result<Vec<Scored>, ActionError> {
        let total = candidates.len();
        let par = self.pass.config.effective_threads();
        let span = self.trace.child("score");
        span.tag("par", par.to_string());
        let outcomes = lux_engine::parallel_map(par, candidates, |_, cand| {
            self.score_one(cand, prune_sample)
        });
        let mut scored: Vec<Scored> = Vec::with_capacity(total);
        for (outcome, events) in outcomes {
            // Replay this candidate's events before settling its outcome.
            self.replay(events);
            match outcome {
                Ok(Some(s)) => scored.push(s),
                Ok(None) => {
                    self.degraded_reason = Some(format!(
                        "budget {:?} exhausted after scoring {}/{} candidates",
                        self.deadline.budget(),
                        scored.len(),
                        total
                    ));
                    break;
                }
                Err(panic) => return Err(span.panicked(panic)),
            }
        }
        span.tag("scored", format!("{}/{total}", scored.len()));
        span.tag("approximate", prune_sample.is_some().to_string());
        span.end();
        if scored.is_empty() {
            // Deadline hit before anything was scored: nothing servable.
            return Err(ActionError::TimedOut {
                budget: self.deadline.budget(),
                completed: 0,
                total,
            });
        }
        Ok(scored)
    }

    /// Score one candidate; `Ok(None)` once the deadline has expired.
    fn score_one(&self, cand: Candidate, prune_sample: Option<&DataFrame>) -> Slot<Option<Scored>> {
        if self.deadline.expired() {
            return (Ok(None), Vec::new());
        }
        let (copts, csink) = candidate_opts(&self.opts);
        // Candidates pinned to their own frame (history/structure actions)
        // are scored on that frame; others use the sample when pruning.
        let (frame, approx): (&DataFrame, bool) = match (&cand.frame, prune_sample) {
            (Some(f), _) => (f, false),
            (None, Some(s)) => (s, true),
            (None, None) => (&self.pass.df, false),
        };
        let score = isolate(self.action.name(), || {
            let _ = failpoint::hit_for(failpoint::names::ACTION_SCORE, self.action.name());
            self.action.score(&cand.spec, frame, &copts)
        });
        (score.map(|s| Some((cand, s, approx))), drain_sink(&csink))
    }

    /// Stage 4: rank by first-pass score and keep the top k. NaN scores sort
    /// last deterministically (an action whose statistic degenerates must
    /// never float to the top of the ranking).
    fn select_top_k(&self, mut scored: Vec<Scored>) -> Vec<Scored> {
        scored.sort_by(|a, b| lux_engine::cmp_score_desc(a.1, b.1));
        scored.truncate(self.pass.config.top_k);
        scored
    }

    /// Stage 5, second pass: recompute approximate scores exactly and
    /// process the top-k on the full frame — until the deadline expires,
    /// after which the remaining survivors are served degraded: approximate
    /// score kept, processed against the (cheap) sample so there is still
    /// data to draw. Like scoring, survivors process as pool tasks into
    /// per-index slots; each task re-checks the deadline itself, so without
    /// deadline pressure every thread count takes the exact path on every
    /// survivor.
    fn process(mut self, survivors: Vec<Scored>) -> Outcome {
        let par = self.pass.config.effective_threads();
        let span = self.trace.child("process");
        span.tag("par", par.to_string());
        let already_degraded = self.degraded_reason.is_some();
        let outcomes = lux_engine::parallel_map(par, survivors, |_, survivor| {
            self.process_one(survivor, already_degraded)
        });
        let mut visses: Vec<Vis> = Vec::with_capacity(outcomes.len());
        let mut last_processing_error: Option<String> = None;
        for (outcome, events) in outcomes {
            self.replay(events);
            match outcome.map_err(|panic| span.panicked(panic))? {
                Processed::Exact(Ok(vis)) => visses.push(vis),
                // fail-safe: drop the broken vis, keep the rest
                Processed::Exact(Err(e)) => last_processing_error = Some(e.to_string()),
                Processed::Degraded(vis) => {
                    if self.degraded_reason.is_none() {
                        self.degraded_reason = Some(format!(
                            "budget {:?} exhausted during exact processing; remaining results are sample-approximated",
                            self.deadline.budget()
                        ));
                    }
                    visses.push(vis);
                }
            }
        }
        span.tag("processed", visses.len().to_string());
        span.tag("degraded", self.degraded_reason.is_some().to_string());
        span.end();
        if visses.is_empty() {
            return Err(ActionError::Processing(
                last_processing_error
                    .unwrap_or_else(|| "every candidate failed processing".to_string()),
            ));
        }
        Ok(Some(self.into_result(visses)))
    }

    fn process_one(
        &self,
        (cand, score, approx): Scored,
        already_degraded: bool,
    ) -> Slot<Processed> {
        let name = self.action.name();
        let (copts, csink) = candidate_opts(&self.opts);
        let Candidate {
            spec,
            frame: pinned,
        } = cand;
        let outcome = if !already_degraded && !self.deadline.expired() {
            let frame: &DataFrame = pinned.as_deref().unwrap_or(&self.pass.df);
            isolate(name, || -> Result<Vis> {
                let exact = if approx {
                    self.action.score(&spec, frame, &copts)
                } else {
                    score
                };
                let mut vis = Vis::new(spec);
                vis.score = exact;
                vis.approximate = false;
                vis.process(frame, &copts)?;
                Ok(vis)
            })
            .map(Processed::Exact)
        } else {
            // Degraded path: best-effort processing against the pinned
            // frame or the sample; score-only (no data) when neither works.
            let mut vis = Vis::new(spec);
            vis.score = score;
            vis.approximate = true;
            let sample = || self.pass.sample.as_ref().map(|s| s.get(&self.pass.df));
            if let Some(frame) = pinned.or_else(sample) {
                let _ = isolate(name, || vis.process(&frame, &copts));
            }
            Ok(Processed::Degraded(vis))
        };
        (outcome, drain_sink(&csink))
    }

    /// Rank the processed survivors and fold what the stages accumulated —
    /// deadline degradation, governor notes — into the result.
    fn into_result(mut self, visses: Vec<Vis>) -> ActionResult {
        let mut vislist = VisList::new(visses);
        vislist.rank();
        // Governor degradations during scoring/processing (group caps,
        // shrunk scans, ...) surface on the result even though the deadline
        // never fired: the tab is marked degraded with the governor's
        // reasons.
        if self.degrade_events > 0 {
            self.governor_notes.push(format!(
                "resource governor degraded {} processing step(s)",
                self.degrade_events
            ));
        }
        self.trace
            .tag("governor.events", self.degrade_events.to_string());
        // The deadline's reason first, then the governor's.
        let mut reasons: Vec<String> = self.degraded_reason.into_iter().collect();
        reasons.extend(self.governor_notes);
        let degraded_reason = (!reasons.is_empty()).then(|| reasons.join("; "));
        ActionResult {
            action: self.action.name().to_string(),
            class: self.action.class(),
            vislist,
            estimated_cost: self.estimated_cost,
            elapsed: clock::elapsed(self.started).as_secs_f64(),
            degraded: degraded_reason.is_some(),
            degraded_reason,
        }
    }
}

/// One survivor after stage 5: processed exactly (or failed to), or served
/// degraded once the deadline had expired.
enum Processed {
    Exact(Result<Vis>),
    Degraded(Vis),
}

/// Execute one action end-to-end under the fault model: generate, score
/// (approximately when PRUNE applies), rank, keep top-k, and process the
/// survivors exactly. Phase spans and decision tags are recorded under
/// `trace` (the action's own span); governor degradations buffer in
/// `events` for the caller to replay. `Ok(None)` means the action generated
/// no candidates (an invisible empty tab, not a fault).
pub fn execute_action(
    action: &dyn Action,
    pass: &Pass,
    trace: &TraceCtx,
    events: &EventSink,
) -> std::result::Result<Option<ActionResult>, ActionError> {
    let mut run = ActionRun::open(action, pass, trace, events);
    let Some(candidates) = run.enumerate()? else {
        return Ok(None);
    };
    let prune_sample = run.prune_gate(&candidates);
    let scored = run.score(candidates, prune_sample.as_deref())?;
    let survivors = run.select_top_k(scored);
    run.process(survivors)
}

// ---------------------------------------------------------------------
// The pass: gate → dispatch → settle
// ---------------------------------------------------------------------

/// A recommendation run whose results stream as actions settle.
///
/// This is the ASYNC optimization as the user experiences it (paper §8.2):
/// "recommendation results can be streamed into the frontend widget as the
/// computation for each action completes ... instead of incurring a high
/// wait time". Results arrive on one channel, per-action health on another;
/// under ASYNC a collector thread enforces the hard wall-clock cutoff —
/// workers that outlive it are abandoned (they finish on their own and
/// their sends fail harmlessly) and reported as failed. Dropping the handle
/// likewise detaches everything cleanly. Without ASYNC every action has
/// already settled by the time the handle is returned.
pub struct StreamingRun {
    /// Each result with its dispatch index.
    results: mpsc::Receiver<(usize, ActionResult)>,
    health: mpsc::Receiver<ActionHealth>,
    expected: usize,
}

impl StreamingRun {
    /// Receive the next completed action (blocks). `None` once all done.
    pub fn next_result(&self) -> Option<ActionResult> {
        self.results.recv().ok().map(|(_, result)| result)
    }

    /// How many actions were dispatched (disabled actions are not).
    pub fn expected(&self) -> usize {
        self.expected
    }

    /// Drain everything (blocks until all workers finish or the hard cutoff
    /// abandons them) and return results plus the health ledger. Results
    /// are in deterministic display order: cheapest action first (NaN costs
    /// last), equal costs in dispatch order — never in the order the
    /// workers happened to finish.
    pub fn collect_report(self) -> RunReport {
        let mut results: Vec<(usize, ActionResult)> = self.results.iter().collect();
        results.sort_by(|(a_order, a), (b_order, b)| {
            lux_engine::cmp_cost_asc(a.estimated_cost, b.estimated_cost).then(a_order.cmp(b_order))
        });
        let results = results.into_iter().map(|(_, result)| result).collect();
        let health = self.health.iter().collect();
        RunReport { results, health }
    }

    /// Drain every remaining result (blocks until all workers finish).
    pub fn collect_all(self) -> Vec<ActionResult> {
        self.collect_report().results
    }

    /// A run that was refused admission: no actions dispatched, channels
    /// already closed, and a single health entry carrying the shed reason
    /// so report consumers see *why* nothing ran instead of an empty
    /// report that looks like success.
    pub fn shed(reason: &str) -> StreamingRun {
        let (_results_tx, results) = mpsc::channel();
        let (health_tx, health) = mpsc::channel::<ActionHealth>();
        let _ = health_tx.send(ActionHealth::new(
            "recommendations",
            ActionStatus::Failed(format!("shed by admission control: {reason}")),
        ));
        StreamingRun {
            results,
            health,
            expected: 0,
        }
    }
}

/// One dispatched action as the settling side sees it.
struct Dispatched {
    /// Position in dispatch (registry) order.
    order: usize,
    name: String,
    /// The action's span: queued at dispatch, ended when it settles.
    trace: TraceCtx,
    /// The action's governor events, buffered until the pass closes.
    sink: EventSink,
}

/// The settling side of a pass — the collector thread under ASYNC, the
/// caller otherwise: it owns the breaker bookkeeping, the `lux.actions.*`
/// metrics, the closing span tags, and the run's sending ends, so health
/// stays correct even when the consumer drops the [`StreamingRun`] undrained.
struct Settler {
    breaker: Arc<CircuitBreaker>,
    threshold: u32,
    results: mpsc::Sender<(usize, ActionResult)>,
    health: mpsc::Sender<ActionHealth>,
}

impl Settler {
    /// An action the breaker gate skipped: never dispatched, but visible.
    fn disabled(&self, parent: &TraceCtx, name: &str, reason: String) {
        MetricsRegistry::global().incr(metric::ACTIONS_DISABLED);
        let span = parent.child(&format!("action:{name}"));
        span.tag("status", "disabled");
        span.end();
        let health = ActionHealth::new(name, ActionStatus::Disabled(reason));
        let _ = self.health.send(health);
    }

    /// Settle one finished action: breaker, metrics, span, delivery.
    fn settle(&self, action: &Dispatched, outcome: Outcome) {
        let metrics = MetricsRegistry::global();
        let result = match outcome {
            Ok(delivered) => {
                // Degraded still counts as delivery for the breaker: the
                // action is healthy, the budget was just too tight for
                // exact results.
                self.breaker.record_success(&action.name);
                delivered
            }
            Err(err) => return self.fail(action, "failed", err.to_string()),
        };
        let Some(result) = result else {
            // No candidates: not a fault, and (as before the fault layer)
            // not a visible tab either — no health entry.
            metrics.incr(metric::ACTIONS_OK);
            action.trace.tag("status", "empty");
            action.trace.end();
            return;
        };
        let status = if result.degraded { "degraded" } else { "ok" };
        metrics.incr(if result.degraded {
            metric::ACTIONS_DEGRADED
        } else {
            metric::ACTIONS_OK
        });
        action.trace.tag("status", status);
        action
            .trace
            .tag("cost.actual_ms", format!("{:.2}", result.elapsed * 1e3));
        if let Some(reason) = &result.degraded_reason {
            action.trace.tag("degraded.reason", reason.clone());
        }
        action.trace.end();
        let health = match &result.degraded_reason {
            Some(reason) if result.degraded => ActionStatus::Degraded(reason.clone()),
            _ if result.degraded => ActionStatus::Degraded("partial results".to_string()),
            _ => ActionStatus::Ok,
        };
        let _ = self.health.send(ActionHealth::new(&action.name, health));
        let _ = self.results.send((action.order, result));
    }

    /// Settle an action that produced nothing: it failed (`status`
    /// `"failed"`) or was abandoned at the hard cutoff (`"abandoned"`).
    fn fail(&self, action: &Dispatched, status: &str, reason: String) {
        let metrics = MetricsRegistry::global();
        metrics.incr(metric::ACTIONS_FAILED);
        let tripped = self
            .breaker
            .record_failure(&action.name, &reason, self.threshold);
        if tripped {
            metrics.incr(metric::BREAKER_TRIPS);
        }
        action.trace.tag("status", status);
        action.trace.tag("error", reason.clone());
        action.trace.end();
        let health = ActionHealth::new(&action.name, ActionStatus::Failed(reason));
        let _ = self.health.send(health);
    }
}

/// Run every applicable action of `registry` over `pass`.
///
/// With `config.async` each action runs as a detached pool task and the
/// call returns immediately: results arrive in completion order — cheap
/// actions naturally finish first, giving the paper's cheapest-first
/// experience without blocking dispatch on a cost pre-pass (which would
/// re-introduce a hang window: even `generate` runs on the worker, so a
/// hung action cannot stall the caller). Without it the same task runs
/// inline on the caller, in dispatch order, under panic isolation and
/// cooperative deadlines but no hard cutoff — an action that blocks inside
/// one call delays the pass.
pub fn run_pass(registry: &ActionRegistry, pass: Pass) -> StreamingRun {
    let (results_tx, results) = mpsc::channel();
    let (health_tx, health) = mpsc::channel();
    let settler = Settler {
        breaker: Arc::clone(registry.breaker()),
        threshold: pass.config.breaker_threshold,
        results: results_tx,
        health: health_tx,
    };
    settler.breaker.begin_frame();

    // Applicability checks and the breaker gate run on the caller: both are
    // metadata-only (no user compute) and must see the registry borrow.
    let mut runnable: Vec<Arc<dyn Action>> = Vec::new();
    for action in registry.applicable(&pass.action_context()) {
        let cooldown = pass.config.breaker_cooldown;
        match settler.breaker.decision(action.name(), cooldown) {
            BreakerDecision::Skip(reason) => settler.disabled(&pass.trace, action.name(), reason),
            BreakerDecision::Run | BreakerDecision::Probe => runnable.push(action),
        }
    }
    let expected = runnable.len();

    let (worker_tx, worker_rx) = mpsc::channel::<(usize, Outcome)>();
    let mut dispatched: Vec<Dispatched> = Vec::with_capacity(expected);
    for (order, action) in runnable.into_iter().enumerate() {
        let trace = pass.trace.child(&format!("action:{}", action.name()));
        trace.tag("sched.order", order.to_string());
        let sink = event_sink();
        dispatched.push(Dispatched {
            order,
            name: action.name().to_string(),
            trace: trace.clone(),
            sink: sink.clone(),
        });
        if !pass.config.r#async {
            let outcome = execute_action(action.as_ref(), &pass, &trace, &sink);
            settler.settle(&dispatched[order], outcome);
            continue;
        }
        let pass = pass.clone();
        let worker_tx = worker_tx.clone();
        // Detached-lane pool task rather than a dedicated thread: cheap
        // actions reuse warm threads instead of paying a spawn each, while
        // a task abandoned at the hard cutoff only parks its own lane
        // thread — it can never occupy the fixed pool workers that
        // run the per-vis fan-out inside healthy actions.
        lux_engine::pool::global().spawn_detached(Box::new(move || {
            let worker = lux_engine::worker_index();
            trace.tag(
                "sched.worker",
                worker.map_or("caller".to_string(), |w| w.to_string()),
            );
            let outcome = execute_action(action.as_ref(), &pass, &trace, &sink);
            // Release this worker's pass clone — and with it its
            // governor/ledger handle — *before* signaling completion. The
            // collector may settle the pass the instant this send lands,
            // and the caller's budget drop must then be the last one so
            // the global ledger reflects the pass's exit synchronously.
            drop(action);
            drop(pass);
            let _ = worker_tx.send((order, outcome));
        }));
    }
    drop(worker_tx);

    // The closing half of the pass runs on a detached collector thread
    // under ASYNC, so the caller gets its handle immediately, and inline
    // otherwise (where every action has settled already).
    let (r#async, action_budget) = (pass.config.r#async, pass.config.action_budget);
    let governor = Arc::clone(&pass.governor);
    let permit = pass.permit.clone();
    let close = move || {
        if r#async {
            collect(&settler, &dispatched, worker_rx, action_budget);
        }
        // Every action has settled or been abandoned: free the session slot.
        drop(permit);
        // Replay the buffered governor events onto the pass handle in
        // dispatch order — whatever order the actions finished in — and only
        // then close the run's channels, so a caller returning from
        // `collect_report` reads the complete, deterministic event list. The
        // handle clone goes first: the caller's own drop must be the last
        // one so the global ledger reflects the pass's exit synchronously.
        for action in &dispatched {
            governor.absorb(drain_sink(&action.sink));
        }
        drop(governor);
        drop(settler);
    };
    if r#async {
        std::thread::spawn(close);
    } else {
        close();
    }
    StreamingRun {
        results,
        health,
        expected,
    }
}

/// The ASYNC collector loop: settle outcomes as workers report them, until
/// all have or the hard cutoff (`action_budget × HARD_CUTOFF_FACTOR`)
/// passes; whatever is still outstanding then was hung (or its worker died)
/// — abandon it, charge its breaker, and surface the failure.
fn collect(
    settler: &Settler,
    dispatched: &[Dispatched],
    worker_rx: mpsc::Receiver<(usize, Outcome)>,
    action_budget: Option<Duration>,
) {
    let hard_budget = action_budget.map(|base| base * CostModel::HARD_CUTOFF_FACTOR);
    let cutoff = hard_budget.map(|b| clock::now() + b);
    let mut settled = vec![false; dispatched.len()];
    while settled.contains(&false) {
        let left = cutoff.map_or(Duration::MAX, |at| {
            at.saturating_duration_since(clock::now())
        });
        // Timeout: the hard cutoff. Disconnected: a worker died without
        // reporting (should be unreachable: all action code is isolated).
        // Either way fall through to cleanup.
        let Ok((order, outcome)) = worker_rx.recv_timeout(left) else {
            break;
        };
        settler.settle(&dispatched[order], outcome);
        settled[order] = true;
    }
    for (action, _) in dispatched.iter().zip(settled).filter(|(_, done)| !done) {
        let reason = match hard_budget {
            Some(b) => format!("exceeded hard deadline ({b:?}); worker abandoned"),
            None => "worker terminated without reporting".to_string(),
        };
        settler.fail(action, "abandoned", reason);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{ActionClass, CustomAction};
    use crate::metadata_actions::Correlation;
    use crate::structure_actions::univariate_spec;
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn frame(rows: usize) -> DataFrame {
        DataFrameBuilder::new()
            .float("a", (0..rows).map(|i| i as f64))
            .float("b", (0..rows).map(|i| (i * 2) as f64))
            .float("c", (0..rows).map(|i| ((i * 7919) % 100) as f64))
            .str("dept", (0..rows).map(|i| ["S", "E"][i % 2]))
            .build()
            .unwrap()
    }

    /// The one fixture every test opens its pass through: a standalone pass
    /// over `df` (fresh metadata, no intent, no sample).
    fn pass_over(df: DataFrame, config: LuxConfig) -> Pass {
        let meta = Arc::new(FrameMeta::compute(&df, &HashMap::new()));
        let ctx = PassCtx::detached("pass", config.budget.clone());
        Pass::open(Arc::new(df), meta, &[], Arc::new(config), None, ctx)
    }

    /// The default config with `tweak` applied.
    fn config_with(tweak: impl FnOnce(&mut LuxConfig)) -> LuxConfig {
        let mut config = LuxConfig::default();
        tweak(&mut config);
        config
    }

    fn run_one(action: &dyn Action, pass: &Pass) -> ActionResult {
        execute_action(action, pass, &pass.trace, &event_sink())
            .expect("action runs clean")
            .expect("action has candidates")
    }

    fn report(registry: &ActionRegistry, pass: Pass) -> RunReport {
        run_pass(registry, pass).collect_report()
    }

    /// An always-applicable custom action running `generate`: the fault
    /// harness of these tests (each test names its own, so no sibling test
    /// can run it).
    fn custom(
        name: &str,
        generate: impl Fn(&ActionContext<'_>) -> Result<Vec<Candidate>> + Send + Sync + 'static,
    ) -> impl Action {
        CustomAction::new(name, |_| true, generate)
    }

    /// Univariate candidates over the frame's first two columns.
    fn healthy(ctx: &ActionContext<'_>) -> Vec<Candidate> {
        ctx.meta.columns[..2]
            .iter()
            .map(|c| {
                Candidate::new(univariate_spec(
                    &c.name,
                    c.semantic,
                    ctx.config.histogram_bins,
                ))
            })
            .collect()
    }

    #[test]
    fn execute_correlation_ranks_by_r() {
        let r = run_one(&Correlation, &pass_over(frame(100), LuxConfig::default()));
        assert_eq!(r.action, "Correlation");
        // a-b are perfectly correlated; that pair must rank first.
        let top = &r.vislist.visualizations[0];
        let attrs = top.spec.attributes();
        assert!(attrs.contains(&"a") && attrs.contains(&"b"));
        assert!((top.score - 1.0).abs() < 1e-9);
        assert!(top.data.is_some());
        assert!(!r.degraded);
    }

    #[test]
    fn run_pass_returns_all_classes_on_plain_frame() {
        let registry = ActionRegistry::with_defaults();
        let results = report(&registry, pass_over(frame(60), LuxConfig::default())).results;
        let names: Vec<&str> = results.iter().map(|r| r.action.as_str()).collect();
        assert!(names.contains(&"Correlation"));
        assert!(names.contains(&"Distribution"));
        assert!(names.contains(&"Occurrence"));
        // plain frame: no history/structure/intent actions fire
        assert!(results.iter().all(|r| r.class == ActionClass::Metadata));
    }

    #[test]
    fn async_and_sync_agree_on_content() {
        let registry = ActionRegistry::with_defaults();
        let run = |r#async: bool| {
            let config = config_with(|c| c.r#async = r#async);
            report(&registry, pass_over(frame(80), config)).results
        };
        let (sync, asynced) = (run(false), run(true));
        let names = |rs: &[ActionResult]| rs.iter().map(|r| r.action.clone()).collect::<Vec<_>>();
        assert_eq!(names(&sync), names(&asynced));
        for (a, b) in sync.iter().zip(&asynced) {
            assert_eq!(a.vislist.len(), b.vislist.len());
            for (va, vb) in a.vislist.iter().zip(b.vislist.iter()) {
                assert_eq!(va.spec, vb.spec);
            }
        }
    }

    #[test]
    fn next_result_yields_once_per_action() {
        let registry = ActionRegistry::with_defaults();
        // No budget: the collector waits without a hard cutoff.
        let config = config_with(|c| c.action_budget = None);
        let run = run_pass(&registry, pass_over(frame(50), config));
        let mut seen = 0usize;
        while run.next_result().is_some() {
            seen += 1;
        }
        assert_eq!(seen, run.expected());
        assert!(seen >= 3);
    }

    #[test]
    fn top_k_truncation() {
        let config = config_with(|c| c.top_k = 2);
        let r = run_one(&Correlation, &pass_over(frame(30), config));
        assert!(r.vislist.len() <= 2);
    }

    #[test]
    fn prune_with_sample_keeps_top_pair() {
        let config = config_with(|c| {
            c.prune = true;
            c.top_k = 1;
        });
        let mut pass = pass_over(frame(2000), config);
        let sample = Arc::new(CachedSample::new(100, 7));
        pass.sample = Some(Arc::clone(&sample));
        let r = run_one(&Correlation, &pass);
        assert!(sample.is_cached(), "the engaged gate never drew the sample");
        let attrs = r.vislist.visualizations[0].spec.attributes();
        assert!(attrs.contains(&"a") && attrs.contains(&"b"));
        // final scores are exact (recomputed), so the perfect pair scores 1
        assert!((r.vislist.visualizations[0].score - 1.0).abs() < 1e-9);
    }

    #[test]
    fn forced_gates_of_racing_actions_share_one_drawn_sample() {
        use lux_engine::admission::GlobalLedger;
        // ASYNC dispatches the three metadata actions as concurrent tasks;
        // a `Sampled` floor forces every gate, so all three ask the handle.
        let config = config_with(|c| c.r#async = true);
        let sample = Arc::new(CachedSample::new(50, 7));
        let mut pass = pass_over(frame(400), config);
        pass.sample = Some(Arc::clone(&sample));
        pass.governor = Arc::new(BudgetHandle::governed(
            pass.config.budget.clone(),
            Arc::new(GlobalLedger::new(u64::MAX)),
            DegradeLevel::Sampled,
        ));
        let results = report(&ActionRegistry::with_defaults(), pass.clone()).results;
        assert_eq!(results.len(), 3);
        let trace = pass.trace.collector.snapshot();
        let forced = trace
            .spans
            .iter()
            .filter(|s| s.tag("prune") == Some("forced"));
        assert_eq!(forced.count(), 3, "every gate was forced onto the sample");
        // Whoever asked first drew it (`CachedSample::get` samples under its
        // lock, so once); the others scored on that same frame.
        assert!(sample.is_cached());
        assert_eq!(sample.get(&pass.df).num_rows(), 50);
    }

    #[test]
    fn panicking_action_becomes_failed_health_not_a_crash() {
        let mut registry = ActionRegistry::with_defaults();
        registry.register(custom("Saboteur", |_| panic!("injected panic")));
        let report = report(&registry, pass_over(frame(40), LuxConfig::default()));
        assert!(report.results.iter().all(|r| r.action != "Saboteur"));
        assert!(report.results.iter().any(|r| r.action == "Correlation"));
        match report.status_of("Saboteur") {
            Some(ActionStatus::Failed(reason)) => {
                assert!(reason.contains("panicked"), "reason: {reason}")
            }
            other => panic!("expected Failed, got {other:?}"),
        }
        // healthy actions report Ok
        assert!(matches!(
            report.status_of("Correlation"),
            Some(ActionStatus::Ok)
        ));
    }

    #[test]
    fn erroring_action_health_carries_generation_error() {
        let mut registry = ActionRegistry::new();
        registry.register(custom("Erratic", |_| {
            Err(Error::InvalidArgument("injected error".into()))
        }));
        let report = report(&registry, pass_over(frame(40), LuxConfig::default()));
        assert!(report.results.is_empty());
        let status = report.status_of("Erratic").unwrap();
        assert_eq!(status.name(), "failed");
        assert!(status.reason().unwrap().contains("generation failed"));
    }

    #[test]
    fn slow_action_times_out_degraded_with_partial_results() {
        let config = config_with(|c| {
            c.action_budget = Some(Duration::from_millis(30));
            c.r#async = false;
        });
        let mut registry = ActionRegistry::new();
        registry.register(custom("Molasses", |ctx| {
            let spec = healthy(ctx).swap_remove(0).spec;
            Ok((0..200).map(|_| Candidate::new(spec.clone())).collect())
        }));
        let world = lux_engine::world::World::enter();
        world
            .arm("action.score:Molasses", "sleep(10)")
            .expect("arm");
        let report = report(&registry, pass_over(frame(40), config));
        let r = report
            .results
            .iter()
            .find(|r| r.action == "Molasses")
            .expect("partial results");
        assert!(r.degraded);
        assert!(r.degraded_reason.as_deref().unwrap().contains("budget"));
        assert!(matches!(
            report.status_of("Molasses"),
            Some(ActionStatus::Degraded(_))
        ));
    }

    #[test]
    fn breaker_disables_repeat_offender_then_reprobes() {
        let config = config_with(|c| {
            c.breaker_threshold = 2;
            c.breaker_cooldown = 2;
            c.r#async = false;
        });
        let pass = pass_over(frame(20), config);
        let mut registry = ActionRegistry::new();
        // fails twice (tripping the breaker), then recovers
        let calls = AtomicUsize::new(0);
        registry.register(custom("Flaky", move |ctx| {
            if calls.fetch_add(1, Ordering::SeqCst) < 2 {
                panic!("injected panic");
            }
            Ok(healthy(ctx))
        }));
        // frames 1-2: failures
        for _ in 0..2 {
            let report = report(&registry, pass.clone());
            assert_eq!(report.status_of("Flaky").unwrap().name(), "failed");
        }
        // frame 3: breaker open -> disabled without running
        let disabled = report(&registry, pass.clone());
        assert_eq!(disabled.status_of("Flaky").unwrap().name(), "disabled");
        // frame 4: cooldown elapsed -> half-open probe runs and succeeds
        let probed = report(&registry, pass);
        assert_eq!(probed.status_of("Flaky").unwrap().name(), "ok");
        assert!(probed.results.iter().any(|r| r.action == "Flaky"));
    }

    #[test]
    fn streaming_delivers_all_actions() {
        let registry = ActionRegistry::with_defaults();
        let run = run_pass(&registry, pass_over(frame(200), LuxConfig::default()));
        let expected = run.expected();
        assert!(expected >= 3);
        let report = run.collect_report();
        assert_eq!(report.results.len(), expected);
        assert!(report.health.iter().all(|h| h.status.is_ok()));
        // ordered by estimated cost after collect
        for w in report.results.windows(2) {
            assert!(w[0].estimated_cost <= w[1].estimated_cost);
        }
    }

    #[test]
    fn dropping_run_detaches_cleanly() {
        let registry = ActionRegistry::with_defaults();
        let run = run_pass(&registry, pass_over(frame(50), LuxConfig::default()));
        let _first = run.next_result();
        drop(run); // workers keep running; their sends fail silently
    }

    #[test]
    fn hung_action_is_abandoned_at_hard_cutoff() {
        let config = config_with(|c| c.action_budget = Some(Duration::from_millis(40)));
        let mut registry = ActionRegistry::with_defaults();
        registry.register(custom("Sleeper", |ctx| {
            std::thread::sleep(Duration::from_secs(30));
            Ok(healthy(ctx))
        }));
        let start = clock::now();
        let report = report(&registry, pass_over(frame(50), config));
        // returned in ~hard-cutoff time, not the 30 s hang
        assert!(clock::elapsed(start) < Duration::from_secs(5));
        assert!(report.results.iter().all(|r| r.action != "Sleeper"));
        assert!(report.results.iter().any(|r| r.action == "Distribution"));
        let status = report
            .status_of("Sleeper")
            .expect("health entry for hung action");
        assert_eq!(status.name(), "failed");
        assert!(status.reason().unwrap().contains("hard deadline"));
    }

    #[test]
    fn governor_events_replay_in_dispatch_order() {
        // Both actions enumerate two candidates against a cap of one, so
        // each records a cap event; the first-registered one finishes last.
        let config = config_with(|c| {
            c.r#async = true;
            c.budget.max_candidates = 1;
        });
        let mut registry = ActionRegistry::new();
        registry.register(custom("Early", |ctx| {
            std::thread::sleep(Duration::from_millis(50));
            Ok(healthy(ctx))
        }));
        registry.register(custom("Late", |ctx| Ok(healthy(ctx))));
        let pass = pass_over(frame(40), config);
        let governor = Arc::clone(&pass.governor);
        let report = report(&registry, pass);
        assert_eq!(report.results.len(), 2);
        let stages: Vec<String> = governor.events().into_iter().map(|e| e.stage).collect();
        assert_eq!(stages, ["action:Early", "action:Late"]);
    }
}
