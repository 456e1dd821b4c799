//! The recommendation pass (paper §8.2): one executor for every caller.
//!
//! A caller opens a [`Pass`] and hands it to [`run_pass`], which gates the
//! registry's actions on the caller (applicability, circuit breaker) and
//! dispatches each runnable one — as a detached pool task under ASYNC,
//! inline otherwise — through the five stages of [`execute_action`]
//! (`enumerate → plan → score → select_top_k → process`, PRUNE being the
//! sample-scored first pass). An action runs on its pass and its plan
//! alone: what it may degrade before it runs — the candidate cap, the
//! deadline, the PRUNE gate — and each group-by's byte charge are decided
//! once, by its plan (`crate::plan`). The blocking API is
//! [`StreamingRun::collect_report`].
//!
//! An ASYNC pass keeps each action's state in one place, its `Board`: a
//! slot per action (dispatched → planned → settled) under one lock. Each
//! worker settles its own action through it the moment it has a result. On
//! frames of at least [`ORDERED_ROWS`] rows workers also wait on it between
//! planning and scoring while the cheapest plan runs alone, so its tab
//! arrives first (paper §8.2: cheap actions return first). A collector
//! waits on it until every slot has settled or the hard cutoff
//! (`crate::plan::hard_cutoff`) has passed, and abandons hung workers.
//! Every wait is on [`lux_engine::clock`], so a simulated `World` moves
//! them all. Without ASYNC the caller settles each action inline.
//!
//! Every action runs under the fault model of [`crate::fault`]: generation,
//! scoring, and processing are panic-isolated; each action gets a time
//! budget derived from its cost estimate (`LuxConfig::action_budget` scaled
//! by the cost model of `crate::plan`) with cooperative checks between
//! steps; and a per-action circuit breaker skips actions that keep failing,
//! with a half-open re-probe after a cooldown of fresh frames. One
//! misbehaving action can therefore never take down a recommendation pass:
//! every healthy action's results are still served, and the per-action
//! health ledger in [`RunReport`] says what happened to the rest.

use std::sync::{mpsc, Condvar, Mutex};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use lux_dataframe::prelude::*;
use lux_engine::governor::{BudgetHandle, DegradeLevel, ResourceBudget};
use lux_engine::trace::{names as metric, MetricsRegistry, SpanId, TraceCollector};
use lux_engine::{clock, failpoint, lock_recover};
use lux_engine::{AdmissionPermit, FrameMeta, LuxConfig};
use lux_intent::{Clause, CompileOptions};
use lux_vis::{ProcessOptions, Vis, VisList, VisSpec};

use crate::action::{Action, ActionContext, ActionRegistry, ActionResult, Candidate};
use crate::fault::{
    isolate, ActionError, ActionHealth, ActionStatus, BreakerDecision, CircuitBreaker, Deadline,
    RunReport,
};
use crate::plan::{base_budget, hard_cutoff, runs_alone, Plan, SampleMode, ORDERED_ROWS};

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
    /// What is left of the client's deadline, when it set one: no action of
    /// the pass plans a longer time budget.
    pub deadline: Option<Duration>,
}

impl PassCtx {
    /// A root span nobody reads and a fresh handle over `budget`, charged
    /// to no ledger (standalone passes).
    pub fn detached(name: &str, budget: ResourceBudget) -> PassCtx {
        PassCtx {
            trace: TraceCtx::root(name),
            governor: Arc::new(BudgetHandle::new(budget)),
            deadline: None,
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
            deadline: None,
        }
    }

    /// The same budget and deadline under a child span.
    pub fn child(&self, name: &str) -> PassCtx {
        PassCtx {
            trace: self.trace.child(name),
            governor: Arc::clone(&self.governor),
            deadline: self.deadline,
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
    /// The frame's PRUNE sample slot, shared by every pass over the frame:
    /// filled by the first [`Pass::sample`] call (an engaged or forced gate,
    /// a degraded survivor), never up front.
    sample: Arc<OnceLock<Arc<DataFrame>>>,
    /// The span under which per-action spans are recorded.
    pub trace: TraceCtx,
    /// Per-pass resource governor shared by every worker: allocation-heavy
    /// steps degrade against its budget instead of exhausting memory.
    pub governor: Arc<BudgetHandle>,
    /// What is left of the client's deadline, as opened ([`PassCtx`]).
    pub deadline: Option<Duration>,
    /// Admission slot held for the duration of the pass. [`run_pass`]
    /// hands it to the collector alone, so the slot is released once every
    /// action has settled or been abandoned: not when the caller's stack
    /// frame unwinds, nor when an abandoned worker ends. `None` — as opened
    /// — when the caller holds the slot itself.
    pub permit: Option<Arc<AdmissionPermit>>,
    /// `config` as processing options; each call into an action attaches
    /// its governor scope to a copy.
    opts: ProcessOptions,
}

impl Pass {
    /// Open a pass over `df` in `ctx`: compile `intent` against `meta` (an
    /// empty or invalid intent compiles to no specs — the widget shows the
    /// diagnostics instead), and derive the processing options from
    /// `config`. `sample` is the frame's PRUNE sample slot; a standalone
    /// pass hands in an empty one of its own.
    pub fn open(
        df: Arc<DataFrame>,
        meta: Arc<FrameMeta>,
        intent: &[Clause],
        config: Arc<LuxConfig>,
        sample: Arc<OnceLock<Arc<DataFrame>>>,
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
            sample,
            opts: ProcessOptions::from(&*config),
            config,
            trace: ctx.trace,
            governor: ctx.governor,
            deadline: ctx.deadline,
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

    /// Plan an action's `candidates` over this pass (`crate::plan`). The
    /// PRUNE sample's size is known without drawing it.
    fn plan(&self, candidates: &[Candidate]) -> Plan {
        let rows = |c: &Candidate| c.frame.as_deref().unwrap_or(&self.df).num_rows();
        let specs: Vec<(&VisSpec, usize)> = candidates.iter().map(|c| (&c.spec, rows(c))).collect();
        let sample_rows = self.config.sample_cap.min(self.df.num_rows());
        let (meta, config, governor) = (&self.meta, &self.config, &self.governor);
        Plan::new(&specs, meta, config, governor, sample_rows, self.deadline)
    }

    /// The frame's PRUNE sample, drawn on first read — once per frame,
    /// whichever pass or worker asks first: the frame itself at or under
    /// `sample_cap`, else a seeded draw of `sample_cap` rows.
    pub fn sample(&self) -> Arc<DataFrame> {
        let (df, cap) = (&self.df, self.config.sample_cap);
        let drawn = self.sample.get_or_init(|| {
            if df.num_rows() <= cap {
                Arc::clone(df)
            } else {
                Arc::new(df.sample(cap, self.config.sample_seed))
            }
        });
        Arc::clone(drawn)
    }
}

// ---------------------------------------------------------------------
// One action: enumerate → plan → score → select_top_k → process
// ---------------------------------------------------------------------

/// A kept candidate with its first-pass score and whether that score was
/// computed on the PRUNE sample.
type Scored = (Candidate, f64, bool);

type Outcome = std::result::Result<Option<ActionResult>, ActionError>;

/// One action's trip through stages 3–5 on its plan: the borrowed inputs,
/// the [`Plan`] they run on, and what the stages accumulate for the final
/// [`ActionResult`].
struct ActionRun<'a> {
    action: &'a dyn Action,
    /// The action's pass, whose governor is the action's own scope.
    pass: &'a Pass,
    /// The action's own span.
    trace: &'a TraceCtx,
    plan: Plan,
    /// The PRUNE sample, when the plan engages or forces it.
    sample: Option<Arc<DataFrame>>,
    started: Instant,
    deadline: Deadline,
    /// Why the deadline degraded this action, when it did.
    degraded_reason: Option<String>,
    /// Processing steps the resource governor degraded, counted as the
    /// fan-out scopes are adopted.
    degraded_steps: usize,
}

/// Stage 1: run `action.generate` under panic isolation, folding generation
/// errors into the [`ActionError`] taxonomy. `Ok(None)` means no candidates.
fn enumerate(
    action: &dyn Action,
    pass: &Pass,
    trace: &TraceCtx,
) -> std::result::Result<Option<Vec<Candidate>>, ActionError> {
    let ctx = pass.action_context();
    let span = trace.child("generate");
    let generated = isolate(action.name(), || action.generate(&ctx))
        .and_then(|r| r.map_err(|e| ActionError::Generation(e.to_string())));
    match &generated {
        Ok(c) => span.tag("candidates", c.len().to_string()),
        Err(_) => span.tag("failed", "true"),
    }
    span.end();
    let candidates = generated?;
    Ok((!candidates.is_empty()).then_some(candidates))
}

impl<'a> ActionRun<'a> {
    /// Stage 2, carried out: record the plan's cap event, tag its decisions,
    /// count the PRUNE verdict and draw the sample when it engages, and
    /// charge each group-by in candidate order. A refused charge breaches
    /// the pass budget and changes nothing else: the bytes are the ledger's
    /// record, not a bound on what the action draws. Then take the turn of
    /// an ASYNC `job` on its board and arm the planned deadline, so the
    /// budget counts from when the action runs, not from when it planned
    /// (still no later than the client's deadline, counted from dispatch).
    /// `started` is when generation ended: the action is timed from there,
    /// less the wait.
    fn start(
        action: &'a dyn Action,
        pass: &'a Pass,
        trace: &'a TraceCtx,
        plan: Plan,
        started: Instant,
        job: Option<&Job>,
    ) -> ActionRun<'a> {
        let governor = &*pass.governor;
        if let Some(note) = &plan.cap_note {
            let stage = format!("action:{}", action.name());
            governor.record(stage, DegradeLevel::CappedCardinality, note.clone());
        }
        trace.tag("candidates", plan.kept.to_string());
        trace.tag("cost.estimated", format!("{:.0}", plan.cost));
        if let Some(budget) = plan.deadline {
            let ms = budget.as_secs_f64() * 1e3;
            trace.tag("deadline.budget_ms", format!("{ms:.1}"));
        }
        if let Some(counter) = plan.sample.counter() {
            MetricsRegistry::global().incr(counter);
        }
        trace.tag("prune", plan.sample.name());
        let sample = (plan.sample >= SampleMode::Engaged).then(|| pass.sample());
        for &bytes in plan.group_bytes.iter().filter(|&&b| b > 0) {
            governor.try_charge(bytes);
        }
        let planned = clock::now();
        let (deadline, first) = match job {
            Some(Job(board, order)) => board.turn(*order, plan.cost, plan.deadline),
            None => (Deadline::planned(plan.deadline, None), false),
        };
        let waited = clock::elapsed(planned);
        trace.tag("sched.wait_us", waited.as_micros().to_string());
        if first {
            trace.tag("sched.first", "true");
        }
        ActionRun {
            action,
            pass,
            trace,
            plan,
            sample,
            // The wait is not the action's cost.
            started: started + waited,
            deadline,
            degraded_reason: None,
            degraded_steps: 0,
        }
    }

    /// A scope of the action's governor per fan-out item, adopted in order.
    fn scopes(&self, n: usize) -> Vec<Arc<BudgetHandle>> {
        let governor = &self.pass.governor;
        (0..n).map(|_| Arc::new(governor.scope())).collect()
    }

    /// Options for one call into the action, recording on `scope`.
    fn call_opts(&self, scope: &Arc<BudgetHandle>) -> ProcessOptions {
        let mut opts = self.pass.opts.clone();
        opts.governor = Some(Arc::clone(scope));
        opts
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
    ) -> std::result::Result<Vec<Scored>, ActionError> {
        let total = candidates.len();
        let par = self.pass.config.effective_threads();
        let span = self.trace.child("score");
        span.tag("par", par.to_string());
        let scopes = self.scopes(total);
        let outcomes =
            lux_engine::parallel_map(par, candidates, |i, cand| self.score_one(cand, &scopes[i]));
        let mut scored: Vec<Scored> = Vec::with_capacity(total);
        for (outcome, scope) in outcomes.into_iter().zip(&scopes) {
            self.degraded_steps += self.pass.governor.adopt(scope);
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
        span.tag("approximate", self.sample.is_some().to_string());
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
    fn score_one(
        &self,
        cand: Candidate,
        scope: &Arc<BudgetHandle>,
    ) -> std::result::Result<Option<Scored>, ActionError> {
        if self.deadline.expired() {
            return Ok(None);
        }
        let copts = self.call_opts(scope);
        // Candidates pinned to their own frame (history/structure actions)
        // are scored on that frame; others use the sample when pruning.
        let (frame, approx): (&DataFrame, bool) = match (&cand.frame, &self.sample) {
            (Some(f), _) => (f, false),
            (None, Some(s)) => (s, true),
            (None, None) => (&self.pass.df, false),
        };
        let score = isolate(self.action.name(), || {
            let _ = failpoint::hit_for(failpoint::names::ACTION_SCORE, self.action.name());
            self.action.score(&cand.spec, frame, &copts)
        });
        score.map(|s| Some((cand, s, approx)))
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
        let scopes = self.scopes(survivors.len());
        let outcomes = lux_engine::parallel_map(par, survivors, |i, survivor| {
            self.process_one(survivor, &scopes[i], already_degraded)
        });
        let mut visses: Vec<Vis> = Vec::with_capacity(outcomes.len());
        let mut last_processing_error: Option<String> = None;
        for (outcome, scope) in outcomes.into_iter().zip(&scopes) {
            self.degraded_steps += self.pass.governor.adopt(scope);
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
        scope: &Arc<BudgetHandle>,
        already_degraded: bool,
    ) -> std::result::Result<Processed, ActionError> {
        let name = self.action.name();
        let copts = self.call_opts(scope);
        let Candidate {
            spec,
            frame: pinned,
        } = cand;
        if !already_degraded && !self.deadline.expired() {
            let frame: &DataFrame = pinned.as_deref().unwrap_or(&self.pass.df);
            return isolate(name, || -> Result<Vis> {
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
            .map(Processed::Exact);
        }
        // Degraded path: best-effort processing against the pinned frame or
        // the sample; score-only (no data) when neither works.
        let mut vis = Vis::new(spec);
        vis.score = score;
        vis.approximate = true;
        let sample = || self.pass.config.prune.then(|| self.pass.sample());
        if let Some(frame) = pinned.or_else(sample) {
            let _ = isolate(name, || vis.process(&frame, &copts));
        }
        Ok(Processed::Degraded(vis))
    }

    /// Rank the processed survivors and fold what the stages accumulated —
    /// deadline degradation, governor notes — into the result.
    fn into_result(self, visses: Vec<Vis>) -> ActionResult {
        let mut vislist = VisList::new(visses);
        vislist.rank();
        // "(other)" folds mark the tab degraded even though the deadline
        // never fired.
        let steps = self.degraded_steps;
        self.trace.tag("governor.events", steps.to_string());
        // The deadline's reason first, then the governor's.
        let mut reasons: Vec<String> = self.degraded_reason.into_iter().collect();
        reasons.extend(self.plan.cap_note);
        if steps > 0 {
            reasons.push(format!(
                "resource governor degraded {steps} processing step(s)"
            ));
        }
        let degraded_reason = (!reasons.is_empty()).then(|| reasons.join("; "));
        ActionResult {
            action: self.action.name().to_string(),
            class: self.action.class(),
            vislist,
            estimated_cost: self.plan.cost,
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

/// Execute one action end-to-end under the fault model: generate, plan,
/// score (approximately when PRUNE applies), rank, keep top-k, and process
/// the survivors exactly. Phase spans and decision tags are recorded under
/// `trace` (the action's own span), governor events on `pass.governor`,
/// which must be the action's own. `Ok(None)` means the action generated no
/// candidates (an invisible empty tab, not a fault).
pub fn execute_action(
    action: &dyn Action,
    pass: &Pass,
    trace: &TraceCtx,
) -> std::result::Result<Option<ActionResult>, ActionError> {
    execute(action, pass, trace, None)
}

/// [`execute_action`], taking the action's turn on its pass's board
/// between planning and scoring when it runs as an ASYNC `job`.
fn execute(action: &dyn Action, pass: &Pass, trace: &TraceCtx, job: Option<&Job>) -> Outcome {
    let Some(mut candidates) = enumerate(action, pass, trace)? else {
        return Ok(None);
    };
    // The action is timed from here: generation has its own span.
    let started = clock::now();
    let plan = pass.plan(&candidates);
    candidates.truncate(plan.kept);
    let mut run = ActionRun::start(action, pass, trace, plan, started, job);
    if candidates.is_empty() {
        // The budget kept none: an empty tab, like no candidates at all.
        return Ok(None);
    }
    let scored = run.score(candidates)?;
    let survivors = run.select_top_k(scored);
    run.process(survivors)
}

// ---------------------------------------------------------------------
// The pass: breaker → dispatch → (turns) → settle
// ---------------------------------------------------------------------

/// A recommendation run whose results stream as actions settle.
///
/// This is the ASYNC optimization as the user experiences it (paper §8.2):
/// "recommendation results can be streamed into the frontend widget as the
/// computation for each action completes ... instead of incurring a high
/// wait time". Results arrive on one channel, per-action health on another;
/// under ASYNC each worker sends its own action's, and a collector thread
/// enforces the hard cutoff on [`lux_engine::clock`] — workers that outlive
/// it are abandoned (they finish on their own and deliver nothing) and
/// reported as failed. Dropping the handle likewise detaches everything
/// cleanly. Without ASYNC every action has already settled by the time the
/// handle is returned.
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

/// The settling side of a pass — each action's worker under ASYNC (the
/// collector for what it abandons, a dead job's guard for what it never
/// settled), the caller otherwise: it owns the breaker bookkeeping, the
/// `lux.actions.*` metrics, the closing span tags, and the run's sending
/// ends, so health stays correct even when the consumer drops the
/// [`StreamingRun`] undrained. Under ASYNC the [`Board`] holds it, and the
/// collector closes the channels by taking it.
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

    /// Settle one finished action, `order` in dispatch order: breaker,
    /// metrics, span, delivery.
    fn settle(&self, order: usize, action: &Slot, outcome: Outcome) {
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
        let (status, counter) = match result.degraded {
            true => ("degraded", metric::ACTIONS_DEGRADED),
            false => ("ok", metric::ACTIONS_OK),
        };
        metrics.incr(counter);
        action.trace.tag("status", status);
        let actual_ms = format!("{:.2}", result.elapsed * 1e3);
        action.trace.tag("cost.actual_ms", actual_ms);
        if let Some(reason) = &result.degraded_reason {
            action.trace.tag("degraded.reason", reason.clone());
        }
        action.trace.end();
        let health =
            (result.degraded_reason.clone()).map_or(ActionStatus::Ok, ActionStatus::Degraded);
        let _ = self.health.send(ActionHealth::new(&action.name, health));
        let _ = self.results.send((order, result));
    }

    /// Settle an action that produced nothing: it failed (`status`
    /// `"failed"`), or was abandoned at the hard cutoff or by a dead worker
    /// (`"abandoned"`).
    fn fail(&self, action: &Slot, status: &str, reason: String) {
        let metrics = MetricsRegistry::global();
        metrics.incr(metric::ACTIONS_FAILED);
        if (self.breaker).record_failure(&action.name, &reason, self.threshold) {
            metrics.incr(metric::BREAKER_TRIPS);
        }
        action.trace.tag("status", status);
        action.trace.tag("error", reason.clone());
        action.trace.end();
        let health = ActionHealth::new(&action.name, ActionStatus::Failed(reason));
        let _ = self.health.send(health);
    }
}

/// Where a dispatched action stands: the one record of its state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Generating candidates: no plan yet.
    Dispatched,
    /// Planned at [`Slot::cost`] in an ordered pass: waiting for its turn,
    /// or running.
    Planned,
    /// Settled by its worker, or failed by its dying job or the collector.
    Settled,
}

/// One dispatched action on its pass's [`Board`].
struct Slot {
    name: String,
    /// The action's span: opened at dispatch, ended when it settles.
    trace: TraceCtx,
    /// The action's scope of the pass budget, adopted when the pass closes.
    governor: Arc<BudgetHandle>,
    cost: Option<f64>,
    phase: Phase,
}

/// What a [`Board`]'s lock guards: the slots, and the turns of an ordered
/// pass — ASYNC over a frame of at least [`ORDERED_ROWS`] rows, with a base
/// budget. There, once every action has planned or settled, or the base
/// budget has passed, the cheapest plan runs alone; the rest go once it has
/// settled or overrun its deadline.
struct Scoreboard {
    /// In dispatch order; the collector takes them when the pass closes.
    slots: Vec<Slot>,
    /// The run's sending ends, until the collector takes them.
    settler: Option<Settler>,
    /// Dispatch plus the base budget, past which the decision stops waiting
    /// for actions still generating; `None` when every action runs at once.
    planning_ends: Option<Instant>,
    /// Dispatch plus what is left of the client's deadline: no deadline
    /// armed at a turn falls later.
    latest: Option<Instant>,
    /// The action that runs alone, once decided (by one that has planned).
    first: Option<usize>,
    /// When the first action's deadline falls, once it runs.
    overrun_at: Option<Instant>,
}

impl Scoreboard {
    /// Whether planned `order` may run at `now`: `Ok(true)` when it runs
    /// alone, `Ok(false)` when it runs beside the others (at once in an
    /// unordered pass), and while it waits `Err` of when to look again if
    /// nothing notifies. Decides which action runs alone once every action
    /// has planned or settled, or planning has ended.
    fn turn(&mut self, order: usize, now: Instant) -> std::result::Result<bool, Option<Instant>> {
        let slots = &self.slots;
        // Unordered, abandoned, or the pass has closed: nothing to wait for.
        let waits = slots.get(order).is_some_and(|s| s.phase != Phase::Settled);
        let Some(planning_ends) = self.planning_ends.filter(|_| waits) else {
            return Ok(false);
        };
        let planned = slots.iter().all(|s| s.phase != Phase::Dispatched);
        if self.first.is_none() && (planned || now >= planning_ends) {
            self.first = runs_alone(&slots.iter().map(|s| s.cost).collect::<Vec<_>>());
        }
        let first = self.first.ok_or(Some(planning_ends))?;
        let overran = self.overrun_at.is_some_and(|at| now >= at);
        let released = slots[first].phase == Phase::Settled || overran;
        let go = first == order || released;
        go.then_some(first == order).ok_or(self.overrun_at)
    }
}

/// The settling side of an ASYNC pass: every dispatched action's [`Slot`],
/// the ordered pass's turns and the run's [`Settler`], under one lock.
/// Workers take their turn and settle on it; the collector waits on it
/// until every slot has settled or the hard cutoff has passed. Every change
/// notifies every waiter, and every wait is on [`lux_engine::clock`]. An
/// update is a few assignments: a poisoned lock still holds a usable state.
struct Board {
    state: Mutex<Scoreboard>,
    changed: Condvar,
}

impl Board {
    /// `order` has planned at `cost`: block until its turn, then arm its
    /// deadline of `budget`, no later than the client's, which is the
    /// overrun the others wait for when it runs alone. Returns the deadline
    /// and whether the action runs alone.
    fn turn(&self, order: usize, cost: f64, budget: Option<Duration>) -> (Deadline, bool) {
        let mut board = lock_recover(&self.state);
        // Only an ordered pass's turns wait for plans.
        if let (Some(_), Some(slot)) = (board.planning_ends, board.slots.get_mut(order)) {
            (slot.cost, slot.phase) = (Some(cost), Phase::Planned);
            self.changed.notify_all();
        }
        let first = loop {
            match board.turn(order, clock::now()) {
                Ok(first) => break first,
                Err(at) => board = clock::wait_until(&self.changed, board, at),
            }
        };
        let deadline = Deadline::planned(budget, board.latest);
        if first {
            board.overrun_at = deadline.at();
            self.changed.notify_all();
        }
        (deadline, first)
    }

    /// Settle slot `order` with `settle`, unless it has settled already or
    /// the pass has closed.
    fn settle(&self, order: usize, settle: impl FnOnce(&Settler, &Slot)) {
        let mut board = lock_recover(&self.state);
        let Scoreboard { slots, settler, .. } = &mut *board;
        let slot = slots.get_mut(order).filter(|s| s.phase != Phase::Settled);
        if let (Some(slot), Some(settler)) = (slot, settler) {
            settle(settler, slot);
            slot.phase = Phase::Settled;
            self.changed.notify_all();
        }
    }

    /// The collector: wait until every slot has settled or the hard cutoff,
    /// `hard` after `dispatch`, has passed, then close the board and fail
    /// what has not settled as abandoned. Hands back the slots and the
    /// settler for the pass to close; an abandoned worker delivers nothing.
    fn collect(&self, dispatch: Instant, hard: Option<Duration>) -> (Vec<Slot>, Option<Settler>) {
        let cutoff = hard.map(|budget| dispatch + budget);
        let mut board = lock_recover(&self.state);
        while board.slots.iter().any(|s| s.phase != Phase::Settled)
            && cutoff.is_none_or(|at| clock::now() < at)
        {
            board = clock::wait_until(&self.changed, board, cutoff);
        }
        if let (Some(budget), Some(settler)) = (hard, &board.settler) {
            let reason = format!("exceeded hard deadline ({budget:?}); worker abandoned");
            for slot in board.slots.iter().filter(|s| s.phase != Phase::Settled) {
                settler.fail(slot, "abandoned", reason.clone());
            }
        }
        let closed = (std::mem::take(&mut board.slots), board.settler.take());
        // A worker still waiting for its turn goes now.
        self.changed.notify_all();
        closed
    }
}

/// An ASYNC action's hold on its slot (the board, its dispatch order),
/// owned by its job: the worker takes its turn and settles through it.
/// Dropped before it settled (the job died, or the pool dropped it unrun),
/// it fails the slot, so the pass never waits for a worker that is gone.
struct Job(Arc<Board>, usize);

impl Drop for Job {
    fn drop(&mut self) {
        let reason = "worker terminated without reporting";
        (self.0).settle(self.1, |settler, slot| {
            settler.fail(slot, "abandoned", reason.into())
        });
    }
}

/// Run every applicable action of `registry` over `pass`.
///
/// With `config.async` each action runs as a detached pool task and the
/// call returns immediately. Even `generate` runs on the worker, so a hung
/// action cannot stall the caller; each worker delivers its own result the
/// moment it has one. On a frame of at least [`ORDERED_ROWS`] rows with a
/// base budget, the tasks also wait between planning and scoring while the
/// cheapest plan runs alone, so its tab arrives first instead of sharing
/// the CPUs with every other action. Smaller frames run all actions at
/// once. One `Board` tracks every task's state and turn; a collector
/// thread closes the pass on it. Without ASYNC the same stages run inline on the
/// caller, in dispatch order, under panic isolation and cooperative
/// deadlines but no hard cutoff — an action that blocks inside one call
/// delays the pass.
pub fn run_pass(registry: &ActionRegistry, mut pass: Pass) -> StreamingRun {
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

    let r#async = pass.config.r#async;
    let dispatch = clock::now();
    // Without a base budget nothing would bound the wait behind a hung
    // action, so such a pass stays unordered.
    let ordered = r#async && pass.df.num_rows() >= ORDERED_ROWS;
    let base = base_budget(&pass.config, pass.deadline).filter(|_| ordered);
    // The collector holds the session slot, not the workers: an abandoned
    // worker must not keep it.
    let permit = pass.permit.take();
    let mut slots: Vec<Slot> = Vec::with_capacity(expected);
    let mut jobs = Vec::new();
    for (order, action) in runnable.into_iter().enumerate() {
        let name = action.name().to_string();
        let trace = pass.trace.child(&format!("action:{name}"));
        trace.tag("sched.order", order.to_string());
        let governor = Arc::new(pass.governor.scope());
        let mut slot = Slot {
            name,
            trace,
            governor: Arc::clone(&governor),
            cost: None,
            phase: Phase::Dispatched,
        };
        let pass = Pass {
            governor,
            ..pass.clone()
        };
        if r#async {
            jobs.push((action, pass, slot.trace.clone()));
        } else {
            let outcome = execute_action(action.as_ref(), &pass, &slot.trace);
            settler.settle(order, &slot, outcome);
            slot.phase = Phase::Settled;
        }
        slots.push(slot);
    }
    // Every slot is on the board before any job runs, so no turn is
    // decided without the whole pass.
    let state = Mutex::new(Scoreboard {
        slots,
        settler: Some(settler),
        planning_ends: base.map(|base| dispatch + base),
        latest: base.and(pass.deadline).map(|left| dispatch + left),
        first: None,
        overrun_at: None,
    });
    let changed = Condvar::new();
    let board = Arc::new(Board { state, changed });
    for (order, (action, pass, trace)) in jobs.into_iter().enumerate() {
        let job = Job(Arc::clone(&board), order);
        // Detached-lane pool task rather than a dedicated thread: cheap
        // actions reuse warm threads instead of paying a spawn each, while
        // a task abandoned at the hard cutoff (or waiting for its turn)
        // only parks its own lane thread — it can never occupy the fixed
        // pool workers that run the per-vis fan-out inside healthy actions.
        lux_engine::pool::global().spawn_detached(Box::new(move || {
            let worker = lux_engine::worker_index().map_or("caller".to_string(), |w| w.to_string());
            trace.tag("sched.worker", worker);
            let outcome = execute(action.as_ref(), &pass, &trace, Some(&job));
            // Release this worker's pass clone — and with it its
            // governor/ledger handle — *before* settling. The collector may
            // close the pass the instant the slot settles, and the caller's
            // budget drop must then be the last one so the global ledger
            // reflects the pass's exit synchronously.
            drop((action, pass));
            // Delivered unless the collector has abandoned the slot.
            (job.0).settle(order, |settler, slot| settler.settle(order, slot, outcome));
        }));
    }

    // The closing half of the pass runs on a detached collector thread
    // under ASYNC, so the caller gets its handle immediately, and inline
    // otherwise (where every action has settled already).
    let cutoff = hard_cutoff(&pass.config, pass.deadline);
    let governor = Arc::clone(&pass.governor);
    let close = move || {
        let (slots, settler) = board.collect(dispatch, cutoff);
        // Every action has settled or been abandoned: free the session slot.
        drop(permit);
        // Adopt the actions' governor scopes onto the pass handle in dispatch
        // order — whatever order the actions finished in — and only then
        // close the run's channels, so a caller returning from
        // `collect_report` reads the complete, deterministic event list. The
        // scopes and the handle clone go first: the caller's own drop must
        // be the last one so the global ledger reflects the pass's exit
        // synchronously.
        for slot in slots {
            governor.adopt(&slot.governor);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{ActionClass, CustomAction};
    use crate::metadata_actions::Correlation;
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
    /// over `df` (fresh metadata, no intent, a sample slot of its own).
    fn pass_over(df: DataFrame, config: LuxConfig) -> Pass {
        let meta = Arc::new(FrameMeta::compute(&df, &HashMap::new()));
        let ctx = PassCtx::detached("pass", config.budget.clone());
        let config = Arc::new(config);
        Pass::open(Arc::new(df), meta, &[], config, Default::default(), ctx)
    }

    /// The default config with `tweak` applied.
    fn config_with(tweak: impl FnOnce(&mut LuxConfig)) -> LuxConfig {
        let mut config = LuxConfig::default();
        tweak(&mut config);
        config
    }

    fn run_one(action: &dyn Action, pass: &Pass) -> ActionResult {
        execute_action(action, pass, &pass.trace)
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
        let names = ctx.meta.columns[..2].iter().map(|c| c.name.clone());
        ctx.compile(&[Clause::axis_union(names)])
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
        // A small frame, and a tall one on which ASYNC runs the cheapest
        // plan alone, at one thread and at eight.
        for (rows, threads) in [(80, 0), (ORDERED_ROWS, 1), (ORDERED_ROWS, 8)] {
            let run = |r#async: bool| {
                let config = config_with(|c| (c.r#async, c.threads) = (r#async, threads));
                report(&registry, pass_over(frame(rows), config)).results
            };
            let (sync, asynced) = (run(false), run(true));
            let names =
                |rs: &[ActionResult]| rs.iter().map(|r| r.action.clone()).collect::<Vec<_>>();
            assert_eq!(names(&sync), names(&asynced), "{rows} rows");
            for (a, b) in sync.iter().zip(&asynced) {
                assert_eq!(a.vislist.len(), b.vislist.len());
                for (va, vb) in a.vislist.iter().zip(b.vislist.iter()) {
                    assert_eq!(va.spec, vb.spec);
                    assert_eq!(va.score.to_bits(), vb.score.to_bits(), "{:?}", va.spec);
                }
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
            (c.sample_cap, c.sample_seed) = (100, 7);
        });
        let pass = pass_over(frame(2000), config);
        let r = run_one(&Correlation, &pass);
        let drawn = pass.sample.get().expect("the engaged gate drew nothing");
        assert_eq!(drawn.num_rows(), 100);
        let attrs = r.vislist.visualizations[0].spec.attributes();
        assert!(attrs.contains(&"a") && attrs.contains(&"b"));
        // final scores are exact (recomputed), so the perfect pair scores 1
        assert!((r.vislist.visualizations[0].score - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sample_is_the_frame_up_to_the_cap() {
        let capped = config_with(|c| c.sample_cap = 100);
        let pass = pass_over(frame(100), capped.clone());
        assert!(Arc::ptr_eq(&pass.sample(), &pass.df));
        let pass = pass_over(frame(101), capped);
        assert_eq!(pass.sample().num_rows(), 100);
    }

    #[test]
    fn forced_gates_of_racing_actions_share_one_drawn_sample() {
        use lux_engine::admission::GlobalLedger;
        // ASYNC dispatches the three metadata actions as concurrent tasks;
        // a `Sampled` floor forces every gate, so all three ask the handle.
        let config = config_with(|c| {
            c.r#async = true;
            (c.sample_cap, c.sample_seed) = (50, 7);
        });
        let mut pass = pass_over(frame(400), config);
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
        // Whoever asked first drew it (`OnceLock::get_or_init` runs one
        // initializer); the others scored on that same frame.
        let drawn = pass.sample.get().expect("no gate drew the sample");
        assert_eq!(drawn.num_rows(), 50);
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
        // On the tall frame the hang never plans: the turns stop waiting
        // for it after one base budget.
        for rows in [50, ORDERED_ROWS] {
            let start = clock::now();
            let report = report(&registry, pass_over(frame(rows), config.clone()));
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
    }

    /// A board of `n` actions still generating — ordered, planning ending
    /// at `planning_ends`, when given one — and the health it reports.
    fn board_of(
        n: usize,
        planning_ends: Option<Instant>,
    ) -> (Arc<Board>, mpsc::Receiver<ActionHealth>) {
        let (results, _) = mpsc::channel();
        let (health_tx, health) = mpsc::channel();
        let settler = Settler {
            breaker: Arc::default(),
            threshold: 3,
            results,
            health: health_tx,
        };
        let trace = TraceCtx::root("pass");
        let slots = (0..n).map(|order| Slot {
            name: format!("A{order}"),
            trace: trace.child(&format!("action:A{order}")),
            governor: Arc::new(BudgetHandle::new(ResourceBudget::default())),
            cost: None,
            phase: Phase::Dispatched,
        });
        let state = Mutex::new(Scoreboard {
            slots: slots.collect(),
            settler: Some(settler),
            planning_ends,
            latest: None,
            first: None,
            overrun_at: None,
        });
        (
            Arc::new(Board {
                state,
                changed: Condvar::new(),
            }),
            health,
        )
    }

    impl Board {
        fn lock(&self) -> std::sync::MutexGuard<'_, Scoreboard> {
            lock_recover(&self.state)
        }
    }

    /// Plan slot `order` at `cost` without waiting for its turn.
    fn plan(board: &Board, order: usize, cost: f64) {
        let slot = &mut board.lock().slots[order];
        (slot.cost, slot.phase) = (Some(cost), Phase::Planned);
    }

    #[test]
    fn no_turn_before_every_action_plans_or_planning_ends() {
        let now = clock::now();
        let ends = now + Duration::from_millis(50);
        let (board, _) = board_of(3, Some(ends));
        for (order, cost) in [(0, 5.0), (1, 3.0)] {
            plan(&board, order, cost);
        }
        let mut state = board.lock();
        // Action 2 is still generating: look again when planning ends.
        assert_eq!(state.turn(0, now), Err(Some(ends)));
        assert_eq!(state.turn(1, now), Err(Some(ends)));
        assert_eq!(state.first, None, "nothing decided yet");
        // Planning is over: the cheapest of those that planned runs alone.
        assert_eq!(state.turn(0, ends), Err(None), "waits for a notify");
        assert_eq!(state.turn(1, ends), Ok(true));
    }

    #[test]
    fn the_cheapest_plan_runs_alone() {
        let now = clock::now();
        let (board, _) = board_of(3, Some(now + Duration::from_secs(60)));
        for (order, cost) in [(0, 5.0), (1, 3.0), (2, 3.0)] {
            plan(&board, order, cost);
        }
        let mut state = board.lock();
        assert_eq!(state.turn(0, now), Err(None), "decided, not its turn");
        let tie = state.turn(2, now);
        assert_eq!(tie, Err(None), "ties go to the earliest dispatched");
        assert_eq!(state.turn(1, now), Ok(true));
        // An unordered pass has no turns: every action runs at once.
        let (unordered, _) = board_of(2, None);
        plan(&unordered, 1, 1.0);
        assert_eq!(unordered.lock().turn(1, now), Ok(false));
    }

    #[test]
    fn the_rest_go_once_the_first_settles_or_overruns() {
        let now = clock::now();
        let (board, _) = board_of(2, Some(now + Duration::from_secs(60)));
        plan(&board, 1, 2.0);
        // The last to plan is the cheapest: its turn comes at once, and
        // its deadline is the overrun the other waits for.
        let (deadline, first) = board.turn(0, 1.0, Some(Duration::from_secs(10)));
        assert!(first);
        let overrun = deadline.at().expect("a 10 s deadline");
        let mut state = board.lock();
        assert_eq!(state.turn(1, now), Err(Some(overrun)));
        assert_eq!(state.turn(1, overrun), Ok(false), "the first overran");
        state.slots[0].phase = Phase::Settled;
        assert_eq!(state.turn(1, now), Ok(false), "the first settled");
    }

    #[test]
    fn a_died_or_abandoned_slot_resolves() {
        let now = clock::now();
        let ends = now + Duration::from_secs(60);
        let (board, health) = board_of(3, Some(ends));
        plan(&board, 0, 2.0);
        // Action 1's job is dropped unrun: its slot settles failed, and the
        // decision waits only for action 2, until its job is dropped too.
        drop(Job(Arc::clone(&board), 1));
        let died = health.try_recv().expect("the dropped job reported");
        let reason = "worker terminated without reporting";
        assert_eq!(died.status, ActionStatus::Failed(reason.to_string()));
        assert_eq!(board.lock().turn(0, now), Err(Some(ends)));
        drop(Job(Arc::clone(&board), 2));
        assert_eq!(board.lock().turn(0, now), Ok(true));
        // At a hard cutoff that has passed, the collector abandons what has
        // not settled (action 0) and closes the pass.
        let (slots, settler) = board.collect(now, Some(Duration::ZERO));
        assert_eq!((slots.len(), settler.is_some()), (3, true));
        let rest: Vec<ActionHealth> = health.try_iter().collect();
        assert_eq!(rest.len(), 2, "{rest:?}");
        let abandoned = rest[1].status.reason().unwrap_or_default();
        assert_eq!(rest[1].action, "A0");
        assert!(
            abandoned.starts_with("exceeded hard deadline"),
            "{abandoned}"
        );
        // A worker still waiting for its turn goes; one that settles late
        // delivers nothing.
        assert_eq!(board.lock().turn(0, now), Ok(false));
        let mut settled = false;
        board.settle(0, |_, _| settled = true);
        assert!(!settled && health.try_recv().is_err());
    }

    #[test]
    fn warm_memo_charges_what_a_cold_pass_charges() {
        // Occurrence's bars go through the processed-vis memo: the first
        // pass fills it and the second hits it. Both plan, and so charge,
        // the same group-bys.
        let df = frame(300);
        let config = config_with(|c| c.wflow = true);
        let charged = || {
            let pass = pass_over(df.clone(), config.clone());
            let governor = Arc::clone(&pass.governor);
            report(&ActionRegistry::with_defaults(), pass);
            governor.charged()
        };
        let (cold, warm) = (charged(), charged());
        assert!(cold > 0, "no group-by was charged");
        assert_eq!(cold, warm, "a memo hit changed the pass's accounting");
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
