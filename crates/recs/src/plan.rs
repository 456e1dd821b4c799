//! One plan per action (paper §8.2): the cost model of Table 2, and from
//! it the candidate cap, the deadline, the PRUNE gate and each group-by's
//! byte charge, decided once before anything is scored, plus the pass's
//! hard cutoff that bounds every deadline and, on tall frames, which
//! planned action runs alone. `crate::generate` carries the plans out; the
//! one degradation left to run time is the group-by kernel's `"(other)"`
//! fold.
//!
//! The model is linear: each visualization reduces to one primary
//! relational operation ([`OpClass`]), costed as a per-class coefficient
//! times its input rows plus a term per group it materializes. Units are
//! abstract "row-visits"; only relative magnitudes matter, since the
//! scheduler and the gate compare estimates against each other. The
//! coefficients reflect the relative expense of each kernel in this
//! codebase (selection ≈ copy, group-by ≈ hash per row, 2D variants ≈ 2x).

use std::time::Duration;

use lux_engine::governor::{BudgetHandle, DegradeLevel};
use lux_engine::trace::names as metric;
use lux_engine::{FrameMeta, LuxConfig};
use lux_vis::{Channel, OpClass, VisSpec};

/// Abstract cost treated as "one base budget's worth of work" when
/// converting estimates into wall-clock budgets: roughly one
/// full-sample-sized action (30k rows x ~15 candidates x ~2 cost units).
const REFERENCE_COST: f64 = 1_000_000.0;

/// Budget scale ceiling, and the multiple of the base budget at which the
/// ASYNC collector's hard cutoff abandons a hung worker.
const HARD_CUTOFF_FACTOR: u32 = 4;

/// Added per distinct group produced (materialization of the result).
const GROUP_COEFFICIENT: f64 = 4.0;

/// Estimated cost of one visualization: `rows` input rows producing
/// `groups` output rows (0 for selections).
pub fn vis_cost(class: OpClass, rows: usize, groups: usize) -> f64 {
    let coefficient = match class {
        OpClass::Selection2 => 1.0,
        OpClass::Selection3 => 1.4,
        OpClass::GroupAgg => 2.0,
        OpClass::GroupAgg2D => 3.6,
        OpClass::BinCount => 1.6,
        OpClass::BinCount2D => 2.8,
        OpClass::BinCount2DGroup => 4.2,
    };
    coefficient * rows as f64 + GROUP_COEFFICIENT * groups as f64
}

/// Estimated cost of an action: the sum of its visualization costs (paper
/// §8.2: "we estimate the cost of the action as the sum of the
/// visualization costs in the VisList").
fn action_cost(specs: impl IntoIterator<Item = (OpClass, usize, usize)>) -> f64 {
    (specs.into_iter()).map(|(c, r, g)| vis_cost(c, r, g)).sum()
}

/// Convert an action's cost estimate into a wall-clock budget: the base
/// budget scaled linearly with estimated cost, clamped to
/// `[1, HARD_CUTOFF_FACTOR] x base` so cheap actions get the full base and
/// no cooperative deadline ever exceeds the hard cutoff.
fn time_budget(estimated_cost: f64, base: Duration) -> Duration {
    let scale = estimated_cost / REFERENCE_COST;
    let scale = if scale.is_finite() {
        scale.clamp(1.0, HARD_CUTOFF_FACTOR as f64)
    } else {
        HARD_CUTOFF_FACTOR as f64
    };
    base.mul_f64(scale)
}

/// The PRUNE gate (paper §8.2): approximate-then-recompute pays off when
/// `N*t_exact >> N*t_approx + k*t_exact`. We require a strict improvement
/// with a safety factor of 2 on the right-hand side.
pub fn prune_worthwhile(
    num_candidates: usize,
    k: usize,
    class: OpClass,
    exact_rows: usize,
    sample_rows: usize,
    groups: usize,
) -> bool {
    if num_candidates <= k {
        return false;
    }
    let t_exact = vis_cost(class, exact_rows, groups);
    let t_approx = vis_cost(class, sample_rows.min(exact_rows), groups);
    let n = num_candidates as f64;
    n * t_exact > 2.0 * (n * t_approx + k as f64 * t_exact)
}

/// The output cardinality of `spec`'s primary relational operation over
/// `rows` rows (Table 2): selections materialize no groups, binned ops one
/// group per bin, and group-bys one group per key combination.
fn groups(spec: &VisSpec, meta: &FrameMeta, rows: usize) -> usize {
    let cardinality = |ch| {
        let column = spec.channel(ch).and_then(|e| meta.column(&e.attribute));
        column.map_or(1, |c| c.cardinality.min(rows))
    };
    let bins = |ch| spec.channel(ch).and_then(|e| e.bin).unwrap_or(10);
    match spec.op_class() {
        OpClass::Selection2 | OpClass::Selection3 => 0,
        OpClass::GroupAgg => cardinality(Channel::X),
        OpClass::GroupAgg2D => (cardinality(Channel::X))
            .saturating_mul(cardinality(Channel::Color))
            .min(rows),
        OpClass::BinCount => bins(Channel::X),
        OpClass::BinCount2D | OpClass::BinCount2DGroup => bins(Channel::X) * bins(Channel::Y),
    }
}

/// Frames of at least this many rows run an ASYNC pass's cheapest planned
/// action alone before the rest (DESIGN.md §9). Below it, row scans are too
/// short for the head start to outweigh the lost overlap. It is the paper's
/// sample size, where a measured sweep put the crossover.
pub const ORDERED_ROWS: usize = 30_000;

/// The action of an ordered pass that runs alone, from each dispatched
/// action's planned cost (`None` until it has planned, or when it never
/// will): the lowest cost, ties to the earliest dispatched, NaN last.
pub(crate) fn runs_alone(costs: &[Option<f64>]) -> Option<usize> {
    let planned = costs.iter().enumerate();
    let planned = planned.filter_map(|(order, cost)| Some((order, (*cost)?)));
    // `min_by` keeps the first of equal minima: the earliest dispatched.
    let cheapest = planned.min_by(|(_, a), (_, b)| lux_engine::cmp_cost_asc(*a, *b));
    cheapest.map(|(order, _)| order)
}

/// An action's base time budget: the configured one, capped at what is left
/// of the client's deadline (either alone when the other is unset).
pub(crate) fn base_budget(config: &LuxConfig, client: Option<Duration>) -> Option<Duration> {
    match (config.action_budget, client) {
        (Some(base), Some(left)) => Some(base.min(left)),
        (base, left) => base.or(left),
    }
}

/// The pass's hard cutoff, past which the ASYNC collector abandons a hung
/// worker: `HARD_CUTOFF_FACTOR` base budgets. No planned deadline exceeds it.
pub(crate) fn hard_cutoff(config: &LuxConfig, client: Option<Duration>) -> Option<Duration> {
    base_budget(config, client).map(|base| base * HARD_CUTOFF_FACTOR)
}

/// The time budget of an action estimated at `cost`: cheap actions get the
/// base budget, heavyweight ones up to the hard cutoff — but never past the
/// client's deadline.
fn deadline(cost: f64, config: &LuxConfig, client: Option<Duration>) -> Option<Duration> {
    base_budget(config, client).map(|base| {
        let budget = time_budget(cost, base);
        client.map_or(budget, |left| budget.min(left))
    })
}

/// Whether an action scores on the PRUNE sample, in ladder order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum SampleMode {
    Off,
    /// PRUNE is on, but the cost model sees no win.
    Skipped,
    Engaged,
    /// A `Sampled` admission floor forces the sample, whatever the model.
    Forced,
}

impl SampleMode {
    /// The action span's `prune` tag.
    pub(crate) fn name(self) -> &'static str {
        ["off", "skipped", "engaged", "forced"][self as usize]
    }

    /// The PRUNE counter the verdict bumps, when PRUNE is on.
    pub(crate) fn counter(self) -> Option<&'static str> {
        match self {
            SampleMode::Off => None,
            SampleMode::Skipped => Some(metric::PRUNE_SKIPPED),
            SampleMode::Engaged | SampleMode::Forced => Some(metric::PRUNE_ENGAGED),
        }
    }
}

/// What one action will do, from its candidates' specs and frame row
/// counts, the metadata, the config and the pass budget: no column data is
/// read, so a test can state what an action will do without running it.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Plan {
    /// How many candidates are kept: the first ones, in generation order.
    pub kept: usize,
    /// The candidate-cap event's detail, when some were dropped.
    pub cap_note: Option<String>,
    /// The cost model's estimate over the kept candidates.
    pub cost: f64,
    /// The action's time budget, when the config or the client sets one.
    pub deadline: Option<Duration>,
    pub sample: SampleMode,
    /// Bytes each kept candidate's group-by is charged, for the pass ledger
    /// and its breach flag only: 8 a row of its frame (group ids plus key
    /// codes), whatever cap it runs under; 0 for marks that do not group.
    pub group_bytes: Vec<u64>,
}

impl Plan {
    /// Plan `candidates` (each a spec and its frame's row count), the first
    /// of a search space of `space`, over the frame `meta` describes, whose
    /// PRUNE sample would hold `sample_rows`, with `client` left of the
    /// client's deadline.
    pub(crate) fn new(
        candidates: &[(&VisSpec, usize)],
        space: usize,
        meta: &FrameMeta,
        config: &LuxConfig,
        governor: &BudgetHandle,
        sample_rows: usize,
        client: Option<Duration>,
    ) -> Plan {
        // The governor's cap may be tighter than the config's: under
        // admission pressure the shed ladder shrinks it (DESIGN.md §10).
        let max_candidates = governor.budget().max_candidates;
        let kept = candidates.len().min(max_candidates);
        let dropped = space - kept;
        let cap_note = (dropped > 0).then(|| {
            format!("candidate search space capped at {max_candidates} ({dropped} dropped)")
        });
        let candidates = &candidates[..kept];
        let cost = (candidates.iter())
            .map(|&(spec, rows)| (spec.op_class(), rows, groups(spec, meta, rows)));
        let cost = action_cost(cost);
        // Approximate when the model predicts a win on a genuinely smaller
        // sample (paper: "apply prune for any action where the number of
        // visualizations exceeds k"), or when the admission floor forces it.
        let worthwhile = || {
            let (rep, rows) = (candidates[0].0, meta.num_rows);
            let (k, class) = (config.top_k, rep.op_class());
            prune_worthwhile(kept, k, class, rows, sample_rows, groups(rep, meta, rows))
        };
        let sample = if !config.prune {
            SampleMode::Off
        } else if kept == 0 {
            // Nothing to score, so nothing to sample.
            SampleMode::Skipped
        } else if governor.degrade_floor() >= DegradeLevel::Sampled {
            SampleMode::Forced
        } else if worthwhile() {
            SampleMode::Engaged
        } else {
            SampleMode::Skipped
        };
        let grouped =
            |spec: &VisSpec| matches!(spec.op_class(), OpClass::GroupAgg | OpClass::GroupAgg2D);
        Plan {
            kept,
            cap_note,
            cost,
            deadline: deadline(cost, config, client),
            sample,
            group_bytes: candidates
                .iter()
                .map(|&(spec, rows)| if grouped(spec) { rows as u64 * 8 } else { 0 })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn config_with(tweak: impl FnOnce(&mut LuxConfig)) -> LuxConfig {
        let mut config = LuxConfig::default();
        tweak(&mut config);
        config
    }

    fn scatter() -> VisSpec {
        use lux_engine::SemanticType::Quantitative;
        let enc = |a: &str, ch| lux_vis::Encoding::new(a, Quantitative, ch);
        let encodings = vec![enc("a", Channel::X), enc("b", Channel::Y)];
        VisSpec::new(lux_vis::Mark::Scatter, encodings, vec![])
    }

    fn bar() -> VisSpec {
        let x = lux_vis::Encoding::new("dept", lux_engine::SemanticType::Nominal, Channel::X);
        let count = lux_vis::Encoding::synthetic_count(Channel::Y);
        VisSpec::new(lux_vis::Mark::Bar, vec![x, count], vec![])
    }

    #[test]
    fn costs_scale_with_rows() {
        assert!(vis_cost(OpClass::GroupAgg, 1000, 10) > vis_cost(OpClass::GroupAgg, 100, 10));
        assert!(vis_cost(OpClass::GroupAgg2D, 1000, 10) > vis_cost(OpClass::GroupAgg, 1000, 10));
    }

    #[test]
    fn selection_is_cheapest() {
        for c in OpClass::ALL {
            assert!(vis_cost(OpClass::Selection2, 1000, 0) <= vis_cost(c, 1000, 0));
        }
    }

    #[test]
    fn action_cost_sums() {
        let one = vis_cost(OpClass::BinCount, 500, 10);
        let total = action_cost(vec![(OpClass::BinCount, 500, 10); 3]);
        assert!((total - 3.0 * one).abs() < 1e-9);
    }

    #[test]
    fn prune_gate_requires_big_n_and_small_sample() {
        // many candidates, sample far smaller than data: worthwhile
        assert!(prune_worthwhile(
            100,
            15,
            OpClass::Selection2,
            1_000_000,
            30_000,
            0
        ));
        // few candidates: not worthwhile
        assert!(!prune_worthwhile(
            10,
            15,
            OpClass::Selection2,
            1_000_000,
            30_000,
            0
        ));
        // sample as large as data: not worthwhile
        assert!(!prune_worthwhile(
            100,
            15,
            OpClass::Selection2,
            20_000,
            30_000,
            0
        ));
    }

    #[test]
    fn time_budget_scales_and_clamps() {
        let base = Duration::from_millis(100);
        // cheap action: full base budget, never less
        assert_eq!(time_budget(0.0, base), base);
        assert_eq!(time_budget(REFERENCE_COST / 10.0, base), base);
        // double the reference cost: double the budget
        assert_eq!(time_budget(2.0 * REFERENCE_COST, base), 2 * base);
        // clamped at the hard-cutoff multiple, even for absurd estimates
        let max = base * HARD_CUTOFF_FACTOR;
        assert_eq!(time_budget(1e18, base), max);
        assert_eq!(time_budget(f64::MAX, base), max);
        assert_eq!(time_budget(f64::NAN, base), max);
    }

    /// The plan of `n` copies of `spec` on a `rows`-row frame that exists
    /// only as metadata.
    fn plan_of(
        spec: &VisSpec,
        n: usize,
        rows: usize,
        config: &LuxConfig,
        governor: &BudgetHandle,
        sample_rows: usize,
    ) -> Plan {
        let meta = FrameMeta {
            columns: Vec::new(),
            num_rows: rows,
        };
        let specs = vec![(spec, rows); n];
        Plan::new(&specs, n, &meta, config, governor, sample_rows, None)
    }

    #[test]
    fn plan_keeps_the_first_candidates_up_to_the_cap() {
        let config = LuxConfig::default();
        let governor = BudgetHandle::new(config.budget.clone());
        let plan = plan_of(&scatter(), 100, 1_000, &config, &governor, 1_000);
        assert_eq!(plan.kept, 64);
        assert_eq!(
            plan.cap_note.as_deref(),
            Some("candidate search space capped at 64 (36 dropped)")
        );
        assert_eq!(plan.group_bytes.len(), 64);
        let plan = plan_of(&scatter(), 10, 1_000, &config, &governor, 1_000);
        assert_eq!((plan.kept, plan.cap_note), (10, None));
        assert_eq!(governor.event_count(), 0, "planning records nothing");
        // A generator that stopped at the cap hands over its prefix and the
        // size of the whole space, which the note counts.
        let meta = FrameMeta {
            columns: Vec::new(),
            num_rows: 1_000,
        };
        let spec = scatter();
        let capped = "candidate search space capped at";
        for (cap, n, space, note) in [
            (64, 64, 7_875, Some(format!("{capped} 64 (7811 dropped)"))),
            (16, 16, 7_875, Some(format!("{capped} 16 (7859 dropped)"))),
            (0, 0, 3, Some(format!("{capped} 0 (3 dropped)"))),
            (64, 45, 45, None),
        ] {
            let config = config_with(|c| c.budget.max_candidates = cap);
            let governor = BudgetHandle::new(config.budget.clone());
            let specs = vec![(&spec, 1_000); n];
            let plan = Plan::new(&specs, space, &meta, &config, &governor, 1_000, None);
            assert_eq!((plan.kept, plan.group_bytes.len()), (n, n));
            assert_eq!(plan.cap_note, note);
        }
    }

    #[test]
    fn plan_picks_each_sample_mode() {
        let config = LuxConfig::default();
        let exact = BudgetHandle::new(config.budget.clone());
        let floored_at = |budget| {
            let ledger = Arc::new(lux_engine::admission::GlobalLedger::new(u64::MAX));
            BudgetHandle::governed(budget, ledger, DegradeLevel::Sampled)
        };
        let floored = floored_at(config.budget.clone());
        let none_kept = lux_engine::ResourceBudget {
            max_candidates: 0,
            ..config.budget.clone()
        };
        let off = config_with(|c| c.prune = false);
        let mode = |n, config: &LuxConfig, governor, sample| {
            let plan = plan_of(&scatter(), n, 1_000_000, config, governor, sample);
            (plan.sample.name(), plan.sample.counter())
        };
        let (engaged, skipped) = (Some(metric::PRUNE_ENGAGED), Some(metric::PRUNE_SKIPPED));
        // PRUNE off: nothing sampled or counted, whatever the floor.
        assert_eq!(mode(64, &off, &exact, 30_000), ("off", None));
        assert_eq!(mode(10, &off, &floored, 30_000), ("off", None));
        // 64 candidates over a 30k sample of 1M rows pay off; 10 under
        // top-k never do, nor does a sample as large as the frame.
        assert_eq!(mode(64, &config, &exact, 30_000), ("engaged", engaged));
        assert_eq!(mode(10, &config, &exact, 30_000), ("skipped", skipped));
        assert_eq!(mode(64, &config, &exact, 1_000_000), ("skipped", skipped));
        // The admission floor forces the sample the model would skip.
        assert_eq!(mode(10, &config, &floored, 30_000), ("forced", engaged));
        assert_eq!(mode(64, &config, &floored, 1_000_000), ("forced", engaged));
        // A budget that keeps no candidate has nothing to sample.
        let none = BudgetHandle::new(none_kept.clone());
        assert_eq!(mode(64, &config, &none, 30_000), ("skipped", skipped));
        assert_eq!(
            mode(64, &config, &floored_at(none_kept), 30_000),
            ("skipped", skipped)
        );
    }

    #[test]
    fn plan_deadline_scales_the_base_budget_by_cost() {
        let base = Duration::from_millis(50);
        let config = config_with(|c| c.action_budget = Some(base));
        let governor = BudgetHandle::new(config.budget.clone());
        for rows in [100, 1_000_000] {
            let plan = plan_of(&bar(), 20, rows, &config, &governor, rows);
            let cost = action_cost(vec![(OpClass::GroupAgg, rows, 1); 20]);
            assert_eq!(plan.cost, cost);
            assert_eq!(plan.deadline, Some(time_budget(cost, base)));
        }
        let unbounded = config_with(|c| c.action_budget = None);
        let plan = plan_of(&bar(), 20, 100, &unbounded, &governor, 100);
        assert_eq!(plan.deadline, None);
    }

    #[test]
    fn no_planned_deadline_exceeds_the_hard_cutoff() {
        let reference = REFERENCE_COST;
        let costs = [
            0.0,
            reference,
            4.0 * reference,
            100.0 * reference,
            f64::NAN,
            f64::INFINITY,
        ];
        let ms = Duration::from_millis;
        for base in [ms(30), ms(40), ms(50), ms(333)] {
            let config = config_with(|c| c.action_budget = Some(base));
            for client in [None, Some(ms(25)), Some(ms(70)), Some(ms(10_000))] {
                let cutoff = hard_cutoff(&config, client).expect("a budget is set");
                for cost in costs {
                    let planned = deadline(cost, &config, client).expect("a budget is set");
                    assert!(planned <= cutoff, "{planned:?} > {cutoff:?} at {cost}");
                }
            }
        }
    }

    #[test]
    fn the_cheapest_planned_action_runs_alone() {
        let nan = Some(f64::NAN);
        assert_eq!(runs_alone(&[]), None);
        assert_eq!(runs_alone(&[None, None]), None);
        assert_eq!(runs_alone(&[Some(3.0), Some(1.0), Some(2.0)]), Some(1));
        // Ties go to dispatch order; NaN sorts last; unplanned never runs.
        assert_eq!(runs_alone(&[Some(2.0), Some(1.0), Some(1.0)]), Some(1));
        assert_eq!(runs_alone(&[nan, Some(9.0), None]), Some(1));
        assert_eq!(runs_alone(&[None, nan, nan]), Some(1));
        assert_eq!(runs_alone(&[None, Some(5.0), Some(0.5)]), Some(2));
    }

    #[test]
    fn plan_predicts_bytes_for_group_bys_only() {
        let config = LuxConfig::default();
        let governor = BudgetHandle::new(config.budget.clone());
        let meta = FrameMeta {
            columns: Vec::new(),
            num_rows: 1_000,
        };
        let (scatter, bar) = (scatter(), bar());
        let mut histogram = scatter.clone();
        histogram.mark = lux_vis::Mark::Histogram;
        // The bar pinned to a 40-row frame is charged on that frame.
        let specs = [
            (&scatter, 1_000),
            (&bar, 1_000),
            (&histogram, 1_000),
            (&bar, 40),
        ];
        let plan = Plan::new(&specs, specs.len(), &meta, &config, &governor, 1_000, None);
        assert_eq!(plan.group_bytes, [0, 8_000, 0, 320]);
        assert_eq!(governor.charged(), 0, "planning charges nothing");
    }
}
