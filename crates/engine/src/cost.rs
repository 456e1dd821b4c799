//! The visualization cost model (paper §8.2, Table 2).
//!
//! Each visualization type reduces to one primary relational operation; the
//! cost of processing a visualization is modeled as a per-operation
//! coefficient times the number of input rows (plus a cardinality term for
//! group-bys). The ASYNC optimization sums these per action to schedule the
//! cheapest action first, and the PRUNE optimization uses the same model to
//! decide whether two-pass approximation pays off. The fault layer reuses
//! the same estimates to set per-action wall-clock budgets
//! ([`CostModel::time_budget`]).

use std::time::Duration;

/// The primary relational operation classes of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Scatterplot: selection on 2 columns.
    Selection2,
    /// Colored scatterplot: selection on 3 columns.
    Selection3,
    /// Line/Bar: group-by aggregation.
    GroupAgg,
    /// Colored line/bar: 2D group-by aggregation.
    GroupAgg2D,
    /// Histogram: bin + count.
    BinCount,
    /// Heatmap: 2D bin + count.
    BinCount2D,
    /// Colored heatmap: 2D bin + count + group-by aggregation.
    BinCount2DGroup,
}

impl OpClass {
    pub fn name(self) -> &'static str {
        match self {
            OpClass::Selection2 => "selection-2col",
            OpClass::Selection3 => "selection-3col",
            OpClass::GroupAgg => "group-by-agg",
            OpClass::GroupAgg2D => "2d-group-by-agg",
            OpClass::BinCount => "bin+count",
            OpClass::BinCount2D => "2d-bin+count",
            OpClass::BinCount2DGroup => "2d-bin+count+group-by",
        }
    }

    /// All classes, for sweeps and the Table 2 bench.
    pub const ALL: [OpClass; 7] = [
        OpClass::Selection2,
        OpClass::Selection3,
        OpClass::GroupAgg,
        OpClass::GroupAgg2D,
        OpClass::BinCount,
        OpClass::BinCount2D,
        OpClass::BinCount2DGroup,
    ];
}

/// Linear per-row cost model with per-class coefficients.
///
/// Units are abstract "row-visits"; only *relative* magnitudes matter, since
/// the scheduler and prune gate compare estimates against each other. The
/// coefficients reflect the relative expense of each kernel in this
/// codebase (selection ≈ copy, group-by ≈ hash per row, 2D variants ≈ 2x).
#[derive(Debug, Clone, Copy, Default)]
pub struct CostModel;

impl CostModel {
    /// Abstract cost treated as "one base budget's worth of work" when
    /// converting estimates into wall-clock budgets: roughly one
    /// full-sample-sized action (30k rows x ~15 candidates x ~2 cost units).
    pub const REFERENCE_COST: f64 = 1_000_000.0;

    /// Budget scale ceiling, and the multiple of the base budget at which
    /// the ASYNC collector's hard cutoff abandons a hung worker.
    pub const HARD_CUTOFF_FACTOR: u32 = 4;

    /// Added per distinct group produced (materialization of the result).
    const GROUP_COEFFICIENT: f64 = 4.0;

    /// Convert an action's abstract cost estimate into a wall-clock budget:
    /// the base budget scaled linearly with estimated cost, clamped to
    /// `[1, HARD_CUTOFF_FACTOR] x base` so cheap actions get the full base
    /// and no cooperative deadline ever exceeds the hard cutoff.
    pub fn time_budget(&self, estimated_cost: f64, base: Duration) -> Duration {
        let scale = estimated_cost / Self::REFERENCE_COST;
        let scale = if scale.is_finite() {
            scale.clamp(1.0, Self::HARD_CUTOFF_FACTOR as f64)
        } else {
            Self::HARD_CUTOFF_FACTOR as f64
        };
        base.mul_f64(scale)
    }

    /// Estimated cost of one visualization: `rows` input rows producing
    /// `groups` output rows (0 for selections).
    pub fn vis_cost(&self, class: OpClass, rows: usize, groups: usize) -> f64 {
        let coefficient = match class {
            OpClass::Selection2 => 1.0,
            OpClass::Selection3 => 1.4,
            OpClass::GroupAgg => 2.0,
            OpClass::GroupAgg2D => 3.6,
            OpClass::BinCount => 1.6,
            OpClass::BinCount2D => 2.8,
            OpClass::BinCount2DGroup => 4.2,
        };
        coefficient * rows as f64 + Self::GROUP_COEFFICIENT * groups as f64
    }

    /// Estimated cost of an action: the sum of its visualization costs
    /// (paper §8.2: "we estimate the cost of the action as the sum of the
    /// visualization costs in the VisList").
    pub fn action_cost<I: IntoIterator<Item = (OpClass, usize, usize)>>(&self, specs: I) -> f64 {
        specs
            .into_iter()
            .map(|(c, r, g)| self.vis_cost(c, r, g))
            .sum()
    }

    /// The PRUNE gate (paper §8.2): approximate-then-recompute pays off when
    /// `N*t_exact >> N*t_approx + k*t_exact`. We require a strict improvement
    /// with a safety factor of 2 on the right-hand side.
    pub fn prune_worthwhile(
        &self,
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
        let t_exact = self.vis_cost(class, exact_rows, groups);
        let t_approx = self.vis_cost(class, sample_rows.min(exact_rows), groups);
        let n = num_candidates as f64;
        n * t_exact > 2.0 * (n * t_approx + k as f64 * t_exact)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn costs_scale_with_rows() {
        let m = CostModel::default();
        assert!(m.vis_cost(OpClass::GroupAgg, 1000, 10) > m.vis_cost(OpClass::GroupAgg, 100, 10));
        assert!(
            m.vis_cost(OpClass::GroupAgg2D, 1000, 10) > m.vis_cost(OpClass::GroupAgg, 1000, 10)
        );
    }

    #[test]
    fn selection_is_cheapest() {
        let m = CostModel::default();
        for c in OpClass::ALL {
            assert!(m.vis_cost(OpClass::Selection2, 1000, 0) <= m.vis_cost(c, 1000, 0));
        }
    }

    #[test]
    fn action_cost_sums() {
        let m = CostModel::default();
        let one = m.vis_cost(OpClass::BinCount, 500, 10);
        let total = m.action_cost(vec![(OpClass::BinCount, 500, 10); 3]);
        assert!((total - 3.0 * one).abs() < 1e-9);
    }

    #[test]
    fn prune_gate_requires_big_n_and_small_sample() {
        let m = CostModel::default();
        // many candidates, sample far smaller than data: worthwhile
        assert!(m.prune_worthwhile(100, 15, OpClass::Selection2, 1_000_000, 30_000, 0));
        // few candidates: not worthwhile
        assert!(!m.prune_worthwhile(10, 15, OpClass::Selection2, 1_000_000, 30_000, 0));
        // sample as large as data: not worthwhile
        assert!(!m.prune_worthwhile(100, 15, OpClass::Selection2, 20_000, 30_000, 0));
    }

    #[test]
    fn time_budget_scales_and_clamps() {
        let m = CostModel::default();
        let base = Duration::from_millis(100);
        // cheap action: full base budget, never less
        assert_eq!(m.time_budget(0.0, base), base);
        assert_eq!(m.time_budget(CostModel::REFERENCE_COST / 10.0, base), base);
        // double the reference cost: double the budget
        assert_eq!(
            m.time_budget(2.0 * CostModel::REFERENCE_COST, base),
            2 * base
        );
        // clamped at the hard-cutoff multiple, even for absurd estimates
        let max = base * CostModel::HARD_CUTOFF_FACTOR;
        assert_eq!(m.time_budget(1e18, base), max);
        assert_eq!(m.time_budget(f64::MAX, base), max);
    }

    #[test]
    fn class_names_unique() {
        let names: std::collections::HashSet<_> = OpClass::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), OpClass::ALL.len());
    }
}
