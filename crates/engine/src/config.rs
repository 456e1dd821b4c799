//! Runtime configuration for the Lux engine.

use std::time::Duration;

use crate::governor::ResourceBudget;

/// Global knobs controlling recommendation generation and the three
/// optimizations, matching the experimental conditions of the paper (§9.1):
/// `no-opt`, `wflow`, `wflow+prune`, and `all-opt` are all expressible by
/// toggling these flags.
#[derive(Debug, Clone)]
pub struct LuxConfig {
    /// Top-k visualizations kept per action (paper uses k = 15).
    pub top_k: usize,
    /// Rows in the cached sample used for approximate scoring (paper: 30k).
    pub sample_cap: usize,
    /// Seed for deterministic sampling.
    pub sample_seed: u64,
    /// WFLOW: lazily compute metadata/recommendations on print, and memoize
    /// them until the frame changes. When false, recompute eagerly after
    /// every operation (the paper's `no-opt` baseline).
    pub wflow: bool,
    /// PRUNE: two-pass approximate scoring with the cost-model gate.
    pub prune: bool,
    /// ASYNC: cost-based cheapest-first action scheduling on worker threads.
    pub r#async: bool,
    /// Default number of histogram bins.
    pub histogram_bins: usize,
    /// Maximum filter-wildcard expansions per clause.
    pub max_filter_expansions: usize,
    /// Cardinality ceiling for bar-chart axes; beyond this the axis is
    /// truncated to the top values by count.
    pub max_bars: usize,
    /// When true, visualization data is processed by translating to SQL and
    /// running the in-crate SQL engine instead of the native kernels
    /// (paper §7's relational-database execution path).
    pub sql_backend: bool,
    /// Base wall-clock budget per action. The cost model scales it by the
    /// action's estimated cost (`CostModel::time_budget`); expiry degrades
    /// the action to sample-approximated partial results, and under ASYNC
    /// a hard cutoff at `action_budget x CostModel::HARD_CUTOFF_FACTOR`
    /// abandons hung workers. `None` disables deadlines entirely.
    pub action_budget: Option<Duration>,
    /// Consecutive failures after which an action's circuit breaker opens
    /// and the action is skipped.
    pub breaker_threshold: u32,
    /// Fresh recommendation frames an open breaker waits before half-open
    /// re-probing the action.
    pub breaker_cooldown: u64,
    /// Per-pass resource ceilings (memory, candidate count, group
    /// cardinality). Each print pass opens one
    /// [`crate::governor::BudgetHandle`] over this budget; see
    /// DESIGN.md §8 for the degradation ladder it drives.
    pub budget: ResourceBudget,
    /// Parallelism degree for the print path (metadata fan-out, per-vis
    /// score/process; DESIGN.md §9). `0` — the default —
    /// resolves through [`LuxConfig::effective_threads`]: the `LUX_THREADS`
    /// environment variable when set, else the machine's available
    /// parallelism. `1` forces the fully sequential path.
    pub threads: usize,
}

impl Default for LuxConfig {
    fn default() -> Self {
        LuxConfig {
            top_k: 15,
            sample_cap: crate::sample::DEFAULT_SAMPLE_CAP,
            sample_seed: 0x1ab_cafe,
            wflow: true,
            prune: true,
            r#async: true,
            histogram_bins: 10,
            max_filter_expansions: 24,
            max_bars: 15,
            sql_backend: false,
            action_budget: Some(Duration::from_secs(2)),
            breaker_threshold: 3,
            breaker_cooldown: 2,
            budget: ResourceBudget::default(),
            threads: 0,
        }
    }
}

impl LuxConfig {
    /// The paper's `no-opt` baseline: everything recomputed eagerly, no
    /// approximation, no scheduling.
    pub fn no_opt() -> LuxConfig {
        LuxConfig {
            wflow: false,
            prune: false,
            r#async: false,
            ..LuxConfig::default()
        }
    }

    /// The paper's `wflow` condition.
    pub fn wflow_only() -> LuxConfig {
        LuxConfig {
            wflow: true,
            prune: false,
            r#async: false,
            ..LuxConfig::default()
        }
    }

    /// The paper's `wflow+prune` condition.
    pub fn wflow_prune() -> LuxConfig {
        LuxConfig {
            wflow: true,
            prune: true,
            r#async: false,
            ..LuxConfig::default()
        }
    }

    /// The paper's `all-opt` condition (the default).
    pub fn all_opt() -> LuxConfig {
        LuxConfig::default()
    }

    /// Resolve [`LuxConfig::threads`] to a concrete degree: an explicit
    /// non-zero setting wins; `0` falls back to `LUX_THREADS`
    /// ([`crate::knobs`]), then to
    /// [`std::thread::available_parallelism`], which stays a live read so a
    /// cgroup quota or affinity change takes effect on the next pass.
    /// Never returns 0.
    pub fn effective_threads(&self) -> usize {
        if self.threads != 0 {
            return self.threads;
        }
        crate::knobs::knobs()
            .threads
            .or_else(|| std::thread::available_parallelism().ok().map(|n| n.get()))
            .unwrap_or(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conditions_match_paper() {
        let n = LuxConfig::no_opt();
        assert!(!n.wflow && !n.prune && !n.r#async);
        let w = LuxConfig::wflow_only();
        assert!(w.wflow && !w.prune && !w.r#async);
        let wp = LuxConfig::wflow_prune();
        assert!(wp.wflow && wp.prune && !wp.r#async);
        let all = LuxConfig::all_opt();
        assert!(all.wflow && all.prune && all.r#async);
        assert_eq!(all.top_k, 15);
        assert_eq!(all.sample_cap, 30_000);
    }

    #[test]
    fn fault_defaults_are_bounded() {
        let c = LuxConfig::default();
        assert!(c.action_budget.is_some());
        assert!(c.breaker_threshold >= 1);
        assert!(c.breaker_cooldown >= 1);
    }

    #[test]
    fn explicit_threads_win_over_auto() {
        let mut c = LuxConfig::default();
        assert_eq!(c.threads, 0, "default is auto");
        assert!(c.effective_threads() >= 1);
        c.threads = 3;
        assert_eq!(c.effective_threads(), 3);
        c.threads = 1;
        assert_eq!(c.effective_threads(), 1);
    }

    #[test]
    fn budget_defaults_are_finite() {
        let c = LuxConfig::default();
        assert!(c.budget.max_bytes < u64::MAX);
        assert!(c.budget.max_candidates >= c.top_k);
        assert!(c.budget.max_group_cardinality >= c.max_bars);
    }
}
