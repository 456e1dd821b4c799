//! Installable failpoint hook for the dependency-free base crate.
//!
//! The failpoint registry lives in `lux-engine` (which depends on this
//! crate), so the CSV/SQL injection sites here cannot call it directly.
//! Instead the engine installs its evaluator once, through [`install`],
//! and the sites call [`hit`]. Until an evaluator is installed — the standalone-dataframe and
//! production-default case — [`hit`] is a single relaxed atomic load
//! returning `None`, so the crate stands alone with no behavior change and
//! no measurable cost.

use std::sync::atomic::{AtomicUsize, Ordering};

/// An evaluator: given a failpoint name, return `Some(message)` to inject a
/// failure (the site maps it to its native error type), panic to inject a
/// crash, or block internally to inject latency.
pub type Evaluator = fn(&str) -> Option<String>;

/// Installed evaluator, stored as a `usize` so the disabled fast path is a
/// lone relaxed load (0 = none installed).
static EVALUATOR: AtomicUsize = AtomicUsize::new(0);

/// Install the process-wide evaluator. The first call wins; later calls are
/// ignored (the engine installs exactly once, on failpoint init).
pub fn install(eval: Evaluator) {
    let _ = EVALUATOR.compare_exchange(0, eval as usize, Ordering::Release, Ordering::Relaxed);
}

/// True once an evaluator has been installed.
pub fn has_evaluator() -> bool {
    EVALUATOR.load(Ordering::Relaxed) != 0
}

/// Evaluate the failpoint `name` through the installed hook, if any.
pub fn hit(name: &str) -> Option<String> {
    let raw = EVALUATOR.load(Ordering::Relaxed);
    if raw == 0 {
        return None;
    }
    // SAFETY: the only non-zero value ever stored is a valid `Evaluator`
    // function pointer written by `install`.
    let eval: Evaluator = unsafe { std::mem::transmute::<usize, Evaluator>(raw) };
    eval(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uninstalled_hit_is_none() {
        // Installation is process-global and first-call-wins, so this test
        // only asserts that `hit` never panics and respects the evaluator
        // when one is present.
        let _ = hit("csv.ingest");
    }
}
