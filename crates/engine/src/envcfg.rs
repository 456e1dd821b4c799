//! Environment-variable parsing with misconfiguration surfacing.
//!
//! Every `LUX_*` knob used to be read with a silent `.parse().ok()`:
//! `LUX_MAX_SESSIONS=abc` fell back to the default without a trace, which
//! is survivable in a REPL but hides real misconfiguration in a deployed
//! server. This module centralizes typed env reads: an unparseable value
//! warns **once per variable** on stderr, is counted in the
//! `lux.env.invalid` metric, and is kept in a process-wide list
//! ([`invalid_warnings`]) that the server writes into its session log at
//! startup and the REPL surfaces via `stats`.

use std::collections::BTreeMap;
use std::str::FromStr;
use std::sync::{Mutex, OnceLock};

use crate::sync::lock_recover;

fn warnings() -> &'static Mutex<BTreeMap<String, String>> {
    static WARNINGS: OnceLock<Mutex<BTreeMap<String, String>>> = OnceLock::new();
    WARNINGS.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Record one invalid env value, warning on stderr only the first time the
/// variable is seen invalid (repeated reads of the same bad knob stay
/// quiet).
fn record_invalid(name: &str, raw: &str, expected: &str) {
    let mut map = lock_recover(warnings());
    if map.contains_key(name) {
        return;
    }
    let message = format!("{name}={raw:?} is not {expected}; using the default");
    eprintln!("lux: warning: {message}");
    crate::trace::MetricsRegistry::global().incr(crate::trace::names::ENV_INVALID);
    map.insert(name.to_string(), message);
}

/// Every invalid env value seen so far, as `"VAR=... is not ..."` lines in
/// variable order. Empty when the environment parsed cleanly.
pub fn invalid_warnings() -> Vec<String> {
    lock_recover(warnings()).values().cloned().collect()
}

/// Report an invalid value discovered by caller-side validation (enum-like
/// knobs that parse as strings but carry an unknown variant). Same
/// warn-once, metric, and stats-surfacing behavior as a parse failure.
pub fn invalid(name: &str, raw: &str, expected: &str) {
    record_invalid(name, raw, expected);
}

/// Typed env read: `None` when unset, `Some(value)` when it parses, and
/// `None` **plus a one-time warning** when set to something unparseable.
pub fn parse<T: FromStr>(name: &str, expected: &str) -> Option<T> {
    let raw = std::env::var(name).ok()?;
    match raw.trim().parse() {
        Ok(v) => Some(v),
        Err(_) => {
            record_invalid(name, &raw, expected);
            None
        }
    }
}

/// [`parse`] for the common `u64` knobs (counts, caps, milliseconds).
pub fn parse_u64(name: &str) -> Option<u64> {
    parse(name, "a non-negative integer")
}

/// [`parse`] for `usize` knobs.
pub fn parse_usize(name: &str) -> Option<usize> {
    parse(name, "a non-negative integer")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_values_parse_without_warning() {
        std::env::set_var("LUX_ENVCFG_TEST_OK", "42");
        assert_eq!(parse_u64("LUX_ENVCFG_TEST_OK"), Some(42));
        assert!(!invalid_warnings()
            .iter()
            .any(|w| w.contains("LUX_ENVCFG_TEST_OK")));
    }

    #[test]
    fn unset_is_silent_none() {
        assert_eq!(parse_u64("LUX_ENVCFG_TEST_UNSET_XYZ"), None);
        assert!(!invalid_warnings()
            .iter()
            .any(|w| w.contains("LUX_ENVCFG_TEST_UNSET_XYZ")));
    }

    #[test]
    fn invalid_value_warns_once_and_is_listed() {
        let metrics = crate::trace::MetricsRegistry::global();
        let invalid0 = metrics.counter(crate::trace::names::ENV_INVALID);
        std::env::set_var("LUX_ENVCFG_TEST_BAD", "abc");
        assert_eq!(parse_u64("LUX_ENVCFG_TEST_BAD"), None);
        assert_eq!(parse_u64("LUX_ENVCFG_TEST_BAD"), None);
        assert!(metrics.counter(crate::trace::names::ENV_INVALID) > invalid0);
        let hits: Vec<String> = invalid_warnings()
            .into_iter()
            .filter(|w| w.contains("LUX_ENVCFG_TEST_BAD"))
            .collect();
        assert_eq!(hits.len(), 1, "one warning entry per variable: {hits:?}");
        assert!(hits[0].contains("abc"), "{}", hits[0]);
    }
}
