//! Every `LUX_*` environment variable the product reads, parsed once.
//!
//! `Knobs::parse` is the only code that reads an environment, and it reads
//! each variable once, so a bad value warns once by construction: on
//! stderr, in `lux.env.invalid`, and in [`Knobs::invalid`], which the server
//! logs at bind. An invalid value reads as unset and its consumer keeps its
//! default: the config types keep env-free `Default`s, and their `from_env`
//! constructors lay these fields over them.

use std::path::PathBuf;
use std::str::FromStr;
use std::sync::OnceLock;
use std::time::Duration;

use crate::trace::{names, MetricsRegistry};

/// The parsed `LUX_*` environment; `None` is unset or invalid. Each field
/// holds the variable `Knobs::parse` reads into it; README.md's knob
/// table says what each one does.
#[derive(Debug)]
pub struct Knobs {
    /// `0` is ignored, as if unset.
    pub threads: Option<usize>,
    pub max_sessions: Option<usize>,
    pub admit_timeout: Option<Duration>,
    pub failpoints: Option<String>,
    pub flight_spool: Option<PathBuf>,
    pub test_seed: Option<u64>,
    pub server_addr: Option<String>,
    pub server_data_dir: Option<PathBuf>,
    pub read_timeout: Option<Duration>,
    pub drain_timeout: Option<Duration>,
    /// One `VAR="…" is not …; using the default` line per invalid variable.
    pub invalid: Vec<String>,
}

/// The process environment's [`Knobs`], parsed on the first call.
pub fn knobs() -> &'static Knobs {
    static KNOBS: OnceLock<Knobs> = OnceLock::new();
    KNOBS.get_or_init(|| Knobs::parse(|name| std::env::var(name).ok()))
}

impl Knobs {
    /// Parse what `lookup` returns: the process environment for [`knobs`],
    /// a map in tests.
    pub(crate) fn parse(lookup: impl Fn(&str) -> Option<String>) -> Knobs {
        let mut env = Reader {
            lookup,
            invalid: Vec::new(),
        };
        Knobs {
            threads: env.count("LUX_THREADS").filter(|&n| n >= 1),
            max_sessions: env.count("LUX_MAX_SESSIONS"),
            admit_timeout: env.millis("LUX_ADMIT_TIMEOUT_MS"),
            failpoints: env.text("LUX_FAILPOINTS"),
            flight_spool: env.text("LUX_FLIGHT_SPOOL").map(PathBuf::from),
            test_seed: env.typed("LUX_TEST_SEED", "a decimal or 0x-hex u64", |v| {
                match v.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16).ok(),
                    None => v.parse().ok(),
                }
            }),
            server_addr: env.text("LUX_SERVER_ADDR"),
            server_data_dir: env.text("LUX_SERVER_DATA_DIR").map(PathBuf::from),
            read_timeout: env.millis("LUX_READ_TIMEOUT_MS"),
            drain_timeout: env.millis("LUX_DRAIN_TIMEOUT_MS"),
            invalid: env.invalid,
        }
    }
}

struct Reader<F> {
    lookup: F,
    invalid: Vec<String>,
}

impl<F: Fn(&str) -> Option<String>> Reader<F> {
    /// The trimmed value; blank reads as unset.
    fn text(&self, name: &str) -> Option<String> {
        let value = (self.lookup)(name)?.trim().to_string();
        (!value.is_empty()).then_some(value)
    }

    /// The trimmed value through `parse`. A set value `parse` rejects warns,
    /// counts in `lux.env.invalid`, is listed, and reads as unset.
    fn typed<T>(
        &mut self,
        name: &str,
        expected: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Option<T> {
        let raw = (self.lookup)(name)?;
        let value = parse(raw.trim());
        if value.is_none() {
            let message = format!("{name}={raw:?} is not {expected}; using the default");
            eprintln!("lux: warning: {message}");
            MetricsRegistry::global().incr(names::ENV_INVALID);
            self.invalid.push(message);
        }
        value
    }

    fn count<T: FromStr>(&mut self, name: &str) -> Option<T> {
        self.typed(name, "a non-negative integer", |v| v.parse().ok())
    }

    fn millis(&mut self, name: &str) -> Option<Duration> {
        self.count(name).map(Duration::from_millis)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::collections::HashMap;

    fn parse(vars: &[(&str, &str)]) -> Knobs {
        let map: HashMap<&str, &str> = vars.iter().copied().collect();
        Knobs::parse(|name| map.get(name).map(|v| v.to_string()))
    }

    #[test]
    fn valid_values_parse() {
        let k = parse(&[
            ("LUX_THREADS", "3"),
            ("LUX_MAX_SESSIONS", " 2 "),
            ("LUX_READ_TIMEOUT_MS", "300"),
            ("LUX_TEST_SEED", "0x2a"),
            ("LUX_SERVER_DATA_DIR", " /srv/lux "),
        ]);
        assert_eq!(k.threads, Some(3));
        assert_eq!(k.max_sessions, Some(2));
        assert_eq!(k.read_timeout, Some(Duration::from_millis(300)));
        assert_eq!(k.test_seed, Some(42));
        assert_eq!(k.server_data_dir, Some(PathBuf::from("/srv/lux")));
        assert!(k.invalid.is_empty(), "{:?}", k.invalid);
    }

    #[test]
    fn unset_and_blank_variables_are_silent() {
        let k = parse(&[("LUX_SERVER_ADDR", "  "), ("LUX_FAILPOINTS", "")]);
        assert_eq!(k.server_addr, None);
        assert_eq!(k.failpoints, None);
        assert_eq!(k.max_sessions, None);
        assert!(k.invalid.is_empty(), "{:?}", k.invalid);
    }

    #[test]
    fn zero_threads_is_ignored_without_a_warning() {
        let k = parse(&[("LUX_THREADS", "0")]);
        assert_eq!(k.threads, None);
        assert!(k.invalid.is_empty(), "{:?}", k.invalid);
    }

    // The only test that parses invalid values, so the metric moves by
    // exactly what it provokes.
    #[test]
    fn each_invalid_value_warns_once() {
        let _ = knobs(); // the process environment's one parse happens first
        let metric = || MetricsRegistry::global().counter(names::ENV_INVALID);
        let before = metric();
        let k = parse(&[("LUX_MAX_SESSIONS", "abc")]);
        assert_eq!(k.max_sessions, None);
        assert_eq!(k.invalid.len(), 1);
        assert!(
            k.invalid[0].contains("LUX_MAX_SESSIONS=\"abc\""),
            "{}",
            k.invalid[0]
        );
        assert_eq!(metric(), before + 1);

        let k = parse(&[("LUX_TEST_SEED", "0xnope")]);
        assert_eq!(k.test_seed, None);
        assert_eq!(k.invalid.len(), 1);
        assert!(
            k.invalid[0].contains("a decimal or 0x-hex u64"),
            "{}",
            k.invalid[0]
        );
        assert_eq!(metric(), before + 2);
    }

    #[test]
    fn each_variable_is_read_exactly_once() {
        let reads = RefCell::new(Vec::new());
        Knobs::parse(|name| {
            reads.borrow_mut().push(name.to_string());
            None
        });
        let mut reads = reads.into_inner();
        let total = reads.len();
        reads.sort();
        reads.dedup();
        assert_eq!(reads.len(), total, "a variable was read twice");
        assert_eq!(total, 10);
    }
}
