//! Deterministic failpoint harness (zero dependencies, tikv `fail-rs` style).
//!
//! A *failpoint* is a named injection site compiled into the engine. When a
//! failpoint is disabled — the production default — hitting it costs a single
//! relaxed atomic load. When enabled, the site executes an injected
//! [`FailAction`]: return an error message, panic, or sleep. Sites cover what
//! no action code reaches — engine layers, server I/O and per-action scoring
//! (`action.score:<name>`, a keyed site: see [`hit_for`]); a fault inside an
//! action body is a `lux_recs::CustomAction` closure's job. Points are armed
//! by `LUX_FAILPOINTS` (armed once by [`init`]) or from code through a
//! [`World`](crate::world::World), the one guard over the process-global
//! table.
//!
//! `lux-dataframe` is the dependency-free base crate and holds no sites: the
//! CSV and SQL points are hit by the callers that can see this registry
//! (`LuxDataFrame::read_csv*`, which the server's puts and recovery go
//! through, and each statement the SQL backend in `lux-vis` runs).
//!
//! ## Activation syntax
//!
//! `LUX_FAILPOINTS="name=action;name=action"`, where `action` is one of:
//!
//! - `return` / `return(msg)` — the site reports an injected failure,
//! - `panic` / `panic(msg)` — the site panics (exercises isolation/respawn),
//! - `sleep(ms)` — the site blocks for `ms` milliseconds of
//!   [`crate::clock`] time (exercises deadlines, watchdogs and hard
//!   cutoffs; under a simulated `World` it wakes when the driver advances
//!   the virtual clock past it),
//! - `off` — disabled,
//!
//! optionally prefixed with a trigger budget: `3*panic` fires three times,
//! then the point goes quiet. Counted triggers keep chaos deterministic: a
//! test can inject exactly one fault and assert the *next* pass succeeds.
//!
//! Actions chain with `->` (tikv `fail-rs` style): `2*off->1*return` passes
//! the first two hits through untouched, fails the third, then goes quiet.
//! Chains place a fault at an exact hit index when several sites share one
//! failpoint (e.g. `io.fsync` covers a put's file and directory syncs).
//! A bare `off` still removes the point; a counted or chained `off` stage
//! is a pass-through.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, Once, OnceLock};
use std::time::Duration;

use crate::sync::lock_recover;

/// Catalogue of the named failpoints compiled into the workspace. Keeping
/// them here (like `trace::names`) makes the chaos surface greppable.
pub mod names {
    /// Inside the pool's `run_task`, before the task body runs (panics here
    /// are caught by the task guard — the pool must survive).
    pub const POOL_TASK_RUN: &str = "pool.task.run";
    /// In the worker loop outside the task guard (panics here kill the
    /// worker thread — exercises supervisor respawn).
    pub const POOL_WORKER_LOOP: &str = "pool.worker.loop";
    /// Before the processed-vis memo cache lookup (a `return` turns every
    /// lookup into a miss).
    pub const MEMO_VIS_LOOKUP: &str = "memo.vis.lookup";
    /// Inside the processed-vis memo cache insert, while the store lock is
    /// held (a `panic` poisons the mutex — exercises poison recovery).
    pub const MEMO_VIS_INSERT: &str = "memo.vis.insert";
    /// Per-column metadata scan, before the heavy distinct/min-max pass.
    pub const METADATA_COLUMN: &str = "metadata.column";
    /// CSV ingest entry (strict and permissive paths).
    pub const CSV_INGEST: &str = "csv.ingest";
    /// SQL backend statement execution (`return` injects a backend error,
    /// which fails the vis: an in-process engine has nothing to retry).
    pub const SQL_QUERY: &str = "sql.query";
    /// Admission slot acquisition, before the controller takes the queue
    /// lock.
    pub const ADMISSION_ACQUIRE: &str = "admission.acquire";
    /// Server wire read, after a frame header is accepted (`return` injects
    /// an I/O failure closing the connection; `sleep` simulates a stalled
    /// client against the read timeout).
    pub const SERVER_READ: &str = "server.read";
    /// Server wire write, before a response frame is flushed (`return`
    /// simulates a dead client mid-response; the handler must release its
    /// session state, never wedge).
    pub const SERVER_WRITE: &str = "server.write";
    /// Spool write (a put's file or a drop's tombstone), before its temp
    /// file is created (`return` degrades persistence: the request still
    /// succeeds and is served from memory, but not after a restart).
    pub const SERVER_SPOOL: &str = "server.spool";
    /// Durability fsync (a spool file or its directory), before the
    /// `sync_data` call (`return` simulates a disk that acknowledges writes
    /// but fails to make them durable; persistence degrades).
    pub const IO_FSYNC: &str = "io.fsync";
    /// Per-action candidate scoring, keyed by action name: arm
    /// `action.score:<name>` (inside the isolated score call, so `panic`
    /// fails only that action and `sleep` slows only its scoring; `return`
    /// has no error path here and is ignored).
    pub const ACTION_SCORE: &str = "action.score";

    /// Every compiled-in failpoint, for catalogue listings and tests.
    pub const ALL: &[&str] = &[
        POOL_TASK_RUN,
        POOL_WORKER_LOOP,
        MEMO_VIS_LOOKUP,
        MEMO_VIS_INSERT,
        METADATA_COLUMN,
        CSV_INGEST,
        SQL_QUERY,
        ADMISSION_ACQUIRE,
        SERVER_READ,
        SERVER_WRITE,
        SERVER_SPOOL,
        IO_FSYNC,
        ACTION_SCORE,
    ];
}

/// What an enabled failpoint does when hit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailAction {
    /// Report an injected failure; the site maps the message to its native
    /// error type (or treats it as a miss/skip where it has no error path).
    Return(Option<String>),
    /// Panic with the given message.
    Panic(Option<String>),
    /// Block for the duration, then continue normally.
    Sleep(Duration),
    /// Disabled (parsing `off` removes the point).
    Off,
}

struct Entry {
    /// Action stages: each runs until its trigger budget (`None` =
    /// unlimited) exhausts, then the next stage takes over; past the last
    /// stage the point is quiet.
    chain: Vec<(FailAction, Option<usize>)>,
    stage: usize,
}

/// Number of currently-configured failpoints. The disabled fast path is a
/// single relaxed load of this counter observing zero.
static ACTIVE: AtomicUsize = AtomicUsize::new(0);

fn registry() -> &'static Mutex<HashMap<String, Entry>> {
    static REGISTRY: OnceLock<Mutex<HashMap<String, Entry>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Parse an action string: `[count*]return[(msg)] | panic[(msg)] | sleep(ms)
/// | off`.
pub fn parse_action(spec: &str) -> Result<(FailAction, Option<usize>), String> {
    let spec = spec.trim();
    let (count, body) = match spec.split_once('*') {
        Some((n, rest)) => {
            let n: usize = n
                .trim()
                .parse()
                .map_err(|_| format!("bad trigger count in failpoint action `{spec}`"))?;
            (Some(n), rest.trim())
        }
        None => (None, spec),
    };
    let (verb, arg) = match body.split_once('(') {
        Some((v, rest)) => {
            let inner = rest
                .strip_suffix(')')
                .ok_or_else(|| format!("unclosed `(` in failpoint action `{spec}`"))?;
            (v.trim(), Some(inner.trim()))
        }
        None => (body, None),
    };
    let action = match verb {
        "return" => FailAction::Return(arg.filter(|a| !a.is_empty()).map(str::to_string)),
        "panic" => FailAction::Panic(arg.filter(|a| !a.is_empty()).map(str::to_string)),
        "sleep" => {
            let ms: u64 = arg
                .unwrap_or("")
                .parse()
                .map_err(|_| format!("sleep needs a millisecond argument in `{spec}`"))?;
            FailAction::Sleep(Duration::from_millis(ms))
        }
        "off" => FailAction::Off,
        other => return Err(format!("unknown failpoint action `{other}`")),
    };
    Ok((action, count))
}

/// Parse a `->`-chained sequence of [`parse_action`] stages.
pub fn parse_chain(spec: &str) -> Result<Vec<(FailAction, Option<usize>)>, String> {
    spec.split("->").map(parse_action).collect()
}

/// Apply `edit` to the table and republish the armed count the fast path
/// reads.
fn edit(edit: impl FnOnce(&mut HashMap<String, Entry>)) {
    let mut reg = lock_recover(registry());
    edit(&mut reg);
    ACTIVE.store(reg.len(), Ordering::Release);
}

/// Arm `name` with a [`parse_chain`] action; a bare `off` disarms it.
/// Besides [`init`], only [`crate::world::World`] calls this, [`disarm`]
/// and [`clear`].
pub(crate) fn arm(name: &str, action: &str) -> Result<(), String> {
    let chain = parse_chain(action)?;
    edit(|reg| {
        if matches!(chain.as_slice(), [(FailAction::Off, None)]) {
            reg.remove(name);
        } else {
            reg.insert(name.to_string(), Entry { chain, stage: 0 });
        }
    });
    Ok(())
}

/// Disarm `name`.
pub(crate) fn disarm(name: &str) {
    edit(|reg| {
        reg.remove(name);
    });
}

/// Disarm every failpoint.
pub(crate) fn clear() {
    edit(HashMap::clear);
}

/// Number of currently configured failpoints (armed, including chains
/// that have already run their counted stages).  The simulation harness
/// uses this to tell whether persistence was being interfered with.
pub fn active_count() -> usize {
    ACTIVE.load(Ordering::Acquire)
}

/// Initialise the subsystem: arm `LUX_FAILPOINTS` once. Idempotent; called
/// from the admission controller's `global()` (a spot every pass hits), the
/// server's bind and the CLI's serve entry.
pub fn init() {
    static INIT: Once = Once::new();
    INIT.call_once(|| {
        if let Some(spec) = &crate::knobs::knobs().failpoints {
            for part in spec.split(';').filter(|p| !p.trim().is_empty()) {
                let armed = match part.split_once('=') {
                    Some((name, action)) => arm(name.trim(), action),
                    None => Err("want name=action".to_string()),
                };
                if let Err(e) = armed {
                    eprintln!("lux: ignoring failpoint `{part}`: {e}");
                }
            }
        }
    });
}

/// Evaluate the failpoint `name`. Disabled points cost one relaxed atomic
/// load and return `None`. Enabled points execute their action: `Sleep`
/// blocks then returns `None`, `Panic` panics, `Return` yields
/// `Some(message)` for the site to map to its native failure.
pub fn hit(name: &str) -> Option<String> {
    if ACTIVE.load(Ordering::Relaxed) == 0 {
        return None;
    }
    fire(name)
}

/// Evaluate the keyed failpoint `<site>:<key>`: one site armed per key, so
/// `action.score:Sloth` slows only the action named `Sloth`. The key is
/// built only past the disabled fast path, which stays one relaxed load.
pub fn hit_for(site: &str, key: &str) -> Option<String> {
    if ACTIVE.load(Ordering::Relaxed) == 0 {
        return None;
    }
    fire(&format!("{site}:{key}"))
}

fn fire(name: &str) -> Option<String> {
    let action = {
        let mut reg = lock_recover(registry());
        let entry = reg.get_mut(name)?;
        loop {
            let Some((action, remaining)) = entry.chain.get_mut(entry.stage) else {
                return None; // every stage exhausted
            };
            match remaining {
                Some(0) => {
                    entry.stage += 1;
                    continue;
                }
                Some(n) => *n -= 1,
                None => {}
            }
            break action.clone();
        }
    };
    match action {
        FailAction::Return(msg) => {
            crate::trace::MetricsRegistry::global().incr(crate::trace::names::FAILPOINT_TRIPS);
            Some(msg.unwrap_or_else(|| format!("failpoint {name} triggered")))
        }
        FailAction::Panic(msg) => {
            crate::trace::MetricsRegistry::global().incr(crate::trace::names::FAILPOINT_TRIPS);
            panic!(
                "{}",
                msg.unwrap_or_else(|| format!("failpoint {name} panic"))
            );
        }
        FailAction::Sleep(d) => {
            crate::trace::MetricsRegistry::global().incr(crate::trace::names::FAILPOINT_TRIPS);
            crate::clock::sleep(d);
            None
        }
        FailAction::Off => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::World;

    #[test]
    fn disabled_is_none_and_cheap() {
        assert_eq!(hit("no.such.point"), None);
    }

    #[test]
    fn parse_forms() {
        assert_eq!(
            parse_action("return").expect("parse").0,
            FailAction::Return(None)
        );
        assert_eq!(
            parse_action("return(boom)").expect("parse"),
            (FailAction::Return(Some("boom".into())), None)
        );
        assert_eq!(
            parse_action("2*panic(x)").expect("parse"),
            (FailAction::Panic(Some("x".into())), Some(2))
        );
        assert_eq!(
            parse_action("sleep(25)").expect("parse").0,
            FailAction::Sleep(Duration::from_millis(25))
        );
        assert!(parse_action("sleep").is_err());
        assert!(parse_action("explode").is_err());
        assert!(parse_action("x*return").is_err());
        assert!(parse_action("return(oops").is_err());
    }

    #[test]
    fn chained_stages_run_in_order() {
        let world = World::enter();
        world
            .arm("test.chain", "2*off->1*return(boom)")
            .expect("arm");
        assert_eq!(hit("test.chain"), None, "first off stage");
        assert_eq!(hit("test.chain"), None, "second off stage");
        assert_eq!(hit("test.chain"), Some("boom".into()));
        assert_eq!(hit("test.chain"), None, "chain exhausted");
        assert!(parse_chain("1*off->nonsense").is_err());
    }

    #[test]
    fn counted_trigger_exhausts() {
        let world = World::enter();
        world.arm("test.counted", "2*return(err)").expect("arm");
        assert_eq!(hit("test.counted"), Some("err".into()));
        assert_eq!(hit("test.counted"), Some("err".into()));
        assert_eq!(hit("test.counted"), None);
    }

    #[test]
    fn off_and_disarm_remove() {
        let world = World::enter();
        world.arm("test.off", "return").expect("arm");
        assert!(hit("test.off").is_some());
        world.arm("test.off", "off").expect("arm");
        assert_eq!(hit("test.off"), None);
        world.arm("test.off", "return").expect("arm");
        world.disarm("test.off");
        assert_eq!(hit("test.off"), None);
        assert_eq!(active_count(), 0);
    }

    #[test]
    fn panic_action_panics() {
        let world = World::enter();
        world.arm("test.panic", "1*panic(kaboom)").expect("arm");
        let caught = std::panic::catch_unwind(|| hit("test.panic"));
        let payload = caught.expect_err("should panic");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("kaboom"), "unexpected payload: {msg}");
    }

    #[test]
    fn keyed_site_fires_only_for_its_key() {
        let world = World::enter();
        let trips = || {
            crate::trace::MetricsRegistry::global().counter(crate::trace::names::FAILPOINT_TRIPS)
        };
        assert_eq!(hit_for(names::ACTION_SCORE, "A"), None, "unarmed");
        world.arm("action.score:A", "sleep(20)").expect("arm");
        // Every arming test holds a World, so only these hits move the
        // trip counter.
        let trips0 = trips();
        assert_eq!(hit_for(names::ACTION_SCORE, "B"), None);
        assert_eq!(trips(), trips0, "B is not slowed");
        assert_eq!(hit_for(names::ACTION_SCORE, "A"), None);
        assert_eq!(trips(), trips0 + 1, "A slept");
    }

    #[test]
    fn sleep_runs_on_the_virtual_clock() {
        let world = World::simulated(0);
        world.arm("test.sleep", "sleep(60000)").expect("arm");
        let (tx, rx) = std::sync::mpsc::channel();
        let sleeper = std::thread::spawn(move || tx.send(hit("test.sleep")));
        // The sleeper has registered once its deadline is pending (bounded
        // by ~10 s of real time).
        let mut naps = 0;
        while crate::clock::next_deadline() != Some(Duration::from_secs(60)) {
            assert!(naps < 10_000, "no sleeper registered");
            std::thread::sleep(Duration::from_millis(1));
            naps += 1;
        }
        crate::clock::advance(Duration::from_secs(60));
        let woke = rx.recv_timeout(Duration::from_secs(10));
        assert_eq!(woke, Ok(None), "the sleeper waits on the virtual clock");
        sleeper.join().expect("sleeper thread").expect("send");
    }

    #[test]
    fn catalogue_is_nonempty_and_unique() {
        assert!(names::ALL.len() >= 8);
        let mut sorted: Vec<_> = names::ALL.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names::ALL.len());
    }
}
