//! # lux-sim
//!
//! FoundationDB-style deterministic simulation harness for the Lux
//! server stack (DESIGN.md §15).  A [`World`] owns a registry + journal
//! on a private data dir and an *oracle* of every acknowledged put; a
//! seeded schedule of [`Step`]s drives it — puts, prints, failpoint
//! arming, virtual-clock advances, crash-and-restart — and after every
//! restart the standing invariants are checked:
//!
//! 1. **Every durably-acked put survives restart**: a frame whose last
//!    durable ack was version *k* must come back serving some acked
//!    version ≥ *k* — never missing, never stale beyond the last
//!    durability promise, never a payload that was not acked.
//! 2. **No resurrection**: a frame dropped while persistence was healthy
//!    stays dropped across restarts.
//! 3. **Slots and ledger drain to zero**: after every print pass the
//!    admission controller holds no live sessions and the global ledger
//!    no live bytes.
//! 4. **No silent desync**: recovery never invents frames the oracle
//!    never acked.
//!
//! Because all scheduling, payloads, faults, and product randomness
//! route through the world seed ([`lux_engine::rng`]) and the virtual
//! clock ([`lux_engine::clock`]), a failing seed replays byte-for-byte:
//! [`run_seed`] returns a fingerprint over every observable decision and
//! the same seed always reproduces the same fingerprint.  On a
//! violation, [`minimize`] binary-searches the schedule prefix and then
//! greedily drops steps to emit a minimal reproduction.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

use lux_engine::rng::SeededRng;
use lux_engine::{clock, failpoint, rng, AdmissionController};
use lux_server::journal::{FsyncPolicy, JournalConfig};
use lux_server::protocol::crc32;
use lux_server::Registry;

/// Tenants and frame names the world draws from.  Small pools keep
/// overwrite collisions (the interesting case) frequent.
pub const TENANTS: &[&str] = &["t0", "t1"];
pub const NAMES: &[&str] = &["alpha", "beta"];

/// One transport-free simulation step.  The schedule is data: it can be
/// generated from a seed, printed, parsed back, and replayed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// Put (or overwrite) frame `NAMES[name]` for `TENANTS[tenant]` with
    /// a payload derived from `payload`.
    Put {
        tenant: usize,
        name: usize,
        payload: u64,
    },
    /// Run a print pass against the frame, then assert slot/ledger drain.
    Print { tenant: usize, name: usize },
    /// Drop the frame.
    DropFrame { tenant: usize, name: usize },
    /// Arm a failpoint: `io.fsync=2*off->1*return` and friends.
    Arm { fault: Fault },
    /// Clear all armed failpoints.
    ClearFaults,
    /// Advance the virtual clock.
    AdvanceClock { ms: u64 },
    /// Kill the process image (drop the registry without any shutdown)
    /// and recover from disk; run the restart invariants.
    CrashRestart,
}

/// The failpoint menu the explorer arms. Each maps to an existing
/// `lux_engine::failpoint` site with a counted action chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Fail the next fsync (hits the spool-file fsync of the next put).
    FsyncNext,
    /// Skip two fsyncs then fail the third: under `FsyncPolicy::Always`
    /// a put fsyncs spool file → spool dir → journal, so this fails
    /// exactly the *journal* fsync — the PR 8 data-loss window.
    FsyncThird,
    /// Fail the next journal append outright (record lost).
    JournalAppend,
    /// Fail the next spool write (payload never reaches disk).
    SpoolWrite,
    /// Fail the next snapshot write during compaction.
    SnapshotWrite,
}

impl Fault {
    pub fn name(self) -> &'static str {
        match self {
            Fault::FsyncNext | Fault::FsyncThird => failpoint::names::IO_FSYNC,
            Fault::JournalAppend => failpoint::names::SERVER_JOURNAL,
            Fault::SpoolWrite => failpoint::names::SERVER_SPOOL,
            Fault::SnapshotWrite => failpoint::names::SERVER_SNAPSHOT,
        }
    }

    pub fn action(self) -> &'static str {
        match self {
            Fault::FsyncNext => "1*return(sim)",
            Fault::FsyncThird => "2*off->1*return(sim)",
            Fault::JournalAppend => "1*return(sim)",
            Fault::SpoolWrite => "1*return(sim)",
            Fault::SnapshotWrite => "1*return(sim)",
        }
    }

    fn token(self) -> &'static str {
        match self {
            Fault::FsyncNext => "fsync-next",
            Fault::FsyncThird => "fsync-third",
            Fault::JournalAppend => "journal-append",
            Fault::SpoolWrite => "spool-write",
            Fault::SnapshotWrite => "snapshot-write",
        }
    }

    fn from_token(t: &str) -> Option<Fault> {
        Some(match t {
            "fsync-next" => Fault::FsyncNext,
            "fsync-third" => Fault::FsyncThird,
            "journal-append" => Fault::JournalAppend,
            "spool-write" => Fault::SpoolWrite,
            "snapshot-write" => Fault::SnapshotWrite,
            _ => return None,
        })
    }
}

impl std::fmt::Display for Step {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Step::Put {
                tenant,
                name,
                payload,
            } => write!(f, "put {tenant} {name} {payload}"),
            Step::Print { tenant, name } => write!(f, "print {tenant} {name}"),
            Step::DropFrame { tenant, name } => write!(f, "drop {tenant} {name}"),
            Step::Arm { fault } => write!(f, "arm {}", fault.token()),
            Step::ClearFaults => write!(f, "clear-faults"),
            Step::AdvanceClock { ms } => write!(f, "advance {ms}"),
            Step::CrashRestart => write!(f, "crash-restart"),
        }
    }
}

impl Step {
    /// Parse one step line as produced by `Display` (for schedule replay
    /// from a file).
    pub fn parse(line: &str) -> Result<Step, String> {
        let mut it = line.split_whitespace();
        let head = it.next().ok_or_else(|| "empty step line".to_string())?;
        let mut num = |what: &str| -> Result<u64, String> {
            it.next()
                .ok_or_else(|| format!("step {head:?}: missing {what}"))?
                .parse::<u64>()
                .map_err(|e| format!("step {head:?}: bad {what}: {e}"))
        };
        let step = match head {
            "put" => Step::Put {
                tenant: num("tenant")? as usize,
                name: num("name")? as usize,
                payload: num("payload")?,
            },
            "print" => Step::Print {
                tenant: num("tenant")? as usize,
                name: num("name")? as usize,
            },
            "drop" => Step::DropFrame {
                tenant: num("tenant")? as usize,
                name: num("name")? as usize,
            },
            "arm" => {
                let tok = it.next().ok_or("arm: missing fault token")?;
                Step::Arm {
                    fault: Fault::from_token(tok)
                        .ok_or_else(|| format!("unknown fault {tok:?}"))?,
                }
            }
            "clear-faults" => Step::ClearFaults,
            "advance" => Step::AdvanceClock { ms: num("ms")? },
            "crash-restart" => Step::CrashRestart,
            other => return Err(format!("unknown step {other:?}")),
        };
        Ok(step)
    }
}

/// A standing-invariant violation, pinned to the step that exposed it.
#[derive(Debug, Clone)]
pub struct Violation {
    pub step: usize,
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "step {}: {}", self.step, self.detail)
    }
}

/// One acked put as the oracle remembers it.
#[derive(Debug, Clone)]
struct AckedPut {
    crc: u32,
    len: u64,
    /// The ack carried a journal seq (> 0): a durability promise.
    durable: bool,
}

/// Oracle state for one (tenant, name) key.
#[derive(Debug, Clone, Default)]
struct KeyHistory {
    /// Acked versions in order since the last restart/baseline.  A drop
    /// strips their `durable` flags (the drop's own durability is not
    /// observable, so prior promises can no longer be relied on) but
    /// keeps the payloads: whatever recovery serves must still be one of
    /// them.
    acked: Vec<AckedPut>,
    /// Dropped while persistence was verifiably healthy (journal not
    /// degraded, no failpoints armed): the frame must not resurrect.
    /// Reset by the next put.
    dropped_clean: bool,
}

/// Deterministic CSV payload for a `Put` step.
pub fn payload_csv(k: u64) -> String {
    let mut s = String::from("metric,count,tag\n");
    for row in 0..(2 + k % 3) {
        let a = k.wrapping_mul(31).wrapping_add(row * 7) % 1000;
        let b = k.wrapping_add(row) % 97;
        let tag = ["usa", "japan", "europe"][((k + row) % 3) as usize];
        s.push_str(&format!("{a},{b},{tag}\n"));
    }
    s
}

/// The schedulable world: registry + journal on a private dir, the oracle
/// of acked state, and the failpoint table (held for the world's life, so
/// it starts and ends clear).
pub struct World {
    faults: failpoint::FailScope,
    dir: PathBuf,
    registry: Option<Registry>,
    oracle: BTreeMap<(String, String), KeyHistory>,
    fingerprint: u64,
    puts: u64,
}

fn mix(fp: &mut u64, v: u64) {
    let mut s = fp.wrapping_add(v).wrapping_add(0x9E37_79B9_7F4A_7C15);
    *fp = rng::splitmix64(&mut s);
}

impl World {
    /// Journal config the world runs under: fsync on every append (so
    /// fsync failpoints hit deterministic call sites) and aggressive
    /// compaction thresholds so snapshot/compaction paths run inside
    /// ordinary schedules.
    fn journal_config() -> JournalConfig {
        JournalConfig {
            fsync: FsyncPolicy::Always,
            compact_bytes: 64 * 1024,
            compact_lines: 24,
        }
    }

    /// Build a fresh world on a private temp dir (wiped first).
    pub fn new(tag: &str) -> std::io::Result<World> {
        let faults = failpoint::scope();
        let dir = std::env::temp_dir().join(format!("lux_sim_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        let (registry, _notes) = Registry::recover_with_config(&dir, None, Self::journal_config())?;
        Ok(World {
            faults,
            dir,
            registry: Some(registry),
            oracle: BTreeMap::new(),
            fingerprint: 0x6c75_785f_7369_6d00, // "lux_sim"
            puts: 0,
        })
    }

    /// Fingerprint over every observable decision so far.  Two runs of
    /// the same seed must end with identical fingerprints.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    fn registry(&self) -> &Registry {
        self.registry.as_ref().expect("world has a live registry")
    }

    fn key(tenant: usize, name: usize) -> (String, String) {
        (
            TENANTS[tenant % TENANTS.len()].to_string(),
            NAMES[name % NAMES.len()].to_string(),
        )
    }

    /// Apply one step; `index` is its position in the schedule (for
    /// violation reports).
    pub fn apply(&mut self, index: usize, step: &Step) -> Result<(), Violation> {
        match step {
            Step::Put {
                tenant,
                name,
                payload,
            } => {
                let (t, n) = Self::key(*tenant, *name);
                let csv = payload_csv(*payload);
                self.puts += 1;
                let token = format!("sim-tok-{:08x}", self.puts);
                match self.registry().put_frame(&t, &n, &csv, &token) {
                    Ok(entry) => {
                        let hist = self.oracle.entry((t, n)).or_default();
                        hist.dropped_clean = false;
                        // (acked history is kept: recovery may serve any
                        // acked version at or past the last durable one)
                        hist.acked.push(AckedPut {
                            crc: crc32(csv.as_bytes()),
                            len: csv.len() as u64,
                            durable: entry.seq > 0,
                        });
                        mix(&mut self.fingerprint, entry.seq);
                        mix(&mut self.fingerprint, u64::from(entry.crc));
                    }
                    Err((code, msg)) => {
                        return Err(Violation {
                            step: index,
                            detail: format!("put {t}/{n} refused: {code:?} {msg}"),
                        });
                    }
                }
            }
            Step::Print { tenant, name } => {
                let (t, n) = Self::key(*tenant, *name);
                if let Some(entry) = self.registry().get(&t, &n) {
                    let widget = entry.print("", &t, Some(Duration::from_secs(30)), 3, "sim");
                    mix(&mut self.fingerprint, widget.is_ok() as u64);
                    let stats = AdmissionController::global().stats();
                    if stats.live_sessions != 0 {
                        return Err(Violation {
                            step: index,
                            detail: format!(
                                "admission slots did not drain after print: {} live",
                                stats.live_sessions
                            ),
                        });
                    }
                    let ledger = AdmissionController::global().ledger();
                    if ledger.live() != 0 {
                        return Err(Violation {
                            step: index,
                            detail: format!(
                                "global ledger did not drain after print: {} bytes live",
                                ledger.live()
                            ),
                        });
                    }
                }
            }
            Step::DropFrame { tenant, name } => {
                let (t, n) = Self::key(*tenant, *name);
                // Only treat the drop as a durable promise when nothing
                // was interfering with persistence at the time.
                let clean = !self.registry().journal_degraded() && failpoint::active_count() == 0;
                let existed = self.registry().drop_frame(&t, &n);
                mix(&mut self.fingerprint, existed as u64);
                if let Some(hist) = self.oracle.get_mut(&(t, n)) {
                    // The drop's durability is unobservable, so prior
                    // durability promises are off — but recovery may
                    // only ever serve payloads that were acked.
                    for a in &mut hist.acked {
                        a.durable = false;
                    }
                    hist.dropped_clean = existed && clean;
                }
            }
            Step::Arm { fault } => {
                if let Err(e) = self.faults.arm(fault.name(), fault.action()) {
                    return Err(Violation {
                        step: index,
                        detail: format!("failpoint arm failed: {e}"),
                    });
                }
            }
            Step::ClearFaults => self.faults.clear(),
            Step::AdvanceClock { ms } => clock::advance(Duration::from_millis(*ms)),
            Step::CrashRestart => {
                // Kill: no drain, no shutdown — just drop the instance.
                self.registry = None;
                // A crash clears the process image, including any armed
                // one-shot failpoints (they are process state).
                self.faults.clear();
                let (registry, notes) =
                    Registry::recover_with_config(&self.dir, None, Self::journal_config())
                        .map_err(|e| Violation {
                            step: index,
                            detail: format!("recovery failed: {e}"),
                        })?;
                self.registry = Some(registry);
                self.check_restart_invariants(index, &notes)?;
                // Recovery is the new baseline: acked-but-lost versions
                // without a durability promise are legitimately gone.
                self.rebaseline();
            }
        }
        Ok(())
    }

    /// Restart invariants: every durably-acked put survives (at or past
    /// its durable version), no unacked payloads, no resurrections.
    fn check_restart_invariants(
        &mut self,
        index: usize,
        notes: &[String],
    ) -> Result<(), Violation> {
        for ((t, n), hist) in &self.oracle {
            let entry = self.registry().get(t, n);
            let last_durable = hist.acked.iter().rposition(|a| a.durable);
            match (&entry, last_durable) {
                (None, Some(k)) => {
                    return Err(Violation {
                        step: index,
                        detail: format!(
                            "acked put lost: {t}/{n} had a durable ack (version {k}, crc \
                             {:08x}) but did not survive restart; recovery notes: {notes:?}",
                            hist.acked[k].crc
                        ),
                    });
                }
                (Some(e), _) => {
                    if hist.dropped_clean {
                        return Err(Violation {
                            step: index,
                            detail: format!(
                                "resurrection: {t}/{n} was dropped under healthy persistence \
                                 but came back (crc {:08x})",
                                e.crc
                            ),
                        });
                    }
                    let served = hist
                        .acked
                        .iter()
                        .rposition(|a| a.crc == e.crc && a.len == e.len);
                    let Some(v) = served else {
                        return Err(Violation {
                            step: index,
                            detail: format!(
                                "desync: {t}/{n} recovered with payload (crc {:08x}, len {}) \
                                 that was never acked",
                                e.crc, e.len
                            ),
                        });
                    };
                    if let Some(k) = last_durable {
                        if v < k {
                            return Err(Violation {
                                step: index,
                                detail: format!(
                                    "stale recovery: {t}/{n} serves acked version {v} but \
                                     version {k} was durably acked (crc {:08x})",
                                    hist.acked[k].crc
                                ),
                            });
                        }
                    }
                }
                (None, None) => {} // nothing promised, nothing owed
            }
        }
        // Desync in the other direction: recovered frames the oracle
        // never acked.
        for t in TENANTS {
            for n in NAMES {
                if self.registry().get(t, n).is_some()
                    && !self
                        .oracle
                        .get(&(t.to_string(), n.to_string()))
                        .is_some_and(|h| !h.acked.is_empty() || h.dropped_clean)
                {
                    return Err(Violation {
                        step: index,
                        detail: format!("desync: recovery invented frame {t}/{n}"),
                    });
                }
            }
        }
        Ok(())
    }

    /// After a verified recovery, collapse each key's history to what is
    /// actually being served — the baseline for the next crash.
    fn rebaseline(&mut self) {
        let mut next = BTreeMap::new();
        for ((t, n), hist) in std::mem::take(&mut self.oracle) {
            match self.registry().get(&t, &n) {
                Some(e) => {
                    mix(&mut self.fingerprint, u64::from(e.crc));
                    mix(&mut self.fingerprint, e.seq);
                    next.insert(
                        (t, n),
                        KeyHistory {
                            acked: vec![AckedPut {
                                crc: e.crc,
                                len: e.len,
                                durable: e.seq > 0,
                            }],
                            dropped_clean: false,
                        },
                    );
                }
                None => {
                    mix(&mut self.fingerprint, 0);
                    next.insert(
                        (t, n),
                        KeyHistory {
                            acked: Vec::new(),
                            dropped_clean: hist.dropped_clean,
                        },
                    );
                }
            }
        }
        self.oracle = next;
    }
}

impl Drop for World {
    fn drop(&mut self) {
        self.registry = None;
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Generate a schedule of `len` steps from `seed`.
pub fn generate_schedule(seed: u64, len: usize) -> Vec<Step> {
    let mut r = SeededRng::from_seed(seed ^ 0x5349_4d5f_4745_4e00); // "SIM_GEN"
    let mut steps = Vec::with_capacity(len);
    for _ in 0..len {
        let tenant = r.gen_range(TENANTS.len() as u64) as usize;
        let name = r.gen_range(NAMES.len() as u64) as usize;
        let roll = r.gen_range(100);
        let step = match roll {
            // Puts dominate: overwrites are where durability bugs live.
            0..=39 => Step::Put {
                tenant,
                name,
                payload: r.next_u64() % 10_000,
            },
            40..=49 => Step::Print { tenant, name },
            50..=54 => Step::DropFrame { tenant, name },
            55..=74 => {
                let fault = match r.gen_range(5) {
                    0 => Fault::FsyncNext,
                    1 | 2 => Fault::FsyncThird, // the journal-fsync window
                    3 => Fault::JournalAppend,
                    _ => Fault::SpoolWrite,
                };
                Step::Arm { fault }
            }
            75..=79 => Step::ClearFaults,
            80..=84 => Step::AdvanceClock {
                ms: 1 + r.gen_range(5_000),
            },
            _ => Step::CrashRestart,
        };
        steps.push(step);
    }
    // Every schedule ends with a crash + restart so the restart
    // invariants run at least once.
    steps.push(Step::CrashRestart);
    steps
}

/// Outcome of replaying one schedule.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    pub fingerprint: u64,
    pub violation: Option<Violation>,
}

/// Replay `steps` in a fresh world under `seed` (installed as the
/// process world seed for product-code randomness).  Fully resets
/// failpoints (the world's scope) and virtual time around the run.
pub fn run_schedule(seed: u64, steps: &[Step]) -> RunOutcome {
    let _virtual_clock = clock::enable_virtual();
    rng::install(seed);
    let mut world = match World::new(&format!("run_{seed:x}")) {
        Ok(w) => w,
        Err(e) => {
            rng::uninstall();
            return RunOutcome {
                fingerprint: 0,
                violation: Some(Violation {
                    step: 0,
                    detail: format!("world setup failed: {e}"),
                }),
            };
        }
    };
    let mut violation = None;
    for (i, step) in steps.iter().enumerate() {
        if let Err(v) = world.apply(i, step) {
            violation = Some(v);
            break;
        }
    }
    rng::uninstall();
    RunOutcome {
        fingerprint: world.fingerprint(),
        violation,
    }
}

/// Generate-and-run one seed.
pub fn run_seed(seed: u64, len: usize) -> (Vec<Step>, RunOutcome) {
    let steps = generate_schedule(seed, len);
    let outcome = run_schedule(seed, &steps);
    (steps, outcome)
}

/// Shrink a failing schedule to a minimal reproduction: truncate to the
/// violating prefix, then greedily drop steps that are not needed for
/// the failure.  Every candidate is re-run deterministically.
pub fn minimize(seed: u64, steps: &[Step]) -> Vec<Step> {
    let Some(v) = run_schedule(seed, steps).violation else {
        return steps.to_vec(); // not failing: nothing to minimize
    };
    // The violation at step i cannot depend on later steps.
    let mut cur: Vec<Step> = steps[..=v.step.min(steps.len() - 1)].to_vec();
    // Greedy removal, repeated until a fixed point.
    loop {
        let mut removed_any = false;
        let mut i = cur.len();
        while i > 0 {
            i -= 1;
            let mut candidate = cur.clone();
            candidate.remove(i);
            if candidate.is_empty() {
                continue;
            }
            if run_schedule(seed, &candidate).violation.is_some() {
                cur = candidate;
                removed_any = true;
            }
        }
        if !removed_any {
            break;
        }
    }
    cur
}

/// A reproducible failure: the seed, the violation, and the minimized
/// schedule.
#[derive(Debug, Clone)]
pub struct FailureReport {
    pub seed: u64,
    pub violation: Violation,
    pub schedule: Vec<Step>,
    pub minimized: Vec<Step>,
}

impl std::fmt::Display for FailureReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "sim failure: seed {} ({:#x})", self.seed, self.seed)?;
        writeln!(f, "violation: {}", self.violation)?;
        writeln!(
            f,
            "replay: LUX_SIM_SEED={} LUX_SIM_STEPS={}",
            self.seed,
            self.schedule.len().saturating_sub(1)
        )?;
        writeln!(
            f,
            "minimized schedule ({} of {} steps):",
            self.minimized.len(),
            self.schedule.len()
        )?;
        for s in &self.minimized {
            writeln!(f, "  {s}")?;
        }
        Ok(())
    }
}

/// Explore `count` seeds starting at `start_seed`, `len` steps each.
/// Returns the first failure, minimized, or `None` if all seeds pass.
pub fn explore(start_seed: u64, count: u64, len: usize) -> Option<FailureReport> {
    for k in 0..count {
        let seed = start_seed.wrapping_add(k);
        let (schedule, outcome) = run_seed(seed, len);
        if let Some(violation) = outcome.violation {
            let minimized = minimize(seed, &schedule);
            return Some(FailureReport {
                seed,
                violation,
                schedule,
                minimized,
            });
        }
    }
    None
}
