//! The session registry: tenants and their named frames.
//!
//! A client uploads a CSV once (`PutFrame`) and prints it many times; the
//! registry keeps one [`LuxDataFrame`] per `(tenant, name)`, so repeated
//! prints share the WFLOW metadata/recommendation memo and — through the
//! underlying frame fingerprint — the process-wide processed-vis cache.
//! Every mutation is journaled write-ahead (spool file durable first,
//! journal line second) so a crashed server rebuilds the same registry on
//! restart; recovery verifies each spool payload against the length and
//! CRC-32 its journal record promised, quarantining anything that no
//! longer matches rather than serving it.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use lux_core::{LuxDataFrame, PrintOptions, SessionLogger, Widget, WireWidget};
use lux_engine::sync::lock_recover;

use crate::journal::{self, DegradeReason, Journal, JournalConfig, PutRecord, SnapshotState};
use crate::protocol::{crc32, valid_name, ErrorCode};

/// A typed request failure: the wire error code plus a human message.
pub type ReqError = (ErrorCode, String);

/// One named frame. The engine frame (and its memo caches) lives behind a
/// mutex: same-frame prints serialize — which is what shared memoization
/// wants anyway — while different frames print in parallel, bounded by the
/// admission controller.
pub struct FrameEntry {
    pub rows: u64,
    pub cols: u64,
    pub fingerprint: u64,
    /// Spool path relative to the data dir.
    pub file: String,
    /// Spooled payload length and CRC-32.
    pub len: u64,
    pub crc: u32,
    /// Client idempotency token from the put that created this entry.
    pub token: String,
    /// Journal sequence number of that put (0 = not journaled: degraded
    /// persistence).
    pub seq: u64,
    /// The engine frame plus the intent string it currently carries.
    state: Mutex<(LuxDataFrame, String)>,
}

impl FrameEntry {
    fn new(ldf: LuxDataFrame, rec: &PutRecord) -> FrameEntry {
        FrameEntry {
            rows: ldf.num_rows() as u64,
            cols: ldf.num_columns() as u64,
            fingerprint: ldf.fingerprint(),
            file: rec.file.clone(),
            len: rec.len,
            crc: rec.crc,
            token: rec.token.clone(),
            seq: rec.seq,
            state: Mutex::new((ldf, String::new())),
        }
    }

    /// Run one print pass against this frame with the client's intent,
    /// deadline, tenant identity, and wire trace id (`""` = no request
    /// context; the server mints one before calling here).
    pub fn print(
        &self,
        intent: &str,
        tenant: &str,
        deadline: Option<Duration>,
        per_tab: usize,
        request_id: &str,
    ) -> Result<WireWidget, ReqError> {
        let widget = self.pass(intent, tenant, deadline, request_id)?;
        Ok(WireWidget::from_widget(&widget, per_tab.max(1)))
    }

    /// The machine-readable export of the same pass `print` runs: grouped
    /// Vega-Lite JSON for every recommended visualization. After a print of
    /// the same intent this is a WFLOW memo hit plus the rendering. The
    /// inner `Err` is the shed reason when admission refused the pass.
    pub fn vega_lite(
        &self,
        intent: &str,
        tenant: &str,
        request_id: &str,
    ) -> Result<Result<String, String>, ReqError> {
        let widget = self.pass(intent, tenant, None, request_id)?;
        Ok(match widget.shed_note() {
            Some(reason) => Err(reason.to_string()),
            None => Ok(widget.to_vega_lite()),
        })
    }

    /// Point the frame at `intent` (when it is not there already) and run
    /// one pass under the frame lock; rendering happens on the returned
    /// widget, outside it.
    fn pass(
        &self,
        intent: &str,
        tenant: &str,
        deadline: Option<Duration>,
        request_id: &str,
    ) -> Result<Widget, ReqError> {
        let mut st = lock_recover(&self.state);
        if st.1 != intent {
            let (ldf, current) = &mut *st;
            if intent.trim().is_empty() {
                ldf.clear_intent();
            } else {
                let parts = intent.split(',').map(str::trim).filter(|s| !s.is_empty());
                ldf.set_intent_strs(parts)
                    .map_err(|e| (ErrorCode::BadData, format!("bad intent: {e}")))?;
            }
            *current = intent.to_string();
        }
        let opts = PrintOptions::default()
            .with_deadline(deadline)
            .with_tenant(Some(tenant.to_string()))
            .with_request_id((!request_id.is_empty()).then(|| request_id.to_string()));
        Ok(st.0.print_with(&opts))
    }
}

#[derive(Default)]
struct Inner {
    tenants: BTreeSet<String>,
    frames: BTreeMap<(String, String), Arc<FrameEntry>>,
}

/// The registry proper. All methods take `&self`; internal locking keeps
/// the journal ordered with the in-memory state it describes.
///
/// Lock order: `inner` may be acquired and *held* while taking `journal`
/// (compaction needs an atomic view of both); no path takes them in the
/// opposite nesting, so the pair cannot deadlock.
/// Test-only switches used by the deterministic simulation harness to
/// prove its detection power (DESIGN.md §15). Not part of the API.
#[doc(hidden)]
pub mod test_flags {
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Re-introduces the PR 8 overwrite-fsync data-loss bug: on a
    /// journal-fsync failure during an overwrite put, the freshly
    /// spooled file is deleted even though its journal line was written,
    /// and recovery skips the superseded-version fallback — so the
    /// previously *acked* version is swept as an orphan and the frame is
    /// lost. The sim explorer must find this within its seed budget.
    static FSYNC_LOSS_BUG: AtomicBool = AtomicBool::new(false);

    pub fn set_fsync_loss_bug(on: bool) {
        FSYNC_LOSS_BUG.store(on, Ordering::SeqCst);
    }

    pub fn fsync_loss_bug() -> bool {
        FSYNC_LOSS_BUG.load(Ordering::SeqCst)
    }
}

pub struct Registry {
    data_dir: PathBuf,
    inner: Mutex<Inner>,
    journal: Mutex<Journal>,
    /// Session logger attached to every engine frame so server-side print
    /// passes emit attributable `Print`/`PassSummary` JSONL events.
    logger: Option<Arc<SessionLogger>>,
}

impl Registry {
    /// [`Registry::recover_with_logger`] without a logger (tests,
    /// embeddings that do their own logging).
    pub fn recover(data_dir: &Path) -> std::io::Result<(Registry, Vec<String>)> {
        Self::recover_with_logger(data_dir, None)
    }

    /// [`Registry::recover_with_config`] with the journal configuration
    /// read from the `LUX_JOURNAL_*` environment.
    pub fn recover_with_logger(
        data_dir: &Path,
        logger: Option<Arc<SessionLogger>>,
    ) -> std::io::Result<(Registry, Vec<String>)> {
        Self::recover_with_config(data_dir, logger, JournalConfig::from_env())
    }

    /// Open the registry over a data dir, replaying any existing snapshot
    /// and journal. Returns the registry plus replay notes for the boot
    /// log (frames recovered, corrupt journal lines skipped, spool files
    /// quarantined, total recovery time). `logger` is attached to every
    /// recovered and uploaded frame, so each print pass logs its pass
    /// summary into the server's JSONL session log. `cfg` tunes the
    /// journal explicitly — tests must use this rather than mutating the
    /// process-global environment out from under parallel tests.
    pub fn recover_with_config(
        data_dir: &Path,
        logger: Option<Arc<SessionLogger>>,
        cfg: JournalConfig,
    ) -> std::io::Result<(Registry, Vec<String>)> {
        let started = lux_engine::clock::now();
        let replayed = journal::replay(data_dir);
        let mut notes = Vec::new();
        if replayed.from_snapshot {
            notes.push("journal replay seeded from snapshot.jsonl".to_string());
        }
        if replayed.skipped > 0 {
            notes.push(format!(
                "journal replay skipped {} corrupt line(s)",
                replayed.skipped
            ));
        }
        let mut inner = Inner::default();
        for t in &replayed.tenants {
            inner.tenants.insert(t.clone());
        }
        // Older same-name versions the replay saw a newer put supersede:
        // the fallback pool for when the newest record's payload is gone
        // (e.g. its put was only ever acked without a durability promise).
        let mut fallbacks: BTreeMap<(String, String), Vec<PutRecord>> = BTreeMap::new();
        for old in &replayed.superseded {
            fallbacks
                .entry((old.tenant.clone(), old.name.clone()))
                .or_default()
                .push(old.clone());
        }
        // Spool paths that must survive the orphan sweep: every replayed
        // record's file, recovered or not (a CRC-valid file whose CSV no
        // longer parses is kept as evidence), plus any fallback version
        // actually served.
        let mut referenced: BTreeSet<String> =
            replayed.frames.iter().map(|r| r.file.clone()).collect();
        let mut quarantined = 0usize;
        for rec in &replayed.frames {
            // Integrity gate first: the payload must be byte-identical to
            // what the journal acked, or it is quarantined, not parsed.
            let (rec, bytes) = match journal::verify_spool(data_dir, rec) {
                Ok(bytes) => (rec.clone(), bytes),
                Err(reason) => {
                    quarantined += 1;
                    // The newest record's payload is missing or corrupt —
                    // fall back to the most recent superseded version that
                    // still verifies. Serving the last good acked state
                    // loudly beats serving nothing: the newest put never
                    // proved durable, the superseded one did.
                    let older = if test_flags::fsync_loss_bug() {
                        None // pre-fix recovery had no fallback pool
                    } else {
                        fallbacks.get(&(rec.tenant.clone(), rec.name.clone()))
                    };
                    let fallback = older.into_iter().flatten().rev().find_map(|old| {
                        journal::verify_spool(data_dir, old)
                            .ok()
                            .map(|bytes| (old.clone(), bytes))
                    });
                    match fallback {
                        Some((old, bytes)) => {
                            notes.push(format!(
                                "frame {}/{}: newest put (seq {}) unusable ({reason}); \
                                 serving previous version (seq {})",
                                rec.tenant, rec.name, rec.seq, old.seq
                            ));
                            referenced.insert(old.file.clone());
                            (old, bytes)
                        }
                        None => {
                            notes.push(format!(
                                "frame {}/{} not recovered: {reason}",
                                rec.tenant, rec.name
                            ));
                            continue;
                        }
                    }
                }
            };
            let text = String::from_utf8_lossy(&bytes);
            match LuxDataFrame::read_csv_str(&text) {
                Ok(mut ldf) => {
                    if let Some(log) = &logger {
                        ldf.attach_logger(Arc::clone(log));
                    }
                    let entry = Arc::new(FrameEntry::new(ldf, &rec));
                    inner
                        .frames
                        .insert((rec.tenant.clone(), rec.name.clone()), entry);
                }
                Err(e) => notes.push(format!(
                    "frame {}/{} not recovered (csv parse failed: {e})",
                    rec.tenant, rec.name
                )),
            }
        }
        if !inner.frames.is_empty() || quarantined > 0 {
            notes.push(format!(
                "recovered {} frame(s) for {} tenant(s) from the journal ({} quarantined)",
                inner.frames.len(),
                inner.tenants.len(),
                quarantined
            ));
        }
        // Sweep spool files no journal record references: puts that died
        // between their spool rename and their journal append, or that were
        // acked under degraded persistence. Normal crash artifacts — their
        // puts were never acked with a durability promise.
        let orphans = journal::sweep_orphan_spools(data_dir, &referenced);
        if orphans > 0 {
            notes.push(format!("removed {orphans} orphaned spool file(s)"));
        }
        let journal = Journal::open(data_dir, cfg, replayed.last_seq)?;
        notes.push(format!(
            "recovery completed in {} ms (last_seq {})",
            lux_engine::clock::elapsed(started).as_millis(),
            replayed.last_seq
        ));
        Ok((
            Registry {
                data_dir: data_dir.to_path_buf(),
                inner: Mutex::new(inner),
                journal: Mutex::new(journal),
                logger,
            },
            notes,
        ))
    }

    /// Register a tenant (idempotent). Validates the wire name.
    pub fn register_tenant(&self, tenant: &str) -> Result<(), ReqError> {
        if !valid_name(tenant) {
            return Err((
                ErrorCode::BadName,
                format!("invalid tenant name {tenant:?} (want 1-64 of [A-Za-z0-9_.-])"),
            ));
        }
        let fresh = lock_recover(&self.inner).tenants.insert(tenant.to_string());
        if fresh {
            lock_recover(&self.journal).record_tenant(tenant);
        }
        Ok(())
    }

    /// Store (or replace) a named frame for a tenant: spool the CSV
    /// durably, journal the put (carrying payload length, CRC-32, and the
    /// client's idempotency token), build the engine frame. A spool or
    /// journal failure degrades persistence but still serves the frame
    /// from memory — the entry's `seq` stays 0 so the client knows no
    /// durability was promised.
    pub fn put_frame(
        &self,
        tenant: &str,
        name: &str,
        csv: &str,
        token: &str,
    ) -> Result<Arc<FrameEntry>, ReqError> {
        if !valid_name(name) {
            return Err((
                ErrorCode::BadName,
                format!("invalid frame name {name:?} (want 1-64 of [A-Za-z0-9_.-])"),
            ));
        }
        self.register_tenant(tenant)?;
        let mut ldf = LuxDataFrame::read_csv_str(csv)
            .map_err(|e| (ErrorCode::BadData, format!("csv parse failed: {e}")))?;
        if let Some(log) = &self.logger {
            ldf.attach_logger(Arc::clone(log));
        }
        let mut rec = PutRecord {
            tenant: tenant.to_string(),
            name: name.to_string(),
            rows: ldf.num_rows() as u64,
            cols: ldf.num_columns() as u64,
            file: String::new(),
            len: csv.len() as u64,
            crc: crc32(csv.as_bytes()),
            token: sanitize_token(token),
            seq: 0,
        };
        {
            // Spool before journaling, under the journal lock so journal
            // order matches spool order: a journal line never references a
            // file that is not already durable on disk. The spool file is
            // versioned by the sequence number this put will journal under
            // (nothing else can take it while we hold the lock), so a
            // same-name overwrite writes a *new* file and the previous
            // acked put's bytes stay intact until this one is journaled.
            let mut j = lock_recover(&self.journal);
            rec.file = journal::spool_rel_path(tenant, name, j.next_seq());
            let path = self.data_dir.join(&rec.file);
            match journal::spool_write(&path, csv.as_bytes(), j.spool_fsync()) {
                Ok(()) => match j.record_put(&rec) {
                    journal::Append::Durable(seq) => rec.seq = seq,
                    journal::Append::Written(_) => {
                        // The record reached the journal file and will
                        // replay after a crash, referencing this spool
                        // file — it must be kept. Only the durability
                        // promise is withdrawn: the ack's seq stays 0.
                        // Deleting the file here was a data-loss bug: the
                        // replayed record would supersede the previous
                        // acked version and then fail verification, and
                        // the sweep would destroy the old version's bytes.
                        if test_flags::fsync_loss_bug() {
                            let _ = std::fs::remove_file(&path);
                        }
                    }
                    journal::Append::Lost => {
                        // Nothing reached the journal: no record can ever
                        // reference this file, so remove it rather than
                        // strand it until the boot-time orphan sweep.
                        let _ = std::fs::remove_file(&path);
                    }
                },
                Err(e) => {
                    // Served from memory only; degrade loudly instead of
                    // failing the request.
                    j.mark_degraded(DegradeReason::Spool(e.to_string()));
                }
            }
        }
        let entry = Arc::new(FrameEntry::new(ldf, &rec));
        let prev = lock_recover(&self.inner)
            .frames
            .insert((tenant.to_string(), name.to_string()), Arc::clone(&entry));
        // The replaced version's spool file is dead weight once the new put
        // is journaled — but only then: while this put carries no
        // durability promise (seq 0), the previous journaled version is
        // still what a crash would recover, so its bytes must stay.
        if rec.seq > 0 {
            if let Some(old) = prev {
                if !old.file.is_empty() && old.file != rec.file {
                    let _ = std::fs::remove_file(self.data_dir.join(&old.file));
                }
            }
        }
        self.maybe_compact();
        Ok(entry)
    }

    /// Look up a tenant's named frame.
    pub fn get(&self, tenant: &str, name: &str) -> Option<Arc<FrameEntry>> {
        lock_recover(&self.inner)
            .frames
            .get(&(tenant.to_string(), name.to_string()))
            .cloned()
    }

    /// Names of a tenant's frames, sorted.
    pub fn list(&self, tenant: &str) -> Vec<String> {
        lock_recover(&self.inner)
            .frames
            .keys()
            .filter(|(t, _)| t == tenant)
            .map(|(_, n)| n.clone())
            .collect()
    }

    /// Drop a named frame; returns whether it existed. The spool file is
    /// removed best-effort (the journal `drop` line is authoritative).
    pub fn drop_frame(&self, tenant: &str, name: &str) -> bool {
        let removed = lock_recover(&self.inner)
            .frames
            .remove(&(tenant.to_string(), name.to_string()));
        match removed {
            Some(entry) => {
                lock_recover(&self.journal).record_drop(tenant, name);
                let _ = std::fs::remove_file(self.data_dir.join(&entry.file));
                self.maybe_compact();
                true
            }
            None => false,
        }
    }

    /// Snapshot + truncate the journal once it outgrows its thresholds.
    /// Holds `inner` across the compaction so the snapshot is an atomic
    /// view: no put can slip a sequence number into the journal after the
    /// snapshot was gathered but before the truncate erases it.
    fn maybe_compact(&self) {
        let inner = lock_recover(&self.inner);
        let mut j = lock_recover(&self.journal);
        if !j.should_compact() {
            return;
        }
        let state = SnapshotState {
            tenants: inner.tenants.iter().cloned().collect(),
            frames: inner
                .frames
                .iter()
                .map(|((tenant, name), e)| PutRecord {
                    tenant: tenant.clone(),
                    name: name.clone(),
                    rows: e.rows,
                    cols: e.cols,
                    file: e.file.clone(),
                    len: e.len,
                    crc: e.crc,
                    token: e.token.clone(),
                    seq: e.seq,
                })
                .collect(),
        };
        j.compact(&state);
    }

    /// Total frames across all tenants (for stats).
    pub fn frame_count(&self) -> usize {
        lock_recover(&self.inner).frames.len()
    }

    /// Registered tenant count (for stats).
    pub fn tenant_count(&self) -> usize {
        lock_recover(&self.inner).tenants.len()
    }

    /// Whether journal persistence has degraded (failpoint or I/O error).
    pub fn journal_degraded(&self) -> bool {
        lock_recover(&self.journal).degraded().is_some()
    }

    /// One-line persistence health summary for `stats`: `"ok (...)"` or
    /// `"degraded (<typed reason>)"`.
    pub fn journal_health(&self) -> String {
        lock_recover(&self.journal).health_line()
    }
}

/// Idempotency tokens travel over the wire into the journal, so hold them
/// to the same safe alphabet as names (dropping anything else) and bound
/// their length. An empty result simply disables put confirmation.
fn sanitize_token(token: &str) -> String {
    token
        .chars()
        .filter(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
        .take(64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const CSV: &str = "mpg,hp,origin\n18.0,130,usa\n24.0,95,japan\n27.0,88,japan\n14.0,220,usa\n";
    /// A distinguishable second payload (5 rows to CSV's 4).
    const CSV2: &str =
        "mpg,hp,origin\n18.0,130,usa\n24.0,95,japan\n27.0,88,japan\n14.0,220,usa\n31.0,65,japan\n";

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lux_registry_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn put_print_list_drop() {
        let dir = tmp_dir("basic");
        let (reg, _) = Registry::recover(&dir).unwrap();
        let entry = reg.put_frame("t1", "cars", CSV, "tok-1").unwrap();
        assert_eq!(entry.rows, 4);
        assert_eq!(entry.cols, 3);
        assert!(entry.seq > 0, "journaled put carries its seq");
        assert_eq!(entry.token, "tok-1");
        assert_eq!(reg.list("t1"), vec!["cars".to_string()]);
        assert!(reg.list("t2").is_empty());
        let w = entry.print("", "t1", None, 1, "").unwrap();
        assert_eq!(w.num_rows, 4);
        assert!(!w.was_shed());
        assert!(reg.drop_frame("t1", "cars"));
        assert!(!reg.drop_frame("t1", "cars"));
        assert!(reg.get("t1", "cars").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_replays_frames() {
        let dir = tmp_dir("recover");
        {
            let (reg, _) = Registry::recover(&dir).unwrap();
            reg.put_frame("t1", "cars", CSV, "tok-cars").unwrap();
            reg.put_frame("t1", "gone", CSV, "").unwrap();
            reg.drop_frame("t1", "gone");
        } // "crash": registry dropped without any shutdown protocol
        let (reg, notes) = Registry::recover(&dir).unwrap();
        assert_eq!(reg.list("t1"), vec!["cars".to_string()]);
        assert_eq!(reg.tenant_count(), 1);
        assert!(notes.iter().any(|n| n.contains("recovered 1 frame(s)")));
        assert!(notes.iter().any(|n| n.contains("recovery completed in")));
        let entry = reg.get("t1", "cars").unwrap();
        assert_eq!(entry.token, "tok-cars", "token survives recovery");
        assert!(entry.seq > 0, "seq survives recovery");
        let w = entry.print("", "t1", None, 1, "").unwrap();
        assert_eq!(w.num_rows, 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_spool_is_quarantined_not_served() {
        let dir = tmp_dir("quarantine");
        let spool = {
            let (reg, _) = Registry::recover(&dir).unwrap();
            let entry = reg.put_frame("t1", "cars", CSV, "").unwrap();
            dir.join(&entry.file)
        };
        // Corrupt the spooled payload behind the journal's back. The
        // damaged CSV still *parses* — only the checksum catches it.
        let mut bytes = std::fs::read(&spool).unwrap();
        let pos = bytes.iter().position(|&b| b == b'8').unwrap();
        bytes[pos] = b'9';
        std::fs::write(&spool, &bytes).unwrap();
        let (reg, notes) = Registry::recover(&dir).unwrap();
        assert!(
            reg.get("t1", "cars").is_none(),
            "corrupt frame must not serve"
        );
        assert!(
            notes
                .iter()
                .any(|n| n.contains("not recovered") && n.contains("crc")),
            "{notes:?}"
        );
        assert!(!spool.exists(), "corrupt spool moved to quarantine");
        assert!(dir.join("quarantine").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_bounds_journal_under_churn() {
        let dir = tmp_dir("churn");
        // Explicit config, not env vars: tests run in parallel and the
        // environment is process-global.
        let cfg = JournalConfig {
            compact_lines: 32,
            ..JournalConfig::default()
        };
        let (reg, _) = Registry::recover_with_config(&dir, None, cfg).unwrap();
        for i in 0..200 {
            reg.put_frame("t1", "hot", CSV, &format!("tok-{i}"))
                .unwrap();
        }
        let journal_len = std::fs::metadata(dir.join("journal.jsonl")).unwrap().len();
        assert!(
            journal_len < 32 * 200,
            "journal must stay bounded under churn, got {journal_len} bytes"
        );
        assert!(dir.join("snapshot.jsonl").exists());
        // And the compacted state still recovers.
        drop(reg);
        let (reg, _) = Registry::recover(&dir).unwrap();
        let entry = reg.get("t1", "hot").unwrap();
        assert_eq!(entry.rows, 4);
        assert_eq!(entry.token, "tok-199", "latest put wins through compaction");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_overwrite_never_loses_the_acked_version() {
        // Regression for a bug the crash-torture harness found: a newer
        // same-name put that spooled its payload but died before its
        // journal append must not clobber the last acked put. Versioned
        // spool files make the torn write land in a different file, which
        // recovery then sweeps as an orphan.
        let dir = tmp_dir("torn");
        let acked_file = {
            let (reg, _) = Registry::recover(&dir).unwrap();
            let entry = reg.put_frame("t1", "cars", CSV, "tok-acked").unwrap();
            // Simulate the torn newer put: payload spooled at the next
            // sequence number, no journal record (the crash point).
            let torn = dir.join(journal::spool_rel_path("t1", "cars", entry.seq + 7));
            journal::spool_write(&torn, b"a,b\n9,9\n", true).unwrap();
            entry.file.clone()
        };
        let (reg, notes) = Registry::recover(&dir).unwrap();
        let entry = reg.get("t1", "cars").expect("acked put must survive");
        assert_eq!(
            entry.rows, 4,
            "the acked payload is served, not the torn one"
        );
        assert_eq!(entry.token, "tok-acked");
        assert_eq!(entry.file, acked_file);
        assert!(
            notes.iter().any(|n| n.contains("1 orphaned spool file")),
            "the torn spool is swept and reported: {notes:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_newest_spool_falls_back_to_prior_acked_version() {
        // Bit-rot / lost-tail safety net: when the newest put's payload is
        // gone, recovery serves the most recent superseded version that
        // still verifies — loudly — instead of serving nothing.
        let dir = tmp_dir("fallback");
        let (first_file, second_file) = {
            let (reg, _) = Registry::recover(&dir).unwrap();
            let first = reg.put_frame("t1", "cars", CSV, "tok-1").unwrap();
            let second = reg.put_frame("t1", "cars", CSV2, "tok-2").unwrap();
            (first.file.clone(), second.file.clone())
        };
        // The overwrite removed v1's spool; restore its exact bytes and
        // lose v2's, simulating the newest payload vanishing.
        journal::spool_write(&dir.join(&first_file), CSV.as_bytes(), true).unwrap();
        std::fs::remove_file(dir.join(&second_file)).unwrap();
        let (reg, notes) = Registry::recover(&dir).unwrap();
        let entry = reg.get("t1", "cars").expect("fallback version served");
        assert_eq!(entry.rows, 4, "v1's payload is served");
        assert_eq!(entry.token, "tok-1");
        assert!(
            notes.iter().any(|n| n.contains("serving previous version")),
            "fallback must be loud: {notes:?}"
        );
        assert!(
            dir.join(&first_file).exists(),
            "the served fallback file must survive the orphan sweep"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn overwrite_removes_the_stale_spool_version() {
        let dir = tmp_dir("overwrite");
        let (reg, _) = Registry::recover(&dir).unwrap();
        let first = reg.put_frame("t1", "cars", CSV, "tok-1").unwrap();
        let second = reg.put_frame("t1", "cars", CSV, "tok-2").unwrap();
        assert_ne!(first.file, second.file, "spool files are versioned by seq");
        assert!(!dir.join(&first.file).exists(), "stale version removed");
        assert!(dir.join(&second.file).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_names_and_bad_csv_are_typed_errors() {
        let dir = tmp_dir("badinput");
        let (reg, _) = Registry::recover(&dir).unwrap();
        let err = reg.put_frame("t1", "../escape", CSV, "").err().unwrap();
        assert_eq!(err.0, ErrorCode::BadName);
        let err = reg.put_frame("bad tenant", "cars", CSV, "").err().unwrap();
        assert_eq!(err.0, ErrorCode::BadName);
        let err = reg.put_frame("t1", "cars", "", "").err().unwrap();
        assert_eq!(err.0, ErrorCode::BadData);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn intent_print_and_bad_intent() {
        let dir = tmp_dir("intent");
        let (reg, _) = Registry::recover(&dir).unwrap();
        let entry = reg.put_frame("t1", "cars", CSV, "").unwrap();
        let w = entry.print("mpg,hp", "t1", None, 1, "").unwrap();
        assert!(w.tabs.iter().any(|t| t == "Current Vis" || t == "Enhance"));
        let err = entry.print("?bogus_type", "t1", None, 1, "").unwrap_err();
        assert_eq!(err.0, ErrorCode::BadData);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tokens_are_sanitized_before_journaling() {
        assert_eq!(sanitize_token("ok-token_1.2"), "ok-token_1.2");
        assert_eq!(sanitize_token("quote\"brace}x"), "quotebracex");
        assert_eq!(sanitize_token(&"a".repeat(100)).len(), 64);
    }
}
