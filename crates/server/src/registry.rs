//! The session registry: tenants and their named frames.
//!
//! A client uploads a CSV once (`PutFrame`) and prints it many times; the
//! registry keeps one [`LuxDataFrame`] per `(tenant, name)`, so repeated
//! prints share the WFLOW metadata/recommendation memo and — through the
//! underlying frame fingerprint — the process-wide processed-vis cache.
//! Every mutation is made durable in the spool directory before it is acked
//! ([`crate::journal`]), so a crashed server rebuilds the same registry on
//! restart; recovery verifies each spool file against its own checksums,
//! quarantining anything that no longer matches rather than serving it.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use lux_core::{LuxDataFrame, PrintOptions, SessionLogger, Widget, WireWidget};
use lux_engine::sync::lock_recover;

use crate::journal::{self, PutRecord, Store};
use crate::protocol::{valid_name, ErrorCode};

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
    /// Sequence number of that put (0 = no durability promised: degraded
    /// persistence).
    pub seq: u64,
    /// The engine frame plus the intent string it currently carries.
    state: Mutex<(LuxDataFrame, String)>,
}

impl FrameEntry {
    fn new(ldf: LuxDataFrame, rec: PutRecord) -> FrameEntry {
        FrameEntry {
            rows: ldf.num_rows() as u64,
            cols: ldf.num_columns() as u64,
            fingerprint: ldf.fingerprint(),
            file: rec.file,
            len: rec.len,
            crc: rec.crc,
            token: rec.token,
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

/// Test-only switches used by the deterministic simulation harness to
/// prove its detection power (DESIGN.md §15). Not part of the API.
#[doc(hidden)]
pub mod test_flags {
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Plants a data-loss bug: a put deletes the name's previous version
    /// *before* its own file is durable, so a put whose write or fsync
    /// fails leaves no version of the frame on disk and the last acked one
    /// is lost. The sim explorer must find this within its seed budget.
    static FSYNC_LOSS_BUG: AtomicBool = AtomicBool::new(false);

    pub fn set_fsync_loss_bug(on: bool) {
        FSYNC_LOSS_BUG.store(on, Ordering::SeqCst);
    }

    pub fn fsync_loss_bug() -> bool {
        FSYNC_LOSS_BUG.load(Ordering::SeqCst)
    }
}

/// The registry proper. All methods take `&self`.
///
/// Lock order: `store` before `inner`. A mutation holds `store` until the
/// in-memory state matches the directory, so two puts of one name cannot
/// leave memory serving the older one.
pub struct Registry {
    data_dir: PathBuf,
    inner: Mutex<Inner>,
    store: Mutex<Store>,
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

    /// Open the registry over a data dir, rebuilding it from the spool
    /// directory. Returns the registry plus notes for the boot log (frames
    /// recovered, files quarantined or swept, total recovery time). `logger`
    /// is attached to every recovered and uploaded frame, so each print pass
    /// logs its pass summary into the server's JSONL session log.
    pub fn recover_with_logger(
        data_dir: &Path,
        logger: Option<Arc<SessionLogger>>,
    ) -> std::io::Result<(Registry, Vec<String>)> {
        let started = lux_engine::clock::now();
        let mut inner = Inner::default();
        let mut unparsed = Vec::new();
        let recovered =
            journal::recover(data_dir, |rec, payload| {
                match LuxDataFrame::read_csv_str(&String::from_utf8_lossy(&payload)) {
                    Ok(mut ldf) => {
                        if let Some(log) = &logger {
                            ldf.attach_logger(Arc::clone(log));
                        }
                        let key = (rec.tenant.clone(), rec.name.clone());
                        inner
                            .frames
                            .insert(key, Arc::new(FrameEntry::new(ldf, rec)));
                    }
                    Err(e) => unparsed.push(format!(
                        "frame {}/{} not recovered (csv parse failed: {e})",
                        rec.tenant, rec.name
                    )),
                }
            })?;
        let mut notes = recovered.notes;
        notes.extend(unparsed);
        inner.tenants.extend(recovered.tenants);
        notes.push(format!(
            "recovered {} frame(s) for {} tenant(s); recovery completed in {} ms ({})",
            inner.frames.len(),
            inner.tenants.len(),
            lux_engine::clock::elapsed(started).as_millis(),
            recovered.store.health_line()
        ));
        Ok((
            Registry {
                data_dir: data_dir.to_path_buf(),
                inner: Mutex::new(inner),
                store: Mutex::new(recovered.store),
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
        if lock_recover(&self.inner).tenants.contains(tenant) {
            return Ok(());
        }
        let mut store = lock_recover(&self.store);
        if lock_recover(&self.inner).tenants.insert(tenant.to_string()) {
            store.add_tenant(tenant);
        }
        Ok(())
    }

    /// Store (or replace) a named frame for a tenant: parse the CSV, write
    /// it durably with its length, CRC-32 and the client's idempotency
    /// token, and serve it. A persistence failure still serves the frame
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
        let mut store = lock_recover(&self.store);
        let rec = store.put(tenant, name, csv.as_bytes(), &sanitize_token(token));
        let entry = Arc::new(FrameEntry::new(ldf, rec));
        lock_recover(&self.inner)
            .frames
            .insert((tenant.to_string(), name.to_string()), Arc::clone(&entry));
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

    /// Drop a named frame; returns whether it existed. Without a durable
    /// tombstone the frame's file is removed best-effort instead.
    pub fn drop_frame(&self, tenant: &str, name: &str) -> bool {
        let mut store = lock_recover(&self.store);
        let removed = lock_recover(&self.inner)
            .frames
            .remove(&(tenant.to_string(), name.to_string()));
        let Some(entry) = removed else {
            return false;
        };
        if !store.drop_frame(tenant, name) && !entry.file.is_empty() {
            let _ = std::fs::remove_file(self.data_dir.join(&entry.file));
        }
        true
    }

    /// Total frames across all tenants (for stats).
    pub fn frame_count(&self) -> usize {
        lock_recover(&self.inner).frames.len()
    }

    /// Registered tenant count (for stats).
    pub fn tenant_count(&self) -> usize {
        lock_recover(&self.inner).tenants.len()
    }

    /// Whether persistence has degraded (failpoint or I/O error).
    pub fn journal_degraded(&self) -> bool {
        lock_recover(&self.store).degraded().is_some()
    }

    /// One-line persistence health summary for `stats`: `"ok (...)"` or
    /// `"degraded (<typed reason>)"`.
    pub fn journal_health(&self) -> String {
        lock_recover(&self.store).health_line()
    }
}

/// Idempotency tokens travel over the wire into spool headers, so hold them
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
        // Corrupt the spooled payload behind the registry's back. The
        // damaged CSV still *parses* — only the checksum catches it.
        let mut bytes = std::fs::read(&spool).unwrap();
        let pos = bytes.iter().rposition(|&b| b == b'8').unwrap();
        bytes[pos] = b'9';
        std::fs::write(&spool, &bytes).unwrap();
        let (reg, notes) = Registry::recover(&dir).unwrap();
        assert!(
            reg.get("t1", "cars").is_none(),
            "corrupt frame must not serve"
        );
        assert!(
            notes.iter().any(|n| n.contains("payload crc"))
                && notes.iter().any(|n| n.contains("cars not recovered")),
            "{notes:?}"
        );
        assert!(!spool.exists(), "corrupt spool moved to quarantine");
        assert!(dir.join("quarantine/t1").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The spool files of one tenant directory, sorted.
    fn files(dir: &Path, tenant: &str) -> Vec<String> {
        let mut out: Vec<String> = std::fs::read_dir(dir.join("frames").join(tenant))
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        out.sort();
        out
    }

    #[test]
    fn overwrites_and_drops_leave_one_file_per_name() {
        let dir = tmp_dir("churn");
        let (reg, _) = Registry::recover(&dir).unwrap();
        for i in 0..200 {
            reg.put_frame("t1", "hot", CSV, &format!("tok-{i}"))
                .unwrap();
        }
        reg.put_frame("t1", "gone", CSV, "").unwrap();
        assert!(reg.drop_frame("t1", "gone"));
        assert_eq!(files(&dir, "t1"), vec!["gone.202.drop", "hot.200.csv"]);
        drop(reg);
        let (reg, _) = Registry::recover(&dir).unwrap();
        let entry = reg.get("t1", "hot").unwrap();
        assert_eq!((entry.rows, entry.seq), (4, 200));
        assert_eq!(entry.token, "tok-199", "latest put wins");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn seq_never_regresses_across_a_restart_after_a_drop() {
        let dir = tmp_dir("seq");
        let dropped_at = {
            let (reg, _) = Registry::recover(&dir).unwrap();
            let entry = reg.put_frame("t1", "cars", CSV, "").unwrap();
            assert!(reg.drop_frame("t1", "cars"));
            entry.seq + 1
        };
        let (reg, notes) = Registry::recover(&dir).unwrap();
        assert!(reg.get("t1", "cars").is_none(), "the drop holds");
        let entry = reg.put_frame("t1", "cars", CSV2, "").unwrap();
        assert!(
            entry.seq > dropped_at,
            "seq {} reused: {notes:?}",
            entry.seq
        );
        assert_eq!(files(&dir, "t1"), vec![format!("cars.{}.csv", entry.seq)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_data_dir_with_an_older_journal_is_refused() {
        let dir = tmp_dir("legacy");
        std::fs::write(dir.join("journal.jsonl"), "").unwrap();
        let err = Registry::recover(&dir).err().expect("legacy dir refused");
        assert!(err.to_string().contains("journal.jsonl"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_torn_put_never_loses_the_acked_version() {
        // A put that died before its rename leaves only a temp file, which
        // recovery sweeps; the acked version is served.
        let dir = tmp_dir("torn");
        let acked_file = {
            let (reg, _) = Registry::recover(&dir).unwrap();
            let entry = reg.put_frame("t1", "cars", CSV, "tok-acked").unwrap();
            let torn = format!(".cars.{}.csv.tmp", entry.seq + 7);
            std::fs::write(dir.join("frames/t1").join(torn), b"lux1 8").unwrap();
            entry.file.clone()
        };
        let (reg, notes) = Registry::recover(&dir).unwrap();
        let entry = reg.get("t1", "cars").expect("acked put must survive");
        assert_eq!(entry.rows, 4, "the acked payload is served");
        assert_eq!(entry.token, "tok-acked");
        assert_eq!(entry.file, acked_file);
        assert!(
            notes.iter().any(|n| n.contains("swept 1 ")),
            "the torn temp file is swept and reported: {notes:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_newest_spool_falls_back_to_prior_acked_version() {
        // Bit-rot safety net: when the newest put's payload fails
        // verification, recovery serves the most recent older version that
        // still verifies — loudly — instead of serving nothing.
        let dir = tmp_dir("fallback");
        let (first_file, second_file) = {
            let (reg, _) = Registry::recover(&dir).unwrap();
            let first = reg.put_frame("t1", "cars", CSV, "tok-1").unwrap();
            let v1 = std::fs::read(dir.join(&first.file)).unwrap();
            let second = reg.put_frame("t1", "cars", CSV2, "tok-2").unwrap();
            // The overwrite removed v1; restore its exact bytes (as a
            // power loss may) and damage v2.
            std::fs::write(dir.join(&first.file), v1).unwrap();
            let mut v2 = std::fs::read(dir.join(&second.file)).unwrap();
            *v2.last_mut().unwrap() ^= 0x01;
            std::fs::write(dir.join(&second.file), v2).unwrap();
            (first.file.clone(), second.file.clone())
        };
        let (reg, notes) = Registry::recover(&dir).unwrap();
        let entry = reg.get("t1", "cars").expect("fallback version served");
        assert_eq!(entry.rows, 4, "v1's payload is served");
        assert_eq!(entry.token, "tok-1");
        assert!(
            notes.iter().any(|n| n.contains("serving previous version")),
            "fallback must be loud: {notes:?}"
        );
        assert!(dir.join(&first_file).exists(), "the served version stays");
        assert!(!dir.join(&second_file).exists(), "v2 was quarantined");
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
    fn tokens_are_sanitized_before_spooling() {
        assert_eq!(sanitize_token("ok-token_1.2"), "ok-token_1.2");
        assert_eq!(sanitize_token("quote\"brace}x"), "quotebracex");
        assert_eq!(sanitize_token(&"a".repeat(100)).len(), 64);
    }
}
