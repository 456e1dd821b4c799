//! Durable session state v2: a checksummed, sequence-numbered journal with
//! an explicit fsync policy, snapshot + compaction, and spool integrity.
//!
//! Every mutation of server session state — tenant registration, named
//! frame upload, frame drop — appends one record to
//! `<data_dir>/journal.jsonl`. A v2 record is a framed line
//!
//! ```text
//! v2 <seq> <crc32-hex> <json>
//! ```
//!
//! where the CRC-32 (IEEE) covers `<seq> <json>`, so a flipped bit anywhere
//! in the sequence number or body is caught on replay, not served. The CSV
//! payload itself is spooled to
//! `<data_dir>/frames/<tenant>/<name>.<seq>.csv` *before* the journal line
//! is written, via temp-file → fsync → rename, so write-ahead ordering is
//! durable rather than merely buffered; versioning the file by sequence
//! number means a same-name overwrite never touches the bytes the previous
//! acked put promised (the old version is deleted only after the new put is
//! journaled, and boot sweeps the orphans a crash leaves behind). The `put`
//! record carries the payload's byte length and CRC-32, and recovery
//! verifies both — a frame whose spool bytes no longer match is moved to
//! `<data_dir>/quarantine/` and reported, never served.
//!
//! ## Fsync policy
//!
//! `LUX_JOURNAL_FSYNC` selects how hard an acknowledged mutation is:
//!
//! - `always` — `sync_data` after every journal append (an acked put
//!   survives power loss),
//! - `interval` (default) — `sync_data` at most every 50 ms of appends
//!   (an acked put survives `kill -9`, and at most the last interval is
//!   exposed to power loss),
//! - `never` — `write` only (an acked put still survives `kill -9` — the
//!   bytes are in the page cache — but not power loss).
//!
//! Spool files and snapshots are always fsynced before they are linked into
//! place regardless of policy (`never` skips even those, for benchmarks).
//!
//! ## Snapshot + compaction
//!
//! The journal is not append-only forever: once it exceeds 8 MiB (or
//! `LUX_JOURNAL_COMPACT_LINES` records), the live
//! state is written to `snapshot.jsonl` — temp file, fsync, rename, so the
//! snapshot is either the old one or complete — and only after the rename
//! is durable is `journal.jsonl` truncated. Records keep their original
//! sequence numbers through compaction, and the snapshot trailer pins
//! `last_seq`; replay applies the snapshot first and then skips any journal
//! record with `seq <= last_seq`, which makes a crash *between* the rename
//! and the truncate harmless (the stale journal prefix is deduplicated by
//! sequence number).
//!
//! ## Degradation ladder
//!
//! Journal, spool, and snapshot I/O errors are classified: transient kinds
//! (`Interrupted`, `WouldBlock`, `TimedOut`) are retried once, everything
//! else (disk-full, EIO, permissions) flips the sticky
//! [`Journal::degraded`] state with a typed [`DegradeReason`]. The server
//! keeps serving — it just stops promising durability, and says so in
//! `stats` (`journal: degraded (...)`), in the `HelloAck` health flag, and
//! in the `lux.server.journal.*` metrics. Degraded is sticky all the way
//! down: once set, [`Journal::append`] stops writing entirely, so acks
//! carrying seq 0 and the degraded health flag can never disagree.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use lux_engine::clock;
use lux_engine::failpoint;
use lux_engine::trace::{names as metric, MetricsRegistry};

use crate::protocol::crc32;

/// One replayed `put` record: where the frame's CSV lives, what shape it
/// had when journaled, and the integrity facts recovery verifies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PutRecord {
    pub tenant: String,
    pub name: String,
    pub rows: u64,
    pub cols: u64,
    /// Spool path relative to the data dir.
    pub file: String,
    /// Byte length of the spooled CSV payload.
    pub len: u64,
    /// CRC-32 of the spooled CSV payload.
    pub crc: u32,
    /// Client idempotency token carried by the put (empty for
    /// server-internal records). Lets a reconnecting client confirm that
    /// an un-acked put was in fact applied.
    pub token: String,
    /// Journal sequence number assigned at append time.
    pub seq: u64,
}

/// The survivor state after a replay.
#[derive(Debug, Default)]
pub struct Replay {
    pub tenants: Vec<String>,
    pub frames: Vec<PutRecord>,
    /// Put records a newer put of the same name superseded (in replay
    /// order, so the last entry per name is the most recent loser; cleared
    /// when the name is dropped). Recovery falls back to these when the
    /// newest record's payload is missing or corrupt — the newest put may
    /// never have been acked durable, but a superseded one was.
    pub superseded: Vec<PutRecord>,
    /// Torn or corrupt lines skipped (crash artifacts, not errors).
    pub skipped: usize,
    /// Highest sequence number seen across snapshot + journal.
    pub last_seq: u64,
    /// Whether a snapshot participated in this replay.
    pub from_snapshot: bool,
}

/// Outcome of one journal append. The middle case is load-bearing: a
/// *written* record reaches the file before its durability fsync fails, so
/// it **will** replay after `kill -9` and the spool file it references
/// must be kept — only the durability promise (the acked seq) is withdrawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Append {
    /// On disk, synced as hard as the active policy promises.
    Durable(u64),
    /// On disk (it will replay), but the durability fsync failed;
    /// persistence is now degraded and no seq is promised to the client.
    Written(u64),
    /// Nothing reached the journal file; the mutation is memory-only.
    Lost,
}

impl Append {
    /// The sequence number when the record landed durably enough to
    /// promise (what acks carry), `None` otherwise.
    pub fn durable(self) -> Option<u64> {
        match self {
            Append::Durable(seq) => Some(seq),
            Append::Written(_) | Append::Lost => None,
        }
    }

    /// The sequence number of any record that reached the journal file —
    /// durable or not — i.e. what a post-crash replay will see.
    pub fn written(self) -> Option<u64> {
        match self {
            Append::Durable(seq) | Append::Written(seq) => Some(seq),
            Append::Lost => None,
        }
    }
}

/// Why the journal stopped promising durability. Sticky: once set, only a
/// restart clears it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DegradeReason {
    /// A journal append failed (the mutation was served but not persisted).
    Append(String),
    /// A durability fsync failed (writes may sit in volatile caches).
    Fsync(String),
    /// A snapshot/compaction cycle failed (the journal keeps growing).
    Compact(String),
    /// A spool write failed (the frame is served from memory only).
    Spool(String),
}

impl std::fmt::Display for DegradeReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DegradeReason::Append(e) => write!(f, "append failed: {e}"),
            DegradeReason::Fsync(e) => write!(f, "fsync failed: {e}"),
            DegradeReason::Compact(e) => write!(f, "compaction failed: {e}"),
            DegradeReason::Spool(e) => write!(f, "spool write failed: {e}"),
        }
    }
}

/// How hard an acknowledged mutation is (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    Always,
    Interval(Duration),
    Never,
}

impl FsyncPolicy {
    fn label(&self) -> &'static str {
        match self {
            FsyncPolicy::Always => "always",
            FsyncPolicy::Interval(_) => "interval",
            FsyncPolicy::Never => "never",
        }
    }
}

/// Journal tuning knobs, separable from the environment for tests.
#[derive(Debug, Clone)]
pub struct JournalConfig {
    pub fsync: FsyncPolicy,
    /// Compact once the journal file exceeds this many bytes.
    pub compact_bytes: u64,
    /// ... or this many records, whichever trips first.
    pub compact_lines: u64,
}

impl Default for JournalConfig {
    fn default() -> JournalConfig {
        JournalConfig {
            fsync: FsyncPolicy::Interval(Duration::from_millis(50)),
            compact_bytes: 8 * 1024 * 1024,
            compact_lines: 10_000,
        }
    }
}

impl JournalConfig {
    /// Defaults overridden by `LUX_JOURNAL_FSYNC` and
    /// `LUX_JOURNAL_COMPACT_LINES` ([`lux_engine::knobs`]; an invalid value
    /// keeps the default).
    pub fn from_env() -> JournalConfig {
        let env = lux_engine::knobs::knobs();
        let d = JournalConfig::default();
        JournalConfig {
            fsync: match env.journal_fsync {
                Some("always") => FsyncPolicy::Always,
                Some("never") => FsyncPolicy::Never,
                _ => d.fsync,
            },
            compact_lines: env
                .journal_compact_lines
                .map_or(d.compact_lines, |n| n.max(16)),
            ..d
        }
    }
}

/// Classify an I/O error: transient kinds get one retry, everything else
/// (disk-full, EIO, permissions, bad descriptors) flips the degrade ladder
/// immediately.
fn transient(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::Interrupted
            | std::io::ErrorKind::WouldBlock
            | std::io::ErrorKind::TimedOut
    )
}

/// Count a classified I/O error in the metric the alert rules key off.
fn count_io_error() {
    MetricsRegistry::global().incr(metric::SERVER_JOURNAL_IO_ERRORS);
}

/// fsync a file through the `io.fsync` failpoint; counts
/// `lux.server.journal.fsyncs` on success.
fn fsync_file(file: &std::fs::File) -> std::io::Result<()> {
    if let Some(msg) = failpoint::hit(failpoint::names::IO_FSYNC) {
        return Err(std::io::Error::other(format!(
            "injected fsync failure: {msg}"
        )));
    }
    file.sync_data()?;
    MetricsRegistry::global().incr(metric::SERVER_JOURNAL_FSYNCS);
    Ok(())
}

/// fsync a directory (making a rename within it durable). Best-effort on
/// platforms where directories cannot be opened for sync.
fn fsync_dir(dir: &Path) -> std::io::Result<()> {
    match std::fs::File::open(dir) {
        Ok(d) => fsync_file(&d),
        Err(_) => Ok(()),
    }
}

/// Durable spool write: temp file in the target directory, write, fsync
/// (policy permitting), rename into place, fsync the directory. A crash at
/// any instruction leaves either the old payload or the new one — never a
/// torn file the journal already references.
pub fn spool_write(path: &Path, bytes: &[u8], fsync: bool) -> std::io::Result<()> {
    if let Some(msg) = failpoint::hit(failpoint::names::SERVER_SPOOL) {
        return Err(std::io::Error::other(format!(
            "injected spool failure: {msg}"
        )));
    }
    let parent = path
        .parent()
        .ok_or_else(|| std::io::Error::other("spool path has no parent"))?;
    std::fs::create_dir_all(parent)?;
    let tmp = parent.join(format!(
        ".{}.tmp",
        path.file_name().and_then(|n| n.to_str()).unwrap_or("spool")
    ));
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        if fsync {
            fsync_file(&f)?;
        }
    }
    std::fs::rename(&tmp, path)?;
    if fsync {
        fsync_dir(parent)?;
    }
    Ok(())
}

/// Move a spool file whose payload failed its recovery checksum into
/// `<data_dir>/quarantine/`, returning the new location. The frame is
/// reported and counted, never served.
fn quarantine(data_dir: &Path, rec: &PutRecord) -> Option<PathBuf> {
    let qdir = data_dir.join("quarantine");
    std::fs::create_dir_all(&qdir).ok()?;
    let dest = qdir.join(format!("{}_{}_seq{}.csv", rec.tenant, rec.name, rec.seq));
    std::fs::rename(data_dir.join(&rec.file), &dest).ok()?;
    Some(dest)
}

/// The live state a snapshot captures (what the registry holds in memory).
#[derive(Debug, Default, Clone)]
pub struct SnapshotState {
    pub tenants: Vec<String>,
    pub frames: Vec<PutRecord>,
}

/// Appender over the journal file. All writes go through
/// [`Journal::append`] so the `server.journal` failpoint and the fsync
/// policy act in one place.
pub struct Journal {
    data_dir: PathBuf,
    path: PathBuf,
    file: Option<std::fs::File>,
    cfg: JournalConfig,
    /// Next sequence number to assign.
    next_seq: u64,
    /// Records and bytes in the current journal file (compaction inputs).
    lines: u64,
    bytes: u64,
    /// Completed compaction cycles since open.
    compactions: u64,
    last_sync: Instant,
    /// Appends since the last successful fsync (interval policy bookkeeping).
    unsynced: u64,
    /// Set when persistence degraded; sticky until restart.
    degraded: Option<DegradeReason>,
}

impl Journal {
    /// Open (creating if needed) the journal at `<data_dir>/journal.jsonl`,
    /// continuing the sequence numbering after `last_seq` (from
    /// [`replay`]).
    pub fn open(data_dir: &Path, cfg: JournalConfig, last_seq: u64) -> std::io::Result<Journal> {
        std::fs::create_dir_all(data_dir)?;
        let path = data_dir.join("journal.jsonl");
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        let meta = file.metadata()?;
        Ok(Journal {
            data_dir: data_dir.to_path_buf(),
            path,
            file: Some(file),
            cfg,
            next_seq: last_seq + 1,
            lines: 0,
            bytes: meta.len(),
            compactions: 0,
            last_sync: clock::now(),
            unsynced: 0,
            degraded: None,
        })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Whether persistence has degraded since open, and why.
    pub fn degraded(&self) -> Option<&DegradeReason> {
        self.degraded.as_ref()
    }

    /// One-line health summary for `stats`.
    pub fn health_line(&self) -> String {
        match &self.degraded {
            Some(reason) => format!("degraded ({reason})"),
            None => format!(
                "ok (fsync={}, seq={}, compactions={})",
                self.cfg.fsync.label(),
                self.next_seq.saturating_sub(1),
                self.compactions
            ),
        }
    }

    /// The sequence number the next append will get.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Whether the spool/snapshot layer should fsync under the current
    /// policy (`never` opts benchmarks out of all durability syncs).
    pub fn spool_fsync(&self) -> bool {
        !matches!(self.cfg.fsync, FsyncPolicy::Never)
    }

    /// Record a degraded-persistence event originating outside the journal
    /// file itself (spool writes). Counted as an I/O error — injected
    /// failpoints included, since they stand in for exactly that.
    pub fn mark_degraded(&mut self, reason: DegradeReason) {
        count_io_error();
        MetricsRegistry::global().incr(metric::SERVER_JOURNAL_FAILURES);
        self.set_degraded(reason);
    }

    pub fn record_tenant(&mut self, tenant: &str) -> Option<u64> {
        self.append(&format!("{{\"op\":\"tenant\",\"tenant\":\"{tenant}\"}}"))
            .durable()
    }

    /// Append a `put` record. The caller must branch on the full
    /// [`Append`] outcome: `Durable` is ackable, `Written` means the
    /// record is on disk (keep its spool file!) but carries no promise,
    /// `Lost` means nothing will ever reference the spool file.
    pub fn record_put(&mut self, rec: &PutRecord) -> Append {
        self.append(&put_body(rec))
    }

    pub fn record_drop(&mut self, tenant: &str, name: &str) -> Option<u64> {
        self.append(&format!(
            "{{\"op\":\"drop\",\"tenant\":\"{tenant}\",\"name\":\"{name}\"}}"
        ))
        .durable()
    }

    /// Whether the journal has outgrown its compaction thresholds.
    pub fn should_compact(&self) -> bool {
        self.degraded.is_none()
            && (self.bytes >= self.cfg.compact_bytes || self.lines >= self.cfg.compact_lines)
    }

    /// Snapshot + truncate compaction (see the module docs for the crash
    /// windows). On failure the journal is left as it was and persistence
    /// degrades with a `Compact` reason — the server keeps serving.
    pub fn compact(&mut self, state: &SnapshotState) {
        if let Err(e) = self.try_compact(state) {
            count_io_error();
            MetricsRegistry::global().incr(metric::SERVER_JOURNAL_FAILURES);
            self.set_degraded(DegradeReason::Compact(e));
            return;
        }
        self.compactions += 1;
    }

    fn try_compact(&mut self, state: &SnapshotState) -> Result<(), String> {
        if let Some(msg) = failpoint::hit(failpoint::names::SERVER_SNAPSHOT) {
            return Err(format!("injected snapshot failure: {msg}"));
        }
        let last_seq = self.next_seq - 1;
        let tmp = self.data_dir.join("snapshot.tmp");
        {
            let mut f = std::fs::File::create(&tmp).map_err(|e| e.to_string())?;
            let mut body = String::new();
            for t in &state.tenants {
                // Snapshot records reuse seq 0 for tenants: idempotent,
                // order-free registrations that never need dedup.
                body.push_str(&frame_line(
                    0,
                    &format!("{{\"op\":\"tenant\",\"tenant\":\"{t}\"}}"),
                ));
            }
            for rec in &state.frames {
                body.push_str(&frame_line(rec.seq, &put_body(rec)));
            }
            // Trailer last: a snapshot without a trailer is torn and
            // ignored by replay.
            body.push_str(&frame_line(
                last_seq,
                &format!(
                    "{{\"op\":\"snap_end\",\"last_seq\":{last_seq},\"frames\":{}}}",
                    state.frames.len()
                ),
            ));
            f.write_all(body.as_bytes()).map_err(|e| e.to_string())?;
            if self.spool_fsync() {
                fsync_file(&f).map_err(|e| e.to_string())?;
            }
        }
        std::fs::rename(&tmp, self.data_dir.join("snapshot.jsonl")).map_err(|e| e.to_string())?;
        if self.spool_fsync() {
            fsync_dir(&self.data_dir).map_err(|e| e.to_string())?;
        }
        // Only now — with the snapshot durable — may the journal shrink.
        let sync = self.spool_fsync();
        let file = self.file.as_mut().ok_or("journal file lost")?;
        file.set_len(0).map_err(|e| e.to_string())?;
        if sync {
            fsync_file(file).map_err(|e| e.to_string())?;
        }
        self.lines = 0;
        self.bytes = 0;
        self.unsynced = 0;
        Ok(())
    }

    /// Append one record body with the v2 framing; applies the fsync
    /// policy. Once degraded, nothing more is appended: acks (seq 0), the
    /// `HelloAck` health flag, and `stats` must keep agreeing that no
    /// durability is being promised — and under the interval policy a
    /// failed fsync means later writes may genuinely never become durable.
    fn append(&mut self, body: &str) -> Append {
        if self.degraded.is_some() {
            return Append::Lost;
        }
        // Failpoint: injected journal failure degrades persistence only —
        // the request that triggered the append must still succeed.
        if let Some(msg) = failpoint::hit(failpoint::names::SERVER_JOURNAL) {
            MetricsRegistry::global().incr(metric::SERVER_JOURNAL_FAILURES);
            self.set_degraded(DegradeReason::Append(format!("injected: {msg}")));
            return Append::Lost;
        }
        let seq = self.next_seq;
        let line = frame_line(seq, body);
        let Some(file) = self.file.as_mut() else {
            MetricsRegistry::global().incr(metric::SERVER_JOURNAL_FAILURES);
            self.set_degraded(DegradeReason::Append("journal file lost".to_string()));
            return Append::Lost;
        };
        let mut write = || file.write_all(line.as_bytes());
        let result = match write() {
            Err(e) if transient(&e) => write(),
            other => other,
        };
        if let Err(e) = result {
            count_io_error();
            MetricsRegistry::global().incr(metric::SERVER_JOURNAL_FAILURES);
            self.set_degraded(DegradeReason::Append(e.to_string()));
            // A short write may have left a torn prefix; replay skips it
            // by CRC and `next_seq` stays put, so the next successful
            // append (after a restart clears the degrade) reuses the seq.
            return Append::Lost;
        }
        self.next_seq += 1;
        self.lines += 1;
        self.bytes += line.len() as u64;
        self.unsynced += 1;
        MetricsRegistry::global().incr(metric::SERVER_JOURNAL_APPENDS);
        let need_sync = match self.cfg.fsync {
            FsyncPolicy::Always => true,
            FsyncPolicy::Interval(d) => clock::elapsed(self.last_sync) >= d,
            FsyncPolicy::Never => false,
        };
        if need_sync {
            // The write above proved the handle exists, but stay typed
            // rather than panic if that ever stops holding. From here on
            // the record is *written* — it will replay after kill -9 —
            // so a failed fsync withdraws the promise, not the record.
            let Some(file) = self.file.as_ref() else {
                self.set_degraded(DegradeReason::Fsync("journal file lost".to_string()));
                return Append::Written(seq);
            };
            let result = match fsync_file(file) {
                Err(e) if transient(&e) => fsync_file(file),
                other => other,
            };
            match result {
                Ok(()) => {
                    self.last_sync = clock::now();
                    self.unsynced = 0;
                }
                Err(e) => {
                    count_io_error();
                    MetricsRegistry::global().incr(metric::SERVER_JOURNAL_FAILURES);
                    self.set_degraded(DegradeReason::Fsync(e.to_string()));
                    return Append::Written(seq);
                }
            }
        }
        Append::Durable(seq)
    }

    fn set_degraded(&mut self, reason: DegradeReason) {
        if self.degraded.is_none() {
            self.degraded = Some(reason);
        }
        MetricsRegistry::global()
            .counter_handle(metric::SERVER_JOURNAL_DEGRADED)
            .store(1, std::sync::atomic::Ordering::Relaxed);
    }
}

/// Serialize a put body (shared by live appends and snapshot writes).
fn put_body(rec: &PutRecord) -> String {
    format!(
        "{{\"op\":\"put\",\"tenant\":\"{}\",\"name\":\"{}\",\"rows\":{},\"cols\":{},\
         \"file\":\"{}\",\"len\":{},\"crc\":{},\"token\":\"{}\"}}",
        rec.tenant, rec.name, rec.rows, rec.cols, rec.file, rec.len, rec.crc, rec.token
    )
}

/// Frame one record body with the v2 header: `v2 <seq> <crc32-hex> <json>\n`,
/// CRC over `<seq> <json>`.
fn frame_line(seq: u64, body: &str) -> String {
    let covered = format!("{seq} {body}");
    format!("v2 {} {:08x} {}\n", seq, crc32(covered.as_bytes()), body)
}

/// Parse one framed line into `(seq, op)`. `None` = corrupt — which
/// includes any line without the `v2 ` header: an unframed line carries no
/// checksum, so it is never replayed.
fn parse_framed(line: &str) -> Option<(u64, Op)> {
    let rest = line.strip_prefix("v2 ")?;
    let (seq_s, rest) = rest.split_once(' ')?;
    let (crc_s, body) = rest.split_once(' ')?;
    let seq: u64 = seq_s.parse().ok()?;
    let expected = u32::from_str_radix(crc_s, 16).ok()?;
    let covered = format!("{seq} {body}");
    if crc32(covered.as_bytes()) != expected {
        return None;
    }
    Some((seq, parse_body(body)?))
}

/// Read a journal or snapshot file for replay. Lossy on purpose: a bit flip
/// that breaks UTF-8 must cost the line it hit (its CRC no longer matches),
/// not silently discard every record in the file.
fn read_lossy(path: &Path) -> Option<String> {
    let bytes = std::fs::read(path).ok()?;
    Some(String::from_utf8_lossy(&bytes).into_owned())
}

/// Replay `<data_dir>`: snapshot first (if any), then the journal, skipping
/// journal records already covered by the snapshot (`seq <= last_seq`,
/// which deduplicates the stale prefix a crash between snapshot-rename and
/// journal-truncate leaves behind). A missing journal is an empty replay,
/// not an error; corrupt lines are counted and skipped; replay never fails
/// the boot.
pub fn replay(data_dir: &Path) -> Replay {
    let mut tenants: Vec<String> = Vec::new();
    let mut frames: BTreeMap<(String, String), PutRecord> = BTreeMap::new();
    let mut superseded: Vec<PutRecord> = Vec::new();
    let mut skipped = 0usize;
    let mut last_seq = 0u64;
    let mut snapshot_floor = 0u64;
    let mut from_snapshot = false;

    // Phase 1 — snapshot. Only trusted when its trailer survives: a torn
    // or trailerless snapshot is ignored wholesale (the journal it was
    // compacted from is gone, but a snapshot.jsonl only exists after a
    // durable rename, so this is bit-rot territory, handled by quarantine
    // and skip counts rather than a refused boot).
    let snap_path = data_dir.join("snapshot.jsonl");
    if let Some(text) = read_lossy(&snap_path) {
        let mut snap_tenants = Vec::new();
        let mut snap_frames = BTreeMap::new();
        let mut snap_skipped = 0usize;
        let mut trailer: Option<u64> = None;
        for line in text.lines().map(str::trim).filter(|l| !l.is_empty()) {
            match parse_framed(line) {
                Some((_, Op::Tenant { tenant })) => {
                    if !snap_tenants.contains(&tenant) {
                        snap_tenants.push(tenant);
                    }
                }
                Some((seq, Op::Put(mut rec))) => {
                    rec.seq = seq;
                    snap_frames.insert((rec.tenant.clone(), rec.name.clone()), rec);
                }
                Some((_, Op::Drop { .. })) => {} // snapshots hold live state only
                Some((_, Op::SnapEnd { last_seq })) => trailer = Some(last_seq),
                None => snap_skipped += 1,
            }
        }
        if let Some(seq_floor) = trailer {
            tenants = snap_tenants;
            frames = snap_frames;
            skipped += snap_skipped;
            snapshot_floor = seq_floor;
            last_seq = seq_floor;
            from_snapshot = true;
        } else {
            skipped += snap_skipped.max(1); // torn snapshot counts as skipped
        }
    }

    // Phase 2 — the journal on top.
    let path = data_dir.join("journal.jsonl");
    if let Some(text) = read_lossy(&path) {
        for line in text.lines().map(str::trim).filter(|l| !l.is_empty()) {
            match parse_framed(line) {
                Some((seq, op)) => {
                    if seq != 0 && seq <= snapshot_floor {
                        continue; // stale prefix predating the snapshot
                    }
                    last_seq = last_seq.max(seq);
                    match op {
                        Op::Tenant { tenant } => {
                            if !tenants.contains(&tenant) {
                                tenants.push(tenant);
                            }
                        }
                        Op::Put(mut rec) => {
                            rec.seq = seq;
                            if let Some(old) =
                                frames.insert((rec.tenant.clone(), rec.name.clone()), rec)
                            {
                                superseded.push(old);
                            }
                        }
                        Op::Drop { tenant, name } => {
                            frames.remove(&(tenant.clone(), name.clone()));
                            // Old versions of a dropped frame are dead —
                            // never fallback material.
                            superseded.retain(|r| r.tenant != tenant || r.name != name);
                        }
                        Op::SnapEnd { .. } => {} // never journaled; tolerate
                    }
                }
                None => skipped += 1,
            }
        }
    }

    let replay = Replay {
        tenants,
        frames: frames.into_values().collect(),
        superseded,
        skipped,
        last_seq,
        from_snapshot,
    };
    MetricsRegistry::global().add(metric::SERVER_JOURNAL_SKIPPED_LINES, replay.skipped as u64);
    replay
}

/// Verify a replayed put's spool payload against the journaled length and
/// checksum. `Ok(bytes)` means the exact acked payload; `Err` carries a
/// human reason and has already quarantined the file (when possible) and
/// counted `lux.server.journal.quarantined_frames`.
pub fn verify_spool(data_dir: &Path, rec: &PutRecord) -> Result<Vec<u8>, String> {
    let path = data_dir.join(&rec.file);
    let bytes = std::fs::read(&path).map_err(|e| format!("spool read failed ({e})"))?;
    if bytes.len() as u64 != rec.len {
        let where_ = quarantine(data_dir, rec);
        MetricsRegistry::global().incr(metric::SERVER_JOURNAL_QUARANTINED);
        return Err(format!(
            "spool length {} != journaled {} (quarantined to {:?})",
            bytes.len(),
            rec.len,
            where_
        ));
    }
    let actual = crc32(&bytes);
    if actual != rec.crc {
        let where_ = quarantine(data_dir, rec);
        MetricsRegistry::global().incr(metric::SERVER_JOURNAL_QUARANTINED);
        return Err(format!(
            "spool crc {:08x} != journaled {:08x} (quarantined to {:?})",
            actual, rec.crc, where_
        ));
    }
    Ok(bytes)
}

enum Op {
    Tenant { tenant: String },
    Put(PutRecord),
    Drop { tenant: String, name: String },
    SnapEnd { last_seq: u64 },
}

/// Parse one record body. The journal only ever contains bodies this
/// module wrote (flat objects, names in the safe alphabet), so a focused
/// field extractor is sufficient — anything it cannot read is treated as
/// corruption and skipped by the caller.
fn parse_body(line: &str) -> Option<Op> {
    if !line.starts_with('{') || !line.ends_with('}') {
        return None;
    }
    let op = str_field(line, "op")?;
    match op.as_str() {
        "tenant" => Some(Op::Tenant {
            tenant: str_field(line, "tenant")?,
        }),
        "put" => Some(Op::Put(PutRecord {
            tenant: str_field(line, "tenant")?,
            name: str_field(line, "name")?,
            rows: u64_field(line, "rows")?,
            cols: u64_field(line, "cols")?,
            file: str_field(line, "file")?,
            len: u64_field(line, "len")?,
            crc: u64_field(line, "crc")? as u32,
            token: str_field(line, "token")?,
            seq: 0,
        })),
        "drop" => Some(Op::Drop {
            tenant: str_field(line, "tenant")?,
            name: str_field(line, "name")?,
        }),
        "snap_end" => Some(Op::SnapEnd {
            last_seq: u64_field(line, "last_seq")?,
        }),
        _ => None,
    }
}

fn str_field(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":\"");
    let start = line.find(&pat)? + pat.len();
    let end = line[start..].find('"')? + start;
    Some(line[start..end].to_string())
}

fn u64_field(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let digits: String = line[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

/// The spool path (relative to the data dir) for a tenant's named frame at
/// a given journal sequence number. Versioning the file by `seq` is what
/// makes overwrites crash-safe: a newer put for the same name spools to a
/// *different* file, so a crash between its spool rename and its journal
/// append can never clobber the bytes the last *acked* put promised.
/// Sequence numbers contain no dots, so distinct `(name, seq)` pairs can
/// never collide even though names may contain dots. Both name components
/// are wire-validated, so the path cannot escape the spool directory.
pub fn spool_rel_path(tenant: &str, name: &str, seq: u64) -> String {
    format!("frames/{tenant}/{name}.{seq}.csv")
}

/// Remove spool files no journal record references (boot-time sweep).
/// Orphans are a normal crash artifact: a put that spooled its payload but
/// died before its journal append, or a put acked under degraded
/// persistence. `referenced` holds data-dir-relative paths that must
/// survive — every replayed record's file, recovered or not (a CRC-valid
/// file whose CSV no longer parses is kept as evidence, not deleted).
pub fn sweep_orphan_spools(
    data_dir: &Path,
    referenced: &std::collections::BTreeSet<String>,
) -> usize {
    let frames = data_dir.join("frames");
    let mut removed = 0usize;
    let Ok(tenants) = std::fs::read_dir(&frames) else {
        return 0;
    };
    for tenant in tenants.flatten() {
        let Ok(files) = std::fs::read_dir(tenant.path()) else {
            continue;
        };
        for f in files.flatten() {
            let rel = match (tenant.file_name().to_str(), f.file_name().to_str()) {
                (Some(t), Some(n)) => format!("frames/{t}/{n}"),
                _ => continue,
            };
            if !referenced.contains(&rel) && std::fs::remove_file(f.path()).is_ok() {
                removed += 1;
            }
        }
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lux_journal_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn put(tenant: &str, name: &str, rows: u64) -> PutRecord {
        PutRecord {
            tenant: tenant.into(),
            name: name.into(),
            rows,
            cols: 3,
            file: spool_rel_path(tenant, name, 0),
            len: 0,
            crc: 0,
            token: String::new(),
            seq: 0,
        }
    }

    fn open(dir: &Path) -> Journal {
        Journal::open(dir, JournalConfig::default(), replay(dir).last_seq).unwrap()
    }

    #[test]
    fn replay_applies_puts_and_drops() {
        let dir = tmp_dir("basic");
        let mut j = open(&dir);
        j.record_tenant("t1");
        j.record_put(&put("t1", "cars", 10));
        j.record_put(&put("t1", "trips", 5));
        j.record_drop("t1", "trips");
        drop(j);
        let r = replay(&dir);
        assert_eq!(r.tenants, vec!["t1".to_string()]);
        assert_eq!(r.frames.len(), 1);
        assert_eq!(r.frames[0].name, "cars");
        assert_eq!(r.frames[0].rows, 10);
        assert_eq!(r.skipped, 0);
        assert_eq!(r.last_seq, 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_skipped_not_fatal() {
        let dir = tmp_dir("torn");
        let mut j = open(&dir);
        j.record_put(&put("t1", "cars", 10));
        drop(j);
        // Two corrupt lines: an unframed one (well-formed JSON, but with no
        // `v2` header there is no checksum to verify it by), then a crash
        // mid-append — a torn half-line at the tail, ending in a byte that
        // is not UTF-8 (which must cost that line, not the whole file).
        let path = dir.join("journal.jsonl");
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        f.write_all(
            b"{\"op\":\"tenant\",\"tenant\":\"ghost\"}\n\
              v2 9 00000000 {\"op\":\"put\",\"tenant\":\"t1\",\"na\xff",
        )
        .unwrap();
        drop(f);
        let skipped0 = MetricsRegistry::global().counter(metric::SERVER_JOURNAL_SKIPPED_LINES);
        let r = replay(&dir);
        assert_eq!(r.frames.len(), 1);
        assert!(r.tenants.is_empty(), "unframed line must not replay");
        assert_eq!(r.skipped, 2);
        assert!(MetricsRegistry::global().counter(metric::SERVER_JOURNAL_SKIPPED_LINES) > skipped0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flip_in_record_is_caught_by_crc() {
        let dir = tmp_dir("bitflip");
        let mut j = open(&dir);
        j.record_put(&put("t1", "cars", 10));
        j.record_put(&put("t1", "trips", 5));
        drop(j);
        let path = dir.join("journal.jsonl");
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a bit inside the *body* of the first record (row count).
        let pos = bytes.iter().position(|&b| b == b'1').unwrap();
        bytes[pos] ^= 0x02;
        std::fs::write(&path, &bytes).unwrap();
        let r = replay(&dir);
        assert_eq!(r.frames.len(), 1, "corrupt record must be dropped");
        assert_eq!(r.frames[0].name, "trips");
        assert_eq!(r.skipped, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_journal_is_empty_replay() {
        let dir = tmp_dir("missing");
        let r = replay(&dir.join("nope"));
        assert!(r.tenants.is_empty() && r.frames.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_tracks_superseded_versions_until_drop() {
        let dir = tmp_dir("superseded");
        let mut j = open(&dir);
        j.record_put(&put("t1", "cars", 10));
        j.record_put(&put("t1", "cars", 11));
        j.record_put(&put("t1", "trips", 5));
        j.record_put(&put("t1", "trips", 6));
        j.record_drop("t1", "trips");
        drop(j);
        let r = replay(&dir);
        assert_eq!(r.frames.len(), 1);
        assert_eq!(r.frames[0].rows, 11);
        // cars' old version is fallback material; trips' is not (dropped).
        assert_eq!(r.superseded.len(), 1);
        assert_eq!(r.superseded[0].name, "cars");
        assert_eq!(r.superseded[0].rows, 10);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_snapshots_and_truncates() {
        let dir = tmp_dir("compact");
        let cfg = JournalConfig {
            compact_lines: 16,
            ..JournalConfig::default()
        };
        let mut j = Journal::open(&dir, cfg, 0).unwrap();
        let mut live: Vec<PutRecord> = Vec::new();
        for i in 0..20 {
            let name = format!("f{}", i % 4);
            let mut rec = put("t1", &name, i);
            rec.seq = j.record_put(&rec).durable().unwrap();
            live.retain(|r| r.name != name);
            live.push(rec);
        }
        assert!(j.should_compact());
        let state = SnapshotState {
            tenants: vec!["t1".to_string()],
            frames: live.clone(),
        };
        j.compact(&state);
        assert!(j.degraded().is_none());
        assert!(dir.join("snapshot.jsonl").exists());
        assert_eq!(std::fs::metadata(j.path()).unwrap().len(), 0);
        // Post-compaction appends and the snapshot replay compose.
        j.record_drop("t1", "f0");
        drop(j);
        let r = replay(&dir);
        assert!(r.from_snapshot);
        assert_eq!(r.frames.len(), 3);
        assert!(r.frames.iter().all(|f| f.name != "f0"));
        // The newest put of each name survived.
        assert!(r.frames.iter().any(|f| f.name == "f3" && f.rows == 19));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_journal_prefix_after_snapshot_is_deduped() {
        // Crash window: snapshot renamed durable, journal NOT yet
        // truncated. Replay must not resurrect dropped frames from the
        // stale prefix.
        let dir = tmp_dir("stale");
        let cfg = JournalConfig::default();
        let mut j = Journal::open(&dir, cfg, 0).unwrap();
        let mut rec = put("t1", "cars", 10);
        rec.seq = j.record_put(&rec).durable().unwrap();
        let seq_gone = j.record_put(&put("t1", "gone", 5)).durable().unwrap();
        assert!(seq_gone > 0);
        j.record_drop("t1", "gone");
        // Snapshot current state (cars only), then *skip* the truncate by
        // writing the snapshot by hand with the same framing.
        let state = SnapshotState {
            tenants: vec!["t1".to_string()],
            frames: vec![rec],
        };
        let last_seq = j.next_seq() - 1;
        let mut body = String::new();
        body.push_str(&frame_line(0, "{\"op\":\"tenant\",\"tenant\":\"t1\"}"));
        for r in &state.frames {
            body.push_str(&frame_line(r.seq, &put_body(r)));
        }
        body.push_str(&frame_line(
            last_seq,
            &format!("{{\"op\":\"snap_end\",\"last_seq\":{last_seq},\"frames\":1}}"),
        ));
        std::fs::write(dir.join("snapshot.jsonl"), body).unwrap();
        drop(j); // journal still holds put(gone) + drop(gone)
        let r = replay(&dir);
        assert!(r.from_snapshot);
        assert_eq!(r.frames.len(), 1);
        assert_eq!(r.frames[0].name, "cars");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spool_roundtrip_and_verification() {
        let dir = tmp_dir("spool");
        let rel = spool_rel_path("t1", "cars", 0);
        let payload = b"a,b\n1,2\n";
        spool_write(&dir.join(&rel), payload, true).unwrap();
        let mut rec = put("t1", "cars", 1);
        rec.len = payload.len() as u64;
        rec.crc = crc32(payload);
        assert_eq!(verify_spool(&dir, &rec).unwrap(), payload);
        // Corrupt one byte: verification must fail and quarantine.
        let mut bytes = std::fs::read(dir.join(&rel)).unwrap();
        bytes[0] ^= 0xFF;
        std::fs::write(dir.join(&rel), &bytes).unwrap();
        let err = verify_spool(&dir, &rec).unwrap_err();
        assert!(err.contains("crc"), "{err}");
        assert!(!dir.join(&rel).exists(), "corrupt spool must be moved out");
        assert!(dir.join("quarantine").join("t1_cars_seq0.csv").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
