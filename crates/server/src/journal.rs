//! Durable session state: the spool directory is the journal
//! (DESIGN.md §13).
//!
//! Everything the server must remember across a crash is a directory entry
//! under `<data_dir>/frames/`:
//!
//! ```text
//! frames/<tenant>/                  a registered tenant
//! frames/<tenant>/<name>.<seq>.csv  a put: header line, then the CSV payload
//! frames/<tenant>/<name>.<seq>.drop a drop (an empty tombstone)
//! ```
//!
//! The header is `lux1 <len> <crc32-hex> <token> <header-crc32-hex>\n`: the
//! payload's length and CRC-32, the idempotency token, and a CRC-32 of the
//! fields before it, so a flipped bit anywhere in the file is caught. Seqs are
//! global and never reused; names may contain dots and seqs may not, so file
//! names are parsed from the right. [`Store`] writes the tree and degrades,
//! stickily, on any failure to make a write durable; [`recover`] reads it.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};

use lux_engine::failpoint;
use lux_engine::trace::{names as metric, MetricsRegistry};

use crate::protocol::crc32;

/// Why the store stopped promising durability. Sticky: once set, only a
/// restart clears it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DegradeReason {
    /// A spool write failed before its file was in place.
    Spool(String),
    /// A durability fsync failed (writes may sit in volatile caches).
    Fsync(String),
}

impl std::fmt::Display for DegradeReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DegradeReason::Spool(e) => write!(f, "spool write failed: {e}"),
            DegradeReason::Fsync(e) => write!(f, "fsync failed: {e}"),
        }
    }
}

/// How hard an acknowledged mutation is: always fsynced, file and directory,
/// before the ack. Kept only because the benchmark's report header prints
/// `JournalConfig::default().fsync`; nothing in the product reads it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FsyncPolicy {
    #[default]
    Always,
}

/// Kept only for the benchmark's report header (see [`FsyncPolicy`]).
#[derive(Debug, Clone, Default)]
pub struct JournalConfig {
    pub fsync: FsyncPolicy,
}

/// The facts the directory records about one stored put.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PutRecord {
    pub tenant: String,
    pub name: String,
    /// Spool path relative to the data dir (empty when nothing was written).
    pub file: String,
    /// Byte length and CRC-32 of the CSV payload.
    pub len: u64,
    pub crc: u32,
    /// Client idempotency token (empty when the client sent none).
    pub token: String,
    /// The put's sequence number; 0 = no durability promised.
    pub seq: u64,
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

/// fsync a directory (making an entry created or renamed in it durable).
/// Best-effort on platforms where directories cannot be opened for sync.
fn fsync_dir(dir: &Path) -> std::io::Result<()> {
    match std::fs::File::open(dir) {
        Ok(d) => fsync_file(&d),
        Err(_) => Ok(()),
    }
}

/// The spool file name of a put (`tombstone = false`) or a drop.
fn file_name(name: &str, seq: u64, tombstone: bool) -> String {
    format!("{name}.{seq}.{}", if tombstone { "drop" } else { "csv" })
}

/// Parse a spool file name from the right: `(name, seq, tombstone)`.
fn parse_file_name(file: &str) -> Option<(&str, u64, bool)> {
    let (stem, tombstone) = match file.strip_suffix(".csv") {
        Some(stem) => (stem, false),
        None => (file.strip_suffix(".drop")?, true),
    };
    let (name, seq) = stem.rsplit_once('.')?;
    if name.is_empty() || seq.is_empty() || !seq.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    Some((name, seq.parse().ok()?, tombstone))
}

/// The spool path (relative to the data dir) of a tenant's put at `seq`.
/// Both name components are wire-validated, so the path cannot escape the
/// spool directory.
fn spool_rel_path(tenant: &str, name: &str, seq: u64) -> String {
    format!("frames/{tenant}/{}", file_name(name, seq, false))
}

fn header(len: usize, crc: u32, token: &str) -> String {
    let fields = format!("lux1 {len} {crc:08x} {token}");
    format!("{fields} {:08x}\n", crc32(fields.as_bytes()))
}

/// A spool file read back and verified: header CRC, payload length and
/// payload CRC all match.
#[derive(Debug)]
pub struct Spool {
    pub token: String,
    pub crc: u32,
    pub payload: Vec<u8>,
}

/// Read and verify one spool file. `Err` is a human reason.
pub fn read_spool(path: &Path) -> Result<Spool, String> {
    let mut bytes = std::fs::read(path).map_err(|e| format!("read failed ({e})"))?;
    let end = bytes
        .iter()
        .take(256)
        .position(|&b| b == b'\n')
        .ok_or("no header line")?;
    let line = String::from_utf8_lossy(&bytes[..end]).into_owned();
    let (fields, hcrc) = line.rsplit_once(' ').ok_or("malformed header")?;
    if u32::from_str_radix(hcrc, 16).ok() != Some(crc32(fields.as_bytes())) {
        return Err("header crc mismatch".to_string());
    }
    let parsed = match fields.split(' ').collect::<Vec<_>>()[..] {
        ["lux1", len, crc, token] => len
            .parse::<usize>()
            .ok()
            .zip(u32::from_str_radix(crc, 16).ok())
            .map(|(len, crc)| (len, crc, token.to_string())),
        _ => None,
    };
    let (len, crc, token) = parsed.ok_or("malformed header")?;
    bytes.drain(..=end);
    if bytes.len() != len {
        return Err(format!("payload length {} != header {len}", bytes.len()));
    }
    let actual = crc32(&bytes);
    if actual != crc {
        return Err(format!("payload crc {actual:08x} != header {crc:08x}"));
    }
    Ok(Spool {
        token,
        crc,
        payload: bytes,
    })
}

/// The writer over `<data_dir>/frames/`. The registry holds it behind one
/// mutex, so sequence numbers are assigned in the order files land.
pub struct Store {
    frames: PathBuf,
    next_seq: u64,
    degraded: Option<DegradeReason>,
}

impl Store {
    /// Whether persistence has degraded since boot, and why.
    pub fn degraded(&self) -> Option<&DegradeReason> {
        self.degraded.as_ref()
    }

    /// One-line health summary for `stats`.
    pub fn health_line(&self) -> String {
        match &self.degraded {
            Some(reason) => format!("degraded ({reason})"),
            None => format!("ok (fsync=always, seq={})", self.next_seq - 1),
        }
    }

    fn degrade(&mut self, reason: DegradeReason) {
        MetricsRegistry::global().incr(metric::SERVER_JOURNAL_IO_ERRORS);
        if self.degraded.is_none() {
            self.degraded = Some(reason);
        }
        MetricsRegistry::global()
            .counter_handle(metric::SERVER_JOURNAL_DEGRADED)
            .store(1, std::sync::atomic::Ordering::Relaxed);
    }

    /// Make a tenant directory durable (its entry in `frames/` synced).
    pub fn add_tenant(&mut self, tenant: &str) {
        if self.degraded.is_some() {
            return;
        }
        let made = std::fs::create_dir_all(self.frames.join(tenant))
            .map_err(|e| DegradeReason::Spool(e.to_string()))
            .and_then(|()| {
                fsync_dir(&self.frames).map_err(|e| DegradeReason::Fsync(e.to_string()))
            });
        match made {
            Ok(()) => MetricsRegistry::global().incr(metric::SERVER_JOURNAL_APPENDS),
            Err(reason) => self.degrade(reason),
        }
    }

    /// Store a put and return its record; `seq` is 0 when no durability can
    /// be promised, and `file` is empty when nothing was written.
    pub fn put(&mut self, tenant: &str, name: &str, payload: &[u8], token: &str) -> PutRecord {
        let crc = crc32(payload);
        let mut bytes = header(payload.len(), crc, token).into_bytes();
        bytes.extend_from_slice(payload);
        let mut rec = PutRecord {
            tenant: tenant.to_string(),
            name: name.to_string(),
            file: String::new(),
            len: payload.len() as u64,
            crc,
            token: token.to_string(),
            seq: 0,
        };
        if let Some((seq, durable)) = self.commit(tenant, name, false, &bytes) {
            rec.file = spool_rel_path(tenant, name, seq);
            rec.seq = if durable { seq } else { 0 };
        }
        rec
    }

    /// Record a drop with a tombstone; `false` when no durability can be
    /// promised (the caller then removes the dropped file itself).
    pub fn drop_frame(&mut self, tenant: &str, name: &str) -> bool {
        self.commit(tenant, name, true, &[])
            .is_some_and(|(_, durable)| durable)
    }

    /// Take the next seq and write `<name>.<seq>.{csv,drop}`: temp file,
    /// fsync, rename into place, fsync the directory; then delete the
    /// name's lower seqs. A failure before the rename removes the temp file;
    /// a failed directory fsync leaves the new file in place (after kill -9
    /// it is served). Either way the previous version stays and persistence
    /// degrades. `None` when already degraded: nothing is written.
    fn commit(
        &mut self,
        tenant: &str,
        name: &str,
        tombstone: bool,
        bytes: &[u8],
    ) -> Option<(u64, bool)> {
        if self.degraded.is_some() {
            return None;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        if crate::registry::test_flags::fsync_loss_bug() {
            self.sweep_below(tenant, name, seq);
        }
        let dir = self.frames.join(tenant);
        let file = dir.join(file_name(name, seq, tombstone));
        let tmp = dir.join(format!(".{}.tmp", file_name(name, seq, tombstone)));
        let renamed = match failpoint::hit(failpoint::names::SERVER_SPOOL) {
            Some(msg) => Err(DegradeReason::Spool(format!("injected: {msg}"))),
            None => std::fs::File::create(&tmp)
                .and_then(|mut f| f.write_all(bytes).map(|()| f))
                .map_err(|e| DegradeReason::Spool(e.to_string()))
                .and_then(|f| fsync_file(&f).map_err(|e| DegradeReason::Fsync(e.to_string())))
                .and_then(|()| {
                    std::fs::rename(&tmp, &file).map_err(|e| DegradeReason::Spool(e.to_string()))
                }),
        };
        let durable =
            renamed.and_then(|()| fsync_dir(&dir).map_err(|e| DegradeReason::Fsync(e.to_string())));
        match durable {
            Ok(()) => {
                MetricsRegistry::global().incr(metric::SERVER_JOURNAL_APPENDS);
                self.sweep_below(tenant, name, seq);
            }
            Err(reason) => {
                let _ = std::fs::remove_file(&tmp);
                self.degrade(reason);
            }
        }
        Some((seq, self.degraded.is_none()))
    }

    /// Delete a name's files below `seq`, unsynced: one that comes back
    /// after a power loss has a lower seq, and boot sweeps it.
    fn sweep_below(&self, tenant: &str, name: &str, seq: u64) {
        let dir = self.frames.join(tenant);
        for entry in std::fs::read_dir(&dir).into_iter().flatten().flatten() {
            let file = entry.file_name();
            if let Some((n, s, _)) = file.to_str().and_then(parse_file_name) {
                if n == name && s < seq {
                    let _ = std::fs::remove_file(dir.join(&file));
                }
            }
        }
    }
}

/// What boot found besides the frames: the store to write through, the
/// tenants, and notes for the boot log.
pub struct Recovered {
    pub store: Store,
    pub tenants: Vec<String>,
    pub notes: Vec<String>,
}

/// The entry names of `dir` (none if it cannot be read), sorted.
fn sorted_names(dir: &Path) -> Vec<String> {
    let mut out: Vec<String> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|e| e.file_name().into_string().ok())
        .collect();
    out.sort();
    out
}

/// List `<data_dir>/frames/`. Per name the highest seq wins if it is a
/// tombstone or a file that verifies; a file that fails is moved to
/// `quarantine/<tenant>/` and the next-older version is tried. Everything
/// below the winner, and every `*.tmp`, is swept. The next seq is one past
/// the highest under `frames/` and `quarantine/` — why a tombstone stays
/// until a later put of its name supersedes it. Each winning put is handed
/// to `serve` with its verified payload as soon as it is read. Fails only
/// when the data dir cannot be created, or when it holds an older server's
/// journal files.
pub fn recover(
    data_dir: &Path,
    mut serve: impl FnMut(PutRecord, Vec<u8>),
) -> std::io::Result<Recovered> {
    for legacy in ["journal.jsonl", "snapshot.jsonl"] {
        let path = data_dir.join(legacy);
        if path.exists() {
            return Err(std::io::Error::other(format!(
                "{} is an older server's journal, which this server does not read; \
                 move the data dir aside",
                path.display()
            )));
        }
    }
    let frames = data_dir.join("frames");
    let mut store = Store {
        frames: frames.clone(),
        next_seq: 1,
        degraded: None,
    };
    if !frames.is_dir() {
        std::fs::create_dir_all(&frames)?;
        if let Err(e) = fsync_dir(data_dir) {
            store.degrade(DegradeReason::Fsync(e.to_string()));
        }
    }
    let quarantine = data_dir.join("quarantine");
    let mut max_seq = sorted_names(&quarantine)
        .iter()
        .flat_map(|tenant| sorted_names(&quarantine.join(tenant)))
        .filter_map(|file| parse_file_name(&file).map(|(_, seq, _)| seq))
        .max()
        .unwrap_or(0);
    let mut out = Recovered {
        store,
        tenants: Vec::new(),
        notes: Vec::new(),
    };
    let mut swept = 0usize;
    for tenant in sorted_names(&frames) {
        let dir = frames.join(&tenant);
        if !dir.is_dir() {
            continue;
        }
        let files = sorted_names(&dir);
        let mut versions: BTreeMap<&str, Vec<(u64, bool)>> = BTreeMap::new();
        for file in &files {
            if file.ends_with(".tmp") {
                swept += usize::from(std::fs::remove_file(dir.join(file)).is_ok());
            } else if let Some((name, seq, tombstone)) = parse_file_name(file) {
                max_seq = max_seq.max(seq);
                versions.entry(name).or_default().push((seq, tombstone));
            }
        }
        for (name, mut versions) in versions {
            versions.sort_unstable_by(|a, b| b.cmp(a));
            let (mut won, mut unusable) = (false, None);
            for (seq, tombstone) in versions {
                let file = file_name(name, seq, tombstone);
                if won {
                    swept += usize::from(std::fs::remove_file(dir.join(&file)).is_ok());
                    continue;
                }
                if tombstone {
                    won = true;
                    continue;
                }
                match read_spool(&dir.join(&file)) {
                    Ok(spool) => {
                        if let Some(bad) = unusable {
                            out.notes.push(format!(
                                "frame {tenant}/{name}: newest put (seq {bad}) unusable; \
                                 serving previous version (seq {seq})"
                            ));
                        }
                        let rec = PutRecord {
                            tenant: tenant.clone(),
                            name: name.to_string(),
                            file: spool_rel_path(&tenant, name, seq),
                            len: spool.payload.len() as u64,
                            crc: spool.crc,
                            token: spool.token,
                            seq,
                        };
                        serve(rec, spool.payload);
                        won = true;
                    }
                    Err(reason) => {
                        let dest = quarantine.join(&tenant);
                        let moved = std::fs::create_dir_all(&dest)
                            .and_then(|()| std::fs::rename(dir.join(&file), dest.join(&file)));
                        let fate = match moved {
                            Ok(()) => {
                                MetricsRegistry::global().incr(metric::SERVER_JOURNAL_QUARANTINED);
                                "quarantined"
                            }
                            Err(_) => "left in place",
                        };
                        out.notes.push(format!(
                            "spool file {tenant}/{file} failed verification ({reason}); {fate}"
                        ));
                        unusable.get_or_insert(seq);
                    }
                }
            }
            if !won && unusable.is_some() {
                out.notes
                    .push(format!("frame {tenant}/{name} not recovered"));
            }
        }
        out.tenants.push(tenant);
    }
    if swept > 0 {
        out.notes.push(format!(
            "swept {swept} superseded or temporary spool file(s)"
        ));
    }
    out.store.next_seq = max_seq + 1;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_names_parse_from_the_right() {
        assert_eq!(parse_file_name("cars.7.csv"), Some(("cars", 7, false)));
        assert_eq!(parse_file_name("a.b.c.12.drop"), Some(("a.b.c", 12, true)));
        assert_eq!(
            parse_file_name(&file_name("v1.2", 3, false)),
            Some(("v1.2", 3, false))
        );
        for bad in [
            "cars.csv",
            ".7.csv",
            "cars.7x.csv",
            "cars.7.csv.tmp",
            "cars.7.txt",
        ] {
            assert_eq!(parse_file_name(bad), None, "{bad}");
        }
    }

    #[test]
    fn header_damage_anywhere_is_caught() {
        let dir = std::env::temp_dir().join(format!("lux_spool_hdr_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("f.1.csv");
        let payload = b"a,b\n1,2\n";
        let mut bytes = header(payload.len(), crc32(payload), "tok-1").into_bytes();
        bytes.extend_from_slice(payload);
        std::fs::write(&path, &bytes).unwrap();
        let spool = read_spool(&path).unwrap();
        assert_eq!(
            (spool.token.as_str(), &spool.payload[..]),
            ("tok-1", &payload[..])
        );
        for at in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[at] ^= 0x04;
            std::fs::write(&path, &flipped).unwrap();
            assert!(read_spool(&path).is_err(), "flip at byte {at} not caught");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
