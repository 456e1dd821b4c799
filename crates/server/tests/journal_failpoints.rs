//! The journal and registry tests that arm failpoints, in a binary of
//! their own: the failpoint table is process-global, so a counted action
//! such as `2*off->1*return` on `io.fsync` is eaten by any sibling test
//! that fsyncs concurrently. Every test here holds a `failpoint::scope`,
//! and no non-arming test shares the process.

use std::path::{Path, PathBuf};

use lux_engine::failpoint::{self, names as fp};
use lux_engine::trace::{names as metric, MetricsRegistry};
use lux_server::journal::{
    replay, spool_rel_path, Append, DegradeReason, FsyncPolicy, Journal, JournalConfig, PutRecord,
    SnapshotState,
};
use lux_server::Registry;

const CSV: &str = "mpg,hp,origin\n18.0,130,usa\n24.0,95,japan\n27.0,88,japan\n14.0,220,usa\n";
/// A distinguishable second payload (5 rows to CSV's 4).
const CSV2: &str =
    "mpg,hp,origin\n18.0,130,usa\n24.0,95,japan\n27.0,88,japan\n14.0,220,usa\n31.0,65,japan\n";

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lux_jfail_{tag}_{}", std::process::id()));
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

fn always() -> JournalConfig {
    JournalConfig {
        fsync: FsyncPolicy::Always,
        ..JournalConfig::default()
    }
}

#[test]
fn journal_failpoint_degrades_but_does_not_fail() {
    let chaos = failpoint::scope();
    let dir = tmp_dir("failpoint");
    let mut j = open(&dir);
    chaos.arm(fp::SERVER_JOURNAL, "1*return").unwrap();
    assert_eq!(j.record_tenant("t1"), None); // swallowed by the failpoint
    assert!(matches!(j.degraded(), Some(DegradeReason::Append(_))));
    chaos.disarm(fp::SERVER_JOURNAL);
    // Sticky all the way down: once degraded, nothing more is
    // appended, so acks carrying seq 0 and the health flag agree.
    assert_eq!(j.record_tenant("t2"), None);
    assert!(j.degraded().is_some());
    drop(j);
    let r = replay(&dir);
    assert!(r.tenants.is_empty(), "degraded journal appends nothing");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fsync_failpoint_degrades_under_always_policy() {
    let chaos = failpoint::scope();
    let dir = tmp_dir("fsyncfail");
    let mut j = Journal::open(&dir, always(), 0).unwrap();
    let io_errors0 = MetricsRegistry::global().counter(metric::SERVER_JOURNAL_IO_ERRORS);
    chaos.arm(fp::IO_FSYNC, "2*return").unwrap();
    assert_eq!(j.record_tenant("t1"), None);
    assert!(matches!(j.degraded(), Some(DegradeReason::Fsync(_))));
    assert!(MetricsRegistry::global().counter(metric::SERVER_JOURNAL_IO_ERRORS) > io_errors0);
    chaos.disarm(fp::IO_FSYNC);
    // The line itself was written before the failed fsync — replay
    // still sees it; only the durability *promise* was withdrawn.
    drop(j);
    let r = replay(&dir);
    assert_eq!(r.tenants, vec!["t1".to_string()]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fsync_failure_is_written_not_lost() {
    let chaos = failpoint::scope();
    // The distinction put_frame's spool cleanup rides on: a put whose
    // journal line landed but whose fsync failed WILL replay, so the
    // caller must learn the record exists (and keep its spool file).
    let dir = tmp_dir("written");
    let mut j = Journal::open(&dir, always(), 0).unwrap();
    chaos.arm(fp::IO_FSYNC, "1*return").unwrap();
    let out = j.record_put(&put("t1", "cars", 10));
    chaos.disarm(fp::IO_FSYNC);
    assert!(matches!(out, Append::Written(seq) if seq > 0), "{out:?}");
    assert_eq!(out.durable(), None, "no durability promised");
    assert!(matches!(j.degraded(), Some(DegradeReason::Fsync(_))));
    drop(j);
    let r = replay(&dir);
    assert_eq!(r.frames.len(), 1, "the written record replays");
    assert_eq!(r.frames[0].seq, out.written().unwrap());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_failpoint_degrades_compaction() {
    let chaos = failpoint::scope();
    let dir = tmp_dir("snapfail");
    let mut j = open(&dir);
    j.record_put(&put("t1", "cars", 1));
    chaos.arm(fp::SERVER_SNAPSHOT, "1*return").unwrap();
    j.compact(&SnapshotState::default());
    chaos.disarm(fp::SERVER_SNAPSHOT);
    assert!(matches!(j.degraded(), Some(DegradeReason::Compact(_))));
    // The journal was left untouched.
    let r = replay(&dir);
    assert_eq!(r.frames.len(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fsync_failure_on_overwrite_never_loses_the_frame() {
    let chaos = failpoint::scope();
    // Regression for a data-loss bug: an overwrite put whose journal
    // line landed but whose fsync failed had its spool file deleted
    // as if the record were never written. On the next boot the
    // written record replayed, superseded the previous acked version,
    // failed spool verification (file gone), and the orphan sweep
    // then destroyed the previous version's bytes too.
    let dir = tmp_dir("fsyncloss");
    let (reg, _) = Registry::recover_with_config(&dir, None, always()).unwrap();
    let first = reg.put_frame("t1", "cars", CSV, "tok-1").unwrap();
    assert!(first.seq > 0, "first put is acked durable");
    // Fail exactly the overwrite's *journal* fsync: the first two
    // io.fsync hits are its spool file + directory syncs.
    chaos.arm(fp::IO_FSYNC, "2*off->1*return").unwrap();
    let second = reg.put_frame("t1", "cars", CSV2, "tok-2").unwrap();
    chaos.disarm(fp::IO_FSYNC);
    assert_eq!(second.seq, 0, "no durability promised");
    assert!(reg.journal_degraded());
    // Both spool versions must still be on disk: the written record
    // references the new one, and if its un-synced journal line were
    // lost to power failure, replay would fall back to the old one.
    assert!(dir.join(&first.file).exists(), "prior acked bytes kept");
    assert!(dir.join(&second.file).exists(), "journaled bytes kept");
    drop(reg);
    // kill -9 semantics: the written line survives, so the newer
    // payload is served; nothing was lost, nothing quarantined.
    let (reg, notes) = Registry::recover(&dir).unwrap();
    let entry = reg.get("t1", "cars").expect("frame must survive");
    assert_eq!(entry.rows, 5, "the written put's payload is served");
    assert_eq!(entry.token, "tok-2");
    assert!(
        !notes.iter().any(|n| n.contains("not recovered")),
        "{notes:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn spool_failpoint_degrades_but_serves_from_memory() {
    let chaos = failpoint::scope();
    let dir = tmp_dir("spoolfail");
    let (reg, _) = Registry::recover(&dir).unwrap();
    chaos.arm(fp::SERVER_SPOOL, "1*return").unwrap();
    let entry = reg.put_frame("t1", "cars", CSV, "tok").unwrap();
    chaos.disarm(fp::SERVER_SPOOL);
    assert_eq!(entry.seq, 0, "no durability promised");
    assert!(reg.journal_degraded());
    assert!(reg.journal_health().contains("degraded"));
    // Still fully servable from memory.
    let w = entry.print("", "t1", None, 1, "").unwrap();
    assert_eq!(w.num_rows, 4);
    let _ = std::fs::remove_dir_all(&dir);
}
