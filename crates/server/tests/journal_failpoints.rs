//! The registry tests that arm failpoints, in a binary of their own: the
//! failpoint table is process-global, so a counted action such as
//! `1*off->1*return` on `io.fsync` is eaten by any sibling test that fsyncs
//! concurrently. Every test here holds a `World`, and no non-arming test
//! shares the process.
//!
//! Each case fails one step of an overwrite put, then checks what the ack
//! promised, which files exist, and what a restart serves.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use lux_engine::failpoint::names as fp;
use lux_engine::trace::{names as metric, MetricsRegistry};
use lux_engine::world::World;
use lux_server::registry::FrameEntry;
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

/// The files of tenant `t1`'s spool directory, sorted.
fn files(dir: &Path) -> Vec<String> {
    let mut out: Vec<String> = std::fs::read_dir(dir.join("frames/t1"))
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    out.sort();
    out
}

/// Put `cars` durably, then overwrite it with `failpoint=action` armed.
/// Checks the shared contract — the overwrite is acked with seq 0,
/// persistence degrades and counts an I/O error, and the new version is
/// still served from memory — and returns both entries and the registry.
fn overwrite_with(
    world: &World,
    dir: &Path,
    failpoint: &str,
    action: &str,
) -> (Arc<FrameEntry>, Arc<FrameEntry>, Registry) {
    let (reg, _) = Registry::recover(dir).unwrap();
    let first = reg.put_frame("t1", "cars", CSV, "tok-1").unwrap();
    assert_eq!(first.seq, 1, "the first put is acked durable");
    let io_errors0 = MetricsRegistry::global().counter(metric::SERVER_JOURNAL_IO_ERRORS);
    world.arm(failpoint, action).unwrap();
    let second = reg.put_frame("t1", "cars", CSV2, "tok-2").unwrap();
    world.disarm(failpoint);
    assert_eq!(second.seq, 0, "no durability promised");
    assert!(reg.journal_degraded());
    assert!(reg.journal_health().contains("degraded"));
    assert!(MetricsRegistry::global().counter(metric::SERVER_JOURNAL_IO_ERRORS) > io_errors0);
    let w = second.print("", "t1", None, 1, "").unwrap();
    assert_eq!(w.num_rows, 5, "served from memory");
    (first, second, reg)
}

/// Restart over `dir` and return the rows and token served for `cars`.
fn restart(dir: &Path) -> (u64, String) {
    let (reg, _) = Registry::recover(dir).unwrap();
    let entry = reg.get("t1", "cars").expect("cars survives the restart");
    (entry.rows, entry.token.clone())
}

#[test]
fn spool_failure_acks_seq_zero_and_keeps_the_old_version() {
    let world = World::enter();
    let dir = tmp_dir("spool");
    let (first, _, reg) = overwrite_with(&world, &dir, fp::SERVER_SPOOL, "1*return");
    assert_eq!(
        files(&dir),
        vec![first.file.trim_start_matches("frames/t1/")]
    );
    drop(reg);
    assert_eq!(restart(&dir), (4, "tok-1".to_string()));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn file_fsync_failure_acks_seq_zero_and_keeps_the_old_version() {
    let world = World::enter();
    let dir = tmp_dir("filefsync");
    let (first, _, reg) = overwrite_with(&world, &dir, fp::IO_FSYNC, "1*return");
    assert_eq!(
        files(&dir),
        vec![first.file.trim_start_matches("frames/t1/")],
        "the temp file is removed, the old version kept"
    );
    drop(reg);
    assert_eq!(restart(&dir), (4, "tok-1".to_string()));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dir_fsync_failure_keeps_both_versions_and_a_restart_serves_the_new_one() {
    let world = World::enter();
    let dir = tmp_dir("dirfsync");
    let (_, second, reg) = overwrite_with(&world, &dir, fp::IO_FSYNC, "1*off->1*return");
    // The new file is in place, so a kill -9 serves it; its directory
    // entry was never synced, so a power loss may serve the old one.
    assert_eq!(files(&dir), vec!["cars.1.csv", "cars.2.csv"]);
    assert_eq!(second.file, "frames/t1/cars.2.csv");
    // Degraded is sticky: a later put writes nothing.
    let third = reg.put_frame("t1", "other", CSV, "").unwrap();
    assert_eq!((third.seq, third.file.as_str()), (0, ""));
    drop(reg);
    assert_eq!(restart(&dir), (5, "tok-2".to_string()));
    assert_eq!(
        files(&dir),
        vec!["cars.2.csv"],
        "boot sweeps the old version"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
