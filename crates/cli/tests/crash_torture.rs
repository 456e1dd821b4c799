//! Randomized kill -9 torture for the durable-state stack.
//!
//! Each cycle boots a real `lux-shell serve` process over a shared data
//! dir, hammers it with puts from a writer thread (every ack recorded with
//! its seq), kill -9s the server at a random instant, restarts it, and
//! asserts the three invariants the spool directory promises:
//!
//! 1. **Every acked put is served after restart** — for each name, the
//!    recovered frame exists and its row count is at least the last acked
//!    put's (an un-acked later put may have been applied; an acked one may
//!    never be lost). Acks with `seq == 0` (degraded persistence — e.g.
//!    the `io.fsync=return` CI mode) explicitly carry no durability
//!    promise and are exempted.
//! 2. **No corrupt frame is ever served** — every recovered frame prints,
//!    and its served shape matches what `StatFrame` reports.
//! 3. **Recovery is bounded and reported** — the boot log carries a
//!    `recovery completed in N ms` note, and N stays under a generous
//!    ceiling.
//!
//! The run is seeded (`LUX_TORTURE_SEED`) and sized (`LUX_TORTURE_CYCLES`,
//! default 5 locally; CI runs 50) so failures reproduce. The server is
//! spawned on a Unix socket so restarts keep the same address and the
//! reconnecting client can ride across them.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use lux_server::{Client, PrintOutcome};

/// Maximum tolerated spool listing + verify time after a crash.
const RECOVERY_CEILING_MS: u64 = 30_000;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lux_torture_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Deterministic xorshift64 so every failure reproduces from its seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

/// Spawn `lux-shell serve` on `addr` over `data_dir`, wait for the ready
/// marker, and return the child.
fn spawn_server(data_dir: &Path, addr: &str, log: &Path) -> Child {
    let log_file = std::fs::File::create(log).unwrap();
    let child = Command::new(env!("CARGO_BIN_EXE_lux-shell"))
        .arg("serve")
        .arg(addr)
        .env("LUX_SERVER_DATA_DIR", data_dir)
        .env("LUX_READ_TIMEOUT_MS", "300")
        .env("LUX_DRAIN_TIMEOUT_MS", "2000")
        .stdout(Stdio::from(log_file))
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn lux-shell serve");
    let deadline = Instant::now() + Duration::from_secs(20);
    while !std::fs::read_to_string(log)
        .unwrap_or_default()
        .contains("lux-serve: ready")
    {
        assert!(Instant::now() < deadline, "server never became ready");
        std::thread::sleep(Duration::from_millis(20));
    }
    child
}

/// A CSV whose data-row count encodes the put's identity, so the served
/// shape proves which put survived.
fn csv_with_rows(rows: u64) -> String {
    let mut s = String::from("a,b\n");
    for i in 0..rows {
        s.push_str(&format!("{i},{}\n", i * 2));
    }
    s
}

/// The last *acked* put per name: (rows, seq). seq 0 = ack without a
/// durability promise (degraded persistence).
type AckedState = Arc<Mutex<std::collections::BTreeMap<String, (u64, u64)>>>;

#[test]
fn kill_nine_torture_loses_no_acked_put_and_serves_no_corrupt_frame() {
    let cycles = env_u64("LUX_TORTURE_CYCLES", 5);
    // Seed precedence: LUX_TORTURE_SEED > LUX_TEST_SEED (the shared
    // test-replay knob, DESIGN.md §15) > ambient entropy.
    let seed = env_u64(
        "LUX_TORTURE_SEED",
        env_u64("LUX_TEST_SEED", {
            let t = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos() as u64)
                .unwrap_or(1);
            t ^ ((std::process::id() as u64) << 32) | 1
        }),
    );
    eprintln!(
        "crash torture: {cycles} cycle(s), seed {seed} \
         (replay with LUX_TEST_SEED={seed} or LUX_TORTURE_SEED={seed})"
    );
    let mut rng = Rng(seed | 1);

    let dir = tmp_dir("kill9");
    let addr = format!("unix:{}", dir.join("sock").display());
    let acked: AckedState = Arc::new(Mutex::new(Default::default()));
    // Rows counter rises monotonically across the whole run, so every put
    // is distinguishable by shape and "newer" always means "more rows".
    let mut next_rows = 1u64;
    let mut worst_recovery_ms = 0u64;

    for cycle in 0..cycles {
        let log = dir.join(format!("serve_{cycle}.log"));
        let mut child = spawn_server(&dir, &addr, &log);

        // Writer: hammer puts over ~4 hot names until the server dies or
        // the cycle stops it. Acks are recorded only after the response
        // frame is fully read — the definition of "acked".
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let addr = addr.clone();
            let acked = Arc::clone(&acked);
            let stop = Arc::clone(&stop);
            let base_rows = next_rows;
            std::thread::spawn(move || {
                let Ok(mut c) = Client::connect(&addr, Duration::from_secs(2)) else {
                    return 0u64;
                };
                if c.hello("torture").is_err() {
                    return 0;
                }
                let mut rows = base_rows;
                while !stop.load(Ordering::Relaxed) {
                    let name = format!("f{}", rows % 4);
                    match c.put_frame_durable(&name, &csv_with_rows(rows)) {
                        Ok(ack) => {
                            assert_eq!(ack.rows, rows, "server acked a different shape");
                            acked.lock().unwrap().insert(name, (rows, ack.seq));
                            rows += 1;
                        }
                        // Transport death = the kill landed; anything else
                        // (RetryUnsafe after a failed settle) also ends the
                        // cycle — the un-acked put is allowed either way.
                        Err(_) => break,
                    }
                }
                rows
            })
        };

        // Let the writer run, then kill -9 at a random instant.
        std::thread::sleep(Duration::from_millis(rng.range(5, 80)));
        child.kill().expect("kill -9");
        let _ = child.wait();
        stop.store(true, Ordering::Relaxed);
        next_rows = writer.join().expect("writer thread").max(next_rows);

        // Restart over the same data dir and verify the invariants.
        let log2 = dir.join(format!("recover_{cycle}.log"));
        let mut child2 = spawn_server(&dir, &addr, &log2);

        // Invariant 3 — recovery reported and bounded. The note lands in
        // the JSONL session log inside the data dir.
        let session_log = std::fs::read_to_string(dir.join("server.log.jsonl")).unwrap_or_default();
        let recovery_ms = session_log
            .lines()
            .rev()
            .find_map(|l| {
                let at = l.find("recovery completed in ")?;
                l[at + "recovery completed in ".len()..]
                    .split_whitespace()
                    .next()?
                    .parse::<u64>()
                    .ok()
            })
            .expect("recovery time note in the session log");
        assert!(
            recovery_ms < RECOVERY_CEILING_MS,
            "cycle {cycle}: recovery took {recovery_ms} ms"
        );
        worst_recovery_ms = worst_recovery_ms.max(recovery_ms);

        let mut c = Client::connect(&addr, Duration::from_secs(5)).expect("connect after restart");
        c.hello("torture").expect("hello after restart");
        let served = c.list_frames().expect("list after restart");
        let snapshot = acked.lock().unwrap().clone();
        for (name, (rows, seq)) in &snapshot {
            if *seq == 0 {
                continue; // acked without a durability promise
            }
            // Invariant 1 — the acked put (or a newer one) is served.
            assert!(
                served.contains(name),
                "cycle {cycle}: acked put {name:?} (rows {rows}, seq {seq}) lost after restart; \
                 served = {served:?}, seed {seed}"
            );
            let stat = c
                .stat_frame(name)
                .expect("stat after restart")
                .unwrap_or_else(|| panic!("cycle {cycle}: {name:?} listed but not stat-able"));
            assert!(
                stat.rows >= *rows,
                "cycle {cycle}: {name:?} went backwards: acked rows {rows}, served {}, seed {seed}",
                stat.rows
            );
            // Invariant 2 — what is served is intact: the frame prints and
            // its served shape matches the stat.
            match c.print(name, "", 0, 1).expect("print after restart") {
                PrintOutcome::Widget(w) => assert_eq!(
                    w.num_rows as u64, stat.rows,
                    "cycle {cycle}: {name:?} served a shape different from its stat"
                ),
                PrintOutcome::Busy { .. } => {} // shed, not corrupt
                PrintOutcome::Error(code, msg) => {
                    panic!("cycle {cycle}: {name:?} failed to serve: {code:?} {msg}")
                }
            }
        }
        // Persistence health is always *visible*, whatever state it is in.
        let stats = c.stats().expect("stats after restart");
        assert!(
            stats.contains("journal:"),
            "stats must surface journal health:\n{stats}"
        );

        child2.kill().expect("kill cycle server");
        let _ = child2.wait();
    }
    eprintln!("crash torture: {cycles} cycle(s) ok, worst recovery {worst_recovery_ms} ms");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_spool_is_quarantined_not_served_after_restart() {
    let dir = tmp_dir("quarantine");
    let addr = format!("unix:{}", dir.join("sock").display());
    let log = dir.join("serve.log");
    let mut child = spawn_server(&dir, &addr, &log);

    let mut c = Client::connect(&addr, Duration::from_secs(5)).expect("connect");
    c.hello("t1").expect("hello");
    c.put_frame("cars", &csv_with_rows(6)).expect("put cars");
    c.put_frame("intact", &csv_with_rows(3))
        .expect("put intact");
    child.kill().expect("kill -9");
    let _ = child.wait();

    // Flip one digit inside the spooled payload. The damaged CSV still
    // parses — only the spool header's checksum can catch it. Spool files
    // are versioned by seq, so locate the live one by prefix.
    let spool = std::fs::read_dir(dir.join("frames/t1"))
        .expect("spool dir")
        .flatten()
        .map(|e| e.path())
        .find(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("cars."))
        })
        .expect("spooled cars file");
    let mut bytes = std::fs::read(&spool).expect("spool file");
    let pos = bytes.iter().rposition(|&b| b == b'4').expect("a digit");
    bytes[pos] = b'5';
    std::fs::write(&spool, &bytes).unwrap();

    let log2 = dir.join("recover.log");
    let mut child2 = spawn_server(&dir, &addr, &log2);
    let mut c = Client::connect(&addr, Duration::from_secs(5)).expect("reconnect");
    c.hello("t1").expect("hello after restart");
    assert_eq!(
        c.list_frames().expect("list"),
        vec!["intact".to_string()],
        "the corrupt frame must not be served"
    );
    assert!(c.stat_frame("cars").expect("stat").is_none());
    // The quarantine is visible: the file moved, the metric counted, and
    // the boot note says so.
    assert!(
        !spool.exists(),
        "corrupt spool must be moved out of the way"
    );
    assert!(dir.join("quarantine").exists());
    let metrics = c.metrics().expect("metrics");
    assert!(
        metrics.contains("lux_server_journal_quarantined_frames 1"),
        "quarantine must be counted:\n{metrics}"
    );
    let session_log = std::fs::read_to_string(dir.join("server.log.jsonl")).unwrap_or_default();
    assert!(
        session_log.contains("quarantined"),
        "boot log must report the quarantine"
    );

    child2.kill().expect("kill");
    let _ = child2.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn watch_client_rides_across_a_server_restart() {
    let dir = tmp_dir("watch");
    let addr = format!("unix:{}", dir.join("sock").display());
    let log = dir.join("serve.log");
    let mut child = spawn_server(&dir, &addr, &log);

    let mut c = Client::connect(&addr, Duration::from_secs(5)).expect("connect");
    c.hello("t1").expect("hello");
    c.put_frame("cars", &csv_with_rows(4)).expect("put");
    child.kill().expect("kill -9");
    let _ = child.wait();

    // Restart on the same socket path; the *same* client object must ride
    // over the restart: reconnect, replay Hello, retry the read.
    let log2 = dir.join("recover.log");
    let mut child2 = spawn_server(&dir, &addr, &log2);
    let names = c
        .list_frames()
        .expect("list after restart on the old client");
    assert_eq!(names, vec!["cars".to_string()]);

    child2.kill().expect("kill");
    let _ = child2.wait();
    let _ = std::fs::remove_dir_all(&dir);
}
