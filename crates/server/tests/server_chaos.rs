//! Failpoint chaos against a live server: injected faults at every
//! `server.*` failpoint site degrade exactly one request (or one
//! connection, or persistence) and never the process. A single test
//! function cycles the sites sequentially under one `FailScope`.
//!
//! CI runs this binary twice: once clean, and once with
//! `LUX_FAILPOINTS=server.journal=return` so the env-driven path (armed by
//! `failpoint::init` inside `Server::bind`, after the scope cleared the
//! table) is exercised too. Every assertion below holds in both modes.

use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::time::Duration;

use lux_engine::failpoint::{self, names};
use lux_engine::trace::{names as metric, MetricsRegistry};
use lux_server::{Client, PrintOutcome, Server, ServerConfig};

const CSV: &str = "mpg,hp,origin\n18.0,130,usa\n24.0,95,japan\n27.0,88,japan\n14.0,220,usa\n";

#[test]
fn injected_faults_degrade_one_request_never_the_server() {
    let fp = failpoint::scope();
    let metrics = MetricsRegistry::global();
    let failures0 = metrics.counter(metric::SERVER_JOURNAL_FAILURES);
    let degraded0 = metrics.counter(metric::SERVER_JOURNAL_DEGRADED);
    let dir: PathBuf = std::env::temp_dir().join(format!("lux_chaos_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        data_dir: dir.clone(),
        read_timeout: Duration::from_millis(500),
        write_timeout: Duration::from_millis(500),
        drain_timeout: Duration::from_millis(2_000),
        max_conns: 32,
    })
    .expect("bind");
    let addr = server.local_addr().to_string();
    let shutdown = server.shutdown_handle();
    let handle = std::thread::spawn(move || server.run().expect("run"));
    let connect = || Client::connect(&addr, Duration::from_secs(5)).expect("connect");

    // Phase 1 — server.read: the handler dies before reading, exactly like
    // a connection that went away. The client sees a dead socket on that
    // attempt — and, being idempotent, reconnects and retries: a one-shot
    // fault is absorbed entirely client-side.
    fp.arm(names::SERVER_READ, "1*return").unwrap();
    let mut faulted = connect();
    faulted
        .ping()
        .expect("reconnecting client absorbs a one-shot read fault");
    let mut c = connect();
    c.ping().expect("server healthy after read fault");

    // Phase 2 — server.write: the response write is dropped and the
    // connection closed. Same story: the retry rides over it.
    fp.arm(names::SERVER_WRITE, "1*return").unwrap();
    let mut faulted = connect();
    faulted
        .ping()
        .expect("reconnecting client absorbs a one-shot write fault");
    let mut c = connect();
    c.ping().expect("server healthy after write fault");

    // Phase 3 — server.journal: persistence degrades, service does not.
    // Requests keep succeeding and stats report the degradation honestly.
    fp.arm(names::SERVER_JOURNAL, "2*return").unwrap();
    let mut c = connect();
    c.hello("t-chaos").expect("hello");
    let (rows, _, _) = c
        .put_frame("cars", CSV)
        .expect("put survives journal fault");
    assert_eq!(rows, 4);
    match c.print("cars", "", 0, 1).expect("print") {
        PrintOutcome::Widget(w) => assert_eq!(w.num_rows, 4),
        other => panic!("unexpected outcome {other:?}"),
    }
    let stats = c.stats().expect("stats");
    assert!(
        stats.contains("journal: degraded"),
        "stats should report degraded persistence, got:\n{stats}"
    );
    assert!(metrics.counter(metric::SERVER_JOURNAL_FAILURES) > failures0);
    assert!(metrics.counter(metric::SERVER_JOURNAL_DEGRADED) > degraded0);

    drop(fp);
    shutdown.store(true, Ordering::SeqCst);
    handle.join().expect("server thread");
    let _ = std::fs::remove_dir_all(&dir);
}
