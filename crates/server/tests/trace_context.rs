//! End-to-end request-context tests: a client-supplied request id must be
//! visible in every server-side artifact — the pass-summary JSONL line,
//! the echoed shed frame, the flight recorder (pin + spooled Chrome dump)
//! — and the per-tenant SLO series must be scrapeable over the wire
//! (`Request::Metrics`).
//!
//! Both tests hold a `World` for their whole run: one arms a
//! one-shot admission refusal, and a sibling's print must neither consume
//! it nor be refused by it (nor re-point the process-global flight spool
//! mid-test).

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use lux_engine::failpoint;
use lux_engine::world::World;
use lux_engine::FlightRecorder;
use lux_server::{Client, PrintOutcome, Server, ServerConfig};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lux_trace_ctx_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn csv(rows: usize) -> String {
    let mut out = String::from("mpg,hp,origin\n");
    for i in 0..rows {
        out.push_str(&format!(
            "{:.1},{},{}\n",
            10.0 + (i % 30) as f64,
            50 + (i * 7) % 200,
            ["usa", "japan", "europe"][i % 3]
        ));
    }
    out
}

fn start_server(dir: &PathBuf) -> (String, Arc<AtomicBool>, std::thread::JoinHandle<usize>) {
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        data_dir: dir.clone(),
        read_timeout: Duration::from_secs(5),
        write_timeout: Duration::from_secs(5),
        drain_timeout: Duration::from_millis(3_000),
        max_conns: 16,
    };
    let server = Server::bind(cfg).expect("bind");
    let addr = server.local_addr().to_string();
    let shutdown = server.shutdown_handle();
    let handle = std::thread::spawn(move || server.run().expect("run"));
    (addr, shutdown, handle)
}

fn stop_server(shutdown: &Arc<AtomicBool>, handle: std::thread::JoinHandle<usize>) {
    shutdown.store(true, Ordering::SeqCst);
    let _ = handle.join();
}

#[test]
fn request_id_flows_into_jsonl_shed_echo_flight_and_metrics() {
    let world = World::enter();
    let dir = tmp_dir("full");
    // Pin the flight spool to this test's dir regardless of which test in
    // this binary bound a server first (the recorder is process-global).
    let flight_dir = dir.join("flight");
    FlightRecorder::global().set_spool(&flight_dir);
    let (addr, shutdown, handle) = start_server(&dir);

    let mut c = Client::connect(&addr, Duration::from_secs(10)).expect("connect");
    c.hello("t-obs").unwrap();
    c.put_frame("cars", &csv(200)).unwrap();

    // 1. A client-supplied request id on a served print lands in the
    //    server-side pass-summary JSONL, attributed to the tenant.
    match c.print_traced("cars", "", 0, 1, "req-e2e-42").unwrap() {
        PrintOutcome::Widget(w) => assert!(!w.was_shed()),
        other => panic!("unexpected outcome {other:?}"),
    }
    let log = std::fs::read_to_string(dir.join("server.log.jsonl")).expect("server log");
    let summary_line = log
        .lines()
        .find(|l| l.contains("pass-summary") && l.contains("req-e2e-42"))
        .unwrap_or_else(|| panic!("no pass-summary line with req-e2e-42 in:\n{log}"));
    assert!(
        summary_line.contains("t-obs"),
        "summary line not tenant-attributed: {summary_line}"
    );

    // 2. A deterministically shed print echoes the request id back in the
    //    Busy frame and logs an attributed pass-summary for the shed too.
    world
        .arm(failpoint::names::ADMISSION_ACQUIRE, "1*return")
        .unwrap();
    let outcome = c.print_traced("cars", "", 0, 1, "req-shed-7").unwrap();
    world.disarm(failpoint::names::ADMISSION_ACQUIRE);
    match outcome {
        PrintOutcome::Busy { reason, trace } => {
            assert_eq!(trace, "req-shed-7", "shed must echo the request id");
            assert!(!reason.is_empty());
        }
        other => panic!("expected shed, got {other:?}"),
    }
    let log = std::fs::read_to_string(dir.join("server.log.jsonl")).expect("server log");
    assert!(
        log.lines()
            .any(|l| l.contains("pass-summary") && l.contains("req-shed-7")),
        "shed pass-summary missing from:\n{log}"
    );

    // 3. The shed is a flight-recorder anomaly: pinned (visible in the
    //    wire-fetched table) and dumped to the spool as Chrome JSON.
    let flight_text = c.flight().expect("flight over the wire");
    assert!(
        flight_text.contains("req-shed-7") && flight_text.contains("shed"),
        "flight table missing the pinned shed:\n{flight_text}"
    );
    let dumps: Vec<PathBuf> = std::fs::read_dir(&flight_dir)
        .expect("flight spool dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("flight-") && n.contains("shed"))
        })
        .collect();
    assert!(!dumps.is_empty(), "no shed dump in {flight_dir:?}");
    let dump = std::fs::read_to_string(&dumps[0]).expect("read dump");
    assert!(
        dump.trim_start().starts_with('[') && dump.trim_end().ends_with(']'),
        "dump is not a Chrome event array: {dump}"
    );
    assert!(
        dump.contains("\"ph\": \"X\"") && dump.contains("req-shed-7"),
        "dump lost the request id: {dump}"
    );

    // 4. Per-tenant SLO series are scrapeable over the wire.
    let body = c.metrics().expect("metrics over the wire");
    for needle in [
        "lux_tenant_requests{tenant=\"t-obs\"}",
        "lux_tenant_sheds{tenant=\"t-obs\"}",
        "lux_tenant_pass_latency_seconds{tenant=\"t-obs\",quantile=\"0.5\"}",
        "lux_tenant_pass_latency_seconds{tenant=\"t-obs\",quantile=\"0.99\"}",
        "lux_tenant_queue_wait_seconds_count{tenant=\"t-obs\"}",
    ] {
        assert!(body.contains(needle), "missing {needle} in:\n{body}");
    }

    stop_server(&shutdown, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn server_mints_trace_ids_when_client_sends_none() {
    let _world = World::enter();
    let dir = tmp_dir("minted");
    let (addr, shutdown, handle) = start_server(&dir);
    let mut c = Client::connect(&addr, Duration::from_secs(10)).expect("connect");
    c.hello("t-mint").unwrap();
    c.put_frame("cars", &csv(50)).unwrap();
    match c.print("cars", "", 0, 1).unwrap() {
        PrintOutcome::Widget(w) => assert!(!w.was_shed()),
        other => panic!("unexpected outcome {other:?}"),
    }
    let log = std::fs::read_to_string(dir.join("server.log.jsonl")).expect("server log");
    assert!(
        log.lines()
            .any(|l| l.contains("pass-summary") && l.contains("srv-")),
        "no server-minted trace id in:\n{log}"
    );
    stop_server(&shutdown, handle);
    let _ = std::fs::remove_dir_all(&dir);
}
