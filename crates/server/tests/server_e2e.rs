//! End-to-end tests against a live in-process server: the full request
//! surface, protocol-error recovery, drain semantics, deadline
//! propagation, and admission-slot release when a client dies mid-request.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lux_engine::trace::{names as metric, MetricsRegistry};
use lux_engine::AdmissionController;
use lux_server::protocol::{self, msg};
use lux_server::{Client, ErrorCode, PrintOutcome, Request, Response, Server, ServerConfig};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lux_srv_e2e_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn csv(rows: usize) -> String {
    let mut out = String::from("mpg,hp,weight,origin\n");
    for i in 0..rows {
        out.push_str(&format!(
            "{:.1},{},{},{}\n",
            10.0 + (i % 30) as f64,
            50 + (i * 7) % 200,
            1500 + (i * 13) % 3000,
            ["usa", "japan", "europe"][i % 3]
        ));
    }
    out
}

/// Start a server on an ephemeral port with a private data dir. Returns
/// the address, a shutdown handle, the run-thread join handle, and the
/// data dir (so tests can restart over the same journal).
fn start_server(dir: &PathBuf) -> (String, Arc<AtomicBool>, std::thread::JoinHandle<usize>) {
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        data_dir: dir.clone(),
        read_timeout: Duration::from_millis(500),
        write_timeout: Duration::from_millis(500),
        drain_timeout: Duration::from_millis(3_000),
        max_conns: 64,
    };
    let server = Server::bind(cfg).expect("bind");
    let addr = server.local_addr().to_string();
    let shutdown = server.shutdown_handle();
    let handle = std::thread::spawn(move || server.run().expect("run"));
    (addr, shutdown, handle)
}

fn stop_server(shutdown: &Arc<AtomicBool>, handle: std::thread::JoinHandle<usize>) -> usize {
    shutdown.store(true, Ordering::SeqCst);
    handle.join().expect("server thread")
}

fn connect(addr: &str) -> Client {
    Client::connect(addr, Duration::from_secs(10)).expect("connect")
}

#[test]
fn full_request_surface_roundtrips() {
    let dir = tmp_dir("surface");
    let (addr, shutdown, handle) = start_server(&dir);
    let mut c = connect(&addr);
    assert!(!c.hello("t1").unwrap());
    c.ping().unwrap();
    let (rows, cols, fp) = c.put_frame("cars", &csv(50)).unwrap();
    assert_eq!((rows, cols), (50, 4));
    assert!(fp > 0);
    // Plain print.
    match c.print("cars", "", 0, 1).unwrap() {
        PrintOutcome::Widget(w) => {
            assert_eq!(w.num_rows, 50);
            assert!(!w.tabs.is_empty(), "expected recommendation tabs");
            assert!(w.lux_view.contains("==="));
        }
        other => panic!("unexpected outcome {other:?}"),
    }
    // Intent print on the same uploaded frame (upload once, print many).
    match c.print("cars", "mpg,hp", 0, 1).unwrap() {
        PrintOutcome::Widget(w) => {
            assert!(w.tabs.iter().any(|t| t == "Current Vis" || t == "Enhance"));
        }
        other => panic!("unexpected outcome {other:?}"),
    }
    assert_eq!(c.list_frames().unwrap(), vec!["cars".to_string()]);
    let stats = c.stats().unwrap();
    assert!(stats.contains("tenants: 1"), "stats was: {stats}");
    assert!(c.drop_frame("cars").unwrap());
    assert!(!c.drop_frame("cars").unwrap());
    // Typed errors: unknown frame, bad name, missing hello.
    match c.print("cars", "", 0, 1).unwrap() {
        PrintOutcome::Error(ErrorCode::UnknownFrame, _) => {}
        other => panic!("unexpected outcome {other:?}"),
    }
    assert!(c.put_frame("../escape", "a\n1\n").is_err());
    let mut fresh = connect(&addr);
    match fresh
        .request(&Request::ListFrames)
        .expect("transport should survive")
    {
        Response::Error {
            code: ErrorCode::Protocol,
            message,
            ..
        } => assert!(message.contains("Hello"), "message: {message}"),
        other => panic!("unexpected response {other:?}"),
    }
    assert_eq!(stop_server(&shutdown, handle), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deadline_propagates_to_server_pass() {
    let dir = tmp_dir("deadline");
    let (addr, shutdown, handle) = start_server(&dir);
    let mut c = connect(&addr);
    c.hello("t-deadline").unwrap();
    c.put_frame("big", &csv(2000)).unwrap();
    // A generous deadline serves a widget.
    match c.print("big", "", 60_000, 1).unwrap() {
        PrintOutcome::Widget(w) => assert!(!w.was_shed()),
        other => panic!("unexpected outcome {other:?}"),
    }
    // A 1ms deadline either sheds (deadline exhausted after the admission
    // wait) or — on a memo hit — returns instantly; both are well-formed.
    match c.print("big", "", 1, 1).unwrap() {
        PrintOutcome::Busy { reason, .. } => {
            assert!(
                reason.contains("deadline") || reason.contains("no slot"),
                "reason: {reason}"
            );
        }
        PrintOutcome::Widget(_) => {}
        other => panic!("unexpected outcome {other:?}"),
    }
    assert_eq!(stop_server(&shutdown, handle), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn garbage_bytes_get_typed_error_and_server_survives() {
    let dir = tmp_dir("garbage");
    let (addr, shutdown, handle) = start_server(&dir);
    // Raw garbage: server must answer a typed error (or just close) and
    // keep serving other clients.
    {
        let mut raw = TcpStream::connect(&addr).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        raw.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        let mut buf = Vec::new();
        let _ = raw.read_to_end(&mut buf); // server closes after the error
        if !buf.is_empty() {
            // If we got bytes back, they parse as an Error frame.
            let frame = protocol::read_frame(&mut buf.as_slice()).expect("well-formed error");
            assert_eq!(frame.msg_type, msg::ERROR);
        }
    }
    // CRC corruption is recoverable: same connection keeps working.
    {
        let mut raw = TcpStream::connect(&addr).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut frame = Vec::new();
        protocol::write_frame(&mut frame, msg::PING, 9, b"").unwrap();
        let last = frame.len() - 1;
        frame[last] ^= 0xFF; // corrupt the CRC itself
        raw.write_all(&frame).unwrap();
        let err = read_one_frame(&mut raw);
        assert_eq!(err.msg_type, msg::ERROR);
        // Stream is still aligned: a clean ping on the same socket works.
        let mut ok = Vec::new();
        protocol::write_frame(&mut ok, msg::PING, 10, b"").unwrap();
        raw.write_all(&ok).unwrap();
        let pong = read_one_frame(&mut raw);
        assert_eq!(pong.msg_type, msg::PONG);
        assert_eq!(pong.request_id, 10);
    }
    // Oversized length prefix: typed error, no huge allocation, close.
    {
        let mut raw = TcpStream::connect(&addr).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut hdr = Vec::new();
        hdr.extend_from_slice(b"LX");
        hdr.push(protocol::PROTOCOL_VERSION);
        hdr.push(msg::PING);
        hdr.extend_from_slice(&1u32.to_le_bytes());
        hdr.extend_from_slice(&u32::MAX.to_le_bytes());
        raw.write_all(&hdr).unwrap();
        let err = read_one_frame(&mut raw);
        assert_eq!(err.msg_type, msg::ERROR);
    }
    // Slowloris: half a frame, then silence. The read timeout reaps the
    // connection (the blocking read below returns when the server closes
    // it) and counts it.
    {
        let timeouts0 = MetricsRegistry::global().counter(metric::SERVER_TIMEOUTS);
        let mut raw = TcpStream::connect(&addr).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut frame = Vec::new();
        protocol::write_frame(&mut frame, msg::PING, 11, &[0u8; 32]).unwrap();
        raw.write_all(&frame[..frame.len() / 2]).unwrap();
        let mut buf = Vec::new();
        let _ = raw.read_to_end(&mut buf);
        assert!(MetricsRegistry::global().counter(metric::SERVER_TIMEOUTS) > timeouts0);
    }
    // The server is still healthy.
    let mut c = connect(&addr);
    c.ping().unwrap();
    assert_eq!(stop_server(&shutdown, handle), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

fn read_one_frame(stream: &mut TcpStream) -> protocol::Frame {
    protocol::read_frame(stream).expect("frame")
}

#[test]
fn dead_client_mid_request_releases_admission_state() {
    let dir = tmp_dir("deadclient");
    let (addr, shutdown, handle) = start_server(&dir);
    let mut c = connect(&addr);
    c.hello("t-dead").unwrap();
    c.put_frame("cars", &csv(500)).unwrap();
    // Send a print request and slam the connection shut without reading
    // the response — the kill(-9)-the-client scenario. The server-side
    // pass must complete (or fail its write) and release its admission
    // slot and ledger bytes.
    {
        let mut raw = TcpStream::connect(&addr).unwrap();
        let (t, p) = Request::Hello {
            tenant: "t-dead".to_string(),
        }
        .encode();
        protocol::write_frame(&mut raw, t, 1, &p).unwrap();
        let _ = read_one_frame(&mut raw); // ack hello
        let (t, p) = Request::Print {
            name: "cars".to_string(),
            intent: String::new(),
            deadline_ms: 0,
            per_tab: 1,
            trace: String::new(),
        }
        .encode();
        protocol::write_frame(&mut raw, t, 2, &p).unwrap();
        drop(raw); // client dies mid-request
    }
    // Within the read timeout (plus compute slack) every slot and ledger
    // byte must be back.
    let ctl = AdmissionController::global();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = ctl.stats();
        if stats.live_sessions == 0 && stats.ledger_live == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "admission state not released: {} live, {} ledger bytes",
            stats.live_sessions,
            stats.ledger_live
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    // Server still serves.
    let mut c2 = connect(&addr);
    c2.hello("t-dead").unwrap();
    match c2.print("cars", "", 0, 1).unwrap() {
        PrintOutcome::Widget(w) => assert_eq!(w.num_rows, 500),
        other => panic!("unexpected outcome {other:?}"),
    }
    assert_eq!(stop_server(&shutdown, handle), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_request_drains_and_new_work_is_refused() {
    let dir = tmp_dir("drain");
    let (addr, shutdown, handle) = start_server(&dir);
    let mut c = connect(&addr);
    c.hello("t-drain").unwrap();
    c.put_frame("cars", &csv(20)).unwrap();
    c.shutdown().unwrap();
    // The run loop observes the flag and drains; in-flight count is 0.
    assert_eq!(handle.join().expect("server thread"), 0);
    drop(shutdown);
    // The listener is gone: new connections are refused (allow a beat for
    // the OS to tear the socket down).
    std::thread::sleep(Duration::from_millis(100));
    assert!(TcpStream::connect(&addr).is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn journal_replay_restores_frames_across_restart() {
    let dir = tmp_dir("replay");
    // First life: upload two frames, drop one, no clean shutdown protocol
    // beyond process exit.
    {
        let (addr, shutdown, handle) = start_server(&dir);
        let mut c = connect(&addr);
        c.hello("t-replay").unwrap();
        c.put_frame("keep", &csv(30)).unwrap();
        c.put_frame("gone", &csv(10)).unwrap();
        c.drop_frame("gone").unwrap();
        stop_server(&shutdown, handle);
    }
    // Second life over the same data dir: the journal replays.
    {
        let (addr, shutdown, handle) = start_server(&dir);
        let mut c = connect(&addr);
        c.hello("t-replay").unwrap();
        assert_eq!(c.list_frames().unwrap(), vec!["keep".to_string()]);
        match c.print("keep", "", 0, 1).unwrap() {
            PrintOutcome::Widget(w) => assert_eq!(w.num_rows, 30),
            other => panic!("unexpected outcome {other:?}"),
        }
        stop_server(&shutdown, handle);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unix_socket_transport_works() {
    let dir = tmp_dir("unix");
    let sock = dir.join("lux.sock");
    let cfg = ServerConfig {
        addr: format!("unix:{}", sock.display()),
        data_dir: dir.clone(),
        read_timeout: Duration::from_millis(500),
        write_timeout: Duration::from_millis(500),
        drain_timeout: Duration::from_millis(2_000),
        max_conns: 8,
    };
    let server = Server::bind(cfg).expect("bind unix");
    let addr = server.local_addr().to_string();
    let shutdown = server.shutdown_handle();
    let handle = std::thread::spawn(move || server.run().expect("run"));
    let mut c = connect(&addr);
    c.hello("t-unix").unwrap();
    c.put_frame("cars", &csv(10)).unwrap();
    match c.print("cars", "", 0, 1).unwrap() {
        PrintOutcome::Widget(w) => assert_eq!(w.num_rows, 10),
        other => panic!("unexpected outcome {other:?}"),
    }
    shutdown.store(true, Ordering::SeqCst);
    handle.join().expect("server thread");
    let _ = std::fs::remove_dir_all(&dir);
}
