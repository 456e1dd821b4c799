//! The ISSUE acceptance drill: 32 concurrent clients against a server
//! whose admission controller has only 2 slots. No panic, no deadlock, and
//! every single request ends in exactly one of: a rendered widget, a typed
//! error, or a well-formed shed (`Busy`) response. Afterwards the
//! admission ledger and session slots are fully released.
//!
//! This file is its own test binary so it can pin the process-global
//! admission controller to 2 slots via env *before* anything initializes
//! it — do not add tests here that want a different admission config.

use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use lux_engine::AdmissionController;
use lux_server::{Client, PrintOutcome, Server, ServerConfig};

fn make_csv(rows: usize, cols: usize, seed: u64) -> String {
    let mut out = String::new();
    for c in 0..cols {
        if c > 0 {
            out.push(',');
        }
        out.push_str(&format!("c{c}"));
    }
    out.push('\n');
    let mut state = seed | 1;
    for _ in 0..rows {
        for c in 0..cols {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            if c > 0 {
                out.push(',');
            }
            out.push_str(&format!("{}", state % 1_000));
        }
        out.push('\n');
    }
    out
}

#[test]
fn thirty_two_clients_against_two_slots() {
    // Must run before AdmissionController::global() is first touched; this
    // binary holds only this test, so nothing has raced us to it.
    std::env::set_var("LUX_MAX_SESSIONS", "2");
    std::env::set_var("LUX_ADMIT_TIMEOUT_MS", "300");
    let ctl = AdmissionController::global();
    assert_eq!(
        ctl.config().max_sessions,
        2,
        "admission controller must see the 2-slot config"
    );

    let dir: PathBuf = std::env::temp_dir().join(format!("lux_robust_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        data_dir: dir.clone(),
        read_timeout: Duration::from_secs(5),
        write_timeout: Duration::from_secs(5),
        drain_timeout: Duration::from_secs(3),
        max_conns: 64,
    })
    .expect("bind");
    let addr = server.local_addr().to_string();
    let shutdown = server.shutdown_handle();
    let server_thread = std::thread::spawn(move || server.run().expect("run"));

    const CLIENTS: usize = 32;
    const PRINTS: usize = 3;
    let handles: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(&addr, Duration::from_secs(60)).expect("connect");
                c.hello(&format!("tenant-{}", i % 4)).expect("hello");
                let csv = make_csv(600, 6, i as u64 * 13 + 7);
                let name = format!("frame-{i}");
                c.put_frame(&name, &csv).expect("put");
                let mut widgets = 0usize;
                let mut sheds = 0usize;
                let mut typed_errors = 0usize;
                for k in 0..PRINTS {
                    // Half the prints carry a tight deadline so the
                    // deadline-shed path is exercised under contention too.
                    let deadline_ms = if k % 2 == 0 { 0 } else { 40 };
                    match c.print(&name, "c0", deadline_ms, 1).expect("print rpc") {
                        PrintOutcome::Widget(w) => {
                            if w.was_shed() {
                                sheds += 1;
                            } else {
                                assert_eq!(w.num_rows, 600);
                                widgets += 1;
                            }
                        }
                        PrintOutcome::Busy { reason, .. } => {
                            assert!(!reason.is_empty(), "shed must carry a reason");
                            sheds += 1;
                        }
                        PrintOutcome::Error(code, message) => {
                            assert!(!message.is_empty(), "typed error must carry a message");
                            let _ = code;
                            typed_errors += 1;
                        }
                    }
                }
                (widgets, sheds, typed_errors)
            })
        })
        .collect();

    let mut widgets = 0usize;
    let mut sheds = 0usize;
    let mut typed_errors = 0usize;
    for h in handles {
        let (w, s, e) = h.join().expect("client thread panicked");
        widgets += w;
        sheds += s;
        typed_errors += e;
    }
    assert_eq!(
        widgets + sheds + typed_errors,
        CLIENTS * PRINTS,
        "every request must resolve to widget, shed, or typed error"
    );
    assert!(widgets > 0, "some prints must actually succeed");

    // All admission state drains once the burst is over.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = ctl.stats();
        if stats.live_sessions == 0 && stats.ledger_live == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "admission state leaked after burst: {} live sessions, {} ledger bytes",
            stats.live_sessions,
            stats.ledger_live
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    // The server itself is still healthy and drains cleanly.
    let mut c = Client::connect(&addr, Duration::from_secs(10)).expect("post-burst connect");
    c.ping().expect("post-burst ping");
    shutdown.store(true, Ordering::SeqCst);
    server_thread.join().expect("server thread");
    let _ = std::fs::remove_dir_all(&dir);
    println!("widgets={widgets} sheds={sheds} typed_errors={typed_errors}");
}
