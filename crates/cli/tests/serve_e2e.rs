//! Binary-level crash-tolerance tests for `lux-shell serve`: SIGTERM
//! drains and exits cleanly; `kill -9` loses nothing that was acked — a
//! restarted server rebuilds its state from the spool directory and serves
//! the same frames.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use lux_server::{Client, PrintOutcome};

const CSV: &str = "mpg,hp,origin\n18.0,130,usa\n24.0,95,japan\n27.0,88,japan\n14.0,220,usa\n";

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lux_serve_e2e_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Spawn `lux-shell serve` on an ephemeral port over `data_dir`, wait for
/// the ready marker, and return the child plus the resolved address.
fn spawn_server(data_dir: &Path, log: &Path) -> (Child, String) {
    let log_file = std::fs::File::create(log).unwrap();
    let child = Command::new(env!("CARGO_BIN_EXE_lux-shell"))
        .arg("serve")
        .arg("127.0.0.1:0")
        .env("LUX_SERVER_DATA_DIR", data_dir)
        .env("LUX_READ_TIMEOUT_MS", "300")
        .env("LUX_DRAIN_TIMEOUT_MS", "3000")
        .stdout(Stdio::from(log_file))
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn lux-shell serve");
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let text = std::fs::read_to_string(log).unwrap_or_default();
        if text.contains("lux-serve: ready") {
            let addr = text
                .lines()
                .find_map(|l| l.strip_prefix("lux-serve: listening on "))
                .expect("listening line")
                .trim()
                .to_string();
            return (child, addr);
        }
        assert!(Instant::now() < deadline, "server never became ready");
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn connect(addr: &str) -> Client {
    Client::connect(addr, Duration::from_secs(10)).expect("connect")
}

#[test]
fn sigterm_drains_and_exits_zero() {
    let dir = tmp_dir("sigterm");
    let log = dir.join("serve.log");
    let (mut child, addr) = spawn_server(&dir, &log);

    let mut c = connect(&addr);
    assert!(!c.hello("t1").expect("hello"));
    c.put_frame("cars", CSV).expect("put");
    // Leave the connection open and idle: drain must still complete
    // because idle readers hang up once draining flips.
    let status = Command::new("kill")
        .args(["-s", "TERM", &child.id().to_string()])
        .status()
        .expect("kill -s TERM");
    assert!(status.success());
    let deadline = Instant::now() + Duration::from_secs(15);
    let code = loop {
        if let Some(st) = child.try_wait().expect("try_wait") {
            break st;
        }
        assert!(
            Instant::now() < deadline,
            "server did not exit after SIGTERM"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(code.success(), "SIGTERM exit was {code:?}");
    let text = std::fs::read_to_string(&log).unwrap_or_default();
    assert!(
        text.contains("drained"),
        "expected a drain line in the log, got:\n{text}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kill_nine_then_restart_replays_journal() {
    let dir = tmp_dir("kill9");
    let log1 = dir.join("serve1.log");
    let (mut child, addr) = spawn_server(&dir, &log1);

    let mut c = connect(&addr);
    c.hello("t1").expect("hello");
    c.put_frame("cars", CSV).expect("put cars");
    c.put_frame("gone", CSV).expect("put gone");
    assert!(c.drop_frame("gone").expect("drop"));
    match c.print("cars", "mpg,hp", 0, 2).expect("print") {
        PrintOutcome::Widget(w) => assert_eq!(w.num_rows, 4),
        other => panic!("unexpected outcome before kill: {other:?}"),
    }
    // Hard kill: no drain, no shutdown protocol, the spool directory must carry it.
    child.kill().expect("kill -9");
    let _ = child.wait();

    let log2 = dir.join("serve2.log");
    let (mut child2, addr2) = spawn_server(&dir, &log2);
    let mut c2 = connect(&addr2);
    c2.hello("t1").expect("hello after restart");
    assert_eq!(
        c2.list_frames().expect("list"),
        vec!["cars".to_string()],
        "recovery should restore `cars` and honour the drop of `gone`"
    );
    match c2.print("cars", "", 0, 2).expect("print after restart") {
        PrintOutcome::Widget(w) => {
            assert_eq!(w.num_rows, 4);
            assert!(!w.was_shed());
        }
        other => panic!("unexpected outcome after restart: {other:?}"),
    }
    // Clean shutdown of the second life via the wire protocol.
    c2.shutdown().expect("shutdown");
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        if child2.try_wait().expect("try_wait").is_some() {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "server did not exit after Shutdown"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn client_subcommand_round_trips_against_a_live_server() {
    let dir = tmp_dir("clientcmd");
    let log = dir.join("serve.log");
    let (mut child, addr) = spawn_server(&dir, &log);
    let csv_path = dir.join("cars.csv");
    std::fs::write(&csv_path, CSV).unwrap();

    let run = |args: &[&str]| -> (bool, String) {
        let out = Command::new(env!("CARGO_BIN_EXE_lux-shell"))
            .arg("client")
            .arg(&addr)
            .args(args)
            .output()
            .expect("run client");
        let mut text = String::from_utf8_lossy(&out.stdout).to_string();
        text.push_str(&String::from_utf8_lossy(&out.stderr));
        (out.status.success(), text)
    };

    let (ok, text) = run(&["ping"]);
    assert!(ok && text.contains("pong"), "ping: {text}");
    let (ok, text) = run(&["put", "t1", "cars", csv_path.to_str().unwrap()]);
    assert!(ok && text.contains("stored cars"), "put: {text}");
    let (ok, text) = run(&["print", "t1", "cars", "mpg,hp"]);
    assert!(ok && text.contains("Current Vis"), "print: {text}");
    assert!(!text.contains("$schema"), "print carries no export: {text}");
    let (ok, text) = run(&["vega", "t1", "cars", "mpg,hp"]);
    assert!(
        ok && text.starts_with("[{\"action\": \"Current Vis\"") && text.contains("$schema"),
        "vega: {text:.200}"
    );
    let (ok, text) = run(&["vega", "t1", "nope"]);
    assert!(!ok && text.contains("UnknownFrame"), "vega nope: {text}");
    let (ok, text) = run(&["list", "t1"]);
    assert!(ok && text.contains("cars"), "list: {text}");
    let (ok, text) = run(&["stats"]);
    assert!(ok && text.contains("frames: 1"), "stats: {text}");
    assert!(
        text.contains("fsync=always"),
        "stats names the fsync policy: {text}"
    );
    // Observability surface: Prometheus exposition over the wire, the
    // flight-recorder table, and a bounded `top` watch round.
    let (ok, text) = run(&["metrics"]);
    assert!(
        ok && text.contains("# TYPE") && text.contains("lux_tenant_requests"),
        "metrics: {text}"
    );
    let (ok, text) = run(&["flight"]);
    assert!(ok && text.contains("flight recorder"), "flight: {text}");
    let (ok, text) = run(&["top", "100", "1"]);
    assert!(
        ok && text.contains("lux-top") && text.contains("flight recorder"),
        "top: {text}"
    );

    child.kill().expect("kill");
    let _ = child.wait();
    let _ = std::fs::remove_dir_all(&dir);
}
