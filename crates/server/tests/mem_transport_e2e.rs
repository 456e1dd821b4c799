//! End-to-end exercise of the simulated in-memory transport (DESIGN.md
//! §15): the full client/server protocol over `mem:` addresses, with
//! seeded transport faults (partial writes, injected latency, connection
//! resets) driving the client's reconnect and idempotent-put machinery,
//! and a restart proving every durably-acked put survives.
//!
//! These tests run on the real clock — the mem transport's read timeout
//! is measured on `lux_engine::clock`, which tracks wall time unless the
//! simulation harness enables virtual mode.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use lux_server::mem::{set_fault_plans, FaultPlan};
use lux_server::{Client, ClientError, ErrorCode, PrintOutcome, Server, ServerConfig};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lux_mem_e2e_{tag}_{}", std::process::id()));
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

fn start_server(addr: &str, dir: &PathBuf) -> (Arc<AtomicBool>, std::thread::JoinHandle<usize>) {
    start_server_with(addr, dir, Duration::from_millis(500))
}

fn start_server_with(
    addr: &str,
    dir: &Path,
    read_timeout: Duration,
) -> (Arc<AtomicBool>, std::thread::JoinHandle<usize>) {
    let cfg = ServerConfig {
        addr: addr.to_string(),
        data_dir: dir.to_path_buf(),
        read_timeout,
        write_timeout: Duration::from_millis(500),
        drain_timeout: Duration::from_millis(3_000),
        max_conns: 64,
    };
    let server = Server::bind(cfg).expect("bind mem listener");
    assert_eq!(server.local_addr(), addr);
    let shutdown = server.shutdown_handle();
    let handle = std::thread::spawn(move || server.run().expect("run"));
    (shutdown, handle)
}

fn stop_server(shutdown: &Arc<AtomicBool>, handle: std::thread::JoinHandle<usize>) {
    shutdown.store(true, Ordering::SeqCst);
    handle.join().expect("server thread");
}

#[test]
fn mem_transport_serves_the_full_request_surface() {
    let addr = "mem:e2e_surface";
    let dir = tmp_dir("surface");
    let (shutdown, handle) = start_server(addr, &dir);

    // A second bind of the same in-memory name must be refused.
    let dup = Server::bind(ServerConfig {
        addr: addr.to_string(),
        data_dir: tmp_dir("surface_dup"),
        ..ServerConfig::default()
    });
    assert!(dup.is_err(), "duplicate mem bind must fail");

    let mut c = Client::connect(addr, Duration::from_secs(10)).expect("connect");
    assert!(!c.hello("t1").unwrap());
    c.ping().unwrap();
    let (rows, cols, fp) = c.put_frame("cars", &csv(40)).unwrap();
    assert_eq!((rows, cols), (40, 3));
    assert!(fp > 0);
    match c.print("cars", "", 0, 1).unwrap() {
        PrintOutcome::Widget(w) => assert_eq!(w.num_rows, 40),
        other => panic!("expected widget, got {other:?}"),
    }
    assert_eq!(c.list_frames().unwrap(), vec!["cars".to_string()]);
    assert!(c.drop_frame("cars").unwrap());

    stop_server(&shutdown, handle);
    // The listener unregisters on drain; fresh dials must now fail.
    assert!(
        Client::connect(addr, Duration::from_secs(1)).is_err(),
        "drained mem listener must refuse connections"
    );
}

/// The action names of a grouped Vega-Lite export, in document order.
fn export_actions(json: &str) -> Vec<&str> {
    json.split("{\"action\": \"")
        .skip(1)
        .filter_map(|rest| rest.split('"').next())
        .collect()
}

#[test]
fn vega_lite_export_is_its_own_op_and_matches_the_print() {
    let addr = "mem:e2e_vega";
    let dir = tmp_dir("vega");
    // A long idle timeout: the connections below must outlive the drain.
    let (shutdown, handle) = start_server_with(addr, &dir, Duration::from_secs(30));
    // A refused export carries the same typed code the refused print does.
    let refusal = |c: &mut Client, name: &str| {
        let print_code = match c.print(name, "", 0, 1).unwrap() {
            PrintOutcome::Error(code, _) => code,
            other => panic!("expected a typed print error, got {other:?}"),
        };
        match c.vega_lite(name, "") {
            Err(ClientError::Server(code, _)) => assert_eq!(code, print_code),
            other => panic!("expected a typed server error, got {other:?}"),
        }
        print_code
    };

    let mut anon = Client::connect(addr, Duration::from_secs(10)).expect("connect");
    assert_eq!(refusal(&mut anon, "cars"), ErrorCode::Protocol, "no Hello");

    let mut c = Client::connect(addr, Duration::from_secs(10)).expect("connect");
    c.hello("t1").unwrap();
    c.put_frame("cars", &csv(60)).unwrap();
    for intent in ["", "mpg"] {
        let tabs = match c.print("cars", intent, 0, 1).unwrap() {
            PrintOutcome::Widget(w) => w.tabs,
            other => panic!("expected widget, got {other:?}"),
        };
        assert!(!tabs.is_empty());
        let json = c.vega_lite("cars", intent).expect("export");
        assert!(json.starts_with('[') && json.ends_with(']'), "{json:.80}");
        assert!(json.contains("\"$schema\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(export_actions(&json), tabs, "intent {intent:?}");
    }
    assert_eq!(refusal(&mut c, "nope"), ErrorCode::UnknownFrame);

    // Draining: the open connection is still answered, with a refusal.
    shutdown.store(true, Ordering::SeqCst);
    handle.join().expect("server thread");
    assert_eq!(refusal(&mut c, "cars"), ErrorCode::Draining);
}

/// Last durable ack per frame name: (rows, seq).
type Acked = std::collections::BTreeMap<&'static str, (u64, u64)>;

#[test]
fn seeded_faults_never_lose_a_durably_acked_put() {
    let addr = "mem:e2e_faulty";
    let dir = tmp_dir("faulty");
    let (shutdown, handle) = start_server(addr, &dir);

    // Seeded fault plans on both directions: short writes exercise the
    // write_all loops, resets exercise reconnect + token-probe puts, and
    // a little latency shakes out ordering assumptions. Probabilities
    // are per mille; the seeds make the roll sequence replayable.
    set_fault_plans(
        addr.strip_prefix("mem:").unwrap(),
        Some(FaultPlan {
            seed: 0xD15EA5E,
            drop_per_mille: 0,
            partial_per_mille: 250,
            reset_per_mille: 8,
            max_latency: Duration::from_millis(1),
        }),
        Some(FaultPlan {
            seed: 0xFA117,
            drop_per_mille: 0,
            partial_per_mille: 300,
            reset_per_mille: 12,
            max_latency: Duration::from_millis(1),
        }),
    );

    let names: [&'static str; 3] = ["alpha", "beta", "gamma"];
    let mut acked: Acked = Acked::new();
    let mut transport_errors = 0usize;
    let mut client: Option<Client> = None;
    for round in 0..30usize {
        let c = match client.as_mut() {
            Some(c) => c,
            None => match Client::connect(addr, Duration::from_secs(5)) {
                Ok(mut c) => {
                    let _ = c.hello("t1");
                    client = Some(c);
                    client.as_mut().unwrap()
                }
                Err(_) => {
                    transport_errors += 1;
                    continue;
                }
            },
        };
        let name = names[round % names.len()];
        let rows = 10 + round as u64;
        match c.put_frame_durable(name, &csv(rows as usize)) {
            Ok(ack) => {
                assert_eq!(ack.rows, rows, "ack echoes the uploaded shape");
                if ack.seq > 0 {
                    acked.insert(name, (rows, ack.seq));
                }
            }
            Err(e) if e.is_transport() || matches!(e, ClientError::RetryUnsafe(_)) => {
                // Legal under injected resets: the put is in doubt, the
                // client refused to clobber. Drop the poisoned client.
                transport_errors += 1;
                client = None;
            }
            Err(e) => panic!("round {round}: unexpected client error: {e:?}"),
        }
    }
    eprintln!(
        "mem fault e2e: {} durable ack(s), {transport_errors} transport error(s)",
        acked.len()
    );
    assert!(!acked.is_empty(), "fault plan starved every put of an ack");

    // Heal the transport and verify from a fresh connection: for every
    // durable ack the server must hold that version or a newer one, and
    // an equal seq must mean byte-identical shape.
    set_fault_plans(
        addr.strip_prefix("mem:").unwrap(),
        Some(FaultPlan::clean(1)),
        Some(FaultPlan::clean(2)),
    );
    let verify = |c: &mut Client, acked: &Acked| {
        for (name, (rows, seq)) in acked {
            let stat = c
                .stat_frame(name)
                .expect("stat after heal")
                .unwrap_or_else(|| panic!("durably acked frame {name:?} vanished"));
            assert!(
                stat.seq >= *seq,
                "{name:?}: server seq {} went behind acked seq {seq}",
                stat.seq
            );
            if stat.seq == *seq {
                assert_eq!(stat.rows, *rows, "{name:?}: acked shape mutated in place");
            }
        }
    };
    let mut c = Client::connect(addr, Duration::from_secs(10)).expect("post-heal connect");
    let _ = c.hello("t1");
    verify(&mut c, &acked);
    drop(c);

    // Restart over the same journal: every durable ack must survive.
    stop_server(&shutdown, handle);
    let (shutdown, handle) = start_server(addr, &dir);
    let mut c = Client::connect(addr, Duration::from_secs(10)).expect("post-restart connect");
    let _ = c.hello("t1");
    verify(&mut c, &acked);
    drop(c);
    stop_server(&shutdown, handle);
}
