//! `lux-shell serve` / `lux-shell client` — the long-lived recommendation
//! server and a one-shot command-line client for it.
//!
//! ```sh
//! lux-shell serve [addr]                  # serve until SIGTERM / shutdown
//! lux-shell client <addr> <cmd> [...]     # one request, exit code reports it
//! ```
//!
//! The serve loop installs a SIGTERM handler: on signal the listener stops
//! accepting, `Hello` answers `draining: true`, in-flight passes finish (up
//! to `LUX_DRAIN_TIMEOUT_MS`), then the process exits 0.

use std::time::Duration;

use lux_server::{Client, ClientError, PrintOutcome, Server, ServerConfig};

const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

/// Run the server until shutdown; returns a process exit code.
pub fn run_serve(args: &[String]) -> i32 {
    lux_engine::failpoint::init();
    let mut cfg = ServerConfig::from_env();
    if let Some(addr) = args.first() {
        cfg.addr = addr.clone();
    }
    lux_server::install_signal_handlers();
    let server = match Server::bind(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("lux-serve: bind failed: {e}");
            return 2;
        }
    };
    println!("lux-serve: listening on {}", server.local_addr());
    // Tests and scripts wait for this marker before connecting.
    println!("lux-serve: ready");
    match server.run() {
        Ok(0) => {
            println!("lux-serve: drained cleanly");
            0
        }
        Ok(leftover) => {
            eprintln!("lux-serve: drain timeout with {leftover} request(s) in flight");
            0
        }
        Err(e) => {
            eprintln!("lux-serve: {e}");
            2
        }
    }
}

/// Parse optional `[interval-ms] [rounds]` watch arguments (shared by the
/// `top` and `flight` watch modes). `None` = bad arguments, reported.
fn parse_watch_args(tail: &[String]) -> Option<(u64, u64)> {
    let interval_ms = match tail.first().map(|s| s.parse::<u64>()) {
        None => 1_000,
        Some(Ok(v)) => v.max(50),
        Some(Err(_)) => {
            eprintln!("lux-client: bad interval {:?} (want milliseconds)", tail[0]);
            return None;
        }
    };
    let rounds = match tail.get(1).map(|s| s.parse::<u64>()) {
        None => u64::MAX,
        Some(Ok(v)) => v,
        Some(Err(_)) => {
            eprintln!("lux-client: bad round count {:?}", tail[1]);
            return None;
        }
    };
    Some((interval_ms, rounds))
}

/// A reconnecting watch loop: render every `interval_ms`, forever or for
/// `rounds` iterations. A transport failure does not exit the watch — the
/// client reconnects with backoff and the loop keeps going (a failed
/// attempt counts as a round, so bounded runs always terminate). Only
/// server-side typed errors end the loop.
fn watch_loop(
    label: &str,
    addr: &str,
    interval_ms: u64,
    rounds: u64,
    mut render: impl FnMut() -> Result<String, ClientError>,
) -> Result<i32, ClientError> {
    let mut round = 0u64;
    loop {
        round += 1;
        match render() {
            Ok(text) => {
                if rounds == u64::MAX {
                    // Redraw in place on an interactive watch; a bounded
                    // run (scripts, tests) streams plainly.
                    print!("\x1b[2J\x1b[H");
                }
                println!("{label}: {addr} (round {round})\n");
                println!("{text}");
            }
            Err(e) if e.is_transport() => {
                eprintln!("{label}: {e}; reconnecting...");
            }
            Err(e) => {
                eprintln!("{label}: {e}");
                return Err(e);
            }
        }
        if round >= rounds {
            return Ok(0);
        }
        std::thread::sleep(Duration::from_millis(interval_ms));
    }
}

/// Run one client command; returns a process exit code.
///
/// Commands: `ping`, `stats`, `metrics`, `flight [interval-ms] [rounds]`,
/// `top [interval-ms] [rounds]`, `shutdown`, `list <tenant>`,
/// `put <tenant> <name> <csv-path>`, `drop <tenant> <name>`,
/// `print <tenant> <name> [intent] [deadline-ms] [trace-id]`,
/// `vega <tenant> <name> [intent]`.
pub fn run_client(args: &[String]) -> i32 {
    let usage = "usage: lux-shell client <addr> \
                 ping|stats|metrics|flight|top|shutdown|list|put|drop|print|vega [...]";
    let (addr, rest) = match args.split_first() {
        Some((a, r)) if !r.is_empty() => (a.as_str(), r),
        _ => {
            eprintln!("{usage}");
            return 2;
        }
    };
    let mut client = match Client::connect(addr, CLIENT_TIMEOUT) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("lux-client: connect {addr}: {e}");
            return 2;
        }
    };
    let cmd = rest[0].as_str();
    let args = &rest[1..];
    let outcome: Result<i32, ClientError> = match (cmd, args) {
        ("ping", []) => client.ping().map(|()| {
            println!("pong");
            0
        }),
        ("stats", []) => client.stats().map(|s| {
            println!("{s}");
            0
        }),
        ("metrics", []) => client.metrics().map(|s| {
            print!("{s}");
            0
        }),
        // `flight` — one-shot with no extra args, or a reconnecting watch
        // of the flight recorder with `[interval-ms] [rounds]`.
        ("flight", []) => client.flight().map(|s| {
            println!("{s}");
            0
        }),
        ("flight", tail) if tail.len() <= 2 => {
            let Some((interval_ms, rounds)) = parse_watch_args(tail) else {
                return 2;
            };
            watch_loop("lux-flight", addr, interval_ms, rounds, || client.flight())
        }
        // `top` — a lux-top-style watch loop: redraw stats + the flight
        // recorder every `interval-ms` (default 1000), forever or for a
        // bounded number of rounds (handy for scripts and tests). Survives
        // a server restart: the loop reconnects instead of exiting.
        ("top", tail) if tail.len() <= 2 => {
            let Some((interval_ms, rounds)) = parse_watch_args(tail) else {
                return 2;
            };
            watch_loop("lux-top", addr, interval_ms, rounds, || {
                let s = client.stats()?;
                let f = client.flight()?;
                Ok(format!("{s}\n{f}"))
            })
        }
        ("shutdown", []) => client.shutdown().map(|()| {
            println!("shutting down");
            0
        }),
        ("list", [tenant]) => client.hello(tenant).and_then(|_| {
            client.list_frames().map(|names| {
                for n in &names {
                    println!("{n}");
                }
                0
            })
        }),
        ("put", [tenant, name, path]) => {
            let csv = match std::fs::read_to_string(path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("lux-client: read {path}: {e}");
                    return 2;
                }
            };
            client.hello(tenant).and_then(|_| {
                client.put_frame_durable(name, &csv).map(|ack| {
                    println!(
                        "stored {name}: {} rows x {} cols (fingerprint {:016x}, journal seq {})",
                        ack.rows, ack.cols, ack.fingerprint, ack.seq
                    );
                    if ack.seq == 0 {
                        eprintln!(
                            "lux-client: warning: server persistence is degraded; \
                                   the frame is served from memory only"
                        );
                    }
                    0
                })
            })
        }
        ("drop", [tenant, name]) => client.hello(tenant).and_then(|_| {
            client.drop_frame(name).map(|existed| {
                println!("{}", if existed { "dropped" } else { "not found" });
                if existed {
                    0
                } else {
                    1
                }
            })
        }),
        ("print", [tenant, name, tail @ ..]) if tail.len() <= 3 => {
            let intent = tail.first().map(String::as_str).unwrap_or("");
            let deadline_ms = match tail.get(1) {
                Some(d) => match d.parse::<u64>() {
                    Ok(v) => v,
                    Err(_) => {
                        eprintln!("lux-client: bad deadline {d:?} (want milliseconds)");
                        return 2;
                    }
                },
                None => 0,
            };
            let trace = tail.get(2).map(String::as_str).unwrap_or("");
            client.hello(tenant).and_then(|draining| {
                if draining {
                    eprintln!("lux-client: note: server is draining");
                }
                client
                    .print_traced(name, intent, deadline_ms, 3, trace)
                    .map(|out| match out {
                        PrintOutcome::Widget(w) => {
                            println!("{}", w.render());
                            0
                        }
                        PrintOutcome::Busy { reason, trace } => {
                            eprintln!("lux-client: shed [{trace}]: {reason}");
                            3
                        }
                        PrintOutcome::Error(code, message) => {
                            eprintln!("lux-client: error ({code:?}): {message}");
                            1
                        }
                    })
            })
        }
        // `vega` — the Vega-Lite JSON of the frame's recommendations (the
        // export a print response does not carry), on stdout.
        ("vega", [tenant, name, tail @ ..]) if tail.len() <= 1 => {
            let intent = tail.first().map(String::as_str).unwrap_or("");
            client.hello(tenant).and_then(|_| {
                client.vega_lite(name, intent).map(|json| {
                    println!("{json}");
                    0
                })
            })
        }
        _ => {
            eprintln!("{usage}");
            return 2;
        }
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("lux-client: {e}");
            // A shed is exit 3, as for `print`.
            if matches!(e, ClientError::Busy { .. }) {
                3
            } else {
                1
            }
        }
    }
}
