//! `serve_mixed`: closed-loop clients against an in-process server on TCP
//! loopback.
//!
//! The only workload where the serving layer (protocol, registry, journal,
//! transport, connection threads) and concurrent admission do the work.
//! Each client is its own tenant with its own frame and repeats an 8-op
//! cycle: seven prints whose intents make two of them exact repeats (WFLOW
//! memo hits) and five of them recomputes, then one put that re-uploads a
//! mutated CSV. Puts sit beside prints so a read-path gain that costs the
//! write path shows.
//!
//! A cycle is one session: the client opens a new connection for it. That
//! puts the accept loop and the per-connection thread in the traffic, and
//! it re-seeds the kernel's per-connection TCP heuristics every cycle — on
//! one long-lived loopback connection quick-ACK mode sticks in one of two
//! states for the whole run and every round trip carries 40 ms more or less
//! with it, which makes whole runs bistable. For the same reason the put
//! payloads and the intent columns rotate, so every run sees the same mix
//! of request and response sizes whatever its seed.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lux_core::prelude::*;
use lux_server::{Client, PrintOutcome, Server, ServerConfig};

use crate::gen;
use crate::harness::{ms, widget_ok, Counters, Ctx, Measured, ProbeInputs, Workload};
use crate::spans::SpanBuf;

/// Mutated payloads each client rotates through on its puts.
const VARIANTS: u64 = 4;
const FRAME: &str = "frame";

/// The intents of the seven prints of a cycle; the put follows.
pub fn cycle(intents: &[String; 3]) -> [&str; 7] {
    let [a, b, c] = intents;
    ["", "", a, a, b, "", c]
}

pub struct RunningServer {
    pub addr: String,
    shutdown: Arc<AtomicBool>,
    thread: JoinHandle<()>,
}

impl RunningServer {
    /// Bind on `addr` with the default configuration (so the journal runs
    /// its default fsync policy) and serve on a background thread.
    pub fn start(addr: &str, data_dir: PathBuf) -> RunningServer {
        let server = Server::bind(ServerConfig {
            addr: addr.to_string(),
            data_dir,
            ..ServerConfig::default()
        })
        .expect("bind server");
        RunningServer {
            addr: server.local_addr().to_string(),
            shutdown: server.shutdown_handle(),
            thread: std::thread::spawn(move || {
                server.run().expect("server run");
            }),
        }
    }

    /// Connections must be dropped first; the drain then returns at once.
    pub fn stop(self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.thread.join().expect("server thread panicked");
    }
}

pub fn connect(addr: &str, tenant: &str) -> Client {
    let mut client = Client::connect(addr, Duration::from_secs(60)).expect("connect");
    client.hello(tenant).expect("hello");
    client
}

/// A served print that passes the output check: decoded, not shed, with tabs.
pub fn served_ok(outcome: &PrintOutcome) -> bool {
    matches!(outcome, PrintOutcome::Widget(w) if !w.was_shed() && !w.tabs.is_empty())
}

pub fn put_ok(ack: (u64, u64, u64)) -> bool {
    (ack.0, ack.1) == (gen::CSV_ROWS as u64, gen::CSV_COLS as u64)
}

struct ClientState {
    index: u64,
    addr: String,
    client: Client,
    /// Seeds this client's payloads and intents.
    seed: u64,
    csvs: Vec<String>,
    /// Ops issued so far: `step / 8` is the cycle, `step % 8` the position
    /// in it.
    step: u64,
    /// Print round trips of the cycle in progress.
    cycle_prints: Vec<f64>,
    /// First-print round trips of the round (one cycle per payload) in
    /// progress.
    round_firsts: Vec<f64>,
    /// In-process baseline cycles run so far.
    baseline_cycles: u64,
}

impl ClientState {
    fn run(&mut self, window: Duration, spans: Option<&SpanBuf>) -> Measured {
        let mut m = Measured::default();
        let start = Instant::now();
        while start.elapsed() < window {
            let (cycle_no, position) = (self.step / 8, (self.step % 8) as usize);
            let op_id = self.index << 32 | self.step;
            if position == 0 {
                self.client = connect(&self.addr, &tenant(self.index));
                self.cycle_prints.clear();
            }
            m.attempted += 1;
            m.ops += 1;
            if position == 7 {
                let csv = &self.csvs[((cycle_no + 1) % VARIANTS) as usize];
                let span = spans.map(|s| s.begin("serve_put", None, op_id));
                let t = Instant::now();
                let ack = self.client.put_frame(FRAME, csv);
                m.write_ms.push(ms(t));
                if let (Some(s), Some(id)) = (spans, span) {
                    s.end(id);
                }
                m.failed += u64::from(!ack.is_ok_and(put_ok));
            } else {
                let intents = gen::cycle_intents(self.seed, cycle_no);
                let intent = cycle(&intents)[position];
                let span = spans.map(|s| s.begin("serve_print", None, op_id));
                let t = Instant::now();
                let outcome = self.client.print(FRAME, intent, 0, 2);
                let took = ms(t);
                if let (Some(s), Some(id)) = (spans, span) {
                    s.end(id);
                }
                if position == 0 {
                    // The first print after a put: a frame nothing has seen.
                    // Whether its response pays a delayed-ACK stall depends
                    // on the payload, so a sample is the mean over one
                    // round of all payloads.
                    self.round_firsts.push(took);
                    if self.round_firsts.len() as u64 == VARIANTS {
                        m.first_result_ms
                            .push(crate::stats::mean(&self.round_firsts));
                        self.round_firsts.clear();
                    }
                }
                self.cycle_prints.push(took);
                if self.cycle_prints.len() == 7 {
                    // Single round trips come in 40 ms steps (Nagle and
                    // delayed ACK), so their median sits between modes and
                    // jumps; the mean over a cycle does not.
                    let sum: f64 = self.cycle_prints.iter().sum();
                    m.latency_ms.push(sum / 7.0);
                    m.with_ms.push(sum);
                }
                m.failed += u64::from(!outcome.is_ok_and(|o| served_ok(&o)));
            }
            self.step += 1;
        }
        m
    }

    /// The same cycles in-process on the same payloads: what the prints
    /// cost with no server in the way.
    fn in_process(&mut self, window: Duration) -> Measured {
        let mut m = Measured::default();
        let start = Instant::now();
        while m.without_ms.is_empty() || start.elapsed() < window {
            let k = self.baseline_cycles;
            let csv = &self.csvs[(k % VARIANTS) as usize];
            let (took, failed) = in_process_cycle_ms(csv, &gen::cycle_intents(self.seed, k));
            m.attempted += 7;
            m.failed += failed;
            m.without_ms.push(took);
            self.baseline_cycles += 1;
        }
        m
    }
}

fn tenant(index: u64) -> String {
    format!("tenant-{index}")
}

pub struct ServeWorkload {
    server: RunningServer,
    clients: Vec<ClientState>,
}

/// Concurrent clients: every core busy, at most four.
pub fn client_count() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(4))
}

/// The seven prints of a cycle against a frame built the way the registry
/// builds it. Returns (milliseconds, prints that failed the output check).
fn in_process_cycle_ms(csv: &str, intents: &[String; 3]) -> (f64, u64) {
    let df = lux_dataframe::csv::read_csv_str(csv).expect("parse own csv");
    let mut ldf = LuxDataFrame::new(df);
    let mut failed = 0;
    let t = Instant::now();
    for intent in cycle(intents) {
        if intent.is_empty() {
            ldf.clear_intent();
        } else {
            ldf.set_intent_strs([intent]).expect("own intent parses");
        }
        failed += u64::from(!widget_ok(&ldf.print()));
    }
    (ms(t), failed)
}

impl Workload for ServeWorkload {
    fn setup(ctx: &Ctx, round: usize) -> ServeWorkload {
        let server =
            RunningServer::start("127.0.0.1:0", ctx.scratch.join(format!("serve-{round}")));
        let clients = (0..client_count() as u64)
            .map(|index| {
                let seed = ctx.seed.wrapping_mul(1_000) + index * VARIANTS;
                let mut state = ClientState {
                    index,
                    addr: server.addr.clone(),
                    client: connect(&server.addr, &tenant(index)),
                    seed,
                    csvs: (0..VARIANTS).map(|v| gen::numeric_csv(seed + v)).collect(),
                    step: 1,
                    cycle_prints: Vec::new(),
                    round_firsts: Vec::new(),
                    baseline_cycles: 0,
                };
                let ack = state
                    .client
                    .put_frame(FRAME, &state.csvs[0])
                    .expect("first put");
                assert!(put_ok(ack), "first put acked {ack:?}");
                let first = state.client.print(FRAME, "", 0, 2).expect("first print");
                assert!(served_ok(&first), "first print: {first:?}");
                state
            })
            .collect();
        ServeWorkload { server, clients }
    }

    fn measure(&mut self, window: Duration, spans: Option<&SpanBuf>) -> Measured {
        // Served slices alternate with in-process slices a tenth as long,
        // run by as many concurrent callers (the `overhead_ratio`
        // baseline), so both see the same machine over the whole window.
        const SLICES: u32 = 5;
        let mut m = Measured::default();
        for _ in 0..SLICES {
            let before = Counters::now();
            let start = Instant::now();
            let mut served = Measured::default();
            std::thread::scope(|scope| {
                let threads: Vec<_> = self
                    .clients
                    .iter_mut()
                    .map(|c| scope.spawn(move || c.run(window / SLICES, spans)))
                    .collect();
                for t in threads {
                    served.absorb(t.join().expect("client thread panicked"));
                }
            });
            served.busy_s = start.elapsed().as_secs_f64();
            served.counters = Counters::now().since(before);
            m.absorb(served);

            std::thread::scope(|scope| {
                let threads: Vec<_> = self
                    .clients
                    .iter_mut()
                    .map(|c| scope.spawn(move || c.in_process(window / SLICES / 10)))
                    .collect();
                for t in threads {
                    m.absorb(t.join().expect("baseline thread panicked"));
                }
            });
        }
        m
    }

    fn probe_inputs(&self) -> ProbeInputs {
        ProbeInputs {
            frames: self
                .clients
                .iter()
                .map(|c| {
                    Arc::new(lux_dataframe::csv::read_csv_str(&c.csvs[0]).expect("parse own csv"))
                })
                .collect(),
            intents: gen::cycle_intents(self.clients[0].seed, 0)
                .into_iter()
                .map(|i| vec![i])
                .collect(),
        }
    }

    fn mechanism_violations(c: &Counters) -> Vec<String> {
        if c.wflow_hit == 0 {
            return vec!["repeated prints never hit the WFLOW memo".to_string()];
        }
        Vec::new()
    }

    fn teardown(self) {
        drop(self.clients);
        self.server.stop();
    }
}
