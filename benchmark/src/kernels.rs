//! Fixed-input layer kernels: the same seeded inputs whatever the workload,
//! so a reading compares across workloads and commits. They cover what no
//! call of an in-process print reaches — the serving layer piece by piece
//! and the PRUNE gate, which needs more rows than any workload can afford
//! per print.

use std::io::Cursor;
use std::path::Path;
use std::sync::Arc;

use lux_core::prelude::*;
use lux_server::protocol::{crc32, read_frame, write_frame};
use lux_server::{Registry, Request, Response};

use crate::gen;
use crate::harness::{fresh, plain, widget_ok, Counters, Ctx, Metric};
use crate::spans::SpanBuf;
use crate::stats::p50;
use crate::workloads::serve::{connect, cycle, put_ok, served_ok, RunningServer};

pub struct Kernels {
    pub metrics: Vec<Metric>,
    pub violations: Vec<String>,
}

const FRAME: &str = "frame";
const TENANT: &str = "kernel";

/// Median duration, in milliseconds, of every span called `name` so far.
fn p50_ms(spans: &SpanBuf, name: &str) -> f64 {
    p50(&spans.durations_ms(name))
}

/// Record `n` calls of `f` as spans called `name` under `parent`; returns
/// their median in milliseconds.
fn repeat(
    spans: &SpanBuf,
    name: &'static str,
    parent: usize,
    n: usize,
    mut f: impl FnMut(),
) -> f64 {
    for i in 0..n {
        spans.time(name, Some(parent), i as u64, &mut f);
    }
    p50_ms(spans, name)
}

pub fn run(ctx: &Ctx, spans: &SpanBuf) -> Kernels {
    let mut out = Kernels {
        metrics: Vec::new(),
        violations: Vec::new(),
    };
    let root = spans.begin("kernels", None, 0);
    let csv = gen::numeric_csv(ctx.seed);
    let intents = gen::cycle_intents(ctx.seed, 0);

    let parse_ms = repeat(spans, "dataframe.csv_parse", root, 15, || {
        std::hint::black_box(lux_dataframe::csv::read_csv_str(&csv).is_ok());
    });
    out.metrics
        .push(plain("dataframe.csv_parse.p50_ms", parse_ms));

    let codecs_ms = protocol(&csv, spans, root, &mut out);
    let registry_dir = ctx.scratch.join("kernel-registry");
    let direct_print_ms = registry(&registry_dir, &csv, &intents, spans, root, &mut out);
    // What of a print round trip the pieces above explain, ping aside.
    let explained_ms = codecs_ms + direct_print_ms;
    transports(ctx, &csv, &intents, explained_ms, spans, root, &mut out);
    prune(ctx.seed, spans, root, &mut out);
    spans.end(root);
    out
}

/// Codec cost of one print exchange and CRC bandwidth, all in memory.
/// Returns the codec milliseconds of one exchange.
fn protocol(csv: &str, spans: &SpanBuf, root: usize, out: &mut Kernels) -> f64 {
    let frame = lux_dataframe::csv::read_csv_str(csv).expect("parse own csv");
    let widget = LuxDataFrame::new(frame).print();
    let payload = WireWidget::from_widget(&widget, 2).encode();
    let request = Request::Print {
        name: FRAME.to_string(),
        intent: String::new(),
        deadline_ms: 0,
        per_tab: 2,
        trace: String::new(),
    };
    let response = Response::PrintResult { widget: payload };

    let req_ms = repeat(spans, "server.protocol.request_encode", root, 200, || {
        let (kind, body) = request.encode();
        let mut wire = Vec::new();
        write_frame(&mut wire, kind, 1, &body).expect("write to a Vec");
        std::hint::black_box(wire);
    });
    let mut wire = Vec::new();
    let enc_ms = repeat(spans, "server.protocol.response_encode", root, 200, || {
        let (kind, body) = response.encode();
        wire.clear();
        write_frame(&mut wire, kind, 1, &body).expect("write to a Vec");
    });
    let mut decoded_ok = true;
    let dec_ms = repeat(spans, "server.protocol.response_decode", root, 200, || {
        let decoded = read_frame(&mut Cursor::new(&wire))
            .ok()
            .and_then(|f| Response::decode(f.msg_type, &f.payload).ok());
        decoded_ok &= decoded.as_ref() == Some(&response);
    });
    if !decoded_ok {
        out.violations
            .push("a framed print response did not decode to itself".to_string());
    }
    let crc_ms = repeat(spans, "server.protocol.crc", root, 200, || {
        std::hint::black_box(crc32(csv.as_bytes()));
    });
    out.metrics.extend([
        plain("server.protocol.request_encode_p50_us", req_ms * 1e3),
        plain("server.protocol.response_encode_p50_us", enc_ms * 1e3),
        plain("server.protocol.response_decode_p50_us", dec_ms * 1e3),
        plain(
            "server.protocol.crc_mb_s",
            csv.len() as f64 / 1e6 / (crc_ms / 1e3),
        ),
    ]);
    req_ms + enc_ms + dec_ms
}

/// The registry called directly: the engine's and the journal's share of a
/// served request, with no wire in between. Returns the direct print p50 in
/// milliseconds.
fn registry(
    dir: &Path,
    csv: &str,
    intents: &[String; 3],
    spans: &SpanBuf,
    root: usize,
    out: &mut Kernels,
) -> f64 {
    const PUTS: usize = 12;
    std::fs::create_dir_all(dir).expect("create registry dir");
    let (registry, _notes) = Registry::recover(dir).expect("open an empty registry");
    let journal = dir.join("journal.jsonl");
    let journal_len = || std::fs::metadata(&journal).map_or(0, |m| m.len());
    // Tenant registration journals a line of its own; keep it out of the
    // per-put growth.
    registry.register_tenant(TENANT).expect("register tenant");

    let before = Counters::now();
    let len_before = journal_len();
    let mut acks_ok = true;
    let put_ms = repeat(spans, "server.registry.put", root, PUTS, || {
        let entry = registry.put_frame(TENANT, FRAME, csv, "");
        acks_ok &= entry.is_ok_and(|e| put_ok((e.rows, e.cols, e.fingerprint)));
    });
    let moved = Counters::now().since(before);
    if !acks_ok {
        out.violations
            .push("a direct registry put did not echo rows x cols".to_string());
    }

    let mut prints_ok = true;
    for _ in 0..4 {
        // A put replaces the entry, so every round starts cold like the
        // served cycle does.
        let entry = registry.put_frame(TENANT, FRAME, csv, "").expect("put");
        for intent in cycle(intents) {
            let wire = spans.time("server.registry.print", Some(root), 0, || {
                entry.print(intent, TENANT, None, 2, "")
            });
            prints_ok &= wire.is_ok_and(|w| !w.was_shed() && !w.tabs.is_empty());
        }
    }
    if !prints_ok {
        out.violations
            .push("a direct registry print failed its output check".to_string());
    }
    let print_ms = p50_ms(spans, "server.registry.print");
    out.metrics.extend([
        plain("server.registry.put_p50_ms", put_ms),
        plain("server.registry.print_p50_ms", print_ms),
        plain("server.journal.appends", moved.journal_appends as f64),
        plain("server.journal.fsyncs", moved.journal_fsyncs as f64),
        plain(
            "server.journal.bytes_per_put",
            (journal_len() - len_before) as f64 / PUTS as f64,
        ),
    ]);
    print_ms
}

/// Ping and print round trips over each transport, one client. The ping is
/// wire + connection-thread wake + empty-frame codec; what a print round
/// trip costs beyond ping + direct registry print + codecs is the serving
/// layer's unexplained share (`server.rtt.residual_*`).
fn transports(
    ctx: &Ctx,
    csv: &str,
    intents: &[String; 3],
    explained_ms: f64,
    spans: &SpanBuf,
    root: usize,
    out: &mut Kernels,
) {
    let unix = format!("unix:{}", ctx.scratch.join("k.sock").display());
    let mem = format!("mem:lux-benchmark-{}", std::process::id());
    let mut all_ok = true;
    let mut ping_us =
        |name: &'static str, addr: &str, dir: &str, pings: usize| -> (f64, Option<f64>) {
            let server = RunningServer::start(addr, ctx.scratch.join(dir));
            let mut client = connect(&server.addr, TENANT);
            let ping = repeat(spans, name, root, pings, || {
                all_ok &= client.ping().is_ok();
            });
            // Print cycles only where a round trip is cheap enough to repeat.
            let rtt = (!addr.starts_with("mem:")).then(|| {
                let span = if addr.starts_with("unix:") {
                    "server.unix.print_rtt"
                } else {
                    "server.tcp.print_rtt"
                };
                for _ in 0..3 {
                    all_ok &= client.put_frame(FRAME, csv).is_ok_and(put_ok);
                    for intent in cycle(intents) {
                        let outcome =
                            spans.time(span, Some(root), 0, || client.print(FRAME, intent, 0, 2));
                        all_ok &= outcome.is_ok_and(|o| served_ok(&o));
                    }
                }
                p50_ms(spans, span)
            });
            drop(client);
            server.stop();
            (ping * 1e3, rtt)
        };
    let (tcp_ping, tcp_rtt) = ping_us("server.transport.tcp.ping", "127.0.0.1:0", "kernel-tcp", 12);
    let (unix_ping, unix_rtt) = ping_us("server.transport.unix.ping", &unix, "kernel-unix", 200);
    let (mem_ping, _) = ping_us("server.transport.mem.ping", &mem, "kernel-mem", 200);
    if !all_ok {
        out.violations
            .push("a transport kernel request failed its output check".to_string());
    }
    let tcp_rtt = tcp_rtt.expect("tcp runs print cycles");
    let explained = tcp_ping / 1e3 + explained_ms;
    let residual = tcp_rtt - explained;
    out.metrics.extend([
        plain("server.transport.tcp.ping_p50_us", tcp_ping),
        plain("server.transport.unix.ping_p50_us", unix_ping),
        plain("server.transport.mem.ping_p50_us", mem_ping),
        plain("server.tcp.print_rtt_p50_ms", tcp_rtt),
        plain(
            "server.unix.print_rtt_p50_ms",
            unix_rtt.expect("unix runs print cycles"),
        ),
        plain("server.rtt.residual_ms", residual),
        plain("server.rtt.residual_pct", residual / tcp_rtt * 100.0),
    ]);
}

/// PRUNE engages only past 64 candidates and 4x the sample cap in rows,
/// which costs >= 0.2 s per print: cold prints of a 150 000-row, 24-column
/// frame with the gate on and off, and how much of the exact top-k the
/// approximate pass keeps.
fn prune(seed: u64, spans: &SpanBuf, root: usize, out: &mut Kernels) {
    const PRINTS: usize = 4;
    let wide = lux_workloads::communities(150_000, seed);
    let first: Vec<&str> = wide
        .column_names()
        .iter()
        .take(24)
        .map(String::as_str)
        .collect();
    let base = Arc::new(wide.select(&first).expect("select own columns"));
    drop(wide);

    let mut ok = true;
    let mut cold_print = |name: &'static str, config: LuxConfig| {
        let config = Arc::new(config);
        repeat(spans, name, root, PRINTS, || {
            let widget = LuxDataFrame::with_config(fresh(&base), Arc::clone(&config)).print();
            ok &= widget_ok(&widget);
        })
    };
    let before = Counters::now();
    let engaged_ms = cold_print("recs.prune.engaged_print", LuxConfig::all_opt());
    let engaged = Counters::now().since(before).prune_engaged;
    let exact_ms = cold_print("recs.prune.exact_print", LuxConfig::wflow_only());
    if !ok {
        out.violations
            .push("a PRUNE kernel print failed its output check".to_string());
    }

    let before = Counters::now();
    let recall = crate::harness::topk_recall(std::slice::from_ref(&base));
    if engaged == 0 || Counters::now().since(before).prune_engaged == 0 {
        out.violations.push(
            "recs.prune.recall was computed on a pass where the PRUNE gate did not engage"
                .to_string(),
        );
    }
    out.metrics.extend([
        plain("recs.prune.engaged_print_p50_ms", engaged_ms),
        plain("recs.prune.exact_print_p50_ms", exact_ms),
        plain("recs.prune.recall", recall),
    ]);
}
