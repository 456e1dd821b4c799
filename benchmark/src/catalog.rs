//! Every workload and metric the benchmark emits, by name. `BENCHMARK.json`
//! at the repo root declares the same sets; a unit test holds the two equal
//! in both directions.

pub struct WorkloadDecl {
    pub name: &'static str,
    pub why: &'static str,
}

pub struct MetricDecl {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only; per-layer metrics carry 0.0).
    pub bound: f64,
}

pub const WORKLOADS: &[WorkloadDecl] = &[
    WorkloadDecl {
        name: "print_wide",
        why: "cold prints of 2000x128 frames: column and candidate count dominate (metadata fan-out, enumerate/score of capped candidates); row kernels idle",
    },
    WorkloadDecl {
        name: "print_tall",
        why: "cold prints of 100000x12 frames: row-proportional score/process scans and stats kernels dominate; enumeration and fixed cost vanish",
    },
    WorkloadDecl {
        name: "notebook",
        why: "38-cell notebook replay: dataframe ops expire WFLOW state, prints reuse the processed-vis memo, intents and series prints run; overhead vs no-Lux replay",
    },
    WorkloadDecl {
        name: "serve_mixed",
        why: "TCP server with closed-loop clients mixing memo-hit prints, recomputing prints and puts: protocol, registry, journal, transport and admission do the work",
    },
];

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> MetricDecl {
    MetricDecl {
        name,
        unit,
        higher_is_better: higher,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> MetricDecl {
    MetricDecl {
        name,
        unit,
        higher_is_better: higher,
        bound: 0.0,
    }
}

pub const END_TO_END: &[MetricDecl] = &[
    e2e("setup_s", "s", false, 0.25),
    e2e("latency_p50_ms", "ms", false, 0.20),
    e2e("latency_p90_ms", "ms", false, 0.25),
    e2e("throughput_ops_s", "1/s", true, 0.20),
    e2e("first_result_p50_ms", "ms", false, 0.25),
    e2e("write_p50_ms", "ms", false, 0.25),
    e2e("overhead_ratio", "x", false, 0.25),
    e2e("topk_recall", "ratio", true, 0.01),
    e2e("success_ratio", "ratio", true, 0.01),
    e2e("peak_rss_mb", "MB", false, 0.25),
];

pub const PER_LAYER: &[MetricDecl] = &[
    layer("engine.metadata.p50_ms", "ms", false),
    layer("engine.metadata.per_column_us", "us", false),
    layer("engine.metadata.rows_per_s", "1/s", true),
    layer("engine.stats_cache.hit_p50_ms", "ms", false),
    layer("engine.admission.admits", "count", true),
    layer("engine.admission.sheds", "count", false),
    layer("engine.admission.wait_p50_us", "us", false),
    layer("recs.actions.p50_ms", "ms", false),
    layer("recs.actions.vis_returned", "count", true),
    layer("recs.score.per_vis_p50_us", "us", false),
    layer("recs.prune.gate_engaged", "count", true),
    layer("recs.prune.gate_skipped", "count", false),
    layer("recs.prune.engaged_print_p50_ms", "ms", false),
    layer("recs.prune.exact_print_p50_ms", "ms", false),
    layer("recs.prune.recall", "ratio", true),
    layer("vis.process.per_vis_p50_us", "us", false),
    layer("vis.render.p50_us", "us", false),
    layer("intent.parse.p50_us", "us", false),
    layer("intent.validate.p50_us", "us", false),
    layer("intent.compile.p50_us", "us", false),
    layer("dataframe.groupby.p50_ms", "ms", false),
    layer("dataframe.filter.p50_ms", "ms", false),
    layer("dataframe.table.p50_us", "us", false),
    layer("dataframe.csv_parse.p50_ms", "ms", false),
    layer("core.print_memo.p50_us", "us", false),
    layer("core.series_print.p50_ms", "ms", false),
    layer("core.memo.vis_hit_ratio", "ratio", true),
    layer("core.wflow.memo_hit_ratio", "ratio", true),
    layer("core.print.residual_ms", "ms", false),
    layer("core.print.residual_pct", "%", false),
    layer("core.wire_encode.p50_us", "us", false),
    layer("core.wire_decode.p50_us", "us", false),
    layer("core.wire.bytes", "bytes", false),
    layer("server.transport.tcp.ping_p50_us", "us", false),
    layer("server.transport.unix.ping_p50_us", "us", false),
    layer("server.transport.mem.ping_p50_us", "us", false),
    layer("server.tcp.print_rtt_p50_ms", "ms", false),
    layer("server.unix.print_rtt_p50_ms", "ms", false),
    layer("server.protocol.request_encode_p50_us", "us", false),
    layer("server.protocol.response_encode_p50_us", "us", false),
    layer("server.protocol.response_decode_p50_us", "us", false),
    layer("server.protocol.crc_mb_s", "MB/s", true),
    layer("server.registry.print_p50_ms", "ms", false),
    layer("server.registry.put_p50_ms", "ms", false),
    layer("server.journal.appends", "count", true),
    layer("server.journal.fsyncs", "count", false),
    layer("server.journal.bytes_per_put", "bytes", false),
    layer("server.rtt.residual_ms", "ms", false),
    layer("server.rtt.residual_pct", "%", false),
    layer("trace.overhead_pct", "%", false),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};
    use std::collections::BTreeSet;

    fn find(decls: &'static [MetricDecl], name: &str) -> &'static MetricDecl {
        decls
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not in the catalogue"))
    }

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut seen = BTreeSet::new();
        for w in WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "duplicate {}", w.name);
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{} unit {}", m.name, m.unit);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = find(END_TO_END, "setup_s");
        assert!(setup.unit == "s" && !setup.higher_is_better);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    fn declared(file: &Json, key: &str) -> Vec<Json> {
        file.get(key)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key:?} array"))
            .to_vec()
    }

    fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
        entry
            .get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("entry {entry:?} has no string {key:?}"))
    }

    /// The set of names the binary emits equals the set `BENCHMARK.json`
    /// declares, in both directions, with equal units, directions and bounds.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let file = json::parse(&text).expect("BENCHMARK.json parses");

        let workloads = declared(&file, "workloads");
        let ours: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
        let theirs: Vec<(&str, &str)> = workloads
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        assert_eq!(ours, theirs, "workloads differ");

        for (key, decls) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let entries = declared(&file, key);
            let theirs: BTreeSet<&str> = entries.iter().map(|e| field(e, "name")).collect();
            let ours: BTreeSet<&str> = decls.iter().map(|d| d.name).collect();
            assert_eq!(ours, theirs, "{key}: emitted and declared names differ");
            for e in &entries {
                let d = find(decls, field(e, "name"));
                assert_eq!(d.unit, field(e, "unit"), "{}", d.name);
                let better = if d.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                assert_eq!(better, field(e, "better"), "{}", d.name);
                let bound = e.get("bound").and_then(Json::as_f64);
                if key == "end_to_end" {
                    assert_eq!(Some(d.bound), bound, "{}", d.name);
                } else {
                    assert_eq!(None, bound, "{}: per-layer metrics carry no bound", d.name);
                }
            }
        }
    }
}
