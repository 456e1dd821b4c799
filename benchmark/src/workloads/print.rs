//! `print_wide` and `print_tall`: one caller printing cold frames.
//!
//! Both run the same loop over a small pool of base frames and differ only
//! in the frame shape, which decides the layer that does the work: 128
//! columns x 2 000 rows makes per-column and per-candidate cost dominate,
//! 12 columns x 100 000 rows makes the row kernels dominate.

use std::sync::Arc;
use std::time::{Duration, Instant};

use lux_core::prelude::*;

use crate::harness::{
    fresh, has_data, ms, widget_ok, Counters, Ctx, Measured, ProbeInputs, Workload,
};
use crate::spans::SpanBuf;

pub struct PrintWorkload {
    pool: Vec<Arc<DataFrame>>,
    config: Arc<LuxConfig>,
    /// Ops issued so far, across warm-up and measured windows, so the pool
    /// rotation and the every-4th streaming op continue where they left off.
    op: u64,
}

impl PrintWorkload {
    /// One cold print; returns (milliseconds, output check passed).
    fn cold_print(&self, frame: DataFrame) -> (f64, bool) {
        let t = Instant::now();
        let widget = LuxDataFrame::with_config(frame, Arc::clone(&self.config)).print();
        (ms(t), widget_ok(&widget))
    }
}

impl Workload for PrintWorkload {
    fn setup(ctx: &Ctx, _round: usize) -> PrintWorkload {
        let pool: Vec<Arc<DataFrame>> = match ctx.workload.as_str() {
            "print_wide" => (0..8)
                .map(|j| Arc::new(lux_workloads::communities(2_000, ctx.seed + j)))
                .collect(),
            _ => (0..4)
                .map(|j| Arc::new(lux_workloads::airbnb(100_000, ctx.seed + j)))
                .collect(),
        };
        let w = PrintWorkload {
            pool,
            // threads = 0: the engine picks the machine's parallelism.
            config: Arc::new(LuxConfig::all_opt()),
            op: 0,
        };
        w.cold_print(fresh(&w.pool[0]));
        w
    }

    fn measure(&mut self, window: Duration, spans: Option<&SpanBuf>) -> Measured {
        let mut m = Measured::default();
        let before = Counters::now();
        let start = Instant::now();
        while start.elapsed() < window {
            let base = &self.pool[(self.op % self.pool.len() as u64) as usize];
            // The dataframe op a user runs between prints; it mints the
            // fresh fingerprint that makes the print below cold.
            let t = Instant::now();
            let frame = fresh(base);
            m.write_ms.push(ms(t));
            // What printing this frame costs with Lux off.
            let t = Instant::now();
            std::hint::black_box(frame.to_table_string(10));
            m.without_ms.push(ms(t));

            m.attempted += 1;
            let ok = if self.op % 4 == 3 {
                // ASYNC's promise: call -> first action result.
                let ldf = LuxDataFrame::with_config(frame, Arc::clone(&self.config));
                let t = Instant::now();
                let run = ldf.recommendations_streaming();
                let first = run.next_result();
                m.first_result_ms.push(ms(t));
                // Drain so the workers do not contend with the next op.
                let rest = run.collect_all();
                first.is_some_and(|r| has_data(std::slice::from_ref(&r)) || has_data(&rest))
            } else {
                let root = spans.map(|s| (s, s.begin("print_op", None, self.op)));
                let (took, ok) = self.cold_print(frame);
                if let Some((s, id)) = root {
                    s.end(id);
                }
                m.latency_ms.push(took);
                m.with_ms.push(took);
                m.ops += 1;
                m.busy_s += took / 1e3;
                ok
            };
            m.failed += u64::from(!ok);
            self.op += 1;
        }
        m.counters = Counters::now().since(before);
        m
    }

    fn probe_inputs(&self) -> ProbeInputs {
        ProbeInputs {
            frames: self.pool.clone(),
            intents: Vec::new(),
        }
    }

    fn mechanism_violations(c: &Counters) -> Vec<String> {
        let mut out = Vec::new();
        // Only duplicate specs inside one pass may hit the processed-vis
        // memo; anything more means the prints were not cold.
        if c.vis_hit_ratio() >= 0.15 {
            out.push(format!(
                "prints were not cold: core.memo.vis_hit_ratio = {:.3} (want < 0.15)",
                c.vis_hit_ratio()
            ));
        }
        if c.wflow_hit != 0 {
            out.push(format!(
                "prints were not cold: {} WFLOW memo hit(s) (want 0)",
                c.wflow_hit
            ));
        }
        out
    }
}
