//! `notebook`: one caller replaying the 38-cell Airbnb notebook.
//!
//! The same layers as the print workloads, used the way a session uses
//! them: dataframe ops derive frames and expire WFLOW state, prints reuse
//! the processed-vis memo across related frames, intents get set, series
//! get printed. Every fourth all-opt replay is followed by a replay of the
//! same notebook with Lux off, which is the baseline of `overhead_ratio`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use lux_core::prelude::*;
use lux_workloads::{airbnb_notebook, CellKind, Condition, Notebook, Session};

use crate::harness::{ms, Counters, Ctx, Measured, ProbeInputs, Workload};
use crate::spans::SpanBuf;
use crate::stats;

const ROWS: usize = 20_000;
/// Distinct datasets the replays rotate through.
const DATASETS: u64 = 4;
/// Table 3's composition of the Airbnb notebook: df prints, series prints,
/// non-Lux cells.
const COMPOSITION: (usize, usize, usize) = (14, 7, 17);

pub struct NotebookWorkload {
    notebooks: Vec<Notebook>,
    frames: Vec<Arc<DataFrame>>,
    replays: u64,
}

/// Per-kind cell times of one replay, in milliseconds. The first cell
/// generates the dataset — the benchmark's input, not the system under
/// test — and is left out of every time.
struct Replay {
    df_prints: Vec<f64>,
    series_prints: Vec<f64>,
    ops: Vec<f64>,
    composition_ok: bool,
}

impl Replay {
    fn wall_ms(&self) -> f64 {
        self.df_prints
            .iter()
            .chain(&self.series_prints)
            .chain(&self.ops)
            .sum()
    }

    fn cells(&self) -> usize {
        self.df_prints.len() + self.series_prints.len() + self.ops.len()
    }
}

fn replay(nb: &Notebook, condition: Condition, spans: Option<(&SpanBuf, u64)>) -> Replay {
    let mut session = Session::new(condition);
    let mut out = Replay {
        df_prints: Vec::new(),
        series_prints: Vec::new(),
        ops: Vec::new(),
        composition_ok: false,
    };
    let root = spans.map(|(s, op)| s.begin("notebook_replay", None, op));
    let mut kinds = (0, 0, 0);
    for (i, cell) in nb.cells.iter().enumerate() {
        let (name, count, times) = match cell.kind {
            CellKind::PrintDataFrame => ("df_print_cell", &mut kinds.0, &mut out.df_prints),
            CellKind::PrintSeries => ("series_print_cell", &mut kinds.1, &mut out.series_prints),
            CellKind::NonLux => ("dataframe_op_cell", &mut kinds.2, &mut out.ops),
        };
        *count += 1;
        let span = spans.map(|(s, op)| s.begin(name, root, op));
        let t = Instant::now();
        (cell.run)(&mut session);
        let took = ms(t);
        if let (Some((s, _)), Some(id)) = (spans, span) {
            s.end(id);
        }
        if i > 0 {
            times.push(took);
        }
    }
    if let (Some((s, _)), Some(id)) = (spans, root) {
        s.end(id);
    }
    out.composition_ok = kinds == COMPOSITION && nb.cells[0].label == "load csv";
    out
}

impl Workload for NotebookWorkload {
    fn setup(ctx: &Ctx, _round: usize) -> NotebookWorkload {
        let w = NotebookWorkload {
            notebooks: (0..DATASETS)
                .map(|r| airbnb_notebook(ROWS, ctx.seed + r))
                .collect(),
            frames: (0..DATASETS)
                .map(|r| Arc::new(lux_workloads::airbnb(ROWS, ctx.seed + r)))
                .collect(),
            replays: 0,
        };
        replay(&w.notebooks[0], Condition::AllOpt, None);
        w
    }

    fn measure(&mut self, window: Duration, spans: Option<&SpanBuf>) -> Measured {
        let mut m = Measured::default();
        let before = Counters::now();
        let start = Instant::now();
        while start.elapsed() < window {
            let nb = &self.notebooks[(self.replays % DATASETS) as usize];
            let lux = replay(nb, Condition::AllOpt, spans.map(|s| (s, self.replays)));
            m.attempted += 1;
            m.failed += u64::from(!lux.composition_ok);
            m.latency_ms.push(stats::mean(&lux.df_prints));
            // The first print follows the load: a frame nothing has seen.
            m.first_result_ms.push(lux.df_prints[0]);
            m.write_ms.push(stats::mean(&lux.ops));
            m.with_ms.push(lux.wall_ms());
            m.ops += lux.cells() as u64;
            m.busy_s += lux.wall_ms() / 1e3;
            if self.replays % 4 == 3 {
                let plain = replay(nb, Condition::Pandas, None);
                m.attempted += 1;
                m.failed += u64::from(!plain.composition_ok);
                m.without_ms.push(plain.wall_ms());
            }
            self.replays += 1;
        }
        m.counters = Counters::now().since(before);
        m
    }

    fn probe_inputs(&self) -> ProbeInputs {
        let intent = |a: &str, b: &str| vec![a.to_string(), b.to_string()];
        ProbeInputs {
            frames: self.frames.clone(),
            // The notebook's own two intents (it renames
            // neighbourhood_group to borough first; the base frames have
            // the original name).
            intents: vec![
                intent("price", "number_of_reviews"),
                intent("price", "neighbourhood_group"),
            ],
        }
    }

    fn mechanism_violations(c: &Counters) -> Vec<String> {
        if c.vis_hit_ratio() <= 0.2 {
            return vec![format!(
                "related frames did not share processed views: core.memo.vis_hit_ratio = {:.3} (want > 0.2)",
                c.vis_hit_ratio()
            )];
        }
        Vec::new()
    }
}
