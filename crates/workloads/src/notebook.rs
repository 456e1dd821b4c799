//! Notebook workload replay (RQ1, Figure 10/11, Table 3).
//!
//! The paper's RQ1 workload executes Kaggle-style exploratory notebooks
//! cell-by-cell with papermill, labeling each cell as a dataframe print, a
//! series print, or a non-Lux operation, and timing each cell under five
//! conditions. We reproduce the same structure in-process: a [`Notebook`]
//! is an ordered list of cells over a session of named frames, and
//! [`Notebook::run`] replays it under a given [`Condition`], timing every
//! cell.

use std::collections::HashMap;
use std::sync::Arc;

use lux_core::prelude::*;

/// The experimental conditions of §9.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Condition {
    /// Plain dataframe workflow, no Lux.
    Pandas,
    /// Lux with no optimizations (eager recompute on every operation).
    NoOpt,
    /// WFLOW only.
    Wflow,
    /// WFLOW + PRUNE.
    WflowPrune,
    /// WFLOW + PRUNE + ASYNC — the shipping default.
    AllOpt,
}

impl Condition {
    pub const ALL: [Condition; 5] = [
        Condition::Pandas,
        Condition::NoOpt,
        Condition::Wflow,
        Condition::WflowPrune,
        Condition::AllOpt,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Condition::Pandas => "pandas",
            Condition::NoOpt => "no-opt",
            Condition::Wflow => "wflow",
            Condition::WflowPrune => "wflow+prune",
            Condition::AllOpt => "all-opt",
        }
    }

    /// The Lux config for this condition (`None` = Lux disabled).
    pub fn config(self) -> Option<LuxConfig> {
        match self {
            Condition::Pandas => None,
            Condition::NoOpt => Some(LuxConfig::no_opt()),
            Condition::Wflow => Some(LuxConfig::wflow_only()),
            Condition::WflowPrune => Some(LuxConfig::wflow_prune()),
            Condition::AllOpt => Some(LuxConfig::all_opt()),
        }
    }
}

/// Cell categories of Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellKind {
    PrintDataFrame,
    PrintSeries,
    NonLux,
}

impl CellKind {
    pub fn name(self) -> &'static str {
        match self {
            CellKind::PrintDataFrame => "print-df",
            CellKind::PrintSeries => "print-series",
            CellKind::NonLux => "non-lux",
        }
    }
}

/// The mutable session a notebook runs against: named frames plus the
/// condition's config.
pub struct Session {
    pub condition: Condition,
    config: Option<Arc<LuxConfig>>,
    frames: HashMap<String, LuxDataFrame>,
}

impl Session {
    pub fn new(condition: Condition) -> Session {
        Session::with_sample_cap(condition, None)
    }

    /// Like [`Session::new`] but overriding the PRUNE sample cap. The paper
    /// fixes the cap at 30k rows against 100k-10M-row frames; reduced-scale
    /// harness runs must scale the cap down proportionally or PRUNE never
    /// engages (a cap above the row count means "no sampling").
    fn with_sample_cap(condition: Condition, sample_cap: Option<usize>) -> Session {
        let config = condition.config().map(|mut c| {
            if let Some(cap) = sample_cap {
                c.sample_cap = cap;
            }
            Arc::new(c)
        });
        Session {
            condition,
            config,
            frames: HashMap::new(),
        }
    }

    /// Bind a raw dataframe under a name, wrapping per the condition.
    pub fn load(&mut self, name: &str, df: DataFrame) {
        let wrapped = match &self.config {
            Some(cfg) => LuxDataFrame::with_config(df, Arc::clone(cfg)),
            // Pandas condition still uses the wrapper type for a uniform
            // API, but with everything Lux disabled and prints bypassed.
            None => LuxDataFrame::with_config(df, Arc::new(LuxConfig::wflow_only())),
        };
        self.frames.insert(name.to_string(), wrapped);
    }

    pub fn frame(&self, name: &str) -> &LuxDataFrame {
        self.frames
            .get(name)
            .unwrap_or_else(|| panic!("no frame named {name:?}"))
    }

    fn frame_mut(&mut self, name: &str) -> &mut LuxDataFrame {
        self.frames
            .get_mut(name)
            .unwrap_or_else(|| panic!("no frame named {name:?}"))
    }

    pub fn store(&mut self, name: &str, frame: LuxDataFrame) {
        self.frames.insert(name.to_string(), frame);
    }

    /// "Print" a frame under the session's condition. For `Pandas` this is
    /// just the table rendering; for Lux conditions it is the full widget.
    /// Returns the number of rendered characters (to keep the work observable).
    fn print_frame(&self, name: &str) -> usize {
        let f = self.frame(name);
        match self.condition {
            Condition::Pandas => f.data().to_table_string(10).len(),
            _ => {
                let w = f.print();
                w.table().len() + w.results().len()
            }
        }
    }

    /// "Print" a single column as a series.
    fn print_series(&self, frame: &str, column: &str) -> usize {
        let f = self.frame(frame);
        match self.condition {
            Condition::Pandas => {
                let s = f.data().series(column).expect("column exists");
                s.to_frame().to_table_string(10).len()
            }
            _ => {
                let s = f.series(column).expect("column exists");
                let w = s.print();
                w.table().len() + w.results().len()
            }
        }
    }
}

/// One notebook cell: a label, a kind, and the work.
pub struct Cell {
    pub label: String,
    pub kind: CellKind,
    pub run: Box<dyn Fn(&mut Session)>,
}

impl Cell {
    pub fn new(
        label: impl Into<String>,
        kind: CellKind,
        run: impl Fn(&mut Session) + 'static,
    ) -> Cell {
        Cell {
            label: label.into(),
            kind,
            run: Box::new(run),
        }
    }
}

/// Timing for one executed cell.
#[derive(Debug, Clone)]
pub struct CellTiming {
    pub label: String,
    pub kind: CellKind,
    pub seconds: f64,
}

/// The replay result: per-cell timings under one condition.
#[derive(Debug, Clone)]
pub struct NotebookReport {
    pub condition: Condition,
    pub timings: Vec<CellTiming>,
}

impl NotebookReport {
    /// Mean cell runtime across the whole notebook (Figure 10's metric).
    pub fn mean_cell_seconds(&self) -> f64 {
        if self.timings.is_empty() {
            return 0.0;
        }
        self.timings.iter().map(|t| t.seconds).sum::<f64>() / self.timings.len() as f64
    }

    /// Mean runtime of cells of one kind (Figure 11 / Table 3 metrics).
    pub fn mean_seconds_of(&self, kind: CellKind) -> f64 {
        let xs: Vec<f64> = self
            .timings
            .iter()
            .filter(|t| t.kind == kind)
            .map(|t| t.seconds)
            .collect();
        if xs.is_empty() {
            return 0.0;
        }
        xs.iter().sum::<f64>() / xs.len() as f64
    }

    /// Total runtime of cells of one kind.
    pub fn total_seconds_of(&self, kind: CellKind) -> f64 {
        self.timings
            .iter()
            .filter(|t| t.kind == kind)
            .map(|t| t.seconds)
            .sum()
    }

    /// Cell count per kind.
    pub fn count_of(&self, kind: CellKind) -> usize {
        self.timings.iter().filter(|t| t.kind == kind).count()
    }
}

/// An ordered list of cells.
pub struct Notebook {
    pub name: String,
    pub cells: Vec<Cell>,
}

impl Notebook {
    /// Replay every cell under `condition`, timing each.
    pub fn run(&self, condition: Condition) -> NotebookReport {
        self.run_with_sample_cap(condition, None)
    }

    /// Replay with an explicit PRUNE sample cap. Reduced-scale runs scale
    /// the cap down with the frames, or PRUNE never engages (a cap above
    /// the row count means "no sampling").
    pub fn run_with_sample_cap(
        &self,
        condition: Condition,
        sample_cap: Option<usize>,
    ) -> NotebookReport {
        let mut session = Session::with_sample_cap(condition, sample_cap);
        let mut timings = Vec::with_capacity(self.cells.len());
        for cell in &self.cells {
            let start = lux_engine::clock::now();
            (cell.run)(&mut session);
            timings.push(CellTiming {
                label: cell.label.clone(),
                kind: cell.kind,
                seconds: start.elapsed().as_secs_f64(),
            });
        }
        NotebookReport { condition, timings }
    }
}

/// The Airbnb exploratory notebook (Table 3: 14 df prints, 7 series prints,
/// 17 non-Lux cells), modeled on the Kaggle EDA flow the paper used: load,
/// inspect, clean, derive features, aggregate, and inspect again.
pub fn airbnb_notebook(num_rows: usize, seed: u64) -> Notebook {
    use CellKind::*;
    let mut cells: Vec<Cell> = Vec::new();
    let mut df_prints = 0;
    let mut series_prints = 0;

    macro_rules! op {
        ($label:expr, $f:expr) => {
            cells.push(Cell::new($label, NonLux, $f));
        };
    }
    macro_rules! print_df {
        ($name:expr) => {
            df_prints += 1;
            cells.push(Cell::new(
                format!("print {}", $name),
                PrintDataFrame,
                move |s| {
                    s.print_frame($name);
                },
            ));
        };
    }
    macro_rules! print_series {
        ($frame:expr, $col:expr) => {
            series_prints += 1;
            cells.push(Cell::new(
                format!("print {}[{}]", $frame, $col),
                PrintSeries,
                move |s| {
                    s.print_series($frame, $col);
                },
            ));
        };
    }

    // --- load & first look -------------------------------------------- (cells 1-6)
    op!("load csv", move |s: &mut Session| s
        .load("df", crate::airbnb::airbnb(num_rows, seed)));
    print_df!("df");
    op!("describe", |s: &mut Session| {
        let d = s.frame("df").describe().expect("describe");
        s.store("summary", d);
    });
    print_df!("summary");
    print_series!("df", "price");
    print_series!("df", "room_type");

    // --- cleaning ------------------------------------------------------
    op!("fillna reviews_per_month", |s: &mut Session| {
        let d = s
            .frame("df")
            .fillna("reviews_per_month", &Value::Float(0.0))
            .expect("fillna");
        s.store("df", d);
    });
    op!("drop id columns", |s: &mut Session| {
        let d = s
            .frame("df")
            .drop_columns(&["id", "host_id"])
            .expect("drop");
        s.store("df", d);
    });
    print_df!("df");
    op!("filter price outliers", |s: &mut Session| {
        let d = s
            .frame("df")
            .filter("price", FilterOp::Le, &Value::Int(1000))
            .expect("filter");
        s.store("df", d);
    });
    print_df!("df");
    print_series!("df", "minimum_nights");

    // --- feature engineering --------------------------------------------
    op!("log price", |s: &mut Session| {
        let d = s
            .frame("df")
            .with_column_from("log_price", "price", |v| {
                Value::Float(v.as_f64().map_or(f64::NAN, |x| (x + 1.0).ln()))
            })
            .expect("assign");
        s.store("df", d);
    });
    print_series!("df", "log_price");
    op!("bin availability", |s: &mut Session| {
        let d = s
            .frame("df")
            .cut(
                "availability_365",
                &["rare", "seasonal", "frequent", "always"],
                "availability_level",
            )
            .expect("cut");
        s.store("df", d);
    });
    print_df!("df");
    op!("rename columns", |s: &mut Session| {
        let d = s
            .frame("df")
            .rename(&[("neighbourhood_group", "borough")])
            .expect("rename");
        s.store("df", d);
    });
    print_df!("df");

    // --- aggregation & inspection ----------------------------------------
    op!("groupby borough mean price", |s: &mut Session| {
        let d = s
            .frame("df")
            .groupby_agg(
                &["borough"],
                &[("price", Agg::Mean), ("number_of_reviews", Agg::Mean)],
            )
            .expect("groupby");
        s.store("by_borough", d);
    });
    print_df!("by_borough");
    op!("groupby room_type", |s: &mut Session| {
        let d = s
            .frame("df")
            .groupby_count(&["room_type"])
            .expect("groupby");
        s.store("by_room", d);
    });
    print_df!("by_room");
    op!("value_counts borough", |s: &mut Session| {
        let d = s.frame("df").value_counts("borough").expect("value_counts");
        s.store("borough_counts", d);
    });
    print_df!("borough_counts");
    print_series!("df", "availability_365");
    op!("sort by price and take head", |s: &mut Session| {
        let sorted = s.frame("df").sort_by(&["price"], false).expect("sort");
        s.store("top", sorted.head(5));
    });
    print_df!("top");

    // --- intent-steered exploration ---------------------------------------
    op!("set intent price x reviews", |s: &mut Session| {
        s.frame_mut("df")
            .set_intent_strs(["price", "number_of_reviews"])
            .expect("intent");
    });
    print_df!("df");
    op!("set intent price by borough", |s: &mut Session| {
        s.frame_mut("df")
            .set_intent_strs(["price", "borough"])
            .expect("intent");
    });
    print_df!("df");
    // --- modeling-prep non-Lux tail ---------------------------------------
    op!("sample train", |s: &mut Session| {
        s.frame_mut("df").clear_intent();
        let d = s
            .frame("df")
            .sample(s.frame("df").num_rows() / 2, 11)
            .dropna();
        s.store("train", d);
    });
    op!("select features", |s: &mut Session| {
        let d = s
            .frame("train")
            .select(&[
                "price",
                "minimum_nights",
                "number_of_reviews",
                "availability_365",
            ])
            .expect("select");
        s.store("features", d);
    });
    print_df!("features");
    print_series!("features", "price");
    print_series!("features", "number_of_reviews");
    op!("crosstab borough room", |s: &mut Session| {
        let d = s
            .frame("df")
            .crosstab("borough", "room_type")
            .expect("crosstab");
        s.store("ct", d);
    });
    print_df!("ct");

    debug_assert_eq!(df_prints, 14, "Table 3 says 14 df prints for Airbnb");
    debug_assert_eq!(series_prints, 7, "Table 3 says 7 series prints for Airbnb");
    let _ = (df_prints, series_prints);
    Notebook {
        name: "airbnb".into(),
        cells,
    }
}

/// The Communities exploratory notebook (Table 3: 14 df prints, 4 series
/// prints, 25 non-Lux cells): wide-frame EDA dominated by column work.
pub fn communities_notebook(num_rows: usize, seed: u64) -> Notebook {
    use CellKind::*;
    let mut cells: Vec<Cell> = Vec::new();
    let mut df_prints = 0;
    let mut series_prints = 0;

    macro_rules! op {
        ($label:expr, $f:expr) => {
            cells.push(Cell::new($label, NonLux, $f));
        };
    }
    macro_rules! print_df {
        ($name:expr) => {
            df_prints += 1;
            cells.push(Cell::new(
                format!("print {}", $name),
                PrintDataFrame,
                move |s| {
                    s.print_frame($name);
                },
            ));
        };
    }
    macro_rules! print_series {
        ($frame:expr, $col:expr) => {
            series_prints += 1;
            cells.push(Cell::new(
                format!("print {}[{}]", $frame, $col),
                PrintSeries,
                move |s| {
                    s.print_series($frame, $col);
                },
            ));
        };
    }

    op!("load csv", move |s: &mut Session| {
        s.load("df", crate::communities::communities(num_rows, seed))
    });
    print_df!("df");
    op!("describe", |s: &mut Session| {
        let d = s.frame("df").describe().expect("describe");
        s.store("summary", d);
    });
    print_df!("summary");
    // column cleanup: drop a band of attributes, like the Kaggle notebooks do
    for band in 0..4 {
        op!(format!("drop attr band {band}"), move |s: &mut Session| {
            let names: Vec<String> = (0..4)
                .map(|i| format!("attr_{:03}", 100 + band * 4 + i))
                .collect();
            let refs: Vec<&str> = names.iter().map(String::as_str).collect();
            let d = s.frame("df").drop_columns(&refs).expect("drop");
            s.store("df", d);
        });
    }
    print_df!("df");
    print_series!("df", "attr_000");
    op!("rename target", |s: &mut Session| {
        let d = s
            .frame("df")
            .rename(&[("attr_099", "target")])
            .expect("rename");
        s.store("df", d);
    });
    print_df!("df");
    for i in 0..4 {
        op!(format!("derive feature {i}"), move |s: &mut Session| {
            let src = format!("attr_{:03}", i * 10);
            let out = format!("feat_{i}");
            let d = s
                .frame("df")
                .with_column_from(&out, &src, |v| {
                    Value::Float(v.as_f64().map_or(f64::NAN, |x| x * x))
                })
                .expect("assign");
            s.store("df", d);
        });
    }
    print_df!("df");
    print_series!("df", "feat_0");
    op!("filter high target", |s: &mut Session| {
        let d = s
            .frame("df")
            .filter("target", FilterOp::Ge, &Value::Float(0.5))
            .expect("filter");
        s.store("high", d);
    });
    print_df!("high");
    op!("groupby state", |s: &mut Session| {
        let d = s
            .frame("df")
            .groupby_agg(
                &["state"],
                &[("target", Agg::Mean), ("population", Agg::Mean)],
            )
            .expect("groupby");
        s.store("by_state", d);
    });
    print_df!("by_state");
    op!("sort by target", |s: &mut Session| {
        let d = s
            .frame("by_state")
            .sort_by(&["target"], false)
            .expect("sort");
        s.store("by_state", d);
    });
    print_df!("by_state");
    op!("head", |s: &mut Session| {
        let d = s.frame("by_state").head(5);
        s.store("top_states", d);
    });
    print_df!("top_states");
    op!("set intent target", |s: &mut Session| {
        s.frame_mut("df")
            .set_intent_strs(["target"])
            .expect("intent");
    });
    print_df!("df");
    op!("set intent target x population", |s: &mut Session| {
        s.frame_mut("df")
            .set_intent_strs(["target", "population"])
            .expect("intent");
    });
    print_df!("df");
    op!("clear intent", |s: &mut Session| s
        .frame_mut("df")
        .clear_intent());
    print_df!("df");
    print_series!("df", "target");
    print_series!("df", "population");
    // modeling prep tail of non-Lux cells
    for i in 0..5 {
        op!(format!("model prep {i}"), move |s: &mut Session| {
            let d = s
                .frame("df")
                .sample(s.frame("df").num_rows().max(2) / 2, 100 + i);
            s.store("fold_frame", d);
        });
    }
    print_df!("fold_frame");
    op!("final select", |s: &mut Session| {
        let d = s
            .frame("df")
            .select(&["target", "population", "feat_0"])
            .expect("select");
        s.store("final", d);
    });
    print_df!("final");
    op!("final stats", |s: &mut Session| {
        let _ = s.frame("final").data().null_counts();
    });

    debug_assert_eq!(df_prints, 14, "Table 3 says 14 df prints for Communities");
    debug_assert_eq!(
        series_prints, 4,
        "Table 3 says 4 series prints for Communities"
    );
    let _ = (df_prints, series_prints);
    Notebook {
        name: "communities".into(),
        cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn airbnb_notebook_matches_table3_composition() {
        let nb = airbnb_notebook(200, 1);
        let report = nb.run(Condition::Pandas);
        assert_eq!(report.count_of(CellKind::PrintDataFrame), 14);
        assert_eq!(report.count_of(CellKind::PrintSeries), 7);
        assert_eq!(report.count_of(CellKind::NonLux), 17);
    }

    #[test]
    fn communities_notebook_matches_table3_composition() {
        let nb = communities_notebook(100, 1);
        let report = nb.run(Condition::Pandas);
        assert_eq!(report.count_of(CellKind::PrintDataFrame), 14);
        assert_eq!(report.count_of(CellKind::PrintSeries), 4);
        assert_eq!(report.count_of(CellKind::NonLux), 25);
    }

    #[test]
    fn all_conditions_complete() {
        let nb = airbnb_notebook(150, 2);
        for cond in Condition::ALL {
            let report = nb.run(cond);
            assert_eq!(report.timings.len(), nb.cells.len(), "{}", cond.name());
            assert!(report.mean_cell_seconds() >= 0.0);
        }
    }

    #[test]
    fn report_aggregations() {
        let nb = airbnb_notebook(100, 3);
        let r = nb.run(Condition::AllOpt);
        let total: f64 = [
            CellKind::PrintDataFrame,
            CellKind::PrintSeries,
            CellKind::NonLux,
        ]
        .iter()
        .map(|k| r.total_seconds_of(*k))
        .sum();
        let overall: f64 = r.timings.iter().map(|t| t.seconds).sum();
        assert!((total - overall).abs() < 1e-9);
    }
}
