//! Command language and evaluator for the interactive shell.
//!
//! The shell is this reproduction's stand-in for the paper's notebook
//! frontend: the user alternates dataframe operations with prints, and
//! every print is always-on. Commands operate on a session of named frames
//! (like notebook variables).

use std::collections::HashMap;
use std::path::Path;

use lux_core::prelude::*;
use lux_dataframe::sql::query_frame;

/// A parsed shell command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `load <path> [as <name>] [--permissive]` — read a CSV into the
    /// session; `--permissive` repairs malformed records instead of failing
    /// and reports each repair.
    Load {
        path: String,
        name: String,
        permissive: bool,
    },
    /// `demo <airbnb|communities|wide> [rows] [as <name>]` — synth dataset.
    Demo {
        which: String,
        rows: usize,
        name: String,
    },
    /// `print [name]` — the always-on print (table + Lux view).
    Print { name: Option<String> },
    /// `table [name]` — just the table view.
    Table { name: Option<String> },
    /// `profile [name]` — metadata + overview charts.
    Profile { name: Option<String> },
    /// `health [name]` — per-action health of the last recommendation pass.
    Health { name: Option<String> },
    /// `trace [last|save <path>]` — span tree of the last print pass
    /// (flame-style text, or Chrome `trace_event` JSON written to a file).
    Trace { save: Option<String> },
    /// `stats` — process-wide engine metrics (counters + latency histograms).
    Stats,
    /// `intent <clause>, <clause>, ...` — set the intent on the current frame.
    Intent { clauses: Vec<String> },
    /// `clear-intent`
    ClearIntent,
    /// `vis <clause>, <clause>, ...` — build one chart immediately.
    Vis { clauses: Vec<String> },
    /// `filter <column> <op> <value>` — derive a filtered frame (becomes current).
    Filter {
        column: String,
        op: FilterOp,
        value: String,
    },
    /// `groupby <key> <agg> <column>` — derive an aggregated frame.
    GroupBy {
        key: String,
        agg: Agg,
        column: String,
    },
    /// `head <n>`
    Head { n: usize },
    /// `sql <query>` — run SQL against the current frame (table `t`).
    Sql { query: String },
    /// `export <action> <rank> [<path>]` — export a vis as code (and vega to a file).
    Export {
        action: String,
        rank: usize,
        path: Option<String>,
    },
    /// `save-report <path>` — write the HTML report of the current frame.
    SaveReport { path: String },
    /// `frames` — list session frames.
    Frames,
    /// `use <name>` — switch the current frame.
    Use { name: String },
    /// `help`
    Help,
    /// `quit` / `exit`
    Quit,
}

/// Parse one command line.
pub fn parse_command(line: &str) -> Result<Command> {
    let line = line.trim();
    let (head, rest) = match line.split_once(char::is_whitespace) {
        Some((h, r)) => (h, r.trim()),
        None => (line, ""),
    };
    let word = |s: &str| -> Vec<String> { s.split_whitespace().map(|w| w.to_string()).collect() };
    match head.to_ascii_lowercase().as_str() {
        "" => Err(Error::Parse("empty command".into())),
        "load" => {
            let mut parts = word(rest);
            let permissive = parts.iter().any(|p| p == "--permissive");
            parts.retain(|p| p != "--permissive");
            match parts.as_slice() {
                [path] => Ok(Command::Load {
                    path: path.clone(),
                    name: "df".into(),
                    permissive,
                }),
                [path, as_kw, name] if as_kw.eq_ignore_ascii_case("as") => Ok(Command::Load {
                    path: path.clone(),
                    name: name.clone(),
                    permissive,
                }),
                _ => Err(Error::Parse(
                    "usage: load <path> [as <name>] [--permissive]".into(),
                )),
            }
        }
        "demo" => {
            let parts = word(rest);
            let (which, mut rows, mut name) = match parts.first() {
                Some(w) => (w.clone(), 5_000usize, "df".to_string()),
                None => {
                    return Err(Error::Parse(
                        "usage: demo <airbnb|communities|wide> [rows] [as <name>]".into(),
                    ))
                }
            };
            let mut i = 1;
            if let Some(n) = parts.get(i).and_then(|p| p.parse::<usize>().ok()) {
                rows = n;
                i += 1;
            }
            if parts.get(i).is_some_and(|p| p.eq_ignore_ascii_case("as")) {
                name = parts
                    .get(i + 1)
                    .cloned()
                    .ok_or_else(|| Error::Parse("expected a name after 'as'".into()))?;
            }
            Ok(Command::Demo { which, rows, name })
        }
        "print" => Ok(Command::Print {
            name: word(rest).first().cloned(),
        }),
        "table" => Ok(Command::Table {
            name: word(rest).first().cloned(),
        }),
        "profile" => Ok(Command::Profile {
            name: word(rest).first().cloned(),
        }),
        "health" => Ok(Command::Health {
            name: word(rest).first().cloned(),
        }),
        "trace" => {
            let parts = word(rest);
            match parts.as_slice() {
                [] => Ok(Command::Trace { save: None }),
                [last] if last.eq_ignore_ascii_case("last") => Ok(Command::Trace { save: None }),
                [save, path] if save.eq_ignore_ascii_case("save") => Ok(Command::Trace {
                    save: Some(path.clone()),
                }),
                _ => Err(Error::Parse("usage: trace [last|save <path>]".into())),
            }
        }
        "stats" => Ok(Command::Stats),
        "intent" => {
            let clauses: Vec<String> = rest
                .split(',')
                .map(|c| c.trim().to_string())
                .filter(|c| !c.is_empty())
                .collect();
            if clauses.is_empty() {
                return Err(Error::Parse(
                    "usage: intent <clause>[, <clause> ...]".into(),
                ));
            }
            Ok(Command::Intent { clauses })
        }
        "clear-intent" => Ok(Command::ClearIntent),
        "vis" => {
            let clauses: Vec<String> = rest
                .split(',')
                .map(|c| c.trim().to_string())
                .filter(|c| !c.is_empty())
                .collect();
            if clauses.is_empty() {
                return Err(Error::Parse("usage: vis <clause>[, <clause> ...]".into()));
            }
            Ok(Command::Vis { clauses })
        }
        "filter" => {
            // filter <column><op><value> or filter <column> <op> <value>
            let compact = rest.replace(' ', "");
            match lux_intent::parse_clause(&compact)? {
                lux_intent::Clause::Filter {
                    attribute,
                    op,
                    value: lux_intent::ValueSpec::One(v),
                } => Ok(Command::Filter {
                    column: attribute,
                    op,
                    value: v.to_string(),
                }),
                _ => Err(Error::Parse("usage: filter <column><op><value>".into())),
            }
        }
        "groupby" => {
            let parts = word(rest);
            match parts.as_slice() {
                [key, agg, column] => {
                    let agg = parse_agg(agg)?;
                    Ok(Command::GroupBy {
                        key: key.clone(),
                        agg,
                        column: column.clone(),
                    })
                }
                _ => Err(Error::Parse(
                    "usage: groupby <key> <mean|sum|count|...> <column>".into(),
                )),
            }
        }
        "head" => {
            let n = word(rest)
                .first()
                .and_then(|p| p.parse().ok())
                .ok_or_else(|| Error::Parse("usage: head <n>".into()))?;
            Ok(Command::Head { n })
        }
        "sql" => {
            if rest.is_empty() {
                return Err(Error::Parse("usage: sql <SELECT ...>".into()));
            }
            Ok(Command::Sql {
                query: rest.to_string(),
            })
        }
        "export" => {
            let parts = word(rest);
            match parts.as_slice() {
                [action, rank] => Ok(Command::Export {
                    action: action.clone(),
                    rank: rank
                        .parse()
                        .map_err(|_| Error::Parse("rank must be a number".into()))?,
                    path: None,
                }),
                [action, rank, path] => Ok(Command::Export {
                    action: action.clone(),
                    rank: rank
                        .parse()
                        .map_err(|_| Error::Parse("rank must be a number".into()))?,
                    path: Some(path.clone()),
                }),
                _ => Err(Error::Parse(
                    "usage: export <action> <rank> [<file.json>]".into(),
                )),
            }
        }
        "save-report" => {
            let parts = word(rest);
            match parts.as_slice() {
                [path] => Ok(Command::SaveReport { path: path.clone() }),
                _ => Err(Error::Parse("usage: save-report <file.html>".into())),
            }
        }
        "frames" => Ok(Command::Frames),
        "use" => {
            let parts = word(rest);
            match parts.as_slice() {
                [name] => Ok(Command::Use { name: name.clone() }),
                _ => Err(Error::Parse("usage: use <name>".into())),
            }
        }
        "help" | "?" => Ok(Command::Help),
        "quit" | "exit" => Ok(Command::Quit),
        other => Err(Error::Parse(format!(
            "unknown command {other:?} (try 'help')"
        ))),
    }
}

fn parse_agg(s: &str) -> Result<Agg> {
    match s.to_ascii_lowercase().as_str() {
        "count" => Ok(Agg::Count),
        "sum" => Ok(Agg::Sum),
        "mean" | "avg" => Ok(Agg::Mean),
        "min" => Ok(Agg::Min),
        "max" => Ok(Agg::Max),
        "var" => Ok(Agg::Var),
        "std" => Ok(Agg::Std),
        "median" => Ok(Agg::Median),
        other => Err(Error::Parse(format!("unknown aggregation {other:?}"))),
    }
}

pub const HELP: &str = "\
commands:
  load <path> [as <name>] [--permissive]  read a CSV (--permissive repairs bad rows)
  demo <airbnb|communities|wide> [rows] [as <name>]
  print [name]                     always-on print (table + Lux view)
  table [name]                     table view only
  profile [name]                   per-column metadata + overview charts
  health [name]                    per-action health (ok/degraded/failed/disabled)
  trace [last|save <path>]         span tree of the last print (save = Chrome JSON)
  stats                            process-wide engine metrics (counters, latencies)
  intent <clause>[, <clause>...]   e.g. intent price, room_type=?
  clear-intent
  vis <clause>[, <clause>...]      build one chart now
  filter <col><op><value>          derive a filtered frame (becomes current)
  groupby <key> <agg> <column>     derive an aggregate frame
  head <n>                         derive the first n rows
  sql <SELECT ... FROM t ...>      ad-hoc SQL over the current frame
  export <action> <rank> [<file>]  export a chart as code (+ vega json file)
  save-report <file.html>          standalone HTML report
  frames / use <name>              manage session frames
  help / quit";

/// The shell session: named frames plus the "current" frame, mirroring a
/// notebook's variables and the most recent cell.
pub struct Shell {
    frames: HashMap<String, LuxDataFrame>,
    current: Option<String>,
    derived_counter: usize,
}

impl Default for Shell {
    fn default() -> Self {
        Shell::new()
    }
}

impl Shell {
    pub fn new() -> Shell {
        Shell {
            frames: HashMap::new(),
            current: None,
            derived_counter: 0,
        }
    }

    pub fn current_name(&self) -> Option<&str> {
        self.current.as_deref()
    }

    fn frame_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.frames.keys().map(String::as_str).collect();
        names.sort();
        names
    }

    fn current_frame(&self) -> Result<&LuxDataFrame> {
        self.current
            .as_ref()
            .and_then(|n| self.frames.get(n))
            .ok_or_else(|| Error::InvalidArgument("no frame loaded (try 'demo airbnb')".into()))
    }

    fn resolve(&self, name: &Option<String>) -> Result<&LuxDataFrame> {
        match name {
            Some(n) => self
                .frames
                .get(n)
                .ok_or_else(|| Error::InvalidArgument(format!("no frame named {n:?}"))),
            None => self.current_frame(),
        }
    }

    fn adopt(&mut self, base: &str, frame: LuxDataFrame) -> String {
        self.derived_counter += 1;
        let name = format!("{base}_{}", self.derived_counter);
        self.frames.insert(name.clone(), frame);
        self.current = Some(name.clone());
        name
    }

    /// Execute one command, returning the text to show the user. `Quit`
    /// returns `None`.
    pub fn execute(&mut self, cmd: Command) -> Result<Option<String>> {
        match cmd {
            Command::Quit => Ok(None),
            Command::Help => Ok(Some(HELP.to_string())),
            Command::Load {
                path,
                name,
                permissive,
            } => {
                let (df, repairs) = if permissive {
                    let (df, report) = LuxDataFrame::read_csv_permissive(Path::new(&path))?;
                    let repairs = if report.is_clean() {
                        String::new()
                    } else {
                        format!("\n{}", report).trim_end().to_string()
                    };
                    (df, repairs)
                } else {
                    (LuxDataFrame::read_csv(Path::new(&path))?, String::new())
                };
                let shape = format!(
                    "loaded {name}: {} rows x {} cols{repairs}",
                    df.num_rows(),
                    df.num_columns()
                );
                self.frames.insert(name.clone(), df);
                self.current = Some(name);
                Ok(Some(shape))
            }
            Command::Demo { which, rows, name } => {
                let df = match which.to_ascii_lowercase().as_str() {
                    "airbnb" => lux_workloads::airbnb(rows, 42),
                    "communities" => lux_workloads::communities(rows, 42),
                    "wide" => lux_workloads::synthetic_wide(40, rows, 42),
                    other => {
                        return Err(Error::InvalidArgument(format!(
                            "unknown demo dataset {other:?}"
                        )))
                    }
                };
                let ldf = LuxDataFrame::new(df);
                let shape = format!(
                    "generated {name}: {} rows x {} cols",
                    ldf.num_rows(),
                    ldf.num_columns()
                );
                self.frames.insert(name.clone(), ldf);
                self.current = Some(name);
                Ok(Some(shape))
            }
            Command::Print { name } => {
                let widget = self.resolve(&name)?.print();
                Ok(Some(format!("{widget}\n{}", widget.render_lux_view(1))))
            }
            Command::Table { name } => Ok(Some(self.resolve(&name)?.print().table().to_string())),
            Command::Profile { name } => Ok(Some(self.resolve(&name)?.profile())),
            Command::Health { name } => {
                let health = self.resolve(&name)?.action_health();
                let mut out = if health.is_empty() {
                    String::from("all actions healthy (no health entries)")
                } else {
                    let mut out = String::from("action health:");
                    for h in health.iter() {
                        out.push_str(&format!("\n  {h}"));
                    }
                    out
                };
                out.push('\n');
                out.push_str(
                    &lux_engine::AdmissionController::global()
                        .stats()
                        .render_text(),
                );
                Ok(Some(out))
            }
            Command::Trace { save } => {
                let frame = self.current_frame()?;
                let trace = frame.last_trace().ok_or_else(|| {
                    Error::InvalidArgument("no trace recorded yet (run 'print' first)".into())
                })?;
                match save {
                    Some(path) => {
                        std::fs::write(&path, trace.to_chrome_json())
                            .map_err(|e| Error::InvalidArgument(format!("write {path:?}: {e}")))?;
                        Ok(Some(format!(
                            "chrome trace written to {path} (load in about://tracing or ui.perfetto.dev)"
                        )))
                    }
                    None => Ok(Some(trace.render_text())),
                }
            }
            Command::Stats => Ok(Some(format!(
                "{}\n{}",
                MetricsRegistry::global().snapshot().render_text(),
                lux_engine::AdmissionController::global()
                    .stats()
                    .render_text()
            ))),
            Command::Intent { clauses } => {
                let current = self
                    .current
                    .clone()
                    .ok_or_else(|| Error::InvalidArgument("no frame loaded".into()))?;
                let frame = self.frames.get_mut(&current).expect("current exists");
                frame.set_intent_strs(&clauses)?;
                let diags = frame.validate_intent();
                let mut out = format!("intent set on {current}");
                for d in diags {
                    out.push_str(&format!("\n  note: {}", d.message));
                    if let Some(s) = d.suggestion {
                        out.push_str(&format!(" (did you mean {s:?}?)"));
                    }
                }
                Ok(Some(out))
            }
            Command::ClearIntent => {
                let current = self
                    .current
                    .clone()
                    .ok_or_else(|| Error::InvalidArgument("no frame loaded".into()))?;
                self.frames
                    .get_mut(&current)
                    .expect("current exists")
                    .clear_intent();
                Ok(Some("intent cleared".into()))
            }
            Command::Vis { clauses } => {
                let vis = LuxVis::from_strs(&clauses, self.current_frame()?)?;
                Ok(Some(vis.render_ascii()))
            }
            Command::Filter { column, op, value } => {
                let parsed = lux_intent::parse_value(&value);
                let derived = self.current_frame()?.filter(&column, op, &parsed)?;
                let rows = derived.num_rows();
                let name = self.adopt("filtered", derived);
                Ok(Some(format!("-> {name}: {rows} rows (now current)")))
            }
            Command::GroupBy { key, agg, column } => {
                let derived = self
                    .current_frame()?
                    .groupby_agg(&[&key], &[(&column, agg)])?;
                let rows = derived.num_rows();
                let name = self.adopt("grouped", derived);
                Ok(Some(format!("-> {name}: {rows} groups (now current)")))
            }
            Command::Head { n } => {
                let derived = self.current_frame()?.head(n);
                let name = self.adopt("head", derived);
                Ok(Some(format!("-> {name} (now current)")))
            }
            Command::Sql { query } => {
                let out = query_frame(&query, self.current_frame()?.data())?;
                Ok(Some(out.to_table_string(20)))
            }
            Command::Export { action, rank, path } => {
                let frame = self.current_frame()?;
                let vis = frame.export(&action, rank)?;
                let code = lux_vis::render::code::to_rust_code(&vis.spec);
                let mut out = code;
                if let Some(p) = path {
                    std::fs::write(&p, lux_vis::render::vega::to_vega_lite(&vis))
                        .map_err(|e| Error::InvalidArgument(format!("write {p:?}: {e}")))?;
                    out.push_str(&format!("\n(vega-lite json written to {p})"));
                }
                Ok(Some(out))
            }
            Command::SaveReport { path } => {
                self.current_frame()?
                    .print()
                    .save_html(Path::new(&path))
                    .map_err(|e| Error::InvalidArgument(format!("write {path:?}: {e}")))?;
                Ok(Some(format!("report written to {path}")))
            }
            Command::Frames => {
                let mut out = String::from("frames:");
                for n in self.frame_names() {
                    let f = &self.frames[n];
                    let marker = if Some(n) == self.current_name() {
                        "*"
                    } else {
                        " "
                    };
                    out.push_str(&format!(
                        "\n {marker} {n}: {} rows x {} cols",
                        f.num_rows(),
                        f.num_columns()
                    ));
                }
                Ok(Some(out))
            }
            Command::Use { name } => {
                if !self.frames.contains_key(&name) {
                    return Err(Error::InvalidArgument(format!("no frame named {name:?}")));
                }
                self.current = Some(name.clone());
                Ok(Some(format!("current frame: {name}")))
            }
        }
    }

    /// Register a frame directly (used by tests and startup arguments).
    pub fn insert(&mut self, name: &str, df: lux_dataframe::DataFrame) {
        self.frames.insert(name.to_string(), LuxDataFrame::new(df));
        self.current = Some(name.to_string());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> lux_dataframe::DataFrame {
        DataFrameBuilder::new()
            .str("dept", ["Sales", "Eng", "Sales", "HR"])
            .float("pay", [50.0, 80.0, 60.0, 55.0])
            .build()
            .unwrap()
    }

    #[test]
    fn parse_basics() {
        assert_eq!(
            parse_command("load data.csv as hpi").unwrap(),
            Command::Load {
                path: "data.csv".into(),
                name: "hpi".into(),
                permissive: false
            }
        );
        assert_eq!(
            parse_command("load data.csv --permissive").unwrap(),
            Command::Load {
                path: "data.csv".into(),
                name: "df".into(),
                permissive: true
            }
        );
        assert_eq!(
            parse_command("print").unwrap(),
            Command::Print { name: None }
        );
        assert_eq!(
            parse_command("demo airbnb 1000 as a").unwrap(),
            Command::Demo {
                which: "airbnb".into(),
                rows: 1000,
                name: "a".into()
            }
        );
        assert_eq!(
            parse_command("intent pay, dept=Sales").unwrap(),
            Command::Intent {
                clauses: vec!["pay".into(), "dept=Sales".into()]
            }
        );
        assert_eq!(
            parse_command("filter pay >= 55").unwrap(),
            Command::Filter {
                column: "pay".into(),
                op: FilterOp::Ge,
                value: "55".into()
            }
        );
        assert_eq!(
            parse_command("groupby dept mean pay").unwrap(),
            Command::GroupBy {
                key: "dept".into(),
                agg: Agg::Mean,
                column: "pay".into()
            }
        );
        assert_eq!(parse_command("quit").unwrap(), Command::Quit);
        assert!(parse_command("bogus").is_err());
        assert!(parse_command("").is_err());
    }

    #[test]
    fn shell_session_flow() {
        let mut shell = Shell::new();
        shell.insert("df", sample());
        // print works and shows tabs
        let out = shell
            .execute(parse_command("print").unwrap())
            .unwrap()
            .unwrap();
        assert!(out.contains("recommendation tab"));
        // intent -> current vis
        let out = shell
            .execute(parse_command("intent pay, dept").unwrap())
            .unwrap()
            .unwrap();
        assert!(out.contains("intent set"));
        // derive: filter becomes current
        let out = shell
            .execute(parse_command("filter pay>=55").unwrap())
            .unwrap()
            .unwrap();
        assert!(out.contains("3 rows"));
        assert!(shell.current_name().unwrap().starts_with("filtered_"));
        // groupby
        let out = shell
            .execute(parse_command("use df").unwrap())
            .unwrap()
            .unwrap();
        assert!(out.contains("df"));
        let out = shell
            .execute(parse_command("groupby dept mean pay").unwrap())
            .unwrap()
            .unwrap();
        assert!(out.contains("3 groups"));
        // frames listing shows everything
        let out = shell.execute(Command::Frames).unwrap().unwrap();
        assert!(out.contains("df") && out.contains("filtered_1") && out.contains("grouped_2"));
    }

    #[test]
    fn shell_sql_and_vis() {
        let mut shell = Shell::new();
        shell.insert("df", sample());
        let out = shell
            .execute(parse_command("sql SELECT dept, COUNT(*) AS n FROM t GROUP BY dept").unwrap())
            .unwrap()
            .unwrap();
        assert!(out.contains("Sales"));
        let out = shell
            .execute(parse_command("vis pay, dept").unwrap())
            .unwrap()
            .unwrap();
        assert!(out.contains('█'));
    }

    #[test]
    fn shell_errors_are_reported_not_fatal() {
        let mut shell = Shell::new();
        assert!(shell.execute(parse_command("print").unwrap()).is_err()); // no frame
        shell.insert("df", sample());
        assert!(shell.execute(parse_command("use nope").unwrap()).is_err());
        assert!(shell
            .execute(parse_command("filter nope=1").unwrap())
            .is_err());
        // session still usable
        assert!(shell
            .execute(parse_command("table").unwrap())
            .unwrap()
            .is_some());
    }

    #[test]
    fn health_command_reports_action_status() {
        assert_eq!(
            parse_command("health").unwrap(),
            Command::Health { name: None }
        );
        let mut shell = Shell::new();
        shell.insert("df", sample());
        let out = shell
            .execute(parse_command("health").unwrap())
            .unwrap()
            .unwrap();
        // healthy defaults: every entry reads "<action>: ok"
        assert!(out.contains(": ok"), "got: {out}");
        assert!(!out.contains("failed"));
    }

    #[test]
    fn quit_returns_none() {
        let mut shell = Shell::new();
        assert!(shell.execute(Command::Quit).unwrap().is_none());
    }

    #[test]
    fn tight_budget_surfaces_governor_marker() {
        let mut shell = Shell::new();
        let mut config = LuxConfig::default();
        config.budget.max_bytes = 1; // everything over budget from byte one
        let ldf = LuxDataFrame::with_config(sample(), std::sync::Arc::new(config));
        shell.frames.insert("df".to_string(), ldf);
        shell.current = Some("df".to_string());
        let out = shell
            .execute(parse_command("print").unwrap())
            .unwrap()
            .unwrap();
        // the pass completes (no panic, tabs still render) and the widget
        // carries the degradation marker
        assert!(out.contains("governor"), "got: {out}");
        // the always-on metrics picked the degradations up too
        let stats = shell.execute(Command::Stats).unwrap().unwrap();
        assert!(stats.contains("lux.governor"), "{stats}");
    }

    #[test]
    fn trace_command_parses_and_renders() {
        assert_eq!(
            parse_command("trace").unwrap(),
            Command::Trace { save: None }
        );
        assert_eq!(
            parse_command("trace last").unwrap(),
            Command::Trace { save: None }
        );
        assert_eq!(
            parse_command("trace save /tmp/t.json").unwrap(),
            Command::Trace {
                save: Some("/tmp/t.json".into())
            }
        );
        assert!(parse_command("trace bogus").is_err());

        let mut shell = Shell::new();
        shell.insert("df", sample());
        // before any print there is no trace
        assert!(shell.execute(Command::Trace { save: None }).is_err());
        let _ = shell.execute(parse_command("print").unwrap()).unwrap();
        let out = shell
            .execute(Command::Trace { save: None })
            .unwrap()
            .unwrap();
        assert!(out.contains("print"), "{out}");
        assert!(out.contains("actions"), "{out}");
        // chrome export writes a JSON array
        let dir = std::env::temp_dir().join("lux_cli_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        let cmd = Command::Trace {
            save: Some(path.to_string_lossy().into_owned()),
        };
        let out = shell.execute(cmd).unwrap().unwrap();
        assert!(out.contains("written"));
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.trim_start().starts_with('[') && json.trim_end().ends_with(']'));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_command_reports_metrics() {
        assert_eq!(parse_command("stats").unwrap(), Command::Stats);
        let mut shell = Shell::new();
        shell.insert("df", sample());
        let _ = shell.execute(parse_command("print").unwrap()).unwrap();
        let out = shell.execute(Command::Stats).unwrap().unwrap();
        assert!(out.contains("lux.prints"), "{out}");
        assert!(out.contains("lux.print.latency"), "{out}");
    }
}
