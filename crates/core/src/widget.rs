//! The "widget": what printing a LuxDataFrame produces.
//!
//! The paper's widget is an ipywidgets HTML element with a toggle between
//! the pandas table and tabs of recommended visualizations. Headless here:
//! the widget holds the table text, the ranked [`ActionResult`] tabs, and
//! any intent diagnostics, and renders them as text, Vega-Lite JSON, or a
//! standalone HTML report (the paper's §10.3 export path).

use std::sync::Arc;

use lux_engine::{PassSummary, PassTrace};
use lux_intent::{Diagnostic, Severity};
use lux_recs::{ActionHealth, ActionResult};
use lux_vis::render::{ascii, vega};

use crate::wire::{put_opt, put_str, put_vec, Reader};

/// The output of [`crate::LuxDataFrame::print`].
pub struct Widget {
    table: String,
    results: Arc<Vec<ActionResult>>,
    health: Arc<Vec<ActionHealth>>,
    diagnostics: Vec<Diagnostic>,
    num_rows: usize,
    num_columns: usize,
    trace: Arc<PassTrace>,
    /// The pass's one summary, computed when the print finished: the timing
    /// footer and the shed note read it.
    summary: PassSummary,
}

impl Widget {
    /// The widget of a finished pass, with the trace and summary its print
    /// produced. A shed pass (DESIGN.md §10) — its summary carries
    /// `admission.shed` — comes with no results: the engine was too busy to
    /// run recommendations, so the widget degrades to the plain table plus
    /// the reason (never a panic or a hang), and display, export and the
    /// timing footer all still work.
    pub(crate) fn new(
        table: String,
        results: Arc<Vec<ActionResult>>,
        health: Arc<Vec<ActionHealth>>,
        diagnostics: Vec<Diagnostic>,
        num_rows: usize,
        num_columns: usize,
        (trace, summary): (Arc<PassTrace>, PassSummary),
    ) -> Widget {
        Widget {
            table,
            results,
            health,
            diagnostics,
            num_rows,
            num_columns,
            trace,
            summary,
        }
    }

    /// The span tree of the pass that produced this widget.
    pub fn trace(&self) -> Option<&Arc<PassTrace>> {
        Some(&self.trace)
    }

    /// The resource-governor marker for this pass: which steps degraded and
    /// why, or `None` when the pass ran entirely exact within its budget:
    /// the root span's `governor.summary` tag.
    pub fn governor_note(&self) -> Option<&str> {
        self.trace.root()?.tag("governor.summary")
    }

    /// Why admission control shed this pass, or `None` when it ran
    /// normally. A shed widget has a table but no recommendation tabs.
    pub fn shed_note(&self) -> Option<&str> {
        self.summary.admission_shed.as_deref()
    }

    /// Whether this pass was shed by admission control (engine busy).
    pub fn was_shed(&self) -> bool {
        self.shed_note().is_some()
    }

    /// The one-line per-pass timing footer.
    pub fn timing_footer(&self) -> Option<String> {
        Some(self.summary.footer())
    }

    /// The plain table view (the pandas-equivalent default display).
    pub fn table(&self) -> &str {
        &self.table
    }

    /// The recommendation tabs, cheapest action first.
    pub fn results(&self) -> &[ActionResult] {
        &self.results
    }

    /// Intent diagnostics (empty when the intent validates cleanly).
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Per-action health of the pass that produced these tabs: degraded,
    /// failed, and breaker-disabled actions carry their reasons.
    pub fn health(&self) -> &[ActionHealth] {
        &self.health
    }

    /// Health entries that are not plain `ok`.
    pub fn health_problems(&self) -> Vec<&ActionHealth> {
        self.health.iter().filter(|h| !h.status.is_ok()).collect()
    }

    /// Tab names, in display order.
    pub fn tabs(&self) -> Vec<&str> {
        self.results.iter().map(|r| r.action.as_str()).collect()
    }

    /// Render the "Lux view": every tab with its top visualizations drawn
    /// as terminal charts. `per_tab` caps how many charts each tab shows.
    pub fn render_lux_view(&self, per_tab: usize) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            let tag = match d.severity {
                Severity::Error => "error",
                Severity::Warning => "warning",
            };
            out.push_str(&format!("[{tag}] {}", d.message));
            if let Some(s) = &d.suggestion {
                out.push_str(&format!(" (did you mean {s:?}?)"));
            }
            out.push('\n');
        }
        for h in self.health_problems() {
            out.push_str(&format!("(!) action {h}\n"));
        }
        if let Some(note) = self.governor_note() {
            out.push_str(&format!("(~) {note}\n"));
        }
        if let Some(note) = self.shed_note() {
            out.push_str(&format!("(!) engine busy: {note}\n"));
            out.push_str(&self.table);
            return out;
        }
        if self.results.is_empty() {
            out.push_str("(no recommendations: showing table view)\n");
            out.push_str(&self.table);
            return out;
        }
        for r in self.results.iter() {
            let degraded = if r.degraded { ", degraded" } else { "" };
            out.push_str(&format!(
                "\n=== {} [{}] ({} vis, est. cost {:.0}{degraded}) ===\n",
                r.action,
                r.class.name(),
                r.vislist.len(),
                r.estimated_cost
            ));
            for vis in r.vislist.iter().take(per_tab) {
                out.push_str(&ascii::render(vis));
                out.push_str(&format!("score: {:.3}\n", vis.score));
            }
        }
        out
    }

    /// Full Vega-Lite JSON for every recommended visualization, grouped by
    /// action — the machine-readable export.
    pub fn to_vega_lite(&self) -> String {
        let mut parts = Vec::new();
        for r in self.results.iter() {
            let specs: Vec<String> = r.vislist.iter().map(vega::to_vega_lite).collect();
            parts.push(format!(
                "{{\"action\": \"{}\", \"charts\": [{}]}}",
                r.action,
                specs.join(", ")
            ));
        }
        format!("[{}]", parts.join(", "))
    }

    /// A standalone HTML report embedding the Vega-Lite charts (paper
    /// §10.3: "various options for export, from static HTML reports...").
    pub fn to_html(&self) -> String {
        let mut body = String::new();
        body.push_str(&format!(
            "<h2>Dataframe: {} rows × {} columns</h2>\n<pre>{}</pre>\n",
            self.num_rows,
            self.num_columns,
            html_escape(&self.table)
        ));
        for r in self.results.iter() {
            body.push_str(&format!("<h3>{}</h3>\n", html_escape(&r.action)));
            for (i, vis) in r.vislist.iter().enumerate() {
                let div = format!("vis_{}_{}", sanitize(&r.action), i);
                body.push_str(&format!(
                    "<div id=\"{div}\"></div>\n<script>vegaEmbed('#{div}', {});</script>\n",
                    vega::to_vega_lite(vis)
                ));
            }
        }
        format!(
            "<!DOCTYPE html>\n<html><head>\n<script src=\"https://cdn.jsdelivr.net/npm/vega@5\"></script>\n<script src=\"https://cdn.jsdelivr.net/npm/vega-lite@5\"></script>\n<script src=\"https://cdn.jsdelivr.net/npm/vega-embed@6\"></script>\n</head><body>\n{body}</body></html>\n"
        )
    }
}

impl Widget {
    /// Write the standalone HTML report to a file (§10.3 downstream
    /// reporting: "various options for export, from static HTML reports").
    pub fn save_html(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_html())
    }

    /// Write the grouped Vega-Lite JSON to a file.
    pub fn save_vega_lite(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_vega_lite())
    }
}

impl std::fmt::Display for Widget {
    /// Default display: the table view plus a hint line — mirroring the
    /// paper's default-to-table behavior with a toggle to the Lux view.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.table)?;
        if !self.results.is_empty() {
            writeln!(
                f,
                "[{} recommendation tab(s): {}]",
                self.results.len(),
                self.tabs().join(", ")
            )?;
        }
        let problems = self.health_problems();
        if !problems.is_empty() {
            let notes: Vec<String> = problems
                .iter()
                .map(|h| format!("{}: {}", h.action, h.status.name()))
                .collect();
            writeln!(f, "[action health: {}]", notes.join(", "))?;
        }
        if let Some(note) = self.governor_note() {
            writeln!(f, "[{note}]")?;
        }
        if let Some(note) = self.shed_note() {
            writeln!(f, "[engine busy: {note}]")?;
        }
        if let Some(footer) = self.timing_footer() {
            writeln!(f, "{footer}")?;
        }
        Ok(())
    }
}

/// A flattened, wire-serializable snapshot of a [`Widget`] for the serving
/// layer: the rendered views plus the health/degradation notes, with the
/// heavyweight internals (span tree, raw `ActionResult`s) already rendered
/// to strings. It carries what a client displays — the table and the Lux
/// view, whose size follows the chart cap, not the row count — and not the
/// Vega-Lite export, which inlines every vis's data and is served on
/// request ([`Widget::to_vega_lite`] server-side). Encodes to a versioned,
/// length-prefixed binary payload that the server frames onto the socket;
/// decode is bounds-checked and returns an error on truncation rather than
/// panicking.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WireWidget {
    pub num_rows: u64,
    pub num_columns: u64,
    pub table: String,
    /// The full Lux view rendered with the caller's per-tab chart cap.
    pub lux_view: String,
    /// Tab names in display order.
    pub tabs: Vec<String>,
    /// Non-ok action health lines ("Correlation: degraded (...)").
    pub health_problems: Vec<String>,
    pub governor_note: Option<String>,
    pub shed_note: Option<String>,
    pub timing_footer: Option<String>,
}

/// Payload format version; bump on any field change. Version 2 dropped the
/// always-on `vega_lite` string.
const WIRE_WIDGET_VERSION: u8 = 2;

impl WireWidget {
    /// Flatten a widget for the wire. `per_tab` caps charts per tab in the
    /// rendered Lux view (the table is unaffected).
    pub fn from_widget(w: &Widget, per_tab: usize) -> WireWidget {
        WireWidget {
            num_rows: w.num_rows as u64,
            num_columns: w.num_columns as u64,
            table: w.table().to_string(),
            lux_view: w.render_lux_view(per_tab),
            tabs: w.tabs().iter().map(|t| t.to_string()).collect(),
            health_problems: w.health_problems().iter().map(|h| h.to_string()).collect(),
            governor_note: w.governor_note().map(str::to_string),
            shed_note: w.shed_note().map(str::to_string),
            timing_footer: w.timing_footer(),
        }
    }

    /// Whether the producing pass was shed by admission control.
    pub fn was_shed(&self) -> bool {
        self.shed_note.is_some()
    }

    /// Serialize to the versioned binary payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.table.len() + self.lux_view.len());
        out.push(WIRE_WIDGET_VERSION);
        out.extend_from_slice(&self.num_rows.to_le_bytes());
        out.extend_from_slice(&self.num_columns.to_le_bytes());
        put_str(&mut out, &self.table);
        put_str(&mut out, &self.lux_view);
        put_vec(&mut out, &self.tabs);
        put_vec(&mut out, &self.health_problems);
        put_opt(&mut out, self.governor_note.as_deref());
        put_opt(&mut out, self.shed_note.as_deref());
        put_opt(&mut out, self.timing_footer.as_deref());
        out
    }

    /// Deserialize a payload produced by [`WireWidget::encode`]. Truncated,
    /// oversized, or non-UTF-8 input yields `Err`, never a panic.
    pub fn decode(bytes: &[u8]) -> Result<WireWidget, String> {
        let mut cur = Reader::new(bytes);
        let version = cur.u8()?;
        if version != WIRE_WIDGET_VERSION {
            return Err(format!(
                "unsupported widget payload version {version} (expected {WIRE_WIDGET_VERSION})"
            ));
        }
        let w = WireWidget {
            num_rows: cur.u64()?,
            num_columns: cur.u64()?,
            table: cur.str()?,
            lux_view: cur.str()?,
            tabs: cur.vec()?,
            health_problems: cur.vec()?,
            governor_note: cur.opt()?,
            shed_note: cur.opt()?,
            timing_footer: cur.opt()?,
        };
        cur.finish()?;
        Ok(w)
    }

    /// Human-readable rendering for the client side of the wire: the Lux
    /// view plus the footer, matching what a local print would show.
    pub fn render(&self) -> String {
        let mut out = self.lux_view.clone();
        if !out.ends_with('\n') {
            out.push('\n');
        }
        if let Some(footer) = &self.timing_footer {
            out.push_str(footer);
            out.push('\n');
        }
        out
    }
}

fn html_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

fn sanitize(s: &str) -> String {
    s.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

#[cfg(test)]
mod tests {
    use crate::luxframe::LuxDataFrame;
    use lux_dataframe::prelude::*;

    fn widget() -> crate::widget::Widget {
        let df = DataFrameBuilder::new()
            .float("a", (0..20).map(|i| i as f64))
            .float("b", (0..20).map(|i| (20 - i) as f64))
            .str("g", (0..20).map(|i| if i % 2 == 0 { "x" } else { "y" }))
            .build()
            .unwrap();
        LuxDataFrame::new(df).print()
    }

    #[test]
    fn tabs_and_lux_view() {
        let w = widget();
        assert!(w.tabs().contains(&"Correlation"));
        let view = w.render_lux_view(1);
        assert!(view.contains("=== Correlation"));
        assert!(view.contains("score:"));
    }

    #[test]
    fn display_defaults_to_table() {
        let w = widget();
        let s = w.to_string();
        assert!(s.contains("rows x"));
        assert!(s.contains("recommendation tab(s)"));
    }

    #[test]
    fn vega_export_is_valid_shape() {
        let w = widget();
        let json = w.to_vega_lite();
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"$schema\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn save_report_writes_files() {
        let w = widget();
        let dir = std::env::temp_dir().join("lux_widget_test");
        std::fs::create_dir_all(&dir).unwrap();
        let html = dir.join("report.html");
        let json = dir.join("charts.json");
        w.save_html(&html).unwrap();
        w.save_vega_lite(&json).unwrap();
        assert!(std::fs::read_to_string(&html)
            .unwrap()
            .contains("vegaEmbed"));
        assert!(std::fs::read_to_string(&json).unwrap().contains("$schema"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn html_report_embeds_charts() {
        let w = widget();
        let html = w.to_html();
        assert!(html.contains("vegaEmbed"));
        assert!(html.contains("<h3>Correlation</h3>"));
    }

    #[test]
    fn wire_widget_roundtrips() {
        let w = widget();
        let wire = super::WireWidget::from_widget(&w, 1);
        assert!(wire.tabs.iter().any(|t| t == "Correlation"));
        let bytes = wire.encode();
        assert_eq!(bytes[0], super::WIRE_WIDGET_VERSION);
        let back = super::WireWidget::decode(&bytes).expect("round-trip decode");
        assert_eq!(wire, back);
        assert!(back.render().contains("=== Correlation"));
        // The export is not on the wire: no vis data, no Vega-Lite schema.
        assert!(!bytes.windows(7).any(|w| w == b"$schema"));
    }

    #[test]
    fn wire_widget_decode_rejects_truncation_without_panic() {
        let bytes = super::WireWidget::from_widget(&widget(), 1).encode();
        for cut in 0..bytes.len().min(64) {
            assert!(super::WireWidget::decode(&bytes[..cut]).is_err());
        }
        // Torn mid-payload at every eighth offset too (cheap full sweep).
        for cut in (64..bytes.len()).step_by(8) {
            assert!(super::WireWidget::decode(&bytes[..cut]).is_err());
        }
        // Trailing garbage is also rejected.
        let mut extended = bytes.clone();
        extended.push(0xFF);
        assert!(super::WireWidget::decode(&extended).is_err());
    }

    #[test]
    fn wire_widget_v1_payload_is_rejected_by_version() {
        // The v1 layout: version 1, and a `vega_lite` string between the
        // Lux view and the tabs.
        let w = widget();
        let wire = super::WireWidget::from_widget(&w, 1);
        let mut v1 = vec![1u8];
        v1.extend_from_slice(&wire.num_rows.to_le_bytes());
        v1.extend_from_slice(&wire.num_columns.to_le_bytes());
        super::put_str(&mut v1, &wire.table);
        super::put_str(&mut v1, &wire.lux_view);
        super::put_str(&mut v1, &w.to_vega_lite());
        super::put_vec(&mut v1, &wire.tabs);
        super::put_vec(&mut v1, &wire.health_problems);
        super::put_opt(&mut v1, wire.governor_note.as_deref());
        super::put_opt(&mut v1, wire.shed_note.as_deref());
        super::put_opt(&mut v1, wire.timing_footer.as_deref());
        let err = super::WireWidget::decode(&v1).expect_err("v1 must not decode");
        assert_eq!(
            err, "unsupported widget payload version 1 (expected 2)",
            "a v1 payload is a version error, not a layout error"
        );
    }

    /// An all-numeric frame of 8 columns: scatter/heatmap and histogram
    /// recommendations, whose Vega-Lite export scales with the rows.
    fn numeric_frame(rows: usize) -> LuxDataFrame {
        let mut b = DataFrameBuilder::new();
        for c in 0..8u64 {
            b = b.float(
                &format!("m{c}"),
                (0..rows as u64).map(move |i| {
                    let x = (i * 2_654_435_761 + c * 40_503) % 10_007;
                    x as f64 / 7.0 + (i % (c + 2)) as f64
                }),
            );
        }
        LuxDataFrame::new(b.build().expect("columns of equal length"))
    }

    #[test]
    fn wire_size_follows_the_chart_cap_not_the_rows() {
        let small = super::WireWidget::from_widget(&numeric_frame(4_000).print(), 2).encode();
        let large = super::WireWidget::from_widget(&numeric_frame(40_000).print(), 2).encode();
        assert!(small.len() < 64 * 1024, "4k rows: {} bytes", small.len());
        assert!(
            large.len() < 2 * small.len() && small.len() < 2 * large.len(),
            "4k rows: {} bytes, 40k rows: {} bytes",
            small.len(),
            large.len()
        );
    }
}
