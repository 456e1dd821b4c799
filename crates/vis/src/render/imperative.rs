//! An imperative plotting API — the matplotlib-style *baseline* of the
//! paper's Figure 6.
//!
//! Figure 6 compares the specification burden for Q3 ("compare average Age
//! across Education levels") between Lux's one-line intent and conventional
//! libraries where the user must (1) wrangle the data themselves and
//! (2) spell out every visual detail. This module implements that
//! conventional style faithfully — `Figure::new()`, manual `bar(xs, ys)`,
//! explicit labels/ticks — so the comparison harness (`fig6_specification`)
//! measures real code against real code. It doubles as an escape hatch for
//! users who want full manual control (paper §2: Lux "is built on top of
//! these imperative and declarative frameworks").

use lux_dataframe::prelude::*;

/// Manual mark payloads, positioned by the caller — the defining property
/// of the imperative style ("users manually compute the data associated
/// with the graphical elements").
#[derive(Debug, Clone)]
enum Layer {
    Bar {
        labels: Vec<String>,
        heights: Vec<f64>,
    },
    Scatter {
        xs: Vec<f64>,
        ys: Vec<f64>,
    },
    Line {
        xs: Vec<f64>,
        ys: Vec<f64>,
    },
}

/// An imperative figure under construction.
#[derive(Debug, Clone, Default)]
pub struct Figure {
    layers: Vec<Layer>,
    title: Option<String>,
    xlabel: Option<String>,
    ylabel: Option<String>,
}

impl Figure {
    pub fn new() -> Figure {
        Figure::default()
    }

    /// Add a bar layer. `labels` and `heights` must be the same length —
    /// the caller has already aggregated the data.
    pub fn bar(mut self, labels: Vec<String>, heights: Vec<f64>) -> Result<Figure> {
        if labels.len() != heights.len() {
            return Err(Error::LengthMismatch {
                expected: labels.len(),
                got: heights.len(),
            });
        }
        self.layers.push(Layer::Bar { labels, heights });
        Ok(self)
    }

    /// Add a scatter layer from raw coordinates.
    pub fn scatter(mut self, xs: Vec<f64>, ys: Vec<f64>) -> Result<Figure> {
        if xs.len() != ys.len() {
            return Err(Error::LengthMismatch {
                expected: xs.len(),
                got: ys.len(),
            });
        }
        self.layers.push(Layer::Scatter { xs, ys });
        Ok(self)
    }

    /// Add a line layer from raw coordinates (sorted by the caller).
    pub fn line(mut self, xs: Vec<f64>, ys: Vec<f64>) -> Result<Figure> {
        if xs.len() != ys.len() {
            return Err(Error::LengthMismatch {
                expected: xs.len(),
                got: ys.len(),
            });
        }
        self.layers.push(Layer::Line { xs, ys });
        Ok(self)
    }

    pub fn title(mut self, t: impl Into<String>) -> Figure {
        self.title = Some(t.into());
        self
    }

    pub fn xlabel(mut self, l: impl Into<String>) -> Figure {
        self.xlabel = Some(l.into());
        self
    }

    pub fn ylabel(mut self, l: impl Into<String>) -> Figure {
        self.ylabel = Some(l.into());
        self
    }

    /// Render to terminal text (the `plt.show()` analogue).
    pub fn show(&self) -> String {
        let mut out = String::new();
        if let Some(t) = &self.title {
            out.push_str(&format!("── {t} ──\n"));
        }
        for layer in &self.layers {
            match layer {
                Layer::Bar { labels, heights } => {
                    let max = heights.iter().cloned().fold(f64::MIN, f64::max).max(1e-12);
                    let w = labels.iter().map(String::len).max().unwrap_or(1);
                    for (l, h) in labels.iter().zip(heights) {
                        let n = ((h / max).max(0.0) * 40.0).round() as usize;
                        out.push_str(&format!("{l:>w$} | {} {h:.2}\n", "█".repeat(n)));
                    }
                }
                Layer::Scatter { xs, ys } | Layer::Line { xs, ys } => {
                    out.push_str(&format!("({} points)\n", xs.len().min(ys.len())));
                }
            }
        }
        match (&self.xlabel, &self.ylabel) {
            (Some(x), Some(y)) => out.push_str(&format!("x: {x}  y: {y}\n")),
            (Some(x), None) => out.push_str(&format!("x: {x}\n")),
            (None, Some(y)) => out.push_str(&format!("y: {y}\n")),
            (None, None) => {}
        }
        out
    }
}

/// The full imperative workflow for the paper's Q3, exactly as a matplotlib
/// user would write it: manual group-by, manual mean, manual chart assembly.
/// Returns the rendered figure (used by the Figure-6 harness and tests).
pub fn q3_imperative(df: &DataFrame) -> Result<String> {
    // 1. wrangle: group Age by Education and compute the mean by hand
    let grouped = df.groupby(&["Education"])?.agg(&[("Age", Agg::Mean)])?;
    let mut labels = Vec::new();
    let mut heights = Vec::new();
    for i in 0..grouped.num_rows() {
        labels.push(grouped.value(i, "Education")?.to_string());
        heights.push(grouped.value(i, "Age")?.as_f64().unwrap_or(0.0));
    }
    // 2. specify: every visual element, explicitly
    let fig = Figure::new()
        .bar(labels, heights)?
        .title("Average Age by Education")
        .xlabel("Education")
        .ylabel("mean(Age)");
    Ok(fig.show())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn df() -> DataFrame {
        DataFrameBuilder::new()
            .float("Age", [25.0, 35.0, 45.0, 55.0])
            .str("Education", ["BS", "BS", "MS", "MS"])
            .build()
            .unwrap()
    }

    #[test]
    fn q3_imperative_produces_bar_chart() {
        let out = q3_imperative(&df()).unwrap();
        assert!(out.contains("Average Age by Education"));
        assert!(out.contains('█'));
        assert!(out.contains("mean(Age)"));
    }

    #[test]
    fn figure_validates_lengths() {
        assert!(Figure::new().bar(vec!["a".into()], vec![1.0, 2.0]).is_err());
        assert!(Figure::new().scatter(vec![1.0], vec![]).is_err());
        assert!(Figure::new().line(vec![1.0], vec![2.0]).is_ok());
    }

    #[test]
    fn show_renders_scatter_count_and_labels() {
        let fig = Figure::new()
            .scatter(vec![1.0, 2.0], vec![3.0, 4.0])
            .unwrap()
            .xlabel("a");
        let s = fig.show();
        assert!(s.contains("(2 points)"));
        assert!(s.contains("x: a"));
    }
}
