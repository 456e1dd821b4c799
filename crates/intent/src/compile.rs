//! Intent compilation (paper §7.1.2): **Expand** the clause cross-product,
//! **Lookup** metadata to fill omitted details and drop invalid combinations,
//! and **Infer** marks/channels/transforms via rule-based design heuristics.

use lux_dataframe::prelude::*;
use lux_engine::{FrameMeta, LuxConfig, SemanticType};
use lux_vis::{Channel, Encoding, FilterSpec, Mark, VisSpec};

use crate::clause::{AttributeSpec, Clause, ValueSpec};

/// Compilation knobs.
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// Cap on values a filter wildcard may enumerate.
    pub max_filter_expansions: usize,
    /// Default histogram bin count.
    pub histogram_bins: usize,
    /// Hard cap on the expanded cross-product, guarding against runaway
    /// wildcard × wildcard × wildcard intents.
    pub max_visualizations: usize,
    /// Frames with more rows than this get heatmaps instead of
    /// scatterplots for quantitative pairs (Lux's large-data behavior —
    /// overplotted scatters are both unreadable and expensive to ship).
    pub scatter_row_threshold: usize,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            max_filter_expansions: 24,
            histogram_bins: 10,
            max_visualizations: 50_000,
            scatter_row_threshold: 50_000,
        }
    }
}

/// How a [`LuxConfig`] becomes compilation options — the one place.
impl From<&LuxConfig> for CompileOptions {
    fn from(config: &LuxConfig) -> CompileOptions {
        CompileOptions {
            max_filter_expansions: config.max_filter_expansions,
            histogram_bins: config.histogram_bins,
            ..CompileOptions::default()
        }
    }
}

/// A fully-expanded axis: one attribute, its semantic type (resolved once,
/// at expansion; `None` when the metadata has no such column) and the
/// clause's carried-over options.
#[derive(Debug, Clone, Copy)]
struct ConcreteAxis<'a> {
    attribute: &'a str,
    semantic: Option<SemanticType>,
    channel: Option<Channel>,
    aggregation: Option<Agg>,
    bin_size: Option<usize>,
}

#[derive(Debug, Clone)]
enum ConcreteClause<'a> {
    Axis(ConcreteAxis<'a>),
    /// A filter, and whether the metadata has its column.
    Filter(FilterSpec, bool),
}

/// Compile a validated intent into complete [`VisSpec`]s.
///
/// With `n_i` alternatives for the i-th clause, the result contains up to
/// `n_1 × n_2 × ... × n_k` visualizations (Eq. 4-5 in the paper); invalid
/// combinations (repeated attributes, unsupported arities) are dropped in
/// the Lookup step.
pub fn compile(intent: &[Clause], meta: &FrameMeta, opts: &CompileOptions) -> Result<Vec<VisSpec>> {
    // ---- Expand -------------------------------------------------------
    let per_clause: Vec<Vec<ConcreteClause>> = intent
        .iter()
        .map(|c| expand_clause(c, meta, opts))
        .collect::<Result<_>>()?;

    let mut combos: Vec<Vec<&ConcreteClause>> = vec![Vec::new()];
    for alternatives in &per_clause {
        let mut next = Vec::with_capacity(combos.len() * alternatives.len().max(1));
        for combo in &combos {
            for alt in alternatives {
                let mut c = combo.clone();
                c.push(alt);
                next.push(c);
                if next.len() > opts.max_visualizations {
                    return Err(Error::InvalidArgument(format!(
                        "intent expands to more than {} visualizations",
                        opts.max_visualizations
                    )));
                }
            }
        }
        combos = next;
    }

    // ---- Lookup + Infer ------------------------------------------------
    let mut specs = Vec::new();
    for combo in combos {
        let mut axes: Vec<ConcreteAxis> = Vec::new();
        let mut filters: Vec<FilterSpec> = Vec::new();
        let mut known = true;
        for cc in combo {
            match cc {
                ConcreteClause::Axis(a) => axes.push(*a),
                ConcreteClause::Filter(f, has_column) => {
                    known &= has_column;
                    filters.push(f.clone());
                }
            }
        }
        // A filter on a column the metadata lacks invalidates the combo.
        if known {
            specs.extend(lookup_and_infer(&axes, filters, meta.num_rows, opts));
        }
    }
    Ok(specs)
}

fn expand_clause<'a>(
    clause: &'a Clause,
    meta: &'a FrameMeta,
    opts: &CompileOptions,
) -> Result<Vec<ConcreteClause<'a>>> {
    match clause {
        Clause::Axis {
            attribute,
            channel,
            aggregation,
            bin_size,
        } => {
            let axis = |attribute: &'a str, semantic| {
                ConcreteClause::Axis(ConcreteAxis {
                    attribute,
                    semantic,
                    channel: *channel,
                    aggregation: *aggregation,
                    bin_size: *bin_size,
                })
            };
            let axes: Vec<ConcreteClause> = match attribute {
                AttributeSpec::Named(names) => names
                    .iter()
                    .map(|n| axis(n, meta.column(n).map(|c| c.semantic)))
                    .collect(),
                AttributeSpec::Wildcard { constraint } => meta
                    .columns
                    .iter()
                    .filter(|c| c.semantic != SemanticType::Id)
                    .filter(|c| constraint.is_none_or(|t| c.semantic == t))
                    .map(|c| axis(&c.name, Some(c.semantic)))
                    .collect(),
            };
            if axes.is_empty() {
                return Err(Error::InvalidArgument(
                    "axis clause matches no columns".to_string(),
                ));
            }
            Ok(axes)
        }
        Clause::Filter {
            attribute,
            op,
            value,
        } => {
            let column = meta.column(attribute);
            let values: Vec<Value> = match value {
                ValueSpec::One(v) => vec![v.clone()],
                ValueSpec::Union(vs) => vs.clone(),
                ValueSpec::Wildcard => {
                    let cm = column.ok_or_else(|| Error::ColumnNotFound(attribute.clone()))?;
                    cm.unique_values
                        .iter()
                        .take(opts.max_filter_expansions)
                        .cloned()
                        .collect()
                }
            };
            if values.is_empty() {
                return Err(Error::InvalidArgument(format!(
                    "filter on {attribute:?} matches no values"
                )));
            }
            Ok(values
                .into_iter()
                .map(|v| {
                    let filter = FilterSpec::new(attribute.clone(), *op, v);
                    ConcreteClause::Filter(filter, column.is_some())
                })
                .collect())
        }
    }
}

/// Lookup each axis's semantic type and infer the mark/channels. Returns
/// `None` for combinations that are invalid or would use ineffective
/// encodings (the compiler "removes any invalid visualizations", §7.1.2).
fn lookup_and_infer(
    axes: &[ConcreteAxis],
    filters: Vec<FilterSpec>,
    meta_rows: usize,
    opts: &CompileOptions,
) -> Option<VisSpec> {
    // Drop combos that repeat an attribute (cross-products of overlapping
    // unions/wildcards produce e.g. Age vs Age).
    for i in 0..axes.len() {
        for j in i + 1..axes.len() {
            if axes[i].attribute == axes[j].attribute {
                return None;
            }
        }
    }
    // Unknown columns or Id columns invalidate.
    let semantics: Vec<SemanticType> = axes.iter().map(|a| a.semantic).collect::<Option<_>>()?;
    if semantics.contains(&SemanticType::Id) {
        return None;
    }

    match axes.len() {
        1 => infer_univariate(&axes[0], semantics[0], filters, opts),
        2 => infer_bivariate(axes, &semantics, filters, opts, meta_rows),
        3 => infer_trivariate(axes, &semantics, filters, opts, meta_rows),
        // 0 axes (pure filter intents) and >3 axes are not chartable here;
        // actions handle the 0-axis case by adding their own axes.
        _ => None,
    }
}

fn encoding_of(axis: &ConcreteAxis, semantic: SemanticType, channel: Channel) -> Encoding {
    let mut e = Encoding::new(axis.attribute, semantic, channel);
    e.aggregation = axis.aggregation;
    e.bin = axis.bin_size;
    e
}

fn infer_univariate(
    axis: &ConcreteAxis,
    semantic: SemanticType,
    filters: Vec<FilterSpec>,
    opts: &CompileOptions,
) -> Option<VisSpec> {
    let spec = match semantic {
        SemanticType::Quantitative => {
            let mut x = encoding_of(axis, semantic, Channel::X);
            if x.bin.is_none() {
                x.bin = Some(opts.histogram_bins);
            }
            VisSpec::new(
                Mark::Histogram,
                vec![x, Encoding::synthetic_count(Channel::Y)],
                filters,
            )
        }
        SemanticType::Nominal => VisSpec::new(
            Mark::Bar,
            vec![
                encoding_of(axis, semantic, Channel::X),
                Encoding::synthetic_count(Channel::Y),
            ],
            filters,
        ),
        SemanticType::Temporal => VisSpec::new(
            Mark::Line,
            vec![
                encoding_of(axis, semantic, Channel::X),
                Encoding::synthetic_count(Channel::Y),
            ],
            filters,
        ),
        SemanticType::Geographic => VisSpec::new(
            Mark::Choropleth,
            vec![
                encoding_of(axis, semantic, Channel::X),
                Encoding::synthetic_count(Channel::Y),
            ],
            filters,
        ),
        SemanticType::Id => return None,
    };
    Some(spec)
}

fn is_measure(axis: &ConcreteAxis, semantic: SemanticType) -> bool {
    semantic == SemanticType::Quantitative || axis.aggregation.is_some()
}

fn infer_bivariate(
    axes: &[ConcreteAxis],
    semantics: &[SemanticType],
    filters: Vec<FilterSpec>,
    opts: &CompileOptions,
    meta_rows: usize,
) -> Option<VisSpec> {
    let (a, b) = (&axes[0], &axes[1]);
    let (sa, sb) = (semantics[0], semantics[1]);
    let both_measures = is_measure(a, sa)
        && is_measure(b, sb)
        && a.aggregation.is_none()
        && b.aggregation.is_none();

    if both_measures {
        // Q x Q. Both binned, or too many rows to plot points -> heatmap;
        // otherwise scatter.
        let mark = if (a.bin_size.is_some() && b.bin_size.is_some())
            || meta_rows > opts.scatter_row_threshold
        {
            Mark::Heatmap
        } else {
            Mark::Scatter
        };
        // Explicit channels are honored; otherwise clause order (first -> x).
        let ((xa, sx), (ya, sy)) = if a.channel == Some(Channel::Y) || b.channel == Some(Channel::X)
        {
            ((b, sb), (a, sa))
        } else {
            ((a, sa), (b, sb))
        };
        return Some(VisSpec::new(
            mark,
            vec![
                encoding_of(xa, sx, Channel::X),
                encoding_of(ya, sy, Channel::Y),
            ],
            filters,
        ));
    }

    // Dimension + measure -> grouped aggregate chart.
    let (dim_i, msr_i) = if is_measure(a, sa) && !is_measure(b, sb) {
        (1usize, 0usize)
    } else if is_measure(b, sb) && !is_measure(a, sa) {
        (0usize, 1usize)
    } else {
        // Dimension x dimension: bar of counts, second dimension on color.
        let x = encoding_of(&axes[0], semantics[0], Channel::X);
        let color = encoding_of(&axes[1], semantics[1], Channel::Color);
        let mark = mark_for_dimension(semantics[0]);
        return Some(VisSpec::new(
            mark,
            vec![x, Encoding::synthetic_count(Channel::Y), color],
            filters,
        ));
    };
    let x = encoding_of(&axes[dim_i], semantics[dim_i], Channel::X);
    let y = encoding_of(&axes[msr_i], semantics[msr_i], Channel::Y);
    Some(dimension_by_measure(x, y, filters))
}

fn infer_trivariate(
    axes: &[ConcreteAxis],
    semantics: &[SemanticType],
    filters: Vec<FilterSpec>,
    opts: &CompileOptions,
    meta_rows: usize,
) -> Option<VisSpec> {
    // Choose the color axis: an explicitly-assigned color, else the last
    // dimension, else the last axis.
    let color_i = axes
        .iter()
        .position(|a| a.channel == Some(Channel::Color))
        .or_else(|| (0..3).rev().find(|&i| !is_measure(&axes[i], semantics[i])))
        .unwrap_or(2);
    let rest: Vec<usize> = (0..3).filter(|&i| i != color_i).collect();
    let base_axes = [axes[rest[0]], axes[rest[1]]];
    let base_sem = [semantics[rest[0]], semantics[rest[1]]];
    let mut spec = infer_bivariate(&base_axes, &base_sem, filters, opts, meta_rows)?;
    // Colored bar/line charts must not exceed 2D group-by: a quantitative
    // color on an aggregate chart gets a mean aggregation.
    let mut color = encoding_of(&axes[color_i], semantics[color_i], Channel::Color);
    if spec.mark != Mark::Scatter
        && spec.mark != Mark::Heatmap
        && semantics[color_i] == SemanticType::Quantitative
        && color.aggregation.is_none()
    {
        color.aggregation = Some(Agg::Mean);
    }
    spec.encodings.push(color);
    Some(spec)
}

/// Infer's dimension-by-measure rule: the dimension `x` drawn with the mark
/// its semantic type calls for, against the measure `y` — averaged unless it
/// carries its own aggregation ("by default, average is the function used
/// for aggregation", Q3). Exported for the builders whose dimension is not a
/// column of the frame's metadata (an aggregate's index labels, say).
pub fn dimension_by_measure(x: Encoding, mut y: Encoding, filters: Vec<FilterSpec>) -> VisSpec {
    y.aggregation.get_or_insert(Agg::Mean);
    VisSpec::new(mark_for_dimension(x.semantic), vec![x, y], filters)
}

fn mark_for_dimension(s: SemanticType) -> Mark {
    match s {
        SemanticType::Temporal => Mark::Line,
        SemanticType::Geographic => Mark::Choropleth,
        _ => Mark::Bar,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clause::Clause;
    use std::collections::HashMap;

    fn meta() -> FrameMeta {
        let df = DataFrameBuilder::new()
            .float("Age", [25.0, 32.0, 47.0])
            .float("Income", [50.0, 80.0, 60.0])
            .str("Education", ["HS", "BS", "MS"])
            .str("Country", ["USA", "France", "Japan"])
            .datetime("Date", ["2020-01-01", "2020-01-02", "2020-01-03"])
            .build()
            .unwrap();
        FrameMeta::compute(&df, &HashMap::new())
    }

    fn compile_one(intent: &[Clause]) -> VisSpec {
        let specs = compile(intent, &meta(), &CompileOptions::default()).unwrap();
        assert_eq!(specs.len(), 1, "expected exactly one vis, got {specs:?}");
        specs.into_iter().next().unwrap()
    }

    #[test]
    fn single_quantitative_becomes_histogram() {
        let spec = compile_one(&[Clause::axis("Age")]);
        assert_eq!(spec.mark, Mark::Histogram);
        assert_eq!(spec.channel(Channel::X).unwrap().bin, Some(10));
    }

    #[test]
    fn single_nominal_becomes_count_bar() {
        let spec = compile_one(&[Clause::axis("Education")]);
        assert_eq!(spec.mark, Mark::Bar);
        assert!(spec.channel(Channel::Y).unwrap().synthetic);
    }

    #[test]
    fn single_temporal_line_and_geo_map() {
        assert_eq!(compile_one(&[Clause::axis("Date")]).mark, Mark::Line);
        assert_eq!(
            compile_one(&[Clause::axis("Country")]).mark,
            Mark::Choropleth
        );
    }

    #[test]
    fn q3_dimension_measure_bar_with_mean() {
        // Q3: Compare average Age across Education levels.
        let spec = compile_one(&[Clause::axis("Age"), Clause::axis("Education")]);
        assert_eq!(spec.mark, Mark::Bar);
        assert_eq!(spec.channel(Channel::X).unwrap().attribute, "Education");
        let y = spec.channel(Channel::Y).unwrap();
        assert_eq!(y.attribute, "Age");
        assert_eq!(y.aggregation, Some(Agg::Mean));
    }

    #[test]
    fn q4_explicit_aggregation_override() {
        let spec = compile_one(&[
            Clause::axis("Income").aggregate(Agg::Var),
            Clause::axis("Education"),
        ]);
        assert_eq!(
            spec.channel(Channel::Y).unwrap().aggregation,
            Some(Agg::Var)
        );
    }

    #[test]
    fn two_quantitative_becomes_scatter() {
        let spec = compile_one(&[Clause::axis("Age"), Clause::axis("Income")]);
        assert_eq!(spec.mark, Mark::Scatter);
        assert_eq!(spec.channel(Channel::X).unwrap().attribute, "Age");
        assert_eq!(spec.channel(Channel::Y).unwrap().attribute, "Income");
    }

    #[test]
    fn explicit_channel_is_honored() {
        let spec = compile_one(&[
            Clause::axis("Age").on_channel(Channel::Y),
            Clause::axis("Income"),
        ]);
        assert_eq!(spec.channel(Channel::Y).unwrap().attribute, "Age");
        assert_eq!(spec.channel(Channel::X).unwrap().attribute, "Income");
    }

    #[test]
    fn q2_axis_plus_filter() {
        let spec = compile_one(&[
            Clause::axis("Age"),
            Clause::filter("Education", FilterOp::Eq, Value::str("BS")),
        ]);
        assert_eq!(spec.mark, Mark::Histogram);
        assert_eq!(spec.filters.len(), 1);
        assert_eq!(spec.filters[0].attribute, "Education");
    }

    #[test]
    fn q5_union_fans_out() {
        let specs = compile(
            &[
                Clause::axis("Education"),
                Clause::axis_union(["Age", "Income"]),
            ],
            &meta(),
            &CompileOptions::default(),
        )
        .unwrap();
        assert_eq!(specs.len(), 2);
        assert!(specs.iter().all(|s| s.mark == Mark::Bar));
    }

    #[test]
    fn q6_wildcard_pairs_exclude_self_pairs() {
        let intent = vec![
            Clause::wildcard_typed(SemanticType::Quantitative),
            Clause::wildcard_typed(SemanticType::Quantitative),
        ];
        let specs = compile(&intent, &meta(), &CompileOptions::default()).unwrap();
        // 2 quantitative columns -> 2x2 cross-product minus 2 self-pairs.
        assert_eq!(specs.len(), 2);
        assert!(specs.iter().all(|s| s.mark == Mark::Scatter));
    }

    #[test]
    fn q7_filter_wildcard_enumerates_values() {
        let intent = vec![Clause::axis("Age"), Clause::filter_wildcard("Country")];
        let specs = compile(&intent, &meta(), &CompileOptions::default()).unwrap();
        assert_eq!(specs.len(), 3); // USA, France, Japan
        assert!(specs
            .iter()
            .all(|s| s.mark == Mark::Histogram && s.filters.len() == 1));
    }

    #[test]
    fn three_axes_color_encoding() {
        let spec = compile_one(&[
            Clause::axis("Age"),
            Clause::axis("Income"),
            Clause::axis("Education"),
        ]);
        assert_eq!(spec.mark, Mark::Scatter);
        assert_eq!(spec.channel(Channel::Color).unwrap().attribute, "Education");
    }

    #[test]
    fn dimension_pair_uses_color_count_bar() {
        let spec = compile_one(&[Clause::axis("Education"), Clause::axis("Country")]);
        assert_eq!(spec.mark, Mark::Bar);
        assert_eq!(spec.channel(Channel::Color).unwrap().attribute, "Country");
        assert!(spec.channel(Channel::Y).unwrap().synthetic);
    }

    #[test]
    fn large_frames_switch_scatter_to_heatmap() {
        let opts = CompileOptions {
            scatter_row_threshold: 2,
            ..CompileOptions::default()
        };
        let specs = compile(
            &[Clause::axis("Age"), Clause::axis("Income")],
            &meta(),
            &opts,
        )
        .unwrap();
        assert_eq!(specs[0].mark, Mark::Heatmap); // fixture has 3 rows > 2
                                                  // small threshold not crossed -> scatter
        let opts = CompileOptions {
            scatter_row_threshold: 100,
            ..CompileOptions::default()
        };
        let specs = compile(
            &[Clause::axis("Age"), Clause::axis("Income")],
            &meta(),
            &opts,
        )
        .unwrap();
        assert_eq!(specs[0].mark, Mark::Scatter);
    }

    #[test]
    fn binned_pair_becomes_heatmap() {
        let spec = compile_one(&[Clause::axis("Age").bin(10), Clause::axis("Income").bin(10)]);
        assert_eq!(spec.mark, Mark::Heatmap);
    }

    #[test]
    fn unknown_column_yields_no_specs() {
        let specs = compile(&[Clause::axis("Nope")], &meta(), &CompileOptions::default()).unwrap();
        assert!(specs.is_empty());
    }

    #[test]
    fn expansion_cap_enforced() {
        let opts = CompileOptions {
            max_visualizations: 2,
            ..CompileOptions::default()
        };
        let intent = vec![Clause::wildcard(), Clause::wildcard()];
        assert!(compile(&intent, &meta(), &opts).is_err());
    }

    #[test]
    fn four_axes_unsupported() {
        let intent = vec![
            Clause::axis("Age"),
            Clause::axis("Income"),
            Clause::axis("Education"),
            Clause::axis("Country"),
        ];
        let specs = compile(&intent, &meta(), &CompileOptions::default()).unwrap();
        assert!(specs.is_empty());
    }
}
