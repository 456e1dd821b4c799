//! Complete visualization specifications.
//!
//! A [`VisSpec`] is the output of intent compilation: every detail needed to
//! process and render one visualization — mark, channel encodings (with
//! aggregation/binning transforms), and filters. It corresponds to the
//! paper's fully-compiled `Vis` (§7.1.2 after Expand/Lookup/Infer).

use std::fmt;

use lux_dataframe::prelude::*;
use lux_engine::SemanticType;

/// The mark (chart) types Lux produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mark {
    Bar,
    Line,
    Scatter,
    Histogram,
    Heatmap,
    /// Choropleth map for geographic attributes. Rendered headlessly as a
    /// region -> value table (frontend drawing is out of scope, as in the
    /// paper's measurements which exclude drawing time).
    Choropleth,
}

impl Mark {
    pub fn name(self) -> &'static str {
        match self {
            Mark::Bar => "bar",
            Mark::Line => "line",
            Mark::Scatter => "scatter",
            Mark::Histogram => "histogram",
            Mark::Heatmap => "heatmap",
            Mark::Choropleth => "choropleth",
        }
    }
}

impl fmt::Display for Mark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The primary relational operation of a visualization (Table 2), which
/// [`VisSpec::op_class`] reads off its mark and channels and the cost model
/// prices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Scatterplot: selection on 2 columns.
    Selection2,
    /// Colored scatterplot: selection on 3 columns.
    Selection3,
    /// Line/Bar: group-by aggregation.
    GroupAgg,
    /// Colored line/bar: 2D group-by aggregation.
    GroupAgg2D,
    /// Histogram: bin + count.
    BinCount,
    /// Heatmap: 2D bin + count.
    BinCount2D,
    /// Colored heatmap: 2D bin + count + group-by aggregation.
    BinCount2DGroup,
}

impl OpClass {
    pub fn name(self) -> &'static str {
        match self {
            OpClass::Selection2 => "selection-2col",
            OpClass::Selection3 => "selection-3col",
            OpClass::GroupAgg => "group-by-agg",
            OpClass::GroupAgg2D => "2d-group-by-agg",
            OpClass::BinCount => "bin+count",
            OpClass::BinCount2D => "2d-bin+count",
            OpClass::BinCount2DGroup => "2d-bin+count+group-by",
        }
    }

    /// All classes, for sweeps and the Table 2 bench.
    pub const ALL: [OpClass; 7] = [
        OpClass::Selection2,
        OpClass::Selection3,
        OpClass::GroupAgg,
        OpClass::GroupAgg2D,
        OpClass::BinCount,
        OpClass::BinCount2D,
        OpClass::BinCount2DGroup,
    ];
}

/// The visual channel an attribute maps to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Channel {
    X,
    Y,
    Color,
}

impl Channel {
    pub fn name(self) -> &'static str {
        match self {
            Channel::X => "x",
            Channel::Y => "y",
            Channel::Color => "color",
        }
    }

    /// Parse channel names accepted in intent clauses.
    pub fn parse(s: &str) -> Option<Channel> {
        match s.to_ascii_lowercase().as_str() {
            "x" => Some(Channel::X),
            "y" => Some(Channel::Y),
            "color" | "colour" => Some(Channel::Color),
            _ => None,
        }
    }
}

/// One attribute mapped to one channel, with optional transforms.
#[derive(Debug, Clone, PartialEq)]
pub struct Encoding {
    pub attribute: String,
    pub semantic: SemanticType,
    pub channel: Channel,
    /// Aggregation applied to this attribute (measures only).
    pub aggregation: Option<Agg>,
    /// Bin count when the attribute is binned (histograms/heatmaps).
    pub bin: Option<usize>,
    /// Synthetic encodings carry values computed by processing (e.g. the
    /// `count` axis of a histogram) rather than a source column.
    pub synthetic: bool,
}

impl Encoding {
    pub fn new(attribute: impl Into<String>, semantic: SemanticType, channel: Channel) -> Encoding {
        Encoding {
            attribute: attribute.into(),
            semantic,
            channel,
            aggregation: None,
            bin: None,
            synthetic: false,
        }
    }

    pub fn with_aggregation(mut self, agg: Agg) -> Encoding {
        self.aggregation = Some(agg);
        self
    }

    pub fn with_bin(mut self, bins: usize) -> Encoding {
        self.bin = Some(bins);
        self
    }

    pub fn synthetic_count(channel: Channel) -> Encoding {
        Encoding {
            attribute: "count".into(),
            semantic: SemanticType::Quantitative,
            channel,
            aggregation: Some(Agg::Count),
            bin: None,
            synthetic: true,
        }
    }
}

/// A concrete filter applied before processing.
#[derive(Debug, Clone, PartialEq)]
pub struct FilterSpec {
    pub attribute: String,
    pub op: FilterOp,
    pub value: Value,
}

impl FilterSpec {
    pub fn new(attribute: impl Into<String>, op: FilterOp, value: Value) -> FilterSpec {
        FilterSpec {
            attribute: attribute.into(),
            op,
            value,
        }
    }
}

impl fmt::Display for FilterSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.attribute, self.op, self.value)
    }
}

/// A complete visualization specification.
#[derive(Debug, Clone, PartialEq)]
pub struct VisSpec {
    pub mark: Mark,
    pub encodings: Vec<Encoding>,
    pub filters: Vec<FilterSpec>,
}

impl VisSpec {
    pub fn new(mark: Mark, encodings: Vec<Encoding>, filters: Vec<FilterSpec>) -> VisSpec {
        VisSpec {
            mark,
            encodings,
            filters,
        }
    }

    /// The encoding on a given channel, if any.
    pub fn channel(&self, channel: Channel) -> Option<&Encoding> {
        self.encodings.iter().find(|e| e.channel == channel)
    }

    /// Non-synthetic attributes referenced by this spec (encodings first,
    /// then filters), deduplicated in order.
    pub fn attributes(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for e in &self.encodings {
            if !e.synthetic && !out.contains(&e.attribute.as_str()) {
                out.push(&e.attribute);
            }
        }
        for f in &self.filters {
            if !out.contains(&f.attribute.as_str()) {
                out.push(&f.attribute);
            }
        }
        out
    }

    /// The primary relational operation class (Table 2), used by the cost
    /// model.
    pub fn op_class(&self) -> OpClass {
        let has_color = self.channel(Channel::Color).is_some();
        match self.mark {
            Mark::Scatter => {
                if has_color {
                    OpClass::Selection3
                } else {
                    OpClass::Selection2
                }
            }
            Mark::Bar | Mark::Line | Mark::Choropleth => {
                if has_color {
                    OpClass::GroupAgg2D
                } else {
                    OpClass::GroupAgg
                }
            }
            Mark::Histogram => OpClass::BinCount,
            Mark::Heatmap => {
                if has_color {
                    OpClass::BinCount2DGroup
                } else {
                    OpClass::BinCount2D
                }
            }
        }
    }

    /// Stable serialization of every field that affects processing, used to
    /// key the processed-vis memo cache. Unlike [`VisSpec::describe`] (a
    /// human-readable title), this includes channels, bin counts, semantic
    /// types, and synthetic markers, so two specs share a key only when
    /// processing them is guaranteed to produce the same result.
    pub fn cache_key(&self) -> String {
        use std::fmt::Write;
        let mut s = String::with_capacity(64);
        let _ = write!(s, "m={};", self.mark.name());
        for e in &self.encodings {
            let _ = write!(
                s,
                "e={}|{:?}|{}|{:?}|{:?}|{};",
                e.attribute,
                e.semantic,
                e.channel.name(),
                e.aggregation,
                e.bin,
                e.synthetic
            );
        }
        for f in &self.filters {
            let _ = write!(s, "f={}|{}|{:?};", f.attribute, f.op, f.value);
        }
        s
    }

    /// Human-readable one-line description, used as chart title.
    pub fn describe(&self) -> String {
        let enc: Vec<String> = self
            .encodings
            .iter()
            .filter(|e| !e.synthetic)
            .map(|e| match e.aggregation {
                Some(agg) => format!("{}({})", agg, e.attribute),
                None => e.attribute.clone(),
            })
            .collect();
        let mut s = format!("{} of {}", self.mark, enc.join(" vs "));
        if !self.filters.is_empty() {
            let fs: Vec<String> = self.filters.iter().map(|f| f.to_string()).collect();
            s.push_str(&format!(" | {}", fs.join(", ")));
        }
        s
    }
}

impl fmt::Display for VisSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.describe())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scatter(with_color: bool) -> VisSpec {
        let mut encs = vec![
            Encoding::new("a", SemanticType::Quantitative, Channel::X),
            Encoding::new("b", SemanticType::Quantitative, Channel::Y),
        ];
        if with_color {
            encs.push(Encoding::new("c", SemanticType::Nominal, Channel::Color));
        }
        VisSpec::new(Mark::Scatter, encs, vec![])
    }

    #[test]
    fn op_class_mapping_matches_table2() {
        assert_eq!(scatter(false).op_class(), OpClass::Selection2);
        assert_eq!(scatter(true).op_class(), OpClass::Selection3);
        let bar = VisSpec::new(
            Mark::Bar,
            vec![
                Encoding::new("g", SemanticType::Nominal, Channel::X),
                Encoding::new("v", SemanticType::Quantitative, Channel::Y)
                    .with_aggregation(Agg::Mean),
            ],
            vec![],
        );
        assert_eq!(bar.op_class(), OpClass::GroupAgg);
        let hist = VisSpec::new(
            Mark::Histogram,
            vec![
                Encoding::new("v", SemanticType::Quantitative, Channel::X).with_bin(10),
                Encoding::synthetic_count(Channel::Y),
            ],
            vec![],
        );
        assert_eq!(hist.op_class(), OpClass::BinCount);
        let heat = VisSpec::new(
            Mark::Heatmap,
            vec![
                Encoding::new("a", SemanticType::Quantitative, Channel::X).with_bin(10),
                Encoding::new("b", SemanticType::Quantitative, Channel::Y).with_bin(10),
            ],
            vec![],
        );
        assert_eq!(heat.op_class(), OpClass::BinCount2D);
    }

    #[test]
    fn class_names_unique() {
        let names: std::collections::HashSet<_> = OpClass::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), OpClass::ALL.len());
    }

    #[test]
    fn attributes_deduplicated_and_exclude_synthetic() {
        let spec = VisSpec::new(
            Mark::Histogram,
            vec![
                Encoding::new("v", SemanticType::Quantitative, Channel::X).with_bin(10),
                Encoding::synthetic_count(Channel::Y),
            ],
            vec![FilterSpec::new("v", FilterOp::Gt, Value::Int(0))],
        );
        assert_eq!(spec.attributes(), vec!["v"]);
    }

    #[test]
    fn describe_mentions_agg_and_filter() {
        let spec = VisSpec::new(
            Mark::Bar,
            vec![
                Encoding::new("dept", SemanticType::Nominal, Channel::X),
                Encoding::new("pay", SemanticType::Quantitative, Channel::Y)
                    .with_aggregation(Agg::Mean),
            ],
            vec![FilterSpec::new("country", FilterOp::Eq, Value::str("USA"))],
        );
        let d = spec.describe();
        assert!(d.contains("mean(pay)"));
        assert!(d.contains("country = USA"));
    }

    #[test]
    fn channel_lookup_and_parse() {
        let s = scatter(true);
        assert_eq!(s.channel(Channel::Color).unwrap().attribute, "c");
        assert_eq!(Channel::parse("COLOR"), Some(Channel::Color));
        assert_eq!(Channel::parse("z"), None);
    }
}
