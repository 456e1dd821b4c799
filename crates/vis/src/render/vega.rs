//! Vega-Lite JSON emission.
//!
//! A hand-rolled emitter (the JSON surface is small and write-only, so we
//! avoid a serde dependency). The output follows the Vega-Lite v5 shape that
//! Lux's Altair renderer produces: `mark`, `encoding` with field/type/
//! aggregate/bin, and inline `data.values`.

use lux_dataframe::prelude::*;
use lux_engine::trace::json_escape as esc;
use lux_engine::SemanticType;

use crate::spec::{Channel, Encoding, Mark, VisSpec};
use crate::vislist::Vis;

fn json_value(v: &Value) -> String {
    match v {
        Value::Null => "null".to_string(),
        Value::Int(x) => x.to_string(),
        Value::Float(x) => {
            if x.is_finite() {
                x.to_string()
            } else {
                "null".to_string()
            }
        }
        Value::Bool(b) => b.to_string(),
        Value::Str(s) => format!("\"{}\"", esc(s)),
        Value::DateTime(_) => format!("\"{}\"", esc(&v.to_string())),
    }
}

fn vega_type(s: SemanticType) -> &'static str {
    match s {
        SemanticType::Quantitative => "quantitative",
        SemanticType::Nominal | SemanticType::Id => "nominal",
        SemanticType::Temporal => "temporal",
        SemanticType::Geographic => "nominal",
    }
}

fn vega_mark(m: Mark) -> &'static str {
    match m {
        Mark::Bar | Mark::Histogram => "bar",
        Mark::Line => "line",
        Mark::Scatter => "circle",
        Mark::Heatmap => "rect",
        Mark::Choropleth => "geoshape",
    }
}

fn encoding_json(e: &Encoding) -> String {
    let mut parts = vec![
        format!("\"field\": \"{}\"", esc(&e.attribute)),
        format!("\"type\": \"{}\"", vega_type(e.semantic)),
    ];
    if let Some(agg) = e.aggregation {
        if !e.synthetic {
            parts.push(format!("\"aggregate\": \"{}\"", agg.name()));
        }
    }
    if e.bin.is_some() {
        parts.push("\"bin\": {\"binned\": true}".to_string());
    }
    format!("{{{}}}", parts.join(", "))
}

/// Emit the full Vega-Lite spec for a processed [`Vis`]. Data values come
/// from the processed frame; an unprocessed vis gets an empty data array.
pub fn to_vega_lite(vis: &Vis) -> String {
    let spec = &vis.spec;
    let mut enc_parts: Vec<String> = Vec::new();
    for channel in [Channel::X, Channel::Y, Channel::Color] {
        if let Some(e) = spec.channel(channel) {
            enc_parts.push(format!("\"{}\": {}", channel.name(), encoding_json(e)));
        }
    }

    let values = match &vis.data {
        Some(df) => data_values_json(df),
        None => "[]".to_string(),
    };

    format!(
        "{{\n  \"$schema\": \"https://vega.github.io/schema/vega-lite/v5.json\",\n  \"title\": \"{}\",\n  \"mark\": \"{}\",\n  \"encoding\": {{{}}},\n  \"data\": {{\"values\": {}}}\n}}",
        esc(&vis.title()),
        vega_mark(spec.mark),
        enc_parts.join(", "),
        values
    )
}

/// The spec without data (for tests and diffing).
pub fn to_vega_lite_spec_only(spec: &VisSpec) -> String {
    to_vega_lite(&Vis::new(spec.clone()))
}

fn data_values_json(df: &DataFrame) -> String {
    let names = df.column_names();
    let mut rows = Vec::with_capacity(df.num_rows());
    for r in 0..df.num_rows() {
        let fields: Vec<String> = names
            .iter()
            .enumerate()
            .map(|(c, n)| format!("\"{}\": {}", esc(n), json_value(&df.column_at(c).value(r))))
            .collect();
        rows.push(format!("{{{}}}", fields.join(", ")));
    }
    format!("[{}]", rows.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::ProcessOptions;

    fn vis() -> Vis {
        let spec = VisSpec::new(
            Mark::Bar,
            vec![
                Encoding::new("dept", SemanticType::Nominal, Channel::X),
                Encoding::new("pay", SemanticType::Quantitative, Channel::Y)
                    .with_aggregation(Agg::Mean),
            ],
            vec![],
        );
        Vis::new(spec)
    }

    #[test]
    fn spec_only_has_mark_and_encoding() {
        let json = to_vega_lite_spec_only(&vis().spec);
        assert!(json.contains("\"mark\": \"bar\""));
        assert!(json.contains("\"field\": \"dept\""));
        assert!(json.contains("\"aggregate\": \"mean\""));
        assert!(json.contains("\"values\": []"));
    }

    #[test]
    fn processed_vis_embeds_data() {
        let df = DataFrameBuilder::new()
            .str("dept", ["A", "B"])
            .float("pay", [1.0, 2.0])
            .build()
            .unwrap();
        let mut v = vis();
        v.process(&df, &ProcessOptions::default()).unwrap();
        let json = to_vega_lite(&v);
        assert!(json.contains("\"dept\": \"B\""));
        assert!(json.contains("\"pay\": 2"));
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_value(&Value::str("x\"y")), "\"x\\\"y\"");
        assert_eq!(json_value(&Value::Float(f64::NAN)), "null");
        assert_eq!(json_value(&Value::Null), "null");
    }

    #[test]
    fn json_is_balanced() {
        let json = to_vega_lite_spec_only(&vis().spec);
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }
}
