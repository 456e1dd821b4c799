//! Export a visualization back to source code (the paper's §3 workflow:
//! "print it as code, following which she can tweak the plotting style").
//!
//! [`to_rust_code`] emits a self-contained Rust snippet that reconstructs
//! the `Vis` against a dataframe named `df`; [`super::vega`] covers the
//! declarative-JSON export path.

use crate::spec::{Channel, VisSpec};
use lux_dataframe::prelude::*;

fn value_literal(v: &Value) -> String {
    match v {
        Value::Null => "Value::Null".to_string(),
        Value::Int(x) => format!("Value::Int({x})"),
        Value::Float(x) => format!("Value::Float({x:?})"),
        Value::Bool(b) => format!("Value::Bool({b})"),
        Value::Str(s) => format!("Value::str({:?})", s.as_ref()),
        Value::DateTime(x) => format!("Value::DateTime({x})"),
    }
}

fn filter_op_literal(op: FilterOp) -> &'static str {
    match op {
        FilterOp::Eq => "FilterOp::Eq",
        FilterOp::Ne => "FilterOp::Ne",
        FilterOp::Gt => "FilterOp::Gt",
        FilterOp::Lt => "FilterOp::Lt",
        FilterOp::Ge => "FilterOp::Ge",
        FilterOp::Le => "FilterOp::Le",
    }
}

/// Emit Rust code that rebuilds `spec` via the intent API and renders it.
pub fn to_rust_code(spec: &VisSpec) -> String {
    let mut lines = vec!["// Exported from the Lux widget. `df` is your LuxDataFrame.".to_string()];
    let mut clause_names = Vec::new();
    for (i, e) in spec.encodings.iter().enumerate() {
        if e.synthetic {
            continue;
        }
        let var = format!("axis{i}");
        let mut build = format!("let {var} = Clause::axis({:?})", e.attribute);
        if e.channel != Channel::Y || e.aggregation.is_none() {
            build.push_str(&format!(".on_channel(Channel::{:?})", e.channel));
        }
        if let Some(agg) = e.aggregation {
            build.push_str(&format!(".aggregate(Agg::{})", agg_variant(agg)));
        }
        if let Some(bins) = e.bin {
            build.push_str(&format!(".bin({bins})"));
        }
        build.push(';');
        lines.push(build);
        clause_names.push(var);
    }
    for (i, f) in spec.filters.iter().enumerate() {
        let var = format!("filter{i}");
        lines.push(format!(
            "let {var} = Clause::filter({:?}, {}, {});",
            f.attribute,
            filter_op_literal(f.op),
            value_literal(&f.value)
        ));
        clause_names.push(var);
    }
    lines.push(format!(
        "let vis = Vis::new(vec![{}], &df)?;",
        clause_names.join(", ")
    ));
    lines.push("println!(\"{}\", vis.render_ascii());".to_string());
    lines.join("\n")
}

fn agg_variant(agg: Agg) -> &'static str {
    match agg {
        Agg::Count => "Count",
        Agg::Sum => "Sum",
        Agg::Mean => "Mean",
        Agg::Min => "Min",
        Agg::Max => "Max",
        Agg::Var => "Var",
        Agg::Std => "Std",
        Agg::Median => "Median",
        Agg::First => "First",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Encoding, FilterSpec, Mark};
    use lux_engine::SemanticType;

    #[test]
    fn exports_axes_filters_and_transforms() {
        let spec = VisSpec::new(
            Mark::Bar,
            vec![
                Encoding::new("dept", SemanticType::Nominal, Channel::X),
                Encoding::new("pay", SemanticType::Quantitative, Channel::Y)
                    .with_aggregation(Agg::Var),
            ],
            vec![FilterSpec::new("country", FilterOp::Eq, Value::str("USA"))],
        );
        let code = to_rust_code(&spec);
        assert!(code.contains("Clause::axis(\"dept\")"));
        assert!(code.contains("Agg::Var"));
        assert!(code.contains("Clause::filter(\"country\", FilterOp::Eq, Value::str(\"USA\"))"));
        assert!(code.contains("Vis::new(vec![axis0, axis1, filter0], &df)?"));
    }

    #[test]
    fn synthetic_encodings_are_skipped() {
        let spec = VisSpec::new(
            Mark::Histogram,
            vec![
                Encoding::new("v", SemanticType::Quantitative, Channel::X).with_bin(10),
                Encoding::synthetic_count(Channel::Y),
            ],
            vec![],
        );
        let code = to_rust_code(&spec);
        assert!(!code.contains("\"count\""));
        assert!(code.contains(".bin(10)"));
    }
}
