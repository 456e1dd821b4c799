//! The SQL execution path (paper §7): the engine can process visualization
//! data "either as a series of dataframe operations ... or equivalently in
//! SQL queries in relational databases". This example shows the statement
//! each Table-2 visualization type's relational step lowers to (a binned
//! chart reads its bounds with one `MIN`/`MAX` statement first), runs a
//! full print through the SQL backend, and demonstrates the standalone mini
//! SQL engine.
//!
//! ```sh
//! cargo run --release --example sql_backend
//! ```

use std::sync::Arc;

use lux::dataframe::sql::query_frame;
use lux::prelude::*;
use lux::vis::{to_sql, ProcessOptions};
use lux::workloads::airbnb;

fn main() -> Result<()> {
    let df = airbnb(10_000, 1);

    // 1. The SQL each chart type compiles to.
    let q = SemanticType::Quantitative;
    let n = SemanticType::Nominal;
    let specs = vec![
        (
            "scatterplot",
            VisSpec::new(
                Mark::Scatter,
                vec![
                    Encoding::new("price", q, Channel::X),
                    Encoding::new("number_of_reviews", q, Channel::Y),
                ],
                vec![FilterSpec::new(
                    "room_type",
                    FilterOp::Eq,
                    Value::str("Private room"),
                )],
            ),
        ),
        (
            "bar (mean price per borough)",
            VisSpec::new(
                Mark::Bar,
                vec![
                    Encoding::new("neighbourhood_group", n, Channel::X),
                    Encoding::new("price", q, Channel::Y).with_aggregation(Agg::Mean),
                ],
                vec![],
            ),
        ),
        (
            "histogram",
            VisSpec::new(
                Mark::Histogram,
                vec![
                    Encoding::new("price", q, Channel::X).with_bin(10),
                    Encoding::synthetic_count(Channel::Y),
                ],
                vec![],
            ),
        ),
        (
            "heatmap (mean reviews per price x availability cell)",
            VisSpec::new(
                Mark::Heatmap,
                vec![
                    Encoding::new("price", q, Channel::X).with_bin(4),
                    Encoding::new("availability_365", q, Channel::Y).with_bin(4),
                    Encoding::new("number_of_reviews", q, Channel::Color),
                ],
                vec![],
            ),
        ),
    ];
    let opts = ProcessOptions::default();
    for (label, spec) in &specs {
        println!("-- {label}\n{}\n", to_sql(spec, &df, &opts)?);
    }

    // 2. A full always-on print, entirely through the SQL backend.
    let cfg = LuxConfig {
        sql_backend: true,
        ..LuxConfig::default()
    };
    let ldf = LuxDataFrame::with_config(df.clone(), Arc::new(cfg));
    let widget = ldf.print();
    println!("print via SQL backend -> tabs: {:?}\n", widget.tabs());

    // 3. The mini SQL engine is usable directly, too.
    let top = query_frame(
        "SELECT neighbourhood_group, AVG(price) AS avg_price, COUNT(*) AS listings \
         FROM t WHERE price <= 500 GROUP BY neighbourhood_group \
         ORDER BY avg_price DESC LIMIT 3",
        &df,
    )?;
    println!("ad-hoc SQL over the dataframe:\n{top}");
    Ok(())
}
