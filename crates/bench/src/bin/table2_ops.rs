//! Regenerates **Table 2**: the mapping from visualization type to its
//! primary relational operation, with the measured processing time of each
//! operation on a reference frame — validating that the cost model's
//! relative coefficients reflect reality (selections cheapest, 2D
//! bin+count+group-by most expensive).

use lux_bench::{env_scales, fmt_spread, full_scale, print_table, time_cells};
use lux_dataframe::prelude::*;
use lux_engine::SemanticType;
use lux_recs::plan::vis_cost;
use lux_vis::{process, Channel, Encoding, Mark, ProcessOptions, VisSpec};
use lux_workloads::airbnb;

fn spec_for(vis_type: &str) -> VisSpec {
    let q = SemanticType::Quantitative;
    let n = SemanticType::Nominal;
    match vis_type {
        "Scatterplot" => VisSpec::new(
            Mark::Scatter,
            vec![
                Encoding::new("price", q, Channel::X),
                Encoding::new("number_of_reviews", q, Channel::Y),
            ],
            vec![],
        ),
        "Color Scatterplot" => VisSpec::new(
            Mark::Scatter,
            vec![
                Encoding::new("price", q, Channel::X),
                Encoding::new("number_of_reviews", q, Channel::Y),
                Encoding::new("room_type", n, Channel::Color),
            ],
            vec![],
        ),
        "Line/Bar" => VisSpec::new(
            Mark::Bar,
            vec![
                Encoding::new("neighbourhood_group", n, Channel::X),
                Encoding::new("price", q, Channel::Y).with_aggregation(Agg::Mean),
            ],
            vec![],
        ),
        "Colored Line/Bar" => VisSpec::new(
            Mark::Bar,
            vec![
                Encoding::new("neighbourhood_group", n, Channel::X),
                Encoding::new("price", q, Channel::Y).with_aggregation(Agg::Mean),
                Encoding::new("room_type", n, Channel::Color),
            ],
            vec![],
        ),
        "Histogram" => VisSpec::new(
            Mark::Histogram,
            vec![
                Encoding::new("price", q, Channel::X).with_bin(10),
                Encoding::synthetic_count(Channel::Y),
            ],
            vec![],
        ),
        "Heatmap" => VisSpec::new(
            Mark::Heatmap,
            vec![
                Encoding::new("price", q, Channel::X).with_bin(20),
                Encoding::new("number_of_reviews", q, Channel::Y).with_bin(20),
            ],
            vec![],
        ),
        "Color Heatmap" => VisSpec::new(
            Mark::Heatmap,
            vec![
                Encoding::new("price", q, Channel::X).with_bin(20),
                Encoding::new("number_of_reviews", q, Channel::Y).with_bin(20),
                Encoding::new("availability_365", q, Channel::Color),
            ],
            vec![],
        ),
        other => panic!("unknown vis type {other}"),
    }
}

fn main() {
    let rows = if full_scale() {
        env_scales("LUX_TABLE2_ROWS", &[1_000_000])[0]
    } else {
        env_scales("LUX_TABLE2_ROWS", &[100_000])[0]
    };
    println!("# Table 2: relational operations per visualization type ({rows} rows)");
    let df = airbnb(rows, 3);
    let opts = ProcessOptions::default();

    let vis_types = [
        "Scatterplot",
        "Color Scatterplot",
        "Line/Bar",
        "Colored Line/Bar",
        "Histogram",
        "Heatmap",
        "Color Heatmap",
    ];

    // Nine interleaved repetitions per cell: the ordering check below
    // compares cells, so a noisy stretch must land on all of them.
    let specs: Vec<VisSpec> = vis_types.iter().map(|vt| spec_for(vt)).collect();
    let mut cells: Vec<Box<dyn FnMut() + '_>> = specs
        .iter()
        .map(|spec| {
            Box::new(|| {
                let data = process(spec, &df, &opts).expect("processing succeeds");
                std::hint::black_box(data.num_rows());
            }) as Box<dyn FnMut() + '_>
        })
        .collect();
    let timed = time_cells(9, &mut cells);
    drop(cells);

    let mut out = Vec::new();
    let mut measured: Vec<(String, f64)> = Vec::new();
    for ((vt, spec), spread) in vis_types.iter().zip(&specs).zip(timed) {
        let class = spec.op_class();
        let est = vis_cost(class, rows, 16);
        measured.push((vt.to_string(), spread.0));
        out.push(vec![
            vt.to_string(),
            class.name().to_string(),
            fmt_spread(spread),
            format!("{est:.0}"),
        ]);
    }
    print_table(
        &[
            "Vis Type",
            "Relational Operation",
            "median [q1-q3] of 9",
            "model est.",
        ],
        &out,
    );

    // Shape check: group-by family should cost more than plain selection.
    let get = |name: &str| measured.iter().find(|m| m.0 == name).unwrap().1;
    let ok =
        get("Scatterplot") <= get("Colored Line/Bar") && get("Histogram") <= get("Color Heatmap");
    println!(
        "\nordering check (selection <= 2D group-by, bin <= colored 2D bin): {}",
        if ok { "holds" } else { "VIOLATED" }
    );
}
