//! The ASYNC experience (paper §8.2): on a wide dataframe the Correlation
//! action is a laggard; each action's result streams in the moment its
//! worker has it, so cheap tabs arrive first and interactive control
//! returns to the user early instead of blocking on the slowest tab. (On
//! frames of `lux::recs::ORDERED_ROWS` rows or more the cheapest planned
//! action also runs alone first.)
//!
//! ```sh
//! cargo run --release --example streaming_recommendations
//! ```

use std::time::Instant;

use lux::prelude::*;
use lux::workloads::synthetic_wide;

fn main() {
    // A wide, quantitative-heavy frame: the Correlation search space is
    // quadratic in the ~78 quantitative columns.
    let df = synthetic_wide(100, 20_000, 3);
    let ldf = LuxDataFrame::new(df);
    let _ = ldf.metadata(); // warm the metadata, as a prior print would

    println!("blocking print (all actions complete before control returns):");
    let start = Instant::now();
    let recs = ldf.recommendations();
    println!(
        "  returned after {:?} with {} tabs\n",
        start.elapsed(),
        recs.len()
    );

    println!("streaming print (results arrive as each action completes):");
    let start = Instant::now();
    let run = ldf.recommendations_streaming();
    let mut arrived = 0;
    while let Some(result) = run.next_result() {
        arrived += 1;
        println!(
            "  +{:>8.1?}  {:<14} {:>2} vis  (est. cost {:>12.0})",
            start.elapsed(),
            result.action,
            result.vislist.len(),
            result.estimated_cost
        );
        if arrived == 1 {
            println!("  ^ interactive control is back — laggards continue below");
        }
    }
}
