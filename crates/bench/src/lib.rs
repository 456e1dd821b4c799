//! Shared harness utilities for the experiment binaries.
//!
//! Each binary regenerates one table or figure from the paper's evaluation
//! (see DESIGN.md §3 for the index). Row scales default to CI-friendly sizes
//! and can be pushed to the paper's full scales via environment variables:
//!
//! - `LUX_ROWS_AIRBNB` — comma-separated row counts (paper: up to 10M)
//! - `LUX_ROWS_COMMUNITIES` — comma-separated row counts (paper: up to 100k)
//! - `LUX_WIDTHS` — comma-separated column counts for the RQ2 sweep
//! - `LUX_BENCH_FULL=1` — switch every default to the paper's full scale

/// Parse a comma-separated usize list from an env var, with a default.
pub fn env_scales(var: &str, default: &[usize]) -> Vec<usize> {
    match std::env::var(var) {
        Ok(s) => s
            .split(',')
            .filter_map(|p| p.trim().replace('_', "").parse().ok())
            .collect(),
        Err(_) => default.to_vec(),
    }
}

/// True when the harness should run at the paper's full scales.
pub fn full_scale() -> bool {
    std::env::var("LUX_BENCH_FULL")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Row scales for the Airbnb sweeps (paper: 10k..10M).
pub fn airbnb_scales() -> Vec<usize> {
    if full_scale() {
        env_scales("LUX_ROWS_AIRBNB", &[10_000, 100_000, 1_000_000, 10_000_000])
    } else {
        env_scales("LUX_ROWS_AIRBNB", &[1_000, 10_000, 50_000])
    }
}

/// Row scales for the Communities sweeps (paper: 1k..100k).
pub fn communities_scales() -> Vec<usize> {
    if full_scale() {
        env_scales("LUX_ROWS_COMMUNITIES", &[1_000, 10_000, 100_000])
    } else {
        env_scales("LUX_ROWS_COMMUNITIES", &[500, 2_000, 8_000])
    }
}

/// Column widths for the RQ2 sweep (paper: up to several hundred columns
/// over a 100k-row frame).
pub fn width_scales() -> Vec<usize> {
    if full_scale() {
        env_scales("LUX_WIDTHS", &[10, 25, 50, 100, 200, 400])
    } else {
        env_scales("LUX_WIDTHS", &[10, 20, 40, 80])
    }
}

/// Rows for the RQ2 width sweep (paper: 100k).
pub fn width_rows() -> usize {
    if full_scale() {
        env_scales("LUX_WIDTH_ROWS", &[100_000])[0]
    } else {
        env_scales("LUX_WIDTH_ROWS", &[5_000])[0]
    }
}

/// Least-squares power-law fit `y = a * x^b` on log-log axes, returning
/// `(a, b)`. Used to reproduce the paper's "power=2.53 vs power=1.07"
/// comparison in Figure 12 (left). Requires positive data.
pub fn fit_power(xs: &[f64], ys: &[f64]) -> (f64, f64) {
    assert_eq!(xs.len(), ys.len());
    let pts: Vec<(f64, f64)> = xs
        .iter()
        .zip(ys)
        .filter(|(x, y)| **x > 0.0 && **y > 0.0)
        .map(|(x, y)| (x.ln(), y.ln()))
        .collect();
    let n = pts.len() as f64;
    if pts.len() < 2 {
        return (0.0, 0.0);
    }
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return (0.0, 0.0);
    }
    let b = (n * sxy - sx * sy) / denom;
    let a = ((sy - b * sx) / n).exp();
    (a, b)
}

/// Render an aligned CSV-ish table: header row then data rows.
pub fn print_table(header: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(0)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Time every cell of a table `reps` times and return each cell's
/// `(median, q1, q3)` in seconds. The repetitions are interleaved — one
/// untimed warm-up round, then cell 0, 1, ..., n-1, `reps` times over — so
/// a noisy stretch on a shared box lands on every cell instead of on one,
/// and cells stay comparable with each other.
pub fn time_cells(reps: usize, cells: &mut [Box<dyn FnMut() + '_>]) -> Vec<(f64, f64, f64)> {
    assert!(reps > 0, "a cell needs at least one timed repetition");
    let mut samples: Vec<Vec<f64>> = cells.iter().map(|_| Vec::with_capacity(reps)).collect();
    for round in 0..=reps {
        for (cell, samples) in cells.iter_mut().zip(&mut samples) {
            let start = std::time::Instant::now();
            cell();
            if round > 0 {
                samples.push(start.elapsed().as_secs_f64());
            }
        }
    }
    samples
        .into_iter()
        .map(|mut s| {
            s.sort_by(f64::total_cmp);
            let at = |q: usize| s[(s.len() - 1) * q / 4];
            (at(2), at(1), at(3))
        })
        .collect()
}

/// A timed cell as `median [q1-q3]`.
pub fn fmt_spread((median, q1, q3): (f64, f64, f64)) -> String {
    format!("{} [{}-{}]", fmt_secs(median), fmt_secs(q1), fmt_secs(q3))
}

/// Format seconds with sensible precision.
pub fn fmt_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.2}s")
    } else if s >= 1e-3 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{:.1}us", s * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_power_recovers_exponent() {
        let xs: Vec<f64> = (1..=20).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x.powf(2.5)).collect();
        let (a, b) = fit_power(&xs, &ys);
        assert!((b - 2.5).abs() < 1e-9, "b={b}");
        assert!((a - 3.0).abs() < 1e-6, "a={a}");
    }

    #[test]
    fn fit_power_handles_degenerate() {
        assert_eq!(fit_power(&[1.0], &[1.0]), (0.0, 0.0));
        assert_eq!(fit_power(&[], &[]), (0.0, 0.0));
    }

    #[test]
    fn scale_knobs_override_the_defaults() {
        // The only test in this binary that touches the environment.
        assert_eq!(env_scales("LUX_UNSET_VAR_XYZ", &[7]), vec![7]);
        std::env::set_var("LUX_ROWS_AIRBNB", "1_000, 2000,abc,3000");
        assert_eq!(airbnb_scales(), vec![1000, 2000, 3000]);
        std::env::set_var("LUX_ROWS_COMMUNITIES", "70");
        assert_eq!(communities_scales(), vec![70]);
        std::env::set_var("LUX_WIDTHS", "3,5");
        assert_eq!(width_scales(), vec![3, 5]);
        assert_eq!(width_rows(), 5_000);
        std::env::set_var("LUX_BENCH_FULL", "1");
        assert_eq!(width_rows(), 100_000, "full scale switches the defaults");
        std::env::set_var("LUX_WIDTH_ROWS", "900");
        assert_eq!(width_rows(), 900, "an explicit scale wins over full scale");
    }

    #[test]
    fn time_cells_interleaves_and_orders_the_quartiles() {
        let order = std::cell::RefCell::new(Vec::new());
        let mut cells: Vec<Box<dyn FnMut() + '_>> = vec![
            Box::new(|| order.borrow_mut().push('a')),
            Box::new(|| order.borrow_mut().push('b')),
        ];
        let timed = time_cells(9, &mut cells);
        drop(cells);
        // warm-up round + nine timed ones, round-robin
        assert_eq!(
            order.into_inner(),
            "ab".repeat(10).chars().collect::<Vec<_>>()
        );
        assert_eq!(timed.len(), 2);
        for (median, q1, q3) in timed {
            assert!(0.0 <= q1 && q1 <= median && median <= q3);
        }
        assert_eq!(fmt_spread((0.002, 0.0015, 0.003)), "2.00ms [1.50ms-3.00ms]");
    }

    #[test]
    fn fmt_secs_ranges() {
        assert_eq!(fmt_secs(2.0), "2.00s");
        assert_eq!(fmt_secs(0.002), "2.00ms");
        assert_eq!(fmt_secs(0.0000005), "0.5us");
    }
}
