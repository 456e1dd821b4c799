//! Row-kernel oracle (DESIGN.md §16): the typed scan visitors must see
//! exactly the `(row, value)` sequence `Column::f64_at` yields, and every
//! kernel rewritten on them must return bit-equal results to its
//! `f64_at`-per-row predecessor, over columns built to hit every branch of
//! the validity-word walk: lengths around the 64-row word size, validity
//! absent / all-null / null at word edges / scattered, and NaN, ±inf and
//! `-0.0` payloads.

use lux::dataframe::scan::{for_each_f64_pair, for_each_f64_triple};
use lux::prelude::*;
use lux::recs::score::{coefficient_of_variation, pearson, skewness};
use proptest::prelude::*;

const LENGTHS: [usize; 8] = [0, 1, 63, 64, 65, 127, 128, 1000];
const DTYPES: usize = 5;
const FLOATS: [f64; 10] = [
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    -0.0,
    0.0,
    1.5,
    -2.25,
    1e300,
    -1e300,
    7.0,
];

#[derive(Debug, Clone, Copy)]
enum Nulls {
    Absent,
    All,
    WordEdges,
    Scattered(u64),
}

const NULLS: [Nulls; 4] = [
    Nulls::Absent,
    Nulls::All,
    Nulls::WordEdges,
    Nulls::Scattered(3),
];

fn mix(x: u64) -> u64 {
    let x = (x ^ (x >> 31)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^ (x >> 29)
}

/// Column `dtype` (0..DTYPES: Int64, Float64, Bool, DateTime, Str) of `len`
/// rows with the given null pattern; `seed` picks the payloads.
fn column(dtype: usize, len: usize, nulls: Nulls, seed: u64) -> Column {
    let valid = |row: usize| match nulls {
        Nulls::Absent => true,
        Nulls::All => false,
        Nulls::WordEdges => !matches!(row % 64, 0 | 63),
        Nulls::Scattered(s) => mix(row as u64 ^ s) % 4 != 0,
    };
    let pick = |row: usize| mix(row as u64 * 31 + seed);
    let int = |row: usize| (pick(row) % 2001) as i64 - 1000;
    let opts = |f: &dyn Fn(usize) -> i64| (0..len).map(|r| valid(r).then(|| f(r))).collect();
    match dtype {
        0 => Column::Int64(PrimitiveColumn::from_options(opts(&int))),
        1 => Column::Float64(PrimitiveColumn::from_options(
            (0..len)
                .map(|r| valid(r).then(|| FLOATS[(pick(r) % FLOATS.len() as u64) as usize]))
                .collect(),
        )),
        2 => Column::Bool(PrimitiveColumn::from_options(
            (0..len)
                .map(|r| valid(r).then(|| pick(r) % 2 == 0))
                .collect(),
        )),
        3 => Column::DateTime(PrimitiveColumn::from_options(opts(&|r| int(r) * 86_400))),
        _ => Column::Str(StrColumn::from_options(
            (0..len).map(|r| valid(r).then(|| format!("s{}", pick(r) % 7))),
        )),
    }
}

/// Every dtype x length x null pattern, two payload seeds each.
fn grid() -> Vec<Column> {
    let mut out = Vec::new();
    for dtype in 0..DTYPES {
        for len in LENGTHS {
            for nulls in NULLS {
                out.push(column(dtype, len, nulls, 1));
                out.push(column(dtype, len, nulls, 2));
            }
        }
    }
    out
}

/// What a per-row `f64_at` loop sees, values as bits so NaN compares equal.
fn rows_by_f64_at(col: &Column) -> Vec<(usize, u64)> {
    (0..col.len())
        .filter_map(|i| col.f64_at(i).map(|v| (i, v.to_bits())))
        .collect()
}

fn check_visitors(cols: &[&Column]) {
    let x = cols[0];
    let mut seen = Vec::new();
    x.for_each_f64(|i, v| seen.push((i, v.to_bits())));
    assert_eq!(seen, rows_by_f64_at(x), "for_each_f64 over {:?}", x.dtype());

    let mut dense = Vec::new();
    x.for_each_row_f64(|i, v| dense.push((i, v.map(f64::to_bits))));
    let expect: Vec<_> = (0..x.len())
        .map(|i| (i, x.f64_at(i).map(f64::to_bits)))
        .collect();
    assert_eq!(dense, expect, "for_each_row_f64 over {:?}", x.dtype());

    let (y, z) = (cols[1], cols[2]);
    let n = x.len().min(y.len());
    let mut pairs = Vec::new();
    for_each_f64_pair(x, y, |i, a, b| pairs.push((i, a.to_bits(), b.to_bits())));
    let expect: Vec<_> = (0..n)
        .filter_map(|i| Some((i, x.f64_at(i)?.to_bits(), y.f64_at(i)?.to_bits())))
        .collect();
    assert_eq!(pairs, expect, "pair {:?} x {:?}", x.dtype(), y.dtype());

    let mut triples = Vec::new();
    for_each_f64_triple(x, y, z, |i, a, b, c| {
        triples.push((i, a.to_bits(), b.to_bits(), c.to_bits()))
    });
    let expect: Vec<_> = (0..n.min(z.len()))
        .filter_map(|i| {
            Some((
                i,
                x.f64_at(i)?.to_bits(),
                y.f64_at(i)?.to_bits(),
                z.f64_at(i)?.to_bits(),
            ))
        })
        .collect();
    assert_eq!(triples, expect, "triple led by {:?}", x.dtype());
}

#[test]
fn visitors_match_f64_at_on_the_adversarial_grid() {
    let grid = grid();
    // Each column leads once; its partners walk the grid at coprime strides
    // so every dtype, length and null pattern meets every other.
    for (i, x) in grid.iter().enumerate() {
        let y = &grid[(i * 7 + 3) % grid.len()];
        let z = &grid[(i * 11 + 5) % grid.len()];
        check_visitors(&[x, y, z]);
        // and against same-length partners, where no tail is cut
        let same_len: Vec<&Column> = grid.iter().filter(|c| c.len() == x.len()).collect();
        let y = same_len[(i * 5 + 1) % same_len.len()];
        let z = same_len[(i * 3 + 2) % same_len.len()];
        check_visitors(&[x, y, z]);
    }
}

fn column_strategy() -> impl Strategy<Value = Column> {
    (
        0usize..DTYPES,
        0usize..LENGTHS.len(),
        0usize..5,
        0u64..u64::MAX,
    )
        .prop_map(|(dtype, len, nulls, seed)| {
            let nulls = NULLS.get(nulls).copied().unwrap_or(Nulls::Scattered(seed));
            column(dtype, LENGTHS[len], nulls, seed)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn visitors_match_f64_at(x in column_strategy(), y in column_strategy(), z in column_strategy()) {
        check_visitors(&[&x, &y, &z]);
    }
}

// ---------------------------------------------------------------------
// The kernels, against their `f64_at`-per-row predecessors
// ---------------------------------------------------------------------

fn pearson_by_f64_at(x: &Column, y: &Column) -> f64 {
    let mut count = 0usize;
    let (mut sx, mut sy, mut sxx, mut syy, mut sxy) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for i in 0..x.len().min(y.len()) {
        let (Some(a), Some(b)) = (x.f64_at(i), y.f64_at(i)) else {
            continue;
        };
        if a.is_nan() || b.is_nan() {
            continue;
        }
        count += 1;
        sx += a;
        sy += b;
        sxx += a * a;
        syy += b * b;
        sxy += a * b;
    }
    if count < 2 {
        return 0.0;
    }
    let nf = count as f64;
    let (cov, vx, vy) = (sxy - sx * sy / nf, sxx - sx * sx / nf, syy - sy * sy / nf);
    if vx <= 0.0 || vy <= 0.0 {
        return 0.0;
    }
    cov / (vx * vy).sqrt()
}

fn non_nan_by_f64_at(col: &Column) -> Vec<f64> {
    (0..col.len())
        .filter_map(|i| col.f64_at(i))
        .filter(|v| !v.is_nan())
        .collect()
}

fn skewness_by_f64_at(col: &Column) -> f64 {
    let vals = non_nan_by_f64_at(col);
    if vals.len() < 3 {
        return 0.0;
    }
    let nf = vals.len() as f64;
    let mean = vals.iter().sum::<f64>() / nf;
    let m2 = vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / nf;
    let m3 = vals.iter().map(|v| (v - mean).powi(3)).sum::<f64>() / nf;
    if m2 <= 0.0 {
        return 0.0;
    }
    m3 / m2.powf(1.5)
}

fn cv_by_f64_at(col: &Column) -> f64 {
    let vals = non_nan_by_f64_at(col);
    let n = vals.len();
    if n < 2 {
        return 0.0;
    }
    let mean = vals.iter().sum::<f64>() / n as f64;
    if mean.abs() < 1e-12 {
        return 0.0;
    }
    let var = vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
    var.sqrt() / mean.abs()
}

fn min_max_finite_by_f64_at(col: &Column) -> Option<(f64, f64)> {
    let mut mm: Option<(f64, f64)> = None;
    for v in (0..col.len()).filter_map(|i| col.f64_at(i)) {
        if v.is_finite() {
            mm = Some(match mm {
                None => (v, v),
                Some((lo, hi)) => (lo.min(v), hi.max(v)),
            });
        }
    }
    mm
}

fn bits(pair: Option<(f64, f64)>) -> Option<(u64, u64)> {
    pair.map(|(lo, hi)| (lo.to_bits(), hi.to_bits()))
}

#[test]
fn scores_are_bit_equal_to_the_f64_at_loops() {
    let grid = grid();
    for (i, x) in grid.iter().enumerate() {
        let tag = format!("{:?} x {} rows (grid {i})", x.dtype(), x.len());
        assert_eq!(
            skewness(x).to_bits(),
            skewness_by_f64_at(x).to_bits(),
            "skewness {tag}"
        );
        assert_eq!(
            coefficient_of_variation(x).to_bits(),
            cv_by_f64_at(x).to_bits(),
            "cv {tag}"
        );
        for stride in [1, 7, 13] {
            let y = &grid[(i * stride + 3) % grid.len()];
            assert_eq!(
                pearson(x, y).to_bits(),
                pearson_by_f64_at(x, y).to_bits(),
                "pearson {tag} vs {:?} x {} rows",
                y.dtype(),
                y.len()
            );
        }
    }
}

#[test]
fn min_max_and_histogram_are_bit_equal_to_the_f64_at_loops() {
    for (i, col) in grid().into_iter().enumerate() {
        let tag = format!("{:?} x {} rows (grid {i})", col.dtype(), col.len());
        let expect = min_max_finite_by_f64_at(&col);
        assert_eq!(
            bits(col.min_max_finite()),
            bits(expect),
            "min_max_finite {tag}"
        );
        // histogram takes numeric and datetime columns
        if matches!(col.dtype(), DType::Str | DType::Bool) {
            continue;
        }
        let df = DataFrame::from_columns(vec![("v".to_string(), col.clone())]).unwrap();
        for bins in [1, 10] {
            let (edges, counts) = df.histogram("v", bins).unwrap();
            let Some((lo, hi)) = expect else {
                assert_eq!(counts, vec![0; bins], "histogram of nothing {tag}");
                continue;
            };
            let mut want = vec![0u64; bins];
            for v in (0..col.len()).filter_map(|i| col.f64_at(i)) {
                if v.is_finite() {
                    want[lux::dataframe::ops::bin_of(v, lo, hi, bins)] += 1;
                }
            }
            assert_eq!(counts, want, "histogram counts {tag}");
            let want_edges: Vec<u64> = (0..=bins)
                .map(|b| lux::dataframe::ops::edge_of(b, lo, hi, bins).to_bits())
                .collect();
            let got_edges: Vec<u64> = edges.iter().map(|e| e.to_bits()).collect();
            assert_eq!(got_edges, want_edges, "histogram edges {tag}");
        }
    }
}
