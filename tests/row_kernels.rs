//! Row-kernel oracle (DESIGN.md §16): the typed scan visitors must see
//! exactly the `(row, value)` sequence `Column::f64_at` yields, and every
//! kernel rewritten on them must return bit-equal results to its
//! `f64_at`-per-row predecessor, over columns built to hit every branch of
//! the validity-word walk: lengths around the 64-row word size, validity
//! absent / all-null / null at word edges / scattered, and NaN, ±inf and
//! `-0.0` payloads. The same grid holds the filter kernel (masks built a
//! word at a time, row lists read off the mask words) to the row-at-a-time
//! kernel it replaced, and filtered views that select their columns before
//! filtering to filtering the whole frame first (§16, "Filtered views").

use lux::dataframe::scan::{for_each_f64_pair, for_each_f64_triple};
use lux::prelude::*;
use lux::recs::score::{
    coefficient_of_variation, distribution_deviation, interestingness, pearson, skewness,
};
use lux::vis::{process, ProcessOptions};
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

// ---------------------------------------------------------------------
// Group-by: the dense-key and hashed tiers against a naive first-seen
// oracle over boxed `Value` keys
// ---------------------------------------------------------------------

/// What `==` means for a group-key cell: every NaN is one key, `-0.0` is
/// `0.0`, everything else is itself.
fn canon(v: &Value) -> String {
    match v {
        Value::Float(f) if f.is_nan() => "NaN".to_string(),
        Value::Float(f) if *f == 0.0 => "Float(0)".to_string(),
        Value::Float(f) => format!("Float({:016x})", f.to_bits()),
        other => format!("{other:?}"),
    }
}

/// A result cell, floats by bit pattern so NaN and the last ulp compare.
fn cell(v: &Value) -> String {
    match v {
        Value::Float(f) => format!("Float({:016x})", f.to_bits()),
        other => format!("{other:?}"),
    }
}

/// The first-seen grouping rule, spelled out: a key tuple seen before keeps
/// its id; a new one gets the next id while fewer than `cap` are known, and
/// otherwise joins the single overflow group, created (with the next id and
/// this row as its representative) the first time that happens.
struct Oracle {
    group_of: Vec<u32>,
    reps: Vec<usize>,
    overflow: Option<u32>,
}

fn oracle_groups(df: &DataFrame, keys: &[&str], cap: usize) -> Oracle {
    let cap = cap.max(1);
    let mut known: std::collections::HashMap<Vec<String>, u32> = Default::default();
    let (mut group_of, mut reps, mut overflow) = (Vec::new(), Vec::new(), None);
    for row in 0..df.num_rows() {
        let tuple: Vec<String> = keys
            .iter()
            .map(|k| canon(&df.value(row, k).unwrap()))
            .collect();
        let id = match known.get(&tuple) {
            Some(&id) => id,
            None if known.len() < cap => {
                reps.push(row);
                known.insert(tuple, reps.len() as u32 - 1);
                reps.len() as u32 - 1
            }
            None => *overflow.get_or_insert_with(|| {
                reps.push(row);
                reps.len() as u32 - 1
            }),
        };
        group_of.push(id);
    }
    Oracle {
        group_of,
        reps,
        overflow,
    }
}

impl Oracle {
    /// The key cells of the result frame: each group's representative row,
    /// the overflow group's patched to `"(other)"` (strings) or null.
    fn key_cells(&self, df: &DataFrame, key: &str) -> Vec<String> {
        let is_str = df.column(key).unwrap().dtype() == DType::Str;
        (0..self.reps.len())
            .map(|g| {
                if self.overflow == Some(g as u32) {
                    cell(&if is_str {
                        Value::str("(other)")
                    } else {
                        Value::Null
                    })
                } else {
                    cell(&df.value(self.reps[g], key).unwrap())
                }
            })
            .collect()
    }

    fn counts(&self) -> Vec<String> {
        let mut n = vec![0i64; self.reps.len()];
        for &g in &self.group_of {
            n[g as usize] += 1;
        }
        n.into_iter().map(|n| cell(&Value::Int(n))).collect()
    }

    /// Welford's running mean per group, in row order (null for a group
    /// with no valid row) — the arithmetic `agg(Mean)` promises.
    fn means(&self, source: &Column) -> Vec<String> {
        let mut acc = vec![(0u64, 0f64); self.reps.len()];
        for (row, &g) in self.group_of.iter().enumerate() {
            if let Some(v) = source.f64_at(row) {
                let (n, mean) = &mut acc[g as usize];
                *n += 1;
                *mean += (v - *mean) / *n as f64;
            }
        }
        acc.into_iter()
            .map(|(n, mean)| {
                cell(&if n == 0 {
                    Value::Null
                } else {
                    Value::Float(mean)
                })
            })
            .collect()
    }

    /// Exact integer sums per group.
    fn int_sums(&self, source: &Column) -> Vec<String> {
        let mut acc = vec![None::<i128>; self.reps.len()];
        for (row, &g) in self.group_of.iter().enumerate() {
            if let Value::Int(v) = source.value(row) {
                *acc[g as usize].get_or_insert(0) += v as i128;
            }
        }
        acc.into_iter()
            .map(|s| cell(&s.map_or(Value::Null, |s| Value::Int(s as i64))))
            .collect()
    }
}

fn column_cells(df: &DataFrame, name: &str) -> Vec<String> {
    (0..df.num_rows())
        .map(|r| cell(&df.value(r, name).unwrap()))
        .collect()
}

/// `groupby_capped(keys, cap)` and its three result frames against the
/// oracle; `fv` / `iv` are the aggregated columns.
fn check_groupby(df: &DataFrame, keys: &[&str], cap: usize) {
    let tag = format!("keys {keys:?} cap {cap} over {} rows", df.num_rows());
    let want = oracle_groups(df, keys, cap);
    let gb = df.groupby_capped(keys, cap).unwrap();
    assert_eq!(gb.group_ids(), &want.group_of[..], "group ids, {tag}");
    assert_eq!(gb.num_groups(), want.reps.len(), "num_groups, {tag}");
    assert_eq!(gb.is_capped(), want.overflow.is_some(), "is_capped, {tag}");

    let (fv, iv) = (df.column("fv").unwrap(), df.column("iv").unwrap());
    let frames = [
        ("count", gb.count().unwrap(), want.counts()),
        ("fv", gb.agg(&[("fv", Agg::Mean)]).unwrap(), want.means(fv)),
        (
            "iv",
            gb.agg(&[("iv", Agg::Sum)]).unwrap(),
            want.int_sums(iv),
        ),
    ];
    for (value_col, got, values) in frames {
        assert_eq!(got.num_rows(), want.reps.len(), "{value_col} rows, {tag}");
        for key in keys {
            assert_eq!(
                column_cells(&got, key),
                want.key_cells(df, key),
                "{value_col}: key column {key}, {tag}"
            );
        }
        assert_eq!(column_cells(&got, value_col), values, "{value_col}, {tag}");
    }
}

/// The dense tier's bound for a frame of at most 1024 rows, in slots.
const SMALL_FRAME_SPACE: i64 = 4 * 1024;

/// Key-column kinds the two tiers split over. `len + SPARE` rows are built
/// and the frame is cut back to `len`, so string dictionaries keep entries
/// no remaining row references.
const KEY_KINDS: usize = 9;
const SPARE: usize = 5;

fn key_column(kind: usize, len: usize, nulls: Nulls, seed: u64) -> Column {
    let pick = |row: usize| mix(row as u64 * 131 + seed);
    let ints = |choices: &'static [i64]| {
        let valid = column(0, len, nulls, seed);
        Column::Int64(PrimitiveColumn::from_options(
            (0..len)
                .map(|r| {
                    valid
                        .is_valid(r)
                        .then(|| choices[(pick(r) % choices.len() as u64) as usize])
                })
                .collect(),
        ))
    };
    match kind {
        // low-cardinality strings, whose dictionary also holds the spares'
        0 => {
            let base = column(4, len, nulls, seed);
            Column::Str(StrColumn::from_options((0..len).map(|r| {
                let spare = r + SPARE >= len;
                match base.value(r) {
                    Value::Str(s) if spare => Some(format!("spare-{s}-{r}")),
                    Value::Str(s) => Some(s.to_string()),
                    _ => None,
                }
            })))
        }
        1 => column(2, len, nulls, seed), // bools
        2 => column(0, len, nulls, seed), // ints spanning 2001 values
        // the ends of i64: `max - min` does not fit an i64
        3 => ints(&[i64::MIN, i64::MAX, 0, -1, i64::MIN + 1]),
        // a span exactly at the small-frame bound (one past it with nulls)
        4 => ints(&[0, SMALL_FRAME_SPACE - 1, 17, 2_000]),
        // ... and one past it
        5 => ints(&[0, SMALL_FRAME_SPACE, 17, 2_000]),
        6 => column(1, len, nulls, seed), // floats: NaN, -0.0, ±inf
        7 => column(3, len, nulls, seed), // datetimes a day apart: wide span
        _ => ints(&[7]),                  // one value
    }
}

fn keyed_frame(kinds: &[usize], len: usize, nulls: Nulls, seed: u64) -> DataFrame {
    let built = len + SPARE;
    let mut cols: Vec<(String, Column)> = kinds
        .iter()
        .enumerate()
        .map(|(i, &kind)| {
            // the leading key takes the requested null pattern, the others
            // scatter theirs so null tuples are not all-or-nothing
            let nulls = if i == 0 {
                nulls
            } else {
                Nulls::Scattered(seed + i as u64)
            };
            (
                format!("k{i}"),
                key_column(kind, built, nulls, seed + i as u64),
            )
        })
        .collect();
    cols.push((
        "fv".into(),
        column(1, built, Nulls::Scattered(seed ^ 5), seed + 9),
    ));
    cols.push((
        "iv".into(),
        column(0, built, Nulls::Scattered(seed ^ 9), seed + 11),
    ));
    DataFrame::from_columns(cols).unwrap().head(len)
}

fn check_all_caps(df: &DataFrame, keys: &[&str]) {
    let groups = df.groupby(keys).unwrap().num_groups();
    for cap in [1, 2, groups.saturating_sub(1), groups, usize::MAX] {
        check_groupby(df, keys, cap);
    }
}

#[test]
fn groupby_matches_the_first_seen_oracle_on_the_grid() {
    // every key kind alone, at every length and null pattern
    for kind in 0..KEY_KINDS {
        for len in LENGTHS {
            for nulls in NULLS {
                let df = keyed_frame(&[kind], len, nulls, 3);
                check_all_caps(&df, &["k0"]);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn groupby_matches_the_first_seen_oracle(
        kinds in proptest::collection::vec(0usize..KEY_KINDS, 1..4),
        len in 0usize..LENGTHS.len(),
        nulls in 0usize..5,
        seed in 0u64..u64::MAX / 2,
    ) {
        let nulls = NULLS.get(nulls).copied().unwrap_or(Nulls::Scattered(seed));
        let df = keyed_frame(&kinds, LENGTHS[len], nulls, seed);
        let names: Vec<String> = (0..kinds.len()).map(|i| format!("k{i}")).collect();
        let keys: Vec<&str> = names.iter().map(String::as_str).collect();
        check_all_caps(&df, &keys);
    }
}

/// Which tier runs is a function of the key space and the row count alone:
/// exactly at a bound the keys are indexed, one past it they are hashed,
/// and the grouping is the oracle's on both sides.
#[test]
fn dense_tier_engages_exactly_up_to_its_bounds() {
    let frame = |rows: usize, top: i64| {
        let k: Vec<i64> = (0..rows as i64)
            .map(|i| [0, top, 5, top][i as usize % 4])
            .collect();
        DataFrameBuilder::new()
            .int("k0", k)
            .float("fv", (0..rows).map(|i| i as f64))
            .int("iv", (0..rows).map(|i| i as i64))
            .build()
            .unwrap()
    };
    // (rows, largest space that is indexed): four slots a row above 1024
    // rows, a flat floor below, and 2^20 whatever the row count
    for (rows, bound) in [
        (10, 4 * 1024),
        (1_000, 4 * 1024),
        (2_000, 8_000),
        (1 << 18, 1 << 20),
        (1 << 19, 1 << 20),
    ] {
        let at = frame(rows, bound - 1);
        assert_eq!(
            at.groupby(&["k0"]).unwrap().key_space(),
            Some(bound as usize),
            "{rows} rows, span {bound}"
        );
        let past = frame(rows, bound);
        assert_eq!(past.groupby(&["k0"]).unwrap().key_space(), None);
        for df in [&at, &past] {
            check_groupby(df, &["k0"], usize::MAX);
            check_groupby(df, &["k0"], 2);
        }
    }
}

/// The mechanism on the paper-shaped frame: every group key Lux generates
/// there is indexed, and the integer columns that dominated the metadata
/// pass are counted in bitsets — `id` ending as the sketch of its keys.
#[test]
fn airbnb_keys_are_indexed_and_integer_columns_scan_dense() {
    use lux::engine::metadata::UNIQUE_SCAN_CAP;
    use lux::engine::stats::{sketch::DEFAULT_PRECISION, ColumnStats, StatsSpec};

    let df = lux::workloads::airbnb(100_000, 11);
    for name in df.column_names() {
        let is_str = df.column(name).unwrap().dtype() == DType::Str;
        if is_str || name == "minimum_nights" {
            let gb = df.groupby_capped(&[name.as_str()], 1_000).unwrap();
            assert!(gb.key_space().is_some(), "{name} should group densely");
        }
    }
    let spec = StatsSpec {
        scan_cap: UNIQUE_SCAN_CAP,
        precision: DEFAULT_PRECISION,
    };
    let scan = |name: &str| {
        let col = df.column(name).unwrap();
        ColumnStats::scan(col, 0, col.len(), &spec)
    };
    for name in ["host_id", "price", "availability_365"] {
        let stats = scan(name);
        assert!(stats.is_dense() && !stats.is_sketched(), "{name}");
    }
    assert!(scan("id").is_sketched());
    assert!(!scan("latitude").is_dense());
}

// ---------------------------------------------------------------------
// Filters: masks built a word at a time and row lists read off the mask
// words, against the row-at-a-time kernel they replaced
// ---------------------------------------------------------------------

const OPS: [FilterOp; 6] = [
    FilterOp::Eq,
    FilterOp::Ne,
    FilterOp::Gt,
    FilterOp::Lt,
    FilterOp::Ge,
    FilterOp::Le,
];

/// The mask the row-at-a-time kernel built: string Eq/Ne by dictionary
/// code (a string the dictionary lacks: Eq matches nothing, Ne every valid
/// row), numeric columns against the right-hand side's `f64` view, and the
/// boxed comparison for everything else.
fn mask_by_rows(col: &Column, op: FilterOp, rhs: &Value) -> Vec<bool> {
    let cmp = |x: f64, r: f64| match op {
        FilterOp::Eq => x == r,
        FilterOp::Ne => x != r,
        FilterOp::Gt => x > r,
        FilterOp::Lt => x < r,
        FilterOp::Ge => x >= r,
        FilterOp::Le => x <= r,
    };
    match (col, rhs, rhs.as_f64()) {
        (Column::Str(c), Value::Str(s), _) if matches!(op, FilterOp::Eq | FilterOp::Ne) => {
            let code = c.code_of(s);
            (0..c.len())
                .map(|i| match (c.code(i), code) {
                    (Some(ci), Some(code)) => (ci == code) == (op == FilterOp::Eq),
                    (Some(_), None) => op == FilterOp::Ne,
                    (None, _) => false,
                })
                .collect()
        }
        (Column::Int64(c) | Column::DateTime(c), _, Some(r)) => (0..c.len())
            .map(|i| c.get(i).is_some_and(|x| cmp(x as f64, r)))
            .collect(),
        (Column::Float64(c), _, Some(r)) => (0..c.len())
            .map(|i| c.get(i).is_some_and(|x| cmp(x, r)))
            .collect(),
        _ => (0..col.len())
            .map(|i| op.eval(&col.value(i), rhs))
            .collect(),
    }
}

/// Right-hand sides for a filter on `col`: ints and floats against every
/// numeric type (NaN, ±inf and -0.0 included), a datetime and a bool, a
/// string in the grid's dictionaries and one absent from all of them, a
/// null, and a value the column holds.
fn filter_rhs(col: &Column) -> Vec<Value> {
    let mut out = vec![
        Value::Int(0),
        Value::Int(-1000),
        Value::Int(7),
        Value::Float(1.5),
        Value::Float(-0.0),
        Value::Float(f64::NAN),
        Value::Float(f64::INFINITY),
        Value::Float(f64::NEG_INFINITY),
        Value::DateTime(86_400),
        Value::Bool(true),
        Value::str("s3"),
        Value::str("absent"),
        Value::Null,
    ];
    out.extend((0..col.len()).map(|i| col.value(i)).find(|v| !v.is_null()));
    out
}

fn rows_of(mask: &[bool]) -> Vec<usize> {
    (0..mask.len()).filter(|&i| mask[i]).collect()
}

#[test]
fn filter_masks_and_row_lists_match_the_row_at_a_time_kernel() {
    for (g, col) in grid().into_iter().enumerate() {
        let rows = Column::Int64(PrimitiveColumn::from_values(
            (0..col.len() as i64).collect(),
        ));
        let df =
            DataFrame::from_columns(vec![("v".to_string(), col.clone()), ("row".into(), rows)])
                .unwrap();
        for rhs in filter_rhs(&col) {
            for op in OPS {
                let tag = format!(
                    "{:?} x {} rows (grid {g}) {op} {rhs:?}",
                    col.dtype(),
                    col.len()
                );
                let want = mask_by_rows(&col, op, &rhs);
                let mask = df.filter_mask("v", op, &rhs).unwrap();
                assert_eq!(mask, Bitmap::from_iter(want.iter().copied()), "mask {tag}");

                let kept_rows = rows_of(&want);
                assert_eq!(mask.ones(), kept_rows, "ones {tag}");
                let kept = df.filter("v", op, &rhs).unwrap();
                let want_row_cells: Vec<String> = kept_rows
                    .iter()
                    .map(|&r| cell(&Value::Int(r as i64)))
                    .collect();
                assert_eq!(column_cells(&kept, "row"), want_row_cells, "rows {tag}");
                let want_cells: Vec<String> =
                    kept_rows.iter().map(|&r| cell(&col.value(r))).collect();
                assert_eq!(column_cells(&kept, "v"), want_cells, "values {tag}");
                let by_mask = col.filter(&mask).unwrap();
                let by_rows: Vec<String> = (0..by_mask.len())
                    .map(|i| cell(&by_mask.value(i)))
                    .collect();
                assert_eq!(by_rows, want_cells, "Column::filter {tag}");
            }
        }
    }
}

/// `filter_rows` and the two `dropna`s over frames whose columns carry
/// different null layouts, against masks built one row at a time.
#[test]
fn filter_rows_and_dropna_match_the_row_at_a_time_masks() {
    for len in LENGTHS {
        for nulls in NULLS {
            let mut cols: Vec<(String, Column)> = (0..DTYPES)
                .map(|d| {
                    let nulls = if d == 0 {
                        nulls
                    } else {
                        Nulls::Scattered(d as u64 * 13)
                    };
                    (format!("c{d}"), column(d, len, nulls, d as u64))
                })
                .collect();
            let rows = Column::Int64(PrimitiveColumn::from_values((0..len as i64).collect()));
            cols.push(("row".into(), rows));
            let df = DataFrame::from_columns(cols).unwrap();
            let tag = format!("{len} rows, {nulls:?}");
            let valid_in = |names: &[String]| -> Vec<bool> {
                (0..len)
                    .map(|i| names.iter().all(|n| df.column(n).unwrap().is_valid(i)))
                    .collect()
            };
            let row_cells = |mask: &[bool]| -> Vec<String> {
                rows_of(mask)
                    .into_iter()
                    .map(|r| cell(&Value::Int(r as i64)))
                    .collect()
            };

            let all = valid_in(df.column_names());
            assert_eq!(
                column_cells(&df.dropna(), "row"),
                row_cells(&all),
                "dropna {tag}"
            );
            let subset = ["c0".to_string(), "c4".to_string()];
            let some = valid_in(&subset);
            let dropped = df.dropna_subset(&["c0", "c4"]).unwrap();
            assert_eq!(
                column_cells(&dropped, "row"),
                row_cells(&some),
                "dropna_subset {tag}"
            );

            let pattern: Vec<bool> = (0..len)
                .map(|i| mix(i as u64 ^ len as u64).is_multiple_of(3))
                .collect();
            let kept = df
                .filter_rows(&Bitmap::from_iter(pattern.iter().copied()))
                .unwrap();
            assert_eq!(
                column_cells(&kept, "row"),
                row_cells(&pattern),
                "filter_rows {tag}"
            );
            for name in df.column_names() {
                let src = df.column(name).unwrap();
                let want: Vec<String> = rows_of(&pattern)
                    .into_iter()
                    .map(|r| cell(&src.value(r)))
                    .collect();
                assert_eq!(column_cells(&kept, name), want, "filter_rows {name} {tag}");
            }
        }
    }
}

/// `Bitmap::take` and `Bitmap::ones` against bit loops, and the word
/// constructor's tail masking, around the 64-bit word size.
#[test]
fn bitmap_word_constructors_match_bit_loops() {
    for len in LENGTHS {
        for nulls in NULLS {
            let source = column(0, len, nulls, 5);
            let bits: Vec<bool> = (0..len).map(|i| source.is_valid(i)).collect();
            let bm = Bitmap::from_iter(bits.iter().copied());
            let tag = format!("{len} bits, {nulls:?}");

            // garbage past `len` in the last word is cleared
            let mut words = bm.words().to_vec();
            if let Some(last) = words.last_mut() {
                if len % 64 != 0 {
                    *last |= u64::MAX << (len % 64);
                }
            }
            let rebuilt = Bitmap::from_words(words, len);
            assert_eq!(rebuilt, bm, "from_words {tag}");
            assert_eq!(rebuilt.count_ones(), rows_of(&bits).len(), "count {tag}");
            assert_eq!(bm.ones(), rows_of(&bits), "ones {tag}");

            let gathers: [Vec<usize>; 5] = [
                (0..len).collect(),
                (0..len).rev().collect(),
                (0..len).flat_map(|i| [i, i]).collect(),
                (0..len).step_by(3).collect(),
                vec![],
            ];
            for indices in gathers {
                let want = Bitmap::from_iter(indices.iter().map(|&i| bits[i]));
                assert_eq!(bm.take(&indices), want, "take of {} {tag}", indices.len());
            }
        }
    }
}

#[test]
#[should_panic(expected = "cannot hold exactly")]
fn bitmap_from_words_rejects_a_word_count_that_does_not_fit() {
    Bitmap::from_words(vec![0, 0], 64);
}

// ---------------------------------------------------------------------
// One shared dictionary per string column
// ---------------------------------------------------------------------

fn strings(c: &StrColumn) -> Vec<&str> {
    c.dict().iter().map(|s| s.as_ref()).collect()
}

#[test]
fn string_dictionaries_are_shared_until_a_new_string_is_interned() {
    let source = StrColumn::from_options([Some("a"), None, Some("b"), Some("a")]);
    let shares = |c: &StrColumn| std::ptr::eq(c.dict().as_ptr(), source.dict().as_ptr());
    let taken = source.take(&[2, 0]);
    let cloned = source.clone();
    assert!(shares(&taken) && shares(&cloned), "take and clone share");

    for mut derived in [taken, cloned] {
        assert_eq!(derived.intern("b"), 1);
        assert!(shares(&derived), "interning a known string copies nothing");
        assert_eq!(derived.intern("z"), 2);
        assert!(!shares(&derived));
        assert_eq!(strings(&derived), ["a", "b", "z"]);
        assert_eq!(strings(&source), ["a", "b"], "the source is untouched");
        assert_eq!(source.code_of("z"), None);
    }

    // every row gather of a frame shares it: filter, sort, head, sample
    let df = DataFrame::from_columns(vec![
        ("s".to_string(), Column::Str(source.clone())),
        (
            "n".into(),
            Column::Int64(PrimitiveColumn::from_values(vec![3, 1, 2, 0])),
        ),
    ])
    .unwrap();
    let derived = [
        df.filter("s", FilterOp::Eq, &Value::str("a")).unwrap(),
        df.sort_by(&["n"], true).unwrap(),
        df.head(2),
        df.sample(2, 7),
    ];
    for frame in &derived {
        let Column::Str(c) = frame.column("s").unwrap() else {
            panic!("not a string column");
        };
        assert!(shares(c), "{:?}", frame.history().events().last());
    }
}

/// A concat appends the tail's strings to a filtered parent's dictionary,
/// which still holds strings no parent row references; merging the
/// parent's cached statistics with a scan of the tail must land on the
/// `FrameMeta` a from-scratch pass computes.
#[test]
fn concat_onto_a_filtered_parent_merges_to_the_full_recompute() {
    use lux::engine::governor::{BudgetHandle, ResourceBudget};
    use lux::engine::metadata::of_frame;
    use lux::engine::trace::{names, MetricsRegistry};

    let frame = |start: usize, end: usize, depts: &[&'static str]| {
        DataFrameBuilder::new()
            .int("id", start as i64..end as i64)
            .str("dept", (start..end).map(|i| depts[i % depts.len()]))
            .float("pay", (start..end).map(|i| (i % 97) as f64))
            .build()
            .unwrap()
    };
    // the parent keeps no "c" row, yet "c" stays in its dictionary; the
    // tail brings "c" back and adds "d"
    let filtered = || {
        frame(0, 3_000, &["a", "b", "c"])
            .filter("dept", FilterOp::Ne, &Value::str("c"))
            .unwrap()
    };
    let tail = frame(3_000, 4_000, &["d", "c", "a"]);
    let overrides = std::collections::HashMap::new();
    let pass = |df: &DataFrame| {
        let h = BudgetHandle::new(ResourceBudget::unlimited());
        let m = of_frame(df, &overrides, false, None, Some(&h), 2);
        let cols: Vec<String> = m.columns.iter().map(|c| format!("{c:?}")).collect();
        (h.charged(), cols)
    };

    let parent = filtered();
    of_frame(&parent, &overrides, false, None, None, 2);
    let appended = parent.concat(&tail).unwrap();
    let Column::Str(dept) = appended.column("dept").unwrap() else {
        panic!("dept is a string column");
    };
    assert_eq!(
        strings(dept),
        ["a", "b", "c", "d"],
        "the dictionary grew by appending"
    );
    let merges = MetricsRegistry::global().counter(names::METADATA_APPEND_MERGES);
    let merged = pass(&appended);
    assert!(
        MetricsRegistry::global().counter(names::METADATA_APPEND_MERGES) > merges,
        "the append pass did not merge cached partials"
    );
    assert_eq!(merged, pass(&filtered().concat(&tail).unwrap()));
}

// ---------------------------------------------------------------------
// Filtered views select the columns they draw before filtering: the same
// frames and scores as filtering the whole frame first
// ---------------------------------------------------------------------

fn without_filters(spec: &VisSpec) -> VisSpec {
    let mut bare = spec.clone();
    bare.filters.clear();
    bare
}

fn filter_whole_frame(spec: &VisSpec, df: &DataFrame) -> Result<DataFrame> {
    let mut frame = df.clone();
    for f in &spec.filters {
        frame = frame.filter(&f.attribute, f.op, &f.value)?;
    }
    Ok(frame)
}

/// `process` as it ran before selection: filter every column of the frame,
/// then process the spec's marks.
fn process_whole_frame_first(
    spec: &VisSpec,
    df: &DataFrame,
    opts: &ProcessOptions,
) -> Result<DataFrame> {
    process(&without_filters(spec), &filter_whole_frame(spec, df)?, opts)
}

/// `interestingness` as it ran before selection: a filtered scatter is
/// scored on the whole filtered frame, any other filtered view by how far
/// its distribution deviates from the unfiltered view's.
fn interestingness_whole_frame_first(spec: &VisSpec, df: &DataFrame, opts: &ProcessOptions) -> f64 {
    let score = || -> Result<f64> {
        if spec.filters.is_empty() || spec.mark == Mark::Scatter {
            let frame = filter_whole_frame(spec, df)?;
            return Ok(interestingness(&without_filters(spec), &frame, opts));
        }
        let with = process_whole_frame_first(spec, df, opts)?;
        let without = process(&without_filters(spec), df, opts)?;
        let x = &spec.channel(Channel::X).unwrap().attribute;
        let y = spec
            .channel(Channel::Y)
            .map(|e| e.attribute.as_str())
            .filter(|a| with.has_column(a))
            .unwrap_or("count");
        let dist = |frame: &DataFrame| -> Result<Vec<(Value, f64)>> {
            let (xc, yc) = (frame.column(x)?, frame.column(y)?);
            Ok((0..frame.num_rows())
                .map(|i| (xc.value(i), yc.f64_at(i).unwrap_or(0.0)))
                .collect())
        };
        Ok(distribution_deviation(&dist(&with)?, &dist(&without)?))
    };
    match score() {
        Ok(s) if s.is_finite() => s,
        _ => 0.0,
    }
}

fn frame_cells(df: &DataFrame) -> Vec<(String, Vec<String>)> {
    df.column_names()
        .iter()
        .map(|n| (n.clone(), column_cells(df, n)))
        .collect()
}

/// One spec per mark over the named columns: `nom` / `nom2` nominal, `q1` /
/// `q2` quantitative, `t` the line chart's axis.
fn mark_specs(nom: &str, nom2: &str, q1: &str, q2: &str, t: &str) -> Vec<VisSpec> {
    use lux::engine::SemanticType::{Nominal, Quantitative, Temporal};
    let enc = Encoding::new;
    vec![
        VisSpec::new(
            Mark::Bar,
            vec![
                enc(nom, Nominal, Channel::X),
                enc(q1, Quantitative, Channel::Y).with_aggregation(Agg::Mean),
            ],
            vec![],
        ),
        VisSpec::new(
            Mark::Bar,
            vec![
                enc(nom, Nominal, Channel::X),
                Encoding::synthetic_count(Channel::Y),
                enc(nom2, Nominal, Channel::Color),
            ],
            vec![],
        ),
        VisSpec::new(
            Mark::Line,
            vec![
                enc(t, Temporal, Channel::X),
                enc(q1, Quantitative, Channel::Y).with_aggregation(Agg::Mean),
            ],
            vec![],
        ),
        VisSpec::new(
            Mark::Choropleth,
            vec![
                enc(nom, Nominal, Channel::X),
                enc(q2, Quantitative, Channel::Y).with_aggregation(Agg::Sum),
            ],
            vec![],
        ),
        VisSpec::new(
            Mark::Histogram,
            vec![
                enc(q1, Quantitative, Channel::X).with_bin(10),
                Encoding::synthetic_count(Channel::Y),
            ],
            vec![],
        ),
        VisSpec::new(
            Mark::Heatmap,
            vec![
                enc(q1, Quantitative, Channel::X),
                enc(q2, Quantitative, Channel::Y),
            ],
            vec![],
        ),
        VisSpec::new(
            Mark::Scatter,
            vec![
                enc(q1, Quantitative, Channel::X),
                enc(q2, Quantitative, Channel::Y),
                enc(nom, Nominal, Channel::Color),
            ],
            vec![],
        ),
    ]
}

/// Every spec of `specs` under a filter on each of `filter_on` x every op
/// (compared against the value at a third of the frame), plus one
/// two-filter conjunction.
fn check_filtered_views(df: &DataFrame, specs: &[VisSpec], filter_on: &[&str], tag: &str) {
    let small_sample = ProcessOptions {
        max_points: 40,
        ..ProcessOptions::default()
    };
    // an empty frame filters against null
    let value_at = |row: usize, attr: &str| match df.num_rows() {
        0 => Value::Null,
        _ => df.value(row, attr).unwrap(),
    };
    for base in specs {
        let mut variants = Vec::new();
        for attr in filter_on {
            let value = value_at(df.num_rows() / 3, attr);
            for op in OPS {
                let mut spec = base.clone();
                spec.filters = vec![FilterSpec::new(*attr, op, value.clone())];
                variants.push(spec);
            }
        }
        let mut both = base.clone();
        both.filters = filter_on
            .iter()
            .map(|a| FilterSpec::new(*a, FilterOp::Ne, value_at(0, a)))
            .collect();
        variants.push(both);
        for spec in &variants {
            for opts in [&ProcessOptions::default(), &small_sample] {
                let at = format!("{spec} over {tag}, max_points {}", opts.max_points);
                let got = process(spec, df, opts).map(|f| frame_cells(&f));
                let want = process_whole_frame_first(spec, df, opts).map(|f| frame_cells(&f));
                match (got, want) {
                    (Ok(got), Ok(want)) => assert_eq!(got, want, "process {at}"),
                    (got, want) => assert_eq!(got.is_ok(), want.is_ok(), "process {at}"),
                }
                assert_eq!(
                    interestingness(spec, df, opts).to_bits(),
                    interestingness_whole_frame_first(spec, df, opts).to_bits(),
                    "interestingness {at}"
                );
            }
        }
    }
}

#[test]
fn filtered_views_select_then_filter_like_the_whole_frame() {
    let airbnb = lux::workloads::airbnb(600, 11);
    check_filtered_views(
        &airbnb,
        &mark_specs(
            "neighbourhood_group",
            "room_type",
            "price",
            "reviews_per_month",
            "availability_365",
        ),
        &["room_type", "minimum_nights"],
        "airbnb",
    );
    let communities = lux::workloads::communities(300, 11);
    check_filtered_views(
        &communities,
        &mark_specs("communityname", "fold", "population", "attr_001", "state"),
        &["state", "attr_000"],
        "communities",
    );
    // the grid: every null layout at every length, NaN / ±inf / -0.0 floats
    for len in LENGTHS {
        for nulls in NULLS {
            let names = ["int", "float", "bool", "time", "str"];
            let cols = (0..DTYPES)
                .map(|d| {
                    let nulls = if d == 1 {
                        nulls
                    } else {
                        Nulls::Scattered(d as u64)
                    };
                    (names[d].to_string(), column(d, len, nulls, 7 + d as u64))
                })
                .collect();
            let df = DataFrame::from_columns(cols).unwrap();
            check_filtered_views(
                &df,
                &mark_specs("str", "bool", "float", "int", "time"),
                &["float", "str"],
                &format!("grid {len} rows, {nulls:?}"),
            );
        }
    }
}
