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
    use lux::engine::metadata::{UNIQUE_SCAN_CAP, UNIQUE_VALUES_CAP};
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
        values_cap: UNIQUE_VALUES_CAP,
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
