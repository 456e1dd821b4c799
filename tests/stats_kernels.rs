//! Statistics-kernel suite (DESIGN.md §14): the fused one-pass column
//! scan and its mergeable partials must be boundary-insensitive (any chunk
//! grouping folds to the same result), the cardinality sketch must merge
//! associatively and estimate within its documented error bound, and an
//! append must be able to merge cached parent partials with a tail scan
//! and land on byte-identical metadata — same `FrameMeta`, same governor
//! accounting — at every thread count.

mod common;

use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use common::{
    adversarial_frame, assert_grid_invariant, dense_int_columns, governed_pass, pass_output,
    ADVERSARIAL_SCAN_CAP, CHUNK_GRID, THREAD_GRID,
};
use lux::engine::governor::{BudgetHandle, ResourceBudget};
use lux::engine::metadata::{of_frame, UniqueValues, UNIQUE_SCAN_CAP, UNIQUE_VALUES_CAP};
use lux::engine::stats::kernels::{
    decode_f64, decode_i64, encode_f64, encode_i64, for_each_valid, ScanValue, SmallestKeys, U64Set,
};
use lux::engine::stats::sketch::{mix64, CardinalitySketch, DEFAULT_PRECISION};
use lux::engine::stats::{ColumnStats, DistinctAcc, NumericStats, StatsSpec};
use lux::engine::trace::{names, MetricsRegistry};
use lux::engine::FrameMeta;
use lux::prelude::*;
use lux::LuxDataFrame;
use proptest::prelude::*;

/// Serializes tests that read the process-global [`MetricsRegistry`], so
/// sibling tests in this binary can't pollute counter deltas.
static PASS_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    PASS_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

fn sketch_from(keys: &[u64]) -> CardinalitySketch {
    let mut s = CardinalitySketch::new(DEFAULT_PRECISION);
    for &k in keys {
        s.insert_key(k);
    }
    s
}

/// Scan `col` in the chunks described by `bounds` (ascending split points)
/// and fold the partials in order, mirroring the metadata fold.
fn fold_chunks(col: &Column, bounds: &[usize], spec: &StatsSpec) -> ColumnStats {
    let mut acc: Option<ColumnStats> = None;
    let mut start = 0;
    for &end in bounds.iter().chain(std::iter::once(&col.len())) {
        let p = ColumnStats::scan(col, start, end, spec);
        match &mut acc {
            None => acc = Some(p),
            Some(a) => a.merge(&p, spec),
        }
        start = end;
    }
    acc.unwrap_or_else(|| ColumnStats::empty(col, spec))
}

/// The column's lazy value list, built.
fn lazy_list(col: &Column) -> Vec<Value> {
    UniqueValues::new(Arc::new(col.clone())).to_vec()
}

/// Everything `finalize` surfaces, with the column's value list, in a
/// directly comparable shape.
fn fingerprint(
    stats: &ColumnStats,
    col: &Column,
    spec: &StatsSpec,
) -> impl PartialEq + std::fmt::Debug {
    let f = stats.finalize(spec);
    (
        f.cardinality,
        f.estimated,
        lazy_list(col),
        f.min.map(f64::to_bits),
        f.max.map(f64::to_bits),
        f.null_count,
    )
}

/// Ascending, deduplicated split points inside `0..rows`.
fn splits(rows: usize) -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0..rows.max(1), 0..6).prop_map(|mut v| {
        v.sort_unstable();
        v.dedup();
        v
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Sketch registers are a pure function of the inserted key set:
    /// insertion order, duplication, and merge grouping must not matter.
    #[test]
    fn sketch_merge_associative_and_order_insensitive(
        keys in proptest::collection::vec(0u64..u64::MAX, 0..400),
        cut_a in 0usize..400,
        cut_b in 0usize..400,
    ) {
        let (a, b) = (cut_a.min(keys.len()), cut_b.min(keys.len()));
        let (lo, hi) = (a.min(b), a.max(b));
        let whole = sketch_from(&keys);

        // Reversed insertion order.
        let rev: Vec<u64> = keys.iter().rev().copied().collect();
        prop_assert_eq!(&sketch_from(&rev), &whole);

        // (x ∪ y) ∪ z  ==  x ∪ (y ∪ z)  ==  whole.
        let (x, y, z) = (
            sketch_from(&keys[..lo]),
            sketch_from(&keys[lo..hi]),
            sketch_from(&keys[hi..]),
        );
        let mut left = x.clone();
        left.merge(&y);
        left.merge(&z);
        let mut right_tail = y.clone();
        right_tail.merge(&z);
        let mut right = x.clone();
        right.merge(&right_tail);
        prop_assert_eq!(&left, &whole);
        prop_assert_eq!(&right, &whole);

        // Merge is idempotent: folding the same partial twice is a no-op.
        let mut twice = whole.clone();
        twice.merge(&whole);
        prop_assert_eq!(&twice, &whole);
    }

    /// Column partials fold to the same finalized statistics no matter how
    /// the row range is chunked — including chunkings that cross the
    /// exact-to-sketch conversion at different points.
    #[test]
    fn column_partials_are_grouping_insensitive(
        vals in proptest::collection::vec(
            prop_oneof![
                4 => proptest::option::of(-50.0f64..50.0),
                1 => Just(Some(f64::NAN)),
                1 => Just(Some(-0.0)),
                1 => Just(Some(0.0)),
                1 => Just(None),
            ],
            1..300,
        ),
        bounds_a in splits(300),
        bounds_b in splits(300),
    ) {
        let rows = vals.len();
        let col = Column::Float64(PrimitiveColumn::from_options(vals));
        // A small cap forces the exact→sketch conversion on wide inputs, at
        // a different chunk for every grouping.
        let spec = StatsSpec { scan_cap: 16, precision: DEFAULT_PRECISION };
        let clamp = |b: &[usize]| -> Vec<usize> {
            b.iter().map(|&x| x.min(rows)).collect()
        };
        let whole = ColumnStats::scan(&col, 0, rows, &spec);
        let a = fold_chunks(&col, &clamp(&bounds_a), &spec);
        let b = fold_chunks(&col, &clamp(&bounds_b), &spec);
        prop_assert_eq!(
            fingerprint(&a, &col, &spec),
            fingerprint(&whole, &col, &spec)
        );
        prop_assert_eq!(
            fingerprint(&b, &col, &spec),
            fingerprint(&whole, &col, &spec)
        );
    }

    /// Integer columns on both sides of every dense-form bound: whichever
    /// form each chunk took (bitset, hashed set, sketch) and however the
    /// chunks were cut, the fold reports what a `BTreeSet` of the keys does
    /// while they fit the cap, and what a sketch fed that same key set does
    /// once they do not.
    #[test]
    fn integer_partials_match_set_and_sketch_oracles(
        rows in 50usize..400,
        step in 1usize..80,
        with_nulls in any::<bool>(),
        bounds in splits(400),
    ) {
        let spec = StatsSpec {
            scan_cap: ADVERSARIAL_SCAN_CAP,
            precision: DEFAULT_PRECISION,
        };
        let bounds: Vec<usize> = bounds.iter().map(|&b| b.min(rows)).collect();
        for (name, col) in dense_int_columns(rows, step, spec.scan_cap) {
            let values: Vec<Option<i64>> = (0..rows)
                .map(|i| match col.value(i) {
                    Value::Int(v) if !(with_nulls && i % 5 == 2) => Some(v),
                    _ => None,
                })
                .collect();
            let col = Column::Int64(PrimitiveColumn::from_options(values.clone()));
            let valid: Vec<i64> = values.iter().flatten().copied().collect();
            let keys: BTreeSet<u64> = valid.iter().map(|&v| encode_i64(v)).collect();
            let (cardinality, estimated) = if keys.len() <= spec.scan_cap {
                (keys.len(), false)
            } else {
                let fed: Vec<u64> = keys.iter().copied().collect();
                let estimate = sketch_from(&fed).estimate().round() as usize;
                let floor = spec.scan_cap + 1;
                (estimate.clamp(floor, valid.len().max(floor)), true)
            };
            let mut smallest: Vec<i64> = valid.clone();
            smallest.sort_unstable();
            smallest.dedup();
            smallest.truncate(UNIQUE_VALUES_CAP);
            let expected = (
                cardinality,
                estimated,
                smallest.into_iter().map(Value::Int).collect::<Vec<_>>(),
                valid.iter().min().map(|&v| (v as f64).to_bits()),
                valid.iter().max().map(|&v| (v as f64).to_bits()),
                rows - valid.len(),
            );
            for stats in [
                ColumnStats::scan(&col, 0, rows, &spec),
                fold_chunks(&col, &bounds, &spec),
            ] {
                let f = stats.finalize(&spec);
                let got = (
                    f.cardinality,
                    f.estimated,
                    lazy_list(&col),
                    f.min.map(f64::to_bits),
                    f.max.map(f64::to_bits),
                    f.null_count,
                );
                prop_assert_eq!(&got, &expected, "column {} cut at {:?}", name, &bounds);
            }
        }
    }

    /// On the pathological frame distribution, a scan forced into sketch
    /// mode must estimate cardinality within the documented error bound of
    /// the exact count (3σ of 1.04/√2^p, plus a small absolute floor for
    /// tiny sets).
    #[test]
    fn sketch_estimate_within_error_bound_on_adversarial_frames(df in adversarial_frame()) {
        let exact_spec = StatsSpec {
            scan_cap: usize::MAX,
            precision: DEFAULT_PRECISION,
        };
        let sketch_spec = StatsSpec { scan_cap: 8, precision: DEFAULT_PRECISION };
        for name in df.column_names() {
            let col = df.column(&name).unwrap();
            if matches!(col, Column::Str(_)) {
                continue; // string stats are exact by construction
            }
            let exact = ColumnStats::scan(col, 0, col.len(), &exact_spec)
                .finalize(&exact_spec);
            let est = ColumnStats::scan(col, 0, col.len(), &sketch_spec)
                .finalize(&sketch_spec);
            if !est.estimated {
                prop_assert_eq!(est.cardinality, exact.cardinality, "{}", name);
                continue;
            }
            let sigma = CardinalitySketch::standard_error(DEFAULT_PRECISION);
            let bound = (exact.cardinality as f64 * 3.0 * sigma).max(3.0);
            let err = (est.cardinality as f64 - exact.cardinality as f64).abs();
            prop_assert!(
                err <= bound,
                "column {}: estimate {} vs exact {} exceeds bound {:.1}",
                name, est.cardinality, exact.cardinality, bound
            );
        }
    }
}

/// A bitset chunk beside a hashed one beside a sketched one: the three
/// forms are what the scan says they are, and every merge order and
/// grouping of them finalizes to what one scan of all the rows does.
#[test]
fn dense_hashed_and_sketched_partials_fold_alike() {
    let spec = StatsSpec {
        scan_cap: 64,
        precision: DEFAULT_PRECISION,
    };
    let rows = 300usize;
    let col = Column::Int64(PrimitiveColumn::from_values(
        (0..rows as i64)
            .map(|i| match i {
                0..=99 => i % 20 - 10,       // 20 values around zero
                150 => 1 << 40,              // one far outlier among...
                100..=199 => i % 20 + 1_000, // ...20 more
                _ => 5_000 + i,              // 100 distinct: past the cap
            })
            .collect::<Vec<_>>(),
    ));
    let parts: Vec<ColumnStats> = [(0, 100), (100, 200), (200, 300)]
        .iter()
        .map(|&(start, end)| ColumnStats::scan(&col, start, end, &spec))
        .collect();
    assert!(parts[0].is_dense() && !parts[0].is_sketched());
    assert!(!parts[1].is_dense() && !parts[1].is_sketched());
    assert!(parts[2].is_sketched());

    let whole = ColumnStats::scan(&col, 0, rows, &spec);
    assert!(whole.is_sketched(), "141 distinct values exceed the cap");
    let merged = |order: [usize; 3], right_first: bool| {
        let [a, b, c] = order.map(|i| parts[i].clone());
        if right_first {
            let mut tail = b;
            tail.merge(&c, &spec);
            let mut acc = a;
            acc.merge(&tail, &spec);
            acc
        } else {
            let mut acc = a;
            acc.merge(&b, &spec);
            acc.merge(&c, &spec);
            acc
        }
    };
    for order in [
        [0, 1, 2],
        [0, 2, 1],
        [1, 0, 2],
        [1, 2, 0],
        [2, 0, 1],
        [2, 1, 0],
    ] {
        for right_first in [false, true] {
            assert_eq!(
                fingerprint(&merged(order, right_first), &col, &spec),
                fingerprint(&whole, &col, &spec),
                "order {order:?}, right-first {right_first}"
            );
        }
    }
    // Under the cap the same closure holds on the exact side: a bitset
    // turns into a hashed set when its neighbour's keys are far away...
    let mut far = parts[0].clone();
    far.merge(&parts[1], &spec);
    assert!(!far.is_dense() && !far.is_sketched());
    assert_eq!(
        fingerprint(&far, &col, &spec),
        fingerprint(&ColumnStats::scan(&col, 0, 200, &spec), &col, &spec)
    );
    // ... and absorbs a hashed neighbour (two rows 600 apart are not worth
    // a bitset of their own) when the joint range is small.
    let near_col = Column::Int64(PrimitiveColumn::from_values(
        (0..100)
            .map(|i| i % 40 - 20)
            .chain([300, 900])
            .collect::<Vec<i64>>(),
    ));
    let tail = ColumnStats::scan(&near_col, 100, 102, &spec);
    assert!(!tail.is_dense());
    let mut near = ColumnStats::scan(&near_col, 0, 100, &spec);
    near.merge(&tail, &spec);
    assert!(near.is_dense());
    assert_eq!(
        fingerprint(&near, &near_col, &spec),
        fingerprint(
            &ColumnStats::scan(&near_col, 0, 102, &spec),
            &near_col,
            &spec
        )
    );
}

/// The keys an order-preserving `u64` encoding makes awkward: the one the
/// table cannot store as a slot, and both ends of the sign flip.
const AWKWARD_KEYS: [u64; 3] = [0, u64::MAX, 1 << 63];

/// A key stream built from segments that are either fresh-heavy (new keys
/// almost every row) or repeat-heavy (draws from a 13-key pool), in any
/// order, each with the awkward keys mixed in — long enough to take a set
/// through its first-growth decision and past its hint.
fn key_stream() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec((any::<bool>(), 0usize..4_000, 0u64..u64::MAX), 1..5).prop_map(
        |segments| {
            let mut keys = Vec::new();
            for (fresh_heavy, len, salt) in segments {
                for i in 0..len as u64 {
                    let pick = if fresh_heavy { i } else { mix64(i) % 13 };
                    keys.push(match pick % 97 {
                        r @ 0..=2 => AWKWARD_KEYS[r as usize],
                        _ => mix64(salt.wrapping_add(pick)),
                    });
                }
            }
            keys
        },
    )
}

fn smallest_of(keys: &[u64], cap: usize) -> SmallestKeys {
    let mut s = SmallestKeys::new(cap);
    for &k in keys {
        s.offer(k);
    }
    s.compact();
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `U64Set` against `HashSet<u64>`: the freshness bit of every insert,
    /// `len` after it, and the iterated key set — whatever table the set
    /// started in (outright, or small with a jump pending), wherever its
    /// first growth fell in the stream, with more keys than its hint, and
    /// after a trim.
    #[test]
    fn u64set_agrees_with_hashset(
        keys in key_stream(),
        hint in prop_oneof![
            Just(0usize), Just(16), Just(4_000), Just(7_168), Just(10_000), Just(70_000),
        ],
    ) {
        let mut set = U64Set::with_capacity(hint);
        let mut oracle: HashSet<u64> = HashSet::new();
        for &k in &keys {
            prop_assert_eq!(set.insert(k), oracle.insert(k), "freshness of key {}", k);
            prop_assert_eq!(set.len(), oracle.len());
        }
        prop_assert_eq!(set.is_empty(), oracle.is_empty());
        prop_assert_eq!(set.iter().count(), oracle.len(), "a key was iterated twice");
        prop_assert_eq!(&set.iter().collect::<HashSet<u64>>(), &oracle);

        set.trim();
        prop_assert_eq!(set.len(), oracle.len());
        prop_assert_eq!(&set.iter().collect::<HashSet<u64>>(), &oracle);
        for &k in &keys {
            prop_assert!(!set.insert(k), "key {} lost by trim", k);
        }
    }

    /// `SmallestKeys` against the first K of a `BTreeSet`, for the input
    /// orders that separate a buffered accumulator from a sorted-insert one
    /// (ascending rejects everything, descending accepts everything,
    /// sawtooth re-offers retained keys, duplicate-heavy never fills), and
    /// for the same stream offered from any rotation.
    #[test]
    fn smallest_keys_match_btreeset_prefix(
        shape in 0usize..5,
        n in 0u64..3_000,
        period in 1u64..700,
        salt in 0u64..u64::MAX,
        cap in prop_oneof![Just(1usize), Just(8), Just(256)],
        cut in 0usize..3_000,
    ) {
        let keys: Vec<u64> = (0..n)
            .map(|i| match shape {
                0 => i * 3,
                1 => u64::MAX - i * 3,
                2 => (n - i) * 3,
                3 => (i % period) * 5 + (i / period) % 2,
                _ => mix64(salt ^ (i % 7)),
            })
            .collect();
        let first_k = |keys: &[u64]| -> Vec<u64> {
            keys.iter().copied().collect::<BTreeSet<u64>>().into_iter().take(cap).collect()
        };
        let expected = first_k(&keys);
        prop_assert_eq!(smallest_of(&keys, cap).keys(), &expected[..]);

        // The same keys offered from a rotation of the stream.
        let cut = cut.min(keys.len());
        prop_assert_eq!(smallest_of(&keys[..cut], cap).keys(), &first_k(&keys[..cut])[..]);
        let rotated: Vec<u64> = keys[cut..].iter().chain(&keys[..cut]).copied().collect();
        prop_assert_eq!(smallest_of(&rotated, cap).keys(), &expected[..]);
    }
}

/// The sizing rule, observed through `bytes()`: a set hinted past the
/// outright size starts L1-sized; at its first growth a fresh-heavy prefix
/// sends it straight to the hinted table, a repeat-heavy one leaves it
/// doubling; a small hint is allocated outright; and the hint is not a
/// bound.
#[test]
fn u64set_sizes_itself_from_what_it_has_seen() {
    let hint = UNIQUE_SCAN_CAP + 1;
    let hinted_bytes = ((hint * 8 / 7 + 1).next_power_of_two() * 8) as u64;
    let fresh = |set: &mut U64Set, range: std::ops::Range<u64>| {
        for i in range {
            assert!(set.insert(mix64(i) | 1));
        }
    };

    let mut fresh_first = U64Set::with_capacity(hint);
    let start_bytes = fresh_first.bytes();
    assert!(
        start_bytes <= 32 << 10,
        "a large hint must not allocate up front"
    );
    fresh(&mut fresh_first, 0..2_000);
    assert_eq!(
        fresh_first.bytes(),
        hinted_bytes,
        "fresh-heavy prefix jumps"
    );
    for i in 0..50_000u64 {
        fresh_first.insert(mix64(i % 10) | 1);
    }
    assert_eq!(
        fresh_first.bytes(),
        hinted_bytes,
        "repeats after the jump do not grow it"
    );
    fresh_first.trim();
    assert!(
        fresh_first.bytes() < hinted_bytes / 8,
        "trim gives the overshoot back"
    );
    assert_eq!(fresh_first.len(), 2_000);

    let mut repeats_first = U64Set::with_capacity(hint);
    for i in 0..50_000u64 {
        repeats_first.insert(mix64(i % 10) | 1);
    }
    assert_eq!(
        repeats_first.bytes(),
        start_bytes,
        "ten keys never leave the first table"
    );
    fresh(&mut repeats_first, 100..2_100);
    assert_eq!(
        repeats_first.bytes(),
        start_bytes * 2,
        "repeat-heavy prefix doubles"
    );
    assert_eq!(repeats_first.len(), 2_010);

    let mut small = U64Set::with_capacity(4_000);
    let outright = small.bytes();
    assert_eq!(outright, 64 << 10);
    fresh(&mut small, 0..4_000);
    assert_eq!(
        small.bytes(),
        outright,
        "a small hint is allocated at final size"
    );
    fresh(&mut small, 4_000..9_000);
    assert_eq!(small.len(), 9_000, "the hint is not a bound");
}

/// Release-mode shape check, run by the CI metadata-stress job: the value
/// list's fill must not care which way a column is sorted. A strictly
/// descending column offers every key to the smallest-K accumulator and an
/// ascending one none after the first 2K, so this is the accumulator's worst
/// case against its best.
#[test]
#[ignore = "timing shape; run in release via CI metadata-stress or --include-ignored"]
fn descending_column_fills_its_value_list_as_fast_as_ascending() {
    let rows = 100_000i64;
    let column = |values: Vec<i64>| Arc::new(Column::Int64(PrimitiveColumn::from_values(values)));
    let (asc, desc) = (
        column((0..rows).collect()),
        column((0..rows).rev().collect()),
    );
    let fill = |col: &Arc<Column>| -> Duration {
        let t = Instant::now();
        std::hint::black_box(UniqueValues::new(Arc::clone(col)).len());
        t.elapsed()
    };
    // Best of 7, interleaved, so a noisy stretch on a shared runner lands
    // on both sides instead of on one.
    let (mut ascending, mut descending) = (Duration::MAX, Duration::MAX);
    for _ in 0..7 {
        ascending = ascending.min(fill(&asc));
        descending = descending.min(fill(&desc));
    }
    assert!(
        descending.as_secs_f64() <= 1.5 * ascending.as_secs_f64(),
        "descending {descending:?} vs ascending {ascending:?}"
    );
}

/// The hashed scan before the tall-chunk rule, copied as the reference it
/// must reproduce: the exact set takes every key until it passes the cap,
/// then converts into the sketch of its keys, and every later row feeds the
/// sketch.
fn converting_scan<T: ScanValue>(
    values: &[T],
    validity: Option<&Bitmap>,
    spec: &StatsSpec,
) -> NumericStats {
    /// `DistinctAcc::insert` as it was: convert on the insert past the cap.
    fn insert(distinct: &mut DistinctAcc, key: u64, spec: &StatsSpec) {
        match distinct {
            DistinctAcc::Exact(set) => {
                if set.insert(key) && set.len() > spec.scan_cap {
                    let mut sketch = CardinalitySketch::new(spec.precision);
                    set.iter().for_each(|k| sketch.insert_key(k));
                    *distinct = DistinctAcc::Sketch(sketch);
                }
            }
            DistinctAcc::Sketch(s) => s.insert_key(key),
            DistinctAcc::Dense(_) => unreachable!("a bitset is filled whole by its scan"),
        }
    }
    let rows = values.len();
    let hint = rows.min(spec.scan_cap.saturating_add(1));
    let mut distinct = DistinctAcc::Exact(U64Set::with_capacity(hint));
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    let valid = for_each_valid(validity, 0, rows, |i| {
        let v = values[i];
        v.update_minmax(&mut lo, &mut hi);
        let key = v.key();
        insert(&mut distinct, key, spec);
    });
    if let DistinctAcc::Exact(set) = &mut distinct {
        set.trim();
    }
    NumericStats {
        rows,
        null_count: rows - valid,
        lo,
        hi,
        distinct,
    }
}

/// A partial's registers or exact key set, extremes and counts.
fn partial_shape(n: &NumericStats) -> impl PartialEq + std::fmt::Debug {
    let distinct = match &n.distinct {
        DistinctAcc::Exact(set) => {
            let mut keys: Vec<u64> = set.iter().collect();
            keys.sort_unstable();
            (Some(keys), None)
        }
        DistinctAcc::Sketch(s) => (None, Some(s.clone())),
        DistinctAcc::Dense(_) => panic!("a float chunk is never a bitset"),
    };
    (
        distinct,
        n.lo.to_bits(),
        n.hi.to_bits(),
        n.rows,
        n.null_count,
    )
}

/// The tall-chunk rule (DESIGN.md §14): a chunk taller than its cap whose
/// set jumped feeds a sketch from then on, and lands on exactly the
/// partial the convert-at-the-cap loop does — near-unique, exactly `cap`
/// and `cap + 1` distinct (the set jumps, then stays exact or converts),
/// 30 distinct in 100k rows (no jump, no sketch), NaN / null / `-0.0`
/// mixes, the degraded cap whose set is allocated outright and never
/// jumps, and a chunk no taller than its cap, whose set may jump but which
/// never starts a sketch.
#[test]
fn tall_chunk_partials_equal_the_converting_scan() {
    let rows = 100_000usize;
    let spec = |scan_cap| StatsSpec {
        scan_cap,
        precision: DEFAULT_PRECISION,
    };
    let near_unique = |i: usize| (mix64(i as u64) % 1_000_000_007) as f64 / 1e4;
    let cycling = |distinct: usize| move |i: usize| (i % distinct) as f64 * 0.5 - 7.0;
    let cases: Vec<(&str, Vec<Option<f64>>, StatsSpec)> = vec![
        (
            "near-unique",
            (0..rows).map(|i| Some(near_unique(i))).collect(),
            spec(UNIQUE_SCAN_CAP),
        ),
        (
            "exactly cap",
            (0..rows)
                .map(|i| Some(cycling(UNIQUE_SCAN_CAP)(i)))
                .collect(),
            spec(UNIQUE_SCAN_CAP),
        ),
        (
            "cap + 1",
            (0..rows)
                .map(|i| Some(cycling(UNIQUE_SCAN_CAP + 1)(i)))
                .collect(),
            spec(UNIQUE_SCAN_CAP),
        ),
        (
            "30 distinct",
            (0..rows).map(|i| Some(cycling(30)(i))).collect(),
            spec(UNIQUE_SCAN_CAP),
        ),
        (
            "nan / null / -0.0 mix",
            (0..rows)
                .map(|i| match mix64(i as u64 ^ 0xfeed) % 10 {
                    0 => None,
                    1 => Some(f64::NAN),
                    2 => Some(-0.0),
                    3 => Some(0.0),
                    _ => Some(near_unique(i)),
                })
                .collect(),
            spec(UNIQUE_SCAN_CAP),
        ),
        (
            "degraded cap",
            (0..rows).map(|i| Some(near_unique(i))).collect(),
            spec(4_096),
        ),
        (
            "no taller than its cap",
            (0..rows).map(|i| Some(near_unique(i))).collect(),
            spec(rows),
        ),
    ];
    for (name, values, spec) in cases {
        let col = PrimitiveColumn::from_options(values);
        let reference = converting_scan(col.values(), col.validity(), &spec);
        let ColumnStats::Numeric(tall) =
            ColumnStats::scan(&Column::Float64(col.clone()), 0, rows, &spec)
        else {
            panic!("a float column scans into a numeric partial");
        };
        assert_eq!(partial_shape(&tall), partial_shape(&reference), "{name}");
    }
}

/// Release-mode shape check, run by the CI metadata-stress job: the
/// sketch the tall-chunk rule may start costs nothing on a column where it
/// must never start. 30 distinct floats in 100k rows scan within 1.05x of
/// the converting loop the rule replaced.
#[test]
#[ignore = "timing shape; run in release via CI metadata-stress or --include-ignored"]
fn low_cardinality_tall_column_scans_as_fast_as_the_converting_loop() {
    let spec = StatsSpec {
        scan_cap: UNIQUE_SCAN_CAP,
        precision: DEFAULT_PRECISION,
    };
    let values: Vec<f64> = (0..100_000).map(|i| (i % 30) as f64 * 1.25).collect();
    let col = Column::Float64(PrimitiveColumn::from_values(values.clone()));
    let time = |scan: &dyn Fn()| -> Duration {
        let t = Instant::now();
        scan();
        t.elapsed()
    };
    let (mut tall, mut converting) = (Duration::MAX, Duration::MAX);
    for _ in 0..15 {
        tall = tall.min(time(&|| {
            std::hint::black_box(ColumnStats::scan(&col, 0, col.len(), &spec));
        }));
        converting = converting.min(time(&|| {
            std::hint::black_box(converting_scan(&values, None, &spec));
        }));
    }
    assert!(
        tall.as_secs_f64() <= 1.05 * converting.as_secs_f64(),
        "tall-chunk scan {tall:?} vs converting loop {converting:?}"
    );
}

/// The documented bound must also hold at a scale where linear counting no
/// longer helps: 200k distinct keys through the real scan-and-convert path.
#[test]
fn sketch_estimate_accurate_at_scale() {
    let n = 200_000usize;
    let col = Column::Int64(PrimitiveColumn::from_values(
        (0..n).map(|i| mix64(i as u64) as i64).collect::<Vec<_>>(),
    ));
    let spec = StatsSpec {
        scan_cap: 4_096,
        precision: DEFAULT_PRECISION,
    };
    let f = ColumnStats::scan(&col, 0, n, &spec).finalize(&spec);
    assert!(f.estimated);
    let sigma = CardinalitySketch::standard_error(DEFAULT_PRECISION);
    let err = (f.cardinality as f64 - n as f64).abs() / n as f64;
    assert!(
        err <= 3.0 * sigma,
        "relative error {err:.4} exceeds 3σ = {:.4}",
        3.0 * sigma
    );
}

/// Rows `[start, end)` of the append fixture: a unique id (sketches once
/// the concatenated frame outgrows the scan cap), a repeating float, a
/// low-cardinality string (the tail introduces "d"), and a rating.
fn stats_fixture(start: usize, end: usize) -> DataFrame {
    DataFrameBuilder::new()
        .int("id", start as i64..end as i64)
        .float("pay", (start..end).map(|i| (i % 97) as f64))
        .str(
            "dept",
            (start..end).map(|i| {
                if i % 4 == 3 && start > 0 {
                    "d" // only the tail carries the fourth department
                } else {
                    ["a", "b", "c"][i % 3]
                }
            }),
        )
        .int("rating", (start..end).map(|i| (i % 5) as i64))
        .build()
        .expect("fixture frame")
}

/// Appending a tail and merging cached parent partials must land on the
/// same `FrameMeta` — and the same governor charges and event stream — as
/// recomputing the concatenated frame from scratch, at thread counts 1 and
/// 8. The parent's id column is exact in the cache but the union crosses
/// the scan cap, so the exact→sketch conversion happens *during the merge*
/// on the append path and *mid-scan* on the full path; both must produce
/// identical registers, and the CappedCardinality event must be identical.
#[test]
fn append_then_merge_equals_full_recompute_across_threads() {
    let _guard = lock();
    let overrides = HashMap::new();
    // 60k parent rows + 20k tail rows: the 80k unique ids exceed the 65536
    // exact-distinct cap only after the append.
    let (parent_rows, total_rows) = (60_000, 80_000);
    let tail = stats_fixture(parent_rows, total_rows);
    let metrics = MetricsRegistry::global();

    let mut outputs: Vec<(String, common::MetadataPassOutput)> = Vec::new();
    for &threads in &[1usize, 8] {
        // Append path: keep partials on the parent, then concat (which
        // stamps lineage) so metadata can merge them with a tail-only
        // scan.
        let base = stats_fixture(0, parent_rows);
        of_frame(&base, &overrides, false, None, None, threads);
        let appended = base.concat(&tail).expect("concat");
        let merges_before = metrics.counter(names::METADATA_APPEND_MERGES);
        let h_app = BudgetHandle::new(ResourceBudget::unlimited());
        let m_app = of_frame(&appended, &overrides, false, None, Some(&h_app), threads);
        assert!(
            metrics.counter(names::METADATA_APPEND_MERGES) > merges_before,
            "append pass at threads={threads} did not take the merge path"
        );

        // Full path: a rebuilt parent was never scanned, so the concat has
        // no cached partials and metadata recomputes from scratch.
        let fresh = stats_fixture(0, parent_rows).concat(&tail).expect("concat");
        let h_full = BudgetHandle::new(ResourceBudget::unlimited());
        let m_full = of_frame(&fresh, &overrides, false, None, Some(&h_full), threads);

        outputs.push((
            format!("threads={threads}/append"),
            pass_output(&m_app, &h_app),
        ));
        outputs.push((
            format!("threads={threads}/full"),
            pass_output(&m_full, &h_full),
        ));
    }

    let (first_label, first) = &outputs[0];
    assert!(
        first.2.iter().any(|e| e.contains("id")),
        "expected a CappedCardinality event for the sketched id column, got {:?}",
        first.2
    );
    assert!(
        first.1[0].contains("true"),
        "id column should report an estimated cardinality: {}",
        first.1[0]
    );
    for (label, out) in &outputs[1..] {
        assert_eq!(out.0, first.0, "{label} vs {first_label}: charges");
        assert_eq!(out.1, first.1, "{label} vs {first_label}: columns");
        assert_eq!(out.2, first.2, "{label} vs {first_label}: events");
    }
}

/// `airbnb(150_000, 7)` plus [`dense_int_columns`] at the shipped scan cap
/// and a 4 096-row step: between them an exact column just under the cap
/// (`host_id`), one at exactly the cap and one a single key past it (both
/// inside a dense span), a column that is a bitset per 4 096-row chunk and
/// hashed or sketched on the coarser grids, one whose single outlier makes
/// the chunk holding it hashed, sketched near-unique ints and floats,
/// nulls, low-cardinality ints and strings.
fn grid_frame() -> DataFrame {
    let base = lux::workloads::airbnb(150_000, 7);
    let mut cols: Vec<(String, Column)> = base
        .column_names()
        .iter()
        .enumerate()
        .map(|(i, name)| (name.clone(), base.column_at(i).clone()))
        .collect();
    cols.extend(dense_int_columns(base.num_rows(), 4_096, UNIQUE_SCAN_CAP));
    DataFrame::from_columns(cols).expect("grid frame")
}

/// `df` with the named integer column moved up by `by`.
fn shifted(df: &DataFrame, name: &str, by: i64) -> DataFrame {
    let Column::Int64(c) = df.column(name).expect("column") else {
        panic!("{name} is not an integer column");
    };
    let moved = c.values().iter().map(|v| v + by).collect();
    df.with_column(name, Column::Int64(PrimitiveColumn::from_values(moved)))
        .expect("with_column")
}

/// The metadata pass is a pure function of the scanned rows: the chunk grid
/// (many chunks, the old 65 536-row grid whose first near-unique chunk ends
/// exactly at the scan cap, the shipped one-accumulator grid) and the
/// thread count change neither `FrameMeta`, nor the governor's charge, nor
/// its events — and on every grid an append that merges the parent's cached
/// partials with a 1% tail lands on what a full recompute of the
/// concatenated frame does.
#[test]
fn chunk_grid_and_thread_count_do_not_change_the_pass() {
    let _guard = lock();
    let budget = ResourceBudget::default();
    let df = grid_frame();
    let reference = assert_grid_invariant(&df, &budget, &CHUNK_GRID);
    let column = |name: &str| -> &str {
        let prefix = format!("{name}|");
        reference
            .1
            .iter()
            .find(|c| c.starts_with(&prefix))
            .expect("column present")
    };
    let cap = UNIQUE_SCAN_CAP;
    assert!(column("exactly_cap").contains(&format!("|{cap}|false|")));
    assert!(
        column("cap_plus_one").contains("|true|"),
        "{}",
        &column("cap_plus_one")[..60]
    );
    assert!(column("id").contains("|true|") && column("latitude").contains("|true|"));
    assert!(
        column("host_id").contains("|false|"),
        "host_id stays exact under the cap"
    );
    assert!(column("dense").contains("|1000|false|"));
    assert!(column("dense_outlier").contains("|101|false|"));
    assert!(column("dense_stepped").contains("|true|"));
    assert_eq!(
        reference.2.len(),
        6,
        "one capped-cardinality event per sketched column: {:?}",
        reference.2
    );

    let metrics = MetricsRegistry::global();
    let all: Vec<&str> = df.column_names().iter().map(|s| s.as_str()).collect();
    // A 1% tail whose values reach past the parent's: `dense` stays a
    // bitset over a wider span, `exactly_cap` crosses the cap in the merge.
    let tail = df.head(df.num_rows() / 100);
    let tail = shifted(&tail, "dense", 700);
    let tail = shifted(&tail, "exactly_cap", UNIQUE_SCAN_CAP as i64 / 2);
    let mut appended_reference: Option<common::MetadataPassOutput> = None;
    for chunk_rows in CHUNK_GRID {
        for threads in THREAD_GRID {
            // A fresh fingerprint per grid point, so the parent partials
            // the append merges were computed on this grid.
            let parent = df.select(&all).expect("select");
            governed_pass(&parent, &budget, threads, chunk_rows);
            let appended = parent.concat(&tail).expect("concat");
            let merges_before = metrics.counter(names::METADATA_APPEND_MERGES);
            let merged = governed_pass(&appended, &budget, threads, chunk_rows);
            assert!(
                metrics.counter(names::METADATA_APPEND_MERGES) > merges_before,
                "append at chunk_rows={chunk_rows} threads={threads} did not merge"
            );
            let full = appended_reference.get_or_insert_with(|| {
                let fresh = appended.select(&all).expect("select");
                assert!(fresh.append_lineage().is_none());
                governed_pass(&fresh, &budget, 1, CHUNK_GRID[2])
            });
            assert_eq!(
                &merged, full,
                "append merge diverged from full recompute at chunk_rows={chunk_rows} threads={threads}"
            );
        }
    }
}

/// Acceptance check for the fused kernels at scale, run by the CI
/// metadata-stress job inside a 4 GiB address-space rlimit: a governed
/// 1M-row pass must complete under the *default* budget without degrading,
/// sketch the near-unique id column within the documented error bound, and
/// produce identical metadata and governor accounting at threads 1 and 8.
#[test]
#[ignore = "acceptance-scale; run via CI metadata-stress or --include-ignored"]
fn one_million_row_governed_metadata_is_bounded_and_deterministic() {
    let _guard = lock();
    let rows = 1_000_000usize;
    let overrides = HashMap::new();
    let build = || {
        DataFrameBuilder::new()
            .int("id", 0..rows as i64)
            .float("v", (0..rows).map(|i| (i % 1_000) as f64 / 10.0))
            .str("cat", (0..rows).map(|i| ["a", "b", "c", "d"][i % 4]))
            .build()
            .expect("1M-row frame")
    };

    let h1 = BudgetHandle::new(ResourceBudget::default());
    let m1 = of_frame(&build(), &overrides, false, None, Some(&h1), 1);
    let h8 = BudgetHandle::new(ResourceBudget::default());
    let m8 = of_frame(&build(), &overrides, false, None, Some(&h8), 8);

    assert!(
        !h1.breached(),
        "default budget must absorb a 1M-row metadata pass"
    );
    let id = m1.column("id").expect("id column");
    assert!(id.cardinality_estimated, "1M unique ids must sketch");
    let sigma = CardinalitySketch::standard_error(DEFAULT_PRECISION);
    let err = (id.cardinality as f64 - rows as f64).abs() / rows as f64;
    assert!(
        err <= 3.0 * sigma,
        "id estimate {} off true {rows} by {err:.4} (> 3σ = {:.4})",
        id.cardinality,
        3.0 * sigma
    );
    assert!(!m1.column("cat").expect("cat").cardinality_estimated);

    assert_eq!(pass_output(&m1, &h1), pass_output(&m8, &h8));
}

/// When the governed plan degrades a column's scan cap, the cached parent
/// partials (computed at the full cap) are no longer mergeable; the pass
/// must fall back to a full rescan and still match a from-scratch governed
/// recompute exactly — same metadata, same charges, same events.
#[test]
fn append_with_degraded_plan_falls_back_and_stays_correct() {
    let _guard = lock();
    let overrides = HashMap::new();
    let budget = ResourceBudget {
        max_bytes: 300_000, // tight enough that later columns degrade
        ..ResourceBudget::default()
    };
    let tail = stats_fixture(5_000, 7_000);

    let base = stats_fixture(0, 5_000);
    of_frame(&base, &overrides, false, None, None, 1);
    let appended = base.concat(&tail).expect("concat");
    let h_app = BudgetHandle::new(budget.clone());
    let m_app = of_frame(&appended, &overrides, false, None, Some(&h_app), 1);

    let fresh = stats_fixture(0, 5_000).concat(&tail).expect("concat");
    let h_full = BudgetHandle::new(budget);
    let m_full = of_frame(&fresh, &overrides, false, None, Some(&h_full), 8);

    let a = pass_output(&m_app, &h_app);
    let b = pass_output(&m_full, &h_full);
    assert!(!a.2.is_empty(), "budget was not tight enough to degrade");
    assert_eq!(a, b, "degraded append pass diverged from full recompute");
}

// ---------------------------------------------------------------------
// Value lists on demand: built on first read, equal to a set oracle
// ---------------------------------------------------------------------

/// What a column's value list must hold, from a `BTreeSet`: the
/// `UNIQUE_VALUES_CAP` smallest distinct keys of the valid rows (NaN one
/// key, `-0.0` folded into `0.0`), or the first `UNIQUE_VALUES_CAP`
/// dictionary codes a valid row references.
fn list_oracle(col: &Column) -> Vec<Value> {
    let valid = (0..col.len()).filter(|&i| !col.value(i).is_null());
    let smallest = |keys: BTreeSet<u64>, value: fn(u64) -> Value| -> Vec<Value> {
        keys.into_iter()
            .take(UNIQUE_VALUES_CAP)
            .map(value)
            .collect()
    };
    match col {
        Column::Int64(c) => smallest(valid.map(|i| encode_i64(c.values()[i])).collect(), |k| {
            Value::Int(decode_i64(k))
        }),
        Column::DateTime(c) => smallest(valid.map(|i| encode_i64(c.values()[i])).collect(), |k| {
            Value::DateTime(decode_i64(k))
        }),
        Column::Float64(c) => smallest(valid.map(|i| encode_f64(c.values()[i])).collect(), |k| {
            Value::Float(decode_f64(k))
        }),
        Column::Bool(c) => smallest(valid.map(|i| c.values()[i] as u64).collect(), |k| {
            Value::Bool(k == 1)
        }),
        Column::Str(c) => {
            let codes: BTreeSet<u32> = valid.map(|i| c.codes()[i]).collect();
            let entries = codes.into_iter().take(UNIQUE_VALUES_CAP);
            entries
                .map(|code| Value::Str(c.dict()[code as usize].clone()))
                .collect()
        }
    }
}

/// Every column's list in `meta` against the oracle over `df`'s columns.
fn lists_match_the_oracle(meta: &FrameMeta, df: &DataFrame) {
    for (i, cm) in meta.columns.iter().enumerate() {
        prop_assert!(
            !cm.unique_values.is_built(),
            "{} built before a read",
            cm.name
        );
        let expected = list_oracle(df.column_at(i));
        prop_assert_eq!(&cm.unique_values[..], &expected[..], "column {}", &cm.name);
        prop_assert!(cm.unique_values.is_built());
        let complete = expected.len() == cm.cardinality && cm.cardinality <= UNIQUE_VALUES_CAP;
        prop_assert_eq!(cm.unique_complete, complete, "column {}", &cm.name);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The lazy list of every column of the adversarial generator's frames
    /// (NaN, `-0.0`, nulls, all-null and empty columns, both sides of the
    /// cap) equals the set oracle, on every chunk grid, and on an appended
    /// frame whose pass merged its parent's kept partials.
    #[test]
    fn lazy_value_lists_match_the_set_oracle(df in adversarial_frame(), cut in 0usize..400) {
        let overrides = HashMap::new();
        for chunk_rows in std::iter::once(7).chain(CHUNK_GRID) {
            let fresh = df.select(&df.column_names().iter().map(|s| s.as_str()).collect::<Vec<_>>())
                .expect("select");
            let meta = FrameMeta::compute_with_chunk_rows(
                &fresh, &overrides, None, None, 2, chunk_rows, &[],
            );
            lists_match_the_oracle(&meta, &df);
        }
        let cut = cut.min(df.num_rows());
        let parent = df.head(cut);
        FrameMeta::compute(&parent, &overrides);
        let appended = parent.concat(&df.tail(df.num_rows() - cut)).expect("concat");
        let meta = FrameMeta::compute_with_chunk_rows(
            &appended, &overrides, None, None, 2, 7, appended.append_lineage().as_slice(),
        );
        lists_match_the_oracle(&meta, &appended);
        lists_match_the_oracle(&FrameMeta::compute(&appended, &overrides), &df);
    }
}

/// A print reads a value list only where an intent path needs one: a
/// no-intent print of `print_wide`'s frame builds none, and an intent on
/// `price` builds exactly the lists of the columns Filter expands (the
/// unused nominal and geographic ones of at most `max_filter_expansions`
/// values).
#[test]
fn a_print_builds_only_the_value_lists_it_reads() {
    let wide = LuxDataFrame::new(lux::workloads::communities(2_000, 11));
    wide.print();
    let meta = wide.metadata();
    assert_eq!(meta.columns.len(), 128);
    let built: Vec<&str> = (meta.columns.iter())
        .filter(|c| c.unique_values.is_built())
        .map(|c| c.name.as_str())
        .collect();
    assert!(built.is_empty(), "a no-intent print built {built:?}");

    // Inline actions: no hard cutoff can abandon Filter on a loaded box.
    let config = LuxConfig {
        r#async: false,
        ..LuxConfig::default()
    };
    let mut airbnb = LuxDataFrame::with_config(lux::workloads::airbnb(5_000, 11), Arc::new(config));
    airbnb.set_intent_strs(["price"]).expect("intent");
    let widget = airbnb.print();
    assert!(widget.tabs().contains(&"Filter"), "{:?}", widget.tabs());
    let meta = airbnb.metadata();
    let cap = LuxConfig::default().max_filter_expansions;
    let expanded: Vec<&str> = (meta.columns.iter())
        .filter(|c| {
            matches!(c.semantic, SemanticType::Nominal | SemanticType::Geographic)
                && c.name != "price"
                && (1..=cap).contains(&c.cardinality)
        })
        .map(|c| c.name.as_str())
        .collect();
    let built: Vec<&str> = (meta.columns.iter())
        .filter(|c| c.unique_values.is_built())
        .map(|c| c.name.as_str())
        .collect();
    assert!(!expanded.is_empty());
    assert_eq!(built, expanded);
}
