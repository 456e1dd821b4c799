//! Property-based tests over the dataframe substrate's core invariants.

use lux::prelude::*;
use proptest::prelude::*;

/// Strategy: a small frame with one numeric and one categorical column.
fn frame_strategy() -> impl Strategy<Value = DataFrame> {
    (1usize..60).prop_flat_map(|rows| {
        (
            proptest::collection::vec(proptest::option::of(-1_000i64..1_000), rows),
            proptest::collection::vec(0usize..4, rows),
        )
            .prop_map(|(nums, cats)| {
                let labels = ["a", "b", "c", "d"];
                let num_col = Column::Int64(PrimitiveColumn::from_options(nums));
                let cat_col = Column::Str(StrColumn::from_strings(cats.iter().map(|&c| labels[c])));
                DataFrame::from_columns(vec![
                    ("n".to_string(), num_col),
                    ("c".to_string(), cat_col),
                ])
                .unwrap()
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn filter_returns_subset_and_complement_partitions(df in frame_strategy(), threshold in -1_000i64..1_000) {
        let le = df.filter("n", FilterOp::Le, &Value::Int(threshold)).unwrap();
        let gt = df.filter("n", FilterOp::Gt, &Value::Int(threshold)).unwrap();
        let nulls = df.column("n").unwrap().null_count();
        // nulls match neither side; the rest partitions exactly
        prop_assert_eq!(le.num_rows() + gt.num_rows() + nulls, df.num_rows());
        for i in 0..le.num_rows() {
            let v = le.value(i, "n").unwrap();
            prop_assert!(v.as_f64().unwrap() <= threshold as f64);
        }
    }

    #[test]
    fn sort_is_a_monotone_permutation(df in frame_strategy()) {
        let sorted = df.sort_by(&["n"], true).unwrap();
        prop_assert_eq!(sorted.num_rows(), df.num_rows());
        // monotone (nulls first, by total order)
        for i in 1..sorted.num_rows() {
            let prev = sorted.value(i - 1, "n").unwrap();
            let cur = sorted.value(i, "n").unwrap();
            prop_assert!(prev.total_cmp(&cur) != std::cmp::Ordering::Greater);
        }
        // permutation: multiset of values preserved (compare sorted strings)
        let mut before: Vec<String> =
            (0..df.num_rows()).map(|i| df.value(i, "n").unwrap().to_string()).collect();
        let mut after: Vec<String> =
            (0..sorted.num_rows()).map(|i| sorted.value(i, "n").unwrap().to_string()).collect();
        before.sort();
        after.sort();
        prop_assert_eq!(before, after);
    }

    #[test]
    fn groupby_count_sums_to_rows(df in frame_strategy()) {
        let counts = df.groupby(&["c"]).unwrap().count().unwrap();
        let total: i64 = (0..counts.num_rows())
            .map(|i| counts.value(i, "count").unwrap().as_f64().unwrap() as i64)
            .sum();
        prop_assert_eq!(total as usize, df.num_rows());
        // group count equals distinct values (null-free generator here)
        prop_assert_eq!(counts.num_rows(), df.cardinality("c").unwrap());
    }

    #[test]
    fn groupby_mean_is_bounded_by_min_max(df in frame_strategy()) {
        let agg = df.groupby(&["c"]).unwrap().agg(&[("n", Agg::Mean)]).unwrap();
        if let Some((lo, hi)) = df.column("n").unwrap().min_max_f64() {
            for i in 0..agg.num_rows() {
                if let Some(m) = agg.value(i, "n").unwrap().as_f64() {
                    prop_assert!(m >= lo - 1e-9 && m <= hi + 1e-9, "mean {m} outside [{lo}, {hi}]");
                }
            }
        }
    }

    #[test]
    fn head_tail_partition(df in frame_strategy(), n in 0usize..70) {
        let h = df.head(n);
        let t = df.tail(df.num_rows().saturating_sub(n));
        prop_assert_eq!(h.num_rows() + t.num_rows(), df.num_rows());
    }

    #[test]
    fn concat_roundtrips_split(df in frame_strategy(), split in 0usize..60) {
        let split = split.min(df.num_rows());
        let top = df.head(split);
        let bottom = df.tail(df.num_rows() - split);
        let merged = top.concat(&bottom).unwrap();
        prop_assert_eq!(merged.num_rows(), df.num_rows());
        for i in 0..df.num_rows() {
            prop_assert_eq!(merged.value(i, "n").unwrap(), df.value(i, "n").unwrap());
            prop_assert_eq!(merged.value(i, "c").unwrap(), df.value(i, "c").unwrap());
        }
    }

    #[test]
    fn csv_roundtrip_preserves_values(df in frame_strategy()) {
        let mut buf = Vec::new();
        lux::dataframe::csv::write_csv(&df, &mut buf).unwrap();
        let re = lux::dataframe::csv::read_csv_str(std::str::from_utf8(&buf).unwrap()).unwrap();
        prop_assert_eq!(re.num_rows(), df.num_rows());
        for i in 0..df.num_rows() {
            prop_assert_eq!(re.value(i, "n").unwrap(), df.value(i, "n").unwrap());
            prop_assert_eq!(re.value(i, "c").unwrap(), df.value(i, "c").unwrap());
        }
    }

    #[test]
    fn histogram_counts_sum_to_valid_rows(df in frame_strategy(), bins in 1usize..12) {
        let col = df.column("n").unwrap();
        let valid = (0..col.len()).filter(|&i| col.is_valid(i)).count();
        let (edges, counts) = df.histogram("n", bins).unwrap();
        prop_assert_eq!(edges.len(), bins + 1);
        prop_assert_eq!(counts.iter().sum::<u64>() as usize, valid);
    }

    #[test]
    fn sample_is_subset_without_replacement(df in frame_strategy(), n in 0usize..70, seed in 0u64..u64::MAX) {
        let s = df.sample(n, seed);
        prop_assert_eq!(s.num_rows(), n.min(df.num_rows()));
        // every sampled categorical value exists in the source
        let source: std::collections::HashSet<String> =
            (0..df.num_rows()).map(|i| df.value(i, "c").unwrap().to_string()).collect();
        for i in 0..s.num_rows() {
            prop_assert!(source.contains(&s.value(i, "c").unwrap().to_string()));
        }
    }

    #[test]
    fn dropna_leaves_no_nulls(df in frame_strategy()) {
        let d = df.dropna();
        prop_assert_eq!(d.column("n").unwrap().null_count(), 0);
        prop_assert!(d.num_rows() <= df.num_rows());
    }

    #[test]
    fn value_counts_is_sorted_and_complete(df in frame_strategy()) {
        let vc = df.value_counts("c").unwrap();
        let counts: Vec<i64> = (0..vc.num_rows())
            .map(|i| vc.value(i, "count").unwrap().as_f64().unwrap() as i64)
            .collect();
        for w in counts.windows(2) {
            prop_assert!(w[0] >= w[1], "value_counts must sort descending");
        }
        prop_assert_eq!(counts.iter().sum::<i64>() as usize, df.num_rows());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Civil-date math roundtrips over a wide range (covers leap years and
    /// negative epochs).
    #[test]
    fn datetime_format_parse_roundtrip(days in -40_000i64..80_000, secs in 0i64..86_400) {
        let epoch = days * 86_400 + secs;
        let rendered = lux::dataframe::value::format_epoch(epoch);
        let parsed = lux::dataframe::value::parse_datetime(&rendered)
            .expect("rendered datetimes parse back");
        prop_assert_eq!(parsed, epoch, "roundtrip through {}", rendered);
    }
}
