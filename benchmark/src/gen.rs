//! Seeded input generation that the workload crates do not already cover.

/// splitmix64: the benchmark's only source of randomness besides the seeded
/// dataset generators in `lux-workloads`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

pub const CSV_ROWS: usize = 4_000;
pub const CSV_COLS: usize = 8;

/// The served payload: a `CSV_ROWS` x `CSV_COLS` numeric CSV with columns
/// `c0..`, values in 0..1000.
pub fn numeric_csv(seed: u64) -> String {
    let mut rng = Rng::new(seed);
    let mut out = String::with_capacity(CSV_ROWS * CSV_COLS * 4);
    let header: Vec<String> = (0..CSV_COLS).map(|c| format!("c{c}")).collect();
    out.push_str(&header.join(","));
    out.push('\n');
    for _ in 0..CSV_ROWS {
        for c in 0..CSV_COLS {
            if c > 0 {
                out.push(',');
            }
            out.push_str(&(rng.next() % 1_000).to_string());
        }
        out.push('\n');
    }
    out
}

/// The three distinct column intents of print cycle number `cycle`. They
/// walk over all columns from a seeded start, so a run's prints cover every
/// column (and response size) whatever the seed.
pub fn cycle_intents(seed: u64, cycle: u64) -> [String; 3] {
    let first = Rng::new(seed ^ 0x1a7e).next().wrapping_add(cycle);
    [0, 3, 6].map(|k| format!("c{}", first.wrapping_add(k) % CSV_COLS as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(numeric_csv(11), numeric_csv(11));
        assert_ne!(numeric_csv(11), numeric_csv(12));
        let csv = numeric_csv(3);
        assert_eq!(csv.lines().count(), CSV_ROWS + 1);
        assert!(csv.lines().all(|l| l.split(',').count() == CSV_COLS));
    }

    #[test]
    fn cycle_intents_are_distinct_columns() {
        for seed in 0..50 {
            let [a, b, c] = cycle_intents(seed, seed / 3);
            assert!(a != b && b != c && a != c, "{a} {b} {c}");
        }
        assert_eq!(cycle_intents(7, 2), cycle_intents(7, 2 + CSV_COLS as u64));
        assert_ne!(cycle_intents(7, 2), cycle_intents(7, 3));
    }
}
