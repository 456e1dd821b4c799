//! Fused one-pass statistics kernels.
//!
//! One chunk scan computes min/max, null count and distinct keys in a
//! single loop over the validity bitmap's words. The loop shape is the
//! whole optimization:
//!
//! - rows are visited **per validity word**: an all-valid word (`u64::MAX`)
//!   takes a branch-free inner loop over 64 values, a mixed word iterates
//!   only its set bits via `trailing_zeros`, and null counting is a popcount
//!   — no per-row `is_valid` branch anywhere;
//! - every value is canonicalized once into an **order-preserving `u64`
//!   key** shared by the distinct set, the cardinality sketch, and the
//!   on-demand value list's smallest-K accumulator, so "distinct",
//!   "smallest", and hashing all work in one integer domain with no boxed
//!   [`lux_dataframe::Value`];
//! - min/max ride the same pass as two comparisons whose NaN behavior
//!   (comparisons are false) makes NaN-skipping free.

use super::sketch::mix64;

/// Sign-flip constant for order-preserving integer keys.
const SIGN_FLIP: u64 = 1 << 63;

/// Order-preserving, invertible key for an `i64` (ints and datetimes).
#[inline]
pub fn encode_i64(x: i64) -> u64 {
    (x as u64) ^ SIGN_FLIP
}

#[inline]
pub fn decode_i64(k: u64) -> i64 {
    (k ^ SIGN_FLIP) as i64
}

/// Order-preserving, invertible key for an `f64`, canonicalized so equal
/// values share one key: every NaN collapses to the canonical quiet NaN and
/// `-0.0` folds into `+0.0`. The resulting key order matches
/// [`lux_dataframe::Value::total_cmp`] on canonical values (NaN sorts last).
#[inline]
pub fn encode_f64(x: f64) -> u64 {
    let x = if x.is_nan() {
        f64::NAN
    } else if x == 0.0 {
        0.0
    } else {
        x
    };
    let b = x.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b ^ SIGN_FLIP
    }
}

#[inline]
pub fn decode_f64(k: u64) -> f64 {
    let b = if k >> 63 == 1 { k ^ SIGN_FLIP } else { !k };
    f64::from_bits(b)
}

/// Tables up to this many slots (64 KiB) are allocated outright at the size
/// their hint asks for: zeroing one costs less than a single rehash, and a
/// 2 000- or 4 000-row column then never rehashes at all.
const OUTRIGHT_SLOTS: usize = 8192;

/// Where a set with a larger hint starts: 16 KiB, L1-resident beside the
/// column stream, so a low-cardinality column of any height stays there.
const START_SLOTS: usize = 2048;

/// Smallest power-of-two table that holds `keys` at ≤7/8 load without
/// growing (the table doubling would have arrived at).
fn slots_for(keys: usize) -> usize {
    (keys.max(8) * 8 / 7 + 1).next_power_of_two()
}

/// An open-addressing set of `u64` keys — the exact distinct counter under
/// the scan cap. Linear probing over a power-of-two table at ≤7/8 load;
/// the zero key (unrepresentable as an empty slot) rides a side flag.
///
/// The table sizes itself from what the set has seen. A fresh table page
/// costs more to first-touch than the keys on it cost to insert, so a
/// doubling ladder under a near-unique column is most of that column's
/// scan; a final-size table under a low-cardinality one is the same waste
/// in one step. Built with a hint whose table is large, the set therefore
/// starts small and decides at its first growth: if most of the inserts it
/// served were fresh keys it jumps to the hinted table in one rehash,
/// otherwise it doubles.
#[derive(Debug, Clone)]
pub struct U64Set {
    slots: Vec<u64>,
    len: usize,
    has_zero: bool,
    /// Inserts served, fresh or not: with `len`, the fresh ratio the first
    /// growth reads.
    probes: usize,
    /// Table size the hint asks for while the first growth has yet to
    /// decide whether to jump there; 0 once it has (or when the set was
    /// allocated at that size outright).
    hinted_slots: usize,
    /// The first growth took the stream at its word and jumped.
    jumped: bool,
}

impl U64Set {
    /// An empty set for a caller that may hand it up to `hint` distinct
    /// keys. A hint, not a bound: past it the set grows by doubling.
    pub fn with_capacity(hint: usize) -> U64Set {
        let hinted = slots_for(hint);
        let (start, hinted_slots) = if hinted <= OUTRIGHT_SLOTS {
            (hinted, 0)
        } else {
            (START_SLOTS, hinted)
        };
        U64Set {
            slots: vec![0u64; start],
            len: 0,
            has_zero: false,
            probes: 0,
            hinted_slots,
            jumped: false,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Resident table size in bytes.
    pub fn bytes(&self) -> u64 {
        self.slots.len() as u64 * 8
    }

    /// Insert a key; returns true when it was not already present.
    #[inline]
    pub fn insert(&mut self, key: u64) -> bool {
        self.probes += 1;
        if key == 0 {
            let new = !self.has_zero;
            self.has_zero = true;
            self.len += new as usize;
            return new;
        }
        if (self.len + 1) * 8 > self.slots.len() * 7 {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = (mix64(key) as usize) & mask;
        loop {
            let s = self.slots[i];
            if s == key {
                return false;
            }
            if s == 0 {
                self.slots[i] = key;
                self.len += 1;
                return true;
            }
            i = (i + 1) & mask;
        }
    }

    #[cold]
    fn grow(&mut self) {
        let mut slots = self.slots.len() * 2;
        // First growth of a set that started below its hint: a stream that
        // has been mostly fresh keys so far is taken at its word.
        let hinted = std::mem::take(&mut self.hinted_slots);
        if self.len * 2 > self.probes {
            self.jumped |= hinted > slots;
            slots = slots.max(hinted);
        }
        self.rehash(slots);
    }

    /// True once the first growth jumped to the hinted table.
    pub fn jumped(&self) -> bool {
        self.jumped
    }

    /// Give back the table a jump overshot: rehash into the size doubling
    /// would have reached, so a set that ended well under its hint does not
    /// carry (or get cloned with) a table twice the size it needs.
    pub fn trim(&mut self) {
        let fit = slots_for(self.len);
        if fit < self.slots.len() && self.slots.len() > OUTRIGHT_SLOTS {
            self.rehash(fit);
        }
    }

    fn rehash(&mut self, slots: usize) {
        let old = std::mem::replace(&mut self.slots, vec![0u64; slots]);
        let mask = slots - 1;
        for key in old {
            if key == 0 {
                continue;
            }
            let mut i = (mix64(key) as usize) & mask;
            while self.slots[i] != 0 {
                i = (i + 1) & mask;
            }
            self.slots[i] = key;
        }
    }

    /// Iterate the stored keys (table order — callers must not depend on
    /// it; every consumer is order-insensitive by construction).
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.has_zero
            .then_some(0u64)
            .into_iter()
            .chain(self.slots.iter().copied().filter(|&k| k != 0))
    }
}

/// A set of `u64` keys from one small range, one bit per key: the exact
/// distinct form of a dictionary-coded string column (keys are codes, the
/// range is the dictionary) and of an integer column whose values sit close
/// together (keys are [`encode_i64`]'s, the range is min..=max). Membership
/// is an index, cardinality a popcount, and iteration is ascending, so the
/// smallest K keys are the first K.
///
/// The covered range starts on a multiple of 64, so two sets over
/// overlapping ranges line up word for word and a union is an OR.
#[derive(Debug, Clone, Default)]
pub struct KeyBits {
    /// First key of the range; a multiple of 64.
    base: u64,
    words: Vec<u64>,
}

impl KeyBits {
    /// An empty set able to hold every key of `lo..=hi`.
    pub fn covering(lo: u64, hi: u64) -> KeyBits {
        let mut bits = KeyBits::default();
        bits.cover(lo, hi);
        bits
    }

    /// First and last key the allocated words cover; `None` without words.
    pub fn range(&self) -> Option<(u64, u64)> {
        let bits = self.words.len() as u64 * 64;
        (bits > 0).then(|| (self.base, self.base + (bits - 1)))
    }

    /// Insert a key of the covered range.
    #[inline]
    pub fn set(&mut self, key: u64) {
        let bit = key - self.base;
        self.words[(bit / 64) as usize] |= 1u64 << (bit % 64);
    }

    /// Grow the covered range to hold every key of `lo..=hi`.
    pub fn cover(&mut self, lo: u64, hi: u64) {
        let lo = lo & !63;
        match self.range() {
            None => self.base = lo,
            Some((first, _)) if lo < first => {
                let prepend = ((first - lo) / 64) as usize;
                self.words.splice(0..0, std::iter::repeat_n(0, prepend));
                self.base = lo;
            }
            Some(_) => {}
        }
        let need = ((hi - self.base) / 64 + 1) as usize;
        if need > self.words.len() {
            self.words.resize(need, 0);
        }
    }

    /// Union `other` in, growing the covered range to hold it.
    pub fn union(&mut self, other: &KeyBits) {
        let Some((lo, hi)) = other.range() else {
            return;
        };
        self.cover(lo, hi);
        let at = ((lo - self.base) / 64) as usize;
        for (w, &o) in self.words[at..].iter_mut().zip(&other.words) {
            *w |= o;
        }
    }

    /// Number of keys in the set.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The keys, ascending.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.words.iter().enumerate().flat_map(move |(wi, &w)| {
            let first = self.base + wi as u64 * 64;
            std::iter::successors((w != 0).then_some(w), |&w| {
                let rest = w & (w - 1);
                (rest != 0).then_some(rest)
            })
            .map(move |w| first + w.trailing_zeros() as u64)
        })
    }

    /// Resident size in bytes.
    pub fn bytes(&self) -> u64 {
        self.words.capacity() as u64 * 8
    }
}

/// Bounded accumulator of the `cap` **smallest distinct keys** offered —
/// the value list's fill ([`super::value_list`]). Keys are order-preserving,
/// so "smallest keys" is exactly "smallest values under `Value::total_cmp`".
///
/// A key at or above the retained maximum is rejected with one comparison
/// and a key already let in with one probe; anything else is buffered, and
/// a buffer of `2 * cap` is compacted (sort, truncate to `cap`): O(1)
/// amortized per key. [`SmallestKeys::compact`] after the last offer.
#[derive(Debug, Clone)]
pub struct SmallestKeys {
    /// Distinct keys; ascending and at most `cap` long once compacted.
    keys: Vec<u64>,
    /// Every key let in so far, so a column of few distinct values never
    /// fills the buffer.
    admitted: U64Set,
    cap: usize,
    /// The retained maximum once `cap` keys are kept: nothing at or above
    /// it can enter the smallest `cap`.
    ceiling: Option<u64>,
}

impl SmallestKeys {
    pub fn new(cap: usize) -> SmallestKeys {
        SmallestKeys {
            keys: Vec::new(),
            admitted: U64Set::with_capacity(2 * cap),
            cap,
            ceiling: None,
        }
    }

    /// Offer one key.
    #[inline]
    pub fn offer(&mut self, key: u64) {
        if self.ceiling.is_some_and(|c| key >= c) || !self.admitted.insert(key) {
            return;
        }
        self.keys.push(key);
        if self.keys.len() >= 2 * self.cap {
            self.compact();
        }
    }

    /// Settle the buffer: afterwards it holds exactly the `cap` smallest
    /// distinct keys offered so far, ascending.
    pub fn compact(&mut self) {
        self.keys.sort_unstable();
        self.keys.truncate(self.cap);
        self.ceiling =
            (self.keys.len() == self.cap).then(|| self.keys.last().copied().unwrap_or(0));
    }

    /// The retained keys, ascending once compacted.
    pub fn keys(&self) -> &[u64] {
        &self.keys
    }
}

/// Per-row behavior a fused primitive scan needs from its element type:
/// the canonical key and the (NaN-skipping) min/max update.
pub trait ScanValue: Copy + Default {
    fn key(self) -> u64;
    fn update_minmax(self, lo: &mut f64, hi: &mut f64);
}

impl ScanValue for i64 {
    #[inline]
    fn key(self) -> u64 {
        encode_i64(self)
    }
    #[inline]
    fn update_minmax(self, lo: &mut f64, hi: &mut f64) {
        // i64 -> f64 is monotone, so per-chunk f64 extremes fold into the
        // same result as converting the global i64 extremes.
        let v = self as f64;
        if v < *lo {
            *lo = v;
        }
        if v > *hi {
            *hi = v;
        }
    }
}

impl ScanValue for f64 {
    #[inline]
    fn key(self) -> u64 {
        encode_f64(self)
    }
    #[inline]
    fn update_minmax(self, lo: &mut f64, hi: &mut f64) {
        // NaN fails both comparisons, so NaN-skipping is free; ±inf are
        // legitimate extremes and pass through (matching `min_max_f64`).
        // `-0.0` folds into `+0.0` so the recorded extreme cannot depend on
        // which zero a chunk happened to see first.
        let v = if self == 0.0 { 0.0 } else { self };
        if v < *lo {
            *lo = v;
        }
        if v > *hi {
            *hi = v;
        }
    }
}

impl ScanValue for bool {
    #[inline]
    fn key(self) -> u64 {
        self as u64
    }
    #[inline]
    fn update_minmax(self, lo: &mut f64, hi: &mut f64) {
        let v = self as u8 as f64;
        if v < *lo {
            *lo = v;
        }
        if v > *hi {
            *hi = v;
        }
    }
}

/// The validity-word walk every scan here is built on; it lives beside
/// `Bitmap` with the typed column visitors.
pub use lux_dataframe::scan::for_each_valid;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn i64_keys_preserve_order_and_roundtrip() {
        let xs = [i64::MIN, -5, -1, 0, 1, 42, i64::MAX];
        for w in xs.windows(2) {
            assert!(encode_i64(w[0]) < encode_i64(w[1]));
        }
        for &x in &xs {
            assert_eq!(decode_i64(encode_i64(x)), x);
        }
    }

    #[test]
    fn f64_keys_preserve_order_and_canonicalize() {
        let xs = [
            f64::NEG_INFINITY,
            -1.5,
            -f64::MIN_POSITIVE,
            0.0,
            f64::MIN_POSITIVE,
            2.5,
            f64::INFINITY,
            f64::NAN,
        ];
        for w in xs.windows(2) {
            assert!(encode_f64(w[0]) < encode_f64(w[1]), "{} !< {}", w[0], w[1]);
        }
        assert_eq!(encode_f64(-0.0), encode_f64(0.0));
        assert_eq!(encode_f64(f64::NAN), encode_f64(-f64::NAN));
        for &x in &xs {
            let back = decode_f64(encode_f64(x));
            if x.is_nan() {
                assert!(back.is_nan());
            } else {
                assert_eq!(back, x);
                assert!(!(back == 0.0 && back.is_sign_negative()), "-0.0 leaked");
            }
        }
    }

    #[test]
    fn set_counts_distinct_keys() {
        let mut s = U64Set::with_capacity(4);
        let keys = [0u64, 1, 1, 0, u64::MAX, 7, 7, 7, 1 << 63];
        let mut inserted = 0;
        for &k in &keys {
            inserted += s.insert(k) as usize;
        }
        assert_eq!(s.len(), 5);
        assert_eq!(inserted, 5);
        let mut got: Vec<u64> = s.iter().collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 7, 1 << 63, u64::MAX]);
    }

    #[test]
    fn set_grows_past_initial_capacity() {
        let mut s = U64Set::with_capacity(8);
        for k in 1..=10_000u64 {
            s.insert(k);
            s.insert(k); // duplicate is a no-op
        }
        assert_eq!(s.len(), 10_000);
    }

    #[test]
    fn smallest_keeps_the_k_smallest_distinct() {
        let mut s = SmallestKeys::new(4);
        for k in [9u64, 3, 7, 3, 1, 8, 2, 2, 100] {
            s.offer(k);
        }
        s.compact();
        assert_eq!(s.keys(), &[1, 2, 3, 7]);
    }

    #[test]
    fn smallest_is_order_insensitive() {
        let keys = [50u64, 4, 9, 1, 60, 2, 9, 4];
        let of = |keys: &mut dyn Iterator<Item = &u64>| {
            let mut s = SmallestKeys::new(4);
            keys.for_each(|&k| s.offer(k));
            s.compact();
            s.keys().to_vec()
        };
        assert_eq!(of(&mut keys.iter()), vec![1, 2, 4, 9]);
        assert_eq!(of(&mut keys.iter().rev()), vec![1, 2, 4, 9]);
    }
}
