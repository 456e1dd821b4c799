//! A packed validity bitmap, one bit per row.
//!
//! Columns use `Option<Bitmap>` for null tracking: `None` means every row is
//! valid, which keeps the common all-valid case allocation-free and lets
//! kernels skip null checks entirely.

/// A growable bitset packed into 64-bit words.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// An empty bitmap.
    pub fn new() -> Self {
        Self::default()
    }

    /// A bitmap of `len` bits, all set to `value`.
    pub fn filled(len: usize, value: bool) -> Self {
        let word = if value { u64::MAX } else { 0 };
        Bitmap::from_words(vec![word; len.div_ceil(64)], len)
    }

    /// Build from packed words, bit `i` of the bitmap being bit `i % 64` of
    /// word `i / 64`. Bits at positions `>= len` are cleared, so a kernel
    /// may fill whole words without masking its last one.
    pub fn from_words(words: Vec<u64>, len: usize) -> Self {
        assert_eq!(
            words.len(),
            len.div_ceil(64),
            "{} words cannot hold exactly {len} bits",
            words.len()
        );
        let mut bm = Bitmap { words, len };
        bm.mask_tail();
        bm
    }

    /// One bit per item, `bit(item)`, packed 64 items to a word.
    pub fn pack<T>(items: &[T], bit: impl Fn(&T) -> bool) -> Self {
        let words = items
            .chunks(64)
            .map(|chunk| {
                let bits = chunk.iter().enumerate();
                bits.fold(0u64, |w, (b, x)| w | (bit(x) as u64) << b)
            })
            .collect();
        Bitmap::from_words(words, items.len())
    }

    /// Build from an iterator of booleans.
    #[allow(clippy::should_implement_trait)] // inherent ctor keeps callers free of a trait import
    pub fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let mut bm = Bitmap::new();
        for b in iter {
            bm.push(b);
        }
        bm
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the bitmap holds no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append one bit.
    pub fn push(&mut self, value: bool) {
        let (word, bit) = (self.len / 64, self.len % 64);
        if word == self.words.len() {
            self.words.push(0);
        }
        if value {
            self.words[word] |= 1 << bit;
        }
        self.len += 1;
    }

    /// Read bit `i`. Panics if out of range.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(
            i < self.len,
            "bit index {i} out of range for bitmap of {} bits",
            self.len
        );
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Set bit `i`. Panics if out of range.
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(
            i < self.len,
            "bit index {i} out of range for bitmap of {} bits",
            self.len
        );
        let mask = 1u64 << (i % 64);
        if value {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The packed 64-bit words backing the bitmap, for word-at-a-time
    /// kernels (validity-word iteration in the statistics scans). Invariant:
    /// bits at positions `>= len` are always zero (`push` never writes past
    /// the length and every bulk constructor masks the tail), so a kernel
    /// may treat trailing bits as "invalid" without re-masking.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Number of unset bits.
    pub fn count_zeros(&self) -> usize {
        self.len - self.count_ones()
    }

    /// True when every bit is set.
    pub fn all(&self) -> bool {
        self.count_ones() == self.len
    }

    /// Iterate over all bits.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Bitwise AND of two equal-length bitmaps.
    pub fn and(&self, other: &Bitmap) -> Bitmap {
        assert_eq!(self.len, other.len, "bitmap length mismatch in and()");
        let words = self
            .words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| a & b)
            .collect();
        Bitmap {
            words,
            len: self.len,
        }
    }

    /// The positions of the set bits, ascending, read a word at a time.
    pub fn ones(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.count_ones());
        for (wi, mut w) in self.words.iter().copied().enumerate() {
            while w != 0 {
                out.push(wi * 64 + w.trailing_zeros() as usize);
                w &= w - 1;
            }
        }
        out
    }

    /// Gather the bits at `indices` into a new bitmap.
    pub fn take(&self, indices: &[usize]) -> Bitmap {
        Bitmap::pack(indices, |&i| self.get(i))
    }

    /// Clear any garbage bits past `len` in the last word so that equality and
    /// popcount stay correct.
    fn mask_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get_roundtrip() {
        let mut bm = Bitmap::new();
        let pattern: Vec<bool> = (0..200).map(|i| i % 3 == 0).collect();
        for &b in &pattern {
            bm.push(b);
        }
        assert_eq!(bm.len(), 200);
        for (i, &b) in pattern.iter().enumerate() {
            assert_eq!(bm.get(i), b, "bit {i}");
        }
    }

    #[test]
    fn filled_true_has_all_ones_and_masked_tail() {
        let bm = Bitmap::filled(70, true);
        assert_eq!(bm.count_ones(), 70);
        assert!(bm.all());
        let bm0 = Bitmap::filled(70, false);
        assert_eq!(bm0.count_ones(), 0);
    }

    #[test]
    fn set_flips_bits() {
        let mut bm = Bitmap::filled(10, false);
        bm.set(3, true);
        bm.set(9, true);
        assert!(bm.get(3) && bm.get(9) && !bm.get(0));
        bm.set(3, false);
        assert!(!bm.get(3));
        assert_eq!(bm.count_ones(), 1);
    }

    #[test]
    fn and_intersects() {
        let a = Bitmap::from_iter([true, true, false, false]);
        let b = Bitmap::from_iter([true, false, true, false]);
        let c = a.and(&b);
        assert_eq!(
            c.iter().collect::<Vec<_>>(),
            vec![true, false, false, false]
        );
    }

    #[test]
    fn take_gathers() {
        let a = Bitmap::from_iter([true, false, true, false, true]);
        let t = a.take(&[4, 0, 1]);
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![true, true, false]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        Bitmap::filled(8, true).get(8);
    }

    #[test]
    fn count_zeros_complements() {
        let bm = Bitmap::from_iter((0..129).map(|i| i % 2 == 0));
        assert_eq!(bm.count_ones() + bm.count_zeros(), 129);
    }
}
