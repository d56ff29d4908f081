//! A bulk bit vector — the content of one DRAM row.
//!
//! Rows in the functional engine are `BitVec`s; bulk bitwise operations on
//! entire rows are the unit of work the paper accelerates. Every kernel in
//! this module works on whole 64-bit words: the allocating operations
//! (`and`, `or`, …) build their result in one pass, and the `_assign`
//! variants mutate in place so hot loops (the subarray engine, bank
//! striping) run with zero per-call heap traffic.

use std::fmt;

/// Bits per backing word.
pub const WORD_BITS: usize = 64;

/// Indices of the set bits of a little-endian packed bitset, ascending.
pub(crate) fn set_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            let bit = rest.trailing_zeros() as usize;
            rest &= rest.wrapping_sub(1);
            (bit < WORD_BITS).then_some(w * WORD_BITS + bit)
        })
    })
}

/// Copies `len` bits from `src` starting at bit `src_start` into `dst`
/// starting at bit `dst_start`, treating both slices as little-endian bit
/// arrays. Word-aligned runs degrade to `copy_from_slice`; unaligned runs
/// use a shift-merge loop that writes each destination word exactly once.
///
/// Bits of `dst` outside the target range are preserved.
///
/// # Panics
///
/// Panics if either range runs past the end of its slice.
pub fn copy_bits(dst: &mut [u64], dst_start: usize, src: &[u64], src_start: usize, len: usize) {
    assert!(
        src_start + len <= src.len() * WORD_BITS,
        "source range {src_start}..{} exceeds {} bits",
        src_start + len,
        src.len() * WORD_BITS
    );
    assert!(
        dst_start + len <= dst.len() * WORD_BITS,
        "destination range {dst_start}..{} exceeds {} bits",
        dst_start + len,
        dst.len() * WORD_BITS
    );
    if len == 0 {
        return;
    }
    if src_start.is_multiple_of(WORD_BITS) && dst_start.is_multiple_of(WORD_BITS) {
        // Fast path: whole-word memcpy plus one masked tail word.
        let (sw, dw) = (src_start / WORD_BITS, dst_start / WORD_BITS);
        let full = len / WORD_BITS;
        dst[dw..dw + full].copy_from_slice(&src[sw..sw + full]);
        let tail = len % WORD_BITS;
        if tail != 0 {
            let mask = (1u64 << tail) - 1;
            dst[dw + full] = (dst[dw + full] & !mask) | (src[sw + full] & mask);
        }
        return;
    }
    // General path: gather up to one destination word's worth of source
    // bits per step (they span at most two source words).
    let mut copied = 0;
    while copied < len {
        let d = dst_start + copied;
        let (dw, db) = (d / WORD_BITS, d % WORD_BITS);
        let take = (WORD_BITS - db).min(len - copied);
        let bits = read_bits(src, src_start + copied, take);
        let mask = if take == WORD_BITS { u64::MAX } else { ((1u64 << take) - 1) << db };
        dst[dw] = (dst[dw] & !mask) | ((bits << db) & mask);
        copied += take;
    }
}

/// Reads `n <= 64` bits starting at bit `start`, right-aligned into a word.
/// Bits above `n` are unspecified (callers mask).
fn read_bits(src: &[u64], start: usize, n: usize) -> u64 {
    let (w, b) = (start / WORD_BITS, start % WORD_BITS);
    let lo = src[w] >> b;
    if b == 0 || n <= WORD_BITS - b {
        lo
    } else {
        lo | (src[w + 1] << (WORD_BITS - b))
    }
}

/// A fixed-length vector of bits stored in 64-bit words.
///
/// ```
/// use elp2im_core::bitvec::BitVec;
/// let a = BitVec::from_bools(&[true, false, true]);
/// let b = BitVec::from_bools(&[true, true, false]);
/// assert_eq!(a.and(&b).to_bools(), vec![true, false, false]);
/// assert_eq!(a.count_ones(), 2);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// Creates an all-zero vector of `len` bits.
    pub fn zeros(len: usize) -> Self {
        BitVec { words: vec![0; len.div_ceil(WORD_BITS)], len }
    }

    /// Creates an all-one vector of `len` bits.
    pub fn ones(len: usize) -> Self {
        let mut v = BitVec { words: vec![u64::MAX; len.div_ceil(WORD_BITS)], len };
        v.mask_tail();
        v
    }

    /// Creates a vector filled with `bit`.
    pub fn splat(bit: bool, len: usize) -> Self {
        if bit {
            BitVec::ones(len)
        } else {
            BitVec::zeros(len)
        }
    }

    /// Builds a vector from a slice of booleans, packing one word at a
    /// time.
    pub fn from_bools(bits: &[bool]) -> Self {
        let mut words = Vec::with_capacity(bits.len().div_ceil(WORD_BITS));
        for chunk in bits.chunks(WORD_BITS) {
            let mut w = 0u64;
            for (i, &b) in chunk.iter().enumerate() {
                w |= u64::from(b) << i;
            }
            words.push(w);
        }
        BitVec { words, len: bits.len() }
    }

    /// Builds a vector of `len` bits from little-endian 64-bit words.
    ///
    /// # Panics
    ///
    /// Panics if `words` is too short for `len` bits.
    pub fn from_words(words: &[u64], len: usize) -> Self {
        assert!(
            words.len() * WORD_BITS >= len,
            "need {} words for {len} bits, got {}",
            len.div_ceil(WORD_BITS),
            words.len()
        );
        let mut v = BitVec { words: words[..len.div_ceil(WORD_BITS)].to_vec(), len };
        v.mask_tail();
        v
    }

    /// Clears the backing bits beyond `len` in the last word, restoring the
    /// invariant every kernel relies on (tail bits are always zero).
    pub fn mask_tail(&mut self) {
        let tail = self.len % WORD_BITS;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector has zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The backing little-endian words.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Mutable access to the backing words — the escape hatch for bulk
    /// word-level writers. Callers that may set bits beyond `len` in the
    /// last word must call [`BitVec::mask_tail`] afterwards.
    pub fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Gets bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of range ({} bits)", self.len);
        (self.words[i / WORD_BITS] >> (i % WORD_BITS)) & 1 == 1
    }

    /// Sets bit `i` to `bit`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn set(&mut self, i: usize, bit: bool) {
        assert!(i < self.len, "bit {i} out of range ({} bits)", self.len);
        let (w, o) = (i / WORD_BITS, i % WORD_BITS);
        if bit {
            self.words[w] |= 1 << o;
        } else {
            self.words[w] &= !(1 << o);
        }
    }

    /// Converts to a vector of booleans, unpacking one word at a time.
    pub fn to_bools(&self) -> Vec<bool> {
        let mut out = Vec::with_capacity(self.len);
        'words: for &w in &self.words {
            for i in 0..WORD_BITS {
                if out.len() == self.len {
                    break 'words;
                }
                out.push((w >> i) & 1 == 1);
            }
        }
        out
    }

    /// Copies `len` bits of `src` (starting at `src_start`) into `self`
    /// starting at `dst_start`; other bits are preserved.
    ///
    /// # Panics
    ///
    /// Panics if either bit range is out of bounds.
    pub fn copy_bits_from(&mut self, src: &BitVec, src_start: usize, dst_start: usize, len: usize) {
        assert!(src_start + len <= src.len, "source bit range out of bounds");
        assert!(dst_start + len <= self.len, "destination bit range out of bounds");
        copy_bits(&mut self.words, dst_start, &src.words, src_start, len);
    }

    fn zip(&self, other: &BitVec, f: impl Fn(u64, u64) -> u64) -> BitVec {
        assert_eq!(self.len, other.len, "length mismatch: {} vs {}", self.len, other.len);
        let words = self.words.iter().zip(&other.words).map(|(&a, &b)| f(a, b)).collect();
        let mut v = BitVec { words, len: self.len };
        v.mask_tail();
        v
    }

    fn zip_assign(&mut self, other: &BitVec, f: impl Fn(u64, u64) -> u64) {
        assert_eq!(self.len, other.len, "length mismatch: {} vs {}", self.len, other.len);
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            *a = f(*a, b);
        }
    }

    /// Bitwise AND.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ (as do the other binary operations).
    pub fn and(&self, other: &BitVec) -> BitVec {
        self.zip(other, |a, b| a & b)
    }

    /// Bitwise OR.
    pub fn or(&self, other: &BitVec) -> BitVec {
        self.zip(other, |a, b| a | b)
    }

    /// Bitwise XOR.
    pub fn xor(&self, other: &BitVec) -> BitVec {
        self.zip(other, |a, b| a ^ b)
    }

    /// Bitwise NOT.
    pub fn not(&self) -> BitVec {
        let words = self.words.iter().map(|&a| !a).collect();
        let mut v = BitVec { words, len: self.len };
        v.mask_tail();
        v
    }

    /// In-place bitwise AND: `self &= other`.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ (as do the other `_assign` kernels).
    pub fn and_assign(&mut self, other: &BitVec) {
        self.zip_assign(other, |a, b| a & b);
    }

    /// In-place bitwise OR: `self |= other`.
    pub fn or_assign(&mut self, other: &BitVec) {
        self.zip_assign(other, |a, b| a | b);
    }

    /// In-place bitwise XOR: `self ^= other`.
    pub fn xor_assign(&mut self, other: &BitVec) {
        self.zip_assign(other, |a, b| a ^ b);
    }

    /// In-place bitwise NOT.
    pub fn not_assign(&mut self) {
        for w in &mut self.words {
            *w = !*w;
        }
        self.mask_tail();
    }

    /// Overwrites `self` with `other`'s bits without reallocating.
    pub fn copy_from(&mut self, other: &BitVec) {
        assert_eq!(self.len, other.len, "length mismatch: {} vs {}", self.len, other.len);
        self.words.copy_from_slice(&other.words);
    }

    /// Fills every bit with `bit` without reallocating.
    pub fn fill(&mut self, bit: bool) {
        self.words.fill(if bit { u64::MAX } else { 0 });
        if bit {
            self.mask_tail();
        }
    }

    /// Per-column select: `mask[i] ? ones : self[i]`-style merge used by the
    /// engine's overwrite semantics — returns `(self & !mask) | (value &
    /// mask)`.
    pub fn merge(&self, mask: &BitVec, value: &BitVec) -> BitVec {
        let mut out = self.clone();
        out.merge_assign(mask, value);
        out
    }

    /// In-place merge: `self = (self & !mask) | (value & mask)`.
    pub fn merge_assign(&mut self, mask: &BitVec, value: &BitVec) {
        assert_eq!(self.len, mask.len);
        assert_eq!(self.len, value.len);
        for ((s, &m), &v) in self.words.iter_mut().zip(&mask.words).zip(&value.words) {
            *s = (*s & !m) | (v & m);
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns true if all bits are zero.
    pub fn is_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }
}

/// Formats `n` bits of `w` (LSB first) into `f`.
fn write_word_bits(f: &mut fmt::Formatter<'_>, w: u64, n: usize) -> fmt::Result {
    let mut buf = [0u8; WORD_BITS];
    for (i, slot) in buf.iter_mut().take(n).enumerate() {
        *slot = b'0' + ((w >> i) & 1) as u8;
    }
    // The buffer holds only ASCII '0'/'1' bytes.
    f.write_str(std::str::from_utf8(&buf[..n]).expect("ascii digits"))
}

impl fmt::Debug for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitVec[{}; ", self.len)?;
        let show = self.len.min(WORD_BITS);
        if let Some(&w) = self.words.first() {
            write_word_bits(f, w, show)?;
        }
        if self.len > show {
            write!(f, "…")?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut remaining = self.len;
        for &w in &self.words {
            let n = remaining.min(WORD_BITS);
            write_word_bits(f, w, n)?;
            remaining -= n;
        }
        Ok(())
    }
}

impl FromIterator<bool> for BitVec {
    fn from_iter<T: IntoIterator<Item = bool>>(iter: T) -> Self {
        let mut words = Vec::new();
        let mut pending = 0u64;
        let mut len = 0usize;
        for b in iter {
            pending |= u64::from(b) << (len % WORD_BITS);
            len += 1;
            if len.is_multiple_of(WORD_BITS) {
                words.push(pending);
                pending = 0;
            }
        }
        if !len.is_multiple_of(WORD_BITS) {
            words.push(pending);
        }
        BitVec { words, len }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let v = BitVec::from_bools(&[true, false, true, true]);
        assert_eq!(v.len(), 4);
        assert!(v.get(0) && !v.get(1) && v.get(2) && v.get(3));
        assert_eq!(v.count_ones(), 3);
    }

    #[test]
    fn splat_and_masking() {
        let ones = BitVec::ones(70);
        assert_eq!(ones.count_ones(), 70);
        // Tail bits beyond len must be masked off.
        assert_eq!(ones.words()[1] >> 6, 0);
        assert!(BitVec::zeros(70).is_zero());
        assert_eq!(BitVec::splat(true, 3).to_bools(), vec![true; 3]);
    }

    #[test]
    fn logic_ops_match_bool_logic() {
        let a = BitVec::from_bools(&[true, true, false, false]);
        let b = BitVec::from_bools(&[true, false, true, false]);
        assert_eq!(a.and(&b).to_bools(), vec![true, false, false, false]);
        assert_eq!(a.or(&b).to_bools(), vec![true, true, true, false]);
        assert_eq!(a.xor(&b).to_bools(), vec![false, true, true, false]);
        assert_eq!(a.not().to_bools(), vec![false, false, true, true]);
    }

    #[test]
    fn assign_kernels_match_allocating_ops() {
        let a = BitVec::from_bools(&(0..130).map(|i| i % 3 == 0).collect::<Vec<_>>());
        let b = BitVec::from_bools(&(0..130).map(|i| i % 5 == 0).collect::<Vec<_>>());
        let mut x = a.clone();
        x.and_assign(&b);
        assert_eq!(x, a.and(&b));
        let mut x = a.clone();
        x.or_assign(&b);
        assert_eq!(x, a.or(&b));
        let mut x = a.clone();
        x.xor_assign(&b);
        assert_eq!(x, a.xor(&b));
        let mut x = a.clone();
        x.not_assign();
        assert_eq!(x, a.not());
        // Tail invariant survives not_assign on a non-word-multiple length.
        assert_eq!(x.words()[2] >> 2, 0);
        let mut x = a.clone();
        x.copy_from(&b);
        assert_eq!(x, b);
        let mut x = a.clone();
        x.fill(true);
        assert_eq!(x, BitVec::ones(130));
        x.fill(false);
        assert!(x.is_zero());
    }

    #[test]
    fn not_masks_tail() {
        let v = BitVec::zeros(65).not();
        assert_eq!(v.count_ones(), 65);
    }

    #[test]
    fn merge_selects_by_mask() {
        let base = BitVec::from_bools(&[false, false, true, true]);
        let mask = BitVec::from_bools(&[true, false, true, false]);
        let val = BitVec::from_bools(&[true, true, false, false]);
        assert_eq!(base.merge(&mask, &val).to_bools(), vec![true, false, false, true]);
        let mut m = base.clone();
        m.merge_assign(&mask, &val);
        assert_eq!(m, base.merge(&mask, &val));
    }

    #[test]
    fn from_words_roundtrip() {
        let v = BitVec::from_words(&[0b1011], 4);
        assert_eq!(v.to_bools(), vec![true, true, false, true]);
        let w = BitVec::from_words(&[u64::MAX, u64::MAX], 100);
        assert_eq!(w.count_ones(), 100);
    }

    #[test]
    fn words_mut_with_mask_tail() {
        let mut v = BitVec::zeros(68);
        v.words_mut()[1] = u64::MAX;
        v.mask_tail();
        assert_eq!(v.count_ones(), 4);
    }

    #[test]
    fn copy_bits_aligned_and_unaligned() {
        let src: Vec<u64> =
            vec![0xDEAD_BEEF_CAFE_F00D, 0x0123_4567_89AB_CDEF, 0xFFFF_0000_FFFF_0000];
        for &(dst_start, src_start, len) in &[
            (0usize, 0usize, 192usize),
            (0, 64, 128),
            (64, 0, 100),
            (3, 0, 64),
            (0, 5, 121),
            (7, 13, 150),
            (63, 1, 65),
            (1, 63, 64),
            (60, 60, 1),
        ] {
            let mut dst = vec![0xAAAA_AAAA_AAAA_AAAAu64; 4];
            let expect: Vec<bool> = (0..256)
                .map(|i| {
                    let was = (dst[i / 64] >> (i % 64)) & 1 == 1;
                    if i >= dst_start && i < dst_start + len {
                        let s = src_start + (i - dst_start);
                        (src[s / 64] >> (s % 64)) & 1 == 1
                    } else {
                        was
                    }
                })
                .collect();
            copy_bits(&mut dst, dst_start, &src, src_start, len);
            let got: Vec<bool> = (0..256).map(|i| (dst[i / 64] >> (i % 64)) & 1 == 1).collect();
            assert_eq!(got, expect, "dst_start={dst_start} src_start={src_start} len={len}");
        }
    }

    #[test]
    fn copy_bits_from_roundtrip() {
        let src = BitVec::from_bools(&(0..200).map(|i| i % 7 == 0).collect::<Vec<_>>());
        let mut dst = BitVec::ones(300);
        dst.copy_bits_from(&src, 3, 100, 190);
        for i in 0..300 {
            let expect = if (100..290).contains(&i) { src.get(3 + i - 100) } else { true };
            assert_eq!(dst.get(i), expect, "bit {i}");
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let _ = BitVec::zeros(4).and(&BitVec::zeros(5));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_get_panics() {
        let _ = BitVec::zeros(4).get(4);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn copy_bits_from_rejects_overrun() {
        let src = BitVec::zeros(10);
        BitVec::zeros(10).copy_bits_from(&src, 5, 0, 6);
    }

    #[test]
    fn debug_and_display() {
        let v = BitVec::from_bools(&[true, false, true]);
        assert_eq!(format!("{v}"), "101");
        assert!(format!("{v:?}").contains("101"));
        // Display crosses word boundaries correctly.
        let long: BitVec = (0..70).map(|i| i == 64).collect();
        let s = format!("{long}");
        assert_eq!(s.len(), 70);
        assert_eq!(&s[63..66], "010");
        // Debug elides past one word.
        assert!(format!("{long:?}").contains('…'));
    }

    #[test]
    fn from_iterator() {
        let v: BitVec = [true, false, true].into_iter().collect();
        assert_eq!(v.to_bools(), vec![true, false, true]);
        // Word-boundary lengths pack correctly.
        for len in [63usize, 64, 65, 128, 130] {
            let v: BitVec = (0..len).map(|i| i % 3 == 0).collect();
            assert_eq!(v, BitVec::from_bools(&(0..len).map(|i| i % 3 == 0).collect::<Vec<_>>()));
        }
    }
}
