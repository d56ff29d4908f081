//! The benchmark's own input generator (SplitMix64), independent of the
//! program under test: every input is a pure function of `(seed, stream)`.

use elp2im_core::bitvec::BitVec;

/// A SplitMix64 stream.
pub struct Rng(u64);

impl Rng {
    /// The stream `stream` of workload seed `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// `bits` random bits, each set with probability `1 - 2^-k` (`k >= 1`):
    /// the OR of `k` uniform words.
    pub fn bitvec_dense(&mut self, bits: usize, k: u32) -> BitVec {
        let words: Vec<u64> = (0..bits.div_ceil(64))
            .map(|_| (0..k).fold(0, |acc, _| acc | self.next_u64()))
            .collect();
        BitVec::from_words(&words, bits)
    }
}
