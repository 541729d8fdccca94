//! A stable 128-bit fingerprint hasher, and the workspace's seeded
//! generator.
//!
//! The explorers deduplicate reachable configurations by a 128-bit digest of
//! their full state. The std hashers are unfit for that job twice over: their
//! algorithm is explicitly unstable across toolchain releases, and SipHash
//! costs several times more per word than one multiply. [`Fingerprinter`] is
//! a small in-repo alternative whose output is fixed by the constants below
//! and by the `Hash` streams of the hashed types.
//!
//! Every integer write is absorbed as one 64-bit word, by value, into two
//! lanes with their own seeds and multipliers. Each lane applies a
//! multiply-fold — the 128-bit product of the lane XOR the word with the
//! lane's odd multiplier, high half XOR low half, as in MUM and wyhash — and
//! ends in a SplitMix64 finalizer. The word stream depends on neither
//! endianness nor pointer width: `usize`/`isize` are widened to 64 bits and
//! byte slices are read as little-endian words.
//!
//! [`SplitMix64`] shares the finalizer. Every seeded stream in the workspace
//! draws from it, so its outputs are part of the record format.

use std::hash::Hasher;

/// Initial values of the two lanes (fractional digits of π).
const SEEDS: [u64; 2] = [0x243F_6A88_85A3_08D3, 0x1319_8A2E_0370_7344];

/// Odd multipliers of the two lanes' multiply-folds.
const MULTIPLIERS: [u64; 2] = [0xA076_1D64_78BD_642F, 0xE703_7ED1_A0B4_28DB];

/// The 128-bit product of `a` and `b`, high half XOR low half.
#[inline(always)]
fn fold_multiply(a: u64, b: u64) -> u64 {
    let product = u128::from(a) * u128::from(b);
    (product >> 64) as u64 ^ product as u64
}

/// The SplitMix64 output finalizer: every input bit reaches every output
/// bit.
#[inline(always)]
fn finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The SplitMix64 generator: a Weyl sequence with an odd step, each term
/// passed through the finalizer above.
///
/// Random schedulers, random workloads, the threaded spawn order, the
/// service's load values and campaign seed derivation all draw from it, so a
/// change to its stream moves every random schedule and workload in the
/// records. Known-answer tests pin it.
///
/// ```
/// use sa_model::SplitMix64;
///
/// let mut rng = SplitMix64::new(0);
/// assert_eq!(rng.next_u64(), 0xE220_A839_7B1D_CDAF);
/// assert!(rng.below(6) < 6);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator whose stream is a pure function of `seed`.
    #[inline]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next 64 bits of the stream.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        finalize(self.state)
    }

    /// The next value of the stream modulo `n`. The modulo bias is below
    /// 2⁻⁴⁰ for the widths drawn in this workspace (under 2²⁴).
    ///
    /// # Panics
    ///
    /// Panics if `n` is 0.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// A stable, fast 128-bit [`Hasher`].
///
/// [`finish128`](Fingerprinter::finish128) returns both 64-bit halves;
/// [`Hasher::finish`] returns only the first. The wide method is
/// deliberately not named `finish`, so a caller that needs 128 bits of
/// collision resistance cannot reach for the narrow one by accident.
///
/// ```
/// use sa_model::Fingerprinter;
/// use std::hash::{Hash, Hasher};
///
/// let mut a = Fingerprinter::new();
/// (7u32, "seven").hash(&mut a);
/// let mut b = Fingerprinter::new();
/// (7u64, "seven").hash(&mut b);
/// // Integers are absorbed by value, whatever their width.
/// assert_eq!(a.finish128(), b.finish128());
/// assert_eq!(a.finish(), a.finish128()[0]);
/// ```
#[derive(Debug, Clone)]
pub struct Fingerprinter {
    lanes: [u64; 2],
}

impl Default for Fingerprinter {
    fn default() -> Self {
        Fingerprinter::new()
    }
}

impl Fingerprinter {
    /// A hasher that has absorbed nothing.
    #[inline]
    pub fn new() -> Self {
        Fingerprinter { lanes: SEEDS }
    }

    /// Absorbs one 64-bit word into both lanes.
    #[inline(always)]
    fn absorb(&mut self, word: u64) {
        self.lanes[0] = fold_multiply(self.lanes[0] ^ word, MULTIPLIERS[0]);
        self.lanes[1] = fold_multiply(self.lanes[1] ^ word, MULTIPLIERS[1]);
    }

    /// Both 64-bit halves of the fingerprint of everything absorbed so far.
    #[inline]
    pub fn finish128(&self) -> [u64; 2] {
        [finalize(self.lanes[0]), finalize(self.lanes[1])]
    }
}

impl Hasher for Fingerprinter {
    /// Absorbs the bytes as little-endian 8-byte words, then one tail word
    /// holding the remaining 0–7 bytes in its low bytes and their count in
    /// its top byte.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.absorb(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let tail = chunks.remainder();
        let mut word = [0u8; 8];
        word[..tail.len()].copy_from_slice(tail);
        word[7] = tail.len() as u8;
        self.absorb(u64::from_le_bytes(word));
    }

    #[inline]
    fn write_u8(&mut self, value: u8) {
        self.absorb(u64::from(value));
    }

    #[inline]
    fn write_u16(&mut self, value: u16) {
        self.absorb(u64::from(value));
    }

    #[inline]
    fn write_u32(&mut self, value: u32) {
        self.absorb(u64::from(value));
    }

    #[inline]
    fn write_u64(&mut self, value: u64) {
        self.absorb(value);
    }

    /// Absorbs the low word, then the high word.
    #[inline]
    fn write_u128(&mut self, value: u128) {
        self.absorb(value as u64);
        self.absorb((value >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, value: usize) {
        self.absorb(value as u64);
    }

    #[inline]
    fn write_i128(&mut self, value: i128) {
        self.write_u128(value as u128);
    }

    #[inline]
    fn write_isize(&mut self, value: isize) {
        self.absorb(value as i64 as u64);
    }

    /// The first half of [`finish128`](Fingerprinter::finish128).
    #[inline]
    fn finish(&self) -> u64 {
        self.finish128()[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn words(words: impl IntoIterator<Item = u64>) -> [u64; 2] {
        let mut hasher = Fingerprinter::new();
        for word in words {
            hasher.write_u64(word);
        }
        hasher.finish128()
    }

    /// Known answers: a change to the constants or the absorption order
    /// fails here instead of silently re-keying every state.
    #[test]
    fn known_answers() {
        assert_eq!(words([]), [0xE9E0_033E_3BAD_AF36, 0xDFC7_A999_51F2_4649]);
        assert_eq!(words(0..8), [0x22FE_8E14_95C9_C111, 0x45E2_92AF_44B0_D87E]);
        let mut bytes = Fingerprinter::new();
        bytes.write(b"set agreement");
        assert_eq!(
            bytes.finish128(),
            [0x3948_8B68_9326_6ADC, 0x2E9D_B4E1_26DF_1B4D]
        );
    }

    /// Known answers of the reference SplitMix64 for seeds 0 and 1234567:
    /// a change to the stream fails here instead of silently moving every
    /// random schedule and workload.
    #[test]
    fn splitmix64_known_answers() {
        let first = |seed, count| {
            let mut rng = SplitMix64::new(seed);
            (0..count).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(
            first(0, 3),
            [
                0xE220_A839_7B1D_CDAF,
                0x6E78_9E6A_A1B9_65F4,
                0x06C4_5D18_8009_454F
            ]
        );
        assert_eq!(
            first(1_234_567, 5),
            [
                6_457_827_717_110_365_317,
                3_203_168_211_198_807_973,
                9_817_491_932_198_370_423,
                4_593_380_528_125_082_431,
                16_408_922_859_458_223_821,
            ]
        );
        let mut rng = SplitMix64::new(1_234_567);
        let below: Vec<u64> = (0..5).map(|_| rng.below(10)).collect();
        assert_eq!(below, [7, 3, 3, 1, 1]);
    }

    #[test]
    fn integer_writes_are_absorbed_by_value() {
        let hash = |f: &dyn Fn(&mut Fingerprinter)| {
            let mut hasher = Fingerprinter::new();
            f(&mut hasher);
            hasher.finish128()
        };
        let wide = words([200]);
        assert_eq!(hash(&|h| h.write_u8(200)), wide);
        assert_eq!(hash(&|h| h.write_u16(200)), wide);
        assert_eq!(hash(&|h| h.write_u32(200)), wide);
        assert_eq!(hash(&|h| h.write_usize(200)), wide);
        assert_eq!(hash(&|h| h.write_isize(-1)), words([u64::MAX]));
        assert_eq!(hash(&|h| h.write_i64(-1)), words([u64::MAX]));
        assert_eq!(hash(&|h| h.write_u128(5 | 7 << 64)), words([5, 7]));
    }

    #[test]
    fn byte_writes_are_little_endian_words_plus_a_tagged_tail() {
        let mut bytes = Fingerprinter::new();
        bytes.write(&[1, 0, 0, 0, 0, 0, 0, 0, 9]);
        assert_eq!(bytes.finish128(), words([1, 9 | 1 << 56]));
        // The tail's length tag separates trailing zero bytes.
        let mut short = Fingerprinter::new();
        short.write(&[9]);
        let mut padded = Fingerprinter::new();
        padded.write(&[9, 0]);
        assert_ne!(short.finish128(), padded.finish128());
    }

    #[test]
    fn halves_differ_and_finish_is_the_first() {
        let mut hasher = Fingerprinter::new();
        "anonymous".hash(&mut hasher);
        let [lo, hi] = hasher.finish128();
        assert_ne!(lo, hi);
        assert_eq!(hasher.finish(), lo);
    }

    #[test]
    fn order_and_every_word_matter() {
        let base = words([1, 2, 3]);
        assert_ne!(base, words([3, 2, 1]));
        assert_ne!(base, words([1, 2]));
        assert_ne!(base, words([1, 2, 3, 0]));
        assert_ne!(words([0]), words([]));
        assert_ne!(words([0, 0]), words([0]));
    }
}
