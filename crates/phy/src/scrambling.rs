//! Pseudo-random (Gold) sequence generation (TS 38.211 §5.2.1).
//!
//! NR scrambles every physical channel with a length-31 Gold sequence:
//! two LFSRs `x1`, `x2` advanced past `Nc = 1600` warm-up steps, XORed to
//! produce the sequence `c(n)`. `x1` always starts as `1,0,…,0`; `x2` is
//! initialised from `c_init` (a function of RNTI/cell id per channel).
//!
//! The generator never replays the warm-up. `x1`'s state after `Nc` steps
//! is a compile-time constant, and `x2`'s is linear in `c_init` over GF(2),
//! so [`GoldSequence::new`] XORs one precomputed jump-table entry per set
//! bit of `c_init`. Both registers then advance up to 28 steps per shift:
//! the feedback taps reach at most 3 bits ahead, so one shift computes 28
//! new register bits at once. [`GoldSequence::scramble_in_place`] XORs 7
//! bytes per two shifts and finishes a remainder a byte per shift; the state
//! it leaves is exactly the bit-serial state, so [`GoldSequence::next_bit`]
//! continues the sequence.

/// Warm-up offset Nc of TS 38.211 §5.2.1.
pub const NC: usize = 1600;

/// Largest step count one register shift can take: the feedback reads
/// `x(n+3)`, so the 31-bit state yields 31 − 3 = 28 new bits.
const MAX_SHIFT: u32 = 28;

/// Advances the 31-bit register `x` by `k ≤ 28` steps given its feedback
/// word `fb`, whose bit `j` is the new bit `x(n+31+j)`.
const fn shift(x: u32, fb: u32, k: u32) -> u32 {
    (x >> k) | ((fb & ((1 << k) - 1)) << (31 - k))
}

/// `x1(n+31) = (x1(n+3) + x1(n)) mod 2`, `k ≤ 28` steps at once.
const fn advance_x1(x: u32, k: u32) -> u32 {
    shift(x, (x >> 3) ^ x, k)
}

/// `x2(n+31) = (x2(n+3) + x2(n+2) + x2(n+1) + x2(n)) mod 2`, `k ≤ 28`
/// steps at once.
const fn advance_x2(x: u32, k: u32) -> u32 {
    shift(x, (x >> 3) ^ (x >> 2) ^ (x >> 1) ^ x, k)
}

/// Runs one register through the `Nc`-step warm-up.
const fn warm_up(mut x: u32, is_x2: bool) -> u32 {
    let mut n = 0;
    while n < NC as u32 {
        let k = if NC as u32 - n < MAX_SHIFT { NC as u32 - n } else { MAX_SHIFT };
        x = if is_x2 { advance_x2(x, k) } else { advance_x1(x, k) };
        n += k;
    }
    x
}

/// `x1` after the warm-up (it always starts at `1,0,…,0`).
const X1_WARM: u32 = warm_up(1, false);

/// Entry `i` is `x2` after the warm-up from the state `1 << i`; by
/// linearity, the warmed-up `x2` for any `c_init` is the XOR of the entries
/// for its set bits.
const X2_JUMP: [u32; 31] = {
    let mut table = [0u32; 31];
    let mut i = 0;
    while i < 31 {
        table[i] = warm_up(1 << i, true);
        i += 1;
    }
    table
};

/// A Gold-sequence generator producing `c(n)`.
#[derive(Debug, Clone)]
pub struct GoldSequence {
    x1: u32, // bits x1(n)..x1(n+30) in bits 0..31
    x2: u32,
}

impl GoldSequence {
    /// Creates a generator for the given `c_init` (bit 31 is ignored),
    /// advanced past the standard's 1600-step warm-up so the next bit is
    /// `c(0)`.
    pub fn new(c_init: u32) -> GoldSequence {
        let mut bits = c_init & 0x7FFF_FFFF;
        let mut x2 = 0;
        while bits != 0 {
            x2 ^= X2_JUMP[bits.trailing_zeros() as usize];
            bits &= bits - 1;
        }
        GoldSequence { x1: X1_WARM, x2 }
    }

    /// Advances both LFSRs `k ≤ 28` steps, returning the outputs
    /// `c(n)..c(n+k-1)` in bits `0..k`.
    #[inline]
    fn advance(&mut self, k: u32) -> u32 {
        let out = (self.x1 ^ self.x2) & ((1 << k) - 1);
        self.x1 = advance_x1(self.x1, k);
        self.x2 = advance_x2(self.x2, k);
        out
    }

    /// Next sequence bit (0 or 1).
    pub fn next_bit(&mut self) -> u8 {
        self.advance(1) as u8
    }

    /// Fills `out` with the next `out.len()` sequence bytes (8 bits each,
    /// MSB first).
    pub fn next_bytes(&mut self, out: &mut [u8]) {
        out.fill(0);
        self.scramble_in_place(out);
    }

    /// Scrambles (XORs) `data` in place with the sequence — its own inverse,
    /// which is how descrambling works on the receive side.
    pub fn scramble_in_place(&mut self, data: &mut [u8]) {
        let mut chunks = data.chunks_exact_mut(7);
        for chunk in &mut chunks {
            // 56 sequence bits, c(n) in bit 0; reversed, c(n) is the MSB of
            // the first big-endian byte.
            let lo = u64::from(self.advance(MAX_SHIFT));
            let hi = u64::from(self.advance(MAX_SHIFT));
            let mask = (lo | hi << MAX_SHIFT).reverse_bits().to_be_bytes();
            for (byte, m) in chunk.iter_mut().zip(mask) {
                *byte ^= m;
            }
        }
        for byte in chunks.into_remainder() {
            *byte ^= (self.advance(8) as u8).reverse_bits();
        }
    }
}

/// Computes the PDSCH/PUSCH data-scrambling `c_init`
/// (TS 38.211 §7.3.1.1 / §6.3.1.1): `rnti·2¹⁵ + q·2¹⁴ + n_id`.
pub fn data_scrambling_c_init(rnti: u16, codeword: u8, n_id: u16) -> u32 {
    assert!(codeword < 2, "NR has at most two codewords");
    assert!(n_id < 1024, "n_id is 10 bits");
    (u32::from(rnti) << 15) + (u32::from(codeword) << 14) + u32::from(n_id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_c_init() {
        let mut a = GoldSequence::new(0x1234);
        let mut b = GoldSequence::new(0x1234);
        for _ in 0..256 {
            assert_eq!(a.next_bit(), b.next_bit());
        }
    }

    #[test]
    fn different_c_init_diverges() {
        let mut a = GoldSequence::new(1);
        let mut b = GoldSequence::new(2);
        let differing = (0..1024).filter(|_| a.next_bit() != b.next_bit()).count();
        // Gold sequences with different seeds agree on ~half the positions.
        assert!(differing > 400 && differing < 625, "differing = {differing}");
    }

    #[test]
    fn sequence_is_balanced() {
        // A maximal-length-derived sequence has ~equal zeros and ones.
        let mut g = GoldSequence::new(0x0ABCDE);
        let n = 100_000;
        let ones: u32 = (0..n).map(|_| u32::from(g.next_bit())).sum();
        let frac = ones as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.01, "ones fraction {frac}");
    }

    #[test]
    fn low_autocorrelation_at_shift() {
        // Compare the sequence against itself shifted by 63: agreement
        // should be ~50%.
        let mut g = GoldSequence::new(0x31415);
        let bits: Vec<u8> = (0..10_000).map(|_| g.next_bit()).collect();
        let agree = bits.iter().zip(bits[63..].iter()).filter(|(a, b)| a == b).count();
        let frac = agree as f64 / (bits.len() - 63) as f64;
        assert!((frac - 0.5).abs() < 0.02, "agreement {frac}");
    }

    #[test]
    fn scramble_is_involution() {
        let mut data = b"some MAC PDU bytes".to_vec();
        let original = data.clone();
        GoldSequence::new(0x55AA).scramble_in_place(&mut data);
        assert_ne!(data, original);
        GoldSequence::new(0x55AA).scramble_in_place(&mut data);
        assert_eq!(data, original);
    }

    #[test]
    fn next_bytes_matches_bits() {
        let mut a = GoldSequence::new(7);
        let mut b = GoldSequence::new(7);
        let mut bytes = [0u8; 4];
        a.next_bytes(&mut bytes);
        for byte in bytes {
            for bit in (0..8).rev() {
                assert_eq!((byte >> bit) & 1, b.next_bit());
            }
        }
    }

    #[test]
    fn c_init_formula() {
        assert_eq!(data_scrambling_c_init(0, 0, 0), 0);
        assert_eq!(data_scrambling_c_init(1, 0, 0), 1 << 15);
        assert_eq!(data_scrambling_c_init(0, 1, 0), 1 << 14);
        assert_eq!(data_scrambling_c_init(0x1234, 1, 500), (0x1234 << 15) + (1 << 14) + 500);
    }

    #[test]
    #[should_panic(expected = "two codewords")]
    fn c_init_rejects_bad_codeword() {
        data_scrambling_c_init(0, 2, 0);
    }
}
