//! QAM modulation mapping (TS 38.211 §5.1).
//!
//! Gray-mapped BPSK/QPSK/16-QAM/64-QAM/256-QAM constellation mapping and
//! hard-decision demapping. The radio crate moves *samples*; this module is
//! what turns coded bits into those samples and back, and its
//! bits-per-symbol figures feed the transport-block sizing in [`crate::grid`].
//!
//! Each scheme's constellation is a `static` table built at compile time
//! from the spec formula. Mapping is a table lookup, straight from packed
//! bytes on the transport path ([`Modulation::modulate_bytes`]). Hard
//! decisions slice each axis on its own: with Gray mapping, I carries the
//! even bits and Q the odd ones, so the sign and nested `|x| − 2^j·k`
//! comparisons give the minimum-distance bit group without searching the
//! constellation.

use core::f32::consts::SQRT_2;

use serde::{Deserialize, Serialize};

/// A complex baseband sample.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Iq {
    /// In-phase component.
    pub i: f32,
    /// Quadrature component.
    pub q: f32,
}

impl Iq {
    /// Creates a sample.
    pub const fn new(i: f32, q: f32) -> Iq {
        Iq { i, q }
    }

    /// Squared Euclidean distance to another sample.
    pub fn dist2(self, other: Iq) -> f32 {
        let di = self.i - other.i;
        let dq = self.q - other.q;
        di * di + dq * dq
    }

    /// Power of the sample.
    pub fn power(self) -> f32 {
        self.i * self.i + self.q * self.q
    }
}

/// NR modulation schemes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Modulation {
    /// π/2-less plain BPSK (1 bit/symbol).
    Bpsk,
    /// QPSK (2 bits/symbol).
    Qpsk,
    /// 16-QAM (4 bits/symbol).
    Qam16,
    /// 64-QAM (6 bits/symbol).
    Qam64,
    /// 256-QAM (8 bits/symbol).
    Qam256,
}

impl Modulation {
    /// All supported schemes.
    pub const ALL: [Modulation; 5] = [
        Modulation::Bpsk,
        Modulation::Qpsk,
        Modulation::Qam16,
        Modulation::Qam64,
        Modulation::Qam256,
    ];

    /// Modulation order Qm: bits per symbol.
    pub const fn bits_per_symbol(self) -> u32 {
        match self {
            Modulation::Bpsk => 1,
            Modulation::Qpsk => 2,
            Modulation::Qam16 => 4,
            Modulation::Qam64 => 6,
            Modulation::Qam256 => 8,
        }
    }

    /// Bits per I (or Q) axis: a QAM symbol is two independent PAM
    /// symbols (BPSK puts its one bit on both axes).
    const fn bits_per_axis(self) -> u32 {
        match self {
            Modulation::Bpsk => 1,
            _ => self.bits_per_symbol() / 2,
        }
    }

    /// Scale `k` normalising the alphabet to unit mean power.
    const fn scale(self) -> f32 {
        match self {
            Modulation::Bpsk | Modulation::Qpsk => 1.0 / SQRT_2,
            Modulation::Qam16 => 1.0 / SQRT_10,
            Modulation::Qam64 => 1.0 / SQRT_42,
            Modulation::Qam256 => 1.0 / SQRT_170,
        }
    }

    /// The point for bit-group value `v` (b\[0\] as MSB), by the formula of
    /// TS 38.211 §5.1: I takes the even bits, Q the odd ones.
    const fn point(self, v: u32) -> Iq {
        let qm = self.bits_per_symbol();
        if qm == 1 {
            let a = level(self.scale(), v, 1);
            return Iq::new(a, a);
        }
        let m = self.bits_per_axis();
        let (mut i_bits, mut q_bits) = (0, 0);
        let mut t = 0;
        while t < m {
            i_bits = (i_bits << 1) | ((v >> (qm - 1 - 2 * t)) & 1);
            q_bits = (q_bits << 1) | ((v >> (qm - 2 - 2 * t)) & 1);
            t += 1;
        }
        Iq::new(level(self.scale(), i_bits, m), level(self.scale(), q_bits, m))
    }

    /// The full constellation, indexed by bit-group value (b\[0\] as MSB).
    pub fn constellation(self) -> &'static [Iq] {
        match self {
            Modulation::Bpsk => &BPSK,
            Modulation::Qpsk => &QPSK,
            Modulation::Qam16 => &QAM16,
            Modulation::Qam64 => &QAM64,
            Modulation::Qam256 => &QAM256,
        }
    }

    /// Maps one group of [`Self::bits_per_symbol`] bits (values 0/1,
    /// b\[0\] first as in the spec) to a constellation point.
    ///
    /// # Panics
    /// Panics if `bits.len() != bits_per_symbol()`.
    pub fn map(self, bits: &[u8]) -> Iq {
        assert_eq!(bits.len() as u32, self.bits_per_symbol(), "wrong bit-group size");
        let v = bits.iter().fold(0, |v, &b| (v << 1) | usize::from(b & 1));
        self.constellation()[v]
    }

    /// Modulates a bit slice (length must be a multiple of
    /// `bits_per_symbol`) into samples.
    pub fn modulate(self, bits: &[u8]) -> Vec<Iq> {
        let qm = self.bits_per_symbol() as usize;
        assert_eq!(bits.len() % qm, 0, "bit count not a multiple of Qm");
        bits.chunks(qm).map(|c| self.map(c)).collect()
    }

    /// Modulates a packed byte stream (MSB first) into samples, padding the
    /// last symbol with zero bits.
    pub fn modulate_bytes(self, bytes: &[u8]) -> Vec<Iq> {
        let qm = self.bits_per_symbol();
        let table = self.constellation();
        let mask = (1u32 << qm) - 1;
        let mut out = Vec::with_capacity((bytes.len() * 8).div_ceil(qm as usize));
        let (mut acc, mut held) = (0u32, 0u32);
        for &byte in bytes {
            acc = (acc << 8) | u32::from(byte);
            held += 8;
            while held >= qm {
                held -= qm;
                out.push(table[((acc >> held) & mask) as usize]);
            }
        }
        if held > 0 {
            out.push(table[((acc << (qm - held)) & mask) as usize]);
        }
        out
    }

    /// Hard-decision demaps one sample to its bit group by slicing each
    /// axis against the Gray decision thresholds: the sign gives the first
    /// bit, then each nested `|x| − 2^j·k` comparison the next. This is the
    /// minimum-distance decision; a sample exactly on a boundary takes bit
    /// 0. Non-finite samples demap without panicking (to arbitrary bits).
    pub fn demap(self, sample: Iq) -> u32 {
        if self == Modulation::Bpsk {
            return u32::from(sample.i + sample.q < 0.0);
        }
        let mut v = (u32::from(sample.i < 0.0) << 1) | u32::from(sample.q < 0.0);
        let (mut i, mut q) = (sample.i.abs(), sample.q.abs());
        let mut threshold = self.scale() * (1u32 << (self.bits_per_axis() - 1)) as f32;
        for _ in 1..self.bits_per_axis() {
            v = (v << 2) | (u32::from(i > threshold) << 1) | u32::from(q > threshold);
            i = (i - threshold).abs();
            q = (q - threshold).abs();
            threshold *= 0.5;
        }
        v
    }

    /// Demodulates samples back to bits (hard decisions).
    pub fn demodulate(self, samples: &[Iq]) -> Vec<u8> {
        let qm = self.bits_per_symbol();
        let mut bits = Vec::with_capacity(samples.len() * qm as usize);
        for &s in samples {
            let v = self.demap(s);
            for i in (0..qm).rev() {
                bits.push(((v >> i) & 1) as u8);
            }
        }
        bits
    }

    /// Demodulates samples straight into packed bytes (MSB first); bits
    /// that do not fill a last whole byte are dropped.
    pub fn demodulate_bytes(self, samples: &[Iq]) -> Vec<u8> {
        let qm = self.bits_per_symbol();
        let mut out = Vec::with_capacity(samples.len() * qm as usize / 8);
        let (mut acc, mut held) = (0u32, 0u32);
        for &s in samples {
            acc = (acc << qm) | self.demap(s);
            held += qm;
            if held >= 8 {
                held -= 8;
                out.push((acc >> held) as u8);
            }
        }
        out
    }
}

/// `√10`, `√42` and `√170` rounded to `f32`: the mean-energy roots of the
/// 16/64/256-QAM grids (`f32::sqrt` is not `const`; a test pins these to it).
const SQRT_10: f32 = 3.162_277_7;
const SQRT_42: f32 = 6.480_740_5;
const SQRT_170: f32 = 13.038_404;

/// `±1` for a bit `0`/`1`.
const fn sign(bit: u32) -> f32 {
    1.0 - 2.0 * (bit & 1) as f32
}

/// The spec's amplitude for one axis of `m` bits (MSB first in `axis`):
/// `k·s(a0)·(2^(m-1) − s(a1)·(… − s(a(m-1))·1))`, evaluated in the same
/// order as TS 38.211 §5.1 writes it so every point is bit-exact.
const fn level(k: f32, axis: u32, m: u32) -> f32 {
    let mut r = 1.0;
    let mut j = m;
    while j > 1 {
        j -= 1;
        r = (1u32 << (m - j)) as f32 - sign(axis >> (m - 1 - j)) * r;
    }
    k * sign(axis >> (m - 1)) * r
}

const fn table<const N: usize>(m: Modulation) -> [Iq; N] {
    let mut t = [Iq::new(0.0, 0.0); N];
    let mut v = 0;
    while v < N {
        t[v] = m.point(v as u32);
        v += 1;
    }
    t
}

static BPSK: [Iq; 2] = table(Modulation::Bpsk);
static QPSK: [Iq; 4] = table(Modulation::Qpsk);
static QAM16: [Iq; 16] = table(Modulation::Qam16);
static QAM64: [Iq; 64] = table(Modulation::Qam64);
static QAM256: [Iq; 256] = table(Modulation::Qam256);

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_mean_power(m: Modulation) -> f32 {
        let c = m.constellation();
        c.iter().map(|p| p.power()).sum::<f32>() / c.len() as f32
    }

    #[test]
    fn scales_match_runtime_sqrt() {
        assert_eq!(SQRT_2, 2f32.sqrt());
        assert_eq!(SQRT_10, 10f32.sqrt());
        assert_eq!(SQRT_42, 42f32.sqrt());
        assert_eq!(SQRT_170, 170f32.sqrt());
    }

    #[test]
    fn packed_paths_match_bit_paths() {
        let bytes: Vec<u8> = (0..=255u8).chain([0x5A, 0xC3, 0x01]).collect();
        let mut bits: Vec<u8> =
            bytes.iter().flat_map(|b| (0..8).rev().map(move |i| (b >> i) & 1)).collect();
        for m in Modulation::ALL {
            let qm = m.bits_per_symbol() as usize;
            let mut padded = bits.clone();
            padded.resize(bits.len().div_ceil(qm) * qm, 0);
            let samples = m.modulate_bytes(&bytes);
            assert_eq!(samples, m.modulate(&padded), "{m:?}");
            assert_eq!(m.demodulate_bytes(&samples), bytes, "{m:?}");
        }
        bits.truncate(6);
        // 6 bits are one 64-QAM symbol and less than a byte: nothing decodes.
        assert!(Modulation::Qam64.demodulate_bytes(&Modulation::Qam64.modulate(&bits)).is_empty());
    }

    #[test]
    fn constellations_have_unit_mean_power() {
        for m in Modulation::ALL {
            let p = unit_mean_power(m);
            assert!((p - 1.0).abs() < 1e-5, "{m:?} mean power {p}");
        }
    }

    #[test]
    fn constellation_points_are_distinct() {
        for m in Modulation::ALL {
            let c = m.constellation();
            for i in 0..c.len() {
                for j in (i + 1)..c.len() {
                    assert!(c[i].dist2(c[j]) > 1e-6, "{m:?}: {i} and {j} collide");
                }
            }
        }
    }

    #[test]
    fn qpsk_known_points() {
        let k = 1.0 / 2f32.sqrt();
        assert_eq!(Modulation::Qpsk.map(&[0, 0]), Iq::new(k, k));
        assert_eq!(Modulation::Qpsk.map(&[1, 1]), Iq::new(-k, -k));
        assert_eq!(Modulation::Qpsk.map(&[0, 1]), Iq::new(k, -k));
    }

    #[test]
    fn qam16_corner_point() {
        // b = 0,0,0,0: I = (1)(2-1) = 1/√10... per spec (1-2·0)[2-(1-2·0)]
        // = 1·(2-1) = 1 → 1/√10.
        let k = 1.0 / 10f32.sqrt();
        let p = Modulation::Qam16.map(&[0, 0, 0, 0]);
        assert!((p.i - k).abs() < 1e-6 && (p.q - k).abs() < 1e-6);
        // b = 0,0,1,1: I = 1·(2+1) = 3/√10 (outer ring).
        let p = Modulation::Qam16.map(&[0, 0, 1, 1]);
        assert!((p.i - 3.0 * k).abs() < 1e-6 && (p.q - 3.0 * k).abs() < 1e-6);
    }

    #[test]
    fn modulate_demodulate_roundtrip_all_schemes() {
        for m in Modulation::ALL {
            let qm = m.bits_per_symbol() as usize;
            // All possible bit groups, concatenated.
            let mut bits = Vec::new();
            for v in 0..(1u32 << qm) {
                for i in (0..qm).rev() {
                    bits.push(((v >> i) & 1) as u8);
                }
            }
            let samples = m.modulate(&bits);
            let back = m.demodulate(&samples);
            assert_eq!(bits, back, "{m:?}");
        }
    }

    #[test]
    fn roundtrip_survives_small_noise() {
        // Perturb each QPSK sample by less than half the minimum distance.
        let bits = vec![0, 1, 1, 0, 1, 1, 0, 0];
        let mut samples = Modulation::Qpsk.modulate(&bits);
        for (n, s) in samples.iter_mut().enumerate() {
            s.i += if n % 2 == 0 { 0.2 } else { -0.2 };
            s.q += 0.15;
        }
        assert_eq!(Modulation::Qpsk.demodulate(&samples), bits);
    }

    #[test]
    #[should_panic(expected = "wrong bit-group size")]
    fn map_rejects_wrong_group() {
        Modulation::Qam16.map(&[0, 1]);
    }

    #[test]
    #[should_panic(expected = "not a multiple of Qm")]
    fn modulate_rejects_ragged_input() {
        Modulation::Qam64.modulate(&[0, 1, 0]);
    }

    #[test]
    fn bits_per_symbol_table() {
        assert_eq!(Modulation::Bpsk.bits_per_symbol(), 1);
        assert_eq!(Modulation::Qpsk.bits_per_symbol(), 2);
        assert_eq!(Modulation::Qam16.bits_per_symbol(), 4);
        assert_eq!(Modulation::Qam64.bits_per_symbol(), 6);
        assert_eq!(Modulation::Qam256.bits_per_symbol(), 8);
    }
}
