//! QAM modulation mapping (TS 38.211 §5.1).
//!
//! Gray-mapped BPSK/QPSK/16-QAM/64-QAM/256-QAM constellation mapping and
//! hard-decision demapping. The radio crate moves *samples*; this module is
//! what turns coded bits into those samples and back, and its
//! bits-per-symbol figures feed the transport-block sizing in [`crate::grid`].
//!
//! Each scheme's constellation is a `static` table built at compile time
//! from the spec formula. The transport path maps packed bytes a byte at a
//! time ([`Modulation::modulate_bytes`]): a per-byte table holds the
//! `8/Qm` points of every byte value (64QAM maps 3-byte groups to 4
//! points). Hard decisions slice each axis on its own: with Gray mapping,
//! I carries the even bits and Q the odd ones, so the sign and nested
//! `|x| − 2^j·k` comparisons give the minimum-distance bit group without
//! searching the constellation. [`Modulation::demodulate_bytes`] packs the
//! decisions of each group of samples into whole bytes.

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
            Modulation::Qam256 => QAM256.as_flattened(),
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
    /// last symbol with zero bits. BPSK, QPSK, 16QAM and 256QAM copy each
    /// byte's `8/Qm` points from a per-byte table; 64QAM maps every 3-byte
    /// group to 4 points.
    pub fn modulate_bytes(self, bytes: &[u8]) -> Vec<Iq> {
        match self {
            Modulation::Bpsk => map_bytes(bytes, &BPSK_BYTES),
            Modulation::Qpsk => map_bytes(bytes, &QPSK_BYTES),
            Modulation::Qam16 => map_bytes(bytes, &QAM16_BYTES),
            Modulation::Qam64 => map_qam64(bytes),
            Modulation::Qam256 => map_bytes(bytes, &QAM256),
        }
    }

    /// Hard-decision demaps one sample to its bit group by slicing each
    /// axis against the Gray decision thresholds: the sign gives the first
    /// bit, then each nested `|x| − 2^j·k` comparison the next. This is the
    /// minimum-distance decision; a sample exactly on a boundary takes bit
    /// 0. Non-finite samples demap without panicking (to arbitrary bits).
    pub fn demap(self, sample: Iq) -> u32 {
        match self {
            Modulation::Bpsk => slice::<1>(sample),
            Modulation::Qpsk => slice::<2>(sample),
            Modulation::Qam16 => slice::<4>(sample),
            Modulation::Qam64 => slice::<6>(sample),
            Modulation::Qam256 => slice::<8>(sample),
        }
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

    /// Demodulates samples straight into packed bytes (MSB first), a whole
    /// byte per group of samples (three bytes per four 64QAM samples);
    /// bits that do not fill a last whole byte are dropped.
    pub fn demodulate_bytes(self, samples: &[Iq]) -> Vec<u8> {
        match self {
            Modulation::Bpsk => slice_bytes::<1>(samples),
            Modulation::Qpsk => slice_bytes::<2>(samples),
            Modulation::Qam16 => slice_bytes::<4>(samples),
            Modulation::Qam64 => slice_bytes::<6>(samples),
            Modulation::Qam256 => slice_bytes::<8>(samples),
        }
    }

    /// The scheme carrying `qm` bits per symbol.
    const fn with_bits_per_symbol(qm: u32) -> Modulation {
        match qm {
            1 => Modulation::Bpsk,
            2 => Modulation::Qpsk,
            4 => Modulation::Qam16,
            6 => Modulation::Qam64,
            _ => Modulation::Qam256,
        }
    }
}

/// Maps each byte to its `P` points from a per-byte table.
fn map_bytes<const P: usize>(bytes: &[u8], table: &[[Iq; P]; 256]) -> Vec<Iq> {
    let mut out = vec![Iq::default(); bytes.len() * P];
    for (points, &byte) in out.chunks_exact_mut(P).zip(bytes) {
        points.copy_from_slice(&table[usize::from(byte)]);
    }
    out
}

/// 64QAM: 4 points per 3-byte group; a trailing 1 or 2 bytes take 2 or 3
/// points, the last padded with zero bits.
fn map_qam64(bytes: &[u8]) -> Vec<Iq> {
    let point = |v: u32, shift: u32| QAM64[((v >> shift) & 0x3F) as usize];
    let mut out = Vec::with_capacity((bytes.len() * 8).div_ceil(6));
    let mut groups = bytes.chunks_exact(3);
    for g in &mut groups {
        let v = u32::from_be_bytes([0, g[0], g[1], g[2]]);
        out.extend_from_slice(&[point(v, 18), point(v, 12), point(v, 6), point(v, 0)]);
    }
    let rest = groups.remainder();
    if !rest.is_empty() {
        let v = rest.iter().enumerate().fold(0, |v, (n, &b)| v | u32::from(b) << (16 - 8 * n));
        for k in 0..(rest.len() * 8).div_ceil(6) as u32 {
            out.push(point(v, 18 - 6 * k));
        }
    }
    out
}

/// Slices one sample of the `QM`-bit scheme (see [`Modulation::demap`]);
/// the scheme is a constant, so the nested comparisons unroll.
#[inline(always)]
fn slice<const QM: u32>(sample: Iq) -> u32 {
    let m = const { Modulation::with_bits_per_symbol(QM) };
    if QM == 1 {
        return u32::from(sample.i + sample.q < 0.0);
    }
    let mut v = (u32::from(sample.i < 0.0) << 1) | u32::from(sample.q < 0.0);
    let (mut i, mut q) = (sample.i.abs(), sample.q.abs());
    let mut threshold = m.scale() * (1u32 << (m.bits_per_axis() - 1)) as f32;
    for _ in 1..m.bits_per_axis() {
        v = (v << 2) | (u32::from(i > threshold) << 1) | u32::from(q > threshold);
        i = (i - threshold).abs();
        q = (q - threshold).abs();
        threshold *= 0.5;
    }
    v
}

/// Slices whole bytes: each group of `lcm(QM, 8)/QM` samples gives
/// `lcm(QM, 8)/8` bytes, and a trailing partial group the whole bytes its
/// bits fill (only 64QAM's can fill any).
fn slice_bytes<const QM: u32>(samples: &[Iq]) -> Vec<u8> {
    let (group, group_bytes) = if QM == 6 { (4, 3) } else { (8 / QM as usize, 1) };
    let pack = |group: &[Iq]| group.iter().fold(0u32, |v, &s| (v << QM) | slice::<QM>(s));
    let mut out = vec![0u8; samples.len() * QM as usize / 8];
    let (groups, tail) = samples.split_at(samples.len() / group * group);
    let (whole, rest) = out.split_at_mut(groups.len() / group * group_bytes);
    for (bytes, g) in whole.chunks_exact_mut(group_bytes).zip(groups.chunks_exact(group)) {
        bytes.copy_from_slice(&pack(g).to_be_bytes()[4 - group_bytes..]);
    }
    let (v, bits) = (pack(tail), tail.len() * QM as usize);
    for (k, byte) in rest.iter_mut().enumerate() {
        *byte = (v >> (bits - 8 * (k + 1))) as u8;
    }
    out
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

/// Per-byte point table: entry `b` holds the `P = 8/Qm` points byte `b`
/// maps to, MSB first.
const fn byte_table<const P: usize>(m: Modulation) -> [[Iq; P]; 256] {
    let qm = m.bits_per_symbol();
    let mut t = [[Iq::new(0.0, 0.0); P]; 256];
    let mut b = 0;
    while b < 256 {
        let mut p = 0;
        while p < P {
            t[b][p] = m.point((b as u32 >> (8 - qm * (p as u32 + 1))) & ((1 << qm) - 1));
            p += 1;
        }
        b += 1;
    }
    t
}

static BPSK: [Iq; 2] = table(Modulation::Bpsk);
static QPSK: [Iq; 4] = table(Modulation::Qpsk);
static QAM16: [Iq; 16] = table(Modulation::Qam16);
static QAM64: [Iq; 64] = table(Modulation::Qam64);
/// 256QAM's per-byte table is its constellation, one point per byte.
static QAM256: [[Iq; 1]; 256] = byte_table(Modulation::Qam256);
static BPSK_BYTES: [[Iq; 8]; 256] = byte_table(Modulation::Bpsk);
static QPSK_BYTES: [[Iq; 4]; 256] = byte_table(Modulation::Qpsk);
static QAM16_BYTES: [[Iq; 2]; 256] = byte_table(Modulation::Qam16);

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
