//! Equivalence of the word-parallel and byte-table PHY kernels with
//! bit-serial oracles.
//!
//! The oracles live here, not in `phy`: a Gold generator written straight
//! from the TS 38.211 §5.2.1 recurrence, the §5.1 mapping formulas with a
//! per-symbol map and minimum-distance demapper, and the transport chain's
//! encode spelled out one bit per byte. The slicing-by-8 CRC is pinned to
//! the bitwise engine `phy` keeps for ad-hoc polynomials. `phy` keeps one
//! code path; these tests pin it to the spec.

use phy::crc::{CrcPoly, CRC11, CRC16, CRC24A, CRC24B, CRC24C, CRC6};
use phy::modulation::{Iq, Modulation};
use phy::scrambling::{GoldSequence, NC};
use phy::transport::{decode, encode, ShChConfig, MAX_CODE_BLOCK_BYTES};
use proptest::prelude::*;

/// `c(0..n_bits)` for `c_init`, from the recurrence over whole sequences.
fn oracle_gold(c_init: u32, n_bits: usize) -> Vec<u8> {
    let len = NC + n_bits + 31;
    let mut x1 = vec![0u8; len];
    let mut x2 = vec![0u8; len];
    x1[0] = 1;
    for (n, x) in x2.iter_mut().enumerate().take(31) {
        *x = ((c_init >> n) & 1) as u8;
    }
    for n in 0..len - 31 {
        x1[n + 31] = (x1[n + 3] + x1[n]) % 2;
        x2[n + 31] = (x2[n + 3] + x2[n + 2] + x2[n + 1] + x2[n]) % 2;
    }
    (0..n_bits).map(|n| (x1[n + NC] + x2[n + NC]) % 2).collect()
}

/// XORs `data` with `bits`, MSB first within each byte.
fn oracle_scramble(bits: &[u8], data: &mut [u8]) {
    for (byte, chunk) in data.iter_mut().zip(bits.chunks(8)) {
        *byte ^= chunk.iter().fold(0u8, |m, &b| (m << 1) | b);
    }
}

/// The TS 38.211 §5.1 point for bit group `v` (b\[0\] as MSB).
fn oracle_point(m: Modulation, v: u32) -> Iq {
    let qm = m.bits_per_symbol();
    let b: Vec<f32> = (0..qm).map(|i| 1.0 - 2.0 * ((v >> (qm - 1 - i)) & 1) as f32).collect();
    match m {
        Modulation::Bpsk => {
            let a = b[0] / 2f32.sqrt();
            Iq::new(a, a)
        }
        Modulation::Qpsk => {
            let k = 1.0 / 2f32.sqrt();
            Iq::new(k * b[0], k * b[1])
        }
        Modulation::Qam16 => {
            let k = 1.0 / 10f32.sqrt();
            Iq::new(k * b[0] * (2.0 - b[2]), k * b[1] * (2.0 - b[3]))
        }
        Modulation::Qam64 => {
            let k = 1.0 / 42f32.sqrt();
            Iq::new(k * b[0] * (4.0 - b[2] * (2.0 - b[4])), k * b[1] * (4.0 - b[3] * (2.0 - b[5])))
        }
        Modulation::Qam256 => {
            let k = 1.0 / 170f32.sqrt();
            Iq::new(
                k * b[0] * (8.0 - b[2] * (4.0 - b[4] * (2.0 - b[6]))),
                k * b[1] * (8.0 - b[3] * (4.0 - b[5] * (2.0 - b[7]))),
            )
        }
    }
}

fn oracle_constellation(m: Modulation) -> Vec<Iq> {
    (0..1u32 << m.bits_per_symbol()).map(|v| oracle_point(m, v)).collect()
}

/// Minimum Euclidean distance over the whole constellation; ties go to
/// the lowest group value.
fn oracle_demap(constellation: &[Iq], s: Iq) -> u32 {
    let mut best = (0u32, f32::INFINITY);
    for (v, p) in constellation.iter().enumerate() {
        let d = s.dist2(*p);
        if d < best.1 {
            best = (v as u32, d);
        }
    }
    best.0
}

fn min_distance(constellation: &[Iq]) -> f32 {
    let mut d = f32::INFINITY;
    for (i, a) in constellation.iter().enumerate() {
        for b in &constellation[i + 1..] {
            d = d.min(a.dist2(*b).sqrt());
        }
    }
    d
}

/// The transport chain one bit per byte: CRC24A, segmentation with CRC24B,
/// count and length framing, oracle scrambling, zero padding, oracle map.
fn oracle_encode(cfg: ShChConfig, payload: &[u8]) -> Vec<Iq> {
    let tb = CRC24A.attach(payload);
    let blocks: Vec<Vec<u8>> = if tb.len() <= MAX_CODE_BLOCK_BYTES {
        vec![tb]
    } else {
        tb.chunks(MAX_CODE_BLOCK_BYTES).map(|c| CRC24B.attach(c)).collect()
    };
    let mut stream = vec![blocks.len() as u8];
    for b in &blocks {
        stream.extend_from_slice(&(b.len() as u16).to_be_bytes());
        stream.extend_from_slice(b);
    }
    oracle_scramble(&oracle_gold(cfg.c_init & 0x7FFF_FFFF, stream.len() * 8), &mut stream);
    let mut bits: Vec<u8> =
        stream.iter().flat_map(|b| (0..8).rev().map(move |i| (b >> i) & 1)).collect();
    let qm = cfg.modulation.bits_per_symbol() as usize;
    bits.resize(bits.len().div_ceil(qm) * qm, 0);
    let constellation = oracle_constellation(cfg.modulation);
    bits.chunks(qm)
        .map(|g| constellation[g.iter().fold(0usize, |v, &b| (v << 1) | usize::from(b))])
        .collect()
}

fn bit_patterns(samples: &[Iq]) -> Vec<(u32, u32)> {
    samples.iter().map(|s| (s.i.to_bits(), s.q.to_bits())).collect()
}

/// `bytes` as bits (MSB first), zero-padded to whole symbols and mapped one
/// symbol at a time through the spec formula.
fn oracle_modulate(m: Modulation, bytes: &[u8]) -> Vec<Iq> {
    let qm = m.bits_per_symbol() as usize;
    let mut bits: Vec<u8> =
        bytes.iter().flat_map(|b| (0..8).rev().map(move |i| (b >> i) & 1)).collect();
    bits.resize(bits.len().div_ceil(qm) * qm, 0);
    bits.chunks(qm)
        .map(|g| oracle_point(m, g.iter().fold(0u32, |v, &b| (v << 1) | u32::from(b))))
        .collect()
}

/// Min-distance decisions one symbol at a time, packed MSB first; bits
/// short of a last whole byte are dropped.
fn oracle_demodulate(m: Modulation, samples: &[Iq]) -> Vec<u8> {
    let qm = m.bits_per_symbol();
    let constellation = oracle_constellation(m);
    let bits: Vec<u8> = samples
        .iter()
        .flat_map(|&s| {
            let v = oracle_demap(&constellation, s);
            (0..qm).rev().map(move |i| ((v >> i) & 1) as u8)
        })
        .collect();
    bits.chunks_exact(8).map(|byte| byte.iter().fold(0u8, |v, &b| (v << 1) | b)).collect()
}

/// xorshift64*: deterministic test data without a sim dependency.
fn xorshift(mut state: u64) -> impl FnMut() -> u64 {
    move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

const STANDARD_POLYS: [CrcPoly; 6] = [CRC24A, CRC24B, CRC24C, CRC16, CRC11, CRC6];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn scramble_matches_the_recurrence(
        c_init in any::<u32>(),
        len in 0usize..4097,
        seed in any::<u8>(),
    ) {
        let data: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_mul(31) ^ seed).collect();
        let mut got = data.clone();
        GoldSequence::new(c_init).scramble_in_place(&mut got);
        let mut want = data;
        oracle_scramble(&oracle_gold(c_init & 0x7FFF_FFFF, len * 8), &mut want);
        prop_assert_eq!(got, want);
    }

    #[test]
    fn scrambling_in_pieces_equals_scrambling_whole(
        c_init in any::<u32>(),
        a in prop::collection::vec(any::<u8>(), 0..40),
        b in prop::collection::vec(any::<u8>(), 0..40),
    ) {
        let mut g = GoldSequence::new(c_init);
        let (mut pa, mut pb) = (a.clone(), b.clone());
        g.scramble_in_place(&mut pa);
        g.scramble_in_place(&mut pb);
        let mut whole = [a, b].concat();
        GoldSequence::new(c_init).scramble_in_place(&mut whole);
        prop_assert_eq!([pa, pb].concat(), whole);
    }

    #[test]
    fn next_bit_continues_after_a_scramble(c_init in any::<u32>(), len in 0usize..64) {
        let mut g = GoldSequence::new(c_init);
        g.scramble_in_place(&mut vec![0u8; len]);
        let tail: Vec<u8> = (0..100).map(|_| g.next_bit()).collect();
        let want = oracle_gold(c_init & 0x7FFF_FFFF, len * 8 + 100);
        prop_assert_eq!(&tail[..], &want[len * 8..]);
        let mut bytes = [0u8; 9];
        g.next_bytes(&mut bytes);
        let mut want_bytes = [0u8; 9];
        oracle_scramble(&oracle_gold(c_init & 0x7FFF_FFFF, len * 8 + 172)[len * 8 + 100..], &mut want_bytes);
        prop_assert_eq!(bytes, want_bytes);
    }

    #[test]
    fn slicer_matches_min_distance_near_every_point(
        radius in 0.0f32..0.45,
        angle in 0.0f32..std::f32::consts::TAU,
    ) {
        for m in Modulation::ALL {
            let constellation = oracle_constellation(m);
            let r = radius * min_distance(&constellation) / 2.0;
            let (di, dq) = (r * angle.cos(), r * angle.sin());
            for (v, p) in constellation.iter().enumerate() {
                let s = Iq::new(p.i + di, p.q + dq);
                prop_assert_eq!(m.demap(s), oracle_demap(&constellation, s), "{:?} point {}", m, v);
                prop_assert_eq!(m.demap(s), v as u32, "{:?} point {}", m, v);
            }
        }
    }
}

#[test]
fn constellations_equal_the_spec_formula_bit_for_bit() {
    for m in Modulation::ALL {
        let want = oracle_constellation(m);
        assert_eq!(bit_patterns(m.constellation()), bit_patterns(&want), "{m:?}");
        for (v, p) in want.iter().enumerate() {
            assert_eq!(m.demap(*p), v as u32, "{m:?} point {v}");
            assert_eq!(oracle_demap(&want, *p), v as u32, "{m:?} point {v}");
        }
    }
}

#[test]
fn encode_equals_the_oracle_bit_for_bit() {
    for m in Modulation::ALL {
        for c_init in [0, 0x2_4680, 0xFFFF_FFFF] {
            let cfg = ShChConfig { modulation: m, c_init };
            for bytes in [0usize, 1, 64, 1000, MAX_CODE_BLOCK_BYTES + 5] {
                let payload: Vec<u8> = (0..bytes).map(|i| (i * 7 + 3) as u8).collect();
                let (samples, _) = encode(cfg, &payload);
                assert_eq!(
                    bit_patterns(&samples),
                    bit_patterns(&oracle_encode(cfg, &payload)),
                    "{m:?} c_init {c_init:#x} {bytes} B"
                );
                assert_eq!(
                    decode(cfg, &samples),
                    Ok(payload),
                    "{m:?} c_init {c_init:#x} {bytes} B"
                );
            }
        }
    }
}

#[test]
fn byte_table_modulator_equals_the_per_symbol_map() {
    let every_byte: Vec<u8> = (0..=255).collect();
    let mut next = xorshift(0x5EED);
    for m in Modulation::ALL {
        assert_eq!(
            bit_patterns(&m.modulate_bytes(&every_byte)),
            bit_patterns(&oracle_modulate(m, &every_byte)),
            "{m:?} every byte value"
        );
        // Ragged lengths: every remainder of a 64QAM 3-byte group, and of
        // every other scheme's one-byte group.
        for len in 0..=13 {
            let bytes: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            assert_eq!(
                bit_patterns(&m.modulate_bytes(&bytes)),
                bit_patterns(&oracle_modulate(m, &bytes)),
                "{m:?} {len} B"
            );
        }
    }
}

#[test]
fn byte_slicer_equals_the_per_symbol_demapper() {
    let every_byte: Vec<u8> = (0..=255).collect();
    let mut next = xorshift(0xD1CE);
    // Uniform over ±1.6 on each axis: past the outermost 256QAM ring.
    let mut axis = move || (next() >> 11) as f32 / (1u64 << 53) as f32 * 3.2 - 1.6;
    for m in Modulation::ALL {
        let clean = m.modulate_bytes(&every_byte);
        assert_eq!(m.demodulate_bytes(&clean), every_byte, "{m:?}");
        assert_eq!(m.demodulate_bytes(&clean), oracle_demodulate(m, &clean), "{m:?}");
        // Ragged sample counts of random samples: whole bytes only, every
        // decision the minimum-distance one.
        for len in 0..=25 {
            let samples: Vec<Iq> = (0..len).map(|_| Iq::new(axis(), axis())).collect();
            assert_eq!(
                m.demodulate_bytes(&samples),
                oracle_demodulate(m, &samples),
                "{m:?} {len} samples"
            );
        }
    }
}

#[test]
fn special_samples_decide_as_less_than_zero() {
    let special = [0.0f32, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
    for m in Modulation::ALL {
        let qm = m.bits_per_symbol();
        for &i in &special {
            for &q in &special {
                let s = Iq::new(i, q);
                let v = m.demap(s);
                if m == Modulation::Bpsk {
                    assert_eq!(v, u32::from(i + q < 0.0), "{m:?} ({i}, {q})");
                } else {
                    // The first I and Q bits are the signs.
                    assert_eq!(v >> (qm - 1), u32::from(i < 0.0), "{m:?} I of ({i}, {q})");
                    assert_eq!((v >> (qm - 2)) & 1, u32::from(q < 0.0), "{m:?} Q of ({i}, {q})");
                }
                // The byte slicer makes the same decision as the per-symbol
                // one: a run of the sample packs into copies of its bits.
                let run = vec![s; 8];
                let bits: Vec<u8> =
                    (0..8).flat_map(|_| (0..qm).rev().map(move |b| ((v >> b) & 1) as u8)).collect();
                let want: Vec<u8> =
                    bits.chunks_exact(8).map(|c| c.iter().fold(0, |a, &b| (a << 1) | b)).collect();
                assert_eq!(m.demodulate_bytes(&run), want, "{m:?} ({i}, {q})");
            }
        }
    }
}

#[test]
fn slicing_crc_equals_bitwise_at_lengths_0_to_4096() {
    let mut next = xorshift(0xC0C0);
    let data: Vec<u8> = (0..4096).map(|_| next() as u8).collect();
    // Every length up to 64 (each slicing-by-8 tail), then every 37th
    // length and the 4096 B end.
    let lengths = (0..=64).chain((65..4096).step_by(37)).chain([4095, 4096]);
    for len in lengths {
        for p in STANDARD_POLYS {
            assert_eq!(
                p.compute(&data[..len]),
                p.compute_bitwise(&data[..len]),
                "{p:?} at {len} B"
            );
        }
    }
}
