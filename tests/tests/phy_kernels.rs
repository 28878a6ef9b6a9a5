//! Equivalence of the word-parallel PHY kernels with bit-serial oracles.
//!
//! The oracles live here, not in `phy`: a Gold generator written straight
//! from the TS 38.211 §5.2.1 recurrence, the §5.1 mapping formulas with a
//! minimum-distance demapper, and the transport chain's encode spelled out
//! one bit per byte. `phy` keeps one code path; these tests pin it to the
//! spec.

use phy::crc::{CRC24A, CRC24B};
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
