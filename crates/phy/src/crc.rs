//! CRC attachment (TS 38.212 §5.1).
//!
//! NR uses five cyclic generator polynomials: CRC24A (transport blocks),
//! CRC24B (code blocks), CRC24C (BCH), CRC16 (small transport blocks) and
//! CRC11/CRC6 (polar-coded control).
//!
//! The hot path is slicing-by-8: every standard polynomial runs
//! left-aligned in a 32-bit register (register and polynomial shifted up by
//! `32 − width`; the final shift back recovers the remainder — the
//! alignment commutes with the division) and gets eight compile-time
//! 256-entry tables, so eight input bytes cost eight lookups and one
//! register update. A tail shorter than eight bytes goes a byte at a time
//! through the first table.
//! The original MSB-first bit-at-a-time engine survives as
//! [`CrcPoly::compute_bitwise`], both as the fallback for non-standard
//! polynomials and as the reference the equivalence tests compare against.

use serde::{Deserialize, Serialize};

/// A CRC generator polynomial with its width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CrcPoly {
    /// Polynomial width in bits (degree).
    pub width: u32,
    /// Polynomial coefficients below the leading term, MSB-first.
    pub poly: u32,
}

/// gCRC24A(D) = D²⁴+D²³+D¹⁸+D¹⁷+D¹⁴+D¹¹+D¹⁰+D⁷+D⁶+D⁵+D⁴+D³+D+1 —
/// attached to transport blocks.
pub const CRC24A: CrcPoly = CrcPoly { width: 24, poly: 0x86_4C_FB };
/// gCRC24B(D) = D²⁴+D²³+D⁶+D⁵+D+1 — attached to code blocks.
pub const CRC24B: CrcPoly = CrcPoly { width: 24, poly: 0x80_00_63 };
/// gCRC24C(D) — broadcast channel.
pub const CRC24C: CrcPoly = CrcPoly { width: 24, poly: 0xB2_B1_17 };
/// gCRC16(D) = D¹⁶+D¹²+D⁵+1 (CCITT) — small transport blocks.
pub const CRC16: CrcPoly = CrcPoly { width: 16, poly: 0x10_21 };
/// gCRC11(D) = D¹¹+D¹⁰+D⁹+D⁵+1 — polar-coded UCI.
pub const CRC11: CrcPoly = CrcPoly { width: 11, poly: 0x6_21 };
/// gCRC6(D) = D⁶+D⁵+1 — short UCI.
pub const CRC6: CrcPoly = CrcPoly { width: 6, poly: 0x21 };

/// Slicing-by-8 lookup tables, one 256-entry table per byte position.
type Tables = [[u32; 256]; 8];

/// Slicing-by-8 tables for `poly`, left-aligned to a 32-bit register:
/// `t[0][b]` is the register after shifting byte `b` through the top eight
/// bits, and `t[k][b]` the same after `8·k` further zero bits. Evaluated at
/// compile time for the standard polynomials below.
const fn slicing_tables(width: u32, poly: u32) -> Tables {
    let poly = poly << (32 - width);
    let mut t = [[0u32; 256]; 8];
    let mut b = 0usize;
    while b < 256 {
        let mut reg = (b as u32) << 24;
        let mut i = 0;
        while i < 8 {
            reg = if reg & 0x8000_0000 != 0 { (reg << 1) ^ poly } else { reg << 1 };
            i += 1;
        }
        t[0][b] = reg;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0usize;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev << 8) ^ t[0][(prev >> 24) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

static CRC24A_TABLES: Tables = slicing_tables(CRC24A.width, CRC24A.poly);
static CRC24B_TABLES: Tables = slicing_tables(CRC24B.width, CRC24B.poly);
static CRC24C_TABLES: Tables = slicing_tables(CRC24C.width, CRC24C.poly);
static CRC16_TABLES: Tables = slicing_tables(CRC16.width, CRC16.poly);
static CRC11_TABLES: Tables = slicing_tables(CRC11.width, CRC11.poly);
static CRC6_TABLES: Tables = slicing_tables(CRC6.width, CRC6.poly);

impl CrcPoly {
    /// The precomputed tables for the standard polynomials (`None` for an
    /// ad-hoc polynomial, which falls back to the bitwise engine).
    fn tables(&self) -> Option<&'static Tables> {
        match (self.width, self.poly) {
            (24, 0x86_4C_FB) => Some(&CRC24A_TABLES),
            (24, 0x80_00_63) => Some(&CRC24B_TABLES),
            (24, 0xB2_B1_17) => Some(&CRC24C_TABLES),
            (16, 0x10_21) => Some(&CRC16_TABLES),
            (11, 0x6_21) => Some(&CRC11_TABLES),
            (6, 0x21) => Some(&CRC6_TABLES),
            _ => None,
        }
    }

    /// Computes the CRC remainder of `data` (MSB-first, zero initial state,
    /// no final XOR — the TS 38.212 convention). Slicing-by-8 for the
    /// standard polynomials, bitwise otherwise.
    pub fn compute(&self, data: &[u8]) -> u32 {
        let Some(t) = self.tables() else {
            return self.compute_bitwise(data);
        };
        let mut reg: u32 = 0;
        let mut words = data.chunks_exact(8);
        for w in &mut words {
            let hi = reg ^ u32::from_be_bytes([w[0], w[1], w[2], w[3]]);
            reg = t[7][(hi >> 24) as usize]
                ^ t[6][(hi >> 16) as usize & 0xFF]
                ^ t[5][(hi >> 8) as usize & 0xFF]
                ^ t[4][hi as usize & 0xFF]
                ^ t[3][usize::from(w[4])]
                ^ t[2][usize::from(w[5])]
                ^ t[1][usize::from(w[6])]
                ^ t[0][usize::from(w[7])];
        }
        for &byte in words.remainder() {
            reg = (reg << 8) ^ t[0][((reg >> 24) ^ u32::from(byte)) as usize];
        }
        reg >> (32 - self.width)
    }

    /// The reference MSB-first bit-at-a-time engine (the original
    /// implementation): kept for ad-hoc polynomials and as the ground
    /// truth the table equivalence tests compare against.
    pub fn compute_bitwise(&self, data: &[u8]) -> u32 {
        let mut reg: u32 = 0;
        let mask: u32 = if self.width == 32 { u32::MAX } else { (1 << self.width) - 1 };
        for &byte in data {
            for bit in (0..8).rev() {
                let inbit = u32::from((byte >> bit) & 1);
                let feedback = ((reg >> (self.width - 1)) & 1) ^ inbit;
                reg = (reg << 1) & mask;
                if feedback == 1 {
                    reg ^= self.poly & mask;
                }
            }
        }
        reg & mask
    }

    /// Appends the CRC to `data` as whole bytes (width rounded up to a
    /// multiple of 8, left-padded with zero bits — 24- and 16-bit CRCs are
    /// byte-aligned already, which is all the data path uses).
    pub fn attach(&self, data: &[u8]) -> Vec<u8> {
        let crc = self.compute(data);
        let bytes = self.width.div_ceil(8) as usize;
        let mut out = Vec::with_capacity(data.len() + bytes);
        out.extend_from_slice(data);
        for i in (0..bytes).rev() {
            out.push((crc >> (8 * i)) as u8);
        }
        out
    }

    /// Checks a CRC-suffixed message; returns the payload on success.
    pub fn check<'a>(&self, message: &'a [u8]) -> Option<&'a [u8]> {
        let bytes = self.width.div_ceil(8) as usize;
        if message.len() < bytes {
            return None;
        }
        let (payload, tail) = message.split_at(message.len() - bytes);
        let mut got: u32 = 0;
        for &b in tail {
            got = (got << 8) | u32::from(b);
        }
        if self.compute(payload) == got {
            Some(payload)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc_of_empty_is_zero() {
        for p in [CRC24A, CRC24B, CRC24C, CRC16, CRC11, CRC6] {
            assert_eq!(p.compute(&[]), 0);
        }
    }

    #[test]
    fn crc_of_zeros_is_zero() {
        assert_eq!(CRC24A.compute(&[0u8; 16]), 0);
        assert_eq!(CRC16.compute(&[0u8; 16]), 0);
    }

    #[test]
    fn crc16_ccitt_known_vector() {
        // CRC16/XMODEM ("123456789") = 0x31C3; gCRC16 is the same
        // polynomial with zero init and no final XOR.
        assert_eq!(CRC16.compute(b"123456789"), 0x31C3);
    }

    #[test]
    fn table_matches_bitwise_on_random_payloads() {
        // xorshift64* — deterministic pseudo-random payloads without
        // pulling the sim crate into phy's dev-deps.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        for len in 0..64 {
            let payload: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            for p in [CRC24A, CRC24B, CRC24C, CRC16, CRC11, CRC6] {
                assert_eq!(
                    p.compute(&payload),
                    p.compute_bitwise(&payload),
                    "table/bitwise disagree for {p:?} on {payload:?}"
                );
            }
        }
        // Larger blocks, TB-sized.
        for _ in 0..8 {
            let payload: Vec<u8> = (0..1500).map(|_| next() as u8).collect();
            for p in [CRC24A, CRC24B, CRC24C, CRC16, CRC11, CRC6] {
                assert_eq!(p.compute(&payload), p.compute_bitwise(&payload));
            }
        }
    }

    #[test]
    fn ad_hoc_polynomial_falls_back_to_bitwise() {
        let odd = CrcPoly { width: 8, poly: 0x07 }; // CRC-8/ATM, not in NR
        assert!(odd.tables().is_none());
        assert_eq!(odd.compute(b"123456789"), odd.compute_bitwise(b"123456789"));
        // Known CRC-8 (poly 0x07, zero init): "123456789" → 0xF4.
        assert_eq!(odd.compute(b"123456789"), 0xF4);
    }

    #[test]
    fn attach_check_roundtrip() {
        let data = b"hello 5G world";
        for p in [CRC24A, CRC24B, CRC24C, CRC16, CRC11, CRC6] {
            let msg = p.attach(data);
            assert_eq!(p.check(&msg), Some(&data[..]), "poly {p:?}");
        }
    }

    #[test]
    fn detects_single_bit_errors() {
        let data = b"payload under test";
        let msg = CRC24A.attach(data);
        for byte in 0..msg.len() {
            for bit in 0..8 {
                let mut corrupted = msg.clone();
                corrupted[byte] ^= 1 << bit;
                assert_eq!(CRC24A.check(&corrupted), None, "missed flip at {byte}:{bit}");
            }
        }
    }

    #[test]
    fn detects_burst_errors_up_to_width() {
        // A CRC of width w detects all burst errors of length <= w.
        let data = vec![0xA5u8; 64];
        let msg = CRC16.attach(&data);
        for start in 0..(msg.len() - 2) {
            let mut corrupted = msg.clone();
            corrupted[start] ^= 0xFF;
            corrupted[start + 1] ^= 0xFF;
            assert_eq!(CRC16.check(&corrupted), None, "missed burst at {start}");
        }
    }

    #[test]
    fn check_rejects_short_messages() {
        assert_eq!(CRC24A.check(&[0x00, 0x01]), None);
        assert_eq!(CRC24A.check(&[]), None);
    }

    #[test]
    fn different_polys_disagree() {
        let data = b"disambiguate";
        let a = CRC24A.compute(data);
        let b = CRC24B.compute(data);
        let c = CRC24C.compute(data);
        assert!(a != b && b != c && a != c);
    }
}
