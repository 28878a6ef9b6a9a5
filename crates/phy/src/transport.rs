//! Transport-block processing (TS 38.212 §5.2 simplified).
//!
//! The downlink/uplink shared-channel chain implemented here:
//!
//! 1. attach CRC24A to the transport block;
//! 2. segment into code blocks of at most [`MAX_CODE_BLOCK_BYTES`] with a
//!    CRC24B per code block (only when segmentation occurs, as in the spec);
//! 3. scramble with the UE-specific Gold sequence;
//! 4. modulate to IQ samples.
//!
//! The stream stays in packed bytes from CRC to modulation and back. Its
//! framing is a one-byte code-block count and a two-byte length per block,
//! so a transport block needs at most [`MAX_CODE_BLOCKS`] code blocks.
//!
//! The LDPC encode/rate-match stage is replaced by a pass-through: channel
//! errors are modelled at packet granularity by the `channel` crate, so the
//! code here preserves *structure* (segmentation, CRCs, scrambling — all the
//! pieces whose latency and framing matter to the paper) without
//! re-implementing a soft decoder whose behaviour the experiments never
//! observe. DESIGN.md records this substitution.

use serde::{Deserialize, Serialize};

use crate::crc::{CRC24A, CRC24B};
use crate::modulation::{Iq, Modulation};
use crate::scrambling::GoldSequence;

/// Maximum code-block payload (LDPC base graph 1 allows 8448 bits total;
/// we use its byte form minus the CRC24B).
pub const MAX_CODE_BLOCK_BYTES: usize = 8448 / 8 - 3;

/// Most code blocks one transport block can carry: the stream's block
/// count is one byte.
pub const MAX_CODE_BLOCKS: usize = u8::MAX as usize;

/// Errors from transport-block encoding and decoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TransportError {
    /// A code-block CRC24B failed.
    CodeBlockCrc {
        /// Index of the failing code block.
        index: usize,
    },
    /// The transport-block CRC24A failed.
    TransportCrc,
    /// The sample stream didn't contain a whole number of bit groups or
    /// the framing lengths were inconsistent.
    Framing,
    /// The transport block needs more than [`MAX_CODE_BLOCKS`] code blocks.
    TooManyCodeBlocks {
        /// Code blocks the payload would need.
        blocks: usize,
    },
}

impl core::fmt::Display for TransportError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TransportError::CodeBlockCrc { index } => write!(f, "code block {index} CRC failed"),
            TransportError::TransportCrc => write!(f, "transport block CRC failed"),
            TransportError::Framing => write!(f, "malformed sample stream"),
            TransportError::TooManyCodeBlocks { blocks } => {
                write!(f, "transport block needs {blocks} code blocks (max {MAX_CODE_BLOCKS})")
            }
        }
    }
}

impl std::error::Error for TransportError {}

/// Parameters of the shared-channel processing chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShChConfig {
    /// Modulation scheme.
    pub modulation: Modulation,
    /// Scrambling sequence initialiser (RNTI/cell-derived, see
    /// [`crate::scrambling::data_scrambling_c_init`]).
    pub c_init: u32,
}

/// Encodes a transport block into IQ samples.
///
/// Returns the samples and the number of code blocks used (for processing-
/// time models that scale with segmentation), or
/// [`TransportError::TooManyCodeBlocks`] when the block count does not fit
/// the stream's count byte.
pub fn try_encode(config: ShChConfig, payload: &[u8]) -> Result<(Vec<Iq>, usize), TransportError> {
    // 1. The transport block is the payload plus its CRC24A.
    let tb = payload.len() + 3;
    let n_blocks = tb.div_ceil(MAX_CODE_BLOCK_BYTES);
    let count = u8::try_from(n_blocks)
        .map_err(|_| TransportError::TooManyCodeBlocks { blocks: n_blocks })?;
    // 2. Segmentation (+ per-CB CRC only when more than one CB, as in the
    //    spec), each block behind a 2-byte length prefix so the receiver
    //    can re-segment (stands in for the rate-matching metadata carried
    //    in DCI in a real system).
    let mut stream = Vec::with_capacity(stream_bytes(tb, n_blocks));
    stream.push(count);
    if n_blocks == 1 {
        stream.extend_from_slice(&(tb as u16).to_be_bytes());
        stream.extend_from_slice(payload);
        stream.extend_from_slice(&CRC24A.compute(payload).to_be_bytes()[1..]);
    } else {
        for block in CRC24A.attach(payload).chunks(MAX_CODE_BLOCK_BYTES) {
            stream.extend_from_slice(&(block.len() as u16 + 3).to_be_bytes());
            stream.extend_from_slice(block);
            stream.extend_from_slice(&CRC24B.compute(block).to_be_bytes()[1..]);
        }
    }
    // 3. Scramble.
    GoldSequence::new(config.c_init).scramble_in_place(&mut stream);
    // 4. Modulate (the last symbol padded with zero bits).
    Ok((config.modulation.modulate_bytes(&stream), n_blocks))
}

/// [`try_encode`] for callers that carry no error path: a transport block
/// needing more than [`MAX_CODE_BLOCKS`] code blocks encodes to no samples,
/// which [`decode`] rejects as [`TransportError::Framing`].
pub fn encode(config: ShChConfig, payload: &[u8]) -> (Vec<Iq>, usize) {
    try_encode(config, payload).unwrap_or_default()
}

/// Decodes IQ samples back into the transport-block payload. The
/// demodulated stream is trimmed in place: each code block's payload moves
/// down over the framing before it, and the CRCs are truncated away.
pub fn decode(config: ShChConfig, samples: &[Iq]) -> Result<Vec<u8>, TransportError> {
    let mut stream = config.modulation.demodulate_bytes(samples);
    GoldSequence::new(config.c_init).scramble_in_place(&mut stream);
    let n_blocks = usize::from(*stream.first().ok_or(TransportError::Framing)?);
    if n_blocks == 0 {
        return Err(TransportError::Framing);
    }
    // Read cursor over the framed blocks, write cursor for the compacted
    // transport block (never ahead of the read cursor).
    let (mut read, mut tb) = (1, 0);
    for index in 0..n_blocks {
        let len = stream
            .get(read..read + 2)
            .map(|l| usize::from(u16::from_be_bytes([l[0], l[1]])))
            .ok_or(TransportError::Framing)?;
        let block = stream.get(read + 2..read + 2 + len).ok_or(TransportError::Framing)?;
        let kept = if n_blocks == 1 {
            len
        } else {
            CRC24B.check(block).ok_or(TransportError::CodeBlockCrc { index })?.len()
        };
        stream.copy_within(read + 2..read + 2 + kept, tb);
        (read, tb) = (read + 2 + len, tb + kept);
    }
    let payload = CRC24A.check(&stream[..tb]).ok_or(TransportError::TransportCrc)?.len();
    stream.truncate(payload);
    Ok(stream)
}

/// Stream bytes for a transport block of `tb` bytes in `blocks` code
/// blocks: count byte, a length prefix per block, CRC24B per block when
/// segmented.
fn stream_bytes(tb: usize, blocks: usize) -> usize {
    let with_cb_crc = if blocks == 1 { tb } else { tb + 3 * blocks };
    1 + with_cb_crc + 2 * blocks
}

/// Number of IQ samples [`encode`] produces for a payload of `bytes`
/// bytes — used by the radio model to translate transport blocks into bus
/// traffic without materialising the samples.
pub fn sample_count(config: ShChConfig, bytes: usize) -> usize {
    let tb = bytes + 3; // CRC24A
    let blocks = tb.div_ceil(MAX_CODE_BLOCK_BYTES);
    if blocks > MAX_CODE_BLOCKS {
        return 0;
    }
    (stream_bytes(tb, blocks) * 8).div_ceil(config.modulation.bits_per_symbol() as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(m: Modulation) -> ShChConfig {
        ShChConfig { modulation: m, c_init: 0x2_4680 }
    }

    #[test]
    fn roundtrip_small_payload_all_modulations() {
        let payload = b"ping request payload".to_vec();
        for m in Modulation::ALL {
            let (samples, blocks) = encode(cfg(m), &payload);
            assert_eq!(blocks, 1);
            let decoded = decode(cfg(m), &samples).unwrap();
            assert_eq!(decoded, payload, "{m:?}");
        }
    }

    #[test]
    fn roundtrip_empty_payload() {
        let (samples, _) = encode(cfg(Modulation::Qpsk), &[]);
        assert_eq!(decode(cfg(Modulation::Qpsk), &samples).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn large_payload_segments() {
        let payload = vec![0x5Au8; 3 * MAX_CODE_BLOCK_BYTES];
        let (samples, blocks) = encode(cfg(Modulation::Qam64), &payload);
        assert!(blocks >= 3, "expected segmentation, got {blocks} blocks");
        let decoded = decode(cfg(Modulation::Qam64), &samples).unwrap();
        assert_eq!(decoded, payload);
    }

    #[test]
    fn wrong_c_init_fails_crc() {
        let payload = b"scrambled".to_vec();
        let (samples, _) = encode(cfg(Modulation::Qpsk), &payload);
        let bad = ShChConfig { modulation: Modulation::Qpsk, c_init: 0x999 };
        assert!(decode(bad, &samples).is_err());
    }

    #[test]
    fn corrupted_samples_detected() {
        let payload = vec![7u8; 64];
        let (mut samples, _) = encode(cfg(Modulation::Qpsk), &payload);
        // Flip a sample hard enough to cross a decision boundary.
        let mid = samples.len() / 2;
        samples[mid].i = -samples[mid].i;
        samples[mid].q = -samples[mid].q;
        assert!(decode(cfg(Modulation::Qpsk), &samples).is_err());
    }

    #[test]
    fn sample_count_matches_encode() {
        for m in Modulation::ALL {
            for bytes in [0usize, 1, 32, 1000, MAX_CODE_BLOCK_BYTES + 5] {
                let payload = vec![0xABu8; bytes];
                let (samples, _) = encode(cfg(m), &payload);
                assert_eq!(samples.len(), sample_count(cfg(m), bytes), "{m:?} {bytes}B");
            }
        }
    }

    #[test]
    fn block_count_over_255_is_a_typed_error() {
        // 256 full code blocks of payload plus the CRC24A need 257 blocks.
        let payload = vec![0x3Cu8; 256 * MAX_CODE_BLOCK_BYTES];
        let cfg = cfg(Modulation::Qam256);
        assert_eq!(
            try_encode(cfg, &payload),
            Err(TransportError::TooManyCodeBlocks { blocks: 257 })
        );
        // The infallible form must not emit a stream whose count byte has
        // wrapped (257 as u8 = 1): it sends nothing, a framing error.
        let (samples, _) = encode(cfg, &payload);
        assert_eq!(samples.len(), sample_count(cfg, payload.len()));
        assert_eq!(decode(cfg, &samples), Err(TransportError::Framing));
    }

    #[test]
    fn exactly_255_blocks_roundtrip() {
        let payload: Vec<u8> = (0..255 * MAX_CODE_BLOCK_BYTES - 3).map(|i| i as u8).collect();
        let cfg = cfg(Modulation::Qam256);
        let (samples, blocks) = try_encode(cfg, &payload).unwrap();
        assert_eq!(blocks, MAX_CODE_BLOCKS);
        assert_eq!(samples.len(), sample_count(cfg, payload.len()));
        assert_eq!(decode(cfg, &samples).unwrap(), payload);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(decode(cfg(Modulation::Qpsk), &[]), Err(TransportError::Framing));
        let junk = vec![Iq::new(0.7, 0.7); 4];
        assert!(decode(cfg(Modulation::Qpsk), &junk).is_err());
    }
}
