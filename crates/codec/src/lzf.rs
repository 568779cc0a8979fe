//! LZF: the very fast, low-ratio compressor AdOC uses as its first
//! compression level (paper §5, "Fast Networks").
//!
//! The format is wire-compatible with Marc Lehmann's liblzf:
//!
//! * control byte `0..=31`: literal run of `ctrl + 1` bytes follows;
//! * control byte `>= 32`: back-reference; the top 3 bits hold
//!   `len - 2` (7 = escape to an extra length byte), the low 5 bits are the
//!   high bits of `offset = distance - 1`, and the next byte supplies the
//!   low 8 offset bits. Distances reach 8192, lengths reach 264.

use crate::error::{CodecError, Result};

const MIN_MATCH: usize = 3;
const MAX_MATCH: usize = 2 + 7 + 255; // 264
const MAX_OFF: usize = 1 << 13; // distance - 1 < 8192
const MAX_LIT: usize = 32;

/// Hash table size; liblzf defaults to 2^16 entries in "fast" mode.
const HLOG: u32 = 16;
const HSIZE: usize = 1 << HLOG;

#[inline]
fn first3(data: &[u8], i: usize) -> u32 {
    (u32::from(data[i]) << 16) | (u32::from(data[i + 1]) << 8) | u32::from(data[i + 2])
}

#[inline]
fn hash(v: u32) -> usize {
    // liblzf's FRST/NEXT/IDX scheme boiled down: multiplicative hash of the
    // 3-byte group.
    ((v.wrapping_mul(0x9E37_79B1)) >> (32 - HLOG)) as usize & (HSIZE - 1)
}

/// Compresses `input`, appending to `out`. Always succeeds; worst-case
/// expansion is 1 control byte per 32 literals (~3.1%).
pub fn compress(input: &[u8], out: &mut Vec<u8>) {
    out.reserve(input.len() + input.len() / 32 + 4);
    let n = input.len();
    if n < MIN_MATCH {
        emit_literals(input, out);
        return;
    }

    let mut table = vec![0u32; HSIZE]; // stores position + 1; 0 = empty
    let mut lit_start = 0usize;
    let mut i = 0usize;

    while i + MIN_MATCH <= n {
        let h = hash(first3(input, i));
        let candidate = table[h] as usize;
        table[h] = (i + 1) as u32;

        if candidate > 0 {
            let cand = candidate - 1;
            let dist = i - cand;
            if dist > 0
                && dist <= MAX_OFF
                && input[cand] == input[i]
                && input[cand + 1] == input[i + 1]
                && input[cand + 2] == input[i + 2]
            {
                // Extend the match.
                let mut len = MIN_MATCH;
                let limit = (n - i).min(MAX_MATCH);
                while len < limit && input[cand + len] == input[i + len] {
                    len += 1;
                }

                emit_literals(&input[lit_start..i], out);

                let off = dist - 1;
                let l = len - 2;
                if l < 7 {
                    out.push(((l as u8) << 5) | (off >> 8) as u8);
                } else {
                    out.push((7 << 5) | (off >> 8) as u8);
                    out.push((l - 7) as u8);
                }
                out.push((off & 0xff) as u8);

                // Index the positions we skip so later matches can land
                // inside this one.
                let end = i + len;
                i += 1;
                while i < end && i + MIN_MATCH <= n {
                    let h = hash(first3(input, i));
                    table[h] = (i + 1) as u32;
                    i += 1;
                }
                i = end;
                lit_start = i;
                continue;
            }
        }
        i += 1;
    }

    emit_literals(&input[lit_start..], out);
}

fn emit_literals(lits: &[u8], out: &mut Vec<u8>) {
    for run in lits.chunks(MAX_LIT) {
        out.push((run.len() - 1) as u8);
        out.extend_from_slice(run);
    }
}

/// Decompresses an LZF stream produced by [`compress`] (or liblzf),
/// appending to `out`. `max_out` bounds the decoded size to protect against
/// corrupt streams; nothing is appended on error.
pub fn decompress(input: &[u8], out: &mut Vec<u8>, max_out: usize) -> Result<()> {
    let base = out.len();
    out.resize(base + max_out, 0);
    let decoded = decompress_into(input, &mut out[base..]);
    out.truncate(base + decoded.as_ref().map_or(0, |&n| n));
    decoded.map(drop)
}

/// Decompresses an LZF stream into `out`, which bounds the decoded size;
/// returns the bytes decoded.
pub fn decompress_into(input: &[u8], out: &mut [u8]) -> Result<usize> {
    let limit = out.len();
    let (mut i, mut o) = (0usize, 0usize);
    while i < input.len() {
        let ctrl = input[i] as usize;
        i += 1;
        if ctrl < 32 {
            let run = ctrl + 1;
            if i + run > input.len() {
                return Err(CodecError::UnexpectedEof);
            }
            if o + run > limit {
                return Err(CodecError::OutputLimitExceeded { limit });
            }
            out[o..o + run].copy_from_slice(&input[i..i + run]);
            (i, o) = (i + run, o + run);
        } else {
            let mut len = ctrl >> 5;
            let mut off = (ctrl & 0x1f) << 8;
            if len == 7 {
                if i >= input.len() {
                    return Err(CodecError::UnexpectedEof);
                }
                len += input[i] as usize;
                i += 1;
            }
            len += 2;
            if i >= input.len() {
                return Err(CodecError::UnexpectedEof);
            }
            off |= input[i] as usize;
            i += 1;
            let dist = off + 1;
            if dist > o {
                return Err(CodecError::BadDistance { dist, have: o });
            }
            if o + len > limit {
                return Err(CodecError::OutputLimitExceeded { limit });
            }
            let start = o - dist;
            if dist >= len {
                out.copy_within(start..start + len, o);
            } else {
                // Overlapping copy: each byte may be one this copy wrote.
                for k in 0..len {
                    out[o + k] = out[start + k];
                }
            }
            o += len;
        }
    }
    Ok(o)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Codec;

    fn roundtrip(data: &[u8]) -> Vec<u8> {
        let mut comp = Vec::new();
        compress(data, &mut comp);
        let mut dec = Vec::new();
        decompress(&comp, &mut dec, data.len()).unwrap();
        assert_eq!(dec, data, "roundtrip mismatch");
        comp
    }

    #[test]
    fn empty_and_tiny_inputs() {
        assert!(roundtrip(b"").is_empty());
        roundtrip(b"a");
        roundtrip(b"ab");
        roundtrip(b"abc");
    }

    #[test]
    fn repetitive_input_compresses() {
        let data = b"abcabcabcabcabcabcabcabcabcabcabcabc".repeat(100);
        let comp = roundtrip(&data);
        assert!(
            comp.len() < data.len() / 4,
            "{} vs {}",
            comp.len(),
            data.len()
        );
    }

    #[test]
    fn long_zero_run_uses_extended_lengths() {
        let data = vec![0u8; 10_000];
        let comp = roundtrip(&data);
        // 10000 bytes of zeros: first literals, then max-length matches
        // (264 each) → well under 200 bytes.
        assert!(comp.len() < 200, "got {}", comp.len());
    }

    #[test]
    fn worst_case_expansion_is_bounded() {
        // Pseudo-random bytes: no matches, pure literal runs.
        let mut state = 0x12345678u32;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                (state >> 24) as u8
            })
            .collect();
        let mut comp = Vec::new();
        compress(&data, &mut comp);
        assert!(comp.len() <= data.len() + data.len() / 32 + 2);
        let mut dec = Vec::new();
        decompress(&comp, &mut dec, data.len()).unwrap();
        assert_eq!(dec, data);
    }

    #[test]
    fn overlapping_copy_rle_style() {
        // "aaaa..." forces dist=1 overlapping copies.
        let data = vec![b'a'; 1000];
        roundtrip(&data);
    }

    #[test]
    fn matches_at_max_distance() {
        let mut data = vec![0u8; MAX_OFF + 64];
        for (i, b) in data.iter_mut().enumerate() {
            *b = (i % 251) as u8;
        }
        // Plant an exact repeat at distance MAX_OFF.
        let pattern = b"XYZQWERTY123".to_vec();
        data[..pattern.len()].copy_from_slice(&pattern);
        data[MAX_OFF..MAX_OFF + pattern.len()].copy_from_slice(&pattern);
        roundtrip(&data);
    }

    #[test]
    fn truncated_stream_errors() {
        let data = b"hello hello hello hello hello".repeat(10);
        let mut comp = Vec::new();
        compress(&data, &mut comp);
        for cut in [1, comp.len() / 2, comp.len() - 1] {
            let mut out = Vec::new();
            assert!(
                decompress(&comp[..cut], &mut out, data.len()).is_err() || out.len() < data.len(),
                "cut {cut} silently produced full output"
            );
        }
    }

    #[test]
    fn bad_distance_rejected() {
        // Back-reference with distance 1 before any output.
        let stream = [0b0010_0000u8, 0x00]; // len=2+1? ctrl=0x20: len=(1)+2=3, off=0 → dist 1
        let mut out = Vec::new();
        let err = decompress(&stream, &mut out, 100).unwrap_err();
        assert!(matches!(err, CodecError::BadDistance { .. }));
    }

    #[test]
    fn output_limit_enforced() {
        let data = vec![7u8; 4096];
        let mut comp = Vec::new();
        compress(&data, &mut comp);
        let mut out = Vec::new();
        let err = decompress(&comp, &mut out, 100).unwrap_err();
        assert!(matches!(err, CodecError::OutputLimitExceeded { .. }));
    }

    /// The receiver's level-1 call on `damaged`: never a panic, never
    /// more than `raw_len` bytes, a typed error exactly when the decoder
    /// underneath fails or comes up short.
    fn assert_total(codec: &mut Codec, damaged: &[u8], raw_len: usize, what: &str) {
        let mut out = vec![0u8; raw_len];
        let verdict = codec.decompress_into(1, damaged, &mut out);
        let mut grown = b"kept".to_vec();
        let inner = decompress(damaged, &mut grown, raw_len);
        assert!(
            grown.len() <= 4 + raw_len && grown.starts_with(b"kept"),
            "{what}: {} bytes decoded",
            grown.len() - 4
        );
        match verdict {
            Ok(()) => assert!(inner.is_ok() && grown[4..] == out[..], "{what}"),
            Err(e) => assert!(
                matches!(
                    e,
                    CodecError::UnexpectedEof
                        | CodecError::BadDistance { .. }
                        | CodecError::OutputLimitExceeded { .. }
                        | CodecError::Corrupt("decoded size differs from frame raw_len")
                ) && (inner.is_err() || grown.len() < 4 + raw_len),
                "{what}: {e:?}"
            ),
        }
    }

    #[test]
    fn decoder_is_total_on_damaged_fixture_frames() {
        // Every truncation and every single-byte mutation of every LZF
        // frame the v1 capture carries (`stride` thins both out in
        // unoptimized builds).
        let capture = include_bytes!("../../../tests/fixtures/v1_pinned_l1.bin");
        let frames = crate::fixtures::v1_frames(capture);
        assert!(frames.len() >= 2);
        let stride = if cfg!(debug_assertions) { 17 } else { 1 };
        let mut codec = Codec::new();
        for (k, &(level, raw_len, payload)) in frames.iter().enumerate() {
            assert_eq!(level, 1, "frame {k}: an LZF frame");
            let mut intact = vec![0u8; raw_len];
            codec.decompress_into(1, payload, &mut intact).unwrap();
            let mut bad = payload.to_vec();
            for at in (0..payload.len()).step_by(stride) {
                assert_total(
                    &mut codec,
                    &payload[..at],
                    raw_len,
                    &format!("frame {k} cut at {at}"),
                );
                let flip = [0x01u8, 0x10, 0xFF][at % 3];
                bad[at] ^= flip;
                assert_total(
                    &mut codec,
                    &bad,
                    raw_len,
                    &format!("frame {k} mutated at {at}"),
                );
                bad[at] ^= flip;
            }
        }
    }

    #[test]
    fn decompress_appends_after_existing_output() {
        let mut out = b"prefix-".to_vec();
        let data = b"payload payload payload".to_vec();
        let mut comp = Vec::new();
        compress(&data, &mut comp);
        decompress(&comp, &mut out, data.len()).unwrap();
        assert_eq!(&out[..7], b"prefix-");
        assert_eq!(&out[7..], &data[..]);
    }
}
