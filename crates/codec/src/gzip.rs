//! gzip container (RFC 1952): the format the paper's Table 1 benchmarks
//! with `gzip 1` … `gzip 9`.

use crate::checksum::Crc32;
use crate::error::{CodecError, Result};
use crate::inflate::inflate;

const MAGIC: [u8; 2] = [0x1f, 0x8b];
const CM_DEFLATE: u8 = 8;
const OS_UNKNOWN: u8 = 255;

// FLG bits.
const FTEXT: u8 = 0x01;
const FHCRC: u8 = 0x02;
const FEXTRA: u8 = 0x04;
const FNAME: u8 = 0x08;
const FCOMMENT: u8 = 0x10;

/// Compresses `data` into a gzip member appended to `out`, reusing the
/// caller's [`crate::DeflateEncoder`] state — the allocation-free streaming form
/// of [`gzip_compress`].
pub fn gzip_compress_with(
    enc: &mut crate::deflate::DeflateEncoder,
    data: &[u8],
    level: u8,
    out: &mut Vec<u8>,
) {
    out.extend_from_slice(&MAGIC);
    out.push(CM_DEFLATE);
    out.push(0); // FLG: no name/comment/extra
    out.extend_from_slice(&0u32.to_le_bytes()); // MTIME unknown

    // XFL: 2 = max compression, 4 = fastest (RFC 1952).
    out.push(match level {
        9 => 2,
        1 => 4,
        _ => 0,
    });
    out.push(OS_UNKNOWN);
    enc.deflate(data, level, out);
    out.extend_from_slice(&Crc32::oneshot(data).to_le_bytes());
    out.extend_from_slice(&(data.len() as u32).to_le_bytes());
}

/// Compresses `data` into a gzip member at the given deflate level (0–9).
pub fn gzip_compress(data: &[u8], level: u8) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 32);
    gzip_compress_with(
        &mut crate::deflate::DeflateEncoder::new(),
        data,
        level,
        &mut out,
    );
    out
}

/// Decompresses a single gzip member, verifying CRC-32 and ISIZE.
/// `max_out` caps the decoded size.
pub fn gzip_decompress(stream: &[u8], max_out: usize) -> Result<Vec<u8>> {
    if stream.len() < 18 {
        return Err(CodecError::UnexpectedEof);
    }
    if stream[0..2] != MAGIC {
        return Err(CodecError::BadContainer("gzip: bad magic"));
    }
    if stream[2] != CM_DEFLATE {
        return Err(CodecError::BadContainer(
            "gzip: compression method is not deflate",
        ));
    }
    let flg = stream[3];
    let mut pos = 10usize;

    if flg & FEXTRA != 0 {
        if stream.len() < pos + 2 {
            return Err(CodecError::UnexpectedEof);
        }
        let xlen = u16::from_le_bytes([stream[pos], stream[pos + 1]]) as usize;
        pos += 2 + xlen;
    }
    for flag in [FNAME, FCOMMENT] {
        if flg & flag != 0 {
            let end = stream[pos..]
                .iter()
                .position(|&b| b == 0)
                .ok_or(CodecError::UnexpectedEof)?;
            pos += end + 1;
        }
    }
    if flg & FHCRC != 0 {
        pos += 2;
    }
    let _ = flg & FTEXT; // advisory only
    if pos + 8 > stream.len() {
        return Err(CodecError::UnexpectedEof);
    }

    let body = &stream[pos..stream.len() - 8];
    let mut out = Vec::new();
    inflate(body, &mut out, max_out)?;

    let tail = &stream[stream.len() - 8..];
    let expected_crc = u32::from_le_bytes([tail[0], tail[1], tail[2], tail[3]]);
    let actual_crc = Crc32::oneshot(&out);
    if expected_crc != actual_crc {
        return Err(CodecError::ChecksumMismatch {
            expected: expected_crc,
            actual: actual_crc,
        });
    }
    let expected_isize = u32::from_le_bytes([tail[4], tail[5], tail[6], tail[7]]);
    if expected_isize != out.len() as u32 {
        return Err(CodecError::BadContainer("gzip: ISIZE mismatch"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_levels() {
        let data = b"gzip container roundtrip, compressible text text text. ".repeat(64);
        for level in 0..=9 {
            let g = gzip_compress(&data, level);
            assert_eq!(
                gzip_decompress(&g, data.len()).unwrap(),
                data,
                "level {level}"
            );
        }
    }

    #[test]
    fn decodes_python_gzip_stream() {
        // python3: gzip.compress(b'hello world') — MTIME varies, zeroed here
        // is fine because we skip it.
        let stream = [
            0x1f, 0x8b, 0x08, 0x00, 0x87, 0x4b, 0x2a, 0x6a, 0x00, 0xff, 0xcb, 0x48, 0xcd, 0xc9,
            0xc9, 0x57, 0x28, 0xcf, 0x2f, 0xca, 0x49, 0x01, 0x00, 0x85, 0x11, 0x4a, 0x0d, 0x0b,
            0x00, 0x00, 0x00,
        ];
        assert_eq!(gzip_decompress(&stream, 64).unwrap(), b"hello world");
    }

    #[test]
    fn crc_corruption_detected() {
        let mut g = gzip_compress(b"check me check me check me", 6);
        let n = g.len();
        g[n - 6] ^= 0x01; // flip a CRC byte
        assert!(matches!(
            gzip_decompress(&g, 1024),
            Err(CodecError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn isize_mismatch_detected() {
        let mut g = gzip_compress(b"isize check payload", 6);
        let n = g.len();
        g[n - 1] ^= 0x01; // flip an ISIZE byte
        assert!(gzip_decompress(&g, 1024).is_err());
    }

    #[test]
    fn skips_fname_field() {
        // Hand-build a member with FNAME, body "hi" stored.
        let mut g = Vec::new();
        g.extend_from_slice(&MAGIC);
        g.push(CM_DEFLATE);
        g.push(FNAME);
        g.extend_from_slice(&[0; 4]); // mtime
        g.push(0);
        g.push(OS_UNKNOWN);
        g.extend_from_slice(b"file.txt\0");
        crate::deflate::deflate(b"hi", 1, &mut g);
        g.extend_from_slice(&Crc32::oneshot(b"hi").to_le_bytes());
        g.extend_from_slice(&2u32.to_le_bytes());
        assert_eq!(gzip_decompress(&g, 16).unwrap(), b"hi");
    }

    #[test]
    fn bad_magic_rejected() {
        let mut g = gzip_compress(b"x", 1);
        g[0] = 0x1e;
        assert!(matches!(
            gzip_decompress(&g, 16),
            Err(CodecError::BadContainer(_))
        ));
    }

    #[test]
    fn empty_payload_roundtrips() {
        let g = gzip_compress(b"", 6);
        assert_eq!(gzip_decompress(&g, 16).unwrap(), b"");
    }
}
