//! zlib container (RFC 1950): 2-byte header, raw DEFLATE body, big-endian
//! Adler-32 trailer.

use crate::checksum::Adler32;
use crate::deflate::DeflateEncoder;
use crate::error::{CodecError, Result};
use crate::inflate::{inflate, Inflater};

/// Compresses `data` into a zlib stream appended to `out`, reusing the
/// caller's [`DeflateEncoder`] state — the allocation-free streaming form
/// of [`zlib_compress`].
pub fn zlib_compress_with(enc: &mut DeflateEncoder, data: &[u8], level: u8, out: &mut Vec<u8>) {
    // CMF: CM=8 (deflate), CINFO=7 (32 KiB window).
    let cmf: u8 = 0x78;
    // FLEVEL advertises the effort tier (decoder-irrelevant, but emitted
    // for fidelity with zlib).
    let flevel: u8 = match level {
        0..=1 => 0,
        2..=5 => 1,
        6 => 2,
        _ => 3,
    };
    let mut flg = flevel << 6;
    // FCHECK makes (CMF<<8 | FLG) a multiple of 31.
    let rem = ((u16::from(cmf) << 8) | u16::from(flg)) % 31;
    if rem != 0 {
        flg += (31 - rem) as u8;
    }
    out.push(cmf);
    out.push(flg);
    enc.deflate(data, level, out);
    out.extend_from_slice(&Adler32::oneshot(data).to_be_bytes());
}

/// Compresses `data` into a zlib stream at the given deflate level (0–9).
pub fn zlib_compress(data: &[u8], level: u8) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 32);
    zlib_compress_with(&mut DeflateEncoder::new(), data, level, &mut out);
    out
}

/// Checks a zlib stream's header; returns its DEFLATE body and the
/// Adler-32 its trailer declares.
fn open(stream: &[u8]) -> Result<(&[u8], u32)> {
    if stream.len() < 6 {
        return Err(CodecError::UnexpectedEof);
    }
    let cmf = stream[0];
    let flg = stream[1];
    if cmf & 0x0F != 8 {
        return Err(CodecError::BadContainer(
            "zlib: compression method is not deflate",
        ));
    }
    if (cmf >> 4) > 7 {
        return Err(CodecError::BadContainer("zlib: window size exceeds 32 KiB"));
    }
    if ((u16::from(cmf) << 8) | u16::from(flg)) % 31 != 0 {
        return Err(CodecError::BadContainer("zlib: FCHECK failed"));
    }
    if flg & 0x20 != 0 {
        return Err(CodecError::BadContainer(
            "zlib: preset dictionaries unsupported",
        ));
    }
    let (body, trailer) = stream[2..].split_at(stream.len() - 6);
    let trailer = trailer.try_into().expect("4-byte trailer");
    Ok((body, u32::from_be_bytes(trailer)))
}

fn check(expected: u32, decoded: &[u8]) -> Result<()> {
    let actual = Adler32::oneshot(decoded);
    if expected != actual {
        return Err(CodecError::ChecksumMismatch { expected, actual });
    }
    Ok(())
}

/// Decompresses a zlib stream into `out`, which is all the room there is,
/// reusing the caller's [`Inflater`] tables; returns the bytes decoded.
/// The header and Adler-32 trailer are verified.
pub fn zlib_decompress_with(dec: &mut Inflater, stream: &[u8], out: &mut [u8]) -> Result<usize> {
    let (body, adler) = open(stream)?;
    let produced = dec.inflate_into(body, out)?;
    check(adler, &out[..produced])?;
    Ok(produced)
}

/// Decompresses a zlib stream, appending the decoded bytes to `out` —
/// no intermediate vector. `max_out` caps the decoded size; the header
/// and Adler-32 trailer are verified.
pub fn zlib_decompress_into(stream: &[u8], max_out: usize, out: &mut Vec<u8>) -> Result<()> {
    let (body, adler) = open(stream)?;
    let before = out.len();
    inflate(body, out, max_out)?;
    check(adler, &out[before..])
}

/// Decompresses a zlib stream, verifying header and Adler-32 trailer.
/// `max_out` caps the decoded size.
pub fn zlib_decompress(stream: &[u8], max_out: usize) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    zlib_decompress_into(stream, max_out, &mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_levels() {
        let data = b"zlib container roundtrip test data, repeated a bit. ".repeat(40);
        for level in 0..=9 {
            let z = zlib_compress(&data, level);
            let out = zlib_decompress(&z, data.len()).unwrap();
            assert_eq!(out, data, "level {level}");
        }
    }

    #[test]
    fn header_check_bits_valid() {
        for level in 0..=9 {
            let z = zlib_compress(b"x", level);
            assert_eq!(
                ((u16::from(z[0]) << 8) | u16::from(z[1])) % 31,
                0,
                "level {level}"
            );
            assert_eq!(z[0], 0x78);
        }
    }

    #[test]
    fn decodes_python_zlib_stream() {
        // python3: zlib.compress(b'hello world', 6)
        let stream = [
            0x78, 0x9c, 0xcb, 0x48, 0xcd, 0xc9, 0xc9, 0x57, 0x28, 0xcf, 0x2f, 0xca, 0x49, 0x01,
            0x00, 0x1a, 0x0b, 0x04, 0x5d,
        ];
        assert_eq!(zlib_decompress(&stream, 64).unwrap(), b"hello world");
    }

    #[test]
    fn corrupted_checksum_detected() {
        let mut z = zlib_compress(b"payload payload payload", 6);
        let n = z.len();
        z[n - 1] ^= 0xFF;
        assert!(matches!(
            zlib_decompress(&z, 1024),
            Err(CodecError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn bad_method_rejected() {
        let mut z = zlib_compress(b"x", 6);
        z[0] = 0x79; // CM = 9

        // Fix FCHECK so we specifically hit the method test.
        let rem = ((u16::from(z[0]) << 8) | u16::from(z[1] & 0xE0)) % 31;
        z[1] = (z[1] & 0xE0) + if rem == 0 { 0 } else { (31 - rem) as u8 };
        assert!(matches!(
            zlib_decompress(&z, 16),
            Err(CodecError::BadContainer(_))
        ));
    }

    #[test]
    fn truncated_stream_rejected() {
        let z = zlib_compress(b"some data worth compressing some data", 6);
        assert!(zlib_decompress(&z[..5], 64).is_err());
        assert!(zlib_decompress(&[], 64).is_err());
    }
}
