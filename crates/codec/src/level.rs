//! The AdOC compression-level ladder (paper §2, end):
//!
//! * level **0** — no compression;
//! * level **1** — LZF (very fast, ratio < 2);
//! * levels **2..=10** — gzip/DEFLATE levels 1..=9.
//!
//! Every level is a strictly-costlier, usually-tighter codec than the one
//! below it, which is the monotonicity the adaptation algorithm relies on.

use crate::deflate::DeflateEncoder;
use crate::error::{CodecError, Result};
use crate::inflate::Inflater;
use crate::{lzf, zlib};

/// Lowest level: no compression.
pub const ADOC_MIN_LEVEL: u8 = 0;
/// Highest level: DEFLATE level 9.
pub const ADOC_MAX_LEVEL: u8 = 10;

/// The codec behind an AdOC level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// Bytes pass through untouched.
    Store,
    /// LZF.
    Lzf,
    /// zlib-wrapped DEFLATE at the contained level (1..=9). The container
    /// costs 6 bytes per buffer and buys an Adler-32 integrity check —
    /// exactly what the original AdOC got from linking zlib.
    Deflate(u8),
}

/// Maps an AdOC level (0..=10) to its codec.
pub fn algo_for_level(level: u8) -> Algo {
    match level {
        0 => Algo::Store,
        1 => Algo::Lzf,
        2..=10 => Algo::Deflate(level - 1),
        _ => panic!("AdOC level must be 0..=10, got {level}"),
    }
}

/// Reusable per-connection codec state: the DEFLATE dictionary, token
/// staging and per-block tables of the encoder and the decoder's tables
/// persist across buffers, so the steady-state compression and
/// decompression of a long transfer allocate nothing (the paper's C
/// library got this for free from zlib's `deflateReset`).
#[derive(Default)]
pub struct Codec {
    deflate: DeflateEncoder,
    inflate: Inflater,
}

impl Codec {
    /// Creates codec state; heavy tables are built lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Compresses `input` at an AdOC level, appending to `out`, reusing
    /// this codec's encoder state.
    pub fn compress_at(&mut self, level: u8, input: &[u8], out: &mut Vec<u8>) {
        match algo_for_level(level) {
            Algo::Store => out.extend_from_slice(input),
            Algo::Lzf => lzf::compress(input, out),
            Algo::Deflate(l) => zlib::zlib_compress_with(&mut self.deflate, input, l, out),
        }
    }

    /// Positions the encoder's dictionary has storage for: 0 until the
    /// first DEFLATE buffer, then the longest buffer compressed so far —
    /// what a reused codec does not build again.
    pub fn dictionary_len(&self) -> usize {
        self.deflate.dictionary_len()
    }

    /// Decompresses a payload produced by [`compress_at`](Self::compress_at)
    /// at the same level into `out`, whose length is the exact decoded size
    /// (AdOC frames carry it), reusing this codec's decoder state.
    pub fn decompress_into(&mut self, level: u8, input: &[u8], out: &mut [u8]) -> Result<()> {
        let produced = match algo_for_level(level) {
            Algo::Store => {
                if input.len() != out.len() {
                    return Err(CodecError::Corrupt("stored payload length mismatch"));
                }
                out.copy_from_slice(input);
                out.len()
            }
            Algo::Lzf => lzf::decompress_into(input, out)?,
            Algo::Deflate(_) => zlib::zlib_decompress_with(&mut self.inflate, input, out)?,
        };
        if produced != out.len() {
            return Err(CodecError::Corrupt(
                "decoded size differs from frame raw_len",
            ));
        }
        Ok(())
    }

    /// [`decompress_into`](Self::decompress_into), appending the `raw_len`
    /// decoded bytes to `out` (nothing on error).
    pub fn decompress_at(
        &mut self,
        level: u8,
        input: &[u8],
        raw_len: usize,
        out: &mut Vec<u8>,
    ) -> Result<()> {
        let before = out.len();
        out.resize(before + raw_len, 0);
        let verdict = self.decompress_into(level, input, &mut out[before..]);
        if verdict.is_err() {
            out.truncate(before);
        }
        verdict
    }
}

/// Compresses `input` at an AdOC level, appending to `out`.
///
/// One-shot convenience over [`Codec::compress_at`]: allocates fresh
/// encoder state per call. Streaming callers should hold a [`Codec`].
pub fn compress_at(level: u8, input: &[u8], out: &mut Vec<u8>) {
    Codec::new().compress_at(level, input, out);
}

/// Decompresses a payload produced by [`compress_at`] at the same level.
/// `raw_len` is the exact expected decoded size (AdOC frames carry it).
/// Decoded bytes are appended to `out` directly — no intermediate vector.
///
/// One-shot convenience over [`Codec::decompress_at`]: builds fresh
/// decoder tables per call. Streaming callers should hold a [`Codec`].
pub fn decompress_at(level: u8, input: &[u8], raw_len: usize, out: &mut Vec<u8>) -> Result<()> {
    Codec::new().decompress_at(level, input, raw_len, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut v = b"adaptive online compression level ladder ".repeat(300);
        v.extend((0..4096u32).map(|i| (i.wrapping_mul(2654435761) >> 13) as u8));
        v
    }

    #[test]
    fn every_level_roundtrips() {
        let data = sample();
        for level in ADOC_MIN_LEVEL..=ADOC_MAX_LEVEL {
            let mut comp = Vec::new();
            compress_at(level, &data, &mut comp);
            let mut out = Vec::new();
            decompress_at(level, &comp, data.len(), &mut out).unwrap();
            assert_eq!(out, data, "level {level}");
        }
    }

    #[test]
    fn level_zero_is_identity() {
        let data = sample();
        let mut comp = Vec::new();
        compress_at(0, &data, &mut comp);
        assert_eq!(comp, data);
    }

    #[test]
    fn ladder_is_monotone_in_ratio_on_text() {
        // The paper's premise: higher level ⇒ same or better ratio on
        // compressible data (allowing tiny noise between adjacent gzip
        // levels, the trend must hold across the ladder).
        let data = b"In this article, we present the AdOC library. It is a user-level set of functions that enables data transmission with compression. ".repeat(200);
        let size = |lvl: u8| {
            let mut c = Vec::new();
            compress_at(lvl, &data, &mut c);
            c.len()
        };
        let lzf = size(1);
        let gz1 = size(2);
        let gz6 = size(7);
        let gz9 = size(10);
        assert!(lzf < data.len(), "lzf must compress text");
        assert!(gz1 < lzf, "gzip-1 must beat lzf on ratio");
        assert!(gz6 <= gz1);
        assert!(gz9 <= gz6 + gz6 / 100);
    }

    #[test]
    fn wrong_level_decode_fails_or_differs() {
        let data = sample();
        let mut comp = Vec::new();
        compress_at(5, &data, &mut comp);
        let mut out = Vec::new();
        // Decoding deflate bytes as LZF must error or produce different data.
        if let Ok(()) = decompress_at(1, &comp, data.len(), &mut out) {
            assert_ne!(out, data);
        }
    }

    #[test]
    fn raw_len_mismatch_detected() {
        let data = sample();
        let mut comp = Vec::new();
        compress_at(6, &data, &mut comp);
        let mut out = Vec::new();
        assert!(decompress_at(6, &comp, data.len() - 1, &mut out).is_err());
    }

    #[test]
    #[should_panic(expected = "AdOC level")]
    fn out_of_range_level_panics() {
        compress_at(11, b"x", &mut Vec::new());
    }

    #[test]
    fn reused_codec_is_byte_identical_to_one_shot() {
        let mut codec = Codec::new();
        let data = sample();
        for round in 0..3 {
            for level in ADOC_MIN_LEVEL..=ADOC_MAX_LEVEL {
                let mut reused = Vec::new();
                codec.compress_at(level, &data, &mut reused);
                let mut fresh = Vec::new();
                compress_at(level, &data, &mut fresh);
                assert_eq!(reused, fresh, "round {round} level {level}");
                let mut out = Vec::new();
                decompress_at(level, &reused, data.len(), &mut out).unwrap();
                assert_eq!(out, data);
            }
        }
    }
}
