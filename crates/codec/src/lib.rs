//! # adoc-codec — the compression substrate of the AdOC reproduction
//!
//! Everything AdOC compresses with, implemented from scratch:
//!
//! * [`lzf`] — the very fast/low-ratio codec used as compression level 1
//!   (liblzf-compatible format);
//! * [`deflate`] / [`inflate`] — a full RFC 1951 DEFLATE implementation
//!   with zlib's level-1..9 effort ladder, at reference-zlib speed
//!   (`cargo run --release -p adoc-codec --example yardstick` measures it
//!   against the host's zlib) in safe Rust;
//! * [`zlib`] / [`gzip`] — RFC 1950/1952 containers (what the paper's
//!   Table 1 measures as "gzip N");
//! * [`checksum`] — Adler-32 and CRC-32;
//! * [`level`] — the AdOC level ladder: 0 = none, 1 = LZF,
//!   2..=10 = DEFLATE 1..=9.
//!
//! The crate is `no_std`-adjacent in spirit (no I/O, no threads): it turns
//! byte slices into byte vectors and back, deterministically.
//!
//! ## Quick example
//!
//! ```
//! let data = b"example example example example".repeat(10);
//! let mut compressed = Vec::new();
//! adoc_codec::level::compress_at(6, &data, &mut compressed); // gzip level 5
//! assert!(compressed.len() < data.len());
//!
//! let mut restored = Vec::new();
//! adoc_codec::level::decompress_at(6, &compressed, data.len(), &mut restored).unwrap();
//! assert_eq!(restored, data);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
pub mod bitio;
pub mod checksum;
pub mod deflate;
pub mod error;
pub mod gzip;
pub mod huffman;
pub mod inflate;
pub mod level;
pub mod lz77;
pub mod lzf;
pub mod tables;
pub mod zlib;

pub use deflate::DeflateEncoder;
pub use error::{CodecError, Result};
pub use level::{compress_at, decompress_at, Algo, Codec, ADOC_MAX_LEVEL, ADOC_MIN_LEVEL};
pub use lz77::Lz77Encoder;

#[cfg(test)]
mod fixtures {
    /// `(level, raw_len, payload)` of every frame in a v1 wire capture:
    /// a 10-byte message header, a length-prefixed probe, then frames
    /// under 9-byte headers.
    pub(crate) fn v1_frames(capture: &[u8]) -> Vec<(u8, usize, &[u8])> {
        let word = |at: usize| u32::from_le_bytes(capture[at..at + 4].try_into().unwrap()) as usize;
        let mut at = 10 + 4 + word(10);
        let mut frames = Vec::new();
        while at < capture.len() {
            let (level, raw_len, len) = (capture[at], word(at + 1), word(at + 5));
            frames.push((level, raw_len, &capture[at + 9..at + 9 + len]));
            at += 9 + len;
        }
        frames
    }
}
