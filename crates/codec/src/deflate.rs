//! DEFLATE encoder (RFC 1951): turns LZ77 tokens into stored, fixed-Huffman
//! or dynamic-Huffman blocks, choosing whichever is smallest by exact bit
//! cost.
//!
//! The tokenizer's sink counts symbol frequencies as it stages tokens, and
//! a block is written from packed per-block tables — a literal is one
//! table word, a match two (length code merged with its extra bits,
//! distance code merged with its) — so the entropy stage costs a few
//! nanoseconds per token and allocates nothing once the encoder is warm.

use crate::bitio::BitWriter;
use crate::huffman::{pack_bits, pack_codes, put_packed, PackageMerge};
use crate::lz77::{Lz77Encoder, MatchParams};
use crate::tables::*;
use std::sync::OnceLock;

/// Maximum tokens per block: bounds the frequency-table skew on big inputs
/// and the memory held between header and body emission.
const TOKENS_PER_BLOCK: usize = 64 * 1024;

/// Maximum payload of one stored block (16-bit LEN field).
const STORED_MAX: usize = 65_535;

/// Longest RLE form of a dynamic header's code-length sequence.
const MAX_CLEN_OPS: usize = NUM_LITLEN + NUM_DIST;

/// Staged-token layout: a [`crate::lz77::Token`]'s bits, with a match's distance code
/// (known since it was counted) in the five bits the token leaves free.
const STAGED_MATCH: u32 = 0x8000_0000;
const STAGED_DIST_CODE_SHIFT: u32 = 24;

/// Reusable DEFLATE compressor state: the LZ77 dictionary, the token
/// staging buffer and every per-block table persist across calls, so
/// compressing a stream of buffers (the AdOC hot path) allocates nothing
/// after warm-up.
#[derive(Default)]
pub struct DeflateEncoder {
    lz: Lz77Encoder,
    /// Staged tokens of the pending block.
    tokens: Vec<u32>,
    block: Block,
}

/// Symbol frequencies of the pending block, counted as tokens are staged.
struct Freqs {
    litlen: [u32; NUM_LITLEN],
    dist: [u32; NUM_DIST],
}

/// What a block is written from: one [`pack_bits`] word per literal and
/// per match length (code and extra bits merged), and per distance code.
struct Codes {
    /// By literal/length symbol (the fixed tree codes 288).
    lit: [u32; 288],
    /// By match length − 3: the length symbol's code with the extra bits.
    len: [u32; 256],
    /// By distance code (two spare slots keep a 5-bit index in bounds).
    dist: [u32; 32],
}

impl Codes {
    const NONE: Codes = Codes {
        lit: [0; 288],
        len: [0; 256],
        dist: [0; 32],
    };

    fn set(&mut self, lit_lengths: &[u8], dist_lengths: &[u8]) {
        pack_codes(lit_lengths, &mut self.lit);
        pack_codes(dist_lengths, &mut self.dist);
        for (l, slot) in self.len.iter_mut().enumerate() {
            let (idx, extra, val) = length_to_code(l + 3);
            let sym = self.lit[257 + idx];
            let (code, n) = (sym >> 5, sym & 31);
            *slot = pack_bits(code | u32::from(val) << n, n + u32::from(extra));
        }
    }
}

/// Everything about the pending block except its tokens: frequencies, the
/// dynamic plan's scratch and the packed codes.
struct Block {
    freqs: Freqs,
    merge: PackageMerge,
    lit_lengths: [u8; NUM_LITLEN],
    dist_lengths: [u8; NUM_DIST],
    clen_lengths: [u8; NUM_CLEN],
    ops: [ClenOp; MAX_CLEN_OPS],
    codes: Codes,
}

impl Default for Block {
    fn default() -> Self {
        Block {
            freqs: Freqs {
                litlen: [0; NUM_LITLEN],
                dist: [0; NUM_DIST],
            },
            merge: PackageMerge::default(),
            lit_lengths: [0; NUM_LITLEN],
            dist_lengths: [0; NUM_DIST],
            clen_lengths: [0; NUM_CLEN],
            ops: [ClenOp::Len(0); MAX_CLEN_OPS],
            codes: Codes::NONE,
        }
    }
}

impl DeflateEncoder {
    /// Creates an encoder; heavy state is built lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Positions the dictionary has storage for (see
    /// [`Codec::dictionary_len`](crate::Codec::dictionary_len)).
    pub fn dictionary_len(&self) -> usize {
        self.lz.dictionary_len()
    }

    /// Compresses `data` as a raw DEFLATE stream appended to `out`,
    /// reusing this encoder's dictionary and token storage.
    ///
    /// `level` 0 emits stored (uncompressed) blocks; 1–9 mirror zlib's
    /// effort/ratio trade-off via [`MatchParams::for_level`].
    pub fn deflate(&mut self, data: &[u8], level: u8, out: &mut Vec<u8>) {
        let mut w = BitWriter::new(out);
        if level == 0 {
            write_stored(&mut w, data, true);
            return;
        }
        let params = MatchParams::for_level(level);

        let DeflateEncoder { lz, tokens, block } = self;
        tokens.clear();
        let mut block_start = 0usize; // raw offset where the pending block began
        let mut raw_pos = 0usize; // raw bytes covered by tokens so far

        // Emit blocks as the tokenizer streams tokens; the final block is
        // flagged after tokenization completes.
        lz.tokenize(data, &params, |tok| {
            let bits = tok.bits();
            match tok.as_match() {
                None => {
                    block.freqs.litlen[(bits & 0xFF) as usize] += 1;
                    raw_pos += 1;
                    tokens.push(bits);
                }
                Some((len, dist)) => {
                    let (dc, _, _) = dist_to_code(dist);
                    block.freqs.litlen[257 + length_to_code(len).0] += 1;
                    block.freqs.dist[dc] += 1;
                    raw_pos += len;
                    tokens.push(bits | (dc as u32) << STAGED_DIST_CODE_SHIFT);
                }
            }
            if tokens.len() >= TOKENS_PER_BLOCK {
                block.emit(&mut w, tokens, &data[block_start..raw_pos], false);
                tokens.clear();
                block_start = raw_pos;
            }
        });
        debug_assert_eq!(raw_pos, data.len());
        block.emit(&mut w, tokens, &data[block_start..], true);
    }
}

/// Compresses `data` as a raw DEFLATE stream appended to `out`.
///
/// One-shot convenience over [`DeflateEncoder::deflate`]: allocates fresh
/// encoder state per call. Streaming callers should hold an encoder.
pub fn deflate(data: &[u8], level: u8, out: &mut Vec<u8>) {
    DeflateEncoder::new().deflate(data, level, out);
}

/// Emits `raw` as stored blocks, the last one flagged final if `last`
/// (an empty `raw` still takes one block).
fn write_stored(w: &mut BitWriter<'_>, raw: &[u8], last: bool) {
    let mut rest = raw;
    loop {
        let (chunk, tail) = rest.split_at(rest.len().min(STORED_MAX));
        rest = tail;
        let len = chunk.len() as u16;
        w.reserve(5);
        w.write_bits(u32::from(last && rest.is_empty()), 1);
        w.write_bits(0b00, 2);
        w.align_byte();
        w.write_bits(u32::from(len) | u32::from(!len) << 16, 32);
        w.append_bytes(chunk);
        if rest.is_empty() {
            return;
        }
    }
}

/// Bit cost of the token body (symbols + extra bits) under the given code
/// lengths, including the end-of-block symbol.
fn body_cost(freqs: &Freqs, lit_lengths: &[u8], dist_lengths: &[u8]) -> u64 {
    let mut bits = 0u64;
    for (sym, &f) in freqs.litlen.iter().enumerate() {
        if f == 0 {
            continue;
        }
        let mut per = u64::from(lit_lengths[sym]);
        if sym > EOB {
            per += u64::from(LENGTH_EXTRA[sym - 257]);
        }
        bits += u64::from(f) * per;
    }
    for (sym, &f) in freqs.dist.iter().enumerate() {
        if f == 0 {
            continue;
        }
        bits += u64::from(f) * (u64::from(dist_lengths[sym]) + u64::from(DIST_EXTRA[sym]));
    }
    bits
}

/// One op in the RLE encoding of the code-length sequence.
#[derive(Clone, Copy)]
enum ClenOp {
    /// Emit this literal code length (0..=15).
    Len(u8),
    /// Code 16: repeat previous length `n` times (3..=6).
    RepPrev(u8),
    /// Code 17: emit `n` zeros (3..=10).
    ZeroShort(u8),
    /// Code 18: emit `n` zeros (11..=138).
    ZeroLong(u8),
}

impl ClenOp {
    fn symbol(self) -> usize {
        match self {
            ClenOp::Len(l) => l as usize,
            ClenOp::RepPrev(_) => 16,
            ClenOp::ZeroShort(_) => 17,
            ClenOp::ZeroLong(_) => 18,
        }
    }

    /// `(value, bit count)` of the op's extra bits (count 0 = none).
    fn extra(self) -> (u32, u32) {
        match self {
            ClenOp::Len(_) => (0, 0),
            ClenOp::RepPrev(n) => (u32::from(n) - 3, 2),
            ClenOp::ZeroShort(n) => (u32::from(n) - 3, 3),
            ClenOp::ZeroLong(n) => (u32::from(n) - 11, 7),
        }
    }
}

/// RLE-encodes the concatenated code-length sequence (RFC 1951 §3.2.7)
/// into `ops`; returns how many it wrote (at most one per length).
fn rle_code_lengths(lengths: &[u8], ops: &mut [ClenOp; MAX_CLEN_OPS]) -> usize {
    let mut count = 0usize;
    let mut push = |op| {
        ops[count] = op;
        count += 1;
    };
    let mut i = 0usize;
    while i < lengths.len() {
        let cur = lengths[i];
        let mut run = 1usize;
        while i + run < lengths.len() && lengths[i + run] == cur {
            run += 1;
        }
        if cur == 0 {
            let mut left = run;
            while left >= 11 {
                let n = left.min(138);
                push(ClenOp::ZeroLong(n as u8));
                left -= n;
            }
            if left >= 3 {
                push(ClenOp::ZeroShort(left as u8));
                left = 0;
            }
            for _ in 0..left {
                push(ClenOp::Len(0));
            }
        } else {
            push(ClenOp::Len(cur));
            let mut left = run - 1;
            while left >= 3 {
                let n = left.min(6);
                push(ClenOp::RepPrev(n as u8));
                left -= n;
            }
            for _ in 0..left {
                push(ClenOp::Len(cur));
            }
        }
        i += run;
    }
    count
}

/// The counts a dynamic header opens with, the length of its RLE op list
/// in [`Block::ops`], and its exact bit cost.
struct DynamicPlan {
    hlit: usize,
    hdist: usize,
    hclen: usize,
    ops: usize,
    header_bits: u64,
}

/// The fixed trees' packed codes, built once.
fn fixed_codes() -> &'static Codes {
    static FIXED: OnceLock<Codes> = OnceLock::new();
    FIXED.get_or_init(|| {
        let mut codes = Codes::NONE;
        codes.set(&fixed_litlen_lengths(), &fixed_dist_lengths());
        codes
    })
}

impl Block {
    /// Builds the block's optimal code lengths and the dynamic header that
    /// declares them, in this block's scratch.
    fn plan_dynamic(&mut self) -> DynamicPlan {
        self.merge
            .lengths(&self.freqs.litlen, MAX_CODE_LEN, &mut self.lit_lengths);
        if self.freqs.dist.iter().all(|&f| f == 0) {
            // No distances used: emit one dummy 1-bit code so the header stays
            // well-formed (zlib does the same).
            self.dist_lengths.fill(0);
            self.dist_lengths[0] = 1;
        } else {
            self.merge
                .lengths(&self.freqs.dist, MAX_CODE_LEN, &mut self.dist_lengths);
        }

        let used = |lengths: &[u8], min: usize| {
            lengths
                .iter()
                .rposition(|&l| l > 0)
                .map_or(min, |p| (p + 1).max(min))
        };
        let hlit = used(&self.lit_lengths, 257);
        let hdist = used(&self.dist_lengths, 1);

        let mut combined = [0u8; MAX_CLEN_OPS];
        combined[..hlit].copy_from_slice(&self.lit_lengths[..hlit]);
        combined[hlit..hlit + hdist].copy_from_slice(&self.dist_lengths[..hdist]);
        let ops = rle_code_lengths(&combined[..hlit + hdist], &mut self.ops);

        let mut clen_freqs = [0u32; NUM_CLEN];
        for op in &self.ops[..ops] {
            clen_freqs[op.symbol()] += 1;
        }
        self.merge
            .lengths(&clen_freqs, MAX_CLEN_LEN, &mut self.clen_lengths);

        let hclen = CLEN_ORDER
            .iter()
            .rposition(|&sym| self.clen_lengths[sym] > 0)
            .map_or(4, |p| (p + 1).max(4));

        let mut header_bits = 5 + 5 + 4 + 3 * hclen as u64;
        for op in &self.ops[..ops] {
            header_bits += u64::from(self.clen_lengths[op.symbol()]) + u64::from(op.extra().1);
        }

        DynamicPlan {
            hlit,
            hdist,
            hclen,
            ops,
            header_bits,
        }
    }

    /// Emits one block, choosing stored / fixed / dynamic by exact cost,
    /// and resets the frequencies for the next. `raw` is the uncompressed
    /// byte range the tokens cover.
    fn emit(&mut self, w: &mut BitWriter<'_>, tokens: &[u32], raw: &[u8], last: bool) {
        self.freqs.litlen[EOB] += 1;

        let plan = self.plan_dynamic();
        let dynamic_cost =
            plan.header_bits + body_cost(&self.freqs, &self.lit_lengths, &self.dist_lengths);
        let fixed_cost = body_cost(&self.freqs, &fixed_litlen_lengths(), &fixed_dist_lengths());

        // Stored: per 65535-byte chunk, 3-bit header + ≤7 alignment + 32 bits of
        // LEN/NLEN + the bytes themselves.
        let stored_blocks = raw.len().div_ceil(STORED_MAX).max(1) as u64;
        let stored_cost = stored_blocks * (3 + 7 + 32) + 8 * raw.len() as u64;

        if stored_cost < dynamic_cost && stored_cost < fixed_cost {
            write_stored(w, raw, last);
        } else if fixed_cost <= dynamic_cost {
            w.reserve((3 + fixed_cost as usize).div_ceil(8));
            w.write_bits(u32::from(last) | 0b01 << 1, 3);
            write_tokens(w, tokens, fixed_codes());
        } else {
            w.reserve((3 + dynamic_cost as usize).div_ceil(8));
            w.write_bits(u32::from(last) | 0b10 << 1, 3);
            w.write_bits((plan.hlit - 257) as u32, 5);
            w.write_bits((plan.hdist - 1) as u32, 5);
            w.write_bits((plan.hclen - 4) as u32, 4);
            for &sym in CLEN_ORDER.iter().take(plan.hclen) {
                w.write_bits(u32::from(self.clen_lengths[sym]), 3);
            }
            let mut clen_codes = [0u32; NUM_CLEN];
            pack_codes(&self.clen_lengths, &mut clen_codes);
            for op in &self.ops[..plan.ops] {
                put_packed(w, clen_codes[op.symbol()]);
                let (val, n) = op.extra();
                w.write_bits(val, n);
            }
            self.codes.set(&self.lit_lengths, &self.dist_lengths);
            write_tokens(w, tokens, &self.codes);
        }
        self.freqs.litlen.fill(0);
        self.freqs.dist.fill(0);
    }
}

/// Writes the staged tokens and the end-of-block symbol: one word per
/// literal, two per match.
fn write_tokens(w: &mut BitWriter<'_>, tokens: &[u32], codes: &Codes) {
    for &t in tokens {
        if t & STAGED_MATCH == 0 {
            put_packed(w, codes.lit[(t & 0xFF) as usize]);
        } else {
            put_packed(w, codes.len[(t >> 16 & 0xFF) as usize]);
            let dc = (t >> STAGED_DIST_CODE_SHIFT & 31) as usize;
            let sym = codes.dist[dc];
            let (code, n) = (sym >> 5, sym & 31);
            let extra = (t & 0xFFFF) + 1 - u32::from(DIST_BASE[dc]);
            w.put(u64::from(code | extra << n), n + u32::from(DIST_EXTRA[dc]));
        }
    }
    put_packed(w, codes.lit[EOB]);
}

/// Convenience: one-shot deflate returning a fresh vector.
pub fn deflate_to_vec(data: &[u8], level: u8) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 64);
    deflate(data, level, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inflate::inflate_to_vec;

    fn roundtrip(data: &[u8], level: u8) -> Vec<u8> {
        let comp = deflate_to_vec(data, level);
        let dec = inflate_to_vec(&comp, data.len())
            .unwrap_or_else(|e| panic!("level {level}, len {}: inflate failed: {e}", data.len()));
        assert_eq!(dec, data, "level {level} roundtrip mismatch");
        comp
    }

    #[test]
    fn empty_input_all_levels() {
        for level in 0..=9 {
            roundtrip(b"", level);
        }
    }

    #[test]
    fn small_inputs_all_levels() {
        for level in 0..=9 {
            roundtrip(b"a", level);
            roundtrip(b"hello, world!", level);
            roundtrip(&[0u8; 300], level);
        }
    }

    #[test]
    fn text_compresses_and_levels_order_sensibly() {
        let data = include_str!("deflate.rs").as_bytes().repeat(4);
        let c1 = roundtrip(&data, 1).len();
        let c6 = roundtrip(&data, 6).len();
        let c9 = roundtrip(&data, 9).len();
        assert!(c1 < data.len() / 2, "level 1 got {} of {}", c1, data.len());
        assert!(c6 <= c1, "level 6 ({c6}) worse than level 1 ({c1})");
        assert!(
            c9 <= c6 + c6 / 50,
            "level 9 ({c9}) much worse than level 6 ({c6})"
        );
    }

    #[test]
    fn incompressible_data_falls_back_to_stored() {
        let mut state = 0xABCDEFu64;
        let data: Vec<u8> = (0..100_000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) as u8
            })
            .collect();
        let comp = roundtrip(&data, 6);
        // Stored-block fallback bounds expansion to ~0.1%.
        assert!(
            comp.len() < data.len() + data.len() / 500 + 64,
            "expanded to {}",
            comp.len()
        );
    }

    #[test]
    fn highly_repetitive_data() {
        let data = vec![42u8; 1 << 20];
        let comp = roundtrip(&data, 6);
        assert!(comp.len() < 2048, "1 MiB of a single byte → {}", comp.len());
    }

    #[test]
    fn multi_block_inputs() {
        // Enough distinct tokens to force several blocks.
        let mut data = Vec::new();
        for i in 0..400_000u32 {
            data.push((i.wrapping_mul(2654435761) >> 24) as u8);
        }
        roundtrip(&data, 1);
        roundtrip(&data, 6);
    }

    #[test]
    fn stored_level_zero() {
        let data: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
        let comp = roundtrip(&data, 0);
        // 4 stored blocks → 5 bytes overhead each, plus final empty none.
        assert!(comp.len() >= data.len());
        assert!(comp.len() <= data.len() + 5 * 4 + 8);
    }

    #[test]
    fn all_byte_values() {
        let data: Vec<u8> = (0..=255u8).collect::<Vec<_>>().repeat(64);
        for level in [1u8, 4, 9] {
            roundtrip(&data, level);
        }
    }

    #[test]
    fn reused_encoder_is_byte_identical_to_one_shot() {
        let mut enc = DeflateEncoder::new();
        let inputs: Vec<Vec<u8>> = vec![
            include_str!("deflate.rs").as_bytes().repeat(2),
            vec![0u8; 70_000],
            (0..50_000u32).map(|i| (i * 31 % 253) as u8).collect(),
            Vec::new(),
        ];
        for (k, data) in inputs.iter().enumerate() {
            for level in [0u8, 1, 6, 9] {
                let mut reused = Vec::new();
                enc.deflate(data, level, &mut reused);
                assert_eq!(
                    reused,
                    deflate_to_vec(data, level),
                    "input {k} level {level}"
                );
                assert_eq!(inflate_to_vec(&reused, data.len()).unwrap(), *data);
            }
        }
    }

    #[test]
    fn structured_binary_like_payload() {
        // f64 little-endian values, the NetSolve matrix wire shape.
        let data: Vec<u8> = (0..20_000)
            .flat_map(|i| (f64::from(i) * 1.7382).to_le_bytes())
            .collect();
        for level in [1u8, 6, 9] {
            roundtrip(&data, level);
        }
    }
}
