//! DEFLATE decoder (RFC 1951): stored, fixed and dynamic blocks, with
//! strict validation and an output-size limit against corrupt streams.
//!
//! # Two loops, one verdict
//!
//! A Huffman block is decoded by two loops over the same tables.
//!
//! The **checked loop** takes one symbol at a time through
//! [`BitReader`]: it peeks (zero-padded past the end of input), looks the
//! code up, and only then consumes, so it can tell a bit pattern no code
//! has (`Corrupt`) from a code that runs off the input (`UnexpectedEof`);
//! it compares every literal and every match against the output limit
//! before writing a byte. It is the definition of what this decoder
//! accepts, and it can decode any stream alone.
//!
//! The **fast loop** runs while the checked loop's edge cases cannot
//! arise, and hands over to it when they might:
//!
//! * *Input:* at least 8 bytes remain at the refill position. One refill
//!   loads a 64-bit word and leaves ≥ 56 valid bits in the accumulator,
//!   all of them real input; one iteration consumes at most
//!   15 + 5 + 15 + 13 = 48 (length code, its extra bits, distance code,
//!   its extra bits). So no peek is ever padded and no consume can run
//!   dry: `UnexpectedEof` cannot occur, and a table miss is the same
//!   `Corrupt` the checked loop would report at that bit.
//! * *Output:* at least 258 + 8 bytes of room remain. A match is at most
//!   258 bytes and is copied in 8-byte words that may overshoot its end
//!   by 7 (the overshoot is overwritten by what follows, or lies in room
//!   the caller gave and is cut off), so `OutputLimitExceeded` cannot
//!   occur either. Below distance 8 a word copy would read bytes it has
//!   not written yet; those matches are copied bytewise (a run of one
//!   byte is a fill).
//! * The remaining checks — a distance reaching before the output, a
//!   symbol that has a code but may not occur — are made by both loops,
//!   in the same order.
//!
//! The fast loop keeps the reader's state in locals and gives it back
//! with the uncounted high bits of its last refill masked off, so the
//! checked loop resumes at exactly the next symbol. Every verdict is
//! therefore the checked loop's: either it was reached by it, or it was
//! reached on bits and room for which both loops compute the same thing.
//!
//! Tables are two-level ([`HuffDecoder`]), their entries carry base value
//! and extra-bit count, and they live in a reusable [`Inflater`].

use crate::bitio::BitReader;
use crate::error::{CodecError, Result};
use crate::huffman::{entry::*, HuffDecoder};
use crate::lz77::MAX_MATCH;
use crate::tables::*;
use std::sync::OnceLock;

/// Output room the fast loop needs: the longest match plus the overshoot
/// of its last word copy.
const FAST_ROOM: usize = MAX_MATCH + 8;

/// Primary index width of the distance tables: distance codes are few
/// and mostly short.
const DIST_PRIMARY_BITS: u32 = 8;

/// Table entries of the literal/length alphabet, by symbol (286 and 287
/// have codes in the fixed tree but may not occur).
static LITLEN_ENTRIES: [u32; 288] = {
    let mut t = [BAD; 288];
    let mut sym = 0;
    while sym < 256 {
        t[sym] = LITERAL | (sym as u32) << VALUE_SHIFT;
        sym += 1;
    }
    t[EOB] = END;
    while sym < 29 + 256 {
        sym += 1;
        let i = sym - 257;
        t[sym] =
            BASE | (LENGTH_EXTRA[i] as u32) << EXTRA_SHIFT | (LENGTH_BASE[i] as u32) << VALUE_SHIFT;
    }
    t
};

/// Table entries of the distance alphabet, by symbol (30 and 31 likewise).
static DIST_ENTRIES: [u32; 32] = {
    let mut t = [BAD; 32];
    let mut sym = 0;
    while sym < NUM_DIST {
        t[sym] =
            BASE | (DIST_EXTRA[sym] as u32) << EXTRA_SHIFT | (DIST_BASE[sym] as u32) << VALUE_SHIFT;
        sym += 1;
    }
    t
};

fn fixed_decoders() -> &'static (HuffDecoder, HuffDecoder) {
    static FIXED: OnceLock<(HuffDecoder, HuffDecoder)> = OnceLock::new();
    FIXED.get_or_init(|| {
        let mut tables = (HuffDecoder::default(), HuffDecoder::default());
        let (lit, dist) = (fixed_litlen_lengths(), fixed_dist_lengths());
        tables
            .0
            .rebuild(
                &lit,
                false,
                HuffDecoder::PRIMARY_BITS,
                Some(&LITLEN_ENTRIES),
            )
            .expect("fixed litlen tree is complete");
        tables
            .1
            .rebuild(&dist, false, DIST_PRIMARY_BITS, Some(&DIST_ENTRIES))
            .expect("fixed dist tree is complete");
        tables
    })
}

/// Reusable decoder state: the tables of the dynamic block in progress.
/// A warm one decodes without allocating.
#[derive(Debug, Default)]
pub struct Inflater {
    lit: HuffDecoder,
    dist: HuffDecoder,
    clen: HuffDecoder,
    /// Run the checked loop alone (the oracle the fast loop is compared
    /// against).
    #[cfg(test)]
    pub(crate) checked_only: bool,
}

/// Where in the stream the decoder stands.
struct Progress<'a> {
    r: BitReader<'a>,
    block: Block,
    /// The block in progress (or just ended) is the final one.
    last: bool,
    /// Output bytes written.
    pos: usize,
}

impl<'a> Progress<'a> {
    fn start(data: &'a [u8]) -> Self {
        Progress {
            r: BitReader::new(data),
            block: Block::Header,
            last: false,
            pos: 0,
        }
    }
}

/// The block the decoder stands in.
enum Block {
    /// Between blocks: a header comes next.
    Header,
    /// A stored block with this many bytes left to copy.
    Stored(usize),
    Fixed,
    /// The tables are in the [`Inflater`]; `false` = the block declared no
    /// distance code.
    Dynamic(bool),
}

/// How a run over the output given so far ended.
enum Run {
    /// The final block ended.
    Done,
    /// The output is too short for what comes next, and may still grow.
    Full,
}

impl Inflater {
    /// Decodes the raw DEFLATE stream `data` into `out`, which is all the
    /// room there is; returns the bytes produced. Trailing input after the
    /// final block is ignored.
    pub fn inflate_into(&mut self, data: &[u8], out: &mut [u8]) -> Result<usize> {
        let mut at = Progress::start(data);
        match self.run(&mut at, out, true)? {
            Run::Done => Ok(at.pos),
            Run::Full => unreachable!("a final buffer ends in a verdict"),
        }
    }

    /// Decodes the raw DEFLATE stream `data`, appending at most `max_out`
    /// bytes to `out`; returns the bytes produced (they stay in `out` on
    /// error too). `out` grows as the stream demands, never beyond
    /// `max_out` more bytes.
    pub fn inflate(&mut self, data: &[u8], out: &mut Vec<u8>, max_out: usize) -> Result<usize> {
        let base = out.len();
        let mut at = Progress::start(data);
        let mut room = max_out.min(4 * data.len() + 512);
        let verdict = loop {
            out.resize(base + room, 0);
            match self.run(&mut at, &mut out[base..], room == max_out) {
                // Enough for the largest single step: a stored block.
                Ok(Run::Full) => room = max_out.min(2 * room + (1 << 16) + FAST_ROOM),
                Ok(Run::Done) => break Ok(at.pos),
                Err(e) => break Err(e),
            }
        };
        out.truncate(base + at.pos);
        verdict
    }

    /// Decodes from where `at` stands until the stream ends or `out` is
    /// too short to go on; `is_final` says `out` cannot grow, which turns
    /// "too short" into the limit error.
    fn run(&mut self, at: &mut Progress<'_>, out: &mut [u8], is_final: bool) -> Result<Run> {
        let Progress {
            r,
            block,
            last,
            pos,
        } = at;
        loop {
            let ended = match *block {
                Block::Header => {
                    if *last {
                        return Ok(Run::Done);
                    }
                    *last = r.read_bits(1)? == 1;
                    *block = match r.read_bits(2)? {
                        0b00 => {
                            r.align_byte();
                            let len = r.read_bits(16)? as u16;
                            let nlen = r.read_bits(16)? as u16;
                            if len != !nlen {
                                return Err(CodecError::Corrupt("stored block LEN/NLEN mismatch"));
                            }
                            Block::Stored(usize::from(len))
                        }
                        0b01 => Block::Fixed,
                        0b10 => Block::Dynamic(self.read_dynamic_header(r)?),
                        _ => return Err(CodecError::Corrupt("reserved block type 11")),
                    };
                    continue;
                }
                Block::Stored(len) => match out.get_mut(*pos..*pos + len) {
                    Some(dst) => {
                        dst.copy_from_slice(r.read_aligned_bytes(len)?);
                        *pos += len;
                        true
                    }
                    None if is_final => {
                        return Err(CodecError::OutputLimitExceeded { limit: out.len() })
                    }
                    None => false,
                },
                Block::Fixed => {
                    let (lit, dist) = fixed_decoders();
                    self.decode_block(lit, Some(dist), r, out, pos, is_final)?
                }
                Block::Dynamic(has_dist) => {
                    let dist = has_dist.then_some(&self.dist);
                    self.decode_block(&self.lit, dist, r, out, pos, is_final)?
                }
            };
            if !ended {
                return Ok(Run::Full);
            }
            *block = Block::Header;
        }
    }

    /// Reads an RFC 1951 §3.2.7 dynamic block header and builds the two
    /// tables; `false` = the block declares no distance code.
    fn read_dynamic_header(&mut self, r: &mut BitReader<'_>) -> Result<bool> {
        let hlit = r.read_bits(5)? as usize + 257;
        let hdist = r.read_bits(5)? as usize + 1;
        let hclen = r.read_bits(4)? as usize + 4;
        if hlit > NUM_LITLEN {
            return Err(CodecError::Corrupt("HLIT exceeds 286"));
        }
        if hdist > NUM_DIST {
            return Err(CodecError::Corrupt("HDIST exceeds 30"));
        }

        let mut clen_lengths = [0u8; NUM_CLEN];
        for &sym in CLEN_ORDER.iter().take(hclen) {
            clen_lengths[sym] = r.read_bits(3)? as u8;
        }
        self.clen
            .rebuild(&clen_lengths, false, u32::from(MAX_CLEN_LEN), None)
            .map_err(|_| CodecError::Corrupt("bad code-length code"))?;

        // Decode hlit + hdist code lengths as one sequence (runs may cross the
        // boundary).
        let mut lengths = [0u8; NUM_LITLEN + NUM_DIST];
        let lengths = &mut lengths[..hlit + hdist];
        let mut filled = 0;
        while filled < lengths.len() {
            let (value, run, overrun) = match self.clen.decode(r)? {
                sym @ 0..=15 => (sym as u8, 1, ""),
                16 => {
                    let Some(&prev) = lengths[..filled].last() else {
                        return Err(CodecError::Corrupt("repeat with no previous length"));
                    };
                    let run = 3 + r.read_bits(2)? as usize;
                    (prev, run, "code-length repeat overruns header")
                }
                17 => (0, 3 + r.read_bits(3)? as usize, "zero-run overruns header"),
                18 => (0, 11 + r.read_bits(7)? as usize, "zero-run overruns header"),
                _ => unreachable!("code-length alphabet has 19 symbols"),
            };
            let Some(dst) = lengths.get_mut(filled..filled + run) else {
                return Err(CodecError::Corrupt(overrun));
            };
            dst.fill(value);
            filled += run;
        }

        let (lit_lengths, dist_lengths) = lengths.split_at(hlit);
        if lit_lengths[EOB] == 0 {
            return Err(CodecError::Corrupt("no end-of-block code"));
        }
        self.lit.rebuild(
            lit_lengths,
            false,
            HuffDecoder::PRIMARY_BITS,
            Some(&LITLEN_ENTRIES),
        )?;
        // Distance trees may be incomplete (single-code streams) or entirely
        // absent (all-literal blocks); an absent tree only errors if a length
        // code actually appears.
        if dist_lengths.iter().all(|&l| l == 0) {
            return Ok(false);
        }
        self.dist
            .rebuild(dist_lengths, true, DIST_PRIMARY_BITS, Some(&DIST_ENTRIES))
            .or(Err(CodecError::Corrupt("bad distance code")))?;
        Ok(true)
    }

    /// Decodes one Huffman block's symbols into `out` from `pos`; `true`
    /// = the block ended, `false` = less than a longest match of room is
    /// left in an `out` that may still grow (nothing of the next symbol
    /// consumed).
    fn decode_block(
        &self,
        lit: &HuffDecoder,
        dist: Option<&HuffDecoder>,
        r: &mut BitReader<'_>,
        out: &mut [u8],
        pos: &mut usize,
        is_final: bool,
    ) -> Result<bool> {
        #[cfg(test)]
        let dist_for_fast = dist.filter(|_| !self.checked_only);
        #[cfg(not(test))]
        let dist_for_fast = dist;
        if let Some(dist) = dist_for_fast {
            if fast_loop(lit, dist, r, out, pos)? {
                return Ok(true);
            }
        }
        // The checked loop: the block's edges (and all of a block without
        // a distance code, which has no matches to speed up).
        loop {
            if !is_final && out.len() - *pos < MAX_MATCH {
                return Ok(false);
            }
            let limit = CodecError::OutputLimitExceeded { limit: out.len() };
            let e = lit.read_entry(r)?;
            if e & LITERAL != 0 {
                *out.get_mut(*pos).ok_or(limit)? = (e >> VALUE_SHIFT) as u8;
                *pos += 1;
            } else if e & BASE != 0 {
                let len = (e >> VALUE_SHIFT) as usize + r.read_bits(extra_bits(e))? as usize;
                let d = dist
                    .ok_or(CodecError::Corrupt(
                        "length code in block with no distance tree",
                    ))?
                    .read_entry(r)?;
                if d & BAD != 0 {
                    return Err(CodecError::Corrupt("distance code 30/31 in stream"));
                }
                let dist = (d >> VALUE_SHIFT) as usize + r.read_bits(extra_bits(d))? as usize;
                if dist > *pos {
                    return Err(CodecError::BadDistance { dist, have: *pos });
                }
                if *pos + len > out.len() {
                    return Err(limit);
                }
                // Overlapping copies are the RLE idiom; copy byte-wise when
                // ranges overlap, chunk-wise otherwise.
                let start = *pos - dist;
                if dist >= len {
                    out.copy_within(start..start + len, *pos);
                } else {
                    for k in 0..len {
                        out[*pos + k] = out[start + k];
                    }
                }
                *pos += len;
            } else if e & END != 0 {
                return Ok(true);
            } else {
                return Err(CodecError::Corrupt("literal/length symbol out of range"));
            }
        }
    }
}

#[inline]
fn extra_bits(entry: u32) -> u32 {
    entry >> EXTRA_SHIFT & 0xF
}

/// The fast loop (see the module docs): decodes symbols while ≥ 8 input
/// bytes and ≥ [`FAST_ROOM`] output bytes remain. `true` = the block
/// ended; `false` = an edge is near, the checked loop takes over at the
/// next symbol.
fn fast_loop(
    lit: &HuffDecoder,
    dist: &HuffDecoder,
    r: &mut BitReader<'_>,
    out: &mut [u8],
    pos: &mut usize,
) -> Result<bool> {
    let (lit_table, lit_bits) = lit.table();
    let (dist_table, dist_bits) = dist.table();
    let (lit_mask, dist_mask) = ((1u64 << lit_bits) - 1, (1u64 << dist_bits) - 1);
    let (data, mut ip, mut acc, mut nbits) = r.raw();
    let mut op = *pos;

    /// Looks one code up in a two-level table and consumes it; the entry
    /// (0 if no code has these bits).
    macro_rules! decode {
        ($table:ident, $mask:ident, $bits:ident) => {{
            let mut e = $table[(acc & $mask) as usize];
            if e & LINK != 0 {
                acc >>= $bits;
                nbits -= $bits;
                let sub = acc & ((1u64 << (e & LEN_MASK)) - 1);
                e = $table[(e >> VALUE_SHIFT) as usize + sub as usize];
            }
            acc >>= e & LEN_MASK;
            nbits -= e & LEN_MASK;
            e
        }};
    }
    /// Consumes an entry's extra bits; their value.
    macro_rules! extra {
        ($e:ident) => {{
            let n = extra_bits($e);
            let v = acc & ((1u64 << n) - 1);
            acc >>= n;
            nbits -= n;
            v as usize
        }};
    }

    let ended = loop {
        let (Some(word), true) = (data.get(ip..ip + 8), out.len() - op >= FAST_ROOM) else {
            break Ok(false);
        };
        // Refill to ≥ 56 bits: the word's bytes that fit, whole.
        acc |= u64::from_le_bytes(word.try_into().expect("8 bytes")) << nbits;
        ip += ((63 - nbits) >> 3) as usize;
        nbits |= 56;

        let e = decode!(lit_table, lit_mask, lit_bits);
        if e & LITERAL != 0 {
            out[op] = (e >> VALUE_SHIFT) as u8;
            op += 1;
            // Literals come in runs, and ≥ 41 bits are left: take up to
            // two more whose codes the primary table resolves (anything
            // else waits for the next refill).
            for _ in 0..2 {
                let e = lit_table[(acc & lit_mask) as usize];
                if e & LITERAL == 0 {
                    break;
                }
                acc >>= e & LEN_MASK;
                nbits -= e & LEN_MASK;
                out[op] = (e >> VALUE_SHIFT) as u8;
                op += 1;
            }
            continue;
        }
        if e & BASE == 0 {
            break match e {
                0 => Err(CodecError::Corrupt("invalid huffman code in stream")),
                e if e & END != 0 => Ok(true),
                _ => Err(CodecError::Corrupt("literal/length symbol out of range")),
            };
        }
        let len = (e >> VALUE_SHIFT) as usize + extra!(e);
        let d = decode!(dist_table, dist_mask, dist_bits);
        if d & BASE == 0 {
            break Err(CodecError::Corrupt(if d == 0 {
                "invalid huffman code in stream"
            } else {
                "distance code 30/31 in stream"
            }));
        }
        let dist = (d >> VALUE_SHIFT) as usize + extra!(d);
        if dist > op {
            break Err(CodecError::BadDistance { dist, have: op });
        }
        let end = op + len;
        if dist >= 8 {
            // Word copies; each reads only bytes written before it.
            let mut from = op - dist;
            while op < end {
                out.copy_within(from..from + 8, op);
                from += 8;
                op += 8;
            }
        } else if dist == 1 {
            let byte = out[op - 1];
            out[op..end].fill(byte);
        } else {
            for k in op..end {
                out[k] = out[k - dist];
            }
        }
        op = end;
    };
    // On an error the reader is not looked at again.
    r.set_raw(ip, acc, nbits);
    *pos = op;
    ended
}

/// Decodes a raw DEFLATE stream, appending to `out`. At most `max_out`
/// bytes are produced beyond the existing contents of `out`; returns how
/// many were.
///
/// Trailing bytes after the final block are ignored (containers read them
/// separately); use [`inflate_exact`] when the stream must end cleanly.
pub fn inflate(data: &[u8], out: &mut Vec<u8>, max_out: usize) -> Result<usize> {
    Inflater::default().inflate(data, out, max_out)
}

/// One-shot inflate with an exact expected size: errors if the stream
/// produces more or fewer bytes.
pub fn inflate_exact(data: &[u8], expected: usize) -> Result<Vec<u8>> {
    let mut out = vec![0; expected];
    if Inflater::default().inflate_into(data, &mut out)? != expected {
        return Err(CodecError::Corrupt("stream shorter than expected size"));
    }
    Ok(out)
}

/// One-shot inflate with a size cap.
pub fn inflate_to_vec(data: &[u8], max_out: usize) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    inflate(data, &mut out, max_out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deflate::deflate_to_vec;
    use crate::huffman::{HuffEncoder, BUILD_WORK};

    /// The verdict of one loop selection on `stream` with `room` bytes of
    /// output: the decoded bytes or the error.
    fn verdict(checked_only: bool, stream: &[u8], room: usize) -> Result<Vec<u8>> {
        let mut dec = Inflater {
            checked_only,
            ..Inflater::default()
        };
        let mut out = vec![0xEE; room];
        let produced = dec.inflate_into(stream, &mut out)?;
        out.truncate(produced);
        Ok(out)
    }

    /// Fast + checked and checked alone must agree: same output or the
    /// same error, fields included.
    fn assert_loops_agree(stream: &[u8], room: usize, what: &str) {
        let checked = verdict(true, stream, room);
        assert_eq!(verdict(false, stream, room), checked, "{what}");
        assert_vec_driver_agrees(stream, room, &checked, what);
    }

    fn assert_vec_driver_agrees(stream: &[u8], room: usize, checked: &Result<Vec<u8>>, what: &str) {
        // The growing-vector driver reaches the same verdict, never holds
        // more than the cap, and keeps what came before.
        let mut grown = b"kept".to_vec();
        let via_vec = Inflater::default().inflate(stream, &mut grown, room);
        assert!(
            grown.len() <= 4 + room && grown.starts_with(b"kept"),
            "{what}"
        );
        match (checked, via_vec) {
            (Ok(bytes), Ok(n)) => assert_eq!((&grown[4..], n), (&bytes[..], bytes.len()), "{what}"),
            (Err(e), Err(got)) => assert_eq!(*e, got, "{what}"),
            (a, b) => panic!("{what}: slice {a:?} vs vec {b:?}"),
        }
    }

    /// Every truncation and every single-byte mutation of `stream`
    /// (`stride` thins both out in unoptimized builds; the vector driver
    /// is compared on every seventh).
    fn assert_loops_agree_on_damage(stream: &[u8], room: usize, what: &str) {
        let stride = if cfg!(debug_assertions) { 17 } else { 1 };
        let agree = |damaged: &[u8], at: usize, how: &str| {
            let checked = verdict(true, damaged, room);
            assert_eq!(verdict(false, damaged, room), checked, "{what} {how} {at}");
            if at.is_multiple_of(7) {
                assert_vec_driver_agrees(damaged, room, &checked, what);
            }
        };
        assert_loops_agree(stream, room, what);
        let mut bad = stream.to_vec();
        for at in (0..stream.len()).step_by(stride) {
            agree(&stream[..at], at, "cut at");
            let flip = [0x01u8, 0x10, 0xFF][at % 3];
            bad[at] ^= flip;
            agree(&bad, at, "mutated at");
            bad[at] ^= flip;
        }
    }

    #[test]
    fn fast_and_checked_loops_agree_on_damaged_fixture_payloads() {
        let captures: [(&str, &[u8]); 3] = [
            (
                "v1_pinned_l2",
                include_bytes!("../../../tests/fixtures/v1_pinned_l2.bin"),
            ),
            (
                "v1_pinned_l10",
                include_bytes!("../../../tests/fixtures/v1_pinned_l10.bin"),
            ),
            (
                "daemon_reply_l2_300k",
                include_bytes!("../../../tests/fixtures/daemon_reply_l2_300k.bin"),
            ),
        ];
        for (name, capture) in captures {
            let frames = crate::fixtures::v1_frames(capture);
            assert!(frames.len() >= 2, "{name}");
            for (k, &(level, raw_len, payload)) in frames.iter().enumerate() {
                assert!(level >= 2, "{name}: a DEFLATE frame");
                // The zlib container's body.
                let body = &payload[2..payload.len() - 4];
                let what = format!("{name} frame {k}");
                if raw_len > 64 * 1024 {
                    // The daemon's 200 KiB frames: intact, and cut short.
                    assert_loops_agree(body, raw_len, &what);
                    assert_loops_agree(&body[..body.len() / 2], raw_len, &what);
                } else {
                    assert_loops_agree_on_damage(body, raw_len, &what);
                }
                assert_eq!(verdict(false, body, raw_len).unwrap().len(), raw_len);
            }
        }
    }

    #[test]
    fn loops_agree_when_the_last_match_ends_near_the_output_limit() {
        let text = b"a match that ends the stream: 0123456789abcdefghij. ".repeat(12);
        let mut x = 0x1234_5678u32;
        for tail in 0..=9usize {
            // `tail` fresh literals behind a final long match.
            let mut data = text.clone();
            data.extend_from_slice(&text[..200]);
            for _ in 0..tail {
                x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                data.push(0x80 | (x >> 24) as u8);
            }
            for level in [1u8, 6] {
                let stream = deflate_to_vec(&data, level);
                let what = format!("tail {tail} level {level}");
                assert_eq!(verdict(false, &stream, data.len()).unwrap(), data, "{what}");
                assert_loops_agree_on_damage(&stream, data.len(), &what);
                // Room that runs out before, inside and just behind the
                // final match.
                for short in 1..=FAST_ROOM + 10 {
                    let room = data.len() - short.min(data.len());
                    assert_loops_agree(&stream, room, &format!("{what} room -{short}"));
                    assert!(verdict(false, &stream, room).is_err());
                }
                assert_loops_agree(&stream, data.len() + 300, &what);
            }
        }
    }

    #[test]
    fn loops_agree_on_every_level_of_every_payload_family() {
        let inputs = [
            adoc_data::gen::ascii(70_000, 5),
            adoc_data::gen::binary(70_000, 5),
            adoc_data::gen::incompressible(70_000, 5),
            vec![7u8; 70_000],
            (0..70_000u32).map(|i| (i % 5) as u8).collect(),
        ];
        for (k, data) in inputs.iter().enumerate() {
            for level in 0..=9u8 {
                let stream = deflate_to_vec(data, level);
                assert_loops_agree(&stream, data.len(), &format!("input {k} level {level}"));
                assert_eq!(verdict(true, &stream, data.len()).unwrap(), *data);
            }
        }
    }

    #[test]
    fn table_build_cost_is_not_peer_controlled() {
        // 1,000 minimal dynamic blocks, each declaring one 15-bit distance
        // code (an incomplete code, which DEFLATE allows there) beside a
        // two-symbol literal code, each emitting one byte: ~13 wire bytes
        // a block. A flat `1 << max_len` table made every one of them a
        // 32,768-slot fill.
        const BLOCKS: usize = 1000;
        let mut clen_lengths = [0u8; NUM_CLEN];
        (clen_lengths[18], clen_lengths[1], clen_lengths[15]) = (1, 2, 2);
        let clen = HuffEncoder::from_lengths(&clen_lengths);
        let mut deflated = Vec::new();
        let mut w = crate::bitio::BitWriter::new(&mut deflated);
        for block in 0..BLOCKS {
            w.write_bits(u32::from(block + 1 == BLOCKS), 1);
            w.write_bits(0b10, 2);
            w.write_bits(0, 5); // HLIT = 257
            w.write_bits(0, 5); // HDIST = 1
            w.write_bits(15, 4); // HCLEN = 19
            for &sym in &CLEN_ORDER {
                w.write_bits(u32::from(clen_lengths[sym]), 3);
            }
            // Lengths: literal 0 → 1, 255 zeros, end-of-block → 1,
            // distance 0 → 15.
            clen.write(&mut w, 1);
            clen.write(&mut w, 18);
            w.write_bits(138 - 11, 7);
            clen.write(&mut w, 18);
            w.write_bits(117 - 11, 7);
            clen.write(&mut w, 1);
            clen.write(&mut w, 15);
            w.write_bits(0, 1); // the literal
            w.write_bits(1, 1); // end of block
        }
        w.finish();
        assert!(deflated.len() < 14 * BLOCKS);

        let raw = vec![0u8; BLOCKS];
        let mut stream = vec![0x78, 0x01];
        stream.extend_from_slice(&deflated);
        stream.extend_from_slice(&crate::checksum::Adler32::oneshot(&raw).to_be_bytes());
        let before = BUILD_WORK.with(|w| w.get());
        let mut out = Vec::new();
        crate::Codec::new()
            .decompress_at(2, &stream, raw.len(), &mut out)
            .expect("the blocks are valid");
        let work = BUILD_WORK.with(|w| w.get()) - before;
        assert_eq!(out, raw);
        assert!(out.capacity() <= raw.len() + 64);
        // Per table: a primary of at most 2^11 slots plus sub-tables.
        assert!(
            work <= BLOCKS * ((1 << 11) + 2 * NUM_LITLEN),
            "{work} table slots written for {BLOCKS} blocks"
        );
        assert_loops_agree(&deflated, raw.len(), "one-code blocks");
    }

    #[test]
    fn decoding_allocates_no_more_than_the_declared_size() {
        // Whatever the stream claims, the vector a frame decodes into
        // never holds more than the frame's raw_len (plus a constant).
        let data = adoc_data::gen::ascii(50_000, 9);
        let mut stream = Vec::new();
        crate::compress_at(7, &data, &mut stream);
        let mut codec = crate::Codec::new();
        for raw_len in [0, 1, 49_999, 50_000, 50_001] {
            for cut in [stream.len(), stream.len() / 2, 7] {
                let mut out = Vec::new();
                let ok = codec.decompress_at(7, &stream[..cut], raw_len, &mut out);
                assert_eq!(ok.is_ok(), raw_len == data.len() && cut == stream.len());
                assert!(
                    out.capacity() <= raw_len + 64,
                    "raw_len {raw_len} cut {cut}"
                );
                assert_eq!(out.len(), if ok.is_ok() { raw_len } else { 0 });
            }
        }
    }

    #[test]
    fn rejects_reserved_block_type() {
        // BFINAL=1, BTYPE=11.
        let data = [0b0000_0111u8];
        assert!(matches!(
            inflate_to_vec(&data, 100),
            Err(CodecError::Corrupt("reserved block type 11"))
        ));
    }

    #[test]
    fn rejects_len_nlen_mismatch() {
        let mut data = vec![0b0000_0001u8]; // final, stored
        data.extend_from_slice(&5u16.to_le_bytes());
        data.extend_from_slice(&5u16.to_le_bytes()); // should be !5
        data.extend_from_slice(b"hello");
        assert!(inflate_to_vec(&data, 100).is_err());
    }

    #[test]
    fn decodes_fixed_block_from_spec() {
        // Hand-assembled fixed block containing "abc": codes for a,b,c are
        // 8-bit (0x30 + byte - wait, easier to trust our encoder for fixed
        // trees and check a known-zlib byte stream instead):
        // `printf 'abc' | pigz -z -` deflate payload: 4b 4c 4a 06 00
        let data = [0x4b, 0x4c, 0x4a, 0x06, 0x00];
        let out = inflate_to_vec(&data, 16).unwrap();
        assert_eq!(out, b"abc");
    }

    #[test]
    fn decodes_zlib_produced_fixed_stream_with_matches() {
        // deflate payload of zlib level 9 for 200 bytes of "ab":
        // python3: zlib.compress(b'ab'*100, 9)[2:-4]
        let data = [0x4b, 0x4c, 0x4a, 0x1c, 0x16, 0x10, 0x00];
        let out = inflate_to_vec(&data, 256).unwrap();
        assert_eq!(out, b"ab".repeat(100));
    }

    #[test]
    fn decodes_zlib_produced_text_stream() {
        // python3: zlib.compress(b'the quick brown fox jumps over the lazy dog. '*8, 6)[2:-4]
        let data = [
            0x2b, 0xc9, 0x48, 0x55, 0x28, 0x2c, 0xcd, 0x4c, 0xce, 0x56, 0x48, 0x2a, 0xca, 0x2f,
            0xcf, 0x53, 0x48, 0xcb, 0xaf, 0x50, 0xc8, 0x2a, 0xcd, 0x2d, 0x28, 0x56, 0xc8, 0x2f,
            0x4b, 0x2d, 0x52, 0x28, 0x01, 0x4a, 0xe7, 0x24, 0x56, 0x55, 0x2a, 0xa4, 0xe4, 0xa7,
            0xeb, 0x81, 0x79, 0xa3, 0x8a, 0xc9, 0x52, 0x0c, 0x00,
        ];
        let expect = b"the quick brown fox jumps over the lazy dog. ".repeat(8);
        let out = inflate_to_vec(&data, expect.len()).unwrap();
        assert_eq!(out, expect);
    }

    #[test]
    fn truncated_streams_error_not_panic() {
        let comp = deflate_to_vec(b"some reasonably long input for truncation testing", 6);
        for cut in 0..comp.len() {
            let _ = inflate_to_vec(&comp[..cut], 1024); // must not panic
        }
    }

    #[test]
    fn bitflip_corruption_detected_or_bounded() {
        let data = b"the quick brown fox jumps over the lazy dog".repeat(20);
        let comp = deflate_to_vec(&data, 6);
        let mut bad_outputs = 0;
        for byte in 0..comp.len().min(200) {
            let mut c = comp.clone();
            c[byte] ^= 0x40;
            // Either an error or output bounded by the cap — never a panic.
            if let Ok(out) = inflate_to_vec(&c, data.len()) {
                assert!(out.len() <= data.len());
                bad_outputs += 1;
            }
        }
        // Some corruptions decode "successfully"; that's fine — containers
        // catch them by checksum. Just ensure the decoder survived all.
        let _ = bad_outputs;
    }

    #[test]
    fn output_cap_stops_zip_bombs() {
        let bomb_src = vec![0u8; 10 << 20];
        let comp = deflate_to_vec(&bomb_src, 9);
        assert!(comp.len() < 40_000);
        let err = inflate_to_vec(&comp, 1 << 16).unwrap_err();
        assert!(matches!(err, CodecError::OutputLimitExceeded { .. }));
    }

    #[test]
    fn inflate_exact_rejects_short_streams() {
        let comp = deflate_to_vec(b"12345", 6);
        assert!(inflate_exact(&comp, 5).is_ok());
        assert!(inflate_exact(&comp, 6).is_err());
        assert!(inflate_exact(&comp, 4).is_err());
    }

    #[test]
    fn multiple_sequential_streams_report_consumption() {
        let a = deflate_to_vec(b"first stream", 6);
        let b = deflate_to_vec(b"second stream", 6);
        let mut joined = a.clone();
        joined.extend_from_slice(&b);
        let mut out = Vec::new();
        inflate(&joined, &mut out, 64).unwrap();
        assert_eq!(out, b"first stream");
    }
}
