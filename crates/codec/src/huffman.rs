//! Canonical Huffman coding: optimal length-limited code construction
//! (package-merge), canonical code assignment (RFC 1951 §3.2.2), packed
//! encoder tables, and a two-level table-driven decoder.

use crate::bitio::{reverse_bits, BitReader, BitWriter};
use crate::error::{CodecError, Result};

/// Reusable scratch of the package-merge construction: a block's three
/// code builds run in it without allocating.
#[derive(Default)]
pub(crate) struct PackageMerge {
    /// Used symbols as `(frequency, symbol)`, ascending.
    sorted: Vec<(u32, u16)>,
    /// Item weights of the previous and the current level's list.
    prev: Vec<u64>,
    cur: Vec<u64>,
    /// Every level's list in order, one flag per item: leaf or package.
    is_leaf: Vec<bool>,
}

impl PackageMerge {
    /// Writes optimal code lengths for `freqs` limited to `max_len` bits
    /// into `lengths` (same length as `freqs`); zero-frequency symbols get
    /// length 0.
    ///
    /// Boundary package-merge in O(n · max_len): level 1's list is the
    /// leaves in `(frequency, symbol)` order; each later level merges the
    /// pairwise packages of the level below with the leaves, a package
    /// sorting before a leaf of equal weight. Only weights and leaf flags
    /// are kept. The first `2n − 2` items of the last list are the
    /// solution: its packages select twice as many items one level down,
    /// and so on; a level that selects `a` leaves adds one bit to each of
    /// the `a` lightest symbols.
    pub(crate) fn lengths(&mut self, freqs: &[u32], max_len: u8, lengths: &mut [u8]) {
        lengths.fill(0);
        self.sorted.clear();
        self.sorted.extend(
            freqs
                .iter()
                .enumerate()
                .filter(|(_, &f)| f > 0)
                .map(|(sym, &f)| (f, sym as u16)),
        );
        let n = self.sorted.len();
        match n {
            0 => return,
            1 => {
                lengths[usize::from(self.sorted[0].1)] = 1;
                return;
            }
            _ => assert!(
                n <= 1usize << max_len,
                "cannot code {n} symbols in {max_len} bits"
            ),
        }
        self.sorted.sort_unstable();

        let levels = usize::from(max_len);
        // Where each level's flags start in `is_leaf`.
        let mut starts = [0usize; 17];
        self.is_leaf.clear();
        self.is_leaf.resize(n, true);
        starts[1] = n;
        self.prev.clear();
        self.prev
            .extend(self.sorted.iter().map(|&(f, _)| u64::from(f)));
        for level in 1..levels {
            self.cur.clear();
            let mut pairs = self.prev.chunks_exact(2).map(|p| p[0] + p[1]).peekable();
            let mut leaves = self.sorted.iter().map(|&(f, _)| u64::from(f)).peekable();
            loop {
                let take_leaf = match (pairs.peek(), leaves.peek()) {
                    (Some(p), Some(l)) => l < p,
                    (None, Some(_)) => true,
                    (Some(_), None) => false,
                    (None, None) => break,
                };
                let next = if take_leaf {
                    leaves.next()
                } else {
                    pairs.next()
                };
                self.cur.extend(next);
                self.is_leaf.push(take_leaf);
            }
            starts[level + 1] = self.is_leaf.len();
            std::mem::swap(&mut self.prev, &mut self.cur);
        }

        let mut selected = 2 * n - 2;
        for level in (0..levels).rev() {
            let list = &self.is_leaf[starts[level]..starts[level + 1]];
            let taken = &list[..selected.min(list.len())];
            let leaves = taken.iter().filter(|&&leaf| leaf).count();
            for &(_, sym) in &self.sorted[..leaves] {
                lengths[usize::from(sym)] += 1;
            }
            selected = 2 * (taken.len() - leaves);
        }
    }
}

/// Computes optimal code lengths for `freqs` limited to `max_len` bits using
/// the package-merge algorithm. Symbols with zero frequency get length 0.
///
/// Returns a vector of code lengths, one per symbol. The resulting lengths
/// always satisfy the Kraft equality when two or more symbols are used, and
/// assign length 1 to a lone symbol.
pub fn limited_code_lengths(freqs: &[u32], max_len: u8) -> Vec<u8> {
    let mut lengths = vec![0u8; freqs.len()];
    PackageMerge::default().lengths(freqs, max_len, &mut lengths);
    lengths
}

/// The first canonical code of each length (RFC 1951 §3.2.2 step 2), by
/// length; lengths above 15 do not occur in DEFLATE.
fn first_codes(lengths: &[u8]) -> [u16; 16] {
    let mut count = [0u16; 16];
    for &l in lengths {
        count[usize::from(l)] += 1;
    }
    count[0] = 0;
    let mut next = [0u16; 16];
    let mut code = 0u16;
    for bits in 1..16 {
        code = code.wrapping_add(count[bits - 1]) << 1;
        next[bits] = code;
    }
    next
}

/// Calls `each(symbol, bit-reversed code, length)` for every coded symbol
/// of the canonical code over `lengths`: shorter codes first, ties broken
/// by symbol order.
fn for_each_code(lengths: &[u8], mut each: impl FnMut(usize, u16, u8)) {
    let mut next = first_codes(lengths);
    for (sym, &len) in lengths.iter().enumerate() {
        if len > 0 {
            let code = &mut next[usize::from(len)];
            each(sym, reverse_bits(*code, len), len);
            *code = code.wrapping_add(1);
        }
    }
}

/// Assigns canonical codes to `lengths` per RFC 1951: shorter codes first,
/// ties broken by symbol order. Returns MSB-first code values.
pub fn canonical_codes(lengths: &[u8]) -> Vec<u16> {
    let mut codes = vec![0u16; lengths.len()];
    for_each_code(lengths, |sym, rev, len| codes[sym] = reverse_bits(rev, len));
    codes
}

/// Verifies the Kraft sum of a length assignment.
///
/// Returns `Ordering::Equal` for a complete code, `Less` for an incomplete
/// (under-subscribed) code and `Greater` for an over-subscribed (invalid)
/// one.
pub fn kraft(lengths: &[u8]) -> std::cmp::Ordering {
    let mut sum: u64 = 0;
    const ONE: u64 = 1 << 32; // fixed-point 1.0
    for &l in lengths {
        if l > 0 {
            sum += ONE >> l;
        }
    }
    sum.cmp(&ONE)
}

/// A run of bits ready for [`BitWriter::put`], packed in a word:
/// `value << 5 | count` (count ≤ 31, value below `1 << count`).
#[inline]
pub(crate) fn pack_bits(value: u32, count: u32) -> u32 {
    debug_assert!(count < 32 && value >> count == 0);
    value << 5 | count
}

/// Emits a [`pack_bits`] word.
#[inline]
pub(crate) fn put_packed(w: &mut BitWriter<'_>, packed: u32) {
    w.put(u64::from(packed >> 5), packed & 31);
}

/// Fills `codes[sym]` with the [`pack_bits`] form of each symbol's
/// LSB-first canonical code (0 for an unused symbol).
pub(crate) fn pack_codes(lengths: &[u8], codes: &mut [u32]) {
    codes[..lengths.len()].fill(0);
    for_each_code(lengths, |sym, rev, len| {
        codes[sym] = pack_bits(u32::from(rev), u32::from(len));
    });
}

/// Encoder-side table: per symbol, the LSB-first (pre-reversed) code and its
/// length, ready for the bit writer.
#[derive(Debug, Clone)]
pub struct HuffEncoder {
    codes: Vec<u32>,
}

impl HuffEncoder {
    /// Builds an encoder from canonical code lengths.
    pub fn from_lengths(lengths: &[u8]) -> Self {
        let mut codes = vec![0u32; lengths.len()];
        pack_codes(lengths, &mut codes);
        HuffEncoder { codes }
    }

    /// Emits `sym` through the writer.
    #[inline]
    pub fn write(&self, w: &mut BitWriter<'_>, sym: usize) {
        debug_assert!(self.len(sym) > 0, "symbol {sym} has no code");
        put_packed(w, self.codes[sym]);
    }

    /// Code length of `sym` in bits (0 = unused symbol).
    #[inline]
    pub fn len(&self, sym: usize) -> u8 {
        (self.codes[sym] & 31) as u8
    }
}

/// Decoder-table entry layout. The low four bits are the bits to consume
/// (a code's length in the primary table, its length less the primary
/// index width in a sub-table; 0 marks a bit pattern no code has), then
/// four bits of extra-bit count, the kind flags, and in the high half the
/// value: a symbol or literal byte, a length or distance base, or a
/// sub-table's offset.
pub(crate) mod entry {
    /// Bits to consume (in a [`LINK`]: the sub-table's index width).
    pub(crate) const LEN_MASK: u32 = 0xF;
    /// Shift of the extra-bit count (four bits).
    pub(crate) const EXTRA_SHIFT: u32 = 4;
    /// A literal byte, or a plain symbol number.
    pub(crate) const LITERAL: u32 = 1 << 8;
    /// A length or distance base with its extra-bit count.
    pub(crate) const BASE: u32 = 1 << 9;
    /// End of block.
    pub(crate) const END: u32 = 1 << 10;
    /// Primary-table pointer to a sub-table.
    pub(crate) const LINK: u32 = 1 << 11;
    /// A symbol that has a code but may not occur (286/287, 30/31).
    pub(crate) const BAD: u32 = 1 << 12;
    /// Shift of the value.
    pub(crate) const VALUE_SHIFT: u32 = 16;
}
use entry::*;

// Table slots written by decoder builds on this thread: the measure of
// what a peer's block header can make the decoder spend.
#[cfg(test)]
thread_local! {
    pub(crate) static BUILD_WORK: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Two-level table decoder: the next `bits` input bits index a primary
/// table whose entries are either final or point to a sub-table indexed by
/// the bits that follow, so a build costs `2^bits` slots plus one small
/// sub-table per group of longer codes — never `2^15`, whatever lengths a
/// block declares.
///
/// The table is reusable: [`rebuild`](Self::rebuild) keeps its storage.
#[derive(Debug, Clone, Default)]
pub struct HuffDecoder {
    table: Vec<u32>,
    /// Index width of the primary table.
    bits: u32,
}

impl HuffDecoder {
    /// Widest primary table: 2^11 slots, like the reference decoders.
    pub(crate) const PRIMARY_BITS: u32 = 11;

    /// Builds a decoder from canonical code lengths.
    ///
    /// `allow_incomplete` accepts under-subscribed codes (needed for the
    /// one-distance-code streams zlib emits); over-subscribed codes are
    /// always rejected.
    pub fn from_lengths(lengths: &[u8], allow_incomplete: bool) -> Result<Self> {
        let mut dec = HuffDecoder::default();
        dec.rebuild(lengths, allow_incomplete, Self::PRIMARY_BITS, None)?;
        Ok(dec)
    }

    /// Rebuilds the table in place for `lengths`, with a primary table of
    /// at most `primary_bits` index bits. `payload[sym]` supplies each
    /// symbol's entry (kind, extra-bit count, value); without it an entry
    /// carries the symbol number.
    pub(crate) fn rebuild(
        &mut self,
        lengths: &[u8],
        allow_incomplete: bool,
        primary_bits: u32,
        payload: Option<&[u32]>,
    ) -> Result<()> {
        let max_len = lengths.iter().copied().max().unwrap_or(0);
        if max_len == 0 {
            return Err(CodecError::Corrupt("huffman code with no symbols"));
        }
        if max_len > 15 {
            return Err(CodecError::Corrupt("huffman code longer than 15 bits"));
        }
        match kraft(lengths) {
            std::cmp::Ordering::Greater => {
                return Err(CodecError::Corrupt("over-subscribed huffman code"))
            }
            std::cmp::Ordering::Less => {
                let used = lengths.iter().filter(|&&l| l > 0).count();
                // RFC-tolerated special case: a single code of length 1.
                if !(allow_incomplete || (used == 1 && max_len == 1)) {
                    return Err(CodecError::Corrupt("incomplete huffman code"));
                }
            }
            std::cmp::Ordering::Equal => {}
        }

        let bits = primary_bits.min(u32::from(max_len));
        let primary = 1usize << bits;
        self.bits = bits;
        self.table.clear();
        self.table.resize(primary, 0);
        let entry_of = |sym: usize| match payload {
            Some(p) => p[sym],
            None => LITERAL | (sym as u32) << VALUE_SHIFT,
        };

        // Codes that fit the primary index fill every slot whose low bits
        // equal the bit-reversed code; longer ones only record, in the slot
        // of their first `bits` bits, how wide their sub-table must be.
        let table = &mut self.table;
        for_each_code(lengths, |sym, rev, len| {
            let (rev, len) = (usize::from(rev), u32::from(len));
            if len <= bits {
                let entry = entry_of(sym) | len;
                for slot in table[rev..].iter_mut().step_by(1 << len) {
                    *slot = entry;
                }
            } else {
                let link = &mut table[rev & (primary - 1)];
                *link = LINK | (*link & LEN_MASK).max(len - bits);
            }
        });
        if u32::from(max_len) > bits {
            // Second pass: give each linked slot its sub-table (offset 0 is
            // the primary table, so it reads as "none yet") and fill it.
            for_each_code(lengths, |sym, rev, len| {
                let (rev, len) = (usize::from(rev), u32::from(len));
                if len <= bits {
                    return;
                }
                let link = table[rev & (primary - 1)];
                let width = 1usize << (link & LEN_MASK);
                let mut offset = (link >> VALUE_SHIFT) as usize;
                if offset == 0 {
                    offset = table.len();
                    debug_assert!(offset + width <= 1 << 16);
                    table.resize(offset + width, 0);
                    table[rev & (primary - 1)] = link | (offset as u32) << VALUE_SHIFT;
                }
                let entry = entry_of(sym) | (len - bits);
                for slot in table[offset + (rev >> bits)..offset + width]
                    .iter_mut()
                    .step_by(1 << (len - bits))
                {
                    *slot = entry;
                }
            });
        }
        #[cfg(test)]
        BUILD_WORK.with(|w| w.set(w.get() + self.table.len()));
        Ok(())
    }

    /// The table and its primary index width, for a loop that indexes it
    /// directly.
    #[inline]
    pub(crate) fn table(&self) -> (&[u32], u32) {
        (&self.table, self.bits)
    }

    /// Reads one code: its final table entry, consumed. Peeks past the end
    /// of input read as zeros; only consuming past it is an error.
    #[inline]
    pub(crate) fn read_entry(&self, r: &mut BitReader<'_>) -> Result<u32> {
        let mut e = self.table[r.peek_bits(self.bits) as usize];
        let mut len = e & LEN_MASK;
        if e & LINK != 0 {
            let sub = r.peek_bits(self.bits + len) >> self.bits;
            e = self.table[(e >> VALUE_SHIFT) as usize + sub as usize];
            len = self.bits + (e & LEN_MASK);
        }
        if e & LEN_MASK == 0 {
            return Err(CodecError::Corrupt("invalid huffman code in stream"));
        }
        r.consume(len)?;
        Ok(e)
    }

    /// Decodes one symbol from the reader.
    #[inline]
    pub fn decode(&self, r: &mut BitReader<'_>) -> Result<usize> {
        Ok((self.read_entry(r)? >> VALUE_SHIFT) as usize)
    }
}

/// The package-merge this module's replaced, clone-per-package and
/// sort-per-level, kept as the oracle its lengths are compared against.
#[cfg(test)]
pub(crate) fn limited_code_lengths_oracle(freqs: &[u32], max_len: u8) -> Vec<u8> {
    let used: Vec<(u32, usize)> = freqs
        .iter()
        .enumerate()
        .filter(|(_, &f)| f > 0)
        .map(|(sym, &f)| (f, sym))
        .collect();

    let mut lengths = vec![0u8; freqs.len()];
    match used.len() {
        0 => return lengths,
        1 => {
            lengths[used[0].1] = 1;
            return lengths;
        }
        n => assert!(
            n <= 1usize << max_len,
            "cannot code {n} symbols in {max_len} bits"
        ),
    }

    // Package-merge. A "package" is a weight plus the multiset of leaves it
    // contains; we track leaf membership as per-symbol counts local to the
    // used-symbol indexing (0..n).
    let n = used.len();
    let mut sorted = used.clone();
    sorted.sort_unstable();

    // Each package: (weight, counts over used-leaf index)
    type Pkg = (u64, Vec<u16>);
    let leaf_pkgs: Vec<Pkg> = sorted
        .iter()
        .enumerate()
        .map(|(i, &(f, _))| {
            let mut counts = vec![0u16; n];
            counts[i] = 1;
            (u64::from(f), counts)
        })
        .collect();

    let mut prev: Vec<Pkg> = leaf_pkgs.clone();
    for _ in 1..max_len {
        // Pair up adjacent packages from the previous list…
        let mut merged: Vec<Pkg> = prev
            .chunks_exact(2)
            .map(|pair| {
                let mut counts = pair[0].1.clone();
                for (c, &d) in counts.iter_mut().zip(&pair[1].1) {
                    *c += d;
                }
                (pair[0].0 + pair[1].0, counts)
            })
            .collect();
        // …then merge with the fresh leaves, keeping the list sorted.
        merged.extend(leaf_pkgs.iter().cloned());
        merged.sort_by_key(|p| p.0);
        prev = merged;
    }

    // Take the first 2n-2 packages; each occurrence of a leaf adds one bit
    // to that symbol's code length.
    let mut depth = vec![0u16; n];
    for pkg in prev.iter().take(2 * n - 2) {
        for (d, &c) in depth.iter_mut().zip(&pkg.1) {
            *d += c;
        }
    }
    for (i, &(_, sym)) in sorted.iter().enumerate() {
        debug_assert!(depth[i] >= 1 && depth[i] <= u16::from(max_len));
        lengths[sym] = depth[i] as u8;
    }
    lengths
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitio::BitWriter;

    #[test]
    fn package_merge_matches_the_oracle_on_skewed_and_tied_frequencies() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut pm = PackageMerge::default();
        for round in 0..10_000 {
            let n = 2 + (next() % 285) as usize;
            let mut freqs: Vec<u32> = match round % 4 {
                // Fibonacci-skewed: forces the length limit to bind.
                0 => {
                    let (mut a, mut b) = (1u32, 1u32);
                    (0..n)
                        .map(|_| {
                            let f = a;
                            (a, b) = (b, a.saturating_add(b).min(1 << 28));
                            f
                        })
                        .collect()
                }
                // A handful of distinct values: heavy ties.
                1 => (0..n).map(|_| 1 + (next() % 3) as u32).collect(),
                // Power-law with many zeros.
                2 => (0..n)
                    .map(|_| ((1u64 << (next() % 20)) as u32) * (next() % 2) as u32)
                    .collect(),
                _ => (0..n).map(|_| (next() % 5000) as u32).collect(),
            };
            // Shuffle so symbol order and weight order disagree.
            for i in (1..n).rev() {
                freqs.swap(i, (next() % (i as u64 + 1)) as usize);
            }
            let used = freqs.iter().filter(|&&f| f > 0).count();
            let min_bits = used.next_power_of_two().trailing_zeros() as u8;
            let max_len = match round % 3 {
                0 => 15,
                1 => 7.max(min_bits),
                _ => (min_bits + (next() % 3) as u8).clamp(1, 15),
            };
            let mut got = vec![0xAAu8; n];
            pm.lengths(&freqs, max_len, &mut got);
            assert_eq!(
                got,
                limited_code_lengths_oracle(&freqs, max_len),
                "round {round}: {n} symbols, limit {max_len}, {freqs:?}"
            );
        }
    }

    #[test]
    fn single_symbol_gets_length_one() {
        let lengths = limited_code_lengths(&[0, 7, 0], 15);
        assert_eq!(lengths, vec![0, 1, 0]);
    }

    #[test]
    fn two_symbols() {
        let lengths = limited_code_lengths(&[3, 9], 15);
        assert_eq!(lengths, vec![1, 1]);
    }

    #[test]
    fn kraft_equality_holds() {
        let freqs = [5u32, 9, 12, 13, 16, 45, 0, 1, 1, 2];
        let lengths = limited_code_lengths(&freqs, 15);
        assert_eq!(kraft(&lengths), std::cmp::Ordering::Equal);
    }

    #[test]
    fn respects_length_limit() {
        // Fibonacci-ish frequencies force deep unbounded-Huffman trees.
        let freqs: Vec<u32> = {
            let mut v = vec![1u32, 1];
            for i in 2..20 {
                let next = v[i - 1] + v[i - 2];
                v.push(next);
            }
            v
        };
        for limit in [5u8, 7, 15] {
            let lengths = limited_code_lengths(&freqs, limit);
            assert!(lengths.iter().all(|&l| l <= limit), "limit {limit}");
            assert_eq!(kraft(&lengths), std::cmp::Ordering::Equal, "limit {limit}");
        }
    }

    #[test]
    fn limited_lengths_are_optimal_for_known_case() {
        // Classic example: freqs {A:1,B:1,C:2,D:4} → lengths 3,3,2,1.
        let lengths = limited_code_lengths(&[1, 1, 2, 4], 15);
        assert_eq!(lengths, vec![3, 3, 2, 1]);
    }

    #[test]
    fn canonical_codes_rfc_example() {
        // RFC 1951 §3.2.2 worked example: lengths (3,3,3,3,3,2,4,4)
        // → codes 010,011,100,101,110,00,1110,1111.
        let lengths = [3u8, 3, 3, 3, 3, 2, 4, 4];
        let codes = canonical_codes(&lengths);
        assert_eq!(
            codes,
            vec![0b010, 0b011, 0b100, 0b101, 0b110, 0b00, 0b1110, 0b1111]
        );
    }

    #[test]
    fn encode_decode_roundtrip() {
        let freqs = [10u32, 1, 1, 5, 3, 0, 8, 2, 2, 40];
        let lengths = limited_code_lengths(&freqs, 15);
        let enc = HuffEncoder::from_lengths(&lengths);
        let dec = HuffDecoder::from_lengths(&lengths, false).unwrap();

        let symbols: Vec<usize> = (0..freqs.len())
            .flat_map(|s| std::iter::repeat_n(s, freqs[s] as usize))
            .collect();
        let mut buf = Vec::new();
        {
            let mut w = BitWriter::new(&mut buf);
            for &s in &symbols {
                enc.write(&mut w, s);
            }
            w.finish();
        }
        let mut r = BitReader::new(&buf);
        for &expect in &symbols {
            assert_eq!(dec.decode(&mut r).unwrap(), expect);
        }
    }

    #[test]
    fn oversubscribed_rejected() {
        // Three codes of length 1 is over-subscribed.
        assert!(HuffDecoder::from_lengths(&[1, 1, 1], false).is_err());
        assert!(HuffDecoder::from_lengths(&[1, 1, 1], true).is_err());
    }

    #[test]
    fn incomplete_rejected_unless_allowed() {
        // One code of length 2 is incomplete (not the 1-bit special case).
        assert!(HuffDecoder::from_lengths(&[2, 0], false).is_err());
        assert!(HuffDecoder::from_lengths(&[2, 0], true).is_ok());
        // A single 1-bit code is always accepted (RFC special case).
        assert!(HuffDecoder::from_lengths(&[1, 0], false).is_ok());
    }

    #[test]
    fn decoding_garbage_under_incomplete_code_errors() {
        let dec = HuffDecoder::from_lengths(&[2, 0], true).unwrap();
        // Bits "11" do not map to any code (only "00" is assigned).
        let data = [0b0000_0011u8];
        let mut r = BitReader::new(&data);
        assert!(dec.decode(&mut r).is_err());
    }
}
