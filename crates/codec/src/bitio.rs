//! Bit-level I/O in DEFLATE order (RFC 1951 §3.1.1).
//!
//! Bits are packed into bytes starting from the least-significant bit.
//! Huffman codes are transmitted most-significant-code-bit first, which the
//! encoder handles by bit-reversing codes before calling
//! [`BitWriter::write_bits`].

use crate::error::{CodecError, Result};

/// Accumulates bits LSB-first in a 64-bit word and stores whole words
/// into `out`.
///
/// While the writer lives, `out` is longer than what has been written:
/// the tail is zeroed scratch that word stores land in. [`finish`] (or
/// dropping the writer) pads to a byte boundary and cuts `out` back to the
/// bytes written. [`reserve`] sizes the scratch ahead of a run of writes so
/// none of them has to grow the vector.
///
/// [`finish`]: BitWriter::finish
/// [`reserve`]: BitWriter::reserve
pub struct BitWriter<'a> {
    out: &'a mut Vec<u8>,
    /// Bytes of `out` that are final; `out[pos..]` is scratch.
    pos: usize,
    /// Pending bits, low bits are the oldest.
    acc: u64,
    /// Number of valid bits in `acc` (always < 8 between writes).
    nbits: u32,
}

impl<'a> BitWriter<'a> {
    /// Starts writing at the current end of `out`.
    pub fn new(out: &'a mut Vec<u8>) -> Self {
        let pos = out.len();
        BitWriter {
            out,
            pos,
            acc: 0,
            nbits: 0,
        }
    }

    /// Makes room for `bytes` more bytes of output, so the writes that
    /// produce them store without growing `out`.
    pub fn reserve(&mut self, bytes: usize) {
        // A store is a whole word wherever it starts.
        let need = self.pos + bytes + 8;
        if self.out.len() < need {
            self.out.resize(need, 0);
        }
    }

    /// Appends the `n` low bits of `value` (n ≤ 32).
    #[inline]
    pub fn write_bits(&mut self, value: u32, n: u32) {
        debug_assert!(n <= 32);
        self.put(u64::from(value), n);
    }

    /// Appends the `n` low bits of `value` (n ≤ 56; the bits above must be
    /// zero): merge into the accumulator, store the whole word at the
    /// write position, keep the bits of the last partial byte.
    #[inline]
    pub(crate) fn put(&mut self, value: u64, n: u32) {
        debug_assert!(n <= 56 && value >> n == 0);
        self.acc |= value << self.nbits;
        self.nbits += n;
        let word = self.acc.to_le_bytes();
        match self.out.get_mut(self.pos..self.pos + 8) {
            Some(dst) => dst.copy_from_slice(&word),
            None => self.store_grown(word),
        }
        let whole = self.nbits & !7;
        self.pos += (whole >> 3) as usize;
        self.acc >>= whole;
        self.nbits &= 7;
    }

    /// The store of a write nobody reserved for.
    #[cold]
    #[inline(never)]
    fn store_grown(&mut self, word: [u8; 8]) {
        self.reserve(256 + self.pos / 2);
        self.out[self.pos..self.pos + 8].copy_from_slice(&word);
    }

    /// Pads with zero bits to the next byte boundary (used before stored
    /// blocks and at end of stream).
    pub fn align_byte(&mut self) {
        if self.nbits > 0 {
            self.put(0, 8 - self.nbits);
        }
    }

    /// Appends whole bytes; the writer must be byte-aligned (stored
    /// blocks).
    pub(crate) fn append_bytes(&mut self, bytes: &[u8]) {
        debug_assert_eq!(self.nbits, 0, "must be byte-aligned");
        self.out.truncate(self.pos);
        self.out.extend_from_slice(bytes);
        self.pos = self.out.len();
    }

    /// Flushes any partial byte and returns the underlying buffer length.
    pub fn finish(mut self) -> usize {
        self.seal();
        self.pos
    }

    fn seal(&mut self) {
        self.align_byte();
        self.out.truncate(self.pos);
    }
}

impl Drop for BitWriter<'_> {
    fn drop(&mut self) {
        self.seal();
    }
}

/// Reads bits LSB-first from a byte slice.
///
/// The reader deliberately allows peeking past the end of input (padding
/// with zeros) because DEFLATE decoders routinely over-peek during table
/// lookups; consuming past the end is an error.
pub struct BitReader<'a> {
    data: &'a [u8],
    /// Next byte to load into the accumulator.
    pos: usize,
    acc: u64,
    nbits: u32,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `data`.
    pub fn new(data: &'a [u8]) -> Self {
        BitReader {
            data,
            pos: 0,
            acc: 0,
            nbits: 0,
        }
    }

    /// Ensures at least `n` bits are in the accumulator (zero-padding past
    /// the end of input).
    #[inline]
    fn fill(&mut self, n: u32) {
        while self.nbits < n && self.pos < self.data.len() {
            self.acc |= u64::from(self.data[self.pos]) << self.nbits;
            self.pos += 1;
            self.nbits += 8;
        }
    }

    /// Returns the next `n` bits without consuming them, zero-padded if the
    /// stream is shorter.
    #[inline]
    pub fn peek_bits(&mut self, n: u32) -> u32 {
        debug_assert!(n <= 32);
        self.fill(n);
        (self.acc & ((1u64 << n) - 1)) as u32
    }

    /// Consumes `n` bits previously peeked. Errors if fewer than `n` bits of
    /// real input remain.
    #[inline]
    pub fn consume(&mut self, n: u32) -> Result<()> {
        self.fill(n);
        if self.nbits < n {
            return Err(CodecError::UnexpectedEof);
        }
        self.acc >>= n;
        self.nbits -= n;
        Ok(())
    }

    /// Reads and consumes `n` bits (n ≤ 32).
    #[inline]
    pub fn read_bits(&mut self, n: u32) -> Result<u32> {
        let v = self.peek_bits(n);
        self.consume(n)?;
        Ok(v)
    }

    /// Discards bits up to the next byte boundary.
    pub fn align_byte(&mut self) {
        let drop = self.nbits % 8;
        self.acc >>= drop;
        self.nbits -= drop;
    }

    /// Reads `len` whole bytes after an `align_byte` (stored blocks).
    pub fn read_aligned_bytes(&mut self, len: usize) -> Result<&'a [u8]> {
        debug_assert_eq!(self.nbits % 8, 0, "must be byte-aligned");
        // Return buffered bytes to the stream: they were loaded whole.
        let buffered = (self.nbits / 8) as usize;
        let start = self.pos - buffered;
        if self.data.len() - start < len {
            return Err(CodecError::UnexpectedEof);
        }
        let slice = &self.data[start..start + len];
        self.pos = start + len;
        self.acc = 0;
        self.nbits = 0;
        Ok(slice)
    }

    /// True if every real input bit has been consumed (ignores zero padding).
    pub fn is_exhausted(&self) -> bool {
        self.pos >= self.data.len() && self.nbits == 0
    }

    /// Number of whole input bytes not yet consumed (buffered bits count).
    pub fn remaining_bytes(&self) -> usize {
        self.data.len() - self.pos + (self.nbits / 8) as usize
    }

    /// The reader's state for a loop that keeps it in locals: the input,
    /// the next byte to load, the accumulator and its valid bit count.
    pub(crate) fn raw(&self) -> (&'a [u8], usize, u64, u32) {
        (self.data, self.pos, self.acc, self.nbits)
    }

    /// Takes the state back from such a loop. Bits of `acc` above `nbits`
    /// (a word refill loads more than it counts) are dropped.
    pub(crate) fn set_raw(&mut self, pos: usize, acc: u64, nbits: u32) {
        debug_assert!(nbits < 64 && pos <= self.data.len());
        self.pos = pos;
        self.acc = acc & ((1u64 << nbits) - 1);
        self.nbits = nbits;
    }
}

/// Reverses the low `n` bits of `code` — converts an MSB-first Huffman code
/// into the LSB-first order `BitWriter` expects.
#[inline]
pub fn reverse_bits(code: u16, n: u8) -> u16 {
    code.reverse_bits() >> (16 - u16::from(n))
}

/// The byte-at-a-time writer [`BitWriter`] replaced, kept as the oracle
/// its bytes are compared against.
#[cfg(test)]
pub(crate) struct ByteBitWriter {
    pub(crate) out: Vec<u8>,
    acc: u64,
    nbits: u32,
}

#[cfg(test)]
impl ByteBitWriter {
    pub(crate) fn new() -> Self {
        ByteBitWriter {
            out: Vec::new(),
            acc: 0,
            nbits: 0,
        }
    }

    pub(crate) fn write_bits(&mut self, value: u32, n: u32) {
        self.acc |= u64::from(value) << self.nbits;
        self.nbits += n;
        while self.nbits >= 8 {
            self.out.push((self.acc & 0xff) as u8);
            self.acc >>= 8;
            self.nbits -= 8;
        }
    }

    pub(crate) fn align_byte(&mut self) {
        if self.nbits > 0 {
            self.out.push((self.acc & 0xff) as u8);
            self.acc = 0;
            self.nbits = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_writer_emits_the_bytewise_oracles_bytes() {
        // Random (value, width) runs with alignments and byte appends in
        // between, with and without a reservation, behind a prefix.
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for round in 0..2000 {
            let mut oracle = ByteBitWriter::new();
            let mut buf = b"prefix".to_vec();
            let mut w = BitWriter::new(&mut buf);
            if round % 3 == 0 {
                w.reserve((next() % 600) as usize);
            }
            for _ in 0..next() % 200 {
                let n = (next() % 33) as u32;
                let v = (next() & ((1u64 << n) - 1)) as u32;
                w.write_bits(v, n);
                oracle.write_bits(v, n);
                match next() % 23 {
                    0 => {
                        w.align_byte();
                        oracle.align_byte();
                    }
                    1 => {
                        w.align_byte();
                        oracle.align_byte();
                        let bytes = next().to_le_bytes();
                        let k = (next() % 9) as usize;
                        w.append_bytes(&bytes[..k]);
                        oracle.out.extend_from_slice(&bytes[..k]);
                    }
                    _ => {}
                }
            }
            if round % 2 == 0 {
                let len = w.finish();
                assert_eq!(len, buf.len());
            } else {
                drop(w);
            }
            oracle.align_byte();
            assert_eq!(&buf[..6], b"prefix");
            assert_eq!(&buf[6..], &oracle.out[..], "round {round}");
        }
    }

    #[test]
    fn merged_put_equals_separate_writes() {
        let mut a = Vec::new();
        let mut w = BitWriter::new(&mut a);
        w.write_bits(0b101, 3);
        w.put(0x00AB_CDEF_0123_4567 & ((1 << 56) - 1), 56);
        w.put(0x1F, 5);
        w.finish();
        let mut o = ByteBitWriter::new();
        o.write_bits(0b101, 3);
        o.write_bits(0x0123_4567, 32);
        o.write_bits(0x00AB_CDEF, 24);
        o.write_bits(0x1F, 5);
        o.align_byte();
        assert_eq!(a, o.out);
    }

    #[test]
    fn roundtrip_mixed_widths() {
        let mut buf = Vec::new();
        {
            let mut w = BitWriter::new(&mut buf);
            w.write_bits(0b1, 1);
            w.write_bits(0b1010, 4);
            w.write_bits(0x3FFF, 14);
            w.write_bits(0xDEADBEEF, 32);
            w.write_bits(0, 3);
            w.finish();
        }
        let mut r = BitReader::new(&buf);
        assert_eq!(r.read_bits(1).unwrap(), 0b1);
        assert_eq!(r.read_bits(4).unwrap(), 0b1010);
        assert_eq!(r.read_bits(14).unwrap(), 0x3FFF);
        assert_eq!(r.read_bits(32).unwrap(), 0xDEADBEEF);
        assert_eq!(r.read_bits(3).unwrap(), 0);
    }

    #[test]
    fn lsb_first_bit_order() {
        let mut buf = Vec::new();
        let mut w = BitWriter::new(&mut buf);
        // Writing 1,0,1,1 as single bits must produce 0b...1101 = 0x0D.
        for bit in [1u32, 0, 1, 1] {
            w.write_bits(bit, 1);
        }
        w.finish();
        assert_eq!(buf, vec![0b0000_1101]);
    }

    #[test]
    fn align_and_stored_bytes() {
        let mut buf = Vec::new();
        {
            let mut w = BitWriter::new(&mut buf);
            w.write_bits(0b101, 3);
            w.align_byte();
            w.finish();
        }
        buf.extend_from_slice(&[0xAA, 0xBB, 0xCC]);
        let mut r = BitReader::new(&buf);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        r.align_byte();
        let bytes = r.read_aligned_bytes(3).unwrap();
        assert_eq!(bytes, &[0xAA, 0xBB, 0xCC]);
        assert!(r.is_exhausted());
    }

    #[test]
    fn align_with_buffered_bytes_returns_them() {
        // Force the reader to buffer more than one byte, then align and read
        // stored data: the buffered bytes must be handed back in order.
        let data = [0b0000_0001u8, 0x11, 0x22, 0x33];
        let mut r = BitReader::new(&data);
        // peek 20 bits loads 3 bytes into the accumulator
        let _ = r.peek_bits(20);
        assert_eq!(r.read_bits(1).unwrap(), 1);
        r.align_byte();
        assert_eq!(r.read_aligned_bytes(3).unwrap(), &[0x11, 0x22, 0x33]);
    }

    #[test]
    fn over_read_errors() {
        let mut r = BitReader::new(&[0xFF]);
        assert_eq!(r.read_bits(8).unwrap(), 0xFF);
        assert!(r.read_bits(1).is_err());
    }

    #[test]
    fn peek_past_end_is_zero_padded() {
        let mut r = BitReader::new(&[0x01]);
        assert_eq!(r.peek_bits(16), 0x0001);
        r.consume(8).unwrap();
        assert!(r.consume(1).is_err());
    }

    #[test]
    fn reverse_bits_examples() {
        assert_eq!(reverse_bits(0b1, 1), 0b1);
        assert_eq!(reverse_bits(0b110, 3), 0b011);
        assert_eq!(reverse_bits(0b10000000, 8), 0b00000001);
        assert_eq!(reverse_bits(0x0001, 15), 0x4000);
    }
}
