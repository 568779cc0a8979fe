//! Bounded in-memory byte pipe with POSIX-like semantics.
//!
//! This is the unshaped building block: [`link`](crate::link) adds
//! bandwidth and latency on top. Semantics mirror a UNIX pipe / loopback
//! socket:
//!
//! * `read` blocks until at least one byte is available, returns `Ok(0)`
//!   only at EOF (writer closed and buffer drained);
//! * `write` blocks while the buffer is full, fails with `BrokenPipe` once
//!   the reader is gone;
//! * dropping an endpoint closes its side.

use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::sync::Arc;

struct PipeState {
    buf: VecDeque<u8>,
    capacity: usize,
    write_closed: bool,
    read_closed: bool,
}

struct PipeShared {
    state: Mutex<PipeState>,
    not_empty: Condvar,
    not_full: Condvar,
}

/// Creates a pipe with the given buffer capacity in bytes.
pub fn pipe(capacity: usize) -> (PipeWriter, PipeReader) {
    assert!(capacity > 0, "pipe capacity must be positive");
    let shared = Arc::new(PipeShared {
        state: Mutex::new(PipeState {
            buf: VecDeque::with_capacity(capacity.min(1 << 20)),
            capacity,
            write_closed: false,
            read_closed: false,
        }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (
        PipeWriter {
            shared: shared.clone(),
        },
        PipeReader { shared },
    )
}

/// Write end of a [`pipe`].
pub struct PipeWriter {
    shared: Arc<PipeShared>,
}

/// Read end of a [`pipe`].
pub struct PipeReader {
    shared: Arc<PipeShared>,
}

impl Write for PipeWriter {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        if data.is_empty() {
            return Ok(0);
        }
        let mut st = self.shared.state.lock();
        loop {
            if st.read_closed {
                return Err(io::Error::new(
                    io::ErrorKind::BrokenPipe,
                    "pipe reader closed",
                ));
            }
            let space = st.capacity - st.buf.len();
            if space > 0 {
                let n = space.min(data.len());
                // `extend` from a byte slice lowers to memcpy.
                st.buf.extend(&data[..n]);
                drop(st);
                self.shared.not_empty.notify_one();
                return Ok(n);
            }
            self.shared.not_full.wait(&mut st);
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl PipeWriter {
    /// Signals EOF to the reader without dropping the handle.
    pub fn close(&self) {
        let mut st = self.shared.state.lock();
        st.write_closed = true;
        drop(st);
        self.shared.not_empty.notify_all();
    }
}

impl Drop for PipeWriter {
    fn drop(&mut self) {
        self.close();
    }
}

impl Read for PipeReader {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        if out.is_empty() {
            return Ok(0);
        }
        let mut st = self.shared.state.lock();
        loop {
            if !st.buf.is_empty() {
                // Two memcpys at most: the ring's front run, then its
                // wrapped-around back run.
                let (front, back) = st.buf.as_slices();
                let n = out.len().min(front.len() + back.len());
                let k = n.min(front.len());
                out[..k].copy_from_slice(&front[..k]);
                out[k..n].copy_from_slice(&back[..n - k]);
                st.buf.drain(..n);
                drop(st);
                self.shared.not_full.notify_one();
                return Ok(n);
            }
            if st.write_closed {
                return Ok(0); // EOF
            }
            self.shared.not_empty.wait(&mut st);
        }
    }
}

impl PipeReader {
    /// Abandons the read side; subsequent peer writes fail with
    /// `BrokenPipe`.
    pub fn close(&self) {
        let mut st = self.shared.state.lock();
        st.read_closed = true;
        drop(st);
        self.shared.not_full.notify_all();
    }
}

impl Drop for PipeReader {
    fn drop(&mut self) {
        self.close();
    }
}

/// A pair of connected bidirectional in-memory streams (like
/// `socketpair(2)`), built from two pipes.
pub fn duplex_pipe(capacity: usize) -> (PipeDuplex, PipeDuplex) {
    let (w_ab, r_ab) = pipe(capacity);
    let (w_ba, r_ba) = pipe(capacity);
    (
        PipeDuplex { r: r_ba, w: w_ab },
        PipeDuplex { r: r_ab, w: w_ba },
    )
}

/// One endpoint of [`duplex_pipe`].
pub struct PipeDuplex {
    r: PipeReader,
    w: PipeWriter,
}

impl PipeDuplex {
    /// Splits into independently-owned halves (for reader/writer threads).
    pub fn split(self) -> (PipeReader, PipeWriter) {
        (self.r, self.w)
    }

    /// Closes the write direction (half-close), leaving reads usable.
    pub fn shutdown_write(&self) {
        self.w.close();
    }
}

impl Read for PipeDuplex {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        self.r.read(out)
    }
}

impl Write for PipeDuplex {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.w.write(data)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::thread;

    #[test]
    fn basic_transfer() {
        let (mut w, mut r) = pipe(16);
        w.write_all(b"hello").unwrap();
        let mut buf = [0u8; 5];
        r.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hello");
    }

    #[test]
    fn blocking_backpressure() {
        let (mut w, mut r) = pipe(8);
        let t = thread::spawn(move || {
            // 64 bytes through an 8-byte buffer requires reader progress.
            w.write_all(&[7u8; 64]).unwrap();
        });
        let mut total = 0;
        let mut buf = [0u8; 16];
        while total < 64 {
            let n = r.read(&mut buf).unwrap();
            assert!(n > 0);
            assert!(buf[..n].iter().all(|&b| b == 7));
            total += n;
        }
        t.join().unwrap();
    }

    #[test]
    fn eof_after_writer_drop() {
        let (w, mut r) = pipe(8);
        {
            let mut w = w;
            w.write_all(b"xy").unwrap();
        } // dropped → EOF after drain
        let mut buf = Vec::new();
        r.read_to_end(&mut buf).unwrap();
        assert_eq!(buf, b"xy");
    }

    #[test]
    fn broken_pipe_after_reader_drop() {
        let (mut w, r) = pipe(4);
        drop(r);
        // The buffer may accept up to capacity? No: reader is gone, error
        // immediately.
        let err = w.write(b"data!").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
    }

    #[test]
    fn writer_blocked_on_full_buffer_unblocks_on_reader_close() {
        let (mut w, r) = pipe(4);
        w.write_all(b"full").unwrap();
        let t = thread::spawn(move || w.write(b"more"));
        thread::sleep(std::time::Duration::from_millis(20));
        drop(r);
        let res = t.join().unwrap();
        assert_eq!(res.unwrap_err().kind(), io::ErrorKind::BrokenPipe);
    }

    #[test]
    fn duplex_both_directions() {
        let (mut a, mut b) = duplex_pipe(64);
        a.write_all(b"ping").unwrap();
        let mut buf = [0u8; 4];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
        b.write_all(b"pong").unwrap();
        a.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"pong");
    }

    #[test]
    fn large_transfer_integrity_across_threads() {
        let (mut w, mut r) = pipe(1024);
        let data: Vec<u8> = (0..1_000_003u32).map(|i| (i % 251) as u8).collect();
        let expect = data.clone();
        let t = thread::spawn(move || w.write_all(&data).unwrap());
        let mut got = Vec::new();
        r.read_to_end(&mut got).unwrap();
        t.join().unwrap();
        assert_eq!(got, expect);
    }

    #[test]
    fn zero_length_ops() {
        let (mut w, mut r) = pipe(4);
        assert_eq!(w.write(b"").unwrap(), 0);
        assert_eq!(r.read(&mut []).unwrap(), 0);
    }

    /// True when the buffered bytes wrap around the ring's end.
    fn wrapped(r: &PipeReader) -> bool {
        !r.shared.state.lock().buf.as_slices().1.is_empty()
    }

    #[test]
    fn one_read_returns_both_halves_of_wrapped_data() {
        let (mut w, mut r) = pipe(8);
        let data: Vec<u8> = (1..=12).collect();
        assert_eq!(w.write(&data[..6]).unwrap(), 6);
        let mut out = [0u8; 64];
        assert_eq!(r.read(&mut out[..4]).unwrap(), 4);
        assert_eq!(w.write(&data[6..]).unwrap(), 6);
        assert!(wrapped(&r), "the test needs data across the ring's end");
        assert_eq!(r.read(&mut out).unwrap(), 8);
        assert_eq!(&out[..8], &data[4..]);
    }

    #[test]
    fn random_interleavings_through_a_small_pipe_match_a_reference() {
        // Single-threaded, so an op only runs when it cannot block: a
        // write needs space, a read needs bytes. A 64-byte pipe with ops
        // up to 100 bytes wraps the ring often.
        let mut wraps = 0;
        for seed in 1..=16u64 {
            let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut next = |below: u64| crate::link::xorshift(&mut rng) % below;
            let (mut w, mut r) = pipe(64);
            let mut sent: Vec<u8> = Vec::new();
            let mut got: Vec<u8> = Vec::new();
            for _ in 0..1_000 {
                let buffered = sent.len() - got.len();
                let len = 1 + next(100) as usize;
                if buffered < 64 && (buffered == 0 || next(2) == 0) {
                    let chunk: Vec<u8> = (0..len).map(|_| next(256) as u8).collect();
                    let n = w.write(&chunk).unwrap();
                    assert_eq!(n, len.min(64 - buffered), "seed {seed}: write");
                    sent.extend_from_slice(&chunk[..n]);
                } else {
                    wraps += usize::from(wrapped(&r));
                    let mut out = vec![0u8; len];
                    let n = r.read(&mut out).unwrap();
                    assert_eq!(n, len.min(buffered), "seed {seed}: read");
                    got.extend_from_slice(&out[..n]);
                    assert_eq!(got[..], sent[..got.len()], "seed {seed}: bytes");
                }
            }
            drop(w);
            r.read_to_end(&mut got).unwrap();
            assert_eq!(got, sent, "seed {seed}: drained");
        }
        assert!(wraps > 100, "only {wraps} reads saw wrapped data");
    }
}
