//! The paper-shaped API (§4.1): seven free functions operating on integer
//! descriptors, mirroring the C library's signatures —
//! `adoc_write(int d, …)`, `adoc_read(int d, …)`, `adoc_close(int d)` …
//!
//! Like the C implementation, the library keeps internal buffers for
//! partial reads in a single static table that "is always accessed
//! between locks" (§4.2), making the API thread-safe: different threads
//! can drive different descriptors concurrently.

use crate::config::AdocConfig;
use crate::socket::{AdocStreamGroup, SendReport};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fs::File;
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicI32, Ordering};
use std::sync::{Arc, OnceLock};

/// Object-safe view of an [`AdocStreamGroup`] so the registry can hold
/// any stream type.
trait AdocStreamObj: Send {
    fn write_levels(&mut self, data: &[u8], min: u8, max: u8) -> io::Result<SendReport>;
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize>;
    fn send_file_levels(&mut self, f: &mut File, min: u8, max: u8) -> io::Result<SendReport>;
    fn receive_file(&mut self, f: &mut File) -> io::Result<u64>;
    fn close(&mut self) -> io::Result<()>;
    fn min_level(&self) -> u8;
    fn max_level(&self) -> u8;
}

impl<R: Read + Send, W: Write + Send> AdocStreamObj for AdocStreamGroup<R, W> {
    fn write_levels(&mut self, data: &[u8], min: u8, max: u8) -> io::Result<SendReport> {
        AdocStreamGroup::write_levels(self, data, min, max)
    }

    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        AdocStreamGroup::read(self, out)
    }

    fn send_file_levels(&mut self, f: &mut File, min: u8, max: u8) -> io::Result<SendReport> {
        AdocStreamGroup::send_file_levels(self, f, min, max)
    }

    fn receive_file(&mut self, f: &mut File) -> io::Result<u64> {
        AdocStreamGroup::receive_file(self, f)
    }

    fn close(&mut self) -> io::Result<()> {
        self.close_mut()
    }

    fn min_level(&self) -> u8 {
        self.config().min_level
    }

    fn max_level(&self) -> u8 {
        self.config().max_level
    }
}

type Registry = Mutex<HashMap<i32, Arc<Mutex<Box<dyn AdocStreamObj>>>>>;

/// The C library's "static variable", `Mutex`-guarded exactly as §4.2
/// describes.
fn registry() -> &'static Registry {
    static REG: OnceLock<Registry> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(HashMap::new()))
}

static NEXT_FD: AtomicI32 = AtomicI32::new(3); // 0/1/2 are taken, as ever

fn lookup(d: i32) -> io::Result<Arc<Mutex<Box<dyn AdocStreamObj>>>> {
    registry().lock().get(&d).cloned().ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("bad AdOC descriptor {d}"),
        )
    })
}

/// Registers a reader/writer pair and returns its descriptor (the Rust
/// stand-in for handing AdOC an existing socket fd).
pub fn adoc_register<R, W>(reader: R, writer: W) -> i32
where
    R: Read + Send + 'static,
    W: Write + Send + 'static,
{
    adoc_register_cfg(reader, writer, AdocConfig::default())
        .expect("the default AdocConfig is always valid")
}

/// [`adoc_register`] with an explicit configuration. Fails with a typed
/// [`crate::AdocError::InvalidConfig`] when the configuration is
/// inconsistent.
pub fn adoc_register_cfg<R, W>(reader: R, writer: W, cfg: AdocConfig) -> io::Result<i32>
where
    R: Read + Send + 'static,
    W: Write + Send + 'static,
{
    adoc_register_group(vec![(reader, writer)], cfg)
}

/// Registers a striped stream group as one descriptor: the paper's API
/// with multi-stream transport underneath. No hello is exchanged: the
/// peer must register the same streams in the same order.
pub fn adoc_register_group<R, W>(pairs: Vec<(R, W)>, cfg: AdocConfig) -> io::Result<i32>
where
    R: Read + Send + 'static,
    W: Write + Send + 'static,
{
    let group = AdocStreamGroup::from_pairs(pairs, cfg)?;
    let d = NEXT_FD.fetch_add(1, Ordering::Relaxed);
    registry()
        .lock()
        .insert(d, Arc::new(Mutex::new(Box::new(group))));
    Ok(d)
}

/// `ssize_t adoc_write(int d, void *buf, size_t nbytes, ssize_t *slen)`:
/// sends `buf` as one message; on success returns `nbytes` and stores the
/// wire byte count in `slen`.
pub fn adoc_write(d: i32, buf: &[u8], slen: Option<&mut i64>) -> io::Result<usize> {
    let (min, max) = {
        let s = lookup(d)?;
        let g = s.lock();
        (g.min_level(), g.max_level())
    };
    adoc_write_levels(d, buf, slen, min, max)
}

/// `adoc_write_levels`: forces (`min ≥ 1`) or disables (`max = 0`)
/// compression for this call.
pub fn adoc_write_levels(
    d: i32,
    buf: &[u8],
    slen: Option<&mut i64>,
    min: u8,
    max: u8,
) -> io::Result<usize> {
    let s = lookup(d)?;
    let mut g = s.lock();
    let report = g.write_levels(buf, min, max)?;
    if let Some(out) = slen {
        *out = report.wire as i64;
    }
    Ok(buf.len())
}

/// `ssize_t adoc_read(int d, void *buf, size_t nbytes)`: POSIX-read
/// semantics; returns the number of bytes stored (0 = end of stream).
pub fn adoc_read(d: i32, buf: &mut [u8]) -> io::Result<usize> {
    let s = lookup(d)?;
    let mut g = s.lock();
    g.read(buf)
}

/// `adoc_send_file`: sends the whole file; returns its size and stores
/// the wire byte count in `slen`.
pub fn adoc_send_file(d: i32, file: &mut File, slen: Option<&mut i64>) -> io::Result<u64> {
    let (min, max) = {
        let s = lookup(d)?;
        let g = s.lock();
        (g.min_level(), g.max_level())
    };
    adoc_send_file_levels(d, file, slen, min, max)
}

/// `adoc_send_file_levels`: level-bounded file send.
pub fn adoc_send_file_levels(
    d: i32,
    file: &mut File,
    slen: Option<&mut i64>,
    min: u8,
    max: u8,
) -> io::Result<u64> {
    let s = lookup(d)?;
    let mut g = s.lock();
    let report = g.send_file_levels(file, min, max)?;
    if let Some(out) = slen {
        *out = report.wire as i64;
    }
    Ok(report.raw)
}

/// `adoc_receive_file`: receives one message into `file`; returns the
/// number of bytes stored.
pub fn adoc_receive_file(d: i32, file: &mut File) -> io::Result<u64> {
    let s = lookup(d)?;
    let mut g = s.lock();
    g.receive_file(file)
}

/// `adoc_close`: frees the descriptor's internal buffers and drops the
/// underlying streams.
pub fn adoc_close(d: i32) -> io::Result<()> {
    let entry = registry().lock().remove(&d).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("bad AdOC descriptor {d}"),
        )
    })?;
    let result = entry.lock().close();
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use adoc_sim::pipe::duplex_pipe;
    use std::thread;

    fn fd_pair() -> (i32, i32) {
        let (a, b) = duplex_pipe(1 << 20);
        let (ar, aw) = a.split();
        let (br, bw) = b.split();
        (adoc_register(ar, aw), adoc_register(br, bw))
    }

    #[test]
    fn write_read_through_descriptors() {
        let (tx, rx) = fd_pair();
        let mut slen = 0i64;
        let n = adoc_write(tx, b"descriptor api", Some(&mut slen)).unwrap();
        assert_eq!(n, 14);
        assert!(slen >= 14);
        let mut buf = [0u8; 32];
        let got = adoc_read(rx, &mut buf).unwrap();
        assert_eq!(&buf[..got], b"descriptor api");
        adoc_close(tx).unwrap();
        adoc_close(rx).unwrap();
    }

    #[test]
    fn bad_descriptor_errors() {
        assert!(adoc_write(-1, b"x", None).is_err());
        assert!(adoc_read(-1, &mut [0u8; 1]).is_err());
        assert!(adoc_close(-1).is_err());
    }

    #[test]
    fn double_close_errors() {
        let (tx, rx) = fd_pair();
        adoc_close(tx).unwrap();
        assert!(adoc_close(tx).is_err());
        adoc_close(rx).unwrap();
    }

    #[test]
    fn concurrent_descriptors_from_many_threads() {
        // §4.2's thread-safety claim: different threads, different
        // descriptors, simultaneously.
        let pairs: Vec<(i32, i32)> = (0..8).map(|_| fd_pair()).collect();
        let mut handles = Vec::new();
        for (i, (tx, rx)) in pairs.into_iter().enumerate() {
            handles.push(thread::spawn(move || {
                let msg = format!("thread {i} payload ").repeat(500);
                let t = thread::spawn(move || {
                    adoc_write(tx, msg.as_bytes(), None).unwrap();
                    adoc_close(tx).unwrap();
                    msg
                });
                let mut buf = vec![0u8; 20_000];
                let mut total = 0;
                loop {
                    let n = adoc_read(rx, &mut buf[total..]).unwrap();
                    if n == 0 {
                        break;
                    }
                    total += n;
                }
                let msg = t.join().unwrap();
                assert_eq!(&buf[..total], msg.as_bytes());
                adoc_close(rx).unwrap();
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn group_descriptors_stripe_transparently() {
        // The paper's descriptor API over a 2-stream group: plain
        // adoc_write/adoc_read.
        let mut left = Vec::new();
        let mut right = Vec::new();
        for _ in 0..2 {
            let (a, b) = duplex_pipe(1 << 20);
            left.push(a.split());
            right.push(b.split());
        }
        let cfg = AdocConfig::default().with_levels(1, 10);
        let tx = adoc_register_group(left, cfg.clone()).unwrap();
        let rx = adoc_register_group(right, cfg).unwrap();
        let data = b"striped descriptor payload ".repeat(40_000); // ~1 MB
        let data2 = data.clone();
        let t = thread::spawn(move || {
            let mut slen = 0i64;
            adoc_write(tx, &data2, Some(&mut slen)).unwrap();
            assert!(slen > 0);
            adoc_close(tx).unwrap();
        });
        let mut buf = vec![0u8; data.len()];
        let mut total = 0;
        while total < data.len() {
            let n = adoc_read(rx, &mut buf[total..]).unwrap();
            assert!(n > 0);
            total += n;
        }
        t.join().unwrap();
        assert_eq!(buf, data);
        adoc_close(rx).unwrap();
    }

    #[test]
    fn write_levels_through_descriptor() {
        let (tx, rx) = fd_pair();
        let data = b"force me ".repeat(100_000); // 900 KB
        let data2 = data.clone();
        let t = thread::spawn(move || {
            let mut slen = 0i64;
            adoc_write_levels(tx, &data2, Some(&mut slen), 1, 10).unwrap();
            assert!(
                (slen as usize) < data2.len(),
                "forced compression must shrink"
            );
            adoc_close(tx).unwrap();
        });
        let mut buf = vec![0u8; data.len()];
        let mut total = 0;
        while total < data.len() {
            let n = adoc_read(rx, &mut buf[total..]).unwrap();
            assert!(n > 0);
            total += n;
        }
        t.join().unwrap();
        assert_eq!(buf, data);
        adoc_close(rx).unwrap();
    }
}
