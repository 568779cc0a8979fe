//! Shaped duplex links: bandwidth (possibly time-varying), propagation
//! latency, jitter, bounded sender burst and receiver window.
//!
//! The model reproduces the two properties AdOC's heuristics depend on:
//!
//! 1. **writes block at line rate** once the send-buffer burst credit is
//!    exhausted — this is what the 256 KB probe (paper §5) measures;
//! 2. **bytes become readable only after serialization + propagation** —
//!    so application-level bandwidth and zero-byte ping-pong latency come
//!    out as the paper's Table 2 profiles dictate.

use crate::trace::BandwidthTrace;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Below this remaining wait we spin instead of sleeping: OS timers are too
/// coarse for the Gbit profile's tens-of-microseconds latencies.
const SPIN_THRESHOLD: Duration = Duration::from_micros(200);

/// Sleeps until `deadline` with sub-OS-timer precision.
pub fn precise_sleep_until(deadline: Instant) {
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let left = deadline - now;
        if left > SPIN_THRESHOLD {
            std::thread::sleep(left - SPIN_THRESHOLD);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Configuration of one link direction.
#[derive(Debug, Clone)]
pub struct LinkCfg {
    /// Link capacity over time.
    pub trace: BandwidthTrace,
    /// One-way propagation delay.
    pub latency: Duration,
    /// Uniform random extra delay in `[0, jitter)` per segment.
    pub jitter: Duration,
    /// Send-buffer burst credit in bytes: writes complete instantly until
    /// this many bytes are in flight, then block at line rate (socket
    /// send-buffer analog).
    pub sndbuf: usize,
    /// Maximum bytes queued awaiting the reader (receive-window analog).
    pub rcv_window: usize,
    /// Segment granularity for pacing and delivery.
    pub mtu: usize,
    /// Seed for the jitter generator.
    pub seed: u64,
}

impl LinkCfg {
    /// A constant-rate link with the given capacity and one-way latency.
    ///
    /// The segment size (MTU) scales with capacity — roughly one
    /// millisecond of wire time per segment, floored at 16 KB — so fast
    /// links don't drown the host in per-segment wakeups (important on
    /// small machines, where scheduler latency would otherwise cap the
    /// simulated rate well below nominal).
    pub fn new(bits_per_sec: f64, latency: Duration) -> Self {
        let mtu = ((bits_per_sec / 8.0 / 1000.0) as usize).clamp(16 * 1024, 256 * 1024);
        LinkCfg {
            trace: BandwidthTrace::constant(bits_per_sec),
            latency,
            jitter: Duration::ZERO,
            sndbuf: (64 * 1024).max(mtu),
            rcv_window: 4 << 20,
            mtu,
            seed: 0x5EED_CAFE,
        }
    }

    /// Replaces the bandwidth trace (congestion scenarios).
    pub fn with_trace(mut self, trace: BandwidthTrace) -> Self {
        self.trace = trace;
        self
    }

    /// Adds uniform jitter in `[0, jitter)`.
    pub fn with_jitter(mut self, jitter: Duration, seed: u64) -> Self {
        self.jitter = jitter;
        self.seed = seed;
        self
    }

    /// Overrides the send-buffer burst credit.
    pub fn with_sndbuf(mut self, bytes: usize) -> Self {
        self.sndbuf = bytes;
        self
    }
}

struct Segment {
    deliver_at: Instant,
    data: Vec<u8>,
    offset: usize,
}

struct ChanInner {
    queue: VecDeque<Segment>,
    queued_bytes: usize,
    /// Virtual wire clock: when the last injected byte finishes
    /// serialization.
    wire_clock: Instant,
    /// Monotone delivery floor (jitter must not reorder in-order delivery).
    last_deliver: Instant,
    write_closed: bool,
    read_closed: bool,
    rng: u64,
    /// Total payload bytes accepted (observability).
    tx_bytes: u64,
}

struct Chan {
    inner: Mutex<ChanInner>,
    not_empty: Condvar,
    not_full: Condvar,
    cfg: LinkCfg,
    epoch: Instant,
}

impl Chan {
    fn new(cfg: LinkCfg) -> Arc<Self> {
        assert!(
            cfg.mtu > 0 && cfg.rcv_window >= cfg.mtu,
            "rcv_window must hold at least one MTU"
        );
        let now = Instant::now();
        Arc::new(Chan {
            inner: Mutex::new(ChanInner {
                queue: VecDeque::new(),
                queued_bytes: 0,
                wire_clock: now,
                last_deliver: now,
                write_closed: false,
                read_closed: false,
                rng: cfg.seed | 1,
                tx_bytes: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            cfg,
            epoch: now,
        })
    }
}

pub(crate) fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Write end of one link direction.
pub struct LinkWriter {
    chan: Arc<Chan>,
}

/// Read end of one link direction.
pub struct LinkReader {
    chan: Arc<Chan>,
}

fn one_direction(cfg: LinkCfg) -> (LinkWriter, LinkReader) {
    let chan = Chan::new(cfg);
    (LinkWriter { chan: chan.clone() }, LinkReader { chan })
}

impl Write for LinkWriter {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        if data.is_empty() {
            return Ok(0);
        }
        let mtu = self.chan.cfg.mtu;
        let mut written = 0usize;
        for chunk in data.chunks(mtu) {
            self.write_chunk(chunk)?;
            written += chunk.len();
        }
        Ok(written)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl LinkWriter {
    fn write_chunk(&self, chunk: &[u8]) -> io::Result<()> {
        let chan = &*self.chan;
        let mut g = chan.inner.lock();
        // Receiver-window backpressure.
        loop {
            if g.read_closed {
                return Err(io::Error::new(
                    io::ErrorKind::BrokenPipe,
                    "link reader closed",
                ));
            }
            if g.queued_bytes + chunk.len() <= chan.cfg.rcv_window {
                break;
            }
            chan.not_full.wait(&mut g);
        }

        let now = Instant::now();
        let start = g.wire_clock.max(now);
        let t_local = start.duration_since(chan.epoch).as_secs_f64();
        let ser = chan.cfg.trace.serialize_secs(t_local, chunk.len());
        g.wire_clock = start + Duration::from_secs_f64(ser);

        let mut deliver_at = g.wire_clock + chan.cfg.latency;
        if chan.cfg.jitter > Duration::ZERO {
            let j = xorshift(&mut g.rng) % (chan.cfg.jitter.as_nanos().max(1) as u64);
            deliver_at += Duration::from_nanos(j);
        }
        // In-order delivery: never before an earlier segment.
        deliver_at = deliver_at.max(g.last_deliver);
        g.last_deliver = deliver_at;

        g.queue.push_back(Segment {
            deliver_at,
            data: chunk.to_vec(),
            offset: 0,
        });
        g.queued_bytes += chunk.len();
        g.tx_bytes += chunk.len() as u64;

        // Burst credit: block (outside the lock) until at most `sndbuf`
        // bytes are still being serialized.
        let credit = chan.cfg.trace.serialize_secs(t_local, chan.cfg.sndbuf);
        let unblock_at = g
            .wire_clock
            .checked_sub(Duration::from_secs_f64(credit.min(3600.0)));
        drop(g);
        chan.not_empty.notify_one();
        if let Some(deadline) = unblock_at {
            if deadline > Instant::now() {
                precise_sleep_until(deadline);
            }
        }
        Ok(())
    }

    /// Half-closes the direction; the reader sees EOF after draining.
    pub fn close(&self) {
        let mut g = self.chan.inner.lock();
        g.write_closed = true;
        drop(g);
        self.chan.not_empty.notify_all();
    }

    /// Total payload bytes accepted by this direction so far.
    pub fn tx_bytes(&self) -> u64 {
        self.chan.inner.lock().tx_bytes
    }
}

impl Drop for LinkWriter {
    fn drop(&mut self) {
        self.close();
    }
}

impl Read for LinkReader {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        if out.is_empty() {
            return Ok(0);
        }
        let chan = &*self.chan;
        let mut g = chan.inner.lock();
        loop {
            let now = Instant::now();
            // Copy every segment that has already "arrived".
            let mut n = 0usize;
            while n < out.len() {
                let Some(front) = g.queue.front_mut() else {
                    break;
                };
                if front.deliver_at > now {
                    break;
                }
                let avail = front.data.len() - front.offset;
                let take = avail.min(out.len() - n);
                out[n..n + take].copy_from_slice(&front.data[front.offset..front.offset + take]);
                front.offset += take;
                n += take;
                let consumed = front.offset == front.data.len();
                if consumed {
                    g.queue.pop_front();
                }
                g.queued_bytes -= take;
            }
            if n > 0 {
                drop(g);
                chan.not_full.notify_one();
                return Ok(n);
            }

            match g.queue.front() {
                Some(front) => {
                    // Data exists but hasn't propagated yet.
                    let deadline = front.deliver_at;
                    if deadline.saturating_duration_since(now) <= SPIN_THRESHOLD {
                        drop(g);
                        precise_sleep_until(deadline);
                        g = chan.inner.lock();
                    } else {
                        let _ = chan.not_empty.wait_until(&mut g, deadline);
                    }
                }
                None => {
                    if g.write_closed {
                        return Ok(0); // EOF
                    }
                    chan.not_empty.wait(&mut g);
                }
            }
        }
    }
}

impl LinkReader {
    /// Abandons the read side; peer writes fail with `BrokenPipe`.
    pub fn close(&self) {
        let mut g = self.chan.inner.lock();
        g.read_closed = true;
        drop(g);
        self.chan.not_full.notify_all();
    }
}

impl Drop for LinkReader {
    fn drop(&mut self) {
        self.close();
    }
}

/// One endpoint of a shaped duplex link.
pub struct SimSocket {
    rx: LinkReader,
    tx: LinkWriter,
}

impl SimSocket {
    /// Splits into independently-owned halves for reader/writer threads.
    pub fn split(self) -> (LinkReader, LinkWriter) {
        (self.rx, self.tx)
    }

    /// Half-closes the write direction.
    pub fn shutdown_write(&self) {
        self.tx.close();
    }

    /// Total payload bytes this endpoint has sent.
    pub fn tx_bytes(&self) -> u64 {
        self.tx.tx_bytes()
    }
}

impl Read for SimSocket {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        self.rx.read(out)
    }
}

impl Write for SimSocket {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.tx.write(data)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.tx.flush()
    }
}

/// Creates a symmetric duplex link: both directions use `cfg`.
pub fn duplex(cfg: LinkCfg) -> (SimSocket, SimSocket) {
    duplex_asymmetric(cfg.clone(), cfg)
}

/// Creates a duplex link with distinct per-direction configurations
/// (`a_to_b` shapes what A sends, `b_to_a` what B sends).
pub fn duplex_asymmetric(a_to_b: LinkCfg, b_to_a: LinkCfg) -> (SimSocket, SimSocket) {
    let (w_ab, r_ab) = one_direction(a_to_b);
    let (w_ba, r_ba) = one_direction(b_to_a);
    (
        SimSocket { rx: r_ba, tx: w_ab },
        SimSocket { rx: r_ab, tx: w_ba },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::mbit;
    use std::thread;

    fn fast_cfg() -> LinkCfg {
        LinkCfg::new(mbit(10_000.0), Duration::ZERO)
    }

    #[test]
    fn data_integrity_across_link() {
        let (mut a, mut b) = duplex(fast_cfg());
        let data: Vec<u8> = (0..300_000u32).map(|i| (i % 253) as u8).collect();
        let expect = data.clone();
        let t = thread::spawn(move || {
            a.write_all(&data).unwrap();
            a.shutdown_write();
            a // keep endpoint alive until the reader is done
        });
        let mut got = Vec::new();
        b.read_to_end(&mut got).unwrap();
        t.join().unwrap();
        assert_eq!(got, expect);
    }

    #[test]
    fn bandwidth_is_enforced() {
        // 500 KB at 8 Mbit/s (1 MB/s) must take ≈0.5 s beyond the 64 KB
        // burst credit: ≥ 0.35 s, ≤ 0.8 s.
        let cfg = LinkCfg::new(8e6, Duration::ZERO);
        let (mut a, mut b) = duplex(cfg);
        let start = Instant::now();
        let t = thread::spawn(move || {
            a.write_all(&vec![0u8; 500_000]).unwrap();
            a.shutdown_write();
            a
        });
        let mut got = Vec::new();
        b.read_to_end(&mut got).unwrap();
        let elapsed = start.elapsed();
        t.join().unwrap();
        assert_eq!(got.len(), 500_000);
        assert!(
            elapsed >= Duration::from_millis(350),
            "too fast: {elapsed:?}"
        );
        assert!(
            elapsed <= Duration::from_millis(900),
            "too slow: {elapsed:?}"
        );
    }

    #[test]
    fn write_call_blocks_at_line_rate_after_burst() {
        // The property the AdOC probe measures: writing 256 KB on a slow
        // link takes ≈ (256 KB - sndbuf)/rate.
        let cfg = LinkCfg::new(8e6, Duration::ZERO); // 1 MB/s
        let (mut a, _b) = duplex(cfg);
        let start = Instant::now();
        a.write_all(&vec![0u8; 256 * 1024]).unwrap();
        let elapsed = start.elapsed();
        // (256-64) KiB at 1 MB/s ≈ 0.197 s.
        assert!(
            elapsed >= Duration::from_millis(120),
            "probe saw no pacing: {elapsed:?}"
        );
        assert!(
            elapsed <= Duration::from_millis(400),
            "pacing too slow: {elapsed:?}"
        );
    }

    #[test]
    fn latency_delays_delivery() {
        let cfg = LinkCfg::new(mbit(1000.0), Duration::from_millis(40));
        let (mut a, mut b) = duplex(cfg);
        let start = Instant::now();
        a.write_all(b"x").unwrap();
        let mut buf = [0u8; 1];
        b.read_exact(&mut buf).unwrap();
        let elapsed = start.elapsed();
        assert!(
            elapsed >= Duration::from_millis(39),
            "arrived early: {elapsed:?}"
        );
        assert!(
            elapsed <= Duration::from_millis(120),
            "arrived late: {elapsed:?}"
        );
    }

    #[test]
    fn ping_pong_rtt_is_twice_latency() {
        let cfg = LinkCfg::new(mbit(1000.0), Duration::from_millis(5));
        let (mut a, mut b) = duplex(cfg);
        let t = thread::spawn(move || {
            let mut buf = [0u8; 1];
            b.read_exact(&mut buf).unwrap();
            b.write_all(&buf).unwrap();
            b
        });
        let start = Instant::now();
        a.write_all(b"p").unwrap();
        let mut buf = [0u8; 1];
        a.read_exact(&mut buf).unwrap();
        let rtt = start.elapsed();
        t.join().unwrap();
        assert!(rtt >= Duration::from_millis(10), "rtt {rtt:?}");
        // Generous ceiling: under a full parallel test run on a single-core
        // runner the thread can lose tens of ms to the scheduler on top of
        // the simulated 2x5ms latency.
        assert!(rtt <= Duration::from_millis(150), "rtt {rtt:?}");
    }

    #[test]
    fn broken_pipe_when_reader_drops() {
        let cfg = LinkCfg::new(mbit(1.0), Duration::ZERO).with_sndbuf(1024);
        let (mut a, b) = duplex(cfg);
        drop(b);
        // Large write must eventually fail (first chunks may be accepted).
        let res = a.write_all(&vec![0u8; 1 << 20]);
        assert!(res.is_err());
    }

    #[test]
    fn eof_propagates_after_drain() {
        let (mut a, mut b) = duplex(fast_cfg());
        a.write_all(b"tail").unwrap();
        a.shutdown_write();
        let mut got = Vec::new();
        b.read_to_end(&mut got).unwrap();
        assert_eq!(got, b"tail");
        // a must stay alive until here: dropping it earlier would also
        // close the b→a direction, which we don't use.
        drop(a);
    }

    #[test]
    fn congestion_trace_slows_mid_transfer() {
        // 1 MB/s for 0.2 s, then 10 MB/s: 400 KB total should take about
        // 0.2 + (400KB - 200KB - burst)/10MB/s… bound loosely: the whole
        // transfer must take at least 0.15 s (slow phase) and well under
        // the 0.4 s an all-slow link would need.
        let trace = BandwidthTrace::piecewise(vec![(0.2, 8e6), (1000.0, 80e6)]);
        let cfg = LinkCfg::new(8e6, Duration::ZERO)
            .with_trace(trace)
            .with_sndbuf(16 * 1024);
        let (mut a, mut b) = duplex(cfg);
        let start = Instant::now();
        let t = thread::spawn(move || {
            a.write_all(&vec![0u8; 400_000]).unwrap();
            a.shutdown_write();
            a
        });
        let mut got = Vec::new();
        b.read_to_end(&mut got).unwrap();
        let elapsed = start.elapsed();
        t.join().unwrap();
        assert_eq!(got.len(), 400_000);
        assert!(elapsed >= Duration::from_millis(150), "{elapsed:?}");
        assert!(elapsed <= Duration::from_millis(350), "{elapsed:?}");
    }

    #[test]
    fn jitter_never_reorders() {
        let cfg = LinkCfg::new(mbit(100.0), Duration::from_micros(500))
            .with_jitter(Duration::from_millis(2), 42);
        let (mut a, mut b) = duplex(cfg);
        let data: Vec<u8> = (0..100_000u32).map(|i| (i % 256) as u8).collect();
        let expect = data.clone();
        let t = thread::spawn(move || {
            a.write_all(&data).unwrap();
            a.shutdown_write();
            a
        });
        let mut got = Vec::new();
        b.read_to_end(&mut got).unwrap();
        t.join().unwrap();
        assert_eq!(got, expect);
    }
}
