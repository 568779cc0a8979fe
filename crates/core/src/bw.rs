//! Per-level visible-bandwidth accounting (paper §5, "Compression level
//! divergence"), in raw (pre-compression) bits/s. Per level, the
//! emission thread records each packet's raw share and how long its
//! admission and write took (the **wire side**), and the compression
//! thread each buffer's raw size and how long its whole encode took, CPU
//! model included (the **compression side**). Visible bandwidth is the
//! slower of the two — the Fig. 1 pipeline's steady-state throughput at
//! that level — once the level has been on the wire. A monitor belongs
//! to one stream and outlives its messages.
//!
//! The monitor sits on the per-packet hot path, so it avoids locks: each
//! rate is a cache-line-padded seqlock cell its single writer (the
//! emission or the compression thread) updates wait-free; readers retry
//! the rare torn read.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::Duration;

/// Number of tracked levels (AdOC 0..=10).
const LEVELS: usize = 11;

/// A decaying byte-rate accumulator: old samples fade so the monitor
/// tracks *current* conditions (grids change over time, §2).
#[derive(Debug, Clone, Copy, Default)]
struct DecayingRate {
    bytes: f64,
    secs: f64,
}

impl DecayingRate {
    fn add(&mut self, bytes: u64, secs: f64) {
        self.bytes += bytes as f64;
        self.secs += secs;
        // Halve history once the window exceeds ~2 s of send time, so the
        // estimate follows the network on the paper's 1-second guard
        // timescale.
        if self.secs > 2.0 {
            self.bytes /= 2.0;
            self.secs /= 2.0;
        }
    }

    fn rate(&self) -> Option<f64> {
        // Require a minimum of observation before trusting the estimate.
        if self.secs < 1e-4 || self.bytes <= 0.0 {
            None
        } else {
            Some(self.bytes * 8.0 / self.secs) // bits of raw data per sec
        }
    }
}

/// One level's rate, published through a seqlock: `seq` is odd while a
/// write is in flight, and bumped to the next even value after. Padded to
/// its own cache line so recording at one level never false-shares with
/// reads of another.
#[repr(align(64))]
#[derive(Debug, Default)]
struct RateCell {
    seq: AtomicU32,
    bytes_bits: AtomicU64,
    secs_bits: AtomicU64,
}

impl RateCell {
    /// Single-writer update. Wait-free.
    fn write(&self, rate: DecayingRate) {
        let s = self.seq.load(Ordering::Relaxed);
        self.seq.store(s.wrapping_add(1), Ordering::Release);
        self.bytes_bits
            .store(rate.bytes.to_bits(), Ordering::Release);
        self.secs_bits.store(rate.secs.to_bits(), Ordering::Release);
        self.seq.store(s.wrapping_add(2), Ordering::Release);
    }

    /// Consistent snapshot; retries while a write is in flight.
    fn read(&self) -> DecayingRate {
        loop {
            let s1 = self.seq.load(Ordering::Acquire);
            let bytes = f64::from_bits(self.bytes_bits.load(Ordering::Acquire));
            let secs = f64::from_bits(self.secs_bits.load(Ordering::Acquire));
            let s2 = self.seq.load(Ordering::Acquire);
            if s1 == s2 && s1.is_multiple_of(2) {
                return DecayingRate { bytes, secs };
            }
            std::hint::spin_loop();
        }
    }

    /// Folds one sample into the cell (its single writer only).
    fn add(&self, raw_bytes: u64, elapsed: Duration) {
        let mut rate = self.read();
        rate.add(raw_bytes, elapsed.as_secs_f64());
        self.write(rate);
    }
}

/// One stream's monitor: each compression level's wire-side and
/// compression-side rate, plus a raw-byte total that must reconcile with
/// [`crate::stats::TransferStats::raw_bytes`] for adaptive traffic.
#[derive(Debug, Default)]
pub struct BandwidthMonitor {
    wire: [RateCell; LEVELS],
    compression: [RateCell; LEVELS],
    total_raw: AtomicU64,
}

impl BandwidthMonitor {
    /// Creates an empty monitor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a packet send (wire side): `raw_bytes` of pre-compression
    /// payload left the host in `elapsed`. Single writer: the emission
    /// thread.
    pub fn record(&self, level: u8, raw_bytes: u64, elapsed: Duration) {
        self.wire[level as usize].add(raw_bytes, elapsed);
        self.total_raw.fetch_add(raw_bytes, Ordering::Relaxed);
    }

    /// Records a buffer encode (compression side): `raw_bytes` were
    /// encoded at `level` in `elapsed`. Single writer: the compression
    /// thread.
    pub fn record_compression(&self, level: u8, raw_bytes: u64, elapsed: Duration) {
        self.compression[level as usize].add(raw_bytes, elapsed);
    }

    /// Drops `level`'s compression-side history, so that level is
    /// measured afresh the next time it encodes. Called from the
    /// compression thread (the side's single writer).
    pub fn forget_compression(&self, level: u8) {
        self.compression[level as usize].write(DecayingRate::default());
    }

    /// Visible bandwidth at `level` in raw bits/s — the wire-side rate,
    /// capped by the compression-side rate when there is one — if the
    /// level has been on the wire.
    pub fn visible(&self, level: u8) -> Option<f64> {
        let wire = self.wire[level as usize].read().rate()?;
        let compression = self.compression[level as usize].read().rate();
        Some(compression.map_or(wire, |c| wire.min(c)))
    }

    /// The level `< limit` with the highest visible bandwidth, if any
    /// level below `limit` has been observed.
    pub fn best_below(&self, limit: u8) -> Option<(u8, f64)> {
        (0..limit)
            .filter_map(|l| self.visible(l).map(|r| (l, r)))
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// Sum of every `raw_bytes` ever recorded on the wire side: the exact
    /// amount of application data whose emission this monitor observed.
    pub fn total_raw_bytes(&self) -> u64 {
        self.total_raw.load(Ordering::Relaxed)
    }

    /// Aggregate visible bandwidth at `level` across a stream group's
    /// per-stream monitors: parallel streams move raw data concurrently,
    /// so group throughput is the *sum* of the per-stream rates that have
    /// been observed.
    pub fn aggregate_visible<'a>(
        monitors: impl IntoIterator<Item = &'a BandwidthMonitor>,
        level: u8,
    ) -> Option<f64> {
        let rates = monitors.into_iter().filter_map(|m| m.visible(level));
        rates.reduce(|a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_monitor_reports_nothing() {
        let m = BandwidthMonitor::new();
        for l in 0..=10 {
            assert!(m.visible(l).is_none());
        }
        assert!(m.best_below(10).is_none());
        assert_eq!(m.total_raw_bytes(), 0);
    }

    #[test]
    fn records_and_reports_rates() {
        let m = BandwidthMonitor::new();
        // 1 MB of raw data in 0.1 s = 80 Mbit/s visible.
        m.record(3, 1_000_000, Duration::from_millis(100));
        let r = m.visible(3).unwrap();
        assert!((r - 80e6).abs() / 80e6 < 1e-6, "{r}");
        assert!(m.visible(2).is_none());
        assert_eq!(m.total_raw_bytes(), 1_000_000);
    }

    #[test]
    fn best_below_finds_maximum() {
        let m = BandwidthMonitor::new();
        m.record(0, 500_000, Duration::from_millis(100)); // 40 Mbit
        m.record(2, 1_500_000, Duration::from_millis(100)); // 120 Mbit
        m.record(5, 1_000_000, Duration::from_millis(100)); // 80 Mbit
        let (lvl, rate) = m.best_below(5).unwrap();
        assert_eq!(lvl, 2);
        assert!((rate - 120e6).abs() / 120e6 < 1e-6);
        // Levels at/above the limit are excluded.
        assert_eq!(m.best_below(3).unwrap().0, 2);
        assert_eq!(m.best_below(1).unwrap().0, 0);
    }

    #[test]
    fn history_decays() {
        let m = BandwidthMonitor::new();
        // Long slow history…
        for _ in 0..30 {
            m.record(1, 100_000, Duration::from_millis(100));
        }
        let slow = m.visible(1).unwrap();
        // …then a burst of fast samples dominates after decay.
        for _ in 0..30 {
            m.record(1, 10_000_000, Duration::from_millis(100));
        }
        let fast = m.visible(1).unwrap();
        assert!(fast > slow * 5.0, "slow {slow:.0}, fast {fast:.0}");
    }

    #[test]
    fn tiny_samples_not_trusted() {
        let m = BandwidthMonitor::new();
        m.record(4, 10, Duration::from_nanos(10));
        assert!(m.visible(4).is_none());
    }

    #[test]
    fn aggregate_sums_across_stream_monitors() {
        let a = BandwidthMonitor::new();
        let b = BandwidthMonitor::new();
        let c = BandwidthMonitor::new();
        a.record(3, 1_000_000, Duration::from_millis(100)); // 80 Mbit
        b.record(3, 500_000, Duration::from_millis(100)); // 40 Mbit
        let group = [a, b, c];
        let agg = BandwidthMonitor::aggregate_visible(&group, 3).unwrap();
        assert!((agg - 120e6).abs() / 120e6 < 1e-6, "{agg}");
        assert!(BandwidthMonitor::aggregate_visible(&group, 5).is_none());
    }

    #[test]
    fn visible_is_the_slower_of_wire_and_compression() {
        let m = BandwidthMonitor::new();
        // Level 3 moves 80 Mbit/s of raw data over the wire but encodes
        // only 8 Mbit/s: the pipeline delivers the smaller.
        m.record(3, 1_000_000, Duration::from_millis(100));
        m.record_compression(3, 100_000, Duration::from_millis(100));
        let r = m.visible(3).unwrap();
        assert!((r - 8e6).abs() / 8e6 < 1e-6, "{r}");
        // A fast compressor leaves the wire side in charge.
        m.record(1, 500_000, Duration::from_millis(100)); // 40 Mbit
        m.record_compression(1, 10_000_000, Duration::from_millis(100)); // 800 Mbit
        let r1 = m.visible(1).unwrap();
        assert!((r1 - 40e6).abs() / 40e6 < 1e-6, "{r1}");
        // best_below ranks by the same rule: level 1 beats level 3 even
        // though level 3's wire side is twice as fast.
        assert_eq!(m.best_below(4).unwrap().0, 1);
        // Only the wire side counts towards the raw total.
        assert_eq!(m.total_raw_bytes(), 1_500_000);
    }

    #[test]
    fn a_level_is_observed_only_once_it_reached_the_wire() {
        let m = BandwidthMonitor::new();
        m.record_compression(5, 1_000_000, Duration::from_millis(100));
        assert!(m.visible(5).is_none());
        assert!(m.best_below(10).is_none());
    }

    #[test]
    fn forgotten_compression_side_falls_back_to_the_wire() {
        let m = BandwidthMonitor::new();
        m.record(6, 1_000_000, Duration::from_millis(100)); // 80 Mbit
        m.record_compression(6, 100_000, Duration::from_millis(100)); // 8 Mbit
        m.forget_compression(6);
        let r = m.visible(6).unwrap();
        assert!((r - 80e6).abs() / 80e6 < 1e-6, "{r}");
        // The next encode is measured afresh, not averaged with the old.
        m.record_compression(6, 500_000, Duration::from_millis(100)); // 40 Mbit
        let r = m.visible(6).unwrap();
        assert!((r - 40e6).abs() / 40e6 < 1e-6, "{r}");
    }

    #[test]
    fn total_accumulates_across_levels() {
        let m = BandwidthMonitor::new();
        m.record(0, 100, Duration::from_millis(1));
        m.record(7, 200, Duration::from_millis(1));
        m.record(10, 300, Duration::from_millis(1));
        assert_eq!(m.total_raw_bytes(), 600);
    }

    #[test]
    fn concurrent_reads_never_tear() {
        // A writer hammers one level while readers assert that every
        // observed snapshot is internally consistent (a torn read would
        // produce a wild rate).
        let m = std::sync::Arc::new(BandwidthMonitor::new());
        let w = {
            let m = m.clone();
            std::thread::spawn(move || {
                for _ in 0..50_000 {
                    m.record(5, 8_192, Duration::from_micros(100));
                }
            })
        };
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let m = m.clone();
                std::thread::spawn(move || {
                    let expect = 8_192.0 * 8.0 / 1e-4; // every sample's rate
                    for _ in 0..20_000 {
                        if let Some(r) = m.visible(5) {
                            let rel = (r - expect).abs() / expect;
                            assert!(rel < 1e-6, "torn rate {r}");
                        }
                    }
                })
            })
            .collect();
        w.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(m.total_raw_bytes(), 50_000 * 8_192);
    }
}
