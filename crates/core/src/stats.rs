//! Per-connection observability: what the adaptation actually did.
//!
//! The examples and the experiment harness read these counters to plot
//! level timelines and to verify probe / guard behaviour; none of it is
//! on the wire.

use crate::adapt::LevelReason;
use std::time::Instant;

/// Maximum retained timeline entries (a 32 MB transfer produces ~160
/// buffers; the cap only matters for very long-lived connections).
const TIMELINE_CAP: usize = 100_000;

/// One compression buffer on the connection's level timeline: when it
/// was encoded, at what level, and which verdict put the controller
/// there ([`LevelReason`]) — the provenance the server's `LevelChange`
/// events surface.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LevelEvent {
    /// Seconds since the connection's stats epoch.
    pub secs: f64,
    /// AdOC level the buffer was encoded at.
    pub level: u8,
    /// Why the controller chose (or kept) this level.
    pub reason: LevelReason,
}

/// What one stream of a striped message carried (reported per message in
/// [`crate::sender::SendOutcome::per_stream`], accumulated per connection
/// in [`TransferStats::per_stream`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamSendStats {
    /// Stream index within the group (0 = primary).
    pub stream: u8,
    /// Bytes this stream put on its socket (frame headers included;
    /// message headers and probes are counted message-wide, not here).
    pub wire_bytes: u64,
    /// Raw (pre-compression) bytes this stream carried — observed by its
    /// bandwidth monitor on adaptive pipelines, counted directly on the
    /// fast path (which has no monitor).
    pub raw_bytes: u64,
    /// Data frames this stream carried.
    pub frames: u64,
}

/// Cumulative statistics for one AdOC connection.
#[derive(Debug, Clone)]
pub struct TransferStats {
    /// Messages sent (one per `adoc_write`/`adoc_send_file`).
    pub messages: u64,
    /// Application payload bytes sent.
    pub raw_bytes: u64,
    /// Bytes actually put on the socket (headers included).
    pub wire_bytes: u64,
    /// Messages that took the small/disabled direct path.
    pub direct_messages: u64,
    /// Probes performed (adaptive messages without forced compression).
    pub probes: u64,
    /// Probes that measured a fast network and disabled compression.
    pub fast_path_hits: u64,
    /// Compression buffers encoded at each AdOC level (0..=10).
    pub buffers_at_level: [u64; 11],
    /// Divergence-guard reverts (§5).
    pub divergence_reverts: u64,
    /// Incompressible-data guard trips (§5).
    pub ratio_trips: u64,
    /// One [`LevelEvent`] per compression buffer, in order.
    pub level_timeline: Vec<LevelEvent>,
    /// Cumulative per-stream totals for striped transfers (indexed by
    /// stream id; empty on single-stream connections).
    pub per_stream: Vec<StreamSendStats>,
    /// Last observed visible bandwidth per compression level in raw
    /// bits/s (0.0 = that level has never been measured on this
    /// connection): the slower of what the level moved over the wire and
    /// what its compressor encoded, as the connection's per-stream
    /// [`crate::bw::BandwidthMonitor`]s hold it after the latest adaptive
    /// message — the per-level view a server's metrics endpoint exports.
    pub level_bps: [f64; 11],
    epoch: Instant,
}

impl Default for TransferStats {
    fn default() -> Self {
        TransferStats {
            messages: 0,
            raw_bytes: 0,
            wire_bytes: 0,
            direct_messages: 0,
            probes: 0,
            fast_path_hits: 0,
            buffers_at_level: [0; 11],
            divergence_reverts: 0,
            ratio_trips: 0,
            level_timeline: Vec::new(),
            per_stream: Vec::new(),
            level_bps: [0.0; 11],
            epoch: Instant::now(),
        }
    }
}

impl TransferStats {
    /// Creates zeroed stats with the epoch set to now.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one buffer compressed at `level`.
    pub fn record_buffer(&mut self, level: u8) {
        self.record_buffer_reason(Instant::now(), level, LevelReason::default());
    }

    /// Records one buffer compressed at `level` at instant `t` (the sender
    /// reports timestamps captured inside the compression thread), with
    /// the controller's verdict attached.
    pub fn record_buffer_reason(&mut self, t: Instant, level: u8, reason: LevelReason) {
        self.buffers_at_level[level as usize] += 1;
        if self.level_timeline.len() < TIMELINE_CAP {
            let secs = t.saturating_duration_since(self.epoch).as_secs_f64();
            self.level_timeline.push(LevelEvent {
                secs,
                level,
                reason,
            });
        }
    }

    /// Overall wire/raw ratio so far (> 1 means compression won).
    pub fn compression_ratio(&self) -> f64 {
        if self.wire_bytes == 0 {
            return 1.0;
        }
        self.raw_bytes as f64 / self.wire_bytes as f64
    }

    /// The highest level any buffer used.
    pub fn max_level_used(&self) -> u8 {
        (0..11u8)
            .rev()
            .find(|&l| self.buffers_at_level[l as usize] > 0)
            .unwrap_or(0)
    }

    /// Total compression buffers across all levels.
    pub fn total_buffers(&self) -> u64 {
        self.buffers_at_level.iter().sum()
    }

    /// Overwrites the per-level bandwidth snapshot with any level a
    /// message actually observed (levels the message never used keep
    /// their previous estimate).
    pub fn merge_level_bps(&mut self, per_message: &[f64; 11]) {
        for (slot, &bps) in self.level_bps.iter_mut().zip(per_message) {
            if bps > 0.0 {
                *slot = bps;
            }
        }
    }

    /// Folds one message's per-stream accounting into the connection
    /// totals (no-op for single-stream messages).
    pub fn merge_per_stream(&mut self, per_message: &[StreamSendStats]) {
        for s in per_message {
            while self.per_stream.len() <= s.stream as usize {
                let stream = self.per_stream.len() as u8;
                let slot = StreamSendStats::default();
                self.per_stream.push(StreamSendStats { stream, ..slot });
            }
            let t = &mut self.per_stream[s.stream as usize];
            t.wire_bytes += s.wire_bytes;
            t.raw_bytes += s.raw_bytes;
            t.frames += s.frames;
        }
    }
}

impl std::fmt::Display for TransferStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "messages: {} ({} direct), raw {} B, wire {} B (ratio {:.2})",
            self.messages,
            self.direct_messages,
            self.raw_bytes,
            self.wire_bytes,
            self.compression_ratio()
        )?;
        writeln!(
            f,
            "probes: {} ({} fast-path), reverts: {}, ratio-guard trips: {}",
            self.probes, self.fast_path_hits, self.divergence_reverts, self.ratio_trips
        )?;
        write!(f, "buffers per level:")?;
        for (lvl, &n) in self.buffers_at_level.iter().enumerate() {
            if n > 0 {
                write!(f, " L{lvl}:{n}")?;
            }
        }
        if !self.per_stream.is_empty() {
            writeln!(f)?;
            write!(f, "streams:")?;
            for s in &self.per_stream {
                write!(
                    f,
                    " [{}: {} frames, {} raw B, {} wire B]",
                    s.stream, s.frames, s.raw_bytes, s.wire_bytes
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_and_levels() {
        let mut s = TransferStats::new();
        s.raw_bytes = 1000;
        s.wire_bytes = 250;
        assert!((s.compression_ratio() - 4.0).abs() < 1e-12);
        s.record_buffer(3);
        s.record_buffer(3);
        s.record_buffer(7);
        assert_eq!(s.max_level_used(), 7);
        assert_eq!(s.total_buffers(), 3);
        assert_eq!(s.buffers_at_level[3], 2);
        assert_eq!(s.level_timeline.len(), 3);
    }

    #[test]
    fn empty_stats_are_benign() {
        let s = TransferStats::new();
        assert_eq!(s.compression_ratio(), 1.0);
        assert_eq!(s.max_level_used(), 0);
        let _ = format!("{s}");
    }

    #[test]
    fn per_stream_totals_accumulate_and_backfill() {
        let mut s = TransferStats::new();
        // First message used streams 0 and 2 (sparse indices backfill).
        s.merge_per_stream(&[
            StreamSendStats {
                stream: 0,
                wire_bytes: 100,
                raw_bytes: 150,
                frames: 2,
            },
            StreamSendStats {
                stream: 2,
                wire_bytes: 50,
                raw_bytes: 60,
                frames: 1,
            },
        ]);
        s.merge_per_stream(&[StreamSendStats {
            stream: 2,
            wire_bytes: 10,
            raw_bytes: 20,
            frames: 1,
        }]);
        assert_eq!(s.per_stream.len(), 3);
        assert_eq!(s.per_stream[0].wire_bytes, 100);
        assert_eq!(
            s.per_stream[1],
            StreamSendStats {
                stream: 1,
                ..StreamSendStats::default()
            }
        );
        assert_eq!(s.per_stream[2].wire_bytes, 60);
        assert_eq!(s.per_stream[2].frames, 2);
        assert!(format!("{s}").contains("streams:"));
    }

    #[test]
    fn level_bps_snapshot_keeps_stale_levels() {
        let mut s = TransferStats::new();
        let mut msg1 = [0.0f64; 11];
        msg1[3] = 80e6;
        msg1[5] = 40e6;
        s.merge_level_bps(&msg1);
        let mut msg2 = [0.0f64; 11];
        msg2[5] = 55e6; // level 5 re-measured, level 3 untouched
        s.merge_level_bps(&msg2);
        assert_eq!(s.level_bps[3], 80e6);
        assert_eq!(s.level_bps[5], 55e6);
        assert_eq!(s.level_bps[0], 0.0);
    }

    #[test]
    fn timeline_is_monotone_in_time() {
        let mut s = TransferStats::new();
        for i in 0..50 {
            s.record_buffer((i % 11) as u8);
        }
        assert!(s.level_timeline.windows(2).all(|w| w[0].secs <= w[1].secs));
    }
}

impl TransferStats {
    /// Exports the level timeline as CSV (`seconds,level` rows) for
    /// replotting — the adaptive_trace example's machine-readable twin.
    pub fn timeline_csv(&self) -> String {
        let mut out = String::from("seconds,level,reason\n");
        for e in &self.level_timeline {
            out.push_str(&format!(
                "{:.6},{},{}\n",
                e.secs,
                e.level,
                e.reason.as_str()
            ));
        }
        out
    }
}

#[cfg(test)]
mod csv_tests {
    use super::*;

    #[test]
    fn timeline_csv_format() {
        let mut s = TransferStats::new();
        s.record_buffer(3);
        s.record_buffer_reason(Instant::now(), 5, LevelReason::ThroughputDiverged);
        let csv = s.timeline_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "seconds,level,reason");
        assert!(lines[1].ends_with(",3,queue_pressure"));
        assert!(lines[2].ends_with(",5,throughput_diverged"));
    }
}
