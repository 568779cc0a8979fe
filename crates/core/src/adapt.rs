//! The compression-level update algorithm — Figure 2 of the paper,
//! verbatim — and the §5 guards around it, which together are the whole
//! level controller ([`LevelController`]):
//!
//! 1. the §5 incompressible-data penalty pins the minimum level for the
//!    next [`RATIO_PENALTY_PACKETS`] packets after a ratio below
//!    [`RATIO_GUARD`];
//! 2. otherwise Fig. 2 picks the candidate from the emission queue's
//!    length and its change against the watermarks [`LOW_WATER`],
//!    [`MID_WATER`] and [`HIGH_WATER`] (a full bounded queue reads as
//!    growing, as the paper's unbounded one would be);
//! 3. a level under a divergence forbid is skipped for the next one down;
//! 4. the §5 divergence guard judges the result: a level whose visible
//!    bandwidth — the slower of its wire side and its compression side
//!    ([`BandwidthMonitor::visible`]) — a smaller level beats by
//!    [`DIVERGENCE_MARGIN`] is forbidden for [`FORBID_DURATION`] and the
//!    best smaller level used instead.
//!
//! When a forbid lapses the level's compression-side sample goes with
//! it, so the level is measured again rather than banned on one slow
//! sample. A controller belongs to one stream of a connection and
//! outlives its messages, so forbids and measurements carry over. Every
//! decision carries its [`LevelReason`].
//!
//! The constants are the paper's own and are not configurable; an
//! ablation edits them on a branch.

use crate::bw::BandwidthMonitor;
use crate::config::AdocConfig;
use std::time::{Duration, Instant};

/// Fig. 2 watermarks, in packets: below `LOW_WATER` the level can only
/// fall …
pub const LOW_WATER: usize = 10;
/// … between `LOW_WATER` and `MID_WATER` it moves by ±1 …
pub const MID_WATER: usize = 20;
/// … between `MID_WATER` and `HIGH_WATER` it rises by 2 and falls by 1;
/// above, it only rises.
pub const HIGH_WATER: usize = 30;
const _: () = assert!(LOW_WATER < MID_WATER && MID_WATER < HIGH_WATER);

/// Minimum acceptable per-buffer compression ratio before the
/// incompressible-data guard trips (§5 "Compressed and random data").
pub const RATIO_GUARD: f64 = 1.05;
/// Wire packets pinned to the minimum level after the ratio guard trips
/// (§5: 10 packets).
pub const RATIO_PENALTY_PACKETS: u32 = 10;
/// How long a diverging level is forbidden (§5 "Compression level
/// divergence": 1 second).
pub const FORBID_DURATION: Duration = Duration::from_secs(1);
/// Margin by which a smaller level's visible bandwidth must beat the
/// current one to trigger the divergence guard.
pub const DIVERGENCE_MARGIN: f64 = 1.10;

/// Figure 2, line for line. `n` is the queue length in packets, `delta`
/// its change since the previous update, `l` the old level.
// The paper's algorithm takes exactly these eight inputs; bundling them
// into a struct would obscure the line-for-line correspondence.
#[allow(clippy::too_many_arguments)]
pub fn update_level(
    n: usize,
    delta: isize,
    l: u8,
    min: u8,
    max: u8,
    low: usize,
    mid: usize,
    high: usize,
) -> u8 {
    // 1-2: an empty queue means the network is starving — stop compressing.
    if n == 0 {
        return min;
    }
    let mut l = i32::from(l);
    if n < low {
        // 3-5: small queue: the level may only fall (halve on shrink).
        if delta <= 0 {
            l /= 2;
        }
    } else if n < mid {
        // 6-10: moderate queue: follow the trend by ±1.
        if delta > 0 {
            l += 1;
        } else if delta < 0 {
            l -= 1;
        }
    } else if n < high {
        // 11-15: large queue: climb faster than we descend.
        if delta > 0 {
            l += 2;
        } else if delta < 0 {
            l -= 1;
        }
    } else {
        // 16-17: very large queue: plenty of time to compress.
        if delta > 0 {
            l += 2;
        }
    }
    // 18-19: clamp.
    l.clamp(i32::from(min), i32::from(max)) as u8
}

/// Why the controller moved (or held) the compression level. Attached
/// to level-change events so operators can attribute every move.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LevelReason {
    /// The Fig. 2 queue-length algorithm drove the decision.
    #[default]
    QueuePressure,
    /// The §5 divergence guard vetoed a level whose visible bandwidth a
    /// smaller level beats.
    ThroughputDiverged,
    /// The §5 incompressible-data penalty pinned the level to minimum.
    IncompressiblePenalty,
}

impl LevelReason {
    /// Stable lower-snake name (for events/metrics JSON).
    pub fn as_str(self) -> &'static str {
        match self {
            LevelReason::QueuePressure => "queue_pressure",
            LevelReason::ThroughputDiverged => "throughput_diverged",
            LevelReason::IncompressiblePenalty => "incompressible_penalty",
        }
    }
}

/// Stateful controller driving one stream's adaptive sends: tracks the
/// previous queue length, forbidden levels and the ratio penalty, and
/// runs Fig. 2 between the §5 guards.
pub struct LevelController {
    level: u8,
    last_len: Option<usize>,
    /// Until when each level is forbidden by the divergence guard; an
    /// entry is cleared (and its level re-measured) once it lapses.
    forbidden_until: [Option<Instant>; 11],
    /// Wire packets remaining at the minimum level after a ratio-guard
    /// trip (§5: the next 10 *packets*, not buffers).
    penalty_packets: u32,
    /// True only while the *current* buffer's level was pinned by the
    /// penalty: [`Self::packets_pushed`] drains the window only then, so
    /// the packets of the buffer that tripped the guard (pushed after
    /// `report_ratio` but chosen before it) never consume the penalty
    /// they just started.
    penalty_draining: bool,
    /// After a trip, buffers are pre-checked cheaply (paper: the per-
    /// packet ratio check aborts compression early) until one passes.
    suspicious: bool,
    /// Why the most recent decision landed where it did.
    last_reason: LevelReason,
    /// Counters surfaced through [`crate::stats::TransferStats`].
    pub divergence_reverts: u64,
    /// Number of ratio-guard trips.
    pub ratio_trips: u64,
}

impl LevelController {
    /// Starts at the minimum level (a fresh transfer has an empty queue).
    pub fn new(cfg: &AdocConfig) -> Self {
        LevelController {
            level: cfg.min_level,
            last_len: None,
            forbidden_until: [None; 11],
            penalty_packets: 0,
            penalty_draining: false,
            suspicious: false,
            last_reason: LevelReason::QueuePressure,
            divergence_reverts: 0,
            ratio_trips: 0,
        }
    }

    /// Why the most recent [`Self::next_level_with`] decision landed
    /// where it did.
    pub fn last_reason(&self) -> LevelReason {
        self.last_reason
    }

    /// Starts a message on a fresh emission queue, whose first delta must
    /// not be measured against the previous message's last queue length.
    pub fn begin_message(&mut self) {
        self.last_len = None;
    }

    /// Computes the level for the next buffer at `now`. The controller
    /// reads no clock: `now` is what the divergence guard's forbids are
    /// set from and expire against.
    pub fn next_level_with(
        &mut self,
        queue_len: usize,
        bw: &BandwidthMonitor,
        now: Instant,
        cfg: &AdocConfig,
    ) -> u8 {
        // §5 forbids a diverging level for 1 s, then tries it again: its
        // compression-side sample lapses too, so it cannot veto anew.
        for (level, until) in (0u8..).zip(self.forbidden_until.iter_mut()) {
            if until.is_some_and(|t| t <= now) {
                *until = None;
                bw.forget_compression(level);
            }
        }

        // Incompressible-data penalty takes precedence (§5): minimum level
        // until the penalty packets have been sent. `last_len` is cleared
        // (not updated) for the window's duration: queue lengths observed
        // while pinned reflect raw-speed emission, and comparing the
        // first post-penalty length against them would fabricate a large
        // delta that yanks the level around. The first free buffer
        // restarts with delta = 0 instead.
        if self.penalty_packets > 0 {
            self.last_len = None;
            self.penalty_draining = true;
            self.level = cfg.min_level;
            self.last_reason = LevelReason::IncompressiblePenalty;
            return self.level;
        }
        self.penalty_draining = false;

        let delta = match self.last_len {
            // Fig. 2's queue is unbounded: a full bounded one still grows.
            _ if queue_len >= cfg.queue_cap => 1,
            Some(prev) => queue_len as isize - prev as isize,
            None => 0,
        };
        self.last_len = Some(queue_len);

        // Fig. 2 clamps to [min, max] itself.
        let candidate = update_level(
            queue_len,
            delta,
            self.level,
            cfg.min_level,
            cfg.max_level,
            LOW_WATER,
            MID_WATER,
            HIGH_WATER,
        );

        let lo = cfg.min_level;
        let mut reason = LevelReason::QueuePressure;
        let mut cand = self.below_forbids(candidate, lo, &mut reason);

        // §5 divergence guard: a smaller level that visibly delivers more
        // raw data than this one gets the buffer, and this one is
        // forbidden. A level already forbidden was skipped above, so its
        // forbid is never extended from the same stale sample.
        if cand > lo {
            if let (Some(cur), Some((best, best_bps))) = (bw.visible(cand), bw.best_below(cand)) {
                if best_bps > cur * DIVERGENCE_MARGIN {
                    self.forbidden_until[cand as usize] = Some(now + FORBID_DURATION);
                    self.divergence_reverts += 1;
                    reason = LevelReason::ThroughputDiverged;
                    cand = self.below_forbids(best.max(lo), lo, &mut reason);
                }
            }
        }

        self.level = cand;
        self.last_reason = reason;
        cand
    }

    /// The highest level `<= level` (and `>= lo`) not under a forbid.
    fn below_forbids(&self, mut level: u8, lo: u8, reason: &mut LevelReason) -> u8 {
        while level > lo && self.forbidden_until[level as usize].is_some() {
            level -= 1;
            *reason = LevelReason::ThroughputDiverged;
        }
        level
    }

    /// Reports the compression outcome of a buffer: `ratio` = raw/encoded.
    /// Trips the penalty when it falls below the guard threshold.
    pub fn report_ratio(&mut self, ratio: f64, cfg: &AdocConfig) {
        if ratio < RATIO_GUARD {
            if self.level > cfg.min_level {
                self.penalty_packets = RATIO_PENALTY_PACKETS;
                // The buffer that tripped was chosen *before* the trip;
                // its packets must not drain the window it just opened.
                self.penalty_draining = false;
                self.ratio_trips += 1;
            }
            self.suspicious = true;
        } else {
            self.suspicious = false;
        }
    }

    /// True while the data recently failed the ratio guard: the sender
    /// pre-checks a small prefix before paying for a full-buffer
    /// compression (the paper's early abort on bad packets).
    pub fn is_suspicious(&self) -> bool {
        self.suspicious
    }

    /// Notes that `n` wire packets were pushed for the current buffer.
    /// Drains the penalty window only when that buffer was itself pinned
    /// by the penalty (§5 counts the 10 packets that *follow* the trip).
    pub fn packets_pushed(&mut self, n: u32) {
        if self.penalty_draining {
            self.penalty_packets = self.penalty_packets.saturating_sub(n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn fig2(n: usize, delta: isize, l: u8) -> u8 {
        update_level(n, delta, l, 0, 10, 10, 20, 30)
    }

    #[test]
    fn empty_queue_resets_to_min() {
        assert_eq!(fig2(0, 5, 9), 0);
        assert_eq!(update_level(0, 0, 9, 2, 10, 10, 20, 30), 2);
    }

    #[test]
    fn small_queue_halves_on_non_growth() {
        assert_eq!(fig2(5, 0, 8), 4);
        assert_eq!(fig2(9, -3, 9), 4); // 9/2 = 4 integer division
        assert_eq!(fig2(5, 2, 8), 8); // growing: hold
    }

    #[test]
    fn moderate_queue_steps_by_one() {
        assert_eq!(fig2(15, 1, 4), 5);
        assert_eq!(fig2(15, -1, 4), 3);
        assert_eq!(fig2(15, 0, 4), 4);
    }

    #[test]
    fn large_queue_climbs_by_two() {
        assert_eq!(fig2(25, 1, 4), 6);
        assert_eq!(fig2(25, -1, 4), 3);
        assert_eq!(fig2(25, 0, 4), 4);
    }

    #[test]
    fn very_large_queue_only_climbs() {
        assert_eq!(fig2(50, 1, 4), 6);
        assert_eq!(fig2(50, -5, 4), 4); // no decrease branch above high water
        assert_eq!(fig2(50, 0, 4), 4);
    }

    #[test]
    fn clamping_applies() {
        assert_eq!(fig2(25, 1, 9), 10);
        assert_eq!(fig2(25, 1, 10), 10);
        assert_eq!(fig2(15, -1, 0), 0);
        assert_eq!(update_level(25, 1, 3, 0, 4, 10, 20, 30), 4);
    }

    #[test]
    fn paper_consequence_no_compression_below_80kb() {
        // §3.3: the level cannot increase while fewer than 10 packets
        // (80 KB) are queued, so starting from level 0 a short transfer
        // never compresses.
        let mut level = 0u8;
        for n in 0..10usize {
            level = fig2(n, 1, level);
            assert_eq!(level, 0, "queue of {n} packets must not raise the level");
        }
        // At 10 packets and growing, the level may rise.
        assert_eq!(fig2(10, 1, 0), 1);
    }

    fn test_cfg() -> AdocConfig {
        AdocConfig::default()
    }

    impl LevelController {
        /// One decision at the wall clock.
        fn next_level(&mut self, queue_len: usize, bw: &BandwidthMonitor, cfg: &AdocConfig) -> u8 {
            self.next_level_with(queue_len, bw, Instant::now(), cfg)
        }
    }

    #[test]
    fn controller_starts_at_min_and_climbs_when_queue_grows() {
        let cfg = test_cfg();
        let bw = BandwidthMonitor::new();
        let mut c = LevelController::new(&cfg);
        assert_eq!(c.level, 0);
        // Simulate a steadily growing queue.
        let mut lens = vec![0usize, 4, 12, 18, 25, 33, 40];
        let mut max_seen = 0;
        for len in lens.drain(..) {
            let l = c.next_level(len, &bw, &cfg);
            max_seen = max_seen.max(l);
        }
        assert!(
            max_seen >= 3,
            "level should climb with a growing queue, got {max_seen}"
        );
    }

    #[test]
    fn controller_divergence_guard_reverts_and_forbids() {
        let cfg = test_cfg();
        let bw = BandwidthMonitor::new();
        let mut c = LevelController::new(&cfg);
        // Observed: level 3 is slow, level 1 is fast.
        bw.record(3, 100_000, std::time::Duration::from_millis(100)); // 8 Mbit
        bw.record(1, 2_000_000, std::time::Duration::from_millis(100)); // 160 Mbit
        c.level = 1;
        c.last_len = Some(20);
        // Growing large queue proposes level 1+2 = 3; the guard must veto.
        let l = c.next_level(25, &bw, &cfg);
        assert_eq!(l, 1, "should fall back to the best-observed level");
        assert_eq!(c.divergence_reverts, 1);
        // Level 3 is now forbidden: propose it again immediately.
        c.last_len = Some(20);
        c.level = 1;
        let l2 = c.next_level(25, &bw, &cfg);
        assert_ne!(l2, 3, "forbidden level must be skipped");
    }

    #[test]
    fn divergence_forbid_lifts_exactly_at_forbid_duration() {
        // Virtual time: the guard forbids level 3 at t0; proposals at
        // later instants see the forbid until exactly t0 +
        // FORBID_DURATION. The later proposals read an empty monitor so
        // the guard cannot re-forbid and extend the window.
        let cfg = test_cfg();
        let slow3 = BandwidthMonitor::new();
        slow3.record(3, 100_000, Duration::from_millis(100));
        slow3.record(1, 2_000_000, Duration::from_millis(100));
        let quiet = BandwidthMonitor::new();
        let mut c = LevelController::new(&cfg);
        let mut propose = |bw: &BandwidthMonitor, at: Instant| {
            // A growing large queue at level 1 proposes 1 + 2 = 3.
            c.level = 1;
            c.last_len = Some(20);
            let level = c.next_level_with(25, bw, at, &cfg);
            (level, c.last_reason(), c.divergence_reverts)
        };
        let t0 = Instant::now();
        let forbid = FORBID_DURATION;
        assert_eq!(propose(&slow3, t0), (1, LevelReason::ThroughputDiverged, 1));
        let tick = Duration::from_nanos(1);
        assert_eq!(
            propose(&quiet, t0 + forbid - tick),
            (2, LevelReason::ThroughputDiverged, 1),
            "one tick early the forbid still holds"
        );
        assert_eq!(
            propose(&quiet, t0 + forbid),
            (3, LevelReason::QueuePressure, 1),
            "the forbid lifts exactly at FORBID_DURATION"
        );
    }

    /// Level 3 moves 80 Mbit/s of raw data over the wire but its
    /// compressor manages only 8; level 1 delivers 40 end to end. By the
    /// wire side alone level 3 is the best rung.
    fn slow_compressor_at_3() -> BandwidthMonitor {
        let bw = BandwidthMonitor::new();
        bw.record(3, 1_000_000, Duration::from_millis(100));
        bw.record_compression(3, 100_000, Duration::from_millis(100));
        bw.record(1, 500_000, Duration::from_millis(100));
        bw.record_compression(1, 10_000_000, Duration::from_millis(100));
        bw
    }

    #[test]
    fn guard_vetoes_a_level_whose_compressor_cannot_keep_up() {
        let cfg = test_cfg();
        let bw = slow_compressor_at_3();
        let mut c = LevelController::new(&cfg);
        let t0 = Instant::now();
        c.level = 1;
        c.last_len = Some(20);
        // A growing large queue proposes 1 + 2 = 3.
        assert_eq!(c.next_level_with(25, &bw, t0, &cfg), 1);
        assert_eq!(c.last_reason(), LevelReason::ThroughputDiverged);
        assert_eq!(c.divergence_reverts, 1);
        assert_eq!(c.forbidden_until[3], Some(t0 + FORBID_DURATION));
    }

    #[test]
    fn a_lapsed_forbid_remeasures_the_level_once() {
        let cfg = test_cfg();
        let bw = slow_compressor_at_3();
        let mut c = LevelController::new(&cfg);
        let mut propose = |at: Instant| {
            c.level = 1;
            c.last_len = Some(20);
            let level = c.next_level_with(25, &bw, at, &cfg);
            (level, c.last_reason(), c.divergence_reverts)
        };
        let t0 = Instant::now();
        let forbid = FORBID_DURATION;
        assert_eq!(propose(t0), (1, LevelReason::ThroughputDiverged, 1));
        assert_eq!(
            propose(t0 + forbid / 2),
            (2, LevelReason::ThroughputDiverged, 1),
            "a forbidden level is skipped, not vetoed again from its stale sample"
        );
        assert_eq!(
            propose(t0 + forbid),
            (3, LevelReason::QueuePressure, 1),
            "at the lapse the stale compression sample goes: level 3 gets a buffer"
        );
        // That buffer re-measures the compressor: still slow, so the next
        // proposal is vetoed on the fresh sample.
        bw.record_compression(3, 100_000, Duration::from_millis(100));
        assert_eq!(
            propose(t0 + forbid + Duration::from_millis(1)),
            (1, LevelReason::ThroughputDiverged, 2)
        );
    }

    #[test]
    fn the_guard_vetoes_fig2s_own_climb_onto_a_slow_rung() {
        // Driven only through the controller's inputs: an empty queue
        // starts at the minimum, then a queue of 25 growing by 25 makes
        // Fig. 2 climb 1 -> 3, onto the rung whose compressor cannot keep
        // up.
        let cfg = test_cfg().with_levels(1, 10);
        let bw = slow_compressor_at_3();
        let mut c = LevelController::new(&cfg);
        let t0 = Instant::now();
        assert_eq!(c.next_level_with(0, &bw, t0, &cfg), 1);
        assert_eq!(c.last_reason(), LevelReason::QueuePressure);
        assert_eq!(c.next_level_with(25, &bw, t0, &cfg), 1);
        assert_eq!(c.last_reason(), LevelReason::ThroughputDiverged);
        assert_eq!(c.divergence_reverts, 1);
        // While the forbid holds, the next climb to 3 lands one below it.
        let soon = t0 + Duration::from_millis(1);
        assert_eq!(c.next_level_with(28, &bw, soon, &cfg), 2);
        assert_eq!(c.last_reason(), LevelReason::ThroughputDiverged);
        assert_eq!(c.divergence_reverts, 1);
    }

    #[test]
    fn a_message_starts_with_no_queue_delta() {
        // Every message has a fresh emission queue, so its first buffer
        // sees delta 0, not one measured against the previous message's
        // last queue length. From level 4, a mid-band queue of 15 holds
        // the level at delta 0; measured against the previous message's
        // 25 it would read -10 and step down.
        let cfg = test_cfg();
        let bw = BandwidthMonitor::new();
        let mut c = LevelController::new(&cfg);
        c.level = 4;
        assert_eq!(c.next_level(25, &bw, &cfg), 4);
        c.begin_message();
        assert_eq!(c.next_level(15, &bw, &cfg), 4);
        assert_eq!(c.last_reason(), LevelReason::QueuePressure);
    }

    #[test]
    fn a_full_queue_counts_as_growth() {
        // Fig. 2's queue is unbounded; a bounded one pinned at capacity
        // has its producer waiting on the link — time to compress harder,
        // not to hold.
        let cfg = test_cfg();
        let bw = BandwidthMonitor::new();
        let mut c = LevelController::new(&cfg);
        c.level = 2;
        c.last_len = Some(cfg.queue_cap);
        assert_eq!(c.next_level(cfg.queue_cap, &bw, &cfg), 4);
        // Just below capacity a steady queue holds, as Fig. 2 says.
        c.last_len = Some(cfg.queue_cap - 1);
        assert_eq!(c.next_level(cfg.queue_cap - 1, &bw, &cfg), 4);
    }

    #[test]
    fn controller_ratio_penalty_pins_to_min() {
        let cfg = test_cfg();
        let bw = BandwidthMonitor::new();
        let mut c = LevelController::new(&cfg);
        c.level = 6;
        c.report_ratio(0.99, &cfg);
        assert_eq!(c.ratio_trips, 1);
        assert_eq!(c.next_level(25, &bw, &cfg), 0, "penalty must pin to min");
        // Penalty drains per packet.
        c.packets_pushed(RATIO_PENALTY_PACKETS - 1);
        assert_eq!(
            c.next_level(25, &bw, &cfg),
            0,
            "still one penalty packet left"
        );
        c.packets_pushed(1);
        let l = c.next_level(30, &bw, &cfg);
        // Penalty over: the controller resumes normal adaptation.
        assert!(l <= 2, "fresh climb from min level, got {l}");
    }

    #[test]
    fn tripping_buffers_own_packets_do_not_drain_penalty() {
        // Regression: the buffer that trips the guard reports its ratio
        // *after* its level was chosen, then pushes its own packets. With
        // the default 200 KB buffer / 8 KB packet geometry that is 25
        // packets — more than the whole 10-packet penalty — so draining
        // on those pushes silently cancelled the penalty before it ever
        // pinned a buffer.
        let cfg = test_cfg();
        let bw = BandwidthMonitor::new();
        let mut c = LevelController::new(&cfg);
        c.level = 6;
        c.report_ratio(0.5, &cfg); // trip during buffer k
        c.packets_pushed(25); // buffer k's own packets hit the queue
        assert_eq!(
            c.next_level(25, &bw, &cfg),
            cfg.min_level,
            "the buffer after the trip must still be pinned"
        );
    }

    #[test]
    fn penalty_counts_post_trip_wire_packets() {
        // With 4-packet buffers the 10-packet window must pin exactly
        // ceil(10 / 4) = 3 subsequent buffers.
        let cfg = test_cfg();
        let bw = BandwidthMonitor::new();
        let mut c = LevelController::new(&cfg);
        c.level = 6;
        c.report_ratio(0.5, &cfg);
        c.packets_pushed(4); // tripping buffer: must not drain
        let mut pinned = 0;
        for _ in 0..6 {
            let l = c.next_level(25, &bw, &cfg);
            if l == cfg.min_level && c.penalty_packets > 0 || c.penalty_draining {
                pinned += 1;
            }
            if !c.penalty_draining {
                break;
            }
            c.packets_pushed(4);
        }
        assert_eq!(pinned, 3, "10 packets at 4 per buffer pin 3 buffers");
    }

    #[test]
    fn post_penalty_delta_starts_fresh() {
        // Regression: queue lengths recorded while the penalty pinned the
        // level must not seed the first post-penalty delta. Here the
        // queue was short (5) during the window and long (25) after; a
        // stale delta of +20 in the mid..high band would jump the level
        // by 2 immediately.
        let cfg = test_cfg();
        let bw = BandwidthMonitor::new();
        let mut c = LevelController::new(&cfg);
        c.level = 6;
        c.report_ratio(0.5, &cfg);
        assert_eq!(c.next_level(5, &bw, &cfg), cfg.min_level);
        c.packets_pushed(RATIO_PENALTY_PACKETS); // window fully drained
        let l = c.next_level(25, &bw, &cfg);
        assert_eq!(
            l, cfg.min_level,
            "first free buffer must see delta 0, not a stale jump"
        );
    }

    #[test]
    fn controller_good_ratio_does_not_trip() {
        let cfg = test_cfg();
        let mut c = LevelController::new(&cfg);
        c.level = 6;
        c.report_ratio(3.0, &cfg);
        assert_eq!(c.ratio_trips, 0);
    }

    #[test]
    fn min_level_floor_respected_by_guards() {
        let cfg = AdocConfig::default().with_levels(2, 8);
        let bw = BandwidthMonitor::new();
        let mut c = LevelController::new(&cfg);
        assert_eq!(c.level, 2);
        assert_eq!(
            c.next_level(0, &bw, &cfg),
            2,
            "empty queue returns min level"
        );
    }
}
