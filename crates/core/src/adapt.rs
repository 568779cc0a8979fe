//! The compression-level update algorithm — Figure 2 of the paper,
//! verbatim — split into **mechanism** and **policy**:
//!
//! * mechanisms stay in [`LevelController`]: the Fig. 2 queue-driven
//!   candidate (a full bounded queue reads as growing, as the paper's
//!   unbounded one would be), the §5 divergence guard with its
//!   forbidden-level table, and the §5 incompressible-data penalty
//!   (minimum level for the next 10 packets after a bad ratio);
//! * policies implement [`LevelPolicy`]: given the Fig. 2 candidate,
//!   the visible-bandwidth monitor and (optionally) a
//!   [`DelaySnapshot`] from the signal layer, they pick the level and
//!   say *why* ([`LevelReason`]).
//!
//! The divergence guard judges whatever level a policy picks: a level
//! whose visible bandwidth — the slower of its wire side and its
//! compression side ([`BandwidthMonitor::visible`]) — a smaller level
//! beats by [`AdocConfig::divergence_margin`] is forbidden for
//! [`AdocConfig::forbid_duration`] and the best smaller level used
//! instead. When a forbid lapses the level's compression-side sample
//! goes with it, so the level is measured again rather than banned on
//! one slow sample. A controller belongs to one stream of a connection
//! and outlives its messages, so forbids and measurements carry over.
//!
//! [`DelayAwarePolicy`] (the default) layers the delay-gradient signal
//! on the Fig. 2 candidate: a rising delay gradient means the *network*
//! is the bottleneck, so the level rises to squeeze more data through
//! the same pipe; a draining queue with falling delay means the *CPU*
//! is the gate, so the level backs off.

use crate::bw::BandwidthMonitor;
use crate::config::AdocConfig;
use crate::signals::{CongestionState, DelaySnapshot};
use std::time::{Duration, Instant};

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
    /// The delay-gradient signal overrode the queue-driven candidate.
    DelayGradient,
    /// The §5 incompressible-data penalty pinned the level to minimum.
    IncompressiblePenalty,
}

impl LevelReason {
    /// Stable lower-snake name (for events/metrics JSON).
    pub fn as_str(self) -> &'static str {
        match self {
            LevelReason::QueuePressure => "queue_pressure",
            LevelReason::ThroughputDiverged => "throughput_diverged",
            LevelReason::DelayGradient => "delay_gradient",
            LevelReason::IncompressiblePenalty => "incompressible_penalty",
        }
    }
}

/// Everything a [`LevelPolicy`] may consult for one decision.
pub struct PolicyCtx<'a> {
    /// Emission-queue length in packets.
    pub queue_len: usize,
    /// Queue-length change since the previous decision.
    pub delta: isize,
    /// The Fig. 2 candidate level for this buffer.
    pub candidate: u8,
    /// The level the previous buffer was compressed at.
    pub current: u8,
    /// Per-level visible-bandwidth monitor.
    pub bw: &'a BandwidthMonitor,
    /// Freshest delay-gradient snapshot, if the signal layer has one.
    pub delay: Option<DelaySnapshot>,
    /// The transfer's configuration (watermarks, level bounds, margins).
    pub cfg: &'a AdocConfig,
}

/// A policy's verdict for one buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelDecision {
    /// The level to compress the next buffer at (still subject to the
    /// controller's divergence guard and forbidden-level table).
    pub level: u8,
    /// Why.
    pub reason: LevelReason,
}

impl LevelDecision {
    /// A plain queue-driven decision for `level`.
    pub fn queue(level: u8) -> LevelDecision {
        LevelDecision {
            level,
            reason: LevelReason::QueuePressure,
        }
    }
}

/// A pluggable level-selection policy: mechanisms (Fig. 2 candidate,
/// divergence guard, ratio penalty) live in [`LevelController`]; the
/// judgement call between them lives here.
pub trait LevelPolicy: Send {
    /// Picks the level for the next buffer.
    fn decide(&mut self, ctx: &PolicyCtx<'_>) -> LevelDecision;
}

/// How fresh a delay snapshot must be before [`DelayAwarePolicy`]
/// trusts it over the queue alone.
pub const DELAY_FRESH: Duration = Duration::from_secs(1);

/// The default policy: the Fig. 2 candidate, overridden by the
/// delay-gradient signal when it is fresh and decisive.
///
/// * **Overuse** (delay rising — the network is the bottleneck): raise
///   the level one step above the current one even if the queue alone
///   would not.
/// * **Underuse** with a small queue (delay falling, sender barely
///   queueing — the CPU is the gate): back the level off one step so
///   compression stops throttling emission.
#[derive(Debug, Default)]
pub struct DelayAwarePolicy;

impl LevelPolicy for DelayAwarePolicy {
    fn decide(&mut self, ctx: &PolicyCtx<'_>) -> LevelDecision {
        let (cand, cur, cfg) = (ctx.candidate, ctx.current, ctx.cfg);
        let level = match ctx.delay.filter(|d| d.age <= DELAY_FRESH).map(|d| d.state) {
            Some(CongestionState::Overuse) => cand.max((cur + 1).min(cfg.max_level)),
            Some(CongestionState::Underuse)
                if ctx.queue_len < cfg.low_water && cur > cfg.min_level && cand >= cur =>
            {
                cur - 1
            }
            _ => return LevelDecision::queue(cand),
        };
        let reason = if level == cand {
            LevelReason::QueuePressure
        } else {
            LevelReason::DelayGradient
        };
        LevelDecision { level, reason }
    }
}

/// Stateful controller driving one stream's adaptive sends: tracks the
/// previous queue length, forbidden levels and the ratio penalty, runs
/// the divergence guard, and delegates the judgement call to the
/// configured [`LevelPolicy`].
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
    /// The pluggable judgement call (built from
    /// [`AdocConfig::level_policy`] at construction).
    policy: Box<dyn LevelPolicy>,
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
            policy: cfg.level_policy(),
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

    /// Computes the level for the next buffer at `now`, feeding the
    /// policy the freshest delay-gradient snapshot the caller has. The
    /// controller reads no clock: `now` is what the divergence guard's
    /// forbids are set from and expire against.
    pub fn next_level_with(
        &mut self,
        queue_len: usize,
        bw: &BandwidthMonitor,
        delay: Option<DelaySnapshot>,
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

        let candidate = update_level(
            queue_len,
            delta,
            self.level,
            cfg.min_level,
            cfg.max_level,
            cfg.low_water,
            cfg.mid_water,
            cfg.high_water,
        );

        let decision = self.policy.decide(&PolicyCtx {
            queue_len,
            delta,
            candidate,
            current: self.level,
            bw,
            delay,
            cfg,
        });
        let (lo, hi) = (cfg.min_level, cfg.max_level);
        let mut reason = decision.reason;
        let mut cand = self.below_forbids(decision.level.clamp(lo, hi), lo, &mut reason);

        // §5 divergence guard, under every policy: a smaller level that
        // visibly delivers more raw data than this one gets the buffer,
        // and this one is forbidden. A level already forbidden was
        // skipped above, so its forbid is never extended from the same
        // stale sample.
        if cand > lo {
            if let (Some(cur), Some((best, best_bps))) = (bw.visible(cand), bw.best_below(cand)) {
                if best_bps > cur * cfg.divergence_margin {
                    self.forbidden_until[cand as usize] = Some(now + cfg.forbid_duration);
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
        if cfg.ratio_guard == 0.0 {
            return; // guard disabled
        }
        if ratio < cfg.ratio_guard {
            if self.level > cfg.min_level {
                self.penalty_packets = cfg.ratio_penalty_packets;
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
        /// One decision at the wall clock, with no delay signal.
        fn next_level(&mut self, queue_len: usize, bw: &BandwidthMonitor, cfg: &AdocConfig) -> u8 {
            self.next_level_with(queue_len, bw, None, Instant::now(), cfg)
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
        // forbid_duration. The later proposals read an empty monitor so
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
            let level = c.next_level_with(25, bw, None, at, &cfg);
            (level, c.last_reason(), c.divergence_reverts)
        };
        let t0 = Instant::now();
        let forbid = cfg.forbid_duration;
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
            "the forbid lifts exactly at forbid_duration"
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
        assert_eq!(c.next_level_with(25, &bw, None, t0, &cfg), 1);
        assert_eq!(c.last_reason(), LevelReason::ThroughputDiverged);
        assert_eq!(c.divergence_reverts, 1);
        assert_eq!(c.forbidden_until[3], Some(t0 + cfg.forbid_duration));
    }

    #[test]
    fn a_lapsed_forbid_remeasures_the_level_once() {
        let cfg = test_cfg();
        let bw = slow_compressor_at_3();
        let mut c = LevelController::new(&cfg);
        let mut propose = |at: Instant| {
            c.level = 1;
            c.last_len = Some(20);
            let level = c.next_level_with(25, &bw, None, at, &cfg);
            (level, c.last_reason(), c.divergence_reverts)
        };
        let t0 = Instant::now();
        let forbid = cfg.forbid_duration;
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
    fn custom_policies_are_guarded_too() {
        struct Pin3;
        impl LevelPolicy for Pin3 {
            fn decide(&mut self, _ctx: &PolicyCtx<'_>) -> LevelDecision {
                LevelDecision::queue(3)
            }
        }
        let cfg = test_cfg().with_policy(std::sync::Arc::new(|| Box::new(Pin3)));
        let bw = slow_compressor_at_3();
        let mut c = LevelController::new(&cfg);
        let t0 = Instant::now();
        assert_eq!(c.next_level_with(0, &bw, None, t0, &cfg), 1);
        assert_eq!(c.last_reason(), LevelReason::ThroughputDiverged);
        assert_eq!(c.divergence_reverts, 1);
        // While the forbid holds the pinned level falls to the next one.
        let soon = t0 + Duration::from_millis(1);
        assert_eq!(c.next_level_with(0, &bw, None, soon, &cfg), 2);
    }

    #[test]
    fn a_message_starts_with_no_queue_delta() {
        // Every message has a fresh emission queue, so the delta a policy
        // sees on its first buffer is 0, not measured against the
        // previous message's last queue length.
        use std::sync::{Arc, Mutex};
        struct Deltas(Arc<Mutex<Vec<isize>>>);
        impl LevelPolicy for Deltas {
            fn decide(&mut self, ctx: &PolicyCtx<'_>) -> LevelDecision {
                self.0.lock().unwrap().push(ctx.delta);
                LevelDecision::queue(ctx.candidate)
            }
        }
        let seen = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&seen);
        let cfg = test_cfg().with_policy(Arc::new(move || Box::new(Deltas(Arc::clone(&log)))));
        let bw = BandwidthMonitor::new();
        let mut c = LevelController::new(&cfg);
        c.next_level(25, &bw, &cfg);
        c.begin_message();
        c.next_level(0, &bw, &cfg);
        assert_eq!(*seen.lock().unwrap(), [0, 0]);
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
        c.packets_pushed(cfg.ratio_penalty_packets - 1);
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
        c.packets_pushed(cfg.ratio_penalty_packets); // window fully drained
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

    fn delay_snap(state: CongestionState) -> DelaySnapshot {
        DelaySnapshot {
            queue_delay_us: 5_000,
            baseline_us: 0,
            gradient: 50.0,
            state,
            target_bps: None,
            groups: 20,
            source: crate::signals::SignalSource::Local,
            age: Duration::ZERO,
        }
    }

    #[test]
    fn overuse_delay_boosts_the_level() {
        // Mid-band queue holding steady would keep the level; a rising
        // delay gradient (network bottleneck) pushes it one step up.
        let cfg = test_cfg();
        let bw = BandwidthMonitor::new();
        let mut c = LevelController::new(&cfg);
        c.level = 3;
        c.last_len = Some(15);
        let l = c.next_level_with(
            15,
            &bw,
            Some(delay_snap(CongestionState::Overuse)),
            Instant::now(),
            &cfg,
        );
        assert_eq!(l, 4);
        assert_eq!(c.last_reason(), LevelReason::DelayGradient);
    }

    #[test]
    fn underuse_with_small_queue_backs_the_level_off() {
        // Small growing queue holds the level; a draining delay signal
        // (CPU bottleneck) backs it off one step instead.
        let cfg = test_cfg();
        let bw = BandwidthMonitor::new();
        let mut c = LevelController::new(&cfg);
        c.level = 5;
        c.last_len = Some(3);
        let l = c.next_level_with(
            5,
            &bw,
            Some(delay_snap(CongestionState::Underuse)),
            Instant::now(),
            &cfg,
        );
        assert_eq!(l, 4);
        assert_eq!(c.last_reason(), LevelReason::DelayGradient);
    }

    #[test]
    fn stale_delay_snapshots_are_ignored() {
        let cfg = test_cfg();
        let bw = BandwidthMonitor::new();
        let mut c = LevelController::new(&cfg);
        c.level = 3;
        c.last_len = Some(15);
        let mut snap = delay_snap(CongestionState::Overuse);
        snap.age = DELAY_FRESH + Duration::from_millis(1);
        let l = c.next_level_with(15, &bw, Some(snap), Instant::now(), &cfg);
        assert_eq!(l, 3, "stale signal must not boost");
        assert_eq!(c.last_reason(), LevelReason::QueuePressure);
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
