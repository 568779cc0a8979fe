//! The delay-gradient signal layer: every adaptive decision's input.
//!
//! The paper's controller (§3.3, §5) reacts to *throughput* — queue
//! growth and per-level visible bandwidth. Throughput is a trailing
//! indicator: by the time it collapses, queueing delay has been building
//! for a full bandwidth-estimation window. This module measures that
//! delay directly, the way TWCC-style congestion controllers do, and
//! publishes it as a [`DelaySnapshot`] that the level controller
//! ([`crate::adapt`]) consumes and the server's connection registry
//! reports. Policies live above; this layer only measures.
//!
//! # Estimator
//!
//! [`DelayGradientEstimator`] ingests `(departure, arrival)` timestamp
//! pairs, one per packet, and:
//!
//! 1. **buckets packets into groups** by departure time
//!    ([`BURST_WINDOW_US`] = 5 ms) — a burst sent back-to-back tells us
//!    nothing packet-by-packet, only group-by-group;
//! 2. computes per completed group the **inter-group delay delta**
//!    `(arrival_i − arrival_{i−1}) − (departure_i − departure_{i−1})`
//!    — deltas only, so a constant clock offset between the two
//!    timestamp domains (sender vs. receiver clock) cancels out;
//! 3. accumulates deltas into a **cumulative delay** normalised against
//!    its all-time minimum, yielding a one-way *queueing delay* that is
//!    non-negative by construction;
//! 4. tracks a **baseline** (the window minimum, via an
//!    ascending-minima deque) and a **gradient** (least-squares slope
//!    of queueing delay over recent groups);
//! 5. runs a small state machine: sustained positive gradient above the
//!    baseline ⇒ [`CongestionState::Overuse`] (with a multiplicative-
//!    decrease rate target, ×[`DECREASE_RATE_FACTOR`]); sustained
//!    negative gradient ⇒ [`CongestionState::Underuse`].
//!
//! # Hub
//!
//! [`SignalHub`] pairs two estimators per connection:
//!
//! * **local** — fed by the sender's emission path (packet enqueue →
//!   wire-write complete): measures the *emission queue* delay, which
//!   grows when the network (or the throttle) is the bottleneck;
//! * **remote** — fed by the receiver from departure timestamps carried
//!   in v2 frames ([`crate::wire::FRAME_TS_FLAG`]): measures the actual
//!   network path. On a duplex connection (an echo server, the reply
//!   direction of a request) the remote estimator closes the loop the
//!   paper could not: the sender sees the *receiver's* arrival clock.
//!
//! [`SignalHub::snapshot`] prefers the remote estimator while it is
//! fresh (updated within [`REMOTE_FRESH`]) and falls back to the local
//! one, so one-directional transfers still get a usable signal.

use parking_lot::Mutex;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Departure-time span of one packet group (TWCC's burst interval):
/// packets departing within 5 ms of a group's first packet belong to it.
pub const BURST_WINDOW_US: u64 = 5_000;

/// Completed groups the baseline (ascending-minima) window spans.
pub const BASELINE_WINDOW: usize = 64;

/// Completed groups the gradient (least-squares) window spans.
pub const GRADIENT_WINDOW: usize = 16;

/// Multiplicative decrease applied to the observed delivery rate when
/// the estimator transitions into overuse.
pub const DECREASE_RATE_FACTOR: f64 = 0.85;

/// Queueing delay above baseline that arms the overuse detector.
pub const OVERUSE_DELAY_US: u64 = 2_000;

/// Gradient magnitude (µs of queueing delay per group) that, sustained,
/// flips the state machine.
pub const GRADIENT_THRESHOLD: f64 = 25.0;

/// Consecutive triggering groups before the state machine commits.
const STATE_RUNS: u32 = 2;

/// Largest believable single inter-group delta. Deltas beyond ±1 s are
/// clock steps, wrap-around garbage or gross reordering, not congestion;
/// they are clamped so one bad timestamp cannot poison the cumulative
/// delay.
const MAX_GROUP_DELTA_US: i64 = 1_000_000;

/// How long a remote (wire-timestamp) signal stays authoritative before
/// [`SignalHub::snapshot`] falls back to the local emission signal.
pub const REMOTE_FRESH: Duration = Duration::from_secs(1);

/// What the delay trend says about where the bottleneck is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CongestionState {
    /// Delay flat: the pipe is keeping up.
    #[default]
    Normal,
    /// Delay rising: the network (or throttle) is the bottleneck.
    Overuse,
    /// Delay falling: queues are draining; capacity is spare.
    Underuse,
}

impl CongestionState {
    /// Stable lower-case name (for events/metrics JSON).
    pub fn as_str(self) -> &'static str {
        match self {
            CongestionState::Normal => "normal",
            CongestionState::Overuse => "overuse",
            CongestionState::Underuse => "underuse",
        }
    }
}

/// Which estimator produced a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SignalSource {
    /// Sender-side emission queue (enqueue → wire write).
    Local,
    /// Receiver-side arrival clock via wire timestamps.
    Remote,
}

/// One published measurement from the signal layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelaySnapshot {
    /// Current queueing delay (cumulative delay above its all-time
    /// minimum). Non-negative by construction.
    pub queue_delay_us: u64,
    /// Window-minimum queueing delay (ascending-minima baseline).
    /// Always `<= queue_delay_us`.
    pub baseline_us: u64,
    /// Least-squares slope of queueing delay, in µs per packet group
    /// (a group spans [`BURST_WINDOW_US`]).
    pub gradient: f64,
    /// The state machine's verdict.
    pub state: CongestionState,
    /// Multiplicative-decrease delivery-rate target (bits/s of wire
    /// data), set while in overuse.
    pub target_bps: Option<f64>,
    /// Completed groups observed so far.
    pub groups: u64,
    /// Which estimator this snapshot came from.
    pub source: SignalSource,
    /// Time since the estimator last completed a group.
    pub age: Duration,
}

impl DelaySnapshot {
    /// Queueing delay above the baseline — the congestion-attributable
    /// part of the delay. Never underflows (`baseline <= queue_delay`).
    pub fn above_baseline_us(&self) -> u64 {
        self.queue_delay_us.saturating_sub(self.baseline_us)
    }
}

/// One departure-time bucket of packets.
#[derive(Debug, Clone, Copy)]
struct PacketGroup {
    first_departure_us: u64,
    departure_us: u64,
    arrival_us: u64,
    bytes: u64,
}

/// TWCC-style delay-gradient estimator over `(departure, arrival)`
/// timestamp pairs. Single-threaded; wrap it in a lock ([`SignalHub`]
/// does) to share.
///
/// Timestamps are µs on *any* two clocks — the departure clock and the
/// arrival clock need not agree (deltas cancel constant offsets), need
/// not be monotonic (negative deltas lower the cumulative minimum
/// instead of underflowing), and may step wildly (deltas are clamped to
/// ±1 s).
#[derive(Debug, Default)]
pub struct DelayGradientEstimator {
    group: Option<PacketGroup>,
    prev: Option<PacketGroup>,
    /// Running sum of inter-group deltas (µs, may go negative).
    cumulative_us: i64,
    /// All-time minimum of `cumulative_us` — the normalisation floor
    /// that keeps the published queueing delay non-negative.
    min_cumulative_us: i64,
    /// Queueing delay of recent completed groups, newest last.
    history: VecDeque<u64>,
    /// Ascending-minima deque of `(group index, queueing delay)` over
    /// the baseline window; front is the window minimum.
    minima: VecDeque<(u64, u64)>,
    groups: u64,
    state: CongestionState,
    over_runs: u32,
    under_runs: u32,
    target_bps: Option<f64>,
    /// Decaying delivery-rate accumulator (bytes, seconds).
    rate_bytes: f64,
    rate_secs: f64,
}

impl DelayGradientEstimator {
    /// A fresh estimator with no observations.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ingests one packet: it departed (entered the queue / left the
    /// sender) at `departure_us` and arrived (hit the wire / reached
    /// the receiver) at `arrival_us`, carrying `bytes` wire bytes.
    pub fn on_packet(&mut self, departure_us: u64, arrival_us: u64, bytes: usize) {
        let g = match self.group {
            None => {
                self.group = Some(PacketGroup {
                    first_departure_us: departure_us,
                    departure_us,
                    arrival_us,
                    bytes: bytes as u64,
                });
                return;
            }
            Some(ref mut g) => g,
        };
        // A packet departing within the burst window of the group's
        // first — or *before* it (reordering) — joins the group.
        if departure_us.saturating_sub(g.first_departure_us) <= BURST_WINDOW_US {
            g.departure_us = g.departure_us.max(departure_us);
            g.arrival_us = g.arrival_us.max(arrival_us);
            g.bytes += bytes as u64;
            return;
        }
        // New group: complete the current one first.
        let done = *g;
        self.group = Some(PacketGroup {
            first_departure_us: departure_us,
            departure_us,
            arrival_us,
            bytes: bytes as u64,
        });
        self.complete_group(done);
    }

    fn complete_group(&mut self, done: PacketGroup) {
        if let Some(prev) = self.prev {
            // Deltas via wrapping math: the clocks are untrusted and the
            // clamp below absorbs anything implausible.
            let arrival_delta = done.arrival_us.wrapping_sub(prev.arrival_us) as i64;
            let departure_delta = done.departure_us.wrapping_sub(prev.departure_us) as i64;
            let delta = arrival_delta
                .wrapping_sub(departure_delta)
                .clamp(-MAX_GROUP_DELTA_US, MAX_GROUP_DELTA_US);
            self.cumulative_us = self.cumulative_us.saturating_add(delta);
            self.min_cumulative_us = self.min_cumulative_us.min(self.cumulative_us);

            // Delivery rate from arrival spacing (for the multiplicative-
            // decrease target); implausible spacings contribute time only
            // up to the clamp.
            let secs = (arrival_delta.clamp(0, MAX_GROUP_DELTA_US) as f64) / 1e6;
            self.rate_bytes += done.bytes as f64;
            self.rate_secs += secs;
            if self.rate_secs > 2.0 {
                self.rate_bytes /= 2.0;
                self.rate_secs /= 2.0;
            }
        }
        self.prev = Some(done);
        self.groups += 1;

        // Non-negative by construction: cumulative >= all-time minimum.
        let queue_delay = (self.cumulative_us - self.min_cumulative_us) as u64;
        self.history.push_back(queue_delay);
        while self.history.len() > BASELINE_WINDOW {
            self.history.pop_front();
        }
        // Ascending-minima window over the last BASELINE_WINDOW groups.
        while self.minima.back().is_some_and(|&(_, v)| v >= queue_delay) {
            self.minima.pop_back();
        }
        self.minima.push_back((self.groups, queue_delay));
        let floor = self.groups.saturating_sub(BASELINE_WINDOW as u64);
        while self.minima.front().is_some_and(|&(i, _)| i <= floor) {
            self.minima.pop_front();
        }

        self.update_state(queue_delay);
    }

    fn update_state(&mut self, queue_delay: u64) {
        let baseline = self.baseline_us();
        let above = queue_delay.saturating_sub(baseline);
        let slope = self.gradient();
        if above > OVERUSE_DELAY_US && slope > GRADIENT_THRESHOLD {
            self.over_runs += 1;
            self.under_runs = 0;
        } else if slope < -GRADIENT_THRESHOLD {
            self.under_runs += 1;
            self.over_runs = 0;
        } else {
            self.over_runs = 0;
            self.under_runs = 0;
            self.state = CongestionState::Normal;
            self.target_bps = None;
            return;
        }
        if self.over_runs >= STATE_RUNS {
            if self.state != CongestionState::Overuse {
                // Multiplicative decrease on entry, TWCC-style.
                self.target_bps = self.delivery_bps().map(|r| r * DECREASE_RATE_FACTOR);
            }
            self.state = CongestionState::Overuse;
        } else if self.under_runs >= STATE_RUNS {
            self.state = CongestionState::Underuse;
            self.target_bps = None;
        }
    }

    /// Window-minimum queueing delay (µs). Zero before any group
    /// completes.
    pub fn baseline_us(&self) -> u64 {
        self.minima.front().map_or(0, |&(_, v)| v)
    }

    /// Current queueing delay (µs): cumulative delay above its all-time
    /// minimum.
    pub fn queue_delay_us(&self) -> u64 {
        (self.cumulative_us - self.min_cumulative_us) as u64
    }

    /// Least-squares slope of queueing delay over the last
    /// [`GRADIENT_WINDOW`] groups, in µs per group. Zero until two
    /// groups complete.
    pub fn gradient(&self) -> f64 {
        let n = self.history.len().min(GRADIENT_WINDOW);
        if n < 2 {
            return 0.0;
        }
        let start = self.history.len() - n;
        let mut sx = 0.0;
        let mut sy = 0.0;
        let mut sxx = 0.0;
        let mut sxy = 0.0;
        for (i, &y) in self.history.iter().skip(start).enumerate() {
            let x = i as f64;
            let y = y as f64;
            sx += x;
            sy += y;
            sxx += x * x;
            sxy += x * y;
        }
        let nf = n as f64;
        let denom = nf * sxx - sx * sx;
        if denom <= 0.0 {
            0.0
        } else {
            (nf * sxy - sx * sy) / denom
        }
    }

    /// Observed delivery rate (wire bits/s) from group arrival spacing.
    pub fn delivery_bps(&self) -> Option<f64> {
        if self.rate_secs < 1e-3 || self.rate_bytes <= 0.0 {
            None
        } else {
            Some(self.rate_bytes * 8.0 / self.rate_secs)
        }
    }

    /// Completed groups so far.
    pub fn groups(&self) -> u64 {
        self.groups
    }

    /// The state machine's current verdict.
    pub fn state(&self) -> CongestionState {
        self.state
    }

    /// Snapshot of the estimator; the caller supplies the source tag
    /// and signal age ([`SignalHub`] does this for its two slots).
    pub fn snapshot(&self, source: SignalSource, age: Duration) -> DelaySnapshot {
        DelaySnapshot {
            queue_delay_us: self.queue_delay_us(),
            baseline_us: self.baseline_us(),
            gradient: self.gradient(),
            state: self.state,
            target_bps: self.target_bps,
            groups: self.groups,
            source,
            age,
        }
    }
}

/// One estimator plus the wall-clock instant it last completed a group.
#[derive(Debug, Default)]
struct Slot {
    est: DelayGradientEstimator,
    updated: Option<Instant>,
}

/// Per-connection home of the delay signals: the sender's emission path
/// feeds the **local** estimator, the receiver's wire-timestamp path
/// feeds the **remote** one, and every reader (the level policy, the
/// server's registry) takes [`SignalHub::snapshot`].
///
/// All methods take `&self`; the two estimators are independently
/// locked, so recording on the emission thread never contends with the
/// receiver thread.
#[derive(Debug)]
pub struct SignalHub {
    origin: Instant,
    local: Mutex<Slot>,
    remote: Mutex<Slot>,
}

impl Default for SignalHub {
    fn default() -> Self {
        SignalHub {
            origin: Instant::now(),
            local: Mutex::new(Slot::default()),
            remote: Mutex::new(Slot::default()),
        }
    }
}

impl SignalHub {
    /// A fresh hub with its timestamp origin at "now".
    pub fn new() -> Self {
        Self::default()
    }

    /// µs since this hub's origin — the value stamped into outgoing v2
    /// frames ([`crate::wire::FRAME_TS_FLAG`]). Only deltas of these
    /// ever matter, so the arbitrary origin is fine.
    pub fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    /// Feeds the local estimator: a packet entered the emission queue at
    /// `queued` and its socket write completed at `written`.
    pub fn record_local(&self, queued: Instant, written: Instant, bytes: usize) {
        let dep = queued.saturating_duration_since(self.origin).as_micros() as u64;
        let arr = written.saturating_duration_since(self.origin).as_micros() as u64;
        let mut slot = self.local.lock();
        let before = slot.est.groups();
        slot.est.on_packet(dep, arr, bytes);
        if slot.est.groups() != before {
            slot.updated = Some(Instant::now());
        }
    }

    /// Feeds the remote estimator: a frame stamped `departure_us` (the
    /// peer's clock) arrived here at `arrival_us` (this hub's clock, via
    /// [`SignalHub::now_us`]).
    pub fn record_remote(&self, departure_us: u64, arrival_us: u64, bytes: usize) {
        let mut slot = self.remote.lock();
        let before = slot.est.groups();
        slot.est.on_packet(departure_us, arrival_us, bytes);
        if slot.est.groups() != before {
            slot.updated = Some(Instant::now());
        }
    }

    /// The freshest available signal: the remote (wire-timestamp)
    /// estimator while it has completed a group within
    /// [`REMOTE_FRESH`], otherwise the local (emission) one. `None`
    /// until either estimator completes a group.
    pub fn snapshot(&self) -> Option<DelaySnapshot> {
        let now = Instant::now();
        {
            let remote = self.remote.lock();
            if let Some(t) = remote.updated {
                let age = now.saturating_duration_since(t);
                if age <= REMOTE_FRESH {
                    return Some(remote.est.snapshot(SignalSource::Remote, age));
                }
            }
        }
        let local = self.local.lock();
        let t = local.updated?;
        Some(
            local
                .est
                .snapshot(SignalSource::Local, now.saturating_duration_since(t)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A continuous two-clock feed: each call sends `n` more groups with
    /// the given per-group growth in arrival time beyond the departure
    /// spacing (positive = queue building).
    struct Feed {
        dep: u64,
        arr: u64,
    }

    impl Feed {
        fn new() -> Feed {
            Feed { dep: 0, arr: 1_000 }
        }

        fn groups(&mut self, est: &mut DelayGradientEstimator, n: usize, growth_us: i64) {
            for _ in 0..n {
                est.on_packet(self.dep, self.arr, 8_192);
                self.dep += BURST_WINDOW_US + 1_000;
                self.arr = (self.arr as i64 + (BURST_WINDOW_US + 1_000) as i64 + growth_us) as u64;
            }
        }
    }

    #[test]
    fn steady_flow_is_normal() {
        let mut est = DelayGradientEstimator::new();
        Feed::new().groups(&mut est, 50, 0);
        assert_eq!(est.state(), CongestionState::Normal);
        assert_eq!(est.queue_delay_us(), 0);
        assert_eq!(est.baseline_us(), 0);
        assert!(est.gradient().abs() < 1.0, "{}", est.gradient());
        assert!(est.groups() >= 48);
    }

    #[test]
    fn building_queue_trips_overuse_with_rate_target() {
        let mut est = DelayGradientEstimator::new();
        let mut f = Feed::new();
        f.groups(&mut est, 10, 0);
        // Every group arrives 800 µs later than its departure spacing
        // says it should: the path queue is building fast.
        f.groups(&mut est, 30, 800);
        assert_eq!(est.state(), CongestionState::Overuse);
        assert!(est.gradient() > GRADIENT_THRESHOLD, "{}", est.gradient());
        let snap = est.snapshot(SignalSource::Local, Duration::ZERO);
        assert!(snap.above_baseline_us() > OVERUSE_DELAY_US);
        let target = snap.target_bps.expect("overuse sets a rate target");
        let rate = est.delivery_bps().expect("rate observed");
        assert!(target < rate, "target {target} must undercut rate {rate}");
    }

    #[test]
    fn draining_queue_reports_underuse_then_normal() {
        let mut est = DelayGradientEstimator::new();
        let mut f = Feed::new();
        f.groups(&mut est, 10, 0);
        f.groups(&mut est, 20, 900); // build
        f.groups(&mut est, 18, -900); // drain long enough to flip the window
        assert_eq!(est.state(), CongestionState::Underuse);
        assert!(est.gradient() < -GRADIENT_THRESHOLD);
        f.groups(&mut est, 40, 0); // settle
        assert_eq!(est.state(), CongestionState::Normal);
    }

    #[test]
    fn clock_offset_between_domains_cancels() {
        // Receiver clock runs 7 hours ahead of the sender clock: the
        // estimator must behave exactly as with aligned clocks.
        let offset = 7 * 3600 * 1_000_000u64;
        let mut est = DelayGradientEstimator::new();
        let mut dep = 0u64;
        let mut arr = offset;
        for _ in 0..40 {
            est.on_packet(dep, arr, 4_096);
            dep += BURST_WINDOW_US + 500;
            arr += BURST_WINDOW_US + 500;
        }
        assert_eq!(est.state(), CongestionState::Normal);
        assert_eq!(est.queue_delay_us(), 0);
    }

    #[test]
    fn reordered_packets_fold_into_the_open_group() {
        let mut est = DelayGradientEstimator::new();
        est.on_packet(10_000, 20_000, 1_000);
        // A packet that departed *earlier* than the group's first must
        // not start a new group or panic.
        est.on_packet(8_000, 21_000, 1_000);
        est.on_packet(30_000, 40_000, 1_000); // completes the group
        assert_eq!(est.groups(), 1);
    }

    #[test]
    fn a_single_wild_timestamp_cannot_poison_the_estimator() {
        let mut est = DelayGradientEstimator::new();
        Feed::new().groups(&mut est, 20, 0);
        // One frame claims to have arrived 10 minutes late.
        let dep = 20 * (BURST_WINDOW_US + 1_000) + 50_000;
        est.on_packet(dep, dep + 600_000_000, 1_000);
        est.on_packet(
            dep + BURST_WINDOW_US + 1_000,
            dep + 600_000_000 + 6_000,
            1_000,
        );
        est.on_packet(
            dep + 2 * (BURST_WINDOW_US + 1_000),
            dep + 600_000_000 + 12_000,
            1_000,
        );
        // The clamp bounds the damage to ±1 s of cumulative delay.
        assert!(est.queue_delay_us() <= 2 * MAX_GROUP_DELTA_US as u64);
    }

    #[test]
    fn hub_prefers_fresh_remote_over_local() {
        let hub = SignalHub::new();
        assert!(hub.snapshot().is_none());

        // Local-only: snapshot falls back to the emission signal.
        let t0 = hub.origin;
        for i in 0..4u64 {
            let q = t0 + Duration::from_micros(i * (BURST_WINDOW_US + 2_000));
            let w = q + Duration::from_micros(300);
            hub.record_local(q, w, 8_192);
        }
        let snap = hub.snapshot().expect("local signal");
        assert_eq!(snap.source, SignalSource::Local);

        // Remote groups arrive: remote wins while fresh.
        for i in 0..4u64 {
            let dep = i * (BURST_WINDOW_US + 2_000);
            hub.record_remote(dep, dep + 150, 8_192);
        }
        let snap = hub.snapshot().expect("remote signal");
        assert_eq!(snap.source, SignalSource::Remote);
        assert!(snap.age <= REMOTE_FRESH);
    }

    #[test]
    fn hub_timestamps_are_monotonic_enough() {
        let hub = SignalHub::new();
        let a = hub.now_us();
        let b = hub.now_us();
        assert!(b >= a);
    }
}
