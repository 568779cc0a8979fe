//! Global bandwidth scheduling: a **work-conserving weighted max-min**
//! scheduler over the daemon's aggregate wire budget.
//!
//! One [`FairScheduler`] guards the budget. Each connection registers a
//! token bucket with a *weight* (derived from its [`Tier`] and a
//! per-connection multiplier); the scheduler refills buckets from the
//! **aggregate** budget in deficit-round-robin style epochs rather than
//! at fixed per-bucket rates, so share a quiet connection leaves on the
//! table flows to backlogged peers instead of evaporating — the policy
//! layer the middleware papers argue should sit *above* the transport,
//! plugged in through the transport's own seam:
//! [`adoc::Throttle::acquire_wire`].
//!
//! ## Refill model
//!
//! Time is sliced into refill epochs (any admission more than
//! [`MIN_EPOCH_SECS`] after the previous refill advances the epoch; a
//! blocked waiter's wakeup deadline does too). The elapsed budget
//! `budget × dt` is distributed by weighted water-filling in two phases:
//!
//! 1. **backlogged buckets first** — every bucket with a blocked waiter
//!    splits the credit in proportion to its weight, max-min style:
//!    credit a bucket cannot hold (its burst cap) cascades to the
//!    remaining backlogged buckets;
//! 2. **idle banking from surplus only** — whatever the backlogged set
//!    could not absorb tops up idle buckets (up to their burst caps), so
//!    short interactive messages still find a burst allowance, but an
//!    idle bank never starves a backlogged transfer.
//!
//! A fully loaded scheduler therefore pins aggregate admission at the
//! budget no matter how the load is skewed: 1 busy + N idle connections
//! run the budget, not `budget / (N + 1)`.
//!
//! ## Admission and wakeups
//!
//! The model is debt-based: an admission always succeeds once the bucket
//! is positive and then deducts the full byte count, letting the balance
//! go negative. A connection that just moved a 200 KB frame therefore
//! waits until its share has paid the debt off — large writes are paced
//! exactly like many small ones, with no risk of a request larger than
//! the burst capacity starving forever.
//!
//! Waiters are **event-driven**, not polled: a blocked connection
//! computes the instant its debt clears at its current max-min share and
//! sleeps exactly until then, and every state change that could admit it
//! earlier — a refill credited by another connection's admission, a
//! deregistration returning share, a budget change — signals the condvar
//! so the waiter re-evaluates immediately instead of rediscovering the
//! world on a 0.5–50 ms poll.
//!
//! ## Observability and drain
//!
//! [`FairScheduler::snapshot`] is read-only and never touches the pacing
//! mutex: per-bucket counters live in atomics behind a separate
//! directory lock, so a metrics poll cannot stall admissions or mutate
//! pacing state. Traffic from connections that already deregistered
//! (pipelines still flushing during a drain) is charged to a shared
//! **drain bucket** that participates in scheduling like any other
//! bucket, so the aggregate cap holds end-to-end instead of drain
//! traffic slipping through unpaced.

use crate::event::{Event, EventBus};
use adoc::{DelaySnapshot, Throttle};
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-connection token-bucket burst ceiling, in seconds of that
/// connection's weighted share of the budget: an idle connection can
/// bank up to this much share (from surplus only) and then burst it,
/// which keeps short interactive messages snappy without letting
/// long-idle connections hoard unbounded credit.
const BURST_SECS: f64 = 0.25;

/// Minimum burst in bytes, so tiny shares still admit whole packets
/// without pathological wakeup counts.
const MIN_BURST: f64 = 64.0 * 1024.0;

/// Admissions closer together than this reuse the previous epoch's
/// balances instead of redistributing, bounding refill work per packet.
const MIN_EPOCH_SECS: f64 = 0.0005;

/// Floor on a computed wakeup sleep, so rounding can never busy-spin a
/// waiter.
const MIN_SLEEP_SECS: f64 = 0.0002;

/// Fraction of every refill epoch reserved for backlogged Control-tier
/// buckets (the phase-0 preemption quanta): however deep the bulk
/// backlog, a blocked control admission's debt is paid at no less than
/// this share of the budget, which is what bounds its p99 admission
/// latency.
const CONTROL_PREEMPT_FRACTION: f64 = 0.5;

/// Ceiling on the delay-driven weight boost [`FairScheduler::report_delay`]
/// may apply to a Control-tier connection.
const MAX_DELAY_BOOST: f64 = 2.0;

/// Queueing delay above baseline (µs) at which the delay boost saturates.
const BOOST_SATURATION_US: f64 = 10_000.0;

/// Priority tier of a connection's traffic: `Control > Paid > Bulk`.
///
/// A tier is a weight preset on the same knob as the per-connection
/// weight multiplier: a backlogged Control connection receives 4× the
/// share of a backlogged Bulk connection (2× a Paid one) under
/// contention, and exactly the budget when alone — weighted max-min,
/// not strict priority, so no tier can starve another.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Tier {
    /// Latency-sensitive control traffic (4× Bulk's weight).
    Control,
    /// Paying clients (2× Bulk's weight).
    Paid,
    /// Background/bulk transfers (weight 1).
    #[default]
    Bulk,
}

impl Tier {
    /// The tier's weight multiplier.
    pub fn weight(self) -> f64 {
        match self {
            Tier::Control => 4.0,
            Tier::Paid => 2.0,
            Tier::Bulk => 1.0,
        }
    }

    /// Compact encoding for the lock-free per-connection tier cell.
    fn code(self) -> u8 {
        match self {
            Tier::Control => 0,
            Tier::Paid => 1,
            Tier::Bulk => 2,
        }
    }

    fn from_code(code: u8) -> Tier {
        match code {
            0 => Tier::Control,
            1 => Tier::Paid,
            _ => Tier::Bulk,
        }
    }

    /// Lower-case name for metrics output and flag parsing.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Control => "control",
            Tier::Paid => "paid",
            Tier::Bulk => "bulk",
        }
    }
}

impl std::str::FromStr for Tier {
    type Err = String;
    fn from_str(s: &str) -> Result<Tier, String> {
        match s {
            "control" => Ok(Tier::Control),
            "paid" => Ok(Tier::Paid),
            "bulk" => Ok(Tier::Bulk),
            other => Err(format!("unknown tier {other:?} (control|paid|bulk)")),
        }
    }
}

impl std::fmt::Display for Tier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Lock-free per-connection counters shared between the pacing state,
/// the owning [`ConnThrottle`], and the snapshot directory. Everything a
/// metrics poll reads lives here, so snapshots never take the pacing
/// mutex.
#[derive(Debug)]
struct ConnStats {
    /// Wire bytes ever admitted for this connection.
    admitted: AtomicU64,
    /// f64 bit-pattern of the token balance as of the last pacing event
    /// (registration, refill, or admission) — advisory for metrics.
    tokens_bits: AtomicU64,
    /// Per-connection weight multiplier from registration; immutable.
    base_weight: f64,
    /// Current tier ([`Tier::code`]); mutable via
    /// [`FairScheduler::set_tier`].
    tier_code: AtomicU8,
    /// f64 bit-pattern of the delay-driven weight boost (1.0 = none),
    /// written by [`FairScheduler::report_delay`].
    boost_bits: AtomicU64,
    /// Latest delay snapshot reported for this connection (metrics and
    /// registry policies read it back through [`BucketSnapshot`]).
    delay: Mutex<Option<DelaySnapshot>>,
}

impl ConnStats {
    fn new(base_weight: f64, tier: Tier, tokens: f64) -> Arc<ConnStats> {
        Arc::new(ConnStats {
            admitted: AtomicU64::new(0),
            tokens_bits: AtomicU64::new(tokens.to_bits()),
            base_weight,
            tier_code: AtomicU8::new(tier.code()),
            boost_bits: AtomicU64::new(1.0f64.to_bits()),
            delay: Mutex::new(None),
        })
    }

    fn store_tokens(&self, tokens: f64) {
        self.tokens_bits.store(tokens.to_bits(), Ordering::Relaxed);
    }

    fn tokens(&self) -> f64 {
        f64::from_bits(self.tokens_bits.load(Ordering::Relaxed))
    }

    fn tier(&self) -> Tier {
        Tier::from_code(self.tier_code.load(Ordering::Relaxed))
    }

    fn boost(&self) -> f64 {
        f64::from_bits(self.boost_bits.load(Ordering::Relaxed))
    }

    /// Effective scheduling weight: tier multiplier × registration
    /// weight × delay boost.
    fn weight(&self) -> f64 {
        self.tier().weight() * self.base_weight * self.boost()
    }
}

/// Scheduling state captured from a live registration so it can
/// survive a disconnect: a resumed connection is rebuilt from this via
/// [`FairScheduler::restore`] instead of a fresh registration, keeping
/// its tier, weight, token balance (debt included) and lifetime
/// admitted byte counter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedCarryover {
    /// Priority tier at the moment of capture.
    pub tier: Tier,
    /// Per-connection weight multiplier from registration.
    pub weight: f64,
    /// Token balance in bytes; negative means the connection detached
    /// in debt and must earn its way back before admitting.
    pub tokens: f64,
    /// Lifetime wire bytes admitted before the disconnect.
    pub admitted: u64,
}

/// One pacing bucket (a registered connection, or the shared drain
/// bucket).
#[derive(Debug)]
struct Bucket {
    /// Token balance in bytes; may be negative (debt) after a large
    /// admission.
    tokens: f64,
    /// Refused admissions pending on this bucket: threads asleep on
    /// the condvar (a striped group's emission threads share one
    /// bucket, orphans share the drain bucket) plus a connection parked
    /// in its reactor. While non-zero the bucket is backlogged and
    /// refills keep crediting it.
    pending: usize,
    /// When the wait the bucket's next admission ends began: its first
    /// refusal, or the previous admission if others stayed pending.
    /// That admission reports it as one [`Event::SchedWait`].
    backlogged_since: Option<Instant>,
    /// The pending admission came through the nonblocking path (the
    /// connection is parked in its reactor): counted in
    /// [`FairScheduler::parked`] until admitted or deregistered.
    parked: bool,
    /// Shared counters (also referenced by the directory and the
    /// connection's throttle handle).
    stats: Arc<ConnStats>,
}

impl Bucket {
    fn new(tokens: f64, stats: Arc<ConnStats>) -> Bucket {
        Bucket {
            tokens,
            pending: 0,
            backlogged_since: None,
            parked: false,
            stats,
        }
    }

    fn weight(&self) -> f64 {
        self.stats.weight()
    }

    /// True when an admission is pending on this bucket. Backlogged
    /// buckets get phase-1 refill credit and count toward the max-min
    /// share denominator.
    fn backlogged(&self) -> bool {
        self.pending > 0
    }
}

/// Where an admission attempt stands in its caller's wait episode.
#[derive(Clone, Copy, PartialEq)]
enum Stage {
    /// Not refused yet: the caller is not among the bucket's `pending`.
    First,
    /// A retry woken early by someone else's refill.
    Woken,
    /// A retry at the hinted instant — the event the caller waited
    /// for, so it forces the refill past `MIN_EPOCH_SECS`.
    Due,
}

/// Pacing state: everything admissions touch, behind one mutex that the
/// snapshot path never takes.
#[derive(Debug)]
struct Pacing {
    /// Aggregate budget in bytes/second; `None` = unlimited.
    budget: Option<f64>,
    buckets: HashMap<u64, Bucket>,
    /// Shared bucket charged for traffic from already-deregistered
    /// connections (pipelines flushing during a drain).
    drain: Bucket,
    /// When the last refill epoch was taken.
    last_refill: Instant,
    /// Threads asleep on the `refilled` condvar; refills only notify
    /// when this is non-zero.
    sleepers: usize,
}

impl Pacing {
    /// Every bucket: the registered ones and the shared drain bucket.
    fn all(&self) -> impl Iterator<Item = &Bucket> {
        self.buckets.values().chain([&self.drain])
    }

    /// Sum of every bucket's weight — the denominator for burst caps.
    fn total_weight(&self) -> f64 {
        self.all().map(Bucket::weight).sum()
    }

    /// Summed weight of the backlogged buckets of `tier` (`None` = any)
    /// — the denominator of a waiter's max-min share prediction.
    fn backlogged_weight(&self, tier: Option<Tier>) -> f64 {
        self.all()
            .filter(|b| b.backlogged() && tier.is_none_or(|t| b.stats.tier() == t))
            .map(Bucket::weight)
            .sum()
    }

    fn bucket_mut(&mut self, conn: u64) -> &mut Bucket {
        // Deregistered while a pipeline thread was still flushing: the
        // shared drain bucket paces it so the aggregate cap holds.
        match self.buckets.get_mut(&conn) {
            Some(b) => b,
            None => &mut self.drain,
        }
    }

    /// Burst cap for a bucket of weight `w` under `budget`.
    fn cap_for(budget: f64, w: f64, total_weight: f64) -> f64 {
        (budget * BURST_SECS * w / total_weight.max(w)).max(MIN_BURST)
    }

    /// Burst cap a bucket of weight `w` registering now would get.
    fn joining_cap(&self, w: f64) -> f64 {
        match self.budget {
            Some(budget) => Self::cap_for(budget, w, self.total_weight() + w),
            None => MIN_BURST,
        }
    }

    /// Advances the refill epoch if it is stale, water-filling the
    /// elapsed budget across buckets (backlogged first, idle banks from
    /// surplus). Returns the credit distributed (0.0 = the epoch did
    /// not advance).
    fn refill(&mut self, now: Instant, force: bool) -> f64 {
        let Some(budget) = self.budget else {
            self.last_refill = now;
            return 0.0;
        };
        let dt = now.duration_since(self.last_refill).as_secs_f64();
        if dt <= 0.0 || (!force && dt < MIN_EPOCH_SECS) {
            return 0.0;
        }
        self.last_refill = now;
        let credit = budget * dt;
        let total_weight = self.total_weight();

        // Phase 0: preemption quanta. Backlogged Control-tier buckets
        // take a reserved slice of the epoch ahead of the general
        // weighted split, so a blocked control admission's debt is paid
        // at >= CONTROL_PREEMPT_FRACTION of the budget no matter how
        // many bulk waiters compete — the bound behind the control-tier
        // p99 admission-latency guarantee.
        let mut remaining = credit;
        let control = self.phase_buckets(|b| b.backlogged() && b.stats.tier() == Tier::Control);
        if !control.is_empty() {
            let reserve = credit * CONTROL_PREEMPT_FRACTION;
            let leftover = Self::water_fill(control, reserve, budget, total_weight);
            remaining = credit - (reserve - leftover);
        }

        // Phase 1: backlogged buckets split the remaining credit.
        let surplus = Self::water_fill(
            self.phase_buckets(|b| b.backlogged()),
            remaining,
            budget,
            total_weight,
        );
        // Phase 2: idle buckets bank whatever the backlogged set could
        // not hold. Credit beyond every cap evaporates (nobody may hoard
        // more than a burst).
        Self::water_fill(
            self.phase_buckets(|b| !b.backlogged()),
            surplus,
            budget,
            total_weight,
        );
        credit
    }

    fn phase_buckets(&mut self, pred: impl Fn(&Bucket) -> bool) -> Vec<&mut Bucket> {
        let all = self.buckets.values_mut().chain([&mut self.drain]);
        all.filter(|b| pred(b)).collect()
    }

    /// Weighted max-min water-filling: distributes `credit` over
    /// `set` in proportion to weights, cascading credit above a
    /// bucket's burst cap back into the pool; returns what the set
    /// could not absorb.
    fn water_fill(
        mut set: Vec<&mut Bucket>,
        mut credit: f64,
        budget: f64,
        total_weight: f64,
    ) -> f64 {
        while credit > 1e-9 && !set.is_empty() {
            // Drop buckets already at cap; they absorb nothing.
            let mut i = 0;
            while i < set.len() {
                let cap = Self::cap_for(budget, set[i].weight(), total_weight);
                if set[i].tokens >= cap {
                    set.swap_remove(i);
                } else {
                    i += 1;
                }
            }
            if set.is_empty() {
                break;
            }
            let w_sum: f64 = set.iter().map(|b| b.weight()).sum();
            let mut leftover = 0.0;
            let mut any_capped = false;
            for b in set.iter_mut() {
                let cap = Self::cap_for(budget, b.weight(), total_weight);
                let give = credit * b.weight() / w_sum;
                let room = cap - b.tokens;
                if give >= room {
                    leftover += give - room;
                    b.tokens = cap;
                    any_capped = true;
                } else {
                    b.tokens += give;
                }
                // Mirror into the snapshot atomics only for buckets the
                // fill actually touched — a refill epoch must not do
                // O(all buckets) stores under the pacing lock.
                b.stats.store_tokens(b.tokens);
            }
            credit = leftover;
            if !any_capped {
                // Everyone took their full proportional share.
                return 0.0;
            }
        }
        credit
    }
}

struct Inner {
    /// Lock-free mirror of `pacing.budget` (f64 bits, NaN = unlimited)
    /// so an unlimited scheduler's admissions and the metrics path's
    /// [`FairScheduler::budget`] never touch the pacing mutex. Release
    /// on write / Acquire on read; an `acquire_wire` call that read
    /// the flag just before a `set_budget` may still finish on its old
    /// path — the retune takes effect from the next admission on.
    budget_bits: AtomicU64,
    pacing: Mutex<Pacing>,
    /// Signalled on refills that credited buckets while waiters were
    /// blocked, on deregistration (shares grew), and on budget changes.
    refilled: Condvar,
    /// Registration directory for the snapshot path: never touched by
    /// admissions.
    directory: Mutex<HashMap<u64, Arc<ConnStats>>>,
    drain_stats: Arc<ConnStats>,
    /// Lifetime wire bytes admitted across every bucket that ever
    /// existed (per-bucket counters die with their registration) — the
    /// numerator of the metrics document's utilization figure.
    total_admitted: AtomicU64,
    /// Wire bytes admitted while the budget was lifted (unlimited):
    /// counted in `total_admitted` but never charged to any bucket, so
    /// [`FairScheduler::utilization`] subtracts them — unpaced traffic
    /// must not register as budget consumption.
    unpaced_admitted: AtomicU64,
    /// f64 bit-pattern of the cumulative admission **capacity** ever
    /// granted, in bytes: one-time registration burst grants, refill
    /// credit (`budget × dt` per epoch), and debt forgiven when an
    /// indebted bucket deregisters. Written only under the pacing lock
    /// (via a CAS loop for safety), read lock-free — the denominator of
    /// [`FairScheduler::utilization`]. Every paced admission is covered
    /// by capacity accrued here, which is what pins the ratio ≤ 1.
    capacity_bits: AtomicU64,
    /// Where [`Event::SchedWait`] / [`Event::RefillEpoch`] /
    /// [`Event::BudgetChanged`] go. Emission always happens *after* the
    /// pacing lock is released.
    bus: Arc<EventBus>,
    /// Buckets whose pending admission is parked in a reactor — the
    /// `sched.parked_on_throttle` metrics gauge, and the fast check
    /// that skips the waker lock when nothing is parked.
    parked_count: AtomicU64,
    /// Out-of-band wakeup for parked (reactor-driven) admissions:
    /// invoked — after the pacing lock is released — whenever a refill,
    /// deregistration, or budget change could admit a parked
    /// connection earlier than its retry hint.
    waker: Mutex<Option<Arc<dyn Fn() + Send + Sync>>>,
}

impl std::fmt::Debug for Inner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Inner")
            .field(
                "budget",
                &f64::from_bits(self.budget_bits.load(Ordering::Relaxed)),
            )
            .field("parked", &self.parked_count.load(Ordering::Relaxed))
            .field(
                "total_admitted",
                &self.total_admitted.load(Ordering::Relaxed),
            )
            .finish_non_exhaustive()
    }
}

/// Shared work-conserving scheduler: cheap to clone, one per server.
#[derive(Clone, Debug)]
pub struct FairScheduler {
    inner: Arc<Inner>,
}

/// A live admission snapshot for one connection (or the drain bucket).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BucketSnapshot {
    /// Connection id the bucket belongs to (0 = the shared drain
    /// bucket, which is never a valid connection id).
    pub conn: u64,
    /// Token balance in bytes as of the last pacing event (negative =
    /// paying off debt).
    pub tokens: f64,
    /// Total wire bytes admitted so far.
    pub admitted: u64,
    /// Effective scheduling weight (tier × per-connection multiplier ×
    /// delay boost).
    pub weight: f64,
    /// Priority tier.
    pub tier: Tier,
    /// Queueing delay (µs) of the latest reported delay snapshot, if
    /// the connection has one.
    pub delay_us: Option<u64>,
    /// Delay-driven weight boost currently applied (1.0 = none).
    pub boost: f64,
}

impl BucketSnapshot {
    fn of(conn: u64, stats: &ConnStats) -> BucketSnapshot {
        BucketSnapshot {
            conn,
            tokens: stats.tokens(),
            admitted: stats.admitted.load(Ordering::Relaxed),
            weight: stats.weight(),
            tier: stats.tier(),
            delay_us: stats.delay.lock().map(|d| d.queue_delay_us),
            boost: stats.boost(),
        }
    }
}

impl FairScheduler {
    /// Creates a scheduler with the given aggregate budget in
    /// bytes/second (`None` = unlimited) and a silent event bus.
    pub fn new(budget_bytes_per_sec: Option<f64>) -> FairScheduler {
        FairScheduler::with_bus(budget_bytes_per_sec, Arc::new(EventBus::silent()))
    }

    /// Creates a scheduler reporting [`Event::SchedWait`],
    /// [`Event::RefillEpoch`], and [`Event::BudgetChanged`] through
    /// `bus`.
    pub fn with_bus(budget_bytes_per_sec: Option<f64>, bus: Arc<EventBus>) -> FairScheduler {
        Self::check_budget(budget_bytes_per_sec);
        let drain_stats = ConnStats::new(1.0, Tier::Bulk, MIN_BURST);
        FairScheduler {
            inner: Arc::new(Inner {
                budget_bits: AtomicU64::new(Self::budget_to_bits(budget_bytes_per_sec)),
                pacing: Mutex::new(Pacing {
                    budget: budget_bytes_per_sec,
                    buckets: HashMap::new(),
                    drain: Bucket::new(MIN_BURST, Arc::clone(&drain_stats)),
                    last_refill: Instant::now(),
                    sleepers: 0,
                }),
                refilled: Condvar::new(),
                directory: Mutex::new(HashMap::new()),
                drain_stats,
                total_admitted: AtomicU64::new(0),
                unpaced_admitted: AtomicU64::new(0),
                // The drain bucket's construction-time burst grant is
                // spendable capacity only under a budget; an unlimited
                // scheduler accrues balances when a budget first
                // arrives (see set_budget).
                capacity_bits: AtomicU64::new(
                    budget_bytes_per_sec.map_or(0.0, |_| MIN_BURST).to_bits(),
                ),
                bus,
                parked_count: AtomicU64::new(0),
                waker: Mutex::new(None),
            }),
        }
    }

    /// Lifetime wire bytes admitted across all connections (including
    /// ones that have since deregistered, and drain-bucket traffic).
    pub fn total_admitted(&self) -> u64 {
        self.inner.total_admitted.load(Ordering::Relaxed)
    }

    /// Adds `bytes` of admission capacity (see `Inner::capacity_bits`).
    fn accrue_capacity(&self, bytes: f64) {
        if bytes <= 0.0 {
            return;
        }
        let add = |cur: u64| Some((f64::from_bits(cur) + bytes).to_bits());
        let cell = &self.inner.capacity_bits;
        let _ = cell.fetch_update(Ordering::Relaxed, Ordering::Relaxed, add);
    }

    /// Fraction of the granted admission capacity actually consumed:
    /// `(paced admissions − outstanding debt) / capacity`, where
    /// capacity is every burst grant plus the integral of the budget
    /// over refill epochs. `None` when the budget is unlimited (there
    /// is nothing to utilize); `Some(0.0)` on a fresh scheduler.
    ///
    /// The ratio is **exact at rest** and clamped to `[0, 1]` under
    /// concurrency: counters are read admissions-first and capacity
    /// last, so a race can only shrink the reported ratio, and the
    /// token-deduction/admission-count window (debt visible before the
    /// admitted bytes are) is absorbed by the clamp. PR 8's 104%
    /// came from admissions charged against capacity that was never
    /// accounted (drain-bucket grants, `set_budget` clock edges, and
    /// unpaced fast-path bytes); each now lands on the correct side of
    /// the division.
    pub fn utilization(&self) -> Option<f64> {
        self.budget()?;
        let admitted = self.inner.total_admitted.load(Ordering::Relaxed) as f64;
        let unpaced = self.inner.unpaced_admitted.load(Ordering::Relaxed) as f64;
        // Outstanding debt: bytes admitted ahead of capacity that the
        // indebted buckets will pay back out of future refills. Live
        // buckets only — a deregistered bucket's debt is forgiven into
        // capacity at deregistration.
        let mut debt = (-self.drain_snapshot().tokens).max(0.0);
        for s in self.snapshot() {
            debt += (-s.tokens).max(0.0);
        }
        let capacity = f64::from_bits(self.inner.capacity_bits.load(Ordering::Relaxed));
        if capacity <= 0.0 {
            return Some(0.0);
        }
        Some(((admitted - unpaced - debt) / capacity).clamp(0.0, 1.0))
    }

    fn check_budget(budget: Option<f64>) {
        let valid = budget.is_none_or(|b| b > 0.0 && b.is_finite());
        assert!(valid, "a bandwidth budget must be positive and finite");
    }

    fn budget_to_bits(budget: Option<f64>) -> u64 {
        // A real budget is asserted positive and finite, so NaN is free
        // to encode "unlimited".
        budget.unwrap_or(f64::NAN).to_bits()
    }

    /// Aggregate budget in bytes/second, if limited. Reads the
    /// lock-free mirror — safe for metrics paths to call under load.
    pub fn budget(&self) -> Option<f64> {
        let b = f64::from_bits(self.inner.budget_bits.load(Ordering::Acquire));
        (!b.is_nan()).then_some(b)
    }

    /// Replaces the aggregate budget at runtime. Balances are clamped
    /// down to the new burst caps but **debt is preserved** — a retune
    /// must never mint credit, or tightening the budget to clamp a
    /// flood would first release every blocked connection's
    /// accumulated debt in one burst. All waiters are woken to
    /// re-evaluate at the new rate.
    pub fn set_budget(&self, budget_bytes_per_sec: Option<f64>) {
        Self::check_budget(budget_bytes_per_sec);
        let mut p = self.inner.pacing.lock();
        // Clock edge: the tail of credit earned under the outgoing
        // budget is distributed — and accounted as capacity — before
        // the rate changes, so no interval is ever billed at the wrong
        // rate (or dropped entirely, which is where part of PR 8's
        // >100% utilization came from).
        let was_unlimited = p.budget.is_none();
        self.accrue_capacity(p.refill(Instant::now(), true));
        p.budget = budget_bytes_per_sec;
        p.last_refill = Instant::now();
        let total_weight = p.total_weight();
        let cap = |w: f64| match budget_bytes_per_sec {
            Some(b) => Pacing::cap_for(b, w, total_weight),
            None => MIN_BURST,
        };
        p.drain.tokens = p.drain.tokens.min(cap(p.drain.weight()));
        p.drain.stats.store_tokens(p.drain.tokens);
        for b in p.buckets.values_mut() {
            b.tokens = b.tokens.min(cap(b.stats.weight()));
            b.stats.store_tokens(b.tokens);
        }
        if was_unlimited && budget_bytes_per_sec.is_some() {
            // Balances banked while the budget was lifted were never
            // accounted (unlimited admissions bypass the buckets);
            // they become spendable paced capacity from this instant.
            let banked = p.drain.tokens.max(0.0)
                + p.buckets.values().map(|b| b.tokens.max(0.0)).sum::<f64>();
            self.accrue_capacity(banked);
        }
        self.inner.budget_bits.store(
            Self::budget_to_bits(budget_bytes_per_sec),
            Ordering::Release,
        );
        drop(p);
        self.inner.refilled.notify_all();
        self.wake_parked();
        self.inner.bus.emit(Event::BudgetChanged {
            bytes_per_sec: budget_bytes_per_sec,
        });
    }

    /// Registers connection `conn` at the default tier and weight and
    /// returns the [`Throttle`] handle that paces it. Dropping the
    /// handle deregisters the connection (its unused share flows to
    /// backlogged peers on the next refill).
    pub fn register(&self, conn: u64) -> ConnThrottle {
        self.register_with(conn, Tier::Bulk, 1.0)
    }

    /// Registers connection `conn` with an explicit [`Tier`] and a
    /// per-connection weight multiplier (effective weight =
    /// `tier.weight() × weight`). `weight` must be positive and finite.
    pub fn register_with(&self, conn: u64, tier: Tier, weight: f64) -> ConnThrottle {
        assert!(
            weight > 0.0 && weight.is_finite(),
            "a scheduling weight must be positive and finite"
        );
        let effective = tier.weight() * weight;
        let p = self.inner.pacing.lock();
        // New connections start with a full burst bank so short
        // interactive messages are snappy; the grant is a one-time
        // allowance, not ongoing share (refills only top idle banks up
        // from surplus).
        let tokens = p.joining_cap(effective);
        if p.budget.is_some() {
            // The one-time burst grant is spendable paced capacity
            // (under an unlimited budget the bank is decorative until
            // set_budget accrues whatever survives the clamp).
            self.accrue_capacity(tokens);
        }
        self.install(p, conn, ConnStats::new(weight, tier, tokens))
    }

    /// Puts a bucket holding `stats`' balance on both sets of books —
    /// pacing and the snapshot directory — and returns its handle.
    fn install(
        &self,
        mut p: MutexGuard<'_, Pacing>,
        conn: u64,
        stats: Arc<ConnStats>,
    ) -> ConnThrottle {
        let bucket = Bucket::new(stats.tokens(), Arc::clone(&stats));
        p.buckets.insert(conn, bucket);
        drop(p);
        self.inner.directory.lock().insert(conn, Arc::clone(&stats));
        ConnThrottle {
            sched: self.clone(),
            conn,
            stats,
            cpu: None,
        }
    }

    /// Captures the scheduling state worth preserving across a
    /// reconnect. Must be called while the old registration is still
    /// live — dropping the connection's [`ConnThrottle`] deregisters
    /// the bucket (and forgives its debt), after which there is
    /// nothing left to carry. Returns `None` when `conn` is not
    /// registered.
    pub fn carryover_of(&self, conn: u64) -> Option<SchedCarryover> {
        let p = self.inner.pacing.lock();
        let b = p.buckets.get(&conn)?;
        Some(SchedCarryover {
            tier: b.stats.tier(),
            weight: b.stats.base_weight,
            tokens: b.tokens,
            admitted: b.stats.admitted.load(Ordering::Relaxed),
        })
    }

    /// Re-registers a resumed connection from a [`SchedCarryover`]
    /// instead of a fresh burst grant: the tier, weight, token balance
    /// (including any debt the connection detached with) and lifetime
    /// admitted counter all survive. The restored balance is clamped
    /// to the same burst cap a new registration would get, so a long
    /// park can never bank an outsized burst. Capacity accounting is
    /// conservative in both directions — a forgiven debt that comes
    /// back is re-earned through ordinary refill credit, and a
    /// restored positive balance was accrued when originally granted —
    /// so the utilization ratio stays ≤ 1.
    pub fn restore(&self, conn: u64, co: SchedCarryover) -> ConnThrottle {
        assert!(
            co.weight > 0.0 && co.weight.is_finite(),
            "a scheduling weight must be positive and finite"
        );
        let effective = co.tier.weight() * co.weight;
        let p = self.inner.pacing.lock();
        let tokens = co.tokens.min(p.joining_cap(effective));
        let stats = ConnStats::new(co.weight, co.tier, tokens);
        stats.admitted.store(co.admitted, Ordering::Relaxed);
        self.install(p, conn, stats)
    }

    /// Active (registered) connection count.
    pub fn active(&self) -> usize {
        self.inner.directory.lock().len()
    }

    /// Moves a registered connection to a different [`Tier`] at runtime
    /// (the loadgen's `--tier` flag and the control surface use this).
    /// The weight change takes effect from the next refill; waiters and
    /// parked admissions are woken to re-evaluate their shares. Returns
    /// false when `conn` is not registered.
    pub fn set_tier(&self, conn: u64, tier: Tier) -> bool {
        let dir = self.inner.directory.lock();
        let Some(stats) = dir.get(&conn) else {
            return false;
        };
        stats.tier_code.store(tier.code(), Ordering::Relaxed);
        drop(dir);
        self.inner.refilled.notify_all();
        self.wake_parked();
        true
    }

    /// The tier a connection is currently scheduled at, if registered.
    pub fn tier_of(&self, conn: u64) -> Option<Tier> {
        self.inner.directory.lock().get(&conn).map(|s| s.tier())
    }

    /// Feeds a connection's latest delay-gradient snapshot into the
    /// scheduler. A Control-tier connection whose queueing delay is
    /// building gets a transient weight boost (up to
    /// [`MAX_DELAY_BOOST`]×, saturating at [`BOOST_SATURATION_US`] of
    /// delay above baseline), so the latency-sensitive tier wins share
    /// exactly when its latency is being hurt. Bulk and Paid tiers
    /// store the snapshot (for metrics and registry policies) but are
    /// never boosted — their delay is the congestion being managed, not
    /// a claim on more bandwidth.
    pub fn report_delay(&self, conn: u64, snap: DelaySnapshot) {
        let dir = self.inner.directory.lock();
        let Some(stats) = dir.get(&conn) else {
            return;
        };
        let boost = if stats.tier() == Tier::Control {
            (1.0 + snap.above_baseline_us() as f64 / BOOST_SATURATION_US).min(MAX_DELAY_BOOST)
        } else {
            1.0
        };
        stats.boost_bits.store(boost.to_bits(), Ordering::Relaxed);
        *stats.delay.lock() = Some(snap);
    }

    /// The latest delay snapshot reported for `conn`, if any.
    pub fn delay_of(&self, conn: u64) -> Option<DelaySnapshot> {
        let dir = self.inner.directory.lock();
        dir.get(&conn).and_then(|s| *s.delay.lock())
    }

    /// Snapshots every live bucket, sorted by connection id. Read-only
    /// and non-blocking for the admission path: reads the lock-free
    /// per-bucket counters through the registration directory, never
    /// the pacing mutex, and mutates nothing.
    pub fn snapshot(&self) -> Vec<BucketSnapshot> {
        let dir = self.inner.directory.lock();
        let mut out: Vec<BucketSnapshot> = dir
            .iter()
            .map(|(&conn, stats)| BucketSnapshot::of(conn, stats))
            .collect();
        drop(dir);
        out.sort_by_key(|s| s.conn);
        out
    }

    /// Snapshot of the shared drain bucket (traffic admitted for
    /// already-deregistered connections).
    pub fn drain_snapshot(&self) -> BucketSnapshot {
        BucketSnapshot::of(0, &self.inner.drain_stats)
    }

    /// One admission attempt under the pacing lock — the only place a
    /// bucket's tokens are spent, for blocking and nonblocking callers
    /// alike. The model is debt-based: a positive balance admits and
    /// pays the full `bytes`. Returns the refill credit the attempt
    /// distributed and the verdict: `Ok` ends the caller's wait (its
    /// tier and start, if it had been refused before); `Err` counts the
    /// caller among the bucket's pending admissions — `parks` says it
    /// will sit in a reactor rather than on the condvar — and predicts
    /// when the bucket's max-min share will have paid the debt off. The
    /// prediction is optimistic (only currently backlogged buckets
    /// compete), so an early retry costs a shorter second wait, never
    /// a longer one.
    fn attempt(
        &self,
        p: &mut Pacing,
        conn: u64,
        bytes: usize,
        parks: bool,
        stage: Stage,
    ) -> (f64, Result<Option<(Tier, Instant)>, Duration>) {
        let now = Instant::now();
        // A refused caller stays pending across its retries, so the
        // refill counts its bucket as backlogged — otherwise the
        // most-frequently-waking connection would donate its credit
        // share to its peers.
        let credit = p.refill(now, stage == Stage::Due);
        self.accrue_capacity(credit);
        let budget = p.budget;
        let b = p.bucket_mut(conn);
        let weight = b.weight();
        let tier = b.stats.tier();
        let budget = match budget {
            Some(budget) if b.tokens <= 0.0 => budget,
            paced => {
                // Admitted; with the budget lifted only the bytes are
                // counted, never charged.
                if paced.is_some() {
                    b.tokens -= bytes as f64;
                    b.stats.store_tokens(b.tokens);
                }
                b.stats.admitted.fetch_add(bytes as u64, Ordering::Relaxed);
                if parks && std::mem::take(&mut b.parked) {
                    self.inner.parked_count.fetch_sub(1, Ordering::Relaxed);
                }
                let mut waited = None;
                if stage != Stage::First {
                    b.pending -= 1;
                    // Whoever is still pending waits on from here.
                    let next = (b.pending > 0).then_some(now);
                    waited = std::mem::replace(&mut b.backlogged_since, next);
                }
                self.count_admitted(bytes, paced.is_none());
                return (credit, Ok(waited.map(|since| (tier, since))));
            }
        };
        let debt = -b.tokens;
        if stage == Stage::First {
            b.pending += 1;
            b.backlogged_since.get_or_insert(now);
            if parks {
                b.parked = true;
                self.inner.parked_count.fetch_add(1, Ordering::Relaxed);
            }
        }
        let mut rate = budget * weight / p.backlogged_weight(None).max(weight);
        if tier == Tier::Control {
            // Phase-0 preemption guarantees control admissions at least
            // their slice of the reserved fraction; wait on the better
            // of the two predictions.
            let cw = p.backlogged_weight(Some(Tier::Control)).max(weight);
            rate = rate.max(budget * CONTROL_PREEMPT_FRACTION * weight / cw);
        }
        let retry = ((debt + 1.0) / rate).max(MIN_SLEEP_SECS);
        (credit, Err(Duration::from_secs_f64(retry)))
    }

    /// Lifetime byte counters behind [`FairScheduler::utilization`].
    fn count_admitted(&self, bytes: usize, unpaced: bool) {
        let total = &self.inner.total_admitted;
        total.fetch_add(bytes as u64, Ordering::Relaxed);
        if unpaced {
            let unpaced = &self.inner.unpaced_admitted;
            unpaced.fetch_add(bytes as u64, Ordering::Relaxed);
        }
    }

    /// Blocking admission for `conn` under the aggregate budget:
    /// [`FairScheduler::attempt`] until it admits, sleeping each retry
    /// hint out on the condvar — every state change that could admit
    /// earlier (a refill credited by another admission, a
    /// deregistration, a budget change) signals it. A bucket
    /// deregistered meanwhile re-resolves to the drain bucket, which
    /// inherited the caller's pending count.
    fn acquire_paced(&self, conn: u64, bytes: usize) {
        let mut p = self.inner.pacing.lock();
        let mut stage = Stage::First;
        // One RefillEpoch per blocking episode, reported with the
        // SchedWait once the lock is dropped.
        let mut episode_credit = 0.0f64;
        let waited = loop {
            let (credit, verdict) = self.attempt(&mut p, conn, bytes, false, stage);
            episode_credit += credit;
            let retry = match verdict {
                Ok(waited) => break waited,
                Err(retry) => retry,
            };
            if stage == Stage::First {
                p.sleepers += 1;
            }
            if credit > 0.0 && p.sleepers > 1 {
                // The refill may have satisfied another waiter.
                self.inner.refilled.notify_all();
            }
            let deadline = Instant::now() + retry;
            let wake = self.inner.refilled.wait_until(&mut p, deadline);
            stage = if wake.timed_out() {
                Stage::Due
            } else {
                Stage::Woken
            };
        };
        if stage != Stage::First {
            p.sleepers -= 1;
        }
        let wake_sleepers = p.sleepers > 0;
        drop(p);
        self.settle(conn, waited, episode_credit, wake_sleepers);
    }

    /// Nonblocking admission for `conn`: one [`FairScheduler::attempt`].
    /// A refusal parks the bucket — backlogged for refill purposes
    /// while the connection sits in its reactor, and woken through the
    /// registered parked-waker on any event that could admit it before
    /// the returned retry hint. The eventual admission emits one
    /// [`Event::SchedWait`] covering the whole parked episode, exactly
    /// like a blocking wait.
    fn try_acquire_paced(&self, conn: u64, bytes: usize) -> Result<(), Duration> {
        let mut p = self.inner.pacing.lock();
        // A parked connection retries because its hint ran out or the
        // waker fired; either is the event it sat parked for.
        let stage = match p.bucket_mut(conn).parked {
            true => Stage::Due,
            false => Stage::First,
        };
        let (credit, verdict) = self.attempt(&mut p, conn, bytes, true, stage);
        let wake_sleepers = p.sleepers > 0;
        drop(p);
        match verdict {
            Ok(waited) => self.settle(conn, waited, credit, wake_sleepers),
            // A refusal wakes nobody — the sliver its forced refill
            // handed out would only have the reactor wake itself to be
            // refused again — and ends no episode.
            Err(_) => self.emit_episode(conn, None, credit),
        }
        verdict.map(drop)
    }

    /// After an admission, with the pacing lock released: wake whoever
    /// the refill it performed may have paid off (now, instead of at
    /// their pessimistic deadlines) and report the episode.
    fn settle(&self, conn: u64, waited: Option<(Tier, Instant)>, credit: f64, wake_sleepers: bool) {
        if credit > 0.0 {
            if wake_sleepers {
                self.inner.refilled.notify_all();
            }
            self.wake_parked();
        }
        self.emit_episode(conn, waited, credit);
    }

    /// Reports one admission episode's coalesced events; called with
    /// the pacing lock already released.
    fn emit_episode(&self, conn: u64, waited: Option<(Tier, Instant)>, credit: f64) {
        if !self.inner.bus.is_active() {
            return;
        }
        if credit > 0.0 {
            self.inner.bus.emit(Event::RefillEpoch { credit });
        }
        if let Some((tier, since)) = waited {
            let waited = since.elapsed();
            self.inner.bus.emit(Event::SchedWait { conn, tier, waited });
        }
    }

    /// Registers the out-of-band wakeup for parked admissions (a
    /// reactor's wake handle). Replaces any previous waker; one
    /// scheduler drives one reactor.
    pub fn set_parked_waker(&self, waker: Arc<dyn Fn() + Send + Sync>) {
        *self.inner.waker.lock() = Some(waker);
    }

    /// Connections currently parked on a refused nonblocking admission
    /// — the `sched.parked_on_throttle` metrics gauge. Lock-free.
    pub fn parked(&self) -> usize {
        self.inner.parked_count.load(Ordering::Relaxed) as usize
    }

    /// Invokes the parked-waker if any admission is parked. Must be
    /// called with the pacing lock released.
    fn wake_parked(&self) {
        if self.inner.parked_count.load(Ordering::Relaxed) == 0 {
            return;
        }
        let waker = self.inner.waker.lock().clone();
        if let Some(wake) = waker {
            wake();
        }
    }

    fn deregister(&self, conn: u64) {
        self.inner.directory.lock().remove(&conn);
        let mut p = self.inner.pacing.lock();
        if let Some(removed) = p.buckets.remove(&conn) {
            // Any thread still blocked on this bucket is woken below
            // and re-resolves to the drain bucket on its next attempt:
            // hand its pending count over.
            let orphans = removed.pending - usize::from(removed.parked);
            if orphans > 0 {
                p.drain.pending += orphans;
                p.drain.backlogged_since = p.drain.backlogged_since.or(removed.backlogged_since);
            }
            // Debt dies with the bucket but its admitted bytes were
            // counted: forgive it into capacity so utilization stays a
            // true ratio. (A positive leftover bank stays in capacity
            // unspent — conservative, never inflating the ratio.)
            self.accrue_capacity(-removed.tokens);
            // A parked admission dies with its connection (the reactor
            // closes it; there is no thread to re-resolve).
            if removed.parked {
                self.inner.parked_count.fetch_sub(1, Ordering::Relaxed);
            }
        }
        drop(p);
        // Shares just grew for everyone else; let waiters re-evaluate.
        self.inner.refilled.notify_all();
        self.wake_parked();
    }
}

/// The per-connection [`Throttle`] a [`FairScheduler`] hands out:
/// `acquire_wire` blocks until the connection's token bucket admits the
/// bytes; `charge` forwards to an optional inner CPU-model throttle.
pub struct ConnThrottle {
    sched: FairScheduler,
    conn: u64,
    stats: Arc<ConnStats>,
    cpu: Option<Arc<dyn Throttle>>,
}

impl std::fmt::Debug for ConnThrottle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConnThrottle")
            .field("conn", &self.conn)
            .field("weight", &self.stats.weight())
            .field("tier", &self.stats.tier())
            .field("chained_cpu", &self.cpu.is_some())
            .finish()
    }
}

impl ConnThrottle {
    /// Chains an inner CPU-speed throttle (e.g. a simulation
    /// [`adoc::SleepThrottle`]) behind the bandwidth pacing.
    pub fn with_cpu(mut self, cpu: Arc<dyn Throttle>) -> ConnThrottle {
        self.cpu = Some(cpu);
        self
    }

    /// The connection id this throttle paces.
    pub fn conn(&self) -> u64 {
        self.conn
    }

    /// The connection's priority tier (reads the live cell, so a
    /// [`FairScheduler::set_tier`] is visible here immediately).
    pub fn tier(&self) -> Tier {
        self.stats.tier()
    }
}

impl Throttle for ConnThrottle {
    fn charge(&self, elapsed: Duration) {
        if let Some(cpu) = &self.cpu {
            cpu.charge(elapsed);
        }
    }

    fn acquire_wire(&self, bytes: usize) {
        if self.sched.budget().is_some() {
            self.sched.acquire_paced(self.conn, bytes);
        } else {
            // Unlimited budget: count the bytes without touching the
            // pacing mutex at all.
            self.stats
                .admitted
                .fetch_add(bytes as u64, Ordering::Relaxed);
            self.sched.count_admitted(bytes, true);
        }
        if let Some(cpu) = &self.cpu {
            cpu.acquire_wire(bytes);
        }
    }

    fn try_acquire_wire(&self, bytes: usize) -> Result<(), Duration> {
        // The parked_count check keeps a connection that parked under a
        // since-lifted budget from leaking its parked mark: the retry
        // after set_budget(None) must go through the pacing lock once
        // to clear it. With nothing parked, unlimited stays lock-free.
        if self.sched.budget().is_some() || self.sched.parked() > 0 {
            self.sched.try_acquire_paced(self.conn, bytes)
        } else {
            self.stats
                .admitted
                .fetch_add(bytes as u64, Ordering::Relaxed);
            self.sched.count_admitted(bytes, true);
            Ok(())
        }
        // The chained CPU throttle is deliberately not consulted here:
        // it models codec wall-time on the *blocking* path, and a
        // refusal after the bucket charge would double-charge the bytes
        // on retry.
    }

    fn wire_weight(&self) -> f64 {
        self.stats.weight()
    }
}

impl Drop for ConnThrottle {
    fn drop(&mut self) {
        self.sched.deregister(self.conn);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn tier_weights_rank_control_over_paid_over_bulk() {
        assert!(Tier::Control.weight() > Tier::Paid.weight());
        assert!(Tier::Paid.weight() > Tier::Bulk.weight());
        assert_eq!("control".parse::<Tier>().unwrap(), Tier::Control);
        assert_eq!("paid".parse::<Tier>().unwrap(), Tier::Paid);
        assert_eq!("bulk".parse::<Tier>().unwrap(), Tier::Bulk);
        assert!("gold".parse::<Tier>().is_err());
        assert_eq!(Tier::Paid.to_string(), "paid");
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn zero_weight_is_rejected() {
        FairScheduler::new(None).register_with(1, Tier::Bulk, 0.0);
    }

    #[test]
    fn carryover_preserves_tier_weight_and_admitted_bytes() {
        let sched = FairScheduler::new(None);
        let t = sched.register_with(9, Tier::Paid, 2.5);
        t.acquire_wire(4096);
        t.acquire_wire(1024);
        let co = sched
            .carryover_of(9)
            .expect("live registration has carryover");
        assert_eq!(co.tier, Tier::Paid);
        assert_eq!(co.weight, 2.5);
        assert_eq!(co.admitted, 5120);
        drop(t);
        assert!(
            sched.carryover_of(9).is_none(),
            "deregistration must clear the bucket"
        );
        let restored = sched.restore(9, co);
        assert_eq!(restored.tier(), Tier::Paid);
        let snap = sched.snapshot();
        let row = snap.iter().find(|r| r.conn == 9).expect("restored row");
        assert_eq!(row.admitted, 5120, "lifetime counter must survive");
        // Effective weight = tier multiplier (Paid = 2x) × registration
        // weight × boost (1.0 after restore).
        assert_eq!(row.weight, 5.0);
        assert_eq!(row.tier, Tier::Paid);
        restored.acquire_wire(100);
        assert_eq!(
            sched.carryover_of(9).map(|c| c.admitted),
            Some(5220),
            "counter keeps accruing after the resume"
        );
    }

    #[test]
    fn unlimited_budget_admits_instantly() {
        let sched = FairScheduler::new(None);
        let t = sched.register(1);
        let start = Instant::now();
        for _ in 0..1000 {
            t.acquire_wire(1 << 20);
        }
        assert!(start.elapsed() < Duration::from_millis(200));
        let snap = sched.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].admitted, 1000 << 20);
        assert_eq!(snap[0].weight, 1.0);
        assert_eq!(snap[0].tier, Tier::Bulk);
    }

    #[test]
    fn budget_paces_a_single_connection() {
        // 10 MB/s budget; the initial burst grant covers ~1.25 MB, the
        // remaining ~2 MB must be paced at the full (work-conserving)
        // budget: >= 50 ms even on a fast machine. Upper bound is very
        // loose for slow CI machines — the lower bound is the property.
        let sched = FairScheduler::new(Some(10e6));
        let t = sched.register(7);
        let start = Instant::now();
        let mut sent = 0usize;
        while sent < 3_300_000 {
            t.acquire_wire(64 << 10);
            sent += 64 << 10;
        }
        let secs = start.elapsed().as_secs_f64();
        assert!(secs > 0.05, "pacing too weak: {secs:.3}s");
        assert!(secs < 5.0, "pacing far too strong: {secs:.3}s");
    }

    #[test]
    fn greedy_connection_cannot_starve_its_peer() {
        // Two connections, one pushes 4x more traffic. Under a shared
        // budget both must finish, and the modest one first.
        let sched = FairScheduler::new(Some(20e6));
        let greedy = sched.register(1);
        let modest = sched.register(2);
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let (b1, b2) = (barrier.clone(), barrier);
        let g = thread::spawn(move || {
            b1.wait();
            let start = Instant::now();
            let mut sent = 0usize;
            while sent < 12_000_000 {
                greedy.acquire_wire(128 << 10);
                sent += 128 << 10;
            }
            start.elapsed().as_secs_f64()
        });
        let m = thread::spawn(move || {
            b2.wait();
            let start = Instant::now();
            let mut sent = 0usize;
            while sent < 3_000_000 {
                modest.acquire_wire(128 << 10);
                sent += 128 << 10;
            }
            start.elapsed().as_secs_f64()
        });
        let (greedy_secs, modest_secs) = (g.join().unwrap(), m.join().unwrap());
        assert!(
            modest_secs < greedy_secs,
            "fair share must protect the modest client: modest {modest_secs:.3}s vs greedy {greedy_secs:.3}s"
        );
        // 12 MB through a 20 MB/s budget shared while the modest client
        // runs: even with work conservation handing the greedy client
        // the whole budget afterwards, under ~0.45s is impossible.
        assert!(
            greedy_secs > 0.4,
            "12 MB over a 20 MB/s budget cannot take {greedy_secs:.3}s"
        );
    }

    #[test]
    fn work_conservation_redistributes_idle_share() {
        // 1 busy + 3 idle connections under 4 MB/s: the busy one must
        // run at ~the whole budget (idle share redistributed), not at
        // budget/4. The fixed refill of the pre-rewrite scheduler pins
        // this near 1 MB/s => ~2.8s; work-conserving is ~0.7s.
        let sched = FairScheduler::new(Some(4e6));
        let busy = sched.register(1);
        let _idle: Vec<ConnThrottle> = (2..=4).map(|c| sched.register(c)).collect();
        let start = Instant::now();
        let mut sent = 0usize;
        while sent < 3_000_000 {
            busy.acquire_wire(64 << 10);
            sent += 64 << 10;
        }
        let secs = start.elapsed().as_secs_f64();
        assert!(
            secs < 1.8,
            "idle share was not redistributed: 3 MB took {secs:.3}s at 4 MB/s aggregate"
        );
        assert!(secs > 0.3, "budget not enforced: {secs:.3}s");
    }

    #[test]
    fn weighted_split_is_proportional() {
        // A Control-tier connection (weight 4) against a Bulk one
        // (weight 1), both saturating: admitted bytes must split
        // roughly 4:1 while both are backlogged.
        let sched = FairScheduler::new(Some(8e6));
        let a = sched.register_with(1, Tier::Control, 1.0);
        let b = sched.register(2);
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let run = |t: ConnThrottle, barrier: Arc<std::sync::Barrier>| {
            thread::spawn(move || {
                barrier.wait();
                let deadline = Instant::now() + Duration::from_millis(800);
                while Instant::now() < deadline {
                    t.acquire_wire(32 << 10);
                }
                t // keep the registration alive for the snapshot
            })
        };
        let ta = run(a, barrier.clone());
        let tb = run(b, barrier);
        let (a, b) = (ta.join().unwrap(), tb.join().unwrap());
        let snap = sched.snapshot();
        let admitted = |conn: u64| snap.iter().find(|s| s.conn == conn).unwrap().admitted as f64;
        let ratio = admitted(1) / admitted(2);
        assert!(
            (2.0..8.0).contains(&ratio),
            "weight-4 : weight-1 split was {ratio:.2} ({} vs {} bytes)",
            admitted(1),
            admitted(2)
        );
        drop((a, b));
    }

    #[test]
    fn refill_and_admission_wakeups_cut_waiter_latency() {
        // The event-driven-wakeup regression: a waiter's sleep deadline
        // is a pessimistic prediction (it assumes every currently
        // backlogged peer keeps competing). When the heavy peer's debt
        // clears, the notify fired by its admission must wake the light
        // waiter to re-evaluate — without the notify it would sleep to
        // its original ~1s deadline.
        let sched = FairScheduler::new(Some(2e6));
        let heavy = sched.register_with(9, Tier::Bulk, 9.0);
        let light = sched.register(1);

        let h = thread::spawn(move || {
            heavy.acquire_wire(909_000); // burst + ~500 KB of debt
            heavy.acquire_wire(1); // blocks ~0.25s until the debt clears
            heavy
        });
        thread::sleep(Duration::from_millis(50));
        let l = thread::spawn(move || {
            light.acquire_wire(264_000); // burst + ~200 KB of debt
            let start = Instant::now();
            // Pessimistic deadline: 200 KB at a 1/10 share of 2 MB/s is
            // ~1s. The heavy peer clears out at ~0.3s, and its admission
            // wake lets the light one finish at ~0.35s.
            light.acquire_wire(1);
            (start.elapsed().as_secs_f64(), light)
        });
        let _heavy = h.join().unwrap();
        let (blocked_secs, _light) = l.join().unwrap();
        assert!(
            blocked_secs < 0.7,
            "waiter slept to its pessimistic deadline ({blocked_secs:.3}s): \
             admission/refill wakeups are not firing"
        );
        assert!(blocked_secs > 0.05, "pacing vanished: {blocked_secs:.3}s");
    }

    #[test]
    fn water_fill_prunes_by_each_buckets_own_cap() {
        // Regression: the at-cap pruning pass used a caps vec indexed
        // in lockstep with swap_remove, so a surviving bucket could be
        // compared against an evicted bucket's (smaller) cap and be
        // wrongly pruned — its credit share silently evaporated.
        let budget = 8e6;
        let total_weight = 6.0; // control 4 + bulk 1 + drain 1
        let bulk_cap = Pacing::cap_for(budget, 1.0, total_weight); // ~333 KB
        let control_cap = Pacing::cap_for(budget, 4.0, total_weight); // ~1.33 MB
                                                                      // Exactly at cap: pruned first.
        let mut bulk = Bucket::new(bulk_cap, ConnStats::new(1.0, Tier::Bulk, bulk_cap));
        // Above bulk's cap, well below its own (base 1.0 at Control
        // tier = effective weight 4).
        let mut control = Bucket::new(400_000.0, ConnStats::new(1.0, Tier::Control, 400_000.0));
        assert!(control.tokens > bulk_cap && control.tokens < control_cap);
        let leftover = Pacing::water_fill(
            vec![&mut bulk, &mut control],
            100_000.0,
            budget,
            total_weight,
        );
        assert!(
            leftover < 1.0,
            "credit evaporated against the wrong cap: {leftover} left over"
        );
        assert!(
            (control.tokens - 500_000.0).abs() < 1.0,
            "the below-cap bucket must absorb the credit: {}",
            control.tokens
        );
        assert_eq!(bulk.tokens, bulk_cap, "an at-cap bucket banks nothing");
    }

    #[test]
    fn set_budget_preserves_debt() {
        // Retuning the budget must never mint credit: a connection deep
        // in debt stays paced at the new rate instead of bursting its
        // whole backlog the moment an operator adjusts the cap.
        let sched = FairScheduler::new(Some(1e6));
        let t = sched.register(4);
        t.acquire_wire(800 << 10); // burst grant + ~0.5 MB of debt
        sched.set_budget(Some(4e6));
        let start = Instant::now();
        t.acquire_wire(1); // ~0.5 MB of debt at 4 MB/s: >= ~0.12s
        let secs = start.elapsed().as_secs_f64();
        assert!(
            secs > 0.05,
            "set_budget wiped the accumulated debt: admitted in {secs:.3}s"
        );
        assert!(secs < 3.0, "debt re-paced far too slowly: {secs:.3}s");
    }

    #[test]
    fn set_budget_wakes_waiters_immediately() {
        let sched = FairScheduler::new(Some(1000.0)); // 1 KB/s: glacial
        let t = sched.register(3);
        let s2 = sched.clone();
        let waiter = thread::spawn(move || {
            t.acquire_wire(2 << 20); // admitted against the burst grant
            let start = Instant::now();
            t.acquire_wire(1); // debt would take ~35 minutes at 1 KB/s
            start.elapsed()
        });
        thread::sleep(Duration::from_millis(100));
        s2.set_budget(None);
        let blocked = waiter.join().unwrap();
        assert!(
            blocked < Duration::from_secs(2),
            "budget change did not wake the waiter: {blocked:?}"
        );
    }

    #[test]
    fn deregistration_returns_the_share() {
        let sched = FairScheduler::new(Some(1e6));
        let a = sched.register(1);
        let b = sched.register(2);
        assert_eq!(sched.active(), 2);
        drop(a);
        assert_eq!(sched.active(), 1);
        drop(b);
        assert_eq!(sched.active(), 0);
        assert!(sched.snapshot().is_empty());
    }

    #[test]
    fn acquire_after_deregistration_is_paced_by_the_drain_bucket() {
        // A deregistered connection's still-flushing pipeline used to
        // bypass the budget entirely; now it is charged to the shared
        // drain bucket, so the aggregate cap holds end-to-end.
        let sched = FairScheduler::new(Some(1e6));
        let t = sched.register(9);
        sched.deregister(9);
        let start = Instant::now();
        let mut sent = 0usize;
        while sent < 564 << 10 {
            // ~64 KB of drain burst + ~500 KB paced at the full budget.
            t.acquire_wire(64 << 10);
            sent += 64 << 10;
        }
        let secs = start.elapsed().as_secs_f64();
        assert!(secs > 0.2, "drain traffic was admitted unpaced: {secs:.3}s");
        assert!(secs < 5.0, "drain pacing far too strong: {secs:.3}s");
        let drain = sched.drain_snapshot();
        assert_eq!(drain.conn, 0);
        assert_eq!(drain.admitted, 576 << 10);
        // The connection's own registration is long gone.
        assert!(sched.snapshot().is_empty());
    }

    #[test]
    fn snapshot_is_read_only_and_exposes_weights() {
        let sched = FairScheduler::new(Some(5e6));
        let a = sched.register_with(1, Tier::Paid, 1.5);
        let b = sched.register(2);
        a.acquire_wire(100_000);
        b.acquire_wire(50_000);
        let snap1 = sched.snapshot();
        thread::sleep(Duration::from_millis(30));
        let snap2 = sched.snapshot();
        // The pre-rewrite snapshot refilled every bucket it touched, so
        // two polls disagreed and metric scrapes mutated pacing state.
        assert_eq!(snap1, snap2, "a snapshot must not advance pacing state");
        assert_eq!(snap1[0].tier, Tier::Paid);
        assert_eq!(snap1[0].weight, Tier::Paid.weight() * 1.5);
        assert_eq!(snap1[0].admitted, 100_000);
        assert_eq!(snap1[1].tier, Tier::Bulk);
        assert_eq!(snap1[1].weight, 1.0);
    }

    #[test]
    fn try_acquire_admits_then_parks_with_a_sane_retry_hint() {
        let sched = FairScheduler::new(Some(1e6)); // 1 MB/s
        let t = sched.register(5);
        // The burst grant admits immediately without blocking.
        assert!(t.try_acquire_wire(64 << 10).is_ok());
        // Push the bucket deep into debt, then ask again: refused, with
        // a retry hint in the right ballpark (~0.5 MB of debt at
        // 1 MB/s ≈ 0.5 s; backlogged_weight includes only us).
        t.try_acquire_wire(700 << 10).expect("debt model admits");
        let retry = t.try_acquire_wire(1).expect_err("must refuse in debt");
        assert!(sched.parked() == 1, "refusal must park the bucket");
        assert!(
            retry > Duration::from_millis(50) && retry < Duration::from_secs(5),
            "retry hint {retry:?}"
        );
        // Waiting out the hint clears the debt; the retry admits and
        // unparks.
        thread::sleep(retry);
        t.try_acquire_wire(1).expect("debt must have cleared");
        assert_eq!(sched.parked(), 0);
    }

    #[test]
    fn parked_waker_fires_on_refill_deregistration_and_budget_change() {
        use std::sync::atomic::AtomicUsize;
        let sched = FairScheduler::new(Some(1e6));
        let wakes = Arc::new(AtomicUsize::new(0));
        let w = Arc::clone(&wakes);
        sched.set_parked_waker(Arc::new(move || {
            w.fetch_add(1, Ordering::Relaxed);
        }));
        let parked = sched.register(1);
        parked.try_acquire_wire(600 << 10).expect("burst admits");
        parked.try_acquire_wire(1).expect_err("parks");
        assert_eq!(sched.parked(), 1);

        // Another connection's paced admissions perform refills; with a
        // parked peer those must invoke the waker.
        let other = sched.register(2);
        thread::sleep(Duration::from_millis(5));
        other.acquire_wire(1024);
        assert!(
            wakes.load(Ordering::Relaxed) >= 1,
            "a refill with a parked bucket must fire the waker"
        );

        // Deregistration returns share: waker again.
        let before = wakes.load(Ordering::Relaxed);
        drop(other);
        assert!(wakes.load(Ordering::Relaxed) > before, "deregister wake");

        // Budget change: waker again.
        let before = wakes.load(Ordering::Relaxed);
        sched.set_budget(Some(2e6));
        assert!(wakes.load(Ordering::Relaxed) > before, "budget wake");

        // Lifting the budget entirely lets the retry admit instantly.
        sched.set_budget(None);
        parked.try_acquire_wire(1).expect("unlimited admits");
        assert_eq!(sched.parked(), 0);
    }

    #[test]
    fn a_refused_retry_wakes_nobody() {
        // A parked retry forces a refill. The sliver of credit that
        // hands out must not fire the waker: the reactor would wake
        // itself, retry, be refused and wake itself again — 100% CPU
        // for as long as the debt lasts.
        use std::sync::atomic::AtomicUsize;
        let sched = FairScheduler::new(Some(1e6));
        let wakes = Arc::new(AtomicUsize::new(0));
        let w = Arc::clone(&wakes);
        sched.set_parked_waker(Arc::new(move || {
            w.fetch_add(1, Ordering::Relaxed);
        }));
        let t = sched.register(1);
        t.try_acquire_wire(800 << 10).expect("burst admits");
        t.try_acquire_wire(1).expect_err("parks");
        for _ in 0..20 {
            thread::sleep(Duration::from_millis(1));
            t.try_acquire_wire(1)
                .expect_err("~0.7 s of debt outlasts the loop");
        }
        assert_eq!(
            wakes.load(Ordering::Relaxed),
            0,
            "a refusal woke the reactor"
        );
        assert_eq!(sched.parked(), 1);
    }

    #[test]
    fn a_bucket_stays_backlogged_while_any_admission_is_pending() {
        // A striped group's emission threads block on one ConnThrottle,
        // driven here as two callers of `attempt`. One's admission must
        // not un-backlog the bucket under the sibling still asleep on
        // it, or the bucket forfeits its refill share to the rival.
        let sched = FairScheduler::new(Some(1e6));
        let (shared, rival) = (sched.register(1), sched.register(2));
        let bank = sched.snapshot()[0].tokens as usize;
        shared.acquire_wire(bank + 5_000); // ~10 ms of debt at half the budget
        rival.acquire_wire(bank + 500_000); // in debt throughout
        let mut p = sched.inner.pacing.lock();
        for conn in [1, 1, 2] {
            let (_, verdict) = sched.attempt(&mut p, conn, 1, false, Stage::First);
            verdict.expect_err("in debt");
        }
        assert_eq!(p.bucket_mut(1).pending, 2);
        drop(p);
        thread::sleep(Duration::from_millis(40));
        let mut p = sched.inner.pacing.lock();
        let (_, first) = sched.attempt(&mut p, 1, 40_000, false, Stage::Due);
        let (_, began) = first.expect("debt cleared").expect("it waited");
        assert!(p.bucket_mut(1).backlogged(), "the sibling is still pending");
        let next = p.bucket_mut(1).backlogged_since.expect("its wait goes on");
        assert!(next > began, "the next wait is counted from this admission");
        // Both buckets backlogged at equal weight: an epoch splits evenly.
        let before = p.bucket_mut(1).tokens;
        let epoch = p.last_refill + Duration::from_millis(10);
        let credit = p.refill(epoch, true);
        let share = (p.bucket_mut(1).tokens - before) / credit;
        assert!(
            (0.45..0.55).contains(&share),
            "shared bucket got {share:.2}"
        );
        drop(p);
        // The sibling outlives the registration: the drain bucket
        // inherits its pending count and its retry settles it there.
        drop(shared);
        let mut p = sched.inner.pacing.lock();
        assert_eq!(p.drain.pending, 1);
        let (_, last) = sched.attempt(&mut p, 1, 1, false, Stage::Woken);
        last.expect("the drain bucket's burst admits");
        assert!(!p.drain.backlogged() && p.drain.backlogged_since.is_none());
    }

    #[test]
    fn parked_bucket_keeps_receiving_refill_credit() {
        // A parked bucket is backlogged: while the connection sits in
        // its reactor, refills performed by a busy peer must keep
        // crediting it, so the eventual retry admits — the reactor
        // analogue of work conservation.
        let sched = FairScheduler::new(Some(2e6));
        let parked = sched.register(1);
        parked.try_acquire_wire(800 << 10).expect("burst admits");
        let retry = parked.try_acquire_wire(1).expect_err("parks in debt");
        // A busy peer keeps admitting (and thus refilling) meanwhile.
        let busy = sched.register(2);
        let deadline = Instant::now() + retry + Duration::from_millis(200);
        let mut admitted = false;
        while Instant::now() < deadline {
            busy.acquire_wire(16 << 10);
            if parked.try_acquire_wire(1).is_ok() {
                admitted = true;
                break;
            }
            thread::sleep(Duration::from_millis(10));
        }
        assert!(admitted, "parked bucket starved despite peer refills");
        assert_eq!(sched.parked(), 0);
    }

    #[test]
    fn deregistering_a_parked_connection_balances_the_gauge() {
        let sched = FairScheduler::new(Some(1e6));
        let t = sched.register(8);
        t.try_acquire_wire(600 << 10).expect("burst admits");
        t.try_acquire_wire(1).expect_err("parks");
        assert_eq!(sched.parked(), 1);
        drop(t); // deregisters while parked
        assert_eq!(sched.parked(), 0, "parked gauge must not leak");
    }

    #[test]
    fn set_tier_retiers_a_live_connection() {
        let sched = FairScheduler::new(Some(1e6));
        let t = sched.register(3);
        assert_eq!(t.tier(), Tier::Bulk);
        assert!(sched.set_tier(3, Tier::Control));
        assert_eq!(t.tier(), Tier::Control);
        assert_eq!(sched.tier_of(3), Some(Tier::Control));
        let snap = sched.snapshot();
        assert_eq!(snap[0].tier, Tier::Control);
        assert_eq!(snap[0].weight, Tier::Control.weight());
        assert_eq!(Throttle::wire_weight(&t), 4.0);
        assert!(!sched.set_tier(99, Tier::Paid), "unknown conn refused");
    }

    fn overuse_snap(above_us: u64) -> DelaySnapshot {
        DelaySnapshot {
            queue_delay_us: above_us,
            baseline_us: 0,
            gradient: 100.0,
            state: adoc::CongestionState::Overuse,
            target_bps: None,
            groups: 30,
            source: adoc::SignalSource::Remote,
            age: Duration::ZERO,
        }
    }

    #[test]
    fn delay_reports_boost_only_the_control_tier() {
        let sched = FairScheduler::new(Some(8e6));
        let c = sched.register_with(1, Tier::Control, 1.0);
        let b = sched.register(2);
        // Saturated delay: control doubles, bulk stays at weight 1.
        sched.report_delay(1, overuse_snap(20_000));
        sched.report_delay(2, overuse_snap(20_000));
        let snap = sched.snapshot();
        let of = |conn: u64| *snap.iter().find(|s| s.conn == conn).unwrap();
        assert_eq!(of(1).boost, MAX_DELAY_BOOST);
        assert_eq!(of(1).weight, Tier::Control.weight() * MAX_DELAY_BOOST);
        assert_eq!(of(2).boost, 1.0);
        assert_eq!(of(2).weight, 1.0);
        assert_eq!(of(1).delay_us, Some(20_000));
        assert_eq!(sched.delay_of(2).map(|d| d.queue_delay_us), Some(20_000));
        // A calmed signal releases the boost.
        let mut calm = overuse_snap(0);
        calm.state = adoc::CongestionState::Normal;
        sched.report_delay(1, calm);
        assert_eq!(sched.snapshot()[0].boost, 1.0);
        drop((c, b));
    }

    #[test]
    fn control_preemption_pays_control_debt_first() {
        // 8 parked bulk buckets vs 1 parked control bucket. Without the
        // phase-0 reserve the control share of an epoch is
        // 4/(8+4) = 33%; with it, 50% + 50%·33% ≈ 67% — and each bulk
        // bucket gets ~1/24th. The per-epoch gain ratio is the
        // deterministic signature of preemption (timing noise cancels
        // out of the ratio).
        let sched = FairScheduler::new(Some(1e6));
        let bulks: Vec<ConnThrottle> = (1..=8).map(|c| sched.register(c)).collect();
        let control = sched.register_with(99, Tier::Control, 1.0);
        for b in &bulks {
            b.try_acquire_wire(400 << 10).expect("burst admits");
            b.try_acquire_wire(1).expect_err("parks in debt");
        }
        control.try_acquire_wire(700 << 10).expect("burst admits");
        control.try_acquire_wire(1).expect_err("parks in debt");
        let before = sched.snapshot();
        thread::sleep(Duration::from_millis(100));
        // An unrelated admission advances the refill epoch.
        let other = sched.register(50);
        other.acquire_wire(1);
        let after = sched.snapshot();
        let tokens = |snap: &[BucketSnapshot], conn: u64| {
            snap.iter().find(|s| s.conn == conn).unwrap().tokens
        };
        let control_gain = tokens(&after, 99) - tokens(&before, 99);
        let bulk_gain = tokens(&after, 1) - tokens(&before, 1);
        assert!(control_gain > 0.0, "control bucket received no credit");
        assert!(
            control_gain > 8.0 * bulk_gain,
            "phase-0 preemption missing: control +{control_gain:.0} vs bulk +{bulk_gain:.0}"
        );
        drop((bulks, control, other));
    }

    #[test]
    fn utilization_is_none_unlimited_and_zero_fresh() {
        let unlimited = FairScheduler::new(None);
        assert_eq!(unlimited.utilization(), None);
        let t = unlimited.register(1);
        t.acquire_wire(10 << 20);
        assert_eq!(unlimited.utilization(), None, "unpaced bytes never count");

        let fresh = FairScheduler::new(Some(1e6));
        assert_eq!(fresh.utilization(), Some(0.0));
    }

    #[test]
    fn utilization_never_exceeds_one_under_saturation() {
        // Three connections hammer a small budget flat out — including
        // a mid-run deregistration (debt forgiven into capacity, its
        // straggler traffic repriced through the drain bucket) and a
        // mid-run budget retune (clock edge). PR 8 logged 104% on a
        // shape like this; the capacity-accounted ratio must stay a
        // true fraction at every sample and end saturated.
        let sched = FairScheduler::new(Some(4e6));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let workers: Vec<_> = (1..=3u64)
            .map(|conn| {
                let sched = sched.clone();
                let stop = Arc::clone(&stop);
                thread::spawn(move || {
                    let t = sched.register(conn);
                    while !stop.load(Ordering::Relaxed) {
                        t.acquire_wire(48 << 10);
                        if conn == 3 {
                            return; // deregisters with debt outstanding
                        }
                    }
                })
            })
            .collect();
        let deadline = Instant::now() + Duration::from_millis(400);
        let mut samples = 0u32;
        while Instant::now() < deadline {
            if let Some(u) = sched.utilization() {
                assert!(u <= 1.0, "utilization {u} exceeded 1.0 mid-run");
                assert!(u >= 0.0, "utilization {u} negative");
                samples += 1;
            }
            if samples == 20 {
                sched.set_budget(Some(2e6)); // exercise the clock edge
            }
            thread::sleep(Duration::from_millis(2));
        }
        stop.store(true, Ordering::Relaxed);
        for w in workers {
            w.join().unwrap();
        }
        let u = sched.utilization().expect("budgeted scheduler");
        assert!(u <= 1.0, "final utilization {u} exceeded 1.0");
        assert!(
            u > 0.5,
            "saturating load should consume most of the granted capacity, got {u}"
        );
        assert!(samples > 20, "sampler never observed the run");
    }

    #[test]
    fn default_throttle_try_acquire_admits() {
        // The trait-level default (used by NoThrottle configs and the
        // serve_stream blocking adapter) must always admit.
        assert!(adoc::NoThrottle.try_acquire_wire(100 << 20).is_ok());
    }

    #[test]
    fn cpu_throttle_chains_behind_pacing() {
        use std::sync::atomic::{AtomicU64, Ordering};
        #[derive(Default)]
        struct Count(AtomicU64);
        impl Throttle for Count {
            fn charge(&self, _e: Duration) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let counter = Arc::new(Count::default());
        let sched = FairScheduler::new(None);
        let t = sched.register(3).with_cpu(counter.clone());
        t.charge(Duration::from_millis(1));
        t.charge(Duration::from_millis(1));
        assert_eq!(counter.0.load(Ordering::Relaxed), 2);
        // The weight hint crosses the seam.
        let w: &dyn Throttle = &t;
        assert_eq!(w.wire_weight(), 1.0);
        let heavy = sched.register_with(4, Tier::Control, 2.0);
        assert_eq!(Throttle::wire_weight(&heavy), 8.0);
    }
}
