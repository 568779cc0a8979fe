//! Global bandwidth scheduling: a **work-conserving weighted max-min**
//! scheduler over the daemon's aggregate wire budget.
//!
//! One [`FairScheduler`] guards the budget. Each connection registers a
//! token bucket whose *weight* is its [`Tier`]'s; the budget is refilled
//! into the buckets by weighted water-filling, so share a quiet
//! connection leaves on the table flows to backlogged peers instead of
//! evaporating — the policy layer the middleware papers argue should sit
//! *above* the transport, plugged in through the transport's own seam:
//! [`adoc::Throttle::acquire_wire`].
//!
//! ## Allocator and drivers
//!
//! The scheduler is two layers, split where time and threads come in.
//!
//! * The [`Allocator`] (this file) decides everything about *bytes*. It
//!   is plain data — one map of buckets, the shared drain bucket and the
//!   utilization books — with no clock, lock or shared pointer; every
//!   instant it sees is a [`Duration`] since the scheduler's origin,
//!   passed in by its caller. It decides when an epoch's credit is
//!   refilled and how it is split, whether an admission goes through,
//!   how long a refused caller should wait (the retry hint), which
//!   buckets are backlogged, and whether a verdict may wake anyone
//!   ([`Verdict::wakes`]: only an admission whose refill handed out
//!   credit).
//! * The drivers ([`driver`]) decide everything about *threads*. The
//!   allocator sits behind one mutex; [`ConnThrottle`]'s `acquire_wire`
//!   loops on a condvar until its attempt is admitted,
//!   `try_acquire_wire` makes one attempt and hands the reactor the
//!   retry hint to park on, and after unlocking both issue the wakeups
//!   (condvar, parked-waker) and events the verdict calls for. The
//!   drivers also keep what the lock-free unlimited path reads: the
//!   budget and parked-gauge mirrors and the bytes it admitted.
//!
//! Because the allocator never reads a clock, its tests drive it in
//! virtual time, against a brute-force weighted max-min reference.
//!
//! ## Refill model
//!
//! Time is sliced into refill epochs (any admission more than
//! [`MIN_EPOCH_SECS`] after the previous refill advances the epoch; a
//! blocked waiter's wakeup deadline does too). The elapsed budget
//! `budget × dt` is distributed by weighted water-filling in three
//! phases:
//!
//! 0. **control reserve** — backlogged Control-tier buckets split
//!    [`CONTROL_PREEMPT_FRACTION`] of the epoch first, which bounds a
//!    control admission's wait however deep the bulk backlog;
//! 1. **backlogged buckets** — every bucket with a pending admission
//!    splits the rest in proportion to its weight, max-min style: credit
//!    a bucket cannot hold (its burst cap) cascades to the others;
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
//! Waiters are **event-driven**, not polled: a refused caller is told
//! when its debt clears at its current max-min share and sleeps (or
//! parks) exactly until then, and an admission whose refill credited the
//! backlog, a deregistration returning share, a re-tier or a budget
//! change wakes it to re-evaluate at once. A refusal wakes nobody: the
//! sliver a retry's forced refill hands out would only have a parked
//! reactor wake itself to be refused again.
//!
//! ## Observability and drain
//!
//! [`FairScheduler::snapshot`] is read-only: it copies the books and
//! never advances an epoch. Traffic from connections that already
//! deregistered (pipelines still flushing during a drain) is charged to
//! a shared **drain bucket** that participates in scheduling like any
//! other bucket, so the aggregate cap holds end-to-end instead of drain
//! traffic slipping through unpaced.

mod driver;

pub use driver::{ConnThrottle, FairScheduler};

use std::collections::HashMap;
use std::time::Duration;

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

/// Bounds on a retry hint: the floor keeps rounding from busy-spinning
/// a waiter, the ceiling keeps a vanishing budget from overflowing a
/// `Duration` or a deadline (a caller woken at the ceiling just asks
/// again).
const MIN_RETRY_SECS: f64 = 0.0002;
const MAX_RETRY_SECS: f64 = 3600.0;

/// Fraction of every refill epoch reserved for backlogged Control-tier
/// buckets (phase 0): however deep the bulk backlog, a blocked control
/// admission's debt is paid at no less than this share of the budget,
/// which is what bounds its admission latency.
const CONTROL_PREEMPT_FRACTION: f64 = 0.5;

/// Priority tier of a connection's traffic: `Control > Paid > Bulk`.
///
/// A tier is a scheduling weight: a backlogged Control connection
/// receives 4× the phase-1 share of a backlogged Bulk connection (2× a
/// Paid one) under contention, plus the control reserve, and exactly
/// the budget when alone — weighted max-min, not strict priority, so no
/// tier can starve another.
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

/// Scheduling state captured from a live registration so it can
/// survive a disconnect: a resumed connection is rebuilt from this via
/// [`FairScheduler::restore`] instead of a fresh registration, keeping
/// its tier, token balance (debt included) and lifetime admitted byte
/// counter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedCarryover {
    /// Priority tier at the moment of capture.
    pub tier: Tier,
    /// Token balance in bytes; negative means the connection detached
    /// in debt and must earn its way back before admitting.
    pub tokens: f64,
    /// Lifetime wire bytes admitted before the disconnect.
    pub admitted: u64,
}

/// A live admission snapshot for one connection (or the drain bucket).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BucketSnapshot {
    /// Connection id the bucket belongs to (0 = the shared drain
    /// bucket, which is never a valid connection id).
    pub conn: u64,
    /// Token balance in bytes (negative = paying off debt).
    pub tokens: f64,
    /// Total wire bytes admitted so far.
    pub admitted: u64,
    /// Scheduling weight (the tier's).
    pub weight: f64,
    /// Priority tier.
    pub tier: Tier,
}

/// One pacing bucket (a registered connection, or the shared drain
/// bucket).
#[derive(Debug, Clone)]
struct Bucket {
    /// Token balance in bytes; may be negative (debt) after a large
    /// admission.
    tokens: f64,
    /// Wire bytes ever admitted through this bucket.
    admitted: u64,
    tier: Tier,
    /// Refused admissions pending on this bucket: blocked threads (a
    /// striped group's emission threads share one bucket, orphans share
    /// the drain bucket) plus a connection parked in its reactor. While
    /// non-zero the bucket is backlogged and refills keep crediting it.
    pending: usize,
    /// When the wait the bucket's next admission ends began: its first
    /// refusal, or the previous admission if others stayed pending.
    backlogged_since: Option<Duration>,
    /// The pending admission came through the nonblocking path (the
    /// connection is parked in its reactor).
    parked: bool,
}

impl Bucket {
    fn new(tier: Tier, tokens: f64) -> Bucket {
        Bucket {
            tokens,
            admitted: 0,
            tier,
            pending: 0,
            backlogged_since: None,
            parked: false,
        }
    }

    fn weight(&self) -> f64 {
        self.tier.weight()
    }

    /// True when an admission is pending on this bucket. Backlogged
    /// buckets get phase-1 refill credit and count toward the max-min
    /// share denominator.
    fn backlogged(&self) -> bool {
        self.pending > 0
    }

    fn snapshot(&self, conn: u64) -> BucketSnapshot {
        BucketSnapshot {
            conn,
            tokens: self.tokens,
            admitted: self.admitted,
            weight: self.weight(),
            tier: self.tier,
        }
    }
}

/// Where an admission attempt stands in its caller's wait episode.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Stage {
    /// Not refused yet: the caller is not among the bucket's `pending`.
    First,
    /// A retry woken early by someone else's refill.
    Woken,
    /// A retry at the hinted instant — the event the caller waited
    /// for, so it forces the refill past `MIN_EPOCH_SECS`.
    Due,
}

/// The outcome of one [`Allocator::attempt`].
#[derive(Debug, Clone, Copy, PartialEq)]
enum Verdict {
    /// The bytes are admitted. `credit` is what the attempt's refill
    /// distributed; `waited` ends the caller's wait episode — its tier
    /// and how long it waited — when it had been refused before.
    Admit {
        credit: f64,
        waited: Option<(Tier, Duration)>,
    },
    /// Refused: the caller is pending on its bucket and should retry
    /// after `after`, when its max-min share will have paid the debt
    /// off. The prediction is optimistic (only currently backlogged
    /// buckets compete), so an early retry costs a shorter second
    /// wait, never a longer one.
    Retry { after: Duration, credit: f64 },
}

impl Verdict {
    /// Refill credit the attempt distributed.
    fn credit(&self) -> f64 {
        match *self {
            Verdict::Admit { credit, .. } | Verdict::Retry { credit, .. } => credit,
        }
    }

    /// Whether the driver should wake sleepers and parked admissions:
    /// only an admission whose refill handed out credit may have paid
    /// someone else's debt. A refusal never wakes anyone.
    fn wakes(&self) -> bool {
        matches!(*self, Verdict::Admit { credit, .. } if credit > 0.0)
    }
}

/// The scheduler's books and policy as plain data (see the module
/// docs): buckets, the budget, and the counters behind utilization.
/// Every instant is a `Duration` since the scheduler's origin.
#[derive(Debug, Clone)]
struct Allocator {
    /// Aggregate budget in bytes/second; `None` = unlimited.
    budget: Option<f64>,
    buckets: HashMap<u64, Bucket>,
    /// Shared bucket charged for traffic from already-deregistered
    /// connections (pipelines flushing during a drain).
    drain: Bucket,
    /// When the last refill epoch was taken.
    last_refill: Duration,
    /// Refused admissions pending across every bucket, and how many of
    /// them are parked in a reactor (the rest sleep on the condvar).
    pending: usize,
    parked: usize,
    /// Bytes admitted against tokens under a budget, and through
    /// `attempt` with the budget lifted (never charged).
    paced: u64,
    unpaced: u64,
    /// Cumulative admission capacity ever granted, in bytes: burst
    /// grants under a budget, refill credit (`budget × dt` per epoch),
    /// balances banked when a budget first arrives, and debt forgiven
    /// when an indebted bucket deregisters. Every paced admission is
    /// covered by capacity accrued here, which pins utilization ≤ 1.
    capacity: f64,
}

impl Allocator {
    fn new(budget: Option<f64>) -> Allocator {
        check_budget(budget);
        Allocator {
            budget,
            buckets: HashMap::new(),
            drain: Bucket::new(Tier::Bulk, MIN_BURST),
            last_refill: Duration::ZERO,
            pending: 0,
            parked: 0,
            paced: 0,
            unpaced: 0,
            // The drain bucket's construction-time burst is spendable
            // capacity only under a budget; an unlimited scheduler
            // accrues balances when a budget first arrives.
            capacity: budget.map_or(0.0, |_| MIN_BURST),
        }
    }

    /// Admissions parked in a reactor.
    fn parked(&self) -> usize {
        self.parked
    }

    /// Admissions blocked on the condvar.
    fn sleepers(&self) -> usize {
        self.pending - self.parked
    }

    fn active(&self) -> usize {
        self.buckets.len()
    }

    /// Lifetime bytes admitted through [`Allocator::attempt`].
    fn admitted(&self) -> u64 {
        self.paced + self.unpaced
    }

    /// True when `conn`'s bucket holds a parked admission: the caller's
    /// next nonblocking attempt is that admission's retry.
    fn is_parked(&self, conn: u64) -> bool {
        self.buckets.get(&conn).unwrap_or(&self.drain).parked
    }

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
            .filter(|b| b.backlogged() && tier.is_none_or(|t| b.tier == t))
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

    /// Registers `conn` at `tier` with a full burst bank, so short
    /// interactive messages are snappy; the grant is a one-time
    /// allowance, not ongoing share (refills only top idle banks up
    /// from surplus).
    fn register(&mut self, conn: u64, tier: Tier) {
        let tokens = self.joining_cap(tier.weight());
        if self.budget.is_some() {
            // Spendable paced capacity (under an unlimited budget the
            // bank is decorative until set_budget accrues whatever
            // survives the clamp).
            self.capacity += tokens;
        }
        self.buckets.insert(conn, Bucket::new(tier, tokens));
    }

    /// Re-registers a resumed connection from its carryover: tier,
    /// balance (debt included) and lifetime counter survive, the balance
    /// clamped to the burst cap a new registration would get. Capacity
    /// is conservative both ways — a forgiven debt that comes back is
    /// re-earned through refill credit, a positive balance was accrued
    /// when first granted — so utilization stays ≤ 1.
    fn restore(&mut self, conn: u64, co: SchedCarryover) {
        let mut bucket = Bucket::new(co.tier, co.tokens.min(self.joining_cap(co.tier.weight())));
        bucket.admitted = co.admitted;
        self.buckets.insert(conn, bucket);
    }

    /// The scheduling state worth preserving across a reconnect.
    fn carryover_of(&self, conn: u64) -> Option<SchedCarryover> {
        let b = self.buckets.get(&conn)?;
        Some(SchedCarryover {
            tier: b.tier,
            tokens: b.tokens,
            admitted: b.admitted,
        })
    }

    /// Removes `conn`'s bucket. Blocked threads still pending on it
    /// re-resolve to the drain bucket on their next attempt, so their
    /// pending count moves there; a parked admission dies with its
    /// connection.
    fn deregister(&mut self, conn: u64) {
        let Some(removed) = self.buckets.remove(&conn) else {
            return;
        };
        let orphans = removed.pending - usize::from(removed.parked);
        if orphans > 0 {
            self.drain.pending += orphans;
            self.drain.backlogged_since = self.drain.backlogged_since.or(removed.backlogged_since);
        }
        self.pending -= usize::from(removed.parked);
        self.parked -= usize::from(removed.parked);
        // Debt dies with the bucket but its admitted bytes were
        // counted: forgive it into capacity so utilization stays a true
        // ratio. (A positive leftover bank stays in capacity unspent —
        // conservative, never inflating the ratio.)
        self.capacity += (-removed.tokens).max(0.0);
    }

    /// Moves `conn` to `tier`; the weight change takes effect from the
    /// next refill. False when `conn` is not registered.
    fn set_tier(&mut self, conn: u64, tier: Tier) -> bool {
        let Some(b) = self.buckets.get_mut(&conn) else {
            return false;
        };
        b.tier = tier;
        true
    }

    /// Replaces the budget at `now`. Balances are clamped down to the
    /// new burst caps but **debt is preserved** — a retune must never
    /// mint credit, or tightening the budget to clamp a flood would
    /// first release every blocked connection's accumulated debt.
    fn set_budget(&mut self, budget: Option<f64>, now: Duration) {
        check_budget(budget);
        // Clock edge: the tail of credit earned under the outgoing
        // budget is distributed (and accounted) before the rate changes.
        let was_unlimited = self.budget.is_none();
        self.refill(now, true);
        self.budget = budget;
        self.last_refill = now;
        let total_weight = self.total_weight();
        for b in self.buckets.values_mut().chain([&mut self.drain]) {
            let cap = budget.map_or(MIN_BURST, |x| Self::cap_for(x, b.weight(), total_weight));
            b.tokens = b.tokens.min(cap);
        }
        if was_unlimited && budget.is_some() {
            // Balances banked while the budget was lifted were never
            // accounted; they become spendable capacity from now.
            self.capacity += self.all().map(|b| b.tokens.max(0.0)).sum::<f64>();
        }
    }

    /// Advances the refill epoch to `now` if it is stale (or `force`d),
    /// water-filling the elapsed budget across buckets. Returns the
    /// credit distributed (0.0 = the epoch did not advance).
    fn refill(&mut self, now: Duration, force: bool) -> f64 {
        let Some(budget) = self.budget else {
            self.last_refill = now;
            return 0.0;
        };
        let dt = now.saturating_sub(self.last_refill).as_secs_f64();
        if dt <= 0.0 || (!force && dt < MIN_EPOCH_SECS) {
            return 0.0;
        }
        self.last_refill = now;
        let credit = budget * dt;
        self.capacity += credit;
        let total_weight = self.total_weight();
        // Phase 0: the control reserve, paid ahead of the weighted split.
        let mut remaining = credit;
        let control = self.phase(|b| b.backlogged() && b.tier == Tier::Control);
        if !control.is_empty() {
            let reserve = credit * CONTROL_PREEMPT_FRACTION;
            remaining -= reserve - water_fill(control, reserve, budget, total_weight);
        }
        // Phase 1: backlogged buckets split the rest.
        let surplus = water_fill(
            self.phase(Bucket::backlogged),
            remaining,
            budget,
            total_weight,
        );
        // Phase 2: idle buckets bank what the backlog could not hold.
        // Credit beyond every cap evaporates (nobody may hoard more
        // than a burst).
        water_fill(
            self.phase(|b| !b.backlogged()),
            surplus,
            budget,
            total_weight,
        );
        credit
    }

    fn phase(&mut self, pred: impl Fn(&Bucket) -> bool) -> Vec<&mut Bucket> {
        let all = self.buckets.values_mut().chain([&mut self.drain]);
        all.filter(|b| pred(b)).collect()
    }

    /// One admission attempt for `bytes` on `conn` at `now` — the only
    /// place tokens are spent and the only place a retry hint is
    /// computed, for blocking and nonblocking callers alike. A positive
    /// balance admits and pays the full `bytes`. A refusal at
    /// [`Stage::First`] counts the caller among the bucket's pending
    /// admissions; `parks` says it will sit in a reactor rather than on
    /// the condvar.
    fn attempt(
        &mut self,
        conn: u64,
        bytes: usize,
        now: Duration,
        stage: Stage,
        parks: bool,
    ) -> Verdict {
        // A refused caller stays pending across its retries, so the
        // refill counts its bucket as backlogged — otherwise the
        // most-frequently-waking connection would donate its credit
        // share to its peers.
        let credit = self.refill(now, stage == Stage::Due);
        let limit = self.budget;
        let retry = stage != Stage::First;
        let b = self.bucket_mut(conn);
        let (tier, weight) = (b.tier, b.weight());
        let Some(budget) = limit.filter(|_| b.tokens <= 0.0) else {
            // Admitted; with the budget lifted only the bytes are
            // counted, never charged.
            if limit.is_some() {
                b.tokens -= bytes as f64;
            }
            b.admitted += bytes as u64;
            let unparked = parks && std::mem::take(&mut b.parked);
            let mut waited = None;
            if retry {
                b.pending -= 1;
                // Whoever is still pending waits on from here.
                let next = (b.pending > 0).then_some(now);
                let since = std::mem::replace(&mut b.backlogged_since, next);
                waited = since.map(|s| (tier, now.saturating_sub(s)));
            }
            self.pending -= usize::from(retry);
            self.parked -= usize::from(unparked);
            match limit {
                Some(_) => self.paced += bytes as u64,
                None => self.unpaced += bytes as u64,
            }
            return Verdict::Admit { credit, waited };
        };
        let debt = -b.tokens;
        if !retry {
            b.pending += 1;
            b.backlogged_since.get_or_insert(now);
            b.parked |= parks;
            self.pending += 1;
            self.parked += usize::from(parks);
        }
        let mut rate = budget * weight / self.backlogged_weight(None).max(weight);
        if tier == Tier::Control {
            // The control reserve pays control admissions at least their
            // slice of it; wait on the better of the two predictions.
            let cw = self.backlogged_weight(Some(Tier::Control)).max(weight);
            rate = rate.max(budget * CONTROL_PREEMPT_FRACTION * weight / cw);
        }
        // Never NaN: the debt is finite and the rate positive (an
        // infinite rate gives 0, a vanishing one +inf, both clamped).
        let secs = ((debt + 1.0) / rate).clamp(MIN_RETRY_SECS, MAX_RETRY_SECS);
        Verdict::Retry {
            after: Duration::from_secs_f64(secs),
            credit,
        }
    }

    /// Every live bucket's snapshot, sorted by connection id.
    fn snapshot(&self) -> Vec<BucketSnapshot> {
        let mut rows: Vec<_> = self.buckets.iter().map(|(&c, b)| b.snapshot(c)).collect();
        rows.sort_by_key(|r| r.conn);
        rows
    }

    fn drain_snapshot(&self) -> BucketSnapshot {
        self.drain.snapshot(0)
    }

    /// `(paced admissions − outstanding debt) / capacity`: the fraction
    /// of granted capacity actually consumed, exact (not clamped).
    /// Outstanding debt is what indebted live buckets will pay back out
    /// of future refills; a deregistered bucket's was forgiven into
    /// capacity. `None` when the budget is unlimited.
    fn utilization(&self) -> Option<f64> {
        self.budget?;
        if self.capacity <= 0.0 {
            return Some(0.0);
        }
        let debt: f64 = self.all().map(|b| (-b.tokens).max(0.0)).sum();
        Some((self.paced as f64 - debt) / self.capacity)
    }
}

/// Weighted max-min water-filling: distributes `credit` over `set` in
/// proportion to weights, cascading credit above a bucket's burst cap
/// back into the pool; returns what the set could not absorb.
fn water_fill(mut set: Vec<&mut Bucket>, mut credit: f64, budget: f64, total_weight: f64) -> f64 {
    let cap = |b: &Bucket| Allocator::cap_for(budget, b.weight(), total_weight);
    while credit > 1e-9 && !set.is_empty() {
        // Drop buckets already at cap; they absorb nothing.
        set.retain(|b| b.tokens < cap(b));
        if set.is_empty() {
            break;
        }
        let w_sum: f64 = set.iter().map(|b| b.weight()).sum();
        let mut leftover = 0.0;
        let mut any_capped = false;
        for b in set.iter_mut() {
            let (give, room) = (credit * b.weight() / w_sum, cap(b) - b.tokens);
            if give >= room {
                leftover += give - room;
                b.tokens = cap(b);
                any_capped = true;
            } else {
                b.tokens += give;
            }
        }
        if !any_capped {
            // Everyone took their full proportional share.
            return 0.0;
        }
        credit = leftover;
    }
    credit
}

fn check_budget(budget: Option<f64>) {
    let valid = budget.is_none_or(|b| b > 0.0 && b.is_finite());
    assert!(valid, "a bandwidth budget must be positive and finite");
}

#[cfg(test)]
mod tests {
    use super::*;
    use adoc::Throttle;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::thread;
    use std::time::Instant;

    const ZERO: Duration = Duration::ZERO;

    fn secs(s: f64) -> Duration {
        Duration::from_secs_f64(s)
    }

    /// splitmix64: seeded, so every property case is reproducible.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }

        fn tier(&mut self) -> Tier {
            [Tier::Control, Tier::Paid, Tier::Bulk][self.below(3) as usize]
        }
    }

    /// The `p`-quantile (nearest rank) of `xs`.
    fn quantile(xs: &[Duration], p: f64) -> Duration {
        let mut xs = xs.to_vec();
        xs.sort();
        xs[((xs.len() - 1) as f64 * p).round() as usize]
    }

    /// One client of the virtual-time simulation: messages made of
    /// fixed admission sizes, sent closed loop (the next starts when the
    /// last admission of the previous one is in) or open loop (message
    /// `i` is due at `i × period`), by a blocking thread or by a
    /// connection that parks in the reactor when refused.
    struct Flow {
        conn: u64,
        /// Admission sizes making up one message.
        msg: Vec<usize>,
        period: Option<Duration>,
        parks: bool,
        /// Messages left to send, and sent so far.
        left: u64,
        sent: u64,
        /// Index into `msg` of the next admission.
        part: usize,
        /// When the flow next attempts, and as what.
        next: Duration,
        stage: Stage,
        /// When the current message began (its due time when open loop)
        /// and when the current admission was first asked for.
        began: Duration,
        asked: Duration,
        /// How long each admission waited, in order.
        waits: Vec<Duration>,
        admitted: u64,
        /// When the last message's last admission went through.
        done: Option<Duration>,
    }

    impl Flow {
        /// A closed-loop blocking sender that never stops.
        fn new(conn: u64, msg: Vec<usize>) -> Flow {
            Flow {
                conn,
                msg,
                period: None,
                parks: false,
                left: u64::MAX,
                sent: 0,
                part: 0,
                next: ZERO,
                stage: Stage::First,
                began: ZERO,
                asked: ZERO,
                waits: Vec::new(),
                admitted: 0,
                done: None,
            }
        }

        fn messages(mut self, n: u64) -> Flow {
            self.left = n;
            self
        }

        fn every(mut self, period: Duration) -> Flow {
            self.period = Some(period);
            self
        }

        fn parked(mut self) -> Flow {
            self.parks = true;
            self
        }

        /// Scheduler wait of each whole message: the sum of its
        /// admissions' waits.
        fn message_waits(&self) -> Vec<Duration> {
            self.waits
                .chunks_exact(self.msg.len())
                .map(|m| m.iter().sum())
                .collect()
        }
    }

    /// The drivers' behaviour over the allocator in virtual time: a
    /// refused flow retries at its hint (as `Due`), and an admission
    /// that [`Verdict::wakes`] has every refused flow retry at once —
    /// a blocked thread as `Woken`, a parked connection as `Due` (the
    /// reactor's retry), exactly as `acquire_wire` and
    /// `try_acquire_wire` do.
    struct Sim {
        alloc: Allocator,
        now: Duration,
        flows: Vec<Flow>,
    }

    impl Sim {
        fn new(budget: f64) -> Sim {
            Sim {
                alloc: Allocator::new(Some(budget)),
                now: ZERO,
                flows: Vec::new(),
            }
        }

        /// Registers the flow's connection at `tier` and adds the flow.
        fn add(&mut self, tier: Tier, flow: Flow) -> usize {
            self.alloc.register(flow.conn, tier);
            self.flows.push(flow);
            self.flows.len() - 1
        }

        /// Steps every flow due up to `until`.
        fn run_to(&mut self, until: Duration) {
            loop {
                let due = (0..self.flows.len())
                    .filter(|&i| self.flows[i].left > 0 && self.flows[i].next <= until)
                    .min_by_key(|&i| (self.flows[i].next, i));
                let Some(i) = due else { return };
                self.now = self.now.max(self.flows[i].next);
                self.step(i);
            }
        }

        fn run(&mut self, until: Duration) {
            self.run_to(until);
            self.now = self.now.max(until);
        }

        /// Runs until every flow has sent its messages; returns when.
        fn finish(&mut self) -> Duration {
            self.run_to(Duration::MAX);
            self.now
        }

        fn step(&mut self, i: usize) {
            let now = self.now;
            let f = &mut self.flows[i];
            if f.stage == Stage::First {
                f.asked = now;
            }
            let bytes = f.msg[f.part];
            let verdict = self.alloc.attempt(f.conn, bytes, now, f.stage, f.parks);
            if let Verdict::Retry { after, .. } = verdict {
                assert!(!verdict.wakes(), "a refusal may not wake anyone");
                f.stage = Stage::Due;
                f.next = now + after;
                return;
            }
            f.stage = Stage::First;
            f.admitted += bytes as u64;
            f.waits.push(now - f.asked);
            f.part += 1;
            f.next = now;
            if f.part == f.msg.len() {
                f.part = 0;
                f.left -= 1;
                f.sent += 1;
                f.began = match f.period {
                    Some(p) => p * f.sent as u32,
                    None => now,
                };
                f.next = f.began.max(now);
                if f.left == 0 {
                    f.done = Some(now);
                }
            }
            if verdict.wakes() {
                for g in self.flows.iter_mut().filter(|g| g.stage != Stage::First) {
                    g.next = now;
                    if !g.parks {
                        g.stage = Stage::Woken;
                    }
                }
            }
        }
    }

    /// Drives one blocking admission of `bytes` on `conn` from `now`,
    /// retrying at each hint; returns when it was admitted.
    fn admit(a: &mut Allocator, conn: u64, bytes: usize, mut now: Duration) -> Duration {
        let mut stage = Stage::First;
        loop {
            match a.attempt(conn, bytes, now, stage, false) {
                Verdict::Admit { .. } => return now,
                Verdict::Retry { after, .. } => (now, stage) = (now + after, Stage::Due),
            }
        }
    }

    /// Weighted max-min by brute force: bisection on the water level λ,
    /// claimant `i` getting `min(λ·wᵢ, roomᵢ)`, with λ chosen so the
    /// gifts sum to `amount` (or every claimant is full).
    fn max_min(amount: f64, claims: &[(f64, f64)]) -> Vec<f64> {
        let give = |level: f64| -> Vec<f64> {
            claims
                .iter()
                .map(|&(w, room)| (level * w).min(room.max(0.0)))
                .collect()
        };
        let sum = |level: f64| give(level).iter().sum::<f64>();
        if claims.iter().map(|&(_, room)| room.max(0.0)).sum::<f64>() <= amount {
            return give(f64::INFINITY);
        }
        let (mut lo, mut hi) = (0.0, 1.0);
        while sum(hi) < amount {
            hi *= 2.0;
        }
        for _ in 0..200 {
            let mid = (lo + hi) / 2.0;
            if sum(mid) < amount {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        give(hi)
    }

    /// What one refill epoch of `credit` gives each bucket (by conn id,
    /// 0 = drain), phase by phase through [`max_min`] instead of the
    /// allocator's cascading loop.
    fn reference_refill(a: &Allocator, credit: f64) -> Vec<(u64, f64)> {
        let budget = a.budget.expect("a budget");
        let total = a.total_weight();
        let mut rows: Vec<(u64, &Bucket)> = a.buckets.iter().map(|(&c, b)| (c, b)).collect();
        rows.push((0, &a.drain));
        rows.sort_by_key(|r| r.0);
        let mut tokens: Vec<f64> = rows.iter().map(|r| r.1.tokens).collect();
        let cap: Vec<f64> = rows
            .iter()
            .map(|r| Allocator::cap_for(budget, r.1.weight(), total))
            .collect();
        let mut phase = |amount: f64, member: &dyn Fn(&Bucket) -> bool| -> f64 {
            let idx: Vec<usize> = (0..rows.len()).filter(|&i| member(rows[i].1)).collect();
            let claims: Vec<(f64, f64)> = idx
                .iter()
                .map(|&i| (rows[i].1.weight(), cap[i] - tokens[i]))
                .collect();
            let gifts = max_min(amount, &claims);
            for (&i, g) in idx.iter().zip(&gifts) {
                tokens[i] += g;
            }
            amount - gifts.iter().sum::<f64>()
        };
        let control = |b: &Bucket| b.backlogged() && b.tier == Tier::Control;
        let mut remaining = credit;
        if rows.iter().any(|r| control(r.1)) {
            let reserve = credit * CONTROL_PREEMPT_FRACTION;
            remaining -= reserve - phase(reserve, &control);
        }
        let surplus = phase(remaining, &Bucket::backlogged);
        phase(surplus, &|b: &Bucket| !b.backlogged());
        rows.iter()
            .zip(&tokens)
            .map(|(r, t)| (r.0, t - r.1.tokens))
            .collect()
    }

    /// Long-run admission rates for flows of `(tier, demand in bytes/s)`
    /// (∞ = saturating) sharing `budget`: the control reserve split
    /// max-min among control flows first, then the rest max-min among
    /// everyone on their remaining demand.
    fn reference_rates(budget: f64, flows: &[(Tier, f64)]) -> Vec<f64> {
        let mut got = vec![0.0; flows.len()];
        let control: Vec<usize> = (0..flows.len())
            .filter(|&i| flows[i].0 == Tier::Control)
            .collect();
        if !control.is_empty() {
            let claims: Vec<(f64, f64)> = control
                .iter()
                .map(|&i| (flows[i].0.weight(), flows[i].1))
                .collect();
            let reserve = max_min(budget * CONTROL_PREEMPT_FRACTION, &claims);
            for (&i, g) in control.iter().zip(reserve) {
                got[i] = g;
            }
        }
        let rest = budget - got.iter().sum::<f64>();
        let claims: Vec<(f64, f64)> = flows
            .iter()
            .zip(&got)
            .map(|(&(t, d), g)| (t.weight(), d - g))
            .collect();
        for (g, share) in got.iter_mut().zip(max_min(rest, &claims)) {
            *g += share;
        }
        got
    }

    // ---- The allocator in virtual time ----

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
    fn budget_paces_a_single_connection() {
        // 10 MB/s; the burst grant (a quarter second of the budget,
        // halved by the drain bucket's weight) covers 1.25 MB at once,
        // the rest is paced at the full (work-conserving) budget.
        let chunk = 64 << 10;
        let mut sim = Sim::new(10e6);
        sim.add(Tier::Bulk, Flow::new(7, vec![chunk]).messages(51));
        let end = sim.finish().as_secs_f64();
        // The last chunk is admitted once the one before it is paid off.
        let expect = (50 * chunk) as f64 - 1.25e6;
        let expect = expect / 10e6;
        assert!(
            (end - expect).abs() < 0.02 * expect,
            "3.3 MB took {end:.4}s, expected {expect:.4}s"
        );
    }

    #[test]
    fn greedy_connection_cannot_starve_its_peer() {
        // Two connections, one pushes 4x more traffic. Under a shared
        // budget both finish, the modest one first; the greedy one then
        // gets the whole budget, so it ends when the total is paid.
        let chunk = 128 << 10;
        let mut sim = Sim::new(20e6);
        let greedy = sim.add(Tier::Bulk, Flow::new(1, vec![chunk]).messages(92));
        let grants: f64 = sim.alloc.buckets[&1].tokens;
        let modest = sim.add(Tier::Bulk, Flow::new(2, vec![chunk]).messages(23));
        let grants = grants + sim.alloc.buckets[&2].tokens;
        sim.finish();
        let done = |i: usize| sim.flows[i].done.unwrap().as_secs_f64();
        let (greedy, modest) = (done(greedy), done(modest));
        assert!(
            modest < greedy,
            "fair share must protect the modest client: modest {modest:.3}s vs greedy {greedy:.3}s"
        );
        // Each flow's last chunk rides on credit, not on debt paid.
        let paid = ((92 + 23 - 2) * chunk) as f64 - grants;
        let expect = paid / 20e6;
        assert!(
            (greedy - expect).abs() < 0.03 * expect,
            "12 MB + 3 MB at 20 MB/s took {greedy:.3}s, expected {expect:.3}s"
        );
    }

    #[test]
    fn work_conservation_redistributes_idle_share() {
        // 1 busy + 3 idle connections under 4 MB/s: the busy one runs
        // at the whole budget (idle share redistributed), not at
        // budget/4 — a fixed split would take ~2.5 s instead of ~0.6 s.
        let chunk = 64 << 10;
        let mut sim = Sim::new(4e6);
        let busy = sim.add(Tier::Bulk, Flow::new(1, vec![chunk]).messages(46));
        let grant = sim.alloc.buckets[&1].tokens;
        for idle in 2..=4 {
            sim.alloc.register(idle, Tier::Bulk);
        }
        sim.finish();
        let end = sim.flows[busy].done.unwrap().as_secs_f64();
        let expect = ((45 * chunk) as f64 - grant) / 4e6;
        assert!(
            (end - expect).abs() < 0.03 * expect,
            "idle share was not redistributed: 3 MB took {end:.3}s, expected {expect:.3}s"
        );
    }

    #[test]
    fn weighted_split_is_proportional() {
        // A Control-tier connection against a Bulk one, both saturating:
        // once the burst grants are spent, the control reserve plus a
        // 4:1 split of the rest gives control 0.5 + 0.5 × 4/5 = 90 %.
        let budget = 8e6;
        let mut sim = Sim::new(budget);
        sim.add(Tier::Control, Flow::new(1, vec![32 << 10]));
        sim.add(Tier::Bulk, Flow::new(2, vec![32 << 10]));
        sim.run(secs(0.5));
        let before: Vec<u64> = sim.flows.iter().map(|f| f.admitted).collect();
        sim.run(secs(2.5));
        let want = reference_rates(
            budget,
            &[(Tier::Control, f64::INFINITY), (Tier::Bulk, f64::INFINITY)],
        );
        for (i, f) in sim.flows.iter().enumerate() {
            let rate = (f.admitted - before[i]) as f64 / 2.0;
            assert!(
                (rate - want[i]).abs() < 0.01 * budget,
                "conn {} ran at {rate:.0} B/s, the reference says {:.0}",
                f.conn,
                want[i]
            );
        }
    }

    #[test]
    fn water_fill_prunes_by_each_buckets_own_cap() {
        // Regression: the at-cap pruning pass once compared a surviving
        // bucket against an evicted bucket's (smaller) cap and pruned it
        // wrongly — its credit share silently evaporated.
        let budget = 8e6;
        let total_weight = 6.0; // control 4 + bulk 1 + drain 1
        let bulk_cap = Allocator::cap_for(budget, 1.0, total_weight); // ~333 KB
        let control_cap = Allocator::cap_for(budget, 4.0, total_weight); // ~1.33 MB
        let mut bulk = Bucket::new(Tier::Bulk, bulk_cap); // exactly at cap
                                                          // Above bulk's cap, well below its own.
        let mut control = Bucket::new(Tier::Control, 400_000.0);
        assert!(control.tokens > bulk_cap && control.tokens < control_cap);
        let leftover = water_fill(
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
        let mut a = Allocator::new(Some(1e6));
        a.register(4, Tier::Bulk);
        let grant = a.buckets[&4].tokens;
        admit(&mut a, 4, 800 << 10, ZERO);
        let debt = (800 << 10) as f64 - grant;
        a.set_budget(Some(4e6), ZERO);
        let waited = admit(&mut a, 4, 1, ZERO).as_secs_f64();
        let expect = debt / 4e6;
        assert!(
            (waited - expect).abs() < 0.01 * expect,
            "set_budget lost the debt: admitted after {waited:.4}s, expected {expect:.4}s"
        );
    }

    #[test]
    fn acquire_after_deregistration_is_paced_by_the_drain_bucket() {
        // A deregistered connection's still-flushing pipeline is charged
        // to the shared drain bucket, so the aggregate cap holds.
        let chunk = 64 << 10;
        let mut sim = Sim::new(1e6);
        sim.alloc.register(9, Tier::Bulk);
        sim.alloc.deregister(9);
        sim.flows.push(Flow::new(9, vec![chunk]).messages(9));
        let end = sim.finish().as_secs_f64();
        // The drain bucket's 64 KiB burst pays for the first chunk and
        // the last goes through once the one before it is paid off: the
        // seven between are paced at the full budget.
        let expect = (7 * chunk) as f64 / 1e6;
        assert!(
            (end - expect).abs() < 0.02 * expect,
            "drain traffic took {end:.3}s, expected {expect:.3}s"
        );
        let drain = sim.alloc.drain_snapshot();
        assert_eq!(drain.conn, 0);
        assert_eq!(drain.admitted, 9 * chunk as u64);
        assert!(sim.alloc.snapshot().is_empty());
    }

    #[test]
    fn a_bucket_stays_backlogged_while_any_admission_is_pending() {
        // A striped group's emission threads block on one bucket, driven
        // here as two callers. One's admission must not un-backlog the
        // bucket under the sibling still waiting on it, or the bucket
        // forfeits its refill share to the rival.
        let mut a = Allocator::new(Some(1e6));
        a.register(1, Tier::Bulk);
        a.register(2, Tier::Bulk);
        let bank = |a: &Allocator, conn: u64| a.buckets[&conn].tokens as usize;
        let (bank1, bank2) = (bank(&a, 1), bank(&a, 2));
        admit(&mut a, 1, bank1 + 5_000, ZERO); // ~10 ms of debt at half the budget
        admit(&mut a, 2, bank2 + 500_000, ZERO); // in debt throughout
        for conn in [1, 1, 2] {
            let verdict = a.attempt(conn, 1, ZERO, Stage::First, false);
            assert!(matches!(verdict, Verdict::Retry { .. }), "in debt");
        }
        assert_eq!(a.buckets[&1].pending, 2);
        let t1 = secs(0.04);
        let first = a.attempt(1, 40_000, t1, Stage::Due, false);
        let Verdict::Admit { waited, .. } = first else {
            panic!("the debt cleared: {first:?}")
        };
        assert_eq!(
            waited,
            Some((Tier::Bulk, t1)),
            "it waited since the refusal"
        );
        assert!(a.buckets[&1].backlogged(), "the sibling is still pending");
        assert_eq!(
            a.buckets[&1].backlogged_since,
            Some(t1),
            "its wait starts here"
        );
        // Both buckets backlogged at equal weight: an epoch splits evenly.
        let before = a.buckets[&1].tokens;
        let credit = a.refill(t1 + secs(0.01), true);
        let share = (a.buckets[&1].tokens - before) / credit;
        assert!(
            (0.45..0.55).contains(&share),
            "shared bucket got {share:.2}"
        );
        // The sibling outlives the registration: the drain bucket
        // inherits its pending count and its retry settles it there.
        a.deregister(1);
        assert_eq!(a.drain.pending, 1);
        let last = a.attempt(1, 1, t1 + secs(0.01), Stage::Woken, false);
        assert!(
            matches!(last, Verdict::Admit { .. }),
            "the drain burst admits"
        );
        assert!(!a.drain.backlogged() && a.drain.backlogged_since.is_none());
        assert_eq!((a.pending, a.sleepers()), (1, 1), "conn 2's caller remains");
    }

    #[test]
    fn parked_bucket_keeps_receiving_refill_credit() {
        // A parked bucket is backlogged: while the connection sits in
        // its reactor, the refills a busy peer performs keep crediting
        // it, so it pays its debt at its half share, not never.
        let budget = 2e6;
        let mut sim = Sim::new(budget);
        let parked = sim.add(
            Tier::Bulk,
            Flow::new(1, vec![800 << 10, 1]).messages(1).parked(),
        );
        let grant = sim.alloc.buckets[&1].tokens;
        sim.add(Tier::Bulk, Flow::new(2, vec![16 << 10]));
        sim.run(secs(2.0));
        let done = sim.flows[parked]
            .done
            .expect("parked bucket starved")
            .as_secs_f64();
        let expect = ((800 << 10) as f64 - grant) / (budget / 2.0);
        assert!(
            (done - expect).abs() < 0.05 * expect,
            "parked debt paid after {done:.3}s, expected {expect:.3}s at half share"
        );
        assert_eq!(sim.alloc.parked(), 0);
    }

    #[test]
    fn control_preemption_pays_control_debt_first() {
        // 8 parked bulk buckets vs 1 parked control bucket. Without the
        // phase-0 reserve the control share of an epoch is 4/(8+4) = 33 %;
        // with it, 50 % + 50 % · 33 % ≈ 67 % — and each bulk bucket gets
        // ~1/24th.
        let mut a = Allocator::new(Some(1e6));
        for conn in 1..=8 {
            a.register(conn, Tier::Bulk);
        }
        a.register(99, Tier::Control);
        for (conn, bytes) in (1..=8).map(|c| (c, 400 << 10)).chain([(99, 700 << 10)]) {
            admit(&mut a, conn, bytes, ZERO);
            let verdict = a.attempt(conn, 1, ZERO, Stage::First, true);
            assert!(matches!(verdict, Verdict::Retry { .. }), "parks in debt");
        }
        assert_eq!(a.parked(), 9);
        let want = reference_refill(&a, 1e6 * 0.1);
        let before = a.snapshot();
        let credit = a.refill(secs(0.1), true);
        let gain = |conn: u64| {
            let i = before.iter().position(|s| s.conn == conn).unwrap();
            a.buckets[&conn].tokens - before[i].tokens
        };
        assert!(
            gain(99) > 8.0 * gain(1),
            "phase-0 preemption missing: control +{:.0} vs bulk +{:.0}",
            gain(99),
            gain(1)
        );
        assert!((gain(99) / credit - (0.5 + 0.5 * 4.0 / 12.0)).abs() < 1e-9);
        for (conn, give) in want.into_iter().filter(|w| w.0 != 0) {
            assert!((gain(conn) - give).abs() < 1e-6, "conn {conn}");
        }
    }

    #[test]
    fn utilization_never_exceeds_one_under_saturation() {
        // Three connections hammer a small budget flat out — including
        // a mid-run deregistration (debt forgiven into capacity) and a
        // mid-run budget retune (clock edge). The ratio must stay a true
        // fraction at every instant and end saturated.
        let mut sim = Sim::new(4e6);
        sim.add(Tier::Bulk, Flow::new(1, vec![48 << 10]));
        sim.add(Tier::Bulk, Flow::new(2, vec![48 << 10]));
        let bank = sim.alloc.joining_cap(1.0) as usize;
        let quitter = sim.add(
            Tier::Bulk,
            Flow::new(3, vec![bank + (100 << 10)]).messages(1),
        );
        let mut deregistered = false;
        for step in 1..=200u32 {
            sim.run(secs(0.002) * step);
            let u = sim.alloc.utilization().expect("budgeted");
            assert!(
                (0.0..=1.0 + 1e-9).contains(&u),
                "utilization {u} at step {step}"
            );
            if !deregistered && sim.flows[quitter].done.is_some() {
                assert!(sim.alloc.buckets[&3].tokens < 0.0, "it leaves in debt");
                sim.alloc.deregister(3);
                deregistered = true;
            }
            if step == 20 {
                sim.alloc.set_budget(Some(2e6), sim.now);
            }
        }
        assert!(deregistered);
        let u = sim.alloc.utilization().unwrap();
        assert!(u > 0.9, "saturating load used only {u} of the capacity");
    }

    // ---- The drivers, on real threads ----

    #[test]
    fn carryover_preserves_tier_weight_and_admitted_bytes() {
        let sched = FairScheduler::new(None);
        let t = sched.register_with(9, Tier::Paid);
        t.acquire_wire(4096);
        t.acquire_wire(1024);
        let co = sched
            .carryover_of(9)
            .expect("live registration has carryover");
        assert_eq!(co.tier, Tier::Paid);
        assert_eq!(co.admitted, 5120);
        drop(t);
        assert!(
            sched.carryover_of(9).is_none(),
            "deregistration must clear the bucket"
        );
        let restored = sched.restore(9, co);
        let snap = sched.snapshot();
        let row = snap.iter().find(|r| r.conn == 9).expect("restored row");
        assert_eq!(row.admitted, 5120, "lifetime counter must survive");
        assert_eq!(row.weight, Tier::Paid.weight());
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
        assert_eq!(sched.total_admitted(), 1000 << 20);
    }

    #[test]
    fn refill_and_admission_wakeups_cut_waiter_latency() {
        // A waiter's sleep is a prediction from the backlog it saw when
        // refused. When the heavy peer's debt clears, the notify fired
        // by its admission must wake the light waiter to re-evaluate —
        // without it the waiter sleeps out its original ~1 s hint.
        let sched = FairScheduler::new(Some(2e6));
        let heavy = sched.register_with(9, Tier::Control); // 400 KB burst
        let light = sched.register(1); // ~83 KB burst
        let h = thread::spawn(move || {
            heavy.acquire_wire(900_000); // ~500 KB of debt
            heavy.acquire_wire(1); // blocks ~0.28 s until the debt clears
            heavy
        });
        thread::sleep(Duration::from_millis(50));
        let l = thread::spawn(move || {
            light.acquire_wire(483_000); // ~400 KB of debt
            let start = Instant::now();
            // Hint: 400 KB at a 1/5 share of 2 MB/s is ~1 s. The heavy
            // peer clears out at ~0.23 s from here and its admission's
            // wake lets this one finish at ~0.4 s.
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
    fn deregistration_wakes_a_blocked_waiter() {
        // A thread blocked on a bucket that deregisters under it is woken
        // at once and re-resolves to the drain bucket, whose burst admits
        // it — instead of sleeping out a ~16-minute hint.
        let sched = FairScheduler::new(Some(1000.0));
        let t = Arc::new(sched.register(3));
        let t2 = Arc::clone(&t);
        let waiter = thread::spawn(move || {
            t2.acquire_wire(1 << 20); // admitted against the burst grant
            let start = Instant::now();
            t2.acquire_wire(1);
            start.elapsed()
        });
        thread::sleep(Duration::from_millis(100));
        sched.deregister(3);
        let blocked = waiter.join().unwrap();
        assert!(
            blocked < Duration::from_secs(2),
            "deregistration did not wake the waiter: {blocked:?}"
        );
        assert_eq!(sched.drain_snapshot().admitted, 1);
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
    fn snapshot_is_read_only_and_exposes_weights() {
        let sched = FairScheduler::new(Some(5e6));
        let a = sched.register_with(1, Tier::Paid);
        let b = sched.register(2);
        a.acquire_wire(100_000);
        b.acquire_wire(50_000);
        let snap1 = sched.snapshot();
        thread::sleep(Duration::from_millis(30));
        let snap2 = sched.snapshot();
        // A snapshot that refilled would make two polls disagree and let
        // metric scrapes mutate pacing state.
        assert_eq!(snap1, snap2, "a snapshot must not advance pacing state");
        assert_eq!(snap1[0].tier, Tier::Paid);
        assert_eq!(snap1[0].weight, Tier::Paid.weight());
        assert_eq!(snap1[0].admitted, 100_000);
        assert_eq!(snap1[1].tier, Tier::Bulk);
        assert_eq!(snap1[1].weight, 1.0);
    }

    #[test]
    fn try_acquire_admits_then_parks_with_a_sane_retry_hint() {
        let sched = FairScheduler::new(Some(1e6)); // 1 MB/s, 125 KB burst
        let t = sched.register(5);
        // The burst grant admits immediately without blocking.
        assert!(t.try_acquire_wire(64 << 10).is_ok());
        // Push the bucket into debt, then ask again: refused, with a
        // retry hint in the right ballpark (~140 KB at 1 MB/s).
        t.try_acquire_wire(200 << 10).expect("debt model admits");
        let retry = t.try_acquire_wire(1).expect_err("must refuse in debt");
        assert_eq!(sched.parked(), 1, "refusal must park the bucket");
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
        assert_eq!(sched.snapshot()[0].tier, Tier::Bulk);
        assert!(sched.set_tier(3, Tier::Control));
        let snap = sched.snapshot();
        assert_eq!(snap[0].tier, Tier::Control);
        assert_eq!(snap[0].weight, Tier::Control.weight());
        assert_eq!(sched.carryover_of(3).map(|c| c.tier), Some(Tier::Control));
        assert!(!sched.set_tier(99, Tier::Paid), "unknown conn refused");
        drop(t);
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
    fn default_throttle_try_acquire_admits() {
        // The trait-level default (used by NoThrottle configs and the
        // serve_stream blocking adapter) must always admit.
        assert!(adoc::NoThrottle.try_acquire_wire(100 << 20).is_ok());
    }

    #[test]
    fn cpu_throttle_chains_behind_pacing() {
        use std::sync::atomic::AtomicU64;
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
    }

    // ---- Properties, checked against the brute-force reference ----

    #[test]
    fn water_fill_matches_the_max_min_reference_and_conserves_work() {
        let mut rng = Rng(1);
        for case in 0..400 {
            // Up to six buckets (five connections and the drain bucket)
            // at random tiers — so weights vary — balances and backlog.
            let budget = 10f64.powf(5.0 + 3.0 * rng.unit());
            let mut a = Allocator::new(Some(budget));
            for conn in 1..=1 + rng.below(5) {
                a.register(conn, rng.tier());
            }
            let total = a.total_weight();
            for b in a.buckets.values_mut().chain([&mut a.drain]) {
                let cap = Allocator::cap_for(budget, b.weight(), total);
                b.tokens = cap * (2.5 * rng.unit() - 1.5);
                b.pending = rng.below(3) as usize;
            }
            let dt = secs(0.3 * rng.unit() * rng.unit());
            let want = reference_refill(&a, budget * dt.as_secs_f64());
            let before = a.clone();
            let credit = a.refill(dt, true);
            let eps = 1e-6 * (credit + 1.0);
            let mut to_backlog = 0.0;
            for (conn, give) in want {
                let (was, now) = match conn {
                    0 => (&before.drain, &a.drain),
                    c => (&before.buckets[&c], &a.buckets[&c]),
                };
                let got = now.tokens - was.tokens;
                assert!(
                    (got - give).abs() < eps,
                    "case {case} conn {conn}: {got} vs {give}"
                );
                if was.backlogged() {
                    to_backlog += got;
                }
            }
            // Work conservation: credit reaches idle banks (or
            // evaporates) only once every backlogged bucket is full.
            if to_backlog < credit - eps {
                let total = a.total_weight();
                for b in a.all().filter(|b| b.backlogged()) {
                    let cap = Allocator::cap_for(budget, b.weight(), total);
                    assert!(
                        b.tokens >= cap - eps,
                        "case {case}: credit left a backlog unfilled"
                    );
                }
            }
        }
    }

    /// A refused admission still outstanding in a random schedule.
    struct Caller {
        conn: u64,
        bytes: usize,
        parks: bool,
    }

    /// The capacity a schedule granted, kept by the test from what it
    /// did: burst grants, debt forgiven, balances banked when a budget
    /// arrived, and the budget's integral over time.
    struct Ledger {
        granted: f64,
        integral: f64,
        since: Duration,
        paced: u64,
    }

    impl Ledger {
        /// Closes the budget integral at `now` (call before it changes).
        fn integrate(&mut self, budget: Option<f64>, now: Duration) {
            self.integral += budget.unwrap_or(0.0) * (now - self.since).as_secs_f64();
            self.since = now;
        }
    }

    /// Runs `ops` random operations — arrive, park, retry, deregister,
    /// restore, re-tier, budget changes, rests — against
    /// one allocator, asserting after each that the books agree with a
    /// model of who is waiting where.
    fn random_schedule(seed: u64, ops: usize) {
        let mut rng = Rng(seed);
        let pick_budget =
            |rng: &mut Rng| (rng.below(8) != 0).then(|| 10f64.powf(5.0 + 3.0 * rng.unit()));
        let initial = pick_budget(&mut rng);
        let mut a = Allocator::new(initial);
        let mut ledger = Ledger {
            granted: initial.map_or(0.0, |_| MIN_BURST),
            integral: 0.0,
            since: ZERO,
            paced: 0,
        };
        let mut now = ZERO;
        // Live connections and whether the reactor serves them (parks)
        // or threads do (block); dead ids stay reachable as the drain.
        let mut live: Vec<(u64, bool)> = Vec::new();
        let mut dead: Vec<u64> = Vec::new();
        let mut callers: Vec<Caller> = Vec::new();
        let mut next_conn = 1;
        let bytes = |rng: &mut Rng| 1 + rng.below(256 << 10) as usize;
        for op in 0..ops {
            let ctx = format!("seed {seed} op {op}");
            match rng.below(14) {
                0 | 1 => now += secs(0.04 * rng.unit() * rng.unit()),
                2 if live.len() < 5 => {
                    let conn = next_conn;
                    next_conn += 1;
                    a.register(conn, rng.tier());
                    if a.budget.is_some() {
                        ledger.granted += a.buckets[&conn].tokens;
                    }
                    live.push((conn, rng.below(2) == 0));
                }
                3..=5 => {
                    // A first attempt: a live connection (a reactor one
                    // only when not already parked), or a pipeline
                    // flushing after its connection deregistered.
                    let (conn, parks) = match (live.len(), dead.len()) {
                        (0, 0) => continue,
                        (0, _) => (dead[rng.below(dead.len() as u64) as usize], false),
                        _ if !dead.is_empty() && rng.below(6) == 0 => {
                            (dead[rng.below(dead.len() as u64) as usize], false)
                        }
                        (n, _) => live[rng.below(n as u64) as usize],
                    };
                    if parks && callers.iter().any(|c| c.conn == conn) {
                        continue;
                    }
                    let bytes = bytes(&mut rng);
                    let verdict = a.attempt(conn, bytes, now, Stage::First, parks);
                    match verdict {
                        Verdict::Admit { waited, .. } => {
                            assert_eq!(waited, None, "{ctx}: a first attempt waited");
                            ledger.paced += bytes as u64 * u64::from(a.budget.is_some());
                        }
                        Verdict::Retry { .. } => callers.push(Caller { conn, bytes, parks }),
                    }
                    check_verdict(&verdict, &ctx);
                }
                6..=8 if !callers.is_empty() => {
                    let i = rng.below(callers.len() as u64) as usize;
                    let c = &callers[i];
                    let stage = match c.parks || rng.below(2) == 0 {
                        true => Stage::Due,
                        false => Stage::Woken,
                    };
                    let verdict = a.attempt(c.conn, c.bytes, now, stage, c.parks);
                    if let Verdict::Admit { waited, .. } = verdict {
                        assert!(waited.is_some(), "{ctx}: a retry ended no wait");
                        ledger.paced += c.bytes as u64 * u64::from(a.budget.is_some());
                        callers.swap_remove(i);
                    }
                    check_verdict(&verdict, &ctx);
                }
                9 if !live.is_empty() => {
                    let (conn, _) = live.swap_remove(rng.below(live.len() as u64) as usize);
                    ledger.granted += (-a.buckets[&conn].tokens).max(0.0);
                    a.deregister(conn);
                    // A parked admission dies with its connection; a
                    // blocked thread carries on against the drain bucket.
                    callers.retain(|c| !(c.conn == conn && c.parks));
                    dead.push(conn);
                }
                10 => {
                    let budget = pick_budget(&mut rng);
                    ledger.integrate(a.budget, now);
                    let was_unlimited = a.budget.is_none();
                    a.set_budget(budget, now);
                    if was_unlimited && budget.is_some() {
                        ledger.granted += a.all().map(|b| b.tokens.max(0.0)).sum::<f64>();
                    }
                }
                11 if !live.is_empty() => {
                    let conn = live[rng.below(live.len() as u64) as usize].0;
                    assert!(a.set_tier(conn, rng.tier()));
                }
                12 => {
                    // Carryover round trip on a connection nobody waits on.
                    let idle: Vec<u64> = live
                        .iter()
                        .map(|l| l.0)
                        .filter(|&c| callers.iter().all(|k| k.conn != c))
                        .collect();
                    let Some(&conn) = idle.get(rng.below(idle.len().max(1) as u64) as usize) else {
                        continue;
                    };
                    let co = a.carryover_of(conn).expect("live");
                    ledger.granted += (-co.tokens).max(0.0);
                    a.deregister(conn);
                    let cap = a.joining_cap(co.tier.weight());
                    a.restore(conn, co);
                    let back = a.carryover_of(conn).expect("restored");
                    assert_eq!(back.tier, co.tier, "{ctx}");
                    assert_eq!(back.admitted, co.admitted, "{ctx}");
                    assert_eq!(back.tokens, co.tokens.min(cap), "{ctx}");
                }
                13 => {
                    // At rest: with the epoch brought up to now, the
                    // books hold exactly the capacity the ledger granted.
                    a.refill(now, true);
                    ledger.integrate(a.budget, now);
                    let capacity = ledger.granted + ledger.integral;
                    let tol = 1e-9 * capacity.max(1.0);
                    assert!(
                        (a.capacity - capacity).abs() < tol,
                        "{ctx}: capacity {} vs {capacity}",
                        a.capacity
                    );
                    assert_eq!(a.paced, ledger.paced, "{ctx}");
                    if let Some(u) = a.utilization() {
                        let debt: f64 = a.all().map(|b| (-b.tokens).max(0.0)).sum();
                        let want = if capacity > 0.0 {
                            (ledger.paced as f64 - debt) / capacity
                        } else {
                            0.0
                        };
                        assert!((u - want).abs() < 1e-9, "{ctx}: utilization {u} vs {want}");
                    }
                }
                _ => {}
            }
            // Who waits where: every live bucket is backlogged exactly
            // while an admission on it is pending, parked exactly while
            // its reactor admission is, and the drain bucket carries the
            // flushing pipelines.
            for &(conn, _) in &live {
                let b = &a.buckets[&conn];
                let mine = callers.iter().filter(|c| c.conn == conn);
                assert_eq!(
                    b.pending,
                    mine.clone().count(),
                    "{ctx}: conn {conn} pending"
                );
                assert_eq!(b.backlogged(), b.pending > 0);
                assert_eq!(
                    b.parked,
                    mine.clone().any(|c| c.parks),
                    "{ctx}: conn {conn} parked"
                );
                assert_eq!(b.backlogged_since.is_some(), b.backlogged(), "{ctx}");
            }
            let orphans = callers.iter().filter(|c| dead.contains(&c.conn)).count();
            assert_eq!(a.drain.pending, orphans, "{ctx}: drain pending");
            assert_eq!(
                a.parked(),
                callers.iter().filter(|c| c.parks).count(),
                "{ctx}"
            );
            assert_eq!(
                a.sleepers(),
                callers.iter().filter(|c| !c.parks).count(),
                "{ctx}"
            );
            if let Some(u) = a.utilization() {
                assert!((-1e-9..=1.0 + 1e-9).contains(&u), "{ctx}: utilization {u}");
            }
        }
    }

    /// What every verdict owes its driver: a refusal wakes nobody and
    /// hints a sane, finite wait.
    fn check_verdict(verdict: &Verdict, ctx: &str) {
        if let Verdict::Retry { after, .. } = *verdict {
            assert!(!verdict.wakes(), "{ctx}: a refused attempt returned a wake");
            assert!(
                after >= secs(MIN_RETRY_SECS) && after <= secs(MAX_RETRY_SECS),
                "{ctx}: hint {after:?}"
            );
        }
    }

    #[test]
    fn random_schedules_keep_the_books() {
        for seed in 0..48 {
            random_schedule(seed, 400);
        }
    }

    #[test]
    fn long_run_shares_match_the_max_min_reference_and_nobody_starves() {
        for seed in 0..16 {
            let mut rng = Rng(100 + seed);
            let budget = 10f64.powf(6.6 + rng.unit());
            let mut sim = Sim::new(budget);
            // Two to five flows: saturating closed-loop ones (at least
            // one, so the budget is always wanted) and open-loop ones
            // whose demand may sit below or above their share. Open-loop
            // flows are never control tier: an intermittent control flow
            // draws partly on the reserve and partly on the weighted
            // split, so its peers' shares depend on how often it is
            // backlogged and have no max-min closed form (its latency is
            // what the control-delay property bounds).
            let n = 2 + rng.below(4);
            let mut demand = Vec::new();
            for conn in 1..=n {
                let tier = rng.tier();
                let chunk = (16 << 10) << rng.below(4);
                let flow = Flow::new(conn, vec![chunk]);
                let flow = if conn == 1 || tier == Tier::Control || rng.below(2) == 0 {
                    demand.push((tier, f64::INFINITY));
                    flow
                } else {
                    let rate = budget * (0.02 + 0.5 * rng.unit());
                    demand.push((tier, rate));
                    flow.every(secs(chunk as f64 / rate))
                };
                let flow = if rng.below(2) == 0 {
                    flow.parked()
                } else {
                    flow
                };
                sim.add(tier, flow);
            }
            let window = 4.0;
            sim.run(secs(1.0));
            let before: Vec<u64> = sim.flows.iter().map(|f| f.admitted).collect();
            sim.run(secs(1.0 + window));
            let want = reference_rates(budget, &demand);
            let mut total = 0.0;
            let any_control = demand.iter().any(|d| d.0 == Tier::Control);
            let weights: f64 = demand.iter().map(|d| d.0.weight()).sum();
            let control_weights: f64 = demand
                .iter()
                .filter(|d| d.0 == Tier::Control)
                .map(|d| d.0.weight())
                .sum();
            for (i, f) in sim.flows.iter().enumerate() {
                let rate = (f.admitted - before[i]) as f64 / window;
                total += rate;
                let chunk = f.msg[0] as f64;
                let tol = 0.02 * budget + 3.0 * chunk / window;
                assert!(
                    (rate - want[i]).abs() < tol,
                    "seed {seed} flow {i}: {rate:.0} B/s vs reference {:.0} ({demand:?})",
                    want[i]
                );
                // No starvation: a refused admission's debt (at most its
                // own size) is paid at no less than its guaranteed share.
                let tier = demand[i].0;
                let mut floor = budget * tier.weight() / weights;
                if any_control {
                    floor *= 1.0 - CONTROL_PREEMPT_FRACTION;
                }
                if tier == Tier::Control {
                    floor = floor
                        .max(budget * CONTROL_PREEMPT_FRACTION * tier.weight() / control_weights);
                }
                let bound = secs(1.02 * chunk / floor + 0.001);
                let worst = f.waits.iter().max().copied().unwrap_or(ZERO);
                assert!(
                    worst <= bound,
                    "seed {seed} flow {i} waited {worst:?} > {bound:?}"
                );
            }
            // Work conservation: the budget is used in full.
            assert!(
                total > 0.98 * budget,
                "seed {seed}: ran {total:.0} of {budget:.0} B/s"
            );
        }
    }

    #[test]
    fn retry_hints_saturate_over_any_accepted_budget() {
        // A budget the control surface accepts — 1e-300 Mbit/s is
        // 1.25e-295 B/s — once panicked `Duration::from_secs_f64` in
        // the retry hint on the reactor thread.
        let mut rng = Rng(7);
        let extremes = [f64::MIN_POSITIVE, 5e-324, f64::MAX, 1.25e-295];
        for i in 0..300 {
            let budget = match extremes.get(i) {
                Some(&b) => b,
                None => 10f64.powf(-300.0 + 600.0 * rng.unit()),
            };
            let mut a = Allocator::new(Some(budget));
            a.register(1, rng.tier());
            let (mut now, mut stage) = (ZERO, Stage::First);
            for _ in 0..4 {
                let verdict = a.attempt(1, 1 << 20, now, stage, true);
                check_verdict(&verdict, &format!("budget {budget:e}"));
                if let Verdict::Retry { after, .. } = verdict {
                    (now, stage) = (now + after, Stage::Due);
                }
            }
            let u = a.utilization().expect("budgeted");
            assert!(
                !u.is_nan() && u <= 1.0 + 1e-9,
                "budget {budget:e}: utilization {u}"
            );
        }
    }

    /// Waits of a control-tier connection's admissions (4 KiB in, 4 KiB
    /// out, 100 requests/s open loop) beside one to five saturating
    /// bulk or paid connections of random message sizes.
    fn control_waits(seed: u64) -> Vec<Duration> {
        let mut rng = Rng(seed);
        let mut sim = Sim::new(8e6);
        for conn in 1..=1 + rng.below(5) {
            let tier = [Tier::Bulk, Tier::Paid][rng.below(2) as usize];
            let chunk = (16 << 10) << rng.below(7);
            sim.add(tier, Flow::new(conn, vec![chunk]).parked());
        }
        let control = sim.add(
            Tier::Control,
            Flow::new(99, vec![4096, 4096]).every(secs(0.01)).parked(),
        );
        sim.run(secs(4.0));
        std::mem::take(&mut sim.flows[control].waits)
    }

    #[test]
    fn control_admission_delay_is_bounded_by_the_reserve() {
        // The reserve pays a control debt (at most 4 KiB) at half the
        // budget whatever the bulk load: ~1 ms at 8 MB/s.
        // (`--nocapture` prints the distribution.)
        let bound = secs(1.02 * 4097.0 / (8e6 * CONTROL_PREEMPT_FRACTION) + 0.001);
        let mut all = Vec::new();
        for seed in 0..10 {
            all.extend(control_waits(seed));
        }
        let (p99, max) = (quantile(&all, 0.99), quantile(&all, 1.0));
        eprintln!(
            "control admission wait: p99 {p99:?}, max {max:?} over {} admissions",
            all.len()
        );
        assert!(
            max <= bound,
            "a control admission waited {max:?} > {bound:?}"
        );
    }

    #[test]
    fn table2_control_p99_undercuts_bulk_p50_at_full_utilization() {
        // daemon_capped_tiers' arrival pattern through the allocator: a
        // 64 Mbit/s budget; a control-tier connection at 100 requests/s
        // open loop, each a 4 KiB read and a 4 KiB reply; a bulk
        // connection echoing 1 MiB at level 0 closed loop, both
        // directions admitted in the reactor's 200 KiB quanta; both
        // parked in the reactor when refused.
        let quanta = |len: usize| -> Vec<usize> {
            (0..len)
                .step_by(200 << 10)
                .map(|at| (len - at).min(200 << 10))
                .collect()
        };
        let mut sim = Sim::new(64e6 / 8.0);
        let echo = [quanta(1 << 20), quanta(1 << 20)].concat();
        let bulk = sim.add(Tier::Bulk, Flow::new(1, echo).parked());
        let control = sim.add(
            Tier::Control,
            Flow::new(2, vec![4096, 4096]).every(secs(0.01)).parked(),
        );
        sim.run(secs(10.0));
        let control_p99 = quantile(&sim.flows[control].waits, 0.99);
        let bulk_p50 = quantile(&sim.flows[bulk].message_waits(), 0.5);
        assert!(
            control_p99 <= bulk_p50,
            "control p99 {control_p99:?} > bulk per-message p50 {bulk_p50:?}"
        );
        let u = sim.alloc.utilization().expect("budgeted");
        assert!((0.90..=1.0).contains(&u), "utilization {u}");
    }
}
