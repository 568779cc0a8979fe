//! The scheduler's drivers: the [`Allocator`] behind one mutex, a
//! condvar loop for blocking admissions, a one-shot attempt the reactor
//! parks on for nonblocking ones, and — always after the lock is
//! released — the wakeups and events the allocator's verdicts call for.

use super::{Allocator, BucketSnapshot, SchedCarryover, Stage, Tier, Verdict};
use crate::event::{Event, EventBus};
use adoc::Throttle;
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Inner {
    /// Time zero of the allocator's clock.
    origin: Instant,
    alloc: Mutex<Allocator>,
    /// Signalled when an admission's refill handed out credit, on
    /// deregistration (shares grew), and on re-tier and budget changes.
    refilled: Condvar,
    /// Lock-free mirrors of the allocator's budget (f64 bits, NaN =
    /// unlimited) and parked count, stored under its lock, so an
    /// unlimited scheduler's admissions and the waker's fast check
    /// never take it. An `acquire_wire` that read the budget just
    /// before a `set_budget` may still finish on its old path — the
    /// retune takes effect from the next admission on.
    budget_bits: AtomicU64,
    parked: AtomicUsize,
    /// Bytes the lock-free unlimited path admitted, per live connection
    /// and in total — the counts the allocator never sees because that
    /// path never takes its lock.
    unpaced: Mutex<HashMap<u64, Arc<AtomicU64>>>,
    unpaced_total: AtomicU64,
    /// Where [`Event::SchedWait`] / [`Event::RefillEpoch`] /
    /// [`Event::BudgetChanged`] go.
    bus: Arc<EventBus>,
    /// Out-of-band wakeup for parked (reactor-driven) admissions.
    waker: Mutex<Option<Arc<dyn Fn() + Send + Sync>>>,
}

/// Shared work-conserving scheduler: cheap to clone, one per server.
#[derive(Clone)]
pub struct FairScheduler {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for FairScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FairScheduler")
            .field("budget", &self.budget())
            .field("parked", &self.parked())
            .finish_non_exhaustive()
    }
}

fn budget_bits(budget: Option<f64>) -> u64 {
    // A real budget is asserted positive and finite, so NaN is free to
    // encode "unlimited".
    budget.unwrap_or(f64::NAN).to_bits()
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
        FairScheduler {
            inner: Arc::new(Inner {
                origin: Instant::now(),
                alloc: Mutex::new(Allocator::new(budget_bytes_per_sec)),
                refilled: Condvar::new(),
                budget_bits: AtomicU64::new(budget_bits(budget_bytes_per_sec)),
                parked: AtomicUsize::new(0),
                unpaced: Mutex::default(),
                unpaced_total: AtomicU64::new(0),
                bus,
                waker: Mutex::new(None),
            }),
        }
    }

    /// The allocator's clock: time since this scheduler was created.
    fn now(&self) -> Duration {
        self.inner.origin.elapsed()
    }

    fn lock(&self) -> MutexGuard<'_, Allocator> {
        self.inner.alloc.lock()
    }

    /// Lifetime wire bytes admitted across all connections (including
    /// ones that have since deregistered, drain-bucket traffic, and the
    /// unlimited fast path).
    pub fn total_admitted(&self) -> u64 {
        self.lock().admitted() + self.inner.unpaced_total.load(Ordering::Relaxed)
    }

    /// Fraction of the granted admission capacity actually consumed:
    /// `(paced admissions − outstanding debt) / capacity`, where
    /// capacity is every burst grant plus the integral of the budget
    /// over refill epochs. `None` when the budget is unlimited (there
    /// is nothing to utilize); `Some(0.0)` on a fresh scheduler. Exact,
    /// read under the allocator's lock; clamped to `[0, 1]` only
    /// against floating-point rounding.
    pub fn utilization(&self) -> Option<f64> {
        self.lock().utilization().map(|u| u.clamp(0.0, 1.0))
    }

    /// Aggregate budget in bytes/second, if limited. Reads the
    /// lock-free mirror — safe for metrics paths to call under load.
    pub fn budget(&self) -> Option<f64> {
        let b = f64::from_bits(self.inner.budget_bits.load(Ordering::Acquire));
        (!b.is_nan()).then_some(b)
    }

    /// Replaces the aggregate budget at runtime (debt is preserved; see
    /// the module docs). All waiters are woken to re-evaluate at the
    /// new rate. Panics unless the budget is positive and finite.
    pub fn set_budget(&self, budget_bytes_per_sec: Option<f64>) {
        let mut a = self.lock();
        a.set_budget(budget_bytes_per_sec, self.now());
        let bits = budget_bits(budget_bytes_per_sec);
        self.inner.budget_bits.store(bits, Ordering::Release);
        drop(a);
        self.wake_all();
        self.inner.bus.emit(Event::BudgetChanged {
            bytes_per_sec: budget_bytes_per_sec,
        });
    }

    /// Registers connection `conn` at the default tier and returns the
    /// [`Throttle`] handle that paces it. Dropping the handle
    /// deregisters the connection (its unused share flows to backlogged
    /// peers on the next refill).
    pub fn register(&self, conn: u64) -> ConnThrottle {
        self.register_with(conn, Tier::Bulk)
    }

    /// Registers connection `conn` at an explicit [`Tier`].
    pub fn register_with(&self, conn: u64, tier: Tier) -> ConnThrottle {
        self.lock().register(conn, tier);
        self.handle(conn)
    }

    /// Re-registers a resumed connection from a [`SchedCarryover`]
    /// instead of a fresh burst grant: the tier, token balance
    /// (including any debt the connection detached with) and lifetime
    /// admitted counter all survive. The restored balance is clamped to
    /// the burst cap a new registration would get, so a long park can
    /// never bank an outsized burst.
    pub fn restore(&self, conn: u64, co: SchedCarryover) -> ConnThrottle {
        self.lock().restore(conn, co);
        self.handle(conn)
    }

    fn handle(&self, conn: u64) -> ConnThrottle {
        let unpaced = Arc::new(AtomicU64::new(0));
        self.inner.unpaced.lock().insert(conn, Arc::clone(&unpaced));
        ConnThrottle {
            sched: self.clone(),
            conn,
            unpaced,
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
        let mut co = self.lock().carryover_of(conn)?;
        let unpaced = self.inner.unpaced.lock();
        co.admitted += unpaced.get(&conn).map_or(0, |c| c.load(Ordering::Relaxed));
        Some(co)
    }

    /// Active (registered) connection count.
    pub fn active(&self) -> usize {
        self.lock().active()
    }

    /// Moves a registered connection to a different [`Tier`] at runtime
    /// (the loadgen's `--tier` flag and the control surface use this).
    /// The weight change takes effect from the next refill; waiters and
    /// parked admissions are woken to re-evaluate their shares. Returns
    /// false when `conn` is not registered.
    pub fn set_tier(&self, conn: u64, tier: Tier) -> bool {
        let known = self.lock().set_tier(conn, tier);
        if known {
            self.wake_all();
        }
        known
    }

    /// Snapshots every live bucket, sorted by connection id. Read-only:
    /// copies the books under the allocator's lock and advances
    /// nothing.
    pub fn snapshot(&self) -> Vec<BucketSnapshot> {
        let mut rows = self.lock().snapshot();
        let unpaced = self.inner.unpaced.lock();
        for row in &mut rows {
            row.admitted += unpaced
                .get(&row.conn)
                .map_or(0, |c| c.load(Ordering::Relaxed));
        }
        rows
    }

    /// Snapshot of the shared drain bucket (traffic admitted for
    /// already-deregistered connections).
    pub fn drain_snapshot(&self) -> BucketSnapshot {
        self.lock().drain_snapshot()
    }

    /// Blocking admission for `conn`: attempts until admitted, sleeping
    /// each retry hint out on the condvar, which any admission that
    /// refilled the backlog, a deregistration, a re-tier or a budget
    /// change signals. A bucket deregistered meanwhile re-resolves to
    /// the drain bucket, which inherited the caller's pending count.
    fn acquire_paced(&self, conn: u64, bytes: usize) {
        let mut a = self.lock();
        let mut stage = Stage::First;
        // One RefillEpoch per blocking episode, reported with the
        // SchedWait once the lock is dropped.
        let mut credit = 0.0;
        loop {
            let verdict = a.attempt(conn, bytes, self.now(), stage, false);
            credit += verdict.credit();
            let Verdict::Retry { after, .. } = verdict else {
                return self.settle(a, conn, verdict, credit);
            };
            let woke = self.inner.refilled.wait_for(&mut a, after);
            stage = if woke.timed_out() {
                Stage::Due
            } else {
                Stage::Woken
            };
        }
    }

    /// Nonblocking admission for `conn`: one attempt. A refusal parks
    /// the bucket — backlogged while the connection sits in its
    /// reactor, woken through the parked-waker by anything that could
    /// admit it before the returned retry hint. The eventual admission
    /// emits one [`Event::SchedWait`] covering the whole parked episode.
    fn try_acquire_paced(&self, conn: u64, bytes: usize) -> Result<(), Duration> {
        let mut a = self.lock();
        // A parked connection retries because its hint ran out or the
        // waker fired; either is the event it sat parked for.
        let stage = if a.is_parked(conn) {
            Stage::Due
        } else {
            Stage::First
        };
        let verdict = a.attempt(conn, bytes, self.now(), stage, true);
        self.settle(a, conn, verdict, verdict.credit());
        match verdict {
            Verdict::Admit { .. } => Ok(()),
            Verdict::Retry { after, .. } => Err(after),
        }
    }

    /// Ends an attempt: mirrors the parked gauge, releases the lock,
    /// then wakes whoever the verdict says may now be admissible and
    /// reports the episode (`credit` is its whole refill).
    fn settle(&self, a: MutexGuard<'_, Allocator>, conn: u64, verdict: Verdict, credit: f64) {
        self.inner.parked.store(a.parked(), Ordering::Relaxed);
        let sleepers = a.sleepers() > 0;
        drop(a);
        if verdict.wakes() {
            if sleepers {
                self.inner.refilled.notify_all();
            }
            self.wake_parked();
        }
        if !self.inner.bus.is_active() {
            return;
        }
        if credit > 0.0 {
            self.inner.bus.emit(Event::RefillEpoch { credit });
        }
        if let Verdict::Admit {
            waited: Some((tier, waited)),
            ..
        } = verdict
        {
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
        self.inner.parked.load(Ordering::Relaxed)
    }

    /// Invokes the parked-waker if any admission is parked. Must be
    /// called with the allocator's lock released.
    fn wake_parked(&self) {
        if self.parked() == 0 {
            return;
        }
        let waker = self.inner.waker.lock().clone();
        if let Some(wake) = waker {
            wake();
        }
    }

    /// Shares changed for everyone: let sleepers and parked admissions
    /// re-evaluate.
    fn wake_all(&self) {
        self.inner.refilled.notify_all();
        self.wake_parked();
    }

    pub(super) fn deregister(&self, conn: u64) {
        let mut a = self.lock();
        a.deregister(conn);
        self.inner.parked.store(a.parked(), Ordering::Relaxed);
        drop(a);
        self.inner.unpaced.lock().remove(&conn);
        self.wake_all();
    }
}

/// The per-connection [`Throttle`] a [`FairScheduler`] hands out:
/// `acquire_wire` blocks until the connection's token bucket admits the
/// bytes; `charge` forwards to an optional inner CPU-model throttle.
pub struct ConnThrottle {
    sched: FairScheduler,
    conn: u64,
    /// This connection's bytes on the unlimited path (the scheduler
    /// reads the same counter for snapshots).
    unpaced: Arc<AtomicU64>,
    cpu: Option<Arc<dyn Throttle>>,
}

impl std::fmt::Debug for ConnThrottle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConnThrottle")
            .field("conn", &self.conn)
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

    /// Unlimited budget: count the bytes without touching the
    /// allocator's lock at all.
    fn count_unpaced(&self, bytes: usize) {
        self.unpaced.fetch_add(bytes as u64, Ordering::Relaxed);
        let total = &self.sched.inner.unpaced_total;
        total.fetch_add(bytes as u64, Ordering::Relaxed);
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
            self.count_unpaced(bytes);
        }
        if let Some(cpu) = &self.cpu {
            cpu.acquire_wire(bytes);
        }
    }

    fn try_acquire_wire(&self, bytes: usize) -> Result<(), Duration> {
        // The parked check keeps a connection that parked under a
        // since-lifted budget from leaking its parked mark: the retry
        // after set_budget(None) must go through the allocator once to
        // clear it. With nothing parked, unlimited stays lock-free.
        if self.sched.budget().is_some() || self.sched.parked() > 0 {
            self.sched.try_acquire_paced(self.conn, bytes)
        } else {
            self.count_unpaced(bytes);
            Ok(())
        }
        // The chained CPU throttle is deliberately not consulted here:
        // it models codec wall-time on the *blocking* path, and a
        // refusal after the bucket charge would double-charge the bytes
        // on retry.
    }
}

impl Drop for ConnThrottle {
    fn drop(&mut self) {
        self.sched.deregister(self.conn);
    }
}
