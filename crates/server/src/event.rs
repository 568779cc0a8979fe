//! The structured event subsystem: a typed vocabulary of everything the
//! daemon does, producers that emit it from the registry, scheduler,
//! serve loop, and TCP front end, and [`Subscriber`]s that consume it
//! without ever touching a connection's hot path.
//!
//! ## Design (s2n-events style)
//!
//! Producers call [`EventBus::emit`] with a borrowed [`Event`] — an enum
//! of small `Copy` payloads (the only non-`Copy` field is a borrowed
//! `&str` peer label on the accept path), so **emitting allocates
//! nothing**. The bus stamps the event with a sequence number and a
//! timestamp from its monotonic [`EventClock`], then makes exactly one
//! virtual call per attached subscriber ([`Subscriber::on_event`], the
//! trait's only method). With no subscribers attached, `emit` is a
//! branch on an empty slice; a subscriber that cares about one event
//! kind matches on it and ignores the rest.
//!
//! ## Fault isolation
//!
//! A subscriber is *user code running inside serving threads*. A panic
//! in one must not take a connection (or the daemon) down, so the bus
//! catches the unwind, marks the subscriber **poisoned**, and never
//! dispatches to it again — the serve loop keeps running, minus one
//! observer. [`EventBus::poisoned`] reports how many were detached.
//!
//! ## Ordering
//!
//! Sequence numbers are globally unique and assigned at emission.
//! Events produced by one thread (one connection's lifecycle) are
//! dispatched in order; events from different threads may reach a
//! subscriber interleaved, but their sequence numbers still order them
//! totally.
//!
//! ## Built-in subscribers
//!
//! * [`MetricsSubscriber`] — lock-free counters aggregated into the
//!   `events` section of the v2 metrics document;
//! * [`EventLog`] — a bounded ring buffer of rendered JSON event lines,
//!   drainable via [`EventLog::json_lines_since`] (the HTTP listener's
//!   `GET /events?since=seq`).

use crate::registry::{ConnId, ConnOutcome};
use crate::sched::Tier;
use crate::trace::StageTimes;
use adoc::LevelReason;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The single monotonic clock every timestamp in the daemon derives
/// from: event times, `uptime_secs`, and per-connection ages all read
/// this one origin, so one metrics document can never contain two
/// timelines that disagree about "now".
#[derive(Debug, Clone)]
pub struct EventClock {
    origin: Instant,
}

impl Default for EventClock {
    fn default() -> Self {
        EventClock::new()
    }
}

impl EventClock {
    /// A clock whose origin is now.
    pub fn new() -> EventClock {
        EventClock {
            origin: Instant::now(),
        }
    }

    /// Monotonic time since the clock's origin.
    pub fn now(&self) -> Duration {
        self.origin.elapsed()
    }
}

/// Everything the daemon reports about itself, as typed values. Borrowed
/// string fields keep emission allocation-free; subscribers that need to
/// retain them copy on their own side.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum Event<'a> {
    /// A connection registered (TCP socket accepted and sniffed, or a
    /// harness stream attached) and is handshaking.
    ConnAccepted {
        /// Registry id.
        conn: ConnId,
        /// Peer address or transport label.
        peer: &'a str,
    },
    /// Handshake complete: the connection entered service with its
    /// negotiated stream count.
    ConnAdmitted {
        /// Registry id.
        conn: ConnId,
        /// Streams in the connection's group (1 = plain v1).
        streams: usize,
    },
    /// A connection left the registry.
    ConnClosed {
        /// Registry id.
        conn: ConnId,
        /// How it ended.
        outcome: ConnOutcome,
        /// Messages it served over its lifetime.
        messages: u64,
    },
    /// A socket failed its handshake (bad magic, hello timeout, expired
    /// partial group…).
    HandshakeFailed {
        /// Registry id, if the socket got far enough to register.
        conn: Option<ConnId>,
    },
    /// A serving connection died from an internal fault rather than
    /// peer behaviour — e.g. a codec worker job panicked or failed.
    ConnError {
        /// Registry id, if the connection had registered.
        conn: Option<ConnId>,
        /// Human-readable cause.
        error: &'a str,
    },
    /// The serve loop finished one message (received + replied).
    MessageServed {
        /// Registry id.
        conn: ConnId,
        /// Raw payload bytes of the received message.
        raw_bytes: u64,
        /// Wire bytes of the server's reply.
        reply_wire_bytes: u64,
        /// Where the message's wall-clock time went (all zeros when the
        /// serving path does not trace stages).
        times: StageTimes,
    },
    /// A message's end-to-end latency exceeded the configured
    /// slow-request threshold; carries the full stage span so the
    /// offending stage is visible in the event itself.
    SlowRequest {
        /// Registry id.
        conn: ConnId,
        /// Raw payload bytes of the received message.
        raw_bytes: u64,
        /// The stage breakdown that blew the threshold.
        times: StageTimes,
    },
    /// A scheduler admission had to block and has now been admitted;
    /// `waited` is the episode's total blocked time.
    SchedWait {
        /// Connection the admission belongs to (0 = the drain bucket).
        conn: ConnId,
        /// The connection's priority tier.
        tier: Tier,
        /// How long the admission was blocked.
        waited: Duration,
    },
    /// The scheduler distributed refill credit. Epochs observed within
    /// one blocking admission are coalesced into a single event
    /// (emitted after the pacing lock is released), so the hot path
    /// never dispatches under the lock.
    RefillEpoch {
        /// Bytes of credit distributed.
        credit: f64,
    },
    /// The adaptive controller moved a connection's compression level.
    LevelChange {
        /// Registry id.
        conn: ConnId,
        /// Previous observed level.
        from: u8,
        /// New observed level.
        to: u8,
        /// The controller verdict behind the move (queue pressure,
        /// divergence guard, delay gradient, incompressible guard).
        reason: LevelReason,
    },
    /// A graceful drain began.
    DrainStarted,
    /// The drain completed: every serving thread joined.
    DrainFinished,
    /// The shared buffer pool evicted idle buffers (cap pressure).
    PoolEvict {
        /// Buffers released to the allocator since the last event.
        evicted: u64,
    },
    /// The aggregate wire budget was retuned at runtime.
    BudgetChanged {
        /// New budget (`None` = unlimited).
        bytes_per_sec: Option<f64>,
    },
    /// The reactor completed one poll-dispatch cycle. Emitted only for
    /// ticks that dispatched at least one readiness event or completion
    /// (idle wakeups are not reported), so an idle daemon stays silent.
    ReactorTick {
        /// Sockets whose readiness was dispatched this tick.
        ready: usize,
        /// Connections currently parked on a throttle refusal.
        parked: usize,
    },
    /// A codec job was queued to the worker pool; `depth` is the queue
    /// length after enqueue — sustained growth means compression has
    /// become the bottleneck the paper says it must never be.
    WorkerQueueDepth {
        /// Jobs waiting (not yet picked up) after this enqueue.
        depth: usize,
    },
    /// A reconnecting client presented a valid ticket and took over its
    /// detached session — the registry entry, scheduler state, and any
    /// half-received message carried across the reconnect.
    SessionResumed {
        /// Registry id (the same id the session held before detaching).
        conn: ConnId,
        /// Session id from the presented ticket.
        session_id: u64,
        /// Stream count of the *new* group (may differ from the old).
        streams: usize,
        /// True when the resume picked up mid-message (a partial
        /// receive was carried over), false for a boundary resume.
        mid_message: bool,
    },
    /// A session hello or resume ticket failed verification and the
    /// socket was refused before registry admission.
    TicketRejected {
        /// Session id the client presented (None for a rejected
        /// new-session hello, which has no session yet).
        session_id: Option<u64>,
        /// Why it was refused (`"auth"`, `"expired"`, `"unknown"`,
        /// `"draining"`…).
        reason: &'a str,
    },
    /// A detached session outlived its resume window (or the daemon
    /// shut down) and was reclaimed: its registry entry is removed and
    /// its ticket will never be honoured again.
    SessionExpired {
        /// Registry id the session held.
        conn: ConnId,
        /// The expired session's id.
        session_id: u64,
    },
}

impl Event<'_> {
    /// Snake-case name of the event kind (the `"event"` field of a
    /// rendered JSON line).
    pub fn name(&self) -> &'static str {
        match self {
            Event::ConnAccepted { .. } => "conn_accepted",
            Event::ConnAdmitted { .. } => "conn_admitted",
            Event::ConnClosed { .. } => "conn_closed",
            Event::HandshakeFailed { .. } => "handshake_failed",
            Event::ConnError { .. } => "conn_error",
            Event::MessageServed { .. } => "message_served",
            Event::SlowRequest { .. } => "slow_request",
            Event::SchedWait { .. } => "sched_wait",
            Event::RefillEpoch { .. } => "refill_epoch",
            Event::LevelChange { .. } => "level_change",
            Event::DrainStarted => "drain_started",
            Event::DrainFinished => "drain_finished",
            Event::PoolEvict { .. } => "pool_evict",
            Event::BudgetChanged { .. } => "budget_changed",
            Event::ReactorTick { .. } => "reactor_tick",
            Event::WorkerQueueDepth { .. } => "worker_queue_depth",
            Event::SessionResumed { .. } => "session_resumed",
            Event::TicketRejected { .. } => "ticket_rejected",
            Event::SessionExpired { .. } => "session_expired",
        }
    }
}

/// Per-event envelope the bus stamps before dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventMeta {
    /// Globally unique, monotonically assigned sequence number
    /// (starts at 1).
    pub seq: u64,
    /// Time of emission on the daemon's shared [`EventClock`].
    pub t: Duration,
}

/// Consumer of daemon events: the bus makes one virtual call per event
/// and the subscriber `match`es on the kinds it cares about
/// ([`Event`] is `#[non_exhaustive]`, so end with a `_ => {}` arm).
pub trait Subscriber: Send + Sync {
    /// Observes one stamped event. Runs on the emitting (serving)
    /// thread: keep it short, and never block.
    fn on_event(&self, meta: &EventMeta, event: &Event<'_>);
}

struct SubscriberEntry {
    sub: Arc<dyn Subscriber>,
    /// Set once the subscriber panicked; it is never dispatched again.
    poisoned: AtomicBool,
}

/// The daemon's event fan-out point (see the module docs). Fixed at
/// server construction: subscribers attach through
/// [`crate::ServerConfigBuilder::subscriber`], so the emit path reads a
/// plain slice — no lock, no registration races.
pub struct EventBus {
    clock: EventClock,
    seq: AtomicU64,
    subscribers: Vec<SubscriberEntry>,
}

impl std::fmt::Debug for EventBus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventBus")
            .field("subscribers", &self.subscribers.len())
            .field("poisoned", &self.poisoned())
            .field("last_seq", &self.last_seq())
            .finish()
    }
}

impl EventBus {
    /// A bus dispatching to `subscribers`, timestamping on a fresh
    /// clock.
    pub fn new(subscribers: Vec<Arc<dyn Subscriber>>) -> EventBus {
        EventBus {
            clock: EventClock::new(),
            seq: AtomicU64::new(0),
            subscribers: subscribers
                .into_iter()
                .map(|sub| SubscriberEntry {
                    sub,
                    poisoned: AtomicBool::new(false),
                })
                .collect(),
        }
    }

    /// A bus with no subscribers: emission is a single branch.
    pub fn silent() -> EventBus {
        EventBus::new(Vec::new())
    }

    /// The shared monotonic clock.
    pub fn clock(&self) -> &EventClock {
        &self.clock
    }

    /// Monotonic time since the bus (= the server) was created.
    pub fn now(&self) -> Duration {
        self.clock.now()
    }

    /// Sequence number of the most recently emitted event (0 = none
    /// yet).
    pub fn last_seq(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// True when at least one subscriber is attached — producers with
    /// non-trivial event *construction* cost (e.g. a pool-stats read)
    /// can skip it entirely on a silent bus.
    pub fn is_active(&self) -> bool {
        !self.subscribers.is_empty()
    }

    /// Number of subscribers detached after panicking.
    pub fn poisoned(&self) -> usize {
        self.subscribers
            .iter()
            .filter(|e| e.poisoned.load(Ordering::Relaxed))
            .count()
    }

    /// Stamps `event` and dispatches it to every live subscriber. A
    /// subscriber that panics is poisoned (detached) and the panic is
    /// swallowed — observation must never take a serving thread down.
    pub fn emit(&self, event: Event<'_>) {
        if self.subscribers.is_empty() {
            return;
        }
        let meta = EventMeta {
            seq: self.seq.fetch_add(1, Ordering::Relaxed) + 1,
            t: self.clock.now(),
        };
        for entry in &self.subscribers {
            if entry.poisoned.load(Ordering::Relaxed) {
                continue;
            }
            let sub = &entry.sub;
            if std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                sub.on_event(&meta, &event)
            }))
            .is_err()
            {
                entry.poisoned.store(true, Ordering::Relaxed);
                eprintln!(
                    "adoc-server: a subscriber panicked on {:?} and was detached",
                    event.name()
                );
            }
        }
    }
}

/// Lifetime event counts aggregated by a [`MetricsSubscriber`] — the
/// `events` section of the v2 metrics document.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EventCounts {
    /// `ConnAccepted` events.
    pub conns_accepted: u64,
    /// `ConnAdmitted` events.
    pub conns_admitted: u64,
    /// `ConnClosed` events.
    pub conns_closed: u64,
    /// `HandshakeFailed` events.
    pub handshake_failures: u64,
    /// `MessageServed` events.
    pub messages_served: u64,
    /// `SlowRequest` events (messages over the latency threshold).
    pub slow_requests: u64,
    /// `SchedWait` events (blocked admissions).
    pub sched_waits: u64,
    /// Total time blocked admissions spent waiting, in seconds.
    pub sched_wait_secs: f64,
    /// `RefillEpoch` events (coalesced per admission episode).
    pub refill_epochs: u64,
    /// `LevelChange` events.
    pub level_changes: u64,
    /// `PoolEvict` events' evicted-buffer total.
    pub pool_evictions: u64,
    /// `BudgetChanged` events.
    pub budget_changes: u64,
    /// `DrainStarted` events (0 or 1 in a normal lifetime).
    pub drains: u64,
    /// `ReactorTick` events (non-idle poll cycles).
    pub reactor_ticks: u64,
    /// `WorkerQueueDepth` events (codec jobs enqueued).
    pub worker_jobs: u64,
    /// Deepest worker-pool queue observed at enqueue time.
    pub worker_queue_peak: u64,
}

/// The aggregating built-in subscriber: lock-free counters a metrics
/// snapshot folds into the typed [`crate::metrics::MetricsDoc`]. Every
/// event is a handful of relaxed atomic adds — attaching it costs the
/// hot path one virtual call and nothing else (the bench suite pins
/// this at < 3% on `fig_server_scale`).
#[derive(Debug, Default)]
pub struct MetricsSubscriber {
    conns_accepted: AtomicU64,
    conns_admitted: AtomicU64,
    conns_closed: AtomicU64,
    handshake_failures: AtomicU64,
    messages_served: AtomicU64,
    slow_requests: AtomicU64,
    sched_waits: AtomicU64,
    sched_wait_nanos: AtomicU64,
    refill_epochs: AtomicU64,
    level_changes: AtomicU64,
    pool_evictions: AtomicU64,
    budget_changes: AtomicU64,
    drains: AtomicU64,
    reactor_ticks: AtomicU64,
    worker_jobs: AtomicU64,
    worker_queue_peak: AtomicU64,
}

impl MetricsSubscriber {
    /// A fresh subscriber with all counters at zero.
    pub fn new() -> MetricsSubscriber {
        MetricsSubscriber::default()
    }

    /// Snapshot of every counter.
    pub fn counts(&self) -> EventCounts {
        EventCounts {
            conns_accepted: self.conns_accepted.load(Ordering::Relaxed),
            conns_admitted: self.conns_admitted.load(Ordering::Relaxed),
            conns_closed: self.conns_closed.load(Ordering::Relaxed),
            handshake_failures: self.handshake_failures.load(Ordering::Relaxed),
            messages_served: self.messages_served.load(Ordering::Relaxed),
            slow_requests: self.slow_requests.load(Ordering::Relaxed),
            sched_waits: self.sched_waits.load(Ordering::Relaxed),
            sched_wait_secs: self.sched_wait_nanos.load(Ordering::Relaxed) as f64 / 1e9,
            refill_epochs: self.refill_epochs.load(Ordering::Relaxed),
            level_changes: self.level_changes.load(Ordering::Relaxed),
            pool_evictions: self.pool_evictions.load(Ordering::Relaxed),
            budget_changes: self.budget_changes.load(Ordering::Relaxed),
            drains: self.drains.load(Ordering::Relaxed),
            reactor_ticks: self.reactor_ticks.load(Ordering::Relaxed),
            worker_jobs: self.worker_jobs.load(Ordering::Relaxed),
            worker_queue_peak: self.worker_queue_peak.load(Ordering::Relaxed),
        }
    }
}

impl Subscriber for MetricsSubscriber {
    fn on_event(&self, _meta: &EventMeta, event: &Event<'_>) {
        let bump = |cell: &AtomicU64, by: u64| {
            cell.fetch_add(by, Ordering::Relaxed);
        };
        match *event {
            Event::ConnAccepted { .. } => bump(&self.conns_accepted, 1),
            Event::ConnAdmitted { .. } => bump(&self.conns_admitted, 1),
            Event::ConnClosed { .. } => bump(&self.conns_closed, 1),
            Event::HandshakeFailed { .. } => bump(&self.handshake_failures, 1),
            Event::MessageServed { .. } => bump(&self.messages_served, 1),
            Event::SlowRequest { .. } => bump(&self.slow_requests, 1),
            Event::SchedWait { waited, .. } => {
                bump(&self.sched_waits, 1);
                bump(&self.sched_wait_nanos, waited.as_nanos() as u64);
            }
            Event::RefillEpoch { .. } => bump(&self.refill_epochs, 1),
            Event::LevelChange { .. } => bump(&self.level_changes, 1),
            Event::DrainStarted => bump(&self.drains, 1),
            Event::PoolEvict { evicted } => bump(&self.pool_evictions, evicted),
            Event::BudgetChanged { .. } => bump(&self.budget_changes, 1),
            Event::ReactorTick { .. } => bump(&self.reactor_ticks, 1),
            Event::WorkerQueueDepth { depth } => {
                bump(&self.worker_jobs, 1);
                self.worker_queue_peak
                    .fetch_max(depth as u64, Ordering::Relaxed);
            }
            // The session table counts resumes, rejections and expiries
            // for the metrics document's `sessions` section.
            Event::SessionResumed { .. }
            | Event::TicketRejected { .. }
            | Event::SessionExpired { .. }
            | Event::ConnError { .. }
            | Event::DrainFinished => {}
        }
    }
}

/// One retained event in an [`EventLog`]: the stamped envelope plus the
/// pre-rendered JSON object line.
#[derive(Debug, Clone)]
pub struct EventRecord {
    /// Sequence number (strictly increasing across the log).
    pub seq: u64,
    /// Emission time in seconds on the shared clock.
    pub t_secs: f64,
    /// The full JSON object line (includes `seq`, `t`, `event`, and the
    /// event's own fields).
    pub json: Arc<str>,
}

/// The bounded ring-buffer built-in subscriber: retains the last
/// `capacity` events as rendered JSON lines. When full, the **oldest**
/// record is overwritten — a burst never blocks a producer and never
/// grows memory; [`EventLog::dropped`] counts what was overwritten.
pub struct EventLog {
    capacity: usize,
    inner: Mutex<VecDeque<EventRecord>>,
    dropped: AtomicU64,
}

impl std::fmt::Debug for EventLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventLog")
            .field("capacity", &self.capacity)
            .field("len", &self.inner.lock().len())
            .field("dropped", &self.dropped())
            .finish()
    }
}

impl EventLog {
    /// A log retaining at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> EventLog {
        EventLog {
            capacity: capacity.max(1),
            inner: Mutex::new(VecDeque::with_capacity(capacity.clamp(1, 4096))),
            dropped: AtomicU64::new(0),
        }
    }

    /// Configured retention capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// True when nothing has been retained yet.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }

    /// Events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Copies out every retained record with `seq > since`, oldest
    /// first.
    pub fn records_since(&self, since: u64) -> Vec<EventRecord> {
        let g = self.inner.lock();
        g.iter().filter(|r| r.seq > since).cloned().collect()
    }

    /// Renders every retained record with `seq > since` as JSON lines
    /// (one object per line, oldest first) — the payload of
    /// `GET /events?since=seq`.
    pub fn json_lines_since(&self, since: u64) -> String {
        let records = self.records_since(since);
        let mut out = String::with_capacity(records.len() * 96);
        for r in records {
            out.push_str(&r.json);
            out.push('\n');
        }
        out
    }
}

impl Subscriber for EventLog {
    fn on_event(&self, meta: &EventMeta, event: &Event<'_>) {
        let record = EventRecord {
            seq: meta.seq,
            t_secs: meta.t.as_secs_f64(),
            json: render_json_line(meta, event).into(),
        };
        let mut g = self.inner.lock();
        if g.len() >= self.capacity {
            g.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        g.push_back(record);
    }
}

/// Renders one stamped event as a single-line JSON object.
pub fn render_json_line(meta: &EventMeta, event: &Event<'_>) -> String {
    let mut out = String::with_capacity(96);
    let _ = write!(
        out,
        "{{\"seq\": {}, \"t\": {:.6}, \"event\": \"{}\"",
        meta.seq,
        meta.t.as_secs_f64(),
        event.name()
    );
    match *event {
        Event::ConnAccepted { conn, peer } => {
            let _ = write!(
                out,
                ", \"conn\": {conn}, \"peer\": \"{}\"",
                json_escape(peer)
            );
        }
        Event::ConnAdmitted { conn, streams } => {
            let _ = write!(out, ", \"conn\": {conn}, \"streams\": {streams}");
        }
        Event::ConnClosed {
            conn,
            outcome,
            messages,
        } => {
            let _ = write!(
                out,
                ", \"conn\": {conn}, \"outcome\": \"{}\", \"messages\": {messages}",
                match outcome {
                    ConnOutcome::Completed => "completed",
                    ConnOutcome::Failed => "failed",
                }
            );
        }
        Event::HandshakeFailed { conn } => {
            let _ = write!(out, ", \"conn\": {}", OrNull(conn));
        }
        Event::ConnError { conn, error } => {
            let (conn, error) = (OrNull(conn), json_escape(error));
            let _ = write!(out, ", \"conn\": {conn}, \"error\": \"{error}\"");
        }
        Event::MessageServed {
            conn,
            raw_bytes,
            reply_wire_bytes,
            times,
        } => {
            let _ = write!(
                out,
                ", \"conn\": {conn}, \"raw_bytes\": {raw_bytes}, \"reply_wire_bytes\": {reply_wire_bytes}"
            );
            write_stages(&mut out, &times);
        }
        Event::SlowRequest {
            conn,
            raw_bytes,
            times,
        } => {
            let _ = write!(out, ", \"conn\": {conn}, \"raw_bytes\": {raw_bytes}");
            write_stages(&mut out, &times);
        }
        Event::SchedWait { conn, tier, waited } => {
            let _ = write!(
                out,
                ", \"conn\": {conn}, \"tier\": \"{tier}\", \"waited_ms\": {:.3}",
                waited.as_secs_f64() * 1e3
            );
        }
        Event::RefillEpoch { credit } => {
            let _ = write!(out, ", \"credit_bytes\": {credit:.0}");
        }
        Event::LevelChange {
            conn,
            from,
            to,
            reason,
        } => {
            let _ = write!(
                out,
                ", \"conn\": {conn}, \"from\": {from}, \"to\": {to}, \"reason\": \"{}\"",
                reason.as_str()
            );
        }
        Event::DrainStarted | Event::DrainFinished => {}
        Event::PoolEvict { evicted } => {
            let _ = write!(out, ", \"evicted\": {evicted}");
        }
        Event::BudgetChanged { bytes_per_sec } => match bytes_per_sec {
            Some(b) => {
                let _ = write!(out, ", \"bytes_per_sec\": {b:.1}");
            }
            None => out.push_str(", \"bytes_per_sec\": null"),
        },
        Event::ReactorTick { ready, parked } => {
            let _ = write!(out, ", \"ready\": {ready}, \"parked\": {parked}");
        }
        Event::WorkerQueueDepth { depth } => {
            let _ = write!(out, ", \"depth\": {depth}");
        }
        Event::SessionResumed {
            conn,
            session_id,
            streams,
            mid_message,
        } => {
            let _ = write!(
                out,
                ", \"conn\": {conn}, \"session_id\": {session_id}, \"streams\": {streams}, \
                 \"mid_message\": {mid_message}"
            );
        }
        Event::TicketRejected { session_id, reason } => {
            let (id, reason) = (OrNull(session_id), json_escape(reason));
            let _ = write!(out, ", \"session_id\": {id}, \"reason\": \"{reason}\"");
        }
        Event::SessionExpired { conn, session_id } => {
            let _ = write!(out, ", \"conn\": {conn}, \"session_id\": {session_id}");
        }
    }
    out.push('}');
    out
}

/// An optional id in a JSON line: the number, or `null`.
struct OrNull(Option<u64>);

impl std::fmt::Display for OrNull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.0 {
            Some(id) => write!(f, "{id}"),
            None => f.write_str("null"),
        }
    }
}

/// Appends a `"stages"` object with the span's per-stage microseconds.
fn write_stages(out: &mut String, t: &StageTimes) {
    let _ = write!(
        out,
        ", \"stages\": {{\"read_us\": {}, \"sched_us\": {}, \"queue_us\": {}, \
         \"codec_us\": {}, \"write_us\": {}, \"total_us\": {}}}",
        t.read_us, t.sched_us, t.queue_us, t.codec_us, t.write_us, t.total_us
    );
}

/// Escapes `s` for inclusion in a JSON string literal.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records every event name it sees.
    #[derive(Default)]
    struct Recorder {
        seen: Mutex<Vec<(u64, &'static str)>>,
    }

    impl Subscriber for Recorder {
        fn on_event(&self, meta: &EventMeta, event: &Event<'_>) {
            self.seen.lock().push((meta.seq, event.name()));
        }
    }

    #[test]
    fn bus_stamps_increasing_seqs_and_dispatches() {
        let rec = Arc::new(Recorder::default());
        let bus = EventBus::new(vec![rec.clone()]);
        bus.emit(Event::DrainStarted);
        bus.emit(Event::ConnAccepted { conn: 7, peer: "p" });
        bus.emit(Event::DrainFinished);
        let seen = rec.seen.lock();
        assert_eq!(
            *seen,
            vec![
                (1, "drain_started"),
                (2, "conn_accepted"),
                (3, "drain_finished")
            ]
        );
        assert_eq!(bus.last_seq(), 3);
    }

    #[test]
    fn silent_bus_assigns_no_seqs() {
        let bus = EventBus::silent();
        bus.emit(Event::DrainStarted);
        assert_eq!(bus.last_seq(), 0);
    }

    #[test]
    fn panicking_subscriber_is_poisoned_and_detached() {
        struct Bomb {
            calls: AtomicU64,
        }
        impl Subscriber for Bomb {
            fn on_event(&self, _m: &EventMeta, _e: &Event<'_>) {
                self.calls.fetch_add(1, Ordering::Relaxed);
                panic!("subscriber bug");
            }
        }
        let bomb = Arc::new(Bomb {
            calls: AtomicU64::new(0),
        });
        let rec = Arc::new(Recorder::default());
        let bus = EventBus::new(vec![bomb.clone(), rec.clone()]);
        // Quiet the default panic hook for the expected panic.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        bus.emit(Event::DrainStarted);
        bus.emit(Event::DrainFinished);
        std::panic::set_hook(hook);
        assert_eq!(bomb.calls.load(Ordering::Relaxed), 1, "detached after one");
        assert_eq!(bus.poisoned(), 1);
        // The healthy subscriber saw both events.
        assert_eq!(rec.seen.lock().len(), 2);
    }

    #[test]
    fn metrics_subscriber_aggregates() {
        let sub = MetricsSubscriber::new();
        let bus = EventBus::new(vec![]);
        let meta = EventMeta {
            seq: 1,
            t: Duration::from_millis(5),
        };
        drop(bus);
        sub.on_event(
            &meta,
            &Event::MessageServed {
                conn: 1,
                raw_bytes: 10,
                reply_wire_bytes: 4,
                times: StageTimes::default(),
            },
        );
        sub.on_event(
            &meta,
            &Event::SchedWait {
                conn: 1,
                tier: Tier::Bulk,
                waited: Duration::from_millis(250),
            },
        );
        sub.on_event(&meta, &Event::PoolEvict { evicted: 3 });
        let c = sub.counts();
        assert_eq!(c.messages_served, 1);
        assert_eq!(c.sched_waits, 1);
        assert!((c.sched_wait_secs - 0.25).abs() < 1e-6);
        assert_eq!(c.pool_evictions, 3);
    }

    #[test]
    fn slow_request_counts_and_renders_the_span() {
        let sub = MetricsSubscriber::new();
        let meta = EventMeta {
            seq: 9,
            t: Duration::from_millis(7),
        };
        let times = StageTimes {
            read_us: 11,
            sched_us: 22,
            queue_us: 33,
            codec_us: 44,
            write_us: 55,
            total_us: 1_500_000,
        };
        let ev = Event::SlowRequest {
            conn: 6,
            raw_bytes: 2048,
            times,
        };
        sub.on_event(&meta, &ev);
        assert_eq!(sub.counts().slow_requests, 1);
        let line = render_json_line(&meta, &ev);
        assert!(line.contains("\"event\": \"slow_request\""), "{line}");
        assert!(line.contains("\"conn\": 6, \"raw_bytes\": 2048"), "{line}");
        assert!(
            line.contains("\"stages\": {\"read_us\": 11, \"sched_us\": 22"),
            "{line}"
        );
        assert!(line.contains("\"total_us\": 1500000"), "{line}");
        // MessageServed carries the same stage block.
        let line = render_json_line(
            &meta,
            &Event::MessageServed {
                conn: 6,
                raw_bytes: 2048,
                reply_wire_bytes: 99,
                times,
            },
        );
        assert!(line.contains("\"reply_wire_bytes\": 99"), "{line}");
        assert!(line.contains("\"codec_us\": 44"), "{line}");
    }

    #[test]
    fn event_log_overwrites_oldest_when_full() {
        let log = EventLog::new(3);
        let mk = |seq| EventMeta {
            seq,
            t: Duration::from_millis(seq),
        };
        for seq in 1..=8u64 {
            log.on_event(&mk(seq), &Event::RefillEpoch { credit: seq as f64 });
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.dropped(), 5);
        let records = log.records_since(0);
        assert_eq!(
            records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![6, 7, 8],
            "only the newest events survive a burst"
        );
        // since filters strictly.
        assert_eq!(log.records_since(7).len(), 1);
        assert_eq!(log.records_since(8).len(), 0);
        let lines = log.json_lines_since(6);
        assert_eq!(lines.lines().count(), 2);
        assert!(lines.contains("\"event\": \"refill_epoch\""));
    }

    #[test]
    fn reactor_and_worker_events_aggregate_and_render() {
        let sub = MetricsSubscriber::new();
        let meta = EventMeta {
            seq: 1,
            t: Duration::from_millis(2),
        };
        sub.on_event(
            &meta,
            &Event::ReactorTick {
                ready: 5,
                parked: 2,
            },
        );
        sub.on_event(
            &meta,
            &Event::ReactorTick {
                ready: 1,
                parked: 0,
            },
        );
        sub.on_event(&meta, &Event::WorkerQueueDepth { depth: 3 });
        sub.on_event(&meta, &Event::WorkerQueueDepth { depth: 1 });
        let c = sub.counts();
        assert_eq!(c.reactor_ticks, 2);
        assert_eq!(c.worker_jobs, 2);
        assert_eq!(c.worker_queue_peak, 3, "peak holds the high-water mark");

        let line = render_json_line(
            &meta,
            &Event::ReactorTick {
                ready: 5,
                parked: 2,
            },
        );
        assert!(line.contains("\"event\": \"reactor_tick\""), "{line}");
        assert!(line.contains("\"ready\": 5, \"parked\": 2"), "{line}");
        let line = render_json_line(&meta, &Event::WorkerQueueDepth { depth: 3 });
        assert!(line.contains("\"event\": \"worker_queue_depth\""), "{line}");
        assert!(line.contains("\"depth\": 3"), "{line}");
    }

    #[test]
    fn session_events_aggregate_and_render() {
        let sub = MetricsSubscriber::new();
        let meta = EventMeta {
            seq: 3,
            t: Duration::from_millis(4),
        };
        let resumed = Event::SessionResumed {
            conn: 2,
            session_id: 77,
            streams: 4,
            mid_message: true,
        };
        let rejected = Event::TicketRejected {
            session_id: None,
            reason: "auth",
        };
        let expired = Event::SessionExpired {
            conn: 2,
            session_id: 77,
        };
        sub.on_event(&meta, &resumed);
        sub.on_event(&meta, &rejected);
        sub.on_event(&meta, &expired);
        // Counted by the session table, not here.
        assert_eq!(sub.counts(), EventCounts::default());

        let line = render_json_line(&meta, &resumed);
        assert!(line.contains("\"event\": \"session_resumed\""), "{line}");
        assert!(
            line.contains("\"session_id\": 77, \"streams\": 4, \"mid_message\": true"),
            "{line}"
        );
        let line = render_json_line(&meta, &rejected);
        assert!(
            line.contains("\"session_id\": null, \"reason\": \"auth\""),
            "{line}"
        );
        let line = render_json_line(&meta, &expired);
        assert!(line.contains("\"event\": \"session_expired\""), "{line}");
    }

    #[test]
    fn json_lines_escape_peer_labels() {
        let meta = EventMeta {
            seq: 2,
            t: Duration::from_secs(1),
        };
        let line = render_json_line(
            &meta,
            &Event::ConnAccepted {
                conn: 4,
                peer: "we\"ird\\peer",
            },
        );
        assert!(line.contains("we\\\"ird\\\\peer"), "{line}");
        assert!(line.starts_with("{\"seq\": 2"));
        assert!(line.ends_with('}'));
    }
}
