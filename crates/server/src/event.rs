//! The structured event subsystem: a typed vocabulary of everything the
//! daemon does, producers that emit it from the registry, scheduler,
//! serve loop, and TCP front end, and [`Subscriber`]s that consume it
//! without ever touching a connection's hot path.
//!
//! ## Design (s2n-events style)
//!
//! Producers call [`EventBus::emit`] with a borrowed [`Event`] — an enum
//! of small `Copy` payloads (a peer label, an error and a refusal reason
//! are borrowed `&str`s), so **emitting allocates nothing**. The bus stamps the event with a sequence number and a
//! monotonic timestamp ([`EventBus::now`]), then makes exactly one
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
//! totally. An [`EventLog`] hands them out in seq order and never past a
//! seq still in flight.
//!
//! ## Built-in subscribers
//!
//! * [`MetricsSubscriber`] — lock-free counters for the `events` section
//!   of the v2 metrics document. Each is one line of a table that
//!   declares its [`EventCounts`] field, its atomic cell, the event that
//!   moves it, and its place in the rendered `counts` object;
//! * [`EventLog`] — a bounded ring buffer of typed events, rendered as
//!   JSON lines ([`render_json_line`]) only when read, via
//!   [`EventLog::json_lines_since`] (the HTTP listener's
//!   `GET /events?since=seq`).

use crate::json::{self, Fields, Fixed, Object, BARE};
use crate::registry::{ConnId, ConnOutcome};
use crate::sched::Tier;
use crate::trace::StageTimes;
use adoc::LevelReason;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

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
        /// divergence guard, incompressible guard).
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

/// Per-event envelope the bus stamps before dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventMeta {
    /// Globally unique, monotonically assigned sequence number
    /// (starts at 1).
    pub seq: u64,
    /// Time of emission on the daemon's shared clock ([`EventBus::now`]).
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
    /// The daemon's one clock origin ([`EventBus::now`]).
    origin: Instant,
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
    /// A bus dispatching to `subscribers`, its clock starting now.
    pub fn new(subscribers: Vec<Arc<dyn Subscriber>>) -> EventBus {
        EventBus {
            origin: Instant::now(),
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

    /// Monotonic time since the bus (= the server) was created: the one
    /// clock every timestamp in the daemon derives from — event times,
    /// `uptime_secs`, per-connection ages — so one metrics document can
    /// never contain two timelines that disagree about "now".
    pub fn now(&self) -> Duration {
        self.origin.elapsed()
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
            t: self.now(),
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

/// Builds [`EventCounts`], the [`MetricsSubscriber`] cells behind it,
/// and its JSON field list from one table, whose order is the render
/// order: per counter, its type, whether an event adds to its `u64`
/// cell or raises it, which event, by how much, and how the cell reads
/// out if not as it is.
macro_rules! event_counters {
    ($($(#[$doc:meta])* $name:ident: $ty:ty =
        $op:ident($pat:pat => $by:expr) $(, read $read:expr)?;)*) => {
        /// Lifetime event counts aggregated by a [`MetricsSubscriber`] —
        /// the `events.counts` object of the v2 metrics document.
        #[derive(Debug, Clone, Copy, Default, PartialEq)]
        pub struct EventCounts {
            $($(#[$doc])* pub $name: $ty,)*
        }

        /// The aggregating built-in subscriber: lock-free counters that a metrics
        /// snapshot folds into [`crate::metrics::MetricsDoc`]. An event costs the hot
        /// path one virtual call and a relaxed atomic add or two (the benchmark
        /// harness prices it as `event.instrument_overhead_share`).
        #[derive(Debug, Default)]
        pub struct MetricsSubscriber {
            $($name: AtomicU64,)*
        }

        impl MetricsSubscriber {
            /// A fresh subscriber with all counters at zero.
            pub fn new() -> MetricsSubscriber {
                MetricsSubscriber::default()
            }

            /// Snapshot of every counter.
            pub fn counts(&self) -> EventCounts {
                EventCounts {
                    $($name: {
                        let raw = self.$name.load(Ordering::Relaxed);
                        $(let raw = ($read)(raw);)?
                        raw
                    },)*
                }
            }
        }

        impl Subscriber for MetricsSubscriber {
            fn on_event(&self, _meta: &EventMeta, event: &Event<'_>) {
                $(if let $pat = *event {
                    self.$name.$op($by, Ordering::Relaxed);
                })*
            }
        }

        impl Fields for EventCounts {
            fn fields(&self, o: &mut Object<'_>) {
                $(o.field(stringify!($name), self.$name);)*
            }
        }
    };
}

// Session resumes, ticket rejections and expiries are counted by the
// session table (the metrics document's `sessions` section); connection
// errors and drain completions by nothing.
event_counters! {
    /// `ConnAccepted` events.
    conns_accepted: u64 = fetch_add(Event::ConnAccepted { .. } => 1);
    /// `ConnAdmitted` events.
    conns_admitted: u64 = fetch_add(Event::ConnAdmitted { .. } => 1);
    /// `ConnClosed` events.
    conns_closed: u64 = fetch_add(Event::ConnClosed { .. } => 1);
    /// `HandshakeFailed` events.
    handshake_failures: u64 = fetch_add(Event::HandshakeFailed { .. } => 1);
    /// `MessageServed` events.
    messages_served: u64 = fetch_add(Event::MessageServed { .. } => 1);
    /// `SchedWait` events (blocked admissions).
    sched_waits: u64 = fetch_add(Event::SchedWait { .. } => 1);
    /// Total time blocked admissions spent waiting, in seconds.
    sched_wait_secs: f64 = fetch_add(Event::SchedWait { waited, .. } => waited.as_nanos() as u64),
        read |ns: u64| ns as f64 / 1e9;
    /// `RefillEpoch` events (coalesced per admission episode).
    refill_epochs: u64 = fetch_add(Event::RefillEpoch { .. } => 1);
    /// `LevelChange` events.
    level_changes: u64 = fetch_add(Event::LevelChange { .. } => 1);
    /// `PoolEvict` events' evicted-buffer total.
    pool_evictions: u64 = fetch_add(Event::PoolEvict { evicted } => evicted);
    /// `BudgetChanged` events.
    budget_changes: u64 = fetch_add(Event::BudgetChanged { .. } => 1);
    /// `DrainStarted` events (0 or 1 in a normal lifetime).
    drains: u64 = fetch_add(Event::DrainStarted => 1);
    /// `ReactorTick` events (non-idle poll cycles).
    reactor_ticks: u64 = fetch_add(Event::ReactorTick { .. } => 1);
    /// `WorkerQueueDepth` events (codec jobs enqueued).
    worker_jobs: u64 = fetch_add(Event::WorkerQueueDepth { .. } => 1);
    /// Deepest worker-pool queue observed at enqueue time.
    worker_queue_peak: u64 = fetch_max(Event::WorkerQueueDepth { depth } => depth as u64);
    /// `SlowRequest` events (messages over the latency threshold).
    slow_requests: u64 = fetch_add(Event::SlowRequest { .. } => 1);
}

/// One retained event in an [`EventLog`]: the stamped envelope plus the
/// JSON object line, rendered when read.
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
/// `capacity` events as typed values, so the emitting thread renders
/// nothing. When full, the **oldest** event is overwritten — a burst
/// never blocks a producer and never grows memory; [`EventLog::dropped`]
/// counts what was overwritten.
///
/// Emitters take their seqs before they reach the ring, so seq 6 can
/// land before seq 5. The ring keeps seq order and hands out only the
/// gap-free run of seqs, so a poll never skips a seq that lands late
/// (every seq reaches every subscriber that has not panicked). One that
/// lands below an overwritten seq counts as dropped.
pub struct EventLog {
    capacity: usize,
    inner: Mutex<Ring>,
    dropped: AtomicU64,
}

/// An [`EventLog`]'s retained events, oldest seq first.
struct Ring {
    /// Each event with its borrowed string, if it has one, owned beside
    /// it ([`Event::map_str`]).
    events: VecDeque<(EventMeta, Event<'static>, Box<str>)>,
    /// Every seq up to this one has landed or been overwritten.
    complete: u64,
}

impl std::fmt::Debug for EventLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventLog")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .field("dropped", &self.dropped())
            .finish()
    }
}

impl EventLog {
    /// A log retaining at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> EventLog {
        EventLog {
            capacity: capacity.max(1),
            inner: Mutex::new(Ring {
                events: VecDeque::with_capacity(capacity.clamp(1, 4096)),
                complete: 0,
            }),
            dropped: AtomicU64::new(0),
        }
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.inner.lock().events.len()
    }

    /// True when nothing has been retained yet.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().events.is_empty()
    }

    /// Events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Copies out the events a read may hand out with `seq > since`,
    /// oldest first: only those are copied under the lock the emitting
    /// threads take, and nothing is rendered there.
    fn kept_since(&self, since: u64) -> Vec<(EventMeta, Event<'static>, Box<str>)> {
        let ring = self.inner.lock();
        let from = ring.events.partition_point(|(meta, ..)| meta.seq <= since);
        let ready = ring
            .events
            .range(from..)
            .take_while(|(meta, ..)| meta.seq <= ring.complete);
        ready.cloned().collect()
    }

    /// Renders every event a read may hand out with `seq > since`,
    /// oldest first, outside the lock the emitting threads take.
    pub fn records_since(&self, since: u64) -> Vec<EventRecord> {
        let record = |(meta, event, text): (EventMeta, Event, Box<str>)| EventRecord {
            seq: meta.seq,
            t_secs: meta.t.as_secs_f64(),
            json: render_json_line(&meta, &event.map_str(|_| &text)).into(),
        };
        self.kept_since(since).into_iter().map(record).collect()
    }

    /// Renders the same events as [`Self::records_since`] as JSON lines
    /// (one object per line, oldest first) into one string — the
    /// payload of `GET /events?since=seq`.
    pub fn json_lines_since(&self, since: u64) -> String {
        let kept = self.kept_since(since);
        let mut out = String::with_capacity(kept.len() * 128);
        for (meta, event, text) in kept {
            write_json_line(&mut out, &meta, &event.map_str(|_| &text));
            out.push('\n');
        }
        out
    }
}

impl Subscriber for EventLog {
    fn on_event(&self, meta: &EventMeta, event: &Event<'_>) {
        let mut text = Box::default();
        let event = event.map_str(|s| {
            text = s.into();
            ""
        });
        let mut ring = self.inner.lock();
        if meta.seq <= ring.complete {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let at = ring.events.partition_point(|(m, ..)| m.seq < meta.seq);
        ring.events.insert(at, (*meta, event, text));
        if ring.events.len() > self.capacity {
            let (oldest, ..) = ring.events.pop_front().expect("over capacity");
            ring.complete = ring.complete.max(oldest.seq);
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        // Extend the gap-free run over the seqs that follow it.
        let Ring { events, complete } = &mut *ring;
        let from = events.partition_point(|(m, ..)| m.seq <= *complete);
        let next = events.range(from..).zip(*complete + 1..);
        *complete += next.take_while(|((m, ..), want)| m.seq == *want).count() as u64;
    }
}

/// Renders one stamped event as a single-line JSON object.
pub fn render_json_line(meta: &EventMeta, event: &Event<'_>) -> String {
    let mut out = String::with_capacity(256);
    write_json_line(&mut out, meta, event);
    out
}

/// Appends [`render_json_line`]'s text to `out`.
fn write_json_line(out: &mut String, meta: &EventMeta, event: &Event<'_>) {
    json::Object::write(out, BARE, |o| {
        o.field("seq", meta.seq)
            .field("t", meta.t.as_secs_f64())
            .field("event", event.name());
        event.fields(o);
    })
}

/// Builds [`Event::name`], each event's JSON fields (after `seq`, `t`
/// and `event`) and its [`Event::map_str`] from one table: per variant,
/// the fields it binds (a borrowed string first, marked `&`), its name,
/// and what it writes into the object `o`.
macro_rules! event_table {
    (|$o:ident| $($variant:ident $({ $(&$str:ident,)? $($bind:ident),* })?
        => $name:literal $(: $fields:expr)?;)*) => {
        impl Event<'_> {
            /// Snake-case name of the event kind (the `"event"` field of a
            /// rendered JSON line).
            pub fn name(&self) -> &'static str {
                match self {
                    $(Event::$variant { .. } => $name,)*
                }
            }

            /// This event with its borrowed string, if it has one, replaced
            /// by `f` of it: how an [`EventLog`] keeps an event, and gives
            /// it its string back.
            fn map_str<'b>(&self, f: impl FnOnce(&str) -> &'b str) -> Event<'b> {
                match *self {
                    $(Event::$variant $({ $($str,)? $($bind),* })? => {
                        $($(let $str = f($str);)?)?
                        Event::$variant $({ $($str,)? $($bind),* })?
                    })*
                }
            }
        }

        impl Fields for Event<'_> {
            fn fields(&self, $o: &mut Object<'_>) {
                match *self {
                    $(Event::$variant $({ $($str,)? $($bind),* })? => {
                        $($fields;)?
                    })*
                }
            }
        }
    };
}

event_table! { |o|
    ConnAccepted { &peer, conn } => "conn_accepted": o.field("conn", conn).field("peer", peer);
    ConnAdmitted { conn, streams } => "conn_admitted":
        o.field("conn", conn).field("streams", streams);
    ConnClosed { conn, outcome, messages } => "conn_closed": o.field("conn", conn)
        .field("outcome", match outcome {
            ConnOutcome::Completed => "completed",
            ConnOutcome::Failed => "failed",
        })
        .field("messages", messages);
    HandshakeFailed { conn } => "handshake_failed": o.field("conn", conn);
    ConnError { &error, conn } => "conn_error": o.field("conn", conn).field("error", error);
    MessageServed { conn, raw_bytes, reply_wire_bytes, times } => "message_served":
        o.field("conn", conn).field("raw_bytes", raw_bytes)
            .field("reply_wire_bytes", reply_wire_bytes).record("stages", BARE, &times);
    SlowRequest { conn, raw_bytes, times } => "slow_request":
        o.field("conn", conn).field("raw_bytes", raw_bytes).record("stages", BARE, &times);
    SchedWait { conn, tier, waited } => "sched_wait": o.field("conn", conn)
        .field("tier", tier.name()).field("waited_ms", Fixed(waited.as_secs_f64() * 1e3, 3));
    RefillEpoch { credit } => "refill_epoch": o.field("credit_bytes", Fixed(credit, 0));
    LevelChange { conn, from, to, reason } => "level_change": o.field("conn", conn)
        .field("from", from).field("to", to).field("reason", reason.as_str());
    DrainStarted => "drain_started";
    DrainFinished => "drain_finished";
    PoolEvict { evicted } => "pool_evict": o.field("evicted", evicted);
    BudgetChanged { bytes_per_sec } => "budget_changed":
        o.field("bytes_per_sec", bytes_per_sec.map(|b| Fixed(b, 1)));
    ReactorTick { ready, parked } => "reactor_tick":
        o.field("ready", ready).field("parked", parked);
    WorkerQueueDepth { depth } => "worker_queue_depth": o.field("depth", depth);
    SessionResumed { conn, session_id, streams, mid_message } => "session_resumed":
        o.field("conn", conn).field("session_id", session_id).field("streams", streams)
            .field("mid_message", mid_message);
    TicketRejected { &reason, session_id } => "ticket_rejected":
        o.field("session_id", session_id).field("reason", reason);
    SessionExpired { conn, session_id } => "session_expired":
        o.field("conn", conn).field("session_id", session_id);
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
    fn a_poll_never_skips_a_seq_that_lands_late() {
        let log = EventLog::new(16);
        let push = |seq| {
            let meta = EventMeta {
                seq,
                t: Duration::from_millis(seq),
            };
            log.on_event(&meta, &Event::RefillEpoch { credit: seq as f64 });
        };
        let seqs = |since| {
            log.records_since(since)
                .iter()
                .map(|r| r.seq)
                .collect::<Vec<_>>()
        };
        for seq in 1..=4 {
            push(seq);
        }
        // Seq 6's emitter reached the ring before seq 5's.
        push(6);
        let first = seqs(0);
        let last_seen = *first.last().unwrap();
        push(5);
        assert_eq!(seqs(last_seen), vec![5, 6], "first poll saw {first:?}");
        assert_eq!(log.json_lines_since(0).lines().count(), 6);
    }

    #[test]
    fn a_kept_event_renders_as_it_was_emitted() {
        let log = EventLog::new(8);
        let events = [
            Event::ConnAccepted {
                conn: 1,
                peer: "10.0.0.1:\"9\"",
            },
            Event::ConnError {
                conn: None,
                error: "codec\nworker",
            },
            Event::TicketRejected {
                session_id: Some(4),
                reason: "expired",
            },
            Event::SessionExpired {
                conn: 2,
                session_id: 4,
            },
            Event::DrainFinished,
        ];
        let mut expected = String::new();
        for (seq, event) in (1..).zip(&events) {
            let meta = EventMeta {
                seq,
                t: Duration::from_millis(seq * 3),
            };
            log.on_event(&meta, event);
            expected += &render_json_line(&meta, event);
            expected.push('\n');
        }
        assert_eq!(log.json_lines_since(0), expected);
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
