//! The connection registry: who is connected, in what lifecycle state,
//! and what their transfers have done so far.
//!
//! Serving threads own their sockets; the registry holds compact
//! *snapshots* they push after every message, so the metrics endpoint
//! can render the whole daemon without touching any connection's hot
//! path. Closed connections fold into lifetime totals instead of
//! accumulating entries.
//!
//! Lifecycle transitions are reported on the server's [`EventBus`]
//! ([`Event::ConnAccepted`] / [`Event::ConnAdmitted`] /
//! [`Event::ConnClosed`] / [`Event::HandshakeFailed`]), always *after*
//! the registry lock is released — a subscriber that turns around and
//! polls the registry can never deadlock. Timestamps come from the
//! bus's [`crate::EventClock`], the daemon's single monotonic time
//! source, so a connection's age and the document's uptime can never
//! disagree about "now".

use crate::event::{Event, EventBus};
use adoc::{DelaySnapshot, SignalHub, TransferStats};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Identifier of one registered connection (a v2 stream group counts as
/// one connection no matter how many sockets it stripes over).
pub type ConnId = u64;

/// Lifecycle of a registered connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnState {
    /// Accepted, protocol not yet sniffed / group not yet complete.
    Handshaking,
    /// Serving messages.
    Active,
    /// Server is draining: the connection finishes its in-flight
    /// message, then closes.
    Draining,
    /// The transport died but the session survives: the entry is parked
    /// under its resume deadline, keeping its lifetime counters and
    /// signal hub for the reconnect. No sockets are attached while
    /// detached.
    Detached,
}

impl ConnState {
    /// Lower-case name for metrics output.
    pub fn name(self) -> &'static str {
        match self {
            ConnState::Handshaking => "handshaking",
            ConnState::Active => "active",
            ConnState::Draining => "draining",
            ConnState::Detached => "detached",
        }
    }
}

/// How a connection left the registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnOutcome {
    /// Clean end of stream after serving zero or more messages.
    Completed,
    /// An I/O or protocol error ended the connection.
    Failed,
}

/// Compact, copyable view of one live connection.
#[derive(Debug, Clone)]
pub struct ConnSnapshot {
    /// Registry id.
    pub id: ConnId,
    /// Peer address (or transport label for non-TCP harnesses).
    pub peer: String,
    /// Streams in the connection's group (1 = plain v1 socket).
    pub streams: usize,
    /// Lifecycle state.
    pub state: ConnState,
    /// Messages served so far.
    pub messages: u64,
    /// Raw payload bytes received from the client.
    pub raw_bytes: u64,
    /// Wire bytes of the server's replies (echo/ack direction — the
    /// receive path does not expose the client's wire volume).
    pub reply_wire_bytes: u64,
    /// Last observed per-level visible bandwidth of the server's own
    /// sends (echo direction), raw bits/s, the slower of wire and
    /// compressor; 0 = level unobserved.
    pub level_bps: [f64; 11],
    /// Latest delay-gradient snapshot from the connection's signal hub
    /// (refreshed on every [`ConnRegistry::update`]).
    pub delay: Option<DelaySnapshot>,
    /// Seconds since the connection was registered.
    pub age_secs: f64,
}

/// Monotonic lifetime counters across all connections ever seen.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegistryTotals {
    /// Connections that reached `Active`.
    pub accepted: u64,
    /// Connections that ended cleanly.
    pub completed: u64,
    /// Connections that ended in an error.
    pub failed: u64,
    /// Sockets dropped during handshake (bad magic, timeout, partial
    /// group that expired…).
    pub handshake_failures: u64,
    /// Messages served across all completed and live connections.
    pub messages: u64,
    /// Raw bytes received across all completed and live connections.
    pub raw_bytes: u64,
    /// Wire bytes of server replies across all completed and live
    /// connections.
    pub reply_wire_bytes: u64,
}

struct Entry {
    peer: String,
    streams: usize,
    state: ConnState,
    messages: u64,
    raw_bytes: u64,
    reply_wire_bytes: u64,
    level_bps: [f64; 11],
    /// The connection's delay-signal hub, attached by the serve path at
    /// admission. Snapshots are read from it on update.
    hub: Option<Arc<SignalHub>>,
    /// Latest delay snapshot read from the hub.
    delay: Option<DelaySnapshot>,
    /// Registration time on the bus's shared clock.
    registered_at: Duration,
}

/// Thread-safe connection registry (see the module docs).
pub struct ConnRegistry {
    next_id: AtomicU64,
    bus: Arc<EventBus>,
    inner: Mutex<Inner>,
}

struct Inner {
    live: HashMap<ConnId, Entry>,
    totals: RegistryTotals,
}

impl Default for ConnRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl ConnRegistry {
    /// An empty registry with its own silent event bus (standalone
    /// use; a [`crate::Server`] shares its bus via
    /// [`ConnRegistry::with_bus`]).
    pub fn new() -> ConnRegistry {
        ConnRegistry::with_bus(Arc::new(EventBus::silent()))
    }

    /// An empty registry reporting lifecycle events (and reading its
    /// clock) through `bus`.
    pub fn with_bus(bus: Arc<EventBus>) -> ConnRegistry {
        ConnRegistry {
            next_id: AtomicU64::new(1),
            bus,
            inner: Mutex::new(Inner {
                live: HashMap::new(),
                totals: RegistryTotals::default(),
            }),
        }
    }

    /// Registers a connection in the [`ConnState::Handshaking`] state and
    /// returns its id.
    pub fn register(&self, peer: impl Into<String>) -> ConnId {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let peer: String = peer.into();
        let mut g = self.inner.lock();
        g.live.insert(
            id,
            Entry {
                peer: peer.clone(),
                streams: 1,
                state: ConnState::Handshaking,
                messages: 0,
                raw_bytes: 0,
                reply_wire_bytes: 0,
                level_bps: [0.0; 11],
                hub: None,
                delay: None,
                registered_at: self.bus.now(),
            },
        );
        drop(g);
        self.bus.emit(Event::ConnAccepted {
            conn: id,
            peer: &peer,
        });
        id
    }

    /// Attaches a connection's [`SignalHub`] so the registry can read
    /// delay snapshots from it on every update. The serve path calls
    /// this at admission.
    pub fn attach_hub(&self, id: ConnId, hub: Arc<SignalHub>) {
        let mut g = self.inner.lock();
        if let Some(e) = g.live.get_mut(&id) {
            e.hub = Some(hub);
        }
    }

    /// Marks `id` active with its negotiated stream count (counted in
    /// [`RegistryTotals::accepted`]).
    pub fn activate(&self, id: ConnId, streams: usize) {
        let mut g = self.inner.lock();
        let mut admitted = false;
        if let Some(e) = g.live.get_mut(&id) {
            e.state = ConnState::Active;
            e.streams = streams;
            g.totals.accepted += 1;
            admitted = true;
        }
        drop(g);
        if admitted {
            self.bus.emit(Event::ConnAdmitted { conn: id, streams });
        }
    }

    /// Parks `id` as [`ConnState::Detached`]: its transport died but a
    /// resumable session names it, so the entry — lifetime counters,
    /// signal hub, registration time — survives for the reconnect
    /// instead of folding into totals. Returns false when the id is
    /// unknown (already removed).
    pub fn detach(&self, id: ConnId) -> bool {
        let mut g = self.inner.lock();
        match g.live.get_mut(&id) {
            Some(e) => {
                e.state = ConnState::Detached;
                true
            }
            None => false,
        }
    }

    /// Re-activates a [`ConnState::Detached`] entry on resume, with the
    /// stream count of the *new* transport (which may differ from the
    /// original's). The lifetime counters carry over untouched. Returns
    /// false when the id is unknown or not detached.
    pub fn resume(&self, id: ConnId, streams: usize) -> bool {
        let mut g = self.inner.lock();
        match g.live.get_mut(&id) {
            Some(e) if e.state == ConnState::Detached => {
                e.state = ConnState::Active;
                e.streams = streams;
                true
            }
            _ => false,
        }
    }

    /// Moves every live connection to [`ConnState::Draining`].
    pub fn mark_all_draining(&self) {
        let mut g = self.inner.lock();
        for e in g.live.values_mut() {
            if e.state == ConnState::Active {
                e.state = ConnState::Draining;
            }
        }
    }

    /// Pushes a post-message stats snapshot for `id`: `recv_raw` is the
    /// received message's payload size, `reply_wire` the wire volume of
    /// the server's reply (the serving socket only tracks its own
    /// sends, so the client's wire volume is not available here), and
    /// `stats` the serving socket's cumulative view. The connection's
    /// delay snapshot is refreshed from its hub, if one is attached.
    pub fn update(&self, id: ConnId, recv_raw: u64, reply_wire: u64, stats: &TransferStats) {
        let mut g = self.inner.lock();
        g.totals.messages += 1;
        g.totals.raw_bytes += recv_raw;
        g.totals.reply_wire_bytes += reply_wire;
        if let Some(e) = g.live.get_mut(&id) {
            e.messages += 1;
            e.raw_bytes += recv_raw;
            e.reply_wire_bytes += reply_wire;
            e.level_bps = stats.level_bps;
            if let Some(hub) = &e.hub {
                e.delay = hub.snapshot();
            }
        }
    }

    /// Removes `id`, folding it into the lifetime totals.
    pub fn remove(&self, id: ConnId, outcome: ConnOutcome) {
        let mut g = self.inner.lock();
        let removed = g.live.remove(&id);
        if let Some(e) = &removed {
            match outcome {
                ConnOutcome::Completed => g.totals.completed += 1,
                ConnOutcome::Failed => g.totals.failed += 1,
            }
            let messages = e.messages;
            drop(g);
            self.bus.emit(Event::ConnClosed {
                conn: id,
                outcome,
                messages,
            });
        }
    }

    /// Removes a connection that never finished its handshake.
    pub fn fail_handshake(&self, id: ConnId) {
        let mut g = self.inner.lock();
        if g.live.remove(&id).is_some() {
            g.totals.handshake_failures += 1;
            drop(g);
            self.bus.emit(Event::HandshakeFailed { conn: Some(id) });
        }
    }

    /// Counts a handshake failure for a socket that was never registered
    /// (e.g. a parked stream of an expired partial group).
    pub fn count_handshake_failure(&self) {
        self.inner.lock().totals.handshake_failures += 1;
        self.bus.emit(Event::HandshakeFailed { conn: None });
    }

    /// Number of live (handshaking + active + draining) connections.
    pub fn live_count(&self) -> usize {
        self.inner.lock().live.len()
    }

    /// Lifetime totals so far.
    pub fn totals(&self) -> RegistryTotals {
        self.inner.lock().totals
    }

    /// Snapshots every live connection, sorted by id, with ages
    /// computed against the shared clock's current time.
    pub fn snapshot(&self) -> Vec<ConnSnapshot> {
        self.snapshot_at(self.bus.now())
    }

    /// Snapshots every live connection with ages computed against an
    /// explicit `now` on the shared clock — the metrics collector reads
    /// the clock once and passes the same instant here and to the
    /// uptime field, so every age in one document shares one "now".
    pub fn snapshot_at(&self, now: Duration) -> Vec<ConnSnapshot> {
        let g = self.inner.lock();
        let mut out: Vec<ConnSnapshot> = g
            .live
            .iter()
            .map(|(&id, e)| ConnSnapshot {
                id,
                peer: e.peer.clone(),
                streams: e.streams,
                state: e.state,
                messages: e.messages,
                raw_bytes: e.raw_bytes,
                reply_wire_bytes: e.reply_wire_bytes,
                level_bps: e.level_bps,
                delay: e.delay,
                age_secs: now.saturating_sub(e.registered_at).as_secs_f64(),
            })
            .collect();
        out.sort_by_key(|s| s.id);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_counts_fold_into_totals() {
        let reg = ConnRegistry::new();
        let a = reg.register("127.0.0.1:1111");
        let b = reg.register("127.0.0.1:2222");
        assert_eq!(reg.live_count(), 2);
        reg.activate(a, 1);
        reg.activate(b, 4);
        assert_eq!(reg.totals().accepted, 2);

        let stats = TransferStats::new();
        reg.update(a, 1000, 400, &stats);
        reg.update(a, 500, 200, &stats);
        reg.update(b, 9, 9, &stats);
        let snap = reg.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].messages, 2);
        assert_eq!(snap[0].raw_bytes, 1500);
        assert_eq!(snap[0].reply_wire_bytes, 600);
        assert_eq!(snap[1].streams, 4);

        reg.remove(a, ConnOutcome::Completed);
        reg.remove(b, ConnOutcome::Failed);
        assert_eq!(reg.live_count(), 0);
        let t = reg.totals();
        assert_eq!((t.completed, t.failed), (1, 1));
        assert_eq!(t.messages, 3);
        assert_eq!(t.raw_bytes, 1509);
        assert_eq!(t.reply_wire_bytes, 609);
    }

    #[test]
    fn handshake_failures_never_count_as_accepted() {
        let reg = ConnRegistry::new();
        let id = reg.register("127.0.0.1:3333");
        reg.fail_handshake(id);
        reg.count_handshake_failure(); // an unregistered parked stream
        let t = reg.totals();
        assert_eq!(t.accepted, 0);
        assert_eq!(t.handshake_failures, 2);
        assert_eq!(reg.live_count(), 0);
    }

    #[test]
    fn draining_marks_only_active_connections() {
        let reg = ConnRegistry::new();
        let hs = reg.register("p1");
        let act = reg.register("p2");
        reg.activate(act, 2);
        reg.mark_all_draining();
        let snap = reg.snapshot();
        let find = |id| snap.iter().find(|s| s.id == id).unwrap();
        assert_eq!(find(hs).state, ConnState::Handshaking);
        assert_eq!(find(act).state, ConnState::Draining);
    }

    #[test]
    fn double_remove_is_benign() {
        let reg = ConnRegistry::new();
        let id = reg.register("p");
        reg.activate(id, 1);
        reg.remove(id, ConnOutcome::Completed);
        reg.remove(id, ConnOutcome::Failed);
        let t = reg.totals();
        assert_eq!((t.completed, t.failed), (1, 0));
    }

    #[test]
    fn lifecycle_is_reported_on_the_bus() {
        use crate::event::{EventMeta, Subscriber};
        use parking_lot::Mutex as PMutex;

        #[derive(Default)]
        struct Names(PMutex<Vec<String>>);
        impl Subscriber for Names {
            fn on_event(&self, _m: &EventMeta, e: &Event<'_>) {
                self.0.lock().push(e.name().to_string());
            }
        }
        let rec = Arc::new(Names::default());
        let bus = Arc::new(EventBus::new(vec![rec.clone()]));
        let reg = ConnRegistry::with_bus(bus);
        let id = reg.register("peer-a");
        reg.activate(id, 2);
        reg.remove(id, ConnOutcome::Completed);
        reg.count_handshake_failure();
        assert_eq!(
            *rec.0.lock(),
            vec![
                "conn_accepted",
                "conn_admitted",
                "conn_closed",
                "handshake_failed"
            ]
        );
    }

    #[test]
    fn update_refreshes_delay_from_the_attached_hub() {
        let reg = ConnRegistry::new();
        let id = reg.register("p");
        reg.activate(id, 1);
        let hub = Arc::new(SignalHub::new());
        reg.attach_hub(id, hub.clone());

        // Feed the remote estimator enough groups to produce a snapshot:
        // one packet per 20 ms burst window on both virtual clocks.
        for i in 0..30u64 {
            hub.record_remote(i * 20_000, i * 20_000 + 1_000, 1000);
        }
        let stats = TransferStats::new();
        reg.update(id, 10, 10, &stats);
        let snap = reg.snapshot();
        assert!(
            snap[0].delay.is_some(),
            "snapshot should carry the hub's delay estimate"
        );
    }

    #[test]
    fn snapshot_at_uses_one_shared_now() {
        let reg = ConnRegistry::new();
        reg.register("p1");
        std::thread::sleep(Duration::from_millis(20));
        reg.register("p2");
        let now = Duration::from_secs(100);
        let snap = reg.snapshot_at(now);
        // Both ages are measured against the same instant; the earlier
        // registration is strictly older.
        assert!(snap[0].age_secs > snap[1].age_secs);
        assert!(snap.iter().all(|s| s.age_secs > 99.0));
    }
}
