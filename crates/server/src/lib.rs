//! # adoc-server — a concurrent multi-client adaptive transfer daemon
//!
//! The paper positions AdOC as a drop-in library for data-transfer
//! *middleware* (NetSolve, IBP, GridFTP). This crate supplies the
//! long-lived service those middlewares imply: a daemon that
//! multiplexes many simultaneous AdOC clients — plain v1 single-socket
//! connections on one [`reactor`] thread, v2 striped
//! [`adoc::AdocStreamGroup`]s on a thread per group — through the
//! existing pooled adaptive pipeline, under a **policy layer** the
//! transport itself stays ignorant of:
//!
//! * a [`registry::ConnRegistry`] tracking every connection's lifecycle
//!   and per-connection transfer statistics;
//! * a [`sched::FairScheduler`] enforcing a global wire-bandwidth budget
//!   as per-connection token buckets (plugged in through
//!   [`adoc::Throttle::acquire_wire`]), so one greedy client is paced to
//!   its fair share instead of starving the rest;
//! * one shared [`adoc::BufferPool`] with a bounded idle cap, keeping
//!   steady-state memory O(active connections) rather than O(history);
//! * **admission control** (a max-connections gate that stops polling
//!   the listener — backpressure through the listen backlog);
//! * **graceful drain**: stop accepting, let every in-flight message
//!   finish, then exit — with a hard deadline so a stalled peer cannot
//!   hold shutdown hostage;
//! * a structured [`event`] subsystem: the registry, scheduler, serve
//!   paths, and TCP front end emit a typed [`Event`] vocabulary through
//!   an [`EventBus`] to attached [`Subscriber`]s (one method,
//!   [`Subscriber::on_event`]) — the built-in
//!   [`MetricsSubscriber`] aggregates them into the typed
//!   [`metrics::MetricsDoc`] (`adoc-server-metrics-v2`), the built-in
//!   [`EventLog`] retains a bounded ring of JSON event lines, and user
//!   subscribers attach through [`ServerConfigBuilder::subscriber`];
//! * a [`Control`] surface (drain / budget retune / metrics snapshot)
//!   reachable from serverd's stdin *and* over a minimal embedded HTTP
//!   listener ([`ServerConfigBuilder::metrics_addr`]) serving
//!   `GET /metrics`, `GET /events?since=seq`, `POST /control/drain`,
//!   and `POST /control/budget` — scrapeable by standard tooling with
//!   no sidecar.
//!
//! Two binaries ship with the crate: `adoc-serverd` (the daemon) and
//! `adoc-loadgen` (a load generator driving N concurrent clients over
//! loopback TCP or simulated links).

#![warn(missing_docs)]

pub mod conn;
pub mod control;
pub mod daemon;
pub mod event;
pub mod http;
mod json;
pub mod metrics;
pub mod poll;
pub mod reactor;
pub mod registry;
pub mod sched;
pub mod session;
pub mod trace;
pub mod workers;

pub use conn::{fnv1a64, sink_ack, ServeMode};
pub use control::{parse_command, Command, Control};
pub use daemon::{DaemonHandle, PendingGroups};
pub use event::{Event, EventBus, EventCounts, EventLog, EventMeta, MetricsSubscriber, Subscriber};
pub use http::HttpHandle;
pub use metrics::MetricsDoc;
pub use registry::{ConnOutcome, ConnRegistry, ConnSnapshot, ConnState, RegistryTotals};
pub use sched::{BucketSnapshot, ConnThrottle, FairScheduler, SchedCarryover, Tier};
pub use session::{SessionStats, SessionTable};
pub use trace::{SpanRecord, StageHists, StageSummaries, StageTimes, TraceCenter};
pub use workers::{JobTiming, WorkerGauges, WorkerPool, WorkerStats};

use adoc::{AdocConfig, AdocError, AdocSocket, BufferPool};
use conn::{ConnCtl, DrainState, GuardedReader, RegistryGuard};
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration of a [`Server`]. Build one with
/// [`ServerConfig::builder`], which validates at `build()` time; the
/// fields stay public for inspection.
#[derive(Clone)]
pub struct ServerConfig {
    /// Base AdOC configuration for every connection. Its `pool` is the
    /// daemon-wide shared slab; its `throttle` (if any) is chained
    /// *behind* the fair-share scheduler as a CPU model.
    pub adoc: AdocConfig,
    /// Admission cap: the reactor stops polling the listener
    /// (backpressuring into the listen backlog) while this many
    /// connections are live.
    pub max_conns: usize,
    /// Aggregate wire budget in bytes/second shared fairly across
    /// connections (`None` = unlimited; the scheduler still runs, only
    /// counting bytes).
    pub budget_bytes_per_sec: Option<f64>,
    /// What to do with received messages.
    pub mode: ServeMode,
    /// Once draining, how long in-flight messages get before their
    /// connections are cut mid-frame.
    pub drain_deadline: Duration,
    /// Idle-buffer cap applied to the shared pool (`None` keeps the
    /// pool's own cap).
    pub pool_max_idle: Option<usize>,
    /// Idle-buffer **byte** budget applied to the shared pool: when the
    /// total capacity of idle buffers exceeds it, the largest are
    /// released first, so memory deflates after a big-transfer burst
    /// instead of pinning history (`None` keeps the pool's own budget).
    pub pool_max_idle_bytes: Option<usize>,
    /// Scheduling tier assigned to connections no override matches.
    pub default_tier: Tier,
    /// Peer-prefix tier overrides, first match wins: a connection whose
    /// peer label starts with the prefix is registered at that tier
    /// (e.g. `("10.0.7.", Tier::Paid)`, or a harness label prefix for
    /// [`Server::serve_stream`]).
    pub tier_overrides: Vec<(String, Tier)>,
    /// Listen address for the embedded metrics/control HTTP listener
    /// (`None` = no listener). The TCP front end ([`daemon::spawn`])
    /// binds it; a bare [`Server`] ignores it.
    pub metrics_addr: Option<String>,
    /// Attach the built-in [`MetricsSubscriber`] and [`EventLog`]
    /// (`false` runs the event bus bare — only explicitly added
    /// subscribers see events; the harness uses this to price
    /// instrumentation).
    pub instrument: bool,
    /// Additional user subscribers attached to the event bus.
    pub subscribers: Vec<Arc<dyn Subscriber>>,
    /// Refuse every connection that does not authenticate its session
    /// hello: plaintext v1 connections and new-session hellos without a
    /// MAC are rejected at the handshake, before registry admission.
    /// Requires `auth_secret`.
    pub require_auth: bool,
    /// Shared secret the session ticket key derives from. `Some` makes
    /// tickets verifiable across daemon restarts (and lets clients
    /// pre-compute hello MACs); `None` derives a random per-process
    /// key — resumable sessions still work, but only against this
    /// process, and `require_auth` cannot be enabled.
    pub auth_secret: Option<Vec<u8>>,
    /// How long a detached session stays resumable after its
    /// connection dies; past this the session is reclaimed and its
    /// registry slot freed.
    pub resume_window: Duration,
    /// Lifetime of a minted session ticket. A resume presented after
    /// expiry is refused with `TICKET_EXPIRED` even if the session is
    /// still parked.
    pub ticket_ttl: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            adoc: AdocConfig::default(),
            max_conns: 256,
            budget_bytes_per_sec: None,
            mode: ServeMode::Echo,
            drain_deadline: Duration::from_secs(30),
            pool_max_idle: Some(64),
            pool_max_idle_bytes: Some(64 << 20),
            default_tier: Tier::Bulk,
            tier_overrides: Vec::new(),
            metrics_addr: None,
            instrument: true,
            subscribers: Vec::new(),
            require_auth: false,
            auth_secret: None,
            resume_window: Duration::from_secs(30),
            ticket_ttl: Duration::from_secs(3600),
        }
    }
}

impl std::fmt::Debug for ServerConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerConfig")
            .field("max_conns", &self.max_conns)
            .field("budget_bytes_per_sec", &self.budget_bytes_per_sec)
            .field("mode", &self.mode)
            .field("drain_deadline", &self.drain_deadline)
            .field("pool_max_idle", &self.pool_max_idle)
            .field("pool_max_idle_bytes", &self.pool_max_idle_bytes)
            .field("default_tier", &self.default_tier)
            .field("tier_overrides", &self.tier_overrides)
            .field("metrics_addr", &self.metrics_addr)
            .field("instrument", &self.instrument)
            .field("subscribers", &self.subscribers.len())
            .field("require_auth", &self.require_auth)
            // Never print the secret itself.
            .field("auth_secret", &self.auth_secret.as_ref().map(|_| "<set>"))
            .field("resume_window", &self.resume_window)
            .field("ticket_ttl", &self.ticket_ttl)
            .finish_non_exhaustive()
    }
}

impl ServerConfig {
    /// A validating builder starting from the defaults.
    pub fn builder() -> ServerConfigBuilder {
        ServerConfigBuilder {
            cfg: ServerConfig::default(),
        }
    }
}

/// Validating builder for [`ServerConfig`]:
///
/// ```
/// use adoc_server::{ServerConfig, Tier};
/// let cfg = ServerConfig::builder()
///     .budget(Some(64e6 / 8.0))
///     .default_tier(Tier::Paid)
///     .metrics_addr("127.0.0.1:0")
///     .build()
///     .expect("valid config");
/// assert_eq!(cfg.budget_bytes_per_sec, Some(8e6));
/// ```
///
/// [`ServerConfigBuilder::build`] validates everything
/// [`Server::new`] would otherwise reject (and the budget invariant
/// the scheduler would otherwise assert), returning a typed
/// [`AdocError::InvalidConfig`] instead of a panic or a late I/O error.
#[derive(Debug, Clone)]
pub struct ServerConfigBuilder {
    cfg: ServerConfig,
}

impl ServerConfigBuilder {
    /// Base AdOC configuration for every connection.
    pub fn adoc(mut self, adoc: AdocConfig) -> Self {
        self.cfg.adoc = adoc;
        self
    }

    /// Admission cap (must be ≥ 1).
    pub fn max_conns(mut self, max_conns: usize) -> Self {
        self.cfg.max_conns = max_conns;
        self
    }

    /// Aggregate wire budget in bytes/second (`None` = unlimited).
    pub fn budget(mut self, bytes_per_sec: Option<f64>) -> Self {
        self.cfg.budget_bytes_per_sec = bytes_per_sec;
        self
    }

    /// What to do with received messages.
    pub fn mode(mut self, mode: ServeMode) -> Self {
        self.cfg.mode = mode;
        self
    }

    /// Hard deadline for in-flight messages once draining.
    pub fn drain_deadline(mut self, deadline: Duration) -> Self {
        self.cfg.drain_deadline = deadline;
        self
    }

    /// Idle-buffer cap applied to the shared pool.
    pub fn pool_max_idle(mut self, cap: Option<usize>) -> Self {
        self.cfg.pool_max_idle = cap;
        self
    }

    /// Idle-buffer byte budget applied to the shared pool
    /// (largest-first eviction above it).
    pub fn pool_max_idle_bytes(mut self, budget: Option<usize>) -> Self {
        self.cfg.pool_max_idle_bytes = budget;
        self
    }

    /// Tier assigned to connections no override matches.
    pub fn default_tier(mut self, tier: Tier) -> Self {
        self.cfg.default_tier = tier;
        self
    }

    /// Adds a peer-prefix tier override (first match wins).
    pub fn tier_override(mut self, peer_prefix: impl Into<String>, tier: Tier) -> Self {
        self.cfg.tier_overrides.push((peer_prefix.into(), tier));
        self
    }

    /// Listen address for the embedded metrics/control HTTP listener.
    pub fn metrics_addr(mut self, addr: impl Into<String>) -> Self {
        self.cfg.metrics_addr = Some(addr.into());
        self
    }

    /// Enables/disables the built-in metrics and event-log subscribers
    /// (default on).
    pub fn instrument(mut self, on: bool) -> Self {
        self.cfg.instrument = on;
        self
    }

    /// Attaches a user [`Subscriber`] to the event bus.
    pub fn subscriber(mut self, sub: Arc<dyn Subscriber>) -> Self {
        self.cfg.subscribers.push(sub);
        self
    }

    /// Refuse unauthenticated hellos at the handshake (requires an
    /// `auth_secret`).
    pub fn require_auth(mut self, on: bool) -> Self {
        self.cfg.require_auth = on;
        self
    }

    /// Shared secret the session ticket key derives from.
    pub fn auth_secret(mut self, secret: impl Into<Vec<u8>>) -> Self {
        self.cfg.auth_secret = Some(secret.into());
        self
    }

    /// How long a detached session stays resumable (must be > 0).
    pub fn resume_window(mut self, window: Duration) -> Self {
        self.cfg.resume_window = window;
        self
    }

    /// Lifetime of minted session tickets (must be > 0).
    pub fn ticket_ttl(mut self, ttl: Duration) -> Self {
        self.cfg.ticket_ttl = ttl;
        self
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> Result<ServerConfig, AdocError> {
        let cfg = self.cfg;
        cfg.adoc.validate()?;
        let budget = cfg.budget_bytes_per_sec.unwrap_or(1.0);
        let bad_budget = format!("budget_bytes_per_sec must be positive and finite, got {budget}");
        let violations = [
            (cfg.max_conns == 0, "max_conns must be >= 1"),
            (!(budget > 0.0 && budget.is_finite()), bad_budget.as_str()),
            (
                cfg.metrics_addr
                    .as_ref()
                    .is_some_and(|a| a.trim().is_empty()),
                "metrics_addr must not be empty",
            ),
            (
                cfg.require_auth && cfg.auth_secret.is_none(),
                "require_auth needs an auth_secret (a random per-process key \
                 would refuse every client that cannot know it)",
            ),
            (cfg.resume_window.is_zero(), "resume_window must be > 0"),
            (cfg.ticket_ttl.is_zero(), "ticket_ttl must be > 0"),
        ];
        if let Some((_, reason)) = violations.iter().find(|(violated, _)| *violated) {
            return Err(AdocError::InvalidConfig {
                reason: (*reason).into(),
            });
        }
        Ok(cfg)
    }
}

/// One served message as its serve path measured it — the input of
/// [`Server::message_served`].
pub(crate) struct ServedMessage<'a> {
    /// Raw payload bytes of the received message.
    pub raw_bytes: u64,
    /// Wire bytes of the reply.
    pub reply_wire_bytes: u64,
    /// The connection's send-path statistics after the reply.
    pub stats: &'a adoc::TransferStats,
    /// Where the message's time went, if the path measured it.
    pub times: Option<StageTimes>,
    /// `times` began at the message's first byte, so its total may be
    /// judged against the slow-request threshold. The reactor's spans
    /// do; a blocking receive also counts the client's think-time
    /// before the message and never is.
    pub from_first_byte: bool,
}

/// The daemon core: registry + scheduler + shared pool + event bus +
/// drain state. Transport-agnostic — the TCP front end lives in
/// [`daemon`], and [`Server::serve_stream`] drives any `Read`/`Write`
/// pair (the tests run it over simulated links).
pub struct Server {
    cfg: ServerConfig,
    registry: ConnRegistry,
    sched: FairScheduler,
    drain: Arc<DrainState>,
    bus: Arc<EventBus>,
    metrics_sub: Arc<MetricsSubscriber>,
    event_log: Arc<EventLog>,
    /// Worker-pool gauges: the reactor's [`WorkerPool`] updates them
    /// while it runs; the metrics document reads them unconditionally.
    worker_gauges: Arc<WorkerGauges>,
    /// Per-message stage-latency layer: the server-wide histograms
    /// behind `GET /latency`, and per connection only a ring of recent
    /// spans, which `GET /trace?conn=ID` summarizes when read.
    tracer: TraceCenter,
    /// Pool evictions already reported as [`Event::PoolEvict`] — the
    /// pool counter is monotonic, so the delta since this watermark is
    /// what a new event carries.
    evictions_seen: AtomicU64,
    /// Key session tickets are minted and verified under: derived from
    /// `auth_secret` when configured, else random per-process.
    ticket_key: adoc::TicketKey,
    /// Parked (detached) sessions awaiting a reconnect, plus the
    /// session id mint and lifetime counters.
    sessions: SessionTable,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("cfg", &self.cfg)
            .field("live", &self.registry.live_count())
            .field("draining", &self.is_draining())
            .finish()
    }
}

/// Retention capacity of the built-in [`EventLog`] ring buffer.
const EVENT_LOG_CAP: usize = 1024;
/// Spans retained per connection by the [`TraceCenter`]'s flight
/// recorder (the `GET /trace?conn=ID` ring).
const TRACE_RING_CAP: usize = 64;
/// End-to-end latency above which a traced message additionally emits
/// [`Event::SlowRequest`] with its full stage span.
const SLOW_REQUEST_THRESHOLD: Duration = Duration::from_secs(1);

impl Server {
    /// Builds a server, validating the embedded AdOC configuration and
    /// applying the pool idle cap. Prefer constructing the config with
    /// [`ServerConfig::builder`], which reports the same violations as
    /// typed errors before this point.
    pub fn new(cfg: ServerConfig) -> io::Result<Arc<Server>> {
        // Re-validate here too: struct-literal construction is still
        // possible (the fields are public), and the scheduler would
        // otherwise panic on a bad budget.
        let cfg = ServerConfigBuilder { cfg }.build()?;
        if let Some(cap) = cfg.pool_max_idle {
            cfg.adoc.pool.set_max_idle(cap);
        }
        if let Some(budget) = cfg.pool_max_idle_bytes {
            cfg.adoc.pool.set_max_idle_bytes(budget);
        }
        let metrics_sub = Arc::new(MetricsSubscriber::new());
        let event_log = Arc::new(EventLog::new(EVENT_LOG_CAP));
        let mut subs: Vec<Arc<dyn Subscriber>> = Vec::new();
        if cfg.instrument {
            subs.push(metrics_sub.clone());
            subs.push(event_log.clone());
        }
        subs.extend(cfg.subscribers.iter().cloned());
        let bus = Arc::new(EventBus::new(subs));
        let registry = ConnRegistry::with_bus(Arc::clone(&bus));
        let sched = FairScheduler::with_bus(cfg.budget_bytes_per_sec, Arc::clone(&bus));
        let tracer = TraceCenter::new(TRACE_RING_CAP);
        let ticket_key = match &cfg.auth_secret {
            Some(secret) => adoc::TicketKey::from_secret(secret),
            None => adoc::TicketKey::random(),
        };
        Ok(Arc::new(Server {
            ticket_key,
            sessions: SessionTable::default(),
            cfg,
            tracer,
            registry,
            sched,
            drain: Arc::new(DrainState::default()),
            bus,
            metrics_sub,
            event_log,
            worker_gauges: Arc::new(WorkerGauges::default()),
            evictions_seen: AtomicU64::new(0),
        }))
    }

    /// Server configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.cfg
    }

    /// The connection registry.
    pub fn registry(&self) -> &ConnRegistry {
        &self.registry
    }

    /// The fair-share scheduler.
    pub fn scheduler(&self) -> &FairScheduler {
        &self.sched
    }

    /// The session table (parked sessions + lifetime counters).
    pub fn sessions(&self) -> &SessionTable {
        &self.sessions
    }

    /// The key session tickets are minted and verified under.
    pub(crate) fn ticket_key(&self) -> &adoc::TicketKey {
        &self.ticket_key
    }

    /// The event bus every producer in this server emits through. Its
    /// [`EventBus::now`] is the single monotonic time source behind
    /// the metrics document's `uptime_secs`, connection ages, and event
    /// timestamps.
    pub fn events(&self) -> &EventBus {
        &self.bus
    }

    /// An owning handle on the event bus, for components that outlive a
    /// borrow of the server (the reactor's worker pool).
    pub(crate) fn events_shared(&self) -> Arc<EventBus> {
        Arc::clone(&self.bus)
    }

    /// The built-in bounded event log (empty if instrumentation is
    /// off).
    pub fn event_log(&self) -> &EventLog {
        &self.event_log
    }

    /// Lifetime event counts from the built-in [`MetricsSubscriber`]
    /// (all zero if instrumentation is off).
    pub fn event_counts(&self) -> EventCounts {
        self.metrics_sub.counts()
    }

    /// The daemon-wide shared buffer pool.
    pub fn pool(&self) -> &BufferPool {
        &self.cfg.adoc.pool
    }

    /// The per-message stage-latency layer (server-wide histograms +
    /// per-connection flight recorders). Serving paths record into it only when
    /// [`ServerConfig::instrument`] is on; it always answers reads.
    pub fn tracer(&self) -> &TraceCenter {
        &self.tracer
    }

    /// The worker-pool gauge block (shared with the reactor's
    /// [`WorkerPool`] while one runs).
    pub fn worker_gauges(&self) -> &Arc<WorkerGauges> {
        &self.worker_gauges
    }

    /// Snapshot of the codec worker pool (all zeros when no reactor is
    /// running — e.g. a bare [`Server::serve_stream`] embedder).
    pub fn worker_stats(&self) -> workers::WorkerStats {
        self.worker_gauges.snapshot()
    }

    /// What the server does with received messages.
    pub fn mode(&self) -> ServeMode {
        self.cfg.mode
    }

    /// Starts a graceful drain: live connections finish their in-flight
    /// message (bounded by the drain deadline) and no new messages are
    /// served. The TCP front end additionally stops accepting.
    /// Idempotent; [`Event::DrainStarted`] fires only on the first call.
    pub fn begin_drain(&self) {
        let started = self.drain.begin(Instant::now() + self.cfg.drain_deadline);
        self.registry.mark_all_draining();
        if started {
            self.bus.emit(Event::DrainStarted);
        }
    }

    /// True once a drain has started.
    pub fn is_draining(&self) -> bool {
        self.drain.is_draining()
    }

    /// Blocks (no polling — a condvar signalled by [`Server::begin_drain`])
    /// until a drain begins, or until `timeout` elapses when one is
    /// given. Returns whether the server is draining.
    pub fn wait_until_draining(&self, timeout: Option<Duration>) -> bool {
        self.drain.wait_draining(timeout)
    }

    pub(crate) fn drain_state(&self) -> Arc<DrainState> {
        Arc::clone(&self.drain)
    }

    /// Emits [`Event::PoolEvict`] for evictions since the last check.
    /// Skips the pool-stats read entirely when nothing subscribes.
    pub(crate) fn note_pool_evictions(&self) {
        if !self.bus.is_active() {
            return;
        }
        let evicted = self.pool().stats().evicted;
        let seen = self.evictions_seen.swap(evicted, Ordering::Relaxed);
        if evicted > seen {
            self.bus.emit(Event::PoolEvict {
                evicted: evicted - seen,
            });
        }
    }

    /// The post-message epilogue every serve path runs once a reply's
    /// last byte is written: registry counters, the stage-latency layer,
    /// then the message's events. `last_level` is the send level this
    /// connection was last seen at — a change becomes an
    /// [`Event::LevelChange`]; the first observation is a baseline.
    pub(crate) fn message_served(
        &self,
        id: registry::ConnId,
        msg: ServedMessage<'_>,
        last_level: &mut Option<u8>,
    ) {
        let (raw_bytes, reply_wire_bytes) = (msg.raw_bytes, msg.reply_wire_bytes);
        self.registry
            .update(id, raw_bytes, reply_wire_bytes, msg.stats);
        if let Some(times) = msg.times.filter(|_| self.cfg.instrument) {
            self.tracer
                .record(id, raw_bytes, self.bus.now().as_secs_f64(), &times);
        }
        self.bus.emit(Event::MessageServed {
            conn: id,
            raw_bytes,
            reply_wire_bytes,
            times: msg.times.unwrap_or_default(),
        });
        let slow_us = SLOW_REQUEST_THRESHOLD.as_micros() as u64;
        let judged = msg.times.filter(|_| msg.from_first_byte);
        if let Some(times) = judged.filter(|t| t.total_us > slow_us) {
            self.bus.emit(Event::SlowRequest {
                conn: id,
                raw_bytes,
                times,
            });
        }
        if !self.bus.is_active() {
            return;
        }
        if let Some(&adoc::LevelEvent { level, reason, .. }) = msg.stats.level_timeline.last() {
            if let Some(from) = last_level.filter(|&prev| prev != level) {
                self.bus.emit(Event::LevelChange {
                    conn: id,
                    from,
                    to: level,
                    reason,
                });
            }
            *last_level = Some(level);
        }
        self.note_pool_evictions();
    }

    /// Reclaims detached sessions that can no longer resume (their
    /// window lapsed, or the daemon is shutting down): the client that
    /// never came back is a failure, and its registry slot is freed.
    pub(crate) fn reclaim_sessions(&self, lapsed: Vec<(u64, session::ParkedSession)>) {
        for (session_id, parked) in lapsed {
            self.bus.emit(Event::SessionExpired {
                conn: parked.conn,
                session_id,
            });
            self.registry.remove(parked.conn, ConnOutcome::Failed);
        }
    }

    /// Scheduling tier for a connection labelled `peer`: the first
    /// matching peer-prefix override, else the default tier.
    pub fn tier_for(&self, peer: &str) -> Tier {
        self.cfg
            .tier_overrides
            .iter()
            .find(|(prefix, _)| peer.starts_with(prefix.as_str()))
            .map(|&(_, tier)| tier)
            .unwrap_or(self.cfg.default_tier)
    }

    /// Builds the per-connection AdOC config: shared pool, scheduler
    /// throttle at the peer's tier (chained over the base config's CPU
    /// throttle), stream count.
    pub(crate) fn conn_config(
        &self,
        id: registry::ConnId,
        streams: usize,
        peer: &str,
    ) -> AdocConfig {
        let throttle = self.sched.register_with(id, self.tier_for(peer));
        self.conn_config_with(streams, throttle)
    }

    /// Like [`Server::conn_config`], but for a **resumed** session: the
    /// scheduler bucket is rebuilt from the carried-over state (tier,
    /// token balance, lifetime admitted bytes) instead of a
    /// fresh registration, so the reconnect is invisible to fairness
    /// accounting and the metrics document's per-connection counters.
    pub(crate) fn conn_config_resumed(
        &self,
        id: registry::ConnId,
        streams: usize,
        co: sched::SchedCarryover,
    ) -> AdocConfig {
        self.conn_config_with(streams, self.sched.restore(id, co))
    }

    fn conn_config_with(&self, streams: usize, throttle: ConnThrottle) -> AdocConfig {
        let base = self.cfg.adoc.clone();
        let throttle = throttle.with_cpu(Arc::clone(&base.throttle));
        base.with_throttle(Arc::new(throttle)).with_streams(streams)
    }

    /// Serves one already-connected v1 client over any `Read`/`Write`
    /// pair (the transport-agnostic entry the tests use with
    /// simulated links; the TCP daemon adds sniffing, timeouts and
    /// grouping on top). Blocks until the client closes, the server
    /// drains at a message boundary, or an error occurs; returns the
    /// number of messages served.
    pub fn serve_stream<R, W>(&self, reader: R, writer: W, peer: &str) -> io::Result<u64>
    where
        R: Read + Send,
        W: Write + Send,
    {
        let id = self.registry.register(peer);
        let _ghostbuster = RegistryGuard::new(self, id);
        let cfg = self.conn_config(id, 1, peer);
        self.registry.activate(id, 1);
        let ctl = ConnCtl::new(self.drain_state());
        let guarded = GuardedReader::new(reader, Arc::clone(&ctl), true);
        let mut sock = match AdocSocket::with_config(guarded, writer, cfg) {
            Ok(s) => s,
            Err(e) => {
                self.registry.remove(id, ConnOutcome::Failed);
                return Err(e);
            }
        };
        conn::serve_messages(self, id, &mut sock, &ctl)
    }

    /// On-demand typed snapshot of registry, scheduler, pool, and
    /// event state — the structured form behind both JSON renderings.
    pub fn metrics_doc(&self) -> MetricsDoc {
        MetricsDoc::collect(self)
    }

    /// On-demand JSON snapshot of registry, scheduler, pool, and event
    /// state (schema `adoc-server-metrics-v2`). For the typed form,
    /// use [`Server::metrics_doc`].
    pub fn metrics_json(&self) -> String {
        MetricsDoc::collect(self).to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adoc_sim::pipe::duplex_pipe;
    use std::thread;

    #[test]
    fn serve_stream_echoes_until_eof() {
        let server = Server::new(ServerConfig::default()).unwrap();
        let (client_end, server_end) = duplex_pipe(1 << 20);
        let (sr, sw) = server_end.split();
        let s2 = Arc::clone(&server);
        let serving = thread::spawn(move || s2.serve_stream(sr, sw, "pipe-client"));

        let (cr, cw) = client_end.split();
        let mut client = AdocSocket::new(cr, cw);
        for len in [10usize, 100_000, 700_000] {
            let msg: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            client.write(&msg).unwrap();
            let mut back = vec![0u8; len];
            client.read_exact(&mut back).unwrap();
            assert_eq!(back, msg, "echo must be byte-exact at {len}");
        }
        drop(client);
        let served = serving.join().unwrap().unwrap();
        assert_eq!(served, 3);
        assert_eq!(server.registry().totals().completed, 1);
        assert_eq!(server.registry().totals().messages, 3);
        assert_eq!(server.registry().live_count(), 0);
        assert_eq!(server.scheduler().active(), 0, "throttle must deregister");
        assert_eq!(server.pool().stats().outstanding, 0);
        // The built-in subscribers watched the whole lifecycle.
        let counts = server.event_counts();
        assert_eq!(counts.conns_accepted, 1);
        assert_eq!(counts.conns_admitted, 1);
        assert_eq!(counts.messages_served, 3);
        assert_eq!(counts.conns_closed, 1);
        assert!(server.event_log().len() >= 6);
    }

    #[test]
    fn sink_mode_acks_with_checksum() {
        let cfg = ServerConfig::builder()
            .mode(ServeMode::Sink)
            .build()
            .unwrap();
        let server = Server::new(cfg).unwrap();
        let (client_end, server_end) = duplex_pipe(1 << 20);
        let (sr, sw) = server_end.split();
        let s2 = Arc::clone(&server);
        let serving = thread::spawn(move || s2.serve_stream(sr, sw, "pipe-client"));

        let (cr, cw) = client_end.split();
        let mut client = AdocSocket::new(cr, cw);
        let msg = b"sinked payload ".repeat(1000);
        client.write(&msg).unwrap();
        let mut ack = [0u8; 16];
        client.read_exact(&mut ack).unwrap();
        assert_eq!(ack, sink_ack(msg.len() as u64, fnv1a64(&msg)));
        drop(client);
        serving.join().unwrap().unwrap();
    }

    #[test]
    fn invalid_server_config_is_a_typed_error() {
        let err = ServerConfig::builder()
            .adoc(AdocConfig::default().with_streams(0))
            .build()
            .expect_err("zero streams must be rejected");
        assert!(matches!(err, AdocError::InvalidConfig { .. }));
        let err = ServerConfig::builder().max_conns(0).build().unwrap_err();
        assert!(err.to_string().contains("max_conns"));
        let err = ServerConfig::builder()
            .budget(Some(-2.0))
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("budget"));
        // Struct-literal construction reports the same violations
        // through Server::new.
        let err = Server::new(ServerConfig {
            max_conns: 0,
            ..ServerConfig::default()
        })
        .unwrap_err();
        assert!(err.to_string().contains("max_conns"));
        assert!(matches!(
            AdocError::from_io(&err),
            Some(AdocError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn pool_idle_cap_is_applied() {
        let cfg = ServerConfig::builder()
            .pool_max_idle(Some(7))
            .pool_max_idle_bytes(Some(3 << 20))
            .build()
            .unwrap();
        let server = Server::new(cfg).unwrap();
        assert_eq!(server.pool().max_idle(), 7);
        assert_eq!(server.pool().max_idle_bytes(), 3 << 20);
    }

    #[test]
    fn builder_covers_every_knob() {
        let cfg = ServerConfig::builder()
            .max_conns(3)
            .budget(Some(1e6))
            .mode(ServeMode::Sink)
            .drain_deadline(Duration::from_secs(2))
            .pool_max_idle(None)
            .pool_max_idle_bytes(Some(8 << 20))
            .default_tier(Tier::Paid)
            .tier_override("vip-", Tier::Control)
            .metrics_addr("127.0.0.1:0")
            .instrument(false)
            .build()
            .unwrap();
        assert_eq!(cfg.max_conns, 3);
        assert_eq!(cfg.pool_max_idle_bytes, Some(8 << 20));
        assert_eq!(cfg.budget_bytes_per_sec, Some(1e6));
        assert_eq!(cfg.mode, ServeMode::Sink);
        assert_eq!(cfg.default_tier, Tier::Paid);
        assert_eq!(
            cfg.tier_overrides,
            vec![("vip-".to_string(), Tier::Control)]
        );
        assert_eq!(cfg.metrics_addr.as_deref(), Some("127.0.0.1:0"));
        assert!(!cfg.instrument);
    }

    #[test]
    fn uninstrumented_server_emits_nothing() {
        let cfg = ServerConfig::builder().instrument(false).build().unwrap();
        let server = Server::new(cfg).unwrap();
        let (client_end, server_end) = duplex_pipe(1 << 20);
        let (sr, sw) = server_end.split();
        let s2 = Arc::clone(&server);
        let serving = thread::spawn(move || s2.serve_stream(sr, sw, "pipe-client"));
        let (cr, cw) = client_end.split();
        let mut client = AdocSocket::new(cr, cw);
        client.write(b"hello").unwrap();
        let mut back = [0u8; 5];
        client.read_exact(&mut back).unwrap();
        drop(client);
        serving.join().unwrap().unwrap();
        assert_eq!(server.events().last_seq(), 0);
        assert_eq!(server.event_counts(), EventCounts::default());
        assert!(server.event_log().is_empty());
    }
}
