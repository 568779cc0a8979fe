//! Typed metrics: one [`MetricsDoc`] snapshot describing the whole
//! daemon — registry, scheduler buckets, shared pool, event layer —
//! collected from read-only snapshots (a metrics poll cannot stall
//! admissions or mutate pacing state).
//!
//! Every number in one document is taken against a **single** "now"
//! read once from the server's [`crate::EventBus::now`]: `uptime_secs`,
//! per-connection ages, and event timestamps can never disagree about
//! what time it is.
//!
//! [`MetricsDoc::to_json`] renders it as the `adoc-server-metrics-v2`
//! document: `uptime_secs`, `draining`, `mode`, `budget_bytes_per_sec`,
//! one object per section keyed by its struct's field names, and one row
//! per live connection; `crates/server/tests/golden/metrics_full.json`
//! is a complete example.
//!
//! A connection row's `level_bps` is what its §5 divergence guard judges
//! by: per level, the slower of wire and compressor. The deprecated
//! `adoc-server-metrics-v1` rendering has been removed; v2 is the only
//! schema.

use crate::event::EventCounts;
use crate::json::{self, Fields, Fixed, Object, DOCUMENT, PADDED};
use crate::registry::{ConnId, RegistryTotals};
use crate::sched::{BucketSnapshot, Tier};
use crate::session::SessionStats;
use crate::trace::StageSummaries;
use crate::workers::WorkerStats;
use crate::{ServeMode, Server};
use std::collections::HashMap;

/// Scheduler section of a metrics document.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedMetrics {
    /// The scheduler redistributes unused share (always true for the
    /// fair scheduler; kept for schema stability).
    pub work_conserving: bool,
    /// Bytes admitted through the shared drain bucket.
    pub drain_admitted: u64,
    /// Lifetime wire bytes admitted across every connection and path
    /// (including the unlimited fast path).
    pub total_admitted: u64,
    /// Fraction of the scheduler's granted admission capacity actually
    /// consumed ([`crate::FairScheduler::utilization`]): paced
    /// admissions net of outstanding debt over burst grants plus the
    /// budget integral — exact, pinned ≤ 1.0. `None` when unlimited.
    pub utilization: Option<f64>,
    /// Connections currently parked in the reactor on a throttle
    /// refusal (nonblocking admissions awaiting refill credit).
    pub parked_on_throttle: usize,
}

/// Event-layer section of a metrics document.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventsMetrics {
    /// Sequence number of the most recently emitted event.
    pub last_seq: u64,
    /// Events currently retained in the built-in [`crate::EventLog`].
    pub log_len: usize,
    /// Events overwritten out of the ring because it was full.
    pub log_dropped: u64,
    /// Subscribers detached after panicking.
    pub subscribers_poisoned: usize,
    /// Lifetime counts aggregated by the built-in
    /// [`crate::MetricsSubscriber`].
    pub counts: EventCounts,
}

/// Per-stage latency section of a metrics document, aggregated over
/// every traced message since startup (all zeros when the server runs
/// uninstrumented).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyMetrics {
    /// Messages recorded into the server-wide stage histograms.
    pub messages: u64,
    /// Percentile summaries for each pipeline stage.
    pub stages: StageSummaries,
}

/// Shared-pool section of a metrics document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolMetrics {
    /// Buffer requests served from the idle list.
    pub hits: u64,
    /// Buffer requests that had to allocate.
    pub misses: u64,
    /// Buffers returned to the pool.
    pub returns: u64,
    /// Idle buffers released to the allocator (cap pressure).
    pub evicted: u64,
    /// Buffers currently checked out (negative only if returns raced a
    /// stats read).
    pub outstanding: i64,
    /// High-water mark of `outstanding`.
    pub peak_outstanding: i64,
    /// Buffers currently idle in the pool.
    pub idle: usize,
    /// Idle-buffer cap.
    pub max_idle: usize,
    /// Total capacity of idle buffers, in bytes.
    pub idle_bytes: usize,
}

/// One connection's row in a metrics document.
#[derive(Debug, Clone, PartialEq)]
pub struct ConnMetrics {
    /// Registry id.
    pub id: ConnId,
    /// Peer address or transport label.
    pub peer: String,
    /// Lifecycle state name (`"handshaking"`, `"active"`, …).
    pub state: &'static str,
    /// Streams in the connection's group.
    pub streams: usize,
    /// Messages served so far.
    pub messages: u64,
    /// Raw payload bytes received.
    pub raw_bytes: u64,
    /// Wire bytes of replies sent.
    pub reply_wire_bytes: u64,
    /// Seconds since registration (on the document's shared "now").
    pub age_secs: f64,
    /// Wire bytes admitted by the connection's scheduler bucket.
    pub sched_admitted: u64,
    /// Scheduling tier.
    pub sched_tier: Tier,
    /// Scheduling weight.
    pub sched_weight: f64,
    /// Visible bandwidth by compression level (index = level), raw bits/s:
    /// the slower of wire and compressor, as `adoc::TransferStats::level_bps`
    /// defines it. Zero entries are elided when rendered.
    pub level_bps: [f64; 11],
    /// §5 ratio-guard trips of the connection's replies so far.
    pub ratio_trips: u64,
}

/// A complete, typed metrics snapshot (see the module docs for the
/// rendered schema). Collect one with [`MetricsDoc::collect`]; render
/// with [`MetricsDoc::to_json`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsDoc {
    /// Seconds since the server was created.
    pub uptime_secs: f64,
    /// True once a drain has started.
    pub draining: bool,
    /// What the server does with received messages.
    pub mode: ServeMode,
    /// Aggregate wire budget (`None` = unlimited).
    pub budget_bytes_per_sec: Option<f64>,
    /// Scheduler section.
    pub sched: SchedMetrics,
    /// Session-layer section (ticket mints, resumes, rejections, and
    /// the parked gauge).
    pub sessions: SessionStats,
    /// Event-layer section.
    pub events: EventsMetrics,
    /// Codec worker-pool section (all zeros when no reactor runs).
    pub workers: WorkerStats,
    /// Per-stage latency section.
    pub latency: LatencyMetrics,
    /// Registry lifetime totals.
    pub totals: RegistryTotals,
    /// Shared-pool section.
    pub pool: PoolMetrics,
    /// Per-connection rows, sorted by id.
    pub connections: Vec<ConnMetrics>,
}

/// Schema identifier of [`MetricsDoc::to_json`].
pub const SCHEMA_V2: &str = "adoc-server-metrics-v2";

impl MetricsDoc {
    /// Snapshots `server` into a typed document. Reads "now" once from
    /// the server's event clock and derives every age and rate from it.
    pub fn collect(server: &Server) -> MetricsDoc {
        let now = server.events().now();
        let pool_stats = server.pool().stats();
        let buckets: HashMap<u64, BucketSnapshot> = server
            .scheduler()
            .snapshot()
            .into_iter()
            .map(|b| (b.conn, b))
            .collect();
        let connections = server
            .registry()
            .snapshot_at(now)
            .into_iter()
            .map(|c| {
                let bucket = buckets.get(&c.id);
                ConnMetrics {
                    id: c.id,
                    state: c.state.name(),
                    streams: c.streams,
                    messages: c.messages,
                    raw_bytes: c.raw_bytes,
                    reply_wire_bytes: c.reply_wire_bytes,
                    age_secs: c.age_secs,
                    sched_admitted: bucket.map_or(0, |b| b.admitted),
                    sched_tier: bucket.map_or(Tier::Bulk, |b| b.tier),
                    sched_weight: bucket.map_or(1.0, |b| b.weight),
                    level_bps: c.level_bps,
                    ratio_trips: c.ratio_trips,
                    peer: c.peer,
                }
            })
            .collect();
        MetricsDoc {
            uptime_secs: now.as_secs_f64(),
            draining: server.is_draining(),
            mode: server.mode(),
            budget_bytes_per_sec: server.scheduler().budget(),
            sched: SchedMetrics {
                work_conserving: true,
                drain_admitted: server.scheduler().drain_snapshot().admitted,
                total_admitted: server.scheduler().total_admitted(),
                utilization: server.scheduler().utilization(),
                parked_on_throttle: server.scheduler().parked(),
            },
            sessions: server.sessions().stats(),
            workers: server.worker_stats(),
            latency: LatencyMetrics {
                messages: server.tracer().messages(),
                stages: server.tracer().global().summaries(),
            },
            events: EventsMetrics {
                last_seq: server.events().last_seq(),
                log_len: server.event_log().len(),
                log_dropped: server.event_log().dropped(),
                subscribers_poisoned: server.events().poisoned(),
                counts: server.event_counts(),
            },
            totals: server.registry().totals(),
            pool: PoolMetrics {
                hits: pool_stats.hits,
                misses: pool_stats.misses,
                returns: pool_stats.returns,
                evicted: pool_stats.evicted,
                outstanding: pool_stats.outstanding,
                peak_outstanding: pool_stats.peak_outstanding,
                idle: server.pool().idle(),
                max_idle: server.pool().max_idle(),
                idle_bytes: server.pool().idle_bytes(),
            },
            connections,
        }
    }

    /// Renders the current (`adoc-server-metrics-v2`) JSON document.
    pub fn to_json(&self) -> String {
        json::render(DOCUMENT, 1024, |o| self.fields(o))
    }
}

impl Fields for MetricsDoc {
    fn fields(&self, o: &mut Object<'_>) {
        let mode = match self.mode {
            ServeMode::Echo => "echo",
            ServeMode::Sink => "sink",
        };
        o.field("schema", SCHEMA_V2)
            .field("uptime_secs", Fixed(self.uptime_secs, 3))
            .next_sep(", ")
            .field("draining", self.draining)
            .next_sep(", ")
            .field("mode", mode)
            .field(
                "budget_bytes_per_sec",
                self.budget_bytes_per_sec.map(|b| Fixed(b, 1)),
            )
            .record("sched", PADDED, &self.sched)
            .record("sessions", PADDED, &self.sessions)
            .record("events", PADDED, &self.events)
            .record("workers", PADDED, &self.workers)
            .record("latency", PADDED, &self.latency)
            .record("totals", PADDED, &self.totals)
            .record("pool", PADDED, &self.pool)
            .rows("connections", &self.connections);
    }
}

impl Fields for SchedMetrics {
    fn fields(&self, o: &mut Object<'_>) {
        o.field("work_conserving", self.work_conserving)
            .field("drain_admitted", self.drain_admitted)
            .field("total_admitted", self.total_admitted)
            .field("utilization", self.utilization.map(|u| Fixed(u, 4)))
            .field("parked_on_throttle", self.parked_on_throttle);
    }
}

impl Fields for EventsMetrics {
    fn fields(&self, o: &mut Object<'_>) {
        o.field("last_seq", self.last_seq)
            .field("log_len", self.log_len)
            .field("log_dropped", self.log_dropped)
            .field("subscribers_poisoned", self.subscribers_poisoned)
            .next_sep(",\n    ")
            .record("counts", PADDED, &self.counts);
    }
}

impl Fields for LatencyMetrics {
    fn fields(&self, o: &mut Object<'_>) {
        o.field("messages", self.messages);
        self.stages.fields(o);
    }
}

json::plain_fields! {
    SessionStats: minted, resumed, rejected, expired, parked;
    WorkerStats: threads, queued, in_flight, completed, panics, queue_peak;
    RegistryTotals: accepted, completed, failed, handshake_failures, messages, raw_bytes,
        reply_wire_bytes;
    PoolMetrics: hits, misses, returns, evicted, outstanding, peak_outstanding, idle, max_idle,
        idle_bytes;
}

impl Fields for ConnMetrics {
    fn fields(&self, o: &mut Object<'_>) {
        o.field("id", self.id)
            .field("peer", self.peer.as_str())
            .field("state", self.state)
            .field("streams", self.streams)
            .field("messages", self.messages)
            .field("raw_bytes", self.raw_bytes)
            .field("reply_wire_bytes", self.reply_wire_bytes)
            .field("age_secs", Fixed(self.age_secs, 3))
            .field("sched_admitted", self.sched_admitted)
            .field("sched_tier", self.sched_tier.name())
            .field("sched_weight", Fixed(self.sched_weight, 2))
            .object("level_bps", PADDED, |levels| {
                for (level, &bps) in self.level_bps.iter().enumerate() {
                    if bps > 0.0 {
                        levels.field(&level.to_string(), Fixed(bps, 0));
                    }
                }
            })
            .field("ratio_trips", self.ratio_trips);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Server, ServerConfig};

    #[test]
    fn v2_document_has_every_section() {
        let server = Server::new(ServerConfig {
            budget_bytes_per_sec: Some(5e6),
            ..ServerConfig::default()
        })
        .unwrap();
        let id = server.registry().register("127.0.0.1:9\"quote");
        server.registry().activate(id, 2);
        let doc = server.metrics_json();
        for needle in [
            "\"schema\": \"adoc-server-metrics-v2\"",
            "\"budget_bytes_per_sec\": 5000000.0",
            "\"work_conserving\": true",
            "\"drain_admitted\": 0",
            "\"total_admitted\": 0",
            "\"utilization\": 0.0000",
            "\"parked_on_throttle\": 0",
            "\"sessions\": { \"minted\": 0, \"resumed\": 0, \"rejected\": 0, \"expired\": 0, \"parked\": 0 }",
            "\"workers\": { \"threads\": 0, \"queued\": 0, \"in_flight\": 0",
            "\"reactor_ticks\": 0",
            "\"worker_queue_peak\": 0",
            "\"slow_requests\": 0",
            "\"latency\": { \"messages\": 0",
            "\"sched_wait\": { \"count\": 0",
            "\"total\": { \"count\": 0",
            "\"events\":",
            "\"last_seq\":",
            "\"subscribers_poisoned\": 0",
            "\"conns_accepted\": 1",
            "\"totals\":",
            "\"pool\":",
            "\"peak_outstanding\"",
            "\"evicted\"",
            "\"connections\": [",
            "\"state\": \"active\"",
            "\"sched_tier\": \"bulk\"",
            "\"sched_weight\": 1.00",
            "\"level_bps\": {  }, \"ratio_trips\": 0",
            "\\\"quote", // escaping
        ] {
            assert!(doc.contains(needle), "missing {needle} in:\n{doc}");
        }
    }

    #[test]
    fn typed_doc_and_json_agree() {
        let server = Server::new(ServerConfig {
            budget_bytes_per_sec: Some(1e6),
            ..ServerConfig::default()
        })
        .unwrap();
        let id = server.registry().register("peer-a");
        server.registry().activate(id, 4);
        let doc = MetricsDoc::collect(&server);
        assert_eq!(doc.connections.len(), 1);
        assert_eq!(doc.connections[0].streams, 4);
        assert_eq!(doc.connections[0].peer, "peer-a");
        assert_eq!(doc.budget_bytes_per_sec, Some(1e6));
        assert_eq!(doc.sched.total_admitted, 0);
        assert_eq!(doc.sched.utilization, Some(0.0));
        assert_eq!(doc.events.counts.conns_admitted, 1);
        let json = doc.to_json();
        assert!(json.contains("\"streams\": 4"), "{json}");
    }

    #[test]
    fn tier_overrides_show_up_in_metrics() {
        use crate::Tier;
        let server = Server::new(ServerConfig {
            budget_bytes_per_sec: Some(1e9),
            tier_overrides: vec![("vip-".into(), Tier::Control)],
            ..ServerConfig::default()
        })
        .unwrap();
        let id = server.registry().register("vip-7");
        let cfg = server.conn_config(id, 1, "vip-7");
        server.registry().activate(id, 1);
        let doc = server.metrics_json();
        assert!(
            doc.contains("\"sched_tier\": \"control\""),
            "tier override missing in:\n{doc}"
        );
        assert!(doc.contains("\"sched_weight\": 4.00"), "{doc}");
        drop(cfg);
    }

    #[test]
    fn unlimited_budget_renders_null_budget_and_utilization() {
        let server = Server::new(ServerConfig::default()).unwrap();
        let doc = server.metrics_json();
        assert!(doc.contains("\"budget_bytes_per_sec\": null"));
        assert!(doc.contains("\"utilization\": null"));
        assert_eq!(MetricsDoc::collect(&server).sched.utilization, None);
    }
}
