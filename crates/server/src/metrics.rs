//! Typed metrics: one [`MetricsDoc`] snapshot describing the whole
//! daemon — registry, scheduler buckets, shared pool, event layer —
//! collected from read-only snapshots (a metrics poll cannot stall
//! admissions or mutate pacing state) and rendered to JSON without
//! serde (the workspace builds offline).
//!
//! Every number in one document is taken against a **single** "now"
//! read once from the server's [`crate::EventClock`]: `uptime_secs`,
//! per-connection ages, and event timestamps can never disagree about
//! what time it is.
//!
//! Current schema (`adoc-server-metrics-v2`, [`MetricsDoc::to_json`]):
//!
//! ```json
//! {
//!   "schema": "adoc-server-metrics-v2",
//!   "uptime_secs": 1.0, "draining": false, "mode": "echo",
//!   "budget_bytes_per_sec": 1000000.0,
//!   "sched": { "work_conserving": true, "drain_admitted": 0,
//!              "total_admitted": 123456, "utilization": 0.87,
//!              "parked_on_throttle": 0 },
//!   "sessions": { "minted": 0, "resumed": 0, "rejected": 0,
//!                 "expired": 0, "parked": 0 },
//!   "events": { "last_seq": 42, "log_len": 42, "log_dropped": 0,
//!               "subscribers_poisoned": 0,
//!               "counts": { "conns_accepted": 1, "conns_admitted": 1,
//!                           "conns_closed": 0, "handshake_failures": 0,
//!                           "messages_served": 1, "sched_waits": 0,
//!                           "sched_wait_secs": 0.0, "refill_epochs": 0,
//!                           "level_changes": 0, "pool_evictions": 0,
//!                           "budget_changes": 0, "drains": 0,
//!                           "reactor_ticks": 0, "worker_jobs": 0,
//!                           "worker_queue_peak": 0,
//!                           "slow_requests": 0 } },
//!   "workers": { "threads": 1, "queued": 0, "in_flight": 0,
//!                "completed": 0, "panics": 0, "queue_peak": 0 },
//!   "latency": { "messages": 1,
//!                "read": { "count": 1, "p50_us": 10, "p90_us": 10,
//!                          "p99_us": 10, "p999_us": 10, "max_us": 10 },
//!                "sched_wait": { … }, "queue_wait": { … },
//!                "codec": { … }, "write": { … }, "total": { … } },
//!   "totals": { "accepted": 1, "completed": 1, "failed": 0,
//!               "handshake_failures": 0, "messages": 1,
//!               "raw_bytes": 1, "reply_wire_bytes": 1 },
//!   "pool": { "hits": 1, "misses": 1, "returns": 1, "evicted": 0,
//!             "outstanding": 0, "peak_outstanding": 2, "idle": 2,
//!             "max_idle": 64, "idle_bytes": 4096 },
//!   "connections": [ { "id": 1, "peer": "…", "state": "active",
//!                      "streams": 1, "messages": 1, "raw_bytes": 1,
//!                      "reply_wire_bytes": 1, "age_secs": 1.0,
//!                      "sched_admitted": 1, "sched_tier": "bulk",
//!                      "sched_weight": 1.0,
//!                      "delay_us": 1200, "delay_state": "normal",
//!                      "level_bps": { "3": 1.0 } } ]
//! }
//! ```
//!
//! `delay_us`/`delay_state` are `null` until the connection's delay
//! estimator completes its first packet group. The deprecated
//! `adoc-server-metrics-v1` rendering has been removed; v2 is the only
//! schema.

use crate::event::{json_escape, EventCounts};
use crate::registry::{ConnId, RegistryTotals};
use crate::sched::{BucketSnapshot, Tier};
use crate::session::SessionStats;
use crate::trace::StageSummaries;
use crate::workers::WorkerStats;
use crate::{ServeMode, Server};
use std::collections::HashMap;
use std::fmt::Write as _;

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
    /// Latest queueing delay above the path baseline, µs (`None` until
    /// the delay estimator completes a packet group).
    pub delay_us: Option<u64>,
    /// Congestion-state name from the delay estimator (`"normal"`,
    /// `"overuse"`, `"underuse"`).
    pub delay_state: Option<&'static str>,
    /// Visible bandwidth by compression level (index = level), raw bits/s:
    /// the slower of wire and compressor, as `adoc::TransferStats::level_bps`
    /// defines it. Zero entries are elided when rendered.
    pub level_bps: [f64; 11],
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
        let uptime_secs = now.as_secs_f64();
        let totals = server.registry().totals();
        let pool_stats = server.pool().stats();
        let buckets: HashMap<u64, BucketSnapshot> = server
            .scheduler()
            .snapshot()
            .into_iter()
            .map(|b| (b.conn, b))
            .collect();
        let budget = server.scheduler().budget();
        let total_admitted = server.scheduler().total_admitted();
        let utilization = server.scheduler().utilization();
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
                    delay_us: c.delay.map(|d| d.above_baseline_us()),
                    delay_state: c.delay.map(|d| d.state.as_str()),
                    level_bps: c.level_bps,
                    peer: c.peer,
                }
            })
            .collect();
        MetricsDoc {
            uptime_secs,
            draining: server.is_draining(),
            mode: server.mode(),
            budget_bytes_per_sec: budget,
            sched: SchedMetrics {
                work_conserving: true,
                drain_admitted: server.scheduler().drain_snapshot().admitted,
                total_admitted,
                utilization,
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
            totals,
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
        let mut out = String::with_capacity(1024);
        let _ = writeln!(out, "{{\n  \"schema\": \"{SCHEMA_V2}\",");
        self.render_header(&mut out);
        let _ = writeln!(
            out,
            "  \"sched\": {{ \"work_conserving\": {}, \"drain_admitted\": {}, \
             \"total_admitted\": {}, \"utilization\": {}, \"parked_on_throttle\": {} }},",
            self.sched.work_conserving,
            self.sched.drain_admitted,
            self.sched.total_admitted,
            match self.sched.utilization {
                Some(u) => format!("{u:.4}"),
                None => "null".into(),
            },
            self.sched.parked_on_throttle,
        );
        let s = &self.sessions;
        let _ = writeln!(
            out,
            "  \"sessions\": {{ \"minted\": {}, \"resumed\": {}, \"rejected\": {}, \
             \"expired\": {}, \"parked\": {} }},",
            s.minted, s.resumed, s.rejected, s.expired, s.parked,
        );
        let c = &self.events.counts;
        let _ = writeln!(
            out,
            "  \"events\": {{ \"last_seq\": {}, \"log_len\": {}, \"log_dropped\": {}, \
             \"subscribers_poisoned\": {},",
            self.events.last_seq,
            self.events.log_len,
            self.events.log_dropped,
            self.events.subscribers_poisoned,
        );
        let _ = writeln!(
            out,
            "    \"counts\": {{ \"conns_accepted\": {}, \"conns_admitted\": {}, \
             \"conns_closed\": {}, \"handshake_failures\": {}, \"messages_served\": {}, \
             \"sched_waits\": {}, \"sched_wait_secs\": {:.6}, \"refill_epochs\": {}, \
             \"level_changes\": {}, \"pool_evictions\": {}, \"budget_changes\": {}, \
             \"drains\": {}, \"reactor_ticks\": {}, \"worker_jobs\": {}, \
             \"worker_queue_peak\": {}, \"slow_requests\": {} }} }},",
            c.conns_accepted,
            c.conns_admitted,
            c.conns_closed,
            c.handshake_failures,
            c.messages_served,
            c.sched_waits,
            c.sched_wait_secs,
            c.refill_epochs,
            c.level_changes,
            c.pool_evictions,
            c.budget_changes,
            c.drains,
            c.reactor_ticks,
            c.worker_jobs,
            c.worker_queue_peak,
            c.slow_requests,
        );
        let w = &self.workers;
        let _ = writeln!(
            out,
            "  \"workers\": {{ \"threads\": {}, \"queued\": {}, \"in_flight\": {}, \
             \"completed\": {}, \"panics\": {}, \"queue_peak\": {} }},",
            w.threads, w.queued, w.in_flight, w.completed, w.panics, w.queue_peak,
        );
        let _ = write!(
            out,
            "  \"latency\": {{ \"messages\": {}, ",
            self.latency.messages
        );
        self.latency.stages.write_json_fields(&mut out);
        out.push_str(" },\n");
        self.render_tail(&mut out);
        out
    }

    /// The uptime/draining/mode/budget lines of the document header.
    fn render_header(&self, out: &mut String) {
        let _ = writeln!(
            out,
            "  \"uptime_secs\": {:.3}, \"draining\": {}, \"mode\": \"{}\",",
            self.uptime_secs,
            self.draining,
            match self.mode {
                ServeMode::Echo => "echo",
                ServeMode::Sink => "sink",
            }
        );
        match self.budget_bytes_per_sec {
            Some(b) => {
                let _ = writeln!(out, "  \"budget_bytes_per_sec\": {b:.1},");
            }
            None => out.push_str("  \"budget_bytes_per_sec\": null,\n"),
        }
    }

    /// The totals/pool/connections sections of the document.
    fn render_tail(&self, out: &mut String) {
        let t = &self.totals;
        let _ = writeln!(
            out,
            "  \"totals\": {{ \"accepted\": {}, \"completed\": {}, \"failed\": {}, \
             \"handshake_failures\": {}, \"messages\": {}, \"raw_bytes\": {}, \"reply_wire_bytes\": {} }},",
            t.accepted,
            t.completed,
            t.failed,
            t.handshake_failures,
            t.messages,
            t.raw_bytes,
            t.reply_wire_bytes,
        );
        let p = &self.pool;
        let _ = writeln!(
            out,
            "  \"pool\": {{ \"hits\": {}, \"misses\": {}, \"returns\": {}, \"evicted\": {}, \
             \"outstanding\": {}, \"peak_outstanding\": {}, \"idle\": {}, \"max_idle\": {}, \
             \"idle_bytes\": {} }},",
            p.hits,
            p.misses,
            p.returns,
            p.evicted,
            p.outstanding,
            p.peak_outstanding,
            p.idle,
            p.max_idle,
            p.idle_bytes,
        );
        out.push_str("  \"connections\": [\n");
        for (i, c) in self.connections.iter().enumerate() {
            let mut levels = String::new();
            let mut first = true;
            for (level, &bps) in c.level_bps.iter().enumerate() {
                if bps > 0.0 {
                    let _ = write!(
                        levels,
                        "{}\"{}\": {:.0}",
                        if first { "" } else { ", " },
                        level,
                        bps
                    );
                    first = false;
                }
            }
            let sep = if i + 1 == self.connections.len() {
                ""
            } else {
                ","
            };
            let _ = writeln!(
                out,
                "    {{ \"id\": {}, \"peer\": \"{}\", \"state\": \"{}\", \"streams\": {}, \
                 \"messages\": {}, \"raw_bytes\": {}, \"reply_wire_bytes\": {}, \"age_secs\": {:.3}, \
                 \"sched_admitted\": {}, \"sched_tier\": \"{}\", \"sched_weight\": {:.2}, \
                 \"delay_us\": {}, \"delay_state\": {}, \"level_bps\": {{ {} }} }}{}",
                c.id,
                json_escape(&c.peer),
                c.state,
                c.streams,
                c.messages,
                c.raw_bytes,
                c.reply_wire_bytes,
                c.age_secs,
                c.sched_admitted,
                c.sched_tier,
                c.sched_weight,
                match c.delay_us {
                    Some(us) => us.to_string(),
                    None => "null".into(),
                },
                match c.delay_state {
                    Some(s) => format!("\"{s}\""),
                    None => "null".into(),
                },
                levels,
                sep,
            );
        }
        out.push_str("  ]\n}\n");
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
            "\"delay_us\": null",
            "\"delay_state\": null",
            "\\\"quote", // escaping
        ] {
            assert!(doc.contains(needle), "missing {needle} in:\n{doc}");
        }
    }

    #[test]
    fn delay_fields_render_once_the_hub_signals() {
        use adoc::SignalHub;
        use std::sync::Arc;

        let server = Server::new(ServerConfig::default()).unwrap();
        let id = server.registry().register("peer-d");
        server.registry().activate(id, 1);
        let hub = Arc::new(SignalHub::new());
        server.registry().attach_hub(id, hub.clone());
        for i in 0..30u64 {
            hub.record_remote(i * 20_000, i * 20_000 + 500, 1000);
        }
        let stats = adoc::TransferStats::new();
        server.registry().update(id, 1, 1, &stats);
        let doc = server.metrics_json();
        assert!(doc.contains("\"delay_us\": "), "{doc}");
        assert!(!doc.contains("\"delay_state\": null"), "{doc}");
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
