//! Every JSON document and event line the daemon renders, from fixed
//! inputs, compared byte for byte with the copies under `tests/golden/`.
//! Operators, CI and the benchmark harness parse these bytes, so a
//! change to how the server writes JSON must leave them as they are.

use adoc::{HistSummary, LevelReason};
use adoc_server::event::render_json_line;
use adoc_server::metrics::{ConnMetrics, EventsMetrics, LatencyMetrics, PoolMetrics, SchedMetrics};
use adoc_server::{
    ConnOutcome, Event, EventCounts, EventMeta, MetricsDoc, RegistryTotals, ServeMode,
    SessionStats, StageSummaries, StageTimes, Tier, TraceCenter, WorkerStats,
};
use std::path::Path;
use std::time::Duration;

/// A peer label and error text that need every kind of escape: a
/// quote, a backslash and a control byte (and a non-ASCII character,
/// which passes through).
const AWKWARD: &str = "we\"ird\\peer\u{1}é";

fn times(scale: u64) -> StageTimes {
    StageTimes {
        read_us: 11 * scale,
        sched_us: 2 * scale,
        queue_us: 3 * scale,
        codec_us: 47 * scale,
        write_us: 13 * scale,
        total_us: 90 * scale,
    }
}

fn summary(base: u64) -> HistSummary {
    HistSummary {
        count: base,
        p50: base + 1,
        p90: base + 2,
        p99: base + 3,
        p999: base + 4,
        max: base + 5,
    }
}

fn full_doc() -> MetricsDoc {
    let mut level_bps = [0.0; 11];
    level_bps[0] = 812_345_678.4;
    level_bps[3] = 96_000_000.5;
    MetricsDoc {
        uptime_secs: 12.3456,
        draining: true,
        mode: ServeMode::Sink,
        budget_bytes_per_sec: Some(8_000_000.25),
        sched: SchedMetrics {
            work_conserving: true,
            drain_admitted: 17,
            total_admitted: 123_456_789,
            utilization: Some(0.987_65),
            parked_on_throttle: 3,
        },
        sessions: SessionStats {
            minted: 5,
            resumed: 4,
            rejected: 3,
            expired: 2,
            parked: 1,
        },
        events: EventsMetrics {
            last_seq: 4242,
            log_len: 1024,
            log_dropped: 3218,
            subscribers_poisoned: 1,
            counts: EventCounts {
                conns_accepted: 101,
                conns_admitted: 102,
                conns_closed: 103,
                handshake_failures: 104,
                messages_served: 105,
                slow_requests: 106,
                sched_waits: 107,
                sched_wait_secs: 1.234_567_89,
                refill_epochs: 108,
                level_changes: 109,
                pool_evictions: 110,
                budget_changes: 111,
                drains: 1,
                reactor_ticks: 112,
                worker_jobs: 113,
                worker_queue_peak: 114,
            },
        },
        workers: WorkerStats {
            threads: 2,
            queued: 6,
            in_flight: 1,
            completed: 900,
            panics: 0,
            queue_peak: 9,
        },
        latency: LatencyMetrics {
            messages: 105,
            stages: StageSummaries {
                read: summary(10),
                sched_wait: summary(20),
                queue_wait: summary(30),
                codec: summary(40),
                write: summary(50),
                total: summary(60),
            },
        },
        totals: RegistryTotals {
            accepted: 7,
            completed: 5,
            failed: 1,
            handshake_failures: 2,
            messages: 105,
            raw_bytes: 1_048_576,
            reply_wire_bytes: 524_288,
        },
        pool: PoolMetrics {
            hits: 40,
            misses: 8,
            returns: 46,
            evicted: 2,
            outstanding: -1,
            peak_outstanding: 12,
            idle: 4,
            max_idle: 64,
            idle_bytes: 16_384,
        },
        connections: vec![
            ConnMetrics {
                id: 1,
                peer: AWKWARD.into(),
                state: "active",
                streams: 1,
                messages: 100,
                raw_bytes: 1_000_000,
                reply_wire_bytes: 500_000,
                age_secs: 3.2468,
                sched_admitted: 499_999,
                sched_tier: Tier::Control,
                sched_weight: 4.0,
                level_bps,
                ratio_trips: 2,
            },
            ConnMetrics {
                id: 9,
                peer: "127.0.0.1:40000".into(),
                state: "handshaking",
                streams: 4,
                messages: 0,
                raw_bytes: 0,
                reply_wire_bytes: 0,
                age_secs: 0.0005,
                sched_admitted: 0,
                sched_tier: Tier::Bulk,
                sched_weight: 1.0,
                level_bps: [0.0; 11],
                ratio_trips: 0,
            },
        ],
    }
}

fn empty_doc() -> MetricsDoc {
    MetricsDoc {
        uptime_secs: 0.0,
        draining: false,
        mode: ServeMode::Echo,
        budget_bytes_per_sec: None,
        sched: SchedMetrics {
            work_conserving: true,
            drain_admitted: 0,
            total_admitted: 0,
            utilization: None,
            parked_on_throttle: 0,
        },
        sessions: SessionStats::default(),
        events: EventsMetrics {
            last_seq: 0,
            log_len: 0,
            log_dropped: 0,
            subscribers_poisoned: 0,
            counts: EventCounts::default(),
        },
        workers: WorkerStats::default(),
        latency: LatencyMetrics::default(),
        totals: RegistryTotals::default(),
        pool: PoolMetrics {
            hits: 0,
            misses: 0,
            returns: 0,
            evicted: 0,
            outstanding: 0,
            peak_outstanding: 0,
            idle: 0,
            max_idle: 0,
            idle_bytes: 0,
        },
        connections: Vec::new(),
    }
}

/// One line per `Event` variant, and one more for each optional field's
/// other case and each enum-valued field's other value.
fn event_lines() -> String {
    let events = [
        Event::ConnAccepted {
            conn: 4,
            peer: AWKWARD,
        },
        Event::ConnAdmitted {
            conn: 4,
            streams: 3,
        },
        Event::ConnClosed {
            conn: 4,
            outcome: ConnOutcome::Completed,
            messages: 77,
        },
        Event::ConnClosed {
            conn: 5,
            outcome: ConnOutcome::Failed,
            messages: 0,
        },
        Event::HandshakeFailed { conn: Some(6) },
        Event::HandshakeFailed { conn: None },
        Event::ConnError {
            conn: Some(7),
            error: AWKWARD,
        },
        Event::ConnError {
            conn: None,
            error: "worker job panicked",
        },
        Event::MessageServed {
            conn: 4,
            raw_bytes: 1024,
            reply_wire_bytes: 1038,
            times: times(1),
        },
        Event::SlowRequest {
            conn: 4,
            raw_bytes: 16_777_216,
            times: times(20_000),
        },
        Event::SchedWait {
            conn: 4,
            tier: Tier::Bulk,
            waited: Duration::from_micros(12_345_678),
        },
        Event::SchedWait {
            conn: 0,
            tier: Tier::Control,
            waited: Duration::from_nanos(1_499),
        },
        Event::RefillEpoch { credit: 65_536.49 },
        Event::LevelChange {
            conn: 4,
            from: 0,
            to: 10,
            reason: LevelReason::QueuePressure,
        },
        Event::LevelChange {
            conn: 4,
            from: 3,
            to: 1,
            reason: LevelReason::ThroughputDiverged,
        },
        Event::LevelChange {
            conn: 4,
            from: 1,
            to: 0,
            reason: LevelReason::IncompressiblePenalty,
        },
        Event::DrainStarted,
        Event::DrainFinished,
        Event::PoolEvict { evicted: 12 },
        Event::BudgetChanged {
            bytes_per_sec: Some(8_000_000.25),
        },
        Event::BudgetChanged {
            bytes_per_sec: None,
        },
        Event::ReactorTick {
            ready: 5,
            parked: 2,
        },
        Event::WorkerQueueDepth { depth: 3 },
        Event::SessionResumed {
            conn: 2,
            session_id: 77,
            streams: 4,
            mid_message: true,
        },
        Event::SessionResumed {
            conn: 2,
            session_id: u64::MAX,
            streams: 1,
            mid_message: false,
        },
        Event::TicketRejected {
            session_id: Some(77),
            reason: "expired",
        },
        Event::TicketRejected {
            session_id: None,
            reason: AWKWARD,
        },
        Event::SessionExpired {
            conn: 2,
            session_id: 77,
        },
    ];
    let mut out = String::new();
    for (i, event) in events.iter().enumerate() {
        let meta = EventMeta {
            seq: i as u64 + 1,
            t: Duration::from_nanos(1_234_567_891 * i as u64 + 499),
        };
        out.push_str(&render_json_line(&meta, event));
        out.push('\n');
    }
    out
}

/// A trace center holding five spans of connection 3 (fewer than its
/// ring's eight, so a summary over the ring and one over the
/// connection's lifetime agree), one idle registered connection, and
/// one span of another connection in the server-wide view.
fn traces() -> TraceCenter {
    let tc = TraceCenter::new(8);
    tc.register(8);
    for i in 1..=5u64 {
        tc.record(3, 1000 * i, i as f64 * 0.25 + 1e-7, &times(i * i));
    }
    tc.record(5, 64, 9.0, &times(1_000_000));
    tc
}

fn documents() -> Vec<(&'static str, String)> {
    let tc = traces();
    vec![
        ("metrics_full.json", full_doc().to_json()),
        ("metrics_empty.json", empty_doc().to_json()),
        ("events.ndjson", event_lines()),
        ("latency.json", tc.latency_json()),
        ("trace_conn3.json", tc.trace_json(3).expect("traced")),
        ("trace_idle.json", tc.trace_json(8).expect("registered")),
    ]
}

#[test]
fn every_document_matches_its_golden_copy() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    for (name, rendered) in documents() {
        let golden = std::fs::read_to_string(dir.join(name))
            .unwrap_or_else(|e| panic!("tests/golden/{name}: {e}"));
        assert!(
            rendered == golden,
            "{name} differs from its golden copy:\n--- rendered\n{rendered}\n--- golden\n{golden}"
        );
    }
}
