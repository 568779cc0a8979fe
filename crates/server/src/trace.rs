//! Per-message stage tracing: where one served message's wall-clock
//! time went, as mergeable latency histograms and a bounded
//! flight recorder.
//!
//! The reactor stamps every message with a [`StageTimes`] breakdown —
//! socket reads, scheduler admission waits, worker-queue waits, codec
//! work, and reply writes — and hands it to the server's
//! [`TraceCenter`], which records each stage into **server-wide** and
//! **per-connection** [`adoc::Histogram`]s (lock-free log-linear
//! buckets, ~1µs–100s, ≤ 1/32 relative error) and appends the span to
//! the connection's flight recorder: a bounded ring of recent
//! [`SpanRecord`]s, overwriting the oldest like [`crate::EventLog`].
//!
//! Two HTTP views sit on top (see [`crate::http`]):
//!
//! * `GET /latency` — server-wide per-stage percentile summaries
//!   ([`TraceCenter::latency_json`], also the `latency` section of the
//!   v2 metrics document);
//! * `GET /trace?conn=ID` — one connection's stage summaries plus its
//!   recent spans ([`TraceCenter::trace_json`]).
//!
//! Recording is cheap on purpose: a handful of relaxed atomic adds per
//! message plus one short ring lock. The benchmark harness prices the
//! whole instrumented path (spans included) against a bare run as
//! `event.instrument_overhead_share`.

use crate::registry::ConnId;
use crate::workers::JobTiming;
use adoc::{HistSummary, Histogram};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Stage-by-stage wall-clock breakdown of one served message, in
/// microseconds. Stages are disjoint but deliberately do not sum to
/// `total_us`: handoff slivers (a worker completion waiting for the
/// next reactor poll, idle time the peer spent not sending) belong to
/// no stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimes {
    /// Reading the inbound message off the socket (header, body, probe,
    /// frame payloads).
    pub read_us: u64,
    /// Parked on a refused scheduler wire admission (inbound or reply).
    pub sched_us: u64,
    /// Codec jobs waiting in the worker-pool queue before pickup.
    pub queue_us: u64,
    /// Codec work itself (inflate/deflate on a worker thread).
    pub codec_us: u64,
    /// Writing the reply onto the socket.
    pub write_us: u64,
    /// First header byte to last reply byte, wall clock.
    pub total_us: u64,
}

/// Which stage owns the span's lap clock on the reactor thread. Worker
/// stages (queue wait, codec) are measured by the worker itself and
/// folded in via [`MsgSpan::absorb_job`].
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum StageKind {
    /// Reading inbound bytes (header, body, probe, frame payloads).
    Read,
    /// Parked on a refused wire admission.
    SchedWait,
    /// Writing the reply.
    Write,
}

/// Lap clock over one in-flight message: wall time since `mark`
/// accrues to `owner` whenever ownership switches, so park time lands
/// in `sched_us` no matter which stage the refusal interrupted.
/// Created when the first header byte arrives (idle client think-time
/// between messages belongs to no span) and finished at the reply's
/// last byte. Stages deliberately need not sum to `total_us`: handoff
/// slivers (a completion waiting for the next poll) are dropped rather
/// than misattributed.
pub(crate) struct MsgSpan {
    started: Instant,
    mark: Instant,
    owner: StageKind,
    times: StageTimes,
}

impl MsgSpan {
    pub(crate) fn begin() -> MsgSpan {
        let now = Instant::now();
        MsgSpan {
            started: now,
            mark: now,
            owner: StageKind::Read,
            times: StageTimes::default(),
        }
    }

    /// Charges the lap since `mark` to the current owner.
    pub(crate) fn flush(&mut self) {
        let now = Instant::now();
        let us = now.duration_since(self.mark).as_micros() as u64;
        match self.owner {
            StageKind::Read => self.times.read_us += us,
            StageKind::SchedWait => self.times.sched_us += us,
            StageKind::Write => self.times.write_us += us,
        }
        self.mark = now;
    }

    /// Charges the lap to the current owner, then hands the clock to
    /// `to`.
    pub(crate) fn switch(&mut self, to: StageKind) {
        self.flush();
        self.owner = to;
    }

    /// Folds a worker job's self-measured durations in and restarts the
    /// lap at now (the submit-side `flush` already closed the reactor's
    /// lap, so the worker interval is never double-counted).
    pub(crate) fn absorb_job(&mut self, timing: JobTiming) {
        self.times.queue_us += timing.queue.as_micros() as u64;
        self.times.codec_us += timing.codec.as_micros() as u64;
        self.mark = Instant::now();
    }

    /// Closes the span: final lap charged, total stamped.
    pub(crate) fn finish(mut self) -> StageTimes {
        self.flush();
        self.times.total_us = self.started.elapsed().as_micros() as u64;
        self.times
    }
}

/// One flight-recorder entry: a finished message's span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanRecord {
    /// Per-connection message ordinal (1 = first message).
    pub msg: u64,
    /// Finish time in seconds on the server's shared event clock.
    pub t_secs: f64,
    /// Raw payload bytes of the received message.
    pub raw_bytes: u64,
    /// The stage breakdown.
    pub times: StageTimes,
}

/// Six lock-free histograms, one per stage plus the total. Shared by
/// the server-wide aggregate and every per-connection trace.
#[derive(Debug)]
pub struct StageHists {
    /// Inbound-read stage.
    pub read: Histogram,
    /// Scheduler-wait stage.
    pub sched_wait: Histogram,
    /// Worker-queue-wait stage.
    pub queue_wait: Histogram,
    /// Codec stage.
    pub codec: Histogram,
    /// Reply-write stage.
    pub write: Histogram,
    /// End-to-end message latency.
    pub total: Histogram,
}

impl Default for StageHists {
    fn default() -> Self {
        StageHists::new()
    }
}

impl StageHists {
    /// Six empty histograms.
    pub fn new() -> StageHists {
        StageHists {
            read: Histogram::new(),
            sched_wait: Histogram::new(),
            queue_wait: Histogram::new(),
            codec: Histogram::new(),
            write: Histogram::new(),
            total: Histogram::new(),
        }
    }

    /// Records one message's stage breakdown (every stage, including
    /// zero-valued ones, so stage counts stay comparable).
    pub fn record(&self, t: &StageTimes) {
        self.read.record(t.read_us);
        self.sched_wait.record(t.sched_us);
        self.queue_wait.record(t.queue_us);
        self.codec.record(t.codec_us);
        self.write.record(t.write_us);
        self.total.record(t.total_us);
    }

    /// Percentile summaries of every stage, read lock-free.
    pub fn summaries(&self) -> StageSummaries {
        StageSummaries {
            read: self.read.snapshot().summary(),
            sched_wait: self.sched_wait.snapshot().summary(),
            queue_wait: self.queue_wait.snapshot().summary(),
            codec: self.codec.snapshot().summary(),
            write: self.write.snapshot().summary(),
            total: self.total.snapshot().summary(),
        }
    }
}

/// Percentile summaries for every stage — the typed form behind the
/// `latency` metrics section, `GET /latency`, and `GET /trace`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageSummaries {
    /// Inbound-read stage.
    pub read: HistSummary,
    /// Scheduler-wait stage.
    pub sched_wait: HistSummary,
    /// Worker-queue-wait stage.
    pub queue_wait: HistSummary,
    /// Codec stage.
    pub codec: HistSummary,
    /// Reply-write stage.
    pub write: HistSummary,
    /// End-to-end message latency.
    pub total: HistSummary,
}

impl StageSummaries {
    /// Stage names in render order, paired with their summaries.
    pub fn stages(&self) -> [(&'static str, &HistSummary); 6] {
        [
            ("read", &self.read),
            ("sched_wait", &self.sched_wait),
            ("queue_wait", &self.queue_wait),
            ("codec", &self.codec),
            ("write", &self.write),
            ("total", &self.total),
        ]
    }

    /// Appends `"read": {…}, …, "total": {…}` (no surrounding braces)
    /// to `out` — the shared rendering behind every latency surface.
    pub(crate) fn write_json_fields(&self, out: &mut String) {
        for (i, (name, s)) in self.stages().into_iter().enumerate() {
            let _ = write!(
                out,
                "{}\"{}\": {{ \"count\": {}, \"p50_us\": {}, \"p90_us\": {}, \
                 \"p99_us\": {}, \"p999_us\": {}, \"max_us\": {} }}",
                if i == 0 { "" } else { ", " },
                name,
                s.count,
                s.p50,
                s.p90,
                s.p99,
                s.p999,
                s.max,
            );
        }
    }
}

/// One connection's trace: per-stage histograms plus the bounded
/// flight-recorder ring of its most recent spans.
#[derive(Debug)]
struct ConnTrace {
    hists: StageHists,
    ring: Mutex<VecDeque<SpanRecord>>,
    /// Messages recorded over the connection's lifetime (ring ordinals
    /// come from here).
    msgs: AtomicU64,
    /// Spans overwritten because the ring was full.
    dropped: AtomicU64,
}

impl ConnTrace {
    fn new(ring_cap: usize) -> ConnTrace {
        ConnTrace {
            hists: StageHists::new(),
            ring: Mutex::new(VecDeque::with_capacity(ring_cap.min(1024))),
            msgs: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }
}

/// The server's latency layer: one server-wide [`StageHists`] plus a
/// per-connection [`ConnTrace`] map (created on registration or first
/// record, dropped on deregistration — `GET /trace` for a departed or
/// unknown connection is a 404).
#[derive(Debug)]
pub struct TraceCenter {
    ring_cap: usize,
    global: StageHists,
    conns: Mutex<HashMap<ConnId, Arc<ConnTrace>>>,
}

impl TraceCenter {
    /// A trace center whose flight recorders retain `ring_cap` spans
    /// per connection (min 1).
    pub fn new(ring_cap: usize) -> TraceCenter {
        TraceCenter {
            ring_cap: ring_cap.max(1),
            global: StageHists::new(),
            conns: Mutex::new(HashMap::new()),
        }
    }

    /// Per-connection flight-recorder capacity.
    pub fn ring_cap(&self) -> usize {
        self.ring_cap
    }

    /// The server-wide stage histograms.
    pub fn global(&self) -> &StageHists {
        &self.global
    }

    /// Messages recorded server-wide.
    pub fn messages(&self) -> u64 {
        self.global.total.count()
    }

    /// Creates `conn`'s trace eagerly, so a live connection answers
    /// `GET /trace` (with an empty ring) before its first message.
    pub fn register(&self, conn: ConnId) {
        self.conns
            .lock()
            .entry(conn)
            .or_insert_with(|| Arc::new(ConnTrace::new(self.ring_cap)));
    }

    /// Drops `conn`'s trace (its histograms stay merged into the
    /// server-wide aggregate only through the records already made).
    pub fn deregister(&self, conn: ConnId) {
        self.conns.lock().remove(&conn);
    }

    /// Records one finished message: server-wide histograms,
    /// per-connection histograms, and the connection's flight recorder
    /// (creating the trace if `conn` was never registered — the
    /// blocking serve path records without registering).
    pub fn record(&self, conn: ConnId, raw_bytes: u64, t_secs: f64, times: &StageTimes) {
        self.global.record(times);
        let trace = Arc::clone(
            self.conns
                .lock()
                .entry(conn)
                .or_insert_with(|| Arc::new(ConnTrace::new(self.ring_cap))),
        );
        trace.hists.record(times);
        let msg = trace.msgs.fetch_add(1, Ordering::Relaxed) + 1;
        let mut ring = trace.ring.lock();
        if ring.len() >= self.ring_cap {
            ring.pop_front();
            trace.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(SpanRecord {
            msg,
            t_secs,
            raw_bytes,
            times: *times,
        });
    }

    /// The `GET /latency` document: server-wide per-stage percentile
    /// summaries (schema `adoc-latency-v1`).
    pub fn latency_json(&self) -> String {
        let mut out = String::with_capacity(768);
        let _ = write!(
            out,
            "{{\n  \"schema\": \"adoc-latency-v1\",\n  \"messages\": {},\n  \"stages\": {{ ",
            self.messages()
        );
        self.global.summaries().write_json_fields(&mut out);
        out.push_str(" }\n}\n");
        out
    }

    /// The `GET /trace?conn=ID` document: one connection's stage
    /// summaries plus its recent spans, oldest first (schema
    /// `adoc-trace-v1`). `None` when the connection has no trace.
    pub fn trace_json(&self, conn: ConnId) -> Option<String> {
        let trace = Arc::clone(self.conns.lock().get(&conn)?);
        let spans: Vec<SpanRecord> = trace.ring.lock().iter().copied().collect();
        let mut out = String::with_capacity(512 + spans.len() * 160);
        let _ = write!(
            out,
            "{{\n  \"schema\": \"adoc-trace-v1\",\n  \"conn\": {conn},\n  \"messages\": {},\n  \"dropped\": {},\n  \"stages\": {{ ",
            trace.msgs.load(Ordering::Relaxed),
            trace.dropped.load(Ordering::Relaxed),
        );
        trace.hists.summaries().write_json_fields(&mut out);
        out.push_str(" },\n  \"spans\": [\n");
        for (i, s) in spans.iter().enumerate() {
            let t = &s.times;
            let _ = writeln!(
                out,
                "    {{ \"msg\": {}, \"t\": {:.6}, \"raw_bytes\": {}, \"read_us\": {}, \
                 \"sched_us\": {}, \"queue_us\": {}, \"codec_us\": {}, \"write_us\": {}, \
                 \"total_us\": {} }}{}",
                s.msg,
                s.t_secs,
                s.raw_bytes,
                t.read_us,
                t.sched_us,
                t.queue_us,
                t.codec_us,
                t.write_us,
                t.total_us,
                if i + 1 == spans.len() { "" } else { "," },
            );
        }
        out.push_str("  ]\n}\n");
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn times(scale: u64) -> StageTimes {
        StageTimes {
            read_us: 10 * scale,
            sched_us: 2 * scale,
            queue_us: 3 * scale,
            codec_us: 40 * scale,
            write_us: 15 * scale,
            total_us: 80 * scale,
        }
    }

    #[test]
    fn records_land_in_global_and_per_conn_histograms() {
        let tc = TraceCenter::new(8);
        tc.register(3);
        for i in 1..=20 {
            tc.record(3, 1000, i as f64 * 0.5, &times(i));
        }
        assert_eq!(tc.messages(), 20);
        let s = tc.global().summaries();
        assert_eq!(s.total.count, 20);
        assert!(s.codec.p99 >= s.codec.p50);
        assert!(s.total.max >= 80 * 20 * 31 / 32, "max tracks the top span");
        // Per-conn view: full histograms, ring capped at 8.
        let doc = tc.trace_json(3).expect("traced conn");
        assert!(doc.contains("\"messages\": 20"), "{doc}");
        assert!(doc.contains("\"dropped\": 12"), "{doc}");
        assert_eq!(doc.matches("\"msg\": ").count(), 8, "{doc}");
        assert!(doc.contains("\"msg\": 13"), "oldest retained span: {doc}");
        assert!(doc.contains("\"msg\": 20"), "newest span: {doc}");
    }

    #[test]
    fn unknown_and_deregistered_conns_have_no_trace() {
        let tc = TraceCenter::new(4);
        assert!(tc.trace_json(9).is_none());
        tc.register(9);
        assert!(tc.trace_json(9).is_some(), "registered conns answer");
        tc.record(9, 64, 0.1, &times(1));
        tc.deregister(9);
        assert!(tc.trace_json(9).is_none(), "departed conns 404");
        assert_eq!(tc.messages(), 1, "global aggregate survives departure");
        assert_eq!(tc.conns.lock().len(), 0);
    }

    #[test]
    fn latency_json_has_every_stage() {
        let tc = TraceCenter::new(4);
        tc.record(1, 500, 0.2, &times(2));
        let doc = tc.latency_json();
        for stage in [
            "read",
            "sched_wait",
            "queue_wait",
            "codec",
            "write",
            "total",
        ] {
            assert!(doc.contains(&format!("\"{stage}\": {{")), "{doc}");
        }
        assert!(doc.contains("\"schema\": \"adoc-latency-v1\""), "{doc}");
        assert!(doc.contains("\"messages\": 1"), "{doc}");
        assert!(doc.contains("\"p99_us\":"), "{doc}");
        assert!(doc.contains("\"p999_us\":"), "{doc}");
    }

    #[test]
    fn record_without_register_upserts_a_trace() {
        let tc = TraceCenter::new(4);
        tc.record(7, 128, 0.3, &times(1));
        let doc = tc.trace_json(7).expect("upserted");
        assert!(doc.contains("\"conn\": 7"), "{doc}");
        assert!(doc.contains("\"raw_bytes\": 128"), "{doc}");
    }
}
