//! Per-message stage tracing: where one served message's wall-clock
//! time went.
//!
//! The reactor stamps every message with a [`StageTimes`] breakdown —
//! socket reads, scheduler admission waits, worker-queue waits, codec
//! work, and reply writes — and hands it to the server's [`TraceCenter`].
//! That records each stage into one **server-wide** [`StageHists`]
//! (lock-free log-linear [`adoc::Histogram`]s, ≤ 1/32 relative error),
//! behind `GET /latency` and the metrics document's `latency` section,
//! and appends the span to its connection's flight recorder: a ring of
//! recent [`SpanRecord`]s that overwrites the oldest. A connection keeps
//! no histograms of its own — six are 35 KB, twenty times an idle
//! connection's other state — so `GET /trace?conn=ID` summarizes the
//! ring's spans when it is read.
//!
//! Recording is cheap on purpose: a handful of relaxed atomic adds plus
//! one short map lock per message. The benchmark harness prices the
//! whole instrumented path against a bare run as
//! `event.instrument_overhead_share`.

use crate::json::{self, Fields, Object, DOCUMENT, PADDED};
use crate::registry::ConnId;
use crate::workers::JobTiming;
use adoc::{HistSummary, Histogram};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::collections::VecDeque;
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
/// last byte.
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

/// Six lock-free histograms, one per stage plus the total: the
/// server-wide aggregate, and the transient summary of one connection's
/// flight recorder.
#[derive(Debug, Default)]
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

impl StageHists {
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

/// `"read": {…}, …, "total": {…}`: the fields behind every latency
/// surface.
impl Fields for StageSummaries {
    fn fields(&self, o: &mut Object<'_>) {
        o.record("read", PADDED, &self.read)
            .record("sched_wait", PADDED, &self.sched_wait)
            .record("queue_wait", PADDED, &self.queue_wait)
            .record("codec", PADDED, &self.codec)
            .record("write", PADDED, &self.write)
            .record("total", PADDED, &self.total);
    }
}

json::plain_fields! {
    StageTimes: read_us, sched_us, queue_us, codec_us, write_us, total_us;
    HistSummary: count, p50_us = p50, p90_us = p90, p99_us = p99, p999_us = p999, max_us = max;
}

impl Fields for SpanRecord {
    fn fields(&self, o: &mut Object<'_>) {
        o.field("msg", self.msg)
            .field("t", self.t_secs)
            .field("raw_bytes", self.raw_bytes);
        self.times.fields(o);
    }
}

/// One connection's flight recorder: its most recent spans, oldest
/// first, in a ring that grows as they arrive up to the cap, and the
/// messages recorded over its lifetime (span ordinals come from here;
/// the ring overwrote all but `spans.len()` of them).
#[derive(Debug, Default)]
struct ConnTrace {
    spans: VecDeque<SpanRecord>,
    msgs: u64,
}

/// The server's latency layer: one server-wide [`StageHists`] plus a
/// per-connection [`ConnTrace`] map (created on registration or first
/// record, dropped on deregistration — `GET /trace` for a departed or
/// unknown connection is a 404).
#[derive(Debug)]
pub struct TraceCenter {
    ring_cap: usize,
    global: StageHists,
    conns: Mutex<HashMap<ConnId, ConnTrace>>,
}

impl TraceCenter {
    /// A trace center whose flight recorders retain `ring_cap` spans
    /// per connection (min 1).
    pub fn new(ring_cap: usize) -> TraceCenter {
        TraceCenter {
            ring_cap: ring_cap.max(1),
            global: StageHists::default(),
            conns: Mutex::new(HashMap::new()),
        }
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
        self.conns.lock().entry(conn).or_default();
    }

    /// Drops `conn`'s trace (its spans stay in the server-wide
    /// histograms).
    pub fn deregister(&self, conn: ConnId) {
        self.conns.lock().remove(&conn);
    }

    /// Records one finished message: server-wide histograms and the
    /// connection's flight recorder (creating the trace if `conn` was
    /// never registered — the blocking serve path records without
    /// registering).
    pub fn record(&self, conn: ConnId, raw_bytes: u64, t_secs: f64, times: &StageTimes) {
        self.global.record(times);
        let mut conns = self.conns.lock();
        let trace = conns.entry(conn).or_default();
        trace.msgs += 1;
        if trace.spans.len() >= self.ring_cap {
            trace.spans.pop_front();
        }
        trace.spans.push_back(SpanRecord {
            msg: trace.msgs,
            t_secs,
            raw_bytes,
            times: *times,
        });
    }

    /// The `GET /latency` document: server-wide per-stage percentile
    /// summaries (schema `adoc-latency-v1`).
    pub fn latency_json(&self) -> String {
        json::render(DOCUMENT, 768, |o| {
            o.field("schema", "adoc-latency-v1")
                .field("messages", self.messages())
                .record("stages", PADDED, &self.global.summaries());
        })
    }

    /// The `GET /trace?conn=ID` document (schema `adoc-trace-v1`): one
    /// connection's lifetime message and overwrite counts, per-stage
    /// summaries of the spans its ring holds, and those spans, oldest
    /// first. `None` when the connection has no trace.
    pub fn trace_json(&self, conn: ConnId) -> Option<String> {
        let (spans, msgs) = {
            let conns = self.conns.lock();
            let trace = conns.get(&conn)?;
            (trace.spans.iter().copied().collect::<Vec<_>>(), trace.msgs)
        };
        let hists = StageHists::default();
        for span in &spans {
            hists.record(&span.times);
        }
        Some(json::render(DOCUMENT, 512 + spans.len() * 160, |o| {
            o.field("schema", "adoc-trace-v1")
                .field("conn", conn)
                .field("messages", msgs)
                .field("dropped", msgs - spans.len() as u64)
                .record("stages", PADDED, &hists.summaries())
                .rows("spans", &spans);
        }))
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
    fn records_land_in_global_histograms_and_the_ring() {
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
        // Per-conn view: lifetime counts, the ring capped at 8, and
        // stage summaries over the 8 spans it holds.
        let doc = tc.trace_json(3).expect("traced conn");
        assert!(doc.contains("\"messages\": 20"), "{doc}");
        assert!(doc.contains("\"dropped\": 12"), "{doc}");
        assert!(doc.contains("\"total\": { \"count\": 8, "), "{doc}");
        assert!(doc.contains("\"max_us\": 1600 }"), "{doc}");
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
