//! From what a run measured (`Raw`) to named metrics: the end-to-end
//! numbers, and in a traced run the per-layer numbers, each read from the
//! layer's own public surface or from the harness's spans.

use crate::micro;
use crate::run::{is_traced, LaneOut, SliceKind};
use crate::spec::{Transport, END_TO_END, PER_LAYER};
use crate::stats::{median, percentile, Reported, Sample};
use crate::trace::{self, Span};
use crate::workloads::{stats_delta, Check, Plan, Raw};
use std::collections::BTreeMap;

const MIB: f64 = 1024.0 * 1024.0;

/// One slice of the schedule, all lanes together.
#[derive(Debug, Clone, PartialEq)]
pub struct SliceView {
    pub kind: SliceKind,
    /// Round trips per second, summed over the lanes.
    pub per_s: f64,
    /// Seconds the busiest lane covered.
    pub secs: f64,
    /// Every lane's round-trip times, pooled.
    pub lat_ms: Vec<f64>,
    /// Chosen by the quiet-slice rule.
    pub kept: bool,
}

impl SliceView {
    pub fn mean_ms(&self) -> f64 {
        if self.lat_ms.is_empty() {
            f64::INFINITY
        } else {
            self.lat_ms.iter().sum::<f64>() / self.lat_ms.len() as f64
        }
    }
}

/// One run, summarised.
pub struct Outcome {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub checks: Vec<Check>,
    pub errors: Vec<String>,
    /// Every end-to-end metric, in `BENCHMARK.json` order.
    pub end_to_end: Vec<(&'static str, f64)>,
    /// Every per-layer metric (traced run only), in `BENCHMARK.json` order.
    pub per_layer: Vec<(&'static str, f64)>,
    /// For each percentile metric: what was actually reported.
    pub percentiles: Vec<(&'static str, Reported)>,
    /// Sample counts behind the timing metrics.
    pub samples: Vec<(&'static str, u64)>,
    /// Every measured slice, in schedule order.
    pub slices: Vec<SliceView>,
    pub spans: Vec<Span>,
}

/// The schedule's slices of one kind, each summed over the lanes (every
/// lane steps through the same schedule, so slice `i` is the same slice
/// on all of them).
fn views(lanes: &[LaneOut], kind: SliceKind) -> Vec<SliceView> {
    let count = lanes.first().map_or(0, |l| l.slices.len());
    (0..count)
        .filter(|&i| lanes[0].slices[i].kind == kind)
        .map(|i| {
            let mut v = SliceView {
                kind,
                per_s: 0.0,
                secs: 0.0,
                lat_ms: Vec::new(),
                kept: false,
            };
            for s in lanes.iter().map(|l| &l.slices[i]) {
                v.per_s += s.rate();
                v.secs = v.secs.max(s.last_end - s.first_start);
                v.lat_ms.extend(s.lat_ms.iter().map(|&x| f64::from(x)));
            }
            v
        })
        .collect()
}

/// The quiet-slice rule: marks the `keep` slices with the lowest mean
/// latency. Interference from outside the process only ever slows a
/// slice down, so the fastest slices are the ones that measured the
/// program rather than the neighbours.
pub fn mark_quiet(slices: &mut [SliceView], keep: usize) {
    let means: Vec<f64> = slices.iter().map(SliceView::mean_ms).collect();
    let mut order: Vec<usize> = (0..slices.len()).collect();
    order.sort_by(|&a, &b| means[a].total_cmp(&means[b]));
    for (rank, &i) in order.iter().enumerate() {
        slices[i].kept = rank < keep;
    }
}

/// Mean rate and pooled latencies of the kept slices.
fn kept(slices: &[SliceView]) -> (f64, Vec<f64>) {
    let kept: Vec<&SliceView> = slices.iter().filter(|s| s.kept).collect();
    let per_s = kept.iter().map(|s| s.per_s).sum::<f64>() / kept.len().max(1) as f64;
    let lat = kept.iter().flat_map(|s| s.lat_ms.iter().copied()).collect();
    (per_s, lat)
}

fn ms(samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(Sample::ms).collect()
}

fn mean_var(v: &[f64]) -> (f64, f64) {
    if v.is_empty() {
        return (0.0, 0.0);
    }
    let mean = v.iter().sum::<f64>() / v.len() as f64;
    let var = v.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / v.len() as f64;
    (mean, var)
}

/// Cost of the harness's spans: `1 − mean untraced latency ÷ mean traced
/// latency` over the measured AdOC messages, with its standard error
/// (delta method), so a difference inside the noise is not called cost.
pub fn trace_overhead(traced_ms: &[f64], untraced_ms: &[f64]) -> (f64, f64) {
    let (on, var_on) = mean_var(traced_ms);
    let (off, var_off) = mean_var(untraced_ms);
    if on <= 0.0 || off <= 0.0 {
        return (0.0, 0.0);
    }
    let ratio = off / on;
    let rel = var_on / (traced_ms.len() as f64 * on * on)
        + var_off / (untraced_ms.len() as f64 * off * off);
    (1.0 - ratio, ratio * rel.sqrt())
}

/// The traced run fails when tracing costs more than this share …
pub const TRACE_OVERHEAD_LIMIT: f64 = 0.05;
/// … by more than this many standard errors.
const TRACE_OVERHEAD_SIGMAS: f64 = 2.0;

pub fn summarize(raw: Raw, plan: &Plan) -> Outcome {
    let w = raw.workload;
    let mut checks = raw.checks.clone();
    let mut errors = Vec::new();
    let mut attempted = raw.extra_attempted;
    let mut failed = 0;
    for lane in &raw.lanes {
        attempted += lane.attempted;
        failed += lane.failed;
        errors.extend(lane.errors.iter().cloned());
    }
    if let Some(c) = &raw.control {
        attempted += c.attempted;
        failed += c.failed;
        errors.extend(c.errors.iter().cloned());
    }

    let mut adoc = views(&raw.lanes, SliceKind::Adoc);
    mark_quiet(&mut adoc, w.keep);
    let (per_s, latency_ms) = kept(&adoc);
    let p50 = percentile(&latency_ms, 0.50);

    let values: BTreeMap<&str, f64> = [
        ("setup_s", median(&raw.setups)),
        ("goodput_mibps", per_s * 2.0 * w.size as f64 / MIB),
        ("req_per_s", per_s),
        ("peak_rss_mib", crate::procfs::peak_rss_mib()),
    ]
    .into();
    let end_to_end: Vec<(&'static str, f64)> = END_TO_END
        .iter()
        .map(|m| (m.name, values[m.name]))
        .collect();
    // The driver divides by these; a zero or a NaN is a broken run.
    checks.extend(
        end_to_end
            .iter()
            .filter(|(_, v)| !(v.is_finite() && *v > 0.0))
            .map(|(name, v)| Check {
                name: "metric_is_a_positive_number",
                ok: false,
                detail: format!("{name} = {v}"),
            }),
    );

    let mut out = Outcome {
        workload: w.name,
        attempted,
        failed,
        correct: false,
        checks,
        errors,
        end_to_end,
        per_layer: Vec::new(),
        samples: vec![
            ("setup_s", raw.setups.len() as u64),
            (
                "adoc_messages",
                adoc.iter().map(|s| s.lat_ms.len() as u64).sum(),
            ),
            ("adoc_messages_kept", latency_ms.len() as u64),
        ],
        // Printed with every run, gated in none: see the README.
        percentiles: vec![("quiet.msg_p50_ms", p50)],
        slices: adoc,
        spans: Vec::new(),
    };
    if plan.trace {
        layers(raw, plan, &mut out);
    }
    out.correct = out.failed == 0 && out.checks.iter().all(|c| c.ok);
    out
}

/// Fills in the per-layer metrics of a traced run.
fn layers(raw: Raw, plan: &Plan, out: &mut Outcome) {
    let w = raw.workload;
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let share = |part: u64, whole: u64| {
        if whole == 0 {
            0.0
        } else {
            part as f64 / whole as f64
        }
    };

    // codec, pool.get, sched.admit: micro-timings on this payload.
    m.extend(micro::run(&raw.payload, plan.seed, plan.micro_budget_s));

    // sender / adapt / wire: the client sockets' own statistics over the
    // window (on the library workloads the far end mirrors them).
    let mut sent = adoc::TransferStats::new();
    let mut changes = 0u64;
    let mut probes_mbps = Vec::new();
    for lane in &raw.lanes {
        let d = stats_delta(&lane.stats_start, &lane.stats_end);
        sent.messages += d.messages;
        sent.raw_bytes += d.raw_bytes;
        sent.wire_bytes += d.wire_bytes;
        sent.direct_messages += d.direct_messages;
        sent.probes += d.probes;
        sent.fast_path_hits += d.fast_path_hits;
        sent.divergence_reverts += d.divergence_reverts;
        sent.ratio_trips += d.ratio_trips;
        for (a, b) in sent.buffers_at_level.iter_mut().zip(&d.buffers_at_level) {
            *a += b;
        }
        changes += d
            .level_timeline
            .windows(2)
            .filter(|p| p[0].level != p[1].level)
            .count() as u64;
        probes_mbps.extend(lane.probes_bps.iter().map(|b| b / 1e6));
    }
    let level_sum: u64 = (0u64..)
        .zip(&sent.buffers_at_level)
        .map(|(l, n)| l * n)
        .sum();
    let mean_level = share(level_sum, sent.total_buffers());
    let overhead = sent.wire_bytes as f64 / sent.raw_bytes.max(1) as f64 - 1.0;
    m.extend([
        ("sender.wire_ratio", share(sent.wire_bytes, sent.raw_bytes)),
        (
            "sender.direct_share",
            share(sent.direct_messages, sent.messages),
        ),
        (
            "sender.fast_path_share",
            share(sent.fast_path_hits, sent.probes),
        ),
        ("sender.probe_mbps_p50", median(&probes_mbps)),
        ("adapt.mean_level", mean_level),
        ("adapt.max_level", f64::from(sent.max_level_used())),
        ("adapt.level_changes_per_msg", share(changes, sent.messages)),
        ("adapt.divergence_reverts", sent.divergence_reverts as f64),
        ("adapt.ratio_trips", sent.ratio_trips as f64),
        // Framing cost shows only where nothing is compressed.
        (
            "wire.overhead_share",
            if mean_level == 0.0 { overhead } else { 0.0 },
        ),
        (
            "pool.hit_rate",
            share(raw.pool.hits, raw.pool.hits + raw.pool.misses),
        ),
        ("pool.peak_outstanding", raw.pool.peak_outstanding as f64),
        ("pool.idle_bytes_end", raw.pool_idle_bytes as f64),
    ]);

    // The POSIX control: the substrate's own speed, and AdOC against it,
    // both by the quiet-slice rule.
    let mut posix = views(&raw.lanes, SliceKind::Posix);
    mark_quiet(&mut posix, w.keep);
    let posix_goodput = kept(&posix).0 * 2.0 * w.posix_size as f64 / MIB;
    let goodput = out
        .end_to_end
        .iter()
        .find(|m| m.0 == "goodput_mibps")
        .map_or(0.0, |m| m.1);
    let substrate = match w.transport {
        Transport::Lan100 => "link.posix_mibps",
        Transport::Pipe(_) => "pipe.posix_mibps",
        Transport::Daemon { .. } => "tcp.posix_mibps",
    };
    m.insert(substrate, posix_goodput);
    m.insert("harness.posix_ratio", goodput / posix_goodput.max(1e-12));

    // reactor / workers / sched / registry / daemon: the daemon's stage
    // histograms, gauges and metrics document.
    if let Some(s) = &raw.server {
        let d = |a: u64, b: u64| a.saturating_sub(b) as f64;
        let (a, b) = (&s.sums_end, &s.sums_start);
        let total = d(a.total, b.total).max(1.0);
        let staged = d(a.read, b.read)
            + d(a.sched, b.sched)
            + d(a.queue, b.queue)
            + d(a.codec, b.codec)
            + d(a.write, b.write);
        let st = &s.stages;
        m.extend([
            ("reactor.read_p50_us", st.read.p50 as f64),
            ("reactor.read_p99_us", st.read.p99 as f64),
            ("reactor.write_p50_us", st.write.p50 as f64),
            ("reactor.write_p99_us", st.write.p99 as f64),
            ("reactor.total_p50_us", st.total.p50 as f64),
            ("reactor.total_p99_us", st.total.p99 as f64),
            ("reactor.read_share", d(a.read, b.read) / total),
            ("reactor.write_share", d(a.write, b.write) / total),
            ("reactor.unattributed_share", 1.0 - staged / total),
            ("workers.queue_wait_p50_us", st.queue_wait.p50 as f64),
            ("workers.queue_wait_p99_us", st.queue_wait.p99 as f64),
            ("workers.codec_p50_us", st.codec.p50 as f64),
            ("workers.codec_share", d(a.codec, b.codec) / total),
            ("workers.jobs", s.workers.completed as f64),
            ("workers.queue_peak", s.workers.queue_peak as f64),
            ("workers.panics", s.workers.panics as f64),
            ("sched.wait_p50_us", st.sched_wait.p50 as f64),
            ("sched.wait_p99_us", st.sched_wait.p99 as f64),
            ("sched.wait_share", d(a.sched, b.sched) / total),
            ("sched.utilization", s.utilization.unwrap_or(0.0)),
            ("sched.total_admitted_mib", s.total_admitted as f64 / MIB),
            ("sched.drain_admitted", s.drain_admitted as f64),
            ("registry.accepted", s.totals.accepted as f64),
            ("registry.failed", s.totals.failed as f64),
            (
                "registry.handshake_failures",
                s.totals.handshake_failures as f64,
            ),
            ("daemon.connect_p50_us", median(&s.connect_us)),
            ("daemon.drain_s", s.drain_s),
        ]);
    }
    let bare = views(&raw.lanes, SliceKind::Bare);
    if !bare.is_empty() {
        // Every slice counts on both sides: the two daemons alternate,
        // so a stall is as likely to land on either.
        let mean = |v: &[SliceView]| v.iter().map(|s| s.per_s).sum::<f64>() / v.len() as f64;
        m.insert(
            "event.instrument_overhead_share",
            1.0 - mean(&out.slices) / mean(&bare).max(1e-12),
        );
    }

    // proc: was the processor full, and what did a GiB cost.
    let wall = (raw.proc_end.t - raw.proc_start.t).max(1e-9);
    let cpu = raw.proc_end.cpu_s - raw.proc_start.cpu_s;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let mut messages = raw.control.as_ref().map_or(0, |c| c.lags.len() as u64);
    let mut delivered = 0.0;
    for s in raw.lanes.iter().flat_map(|l| &l.slices) {
        let size = match s.kind {
            SliceKind::Warm => continue,
            SliceKind::Posix => w.posix_size,
            SliceKind::Adoc | SliceKind::Bare => w.size,
        };
        messages += s.lat_ms.len() as u64;
        delivered += s.lat_ms.len() as f64 * 2.0 * size as f64;
    }
    m.extend([
        (
            "proc.cpu_s_per_gib",
            cpu / (delivered / (1024.0 * MIB)).max(1e-12),
        ),
        ("proc.cpu_util", cpu / (wall * nproc)),
        (
            "proc.ctx_switches_per_msg",
            share(
                raw.proc_end.ctx.saturating_sub(raw.proc_start.ctx),
                messages,
            ),
        ),
        ("proc.threads_peak", raw.threads_peak as f64),
    ]);

    // harness: true percentiles over the whole window (no slice set
    // aside), the open-loop generator's lag, what the spans cost.
    let mut all_ms: Vec<f64> = out
        .slices
        .iter()
        .flat_map(|s| s.lat_ms.iter().copied())
        .collect();
    // Sorted once; the percentile calls below then sort sorted data.
    all_ms.sort_by(f64::total_cmp);
    let mut traced = Vec::new();
    let mut untraced = Vec::new();
    for s in raw
        .lanes
        .iter()
        .flat_map(|l| &l.slices)
        .filter(|s| s.kind == SliceKind::Adoc)
    {
        for (i, &x) in (0u64..).zip(&s.lat_ms) {
            if is_traced(i, w.trace_block) {
                traced.push(f64::from(x));
            } else {
                untraced.push(f64::from(x));
            }
        }
    }
    let (overhead, se) = trace_overhead(&traced, &untraced);
    let per_ms = raw.lanes.len() as f64 * 2.0 * w.size as f64 / MIB * 1e3;
    let p90 = percentile(&all_ms, 0.90);
    let p99 = percentile(&all_ms, 0.99);
    m.extend([
        ("harness.msg_p50_ms", median(&all_ms)),
        ("harness.msg_p90_ms", p90.value),
        ("harness.msg_p99_ms", p99.value),
        ("harness.samples", all_ms.len() as f64),
        ("harness.failed_share", share(out.failed, out.attempted)),
        ("harness.trace_overhead_share", overhead),
        ("harness.trace_overhead_se", se),
        (
            "harness.goodput_traced_mibps",
            per_ms / mean_var(&traced).0.max(1e-12),
        ),
        (
            "harness.goodput_untraced_mibps",
            per_ms / mean_var(&untraced).0.max(1e-12),
        ),
    ]);
    out.percentiles.push(("harness.msg_p90_ms", p90));
    out.percentiles.push(("harness.msg_p99_ms", p99));
    if let Some(c) = &raw.control {
        let lat: Vec<f64> = c.slices.iter().flat_map(|s| ms(s)).collect();
        let lags_ms: Vec<f64> = c.lags.iter().map(|l| l * 1e3).collect();
        let p99 = percentile(&lat, 0.99);
        m.extend([
            ("harness.control_p50_ms", median(&lat)),
            ("harness.control_p99_ms", p99.value),
            ("harness.gen_lag_p90_ms", percentile(&lags_ms, 0.90).value),
        ]);
        out.percentiles.push(("harness.control_p99_ms", p99));
        out.samples.push(("control_requests", lat.len() as u64));
    }
    out.checks.push(Check {
        name: "trace_overhead_within_limit",
        ok: overhead - TRACE_OVERHEAD_SIGMAS * se <= TRACE_OVERHEAD_LIMIT,
        detail: format!(
            "tracing cost {:.2} % ± {:.2} % of message latency",
            overhead * 100.0,
            se * 100.0
        ),
    });
    out.slices.extend(posix);
    out.slices.extend(bare);

    // Spans: the client threads' first, then the far end's.
    let mut recorders: Vec<_> = raw.lanes.into_iter().map(|l| l.recorder).collect();
    recorders.extend(raw.control.map(|c| c.recorder));
    recorders.extend(raw.echo.map(|e| e.recorder));
    let (spans, dropped) = trace::merge(recorders);
    out.checks.push(Check {
        name: "no_spans_dropped",
        ok: dropped == 0,
        detail: format!("{dropped} spans beyond the recorder's cap"),
    });
    let totals = trace::totals(&spans);
    let total_of = |name: &str| totals.get(name).copied().unwrap_or_default();
    let msg_s = total_of("msg").total_s.max(1e-12);
    let p50_of = |name: &str| median(&trace::durations_ms(&spans, name));
    m.extend([
        (
            "socket.write_busy_share",
            total_of("socket.write").total_s / msg_s,
        ),
        (
            "socket.read_busy_share",
            total_of("socket.read").total_s / msg_s,
        ),
        ("socket.write_p50_ms", p50_of("socket.write")),
        ("socket.read_p50_ms", p50_of("socket.read")),
        ("harness.spans", spans.len() as f64),
        ("self.msg_s", total_of("msg").self_s),
        ("self.socket_write_s", total_of("socket.write").self_s),
        ("self.socket_read_s", total_of("socket.read").self_s),
        ("self.verify_s", total_of("harness.verify").self_s),
        ("self.echo_read_s", total_of("echo.read").self_s),
        ("self.echo_write_s", total_of("echo.write").self_s),
    ]);
    out.spans = spans;

    // A metric a workload has no layer for reads 0.
    out.per_layer = PER_LAYER
        .iter()
        .map(|&(name, _, _)| (name, m.get(name).copied().unwrap_or(0.0)))
        .collect();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::SliceOut;

    #[test]
    fn trace_overhead_and_its_error() {
        // Traced messages 2 % slower, no scatter: all cost, no doubt.
        let (o, se) = trace_overhead(&[102.0; 50], &[100.0; 50]);
        assert!((o - (1.0 - 100.0 / 102.0)).abs() < 1e-12);
        assert_eq!(se, 0.0);
        // Six bimodal messages a side: the same 8 % gap is inside two
        // standard errors, so it must not fail a run.
        let on = [1000.0, 1400.0, 1000.0, 1400.0, 1000.0, 1400.0];
        let off = [1000.0, 1000.0, 1400.0, 1000.0, 1400.0, 1000.0];
        let (o, se) = trace_overhead(&on, &off);
        assert!(o > TRACE_OVERHEAD_LIMIT);
        assert!(o - TRACE_OVERHEAD_SIGMAS * se < TRACE_OVERHEAD_LIMIT);
        assert_eq!(trace_overhead(&[], &[1.0]), (0.0, 0.0));
    }

    fn lane(slices: Vec<(SliceKind, f64, f64, Vec<f32>)>) -> LaneOut {
        LaneOut {
            slices: slices
                .into_iter()
                .map(|(kind, first_start, last_end, lat_ms)| SliceOut {
                    kind,
                    first_start,
                    last_end,
                    lat_ms,
                })
                .collect(),
            attempted: 0,
            failed: 0,
            errors: vec![],
            recorder: crate::trace::Recorder::new(std::time::Instant::now(), false),
            stats_start: adoc::TransferStats::new(),
            stats_end: adoc::TransferStats::new(),
            probes_bps: vec![],
        }
    }

    #[test]
    fn views_sum_lanes_and_skip_time_between_slices() {
        use SliceKind::*;
        let a = lane(vec![
            (Warm, 0.0, 1.0, vec![500.0, 500.0]),
            (Adoc, 1.0, 3.0, vec![1000.0, 1000.0]),
            (Posix, 3.5, 4.0, vec![500.0]),
            // Two seconds at the barrier before this slice are nobody's.
            (Adoc, 6.0, 8.0, vec![500.0; 4]),
        ]);
        let b = lane(vec![
            (Warm, 0.0, 1.0, vec![1000.0]),
            (Adoc, 1.0, 2.5, vec![500.0; 3]),
            (Posix, 3.5, 4.5, vec![1000.0]),
            (Adoc, 6.0, 8.0, vec![2000.0]),
        ]);
        let v = views(&[a, b], Adoc);
        assert_eq!(v.len(), 2);
        assert!((v[0].per_s - (1.0 + 2.0)).abs() < 1e-12);
        assert!((v[1].per_s - (2.0 + 0.5)).abs() < 1e-12);
        assert_eq!((v[0].secs, v[0].lat_ms.len()), (2.0, 5));
    }

    #[test]
    fn quiet_rule_keeps_the_fastest_slices() {
        let slice = |mean: f64, per_s: f64| SliceView {
            kind: SliceKind::Adoc,
            per_s,
            secs: 2.0,
            lat_ms: vec![mean; 4],
            kept: false,
        };
        // The third slice ran into a stall; the empty one lost its lane.
        let mut s = vec![
            slice(10.0, 200.0),
            slice(11.0, 180.0),
            slice(40.0, 50.0),
            slice(9.0, 220.0),
        ];
        s.push(SliceView {
            lat_ms: vec![],
            ..slice(0.0, 0.0)
        });
        mark_quiet(&mut s, 2);
        let flags: Vec<bool> = s.iter().map(|x| x.kept).collect();
        assert_eq!(flags, [true, false, false, true, false]);
        let (per_s, lat) = kept(&s);
        assert_eq!(per_s, 210.0);
        assert_eq!(lat.len(), 8);
        // Keeping everything is the plain mean.
        mark_quiet(&mut s, 5);
        assert_eq!(kept(&s).0, (200.0 + 180.0 + 50.0 + 220.0) / 5.0);
    }
}
