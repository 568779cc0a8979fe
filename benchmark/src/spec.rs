//! The benchmark's fixed vocabulary: the six workloads and every metric
//! name with its unit, direction and regression bound. `BENCHMARK.json`
//! at the repository root says the same thing to the driver; a unit test
//! keeps the two from drifting apart.

use crate::json::Json;
use adoc_data::DataKind;

/// Where a workload's bytes travel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Transport {
    /// `adoc_sim::link` shaped as the paper's 100 Mbit LAN.
    Lan100,
    /// Unshaped `adoc_sim::pipe::duplex_pipe` of this capacity.
    Pipe(usize),
    /// A real daemon (`daemon::spawn`) over loopback TCP.
    Daemon {
        /// Level bounds pinned on client and server (`None` = adaptive).
        levels: Option<(u8, u8)>,
        /// Scheduler budget in bytes/s.
        budget: Option<f64>,
        /// Adds an open-loop control-tier connection at this rate (1/s).
        control_rps: Option<f64>,
    },
}

/// One workload: what runs and how its window is cut.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json` and the README.
    pub why: &'static str,
    pub transport: Transport,
    /// Closed-loop AdOC clients (at most `nproc` = 2).
    pub lanes: usize,
    pub kind: DataKind,
    /// Message size in bytes.
    pub size: usize,
    /// Echoes each connection makes during set-up after its first, so
    /// that `setup_s` times about half a second of real work (lazy
    /// tables, pool fill, the daemon's first messages) and not just the
    /// page faults of a few fresh buffers.
    pub setup_echoes: usize,
    /// AdOC slices the window is cut into.
    pub slices: usize,
    /// The quiet-slice rule: end-to-end numbers come from this many
    /// slices, the ones with the lowest mean latency. This box stalls
    /// for tenths of a second to tens of seconds at a time (other
    /// tenants); a stall can only slow a slice down, so the faster
    /// slices are the ones that measured the program.
    pub keep: usize,
    /// Message size of the POSIX control (traced run).
    pub posix_size: usize,
    /// Length of each POSIX slice as a share of `--seconds`.
    pub posix_share: f64,
    /// Each POSIX slice runs exactly one message.
    pub posix_one: bool,
    /// The control also leads the window (start / middle / end).
    pub posix_first: bool,
    /// Messages per traced/untraced block in the traced run.
    pub trace_block: u64,
    /// The traced run also echoes against a second daemon built with
    /// `instrument(false)`, to price the event layer.
    pub bare_compare: bool,
}

const KIB: usize = 1024;
const MIB: usize = 1024 * 1024;

/// What most workloads share; each entry below overrides the rest.
const DEFAULTS: Workload = Workload {
    name: "",
    why: "",
    transport: Transport::Pipe(0),
    lanes: 2,
    kind: DataKind::Ascii,
    size: 0,
    setup_echoes: 0,
    slices: 6,
    keep: 3,
    posix_size: 0,
    posix_share: 0.025,
    posix_one: false,
    posix_first: false,
    trace_block: 1,
    bare_compare: false,
};

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "lan100_ascii",
        why: "16 MiB ASCII echo over a simulated 100 Mbit link: the link blocks, so codec speed decides the level adapt can hold (paper Fig. 3)",
        transport: Transport::Lan100,
        lanes: 1,
        kind: DataKind::Ascii,
        size: 16 * MIB,
        // The first echo alone takes a second.
        setup_echoes: 0,
        // Every message adapts afresh and takes 0.8 to 1.5 s: that
        // scatter is the policy's, not the host's, so nothing is set
        // aside and goodput is the mean over all of them.
        slices: 2,
        keep: 2,
        posix_size: 4 * MIB,
        // One 4 MiB echo at line rate takes 0.67 s of a 16 s window.
        posix_share: 0.042,
        posix_one: true,
        posix_first: true,
        trace_block: 1,
        bare_compare: false,
    },
    Workload {
        name: "pipe_incompressible",
        why: "16 MiB incompressible echo over an unshaped in-memory pipe: codec idle, only the sender/receiver/pool copy path, against POSIX at memory speed",
        transport: Transport::Pipe(MIB),
        lanes: 1,
        kind: DataKind::Incompressible,
        size: 16 * MIB,
        setup_echoes: 4,
        posix_size: 16 * MIB,
        posix_share: 1.0 / 12.0,
        ..DEFAULTS
    },
    Workload {
        name: "daemon_rr_1k",
        why: "2 closed-loop clients, 1 KiB request/response through the real daemon on loopback: per-message cost of reactor, sched admission and bookkeeping",
        transport: Transport::Daemon {
            levels: None,
            budget: None,
            control_rps: None,
        },
        size: KIB,
        setup_echoes: 4000,
        posix_size: KIB,
        trace_block: 256,
        bare_compare: true,
        ..DEFAULTS
    },
    Workload {
        name: "daemon_echo_l0",
        why: "2 clients, 4 MiB incompressible at level 0 through the daemon: the I/O ceiling, per-byte reactor and buffer cost, the memory workload",
        transport: Transport::Daemon {
            levels: Some((0, 0)),
            budget: None,
            control_rps: None,
        },
        kind: DataKind::Incompressible,
        size: 4 * MIB,
        setup_echoes: 40,
        posix_size: 4 * MIB,
        trace_block: 4,
        ..DEFAULTS
    },
    Workload {
        name: "daemon_echo_deflate",
        why: "2 clients, 1 MiB ASCII pinned at DEFLATE 1 through the daemon: the codec ceiling, workers inflate and deflate every message, both cores busy",
        transport: Transport::Daemon {
            levels: Some((2, 2)),
            budget: None,
            control_rps: None,
        },
        size: MIB,
        setup_echoes: 6,
        posix_size: MIB,
        ..DEFAULTS
    },
    Workload {
        name: "daemon_capped_tiers",
        why: "64 Mbit/s budget: a control-tier connection at 100 req/s open loop beside a bulk 1 MiB level-0 echo that saturates the budget; the only workload where sched binds",
        transport: Transport::Daemon {
            levels: Some((0, 0)),
            budget: Some(64e6 / 8.0),
            control_rps: Some(100.0),
        },
        lanes: 1,
        kind: DataKind::Incompressible,
        size: MIB,
        setup_echoes: 1,
        posix_size: MIB,
        ..DEFAULTS
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: measured with tracing off, bounded.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which it may get worse.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "goodput_mibps",
        unit: "MiB/s",
        better: Better::Higher,
        bound: 0.20,
    },
    EndToEnd {
        name: "req_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.20,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
    },
];

/// Per-layer metrics (traced run), `(name, unit, better)`. No bounds:
/// they explain a move in an end-to-end metric, they do not gate.
pub const PER_LAYER: [(&str, &str, Better); 87] = {
    use Better::{Higher as H, Lower as L};
    [
        // adoc-codec: single-threaded timings of public entry points on
        // the workload's own payload, cut into 200 KiB buffers.
        ("codec.lzf_compress_mibps", "MiB/s", H),
        ("codec.deflate1_compress_mibps", "MiB/s", H),
        ("codec.deflate3_compress_mibps", "MiB/s", H),
        ("codec.deflate6_compress_mibps", "MiB/s", H),
        ("codec.deflate9_compress_mibps", "MiB/s", H),
        ("codec.deflate9_hb_compress_mibps", "MiB/s", H),
        ("codec.lzf_decompress_mibps", "MiB/s", H),
        ("codec.inflate_mibps", "MiB/s", H),
        ("codec.deflate1_ratio", "x", H),
        ("codec.deflate6_ratio", "x", H),
        ("codec.lzf_incompressible_mibps", "MiB/s", H),
        ("codec.lz77_tokenize_mibps", "MiB/s", H),
        ("codec.adler32_mibps", "MiB/s", H),
        // adoc: socket / sender / adapt / wire / pool.
        ("socket.write_busy_share", "share", L),
        ("socket.read_busy_share", "share", L),
        ("socket.write_p50_ms", "ms", L),
        ("socket.read_p50_ms", "ms", L),
        ("sender.wire_ratio", "x", L),
        ("sender.direct_share", "share", H),
        ("sender.fast_path_share", "share", H),
        ("sender.probe_mbps_p50", "Mbit/s", H),
        ("adapt.mean_level", "level", H),
        ("adapt.max_level", "level", H),
        ("adapt.level_changes_per_msg", "count", L),
        ("adapt.divergence_reverts", "count", L),
        ("adapt.ratio_trips", "count", L),
        ("wire.overhead_share", "share", L),
        ("pool.hit_rate", "share", H),
        ("pool.peak_outstanding", "count", L),
        ("pool.idle_bytes_end", "B", L),
        ("pool.get_ns", "ns", L),
        // adoc-sim: the substrate must read its own nominal speed.
        ("link.posix_mibps", "MiB/s", H),
        ("pipe.posix_mibps", "MiB/s", H),
        ("tcp.posix_mibps", "MiB/s", H),
        // adoc-server: reactor / workers / sched / registry / daemon / event.
        ("reactor.read_p50_us", "us", L),
        ("reactor.read_p99_us", "us", L),
        ("reactor.write_p50_us", "us", L),
        ("reactor.write_p99_us", "us", L),
        ("reactor.total_p50_us", "us", L),
        ("reactor.total_p99_us", "us", L),
        ("reactor.read_share", "share", L),
        ("reactor.write_share", "share", L),
        ("reactor.unattributed_share", "share", L),
        ("workers.queue_wait_p50_us", "us", L),
        ("workers.queue_wait_p99_us", "us", L),
        ("workers.codec_p50_us", "us", L),
        ("workers.codec_share", "share", L),
        ("workers.jobs", "count", L),
        ("workers.queue_peak", "count", L),
        ("workers.panics", "count", L),
        ("sched.wait_p50_us", "us", L),
        ("sched.wait_p99_us", "us", L),
        ("sched.wait_share", "share", L),
        ("sched.utilization", "share", H),
        ("sched.total_admitted_mib", "MiB", L),
        ("sched.drain_admitted", "B", L),
        ("sched.admit_ns", "ns", L),
        ("registry.accepted", "count", L),
        ("registry.failed", "count", L),
        ("registry.handshake_failures", "count", L),
        ("daemon.connect_p50_us", "us", L),
        ("daemon.drain_s", "s", L),
        ("event.instrument_overhead_share", "share", L),
        // The process and the harness itself.
        ("proc.cpu_s_per_gib", "s/GiB", L),
        ("proc.cpu_util", "share", L),
        ("proc.ctx_switches_per_msg", "count", L),
        ("proc.threads_peak", "count", L),
        ("harness.posix_ratio", "x", H),
        ("harness.msg_p50_ms", "ms", L),
        ("harness.msg_p90_ms", "ms", L),
        ("harness.msg_p99_ms", "ms", L),
        ("harness.control_p50_ms", "ms", L),
        ("harness.control_p99_ms", "ms", L),
        ("harness.gen_lag_p90_ms", "ms", L),
        ("harness.samples", "count", H),
        ("harness.failed_share", "share", L),
        ("harness.trace_overhead_share", "share", L),
        ("harness.trace_overhead_se", "share", L),
        ("harness.spans", "count", L),
        // Self time per harness span name (traced messages only).
        ("self.msg_s", "s", L),
        ("self.socket_write_s", "s", L),
        ("self.socket_read_s", "s", L),
        ("self.verify_s", "s", L),
        ("self.echo_read_s", "s", L),
        ("self.echo_write_s", "s", L),
        ("harness.goodput_traced_mibps", "MiB/s", H),
        ("harness.goodput_untraced_mibps", "MiB/s", H),
    ]
};

/// `run_seconds` in `BENCHMARK.json`, and `--seconds` when nobody says.
/// Sized so that each run, with its set-ups and warm-up, ends in about
/// 20 s: the driver's 136 runs and two builds fit its 3420 s with room.
pub const RUN_SECONDS: u64 = 16;

/// The whole of `BENCHMARK.json`, generated from the tables above
/// (`adoc-benchmark spec` prints it).
pub fn benchmark_json() -> Json {
    let strs = |v: &[&str]| Json::Arr(v.iter().map(|s| Json::str(*s)).collect());
    Json::obj([
        (
            "command",
            strs(&[
                "cargo",
                "run",
                "--release",
                "--quiet",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
            ]),
        ),
        ("paths", strs(&["benchmark"])),
        ("run_seconds", Json::from(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::from(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|&(name, unit, better)| {
                        Json::obj([
                            ("name", Json::str(name)),
                            ("unit", Json::str(unit)),
                            ("better", Json::str(better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use std::collections::BTreeSet;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(w.lanes <= 2 && w.posix_size <= w.size && w.size > 0);
            assert!(w.keep >= 1 && w.keep <= w.slices);
        }
        for m in &END_TO_END {
            assert!(valid_name(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}", m.unit);
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        for (name, unit, _) in &PER_LAYER {
            assert!(valid_name(name) && seen.insert(name), "{name}");
            assert!(valid_unit(unit), "{unit}");
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
    }

    /// `BENCHMARK.json` is what the driver reads; the tables here are
    /// what the harness emits. The file must be exactly what
    /// `adoc-benchmark spec` prints.
    #[test]
    fn benchmark_json_is_generated_from_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            json::parse(&text).expect("BENCHMARK.json parses"),
            benchmark_json()
        );
        assert!(text.len() <= 64 * 1024);
        let doc = benchmark_json();
        let keys: Vec<&str> = doc.as_obj().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert!((1..=60).contains(&RUN_SECONDS));
    }
}
