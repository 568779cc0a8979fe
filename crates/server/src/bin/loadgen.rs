//! `adoc-loadgen` — drives N concurrent AdOC clients against a server.
//!
//! ```text
//! adoc-loadgen [--connect ADDR] [--clients N] [--idle-clients N]
//!              [--bulk-clients N] [--bulk-size B]
//!              [--messages M] [--size B]
//!              [--streams CSV] [--kind ascii|binary|incompressible|mixed]
//!              [--levels MIN,MAX] [--mode echo|sink] [--budget-mbit F]
//!              [--default-tier control|paid|bulk]
//!              [--tier control|paid|bulk] [--rps F]
//!              [--sim lan100|renater|internet|gbit] [--quick] [--json PATH]
//!              [--churn SECS] [--secret STRING]
//! ```
//!
//! `--churn SECS` switches to **session churn** mode: every client opens
//! an authenticated, resumable v4 session, then repeatedly cuts its own
//! connections mid-message (half the message streamed, then a hard
//! socket shutdown) and reconnects with its session ticket. A reconnect
//! that lands mid-message finishes the interrupted transfer from the
//! server's resume point — counted as *resumed*; one that finds the
//! session gone (or back at a message boundary) re-sends the whole
//! message — counted as *restarted*. Every echo is still verified
//! byte-exact, resumes alternate onto a different stream width, and the
//! report (and `--json`) carries the resumed/restarted counts.
//! `--secret` makes the spawned daemon require authentication and sends
//! MAC'd hellos (it matches `adoc-serverd --secret`).
//!
//! `--idle-clients N` holds N extra connections open while the busy
//! clients transfer: before the wall clock starts, the main thread dials
//! each one and does one tiny echo to register it, then keeps it as a
//! held socket with no thread of its own until the busy phase ends. This
//! is the skewed-load shape that separates a work-conserving scheduler
//! (busy clients run the whole `--budget-mbit`) from a fixed fair-share
//! one (pinned at `budget / (busy + idle)`). Idle traffic is excluded
//! from the reported aggregate.
//!
//! `--tier` + `--rps` turn the busy clients into request/response
//! latency probes: each client is re-tiered on the spawned daemon's
//! scheduler (after a warmup round trip), then sends `--messages`
//! requests paced at `--rps` per second, and the per-request round-trip
//! latencies land in the report as a p50/p99 histogram. `--tier` needs
//! the in-process daemon (single-stream connections): it is rejected
//! with `--connect` and `--sim`. `--rps` alone paces without
//! re-tiering and works in every mode.
//!
//! `--bulk-clients N` adds N *saturating* background connections (each
//! loops `--bulk-size` messages back-to-back at the server's default
//! tier for the whole busy phase). Combined with `--tier control
//! --rps`, this is the Table-2 tier-latency scenario: control-tier
//! round trips probed while bulk traffic saturates the budget. The
//! bulk population reports its own throughput and latency histogram as
//! a second entry in the JSON report.
//!
//! Three ways to find a server:
//!
//! * `--connect ADDR` — loopback/remote TCP against a running
//!   `adoc-serverd`;
//! * default — spawn an in-process daemon on an ephemeral loopback port,
//!   run the clients over real TCP, then drain it and report its
//!   metrics;
//! * `--sim PROFILE` — run each client over its own `adoc-sim` shaped
//!   link straight into the server core (no TCP), reproducing the
//!   paper's network profiles.
//!
//! Every echo is verified byte-exact (sink mode verifies the length +
//! FNV-1a ack); any mismatch fails the process.

use adoc::{AdocConfig, AdocSocket, AdocStreamGroup, HistSnapshot, Histogram};
use adoc_data::{generate, DataKind};
use adoc_server::{daemon, fnv1a64, sink_ack, ServeMode, Server, ServerConfig, Tier};
use adoc_sim::link::duplex;
use adoc_sim::netprofiles::NetProfile;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, ScopedJoinHandle};
use std::time::{Duration, Instant};

fn usage() -> ! {
    eprintln!(
        "usage: adoc-loadgen [--connect ADDR] [--clients N] [--idle-clients N]\n\
         \u{20}                   [--messages M] [--size B]\n\
         \u{20}                   [--streams CSV] [--kind ascii|binary|incompressible|mixed]\n\
         \u{20}                   [--levels MIN,MAX] [--mode echo|sink] [--budget-mbit F]\n\
         \u{20}                   [--default-tier control|paid|bulk]\n\
         \u{20}                   [--bulk-clients N] [--bulk-size B]\n\
         \u{20}                   [--tier control|paid|bulk] [--rps F]\n\
         \u{20}                   [--sim lan100|renater|internet|gbit] [--quick] [--json PATH]\n\
         \u{20}                   [--churn SECS] [--secret STRING]\n\
         --churn runs resumable v4 sessions that cut their connections\n\
         mid-message and resume with their tickets for SECS seconds,\n\
         reporting resumed vs restarted transfers (--secret matches\n\
         adoc-serverd --secret and turns on require-auth when spawning)\n\
         --idle-clients holds N extra registered-but-idle connections open\n\
         as sockets with no thread each (skewed load: a work-conserving\n\
         budget still runs at full rate)\n\
         --tier/--rps run the busy clients as paced request/response\n\
         latency probes and report a p50/p99 round-trip histogram\n\
         --bulk-clients adds saturating background traffic for the\n\
         whole busy phase (tier-latency scenarios)"
    );
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> T {
    let Some(v) = args.next() else {
        eprintln!("missing value for {flag}");
        usage();
    };
    v.parse().unwrap_or_else(|_| {
        eprintln!("bad value {v:?} for {flag}");
        usage();
    })
}

/// `flag`'s value, which must be a positive finite number of `unit`.
fn parse_rate(args: &mut impl Iterator<Item = String>, flag: &str, unit: &str) -> f64 {
    let v: f64 = parse(args, flag);
    if !(v > 0.0 && v.is_finite()) {
        eprintln!("{flag} wants a positive finite {unit}, got {v}");
        usage();
    }
    v
}

/// `flag`'s comma-separated values.
fn parse_csv<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> Vec<T> {
    let csv: String = parse(args, flag);
    csv.split(',')
        .map(|s| s.trim().parse().unwrap_or_else(|_| usage()))
        .collect()
}

#[derive(Clone)]
struct Plan {
    clients: usize,
    /// Extra connections that register, then hold idle while the busy
    /// clients run (skewed-load shape).
    idle_clients: usize,
    messages: usize,
    size: usize,
    streams: Vec<usize>,
    kinds: Vec<DataKind>,
    levels: Option<(u8, u8)>,
    mode: ServeMode,
    /// Tier a spawned in-process daemon assigns to every connection.
    default_tier: Tier,
    /// Re-tier the busy clients on the spawned daemon's scheduler
    /// (request/response latency-probe mode).
    tier: Option<Tier>,
    /// Per-client request pacing, requests per second (`None` =
    /// back-to-back).
    rps: Option<f64>,
    /// Saturating background connections held for the whole busy phase.
    bulk_clients: usize,
    /// Message size of the saturating background clients.
    bulk_size: usize,
    /// Bandwidth budget of a spawned in-process daemon, Mbit/s.
    budget_mbit: Option<f64>,
    /// Key of the `--churn` sessions' hellos, which the spawned daemon
    /// then demands.
    secret: Option<String>,
}

impl Plan {
    /// This plan cut to single unpaced messages of `size` bytes on one
    /// connection: an idle client's registration, a probe's warmup, a
    /// bulk client's rounds.
    fn one_message(&self, size: usize) -> Plan {
        Plan {
            messages: 1,
            size,
            rps: None,
            ..self.clone()
        }
    }

    fn client_cfg(&self) -> AdocConfig {
        match self.levels {
            Some((min, max)) => AdocConfig::default().with_levels(min, max),
            None => AdocConfig::default(),
        }
    }
}

/// One client's session on `conn`: `plan.messages` send+verify round
/// trips or, given `until`, round trips until it is set.
fn run_client_on(
    conn: &mut (impl Read + Write),
    plan: &Plan,
    payload: &[u8],
    until: Option<&AtomicBool>,
) -> Result<Tally, String> {
    let start = Instant::now();
    let mut raw = 0u64;
    let interval = plan.rps.map(|r| Duration::from_secs_f64(1.0 / r));
    let latency = Histogram::new();
    // What the server must send back: the echo, or the sink's ack.
    let ack;
    let (reply, legs, what, wrong) = match plan.mode {
        ServeMode::Echo => (payload, 2, "echo", "was not byte-exact"),
        ServeMode::Sink => {
            ack = sink_ack(payload.len() as u64, fnv1a64(payload));
            (&ack[..], 1, "ack", "mismatched (len or checksum)")
        }
    };
    for m in 0.. {
        if until.map_or(m >= plan.messages, |stop| stop.load(Ordering::Relaxed)) {
            break;
        }
        if let Some(iv) = interval {
            // Pace against the schedule, not the previous completion,
            // so a slow round trip does not smear every later slot.
            let slot = start + iv.mul_f32(m as f32);
            thread::sleep(slot.saturating_duration_since(Instant::now()));
        }
        let req = Instant::now();
        conn.write_all(payload)
            .map_err(|e| format!("send {m}: {e}"))?;
        let mut back = vec![0u8; reply.len()];
        conn.read_exact(&mut back)
            .map_err(|e| format!("{what} read {m}: {e}"))?;
        if back != reply {
            return Err(format!("{what} {m} {wrong}"));
        }
        raw += legs * payload.len() as u64;
        latency.record_duration(req.elapsed());
    }
    Ok(Tally {
        raw,
        secs: vec![start.elapsed().as_secs_f64()],
        latency: latency.snapshot(),
    })
}

/// One small untimed round trip (1 KiB of ASCII from `seed`), after
/// which the daemon has sniffed, registered and admitted the connection.
fn register(conn: &mut (impl Read + Write), plan: &Plan, seed: u64) -> Result<(), String> {
    let payload = generate(DataKind::Ascii, 1024, seed);
    run_client_on(conn, &plan.one_message(payload.len()), &payload, None).map(drop)
}

/// Moves a latency probe's connection onto `tier` on the spawned
/// daemon's scheduler: a warmup round trip gets the connection
/// registered, then the registry row whose peer matches the probe's
/// local socket address is re-tiered.
fn retier_probe(
    server: &Server,
    conn: &mut (impl Read + Write),
    plan: &Plan,
    local_addr: &str,
    tier: Tier,
) -> Result<(), String> {
    register(conn, plan, 0xBEEF).map_err(|e| format!("warmup: {e}"))?;
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        let rows = server.registry().snapshot();
        let row = rows.into_iter().find(|s| s.peer == local_addr);
        if row.is_some_and(|row| server.scheduler().set_tier(row.id, tier)) {
            return Ok(());
        }
        thread::sleep(Duration::from_millis(5));
    }
    Err(format!(
        "could not re-tier: peer {local_addr} not admitted within 5s"
    ))
}

type Conn = AdocSocket<TcpStream, TcpStream>;

/// Dials a client connection of `streams` streams to `addr`. A
/// single-stream one also returns the local address it dials from: the
/// peer its registry row on the daemon shows, which `--tier` looks up.
fn dial(addr: &str, plan: &Plan, streams: usize) -> Result<(Conn, Option<String>), String> {
    let cfg = plan.client_cfg().with_streams(streams);
    if streams > 1 {
        let group =
            AdocStreamGroup::connect(addr, cfg).map_err(|e| format!("group connect: {e}"))?;
        return Ok((group, None));
    }
    let sock = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    sock.set_nodelay(true).ok();
    let local = sock.local_addr().map_err(|e| format!("local addr: {e}"))?;
    let r = sock.try_clone().map_err(|e| format!("clone: {e}"))?;
    let conn = AdocSocket::with_config(r, sock, cfg).map_err(|e| format!("cfg: {e}"))?;
    Ok((conn, Some(local.to_string())))
}

/// Every client thread's result; one that panicked counts as failed, so
/// the caller still stops the bulk population after it.
fn joined<T>(handles: Vec<ScopedJoinHandle<'_, Result<T, String>>>) -> Vec<Result<T, String>> {
    let join = |h: ScopedJoinHandle<'_, _>| h.join().unwrap_or_else(|_| Err("panicked".into()));
    handles.into_iter().map(join).collect()
}

/// Runs `client(c)` for each of the plan's `clients` on its own thread.
/// Returns their results, each error prefixed with `who` and `c`, and the
/// wall time they took together.
fn each_client<T: Send>(
    plan: &Plan,
    who: &str,
    client: impl Fn(usize) -> Result<T, String> + Sync,
) -> (Vec<Result<T, String>>, f64) {
    let start = Instant::now();
    let client = |c| client(c).map_err(|e| format!("{who} {c}: {e}"));
    let results = thread::scope(|s| {
        let handles = (0..plan.clients).map(|c| s.spawn(move || client(c)));
        joined(handles.collect())
    });
    (results, start.elapsed().as_secs_f64())
}

fn main() {
    let mut connect: Option<String> = None;
    let mut sim: Option<NetProfile> = None;
    let mut json: Option<String> = None;
    let mut quick = false;
    let mut churn: Option<u64> = None;
    let mut plan = Plan {
        clients: 8,
        idle_clients: 0,
        messages: 4,
        size: 1 << 20,
        streams: vec![1],
        kinds: DataKind::ALL.to_vec(),
        levels: None,
        mode: ServeMode::Echo,
        default_tier: Tier::Bulk,
        tier: None,
        rps: None,
        bulk_clients: 0,
        bulk_size: 1 << 20,
        budget_mbit: None,
        secret: None,
    };

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--connect" => connect = Some(parse(&mut args, "--connect")),
            "--clients" => plan.clients = parse(&mut args, "--clients"),
            "--idle-clients" => plan.idle_clients = parse(&mut args, "--idle-clients"),
            "--bulk-clients" => plan.bulk_clients = parse(&mut args, "--bulk-clients"),
            "--bulk-size" => plan.bulk_size = parse(&mut args, "--bulk-size"),
            "--default-tier" => plan.default_tier = parse(&mut args, "--default-tier"),
            "--tier" => plan.tier = Some(parse(&mut args, "--tier")),
            "--rps" => plan.rps = Some(parse_rate(&mut args, "--rps", "rate")),
            "--messages" => plan.messages = parse(&mut args, "--messages"),
            "--size" => plan.size = parse(&mut args, "--size"),
            "--streams" => plan.streams = parse_csv(&mut args, "--streams"),
            "--kind" => {
                plan.kinds = match parse::<String>(&mut args, "--kind").as_str() {
                    "ascii" => vec![DataKind::Ascii],
                    "binary" => vec![DataKind::Binary],
                    "incompressible" => vec![DataKind::Incompressible],
                    "mixed" => DataKind::ALL.to_vec(),
                    other => {
                        eprintln!("unknown kind {other:?}");
                        usage();
                    }
                }
            }
            "--levels" => match parse_csv(&mut args, "--levels")[..] {
                [min, max] => plan.levels = Some((min, max)),
                _ => usage(),
            },
            "--mode" => {
                plan.mode = match parse::<String>(&mut args, "--mode").as_str() {
                    "echo" => ServeMode::Echo,
                    "sink" => ServeMode::Sink,
                    _ => usage(),
                }
            }
            "--budget-mbit" => {
                plan.budget_mbit = Some(parse_rate(&mut args, "--budget-mbit", "Mbit/s"))
            }
            "--sim" => {
                sim = Some(match parse::<String>(&mut args, "--sim").as_str() {
                    "lan100" => NetProfile::Lan100,
                    "renater" => NetProfile::Renater,
                    "internet" => NetProfile::Internet,
                    "gbit" => NetProfile::Gbit,
                    other => {
                        eprintln!("unknown profile {other:?}");
                        usage();
                    }
                })
            }
            "--churn" => match parse(&mut args, "--churn") {
                0 => {
                    eprintln!("--churn wants a positive duration in seconds");
                    usage();
                }
                secs => churn = Some(secs),
            },
            "--secret" => plan.secret = Some(parse(&mut args, "--secret")),
            "--quick" => quick = true,
            "--json" => json = Some(parse(&mut args, "--json")),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage();
            }
        }
    }
    if quick {
        plan.clients = plan.clients.min(6);
        plan.messages = plan.messages.min(2);
        plan.size = plan.size.min(192 << 10);
    }
    // Reject flag combinations that would silently measure a different
    // configuration than the one requested.
    let striped = plan.streams.iter().any(|&s| s != 1);
    let (simulated, external) = (sim.is_some(), connect.is_some());
    let (tiered, churning) = (plan.tier.is_some(), churn.is_some());
    #[rustfmt::skip]
    let rules = [
        (simulated && striped, "--sim drives v1 (single-stream) connections only; \
            stream groups need the TCP path. Drop --streams or --sim."),
        (simulated && external, "--sim and --connect are mutually exclusive"),
        (simulated && plan.idle_clients > 0, "--idle-clients needs the TCP path; drop --sim"),
        (simulated && plan.bulk_clients > 0, "--bulk-clients needs the TCP path; drop --sim"),
        (tiered && external, "--tier re-tiers connections on the spawned in-process \
            daemon's scheduler; an external server's tiers are set on adoc-serverd"),
        (tiered && simulated, "--tier needs the spawned TCP path; drop --sim"),
        (tiered && striped, "--tier probes use single-stream connections; drop --streams"),
        (external && plan.budget_mbit.is_some(), "--budget-mbit only configures a spawned \
            in-process daemon; an external server's budget is set on adoc-serverd"),
        (churning && (simulated || tiered || plan.rps.is_some()),
            "--churn drives plain v4 sessions over TCP; drop --sim/--tier/--rps"),
        (churning && plan.idle_clients + plan.bulk_clients > 0,
            "--churn does not mix with --idle-clients/--bulk-clients"),
        (churning && plan.mode != ServeMode::Echo,
            "--churn verifies byte-exact echoes; drop --mode sink"),
        (!churning && plan.secret.is_some(),
            "--secret keys session-mode clients; it needs --churn"),
    ];
    if let Some((_, message)) = rules.iter().find(|(violated, _)| *violated) {
        eprintln!("adoc-loadgen: {message}");
        std::process::exit(2);
    }

    let result = if let Some(secs) = churn {
        // Mid-message resume needs *trackable* receives: multi-stream
        // striped-adaptive messages past the 512 KiB probe threshold
        // (smaller ones ship Direct, and single-stream fresh receives
        // are untracked — both can only restart, never resume).
        const CHURN_MIN_SIZE: usize = 640 << 10;
        if plan.size < CHURN_MIN_SIZE {
            eprintln!(
                "adoc-loadgen: --churn raises --size {} -> {} (cuts must land past the probe, mid-striped-body)",
                plan.size, CHURN_MIN_SIZE
            );
            plan.size = CHURN_MIN_SIZE;
        }
        if !striped {
            plan.streams = vec![2, 3];
        }
        let max_conns = (plan.clients * 8).max(64);
        serve(&plan, connect, true, max_conns, |addr, _| {
            run_churn(&plan, addr, secs)
        })
        .and_then(|(ran, server)| report_churn(&plan, secs, ran, server, json.as_deref()))
    } else {
        let max_conns = ((plan.clients + plan.idle_clients + plan.bulk_clients) * 2).max(64);
        let clients = |addr: &str, server: Option<&Arc<Server>>| match sim {
            Some(profile) => run_sim(&plan, server.expect("--sim serves in process"), profile),
            None => run_tcp(&plan, addr, server),
        };
        serve(&plan, connect, sim.is_none(), max_conns, clients)
            .and_then(|(ran, server)| report(&plan, ran, server, json.as_deref()))
    };
    if let Err(e) = result {
        eprintln!("adoc-loadgen: FAILED: {e}");
        std::process::exit(1);
    }
}

/// One run's server side, start to finish. `connect` names an external
/// server; otherwise one is built in process and, when `spawn`, served
/// as a daemon on an ephemeral loopback port (`--sim` clients feed it
/// over simulated links instead). `clients` runs against the address
/// and the in-process server; then the daemon is drained and the server
/// checked for leaked pool buffers. Returns what `clients` returned and
/// the in-process server.
fn serve<R>(
    plan: &Plan,
    connect: Option<String>,
    spawn: bool,
    max_conns: usize,
    clients: impl FnOnce(&str, Option<&Arc<Server>>) -> Result<R, String>,
) -> Result<(R, Option<Arc<Server>>), String> {
    let server = match connect {
        Some(_) => None,
        None => {
            let mut builder = ServerConfig::builder()
                .mode(plan.mode)
                .budget(plan.budget_mbit.map(|m| m * 1e6 / 8.0))
                .max_conns(max_conns)
                .default_tier(plan.default_tier);
            if let Some(s) = &plan.secret {
                // A keyed run exercises the full path: MAC'd hellos are
                // demanded, plaintext clients are refused.
                builder = builder
                    .auth_secret(s.as_bytes().to_vec())
                    .require_auth(true);
            }
            let cfg = builder.build().map_err(|e| format!("server config: {e}"))?;
            Some(Server::new(cfg).map_err(|e| format!("server config: {e}"))?)
        }
    };
    let daemon = (server.as_ref().filter(|_| spawn))
        .map(|server| daemon::spawn(Arc::clone(server), "127.0.0.1:0"))
        .transpose()
        .map_err(|e| format!("spawn daemon: {e}"))?;
    let spawned = daemon.as_ref().map(|d| d.addr().to_string());
    let addr = connect.or(spawned).unwrap_or_default();
    let ran = clients(&addr, server.as_ref())?;
    if let Some(daemon) = daemon {
        daemon.shutdown().map_err(|e| format!("drain: {e}"))?;
    }
    let leaked = server.as_ref().map_or(0, |s| s.pool().stats().outstanding);
    if leaked != 0 {
        return Err(format!(
            "pool leak after drain: {leaked} buffers outstanding"
        ));
    }
    Ok((ran, server))
}

/// What a client population moved, merged across its clients.
#[derive(Default)]
struct Tally {
    raw: u64,
    /// Each client's session time.
    secs: Vec<f64>,
    /// Round-trip latency histogram.
    latency: HistSnapshot,
}

impl Tally {
    fn of(results: Vec<Result<Tally, String>>) -> Result<Tally, String> {
        let mut tally = Tally::default();
        for r in results {
            let r = r?;
            tally.raw += r.raw;
            tally.secs.extend(r.secs);
            tally.latency.merge(&r.latency);
        }
        Ok(tally)
    }

    fn mib_per_s(&self, wall: f64) -> f64 {
        self.raw as f64 / wall / (1024.0 * 1024.0)
    }

    /// This population's entry in the `results` of an `adoc-loadgen-v1`
    /// document.
    fn json_entry(&self, id: String, wall: f64) -> String {
        let (raw, ns, mib) = (self.raw, (wall * 1e9) as u128, self.mib_per_s(wall));
        let lat = self.latency.summary();
        let (count, p50, p99, max) = (lat.count, lat.p50, lat.p99, lat.max);
        format!("    {{ \"id\": \"loadgen/{id}\", \"mean_ns\": {ns}, \"samples\": 1, \"throughput_bytes\": {raw}, \"mib_per_s\": {mib:.2},\n      \"latency\": {{ \"count\": {count}, \"p50_us\": {p50}, \"p99_us\": {p99}, \"max_us\": {max} }} }}")
    }
}

/// What a client run produced: the busy clients, timed over `wall`
/// seconds, and the bulk population beside them.
struct Outcome {
    busy: Tally,
    bulk: Tally,
    wall: f64,
}

/// Prints a client run's report lines and the in-process server's
/// metrics, and writes the `adoc-loadgen-v1` document to `json`.
fn report(
    plan: &Plan,
    ran: Outcome,
    server: Option<Arc<Server>>,
    json: Option<&str>,
) -> Result<(), String> {
    let Outcome { busy, bulk, wall } = ran;
    let lat = busy.latency.summary();
    let fastest = busy.secs.iter().cloned().fold(f64::INFINITY, f64::min);
    let slowest = busy.secs.iter().cloned().fold(0.0, f64::max);
    let idle = match plan.idle_clients {
        0 => String::new(),
        n => format!(" (+{n} idle)"),
    };
    println!(
        "adoc-loadgen: {} clients{idle} x {} messages x {} B: {:.1} MiB moved in {wall:.3}s = {:.2} MiB/s aggregate (client {fastest:.3}s..{slowest:.3}s)",
        plan.clients,
        plan.messages,
        plan.size,
        busy.raw as f64 / (1024.0 * 1024.0),
        busy.mib_per_s(wall),
    );
    if plan.tier.is_some() || plan.rps.is_some() {
        println!(
            "adoc-loadgen: round-trip latency over {} requests: p50 {:.3} ms, p99 {:.3} ms, max {:.3} ms",
            lat.count,
            lat.p50 as f64 / 1e3,
            lat.p99 as f64 / 1e3,
            lat.max as f64 / 1e3,
        );
    }
    if plan.bulk_clients > 0 {
        println!(
            "adoc-loadgen: {} bulk clients x {} B background: {:.1} MiB moved = {:.2} MiB/s (message p50 {:.1} ms)",
            plan.bulk_clients,
            plan.bulk_size,
            bulk.raw as f64 / (1024.0 * 1024.0),
            bulk.mib_per_s(wall),
            bulk.latency.summary().p50 as f64 / 1e3,
        );
    }
    if let Some(s) = &server {
        println!("{}", s.metrics_json());
    }
    let Some(path) = json else { return Ok(()) };
    let echo = plan.mode == ServeMode::Echo;
    let mode = if echo { "echo" } else { "sink" };
    let mut entries = vec![busy.json_entry(format!("{mode}/clients={}", plan.clients), wall)];
    if plan.bulk_clients > 0 {
        entries.push(bulk.json_entry(format!("bulk/clients={}", plan.bulk_clients), wall));
    }
    let utilization = server.and_then(|s| s.scheduler().utilization());
    let doc = format!(
        "{{\n  \"schema\": \"adoc-loadgen-v1\",\n  \"sched_utilization\": {},\n  \"results\": [\n{}\n  ]\n}}\n",
        utilization.map_or("null".to_string(), |u| format!("{u:.4}")),
        entries.join(",\n")
    );
    std::fs::write(path, doc).map_err(|e| format!("cannot write {path}: {e}"))
}

/// Runs the plan's TCP clients against `addr`. The idle clients are
/// registered and held, and the bulk clients connected, before the wall
/// clock starts; the bulk clients saturate the server until every busy
/// client has finished, so the probes never see an unloaded server.
/// `server` is the spawned daemon's, which re-tiers `--tier` probes.
fn run_tcp(plan: &Plan, addr: &str, server: Option<&Arc<Server>>) -> Result<Outcome, String> {
    // Skewed load: each idle connection is registered by one tiny echo,
    // then held here, with no thread of its own, until the busy phase
    // is over.
    let hold = |c: usize| -> Result<Conn, String> {
        let (mut conn, _) = dial(addr, plan, 1)?;
        register(&mut conn, plan, c as u64 + 9001)?;
        Ok(conn)
    };
    let idle = (0..plan.idle_clients)
        .map(|c| hold(c).map_err(|e| format!("idle client {c}: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let bulk_plan = plan.one_message(plan.bulk_size);
    let bulk = (0..plan.bulk_clients)
        .map(|c| dial(addr, plan, 1).map_err(|e| format!("bulk client {c}: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let busy_client = |c: usize| -> Result<Tally, String> {
        let kind = plan.kinds[c % plan.kinds.len()];
        let payload = generate(kind, plan.size, (c as u64 + 1) * 7);
        let (mut conn, local) = dial(addr, plan, plan.streams[c % plan.streams.len()])?;
        if let Some(tier) = plan.tier {
            let server = server.expect("--tier is rejected without a spawned daemon");
            let local = local.expect("--tier is rejected with --streams");
            retier_probe(server, &mut conn, plan, &local, tier)?;
        }
        run_client_on(&mut conn, plan, &payload, None)
    };
    let stop = AtomicBool::new(false);
    thread::scope(|s| {
        let (bulk_plan, stop) = (&bulk_plan, &stop);
        let bulk: Vec<_> = (bulk.into_iter().enumerate())
            .map(|(c, (mut conn, _))| {
                s.spawn(move || {
                    let kind = plan.kinds[c % plan.kinds.len()];
                    let payload = generate(kind, plan.bulk_size, c as u64 + 5001);
                    run_client_on(&mut conn, bulk_plan, &payload, Some(stop))
                        .map_err(|e| format!("bulk client {c}: {e}"))
                })
            })
            .collect();
        let (busy, wall) = each_client(plan, "client", busy_client);
        stop.store(true, Ordering::Relaxed);
        drop(idle);
        Ok(Outcome {
            busy: Tally::of(busy)?,
            bulk: Tally::of(joined(bulk))?,
            wall,
        })
    })
}

/// Runs the plan over per-client `adoc-sim` shaped links straight into
/// `server`'s core (v1 connections; stream groups need the TCP path).
fn run_sim(plan: &Plan, server: &Arc<Server>, profile: NetProfile) -> Result<Outcome, String> {
    let sim_client = |c: usize| -> Result<Tally, String> {
        let kind = plan.kinds[c % plan.kinds.len()];
        let payload = generate(kind, plan.size, (c as u64 + 1) * 7);
        let (client_end, server_end) = duplex(profile.link_cfg());
        let (sr, sw) = server_end.split();
        thread::scope(|s| {
            s.spawn(|| server.serve_stream(sr, sw, &format!("sim-client-{c}")));
            let (cr, cw) = client_end.split();
            let mut conn = AdocSocket::with_config(cr, cw, plan.client_cfg())
                .map_err(|e| format!("cfg: {e}"))?;
            // Dropping `conn` on return is the server side's EOF.
            run_client_on(&mut conn, plan, &payload, None)
        })
    };
    let (results, wall) = each_client(plan, "client", sim_client);
    Ok(Outcome {
        busy: Tally::of(results)?,
        bulk: Tally::default(),
        wall,
    })
}

/// What one churn client tallied over its whole run.
#[derive(Debug, Default, Clone, Copy)]
struct ChurnResult {
    /// Reconnects that continued an interrupted message mid-stream from
    /// the server's resume point.
    resumed: u64,
    /// Reconnects that re-sent the whole message (session gone, or the
    /// cut landed at a message boundary).
    restarted: u64,
    /// Byte-exact echoes verified.
    messages: u64,
    raw_bytes: u64,
}

/// One churn client: a resumable session that repeatedly cuts its own
/// connections mid-message and reconnects with its ticket until
/// `deadline`.
fn churn_client(
    addr: &str,
    plan: &Plan,
    deadline: Instant,
    c: usize,
) -> Result<ChurnResult, String> {
    let secret = plan.secret.as_deref().map(str::as_bytes);
    let kind = plan.kinds[c % plan.kinds.len()];
    let payload = generate(kind, plan.size, c as u64 * 7 + 1);
    let base = plan.streams[c % plan.streams.len()];
    // Resumes alternate onto a different width so re-striping the
    // remainder of a message across a new stream count gets exercised.
    let alt = if base >= 2 { base - 1 } else { 2 };
    let cfg = plan.client_cfg().with_streams(base);
    let (mut conn, mut info) = AdocStreamGroup::connect_session(addr, cfg.clone(), secret)
        .map_err(|e| format!("connect_session: {e}"))?;
    let mut out = ChurnResult::default();
    let mut attempt = 0u64;
    while Instant::now() < deadline {
        attempt += 1;
        if attempt % 2 == 1 {
            // Interrupted transfer: stream only half the message (the
            // short source fails the send mid-message), hard-cut every
            // socket, then come back with the ticket.
            let cut = (payload.len() / 2).max(1);
            let mut src = &payload[..cut];
            let _ = conn.send_reader(&mut src, payload.len() as u64, &cfg);
            let _ = conn.shutdown_streams();
            drop(conn);
            let width = if attempt % 4 == 1 { alt } else { base };
            let resume_cfg = plan.client_cfg().with_streams(width);
            let resumed = match AdocStreamGroup::resume_session(addr, resume_cfg, &info.ticket) {
                Ok((c2, i2, at)) => {
                    (conn, info) = (c2, i2);
                    Some(at).filter(|at| at.mid_message())
                }
                Err(resume_err) => {
                    // Session gone (completed, swept, or the server
                    // restarted): open a fresh one and re-send.
                    (conn, info) = AdocStreamGroup::connect_session(addr, cfg.clone(), secret)
                        .map_err(|e| format!("reconnect after \"{resume_err}\": {e}"))?;
                    None
                }
            };
            if let Some(at) = resumed {
                conn.write_resumed(&payload, at)
                    .map_err(|e| format!("write_resumed: {e}"))?;
                out.resumed += 1;
            } else {
                AdocStreamGroup::write(&mut conn, &payload)
                    .map_err(|e| format!("restart send: {e}"))?;
                out.restarted += 1;
            }
        } else {
            AdocStreamGroup::write(&mut conn, &payload).map_err(|e| format!("send: {e}"))?;
        }
        // The echo must be byte-exact no matter how the message got
        // there — one contiguous delivery stitched across connections.
        let mut back = vec![0u8; payload.len()];
        AdocStreamGroup::read_exact(&mut conn, &mut back).map_err(|e| format!("echo read: {e}"))?;
        if back != payload {
            return Err("echo was not byte-exact after a churn cycle".into());
        }
        out.messages += 1;
        out.raw_bytes += 2 * payload.len() as u64;
    }
    Ok(out)
}

/// Session-churn mode: `plan.clients` resumable sessions cutting and
/// resuming their connections against `addr` for `secs` seconds (see
/// the module docs). Returns their sum and the wall time.
fn run_churn(plan: &Plan, addr: &str, secs: u64) -> Result<(ChurnResult, f64), String> {
    let deadline = Instant::now() + Duration::from_secs(secs);
    let churner = |c| churn_client(addr, plan, deadline, c);
    let (results, wall) = each_client(plan, "churn client", churner);
    let mut total = ChurnResult::default();
    for r in results {
        let r = r?;
        total.resumed += r.resumed;
        total.restarted += r.restarted;
        total.messages += r.messages;
        total.raw_bytes += r.raw_bytes;
    }
    Ok((total, wall))
}

/// Prints a churn run's report line and the in-process server's
/// metrics, and writes the `adoc-loadgen-churn-v1` document to `json`.
fn report_churn(
    plan: &Plan,
    secs: u64,
    (total, wall): (ChurnResult, f64),
    server: Option<Arc<Server>>,
    json: Option<&str>,
) -> Result<(), String> {
    println!(
        "adoc-loadgen: churn: {} clients x {} B for {}s: {} messages verified byte-exact, {} resumed mid-message, {} restarted, {:.1} MiB moved in {:.3}s",
        plan.clients,
        plan.size,
        secs,
        total.messages,
        total.resumed,
        total.restarted,
        total.raw_bytes as f64 / (1024.0 * 1024.0),
        wall,
    );
    if let Some(s) = &server {
        println!("{}", s.metrics_json());
    }
    let Some(path) = json else { return Ok(()) };
    let doc = format!(
        "{{\n  \"schema\": \"adoc-loadgen-churn-v1\",\n  \"results\": [\n    {{ \"id\": \"loadgen/churn/clients={}\", \"resumed\": {}, \"restarted\": {}, \"messages\": {}, \"throughput_bytes\": {}, \"wall_s\": {:.3} }}\n  ]\n}}\n",
        plan.clients, total.resumed, total.restarted, total.messages, total.raw_bytes, wall,
    );
    std::fs::write(path, doc).map_err(|e| format!("cannot write {path}: {e}"))
}
