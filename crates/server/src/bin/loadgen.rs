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
//! `--idle-clients N` holds N extra connections open (each does one
//! tiny echo to register, then sits idle) while the busy clients
//! transfer — the skewed-load shape that separates a work-conserving
//! scheduler (busy clients run the whole `--budget-mbit`) from a fixed
//! fair-share one (pinned at `budget / (busy + idle)`). Idle traffic is
//! excluded from the reported aggregate.
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
use std::sync::Arc;
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
         (skewed load: a work-conserving budget still runs at full rate)\n\
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
}

#[derive(Debug)]
struct ClientResult {
    raw_bytes: u64,
    secs: f64,
    /// Round-trip latency histogram (mergeable across clients).
    latency: HistSnapshot,
}

/// One client's whole session: `messages` send+verify round trips.
fn run_client_on(
    conn: &mut dyn ClientConn,
    plan: &Plan,
    payload: &[u8],
) -> Result<ClientResult, String> {
    let start = Instant::now();
    let mut raw = 0u64;
    let interval = plan
        .rps
        .map(|r| std::time::Duration::from_secs_f64(1.0 / r));
    let latency = Histogram::new();
    for m in 0..plan.messages {
        if let Some(iv) = interval {
            // Pace against the schedule, not the previous completion,
            // so a slow round trip does not smear every later slot.
            let slot = start + iv.mul_f32(m as f32);
            let now = Instant::now();
            if slot > now {
                std::thread::sleep(slot - now);
            }
        }
        let req = Instant::now();
        conn.send(payload).map_err(|e| format!("send {m}: {e}"))?;
        match plan.mode {
            ServeMode::Echo => {
                let mut back = vec![0u8; payload.len()];
                conn.read_exact(&mut back)
                    .map_err(|e| format!("echo read {m}: {e}"))?;
                if back != payload {
                    return Err(format!("echo {m} was not byte-exact"));
                }
                raw += 2 * payload.len() as u64;
            }
            ServeMode::Sink => {
                let mut ack = [0u8; 16];
                conn.read_exact(&mut ack)
                    .map_err(|e| format!("ack read {m}: {e}"))?;
                if ack != sink_ack(payload.len() as u64, fnv1a64(payload)) {
                    return Err(format!("ack {m} mismatched (len or checksum)"));
                }
                raw += payload.len() as u64;
            }
        }
        latency.record_duration(req.elapsed());
    }
    Ok(ClientResult {
        raw_bytes: raw,
        secs: start.elapsed().as_secs_f64(),
        latency: latency.snapshot(),
    })
}

/// Moves a latency probe's connection onto `tier` on the spawned
/// daemon's scheduler: one small untimed warmup round trip gets the
/// connection sniffed, registered, and admitted, then the registry row
/// whose peer matches the probe's local socket address is re-tiered.
fn retier_probe(
    server: &Arc<Server>,
    conn: &mut dyn ClientConn,
    plan: &Plan,
    local_addr: &str,
    tier: Tier,
) -> Result<(), String> {
    let warmup = Plan {
        clients: 1,
        idle_clients: 0,
        messages: 1,
        size: 1024,
        rps: None,
        ..plan.clone()
    };
    let payload = generate(DataKind::Ascii, warmup.size, 0xBEEF);
    run_client_on(conn, &warmup, &payload).map_err(|e| format!("warmup: {e}"))?;
    let deadline = Instant::now() + std::time::Duration::from_secs(5);
    loop {
        let id = server
            .registry()
            .snapshot()
            .into_iter()
            .find(|s| s.peer == local_addr)
            .map(|s| s.id);
        if let Some(id) = id {
            if server.scheduler().set_tier(id, tier) {
                return Ok(());
            }
        }
        if Instant::now() >= deadline {
            return Err(format!(
                "could not re-tier: peer {local_addr} not admitted within 5s"
            ));
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
}

/// Object-safe client connection (plain socket or stream group).
trait ClientConn {
    fn send(&mut self, data: &[u8]) -> std::io::Result<()>;
    fn read_exact(&mut self, out: &mut [u8]) -> std::io::Result<()>;
}

impl<R: Read + Send, W: Write + Send> ClientConn for AdocStreamGroup<R, W> {
    fn send(&mut self, data: &[u8]) -> std::io::Result<()> {
        AdocStreamGroup::write(self, data).map(|_| ())
    }
    fn read_exact(&mut self, out: &mut [u8]) -> std::io::Result<()> {
        AdocStreamGroup::read_exact(self, out)
    }
}

fn client_cfg(plan: &Plan) -> AdocConfig {
    match plan.levels {
        Some((min, max)) => AdocConfig::default().with_levels(min, max),
        None => AdocConfig::default(),
    }
}

fn main() {
    let mut connect: Option<String> = None;
    let mut sim: Option<NetProfile> = None;
    let mut budget_mbit: Option<f64> = None;
    let mut json: Option<String> = None;
    let mut quick = false;
    let mut churn: Option<u64> = None;
    let mut secret: Option<String> = None;
    let mut plan = Plan {
        clients: 8,
        idle_clients: 0,
        messages: 4,
        size: 1 << 20,
        streams: vec![1],
        kinds: vec![DataKind::Ascii, DataKind::Binary, DataKind::Incompressible],
        levels: None,
        mode: ServeMode::Echo,
        default_tier: Tier::Bulk,
        tier: None,
        rps: None,
        bulk_clients: 0,
        bulk_size: 1 << 20,
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
            "--rps" => {
                let rps: f64 = parse(&mut args, "--rps");
                if !(rps > 0.0 && rps.is_finite()) {
                    eprintln!("--rps wants a positive finite rate, got {rps}");
                    usage();
                }
                plan.rps = Some(rps);
            }
            "--messages" => plan.messages = parse(&mut args, "--messages"),
            "--size" => plan.size = parse(&mut args, "--size"),
            "--streams" => {
                let csv: String = parse(&mut args, "--streams");
                plan.streams = csv
                    .split(',')
                    .map(|s| s.trim().parse().unwrap_or_else(|_| usage()))
                    .collect();
                if plan.streams.is_empty() {
                    usage();
                }
            }
            "--kind" => {
                plan.kinds = match parse::<String>(&mut args, "--kind").as_str() {
                    "ascii" => vec![DataKind::Ascii],
                    "binary" => vec![DataKind::Binary],
                    "incompressible" => vec![DataKind::Incompressible],
                    "mixed" => vec![DataKind::Ascii, DataKind::Binary, DataKind::Incompressible],
                    other => {
                        eprintln!("unknown kind {other:?}");
                        usage();
                    }
                }
            }
            "--levels" => {
                let csv: String = parse(&mut args, "--levels");
                let parts: Vec<&str> = csv.split(',').collect();
                if parts.len() != 2 {
                    usage();
                }
                plan.levels = Some((
                    parts[0].trim().parse().unwrap_or_else(|_| usage()),
                    parts[1].trim().parse().unwrap_or_else(|_| usage()),
                ));
            }
            "--mode" => {
                plan.mode = match parse::<String>(&mut args, "--mode").as_str() {
                    "echo" => ServeMode::Echo,
                    "sink" => ServeMode::Sink,
                    _ => usage(),
                }
            }
            "--budget-mbit" => {
                let mbit: f64 = parse(&mut args, "--budget-mbit");
                if !(mbit > 0.0 && mbit.is_finite()) {
                    eprintln!("--budget-mbit wants a positive finite Mbit/s, got {mbit}");
                    usage();
                }
                budget_mbit = Some(mbit);
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
            "--churn" => {
                let secs: u64 = parse(&mut args, "--churn");
                if secs == 0 {
                    eprintln!("--churn wants a positive duration in seconds");
                    usage();
                }
                churn = Some(secs);
            }
            "--secret" => secret = Some(parse(&mut args, "--secret")),
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
    if sim.is_some() && plan.streams.iter().any(|&s| s != 1) {
        eprintln!(
            "adoc-loadgen: --sim drives v1 (single-stream) connections only; \
             stream groups need the TCP path. Drop --streams or --sim."
        );
        std::process::exit(2);
    }
    if sim.is_some() && connect.is_some() {
        eprintln!("adoc-loadgen: --sim and --connect are mutually exclusive");
        std::process::exit(2);
    }
    if sim.is_some() && plan.idle_clients > 0 {
        eprintln!("adoc-loadgen: --idle-clients needs the TCP path; drop --sim");
        std::process::exit(2);
    }
    if sim.is_some() && plan.bulk_clients > 0 {
        eprintln!("adoc-loadgen: --bulk-clients needs the TCP path; drop --sim");
        std::process::exit(2);
    }
    if plan.tier.is_some() && connect.is_some() {
        eprintln!(
            "adoc-loadgen: --tier re-tiers connections on the spawned in-process \
             daemon's scheduler; an external server's tiers are set on adoc-serverd"
        );
        std::process::exit(2);
    }
    if plan.tier.is_some() && sim.is_some() {
        eprintln!("adoc-loadgen: --tier needs the spawned TCP path; drop --sim");
        std::process::exit(2);
    }
    if plan.tier.is_some() && plan.streams.iter().any(|&s| s != 1) {
        eprintln!("adoc-loadgen: --tier probes use single-stream connections; drop --streams");
        std::process::exit(2);
    }
    if connect.is_some() && budget_mbit.is_some() {
        eprintln!(
            "adoc-loadgen: --budget-mbit only configures a spawned in-process \
             daemon; an external server's budget is set on adoc-serverd"
        );
        std::process::exit(2);
    }
    if churn.is_some() {
        if sim.is_some() || plan.tier.is_some() || plan.rps.is_some() {
            eprintln!(
                "adoc-loadgen: --churn drives plain v4 sessions over TCP; drop --sim/--tier/--rps"
            );
            std::process::exit(2);
        }
        if plan.idle_clients > 0 || plan.bulk_clients > 0 {
            eprintln!("adoc-loadgen: --churn does not mix with --idle-clients/--bulk-clients");
            std::process::exit(2);
        }
        if plan.mode != ServeMode::Echo {
            eprintln!("adoc-loadgen: --churn verifies byte-exact echoes; drop --mode sink");
            std::process::exit(2);
        }
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
        if plan.streams.iter().all(|&s| s == 1) {
            plan.streams = vec![2, 3];
        }
    } else if secret.is_some() {
        eprintln!("adoc-loadgen: --secret keys session-mode clients; it needs --churn");
        std::process::exit(2);
    }

    if let Some(secs) = churn {
        let key = secret.as_ref().map(|s| s.as_bytes());
        match run_churn(&plan, connect, budget_mbit, secs, key, json.as_deref()) {
            Ok(()) => return,
            Err(e) => {
                eprintln!("adoc-loadgen: FAILED: {e}");
                std::process::exit(1);
            }
        }
    }

    let result = if let Some(profile) = sim {
        run_sim(&plan, profile, budget_mbit)
    } else {
        run_tcp(&plan, connect, budget_mbit)
    };

    match result {
        Ok(Outcome {
            total_raw,
            wall,
            client_secs,
            latency,
            bulk_raw,
            bulk_latency,
            server,
        }) => {
            let mib = total_raw as f64 / wall / (1024.0 * 1024.0);
            let lat = latency.summary();
            let fastest = client_secs.iter().cloned().fold(f64::INFINITY, f64::min);
            let slowest = client_secs.iter().cloned().fold(0.0, f64::max);
            println!(
                "adoc-loadgen: {} clients{} x {} messages x {} B: {:.1} MiB moved in {:.3}s = {:.2} MiB/s aggregate (client {:.3}s..{:.3}s)",
                plan.clients,
                if plan.idle_clients > 0 {
                    format!(" (+{} idle)", plan.idle_clients)
                } else {
                    String::new()
                },
                plan.messages,
                plan.size,
                total_raw as f64 / (1024.0 * 1024.0),
                wall,
                mib,
                fastest,
                slowest
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
                    bulk_raw as f64 / (1024.0 * 1024.0),
                    bulk_raw as f64 / wall / (1024.0 * 1024.0),
                    bulk_latency.summary().p50 as f64 / 1e3,
                );
            }
            if let Some(s) = &server {
                println!("{}", s.metrics_json());
            }
            if let Some(path) = json {
                let mut entries = vec![format!(
                    "    {{ \"id\": \"loadgen/{}/clients={}\", \"mean_ns\": {}, \"samples\": 1, \"throughput_bytes\": {}, \"mib_per_s\": {:.2},\n      \"latency\": {{ \"count\": {}, \"p50_us\": {}, \"p99_us\": {}, \"max_us\": {} }} }}",
                    match plan.mode {
                        ServeMode::Echo => "echo",
                        ServeMode::Sink => "sink",
                    },
                    plan.clients,
                    (wall * 1e9) as u128,
                    total_raw,
                    mib,
                    lat.count,
                    lat.p50,
                    lat.p99,
                    lat.max,
                )];
                if plan.bulk_clients > 0 {
                    let blat = bulk_latency.summary();
                    entries.push(format!(
                        "    {{ \"id\": \"loadgen/bulk/clients={}\", \"mean_ns\": {}, \"samples\": 1, \"throughput_bytes\": {}, \"mib_per_s\": {:.2},\n      \"latency\": {{ \"count\": {}, \"p50_us\": {}, \"p99_us\": {}, \"max_us\": {} }} }}",
                        plan.bulk_clients,
                        (wall * 1e9) as u128,
                        bulk_raw,
                        bulk_raw as f64 / wall / (1024.0 * 1024.0),
                        blat.count,
                        blat.p50,
                        blat.p99,
                        blat.max,
                    ));
                }
                let utilization = server.and_then(|s| s.scheduler().utilization());
                let doc = format!(
                    "{{\n  \"schema\": \"adoc-loadgen-v1\",\n  \"sched_utilization\": {},\n  \"results\": [\n{}\n  ]\n}}\n",
                    utilization.map_or("null".to_string(), |u| format!("{u:.4}")),
                    entries.join(",\n")
                );
                if let Err(e) = std::fs::write(&path, doc) {
                    eprintln!("adoc-loadgen: cannot write {path}: {e}");
                    std::process::exit(1);
                }
            }
        }
        Err(e) => {
            eprintln!("adoc-loadgen: FAILED: {e}");
            std::process::exit(1);
        }
    }
}

/// What a whole run produced.
struct Outcome {
    total_raw: u64,
    wall: f64,
    client_secs: Vec<f64>,
    /// Round-trip latency histogram merged across every busy client.
    latency: HistSnapshot,
    /// Raw bytes moved by the saturating background population.
    bulk_raw: u64,
    /// Per-message latency histogram of the background population.
    bulk_latency: HistSnapshot,
    /// The in-process daemon, drained, when the run spawned one.
    server: Option<Arc<Server>>,
}

impl Outcome {
    fn collect(
        results: Vec<Result<ClientResult, String>>,
        bulk: Vec<Result<ClientResult, String>>,
        wall: f64,
        server: Option<Arc<Server>>,
    ) -> Result<Outcome, String> {
        let mut total_raw = 0u64;
        let mut client_secs = Vec::with_capacity(results.len());
        let mut latency = HistSnapshot::default();
        for r in results {
            let r = r?;
            total_raw += r.raw_bytes;
            client_secs.push(r.secs);
            latency.merge(&r.latency);
        }
        let mut bulk_raw = 0u64;
        let mut bulk_latency = HistSnapshot::default();
        for r in bulk {
            let r = r?;
            bulk_raw += r.raw_bytes;
            bulk_latency.merge(&r.latency);
        }
        Ok(Outcome {
            total_raw,
            wall,
            client_secs,
            latency,
            bulk_raw,
            bulk_latency,
            server,
        })
    }
}

/// Runs the plan over TCP; spawns an in-process daemon unless `connect`
/// names an external server.
fn run_tcp(
    plan: &Plan,
    connect: Option<String>,
    budget_mbit: Option<f64>,
) -> Result<Outcome, String> {
    let (addr, handle) = match connect {
        Some(addr) => (addr, None),
        None => {
            let cfg = ServerConfig::builder()
                .mode(plan.mode)
                .budget(budget_mbit.map(|m| m * 1e6 / 8.0))
                .max_conns(((plan.clients + plan.idle_clients + plan.bulk_clients) * 2).max(64))
                .default_tier(plan.default_tier)
                .build()
                .map_err(|e| format!("server config: {e}"))?;
            let server = Server::new(cfg).map_err(|e| format!("server config: {e}"))?;
            let handle =
                daemon::spawn(server, "127.0.0.1:0").map_err(|e| format!("spawn daemon: {e}"))?;
            (handle.addr().to_string(), Some(handle))
        }
    };

    // Skewed load: the idle clients connect and do one tiny echo first
    // (so the daemon registers them with the scheduler), then hold
    // their connections open — but idle — for the whole busy phase. The
    // wall clock starts only once every idle connection is in place.
    // The release flag is set through a drop guard so a panicking busy
    // client cannot leave the idle spinners (and the whole process)
    // hanging.
    struct SetOnDrop<'a>(&'a std::sync::atomic::AtomicBool);
    impl Drop for SetOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(true, std::sync::atomic::Ordering::Relaxed);
        }
    }
    let idle_ready = std::sync::Barrier::new(plan.idle_clients + 1);
    let busy_done = std::sync::atomic::AtomicBool::new(false);
    // The saturating background population: connected and verified
    // before the wall clock starts, released only after every busy
    // client has finished (so the probes never see an unloaded server).
    let bulk_ready = std::sync::Barrier::new(plan.bulk_clients + 1);
    let bulk_stop = std::sync::atomic::AtomicBool::new(false);
    let mut wall = 0.0;
    type ClientResults = Vec<Result<ClientResult, String>>;
    let (results, bulk): (ClientResults, ClientResults) = std::thread::scope(|s| {
        let mut idle_handles = Vec::with_capacity(plan.idle_clients);
        for c in 0..plan.idle_clients {
            let addr = addr.clone();
            let (idle_ready, busy_done) = (&idle_ready, &busy_done);
            idle_handles.push(s.spawn(move || {
                let run = || -> Result<(), String> {
                    let tiny = Plan {
                        clients: 1,
                        idle_clients: 0,
                        messages: 1,
                        size: 1024,
                        ..plan.clone()
                    };
                    let payload = generate(DataKind::Ascii, tiny.size, c as u64 + 9001);
                    let sock = TcpStream::connect(&addr).map_err(|e| format!("connect: {e}"))?;
                    sock.set_nodelay(true).ok();
                    let r = sock.try_clone().map_err(|e| format!("clone: {e}"))?;
                    let mut conn = AdocSocket::with_config(r, sock, client_cfg(&tiny))
                        .map_err(|e| format!("cfg: {e}"))?;
                    run_client_on(&mut conn, &tiny, &payload)?;
                    idle_ready.wait();
                    while !busy_done.load(std::sync::atomic::Ordering::Relaxed) {
                        std::thread::sleep(std::time::Duration::from_millis(10));
                    }
                    Ok(())
                };
                let out = run();
                if out.is_err() {
                    // Do not leave the main thread stuck at the barrier.
                    idle_ready.wait();
                }
                out.map_err(|e| format!("idle client {c}: {e}"))
            }));
        }
        idle_ready.wait();
        let release_idles = SetOnDrop(&busy_done);

        let mut bulk_handles = Vec::with_capacity(plan.bulk_clients);
        for c in 0..plan.bulk_clients {
            let addr = addr.clone();
            let (bulk_ready, bulk_stop) = (&bulk_ready, &bulk_stop);
            bulk_handles.push(s.spawn(move || {
                let one = Plan {
                    clients: 1,
                    idle_clients: 0,
                    messages: 1,
                    size: plan.bulk_size,
                    tier: None,
                    rps: None,
                    ..plan.clone()
                };
                let payload = generate(plan.kinds[c % plan.kinds.len()], one.size, c as u64 + 5001);
                let started = Instant::now();
                let mut reached_barrier = false;
                let run = |reached: &mut bool| -> Result<ClientResult, String> {
                    let sock = TcpStream::connect(&addr).map_err(|e| format!("connect: {e}"))?;
                    sock.set_nodelay(true).ok();
                    let r = sock.try_clone().map_err(|e| format!("clone: {e}"))?;
                    let mut conn = AdocSocket::with_config(r, sock, client_cfg(&one))
                        .map_err(|e| format!("cfg: {e}"))?;
                    bulk_ready.wait();
                    *reached = true;
                    let mut raw = 0u64;
                    let mut latency = HistSnapshot::default();
                    while !bulk_stop.load(std::sync::atomic::Ordering::Relaxed) {
                        let round = run_client_on(&mut conn, &one, &payload)?;
                        raw += round.raw_bytes;
                        latency.merge(&round.latency);
                    }
                    Ok(ClientResult {
                        raw_bytes: raw,
                        secs: started.elapsed().as_secs_f64(),
                        latency,
                    })
                };
                let out = run(&mut reached_barrier);
                if !reached_barrier {
                    // Do not leave the main thread stuck at the barrier.
                    bulk_ready.wait();
                }
                out.map_err(|e| format!("bulk client {c}: {e}"))
            }));
        }
        bulk_ready.wait();
        let release_bulk = SetOnDrop(&bulk_stop);

        let tier_server: Option<&Arc<Server>> = handle.as_ref().map(|h| h.server());
        let wall_start = Instant::now();
        let mut handles = Vec::with_capacity(plan.clients);
        for c in 0..plan.clients {
            let addr = addr.clone();
            handles.push(s.spawn(move || {
                let payload = generate(
                    plan.kinds[c % plan.kinds.len()],
                    plan.size,
                    (c as u64 + 1) * 7,
                );
                let streams = plan.streams[c % plan.streams.len()];
                let cfg = client_cfg(plan);
                if streams == 1 {
                    let sock = TcpStream::connect(&addr)
                        .map_err(|e| format!("client {c} connect: {e}"))?;
                    sock.set_nodelay(true).ok();
                    let local = sock
                        .local_addr()
                        .map_err(|e| format!("client {c} local addr: {e}"))?
                        .to_string();
                    let r = sock
                        .try_clone()
                        .map_err(|e| format!("client {c} clone: {e}"))?;
                    let mut conn = AdocSocket::with_config(r, sock, cfg)
                        .map_err(|e| format!("client {c} cfg: {e}"))?;
                    if let Some(tier) = plan.tier {
                        let server =
                            tier_server.expect("--tier is rejected without a spawned daemon");
                        retier_probe(server, &mut conn, plan, &local, tier)
                            .map_err(|e| format!("client {c}: {e}"))?;
                    }
                    run_client_on(&mut conn, plan, &payload)
                } else {
                    let mut conn = AdocStreamGroup::connect(&addr, cfg.with_streams(streams))
                        .map_err(|e| format!("client {c} group connect: {e}"))?;
                    run_client_on(&mut conn, plan, &payload)
                }
                .map_err(|e| format!("client {c}: {e}"))
            }));
        }
        let mut results: Vec<Result<ClientResult, String>> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        wall = wall_start.elapsed().as_secs_f64();
        drop(release_bulk); // busy phase over: stop the saturators…
        drop(release_idles); // …and release the idle holders.
                             // Idle sessions must end cleanly too, but contribute no bytes
                             // or client timings to the aggregate.
        let bulk: Vec<Result<ClientResult, String>> = bulk_handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect();
        for h in idle_handles {
            if let Err(e) = h.join().unwrap() {
                results.push(Err(e));
            }
        }
        (results, bulk)
    });

    let metrics = match handle {
        Some(h) => {
            let server = Arc::clone(h.server());
            h.shutdown().map_err(|e| format!("drain: {e}"))?;
            let pool = server.pool().stats();
            if pool.outstanding != 0 {
                return Err(format!(
                    "pool leak after drain: {} buffers outstanding",
                    pool.outstanding
                ));
            }
            Some(server)
        }
        None => None,
    };
    Outcome::collect(results, bulk, wall, metrics)
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
    secret: Option<&[u8]>,
    deadline: Instant,
    seed: u64,
) -> Result<ChurnResult, String> {
    let payload = generate(
        plan.kinds[seed as usize % plan.kinds.len()],
        plan.size,
        seed * 7 + 1,
    );
    let base_streams = plan.streams[seed as usize % plan.streams.len()];
    // Resumes alternate onto a different width so re-striping the
    // remainder of a message across a new stream count gets exercised.
    let alt_streams = if base_streams >= 2 {
        base_streams - 1
    } else {
        2
    };
    let cfg = client_cfg(plan).with_streams(base_streams);
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
            let width = if attempt % 4 == 1 {
                alt_streams
            } else {
                base_streams
            };
            let resume_cfg = client_cfg(plan).with_streams(width);
            match AdocStreamGroup::resume_session(addr, resume_cfg, &info.ticket) {
                Ok((c2, i2, at)) => {
                    conn = c2;
                    info = i2;
                    if at.mid_message() {
                        conn.write_resumed(&payload, at)
                            .map_err(|e| format!("write_resumed: {e}"))?;
                        out.resumed += 1;
                    } else {
                        AdocStreamGroup::write(&mut conn, &payload)
                            .map_err(|e| format!("restart send: {e}"))?;
                        out.restarted += 1;
                    }
                }
                Err(resume_err) => {
                    // Session gone (completed, swept, or the server
                    // restarted): open a fresh one and re-send.
                    let (c2, i2) = AdocStreamGroup::connect_session(addr, cfg.clone(), secret)
                        .map_err(|e| format!("reconnect after \"{resume_err}\": {e}"))?;
                    conn = c2;
                    info = i2;
                    AdocStreamGroup::write(&mut conn, &payload)
                        .map_err(|e| format!("restart send: {e}"))?;
                    out.restarted += 1;
                }
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
/// resuming their connections for `secs` seconds (see the module docs).
fn run_churn(
    plan: &Plan,
    connect: Option<String>,
    budget_mbit: Option<f64>,
    secs: u64,
    secret: Option<&[u8]>,
    json: Option<&str>,
) -> Result<(), String> {
    let (addr, handle) = match connect {
        Some(addr) => (addr, None),
        None => {
            let mut builder = ServerConfig::builder()
                .mode(ServeMode::Echo)
                .budget(budget_mbit.map(|m| m * 1e6 / 8.0))
                .max_conns((plan.clients * 8).max(64))
                .default_tier(plan.default_tier);
            if let Some(s) = secret {
                // A keyed run exercises the full path: MAC'd hellos are
                // demanded, plaintext clients are refused.
                builder = builder.auth_secret(s.to_vec()).require_auth(true);
            }
            let cfg = builder.build().map_err(|e| format!("server config: {e}"))?;
            let server = Server::new(cfg).map_err(|e| format!("server config: {e}"))?;
            let handle =
                daemon::spawn(server, "127.0.0.1:0").map_err(|e| format!("spawn daemon: {e}"))?;
            (handle.addr().to_string(), Some(handle))
        }
    };

    let deadline = Instant::now() + Duration::from_secs(secs);
    let wall_start = Instant::now();
    let results: Vec<Result<ChurnResult, String>> = std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(plan.clients);
        for c in 0..plan.clients {
            let addr = addr.clone();
            handles.push(s.spawn(move || {
                churn_client(&addr, plan, secret, deadline, c as u64)
                    .map_err(|e| format!("churn client {c}: {e}"))
            }));
        }
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall = wall_start.elapsed().as_secs_f64();

    let mut total = ChurnResult::default();
    for r in results {
        let r = r?;
        total.resumed += r.resumed;
        total.restarted += r.restarted;
        total.messages += r.messages;
        total.raw_bytes += r.raw_bytes;
    }

    let server_metrics = match handle {
        Some(h) => {
            let server = Arc::clone(h.server());
            h.shutdown().map_err(|e| format!("drain: {e}"))?;
            let pool = server.pool().stats();
            if pool.outstanding != 0 {
                return Err(format!(
                    "pool leak after drain: {} buffers outstanding",
                    pool.outstanding
                ));
            }
            Some(server.metrics_json())
        }
        None => None,
    };

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
    if let Some(m) = &server_metrics {
        println!("{m}");
    }
    if let Some(path) = json {
        let doc = format!(
            "{{\n  \"schema\": \"adoc-loadgen-churn-v1\",\n  \"results\": [\n    {{ \"id\": \"loadgen/churn/clients={}\", \"resumed\": {}, \"restarted\": {}, \"messages\": {}, \"throughput_bytes\": {}, \"wall_s\": {:.3} }}\n  ]\n}}\n",
            plan.clients, total.resumed, total.restarted, total.messages, total.raw_bytes, wall,
        );
        if let Err(e) = std::fs::write(path, doc) {
            return Err(format!("cannot write {path}: {e}"));
        }
    }
    Ok(())
}

/// Runs the plan over per-client `adoc-sim` shaped links straight into
/// the server core (v1 connections; stream groups need the TCP path).
fn run_sim(plan: &Plan, profile: NetProfile, budget_mbit: Option<f64>) -> Result<Outcome, String> {
    let cfg = ServerConfig::builder()
        .mode(plan.mode)
        .budget(budget_mbit.map(|m| m * 1e6 / 8.0))
        .max_conns((plan.clients * 2).max(64))
        .default_tier(plan.default_tier)
        .build()
        .map_err(|e| format!("server config: {e}"))?;
    let server = Server::new(cfg).map_err(|e| format!("server config: {e}"))?;

    let wall_start = Instant::now();
    let results: Vec<Result<ClientResult, String>> = std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(plan.clients);
        for c in 0..plan.clients {
            let server = Arc::clone(&server);
            handles.push(s.spawn(move || {
                let payload = generate(
                    plan.kinds[c % plan.kinds.len()],
                    plan.size,
                    (c as u64 + 1) * 7,
                );
                let (client_end, server_end) = duplex(profile.link_cfg());
                let (sr, sw) = server_end.split();
                let serving = std::thread::spawn(move || {
                    let _ = server.serve_stream(sr, sw, &format!("sim-client-{c}"));
                });
                let (cr, cw) = client_end.split();
                let mut conn = AdocSocket::with_config(cr, cw, client_cfg(plan))
                    .map_err(|e| format!("client {c} cfg: {e}"))?;
                let out = run_client_on(&mut conn, plan, &payload)
                    .map_err(|e| format!("client {c}: {e}"))?;
                drop(conn); // EOF to the server side
                serving.join().map_err(|_| "server thread panicked")?;
                Ok(out)
            }));
        }
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall = wall_start.elapsed().as_secs_f64();

    let pool = server.pool().stats();
    if pool.outstanding != 0 {
        return Err(format!(
            "pool leak: {} buffers outstanding",
            pool.outstanding
        ));
    }
    Outcome::collect(results, Vec::new(), wall, Some(server))
}
