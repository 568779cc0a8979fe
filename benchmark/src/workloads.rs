//! Setting a workload up, driving its lanes through the window, tearing
//! it down, and checking that it came down clean. What comes out is the
//! raw material (`Raw`); `summary` turns it into named metrics.
//!
//! Only the facade the engine refactor keeps is called here:
//! `AdocSocket::{with_config, write, read_exact, stats}`, `AdocConfig`,
//! `adoc_sim::{link, pipe}`, `adoc_data::generate`,
//! `ServerConfig::builder`, `Server`, `daemon::spawn` and
//! `Server::{metrics_doc, tracer, worker_stats, pool, scheduler}`.

use crate::procfs::{self, ProcSnap};
use crate::run::{
    adoc_echo, adoc_echo_server, posix_echo_server, run_lane, schedule, Control, EchoOut, Lane,
    LaneOut, Shared, Slice, SliceKind,
};
use crate::spec::{Transport, Workload};
use crate::stats::{due_time, open_loop, Sample};
use crate::trace::Recorder;
use adoc::{AdocConfig, AdocSocket, PoolStats, TransferStats};
use adoc_server::{daemon, DaemonHandle, RegistryTotals, Server, ServerConfig, Tier};
use adoc_server::{StageSummaries, WorkerStats};
use adoc_sim::netprofiles::NetProfile;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// How long and how often: everything `--seconds`, `--trace` and
/// `--quick` decide.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// AdOC echoes before the window whose timings are discarded.
    pub warmup_s: f64,
    /// Fewest set-ups per run; `setup_s` is the median of all of them.
    pub setup_min_reps: usize,
    /// A set-up that takes milliseconds is repeated until this many
    /// seconds have gone into set-ups (or [`SETUP_MAX_REPS`]), so its
    /// median is as steady as a slow one's.
    pub setup_budget_s: f64,
    pub trace: bool,
    pub quick: bool,
    /// Time per micro-timing in the traced run.
    pub micro_budget_s: f64,
    /// Fresh connections timed for `daemon.connect_p50_us`.
    pub connect_probes: usize,
    /// No message completing for this long is a hang.
    pub stall_s: f64,
}

impl Plan {
    pub fn new(seed: u64, seconds: f64, trace: bool, quick: bool) -> Plan {
        Plan {
            seed,
            seconds,
            warmup_s: if quick { 0.2 } else { 1.0 },
            setup_min_reps: if quick { 1 } else { 3 },
            setup_budget_s: if quick { 0.0 } else { 0.6 },
            trace,
            quick,
            micro_budget_s: if quick { 0.01 } else { 0.12 },
            connect_probes: if quick { 3 } else { 20 },
            stall_s: 60.0,
        }
    }
}

const SETUP_MAX_REPS: usize = 15;

/// Sets the workload up repeatedly, tearing each set-up down before the
/// next (outside the timing), and keeps the last one for the window.
fn repeat_setup<E>(
    plan: &Plan,
    mut setup: impl FnMut() -> Result<E, String>,
    mut teardown: impl FnMut(E) -> Result<(), String>,
) -> Result<(E, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut env = None;
    while times.len() < plan.setup_min_reps
        || (times.iter().sum::<f64>() < plan.setup_budget_s && times.len() < SETUP_MAX_REPS)
    {
        if let Some(old) = env.take() {
            teardown(old)?;
        }
        let t = Instant::now();
        env = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((env.expect("at least one set-up ran"), times))
}

/// A named pass/fail the run must satisfy besides echoing correctly.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

fn check(name: &'static str, ok: bool, detail: impl Into<String>) -> Check {
    Check {
        name,
        ok,
        detail: detail.into(),
    }
}

/// Sums of the daemon's per-stage histograms (µs): two of them bracket
/// the window, and the difference gives each stage's share.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageSums {
    pub read: u64,
    pub sched: u64,
    pub queue: u64,
    pub codec: u64,
    pub write: u64,
    pub total: u64,
}

impl StageSums {
    fn of(server: &Server) -> StageSums {
        let g = server.tracer().global();
        StageSums {
            read: g.read.snapshot().sum(),
            sched: g.sched_wait.snapshot().sum(),
            queue: g.queue_wait.snapshot().sum(),
            codec: g.codec.snapshot().sum(),
            write: g.write.snapshot().sum(),
            total: g.total.snapshot().sum(),
        }
    }
}

/// What the daemon's own surfaces said, read after the window.
#[derive(Debug, Clone)]
pub struct ServerView {
    pub sums_start: StageSums,
    pub sums_end: StageSums,
    pub stages: StageSummaries,
    pub workers: WorkerStats,
    pub utilization: Option<f64>,
    pub total_admitted: u64,
    pub drain_admitted: u64,
    pub totals: RegistryTotals,
    /// Connect + first 1 KiB echo on fresh connections, µs.
    pub connect_us: Vec<f64>,
    /// How long `DaemonHandle::shutdown` took.
    pub drain_s: f64,
}

/// The open-loop control-tier connection of `daemon_capped_tiers`.
pub struct ControlOut {
    /// Per schedule slice, the round trips due inside it, timed from the
    /// due time (empty for slices that are not measured).
    pub slices: Vec<Vec<Sample>>,
    /// How late the generator sent each measured request, seconds.
    pub lags: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub recorder: Recorder,
}

/// Everything one run measured, before any arithmetic.
pub struct Raw {
    pub workload: &'static Workload,
    /// Seconds each set-up took.
    pub setups: Vec<f64>,
    pub lanes: Vec<LaneOut>,
    pub control: Option<ControlOut>,
    /// The harness-owned far end of a library workload.
    pub echo: Option<EchoOut>,
    pub pool: PoolStats,
    pub pool_idle_bytes: usize,
    pub server: Option<ServerView>,
    pub proc_start: ProcSnap,
    pub proc_end: ProcSnap,
    pub threads_peak: u64,
    pub payload: Arc<Vec<u8>>,
    pub checks: Vec<Check>,
    /// Verified echoes outside the lanes (set-up, connect probes); one
    /// that fails ends the run before there is anything to summarise.
    pub extra_attempted: u64,
}

/// Runs `w` once.
pub fn execute(w: &'static Workload, plan: &Plan) -> Result<Raw, String> {
    match w.transport {
        Transport::Lan100 => library(w, plan, || {
            let (a, b) = adoc_sim::link::duplex(NetProfile::Lan100.link_cfg());
            (a.split(), b.split())
        }),
        Transport::Pipe(capacity) => library(w, plan, move || {
            let (a, b) = adoc_sim::pipe::duplex_pipe(capacity);
            (a.split(), b.split())
        }),
        Transport::Daemon {
            levels,
            budget,
            control_rps,
        } => daemon_workload(w, plan, levels, budget, control_rps),
    }
}

fn slices(w: &Workload, plan: &Plan) -> Vec<Slice> {
    // The POSIX control and the bare daemon explain numbers; they gate
    // none, so only the traced run spends window on them.
    let control = plan.trace.then_some(Control {
        secs: w.posix_share * plan.seconds,
        one: w.posix_one,
        first: w.posix_first,
    });
    schedule(
        plan.warmup_s,
        plan.seconds,
        w.slices,
        control,
        plan.trace && w.bare_compare,
    )
}

/// Watches the run from the side: the peak thread count, and the
/// per-message watchdog. Lanes block inside `write`/`read_exact` and
/// cannot be interrupted from outside, so a hang is reported and the
/// process exits non-zero — a counted failure, not a stalled run.
fn monitor(sh: Arc<Shared>, stop: Arc<AtomicBool>, stall_s: f64) -> JoinHandle<u64> {
    thread::spawn(move || {
        let mut peak = 0;
        let mut last = (sh.progress.load(Ordering::Relaxed), Instant::now());
        while !stop.load(Ordering::Relaxed) {
            thread::sleep(Duration::from_millis(50));
            peak = peak.max(procfs::threads_now());
            let now = sh.progress.load(Ordering::Relaxed);
            if now != last.0 {
                last = (now, Instant::now());
            } else if last.1.elapsed().as_secs_f64() > stall_s {
                eprintln!(
                    "watchdog: no message completed in {stall_s} s after {now} messages; \
                     the message in flight counts as failed"
                );
                println!(
                    "{{\"correct\": false, \"attempted\": {}, \"failed\": 1, \"metrics\": {{}}}}",
                    now + 1
                );
                std::process::exit(3);
            }
        }
        peak
    })
}

fn join<T>(h: JoinHandle<T>, what: &str) -> Result<T, String> {
    h.join().map_err(|_| format!("{what} thread panicked"))
}

/// Runs the lanes (and the control connection, if any) to the end of the
/// schedule under the monitor.
fn drive<R, W>(
    lanes: Vec<Lane<R, W>>,
    control: Option<(TcpSock, Arc<Vec<u8>>, f64)>,
    schedule: Vec<Slice>,
    sh: &Arc<Shared>,
    stall_s: f64,
) -> Result<(Vec<LaneOut>, Option<ControlOut>, u64), String>
where
    R: Read + Send + 'static,
    W: Write + Send + 'static,
{
    let stop = Arc::new(AtomicBool::new(false));
    let watcher = monitor(Arc::clone(sh), Arc::clone(&stop), stall_s);
    let schedule = Arc::new(schedule);
    let handles: Vec<_> = lanes
        .into_iter()
        .enumerate()
        .map(|(i, lane)| {
            let (sh, schedule) = (Arc::clone(sh), Arc::clone(&schedule));
            thread::spawn(move || run_lane(lane, i as u64, &schedule, &sh))
        })
        .collect();
    let control = control.map(|(sock, payload, rate)| {
        let (sh, schedule) = (Arc::clone(sh), Arc::clone(&schedule));
        thread::spawn(move || run_control(sock, &payload, rate, &schedule, &sh))
    });
    let mut outs = Vec::new();
    for h in handles {
        outs.push(join(h, "lane")?);
    }
    let control = control.map(|h| join(h, "control")).transpose()?;
    stop.store(true, Ordering::Relaxed);
    let peak = join(watcher, "monitor")?;
    Ok((outs, control, peak))
}

// ------------------------------------------------------------------
// Library workloads: one AdocSocket pair across an in-process transport.

struct LibEnv<R: Read + Send, W: Write + Send> {
    lane: Lane<R, W>,
    echo: JoinHandle<EchoOut>,
    posix_echo: JoinHandle<io::Result<()>>,
    pool: adoc::BufferPool,
}

fn lib_setup<R, W>(
    w: &Workload,
    seed: u64,
    make: &impl Fn() -> ((R, W), (R, W)),
    sh: &Arc<Shared>,
) -> Result<LibEnv<R, W>, String>
where
    R: Read + Send + 'static,
    W: Write + Send + 'static,
{
    let payload = Arc::new(adoc_data::generate(w.kind, w.size, seed));
    // Clones of one config share its buffer pool, as the two directions
    // of one process's connections do.
    let cfg = AdocConfig::default();
    let pool = cfg.pool.clone();
    let ((ar, aw), (br, bw)) = make();
    let near = AdocSocket::with_config(ar, aw, cfg.clone()).map_err(|e| e.to_string())?;
    let far = AdocSocket::with_config(br, bw, cfg).map_err(|e| e.to_string())?;
    let size = w.size;
    let echo = {
        let sh = Arc::clone(sh);
        thread::spawn(move || adoc_echo_server(far, size, &sh))
    };
    let (p_near, (qr, qw)) = make();
    let posix_size = w.posix_size;
    let posix_echo = thread::spawn(move || posix_echo_server(qr, qw, posix_size));
    let mut lane = Lane {
        adoc: near,
        posix: Some(p_near),
        bare: None,
        payload,
        posix_len: w.posix_size,
    };
    let mut back = vec![0u8; w.size];
    let mut off = Recorder::new(sh.epoch, false);
    let payload = Arc::clone(&lane.payload);
    for _ in 0..=w.setup_echoes {
        adoc_echo(&mut lane.adoc, &payload, &mut back, &mut off, sh.epoch, 0)?;
    }
    Ok(LibEnv {
        lane,
        echo,
        posix_echo,
        pool,
    })
}

fn lib_teardown(
    echo: JoinHandle<EchoOut>,
    posix_echo: JoinHandle<io::Result<()>>,
) -> Result<(EchoOut, Check), String> {
    let echo = join(echo, "echo")?;
    let posix = join(posix_echo, "posix echo")?;
    let c = check(
        "far_end_clean",
        echo.error.is_none() && posix.is_ok(),
        format!("adoc echo: {:?}, posix echo: {:?}", echo.error, posix.err()),
    );
    Ok((echo, c))
}

fn library<R, W>(
    w: &'static Workload,
    plan: &Plan,
    make: impl Fn() -> ((R, W), (R, W)),
) -> Result<Raw, String>
where
    R: Read + Send + 'static,
    W: Write + Send + 'static,
{
    let sh = Shared::new(1, plan.trace, w.trace_block);
    let (env, setups) = repeat_setup(
        plan,
        || lib_setup(w, plan.seed, &make, &sh),
        |old: LibEnv<R, W>| {
            drop(old.lane);
            lib_teardown(old.echo, old.posix_echo).map(|_| ())
        },
    )?;
    let payload = Arc::clone(&env.lane.payload);

    let start = Arc::new(Mutex::new(ProcSnap::default()));
    {
        let (start, sh2) = (Arc::clone(&start), Arc::clone(&sh));
        *sh.on_window_open.lock().expect("hook mutex") = Some(Box::new(move || {
            *start.lock().expect("snapshot mutex") = ProcSnap::take(sh2.now());
        }));
    }
    let (lanes, _, threads_peak) = drive(vec![env.lane], None, slices(w, plan), &sh, plan.stall_s)?;
    let proc_end = ProcSnap::take(sh.now());
    // The lane dropped its sockets when it finished; the far ends see
    // the close and return.
    let (echo, far_check) = lib_teardown(env.echo, env.posix_echo)?;
    let pool = env.pool.stats();
    let checks = vec![
        far_check,
        check(
            "pool_outstanding_zero",
            pool.outstanding == 0,
            format!("{} buffers still checked out", pool.outstanding),
        ),
    ];
    let proc_start = *start.lock().expect("snapshot mutex");
    Ok(Raw {
        workload: w,
        lanes,
        control: None,
        echo: Some(echo),
        pool,
        pool_idle_bytes: env.pool.idle_bytes(),
        server: None,
        proc_start,
        proc_end,
        threads_peak,
        payload,
        checks,
        extra_attempted: (setups.len() * (1 + w.setup_echoes)) as u64,
        setups,
    })
}

// ------------------------------------------------------------------
// Daemon workloads: the real daemon over loopback TCP.

type TcpSock = AdocSocket<TcpStream, TcpStream>;

/// A per-call socket timeout: a peer that stops answering turns into an
/// I/O error on that message rather than a thread parked forever.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(30);

fn daemon_up(
    levels: Option<(u8, u8)>,
    budget: Option<f64>,
    instrument: bool,
) -> io::Result<DaemonHandle> {
    let mut adoc = AdocConfig::default();
    if let Some((min, max)) = levels {
        adoc = adoc.with_levels(min, max);
    }
    let cfg = ServerConfig::builder()
        .adoc(adoc)
        .budget(budget)
        .instrument(instrument)
        .build()?;
    daemon::spawn(Server::new(cfg)?, "127.0.0.1:0")
}

fn tcp_pair(addr: SocketAddr) -> io::Result<(TcpStream, TcpStream)> {
    let s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    s.set_read_timeout(Some(SOCKET_TIMEOUT))?;
    s.set_write_timeout(Some(SOCKET_TIMEOUT))?;
    Ok((s.try_clone()?, s))
}

fn adoc_connect(addr: SocketAddr, levels: Option<(u8, u8)>) -> io::Result<TcpSock> {
    let (r, w) = tcp_pair(addr)?;
    let mut cfg = AdocConfig::default();
    if let Some((min, max)) = levels {
        cfg = cfg.with_levels(min, max);
    }
    AdocSocket::with_config(r, w, cfg)
}

/// The POSIX control's far end on loopback: accepts `conns` connections
/// and echoes `size`-byte messages on each until the client closes.
fn posix_tcp_server(
    conns: usize,
    size: usize,
) -> io::Result<(SocketAddr, JoinHandle<io::Result<()>>)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let acceptor = thread::spawn(move || {
        let mut echoes = Vec::new();
        for _ in 0..conns {
            let (s, _) = listener.accept()?;
            s.set_nodelay(true)?;
            let r = s.try_clone()?;
            echoes.push(thread::spawn(move || posix_echo_server(r, s, size)));
        }
        for e in echoes {
            e.join()
                .map_err(|_| io::Error::other("posix echo thread panicked"))??;
        }
        Ok(())
    });
    Ok((addr, acceptor))
}

struct DaemonEnv {
    handle: DaemonHandle,
    lanes: Vec<Lane<TcpStream, TcpStream>>,
    control: Option<TcpSock>,
    posix: JoinHandle<io::Result<()>>,
    payload: Arc<Vec<u8>>,
    control_payload: Arc<Vec<u8>>,
}

/// `count` verified echoes outside the window.
fn echoes(sock: &mut TcpSock, payload: &[u8], count: usize, sh: &Shared) -> Result<(), String> {
    let mut back = vec![0u8; payload.len()];
    let mut off = Recorder::new(sh.epoch, false);
    for _ in 0..count {
        adoc_echo(sock, payload, &mut back, &mut off, sh.epoch, 0)?;
    }
    Ok(())
}

/// Moves the connection whose client-side address is `local` to the
/// control tier. The daemon knows connections by peer address, and the
/// metrics document lists them with their registry ids.
fn retier_control(server: &Server, local: SocketAddr) -> Result<(), String> {
    let peer = local.to_string();
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let id = server
            .metrics_doc()
            .connections
            .iter()
            .find(|c| c.peer == peer)
            .map(|c| c.id);
        if id.is_some_and(|id| server.scheduler().set_tier(id, Tier::Control)) {
            return Ok(());
        }
        if Instant::now() >= deadline {
            return Err(format!(
                "control connection {peer} never appeared in the registry"
            ));
        }
        thread::sleep(Duration::from_millis(2));
    }
}

fn daemon_setup(
    w: &Workload,
    seed: u64,
    levels: Option<(u8, u8)>,
    budget: Option<f64>,
    control: bool,
    sh: &Shared,
) -> Result<DaemonEnv, String> {
    let io = |e: io::Error| e.to_string();
    let payload = Arc::new(adoc_data::generate(w.kind, w.size, seed));
    let control_payload = Arc::new(adoc_data::generate(
        adoc_data::DataKind::Ascii,
        1024,
        seed ^ 0xC0,
    ));
    let handle = daemon_up(levels, budget, true).map_err(io)?;
    let (posix_addr, posix) = posix_tcp_server(w.lanes, w.posix_size).map_err(io)?;
    let mut lanes = Vec::new();
    for _ in 0..w.lanes {
        let mut adoc = adoc_connect(handle.addr(), levels).map_err(io)?;
        echoes(&mut adoc, &payload, 1 + w.setup_echoes, sh)?;
        lanes.push(Lane {
            adoc,
            posix: Some(tcp_pair(posix_addr).map_err(io)?),
            bare: None,
            payload: Arc::clone(&payload),
            posix_len: w.posix_size,
        });
    }
    let control = if control {
        let (r, wr) = tcp_pair(handle.addr()).map_err(io)?;
        let local = wr.local_addr().map_err(io)?;
        let mut sock =
            AdocSocket::with_config(r, wr, AdocConfig::default()).map_err(|e| e.to_string())?;
        // The first echo gets the connection sniffed and registered.
        echoes(&mut sock, &control_payload, 1, sh)?;
        retier_control(handle.server(), local)?;
        Some(sock)
    } else {
        None
    };
    Ok(DaemonEnv {
        handle,
        lanes,
        control,
        posix,
        payload,
        control_payload,
    })
}

/// Closes the clients and drains the daemon; returns how long the drain
/// took and what it left behind.
fn daemon_down(
    handle: DaemonHandle,
    posix: JoinHandle<io::Result<()>>,
) -> Result<(f64, Vec<Check>), String> {
    let server = Arc::clone(handle.server());
    let posix = join(posix, "posix acceptor")?;
    let t = Instant::now();
    let shutdown = handle.shutdown();
    let drain_s = t.elapsed().as_secs_f64();
    let pool = server.pool().stats();
    let totals = server.metrics_doc().totals;
    Ok((
        drain_s,
        vec![
            check(
                "shutdown_clean",
                shutdown.is_ok(),
                format!("{:?}", shutdown.err()),
            ),
            check(
                "posix_far_end_clean",
                posix.is_ok(),
                format!("{:?}", posix.err()),
            ),
            check(
                "pool_outstanding_zero",
                pool.outstanding == 0,
                format!("{} buffers still checked out", pool.outstanding),
            ),
            check(
                "no_failed_connections",
                totals.failed == 0 && totals.handshake_failures == 0,
                format!(
                    "{} failed, {} handshake failures",
                    totals.failed, totals.handshake_failures
                ),
            ),
        ],
    ))
}

/// Connect + first 1 KiB echo on `n` fresh connections, µs each.
fn connect_probes(
    addr: SocketAddr,
    payload: &[u8],
    n: usize,
    sh: &Shared,
) -> Result<Vec<f64>, String> {
    (0..n)
        .map(|_| {
            let t = Instant::now();
            let mut sock = adoc_connect(addr, None).map_err(|e| format!("connect probe: {e}"))?;
            echoes(&mut sock, payload, 1, sh)?;
            Ok(t.elapsed().as_secs_f64() * 1e6)
        })
        .collect()
}

fn daemon_workload(
    w: &'static Workload,
    plan: &Plan,
    levels: Option<(u8, u8)>,
    budget: Option<f64>,
    control_rps: Option<f64>,
) -> Result<Raw, String> {
    let threads = w.lanes + usize::from(control_rps.is_some());
    let sh = Shared::new(threads, plan.trace, w.trace_block);
    let mut checks = Vec::new();
    let (mut env, setups) = repeat_setup(
        plan,
        || daemon_setup(w, plan.seed, levels, budget, control_rps.is_some(), &sh),
        |old: DaemonEnv| {
            drop((old.lanes, old.control));
            // A set-up that does not come down clean fails the run too.
            checks.extend(
                daemon_down(old.handle, old.posix)?
                    .1
                    .into_iter()
                    .filter(|c| !c.ok),
            );
            Ok(())
        },
    )?;
    let per_setup = w.lanes * (1 + w.setup_echoes) + usize::from(control_rps.is_some());
    let mut extra_attempted = (setups.len() * per_setup) as u64;
    let server = Arc::clone(env.handle.server());

    let mut connect_us = Vec::new();
    let mut bare = None;
    if plan.trace {
        connect_us = connect_probes(
            env.handle.addr(),
            &env.control_payload,
            plan.connect_probes,
            &sh,
        )?;
        extra_attempted += connect_us.len() as u64;
        if w.bare_compare {
            let handle = daemon_up(levels, budget, false).map_err(|e| e.to_string())?;
            for lane in &mut env.lanes {
                let mut sock = adoc_connect(handle.addr(), levels).map_err(|e| e.to_string())?;
                echoes(&mut sock, &env.payload, 1, &sh)?;
                extra_attempted += 1;
                lane.bare = Some(sock);
            }
            bare = Some(handle);
        }
    }

    let start = Arc::new(Mutex::new((ProcSnap::default(), StageSums::default())));
    {
        let (start, sh2, server) = (Arc::clone(&start), Arc::clone(&sh), Arc::clone(&server));
        *sh.on_window_open.lock().expect("hook mutex") = Some(Box::new(move || {
            *start.lock().expect("snapshot mutex") =
                (ProcSnap::take(sh2.now()), StageSums::of(&server));
        }));
    }
    let control = env
        .control
        .take()
        .zip(control_rps)
        .map(|(sock, rate)| (sock, Arc::clone(&env.control_payload), rate));
    let (lanes, control, threads_peak) =
        drive(env.lanes, control, slices(w, plan), &sh, plan.stall_s)?;
    let proc_end = ProcSnap::take(sh.now());
    let sums_end = StageSums::of(&server);
    let doc = server.metrics_doc();

    let (drain_s, down) = daemon_down(env.handle, env.posix)?;
    checks.extend(down);
    if let Some(handle) = bare {
        let ok = handle.shutdown();
        checks.push(check(
            "bare_shutdown_clean",
            ok.is_ok(),
            format!("{:?}", ok.err()),
        ));
    }
    if let (Some(u), false) = (doc.sched.utilization, plan.quick || plan.trace) {
        // Work conservation and the cap itself: a change that moves
        // either broke the scheduler, whatever it did to latency. (The
        // traced run idles the daemon during its POSIX slices, so only
        // the end-to-end run can ask for a full budget.)
        checks.push(check(
            "budget_held_and_used",
            (0.90..=1.0).contains(&u),
            format!("scheduler utilization {u:.4}"),
        ));
    }
    let (proc_start, sums_start) = *start.lock().expect("snapshot mutex");
    let pool = server.pool().stats();
    Ok(Raw {
        workload: w,
        setups,
        lanes,
        control,
        echo: None,
        pool,
        pool_idle_bytes: server.pool().idle_bytes(),
        server: Some(ServerView {
            sums_start,
            sums_end,
            stages: doc.latency.stages,
            workers: server.worker_stats(),
            utilization: doc.sched.utilization,
            total_admitted: doc.sched.total_admitted,
            drain_admitted: doc.sched.drain_admitted,
            totals: server.metrics_doc().totals,
            connect_us,
            drain_s,
        }),
        proc_start,
        proc_end,
        threads_peak,
        payload: env.payload,
        checks,
        extra_attempted,
    })
}

/// The open-loop generator: request `i` of a slice is due `i / rate`
/// after the slice began and is sent then or, if the previous reply is
/// still outstanding, as soon as it arrives — its latency still runs
/// from the due time.
fn run_control(
    mut sock: TcpSock,
    payload: &[u8],
    rate: f64,
    schedule: &[Slice],
    sh: &Shared,
) -> ControlOut {
    let mut out = ControlOut {
        slices: Vec::new(),
        lags: Vec::new(),
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        recorder: Recorder::new(sh.epoch, false),
    };
    let mut back = vec![0u8; payload.len()];
    let mut dead = false;
    let mut msg = 1u64 << 50;
    for slice in schedule {
        sh.barrier.wait();
        out.slices.push(Vec::new());
        // During the POSIX control the daemon carries no bulk traffic,
        // so there is nothing for the control tier to pre-empt.
        if dead || !matches!(slice.kind, SliceKind::Warm | SliceKind::Adoc) {
            continue;
        }
        let measured = slice.kind == SliceKind::Adoc;
        out.recorder.set_enabled(sh.trace && measured);
        let t0 = sh.now();
        for i in 0.. {
            let due = due_time(t0, i, rate);
            if due >= t0 + slice.secs {
                break;
            }
            let wait = due - sh.now();
            if wait > 0.0 {
                thread::sleep(Duration::from_secs_f64(wait));
            }
            let sent = sh.now();
            msg += 1;
            out.attempted += 1;
            match adoc_echo(
                &mut sock,
                payload,
                &mut back,
                &mut out.recorder,
                sh.epoch,
                msg,
            ) {
                Ok((s, _)) if measured => {
                    let (sample, lag) = open_loop(due, sent, s.end);
                    out.slices.last_mut().expect("pushed above").push(sample);
                    out.lags.push(lag);
                }
                Ok(_) => {}
                Err(e) => {
                    out.failed += 1;
                    out.errors.push(format!("control: {e}"));
                    dead = true;
                    break;
                }
            }
        }
    }
    out.recorder.set_enabled(false);
    out
}

/// Sender-side counters of the window: `end − start`, field by field.
pub fn stats_delta(start: &TransferStats, end: &TransferStats) -> TransferStats {
    let mut d = end.clone();
    d.messages -= start.messages;
    d.raw_bytes -= start.raw_bytes;
    d.wire_bytes -= start.wire_bytes;
    d.direct_messages -= start.direct_messages;
    d.probes -= start.probes;
    d.fast_path_hits -= start.fast_path_hits;
    d.divergence_reverts -= start.divergence_reverts;
    d.ratio_trips -= start.ratio_trips;
    for (e, s) in d.buffers_at_level.iter_mut().zip(&start.buffers_at_level) {
        *e -= s;
    }
    d.level_timeline.drain(..start.level_timeline.len());
    d
}
