//! The readiness-driven I/O front end: every v1 connection the TCP
//! daemon accepts is owned by one reactor thread that multiplexes all
//! of their sockets through a [`Poller`], instead of parking one OS
//! thread per connection in blocking reads.
//!
//! ## Shape
//!
//! The accept loop hands raw sockets to [`ReactorHandle::register`];
//! the reactor sniffs the two protocol bytes itself (under the hello
//! timeout, now a reactor timer instead of a socket timeout):
//!
//! * a v1 message header → the connection becomes a resumable state
//!   machine ([`State`]) registered with the poller and served to
//!   completion without ever blocking the reactor;
//! * a v2 group hello → the socket is flipped back to blocking mode
//!   and handed to a dedicated thread running the unchanged
//!   stream-group path (groups are rare, bounded by admission, and
//!   their striped frame scheduling is inherently thread-shaped);
//! * anything else → a handshake failure, exactly as before.
//!
//! Codec work never runs on the reactor thread: frames above level 0
//! are inflated/deflated by the bounded [`WorkerPool`] (one job in
//! flight per connection), so a core count's worth of workers bounds
//! compression CPU no matter how many sockets are registered — the
//! paper's "compression may use spare cycles, never extra capacity"
//! premise applied to the server's concurrency structure.
//!
//! ## Backpressure and fairness
//!
//! All wire throttling goes through the scheduler's non-blocking
//! [`adoc::Throttle::try_acquire_wire`]: a refused admission *parks*
//! the connection — its poller interest drops to [`Interest::NONE`]
//! (level-triggered polling would otherwise spin on the readable
//! socket it must not drain yet) and a reactor timer re-tries at the
//! scheduler's hinted deadline. The scheduler's parked-waker fires the
//! reactor's wake pipe early when refill credit or a budget change
//! makes progress likely, so throttled connections neither spin nor
//! oversleep.
//!
//! ## Drain
//!
//! The drain contract is unchanged from the thread-per-connection
//! front end: a draining server closes connections sitting at a
//! message boundary immediately, lets mid-message connections finish
//! (reads, worker jobs, and reply writes all keep running), and cuts
//! whatever is left as `Failed` once the drain deadline passes. An
//! idle fleet of thousands of connections therefore drains in one
//! sweep instead of thousands of poll-timeout round trips.

use crate::conn::{fnv1a64, sink_ack, DrainState, ServeMode};
use crate::daemon::{handle_group_stream, PendingGroups};
use crate::event::Event;
use crate::poll::{Interest, PollEvent, Poller};
use crate::registry::{ConnId, ConnOutcome};
use crate::trace::StageTimes;
use crate::workers::{default_worker_threads, Job, JobTiming, WorkerPool};
use crate::Server;
use adoc::wire::{
    self, FrameHeader, MsgKind, FRAME_HEADER_LEN, GROUP_MAGIC, MAGIC, MSG_HEADER_LEN,
};
use adoc::{AdocConfig, PooledBuf};
use adoc_codec::ADOC_MAX_LEVEL;
use parking_lot::Mutex;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::io::{self, PipeReader, PipeWriter, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Poller token reserved for the reactor's wake pipe.
const WAKE_TOKEN: u64 = u64::MAX;

/// Upper bound on an idle poll sleep: control-plane state the reactor
/// cannot be woken for directly (a drain started over HTTP) is noticed
/// within this window.
const IDLE_POLL: Duration = Duration::from_millis(500);

/// Poll cap while draining or stopping: the drain deadline and the
/// empty-conns exit condition are re-checked at this cadence.
const DRAIN_POLL: Duration = Duration::from_millis(10);

/// Self-pipe waker: any thread (scheduler refills, worker completions,
/// the accept loop) makes the reactor's next `poll` return immediately.
/// The `pending` flag coalesces bursts into at most one pipe byte.
struct Waker {
    tx: Mutex<PipeWriter>,
    pending: AtomicBool,
}

impl Waker {
    fn wake(&self) {
        if !self.pending.swap(true, Ordering::AcqRel) {
            // EPIPE after the reactor exits is harmless (Rust ignores
            // SIGPIPE); the write is best-effort by design.
            let _ = self.tx.lock().write(&[1]);
        }
    }

    fn clear(&self) {
        self.pending.store(false, Ordering::Release);
    }
}

/// State shared between the reactor thread and its handle.
struct Shared {
    /// Sockets accepted but not yet picked up by the reactor.
    inject: Mutex<Vec<(TcpStream, SocketAddr)>>,
    /// Finished worker jobs waiting for the reactor to resume their
    /// connections. `Err` carries a worker panic or codec failure; the
    /// [`JobTiming`] is the job's queue wait and codec time for the
    /// connection's stage span.
    completions: Mutex<Vec<Completion>>,
    /// Connections currently owned by the reactor plus running group
    /// threads — the daemon's admission-control count.
    live: AtomicUsize,
    stop: AtomicBool,
    waker: Arc<Waker>,
}

/// What a worker job hands back to the state machine.
enum JobDone {
    /// Decompressed inbound frame bytes (appended to the message).
    Inflated(Vec<u8>),
    /// An encoded reply frame (header included). `level` is the level
    /// actually used — 0 when compression did not pay and the worker
    /// fell back to a stored frame (`trip`).
    Deflated {
        level: u8,
        trip: bool,
        frame: Vec<u8>,
    },
}

type JobResult = Result<JobDone, String>;

/// One worker completion routed back to the reactor: `(token, result,
/// timing)`.
type Completion = (u64, JobResult, JobTiming);

/// Which stage owns the span's lap clock on the reactor thread. Worker
/// stages (queue wait, codec) are measured by the worker itself and
/// folded in via [`MsgSpan::absorb_job`].
#[derive(Clone, Copy, PartialEq, Eq)]
enum StageKind {
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
struct MsgSpan {
    started: Instant,
    mark: Instant,
    owner: StageKind,
    times: StageTimes,
}

impl MsgSpan {
    fn begin() -> MsgSpan {
        let now = Instant::now();
        MsgSpan {
            started: now,
            mark: now,
            owner: StageKind::Read,
            times: StageTimes::default(),
        }
    }

    /// Charges the lap since `mark` to the current owner.
    fn flush(&mut self) {
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
    fn switch(&mut self, to: StageKind) {
        self.flush();
        self.owner = to;
    }

    /// Folds a worker job's self-measured durations in and restarts the
    /// lap at now (the submit-side `flush` already closed the reactor's
    /// lap, so the worker interval is never double-counted).
    fn absorb_job(&mut self, timing: JobTiming) {
        self.times.queue_us += timing.queue.as_micros() as u64;
        self.times.codec_us += timing.codec.as_micros() as u64;
        self.mark = Instant::now();
    }

    /// Closes the span: final lap charged, total stamped.
    fn finish(mut self) -> StageTimes {
        self.flush();
        self.times.total_us = self.started.elapsed().as_micros() as u64;
        self.times
    }
}

/// The handle the daemon owns: socket injection, the admission gauge,
/// and shutdown.
pub struct ReactorHandle {
    shared: Arc<Shared>,
    thread: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for ReactorHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReactorHandle")
            .field("live", &self.live())
            .finish()
    }
}

impl ReactorHandle {
    /// Hands an accepted socket to the reactor. Counted in
    /// [`ReactorHandle::live`] immediately, so the accept loop's
    /// admission check has no injection-queue blind spot.
    pub fn register(&self, stream: TcpStream, peer: SocketAddr) {
        self.shared.live.fetch_add(1, Ordering::Relaxed);
        self.shared.inject.lock().push((stream, peer));
        self.shared.waker.wake();
    }

    /// Connections owned by the reactor (sniffing, serving, or running
    /// as group threads it spawned).
    pub fn live(&self) -> usize {
        self.shared.live.load(Ordering::Relaxed)
    }

    /// A second, thread-less handle on the same reactor (for the
    /// accept loop; the owner keeps the joinable one).
    pub fn injector(&self) -> ReactorHandle {
        ReactorHandle {
            shared: Arc::clone(&self.shared),
            thread: None,
        }
    }

    /// Stops the reactor once every connection has closed (the caller
    /// starts the server drain first; the drain deadline bounds the
    /// wait) and joins its thread.
    pub fn shutdown(mut self) -> io::Result<()> {
        self.shared.stop.store(true, Ordering::Relaxed);
        self.shared.waker.wake();
        if let Some(t) = self.thread.take() {
            if t.join().is_err() {
                return Err(io::Error::other("reactor thread panicked"));
            }
        }
        Ok(())
    }
}

/// Resumable per-connection protocol position. Cursor fields live in
/// the variants; bulk buffers live on [`Conn`].
enum State {
    /// Reading the two protocol-sniff bytes (pre-registry).
    Sniff { got: usize },
    /// Reading a 10-byte message header; `got == 0` is the message
    /// boundary the drain logic keys on.
    ReadHeader { got: usize },
    /// Reading a direct message body straight into `msg`.
    ReadDirect { credit: usize },
    /// Reading an adaptive message's 4-byte probe-length prefix.
    ReadProbeLen { got: usize },
    /// Reading the raw probe bytes into `msg[..end]`.
    ReadProbe { end: usize, credit: usize },
    /// Reading a 9-byte frame header.
    ReadFrameHeader { got: usize },
    /// Parked: the frame payload's wire admission was refused.
    AwaitPayloadBudget { hdr: FrameHeader },
    /// Reading one frame's payload.
    ReadFramePayload {
        hdr: FrameHeader,
        payload: PooledBuf,
        got: usize,
    },
    /// A decompression job is in flight; the completion resumes us.
    Inflate,
    /// Writing the reply.
    Reply(Reply),
    /// A compression job for the next reply frame is in flight.
    Deflate(Reply),
    /// Transient placeholder while an arm owns the state.
    Taken,
}

/// Progress of one reply message.
struct Reply {
    /// Message header (plus the zero probe-length prefix when
    /// adaptive).
    head: Vec<u8>,
    head_pos: usize,
    body: ReplyBody,
    /// Offset into `msg` of the next chunk to encode (adaptive echo).
    next_chunk: usize,
    /// The encoded frame currently being written, if any.
    frame: Option<(Vec<u8>, usize)>,
    /// Wire admission for the current frame/body already granted.
    charged: bool,
    /// The current frame's write saw backpressure (drives the level
    /// controller).
    blocked: bool,
    /// Total bytes put on the wire for this reply.
    wire: u64,
    /// Raw bytes of the reply (echo: the message length; sink: 16).
    raw: u64,
}

enum ReplyBody {
    /// Echo the message raw after the header.
    Direct { pos: usize, credit: usize },
    /// 16-byte sink acknowledgement.
    Ack { buf: [u8; 16], pos: usize },
    /// Chunked adaptive frames built from `msg`.
    Adaptive,
}

/// One reactor-owned connection.
struct Conn {
    stream: TcpStream,
    peer: SocketAddr,
    token: u64,
    /// Registry id once the sniff proves this is a v1 connection.
    id: Option<ConnId>,
    /// Per-connection config (scheduler throttle chained) — present
    /// exactly when `id` is.
    cfg: Option<AdocConfig>,
    state: State,
    /// Interest currently installed in the poller.
    interest: Interest,
    /// Header/prefix scratch (message header, probe length, frame
    /// header all fit).
    hdr: [u8; MSG_HEADER_LEN],
    /// Raw length of the in-flight inbound message.
    raw_len: u64,
    /// Inbound message bytes assembled so far (`msg[..filled]` valid;
    /// the buffer is pre-sized to `raw_len`).
    msg: Option<PooledBuf>,
    filled: usize,
    /// Send-path statistics (the reply side), mirrored into the
    /// registry after every message like the blocking serve loop.
    stats: adoc::TransferStats,
    last_level: Option<u8>,
    /// Reply-side compression level controller: climbs on write
    /// backpressure, decays toward `min_level` when the socket keeps
    /// up — the paper's adaptation signal, driven by readiness instead
    /// of a blocked `write`.
    out_level: u8,
    /// Generation of this connection's live timer; stale heap entries
    /// are skipped on pop.
    timer_gen: u64,
    /// Stage span of the in-flight message (present between the first
    /// header byte and the reply's last byte, on traced servers).
    span: Option<MsgSpan>,
}

impl Conn {
    fn at_boundary(&self) -> bool {
        matches!(self.state, State::ReadHeader { got: 0 })
    }

    fn cfg(&self) -> &AdocConfig {
        self.cfg
            .as_ref()
            .expect("registered connection has a config")
    }
}

/// How a connection leaves the reactor.
enum CloseKind {
    /// Clean: counted `Completed` if registered.
    Clean,
    /// Protocol/io/worker failure: counted `Failed` if registered.
    Failed,
    /// Pre-registration failure (bad magic, hello timeout, EOF during
    /// sniff): a handshake-failure count, like the blocking sniffer.
    Handshake,
}

/// What driving a connection's state machine produced.
enum Flow {
    /// Still alive; install this poller interest and wait.
    Keep(Interest),
    Close(CloseKind),
    /// Sniffed a v2 group hello: hand the socket to a blocking thread.
    Handoff,
}

enum ReadStep {
    Data(usize),
    Eof,
    Block,
    Fail,
}

fn read_step(stream: &mut TcpStream, buf: &mut [u8]) -> ReadStep {
    if buf.is_empty() {
        return ReadStep::Data(0);
    }
    match stream.read(buf) {
        Ok(0) => ReadStep::Eof,
        Ok(n) => ReadStep::Data(n),
        Err(e) if e.kind() == io::ErrorKind::WouldBlock => ReadStep::Block,
        Err(e) if e.kind() == io::ErrorKind::Interrupted => ReadStep::Data(0),
        Err(_) => ReadStep::Fail,
    }
}

enum WriteStep {
    Data(usize),
    Block,
    Fail,
}

fn write_step(stream: &mut TcpStream, buf: &[u8]) -> WriteStep {
    match stream.write(buf) {
        Ok(0) => WriteStep::Fail,
        Ok(n) => WriteStep::Data(n),
        Err(e) if e.kind() == io::ErrorKind::WouldBlock => WriteStep::Block,
        Err(e) if e.kind() == io::ErrorKind::Interrupted => WriteStep::Data(0),
        Err(_) => WriteStep::Fail,
    }
}

/// The reactor itself. [`Reactor::spawn`] runs it on a named thread
/// behind a [`ReactorHandle`]; tests drive [`Reactor::run_once`]
/// directly for deterministic single-step control.
pub struct Reactor {
    server: Arc<Server>,
    pending: Arc<PendingGroups>,
    poller: Poller,
    wake_rx: PipeReader,
    shared: Arc<Shared>,
    pool: WorkerPool<JobResult>,
    conns: HashMap<u64, Conn>,
    /// `(deadline, token, timer_gen)` min-heap; entries whose gen no
    /// longer matches the connection are skipped (lazy deletion).
    timers: BinaryHeap<Reverse<(Instant, u64, u64)>>,
    /// Tokens parked on a throttle refusal — all retried when the
    /// scheduler's waker fires.
    throttled: HashSet<u64>,
    group_threads: Vec<JoinHandle<()>>,
    events: Vec<PollEvent>,
    drain: Arc<DrainState>,
    next_token: u64,
    /// Stage spans are recorded only on instrumented servers, so the
    /// bare bench configuration pays nothing for the latency layer.
    traced: bool,
    /// [`crate::ServerConfig::slow_request_threshold`] in microseconds.
    slow_us: u64,
}

impl Reactor {
    /// Builds a reactor for `server` without starting a thread.
    pub fn new(server: Arc<Server>, pending: Arc<PendingGroups>) -> io::Result<Reactor> {
        let poller = Poller::new()?;
        let (wake_rx, wake_tx) = io::pipe()?;
        poller.register(wake_rx.as_raw_fd(), WAKE_TOKEN, Interest::READ)?;
        let waker = Arc::new(Waker {
            tx: Mutex::new(wake_tx),
            pending: AtomicBool::new(false),
        });
        let shared = Arc::new(Shared {
            inject: Mutex::new(Vec::new()),
            completions: Mutex::new(Vec::new()),
            live: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            waker: Arc::clone(&waker),
        });
        // Parked connections are re-tried as soon as refill credit or a
        // budget change lands, not only at their hinted retry deadline.
        let sched_waker = Arc::clone(&waker);
        server
            .scheduler()
            .set_parked_waker(Arc::new(move || sched_waker.wake()));
        let completion_shared = Arc::clone(&shared);
        let pool = WorkerPool::new(
            default_worker_threads(),
            Arc::clone(server.worker_gauges()),
            server.events_shared(),
            move |conn, result, timing| {
                // Flatten the pool's panic channel into the job's own
                // error channel: both close the connection the same way.
                let flat = match result {
                    Ok(inner) => inner,
                    Err(panic) => Err(panic),
                };
                completion_shared
                    .completions
                    .lock()
                    .push((conn, flat, timing));
                completion_shared.waker.wake();
            },
        );
        let drain = server.drain_state();
        let traced = server.config().instrument;
        let slow_us = server.config().slow_request_threshold.as_micros() as u64;
        Ok(Reactor {
            traced,
            slow_us,
            server,
            pending,
            poller,
            wake_rx,
            shared,
            pool,
            conns: HashMap::new(),
            timers: BinaryHeap::new(),
            throttled: HashSet::new(),
            group_threads: Vec::new(),
            events: Vec::new(),
            drain,
            next_token: 1,
        })
    }

    /// Spawns the reactor loop on a dedicated thread.
    pub fn spawn(server: Arc<Server>, pending: Arc<PendingGroups>) -> io::Result<ReactorHandle> {
        let mut reactor = Reactor::new(server, pending)?;
        let shared = Arc::clone(&reactor.shared);
        let thread = std::thread::Builder::new()
            .name("adoc-reactor".into())
            .spawn(move || reactor.run())?;
        Ok(ReactorHandle {
            shared,
            thread: Some(thread),
        })
    }

    /// An injection/shutdown handle for a reactor driven manually with
    /// [`Reactor::run_once`] (tests).
    pub fn handle(&self) -> ReactorHandle {
        ReactorHandle {
            shared: Arc::clone(&self.shared),
            thread: None,
        }
    }

    /// Connections currently owned (including group threads).
    pub fn live(&self) -> usize {
        self.shared.live.load(Ordering::Relaxed)
    }

    /// Runs until stopped and empty.
    pub fn run(&mut self) {
        loop {
            if self.shared.stop.load(Ordering::Relaxed)
                && self.conns.is_empty()
                && self.group_threads.is_empty()
            {
                break;
            }
            self.run_once(self.poll_timeout());
        }
    }

    fn poll_timeout(&self) -> Option<Duration> {
        let now = Instant::now();
        let mut timeout = self
            .timers
            .peek()
            .map(|Reverse((deadline, _, _))| deadline.saturating_duration_since(now));
        let cap = if self.drain.is_draining() || self.shared.stop.load(Ordering::Relaxed) {
            DRAIN_POLL
        } else {
            IDLE_POLL
        };
        timeout = Some(timeout.map_or(cap, |t| t.min(cap)));
        timeout
    }

    /// One poll-dispatch cycle; returns how many units of work
    /// (readiness events, injections, completions, fired timers) were
    /// dispatched. A parked or idle fleet produces ticks that return 0
    /// and emit nothing.
    pub fn run_once(&mut self, timeout: Option<Duration>) -> usize {
        let mut events = std::mem::take(&mut self.events);
        let n = self.poller.wait(&mut events, timeout);
        let mut work = 0usize;
        let mut woken = false;
        if n.is_ok() {
            for ev in &events {
                if ev.token == WAKE_TOKEN {
                    woken = true;
                    // Drain the pipe BEFORE clearing the pending flag:
                    // wake() only writes on a false→true transition, so
                    // while `pending` is still true no new byte can
                    // land, and this read can never consume a byte
                    // whose wake() skipped the write. (Clearing first
                    // opens exactly that race — a wake between the
                    // clear and the read leaves pending=true with an
                    // empty pipe, permanently wedging the waker.) A
                    // wake landing after the clear writes its own byte,
                    // which the next poll observes.
                    let mut drain_buf = [0u8; 64];
                    let _ = self.wake_rx.read(&mut drain_buf);
                    self.shared.waker.clear();
                } else {
                    work += 1;
                }
            }
            // Readiness dispatch happens after the wake-pipe drain so a
            // completion queued during dispatch still wakes the next
            // poll.
            let ready: Vec<PollEvent> = events
                .iter()
                .filter(|ev| ev.token != WAKE_TOKEN)
                .copied()
                .collect();
            for ev in ready {
                if ev.error && !ev.readable && !ev.writable {
                    // ERR/HUP is reported regardless of the interest
                    // mask. With no readiness the state machine can act
                    // on (a parked or worker-waiting connection holds
                    // Interest::NONE), dispatching would just re-refuse
                    // admission against a dead peer on every poll — a
                    // 100% CPU loop growing the timer heap. The peer is
                    // gone; close directly.
                    if let Some(conn) = self.conns.remove(&ev.token) {
                        let kind = if conn.id.is_some() {
                            CloseKind::Failed
                        } else {
                            CloseKind::Handshake
                        };
                        self.close(conn, kind);
                    }
                } else {
                    self.dispatch(ev.token);
                }
            }
        }
        self.events = events;
        work += self.process_injections();
        work += self.process_completions();
        work += self.fire_timers();
        if woken {
            // The scheduler's waker cannot name a connection; retry the
            // whole parked set (admission checks are cheap).
            let parked: Vec<u64> = self.throttled.iter().copied().collect();
            for token in parked {
                self.dispatch(token);
            }
        }
        self.sweep_drain();
        self.reap_group_threads();
        if work > 0 && self.server.events().is_active() {
            self.server.events().emit(Event::ReactorTick {
                ready: work,
                parked: self.server.scheduler().parked(),
            });
        }
        work
    }

    fn process_injections(&mut self) -> usize {
        let injected: Vec<(TcpStream, SocketAddr)> =
            std::mem::take(&mut *self.shared.inject.lock());
        let n = injected.len();
        for (stream, peer) in injected {
            self.admit(stream, peer);
        }
        n
    }

    fn admit(&mut self, stream: TcpStream, peer: SocketAddr) {
        stream.set_nodelay(true).ok();
        if stream.set_nonblocking(true).is_err() {
            self.server.registry().count_handshake_failure();
            self.shared.live.fetch_sub(1, Ordering::Relaxed);
            return;
        }
        let token = self.next_token;
        self.next_token += 1;
        if self
            .poller
            .register(stream.as_raw_fd(), token, Interest::READ)
            .is_err()
        {
            self.server.registry().count_handshake_failure();
            self.shared.live.fetch_sub(1, Ordering::Relaxed);
            return;
        }
        let hello_timeout = self.server.config().adoc.hello_timeout;
        let mut conn = Conn {
            stream,
            peer,
            token,
            id: None,
            cfg: None,
            state: State::Sniff { got: 0 },
            interest: Interest::READ,
            hdr: [0u8; MSG_HEADER_LEN],
            raw_len: 0,
            msg: None,
            filled: 0,
            stats: adoc::TransferStats::new(),
            last_level: None,
            out_level: 0,
            timer_gen: 0,
            span: None,
        };
        self.arm_timer(&mut conn, hello_timeout);
        self.conns.insert(token, conn);
        // The client may have sent its first bytes already; serve them
        // this tick instead of waiting for the next poll.
        self.dispatch(token);
    }

    fn process_completions(&mut self) -> usize {
        let done: Vec<(u64, Result<JobDone, String>, JobTiming)> =
            std::mem::take(&mut *self.shared.completions.lock());
        let n = done.len();
        for (token, result, timing) in done {
            self.complete(token, result, timing);
        }
        n
    }

    fn fire_timers(&mut self) -> usize {
        let now = Instant::now();
        let mut fired = 0usize;
        while let Some(&Reverse((deadline, token, gen))) = self.timers.peek() {
            if deadline > now {
                break;
            }
            self.timers.pop();
            let live_gen = match self.conns.get(&token) {
                Some(conn) => conn.timer_gen,
                None => continue,
            };
            if live_gen != gen {
                continue; // stale: the connection moved on
            }
            fired += 1;
            if matches!(
                self.conns.get(&token).map(|c| &c.state),
                Some(State::Sniff { .. })
            ) {
                // Hello timeout: the peer never finished its first two
                // bytes.
                if let Some(conn) = self.conns.remove(&token) {
                    self.close(conn, CloseKind::Handshake);
                }
            } else {
                // Throttle retry (or a stale hello timer on an active
                // connection, where dispatch is a harmless no-op).
                self.dispatch(token);
            }
        }
        fired
    }

    /// Closes everything the drain rules say must go this tick.
    fn sweep_drain(&mut self) {
        if !self.drain.is_draining() {
            return;
        }
        let cut_stalled = self.drain.deadline_passed();
        let doomed: Vec<(u64, CloseKind)> = self
            .conns
            .iter()
            .filter_map(|(&token, conn)| {
                if matches!(conn.state, State::Sniff { .. }) {
                    Some((token, CloseKind::Handshake))
                } else if conn.at_boundary() {
                    Some((token, CloseKind::Clean))
                } else if cut_stalled {
                    Some((token, CloseKind::Failed))
                } else {
                    None
                }
            })
            .collect();
        for (token, kind) in doomed {
            if let Some(conn) = self.conns.remove(&token) {
                self.close(conn, kind);
            }
        }
    }

    fn reap_group_threads(&mut self) {
        let mut i = 0;
        while i < self.group_threads.len() {
            if self.group_threads[i].is_finished() {
                if self.group_threads.swap_remove(i).join().is_err() {
                    eprintln!("adoc-server: a group serving thread panicked");
                }
            } else {
                i += 1;
            }
        }
    }

    /// Runs `token`'s state machine until it blocks, parks, queues a
    /// job, or closes.
    fn dispatch(&mut self, token: u64) {
        let Some(mut conn) = self.conns.remove(&token) else {
            return;
        };
        // A parked connection being retried leaves the set; a refused
        // admission below re-inserts it.
        self.throttled.remove(&token);
        match self.drive(&mut conn) {
            Flow::Keep(interest) => {
                if interest != conn.interest
                    && self
                        .poller
                        .modify(conn.stream.as_raw_fd(), token, interest)
                        .is_ok()
                {
                    conn.interest = interest;
                }
                self.conns.insert(token, conn);
            }
            Flow::Close(kind) => self.close(conn, kind),
            Flow::Handoff => self.handoff(conn),
        }
    }

    /// Resumes a connection with its worker-job result.
    fn complete(&mut self, token: u64, result: Result<JobDone, String>, timing: JobTiming) {
        let Some(mut conn) = self.conns.remove(&token) else {
            return; // closed while the job ran (drain cut, peer reset)
        };
        if let Some(span) = conn.span.as_mut() {
            span.absorb_job(timing);
        }
        let done = match result {
            Ok(done) => done,
            Err(msg) => {
                // The typed worker-failure path: a panicked or failed
                // codec job closes exactly this connection.
                self.server.events().emit(Event::ConnError {
                    conn: conn.id,
                    error: &format!("codec worker: {msg}"),
                });
                self.close(conn, CloseKind::Failed);
                return;
            }
        };
        let next: Result<(), String> =
            match (std::mem::replace(&mut conn.state, State::Taken), done) {
                (State::Inflate, JobDone::Inflated(bytes)) => {
                    let msg = conn.msg.as_mut().expect("inflating implies a message");
                    msg[conn.filled..conn.filled + bytes.len()].copy_from_slice(&bytes);
                    conn.filled += bytes.len();
                    if conn.filled as u64 == conn.raw_len {
                        if let Err(kind) = self.start_reply(&mut conn) {
                            self.close(conn, kind);
                            return;
                        }
                    } else {
                        conn.state = State::ReadFrameHeader { got: 0 };
                    }
                    Ok(())
                }
                (State::Deflate(mut reply), JobDone::Deflated { level, trip, frame }) => {
                    conn.stats.record_buffer(level);
                    if trip {
                        conn.stats.ratio_trips += 1;
                    }
                    reply.frame = Some((frame, 0));
                    reply.charged = false;
                    reply.blocked = false;
                    conn.state = State::Reply(reply);
                    Ok(())
                }
                _ => Err("worker completion arrived in an impossible state".to_string()),
            };
        match next {
            Ok(()) => {
                self.conns.insert(token, conn);
                self.dispatch(token);
            }
            Err(msg) => {
                self.server.events().emit(Event::ConnError {
                    conn: conn.id,
                    error: &msg,
                });
                self.close(conn, CloseKind::Failed);
            }
        }
    }

    fn arm_timer(&mut self, conn: &mut Conn, after: Duration) {
        conn.timer_gen += 1;
        self.timers.push(Reverse((
            Instant::now() + after,
            conn.token,
            conn.timer_gen,
        )));
    }

    /// Admission helper: `true` = admitted (the span's lap clock goes
    /// to `stage`), `false` = parked (timer armed, the lap clock goes
    /// to sched-wait, caller returns `Keep(NONE)`).
    fn try_admit(&mut self, conn: &mut Conn, bytes: usize, stage: StageKind) -> bool {
        match conn.cfg().throttle.try_acquire_wire(bytes) {
            Ok(()) => {
                if let Some(span) = conn.span.as_mut() {
                    span.switch(stage);
                }
                true
            }
            Err(retry) => {
                if let Some(span) = conn.span.as_mut() {
                    span.switch(StageKind::SchedWait);
                }
                self.throttled.insert(conn.token);
                self.arm_timer(conn, retry);
                false
            }
        }
    }

    fn close(&mut self, conn: Conn, kind: CloseKind) {
        let _ = self.poller.deregister(conn.stream.as_raw_fd());
        self.throttled.remove(&conn.token);
        if let Some(id) = conn.id {
            self.server.tracer().deregister(id);
        }
        match (conn.id, kind) {
            (Some(id), CloseKind::Clean) => {
                self.server.registry().remove(id, ConnOutcome::Completed)
            }
            (Some(id), _) => self.server.registry().remove(id, ConnOutcome::Failed),
            (None, CloseKind::Clean) => {}
            (None, _) => self.server.registry().count_handshake_failure(),
        }
        self.shared.live.fetch_sub(1, Ordering::Relaxed);
        // Dropping the conn drops its config, whose scheduler throttle
        // deregisters the bucket.
    }

    /// Flips a group-hello socket back to blocking and serves it on a
    /// dedicated thread via the unchanged stream-group path.
    fn handoff(&mut self, conn: Conn) {
        let _ = self.poller.deregister(conn.stream.as_raw_fd());
        let sniff = [conn.hdr[0], conn.hdr[1]];
        let Conn { stream, peer, .. } = conn;
        let hello_timeout = self.server.config().adoc.hello_timeout;
        if stream.set_nonblocking(false).is_err()
            || stream.set_read_timeout(Some(hello_timeout)).is_err()
        {
            self.server.registry().count_handshake_failure();
            self.shared.live.fetch_sub(1, Ordering::Relaxed);
            return;
        }
        let server = Arc::clone(&self.server);
        let pending = Arc::clone(&self.pending);
        let shared = Arc::clone(&self.shared);
        let spawned = std::thread::Builder::new()
            .name(format!("adoc-conn-{peer}"))
            .spawn(move || {
                handle_group_stream(server, pending, stream, peer, sniff, hello_timeout);
                shared.live.fetch_sub(1, Ordering::Relaxed);
                shared.waker.wake();
            });
        match spawned {
            Ok(handle) => self.group_threads.push(handle),
            Err(e) => {
                eprintln!("adoc-server: cannot spawn group serving thread: {e}");
                self.server.registry().count_handshake_failure();
                self.shared.live.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }

    /// The state machine. Loops until the connection blocks on the
    /// socket, parks on the throttle, queues a worker job, or closes.
    fn drive(&mut self, conn: &mut Conn) -> Flow {
        loop {
            match std::mem::replace(&mut conn.state, State::Taken) {
                State::Sniff { mut got } => {
                    match read_step(&mut conn.stream, &mut conn.hdr[got..2]) {
                        ReadStep::Eof | ReadStep::Fail => return Flow::Close(CloseKind::Handshake),
                        ReadStep::Block => {
                            conn.state = State::Sniff { got };
                            return Flow::Keep(Interest::READ);
                        }
                        ReadStep::Data(n) => {
                            got += n;
                            if got < 2 {
                                conn.state = State::Sniff { got };
                                continue;
                            }
                        }
                    }
                    if conn.hdr[0] != MAGIC {
                        return Flow::Close(CloseKind::Handshake);
                    }
                    if conn.hdr[1] == GROUP_MAGIC {
                        return Flow::Handoff;
                    }
                    if conn.hdr[1] > 1 {
                        return Flow::Close(CloseKind::Handshake);
                    }
                    if self.server.config().require_auth {
                        // A v1 connection has no credential to present:
                        // refused pre-admission, exactly like a
                        // plaintext group hello.
                        self.server.sessions().count_rejected();
                        self.server.events().emit(Event::TicketRejected {
                            session_id: None,
                            reason: "auth",
                        });
                        return Flow::Close(CloseKind::Handshake);
                    }
                    // A v1 message header begins: register the
                    // connection and resume header parsing with the two
                    // sniffed bytes already in place.
                    let peer_label = conn.peer.to_string();
                    let id = self.server.registry().register(peer_label.clone());
                    let cfg = self.server.conn_config(id, 1, &peer_label);
                    self.server.registry().activate(id, 1);
                    conn.out_level = cfg.min_level;
                    conn.id = Some(id);
                    conn.cfg = Some(cfg);
                    if self.traced {
                        // A live, registered connection answers
                        // GET /trace (empty ring) before its first
                        // message completes.
                        self.server.tracer().register(id);
                        conn.span = Some(MsgSpan::begin());
                    }
                    conn.state = State::ReadHeader { got: 2 };
                }
                State::ReadHeader { mut got } => {
                    if got == 0 && self.drain.is_draining() {
                        // At a boundary: a draining server takes no
                        // further messages.
                        return Flow::Close(CloseKind::Clean);
                    }
                    match read_step(&mut conn.stream, &mut conn.hdr[got..MSG_HEADER_LEN]) {
                        ReadStep::Eof if got == 0 => return Flow::Close(CloseKind::Clean),
                        ReadStep::Eof | ReadStep::Fail => return Flow::Close(CloseKind::Failed),
                        ReadStep::Block => {
                            conn.state = State::ReadHeader { got };
                            return Flow::Keep(Interest::READ);
                        }
                        ReadStep::Data(n) => {
                            if got == 0 && n > 0 && self.traced && conn.span.is_none() {
                                // First header byte of a new message:
                                // the span starts here, so client idle
                                // time between messages is excluded.
                                conn.span = Some(MsgSpan::begin());
                            }
                            got += n;
                            if got < MSG_HEADER_LEN {
                                conn.state = State::ReadHeader { got };
                                continue;
                            }
                        }
                    }
                    let parsed = wire::read_msg_header(&mut &conn.hdr[..], conn.cfg().max_message);
                    let (kind, raw_len) = match parsed {
                        Ok(Some(h)) => h,
                        _ => return Flow::Close(CloseKind::Failed),
                    };
                    if raw_len == 0 {
                        // A zero-byte message (of either kind) is a
                        // client-initiated close, like the blocking
                        // serve loop.
                        return Flow::Close(CloseKind::Clean);
                    }
                    conn.raw_len = raw_len;
                    conn.filled = 0;
                    let mut msg = conn.cfg().pool.get(raw_len as usize);
                    msg.resize(raw_len as usize, 0);
                    conn.msg = Some(msg);
                    conn.state = match kind {
                        MsgKind::Direct => State::ReadDirect { credit: 0 },
                        MsgKind::Adaptive => State::ReadProbeLen { got: 0 },
                    };
                }
                State::ReadDirect { mut credit } => {
                    let remaining = conn.raw_len as usize - conn.filled;
                    if credit == 0 {
                        // Inbound pacing in the blocking receiver's
                        // quanta: a buffer_size's worth at a time.
                        let quantum = remaining.min(conn.cfg().buffer_size);
                        if !self.try_admit(conn, quantum, StageKind::Read) {
                            conn.state = State::ReadDirect { credit };
                            return Flow::Keep(Interest::NONE);
                        }
                        credit = quantum;
                    }
                    let msg = conn.msg.as_mut().expect("direct read has a message");
                    let end = conn.filled + credit.min(remaining);
                    match read_step(&mut conn.stream, &mut msg[conn.filled..end]) {
                        ReadStep::Eof | ReadStep::Fail => return Flow::Close(CloseKind::Failed),
                        ReadStep::Block => {
                            conn.state = State::ReadDirect { credit };
                            return Flow::Keep(Interest::READ);
                        }
                        ReadStep::Data(n) => {
                            conn.filled += n;
                            credit -= n;
                        }
                    }
                    if conn.filled as u64 == conn.raw_len {
                        if let Err(kind) = self.start_reply(conn) {
                            return Flow::Close(kind);
                        }
                    } else {
                        conn.state = State::ReadDirect { credit };
                    }
                }
                State::ReadProbeLen { mut got } => {
                    match read_step(&mut conn.stream, &mut conn.hdr[got..4]) {
                        ReadStep::Eof | ReadStep::Fail => return Flow::Close(CloseKind::Failed),
                        ReadStep::Block => {
                            conn.state = State::ReadProbeLen { got };
                            return Flow::Keep(Interest::READ);
                        }
                        ReadStep::Data(n) => {
                            got += n;
                            if got < 4 {
                                conn.state = State::ReadProbeLen { got };
                                continue;
                            }
                        }
                    }
                    let probe_len =
                        u32::from_le_bytes(conn.hdr[..4].try_into().expect("4 bytes")) as u64;
                    if probe_len > conn.raw_len {
                        return Flow::Close(CloseKind::Failed);
                    }
                    if probe_len == 0 {
                        conn.state = match self.after_inbound_bytes(conn) {
                            Ok(state) => state,
                            Err(kind) => return Flow::Close(kind),
                        };
                    } else {
                        conn.state = State::ReadProbe {
                            end: probe_len as usize,
                            credit: 0,
                        };
                    }
                }
                State::ReadProbe { end, mut credit } => {
                    if credit == 0 {
                        let quantum = (end - conn.filled).min(conn.cfg().packet_size);
                        if !self.try_admit(conn, quantum, StageKind::Read) {
                            conn.state = State::ReadProbe { end, credit };
                            return Flow::Keep(Interest::NONE);
                        }
                        credit = quantum;
                    }
                    let msg = conn.msg.as_mut().expect("probe read has a message");
                    let upto = (conn.filled + credit).min(end);
                    match read_step(&mut conn.stream, &mut msg[conn.filled..upto]) {
                        ReadStep::Eof | ReadStep::Fail => return Flow::Close(CloseKind::Failed),
                        ReadStep::Block => {
                            conn.state = State::ReadProbe { end, credit };
                            return Flow::Keep(Interest::READ);
                        }
                        ReadStep::Data(n) => {
                            conn.filled += n;
                            credit -= n;
                        }
                    }
                    conn.state = if conn.filled == end {
                        match self.after_inbound_bytes(conn) {
                            Ok(state) => state,
                            Err(kind) => return Flow::Close(kind),
                        }
                    } else {
                        State::ReadProbe { end, credit }
                    };
                    if matches!(conn.state, State::Reply(_)) {
                        continue;
                    }
                }
                State::ReadFrameHeader { mut got } => {
                    match read_step(&mut conn.stream, &mut conn.hdr[got..FRAME_HEADER_LEN]) {
                        ReadStep::Eof | ReadStep::Fail => return Flow::Close(CloseKind::Failed),
                        ReadStep::Block => {
                            conn.state = State::ReadFrameHeader { got };
                            return Flow::Keep(Interest::READ);
                        }
                        ReadStep::Data(n) => {
                            got += n;
                            if got < FRAME_HEADER_LEN {
                                conn.state = State::ReadFrameHeader { got };
                                continue;
                            }
                        }
                    }
                    let hdr =
                        match FrameHeader::read(&mut &conn.hdr[..FRAME_HEADER_LEN], ADOC_MAX_LEVEL)
                        {
                            Ok(h) => h,
                            Err(_) => return Flow::Close(CloseKind::Failed),
                        };
                    let raw_left = conn.raw_len.saturating_sub(conn.filled as u64);
                    if hdr.check_bounds(conn.cfg().buffer_size, raw_left).is_err() {
                        return Flow::Close(CloseKind::Failed);
                    }
                    conn.state = State::AwaitPayloadBudget { hdr };
                }
                State::AwaitPayloadBudget { hdr } => {
                    // Wire admission covers the payload, as in the
                    // blocking receiver; parking here is what lets a
                    // throttled connection sleep instead of spin.
                    if !self.try_admit(conn, hdr.payload_len as usize, StageKind::Read) {
                        conn.state = State::AwaitPayloadBudget { hdr };
                        return Flow::Keep(Interest::NONE);
                    }
                    let payload = conn.cfg().pool.get(hdr.payload_len as usize);
                    conn.state = State::ReadFramePayload {
                        hdr,
                        payload,
                        got: 0,
                    };
                }
                State::ReadFramePayload {
                    hdr,
                    mut payload,
                    mut got,
                } => {
                    payload.resize(hdr.payload_len as usize, 0);
                    match read_step(&mut conn.stream, &mut payload[got..]) {
                        ReadStep::Eof | ReadStep::Fail => return Flow::Close(CloseKind::Failed),
                        ReadStep::Block => {
                            conn.state = State::ReadFramePayload { hdr, payload, got };
                            return Flow::Keep(Interest::READ);
                        }
                        ReadStep::Data(n) => {
                            got += n;
                            if got < hdr.payload_len as usize {
                                conn.state = State::ReadFramePayload { hdr, payload, got };
                                continue;
                            }
                        }
                    }
                    if hdr.level == 0 {
                        // Stored frame: the payload is the raw bytes.
                        let msg = conn.msg.as_mut().expect("frame read has a message");
                        msg[conn.filled..conn.filled + payload.len()].copy_from_slice(&payload);
                        conn.filled += payload.len();
                        conn.state = match self.after_inbound_bytes(conn) {
                            Ok(state) => state,
                            Err(kind) => return Flow::Close(kind),
                        };
                        if matches!(conn.state, State::Reply(_)) {
                            continue;
                        }
                    } else {
                        // Decompression is codec work: off the reactor.
                        let level = hdr.level;
                        let raw_len = hdr.raw_len as usize;
                        let input = std::mem::take(&mut *payload);
                        if let Some(span) = conn.span.as_mut() {
                            // Close the read lap; the worker measures
                            // its own queue/codec interval.
                            span.flush();
                        }
                        self.pool.submit(Job {
                            conn: conn.token,
                            work: Box::new(move |_codec| {
                                let mut out = Vec::with_capacity(raw_len);
                                adoc_codec::decompress_at(level, &input, raw_len, &mut out)
                                    .map_err(|e| e.to_string())?;
                                Ok(JobDone::Inflated(out))
                            }),
                        });
                        conn.state = State::Inflate;
                        return Flow::Keep(Interest::NONE);
                    }
                }
                State::Inflate => {
                    // Waiting on the worker; the completion resumes us.
                    conn.state = State::Inflate;
                    return Flow::Keep(Interest::NONE);
                }
                State::Reply(reply) => match self.drive_reply(conn, reply) {
                    ReplyFlow::Wait(state, interest) => {
                        conn.state = state;
                        return Flow::Keep(interest);
                    }
                    ReplyFlow::Close(kind) => return Flow::Close(kind),
                },
                State::Deflate(reply) => {
                    conn.state = State::Deflate(reply);
                    return Flow::Keep(Interest::NONE);
                }
                State::Taken => unreachable!("state taken re-entrantly"),
            }
        }
    }

    /// After probe/frame bytes landed: more frames, or a finished
    /// message (start the reply). `Err` propagates `start_reply`'s
    /// close verdict to the caller instead of inventing a state.
    fn after_inbound_bytes(&mut self, conn: &mut Conn) -> Result<State, CloseKind> {
        if conn.filled as u64 == conn.raw_len {
            self.start_reply(conn)?;
            Ok(std::mem::replace(&mut conn.state, State::Taken))
        } else {
            Ok(State::ReadFrameHeader { got: 0 })
        }
    }

    /// Builds the reply for the completed inbound message and moves the
    /// connection into `Reply`. `Err` means close (zero-length message).
    fn start_reply(&mut self, conn: &mut Conn) -> Result<(), CloseKind> {
        if conn.raw_len == 0 {
            return Err(CloseKind::Clean);
        }
        let raw_len = conn.raw_len;
        let cfg = conn.cfg();
        let reply = match self.server.mode() {
            ServeMode::Sink => {
                let msg = conn.msg.as_ref().expect("sink reply has a message");
                let ack = sink_ack(raw_len, fnv1a64(msg));
                conn.stats.direct_messages += 1;
                Reply {
                    head: wire::encode_msg_header(MsgKind::Direct, 16).to_vec(),
                    head_pos: 0,
                    body: ReplyBody::Ack { buf: ack, pos: 0 },
                    next_chunk: 0,
                    frame: None,
                    charged: false,
                    blocked: false,
                    wire: 0,
                    raw: 16,
                }
            }
            ServeMode::Echo
                if cfg.compression_disabled() || raw_len < cfg.probe_threshold as u64 =>
            {
                conn.stats.direct_messages += 1;
                Reply {
                    head: wire::encode_msg_header(MsgKind::Direct, raw_len).to_vec(),
                    head_pos: 0,
                    body: ReplyBody::Direct { pos: 0, credit: 0 },
                    next_chunk: 0,
                    frame: None,
                    charged: false,
                    blocked: false,
                    wire: 0,
                    raw: raw_len,
                }
            }
            ServeMode::Echo => {
                // Adaptive echo with a zero-length probe: the level
                // controller, not a probe, picks the starting level.
                let mut head = wire::encode_msg_header(MsgKind::Adaptive, raw_len).to_vec();
                head.extend_from_slice(&0u32.to_le_bytes());
                Reply {
                    head,
                    head_pos: 0,
                    body: ReplyBody::Adaptive,
                    next_chunk: 0,
                    frame: None,
                    charged: false,
                    blocked: false,
                    wire: 0,
                    raw: raw_len,
                }
            }
        };
        if let Some(span) = conn.span.as_mut() {
            // The message is fully read; everything from here is the
            // write side (a refused admission re-takes the clock).
            span.switch(StageKind::Write);
        }
        conn.state = State::Reply(reply);
        Ok(())
    }

    fn drive_reply(&mut self, conn: &mut Conn, mut reply: Reply) -> ReplyFlow {
        // Message header first.
        while reply.head_pos < reply.head.len() {
            match write_step(&mut conn.stream, &reply.head[reply.head_pos..]) {
                WriteStep::Fail => return ReplyFlow::Close(CloseKind::Failed),
                WriteStep::Block => return ReplyFlow::Wait(State::Reply(reply), Interest::WRITE),
                WriteStep::Data(n) => {
                    reply.head_pos += n;
                    reply.wire += n as u64;
                }
            }
        }
        loop {
            // A frame (or ack) already encoded: put it on the wire.
            if let Some((frame, mut pos)) = reply.frame.take() {
                if !reply.charged {
                    if !self.try_admit(conn, frame.len(), StageKind::Write) {
                        reply.frame = Some((frame, pos));
                        return ReplyFlow::Wait(State::Reply(reply), Interest::NONE);
                    }
                    reply.charged = true;
                }
                while pos < frame.len() {
                    match write_step(&mut conn.stream, &frame[pos..]) {
                        WriteStep::Fail => return ReplyFlow::Close(CloseKind::Failed),
                        WriteStep::Block => {
                            reply.blocked = true;
                            reply.frame = Some((frame, pos));
                            return ReplyFlow::Wait(State::Reply(reply), Interest::WRITE);
                        }
                        WriteStep::Data(n) => {
                            pos += n;
                            reply.wire += n as u64;
                        }
                    }
                }
                // Frame done: feed the adaptation signal. Backpressure
                // raises the level (spend cycles to shrink the wire);
                // a clean write decays toward min_level.
                let cfg = conn.cfg();
                if reply.blocked {
                    conn.out_level = (conn.out_level + 1).min(cfg.max_level);
                } else if conn.out_level > cfg.min_level {
                    conn.out_level -= 1;
                }
                reply.charged = false;
                reply.blocked = false;
            }
            match &mut reply.body {
                ReplyBody::Ack { buf, pos } => {
                    if !reply.charged {
                        if !self.try_admit(conn, buf.len(), StageKind::Write) {
                            return ReplyFlow::Wait(State::Reply(reply), Interest::NONE);
                        }
                        reply.charged = true;
                    }
                    while *pos < buf.len() {
                        match write_step(&mut conn.stream, &buf[*pos..]) {
                            WriteStep::Fail => return ReplyFlow::Close(CloseKind::Failed),
                            WriteStep::Block => {
                                return ReplyFlow::Wait(State::Reply(reply), Interest::WRITE)
                            }
                            WriteStep::Data(n) => {
                                *pos += n;
                                reply.wire += n as u64;
                            }
                        }
                    }
                    return self.finish_message(conn, reply);
                }
                ReplyBody::Direct { pos, credit } => {
                    let msg_len = conn.msg.as_ref().expect("direct reply has a message").len();
                    while *pos < msg_len {
                        if *credit == 0 {
                            let quantum = (msg_len - *pos).min(conn.cfg().buffer_size);
                            if !self.try_admit(conn, quantum, StageKind::Write) {
                                return ReplyFlow::Wait(State::Reply(reply), Interest::NONE);
                            }
                            *credit = quantum;
                        }
                        let end = (*pos + *credit).min(msg_len);
                        let msg = conn.msg.as_ref().expect("direct reply has a message");
                        match write_step(&mut conn.stream, &msg[*pos..end]) {
                            WriteStep::Fail => return ReplyFlow::Close(CloseKind::Failed),
                            WriteStep::Block => {
                                return ReplyFlow::Wait(State::Reply(reply), Interest::WRITE)
                            }
                            WriteStep::Data(n) => {
                                *pos += n;
                                *credit -= n;
                                reply.wire += n as u64;
                            }
                        }
                    }
                    return self.finish_message(conn, reply);
                }
                ReplyBody::Adaptive => {
                    let msg = conn.msg.as_ref().expect("adaptive reply has a message");
                    if reply.next_chunk >= msg.len() {
                        return self.finish_message(conn, reply);
                    }
                    let cfg = conn.cfg();
                    let start = reply.next_chunk;
                    let end = (start + cfg.buffer_size).min(msg.len());
                    let level = conn.out_level.clamp(cfg.min_level, cfg.max_level);
                    reply.next_chunk = end;
                    if level == 0 {
                        // Stored frames are pure memcpy: build inline.
                        let chunk = &msg[start..end];
                        let hdr = FrameHeader {
                            level: 0,
                            raw_len: chunk.len() as u32,
                            payload_len: chunk.len() as u32,
                        };
                        let mut frame = Vec::with_capacity(FRAME_HEADER_LEN + chunk.len());
                        frame.extend_from_slice(&hdr.encode());
                        frame.extend_from_slice(chunk);
                        conn.stats.record_buffer(0);
                        reply.frame = Some((frame, 0));
                        continue;
                    }
                    // Compression is worker-pool work; one job in
                    // flight per connection bounds the queue.
                    let chunk = msg[start..end].to_vec();
                    if let Some(span) = conn.span.as_mut() {
                        span.flush();
                    }
                    self.pool.submit(Job {
                        conn: conn.token,
                        work: Box::new(move |codec| {
                            let mut payload = Vec::new();
                            codec.compress_at(level, &chunk, &mut payload);
                            let (level, trip, body): (u8, bool, &[u8]) =
                                if payload.len() >= chunk.len() {
                                    (0, true, &chunk)
                                } else {
                                    (level, false, &payload)
                                };
                            let hdr = FrameHeader {
                                level,
                                raw_len: chunk.len() as u32,
                                payload_len: body.len() as u32,
                            };
                            let mut frame = Vec::with_capacity(FRAME_HEADER_LEN + body.len());
                            frame.extend_from_slice(&hdr.encode());
                            frame.extend_from_slice(body);
                            Ok(JobDone::Deflated { level, trip, frame })
                        }),
                    });
                    return ReplyFlow::Wait(State::Deflate(reply), Interest::NONE);
                }
            }
        }
    }

    /// Reply fully written: mirror the blocking serve loop's accounting
    /// and return to the message boundary.
    fn finish_message(&mut self, conn: &mut Conn, reply: Reply) -> ReplyFlow {
        let id = conn.id.expect("served connection is registered");
        conn.stats.messages += 1;
        conn.stats.raw_bytes += reply.raw;
        conn.stats.wire_bytes += reply.wire;
        if let Some(snap) = self
            .server
            .registry()
            .update(id, conn.raw_len, reply.wire, &conn.stats)
        {
            self.server.scheduler().report_delay(id, snap);
        }
        let span_times = conn.span.take().map(MsgSpan::finish);
        if let Some(times) = span_times {
            self.server.tracer().record(
                id,
                conn.raw_len,
                self.server.events().now().as_secs_f64(),
                &times,
            );
        }
        self.server.events().emit(Event::MessageServed {
            conn: id,
            raw_bytes: conn.raw_len,
            reply_wire_bytes: reply.wire,
            times: span_times.unwrap_or_default(),
        });
        if let Some(times) = span_times.filter(|t| t.total_us > self.slow_us) {
            self.server.events().emit(Event::SlowRequest {
                conn: id,
                raw_bytes: conn.raw_len,
                times,
            });
        }
        if self.server.events().is_active() {
            if let Some(&adoc::LevelEvent { level, reason, .. }) = conn.stats.level_timeline.last()
            {
                if let Some(from) = conn.last_level.filter(|&prev| prev != level) {
                    self.server.events().emit(Event::LevelChange {
                        conn: id,
                        from,
                        to: level,
                        reason,
                    });
                }
                conn.last_level = Some(level);
            }
            self.server.note_pool_evictions();
        }
        // Returning the message buffer at every boundary caps idle
        // memory at socket buffers and makes the bytes visible to the
        // pool's idle gauges.
        conn.msg = None;
        conn.filled = 0;
        conn.raw_len = 0;
        ReplyFlow::Wait(State::ReadHeader { got: 0 }, Interest::READ)
    }

    /// Test hook: queue a job that panics, attributed to the
    /// connection currently owning `token` — exercises the typed
    /// worker-failure path end to end.
    #[cfg(test)]
    fn inject_panic_job(&self, token: u64) {
        self.pool.submit(Job {
            conn: token,
            work: Box::new(|_codec| panic!("injected worker panic")),
        });
    }

    /// Test hook: tokens of currently-owned connections.
    #[cfg(test)]
    fn tokens(&self) -> Vec<u64> {
        self.conns.keys().copied().collect()
    }
}

enum ReplyFlow {
    /// Park or block with this state and poller interest (also how a
    /// finished message returns to the read-header boundary).
    Wait(State, Interest),
    Close(CloseKind),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ServeMode, ServerConfig};
    use adoc::AdocSocket;
    use std::net::TcpListener;
    use std::sync::atomic::AtomicBool;

    fn reactor_with(cfg: ServerConfig) -> (Reactor, Arc<Server>, TcpListener, SocketAddr) {
        let server = Server::new(cfg).expect("config");
        let reactor =
            Reactor::new(Arc::clone(&server), Arc::new(PendingGroups::default())).expect("reactor");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        (reactor, server, listener, addr)
    }

    /// Accepts one socket and injects it into the reactor.
    fn accept_into(reactor: &Reactor, listener: &TcpListener) {
        let (stream, peer) = listener.accept().expect("accept");
        reactor.handle().register(stream, peer);
    }

    fn run_until(
        reactor: &mut Reactor,
        deadline: Duration,
        mut done: impl FnMut(&mut Reactor) -> bool,
    ) {
        let end = Instant::now() + deadline;
        while !done(reactor) {
            assert!(Instant::now() < end, "reactor did not reach the condition");
            reactor.run_once(Some(Duration::from_millis(10)));
        }
    }

    #[test]
    fn echoes_direct_and_adaptive_messages_byte_exactly() {
        let (mut reactor, server, listener, addr) =
            reactor_with(ServerConfig::builder().build().expect("config"));
        let small = b"tiny direct message".to_vec();
        let big = adoc_data::generate(adoc_data::DataKind::Ascii, 1 << 20, 7);
        let client = {
            let (small, big) = (small.clone(), big.clone());
            std::thread::spawn(move || {
                let sock = TcpStream::connect(addr).expect("connect");
                let r = sock.try_clone().expect("clone");
                let mut conn = AdocSocket::new(r, sock);
                for payload in [&small, &big] {
                    conn.write_all(payload).expect("send");
                    let mut back = vec![0u8; payload.len()];
                    conn.read_exact(&mut back).expect("echo");
                    assert_eq!(&back, payload, "echo must be byte-exact");
                }
            })
        };
        accept_into(&reactor, &listener);
        run_until(&mut reactor, Duration::from_secs(30), |_| {
            client.is_finished()
        });
        client.join().expect("client");
        // Client closed: the reactor observes EOF at the boundary.
        run_until(&mut reactor, Duration::from_secs(10), |r| r.live() == 0);
        let totals = server.registry().totals();
        assert_eq!(totals.accepted, 1);
        assert_eq!(totals.completed, 1);
        assert_eq!(totals.failed, 0);
        assert_eq!(server.pool().stats().outstanding, 0, "no leaked buffers");
    }

    #[test]
    fn sink_mode_acknowledges_with_length_and_hash() {
        let (mut reactor, server, listener, addr) = reactor_with(
            ServerConfig::builder()
                .mode(ServeMode::Sink)
                .build()
                .expect("config"),
        );
        let payload = adoc_data::generate(adoc_data::DataKind::Binary, 200_000, 3);
        let expect_hash = fnv1a64(&payload);
        let client = {
            let payload = payload.clone();
            std::thread::spawn(move || {
                let sock = TcpStream::connect(addr).expect("connect");
                let r = sock.try_clone().expect("clone");
                let mut conn = AdocSocket::new(r, sock);
                conn.write_all(&payload).expect("send");
                let mut ack = [0u8; 16];
                conn.read_exact(&mut ack).expect("ack");
                ack
            })
        };
        accept_into(&reactor, &listener);
        run_until(&mut reactor, Duration::from_secs(30), |_| {
            client.is_finished()
        });
        let ack = client.join().expect("client");
        assert_eq!(
            u64::from_le_bytes(ack[..8].try_into().unwrap()),
            payload.len() as u64
        );
        assert_eq!(
            u64::from_le_bytes(ack[8..].try_into().unwrap()),
            expect_hash
        );
        run_until(&mut reactor, Duration::from_secs(10), |r| r.live() == 0);
        assert_eq!(server.registry().totals().completed, 1);
    }

    #[test]
    fn a_throttled_connection_parks_without_spinning() {
        let (mut reactor, server, listener, addr) = reactor_with(
            ServerConfig::builder()
                // 1 MB/s aggregate: a 1 MiB direct echo (≈ 2 MiB of
                // admissions) must park repeatedly.
                .budget(Some(1_000_000.0))
                .build()
                .expect("config"),
        );
        let payload = adoc_data::generate(adoc_data::DataKind::Ascii, 1 << 20, 11);
        let client = {
            let payload = payload.clone();
            std::thread::spawn(move || {
                let sock = TcpStream::connect(addr).expect("connect");
                let r = sock.try_clone().expect("clone");
                // Probe threshold above the payload keeps the client's
                // own send direct, so inbound pacing is chunk-by-chunk.
                let cfg = AdocConfig {
                    probe_threshold: 8 << 20,
                    ..AdocConfig::default()
                };
                let mut conn = AdocSocket::with_config(r, sock, cfg).expect("client cfg");
                conn.write_all(&payload).expect("send");
                let mut back = vec![0u8; payload.len()];
                conn.read_exact(&mut back).expect("echo");
                assert_eq!(back, payload);
            })
        };
        accept_into(&reactor, &listener);
        let mut observed_parked = false;
        let mut checked_quiet = false;
        let end = Instant::now() + Duration::from_secs(60);
        while !client.is_finished() {
            assert!(Instant::now() < end, "throttled echo never finished");
            reactor.run_once(Some(Duration::from_millis(20)));
            if server.scheduler().parked() == 1 && !checked_quiet {
                observed_parked = true;
                checked_quiet = true;
                // The socket has pending bytes, but a parked connection
                // holds Interest::NONE: polling must report *nothing*
                // (no busy-wake spin) until the retry timer or the
                // scheduler waker fires.
                let quiet = reactor.run_once(Some(Duration::ZERO));
                assert_eq!(quiet, 0, "a parked connection must not spin on readiness");
            }
        }
        client.join().expect("client");
        assert!(
            observed_parked,
            "the budget must have parked the connection"
        );
        run_until(&mut reactor, Duration::from_secs(10), |r| r.live() == 0);
        assert_eq!(
            server.scheduler().parked(),
            0,
            "parked gauge drains to zero"
        );
        assert_eq!(server.registry().totals().completed, 1);
    }

    #[test]
    fn a_worker_panic_closes_the_connection_with_a_typed_error() {
        let (mut reactor, server, listener, addr) =
            reactor_with(ServerConfig::builder().build().expect("config"));
        let sock = TcpStream::connect(addr).expect("connect");
        let mut probe = sock.try_clone().expect("clone");
        // Register and reach the serving state: two header bytes sniff
        // the connection into the registry.
        probe.write_all(&[MAGIC, 0]).expect("sniff bytes");
        accept_into(&reactor, &listener);
        run_until(&mut reactor, Duration::from_secs(10), |r| {
            r.tokens().len() == 1 && r.conns.values().all(|c| c.id.is_some())
        });
        let token = reactor.tokens()[0];

        // Silence the expected panic's default hook output.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        reactor.inject_panic_job(token);
        run_until(&mut reactor, Duration::from_secs(10), |r| r.live() == 0);
        std::panic::set_hook(hook);

        let totals = server.registry().totals();
        assert_eq!(totals.failed, 1, "the panic must fail exactly that conn");
        // The peer observes the close instead of hanging forever.
        let mut buf = [0u8; 1];
        probe
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let n = probe.read(&mut buf).unwrap_or(0);
        assert_eq!(n, 0, "the socket must be closed, not wedged");
    }

    #[test]
    fn wake_consume_order_never_strands_the_pending_flag() {
        // Mirrors run_once's consume cycle: drain the pipe, THEN clear.
        // A wake racing in between is coalesced into the current cycle
        // (pending is still true, so it writes nothing), and the first
        // wake after the clear must land a fresh byte — pending can
        // never end up true over an empty pipe, which would leave the
        // waker permanently dead.
        let (mut rx, tx) = io::pipe().expect("pipe");
        let waker = Waker {
            tx: Mutex::new(tx),
            pending: AtomicBool::new(false),
        };
        waker.wake();
        let mut buf = [0u8; 64];
        assert_eq!(rx.read(&mut buf).expect("drain"), 1);
        waker.wake(); // races the consume cycle: coalesced, no byte
        waker.clear();
        waker.wake(); // first wake after the clear re-arms the pipe
        let poller = Poller::new().expect("poller");
        poller
            .register(rx.as_raw_fd(), 1, Interest::READ)
            .expect("register");
        let mut events = Vec::new();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .expect("wait");
        assert_eq!(
            n, 1,
            "a wake after clear() must write a byte or the reactor sleeps forever"
        );
    }

    #[test]
    fn a_zero_length_adaptive_message_is_a_clean_close() {
        let (mut reactor, server, listener, addr) =
            reactor_with(ServerConfig::builder().build().expect("config"));
        let mut sock = TcpStream::connect(addr).expect("connect");
        sock.write_all(&wire::encode_msg_header(MsgKind::Adaptive, 0))
            .expect("header");
        accept_into(&reactor, &listener);
        run_until(&mut reactor, Duration::from_secs(10), |r| r.live() == 0);
        let totals = server.registry().totals();
        assert_eq!(
            totals.completed, 1,
            "a zero-length message of either kind is a client-initiated close"
        );
        assert_eq!(totals.failed, 0);
        // The server closed the socket instead of waiting for frames
        // that will never come.
        sock.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let mut buf = [0u8; 1];
        assert_eq!(sock.read(&mut buf).unwrap_or(0), 0, "socket must close");
    }

    /// Forces an RST on close (`SO_LINGER` with a zero timeout) so the
    /// peer observes ERR/HUP instead of an orderly FIN.
    fn rst_close(sock: TcpStream) {
        use std::os::raw::c_int;
        #[repr(C)]
        struct Linger {
            l_onoff: c_int,
            l_linger: c_int,
        }
        extern "C" {
            fn setsockopt(
                fd: c_int,
                level: c_int,
                name: c_int,
                value: *const Linger,
                len: u32,
            ) -> c_int;
        }
        #[cfg(target_os = "linux")]
        const SOL_SOCKET: c_int = 1;
        #[cfg(target_os = "linux")]
        const SO_LINGER: c_int = 13;
        #[cfg(not(target_os = "linux"))]
        const SOL_SOCKET: c_int = 0xffff;
        #[cfg(not(target_os = "linux"))]
        const SO_LINGER: c_int = 0x0080;
        let linger = Linger {
            l_onoff: 1,
            l_linger: 0,
        };
        let rc = unsafe {
            setsockopt(
                sock.as_raw_fd(),
                SOL_SOCKET,
                SO_LINGER,
                &linger,
                std::mem::size_of::<Linger>() as u32,
            )
        };
        assert_eq!(rc, 0, "setsockopt(SO_LINGER)");
        drop(sock); // close() now sends RST
    }

    #[test]
    fn a_dead_peer_closes_a_parked_connection_instead_of_spinning() {
        // A parked connection holds Interest::NONE, but ERR/HUP is
        // reported regardless of the mask. A peer reset must close it
        // on the first poll that sees the hangup — re-dispatching the
        // state machine would re-refuse admission (10 B/s below never
        // admits a quantum within the test horizon) and re-park on
        // every level-triggered HUP: a 100% CPU loop that also grows
        // the timer heap without bound.
        let (mut reactor, server, listener, addr) = reactor_with(
            ServerConfig::builder()
                .budget(Some(10.0))
                .build()
                .expect("config"),
        );
        let sock = TcpStream::connect(addr).expect("connect");
        let writer = {
            let s = sock.try_clone().expect("clone");
            std::thread::spawn(move || {
                (&s).write_all(&wire::encode_msg_header(MsgKind::Direct, 1 << 20))
                    .expect("header");
                // The debt-based bucket admits the first buffer_size
                // quantum on burst credit; one byte past it forces a
                // second admission, which is refused — the park.
                (&s).write_all(&vec![0x5au8; 200 * 1024 + 1]).expect("body");
            })
        };
        accept_into(&reactor, &listener);
        run_until(&mut reactor, Duration::from_secs(10), |_| {
            server.scheduler().parked() == 1
        });
        writer.join().expect("writer");
        rst_close(sock);
        run_until(&mut reactor, Duration::from_secs(5), |r| r.live() == 0);
        let totals = server.registry().totals();
        assert_eq!(totals.failed, 1, "the reset conn is counted Failed");
        assert_eq!(
            server.scheduler().parked(),
            0,
            "the parked gauge drains with the close"
        );
    }

    #[test]
    fn drain_closes_idle_connections_at_the_boundary() {
        let (mut reactor, server, listener, addr) =
            reactor_with(ServerConfig::builder().build().expect("config"));
        let done = Arc::new(AtomicBool::new(false));
        let client = {
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let sock = TcpStream::connect(addr).expect("connect");
                let r = sock.try_clone().expect("clone");
                let mut conn = AdocSocket::new(r, sock);
                conn.write_all(b"one message then idle").expect("send");
                let mut back = vec![0u8; b"one message then idle".len()];
                conn.read_exact(&mut back).expect("echo");
                // Hold the connection open at the boundary until the
                // server drains us away.
                while !done.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(5));
                }
            })
        };
        accept_into(&reactor, &listener);
        run_until(&mut reactor, Duration::from_secs(30), |_| {
            server.registry().totals().messages >= 1
        });
        server.begin_drain();
        run_until(&mut reactor, Duration::from_secs(10), |r| r.live() == 0);
        done.store(true, Ordering::Relaxed);
        client.join().expect("client");
        let totals = server.registry().totals();
        assert_eq!(totals.completed, 1, "an idle boundary conn drains cleanly");
        assert_eq!(totals.failed, 0);
    }
}
