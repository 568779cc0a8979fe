//! The readiness-driven I/O front end: one reactor thread owns the
//! listener and every v1 connection it accepts, multiplexing all of
//! their sockets through a [`Poller`] instead of parking one OS thread
//! per connection in blocking reads.
//!
//! ## Shape
//!
//! The listener sits in the poll set under its own token: a dial wakes
//! the reactor, which accepts it and sniffs the two protocol bytes
//! (under the hello timeout, a reactor timer):
//!
//! * a v1 message header → the connection is registered and served to
//!   completion as a resumable state machine ([`Stage`]) without ever
//!   blocking the reactor;
//! * a session hello (`0xAD 'G'`) → the socket is flipped back to
//!   blocking and handed to a dedicated thread running the stream-group
//!   path (groups are rare, bounded by admission, and their striped
//!   frame scheduling is inherently thread-shaped);
//! * anything else → a handshake failure.
//!
//! The state machine is a driver, not a protocol implementation: bytes
//! arrive into what [`adoc::wire::FrameDecoder`] wants next and leave
//! through one drain ([`drain`]) over the reply's short queue of byte
//! spans ([`Span`]), both through one resumable pump, the one place I/O
//! meets the scheduler ([`Cursor::pump`]); the one piece of policy —
//! the level of the next reply frame — is [`next_reply_level`]. A
//! message's header decides its reply ([`Reply::new`]). A direct echo's
//! head and landed bytes leave whenever the socket has nothing more to
//! read ([`Reactor::relay`]); the connection never stops reading because
//! its writes block, so a client that is not reading gets
//! store-and-forward in the same one message buffer. Adaptive replies
//! and sink acknowledgements start once the message is in. A reply's
//! head is an [`adoc::wire::MsgHead`] and every reply frame is sealed by
//! [`adoc::wire::Framing::seal`] into a pooled buffer, as the blocking
//! sender's are. Codec work never runs here: frames above level 0 are
//! sealed on the bounded [`WorkerPool`] (one job in flight per
//! connection), so a core count's worth of workers bounds compression
//! CPU however many sockets are registered — the paper's "compression
//! may use spare cycles, never extra capacity".
//!
//! ## Backpressure and fairness
//!
//! All wire throttling goes through the scheduler's non-blocking
//! [`adoc::Throttle::try_acquire_wire`] — a run whole while no budget is
//! set, else a quantum at a time — and a refused admission *parks*
//! the connection — its poller interest drops to [`Interest::NONE`]
//! (level-triggered polling would otherwise spin on the readable
//! socket it must not drain yet) and a reactor timer re-tries at the
//! scheduler's hinted deadline; the scheduler's parked-waker fires the
//! wake pipe earlier when progress becomes likely. Admission control is
//! the same move applied to the listener: at `max_conns` its interest
//! drops to `NONE` — excess dials queue in the kernel backlog — and the
//! close that frees a slot restores it.
//!
//! ## Drain
//!
//! A draining server closes connections sitting at a message boundary
//! immediately, lets mid-message connections finish, serves no
//! connection sniffed after the drain began, and cuts whatever is left
//! as `Failed` once the drain deadline passes; shutdown closes the
//! listener before anything else. An idle fleet of thousands of
//! connections therefore drains in one sweep.

use crate::conn::{fnv1a64, sink_ack, DrainState, ServeMode};
use crate::daemon::{handle_group_stream, PendingGroups};
use crate::event::Event;
use crate::poll::{Interest, PollEvent, Poller, Waker};
use crate::registry::{ConnId, ConnOutcome};
use crate::trace::{MsgSpan, StageKind};
use crate::workers::{default_worker_threads, Job, JobTiming, WorkerPool};
use crate::{ServedMessage, Server};
use adoc::wire::{
    self, Chunk, Event as Parsed, FrameDecoder, Framing, MsgHead, MsgKind, Want,
    FRAME_HEADER_V2_LEN, GROUP_MAGIC, MAGIC,
};
use adoc::{AdocConfig, PooledBuf};
use parking_lot::Mutex;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::io::{self, PipeReader, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Poller token reserved for the reactor's wake pipe.
const WAKE_TOKEN: u64 = u64::MAX;

/// Poller token reserved for the listener.
const LISTEN_TOKEN: u64 = u64::MAX - 1;

/// Timer-heap token of the housekeeping pass (never a poller token).
const HOUSEKEEPING_TOKEN: u64 = u64::MAX - 2;

/// Cadence of the housekeeping timer — also the window within which
/// state the reactor cannot be woken for (a drain started over HTTP) is
/// noticed.
const HOUSEKEEPING: Duration = Duration::from_millis(100);

/// Poll cap while draining or stopping, when deadlines matter.
const DRAIN_POLL: Duration = Duration::from_millis(10);

/// State shared between the reactor thread and its handle.
struct Shared {
    /// Finished worker jobs waiting for the reactor to resume their
    /// connections.
    completions: Mutex<Vec<Completion>>,
    /// Connections currently owned by the reactor plus running group
    /// threads — the admission-control count, and what shutdown waits
    /// to see reach zero.
    live: AtomicUsize,
    stop: AtomicBool,
    /// Scheduler refills, worker completions and exiting group threads
    /// wake the reactor through this.
    waker: Waker,
}

/// What a worker job hands back: the message it took with it, a frame
/// further. `Err` is a codec failure or a worker panic.
type JobResult = Result<Done, String>;

enum Done {
    /// The inbound message, one more frame inflated into it.
    Inflated(Msg),
    /// The message, its reply's next frame and that frame's level (0 =
    /// stored).
    Deflated(Msg, PooledBuf, u8),
}

/// Gives a group thread's admission slot back when it ends — by return
/// or by panic — and tells the reactor.
struct Slot(Arc<Shared>);

impl Drop for Slot {
    fn drop(&mut self) {
        self.0.live.fetch_sub(1, Ordering::Relaxed);
        self.0.waker.wake();
    }
}

/// `(token, result, the job's queue wait and codec time)`.
type Completion = (u64, JobResult, JobTiming);

/// The handle the daemon owns on a spawned reactor: shutdown.
pub struct ReactorHandle {
    shared: Arc<Shared>,
    thread: JoinHandle<()>,
}

impl ReactorHandle {
    /// Closes the listener, stops the reactor once every connection
    /// has closed (the caller starts the server drain first; the drain
    /// deadline bounds the wait) and joins its thread.
    pub fn shutdown(self) -> io::Result<()> {
        self.shared.stop.store(true, Ordering::Relaxed);
        self.shared.waker.wake();
        self.thread
            .join()
            .map_err(|_| io::Error::other("reactor thread panicked"))
    }
}

/// The socket side of a connection.
struct Io {
    stream: TcpStream,
    peer: SocketAddr,
    token: u64,
    /// Interest currently installed in the poller.
    interest: Interest,
    /// Generation of this connection's live timer; stale heap entries
    /// are skipped on pop.
    timer_gen: u64,
}

/// One reactor-owned connection.
struct Conn {
    io: Io,
    state: State,
}

enum State {
    /// Pre-registry: reading the two protocol-sniff bytes — the start
    /// of a message header, if this is a v1 connection.
    Sniff(Msg),
    /// A registered v1 connection and where its current message stands.
    Serving(Box<Session>, Stage),
}

impl State {
    /// Registry id once the sniff has proved this is a v1 connection.
    fn id(&self) -> Option<ConnId> {
        match self {
            State::Sniff(_) => None,
            State::Serving(sess, _) => Some(sess.id),
        }
    }
}

/// What registration gives a v1 connection, for its whole life.
struct Session {
    id: ConnId,
    /// Per-connection config (scheduler throttle chained).
    cfg: AdocConfig,
    /// Reply-side statistics, mirrored into the registry per message.
    stats: adoc::TransferStats,
    last_level: Option<u8>,
    /// Level of the next reply frame; see [`next_reply_level`].
    level: u8,
    /// Stage span of the in-flight message (first header byte to last
    /// reply byte, on traced servers).
    span: Option<MsgSpan>,
}

/// Resumable protocol position of the message in flight. Every buffer
/// a stage needs travels inside it.
enum Stage {
    /// Feeding the message's decoder from the socket.
    Read(Msg),
    /// A codec job is in flight with the message; its [`Done`] resumes us.
    Job,
    /// Writing the reply.
    Reply(Msg),
}

/// Progress through one run of bytes moving under wire admission.
#[derive(Default)]
struct Cursor {
    /// Bytes moved so far.
    pos: usize,
    /// Bytes wire admission has covered and the socket not yet moved.
    credit: usize,
}

impl Cursor {
    /// The one resumable read or write, and the one place I/O meets the
    /// scheduler: moves a `len`-byte run's bytes up to `end` through
    /// `io`, one nonblocking call on a range of them at a time, until they
    /// have all moved, the socket pushes back, or `admit` refuses to cover
    /// the rest of the run, `quantum` at a time (0: unmetered) — `None`,
    /// and the connection parks. Never moves past what admission covered.
    fn pump(
        &mut self,
        (end, len, quantum): (usize, usize, usize),
        mut admit: impl FnMut(usize, usize) -> Option<usize>,
        mut io: impl FnMut(std::ops::Range<usize>) -> io::Result<usize>,
    ) -> Moved {
        while self.pos < end {
            if quantum > 0 && self.credit == 0 {
                match admit(len - self.pos, quantum) {
                    Some(covered) => self.credit = covered,
                    None => return Moved::Parked,
                }
            }
            let to = if quantum > 0 {
                self.pos + self.credit
            } else {
                end
            };
            match moved(io(self.pos..to.min(end))) {
                Ok(n) => {
                    self.pos += n;
                    self.credit = self.credit.saturating_sub(n);
                }
                Err(ended) => return ended,
            }
        }
        Moved::Done
    }
}

/// One resumable message: the decoder's place in it, the bytes
/// assembled so far, the progress of the run being filled, and the
/// reply its header decided ([`Reply::new`]).
struct Msg {
    dec: FrameDecoder,
    /// The message, zero-filled only as far as its bytes have landed.
    buf: PooledBuf,
    /// Bytes of `buf` assembled.
    filled: usize,
    /// A compressed frame's payload while it lands.
    payload: PooledBuf,
    cur: Cursor,
    /// Where header bytes land.
    scratch: [u8; FRAME_HEADER_V2_LEN],
    reply: Reply,
}

impl Msg {
    fn new(cfg: &AdocConfig) -> Msg {
        Msg {
            dec: FrameDecoder::message(cfg, 1),
            buf: PooledBuf::detached(Vec::new()),
            filled: 0,
            payload: PooledBuf::detached(Vec::new()),
            cur: Cursor::default(),
            scratch: [0u8; FRAME_HEADER_V2_LEN],
            reply: Reply::default(),
        }
    }

    /// No byte of the next message has arrived.
    fn at_boundary(&self) -> bool {
        self.dec.at_message_start() && self.cur.pos == 0
    }
}

/// How a [`Cursor::pump`] or a [`drain`] ended.
enum Moved {
    /// Every byte there is so far has moved: the target is full, or the
    /// reply's queue is on the wire.
    Done,
    /// A reply frame just completed; `true` = its write saw backpressure.
    Frame(bool),
    /// The socket has no more bytes, or no more room, for now.
    Block,
    /// Wire admission was refused.
    Parked,
    /// A read found the peer gone, or a write moved nothing.
    Eof,
    Fail,
}

/// One nonblocking read's or write's outcome.
fn moved(res: io::Result<usize>) -> Result<usize, Moved> {
    match res {
        Ok(0) => Err(Moved::Eof),
        Ok(n) => Ok(n),
        Err(e) if e.kind() == io::ErrorKind::WouldBlock => Err(Moved::Block),
        Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(0),
        Err(_) => Err(Moved::Fail),
    }
}

/// One contiguous run of reply bytes.
enum Span {
    /// The message head, never metered.
    Head(MsgHead),
    /// A sink-mode acknowledgement, admitted whole.
    Ack([u8; 16]),
    /// A sealed frame (header included), admitted whole.
    Frame(PooledBuf),
    /// The message itself (a direct echo), in `buffer_size` quanta.
    Body,
}

/// Progress of one reply: a short queue of byte spans still to put on
/// the wire.
#[derive(Default)]
struct Reply {
    /// Spans not yet fully written, front first: a head plus the one
    /// body span known up front, or one adaptive frame at a time.
    out: [Option<Span>; 2],
    /// Progress through the front span.
    cur: Cursor,
    /// The front span's write saw backpressure.
    blocked: bool,
    /// Offset into `msg` of the next chunk to encode as a frame
    /// (`msg.len()` = nothing to encode).
    next_chunk: usize,
    /// Bytes put on the wire so far.
    wire: u64,
    /// Raw length the head announces (echo: the message's; sink: 16).
    raw: u64,
}

impl Reply {
    /// The reply to a message of `len` bytes, decided once from its
    /// header: its head, then a sink's acknowledgement (its hash filled
    /// in once the message is in) or a direct echo of the message. An
    /// adaptive reply's frames are queued as they are encoded, after a
    /// zero-length probe (the level rule, not a probe, picks the level).
    fn new(mode: ServeMode, cfg: &AdocConfig, len: u64) -> Reply {
        let (kind, body, raw) = match mode {
            ServeMode::Sink => (MsgKind::Direct, Some(Span::Ack([0; 16])), 16),
            ServeMode::Echo if cfg.compression_disabled() || len < cfg.probe_threshold as u64 => {
                (MsgKind::Direct, Some(Span::Body), len)
            }
            ServeMode::Echo => (MsgKind::Adaptive, None, len),
        };
        Reply {
            next_chunk: if body.is_none() { 0 } else { len as usize },
            out: [Some(Span::Head(MsgHead::new(kind, raw, 0))), body],
            cur: Cursor::default(),
            blocked: false,
            wire: 0,
            raw,
        }
    }
}

/// The one reply drain: writes the queued spans front to back until
/// the queue is empty, the socket pushes back, or `admit` refuses the
/// next quantum of a metered span. The body — the message's bytes that
/// have `landed` — goes out in `quantum`s. Never writes past what was
/// admitted.
fn drain(
    stream: &mut TcpStream,
    reply: &mut Reply,
    landed: &[u8],
    quantum: usize,
    mut admit: impl FnMut(usize, usize) -> Option<usize>,
) -> Moved {
    loop {
        let (bytes, len, quantum): (&[u8], usize, usize) = match &reply.out[0] {
            None => return Moved::Done,
            Some(Span::Head(head)) => (&head[..], head.len(), 0),
            Some(Span::Ack(ack)) => (&ack[..], ack.len(), ack.len()),
            Some(Span::Frame(frame)) => (&frame[..], frame.len(), frame.len()),
            Some(Span::Body) => (landed, reply.raw as usize, quantum),
        };
        let run = (bytes.len(), len, quantum);
        match reply.cur.pump(run, &mut admit, |r| stream.write(&bytes[r])) {
            // The rest of the body has not landed.
            Moved::Done if reply.cur.pos < len => return Moved::Done,
            Moved::Done => reply.wire += len as u64,
            ended => {
                reply.blocked |= matches!(ended, Moved::Block);
                return ended;
            }
        }
        let done = reply.out[0].take();
        reply.out.swap(0, 1);
        reply.cur = Cursor::default();
        let blocked = std::mem::take(&mut reply.blocked);
        if let Some(Span::Frame(_)) = done {
            return Moved::Frame(blocked);
        }
    }
}

/// The reply-level rule, the reactor's one piece of adaptation policy:
/// a frame whose write saw backpressure raises the level (spend cycles
/// to shrink the wire), a clean write decays it toward `min_level` —
/// the paper's signal, read from readiness instead of a blocked
/// `write`. (Not yet the Fig. 2 controller or its guards: swapping in
/// `LevelController` replaces this function.)
fn next_reply_level(blocked: bool, level: u8, cfg: &AdocConfig) -> u8 {
    if blocked {
        (level + 1).min(cfg.max_level)
    } else if level > cfg.min_level {
        level - 1
    } else {
        level
    }
}

/// What one turn of a connection's state machine produced.
enum Step {
    /// Keep going from this stage.
    Next(Stage),
    /// Wait in this stage for this readiness — with `NONE`, for a
    /// timer, the scheduler's waker or a worker completion.
    Wait(Stage, Interest),
    /// The connection is over.
    Close(ConnOutcome),
}

/// The reactor itself. [`Reactor::spawn`] runs it on a named thread
/// behind a [`ReactorHandle`]; tests step [`Reactor::run_once`].
pub struct Reactor {
    server: Arc<Server>,
    pending: Arc<PendingGroups>,
    poller: Poller,
    wake_rx: PipeReader,
    shared: Arc<Shared>,
    pool: WorkerPool<JobResult>,
    /// In the poll set under [`LISTEN_TOKEN`] until shutdown.
    listener: Option<TcpListener>,
    /// The listener's interest is `READ`, not `NONE` (at `max_conns`,
    /// or `accept` is failing).
    listening: bool,
    conns: HashMap<u64, Conn>,
    /// `(deadline, token, timer_gen)` min-heap; entries whose gen no
    /// longer matches the connection are skipped (lazy deletion).
    timers: BinaryHeap<Reverse<(Instant, u64, u64)>>,
    /// Tokens parked on a throttle refusal — all retried when the
    /// scheduler's waker fires.
    throttled: HashSet<u64>,
    events: Vec<PollEvent>,
    drain: Arc<DrainState>,
    next_token: u64,
    /// Stage spans are kept only on instrumented servers.
    traced: bool,
}

impl Reactor {
    /// A reactor for `server` accepting on (nonblocking) `listener`.
    pub fn new(
        server: Arc<Server>,
        pending: Arc<PendingGroups>,
        listener: TcpListener,
    ) -> io::Result<Reactor> {
        let poller = Poller::new()?;
        let (waker, wake_rx) = Waker::new(&poller, WAKE_TOKEN)?;
        poller.register(listener.as_raw_fd(), LISTEN_TOKEN, Interest::READ)?;
        let shared = Arc::new(Shared {
            completions: Mutex::new(Vec::new()),
            live: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            waker,
        });
        // Parked connections are re-tried as soon as refill credit or a
        // budget change lands, not only at their hinted retry deadline.
        let sched_shared = Arc::clone(&shared);
        server
            .scheduler()
            .set_parked_waker(Arc::new(move || sched_shared.waker.wake()));
        let completion_shared = Arc::clone(&shared);
        let pool = WorkerPool::new(
            default_worker_threads(),
            Arc::clone(server.worker_gauges()),
            server.events_shared(),
            move |conn, result, timing| {
                // A panic and a job's own error share one channel: both
                // close the connection the same way.
                let flat = result.and_then(std::convert::identity);
                completion_shared
                    .completions
                    .lock()
                    .push((conn, flat, timing));
                completion_shared.waker.wake();
            },
        );
        let first_pass = Reverse((Instant::now() + HOUSEKEEPING, HOUSEKEEPING_TOKEN, 0));
        Ok(Reactor {
            traced: server.config().instrument,
            drain: server.drain_state(),
            server,
            pending,
            poller,
            wake_rx,
            shared,
            pool,
            listener: Some(listener),
            listening: true,
            conns: HashMap::new(),
            timers: BinaryHeap::from([first_pass]),
            throttled: HashSet::new(),
            events: Vec::new(),
            next_token: 1,
        })
    }

    /// Spawns the reactor loop on a dedicated thread.
    pub fn spawn(
        server: Arc<Server>,
        pending: Arc<PendingGroups>,
        listener: TcpListener,
    ) -> io::Result<ReactorHandle> {
        let mut reactor = Reactor::new(server, pending, listener)?;
        let shared = Arc::clone(&reactor.shared);
        let thread = std::thread::Builder::new()
            .name("adoc-reactor".into())
            .spawn(move || reactor.run())?;
        Ok(ReactorHandle { shared, thread })
    }

    /// Connections currently owned (including group threads).
    pub fn live(&self) -> usize {
        self.shared.live.load(Ordering::Relaxed)
    }

    fn stopping(&self) -> bool {
        self.shared.stop.load(Ordering::Relaxed)
    }

    /// Runs until stopped and empty.
    pub fn run(&mut self) {
        while !(self.stopping() && self.live() == 0) {
            self.run_once(self.poll_timeout());
        }
    }

    /// Time to the next timer (the housekeeping pass is always armed).
    fn poll_timeout(&self) -> Option<Duration> {
        let Reverse((deadline, ..)) = self.timers.peek()?;
        let next = deadline.saturating_duration_since(Instant::now());
        let winding_down = self.drain.is_draining() || self.stopping();
        let cap = if winding_down { DRAIN_POLL } else { next };
        Some(next.min(cap))
    }

    /// One poll-dispatch cycle; returns the units of work dispatched
    /// (accepted sockets, readiness events, completions, connection
    /// timers). A parked or idle fleet's ticks return 0 and emit nothing.
    pub fn run_once(&mut self, timeout: Option<Duration>) -> usize {
        let mut events = std::mem::take(&mut self.events);
        let mut work = 0usize;
        let mut woken = false;
        if self.poller.wait(&mut events, timeout).is_ok() {
            if events.iter().any(|ev| ev.token == WAKE_TOKEN) {
                woken = true;
                // Consumed before dispatch, so a completion queued
                // during it still wakes the next poll.
                self.shared.waker.consume(&mut self.wake_rx);
            }
            for ev in &events {
                match ev.token {
                    WAKE_TOKEN => {}
                    LISTEN_TOKEN => work += self.accept_ready(),
                    token if ev.readable || ev.writable || !ev.error => {
                        work += 1;
                        self.dispatch(token);
                    }
                    token => {
                        // Bare ERR/HUP, which arrives whatever the
                        // interest mask. Dispatching a parked
                        // (Interest::NONE) connection on it would
                        // re-refuse admission against a dead peer every
                        // poll — a 100% CPU loop growing the timer
                        // heap. Close directly.
                        work += 1;
                        if let Some(Conn { io, state }) = self.conns.remove(&token) {
                            self.close(io, state.id().map(|id| (id, ConnOutcome::Failed)));
                        }
                    }
                }
            }
        }
        self.events = events;
        let done: Vec<Completion> = std::mem::take(&mut *self.shared.completions.lock());
        work += done.len();
        for (token, result, timing) in done {
            self.complete(token, result, timing);
        }
        work += self.fire_timers();
        if woken {
            // The scheduler's waker cannot name a connection; retry the
            // whole parked set (admission checks are cheap).
            let parked: Vec<u64> = self.throttled.iter().copied().collect();
            for token in parked {
                self.dispatch(token);
            }
            // Or a group thread gave its slot back.
            self.resume_listener();
        }
        self.sweep_drain();
        if work > 0 && self.server.events().is_active() {
            self.server.events().emit(Event::ReactorTick {
                ready: work,
                parked: self.server.scheduler().parked(),
            });
        }
        work
    }

    /// Admission control counts every socket the reactor owns, not
    /// just registered connections (a dial burst would otherwise sit
    /// unbounded in sniff states), plus parked group streams, which
    /// have no reactor entry.
    fn has_room(&self) -> bool {
        self.live() + self.pending.parked() < self.server.config().max_conns
    }

    /// `READ`, or `NONE` to leave dials in the kernel backlog.
    fn listen(&mut self, on: bool) {
        let interest = if on { Interest::READ } else { Interest::NONE };
        if let Some(listener) = &self.listener {
            if self
                .poller
                .modify(listener.as_raw_fd(), LISTEN_TOKEN, interest)
                .is_ok()
            {
                self.listening = on;
            }
        }
    }

    /// Re-arms a paused listener if there is room. Called where room
    /// appears: a close, a group thread's wake, housekeeping.
    fn resume_listener(&mut self) {
        if !self.listening && self.has_room() {
            self.listen(true);
        }
    }

    /// Accepts until the backlog is empty or the daemon is full.
    fn accept_ready(&mut self) -> usize {
        let mut accepted = 0usize;
        while self.has_room() {
            let Some(listener) = &self.listener else {
                return accepted;
            };
            match listener.accept() {
                Ok((stream, peer)) => {
                    accepted += 1;
                    self.admit(stream, peer);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return accepted,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    eprintln!("adoc-server: accept failed: {e}");
                    break;
                }
            }
        }
        // Full — or out of descriptors, most likely, and polling on
        // would spin on a dial we cannot take. Either way: pause until
        // a close or the next housekeeping pass finds room.
        self.listen(false);
        accepted
    }

    /// A socket that never reached the registry is gone.
    fn fail_handshake(&mut self) {
        self.server.registry().count_handshake_failure();
        self.shared.live.fetch_sub(1, Ordering::Relaxed);
    }

    fn admit(&mut self, stream: TcpStream, peer: SocketAddr) {
        self.shared.live.fetch_add(1, Ordering::Relaxed);
        let token = self.next_token;
        self.next_token += 1;
        stream.set_nodelay(true).ok();
        if stream.set_nonblocking(true).is_err()
            || self
                .poller
                .register(stream.as_raw_fd(), token, Interest::READ)
                .is_err()
        {
            return self.fail_handshake();
        }
        let mut io = Io {
            stream,
            peer,
            token,
            interest: Interest::READ,
            timer_gen: 0,
        };
        let hello_timeout = self.server.config().adoc.hello_timeout;
        self.arm_timer(token, &mut io.timer_gen, hello_timeout);
        // The client may have sent its first bytes already; serve them
        // this tick instead of waiting for the next poll.
        let read = Msg::new(&self.server.config().adoc);
        self.sniff(io, read);
    }

    fn fire_timers(&mut self) -> usize {
        let now = Instant::now();
        let mut fired = 0usize;
        while let Some(&Reverse((deadline, token, gen))) = self.timers.peek() {
            if deadline > now {
                break;
            }
            self.timers.pop();
            if token == HOUSEKEEPING_TOKEN {
                self.housekeeping(now);
                continue;
            }
            let sniffing = match self.conns.get(&token) {
                Some(conn) if conn.io.timer_gen == gen => matches!(conn.state, State::Sniff(_)),
                _ => continue, // stale: the connection moved on, or is gone
            };
            fired += 1;
            if !sniffing {
                // Throttle retry (or a stale hello timer on an active
                // connection, where dispatch is a harmless no-op).
                self.dispatch(token);
            } else if let Some(conn) = self.conns.remove(&token) {
                // Hello timeout: the peer never sent its first two bytes.
                self.close(conn.io, None);
            }
        }
        fired
    }

    /// The periodic pass over state other threads park. Re-arms itself.
    fn housekeeping(&mut self, now: Instant) {
        // Expired partial groups (a client that dialled some streams
        // and died) must not pin admission slots.
        for _ in 0..self.pending.prune_expired(now) {
            self.server.registry().count_handshake_failure();
        }
        // Sessions whose resume window lapsed give their slot back.
        let lapsed = self.server.sessions().sweep(now);
        self.server.reclaim_sessions(lapsed);
        self.resume_listener();
        self.timers
            .push(Reverse((now + HOUSEKEEPING, HOUSEKEEPING_TOKEN, 0)));
    }

    /// Closes everything the drain rules say must go this tick.
    fn sweep_drain(&mut self) {
        let stopping = self.stopping();
        if stopping {
            // The listener goes first, so nothing new arrives while
            // the rest drains; the close resets dials in its backlog.
            if let Some(listener) = self.listener.take() {
                let _ = self.poller.deregister(listener.as_raw_fd());
            }
        }
        if !self.drain.is_draining() {
            return;
        }
        let cut_stalled = self.drain.deadline_passed();
        let doomed: Vec<(u64, ConnOutcome)> = self
            .conns
            .iter()
            .filter_map(|(&token, conn)| match &conn.state {
                // A sniff may still turn out to be a session hello owed
                // a typed refusal; only shutdown cuts it short.
                State::Sniff(_) => {
                    (stopping || cut_stalled).then_some((token, ConnOutcome::Failed))
                }
                State::Serving(_, Stage::Read(read)) if read.at_boundary() => {
                    Some((token, ConnOutcome::Completed))
                }
                State::Serving(..) => cut_stalled.then_some((token, ConnOutcome::Failed)),
            })
            .collect();
        for (token, outcome) in doomed {
            if let Some(Conn { io, state }) = self.conns.remove(&token) {
                self.close(io, state.id().map(|id| (id, outcome)));
            }
        }
    }

    /// Resumes `token`'s state machine.
    fn dispatch(&mut self, token: u64) {
        let Some(Conn { io, state }) = self.conns.remove(&token) else {
            return;
        };
        // Retried: out of the parked set until refused again.
        self.throttled.remove(&token);
        match state {
            State::Sniff(read) => self.sniff(io, read),
            State::Serving(sess, stage) => self.drive(io, sess, Step::Next(stage)),
        }
    }

    /// Turns a served connection's state machine, starting from
    /// `step`, until it has to wait or is over.
    fn drive(&mut self, mut io: Io, mut sess: Box<Session>, mut step: Step) {
        loop {
            step = match step {
                Step::Next(stage) => self.step(&mut io, &mut sess, stage),
                Step::Wait(stage, interest) => {
                    return self.keep(io, State::Serving(sess, stage), interest)
                }
                Step::Close(outcome) => return self.close(io, Some((sess.id, outcome))),
            };
        }
    }

    /// Puts a live connection back, waiting for `interest`.
    fn keep(&mut self, mut io: Io, state: State, interest: Interest) {
        if interest != io.interest
            && self
                .poller
                .modify(io.stream.as_raw_fd(), io.token, interest)
                .is_ok()
        {
            io.interest = interest;
        }
        self.conns.insert(io.token, Conn { io, state });
    }

    /// Ends a connection: `served` is its registry entry and outcome;
    /// `None` is a socket that never got one — a handshake failure.
    fn close(&mut self, io: Io, served: Option<(ConnId, ConnOutcome)>) {
        let _ = self.poller.deregister(io.stream.as_raw_fd());
        self.throttled.remove(&io.token);
        match served {
            Some((id, outcome)) => {
                self.server.tracer().deregister(id);
                self.server.registry().remove(id, outcome);
            }
            None => self.server.registry().count_handshake_failure(),
        }
        self.shared.live.fetch_sub(1, Ordering::Relaxed);
        self.resume_listener();
        // The caller drops the connection's session last: its config's
        // scheduler throttle deregisters the bucket.
    }

    /// Resumes a connection with its worker-job result.
    fn complete(&mut self, token: u64, result: JobResult, timing: JobTiming) {
        let Some(Conn { io, mut state }) = self.conns.remove(&token) else {
            return; // closed while the job ran (drain cut, peer reset)
        };
        if let State::Serving(sess, _) = &mut state {
            if let Some(span) = sess.span.as_mut() {
                span.absorb_job(timing);
            }
        }
        let (sess, step) = match (state, result) {
            (State::Serving(sess, Stage::Job), Ok(Done::Inflated(read))) => {
                (sess, Step::Next(Stage::Read(read)))
            }
            (State::Serving(mut sess, Stage::Job), Ok(Done::Deflated(mut msg, frame, level))) => {
                sess.stats.record_buffer(level);
                // Level 0 from a compression job is the §5 ratio guard.
                sess.stats.ratio_trips += u64::from(level == 0);
                msg.reply.out[0] = Some(Span::Frame(frame));
                (sess, Step::Next(Stage::Reply(msg)))
            }
            (state, result) => {
                // The typed worker-failure path: a panicked or failed
                // codec job closes exactly this connection.
                let error = match result {
                    Err(msg) => format!("codec worker: {msg}"),
                    Ok(_) => "worker completion arrived in an impossible state".to_string(),
                };
                let conn = state.id();
                self.server.events().emit(Event::ConnError {
                    conn,
                    error: &error,
                });
                return self.close(io, conn.map(|id| (id, ConnOutcome::Failed)));
            }
        };
        self.drive(io, sess, step);
    }

    fn arm_timer(&mut self, token: u64, timer_gen: &mut u64, after: Duration) {
        *timer_gen += 1;
        self.timers
            .push(Reverse((Instant::now() + after, token, *timer_gen)));
    }

    /// Wire admission for the `rest` of a run: `quantum` of it under a
    /// budget, all of it without one. Admitted, it returns the bytes it
    /// covered (the span's lap clock goes to `stage`); refused, `None`
    /// (retry timer armed, the lap clock goes to sched-wait).
    fn try_admit(
        &mut self,
        token: u64,
        timer_gen: &mut u64,
        sess: &mut Session,
        (rest, quantum): (usize, usize),
        stage: StageKind,
    ) -> Option<usize> {
        let bytes = match self.server.scheduler().budget() {
            Some(_) => rest.min(quantum),
            None => rest,
        };
        let verdict = sess.cfg.throttle.try_acquire_wire(bytes);
        if let Some(span) = sess.span.as_mut() {
            span.switch(if verdict.is_ok() {
                stage
            } else {
                StageKind::SchedWait
            });
        }
        if let Err(retry) = verdict {
            self.throttled.insert(token);
            self.arm_timer(token, timer_gen, retry);
        }
        verdict.ok().map(|()| bytes)
    }

    /// Flips a session-hello socket back to blocking and serves it on a
    /// dedicated thread via the stream-group path.
    fn handoff(&mut self, io: Io, sniff: [u8; 2]) {
        let _ = self.poller.deregister(io.stream.as_raw_fd());
        let Io { stream, peer, .. } = io;
        let hello_timeout = self.server.config().adoc.hello_timeout;
        if stream.set_nonblocking(false).is_err()
            || stream.set_read_timeout(Some(hello_timeout)).is_err()
        {
            return self.fail_handshake();
        }
        let server = Arc::clone(&self.server);
        let pending = Arc::clone(&self.pending);
        let slot = Slot(Arc::clone(&self.shared));
        let spawned = std::thread::Builder::new()
            .name(format!("adoc-conn-{peer}"))
            .spawn(move || {
                let _slot = slot;
                handle_group_stream(server, pending, stream, peer, sniff, hello_timeout);
            });
        if let Err(e) = spawned {
            // The unspawned closure has dropped its slot already.
            eprintln!("adoc-server: cannot spawn group serving thread: {e}");
            self.server.registry().count_handshake_failure();
        }
    }

    /// Reads the two protocol bytes and decides what the socket is.
    fn sniff(&mut self, mut io: Io, mut read: Msg) {
        let (dst, cur) = (&mut read.scratch[..2], &mut read.cur);
        match cur.pump((2, 2, 0), |n, _| Some(n), |r| io.stream.read(&mut dst[r])) {
            Moved::Done => {}
            Moved::Block | Moved::Parked => {
                return self.keep(io, State::Sniff(read), Interest::READ)
            }
            _ => return self.close(io, None),
        }
        let bytes = [read.scratch[0], read.scratch[1]];
        if bytes == [MAGIC, GROUP_MAGIC] {
            return self.handoff(io, bytes);
        }
        // Not a v1 message header — or one arriving after the drain
        // began, which takes no further messages.
        if bytes[0] != MAGIC || bytes[1] > 1 || self.drain.is_draining() {
            return self.close(io, None);
        }
        if self.server.config().require_auth {
            // A v1 connection has no credential to present: refused
            // pre-admission, exactly like a session hello without a MAC.
            self.server.sessions().count_rejected();
            self.server.events().emit(Event::TicketRejected {
                session_id: None,
                reason: "auth",
            });
            return self.close(io, None);
        }
        // A v1 message header begins: register the connection and go on
        // reading the header behind the two sniffed bytes.
        let peer_label = io.peer.to_string();
        let id = self.server.registry().register(peer_label.clone());
        let cfg = self.server.conn_config(id, 1, &peer_label);
        self.server.registry().activate(id, 1);
        let mut sess = Box::new(Session {
            id,
            level: cfg.min_level,
            cfg,
            stats: adoc::TransferStats::new(),
            last_level: None,
            span: None,
        });
        if self.traced {
            // A live, registered connection answers GET /trace (empty
            // ring) before its first message completes.
            self.server.tracer().register(id);
            sess.span = Some(MsgSpan::begin());
        }
        self.drive(io, sess, Step::Next(Stage::Read(read)));
    }

    /// One turn of the state machine.
    fn step(&mut self, io: &mut Io, sess: &mut Session, stage: Stage) -> Step {
        match stage {
            Stage::Read(read) => self.read(io, sess, read),
            // Waiting on the worker; the completion resumes us.
            Stage::Job => Step::Wait(stage, Interest::NONE),
            Stage::Reply(mut msg) => {
                let (reply, quantum) = (&mut msg.reply, sess.cfg.buffer_size);
                let drained = drain(&mut io.stream, reply, &msg.buf, quantum, |n, q| {
                    self.try_admit(io.token, &mut io.timer_gen, sess, (n, q), StageKind::Write)
                });
                match drained {
                    Moved::Block => Step::Wait(Stage::Reply(msg), Interest::WRITE),
                    Moved::Parked => Step::Wait(Stage::Reply(msg), Interest::NONE),
                    Moved::Frame(blocked) => {
                        sess.level = next_reply_level(blocked, sess.level, &sess.cfg);
                        Step::Next(Stage::Reply(msg))
                    }
                    Moved::Done if msg.reply.next_chunk < msg.buf.len() => {
                        self.encode_next(io.token, sess, msg)
                    }
                    Moved::Done => self.finish_message(sess, msg),
                    Moved::Eof | Moved::Fail => Step::Close(ConnOutcome::Failed),
                }
            }
        }
    }

    /// Feeds the message's decoder from the socket until the message is
    /// in, a codec job takes it, or the socket or the scheduler makes
    /// it wait.
    fn read(&mut self, io: &mut Io, sess: &mut Session, mut read: Msg) -> Step {
        loop {
            let at_boundary = read.at_boundary();
            if at_boundary && self.drain.is_draining() {
                // A draining server takes no further messages.
                return Step::Close(ConnOutcome::Completed);
            }
            let Some(want) = read.dec.want() else {
                return self.after_inbound(sess, read);
            };
            let (pos, at) = (read.cur.pos, read.filled);
            let (dst, len, quantum) = match want {
                Want::Header(n) => (&mut read.scratch[..n], n, 0),
                Want::Body { len, quantum, .. } => {
                    let ready = wire::grow(&mut read.buf, at + pos, at + len as usize);
                    (&mut read.buf[at..ready], len as usize, quantum)
                }
                Want::Payload(hdr) => {
                    let len = hdr.payload_len as usize;
                    let ready = wire::grow(&mut read.payload, pos, len);
                    (&mut read.payload[..ready], len, len)
                }
            };
            let admit =
                |n, q| self.try_admit(io.token, &mut io.timer_gen, sess, (n, q), StageKind::Read);
            let run = (dst.len(), len, quantum);
            let filled = read.cur.pump(run, admit, |r| io.stream.read(&mut dst[r]));
            if at_boundary && !read.at_boundary() && self.traced && sess.span.is_none() {
                // The span starts at a message's first header byte:
                // client idle time between messages is excluded.
                sess.span = Some(MsgSpan::begin());
            }
            match filled {
                // The buffer is zero-filled only as far as bytes landed.
                Moved::Done if read.cur.pos < len => continue,
                Moved::Done => read.cur = Cursor::default(),
                Moved::Block => return self.relay(io, sess, read, Interest::READ),
                Moved::Parked => return self.relay(io, sess, read, Interest::NONE),
                // The client hung up between messages.
                Moved::Eof if read.at_boundary() => return Step::Close(ConnOutcome::Completed),
                _ => return Step::Close(ConnOutcome::Failed),
            }
            if let Want::Header(n) = want {
                let pool = &sess.cfg.pool;
                match read.dec.header(&read.scratch[..n]) {
                    // A zero-byte message is a client-initiated close, as
                    // in the blocking serve loop.
                    Ok(Parsed::Message { raw_len: 0, .. }) => {
                        return Step::Close(ConnOutcome::Completed)
                    }
                    Ok(Parsed::Message { raw_len, .. }) => {
                        read.buf = pool.get(wire::reserve(raw_len));
                        read.reply = Reply::new(self.server.mode(), &sess.cfg, raw_len);
                    }
                    Ok(Parsed::Frame(h)) if h.level > 0 => {
                        read.payload = pool.get(wire::reserve(h.payload_len.into()))
                    }
                    Ok(_) => {}
                    Err(_) => return Step::Close(ConnOutcome::Failed),
                }
                continue;
            }
            read.dec.body_done();
            let Want::Payload(hdr) = want else {
                read.filled += len;
                continue;
            };
            // Decompression is codec work: off the reactor, into the
            // message (the decoder kept the frame inside it).
            if let Some(span) = sess.span.as_mut() {
                // Close the read lap; the worker measures its own
                // queue/codec interval.
                span.flush();
            }
            self.pool.submit(Job {
                conn: io.token,
                work: Box::new(move |codec| {
                    let end = read.filled + hdr.raw_len as usize;
                    read.buf.resize(end, 0);
                    let dst = &mut read.buf[read.filled..];
                    let decoded = codec.decompress_into(hdr.level, &read.payload, dst);
                    decoded.map_err(|e| e.to_string())?;
                    read.filled = end;
                    read.payload = PooledBuf::detached(Vec::new());
                    Ok(Done::Inflated(read))
                }),
            });
            return Step::Wait(Stage::Job, Interest::NONE);
        }
    }

    /// The read waits — for the socket (`READ`) or the scheduler (`NONE`),
    /// whose clock the span stays on: meanwhile a direct echo's landed
    /// bytes leave, and the connection also waits for room to write while
    /// they meet backpressure, or for nothing while they are parked.
    fn relay(&mut self, io: &mut Io, sess: &mut Session, mut read: Msg, wait: Interest) -> Step {
        // Only a direct echo, whose body is the message, leaves early.
        let ([_, Some(Span::Body)] | [Some(Span::Body), _]) = read.reply.out else {
            return Step::Wait(Stage::Read(read), wait);
        };
        let landing = matches!(read.dec.want(), Some(Want::Body { .. }));
        let landed = read.filled + if landing { read.cur.pos } else { 0 };
        let (landed, quantum) = (&read.buf[..landed], sess.cfg.buffer_size);
        let stage = [StageKind::SchedWait, StageKind::Read][usize::from(wait.readable)];
        let interest = match drain(&mut io.stream, &mut read.reply, landed, quantum, |n, q| {
            self.try_admit(io.token, &mut io.timer_gen, sess, (n, q), stage)
        }) {
            Moved::Eof | Moved::Fail => return Step::Close(ConnOutcome::Failed),
            Moved::Parked => Interest::NONE,
            Moved::Block => Interest {
                writable: true,
                ..wait
            },
            _ => wait,
        };
        Step::Wait(Stage::Read(read), interest)
    }

    /// The message is in: on to the reply its header decided.
    fn after_inbound(&mut self, sess: &mut Session, mut msg: Msg) -> Step {
        if let [_, Some(Span::Ack(ack))] = &mut msg.reply.out {
            *ack = sink_ack(msg.buf.len() as u64, fnv1a64(&msg.buf));
        }
        // A direct reply has nothing to encode.
        if msg.reply.next_chunk == msg.buf.len() {
            sess.stats.direct_messages += 1;
        }
        if let Some(span) = sess.span.as_mut() {
            // The message is fully read; everything from here is the
            // write side (a refused admission re-takes the clock).
            span.switch(StageKind::Write);
        }
        Step::Next(Stage::Reply(msg))
    }

    /// Encodes the adaptive reply's next `buffer_size` chunk as a frame
    /// at the connection's current level.
    fn encode_next(&mut self, token: u64, sess: &mut Session, mut msg: Msg) -> Step {
        let start = msg.reply.next_chunk;
        let end = (start + sess.cfg.buffer_size).min(msg.buf.len());
        msg.reply.next_chunk = end;
        let (level, pool) = (sess.level, sess.cfg.pool.clone());
        if level == 0 {
            // Stored frames are pure memcpy: seal inline.
            let chunk = Chunk::Slice(&msg.buf[start..end]);
            let Ok((frame, ..)) = Framing::V1.seal(chunk, None, &pool, 0, 0) else {
                return Step::Close(ConnOutcome::Failed);
            };
            sess.stats.record_buffer(0);
            msg.reply.out[0] = Some(Span::Frame(frame));
            return Step::Next(Stage::Reply(msg));
        }
        // Compression is worker-pool work, on the message itself; one
        // job in flight per connection bounds the queue.
        if let Some(span) = sess.span.as_mut() {
            span.flush();
        }
        self.pool.submit(Job {
            conn: token,
            work: Box::new(move |codec| {
                let chunk = Chunk::Slice(&msg.buf[start..end]);
                let sealed = Framing::V1.seal(chunk, Some((codec, level)), &pool, 0, 0);
                let (frame, level, _) = sealed.map_err(|e| e.to_string())?;
                Ok(Done::Deflated(msg, frame, level))
            }),
        });
        Step::Wait(Stage::Job, Interest::NONE)
    }

    /// Reply fully written: run the message epilogue and return to the
    /// message boundary.
    fn finish_message(&mut self, sess: &mut Session, msg: Msg) -> Step {
        let reply = &msg.reply;
        sess.stats.messages += 1;
        sess.stats.raw_bytes += reply.raw;
        sess.stats.wire_bytes += reply.wire;
        let served = ServedMessage {
            raw_bytes: msg.buf.len() as u64,
            reply_wire_bytes: reply.wire,
            stats: &sess.stats,
            times: sess.span.take().map(MsgSpan::finish),
            from_first_byte: true,
        };
        self.server
            .message_served(sess.id, served, &mut sess.last_level);
        // Dropping the message returns its buffer to the pool at every
        // boundary: idle memory is capped at socket buffers.
        Step::Wait(Stage::Read(Msg::new(&sess.cfg)), Interest::READ)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ServeMode, ServerConfig};
    use adoc::{AdocSocket, PoolStats};
    use std::sync::atomic::AtomicBool;

    /// A reactor listening on an ephemeral loopback port, driven by
    /// the test through `run_once`.
    fn reactor_with(cfg: ServerConfig) -> (Reactor, Arc<Server>, SocketAddr) {
        let server = Server::new(cfg).expect("config");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.set_nonblocking(true).expect("nonblocking");
        let addr = listener.local_addr().expect("addr");
        let pending = Arc::new(PendingGroups::default());
        let reactor = Reactor::new(Arc::clone(&server), pending, listener).expect("reactor");
        (reactor, server, addr)
    }

    impl Reactor {
        /// Queues a job that panics, attributed to the connection
        /// currently owning `token` — exercises the typed
        /// worker-failure path end to end.
        fn inject_panic_job(&self, token: u64) {
            self.pool.submit(Job {
                conn: token,
                work: Box::new(|_codec| panic!("injected worker panic")),
            });
        }

        /// Tokens of currently-owned connections.
        fn tokens(&self) -> Vec<u64> {
            self.conns.keys().copied().collect()
        }
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
        let (mut reactor, server, addr) =
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
    fn adaptive_echoes_seal_reply_frames_into_the_pool() {
        let (mut reactor, server, addr) = reactor_with(
            ServerConfig::builder()
                .adoc(AdocConfig::default().with_levels(2, 2))
                .build()
                .expect("config"),
        );
        let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
        let (echoed_tx, echoed_rx) = std::sync::mpsc::channel::<()>();
        let client = std::thread::spawn(move || {
            let big = adoc_data::generate(adoc_data::DataKind::Ascii, 1 << 20, 9);
            let sock = TcpStream::connect(addr).expect("connect");
            let r = sock.try_clone().expect("clone");
            // Its own pool: only the server's checkouts are counted.
            let cfg = AdocConfig::default().with_levels(2, 2);
            let mut conn = AdocSocket::with_config(r, sock, cfg).expect("client cfg");
            let mut back = vec![0u8; big.len()];
            while go_rx.recv().is_ok() {
                conn.write_all(&big).expect("send");
                conn.read_exact(&mut back).expect("echo");
                assert_eq!(back, big, "echo must be byte-exact");
                echoed_tx.send(()).expect("report");
            }
        });
        let mut warm = None;
        for _ in 0..5 {
            go_tx.send(()).expect("go");
            run_until(&mut reactor, Duration::from_secs(30), |_| {
                echoed_rx.try_recv().is_ok()
            });
            warm.get_or_insert(server.pool().stats());
        }
        drop(go_tx);
        client.join().expect("client");
        run_until(&mut reactor, Duration::from_secs(10), |r| r.live() == 0);
        let (warm, end) = (warm.expect("warm-up"), server.pool().stats());
        // Per message: the inbound buffer, one payload per level-2
        // frame in, and one sealed frame per chunk out.
        let frames = (1u64 << 20).div_ceil(200 * 1024);
        let checkouts = |s: PoolStats| s.hits + s.misses;
        assert!(
            checkouts(end) - checkouts(warm) >= 4 * (1 + 2 * frames),
            "reply frames are not pooled: {warm:?} -> {end:?}"
        );
        assert!(
            end.misses - warm.misses <= 2,
            "steady-state echoes allocated: {warm:?} -> {end:?}"
        );
        assert_eq!(end.outstanding, 0, "no leaked buffers");
    }

    /// `n` bytes of noise in which every 100 noise bytes are followed by
    /// a copy of their first 10: level 1 (LZF) shrinks each chunk by
    /// about 2.8 %, under the §5 guard's 5 %.
    fn barely_compressible(n: usize) -> Vec<u8> {
        let (mut x, mut v) = (1u64, Vec::with_capacity(n + 110));
        while v.len() < n {
            let start = v.len();
            for _ in 0..100 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                v.push((x >> 40) as u8);
            }
            v.extend_from_within(start..start + 10);
        }
        v.truncate(n);
        v
    }

    /// One AdOC message read off `r`: its wire bytes and its frames'
    /// levels.
    fn read_message(r: &mut impl io::Read, cfg: &AdocConfig) -> (Vec<u8>, Vec<u8>) {
        let mut dec = FrameDecoder::message(cfg, 1);
        let (mut bytes, mut levels) = (Vec::new(), Vec::new());
        while let Some(want) = dec.want() {
            let n = match want {
                Want::Header(n) => n,
                Want::Body { len, .. } => len as usize,
                Want::Payload(hdr) => hdr.payload_len as usize,
            };
            let at = bytes.len();
            bytes.resize(at + n, 0);
            r.read_exact(&mut bytes[at..]).expect("message bytes");
            if let Want::Header(_) = want {
                if let Parsed::Frame(hdr) = dec.header(&bytes[at..]).expect("header") {
                    levels.push(hdr.level);
                }
            } else {
                dec.body_done();
            }
        }
        (bytes, levels)
    }

    #[test]
    fn a_reply_chunk_under_the_ratio_guard_goes_out_stored() {
        let adoc = AdocConfig {
            probe_threshold: 64 << 10,
            probe_size: 32 << 10,
            buffer_size: 32 << 10,
            ..AdocConfig::default()
        }
        .with_levels(1, 1);
        let data = barely_compressible(100_000);
        for chunk in data.chunks(adoc.buffer_size) {
            let mut lzf = Vec::new();
            adoc_codec::compress_at(1, chunk, &mut lzf);
            let ratio = chunk.len() as f64 / lzf.len() as f64;
            let under_guard = 1.0..adoc::adapt::RATIO_GUARD;
            assert!(under_guard.contains(&ratio), "level-1 ratio {ratio}");
        }
        // The blocking sender stores every chunk...
        let mut sent = Vec::new();
        let mut streams = Vec::new();
        let one = std::slice::from_mut(&mut sent);
        let len = data.len() as u64;
        adoc::sender::send_message(one, &mut &data[..], len, None, &adoc, &mut streams)
            .expect("send_message");
        let (_, levels) = read_message(&mut &sent[..], &adoc);
        assert_eq!(levels, [0; 4], "send_message's frame levels");

        // ...and so does the reactor, counting each as a guard trip.
        let (mut reactor, server, addr) = reactor_with(
            ServerConfig::builder()
                .adoc(adoc.clone())
                .build()
                .expect("config"),
        );
        let (reply_tx, reply_rx) = std::sync::mpsc::channel();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let client = {
            let (sent, adoc) = (sent.clone(), adoc.clone());
            std::thread::spawn(move || {
                let mut sock = TcpStream::connect(addr).expect("connect");
                sock.write_all(&sent).expect("request");
                reply_tx
                    .send(read_message(&mut sock, &adoc))
                    .expect("report");
                // Hold the connection open while its stats are read.
                let _ = done_rx.recv();
            })
        };
        let mut reply = None;
        run_until(&mut reactor, Duration::from_secs(30), |_| {
            reply = reply_rx.try_recv().ok();
            reply.is_some()
        });
        let (bytes, levels) = reply.expect("reply");
        assert_eq!(levels, [0; 4], "the reactor's frame levels");
        assert!(bytes == sent, "the reply is what send_message wrote");
        let doc = server.metrics_doc();
        let trips: Vec<u64> = doc.connections.iter().map(|c| c.ratio_trips).collect();
        assert_eq!(trips, [4], "one guard trip per stored chunk");
        done_tx.send(()).expect("release");
        client.join().expect("client");
        run_until(&mut reactor, Duration::from_secs(10), |r| r.live() == 0);
    }

    #[test]
    fn sink_mode_acknowledges_with_length_and_hash() {
        let (mut reactor, server, addr) = reactor_with(
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

    /// A client thread that echoes `len` bytes once and checks them.
    fn direct_echo_client(addr: SocketAddr, len: usize, seed: u64) -> JoinHandle<()> {
        std::thread::spawn(move || {
            let payload = adoc_data::generate(adoc_data::DataKind::Ascii, len, seed);
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
    }

    /// A reactor whose echoes of any size are direct.
    fn level_zero_reactor(budget: Option<f64>) -> (Reactor, Arc<Server>, SocketAddr) {
        let adoc = AdocConfig::default().with_levels(0, 0);
        reactor_with(
            ServerConfig::builder()
                .adoc(adoc)
                .budget(budget)
                .build()
                .expect("config"),
        )
    }

    #[test]
    fn a_client_that_writes_everything_before_reading_gets_its_echo() {
        // 32 MiB is far more than both socket buffers hold: the relay
        // meets backpressure, keeps reading, and ends store-and-forward.
        let (mut reactor, server, addr) = level_zero_reactor(None);
        let client = std::thread::spawn(move || {
            let payload = adoc_data::generate(adoc_data::DataKind::Binary, 32 << 20, 5);
            let sock = TcpStream::connect(addr).expect("connect");
            let r = sock.try_clone().expect("clone");
            let cfg = AdocConfig::default().with_levels(0, 0);
            let mut conn = AdocSocket::with_config(r, sock, cfg).expect("client cfg");
            conn.write_all(&payload).expect("send");
            let mut back = vec![0u8; payload.len()];
            conn.read_exact(&mut back).expect("echo");
            assert!(back == payload, "echo must be byte-exact");
        });
        run_until(&mut reactor, Duration::from_secs(60), |_| {
            client.is_finished()
        });
        client.join().expect("client");
        run_until(&mut reactor, Duration::from_secs(10), |r| r.live() == 0);
        let totals = server.registry().totals();
        assert_eq!((totals.completed, totals.failed), (1, 0));
        assert_eq!(server.pool().stats().outstanding, 0);
    }

    /// A raw-TCP client that sends a direct head and the first 256 KiB
    /// of `payload`, and the rest only once those have come back; it
    /// returns what the reply echoed, or the read that timed out.
    fn hold_back_client(addr: SocketAddr, payload: Vec<u8>) -> JoinHandle<io::Result<Vec<u8>>> {
        std::thread::spawn(move || {
            let mut sock = TcpStream::connect(addr)?;
            sock.set_read_timeout(Some(Duration::from_secs(10)))?;
            let first = 256 << 10;
            let head = wire::encode_msg_header(MsgKind::Direct, payload.len() as u64);
            sock.write_all(&head)?;
            sock.write_all(&payload[..first])?;
            let mut back = vec![0u8; head.len() + payload.len()];
            sock.read_exact(&mut back[..head.len() + first])?;
            sock.write_all(&payload[first..])?;
            sock.read_exact(&mut back[head.len() + first..])?;
            assert_eq!(back[..head.len()], head, "the echo's head");
            Ok(back.split_off(head.len()))
        })
    }

    #[test]
    fn a_direct_echo_leaves_as_its_message_lands() {
        // Store-and-forward would never answer the held-back message.
        let (mut reactor, server, addr) = level_zero_reactor(None);
        let payload = adoc_data::generate(adoc_data::DataKind::Binary, 1 << 20, 6);
        let client = hold_back_client(addr, payload.clone());
        run_until(&mut reactor, Duration::from_secs(30), |_| {
            client.is_finished()
        });
        let back = client.join().expect("client");
        assert!(back.expect("the landed bytes came back first") == payload);
        run_until(&mut reactor, Duration::from_secs(10), |r| r.live() == 0);
        assert_eq!(server.registry().totals().completed, 1);
    }

    #[test]
    fn a_relayed_reply_is_admitted_byte_for_byte() {
        // Under an 8 MB/s budget the held-back bytes can only come back
        // through the relay, each of them admitted once on the way in
        // and once on the way out.
        let (mut reactor, server, addr) = level_zero_reactor(Some(8e6));
        let payload = adoc_data::generate(adoc_data::DataKind::Binary, 1 << 20, 13);
        let client = hold_back_client(addr, payload.clone());
        run_until(&mut reactor, Duration::from_secs(30), |_| {
            client.is_finished()
        });
        let back = client.join().expect("client");
        assert!(back.expect("the landed bytes came back first") == payload);
        run_until(&mut reactor, Duration::from_secs(10), |r| r.live() == 0);
        assert_eq!(server.registry().totals().completed, 1);
        let inbound_and_reply = 2 * payload.len() as u64;
        assert_eq!(server.scheduler().total_admitted(), inbound_and_reply);
    }

    #[test]
    fn a_reset_in_mid_relay_fails_the_connection_and_frees_its_buffer() {
        let (mut reactor, server, addr) = level_zero_reactor(None);
        let sock = TcpStream::connect(addr).expect("connect");
        let client = {
            let mut sock = sock.try_clone().expect("clone");
            std::thread::spawn(move || {
                let timeout = Some(Duration::from_secs(10));
                sock.set_read_timeout(timeout).expect("timeout");
                let head = wire::encode_msg_header(MsgKind::Direct, 4 << 20);
                sock.write_all(&head).expect("head");
                sock.write_all(&[7u8; 256 << 10]).expect("first bytes");
                let mut relayed = [0u8; 4096];
                sock.read_exact(&mut relayed).expect("relayed bytes");
            })
        };
        run_until(&mut reactor, Duration::from_secs(30), |_| {
            client.is_finished()
        });
        client.join().expect("client");
        rst_close(sock);
        run_until(&mut reactor, Duration::from_secs(10), |r| r.live() == 0);
        let totals = server.registry().totals();
        assert_eq!((totals.completed, totals.failed), (0, 1));
        assert_eq!(server.pool().stats().outstanding, 0, "the message buffer");
        // The daemon serves the next dial.
        let next = direct_echo_client(addr, 64 << 10, 14);
        run_until(&mut reactor, Duration::from_secs(30), |_| {
            next.is_finished()
        });
        next.join().expect("next client");
        run_until(&mut reactor, Duration::from_secs(10), |r| r.live() == 0);
        assert_eq!(server.registry().totals().completed, 1);
    }

    #[test]
    fn a_throttled_connection_parks_without_spinning() {
        let (mut reactor, server, addr) = reactor_with(
            ServerConfig::builder()
                // 1 MB/s aggregate: a 1 MiB direct echo (≈ 2 MiB of
                // admissions) must park repeatedly.
                .budget(Some(1_000_000.0))
                .build()
                .expect("config"),
        );
        let client = direct_echo_client(addr, 1 << 20, 11);
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
    fn parked_connections_do_not_wake_each_other_in_a_loop() {
        // With two throttled connections every admission's refill wakes
        // the reactor to retry the other one early, and that retry is
        // usually refused. The refusal must leave the reactor asleep: if
        // its own forced refill counted as news, the reactor would wake
        // itself, retry, be refused and wake itself again — 100% CPU
        // for as long as anything is parked.
        let (mut reactor, server, addr) = reactor_with(
            ServerConfig::builder()
                .budget(Some(1_000_000.0))
                .build()
                .expect("config"),
        );
        let clients = [11, 12].map(|seed| direct_echo_client(addr, 512 << 10, seed));
        let mut polls = 0usize;
        let end = Instant::now() + Duration::from_secs(60);
        while !clients.iter().all(JoinHandle::is_finished) {
            assert!(Instant::now() < end, "throttled echoes never finished");
            reactor.run_once(Some(Duration::from_millis(20)));
            polls += 1;
        }
        for client in clients {
            client.join().expect("client");
        }
        // ~2 s of pacing: a hundred poll timeouts plus a few events for
        // each of the ~32 admissions. A spinning reactor polls tens of
        // thousands of times.
        assert!(polls < 2_000, "{polls} polls: the reactor spins");
        run_until(&mut reactor, Duration::from_secs(10), |r| r.live() == 0);
        assert_eq!(server.scheduler().parked(), 0);
    }

    #[test]
    fn a_worker_panic_closes_the_connection_with_a_typed_error() {
        let (mut reactor, server, addr) =
            reactor_with(ServerConfig::builder().build().expect("config"));
        let sock = TcpStream::connect(addr).expect("connect");
        let mut probe = sock.try_clone().expect("clone");
        // Register and reach the serving state: two header bytes sniff
        // the connection into the registry.
        probe.write_all(&[MAGIC, 0]).expect("sniff bytes");
        run_until(&mut reactor, Duration::from_secs(10), |r| {
            r.tokens().len() == 1 && r.conns.values().all(|c| c.state.id().is_some())
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
        // A wake racing the consume cycle is coalesced into it (pending
        // is still true, so it writes nothing), and the first wake
        // after the consume must land a fresh byte — pending can never
        // end up true over an empty pipe, which would leave the waker
        // permanently dead.
        let poller = Poller::new().expect("poller");
        let (waker, mut rx) = Waker::new(&poller, 1).expect("waker");
        waker.wake();
        waker.wake(); // coalesced: one byte in the pipe
        waker.consume(&mut rx);
        let mut events = Vec::new();
        let idle = poller
            .wait(&mut events, Some(Duration::ZERO))
            .expect("wait");
        assert_eq!(idle, 0, "a consumed wake leaves the pipe empty");
        waker.wake(); // first wake after the consume re-arms the pipe
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .expect("wait");
        assert_eq!(
            n, 1,
            "a wake after consume() must write a byte or the reactor sleeps forever"
        );
    }

    #[test]
    fn a_zero_length_adaptive_message_is_a_clean_close() {
        let (mut reactor, server, addr) =
            reactor_with(ServerConfig::builder().build().expect("config"));
        let mut sock = TcpStream::connect(addr).expect("connect");
        sock.write_all(&wire::encode_msg_header(MsgKind::Adaptive, 0))
            .expect("header");
        run_until(&mut reactor, Duration::from_secs(10), |r| {
            server.registry().totals().accepted == 1 && r.live() == 0
        });
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
        let (mut reactor, server, addr) = reactor_with(
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
        let (mut reactor, server, addr) =
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
