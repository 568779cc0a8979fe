//! The TCP front end: binding, stream-group matching, session
//! handshakes, and graceful shutdown.
//!
//! ## Accepting mixed clients
//!
//! The listener lives in the [`crate::reactor::Reactor`]'s poll set;
//! the reactor accepts every dial and sniffs it under the hello timeout
//! (a reactor timer, not a blocking read). The first two bytes decide
//! the protocol:
//!
//! * `0xAD 'G'` — a stream of a session group. The reactor flips the
//!   socket back to blocking and hands it to a dedicated thread; the
//!   full [`SessionHello`] is read, its credential checked, and the
//!   socket parks in [`PendingGroups`] keyed by `(peer IP, stream count,
//!   group token)`; the connection that completes its group answers one
//!   [`SessionAccept`] on the primary and serves the whole group. Tokens
//!   make concurrent dials from one host (every loadgen client on
//!   `127.0.0.1`) unambiguous; the reserved zero token is refused, and
//!   partial groups expire after the hello timeout. Any other hello
//!   version is a handshake failure.
//! * `0xAD <kind>` — a plain v1 connection; it stays on the reactor as
//!   a nonblocking state machine for its whole life.
//! * anything else — a protocol error: the socket is dropped and
//!   counted as a handshake failure.
//!
//! A client that connects and never sends its hello times out on its
//! reactor timer, is counted, and nothing else notices.
//!
//! ## Admission and shutdown
//!
//! While `reactor live + parked >= max_conns` the reactor simply stops
//! polling the listener — excess dials queue in the kernel backlog
//! (backpressure) instead of registering unboundedly.
//! [`DaemonHandle::shutdown`] starts the server drain and shuts the
//! reactor down (which closes the listener first, then every
//! connection, bounded by the drain deadline), then expires parked
//! sockets and sessions.

use crate::conn::{message_loop, ConnCtl, GuardedReader, GuardedWriter, RegistryGuard};
use crate::control::Control;
use crate::event::Event;
use crate::http::{self, HttpHandle};
use crate::reactor::{Reactor, ReactorHandle};
use crate::registry::{ConnId, ConnOutcome};
use crate::session::{ParkedSession, PartialRecv};
use crate::Server;
use adoc::session::unix_now_us;
use adoc::wire::{session_status, SessionAccept, SessionHello, SessionKind};
use adoc::{AdocStreamGroup, SessionTicket, TicketError};
use adoc_codec::checksum::ct_eq;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io;
use std::net::{IpAddr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

type GroupKey = (IpAddr, u8, u64);

struct Pending {
    slots: Vec<Option<TcpStream>>,
    have: usize,
    deadline: Instant,
}

/// Parking lot for streams of session groups whose siblings have not all
/// arrived yet (see the module docs).
#[derive(Default)]
pub struct PendingGroups {
    inner: Mutex<HashMap<GroupKey, Pending>>,
}

impl PendingGroups {
    /// Parks one stream of group `key`, whose siblings have
    /// `hello_timeout` from the first arrival to show up. Returns every
    /// stream, in id order, to the caller that completes the group;
    /// `None` to the rest — a sibling's thread will finish the job — and
    /// for a duplicate or out-of-range stream id, which is counted as a
    /// handshake failure.
    fn place(
        &self,
        server: &Server,
        key: GroupKey,
        stream_id: u8,
        stream: TcpStream,
        hello_timeout: Duration,
    ) -> Option<Vec<TcpStream>> {
        let (n, id) = (key.1 as usize, stream_id as usize);
        let mut g = self.inner.lock();
        if id >= n || g.get(&key).is_some_and(|p| p.slots[id].is_some()) {
            drop(g);
            server.registry().count_handshake_failure();
            return None;
        }
        let entry = g.entry(key).or_insert_with(|| Pending {
            slots: (0..n).map(|_| None).collect(),
            have: 0,
            deadline: Instant::now() + hello_timeout,
        });
        entry.slots[id] = Some(stream);
        entry.have += 1;
        if entry.have < n {
            return None;
        }
        g.remove(&key)
            .map(|done| done.slots.into_iter().flatten().collect())
    }

    /// Drops every parked stream of groups past their deadline; returns
    /// how many sockets were discarded.
    pub(crate) fn prune_expired(&self, now: Instant) -> usize {
        let mut g = self.inner.lock();
        let expired: Vec<GroupKey> = g
            .iter()
            .filter(|(_, p)| now >= p.deadline)
            .map(|(&k, _)| k)
            .collect();
        let mut dropped = 0;
        for k in expired {
            if let Some(p) = g.remove(&k) {
                dropped += p.have;
            }
        }
        dropped
    }

    /// Number of currently parked sockets.
    pub fn parked(&self) -> usize {
        self.inner.lock().values().map(|p| p.have).sum()
    }

    /// Discards everything (shutdown); returns the number of sockets
    /// dropped.
    fn clear(&self) -> usize {
        let mut g = self.inner.lock();
        let dropped = g.values().map(|p| p.have).sum();
        g.clear();
        dropped
    }
}

/// A running TCP daemon; dropping the handle without calling
/// [`DaemonHandle::shutdown`] aborts ungracefully (threads detach).
pub struct DaemonHandle {
    server: Arc<Server>,
    addr: SocketAddr,
    reactor: ReactorHandle,
    pending: Arc<PendingGroups>,
    /// The embedded metrics/control HTTP listener, when the config
    /// names a `metrics_addr`.
    metrics: Option<HttpHandle>,
}

impl std::fmt::Debug for DaemonHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DaemonHandle")
            .field("addr", &self.addr)
            .field("live", &self.server.registry().live_count())
            .finish()
    }
}

impl DaemonHandle {
    /// The bound listen address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server core behind this daemon.
    pub fn server(&self) -> &Arc<Server> {
        &self.server
    }

    /// Current metrics snapshot.
    pub fn metrics_json(&self) -> String {
        self.server.metrics_json()
    }

    /// The bound address of the metrics/control HTTP listener, if one
    /// was configured (useful with port 0).
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics.as_ref().map(|h| h.addr())
    }

    /// Graceful drain shutdown: stop accepting, let in-flight messages
    /// finish (bounded by the drain deadline), expire parked handshake
    /// sockets and sessions. A panicked reactor is reported as an error
    /// but never short-circuits the remaining cleanup.
    pub fn shutdown(self) -> io::Result<()> {
        let DaemonHandle {
            server,
            reactor,
            pending,
            metrics,
            ..
        } = self;
        server.begin_drain();
        // The reactor closes the listener, then boundary connections
        // immediately, cuts stragglers at the drain deadline, and waits
        // for every group thread to give its slot back before it exits.
        let stopped = reactor.shutdown();
        for _ in 0..pending.clear() {
            server.registry().count_handshake_failure();
        }
        // Sessions still parked can never resume now (resumes are
        // refused while draining): reclaim their registry slots.
        server.reclaim_sessions(server.sessions().expire_all());
        // Every connection has closed: the drain is complete. Emitted
        // before the HTTP listener stops so a final /events scrape can
        // still observe it.
        server.events().emit(Event::DrainFinished);
        if let Some(h) = metrics {
            h.shutdown();
        }
        stopped
    }
}

/// Binds `listen` and starts the reactor on it for `server`. Returns a
/// handle carrying the bound address.
pub fn spawn(server: Arc<Server>, listen: impl ToSocketAddrs) -> io::Result<DaemonHandle> {
    let listener = TcpListener::bind(listen)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let metrics = match &server.config().metrics_addr {
        Some(maddr) => Some(http::spawn(
            Control::new(Arc::clone(&server)),
            maddr.as_str(),
        )?),
        None => None,
    };
    let pending = Arc::new(PendingGroups::default());
    let reactor = Reactor::spawn(Arc::clone(&server), Arc::clone(&pending), listener)?;
    Ok(DaemonHandle {
        server,
        addr,
        reactor,
        pending,
        metrics,
    })
}

/// Records the refusal (session counter, handshake failure, typed
/// event) and writes a [`SessionAccept`] rejection on `stream`.
fn reject_session(
    server: &Server,
    stream: &mut TcpStream,
    status: u8,
    session_id: Option<u64>,
    reason: &'static str,
) {
    // Count, then reply: the reply is what unblocks the client, so
    // anything it may inspect afterwards must already be recorded.
    server.sessions().count_rejected();
    server.registry().count_handshake_failure();
    server
        .events()
        .emit(Event::TicketRejected { session_id, reason });
    let _ = io::Write::write_all(stream, &SessionAccept::reject(status).encode());
    let _ = io::Write::flush(stream);
}

/// One stream of a session group: the credential is verified **per
/// stream, before admission** — a bad MAC or stale ticket never parks a
/// socket in the group table, let alone reaches the registry.
pub(crate) fn handle_group_stream(
    server: Arc<Server>,
    pending: Arc<PendingGroups>,
    mut stream: TcpStream,
    peer: SocketAddr,
    sniff: [u8; 2],
    hello_timeout: Duration,
) {
    // Re-attach the sniffed bytes and parse the full hello.
    let parsed = SessionHello::read(&mut io::Read::chain(&sniff[..], &mut stream));
    let hello = match parsed {
        // The zero token is reserved: it cannot keep concurrent dials apart.
        Ok(h) if h.token != 0 => h,
        _ => {
            server.registry().count_handshake_failure();
            return;
        }
    };
    let verdict: Result<(), (u8, &'static str)> = match hello.kind {
        // Auth optional: a fresh v4 session is always welcome.
        SessionKind::New if !server.config().require_auth => Ok(()),
        SessionKind::New => {
            let want = server.ticket_key().hello_mac(hello.streams, hello.token);
            if ct_eq(&want, &hello.mac) {
                Ok(())
            } else {
                Err((session_status::AUTH_FAILED, "auth"))
            }
        }
        SessionKind::Resume if server.is_draining() => {
            Err((session_status::RESUME_REJECTED, "draining"))
        }
        SessionKind::Resume => {
            let ticket = SessionTicket {
                session_id: hello.session_id,
                expires_us: hello.expires_us,
                mac: hello.mac,
            };
            let verified = server.ticket_key().verify(&ticket, unix_now_us());
            verified.map_err(|e| match e {
                TicketError::BadMac => (session_status::AUTH_FAILED, "auth"),
                TicketError::Expired => (session_status::TICKET_EXPIRED, "expired"),
            })
        }
    };
    if let Err((status, reason)) = verdict {
        let sid = (hello.kind == SessionKind::Resume).then_some(hello.session_id);
        reject_session(&server, &mut stream, status, sid, reason);
        return;
    }

    let key: GroupKey = (peer.ip(), hello.streams, hello.token);
    let Some(streams) = pending.place(&server, key, hello.stream_id, stream, hello_timeout) else {
        return;
    };
    match hello.kind {
        SessionKind::New => serve_new_session(server, streams, peer),
        SessionKind::Resume => serve_resumed_session(server, streams, peer, hello, hello_timeout),
    }
}

/// Socket timeout granularity of a session's streams: how often blocked
/// reads and writes wake to check the drain state.
const SESSION_DRAIN_POLL: Duration = Duration::from_millis(100);

/// Writes the [`SessionAccept`] on the primary and wraps every stream in
/// the drain-aware guards. `None` means a socket write failed; the
/// handshake is already recorded as failed.
fn answer_session_streams(
    server: &Server,
    id: ConnId,
    ctl: &Arc<ConnCtl>,
    streams: Vec<TcpStream>,
    accept: &SessionAccept,
) -> Option<Vec<(GuardedReader<TcpStream>, GuardedWriter<TcpStream>)>> {
    let mut pairs = Vec::with_capacity(streams.len());
    for (i, mut s) in streams.into_iter().enumerate() {
        let ok = (i > 0 || io::Write::write_all(&mut s, &accept.encode()).is_ok())
            && s.set_read_timeout(Some(SESSION_DRAIN_POLL)).is_ok()
            && s.set_write_timeout(Some(SESSION_DRAIN_POLL)).is_ok();
        let reader = if ok { s.try_clone().ok() } else { None };
        match reader {
            Some(r) => pairs.push((
                GuardedReader::new(r, Arc::clone(ctl), i == 0),
                GuardedWriter::new(s, Arc::clone(ctl)),
            )),
            None => {
                server.registry().fail_handshake(id);
                return None;
            }
        }
    }
    Some(pairs)
}

fn serve_new_session(server: Arc<Server>, streams: Vec<TcpStream>, peer: SocketAddr) {
    let n = streams.len();
    let peer_label = format!("{peer} x{n}");
    let id = server.registry().register(peer_label.clone());
    let mut ghostbuster = RegistryGuard::new(&server, id);
    let ctl = ConnCtl::new(server.drain_state());
    let session_id = server.sessions().mint_id();
    let ttl_us = server
        .config()
        .ticket_ttl
        .as_micros()
        .min(u128::from(u64::MAX)) as u64;
    let expires_us = unix_now_us().saturating_add(ttl_us);
    let ticket = server.ticket_key().mint(session_id, expires_us);
    let accept = SessionAccept {
        status: session_status::OK,
        resumed: 0,
        session_id,
        expires_us,
        mac: ticket.mac,
        next_seq: 0,
        delivered_raw: 0,
    };
    let Some(pairs) = answer_session_streams(&server, id, &ctl, streams, &accept) else {
        return;
    };
    let cfg = server.conn_config(id, n, &peer_label);
    server.registry().activate(id, n);
    match AdocStreamGroup::from_pairs(pairs, cfg) {
        Ok(group) => run_session(
            &server,
            id,
            session_id,
            peer.ip(),
            group,
            &ctl,
            None,
            &mut ghostbuster,
        ),
        Err(_) => server.registry().remove(id, ConnOutcome::Failed),
    }
}

fn serve_resumed_session(
    server: Arc<Server>,
    mut streams: Vec<TcpStream>,
    peer: SocketAddr,
    hello: SessionHello,
    hello_timeout: Duration,
) {
    let n = streams.len();
    let session_id = hello.session_id;
    // The dying connection parks its session only after its serve thread
    // unwinds, so a fast reconnect can beat the park: poll briefly.
    let give_up = Instant::now() + hello_timeout / 2;
    let parked = loop {
        match server.sessions().take(session_id) {
            Some(p) => break Some(p),
            None if Instant::now() >= give_up || server.is_draining() => break None,
            None => thread::sleep(Duration::from_millis(5)),
        }
    };
    let refuse = |primary: &mut TcpStream, reason| {
        let status = session_status::RESUME_REJECTED;
        reject_session(&server, primary, status, Some(session_id), reason);
    };
    let Some(parked) = parked else {
        let draining = server.is_draining();
        return refuse(
            &mut streams[0],
            if draining { "draining" } else { "unknown" },
        );
    };
    if parked.peer != peer.ip() {
        // The ticket is bearer-style; the IP pin narrows replay. Re-park
        // so the legitimate client can still come back.
        server.sessions().park(session_id, parked);
        return refuse(&mut streams[0], "peer");
    }
    let id = parked.conn;
    if !server.registry().resume(id, n) {
        // The registry entry vanished (swept between take and here).
        return refuse(&mut streams[0], "unknown");
    }
    let peer_label = format!("{peer} x{n}");
    let mut ghostbuster = RegistryGuard::new(&server, id);
    let ctl = ConnCtl::new(server.drain_state());
    let (next_seq, delivered_raw) = parked
        .partial
        .as_ref()
        .map(|p| (p.next_seq, p.buf.len() as u64))
        .unwrap_or((0, 0));
    let accept = SessionAccept {
        status: session_status::OK,
        resumed: 1,
        session_id,
        expires_us: hello.expires_us,
        mac: hello.mac,
        next_seq,
        delivered_raw,
    };
    let Some(pairs) = answer_session_streams(&server, id, &ctl, streams, &accept) else {
        return;
    };
    // The new transport may have a different stream count; the sender
    // re-stripes accordingly. Scheduler state (tier, token balance,
    // admitted bytes) carries over when it was captured.
    let cfg = match parked.carryover {
        Some(co) => server.conn_config_resumed(id, n, co),
        None => server.conn_config(id, n, &peer_label),
    };
    server.sessions().count_resumed();
    server.events().emit(Event::SessionResumed {
        conn: id,
        session_id,
        streams: n,
        mid_message: parked.partial.is_some(),
    });
    match AdocStreamGroup::from_pairs(pairs, cfg) {
        Ok(group) => run_session(
            &server,
            id,
            session_id,
            peer.ip(),
            group,
            &ctl,
            parked.partial,
            &mut ghostbuster,
        ),
        Err(_) => server.registry().remove(id, ConnOutcome::Failed),
    }
}

/// How a session serve ended, decided before the stream group is
/// dropped.
enum SessionEnd {
    Done(ConnOutcome),
    Park {
        carryover: Option<crate::sched::SchedCarryover>,
        partial: Option<PartialRecv>,
    },
}

/// Serves a session connection and settles its fate: completion and
/// hard failures remove the registry entry as usual, while a
/// disconnect-like death (the peer vanished mid-session) detaches the
/// entry and parks the session for a resume within the window.
#[allow(clippy::too_many_arguments)]
fn run_session(
    server: &Server,
    id: ConnId,
    session_id: u64,
    peer: IpAddr,
    mut group: AdocStreamGroup<GuardedReader<TcpStream>, GuardedWriter<TcpStream>>,
    ctl: &ConnCtl,
    resume: Option<PartialRecv>,
    guard: &mut RegistryGuard<'_>,
) {
    let end = match message_loop(server, id, &mut group, ctl, resume) {
        Ok(_) => SessionEnd::Done(ConnOutcome::Completed),
        Err((e, partial)) => {
            let disconnect = matches!(
                e.kind(),
                io::ErrorKind::UnexpectedEof
                    | io::ErrorKind::ConnectionReset
                    | io::ErrorKind::ConnectionAborted
                    | io::ErrorKind::BrokenPipe
            );
            if disconnect && !server.is_draining() {
                // Scheduler state must be read while the group — whose
                // throttle handle owns the bucket — is still alive.
                let carryover = server.scheduler().carryover_of(id);
                server.registry().detach(id);
                SessionEnd::Park { carryover, partial }
            } else {
                SessionEnd::Done(ConnOutcome::Failed)
            }
        }
    };
    // The group must be gone before the session is published as parked:
    // a resume arriving earlier could restore the scheduler bucket and
    // then lose it to the old throttle handle's deregistration.
    drop(group);
    match end {
        SessionEnd::Done(outcome) => {
            server.registry().remove(id, outcome);
            server.tracer().deregister(id);
        }
        SessionEnd::Park { carryover, partial } => {
            server.sessions().park(
                session_id,
                ParkedSession {
                    conn: id,
                    peer,
                    carryover,
                    partial,
                    deadline: Instant::now() + server.config().resume_window,
                },
            );
            guard.disarm();
        }
    }
}
