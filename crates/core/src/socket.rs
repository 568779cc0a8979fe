//! The idiomatic connection type: [`AdocStreamGroup`] wraps `N`
//! reader/writer pairs (TCP halves, simulated link halves, pipes …) and
//! exposes the paper's seven operations with Rust types, running every
//! message through the one pipeline in [`crate::sender`] /
//! [`crate::receiver`]. [`AdocSocket`] is its `N == 1` spelling — the
//! paper's single socket, speaking the v1 wire format.

use crate::config::AdocConfig;
use crate::error::AdocError;
use crate::receiver::{receive, receive_message, RecvProgress, Sink};
use crate::sender::{send, send_message, SendOutcome, StreamState, Supply};
pub use crate::session::ResumePoint;
use crate::session::{SessionTicket, TicketKey};
use crate::stats::TransferStats;
use crate::wire::{session_status, SessionAccept, SessionHello, SessionKind};
use std::fs::File;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};

/// What the server granted at the end of a session handshake: the
/// session's identity and the ticket that can later
/// [resume](AdocStreamGroup::resume_session) it on a brand-new set of
/// TCP connections.
#[derive(Debug, Clone)]
pub struct SessionInfo {
    /// Server-assigned session id (also embedded in the ticket).
    pub session_id: u64,
    /// The bearer ticket for reconnecting. Treat like a credential.
    pub ticket: SessionTicket,
    /// True when this handshake resumed an existing session rather than
    /// opening a fresh one.
    pub resumed: bool,
}

/// The session an OK [`SessionAccept`] granted.
fn session_info(accept: &SessionAccept) -> SessionInfo {
    let session_id = accept.session_id;
    let (expires_us, mac) = (accept.expires_us, accept.mac);
    SessionInfo {
        session_id,
        ticket: SessionTicket {
            session_id,
            expires_us,
            mac,
        },
        resumed: accept.resumed != 0,
    }
}

/// What one send did, mirroring the paper's `slen` out-parameter
/// (`raw / wire` is the achieved compression ratio).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SendReport {
    /// Application payload bytes handed to the call.
    pub raw: u64,
    /// Bytes that actually went on the wire (the paper's `*slen`).
    pub wire: u64,
    /// Probe-measured link speed, if a probe ran.
    pub probe_bps: Option<f64>,
    /// True when the probe classified the link as too fast to compress.
    pub fast_path: bool,
}

/// An AdOC connection over one `Read`/`Write` pair — the paper's single
/// socket: an [`AdocStreamGroup`] of one stream, built with
/// [`AdocStreamGroup::new`] / [`AdocStreamGroup::with_config`].
///
/// ```
/// use adoc::AdocSocket;
/// use adoc_sim::pipe::duplex_pipe;
///
/// let (a, b) = duplex_pipe(1 << 20);
/// let (ar, aw) = a.split();
/// let (br, bw) = b.split();
/// let mut tx = AdocSocket::new(ar, aw);
/// let mut rx = AdocSocket::new(br, bw);
///
/// let report = tx.write(b"hello adoc").unwrap();
/// assert_eq!(report.raw, 10);
/// let mut buf = [0u8; 10];
/// let n = rx.read(&mut buf).unwrap();
/// assert_eq!(&buf[..n], b"hello adoc");
/// ```
pub type AdocSocket<R, W> = AdocStreamGroup<R, W>;

/// One logical AdOC connection over `N` parallel streams (`streams[0]`
/// is the primary). With `N == 1` ([`AdocSocket`]) nothing but the
/// paper's v1 wire format ever reaches the socket; with `N >= 2` large
/// messages stripe across one compression pipeline per stream. A dialled
/// group negotiates the stream count once, at [`Self::connect`] (see
/// [`crate::wire`]'s negotiation rule); one built [`Self::from_pairs`]
/// sends no hello at all.
///
/// ```
/// use adoc::{AdocConfig, AdocStreamGroup};
/// use adoc_sim::pipe::duplex_pipe;
///
/// let n = 2;
/// let (mut left, mut right) = (Vec::new(), Vec::new());
/// for _ in 0..n {
///     let (a, b) = duplex_pipe(1 << 20);
///     left.push(a.split());
///     right.push(b.split());
/// }
/// let cfg = AdocConfig::default().with_streams(n);
/// let mut tx = AdocStreamGroup::from_pairs(left, cfg.clone()).unwrap();
/// let mut rx = AdocStreamGroup::from_pairs(right, cfg).unwrap();
/// tx.write(b"striped hello").unwrap();
/// let mut buf = [0u8; 13];
/// rx.read_exact(&mut buf).unwrap();
/// assert_eq!(&buf, b"striped hello");
/// ```
pub struct AdocStreamGroup<R, W> {
    readers: Vec<R>,
    writers: Vec<W>,
    cfg: AdocConfig,
    /// Decoded bytes from a partially-consumed message (the paper's
    /// temporary buffers for partial reads, §4.1 `adoc_close`).
    leftover: Vec<u8>,
    leftover_pos: usize,
    stats: TransferStats,
    /// Per-stream state kept across messages: `[i]` sends on stream `i`
    /// (codec, level controller, bandwidth monitor); `[0]`'s codec also
    /// decodes.
    stream_state: Vec<StreamState>,
}

impl<R, W> std::fmt::Debug for AdocStreamGroup<R, W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdocStreamGroup")
            .field("streams", &self.readers.len())
            .field("cfg", &self.cfg)
            .finish_non_exhaustive()
    }
}

impl<R: Read + Send, W: Write + Send> AdocStreamGroup<R, W> {
    /// Wraps one reader/writer pair with the default (paper)
    /// configuration.
    pub fn new(reader: R, writer: W) -> Self {
        Self::with_config(reader, writer, AdocConfig::default())
            .expect("the default AdocConfig is always valid")
    }

    /// Wraps one reader/writer pair with an explicit configuration.
    /// Fails with a typed [`AdocError::InvalidConfig`] (inside the
    /// `io::Error`) when the configuration is inconsistent, instead of
    /// letting the bad field panic or hang inside the pipeline threads
    /// later.
    pub fn with_config(reader: R, writer: W, cfg: AdocConfig) -> io::Result<Self> {
        Self::from_pairs(vec![(reader, writer)], cfg)
    }

    /// Builds a group over already-paired streams (index `i` carries
    /// stream `i`; 0 is the primary). `cfg.streams` is set to
    /// `pairs.len()`. No hello is written or read at any width: the
    /// caller has already decided which streams belong together, as
    /// [`Self::accept`] and the `adoc-server` daemon do after their
    /// handshake, and as two ends of a set of pipes do by construction.
    pub fn from_pairs(pairs: Vec<(R, W)>, cfg: AdocConfig) -> io::Result<Self> {
        assert!(!pairs.is_empty(), "a stream group needs at least 1 stream");
        let cfg = cfg.with_streams(pairs.len());
        cfg.validate()?;
        let (readers, writers): (Vec<R>, Vec<W>) = pairs.into_iter().unzip();
        Ok(AdocStreamGroup {
            stream_state: vec![StreamState::new(&cfg)],
            readers,
            writers,
            cfg,
            leftover: Vec::new(),
            leftover_pos: 0,
            stats: TransferStats::new(),
        })
    }

    /// Number of streams in this group.
    pub fn streams(&self) -> usize {
        self.readers.len()
    }

    /// Connection configuration.
    pub fn config(&self) -> &AdocConfig {
        &self.cfg
    }

    /// Cumulative transfer statistics (including
    /// [`TransferStats::per_stream`] totals for striped messages).
    pub fn stats(&self) -> &TransferStats {
        &self.stats
    }

    /// Sends `data` as one message (the paper's `adoc_write`): blocks
    /// until every byte is on the sockets, adapting the compression
    /// level throughout.
    pub fn write(&mut self, data: &[u8]) -> io::Result<SendReport> {
        self.write_levels(data, self.cfg.min_level, self.cfg.max_level)
    }

    /// `adoc_write_levels`: like [`Self::write`] with level bounds for
    /// this call only. `max = 0` disables compression; `min ≥ 1` forces
    /// it.
    pub fn write_levels(&mut self, data: &[u8], min: u8, max: u8) -> io::Result<SendReport> {
        let cfg = self.cfg.clone().with_levels(min, max);
        cfg.validate()?;
        let (writers, streams) = (&mut self.writers, &mut self.stream_state);
        let (slice, len) = (Supply::<R>::Slice(data), data.len() as u64);
        let out = send(writers, slice, len, None, &cfg, streams)?;
        Ok(self.merge(out, len))
    }

    /// Continues sending a message interrupted on a previous connection:
    /// ships `data[at.delivered_raw..]` as frames numbered from
    /// `at.next_seq`, re-striping the remainder across however many
    /// streams *this* group has. `data` must be the same message the
    /// interrupted send was transmitting. The report covers the resumed
    /// portion only.
    pub fn write_resumed(&mut self, data: &[u8], at: ResumePoint) -> io::Result<SendReport> {
        let total = data.len() as u64;
        // A resume point past the end is refused by `send` before it
        // writes anything.
        let tail = usize::try_from(at.delivered_raw)
            .ok()
            .and_then(|d| data.get(d..))
            .unwrap_or_default();
        let (writers, streams) = (&mut self.writers, &mut self.stream_state);
        let tail = Supply::<R>::Slice(tail);
        let out = send(writers, tail, total, Some(at), &self.cfg, streams)?;
        Ok(self.merge(out, total - at.delivered_raw))
    }

    fn merge(&mut self, out: SendOutcome, raw: u64) -> SendReport {
        out.merge_into(&mut self.stats, raw);
        SendReport {
            raw,
            wire: out.wire_bytes,
            probe_bps: out.probe_bps,
            fast_path: out.fast_path,
        }
    }

    /// Receives into `out` with POSIX `read` semantics (the paper's
    /// `adoc_read`): blocks for at least one byte, may return fewer than
    /// requested (message boundaries cause short reads), `Ok(0)` only at
    /// end of stream — or for a zero-length message, which delivers 0
    /// bytes without ending the stream.
    pub fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        if out.is_empty() {
            return Ok(0);
        }
        if self.leftover_len() == 0 {
            self.leftover.clear();
            self.leftover_pos = 0;
            let mut sink = ReadSink {
                out,
                filled: 0,
                spill: &mut self.leftover,
            };
            receive(
                &mut self.readers,
                &mut sink,
                &self.cfg,
                &mut RecvProgress::default(),
                None,
                &mut self.stream_state[0].codec,
            )?;
            return Ok(sink.filled);
        }
        let n = self.leftover_len().min(out.len());
        out[..n].copy_from_slice(&self.leftover[self.leftover_pos..self.leftover_pos + n]);
        self.leftover_pos += n;
        Ok(n)
    }

    /// Reads exactly `out.len()` bytes across message boundaries.
    pub fn read_exact(&mut self, out: &mut [u8]) -> io::Result<()> {
        let mut filled = 0;
        while filled < out.len() {
            let n = self.read(&mut out[filled..])?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream ended mid read_exact",
                ));
            }
            filled += n;
        }
        Ok(())
    }

    fn leftover_len(&self) -> usize {
        self.leftover.len() - self.leftover_pos
    }

    /// Streams exactly `len` bytes from any reader as one message
    /// (generalizes `adoc_send_file` to non-file sources).
    pub fn send_reader(
        &mut self,
        source: &mut (impl Read + Send),
        len: u64,
        cfg: &AdocConfig,
    ) -> io::Result<SendReport> {
        let (writers, streams) = (&mut self.writers, &mut self.stream_state);
        let out = send_message(writers, source, len, None, cfg, streams)?;
        Ok(self.merge(out, len))
    }

    /// `adoc_send_file`: streams a file as one message; returns the file
    /// size and wire bytes (the paper returns the size and outputs `slen`).
    pub fn send_file(&mut self, file: &mut File) -> io::Result<SendReport> {
        let cfg = self.cfg.clone();
        let len = file.metadata()?.len();
        self.send_reader(file, len, &cfg)
    }

    /// `adoc_send_file_levels`: level-bounded variant.
    pub fn send_file_levels(
        &mut self,
        file: &mut File,
        min: u8,
        max: u8,
    ) -> io::Result<SendReport> {
        let cfg = self.cfg.clone().with_levels(min, max);
        cfg.validate()?;
        let len = file.metadata()?.len();
        self.send_reader(file, len, &cfg)
    }

    /// `adoc_receive_file`: drains any partially-read message, then
    /// receives exactly one message, streaming it into `sink`. Returns the
    /// number of bytes stored.
    pub fn receive_file(&mut self, sink: &mut impl Write) -> io::Result<u64> {
        self.receive_file_tracked(sink, &mut RecvProgress::default(), None)
    }

    /// [`Self::receive_file`] for a session-serving caller. Delivery
    /// progress is reported through `progress`: when the receive fails
    /// mid-message, `progress` plus the bytes already written to `sink`
    /// define the resume point to park for the reconnecting peer. Passing
    /// that parked progress back as `resume` — on a new group, of any
    /// width — continues the interrupted message (see
    /// [`receive_message`]) instead of starting a fresh one.
    pub fn receive_file_tracked(
        &mut self,
        sink: &mut impl Write,
        progress: &mut RecvProgress,
        resume: Option<RecvProgress>,
    ) -> io::Result<u64> {
        let drained = self.leftover_len() as u64;
        sink.write_all(&self.leftover[self.leftover_pos..])?;
        self.leftover.clear();
        self.leftover_pos = 0;
        let codec = &mut self.stream_state[0].codec;
        let n = receive_message(&mut self.readers, sink, &self.cfg, progress, resume, codec)?;
        Ok(drained + n.unwrap_or(0))
    }

    /// `adoc_close`: flushes every stream and frees the partial-read
    /// buffers. The underlying streams close on drop.
    pub fn close(mut self) -> io::Result<()> {
        self.close_mut()
    }

    /// In-place close used by the descriptor registry.
    pub(crate) fn close_mut(&mut self) -> io::Result<()> {
        self.leftover = Vec::new();
        self.leftover_pos = 0;
        self.flush()
    }

    /// Consumes the group, returning the underlying stream pairs.
    pub fn into_pairs(self) -> Vec<(R, W)> {
        self.readers.into_iter().zip(self.writers).collect()
    }

    /// Consumes the connection, returning the primary stream's halves —
    /// the only ones, for a connection built from one pair.
    pub fn into_inner(self) -> (R, W) {
        self.into_pairs().swap_remove(0)
    }
}

/// Where [`AdocStreamGroup::read`] receives a message: decoded bytes go
/// straight into the caller's buffer, and only what does not fit spills
/// into the connection's leftover buffer for the next read. A caller that
/// reads whole messages never makes the connection hold a message-sized
/// allocation of its own, and its unfilled tail is the window a stored
/// frame that fits lands in.
struct ReadSink<'a> {
    out: &'a mut [u8],
    filled: usize,
    spill: &'a mut Vec<u8>,
}

impl Write for ReadSink<'_> {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        let n = data.len().min(self.out.len() - self.filled);
        self.out[self.filled..self.filled + n].copy_from_slice(&data[..n]);
        self.filled += n;
        self.spill.extend_from_slice(&data[n..]);
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Sink for ReadSink<'_> {
    fn window(&mut self, len: usize) -> Option<&mut [u8]> {
        let start = self.filled;
        self.filled = start
            .checked_add(len)
            .filter(|&end| end <= self.out.len())?;
        Some(&mut self.out[start..self.filled])
    }
}

/// Maps a non-OK [`SessionAccept`] status to the typed error the client
/// surfaces.
fn session_reject_error(status: u8) -> io::Error {
    match status {
        session_status::AUTH_FAILED => AdocError::AuthFailed {
            reason: "server refused the session hello".into(),
        }
        .into(),
        session_status::TICKET_EXPIRED => AdocError::ResumeRejected {
            reason: "session ticket expired".into(),
        }
        .into(),
        session_status::RESUME_REJECTED => AdocError::ResumeRejected {
            reason: "unknown, reclaimed, or non-resumable session".into(),
        }
        .into(),
        other => io::Error::new(
            io::ErrorKind::InvalidData,
            format!("session handshake rejected with unknown status {other}"),
        ),
    }
}

/// A process-unique nonzero group token for a dial's [`SessionHello`]s:
/// a counter mixed with wall-clock nanoseconds, so tokens from distinct
/// processes dialling the same server virtually never collide.
fn fresh_group_token() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::{SystemTime, UNIX_EPOCH};
    static COUNTER: AtomicU64 = AtomicU64::new(1);
    let c = COUNTER.fetch_add(1, Ordering::Relaxed);
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    (nanos
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(c.wrapping_mul(0xD1B5_4A32_D192_ED03)))
    .max(1)
}

impl AdocStreamGroup<TcpStream, TcpStream> {
    /// Dials `cfg.streams` TCP connections to `addr` and forms a group
    /// (connection `i` carries stream `i`). One stream is a plain v1
    /// socket with no hello. Two or more open an unauthenticated session
    /// ([`Self::connect_session`] with no secret, its [`SessionInfo`]
    /// dropped), whose token lets a multi-client acceptor match the
    /// connections even when other dials interleave. The peer must
    /// [`Self::accept`] the same number of connections (or be an
    /// `adoc-server` daemon).
    pub fn connect(addr: impl ToSocketAddrs, cfg: AdocConfig) -> io::Result<Self> {
        cfg.validate()?;
        if cfg.streams >= 2 {
            return Self::connect_session(addr, cfg, None).map(|(group, _)| group);
        }
        let s = TcpStream::connect(addr)?;
        s.set_nodelay(true).ok();
        Self::from_pairs(vec![(s.try_clone()?, s)], cfg)
    }

    /// Dials `cfg.streams` TCP connections and opens an authenticated,
    /// resumable **session** with an `adoc-server` daemon (version-4
    /// handshake). `secret`, when given, must match the server's
    /// configured auth secret: each hello then carries a MAC binding the
    /// stream count and group token, which a `require_auth` server
    /// demands before admitting the connection anywhere. Returns the
    /// group plus the [`SessionInfo`] whose ticket can later
    /// [`Self::resume_session`] after a disconnect.
    pub fn connect_session(
        addr: impl ToSocketAddrs,
        cfg: AdocConfig,
        secret: Option<&[u8]>,
    ) -> io::Result<(Self, SessionInfo)> {
        let token = fresh_group_token();
        let mac = match secret {
            Some(s) => TicketKey::from_secret(s).hello_mac(cfg.streams as u8, token),
            None => [0u8; 16],
        };
        let (group, accept) =
            Self::session_handshake(addr, cfg, token, SessionKind::New, 0, 0, mac)?;
        Ok((group, session_info(&accept)))
    }

    /// Reconnects to a session after a disconnect, presenting `ticket`
    /// as the credential (no secret needed — the ticket is bearer
    /// authentication). The new dial may use a *different*
    /// `cfg.streams` than the original connection. Returns the fresh
    /// group, the (re-issued) session info, and the [`ResumePoint`]
    /// telling the sender where to continue an interrupted message —
    /// `(0, 0)` when the last message completed and the next send starts
    /// at a message boundary.
    pub fn resume_session(
        addr: impl ToSocketAddrs,
        cfg: AdocConfig,
        ticket: &SessionTicket,
    ) -> io::Result<(Self, SessionInfo, ResumePoint)> {
        let token = fresh_group_token();
        let (group, accept) = Self::session_handshake(
            addr,
            cfg,
            token,
            SessionKind::Resume,
            ticket.session_id,
            ticket.expires_us,
            ticket.mac,
        )?;
        let at = ResumePoint {
            next_seq: accept.next_seq,
            delivered_raw: accept.delivered_raw,
        };
        Ok((group, session_info(&accept), at))
    }

    /// The client half of the version-4 handshake: dial every stream,
    /// announce an identical [`SessionHello`] on each, then read the one
    /// [`SessionAccept`] on the primary. A rejection surfaces as a typed
    /// [`AdocError::AuthFailed`] / [`AdocError::ResumeRejected`].
    fn session_handshake(
        addr: impl ToSocketAddrs,
        cfg: AdocConfig,
        token: u64,
        kind: SessionKind,
        session_id: u64,
        expires_us: u64,
        mac: [u8; 16],
    ) -> io::Result<(Self, SessionAccept)> {
        cfg.validate()?;
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no address resolved"))?;
        let n = cfg.streams;
        let mut streams = Vec::with_capacity(n);
        for i in 0..n {
            let s = TcpStream::connect(addr)?;
            s.set_nodelay(true).ok();
            (&s).write_all(
                &SessionHello {
                    streams: n as u8,
                    stream_id: i as u8,
                    token,
                    kind,
                    session_id,
                    expires_us,
                    mac,
                }
                .encode(),
            )?;
            streams.push(s);
        }
        streams[0].set_read_timeout(Some(cfg.hello_timeout))?;
        let accept = SessionAccept::read(&mut &streams[0])
            .map_err(|e| AdocError::map_hello_timeout(e, cfg.hello_timeout))?;
        if accept.status != session_status::OK {
            return Err(session_reject_error(accept.status));
        }
        streams[0].set_read_timeout(None)?;
        let mut pairs = Vec::with_capacity(n);
        for s in streams {
            pairs.push((s.try_clone()?, s));
        }
        let group = Self::from_pairs(pairs, cfg)?;
        Ok((group, accept))
    }

    /// Hard-kills every TCP stream in the group (both directions),
    /// simulating an abrupt network failure: the peer sees connection
    /// resets mid-message. The group is unusable afterwards; used by the
    /// churn load generator and the failure-injection tests to exercise
    /// session resume.
    pub fn shutdown_streams(&self) -> io::Result<()> {
        for w in &self.writers {
            match w.shutdown(std::net::Shutdown::Both) {
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::NotConnected => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Accepts `cfg.streams` TCP connections from `listener` and forms a
    /// group — the acceptor half of the negotiation rule. One stream is a
    /// plain v1 socket. Otherwise each connection must deliver a
    /// [`SessionHello`] naming its stream id (they may arrive in any
    /// order); the acceptor re-orders them and answers one
    /// [`SessionAccept`] on the primary. It holds no secret, so it
    /// ignores the MAC, and it keeps no sessions, so it refuses a resume
    /// with [`AdocError::ResumeRejected`].
    ///
    /// [`AdocConfig::hello_timeout`] bounds both halves of the
    /// handshake: once the *first* connection arrives, the remaining
    /// dials must land within the timeout, and each connected peer must
    /// deliver its hello within the timeout — either failure surfaces as
    /// a typed [`AdocError::HelloTimeout`] instead of wedging the accept
    /// loop forever (a client may die between its dials just as easily
    /// as between connecting and its hello).
    pub fn accept(listener: &TcpListener, cfg: AdocConfig) -> io::Result<Self> {
        cfg.validate()?;
        let n = cfg.streams;
        if n == 1 {
            let (s, _) = listener.accept()?;
            s.set_nodelay(true).ok();
            return Self::from_pairs(vec![(s.try_clone()?, s)], cfg);
        }
        // Accept every connection before reading any hello: the peer
        // only starts its handshake once all of its dials succeeded, and
        // blocking on a hello mid-accept would deadlock stream counts
        // beyond the listener backlog. Waiting for the first connection
        // blocks indefinitely (nothing has gone wrong while nobody is
        // dialling); after that the rest of the group must arrive within
        // the hello timeout.
        let mut incoming = Vec::with_capacity(n);
        let (first, _) = listener.accept()?;
        first.set_nodelay(true).ok();
        incoming.push(first);
        let deadline = std::time::Instant::now() + cfg.hello_timeout;
        listener.set_nonblocking(true)?;
        let collect = (|| -> io::Result<()> {
            while incoming.len() < n {
                match listener.accept() {
                    Ok((s, _)) => {
                        s.set_nodelay(true).ok();
                        incoming.push(s);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        if std::time::Instant::now() >= deadline {
                            return Err(AdocError::HelloTimeout {
                                timeout: cfg.hello_timeout,
                            }
                            .into());
                        }
                        std::thread::sleep(std::time::Duration::from_millis(5));
                    }
                    Err(e) => return Err(e),
                }
            }
            Ok(())
        })();
        // Restore the listener before reporting, so a failed accept does
        // not leave it nonblocking for the caller's next use.
        listener.set_nonblocking(false)?;
        collect?;
        let mut slots: Vec<Option<TcpStream>> = (0..n).map(|_| None).collect();
        let mut resume = false;
        for s in incoming {
            s.set_read_timeout(Some(cfg.hello_timeout))?;
            let hello = SessionHello::read(&mut &s)
                .map_err(|e| AdocError::map_hello_timeout(e, cfg.hello_timeout))?;
            // Message reads after the handshake block indefinitely again.
            s.set_read_timeout(None)?;
            if hello.streams as usize != n {
                return Err(AdocError::StreamCountMismatch {
                    ours: n as u8,
                    theirs: hello.streams,
                }
                .into());
            }
            let id = hello.stream_id as usize;
            if id >= n || slots[id].is_some() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("invalid or duplicate stream id {id} in group handshake"),
                ));
            }
            resume |= hello.kind == SessionKind::Resume;
            slots[id] = Some(s);
        }
        let streams: Vec<TcpStream> = slots.into_iter().flatten().collect();
        // This acceptor mints no tickets and keeps no sessions: its OK
        // names session 0 with a zero MAC, and a resume is refused.
        let status = if resume {
            session_status::RESUME_REJECTED
        } else {
            session_status::OK
        };
        (&streams[0]).write_all(&SessionAccept::reject(status).encode())?;
        if resume {
            return Err(session_reject_error(status));
        }
        let mut pairs = Vec::with_capacity(n);
        for s in streams {
            pairs.push((s.try_clone()?, s));
        }
        Self::from_pairs(pairs, cfg)
    }
}

/// `std::io::Read`: makes the connection a drop-in replacement wherever
/// plain stream reads are used (`io::copy`, `read_to_end`, `BufReader`,
/// …) — the paper's integration story.
impl<R: Read + Send, W: Write + Send> Read for AdocStreamGroup<R, W> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        AdocStreamGroup::read(self, buf)
    }
}

/// `std::io::Write`: each call sends one AdOC message (write-combining
/// callers should wrap in `BufWriter` to avoid tiny messages).
impl<R: Read + Send, W: Write + Send> Write for AdocStreamGroup<R, W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        AdocStreamGroup::write(self, buf).map(|r| r.raw as usize)
    }

    fn flush(&mut self) -> io::Result<()> {
        for w in &mut self.writers {
            w.flush()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adoc_sim::pipe::duplex_pipe;
    use std::thread;

    fn pair() -> (
        AdocSocket<adoc_sim::pipe::PipeReader, adoc_sim::pipe::PipeWriter>,
        AdocSocket<adoc_sim::pipe::PipeReader, adoc_sim::pipe::PipeWriter>,
    ) {
        let (a, b) = duplex_pipe(1 << 20);
        let (ar, aw) = a.split();
        let (br, bw) = b.split();
        (AdocSocket::new(ar, aw), AdocSocket::new(br, bw))
    }

    fn payload(n: usize) -> Vec<u8> {
        let mut v = Vec::with_capacity(n);
        let mut x = 5u64;
        while v.len() < n {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            if x.is_multiple_of(2) {
                v.extend_from_slice(b"window pane window pane ");
            } else {
                v.extend_from_slice(&x.to_le_bytes());
            }
        }
        v.truncate(n);
        v
    }

    #[test]
    fn small_roundtrip_and_stats() {
        let (mut tx, mut rx) = pair();
        let report = tx.write(b"tiny").unwrap();
        assert_eq!(report.raw, 4);
        assert!(report.wire >= 4);
        let mut buf = [0u8; 16];
        let n = rx.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"tiny");
        assert_eq!(tx.stats().messages, 1);
        assert_eq!(tx.stats().direct_messages, 1);
    }

    #[test]
    fn partial_reads_sixty_forty() {
        // The paper's example: send 100 (scaled: 1 MB), read 60 % then 40 %.
        let (tx, mut rx) = pair();
        let data = payload(1_000_000);
        let data2 = data.clone();
        let t = thread::spawn(move || {
            let mut tx = tx;
            tx.write(&data2).unwrap();
            tx
        });
        let mut first = vec![0u8; 600_000];
        rx.read_exact(&mut first).unwrap();
        let mut second = vec![0u8; 400_000];
        rx.read_exact(&mut second).unwrap();
        t.join().unwrap();
        assert_eq!(first, data[..600_000]);
        assert_eq!(second, data[600_000..]);
    }

    #[test]
    fn multiple_messages_in_sequence() {
        let (tx, mut rx) = pair();
        let msgs: Vec<Vec<u8>> = (0..5).map(|i| payload(10_000 + i * 3733)).collect();
        let msgs2 = msgs.clone();
        let t = thread::spawn(move || {
            let mut tx = tx;
            for m in &msgs2 {
                tx.write(m).unwrap();
            }
            tx
        });
        for m in &msgs {
            let mut buf = vec![0u8; m.len()];
            rx.read_exact(&mut buf).unwrap();
            assert_eq!(&buf, m);
        }
        t.join().unwrap();
    }

    #[test]
    fn read_returns_short_at_message_boundary() {
        let (mut tx, mut rx) = pair();
        tx.write(b"abc").unwrap();
        tx.write(b"defg").unwrap();
        let mut buf = [0u8; 64];
        // POSIX semantics: the first read must not cross into message 2.
        let n1 = rx.read(&mut buf).unwrap();
        assert_eq!(&buf[..n1], b"abc");
        let n2 = rx.read(&mut buf).unwrap();
        assert_eq!(&buf[..n2], b"defg");
    }

    #[test]
    fn whole_message_read_buffers_nothing() {
        // A read that can take the whole message decodes into the
        // caller's buffer; the connection allocates no copy of its own.
        let (tx, mut rx) = pair();
        let data = payload(1_000_000);
        let data2 = data.clone();
        let t = thread::spawn(move || {
            let mut tx = tx;
            tx.write(&data2).unwrap();
            tx
        });
        let mut buf = vec![0u8; data.len() + 1];
        let n = rx.read(&mut buf).unwrap();
        t.join().unwrap();
        assert_eq!(buf[..n], data[..]);
        assert_eq!(rx.leftover.capacity(), 0);
    }

    /// A socket pair whose probe always judges the link fast.
    fn fast_pair(tx_cfg: &AdocConfig, rx_cfg: &AdocConfig) -> (Sock, Sock) {
        let (a, b) = duplex_pipe(1 << 20);
        let ((ar, aw), (br, bw)) = (a.split(), b.split());
        let tx = AdocSocket::with_config(ar, aw, tx_cfg.clone()).unwrap();
        (tx, AdocSocket::with_config(br, bw, rx_cfg.clone()).unwrap())
    }

    type Sock = AdocSocket<adoc_sim::pipe::PipeReader, adoc_sim::pipe::PipeWriter>;

    fn fast_cfg() -> AdocConfig {
        AdocConfig {
            fast_bps: 0.0,
            ..AdocConfig::default()
        }
    }

    /// Pool checkouts per message on each side of three `len`-byte
    /// messages, each side configured by `cfg` with a pool of its own and
    /// each send checked by `sent_as`.
    fn checkouts_per_message(
        cfg: fn() -> AdocConfig,
        len: usize,
        sent_as: fn(&SendReport) -> bool,
    ) -> (Vec<u64>, Vec<u64>) {
        let (tx_cfg, rx_cfg) = (cfg(), cfg());
        let (mut tx, mut rx) = fast_pair(&tx_cfg, &rx_cfg);
        let data = payload(len);
        let checkouts = |cfg: &AdocConfig| {
            let s = cfg.pool.stats();
            s.hits + s.misses
        };
        let sender = thread::spawn({
            let data = data.clone();
            move || {
                (0..3)
                    .map(|_| {
                        let before = checkouts(&tx_cfg);
                        assert!(sent_as(&tx.write(&data).unwrap()));
                        checkouts(&tx_cfg) - before
                    })
                    .collect::<Vec<_>>()
            }
        });
        let mut buf = vec![0u8; data.len()];
        let mut received = Vec::new();
        for _ in 0..3 {
            let before = checkouts(&rx_cfg);
            rx.read_exact(&mut buf).unwrap();
            received.push(checkouts(&rx_cfg) - before);
            assert!(buf == data);
        }
        (sender.join().unwrap(), received)
    }

    #[test]
    fn a_fast_path_echo_checks_out_no_buffer_per_frame() {
        // 16 MiB, 81 stored frames behind the probe: after a warm-up
        // message, a frame leaves from the caller's slice and the probe
        // and every frame land in the caller's buffer, so the sender's one
        // checkout per message is the probe's copy buffer and the
        // receiver takes none.
        let (sent, received) = checkouts_per_message(fast_cfg, 16 << 20, |r| r.fast_path);
        assert_eq!((&sent[1..], &received[1..]), (&[1, 1][..], &[0, 0][..]));
    }

    #[test]
    fn a_direct_echo_checks_out_no_buffer() {
        // 4 MiB at level 0 is one direct body: after a warm-up message it
        // leaves from the caller's slice and lands in the caller's buffer.
        let cfg = || fast_cfg().with_levels(0, 0);
        let (sent, received) = checkouts_per_message(cfg, 4 << 20, |r| r.probe_bps.is_none());
        assert_eq!((&sent[1..], &received[1..]), (&[0, 0][..], &[0, 0][..]));
    }

    #[test]
    fn a_stored_frame_larger_than_the_room_left_spills_byte_exactly() {
        // The 256 KiB probe leaves 37,856 bytes of a 300,000-byte read, so
        // the first 200 KiB frame does not fit what is left: it is
        // delivered through the pooled payload, its tail and every later
        // frame through the leftover buffer, in odd-sized short reads.
        let (tx, mut rx) = fast_pair(&fast_cfg(), &fast_cfg());
        let data = payload(1_000_000);
        let t = thread::spawn({
            let data = data.clone();
            move || {
                let mut tx = tx;
                assert!(tx.write(&data).unwrap().fast_path);
                tx.write(b"next").unwrap();
            }
        });
        let mut got = vec![0u8; 300_000];
        assert_eq!(rx.read(&mut got).unwrap(), 300_000);
        assert_eq!(rx.leftover_len(), 700_000);
        let mut buf = vec![0u8; 77_777];
        while got.len() < data.len() {
            let n = rx.read(&mut buf).unwrap();
            assert!(n > 0 && n <= data.len() - got.len());
            got.extend_from_slice(&buf[..n]);
        }
        assert!(got == data);
        assert_eq!(rx.read(&mut buf).unwrap(), 4, "the next message");
        assert_eq!(&buf[..4], b"next");
        t.join().unwrap();
    }

    #[test]
    fn reads_are_total_on_damaged_v1_fixtures() {
        // Every damaged case read through `read` gives the verdict and the
        // bytes a `Vec` sink gets. A 38,000-byte read of the intact
        // 40,000-byte fast-path capture lands its probe and first stored
        // frame in the buffer and spills the second frame.
        let mut buf = vec![0u8; 38_000];
        crate::receiver::tests::damaged_v1_cases(|cfg, bytes, what| {
            let mut want = Vec::new();
            let mut codec = adoc_codec::Codec::new();
            let mut progress = RecvProgress::default();
            let res = receive_message(
                &mut [io::Cursor::new(bytes)],
                &mut want,
                cfg,
                &mut progress,
                None,
                &mut codec,
            );
            let (source, sink) = (io::Cursor::new(bytes), io::sink());
            let mut sock = AdocSocket::with_config(source, sink, cfg.clone()).unwrap();
            let read = sock.read(&mut buf);
            assert_eq!(read.is_ok(), res.is_ok(), "{what}");
            if let Ok(n) = read {
                let got = [&buf[..n], &sock.leftover[..]].concat();
                assert!(got == want, "{what}");
            }
            if what == "v1_fast_path" {
                assert_eq!(sock.leftover.len(), 2_000, "the intact capture spills");
            }
        });
    }

    #[test]
    fn eof_reads_zero() {
        let (tx, mut rx) = pair();
        drop(tx); // closes the tx→rx direction
        let mut buf = [0u8; 8];
        assert_eq!(rx.read(&mut buf).unwrap(), 0);
    }

    #[test]
    fn write_levels_disable_and_force() {
        let (tx, mut rx) = pair();
        let data = payload(900_000);
        let data2 = data.clone();
        let t = thread::spawn(move || {
            let mut tx = tx;
            // Disabled: wire ≈ raw + header.
            let r0 = tx.write_levels(&data2, 0, 0).unwrap();
            assert_eq!(
                r0.wire,
                data2.len() as u64 + crate::wire::MSG_HEADER_LEN as u64
            );
            // Forced: text-heavy payload must shrink.
            let r1 = tx.write_levels(&data2, 1, 10).unwrap();
            assert!(r1.wire < r0.wire);
            tx
        });
        for _ in 0..2 {
            let mut buf = vec![0u8; data.len()];
            rx.read_exact(&mut buf).unwrap();
            assert_eq!(buf, data);
        }
        t.join().unwrap();
    }

    #[test]
    fn second_message_reuses_the_first_messages_codec() {
        let (mut tx, mut rx) = pair();
        assert_eq!(tx.stream_state[0].codec.dictionary_len(), 0);
        let data = payload(500_000);
        let expect = data.clone();
        let t = thread::spawn(move || {
            let mut buf = vec![0u8; expect.len()];
            for _ in 0..2 {
                rx.read_exact(&mut buf).unwrap();
                assert_eq!(buf, expect);
            }
            rx
        });
        // Forced DEFLATE: the stream's encoder sizes its dictionary to the
        // compression buffer on the first message …
        tx.write_levels(&data, 2, 2).unwrap();
        let warm = tx.stream_state[0].codec.dictionary_len();
        assert_eq!(warm, tx.cfg.buffer_size);
        // … and the second message compresses with that same state.
        tx.write_levels(&data, 2, 2).unwrap();
        assert_eq!(tx.stream_state.len(), 1);
        assert_eq!(tx.stream_state[0].codec.dictionary_len(), warm);
        assert_eq!(t.join().unwrap().stream_state.len(), 1);
    }

    #[test]
    fn send_and_receive_file() {
        let dir = std::env::temp_dir().join("adoc-socket-test");
        std::fs::create_dir_all(&dir).unwrap();
        let src_path = dir.join("src.bin");
        let dst_path = dir.join("dst.bin");
        let data = payload(1_200_000);
        std::fs::write(&src_path, &data).unwrap();

        let (tx, mut rx) = pair();
        let t = thread::spawn(move || {
            let mut tx = tx;
            let mut f = File::open(src_path).unwrap();
            let rep = tx.send_file(&mut f).unwrap();
            assert_eq!(rep.raw, data.len() as u64);
            tx
        });
        let mut dst = File::create(&dst_path).unwrap();
        let n = rx.receive_file(&mut dst).unwrap();
        t.join().unwrap();
        drop(dst);
        assert_eq!(n, 1_200_000);
        let got = std::fs::read(&dst_path).unwrap();
        assert_eq!(got.len(), 1_200_000);
        assert_eq!(&got[..64], &payload(1_200_000)[..64]);
    }

    #[test]
    fn receive_file_drains_leftover_first() {
        let (tx, mut rx) = pair();
        let data = payload(50_000);
        let data2 = data.clone();
        let t = thread::spawn(move || {
            let mut tx = tx;
            tx.write(&data2).unwrap();
            tx.write(b"second message").unwrap();
            tx
        });
        // Consume 10 KB of message 1, then receive_file the rest + msg 2.
        let mut head = vec![0u8; 10_000];
        rx.read_exact(&mut head).unwrap();
        let mut rest: Vec<u8> = Vec::new();
        let n = rx.receive_file(&mut rest).unwrap();
        t.join().unwrap();
        assert_eq!(head, data[..10_000]);
        assert_eq!(n as usize, 40_000 + 14);
        assert_eq!(&rest[..40_000], &data[10_000..]);
        assert_eq!(&rest[40_000..], b"second message");
    }

    #[test]
    fn close_flushes() {
        let (tx, _rx) = pair();
        tx.close().unwrap();
    }
}

#[cfg(test)]
mod group_tests {
    use super::*;
    use adoc_sim::pipe::{duplex_pipe, PipeReader, PipeWriter};
    use std::thread;

    type Group = AdocStreamGroup<PipeReader, PipeWriter>;

    /// Builds both ends of an n-stream group over sim pipes.
    fn group_pair(n: usize, cfg: &AdocConfig) -> (Group, Group) {
        let mut left = Vec::new();
        let mut right = Vec::new();
        for _ in 0..n {
            let (a, b) = duplex_pipe(1 << 20);
            left.push(a.split());
            right.push(b.split());
        }
        let tx = AdocStreamGroup::from_pairs(left, cfg.clone()).unwrap();
        (tx, AdocStreamGroup::from_pairs(right, cfg.clone()).unwrap())
    }

    /// Dials one loopback connection per hello to a fresh listener and
    /// sends that hello on it, as a hand-scripted client; the thread
    /// returns whatever the acceptor answered on the primary.
    fn scripted_dial(
        hellos: Vec<SessionHello>,
    ) -> (TcpListener, thread::JoinHandle<io::Result<SessionAccept>>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = thread::spawn(move || {
            let mut socks = Vec::new();
            for h in &hellos {
                let mut s = TcpStream::connect(addr)?;
                s.write_all(&h.encode())?;
                socks.push(s);
            }
            let primary = hellos.iter().position(|h| h.stream_id == 0).unwrap_or(0);
            SessionAccept::read(&mut &socks[primary])
        });
        (listener, client)
    }

    fn new_hello(streams: u8, stream_id: u8) -> SessionHello {
        SessionHello {
            streams,
            stream_id,
            token: 7,
            kind: SessionKind::New,
            session_id: 0,
            expires_us: 0,
            mac: [0u8; 16],
        }
    }

    fn payload(n: usize) -> Vec<u8> {
        let mut v = Vec::with_capacity(n);
        let mut x = 5u64;
        while v.len() < n {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            if x.is_multiple_of(2) {
                v.extend_from_slice(b"window pane window pane ");
            } else {
                v.extend_from_slice(&x.to_le_bytes());
            }
        }
        v.truncate(n);
        v
    }

    #[test]
    fn single_stream_group_needs_no_handshake() {
        // n == 1: construction is sequential (no hello on the wire), and
        // the stream is v1-interoperable with a plain AdocSocket peer.
        let (a, b) = duplex_pipe(1 << 20);
        let mut tx = AdocStreamGroup::from_pairs(vec![a.split()], AdocConfig::default()).unwrap();
        let (br, bw) = b.split();
        let mut rx = AdocSocket::new(br, bw);
        tx.write(b"v1 compatible").unwrap();
        let mut buf = [0u8; 13];
        rx.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"v1 compatible");
    }

    #[test]
    fn striped_group_roundtrip_with_stats() {
        let cfg = AdocConfig::default().with_levels(1, 10);
        let (tx, mut rx) = group_pair(4, &cfg);
        let data = payload(2 << 20);
        let data2 = data.clone();
        let t = thread::spawn(move || {
            let mut tx = tx;
            let rep = tx.write(&data2).unwrap();
            assert_eq!(rep.raw, data2.len() as u64);
            tx
        });
        let mut got = vec![0u8; data.len()];
        rx.read_exact(&mut got).unwrap();
        let tx = t.join().unwrap();
        assert_eq!(got, data);
        assert_eq!(tx.stats().per_stream.len(), 4);
        let frames: u64 = tx.stats().per_stream.iter().map(|s| s.frames).sum();
        assert!(frames > 0, "striped message must report per-stream frames");
        assert_eq!(
            tx.stats()
                .per_stream
                .iter()
                .map(|s| s.raw_bytes)
                .sum::<u64>(),
            data.len() as u64
        );
    }

    #[test]
    fn group_handles_message_sequences_and_partial_reads() {
        let cfg = AdocConfig::default().with_levels(1, 10);
        let (tx, mut rx) = group_pair(2, &cfg);
        let msgs: Vec<Vec<u8>> = (0..3).map(|i| payload(700_000 + i * 13_331)).collect();
        let msgs2 = msgs.clone();
        let t = thread::spawn(move || {
            let mut tx = tx;
            for m in &msgs2 {
                tx.write(m).unwrap();
            }
            tx
        });
        for m in &msgs {
            // Read each message in two unequal chunks across the
            // boundary machinery.
            let cut = m.len() / 3;
            let mut head = vec![0u8; cut];
            rx.read_exact(&mut head).unwrap();
            let mut tail = vec![0u8; m.len() - cut];
            rx.read_exact(&mut tail).unwrap();
            assert_eq!(&head[..], &m[..cut]);
            assert_eq!(&tail[..], &m[cut..]);
        }
        t.join().unwrap();
    }

    #[test]
    fn small_messages_stay_direct_on_primary() {
        let cfg = AdocConfig::default();
        let (tx, mut rx) = group_pair(3, &cfg);
        let t = thread::spawn(move || {
            let mut tx = tx;
            tx.write(b"tiny").unwrap();
            assert_eq!(tx.stats().direct_messages, 1);
            tx
        });
        let mut buf = [0u8; 4];
        rx.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"tiny");
        t.join().unwrap();
    }

    #[test]
    fn stream_count_mismatch_is_a_typed_error() {
        // A peer announcing 3 streams to a 2-stream accept: the handshake
        // must fail with the typed mismatch.
        let (listener, client) = scripted_dial(vec![new_hello(3, 0), new_hello(3, 1)]);
        let cfg = AdocConfig::default().with_streams(2);
        let err = AdocStreamGroup::accept(&listener, cfg).unwrap_err();
        match AdocError::from_io(&err) {
            Some(AdocError::StreamCountMismatch { ours: 2, theirs: 3 }) => {}
            other => panic!("expected StreamCountMismatch, got {other:?} ({err})"),
        }
        let _ = client.join().unwrap();
    }

    #[test]
    fn accept_refuses_a_resume_with_a_typed_error() {
        // The point-to-point acceptor keeps no sessions: a resume hello is
        // answered with a rejection, and both ends see a typed refusal.
        let hellos = (0..2)
            .map(|i| SessionHello {
                kind: SessionKind::Resume,
                session_id: 41,
                ..new_hello(2, i)
            })
            .collect();
        let (listener, client) = scripted_dial(hellos);
        let cfg = AdocConfig::default().with_streams(2);
        let err = AdocStreamGroup::accept(&listener, cfg).unwrap_err();
        assert!(
            matches!(
                AdocError::from_io(&err),
                Some(AdocError::ResumeRejected { .. })
            ),
            "want ResumeRejected, got {err}"
        );
        let answer = client.join().unwrap().expect("a reply on the primary");
        assert_eq!(
            answer,
            SessionAccept::reject(session_status::RESUME_REJECTED)
        );
    }

    #[test]
    fn accept_answers_one_session_accept_on_the_primary() {
        let (listener, client) = scripted_dial(vec![new_hello(2, 1), new_hello(2, 0)]);
        let cfg = AdocConfig::default().with_streams(2);
        let group = AdocStreamGroup::accept(&listener, cfg).unwrap();
        assert_eq!(group.streams(), 2);
        let answer = client.join().unwrap().expect("a reply on the primary");
        assert_eq!(answer, SessionAccept::reject(session_status::OK));
    }

    #[test]
    fn from_pairs_writes_no_hello() {
        // Both ends are built from pairs with no hello exchanged: the
        // first bytes on the primary are the message header, every other
        // stream starts with a v2 frame header naming it, and a peer
        // built the same way decodes the capture.
        use crate::wire::{encode_msg_header, FrameHeaderV2, MsgKind};
        let cfg = AdocConfig::default().with_levels(1, 10);
        let sinks = (0..3).map(|_| (io::empty(), Vec::new())).collect();
        let mut tx = AdocStreamGroup::from_pairs(sinks, cfg.clone()).unwrap();
        let data = payload(900_000);
        tx.write(&data).unwrap();
        let wire: Vec<Vec<u8>> = tx.into_pairs().into_iter().map(|(_, w)| w).collect();
        let header = encode_msg_header(MsgKind::Adaptive, data.len() as u64);
        assert_eq!(wire[0][..header.len()], header, "primary");
        for (i, w) in wire.iter().enumerate().skip(1) {
            let first = FrameHeaderV2::decode(w[..18].try_into().unwrap());
            assert_eq!(first.stream as usize, i, "stream {i}");
        }
        let sources = wire.into_iter().map(|w| (io::Cursor::new(w), io::sink()));
        let mut rx = AdocStreamGroup::from_pairs(sources.collect(), cfg).unwrap();
        let mut got = vec![0u8; data.len()];
        rx.read_exact(&mut got).unwrap();
        assert_eq!(got, data);
    }

    #[test]
    fn group_receive_file_drains_leftover() {
        let cfg = AdocConfig::default().with_levels(1, 10);
        let (tx, mut rx) = group_pair(2, &cfg);
        let data = payload(800_000);
        let data2 = data.clone();
        let t = thread::spawn(move || {
            let mut tx = tx;
            tx.write(&data2).unwrap();
            tx.write(b"trailer").unwrap();
            tx
        });
        let mut head = vec![0u8; 100_000];
        rx.read_exact(&mut head).unwrap();
        let mut rest: Vec<u8> = Vec::new();
        let n = rx.receive_file(&mut rest).unwrap();
        t.join().unwrap();
        assert_eq!(head, data[..100_000]);
        assert_eq!(n as usize, data.len() - 100_000 + 7);
        assert_eq!(&rest[..data.len() - 100_000], &data[100_000..]);
        assert_eq!(&rest[data.len() - 100_000..], b"trailer");
    }
}

#[cfg(test)]
mod io_trait_tests {
    use super::*;
    use adoc_sim::pipe::duplex_pipe;
    use std::thread;

    #[test]
    fn io_copy_works_through_adoc() {
        let (a, b) = duplex_pipe(1 << 20);
        let (ar, aw) = a.split();
        let (br, bw) = b.split();
        let mut tx = AdocSocket::new(ar, aw);
        let mut rx = AdocSocket::new(br, bw);

        let data = b"io::copy payload ".repeat(5_000);
        let expect = data.clone();
        let t = thread::spawn(move || {
            let mut src: &[u8] = &data;
            std::io::copy(&mut src, &mut tx).unwrap();
            tx.flush().unwrap();
            tx
        });
        let mut got = vec![0u8; expect.len()];
        rx.read_exact(&mut got).unwrap();
        t.join().unwrap();
        assert_eq!(got, expect);
    }

    #[test]
    fn read_to_end_collects_until_eof() {
        let (a, b) = duplex_pipe(1 << 20);
        let (ar, aw) = a.split();
        let (br, bw) = b.split();
        let mut tx = AdocSocket::new(ar, aw);
        let mut rx = AdocSocket::new(br, bw);
        tx.write(b"first ").unwrap();
        tx.write(b"second").unwrap();
        drop(tx);
        let mut all = Vec::new();
        std::io::Read::read_to_end(&mut rx, &mut all).unwrap();
        assert_eq!(all, b"first second");
    }
}
