//! Per-connection serving: the message loop shared by every blocking
//! transport, and the drain-aware stream wrappers that let a graceful
//! shutdown finish in-flight frames without wedging on idle or stalled
//! clients.
//!
//! ## Drain semantics
//!
//! [`GuardedReader`] wraps each stream's read half, [`GuardedWriter`]
//! each write half. The TCP front end arms the socket with short
//! read/write timeouts, so blocked I/O wakes periodically and the
//! wrappers can consult the server's drain state:
//!
//! * **between messages** (no byte of the next message consumed yet) a
//!   draining server synthesizes a clean EOF on the primary reader —
//!   the serve loop closes the connection exactly as if the client had
//!   hung up;
//! * **mid-message** reads and writes retry, letting in-flight frames
//!   finish; past the drain *deadline* they fail with `TimedOut`, so
//!   neither a client that stops sending nor one that stops *reading
//!   its reply* (a full send buffer blocks the echo) can hold shutdown
//!   hostage forever.

use crate::registry::{ConnId, ConnOutcome};
use crate::session::PartialRecv;
use crate::trace::StageTimes;
use crate::{ServedMessage, Server};
use adoc::{AdocStreamGroup, RecvProgress};
use parking_lot::{Condvar, Mutex};
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Server-wide drain state shared with every [`GuardedReader`].
#[derive(Debug, Default)]
pub(crate) struct DrainState {
    pub(crate) draining: AtomicBool,
    /// Hard deadline for in-flight frames once draining.
    pub(crate) deadline: Mutex<Option<Instant>>,
    /// Notified (under the `deadline` mutex) when a drain begins, so
    /// waiters block instead of polling `is_draining`.
    notify: Condvar,
}

impl DrainState {
    pub(crate) fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Relaxed)
    }

    /// True once draining *and* past the hard deadline.
    pub(crate) fn deadline_passed(&self) -> bool {
        self.is_draining()
            && self
                .deadline
                .lock()
                .is_some_and(|deadline| Instant::now() >= deadline)
    }

    /// Marks the drain begun with `deadline` as its hard cutoff and
    /// wakes every [`DrainState::wait_draining`] sleeper. Returns
    /// whether this call was the one that started the drain.
    pub(crate) fn begin(&self, deadline: Instant) -> bool {
        let mut g = self.deadline.lock();
        *g = Some(deadline);
        let was_draining = self.draining.swap(true, Ordering::Relaxed);
        self.notify.notify_all();
        drop(g);
        !was_draining
    }

    /// Blocks until a drain begins, or until `timeout` elapses when one
    /// is given. Returns whether the server is draining.
    pub(crate) fn wait_draining(&self, timeout: Option<Duration>) -> bool {
        let wake_at = timeout.map(|t| Instant::now() + t);
        let mut g = self.deadline.lock();
        while !self.is_draining() {
            match wake_at {
                Some(at) => {
                    if Instant::now() >= at {
                        return false;
                    }
                    self.notify.wait_until(&mut g, at);
                }
                None => self.notify.wait(&mut g),
            }
        }
        true
    }
}

/// Per-connection control block: tracks whether any byte of the current
/// message has been consumed (a group's streams share one).
#[derive(Debug)]
pub(crate) struct ConnCtl {
    drain: Arc<DrainState>,
    mid_message: AtomicBool,
}

impl ConnCtl {
    pub(crate) fn new(drain: Arc<DrainState>) -> Arc<ConnCtl> {
        Arc::new(ConnCtl {
            drain,
            mid_message: AtomicBool::new(false),
        })
    }

    /// Called by the serve loop before each receive: the connection is
    /// at a message boundary again.
    fn mark_boundary(&self) {
        self.mid_message.store(false, Ordering::Relaxed);
    }
}

/// Removes a registered connection as `Failed` on drop — held by every
/// serving thread so a panic anywhere in the pipeline can never leave a
/// ghost entry pinned in the registry. On normal paths
/// [`serve_messages`] has already removed the entry, making the guard's
/// removal a benign no-op (double removal is explicitly supported).
pub(crate) struct RegistryGuard<'a> {
    server: &'a Server,
    id: ConnId,
    armed: bool,
}

impl<'a> RegistryGuard<'a> {
    pub(crate) fn new(server: &'a Server, id: ConnId) -> RegistryGuard<'a> {
        RegistryGuard {
            server,
            id,
            armed: true,
        }
    }

    /// Defuses the guard: the session-park path keeps the registry
    /// entry alive (as `Detached`) so a reconnecting client can resume
    /// it — removal would orphan the parked session.
    pub(crate) fn disarm(&mut self) {
        self.armed = false;
    }
}

impl Drop for RegistryGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.server.registry().remove(self.id, ConnOutcome::Failed);
        }
    }
}

/// Drain-aware read half (see the module docs).
pub(crate) struct GuardedReader<R> {
    inner: R,
    ctl: Arc<ConnCtl>,
    /// Only the primary stream may synthesize the between-messages EOF:
    /// secondary streams are only ever read mid-message.
    primary: bool,
}

impl<R: Read> GuardedReader<R> {
    pub(crate) fn new(inner: R, ctl: Arc<ConnCtl>, primary: bool) -> GuardedReader<R> {
        GuardedReader {
            inner,
            ctl,
            primary,
        }
    }
}

impl<R: Read> Read for GuardedReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            match self.inner.read(buf) {
                Ok(n) => {
                    if n > 0 {
                        self.ctl.mid_message.store(true, Ordering::Relaxed);
                    }
                    return Ok(n);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    let drain = &self.ctl.drain;
                    if drain.is_draining() {
                        if self.primary && !self.ctl.mid_message.load(Ordering::Relaxed) {
                            // Between messages: pretend the client hung
                            // up cleanly.
                            return Ok(0);
                        }
                        if drain.deadline_passed() {
                            return Err(io::Error::new(
                                io::ErrorKind::TimedOut,
                                "drain deadline passed mid-message",
                            ));
                        }
                    }
                    // Not draining (or still within the deadline): the
                    // timeout is just our polling granularity.
                    continue;
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// Drain-aware write half: retries timed-out writes (the socket carries
/// a short write timeout as its polling granularity) until the drain
/// deadline passes — the mirror of [`GuardedReader`] for a peer that
/// stops *reading* and lets the server's reply back up.
pub(crate) struct GuardedWriter<W> {
    inner: W,
    ctl: Arc<ConnCtl>,
}

impl<W: Write> GuardedWriter<W> {
    pub(crate) fn new(inner: W, ctl: Arc<ConnCtl>) -> GuardedWriter<W> {
        GuardedWriter { inner, ctl }
    }
}

impl<W: Write> Write for GuardedWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        loop {
            match self.inner.write(buf) {
                Ok(n) => return Ok(n),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    if self.ctl.drain.deadline_passed() {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "drain deadline passed with the peer not draining our replies",
                        ));
                    }
                    continue;
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// What the server does with each received message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServeMode {
    /// Send every message straight back (byte-exact echo) — what the
    /// load generator verifies against.
    #[default]
    Echo,
    /// Swallow the payload and reply with a 16-byte ack
    /// (`len: u64 | fnv1a64: u64`, little-endian) so one-way uploads
    /// still get end-to-end integrity checking.
    Sink,
}

/// FNV-1a over `data` — the checksum the sink-mode ack carries.
pub fn fnv1a64(data: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Builds the sink-mode ack for a `len`-byte message hashing to `hash`.
pub fn sink_ack(len: u64, hash: u64) -> [u8; 16] {
    let mut ack = [0u8; 16];
    ack[..8].copy_from_slice(&len.to_le_bytes());
    ack[8..].copy_from_slice(&hash.to_le_bytes());
    ack
}

/// Serves a connection that dies with its transport: runs
/// [`message_loop`] until EOF, a drain boundary, or an error, then
/// removes the connection from the registry. Returns the number of
/// messages served.
pub(crate) fn serve_messages<R: Read + Send, W: Write + Send>(
    server: &Server,
    id: ConnId,
    conn: &mut AdocStreamGroup<R, W>,
    ctl: &ConnCtl,
) -> io::Result<u64> {
    let result = message_loop(server, id, conn, ctl, None).map_err(|(e, _partial)| e);
    match &result {
        Ok(_) => server.registry().remove(id, ConnOutcome::Completed),
        Err(_) => server.registry().remove(id, ConnOutcome::Failed),
    }
    server.tracer().deregister(id);
    result
}

/// The per-connection message loop every blocking transport runs:
/// receive, reply (echo or ack), update the registry, until EOF, a drain
/// boundary, or an error. Session-aware: (a) with `resume`, the first
/// receive continues a half-finished message a previous connection left
/// behind, and (b) on a receive error the half-received state is handed
/// back so the daemon can park it for a future resume instead of
/// discarding it.
///
/// Returns the messages served, or the error plus the partial message
/// (if the disconnect hit mid-message with bytes already delivered).
/// Registry removal is the caller's job — the connection may live on as
/// a detached session.
pub(crate) fn message_loop<R: Read + Send, W: Write + Send>(
    server: &Server,
    id: ConnId,
    conn: &mut AdocStreamGroup<R, W>,
    ctl: &ConnCtl,
    mut resume: Option<PartialRecv>,
) -> Result<u64, (io::Error, Option<PartialRecv>)> {
    let mut served = 0u64;
    let mut buf: Vec<u8> = Vec::new();
    // Send level this connection was last seen at (see `message_served`).
    let mut last_level: Option<u8> = None;
    let mut progress = RecvProgress::default();
    loop {
        if server.is_draining() {
            // Finish-in-flight already happened (the previous message
            // completed); a draining server takes no further messages.
            return Ok(served);
        }
        ctl.mark_boundary();
        buf.clear();
        let t0 = std::time::Instant::now();
        // Continuing an interrupted message: the delivered prefix is
        // already in hand, the new connection supplies the frames from
        // `next_seq` on.
        let resume_from = resume.take().map(|p| {
            buf = p.buf;
            RecvProgress {
                active: true,
                total_raw: p.total_raw,
                delivered_raw: buf.len() as u64,
                next_seq: p.next_seq,
            }
        });
        let n = match conn.receive_file_tracked(&mut buf, &mut progress, resume_from) {
            Ok(n) => n,
            Err(e) => {
                // Only a mid-message death leaves something worth
                // parking; at a boundary the client simply restarts the
                // message (at-least-once delivery).
                let partial = if progress.active
                    && progress.total_raw > 0
                    && (progress.delivered_raw > 0 || progress.next_seq > 0)
                {
                    let mut kept = std::mem::take(&mut buf);
                    kept.truncate(progress.delivered_raw as usize);
                    Some(PartialRecv {
                        buf: kept,
                        total_raw: progress.total_raw,
                        next_seq: progress.next_seq,
                    })
                } else {
                    None
                };
                return Err((e, partial));
            }
        };
        if n == 0 && buf.is_empty() {
            // Clean EOF (or a zero-byte message, which the protocol
            // treats as a client-initiated close).
            return Ok(served);
        }
        let read_us = t0.elapsed().as_micros() as u64;
        let t1 = std::time::Instant::now();
        let reply = match server.mode() {
            ServeMode::Echo => conn.write(&buf),
            ServeMode::Sink => conn.write(&sink_ack(n, fnv1a64(&buf))),
        };
        // A lost reply cannot be resumed (the message was consumed):
        // surface it with no partial so the caller parks a boundary
        // resume point and the client re-sends the whole message.
        let report = match reply {
            Ok(r) => r,
            Err(e) => return Err((e, None)),
        };
        let write_us = t1.elapsed().as_micros() as u64;
        served += 1;
        // Coarse two-stage span for the blocking path: receive and write
        // run the whole pipeline inline, so scheduler waits and codec
        // time are indistinguishable from I/O here.
        let msg = ServedMessage {
            raw_bytes: n,
            reply_wire_bytes: report.wire,
            stats: conn.stats(),
            times: Some(StageTimes {
                read_us,
                write_us,
                total_us: read_us + write_us,
                ..Default::default()
            }),
            from_first_byte: false,
        };
        server.message_served(id, msg, &mut last_level);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn sink_ack_layout() {
        let ack = sink_ack(0x0102_0304, 0xAABB_CCDD_EEFF_0011);
        assert_eq!(
            u64::from_le_bytes(ack[..8].try_into().unwrap()),
            0x0102_0304
        );
        assert_eq!(
            u64::from_le_bytes(ack[8..].try_into().unwrap()),
            0xAABB_CCDD_EEFF_0011
        );
    }

    #[test]
    fn guarded_reader_synthesizes_eof_only_at_boundary_when_draining() {
        struct AlwaysTimeout;
        impl Read for AlwaysTimeout {
            fn read(&mut self, _buf: &mut [u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::WouldBlock, "timeout"))
            }
        }
        let drain = Arc::new(DrainState::default());
        drain.draining.store(true, Ordering::Relaxed);
        *drain.deadline.lock() = Some(Instant::now() + std::time::Duration::from_secs(60));

        // At a boundary: clean EOF.
        let ctl = ConnCtl::new(drain.clone());
        let mut r = GuardedReader::new(AlwaysTimeout, ctl.clone(), true);
        let mut b = [0u8; 4];
        assert_eq!(r.read(&mut b).unwrap(), 0);

        // Mid-message (a byte was consumed): must keep retrying, and a
        // passed deadline turns into TimedOut.
        ctl.mid_message.store(true, Ordering::Relaxed);
        *drain.deadline.lock() = Some(Instant::now() - std::time::Duration::from_secs(1));
        let mut r = GuardedReader::new(AlwaysTimeout, ctl, true);
        let err = r.read(&mut b).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
    }

    #[test]
    fn secondary_streams_never_synthesize_eof() {
        struct AlwaysTimeout;
        impl Read for AlwaysTimeout {
            fn read(&mut self, _buf: &mut [u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::WouldBlock, "timeout"))
            }
        }
        let drain = Arc::new(DrainState::default());
        drain.draining.store(true, Ordering::Relaxed);
        *drain.deadline.lock() = Some(Instant::now() - std::time::Duration::from_secs(1));
        let ctl = ConnCtl::new(drain);
        let mut r = GuardedReader::new(AlwaysTimeout, ctl, false);
        let mut b = [0u8; 4];
        // Past the deadline a secondary errors out rather than faking EOF
        // (a fake EOF mid-frame would look like corruption upstream).
        assert_eq!(r.read(&mut b).unwrap_err().kind(), io::ErrorKind::TimedOut);
    }
}
