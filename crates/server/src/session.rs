//! The server-side session table: identity, not a TCP connection, owns
//! a transfer.
//!
//! When a session-authenticated connection dies of a disconnect-like
//! error, the daemon does not tear its state down — it **parks** the
//! session here: the registry id (which survives, marked `Detached`),
//! the scheduler carryover (tier, token balance, lifetime admitted
//! bytes), and any half-received message. A client
//! reconnecting with the session's ticket **takes** the parked entry
//! and carries on exactly where the old socket left off, on a possibly
//! different stream count.
//!
//! Parked sessions are bounded by a deadline (`now + resume_window`):
//! the reactor's housekeeping timer sweeps the table, and shutdown
//! expires whatever is left, so a client that never returns cannot pin
//! a registry slot forever.

use crate::registry::ConnId;
use crate::sched::SchedCarryover;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::net::IpAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A half-received message captured when a session's connection died
/// mid-message: the contiguous prefix already delivered, the total the
/// sender announced, and the next striped sequence number expected.
/// The resumed connection finishes the message from here; replayed
/// sequence numbers below `next_seq` are duplicates and rejected.
#[derive(Debug)]
pub(crate) struct PartialRecv {
    /// The first `buf.len()` raw bytes of the message, already
    /// delivered in order.
    pub buf: Vec<u8>,
    /// Total raw length the sender announced.
    pub total_raw: u64,
    /// Next frame sequence number the receive expects.
    pub next_seq: u64,
}

/// Everything a detached session needs to be picked back up by a
/// reconnecting client.
#[derive(Debug)]
pub(crate) struct ParkedSession {
    /// Registry id — kept alive (state `Detached`) while parked.
    pub conn: ConnId,
    /// Peer IP the session was established from; a resume from a
    /// different address is refused (the ticket is bearer-style, the
    /// IP pin narrows replay).
    pub peer: IpAddr,
    /// Scheduler state captured before the old throttle dropped.
    pub carryover: Option<SchedCarryover>,
    /// Half-received message, when the disconnect hit mid-message.
    pub partial: Option<PartialRecv>,
    /// When the resume window closes and the session is reclaimed.
    pub deadline: Instant,
}

/// Lifetime session counters — the `sessions` section of the metrics
/// document.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Tickets minted for new sessions.
    pub minted: u64,
    /// Successful resumes.
    pub resumed: u64,
    /// Hellos/tickets refused pre-admission (bad MAC, expired, unknown
    /// session, wrong peer, draining).
    pub rejected: u64,
    /// Parked sessions reclaimed after their resume window lapsed.
    pub expired: u64,
    /// Sessions currently parked awaiting a reconnect.
    pub parked: u64,
}

/// The table itself: parked sessions keyed by session id, plus the
/// id mint and lifetime counters.
#[derive(Debug, Default)]
pub struct SessionTable {
    inner: Mutex<HashMap<u64, ParkedSession>>,
    next_id: AtomicU64,
    minted: AtomicU64,
    resumed: AtomicU64,
    rejected: AtomicU64,
    expired: AtomicU64,
}

impl SessionTable {
    /// Allocates a fresh session id (starts at 1; 0 is never minted)
    /// and counts the mint.
    pub(crate) fn mint_id(&self) -> u64 {
        self.minted.fetch_add(1, Ordering::Relaxed);
        self.next_id.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Counts a pre-admission refusal (bad MAC, expired ticket, unknown
    /// session…).
    pub(crate) fn count_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a successful resume.
    pub(crate) fn count_resumed(&self) {
        self.resumed.fetch_add(1, Ordering::Relaxed);
    }

    /// Parks a detached session. An id collision (which would need a
    /// duplicate ticket) replaces the stale entry.
    pub(crate) fn park(&self, session_id: u64, parked: ParkedSession) {
        self.inner.lock().insert(session_id, parked);
    }

    /// Claims a parked session for a resume, removing it from the
    /// table. Returns `None` when the id is unknown (never parked,
    /// already resumed, or swept).
    pub(crate) fn take(&self, session_id: u64) -> Option<ParkedSession> {
        self.inner.lock().remove(&session_id)
    }

    /// Sessions currently parked.
    pub(crate) fn parked_count(&self) -> usize {
        self.inner.lock().len()
    }

    /// Removes and returns every parked session whose resume window
    /// has closed, counting them as expired. The caller owns the
    /// follow-up (registry removal, `SessionExpired` events).
    pub(crate) fn sweep(&self, now: Instant) -> Vec<(u64, ParkedSession)> {
        let mut g = self.inner.lock();
        let dead: Vec<u64> = g
            .iter()
            .filter(|(_, p)| now >= p.deadline)
            .map(|(&id, _)| id)
            .collect();
        let out: Vec<(u64, ParkedSession)> = dead
            .into_iter()
            .filter_map(|id| g.remove(&id).map(|p| (id, p)))
            .collect();
        self.expired.fetch_add(out.len() as u64, Ordering::Relaxed);
        out
    }

    /// Drains the whole table (shutdown), counting every entry as
    /// expired.
    pub(crate) fn expire_all(&self) -> Vec<(u64, ParkedSession)> {
        let mut g = self.inner.lock();
        let out: Vec<(u64, ParkedSession)> = g.drain().collect();
        self.expired.fetch_add(out.len() as u64, Ordering::Relaxed);
        out
    }

    /// Snapshot of every counter plus the live parked gauge.
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            minted: self.minted.load(Ordering::Relaxed),
            resumed: self.resumed.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
            parked: self.parked_count() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;
    use std::time::Duration;

    fn parked(conn: ConnId, deadline: Instant) -> ParkedSession {
        ParkedSession {
            conn,
            peer: IpAddr::V4(Ipv4Addr::LOCALHOST),
            carryover: None,
            partial: None,
            deadline,
        }
    }

    #[test]
    fn mint_take_and_sweep_round_trip() {
        let table = SessionTable::default();
        let a = table.mint_id();
        let b = table.mint_id();
        assert!(a >= 1 && b > a, "ids are nonzero and increasing");

        let now = Instant::now();
        table.park(a, parked(10, now + Duration::from_secs(30)));
        table.park(b, parked(11, now + Duration::from_millis(1)));
        assert_eq!(table.parked_count(), 2);

        // Sweeping past b's deadline reclaims only b.
        let swept = table.sweep(now + Duration::from_secs(1));
        assert_eq!(swept.len(), 1);
        assert_eq!(swept[0].0, b);
        assert_eq!(swept[0].1.conn, 11);

        // a is still claimable, exactly once.
        assert!(table.take(a).is_some());
        assert!(table.take(a).is_none());

        table.count_resumed();
        table.count_rejected();
        let s = table.stats();
        assert_eq!(s.minted, 2);
        assert_eq!(s.resumed, 1);
        assert_eq!(s.rejected, 1);
        assert_eq!(s.expired, 1);
        assert_eq!(s.parked, 0);
    }

    #[test]
    fn expire_all_drains_everything() {
        let table = SessionTable::default();
        let now = Instant::now();
        table.park(1, parked(1, now + Duration::from_secs(60)));
        table.park(2, parked(2, now + Duration::from_secs(60)));
        let drained = table.expire_all();
        assert_eq!(drained.len(), 2);
        assert_eq!(table.parked_count(), 0);
        assert_eq!(table.stats().expired, 2);
    }
}
