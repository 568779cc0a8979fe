//! The emission FIFO queue (paper §3.1): the shared buffer between the
//! compression thread (producer) and the emission thread (consumer), and —
//! crucially — the *sensor* of the adaptation loop: its length and growth
//! drive the compression level (§3.3).
//!
//! [`BoundedQueue`] is the generic bounded blocking channel; every
//! stream of a connection runs one between its compression and emission
//! threads. Shutdown is two-sided and panic-safe:
//!
//! * the **producer** calls [`BoundedQueue::close`] (or holds a
//!   [`CloseOnDrop`] guard): consumers drain what remains, then see
//!   `None`; further pushes fail with [`PushError::Closed`];
//! * the **consumer** calls [`BoundedQueue::poison`] (or holds a
//!   [`PoisonOnDrop`] guard) on failure: queued items are dropped and a
//!   producer blocked in `push` on a full queue wakes immediately with
//!   [`PushError::Closed`] instead of deadlocking on a peer that will
//!   never pop again.
//!
//! Both `close` and `poison` wake *all* waiters on *both* condvars; both
//! are idempotent, so the drop guards can fire after an explicit call.

use crate::pool::PooledBuf;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::Arc;

/// One queue entry: up to `packet_size` wire-ready bytes, borrowed as an
/// `(offset, len)` view into a shared pooled frame buffer.
///
/// Several packets of one frame share the same [`PooledBuf`]; when the
/// emission thread drops the last of them (after its socket write), the
/// frame buffer returns to the pool. No per-packet copy, no per-packet
/// allocation.
#[derive(Debug)]
pub struct Packet {
    /// The whole frame (header + payload) this packet views into.
    frame: Arc<PooledBuf>,
    /// Start of this packet's bytes within `frame`.
    offset: usize,
    /// Number of wire bytes in this packet.
    len: usize,
    /// The AdOC level this packet's buffer was compressed at.
    pub level: u8,
    /// Share of the buffer's *raw* size this packet represents (for
    /// visible-bandwidth accounting).
    pub raw_share: u32,
}

impl Packet {
    /// A packet viewing `frame[offset..offset + len]`.
    ///
    /// Panics if the range is out of bounds.
    pub fn view(
        frame: Arc<PooledBuf>,
        offset: usize,
        len: usize,
        level: u8,
        raw_share: u32,
    ) -> Packet {
        assert!(offset + len <= frame.len(), "packet view out of bounds");
        Packet {
            frame,
            offset,
            len,
            level,
            raw_share,
        }
    }

    /// A packet owning `bytes` outright (detached from any pool) — used
    /// by tests and micro-benchmarks; the transfer paths use [`Packet::view`].
    pub fn from_vec(bytes: Vec<u8>, level: u8, raw_share: u32) -> Packet {
        let len = bytes.len();
        Packet::view(
            Arc::new(PooledBuf::detached(bytes)),
            0,
            len,
            level,
            raw_share,
        )
    }

    /// The wire bytes of this packet.
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        &self.frame[self.offset..self.offset + self.len]
    }

    /// Number of wire bytes in this packet.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when this packet carries no bytes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[derive(Debug)]
struct QueueInner<T> {
    items: VecDeque<T>,
    closed: bool,
    /// Set by the consumer on I/O failure so the producer stops promptly.
    poisoned: bool,
}

/// Bounded MPSC-ish blocking FIFO (one producer, one consumer per queue
/// in AdOC; a sender runs one queue per stream).
#[derive(Debug)]
pub struct BoundedQueue<T> {
    inner: Mutex<QueueInner<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    cap: usize,
}

/// The packet FIFO between one compression thread and one emission
/// thread.
pub type PacketQueue = BoundedQueue<Packet>;

/// Why a blocking push did not enqueue.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError {
    /// The consumer failed or the queue was closed; stop producing.
    Closed,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue bounded at `cap` items.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0);
        BoundedQueue {
            inner: Mutex::new(QueueInner {
                items: VecDeque::new(),
                closed: false,
                poisoned: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            cap,
        }
    }

    /// Blocking push; fails once the queue is closed or the consumer has
    /// gone away (poisoned) — including while blocked waiting for space.
    pub fn push(&self, p: T) -> Result<(), PushError> {
        let mut g = self.inner.lock();
        loop {
            if g.poisoned || g.closed {
                return Err(PushError::Closed);
            }
            if g.items.len() < self.cap {
                g.items.push_back(p);
                drop(g);
                self.not_empty.notify_one();
                return Ok(());
            }
            self.not_full.wait(&mut g);
        }
    }

    /// Blocking pop; `None` once the queue is closed and drained, or
    /// poisoned.
    pub fn pop(&self) -> Option<T> {
        let mut g = self.inner.lock();
        loop {
            if let Some(p) = g.items.pop_front() {
                drop(g);
                self.not_full.notify_one();
                return Some(p);
            }
            if g.closed || g.poisoned {
                return None;
            }
            self.not_empty.wait(&mut g);
        }
    }

    /// Current number of queued items — the adaptation signal.
    pub fn len(&self) -> usize {
        self.inner.lock().items.len()
    }

    /// True when no items are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Producer marks end of stream; the consumer drains what remains.
    /// Wakes every waiter on both sides (a producer blocked in [`Self::push`]
    /// on a full queue returns [`PushError::Closed`]). Idempotent.
    pub fn close(&self) {
        let mut g = self.inner.lock();
        g.closed = true;
        drop(g);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Consumer reports failure; pending and future pushes fail fast and
    /// queued items are dropped. Idempotent.
    pub fn poison(&self) {
        let mut g = self.inner.lock();
        g.poisoned = true;
        g.items.clear();
        drop(g);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Guard that [`Self::close`]s this queue when dropped — hold it in
    /// the producer thread so *every* exit (early return, `?`, panic)
    /// releases a consumer blocked in `pop`.
    pub fn close_on_drop(&self) -> CloseOnDrop<'_, T> {
        CloseOnDrop { q: self }
    }

    /// Guard that [`Self::poison`]s this queue when dropped — hold it in
    /// the consumer thread so *every* exit (early return, `?`, panic)
    /// releases a producer blocked in `push` on a full queue.
    pub fn poison_on_drop(&self) -> PoisonOnDrop<'_, T> {
        PoisonOnDrop { q: self }
    }
}

/// See [`BoundedQueue::close_on_drop`].
#[must_use = "the guard closes the queue when dropped"]
pub struct CloseOnDrop<'a, T> {
    q: &'a BoundedQueue<T>,
}

impl<T> Drop for CloseOnDrop<'_, T> {
    fn drop(&mut self) {
        self.q.close();
    }
}

/// See [`BoundedQueue::poison_on_drop`].
#[must_use = "the guard poisons the queue when dropped"]
pub struct PoisonOnDrop<'a, T> {
    q: &'a BoundedQueue<T>,
}

impl<T> Drop for PoisonOnDrop<'_, T> {
    fn drop(&mut self) {
        self.q.poison();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    fn pkt(tag: u8) -> Packet {
        Packet::from_vec(vec![tag; 4], 0, 4)
    }

    #[test]
    fn fifo_order() {
        let q = PacketQueue::new(8);
        for i in 0..5 {
            q.push(pkt(i)).unwrap();
        }
        assert_eq!(q.len(), 5);
        for i in 0..5 {
            assert_eq!(q.pop().unwrap().bytes()[0], i);
        }
        q.close();
        assert!(q.pop().is_none());
    }

    #[test]
    fn bounded_blocking_push() {
        let q = Arc::new(PacketQueue::new(2));
        q.push(pkt(0)).unwrap();
        q.push(pkt(1)).unwrap();
        let q2 = q.clone();
        let t = thread::spawn(move || q2.push(pkt(2)));
        thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(q.len(), 2, "producer must be blocked at capacity");
        assert_eq!(q.pop().unwrap().bytes()[0], 0);
        t.join().unwrap().unwrap();
        assert_eq!(q.pop().unwrap().bytes()[0], 1);
        assert_eq!(q.pop().unwrap().bytes()[0], 2);
    }

    #[test]
    fn pop_blocks_until_push() {
        let q = Arc::new(PacketQueue::new(4));
        let q2 = q.clone();
        let t = thread::spawn(move || q2.pop().map(|p| p.bytes()[0]));
        thread::sleep(std::time::Duration::from_millis(20));
        q.push(pkt(9)).unwrap();
        assert_eq!(t.join().unwrap(), Some(9));
    }

    #[test]
    fn close_drains_then_none() {
        let q = PacketQueue::new(4);
        q.push(pkt(1)).unwrap();
        q.close();
        assert!(q.push(pkt(2)).is_err());
        assert_eq!(q.pop().unwrap().bytes()[0], 1);
        assert!(q.pop().is_none());
    }

    #[test]
    fn close_wakes_producer_blocked_on_full_queue() {
        // The shutdown-path regression: a producer stuck in `push`
        // because the queue is full must wake with an error when the
        // queue is closed, not sleep forever on `not_full`.
        let q = Arc::new(PacketQueue::new(1));
        q.push(pkt(0)).unwrap();
        let q2 = q.clone();
        let t = thread::spawn(move || q2.push(pkt(1)));
        thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert_eq!(t.join().unwrap(), Err(PushError::Closed));
        // The item queued before close still drains.
        assert_eq!(q.pop().unwrap().bytes()[0], 0);
        assert!(q.pop().is_none());
    }

    #[test]
    fn poison_unblocks_producer() {
        let q = Arc::new(PacketQueue::new(1));
        q.push(pkt(0)).unwrap();
        let q2 = q.clone();
        let t = thread::spawn(move || q2.push(pkt(1)));
        thread::sleep(std::time::Duration::from_millis(20));
        q.poison();
        assert_eq!(t.join().unwrap(), Err(PushError::Closed));
        assert!(q.pop().is_none(), "poisoned queue drops queued packets");
        assert!(q.inner.lock().poisoned);
    }

    #[test]
    fn guards_fire_on_panic() {
        // A consumer that panics mid-message must still poison the queue
        // (unblocking the producer); same for a panicking producer and
        // close. This is what keeps a dying emission thread from
        // stranding the compression thread forever.
        let q = Arc::new(PacketQueue::new(1));
        let qc = q.clone();
        let consumer = thread::spawn(move || {
            let _guard = qc.poison_on_drop();
            let _ = qc.pop();
            panic!("simulated consumer death");
        });
        q.push(pkt(0)).unwrap();
        // Producer keeps pushing until the guard-driven poison errors it
        // out; without the guard this loop would block forever.
        loop {
            if q.push(pkt(1)).is_err() {
                break;
            }
        }
        assert!(consumer.join().is_err(), "consumer must have panicked");
        assert!(q.inner.lock().poisoned);

        let q = Arc::new(PacketQueue::new(1));
        let qp = q.clone();
        let producer = thread::spawn(move || {
            let _guard = qp.close_on_drop();
            qp.push(pkt(7)).unwrap();
            panic!("simulated producer death");
        });
        assert_eq!(q.pop().unwrap().bytes()[0], 7);
        assert!(q.pop().is_none(), "close guard must end the stream");
        assert!(producer.join().is_err(), "producer must have panicked");
    }

    #[test]
    fn generic_queue_carries_arbitrary_items() {
        let q: BoundedQueue<(u64, Vec<u8>)> = BoundedQueue::new(2);
        q.push((1, vec![1])).unwrap();
        q.push((2, vec![2, 2])).unwrap();
        assert_eq!(q.pop().unwrap().0, 1);
        q.close();
        assert_eq!(q.pop().unwrap().0, 2);
        assert!(q.pop().is_none());
    }

    #[test]
    fn producer_consumer_stress() {
        let q = Arc::new(PacketQueue::new(16));
        let qp = q.clone();
        let producer = thread::spawn(move || {
            for i in 0..10_000u32 {
                qp.push(Packet::from_vec(i.to_le_bytes().to_vec(), 0, 4))
                    .unwrap();
            }
            qp.close();
        });
        let mut expect = 0u32;
        while let Some(p) = q.pop() {
            let v = u32::from_le_bytes(p.bytes()[..4].try_into().unwrap());
            assert_eq!(v, expect);
            expect += 1;
        }
        assert_eq!(expect, 10_000);
        producer.join().unwrap();
    }
}
