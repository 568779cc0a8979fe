//! Resource-pacing hooks for a connection: CPU-speed models (the
//! simulation substrate's way to emulate slower hosts — the paper's
//! Tennessee machine, and the slow-receiver divergence scenario of §5)
//! and, since the server daemon landed, wire-bandwidth admission (the
//! seam a fair-share scheduler plugs into).

use std::time::Duration;

/// Per-connection resource pacing.
///
/// Two independent hooks share this trait because a connection carries
/// exactly one throttle ([`crate::AdocConfig::throttle`]):
///
/// * [`Throttle::charge`] — CPU model: called after each unit of
///   (de)compression work with the wall time it took; implementations
///   may stretch it by sleeping.
/// * [`Throttle::acquire_wire`] — bandwidth admission: called *before*
///   wire bytes are written (sender emission, direct copies, probes,
///   fast-path frames) and before frame payloads are read off the
///   socket on the receive side. Implementations may block until a
///   bandwidth budget admits the bytes; the default admits instantly.
///
/// Blocking in `acquire_wire` is deliberately visible to the adaptation
/// loop: the emission thread times its writes *around* the admission
/// call, so a scheduler-constrained connection observes a lower visible
/// bandwidth and adapts its compression level to its *share*, exactly as
/// it would to a congested link.
pub trait Throttle: Send + Sync {
    /// Called after a compression/decompression step that took `elapsed`.
    fn charge(&self, elapsed: Duration);

    /// Called before `bytes` of wire traffic move on this connection;
    /// may block to enforce a bandwidth budget. Default: no limit.
    fn acquire_wire(&self, bytes: usize) {
        let _ = bytes;
    }

    /// Nonblocking form of [`Throttle::acquire_wire`] for event-driven
    /// transports (the server's reactor): either the bytes are admitted
    /// now (`Ok`), or the caller gets a hint of how long until the
    /// budget could plausibly admit them (`Err(retry_after)`) and must
    /// **park** the connection instead of spinning. A parked caller may
    /// also be woken early through an out-of-band signal (the
    /// scheduler's parked-waker); the hint is a ceiling, not a schedule.
    /// Default: always admits, matching the blocking default.
    fn try_acquire_wire(&self, bytes: usize) -> Result<(), Duration> {
        let _ = bytes;
        Ok(())
    }
}

/// Full-speed host: no extra cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoThrottle;

impl Throttle for NoThrottle {
    fn charge(&self, _elapsed: Duration) {}
}

/// A host `factor`× slower than this machine: each unit of codec work is
/// stretched by sleeping the difference.
#[derive(Debug, Clone, Copy)]
pub struct SleepThrottle {
    factor: f64,
}

impl SleepThrottle {
    /// `factor` must be ≥ 1 (1.0 = no slowdown).
    pub fn new(factor: f64) -> Self {
        assert!(factor >= 1.0, "throttle factor must be >= 1");
        SleepThrottle { factor }
    }
}

impl Throttle for SleepThrottle {
    fn charge(&self, elapsed: Duration) {
        let extra = elapsed.mul_f64(self.factor - 1.0);
        if !extra.is_zero() {
            std::thread::sleep(extra);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn no_throttle_is_free() {
        let start = Instant::now();
        NoThrottle.charge(Duration::from_millis(50));
        assert!(start.elapsed() < Duration::from_millis(5));
    }

    #[test]
    fn sleep_throttle_stretches_work() {
        let t = SleepThrottle::new(3.0);
        let start = Instant::now();
        t.charge(Duration::from_millis(10));
        // factor 3 ⇒ 20 ms extra.
        let e = start.elapsed();
        assert!(e >= Duration::from_millis(18), "{e:?}");
    }

    #[test]
    #[should_panic(expected = "factor must be >= 1")]
    fn rejects_speedup_factors() {
        SleepThrottle::new(0.5);
    }

    #[test]
    fn default_acquire_wire_admits_instantly() {
        let start = Instant::now();
        NoThrottle.acquire_wire(100 << 20);
        SleepThrottle::new(8.0).acquire_wire(100 << 20);
        assert!(start.elapsed() < Duration::from_millis(5));
    }

    #[test]
    fn acquire_wire_is_overridable_per_connection() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        #[derive(Default)]
        struct Recorder {
            bytes: AtomicUsize,
        }
        impl Throttle for Recorder {
            fn charge(&self, _elapsed: Duration) {}
            fn acquire_wire(&self, bytes: usize) {
                self.bytes.fetch_add(bytes, Ordering::Relaxed);
            }
        }
        let r = Recorder::default();
        let t: &dyn Throttle = &r;
        t.acquire_wire(4096);
        t.acquire_wire(100);
        assert_eq!(r.bytes.load(Ordering::Relaxed), 4196);
    }
}
