//! Readiness polling for the reactor: a minimal hand-written FFI shim
//! over `epoll(7)` on Linux, with a portable `poll(2)` fallback on
//! other Unixes — in the same spirit as the workspace's offline compat
//! shims (the build pulls in no `libc`/`mio` crates; the handful of
//! syscalls the reactor needs are declared here directly).
//!
//! Both backends present one level-triggered [`Poller`]: register a
//! file descriptor with a `u64` token and an [`Interest`], then
//! [`Poller::wait`] returns the ready set. Level-triggering keeps the
//! reactor's state machine honest — a connection that didn't drain its
//! socket is simply reported again — at the cost of requiring the
//! reactor to deregister interest it can't act on (a parked
//! connection's `readable`), which it does via [`Poller::modify`].
//!
//! The epoll backend is O(ready) per wait; the `poll(2)` fallback
//! rebuilds its fd array per call and is O(registered), acceptable as
//! a portability net, not a scaling target.

use parking_lot::Mutex;
use std::io::{self, PipeReader, PipeWriter, Read as _, Write as _};
use std::os::raw::c_int;
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// What a registration wants to be woken for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd is readable.
    pub readable: bool,
    /// Wake when the fd is writable.
    pub writable: bool,
}

impl Interest {
    /// Readable only.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Writable only.
    pub const WRITE: Interest = Interest {
        readable: false,
        writable: true,
    };
    /// Neither — the fd stays registered (so errors/hangups still
    /// surface) but produces no readiness wakeups. A parked connection
    /// sits here.
    pub const NONE: Interest = Interest {
        readable: false,
        writable: false,
    };
}

/// One readiness report from [`Poller::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PollEvent {
    /// Token the fd was registered with.
    pub token: u64,
    /// The fd is readable (or has a pending hangup to observe by
    /// reading to EOF).
    pub readable: bool,
    /// The fd is writable.
    pub writable: bool,
    /// The fd reported an error or hangup; the owner should read/write
    /// to collect the error and retire the connection.
    pub error: bool,
}

/// Self-pipe waker: any thread makes the poll loop's next
/// [`Poller::wait`] return at once. `pending` coalesces bursts into at
/// most one pipe byte.
#[derive(Debug)]
pub struct Waker {
    tx: Mutex<PipeWriter>,
    pending: AtomicBool,
}

impl Waker {
    /// A waker whose pipe is registered with `poller` under `token`,
    /// and the read end the poll loop hands back to
    /// [`Waker::consume`] when that token reports readable.
    pub fn new(poller: &Poller, token: u64) -> io::Result<(Waker, PipeReader)> {
        let (rx, tx) = io::pipe()?;
        poller.register(rx.as_raw_fd(), token, Interest::READ)?;
        let waker = Waker {
            tx: Mutex::new(tx),
            pending: AtomicBool::new(false),
        };
        Ok((waker, rx))
    }

    /// Makes the next (or current) wait return.
    pub fn wake(&self) {
        if !self.pending.swap(true, Ordering::AcqRel) {
            // EPIPE after the poll loop exits is harmless (Rust ignores
            // SIGPIPE); the write is best-effort by design.
            let _ = self.tx.lock().write(&[1]);
        }
    }

    /// Consumes a wake. The pipe is drained BEFORE the flag is cleared:
    /// `wake` only writes on a false→true transition, so while
    /// `pending` is true no byte can land and this read cannot eat one
    /// whose `wake` skipped the write. (Clearing first lets a wake slip
    /// between clear and read, leaving `pending` true over an empty
    /// pipe — a dead waker.) Act on the wake after this returns, and
    /// whatever is queued meanwhile still wakes the next wait.
    pub fn consume(&self, rx: &mut PipeReader) {
        let mut drain_buf = [0u8; 64];
        let _ = rx.read(&mut drain_buf);
        self.pending.store(false, Ordering::Release);
    }
}

/// Level-triggered readiness poller (see the module docs).
#[derive(Debug)]
pub struct Poller {
    backend: Backend,
}

impl Poller {
    /// Creates a poller on the platform's best backend.
    pub fn new() -> io::Result<Poller> {
        Ok(Poller {
            backend: Backend::new()?,
        })
    }

    /// Registers `fd` under `token`. The fd must stay open until
    /// [`Poller::deregister`].
    pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.backend.register(fd, token, interest)
    }

    /// Replaces the interest set of an already-registered fd.
    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.backend.modify(fd, token, interest)
    }

    /// Removes an fd from the poller.
    pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
        self.backend.deregister(fd)
    }

    /// Blocks until at least one registered fd is ready or `timeout`
    /// elapses (`None` = indefinitely), appending reports to `events`
    /// (which is cleared first). Returns the number of reports.
    /// Sub-millisecond timeouts round up to 1 ms; `EINTR` retries.
    pub fn wait(
        &self,
        events: &mut Vec<PollEvent>,
        timeout: Option<Duration>,
    ) -> io::Result<usize> {
        events.clear();
        self.backend.wait(events, timeout)
    }
}

fn timeout_ms(timeout: Option<Duration>) -> c_int {
    match timeout {
        None => -1,
        Some(d) if d.is_zero() => 0,
        // Round up: waking early busy-loops, waking late only delays a
        // timer by < 1 ms.
        Some(d) => d
            .as_millis()
            .saturating_add(u128::from(d.subsec_nanos() % 1_000_000 != 0))
            .min(c_int::MAX as u128) as c_int,
    }
}

/// Retries `f` while it fails with `EINTR`.
fn retry_eintr(mut f: impl FnMut() -> c_int) -> io::Result<c_int> {
    loop {
        let n = f();
        if n >= 0 {
            return Ok(n);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

#[cfg(target_os = "linux")]
use epoll::Backend;

#[cfg(target_os = "linux")]
mod epoll {
    use super::*;

    // From <sys/epoll.h>.
    const EPOLL_CLOEXEC: c_int = 0o2000000;
    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;

    /// Kernel `struct epoll_event`; packed on x86-64 (the kernel ABI
    /// predates the arch and kept i386's layout).
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn close(fd: c_int) -> c_int;
    }

    #[derive(Debug)]
    pub struct Backend {
        epfd: RawFd,
    }

    fn mask(interest: Interest) -> u32 {
        // EPOLLERR/EPOLLHUP are always reported; RDHUP makes a peer
        // half-close visible as readiness even with Interest::NONE
        // suppressed reads... it does not: RDHUP must be requested, and
        // a parked connection deliberately requests nothing.
        let mut m = 0;
        if interest.readable {
            m |= EPOLLIN | EPOLLRDHUP;
        }
        if interest.writable {
            m |= EPOLLOUT;
        }
        m
    }

    impl Backend {
        pub fn new() -> io::Result<Backend> {
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Backend { epfd })
        }

        fn ctl(&self, op: c_int, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: mask(interest),
                data: token,
            };
            let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, interest)
        }

        pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, interest)
        }

        pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, Interest::NONE)
        }

        pub fn wait(
            &self,
            out: &mut Vec<PollEvent>,
            timeout: Option<Duration>,
        ) -> io::Result<usize> {
            let mut buf = [EpollEvent { events: 0, data: 0 }; 256];
            let n = retry_eintr(|| unsafe {
                epoll_wait(
                    self.epfd,
                    buf.as_mut_ptr(),
                    buf.len() as c_int,
                    timeout_ms(timeout),
                )
            })?;
            for ev in &buf[..n as usize] {
                let bits = ev.events;
                out.push(PollEvent {
                    token: ev.data,
                    readable: bits & (EPOLLIN | EPOLLRDHUP) != 0,
                    writable: bits & EPOLLOUT != 0,
                    error: bits & (EPOLLERR | EPOLLHUP) != 0,
                });
            }
            Ok(out.len())
        }
    }

    impl Drop for Backend {
        fn drop(&mut self) {
            unsafe {
                close(self.epfd);
            }
        }
    }
}

#[cfg(not(target_os = "linux"))]
use fallback::Backend;

#[cfg(not(target_os = "linux"))]
mod fallback {
    use super::*;
    use parking_lot::Mutex;
    use std::os::raw::c_short;

    // From <poll.h>.
    const POLLIN: c_short = 0x001;
    const POLLOUT: c_short = 0x004;
    const POLLERR: c_short = 0x008;
    const POLLHUP: c_short = 0x010;

    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: u64, timeout: c_int) -> c_int;
    }

    /// Registered fds; the array handed to `poll(2)` is rebuilt per
    /// wait — O(registered), the portability tax.
    #[derive(Debug)]
    pub struct Backend {
        fds: Mutex<Vec<(RawFd, u64, Interest)>>,
    }

    impl Backend {
        pub fn new() -> io::Result<Backend> {
            Ok(Backend {
                fds: Mutex::new(Vec::new()),
            })
        }

        pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut fds = self.fds.lock();
            if fds.iter().any(|&(f, _, _)| f == fd) {
                return Err(io::Error::new(
                    io::ErrorKind::AlreadyExists,
                    "fd already registered",
                ));
            }
            fds.push((fd, token, interest));
            Ok(())
        }

        pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut fds = self.fds.lock();
            match fds.iter_mut().find(|(f, _, _)| *f == fd) {
                Some(entry) => {
                    *entry = (fd, token, interest);
                    Ok(())
                }
                None => Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered")),
            }
        }

        pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
            let mut fds = self.fds.lock();
            let before = fds.len();
            fds.retain(|&(f, _, _)| f != fd);
            if fds.len() == before {
                return Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"));
            }
            Ok(())
        }

        pub fn wait(
            &self,
            out: &mut Vec<PollEvent>,
            timeout: Option<Duration>,
        ) -> io::Result<usize> {
            let snapshot: Vec<(RawFd, u64, Interest)> = self.fds.lock().clone();
            let mut pollfds: Vec<PollFd> = snapshot
                .iter()
                .map(|&(fd, _, interest)| PollFd {
                    fd,
                    events: if interest.readable { POLLIN } else { 0 }
                        | if interest.writable { POLLOUT } else { 0 },
                    revents: 0,
                })
                .collect();
            let n = retry_eintr(|| unsafe {
                poll(
                    pollfds.as_mut_ptr(),
                    pollfds.len() as u64,
                    timeout_ms(timeout),
                )
            })?;
            if n > 0 {
                for (pfd, &(_, token, _)) in pollfds.iter().zip(snapshot.iter()) {
                    if pfd.revents != 0 {
                        out.push(PollEvent {
                            token,
                            readable: pfd.revents & POLLIN != 0,
                            writable: pfd.revents & POLLOUT != 0,
                            error: pfd.revents & (POLLERR | POLLHUP) != 0,
                        });
                    }
                }
            }
            Ok(out.len())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::os::unix::io::AsRawFd;
    use std::time::Instant;

    #[test]
    fn pipe_read_end_becomes_readable_on_write() {
        let poller = Poller::new().unwrap();
        let (rx, mut tx) = io::pipe().unwrap();
        poller.register(rx.as_raw_fd(), 42, Interest::READ).unwrap();
        let mut events = Vec::new();

        // Nothing written yet: a short wait times out empty.
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0);

        tx.write_all(b"x").unwrap();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token, 42);
        assert!(events[0].readable);
        assert!(!events[0].writable);
    }

    #[test]
    fn interest_none_silences_a_ready_fd_and_modify_restores_it() {
        let poller = Poller::new().unwrap();
        let (rx, mut tx) = io::pipe().unwrap();
        tx.write_all(b"pending").unwrap();
        poller.register(rx.as_raw_fd(), 7, Interest::NONE).unwrap();
        let mut events = Vec::new();
        // Level-triggered, but with no interest the ready byte must not
        // wake us — this is exactly how a parked connection sleeps.
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert_eq!(n, 0, "Interest::NONE must not busy-wake: {events:?}");

        poller.modify(rx.as_raw_fd(), 7, Interest::READ).unwrap();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert_eq!(n, 1);
        assert!(events[0].readable);
    }

    #[test]
    fn write_interest_reports_writable_pipes() {
        let poller = Poller::new().unwrap();
        let (_rx, tx) = io::pipe().unwrap();
        poller.register(tx.as_raw_fd(), 9, Interest::WRITE).unwrap();
        let mut events = Vec::new();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert_eq!(n, 1);
        assert!(events[0].writable);
        assert_eq!(events[0].token, 9);
    }

    #[test]
    fn deregistered_fds_stop_reporting() {
        let poller = Poller::new().unwrap();
        let (rx, mut tx) = io::pipe().unwrap();
        poller.register(rx.as_raw_fd(), 1, Interest::READ).unwrap();
        tx.write_all(b"x").unwrap();
        poller.deregister(rx.as_raw_fd()).unwrap();
        let mut events = Vec::new();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn closed_write_end_surfaces_on_the_reader() {
        let poller = Poller::new().unwrap();
        let (rx, tx) = io::pipe().unwrap();
        poller.register(rx.as_raw_fd(), 3, Interest::READ).unwrap();
        drop(tx);
        let mut events = Vec::new();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert_eq!(n, 1);
        assert!(
            events[0].readable || events[0].error,
            "hangup must wake the reader: {:?}",
            events[0]
        );
    }

    #[test]
    fn timeout_is_honored() {
        let poller = Poller::new().unwrap();
        let (rx, _tx) = io::pipe().unwrap();
        poller.register(rx.as_raw_fd(), 1, Interest::READ).unwrap();
        let start = Instant::now();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(30)))
            .unwrap();
        let waited = start.elapsed();
        assert!(waited >= Duration::from_millis(25), "{waited:?}");
        assert!(waited < Duration::from_secs(1), "{waited:?}");
    }

    #[test]
    fn submillisecond_timeouts_round_up_not_down() {
        assert_eq!(timeout_ms(Some(Duration::from_micros(200))), 1);
        assert_eq!(timeout_ms(Some(Duration::from_millis(2))), 2);
        assert_eq!(timeout_ms(Some(Duration::from_micros(2500))), 3);
        assert_eq!(timeout_ms(Some(Duration::ZERO)), 0);
        assert_eq!(timeout_ms(None), -1);
    }
}
