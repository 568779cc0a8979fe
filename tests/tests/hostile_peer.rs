//! A peer's length fields must not size the receiver's memory. Each case
//! sends a few bytes whose headers claim gigabytes, and a counting global
//! allocator checks that no allocation — and no rise in live heap — goes
//! beyond a fixed budget plus a constant times the bytes actually sent.
//! The allocator refuses any single request above 256 MiB, so a receiver
//! that sizes memory from a claim aborts this binary at once instead of
//! committing the memory.
//!
//! The same counter prices an idle connection on an instrumented daemon
//! against one on a bare daemon: observation must not outweigh what it
//! observes.

use adoc::receiver::{receive_message, RecvProgress};
use adoc::wire::{encode_msg_header, FrameHeader, MsgKind};
use adoc::{AdocConfig, AdocSocket};
use adoc_codec::Codec;
use adoc_server::{daemon, Server, ServerConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{self, Cursor, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The largest single request the allocator grants.
const REFUSE_ABOVE: usize = 256 << 20;

/// What any case may allocate whatever it is sent: thread stacks aside,
/// a daemon's first connections and the receive's one-step reserves.
const BUDGET: usize = 64 << 20;

/// What each byte sent may add on top: the most raw bytes one payload
/// byte can decode to (DEFLATE's 1032:1).
const PER_BYTE: usize = 1032;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

struct Counting;

impl Counting {
    fn granted(size: usize) -> bool {
        LARGEST.fetch_max(size, Ordering::Relaxed);
        size <= REFUSE_ABOVE
    }

    fn grew(by: usize) {
        let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if !Counting::granted(layout.size()) {
            return std::ptr::null_mut();
        }
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            Counting::grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if !Counting::granted(layout.size()) {
            return std::ptr::null_mut();
        }
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            Counting::grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if !Counting::granted(new_size) {
            return std::ptr::null_mut();
        }
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            Counting::grew(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// One case at a time: the counters are process-wide.
static SERIAL: Mutex<()> = Mutex::new(());

/// Runs `case`, which returns the bytes it sent, and asserts that
/// neither its largest allocation nor its rise in live heap exceeded
/// the budget plus `PER_BYTE` bytes per byte sent.
fn bounded(what: &str, case: impl FnOnce() -> usize) {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let start = LIVE.load(Ordering::Relaxed);
    PEAK.store(start, Ordering::Relaxed);
    LARGEST.store(0, Ordering::Relaxed);
    let sent = case();
    let limit = BUDGET + PER_BYTE * sent;
    let largest = LARGEST.load(Ordering::Relaxed);
    let rise = PEAK.load(Ordering::Relaxed).saturating_sub(start);
    assert!(
        largest <= limit,
        "{what}: one allocation of {largest} B for {sent} B sent"
    );
    assert!(
        rise <= limit,
        "{what}: live heap rose {rise} B for {sent} B sent"
    );
}

/// An adaptive message claiming 8 GiB with an empty probe, then one
/// frame header.
fn lying_frame(level: u8, raw_len: u32, payload_len: u32) -> Vec<u8> {
    let mut wire = encode_msg_header(MsgKind::Adaptive, 8 << 30).to_vec();
    wire.extend_from_slice(&0u32.to_le_bytes());
    let frame = FrameHeader {
        level,
        raw_len,
        payload_len,
    };
    wire.extend_from_slice(&frame.encode());
    wire
}

fn receive(wire: &[u8]) -> io::Result<Option<u64>> {
    receive_message(
        &mut [Cursor::new(wire)],
        &mut io::sink(),
        &AdocConfig::default(),
        &mut RecvProgress::default(),
        None,
        &mut Codec::new(),
    )
}

#[test]
fn a_compressed_frame_claiming_4_gib_is_refused_before_its_scratch() {
    bounded("level-1 frame of u32::MAX raw bytes", || {
        // 35 bytes: the frame's 12 payload bytes can decode to 12 KiB at
        // most, so its raw length is corrupt.
        let mut wire = lying_frame(1, u32::MAX, 12);
        wire.extend_from_slice(&[0x5a; 12]);
        assert_eq!(wire.len(), 35);
        let err = receive(&wire).expect_err("a lying frame was accepted");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        wire.len()
    });
}

#[test]
fn a_stored_frame_claiming_4_gib_grows_only_as_bytes_land() {
    bounded("stored frame of u32::MAX bytes", || {
        let mut wire = lying_frame(0, u32::MAX, u32::MAX);
        wire.resize(wire.len() + (1 << 20), 0x5a);
        let err = receive(&wire).expect_err("a truncated frame was accepted");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
        wire.len()
    });
}

#[test]
fn the_daemon_serves_on_after_headers_claiming_512_gib() {
    let daemon = daemon::spawn(
        Server::new(ServerConfig::builder().build().expect("config")).expect("server"),
        "127.0.0.1:0",
    )
    .expect("daemon");
    let server = daemon.server().clone();
    bounded("daemon", || {
        // A direct message claiming 512 GiB, and a stored frame claiming
        // 4 GiB of an 8 GiB message, each followed by 64 KiB of body.
        let mut direct = encode_msg_header(MsgKind::Direct, 512 << 30).to_vec();
        direct.resize(direct.len() + (64 << 10), 0x5a);
        let mut stored = lying_frame(0, u32::MAX, u32::MAX);
        stored.resize(stored.len() + (64 << 10), 0x5a);
        let mut sent = 0;
        let mut hostile = Vec::new();
        for wire in [direct, stored] {
            let mut sock = TcpStream::connect(daemon.addr()).expect("connect");
            sock.write_all(&wire).expect("send");
            sent += wire.len();
            hostile.push(sock);
        }
        // Both message buffers are checked out once their headers parse.
        let end = Instant::now() + Duration::from_secs(20);
        while server.pool().stats().outstanding < 2 {
            assert!(Instant::now() < end, "the daemon never read the headers");
            std::thread::sleep(Duration::from_millis(5));
        }
        // The next connection is served.
        let sock = TcpStream::connect(daemon.addr()).expect("connect");
        let mut conn = AdocSocket::new(sock.try_clone().expect("clone"), sock);
        let payload = vec![0x42u8; 1024];
        conn.write_all(&payload).expect("send");
        let mut back = vec![0u8; payload.len()];
        conn.read_exact(&mut back).expect("echo");
        assert_eq!(back, payload);
        sent + payload.len()
    });
    daemon.shutdown().expect("shutdown");
    // The two liars failed mid-message; the echo completed.
    let totals = server.registry().totals();
    assert_eq!(
        (totals.messages, totals.failed, totals.completed),
        (1, 2, 1),
        "{totals:?}"
    );
}

/// Live-heap rise per connection of `n` v1 connections to an in-process
/// daemon built with `instrument`: each echoes one 512-byte direct
/// message, then is held idle while the rise is read.
fn heap_per_idle_conn(instrument: bool, n: usize) -> usize {
    let cfg = ServerConfig::builder()
        .instrument(instrument)
        .max_conns(n + 1)
        .build();
    let daemon = daemon::spawn(
        Server::new(cfg.expect("config")).expect("server"),
        "127.0.0.1:0",
    )
    .expect("daemon");
    let server = daemon.server().clone();
    let mut request = encode_msg_header(MsgKind::Direct, 512).to_vec();
    request.resize(request.len() + 512, 0x42);
    let mut reply = vec![0u8; request.len()];
    let mut idle = Vec::with_capacity(n);
    let start = LIVE.load(Ordering::Relaxed);
    for _ in 0..n {
        let mut sock = TcpStream::connect(daemon.addr()).expect("connect");
        sock.set_read_timeout(Some(Duration::from_secs(20)))
            .expect("timeout");
        sock.write_all(&request).expect("send");
        io::Read::read_exact(&mut sock, &mut reply).expect("echo");
        assert_eq!(reply, request, "a direct message comes back as sent");
        idle.push(sock);
    }
    // The reply's last byte can reach the client before the daemon has
    // booked the message.
    let end = Instant::now() + Duration::from_secs(20);
    while server.registry().totals().messages < n as u64 {
        assert!(Instant::now() < end, "the daemon never booked every echo");
        std::thread::sleep(Duration::from_millis(5));
    }
    let rise = LIVE.load(Ordering::Relaxed).saturating_sub(start);
    drop(idle);
    daemon.shutdown().expect("shutdown");
    rise / n
}

#[test]
fn an_idle_traced_connection_costs_about_what_a_bare_one_does() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let traced = heap_per_idle_conn(true, 1000);
    let bare = heap_per_idle_conn(false, 1000);
    eprintln!("live heap per idle connection: traced {traced} B, bare {bare} B");
    assert!(
        traced <= bare + 4096,
        "an idle traced connection holds {traced} B against {bare} B bare"
    );
}
