//! `adoc-server` end-to-end: a real TCP daemon under concurrent
//! multi-client load — mixed v1/v2 clients, pathological geometries,
//! byte-exact delivery, zero leaked pool buffers, bounded pool
//! high-water mark, clean drain shutdown — plus the handshake-failure
//! regressions (mid-hello disconnect, partial groups, the
//! `AdocStreamGroup::accept` hello timeout) and admission backpressure.

use adoc::wire::{SessionHello, SessionKind};
use adoc::{AdocConfig, AdocError, AdocSocket, AdocStreamGroup};
use adoc_data::{generate, DataKind};
use adoc_server::{daemon, DaemonHandle, ServeMode, Server, ServerConfig};
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

fn spawn_server(cfg: ServerConfig) -> DaemonHandle {
    let server = Server::new(cfg).expect("server config");
    daemon::spawn(server, "127.0.0.1:0").expect("bind daemon")
}

/// The 46 bytes a dialled group sends on stream `stream_id`.
fn session_hello(streams: u8, stream_id: u8, token: u64) -> [u8; 46] {
    SessionHello {
        streams,
        stream_id,
        token,
        kind: SessionKind::New,
        session_id: 0,
        expires_us: 0,
        mac: [0u8; 16],
    }
    .encode()
}

/// One client session: connect (1 stream = v1 socket, else a session group),
/// echo `messages` payloads byte-exactly, close.
fn run_echo_client(
    addr: SocketAddr,
    streams: usize,
    cfg: AdocConfig,
    payload: &[u8],
    messages: usize,
) {
    fn drive(conn: &mut (impl std::io::Read + std::io::Write), payload: &[u8], messages: usize) {
        for m in 0..messages {
            conn.write_all(payload).expect("send");
            let mut back = vec![0u8; payload.len()];
            conn.read_exact(&mut back).expect("echo read");
            assert_eq!(back, payload, "echo {m} must be byte-exact");
        }
    }
    if streams == 1 {
        let sock = TcpStream::connect(addr).expect("connect");
        sock.set_nodelay(true).ok();
        let r = sock.try_clone().expect("clone");
        let mut conn = AdocSocket::with_config(r, sock, cfg).expect("client cfg");
        drive(&mut conn, payload, messages);
    } else {
        let mut conn =
            AdocStreamGroup::connect(addr, cfg.with_streams(streams)).expect("group connect");
        drive(&mut conn, payload, messages);
    }
}

#[test]
fn sixty_four_concurrent_mixed_clients_with_clean_drain() {
    // ≥ 64 clients × streams {1, 2, 4} × data kinds {ascii, binary,
    // incompressible} × pathological client geometries, all at once.
    const CLIENTS: usize = 66;
    let handle = spawn_server(
        ServerConfig::builder()
            .max_conns(CLIENTS + 16)
            .pool_max_idle(Some(48))
            .build()
            .expect("config"),
    );
    let addr = handle.addr();

    thread::scope(|s| {
        for c in 0..CLIENTS {
            s.spawn(move || {
                let streams = [1usize, 2, 4][c % 3];
                let kind = [DataKind::Ascii, DataKind::Binary, DataKind::Incompressible][c % 3];
                // In-envelope but deliberately ugly geometries: packets
                // barely above a frame header, buffers that are not
                // packet multiples, a queue barely above HIGH_WATER.
                let mut cfg = AdocConfig::default().with_levels(1, 10);
                match c % 4 {
                    0 => {}
                    1 => {
                        cfg.packet_size = 9 + (c % 23);
                        cfg.buffer_size = 10_007; // prime, not a multiple
                    }
                    2 => {
                        cfg.packet_size = 8 << 10;
                        cfg.buffer_size = (8 << 10) * 3 + 17;
                        cfg.queue_cap = adoc::adapt::HIGH_WATER + 1;
                    }
                    _ => {
                        cfg.packet_size = 1 << 16;
                        cfg.buffer_size = 1 << 16; // packet == whole frame
                    }
                }
                cfg.validate().expect("stress geometries stay in-envelope");
                let payload = generate(kind, 100_000 + c * 1_337, c as u64 + 1);
                run_echo_client(addr, streams, cfg, &payload, 2);
            });
        }
    });

    // Every client done: drain and audit the daemon.
    let server = Arc::clone(handle.server());
    handle.shutdown().expect("drain shutdown");
    let totals = server.registry().totals();
    assert_eq!(totals.accepted, CLIENTS as u64);
    assert_eq!(
        totals.completed, CLIENTS as u64,
        "every client must end cleanly"
    );
    assert_eq!(totals.failed, 0);
    assert_eq!(totals.messages, 2 * CLIENTS as u64);
    assert_eq!(server.registry().live_count(), 0);
    assert_eq!(server.scheduler().active(), 0, "all buckets deregistered");

    let pool = server.pool().stats();
    assert_eq!(pool.outstanding, 0, "leaked pool buffers");
    assert!(pool.peak_outstanding > 0);
    // The high-water mark must be bounded by the live pipeline
    // population (a few buffers per connection), not by message or
    // history counts.
    assert!(
        pool.peak_outstanding <= 8 * CLIENTS as i64,
        "pool high-water {} exceeds O(connections)",
        pool.peak_outstanding
    );
    assert!(
        server.pool().idle() <= 48,
        "idle buffers exceed the configured cap"
    );
}

#[test]
fn mid_hello_disconnect_does_not_wedge_the_daemon() {
    let handle = spawn_server(
        ServerConfig::builder()
            .adoc(AdocConfig::default().with_hello_timeout(Duration::from_millis(200)))
            .build()
            .expect("config"),
    );
    let addr = handle.addr();

    // Client 1: sends the first 20 bytes of a hello, then vanishes.
    let mut half_dead = TcpStream::connect(addr).expect("connect");
    half_dead
        .write_all(&session_hello(2, 0, 5)[..20])
        .expect("partial hello");

    // Client 2: connects and never sends anything at all.
    let silent = TcpStream::connect(addr).expect("connect");

    // A well-formed client arriving *after* the rogues must be served
    // promptly — the accept loop may not be wedged.
    let payload = generate(DataKind::Ascii, 300_000, 9);
    let start = Instant::now();
    run_echo_client(
        addr,
        2,
        AdocConfig::default().with_levels(1, 10),
        &payload,
        1,
    );
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "daemon was wedged by mid-hello clients"
    );

    drop(half_dead);
    drop(silent);
    // Give the hello timeouts time to fire, then audit.
    thread::sleep(Duration::from_millis(600));
    let server = Arc::clone(handle.server());
    handle.shutdown().expect("drain");
    let totals = server.registry().totals();
    assert_eq!(totals.completed, 1);
    assert!(
        totals.handshake_failures >= 2,
        "both rogue sockets must be counted: {totals:?}"
    );
}

#[test]
fn partial_group_expires_and_later_groups_still_form() {
    let handle = spawn_server(
        ServerConfig::builder()
            .adoc(AdocConfig::default().with_hello_timeout(Duration::from_millis(250)))
            .build()
            .expect("config"),
    );
    let addr = handle.addr();

    // A client dials 1 stream of an announced 4-stream group and dies.
    {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(&session_hello(4, 0, 99)).expect("hello");
        // Dropped here: the group can never complete.
    }
    thread::sleep(Duration::from_millis(700)); // expiry fires

    // A fresh, complete 4-stream group must still be served.
    let payload = generate(DataKind::Binary, 600_000, 5);
    run_echo_client(
        addr,
        4,
        AdocConfig::default().with_levels(1, 10),
        &payload,
        1,
    );

    let server = Arc::clone(handle.server());
    handle.shutdown().expect("drain");
    let totals = server.registry().totals();
    assert_eq!(totals.completed, 1);
    assert!(totals.handshake_failures >= 1, "expired stream not counted");
}

#[test]
fn retired_v3_group_hello_is_a_handshake_failure() {
    // Both streams of the tokened version-3 hello plain groups used to
    // send: the daemon refuses each on its version byte, answers
    // nothing and admits nothing.
    let handle = spawn_server(ServerConfig::default());
    let server = Arc::clone(handle.server());
    let socks: Vec<TcpStream> = (0..2u8)
        .map(|i| {
            let mut s = TcpStream::connect(handle.addr()).expect("connect");
            let mut hello = vec![0xAD, b'G', 3, 2, i];
            hello.extend_from_slice(&99u64.to_le_bytes());
            s.write_all(&hello).expect("hello");
            s
        })
        .collect();
    for mut s in socks {
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut reply = Vec::new();
        // A close or a reset both end the read; a reply must not come.
        let _ = s.read_to_end(&mut reply);
        assert!(reply.is_empty(), "daemon answered a v3 hello: {reply:?}");
    }
    let t0 = Instant::now();
    while server.registry().totals().handshake_failures < 2 {
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "failures never counted"
        );
        thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(server.registry().totals().handshake_failures, 2);
    assert_eq!(server.registry().totals().accepted, 0);
    assert_eq!(server.registry().live_count(), 0);
    handle.shutdown().expect("drain");
}

#[test]
fn concurrent_same_size_groups_never_cross_pair() {
    // Two clients dialling 2-stream groups at the same time from the
    // same IP: without group tokens the daemon could stitch stream 0 of
    // one client to stream 1 of the other. Payload echoes prove the
    // pairing stayed straight.
    let handle = spawn_server(ServerConfig::default());
    let addr = handle.addr();
    thread::scope(|s| {
        for c in 0..6 {
            s.spawn(move || {
                let payload = generate(DataKind::Ascii, 400_000 + c * 31, c as u64 + 11);
                run_echo_client(
                    addr,
                    2,
                    AdocConfig::default().with_levels(1, 10),
                    &payload,
                    2,
                );
            });
        }
    });
    let server = Arc::clone(handle.server());
    handle.shutdown().expect("drain");
    assert_eq!(server.registry().totals().completed, 6);
    assert_eq!(server.registry().totals().failed, 0);
}

#[test]
fn accept_hello_timeout_is_typed_and_bounded() {
    // The core-level regression: AdocStreamGroup::accept with a client
    // that connects its sockets but never sends hellos must fail with
    // the typed HelloTimeout, not hang forever.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    let cfg = AdocConfig::default()
        .with_streams(2)
        .with_hello_timeout(Duration::from_millis(200));

    let rogue = thread::spawn(move || {
        let a = TcpStream::connect(addr).expect("dial 1");
        let b = TcpStream::connect(addr).expect("dial 2");
        // Hold the sockets open, silently, past the timeout.
        thread::sleep(Duration::from_millis(900));
        drop((a, b));
    });

    let start = Instant::now();
    let err = AdocStreamGroup::accept(&listener, cfg).expect_err("must time out");
    let elapsed = start.elapsed();
    match AdocError::from_io(&err) {
        Some(AdocError::HelloTimeout { timeout }) => {
            assert_eq!(*timeout, Duration::from_millis(200));
        }
        other => panic!("expected HelloTimeout, got {other:?} ({err})"),
    }
    assert!(
        elapsed < Duration::from_secs(5),
        "accept took {elapsed:?} despite a 200 ms hello timeout"
    );
    rogue.join().unwrap();
}

#[test]
fn drain_finishes_in_flight_messages_then_refuses_new_work() {
    let handle = spawn_server(
        ServerConfig::builder()
            .drain_deadline(Duration::from_secs(20))
            .build()
            .expect("config"),
    );
    let addr = handle.addr();

    // A client with a large in-flight message when the drain begins.
    let payload = generate(DataKind::Ascii, 6 << 20, 3);
    let in_flight = {
        let payload = payload.clone();
        thread::spawn(move || {
            let sock = TcpStream::connect(addr).expect("connect");
            let r = sock.try_clone().expect("clone");
            let mut conn =
                AdocSocket::with_config(r, sock, AdocConfig::default().with_levels(1, 10))
                    .expect("cfg");
            conn.write(&payload).expect("send");
            let mut back = vec![0u8; payload.len()];
            conn.read_exact(&mut back)
                .expect("echo must complete across the drain");
            assert_eq!(back, payload);
        })
    };
    // Let the transfer get going, then drain concurrently.
    thread::sleep(Duration::from_millis(50));
    let server = Arc::clone(handle.server());
    let drainer = thread::spawn(move || handle.shutdown().expect("drain"));
    in_flight.join().expect("in-flight echo failed");
    drainer.join().unwrap();

    assert!(server.is_draining());
    assert_eq!(server.registry().totals().completed, 1);
    // The daemon is gone: new dials must not be served (connection may
    // be accepted by a dead backlog but any I/O fails or EOFs).
    let probe = TcpStream::connect(addr);
    if let Ok(sock) = probe {
        sock.set_read_timeout(Some(Duration::from_millis(500))).ok();
        let r = sock.try_clone().expect("clone");
        let mut conn = AdocSocket::new(r, sock);
        assert!(
            conn.write(b"hello?").is_err() || {
                let mut b = [0u8; 6];
                conn.read_exact(&mut b).is_err()
            },
            "a drained daemon must not echo new traffic"
        );
    }
    assert_eq!(server.pool().stats().outstanding, 0);
}

#[test]
fn drain_deadline_cuts_a_client_that_stops_reading_its_echo() {
    // The reply-side stall: the client uploads a message and then never
    // reads the echo, so the server's reply backs up in the TCP buffers
    // and its write blocks. Shutdown must still complete once the drain
    // deadline passes — the guarded writer cuts the stalled reply.
    let handle = spawn_server(
        ServerConfig::builder()
            .adoc(AdocConfig::default().with_levels(0, 0))
            .drain_deadline(Duration::from_millis(800))
            .build()
            .expect("config"),
    );
    let addr = handle.addr();

    let payload = generate(DataKind::Incompressible, 8 << 20, 17);
    let sock = TcpStream::connect(addr).expect("connect");
    let r = sock.try_clone().expect("clone");
    let mut conn =
        AdocSocket::with_config(r, sock, AdocConfig::default().with_levels(0, 0)).expect("cfg");
    conn.write(&payload).expect("upload");
    // Deliberately never read the echo; give the server a moment to
    // wedge its reply into the full socket buffers.
    thread::sleep(Duration::from_millis(300));

    let server = Arc::clone(handle.server());
    let start = Instant::now();
    handle
        .shutdown()
        .expect("drain must not hang on a stalled reader");
    assert!(
        start.elapsed() < Duration::from_secs(15),
        "shutdown took {:?} despite a 800 ms drain deadline",
        start.elapsed()
    );
    drop(conn);
    let totals = server.registry().totals();
    assert_eq!(
        totals.failed, 1,
        "the cut connection must be recorded as failed: {totals:?}"
    );
    assert_eq!(server.pool().stats().outstanding, 0, "leaked pool buffers");
}

#[test]
fn accept_times_out_when_a_client_dials_too_few_streams() {
    // The dial-phase half of the hello-timeout regression: a 2-stream
    // accept whose client dials only one connection (and never more)
    // must fail with the typed HelloTimeout, not block in accept().
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    let cfg = AdocConfig::default()
        .with_streams(2)
        .with_hello_timeout(Duration::from_millis(200));

    let rogue = thread::spawn(move || {
        let only = TcpStream::connect(addr).expect("dial 1");
        thread::sleep(Duration::from_millis(900));
        drop(only);
    });

    let start = Instant::now();
    let err = AdocStreamGroup::accept(&listener, cfg).expect_err("must time out");
    assert!(
        matches!(
            AdocError::from_io(&err),
            Some(AdocError::HelloTimeout { .. })
        ),
        "expected HelloTimeout, got {err}"
    );
    assert!(start.elapsed() < Duration::from_secs(5));
    rogue.join().unwrap();

    // The listener must be restored to blocking mode: a subsequent
    // 1-stream accept still works.
    let client = thread::spawn(move || TcpStream::connect(addr).expect("dial"));
    let (s, _) = listener.accept().expect("listener must be blocking again");
    drop((s, client.join().unwrap()));
}

#[test]
fn admission_cap_backpressures_instead_of_failing() {
    // max_conns = 1: the second client queues in the backlog until the
    // first finishes; both are eventually served, nothing errors.
    let handle = spawn_server(
        ServerConfig::builder()
            .max_conns(1)
            .build()
            .expect("config"),
    );
    let addr = handle.addr();
    let payload = Arc::new(generate(DataKind::Binary, 200_000, 7));
    thread::scope(|s| {
        for _ in 0..2 {
            let payload = Arc::clone(&payload);
            s.spawn(move || {
                run_echo_client(addr, 1, AdocConfig::default(), &payload, 1);
            });
        }
    });
    let server = Arc::clone(handle.server());
    handle.shutdown().expect("drain");
    let totals = server.registry().totals();
    assert_eq!(
        totals.completed, 2,
        "both clients served, one after the other"
    );
    assert_eq!(totals.failed, 0);
}

#[test]
fn sink_mode_over_tcp_checks_integrity() {
    let handle = spawn_server(
        ServerConfig::builder()
            .mode(ServeMode::Sink)
            .build()
            .expect("config"),
    );
    let addr = handle.addr();
    let payload = generate(DataKind::Incompressible, 750_000, 13);
    let sock = TcpStream::connect(addr).expect("connect");
    let r = sock.try_clone().expect("clone");
    let mut conn =
        AdocSocket::with_config(r, sock, AdocConfig::default().with_levels(1, 10)).expect("cfg");
    conn.write(&payload).expect("send");
    let mut ack = [0u8; 16];
    conn.read_exact(&mut ack).expect("ack");
    assert_eq!(
        ack,
        adoc_server::sink_ack(payload.len() as u64, adoc_server::fnv1a64(&payload))
    );
    drop(conn);
    let server = Arc::clone(handle.server());
    handle.shutdown().expect("drain");
    assert_eq!(server.registry().totals().completed, 1);
}

#[test]
fn skewed_load_runs_the_whole_budget() {
    // Work conservation end-to-end over real TCP: 7 clients connect,
    // register with the scheduler (one tiny echo each), then sit idle
    // while 1 busy client pushes 4 MiB through an 8 MB/s budget
    // (8 MiB of wire for the echo). A work-conserving scheduler hands
    // the idle share to the busy client => ~1s; the old fixed
    // budget/active refill pinned this at ~1 MB/s => ~8s.
    const IDLE: usize = 7;
    let plain = AdocConfig::default().with_levels(0, 0);
    let handle = spawn_server(
        ServerConfig::builder()
            .adoc(plain.clone())
            .budget(Some(8e6))
            .max_conns(IDLE + 8)
            .build()
            .expect("config"),
    );
    let addr = handle.addr();

    // Releases the idle spinners even if the busy client panics, so a
    // scheduler regression fails the test instead of hanging the scope.
    struct SetOnDrop<'a>(&'a std::sync::atomic::AtomicBool);
    impl Drop for SetOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(true, std::sync::atomic::Ordering::Relaxed);
        }
    }

    let ready = std::sync::Barrier::new(IDLE + 1);
    let done = std::sync::atomic::AtomicBool::new(false);
    let busy_secs = thread::scope(|s| {
        for c in 0..IDLE {
            let (ready, done, cfg) = (&ready, &done, plain.clone());
            s.spawn(move || {
                let sock = TcpStream::connect(addr).expect("idle connect");
                sock.set_nodelay(true).ok();
                let r = sock.try_clone().expect("clone");
                let mut conn = AdocSocket::with_config(r, sock, cfg).expect("idle cfg");
                let tiny = generate(DataKind::Ascii, 1024, c as u64 + 71);
                conn.write(&tiny).expect("idle send");
                let mut back = vec![0u8; tiny.len()];
                conn.read_exact(&mut back).expect("idle echo");
                ready.wait();
                while !done.load(std::sync::atomic::Ordering::Relaxed) {
                    thread::sleep(Duration::from_millis(10));
                }
                drop(conn);
            });
        }
        ready.wait();
        let _release_idles = SetOnDrop(&done);
        let payload = generate(DataKind::Incompressible, 4 << 20, 29);
        let start = Instant::now();
        run_echo_client(addr, 1, plain.clone(), &payload, 1);
        start.elapsed().as_secs_f64()
    });
    assert!(
        busy_secs < 4.0,
        "idle share not redistributed: 8 MiB of wire took {busy_secs:.3}s at 8 MB/s aggregate"
    );
    assert!(
        busy_secs > 0.5,
        "budget not enforced under skew: {busy_secs:.3}s"
    );
    let server = Arc::clone(handle.server());
    handle.shutdown().expect("drain");
    assert_eq!(server.registry().totals().completed, (IDLE + 1) as u64);
    assert_eq!(server.registry().totals().failed, 0);
}

#[test]
fn tier_overrides_split_the_budget_by_weight() {
    // A Control-tier (4x) and a Bulk-tier client both saturate an
    // 8 MB/s budget through the transport-agnostic serve_stream path
    // (tier resolution by peer-label prefix). The control client must
    // finish well ahead; both must complete (weighted max-min, not
    // strict priority).
    use adoc_server::Tier;
    let plain = AdocConfig::default().with_levels(0, 0);
    let server = adoc_server::Server::new(
        ServerConfig::builder()
            .adoc(plain.clone())
            .budget(Some(8e6))
            .tier_override("vip-", Tier::Control)
            .build()
            .expect("config"),
    )
    .expect("server config");

    let echo_session = |peer: &'static str, seed: u64| {
        let server = Arc::clone(&server);
        let cfg = plain.clone();
        thread::spawn(move || {
            let payload = generate(DataKind::Incompressible, 3 << 20, seed);
            let (client_end, server_end) = adoc_sim::pipe::duplex_pipe(1 << 20);
            let (sr, sw) = server_end.split();
            let s2 = Arc::clone(&server);
            let serving = thread::spawn(move || s2.serve_stream(sr, sw, peer).expect("serve"));
            let (cr, cw) = client_end.split();
            let mut conn = AdocSocket::with_config(cr, cw, cfg).expect("client cfg");
            let start = Instant::now();
            conn.write(&payload).expect("send");
            let mut back = vec![0u8; payload.len()];
            conn.read_exact(&mut back).expect("echo");
            assert_eq!(back, payload);
            let secs = start.elapsed().as_secs_f64();
            drop(conn);
            serving.join().expect("server thread");
            secs
        })
    };
    let control = echo_session("vip-alpha", 31);
    let bulk = echo_session("bulk-beta", 32);
    let control_secs = control.join().expect("control client");
    let bulk_secs = bulk.join().expect("bulk client");
    assert!(
        bulk_secs > control_secs,
        "the 4x-weight client must finish first: control {control_secs:.3}s vs bulk {bulk_secs:.3}s"
    );
    assert!(
        bulk_secs < 8.0,
        "bulk tier must not starve: {bulk_secs:.3}s for 6 MiB of wire at 8 MB/s"
    );
    assert_eq!(server.registry().totals().completed, 2);
    assert_eq!(server.pool().stats().outstanding, 0);
}

#[test]
fn fair_share_budget_keeps_both_clients_moving() {
    // Two clients under a tight shared budget: both must complete (no
    // starvation) and the run must take at least the budget-implied
    // time (the cap is real).
    let handle = spawn_server(
        ServerConfig::builder()
            .budget(Some(4.0 * 1024.0 * 1024.0))
            .build()
            .expect("config"),
    );
    let addr = handle.addr();
    let payload = Arc::new(generate(DataKind::Incompressible, 2 << 20, 21));
    let start = Instant::now();
    thread::scope(|s| {
        for _ in 0..2 {
            let payload = Arc::clone(&payload);
            s.spawn(move || {
                // Incompressible + disabled compression: the wire volume
                // is the payload volume, so the budget math is exact.
                run_echo_client(
                    addr,
                    1,
                    AdocConfig::default().with_levels(0, 0),
                    &payload,
                    1,
                );
            });
        }
    });
    let secs = start.elapsed().as_secs_f64();
    // ≥ 8 MiB of server wire traffic (2 clients × 2 MiB in + 2 MiB out)
    // through a 4 MiB/s budget, minus up to ~2.5 MiB of initial burst
    // credit: anything under a second means the cap did nothing.
    assert!(secs > 1.0, "budget not enforced: finished in {secs:.3}s");
    let server = Arc::clone(handle.server());
    handle.shutdown().expect("drain");
    assert_eq!(server.registry().totals().completed, 2, "no client starved");
}

/// Raises `RLIMIT_NOFILE` toward `want` file descriptors (both halves
/// of every connection live in this one test process) and returns the
/// soft limit actually in force afterwards.
fn raise_nofile_limit(want: u64) -> u64 {
    #[repr(C)]
    struct Rlimit {
        cur: u64,
        max: u64,
    }
    extern "C" {
        fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
        fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
    }
    // The resource number is not portable: Linux says 7, while macOS
    // and the BSDs (the hosts poll.rs's poll(2) fallback targets) all
    // say 8 — using the wrong one silently adjusts a different limit.
    #[cfg(target_os = "linux")]
    const RLIMIT_NOFILE: i32 = 7;
    #[cfg(not(target_os = "linux"))]
    const RLIMIT_NOFILE: i32 = 8;
    unsafe {
        let mut have = Rlimit { cur: 0, max: 0 };
        if getrlimit(RLIMIT_NOFILE, &mut have) != 0 {
            return 1024;
        }
        if have.cur >= want {
            return have.cur;
        }
        // Raising the hard limit needs privilege; try the full ask
        // first, then settle for soft = hard.
        let full = Rlimit {
            cur: want,
            max: want.max(have.max),
        };
        if setrlimit(RLIMIT_NOFILE, &full) == 0 {
            return full.cur;
        }
        let soft_to_hard = Rlimit {
            cur: have.max,
            max: have.max,
        };
        if setrlimit(RLIMIT_NOFILE, &soft_to_hard) == 0 {
            return have.max;
        }
        have.cur
    }
}

fn connect_with_retry(addr: SocketAddr, deadline: Instant) -> TcpStream {
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => return s,
            // EMFILE never resolves by waiting — the fd budget itself
            // is wrong, so fail with the real diagnosis immediately.
            Err(e) if e.raw_os_error() == Some(24) => {
                panic!("fd budget exhausted while dialing: {e}")
            }
            Err(e) => {
                assert!(
                    Instant::now() < deadline,
                    "could not connect within the deadline: {e}"
                );
                thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

#[test]
fn ten_thousand_idle_connections_hold_flat_memory_and_drain() {
    // The reactor's scaling claim, end to end: 10k concurrent v1
    // connections on one daemon, each having served a message and gone
    // idle at its boundary, with pool memory flat (byte-budgeted) and a
    // drain that closes the whole fleet within the deadline.
    const WANT: usize = 10_000;
    const DIALERS: usize = 64;
    const IDLE_BYTE_BUDGET: usize = 32 << 20;

    // Both socket halves of every connection are fds in this process,
    // plus listener/poller/pipes/test-harness overhead.
    let limit = raise_nofile_limit((WANT * 2 + 512) as u64);
    let per_dialer = (((limit.saturating_sub(512)) / 2) as usize).min(WANT) / DIALERS;
    let n = per_dialer * DIALERS;
    assert!(n >= 1_000, "fd limit {limit} leaves no room for a fleet");

    let handle = spawn_server(
        ServerConfig::builder()
            .max_conns(n + 64)
            .pool_max_idle_bytes(Some(IDLE_BYTE_BUDGET))
            .build()
            .expect("config"),
    );
    let addr = handle.addr();

    // Dial the fleet: every connection echoes one small message (so it
    // registers, exercises the full state machine, and parks at the
    // message boundary) and is then held open, idle. The exchange is
    // hand-rolled on one `TcpStream` rather than an `AdocSocket`
    // because `AdocSocket` needs a `try_clone` for its read half —
    // a third fd per connection that busts the 2-fds-per-conn budget
    // the fleet size was computed from.
    let dial_deadline = Instant::now() + Duration::from_secs(240);
    let dialers: Vec<_> = (0..DIALERS)
        .map(|d| {
            thread::spawn(move || {
                use adoc::wire::{decode_msg_header, encode_msg_header, MsgKind, MSG_HEADER_LEN};
                let payload = generate(DataKind::Ascii, 512, d as u64 + 1);
                let mut held = Vec::with_capacity(per_dialer);
                for _ in 0..per_dialer {
                    let mut sock = connect_with_retry(addr, dial_deadline);
                    sock.set_nodelay(true).ok();
                    sock.write_all(&encode_msg_header(MsgKind::Direct, payload.len() as u64))
                        .expect("send header");
                    sock.write_all(&payload).expect("send body");
                    // 512 B is under the probe threshold, so the echo
                    // comes back as one direct message.
                    let mut head = [0u8; MSG_HEADER_LEN];
                    sock.read_exact(&mut head).expect("reply header");
                    let (kind, raw_len) = decode_msg_header(&head).expect("reply header");
                    assert_eq!(kind, MsgKind::Direct);
                    assert_eq!(raw_len, payload.len() as u64);
                    let mut back = vec![0u8; payload.len()];
                    sock.read_exact(&mut back).expect("echo");
                    assert_eq!(back, payload);
                    held.push(sock);
                }
                held
            })
        })
        .collect();
    let held: Vec<_> = dialers
        .into_iter()
        .map(|t| t.join().expect("dialer"))
        .collect();

    // A client observes its echo the moment the kernel delivers the
    // bytes — the reactor's registry update for that message lands a
    // beat later. Give the accounting a moment to settle before
    // asserting exact totals.
    let server = Arc::clone(handle.server());
    let settle = Instant::now() + Duration::from_secs(10);
    while (server.registry().totals().messages < n as u64 || server.pool().stats().outstanding != 0)
        && Instant::now() < settle
    {
        thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(server.registry().live_count(), n, "whole fleet registered");
    assert_eq!(server.registry().totals().messages, n as u64);

    // Flat memory: every message buffer went back to the pool at the
    // boundary, and the pool's idle bytes sit under the byte budget
    // instead of scaling with the fleet.
    let pool = server.pool().stats();
    assert_eq!(pool.outstanding, 0, "idle fleet must hold no pool buffers");
    assert!(
        server.pool().idle_bytes() <= IDLE_BYTE_BUDGET,
        "idle pool bytes {} exceed the {} budget",
        server.pool().idle_bytes(),
        IDLE_BYTE_BUDGET
    );

    // No thread per connection: a server that parked a thread on each
    // idle socket would hold at least `n` threads here, while the
    // reactor, its worker pool and the tests running beside this one
    // come to a few hundred. (The count is read from Linux's procfs.)
    if cfg!(target_os = "linux") {
        let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
        let threads: usize = status
            .lines()
            .find_map(|l| l.strip_prefix("Threads:"))
            .and_then(|v| v.trim().parse().ok())
            .expect("Threads: line");
        assert!(
            threads < n / 4,
            "{threads} threads while holding {n} idle connections"
        );
    }

    // Drain: 10k idle boundary connections must close in one sweep,
    // far inside the 30 s default deadline.
    let t0 = Instant::now();
    handle.shutdown().expect("drain shutdown");
    let drained_in = t0.elapsed();
    assert!(
        drained_in < Duration::from_secs(30),
        "drain of {n} idle conns took {drained_in:?}"
    );
    let totals = server.registry().totals();
    assert_eq!(totals.completed, n as u64, "idle conns drain cleanly");
    assert_eq!(totals.failed, 0);
    assert_eq!(server.registry().live_count(), 0);
    drop(held);
}
