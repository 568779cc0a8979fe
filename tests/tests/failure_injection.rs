//! Failure injection across the stack: truncated streams, mid-transfer
//! corruption, vanishing peers, and killed session connections. AdOC
//! must fail with errors, never hang or deliver wrong bytes silently —
//! and an authenticated session must survive a mid-message kill by
//! resuming byte-exactly on a fresh connection.

use adoc::{AdocConfig, AdocError, AdocSocket, AdocStreamGroup};
use adoc_data::{generate, DataKind};
use adoc_server::{daemon, DaemonHandle, Server, ServerConfig, Tier};
use adoc_sim::pipe::{duplex_pipe, pipe};
use std::io::Write;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

fn payload(n: usize) -> Vec<u8> {
    generate(DataKind::Ascii, n, 0xFA11)
}

/// Captures a full AdOC wire stream (forced compression, no probe).
/// Levels start at 2 (zlib) so every frame carries an Adler-32 — LZF
/// frames (level 1), like liblzf itself, validate only lengths.
fn captured_wire(data: &[u8]) -> Vec<u8> {
    let mut wire = Vec::new();
    let mut src = data;
    let cfg = AdocConfig::default().with_levels(2, 10);
    adoc::sender::send_message(
        std::slice::from_mut(&mut wire),
        &mut src,
        data.len() as u64,
        None,
        &cfg,
        &mut Vec::new(),
    )
    .unwrap();
    wire
}

/// Feeds raw bytes to a receiving AdocSocket through a pipe.
fn receive_bytes(wire: Vec<u8>, expect_len: usize) -> std::io::Result<Vec<u8>> {
    let (mut w, r) = pipe(1 << 20);
    let feeder = thread::spawn(move || {
        let _ = w.write_all(&wire);
        // writer drops → EOF
    });
    let (_unused_w, unused_r) = pipe(16);
    let _ = unused_r;
    let mut sock = AdocSocket::new(r, std::io::sink());
    let mut out = vec![0u8; expect_len];
    let res = sock.read_exact(&mut out).map(|()| out);
    feeder.join().unwrap();
    res
}

#[test]
fn truncation_at_every_region_errors() {
    let data = payload(600_000);
    let wire = captured_wire(&data);
    // Header, first frame, mid-payload, last byte.
    for cut in [3usize, 12, wire.len() / 3, wire.len() / 2, wire.len() - 1] {
        let res = receive_bytes(wire[..cut].to_vec(), data.len());
        assert!(res.is_err(), "cut at {cut} of {} did not error", wire.len());
    }
}

#[test]
fn corrupted_compressed_payload_detected() {
    let data = payload(600_000);
    let wire = captured_wire(&data);
    // Flip bytes across the compressed region; zlib's Adler-32 (or the
    // frame length accounting) must catch every one that changes decoded
    // bytes.
    for frac in [4usize, 3, 2] {
        let mut bad = wire.clone();
        let idx = bad.len() / frac;
        bad[idx] ^= 0x5A;
        match receive_bytes(bad, data.len()) {
            Err(_) => {}
            Ok(out) => assert_eq!(out, data, "corruption at index {idx} silently altered data"),
        }
    }
}

#[test]
fn peer_vanishing_mid_receive_unblocks_with_error() {
    let (a, b) = duplex_pipe(1 << 20);
    let (ar, aw) = a.split();
    let (br, bw) = b.split();
    let tx = AdocSocket::new(ar, aw);
    let mut rx = AdocSocket::new(br, bw);

    let t = thread::spawn(move || {
        // Start a large forced-compression message, then vanish partway:
        // emulate by writing a truncated wire image directly.
        let data = payload(2 << 20);
        let wire = captured_wire(&data);
        let (_r, w) = tx.into_inner();
        let mut w = w;
        w.write_all(&wire[..wire.len() / 2]).unwrap();
        drop(w); // connection dies here
    });
    let mut buf = vec![0u8; 2 << 20];
    let err = rx.read_exact(&mut buf).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    t.join().unwrap();
}

#[test]
fn receiver_vanishing_mid_send_unblocks_with_error() {
    // Small pipe so the sender actually blocks on the peer.
    let (a, b) = duplex_pipe(8 << 10);
    let (ar, aw) = a.split();
    let (br, bw) = b.split();
    let mut tx = AdocSocket::new(ar, aw);
    let rx = AdocSocket::new(br, bw);

    let t = thread::spawn(move || {
        thread::sleep(std::time::Duration::from_millis(50));
        drop(rx); // reader goes away while the sender is mid-message
    });
    let data = payload(4 << 20);
    let res = tx.write_levels(&data, 1, 10);
    t.join().unwrap();
    assert!(res.is_err(), "sender must observe the broken pipe");
}

#[test]
fn frame_level_out_of_range_rejected() {
    let data = payload(600_000);
    let mut wire = captured_wire(&data);
    // First frame header sits right after msg header (10) + probe_len (4);
    // set its level byte to 99.
    wire[14] = 99;
    let res = receive_bytes(wire, data.len());
    assert!(res.is_err());
}

#[test]
fn hostile_length_fields_do_not_allocate_absurdly() {
    // A direct-message header claiming an enormous size must be rejected
    // by max_message before any giant allocation happens.
    let mut wire = Vec::new();
    wire.push(0xAD);
    wire.push(0); // direct
    wire.extend_from_slice(&u64::MAX.to_le_bytes());
    let res = receive_bytes(wire.clone(), 16);
    assert!(res.is_err());

    // A frame header whose payload claims 4 GiB for 100 raw bytes must
    // trip the payload bound before the payload buffer is sized.
    let mut frame = Vec::new();
    frame.push(0xAD);
    frame.push(1); // adaptive
    frame.extend_from_slice(&(1u64 << 20).to_le_bytes());
    frame.extend_from_slice(&0u32.to_le_bytes()); // no probe
    frame.push(2); // level
    frame.extend_from_slice(&100u32.to_le_bytes());
    frame.extend_from_slice(&u32::MAX.to_le_bytes());
    let res = receive_bytes(frame.clone(), 16);
    assert!(res.is_err());

    // The reactor parses the same fields off a raw TCP socket and must
    // apply the same bounds: it hangs up instead of reading on.
    let handle = spawn_session_server(ServerConfig::builder().build().unwrap());
    for hostile in [wire, frame] {
        let mut sock = std::net::TcpStream::connect(handle.addr()).expect("dial");
        sock.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        sock.write_all(&hostile).unwrap();
        let mut reply = [0u8; 1];
        match std::io::Read::read(&mut sock, &mut reply) {
            Ok(0) => {}
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
            other => panic!("reactor kept a hostile connection open: {other:?}"),
        }
    }
    assert_eq!(handle.server().registry().totals().failed, 2);
    handle.shutdown().expect("clean drain");
}

#[test]
fn garbage_streams_error_quickly() {
    for seed in 0..20u64 {
        let garbage = generate(DataKind::Incompressible, 4096, seed);
        let res = receive_bytes(garbage, 1024);
        assert!(res.is_err(), "seed {seed} decoded garbage");
    }
}

/// Runs `f` on a watchdog: the test fails (rather than hanging CI
/// forever) if the operation deadlocks.
fn must_finish_within(secs: u64, what: &str, f: impl FnOnce() -> bool + Send + 'static) {
    let (tx, rx) = std::sync::mpsc::channel();
    thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(std::time::Duration::from_secs(secs)) {
        Ok(errored) => assert!(errored, "{what}: expected an error"),
        Err(_) => panic!("{what}: deadlocked"),
    }
}

#[test]
fn emission_death_with_full_queue_unblocks_producer() {
    // The queue-shutdown regression: the compression thread sits blocked
    // in `Queue::push` on a full queue while the emission thread dies on
    // a socket error. The queue teardown must wake the producer with an
    // error — historically this path could strand the producer forever.
    struct StallThenFail {
        wrote: usize,
    }
    impl std::io::Write for StallThenFail {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            // Accept a couple of packets, then stall long enough for the
            // producer to fill the queue, then die.
            if self.wrote < 2 {
                self.wrote += 1;
                return Ok(buf.len());
            }
            thread::sleep(std::time::Duration::from_millis(200));
            Err(std::io::Error::new(
                std::io::ErrorKind::ConnectionReset,
                "socket died mid-send",
            ))
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    must_finish_within(20, "send over a dying socket", || {
        let mut cfg = AdocConfig::default().with_levels(1, 10);
        cfg.buffer_size = 16 << 10;
        cfg.packet_size = 4 << 10;
        cfg.queue_cap = 8; // fills fast: the producer will block in push
        let data = generate(DataKind::Incompressible, 2 << 20, 0xDEAD);
        let mut sink = StallThenFail { wrote: 0 };
        let mut src = &data[..];
        adoc::sender::send_message(
            std::slice::from_mut(&mut sink),
            &mut src,
            data.len() as u64,
            None,
            &cfg,
            &mut Vec::new(),
        )
        .is_err()
    });
}

#[test]
fn panicking_decoder_thread_does_not_hang_receive() {
    // Shutdown-path regression on the receive side: a panic in the
    // decompression thread used to leave the reception thread blocked in
    // `Queue::push` (16-frame queue) with thread::scope never unwinding.
    // The queue drop-guards must poison the queue so receive returns an
    // error instead.
    struct PanicThrottle;
    impl adoc::Throttle for PanicThrottle {
        fn charge(&self, _elapsed: std::time::Duration) {
            panic!("simulated decoder death");
        }
    }
    // > 16 frames so the reception thread actually fills the queue.
    let mut tx_cfg = AdocConfig::default().with_levels(2, 10);
    tx_cfg.buffer_size = 32 << 10;
    let data = payload(2 << 20);
    let mut wire = Vec::new();
    let mut src = &data[..];
    adoc::sender::send_message(
        std::slice::from_mut(&mut wire),
        &mut src,
        data.len() as u64,
        None,
        &tx_cfg,
        &mut Vec::new(),
    )
    .unwrap();

    must_finish_within(20, "receive with a panicking decoder", move || {
        let rx_cfg = AdocConfig::default().with_throttle(std::sync::Arc::new(PanicThrottle));
        let mut readers = [std::io::Cursor::new(wire)];
        let mut out = std::io::sink();
        let mut progress = adoc::RecvProgress::default();
        adoc::receiver::receive_message(
            &mut readers,
            &mut out,
            &rx_cfg,
            &mut progress,
            None,
            &mut adoc_codec::Codec::new(),
        )
        .is_err()
    });
}

#[test]
fn striped_receiver_vanishing_fails_all_streams() {
    // Multi-stream flavour of the vanishing peer: all three stream pipes
    // die while a striped send is in flight; the sender must error out
    // of every per-stream pipeline and return.
    must_finish_within(20, "striped send into dead pipes", || {
        let mut writers = Vec::new();
        let mut readers = Vec::new();
        for _ in 0..3 {
            let (w, r) = pipe(8 << 10);
            writers.push(w);
            readers.push(r);
        }
        let killer = thread::spawn(move || {
            thread::sleep(std::time::Duration::from_millis(50));
            drop(readers);
        });
        let cfg = AdocConfig::default().with_levels(1, 10);
        let data = generate(DataKind::Ascii, 8 << 20, 0xF00D);
        let mut src = &data[..];
        let res = adoc::sender::send_message(
            &mut writers,
            &mut src,
            data.len() as u64,
            None,
            &cfg,
            &mut Vec::new(),
        );
        killer.join().unwrap();
        res.is_err()
    });
}

// ---------------------------------------------------------------------------
// Session-layer failure injection: killed connections against a live
// daemon, resumed (or refused) via HMAC tickets.
// ---------------------------------------------------------------------------

const SECRET: &[u8] = b"s3cret-failure-injection";

fn spawn_session_server(cfg: ServerConfig) -> DaemonHandle {
    let server = Server::new(cfg).expect("server config");
    daemon::spawn(server, "127.0.0.1:0").expect("bind daemon")
}

/// Streams the first `cut` bytes of `payload` as a message claiming the
/// full length, then hard-kills every TCP stream: the server is left
/// mid-message and must park the session for resume. The payload must be
/// large enough (≥ probe threshold) and the group wide enough (≥ 2) that
/// the receive is trackable.
fn kill_mid_message(
    conn: AdocStreamGroup<std::net::TcpStream, std::net::TcpStream>,
    payload: &[u8],
    cut: usize,
    cfg: &AdocConfig,
) {
    let mut conn = conn;
    let mut short = &payload[..cut];
    // The source runs dry before the declared length: the send errors
    // after the header, probe, and ~cut bytes of frames are in flight.
    let _ = conn.send_reader(&mut short, payload.len() as u64, cfg);
    conn.shutdown_streams().expect("kill streams");
    drop(conn);
}

#[test]
fn mid_message_kill_then_resume_delivers_byte_exact() {
    let handle = spawn_session_server(
        ServerConfig::builder()
            .auth_secret(SECRET.to_vec())
            .require_auth(true)
            .build()
            .unwrap(),
    );
    let server = Arc::clone(handle.server());
    let addr = handle.addr();
    let payload = generate(DataKind::Ascii, 1 << 20, 0x5E55);

    let cfg = AdocConfig::default().with_streams(3);
    let (mut conn, info) =
        AdocStreamGroup::connect_session(addr, cfg.clone(), Some(SECRET)).expect("connect");
    assert!(!info.resumed);

    // One complete echo round-trip first, so the registry and scheduler
    // have state worth carrying across the kill.
    conn.write(&payload).expect("send");
    let mut back = vec![0u8; payload.len()];
    conn.read_exact(&mut back).expect("echo");
    assert_eq!(back, payload);

    let rows = server.registry().snapshot();
    assert_eq!(rows.len(), 1, "exactly one live connection");
    let id = rows[0].id;
    assert!(server.scheduler().set_tier(id, Tier::Control));
    let pre_admitted = server
        .scheduler()
        .snapshot()
        .iter()
        .find(|b| b.conn == id)
        .expect("bucket")
        .admitted;

    kill_mid_message(conn, &payload, 600_000, &cfg);

    // Resume onto a *different* stream width (3 → 2). The server-side
    // handshake retry-polls for the park, so no sleep is needed here.
    let (mut conn2, info2, at) =
        AdocStreamGroup::resume_session(addr, AdocConfig::default().with_streams(2), &info.ticket)
            .expect("resume");
    assert!(info2.resumed, "server must report a resumed session");
    assert_eq!(info2.session_id, info.session_id);
    assert!(
        at.mid_message(),
        "kill landed mid-message, resume point was {at:?}"
    );
    assert!(at.delivered_raw < payload.len() as u64);

    // Finish the interrupted message; the echo must be the FULL payload,
    // byte-exact, assembled from both connections.
    conn2.write_resumed(&payload, at).expect("resumed send");
    let mut back = vec![0u8; payload.len()];
    conn2.read_exact(&mut back).expect("resumed echo");
    assert_eq!(back, payload, "resumed delivery must be byte-exact");

    // State carryover: same registry id, tier survives, admitted bytes
    // kept the pre-kill history.
    assert!(server.sessions().stats().resumed >= 1);
    let rows = server.registry().snapshot();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].id, id, "resume must keep the registry identity");
    assert_eq!(rows[0].streams, 2, "snapshot reflects the new width");
    let bucket = server
        .scheduler()
        .snapshot()
        .into_iter()
        .find(|b| b.conn == id)
        .expect("resumed bucket");
    assert_eq!(bucket.tier, Tier::Control, "tier must survive the resume");
    assert!(
        bucket.admitted >= pre_admitted,
        "admitted byte history must carry over ({} < {pre_admitted})",
        bucket.admitted
    );

    drop(conn2);
    handle.shutdown().expect("clean drain");
}

#[test]
fn tampered_ticket_rejected_before_admission() {
    let handle = spawn_session_server(
        ServerConfig::builder()
            .auth_secret(SECRET.to_vec())
            .require_auth(true)
            .build()
            .unwrap(),
    );
    let server = Arc::clone(handle.server());
    let addr = handle.addr();

    let cfg = AdocConfig::default().with_streams(2);
    let (conn, info) = AdocStreamGroup::connect_session(addr, cfg, Some(SECRET)).expect("connect");
    drop(conn); // clean close at a boundary: session completes

    // The server activates (and counts) the connection after it has
    // already answered the hello; wait for the close to land so the
    // accepted total below is stable.
    let t0 = Instant::now();
    while server.registry().totals().completed == 0 {
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "first session never completed: {:?}",
            server.registry().totals()
        );
        thread::sleep(Duration::from_millis(5));
    }
    let accepted_before = server.registry().totals().accepted;
    assert_eq!(accepted_before, 1);
    let mut bad = info.ticket;
    bad.mac[0] ^= 0x01;
    let err = AdocStreamGroup::resume_session(addr, AdocConfig::default().with_streams(2), &bad)
        .expect_err("tampered ticket must be refused");
    assert!(
        matches!(AdocError::from_io(&err), Some(AdocError::AuthFailed { .. })),
        "want AuthFailed, got {err:?}"
    );
    assert!(server.sessions().stats().rejected >= 1);
    assert_eq!(
        server.registry().totals().accepted,
        accepted_before,
        "a rejected ticket must never reach registry admission"
    );
    handle.shutdown().expect("clean drain");
}

#[test]
fn expired_ticket_rejected_with_typed_error() {
    let handle = spawn_session_server(
        ServerConfig::builder()
            .auth_secret(SECRET.to_vec())
            .ticket_ttl(Duration::from_millis(1))
            .build()
            .unwrap(),
    );
    let addr = handle.addr();
    let (conn, info) =
        AdocStreamGroup::connect_session(addr, AdocConfig::default().with_streams(2), Some(SECRET))
            .expect("connect");
    drop(conn);

    thread::sleep(Duration::from_millis(20));
    let err =
        AdocStreamGroup::resume_session(addr, AdocConfig::default().with_streams(2), &info.ticket)
            .expect_err("expired ticket must be refused");
    assert!(
        matches!(
            AdocError::from_io(&err),
            Some(AdocError::ResumeRejected { .. })
        ),
        "want ResumeRejected, got {err:?}"
    );
    handle.shutdown().expect("clean drain");
}

#[test]
fn resume_across_drain_refused() {
    let handle = spawn_session_server(
        ServerConfig::builder()
            .auth_secret(SECRET.to_vec())
            .drain_deadline(Duration::from_millis(500))
            .build()
            .unwrap(),
    );
    let server = Arc::clone(handle.server());
    let addr = handle.addr();
    let payload = generate(DataKind::Binary, 1 << 20, 0xD2A1);

    let cfg = AdocConfig::default().with_streams(2);
    let (conn, info) =
        AdocStreamGroup::connect_session(addr, cfg.clone(), Some(SECRET)).expect("connect");
    let ticket = info.ticket;
    kill_mid_message(conn, &payload, 600_000, &cfg);

    // Wait for the server to actually park the session before draining.
    let t0 = Instant::now();
    while server.sessions().stats().parked == 0 {
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "session never parked: {:?}",
            server.sessions().stats()
        );
        thread::sleep(Duration::from_millis(5));
    }

    server.begin_drain();
    let err = AdocStreamGroup::resume_session(addr, AdocConfig::default().with_streams(2), &ticket)
        .expect_err("a draining server must refuse resumes");
    assert!(
        matches!(
            AdocError::from_io(&err),
            Some(AdocError::ResumeRejected { .. })
        ),
        "want ResumeRejected, got {err:?}"
    );

    handle.shutdown().expect("drain completes");
    // Shutdown reclaims the still-parked session.
    assert!(server.sessions().stats().expired >= 1);
}

#[test]
fn plain_group_connect_under_require_auth_is_auth_failed() {
    // A 2-stream `connect` opens a session with no MAC: a require_auth
    // daemon refuses it with a typed answer before admitting anything.
    let handle = spawn_session_server(
        ServerConfig::builder()
            .auth_secret(SECRET.to_vec())
            .require_auth(true)
            .build()
            .unwrap(),
    );
    let server = Arc::clone(handle.server());
    let err = AdocStreamGroup::connect(handle.addr(), AdocConfig::default().with_streams(2))
        .expect_err("a group without a MAC must be refused");
    assert!(
        matches!(AdocError::from_io(&err), Some(AdocError::AuthFailed { .. })),
        "want AuthFailed, got {err:?}"
    );
    assert_eq!(server.registry().totals().accepted, 0);
    handle.shutdown().expect("clean drain");
}

#[test]
fn killed_plain_group_is_parked_then_reclaimed() {
    // A 2-stream `connect` group with no secret is a session too: a hard
    // kill mid-message detaches it, and once the resume window lapses
    // with no resume the daemon reclaims the entry and every buffer.
    let handle = spawn_session_server(
        ServerConfig::builder()
            .resume_window(Duration::from_millis(200))
            .build()
            .unwrap(),
    );
    let server = Arc::clone(handle.server());
    let cfg = AdocConfig::default().with_streams(2);
    let conn = AdocStreamGroup::connect(handle.addr(), cfg.clone()).expect("connect");
    let payload = generate(DataKind::Binary, 1 << 20, 0xC0DE);
    kill_mid_message(conn, &payload, 600_000, &cfg);

    let t0 = Instant::now();
    while server.sessions().stats().expired == 0 {
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "killed group never reclaimed: {:?}",
            server.sessions().stats()
        );
        thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(server.sessions().stats().parked, 0);
    assert_eq!(server.registry().live_count(), 0);
    assert_eq!(server.pool().stats().outstanding, 0, "leaked pool buffers");
    assert_eq!(server.registry().totals().failed, 1);
    handle.shutdown().expect("clean drain");
}
