//! What the daemon puts on the wire, pinned byte for byte, and how its
//! listener behaves — the two things a rewrite of the reactor's state
//! machine must not move.
//!
//! The reply captures under `tests/fixtures/daemon_reply_*.bin` were
//! taken from the reactor as it stood at commit `95b3381` (see the
//! fixtures README); every case here is replayed three ways — request
//! in one write, request one byte per `write`, reply read one byte per
//! `read` — so every split point of every inbound and outbound span is
//! crossed at least once.

use adoc::wire::{self, FrameHeader, MsgKind};
use adoc::AdocConfig;
use adoc_data::{generate, DataKind};
use adoc_integration_tests::TimingGuard;
use adoc_server::{daemon, DaemonHandle, ServeMode, Server, ServerConfig};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// One pinned exchange: a daemon configuration, the exact request
/// bytes, and the fixture holding the reply bytes.
struct Case {
    fixture: &'static str,
    server: ServerConfig,
    request: Vec<u8>,
}

fn direct_request(body: &[u8]) -> Vec<u8> {
    let mut req = wire::encode_msg_header(MsgKind::Direct, body.len() as u64).to_vec();
    req.extend_from_slice(body);
    req
}

/// An adaptive message built by hand so its bytes are a pure function
/// of `body`: a `probe`-byte raw probe, then `chunk`-byte frames whose
/// levels cycle through `levels` (0 = stored).
fn adaptive_request(body: &[u8], probe: usize, chunk: usize, levels: &[u8]) -> Vec<u8> {
    let mut req = wire::MsgHead::new(MsgKind::Adaptive, body.len() as u64, probe as u32).to_vec();
    req.extend_from_slice(&body[..probe]);
    for (i, raw) in body[probe..].chunks(chunk).enumerate() {
        let level = levels[i % levels.len()];
        let mut payload = Vec::new();
        if level == 0 {
            payload.extend_from_slice(raw);
        } else {
            adoc_codec::compress_at(level, raw, &mut payload);
            assert!(payload.len() < raw.len(), "fixture data must compress");
        }
        let hdr = FrameHeader {
            level,
            raw_len: raw.len() as u32,
            payload_len: payload.len() as u32,
        };
        req.extend_from_slice(&hdr.encode());
        req.extend_from_slice(&payload);
    }
    req
}

fn server_cfg(adoc: AdocConfig, mode: ServeMode) -> ServerConfig {
    ServerConfig::builder()
        .adoc(adoc)
        .mode(mode)
        .build()
        .expect("config")
}

fn cases() -> Vec<Case> {
    let ascii = generate(DataKind::Ascii, 300_000, 16);
    let noise = generate(DataKind::Incompressible, 600_000, 16);
    vec![
        // The per-message path of three benchmark workloads: direct in,
        // direct out.
        Case {
            fixture: "daemon_reply_direct_1k.bin",
            server: server_cfg(AdocConfig::default(), ServeMode::Echo),
            request: direct_request(&ascii[..1024]),
        },
        // A three-quantum probe, stored frames and compressed frames
        // in; three level-2 frames out (pinned levels make the reply a
        // function of the data alone).
        Case {
            fixture: "daemon_reply_l2_300k.bin",
            server: server_cfg(
                AdocConfig {
                    probe_threshold: 64 * 1024,
                    probe_size: 32 * 1024,
                    buffer_size: 128 * 1024,
                    ..AdocConfig::default()
                }
                .with_levels(2, 2),
                ServeMode::Echo,
            ),
            request: adaptive_request(&ascii, 20_000, 48 * 1024, &[2, 0, 1]),
        },
        // Three admission quanta each way.
        Case {
            fixture: "daemon_reply_l0_600k.bin",
            server: server_cfg(AdocConfig::default().with_levels(0, 0), ServeMode::Echo),
            request: direct_request(&noise),
        },
        // Zero-length probe in, 16-byte ack out.
        Case {
            fixture: "daemon_reply_sink_ack.bin",
            server: server_cfg(AdocConfig::default(), ServeMode::Sink),
            request: adaptive_request(&ascii[..50_000], 0, 20_000, &[1, 0]),
        },
    ]
}

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures")).join(name)
}

fn spawn(cfg: ServerConfig) -> DaemonHandle {
    daemon::spawn(Server::new(cfg).expect("server"), "127.0.0.1:0").expect("bind daemon")
}

#[derive(Clone, Copy, PartialEq)]
enum Pace {
    Whole,
    ByteWrites,
    ByteReads,
}

/// Sends `request`, half-closes, and returns every byte the daemon
/// wrote before it closed the connection at the message boundary.
fn exchange(daemon: &DaemonHandle, request: &[u8], pace: Pace) -> Vec<u8> {
    let mut sock = TcpStream::connect(daemon.addr()).expect("connect");
    sock.set_nodelay(true).expect("nodelay");
    sock.set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    // The request goes out on its own thread: a reply larger than the
    // socket buffers would otherwise deadlock against a slow reader.
    let writer = {
        let mut sock = sock.try_clone().expect("clone");
        let request = request.to_vec();
        std::thread::spawn(move || {
            if pace == Pace::ByteWrites {
                for b in request {
                    sock.write_all(&[b]).expect("send byte");
                }
            } else {
                sock.write_all(&request).expect("send");
            }
            sock.shutdown(Shutdown::Write).expect("half-close");
        })
    };
    let mut reply = Vec::new();
    if pace == Pace::ByteReads {
        let mut b = [0u8; 1];
        while sock.read(&mut b).expect("read byte") == 1 {
            reply.push(b[0]);
        }
    } else {
        sock.read_to_end(&mut reply).expect("read reply");
    }
    writer.join().expect("writer");
    reply
}

fn assert_same(fixture: &str, got: &[u8], want: &[u8], how: &str) {
    // Not assert_eq!: a mismatch would print two 600 KB arrays.
    let first_diff = got.iter().zip(want).position(|(a, b)| a != b);
    assert!(
        got == want,
        "{fixture} ({how}): {} bytes vs {} captured, first difference at {first_diff:?}",
        got.len(),
        want.len()
    );
}

#[test]
fn daemon_replies_are_byte_identical_at_every_split_point() {
    for case in cases() {
        let want = std::fs::read(fixture_path(case.fixture)).expect("fixture");
        let daemon = spawn(case.server);
        for (pace, how) in [
            (Pace::Whole, "one write"),
            (Pace::ByteWrites, "one byte per write"),
            (Pace::ByteReads, "one byte per read"),
        ] {
            let got = exchange(&daemon, &case.request, pace);
            assert_same(case.fixture, &got, &want, how);
        }
        let totals = daemon.server().registry().totals();
        assert_eq!(
            (totals.completed, totals.failed),
            (3, 0),
            "{}",
            case.fixture
        );
        daemon.shutdown().expect("shutdown");
    }
}

#[test]
fn the_daemon_and_send_message_write_the_same_adaptive_bytes() {
    // Both drivers seal frames through one core stage, so at a pinned
    // level the daemon's adaptive echo is what the blocking sender
    // writes for the same bytes — the head, every frame header, every
    // payload, and the short last frame (100,000 = 3 × 32 KiB + 1,696).
    let data = generate(DataKind::Ascii, 100_000, 21);
    for level in [1, 2, 10] {
        let adoc = AdocConfig {
            probe_threshold: 64 * 1024,
            probe_size: 32 * 1024,
            buffer_size: 32 * 1024,
            packet_size: 4 * 1024,
            ..AdocConfig::default()
        }
        .with_levels(level, level);
        let mut sent = Vec::new();
        adoc::sender::send_message(
            std::slice::from_mut(&mut sent),
            &mut &data[..],
            data.len() as u64,
            None,
            &adoc,
            &mut Vec::new(),
        )
        .expect("send_message");
        let daemon = spawn(server_cfg(adoc, ServeMode::Echo));
        let reply = exchange(&daemon, &sent, Pace::Whole);
        let what = format!("level {level}");
        assert_same(&what, &reply, &sent, "daemon echo vs send_message");
        daemon.shutdown().expect("shutdown");
    }
}

fn echo_1k(sock: &mut TcpStream, request: &[u8]) {
    sock.write_all(request).expect("send");
    let mut back = vec![0u8; request.len()];
    sock.read_exact(&mut back).expect("echo");
    assert_eq!(back, request, "a direct echo's reply is its request");
}

#[test]
fn connecting_costs_no_timer_tick() {
    let _timing = TimingGuard::acquire();
    let daemon = spawn(ServerConfig::builder().build().expect("config"));
    let request = direct_request(&[0x5a; 1024]);
    let t0 = Instant::now();
    for _ in 0..50 {
        let mut sock = TcpStream::connect(daemon.addr()).expect("connect");
        sock.set_nodelay(true).expect("nodelay");
        echo_1k(&mut sock, &request);
    }
    let took = t0.elapsed();
    // An accept loop on a 10 ms timer cannot do this under 500 ms.
    assert!(
        took < Duration::from_millis(250),
        "50 connect + echo rounds took {took:?}"
    );
    daemon.shutdown().expect("shutdown");
}

#[test]
fn a_dial_beyond_max_conns_waits_for_a_close() {
    let daemon = spawn(
        ServerConfig::builder()
            .max_conns(1)
            .build()
            .expect("config"),
    );
    let request = direct_request(&[0x11; 1024]);
    let mut first = TcpStream::connect(daemon.addr()).expect("connect");
    echo_1k(&mut first, &request);
    // The kernel completes the second handshake from the backlog, but
    // the daemon, at its cap, does not accept it: the echo stalls.
    let mut second = TcpStream::connect(daemon.addr()).expect("backlog connect");
    second.write_all(&request).expect("send");
    second
        .set_read_timeout(Some(Duration::from_millis(300)))
        .expect("timeout");
    let mut byte = [0u8; 1];
    let stalled = second.read(&mut byte).expect_err("served beyond max_conns");
    assert!(
        matches!(
            stalled.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ),
        "{stalled}"
    );
    assert_eq!(daemon.server().registry().totals().accepted, 1);
    // A slot frees: the queued dial is admitted and served, without
    // having to say anything more.
    drop(first);
    second
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut back = vec![0u8; request.len()];
    second.read_exact(&mut back).expect("echo after the close");
    assert_eq!(back, request);
    assert_eq!(daemon.server().registry().totals().accepted, 2);
    drop(second);
    daemon.shutdown().expect("shutdown");
}

#[test]
fn a_dial_during_drain_is_never_served() {
    let daemon = spawn(ServerConfig::builder().build().expect("config"));
    let addr = daemon.addr();
    let request = direct_request(&[0x22; 1024]);
    let mut held = TcpStream::connect(addr).expect("connect");
    echo_1k(&mut held, &request);
    daemon.server().begin_drain();
    // The held connection sits at a boundary: the drain closes it.
    held.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut byte = [0u8; 1];
    assert_eq!(held.read(&mut byte).unwrap_or(0), 0, "drained at boundary");
    // Dials from now on may complete in the kernel backlog, be refused,
    // or be reset — but no request is answered.
    for _ in 0..5 {
        let Ok(mut late) = TcpStream::connect(addr) else {
            continue;
        };
        late.set_read_timeout(Some(Duration::from_millis(200)))
            .expect("timeout");
        if late.write_all(&request).is_err() {
            continue;
        }
        assert!(
            !matches!(late.read(&mut byte), Ok(n) if n > 0),
            "a dial during drain was served"
        );
    }
    let totals = daemon.server().registry().totals();
    assert_eq!(
        totals.accepted, 1,
        "only the pre-drain connection registered"
    );
    daemon.shutdown().expect("shutdown");
}
