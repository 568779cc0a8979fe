//! Striped multi-stream transfers across the stack: wire-format
//! compatibility (`streams == 1` must stay byte-identical v1),
//! reassembly correctness over pathological geometries and stream
//! counts, stalled-stream behaviour, real TCP stream groups, and
//! striping's speedup when compression is the bottleneck.

use adoc::receiver::{receive_message, RecvProgress};
use adoc::sender::send_message;
use adoc::{AdocConfig, AdocStreamGroup};
use adoc_data::{generate, DataKind};
use adoc_integration_tests::TimingGuard;
use adoc_sim::link::{duplex, LinkCfg, LinkReader, LinkWriter};
use adoc_sim::mbit;
use adoc_sim::pipe::{duplex_pipe, PipeReader, PipeWriter};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::io::Cursor;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

type Group = AdocStreamGroup<PipeReader, PipeWriter>;

/// Both ends of an n-stream group over sim pipes.
fn group_pair_caps(caps: &[usize], cfg: &AdocConfig) -> (Group, Group) {
    let mut left = Vec::new();
    let mut right = Vec::new();
    for &cap in caps {
        let (a, b) = duplex_pipe(cap);
        left.push(a.split());
        right.push(b.split());
    }
    let tx = AdocStreamGroup::from_pairs(left, cfg.clone()).unwrap();
    (tx, AdocStreamGroup::from_pairs(right, cfg.clone()).unwrap())
}

fn group_pair(n: usize, cfg: &AdocConfig) -> (Group, Group) {
    group_pair_caps(&vec![1 << 20; n], cfg)
}

/// A wire capture under `tests/fixtures/`, taken from the separate v1 and
/// striped senders at the commit before the two pipelines became one (the
/// README there has the capture program).
fn fixture(name: &str) -> Vec<u8> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The geometry the fixtures were captured with: small enough that a
/// 100 KB message spans several frames and the captures stay small.
fn fixture_cfg() -> AdocConfig {
    AdocConfig {
        buffer_size: 32 * 1024,
        packet_size: 4 * 1024,
        probe_threshold: 8 * 1024,
        probe_size: 4 * 1024,
        ..AdocConfig::default()
    }
}

fn decode(streams: Vec<Vec<u8>>, cfg: &AdocConfig) -> Vec<u8> {
    let mut cursors: Vec<Cursor<Vec<u8>>> = streams.into_iter().map(Cursor::new).collect();
    let mut out = Vec::new();
    let got = receive_message(
        &mut cursors,
        &mut out,
        cfg,
        &mut RecvProgress::default(),
        None,
        &mut adoc_codec::Codec::new(),
    )
    .unwrap();
    assert_eq!(got, Some(out.len() as u64));
    out
}

#[test]
fn single_stream_wire_is_byte_identical_v1() {
    // The compatibility contract from the negotiation rule: one stream
    // writes exactly the paper's v1 bytes. N = 1 is now just a value of
    // the stream count, so "v1" is pinned by what the dedicated v1 sender
    // used to emit: a direct message, pinned-level adaptive messages (a
    // fixed level makes the frame stream deterministic) and a fast-path
    // message (probe forced fast).
    let data = generate(DataKind::Ascii, 100_000, 7);
    let pinned = |level: u8| fixture_cfg().with_levels(level, level);
    let mut fast = fixture_cfg();
    fast.fast_bps = 0.0;
    for (name, cfg, input) in [
        ("v1_direct.bin", fixture_cfg(), &data[..5_000]),
        ("v1_pinned_l1.bin", pinned(1), &data[..]),
        ("v1_pinned_l2.bin", pinned(2), &data[..]),
        ("v1_pinned_l10.bin", pinned(10), &data[..]),
        ("v1_fast_path.bin", fast, &data[..40_000]),
    ] {
        let mut wire = vec![Vec::new()];
        let mut src = input;
        send_message(
            &mut wire,
            &mut src,
            input.len() as u64,
            None,
            &cfg,
            &mut Vec::new(),
        )
        .unwrap();
        assert!(
            wire[0] == fixture(name),
            "{name}: streams == 1 drifted from v1"
        );
        assert!(decode(wire, &cfg) == input, "{name}: decode");
    }

    // Golden direct-path layout: magic, kind, u64 length, raw payload.
    let mut golden = vec![0xADu8, 0x00];
    golden.extend_from_slice(&5_000u64.to_le_bytes());
    golden.extend_from_slice(&data[..5_000]);
    assert_eq!(
        fixture("v1_direct.bin"),
        golden,
        "v1 direct framing drifted"
    );
}

/// The data frames of one captured v2 stream by `seq`: header bytes and
/// payload. The primary stream's message header and probe are skipped;
/// every stream must end on its FIN.
fn v2_frames(mut wire: &[u8], primary: bool) -> BTreeMap<u64, (Vec<u8>, Vec<u8>)> {
    use adoc::wire::{FRAME_HEADER_V2_LEN, LEVEL_FIN, MSG_HEADER_LEN};
    let u32_at = |b: &[u8], at: usize| u32::from_le_bytes(b[at..at + 4].try_into().unwrap());
    if primary {
        let probe = u32_at(wire, MSG_HEADER_LEN) as usize;
        wire = &wire[MSG_HEADER_LEN + 4 + probe..];
    }
    let mut frames = BTreeMap::new();
    loop {
        let (hdr, rest) = wire.split_at(FRAME_HEADER_V2_LEN);
        if hdr[0] == LEVEL_FIN {
            assert!(rest.is_empty(), "bytes after the FIN");
            return frames;
        }
        let seq = u64::from_le_bytes(hdr[2..10].try_into().unwrap());
        assert!(
            hdr[0] <= adoc::ADOC_MAX_LEVEL,
            "seq {seq}: level byte {:#04x}",
            hdr[0]
        );
        let (payload, rest) = rest.split_at(u32_at(hdr, 14) as usize);
        assert!(frames
            .insert(seq, (hdr.to_vec(), payload.to_vec()))
            .is_none());
        wire = rest;
    }
}

#[test]
fn default_striped_frames_match_the_v2_capture_seq_by_seq() {
    // A two-stream connection built from the default config writes the
    // 18-byte v2 header the capture records, and the same payload for
    // every `seq`. Only the stream byte may differ: claim-based striping
    // picks the stream.
    let data = generate(DataKind::Ascii, 100_000, 7);
    let cfg = fixture_cfg().with_levels(2, 2);
    let pairs = vec![
        (std::io::empty(), Vec::new()),
        (std::io::empty(), Vec::new()),
    ];
    let mut group = AdocStreamGroup::from_pairs(pairs, cfg).unwrap();
    group.write(&data).unwrap();
    let wire: Vec<Vec<u8>> = group.into_pairs().into_iter().map(|(_, w)| w).collect();
    let frames = |s0: &[u8], s1: &[u8]| {
        let mut all = v2_frames(s0, true);
        for (seq, frame) in v2_frames(s1, false) {
            assert!(
                all.insert(seq, frame).is_none(),
                "seq {seq} on both streams"
            );
        }
        all
    };
    let sent = frames(&wire[0], &wire[1]);
    let captured = frames(
        &fixture("v2_two_streams_l2_s0.bin"),
        &fixture("v2_two_streams_l2_s1.bin"),
    );
    assert_eq!(
        sent.keys().collect::<Vec<_>>(),
        captured.keys().collect::<Vec<_>>()
    );
    for (seq, (hdr, payload)) in &sent {
        let (want_hdr, want_payload) = &captured[seq];
        let no_stream = |h: &[u8]| [&h[..1], &h[2..]].concat();
        assert_eq!(no_stream(hdr), no_stream(want_hdr), "seq {seq}: header");
        assert!(payload == want_payload, "seq {seq}: payload");
    }
}

#[test]
fn round_robin_striped_capture_still_decodes() {
    // A 2-stream capture from the old dispatcher, which dealt frame s to
    // stream s % 2: the receiver keys on sequence numbers and FIN counts
    // only, so a peer striping that way must still be understood.
    let data = generate(DataKind::Ascii, 100_000, 7);
    let streams = vec![
        fixture("v2_two_streams_l2_s0.bin"),
        fixture("v2_two_streams_l2_s1.bin"),
    ];
    assert!(decode(streams, &fixture_cfg()) == data);
}

#[test]
fn one_stalling_stream_backpressures_but_completes() {
    // Stream 1 gets a 2 KB pipe and the receiver only starts draining
    // after a delay: the sender must stall (bounded per-stream channels, no
    // unbounded buffering) yet the transfer must complete byte-exactly
    // once the stream unblocks.
    let cfg = AdocConfig::default().with_levels(1, 10);
    let (tx, mut rx) = group_pair_caps(&[1 << 20, 2 << 10, 1 << 20], &cfg);
    let data = generate(DataKind::Ascii, 3 << 20, 11);
    let expect = data.clone();
    let t = thread::spawn(move || {
        let mut tx = tx;
        tx.write(&data).unwrap();
        tx
    });
    // Let the sender run into the stalled stream before draining.
    thread::sleep(std::time::Duration::from_millis(150));
    let mut got = vec![0u8; expect.len()];
    rx.read_exact(&mut got).unwrap();
    t.join().unwrap();
    assert_eq!(got, expect, "stall must delay, never corrupt");
}

#[test]
fn dead_stream_mid_transfer_errors_instead_of_hanging() {
    // Kill one secondary stream's read side mid-transfer: the sender's
    // write must fail (broken pipe on that stream) rather than block
    // forever, and the receiver must report an error too.
    let cfg = AdocConfig::default().with_levels(1, 10);
    let mut left = Vec::new();
    let mut right = Vec::new();
    for _ in 0..3 {
        let (a, b) = duplex_pipe(64 << 10);
        left.push(a.split());
        right.push(b.split());
    }
    let tx = AdocStreamGroup::from_pairs(left, cfg.clone()).unwrap();
    let rx = AdocStreamGroup::from_pairs(right, cfg).unwrap();
    let data = generate(DataKind::Incompressible, 8 << 20, 13);
    let t = thread::spawn(move || {
        let mut tx = tx;
        tx.write(&data)
    });
    let reader = thread::spawn(move || {
        // Vanish without ever draining: every stream's pipe fills, the
        // sender blocks, then all read ends disappear at once.
        thread::sleep(std::time::Duration::from_millis(80));
        drop(rx);
    });
    reader.join().unwrap();
    let res = t.join().unwrap();
    assert!(res.is_err(), "sender must observe the dead peer");
}

#[test]
fn tcp_stream_group_roundtrip() {
    // Real localhost TCP with 4 striped connections and out-of-order
    // accept handling.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    let cfg = AdocConfig::default().with_streams(4).with_levels(1, 10);
    let cfg2 = cfg.clone();
    let client = thread::spawn(move || AdocStreamGroup::connect(addr, cfg2).expect("connect"));
    let mut server = AdocStreamGroup::accept(&listener, cfg).expect("accept");
    let mut client = client.join().unwrap();
    assert_eq!(client.streams(), 4);
    assert_eq!(server.streams(), 4);

    let data = generate(DataKind::Ascii, 4 << 20, 17);
    let expect = data.clone();
    let t = thread::spawn(move || {
        let rep = client.write(&data).unwrap();
        assert_eq!(rep.raw, data.len() as u64);
        client
    });
    let mut got = vec![0u8; expect.len()];
    server.read_exact(&mut got).unwrap();
    let client = t.join().unwrap();
    assert_eq!(got, expect);
    // Striped accounting surfaced through the group stats.
    assert_eq!(client.stats().per_stream.len(), 4);
    assert_eq!(
        client
            .stats()
            .per_stream
            .iter()
            .map(|s| s.raw_bytes)
            .sum::<u64>(),
        expect.len() as u64
    );
}

#[test]
fn bidirectional_striped_ping_pong() {
    let cfg = AdocConfig::default().with_levels(1, 10);
    let (mut a, mut b) = group_pair(2, &cfg);
    let t = thread::spawn(move || {
        for _ in 0..10 {
            let mut buf = vec![0u8; 600_000];
            b.read_exact(&mut buf).unwrap();
            b.write(&buf).unwrap();
        }
        b
    });
    let msg = generate(DataKind::Binary, 600_000, 23);
    for _ in 0..10 {
        a.write(&msg).unwrap();
        let mut back = vec![0u8; msg.len()];
        a.read_exact(&mut back).unwrap();
        assert_eq!(back, msg);
    }
    t.join().unwrap();
}

type LinkGroup = AdocStreamGroup<LinkReader, LinkWriter>;

/// One-way striped transfer: `payload` goes through a fresh
/// `streams`-wide group, each stream on its own freshly shaped link
/// (parallel sockets get parallel line rates). Returns the wall time
/// until the receiver holds every byte; delivery is asserted byte-exact.
fn striped_oneway(
    link: &LinkCfg,
    payload: &Arc<Vec<u8>>,
    streams: usize,
    local: &AdocConfig,
    remote: &AdocConfig,
) -> Duration {
    let mut left = Vec::new();
    let mut right = Vec::new();
    for _ in 0..streams {
        let (a, b) = duplex(link.clone());
        left.push(a.split());
        right.push(b.split());
    }
    let mut tx: LinkGroup = AdocStreamGroup::from_pairs(left, local.clone()).unwrap();
    let mut rx: LinkGroup = AdocStreamGroup::from_pairs(right, remote.clone()).unwrap();
    let p = Arc::clone(payload);
    let start = Instant::now();
    let sender = thread::spawn(move || {
        tx.write(&p).expect("striped send");
        tx
    });
    let mut got = vec![0u8; payload.len()];
    rx.read_exact(&mut got).expect("striped recv");
    let elapsed = start.elapsed();
    sender.join().unwrap();
    assert_eq!(&got, &**payload, "striped delivery must be byte-exact");
    elapsed
}

#[test]
fn striped_transfer_scales_with_throttled_compression() {
    // With compression throttled to be the bottleneck, 4 streams (4
    // compression threads + 4 links) move data faster than 1. Wall-clock
    // ratios need an optimized build; debug builds assert the mechanism
    // only (byte-exact striped delivery), mirroring the LAN tests.
    // 4 MiB at an 8× throttle: the compression stage is several hundred
    // ms, far above link/setup fixed costs, so the striping effect is
    // unambiguous even on a contended host.
    let link = LinkCfg::new(mbit(100.0), Duration::from_millis(1));
    let payload = Arc::new(generate(DataKind::Ascii, 4 << 20, 77));
    let throttled = AdocConfig::default()
        .with_levels(6, 6)
        .with_throttle(Arc::new(adoc::SleepThrottle::new(8.0)));
    let plain = AdocConfig::default();
    if cfg!(debug_assertions) {
        striped_oneway(&link, &payload, 4, &throttled, &plain);
        return;
    }
    let _lock = TimingGuard::acquire();
    let mut last = String::new();
    for _ in 0..4 {
        let one = striped_oneway(&link, &payload, 1, &throttled, &plain);
        let four = striped_oneway(&link, &payload, 4, &throttled, &plain);
        let speedup = one.as_secs_f64() / four.as_secs_f64();
        if speedup > 1.25 {
            return;
        }
        last = format!("4 streams {four:.3?} vs 1 stream {one:.3?} (speedup {speedup:.2})");
    }
    panic!("striping never beat one stream in 4 attempts; last: {last}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn striped_reassembly_is_byte_exact(
        streams in prop_oneof![Just(1usize), Just(2), Just(4)],
        // Deliberately outside AdocConfig::validate's envelope, as in the
        // single-stream pathological proptest: packets smaller than a
        // frame header, packets larger than whole frames, buffers that
        // are not packet multiples.
        packet_size in prop_oneof![
            Just(1usize),
            4usize..9,
            10usize..100,
            (1usize << 20)..(2 << 20),
        ],
        buffer_size in prop_oneof![
            1usize..30,
            1000usize..40_000,
        ],
        (min, max) in (1u8..=10, 1u8..=10).prop_map(|(a, b)| if a <= b { (a, b) } else { (b, a) }),
        data in proptest::collection::vec(any::<u8>(), 0..60_000),
    ) {
        let mut cfg = AdocConfig::default().with_levels(min, max);
        cfg.packet_size = packet_size;
        cfg.buffer_size = buffer_size;

        let mut sinks: Vec<Vec<u8>> = vec![Vec::new(); streams];
        let mut src = &data[..];
        send_message(&mut sinks, &mut src, data.len() as u64, None, &cfg, &mut Vec::new()).unwrap();
        prop_assert_eq!(
            cfg.pool.stats().outstanding, 0,
            "sender leaked pooled buffers"
        );

        let mut cursors: Vec<Cursor<Vec<u8>>> = sinks.into_iter().map(Cursor::new).collect();
        let mut out = Vec::new();
        let got =
            receive_message(&mut cursors, &mut out, &cfg, &mut RecvProgress::default(), None, &mut adoc_codec::Codec::new())
                .unwrap();
        prop_assert_eq!(got, Some(data.len() as u64));
        prop_assert_eq!(out, data, "delivery must be byte-exact (streams = {})", streams);
        prop_assert_eq!(
            cfg.pool.stats().outstanding, 0,
            "receiver leaked pooled buffers"
        );
    }

    #[test]
    fn striped_groups_preserve_message_streams(
        streams in prop_oneof![Just(1usize), Just(2), Just(4)],
        msgs in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..40_000), 1..4),
        read_sizes in proptest::collection::vec(1usize..50_000, 1..8),
    ) {
        // End-to-end through the AdocStreamGroup API with threads, the
        // POSIX read semantics and arbitrary fragmentation.
        let mut cfg = AdocConfig::default().with_levels(1, 10);
        cfg.buffer_size = 16 << 10; // several frames even for small messages
        cfg.packet_size = 4 << 10;
        let (tx, mut rx) = group_pair(streams, &cfg);
        let expect: Vec<u8> = msgs.concat();
        let t = thread::spawn(move || {
            let mut tx = tx;
            for m in &msgs {
                tx.write(m).unwrap();
            }
            tx
        });
        let mut got = Vec::new();
        let mut i = 0usize;
        while got.len() < expect.len() {
            let want = read_sizes[i % read_sizes.len()].min(expect.len() - got.len());
            let mut buf = vec![0u8; want];
            let n = rx.read(&mut buf).unwrap();
            prop_assert!(n > 0, "EOF before the stream completed");
            got.extend_from_slice(&buf[..n]);
            i += 1;
        }
        t.join().unwrap();
        prop_assert_eq!(got, expect);
    }
}
