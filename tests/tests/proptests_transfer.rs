//! Cross-crate property tests: any payload, any level bounds, any read
//! fragmentation — the bytes must arrive intact, in order, exactly once.

use adoc::receiver::{receive_message, RecvProgress};
use adoc::sender::send_message;
use adoc::{AdocConfig, AdocSocket};
use adoc_sim::pipe::{duplex_pipe, PipeReader, PipeWriter};
use proptest::prelude::*;
use std::io::Cursor;
use std::thread;

type Sock = AdocSocket<PipeReader, PipeWriter>;

fn pair(cfg: AdocConfig) -> (Sock, Sock) {
    let (a, b) = duplex_pipe(1 << 20);
    let (ar, aw) = a.split();
    let (br, bw) = b.split();
    (
        AdocSocket::with_config(ar, aw, cfg.clone()).unwrap(),
        AdocSocket::with_config(br, bw, cfg).unwrap(),
    )
}

/// Payloads spanning the direct (< 512 KB) and adaptive paths without
/// making each proptest case take seconds.
fn payload_strategy() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..2048),
        (proptest::collection::vec(any::<u8>(), 1..128), 1..4096usize).prop_map(|(unit, reps)| {
            let mut v = unit.repeat(reps);
            v.truncate(900_000);
            v
        }),
    ]
}

/// `(min, max)` level ranges accepted by `adoc_write_levels`.
fn level_range() -> impl Strategy<Value = (u8, u8)> {
    (0u8..=10, 0u8..=10).prop_map(|(a, b)| if a <= b { (a, b) } else { (b, a) })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn any_payload_any_levels_roundtrips((min, max) in level_range(), data in payload_strategy()) {
        let (mut tx, mut rx) = pair(AdocConfig::default());
        let expect = data.clone();
        let t = thread::spawn(move || {
            tx.write_levels(&data, min, max).unwrap();
            tx
        });
        let mut got = vec![0u8; expect.len()];
        if !expect.is_empty() {
            rx.read_exact(&mut got).unwrap();
        }
        t.join().unwrap();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn random_fragmentation_preserves_stream(
        msgs in proptest::collection::vec(payload_strategy(), 1..5),
        read_sizes in proptest::collection::vec(1usize..100_000, 1..32),
    ) {
        let (mut tx, mut rx) = pair(AdocConfig::default());
        let expect: Vec<u8> = msgs.concat();
        let t = thread::spawn(move || {
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

    #[test]
    fn packet_and_buffer_sizes_are_internal_details(
        packet_kb in 1usize..32,
        buffer_packets in 2usize..8,
        data in payload_strategy(),
    ) {
        // Shrinking the paper's 8 KB / 200 KB constants must never change
        // what arrives.
        let mut cfg = AdocConfig::default().with_levels(1, 10);
        cfg.packet_size = packet_kb << 10;
        cfg.buffer_size = cfg.packet_size * buffer_packets;
        let (mut tx, mut rx) = pair(cfg);
        let expect = data.clone();
        let t = thread::spawn(move || {
            tx.write(&data).unwrap();
            tx
        });
        let mut got = vec![0u8; expect.len()];
        if !expect.is_empty() {
            rx.read_exact(&mut got).unwrap();
        }
        t.join().unwrap();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn wire_never_exceeds_raw_by_more_than_framing(
        data in proptest::collection::vec(any::<u8>(), 0..600_000),
    ) {
        // The conservative-compression guarantee: even on random bytes the
        // wire volume is raw + headers + per-buffer slack.
        let (mut tx, mut rx) = pair(AdocConfig::default());
        let n = data.len();
        let t = thread::spawn(move || {
            let mut buf = vec![0u8; n];
            if n > 0 {
                rx.read_exact(&mut buf).unwrap();
            }
            rx
        });
        let report = tx.write(&data).unwrap();
        t.join().unwrap();
        let slack = 64 + (n as u64 / (200 * 1024) + 2) * 32;
        prop_assert!(
            report.wire <= n as u64 + slack,
            "wire {} for raw {} exceeds slack {}", report.wire, n, slack
        );
    }

    #[test]
    fn pathological_packet_and_buffer_sizes_roundtrip(
        // Deliberately outside AdocConfig::validate's envelope: packets
        // smaller than a frame header, packets larger than a whole frame,
        // buffers that are not a packet multiple. The framing must not
        // care, and pooled frame buffers must never be observed aliased
        // (delivery is byte-exact and every buffer returns to the slab).
        packet_size in prop_oneof![
            Just(1usize),            // smaller than FRAME_HEADER_LEN (9)
            4usize..9,               // still smaller than a frame header
            10usize..100,            // tiny but legal-ish
            (1usize << 20)..(2 << 20), // larger than any whole frame
        ],
        buffer_size in prop_oneof![
            1usize..30,              // degenerate single/few-byte buffers
            1000usize..40_000,       // not a packet multiple in general
        ],
        (min, max) in (1u8..=10, 1u8..=10).prop_map(|(a, b)| if a <= b { (a, b) } else { (b, a) }),
        data in proptest::collection::vec(any::<u8>(), 0..60_000),
    ) {
        let mut cfg = AdocConfig::default().with_levels(min, max);
        cfg.packet_size = packet_size;
        cfg.buffer_size = buffer_size;

        let mut wire = Vec::new();
        let mut src = &data[..];
        send_message(std::slice::from_mut(&mut wire), &mut src, data.len() as u64, None, &cfg, &mut Vec::new()).unwrap();
        prop_assert_eq!(
            cfg.pool.stats().outstanding, 0,
            "sender leaked pooled buffers"
        );

        let mut out = Vec::new();
        let mut readers = [Cursor::new(wire)];
        let got =
            receive_message(&mut readers, &mut out, &cfg, &mut RecvProgress::default(), None, &mut adoc_codec::Codec::new())
                .unwrap();
        prop_assert_eq!(got, Some(data.len() as u64));
        prop_assert_eq!(out, data, "delivery must be byte-exact");
        prop_assert_eq!(
            cfg.pool.stats().outstanding, 0,
            "receiver leaked pooled buffers"
        );
    }
}
