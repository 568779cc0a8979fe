//! Table 2's Renater ping-pong on the shaped sim link, in a test binary
//! of its own: a zero-byte round trip over a 4.6 ms one-way link wakes
//! two threads per hop, and the library's unit tests running beside it
//! on a small box would delay those wakeups past the assertion's slack.

use adoc_sim::{duplex, NetProfile};
use std::io::{Read, Write};
use std::time::Instant;

#[test]
fn renater_ping_pong_matches_table2() {
    // Table 2: Renater POSIX zero-byte ping-pong = 9.2 ms.
    let (mut a, mut b) = duplex(NetProfile::Renater.link_cfg());
    let t = std::thread::spawn(move || {
        let mut buf = [0u8; 1];
        b.read_exact(&mut buf).unwrap();
        b.write_all(&buf).unwrap();
        b
    });
    let start = Instant::now();
    a.write_all(b"0").unwrap();
    let mut buf = [0u8; 1];
    a.read_exact(&mut buf).unwrap();
    let rtt = start.elapsed();
    t.join().unwrap();
    let ms = rtt.as_secs_f64() * 1e3;
    assert!((8.0..14.0).contains(&ms), "RTT {ms:.2} ms, expected ≈9.2");
}
