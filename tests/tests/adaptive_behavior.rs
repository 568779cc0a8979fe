//! Cross-crate integration: the adaptation behaviours the paper claims,
//! reproduced over the simulated networks.

use adoc::{AdocConfig, AdocSocket, SleepThrottle};
use adoc_data::{generate, DataKind};
use adoc_integration_tests::TimingGuard;
use adoc_sim::link::{duplex, LinkCfg, LinkReader, LinkWriter};
use adoc_sim::netprofiles::NetProfile;
use std::io::{Read, Write};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Timing-sensitive tests must not share the CPU with each other — even
/// across test binaries (link shaping spins, probes time real writes).
fn timing_lock() -> TimingGuard {
    TimingGuard::acquire()
}

/// Timing ratios are noisy when other test binaries hog cores; retry a
/// few times and only fail if the property never holds.
fn retry_timing(attempts: usize, mut f: impl FnMut() -> Result<(), String>) {
    let mut last = String::new();
    for _ in 0..attempts {
        match f() {
            Ok(()) => return,
            Err(e) => last = e,
        }
    }
    panic!("timing property failed {attempts} attempts; last: {last}");
}

type Sock = AdocSocket<LinkReader, LinkWriter>;

fn adoc_pair_cfg(cfg_link: LinkCfg, tx_cfg: AdocConfig, rx_cfg: AdocConfig) -> (Sock, Sock) {
    let (a, b) = duplex(cfg_link);
    let (ar, aw) = a.split();
    let (br, bw) = b.split();
    (
        AdocSocket::with_config(ar, aw, tx_cfg).unwrap(),
        AdocSocket::with_config(br, bw, rx_cfg).unwrap(),
    )
}

/// One-way transfer time through AdOC (receiver acks a byte so the sender
/// measures full delivery).
fn adoc_transfer_secs(link: LinkCfg, data: Arc<Vec<u8>>) -> (f64, adoc::TransferStats) {
    adoc_transfer_secs_cfg(link, AdocConfig::default(), data)
}

/// [`adoc_transfer_secs`] with the sender configured by `tx_cfg`.
fn adoc_transfer_secs_cfg(
    link: LinkCfg,
    tx_cfg: AdocConfig,
    data: Arc<Vec<u8>>,
) -> (f64, adoc::TransferStats) {
    let (mut tx, mut rx) = adoc_pair_cfg(link, tx_cfg, AdocConfig::default());
    let n = data.len();
    let receiver = thread::spawn(move || {
        let mut buf = vec![0u8; n];
        rx.read_exact(&mut buf).unwrap();
        buf
    });
    let start = Instant::now();
    tx.write(&data).unwrap();
    let got = receiver.join().unwrap();
    let secs = start.elapsed().as_secs_f64();
    assert_eq!(&got, &*data, "payload corrupted in flight");
    (secs, tx.stats().clone())
}

/// One-way transfer time through plain (POSIX-like) write/read.
fn posix_transfer_secs(link: LinkCfg, data: Arc<Vec<u8>>) -> f64 {
    let (mut a, mut b) = duplex(link);
    let n = data.len();
    let receiver = thread::spawn(move || {
        let mut buf = vec![0u8; n];
        b.read_exact(&mut buf).unwrap();
        buf
    });
    let start = Instant::now();
    a.write_all(&data).unwrap();
    let got = receiver.join().unwrap();
    let secs = start.elapsed().as_secs_f64();
    assert_eq!(&got, &*data);
    secs
}

#[test]
fn adoc_beats_posix_on_lan_with_ascii() {
    let _guard = timing_lock();
    // Paper Fig. 3: on a 100 Mbit LAN with ASCII data AdOC is 1.85–2.36×
    // faster at 32 MB; at 4 MB the effect is already clear.
    //
    // The wall-clock ratio only holds when the compressor runs at full
    // speed: an unoptimized build is CPU-bound on DEFLATE and loses to
    // plain copies on a 100 Mbit link, so debug builds check only that
    // adaptation engaged and the payload survived.
    let data = Arc::new(generate(DataKind::Ascii, 4 << 20, 42));
    if cfg!(debug_assertions) {
        let (_, stats) = adoc_transfer_secs(NetProfile::Lan100.link_cfg(), data);
        assert!(
            stats.max_level_used() >= 1,
            "compression never engaged:\n{stats}"
        );
        assert!(
            stats.wire_bytes < stats.raw_bytes,
            "no wire savings on ASCII data:\n{stats}"
        );
        return;
    }
    retry_timing(3, || {
        let posix = posix_transfer_secs(NetProfile::Lan100.link_cfg(), data.clone());
        let (adoc, stats) = adoc_transfer_secs(NetProfile::Lan100.link_cfg(), data.clone());
        let speedup = posix / adoc;
        if speedup <= 1.3 {
            return Err(format!(
                "AdOC {adoc:.3}s vs POSIX {posix:.3}s (speedup {speedup:.2}) — expected > 1.3×\n{stats}"
            ));
        }
        if stats.max_level_used() < 1 {
            return Err(format!("compression never engaged:\n{stats}"));
        }
        Ok(())
    });
}

#[test]
fn adoc_never_slower_on_incompressible_lan() {
    let _guard = timing_lock();
    // Paper Fig. 3: "the difference between AdOC with incompressible data
    // and POSIX read/write is never significant".
    //
    // Like the ASCII test above, the wall-clock comparison needs an
    // optimized compressor; debug builds verify the mechanism instead —
    // the ratio guard must keep the wire volume at raw size.
    let data = Arc::new(generate(DataKind::Incompressible, 2 << 20, 43));
    if cfg!(debug_assertions) {
        let (_, stats) = adoc_transfer_secs(NetProfile::Lan100.link_cfg(), data);
        let slack = 64 + (stats.raw_bytes / (200 * 1024) + 2) * 32;
        assert!(
            stats.wire_bytes <= stats.raw_bytes + slack,
            "ratio guard failed to cap wire volume on random data:\n{stats}"
        );
        return;
    }
    retry_timing(3, || {
        let posix = posix_transfer_secs(NetProfile::Lan100.link_cfg(), data.clone());
        let (adoc, stats) = adoc_transfer_secs(NetProfile::Lan100.link_cfg(), data.clone());
        let overhead = adoc / posix;
        if overhead >= 1.15 {
            return Err(format!(
                "AdOC {adoc:.3}s vs POSIX {posix:.3}s on random data (overhead {overhead:.2})\n{stats}"
            ));
        }
        Ok(())
    });
}

#[test]
fn small_messages_match_posix_latency_path() {
    // < 512 KB must take the direct path: same wire volume, no probe.
    let data = Arc::new(generate(DataKind::Ascii, 64 << 10, 44));
    let (_, stats) = adoc_transfer_secs(NetProfile::Lan100.link_cfg(), data);
    assert_eq!(stats.direct_messages, 1);
    assert_eq!(stats.probes, 0);
}

#[test]
fn fast_network_probe_disables_compression() {
    let _guard = timing_lock();
    // Paper Fig. 7 / §5: on a > 500 Mbit link the probe must turn
    // compression off.
    let link = LinkCfg::new(adoc_sim::mbit(1000.0), Duration::from_micros(15));
    let data = Arc::new(generate(DataKind::Ascii, 2 << 20, 45));
    let (_, stats) = adoc_transfer_secs(link, data);
    assert_eq!(stats.probes, 1);
    assert_eq!(
        stats.fast_path_hits, 1,
        "probe should classify Gbit as fast:\n{stats}"
    );
    assert_eq!(
        stats.max_level_used(),
        0,
        "no compression on Gbit:\n{stats}"
    );
}

#[test]
fn slow_network_probe_keeps_compression() {
    let _guard = timing_lock();
    let data = Arc::new(generate(DataKind::Ascii, 2 << 20, 46));
    let (_, stats) = adoc_transfer_secs(NetProfile::Renater.link_cfg(), data);
    assert_eq!(stats.probes, 1);
    assert_eq!(stats.fast_path_hits, 0);
    assert!(
        stats.max_level_used() >= 2,
        "WAN should reach gzip levels:\n{stats}"
    );
}

#[test]
fn wan_speedup_approaches_compression_ratio() {
    let _guard = timing_lock();
    // Paper Figs. 4-5: ASCII over Renater reaches ~6× POSIX.
    let data = Arc::new(generate(DataKind::Ascii, 2 << 20, 47));
    retry_timing(3, || {
        let posix = posix_transfer_secs(NetProfile::Renater.link_cfg(), data.clone());
        let (adoc, stats) = adoc_transfer_secs(NetProfile::Renater.link_cfg(), data.clone());
        let speedup = posix / adoc;
        if speedup <= 2.0 {
            return Err(format!(
                "WAN speedup only {speedup:.2} (AdOC {adoc:.2}s, POSIX {posix:.2}s)\n{stats}"
            ));
        }
        Ok(())
    });
}

#[test]
fn slow_receiver_divergence_converges_to_low_levels() {
    let _guard = timing_lock();
    // Paper §5 "Compression level divergence": a receiver that
    // decompresses far slower than the sender compresses must drive the
    // level down (ultimately to no compression), not up. A timing
    // property, so retried like the other wall-clock assertions in this
    // file (a contended host can blur the visible-bandwidth contrast
    // the guard keys on).
    retry_timing(3, || {
        let link = LinkCfg::new(adoc_sim::mbit(400.0), Duration::from_micros(200));
        let rx_cfg = AdocConfig::default().with_throttle(Arc::new(SleepThrottle::new(60.0)));
        let (mut tx, mut rx) = adoc_pair_cfg(link, AdocConfig::default(), rx_cfg);
        let data = generate(DataKind::Ascii, 6 << 20, 48);
        let n = data.len();
        let receiver = thread::spawn(move || {
            let mut buf = vec![0u8; n];
            rx.read_exact(&mut buf).unwrap();
        });
        tx.write(&data).unwrap();
        receiver.join().unwrap();
        let stats = tx.stats().clone();
        // The tail of the timeline must sit at low levels.
        let tail: Vec<u8> = stats
            .level_timeline
            .iter()
            .rev()
            .take(5)
            .map(|e| e.level)
            .collect();
        let tail_max = tail.iter().copied().max().unwrap_or(0);
        if tail_max <= 2 || stats.divergence_reverts > 0 {
            Ok(())
        } else {
            Err(format!(
                "level did not converge down under a slow receiver: tail {tail:?}\n{stats}"
            ))
        }
    });
}

#[test]
fn congestion_trace_raises_level_mid_transfer() {
    // §2's motivation: when visible bandwidth drops mid-transfer, spare
    // time appears and the level should rise.
    let _guard = timing_lock();
    retry_timing(3, || {
        // The message must still be compressing once the link slows: the
        // sender's queue holds 40 packets (just above Fig. 2's high water)
        // instead of megabytes, and the fast phase is short and slow enough
        // to carry at most about half of it. The congested rate is one even
        // an unoptimized build's DEFLATE outruns, and it lasts well past the
        // 1 s forbid the divergence guard may set while the fast phase is
        // compressor-bound. (The probe sees ~4/3 of nominal capacity
        // thanks to the send buffer's burst credit, so the fast phase also
        // stays clear of the 500 Mbit/s fast path.)
        let trace = adoc_sim::BandwidthTrace::piecewise(vec![
            (0.10, adoc_sim::mbit(150.0)), // fast phase: little time to compress
            (60.0, adoc_sim::mbit(5.0)),   // congestion: lots of time
        ]);
        let link =
            LinkCfg::new(adoc_sim::mbit(150.0), Duration::from_micros(200)).with_trace(trace);
        let data = Arc::new(generate(DataKind::Ascii, 8 << 20, 49));
        let tx_cfg = AdocConfig {
            queue_cap: 40,
            ..AdocConfig::default()
        };
        let (_, stats) = adoc_transfer_secs_cfg(link, tx_cfg, data);
        let early_max = stats
            .level_timeline
            .iter()
            .take(4)
            .map(|e| e.level)
            .max()
            .unwrap_or(0);
        let late_max = stats
            .level_timeline
            .iter()
            .map(|e| e.level)
            .max()
            .unwrap_or(0);
        if late_max <= early_max.max(2) {
            return Err(format!(
                "level never rose under congestion: early {early_max}, late {late_max}\n{stats}"
            ));
        }
        Ok(())
    });
}
