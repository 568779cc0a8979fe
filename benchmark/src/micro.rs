//! Single-threaded timings of public codec, pool and scheduler entry
//! points, on the workload's own payload cut into AdOC's 200 KiB
//! compression buffers. They run after the window, on an otherwise idle
//! process, and say what each primitive costs when nothing contends.

use adoc::{BufferPool, Throttle};
use adoc_codec::checksum::Adler32;
use adoc_codec::level::{decompress_at, Codec};
use adoc_codec::lz77::{Lz77Encoder, MatchParams};
use adoc_server::FairScheduler;
use std::hint::black_box;
use std::time::Instant;

/// AdOC's compression unit (`AdocConfig::buffer_size`).
const BUFFER: usize = 200 * 1024;
const MIB: f64 = 1024.0 * 1024.0;

/// Payload bytes the timings walk over: enough buffers to see more than
/// one, few enough that the slow levels finish inside the budget.
const SAMPLE_BYTES: usize = 8 * BUFFER;

/// Calls `pass` (which processes `bytes` bytes) until `budget_s` has
/// passed, at least once; returns MiB/s.
fn throughput(bytes: usize, budget_s: f64, mut pass: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut passes = 0u64;
    loop {
        pass();
        passes += 1;
        let secs = start.elapsed().as_secs_f64();
        if secs >= budget_s {
            return passes as f64 * bytes as f64 / MIB / secs;
        }
    }
}

/// Mean nanoseconds per call of `op` over `budget_s`.
fn ns_per_call(budget_s: f64, mut op: impl FnMut()) -> f64 {
    const BATCH: u32 = 1000;
    let start = Instant::now();
    let mut calls = 0u64;
    loop {
        for _ in 0..BATCH {
            op();
        }
        calls += u64::from(BATCH);
        let secs = start.elapsed().as_secs_f64();
        if secs >= budget_s {
            return secs * 1e9 / calls as f64;
        }
    }
}

fn buffers(data: &[u8]) -> Vec<&[u8]> {
    data[..data.len().min(SAMPLE_BYTES)]
        .chunks(BUFFER)
        .collect()
}

/// Compression speed at an AdOC level and the exact byte counts behind
/// the ratio.
fn compress(bufs: &[&[u8]], level: u8, budget_s: f64) -> (f64, usize, usize) {
    let mut codec = Codec::new();
    let mut out = Vec::with_capacity(BUFFER + BUFFER / 8);
    let raw: usize = bufs.iter().map(|b| b.len()).sum();
    let mut wire = 0;
    let speed = throughput(raw, budget_s, || {
        wire = 0;
        for b in bufs {
            out.clear();
            codec.compress_at(level, black_box(b), &mut out);
            wire += black_box(&out).len();
        }
    });
    (speed, raw, wire)
}

fn decompress(bufs: &[&[u8]], level: u8, budget_s: f64) -> f64 {
    let packed: Vec<Vec<u8>> = bufs
        .iter()
        .map(|b| {
            let mut out = Vec::new();
            Codec::new().compress_at(level, b, &mut out);
            out
        })
        .collect();
    let raw: usize = bufs.iter().map(|b| b.len()).sum();
    let mut out = Vec::with_capacity(BUFFER);
    throughput(raw, budget_s, || {
        for (p, b) in packed.iter().zip(bufs) {
            out.clear();
            decompress_at(level, black_box(p), b.len(), &mut out)
                .expect("a buffer this codec just compressed decodes");
            black_box(&out);
        }
    })
}

/// Every micro-timing, as `(metric name, value)`. `budget_s` is the time
/// spent per metric.
pub fn run(payload: &[u8], seed: u64, budget_s: f64) -> Vec<(&'static str, f64)> {
    let bufs = buffers(payload);
    let mut out = Vec::new();

    // AdOC level 1 is LZF; levels 2..=10 are DEFLATE 1..=9.
    let (lzf, ..) = compress(&bufs, 1, budget_s);
    let (d1, raw1, wire1) = compress(&bufs, 2, budget_s);
    let (d3, ..) = compress(&bufs, 4, budget_s);
    let (d6, raw6, wire6) = compress(&bufs, 7, budget_s);
    // DEFLATE 9 runs near 1 MiB/s on these payloads; two buffers show it.
    let (d9, ..) = compress(&bufs[..bufs.len().min(2)], 10, budget_s);
    out.extend([
        ("codec.lzf_compress_mibps", lzf),
        ("codec.deflate1_compress_mibps", d1),
        ("codec.deflate3_compress_mibps", d3),
        ("codec.deflate6_compress_mibps", d6),
        ("codec.deflate9_compress_mibps", d9),
        ("codec.deflate1_ratio", raw1 as f64 / wire1 as f64),
        ("codec.deflate6_ratio", raw6 as f64 / wire6 as f64),
        ("codec.lzf_decompress_mibps", decompress(&bufs, 1, budget_s)),
        ("codec.inflate_mibps", decompress(&bufs, 7, budget_s)),
    ]);

    // The Harwell-Boeing corpus is where DEFLATE 9 falls off a cliff
    // (ROADMAP item 2); two buffers are enough to see it.
    let hb = adoc_data::corpus::harwell_boeing(2 * BUFFER, seed);
    let (d9_hb, ..) = compress(&buffers(&hb), 10, budget_s);
    out.push(("codec.deflate9_hb_compress_mibps", d9_hb));

    // What trying costs on data that will not compress.
    let noise = adoc_data::gen::incompressible(4 * BUFFER, seed);
    let (lzf_noise, ..) = compress(&buffers(&noise), 1, budget_s);
    out.push(("codec.lzf_incompressible_mibps", lzf_noise));

    let raw: usize = bufs.iter().map(|b| b.len()).sum();
    let mut enc = Lz77Encoder::new();
    let params = MatchParams::for_level(6);
    let tokenize = throughput(raw, budget_s, || {
        for b in &bufs {
            let mut tokens = 0u64;
            enc.tokenize(black_box(b), &params, |_| tokens += 1);
            black_box(tokens);
        }
    });
    out.push(("codec.lz77_tokenize_mibps", tokenize));
    let adler = throughput(raw, budget_s, || {
        for b in &bufs {
            black_box(Adler32::oneshot(black_box(b)));
        }
    });
    out.push(("codec.adler32_mibps", adler));

    // A warm pool: check a compression buffer out and hand it back.
    let pool = BufferPool::default();
    drop(pool.get(BUFFER));
    out.push((
        "pool.get_ns",
        ns_per_call(budget_s, || drop(black_box(pool.get(BUFFER)))),
    ));

    // One uncontended admission of a packet with no budget set: what
    // every message pays the scheduler even when it never parks.
    let throttle = FairScheduler::new(None).register(1);
    out.push((
        "sched.admit_ns",
        ns_per_call(budget_s, || throttle.acquire_wire(black_box(8 * 1024))),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_timing_is_positive_and_ratios_are_sane() {
        let payload = adoc_data::generate(adoc_data::DataKind::Ascii, 3 * BUFFER, 7);
        let got = run(&payload, 7, 0.001);
        assert_eq!(got.len(), 15);
        for (name, v) in &got {
            assert!(v.is_finite() && *v > 0.0, "{name} = {v}");
        }
        let ratio = |n: &str| got.iter().find(|(k, _)| *k == n).unwrap().1;
        assert!(ratio("codec.deflate6_ratio") >= ratio("codec.deflate1_ratio"));
        assert!(ratio("codec.deflate1_ratio") > 2.0);
    }
}
