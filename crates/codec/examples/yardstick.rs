//! This crate's DEFLATE beside the host's zlib (through `python3`, the
//! bridge `tests/interop.rs` uses), on the harness's payload families cut
//! into AdOC's 200 KiB buffers: compression speed and ratio at DEFLATE
//! 1, 3, 6, 9, and inflating a level-1 and a level-6 stream. Each cell
//! runs ours, then zlib, back to back. A report, not a gate.
//!
//! ```sh
//! cargo run --release -p adoc-codec --example yardstick [seconds-per-cell]
//! ```

use adoc_codec::Codec;
use std::hint::black_box;
use std::io::Write;
use std::process::{Command, Stdio};
use std::time::Instant;

const BUFFER: usize = 200 * 1024;
const BUFFERS: usize = 4;
const MIB: f64 = 1024.0 * 1024.0;

/// Times zlib on stdin cut into `BUFFER` chunks: argv = op (`c`/`d`),
/// level, budget seconds. Prints `MiB/s wire-bytes`.
const ZLIB_CELL: &str = r#"
import sys, time, zlib
op, level, budget = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
data = sys.stdin.buffer.read()
bufs = [data[i:i + 204800] for i in range(0, len(data), 204800)]
packed = [zlib.compress(b, level) for b in bufs]
start, passes = time.perf_counter(), 0
while True:
    if op == 'c':
        for b in bufs:
            zlib.compress(b, level)
    else:
        for p, b in zip(packed, bufs):
            zlib.decompress(p, 15, len(b))
    passes += 1
    secs = time.perf_counter() - start
    if secs >= budget:
        break
print(passes * len(data) / 1048576 / secs, sum(len(p) for p in packed))
"#;

fn python_available() -> bool {
    Command::new("python3")
        .arg("-c")
        .arg("import zlib, gzip")
        .output()
        .map(|o| o.status.success())
        .unwrap_or(false)
}

/// `(MiB/s, compressed bytes)` of host zlib on `data`.
fn zlib_cell(op: &str, level: u8, budget_s: f64, data: &[u8]) -> (f64, usize) {
    let mut child = Command::new("python3")
        .args([
            "-c",
            ZLIB_CELL,
            op,
            &level.to_string(),
            &budget_s.to_string(),
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn python3");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(data)
        .expect("feed python");
    let out = child.wait_with_output().expect("python exit");
    assert!(out.status.success(), "python zlib cell failed");
    let text = String::from_utf8(out.stdout).expect("utf-8");
    let mut fields = text.split_whitespace();
    let mut next = || fields.next().expect("two fields");
    (
        next().parse().expect("speed"),
        next().parse().expect("bytes"),
    )
}

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

/// `(MiB/s, compressed bytes)` of this crate on `data`.
fn our_cell(op: &str, level: u8, budget_s: f64, data: &[u8]) -> (f64, usize) {
    let adoc_level = level + 1; // AdOC levels 2..=10 are DEFLATE 1..=9
    let mut codec = Codec::new();
    let bufs: Vec<&[u8]> = data.chunks(BUFFER).collect();
    let packed: Vec<Vec<u8>> = bufs
        .iter()
        .map(|b| {
            let mut out = Vec::new();
            codec.compress_at(adoc_level, b, &mut out);
            out
        })
        .collect();
    let wire = packed.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(BUFFER + BUFFER / 8);
    let speed = throughput(data.len(), budget_s, || {
        for (b, p) in bufs.iter().zip(&packed) {
            out.clear();
            if op == "c" {
                codec.compress_at(adoc_level, black_box(b), &mut out);
            } else {
                codec
                    .decompress_at(adoc_level, black_box(p), b.len(), &mut out)
                    .expect("own stream decodes");
            }
            black_box(&out);
        }
    });
    (speed, wire)
}

fn main() {
    if !python_available() {
        println!("yardstick: python3 with zlib not available, skipping");
        return;
    }
    let budget_s: f64 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("seconds per cell"))
        .unwrap_or(1.0);
    let size = BUFFERS * BUFFER;
    let payloads = [
        ("ASCII", adoc_data::gen::ascii(size, 1)),
        ("binary", adoc_data::gen::binary(size, 1)),
        ("Harwell-Boeing", adoc_data::corpus::harwell_boeing(size, 1)),
    ];
    println!(
        "| payload | op | ours MiB/s | zlib MiB/s | ours/zlib | ours ratio | zlib ratio |\n\
         |---|---|---:|---:|---:|---:|---:|"
    );
    for (name, data) in &payloads {
        let cells = [1u8, 3, 6, 9]
            .map(|l| ("c", l))
            .into_iter()
            .chain([("d", 1), ("d", 6)]);
        for (op, level) in cells {
            // DEFLATE 9 crawls on these payloads; one buffer shows it.
            let data = if level == 9 {
                &data[..BUFFER]
            } else {
                &data[..]
            };
            let (ours, our_wire) = our_cell(op, level, budget_s, data);
            let (zlib, zlib_wire) = zlib_cell(op, level, budget_s, data);
            let label = if op == "c" { "deflate" } else { "inflate" };
            println!(
                "| {name} | {label} {level} | {ours:.1} | {zlib:.1} | {:.2} | {:.3} | {:.3} |",
                ours / zlib,
                data.len() as f64 / our_wire as f64,
                data.len() as f64 / zlib_wire as f64,
            );
        }
    }
}
