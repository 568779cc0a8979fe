//! Golden digests of `Codec::compress_at`: the exact bytes every AdOC
//! level emits for the harness's payload families and for the edge sizes,
//! pinned as length + FNV-1a-64. Captured at commit `53bd4f8`, before the
//! codec's hot loops were rewritten; a speed change that moves one bit of
//! output fails here.
//!
//! Regenerate (only when an output change is intended) with
//! `cargo test --release -p adoc-codec --test golden -- --ignored --nocapture`.

use adoc_codec::{decompress_at, Codec, ADOC_MAX_LEVEL};
use adoc_data::{corpus, gen};

/// AdOC's compression unit (`AdocConfig::buffer_size`).
const BUFFER: usize = 200 * 1024;

fn fnv1a64(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Every input, in table order. The first five are cut into four
/// consecutive 200 KiB buffers; the rest are single buffers.
fn inputs() -> Vec<(&'static str, Vec<u8>)> {
    vec![
        ("ascii", gen::ascii(4 * BUFFER, 1)),
        ("binary", gen::binary(4 * BUFFER, 1)),
        ("incompressible_s1", gen::incompressible(4 * BUFFER, 1)),
        ("incompressible_s2", gen::incompressible(4 * BUFFER, 2)),
        ("harwell_boeing", {
            let mut hb = corpus::harwell_boeing(4 * BUFFER + 256, 1);
            hb.truncate(4 * BUFFER);
            hb
        }),
        ("empty", Vec::new()),
        ("one_byte", vec![0x5a]),
        ("three_bytes", b"abc".to_vec()),
        ("len_65535", gen::ascii(65_535, 3)),
        ("len_65536", gen::binary(65_536, 3)),
        ("one_byte_x300k", vec![0x41; 300_000]),
    ]
}

/// `(total output length, FNV-1a-64 of the concatenated outputs)` of
/// `data` cut into 200 KiB buffers at `level`, each output checked to
/// decode back to its buffer.
fn digest(codec: &mut Codec, level: u8, data: &[u8]) -> (usize, u64) {
    let mut total = 0;
    let mut hash = 0xcbf2_9ce4_8422_2325;
    let mut out = Vec::new();
    let mut back = Vec::new();
    let empty: [&[u8]; 1] = [&[]];
    let bufs: Vec<&[u8]> = if data.is_empty() {
        empty.to_vec()
    } else {
        data.chunks(BUFFER).collect()
    };
    for buf in bufs {
        out.clear();
        codec.compress_at(level, buf, &mut out);
        total += out.len();
        hash = fnv1a64(hash, &out);
        back.clear();
        decompress_at(level, &out, buf.len(), &mut back).expect("own output decodes");
        assert_eq!(back, buf, "level {level} roundtrip");
    }
    (total, hash)
}

/// One codec serves every input at every level, in table order — the
/// reuse pattern of a long-lived connection.
fn table() -> Vec<(&'static str, u8, usize, u64)> {
    let mut codec = Codec::new();
    let mut rows = Vec::new();
    for (name, data) in inputs() {
        for level in 1..=ADOC_MAX_LEVEL {
            let (len, hash) = digest(&mut codec, level, &data);
            rows.push((name, level, len, hash));
        }
    }
    rows
}

#[test]
#[ignore = "prints the table for GOLDEN; not a check"]
fn print_table() {
    for (name, level, len, hash) in table() {
        println!("    (\"{name}\", {level}, {len}, {hash:#018x}),");
    }
}

#[test]
fn compress_at_output_is_byte_identical_to_the_captured_digests() {
    let got = table();
    assert_eq!(got.len(), GOLDEN.len(), "row count");
    for (got, want) in got.iter().zip(GOLDEN) {
        assert_eq!(got, want, "(input, level, len, fnv1a64)");
    }
}

/// `(input, AdOC level, output bytes, FNV-1a-64 of the output)`.
const GOLDEN: &[(&str, u8, usize, u64)] = &[
    ("ascii", 1, 355328, 0x1d1b9543b1a05a20),
    ("ascii", 2, 232335, 0xc46326f0a01948e7),
    ("ascii", 3, 216064, 0x050196c3c5b0df11),
    ("ascii", 4, 195907, 0xaa20e67fe07ea3c6),
    ("ascii", 5, 200265, 0xdbb8d3c29c6a4ae6),
    ("ascii", 6, 189983, 0xdaf9b1db9edde3c7),
    ("ascii", 7, 177079, 0xf7a9a2823250b00b),
    ("ascii", 8, 173210, 0xb534a6bc7167aebb),
    ("ascii", 9, 168686, 0xe2bb944bffee7b76),
    ("ascii", 10, 166392, 0x1bf0da3af6920662),
    ("binary", 1, 488674, 0xcae9511ffe5582d8),
    ("binary", 2, 456068, 0xcd8dd803564564b2),
    ("binary", 3, 456462, 0xecacb1c53bf13720),
    ("binary", 4, 453301, 0xb4332c405fdfcac9),
    ("binary", 5, 455727, 0x2f2a38200e87602e),
    ("binary", 6, 452919, 0x3bbb561f7da3d5ae),
    ("binary", 7, 448025, 0x2add7879e5632e61),
    ("binary", 8, 447656, 0x2bf05150f7a34690),
    ("binary", 9, 447581, 0x8f7379479b4ea189),
    ("binary", 10, 447581, 0x8f7379479b4ea189),
    ("incompressible_s1", 1, 844598, 0x8ae61edf80de59be),
    ("incompressible_s1", 2, 819364, 0x5eba223ee7c00b41),
    ("incompressible_s1", 3, 819364, 0xd3d9431d54cda7e9),
    ("incompressible_s1", 4, 819364, 0xd3d9431d54cda7e9),
    ("incompressible_s1", 5, 819364, 0xfdeeff9d58dfd17b),
    ("incompressible_s1", 6, 819364, 0xfdeeff9d58dfd17b),
    ("incompressible_s1", 7, 819364, 0xf030443034aa78a3),
    ("incompressible_s1", 8, 819364, 0x5c7070fbbed3145b),
    ("incompressible_s1", 9, 819364, 0x5c7070fbbed3145b),
    ("incompressible_s1", 10, 819364, 0x5c7070fbbed3145b),
    ("incompressible_s2", 1, 844568, 0xfe45233dd14685a2),
    ("incompressible_s2", 2, 819364, 0xf3c1547e7abbc5fd),
    ("incompressible_s2", 3, 819364, 0x1f3e90ccea4c58b9),
    ("incompressible_s2", 4, 819364, 0x1f3e90ccea4c58b9),
    ("incompressible_s2", 5, 819364, 0x1f3e90ccea4c58b9),
    ("incompressible_s2", 6, 819364, 0x1f3e90ccea4c58b9),
    ("incompressible_s2", 7, 819364, 0x615e22e4340fd9d9),
    ("incompressible_s2", 8, 819364, 0x2a48135dc97950a1),
    ("incompressible_s2", 9, 819364, 0x2a48135dc97950a1),
    ("incompressible_s2", 10, 819364, 0x2a48135dc97950a1),
    ("harwell_boeing", 1, 289700, 0x24ffcfb429f1247d),
    ("harwell_boeing", 2, 198271, 0x850a129b5b61c7bf),
    ("harwell_boeing", 3, 185196, 0x6797da9d9174aded),
    ("harwell_boeing", 4, 173617, 0x8dda10c14efd87ea),
    ("harwell_boeing", 5, 179694, 0x11cded7b7f82d15e),
    ("harwell_boeing", 6, 168076, 0xb96381ff48033b3e),
    ("harwell_boeing", 7, 161955, 0xab0141b47b6767b3),
    ("harwell_boeing", 8, 159470, 0x3f6080f4eed35692),
    ("harwell_boeing", 9, 155416, 0xa10ff5dd91249047),
    ("harwell_boeing", 10, 153735, 0x413d1d2423ae4a37),
    ("empty", 1, 0, 0xcbf29ce484222325),
    ("empty", 2, 8, 0xcdbaa16f4cacd636),
    ("empty", 3, 8, 0x0e4be8e1f876aa2b),
    ("empty", 4, 8, 0x0e4be8e1f876aa2b),
    ("empty", 5, 8, 0x0e4be8e1f876aa2b),
    ("empty", 6, 8, 0x0e4be8e1f876aa2b),
    ("empty", 7, 8, 0x5fe95356c8da1f85),
    ("empty", 8, 8, 0xccd39c3429af6317),
    ("empty", 9, 8, 0xccd39c3429af6317),
    ("empty", 10, 8, 0xccd39c3429af6317),
    ("one_byte", 1, 2, 0x08322e07b4ead6ff),
    ("one_byte", 2, 9, 0xd1f78733765f62a9),
    ("one_byte", 3, 9, 0xeb12d43713a5f0da),
    ("one_byte", 4, 9, 0xeb12d43713a5f0da),
    ("one_byte", 5, 9, 0xeb12d43713a5f0da),
    ("one_byte", 6, 9, 0xeb12d43713a5f0da),
    ("one_byte", 7, 9, 0xed48c28e08bc8c14),
    ("one_byte", 8, 9, 0xe70da33400727c8e),
    ("one_byte", 9, 9, 0xe70da33400727c8e),
    ("one_byte", 10, 9, 0xe70da33400727c8e),
    ("three_bytes", 1, 4, 0x6fb5de8fa8b485eb),
    ("three_bytes", 2, 11, 0x1a17518db994e492),
    ("three_bytes", 3, 11, 0x4ea66b3dc6cc0141),
    ("three_bytes", 4, 11, 0x4ea66b3dc6cc0141),
    ("three_bytes", 5, 11, 0x4ea66b3dc6cc0141),
    ("three_bytes", 6, 11, 0x4ea66b3dc6cc0141),
    ("three_bytes", 7, 11, 0x13e3c6bbe038afdf),
    ("three_bytes", 8, 11, 0xcb6f18e7806c7305),
    ("three_bytes", 9, 11, 0xcb6f18e7806c7305),
    ("three_bytes", 10, 11, 0xcb6f18e7806c7305),
    ("len_65535", 1, 28747, 0xd7d4d9ae5826e23a),
    ("len_65535", 2, 18733, 0x2a810b7c58a8ee6b),
    ("len_65535", 3, 17458, 0x26ffa393c16ea976),
    ("len_65535", 4, 16012, 0x96924921d65b6393),
    ("len_65535", 5, 16234, 0xb123468ac38eb2fa),
    ("len_65535", 6, 15430, 0x804ef920e5b4a722),
    ("len_65535", 7, 14565, 0x6e6fe9ceeaa84e0a),
    ("len_65535", 8, 14336, 0xf03f170561d8ee6a),
    ("len_65535", 9, 13923, 0xca9597a8b4a439dc),
    ("len_65535", 10, 13768, 0x1a7e4302c16c887e),
    ("len_65536", 1, 39354, 0xa77753dc9cf35bc4),
    ("len_65536", 2, 36609, 0x67cc63050a506246),
    ("len_65536", 3, 36538, 0x4a1ee2393e27f994),
    ("len_65536", 4, 36334, 0x0242c81ecaffac0b),
    ("len_65536", 5, 36489, 0x529e47fa1601669d),
    ("len_65536", 6, 36311, 0x1770cbdd0bc42b81),
    ("len_65536", 7, 36114, 0xb145156315189342),
    ("len_65536", 8, 36094, 0xdc63e3400a1ad7e6),
    ("len_65536", 9, 36088, 0x23c6f34391ccf5ab),
    ("len_65536", 10, 36088, 0x23c6f34391ccf5ab),
    ("one_byte_x300k", 1, 3415, 0xd87d4f410c9621ee),
    ("one_byte_x300k", 2, 337, 0x604f207eb256353b),
    ("one_byte_x300k", 3, 337, 0xe36735793b670cff),
    ("one_byte_x300k", 4, 337, 0xe36735793b670cff),
    ("one_byte_x300k", 5, 337, 0xe36735793b670cff),
    ("one_byte_x300k", 6, 337, 0xe36735793b670cff),
    ("one_byte_x300k", 7, 337, 0xc06b4b00e170d7af),
    ("one_byte_x300k", 8, 337, 0x95d3ec92d41ba1cf),
    ("one_byte_x300k", 9, 337, 0x95d3ec92d41ba1cf),
    ("one_byte_x300k", 10, 337, 0x95d3ec92d41ba1cf),
];
