//! LZ77 tokenization for DEFLATE: a hash-chain match finder with zlib's
//! per-level effort parameters and lazy matching.
//!
//! This is the component that makes "gzip level 1" cheap and "gzip level 9"
//! expensive — the cost/ratio ladder the AdOC adaptation climbs (paper
//! Table 1).

/// Shortest back-reference DEFLATE can encode.
pub const MIN_MATCH: usize = 3;
/// Longest back-reference DEFLATE can encode.
pub const MAX_MATCH: usize = 258;
/// Maximum back-reference distance allowed by DEFLATE.
pub const MAX_DIST: usize = 32 * 1024;

const HASH_BITS: u32 = 15;
const HASH_SIZE: usize = 1 << HASH_BITS;

/// One output token: a literal byte or a (length, distance) back-reference.
///
/// Packed into a `u32`: bit 31 set = match, with length-3 in bits 16..24
/// and distance-1 in bits 0..16.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token(u32);

impl Token {
    /// A literal byte token.
    #[inline]
    pub fn literal(byte: u8) -> Self {
        Token(u32::from(byte))
    }

    /// A back-reference token (`len` in 3..=258, `dist` in 1..=32768).
    ///
    /// Panics on out-of-range values in all build profiles: a masked
    /// distance would silently alias to a different (valid-looking)
    /// position and corrupt the stream.
    #[inline]
    pub fn reference(len: usize, dist: usize) -> Self {
        assert!(
            (MIN_MATCH..=MAX_MATCH).contains(&len),
            "match length {len} outside {MIN_MATCH}..={MAX_MATCH}"
        );
        assert!(
            (1..=MAX_DIST).contains(&dist),
            "match distance {dist} outside 1..={MAX_DIST}"
        );
        Token(0x8000_0000 | (((len - MIN_MATCH) as u32) << 16) | ((dist - 1) as u32))
    }

    /// The packed form (see the type's docs).
    #[inline]
    pub(crate) fn bits(self) -> u32 {
        self.0
    }

    /// `(length, distance)` if this token is a back-reference.
    #[inline]
    pub fn as_match(self) -> Option<(usize, usize)> {
        if self.0 & 0x8000_0000 != 0 {
            Some((
                (((self.0 >> 16) & 0xFF) as usize) + MIN_MATCH,
                ((self.0 & 0xFFFF) as usize) + 1,
            ))
        } else {
            None
        }
    }

    /// The literal byte, if this token is one.
    #[inline]
    pub fn as_literal(self) -> Option<u8> {
        if self.0 & 0x8000_0000 == 0 {
            Some(self.0 as u8)
        } else {
            None
        }
    }
}

/// Effort parameters, directly mirroring zlib's `configuration_table`.
#[derive(Debug, Clone, Copy)]
pub struct MatchParams {
    /// A current match at least this long halves further chain searches.
    pub good_length: usize,
    /// Do not bother with lazy evaluation if the previous match is at
    /// least this long (levels 4–9), or maximum insert length (1–3).
    pub max_lazy: usize,
    /// Stop searching once a match of this length is found.
    pub nice_length: usize,
    /// Maximum hash-chain positions examined per match attempt.
    pub max_chain: usize,
    /// Whether to use lazy (one-byte-deferred) matching.
    pub lazy: bool,
}

impl MatchParams {
    /// zlib's tuning for compression levels 1..=9.
    pub fn for_level(level: u8) -> MatchParams {
        // (good, lazy, nice, chain) as in zlib deflate.c.
        match level {
            1 => Self::fast(4, 4, 8, 4),
            2 => Self::fast(4, 5, 16, 8),
            3 => Self::fast(4, 6, 32, 32),
            4 => Self::slow(4, 4, 16, 16),
            5 => Self::slow(8, 16, 32, 32),
            6 => Self::slow(8, 16, 128, 128),
            7 => Self::slow(8, 32, 128, 256),
            8 => Self::slow(32, 128, 258, 1024),
            9 => Self::slow(32, 258, 258, 4096),
            _ => panic!("deflate level must be 1..=9, got {level}"),
        }
    }

    fn fast(good: usize, lazy: usize, nice: usize, chain: usize) -> Self {
        MatchParams {
            good_length: good,
            max_lazy: lazy,
            nice_length: nice,
            max_chain: chain,
            lazy: false,
        }
    }

    fn slow(good: usize, lazy: usize, nice: usize, chain: usize) -> Self {
        MatchParams {
            good_length: good,
            max_lazy: lazy,
            nice_length: nice,
            max_chain: chain,
            lazy: true,
        }
    }
}

/// Hash of the first three bytes of a four-byte window: one big-endian
/// word load puts them where the bytewise form's shifts would.
#[inline]
fn hash_word(window: [u8; 4]) -> usize {
    hash_value(u32::from_be_bytes(window) >> 8)
}

/// Hash of the three bytes that open `at`.
#[inline]
fn hash3(at: &[u8]) -> usize {
    match at.first_chunk::<4>() {
        Some(window) => hash_word(*window),
        // Only a buffer's last position lacks the fourth byte.
        None => hash_value((u32::from(at[0]) << 16) | (u32::from(at[1]) << 8) | u32::from(at[2])),
    }
}

#[inline]
fn hash_value(v: u32) -> usize {
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// Reusable hash-chain dictionary: the 32K-entry head table and the
/// per-position chain links persist across buffers, so tokenizing a
/// stream of 200 KB buffers costs no allocation and no table wipe after
/// the first call.
///
/// The head table holds each hash's latest position as a stamp,
/// `base + i`; a chain link holds the distance back to the position's
/// predecessor on its chain, saturated at a value no window reaches
/// where there is none that near — two bytes per position, so a walk's
/// working set is the 64 KiB of links the window covers.
///
/// Staleness is handled by generation stamping instead of clearing:
/// `base` jumps more than a window past every previously stored stamp
/// when a new buffer [`begin`](Self::begin)s, so an entry of an earlier
/// buffer (or a never-written 0) reads as farther away than any match may
/// reach. Only when `base` would overflow `u32` (once per ~4 GB
/// tokenized) is the head table actually wiped.
pub struct Lz77Encoder {
    /// Empty until the first buffer: a codec that never compresses costs
    /// no table.
    head: Vec<u32>,
    links: Vec<u16>,
    /// Stamp of position 0 of the current buffer.
    base: u32,
    /// Length of the current (or last) buffer, advanced into `base` on
    /// the next `begin`.
    len: usize,
}

/// Distance in stamps between buffers, and from 0 to the first: more than
/// any match distance.
const GENERATION_GAP: u32 = MAX_DIST as u32 + 1;
/// A chain link that ends the walk: farther than any match distance.
const NO_LINK: u32 = u16::MAX as u32;

impl Default for Lz77Encoder {
    fn default() -> Self {
        Self::new()
    }
}

impl Lz77Encoder {
    /// Creates an encoder with an empty dictionary. The head table is
    /// allocated by the first buffer; the links grow to the largest seen.
    pub fn new() -> Self {
        Lz77Encoder {
            head: Vec::new(),
            links: Vec::new(),
            base: GENERATION_GAP,
            len: 0,
        }
    }

    /// Positions the chain links have storage for: the longest buffer
    /// tokenized so far.
    pub fn dictionary_len(&self) -> usize {
        self.links.len()
    }

    /// Starts a new buffer of `len` bytes: invalidates every stored
    /// position in O(1) (amortised) and sizes the links.
    fn begin(&mut self, len: usize) {
        self.head.resize(HASH_SIZE, 0);
        if self.links.len() < len {
            self.links.resize(len, 0);
        }
        let next = u64::from(self.base) + self.len as u64 + u64::from(GENERATION_GAP);
        if next + len as u64 >= u64::from(u32::MAX) {
            self.head.fill(0);
            self.base = GENERATION_GAP;
        } else {
            self.base = next as u32;
        }
        self.len = len;
    }

    /// Enters every not-yet-indexed position below `upto` into the chains.
    #[inline]
    fn index_upto(&mut self, data: &[u8], inserted: &mut usize, upto: usize) {
        let from = *inserted;
        if from >= upto {
            return;
        }
        *inserted = upto;
        let head = &mut self.head[..HASH_SIZE];
        // Positions with a fourth byte behind them hash from one load.
        let whole = upto.min(data.len().saturating_sub(3)).max(from);
        let windows = data[from..].windows(4);
        let stamps = self.base + from as u32..;
        for ((window, link), stamp) in windows.zip(&mut self.links[from..whole]).zip(stamps) {
            let h = hash_word(window.try_into().expect("4-byte window"));
            *link = (stamp - head[h]).min(NO_LINK) as u16;
            head[h] = stamp;
        }
        for j in whole..upto {
            let h = hash3(&data[j..]);
            let stamp = self.base + j as u32;
            self.links[j] = (stamp - head[h]).min(NO_LINK) as u16;
            head[h] = stamp;
        }
    }

    /// Tokenizes `data`, invoking `sink` for each token in order, reusing
    /// this encoder's dictionary storage. The concatenated expansion of
    /// the tokens equals `data` exactly.
    pub fn tokenize(&mut self, data: &[u8], params: &MatchParams, mut sink: impl FnMut(Token)) {
        let n = data.len();
        if n < MIN_MATCH + 1 {
            for &b in data {
                sink(Token::literal(b));
            }
            return;
        }

        self.begin(n);
        // Every position in [0, insert_end) may enter the dictionary,
        // exactly once, strictly before any later position is matched.
        let insert_end = n - MIN_MATCH + 1;

        if params.lazy {
            tokenize_lazy(data, params, self, insert_end, &mut sink);
        } else {
            tokenize_greedy(data, params, self, insert_end, &mut sink);
        }
    }
}

/// Length of the common prefix of two equally long slices.
#[inline]
fn match_len(a: &[u8], b: &[u8]) -> usize {
    debug_assert_eq!(a.len(), b.len());
    let mut n = 0;
    for (x, y) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
        let x = u64::from_le_bytes(x.try_into().expect("8-byte chunk"));
        let y = u64::from_le_bytes(y.try_into().expect("8-byte chunk"));
        if x != y {
            return n + ((x ^ y).trailing_zeros() / 8) as usize;
        }
        n += 8;
    }
    n + a[n..]
        .iter()
        .zip(&b[n..])
        .take_while(|(x, y)| x == y)
        .count()
}

/// The two bytes at `at`, as one comparable word.
#[inline(always)]
fn pair_at(bytes: &[u8], at: usize) -> u16 {
    u16::from_le_bytes(bytes[at..at + 2].try_into().expect("two bytes"))
}

/// Finds the best match for position `i`, walking at most `depth` chain
/// links. Returns `(len, dist)` with `len >= MIN_MATCH`, or `None`.
fn best_match(
    data: &[u8],
    chains: &Lz77Encoder,
    i: usize,
    params: &MatchParams,
    prev_len: usize,
) -> Option<(usize, usize)> {
    let max = (data.len() - i).min(MAX_MATCH);
    // The caller keeps a deferred match unless this one is longer, so only
    // longer ones are looked for (zlib starts `best_len` the same way).
    let mut best_len = prev_len.max(MIN_MATCH - 1);
    if max <= best_len {
        return None;
    }
    let mut depth = if prev_len >= params.good_length {
        params.max_chain >> 2
    } else {
        params.max_chain
    };
    let nice = params.nice_length.min(max);
    let cur = &data[i..i + max];
    // All a candidate at `c < i` is compared over: `data[c..c + max]`.
    let window = &data[..i + max - 1];
    let links = &chains.links[..i];

    // Only a match longer than the best so far is kept, so a candidate
    // must agree with the current position at the byte that would extend
    // the best match and at the one before it (`scan_end`), and at the
    // first two, before it is worth measuring.
    let scan_start = pair_at(cur, 0);
    let mut scan_end = pair_at(cur, best_len - 1);
    let mut best_dist = 0usize;
    // Chains are append-only: the first candidate beyond the window (an
    // earlier buffer's stamp included) ends the walk.
    let mut dist = (chains.base + i as u32 - chains.head[hash3(cur)]) as usize;
    while dist <= MAX_DIST && depth > 0 {
        let c = i - dist;
        if pair_at(window, c + best_len - 1) == scan_end && pair_at(window, c) == scan_start {
            let len = match_len(&window[c..c + max], cur);
            if len > best_len {
                best_len = len;
                best_dist = dist;
                if len >= nice {
                    break;
                }
                scan_end = pair_at(cur, len - 1);
            }
        }
        dist += usize::from(links[c]);
        depth -= 1;
    }

    // zlib's TOO_FAR heuristic: a 3-byte match far away costs more bits
    // than 3 literals.
    if best_dist == 0 || (best_len == MIN_MATCH && best_dist > 4096) {
        return None;
    }
    Some((best_len, best_dist))
}

/// Tokenizes `data` with the given effort parameters, invoking `sink` for
/// each token in order. The concatenated expansion of the tokens equals
/// `data` exactly.
///
/// One-shot convenience over [`Lz77Encoder::tokenize`]: allocates fresh
/// dictionary state per call. Streaming callers should hold an encoder.
pub fn tokenize(data: &[u8], params: &MatchParams, sink: impl FnMut(Token)) {
    Lz77Encoder::new().tokenize(data, params, sink);
}

fn tokenize_greedy(
    data: &[u8],
    params: &MatchParams,
    chains: &mut Lz77Encoder,
    insert_end: usize,
    sink: &mut impl FnMut(Token),
) {
    let n = data.len();
    let mut i = 0usize;
    let mut inserted = 0usize;
    while i < n {
        chains.index_upto(data, &mut inserted, i.min(insert_end));
        let found = if i < insert_end {
            best_match(data, chains, i, params, 0)
        } else {
            None
        };
        match found {
            Some((len, dist)) => {
                sink(Token::reference(len, dist));
                i += len;
            }
            None => {
                sink(Token::literal(data[i]));
                i += 1;
            }
        }
    }
}

fn tokenize_lazy(
    data: &[u8],
    params: &MatchParams,
    chains: &mut Lz77Encoder,
    insert_end: usize,
    sink: &mut impl FnMut(Token),
) {
    let n = data.len();
    let mut i = 0usize;
    let mut inserted = 0usize;
    // Pending match found at position i-1 awaiting lazy comparison.
    let mut pending: Option<(usize, usize)> = None;

    while i < n {
        chains.index_upto(data, &mut inserted, i.min(insert_end));
        let prev_len = pending.map_or(0, |(l, _)| l);
        let cur = if i < insert_end && prev_len < params.max_lazy {
            best_match(data, chains, i, params, prev_len)
        } else {
            None
        };

        match pending {
            Some((plen, pdist)) => {
                let cur_len = cur.map_or(0, |(l, _)| l);
                if cur_len > plen {
                    // The deferred match is beaten: emit the byte before it
                    // as a literal and defer the new match.
                    sink(Token::literal(data[i - 1]));
                    pending = cur;
                    i += 1;
                } else {
                    // Keep the previous match (it starts at i-1).
                    sink(Token::reference(plen, pdist));
                    i = i - 1 + plen;
                    pending = None;
                }
            }
            None => match cur {
                Some(m) => {
                    pending = Some(m);
                    i += 1;
                }
                None => {
                    sink(Token::literal(data[i]));
                    i += 1;
                }
            },
        }
    }
    if let Some((plen, pdist)) = pending {
        // Input ended while a match was deferred; it starts at the last
        // consumed position and fits entirely within the buffer.
        sink(Token::reference(plen, pdist));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference expansion of a token stream.
    fn expand(tokens: &[Token]) -> Vec<u8> {
        let mut out = Vec::new();
        for t in tokens {
            if let Some(b) = t.as_literal() {
                out.push(b);
            } else {
                let (len, dist) = t.as_match().unwrap();
                assert!(
                    dist <= out.len(),
                    "distance {dist} > produced {}",
                    out.len()
                );
                let start = out.len() - dist;
                for k in 0..len {
                    let b = out[start + k];
                    out.push(b);
                }
            }
        }
        out
    }

    fn collect(data: &[u8], level: u8) -> Vec<Token> {
        let mut v = Vec::new();
        tokenize(data, &MatchParams::for_level(level), |t| v.push(t));
        v
    }

    #[test]
    fn token_packing_roundtrip() {
        let t = Token::reference(258, 32768);
        assert_eq!(t.as_match(), Some((258, 32768)));
        let t = Token::reference(3, 1);
        assert_eq!(t.as_match(), Some((3, 1)));
        let t = Token::literal(0xAB);
        assert_eq!(t.as_literal(), Some(0xAB));
        assert_eq!(t.as_match(), None);
    }

    #[test]
    fn all_levels_expand_exactly() {
        let mut data = b"the quick brown fox jumps over the lazy dog. ".repeat(50);
        data.extend_from_slice(&[0u8; 1000]);
        data.extend((0..2000u32).map(|i| (i * 37 % 251) as u8));
        for level in 1..=9 {
            let toks = collect(&data, level);
            assert_eq!(expand(&toks), data, "level {level}");
        }
    }

    #[test]
    fn repetitive_data_yields_matches() {
        let data = b"abcdefgh".repeat(200);
        for level in [1u8, 6, 9] {
            let toks = collect(&data, level);
            let matches = toks.iter().filter(|t| t.as_match().is_some()).count();
            assert!(matches > 0, "level {level} found no matches");
            // 1600 bytes of pure repetition should need far fewer tokens.
            assert!(toks.len() < 120, "level {level}: {} tokens", toks.len());
        }
    }

    #[test]
    fn higher_levels_do_not_find_fewer_bytes_in_matches() {
        // Lazy matching at level 9 should cover at least as many bytes via
        // matches as level 1 on text-like data.
        let data = b"It was the best of times, it was the worst of times, it was the age of wisdom, it was the age of foolishness".repeat(30);
        let covered = |lvl| {
            collect(&data, lvl)
                .iter()
                .filter_map(|t| t.as_match())
                .map(|(l, _)| l)
                .sum::<usize>()
        };
        assert!(covered(9) >= covered(1));
    }

    #[test]
    fn incompressible_data_is_all_literals_mostly() {
        let mut state = 0x9E3779B9u64;
        let data: Vec<u8> = (0..8192)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 56) as u8
            })
            .collect();
        let toks = collect(&data, 6);
        assert_eq!(expand(&toks), data);
        let match_bytes: usize = toks
            .iter()
            .filter_map(|t| t.as_match())
            .map(|(l, _)| l)
            .sum();
        assert!(
            match_bytes < data.len() / 10,
            "unexpected matches in noise: {match_bytes}"
        );
    }

    #[test]
    fn max_match_length_is_respected() {
        let data = vec![b'z'; 4096];
        for level in [1u8, 9] {
            for t in collect(&data, level) {
                if let Some((len, _)) = t.as_match() {
                    assert!(len <= MAX_MATCH);
                }
            }
        }
    }

    #[test]
    fn matches_never_exceed_max_dist() {
        // 100 KB with repeats spaced beyond 32 KB must not produce illegal
        // distances.
        let unit: Vec<u8> = (0..40_000u32).map(|i| (i % 256) as u8).collect();
        let mut data = unit.clone();
        data.extend_from_slice(&unit);
        data.extend_from_slice(&unit);
        for t in collect(&data, 6) {
            if let Some((_, dist)) = t.as_match() {
                assert!(dist <= MAX_DIST);
            }
        }
    }

    #[test]
    fn tiny_inputs() {
        for len in 0..8usize {
            let data: Vec<u8> = (0..len as u8).collect();
            for level in [1u8, 5, 9] {
                assert_eq!(expand(&collect(&data, level)), data);
            }
        }
    }

    #[test]
    fn pending_match_at_end_is_emitted() {
        // Craft data where the lazy path holds a pending match when input
        // ends: "XYZ....XYZ" with the repeat at the very end.
        let mut data = b"XYZabcdefghijklmnop".to_vec();
        data.extend_from_slice(b"XYZ");
        let toks = collect(&data, 6);
        assert_eq!(expand(&toks), data);
    }

    #[test]
    #[should_panic(expected = "deflate level")]
    fn level_zero_params_panic() {
        let _ = MatchParams::for_level(0);
    }

    #[test]
    fn reference_accepts_the_32768_distance_boundary() {
        // The maximum legal distance must encode and decode exactly; the
        // old `& 0xFFFF` masking made 32769 alias to distance 1.
        let t = Token::reference(MIN_MATCH, MAX_DIST);
        assert_eq!(t.as_match(), Some((MIN_MATCH, MAX_DIST)));
    }

    #[test]
    #[should_panic(expected = "match distance 32769")]
    fn reference_rejects_distance_beyond_window() {
        let _ = Token::reference(MIN_MATCH, MAX_DIST + 1);
    }

    #[test]
    #[should_panic(expected = "match length 259")]
    fn reference_rejects_overlong_match() {
        let _ = Token::reference(MAX_MATCH + 1, 1);
    }

    #[test]
    fn reused_encoder_matches_fresh_encoder_output() {
        // Tokenizing a sequence of buffers through one encoder must give
        // exactly what fresh per-buffer encoders give: no match may cross
        // a buffer boundary via stale dictionary entries.
        let buffers: Vec<Vec<u8>> = vec![
            b"shared prefix shared prefix shared prefix".to_vec(),
            b"shared prefix shared prefix shared prefix".to_vec(), // same bytes again
            (0..5000u32).map(|i| (i % 7) as u8).collect(),
            b"tiny".to_vec(),
            vec![],
            b"shared prefix once more".to_vec(),
        ];
        let mut enc = Lz77Encoder::new();
        for (k, buf) in buffers.iter().enumerate() {
            for level in [1u8, 6, 9] {
                let params = MatchParams::for_level(level);
                let mut reused = Vec::new();
                enc.tokenize(buf, &params, |t| reused.push(t));
                let mut fresh = Vec::new();
                tokenize(buf, &params, |t| fresh.push(t));
                assert_eq!(reused, fresh, "buffer {k}, level {level}");
                assert_eq!(expand(&reused), *buf, "buffer {k}, level {level}");
            }
        }
    }

    #[test]
    fn encoder_generation_wrap_resets_cleanly() {
        // Force the base counter to the wrap threshold and check the wipe
        // path produces correct tokens afterwards.
        let mut enc = Lz77Encoder::new();
        enc.base = u32::MAX - 100;
        enc.len = 200;
        let data = b"wrap wrap wrap wrap wrap wrap wrap wrap".to_vec();
        let params = MatchParams::for_level(6);
        let mut toks = Vec::new();
        enc.tokenize(&data, &params, |t| toks.push(t));
        assert_eq!(expand(&toks), data);
        assert_eq!(
            enc.base, GENERATION_GAP,
            "wrap must reset the generation base"
        );
    }
}
