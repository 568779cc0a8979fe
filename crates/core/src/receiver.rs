//! The reception side of AdOC (paper Fig. 1, "symmetric but does not
//! monitor the queue size"): frames read off the sockets and decompressed
//! into the application sink on the caller's thread.
//!
//! [`receive_message`] mirrors [`crate::sender::send_message`] for any
//! stream count. One stream (a fresh v1 message, or a resumed tail of
//! width 1) is read on the caller's thread too: its frames arrive in
//! sequence, so there is nothing to reorder and no thread, and a direct
//! body, a probe or a stored frame that fits the caller's buffer lands
//! there — a raw byte costs what a POSIX read of it does. Two or more
//! streams get a reception thread each, feeding a few frames into a
//! bounded channel that the caller [`Merge`]s in sequence order, so the
//! application sees bytes **in order** however the streams interleaved,
//! and a stalled stream or a slow decompressor backpressures the network
//! promptly.

use crate::config::AdocConfig;
use crate::pool::PooledBuf;
use crate::wire::{self, BodyKind, Event, FrameDecoder, FrameHeaderV2, MsgKind, Want};
use adoc_codec::Codec;
use std::io::{self, Read, Write};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::time::Instant;

/// Frames the reception threads of one receive may hold between them. Kept
/// small so a slow decompressor backpressures the network promptly — that
/// is the signal the sender's divergence guard reacts to.
const RECV_WINDOW_FRAMES: usize = 16;

/// Live progress of an adaptive receive, exposed so a session-serving
/// caller can park a partially-delivered message when the connection
/// dies and continue it on the next one — and handed back to
/// [`receive_message`] as the point to resume from. Direct bodies report
/// no progress: an interrupted direct message restarts from its
/// beginning.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecvProgress {
    /// An adaptive message is in flight. Cleared once the message
    /// completes — a partial exists only while this is set.
    pub active: bool,
    /// Raw length of the in-flight message.
    pub total_raw: u64,
    /// Raw bytes delivered contiguously to the sink so far (probe bytes
    /// plus in-order frames).
    pub delivered_raw: u64,
    /// The next global frame sequence number the message needs.
    pub next_seq: u64,
}

impl RecvProgress {
    /// Clears all progress (called at each message boundary).
    pub fn reset(&mut self) {
        *self = RecvProgress::default();
    }
}

/// Receives one message from the connection's streams (`readers[0]` is
/// the primary), streaming its decoded bytes into `sink` and reporting
/// delivery through `progress` — on error, `progress` (plus the bytes
/// already in the sink) defines the resume point a session server parks.
///
/// With `resume` (the progress an interrupted receive of this message
/// left behind), continues that message instead: the peer ships frames
/// `next_seq..` of a `total_raw`-byte message whose first `delivered_raw`
/// bytes the caller already holds. No message header and no probe are
/// read, framing is v2 whatever the width (mirroring the sender), and
/// frames with sequence numbers below `next_seq` — replays — are
/// rejected as duplicates.
///
/// `codec` holds the connection's decoder tables.
///
/// Returns `Ok(None)` on clean end-of-stream, `Ok(Some(raw_len))` after a
/// full message.
pub fn receive_message<R: Read + Send, K: Write>(
    readers: &mut [R],
    sink: &mut K,
    cfg: &AdocConfig,
    progress: &mut RecvProgress,
    resume: Option<RecvProgress>,
    codec: &mut Codec,
) -> io::Result<Option<u64>> {
    receive(readers, &mut &mut *sink, cfg, progress, resume, codec)
}

/// Where a receive puts a message's bytes: a writer that may lend a window
/// of its own memory, so a raw run lands there straight off the wire.
pub(crate) trait Sink: Write {
    /// The sink's next `len` bytes, counted as written, if it has that
    /// much room; `None`, the default, takes every byte through [`Write`].
    fn window(&mut self, _len: usize) -> Option<&mut [u8]> {
        None
    }
}

/// A plain writer lends no window.
impl<K: Write + ?Sized> Sink for &mut K {}

/// [`receive_message`] into a [`Sink`].
pub(crate) fn receive<R: Read + Send, K: Sink>(
    readers: &mut [R],
    sink: &mut K,
    cfg: &AdocConfig,
    progress: &mut RecvProgress,
    resume: Option<RecvProgress>,
    codec: &mut Codec,
) -> io::Result<Option<u64>> {
    assert!(!readers.is_empty(), "a connection needs at least 1 stream");
    let (primary, body_len) = match resume {
        Some(at) => {
            *progress = RecvProgress { active: true, ..at };
            // Even with nothing left to deliver the peer sends its
            // per-stream FINs, which must be consumed here or they would
            // corrupt the next message's parse.
            let beyond = at.delivered_raw > at.total_raw;
            wire::check(!beyond, || "resume point beyond message length".into())?;
            let body_len = at.total_raw - at.delivered_raw;
            (FrameDecoder::frames(cfg, 0, body_len), body_len)
        }
        None => {
            progress.reset();
            let mut dec = FrameDecoder::message(cfg, readers.len());
            let primary = &mut readers[0];
            let mut head = [0u8; wire::MSG_HEADER_LEN];
            if primary.read(&mut head[..1])? == 0 {
                return Ok(None); // a clean end of stream: no byte at all
            }
            primary.read_exact(&mut head[1..])?;
            let Event::Message { kind, raw_len } = dec.header(&head)? else {
                unreachable!("a fresh decoder parses a message header");
            };
            // Direct bodies report no progress: an interrupted one restarts.
            if kind == MsgKind::Adaptive {
                (progress.active, progress.total_raw) = (true, raw_len);
            }
            let mut direct = 0;
            let delivered = match progress.active {
                true => &mut progress.delivered_raw,
                false => &mut direct,
            };
            // The direct body, or the probe, straight into the sink: into
            // its window when the run fits there, a quantum at a time.
            next_frame(primary, &mut dec)?;
            if let Some(Want::Body { len, quantum, .. }) = dec.want() {
                match usize::try_from(len).ok().and_then(|len| sink.window(len)) {
                    Some(window) => {
                        for quantum in window.chunks_mut(quantum.max(1)) {
                            cfg.throttle.acquire_wire(quantum.len());
                            primary.read_exact(quantum)?;
                            *delivered += quantum.len() as u64;
                        }
                    }
                    None => wire::copy_raw(primary, sink, len, quantum, cfg, delivered)?,
                }
                dec.body_done();
            }
            if dec.want().is_none() {
                // A direct body, or a message its probe covered.
                progress.active = false;
                return Ok(Some(raw_len));
            }
            (dec, raw_len - progress.delivered_raw)
        }
    };
    receive_frames(readers, sink, primary, body_len, cfg, progress, codec)?;
    progress.active = false;
    Ok(Some(progress.total_raw))
}

/// Reads exactly `len` payload bytes into a pooled buffer, acquiring
/// wire budget for all of them first — inbound pacing: a throttled
/// reader drains the socket at its share, and TCP backpressure slows the
/// greedy sender. The buffer starts at [`wire::reserve`] of the claim
/// and grows only as bytes land, so a lying header costs no memory.
fn read_payload<R: Read>(reader: &mut R, len: u32, cfg: &AdocConfig) -> io::Result<PooledBuf> {
    cfg.throttle.acquire_wire(len as usize);
    let mut payload = cfg.pool.get(wire::reserve(u64::from(len)));
    let got = reader.take(u64::from(len)).read_to_end(&mut payload)?;
    match got == len as usize {
        true => Ok(payload),
        false => Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "frame payload truncated",
        )),
    }
}

/// A data frame a reception thread read off its stream, payload and all.
type Frame = (FrameHeaderV2, PooledBuf);

/// The frames of two or more streams in sequence order. Each stream's
/// reception thread fills a bounded channel of its own, and a stream's
/// frames rise, so the frame the message needs next heads one stream:
/// the merge holds each stream's earliest frame and blocks only on a
/// stream whose head it has not seen.
struct Merge {
    heads: Vec<Option<Frame>>,
    /// `None` once the stream's frames are over.
    feeds: Vec<Option<Receiver<Frame>>>,
}

impl Merge {
    /// The earliest head once it is numbered `next` or below (a replay,
    /// which the consumer refuses), or once every stream has shown its
    /// head (a gap); `None` when every stream is over.
    fn pop(&mut self, next: u64) -> Option<Frame> {
        loop {
            let seq = |i: usize| self.heads[i].as_ref().map_or(u64::MAX, |(hdr, _)| hdr.seq);
            let earliest = (0..self.heads.len()).min_by_key(|&i| seq(i))?;
            let unseen =
                (0..self.heads.len()).find(|&i| self.heads[i].is_none() && self.feeds[i].is_some());
            let Some(i) = unseen.filter(|_| seq(earliest) > next) else {
                return self.heads[earliest].take();
            };
            match self.feeds[i].as_ref().map(Receiver::recv) {
                Some(Ok(frame)) => self.heads[i] = Some(frame),
                _ => self.feeds[i] = None,
            }
        }
    }
}

/// The frame stage of a receive, shared by the fresh path (after the
/// probe) and the resume path (no probe, sequence starting at the parked
/// cursor). The caller's thread delivers the frames: one stream's straight
/// off the wire, two or more streams' from their reception threads.
fn receive_frames<R: Read + Send, K: Sink>(
    readers: &mut [R],
    sink: &mut K,
    primary: FrameDecoder,
    body_len: u64,
    cfg: &AdocConfig,
    progress: &mut RecvProgress,
    codec: &mut Codec,
) -> io::Result<()> {
    if let [reader] = readers {
        let frames = Frames::One(reader, primary);
        return caught(|| deliver(frames, sink, cfg, progress, codec));
    }
    let window = (RECV_WINDOW_FRAMES / readers.len()).max(1);
    std::thread::scope(|s| {
        let mut feeds = Vec::new();
        let handles: Vec<_> = readers
            .iter_mut()
            .enumerate()
            .map(|(i, r)| {
                let dec = match i {
                    0 => primary,
                    _ => FrameDecoder::frames(cfg, i as u8, body_len),
                };
                let (tx, rx) = mpsc::sync_channel(window);
                feeds.push(Some(rx));
                s.spawn(move || reception_thread(r, dec, tx, cfg))
            })
            .collect();
        let heads = feeds.iter().map(|_| None).collect();
        let merge = Frames::<R>::Striped(Merge { heads, feeds });
        // The merge goes with the consumer, so a reception thread still
        // sending stops quietly.
        let delivered = caught(|| deliver(merge, sink, cfg, progress, codec));
        // A reception (socket) error, or a panic, is the root cause when
        // present — the consumer's "truncated" or "early" error is its
        // downstream symptom. Decode and sink failures surface from the
        // consumer.
        for h in handles {
            h.join()
                .map_err(|_| io::Error::other("reception thread panicked"))??;
        }
        delivered
    })
}

/// Runs the consumer on the caller's thread: a panic in it (the codec, or
/// a user [`crate::Throttle`]) becomes an error, as a panicking reception
/// thread's does, instead of unwinding into the caller.
fn caught(consumer: impl FnOnce() -> io::Result<()>) -> io::Result<()> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(consumer))
        .unwrap_or_else(|_| Err(io::Error::other("receive panicked")))
}

/// One stream's reception thread (two or more streams): moves the
/// stream's frames into its feed until its share of the message is over
/// or the consumer has gone.
fn reception_thread<R: Read>(
    reader: &mut R,
    mut dec: FrameDecoder,
    feed: SyncSender<Frame>,
    cfg: &AdocConfig,
) -> io::Result<()> {
    while let Some(hdr) = next_frame(reader, &mut dec)? {
        let payload = read_payload(reader, hdr.payload_len, cfg)?;
        dec.body_done();
        if feed.send((hdr, payload)).is_err() {
            break;
        }
    }
    Ok(())
}

/// Reads the headers `dec` wants off `reader` with `read_exact`, up to its
/// next run: the header of the frame whose payload is next, or `None` when
/// a raw run (a direct body or a probe) is next or the decoder's share of
/// the message is over.
fn next_frame<R: Read>(
    reader: &mut R,
    dec: &mut FrameDecoder,
) -> io::Result<Option<FrameHeaderV2>> {
    let mut head = [0u8; wire::FRAME_HEADER_V2_LEN];
    while let Some(Want::Header(n)) = dec.want() {
        reader.read_exact(&mut head[..n])?;
        dec.header(&head[..n])?;
    }
    Ok(match dec.want() {
        Some(
            Want::Payload(hdr)
            | Want::Body {
                kind: BodyKind::Stored(hdr),
                ..
            },
        ) => Some(hdr),
        _ => None,
    })
}

/// Where the consumer takes a message's frames from.
enum Frames<'a, R> {
    /// The one stream, read right here: a frame's payload is still on the
    /// wire when its header is in.
    One(&'a mut R, FrameDecoder),
    /// The merged feeds of two or more streams' reception threads.
    Striped(Merge),
}

/// Checks a frame against the message before a byte of it is put: it must
/// carry the sequence number the message needs next — below it is a
/// replay, above it a gap — and, as each stream's decoder could only bound
/// its own share, must not overrun the message.
fn admit(hdr: &FrameHeaderV2, progress: &RecvProgress) -> io::Result<()> {
    let (seq, want) = (hdr.seq, progress.next_seq);
    let what = if seq < want { "duplicate" } else { "early" };
    wire::check(seq == want, || {
        format!("{what} frame sequence {seq}, expected {want}")
    })?;
    let left = progress.total_raw - progress.delivered_raw;
    wire::check(u64::from(hdr.raw_len) <= left, || {
        "frames exceed message length".into()
    })
}

/// The consumer: puts the frames of `frames` into the sink, each once
/// [`admit`]ted, advancing `progress` frame by frame; together they must
/// carry the whole message. A stored frame on one stream lands straight in
/// the sink's window when it fits there, so its bytes are copied once; any
/// other frame's payload is read whole, and a stored one is written from
/// there, a compressed one decoded first.
fn deliver<R: Read, K: Sink>(
    mut frames: Frames<'_, R>,
    sink: &mut K,
    cfg: &AdocConfig,
    progress: &mut RecvProgress,
    codec: &mut Codec,
) -> io::Result<()> {
    // Decode scratch: pooled on the first compressed frame, sized to the
    // largest and reused across the message.
    let mut scratch: Option<PooledBuf> = None;
    loop {
        let (hdr, payload) = match &mut frames {
            Frames::One(reader, dec) => {
                let Some(hdr) = next_frame(reader, dec)? else {
                    break;
                };
                admit(&hdr, progress)?;
                let raw_len = hdr.raw_len as usize;
                let window = (hdr.level == 0).then(|| sink.window(raw_len)).flatten();
                let payload = match window {
                    Some(window) => {
                        cfg.throttle.acquire_wire(raw_len);
                        reader.read_exact(window)?;
                        None
                    }
                    None => Some(read_payload(reader, hdr.payload_len, cfg)?),
                };
                dec.body_done();
                (hdr, payload)
            }
            Frames::Striped(merge) => {
                let Some((hdr, payload)) = merge.pop(progress.next_seq) else {
                    break;
                };
                admit(&hdr, progress)?;
                (hdr, Some(payload))
            }
        };
        if let Some(payload) = payload {
            let raw_len = hdr.raw_len as usize;
            let raw = match hdr.level {
                // The decoder checked a stored payload's length.
                0 => &payload[..],
                level => {
                    let scratch = scratch.get_or_insert_with(|| cfg.pool.get(cfg.buffer_size));
                    if scratch.len() < raw_len {
                        // Zero-filled once per size; a peer with a larger
                        // `buffer_size` sends larger frames, which the
                        // decoder bounded by the payload that carried them.
                        scratch.resize(raw_len, 0);
                    }
                    let raw = &mut scratch[..raw_len];
                    let t0 = Instant::now();
                    let decoded = codec.decompress_into(level, &payload, raw);
                    decoded.map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
                    cfg.throttle.charge(t0.elapsed());
                    raw
                }
            };
            sink.write_all(raw)?;
        }
        progress.delivered_raw += u64::from(hdr.raw_len);
        progress.next_seq += 1;
    }
    if progress.delivered_raw != progress.total_raw {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!(
                "message truncated: {} of {} bytes",
                progress.delivered_raw, progress.total_raw
            ),
        ));
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::sender::send_message;
    use crate::session::ResumePoint;
    use crate::wire::tests::{feed, random_split, Seen};
    use std::collections::HashSet;
    use std::io::Cursor;

    /// A fresh (non-resumed) receive with throwaway progress.
    fn recv<R: Read + Send>(
        readers: &mut [R],
        sink: &mut (impl Write + Send),
        cfg: &AdocConfig,
    ) -> io::Result<Option<u64>> {
        receive_message(
            readers,
            sink,
            cfg,
            &mut RecvProgress::default(),
            None,
            &mut Codec::new(),
        )
    }

    /// The progress an interrupted receive would have parked.
    fn parked(total_raw: u64, delivered_raw: u64, next_seq: u64) -> Option<RecvProgress> {
        Some(RecvProgress {
            active: true,
            total_raw,
            delivered_raw,
            next_seq,
        })
    }

    fn roundtrip_with(cfg_tx: &AdocConfig, cfg_rx: &AdocConfig, data: &[u8]) -> Vec<u8> {
        let mut wire = Vec::new();
        let mut src = data;
        send_message(
            std::slice::from_mut(&mut wire),
            &mut src,
            data.len() as u64,
            None,
            cfg_tx,
            &mut Vec::new(),
        )
        .unwrap();
        let mut c = Cursor::new(wire);
        let mut out = Vec::new();
        let got = recv(std::slice::from_mut(&mut c), &mut out, cfg_rx).unwrap();
        assert_eq!(got, Some(data.len() as u64));
        out
    }

    /// Striped send into captured per-stream byte vectors, then striped
    /// receive from cursors over them.
    fn roundtrip_striped(
        streams: usize,
        cfg_tx: &AdocConfig,
        cfg_rx: &AdocConfig,
        data: &[u8],
    ) -> Vec<u8> {
        let mut sinks: Vec<Vec<u8>> = vec![Vec::new(); streams];
        let mut src = data;
        send_message(
            &mut sinks,
            &mut src,
            data.len() as u64,
            None,
            cfg_tx,
            &mut Vec::new(),
        )
        .unwrap();
        let mut cursors: Vec<Cursor<Vec<u8>>> = sinks.into_iter().map(Cursor::new).collect();
        let mut out = Vec::new();
        let got = recv(&mut cursors, &mut out, cfg_rx).unwrap();
        assert_eq!(got, Some(data.len() as u64));
        out
    }

    fn compressible(n: usize) -> Vec<u8> {
        let mut v = Vec::with_capacity(n);
        let mut x = 99u64;
        while v.len() < n {
            x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            if !x.is_multiple_of(4) {
                v.extend_from_slice(b"some structured text content ");
            } else {
                v.extend_from_slice(&x.to_le_bytes());
            }
        }
        v.truncate(n);
        v
    }

    #[test]
    fn direct_roundtrip() {
        let cfg = AdocConfig::default();
        let data = compressible(10_000);
        assert_eq!(roundtrip_with(&cfg, &cfg, &data), data);
    }

    #[test]
    fn empty_message_roundtrip() {
        let cfg = AdocConfig::default();
        assert_eq!(roundtrip_with(&cfg, &cfg, b""), b"");
    }

    #[test]
    fn adaptive_fast_path_roundtrip() {
        // Vec sink probe → fast path → raw frames.
        let cfg = AdocConfig::default();
        let data = compressible(3 << 20);
        assert_eq!(roundtrip_with(&cfg, &cfg, &data), data);
    }

    #[test]
    fn forced_compression_roundtrip() {
        let tx = AdocConfig::default().with_levels(1, 10);
        let rx = AdocConfig::default();
        let data = compressible(2 << 20);
        assert_eq!(roundtrip_with(&tx, &rx, &data), data);
    }

    #[test]
    fn forced_single_level_roundtrips_each_level() {
        for level in 1..=10u8 {
            let tx = AdocConfig::default().with_levels(level, level);
            let rx = AdocConfig::default();
            let data = compressible(600_000);
            assert_eq!(roundtrip_with(&tx, &rx, &data), data, "level {level}");
        }
    }

    #[test]
    fn frames_larger_than_the_receivers_buffer_size_decode() {
        // Frame size is the sender's `buffer_size`; a receiver configured
        // smaller grows its decode scratch instead of failing.
        let mut tx = AdocConfig::default().with_levels(1, 10);
        tx.buffer_size = 256 << 10;
        let rx = AdocConfig {
            buffer_size: 32 << 10,
            ..AdocConfig::default()
        };
        let data = compressible(1 << 20);
        assert_eq!(roundtrip_with(&tx, &rx, &data), data);
        assert_eq!(roundtrip_striped(2, &tx, &rx, &data), data);
    }

    #[test]
    fn striped_roundtrips_across_stream_counts() {
        for streams in [2usize, 3, 4] {
            let tx = AdocConfig::default().with_levels(1, 10);
            let rx = AdocConfig::default();
            let data = compressible(2 << 20);
            assert_eq!(
                roundtrip_striped(streams, &tx, &rx, &data),
                data,
                "streams = {streams}"
            );
            assert_eq!(tx.pool.stats().outstanding, 0);
            assert_eq!(rx.pool.stats().outstanding, 0);
        }
    }

    #[test]
    fn striped_fast_path_roundtrip() {
        // Vec sinks measure an instant probe → raw v2 frames on the
        // primary stream + FINs everywhere.
        let cfg = AdocConfig::default();
        let data = compressible(3 << 20);
        assert_eq!(roundtrip_striped(4, &cfg, &cfg, &data), data);
    }

    #[test]
    fn striped_empty_and_probe_only_messages() {
        let forced = AdocConfig::default().with_levels(1, 10);
        assert_eq!(roundtrip_striped(2, &forced, &forced, b""), b"");
        // Message fully covered by the probe: adaptive framing with zero
        // frames — no FINs are exchanged and no threads spawn.
        let cfg = AdocConfig {
            probe_threshold: 1024,
            probe_size: 1024,
            ..AdocConfig::default()
        };
        let data = compressible(1024);
        assert_eq!(roundtrip_striped(3, &cfg, &cfg, &data), data);
    }

    #[test]
    fn striped_stream_truncation_errors_without_hanging() {
        let tx = AdocConfig::default().with_levels(2, 10);
        let data = compressible(2 << 20);
        let mut sinks: Vec<Vec<u8>> = vec![Vec::new(); 3];
        let mut src = &data[..];
        send_message(
            &mut sinks,
            &mut src,
            data.len() as u64,
            None,
            &tx,
            &mut Vec::new(),
        )
        .unwrap();
        // Cut one secondary stream mid-frame.
        let cut = sinks[1].len() / 2;
        sinks[1].truncate(cut);
        let mut cursors: Vec<Cursor<Vec<u8>>> = sinks.into_iter().map(Cursor::new).collect();
        let mut out = Vec::new();
        let err = recv(&mut cursors, &mut out, &AdocConfig::default()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn striped_duplicate_sequence_detected() {
        // Rewrite one frame's sequence number to collide with another
        // frame's: the receive must refuse it instead of silently
        // dropping or reordering data. (A 700 KB message keeps every
        // frame inside the streams' channels, so the receive sees the
        // collision rather than the pipeline stalling on the missing
        // renamed sequence — a stall that, on a real socket, is
        // indistinguishable from a slow peer.)
        let tx = AdocConfig::default().with_levels(3, 3);
        let data = compressible(700_000); // 4 frames
        let mut sinks: Vec<Vec<u8>> = vec![Vec::new(); 2];
        let mut src = &data[..];
        send_message(
            &mut sinks,
            &mut src,
            data.len() as u64,
            None,
            &tx,
            &mut Vec::new(),
        )
        .unwrap();
        // Which stream claimed which frame is a race, so walk the capture
        // for `(stream, header offset, seq)` of every data frame; stream
        // 0 starts behind the message header and probe-length field.
        let mut found = Vec::new();
        for (i, sink) in sinks.iter().enumerate() {
            let mut at = if i == 0 { wire::MSG_HEADER_LEN + 4 } else { 0 };
            loop {
                let h = &sink[at..at + wire::FRAME_HEADER_V2_LEN];
                let fh = wire::FrameHeaderV2::decode(h.try_into().unwrap());
                if fh.is_fin() {
                    break;
                }
                found.push((i, at, fh.seq));
                at += wire::FRAME_HEADER_V2_LEN + fh.payload_len as usize;
            }
        }
        assert_eq!(found.len(), 4);
        // The seq field sits at bytes 2..10 of a v2 header.
        let (stream, at, _) = found[0];
        let other_seq = found[1].2;
        sinks[stream][at + 2..at + 10].copy_from_slice(&other_seq.to_le_bytes());
        let mut cursors: Vec<Cursor<Vec<u8>>> = sinks.into_iter().map(Cursor::new).collect();
        let mut out = Vec::new();
        let res = recv(&mut cursors, &mut out, &AdocConfig::default());
        assert!(res.is_err(), "duplicate sequence must be rejected");
    }

    #[test]
    fn resumed_tail_roundtrips_at_any_width() {
        // A message interrupted at 123 456 delivered bytes / 7 frames is
        // continued on groups of width 1, 2 and 4 — the resumed width
        // need not match the original, and chunk boundaries of the
        // continuation are independent of the first attempt's.
        let data = compressible(2 << 20);
        let at = ResumePoint {
            next_seq: 7,
            delivered_raw: 123_456,
        };
        let delivered = at.delivered_raw as usize;
        for streams in [1usize, 2, 4] {
            let tx = AdocConfig::default().with_levels(1, 10);
            let mut sinks: Vec<Vec<u8>> = vec![Vec::new(); streams];
            let mut src = &data[delivered..];
            send_message(
                &mut sinks,
                &mut src,
                data.len() as u64,
                Some(at),
                &tx,
                &mut Vec::new(),
            )
            .unwrap();
            let mut cursors: Vec<Cursor<Vec<u8>>> = sinks.into_iter().map(Cursor::new).collect();
            let mut out = data[..delivered].to_vec();
            let mut progress = RecvProgress::default();
            let n = receive_message(
                &mut cursors,
                &mut out,
                &AdocConfig::default(),
                &mut progress,
                parked(data.len() as u64, at.delivered_raw, at.next_seq),
                &mut Codec::new(),
            )
            .unwrap();
            assert_eq!(n, Some(data.len() as u64), "streams = {streams}");
            assert_eq!(out, data, "streams = {streams}");
            assert!(!progress.active, "completed resume clears the partial");
            assert_eq!(progress.delivered_raw, data.len() as u64);
            assert_eq!(tx.pool.stats().outstanding, 0);
        }
    }

    #[test]
    fn resumed_with_nothing_left_exchanges_only_fins() {
        // The kill landed after the last data frame: the continuation is
        // pure FINs, which the receiver must still consume so the next
        // message parses cleanly.
        let tx = AdocConfig::default();
        let mut sinks: Vec<Vec<u8>> = vec![Vec::new(); 2];
        let mut src: &[u8] = b"";
        let at = ResumePoint {
            next_seq: 5,
            delivered_raw: 100,
        };
        send_message(&mut sinks, &mut src, 100, Some(at), &tx, &mut Vec::new()).unwrap();
        for s in &sinks {
            assert_eq!(s.len(), wire::FRAME_HEADER_V2_LEN, "FIN only");
        }
        let mut cursors: Vec<Cursor<Vec<u8>>> = sinks.into_iter().map(Cursor::new).collect();
        let mut out = Vec::new();
        let n = receive_message(
            &mut cursors,
            &mut out,
            &AdocConfig::default(),
            &mut RecvProgress::default(),
            parked(100, 100, 5),
            &mut Codec::new(),
        )
        .unwrap();
        assert_eq!(n, Some(100));
        assert!(out.is_empty());
    }

    #[test]
    fn replayed_sequences_on_resume_are_rejected() {
        // A peer that replays the message from seq 0 although the
        // receiver already delivered 4 frames: every replayed frame sits
        // below the resume cursor and must be refused as a duplicate
        // rather than re-delivered, on one stream and on two.
        let data = compressible(1 << 20);
        for streams in [1usize, 2] {
            let tx = AdocConfig::default().with_levels(1, 10);
            let mut sinks: Vec<Vec<u8>> = vec![Vec::new(); streams];
            let mut src = &data[..];
            let from_zero = Some(ResumePoint::default());
            send_message(
                &mut sinks,
                &mut src,
                data.len() as u64,
                from_zero,
                &tx,
                &mut Vec::new(),
            )
            .unwrap();
            let mut cursors: Vec<Cursor<Vec<u8>>> = sinks.into_iter().map(Cursor::new).collect();
            let mut out = Vec::new();
            let err = receive_message(
                &mut cursors,
                &mut out,
                &AdocConfig::default(),
                &mut RecvProgress::default(),
                parked(2 * data.len() as u64, data.len() as u64, 4),
                &mut Codec::new(),
            )
            .unwrap_err();
            assert_eq!(
                err.kind(),
                io::ErrorKind::InvalidData,
                "streams = {streams}"
            );
            assert!(err.to_string().contains("duplicate"), "{err}");
        }
    }

    #[test]
    fn one_stream_resume_that_skips_a_sequence_is_invalid_not_a_hang() {
        // The receiver parked at seq 4, but the peer's tail starts at 5:
        // on one stream nothing else can fill the hole, so the gap is
        // corrupt data, reported before any byte of the tail lands.
        let data = compressible(1 << 20);
        let at = ResumePoint {
            next_seq: 5,
            delivered_raw: 200_000,
        };
        let tx = AdocConfig::default().with_levels(1, 10);
        let mut wire = vec![Vec::new()];
        let mut src = &data[200_000..];
        send_message(
            &mut wire,
            &mut src,
            data.len() as u64,
            Some(at),
            &tx,
            &mut Vec::new(),
        )
        .unwrap();
        let (done, verdict) = std::sync::mpsc::channel();
        let receiver = std::thread::spawn(move || {
            let mut out = Vec::new();
            let res = receive_message(
                &mut [Cursor::new(wire.pop().unwrap())],
                &mut out,
                &AdocConfig::default(),
                &mut RecvProgress::default(),
                parked(data.len() as u64, 200_000, 4),
                &mut Codec::new(),
            );
            done.send((res.map_err(|e| (e.kind(), e.to_string())), out.len()))
        });
        let (res, delivered) = verdict
            .recv_timeout(std::time::Duration::from_secs(20))
            .expect("a sequence gap on one stream must not hang the receive");
        receiver.join().unwrap().unwrap();
        let (kind, msg) = res.unwrap_err();
        assert_eq!(kind, io::ErrorKind::InvalidData, "{msg}");
        assert_eq!(delivered, 0);
    }

    /// A sink that lends its whole unfilled tail, as a caller's buffer does.
    pub(crate) struct Room {
        pub(crate) buf: Vec<u8>,
        pub(crate) filled: usize,
    }

    impl Room {
        /// `len` zeroed bytes of room.
        pub(crate) fn new(len: usize) -> Room {
            Room {
                buf: vec![0u8; len],
                filled: 0,
            }
        }
    }

    impl Write for Room {
        fn write(&mut self, data: &[u8]) -> io::Result<usize> {
            let end = self.filled + data.len();
            self.buf[self.filled..end].copy_from_slice(data);
            self.filled = end;
            Ok(data.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl Sink for Room {
        fn window(&mut self, len: usize) -> Option<&mut [u8]> {
            let window = self.buf.get_mut(self.filled..self.filled + len)?;
            self.filled += len;
            Some(window)
        }
    }

    #[test]
    fn a_stored_frame_lands_only_after_its_sequence_check() {
        // A stored tail whose frames start at 5, for a receiver parked at
        // 4, into a sink with room for all of it: refused before a byte
        // lands. The same tail parked at 5 lands whole.
        let data = compressible(1 << 20);
        let at = ResumePoint {
            next_seq: 5,
            delivered_raw: 200_000,
        };
        let tx = AdocConfig::default().with_levels(0, 0);
        let mut wire = vec![Vec::new()];
        let (len, tail) = (data.len() as u64, &data[200_000..]);
        send_message(
            &mut wire,
            &mut &tail[..],
            len,
            Some(at),
            &tx,
            &mut Vec::new(),
        )
        .unwrap();
        for (parked_seq, ok) in [(4, false), (5, true)] {
            let mut sink = Room {
                buf: vec![0u8; tail.len()],
                filled: 0,
            };
            let res = receive(
                &mut [Cursor::new(&wire[0][..])],
                &mut sink,
                &AdocConfig::default(),
                &mut RecvProgress::default(),
                parked(len, 200_000, parked_seq),
                &mut Codec::new(),
            );
            assert_eq!(res.is_ok(), ok, "parked at {parked_seq}: {res:?}");
            let landed = if ok { tail.len() } else { 0 };
            assert_eq!(sink.filled, landed, "parked at {parked_seq}");
            assert!(sink.buf[..sink.filled] == tail[..landed]);
        }
    }

    /// One stream carrying ≥ 20 frames, fresh (v1) and as a resumed tail
    /// (v2, width 1): each case's wire, resume point, and the prefix the
    /// receiver already holds.
    fn one_stream_cases(data: &[u8]) -> Vec<(Vec<u8>, Option<RecvProgress>, Vec<u8>)> {
        let mut tx = AdocConfig::default().with_levels(1, 10);
        tx.buffer_size = 32 << 10;
        let send = |from: Option<ResumePoint>| {
            let mut wire = vec![Vec::new()];
            let mut src = &data[from.map_or(0, |at| at.delivered_raw as usize)..];
            send_message(
                &mut wire,
                &mut src,
                data.len() as u64,
                from,
                &tx,
                &mut Vec::new(),
            )
            .unwrap();
            wire.pop().unwrap()
        };
        let at = ResumePoint {
            next_seq: 7,
            delivered_raw: 123_456,
        };
        vec![
            (send(None), None, Vec::new()),
            (
                send(Some(at)),
                parked(data.len() as u64, at.delivered_raw, at.next_seq),
                data[..at.delivered_raw as usize].to_vec(),
            ),
        ]
    }

    #[test]
    fn one_stream_is_read_on_the_callers_thread() {
        /// Notes the thread every `read` runs on.
        struct Tally(Cursor<Vec<u8>>, HashSet<std::thread::ThreadId>);
        impl Read for Tally {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                self.1.insert(std::thread::current().id());
                self.0.read(buf)
            }
        }
        let data = compressible(1 << 20);
        for (wire, resume, mut out) in one_stream_cases(&data) {
            let mut readers = [Tally(Cursor::new(wire), HashSet::new())];
            let mut progress = RecvProgress::default();
            let cfg = AdocConfig::default();
            receive_message(
                &mut readers,
                &mut out,
                &cfg,
                &mut progress,
                resume,
                &mut Codec::new(),
            )
            .unwrap();
            assert!(out == data, "resume {resume:?}");
            let frames = progress.next_seq - resume.map_or(0, |r| r.next_seq);
            assert!(frames >= 20, "only {frames} frames");
            let me = HashSet::from([std::thread::current().id()]);
            assert_eq!(readers[0].1, me, "resume {resume:?}: a read ran elsewhere");
        }
    }

    #[test]
    fn one_stream_holds_one_payload_and_the_scratch() {
        // No window: a frame's payload is released before the next one
        // is read.
        let data = compressible(1 << 20);
        for (wire, resume, mut out) in one_stream_cases(&data) {
            // Its own pool, so no sender's buffers are counted.
            let rx = AdocConfig::default();
            let mut progress = RecvProgress::default();
            let mut readers = [Cursor::new(wire)];
            receive_message(
                &mut readers,
                &mut out,
                &rx,
                &mut progress,
                resume,
                &mut Codec::new(),
            )
            .unwrap();
            assert!(out == data, "resume {resume:?}");
            let stats = rx.pool.stats();
            assert!(stats.peak_outstanding <= 2, "resume {resume:?}: {stats:?}");
            assert_eq!(stats.outstanding, 0);
        }
    }

    /// Hands `check` every truncation and every single-byte mutation of
    /// two v1 captures (thinned ×17 in unoptimized builds), with the
    /// geometry the captures were taken with.
    pub(crate) fn damaged_v1_cases(mut check: impl FnMut(&AdocConfig, &[u8], &str)) {
        let captures: [(&str, &[u8]); 2] = [
            (
                "v1_pinned_l2",
                include_bytes!("../../../tests/fixtures/v1_pinned_l2.bin"),
            ),
            (
                "v1_fast_path",
                include_bytes!("../../../tests/fixtures/v1_fast_path.bin"),
            ),
        ];
        // The geometry the captures were taken with.
        let cfg = AdocConfig {
            buffer_size: 32 * 1024,
            packet_size: 4 * 1024,
            probe_threshold: 8 * 1024,
            probe_size: 4 * 1024,
            ..AdocConfig::default()
        };
        let stride = if cfg!(debug_assertions) { 17 } else { 1 };
        for (name, capture) in captures {
            check(&cfg, capture, name);
            let mut bad = capture.to_vec();
            for at in (0..capture.len()).step_by(stride) {
                check(&cfg, &capture[..at], &format!("{name} cut at {at}"));
                let flip = [0x01u8, 0x10, 0xFF][at % 3];
                bad[at] ^= flip;
                check(&cfg, &bad, &format!("{name} mutated at {at}"));
                bad[at] ^= flip;
            }
        }
    }

    #[test]
    fn one_stream_receive_is_total_on_damaged_v1_fixtures() {
        // Every damaged case returns Ok or a typed error — never a caught
        // panic — and the sink holds exactly what `progress` accounts for,
        // never more than the header's `raw_len`. A push-fed
        // `FrameDecoder` given the same bytes whole, at random splits and
        // (every 32nd case) one byte at a time reaches the same verdict.
        let mut codec = Codec::new();
        let mut cases = 0usize;
        damaged_v1_cases(|cfg, bytes, what| {
            let mut out = Vec::new();
            let mut progress = RecvProgress::default();
            let res = receive_message(
                &mut [Cursor::new(bytes)],
                &mut out,
                cfg,
                &mut progress,
                None,
                &mut codec,
            );
            if let Err(e) = &res {
                assert!(!e.to_string().contains("panicked"), "{what}: {e}");
            }
            let raw_len = bytes
                .get(2..wire::MSG_HEADER_LEN)
                .map_or(0, |b| u64::from_le_bytes(b.try_into().unwrap()));
            assert!(out.len() as u64 <= raw_len, "{what}: {} bytes", out.len());
            if bytes.get(1) == Some(&wire::encode_msg_header(MsgKind::Adaptive, 0)[1]) {
                assert_eq!(progress.delivered_raw, out.len() as u64, "{what}");
            } else {
                // Direct bodies (or no header at all) report no progress.
                assert_eq!(progress, RecvProgress::default(), "{what}");
            }
            if let Ok(Some(n)) = res {
                assert_eq!(n, out.len() as u64, "{what}");
            }
            // A push-fed decoder reaches the same verdict, and sees the
            // same events, at any split.
            cases += 1;
            let (whole, verdict) = feed(&mut FrameDecoder::message(cfg, 1), [bytes]);
            let fed = verdict.is_ok() && decodes(&whole, &mut codec);
            assert_eq!(fed, res.is_ok(), "{what}: push-fed");
            let mut splits = vec![random_split(bytes, cases as u64, 64)];
            if cases.is_multiple_of(32) {
                splits.push(bytes.chunks(1).collect());
            }
            for pieces in splits {
                let n = pieces.len();
                let (seen, split) = feed(&mut FrameDecoder::message(cfg, 1), pieces);
                assert!(seen == whole, "{what}: fed in {n} pieces");
                assert_eq!(split.is_ok(), verdict.is_ok(), "{what}: fed in {n} pieces");
            }
        });
    }

    /// Whether every frame a push-fed decoder saw decodes, as a
    /// receiver would decode it.
    fn decodes(seen: &[Seen], codec: &mut Codec) -> bool {
        let mut frame = None;
        let mut raw = Vec::new();
        seen.iter().all(|s| match s {
            Seen::Event(Event::Frame(hdr)) => {
                frame = Some(*hdr);
                true
            }
            Seen::Run(payload) => frame.take().is_none_or(|hdr| {
                raw.resize(hdr.raw_len as usize, 0);
                codec.decompress_into(hdr.level, payload, &mut raw).is_ok()
            }),
            Seen::Event(_) => true,
        })
    }

    #[test]
    fn resume_point_beyond_message_is_invalid() {
        let mut cursors: Vec<Cursor<Vec<u8>>> = vec![Cursor::new(Vec::new())];
        let mut out = Vec::new();
        let err = receive_message(
            &mut cursors,
            &mut out,
            &AdocConfig::default(),
            &mut RecvProgress::default(),
            parked(10, 11, 0),
            &mut Codec::new(),
        )
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // The sender refuses the same resume point before writing a byte.
        let at = ResumePoint {
            next_seq: 0,
            delivered_raw: 11,
        };
        let mut sinks = vec![Vec::new()];
        let err = send_message(
            &mut sinks,
            &mut &b""[..],
            10,
            Some(at),
            &AdocConfig::default(),
            &mut Vec::new(),
        )
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(sinks[0].is_empty());
    }

    #[test]
    fn clean_eof_returns_none() {
        let cfg = AdocConfig::default();
        let mut c = Cursor::new(Vec::<u8>::new());
        let mut out = Vec::new();
        assert!(recv(std::slice::from_mut(&mut c), &mut out, &cfg)
            .unwrap()
            .is_none());
        // Same through the striped entry point.
        let mut cursors = vec![Cursor::new(Vec::<u8>::new()), Cursor::new(Vec::<u8>::new())];
        assert!(recv(&mut cursors, &mut out, &cfg).unwrap().is_none());
    }

    #[test]
    fn truncated_adaptive_stream_errors() {
        let tx = AdocConfig::default().with_levels(1, 10);
        let data = compressible(1 << 20);
        let mut wire = Vec::new();
        let mut src = &data[..];
        send_message(
            std::slice::from_mut(&mut wire),
            &mut src,
            data.len() as u64,
            None,
            &tx,
            &mut Vec::new(),
        )
        .unwrap();
        for frac in [wire.len() / 4, wire.len() / 2, wire.len() - 3] {
            let mut c = Cursor::new(wire[..frac].to_vec());
            let mut out = Vec::new();
            assert!(
                recv(
                    std::slice::from_mut(&mut c),
                    &mut out,
                    &AdocConfig::default()
                )
                .is_err(),
                "cut at {frac} did not error"
            );
        }
    }

    #[test]
    fn oversized_message_header_rejected() {
        let cfg = AdocConfig {
            max_message: 1000,
            ..AdocConfig::default()
        };
        let hdr = wire::encode_msg_header(MsgKind::Direct, 10_000);
        let mut c = Cursor::new(hdr.to_vec());
        let mut out = Vec::new();
        assert!(recv(std::slice::from_mut(&mut c), &mut out, &cfg).is_err());
        let mut cursors = vec![Cursor::new(hdr.to_vec()), Cursor::new(Vec::new())];
        assert!(recv(&mut cursors, &mut out, &cfg).is_err());
    }

    #[test]
    fn corrupted_frame_payload_detected() {
        let tx = AdocConfig::default().with_levels(5, 5);
        let data = compressible(700_000);
        let mut wire = Vec::new();
        let mut src = &data[..];
        send_message(
            std::slice::from_mut(&mut wire),
            &mut src,
            data.len() as u64,
            None,
            &tx,
            &mut Vec::new(),
        )
        .unwrap();
        // Flip a byte inside the first frame payload (after headers).
        let idx = wire::MSG_HEADER_LEN + 4 + wire::FRAME_HEADER_LEN + 100;
        wire[idx] ^= 0xFF;
        let mut c = Cursor::new(wire);
        let mut out = Vec::new();
        let res = recv(
            std::slice::from_mut(&mut c),
            &mut out,
            &AdocConfig::default(),
        );
        assert!(
            res.is_err(),
            "corruption must be detected by decode or length checks"
        );
    }

    #[test]
    fn sink_failure_propagates() {
        struct TinySink(usize);
        impl Write for TinySink {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.0 < buf.len() {
                    return Err(io::Error::new(io::ErrorKind::StorageFull, "disk full"));
                }
                self.0 -= buf.len();
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let tx = AdocConfig::default().with_levels(1, 10);
        let data = compressible(2 << 20);
        let mut wire = Vec::new();
        let mut src = &data[..];
        send_message(
            std::slice::from_mut(&mut wire),
            &mut src,
            data.len() as u64,
            None,
            &tx,
            &mut Vec::new(),
        )
        .unwrap();
        let mut c = Cursor::new(wire);
        let mut sink = TinySink(100_000);
        let err = recv(
            std::slice::from_mut(&mut c),
            &mut sink,
            &AdocConfig::default(),
        )
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);

        // Same failure through the striped path.
        let mut sinks: Vec<Vec<u8>> = vec![Vec::new(); 3];
        let mut src = &data[..];
        send_message(
            &mut sinks,
            &mut src,
            data.len() as u64,
            None,
            &tx,
            &mut Vec::new(),
        )
        .unwrap();
        let mut cursors: Vec<Cursor<Vec<u8>>> = sinks.into_iter().map(Cursor::new).collect();
        let mut sink = TinySink(100_000);
        let err = recv(&mut cursors, &mut sink, &AdocConfig::default()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
    }
}
