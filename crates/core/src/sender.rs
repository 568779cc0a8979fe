//! The emission side of AdOC (paper Fig. 1): a compression thread feeding
//! the FIFO queue, an emission thread draining it onto the socket, plus
//! the §5 heuristics — direct path, 256 KB probe, fast-network bypass,
//! divergence and ratio guards.
//!
//! [`send_message`] runs that pipeline once per stream of the connection:
//! every stream has its **own** compression thread, emission queue,
//! [`LevelController`] and [`BandwidthMonitor`], and each compression
//! thread *claims* its next 200 KB buffer from the one shared message
//! source — so compression CPU and congestion windows scale with the
//! stream count, and a slow stream simply claims less. The controller,
//! the monitor and the codec are the stream's [`StreamState`], which the
//! connection keeps and lends to every message. One stream
//! carrying a fresh message is the paper's pipeline and its v1 wire
//! format; more streams (or a resumed tail) change only the frame
//! headers (`wire::Framing`): v2 headers name the stream and a global
//! sequence number, every stream ends the message with a FIN marker, and
//! the receiver reassembles by sequence number. All pipelines draw their
//! buffers from the one shared [`crate::BufferPool`] in the config.

use crate::adapt::{LevelController, LevelReason, RATIO_GUARD};
use crate::bw::BandwidthMonitor;
use crate::config::AdocConfig;
use crate::pool::PooledBuf;
use crate::queue::{Packet, PacketQueue};
use crate::session::ResumePoint;
use crate::stats::{StreamSendStats, TransferStats};
use crate::wire::{self, Chunk, FrameHeaderV2, Framing, MsgHead, MsgKind};
use adoc_codec::Codec;
use std::io::{self, Read, Write};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What one message send did (merged into [`TransferStats`]).
#[derive(Debug, Clone, Default)]
pub struct SendOutcome {
    /// Bytes put on the socket, headers included.
    pub wire_bytes: u64,
    /// Measured probe speed, if a probe ran.
    pub probe_bps: Option<f64>,
    /// True if the probe classified the link as too fast to compress.
    pub fast_path: bool,
    /// True if the message used the direct (no-thread) path.
    pub direct: bool,
    /// `(when, level, reason)` per compression buffer, in order.
    pub level_events: Vec<(Instant, u8, LevelReason)>,
    /// Divergence-guard reverts during this message.
    pub divergence_reverts: u64,
    /// Ratio-guard trips during this message.
    pub ratio_trips: u64,
    /// Raw bytes whose emission the [`BandwidthMonitor`]s observed during
    /// this message (summed over streams). For a forced-compression
    /// message (no probe, no fast path) this equals the message's raw
    /// length exactly — the invariant the divergence guard depends on.
    pub bw_raw_bytes: u64,
    /// Per-stream accounting for v2-framed (striped or resumed) sends;
    /// empty for single-stream v1 messages (stream 0 then carries
    /// everything).
    pub per_stream: Vec<StreamSendStats>,
    /// Visible bandwidth per level as the connection has learnt it by
    /// the end of this message, in raw bits/s (0.0 = level unobserved;
    /// striped sends sum the streams). Feeds [`TransferStats::level_bps`].
    pub level_bps: [f64; 11],
}

impl SendOutcome {
    /// Folds this outcome into cumulative connection stats.
    pub fn merge_into(&self, stats: &mut TransferStats, raw_len: u64) {
        stats.messages += 1;
        stats.raw_bytes += raw_len;
        stats.wire_bytes += self.wire_bytes;
        if self.direct {
            stats.direct_messages += 1;
        }
        if self.probe_bps.is_some() {
            stats.probes += 1;
        }
        if self.fast_path {
            stats.fast_path_hits += 1;
        }
        for &(t, level, reason) in &self.level_events {
            stats.record_buffer_reason(t, level, reason);
        }
        stats.divergence_reverts += self.divergence_reverts;
        stats.ratio_trips += self.ratio_trips;
        stats.merge_per_stream(&self.per_stream);
        stats.merge_level_bps(&self.level_bps);
    }
}

/// One stream's sending state, kept by the connection across messages:
/// the warm [`Codec`], the [`LevelController`] and [`BandwidthMonitor`]
/// the divergence guard learns in, and the primary's last probe rates.
pub struct StreamState {
    pub(crate) codec: Codec,
    ctrl: LevelController,
    bw: BandwidthMonitor,
    /// The last [`PROBE_WINDOW`] whole-probe rates in bits/s, oldest first.
    probes: Vec<f64>,
}

/// Probe rates the fast-path verdict is the median of.
const PROBE_WINDOW: usize = 3;

impl StreamState {
    /// Fresh state for a stream configured by `cfg`.
    pub(crate) fn new(cfg: &AdocConfig) -> Self {
        StreamState {
            codec: Codec::new(),
            ctrl: LevelController::new(cfg),
            bw: BandwidthMonitor::new(),
            probes: Vec::with_capacity(PROBE_WINDOW),
        }
    }

    /// Records this message's probe rate and returns the §5 "Fast
    /// Networks" verdict: the median of the recent rates (of two, the
    /// faster) beats `fast_bps`, i.e. at least half of them do. One
    /// stalled probe cannot flip it.
    fn judge_probe(&mut self, bps: f64, fast_bps: f64) -> bool {
        if self.probes.len() == PROBE_WINDOW {
            self.probes.remove(0);
        }
        self.probes.push(bps);
        let fast = self.probes.iter().filter(|&&rate| rate > fast_bps).count();
        2 * fast >= self.probes.len()
    }

    /// Lifetime raw bytes emitted, divergence reverts and ratio trips.
    fn totals(&self) -> [u64; 3] {
        let (c, raw) = (&self.ctrl, self.bw.total_raw_bytes());
        [raw, c.divergence_reverts, c.ratio_trips]
    }
}

/// Sends one message of `raw_len` bytes drawn from `source` over the
/// connection's streams (`writers[0]` is the primary: message header,
/// probe and direct bodies travel on it alone).
///
/// With `resume`, ships only the not-yet-delivered tail of a message
/// whose first `at.delivered_raw` bytes the receiver already holds:
/// `source` must be positioned there, no message header and no probe go
/// on the wire — both sides agreed on the resume point during the
/// session handshake — and frames are numbered from `at.next_seq` so the
/// receiver slots them behind the bytes it kept. The group's width may
/// differ from the interrupted connection's.
///
/// `streams` is the connection's per-stream state, grown here to one per
/// writer.
///
/// Blocking: returns once every byte has been handed to the writers.
pub fn send_message<W, S>(
    writers: &mut [W],
    source: &mut S,
    raw_len: u64,
    resume: Option<ResumePoint>,
    cfg: &AdocConfig,
    streams: &mut Vec<StreamState>,
) -> io::Result<SendOutcome>
where
    W: Write + Send,
    S: Read + Send,
{
    let supply = Supply::Reader(source);
    send(writers, supply, raw_len, resume, cfg, streams)
}

/// [`send_message`] of a body from `supply`.
pub(crate) fn send<W: Write + Send, S: Read + Send>(
    writers: &mut [W],
    mut supply: Supply<'_, S>,
    raw_len: u64,
    resume: Option<ResumePoint>,
    cfg: &AdocConfig,
    streams: &mut Vec<StreamState>,
) -> io::Result<SendOutcome> {
    assert!(!writers.is_empty(), "a connection needs at least 1 stream");
    assert!(writers.len() <= 255, "stream ids are u8");
    if streams.len() < writers.len() {
        streams.resize_with(writers.len(), || StreamState::new(cfg));
    }
    let mut out = SendOutcome::default();
    let (body_len, start_seq) = match resume {
        Some(at) => {
            let left = raw_len.checked_sub(at.delivered_raw).ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "resume point {} beyond message length {raw_len}",
                        at.delivered_raw
                    ),
                )
            })?;
            (left, at.next_seq)
        }
        None => {
            out.direct = cfg.compression_disabled()
                || (!cfg.compression_forced() && raw_len < cfg.probe_threshold as u64);
            let (w, st) = (&mut writers[0], &mut streams[0]);
            let run = write_head(w, &mut supply, raw_len, cfg, st, &mut out)?;
            if run == raw_len {
                // Nothing left to frame: the receiver stops after a direct
                // body or a whole-message probe, so no FINs are owed.
                return Ok(out);
            }
            (raw_len - run, 0)
        }
    };

    let frames = FrameSource {
        state: Mutex::new(SourceState {
            supply,
            next_seq: start_seq,
            left: body_len,
            error: None,
        }),
        framing: Framing::choose(writers.len(), resume.is_some()),
    };
    if out.fast_path {
        send_raw_frames(writers, &frames, cfg, &mut out)?;
    } else {
        run_pipelines(writers, &frames, streams, cfg, &mut out)?;
    }
    Ok(out)
}

/// Writes the message's head and the raw run behind it on the primary:
/// a direct body (§5 "Small messages": no threads, latency identical to
/// a plain write) or an adaptive message's probe (§5 "Fast Networks"),
/// timed, and judged by the primary's [`StreamState::judge_probe`] to set
/// `out.fast_path`. Returns the run's length. A direct body of a slice
/// leaves from it.
fn write_head<W: Write, S: Read>(
    writer: &mut W,
    supply: &mut Supply<'_, S>,
    raw_len: u64,
    cfg: &AdocConfig,
    primary: &mut StreamState,
    out: &mut SendOutcome,
) -> io::Result<u64> {
    let (kind, run, quantum) = if out.direct {
        (MsgKind::Direct, raw_len, cfg.buffer_size)
    } else if cfg.compression_forced() {
        (MsgKind::Adaptive, 0, cfg.packet_size)
    } else {
        let probe = (cfg.probe_size as u64).min(raw_len);
        (MsgKind::Adaptive, probe, cfg.packet_size)
    };
    // A direct head carries no probe length.
    let head = MsgHead::new(kind, raw_len, run as u32);
    writer.write_all(&head)?;
    out.wire_bytes += head.len() as u64 + run;
    let t0 = Instant::now();
    match supply {
        Supply::Slice(body) if out.direct => {
            for quantum in std::mem::take(body).chunks(quantum.max(1)) {
                cfg.throttle.acquire_wire(quantum.len());
                writer.write_all(quantum)?;
            }
        }
        Supply::Slice(rest) => wire::copy_raw(rest, writer, run, quantum, cfg, &mut 0)?,
        Supply::Reader(source) => wire::copy_raw(source, writer, run, quantum, cfg, &mut 0)?,
    }
    writer.flush()?;
    if run > 0 && !out.direct {
        let bps = run as f64 * 8.0 / t0.elapsed().as_secs_f64().max(1e-9);
        (out.probe_bps, out.fast_path) = (Some(bps), primary.judge_probe(bps, cfg.fast_bps));
    }
    Ok(run)
}

/// The message body as a shared supply of raw compression buffers: each
/// stream's compression thread claims the next one under the lock, so
/// frames are numbered in source order whichever stream carries them,
/// and every stream's sequence numbers only ever increase.
struct FrameSource<'a, S> {
    state: Mutex<SourceState<'a, S>>,
    /// How frames are headed; every buffer reserves the header in front.
    framing: Framing,
}

/// Where a message's body comes from.
pub(crate) enum Supply<'a, S> {
    /// A reader, staged into pooled frame buffers.
    Reader(&'a mut S),
    /// The caller's bytes, exactly as many as the body owes, lent to the
    /// frames: a fast-path frame goes out as its header then these bytes.
    Slice(&'a [u8]),
}

struct SourceState<'a, S> {
    supply: Supply<'a, S>,
    next_seq: u64,
    /// Body bytes not yet claimed; zeroed to end the supply early.
    left: u64,
    /// Why the supply ended early: a failed or short read, or a buffer
    /// size the wire cannot carry. Kept here rather than returned to the
    /// claimer because it ranks *below* socket and codec errors, which it
    /// may merely be a symptom of.
    error: Option<io::Error>,
}

impl<S> FrameSource<'_, S> {
    /// Ends the supply: every later claim returns `None`.
    fn stop(&self) {
        if let Ok(mut st) = self.state.lock() {
            st.left = 0;
        }
    }

    fn take_error(&self) -> Option<io::Error> {
        self.state.lock().ok()?.error.take()
    }
}

impl<'a, S: Read> FrameSource<'a, S> {
    /// The next `(seq, raw size, chunk)`, or `None` once the body is
    /// exhausted, the source failed, or a pipeline stopped the supply.
    /// A slice lends its next chunk. A reader's raw bytes are read straight
    /// into frame position — reserved header space first, payload appended
    /// behind it via `Take`, which fills spare capacity without a zeroing
    /// pass — so a level-0 buffer is already a complete frame with no copy.
    fn claim(&self, cfg: &AdocConfig) -> Option<(u64, usize, Chunk<'a>)> {
        // A poisoned lock means the source panicked under another
        // claimer, whose thread reports it.
        let mut st = self.state.lock().ok()?;
        if st.left == 0 {
            return None;
        }
        // Checked against the u32 wire limit before anything is read or
        // allocated for the frame.
        let want = (cfg.buffer_size as u64).min(st.left);
        let hdr = self.framing.header_len();
        let read = wire::frame_len(want).and_then(|_| match &mut st.supply {
            Supply::Slice(rest) => {
                let (chunk, tail) = rest.split_at(want as usize);
                *rest = tail;
                Ok(Chunk::Slice(chunk))
            }
            Supply::Reader(source) => {
                let mut buf = cfg.pool.get(hdr + want as usize);
                buf.resize(hdr, 0);
                match source.by_ref().take(want).read_to_end(&mut buf)? as u64 {
                    n if n == want => Ok(Chunk::Staged(buf)),
                    _ => Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "source ended before the promised message length",
                    )),
                }
            }
        });
        match read {
            Ok(buf) => {
                let seq = st.next_seq;
                (st.next_seq, st.left) = (seq + 1, st.left - want);
                Some((seq, want as usize, buf))
            }
            Err(e) => {
                (st.left, st.error) = (0, Some(e));
                None
            }
        }
    }
}

/// Fires [`FrameSource::stop`] on drop — held by every compression
/// thread so that one pipeline dying (codec error, dead socket, panic)
/// stops its siblings claiming the rest of the message.
struct StopOnDrop<'a, 'b, S>(&'a FrameSource<'b, S>);

impl<S> Drop for StopOnDrop<'_, '_, S> {
    fn drop(&mut self) {
        self.0.stop();
    }
}

/// §5 "Fast Networks": too fast to compress, so the rest goes out as raw
/// frames on the primary stream, inline (compression is not the
/// bottleneck, so neither threads nor striping buy anything). A frame of
/// the caller's bytes is its header then those bytes, staged nowhere; a
/// frame read from a source is assembled in a pooled buffer that is back
/// in the pool before the next claim, so a multi-buffer send touches the
/// allocator at most once. Streams that owe a FIN still send it so the
/// receiver's per-stream readers unblock.
fn send_raw_frames<W: Write, S: Read>(
    writers: &mut [W],
    frames: &FrameSource<'_, S>,
    cfg: &AdocConfig,
    out: &mut SendOutcome,
) -> io::Result<()> {
    let framing = frames.framing;
    let hdr = framing.header_len();
    let (mut sent, mut sent_bytes) = (0u64, 0u64);
    let mut head = [0; wire::FRAME_HEADER_V2_LEN];
    while let Some((seq, _, chunk)) = frames.claim(cfg) {
        let len = match chunk {
            Chunk::Slice(raw) => {
                // `claim` checked the length against the wire's limit.
                let (len, head) = (raw.len() as u32, &mut head[..hdr]);
                framing.put_head(head, FrameHeaderV2::data(0, 0, seq, len, len));
                cfg.throttle.acquire_wire(hdr + raw.len());
                writers[0].write_all(head)?;
                writers[0].write_all(raw)?;
                hdr + raw.len()
            }
            staged => {
                let frame = framing.seal(staged, None, &cfg.pool, 0, seq)?.0;
                cfg.throttle.acquire_wire(frame.len());
                writers[0].write_all(&frame)?;
                frame.len()
            }
        };
        sent += 1;
        sent_bytes += len as u64;
        out.level_events
            .push((Instant::now(), 0, LevelReason::default()));
    }
    if let Some(e) = frames.take_error() {
        return Err(e);
    }
    out.wire_bytes += sent_bytes;
    for (i, w) in writers.iter_mut().enumerate() {
        let (frames, frame_bytes) = if i == 0 { (sent, sent_bytes) } else { (0, 0) };
        if let Some(fin) = framing.fin(i as u8, frames) {
            w.write_all(&fin)?;
            out.wire_bytes += fin.len() as u64;
            out.per_stream.push(StreamSendStats {
                stream: i as u8,
                wire_bytes: fin.len() as u64 + frame_bytes,
                raw_bytes: frame_bytes - frames * hdr as u64,
                frames,
            });
        }
        w.flush()?;
    }
    Ok(())
}

/// The full adaptive machinery (Fig. 1), once per stream: compression
/// thread → FIFO queue → emission thread → writer `i`, all compression
/// threads claiming from the one `frames` supply, each stream's
/// controller and monitor lent from `streams`.
fn run_pipelines<W, S>(
    writers: &mut [W],
    frames: &FrameSource<'_, S>,
    streams: &mut [StreamState],
    cfg: &AdocConfig,
    out: &mut SendOutcome,
) -> io::Result<()>
where
    W: Write + Send,
    S: Read + Send,
{
    let n = writers.len();
    let streams = &mut streams[..n];
    let queues: Vec<PacketQueue> = (0..n).map(|_| PacketQueue::new(cfg.queue_cap)).collect();
    // Controllers and monitors outlive the message: its report is what
    // it added to their lifetime totals.
    let before: Vec<[u64; 3]> = streams.iter().map(StreamState::totals).collect();

    let (comp_res, emit_res): (Vec<_>, Vec<_>) = std::thread::scope(|s| {
        let handles: Vec<_> = writers
            .iter_mut()
            .zip(streams.iter_mut())
            .zip(&queues)
            .enumerate()
            .map(|(i, ((w, st), q))| {
                let (codec, ctrl, bw) = (&mut st.codec, &mut st.ctrl, &st.bw);
                (
                    s.spawn(move || compression_thread(i as u8, frames, q, bw, ctrl, codec, cfg)),
                    s.spawn(move || emission_thread(w, q, bw, &*cfg.throttle)),
                )
            })
            .collect();
        handles
            .into_iter()
            .map(|(comp, emit)| (comp.join(), emit.join()))
            .unzip()
    });

    // Error priority: emission (socket) errors first — they poison the
    // queue, which the compression thread merely observes as Closed —
    // then compression, then the source. A panicking thread has already
    // released its peers through the queue and supply guards; it
    // surfaces as an error instead of aborting the caller.
    let mut stream_wire = vec![0u64; n];
    let mut first_err: Option<io::Error> = None;
    for (i, res) in emit_res.into_iter().enumerate() {
        match res.map_err(|_| io::Error::other("emission thread panicked")) {
            Ok(Ok(bytes)) => stream_wire[i] = bytes,
            Ok(Err(e)) | Err(e) => first_err = first_err.or(Some(e)),
        }
    }
    let mut comps = Vec::with_capacity(n);
    for res in comp_res {
        match res.map_err(|_| io::Error::other("compression thread panicked")) {
            Ok(Ok(c)) => comps.push(c),
            Ok(Err(e)) | Err(e) => first_err = first_err.or(Some(e)),
        }
    }
    if let Some(e) = first_err.or_else(|| frames.take_error()) {
        return Err(e);
    }
    for w in writers.iter_mut() {
        w.flush()?;
    }

    for (level, bps) in (0u8..).zip(&mut out.level_bps) {
        let monitors = streams.iter().map(|st| &st.bw);
        *bps = BandwidthMonitor::aggregate_visible(monitors, level).unwrap_or(0.0);
    }
    for (i, comp) in comps.into_iter().enumerate() {
        let now = streams[i].totals();
        let [raw, reverts, trips] = [0, 1, 2].map(|k| now[k] - before[i][k]);
        out.bw_raw_bytes += raw;
        out.divergence_reverts += reverts;
        out.ratio_trips += trips;
        out.wire_bytes += stream_wire[i];
        out.level_events.extend(comp.level_events);
        if frames.framing.owes_fin() {
            out.per_stream.push(StreamSendStats {
                stream: i as u8,
                wire_bytes: stream_wire[i],
                raw_bytes: raw,
                frames: comp.frames,
            });
        }
    }
    // Interleaved pipelines report out of order; the connection timeline
    // must stay chronological.
    out.level_events.sort_by_key(|&(t, _, _)| t);
    Ok(())
}

/// Per-message results a compression thread reports back.
#[derive(Default)]
struct CompOutcome {
    level_events: Vec<(Instant, u8, LevelReason)>,
    /// Data frames fully handed to the emission queue.
    frames: u64,
}

/// §5 "Compressed and random data", early abort: while the stream looks
/// incompressible, a prefix of `raw` is tested before a full buffer is
/// compressed, and `level` drops to 0 if it fails.
fn prescreen(
    level: &mut u8,
    raw: &[u8],
    ctrl: &mut LevelController,
    codec: &mut Codec,
    cfg: &AdocConfig,
) {
    if *level == 0 || !ctrl.is_suspicious() {
        return;
    }
    let check = &raw[..(4 * cfg.packet_size).min(raw.len())];
    let t0 = Instant::now();
    let mut probe = cfg.pool.get(check.len() + 64);
    codec.compress_at(*level, check, &mut probe);
    cfg.throttle.charge(t0.elapsed());
    let ratio = check.len() as f64 / probe.len() as f64;
    ctrl.report_ratio(ratio, cfg);
    if ratio < RATIO_GUARD {
        *level = 0; // still incompressible: ship the buffer raw
    }
}

/// Splits a wire-ready frame into shared `(offset, len)` packet views and
/// pushes them — no per-packet copy; the buffer returns to the pool when
/// the emission thread drops the last view. Returns the packets pushed,
/// or `Err(())` when the consumer went away.
fn push_frame_packets(
    queue: &PacketQueue,
    frame: PooledBuf,
    want: usize,
    level: u8,
    packet_size: usize,
) -> Result<u32, ()> {
    let total = frame.len();
    let frame = Arc::new(frame);
    let mut pushed = 0u32;
    let mut offset = 0usize;
    while offset < total {
        let end = (offset + packet_size).min(total);
        let share = raw_share(want, offset, end, total);
        let pkt = Packet::view(Arc::clone(&frame), offset, end - offset, level, share);
        if queue.push(pkt).is_err() {
            return Err(());
        }
        pushed += 1;
        offset = end;
    }
    Ok(pushed)
}

/// One stream's compression thread (Fig. 1): claims raw buffers, picks
/// each one's level from its own queue and monitor, and feeds the
/// wire-ready frame to its emission thread as packets.
fn compression_thread<S: Read>(
    stream_id: u8,
    frames: &FrameSource<'_, S>,
    queue: &PacketQueue,
    bw: &BandwidthMonitor,
    ctrl: &mut LevelController,
    codec: &mut Codec,
    cfg: &AdocConfig,
) -> io::Result<CompOutcome> {
    // Every exit — success, error, panic — ends the stream for the
    // emission thread (without this a dying producer strands the consumer
    // in `pop` forever) and the supply for the sibling pipelines.
    let _close = queue.close_on_drop();
    let _stop = StopOnDrop(frames);
    ctrl.begin_message();
    let mut out = CompOutcome::default();
    let framing = frames.framing;
    let hdr = framing.header_len();

    while let Some((seq, want, chunk)) = frames.claim(cfg) {
        // §3.2: the level is updated before each new buffer.
        let mut level = ctrl.next_level_with(queue.len(), bw, Instant::now(), cfg);
        let t0 = Instant::now();
        let raw = match &chunk {
            Chunk::Slice(raw) => raw,
            Chunk::Staged(buf) => &buf[hdr..],
        };
        prescreen(&mut level, raw, ctrl, codec, cfg);
        let sealing = Instant::now();
        let codec_at = Some((&mut *codec, level));
        let (frame, level, ratio) = framing.seal(chunk, codec_at, &cfg.pool, stream_id, seq)?;
        if let Some(ratio) = ratio {
            cfg.throttle.charge(sealing.elapsed());
            ctrl.report_ratio(ratio, cfg);
        }
        let encoded = Instant::now();
        // The level's compression side: the whole encode, CPU model
        // included. A buffer the ratio guard sent raw charges no level.
        if level > 0 {
            bw.record_compression(level, want as u64, encoded - t0);
        }
        out.level_events.push((encoded, level, ctrl.last_reason()));
        match push_frame_packets(queue, frame, want, level, cfg.packet_size) {
            Ok(pushed) => ctrl.packets_pushed(pushed),
            // Consumer failed; its error is authoritative.
            Err(()) => return Ok(out),
        }
        out.frames += 1;
    }

    // End of message on this stream: the FIN marker records how many data
    // frames the receiver must have seen.
    if let Some(fin) = framing.fin(stream_id, out.frames) {
        let mut fbuf = cfg.pool.get(fin.len());
        fbuf.extend_from_slice(&fin);
        let len = fbuf.len();
        let _ = queue.push(Packet::view(Arc::new(fbuf), 0, len, 0, 0));
    }
    Ok(out)
}

/// Raw-size share of the packet covering `offset..end` of a `total`-byte
/// frame that carries `want` raw bytes.
///
/// Cumulative proportional rounding: each packet gets the difference of
/// two running floor divisions, so per-frame shares always sum to exactly
/// `want` — the last packet absorbs the remainder that plain
/// `want * len / total` truncation used to drop, which systematically
/// understated the visible bandwidth the divergence guard compares.
fn raw_share(want: usize, offset: usize, end: usize, total: usize) -> u32 {
    let w = want as u64;
    let t = total as u64;
    (w * end as u64 / t - w * offset as u64 / t) as u32
}

fn emission_thread<W: Write>(
    writer: &mut W,
    queue: &PacketQueue,
    bw: &BandwidthMonitor,
    throttle: &dyn crate::throttle::Throttle,
) -> io::Result<u64> {
    // Any exit — socket error, panic — must unblock a producer waiting
    // for queue space; poisoning after a clean drain is a no-op for the
    // already-finished producer.
    let _poison = queue.poison_on_drop();
    let mut wire_bytes = 0u64;
    while let Some(pkt) = queue.pop() {
        // Admission is timed *inside* the bandwidth window on purpose: a
        // scheduler-paced connection must see its share as its visible
        // bandwidth, so the level adapts to the share like it would to a
        // congested link.
        let t0 = Instant::now();
        throttle.acquire_wire(pkt.len());
        writer.write_all(pkt.bytes())?;
        if pkt.raw_share > 0 {
            bw.record(pkt.level, u64::from(pkt.raw_share), t0.elapsed());
        }
        wire_bytes += pkt.len() as u64;
    }
    Ok(wire_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapt::FORBID_DURATION;
    use crate::error::AdocError;
    use crate::receiver::tests::Room;
    use crate::wire::tests::{feed, Seen};
    use crate::wire::{decode_msg_header, Event, FrameDecoder};

    fn send_to_vec(data: &[u8], cfg: &AdocConfig) -> (Vec<u8>, SendOutcome) {
        let mut wire = Vec::new();
        let mut src = data;
        let out = send_message(
            std::slice::from_mut(&mut wire),
            &mut src,
            data.len() as u64,
            None,
            cfg,
            &mut Vec::new(),
        )
        .unwrap();
        (wire, out)
    }

    #[test]
    fn small_message_takes_direct_path() {
        let cfg = AdocConfig::default();
        let data = vec![1u8; 100_000]; // < 512 KB
        let (wire, out) = send_to_vec(&data, &cfg);
        assert!(out.direct);
        assert!(out.probe_bps.is_none());
        assert_eq!(wire.len(), wire::MSG_HEADER_LEN + data.len());
        let (kind, len) = decode_msg_header(wire[..10].try_into().unwrap()).unwrap();
        assert_eq!(kind, MsgKind::Direct);
        assert_eq!(len, data.len() as u64);
    }

    #[test]
    fn large_message_probes_and_fast_path_on_instant_sink() {
        // A Vec sink is infinitely fast: the probe must measure a huge
        // speed and disable compression (the paper's Gbit behaviour).
        let cfg = AdocConfig::default();
        let data = vec![7u8; 1 << 20];
        let (wire, out) = send_to_vec(&data, &cfg);
        assert!(!out.direct);
        assert!(out.probe_bps.expect("probe ran") > cfg.fast_bps);
        assert!(out.fast_path);
        // Wire = header + probe_len field + probe + raw frames: no
        // compression means wire ≥ raw.
        assert!(wire.len() as u64 >= data.len() as u64);
    }

    #[test]
    fn forced_compression_skips_probe_and_compresses() {
        let cfg = AdocConfig::default().with_levels(1, 10);
        let data = b"compress me please ".repeat(60_000); // ~1.1 MB
        let (wire, out) = send_to_vec(&data, &cfg);
        assert!(out.probe_bps.is_none());
        assert!(!out.fast_path);
        assert!(
            wire.len() < data.len(),
            "forced compression must shrink text"
        );
        assert!(buffers_at(&out, 1..=10) > 0);
    }

    #[test]
    fn forced_compression_of_zero_bytes_works() {
        // Table 2's "AdOC with forced compression" row does 0-byte
        // ping-pongs through the full machinery.
        let cfg = AdocConfig::default().with_levels(1, 10);
        let (wire, out) = send_to_vec(b"", &cfg);
        assert!(!out.direct);
        assert_eq!(out.wire_bytes, wire.len() as u64);
        let (kind, len) = decode_msg_header(wire[..10].try_into().unwrap()).unwrap();
        assert_eq!(kind, MsgKind::Adaptive);
        assert_eq!(len, 0);
    }

    #[test]
    fn disabled_compression_is_direct_even_when_large() {
        let cfg = AdocConfig::default().with_levels(0, 0);
        let data = vec![3u8; 2 << 20];
        let (wire, out) = send_to_vec(&data, &cfg);
        assert!(out.direct);
        assert_eq!(wire.len(), wire::MSG_HEADER_LEN + data.len());
    }

    #[test]
    fn short_source_is_an_error() {
        let cfg = AdocConfig::default();
        let mut wire = Vec::new();
        let mut src: &[u8] = b"only ten b";
        let err = send_message(
            std::slice::from_mut(&mut wire),
            &mut src,
            100,
            None,
            &cfg,
            &mut Vec::new(),
        )
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn oversized_frame_is_a_typed_error_not_a_truncation() {
        // A 5 GiB buffer_size would truncate `raw_len as u32` on the
        // wire; the sender must refuse with FrameTooLarge *before*
        // reading or allocating anything frame-sized.
        struct EndlessZeros;
        impl Read for EndlessZeros {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                buf.fill(0);
                Ok(buf.len())
            }
        }
        let mut cfg = AdocConfig::default().with_levels(1, 10); // no probe
        cfg.buffer_size = 5 << 30;
        cfg.packet_size = 8 << 10;
        let raw_len = 5u64 << 30;
        let mut wire = Vec::new();
        let err = send_message(
            std::slice::from_mut(&mut wire),
            &mut EndlessZeros,
            raw_len,
            None,
            &cfg,
            &mut Vec::new(),
        )
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        match AdocError::from_io(&err) {
            Some(AdocError::FrameTooLarge { len }) => assert_eq!(*len, raw_len),
            other => panic!("expected FrameTooLarge, got {other:?} ({err})"),
        }
        // Nothing frame-sized was buffered before the refusal.
        assert!(wire.len() < 64, "wire got {} bytes", wire.len());
    }

    #[test]
    fn emission_failure_surfaces_as_error() {
        struct FailAfter {
            n: usize,
        }
        impl Write for FailAfter {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.n < buf.len() {
                    return Err(io::Error::new(io::ErrorKind::ConnectionReset, "peer gone"));
                }
                self.n -= buf.len();
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let cfg = AdocConfig::default().with_levels(1, 10); // skip probe

        // Incompressible payload so the wire size exceeds the allowance.
        let data = noise(4 << 20);
        let mut sink = FailAfter { n: 300_000 };
        let mut src = &data[..];
        let err = send_message(
            std::slice::from_mut(&mut sink),
            &mut src,
            data.len() as u64,
            None,
            &cfg,
            &mut Vec::new(),
        )
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
    }

    #[test]
    fn panicking_throttle_does_not_hang_the_send() {
        // Regression for the shutdown path: a panic inside the
        // compression thread used to leave the emission thread blocked in
        // `pop` forever (thread::scope then never unwinds). The queue
        // guards must close the stream and the send must return an error.
        struct PanicThrottle;
        impl crate::throttle::Throttle for PanicThrottle {
            fn charge(&self, _elapsed: std::time::Duration) {
                panic!("simulated codec-thread death");
            }
        }
        let cfg = AdocConfig::default()
            .with_levels(1, 10)
            .with_throttle(std::sync::Arc::new(PanicThrottle));
        let data = b"compressible text ".repeat(60_000);

        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut wire = Vec::new();
            let mut src = &data[..];
            let res = send_message(
                std::slice::from_mut(&mut wire),
                &mut src,
                data.len() as u64,
                None,
                &cfg,
                &mut Vec::new(),
            );
            let _ = done_tx.send(res.is_err());
        });
        match done_rx.recv_timeout(std::time::Duration::from_secs(10)) {
            Ok(errored) => assert!(errored, "a panicked pipeline must report an error"),
            Err(_) => panic!("send_message deadlocked after a compression-thread panic"),
        }
    }

    #[test]
    fn raw_shares_sum_exactly_to_frame_raw_size() {
        // The old `want * chunk / total` truncation dropped up to one
        // byte per packet; cumulative rounding must never lose any.
        for (want, total, packet) in [
            (204_800usize, 204_809usize, 8_192usize), // raw frame, header remainder
            (204_800, 31_337, 8_192),                 // compressed frame
            (204_800, 204_809, 8_191),                // packet not dividing total
            (1, 10, 8_192),                           // tiny frame, single packet
            (65_536, 9 + 65_536, 7),                  // pathological small packets
            (3, 12, 5),
        ] {
            let mut sum = 0u64;
            let mut offset = 0usize;
            while offset < total {
                let end = (offset + packet).min(total);
                sum += u64::from(raw_share(want, offset, end, total));
                offset = end;
            }
            assert_eq!(
                sum, want as u64,
                "shares must sum to want for ({want}, {total}, {packet})"
            );
        }
    }

    #[test]
    fn bandwidth_monitor_total_matches_stats_raw_bytes() {
        // Forced compression: no probe, no fast path — every raw byte of
        // the message flows through the queue, so the monitor's total
        // must reconcile exactly with TransferStats.
        let cfg = AdocConfig::default().with_levels(1, 10);
        let data = adoc_data_stub(1_500_000);
        let (_wire, out) = send_to_vec(&data, &cfg);
        let mut stats = TransferStats::new();
        out.merge_into(&mut stats, data.len() as u64);
        assert_eq!(out.bw_raw_bytes, data.len() as u64);
        assert_eq!(out.bw_raw_bytes, stats.raw_bytes);
    }

    #[test]
    fn consecutive_messages_report_their_own_guard_counters() {
        // A link slow enough that a buffer's 25 packets are still queued
        // when the next buffer is chosen: Fig. 2 climbs from 1 to 3 on
        // the growing queue, so every message trips the ratio guard on
        // incompressible data, and the stream's controller and monitor
        // carry over from one message to the next.
        struct SlowLink;
        impl crate::throttle::Throttle for SlowLink {
            fn charge(&self, _elapsed: std::time::Duration) {}
            fn acquire_wire(&self, _bytes: usize) {
                std::thread::sleep(std::time::Duration::from_millis(3));
            }
        }
        let cfg = AdocConfig::default()
            .with_levels(1, 10)
            .with_throttle(Arc::new(SlowLink));
        let data = noise(600_000);
        let (mut streams, mut wire) = (Vec::new(), Vec::new());
        let mut stats = TransferStats::new();
        let (mut reverts, mut trips) = (0, 0);
        for _ in 0..2 {
            let out = send_message(
                std::slice::from_mut(&mut wire),
                &mut &data[..],
                data.len() as u64,
                None,
                &cfg,
                &mut streams,
            )
            .unwrap();
            assert_eq!(out.bw_raw_bytes, data.len() as u64, "this message's bytes");
            assert!(out.ratio_trips > 0, "every message trips the guard");
            out.merge_into(&mut stats, data.len() as u64);
            reverts += out.divergence_reverts;
            trips += out.ratio_trips;
        }
        assert_eq!(
            (stats.divergence_reverts, stats.ratio_trips),
            (reverts, trips)
        );
        let ctrl = &streams[0].ctrl;
        assert_eq!(
            (ctrl.divergence_reverts, ctrl.ratio_trips),
            (reverts, trips)
        );
        assert_eq!(streams[0].bw.total_raw_bytes(), 2 * data.len() as u64);
    }

    #[test]
    fn a_forbid_learnt_in_one_message_holds_in_the_next() {
        // Level 3's wire side moves 80 Mbit/s of raw data but its
        // compressor only 8; level 1 delivers 40 end to end.
        let cfg = AdocConfig::default().with_levels(1, 10);
        let mut st = StreamState::new(&cfg);
        let tenth = std::time::Duration::from_millis(100);
        st.bw.record(1, 500_000, tenth);
        st.bw.record_compression(1, 10_000_000, tenth);
        st.bw.record(3, 1_000_000, tenth);
        st.bw.record_compression(3, 100_000, tenth);
        // Each message starts on an empty queue that then grows: Fig. 2
        // climbs from level 1 by two.
        let first_climb = |st: &mut StreamState, at: Instant| -> Vec<u8> {
            st.ctrl.begin_message();
            [0, 25]
                .map(|queue| st.ctrl.next_level_with(queue, &st.bw, at, &cfg))
                .to_vec()
        };
        let t0 = Instant::now();
        assert_eq!(
            first_climb(&mut st, t0),
            [1, 1],
            "message 1: the guard vetoes 3"
        );
        assert_eq!(
            first_climb(&mut st, t0 + FORBID_DURATION / 2),
            [1, 2],
            "message 2 skips the level message 1 forbade"
        );
        assert_eq!(
            first_climb(&mut st, t0 + FORBID_DURATION),
            [1, 3],
            "once the forbid lapses the level is eligible again"
        );
    }

    #[test]
    fn striped_send_accounts_every_stream() {
        // 4 sinks, forced compression: the per-stream frame counts and
        // raw bytes must sum to the message (which stream claimed which
        // frame is a race the accounting must not depend on).
        let cfg = AdocConfig::default().with_levels(1, 10);
        let data = adoc_data_stub(2 << 20); // 11 buffers at 200 KB
        let mut sinks: Vec<Vec<u8>> = vec![Vec::new(); 4];
        let mut src = &data[..];
        let out = send_message(
            &mut sinks,
            &mut src,
            data.len() as u64,
            None,
            &cfg,
            &mut Vec::new(),
        )
        .unwrap();
        assert_eq!(out.per_stream.len(), 4);
        let frames: u64 = out.per_stream.iter().map(|s| s.frames).sum();
        assert_eq!(frames, data.len().div_ceil(cfg.buffer_size) as u64);
        let raw: u64 = out.per_stream.iter().map(|s| s.raw_bytes).sum();
        assert_eq!(raw, data.len() as u64);
        assert_eq!(out.bw_raw_bytes, data.len() as u64);
        let wire_sum: u64 = out.per_stream.iter().map(|s| s.wire_bytes).sum();
        // Header + probe-length field live on stream 0 but are counted
        // message-wide.
        assert_eq!(out.wire_bytes, wire_sum + wire::MSG_HEADER_LEN as u64 + 4);
        assert_eq!(cfg.pool.stats().outstanding, 0, "leaked pooled buffers");
    }

    #[test]
    fn striped_fast_path_populates_per_stream() {
        // Vec sinks → instant probe → fast path on the primary stream;
        // accounting must still cover every stream (FIN-only secondaries).
        let cfg = AdocConfig::default();
        let data = vec![7u8; 2 << 20];
        let mut sinks: Vec<Vec<u8>> = vec![Vec::new(); 3];
        let mut src = &data[..];
        let out = send_message(
            &mut sinks,
            &mut src,
            data.len() as u64,
            None,
            &cfg,
            &mut Vec::new(),
        )
        .unwrap();
        assert!(out.fast_path);
        assert_eq!(out.per_stream.len(), 3);
        let probe = cfg.probe_size as u64;
        assert_eq!(out.per_stream[0].raw_bytes, data.len() as u64 - probe);
        assert_eq!(out.per_stream[1].frames, 0);
        assert_eq!(out.per_stream[2].frames, 0);
        let wire_sum: u64 = out.per_stream.iter().map(|s| s.wire_bytes).sum();
        assert_eq!(
            out.wire_bytes,
            wire_sum + wire::MSG_HEADER_LEN as u64 + 4 + probe,
            "per-stream wire bytes + message-wide header/probe must reconcile"
        );
        for (i, s) in out.per_stream.iter().enumerate() {
            assert_eq!(
                s.wire_bytes,
                sinks[i].len() as u64
                    - if i == 0 {
                        wire::MSG_HEADER_LEN as u64 + 4 + probe
                    } else {
                        0
                    }
            );
        }
    }

    #[test]
    fn striped_send_with_one_stream_is_v1_byte_identical() {
        // One stream is the same pipeline as any other width, so "stays
        // v1" is checked against the format itself: the capture must walk
        // as message header, probe length, then bare 9-byte frame headers
        // whose raw sizes add up to the message — ending on the byte
        // count, with no stream ids, sequence numbers or FIN anywhere.
        // (Byte-exact goldens live in tests/fixtures.)
        let data = adoc_data_stub(1 << 20);
        let (v1, out) = send_to_vec(&data, &AdocConfig::default().with_levels(4, 4));
        assert!(out.per_stream.is_empty(), "v1 reports no per-stream stats");
        let mut dec = FrameDecoder::message(&AdocConfig::default(), 1);
        let (seen, verdict) = feed(&mut dec, [&v1[..]]);
        assert_eq!(verdict.unwrap(), v1.len(), "nothing after v1");
        let len = data.len() as u64;
        let head = [Event::Message {
            kind: MsgKind::Adaptive,
            raw_len: len,
        }];
        assert_eq!(seen[..1], head.map(Seen::Event));
        assert_eq!(seen[1], Seen::Event(Event::Probe(0)), "forced: no probe");
        let mut raw = 0u64;
        for s in &seen {
            if let Seen::Event(Event::Frame(fh)) = s {
                assert_eq!(fh.level, 4);
                raw += u64::from(fh.raw_len);
            }
        }
        assert_eq!(raw, len);
        assert_eq!(seen.last(), Some(&Seen::Event(Event::MessageEnd)));
    }

    #[test]
    fn steady_state_send_hits_the_pool() {
        // First message warms the pool; the second must perform zero
        // allocations (every checkout is a hit) and no buffer may remain
        // outstanding once both sends complete.
        let cfg = AdocConfig::default().with_levels(1, 10);
        let data = adoc_data_stub(2 << 20);
        let (_w, _o) = send_to_vec(&data, &cfg);
        let after_first = cfg.pool.stats();
        assert_eq!(after_first.outstanding, 0, "buffers leaked from send");
        let (_w, _o) = send_to_vec(&data, &cfg);
        let after_second = cfg.pool.stats();
        // Zero new allocations in the common schedule; tolerate at most
        // two if the second send happens to keep more frames in flight
        // at once than the first ever did (the bound is the concurrent
        // buffer population, never the packet or frame count).
        assert!(
            after_second.misses <= after_first.misses + 2,
            "steady-state send allocated: {} -> {} misses",
            after_first.misses,
            after_second.misses
        );
        assert!(after_second.hits > after_first.hits);
        assert_eq!(after_second.outstanding, 0);
    }

    #[test]
    fn fast_path_reuses_one_pooled_buffer() {
        // Vec sink → probe classifies the link fast → raw frames. A frame
        // read from a source cycles one pooled buffer, not the allocator.
        let cfg = AdocConfig::default();
        let data = vec![7u8; 4 << 20]; // ~19 fast-path frames
        let (staged, out) = send_to_vec(&data, &cfg);
        assert!(out.fast_path);
        let s = cfg.pool.stats();
        assert_eq!(s.outstanding, 0);
        assert!(
            s.misses <= 2,
            "fast path allocated {} buffers for {} frames",
            s.misses,
            buffers_at(&out, 0..=0)
        );
        assert!(buffers_at(&out, 0..=0) >= 15);
        // A frame of the caller's own bytes takes no buffer at all: the
        // probe's copy buffer is the message's one checkout, and the wire
        // bytes are the staged frames' byte for byte.
        let cfg = AdocConfig::default();
        let mut wire = Vec::new();
        let len = data.len() as u64;
        let one = std::slice::from_mut(&mut wire);
        let slice = Supply::<&[u8]>::Slice(&data);
        let out = send(one, slice, len, None, &cfg, &mut Vec::new()).unwrap();
        assert!(out.fast_path);
        assert!(wire == staged, "a slice's frames differ from a reader's");
        let s = cfg.pool.stats();
        assert_eq!((s.hits + s.misses, s.outstanding), (1, 0), "{s:?}");
    }

    #[test]
    fn one_stalled_probe_cannot_flip_the_fast_path() {
        let cfg = AdocConfig::default();
        let fast = cfg.fast_bps;
        let judge = |st: &mut StreamState, rates: &[f64]| -> Vec<bool> {
            rates
                .iter()
                .map(|&r| st.judge_probe(r * fast, fast))
                .collect()
        };
        // The first probe of a connection decides alone.
        assert_eq!(judge(&mut StreamState::new(&cfg), &[0.5]), [false]);
        assert_eq!(judge(&mut StreamState::new(&cfg), &[2.0]), [true]);
        // Fast, fast, stalled: the stall leaves the link fast.
        let mut st = StreamState::new(&cfg);
        assert_eq!(judge(&mut st, &[10.0, 10.0, 0.01]), [true; 3]);
        // A sustained drop resumes compression on its second message.
        let mut st = StreamState::new(&cfg);
        assert_eq!(judge(&mut st, &[10.0, 10.0, 10.0]), [true; 3]);
        assert_eq!(judge(&mut st, &[0.1, 0.1, 0.1]), [true, false, false]);
        // And a recovered link sends raw again on its second.
        assert_eq!(judge(&mut st, &[10.0, 10.0]), [false, true]);
    }

    #[test]
    fn every_payload_byte_passes_wire_admission() {
        // The fair-share scheduler's contract: everything except the
        // fixed message header (and the probe-length field) flows
        // through Throttle::acquire_wire. A recording throttle must see
        // exactly wire_bytes minus those fixed fields.
        use std::sync::atomic::{AtomicU64, Ordering};
        #[derive(Default)]
        struct Recorder(AtomicU64);
        impl crate::throttle::Throttle for Recorder {
            fn charge(&self, _e: std::time::Duration) {}
            fn acquire_wire(&self, bytes: usize) {
                self.0.fetch_add(bytes as u64, Ordering::Relaxed);
            }
        }
        // Direct path: admission covers wire minus the 10-byte header.
        let rec = std::sync::Arc::new(Recorder::default());
        let cfg = AdocConfig::default().with_throttle(rec.clone());
        let data = adoc_data_stub(100_000);
        let (_wire, out) = send_to_vec(&data, &cfg);
        assert!(out.direct);
        assert_eq!(
            rec.0.load(Ordering::Relaxed),
            out.wire_bytes - wire::MSG_HEADER_LEN as u64
        );
        // Adaptive forced path: every emitted packet is admitted.
        let rec = std::sync::Arc::new(Recorder::default());
        let cfg = AdocConfig::default()
            .with_levels(1, 10)
            .with_throttle(rec.clone());
        let data = adoc_data_stub(1_200_000);
        let (_wire, out) = send_to_vec(&data, &cfg);
        assert!(!out.direct && !out.fast_path);
        assert_eq!(
            rec.0.load(Ordering::Relaxed),
            out.wire_bytes - wire::MSG_HEADER_LEN as u64 - 4
        );
        // Received into a window, a direct body, and a probe and its
        // stored frames, are admitted byte for byte as they land.
        for (len, direct) in [(100_000, true), (2 << 20, false)] {
            let data = adoc_data_stub(len);
            let (wire, out) = send_to_vec(&data, &AdocConfig::default());
            assert_eq!(out.direct, direct);
            let rec = std::sync::Arc::new(Recorder::default());
            let cfg = AdocConfig::default().with_throttle(rec.clone());
            let mut room = Room::new(len);
            let mut progress = crate::receiver::RecvProgress::default();
            let got = crate::receiver::receive(
                &mut [&wire[..]],
                &mut room,
                &cfg,
                &mut progress,
                None,
                &mut Codec::new(),
            );
            assert_eq!(got.unwrap(), Some(len as u64));
            assert!(room.buf == data && room.filled == len);
            assert_eq!(rec.0.load(Ordering::Relaxed), len as u64);
            assert_eq!(cfg.pool.stats().hits + cfg.pool.stats().misses, 0);
        }
    }

    #[test]
    fn adaptive_send_snapshots_per_level_bandwidth() {
        // A paced sink: an instant Vec sink can finish so fast (release
        // builds) that no level accumulates the monitor's minimum
        // observation time, making the snapshot legitimately empty.
        struct PacedSink(Vec<u8>);
        impl Write for PacedSink {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                std::thread::sleep(std::time::Duration::from_micros(20));
                self.0.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let cfg = AdocConfig::default().with_levels(1, 10);
        let data = adoc_data_stub(2 << 20);
        let mut sink = PacedSink(Vec::new());
        let mut src = &data[..];
        let out = send_message(
            std::slice::from_mut(&mut sink),
            &mut src,
            data.len() as u64,
            None,
            &cfg,
            &mut Vec::new(),
        )
        .unwrap();
        let observed: Vec<u8> = (0..11u8)
            .filter(|&l| out.level_bps[l as usize] > 0.0)
            .collect();
        assert!(
            !observed.is_empty(),
            "an adaptive message must observe at least one level's bandwidth"
        );
        for &l in &observed {
            assert!(
                buffers_at(&out, l..=l) > 0,
                "level {l} reported without traffic"
            );
        }
        let mut stats = TransferStats::new();
        out.merge_into(&mut stats, data.len() as u64);
        for l in 0..11 {
            assert_eq!(stats.level_bps[l], out.level_bps[l]);
        }
    }

    #[test]
    fn wire_byte_accounting_is_exact() {
        for cfg in [
            AdocConfig::default(),
            AdocConfig::default().with_levels(1, 10),
            AdocConfig::default().with_levels(0, 0),
        ] {
            let data = adoc_data_stub(700_000);
            let (wire, out) = send_to_vec(&data, &cfg);
            assert_eq!(out.wire_bytes, wire.len() as u64, "cfg {cfg:?}");
        }
    }

    #[test]
    fn striped_wire_byte_accounting_is_exact() {
        for streams in [2usize, 3, 4] {
            let cfg = AdocConfig::default().with_levels(1, 10);
            let data = adoc_data_stub(1_300_000);
            let mut sinks: Vec<Vec<u8>> = vec![Vec::new(); streams];
            let mut src = &data[..];
            let out = send_message(
                &mut sinks,
                &mut src,
                data.len() as u64,
                None,
                &cfg,
                &mut Vec::new(),
            )
            .unwrap();
            let on_wire: u64 = sinks.iter().map(|s| s.len() as u64).sum();
            assert_eq!(out.wire_bytes, on_wire, "streams = {streams}");
        }
    }

    /// Buffers the message encoded at a level in `levels`.
    fn buffers_at(out: &SendOutcome, levels: std::ops::RangeInclusive<u8>) -> usize {
        out.level_events
            .iter()
            .filter(|e| levels.contains(&e.1))
            .count()
    }

    /// Incompressible deterministic payload.
    fn noise(n: usize) -> Vec<u8> {
        let mut x = 1u64;
        (0..n)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 40) as u8
            })
            .collect()
    }

    /// Mildly compressible deterministic payload without pulling in
    /// adoc-data (dev-dependency cycle avoidance in unit tests).
    fn adoc_data_stub(n: usize) -> Vec<u8> {
        let mut v = Vec::with_capacity(n);
        let mut x = 7u64;
        while v.len() < n {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if x.is_multiple_of(3) {
                v.extend_from_slice(b"repetitive segment ");
            } else {
                v.extend_from_slice(&x.to_le_bytes());
            }
        }
        v.truncate(n);
        v
    }
}
