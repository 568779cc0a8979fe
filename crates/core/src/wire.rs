//! AdOC wire protocol (little-endian throughout).
//!
//! # v1 — single stream (`streams == 1`, the paper's format)
//!
//! ```text
//! Message      := MsgHeader Body
//! MsgHeader    := magic:u8 = 0xAD   kind:u8   raw_len:u64
//! Direct body  := raw bytes [raw_len]
//! Adaptive body:= probe_len:u32  probe-bytes[probe_len]  Frame*
//!                 (probe_len + Σ frame.raw_len == raw_len)
//! Frame        := level:u8  raw_len:u32  payload_len:u32  payload
//! ```
//!
//! `Direct` carries small messages (< 512 KB) and messages sent with
//! compression disabled; `Adaptive` carries the probe prefix plus one
//! frame per 200 KB compression buffer.
//!
//! # v2 — striped stream groups (`streams >= 2`)
//!
//! One logical connection fans out over `N` parallel streams. Stream 0 is
//! the **primary**: message headers, probes and direct bodies travel on
//! it exactly as in v1. Adaptive frames may travel on *any* stream and
//! carry a v2 header so the receiver can reassemble them in order:
//!
//! ```text
//! FrameV2 := level:u8  stream:u8  seq:u64  raw_len:u32  payload_len:u32  payload
//! FinV2   := level:u8 = 0xFF  stream:u8  seq:u64 = frames sent on this
//!            stream  raw_len:u32 = 0  payload_len:u32 = 0
//! ```
//!
//! This 18-byte header is the only v2 frame layout. Its level byte is a
//! level (0..=10) or the FIN marker; every other value is `InvalidData`.
//!
//! `seq` numbers frames of one message globally from 0 (each stream's
//! compression thread claims the next unsent frame, so a slow stream
//! simply carries fewer; per-stream `seq`s only ever increase); the
//! receiver delivers frames in ascending `seq` regardless of arrival
//! stream. Every stream ends each adaptive message with a `FinV2` marker
//! — including streams that carried no data frames — so per-stream
//! readers know when the message is over. Fast-path (probe-measured fast
//! network) raw frames use the same v2 framing on the primary stream.
//! The resumed tail of an interrupted message (see [`crate::session`])
//! is v2-framed at **any** width, one stream included: its frames need
//! explicit sequence numbers to continue where the receiver stopped.
//!
//! # Negotiation rule
//!
//! The stream count is negotiated **once, at connection-group setup**,
//! never per message. There are two handshakes:
//!
//! * **None (v1).** A 1-stream connection adds nothing to the wire: the
//!   byte stream is exactly v1, so a v2-capable endpoint on one stream is
//!   indistinguishable from (and interoperable with) a v1 endpoint. A
//!   group whose streams the caller has already paired
//!   ([`crate::AdocStreamGroup::from_pairs`]) sends no hello either.
//! * **Session (v4).** A dialled group ([`crate::AdocStreamGroup::connect`]
//!   with `streams >= 2`, or `connect_session`/`resume_session` at any
//!   width) sends one 46-byte [`SessionHello`] on every stream, then
//!   reads one 52-byte [`SessionAccept`] on the primary:
//!
//!   ```text
//!   SessionHello := magic 0xAD  'G'  version:u8 = 4  streams:u8  stream_id:u8
//!                   token:u64  kind:u8  session_id:u64  expires_us:u64  mac[16]
//!   SessionAccept:= magic 0xAD  'S'  status:u8  resumed:u8  session_id:u64
//!                   expires_us:u64  mac[16]  next_seq:u64  delivered_raw:u64
//!   ```
//!
//!   The nonzero `token` names the *dial* a stream belongs to, so a
//!   multi-client daemon can reassemble groups whose connections
//!   interleave in its accept queue (every client on `127.0.0.1` shares a
//!   peer address). Every stream must announce the acceptor's **stream
//!   count**; a mismatch, any other version byte, or a v1 message header
//!   where a hello was expected is an error, never a silent
//!   renegotiation. Whether the MAC is checked is the acceptor's policy.
//!
//! # Receiving: one decoder
//!
//! Every receive path — the blocking receiver with `read_exact`, the
//! daemon's reactor from its nonblocking `fill` — drives one sans-IO
//! [`FrameDecoder`] per stream, which holds no body bytes. **Allocation
//! rule:** no peer's length field sizes memory more than [`ALLOC_STEP`]
//! ahead of the bytes that back it — a run reserves [`reserve`]`(claim)`
//! and zero-fills as bytes land ([`grow`]), and a compressed frame may
//! claim at most [`MAX_EXPANSION`] raw bytes per payload byte.
//!
//! # Sending: one encoder
//!
//! Every send path — the blocking sender, the reactor and its workers —
//! writes a message's head as one [`MsgHead`] and every frame through
//! [`Framing::seal`], which compresses a chunk into a pooled buffer
//! behind its header slot, **stores** the chunk instead when the ratio
//! is under [`RATIO_GUARD`] (§5 "Compressed and random data"), and
//! writes the v1 or v2 header in place. The level asked for is each
//! driver's policy; what goes on the wire for it is decided here. A
//! fast-path frame or a direct body of the caller's own bytes is its
//! header then those bytes, and on one stream a stored frame, a direct
//! body or a probe that fits lands in the caller's buffer: a stored or
//! direct byte is copied once per side (a probe leaves via [`copy_raw`]).

use crate::adapt::RATIO_GUARD;
use crate::error::AdocError;
use crate::pool::{BufferPool, PooledBuf};
use adoc_codec::Codec;
use std::io::{self, Read};

/// Message header magic byte.
pub const MAGIC: u8 = 0xAD;

/// Second magic byte of a stream-group hello (`'G'`).
pub const GROUP_MAGIC: u8 = b'G';

/// Wire-format version of a [`SessionHello`], the only hello there is.
pub const GROUP_VERSION_SESSION: u8 = 4;

/// Second magic byte of a [`SessionAccept`] reply (`'S'`).
pub const SESSION_MAGIC: u8 = b'S';

/// Size of an encoded message header.
pub const MSG_HEADER_LEN: usize = 10;
/// Size of an encoded frame header.
pub const FRAME_HEADER_LEN: usize = 9;
/// Size of an encoded v2 frame header.
pub const FRAME_HEADER_V2_LEN: usize = 18;
/// Size of an encoded [`SessionHello`].
pub const SESSION_HELLO_LEN: usize = 46;
/// Size of an encoded [`SessionAccept`] reply.
pub const SESSION_ACCEPT_LEN: usize = 2 + 1 + 1 + 8 + 8 + 16 + 8 + 8;

/// Level byte marking a v2 end-of-message frame on one stream.
pub const LEVEL_FIN: u8 = 0xFF;

/// Largest raw (and encoded) frame size the u32 header fields can carry.
/// The sender refuses larger buffers with
/// [`crate::error::AdocError::FrameTooLarge`] instead of truncating.
pub const MAX_FRAME_LEN: u64 = u32::MAX as u64;

/// How a message's body is encoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum MsgKind {
    /// Raw bytes, no threads involved.
    Direct = 0,
    /// Probe prefix + compressed frames.
    Adaptive = 1,
}

/// Encodes a message header into a 10-byte array.
pub fn encode_msg_header(kind: MsgKind, raw_len: u64) -> [u8; MSG_HEADER_LEN] {
    let mut h = [0u8; MSG_HEADER_LEN];
    h[0] = MAGIC;
    h[1] = kind as u8;
    h[2..10].copy_from_slice(&raw_len.to_le_bytes());
    h
}

/// Decodes a message header: the magic byte, the kind byte and the raw
/// length. Bounding the length is the [`FrameDecoder`]'s business.
pub fn decode_msg_header(h: &[u8; MSG_HEADER_LEN]) -> io::Result<(MsgKind, u64)> {
    check(h[0] == MAGIC, || format!("bad AdOC magic {:#04x}", h[0]))?;
    check(h[1] <= 1, || format!("unknown AdOC message kind {}", h[1]))?;
    let kind = [MsgKind::Direct, MsgKind::Adaptive][h[1] as usize];
    let raw_len = u64::from_le_bytes(h[2..10].try_into().expect("8 bytes"));
    Ok((kind, raw_len))
}

/// One compression buffer on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// AdOC level the payload was compressed at (0 = raw).
    pub level: u8,
    /// Decoded size of this frame.
    pub raw_len: u32,
    /// Encoded (on-wire) payload size.
    pub payload_len: u32,
}

impl FrameHeader {
    /// Encodes into a 9-byte array.
    pub fn encode(&self) -> [u8; FRAME_HEADER_LEN] {
        let mut h = [0u8; FRAME_HEADER_LEN];
        h[0] = self.level;
        h[1..5].copy_from_slice(&self.raw_len.to_le_bytes());
        h[5..9].copy_from_slice(&self.payload_len.to_le_bytes());
        h
    }

    /// Decodes a 9-byte header as laid out; the [`FrameDecoder`]
    /// validates it.
    pub fn decode(h: &[u8; FRAME_HEADER_LEN]) -> FrameHeader {
        FrameHeader {
            level: h[0],
            raw_len: u32::from_le_bytes(h[1..5].try_into().expect("4 bytes")),
            payload_len: u32::from_le_bytes(h[5..9].try_into().expect("4 bytes")),
        }
    }
}

/// One compression buffer on a striped (v2) connection: a [`FrameHeader`]
/// plus the stream it travelled on and its global in-message sequence
/// number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeaderV2 {
    /// AdOC level of the payload (0 = raw, [`LEVEL_FIN`] = end marker).
    pub level: u8,
    /// Stream the frame was emitted on (0-based).
    pub stream: u8,
    /// Global frame sequence number within the message, from 0.
    pub seq: u64,
    /// Decoded size of this frame.
    pub raw_len: u32,
    /// Encoded (on-wire) payload size.
    pub payload_len: u32,
}

impl FrameHeaderV2 {
    /// A data frame.
    pub fn data(level: u8, stream: u8, seq: u64, raw_len: u32, payload_len: u32) -> FrameHeaderV2 {
        FrameHeaderV2 {
            level,
            stream,
            seq,
            raw_len,
            payload_len,
        }
    }

    /// True when this header marks end-of-message on its stream.
    pub fn is_fin(&self) -> bool {
        self.level == LEVEL_FIN
    }

    /// Encodes into an 18-byte array.
    pub fn encode(&self) -> [u8; FRAME_HEADER_V2_LEN] {
        let mut h = [0u8; FRAME_HEADER_V2_LEN];
        h[0] = self.level;
        h[1] = self.stream;
        h[2..10].copy_from_slice(&self.seq.to_le_bytes());
        h[10..14].copy_from_slice(&self.raw_len.to_le_bytes());
        h[14..18].copy_from_slice(&self.payload_len.to_le_bytes());
        h
    }

    /// Decodes an 18-byte header as laid out; the [`FrameDecoder`]
    /// validates it.
    pub fn decode(h: &[u8; FRAME_HEADER_V2_LEN]) -> FrameHeaderV2 {
        FrameHeaderV2 {
            level: h[0],
            stream: h[1],
            seq: u64::from_le_bytes(h[2..10].try_into().expect("8 bytes")),
            raw_len: u32::from_le_bytes(h[10..14].try_into().expect("4 bytes")),
            payload_len: u32::from_le_bytes(h[14..18].try_into().expect("4 bytes")),
        }
    }
}

/// How one message's adaptive frames are headed on the wire. Both ends
/// derive it from what they already agree on — the group width and
/// whether the message is a resumed tail — once per message, so the
/// pipeline code is the same for every stream count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Framing {
    /// The paper's format: 9-byte [`FrameHeader`]s on the only stream,
    /// numbered by arrival order; the message ends on its byte count.
    V1,
    /// Striped format: [`FrameHeaderV2`]s naming stream and global
    /// sequence number; every stream ends the message with a FIN.
    V2,
}

impl Framing {
    /// `V1` iff one stream carries a fresh message: a resumed tail needs
    /// explicit sequence numbers to slot in behind the delivered prefix,
    /// whatever its width.
    pub(crate) fn choose(streams: usize, resumed: bool) -> Framing {
        if streams == 1 && !resumed {
            Framing::V1
        } else {
            Framing::V2
        }
    }

    /// Bytes a data frame's header occupies in front of its payload.
    pub fn header_len(self) -> usize {
        match self {
            Framing::V1 => FRAME_HEADER_LEN,
            Framing::V2 => FRAME_HEADER_V2_LEN,
        }
    }

    /// True when every stream ends the message with a FIN marker (else
    /// the byte count ends it).
    pub(crate) fn owes_fin(self) -> bool {
        self == Framing::V2
    }

    /// Seals `chunk` as frame `seq` of `stream` (v1 drops both):
    /// compressed by `codec` at its level when raw over compressed size
    /// reaches [`RATIO_GUARD`], else (or with no codec) stored. Returns
    /// the frame, its level (0 = stored) and the ratio, if measured.
    pub fn seal(
        self,
        chunk: Chunk<'_>,
        codec: Option<(&mut Codec, u8)>,
        pool: &BufferPool,
        stream: u8,
        seq: u64,
    ) -> io::Result<(PooledBuf, u8, Option<f64>)> {
        let hdr = self.header_len();
        let raw = match &chunk {
            Chunk::Slice(raw) => raw,
            Chunk::Staged(buf) => &buf[hdr..],
        };
        let raw_len = frame_len(raw.len() as u64)?;
        let (mut level, mut ratio, mut compressed) = (0, None, None);
        if let Some((codec, at)) = codec.filter(|&(_, at)| at > 0) {
            let mut frame = pool.get(hdr + raw.len() / 2 + 64);
            frame.resize(hdr, 0);
            codec.compress_at(at, raw, &mut frame);
            let r = raw.len() as f64 / (frame.len() - hdr) as f64;
            ratio = Some(r);
            if r >= RATIO_GUARD {
                (level, compressed) = (at, Some(frame));
            }
        }
        let mut frame = match (compressed, chunk) {
            (Some(frame), _) | (None, Chunk::Staged(frame)) => frame,
            (None, Chunk::Slice(raw)) => {
                let mut frame = pool.get(hdr + raw.len());
                frame.resize(hdr, 0);
                frame.extend_from_slice(raw);
                frame
            }
        };
        // A stored payload is the chunk, a compressed one is smaller.
        let payload_len = (frame.len() - hdr) as u32;
        let head = FrameHeaderV2::data(level, stream, seq, raw_len, payload_len);
        self.put_head(&mut frame[..hdr], head);
        Ok((frame, level, ratio))
    }

    /// Writes a data frame's header into `head`, [`Self::header_len`]
    /// bytes (v1 drops stream and sequence number): the one writer,
    /// behind [`Self::seal`] and in front of a stored frame that goes on the
    /// wire straight from its sender's bytes, with no byte of it staged.
    pub(crate) fn put_head(self, head: &mut [u8], hdr: FrameHeaderV2) {
        let (level, raw_len, payload_len) = (hdr.level, hdr.raw_len, hdr.payload_len);
        let v1 = FrameHeader {
            level,
            raw_len,
            payload_len,
        };
        match self {
            Framing::V1 => head.copy_from_slice(&v1.encode()),
            Framing::V2 => head.copy_from_slice(&hdr.encode()),
        }
    }

    /// The marker ending `stream`'s share of a message after `frames`
    /// data frames, or `None` when the byte count ends it (v1).
    pub fn fin(self, stream: u8, frames: u64) -> Option<[u8; FRAME_HEADER_V2_LEN]> {
        let fin = FrameHeaderV2::data(LEVEL_FIN, stream, frames, 0, 0);
        self.owes_fin().then(|| fin.encode())
    }
}

/// A raw chunk for [`Framing::seal`].
pub enum Chunk<'a> {
    /// Bytes to compress, or to copy when stored.
    Slice(&'a [u8]),
    /// A [`Framing::header_len`] slot then the chunk: stored, the frame.
    Staged(PooledBuf),
}

/// `len` as a frame header's u32 length field, or
/// [`AdocError::FrameTooLarge`] — never a silent truncation.
pub(crate) fn frame_len(len: u64) -> io::Result<u32> {
    u32::try_from(len).map_err(|_| AdocError::FrameTooLarge { len }.into())
}

/// A message's head, put on the wire in one write: the message header
/// and, behind an adaptive message's, its probe length.
#[derive(Debug, Clone, Copy)]
pub struct MsgHead([u8; MSG_HEADER_LEN + 4], usize);

impl MsgHead {
    /// The head of a `kind` message of `raw_len` bytes, an adaptive one
    /// sending its first `probe_len` raw.
    pub fn new(kind: MsgKind, raw_len: u64, probe_len: u32) -> MsgHead {
        let mut head = [0u8; MSG_HEADER_LEN + 4];
        head[..MSG_HEADER_LEN].copy_from_slice(&encode_msg_header(kind, raw_len));
        head[MSG_HEADER_LEN..].copy_from_slice(&probe_len.to_le_bytes());
        // Direct is kind 0, Adaptive kind 1.
        let len = MSG_HEADER_LEN + 4 * kind as usize;
        MsgHead(head, len)
    }
}

impl std::ops::Deref for MsgHead {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0[..self.1]
    }
}

/// The allocation rule's step (see the module docs): 4 MiB covers the
/// benchmark's largest messages, so they take one pool checkout.
pub const ALLOC_STEP: usize = 4 << 20;

/// The most raw bytes one payload byte of any level decodes to:
/// DEFLATE's 258-byte match in two bits is 1032:1 (LZF's is 88:1).
pub const MAX_EXPANSION: u64 = 1032;

/// Capacity to reserve for a run of `claim` bytes a peer announced.
pub fn reserve(claim: u64) -> usize {
    claim.min(ALLOC_STEP as u64) as usize
}

/// Zero-fills `buf` toward `end`, ahead of the `landed` bytes by as many
/// as have landed (64 KiB at first, [`ALLOC_STEP`] at most), so a bare
/// claim touches no more than that; returns how far `buf` reaches.
pub fn grow(buf: &mut Vec<u8>, landed: usize, end: usize) -> usize {
    let to = end.min(landed + landed.clamp(64 << 10, ALLOC_STEP));
    if buf.len() < to {
        buf.resize(to, 0);
    }
    buf.len().min(end)
}

/// What a [`FrameDecoder`] wants next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Want {
    /// Exactly this many header bytes, for [`FrameDecoder::header`].
    Header(usize),
    /// `len` raw message bytes, admitted `quantum` at a time: a direct
    /// body by `buffer_size`, a probe by `packet_size`, a stored frame
    /// whole.
    #[allow(missing_docs)]
    Body {
        kind: BodyKind,
        len: u64,
        quantum: usize,
    },
    /// This frame's compressed payload, admitted whole.
    Payload(FrameHeaderV2),
}

/// Whose raw bytes a [`Want::Body`] run is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum BodyKind {
    Direct,
    Probe,
    Stored(FrameHeaderV2),
}

/// What a [`FrameDecoder`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A message header.
    #[allow(missing_docs)]
    Message { kind: MsgKind, raw_len: u64 },
    /// An adaptive message's probe length; the probe bytes follow.
    Probe(u64),
    /// A data frame's header; its payload follows.
    Frame(FrameHeaderV2),
    /// This stream's share of the message is over (its FIN).
    StreamEnd,
    /// The whole message is in (v1 frames end on its length).
    MessageEnd,
}

/// One stream's receive side of the wire format (see the module docs).
/// Its state is what it [`Self::want`]s next; [`Self::header`] and
/// [`Self::body_done`] yield [`Event`]s. Every per-frame check lives
/// here: level range, stored lengths, an empty and counted FIN, the
/// frame's stream, its raw size against the stream's share and against
/// its payload.
#[derive(Debug, Clone, Copy)]
pub struct FrameDecoder {
    /// `None` once this stream's share is over.
    want: Option<Want>,
    framing: Framing,
    stream: u8,
    max_message: u64,
    buffer_size: usize,
    packet_size: usize,
    /// Raw bytes this stream's frames may still carry.
    owed: u64,
    /// Data frames seen on this stream.
    frames: u64,
}

/// The probe-length prefix of an adaptive body.
const PROBE_LEN: Want = Want::Header(4);

impl FrameDecoder {
    /// A fresh message on the primary of a `streams`-wide connection.
    pub fn message(cfg: &crate::AdocConfig, streams: usize) -> FrameDecoder {
        FrameDecoder {
            want: Some(Want::Header(MSG_HEADER_LEN)),
            framing: Framing::choose(streams, false),
            stream: 0,
            max_message: cfg.max_message,
            buffer_size: cfg.buffer_size,
            packet_size: cfg.packet_size,
            owed: 0,
            frames: 0,
        }
    }

    /// The v2 frames of one message on `stream`, owing at most `owed`
    /// raw bytes: a striped share, or any stream of a resumed tail.
    pub fn frames(cfg: &crate::AdocConfig, stream: u8, owed: u64) -> FrameDecoder {
        let mut dec = FrameDecoder::message(cfg, 2);
        (dec.want, dec.stream, dec.owed) = (Some(Want::Header(FRAME_HEADER_V2_LEN)), stream, owed);
        dec
    }

    /// What to feed next; `None` once this stream's share is over.
    pub fn want(&self) -> Option<Want> {
        self.want
    }

    /// True before any byte of a message header has been decoded.
    pub fn at_message_start(&self) -> bool {
        self.want == Some(Want::Header(MSG_HEADER_LEN))
    }

    /// Takes the header bytes [`Want::Header`] asked for.
    pub fn header(&mut self, bytes: &[u8]) -> io::Result<Event> {
        let (event, want) = match self.want {
            Some(Want::Header(MSG_HEADER_LEN)) => {
                let (kind, raw_len) = decode_msg_header(exact(bytes)?)?;
                check(raw_len <= self.max_message, || {
                    format!("message of {raw_len} bytes exceeds configured maximum")
                })?;
                let want = match kind {
                    MsgKind::Direct => body(BodyKind::Direct, raw_len, self.buffer_size),
                    MsgKind::Adaptive => Some(PROBE_LEN),
                };
                self.owed = if want == Some(PROBE_LEN) { raw_len } else { 0 };
                (Event::Message { kind, raw_len }, want)
            }
            Some(PROBE_LEN) => {
                let probe = u64::from(u32::from_le_bytes(*exact(bytes)?));
                check(probe <= self.owed, || "probe longer than message".into())?;
                self.owed -= probe;
                let want = body(BodyKind::Probe, probe, self.packet_size);
                (Event::Probe(probe), want)
            }
            Some(Want::Header(_)) => self.frame_header(bytes)?,
            _ => return Err(io::ErrorKind::InvalidInput.into()),
        };
        self.want = want;
        Ok(event)
    }

    fn frame_header(&mut self, bytes: &[u8]) -> io::Result<(Event, Option<Want>)> {
        let hdr = match self.framing {
            Framing::V1 => {
                let h = FrameHeader::decode(exact(bytes)?);
                FrameHeaderV2::data(h.level, self.stream, self.frames, h.raw_len, h.payload_len)
            }
            Framing::V2 => FrameHeaderV2::decode(exact(bytes)?),
        };
        let (raw, payload): (u64, u64) = (hdr.raw_len.into(), hdr.payload_len.into());
        let level = hdr.level;
        check(hdr.stream == self.stream, || {
            format!(
                "frame for stream {} arrived on stream {}",
                hdr.stream, self.stream
            )
        })?;
        if hdr.is_fin() && self.framing.owes_fin() {
            let counted = raw == 0 && payload == 0 && hdr.seq == self.frames;
            check(counted, || {
                format!("{hdr:?} after {} frames is corrupt", self.frames)
            })?;
            return Ok((Event::StreamEnd, None));
        }
        check(level <= adoc_codec::ADOC_MAX_LEVEL, || {
            format!("frame level {level} exceeds protocol maximum")
        })?;
        check(level > 0 || raw == payload, || {
            "raw frame with mismatched lengths".into()
        })?;
        check(raw <= self.owed, || "frames exceed message length".into())?;
        // A payload exceeds its raw size only by small codec overhead,
        // and decodes to at most `MAX_EXPANSION` times its size.
        let fits = payload <= 2 * raw.max(self.buffer_size as u64) + 1024;
        let fits = fits && raw <= payload * MAX_EXPANSION;
        check(fits, || {
            format!("frame of {raw} raw bytes in a {payload}-byte payload")
        })?;
        self.owed -= raw;
        self.frames += 1;
        let want = match level {
            0 => body(BodyKind::Stored(hdr), raw, raw as usize),
            _ => Some(Want::Payload(hdr)),
        };
        Ok((Event::Frame(hdr), want))
    }

    /// The run [`Want::Body`] or [`Want::Payload`] asked for has moved;
    /// `Some(MessageEnd)` when that completed the message.
    pub fn body_done(&mut self) -> Option<Event> {
        let frame = match self.want? {
            Want::Body {
                kind: BodyKind::Stored(_),
                ..
            }
            | Want::Payload(_) => true,
            Want::Body { .. } => false,
            Want::Header(_) => return None,
        };
        if self.owed > 0 || (frame && self.framing.owes_fin()) {
            self.want = Some(Want::Header(self.framing.header_len()));
            return None;
        }
        self.want = None;
        Some(Event::MessageEnd)
    }
}

fn body(kind: BodyKind, len: u64, quantum: usize) -> Option<Want> {
    Some(Want::Body { kind, len, quantum })
}

fn exact<const N: usize>(bytes: &[u8]) -> io::Result<&[u8; N]> {
    bytes
        .try_into()
        .map_err(|_| io::ErrorKind::InvalidInput.into())
}

/// `InvalidData` with `what` unless `ok`: the decoder's one way to refuse.
pub(crate) fn check(ok: bool, what: impl FnOnce() -> String) -> io::Result<()> {
    match ok {
        true => Ok(()),
        false => Err(io::Error::new(io::ErrorKind::InvalidData, what())),
    }
}

/// What a version-4 hello is asking for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SessionKind {
    /// Open a fresh session; the ticket fields are zero (or, under
    /// `require_auth`, the MAC authenticates the hello itself).
    New = 0,
    /// Resume the session the embedded ticket names.
    Resume = 1,
}

/// The per-stream record that opens a dialled group (see the module
/// docs' negotiation rule) and names, or requests, a **session**. All
/// session fields are
/// identical on every stream of one dial — the MAC deliberately excludes
/// the stream id — so the acceptor can verify any stream in isolation,
/// *before* admitting the peer anywhere.
///
/// * `kind == New`: `session_id`/`expires_us` are 0. Under `require_auth`
///   the MAC is [`crate::session::TicketKey::hello_mac`] over
///   `(streams, token)`; otherwise it is all-zero and ignored.
/// * `kind == Resume`: `session_id`, `expires_us` and `mac` are the
///   fields of the [`crate::session::SessionTicket`] being presented,
///   verbatim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionHello {
    /// Total streams in the group the sender is announcing (nonzero; a
    /// session may span one stream).
    pub streams: u8,
    /// Which stream of the group this hello travels on (0-based).
    pub stream_id: u8,
    /// Fresh group token naming this dial (nonzero).
    pub token: u64,
    /// New session or resume.
    pub kind: SessionKind,
    /// Ticket session id (`Resume`) or 0 (`New`).
    pub session_id: u64,
    /// Ticket expiry (`Resume`) or 0 (`New`).
    pub expires_us: u64,
    /// Ticket MAC (`Resume`) or hello MAC / zeros (`New`).
    pub mac: [u8; 16],
}

impl SessionHello {
    /// Encodes into the 46-byte version-4 layout.
    pub fn encode(&self) -> [u8; SESSION_HELLO_LEN] {
        let mut out = [0u8; SESSION_HELLO_LEN];
        out[0] = MAGIC;
        out[1] = GROUP_MAGIC;
        out[2] = GROUP_VERSION_SESSION;
        out[3] = self.streams;
        out[4] = self.stream_id;
        out[5..13].copy_from_slice(&self.token.to_le_bytes());
        out[13] = self.kind as u8;
        out[14..22].copy_from_slice(&self.session_id.to_le_bytes());
        out[22..30].copy_from_slice(&self.expires_us.to_le_bytes());
        out[30..46].copy_from_slice(&self.mac);
        out
    }

    /// Reads and validates a hello: magic, version 4, a nonzero stream
    /// count and the kind byte. A bad prefix is refused after its 5 bytes,
    /// before the rest of the record is read.
    pub fn read(r: &mut impl Read) -> io::Result<SessionHello> {
        let mut h = [0u8; SESSION_HELLO_LEN];
        r.read_exact(&mut h[..5])?;
        check(h[0] == MAGIC && h[1] == GROUP_MAGIC, || {
            let (a, b) = (h[0], h[1]);
            format!("expected stream-group hello, got {a:#04x} {b:#04x} (v1 peer on a group?)")
        })?;
        let version = h[2];
        check(version == GROUP_VERSION_SESSION, || {
            format!("unsupported stream-group version {version}")
        })?;
        check(h[3] > 0, || {
            "stream-group hello announcing zero streams".into()
        })?;
        r.read_exact(&mut h[5..])?;
        let kind = h[13];
        check(kind <= 1, || format!("unknown session hello kind {kind}"))?;
        Ok(SessionHello {
            streams: h[3],
            stream_id: h[4],
            token: u64::from_le_bytes(h[5..13].try_into().expect("8 bytes")),
            kind: [SessionKind::New, SessionKind::Resume][kind as usize],
            session_id: u64::from_le_bytes(h[14..22].try_into().expect("8 bytes")),
            expires_us: u64::from_le_bytes(h[22..30].try_into().expect("8 bytes")),
            mac: h[30..46].try_into().expect("16 bytes"),
        })
    }
}

/// Why a session handshake was refused — the `status` codes of a
/// [`SessionAccept`].
pub mod session_status {
    /// Handshake accepted.
    pub const OK: u8 = 0;
    /// Authentication failed (bad or missing hello MAC, or a plaintext
    /// hello under `require_auth`).
    pub const AUTH_FAILED: u8 = 1;
    /// Resume refused: unknown or already-reclaimed session, peer
    /// mismatch, or the server is draining.
    pub const RESUME_REJECTED: u8 = 2;
    /// The presented ticket's expiry has passed.
    pub const TICKET_EXPIRED: u8 = 3;
}

/// The acceptor's one reply to a dial's [`SessionHello`]s, written on the
/// primary stream (a rejection may also be written on the others, so a
/// rejected client learns why before the sockets close).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionAccept {
    /// One of [`session_status`]; non-zero means rejected and every
    /// other field is zero.
    pub status: u8,
    /// 1 when an existing session was resumed, 0 for a fresh session.
    pub resumed: u8,
    /// Ticket: session id.
    pub session_id: u64,
    /// Ticket: absolute expiry (µs since the Unix epoch).
    pub expires_us: u64,
    /// Ticket: MAC.
    pub mac: [u8; 16],
    /// Resume point: the next global frame sequence number the server
    /// expects (0 when there is no partial message to continue).
    pub next_seq: u64,
    /// Resume point: raw message bytes already delivered contiguously
    /// (0 when there is no partial message to continue).
    pub delivered_raw: u64,
}

impl SessionAccept {
    /// A rejection carrying only the status code.
    pub fn reject(status: u8) -> SessionAccept {
        SessionAccept {
            status,
            resumed: 0,
            session_id: 0,
            expires_us: 0,
            mac: [0u8; 16],
            next_seq: 0,
            delivered_raw: 0,
        }
    }

    /// Encodes into the 52-byte layout.
    pub fn encode(&self) -> [u8; SESSION_ACCEPT_LEN] {
        let mut out = [0u8; SESSION_ACCEPT_LEN];
        out[0] = MAGIC;
        out[1] = SESSION_MAGIC;
        out[2] = self.status;
        out[3] = self.resumed;
        out[4..12].copy_from_slice(&self.session_id.to_le_bytes());
        out[12..20].copy_from_slice(&self.expires_us.to_le_bytes());
        out[20..36].copy_from_slice(&self.mac);
        out[36..44].copy_from_slice(&self.next_seq.to_le_bytes());
        out[44..52].copy_from_slice(&self.delivered_raw.to_le_bytes());
        out
    }

    /// Reads and validates a session-accept reply.
    pub fn read(r: &mut impl Read) -> io::Result<SessionAccept> {
        let mut h = [0u8; SESSION_ACCEPT_LEN];
        r.read_exact(&mut h)?;
        check(h[0] == MAGIC && h[1] == SESSION_MAGIC, || {
            format!("expected session accept, got {:#04x} {:#04x}", h[0], h[1])
        })?;
        Ok(SessionAccept {
            status: h[2],
            resumed: h[3],
            session_id: u64::from_le_bytes(h[4..12].try_into().expect("8 bytes")),
            expires_us: u64::from_le_bytes(h[12..20].try_into().expect("8 bytes")),
            mac: h[20..36].try_into().expect("16 bytes"),
            next_seq: u64::from_le_bytes(h[36..44].try_into().expect("8 bytes")),
            delivered_raw: u64::from_le_bytes(h[44..52].try_into().expect("8 bytes")),
        })
    }
}

/// Copies `len` raw bytes — a probe, or a direct body a window cannot
/// take — from `reader` to `writer` through one pooled `chunk`-sized
/// buffer, acquiring wire budget per chunk and adding each chunk to
/// `copied` once it is written.
pub(crate) fn copy_raw<R: Read, W: io::Write>(
    reader: &mut R,
    writer: &mut W,
    len: u64,
    chunk: usize,
    cfg: &crate::AdocConfig,
    copied: &mut u64,
) -> io::Result<()> {
    if len == 0 {
        return Ok(());
    }
    let size = chunk.max(1).min(len.try_into().unwrap_or(usize::MAX));
    let mut buf = cfg.pool.get(size);
    buf.resize(size, 0);
    let mut left = len;
    while left > 0 {
        let want = (buf.len() as u64).min(left) as usize;
        cfg.throttle.acquire_wire(want);
        reader.read_exact(&mut buf[..want])?;
        writer.write_all(&buf[..want])?;
        *copied += want as u64;
        left -= want as u64;
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::io::Cursor;

    /// Limits wide enough that only the check under test can refuse.
    fn open_cfg() -> crate::AdocConfig {
        crate::AdocConfig {
            max_message: u64::MAX,
            ..crate::AdocConfig::default()
        }
    }

    /// What a push-fed run of a decoder saw, in order.
    #[derive(Debug, Clone, PartialEq)]
    pub(crate) enum Seen {
        Event(Event),
        /// A body run or payload, as it landed.
        Run(Vec<u8>),
    }

    /// Feeds `chunks` to `dec` as a push-fed driver does: header bytes
    /// gather until the decoder's want is met, body bytes are collected
    /// off their run. Returns what it saw and the verdict: the bytes
    /// consumed once the decoder is done (or the input is empty), the
    /// decoder's error, or `UnexpectedEof` for input that ends first.
    pub(crate) fn feed<'a>(
        dec: &mut FrameDecoder,
        chunks: impl IntoIterator<Item = &'a [u8]>,
    ) -> (Vec<Seen>, io::Result<usize>) {
        let (mut seen, mut head, mut run) = (Vec::new(), Vec::new(), Vec::new());
        let mut consumed = 0;
        for mut chunk in chunks {
            while let Some(want) = dec.want() {
                let wanted = match want {
                    Want::Header(n) => n - head.len(),
                    Want::Body { len, .. } => len as usize - run.len(),
                    Want::Payload(hdr) => hdr.payload_len as usize - run.len(),
                };
                let take = wanted.min(chunk.len());
                if take == 0 && wanted > 0 {
                    break;
                }
                let (got, rest) = chunk.split_at(take);
                chunk = rest;
                consumed += take;
                if let Want::Header(_) = want {
                    head.extend_from_slice(got);
                    if take == wanted {
                        match dec.header(&head) {
                            Ok(event) => seen.push(Seen::Event(event)),
                            Err(e) => return (seen, Err(e)),
                        }
                        head.clear();
                    }
                } else {
                    run.extend_from_slice(got);
                    if take == wanted {
                        seen.push(Seen::Run(std::mem::take(&mut run)));
                        seen.extend(dec.body_done().map(Seen::Event));
                    }
                }
            }
        }
        let over = dec.want().is_none() || (consumed == 0 && dec.at_message_start());
        let verdict = match over {
            true => Ok(consumed),
            false => Err(io::ErrorKind::UnexpectedEof.into()),
        };
        (seen, verdict)
    }

    /// `bytes` in pieces of 1..=`max` bytes drawn from `seed`.
    pub(crate) fn random_split(bytes: &[u8], seed: u64, max: usize) -> Vec<&[u8]> {
        let mut x = seed | 1;
        let mut rest = bytes;
        let mut pieces = Vec::new();
        while !rest.is_empty() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let (piece, tail) = rest.split_at((1 + x as usize % max).min(rest.len()));
            pieces.push(piece);
            rest = tail;
        }
        pieces
    }

    /// Reads the header `dec` wants off `r` and hands it over.
    fn next_header(dec: &mut FrameDecoder, r: &mut impl Read) -> io::Result<Event> {
        let Some(Want::Header(n)) = dec.want() else {
            panic!("the decoder wants no header");
        };
        let mut h = [0u8; FRAME_HEADER_V2_LEN];
        r.read_exact(&mut h[..n])?;
        dec.header(&h[..n])
    }

    /// A one-stream decoder past an adaptive header and an empty probe:
    /// it wants a v1 frame header.
    fn at_v1_frame(cfg: &crate::AdocConfig) -> FrameDecoder {
        let mut dec = FrameDecoder::message(cfg, 1);
        dec.header(&encode_msg_header(MsgKind::Adaptive, 1 << 40))
            .unwrap();
        dec.header(&0u32.to_le_bytes()).unwrap();
        assert_eq!(dec.body_done(), None);
        dec
    }

    fn v1_frame(level: u8, raw_len: u32, payload_len: u32) -> io::Result<Event> {
        let fh = FrameHeader {
            level,
            raw_len,
            payload_len,
        };
        at_v1_frame(&open_cfg()).header(&fh.encode())
    }

    fn v2_frame(fh: FrameHeaderV2) -> io::Result<Event> {
        FrameDecoder::frames(&open_cfg(), fh.stream, 1 << 30).header(&fh.encode())
    }

    #[test]
    fn msg_header_roundtrip() {
        for (kind, len) in [(MsgKind::Direct, 0u64), (MsgKind::Adaptive, u64::MAX / 2)] {
            let enc = encode_msg_header(kind, len);
            assert_eq!(decode_msg_header(&enc).unwrap(), (kind, len));
            let mut dec = FrameDecoder::message(&open_cfg(), 1);
            let event = next_header(&mut dec, &mut &enc[..]).unwrap();
            assert_eq!(event, Event::Message { kind, raw_len: len });
        }
        // The configured maximum is the decoder's.
        let mut dec = FrameDecoder::message(&crate::AdocConfig::default(), 1);
        let huge = encode_msg_header(MsgKind::Direct, u64::MAX / 2);
        assert!(dec.header(&huge).is_err());
    }

    #[test]
    fn clean_eof_is_none() {
        // No byte at all is a clean end, not a truncated header.
        let mut dec = FrameDecoder::message(&open_cfg(), 1);
        let (seen, verdict) = feed(&mut dec, []);
        assert!(seen.is_empty());
        assert_eq!(verdict.unwrap(), 0);
        assert!(dec.at_message_start());
    }

    #[test]
    fn partial_header_is_error() {
        let enc = encode_msg_header(MsgKind::Direct, 42);
        let mut dec = FrameDecoder::message(&open_cfg(), 1);
        let (seen, verdict) = feed(&mut dec, [&enc[..4]]);
        assert!(seen.is_empty());
        assert_eq!(verdict.unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
        // A header slice of the wrong length is the driver's mistake.
        let err = FrameDecoder::message(&open_cfg(), 1)
            .header(&enc[..4])
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut enc = encode_msg_header(MsgKind::Direct, 1);
        enc[0] = 0x00;
        assert!(decode_msg_header(&enc).is_err());
        assert!(FrameDecoder::message(&open_cfg(), 1).header(&enc).is_err());
    }

    #[test]
    fn bad_kind_rejected() {
        let mut enc = encode_msg_header(MsgKind::Direct, 1);
        enc[1] = 9;
        assert!(decode_msg_header(&enc).is_err());
        assert!(FrameDecoder::message(&open_cfg(), 1).header(&enc).is_err());
    }

    #[test]
    fn frame_header_roundtrip() {
        let fh = FrameHeader {
            level: 7,
            raw_len: 204_800,
            payload_len: 31_337,
        };
        assert_eq!(FrameHeader::decode(&fh.encode()), fh);
        // A v1 header's stream and sequence number are the decoder's.
        let want = FrameHeaderV2::data(7, 0, 0, 204_800, 31_337);
        assert_eq!(v1_frame(7, 204_800, 31_337).unwrap(), Event::Frame(want));
    }

    #[test]
    fn frame_level_out_of_range() {
        assert!(v1_frame(11, 10, 10).is_err());
        // A v1 stream has no FIN: its marker is just another bad level.
        assert!(v1_frame(LEVEL_FIN, 0, 0).is_err());
    }

    #[test]
    fn raw_frame_length_mismatch_rejected() {
        assert!(v1_frame(0, 10, 9).is_err());
    }

    #[test]
    fn frame_v2_roundtrip() {
        let fh = FrameHeaderV2::data(9, 3, u64::MAX / 3, 204_800, 55_555);
        assert_eq!(FrameHeaderV2::decode(&fh.encode()), fh);
        assert_eq!(v2_frame(fh).unwrap(), Event::Frame(fh));
    }

    #[test]
    fn frame_v2_fin_roundtrip() {
        assert_eq!(Framing::V1.fin(2, 41), None, "v1 ends on the byte count");
        let fin = FrameHeaderV2::decode(&Framing::V2.fin(2, 41).expect("v2 FIN"));
        assert!(fin.is_fin());
        let fields = (fin.stream, fin.seq, fin.raw_len, fin.payload_len);
        assert_eq!(fields, (2, 41, 0, 0));
        // The FIN must count the frames its stream carried: none here.
        assert!(v2_frame(fin).is_err());
        let mut dec = FrameDecoder::frames(&open_cfg(), 2, 0);
        let empty = Framing::V2.fin(2, 0).expect("v2 FIN");
        assert_eq!(dec.header(&empty).unwrap(), Event::StreamEnd);
        assert_eq!(dec.want(), None);
    }

    #[test]
    fn frame_v2_rejects_bad_level_and_nonempty_fin() {
        let bad_level = FrameHeaderV2::data(11, 0, 0, 1, 1);
        assert!(v2_frame(bad_level).is_err());
        // A FIN whose length fields are non-zero is corrupt.
        assert!(v2_frame(FrameHeaderV2 {
            level: LEVEL_FIN,
            ..bad_level
        })
        .is_err());
    }

    #[test]
    fn frame_v2_raw_length_mismatch_rejected() {
        assert!(v2_frame(FrameHeaderV2::data(0, 1, 7, 10, 9)).is_err());
    }

    #[test]
    fn frame_on_the_wrong_stream_rejected() {
        let mut dec = FrameDecoder::frames(&open_cfg(), 1, 1 << 30);
        let err = dec
            .header(&FrameHeaderV2::data(2, 2, 0, 100, 50).encode())
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn a_frame_cannot_claim_more_than_its_payload_decodes_to() {
        // 12 payload bytes can decode to at most 12 × 1032 raw bytes, so
        // a level-1 frame claiming u32::MAX is refused before anything
        // is sized for it; at the bound it is admitted.
        assert!(v1_frame(1, u32::MAX, 12).is_err());
        assert!(v1_frame(1, 12 * MAX_EXPANSION as u32 + 1, 12).is_err());
        assert!(v1_frame(1, 12 * MAX_EXPANSION as u32, 12).is_ok());
        // A stored frame's payload is its raw bytes, however large the
        // claim: it is bounded by what the message still owes instead.
        assert!(v1_frame(0, u32::MAX, u32::MAX).is_ok());
        let mut dec = FrameDecoder::message(&open_cfg(), 1);
        dec.header(&encode_msg_header(MsgKind::Adaptive, 1000))
            .unwrap();
        dec.header(&0u32.to_le_bytes()).unwrap();
        dec.body_done();
        let stored = FrameHeader {
            level: 0,
            raw_len: 1001,
            payload_len: 1001,
        };
        assert!(dec.header(&stored.encode()).is_err());
    }

    #[test]
    fn peer_lengths_size_one_step_at_most() {
        assert_eq!(reserve(0), 0);
        assert_eq!(reserve(1024), 1024);
        assert_eq!(reserve(4 << 20), 4 << 20);
        assert_eq!(reserve(512 << 30), ALLOC_STEP);
        let mut buf = Vec::new();
        // A 512 GiB claim zero-fills 64 KiB before its first byte lands,
        // then as far ahead as has landed, one step at most.
        assert_eq!(grow(&mut buf, 0, 512 << 30), 64 << 10);
        assert_eq!(buf.len(), 64 << 10);
        assert_eq!(grow(&mut buf, 1 << 20, 512 << 30), 2 << 20);
        assert_eq!(grow(&mut buf, 16 << 20, 512 << 30), (16 << 20) + ALLOC_STEP);
        // A short run stops at its end.
        let mut buf = Vec::new();
        assert_eq!(grow(&mut buf, 0, 10), 10);
        assert_eq!(grow(&mut buf, 5, 10), 10);
        assert_eq!(buf.len(), 10);
    }

    /// The fixture captures by name, each with the decoder that reads it
    /// from its first byte.
    fn fixtures() -> Vec<(&'static str, &'static [u8], FrameDecoder)> {
        macro_rules! capture {
            ($name:literal) => {
                include_bytes!(concat!("../../../tests/fixtures/", $name, ".bin"))
            };
        }
        let one = FrameDecoder::message(&open_cfg(), 1);
        let s0: &[u8] = capture!("v2_two_streams_l2_s0");
        // The secondary stream owes what the primary's probe left over.
        let mut primary = FrameDecoder::message(&open_cfg(), 2);
        let (seen, _) = feed(&mut primary, [s0]);
        let owed = match seen[..] {
            [Seen::Event(Event::Message { raw_len, .. }), Seen::Event(Event::Probe(probe)), ..] => {
                raw_len - probe
            }
            _ => panic!("v2 primary starts {:?}", &seen[..2]),
        };
        vec![
            ("v1_direct", capture!("v1_direct"), one),
            ("v1_fast_path", capture!("v1_fast_path"), one),
            ("v1_pinned_l1", capture!("v1_pinned_l1"), one),
            ("v1_pinned_l2", capture!("v1_pinned_l2"), one),
            ("v1_pinned_l10", capture!("v1_pinned_l10"), one),
            (
                "v2_two_streams_l2_s0",
                s0,
                FrameDecoder::message(&open_cfg(), 2),
            ),
            (
                "v2_two_streams_l2_s1",
                capture!("v2_two_streams_l2_s1"),
                FrameDecoder::frames(&open_cfg(), 1, owed),
            ),
            (
                "daemon_reply_direct_1k",
                capture!("daemon_reply_direct_1k"),
                one,
            ),
            (
                "daemon_reply_l0_600k",
                capture!("daemon_reply_l0_600k"),
                one,
            ),
            (
                "daemon_reply_l2_300k",
                capture!("daemon_reply_l2_300k"),
                one,
            ),
            (
                "daemon_reply_sink_ack",
                capture!("daemon_reply_sink_ack"),
                one,
            ),
        ]
    }

    #[test]
    fn every_fixture_decodes_the_same_at_every_split() {
        for (name, bytes, dec) in fixtures() {
            let (whole, verdict) = feed(&mut dec.clone(), [bytes]);
            assert_eq!(verdict.unwrap(), bytes.len(), "{name}: whole");
            let last = whole.last().expect("events");
            assert!(
                matches!(last, Seen::Event(Event::MessageEnd | Event::StreamEnd)),
                "{name}: ends on {last:?}"
            );
            let frames = whole
                .iter()
                .filter(|s| matches!(s, Seen::Event(Event::Frame(_))))
                .count();
            let direct = Seen::Event(Event::Message {
                kind: MsgKind::Direct,
                raw_len: bytes.len() as u64 - MSG_HEADER_LEN as u64,
            });
            assert!(frames > 0 || whole[0] == direct, "{name}: no frames");
            let one_byte = bytes.chunks(1).collect::<Vec<_>>();
            let mut splits = vec![("1-byte", one_byte)];
            for seed in [1u64, 7, 99] {
                splits.push(("random", random_split(bytes, seed, 4096)));
                splits.push(("random small", random_split(bytes, seed, 23)));
            }
            for (how, pieces) in splits {
                let (seen, verdict) = feed(&mut dec.clone(), pieces);
                assert_eq!(verdict.unwrap(), bytes.len(), "{name}: {how}");
                assert!(seen == whole, "{name}: {how} feed saw other events");
            }
        }
    }

    fn new_hello(streams: u8, stream_id: u8, token: u64) -> SessionHello {
        SessionHello {
            streams,
            stream_id,
            token,
            kind: SessionKind::New,
            session_id: 0,
            expires_us: 0,
            mac: [0u8; 16],
        }
    }

    #[test]
    fn truncated_tokened_hello_is_error() {
        let enc = new_hello(2, 0, 42).encode();
        // Cut inside the token field: the reader must not misparse.
        let mut c = Cursor::new(enc[..8].to_vec());
        assert!(SessionHello::read(&mut c).is_err());
    }

    #[test]
    fn session_hello_roundtrip() {
        let h = SessionHello {
            streams: 3,
            stream_id: 2,
            token: 0x1122_3344_5566_7788,
            kind: SessionKind::Resume,
            session_id: 77,
            expires_us: 1_000_000,
            mac: [0xAB; 16],
        };
        let enc = h.encode();
        assert_eq!(enc.len(), SESSION_HELLO_LEN);
        let mut c = Cursor::new(enc.to_vec());
        assert_eq!(SessionHello::read(&mut c).unwrap(), h);
        // A one-stream session is legal.
        let one = new_hello(1, 0, 9);
        assert_eq!(SessionHello::read(&mut &one.encode()[..]).unwrap(), one);
    }

    #[test]
    fn session_hello_rejects_truncation_and_bad_kind() {
        let enc = new_hello(2, 0, 1).encode();
        for cut in [6, 13, 20, 45] {
            let mut c = Cursor::new(enc[..cut].to_vec());
            assert!(SessionHello::read(&mut c).is_err(), "cut {cut}");
        }
        let mut bad = enc;
        bad[13] = 9; // unknown kind byte
        assert!(SessionHello::read(&mut Cursor::new(bad.to_vec())).is_err());
    }

    #[test]
    fn session_accept_roundtrip_and_reject() {
        let a = SessionAccept {
            status: session_status::OK,
            resumed: 1,
            session_id: 5,
            expires_us: 123,
            mac: [0x5C; 16],
            next_seq: 17,
            delivered_raw: 3_400_000,
        };
        let enc = a.encode();
        assert_eq!(enc.len(), SESSION_ACCEPT_LEN);
        let mut c = Cursor::new(enc.to_vec());
        assert_eq!(SessionAccept::read(&mut c).unwrap(), a);
        let r = SessionAccept::reject(session_status::AUTH_FAILED);
        let mut c = Cursor::new(r.encode().to_vec());
        assert_eq!(SessionAccept::read(&mut c).unwrap().status, 1);
        let mut bad = a.encode();
        bad[1] = b'X';
        assert!(SessionAccept::read(&mut &bad[..]).is_err());
    }

    #[test]
    fn group_hello_rejects_v1_traffic_and_bad_version() {
        // A v1 message header where a hello is expected must error, not
        // be misparsed.
        let msg = encode_msg_header(MsgKind::Direct, 99);
        assert!(SessionHello::read(&mut Cursor::new(msg.to_vec())).is_err());
        // The retired version-2 and version-3 hellos, and a future one.
        for version in [2, 3, 5] {
            let mut bad = new_hello(2, 0, 7).encode();
            bad[2] = version;
            assert!(SessionHello::read(&mut Cursor::new(bad)).is_err());
        }
        let mut zero = new_hello(2, 0, 7).encode();
        zero[3] = 0;
        assert!(SessionHello::read(&mut Cursor::new(zero)).is_err());
    }

    /// Serves its bytes one at a time and counts how many were taken.
    struct Counting<'a> {
        data: &'a [u8],
        taken: usize,
    }

    impl Read for Counting<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match (self.data.split_first(), buf.first_mut()) {
                (Some((&b, rest)), Some(slot)) => {
                    *slot = b;
                    self.data = rest;
                    self.taken += 1;
                    Ok(1)
                }
                _ => Ok(0),
            }
        }
    }

    /// One peer-controlled record: a parser, and the length its layout
    /// declares. No flag or version byte lengthens any of them. The wire
    /// format's records are parsed by a [`FrameDecoder`] positioned by
    /// `decoder`; the two handshake records have a `Read` parser of
    /// their own.
    struct Record {
        what: &'static str,
        bytes: Vec<u8>,
        parse: Parser,
        layout: usize,
    }

    enum Parser {
        /// A decoder wanting this record's header.
        Decoder(fn() -> FrameDecoder),
        Read(fn(&mut Counting<'_>) -> io::Result<()>),
    }

    #[test]
    fn every_parser_is_total_on_damaged_records() {
        let session = SessionHello {
            streams: 3,
            stream_id: 1,
            token: 0x0102_0304_0506_0708,
            kind: SessionKind::Resume,
            session_id: 77,
            expires_us: 1_000_000,
            mac: [0xAB; 16],
        };
        let accept = SessionAccept {
            status: session_status::OK,
            resumed: 1,
            session_id: 5,
            expires_us: 123,
            mac: [0x5C; 16],
            next_seq: 17,
            delivered_raw: 3_400_000,
        };
        let v2 = FrameHeaderV2::data(6, 1, 9, 204_800, 51_000);
        let records = [
            Record {
                what: "message header",
                bytes: encode_msg_header(MsgKind::Adaptive, 3 << 20).to_vec(),
                parse: Parser::Decoder(|| {
                    let cfg = crate::AdocConfig {
                        max_message: 1 << 30,
                        ..crate::AdocConfig::default()
                    };
                    FrameDecoder::message(&cfg, 1)
                }),
                layout: MSG_HEADER_LEN,
            },
            Record {
                what: "v1 frame header",
                bytes: FrameHeader {
                    level: 4,
                    raw_len: 204_800,
                    payload_len: 60_000,
                }
                .encode()
                .to_vec(),
                parse: Parser::Decoder(|| at_v1_frame(&open_cfg())),
                layout: FRAME_HEADER_LEN,
            },
            Record {
                what: "v2 frame header",
                bytes: v2.encode().to_vec(),
                parse: Parser::Decoder(|| FrameDecoder::frames(&open_cfg(), 1, 1 << 30)),
                layout: FRAME_HEADER_V2_LEN,
            },
            Record {
                what: "v4 session hello",
                bytes: session.encode().to_vec(),
                parse: Parser::Read(|r| SessionHello::read(r).map(drop)),
                layout: SESSION_HELLO_LEN,
            },
            Record {
                what: "session accept",
                bytes: accept.encode().to_vec(),
                parse: Parser::Read(|r| SessionAccept::read(r).map(drop)),
                layout: SESSION_ACCEPT_LEN,
            },
        ];
        // Whatever follows a record on the stream belongs to the next
        // one: a parser that reads into it would desynchronise.
        let trailer = [0xEEu8; 64];
        // A panic anywhere below fails the test; an error of any kind is
        // an acceptable answer to a damaged record. A decoder's verdict
        // must not depend on how its input is split: fed one byte at a
        // time, it accepts exactly the records `read_exact` feeds it.
        let parse = |rec: &Record, input: &[u8]| {
            let mut r = Counting {
                data: input,
                taken: 0,
            };
            let verdict = match rec.parse {
                Parser::Decoder(make) => {
                    let verdict = next_header(&mut make(), &mut r).map(drop);
                    // (No byte at all is a clean end to the decoder.)
                    let (seen, _) = feed(&mut make(), input.chunks(1));
                    let header_ok = !seen.is_empty();
                    let same = input.is_empty() || verdict.is_ok() == header_ok;
                    assert!(same, "{}: fed 1 byte at a time", rec.what);
                    verdict
                }
                Parser::Read(parse) => parse(&mut r),
            };
            (verdict, r.taken)
        };
        for rec in &records {
            let full = rec.bytes.len();
            assert_eq!(rec.layout, full, "{}: layout", rec.what);
            let (intact, taken) = parse(rec, &[rec.bytes.as_slice(), &trailer].concat());
            assert!(intact.is_ok(), "{}: intact record refused", rec.what);
            assert_eq!(taken, full, "{}: intact record consumed", rec.what);
            // Every truncation is an error (the empty message header is a
            // clean end of stream, which is `Ok(None)`).
            for cut in 1..full {
                let (got, _) = parse(rec, &rec.bytes[..cut]);
                assert!(got.is_err(), "{}: cut at {cut} accepted", rec.what);
            }
            let _ = parse(rec, &[]);
            // Every value at every position, with more bytes behind the
            // record than any layout declares.
            let mut damaged = [rec.bytes.as_slice(), &trailer].concat();
            for at in 0..full {
                for byte in 0..=u8::MAX {
                    damaged[at] = byte;
                    let (_, taken) = parse(rec, &damaged);
                    assert!(
                        taken <= full,
                        "{}: byte {at} = {byte:#04x} read {taken} bytes, layout {full}",
                        rec.what
                    );
                }
                damaged[at] = rec.bytes[at];
            }
        }
        // A v2 level byte is a level or the FIN marker, nothing else: no
        // bit of it is a flag, so `0x40 | l` (0x40..=0x4A, inside the
        // range below) is as out of range as 11.
        for level in 11..=0xFEu8 {
            let mut h = v2.encode();
            h[0] = level;
            let err = v2_frame(FrameHeaderV2::decode(&h)).expect_err("out-of-range level accepted");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "level {level:#04x}");
        }
        // A hello's version byte is 4, nothing else, and a wrong one is
        // refused on the 5-byte prefix: no older layout's tail is read.
        for version in (0..=u8::MAX).filter(|&v| v != GROUP_VERSION_SESSION) {
            let mut h = [session.encode().as_slice(), &trailer].concat();
            h[2] = version;
            let mut r = Counting { data: &h, taken: 0 };
            let err = SessionHello::read(&mut r).expect_err("foreign hello version accepted");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "version {version}");
            assert!(r.taken <= 5, "version {version}: read {} bytes", r.taken);
        }
    }
}
