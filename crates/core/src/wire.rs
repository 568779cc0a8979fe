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
//! never per message:
//!
//! * `streams == 1`: nothing is added to the wire. The byte stream is
//!   exactly v1 — a v2-capable endpoint talking on one stream is
//!   indistinguishable from (and interoperable with) a v1 endpoint.
//! * `streams >= 2`: each endpoint sends a [`GroupHello`] on every
//!   stream and reads its peer's hello from every stream before any
//!   message flows. Both sides must announce the **same stream count**;
//!   a mismatch (or a v1 peer's message header arriving where a hello
//!   was expected) is an `InvalidData` error, not a silent
//!   renegotiation.
//!
//!   Two hello encodings exist:
//!
//!   * version 2 — 5 bytes: `magic 0xAD, 'G', 2, streams, stream_id`;
//!   * version 3 — 13 bytes: the same followed by a little-endian
//!     `token: u64`. The token names the *group* the stream belongs to,
//!     so a multi-client daemon can reassemble groups whose connections
//!     interleave in its accept queue (every client on `127.0.0.1`
//!     shares a peer address — without the token, two concurrent
//!     2-stream dials are indistinguishable). `token == 0` is reserved
//!     to mean "untokened" and is what a version-2 hello decodes to.
//!
//!   Readers accept both versions; [`crate::AdocStreamGroup::connect`]
//!   sends version 3 with a fresh nonzero token, symmetric
//!   `from_pairs` construction (where grouping is already decided by
//!   the caller) stays on version 2.

use std::io::{self, Read, Write};

/// Message header magic byte.
pub const MAGIC: u8 = 0xAD;

/// Second magic byte of a stream-group hello (`'G'`).
pub const GROUP_MAGIC: u8 = b'G';

/// Wire-format version of an untokened [`GroupHello`].
pub const GROUP_VERSION: u8 = 2;

/// Wire-format version of a tokened [`GroupHello`] (adds a `u64` group
/// token after the version-2 fields).
pub const GROUP_VERSION_TOKENED: u8 = 3;

/// Wire-format version of a [`SessionHello`]: the version-3 layout
/// followed by the session fields (kind, session id, expiry, MAC).
pub const GROUP_VERSION_SESSION: u8 = 4;

/// Second magic byte of a [`SessionAccept`] reply (`'S'`).
pub const SESSION_MAGIC: u8 = b'S';

/// Size of an encoded message header.
pub const MSG_HEADER_LEN: usize = 10;
/// Size of an encoded frame header.
pub const FRAME_HEADER_LEN: usize = 9;
/// Size of an encoded v2 frame header.
pub const FRAME_HEADER_V2_LEN: usize = 18;
/// Size of an encoded untokened (version 2) stream-group hello.
pub const GROUP_HELLO_LEN: usize = 5;
/// Size of an encoded tokened (version 3) stream-group hello.
pub const GROUP_HELLO_TOKENED_LEN: usize = GROUP_HELLO_LEN + 8;
/// Size of an encoded session (version 4) hello: the tokened layout plus
/// `kind`, `session_id`, `expires_us` and a 16-byte MAC.
pub const SESSION_HELLO_LEN: usize = GROUP_HELLO_TOKENED_LEN + 1 + 8 + 8 + 16;
/// Size of an encoded [`SessionAccept`] reply.
pub const SESSION_ACCEPT_LEN: usize = 2 + 1 + 1 + 8 + 8 + 16 + 8 + 8;

/// Level byte marking a v2 end-of-message frame on one stream.
pub const LEVEL_FIN: u8 = 0xFF;

/// Flag bit in the v2 level byte announcing that a little-endian `u64`
/// departure timestamp (µs, sender's [`crate::SignalHub`] clock)
/// follows the fixed header. Compression levels top out at 10, so the
/// bit never collides with a real level; [`LEVEL_FIN`] is tested first,
/// so FIN frames (which never carry timestamps) are unaffected.
pub const FRAME_TS_FLAG: u8 = 0x40;

/// Size of an encoded v2 frame header carrying a departure timestamp.
pub const FRAME_HEADER_V2_TS_LEN: usize = FRAME_HEADER_V2_LEN + 8;

/// Largest raw (and encoded) frame size the u32 header fields can carry.
/// The sender refuses larger buffers with
/// [`crate::error::AdocError::FrameTooLarge`] instead of truncating.
pub const MAX_FRAME_LEN: u64 = u32::MAX as u64;

/// How a message's body is encoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgKind {
    /// Raw bytes, no threads involved.
    Direct,
    /// Probe prefix + compressed frames.
    Adaptive,
}

impl MsgKind {
    fn to_byte(self) -> u8 {
        match self {
            MsgKind::Direct => 0,
            MsgKind::Adaptive => 1,
        }
    }

    fn from_byte(b: u8) -> io::Result<Self> {
        match b {
            0 => Ok(MsgKind::Direct),
            1 => Ok(MsgKind::Adaptive),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unknown AdOC message kind {other}"),
            )),
        }
    }
}

/// Encodes a message header into a 10-byte array.
pub fn encode_msg_header(kind: MsgKind, raw_len: u64) -> [u8; MSG_HEADER_LEN] {
    let mut h = [0u8; MSG_HEADER_LEN];
    h[0] = MAGIC;
    h[1] = kind.to_byte();
    h[2..10].copy_from_slice(&raw_len.to_le_bytes());
    h
}

/// Reads a message header. Returns `Ok(None)` on clean EOF (no bytes at
/// all); a partial header is an error, and so is a length above
/// `max_message` — the bound every receiver (blocking or reactor) applies
/// before it sizes anything from this peer-controlled field.
pub fn read_msg_header(r: &mut impl Read, max_message: u64) -> io::Result<Option<(MsgKind, u64)>> {
    let mut h = [0u8; MSG_HEADER_LEN];
    // First byte decides between EOF and a real header.
    let mut got = 0usize;
    while got < 1 {
        let n = r.read(&mut h[..1])?;
        if n == 0 {
            return Ok(None);
        }
        got = n;
    }
    r.read_exact(&mut h[1..])?;
    if h[0] != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad AdOC magic {:#04x}", h[0]),
        ));
    }
    let kind = MsgKind::from_byte(h[1])?;
    let raw_len = u64::from_le_bytes(h[2..10].try_into().expect("8 bytes"));
    if raw_len > max_message {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("message of {raw_len} bytes exceeds configured maximum"),
        ));
    }
    Ok(Some((kind, raw_len)))
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

    /// Reads and validates a frame header.
    pub fn read(r: &mut impl Read, max_level: u8) -> io::Result<FrameHeader> {
        let mut h = [0u8; FRAME_HEADER_LEN];
        r.read_exact(&mut h)?;
        let level = h[0];
        if level > max_level {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame level {level} exceeds protocol maximum {max_level}"),
            ));
        }
        let raw_len = u32::from_le_bytes(h[1..5].try_into().expect("4 bytes"));
        let payload_len = u32::from_le_bytes(h[5..9].try_into().expect("4 bytes"));
        if level == 0 && raw_len != payload_len {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "raw frame with mismatched lengths",
            ));
        }
        Ok(FrameHeader {
            level,
            raw_len,
            payload_len,
        })
    }

    /// The peer-controlled length bounds, checked before anything is
    /// allocated or read for this frame: the frame must fit in the
    /// `raw_left` bytes the message still owes, and a payload can exceed
    /// its raw size only by small codec overhead — anything larger is
    /// corruption.
    pub fn check_bounds(&self, buffer_size: usize, raw_left: u64) -> io::Result<()> {
        if u64::from(self.raw_len) > raw_left {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "frames exceed message length",
            ));
        }
        if u64::from(self.payload_len) > 2 * u64::from(self.raw_len).max(buffer_size as u64) + 1024
        {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "frame payload too large",
            ));
        }
        Ok(())
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
    /// Departure timestamp (µs on the sender's signal clock), carried
    /// when [`FRAME_TS_FLAG`] is set. Feeds the receiver's
    /// delay-gradient estimator; `None` on FIN frames, on v2 peers
    /// predating the flag, and whenever `delay_signals` is off.
    pub ts_us: Option<u64>,
}

/// An encoded v2 frame header: 18 bytes, or 26 with a timestamp.
/// Dereferences to the valid byte slice.
pub struct EncodedFrameV2 {
    buf: [u8; FRAME_HEADER_V2_TS_LEN],
    len: usize,
}

impl std::ops::Deref for EncodedFrameV2 {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf[..self.len]
    }
}

impl FrameHeaderV2 {
    /// A data frame without a timestamp (the pre-signals v2 layout).
    pub fn data(level: u8, stream: u8, seq: u64, raw_len: u32, payload_len: u32) -> FrameHeaderV2 {
        FrameHeaderV2 {
            level,
            stream,
            seq,
            raw_len,
            payload_len,
            ts_us: None,
        }
    }

    /// The end-of-message marker for `stream`, recording how many data
    /// frames that stream carried.
    pub fn fin(stream: u8, frames_sent: u64) -> FrameHeaderV2 {
        FrameHeaderV2 {
            level: LEVEL_FIN,
            stream,
            seq: frames_sent,
            raw_len: 0,
            payload_len: 0,
            ts_us: None,
        }
    }

    /// True when this header marks end-of-message on its stream.
    pub fn is_fin(&self) -> bool {
        self.level == LEVEL_FIN
    }

    /// The stream-independent part: level and the two lengths.
    pub fn body(&self) -> FrameHeader {
        FrameHeader {
            level: self.level,
            raw_len: self.raw_len,
            payload_len: self.payload_len,
        }
    }

    /// Encodes into 18 bytes, or 26 when a timestamp rides along.
    pub fn encode(&self) -> EncodedFrameV2 {
        let mut h = [0u8; FRAME_HEADER_V2_TS_LEN];
        h[0] = self.level;
        h[1] = self.stream;
        h[2..10].copy_from_slice(&self.seq.to_le_bytes());
        h[10..14].copy_from_slice(&self.raw_len.to_le_bytes());
        h[14..18].copy_from_slice(&self.payload_len.to_le_bytes());
        let len = match self.ts_us {
            Some(ts) if self.level != LEVEL_FIN => {
                h[0] |= FRAME_TS_FLAG;
                h[18..26].copy_from_slice(&ts.to_le_bytes());
                FRAME_HEADER_V2_TS_LEN
            }
            _ => FRAME_HEADER_V2_LEN,
        };
        EncodedFrameV2 { buf: h, len }
    }

    /// Reads and validates a v2 frame header (either layout).
    pub fn read(r: &mut impl Read, max_level: u8) -> io::Result<FrameHeaderV2> {
        let mut h = [0u8; FRAME_HEADER_V2_LEN];
        r.read_exact(&mut h)?;
        // FIN first: 0xFF has the timestamp bit set but is not a
        // timestamped frame.
        let (level, ts_flagged) = if h[0] == LEVEL_FIN {
            (LEVEL_FIN, false)
        } else {
            (h[0] & !FRAME_TS_FLAG, h[0] & FRAME_TS_FLAG != 0)
        };
        if level != LEVEL_FIN && level > max_level {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame level {level} exceeds protocol maximum {max_level}"),
            ));
        }
        let stream = h[1];
        let seq = u64::from_le_bytes(h[2..10].try_into().expect("8 bytes"));
        let raw_len = u32::from_le_bytes(h[10..14].try_into().expect("4 bytes"));
        let payload_len = u32::from_le_bytes(h[14..18].try_into().expect("4 bytes"));
        let ts_us = if ts_flagged {
            let mut t = [0u8; 8];
            r.read_exact(&mut t)?;
            Some(u64::from_le_bytes(t))
        } else {
            None
        };
        if level == LEVEL_FIN && (raw_len != 0 || payload_len != 0) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "FIN frame with non-empty payload",
            ));
        }
        if level == 0 && raw_len != payload_len {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "raw frame with mismatched lengths",
            ));
        }
        Ok(FrameHeaderV2 {
            level,
            stream,
            seq,
            raw_len,
            payload_len,
            ts_us,
        })
    }
}

/// How one message's adaptive frames are headed on the wire. Both ends
/// derive it from what they already agree on — the group width and
/// whether the message is a resumed tail — once per message, so the
/// pipeline code is the same for every stream count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Framing {
    /// The paper's format: 9-byte [`FrameHeader`]s on the only stream,
    /// numbered by arrival order; the message ends on its byte count.
    V1,
    /// Striped format: [`FrameHeaderV2`]s naming stream and global
    /// sequence number (plus a departure stamp when `timestamped`); every
    /// stream ends the message with a FIN.
    V2 {
        /// Data frames carry [`FRAME_TS_FLAG`] and a timestamp.
        timestamped: bool,
    },
}

impl Framing {
    /// `V1` iff one stream carries a fresh message: a resumed tail needs
    /// explicit sequence numbers to slot in behind the delivered prefix,
    /// whatever its width. `timestamped` only matters to the sender (the
    /// reader follows the per-frame flag).
    pub(crate) fn choose(streams: usize, resumed: bool, timestamped: bool) -> Framing {
        if streams == 1 && !resumed {
            Framing::V1
        } else {
            Framing::V2 { timestamped }
        }
    }

    /// Bytes a data frame's header occupies in front of its payload.
    pub(crate) fn header_len(self) -> usize {
        match self {
            Framing::V1 => FRAME_HEADER_LEN,
            Framing::V2 { timestamped: false } => FRAME_HEADER_V2_LEN,
            Framing::V2 { timestamped: true } => FRAME_HEADER_V2_TS_LEN,
        }
    }

    /// True when every stream ends the message with a FIN marker (else
    /// the byte count ends it).
    pub(crate) fn owes_fin(self) -> bool {
        matches!(self, Framing::V2 { .. })
    }

    /// Encodes a data frame's header into `dst`, which must be exactly
    /// [`Self::header_len`] bytes. `V1` drops `stream`/`seq`/`ts_us`; an
    /// untimestamped `V2` drops `ts_us`.
    pub(crate) fn encode_header(
        self,
        dst: &mut [u8],
        body: FrameHeader,
        stream: u8,
        seq: u64,
        ts_us: Option<u64>,
    ) {
        match self {
            Framing::V1 => dst.copy_from_slice(&body.encode()),
            Framing::V2 { timestamped } => {
                let mut fh =
                    FrameHeaderV2::data(body.level, stream, seq, body.raw_len, body.payload_len);
                fh.ts_us = ts_us.filter(|_| timestamped);
                dst.copy_from_slice(&fh.encode());
            }
        }
    }

    /// Reads and validates the next frame header on `stream`. A `V1`
    /// header names neither stream nor sequence number, so the reader
    /// supplies them: `next_seq` is how many frames it has seen so far.
    pub(crate) fn read_header(
        self,
        r: &mut impl Read,
        stream: u8,
        next_seq: u64,
    ) -> io::Result<FrameHeaderV2> {
        let max_level = adoc_codec::ADOC_MAX_LEVEL;
        match self {
            Framing::V1 => FrameHeader::read(r, max_level)
                .map(|h| FrameHeaderV2::data(h.level, stream, next_seq, h.raw_len, h.payload_len)),
            Framing::V2 { .. } => FrameHeaderV2::read(r, max_level),
        }
    }
}

/// The per-stream negotiation record exchanged when a stream group forms
/// (see the module docs' negotiation rule). Never sent when
/// `streams == 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupHello {
    /// Total streams in the group the sender is announcing.
    pub streams: u8,
    /// Which stream of the group this hello travels on (0-based).
    pub stream_id: u8,
    /// Group token naming which dial this stream belongs to (0 =
    /// untokened / version-2 hello). A multi-client acceptor groups
    /// streams by token; point-to-point construction ignores it.
    pub token: u64,
}

impl GroupHello {
    /// An untokened hello (encodes as version 2).
    pub fn new(streams: u8, stream_id: u8) -> GroupHello {
        GroupHello {
            streams,
            stream_id,
            token: 0,
        }
    }

    /// Encodes as version 2 (5 bytes, `token == 0`) or version 3
    /// (13 bytes) depending on the token.
    pub fn encode(&self) -> Vec<u8> {
        let version = if self.token == 0 {
            GROUP_VERSION
        } else {
            GROUP_VERSION_TOKENED
        };
        let mut out = vec![MAGIC, GROUP_MAGIC, version, self.streams, self.stream_id];
        if self.token != 0 {
            out.extend_from_slice(&self.token.to_le_bytes());
        }
        out
    }

    /// Reads and validates a hello of either version.
    pub fn read(r: &mut impl Read) -> io::Result<GroupHello> {
        let mut h = [0u8; GROUP_HELLO_LEN];
        r.read_exact(&mut h)?;
        if h[0] != MAGIC || h[1] != GROUP_MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "expected stream-group hello, got {:#04x} {:#04x} (v1 peer on a multi-stream group?)",
                    h[0], h[1]
                ),
            ));
        }
        let token = match h[2] {
            GROUP_VERSION => 0,
            GROUP_VERSION_TOKENED => {
                let mut t = [0u8; 8];
                r.read_exact(&mut t)?;
                u64::from_le_bytes(t)
            }
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unsupported stream-group version {other}"),
                ));
            }
        };
        if h[3] == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "stream-group hello announcing zero streams",
            ));
        }
        Ok(GroupHello {
            streams: h[3],
            stream_id: h[4],
            token,
        })
    }
}

/// What a version-4 hello is asking for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionKind {
    /// Open a fresh session; the ticket fields are zero (or, under
    /// `require_auth`, the MAC authenticates the hello itself).
    New,
    /// Resume the session the embedded ticket names.
    Resume,
}

impl SessionKind {
    fn to_byte(self) -> u8 {
        match self {
            SessionKind::New => 0,
            SessionKind::Resume => 1,
        }
    }

    fn from_byte(b: u8) -> io::Result<Self> {
        match b {
            0 => Ok(SessionKind::New),
            1 => Ok(SessionKind::Resume),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unknown session hello kind {other}"),
            )),
        }
    }
}

/// The version-4 per-stream negotiation record: a [`GroupHello`] that
/// additionally names (or requests) a **session**. All session fields are
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
    /// Total streams in the group the sender is announcing (1 is legal
    /// here, unlike plain group hellos: a session may span one stream).
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
        out[13] = self.kind.to_byte();
        out[14..22].copy_from_slice(&self.session_id.to_le_bytes());
        out[22..30].copy_from_slice(&self.expires_us.to_le_bytes());
        out[30..46].copy_from_slice(&self.mac);
        out
    }

    /// Reads the fields following the 5-byte hello prefix (magic, group
    /// magic, version, streams, stream_id), which the caller has already
    /// consumed and validated as version 4.
    fn read_tail(r: &mut impl Read, streams: u8, stream_id: u8) -> io::Result<SessionHello> {
        let mut tail = [0u8; SESSION_HELLO_LEN - GROUP_HELLO_LEN];
        r.read_exact(&mut tail)?;
        let token = u64::from_le_bytes(tail[..8].try_into().expect("8 bytes"));
        let kind = SessionKind::from_byte(tail[8])?;
        let session_id = u64::from_le_bytes(tail[9..17].try_into().expect("8 bytes"));
        let expires_us = u64::from_le_bytes(tail[17..25].try_into().expect("8 bytes"));
        let mut mac = [0u8; 16];
        mac.copy_from_slice(&tail[25..41]);
        Ok(SessionHello {
            streams,
            stream_id,
            token,
            kind,
            session_id,
            expires_us,
            mac,
        })
    }
}

/// Any hello an acceptor may receive: legacy group (v2/v3) or session
/// (v4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hello {
    /// A version-2/3 [`GroupHello`].
    Group(GroupHello),
    /// A version-4 [`SessionHello`].
    Session(SessionHello),
}

/// Reads a hello of any supported version — the acceptor-side entry
/// point. Shares validation with [`GroupHello::read`] (magic, version,
/// nonzero stream count).
pub fn read_hello(r: &mut impl Read) -> io::Result<Hello> {
    let mut h = [0u8; GROUP_HELLO_LEN];
    r.read_exact(&mut h)?;
    if h[0] != MAGIC || h[1] != GROUP_MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "expected stream-group hello, got {:#04x} {:#04x} (v1 peer on a multi-stream group?)",
                h[0], h[1]
            ),
        ));
    }
    if h[3] == 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "stream-group hello announcing zero streams",
        ));
    }
    match h[2] {
        GROUP_VERSION => Ok(Hello::Group(GroupHello {
            streams: h[3],
            stream_id: h[4],
            token: 0,
        })),
        GROUP_VERSION_TOKENED => {
            let mut t = [0u8; 8];
            r.read_exact(&mut t)?;
            Ok(Hello::Group(GroupHello {
                streams: h[3],
                stream_id: h[4],
                token: u64::from_le_bytes(t),
            }))
        }
        GROUP_VERSION_SESSION => Ok(Hello::Session(SessionHello::read_tail(r, h[3], h[4])?)),
        other => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unsupported stream-group version {other}"),
        )),
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

/// The acceptor's reply to a [`SessionHello`], written on the primary
/// stream after the per-stream [`GroupHello`] answers (on accept), or on
/// each stream *instead* of a hello (on reject — so a rejected client
/// learns why before the socket closes).
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
        Self::parse(&h)
    }

    /// Parses an already-buffered 52-byte reply (the client sniffs the
    /// first two bytes to distinguish accept-path hellos from rejects,
    /// then hands the full buffer here).
    pub fn parse(h: &[u8; SESSION_ACCEPT_LEN]) -> io::Result<SessionAccept> {
        if h[0] != MAGIC || h[1] != SESSION_MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected session accept, got {:#04x} {:#04x}", h[0], h[1]),
            ));
        }
        let mut mac = [0u8; 16];
        mac.copy_from_slice(&h[20..36]);
        Ok(SessionAccept {
            status: h[2],
            resumed: h[3],
            session_id: u64::from_le_bytes(h[4..12].try_into().expect("8 bytes")),
            expires_us: u64::from_le_bytes(h[12..20].try_into().expect("8 bytes")),
            mac,
            next_seq: u64::from_le_bytes(h[36..44].try_into().expect("8 bytes")),
            delivered_raw: u64::from_le_bytes(h[44..52].try_into().expect("8 bytes")),
        })
    }
}

/// Writes a `u32` length prefix (probe segment).
pub fn write_u32(w: &mut impl Write, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// Reads a `u32` length prefix.
pub fn read_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn msg_header_roundtrip() {
        for (kind, len) in [(MsgKind::Direct, 0u64), (MsgKind::Adaptive, u64::MAX / 2)] {
            let enc = encode_msg_header(kind, len);
            let mut c = Cursor::new(enc.to_vec());
            let (k, l) = read_msg_header(&mut c, u64::MAX).unwrap().unwrap();
            assert_eq!((k, l), (kind, len));
        }
    }

    #[test]
    fn clean_eof_is_none() {
        let mut c = Cursor::new(Vec::<u8>::new());
        assert!(read_msg_header(&mut c, u64::MAX).unwrap().is_none());
    }

    #[test]
    fn partial_header_is_error() {
        let enc = encode_msg_header(MsgKind::Direct, 42);
        let mut c = Cursor::new(enc[..4].to_vec());
        assert!(read_msg_header(&mut c, u64::MAX).is_err());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut enc = encode_msg_header(MsgKind::Direct, 1).to_vec();
        enc[0] = 0x00;
        assert!(read_msg_header(&mut Cursor::new(enc), u64::MAX).is_err());
    }

    #[test]
    fn bad_kind_rejected() {
        let mut enc = encode_msg_header(MsgKind::Direct, 1).to_vec();
        enc[1] = 9;
        assert!(read_msg_header(&mut Cursor::new(enc), u64::MAX).is_err());
    }

    #[test]
    fn frame_header_roundtrip() {
        let fh = FrameHeader {
            level: 7,
            raw_len: 204_800,
            payload_len: 31_337,
        };
        let mut c = Cursor::new(fh.encode().to_vec());
        assert_eq!(FrameHeader::read(&mut c, 10).unwrap(), fh);
    }

    #[test]
    fn frame_level_out_of_range() {
        let fh = FrameHeader {
            level: 11,
            raw_len: 10,
            payload_len: 10,
        };
        let mut c = Cursor::new(fh.encode().to_vec());
        assert!(FrameHeader::read(&mut c, 10).is_err());
    }

    #[test]
    fn raw_frame_length_mismatch_rejected() {
        let fh = FrameHeader {
            level: 0,
            raw_len: 10,
            payload_len: 9,
        };
        let mut c = Cursor::new(fh.encode().to_vec());
        assert!(FrameHeader::read(&mut c, 10).is_err());
    }

    #[test]
    fn frame_v2_roundtrip() {
        let fh = FrameHeaderV2::data(9, 3, u64::MAX / 3, 204_800, 55_555);
        let enc = fh.encode();
        assert_eq!(enc.len(), FRAME_HEADER_V2_LEN, "no ts: layout unchanged");
        let mut c = Cursor::new(enc.to_vec());
        assert_eq!(FrameHeaderV2::read(&mut c, 10).unwrap(), fh);
    }

    #[test]
    fn frame_v2_timestamp_roundtrip() {
        let fh = FrameHeaderV2 {
            ts_us: Some(123_456_789_012),
            ..FrameHeaderV2::data(7, 1, 42, 204_800, 31_337)
        };
        let enc = fh.encode();
        assert_eq!(enc.len(), FRAME_HEADER_V2_TS_LEN);
        assert_eq!(enc[0], 7 | FRAME_TS_FLAG);
        let mut c = Cursor::new(enc.to_vec());
        let got = FrameHeaderV2::read(&mut c, 10).unwrap();
        assert_eq!(got, fh);
        assert_eq!(got.ts_us, Some(123_456_789_012));
    }

    #[test]
    fn frame_v2_timestamped_level_zero_roundtrips() {
        // Level 0 (raw) with the ts flag: the flag must be masked off
        // before the raw-length consistency check.
        let fh = FrameHeaderV2 {
            ts_us: Some(5),
            ..FrameHeaderV2::data(0, 0, 0, 8_192, 8_192)
        };
        let mut c = Cursor::new(fh.encode().to_vec());
        assert_eq!(FrameHeaderV2::read(&mut c, 10).unwrap(), fh);
    }

    #[test]
    fn frame_v2_truncated_timestamp_is_error() {
        let fh = FrameHeaderV2 {
            ts_us: Some(99),
            ..FrameHeaderV2::data(3, 0, 1, 10, 10)
        };
        let enc = fh.encode().to_vec();
        let mut c = Cursor::new(enc[..FRAME_HEADER_V2_LEN + 3].to_vec());
        assert!(FrameHeaderV2::read(&mut c, 10).is_err());
    }

    #[test]
    fn fin_never_carries_a_timestamp() {
        // A FIN built with a timestamp silently encodes without one:
        // 0xFF already has the flag bit, so a timestamped FIN would be
        // unparseable.
        let fin = FrameHeaderV2 {
            ts_us: Some(7),
            ..FrameHeaderV2::fin(1, 3)
        };
        let enc = fin.encode();
        assert_eq!(enc.len(), FRAME_HEADER_V2_LEN);
        let mut c = Cursor::new(enc.to_vec());
        let got = FrameHeaderV2::read(&mut c, 10).unwrap();
        assert!(got.is_fin());
        assert_eq!(got.ts_us, None);
    }

    #[test]
    fn frame_v2_fin_roundtrip() {
        let fin = FrameHeaderV2::fin(2, 41);
        assert!(fin.is_fin());
        let mut c = Cursor::new(fin.encode().to_vec());
        let got = FrameHeaderV2::read(&mut c, 10).unwrap();
        assert_eq!(got, fin);
        assert_eq!(got.seq, 41);
    }

    #[test]
    fn frame_v2_rejects_bad_level_and_nonempty_fin() {
        let mut bad_level = FrameHeaderV2::data(11, 0, 0, 1, 1).encode().to_vec();
        assert!(FrameHeaderV2::read(&mut Cursor::new(bad_level.clone()), 10).is_err());
        // A FIN whose length fields are non-zero is corrupt.
        bad_level[0] = LEVEL_FIN;
        assert!(FrameHeaderV2::read(&mut Cursor::new(bad_level), 10).is_err());
    }

    #[test]
    fn frame_v2_raw_length_mismatch_rejected() {
        let fh = FrameHeaderV2::data(0, 1, 7, 10, 9);
        let mut c = Cursor::new(fh.encode().to_vec());
        assert!(FrameHeaderV2::read(&mut c, 10).is_err());
    }

    #[test]
    fn group_hello_roundtrip() {
        let h = GroupHello::new(4, 2);
        let enc = h.encode();
        assert_eq!(enc.len(), GROUP_HELLO_LEN, "untokened hello stays v2");
        assert_eq!(enc[2], GROUP_VERSION);
        let mut c = Cursor::new(enc);
        assert_eq!(GroupHello::read(&mut c).unwrap(), h);
    }

    #[test]
    fn tokened_group_hello_roundtrip() {
        let h = GroupHello {
            streams: 8,
            stream_id: 5,
            token: 0xDEAD_BEEF_CAFE_F00D,
        };
        let enc = h.encode();
        assert_eq!(enc.len(), GROUP_HELLO_TOKENED_LEN);
        assert_eq!(enc[2], GROUP_VERSION_TOKENED);
        let mut c = Cursor::new(enc);
        assert_eq!(GroupHello::read(&mut c).unwrap(), h);
    }

    #[test]
    fn truncated_tokened_hello_is_error() {
        let h = GroupHello {
            streams: 2,
            stream_id: 0,
            token: 42,
        };
        let enc = h.encode();
        // Cut inside the token field: the reader must not misparse.
        let mut c = Cursor::new(enc[..GROUP_HELLO_LEN + 3].to_vec());
        assert!(GroupHello::read(&mut c).is_err());
    }

    #[test]
    fn session_hello_roundtrip_via_read_hello() {
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
        assert_eq!(read_hello(&mut c).unwrap(), Hello::Session(h));
        // Legacy hellos still parse through the same entry point.
        let legacy = GroupHello {
            streams: 2,
            stream_id: 1,
            token: 99,
        };
        let mut c = Cursor::new(legacy.encode());
        assert_eq!(read_hello(&mut c).unwrap(), Hello::Group(legacy));
    }

    #[test]
    fn session_hello_rejects_truncation_and_bad_kind() {
        let h = SessionHello {
            streams: 2,
            stream_id: 0,
            token: 1,
            kind: SessionKind::New,
            session_id: 0,
            expires_us: 0,
            mac: [0u8; 16],
        };
        let enc = h.encode();
        for cut in [6, 13, 20, 45] {
            let mut c = Cursor::new(enc[..cut].to_vec());
            assert!(read_hello(&mut c).is_err(), "cut {cut}");
        }
        let mut bad = enc;
        bad[13] = 9; // unknown kind byte
        assert!(read_hello(&mut Cursor::new(bad.to_vec())).is_err());
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
        assert!(SessionAccept::parse(&bad).is_err());
    }

    #[test]
    fn group_hello_rejects_v1_traffic_and_bad_version() {
        // A v1 message header where a hello is expected must error, not
        // be misparsed.
        let msg = encode_msg_header(MsgKind::Direct, 99);
        assert!(GroupHello::read(&mut Cursor::new(msg.to_vec())).is_err());
        let mut bad = GroupHello::new(2, 0).encode();
        bad[2] = 4; // future version
        assert!(GroupHello::read(&mut Cursor::new(bad)).is_err());
        let mut zero = GroupHello::new(2, 0).encode();
        zero[3] = 0;
        assert!(GroupHello::read(&mut Cursor::new(zero)).is_err());
        // Zero streams is rejected in the tokened form too.
        let mut zero3 = GroupHello {
            streams: 2,
            stream_id: 0,
            token: 7,
        }
        .encode();
        zero3[3] = 0;
        assert!(GroupHello::read(&mut Cursor::new(zero3)).is_err());
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
    /// declares for a given header (a flag or version byte may lengthen it).
    struct Record {
        what: &'static str,
        bytes: Vec<u8>,
        parse: fn(&mut Counting<'_>) -> io::Result<()>,
        layout: fn(&[u8]) -> usize,
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
        let v2_ts = FrameHeaderV2 {
            ts_us: Some(123_456),
            ..v2
        };
        let frame_v2_layout = |h: &[u8]| match h[0] {
            LEVEL_FIN => FRAME_HEADER_V2_LEN,
            b if b & FRAME_TS_FLAG != 0 => FRAME_HEADER_V2_TS_LEN,
            _ => FRAME_HEADER_V2_LEN,
        };
        let group_layout = |h: &[u8]| match h[2] {
            GROUP_VERSION_TOKENED => GROUP_HELLO_TOKENED_LEN,
            _ => GROUP_HELLO_LEN,
        };
        let hello_layout = |h: &[u8]| match h[2] {
            GROUP_VERSION_TOKENED => GROUP_HELLO_TOKENED_LEN,
            GROUP_VERSION_SESSION => SESSION_HELLO_LEN,
            _ => GROUP_HELLO_LEN,
        };
        let records = [
            Record {
                what: "message header",
                bytes: encode_msg_header(MsgKind::Adaptive, 3 << 20).to_vec(),
                parse: |r| read_msg_header(r, 1 << 30).map(drop),
                layout: |_| MSG_HEADER_LEN,
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
                parse: |r| FrameHeader::read(r, adoc_codec::ADOC_MAX_LEVEL).map(drop),
                layout: |_| FRAME_HEADER_LEN,
            },
            Record {
                what: "v2 frame header",
                bytes: v2.encode().to_vec(),
                parse: |r| FrameHeaderV2::read(r, adoc_codec::ADOC_MAX_LEVEL).map(drop),
                layout: frame_v2_layout,
            },
            Record {
                what: "timestamped v2 frame header",
                bytes: v2_ts.encode().to_vec(),
                parse: |r| FrameHeaderV2::read(r, adoc_codec::ADOC_MAX_LEVEL).map(drop),
                layout: frame_v2_layout,
            },
            Record {
                what: "v2 group hello",
                bytes: GroupHello::new(4, 2).encode(),
                parse: |r| GroupHello::read(r).map(drop),
                layout: group_layout,
            },
            Record {
                what: "v3 group hello",
                bytes: GroupHello {
                    streams: 2,
                    stream_id: 1,
                    token: 0xDEAD_BEEF,
                }
                .encode(),
                parse: |r| GroupHello::read(r).map(drop),
                layout: group_layout,
            },
            Record {
                what: "v4 session hello",
                bytes: session.encode().to_vec(),
                parse: |r| read_hello(r).map(drop),
                layout: hello_layout,
            },
            Record {
                what: "session accept",
                bytes: accept.encode().to_vec(),
                parse: |r| SessionAccept::read(r).map(drop),
                layout: |_| SESSION_ACCEPT_LEN,
            },
        ];
        // Whatever follows a record on the stream belongs to the next
        // one: a parser that reads into it would desynchronise.
        let trailer = [0xEEu8; 64];
        // A panic anywhere below fails the test; an error of any kind is
        // an acceptable answer to a damaged record.
        let parse = |rec: &Record, input: &[u8]| {
            let mut r = Counting {
                data: input,
                taken: 0,
            };
            ((rec.parse)(&mut r), r.taken)
        };
        for rec in &records {
            let full = rec.bytes.len();
            assert_eq!((rec.layout)(&rec.bytes), full, "{}: layout", rec.what);
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
                    let layout = (rec.layout)(&damaged);
                    assert!(
                        taken <= layout,
                        "{}: byte {at} = {byte:#04x} read {taken} bytes, layout {layout}",
                        rec.what
                    );
                }
                damaged[at] = rec.bytes[at];
            }
        }
    }
}
