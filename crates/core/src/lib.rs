//! # adoc — Adaptive Online Compression for data transfer
//!
//! A from-scratch Rust reproduction of the **AdOC** library
//! (E. Jeannot, *Improving Middleware Performance with AdOC: an Adaptive
//! Online Compression Library for Data Transfer*, INRIA RR-5500 /
//! IPPS 2005).
//!
//! AdOC replaces plain socket `read`/`write` with calls that compress
//! **during** transmission, constantly adapting the compression level to
//! the network, the hosts and the data:
//!
//! * a **compression thread** splits each message into 200 KB buffers,
//!   compresses them at the current level and feeds 8 KB packets into a
//!   FIFO queue ([`queue`]);
//! * an **emission thread** drains the queue onto the socket;
//! * the queue's length and growth drive the level up and down
//!   ([`adapt`], the paper's Fig. 2);
//! * the receiving side mirrors this with reception + decompression
//!   threads ([`receiver`]);
//! * production heuristics (paper §5): a direct no-thread path for
//!   messages < 512 KB, a 256 KB uncompressed probe that disables
//!   compression on > 500 Mbit/s links, a divergence guard driven by
//!   per-level visible bandwidth — the slower of wire and compressor
//!   ([`bw`]) — and an incompressible-data guard.
//!
//! Levels: 0 = none, 1 = LZF, 2..=10 = DEFLATE 1..=9 (see `adoc-codec`).
//!
//! ## Two APIs
//!
//! * [`AdocStreamGroup`] — idiomatic: one logical connection over `N`
//!   `Read`/`Write` pairs (per-stream compression pipelines and
//!   congestion windows; in-order reassembly via sequence numbers — see
//!   [`wire`]). [`AdocSocket`] is its one-pair form, the paper's single
//!   socket: same type, same pipeline, v1 wire format.
//! * [`capi`] — the paper's seven functions over integer descriptors
//!   (`adoc_write`, `adoc_read`, `adoc_send_file`, …), thread-safe via a
//!   locked global registry like the C library's static table;
//!   [`adoc_register_group`] puts a stream group behind a descriptor.
//!
//! ## Quickstart
//!
//! ```
//! use adoc::AdocSocket;
//! use adoc_sim::pipe::duplex_pipe;
//!
//! let (a, b) = duplex_pipe(1 << 20);
//! let (ar, aw) = a.split();
//! let (br, bw) = b.split();
//! let mut tx = AdocSocket::new(ar, aw);
//! let mut rx = AdocSocket::new(br, bw);
//!
//! tx.write(b"data to ship").unwrap();
//! let mut buf = [0u8; 12];
//! rx.read_exact(&mut buf).unwrap();
//! assert_eq!(&buf, b"data to ship");
//! ```

#![warn(missing_docs)]
pub mod adapt;
pub mod bw;
pub mod capi;
pub mod config;
pub mod error;
pub mod hist;
pub mod pool;
pub mod queue;
pub mod receiver;
pub mod sender;
pub mod session;
pub mod socket;
pub mod stats;
pub mod throttle;
pub mod wire;

pub use adapt::LevelReason;
pub use capi::{
    adoc_close, adoc_read, adoc_receive_file, adoc_register, adoc_register_cfg,
    adoc_register_group, adoc_send_file, adoc_send_file_levels, adoc_write, adoc_write_levels,
};
pub use config::AdocConfig;
pub use error::AdocError;
pub use hist::{HistSnapshot, HistSummary, Histogram};
pub use pool::{BufferPool, PoolStats, PooledBuf};
pub use receiver::RecvProgress;
pub use session::{SessionTicket, TicketError, TicketKey, TICKET_LEN};
pub use socket::{AdocSocket, AdocStreamGroup, ResumePoint, SendReport, SessionInfo};
pub use stats::{LevelEvent, StreamSendStats, TransferStats};
pub use throttle::{NoThrottle, SleepThrottle, Throttle};

/// Lowest compression level (no compression).
pub const ADOC_MIN_LEVEL: u8 = adoc_codec::ADOC_MIN_LEVEL;
/// Highest compression level (DEFLATE 9).
pub const ADOC_MAX_LEVEL: u8 = adoc_codec::ADOC_MAX_LEVEL;
