//! # adoc-sim — network & environment simulation substrate
//!
//! The AdOC paper evaluates on four physical networks (100 Mbit LAN,
//! Renater WAN, transatlantic Internet, Gbit LAN). This crate stands in
//! for them with in-process links that reproduce the properties the
//! library's adaptation actually observes:
//!
//! * [`pipe`] — unshaped bounded byte pipes with POSIX semantics;
//! * [`link`] — token-bucket-shaped duplex links: bandwidth, one-way
//!   latency, jitter, bounded send burst (what the 256 KB probe measures)
//!   and receive window;
//! * [`trace`] — piecewise-constant bandwidth traces for congestion
//!   scenarios;
//! * [`netprofiles`] — the paper's four networks as ready-made configs;
//! * [`stats`] — unit conversions for throughput reports.
//!
//! ```
//! use adoc_sim::{link, netprofiles::NetProfile};
//! use std::io::{Read, Write};
//!
//! let (mut a, mut b) = link::duplex(NetProfile::Lan100.link_cfg());
//! let sender = std::thread::spawn(move || {
//!     a.write_all(b"over the simulated LAN").unwrap();
//!     a.shutdown_write();
//!     a // keep the endpoint alive until the reader finishes
//! });
//! let mut got = String::new();
//! b.read_to_string(&mut got).unwrap();
//! let _a = sender.join().unwrap();
//! assert_eq!(got, "over the simulated LAN");
//! ```

#![warn(missing_docs)]
pub mod link;
pub mod netprofiles;
pub mod pipe;
pub mod stats;
pub mod trace;

pub use link::{duplex, duplex_asymmetric, LinkCfg, SimSocket};
pub use netprofiles::NetProfile;
pub use trace::{mbit, BandwidthTrace};
