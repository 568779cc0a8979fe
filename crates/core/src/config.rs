//! The endpoint settings a caller chooses: level bounds, framing
//! geometry, stream count and the hooks. The level controller
//! ([`crate::adapt`]) reads only the level bounds and the queue capacity
//! from here; the Fig. 2 watermarks and the §5 guard constants are the
//! paper's fixed values, kept as constants beside it
//! ([`crate::adapt::HIGH_WATER`], [`crate::adapt::FORBID_DURATION`], …).

use crate::adapt::HIGH_WATER;
use crate::error::AdocError;
use crate::pool::BufferPool;
use crate::throttle::{NoThrottle, Throttle};
use std::sync::Arc;
use std::time::Duration;

/// Configuration of an AdOC endpoint.
///
/// Defaults are exactly the paper's values; see each field for the section
/// that fixes it.
#[derive(Clone)]
pub struct AdocConfig {
    /// Minimum compression level (§4.1, `ADOC_MIN_LEVEL`). Setting
    /// `min_level ≥ 1` *forces* compression (disables the direct path and
    /// the probe).
    pub min_level: u8,
    /// Maximum compression level (§4.1, `ADOC_MAX_LEVEL`). Setting
    /// `max_level = 0` disables compression entirely.
    pub max_level: u8,
    /// Bytes read per compression unit (§3.2: 200 KB — large enough that
    /// per-buffer compression loses < 6 %, small enough to stay reactive).
    pub buffer_size: usize,
    /// Queue/emission granularity (§3.2: 8 KB packets).
    pub packet_size: usize,
    /// Messages smaller than this take the direct no-thread path
    /// (§5 "Small messages": 512 KB).
    pub probe_threshold: usize,
    /// Bytes sent uncompressed to measure link speed (§5 "Fast Networks":
    /// 256 KB).
    pub probe_size: usize,
    /// Probe speed above which the rest is sent raw (§5: 500 Mbit/s).
    pub fast_bps: f64,
    /// Emission FIFO capacity in packets (bounds sender memory; the paper
    /// leaves this implicit). Must exceed [`HIGH_WATER`], so Fig. 2's top
    /// band is reachable.
    pub queue_cap: usize,
    /// Upper bound accepted for a peer's message size (protects the
    /// receiver from corrupt headers).
    pub max_message: u64,
    /// Parallel TCP streams one logical connection stripes over (1 =
    /// the paper's single-socket pipeline and its exact v1 wire format;
    /// ≥ 2 = one compression thread, emission queue and level controller
    /// *per stream*, v2 framing, negotiated at connect time — see
    /// [`crate::wire`]).
    pub streams: usize,
    /// How long [`crate::AdocStreamGroup::accept`] (and the server
    /// daemon) waits for a connected peer's `SessionHello` before failing
    /// the accept with [`AdocError::HelloTimeout`]. Without this bound a
    /// client that dies between `connect` and its hello wedges the
    /// accept loop forever.
    pub hello_timeout: Duration,
    /// CPU-speed model charged per unit of (de)compression work
    /// (simulation hook; defaults to none).
    pub throttle: Arc<dyn Throttle>,
    /// Frame-buffer slab shared by every clone of this config (clones
    /// share the underlying free list): the send and receive hot paths
    /// draw all their buffers from here instead of the allocator.
    pub pool: BufferPool,
}

impl std::fmt::Debug for AdocConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdocConfig")
            .field("min_level", &self.min_level)
            .field("max_level", &self.max_level)
            .field("buffer_size", &self.buffer_size)
            .field("packet_size", &self.packet_size)
            .field("probe_threshold", &self.probe_threshold)
            .field("probe_size", &self.probe_size)
            .field("fast_bps", &self.fast_bps)
            .field("queue_cap", &self.queue_cap)
            .field("streams", &self.streams)
            .finish_non_exhaustive()
    }
}

impl Default for AdocConfig {
    fn default() -> Self {
        AdocConfig {
            min_level: adoc_codec::ADOC_MIN_LEVEL,
            max_level: adoc_codec::ADOC_MAX_LEVEL,
            buffer_size: 200 * 1024,
            packet_size: 8 * 1024,
            probe_threshold: 512 * 1024,
            probe_size: 256 * 1024,
            fast_bps: 500e6,
            queue_cap: 512,
            max_message: 1 << 40,
            streams: 1,
            hello_timeout: Duration::from_secs(10),
            throttle: Arc::new(NoThrottle),
            pool: BufferPool::default(),
        }
    }
}

impl AdocConfig {
    /// Restricts levels like `adoc_write_levels` / `adoc_send_file_levels`
    /// (§4.1): `max = 0` disables compression, `min ≥ 1` forces it.
    pub fn with_levels(mut self, min: u8, max: u8) -> Self {
        self.min_level = min;
        self.max_level = max;
        self
    }

    /// Installs a CPU-speed model (heterogeneous-host experiments).
    pub fn with_throttle(mut self, t: Arc<dyn Throttle>) -> Self {
        self.throttle = t;
        self
    }

    /// Sets the number of parallel streams (1..=255) a connection built
    /// from this config stripes over.
    pub fn with_streams(mut self, streams: usize) -> Self {
        self.streams = streams;
        self
    }

    /// Sets the stream-group hello timeout (see
    /// [`AdocConfig::hello_timeout`]).
    pub fn with_hello_timeout(mut self, timeout: Duration) -> Self {
        self.hello_timeout = timeout;
        self
    }

    /// True when the caller forces compression on (paper: `min` set above
    /// `ADOC_MIN_LEVEL`).
    pub fn compression_forced(&self) -> bool {
        self.min_level >= 1
    }

    /// True when compression is disabled outright (paper: `max` set to
    /// `ADOC_MIN_LEVEL`).
    pub fn compression_disabled(&self) -> bool {
        self.max_level == 0
    }

    /// Checks the configuration for consistency, returning a typed
    /// [`AdocError::InvalidConfig`] naming the violated rule.
    ///
    /// Called by every construction path ([`crate::AdocSocket`],
    /// [`crate::AdocStreamGroup`], `adoc_register_cfg`, the server
    /// daemon), so a nonsensical config — zero streams, a zero-capacity
    /// queue, a packet smaller than a frame header — surfaces as an
    /// error at the API boundary instead of a panic (or a hang) deep
    /// inside the pipeline threads.
    pub fn validate(&self) -> Result<(), AdocError> {
        fn bad(reason: impl Into<String>) -> Result<(), AdocError> {
            Err(AdocError::InvalidConfig {
                reason: reason.into(),
            })
        }
        if self.min_level > self.max_level {
            return bad(format!(
                "min_level {} > max_level {}",
                self.min_level, self.max_level
            ));
        }
        if self.max_level > adoc_codec::ADOC_MAX_LEVEL {
            return bad(format!(
                "max_level {} out of range (max {})",
                self.max_level,
                adoc_codec::ADOC_MAX_LEVEL
            ));
        }
        if self.packet_size < crate::wire::FRAME_HEADER_LEN {
            return bad(format!(
                "packet_size {} smaller than a frame header ({} bytes)",
                self.packet_size,
                crate::wire::FRAME_HEADER_LEN
            ));
        }
        if self.buffer_size == 0 || self.buffer_size as u64 > crate::wire::MAX_FRAME_LEN {
            return bad(format!(
                "buffer_size {} must be in 1..={} (a frame's u32 length fields)",
                self.buffer_size,
                crate::wire::MAX_FRAME_LEN
            ));
        }
        if self.packet_size > self.buffer_size {
            return bad(format!(
                "packet_size {} exceeds buffer_size {}",
                self.packet_size, self.buffer_size
            ));
        }
        if self.probe_size > self.probe_threshold {
            return bad(format!(
                "probe_size {} exceeds probe_threshold {}",
                self.probe_size, self.probe_threshold
            ));
        }
        if self.queue_cap <= HIGH_WATER {
            return bad(format!(
                "queue_cap {} must exceed HIGH_WATER {HIGH_WATER}",
                self.queue_cap
            ));
        }
        if self.streams < 1 || self.streams > 255 {
            return bad(format!(
                "streams {} must be in 1..=255 (stream ids are u8)",
                self.streams
            ));
        }
        if self.hello_timeout.is_zero() {
            // `set_read_timeout(Some(ZERO))` is an error by std's
            // contract, so a zero timeout would fail at accept time with
            // an opaque InvalidInput instead of here.
            return bad("hello_timeout must be > 0 (there is no 'no timeout' setting)");
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = AdocConfig::default();
        c.validate().unwrap();
        assert_eq!(c.buffer_size, 200 * 1024);
        assert_eq!(c.packet_size, 8 * 1024);
        assert_eq!(c.probe_threshold, 512 * 1024);
        assert_eq!(c.probe_size, 256 * 1024);
        assert_eq!(c.fast_bps, 500e6);
        assert!(!c.compression_forced());
        assert!(!c.compression_disabled());
    }

    #[test]
    fn forced_and_disabled_flags() {
        assert!(AdocConfig::default()
            .with_levels(1, 10)
            .compression_forced());
        assert!(AdocConfig::default()
            .with_levels(0, 0)
            .compression_disabled());
    }

    /// The reason string of the typed error `cfg` fails with.
    fn reason(cfg: &AdocConfig) -> String {
        match cfg.validate().unwrap_err() {
            crate::error::AdocError::InvalidConfig { reason } => reason,
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn invalid_levels_rejected() {
        let cfg = AdocConfig::default().with_levels(5, 2);
        assert!(reason(&cfg).contains("min_level 5 > max_level 2"));
    }

    #[test]
    fn stream_counts_validate() {
        assert_eq!(AdocConfig::default().streams, 1, "default stays v1");
        AdocConfig::default().with_streams(4).validate().unwrap();
        AdocConfig::default().with_streams(255).validate().unwrap();
    }

    #[test]
    fn zero_streams_rejected() {
        let cfg = AdocConfig::default().with_streams(0);
        assert!(reason(&cfg).contains("streams 0 must be in 1..=255"));
    }

    #[test]
    fn pipeline_panicking_configs_are_typed_errors() {
        // Each of these used to survive construction and panic (or hang)
        // only once the pipeline threads touched the bad field.
        let tiny_packet = AdocConfig {
            packet_size: crate::wire::FRAME_HEADER_LEN - 1,
            ..AdocConfig::default()
        };
        assert!(reason(&tiny_packet).contains("smaller than a frame header"));

        let zero_packet = AdocConfig {
            packet_size: 0,
            ..AdocConfig::default()
        };
        assert!(reason(&zero_packet).contains("smaller than a frame header"));

        let zero_buffer = AdocConfig {
            buffer_size: 0,
            ..AdocConfig::default()
        };
        assert!(zero_buffer.validate().is_err());

        let zero_queue = AdocConfig {
            queue_cap: 0,
            ..AdocConfig::default()
        };
        assert!(reason(&zero_queue).contains("queue_cap 0 must exceed"));

        let shallow_queue = AdocConfig {
            queue_cap: HIGH_WATER,
            ..AdocConfig::default()
        };
        assert!(reason(&shallow_queue).contains("must exceed HIGH_WATER"));
    }

    #[test]
    fn a_buffer_larger_than_a_frame_is_refused() {
        let largest = crate::wire::MAX_FRAME_LEN as usize;
        let at_limit = AdocConfig {
            buffer_size: largest,
            ..AdocConfig::default()
        };
        at_limit.validate().unwrap();
        let over = AdocConfig {
            buffer_size: largest + 1,
            ..AdocConfig::default()
        };
        assert!(reason(&over).contains("must be in 1..=4294967295"));
    }

    #[test]
    fn minimum_legal_packet_size_passes() {
        let cfg = AdocConfig {
            packet_size: crate::wire::FRAME_HEADER_LEN,
            ..AdocConfig::default()
        };
        cfg.validate().unwrap();
    }

    #[test]
    fn hello_timeout_is_tunable() {
        let cfg = AdocConfig::default().with_hello_timeout(Duration::from_millis(250));
        assert_eq!(cfg.hello_timeout, Duration::from_millis(250));
        cfg.validate().unwrap();
    }
}
