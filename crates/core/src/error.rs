//! Structured AdOC errors.
//!
//! The transfer paths speak `io::Result` end to end (they wrap sockets),
//! so these errors travel inside [`std::io::Error`] as the custom payload;
//! [`AdocError::from_io`] recovers the typed form on the far side of any
//! `?`-chain.

use std::fmt;
use std::io;

/// Errors AdOC raises itself (as opposed to forwarding from the
/// underlying socket or codec).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AdocError {
    /// A compression buffer's raw or encoded size exceeds what the u32
    /// frame-header length fields can carry (≥ 4 GiB). Raised by the
    /// sender *before* encoding instead of silently truncating on the
    /// wire. Shrink `AdocConfig::buffer_size`.
    FrameTooLarge {
        /// The offending length in bytes.
        len: u64,
    },
    /// The two endpoints of a stream group announced different stream
    /// counts during the connect handshake.
    StreamCountMismatch {
        /// Stream count this endpoint announced.
        ours: u8,
        /// Stream count the peer announced.
        theirs: u8,
    },
    /// An [`crate::AdocConfig`] failed validation at construction —
    /// raised by the socket/group/server constructors instead of letting
    /// a nonsensical field (zero streams, zero-capacity queue, packet
    /// smaller than a frame header…) panic deep inside the pipeline.
    InvalidConfig {
        /// Which configuration rule was violated.
        reason: String,
    },
    /// A stream-group peer connected but never sent its `SessionHello`
    /// within [`crate::AdocConfig::hello_timeout`]. Raised by
    /// [`crate::AdocStreamGroup::accept`] (and the server daemon) so a
    /// half-dead client cannot wedge the accept path forever.
    HelloTimeout {
        /// The timeout that elapsed.
        timeout: std::time::Duration,
    },
    /// The server refused the session handshake before admission: a bad
    /// or missing hello MAC, a tampered ticket, or a plaintext hello on
    /// a `require_auth` deployment.
    AuthFailed {
        /// What the server (or local verification) objected to.
        reason: String,
    },
    /// The server refused to resume a session: the ticket expired, the
    /// session is unknown or was already reclaimed, the peer address
    /// changed, or the server is draining.
    ResumeRejected {
        /// Why the resume was refused.
        reason: String,
    },
}

impl fmt::Display for AdocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdocError::FrameTooLarge { len } => write!(
                f,
                "frame of {len} bytes exceeds the u32 wire limit ({} bytes); \
                 reduce AdocConfig::buffer_size",
                crate::wire::MAX_FRAME_LEN
            ),
            AdocError::StreamCountMismatch { ours, theirs } => write!(
                f,
                "stream-group negotiation failed: we announced {ours} streams, peer announced {theirs}"
            ),
            AdocError::InvalidConfig { reason } => {
                write!(f, "invalid AdocConfig: {reason}")
            }
            AdocError::HelloTimeout { timeout } => write!(
                f,
                "peer connected but sent no stream-group hello within {timeout:?}"
            ),
            AdocError::AuthFailed { reason } => {
                write!(f, "session authentication failed: {reason}")
            }
            AdocError::ResumeRejected { reason } => {
                write!(f, "session resume rejected: {reason}")
            }
        }
    }
}

impl std::error::Error for AdocError {}

impl From<AdocError> for io::Error {
    fn from(e: AdocError) -> io::Error {
        let kind = match &e {
            AdocError::HelloTimeout { .. } => io::ErrorKind::TimedOut,
            AdocError::AuthFailed { .. } => io::ErrorKind::PermissionDenied,
            AdocError::ResumeRejected { .. } => io::ErrorKind::InvalidData,
            _ => io::ErrorKind::InvalidInput,
        };
        io::Error::new(kind, e)
    }
}

impl AdocError {
    /// Recovers an [`AdocError`] carried inside an [`io::Error`], if any.
    pub fn from_io(e: &io::Error) -> Option<&AdocError> {
        e.get_ref()?.downcast_ref::<AdocError>()
    }

    /// Classifies an I/O error from a timed hello read: timeouts become
    /// the typed [`AdocError::HelloTimeout`], everything else passes
    /// through. The single place the mapping lives — the library
    /// acceptor and the server daemon both use it.
    pub fn map_hello_timeout(e: io::Error, timeout: std::time::Duration) -> io::Error {
        if matches!(
            e.kind(),
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
        ) {
            AdocError::HelloTimeout { timeout }.into()
        } else {
            e
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_through_io_error() {
        let e: io::Error = AdocError::FrameTooLarge { len: 5 << 30 }.into();
        assert_eq!(e.kind(), io::ErrorKind::InvalidInput);
        match AdocError::from_io(&e) {
            Some(AdocError::FrameTooLarge { len }) => assert_eq!(*len, 5 << 30),
            other => panic!("lost the typed error: {other:?}"),
        }
    }

    #[test]
    fn foreign_io_errors_are_not_misidentified() {
        let plain = io::Error::new(io::ErrorKind::InvalidInput, "something else");
        assert!(AdocError::from_io(&plain).is_none());
    }

    #[test]
    fn display_mentions_the_limit() {
        let msg = AdocError::FrameTooLarge { len: 1 << 33 }.to_string();
        assert!(msg.contains("4294967295"), "{msg}");
        let msg = AdocError::StreamCountMismatch { ours: 4, theirs: 2 }.to_string();
        assert!(msg.contains('4') && msg.contains('2'), "{msg}");
        let msg = AdocError::InvalidConfig {
            reason: "streams must be in 1..=255".into(),
        }
        .to_string();
        assert!(msg.contains("streams"), "{msg}");
    }

    #[test]
    fn hello_timeout_maps_to_timed_out() {
        let e: io::Error = AdocError::HelloTimeout {
            timeout: std::time::Duration::from_millis(250),
        }
        .into();
        assert_eq!(e.kind(), io::ErrorKind::TimedOut);
        match AdocError::from_io(&e) {
            Some(AdocError::HelloTimeout { timeout }) => {
                assert_eq!(*timeout, std::time::Duration::from_millis(250));
            }
            other => panic!("lost the typed error: {other:?}"),
        }
    }

    #[test]
    fn session_errors_carry_kind_and_reason() {
        let e: io::Error = AdocError::AuthFailed {
            reason: "bad hello MAC".into(),
        }
        .into();
        assert_eq!(e.kind(), io::ErrorKind::PermissionDenied);
        assert!(matches!(
            AdocError::from_io(&e),
            Some(AdocError::AuthFailed { .. })
        ));
        let e: io::Error = AdocError::ResumeRejected {
            reason: "unknown session".into(),
        }
        .into();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        assert!(e.to_string().contains("unknown session"));
    }

    #[test]
    fn invalid_config_roundtrips() {
        let e: io::Error = AdocError::InvalidConfig {
            reason: "queue_cap must exceed HIGH_WATER".into(),
        }
        .into();
        assert_eq!(e.kind(), io::ErrorKind::InvalidInput);
        assert!(matches!(
            AdocError::from_io(&e),
            Some(AdocError::InvalidConfig { .. })
        ));
    }
}
