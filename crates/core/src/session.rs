//! Server-minted session tickets: the credential that lets a transfer
//! survive its TCP connections.
//!
//! A ticket names a session (`session_id`), carries an absolute expiry
//! (`expires_us`, µs since the Unix epoch) and a 16-byte MAC binding both
//! to the server's [`TicketKey`]. The server hands the ticket out in the
//! `SessionAccept` reply of a v4 handshake (see [`crate::wire`]); a
//! reconnecting client presents it verbatim to resume the session —
//! scheduler share, lifetime counters and, when the cut landed
//! mid-message, the message itself.
//!
//! ## On the MAC construction
//!
//! The MAC is an HMAC-shaped double hash (inner pass keyed with the
//! `0x36` pad, outer pass with `0x5c`) whose compression function is
//! built from the in-tree `adoc-codec` checksum primitives — four lanes
//! of domain-separated CRC-32/Adler-32 pairs widened through a
//! SplitMix64 finalizer. **This is not a cryptographic MAC**: CRC-32 and
//! Adler-32 are linear codes, and a determined adversary with enough
//! ticket samples could forge tags. It raises the bar from "guess one
//! magic byte" (the pre-session handshake) to "recover a 256-bit key
//! through 128 bits of mixed checksum state", which is the right
//! cost/benefit for a compression library that must not grow a crypto
//! dependency. Deployments needing real authentication should tunnel
//! through TLS and treat `require_auth` as defence in depth.

use adoc_codec::checksum::{ct_eq, Adler32, Crc32};
use std::time::{SystemTime, UNIX_EPOCH};

/// Encoded size of a [`SessionTicket`]: `session_id` + `expires_us` +
/// 16-byte MAC.
pub const TICKET_LEN: usize = 32;

/// Size of the MAC tag carried by tickets and v4 hellos.
pub const TICKET_MAC_LEN: usize = 16;

/// Domain tag mixed into ticket MACs (never shared with hello MACs, so a
/// ticket can't be replayed as a hello credential or vice versa).
const TICKET_DOMAIN: &[u8] = b"adoc-ticket-v1";

/// Domain tag mixed into the MAC a v4 *new-session* hello carries when
/// the server demands authentication.
const HELLO_DOMAIN: &[u8] = b"adoc-hello-v1";

/// Why a ticket failed verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TicketError {
    /// The MAC does not match: tampered, truncated-and-refilled, or
    /// minted under a different key.
    BadMac,
    /// The MAC is genuine but the expiry has passed.
    Expired,
}

impl std::fmt::Display for TicketError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TicketError::BadMac => write!(f, "ticket MAC verification failed"),
            TicketError::Expired => write!(f, "ticket expired"),
        }
    }
}

impl std::error::Error for TicketError {}

/// SplitMix64 finalizer: a cheap, well-dispersed 64-bit mixer that
/// breaks up the linear structure of the checksum lanes.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The server's ticket-minting key: 256 bits derived from a shared
/// secret, or freshly random per process.
#[derive(Clone)]
pub struct TicketKey([u8; 32]);

impl std::fmt::Debug for TicketKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        write!(f, "TicketKey(..)")
    }
}

impl TicketKey {
    /// Derives a key deterministically from a shared secret: both sides
    /// of a `require_auth` deployment call this with the same bytes and
    /// obtain the same key.
    pub fn from_secret(secret: &[u8]) -> TicketKey {
        let mut key = [0u8; 32];
        for lane in 0..4u8 {
            let mut c = Crc32::new();
            c.update(&[lane, lane ^ 0x36]);
            c.update(secret);
            let mut a = Adler32::new();
            a.update(&[lane, lane ^ 0x5c]);
            a.update(secret);
            let w = mix64(
                (u64::from(c.finish()) << 32)
                    | (u64::from(a.finish()) ^ u64::from(lane).wrapping_mul(0xA076_1D64_78BD_642F)),
            );
            key[lane as usize * 8..][..8].copy_from_slice(&w.to_le_bytes());
        }
        TicketKey(key)
    }

    /// A fresh random key for secretless deployments: tickets survive
    /// reconnects but not a server restart. Entropy comes from several
    /// independently-seeded `RandomState` hashers (the standard
    /// library's per-process SipHash keys) mixed with the clock — no
    /// external RNG dependency.
    pub fn random() -> TicketKey {
        use std::collections::hash_map::RandomState;
        use std::hash::{BuildHasher, Hasher};
        let mut key = [0u8; 32];
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        for lane in 0..4u64 {
            let mut h = RandomState::new().build_hasher();
            h.write_u64(nanos ^ lane);
            let w = mix64(h.finish() ^ mix64(nanos.wrapping_add(lane)));
            key[lane as usize * 8..][..8].copy_from_slice(&w.to_le_bytes());
        }
        TicketKey(key)
    }

    /// One HMAC-style pass: every lane runs a domain-separated
    /// CRC-32/Adler-32 pair over `pad`-whitened key material followed by
    /// the message parts, widened through [`mix64`].
    fn pass(&self, pad: u8, parts: &[&[u8]]) -> [u8; TICKET_MAC_LEN] {
        let mut padded = [0u8; 32];
        for (d, s) in padded.iter_mut().zip(self.0.iter()) {
            *d = s ^ pad;
        }
        let mut out = [0u8; TICKET_MAC_LEN];
        for lane in 0..2u8 {
            let mut c = Crc32::new();
            c.update(&[lane]);
            c.update(&padded);
            let mut a = Adler32::new();
            a.update(&[lane ^ 0xA5]);
            a.update(&padded);
            for p in parts {
                c.update(p);
                a.update(p);
            }
            let w = mix64((u64::from(c.finish()) << 32) | u64::from(a.finish()));
            out[lane as usize * 8..][..8].copy_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// The keyed tag over `parts`: inner pass with the `0x36` pad, outer
    /// pass with `0x5c` over the inner tag plus the message again.
    fn tag(&self, parts: &[&[u8]]) -> [u8; TICKET_MAC_LEN] {
        let inner = self.pass(0x36, parts);
        let mut outer_parts: Vec<&[u8]> = Vec::with_capacity(parts.len() + 1);
        outer_parts.push(&inner);
        outer_parts.extend_from_slice(parts);
        self.pass(0x5c, &outer_parts)
    }

    /// Mints a ticket for `session_id` expiring at `expires_us`.
    pub fn mint(&self, session_id: u64, expires_us: u64) -> SessionTicket {
        let mac = self.tag(&[
            TICKET_DOMAIN,
            &session_id.to_le_bytes(),
            &expires_us.to_le_bytes(),
        ]);
        SessionTicket {
            session_id,
            expires_us,
            mac,
        }
    }

    /// Verifies `ticket` against this key at time `now_us` (µs since the
    /// Unix epoch). MAC first, expiry second: a tampered expiry field
    /// must report [`TicketError::BadMac`], not `Expired`.
    pub fn verify(&self, ticket: &SessionTicket, now_us: u64) -> Result<(), TicketError> {
        let want = self.tag(&[
            TICKET_DOMAIN,
            &ticket.session_id.to_le_bytes(),
            &ticket.expires_us.to_le_bytes(),
        ]);
        if !ct_eq(&want, &ticket.mac) {
            return Err(TicketError::BadMac);
        }
        if now_us >= ticket.expires_us {
            return Err(TicketError::Expired);
        }
        Ok(())
    }

    /// The authentication tag a v4 *new-session* hello must carry when
    /// the server runs with `require_auth`: binds the announced stream
    /// count and group token to the shared secret. Deliberately excludes
    /// the stream id so all streams of one dial carry an identical tag.
    pub fn hello_mac(&self, streams: u8, token: u64) -> [u8; TICKET_MAC_LEN] {
        self.tag(&[HELLO_DOMAIN, &[streams], &token.to_le_bytes()])
    }
}

/// Where to continue an interrupted transfer, as reported by the server
/// in its resume accept: the sender skips the first `delivered_raw`
/// bytes of the in-flight message and numbers its frames from
/// `next_seq`. `(0, 0)` means no partial message survived — the client
/// re-sends from the message boundary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResumePoint {
    /// Next global frame sequence number the receiver expects.
    pub next_seq: u64,
    /// Raw bytes of the interrupted message already delivered.
    pub delivered_raw: u64,
}

impl ResumePoint {
    /// True when a partially-delivered message is waiting to be
    /// continued (rather than restarted from its boundary).
    pub fn mid_message(&self) -> bool {
        self.next_seq != 0 || self.delivered_raw != 0
    }
}

/// A server-minted resume credential (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionTicket {
    /// The session this ticket names.
    pub session_id: u64,
    /// Absolute expiry, µs since the Unix epoch.
    pub expires_us: u64,
    /// Keyed tag over the two fields above.
    pub mac: [u8; TICKET_MAC_LEN],
}

impl SessionTicket {
    /// Encodes into the 32-byte wire form (little-endian fields).
    pub fn encode(&self) -> [u8; TICKET_LEN] {
        let mut out = [0u8; TICKET_LEN];
        out[..8].copy_from_slice(&self.session_id.to_le_bytes());
        out[8..16].copy_from_slice(&self.expires_us.to_le_bytes());
        out[16..].copy_from_slice(&self.mac);
        out
    }

    /// Decodes the 32-byte wire form. Fails on any other length —
    /// truncated tickets never parse.
    pub fn decode(bytes: &[u8]) -> Result<SessionTicket, TicketError> {
        if bytes.len() != TICKET_LEN {
            return Err(TicketError::BadMac);
        }
        let session_id = u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"));
        let expires_us = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
        let mut mac = [0u8; TICKET_MAC_LEN];
        mac.copy_from_slice(&bytes[16..]);
        Ok(SessionTicket {
            session_id,
            expires_us,
            mac,
        })
    }
}

/// Current time in µs since the Unix epoch — the clock tickets expire
/// against.
pub fn unix_now_us() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mint_verify_roundtrip() {
        let key = TicketKey::from_secret(b"hunter2");
        let t = key.mint(42, unix_now_us() + 1_000_000);
        assert!(key.verify(&t, unix_now_us()).is_ok());
        let decoded = SessionTicket::decode(&t.encode()).unwrap();
        assert_eq!(decoded, t);
    }

    #[test]
    fn wrong_key_and_tampering_rejected() {
        let key = TicketKey::from_secret(b"hunter2");
        let other = TicketKey::from_secret(b"hunter3");
        let t = key.mint(7, u64::MAX);
        assert_eq!(other.verify(&t, 0), Err(TicketError::BadMac));
        let mut bent = t;
        bent.session_id ^= 1;
        assert_eq!(key.verify(&bent, 0), Err(TicketError::BadMac));
        let mut bent = t;
        bent.expires_us = 0;
        // Tampered expiry reports BadMac, never Expired.
        assert_eq!(key.verify(&bent, u64::MAX), Err(TicketError::BadMac));
    }

    #[test]
    fn expiry_enforced_after_mac() {
        let key = TicketKey::from_secret(b"s");
        let t = key.mint(1, 1_000);
        assert_eq!(key.verify(&t, 999), Ok(()));
        assert_eq!(key.verify(&t, 1_000), Err(TicketError::Expired));
        assert_eq!(key.verify(&t, u64::MAX), Err(TicketError::Expired));
    }

    #[test]
    fn derivation_is_deterministic_and_random_keys_differ() {
        let a = TicketKey::from_secret(b"shared");
        let b = TicketKey::from_secret(b"shared");
        let t = a.mint(9, u64::MAX);
        assert!(b.verify(&t, 0).is_ok(), "same secret, same key");
        let r1 = TicketKey::random();
        let r2 = TicketKey::random();
        assert!(
            r1.verify(&r2.mint(9, u64::MAX), 0).is_err(),
            "random keys must disagree"
        );
    }

    #[test]
    fn hello_mac_binds_streams_and_token() {
        let key = TicketKey::from_secret(b"k");
        let m = key.hello_mac(4, 0xABCD);
        assert_ne!(m, key.hello_mac(5, 0xABCD));
        assert_ne!(m, key.hello_mac(4, 0xABCE));
        assert_eq!(m, TicketKey::from_secret(b"k").hello_mac(4, 0xABCD));
    }

    #[test]
    fn truncated_ticket_never_parses() {
        let t = TicketKey::from_secret(b"k").mint(3, 55);
        let enc = t.encode();
        for cut in 0..TICKET_LEN {
            assert!(SessionTicket::decode(&enc[..cut]).is_err(), "cut {cut}");
        }
    }
}
