//! The four networks of the paper's evaluation (§6), as link profiles.
//!
//! Bandwidths are the asymptotic POSIX read/write rates visible in
//! Figures 3–7; round-trip latencies are Table 2's POSIX column.

use crate::link::LinkCfg;
use crate::trace::mbit;
use std::time::Duration;

/// Identifier for a paper network profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetProfile {
    /// 100 Mbit Fast Ethernet LAN (Fig. 3): RTT 0.18 ms.
    Lan100,
    /// Renater academic WAN, Nancy–Lyon (Figs. 4–5): ~12 Mbit, RTT 9.2 ms.
    Renater,
    /// Transatlantic Internet, France–Tennessee (Fig. 6): ~4 Mbit,
    /// RTT 80 ms.
    Internet,
    /// Gigabit Ethernet LAN (Fig. 7): RTT 30 µs.
    Gbit,
}

impl NetProfile {
    /// All four profiles in paper order.
    pub const ALL: [NetProfile; 4] = [
        NetProfile::Lan100,
        NetProfile::Renater,
        NetProfile::Internet,
        NetProfile::Gbit,
    ];

    /// Human-readable name matching the paper's figure captions.
    pub fn name(self) -> &'static str {
        match self {
            NetProfile::Lan100 => "100 Mbit LAN",
            NetProfile::Renater => "Renater WAN",
            NetProfile::Internet => "Internet (TN-FR)",
            NetProfile::Gbit => "Gbit LAN",
        }
    }

    /// Nominal capacity in bits/s.
    pub fn bandwidth_bps(self) -> f64 {
        match self {
            NetProfile::Lan100 => mbit(100.0),
            NetProfile::Renater => mbit(12.0),
            NetProfile::Internet => mbit(4.0),
            NetProfile::Gbit => mbit(1000.0),
        }
    }

    /// One-way propagation delay (half of Table 2's POSIX ping-pong).
    pub fn one_way_latency(self) -> Duration {
        match self {
            NetProfile::Lan100 => Duration::from_micros(90),
            NetProfile::Renater => Duration::from_micros(4_600),
            NetProfile::Internet => Duration::from_millis(40),
            NetProfile::Gbit => Duration::from_micros(15),
        }
    }

    /// Link configuration for one direction of this network.
    pub fn link_cfg(self) -> LinkCfg {
        LinkCfg::new(self.bandwidth_bps(), self.one_way_latency())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_have_expected_ordering() {
        assert!(NetProfile::Gbit.bandwidth_bps() > NetProfile::Lan100.bandwidth_bps());
        assert!(NetProfile::Lan100.bandwidth_bps() > NetProfile::Renater.bandwidth_bps());
        assert!(NetProfile::Renater.bandwidth_bps() > NetProfile::Internet.bandwidth_bps());
        assert!(NetProfile::Internet.one_way_latency() > NetProfile::Renater.one_way_latency());
    }
}
