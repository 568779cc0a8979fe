//! Unit conversions for the examples' throughput reports.

/// Application-level bandwidth in Mbit/s for `bytes` moved in `secs`.
pub fn mbits_per_sec(bytes: usize, secs: f64) -> f64 {
    (bytes as f64 * 8.0) / secs / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_conversion() {
        // 1 MB in 0.08 s = 100 Mbit/s.
        let v = mbits_per_sec(1_000_000, 0.08);
        assert!((v - 100.0).abs() < 1e-9);
    }
}
