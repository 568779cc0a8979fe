//! The harness's own arithmetic: medians, quartiles, the percentile rule,
//! open-loop due-time latency. Everything here is
//! pure so `cargo test` can pin it down.

/// Percentiles the harness reports, highest first, with the name used in
/// results files.
pub const LADDER: [(f64, &str); 3] = [(0.99, "p99"), (0.90, "p90"), (0.50, "p50")];

/// Median of `values` (mean of the two middle values for an even count).
/// Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the "exclusive" method), so `compare` judges spread the
/// way the acceptance procedure does. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        // Position k·(n+1)/4, 1-based, clamped to the data.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Distance between the quartiles as a share of the median — the spread
/// a metric's bound is judged against.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1).abs() / m.abs())
}

/// Nearest-rank percentile of an ascending slice.
fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How many samples lie strictly beyond the nearest-rank `p` percentile.
pub fn beyond(n: usize, p: f64) -> usize {
    n - ((p * n as f64).ceil() as usize).clamp(1, n.max(1)).min(n)
}

/// A percentile as actually reported: which statistic was used after the
/// rule was applied, and how many samples lay beyond it.
#[derive(Debug, Clone, PartialEq)]
pub struct Reported {
    /// Value in the samples' unit.
    pub value: f64,
    /// `"p99"`, `"p90"`, `"p50"` or `"mean"`.
    pub used: &'static str,
    /// Samples strictly beyond the reported statistic (0 for the mean).
    pub beyond: usize,
    /// Sample count.
    pub n: usize,
}

/// The percentile rule: report percentile `p` only if at least ten
/// samples lie beyond it; otherwise fall back to the next lower rung of
/// [`LADDER`], and below the median to the mean. The caller prints
/// `used`, so a fallback is never silent.
pub fn percentile(samples: &[f64], p: f64) -> Reported {
    let n = samples.len();
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    for &(q, name) in LADDER.iter().filter(|&&(q, _)| q <= p) {
        let b = if n == 0 { 0 } else { beyond(n, q) };
        if b >= 10 {
            return Reported {
                value: nearest_rank(&sorted, q),
                used: name,
                beyond: b,
                n,
            };
        }
    }
    let mean = if n == 0 {
        0.0
    } else {
        sorted.iter().sum::<f64>() / n as f64
    };
    Reported {
        value: mean,
        used: "mean",
        beyond: 0,
        n,
    }
}

/// One timed operation, in seconds on the run's clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// When the operation started (closed loop) or was due (open loop).
    pub start: f64,
    /// When its last echoed byte arrived.
    pub end: f64,
}

impl Sample {
    /// Latency in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end - self.start) * 1e3
    }
}

/// Open-loop schedule: request `i` is due at `t0 + i / rate`.
pub fn due_time(t0: f64, i: u64, rate: f64) -> f64 {
    t0 + i as f64 / rate
}

/// Open-loop accounting for one request: latency runs from the due time,
/// so a stall charges every request it delayed; lag is how late the
/// generator actually sent it.
pub fn open_loop(due: f64, sent: f64, done: f64) -> (Sample, f64) {
    (
        Sample {
            start: due,
            end: done,
        },
        (sent - due).max(0.0),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), Some((1.0, 4.0)));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), Some((0.5, 3.5)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((spread(&v).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_rule_needs_ten_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let r = percentile(&v, 0.99);
        assert_eq!((r.used, r.value, r.beyond), ("p99", 990.0, 10));
        // 999 samples: only nine lie beyond p99, so p90 is reported.
        let r = percentile(&v[..999], 0.99);
        assert_eq!((r.used, r.value, r.beyond), ("p90", 900.0, 99));
        // 20 samples support the median (ten beyond) but nothing higher.
        let r = percentile(&v[..20], 0.99);
        assert_eq!((r.used, r.value, r.beyond), ("p50", 10.0, 10));
        // 19 samples support no percentile at all.
        let r = percentile(&v[..19], 0.50);
        assert_eq!((r.used, r.value), ("mean", 10.0));
        assert_eq!(percentile(&[], 0.9).value, 0.0);
    }

    #[test]
    fn percentile_never_climbs_above_the_one_asked_for() {
        let v: Vec<f64> = (1..=5000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50).used, "p50");
        assert_eq!(percentile(&v, 0.90).used, "p90");
    }

    #[test]
    fn open_loop_latency_runs_from_due_time() {
        assert_eq!(due_time(5.0, 3, 100.0), 5.03);
        // Due at 1.00, generator got to it at 1.04, reply at 1.05: the
        // request waited 50 ms, 40 of them because the generator was late.
        let (s, lag) = open_loop(1.00, 1.04, 1.05);
        assert!((s.ms() - 50.0).abs() < 1e-9);
        assert!((lag - 0.04).abs() < 1e-12);
        // Sent early (never happens, but must not go negative).
        assert_eq!(open_loop(1.0, 0.99, 1.01).1, 0.0);
    }
}
