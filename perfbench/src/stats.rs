//! Order statistics over benchmark samples, and the benchmark's clock.
//!
//! A timing is reported as its median plus the highest tail percentile
//! that has at least [`MIN_BEYOND`] samples beyond it; a percentile
//! without that support is not reported at all. Failed requests enter
//! latency samples as `f64::INFINITY`, so they count as missing every
//! limit.

use std::time::{Duration, Instant};

/// Samples that must lie strictly above a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles tried, highest first.
const TAILS: [f64; 3] = [99.9, 99.0, 90.0];

/// The benchmark's one wall-clock source.
pub fn now() -> Instant {
    // lint:allow(wallclock): the benchmark measures wall time by design
    Instant::now()
}

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A duration in microseconds.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median: the middle sample, or the mean of the two middle ones.
/// `None` for no samples.
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let hi = v.get(n / 2).copied()?;
    if n % 2 == 1 {
        return Some(hi);
    }
    let lo = v.get(n / 2 - 1).copied()?;
    if lo.is_infinite() || hi.is_infinite() {
        return Some(hi.max(lo));
    }
    Some((lo + hi) / 2.0)
}

/// Nearest-rank percentile `p` (0 < p < 100), or `None` when fewer than
/// [`MIN_BEYOND`] samples lie above its rank.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    let n = xs.len();
    if n == 0 || !(p > 0.0 && p < 100.0) {
        return None;
    }
    // The epsilon keeps float noise (0.999 · 10000 = 9990.000…02) from
    // pushing an exact rank up by one.
    let rank = ((p / 100.0) * n as f64 - 1e-9).ceil().max(1.0) as usize;
    if n.saturating_sub(rank) < MIN_BEYOND {
        return None;
    }
    sorted(xs).get(rank - 1).copied()
}

/// The highest of p99.9 / p99 / p90 the samples support, as
/// `(percentile, value)`.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    TAILS
        .iter()
        .find_map(|&p| percentile(xs, p).map(|v| (p, v)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn failures_count_as_infinite_latency() {
        let xs = [1.0, f64::INFINITY, f64::INFINITY];
        assert_eq!(median(&xs), Some(f64::INFINITY));
        assert_eq!(
            median(&[1.0, 2.0, f64::INFINITY, f64::INFINITY]),
            Some(f64::INFINITY)
        );
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples has exactly 10 above rank 990: reported.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 99.0), Some(990.0));
        // 999 samples leave only 9 above rank 990: withheld.
        assert_eq!(percentile(xs.get(..999).unwrap_or(&[]), 99.0), None);
        // p90 of 100 samples: 10 above rank 90.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90.0), Some(90.0));
        assert_eq!(percentile(&xs, 99.0), None);
        assert_eq!(tail(&xs), Some((90.0, 90.0)));
        assert_eq!(tail(&[1.0; 50]), None);
        assert_eq!(percentile(&xs, 100.0), None);
    }

    #[test]
    fn tail_picks_the_highest_supported_percentile() {
        let xs: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((99.9, 9990.0)));
        let xs: Vec<f64> = (1..=2_000).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((99.0, 1980.0)));
    }
}
