//! Order statistics for the reported timings.

/// Median of `xs` (mean of the two middle samples for an even count);
/// `NaN` for no samples.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Interquartile mean of `xs`: the mean of what is left after dropping
/// ⌊n/4⌋ samples from each end; `NaN` for no samples.
///
/// The serve timings report it over hundreds of requests. The cores of a
/// shared host switch between a fast and a ≈ 1.5× slower speed for seconds
/// at a time, so a one-thread job's times are bimodal: their median jumps
/// between the two speeds as the slow share of a run crosses one half,
/// while this mean moves with that share smoothly, and the trim keeps the
/// tail of requests that waited behind another tenant's slice out.
pub fn interquartile_mean(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let cut = s.len() / 4;
    let kept = &s[cut..s.len() - cut];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// The nearest-rank `p`-quantile of `xs` (`0 < p < 1`), reported only when
/// at least ten samples lie strictly above it — the ten-beyond rule: a
/// percentile with fewer samples past it says nothing about the tail.
/// A p90 therefore needs at least 100 samples.
pub fn percentile_ten_beyond(xs: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 1.0, "quantile must lie in (0, 1)");
    let n = xs.len();
    // 1-based nearest rank ⌈p·n⌉; the samples above it are n − rank.
    let rank = (p * n as f64).ceil() as usize;
    if rank == 0 || n - rank < 10 {
        return None;
    }
    Some(sorted(xs)[rank - 1])
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn interquartile_mean_drops_a_quarter_at_each_end() {
        // 8 samples: two dropped at each end, the middle four averaged.
        let xs = [100.0, 1.0, 3.0, 4.0, 5.0, 6.0, -50.0, 2.0];
        assert_eq!(interquartile_mean(&xs), 3.5);
        assert_eq!(interquartile_mean(&[2.0, 4.0, 9.0]), 5.0);
        assert!(interquartile_mean(&[]).is_nan());
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // Rank 90 of 100 leaves exactly ten samples (91..=100) above it.
        assert_eq!(percentile_ten_beyond(&xs, 0.9), Some(90.0));
        // One sample fewer leaves only nine beyond: no p90.
        assert_eq!(percentile_ten_beyond(&xs[..99], 0.9), None);
        // Order of the input does not matter.
        let rev: Vec<f64> = xs.iter().rev().copied().collect();
        assert_eq!(percentile_ten_beyond(&rev, 0.9), Some(90.0));
    }

    #[test]
    fn median_has_ten_beyond_from_twenty_samples() {
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile_ten_beyond(&xs, 0.5), Some(10.0));
        assert_eq!(percentile_ten_beyond(&xs[..19], 0.5), None);
    }
}
