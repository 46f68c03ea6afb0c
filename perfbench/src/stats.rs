//! Order statistics for host-time samples.

/// Median of `xs` (mean of the two middle values for an even count);
/// 0 for an empty slice.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Percentiles the tail rule may report, highest first.
pub const TAIL_LADDER: [f64; 7] = [99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// A tail latency together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported, from [`TAIL_LADDER`].
    pub percentile: f64,
    /// The nearest-rank sample at that percentile.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly above the percentile's rank.
    pub beyond: usize,
}

/// The highest [`TAIL_LADDER`] percentile with at least
/// [`TAIL_MIN_BEYOND`] samples beyond its nearest rank
/// (`rank = ceil(p/100 * n)`, `beyond = n - rank`). With fewer than 20
/// samples no percentile qualifies and the median is reported, with
/// `beyond` saying how thin it is. `None` for an empty slice.
#[must_use]
pub fn tail(xs: &[f64]) -> Option<Tail> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |p: f64| {
        let rank = nearest_rank(p, n);
        Tail {
            percentile: p,
            value: v[rank - 1],
            samples: n,
            beyond: n - rank,
        }
    };
    Some(
        TAIL_LADDER
            .iter()
            .map(|&p| at(p))
            .find(|t| t.beyond >= TAIL_MIN_BEYOND)
            .unwrap_or_else(|| at(50.0)),
    )
}

/// `ceil(p/100 * n)`, clamped to `1..=n`, computed in integers (per mille)
/// so that e.g. p90 of 100 samples is exactly rank 90.
fn nearest_rank(p: f64, n: usize) -> usize {
    let per_mille = (p * 10.0).round() as usize;
    (per_mille * n).div_ceil(1000).clamp(1, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled on purpose: the rule must sort.
        (0..n).rev().map(|i| (i + 1) as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 20 samples: p50 is rank 10 with 10 beyond; p75 would leave 5.
        let t = tail(&ramp(20)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (50.0, 10.0, 10));
        // 40 samples: p75 = rank 30, 10 beyond; p80 = rank 32, 8 beyond.
        let t = tail(&ramp(40)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (75.0, 30.0, 10));
        // 50 samples: p80 = rank 40, exactly 10 beyond.
        let t = tail(&ramp(50)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (80.0, 40.0, 10));
        // 99 samples: p90 = rank 90 leaves 9, so p80 (rank 80, 19 beyond).
        let t = tail(&ramp(99)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (80.0, 80.0, 19));
        // 100 samples: p90 = rank 90, 10 beyond.
        let t = tail(&ramp(100)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (90.0, 90.0, 10));
        // 1000 samples: p99 = rank 990, 10 beyond; p99.9 leaves 1.
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (99.0, 990.0, 10));
    }

    #[test]
    fn tail_falls_back_to_the_median_below_twenty_samples() {
        let t = tail(&ramp(19)).unwrap();
        assert_eq!(
            (t.percentile, t.value, t.samples, t.beyond),
            (50.0, 10.0, 19, 9)
        );
        let t = tail(&[7.0]).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (50.0, 7.0, 0));
        assert!(tail(&[]).is_none());
    }
}
