//! Order statistics over timing samples.

/// Median (mean of the two middle values for an even count); 0 when
/// empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// The highest percentile of the ladder below that still has at least
/// ten samples beyond it (below 40 samples: at least a quarter of them),
/// as `(percentile, exact order statistic)`. A run of a few slow batch
/// applies thus reports p75, not its single worst sample.
pub fn tail(v: &[f64]) -> (f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let beyond = (n / 4).clamp(1, 10);
    for pct in [99.9, 99.0, 95.0, 90.0, 75.0] {
        // 1-based rank of the order statistic, `ceil(q·n)`.
        let k = ((pct / 100.0) * n as f64).ceil() as usize;
        if k >= 1 && n - k >= beyond {
            return (pct, s[k - 1]);
        }
    }
    (100.0, s.last().copied().unwrap_or(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 is the 90th value with exactly ten beyond it.
        assert_eq!(tail(&v), (90.0, 90.0));
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&many), (99.0, 990.0));
        // Few samples: a quarter of them stay beyond the reported one.
        let few: Vec<f64> = (1..=8).map(f64::from).collect();
        assert_eq!(tail(&few), (75.0, 6.0));
        assert_eq!(tail(&[3.0]), (100.0, 3.0));
    }
}
