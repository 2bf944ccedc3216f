//! Sample statistics with the tail rule: a percentile is reported only
//! when at least [`MIN_TAIL`] samples lie beyond it.

/// Samples a percentile needs strictly beyond it before it is reported.
pub const MIN_TAIL: usize = 10;

/// Sort a sample ascending (finite values only; NaN sorts last).
#[must_use]
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

/// Nearest-rank index of the `pct`-th percentile of `n` samples: the
/// smallest 1-based rank `r` with `r ≥ pct·n / 100`. Integer arithmetic,
/// so `p99` of 1000 samples is rank 990 exactly.
#[must_use]
pub fn rank(n: usize, pct: u32) -> usize {
    let r = (n * pct as usize).div_ceil(100);
    r.clamp(1, n.max(1))
}

/// The `pct`-th percentile of an ascending sample, refused unless at
/// least [`MIN_TAIL`] samples lie beyond it (p99 thus needs ≥ 1000
/// samples, p50 ≥ 20).
///
/// # Errors
/// A message naming the shortfall.
pub fn percentile(sorted: &[f64], pct: u32) -> Result<f64, String> {
    let n = sorted.len();
    if n == 0 {
        return Err(format!("p{pct} of an empty sample"));
    }
    let r = rank(n, pct);
    let beyond = n - r;
    if beyond < MIN_TAIL {
        return Err(format!(
            "p{pct} of {n} samples has {beyond} beyond it; needs {MIN_TAIL}"
        ));
    }
    Ok(sorted[r - 1])
}

/// Median without the tail rule (for small repeated measurements such
/// as set-up time), lower middle on even counts.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let s = sorted(values);
    s[rank(s.len(), 50) - 1]
}

/// Arithmetic mean (0 for an empty sample).
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&thousand, 99), Ok(990.0));
        let short: Vec<f64> = (1..=999).map(f64::from).collect();
        let refused = percentile(&short, 99).unwrap_err();
        assert!(refused.contains("9 beyond"), "{refused}");
    }

    #[test]
    fn p50_rule_and_nearest_rank() {
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&twenty, 50), Ok(10.0));
        let nineteen: Vec<f64> = (1..=19).map(f64::from).collect();
        assert!(percentile(&nineteen, 50).is_err());
        assert!(percentile(&[], 50).is_err());
        assert_eq!(rank(1000, 99), 990);
        assert_eq!(rank(1001, 99), 991);
        assert_eq!(rank(3, 50), 2);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
