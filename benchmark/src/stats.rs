//! Order statistics for the benchmark's timing samples.

/// Fewest samples that must lie beyond a reported percentile, so that the
/// figure is not one outlier's value.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank tail percentile: the highest percentile of `samples` that
/// is at most `cap` and still has [`MIN_BEYOND`] samples beyond it, with
/// the quantile it landed on. A percentile with a thinner tail is refused:
/// a workload with few jobs per run reports a lower tail than one with
/// thousands, and says so; with too few for any, the tail is the median.
///
/// # Errors
///
/// An empty or non-finite sample set.
pub fn tail(samples: &[f64], cap: f64) -> Result<(f64, f64), String> {
    let sorted = sorted(samples)?;
    let n = sorted.len();
    let highest = n.saturating_sub(MIN_BEYOND);
    if highest <= n.div_ceil(2) {
        return Ok((median(&sorted)?, 0.5));
    }
    let rank = ((cap * n as f64).ceil() as usize).clamp(1, highest);
    Ok((sorted[rank - 1], rank as f64 / n as f64))
}

/// Median (mean of the two middle values for an even count).
///
/// # Errors
///
/// An empty or non-finite sample set.
pub fn median(samples: &[f64]) -> Result<f64, String> {
    let sorted = sorted(samples)?;
    let n = sorted.len();
    Ok(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// Geometric mean of positive values.
///
/// # Errors
///
/// An empty set or a non-positive value.
pub fn gmean(values: &[f64]) -> Result<f64, String> {
    if values.is_empty() {
        return Err("gmean of no values".into());
    }
    if values.iter().any(|&v| !(v > 0.0 && v.is_finite())) {
        return Err("gmean needs positive finite values".into());
    }
    Ok((values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp())
}

fn sorted(samples: &[f64]) -> Result<Vec<f64>, String> {
    if samples.is_empty() {
        return Err("no samples".into());
    }
    if samples.iter().any(|v| !v.is_finite()) {
        return Err("non-finite sample".into());
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_nearest_rank_and_keeps_ten_beyond() {
        let big: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&big, 0.9).unwrap(), (1800.0, 0.9));
        // Order of arrival is irrelevant.
        let mut rev = big.clone();
        rev.reverse();
        assert_eq!(tail(&rev, 0.9).unwrap(), (1800.0, 0.9));
        // p99 of 600 would leave six beyond: refused, p98.3 instead.
        assert_eq!(tail(&big[..600], 0.99).unwrap(), (590.0, 590.0 / 600.0));
        // p90 of 100 has exactly ten beyond; p90 of 99 only nine.
        assert_eq!(tail(&big[..100], 0.9).unwrap().0, 90.0);
        assert_eq!(tail(&big[..99], 0.9).unwrap().0, 89.0);
        let small: Vec<f64> = (1..=32).map(f64::from).collect();
        assert_eq!(tail(&small, 0.9).unwrap(), (22.0, 22.0 / 32.0));
        let thirty: Vec<f64> = (1..=30).map(f64::from).collect();
        assert_eq!(tail(&thirty, 0.9).unwrap().0, 20.0);
        // Too few samples for any tail: the median rank.
        assert_eq!(tail(&small[..16], 0.9).unwrap(), (8.5, 0.5));
        assert!(tail(&[], 0.9).is_err());
        assert!(tail(&[1.0, f64::NAN], 0.9).is_err());
    }

    #[test]
    fn median_of_passes() {
        assert_eq!(median(&[3.0, 1.0, 2.0]).unwrap(), 2.0);
        assert_eq!(median(&[4.0, 1.0]).unwrap(), 2.5);
        assert_eq!(median(&[7.0]).unwrap(), 7.0);
        assert!(median(&[]).is_err());
    }

    #[test]
    fn gmean_math() {
        assert!((gmean(&[1.0, 4.0]).unwrap() - 2.0).abs() < 1e-12);
        assert!(gmean(&[1.0, 0.0]).is_err());
        assert!(gmean(&[]).is_err());
    }
}
