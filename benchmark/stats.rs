//! Order statistics over per-session samples.

/// Samples a p90 needs: nearest-rank p90 of `n` samples leaves `n / 10`
/// beyond it, and a percentile is reported only with at least ten beyond.
pub const P90_MIN_SAMPLES: usize = 100;

/// Nearest-rank percentile (`p` in 0–100) of an ascending sample: the
/// smallest value with at least `p`% of the sample at or below it.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank p90, refused (`None`) below [`P90_MIN_SAMPLES`].
pub fn p90(sorted: &[f64]) -> Option<f64> {
    (sorted.len() >= P90_MIN_SAMPLES).then(|| nearest_rank(sorted, 90.0))
}

/// The median as Python's `statistics.median` gives it (mean of the two
/// middle values for an even count). `None` for an empty sample.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartiles as Python's `statistics.quantiles(values,
/// n=4)` gives them (the default "exclusive" method), which is how run-to-run
/// spread is judged. `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&sorted, 50.0), 50.0);
        assert_eq!(nearest_rank(&sorted, 90.0), 90.0);
        assert_eq!(nearest_rank(&sorted, 100.0), 100.0);
        assert_eq!(nearest_rank(&sorted, 0.0), 1.0);
        assert_eq!(nearest_rank(&[10.0, 20.0, 30.0, 40.0], 50.0), 20.0);
        assert_eq!(nearest_rank(&[7.0], 50.0), 7.0);
    }

    #[test]
    fn p90_needs_a_hundred_samples() {
        let short: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(p90(&short), None);
        let enough: Vec<f64> = (1..=100).map(f64::from).collect();
        // Ten samples (91..=100) lie beyond the reported value.
        assert_eq!(p90(&enough), Some(90.0));
    }

    #[test]
    fn median_matches_python() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // exclusive method extrapolates past the sample's ends.
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 4.5)));
        assert_eq!(quartiles(&[1.0]), None);
        let spread = relative_spread(&v).unwrap();
        assert!((spread - 5.5 / 5.5).abs() < 1e-12);
    }
}
