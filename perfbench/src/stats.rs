//! The benchmark's own arithmetic: percentiles, medians, spreads.

/// The `q`-quantile of `sorted` by nearest rank — the smallest sample
/// with at least a `q` fraction of the data at or below it — which is
/// the rule `armada_metrics::Cdf::quantile` uses, so a number printed
/// here and one printed by a figure binary mean the same thing.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = (q * n as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

/// Sorts `values` in place and returns their `q`-quantile.
pub fn percentile(values: &mut [f64], q: f64) -> Option<f64> {
    values.sort_unstable_by(f64::total_cmp);
    percentile_sorted(values, q)
}

/// The nearest-rank median of `values`, zero when there are none: for
/// per-layer numbers that read zero where a workload has no such stage.
pub fn p50_or_zero(values: &[f64]) -> f64 {
    percentile(&mut values.to_vec(), 0.5).unwrap_or(0.0)
}

/// The median as the mean of the two middle values for an even count
/// (a median of round statistics, where no sample has to be picked).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartile by the exclusive method, as Python's
/// `statistics.quantiles(values, n=4)` computes them — the driver
/// judges spreads with that function, so `compare` must too.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |k: usize| {
        // Position k·(n+1)/4 on a 1-based axis, clamped to the data.
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    Some((at(1), at(3)))
}

/// Inter-quartile distance as a share of the median: the spread the
/// driver holds against a metric's bound. `None` below two values or
/// for a zero median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// How many samples lie strictly beyond the `q`-quantile's rank; a
/// tail percentile is only reported with at least ten of them.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(0, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use armada_metrics::Cdf;
    use armada_types::SimDuration;

    #[test]
    fn percentile_matches_armada_metrics_nearest_rank() {
        let raw: Vec<u64> = vec![40, 42, 45, 50, 90, 91, 17, 3, 1000, 77];
        let cdf = Cdf::from_samples(raw.iter().map(|&v| SimDuration::from_micros(v)));
        let mut mine: Vec<f64> = raw.iter().map(|&v| v as f64).collect();
        for q in [0.0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let theirs = cdf.quantile(q).unwrap().as_micros() as f64;
            assert_eq!(percentile(&mut mine, q), Some(theirs), "q = {q}");
        }
        assert_eq!(percentile(&mut [], 0.5), None);
        // The median of two samples is the smaller one under nearest rank.
        assert_eq!(percentile(&mut [9.0, 1.0], 0.5), Some(1.0));
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25] — the
        // exclusive method extrapolates below the data; clamping j to
        // [1, n-1] reproduces that.
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15, 30, 45]
        assert_eq!(
            quartiles(&[50.0, 10.0, 30.0, 20.0, 40.0]),
            Some((15.0, 45.0))
        );
        assert_eq!(spread(&v), Some(1.0));
        assert_eq!(spread(&[5.0]), None);
    }

    #[test]
    fn tail_sample_counts() {
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert_eq!(samples_beyond(10_000, 0.999), 10);
        assert_eq!(samples_beyond(0, 0.99), 0);
    }
}
