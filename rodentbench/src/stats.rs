//! Order statistics over timing samples.

/// Returns the samples sorted ascending (NaN-free inputs assumed: every
/// sample is a measured duration or a ratio of positive counts).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `p`-quantile (0 ≤ p ≤ 1) by linear interpolation between the two
/// nearest order statistics; 0 for an empty sample.
pub fn quantile(samples: &[f64], p: f64) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => 0.0,
        1 => v[0],
        n => {
            let pos = p.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        }
    }
}

/// The median.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// First quartile, median, third quartile of a set of *runs*, computed the
/// way Python's `statistics.quantiles(values, n=4)` does (the exclusive
/// method), so `compare` reports the same spread the acceptance check uses.
/// A single value is its own three quartiles.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    let v = sorted(samples);
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return (only, only, only);
    }
    let cut = |i: usize| {
        let (j, delta) = (i * (n + 1) / 4, (i * (n + 1) % 4) as f64);
        let j = j.clamp(1, n - 1);
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Run-to-run spread: the distance between the quartiles as a share of the
/// median.
pub fn spread(samples: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(samples);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        assert_eq!(spread(&ten), 1.0);
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }
}
