//! Order statistics over repetitions and samples.
//!
//! The vendored criterion reports only a mean, so the benchmark computes
//! its own medians, quartiles and tail percentiles here.

/// Median, quartiles and sample count of a set of repetitions.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Spread {
    /// Number of values.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

/// Sorts a copy of `xs` (NaNs are a bug in the caller).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in benchmark samples"));
    v
}

/// The `p`-quantile (`0 ≤ p ≤ 1`) by linear interpolation between order
/// statistics (`(n - 1)·p` positions); 0 for an empty slice.
pub fn quantile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let v = sorted(xs);
    let pos = (v.len() - 1) as f64 * p.clamp(0.0, 1.0);
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Median and quartiles of `xs`, with quartiles as Python's
/// `statistics.quantiles(xs, n=4)` gives them (the "exclusive" method)
/// once there are at least two values.
pub fn spread(xs: &[f64]) -> Spread {
    let n = xs.len();
    let v = sorted(xs);
    let exclusive = |p: f64| -> f64 {
        // position p·(n+1) in 1-based order statistics, clamped to the ends
        let pos = (p * (n + 1) as f64).clamp(1.0, n as f64);
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        v[lo - 1] + (v[hi - 1] - v[lo - 1]) * (pos - lo as f64)
    };
    match n {
        0 => Spread {
            n,
            q1: 0.0,
            median: 0.0,
            q3: 0.0,
        },
        1 => Spread {
            n,
            q1: v[0],
            median: v[0],
            q3: v[0],
        },
        _ => Spread {
            n,
            q1: exclusive(0.25),
            median: median(xs),
            q3: exclusive(0.75),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = spread(&xs);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!(s.n, 10);
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&xs), 2.5);
    }
}
