//! Order statistics for timed samples: the median and the quartiles,
//! computed the way Python's `statistics.quantiles(xs, n=4)` does
//! (the default "exclusive" method), so the quartiles the benchmark
//! prints match those computed from its results with Python.

/// Median, first and third quartile and sample count of a set of
/// timings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarizes `xs`; an empty slice summarizes to zeros.
    pub fn of(xs: &[f64]) -> Self {
        let mut v = xs.to_vec();
        v.sort_by(f64::total_cmp);
        let (q1, q3) = quartiles(&v);
        Summary {
            n: v.len(),
            q1,
            median: median_sorted(&v),
            q3,
        }
    }
}

/// Median of `xs` (zero for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    Summary::of(xs).median
}

fn median_sorted(v: &[f64]) -> f64 {
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Python's exclusive-method quartiles of sorted data; one sample is
/// its own quartiles.
fn quartiles(v: &[f64]) -> (f64, f64) {
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        // exact integer interpolation weight, as in CPython; may be
        // negative after clamping
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_exclusive_quartiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&xs);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn degenerate_inputs_do_not_panic() {
        assert_eq!(Summary::of(&[]).median, 0.0);
        let s = Summary::of(&[4.0]);
        assert_eq!((s.q1, s.median, s.q3), (4.0, 4.0, 4.0));
    }
}
