//! Skew, normalization factors and the skew-variation metrics of the paper
//! (Table 1 and Eqs. (1)–(3)).

use clk_netlist::SinkPair;

use crate::timer::{CornerTiming, TimingError};

/// Signed skew of every pair at one corner:
/// `skew = arrival(a) − arrival(b)` with the pair's normalized orientation.
///
/// # Panics
///
/// Panics if a pair endpoint has no finite arrival; use
/// [`try_pair_skews`] to get a [`TimingError`] instead.
pub fn pair_skews(timing: &CornerTiming, pairs: &[SinkPair]) -> Vec<f64> {
    let mut out = Vec::with_capacity(pairs.len());
    pair_skews_into(timing, pairs, &mut out);
    out
}

/// [`pair_skews`] into `out`, replacing what it held, so a caller that
/// scores many trials reuses one buffer.
///
/// # Panics
///
/// As [`pair_skews`].
pub fn pair_skews_into(timing: &CornerTiming, pairs: &[SinkPair], out: &mut Vec<f64>) {
    out.clear();
    out.extend(
        pairs
            .iter()
            .map(|p| timing.arrival_ps(p.a) - timing.arrival_ps(p.b)),
    );
}

/// Fallible variant of [`pair_skews`]: stops at the first pair endpoint
/// without a finite arrival.
///
/// # Errors
///
/// [`TimingError::NonFinite`] naming the offending endpoint.
pub fn try_pair_skews(timing: &CornerTiming, pairs: &[SinkPair]) -> Result<Vec<f64>, TimingError> {
    pairs
        .iter()
        .map(|p| Ok(timing.try_arrival_ps(p.a)? - timing.try_arrival_ps(p.b)?))
        .collect()
}

/// Per-corner normalization factors `α_k` relative to corner 0: the paper
/// defines `α_k` as the average skew ratio between `c_0` and `c_k` over all
/// sink pairs; we use the robust ratio-of-sums
/// `α_k = Σ|skew_0| / Σ|skew_k|`, which equals the average ratio under a
/// common scale and never divides by a single zero skew. `α_0 = 1`.
///
/// A corner with all-zero skews gets `α_k = 1`.
pub fn alpha_factors(per_corner_skews: &[Vec<f64>]) -> Vec<f64> {
    let base: f64 = per_corner_skews
        .first()
        .map_or(0.0, |s| s.iter().map(|v| v.abs()).sum());
    per_corner_skews
        .iter()
        .map(|sk| {
            let tot: f64 = sk.iter().map(|v| v.abs()).sum();
            if tot <= f64::EPSILON || base <= f64::EPSILON {
                1.0
            } else {
                base / tot
            }
        })
        .collect()
}

/// The sum/max of normalized skew variation over sink pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct VariationReport {
    /// `V_{i,i'}` per pair: worst normalized variation across corner pairs.
    pub per_pair: Vec<f64>,
    /// Weighted sum over pairs — the Table 5 "variation" metric, ps.
    pub sum: f64,
    /// Largest per-pair variation, ps.
    pub max: f64,
}

/// Computes `V_{i,i'} = max_{(k,k')} |α_k·skew_k − α_k'·skew_k'|` per pair
/// (Eq. (2)) and its weighted sum (the optimization objective).
///
/// `weights` defaults to 1.0 per pair when `None`.
///
/// # Panics
///
/// Panics if the skew vectors have inconsistent lengths or `alphas` does
/// not match the corner count.
pub fn variation_report(
    per_corner_skews: &[Vec<f64>],
    alphas: &[f64],
    weights: Option<&[f64]>,
) -> VariationReport {
    let k = per_corner_skews.len();
    assert_eq!(k, alphas.len(), "one alpha per corner");
    let n = per_corner_skews.first().map_or(0, std::vec::Vec::len);
    for sk in per_corner_skews {
        assert_eq!(sk.len(), n, "equal pair counts per corner");
    }
    let per_pair: Vec<f64> = (0..n)
        .map(|i| {
            let mut worst: f64 = 0.0;
            for a in 0..k {
                for b in (a + 1)..k {
                    let v = (alphas[a] * per_corner_skews[a][i]
                        - alphas[b] * per_corner_skews[b][i])
                        .abs();
                    worst = worst.max(v);
                }
            }
            worst
        })
        .collect();
    let sum = per_pair
        .iter()
        .enumerate()
        .map(|(i, v)| v * weights.map_or(1.0, |w| w[i]))
        .sum();
    let max = per_pair.iter().copied().fold(0.0, f64::max);
    VariationReport { per_pair, sum, max }
}

/// Local skew at a corner: the largest |skew| over the valid sink pairs —
/// the "skew" columns of Table 5.
pub fn local_skew_ps(skews: &[f64]) -> f64 {
    skews.iter().map(|s| s.abs()).fold(0.0, f64::max)
}

/// Per-pair skew ratios `skew_k / skew_base` for the Fig. 9 distributions,
/// skipping pairs whose base skew is below `min_base_ps` (ratio unstable).
pub fn skew_ratios(
    per_corner_skews: &[Vec<f64>],
    k: usize,
    base: usize,
    min_base_ps: f64,
) -> Vec<f64> {
    per_corner_skews[base]
        .iter()
        .zip(&per_corner_skews[k])
        .filter(|(b, _)| b.abs() >= min_base_ps)
        .map(|(b, v)| v / b)
        .collect()
}

#[cfg(test)]
// tests pin exact expected values on purpose
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn alpha_is_one_for_base_and_inverse_of_scale() {
        let skews = vec![vec![10.0, -20.0, 30.0], vec![20.0, -40.0, 60.0]];
        let a = alpha_factors(&skews);
        assert!((a[0] - 1.0).abs() < 1e-12);
        assert!((a[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn alpha_handles_degenerate_corners() {
        let skews = vec![vec![0.0, 0.0], vec![5.0, -5.0]];
        let a = alpha_factors(&skews);
        assert_eq!(a, vec![1.0, 1.0]);
        assert_eq!(alpha_factors(&[]), Vec::<f64>::new());
    }

    #[test]
    fn variation_zero_when_normalized_skews_agree() {
        // corner 1 is exactly 2x corner 0; alphas cancel the scale
        let skews = vec![vec![10.0, -20.0], vec![20.0, -40.0]];
        let a = alpha_factors(&skews);
        let r = variation_report(&skews, &a, None);
        assert!(r.sum < 1e-9, "sum {}", r.sum);
    }

    #[test]
    fn variation_detects_disagreement() {
        // same total magnitude (alphas = 1) but opposite signs on pair 0
        let skews = vec![vec![10.0, 10.0], vec![-10.0, 10.0]];
        let a = alpha_factors(&skews);
        let r = variation_report(&skews, &a, None);
        assert!((r.per_pair[0] - 20.0).abs() < 1e-9);
        assert!(r.per_pair[1] < 1e-9);
        assert!((r.sum - 20.0).abs() < 1e-9);
        assert!((r.max - 20.0).abs() < 1e-9);
    }

    #[test]
    fn variation_uses_worst_corner_pair() {
        // three corners; the worst disagreement is between corners 1 and 2
        let skews = vec![vec![0.0], vec![8.0], vec![-8.0]];
        let r = variation_report(&skews, &[1.0, 1.0, 1.0], None);
        assert!((r.per_pair[0] - 16.0).abs() < 1e-9);
    }

    #[test]
    fn weights_scale_the_sum() {
        let skews = vec![vec![10.0, 10.0], vec![-10.0, 10.0]];
        let r = variation_report(&skews, &[1.0, 1.0], Some(&[2.0, 1.0]));
        assert!((r.sum - 40.0).abs() < 1e-9);
    }

    #[test]
    fn local_skew_is_max_abs() {
        assert_eq!(local_skew_ps(&[3.0, -7.0, 5.0]), 7.0);
        assert_eq!(local_skew_ps(&[]), 0.0);
    }

    #[test]
    fn ratios_skip_tiny_bases() {
        let skews = vec![vec![10.0, 0.001, -5.0], vec![20.0, 50.0, -15.0]];
        let r = skew_ratios(&skews, 1, 0, 0.1);
        assert_eq!(r.len(), 2);
        assert!((r[0] - 2.0).abs() < 1e-12);
        assert!((r[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "one alpha per corner")]
    fn variation_checks_shapes() {
        let _ = variation_report(&[vec![1.0]], &[1.0, 1.0], None);
    }
}
