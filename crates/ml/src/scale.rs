//! Feature standardization.

/// Per-feature standardization to zero mean / unit variance. Constant
/// features get standard deviation 1 so they map to 0 rather than NaN.
#[derive(Debug, Clone, PartialEq)]
pub struct StandardScaler {
    mean: Vec<f64>,
    std: Vec<f64>,
}

impl StandardScaler {
    /// Fits the scaler on a feature matrix (rows = samples).
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty or rows have inconsistent widths.
    pub fn fit(xs: &[Vec<f64>]) -> Self {
        assert!(!xs.is_empty(), "cannot fit a scaler on no samples");
        let d = xs[0].len();
        let n = xs.len() as f64;
        let mut mean = vec![0.0; d];
        for x in xs {
            assert_eq!(x.len(), d, "inconsistent feature width");
            for (m, v) in mean.iter_mut().zip(x) {
                *m += v;
            }
        }
        for m in &mut mean {
            *m /= n;
        }
        let mut var = vec![0.0; d];
        for x in xs {
            for ((s, v), m) in var.iter_mut().zip(x).zip(&mean) {
                *s += (v - m) * (v - m);
            }
        }
        let std = var
            .into_iter()
            .map(|v| {
                let s = (v / n).sqrt();
                if s < 1e-12 {
                    1.0
                } else {
                    s
                }
            })
            .collect();
        StandardScaler { mean, std }
    }

    /// Standardizes one sample.
    pub fn transform(&self, x: &[f64]) -> Vec<f64> {
        x.iter()
            .zip(self.mean.iter().zip(&self.std))
            .map(|(v, (m, s))| (v - m) / s)
            .collect()
    }

    /// [`StandardScaler::transform`] of an `N`-feature sample into a
    /// stack array.
    ///
    /// # Panics
    ///
    /// Panics unless both `x` and the scaler are `N` wide.
    pub fn transform_fixed<const N: usize>(&self, x: &[f64]) -> [f64; N] {
        assert!(
            x.len() == N && self.mean.len() == N,
            "feature width mismatch"
        );
        std::array::from_fn(|i| (x[i] - self.mean[i]) / self.std[i])
    }

    /// Standardizes a batch.
    pub fn transform_batch(&self, xs: &[Vec<f64>]) -> Vec<Vec<f64>> {
        xs.iter().map(|x| self.transform(x)).collect()
    }

    /// Reverses [`StandardScaler::transform`].
    pub fn inverse(&self, z: &[f64]) -> Vec<f64> {
        z.iter()
            .zip(self.mean.iter().zip(&self.std))
            .map(|(v, (m, s))| v * s + m)
            .collect()
    }

    /// Number of features.
    pub fn width(&self) -> usize {
        self.mean.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `transform` as it was, kept as the oracle of both transforms.
    fn reference_transform(sc: &StandardScaler, x: &[f64]) -> Vec<f64> {
        x.iter()
            .zip(sc.mean.iter().zip(&sc.std))
            .map(|(v, (m, s))| (v - m) / s)
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `transform` and the fixed-width `transform_fixed` give the
        /// reference's floats on random fits and samples.
        #[test]
        fn transforms_match_the_reference(
            rows in 1usize..9,
            scale in 0.001f64..1e4,
            vals in prop::collection::vec(-1.0f64..1.0, 10 * 10),
        ) {
            let xs: Vec<Vec<f64>> = vals
                .chunks(10)
                .take(rows)
                .map(|r| r.iter().map(|v| v * scale).collect())
                .collect();
            let sc = StandardScaler::fit(&xs);
            let x: Vec<f64> = vals[90..].iter().map(|v| v * scale * 1.5).collect();
            let want: Vec<u64> = reference_transform(&sc, &x).iter().map(|v| v.to_bits()).collect();
            let got: Vec<u64> = sc.transform(&x).iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(&got, &want);
            let fixed: [f64; 10] = sc.transform_fixed(&x);
            let fixed: Vec<u64> = fixed.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(&fixed, &want);
        }
    }

    #[test]
    fn standardizes_to_zero_mean_unit_var() {
        let xs = vec![vec![1.0, 10.0], vec![3.0, 20.0], vec![5.0, 60.0]];
        let sc = StandardScaler::fit(&xs);
        let zs = sc.transform_batch(&xs);
        for d in 0..2 {
            let mean: f64 = zs.iter().map(|z| z[d]).sum::<f64>() / 3.0;
            let var: f64 = zs.iter().map(|z| z[d] * z[d]).sum::<f64>() / 3.0;
            assert!(mean.abs() < 1e-12);
            assert!((var - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn inverse_roundtrips() {
        let xs = vec![vec![2.0, -1.0], vec![4.0, 5.0], vec![9.0, 0.0]];
        let sc = StandardScaler::fit(&xs);
        for x in &xs {
            let back = sc.inverse(&sc.transform(x));
            for (a, b) in back.iter().zip(x) {
                assert!((a - b).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn constant_feature_maps_to_zero() {
        let xs = vec![vec![7.0], vec![7.0], vec![7.0]];
        let sc = StandardScaler::fit(&xs);
        assert_eq!(sc.transform(&[7.0]), vec![0.0]);
    }
}
