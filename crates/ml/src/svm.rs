//! Least-squares SVM regression with RBF kernel (the paper's "SVM with RBF
//! kernel" model class; LS-SVM trades SMO for one linear solve).

use crate::linalg::Matrix;
use crate::Regressor;

/// A trained LS-SVM: `f(x) = b + Σ αᵢ K(xᵢ, x)` with
/// `K(x, z) = exp(−γ‖x − z‖²)`.
///
/// Training solves the standard LS-SVM saddle system
/// `[[0, 1ᵀ], [1, K + I/C]] · [b; α] = [0; y]`.
///
/// The support vectors are one flat row-major matrix, so prediction
/// streams through contiguous memory and allocates nothing.
#[derive(Debug, Clone)]
pub struct LsSvm {
    /// Support vector `i` is `xs[i * dim..(i + 1) * dim]`.
    xs: Vec<f64>,
    dim: usize,
    alpha: Vec<f64>,
    bias: f64,
    gamma: f64,
}

impl LsSvm {
    /// Trains on `(xs, ys)`.
    ///
    /// * `gamma` — RBF width (larger = more local);
    /// * `c` — regularization (larger = closer interpolation).
    ///
    /// Training cost is O(n³); callers with large datasets should
    /// subsample (the flow trains on ≤ ~1000 supports).
    ///
    /// # Panics
    ///
    /// Panics if inputs are empty/mismatched or `gamma`/`c` are not
    /// positive.
    pub fn train(xs: &[Vec<f64>], ys: &[f64], gamma: f64, c: f64) -> Self {
        assert!(!xs.is_empty(), "no training samples");
        assert_eq!(xs.len(), ys.len(), "xs/ys length mismatch");
        assert!(gamma > 0.0 && c > 0.0, "gamma and c must be positive");
        let n = xs.len();
        let mut m = Matrix::zeros(n + 1, n + 1);
        for i in 0..n {
            m[(0, i + 1)] = 1.0;
            m[(i + 1, 0)] = 1.0;
            for j in 0..n {
                m[(i + 1, j + 1)] = rbf(&xs[i], &xs[j], gamma);
            }
            m[(i + 1, i + 1)] += 1.0 / c;
        }
        let mut rhs = vec![0.0; n + 1];
        rhs[1..].copy_from_slice(ys);
        let sol = m
            .lu_solve(&rhs)
            .expect("LS-SVM system is nonsingular for C > 0");
        LsSvm {
            xs: xs.concat(),
            dim: xs[0].len(),
            alpha: sol[1..].to_vec(),
            bias: sol[0],
            gamma,
        }
    }

    /// Number of support vectors (every training point, for LS-SVM).
    pub fn support_count(&self) -> usize {
        self.alpha.len()
    }

    /// Support vector `i`.
    fn sv(&self, i: usize) -> &[f64] {
        &self.xs[i * self.dim..(i + 1) * self.dim]
    }
}

/// Support vectors whose distances are summed side by side.
const LANES: usize = 4;

fn rbf(a: &[f64], b: &[f64], gamma: f64) -> f64 {
    let d2: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
    (-gamma * d2).exp()
}

impl Regressor for LsSvm {
    /// `b + Σ αᵢ K(xᵢ, x)`. The squared distances of [`LANES`] support
    /// vectors accumulate side by side, each in dimension order, and the
    /// kernel terms are then added in support-vector order from `-0.0`
    /// (the start of `Iterator::sum` over `f64`), so the result is the
    /// same float as the sequential sum.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not as wide as the training samples.
    fn predict(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.dim, "feature width mismatch");
        let (d, n) = (self.dim, self.alpha.len());
        let full = n - n % LANES;
        let mut sum = -0.0;
        for (b, alpha) in self.alpha[..full].chunks_exact(LANES).enumerate() {
            let block = &self.xs[b * LANES * d..(b + 1) * LANES * d];
            let rows: [&[f64]; LANES] = std::array::from_fn(|l| &block[l * d..(l + 1) * d]);
            let mut d2 = [0.0; LANES];
            for (j, &xj) in x.iter().enumerate() {
                for (acc, row) in d2.iter_mut().zip(rows) {
                    let t = row[j] - xj;
                    *acc += t * t;
                }
            }
            for (a, d) in alpha.iter().zip(d2) {
                sum += a * (-self.gamma * d).exp();
            }
        }
        for k in full..n {
            sum += self.alpha[k] * rbf(self.sv(k), x, self.gamma);
        }
        self.bias + sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mse;
    use proptest::prelude::*;

    /// `predict` as it was over one `Vec` per support vector, kept as the
    /// oracle of the flat lane-parallel one.
    fn nested_predict(xs: &[Vec<f64>], alpha: &[f64], bias: f64, gamma: f64, x: &[f64]) -> f64 {
        fn rbf(a: &[f64], b: &[f64], gamma: f64) -> f64 {
            let d2: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
            (-gamma * d2).exp()
        }
        bias + xs
            .iter()
            .zip(alpha)
            .map(|(sv, a)| a * rbf(sv, x, gamma))
            .sum::<f64>()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Same float as the nested reference on random widths, support
        /// counts (lane remainders included) and kernel widths, from
        /// near-coincident points to kernels that underflow to zero.
        #[test]
        fn predict_matches_the_nested_reference(
            shape in (1usize..14, 0usize..42, 0.01f64..3.0, -5.0f64..5.0),
            spread in 0.05f64..30.0,
            vals in prop::collection::vec(-1.0f64..1.0, 14 * 43),
            alpha in prop::collection::vec(-5.0f64..5.0, 42),
        ) {
            let (dim, n, gamma, bias) = shape;
            let xs: Vec<Vec<f64>> = (0..n)
                .map(|i| vals[i * dim..(i + 1) * dim].iter().map(|v| v * spread).collect())
                .collect();
            let x: Vec<f64> = vals[n * dim..(n + 1) * dim].iter().map(|v| v * spread).collect();
            let m = LsSvm {
                xs: xs.concat(),
                dim,
                alpha: alpha[..n].to_vec(),
                bias,
                gamma,
            };
            let want = nested_predict(&xs, &alpha[..n], bias, gamma, &x);
            prop_assert_eq!(m.predict(&x).to_bits(), want.to_bits());
        }
    }

    #[test]
    fn interpolates_with_large_c() {
        let xs: Vec<Vec<f64>> = (0..30).map(|i| vec![f64::from(i) / 10.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (x[0]).sin()).collect();
        let m = LsSvm::train(&xs, &ys, 2.0, 1e6);
        for (x, y) in xs.iter().zip(&ys) {
            assert!((m.predict(x) - y).abs() < 1e-3);
        }
    }

    #[test]
    fn generalizes_smooth_function() {
        let xs: Vec<Vec<f64>> = (0..40).map(|i| vec![f64::from(i) / 8.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (x[0]).sin() + 0.5 * x[0]).collect();
        let m = LsSvm::train(&xs, &ys, 1.0, 100.0);
        // off-grid points
        let test_x: Vec<Vec<f64>> = (0..39).map(|i| vec![f64::from(i) / 8.0 + 0.06]).collect();
        let test_y: Vec<f64> = test_x.iter().map(|x| (x[0]).sin() + 0.5 * x[0]).collect();
        let preds = m.predict_batch(&test_x);
        assert!(mse(&preds, &test_y) < 1e-3, "mse {}", mse(&preds, &test_y));
    }

    #[test]
    fn small_c_regularizes_toward_mean() {
        let xs = vec![vec![0.0], vec![1.0]];
        let ys = vec![-10.0, 10.0];
        let tight = LsSvm::train(&xs, &ys, 1.0, 1e6);
        let loose = LsSvm::train(&xs, &ys, 1.0, 1e-3);
        // loose predictions shrink toward the mean (0)
        assert!(loose.predict(&[1.0]).abs() < tight.predict(&[1.0]).abs());
    }

    #[test]
    fn multi_dimensional_inputs() {
        let xs: Vec<Vec<f64>> = (0..25)
            .map(|i| vec![f64::from(i % 5), f64::from(i / 5)])
            .collect();
        let ys: Vec<f64> = xs.iter().map(|x| x[0] * 2.0 - x[1]).collect();
        let m = LsSvm::train(&xs, &ys, 0.3, 1e4);
        assert!((m.predict(&[2.0, 2.0]) - 2.0).abs() < 0.2);
        assert_eq!(m.support_count(), 25);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn rejects_bad_hyperparams() {
        let _ = LsSvm::train(&[vec![0.0]], &[1.0], -1.0, 1.0);
    }
}
