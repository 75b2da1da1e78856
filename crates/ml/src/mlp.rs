//! Feed-forward neural network (the paper's ANN predictor class).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::Regressor;

/// Training configuration for [`Mlp`].
#[derive(Debug, Clone, PartialEq)]
pub struct MlpConfig {
    /// Hidden-layer widths (tanh activations; output is linear).
    pub hidden: Vec<usize>,
    /// SGD learning rate.
    pub lr: f64,
    /// Momentum coefficient.
    pub momentum: f64,
    /// Full passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch: usize,
    /// L2 weight decay.
    pub l2: f64,
    /// RNG seed (initialization + shuffling) — training is deterministic.
    pub seed: u64,
}

impl Default for MlpConfig {
    fn default() -> Self {
        MlpConfig {
            hidden: vec![16, 8],
            lr: 0.02,
            momentum: 0.9,
            epochs: 200,
            batch: 16,
            l2: 1e-5,
            seed: 7,
        }
    }
}

/// A trained multi-layer perceptron with scalar output.
///
/// Every layer, the input included, is at most [`Mlp::MAX_WIDTH`] wide,
/// so prediction runs on stack buffers.
#[derive(Debug, Clone)]
pub struct Mlp {
    /// `weights[l]` is (out × in) row-major; `biases[l]` is out-sized.
    weights: Vec<Vec<f64>>,
    biases: Vec<Vec<f64>>,
    dims: Vec<usize>,
}

impl Mlp {
    /// Widest layer (input or hidden) a network may have.
    pub const MAX_WIDTH: usize = 64;

    /// Trains on `(xs, ys)` with mini-batch SGD + momentum.
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty, widths are inconsistent, a layer is wider
    /// than [`Mlp::MAX_WIDTH`], or `xs.len() != ys.len()`.
    pub fn train(xs: &[Vec<f64>], ys: &[f64], cfg: &MlpConfig) -> Self {
        assert!(!xs.is_empty(), "no training samples");
        assert_eq!(xs.len(), ys.len(), "xs/ys length mismatch");
        let d_in = xs[0].len();
        assert!(xs.iter().all(|x| x.len() == d_in), "inconsistent width");
        let mut dims = vec![d_in];
        dims.extend_from_slice(&cfg.hidden);
        dims.push(1);
        assert!(
            dims.iter().all(|&d| d <= Self::MAX_WIDTH),
            "layer wider than Mlp::MAX_WIDTH"
        );

        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut weights: Vec<Vec<f64>> = Vec::new();
        let mut biases: Vec<Vec<f64>> = Vec::new();
        for l in 0..dims.len() - 1 {
            let (fan_in, fan_out) = (dims[l], dims[l + 1]);
            let scale = (2.0 / (fan_in + fan_out) as f64).sqrt();
            weights.push(
                (0..fan_in * fan_out)
                    .map(|_| rng.gen_range(-scale..scale))
                    .collect(),
            );
            biases.push(vec![0.0; fan_out]);
        }
        let mut vel_w: Vec<Vec<f64>> = weights.iter().map(|w| vec![0.0; w.len()]).collect();
        let mut vel_b: Vec<Vec<f64>> = biases.iter().map(|b| vec![0.0; b.len()]).collect();

        let mut order: Vec<usize> = (0..xs.len()).collect();
        let n_layers = dims.len() - 1;
        for _epoch in 0..cfg.epochs {
            // Fisher-Yates shuffle
            for i in (1..order.len()).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            for chunk in order.chunks(cfg.batch.max(1)) {
                let mut grad_w: Vec<Vec<f64>> =
                    weights.iter().map(|w| vec![0.0; w.len()]).collect();
                let mut grad_b: Vec<Vec<f64>> = biases.iter().map(|b| vec![0.0; b.len()]).collect();
                for &s in chunk {
                    // forward
                    let mut acts: Vec<Vec<f64>> = vec![xs[s].clone()];
                    for l in 0..n_layers {
                        let (din, dout) = (dims[l], dims[l + 1]);
                        let mut z = vec![0.0; dout];
                        for o in 0..dout {
                            let mut v = biases[l][o];
                            let wrow = &weights[l][o * din..(o + 1) * din];
                            for (wi, ai) in wrow.iter().zip(&acts[l]) {
                                v += wi * ai;
                            }
                            z[o] = if l + 1 == n_layers { v } else { v.tanh() };
                        }
                        acts.push(z);
                    }
                    // backward (MSE loss, scalar output)
                    let pred = acts[n_layers][0];
                    let mut delta = vec![pred - ys[s]]; // dL/dz at output
                    for l in (0..n_layers).rev() {
                        let (din, dout) = (dims[l], dims[l + 1]);
                        for o in 0..dout {
                            grad_b[l][o] += delta[o];
                            let wrow = &mut grad_w[l][o * din..(o + 1) * din];
                            for (gi, ai) in wrow.iter_mut().zip(&acts[l]) {
                                *gi += delta[o] * ai;
                            }
                        }
                        if l > 0 {
                            let mut next = vec![0.0; din];
                            for (i, nx) in next.iter_mut().enumerate() {
                                let mut v = 0.0;
                                for o in 0..dout {
                                    v += weights[l][o * din + i] * delta[o];
                                }
                                // tanh' = 1 - a²
                                let a = acts[l][i];
                                *nx = v * (1.0 - a * a);
                            }
                            delta = next;
                        }
                    }
                }
                // SGD + momentum step
                let scale = cfg.lr / chunk.len() as f64;
                for l in 0..n_layers {
                    for (w, (g, v)) in weights[l]
                        .iter_mut()
                        .zip(grad_w[l].iter().zip(vel_w[l].iter_mut()))
                    {
                        *v = cfg.momentum * *v - scale * (g + cfg.l2 * *w);
                        *w += *v;
                    }
                    for (b, (g, v)) in biases[l]
                        .iter_mut()
                        .zip(grad_b[l].iter().zip(vel_b[l].iter_mut()))
                    {
                        *v = cfg.momentum * *v - scale * g;
                        *b += *v;
                    }
                }
            }
        }
        Mlp {
            weights,
            biases,
            dims,
        }
    }

    /// Input width the network expects.
    pub fn input_width(&self) -> usize {
        self.dims[0]
    }
}

/// Output rows a layer computes side by side.
const ROWS: usize = 4;

impl Regressor for Mlp {
    /// Forward pass on two stack buffers. [`ROWS`] output rows of a layer
    /// accumulate side by side, each from its bias in input order, so
    /// every activation is the same float as a row-at-a-time pass.
    fn predict(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.dims[0], "feature width mismatch");
        let n_layers = self.dims.len() - 1;
        let (mut act, mut out) = ([0.0; Self::MAX_WIDTH], [0.0; Self::MAX_WIDTH]);
        let (mut act, mut out) = (&mut act, &mut out);
        act[..x.len()].copy_from_slice(x);
        for l in 0..n_layers {
            let (din, dout) = (self.dims[l], self.dims[l + 1]);
            let (w, b, a) = (&self.weights[l], &self.biases[l], &act[..din]);
            let squash = |v: f64| if l + 1 == n_layers { v } else { v.tanh() };
            let mut o = 0;
            while o + ROWS <= dout {
                let rows: [&[f64]; ROWS] =
                    std::array::from_fn(|k| &w[(o + k) * din..(o + k + 1) * din]);
                let mut v: [f64; ROWS] = std::array::from_fn(|k| b[o + k]);
                for (i, &ai) in a.iter().enumerate() {
                    for (vk, row) in v.iter_mut().zip(rows) {
                        *vk += row[i] * ai;
                    }
                }
                for (zo, vk) in out[o..o + ROWS].iter_mut().zip(v) {
                    *zo = squash(vk);
                }
                o += ROWS;
            }
            for (k, zo) in out[..dout].iter_mut().enumerate().skip(o) {
                let mut v = b[k];
                for (wi, ai) in w[k * din..(k + 1) * din].iter().zip(a) {
                    v += wi * ai;
                }
                *zo = squash(v);
            }
            std::mem::swap(&mut act, &mut out);
        }
        act[0]
    }
}

#[cfg(test)]
// tests pin exact expected values on purpose
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use crate::{mse, Regressor};
    use proptest::prelude::*;

    /// `predict` as it was, one output row at a time on heap buffers,
    /// kept as the oracle of the lockstep one.
    fn rowwise_predict(m: &Mlp, x: &[f64]) -> f64 {
        let n_layers = m.dims.len() - 1;
        let mut act = x.to_vec();
        for l in 0..n_layers {
            let (din, dout) = (m.dims[l], m.dims[l + 1]);
            let mut z = vec![0.0; dout];
            for (o, zo) in z.iter_mut().enumerate() {
                let mut v = m.biases[l][o];
                let wrow = &m.weights[l][o * din..(o + 1) * din];
                for (wi, ai) in wrow.iter().zip(&act) {
                    v += wi * ai;
                }
                *zo = if l + 1 == n_layers { v } else { v.tanh() };
            }
            act = z;
        }
        act[0]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Same float as the row-at-a-time reference on random depths
        /// and widths (row remainders included) and random weights.
        #[test]
        fn predict_matches_the_rowwise_reference(
            widths in prop::collection::vec(1usize..23, 1..5),
            scale in 0.05f64..4.0,
            vals in prop::collection::vec(-1.0f64..1.0, 2048),
        ) {
            let mut dims = widths;
            dims.push(1);
            let mut next = vals.iter().cycle().map(|v| v * scale);
            let mut layer = |len: usize| -> Vec<f64> { next.by_ref().take(len).collect() };
            let weights: Vec<Vec<f64>> = dims.windows(2).map(|d| layer(d[0] * d[1])).collect();
            let biases: Vec<Vec<f64>> = dims[1..].iter().map(|&d| layer(d)).collect();
            let x = layer(dims[0]);
            let m = Mlp { weights, biases, dims };
            prop_assert_eq!(m.predict(&x).to_bits(), rowwise_predict(&m, &x).to_bits());
        }
    }

    fn grid() -> (Vec<Vec<f64>>, Vec<f64>) {
        let xs: Vec<Vec<f64>> = (0..144)
            .map(|i| vec![f64::from(i % 12) / 12.0, f64::from(i / 12) / 12.0])
            .collect();
        let ys = xs.iter().map(|x| 1.0 + 2.0 * x[0] - 3.0 * x[1]).collect();
        (xs, ys)
    }

    #[test]
    fn learns_linear_function() {
        let (xs, ys) = grid();
        let m = Mlp::train(&xs, &ys, &MlpConfig::default());
        let preds = m.predict_batch(&xs);
        assert!(mse(&preds, &ys) < 0.01, "mse = {}", mse(&preds, &ys));
    }

    #[test]
    fn learns_mild_nonlinearity() {
        let xs: Vec<Vec<f64>> = (0..200).map(|i| vec![f64::from(i) / 100.0 - 1.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x[0] * x[0]).collect();
        let cfg = MlpConfig {
            epochs: 400,
            ..MlpConfig::default()
        };
        let m = Mlp::train(&xs, &ys, &cfg);
        let preds = m.predict_batch(&xs);
        assert!(mse(&preds, &ys) < 0.01, "mse = {}", mse(&preds, &ys));
    }

    #[test]
    fn deterministic_given_seed() {
        let (xs, ys) = grid();
        let cfg = MlpConfig {
            epochs: 10,
            ..MlpConfig::default()
        };
        let a = Mlp::train(&xs, &ys, &cfg).predict(&[0.3, 0.6]);
        let b = Mlp::train(&xs, &ys, &cfg).predict(&[0.3, 0.6]);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn predict_checks_width() {
        let (xs, ys) = grid();
        let cfg = MlpConfig {
            epochs: 1,
            ..MlpConfig::default()
        };
        let m = Mlp::train(&xs, &ys, &cfg);
        let _ = m.predict(&[1.0]);
    }
}
