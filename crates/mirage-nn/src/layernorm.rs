//! Layer normalization with learnable gain/bias and exact backward pass.

#[cfg(any(test, feature = "reference"))]
use crate::param::Grads;
use crate::param::{GradSink, ParamId, ParamSet};
use crate::scratch::Scratch;
use crate::tensor::Matrix;

/// Per-row layer normalization: each row is standardized, then scaled by
/// `gamma` and shifted by `beta`.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LayerNorm {
    /// Gain, shape `1 × dim`.
    pub gamma: ParamId,
    /// Bias, shape `1 × dim`.
    pub beta: ParamId,
    /// Feature width.
    pub dim: usize,
    /// Variance floor.
    pub eps: f32,
}

/// Per-sample forward cache: standardized input and per-row inverse std.
#[cfg(any(test, feature = "reference"))]
#[derive(Debug, Clone)]
pub struct LayerNormCache {
    x_hat: Matrix,
    inv_std: Vec<f32>,
}

/// Retained training cache for a row-stacked batch. Buffers are reused
/// across calls (reset in place), so a warm update loop never allocates.
#[derive(Debug, Clone, Default)]
pub struct LayerNormBatchCache {
    x_hat: Matrix,
    inv_std: Vec<f32>,
}

impl LayerNorm {
    /// Allocates `gamma = 1`, `beta = 0`.
    pub fn new(ps: &mut ParamSet, name: &str, dim: usize) -> Self {
        let gamma = ps.alloc(format!("{name}.gamma"), Matrix::full(1, dim, 1.0));
        let beta = ps.alloc(format!("{name}.beta"), Matrix::zeros(1, dim));
        Self {
            gamma,
            beta,
            dim,
            eps: 1e-5,
        }
    }

    /// Forward into a caller-provided buffer that records nothing: no
    /// allocation once `out` is warm. [`LayerNorm::forward_batch`] without
    /// a cache.
    pub fn forward_into(&self, ps: &ParamSet, x: &Matrix, out: &mut Matrix) {
        self.forward_batch(ps, x, out, None);
    }

    /// The one matrix forward: normalizes every row of `x` into `out` and,
    /// given a `cache`, records the standardized input and per-row inverse
    /// std for [`LayerNorm::backward_batch`]. Per-row arithmetic is that of
    /// the per-sample `forward`, so outputs are bit-identical however the
    /// rows are blocked.
    pub fn forward_batch(
        &self,
        ps: &ParamSet,
        x: &Matrix,
        out: &mut Matrix,
        mut cache: Option<&mut LayerNormBatchCache>,
    ) {
        debug_assert_eq!(x.cols(), self.dim);
        let n = self.dim as f32;
        let gamma = ps.get(self.gamma).row(0);
        let beta = ps.get(self.beta).row(0);
        out.reset(x.rows(), x.cols());
        if let Some(c) = cache.as_deref_mut() {
            c.x_hat.reset(x.rows(), x.cols());
            c.inv_std.clear();
        }
        for r in 0..x.rows() {
            let row = x.row(r);
            let mean = row.iter().sum::<f32>() / n;
            let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n;
            let istd = 1.0 / (var + self.eps).sqrt();
            let orow = out.row_mut(r);
            for c in 0..row.len() {
                let xh = (row[c] - mean) * istd;
                orow[c] = xh * gamma[c] + beta[c];
            }
            if let Some(c) = cache.as_deref_mut() {
                c.inv_std.push(istd);
                for (h, &xv) in c.x_hat.row_mut(r).iter_mut().zip(row) {
                    *h = (xv - mean) * istd;
                }
            }
        }
    }

    /// Batched backward over a row-stacked batch of `batch` equal-height
    /// blocks (the cache from [`LayerNorm::forward_batch`]). Block
    /// `b`'s `dgamma`/`dbeta` fold into `sink` in ascending order;
    /// per-row arithmetic is the exact body of the per-sample `backward`,
    /// so this reproduces the sequential per-block backward bit for bit.
    #[allow(clippy::too_many_arguments)]
    pub fn backward_batch(
        &self,
        ps: &ParamSet,
        cache: &LayerNormBatchCache,
        dy: &Matrix,
        batch: usize,
        sink: &mut GradSink<'_>,
        dx: &mut Matrix,
        scratch: &mut Scratch,
    ) {
        assert!(
            batch > 0 && dy.rows().is_multiple_of(batch),
            "rows must split into blocks"
        );
        let block_rows = dy.rows() / batch;
        let n = self.dim as f32;
        let gamma = ps.get(self.gamma);
        dx.reset(dy.rows(), dy.cols());
        let mut dgamma = scratch.take(1, self.dim);
        let mut dbeta = scratch.take(1, self.dim);
        let mut dxhat = scratch.take(1, self.dim);
        for b in 0..batch {
            dgamma.reset(1, self.dim);
            dbeta.reset(1, self.dim);
            for r in b * block_rows..(b + 1) * block_rows {
                let istd = cache.inv_std[r];
                let mut sum_dxhat = 0.0;
                let mut sum_dxhat_xhat = 0.0;
                for c in 0..self.dim {
                    let g = dy.get(r, c) * gamma.get(0, c);
                    dxhat.set(0, c, g);
                    sum_dxhat += g;
                    sum_dxhat_xhat += g * cache.x_hat.get(r, c);
                    dgamma.set(
                        0,
                        c,
                        dgamma.get(0, c) + dy.get(r, c) * cache.x_hat.get(r, c),
                    );
                    dbeta.set(0, c, dbeta.get(0, c) + dy.get(r, c));
                }
                for c in 0..self.dim {
                    let xh = cache.x_hat.get(r, c);
                    let v = (n * dxhat.get(0, c) - sum_dxhat - xh * sum_dxhat_xhat) * istd / n;
                    dx.set(r, c, v);
                }
            }
            let g = sink.grads();
            g.accumulate_ref(self.gamma, &dgamma);
            g.accumulate_ref(self.beta, &dbeta);
        }
        scratch.give(dxhat);
        scratch.give(dbeta);
        scratch.give(dgamma);
    }
}

/// Per-sample definitions: the oracles the batched passes are pinned to.
#[cfg(any(test, feature = "reference"))]
impl LayerNorm {
    /// Normalizes each row of `x`.
    pub fn forward(&self, ps: &ParamSet, x: &Matrix) -> (Matrix, LayerNormCache) {
        debug_assert_eq!(x.cols(), self.dim);
        let n = self.dim as f32;
        let gamma = ps.get(self.gamma);
        let beta = ps.get(self.beta);
        let mut x_hat = Matrix::zeros(x.rows(), x.cols());
        let mut inv_std = Vec::with_capacity(x.rows());
        let mut y = Matrix::zeros(x.rows(), x.cols());
        for r in 0..x.rows() {
            let row = x.row(r);
            let mean = row.iter().sum::<f32>() / n;
            let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n;
            let istd = 1.0 / (var + self.eps).sqrt();
            inv_std.push(istd);
            for (c, &xv) in row.iter().enumerate() {
                let xh = (xv - mean) * istd;
                x_hat.set(r, c, xh);
                y.set(r, c, xh * gamma.get(0, c) + beta.get(0, c));
            }
        }
        (y, LayerNormCache { x_hat, inv_std })
    }

    /// Backward pass. Accumulates `dgamma`, `dbeta`; returns `dx`.
    pub fn backward(
        &self,
        ps: &ParamSet,
        cache: &LayerNormCache,
        dy: &Matrix,
        grads: &mut Grads,
    ) -> Matrix {
        let n = self.dim as f32;
        let gamma = ps.get(self.gamma);
        let mut dgamma = Matrix::zeros(1, self.dim);
        let mut dbeta = Matrix::zeros(1, self.dim);
        let mut dx = Matrix::zeros(dy.rows(), dy.cols());
        for r in 0..dy.rows() {
            let istd = cache.inv_std[r];
            // dl/dx̂ = dy ⊙ γ ; standard LN backward:
            // dx = (1/n)·istd·(n·dx̂ − Σdx̂ − x̂·Σ(dx̂⊙x̂))
            let mut sum_dxhat = 0.0;
            let mut sum_dxhat_xhat = 0.0;
            let mut dxhat = vec![0.0f32; self.dim];
            for (c, slot) in dxhat.iter_mut().enumerate() {
                let g = dy.get(r, c) * gamma.get(0, c);
                *slot = g;
                sum_dxhat += g;
                sum_dxhat_xhat += g * cache.x_hat.get(r, c);
                dgamma.set(
                    0,
                    c,
                    dgamma.get(0, c) + dy.get(r, c) * cache.x_hat.get(r, c),
                );
                dbeta.set(0, c, dbeta.get(0, c) + dy.get(r, c));
            }
            for (c, &dxh) in dxhat.iter().enumerate() {
                let xh = cache.x_hat.get(r, c);
                let v = (n * dxh - sum_dxhat - xh * sum_dxhat_xhat) * istd / n;
                dx.set(r, c, v);
            }
        }
        grads.accumulate(self.gamma, dgamma);
        grads.accumulate(self.beta, dbeta);
        dx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_gradients;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rows_are_standardized() {
        let mut ps = ParamSet::new();
        let ln = LayerNorm::new(&mut ps, "ln", 4);
        let x = Matrix::from_vec(2, 4, vec![1.0, 2.0, 3.0, 4.0, -5.0, 0.0, 5.0, 10.0]);
        let (y, _) = ln.forward(&ps, &x);
        for r in 0..2 {
            let mean: f32 = y.row(r).iter().sum::<f32>() / 4.0;
            let var: f32 = y
                .row(r)
                .iter()
                .map(|v| (v - mean) * (v - mean))
                .sum::<f32>()
                / 4.0;
            assert!(mean.abs() < 1e-5, "row {r} mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "row {r} var {var}");
        }
    }

    #[test]
    fn gamma_beta_scale_and_shift() {
        let mut ps = ParamSet::new();
        let ln = LayerNorm::new(&mut ps, "ln", 2);
        *ps.get_mut(ln.gamma) = Matrix::row_vector(vec![2.0, 2.0]);
        *ps.get_mut(ln.beta) = Matrix::row_vector(vec![1.0, 1.0]);
        let x = Matrix::from_vec(1, 2, vec![0.0, 2.0]);
        let (y, _) = ln.forward(&ps, &x);
        // x̂ = [-1, 1] → y = [-1, 3].
        assert!((y.get(0, 0) + 1.0).abs() < 1e-3);
        assert!((y.get(0, 1) - 3.0).abs() < 1e-3);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(5);
        let ln = LayerNorm::new(&mut ps, "ln", 5);
        // Non-trivial gamma/beta so their gradients are exercised.
        *ps.get_mut(ln.gamma) = Matrix::xavier(1, 5, &mut rng);
        *ps.get_mut(ln.beta) = Matrix::xavier(1, 5, &mut rng);
        let x = Matrix::xavier(3, 5, &mut rng).scale(3.0);
        // Weighted-sum loss breaks symmetry.
        let wvec: Vec<f32> = (0..15).map(|i| (i as f32 * 0.37).sin()).collect();
        let weights = Matrix::from_vec(3, 5, wvec);
        let loss = |ps: &ParamSet| ln.forward(ps, &x).0.hadamard(&weights).sum();
        let (_, cache) = ln.forward(&ps, &x);
        let mut grads = Grads::new(&ps);
        let dx = ln.backward(&ps, &cache, &weights, &mut grads);
        check_gradients(&mut ps, &[ln.gamma, ln.beta], loss, &grads, 1e-2, 2e-2).unwrap();
        // Check dx numerically for a few elements.
        let eps = 1e-2;
        let mut x2 = x.clone();
        for (r, c) in [(0, 0), (1, 3), (2, 4)] {
            let orig = x2.get(r, c);
            x2.set(r, c, orig + eps);
            let up = ln.forward(&ps, &x2).0.hadamard(&weights).sum();
            x2.set(r, c, orig - eps);
            let dn = ln.forward(&ps, &x2).0.hadamard(&weights).sum();
            x2.set(r, c, orig);
            let num = (up - dn) / (2.0 * eps);
            assert!(
                (dx.get(r, c) - num).abs() < 3e-2,
                "dx[{r},{c}] {} vs {num}",
                dx.get(r, c)
            );
        }
    }
}
