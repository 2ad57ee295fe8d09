//! Layer normalization with learnable gain/bias and exact backward pass.
//!
//! The batched passes run rows in small groups whose per-row reductions
//! advance together as lane vectors; each row's arithmetic stays the
//! per-sample definition's. The parameter gradients follow the crate's
//! accumulation contract (see [`crate::tensor`]): per block, one
//! ascending-row chain per element from `+0.0`, closed into the running
//! total in ascending block order, the first block copied into an empty
//! slot.

#[cfg(any(test, feature = "reference"))]
use crate::param::Grads;
use crate::param::{GradSink, ParamId, ParamSet};
use crate::tensor::Matrix;

/// Rows whose statistics [`LayerNorm::forward_batch`] computes together:
/// one 8-lane vector per chain. A 12-row serving forward runs one group
/// and one half group.
const FWD_ROWS: usize = 8;
/// Columns [`for_each_column`] transposes at a time: an 8 × 8 tile.
const COLUMN_CHUNK: usize = 8;
/// Rows whose backward sums [`LayerNorm::backward_batch`] computes
/// together: two chains per row, so 8 independent chains in flight.
const BWD_ROWS: usize = 4;

/// Calls `f(c, cols)` on each column `c` of `K` sets of `G` equal-width
/// rows, in ascending column order, where `cols[k]` is column `c` of set
/// `k` as one `[f32; G]` lane vector. The rows are transposed
/// [`COLUMN_CHUNK`] columns at a time (whole-vector loads and register
/// shuffles); the columns after the last full chunk are gathered one at a
/// time.
#[inline(always)]
fn for_each_column<const G: usize, const K: usize>(
    sets: [[&[f32]; G]; K],
    mut f: impl FnMut(usize, &[[f32; G]; K]),
) {
    let d = sets[0][0].len();
    let chunks = d / COLUMN_CHUNK;
    for k in 0..chunks {
        let c0 = k * COLUMN_CHUNK;
        let mut t = [[[0.0f32; G]; K]; COLUMN_CHUNK];
        for (s, rows) in sets.iter().enumerate() {
            for (g, row) in rows.iter().enumerate() {
                for (tc, &v) in t.iter_mut().zip(&row[c0..c0 + COLUMN_CHUNK]) {
                    tc[s][g] = v;
                }
            }
        }
        for (i, cols) in t.iter().enumerate() {
            f(c0 + i, cols);
        }
    }
    for c in chunks * COLUMN_CHUNK..d {
        f(c, &sets.map(|rows| rows.map(|row| row[c])));
    }
}

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
    /// std for [`LayerNorm::backward_batch`]. Rows run in groups of
    /// `FWD_ROWS`: the group's mean chains, then its variance chains,
    /// advance together as one lane vector, one column per step, each from
    /// `-0.0` in ascending column order as `Iterator::sum` runs the
    /// per-sample `forward`'s. The rows after the last full group run as a
    /// half group, then one at a time, through the same body, so outputs
    /// are bit-identical however the rows are blocked or grouped.
    pub fn forward_batch(
        &self,
        ps: &ParamSet,
        x: &Matrix,
        out: &mut Matrix,
        mut cache: Option<&mut LayerNormBatchCache>,
    ) {
        assert_eq!(x.cols(), self.dim, "layernorm input width");
        out.reset_unfilled(x.rows(), x.cols());
        if let Some(c) = cache.as_deref_mut() {
            c.x_hat.reset_unfilled(x.rows(), x.cols());
            c.inv_std.clear();
        }
        let mut r = 0;
        while r + FWD_ROWS <= x.rows() {
            self.forward_rows::<FWD_ROWS>(ps, x, r, out, cache.as_deref_mut());
            r += FWD_ROWS;
        }
        if r + FWD_ROWS / 2 <= x.rows() {
            self.forward_rows::<{ FWD_ROWS / 2 }>(ps, x, r, out, cache.as_deref_mut());
            r += FWD_ROWS / 2;
        }
        for r in r..x.rows() {
            self.forward_rows::<1>(ps, x, r, out, cache.as_deref_mut());
        }
    }

    /// Normalizes rows `r0 .. r0 + G` of `x` into `out` (and the cache):
    /// the `G` rows' statistics as lane vectors, then each row's outputs
    /// as the per-sample `forward` computes them.
    #[inline(always)]
    fn forward_rows<const G: usize>(
        &self,
        ps: &ParamSet,
        x: &Matrix,
        r0: usize,
        out: &mut Matrix,
        cache: Option<&mut LayerNormBatchCache>,
    ) {
        let n = self.dim as f32;
        let rows: [&[f32]; G] = std::array::from_fn(|g| x.row(r0 + g));
        let mut sum = [-0.0f32; G];
        for_each_column([rows], |_, [col]| {
            for g in 0..G {
                sum[g] += col[g];
            }
        });
        let mean = sum.map(|s| s / n);
        let mut sq = [-0.0f32; G];
        for_each_column([rows], |_, [col]| {
            for g in 0..G {
                let v = col[g] - mean[g];
                sq[g] += v * v;
            }
        });
        let istd = std::array::from_fn::<f32, G, _>(|g| 1.0 / (sq[g] / n + self.eps).sqrt());
        let gamma = ps.get(self.gamma).row(0);
        let beta = ps.get(self.beta).row(0);
        for g in 0..G {
            let (m, s) = (mean[g], istd[g]);
            let orow = out.row_mut(r0 + g);
            for ((o, &xv), (&gm, &bt)) in orow.iter_mut().zip(rows[g]).zip(gamma.iter().zip(beta)) {
                *o = (xv - m) * s * gm + bt;
            }
        }
        if let Some(cache) = cache {
            for g in 0..G {
                cache.inv_std.push(istd[g]);
                for (h, &xv) in cache.x_hat.row_mut(r0 + g).iter_mut().zip(rows[g]) {
                    *h = (xv - mean[g]) * istd[g];
                }
            }
        }
    }

    /// Batched backward over a row-stacked batch of `batch` equal-height
    /// blocks (the cache from [`LayerNorm::forward_batch`]). `dx` is
    /// row-local: rows run in groups of `BWD_ROWS` whose `Σdx̂` and
    /// `Σdx̂·x̂` chains (each from `+0.0`, ascending columns) advance
    /// together, then the rows left over one at a time, each row's
    /// arithmetic the per-sample `backward`'s. Block `b`'s `dgamma`
    /// (`Σ_rows dy ⊙ x̂`) and `dbeta` (`Σ_rows dy`) are per-element
    /// ascending-row chains from `+0.0`, closed straight into `sink`'s
    /// running total in ascending block order with the first block copied
    /// into an unfilled slot. So this reproduces the sequential per-block
    /// backward bit for bit.
    pub fn backward_batch(
        &self,
        ps: &ParamSet,
        cache: &LayerNormBatchCache,
        dy: &Matrix,
        batch: usize,
        sink: &mut GradSink<'_>,
        dx: &mut Matrix,
    ) {
        assert_eq!(dy.shape(), cache.x_hat.shape(), "layernorm backward shape");
        assert_eq!(dy.cols(), self.dim, "layernorm backward width");
        dx.reset_unfilled(dy.rows(), dy.cols());
        let mut r = 0;
        while r + BWD_ROWS <= dy.rows() {
            self.backward_rows::<BWD_ROWS>(ps, cache, dy, r, dx);
            r += BWD_ROWS;
        }
        for r in r..dy.rows() {
            self.backward_rows::<1>(ps, cache, dy, r, dx);
        }
        let g = sink.grads();
        g.fold_into(self.gamma, 1, self.dim, |dgamma, filled| {
            dy.sum_rows_fold_blocks(Some(&cache.x_hat), batch, dgamma, filled)
        });
        g.fold_into(self.beta, 1, self.dim, |dbeta, filled| {
            dy.sum_rows_fold_blocks(None, batch, dbeta, filled)
        });
    }

    /// `dx` rows `r0 .. r0 + G`: `dx̂ = dy ⊙ γ` and
    /// `dx = (1/n)·istd·(n·dx̂ − Σdx̂ − x̂·Σ(dx̂⊙x̂))`, the `G` rows' sums
    /// as lane vectors.
    #[inline(always)]
    fn backward_rows<const G: usize>(
        &self,
        ps: &ParamSet,
        cache: &LayerNormBatchCache,
        dy: &Matrix,
        r0: usize,
        dx: &mut Matrix,
    ) {
        let n = self.dim as f32;
        let gamma = ps.get(self.gamma).row(0);
        let dys: [&[f32]; G] = std::array::from_fn(|g| dy.row(r0 + g));
        let xhs: [&[f32]; G] = std::array::from_fn(|g| cache.x_hat.row(r0 + g));
        let mut sum_dxhat = [0.0f32; G];
        let mut sum_dxhat_xhat = [0.0f32; G];
        for_each_column([dys, xhs], |c, [dcol, hcol]| {
            let gm = gamma[c];
            for g in 0..G {
                let v = dcol[g] * gm;
                sum_dxhat[g] += v;
                sum_dxhat_xhat[g] += v * hcol[g];
            }
        });
        for g in 0..G {
            let istd = cache.inv_std[r0 + g];
            let (s, sx) = (sum_dxhat[g], sum_dxhat_xhat[g]);
            let terms = dys[g].iter().zip(xhs[g]).zip(gamma);
            for (o, ((&dv, &xh), &gm)) in dx.row_mut(r0 + g).iter_mut().zip(terms) {
                *o = (n * (dv * gm) - s - xh * sx) * istd / n;
            }
        }
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
