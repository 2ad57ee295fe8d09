//! Fully-connected layer with manual backward pass.
//!
//! [`Linear::backward_batch`] folds each block's weight and bias gradient
//! straight into the accumulator by the crate's accumulation contract
//! (see [`crate::tensor`]).

use rand::Rng;

#[cfg(any(test, feature = "reference"))]
use crate::param::Grads;
use crate::param::{GradSink, ParamId, ParamSet};
use crate::scratch::Scratch;
use crate::tensor::Matrix;

/// `y = x W + b` over rows of `x`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Linear {
    /// Weight handle, shape `in_dim × out_dim`.
    pub w: ParamId,
    /// Bias handle, shape `1 × out_dim`.
    pub b: ParamId,
    /// Input width.
    pub in_dim: usize,
    /// Output width.
    pub out_dim: usize,
}

/// Per-sample forward cache: the input is all the backward needs.
#[cfg(any(test, feature = "reference"))]
#[derive(Debug, Clone)]
pub struct LinearCache {
    x: Matrix,
}

impl Linear {
    /// Allocates Xavier-initialized parameters in `ps`.
    pub fn new(
        ps: &mut ParamSet,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let w = ps.alloc(format!("{name}.w"), Matrix::xavier(in_dim, out_dim, rng));
        let b = ps.alloc(format!("{name}.b"), Matrix::zeros(1, out_dim));
        Self {
            w,
            b,
            in_dim,
            out_dim,
        }
    }

    /// Forward into a caller-provided buffer: no cache, no allocation
    /// once `out` is warm.
    pub fn forward_into(&self, ps: &ParamSet, x: &Matrix, out: &mut Matrix) {
        debug_assert_eq!(x.cols(), self.in_dim, "linear input width mismatch");
        x.matmul_into(ps.get(self.w), out);
        out.add_row_in_place(ps.get(self.b));
    }

    /// Batched backward over a row-stacked input: `x` and `dy` hold
    /// `batch` equal-height blocks. Block `b`'s `dW = xᵀ dy` and
    /// `db = Σ_rows dy` are each computed per element as one ascending-row
    /// chain from `+0.0` and closed straight into `sink`'s running total in
    /// ascending block order, the first block copied into an unfilled
    /// slot (`Matrix::t_matmul_fold_blocks`): no per-block temporary.
    /// Given `dx`, it receives `dy Wᵀ`; a network's first layer passes
    /// `None`, since that product (the largest transposed matmul in the
    /// net) feeds nothing there. The per-block chains are those of the
    /// per-sample `backward` on a standalone block and `dx` is row-local,
    /// so the result is bit-identical to `batch` sequential backward calls
    /// either way.
    #[allow(clippy::too_many_arguments)]
    pub fn backward_batch(
        &self,
        ps: &ParamSet,
        x: &Matrix,
        dy: &Matrix,
        batch: usize,
        sink: &mut GradSink<'_>,
        dx: Option<&mut Matrix>,
        scratch: &mut Scratch,
    ) {
        assert_eq!(x.rows(), dy.rows(), "linear backward_batch row mismatch");
        let g = sink.grads();
        g.fold_into(self.w, self.in_dim, self.out_dim, |dw, filled| {
            x.t_matmul_fold_blocks(dy, batch, dw, filled)
        });
        g.fold_into(self.b, 1, self.out_dim, |db, filled| {
            dy.sum_rows_fold_blocks(None, batch, db, filled)
        });
        if let Some(dx) = dx {
            let mut wt = scratch.take(self.out_dim, self.in_dim);
            dy.matmul_t_buf_into(ps.get(self.w), dx, &mut wt);
            scratch.give(wt);
        }
    }
}

/// Per-sample definitions: the oracles the batched passes are pinned to.
#[cfg(any(test, feature = "reference"))]
impl Linear {
    /// Forward pass over a batch of row vectors.
    pub fn forward(&self, ps: &ParamSet, x: &Matrix) -> (Matrix, LinearCache) {
        let mut y = Matrix::zeros(0, 0);
        self.forward_into(ps, x, &mut y);
        (y, LinearCache { x: x.clone() })
    }

    /// Backward pass: accumulates `dW = xᵀ dy`, `db = Σ_rows dy` and
    /// returns `dx = dy Wᵀ`.
    pub fn backward(
        &self,
        ps: &ParamSet,
        cache: &LinearCache,
        dy: &Matrix,
        grads: &mut Grads,
    ) -> Matrix {
        grads.accumulate(self.w, cache.x.t_matmul(dy));
        grads.accumulate(self.b, dy.sum_rows());
        dy.matmul_t(ps.get(self.w))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_gradients;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_shape_and_values() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(0);
        let lin = Linear::new(&mut ps, "l", 3, 2, &mut rng);
        // Overwrite with known weights.
        *ps.get_mut(lin.w) = Matrix::from_vec(3, 2, vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
        *ps.get_mut(lin.b) = Matrix::row_vector(vec![0.5, -0.5]);
        let x = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let (y, _) = lin.forward(&ps, &x);
        assert_eq!(y.shape(), (1, 2));
        assert_eq!(y.data(), &[1.0 + 3.0 + 0.5, 2.0 + 3.0 - 0.5]);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(1);
        let lin = Linear::new(&mut ps, "l", 4, 3, &mut rng);
        let x = Matrix::xavier(5, 4, &mut rng);
        // Loss = sum(forward(x)); dL/dy = ones.
        let loss = |ps: &ParamSet| lin.forward(ps, &x).0.sum();
        let mut grads = Grads::new(&ps);
        let (y, cache) = lin.forward(&ps, &x);
        let dy = Matrix::full(y.rows(), y.cols(), 1.0);
        let dx = lin.backward(&ps, &cache, &dy, &mut grads);
        check_gradients(&mut ps, &[lin.w, lin.b], loss, &grads, 1e-2, 2e-2).unwrap();
        // dx against finite differences on the input.
        let mut x2 = x.clone();
        let eps = 1e-2;
        for i in 0..4 {
            let orig = x2.get(0, i);
            x2.set(0, i, orig + eps);
            let up = lin.forward(&ps, &x2).0.sum();
            x2.set(0, i, orig - eps);
            let dn = lin.forward(&ps, &x2).0.sum();
            x2.set(0, i, orig);
            let num = (up - dn) / (2.0 * eps);
            assert!((dx.get(0, i) - num).abs() < 2e-2, "dx[{i}]");
        }
    }

    #[test]
    fn batch_grads_are_sums_over_rows() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(2);
        let lin = Linear::new(&mut ps, "l", 2, 2, &mut rng);
        let x1 = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        let x2 = Matrix::from_vec(1, 2, vec![3.0, 4.0]);
        let xb = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let dy1 = Matrix::full(1, 2, 1.0);
        let dyb = Matrix::full(2, 2, 1.0);

        let mut g_sep = Grads::new(&ps);
        let (_, c1) = lin.forward(&ps, &x1);
        lin.backward(&ps, &c1, &dy1, &mut g_sep);
        let (_, c2) = lin.forward(&ps, &x2);
        lin.backward(&ps, &c2, &dy1, &mut g_sep);

        let mut g_bat = Grads::new(&ps);
        let (_, cb) = lin.forward(&ps, &xb);
        lin.backward(&ps, &cb, &dyb, &mut g_bat);

        for id in [lin.w, lin.b] {
            let a = g_sep.get(id).unwrap();
            let b = g_bat.get(id).unwrap();
            for (x, y) in a.data().iter().zip(b.data()) {
                assert!((x - y).abs() < 1e-5);
            }
        }
    }

    /// A batch that does not split the rows, or an input of the wrong
    /// width, panics before an empty gradient slot counts as filled.
    #[test]
    fn rejected_backward_batch_leaves_empty_slots_empty() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(3);
        let lin = Linear::new(&mut ps, "l", 4, 3, &mut rng);
        let dy = Matrix::xavier(6, 3, &mut rng);
        let mut grads = Grads::new(&ps);
        let mut scratch = Scratch::new();
        for (x, batch) in [
            (Matrix::xavier(6, 4, &mut rng), 4),
            (Matrix::xavier(6, 4, &mut rng), 0),
            (Matrix::xavier(6, 5, &mut rng), 2),
        ] {
            let run = catch_unwind(AssertUnwindSafe(|| {
                let mut sink = GradSink::Fused(&mut grads);
                lin.backward_batch(&ps, &x, &dy, batch, &mut sink, None, &mut scratch);
            }));
            assert!(run.is_err(), "batch {batch}, x {:?}", x.shape());
            assert!(grads.get(lin.w).is_none() && grads.get(lin.b).is_none());
        }
    }
}
