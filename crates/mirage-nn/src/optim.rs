//! The Adam optimizer.
//!
//! Optimizer state is held outside the parameters, indexed by [`ParamId`](crate::param::ParamId)
//! position, so the same optimizer can be reused across many gradient
//! sources (offline foundation pretraining, online head training).

use serde::{Deserialize, Serialize};

use crate::param::{Grads, ParamSet};
use crate::tensor::Matrix;

/// Adam optimizer (Kingma & Ba) with bias correction — the optimizer the
/// paper uses for foundation-model training.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical floor.
    pub eps: f32,
    t: u64,
    m: Vec<Option<Matrix>>,
    v: Vec<Option<Matrix>>,
}

impl Adam {
    /// Adam with standard hyperparameters (β₁ = 0.9, β₂ = 0.999).
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Update steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// The full internal state — step count and first/second moments,
    /// indexed by parameter position — for crash-safe checkpointing.
    /// Round-trips through [`Adam::restore_state`].
    pub fn state(&self) -> (u64, &[Option<Matrix>], &[Option<Matrix>]) {
        (self.t, &self.m, &self.v)
    }

    /// Restores the state captured by [`Adam::state`]: after this, the
    /// next `step` is bit-identical to what the snapshotted optimizer
    /// would have produced.
    pub fn restore_state(&mut self, t: u64, m: Vec<Option<Matrix>>, v: Vec<Option<Matrix>>) {
        self.t = t;
        self.m = m;
        self.v = v;
    }

    /// Applies one update step from accumulated gradients.
    pub fn step(&mut self, ps: &mut ParamSet, grads: &Grads) {
        if self.m.len() < ps.len() {
            self.m.resize(ps.len(), None);
            self.v.resize(ps.len(), None);
        }
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (id, g) in grads.iter() {
            let m = self.m[id.0].get_or_insert_with(|| Matrix::zeros(g.rows(), g.cols()));
            let v = self.v[id.0].get_or_insert_with(|| Matrix::zeros(g.rows(), g.cols()));
            let p = ps.get_mut(id);
            for i in 0..g.data().len() {
                let gi = g.data()[i];
                let mi = self.beta1 * m.data()[i] + (1.0 - self.beta1) * gi;
                let vi = self.beta2 * v.data()[i] + (1.0 - self.beta2) * gi * gi;
                m.data_mut()[i] = mi;
                v.data_mut()[i] = vi;
                let m_hat = mi / bc1;
                let v_hat = vi / bc2;
                p.data_mut()[i] -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimizes f(w) = (w − 3)² from w = 0 and checks convergence.
    fn quadratic_descent(opt: &mut Adam, steps: usize) -> f32 {
        let mut ps = ParamSet::new();
        let w = ps.alloc("w", Matrix::zeros(1, 1));
        for _ in 0..steps {
            let wv = ps.get(w).get(0, 0);
            let mut grads = Grads::new(&ps);
            grads.accumulate(w, Matrix::from_vec(1, 1, vec![2.0 * (wv - 3.0)]));
            opt.step(&mut ps, &grads);
        }
        ps.get(w).get(0, 0)
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.1);
        let w = quadratic_descent(&mut opt, 300);
        assert!((w - 3.0).abs() < 1e-2, "w = {w}");
        assert_eq!(opt.steps(), 300);
    }

    #[test]
    fn adam_handles_sparse_grads() {
        // Two params; only one ever receives gradients.
        let mut ps = ParamSet::new();
        let a = ps.alloc("a", Matrix::zeros(1, 1));
        let b = ps.alloc("b", Matrix::full(1, 1, 7.0));
        let mut opt = Adam::new(0.05);
        for _ in 0..50 {
            let av = ps.get(a).get(0, 0);
            let mut grads = Grads::new(&ps);
            grads.accumulate(a, Matrix::from_vec(1, 1, vec![2.0 * (av - 1.0)]));
            opt.step(&mut ps, &grads);
        }
        assert!((ps.get(a).get(0, 0) - 1.0).abs() < 0.1);
        assert_eq!(ps.get(b).get(0, 0), 7.0, "untouched param must not move");
    }
}
