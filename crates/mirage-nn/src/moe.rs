//! Mixture-of-Experts foundation model (§2.4, §4.7 of the paper).
//!
//! `E` expert transformer encoders share an architecture; a softmax gating
//! layer computes per-expert weights from the flattened input (Eq. 7):
//! `G(x) = softmax(x · W)`, and the output is the gate-weighted average of
//! every expert's output — the paper's dense MoE. (The paper also tried
//! top-1 sparse gating, found it inferior and omits its results; it is not
//! implemented here.)
//!
//! Training runs [`MoEFoundation::backward_batch_params`], which computes
//! no input gradient and builds the gate's weight gradient as one product
//! over the whole batch. It equals the per-sample `backward` (a
//! `reference` item) bit for bit only when the gradient sink holds no
//! gate gradient on entry; every caller resets its `Grads` first.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::attention::softmax_rows_backward_into;
use crate::linear::Linear;
use crate::param::{GradSink, ParamSet};
use crate::scratch::Scratch;
use crate::tensor::Matrix;
use crate::transformer::{TransformerBatchCache, TransformerConfig, TransformerEncoder};
#[cfg(any(test, feature = "reference"))]
use crate::{
    attention::softmax_rows_backward, linear::LinearCache, param::Grads,
    transformer::TransformerCache,
};

/// Dense MoE of transformer experts with a learned softmax gate.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MoEFoundation {
    /// Expert encoders (identical architecture, independent parameters).
    pub experts: Vec<TransformerEncoder>,
    /// Gating layer over the flattened state (`seq·m → E`).
    pub gate: Linear,
    cfg: TransformerConfig,
}

/// Cache of the MoE's per-sample pass.
#[cfg(any(test, feature = "reference"))]
#[derive(Debug, Clone)]
pub struct MoECache {
    c_gate: LinearCache,
    /// Gate probabilities (`1 × E`).
    gate_probs: Matrix,
    /// Every expert's output and cache, in expert order.
    expert_out: Vec<(Matrix, TransformerCache)>,
    x_shape: (usize, usize),
}

/// Retained training cache for a row-stacked batch. All buffers are
/// reused across calls.
#[derive(Debug, Clone, Default)]
pub struct MoEBatchCache {
    /// Per-block zero-padded flattened states (`batch × seq_len·m`).
    flat: Matrix,
    /// Gate probabilities (`batch × E`).
    gate_probs: Matrix,
    /// One encoder training cache per expert.
    c_experts: Vec<TransformerBatchCache>,
    /// Per-expert pooled features (`batch × d_model` each).
    feats: Vec<Matrix>,
    batch: usize,
}

impl MoEBatchCache {
    /// The buffers [`MoEFoundation::forward_batch`] writes through
    /// [`Scratch::lend`]: the flattened states and the gate probabilities.
    fn slots(&mut self) -> [&mut Matrix; 2] {
        [&mut self.flat, &mut self.gate_probs]
    }
}

impl MoEFoundation {
    /// Builds `n_experts` expert encoders plus the gate.
    pub fn new(
        ps: &mut ParamSet,
        name: &str,
        cfg: TransformerConfig,
        n_experts: usize,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(n_experts >= 1, "need at least one expert");
        let experts = (0..n_experts)
            .map(|e| TransformerEncoder::new(ps, &format!("{name}.expert{e}"), cfg, rng))
            .collect();
        let gate = Linear::new(
            ps,
            &format!("{name}.gate"),
            cfg.input_dim * cfg.seq_len,
            n_experts,
            rng,
        );
        Self { experts, gate, cfg }
    }

    /// Expert count.
    pub fn n_experts(&self) -> usize {
        self.experts.len()
    }

    /// Output feature width (same as each expert's).
    pub fn out_dim(&self) -> usize {
        self.cfg.d_model
    }

    /// The one batched forward: `xs` row-stacks `batch` independent
    /// `seq × input_dim` state matrices; row `b` of the `batch × d_model`
    /// output receives block `b`'s mixture. The gate runs as one matmul
    /// over the per-block flattened states, and every expert encoder runs
    /// one batched pass over the whole stack. Each output row is
    /// bit-identical to a per-sample `forward` of that block:
    /// flattening, gate logits and softmax are row-local, and the mixture
    /// accumulates experts in the same ascending order. Given a `cache`,
    /// the gate and every expert record for
    /// [`MoEFoundation::backward_batch_params`]; without one, nothing is
    /// kept and every temporary comes from `scratch`.
    pub fn forward_batch(
        &self,
        ps: &ParamSet,
        xs: &Matrix,
        batch: usize,
        out: &mut Matrix,
        mut cache: Option<&mut MoEBatchCache>,
        scratch: &mut Scratch,
    ) {
        assert!(
            batch >= 1 && xs.rows().is_multiple_of(batch),
            "batch {batch} must evenly divide {} stacked rows",
            xs.rows()
        );
        let seq = xs.rows() / batch;
        let width = self.cfg.input_dim;
        let e_count = self.experts.len();
        let mut bufs = scratch.lend(cache.as_deref_mut().map(MoEBatchCache::slots));
        let [flat, gate_probs] = &mut bufs;
        flat.reset(batch, self.cfg.seq_len * width);
        for blk in 0..batch {
            for r in 0..seq {
                let frow = &mut flat.row_mut(blk)[r * width..r * width + width];
                frow.copy_from_slice(&xs.row(blk * seq + r)[..width]);
            }
        }
        self.gate.forward_into(ps, flat, gate_probs);
        gate_probs.softmax_rows_in_place();

        if let Some(c) = cache.as_deref_mut() {
            c.batch = batch;
            c.c_experts
                .resize_with(e_count, TransformerBatchCache::default);
            c.feats.resize_with(e_count, Matrix::default);
        }
        out.reset(batch, self.out_dim());
        let mut shared = scratch.take(0, 0);
        for (e, expert) in self.experts.iter().enumerate() {
            // A recording call keeps every expert's features for the gate
            // gradient; otherwise one buffer serves them all.
            let (feat, c_expert) = match cache.as_deref_mut() {
                Some(c) => (&mut c.feats[e], Some(&mut c.c_experts[e])),
                None => (&mut shared, None),
            };
            expert.forward_batch(ps, xs, batch, feat, c_expert, scratch);
            for blk in 0..batch {
                let g = gate_probs.get(blk, e);
                for (o, &f) in out.row_mut(blk).iter_mut().zip(feat.row(blk)) {
                    *o += g * f;
                }
            }
        }
        scratch.give(shared);
        scratch.settle(cache.map(MoEBatchCache::slots), bufs);
    }

    /// Batched parameter-gradient backward for a recording
    /// [`MoEFoundation::forward_batch`]: every expert's and the
    /// gate's gradients fold into `sink` bit-identically to sequential
    /// per-block per-sample `backward` calls. The MoE is always a
    /// network's first layer, so no input gradient is computed.
    ///
    /// The experts fold block by block. The gate's weight gradient is
    /// one product over all blocks, `d_logitsᵀ · flat`, and its bias
    /// gradient one row sum. Each block contributes exactly one gate row,
    /// so the per-block fold `(0 + p₀) + (0 + p₁) + …` and the single
    /// ascending chain `0 + p₀ + p₁ + …` round identically: the running
    /// sum is never `−0.0`. That holds only when the chain starts at
    /// zero, hence the precondition: **`sink` holds no gate gradient on
    /// entry** (every caller resets its `Grads` before a backward).
    pub fn backward_batch_params(
        &self,
        ps: &ParamSet,
        cache: &MoEBatchCache,
        xs: &Matrix,
        d_out: &Matrix,
        sink: &mut GradSink<'_>,
        scratch: &mut Scratch,
    ) {
        let batch = cache.batch;
        let e_count = self.experts.len();
        assert_eq!(d_out.rows(), batch, "one output gradient row per block");
        debug_assert!(
            sink.grads().get(self.gate.w).is_none() && sink.grads().get(self.gate.b).is_none(),
            "the gate gradient must start empty"
        );

        let mut d_gate_probs = scratch.take(batch, e_count);
        let mut d_feat = scratch.take(batch, self.out_dim());
        for (e, expert) in self.experts.iter().enumerate() {
            let feat = &cache.feats[e];
            for blk in 0..batch {
                // Same ascending product-sum as `d_out.hadamard(feat).sum()`.
                let dot: f32 = d_out
                    .row(blk)
                    .iter()
                    .zip(feat.row(blk))
                    .map(|(x, y)| x * y)
                    .sum();
                d_gate_probs.set(blk, e, dot);
                let g = cache.gate_probs.get(blk, e);
                for (o, &v) in d_feat.row_mut(blk).iter_mut().zip(d_out.row(blk)) {
                    *o = v * g;
                }
            }
            expert.backward_batch_params(ps, &cache.c_experts[e], xs, &d_feat, sink, scratch);
        }
        // Through the softmax (one row per block), then the gate linear
        // over all blocks at once: `dW = (d_logitsᵀ · flat)ᵀ`, `db = Σ rows`.
        let mut d_logits = scratch.take(batch, e_count);
        softmax_rows_backward_into(&cache.gate_probs, &d_gate_probs, &mut d_logits);
        let mut dw_t = scratch.take(e_count, self.gate.in_dim);
        d_logits.t_matmul_into(&cache.flat, &mut dw_t);
        let mut dw = scratch.take(0, 0);
        dw_t.transpose_into(&mut dw);
        let mut db = scratch.take(1, e_count);
        d_logits.sum_rows_range_into(0, batch, &mut db);
        let g = sink.grads();
        g.accumulate_ref(self.gate.w, &dw);
        g.accumulate_ref(self.gate.b, &db);
        scratch.give(db);
        scratch.give(dw);
        scratch.give(dw_t);
        scratch.give(d_logits);
        scratch.give(d_feat);
        scratch.give(d_gate_probs);
    }
}

/// Per-sample definitions: the oracles the batched passes are pinned to.
#[cfg(any(test, feature = "reference"))]
impl MoEFoundation {
    /// Forward over a `seq × input_dim` state matrix.
    pub fn forward(&self, ps: &ParamSet, x: &Matrix) -> (Matrix, MoECache) {
        // Gate sees the zero-padded flattened state so short sequences work.
        let flat = flatten_padded(x, self.cfg.seq_len, self.cfg.input_dim);
        let (logits, c_gate) = self.gate.forward(ps, &flat);
        let gate_probs = logits.softmax_rows();

        let mut out = Matrix::zeros(1, self.out_dim());
        let mut expert_out = Vec::with_capacity(self.experts.len());
        for (e, expert) in self.experts.iter().enumerate() {
            let (feat, cache) = expert.forward(ps, x);
            out.add_scaled(&feat, gate_probs.get(0, e));
            expert_out.push((feat, cache));
        }
        (
            out,
            MoECache {
                c_gate,
                gate_probs,
                expert_out,
                x_shape: x.shape(),
            },
        )
    }

    /// Backward pass; accumulates gate and expert gradients and returns
    /// `dx`.
    pub fn backward(
        &self,
        ps: &ParamSet,
        cache: &MoECache,
        d_out: &Matrix,
        grads: &mut Grads,
    ) -> Matrix {
        let e_count = self.experts.len();
        // d gate_probs_e = ⟨d_out, feat_e⟩.
        let mut d_gate_probs = Matrix::zeros(1, e_count);
        let (rows, cols) = cache.x_shape;
        let mut dx = Matrix::zeros(rows, cols);
        for (e, (feat, ecache)) in cache.expert_out.iter().enumerate() {
            let g = cache.gate_probs.get(0, e);
            d_gate_probs.set(0, e, d_out.hadamard(feat).sum());
            let d_feat = d_out.scale(g);
            let dxe = self.experts[e].backward(ps, ecache, &d_feat, grads);
            dx.add_assign(&dxe);
        }
        // Through the softmax and the gate linear.
        let d_logits = softmax_rows_backward(&cache.gate_probs, &d_gate_probs);
        let d_flat = self.gate.backward(ps, &cache.c_gate, &d_logits, grads);
        // Fold the flattened-gate gradient back onto the (unpadded) input.
        for r in 0..rows {
            for c in 0..cols {
                let v = dx.get(r, c) + d_flat.get(0, r * self.cfg.input_dim + c);
                dx.set(r, c, v);
            }
        }
        dx
    }
}

/// Flattens `x` row-major into a `1 × (seq_len·width)` vector, zero-padding
/// missing rows.
#[cfg(any(test, feature = "reference"))]
fn flatten_padded(x: &Matrix, seq_len: usize, width: usize) -> Matrix {
    let mut flat = Matrix::zeros(1, seq_len * width);
    for r in 0..x.rows() {
        for c in 0..x.cols() {
            flat.set(0, r * width + c, x.get(r, c));
        }
    }
    flat
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_gradients;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny() -> TransformerConfig {
        TransformerConfig {
            input_dim: 3,
            seq_len: 3,
            d_model: 4,
            heads: 2,
            layers: 1,
            ff_mult: 2,
        }
    }

    #[test]
    fn dense_moe_mixes_all_experts() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(0);
        let moe = MoEFoundation::new(&mut ps, "m", tiny(), 3, &mut rng);
        let x = Matrix::xavier(3, 3, &mut rng);
        let (y, cache) = moe.forward(&ps, &x);
        assert_eq!(y.shape(), (1, 4));
        assert_eq!(cache.expert_out.len(), 3);
        let gsum: f32 = cache.gate_probs.data().iter().sum();
        assert!((gsum - 1.0).abs() < 1e-5);
    }

    #[test]
    fn dense_gradients_match_finite_differences() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(2);
        let moe = MoEFoundation::new(&mut ps, "m", tiny(), 2, &mut rng);
        let x = Matrix::xavier(3, 3, &mut rng);
        let weights = Matrix::row_vector(vec![0.3, -0.7, 1.1, 0.5]);
        let loss = |ps: &ParamSet| moe.forward(ps, &x).0.hadamard(&weights).sum();
        let (_, cache) = moe.forward(&ps, &x);
        let mut grads = Grads::new(&ps);
        let dx = moe.backward(&ps, &cache, &weights, &mut grads);
        let ids: Vec<_> = ps.iter().map(|(id, _)| id).collect();
        check_gradients(&mut ps, &ids, loss, &grads, 1e-2, 5e-2).unwrap();
        // dx spot checks (gate path + expert path both contribute).
        let eps = 1e-2;
        let mut x2 = x.clone();
        for (r, c) in [(0, 0), (1, 2), (2, 1)] {
            let orig = x2.get(r, c);
            x2.set(r, c, orig + eps);
            let up = moe.forward(&ps, &x2).0.hadamard(&weights).sum();
            x2.set(r, c, orig - eps);
            let dn = moe.forward(&ps, &x2).0.hadamard(&weights).sum();
            x2.set(r, c, orig);
            let num = (up - dn) / (2.0 * eps);
            assert!((dx.get(r, c) - num).abs() < 5e-2, "dx[{r},{c}]");
        }
    }

    #[test]
    fn padding_keeps_short_sequences_working() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(4);
        let moe = MoEFoundation::new(&mut ps, "m", tiny(), 2, &mut rng);
        let x = Matrix::xavier(2, 3, &mut rng); // shorter than seq_len = 3
        let (y, cache) = moe.forward(&ps, &x);
        assert!(y.data().iter().all(|v| v.is_finite()));
        let mut grads = Grads::new(&ps);
        let dx = moe.backward(&ps, &cache, &Matrix::full(1, 4, 1.0), &mut grads);
        assert_eq!(dx.shape(), (2, 3));
    }
}
