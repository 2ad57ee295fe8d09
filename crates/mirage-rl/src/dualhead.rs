//! Dual-head network (§4, Fig 5/6 of the paper).
//!
//! One shared *foundation model* (transformer or MoE-transformer) feeds two
//! decision heads:
//!
//! * the **V-head** (Q-value head) maps features to Q(s, no-submit) and
//!   Q(s, submit),
//! * the **P-head** maps features to action logits for the policy-gradient
//!   agent,
//!
//! plus a **reward head** used during offline foundation pretraining
//! (§4.9.1: the foundation learns to predict the observed episode reward
//! from the flattened state).
//!
//! Every head reads the same single foundation pass over the state: the
//! Q-head emits both actions' values from it at once. (The paper instead
//! appends an ordinal action variable to every state row and runs the
//! foundation once per queried action; that layout is not implemented.)
//!
//! Each head has one training path, the batched one
//! (`*_forward_batch_train` / `*_backward_batch` over row-stacked
//! states); the per-sample `*_forward` / `*_backward` pairs are the
//! definitions the batched paths are pinned bit-identical to.

use mirage_nn::foundation::{FoundationBatchCache, FoundationCache, FoundationKind, FoundationNet};
use mirage_nn::linear::{Linear, LinearCache};
use mirage_nn::param::{GradSink, Grads, ParamId, ParamSet};
use mirage_nn::scratch::Scratch;
use mirage_nn::tensor::Matrix;
use mirage_nn::transformer::{TransformerConfig, TransformerConfigError};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// How actions are presented to the Q function. There is one layout;
/// the type and [`DualHeadConfig::action_encoding`] remain only because
/// the benchmark's serving workload names them. No code reads the value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ActionEncoding {
    /// Q-head outputs one value per action from a single foundation pass.
    TwoHead,
}

/// Dual-head model configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DualHeadConfig {
    /// Foundation architecture.
    pub foundation: FoundationKind,
    /// Encoder hyperparameters; `input_dim` is the width of one state row.
    pub transformer: TransformerConfig,
    /// Always [`ActionEncoding::TwoHead`]; kept only because the
    /// benchmark's serving workload names it (see [`ActionEncoding`]).
    pub action_encoding: ActionEncoding,
    /// When `true`, online head training does not update the foundation
    /// (the §4.9 two-phase recipe: offline foundation, online heads).
    pub freeze_foundation: bool,
    /// Parameter-init seed.
    pub seed: u64,
}

impl DualHeadConfig {
    /// Small-scale defaults for a given state-row width and history length.
    pub fn small(kind: FoundationKind, m: usize, k: usize, seed: u64) -> Self {
        Self {
            foundation: kind,
            transformer: TransformerConfig::small(m, k),
            action_encoding: ActionEncoding::TwoHead,
            freeze_foundation: false,
            seed,
        }
    }
}

/// The shared-foundation dual-head network.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DualHeadNet {
    /// All parameters (foundation + heads).
    pub ps: ParamSet,
    /// Shared foundation.
    pub foundation: FoundationNet,
    /// Q-value head.
    pub q_head: Linear,
    /// Policy head (2 logits).
    pub p_head: Linear,
    /// Scalar reward head for offline pretraining.
    pub reward_head: Linear,
    /// Configuration the network was built with.
    pub cfg: DualHeadConfig,
}

/// Why an agent snapshot was refused by `import_state`: the first
/// position at which it does not fit the network it is being restored
/// into (built over a different architecture).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateMismatch {
    /// What the snapshot holds there.
    pub saved: String,
    /// What the network has there.
    pub current: String,
}

impl std::fmt::Display for StateMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "snapshot does not fit the network: snapshot has {}, network has {}",
            self.saved, self.current
        )
    }
}

impl std::error::Error for StateMismatch {}

/// Checks one series of snapshot matrices, by parameter position,
/// against `ps`: same count, and every present matrix the shape of the
/// parameter at its position (`None` is an Adam moment not allocated yet).
fn check_fits<'a>(
    ps: &ParamSet,
    what: &str,
    saved: impl ExactSizeIterator<Item = Option<&'a Matrix>>,
) -> Result<(), StateMismatch> {
    if saved.len() != ps.len() {
        return Err(StateMismatch {
            saved: format!("{} {what}s", saved.len()),
            current: format!("{} parameters", ps.len()),
        });
    }
    for ((id, have), saved) in ps.iter().zip(saved) {
        if let Some(m) = saved.filter(|m| m.shape() != have.shape()) {
            return Err(StateMismatch {
                saved: format!("{what} `{}` {}×{}", ps.name(id), m.rows(), m.cols()),
                current: format!("`{}` {}×{}", ps.name(id), have.rows(), have.cols()),
            });
        }
    }
    Ok(())
}

/// [`check_fits`] for what every agent snapshot holds: the parameters
/// and both Adam moment series.
pub(crate) fn check_snapshot_fits(
    ps: &ParamSet,
    params: &[Matrix],
    opt_m: &[Option<Matrix>],
    opt_v: &[Option<Matrix>],
) -> Result<(), StateMismatch> {
    check_fits(ps, "parameter", params.iter().map(Some))?;
    for moments in [opt_m, opt_v] {
        // An optimizer that never stepped has no moment slots yet.
        if !moments.is_empty() {
            check_fits(ps, "Adam moment", moments.iter().map(Option::as_ref))?;
        }
    }
    Ok(())
}

/// Overwrites every parameter of `ps`, in allocation order, with a
/// snapshot that [`check_fits`].
pub(crate) fn install_params(ps: &mut ParamSet, params: Vec<Matrix>) {
    for (i, m) in params.into_iter().enumerate() {
        *ps.get_mut(ParamId(i)) = m;
    }
}

/// Cache of one per-sample forward pass through a head (Q, P or reward).
#[derive(Debug, Clone)]
pub struct HeadCache {
    f_cache: FoundationCache,
    l_cache: LinearCache,
}

/// Holds nothing: the batched inference paths recompute every
/// embedding on every call. The type and the `cache` parameter of
/// [`DualHeadNet::q_values_batch`] / [`DualHeadNet::p_probs_batch`] stay
/// only because the benchmark's kernel workload builds one with
/// [`BatchInferCache::new`] and passes it to `q_values_batch`.
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchInferCache;

/// Retained buffers for one batched *training* pass through a head path
/// (Q, P or reward): the foundation batch cache, the stacked feature
/// matrix the head reads, and the gradient buffers the backward pass
/// writes. Keep one per head path and reuse it across updates — every
/// buffer is reset in place, so a shape-stationary training loop stops
/// allocating after its first mini-batch.
#[derive(Debug, Clone, Default)]
pub struct HeadBatchCache {
    f_cache: FoundationBatchCache,
    /// `batch × d_model` pooled features out of the foundation.
    feats: Matrix,
    /// Head-input gradient (`batch × d_model`).
    d_feats: Matrix,
}

impl BatchInferCache {
    /// The empty value.
    pub fn new() -> Self {
        Self
    }
}

/// Row-stacks equally shaped state matrices into `out`, one block per
/// state in order — the input layout of the batched training paths.
/// Returns the block count.
pub fn stack_states_into<'a>(
    states: impl ExactSizeIterator<Item = &'a Matrix>,
    out: &mut Matrix,
) -> usize {
    let batch = states.len();
    let mut states = states.peekable();
    let (seq, m) = states.peek().map_or((0, 0), |s| s.shape());
    out.reset(batch * seq, m);
    for (b, state) in states.enumerate() {
        assert_eq!(
            state.shape(),
            (seq, m),
            "stacked states must share one shape"
        );
        out.data_mut()[b * seq * m..(b + 1) * seq * m].copy_from_slice(state.data());
    }
    batch
}

impl DualHeadNet {
    /// Builds foundation and heads from the config. Panics with the
    /// [`TransformerConfigError`] message on an invalid encoder shape —
    /// use [`try_new`](Self::try_new) where the widths come from outside.
    pub fn new(cfg: DualHeadConfig) -> Self {
        Self::try_new(cfg).unwrap_or_else(|e| panic!("DualHeadNet::new: {e}"))
    }

    /// Builds foundation and heads after validating the encoder shape
    /// ([`TransformerConfig::validate`]) and the expert count, so a zero
    /// or indivisible width, or an MoE of zero experts, is a typed error
    /// here instead of an `assert!` inside a layer.
    pub fn try_new(cfg: DualHeadConfig) -> Result<Self, TransformerConfigError> {
        cfg.transformer.validate()?;
        if cfg.foundation == (FoundationKind::MoE { experts: 0 }) {
            return Err(TransformerConfigError::Zero { field: "experts" });
        }
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let foundation = FoundationNet::new(
            &mut ps,
            "foundation",
            cfg.foundation,
            cfg.transformer,
            &mut rng,
        );
        let d = foundation.out_dim();
        let q_head = Linear::new(&mut ps, "q_head", d, 2, &mut rng);
        let p_head = Linear::new(&mut ps, "p_head", d, 2, &mut rng);
        let reward_head = Linear::new(&mut ps, "reward_head", d, 1, &mut rng);
        Ok(Self {
            ps,
            foundation,
            q_head,
            p_head,
            reward_head,
            cfg,
        })
    }

    /// Per-sample forward through `head`: one foundation pass, then the
    /// head.
    fn head_forward(&self, head: &Linear, state: &Matrix) -> (Matrix, HeadCache) {
        let (feat, f_cache) = self.foundation.forward(&self.ps, state);
        let (y, l_cache) = head.forward(&self.ps, &feat);
        (y, HeadCache { f_cache, l_cache })
    }

    /// Per-sample backward through `head`, then — when
    /// `train_foundation` — the foundation.
    fn head_backward(
        &self,
        head: &Linear,
        train_foundation: bool,
        cache: &HeadCache,
        dy: &Matrix,
        grads: &mut Grads,
    ) {
        let d_feat = head.backward(&self.ps, &cache.l_cache, dy, grads);
        if train_foundation {
            self.foundation
                .backward_params_only(&self.ps, &cache.f_cache, &d_feat, grads);
        }
    }

    /// Q-values for both actions: returns `[Q(s, no-submit), Q(s, submit)]`.
    pub fn q_forward(&self, state: &Matrix) -> ([f32; 2], HeadCache) {
        let (q, cache) = self.head_forward(&self.q_head, state);
        ([q.get(0, 0), q.get(0, 1)], cache)
    }

    /// Backward through the Q path with per-action output gradients.
    pub fn q_backward(&self, cache: &HeadCache, dq: [f32; 2], grads: &mut Grads) {
        let dy = Matrix::row_vector(vec![dq[0], dq[1]]);
        self.head_backward(&self.q_head, !self.cfg.freeze_foundation, cache, &dy, grads);
    }

    /// Policy logits (`1 × 2`).
    pub fn p_forward(&self, state: &Matrix) -> (Matrix, HeadCache) {
        self.head_forward(&self.p_head, state)
    }

    /// Backward through the policy path.
    pub fn p_backward(&self, cache: &HeadCache, d_logits: &Matrix, grads: &mut Grads) {
        self.head_backward(
            &self.p_head,
            !self.cfg.freeze_foundation,
            cache,
            d_logits,
            grads,
        );
    }

    /// Scalar reward prediction for offline pretraining.
    pub fn reward_forward(&self, state: &Matrix) -> (f32, HeadCache) {
        let (r, cache) = self.head_forward(&self.reward_head, state);
        (r.get(0, 0), cache)
    }

    /// Backward through the reward path. Pretraining always updates the
    /// foundation — that is its entire purpose — regardless of the online
    /// freeze flag.
    pub fn reward_backward(&self, cache: &HeadCache, d_r: f32, grads: &mut Grads) {
        let dy = Matrix::row_vector(vec![d_r]);
        self.head_backward(&self.reward_head, true, cache, &dy, grads);
    }

    /// Inference-only Q-values: no caches, every temporary drawn from
    /// `scratch`, zero allocations once the arena is warm. Bit-identical
    /// to [`DualHeadNet::q_forward`].
    pub fn q_values(&self, state: &Matrix, scratch: &mut Scratch) -> [f32; 2] {
        let mut feat = scratch.take(1, self.foundation.out_dim());
        self.foundation
            .forward_into(&self.ps, state, &mut feat, scratch);
        let mut q = scratch.take(1, 2);
        self.q_head.forward_into(&self.ps, &feat, &mut q);
        let vals = [q.get(0, 0), q.get(0, 1)];
        scratch.give(q);
        scratch.give(feat);
        vals
    }

    /// Inference-only action probabilities (softmaxed P-head output):
    /// zero allocations once `scratch` is warm, bit-identical to
    /// [`DualHeadNet::action_probs`].
    pub fn p_probs(&self, state: &Matrix, scratch: &mut Scratch) -> [f32; 2] {
        let mut feat = scratch.take(1, self.foundation.out_dim());
        self.foundation
            .forward_into(&self.ps, state, &mut feat, scratch);
        let mut logits = scratch.take(1, 2);
        self.p_head.forward_into(&self.ps, &feat, &mut logits);
        logits.softmax_rows_in_place();
        let probs = [logits.get(0, 0), logits.get(0, 1)];
        scratch.give(logits);
        scratch.give(feat);
        probs
    }

    /// Batched inference Q-values: `states` row-stacks `batch` state
    /// matrices (uniform row count per episode), and `out[b]` receives
    /// `[Q(s_b, no-submit), Q(s_b, submit)]`. One foundation pass and one
    /// Q-head matmul cover the whole batch; `cache` holds nothing. Each
    /// episode's pair is bit-identical to a sequential
    /// [`DualHeadNet::q_values`] call on its state.
    pub fn q_values_batch(
        &self,
        states: &Matrix,
        batch: usize,
        out: &mut Vec<[f32; 2]>,
        scratch: &mut Scratch,
        _cache: &mut BatchInferCache,
    ) {
        let mut q = scratch.take(batch, 2);
        self.head_infer_batch(&self.q_head, states, batch, &mut q, scratch);
        out.clear();
        out.extend((0..batch).map(|b| [q.get(b, 0), q.get(b, 1)]));
        scratch.give(q);
    }

    /// Batched inference action probabilities: the P-path analogue of
    /// [`DualHeadNet::q_values_batch`]. `out[b]` is episode `b`'s
    /// softmaxed `[p(no-submit), p(submit)]`, bit-identical to a
    /// sequential [`DualHeadNet::p_probs`] call.
    pub fn p_probs_batch(
        &self,
        states: &Matrix,
        batch: usize,
        out: &mut Vec<[f32; 2]>,
        scratch: &mut Scratch,
        _cache: &mut BatchInferCache,
    ) {
        let mut logits = scratch.take(batch, 2);
        self.head_infer_batch(&self.p_head, states, batch, &mut logits, scratch);
        logits.softmax_rows_in_place();
        out.clear();
        out.extend((0..batch).map(|b| [logits.get(b, 0), logits.get(b, 1)]));
        scratch.give(logits);
    }

    /// Shared body of the batched inference paths: one foundation pass
    /// over `states`, then `head` as one matmul into `out`.
    fn head_infer_batch(
        &self,
        head: &Linear,
        states: &Matrix,
        batch: usize,
        out: &mut Matrix,
        scratch: &mut Scratch,
    ) {
        let mut feats = scratch.take(batch, self.foundation.out_dim());
        self.foundation
            .forward_batch_into(&self.ps, states, batch, &mut feats, scratch);
        head.forward_into(&self.ps, &feats, out);
        scratch.give(feats);
    }

    /// Batched Q training forward: `states` row-stacks `batch` state
    /// matrices, `q` receives the `batch × 2` Q-pairs and `cache` is
    /// filled for [`DualHeadNet::q_backward_batch`]. Row `b` is
    /// bit-identical to [`DualHeadNet::q_forward`] on block `b` alone.
    pub fn q_forward_batch_train(
        &self,
        states: &Matrix,
        batch: usize,
        q: &mut Matrix,
        cache: &mut HeadBatchCache,
        scratch: &mut Scratch,
    ) {
        self.head_forward_batch_train(&self.q_head, states, batch, q, cache, scratch);
    }

    /// Batched backward through the Q path: `dq` holds one `[dQ0, dQ1]`
    /// row per block and block `b`'s parameter gradients fold into `sink`
    /// in ascending block order per parameter: bit-identical to `batch`
    /// sequential [`DualHeadNet::q_backward`] calls accumulating into one
    /// `Grads`.
    pub fn q_backward_batch(
        &self,
        cache: &mut HeadBatchCache,
        states: &Matrix,
        dq: &Matrix,
        batch: usize,
        sink: &mut GradSink<'_>,
        scratch: &mut Scratch,
    ) {
        self.head_backward_batch(
            &self.q_head,
            !self.cfg.freeze_foundation,
            cache,
            states,
            dq,
            batch,
            sink,
            scratch,
        );
    }

    /// Batched P training forward: the policy analogue of
    /// [`DualHeadNet::q_forward_batch_train`]. `logits` receives the
    /// `batch × 2` logit rows, row `b` bit-identical to
    /// [`DualHeadNet::p_forward`] on block `b`.
    pub fn p_forward_batch_train(
        &self,
        states: &Matrix,
        batch: usize,
        logits: &mut Matrix,
        cache: &mut HeadBatchCache,
        scratch: &mut Scratch,
    ) {
        self.head_forward_batch_train(&self.p_head, states, batch, logits, cache, scratch);
    }

    /// Batched backward through the P path: `d_logits` holds one row per
    /// block; gradients fold into `sink` in ascending block order,
    /// bit-identical to sequential [`DualHeadNet::p_backward`] calls in
    /// block order.
    pub fn p_backward_batch(
        &self,
        cache: &mut HeadBatchCache,
        states: &Matrix,
        d_logits: &Matrix,
        batch: usize,
        sink: &mut GradSink<'_>,
        scratch: &mut Scratch,
    ) {
        self.head_backward_batch(
            &self.p_head,
            !self.cfg.freeze_foundation,
            cache,
            states,
            d_logits,
            batch,
            sink,
            scratch,
        );
    }

    /// Batched reward training forward for offline pretraining: `preds`
    /// receives the `batch × 1` reward predictions, row `b` bit-identical
    /// to [`DualHeadNet::reward_forward`] on block `b`.
    pub fn reward_forward_batch_train(
        &self,
        states: &Matrix,
        batch: usize,
        preds: &mut Matrix,
        cache: &mut HeadBatchCache,
        scratch: &mut Scratch,
    ) {
        self.head_forward_batch_train(&self.reward_head, states, batch, preds, cache, scratch);
    }

    /// Batched backward through the reward path: `d_preds` holds one
    /// `1 × 1` row per block. Like [`DualHeadNet::reward_backward`] it
    /// always reaches the foundation, and it is bit-identical to
    /// sequential `reward_backward` calls in block order.
    pub fn reward_backward_batch(
        &self,
        cache: &mut HeadBatchCache,
        states: &Matrix,
        d_preds: &Matrix,
        batch: usize,
        sink: &mut GradSink<'_>,
        scratch: &mut Scratch,
    ) {
        self.head_backward_batch(
            &self.reward_head,
            true,
            cache,
            states,
            d_preds,
            batch,
            sink,
            scratch,
        );
    }

    /// Shared body of the batched training forwards: the foundation over
    /// `states`, then `head`.
    fn head_forward_batch_train(
        &self,
        head: &Linear,
        states: &Matrix,
        batch: usize,
        out: &mut Matrix,
        cache: &mut HeadBatchCache,
        scratch: &mut Scratch,
    ) {
        self.foundation.forward_batch_train(
            &self.ps,
            states,
            batch,
            &mut cache.feats,
            &mut cache.f_cache,
            scratch,
        );
        head.forward_into(&self.ps, &cache.feats, out);
    }

    /// Shared body of the batched backwards: `head`, then — when
    /// `train_foundation` — the foundation over the same input the
    /// forward saw.
    #[allow(clippy::too_many_arguments)]
    fn head_backward_batch(
        &self,
        head: &Linear,
        train_foundation: bool,
        cache: &mut HeadBatchCache,
        states: &Matrix,
        d_out: &Matrix,
        batch: usize,
        sink: &mut GradSink<'_>,
        scratch: &mut Scratch,
    ) {
        head.backward_batch(
            &self.ps,
            &cache.feats,
            d_out,
            batch,
            sink,
            &mut cache.d_feats,
            scratch,
        );
        if train_foundation {
            self.foundation.backward_batch_params(
                &self.ps,
                &cache.f_cache,
                states,
                &cache.d_feats,
                sink,
                scratch,
            );
        }
    }

    /// Action probabilities under the policy head.
    pub fn action_probs(&self, state: &Matrix) -> [f32; 2] {
        let (logits, _) = self.p_forward(state);
        let sm = logits.softmax_rows();
        [sm.get(0, 0), sm.get(0, 1)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirage_nn::gradcheck::check_gradients;
    use mirage_nn::loss::mse;

    fn tiny_cfg(kind: FoundationKind) -> DualHeadConfig {
        DualHeadConfig {
            foundation: kind,
            transformer: TransformerConfig {
                input_dim: 4,
                seq_len: 3,
                d_model: 8,
                heads: 2,
                layers: 1,
                ff_mult: 2,
            },
            action_encoding: ActionEncoding::TwoHead,
            freeze_foundation: false,
            seed: 1,
        }
    }

    fn state(seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        Matrix::xavier(3, 4, &mut rng)
    }

    #[test]
    fn q_gradcheck_two_head() {
        let net = DualHeadNet::new(tiny_cfg(FoundationKind::Transformer));
        let s = state(1);
        let target = Matrix::row_vector(vec![0.5, -0.5]);
        let loss_fn = |ps: &ParamSet| {
            let mut probe = net.clone();
            probe.ps = ps.clone();
            let (q, _) = probe.q_forward(&s);
            mse(&Matrix::row_vector(vec![q[0], q[1]]), &target).0
        };
        let (q, cache) = net.q_forward(&s);
        let (_, dq_mat) = mse(&Matrix::row_vector(vec![q[0], q[1]]), &target);
        let mut grads = Grads::new(&net.ps);
        net.q_backward(&cache, [dq_mat.get(0, 0), dq_mat.get(0, 1)], &mut grads);
        let ids: Vec<_> = grads.iter().map(|(id, _)| id).collect();
        let mut ps = net.ps.clone();
        check_gradients(&mut ps, &ids, loss_fn, &grads, 1e-2, 5e-2).unwrap();
    }

    #[test]
    fn scratch_inference_matches_cached_forward_bitwise() {
        // The serving-time fast path (q_values/p_probs + Scratch) must
        // never drift from the training path, across foundations and
        // warm-scratch reuse.
        let mut scratch = mirage_nn::Scratch::new();
        for kind in [
            FoundationKind::Transformer,
            FoundationKind::MoE { experts: 2 },
        ] {
            let net = DualHeadNet::new(tiny_cfg(kind));
            for seed in 0..4 {
                let s = state(seed);
                let (q_ref, _) = net.q_forward(&s);
                assert_eq!(net.q_values(&s, &mut scratch), q_ref, "{kind:?}");
                let p_ref = net.action_probs(&s);
                assert_eq!(net.p_probs(&s, &mut scratch), p_ref, "{kind:?}");
            }
        }
    }

    #[test]
    fn batched_inference_matches_sequential_bitwise() {
        // One batched forward over row-stacked episode states must equal
        // per-episode q_values / p_probs bit for bit, across foundations
        // and a batch that widens and then narrows.
        let mut scratch = mirage_nn::Scratch::new();
        let mut q_out = Vec::new();
        let mut p_out = Vec::new();
        for kind in [
            FoundationKind::Transformer,
            FoundationKind::MoE { experts: 2 },
        ] {
            let net = DualHeadNet::new(tiny_cfg(kind));
            for batch in [1usize, 3, 2] {
                let states: Vec<Matrix> = (0..batch).map(|b| state(b as u64)).collect();
                let mut stacked = Matrix::zeros(batch * 3, 4);
                for (b, s) in states.iter().enumerate() {
                    for r in 0..3 {
                        stacked.row_mut(b * 3 + r).copy_from_slice(s.row(r));
                    }
                }
                net.q_values_batch(
                    &stacked,
                    batch,
                    &mut q_out,
                    &mut scratch,
                    &mut BatchInferCache,
                );
                net.p_probs_batch(
                    &stacked,
                    batch,
                    &mut p_out,
                    &mut scratch,
                    &mut BatchInferCache,
                );
                for (b, s) in states.iter().enumerate() {
                    assert_eq!(
                        q_out[b],
                        net.q_values(s, &mut scratch),
                        "q {kind:?} batch {batch} episode {b}"
                    );
                    assert_eq!(
                        p_out[b],
                        net.p_probs(s, &mut scratch),
                        "p {kind:?} batch {batch} episode {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn zero_experts_is_a_typed_error() {
        let err = DualHeadNet::try_new(tiny_cfg(FoundationKind::MoE { experts: 0 })).unwrap_err();
        assert_eq!(err, TransformerConfigError::Zero { field: "experts" });
        assert!(DualHeadNet::try_new(tiny_cfg(FoundationKind::MoE { experts: 1 })).is_ok());
    }

    /// The foundation's params are allocated before the first head's.
    fn is_foundation_param(net: &DualHeadNet, id: mirage_nn::ParamId) -> bool {
        id.0 < net.q_head.w.0
    }

    #[test]
    fn freezing_blocks_foundation_gradients() {
        let mut cfg = tiny_cfg(FoundationKind::Transformer);
        cfg.freeze_foundation = true;
        let net = DualHeadNet::new(cfg);
        let s = state(4);
        let (_, cache) = net.q_forward(&s);
        let mut grads = Grads::new(&net.ps);
        net.q_backward(&cache, [1.0, 1.0], &mut grads);
        for (id, _) in grads.iter() {
            assert!(
                !is_foundation_param(&net, id),
                "foundation param got a gradient"
            );
        }
        // Heads still learn.
        assert!(grads.get(net.q_head.w).is_some());
    }

    #[test]
    fn reward_path_always_trains_foundation() {
        let mut cfg = tiny_cfg(FoundationKind::Transformer);
        cfg.freeze_foundation = true; // must not affect pretraining
        let net = DualHeadNet::new(cfg);
        let s = state(5);
        let (_, cache) = net.reward_forward(&s);
        let mut grads = Grads::new(&net.ps);
        net.reward_backward(&cache, 1.0, &mut grads);
        assert!(
            grads.iter().any(|(id, _)| is_foundation_param(&net, id)),
            "pretraining must reach the foundation"
        );
    }

    #[test]
    fn p_head_probs_are_a_distribution() {
        let net = DualHeadNet::new(tiny_cfg(FoundationKind::MoE { experts: 2 }));
        let p = net.action_probs(&state(6));
        assert!((p[0] + p[1] - 1.0).abs() < 1e-5);
        assert!(p[0] > 0.0 && p[1] > 0.0);
    }

    #[test]
    fn heads_share_the_foundation() {
        // A gradient step on the P path must change Q outputs too (shared
        // foundation), when not frozen.
        let net = DualHeadNet::new(tiny_cfg(FoundationKind::Transformer));
        let s = state(7);
        let (q_before, _) = net.q_forward(&s);
        let (logits, cache) = net.p_forward(&s);
        let mut grads = Grads::new(&net.ps);
        let d = logits.scale(1.0); // arbitrary gradient
        net.p_backward(&cache, &d, &mut grads);
        let mut moved = net.clone();
        moved.ps.apply_grads(&grads, |p, g| p.add_scaled(g, -0.5));
        let (q_after, _) = moved.q_forward(&s);
        assert!(
            (q_before[0] - q_after[0]).abs() > 1e-7 || (q_before[1] - q_after[1]).abs() > 1e-7,
            "P-path update should move shared foundation and hence Q"
        );
    }
}
