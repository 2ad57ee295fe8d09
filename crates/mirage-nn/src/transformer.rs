//! Transformer encoder (pre-LN) — the paper's foundation model (§4.6).
//!
//! The encoder consumes the `k × m` state matrix of §4.2 as a sequence of
//! `k` snapshot rows: each row is embedded to `d_model`, sinusoidal
//! positional encodings are added, the stack of encoder layers mixes
//! history with multi-head self-attention, and mean-pooling produces the
//! `1 × d_model` feature the V-head / P-head decision layers consume.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::activation::Activation;
use crate::attention::{AttentionBatchCache, MultiHeadAttention};
use crate::layernorm::{LayerNorm, LayerNormBatchCache};
use crate::linear::Linear;
use crate::param::{GradSink, ParamSet};
use crate::scratch::Scratch;
use crate::tensor::Matrix;
#[cfg(any(test, feature = "reference"))]
use crate::{
    activation::ActivationCache, attention::AttentionCache, layernorm::LayerNormCache,
    linear::LinearCache, param::Grads,
};

/// Transformer encoder hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransformerConfig {
    /// Width of one input snapshot row (`m`, 40 in the paper).
    pub input_dim: usize,
    /// History length in snapshots (`k`, 144 in the paper).
    pub seq_len: usize,
    /// Model width.
    pub d_model: usize,
    /// Attention heads per layer.
    pub heads: usize,
    /// Encoder layer count.
    pub layers: usize,
    /// Feed-forward expansion factor (`d_ff = ff_mult × d_model`).
    pub ff_mult: usize,
}

/// Why a [`TransformerConfig`] cannot be built into an encoder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransformerConfigError {
    /// A size that must be at least one is zero.
    Zero {
        /// The offending field.
        field: &'static str,
    },
    /// `heads` does not divide `d_model`, so the model width cannot be
    /// split into equal heads.
    HeadsDoNotDivide {
        /// The configured width.
        d_model: usize,
        /// The configured head count.
        heads: usize,
    },
}

impl std::fmt::Display for TransformerConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Zero { field } => write!(f, "invalid transformer config: {field} = 0"),
            Self::HeadsDoNotDivide { d_model, heads } => write!(
                f,
                "invalid transformer config: heads = {heads} does not divide d_model = {d_model}"
            ),
        }
    }
}

impl std::error::Error for TransformerConfigError {}

impl TransformerConfig {
    /// Checks the shape constraints the layers otherwise `assert!`:
    /// `heads`, `d_model`, `seq_len` and `ff_mult` at least one, and
    /// `heads` dividing `d_model`. Call it where a width arrives from
    /// outside (a training config, a tuning grid) so a bad one is an
    /// `Err` there instead of a panic inside [`MultiHeadAttention::new`].
    pub fn validate(&self) -> Result<(), TransformerConfigError> {
        for (field, value) in [
            ("heads", self.heads),
            ("d_model", self.d_model),
            ("seq_len", self.seq_len),
            ("ff_mult", self.ff_mult),
        ] {
            if value == 0 {
                return Err(TransformerConfigError::Zero { field });
            }
        }
        if !self.d_model.is_multiple_of(self.heads) {
            return Err(TransformerConfigError::HeadsDoNotDivide {
                d_model: self.d_model,
                heads: self.heads,
            });
        }
        Ok(())
    }

    /// Small defaults used by the experiment harness: k = 24 rows of
    /// m = 40 variables, d_model = 32.
    pub fn small(input_dim: usize, seq_len: usize) -> Self {
        Self {
            input_dim,
            seq_len,
            d_model: 32,
            heads: 4,
            layers: 2,
            ff_mult: 2,
        }
    }
}

/// One pre-LN encoder layer:
/// `h = x + MHSA(LN1(x))`; `y = h + FFN(LN2(h))`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EncoderLayer {
    ln1: LayerNorm,
    attn: MultiHeadAttention,
    ln2: LayerNorm,
    ff1: Linear,
    ff2: Linear,
    act: Activation,
}

/// Cache of one encoder layer's per-sample pass.
#[cfg(any(test, feature = "reference"))]
#[derive(Debug, Clone)]
pub struct EncoderLayerCache {
    c_ln1: LayerNormCache,
    c_attn: AttentionCache,
    c_ln2: LayerNormCache,
    c_ff1: LinearCache,
    c_act: ActivationCache,
    c_ff2: LinearCache,
}

/// Retained training cache of one encoder layer for a row-stacked batch.
/// Every buffer is reused across calls, so a warm update loop never
/// allocates.
#[derive(Debug, Clone, Default)]
pub struct EncoderLayerBatchCache {
    c_ln1: LayerNormBatchCache,
    c_attn: AttentionBatchCache,
    c_ln2: LayerNormBatchCache,
    /// LN2 output — the FFN input (`rows × d_model`).
    n2: Matrix,
    /// Pre-activation FFN hidden (`rows × d_ff`).
    f1: Matrix,
    /// Post-activation FFN hidden (`rows × d_ff`).
    g: Matrix,
}

impl EncoderLayerBatchCache {
    /// The buffers [`EncoderLayer::forward_batch`] writes through
    /// [`Scratch::lend`]: the FFN input and its pre-activation hidden.
    fn slots(&mut self) -> [&mut Matrix; 2] {
        [&mut self.n2, &mut self.f1]
    }
}

impl EncoderLayer {
    fn new(ps: &mut ParamSet, name: &str, cfg: &TransformerConfig, rng: &mut impl Rng) -> Self {
        let d = cfg.d_model;
        let d_ff = cfg.ff_mult * d;
        Self {
            ln1: LayerNorm::new(ps, &format!("{name}.ln1"), d),
            attn: MultiHeadAttention::new(ps, &format!("{name}.attn"), d, cfg.heads, rng),
            ln2: LayerNorm::new(ps, &format!("{name}.ln2"), d),
            ff1: Linear::new(ps, &format!("{name}.ff1"), d, d_ff, rng),
            ff2: Linear::new(ps, &format!("{name}.ff2"), d_ff, d, rng),
            act: Activation::Gelu,
        }
    }

    /// The one batched layer forward: `x` row-stacks `batch` sequences.
    /// LayerNorm, the feed-forward pair and both residual adds are
    /// row-local, so they run over the whole stacked matrix unchanged;
    /// self-attention is confined to each block. Given a `cache`, every
    /// sublayer records what [`EncoderLayer::backward_batch`] reads;
    /// without one, the temporaries come from `scratch`. Per block,
    /// bit-identical to the per-sample `forward` on that block alone.
    fn forward_batch(
        &self,
        ps: &ParamSet,
        x: &Matrix,
        batch: usize,
        out: &mut Matrix,
        mut cache: Option<&mut EncoderLayerBatchCache>,
        scratch: &mut Scratch,
    ) {
        let (rows, d) = x.shape();
        let mut n1 = scratch.take(rows, d);
        let c_ln1 = cache.as_deref_mut().map(|c| &mut c.c_ln1);
        self.ln1.forward_batch(ps, x, &mut n1, c_ln1);
        let mut a = scratch.take(rows, d);
        let c_attn = cache.as_deref_mut().map(|c| &mut c.c_attn);
        self.attn
            .forward_batch(ps, &n1, batch, &mut a, c_attn, scratch);
        // h = x + a
        let mut h = scratch.take(rows, d);
        h.copy_from(x);
        h.add_assign(&a);
        let mut bufs = scratch.lend(cache.as_deref_mut().map(EncoderLayerBatchCache::slots));
        let [n2, f1] = &mut bufs;
        let c_ln2 = cache.as_deref_mut().map(|c| &mut c.c_ln2);
        self.ln2.forward_batch(ps, &h, n2, c_ln2);
        self.ff1.forward_into(ps, n2, f1);
        // The backward reads the pre-activation, so a recording call
        // activates a copy; otherwise the activation runs in place.
        let g = match cache.as_deref_mut() {
            Some(c) => {
                c.g.copy_from(f1);
                self.act.apply_in_place(&mut c.g);
                &c.g
            }
            None => {
                self.act.apply_in_place(f1);
                &*f1
            }
        };
        // y = h + FFN(…): ff2 lands in `out`, then the residual is added
        // via a borrowed buffer so the operand order matches `h.add(&f2)`.
        self.ff2.forward_into(ps, g, out);
        let mut y = scratch.take(0, 0);
        y.copy_from(&h);
        y.add_assign(out);
        std::mem::swap(&mut y, out);
        scratch.give(y);
        scratch.settle(cache.map(EncoderLayerBatchCache::slots), bufs);
        scratch.give(h);
        scratch.give(a);
        scratch.give(n1);
    }

    /// Batched backward mirroring the per-sample `backward` sublayer by
    /// sublayer. Block `b`'s parameter gradients fold into `sink` in
    /// ascending block order per parameter, so this reproduces the
    /// sequential per-sample backward bit for bit.
    #[allow(clippy::too_many_arguments)]
    fn backward_batch(
        &self,
        ps: &ParamSet,
        cache: &EncoderLayerBatchCache,
        dy: &Matrix,
        batch: usize,
        sink: &mut GradSink<'_>,
        dx: &mut Matrix,
        scratch: &mut Scratch,
    ) {
        let (rows, d) = dy.shape();
        let d_ff = self.ff1.out_dim;
        // y = h + FFN(LN2(h)) → dh = dy + LN2ᵀ(FFNᵀ(dy)).
        let mut dg = scratch.take(rows, d_ff);
        self.ff2
            .backward_batch(ps, &cache.g, dy, batch, sink, Some(&mut dg), scratch);
        let mut df1 = scratch.take(rows, d_ff);
        self.act.backward_into(&cache.f1, &dg, &mut df1);
        let mut d_n2 = scratch.take(rows, d);
        self.ff1
            .backward_batch(ps, &cache.n2, &df1, batch, sink, Some(&mut d_n2), scratch);
        let mut d_h_ffn = scratch.take(rows, d);
        self.ln2
            .backward_batch(ps, &cache.c_ln2, &d_n2, batch, sink, &mut d_h_ffn);
        let mut dh = scratch.take(rows, d);
        dh.copy_from(dy);
        dh.add_assign(&d_h_ffn);
        // h = x + MHSA(LN1(x)) → dx = dh + LN1ᵀ(MHSAᵀ(dh)).
        let mut d_a = scratch.take(rows, d);
        self.attn
            .backward_batch(ps, &cache.c_attn, &dh, batch, sink, &mut d_a, scratch);
        let mut d_x_attn = scratch.take(rows, d);
        self.ln1
            .backward_batch(ps, &cache.c_ln1, &d_a, batch, sink, &mut d_x_attn);
        dx.copy_from(&dh);
        dx.add_assign(&d_x_attn);
        scratch.give(d_x_attn);
        scratch.give(d_a);
        scratch.give(dh);
        scratch.give(d_h_ffn);
        scratch.give(d_n2);
        scratch.give(df1);
        scratch.give(dg);
    }
}

/// Full encoder: row embedding + positional encoding + layer stack +
/// mean pooling.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TransformerEncoder {
    /// Hyperparameters.
    pub cfg: TransformerConfig,
    embed: Linear,
    layers: Vec<EncoderLayer>,
    /// Precomputed sinusoidal positional encodings (`seq_len × d_model`).
    pos: Matrix,
}

/// Cache of the encoder's per-sample pass.
#[cfg(any(test, feature = "reference"))]
#[derive(Debug, Clone)]
pub struct TransformerCache {
    c_embed: LinearCache,
    c_layers: Vec<EncoderLayerCache>,
    seq: usize,
}

/// Retained training cache for a row-stacked batch of sequences
/// (`batch` blocks of `seq` rows each). The stacked input `xs` is *not*
/// cached — [`TransformerEncoder::backward_batch_params`] takes it from
/// the caller for the embedding backward.
#[derive(Debug, Clone, Default)]
pub struct TransformerBatchCache {
    c_layers: Vec<EncoderLayerBatchCache>,
    seq: usize,
    batch: usize,
}

impl TransformerEncoder {
    /// Allocates all encoder parameters in `ps`.
    pub fn new(ps: &mut ParamSet, name: &str, cfg: TransformerConfig, rng: &mut impl Rng) -> Self {
        let embed = Linear::new(
            ps,
            &format!("{name}.embed"),
            cfg.input_dim,
            cfg.d_model,
            rng,
        );
        let layers = (0..cfg.layers)
            .map(|l| EncoderLayer::new(ps, &format!("{name}.layer{l}"), &cfg, rng))
            .collect();
        let pos = positional_encoding(cfg.seq_len, cfg.d_model);
        Self {
            cfg,
            embed,
            layers,
            pos,
        }
    }

    /// Output feature width.
    pub fn out_dim(&self) -> usize {
        self.cfg.d_model
    }

    /// The one batched encode: `xs` row-stacks `batch` independent
    /// `seq × input_dim` state matrices (uniform `seq = xs.rows() /
    /// batch`), and row `b` of the `batch × d_model` output receives
    /// block `b`'s pooled feature. The row embedding runs as **one matmul
    /// over the whole batch**, the layer stack shares its row-local
    /// projections the same way, and attention/pooling are confined to
    /// each block, so each output row is bit-identical to a per-sample
    /// `forward` of that block. Given a `cache`,
    /// every layer records for
    /// [`TransformerEncoder::backward_batch_params`]; without one,
    /// nothing is kept and every temporary comes from `scratch`.
    pub fn forward_batch(
        &self,
        ps: &ParamSet,
        xs: &Matrix,
        batch: usize,
        out: &mut Matrix,
        cache: Option<&mut TransformerBatchCache>,
        scratch: &mut Scratch,
    ) {
        let seq = self.batch_seq(xs, batch);
        let mut c_layers = cache.map(|c| {
            c.seq = seq;
            c.batch = batch;
            c.c_layers
                .resize_with(self.layers.len(), EncoderLayerBatchCache::default);
            c.c_layers.iter_mut()
        });
        let mut h = scratch.take(xs.rows(), self.cfg.d_model);
        self.embed.forward_into(ps, xs, &mut h);
        self.add_positions(&mut h, batch, seq);
        let mut next = scratch.take(h.rows(), self.cfg.d_model);
        for layer in &self.layers {
            let c = c_layers.as_mut().and_then(Iterator::next);
            layer.forward_batch(ps, &h, batch, &mut next, c, scratch);
            std::mem::swap(&mut h, &mut next);
        }
        self.pool_blocks(&h, batch, seq, out);
        scratch.give(next);
        scratch.give(h);
    }

    /// Adds the positional encoding to the row-stacked embeddings `h` of
    /// `batch` blocks of `seq` rows, the pos row index restarting at every
    /// block: `forward`'s `e + pos`, in the same element order.
    fn add_positions(&self, h: &mut Matrix, batch: usize, seq: usize) {
        for blk in 0..batch {
            for r in 0..seq {
                for (hv, &pv) in h.row_mut(blk * seq + r).iter_mut().zip(self.pos.row(r)) {
                    *hv += pv;
                }
            }
        }
    }

    /// Mean-pools each of the `batch` blocks of `seq` rows of `h` into its
    /// row of `out` (`batch × d_model`), with the exact `mean_rows`
    /// arithmetic of `forward`.
    fn pool_blocks(&self, h: &Matrix, batch: usize, seq: usize, out: &mut Matrix) {
        out.reset(batch, self.cfg.d_model);
        let inv = 1.0 / seq.max(1) as f32;
        for blk in 0..batch {
            let orow = out.row_mut(blk);
            for r in 0..seq {
                for (o, &v) in orow.iter_mut().zip(h.row(blk * seq + r)) {
                    *o += v;
                }
            }
            for o in orow.iter_mut() {
                *o *= inv;
            }
        }
    }

    /// Validates a row-stacked batch and returns the per-block sequence
    /// length.
    fn batch_seq(&self, xs: &Matrix, batch: usize) -> usize {
        assert_eq!(xs.cols(), self.cfg.input_dim, "state row width mismatch");
        assert!(
            batch >= 1 && xs.rows().is_multiple_of(batch),
            "batch {batch} must evenly divide {} stacked rows",
            xs.rows()
        );
        let seq = xs.rows() / batch;
        assert!(seq <= self.cfg.seq_len, "sequence longer than configured");
        seq
    }

    /// Batched parameter-gradient backward for a recording
    /// [`TransformerEncoder::forward_batch`]: `d_pooled` is
    /// `batch × d_model` (one pooled-feature gradient row per block),
    /// `xs` is the same stacked input the forward saw, and block `b`'s
    /// parameter gradients fold into `sink` in ascending block order per
    /// parameter — bit-identical to sequential per-block per-sample
    /// `backward` calls. The encoder is always a network's first layer,
    /// so no input gradient is computed: the embedding's `dx` would feed
    /// nothing.
    pub fn backward_batch_params(
        &self,
        ps: &ParamSet,
        cache: &TransformerBatchCache,
        xs: &Matrix,
        d_pooled: &Matrix,
        sink: &mut GradSink<'_>,
        scratch: &mut Scratch,
    ) {
        let (seq, batch) = (cache.seq, cache.batch);
        assert_eq!(d_pooled.rows(), batch, "one pooled gradient row per block");
        assert_eq!(xs.rows(), seq * batch, "stacked input mismatch");
        let rows = seq * batch;
        // Mean pooling spreads each block's gradient evenly over its
        // rows — the exact `d_pooled · (1/seq)` product of `backward`.
        let scale = 1.0 / seq as f32;
        let mut dh = scratch.take(rows, self.cfg.d_model);
        for blk in 0..batch {
            let drow = d_pooled.row(blk);
            for r in 0..seq {
                for (o, &g) in dh.row_mut(blk * seq + r).iter_mut().zip(drow) {
                    *o = g * scale;
                }
            }
        }
        let mut next = scratch.take(rows, self.cfg.d_model);
        for (layer, c) in self.layers.iter().zip(cache.c_layers.iter()).rev() {
            layer.backward_batch(ps, c, &dh, batch, sink, &mut next, scratch);
            std::mem::swap(&mut dh, &mut next);
        }
        self.embed
            .backward_batch(ps, xs, &dh, batch, sink, None, scratch);
        scratch.give(next);
        scratch.give(dh);
    }
}

/// Standard sinusoidal positional encodings.
pub fn positional_encoding(seq_len: usize, d_model: usize) -> Matrix {
    Matrix::from_fn(seq_len, d_model, |pos, i| {
        let exponent = (2 * (i / 2)) as f32 / d_model as f32;
        let rate = 1.0 / 10_000f32.powf(exponent);
        let angle = pos as f32 * rate;
        if i % 2 == 0 {
            angle.sin()
        } else {
            angle.cos()
        }
    })
}

/// Per-sample definitions: the oracles the batched passes are pinned to.
#[cfg(any(test, feature = "reference"))]
impl EncoderLayer {
    fn forward(&self, ps: &ParamSet, x: &Matrix) -> (Matrix, EncoderLayerCache) {
        let (n1, c_ln1) = self.ln1.forward(ps, x);
        let (a, c_attn) = self.attn.forward(ps, &n1);
        let h = x.add(&a);
        let (n2, c_ln2) = self.ln2.forward(ps, &h);
        let (f1, c_ff1) = self.ff1.forward(ps, &n2);
        let (g, c_act) = self.act.forward(&f1);
        let (f2, c_ff2) = self.ff2.forward(ps, &g);
        let y = h.add(&f2);
        (
            y,
            EncoderLayerCache {
                c_ln1,
                c_attn,
                c_ln2,
                c_ff1,
                c_act,
                c_ff2,
            },
        )
    }

    fn backward(
        &self,
        ps: &ParamSet,
        cache: &EncoderLayerCache,
        dy: &Matrix,
        grads: &mut Grads,
    ) -> Matrix {
        // y = h + FFN(LN2(h)) → dh = dy + LN2ᵀ(FFNᵀ(dy)).
        let d_f2 = self.ff2.backward(ps, &cache.c_ff2, dy, grads);
        let d_g = self.act.backward(&cache.c_act, &d_f2);
        let d_n2 = self.ff1.backward(ps, &cache.c_ff1, &d_g, grads);
        let d_h_ffn = self.ln2.backward(ps, &cache.c_ln2, &d_n2, grads);
        let dh = dy.add(&d_h_ffn);
        // h = x + MHSA(LN1(x)) → dx = dh + LN1ᵀ(MHSAᵀ(dh)).
        let d_a = self.attn.backward(ps, &cache.c_attn, &dh, grads);
        let d_x_attn = self.ln1.backward(ps, &cache.c_ln1, &d_a, grads);
        dh.add(&d_x_attn)
    }
}

/// Per-sample definitions: the oracles the batched passes are pinned to.
#[cfg(any(test, feature = "reference"))]
impl TransformerEncoder {
    /// Encodes a `seq × input_dim` state matrix into a pooled `1 × d_model`
    /// feature row.
    pub fn forward(&self, ps: &ParamSet, x: &Matrix) -> (Matrix, TransformerCache) {
        assert_eq!(x.cols(), self.cfg.input_dim, "state row width mismatch");
        assert!(
            x.rows() <= self.cfg.seq_len,
            "sequence longer than configured"
        );
        let (e, c_embed) = self.embed.forward(ps, x);
        let mut h = Matrix::from_fn(e.rows(), e.cols(), |r, c| e.get(r, c) + self.pos.get(r, c));
        let mut c_layers = Vec::with_capacity(self.layers.len());
        for layer in &self.layers {
            let (next, c) = layer.forward(ps, &h);
            h = next;
            c_layers.push(c);
        }
        let pooled = h.mean_rows();
        (
            pooled,
            TransformerCache {
                c_embed,
                c_layers,
                seq: x.rows(),
            },
        )
    }

    /// Backward from the pooled feature gradient (`1 × d_model`).
    pub fn backward(
        &self,
        ps: &ParamSet,
        cache: &TransformerCache,
        d_pooled: &Matrix,
        grads: &mut Grads,
    ) -> Matrix {
        // Mean pooling spreads the gradient evenly over sequence rows.
        let seq = cache.seq;
        let scale = 1.0 / seq as f32;
        let mut dh = Matrix::from_fn(seq, self.cfg.d_model, |_, c| d_pooled.get(0, c) * scale);
        for (layer, c) in self.layers.iter().zip(&cache.c_layers).rev() {
            dh = layer.backward(ps, c, &dh, grads);
        }
        // Positional encodings are constants: gradient passes through.
        self.embed.backward(ps, &cache.c_embed, &dh, grads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_gradients;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny() -> TransformerConfig {
        TransformerConfig {
            input_dim: 5,
            seq_len: 4,
            d_model: 8,
            heads: 2,
            layers: 2,
            ff_mult: 2,
        }
    }

    #[test]
    fn validate_names_the_bad_field() {
        assert_eq!(tiny().validate(), Ok(()));
        for (field, cfg) in [
            ("heads", TransformerConfig { heads: 0, ..tiny() }),
            (
                "d_model",
                TransformerConfig {
                    d_model: 0,
                    ..tiny()
                },
            ),
            (
                "seq_len",
                TransformerConfig {
                    seq_len: 0,
                    ..tiny()
                },
            ),
            (
                "ff_mult",
                TransformerConfig {
                    ff_mult: 0,
                    ..tiny()
                },
            ),
        ] {
            assert_eq!(cfg.validate(), Err(TransformerConfigError::Zero { field }));
        }
        let err = TransformerConfig { heads: 3, ..tiny() }
            .validate()
            .unwrap_err();
        assert_eq!(
            err,
            TransformerConfigError::HeadsDoNotDivide {
                d_model: 8,
                heads: 3
            }
        );
        assert!(err
            .to_string()
            .contains("heads = 3 does not divide d_model = 8"));
    }

    #[test]
    fn forward_produces_pooled_feature() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(0);
        let enc = TransformerEncoder::new(&mut ps, "t", tiny(), &mut rng);
        let x = Matrix::xavier(4, 5, &mut rng);
        let (y, _) = enc.forward(&ps, &x);
        assert_eq!(y.shape(), (1, 8));
        assert!(y.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn positional_encoding_distinguishes_positions() {
        let pe = positional_encoding(10, 8);
        assert_eq!(pe.shape(), (10, 8));
        // Different positions get different encodings.
        assert_ne!(pe.row(0), pe.row(5));
        // All values bounded by 1.
        assert!(pe.data().iter().all(|v| v.abs() <= 1.0));
        // pos 0: sin(0)=0 on even dims, cos(0)=1 on odd dims.
        assert_eq!(pe.get(0, 0), 0.0);
        assert_eq!(pe.get(0, 1), 1.0);
    }

    #[test]
    fn attention_mixes_information_across_rows() {
        // Changing one input row must change the pooled output (attention
        // propagates it), unlike a row-local model.
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(1);
        let enc = TransformerEncoder::new(&mut ps, "t", tiny(), &mut rng);
        let x = Matrix::xavier(4, 5, &mut rng);
        let (y1, _) = enc.forward(&ps, &x);
        let mut x2 = x.clone();
        x2.set(3, 2, x2.get(3, 2) + 1.0);
        let (y2, _) = enc.forward(&ps, &x2);
        let diff: f32 = y1.sub(&y2).norm();
        assert!(diff > 1e-6, "pooled output insensitive to input change");
    }

    #[test]
    fn full_gradcheck_through_the_stack() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = TransformerConfig {
            input_dim: 3,
            seq_len: 3,
            d_model: 4,
            heads: 2,
            layers: 1,
            ff_mult: 2,
        };
        let enc = TransformerEncoder::new(&mut ps, "t", cfg, &mut rng);
        let x = Matrix::xavier(3, 3, &mut rng);
        let wv: Vec<f32> = (0..4).map(|i| (i as f32 + 1.0) * 0.3).collect();
        let weights = Matrix::row_vector(wv);
        let loss = |ps: &ParamSet| enc.forward(ps, &x).0.hadamard(&weights).sum();
        let (_, cache) = enc.forward(&ps, &x);
        let mut grads = Grads::new(&ps);
        enc.backward(&ps, &cache, &weights, &mut grads);
        // Check every parameter in the model.
        let ids: Vec<_> = ps.iter().map(|(id, _)| id).collect();
        check_gradients(&mut ps, &ids, loss, &grads, 1e-2, 4e-2).unwrap();
    }

    #[test]
    fn shorter_sequences_are_accepted() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(4);
        let enc = TransformerEncoder::new(&mut ps, "t", tiny(), &mut rng);
        let x = Matrix::xavier(2, 5, &mut rng); // seq 2 < configured 4
        let (y, cache) = enc.forward(&ps, &x);
        assert_eq!(y.shape(), (1, 8));
        let mut grads = Grads::new(&ps);
        let d = Matrix::full(1, 8, 1.0);
        let dx = enc.backward(&ps, &cache, &d, &mut grads);
        assert_eq!(dx.shape(), (2, 5));
    }

    #[test]
    #[should_panic(expected = "sequence longer")]
    fn oversized_sequence_panics() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(5);
        let enc = TransformerEncoder::new(&mut ps, "t", tiny(), &mut rng);
        let x = Matrix::xavier(9, 5, &mut rng);
        let _ = enc.forward(&ps, &x);
    }
}
