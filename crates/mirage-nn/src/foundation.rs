//! Foundation-model abstraction: transformer vs MoE-transformer.
//!
//! The paper's dual-head architecture (Fig 5/6) shares one *foundation
//! model* between the V-head and the P-head; the foundation is either a
//! plain transformer encoder or an MoE of transformer experts. This module
//! unifies the two behind one enum so agents are generic over the choice.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::moe::{MoEBatchCache, MoEFoundation};
use crate::param::{GradSink, ParamSet};
use crate::scratch::Scratch;
use crate::tensor::Matrix;
use crate::transformer::{TransformerBatchCache, TransformerConfig, TransformerEncoder};
#[cfg(any(test, feature = "reference"))]
use crate::{moe::MoECache, param::Grads, transformer::TransformerCache};

/// Which foundation architecture to build (§6 compares both).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FoundationKind {
    /// Single transformer encoder.
    Transformer,
    /// Dense (weighted-average) MoE of transformer experts.
    MoE {
        /// Expert count (10 by default in the paper).
        experts: usize,
    },
}

/// A foundation network: maps a `seq × m` state matrix to a `1 × d_model`
/// feature row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum FoundationNet {
    /// Plain transformer encoder.
    Transformer(TransformerEncoder),
    /// Mixture-of-experts encoder.
    MoE(MoEFoundation),
}

/// Cache of a foundation network's per-sample pass.
#[cfg(any(test, feature = "reference"))]
#[derive(Debug, Clone)]
pub enum FoundationCache {
    /// Transformer cache.
    Transformer(TransformerCache),
    /// MoE cache.
    MoE(MoECache),
}

/// Retained batched-training cache of a foundation network. Construct
/// once with [`FoundationBatchCache::default`] and reuse across updates —
/// the variant is (re)established on every recording
/// [`FoundationNet::forward_batch`] call.
#[derive(Debug, Clone)]
pub enum FoundationBatchCache {
    /// Transformer cache.
    Transformer(TransformerBatchCache),
    /// Dense-MoE cache.
    MoE(MoEBatchCache),
}

impl Default for FoundationBatchCache {
    fn default() -> Self {
        FoundationBatchCache::Transformer(TransformerBatchCache::default())
    }
}

impl FoundationNet {
    /// Builds the chosen architecture, allocating parameters in `ps`.
    pub fn new(
        ps: &mut ParamSet,
        name: &str,
        kind: FoundationKind,
        cfg: TransformerConfig,
        rng: &mut impl Rng,
    ) -> Self {
        match kind {
            FoundationKind::Transformer => {
                FoundationNet::Transformer(TransformerEncoder::new(ps, name, cfg, rng))
            }
            FoundationKind::MoE { experts } => {
                FoundationNet::MoE(MoEFoundation::new(ps, name, cfg, experts, rng))
            }
        }
    }

    /// Feature width.
    pub fn out_dim(&self) -> usize {
        match self {
            FoundationNet::Transformer(t) => t.out_dim(),
            FoundationNet::MoE(m) => m.out_dim(),
        }
    }

    /// The one batched encode: `xs` row-stacks `batch` state matrices
    /// (uniform sequence length), and row `b` of the `batch × d_model`
    /// output receives block `b`'s feature, bit-identical to a per-sample
    /// `forward` of that block. Given a `cache` (its
    /// variant re-established to match `self` if needed), the call
    /// records for [`FoundationNet::backward_batch_params`]; without one,
    /// nothing is kept and every temporary comes from `scratch`.
    pub fn forward_batch(
        &self,
        ps: &ParamSet,
        xs: &Matrix,
        batch: usize,
        out: &mut Matrix,
        cache: Option<&mut FoundationBatchCache>,
        scratch: &mut Scratch,
    ) {
        match self {
            FoundationNet::Transformer(t) => {
                let c = cache.map(|cache| {
                    if !matches!(cache, FoundationBatchCache::Transformer(_)) {
                        *cache =
                            FoundationBatchCache::Transformer(TransformerBatchCache::default());
                    }
                    let FoundationBatchCache::Transformer(c) = cache else {
                        unreachable!()
                    };
                    c
                });
                t.forward_batch(ps, xs, batch, out, c, scratch);
            }
            FoundationNet::MoE(m) => {
                let c = cache.map(|cache| {
                    if !matches!(cache, FoundationBatchCache::MoE(_)) {
                        *cache = FoundationBatchCache::MoE(MoEBatchCache::default());
                    }
                    let FoundationBatchCache::MoE(c) = cache else {
                        unreachable!()
                    };
                    c
                });
                m.forward_batch(ps, xs, batch, out, c, scratch);
            }
        }
    }

    /// Batched parameter-gradient backward for a recording
    /// [`FoundationNet::forward_batch`]: block `b`'s parameter
    /// gradients fold into `sink` bit-identically to sequential
    /// per-block per-sample `backward` calls. Neither architecture
    /// computes an input gradient: the foundation is a network's first
    /// layer. The MoE requires that `sink` hold no gate gradient on entry
    /// (see [`MoEFoundation::backward_batch_params`]).
    pub fn backward_batch_params(
        &self,
        ps: &ParamSet,
        cache: &FoundationBatchCache,
        xs: &Matrix,
        d_pooled: &Matrix,
        sink: &mut GradSink<'_>,
        scratch: &mut Scratch,
    ) {
        match (self, cache) {
            (FoundationNet::Transformer(t), FoundationBatchCache::Transformer(c)) => {
                t.backward_batch_params(ps, c, xs, d_pooled, sink, scratch)
            }
            (FoundationNet::MoE(m), FoundationBatchCache::MoE(c)) => {
                m.backward_batch_params(ps, c, xs, d_pooled, sink, scratch)
            }
            _ => panic!("foundation cache kind mismatch"),
        }
    }
}

/// Per-sample definitions: the oracles the batched passes are pinned to.
#[cfg(any(test, feature = "reference"))]
impl FoundationNet {
    /// Encodes a state matrix into a pooled feature row.
    pub fn forward(&self, ps: &ParamSet, x: &Matrix) -> (Matrix, FoundationCache) {
        match self {
            FoundationNet::Transformer(t) => {
                let (y, c) = t.forward(ps, x);
                (y, FoundationCache::Transformer(c))
            }
            FoundationNet::MoE(m) => {
                let (y, c) = m.forward(ps, x);
                (y, FoundationCache::MoE(c))
            }
        }
    }

    /// Backward from the feature gradient; returns `dx`.
    pub fn backward(
        &self,
        ps: &ParamSet,
        cache: &FoundationCache,
        d_feat: &Matrix,
        grads: &mut Grads,
    ) -> Matrix {
        match (self, cache) {
            (FoundationNet::Transformer(t), FoundationCache::Transformer(c)) => {
                t.backward(ps, c, d_feat, grads)
            }
            (FoundationNet::MoE(m), FoundationCache::MoE(c)) => m.backward(ps, c, d_feat, grads),
            _ => panic!("foundation cache kind mismatch"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny() -> TransformerConfig {
        TransformerConfig {
            input_dim: 4,
            seq_len: 3,
            d_model: 8,
            heads: 2,
            layers: 1,
            ff_mult: 2,
        }
    }

    #[test]
    fn all_kinds_produce_features() {
        for kind in [
            FoundationKind::Transformer,
            FoundationKind::MoE { experts: 2 },
        ] {
            let mut ps = ParamSet::new();
            let mut rng = StdRng::seed_from_u64(0);
            let net = FoundationNet::new(&mut ps, "f", kind, tiny(), &mut rng);
            let x = Matrix::xavier(3, 4, &mut rng);
            let (y, cache) = net.forward(&ps, &x);
            assert_eq!(y.shape(), (1, 8));
            assert_eq!(net.out_dim(), 8);
            let mut grads = Grads::new(&ps);
            let dx = net.backward(&ps, &cache, &Matrix::full(1, 8, 1.0), &mut grads);
            assert_eq!(dx.shape(), (3, 4));
            assert!(grads.iter().count() > 0);
        }
    }

    #[test]
    fn moe_has_more_parameters_than_transformer() {
        let mut ps_t = ParamSet::new();
        let mut ps_m = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(1);
        let _t = FoundationNet::new(
            &mut ps_t,
            "f",
            FoundationKind::Transformer,
            tiny(),
            &mut rng,
        );
        let _m = FoundationNet::new(
            &mut ps_m,
            "f",
            FoundationKind::MoE { experts: 4 },
            tiny(),
            &mut rng,
        );
        assert!(ps_m.scalar_count() > 3 * ps_t.scalar_count());
    }

    #[test]
    #[should_panic(expected = "cache kind mismatch")]
    fn mismatched_cache_panics() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(2);
        let t = FoundationNet::new(&mut ps, "t", FoundationKind::Transformer, tiny(), &mut rng);
        let m = FoundationNet::new(
            &mut ps,
            "m",
            FoundationKind::MoE { experts: 2 },
            tiny(),
            &mut rng,
        );
        let x = Matrix::xavier(3, 4, &mut rng);
        let (_, c_moe) = m.forward(&ps, &x);
        let mut grads = Grads::new(&ps);
        let _ = t.backward(&ps, &c_moe, &Matrix::zeros(1, 8), &mut grads);
    }
}
