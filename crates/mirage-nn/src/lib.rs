//! From-scratch neural-network substrate for the Mirage reproduction.
//!
//! The paper builds its provisioner on PyTorch; this crate provides the
//! equivalent pieces natively in Rust:
//!
//! * [`tensor::Matrix`] — the dense f32 matrix everything runs on,
//! * [`param`] — parameter store + gradient accumulators (stateless,
//!   thread-parallel-friendly modules),
//! * [`linear`], [`activation`], [`layernorm`], [`attention`] — layers
//!   with manual, finite-difference-checked backward passes,
//! * [`transformer`] — the pre-LN encoder foundation model of §4.6,
//! * [`moe`] — the dense mixture-of-experts foundation of §4.7,
//! * [`foundation`] — the transformer/MoE abstraction agents build on,
//! * [`optim`] — Adam,
//! * [`loss`] — MSE/Huber/cross-entropy/REINFORCE surrogates,
//! * [`serialize`] — the workspace's one codec: little-endian binary
//!   payloads ([`serialize::ByteWriter`] / [`serialize::ByteReader`]) in
//!   a versioned/checksummed envelope validated on load with typed
//!   errors, written by atomic replace-on-rename.
//!
//! Each layer ships one batched forward and one batched backward. The
//! per-sample `forward` / `backward` they are pinned bit-identical to, and
//! `gradcheck`, are `reference` items: only dev-dependencies enable them.

pub mod activation;
pub mod attention;
pub mod foundation;
#[cfg(any(test, feature = "reference"))]
pub mod gradcheck;
pub mod layernorm;
pub mod linear;
pub mod loss;
pub mod moe;
pub mod optim;
pub mod param;
pub mod scratch;
pub mod serialize;
pub mod tensor;
pub mod transformer;

pub use activation::Activation;
pub use attention::MultiHeadAttention;
#[cfg(any(test, feature = "reference"))]
pub use foundation::FoundationCache;
pub use foundation::{FoundationBatchCache, FoundationKind, FoundationNet};
pub use layernorm::LayerNorm;
pub use linear::Linear;
pub use moe::MoEFoundation;
pub use optim::Adam;
pub use param::{GradSink, Grads, ParamId, ParamSet};
pub use scratch::Scratch;
pub use serialize::{load_params, save_params, write_atomic, CheckpointError};
pub use tensor::Matrix;
pub use transformer::{TransformerConfig, TransformerConfigError, TransformerEncoder};

/// Convenience imports.
pub mod prelude {
    pub use crate::activation::Activation;
    pub use crate::foundation::{FoundationKind, FoundationNet};
    pub use crate::linear::Linear;
    pub use crate::optim::Adam;
    pub use crate::param::{Grads, ParamId, ParamSet};
    pub use crate::scratch::Scratch;
    pub use crate::tensor::Matrix;
    pub use crate::transformer::{TransformerConfig, TransformerEncoder};
}
