//! Reinforcement-learning framework for the Mirage reproduction.
//!
//! Implements the paper's RL machinery on top of `mirage-nn`:
//!
//! * [`replay::ReplayBuffer`] — experience replay (§4.8),
//! * [`dualhead::DualHeadNet`] — the shared-foundation V-head/P-head
//!   architecture of Fig 5/6: one foundation pass feeds the Q-, policy
//!   and reward heads,
//! * [`dqn::DqnAgent`] — ε-greedy DQN whose Q-head regresses, under a
//!   Huber loss, onto each replayed sample's stored reward (§2.2,
//!   §4.9.2),
//! * [`pg::PgAgent`] — REINFORCE with moving-average baseline and entropy
//!   regularization (§2.3, §4.9.2),
//! * [`offline::pretrain_foundation`] — supervised reward-regression
//!   pretraining of the foundation (§4.9.1).
//!
//! Every agent checks its network's output before acting on it: a
//! non-finite or degenerate pair degrades to [`FALLBACK_ACTION`], the
//! reactive heuristic's move, and is counted
//! ([`DqnAgent::fallbacks`](dqn::DqnAgent::fallbacks),
//! [`PgAgent::fallbacks`](pg::PgAgent::fallbacks)).
//!
//! Every head trains through one path, the batched one; the per-sample
//! loops it is pinned bit-identical to are test-only oracles in the
//! `dqn`, `pg` and `offline` unit tests.

pub mod dqn;
pub mod dualhead;
#[cfg(test)]
mod env;
pub mod offline;
pub mod pg;
pub mod replay;
pub mod schedule;

pub use dqn::{DqnAgent, DqnAgentState, DqnConfig};
pub use dualhead::{
    ActionEncoding, BatchInferCache, DualHeadConfig, DualHeadNet, HeadBatchCache, StateMismatch,
};
pub use offline::{pretrain_foundation, reward_mse, PretrainConfig, RewardSample};
pub use pg::{EpisodeSample, PgAgent, PgAgentState, PgConfig};
pub use replay::{BalancedReplay, Experience, MiniBatch, ReplayBuffer};
pub use schedule::{EpsilonSchedule, ExploreLane};

/// Greedy action over a `[Q(no-submit), Q(submit)]` pair: act (1) only
/// on a strict improvement, so ties keep the conservative no-submit
/// action. This is the one shared tie-breaking rule behind every
/// greedy path of `DqnAgent`, so they can never diverge on the boundary
/// case.
#[inline]
pub fn greedy_pair(v: [f32; 2]) -> usize {
    usize::from(v[1] > v[0])
}

/// The action an agent degrades to when its network's output fails the
/// check: index 0 = wait/no-submit, the reactive baseline's only move.
///
/// A silently corrupted network (NaN weights after a diverged update, ∞
/// from an overflowed activation) still *returns* a pair — and `NaN > x`
/// is `false`, so a poisoned greedy argmax quietly collapses to one
/// action and the run keeps going with garbage decisions. The agents
/// check every pair before acting on it, so corruption becomes a
/// counted event in episode outcomes instead of a silent quality cliff.
pub const FALLBACK_ACTION: usize = 0;

/// Whether a Q-value pair is safe to argmax: both entries finite.
#[inline]
pub fn q_pair_is_valid(q: [f32; 2]) -> bool {
    q[0].is_finite() && q[1].is_finite()
}

/// Whether a probability pair is safe to sample from: finite,
/// non-negative, and summing to ≈ 1 (a softmax output that lost those
/// properties came from a corrupted forward pass).
#[inline]
pub fn prob_pair_is_valid(p: [f32; 2]) -> bool {
    p[0].is_finite()
        && p[1].is_finite()
        && p[0] >= 0.0
        && p[1] >= 0.0
        && (p[0] + p[1] - 1.0).abs() <= 1e-3
}

/// Convenience imports.
pub mod prelude {
    pub use crate::dqn::{DqnAgent, DqnConfig};
    pub use crate::dualhead::{ActionEncoding, DualHeadConfig, DualHeadNet};
    pub use crate::offline::{pretrain_foundation, PretrainConfig, RewardSample};
    pub use crate::pg::{EpisodeSample, PgAgent, PgConfig};
    pub use crate::replay::{BalancedReplay, Experience, ReplayBuffer};
    pub use crate::schedule::{EpsilonSchedule, ExploreLane};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_validators() {
        assert!(q_pair_is_valid([1.0, -2.0]));
        assert!(!q_pair_is_valid([f32::NAN, 0.0]));
        assert!(!q_pair_is_valid([0.0, f32::INFINITY]));
        assert!(prob_pair_is_valid([0.25, 0.75]));
        assert!(!prob_pair_is_valid([f32::NAN, 0.5]));
        assert!(!prob_pair_is_valid([-0.1, 1.1]));
        assert!(!prob_pair_is_valid([0.9, 0.9]), "must sum to 1");
    }
}
