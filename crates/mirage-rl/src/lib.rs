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
//!   pretraining of the foundation (§4.9.1),
//! * [`guard::GuardedPolicy`] — output validation with graceful
//!   degradation to the reactive heuristic when a network emits
//!   non-finite or degenerate values.
//!
//! Every head trains through one path, the batched one; the per-sample
//! loops it is pinned bit-identical to are test-only oracles in the
//! `dqn`, `pg` and `offline` unit tests.

pub mod dqn;
pub mod dualhead;
#[cfg(test)]
mod env;
pub mod guard;
pub mod offline;
pub mod pg;
pub mod replay;
pub mod schedule;

pub use dqn::{DqnAgent, DqnAgentState, DqnConfig};
pub use dualhead::{
    ActionEncoding, BatchInferCache, DualHeadConfig, DualHeadNet, HeadBatchCache, StateMismatch,
};
pub use guard::{prob_pair_is_valid, q_pair_is_valid, GuardStats, GuardedPolicy, FALLBACK_ACTION};
pub use offline::{pretrain_foundation, reward_mse, PretrainConfig, RewardSample};
pub use pg::{EpisodeSample, PgAgent, PgAgentState, PgConfig};
pub use replay::{BalancedReplay, Experience, MiniBatch, ReplayBuffer};
pub use schedule::{EpsilonSchedule, ExploreLane};

/// Greedy action over a `[Q(no-submit), Q(submit)]` pair: act (1) only
/// on a strict improvement, so ties keep the conservative no-submit
/// action. This is the one shared tie-breaking rule behind
/// `DqnAgent::act_greedy`, its batched variant and the guarded DQN —
/// they can never diverge on the boundary case.
#[inline]
pub fn greedy_pair(v: [f32; 2]) -> usize {
    usize::from(v[1] > v[0])
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
