//! Mirage — the proactive resource provisioner (the paper's primary
//! contribution), generic over any simulation backend.
//!
//! Given a chain of wall-clock-limited sub-jobs on a batch GPU cluster,
//! Mirage decides *when* to submit each successor sub-job so that it
//! starts right as its predecessor ends, minimizing service interruption
//! at a controlled overlap cost.
//!
//! Everything that drives a cluster here is generic over
//! `B: mirage_sim::ClusterBackend`: the same episode driver, evaluation
//! harness and training pipelines run against the fast event-driven
//! simulator, the tick-driven reference simulator, or any future backend —
//! selected by value via `SimConfig::builder()`:
//!
//! ```no_run
//! use mirage_core::episode::{run_episode, Action, EpisodeConfig};
//! use mirage_sim::{BackendKind, ClusterBackend, SimConfig};
//!
//! fn first_decision_count<B: ClusterBackend>(backend: &mut B) -> usize {
//!     let cfg = EpisodeConfig::default();
//!     let result = run_episode(backend, &[], &cfg, 86_400, |ctx| {
//!         if ctx.pred_started && ctx.pred_remaining <= 3_600 {
//!             Action::Submit
//!         } else {
//!             Action::Wait
//!         }
//!     });
//!     result.decisions.len()
//! }
//!
//! // The same provisioning code against either simulator:
//! let mut fast = SimConfig::builder().nodes(8).build();
//! let mut tick = SimConfig::builder().nodes(8).backend(BackendKind::Tick).build();
//! let _ = first_decision_count(&mut fast);
//! let _ = first_decision_count(&mut tick);
//! ```
//!
//! This crate assembles the substrates into the full system:
//!
//! * [`state`] — the §4.1 state encoding (40 paper variables plus the
//!   flag-gated fault and pool extensions) and the `k × m`
//!   state-matrix history,
//! * [`reward`] — the §4.5 interruption/overlap reward with the
//!   user-configurable `e_I`/`e_O` coefficients,
//! * [`multiservice`] — **the hand-off engine**. The predecessor →
//!   successor hand-off (warm-up replay, status → encoded state every
//!   decision interval, submit or wait, reactive fallback, outcome) is
//!   implemented once, in [`multiservice::MultiServiceEnv`]: N services
//!   sharing one backend, each with its own encoder, history and pair
//!   jobs; every episode in the crate runs on it. The module also
//!   carries the multi-service scenario layer
//!   (traffic-driven demand, stampede-aware reward, baselines,
//!   [`multiservice::evaluate_multiservice`]),
//! * [`episode`] — the paper's single-service episode as the engine's
//!   N = 1 view: the vocabulary every policy speaks
//!   ([`episode::Action`], [`episode::EpisodeConfig`] with its typed
//!   validation error, the borrowed [`episode::DecisionContext`],
//!   [`episode::EpisodeResult`]) and two entry points over the engine, a
//!   closure loop ([`run_episode`]) and an explicit state machine
//!   ([`episode::EpisodeDriver`]). The views own no hand-off state: they
//!   translate one context out, one action in,
//! * [`batch`] — lockstep single-service episodes
//!   ([`batch::BatchedEpisodeDriver`]): one one-service engine per lane,
//!   every pending state matrix stacked into one batch per tick, with
//!   episode-indexed rows and the [`batch::LanePolicy`] shape the
//!   training loops speak,
//! * [`policy`] — the eight §6 methods behind one trait,
//! * [`features`] — compact features for the ensemble baselines,
//! * [`train`] — §4.9 offline collection + foundation pretraining +
//!   online RL fine-tuning: one online loop for DQN and PG, stepping
//!   `TrainConfig::collect_lanes` episodes per window through the batched
//!   driver ([`train::BatchedCollector`]),
//! * [`eval`] — the §6 evaluation harness (load levels, zero-interruption
//!   fractions, reduction vs reactive) and the one warm-once,
//!   restore-per-method loop it, the chaos and hetero lanes,
//!   [`multiservice::evaluate_multiservice`] and
//!   [`train::collect_offline`] all run on,
//! * [`chaos`] — degradation under fault injection: RL vs heuristics on
//!   identically seeded crash tapes across a none/moderate/severe sweep,
//! * [`hetero`] — heterogeneous-cluster evaluation: RL vs the classic
//!   FCFS/SJF/shortest-queue/pool-greedy baselines on identically seeded
//!   pool scenarios (balanced and scarce accelerator tiers),
//! * [`checkpoint`] — crash-safe training checkpoints: full online
//!   training state (weights, optimizer moments, replay, RNG streams,
//!   ε clock, episode counter) snapshotted atomically and resumable bit
//!   for bit,
//! * [`chain`] — whole-chain provisioning (§4.1's rolling
//!   predecessor–successor pairs).

pub mod batch;
pub mod chain;
pub mod chaos;
pub mod checkpoint;
pub mod episode;
pub mod eval;
pub mod features;
pub mod hetero;
pub mod multiservice;
pub mod policy;
pub mod reward;
pub mod state;
pub mod train;

pub use batch::{BatchedEpisodeDriver, LanePolicy};
pub use chain::{provision_chain, ChainResult, ChainSummary};
pub use chaos::{evaluate_chaos, ChaosConfig, ChaosLane, ChaosReport, ChaosSeverity};
pub use checkpoint::{
    CheckpointConfig, DqnTrainCheckpoint, PgTrainCheckpoint, ResumeError, KIND_DQN_TRAIN,
    KIND_PG_TRAIN,
};
pub use episode::{
    run_episode, Action, DecisionContext, EpisodeConfig, EpisodeConfigError, EpisodeDriver,
    EpisodeResult,
};
pub use eval::{evaluate, EvalConfig, EvalReport, LaneMethodSummary, LoadLevel, MethodSummary};
pub use hetero::{
    classic_baselines, evaluate_hetero, HeteroConfig, HeteroLane, HeteroReport, HeteroScenario,
};
pub use multiservice::{
    bursty_scenario, diurnal_scenario, evaluate_multiservice, GreedyPerServicePolicy,
    MultiMethodSummary, MultiServiceConfig, MultiServiceEnv, MultiServicePolicy,
    MultiServiceReport, MultiServiceResult, RlServicePolicy, ServiceEpisode, ServiceSlo,
    ServiceSpec, ShortestQueuePolicy, SlotContext, UniformSharePolicy,
};
// `policy::ShortestQueuePolicy` (the submit-timing baseline) stays
// path-qualified: the crate root already exports the multi-service node
// allocator of the same name.
pub use policy::{
    AvgWaitPolicy, DqnPolicy, FcfsPolicy, PgPolicy, PoolGreedyPolicy, ProvisionPolicy,
    ReactivePolicy, SjfPolicy, WaitModel, WaitPredictorPolicy,
};
pub use reward::{EpisodeOutcome, RewardShaper};
pub use state::{PredecessorState, StateEncoder, StateHistory, SuccessorSpec, STATE_VARS};
pub use train::{
    collect_offline, sample_episode_starts, sample_training_starts, train_dqn_online_checkpointed,
    train_method, train_pg_online_checkpointed, BatchedCollector, DqnTrainRun, MethodKind,
    OfflineData, PgTrainRun, TrainConfig,
};

/// Convenience imports.
pub mod prelude {
    pub use crate::chaos::{evaluate_chaos, ChaosConfig, ChaosReport, ChaosSeverity};
    pub use crate::episode::{
        run_episode, Action, DecisionContext, EpisodeConfig, EpisodeDriver, EpisodeResult,
    };
    pub use crate::eval::{evaluate, EvalConfig, EvalReport, LoadLevel, MethodSummary};
    pub use crate::hetero::{
        classic_baselines, evaluate_hetero, HeteroConfig, HeteroReport, HeteroScenario,
    };
    pub use crate::multiservice::{
        bursty_scenario, diurnal_scenario, evaluate_multiservice, MultiServiceConfig,
        MultiServiceEnv, MultiServicePolicy, MultiServiceReport, ServiceSlo, ServiceSpec,
    };
    pub use crate::policy::{
        AvgWaitPolicy, DqnPolicy, PgPolicy, ProvisionPolicy, ReactivePolicy, WaitPredictorPolicy,
    };
    pub use crate::reward::{EpisodeOutcome, RewardShaper};
    pub use crate::state::{StateEncoder, StateHistory, STATE_VARS};
    pub use crate::train::{collect_offline, train_method, MethodKind, TrainConfig};
}
