//! # Mirage
//!
//! A Rust reproduction of *"Mirage: Towards Low-interruption Services on
//! Batch GPU Clusters with Reinforcement Learning"* (SC 2023).
//!
//! Mirage is a proactive resource provisioner for batch GPU clusters: given
//! a chain of wall-clock-limited sub-jobs (the way long-running deep
//! learning training and inference services must run under Slurm), it
//! decides *when* to submit each successor sub-job so that it starts just
//! as its predecessor ends — minimising service **interruption** without
//! wasting node-hours on **overlap**.
//!
//! This crate is a facade that re-exports the workspace:
//!
//! * [`trace`] — job model, synthetic cluster workloads, cleaning, stats
//! * [`sim`] — Slurm simulation behind the `ClusterBackend` trait: one
//!   cluster under the fast event clock or the tick-driven reference
//!   clock, selected by value via `SimConfig::builder()`, and a seeded
//!   backend factory (`BackendPool`) for lockstep collection
//! * [`nn`] — from-scratch transformer / mixture-of-experts substrate
//! * [`ensemble`] — random forest and gradient boosting baselines
//! * [`rl`] — DQN and policy-gradient agents with experience replay
//! * [`core`] — state encoding, reward shaping, policies, train/eval —
//!   every entry point generic over `B: ClusterBackend`
//!
//! ## Quickstart
//!
//! ```
//! use mirage::prelude::*;
//!
//! // A small synthetic cluster and trace.
//! let profile = ClusterProfile::a100().scaled(0.25);
//! let mut cfg = SynthConfig::new(profile.clone(), 42);
//! cfg.months = Some(1);
//! let jobs = TraceGenerator::new(cfg).generate();
//!
//! // Replay it through a backend picked by value — the event-driven
//! // simulator by default, `BackendKind::Tick` for the slurmctld-cadence
//! // reference; provisioning code upstream is generic over either.
//! let mut backend = SimConfig::builder().nodes(profile.nodes).build();
//! backend.load_trace(&jobs);
//! backend.run_to_completion();
//! assert_eq!(
//!     backend.completed().len() + backend.metrics().rejected_jobs,
//!     jobs.len()
//! );
//!
//! // One provisioning episode over the same backend: submit the successor
//! // two hours before the predecessor's limit expires.
//! let ecfg = EpisodeConfig::default();
//! let result = run_episode(&mut backend, &jobs, &ecfg, 14 * DAY, |ctx| {
//!     if ctx.pred_started && ctx.pred_remaining <= 2 * HOUR {
//!         Action::Submit
//!     } else {
//!         Action::Wait
//!     }
//! });
//! assert!(result.outcome.interruption == 0 || result.outcome.overlap == 0);
//! ```

pub use mirage_core as core;
pub use mirage_ensemble as ensemble;
pub use mirage_nn as nn;
pub use mirage_rl as rl;
pub use mirage_sim as sim;
pub use mirage_trace as trace;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use mirage_core::prelude::*;
    pub use mirage_ensemble::{GradientBoosting, RandomForest};
    pub use mirage_nn::prelude::*;
    pub use mirage_rl::prelude::*;
    pub use mirage_sim::{
        AnyBackend, BackendFactory, BackendKind, BackendPool, ClusterBackend, FidelityReport,
        ReferenceConfig, ReferenceSimulator, SimBuilder, SimConfig, Simulator,
    };
    pub use mirage_trace::{
        clean_trace, split_by_time, ClusterProfile, JobRecord, SynthConfig, TraceGenerator, DAY,
        HOUR, MINUTE, MONTH, WEEK,
    };
}
