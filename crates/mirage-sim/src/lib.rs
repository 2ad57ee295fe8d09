//! Low-overhead discrete-event Slurm simulation (§5.2 of the paper),
//! unified behind the [`ClusterBackend`] trait.
//!
//! The Mirage agent drives a cluster through three calls — `submit` a job,
//! `sample_into` the observable state, `step` simulated time — and the
//! provisioning stack upstream (`mirage-core`) is generic over *any*
//! backend honoring that contract. A backend is a clock over one
//! [`Simulator`] ([`ClusterBackend::cluster`]); every read is that
//! cluster's:
//!
//! * [`Simulator`] — the fast event-driven simulator Mirage trains
//!   against. It runs a scheduling pass exactly when an event (arrival or
//!   completion) changes the system, so simulated time leaps between
//!   events. One month of trace replays in well under a minute.
//! * [`ReferenceSimulator`] — a tick-driven stand-in for the "standard
//!   Slurm simulator" the paper validates against: the same cluster, with
//!   the main priority pass and the backfill pass on their own fixed
//!   cadences (as in production `slurmctld`), so jobs start only on
//!   scheduler ticks. It anchors the §5.2 fidelity study ([`fidelity`]).
//! * [`BackendPool`] — the seeded factory collection and training build
//!   their lanes from: lane slot `i` is built from `base_seed ^ i`,
//!   whichever worker builds it.
//!
//! The two simulators are one cluster state machine under two clocks: the job arena,
//! the queue, the scheduling pass (multifactor priority + EASY backfill,
//! [`backfill`]) and the fault/retry/pool ledgers are [`Simulator`]'s, and
//! [`ReferenceSimulator`] only decides *when* a pass runs. Every backend
//! is `Clone`: a fork is `clone()`, a restore is `clone_from()`, which
//! copies the source's jobs over the target's job-arena slots in place
//! (names into the slots' buffers; slots beyond the source's jobs stay
//! spare) and reuses its event heap and queue, so one warm state can seed
//! many runs. `reset()` keeps the arena's slots too, and `load_trace`
//! refills them, so a replay of the next trace window allocates nothing
//! the last one did not. They are selected *by value* through the builder:
//!
//! ```
//! use mirage_sim::{BackendKind, ClusterBackend, SimConfig};
//!
//! // Event-driven by default; `.backend(BackendKind::Tick)` swaps in the
//! // tick-driven reference without changing any downstream code.
//! let mut backend = SimConfig::builder().nodes(8).seed(42).build();
//! backend.run_until(3_600);
//! assert_eq!(backend.now(), 3_600);
//! assert_eq!(backend.free_nodes(), 8);
//!
//! let mut tick = SimConfig::builder()
//!     .nodes(8)
//!     .backend(BackendKind::Tick)
//!     .build();
//! assert_eq!(tick.total_nodes(), 8);
//! ```

mod admission;
mod pending;

pub mod backend;
pub mod backfill;
pub mod event;
pub mod fault;
pub mod fidelity;
pub mod hetero;
pub mod metrics;
pub mod priority;
pub mod reference;
pub mod simulator;
pub mod snapshot;

pub use backend::{
    AnyBackend, BackendFactory, BackendKind, BackendPool, ClusterBackend, SimBuilder,
};
pub use backfill::{plan_schedule, plan_schedule_into, BackfillPolicy, PendingView, PlanScratch};
pub use fault::{EvictionLog, FaultModel, FaultStats, JobFaults, RetryPolicy, SimConfigError};
pub use fidelity::{compare, run_both, run_both_backends, run_timed, FidelityReport};
pub use hetero::{scale_runtime, HeteroModel, HeteroStats, NodePool, Placement};
pub use metrics::{ServiceUsage, SimMetrics};
pub use priority::PriorityWeights;
pub use reference::{ReferenceConfig, ReferenceSimulator};
pub use simulator::{JobStatus, SimConfig, Simulator};
pub use snapshot::{ClusterSnapshot, QueuedJobView, RunningJobView};
