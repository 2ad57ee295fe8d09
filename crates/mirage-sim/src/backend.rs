//! The [`ClusterBackend`] abstraction: one trait in front of every
//! simulator implementation.
//!
//! The Mirage agent's contract with the cluster is tiny — inject a job
//! ([`ClusterBackend::submit`]), observe the queue ([`ClusterBackend::sample`]),
//! advance time ([`ClusterBackend::step`]) — and nothing in the provisioning
//! stack should care *which* simulator honors it. This module makes that
//! official:
//!
//! * [`ClusterBackend`] — the trait, implemented by the event-driven
//!   [`Simulator`], the tick-driven [`ReferenceSimulator`] (a tick clock
//!   over a `Simulator` of its own: its reads are that cluster's, only
//!   what moves time differs) and the enum-dispatched [`AnyBackend`],
//! * [`SimBuilder`] (via [`SimConfig::builder`]) — value-level backend
//!   selection: `SimConfig::builder().nodes(64).seed(7)
//!   .backend(BackendKind::Tick).build()`,
//! * [`BackendFactory`] — seeded construction of fresh backends, for
//!   parallel collection,
//! * [`BackendPool`] — N independently seeded backends fanned out over
//!   std threads (the vendored `rayon` is sequential, so this is the
//!   workspace's real parallelism for episode collection). The pool is
//!   **supervised**: a task that panics does not kill the run — the
//!   worker catches the unwind, rebuilds its backend from the factory,
//!   and the task is retried (on whichever worker claims it next) under
//!   a bounded-backoff budget, with every incident counted in
//!   [`PoolHealth`]. [`PanicPlan`] injects deterministic panics so the
//!   supervision path itself is testable.

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use mirage_trace::{split_seed, JobRecord};

use crate::fault::{FaultModel, FaultStats, JobFaults, RetryPolicy, SimConfigError};
use crate::hetero::{HeteroModel, HeteroStats};
use crate::metrics::{ServiceUsage, SimMetrics};
use crate::reference::{ReferenceConfig, ReferenceSimulator};
use crate::simulator::{JobStatus, SimConfig, Simulator};
use crate::snapshot::ClusterSnapshot;
use crate::{BackfillPolicy, PriorityWeights};

/// A simulated cluster that the provisioning stack can drive.
///
/// Semantics shared by every implementation:
///
/// * time is monotone; [`step`](Self::step) ignores non-positive `dt`,
/// * [`submit`](Self::submit) overrides the job's submit time to *now* and
///   returns the id under which the backend tracks it (reassigned if the
///   requested id is 0 or already taken),
/// * [`reset`](Self::reset) returns to an idle cluster at time 0 with the
///   same configuration, so one backend value can host many episodes.
pub trait ClusterBackend {
    /// Current simulated time, seconds.
    fn now(&self) -> i64;

    /// Partition size.
    fn total_nodes(&self) -> u32;

    /// Idle node count.
    fn free_nodes(&self) -> u32;

    /// Nodes physically available right now (total minus crashed). The
    /// default assumes perfectly reliable hardware; fault-injecting
    /// backends override it.
    fn available_nodes(&self) -> u32 {
        self.total_nodes()
    }

    /// Fault evictions within the trailing `window` seconds (0 without
    /// fault injection).
    fn recent_evictions(&self, window: i64) -> u32 {
        let _ = window;
        0
    }

    /// Aggregate fault counters of the run so far (all zero without fault
    /// injection).
    fn fault_stats(&self) -> FaultStats {
        FaultStats::default()
    }

    /// Per-job fault ledger by id (zero for unknown ids, untouched jobs,
    /// and backends without fault injection).
    fn job_faults(&self, id: u64) -> JobFaults {
        let _ = id;
        JobFaults::default()
    }

    /// Per-pool free-node counts on a heterogeneous partition, in pool
    /// declaration order. The default assumes a homogeneous cluster
    /// (empty); pool-aware backends override it.
    fn pool_free(&self) -> Vec<u32> {
        Vec::new()
    }

    /// Per-pool node totals, aligned with [`pool_free`](Self::pool_free)
    /// (empty on a homogeneous cluster).
    fn pool_total(&self) -> Vec<u32> {
        Vec::new()
    }

    /// Aggregate placement/contention counters of the run so far (all
    /// zero without heterogeneity).
    fn hetero_stats(&self) -> HeteroStats {
        HeteroStats::default()
    }

    /// Running jobs currently suffering a contention slowdown (0 without
    /// heterogeneity).
    fn contended_running(&self) -> u32 {
        0
    }

    /// Loads a trace of future arrivals (ids preserved when unique).
    fn load_trace(&mut self, jobs: &[JobRecord]);

    /// Submits a job *now*; returns its tracking id.
    fn submit(&mut self, job: JobRecord) -> u64;

    /// Observable cluster state at the current instant.
    fn sample(&self) -> ClusterSnapshot;

    /// Observable cluster state written into a caller-provided snapshot,
    /// reusing its `queued`/`running` vectors so the steady-state decision
    /// loop samples without allocating. The result must equal a fresh
    /// [`sample`](Self::sample) — stale contents of `out` are overwritten.
    /// The default just delegates; concrete backends override with a
    /// buffer-reusing implementation.
    fn sample_into(&self, out: &mut ClusterSnapshot) {
        *out = self.sample();
    }

    /// Lifecycle status of a job by id.
    fn status(&self, id: u64) -> Option<JobStatus>;

    /// Advances simulated time by `dt` seconds (non-positive `dt` is a
    /// no-op rather than an event-order hazard).
    fn step(&mut self, dt: i64);

    /// Advances simulated time to `t_end`.
    fn run_until(&mut self, t_end: i64);

    /// Runs until no work remains.
    fn run_to_completion(&mut self);

    /// Whether queued, running or future work remains.
    fn is_active(&self) -> bool;

    /// Completed job records, in completion order.
    fn completed(&self) -> Vec<JobRecord>;

    /// Aggregate metrics of the run so far.
    fn metrics(&self) -> SimMetrics;

    /// Mean queue wait of jobs started within the trailing `window`
    /// seconds (`None` if nothing started).
    fn avg_recent_wait(&self, window: i64) -> Option<f64>;

    /// Per-user accounting: `user`'s queued/running footprint and
    /// completed consumption on this cluster. Multi-service provisioning
    /// tags each service's jobs with a distinct user id and reads its
    /// share of the shared queue through this ledger. The default derives
    /// it from [`sample`](Self::sample)/[`completed`](Self::completed)
    /// (allocating); the bundled backends override it with a single
    /// allocation-free pass over their job arenas.
    fn user_usage(&self, user: u32) -> ServiceUsage {
        let mut usage = ServiceUsage::empty(user);
        let snap = self.sample();
        for q in &snap.queued {
            if q.user == user {
                usage.queued += 1;
                usage.queued_nodes += u64::from(q.nodes);
            }
        }
        for r in &snap.running {
            if r.user == user {
                usage.running += 1;
                usage.running_nodes += u64::from(r.nodes);
            }
        }
        for job in self.completed() {
            if job.user != user {
                continue;
            }
            let (Some(start), Some(end)) = (job.start, job.end) else {
                continue;
            };
            usage.completed += 1;
            usage.node_seconds += f64::from(job.nodes) * (end - start) as f64;
            usage.wait_sum += start - job.submit;
        }
        usage
    }

    /// Returns to an idle cluster at time 0, keeping the configuration.
    fn reset(&mut self);

    /// Resets and immediately loads `trace` — the "fresh episode from a
    /// trace" constructor path.
    fn reset_with(&mut self, trace: &[JobRecord]) {
        self.reset();
        self.load_trace(trace);
    }
}

impl<T: ClusterBackend + ?Sized> ClusterBackend for &mut T {
    fn now(&self) -> i64 {
        (**self).now()
    }
    fn total_nodes(&self) -> u32 {
        (**self).total_nodes()
    }
    fn free_nodes(&self) -> u32 {
        (**self).free_nodes()
    }
    // Defaults do not forward: a reborrow must reach the underlying
    // backend's fault surface, not the reliable-hardware fallback.
    fn available_nodes(&self) -> u32 {
        (**self).available_nodes()
    }
    fn recent_evictions(&self, window: i64) -> u32 {
        (**self).recent_evictions(window)
    }
    fn fault_stats(&self) -> FaultStats {
        (**self).fault_stats()
    }
    fn job_faults(&self, id: u64) -> JobFaults {
        (**self).job_faults(id)
    }
    fn pool_free(&self) -> Vec<u32> {
        (**self).pool_free()
    }
    fn pool_total(&self) -> Vec<u32> {
        (**self).pool_total()
    }
    fn hetero_stats(&self) -> HeteroStats {
        (**self).hetero_stats()
    }
    fn contended_running(&self) -> u32 {
        (**self).contended_running()
    }
    fn load_trace(&mut self, jobs: &[JobRecord]) {
        (**self).load_trace(jobs);
    }
    fn submit(&mut self, job: JobRecord) -> u64 {
        (**self).submit(job)
    }
    fn sample(&self) -> ClusterSnapshot {
        (**self).sample()
    }
    fn sample_into(&self, out: &mut ClusterSnapshot) {
        (**self).sample_into(out);
    }
    fn status(&self, id: u64) -> Option<JobStatus> {
        (**self).status(id)
    }
    fn step(&mut self, dt: i64) {
        (**self).step(dt);
    }
    fn run_until(&mut self, t_end: i64) {
        (**self).run_until(t_end);
    }
    fn run_to_completion(&mut self) {
        (**self).run_to_completion();
    }
    fn is_active(&self) -> bool {
        (**self).is_active()
    }
    fn completed(&self) -> Vec<JobRecord> {
        (**self).completed()
    }
    fn metrics(&self) -> SimMetrics {
        (**self).metrics()
    }
    fn avg_recent_wait(&self, window: i64) -> Option<f64> {
        (**self).avg_recent_wait(window)
    }
    fn user_usage(&self, user: u32) -> ServiceUsage {
        (**self).user_usage(user)
    }
    fn reset(&mut self) {
        (**self).reset();
    }
}

impl ClusterBackend for Simulator {
    fn now(&self) -> i64 {
        Simulator::now(self)
    }
    fn total_nodes(&self) -> u32 {
        Simulator::total_nodes(self)
    }
    fn free_nodes(&self) -> u32 {
        Simulator::free_nodes(self)
    }
    fn available_nodes(&self) -> u32 {
        Simulator::available_nodes(self)
    }
    fn recent_evictions(&self, window: i64) -> u32 {
        Simulator::recent_evictions(self, window)
    }
    fn fault_stats(&self) -> FaultStats {
        Simulator::fault_stats(self)
    }
    fn job_faults(&self, id: u64) -> JobFaults {
        Simulator::job_faults(self, id)
    }
    fn pool_free(&self) -> Vec<u32> {
        Simulator::pool_free(self)
    }
    fn pool_total(&self) -> Vec<u32> {
        Simulator::pool_total(self)
    }
    fn hetero_stats(&self) -> HeteroStats {
        Simulator::hetero_stats(self)
    }
    fn contended_running(&self) -> u32 {
        Simulator::contended_running(self)
    }
    fn load_trace(&mut self, jobs: &[JobRecord]) {
        Simulator::load_trace(self, jobs);
    }
    fn submit(&mut self, job: JobRecord) -> u64 {
        Simulator::submit(self, job)
    }
    fn sample(&self) -> ClusterSnapshot {
        Simulator::sample(self)
    }
    fn sample_into(&self, out: &mut ClusterSnapshot) {
        Simulator::sample_into(self, out);
    }
    fn status(&self, id: u64) -> Option<JobStatus> {
        self.job_status(id)
    }
    fn step(&mut self, dt: i64) {
        Simulator::step(self, dt);
    }
    fn run_until(&mut self, t_end: i64) {
        Simulator::run_until(self, t_end);
    }
    fn run_to_completion(&mut self) {
        Simulator::run_to_completion(self);
    }
    fn is_active(&self) -> bool {
        Simulator::is_active(self)
    }
    fn completed(&self) -> Vec<JobRecord> {
        Simulator::completed(self)
    }
    fn metrics(&self) -> SimMetrics {
        Simulator::metrics(self)
    }
    fn avg_recent_wait(&self, window: i64) -> Option<f64> {
        Simulator::avg_recent_wait(self, window)
    }
    fn user_usage(&self, user: u32) -> ServiceUsage {
        Simulator::user_usage(self, user)
    }
    fn reset(&mut self) {
        Simulator::reset(self);
    }
}

// Reads are the cluster's own (`Deref<Target = Simulator>`), named
// explicitly because `self.now()` here would resolve to this trait's
// method and recurse; what moves time is the tick clock's.
impl ClusterBackend for ReferenceSimulator {
    fn now(&self) -> i64 {
        Simulator::now(self)
    }
    fn total_nodes(&self) -> u32 {
        Simulator::total_nodes(self)
    }
    fn free_nodes(&self) -> u32 {
        Simulator::free_nodes(self)
    }
    fn available_nodes(&self) -> u32 {
        Simulator::available_nodes(self)
    }
    fn recent_evictions(&self, window: i64) -> u32 {
        Simulator::recent_evictions(self, window)
    }
    fn fault_stats(&self) -> FaultStats {
        Simulator::fault_stats(self)
    }
    fn job_faults(&self, id: u64) -> JobFaults {
        Simulator::job_faults(self, id)
    }
    fn pool_free(&self) -> Vec<u32> {
        Simulator::pool_free(self)
    }
    fn pool_total(&self) -> Vec<u32> {
        Simulator::pool_total(self)
    }
    fn hetero_stats(&self) -> HeteroStats {
        Simulator::hetero_stats(self)
    }
    fn contended_running(&self) -> u32 {
        Simulator::contended_running(self)
    }
    fn load_trace(&mut self, jobs: &[JobRecord]) {
        ReferenceSimulator::load_trace(self, jobs);
    }
    fn submit(&mut self, job: JobRecord) -> u64 {
        ReferenceSimulator::submit(self, job)
    }
    fn sample(&self) -> ClusterSnapshot {
        Simulator::sample(self)
    }
    fn sample_into(&self, out: &mut ClusterSnapshot) {
        Simulator::sample_into(self, out);
    }
    fn status(&self, id: u64) -> Option<JobStatus> {
        self.job_status(id)
    }
    fn step(&mut self, dt: i64) {
        ReferenceSimulator::step(self, dt);
    }
    fn run_until(&mut self, t_end: i64) {
        ReferenceSimulator::run_until(self, t_end);
    }
    fn run_to_completion(&mut self) {
        ReferenceSimulator::run_to_completion(self);
    }
    fn is_active(&self) -> bool {
        ReferenceSimulator::is_active(self)
    }
    fn completed(&self) -> Vec<JobRecord> {
        Simulator::completed(self)
    }
    fn metrics(&self) -> SimMetrics {
        Simulator::metrics(self)
    }
    fn avg_recent_wait(&self, window: i64) -> Option<f64> {
        Simulator::avg_recent_wait(self, window)
    }
    fn user_usage(&self, user: u32) -> ServiceUsage {
        Simulator::user_usage(self, user)
    }
    fn reset(&mut self) {
        ReferenceSimulator::reset(self);
    }
}

/// Value-level backend selection for [`SimBuilder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// The fast event-driven [`Simulator`] (Mirage trains against this).
    EventDriven,
    /// The tick-driven [`ReferenceSimulator`] (§5.2 fidelity baseline).
    Tick,
    /// A [`BackendPool`] of `workers` independently seeded event-driven
    /// backends for parallel collection; [`SimBuilder::build`] yields one
    /// event-driven backend, [`SimBuilder::build_pool`] yields the pool.
    Pooled {
        /// Worker-thread (and backend-instance) count.
        workers: usize,
    },
}

/// Either concrete simulator behind one value (enum dispatch), so binaries
/// and tests can pick a backend from configuration instead of from types.
#[derive(Debug)]
pub enum AnyBackend {
    /// Fast event-driven simulator.
    Event(Simulator),
    /// Tick-driven reference simulator.
    Tick(ReferenceSimulator),
}

macro_rules! any_dispatch {
    ($self:ident, $b:ident => $e:expr) => {
        match $self {
            AnyBackend::Event($b) => $e,
            AnyBackend::Tick($b) => $e,
        }
    };
}

impl ClusterBackend for AnyBackend {
    fn now(&self) -> i64 {
        any_dispatch!(self, b => b.now())
    }
    fn total_nodes(&self) -> u32 {
        any_dispatch!(self, b => b.total_nodes())
    }
    fn free_nodes(&self) -> u32 {
        any_dispatch!(self, b => b.free_nodes())
    }
    fn available_nodes(&self) -> u32 {
        any_dispatch!(self, b => b.available_nodes())
    }
    fn recent_evictions(&self, window: i64) -> u32 {
        any_dispatch!(self, b => b.recent_evictions(window))
    }
    fn fault_stats(&self) -> FaultStats {
        any_dispatch!(self, b => b.fault_stats())
    }
    fn job_faults(&self, id: u64) -> JobFaults {
        any_dispatch!(self, b => b.job_faults(id))
    }
    fn pool_free(&self) -> Vec<u32> {
        any_dispatch!(self, b => b.pool_free())
    }
    fn pool_total(&self) -> Vec<u32> {
        any_dispatch!(self, b => b.pool_total())
    }
    fn hetero_stats(&self) -> HeteroStats {
        any_dispatch!(self, b => b.hetero_stats())
    }
    fn contended_running(&self) -> u32 {
        any_dispatch!(self, b => b.contended_running())
    }
    fn load_trace(&mut self, jobs: &[JobRecord]) {
        any_dispatch!(self, b => b.load_trace(jobs));
    }
    fn submit(&mut self, job: JobRecord) -> u64 {
        any_dispatch!(self, b => b.submit(job))
    }
    fn sample(&self) -> ClusterSnapshot {
        any_dispatch!(self, b => b.sample())
    }
    fn sample_into(&self, out: &mut ClusterSnapshot) {
        any_dispatch!(self, b => b.sample_into(out))
    }
    fn status(&self, id: u64) -> Option<JobStatus> {
        any_dispatch!(self, b => b.job_status(id))
    }
    fn step(&mut self, dt: i64) {
        any_dispatch!(self, b => b.step(dt));
    }
    fn run_until(&mut self, t_end: i64) {
        any_dispatch!(self, b => b.run_until(t_end));
    }
    fn run_to_completion(&mut self) {
        any_dispatch!(self, b => b.run_to_completion());
    }
    fn is_active(&self) -> bool {
        any_dispatch!(self, b => b.is_active())
    }
    fn completed(&self) -> Vec<JobRecord> {
        any_dispatch!(self, b => b.completed())
    }
    fn metrics(&self) -> SimMetrics {
        any_dispatch!(self, b => b.metrics())
    }
    fn avg_recent_wait(&self, window: i64) -> Option<f64> {
        any_dispatch!(self, b => b.avg_recent_wait(window))
    }
    fn user_usage(&self, user: u32) -> ServiceUsage {
        any_dispatch!(self, b => b.user_usage(user))
    }
    fn reset(&mut self) {
        any_dispatch!(self, b => b.reset());
    }
}

/// Seeded construction of fresh backends, used by [`BackendPool`] to give
/// every worker its own independent instance.
pub trait BackendFactory: Sync {
    /// The backend type this factory builds.
    type Backend: ClusterBackend + Send;

    /// Builds a fresh idle backend for the given seed.
    fn build(&self, seed: u64) -> Self::Backend;
}

impl<B, F> BackendFactory for F
where
    B: ClusterBackend + Send,
    F: Fn(u64) -> B + Sync,
{
    type Backend = B;

    fn build(&self, seed: u64) -> B {
        self(seed)
    }
}

/// Builder-style simulator configuration with value-level backend
/// selection; entry point: [`SimConfig::builder`].
#[derive(Debug, Clone)]
pub struct SimBuilder {
    nodes: u32,
    seed: u64,
    weights: PriorityWeights,
    backfill: BackfillPolicy,
    reject_oversized: bool,
    sched_depth: usize,
    kind: BackendKind,
    tick: i64,
    sched_interval: i64,
    backfill_interval: i64,
    faults: FaultModel,
    retry: RetryPolicy,
    hetero: HeteroModel,
}

impl Default for SimBuilder {
    fn default() -> Self {
        let sim = SimConfig::new(1);
        let reference = ReferenceConfig::new(1);
        Self {
            nodes: 1,
            seed: 0,
            weights: sim.weights,
            backfill: sim.backfill,
            reject_oversized: sim.reject_oversized,
            sched_depth: sim.sched_depth,
            kind: BackendKind::EventDriven,
            tick: reference.tick,
            sched_interval: reference.sched_interval,
            backfill_interval: reference.backfill_interval,
            faults: FaultModel::none(),
            retry: RetryPolicy::default(),
            hetero: HeteroModel::none(),
        }
    }
}

impl SimBuilder {
    /// Partition size.
    pub fn nodes(mut self, nodes: u32) -> Self {
        self.nodes = nodes;
        self
    }

    /// Base seed for [`build_pool`](Self::build_pool) workers. Replay is
    /// deterministic for any fixed seed; with fault injection enabled
    /// ([`SimBuilder::faults`]) each pool worker derives its own fault
    /// stream from this seed, so workers see independent (but replayable)
    /// crash tapes.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Fault injection model shared by whichever backend is built.
    /// [`FaultModel::none`] (the default) injects nothing.
    pub fn faults(mut self, faults: FaultModel) -> Self {
        self.faults = faults;
        self
    }

    /// Retry policy for evicted / failed jobs.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Heterogeneous node-pool model shared by whichever backend is
    /// built. [`HeteroModel::none`] (the default) keeps the partition
    /// homogeneous. Unlike the fault seed, the hetero seed is *not* split
    /// per pool worker: placement draws are keyed per job id, and the
    /// evaluation lanes want every method to face the identical hardware.
    pub fn hetero(mut self, hetero: HeteroModel) -> Self {
        self.hetero = hetero;
        self
    }

    /// Multifactor priority weights.
    pub fn weights(mut self, weights: PriorityWeights) -> Self {
        self.weights = weights;
        self
    }

    /// Backfill flavor.
    pub fn backfill(mut self, backfill: BackfillPolicy) -> Self {
        self.backfill = backfill;
        self
    }

    /// Whether oversized jobs are rejected on arrival.
    pub fn reject_oversized(mut self, reject: bool) -> Self {
        self.reject_oversized = reject;
        self
    }

    /// Scheduling-pass depth (`bf_max_job_test`).
    pub fn sched_depth(mut self, depth: usize) -> Self {
        self.sched_depth = depth;
        self
    }

    /// Which backend [`build`](Self::build) produces.
    pub fn backend(mut self, kind: BackendKind) -> Self {
        self.kind = kind;
        self
    }

    /// Tick length of the tick-driven backend, seconds.
    pub fn tick(mut self, tick: i64) -> Self {
        self.tick = tick;
        self
    }

    /// Main scheduling cadence of the tick-driven backend, seconds.
    pub fn sched_interval(mut self, interval: i64) -> Self {
        self.sched_interval = interval;
        self
    }

    /// Backfill cadence of the tick-driven backend, seconds.
    pub fn backfill_interval(mut self, interval: i64) -> Self {
        self.backfill_interval = interval;
        self
    }

    /// The event-driven configuration this builder describes.
    pub fn sim_config(&self) -> SimConfig {
        SimConfig {
            nodes: self.nodes,
            weights: self.weights,
            backfill: self.backfill,
            reject_oversized: self.reject_oversized,
            sched_depth: self.sched_depth,
            faults: self.faults,
            retry: self.retry,
            hetero: self.hetero.clone(),
        }
    }

    /// The tick-driven configuration this builder describes.
    pub fn reference_config(&self) -> ReferenceConfig {
        ReferenceConfig {
            nodes: self.nodes,
            weights: self.weights,
            sched_interval: self.sched_interval,
            backfill_interval: self.backfill_interval,
            backfill: self.backfill,
            tick: self.tick,
            faults: self.faults,
            retry: self.retry,
            hetero: self.hetero.clone(),
        }
    }

    /// Builds the selected backend ([`BackendKind::Pooled`] yields one
    /// event-driven instance; use [`build_pool`](Self::build_pool) for the
    /// fan-out). Panics with the [`SimConfigError`] message on an invalid
    /// configuration — use [`try_build`](Self::try_build) to handle it.
    pub fn build(&self) -> AnyBackend {
        self.try_build()
            .unwrap_or_else(|e| panic!("SimBuilder::build: {e}"))
    }

    /// Builds the selected backend after validating every numeric field
    /// (partition size, cadences, fault and retry parameters), so a NaN
    /// failure probability or negative MTBF is a typed error here instead
    /// of a garbage fault tape mid-run.
    pub fn try_build(&self) -> Result<AnyBackend, SimConfigError> {
        match self.kind {
            BackendKind::Tick => {
                let cfg = self.reference_config();
                cfg.validate()?;
                Ok(AnyBackend::Tick(ReferenceSimulator::new(cfg)))
            }
            BackendKind::EventDriven | BackendKind::Pooled { .. } => {
                let cfg = self.sim_config();
                cfg.validate()?;
                Ok(AnyBackend::Event(Simulator::new(cfg)))
            }
        }
    }

    /// Builds the selected backend with `trace` pre-loaded.
    pub fn from_trace(&self, trace: &[JobRecord]) -> AnyBackend {
        let mut backend = self.build();
        backend.load_trace(trace);
        backend
    }

    /// Builds a pool of independently seeded backends; worker count comes
    /// from [`BackendKind::Pooled`] or defaults to the available
    /// parallelism.
    pub fn build_pool(&self) -> BackendPool<SimBuilder> {
        let workers = match self.kind {
            BackendKind::Pooled { workers } => workers,
            _ => default_workers(),
        };
        BackendPool::with_seed(self.clone(), workers, self.seed)
    }
}

impl BackendFactory for SimBuilder {
    type Backend = AnyBackend;

    fn build(&self, seed: u64) -> AnyBackend {
        // Replay is deterministic for any fixed seed. With fault injection
        // enabled, each pool worker derives its own crash/failure stream
        // from the builder's fault seed and the worker's seed, so workers
        // explore independent fault schedules while any single worker
        // stays exactly replayable.
        if self.faults.is_none() {
            return SimBuilder::build(self);
        }
        let mut with_worker_faults = self.clone();
        with_worker_faults.faults.seed = split_seed(self.faults.seed, seed);
        SimBuilder::build(&with_worker_faults)
    }
}

impl SimConfig {
    /// Starts a builder with this crate's defaults.
    pub fn builder() -> SimBuilder {
        SimBuilder::default()
    }
}

fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map_or(4, |n| n.get())
        .clamp(1, 16)
}

/// Maximum times one task is attempted before the pool gives up and
/// propagates the panic (1 initial try + 2 retries).
pub const MAX_TASK_ATTEMPTS: u32 = 3;

/// Cumulative supervision counters of one [`BackendPool`] (monotone
/// across [`BackendPool::map`] calls; snapshot via
/// [`BackendPool::health`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolHealth {
    /// Task executions that panicked (caught by the supervisor).
    pub panics: u64,
    /// Tasks re-queued for another attempt after a panic.
    pub retries: u64,
    /// Worker backends rebuilt from the factory after a panic poisoned
    /// their state.
    pub rebuilds: u64,
    /// Tasks that produced a result (retried tasks count once).
    pub completed: u64,
}

#[derive(Debug, Default)]
struct PoolHealthCounters {
    panics: AtomicU64,
    retries: AtomicU64,
    rebuilds: AtomicU64,
    completed: AtomicU64,
}

impl PoolHealthCounters {
    fn snapshot(&self) -> PoolHealth {
        PoolHealth {
            panics: self.panics.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            rebuilds: self.rebuilds.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
        }
    }
}

/// Deterministic panic injection for supervision tests: the listed task
/// indices panic on their *first* attempt (each index fires once, then
/// is spent), so a seeded plan exercises the catch-unwind / rebuild /
/// retry path reproducibly — and, because retried tasks run on freshly
/// rebuilt backends, a planned run's results are identical to a
/// panic-free run's.
#[derive(Debug, Clone, Default)]
pub struct PanicPlan {
    tasks: Vec<usize>,
}

impl PanicPlan {
    /// Panic on the first attempt of exactly these task indices.
    pub fn tasks(tasks: impl IntoIterator<Item = usize>) -> Self {
        Self {
            tasks: tasks.into_iter().collect(),
        }
    }

    /// `count` distinct task indices drawn deterministically from
    /// `seed` over `0..n_tasks`.
    pub fn seeded(seed: u64, n_tasks: usize, count: usize) -> Self {
        let mut tasks: Vec<usize> = Vec::new();
        if n_tasks == 0 {
            return Self { tasks };
        }
        let mut stream = 0u64;
        while tasks.len() < count.min(n_tasks) {
            let i = (split_seed(seed, stream) % n_tasks as u64) as usize;
            if !tasks.contains(&i) {
                tasks.push(i);
            }
            stream += 1;
        }
        Self { tasks }
    }

    /// The task indices this plan will panic on.
    pub fn indices(&self) -> &[usize] {
        &self.tasks
    }
}

/// Recovers the inner value of a possibly poisoned mutex: the pool's
/// slot writes are all-or-nothing (`*guard = Some(r)`), so a poisoned
/// result slot still holds a coherent value — recover it instead of
/// cascading the panic into the collector.
fn lock_recovering<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// N independently seeded backends fanned out over std threads.
///
/// Tasks are claimed from a shared cursor, every worker drives its own
/// backend built by the factory (seeded `base_seed ^ worker_index`), and
/// results land at their task's index — so the output is identical to a
/// sequential run over the same tasks, whatever the thread interleaving.
///
/// Workers are supervised: a panicking task is caught, the worker's
/// backend is rebuilt from the factory (panic-poisoned simulator state
/// must not leak into later tasks), and the task is re-queued with a
/// small backoff for up to [`MAX_TASK_ATTEMPTS`] attempts before the
/// panic is propagated. [`BackendPool::health`] exposes the counters.
pub struct BackendPool<F: BackendFactory> {
    factory: F,
    workers: usize,
    base_seed: u64,
    health: PoolHealthCounters,
    panic_plan: Mutex<HashSet<usize>>,
}

impl<F: BackendFactory> BackendPool<F> {
    /// Pool of `workers` backends with seed 0.
    pub fn new(factory: F, workers: usize) -> Self {
        Self::with_seed(factory, workers, 0)
    }

    /// Pool of `workers` backends derived from `base_seed`.
    pub fn with_seed(factory: F, workers: usize, base_seed: u64) -> Self {
        Self {
            factory,
            workers: workers.max(1),
            base_seed,
            health: PoolHealthCounters::default(),
            panic_plan: Mutex::new(HashSet::new()),
        }
    }

    /// Worker (= backend instance) count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Snapshot of the supervision counters (cumulative over this
    /// pool's lifetime).
    pub fn health(&self) -> PoolHealth {
        self.health.snapshot()
    }

    /// Arms deterministic panic injection for the next
    /// [`BackendPool::map`] call(s): each planned index fires once, on
    /// that task's first attempt. Supervision-test hook.
    pub fn inject_panics(&mut self, plan: PanicPlan) {
        *lock_recovering(&self.panic_plan) = plan.tasks.into_iter().collect();
    }

    /// Builds one backend outside the pool (worker index 0's seed).
    pub fn build_one(&self) -> F::Backend {
        self.factory.build(self.base_seed)
    }

    /// Builds every worker's backend (seeded `base_seed ^ index`, exactly
    /// as [`BackendPool::map`] seeds its threads) as one vector — the
    /// construction path for lockstep drivers that step all instances in
    /// a single thread instead of fanning tasks out.
    pub fn build_all(&self) -> Vec<F::Backend> {
        self.build_n(self.workers)
    }

    /// Builds the first `n` workers' backends (seeded exactly as
    /// [`BackendPool::build_all`]) — the construction path for lockstep
    /// training windows, whose final window is usually narrower than the
    /// pool. `n` may exceed the worker count; lockstep instances are
    /// stepped by one thread, so the pool's width only namespaces seeds.
    pub fn build_n(&self, n: usize) -> Vec<F::Backend> {
        self.build_range(0, n)
    }

    /// Builds the backends of lane slots `first .. first + n` (seeded
    /// `base_seed ^ slot`, exactly as [`BackendPool::build_n`] seeds the
    /// same slots) — the construction path for a *sub*-window of a wider
    /// lockstep window: `W` training workers each building their
    /// contiguous lane range get, collectively, the identical backend
    /// sequence one worker building the whole window would.
    pub fn build_range(&self, first: usize, n: usize) -> Vec<F::Backend> {
        (first..first + n)
            .map(|w| self.factory.build(self.base_seed ^ (w as u64)))
            .collect()
    }

    /// Runs `f` once per task across the pool's backends and returns the
    /// results in task order. `f` must leave the backend reusable (the
    /// episode driver resets it), which is what makes results independent
    /// of the task-to-worker assignment.
    ///
    /// Tasks are supervised: a panic inside `f` is caught, the worker's
    /// backend is rebuilt from the factory, and the task is re-queued
    /// (with a small backoff) until it succeeds or exhausts
    /// [`MAX_TASK_ATTEMPTS`], at which point the panic is propagated to
    /// the caller with the task index and attempt count.
    pub fn map<T, R, G>(&self, tasks: &[T], f: G) -> Vec<R>
    where
        T: Sync,
        R: Send,
        G: Fn(&mut F::Backend, &T) -> R + Sync,
    {
        let workers = self.workers.min(tasks.len()).max(1);
        let cursor = AtomicUsize::new(0);
        let retry_queue: Mutex<Vec<usize>> = Mutex::new(Vec::new());
        let attempts: Vec<AtomicU32> = (0..tasks.len()).map(|_| AtomicU32::new(0)).collect();
        let slots: Vec<Mutex<Option<R>>> = (0..tasks.len()).map(|_| Mutex::new(None)).collect();
        type PanicPayload = Box<dyn std::any::Any + Send>;
        let fatal: Mutex<Option<(usize, u32, PanicPayload)>> = Mutex::new(None);

        std::thread::scope(|scope| {
            for w in 0..workers {
                let cursor = &cursor;
                let retry_queue = &retry_queue;
                let attempts = &attempts;
                let slots = &slots;
                let fatal = &fatal;
                let f = &f;
                let factory = &self.factory;
                let health = &self.health;
                let panic_plan = &self.panic_plan;
                let seed = self.base_seed ^ (w as u64);
                scope.spawn(move || {
                    let mut backend = factory.build(seed);
                    loop {
                        if lock_recovering(fatal).is_some() {
                            break;
                        }
                        // Retried tasks take priority over fresh ones, so
                        // a crashed task finishes close to where it would
                        // have. If a panic pushes a retry *after* another
                        // worker saw an empty queue and exited, the
                        // pushing worker is still alive (it caught its own
                        // unwind) and claims the retry on its next pass —
                        // retries are never orphaned.
                        let (i, is_retry) = match lock_recovering(retry_queue).pop() {
                            Some(i) => (i, true),
                            None => {
                                let i = cursor.fetch_add(1, Ordering::Relaxed);
                                if i >= tasks.len() {
                                    break;
                                }
                                (i, false)
                            }
                        };
                        if is_retry {
                            let prior = attempts[i].load(Ordering::Relaxed);
                            let backoff_ms = 1u64 << prior.min(3);
                            std::thread::sleep(std::time::Duration::from_millis(backoff_ms));
                        }
                        let inject = lock_recovering(panic_plan).remove(&i);
                        let outcome = if inject {
                            catch_unwind(|| -> R { panic!("injected panic (task {i})") })
                        } else {
                            catch_unwind(AssertUnwindSafe(|| f(&mut backend, &tasks[i])))
                        };
                        match outcome {
                            Ok(r) => {
                                *lock_recovering(&slots[i]) = Some(r);
                                health.completed.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(payload) => {
                                health.panics.fetch_add(1, Ordering::Relaxed);
                                // The unwind may have left the simulator
                                // mid-step; rebuild from the factory with
                                // the same seed so later tasks on this
                                // worker see pristine state.
                                backend = factory.build(seed);
                                health.rebuilds.fetch_add(1, Ordering::Relaxed);
                                let made = attempts[i].fetch_add(1, Ordering::Relaxed) + 1;
                                if made < MAX_TASK_ATTEMPTS {
                                    health.retries.fetch_add(1, Ordering::Relaxed);
                                    lock_recovering(retry_queue).push(i);
                                } else {
                                    let mut g = lock_recovering(fatal);
                                    if g.is_none() {
                                        *g = Some((i, made, payload));
                                    }
                                    break;
                                }
                            }
                        }
                    }
                });
            }
        });

        if let Some((i, made, payload)) = fatal
            .into_inner()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
        {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            panic!("pool task {i} panicked on all {made} attempts; giving up (last panic: {msg})");
        }
        slots
            .into_iter()
            .map(|slot| {
                // Recover the value from a poisoned slot: the write is
                // all-or-nothing, so a poisoned mutex still holds a
                // coherent result (satellite of the supervision work —
                // the collector must not cascade a worker's panic).
                slot.into_inner()
                    .unwrap_or_else(|poisoned| poisoned.into_inner())
                    .expect("every task index was claimed exactly once")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirage_trace::HOUR;

    fn job(id: u64, submit: i64, nodes: u32, runtime: i64, limit: i64) -> JobRecord {
        JobRecord::new(id, format!("j{id}"), 1, submit, nodes, limit, runtime)
    }

    fn small_trace() -> Vec<JobRecord> {
        (0..12)
            .map(|i| job(i + 1, i as i64 * 900, 1 + (i % 3) as u32, HOUR, 2 * HOUR))
            .collect()
    }

    fn drive<B: ClusterBackend>(backend: &mut B) -> usize {
        backend.reset_with(&small_trace());
        backend.run_to_completion();
        backend.completed().len()
    }

    #[test]
    fn both_backends_complete_the_same_trace_through_the_trait() {
        let mut fast = Simulator::new(SimConfig::new(4));
        let mut reference = ReferenceSimulator::new(ReferenceConfig::new(4));
        assert_eq!(drive(&mut fast), 12);
        assert_eq!(drive(&mut reference), 12);
    }

    #[test]
    fn builder_selects_backends_by_value() {
        let event = SimConfig::builder().nodes(8).build();
        assert!(matches!(event, AnyBackend::Event(_)));
        let tick = SimConfig::builder()
            .nodes(8)
            .backend(BackendKind::Tick)
            .build();
        assert!(matches!(tick, AnyBackend::Tick(_)));
        let mut any = SimConfig::builder()
            .nodes(4)
            .backend(BackendKind::Tick)
            .tick(60)
            .sched_interval(60)
            .from_trace(&small_trace());
        assert_eq!(any.total_nodes(), 4);
        any.run_to_completion();
        assert_eq!(any.completed().len(), 12);
    }

    #[test]
    fn builder_carries_scheduling_options() {
        let b = SimConfig::builder()
            .nodes(16)
            .backfill(BackfillPolicy::None)
            .sched_depth(7)
            .reject_oversized(false);
        assert_eq!(b.sim_config().nodes, 16);
        assert_eq!(b.sim_config().sched_depth, 7);
        assert!(!b.sim_config().reject_oversized);
        assert_eq!(b.sim_config().backfill, BackfillPolicy::None);
        assert_eq!(b.reference_config().backfill, BackfillPolicy::None);
    }

    #[test]
    fn trait_objects_and_reborrows_compose() {
        // `&mut B` forwards the whole trait, so generic drivers can take
        // either owned backends or reborrows.
        let mut sim = Simulator::new(SimConfig::new(4));
        let reborrow: &mut Simulator = &mut sim;
        assert_eq!(drive(&mut { reborrow }), 12);
    }

    #[test]
    fn pool_map_preserves_task_order_and_matches_sequential() {
        let builder = SimConfig::builder().nodes(4).seed(9);
        let tasks: Vec<i64> = (0..23).map(|i| i * HOUR).collect();
        let run = |backend: &mut AnyBackend, &t: &i64| -> (i64, usize) {
            backend.reset_with(&small_trace());
            backend.run_until(t);
            (
                t,
                backend.sample().running.len() + backend.completed().len(),
            )
        };
        let sequential = BackendPool::with_seed(builder.clone(), 1, 9).map(&tasks, run);
        let pooled = BackendPool::with_seed(builder, 6, 9).map(&tasks, run);
        assert_eq!(sequential, pooled);
        // Results are in task order.
        for (i, (t, _)) in pooled.iter().enumerate() {
            assert_eq!(*t, tasks[i]);
        }
    }

    #[test]
    fn pool_handles_more_workers_than_tasks() {
        let pool = SimConfig::builder()
            .nodes(2)
            .backend(BackendKind::Pooled { workers: 8 })
            .build_pool();
        assert_eq!(pool.workers(), 8);
        let out = pool.map(&[1u32], |backend, &x| {
            backend.reset();
            x + backend.total_nodes()
        });
        assert_eq!(out, vec![3]);
        let empty: Vec<u32> = pool.map(&[], |_, &x: &u32| x);
        assert!(empty.is_empty());
    }

    #[test]
    fn user_usage_ledgers_agree_with_the_default_derivation() {
        // Tag two users' jobs into one cluster; both backends' fast
        // ledgers must match the trait's sample()+completed() derivation
        // mid-run (mixed queued/running/completed state) and at the end.
        let trace: Vec<JobRecord> = (0..10)
            .map(|i| {
                let mut j = job(
                    i + 1,
                    i as i64 * 600,
                    1 + (i % 2) as u32,
                    2 * HOUR,
                    4 * HOUR,
                );
                j.user = if i % 3 == 0 { 7 } else { 8 };
                j
            })
            .collect();
        let default_of = |b: &AnyBackend, user: u32| -> ServiceUsage {
            // Re-derive through the trait default by viewing the backend
            // as a bare ClusterBackend without the override.
            struct Plain<'a>(&'a AnyBackend);
            impl ClusterBackend for Plain<'_> {
                fn now(&self) -> i64 {
                    self.0.now()
                }
                fn total_nodes(&self) -> u32 {
                    self.0.total_nodes()
                }
                fn free_nodes(&self) -> u32 {
                    self.0.free_nodes()
                }
                fn load_trace(&mut self, _jobs: &[JobRecord]) {}
                fn submit(&mut self, _job: JobRecord) -> u64 {
                    0
                }
                fn sample(&self) -> ClusterSnapshot {
                    self.0.sample()
                }
                fn status(&self, id: u64) -> Option<JobStatus> {
                    self.0.status(id)
                }
                fn step(&mut self, _dt: i64) {}
                fn run_until(&mut self, _t_end: i64) {}
                fn run_to_completion(&mut self) {}
                fn is_active(&self) -> bool {
                    self.0.is_active()
                }
                fn completed(&self) -> Vec<JobRecord> {
                    self.0.completed()
                }
                fn metrics(&self) -> SimMetrics {
                    self.0.metrics()
                }
                fn avg_recent_wait(&self, window: i64) -> Option<f64> {
                    self.0.avg_recent_wait(window)
                }
                fn reset(&mut self) {}
            }
            Plain(b).user_usage(user)
        };
        for kind in [BackendKind::EventDriven, BackendKind::Tick] {
            let mut b = SimConfig::builder().nodes(2).backend(kind).build();
            b.reset_with(&trace);
            b.run_until(3 * HOUR);
            for user in [7u32, 8, 99] {
                assert_eq!(b.user_usage(user), default_of(&b, user), "{kind:?} mid-run");
            }
            b.run_to_completion();
            let u7 = b.user_usage(7);
            let u8 = b.user_usage(8);
            assert_eq!(u7.completed + u8.completed, 10, "{kind:?}");
            assert_eq!(u7.queued + u7.running, 0, "{kind:?}");
            assert!(u7.node_seconds > 0.0 && u8.node_seconds > 0.0, "{kind:?}");
            assert!(u7.avg_wait().is_some());
            assert!(b.user_usage(99).is_idle());
            for user in [7u32, 8] {
                assert_eq!(b.user_usage(user), default_of(&b, user), "{kind:?} final");
            }
        }
    }

    #[test]
    fn builder_carries_fault_and_retry_options_to_both_backends() {
        let retry = RetryPolicy {
            max_attempts: 5,
            backoff_base: 30,
            backoff_cap: 600,
        };
        let b = SimConfig::builder()
            .nodes(8)
            .faults(FaultModel::moderate(3))
            .retry(retry);
        assert_eq!(b.sim_config().faults, FaultModel::moderate(3));
        assert_eq!(b.sim_config().retry, retry);
        assert_eq!(b.reference_config().faults, FaultModel::moderate(3));
        assert_eq!(b.reference_config().retry, retry);
        // Default builder injects nothing.
        assert!(SimConfig::builder().sim_config().faults.is_none());
    }

    #[test]
    fn pool_workers_get_split_fault_seeds() {
        let builder = SimConfig::builder()
            .nodes(4)
            .seed(5)
            .faults(FaultModel::severe(42));
        let fault_seed_of = |b: &AnyBackend| match b {
            AnyBackend::Event(sim) => sim.config().faults.seed,
            AnyBackend::Tick(sim) => sim.config().faults.seed,
        };
        let w0 = BackendFactory::build(&builder, 5);
        let w1 = BackendFactory::build(&builder, 5 ^ 1);
        assert_ne!(
            fault_seed_of(&w0),
            fault_seed_of(&w1),
            "workers explore independent fault streams"
        );
        // Same worker seed → same derived stream (replayable).
        let w0_again = BackendFactory::build(&builder, 5);
        assert_eq!(fault_seed_of(&w0), fault_seed_of(&w0_again));
        // Without faults, the factory leaves the config untouched.
        let plain = SimConfig::builder().nodes(4);
        let p = BackendFactory::build(&plain, 99);
        assert!(fault_seed_of(&p) == 0 && plain.sim_config().faults.is_none());
    }

    #[test]
    fn closure_factories_build_custom_backends() {
        let factory = |_seed: u64| Simulator::new(SimConfig::new(3));
        let pool = BackendPool::new(factory, 2);
        let totals = pool.map(&[0u8, 1, 2], |b, _| b.total_nodes());
        assert_eq!(totals, vec![3, 3, 3]);
    }

    #[test]
    fn seeded_panics_are_recovered_and_results_match_panic_free() {
        // Fault-free builder: worker backends differ only by seed, and a
        // rebuilt worker replays the exact same stream — so a run with
        // injected panics must produce bit-identical results to a clean
        // run, with the incidents visible only in the health counters.
        let builder = SimConfig::builder().nodes(4).seed(9);
        let tasks: Vec<i64> = (0..17).map(|i| i * HOUR).collect();
        let run = |backend: &mut AnyBackend, &t: &i64| -> (i64, usize) {
            backend.reset_with(&small_trace());
            backend.run_until(t);
            (
                t,
                backend.sample().running.len() + backend.completed().len(),
            )
        };
        let clean = BackendPool::with_seed(builder.clone(), 4, 9).map(&tasks, run);

        let plan = PanicPlan::seeded(77, tasks.len(), 5);
        let injected = plan.indices().len() as u64;
        assert_eq!(injected, 5, "seeded plan draws the requested count");
        let mut pool = BackendPool::with_seed(builder, 4, 9);
        pool.inject_panics(plan);
        let supervised = pool.map(&tasks, run);

        assert_eq!(clean, supervised, "recovery does not perturb results");
        let health = pool.health();
        assert_eq!(health.panics, injected);
        assert_eq!(health.retries, injected, "first-attempt panics all retry");
        assert_eq!(health.rebuilds, injected);
        assert_eq!(health.completed, tasks.len() as u64);
    }

    #[test]
    fn seeded_panic_plans_are_deterministic_and_distinct() {
        let a = PanicPlan::seeded(3, 10, 4);
        let b = PanicPlan::seeded(3, 10, 4);
        assert_eq!(a.indices(), b.indices());
        assert_eq!(a.indices().len(), 4);
        for (n, &i) in a.indices().iter().enumerate() {
            assert!(i < 10);
            assert!(!a.indices()[..n].contains(&i), "indices are distinct");
        }
        // Requesting more panics than tasks saturates instead of spinning.
        assert_eq!(PanicPlan::seeded(3, 2, 9).indices().len(), 2);
        assert!(PanicPlan::seeded(3, 0, 9).indices().is_empty());
    }

    #[test]
    #[should_panic(expected = "panicked on all 3 attempts")]
    fn exhausted_retries_propagate_with_context() {
        // A task that fails deterministically (every attempt, any worker)
        // must surface as a panic naming the task, not hang or silently
        // drop the result.
        let factory = |_seed: u64| Simulator::new(SimConfig::new(2));
        let pool = BackendPool::new(factory, 3);
        pool.map(&[0usize, 1, 2, 3], |_, &i| {
            if i == 2 {
                panic!("task {i} is cursed");
            }
            i
        });
    }

    #[test]
    fn try_build_rejects_unsound_configs_with_typed_errors() {
        // Valid configs build on every backend kind.
        for kind in [
            BackendKind::EventDriven,
            BackendKind::Tick,
            BackendKind::Pooled { workers: 2 },
        ] {
            assert!(SimConfig::builder()
                .nodes(2)
                .backend(kind)
                .try_build()
                .is_ok());
        }
        // NaN failure probability is a typed error, not a NaN fault tape.
        let nan_faults = FaultModel {
            job_fail_prob: f64::NAN,
            ..FaultModel::moderate(1)
        };
        let err = SimConfig::builder()
            .nodes(2)
            .faults(nan_faults)
            .try_build()
            .unwrap_err();
        assert_eq!(err.field, "faults.job_fail_prob");
        // Weights that would make every priority NaN or infinite — the
        // scheduling pass sorts on a key it requires to be finite — are
        // typed errors on both backends.
        for (weights, field) in [
            (
                PriorityWeights {
                    age_max: 0,
                    ..PriorityWeights::default()
                },
                "weights.age_max",
            ),
            (
                PriorityWeights {
                    age: f64::NAN,
                    ..PriorityWeights::default()
                },
                "weights.age",
            ),
            (
                PriorityWeights {
                    size: f64::INFINITY,
                    ..PriorityWeights::default()
                },
                "weights.size",
            ),
            (
                PriorityWeights {
                    fairshare: -1.0,
                    ..PriorityWeights::default()
                },
                "weights.fairshare",
            ),
        ] {
            for kind in [BackendKind::EventDriven, BackendKind::Tick] {
                let err = SimConfig::builder()
                    .nodes(2)
                    .weights(weights)
                    .backend(kind)
                    .try_build()
                    .unwrap_err();
                assert_eq!(err.field, field);
            }
        }
        // The tick backend additionally validates its cadences.
        let err = SimConfig::builder()
            .nodes(2)
            .backend(BackendKind::Tick)
            .tick(0)
            .try_build()
            .unwrap_err();
        assert_eq!(err.field, "tick");
        // Hetero misconfigurations are typed errors on both backends: an
        // enabled model with no pools, a non-positive throughput, and pool
        // totals disagreeing with the partition size.
        let empty_pools = HeteroModel::with_pools(Vec::new(), 0.5, 1);
        let err = SimConfig::builder()
            .nodes(2)
            .hetero(empty_pools.clone())
            .try_build()
            .unwrap_err();
        assert_eq!(err.field, "hetero.pools");
        let err = SimConfig::builder()
            .nodes(2)
            .backend(BackendKind::Tick)
            .hetero(empty_pools)
            .try_build()
            .unwrap_err();
        assert_eq!(err.field, "hetero.pools");
        let bad_thr =
            HeteroModel::with_pools(vec![crate::hetero::NodePool::new("p", 2, 0.0)], 0.5, 1);
        let err = SimConfig::builder()
            .nodes(2)
            .hetero(bad_thr)
            .try_build()
            .unwrap_err();
        assert_eq!(err.field, "hetero.pools.throughput");
        let wrong_sum =
            HeteroModel::with_pools(vec![crate::hetero::NodePool::new("p", 3, 1.0)], 0.5, 1);
        let err = SimConfig::builder()
            .nodes(2)
            .hetero(wrong_sum)
            .try_build()
            .unwrap_err();
        assert_eq!(err.field, "hetero.pools");
        // A sound hetero model builds fine on both backends.
        for kind in [BackendKind::EventDriven, BackendKind::Tick] {
            assert!(SimConfig::builder()
                .nodes(8)
                .backend(kind)
                .hetero(HeteroModel::balanced(8, 3))
                .try_build()
                .is_ok());
        }
        // An empty partition fails on either backend.
        assert!(SimConfig::builder().nodes(0).try_build().is_err());
        assert_eq!(
            SimConfig::new(0).validate().unwrap_err().field,
            "nodes",
            "SimConfig::validate is usable standalone"
        );
    }

    #[test]
    #[should_panic(expected = "invalid simulator config: faults.mtbf")]
    fn build_panics_with_the_typed_message() {
        let bad = FaultModel {
            mtbf: -1,
            ..FaultModel::moderate(1)
        };
        let _ = SimConfig::builder().nodes(2).faults(bad).build();
    }

    #[test]
    fn poisoned_mutexes_yield_their_value() {
        // Satellite: the collector recovers the inner value from a
        // poisoned slot instead of cascading the worker's panic.
        let slot: std::sync::Arc<Mutex<Option<u32>>> = std::sync::Arc::new(Mutex::new(Some(41)));
        let poisoner = std::sync::Arc::clone(&slot);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.lock().expect("first lock");
            panic!("poison the slot");
        })
        .join();
        assert!(slot.is_poisoned());
        assert_eq!(*lock_recovering(&slot), Some(41));
    }
}
