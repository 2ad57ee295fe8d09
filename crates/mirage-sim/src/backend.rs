//! The [`ClusterBackend`] abstraction: one cluster, the clock that moves
//! it, and the reads every implementation shares.
//!
//! The Mirage agent's contract with the cluster is tiny — inject a job
//! ([`ClusterBackend::submit`]), observe the queue
//! ([`ClusterBackend::sample_into`]), advance time
//! ([`ClusterBackend::step`]) — and nothing in the provisioning stack
//! should care *which* clock moves the cluster. Every backend is a clock
//! over one [`Simulator`]: it names that cluster
//! ([`ClusterBackend::cluster`]) and says how time moves on it, and every
//! read is provided once, as a read of the cluster.
//!
//! * [`ClusterBackend`] — the trait, implemented by the event-driven
//!   [`Simulator`], the tick-driven [`ReferenceSimulator`] (a tick clock
//!   over a `Simulator` of its own), the enum-dispatched [`AnyBackend`]
//!   and `&mut` any of them,
//! * [`SimBuilder`] (via [`SimConfig::builder`]) — value-level backend
//!   selection: `SimConfig::builder().nodes(64).seed(7)
//!   .backend(BackendKind::Tick).build()`,
//! * [`BackendFactory`] and [`BackendPool`] — seeded construction of
//!   fresh backends: lane slot `i` of a pool is built from
//!   `base_seed ^ i`, so a lockstep window gets the same backends
//!   whichever worker builds which of its lanes.

use mirage_trace::{split_seed, JobRecord};

use crate::fault::{FaultModel, FaultStats, JobFaults, RetryPolicy, SimConfigError};
use crate::hetero::{HeteroModel, HeteroStats};
use crate::metrics::{ServiceUsage, SimMetrics};
use crate::reference::{ReferenceConfig, ReferenceSimulator};
use crate::simulator::{JobStatus, SimConfig, Simulator};
use crate::snapshot::ClusterSnapshot;
use crate::{BackfillPolicy, PriorityWeights};

/// A simulated cluster that the provisioning stack can drive: a clock
/// over one [`Simulator`].
///
/// An implementation defines the seven required methods — which cluster
/// it reads ([`cluster`](Self::cluster)), how jobs enter it and how time
/// moves on it — and nothing else: every read is provided as a read of
/// [`cluster`](Self::cluster), so no backend can answer one differently
/// (the provided methods are not meant to be overridden; an `&mut`
/// reborrow does not forward overrides). Reads nothing upstream needs —
/// `available_nodes`, `recent_evictions`, `pool_free`, `pool_total`,
/// `contended_running` — are [`Simulator`]'s own:
/// `backend.cluster().pool_free()`.
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
    /// The cluster this backend is a clock over; every provided read is
    /// a read of it.
    fn cluster(&self) -> &Simulator;

    /// Loads a trace of future arrivals (ids preserved when unique).
    fn load_trace(&mut self, jobs: &[JobRecord]);

    /// Submits a job *now*; returns its tracking id.
    fn submit(&mut self, job: JobRecord) -> u64;

    /// Advances simulated time to `t_end`.
    fn run_until(&mut self, t_end: i64);

    /// Runs until no work remains.
    fn run_to_completion(&mut self);

    /// Whether work remains — what [`run_to_completion`](Self::run_to_completion)
    /// runs down, so each clock answers it.
    fn is_active(&self) -> bool;

    /// Returns to an idle cluster at time 0, keeping the configuration.
    fn reset(&mut self);

    /// Current simulated time, seconds.
    fn now(&self) -> i64 {
        self.cluster().now()
    }

    /// Partition size.
    fn total_nodes(&self) -> u32 {
        self.cluster().total_nodes()
    }

    /// Idle node count.
    fn free_nodes(&self) -> u32 {
        self.cluster().free_nodes()
    }

    /// Aggregate fault counters of the run so far (all zero without fault
    /// injection).
    fn fault_stats(&self) -> FaultStats {
        self.cluster().fault_stats()
    }

    /// Aggregate placement/contention counters of the run so far (all
    /// zero without heterogeneity).
    fn hetero_stats(&self) -> HeteroStats {
        self.cluster().hetero_stats()
    }

    /// Per-job fault ledger by id (zero for unknown ids and untouched
    /// jobs).
    fn job_faults(&self, id: u64) -> JobFaults {
        self.cluster().job_faults(id)
    }

    /// Observable cluster state at the current instant, freshly
    /// allocated; the decision loop uses [`sample_into`](Self::sample_into).
    fn sample(&self) -> ClusterSnapshot {
        self.cluster().sample()
    }

    /// Observable cluster state written into a caller-provided snapshot,
    /// reusing its `queued`/`running` vectors so the steady-state decision
    /// loop samples without allocating; equal to a fresh
    /// [`sample`](Self::sample).
    fn sample_into(&self, out: &mut ClusterSnapshot) {
        self.cluster().sample_into(out);
    }

    /// Lifecycle status of a job by id.
    fn status(&self, id: u64) -> Option<JobStatus> {
        self.cluster().job_status(id)
    }

    /// Completed job records, in completion order.
    fn completed(&self) -> Vec<JobRecord> {
        self.cluster().completed()
    }

    /// Aggregate metrics of the run so far.
    fn metrics(&self) -> SimMetrics {
        self.cluster().metrics()
    }

    /// Mean queue wait of jobs started within the trailing `window`
    /// seconds (`None` if nothing started).
    fn avg_recent_wait(&self, window: i64) -> Option<f64> {
        self.cluster().avg_recent_wait(window)
    }

    /// Per-user accounting: `user`'s queued/running footprint and
    /// completed consumption on this cluster. Multi-service provisioning
    /// tags each service's jobs with a distinct user id and reads its
    /// share of the shared queue through this ledger.
    fn user_usage(&self, user: u32) -> ServiceUsage {
        self.cluster().user_usage(user)
    }

    /// Advances simulated time by `dt` seconds (non-positive `dt` is a
    /// no-op rather than an event-order hazard).
    fn step(&mut self, dt: i64) {
        if dt > 0 {
            self.run_until(self.now() + dt);
        }
    }

    /// Resets and immediately loads `trace` — the "fresh episode from a
    /// trace" constructor path.
    fn reset_with(&mut self, trace: &[JobRecord]) {
        self.reset();
        self.load_trace(trace);
    }
}

impl<T: ClusterBackend + ?Sized> ClusterBackend for &mut T {
    #[inline]
    fn cluster(&self) -> &Simulator {
        (**self).cluster()
    }
    fn load_trace(&mut self, jobs: &[JobRecord]) {
        (**self).load_trace(jobs);
    }
    fn submit(&mut self, job: JobRecord) -> u64 {
        (**self).submit(job)
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
    fn reset(&mut self) {
        (**self).reset();
    }
}

impl ClusterBackend for Simulator {
    #[inline]
    fn cluster(&self) -> &Simulator {
        self
    }
    fn load_trace(&mut self, jobs: &[JobRecord]) {
        Simulator::load_trace(self, jobs);
    }
    fn submit(&mut self, job: JobRecord) -> u64 {
        Simulator::submit(self, job)
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
    fn reset(&mut self) {
        Simulator::reset(self);
    }
}

impl ClusterBackend for ReferenceSimulator {
    #[inline]
    fn cluster(&self) -> &Simulator {
        self
    }
    fn load_trace(&mut self, jobs: &[JobRecord]) {
        ReferenceSimulator::load_trace(self, jobs);
    }
    fn submit(&mut self, job: JobRecord) -> u64 {
        ReferenceSimulator::submit(self, job)
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
    /// backends for lockstep collection; [`SimBuilder::build`] yields one
    /// event-driven backend, [`SimBuilder::build_pool`] yields the pool.
    Pooled {
        /// Worker count: a width hint that online training sizes its
        /// lockstep windows from when no lane count is pinned.
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

impl Clone for AnyBackend {
    fn clone(&self) -> Self {
        match self {
            AnyBackend::Event(sim) => AnyBackend::Event(sim.clone()),
            AnyBackend::Tick(tick) => AnyBackend::Tick(tick.clone()),
        }
    }

    /// In place when both are the same clock, so the clock's restore
    /// keeps its buffers.
    fn clone_from(&mut self, source: &Self) {
        match (self, source) {
            (AnyBackend::Event(sim), AnyBackend::Event(src)) => sim.clone_from(src),
            (AnyBackend::Tick(tick), AnyBackend::Tick(src)) => tick.clone_from(src),
            (this, _) => *this = source.clone(),
        }
    }
}

impl ClusterBackend for AnyBackend {
    #[inline]
    fn cluster(&self) -> &Simulator {
        match self {
            AnyBackend::Event(sim) => sim,
            AnyBackend::Tick(tick) => tick,
        }
    }
    fn load_trace(&mut self, jobs: &[JobRecord]) {
        match self {
            AnyBackend::Event(sim) => sim.load_trace(jobs),
            AnyBackend::Tick(tick) => tick.load_trace(jobs),
        }
    }
    fn submit(&mut self, job: JobRecord) -> u64 {
        match self {
            AnyBackend::Event(sim) => sim.submit(job),
            AnyBackend::Tick(tick) => tick.submit(job),
        }
    }
    fn run_until(&mut self, t_end: i64) {
        match self {
            AnyBackend::Event(sim) => sim.run_until(t_end),
            AnyBackend::Tick(tick) => tick.run_until(t_end),
        }
    }
    fn run_to_completion(&mut self) {
        match self {
            AnyBackend::Event(sim) => sim.run_to_completion(),
            AnyBackend::Tick(tick) => tick.run_to_completion(),
        }
    }
    fn is_active(&self) -> bool {
        match self {
            AnyBackend::Event(sim) => sim.is_active(),
            AnyBackend::Tick(tick) => tick.is_active(),
        }
    }
    fn reset(&mut self) {
        match self {
            AnyBackend::Event(sim) => sim.reset(),
            AnyBackend::Tick(tick) => tick.reset(),
        }
    }
}

/// Seeded construction of fresh backends, used by [`BackendPool`] to give
/// every lane its own independent instance.
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

    /// Base seed for [`build_pool`](Self::build_pool) lanes. Replay is
    /// deterministic for any fixed seed; with fault injection enabled
    /// ([`SimBuilder::faults`]) each pool lane derives its own fault
    /// stream from this seed, so lanes see independent (but replayable)
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
    /// per pool lane: placement draws are keyed per job id, and the
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

    /// Whether oversized jobs are rejected on arrival. Event clock only:
    /// the tick clock always rejects them (`reference.rs` forces `true`).
    pub fn reject_oversized(mut self, reject: bool) -> Self {
        self.reject_oversized = reject;
        self
    }

    /// Scheduling-pass depth (`bf_max_job_test`). Event clock only: the
    /// tick clock's passes consider the whole queue (`reference.rs`
    /// forces `usize::MAX`).
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
    /// pool). Panics with the [`SimConfigError`] message on an invalid
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

    /// A pool of independently seeded backends; the worker count comes
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
        // enabled, each pool lane derives its own crash/failure stream
        // from the builder's fault seed and the lane's seed, so lanes
        // explore independent fault schedules while any single lane stays
        // exactly replayable.
        if self.faults.is_none() {
            return SimBuilder::build(self);
        }
        let mut with_lane_faults = self.clone();
        with_lane_faults.faults.seed = split_seed(self.faults.seed, seed);
        SimBuilder::build(&with_lane_faults)
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

/// A seeded backend factory with a worker count: what collection and
/// training build their lanes from.
///
/// Lane slot `i` is built from `factory.build(base_seed ^ i)`, whichever
/// range ([`build_range`](Self::build_range)) builds it. The worker count
/// is a width hint — online training sizes its lockstep windows from it
/// when no lane count is pinned — and does not bound the slots.
pub struct BackendPool<F: BackendFactory> {
    factory: F,
    workers: usize,
    base_seed: u64,
}

impl<F: BackendFactory> BackendPool<F> {
    /// Pool of `workers` (at least 1) whose lanes derive from `base_seed`.
    pub fn with_seed(factory: F, workers: usize, base_seed: u64) -> Self {
        Self {
            factory,
            workers: workers.max(1),
            base_seed,
        }
    }

    /// Worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Builds slot 0's backend (seeded `base_seed`).
    pub fn build_one(&self) -> F::Backend {
        self.factory.build(self.base_seed)
    }

    /// Builds the backends of lane slots `first .. first + n`, slot `i`
    /// seeded `base_seed ^ i`.
    pub fn build_range(&self, first: usize, n: usize) -> Vec<F::Backend> {
        (first..first + n)
            .map(|slot| self.factory.build(self.base_seed ^ (slot as u64)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirage_trace::{DAY, HOUR};

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
            .build();
        any.load_trace(&small_trace());
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
    fn pool_handles_more_workers_than_tasks() {
        // The worker count is only a width hint: fewer lanes than
        // workers, none, or slots past the last worker all build, and
        // slot `i` is seeded `base_seed ^ i` whichever range builds it.
        let builder = SimConfig::builder()
            .nodes(2)
            .seed(5)
            .faults(FaultModel::severe(42))
            .backend(BackendKind::Pooled { workers: 8 });
        let pool = builder.build_pool();
        assert_eq!(pool.workers(), 8);
        let one = pool.build_range(0, 1);
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].total_nodes(), 2);
        assert!(pool.build_range(3, 0).is_empty());
        let fault_seed = |b: &AnyBackend| b.cluster().config().faults.seed;
        let wide = pool.build_range(6, 4);
        assert_eq!(wide.len(), 4);
        for (slot, backend) in (6u64..).zip(&wide) {
            let expected = BackendFactory::build(&builder, 5 ^ slot);
            assert_eq!(fault_seed(backend), fault_seed(&expected), "slot {slot}");
        }
        assert_eq!(fault_seed(&pool.build_range(0, 8)[7]), fault_seed(&wide[1]));
        assert_eq!(fault_seed(&pool.build_one()), fault_seed(&one[0]));
    }

    /// `user`'s ledger derived from an allocating `sample()` and
    /// `completed()` — what the trait's `user_usage` used to default to.
    fn derived_usage(cluster: &Simulator, user: u32) -> ServiceUsage {
        let mut usage = ServiceUsage::empty(user);
        let snap = cluster.sample();
        for q in snap.queued.iter().filter(|q| q.user == user) {
            usage.queued += 1;
            usage.queued_nodes += u64::from(q.nodes);
        }
        for r in snap.running.iter().filter(|r| r.user == user) {
            usage.running += 1;
            usage.running_nodes += u64::from(r.nodes);
        }
        for j in cluster.completed().iter().filter(|j| j.user == user) {
            let (start, end) = (j.start.unwrap(), j.end.unwrap());
            usage.completed += 1;
            usage.node_seconds += f64::from(j.nodes) * (end - start) as f64;
            usage.wait_sum += start - j.submit;
        }
        usage
    }

    /// Every provided read, at one instant.
    #[derive(Debug, PartialEq)]
    struct Reads {
        now: i64,
        nodes: (u32, u32),
        stats: (FaultStats, HeteroStats),
        snapshot: (ClusterSnapshot, ClusterSnapshot),
        jobs: Vec<(Option<JobStatus>, JobFaults)>,
        completed: Vec<JobRecord>,
        metrics: SimMetrics,
        recent_wait: [Option<f64>; 2],
        usage: [ServiceUsage; 3],
    }

    const IDS: std::ops::RangeInclusive<u64> = 0..=12;
    const USERS: [u32; 3] = [7, 8, 99];

    /// The reads through `backend`'s trait surface.
    fn trait_reads<B: ClusterBackend>(backend: &B) -> Reads {
        let mut reused = ClusterSnapshot::default();
        backend.sample_into(&mut reused);
        Reads {
            now: backend.now(),
            nodes: (backend.total_nodes(), backend.free_nodes()),
            stats: (backend.fault_stats(), backend.hetero_stats()),
            snapshot: (backend.sample(), reused),
            jobs: IDS
                .map(|id| (backend.status(id), backend.job_faults(id)))
                .collect(),
            completed: backend.completed(),
            metrics: backend.metrics(),
            recent_wait: [HOUR, DAY].map(|w| backend.avg_recent_wait(w)),
            usage: USERS.map(|u| backend.user_usage(u)),
        }
    }

    /// The same reads, from the cluster's inherent methods.
    fn inherent_reads(cluster: &Simulator) -> Reads {
        let mut reused = ClusterSnapshot::default();
        Simulator::sample_into(cluster, &mut reused);
        Reads {
            now: Simulator::now(cluster),
            nodes: (
                Simulator::total_nodes(cluster),
                Simulator::free_nodes(cluster),
            ),
            stats: (
                Simulator::fault_stats(cluster),
                Simulator::hetero_stats(cluster),
            ),
            snapshot: (Simulator::sample(cluster), reused),
            jobs: IDS
                .map(|id| (cluster.job_status(id), Simulator::job_faults(cluster, id)))
                .collect(),
            completed: Simulator::completed(cluster),
            metrics: Simulator::metrics(cluster),
            recent_wait: [HOUR, DAY].map(|w| Simulator::avg_recent_wait(cluster, w)),
            usage: USERS.map(|u| Simulator::user_usage(cluster, u)),
        }
    }

    /// Drives `owned` (half the time through an `&mut` reborrow) and
    /// `any` in step, checking at every hour and at the end that each
    /// provided read through `owned`, a reborrow of it and `any` equals
    /// the inherent read of the cluster `inner` reaches without
    /// `cluster()`, and that the user ledgers equal [`derived_usage`].
    /// Returns the final reads.
    fn check_views<B: ClusterBackend>(
        mut owned: B,
        inner: fn(&B) -> &Simulator,
        mut any: AnyBackend,
        trace: &[JobRecord],
    ) -> Reads {
        owned.reset_with(trace);
        any.reset_with(trace);
        for hour in 1.. {
            let expected = inherent_reads(inner(&owned));
            assert_eq!(trait_reads(&owned), expected, "owned at hour {hour}");
            assert_eq!(
                trait_reads(&&mut owned),
                expected,
                "reborrow at hour {hour}"
            );
            assert_eq!(trait_reads(&any), expected, "AnyBackend at hour {hour}");
            for (usage, user) in expected.usage.iter().zip(USERS) {
                let derived = derived_usage(inner(&owned), user);
                assert_eq!(*usage, derived, "user {user} at hour {hour}");
            }
            if !owned.is_active() {
                assert!(!any.is_active());
                return expected;
            }
            if hour > 48 {
                owned.run_to_completion();
                any.run_to_completion();
            } else if hour % 2 == 0 {
                // Method syntax would pick `B`'s own impl; name the reborrow's.
                ClusterBackend::step(&mut &mut owned, HOUR);
                any.step(HOUR);
            } else {
                owned.run_until(hour * HOUR);
                any.run_until(hour * HOUR);
            }
        }
        unreachable!()
    }

    #[test]
    fn user_usage_ledgers_agree_with_the_default_derivation() {
        // Two users' jobs on a severe-fault, scarce-pool cluster, on both
        // clocks: every provided read through every view equals the
        // cluster's inherent read, and the user ledgers equal the
        // sample()+completed() derivation, at every hour (mixed queued /
        // running / evicted / completed state) and at the end.
        const NODES: u32 = 4;
        let trace: Vec<JobRecord> = (0..10)
            .map(|i| {
                let mut j = job(
                    i + 1,
                    i as i64 * 600,
                    1 + (i % 2) as u32,
                    2 * HOUR,
                    4 * HOUR,
                );
                j.user = USERS[usize::from(i % 3 != 0)];
                j
            })
            .collect();
        for kind in [BackendKind::EventDriven, BackendKind::Tick] {
            let builder = SimConfig::builder()
                .nodes(NODES)
                .faults(FaultModel::severe(3))
                .hetero(HeteroModel::scarce(NODES, 5))
                .backend(kind);
            let end = match builder.build() {
                AnyBackend::Event(sim) => check_views(sim, |s| s, builder.build(), &trace),
                AnyBackend::Tick(tick) => check_views(tick, |t| t, builder.build(), &trace),
            };
            let [u7, u8, u99] = end.usage;
            assert_eq!(
                u7.completed + u8.completed + end.metrics.failed_jobs,
                10,
                "{kind:?}"
            );
            assert!(end.stats.0.evictions > 0, "{kind:?}: severe faults evict");
            assert_eq!(u7.queued + u7.running + u8.queued + u8.running, 0);
            assert!(u7.node_seconds > 0.0 && u8.node_seconds > 0.0, "{kind:?}");
            assert!(u7.avg_wait().is_some(), "{kind:?}");
            assert!(u99.is_idle(), "{kind:?}");
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
        let factory = |seed: u64| Simulator::new(SimConfig::new(3 + seed as u32));
        let pool = BackendPool::with_seed(factory, 2, 0);
        let totals: Vec<u32> = pool
            .build_range(0, 3)
            .iter()
            .map(|b| b.total_nodes())
            .collect();
        assert_eq!(totals, vec![3, 4, 5]);
        assert_eq!(pool.build_one().total_nodes(), 3);
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
}
