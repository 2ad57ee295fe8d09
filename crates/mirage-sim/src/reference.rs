//! Tick-driven reference simulator.
//!
//! Stands in for the "standard Slurm simulator" ([3, 44] in the paper) that
//! the fast simulator is validated against in §5.2. It models the cadence
//! of a production `slurmctld`:
//!
//! * the **main scheduling pass** (strict priority order, no backfill) runs
//!   every `sched_interval` seconds,
//! * the **backfill pass** runs every `backfill_interval` seconds,
//! * job starts therefore happen only on scheduler ticks, even though
//!   completions free nodes at their exact instants.
//!
//! Walking every tick makes it deliberately slower than the event-driven
//! [`crate::Simulator`] — the overhead gap is part of the §5.2 claim
//! (3–26× in the paper).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use mirage_trace::faults::NodeFaultEvent;
use mirage_trace::{JobRecord, DAY};
use serde::{Deserialize, Serialize};

use crate::admission::{prepare_admission, RecentStarts};
use crate::backfill::{plan_schedule, BackfillPolicy, PendingView};
use crate::fault::{EvictionLog, FaultModel, FaultStats, JobFaults, RetryPolicy};
use crate::hetero::{scale_runtime, HeteroModel, HeteroStats};
use crate::metrics::{ServiceUsage, SimMetrics};
use crate::priority::{priority, FairshareTracker, PriorityWeights};
use crate::simulator::JobStatus;
use crate::snapshot::{ClusterSnapshot, QueuedJobView, RunningJobView};

/// Reference simulator cadence configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReferenceConfig {
    /// Nodes in the partition.
    pub nodes: u32,
    /// Multifactor priority weights (shared with the fast simulator).
    pub weights: PriorityWeights,
    /// Main scheduling pass cadence, seconds (Slurm `sched_interval`).
    pub sched_interval: i64,
    /// Backfill pass cadence, seconds (Slurm `bf_interval`).
    pub backfill_interval: i64,
    /// Backfill flavor used by the backfill pass.
    pub backfill: BackfillPolicy,
    /// Simulation tick, seconds. Starts happen only on ticks.
    pub tick: i64,
    /// Fault injection (same model — and for the same seed, the same
    /// crash tape — as the fast simulator's `SimConfig::faults`).
    #[serde(default)]
    pub faults: FaultModel,
    /// How evicted / failed jobs re-enter the queue.
    #[serde(default)]
    pub retry: RetryPolicy,
    /// Heterogeneous node pools and placement-sensitive contention (same
    /// model — and for the same seed, the same slowdown draws — as the
    /// fast simulator's `SimConfig::hetero`).
    #[serde(default)]
    pub hetero: HeteroModel,
}

impl ReferenceConfig {
    /// Production-like defaults: 30 s ticks, 60 s main pass, 120 s backfill.
    pub fn new(nodes: u32) -> Self {
        Self {
            nodes,
            weights: PriorityWeights::default(),
            sched_interval: 60,
            backfill_interval: 120,
            backfill: BackfillPolicy::default(),
            tick: 30,
            faults: FaultModel::none(),
            retry: RetryPolicy::default(),
            hetero: HeteroModel::none(),
        }
    }

    /// Rejects configurations that cannot run a sound tick-driven
    /// simulation: an empty partition, non-positive cadences, or
    /// weight/fault/retry fields their own `validate()`s reject.
    pub fn validate(&self) -> Result<(), crate::fault::SimConfigError> {
        use crate::fault::SimConfigError;
        if self.nodes == 0 {
            return Err(SimConfigError {
                field: "nodes",
                value: "0".to_string(),
                reason: "partition needs at least one node",
            });
        }
        for (field, v) in [
            ("tick", self.tick),
            ("sched_interval", self.sched_interval),
            ("backfill_interval", self.backfill_interval),
        ] {
            if v <= 0 {
                return Err(SimConfigError {
                    field,
                    value: v.to_string(),
                    reason: "cadence must be positive",
                });
            }
        }
        self.weights.validate()?;
        self.faults.validate()?;
        self.hetero.validate(self.nodes)?;
        self.retry.validate()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RefStatus {
    Future,
    Pending,
    Running { start: i64 },
    Done,
    Rejected,
    Failed { start: i64, end: i64 },
}

/// Tick-driven Slurm simulator used as the fidelity baseline.
#[derive(Debug)]
pub struct ReferenceSimulator {
    cfg: ReferenceConfig,
    now: i64,
    free_nodes: u32,
    /// Per-pool free-node counts (empty on a homogeneous partition).
    pool_free: Vec<u32>,
    hetero_stats: HeteroStats,
    /// Running jobs whose current placement drew a slowdown.
    contended_running: u32,
    jobs: Vec<JobRecord>,
    status: Vec<RefStatus>,
    /// Per-job index into `running` while the job runs (kept current by
    /// swap-remove fixups, mirroring the fast simulator's stored slot).
    run_slot: Vec<usize>,
    arrivals: BinaryHeap<Reverse<(i64, usize)>>,
    /// `(end, idx, epoch, is_failure)`: the epoch (attempt number at push)
    /// drops stale entries for evicted attempts; `is_failure` marks a
    /// transient mid-run death instead of a clean completion.
    completions: BinaryHeap<Reverse<(i64, usize, u32, bool)>>,
    /// Time-sorted crash/recovery tape plus a cursor into it.
    node_events: Vec<NodeFaultEvent>,
    next_node_event: usize,
    down_nodes: u32,
    fault_stats: FaultStats,
    evictions_log: EvictionLog,
    /// Per-job parallel ledgers (arena-indexed like `status`).
    attempt: Vec<u32>,
    evicted_at: Vec<i64>,
    job_faults_v: Vec<JobFaults>,
    /// Per-job pool allocations while running (empty vectors on a
    /// homogeneous partition).
    pool_alloc: Vec<Vec<u32>>,
    /// Whether the job's current attempt drew a contention slowdown.
    slowed: Vec<bool>,
    pending: Vec<usize>,
    running: Vec<usize>, // arena indices of running jobs (<= nodes entries)
    id_map: HashMap<u64, usize>,
    next_id: u64,
    fairshare: FairshareTracker,
    busy_node_seconds: f64,
    first_submit: Option<i64>,
    rejected: usize,
    last_sched: i64,
    last_backfill: i64,
    recent_starts: RecentStarts,
    /// Arena indices of done jobs, kept `(end, id)`-sorted incrementally.
    completed_order: Vec<usize>,
}

impl ReferenceSimulator {
    /// Creates an idle cluster at time 0. A non-`none` fault model lays
    /// out its full crash/recovery tape up front (identical to the tape
    /// the fast simulator derives from the same model and seed).
    pub fn new(cfg: ReferenceConfig) -> Self {
        let free = cfg.nodes;
        let fairshare =
            FairshareTracker::new(f64::from(cfg.nodes) * cfg.weights.fairshare_halflife as f64);
        let node_events = cfg.faults.node_schedule(cfg.nodes);
        let pool_free = if cfg.hetero.is_none() {
            Vec::new()
        } else {
            cfg.hetero.pool_totals()
        };
        Self {
            cfg,
            now: 0,
            free_nodes: free,
            pool_free,
            hetero_stats: HeteroStats::default(),
            contended_running: 0,
            jobs: Vec::new(),
            status: Vec::new(),
            run_slot: Vec::new(),
            arrivals: BinaryHeap::new(),
            completions: BinaryHeap::new(),
            node_events,
            next_node_event: 0,
            down_nodes: 0,
            fault_stats: FaultStats::default(),
            evictions_log: EvictionLog::default(),
            attempt: Vec::new(),
            evicted_at: Vec::new(),
            job_faults_v: Vec::new(),
            pool_alloc: Vec::new(),
            slowed: Vec::new(),
            pending: Vec::new(),
            running: Vec::new(),
            id_map: HashMap::new(),
            next_id: 1,
            fairshare,
            busy_node_seconds: 0.0,
            first_submit: None,
            rejected: 0,
            // "Long ago" without risking i64 overflow in cadence checks.
            last_sched: i64::MIN / 4,
            last_backfill: i64::MIN / 4,
            recent_starts: RecentStarts::default(),
            completed_order: Vec::new(),
        }
    }

    /// Returns to an idle cluster at time 0 with the same configuration.
    pub fn reset(&mut self) {
        *self = ReferenceSimulator::new(self.cfg.clone());
    }

    /// Loads future arrivals. Ids are preserved when unique, otherwise
    /// reassigned (shared admission logic with the fast simulator).
    pub fn load_trace(&mut self, jobs: &[JobRecord]) {
        for j in jobs {
            self.insert_future(j.clone());
        }
    }

    /// Submits a job *now* (the agent-facing call): the job's submit time
    /// is overridden to the current instant. Returns the id under which
    /// the simulator tracks it.
    pub fn submit(&mut self, mut job: JobRecord) -> u64 {
        job.submit = self.now;
        self.insert_future(job)
    }

    fn insert_future(&mut self, mut job: JobRecord) -> u64 {
        let (id, submit) = prepare_admission(
            &mut job,
            self.now,
            &self.id_map,
            &mut self.next_id,
            &mut self.first_submit,
        );
        let idx = self.jobs.len();
        self.jobs.push(job);
        self.status.push(RefStatus::Future);
        self.run_slot.push(usize::MAX);
        self.attempt.push(0);
        self.evicted_at.push(0);
        self.job_faults_v.push(JobFaults::default());
        self.pool_alloc.push(Vec::new());
        self.slowed.push(false);
        self.id_map.insert(id, idx);
        self.arrivals.push(Reverse((submit, idx)));
        id
    }

    /// Current simulated time.
    pub fn now(&self) -> i64 {
        self.now
    }

    /// Idle node count.
    pub fn free_nodes(&self) -> u32 {
        self.free_nodes
    }

    /// Partition size.
    pub fn total_nodes(&self) -> u32 {
        self.cfg.nodes
    }

    /// Nodes physically available right now (total minus crashed).
    pub fn available_nodes(&self) -> u32 {
        self.cfg.nodes - self.down_nodes
    }

    /// Nodes currently crashed.
    pub fn down_nodes(&self) -> u32 {
        self.down_nodes
    }

    /// Fault evictions within the trailing `window` seconds.
    pub fn recent_evictions(&self, window: i64) -> u32 {
        self.evictions_log.count(self.now, window)
    }

    /// Aggregate fault counters of the run so far.
    pub fn fault_stats(&self) -> FaultStats {
        self.fault_stats
    }

    /// Per-pool free-node counts (empty on a homogeneous partition).
    pub fn pool_free(&self) -> Vec<u32> {
        self.pool_free.clone()
    }

    /// Per-pool node totals (empty on a homogeneous partition).
    pub fn pool_total(&self) -> Vec<u32> {
        if self.cfg.hetero.is_none() {
            Vec::new()
        } else {
            self.cfg.hetero.pool_totals()
        }
    }

    /// Aggregate heterogeneity counters of the run so far.
    pub fn hetero_stats(&self) -> HeteroStats {
        self.hetero_stats
    }

    /// Running jobs whose current placement drew a contention slowdown.
    pub fn contended_running(&self) -> u32 {
        self.contended_running
    }

    /// Per-job fault ledger by id (zero for unknown ids and untouched jobs).
    pub fn job_faults(&self, id: u64) -> JobFaults {
        self.id_map
            .get(&id)
            .map_or_else(JobFaults::default, |&i| self.job_faults_v[i])
    }

    /// Simulator configuration.
    pub fn config(&self) -> &ReferenceConfig {
        &self.cfg
    }

    /// Lifecycle status of a job by id, in the fast simulator's terms.
    pub fn job_status(&self, id: u64) -> Option<JobStatus> {
        let &idx = self.id_map.get(&id)?;
        Some(match self.status[idx] {
            RefStatus::Future => JobStatus::Future,
            RefStatus::Pending => JobStatus::Pending,
            RefStatus::Running { start } => JobStatus::Running { start },
            RefStatus::Done => JobStatus::Completed {
                start: self.jobs[idx].start.expect("done jobs have a start"),
                end: self.jobs[idx].end.expect("done jobs have an end"),
            },
            RefStatus::Rejected => JobStatus::Rejected,
            RefStatus::Failed { start, end } => JobStatus::Failed { start, end },
        })
    }

    /// Observable cluster state at the current instant.
    pub fn sample(&self) -> ClusterSnapshot {
        let mut snap = ClusterSnapshot::default();
        self.sample_into(&mut snap);
        snap
    }

    /// Observable cluster state written into a caller-provided snapshot,
    /// reusing its `queued`/`running` vectors (same contract as
    /// [`crate::Simulator::sample_into`]).
    pub fn sample_into(&self, out: &mut ClusterSnapshot) {
        out.now = self.now;
        out.free_nodes = self.free_nodes;
        out.total_nodes = self.cfg.nodes;
        out.down_nodes = self.down_nodes;
        out.recent_evictions = self.evictions_log.count(self.now, DAY);
        out.pool_free.clear();
        out.pool_total.clear();
        out.contended_running = 0;
        if !self.cfg.hetero.is_none() {
            out.pool_free.extend_from_slice(&self.pool_free);
            out.pool_total
                .extend(self.cfg.hetero.pools.iter().map(|p| p.nodes));
            out.contended_running = self.contended_running;
        }
        out.queued.clear();
        out.queued.extend(self.pending.iter().map(|&i| {
            let r = &self.jobs[i];
            QueuedJobView {
                id: r.id,
                nodes: r.nodes,
                submit: r.submit,
                age: self.now - r.submit,
                timelimit: r.timelimit,
                user: r.user,
            }
        }));
        out.running.clear();
        out.running.extend(self.running.iter().map(|&i| {
            let RefStatus::Running { start } = self.status[i] else {
                unreachable!("running list holds only running jobs");
            };
            let r = &self.jobs[i];
            RunningJobView {
                id: r.id,
                nodes: r.nodes,
                start,
                elapsed: self.now - start,
                timelimit: r.timelimit,
                user: r.user,
            }
        }));
    }

    /// Advances simulated time by `dt` seconds (non-positive `dt` is a
    /// no-op).
    pub fn step(&mut self, dt: i64) {
        if dt <= 0 {
            return;
        }
        let target = self.now + dt;
        self.run_until(target);
    }

    /// Whether any work remains (future, queued or running).
    pub fn is_active(&self) -> bool {
        !self.arrivals.is_empty() || !self.completions.is_empty() || !self.pending.is_empty()
    }

    /// Mean queue wait of jobs that *started* within the trailing `window`
    /// seconds; `None` if nothing started in the window.
    pub fn avg_recent_wait(&self, window: i64) -> Option<f64> {
        self.recent_starts.avg(self.now, window)
    }

    /// Runs tick-by-tick until `t_end`.
    pub fn run_until(&mut self, t_end: i64) {
        while self.now < t_end {
            let next = (self.now + self.cfg.tick).min(t_end);
            self.advance_tick(next);
        }
    }

    /// Runs until all loaded jobs are done or rejected.
    pub fn run_to_completion(&mut self) {
        while !self.arrivals.is_empty() || !self.completions.is_empty() || !self.pending.is_empty()
        {
            let next = self.now + self.cfg.tick;
            self.advance_tick(next);
        }
    }

    fn advance_tick(&mut self, tick_end: i64) {
        // Free nodes at exact completion instants (accurate utilization and
        // JCT), but defer any new starts to the tick boundary.
        while let Some(&Reverse((t, idx, epoch, failed))) = self.completions.peek() {
            if t > tick_end {
                break;
            }
            self.completions.pop();
            // Evictions strand the old attempt's heap entry; the epoch
            // stamp identifies and drops it.
            let RefStatus::Running { start } = self.status[idx] else {
                continue;
            };
            if self.attempt[idx] != epoch {
                continue;
            }
            self.clock_to(t);
            if failed {
                // Transient mid-run death: evict and maybe retry.
                self.fault_stats.job_failures += 1;
                self.evict_running(idx, t);
                continue;
            }
            if self.attempt[idx] > 1 {
                self.fault_stats.retry_successes += 1;
            }
            self.status[idx] = RefStatus::Done;
            self.jobs[idx].start = Some(start);
            self.jobs[idx].end = Some(t);
            self.free_nodes += self.jobs[idx].nodes;
            self.release_pools(idx);
            // O(1) removal via the stored running slot (mirrors the fast
            // simulator).
            self.unlink_running(idx);
            // Keep the completion list `(end, id)`-sorted incrementally.
            let id = self.jobs[idx].id;
            self.completed_order.push(idx);
            let mut i = self.completed_order.len() - 1;
            while i > 0 {
                let prev = self.completed_order[i - 1];
                if self.jobs[prev].end == Some(t) && self.jobs[prev].id > id {
                    self.completed_order.swap(i - 1, i);
                    i -= 1;
                } else {
                    break;
                }
            }
            let consumed = f64::from(self.jobs[idx].nodes) * (t - start) as f64;
            let slot = self.fairshare.slot(self.jobs[idx].user);
            self.fairshare.record(slot, consumed);
        }
        // Crash/recovery tape entries inside this tick. Running them after
        // the tick's completions is a deliberate coarsening (ticks are the
        // reference's resolution anyway): a job completing inside the same
        // tick as a crash escapes eviction.
        while self.next_node_event < self.node_events.len()
            && self.node_events[self.next_node_event].time <= tick_end
        {
            let ev = self.node_events[self.next_node_event];
            self.next_node_event += 1;
            self.clock_to(ev.time);
            if ev.up {
                self.fault_stats.node_recoveries += 1;
                debug_assert!(self.down_nodes > 0, "recovery without a crash");
                self.down_nodes -= 1;
                self.free_nodes += 1;
                if !self.cfg.hetero.is_none() {
                    let p = self.cfg.hetero.pool_of_node(ev.node);
                    self.pool_free[p] += 1;
                }
            } else {
                self.fault_stats.node_crashes += 1;
                self.down_nodes += 1;
                if !self.cfg.hetero.is_none() {
                    // Pool-local crash (same rule as the fast simulator):
                    // the crashed node's pool absorbs it or gives up its
                    // most recently started job.
                    let p = self.cfg.hetero.pool_of_node(ev.node);
                    if self.pool_free[p] == 0 {
                        let victim = self
                            .running
                            .iter()
                            .copied()
                            .filter(|&i| self.pool_alloc[i].get(p).is_some_and(|&c| c > 0))
                            .max_by_key(|&i| match self.status[i] {
                                RefStatus::Running { start } => (start, self.jobs[i].id),
                                _ => unreachable!("running list holds only running jobs"),
                            })
                            .expect("crashed pool fully busy but hosts no job");
                        self.evict_running(victim, ev.time);
                    }
                    self.pool_free[p] -= 1;
                    self.free_nodes -= 1;
                } else if self.free_nodes > 0 {
                    self.free_nodes -= 1;
                } else {
                    // Same LIFO victim rule as the fast simulator: evict
                    // the most recently started running job.
                    let victim = self
                        .running
                        .iter()
                        .copied()
                        .max_by_key(|&i| match self.status[i] {
                            RefStatus::Running { start } => (start, self.jobs[i].id),
                            _ => unreachable!("running list holds only running jobs"),
                        })
                        .expect("no free nodes and nothing running on a crash");
                    self.evict_running(victim, ev.time);
                    self.free_nodes -= 1;
                }
            }
        }
        while let Some(&Reverse((t, idx))) = self.arrivals.peek() {
            if t > tick_end {
                break;
            }
            self.arrivals.pop();
            self.clock_to(t);
            if self.jobs[idx].nodes > self.cfg.nodes {
                self.status[idx] = RefStatus::Rejected;
                self.rejected += 1;
            } else {
                self.status[idx] = RefStatus::Pending;
                self.pending.push(idx);
            }
        }
        self.clock_to(tick_end);

        let run_main = self.now - self.last_sched >= self.cfg.sched_interval;
        let run_bf = self.now - self.last_backfill >= self.cfg.backfill_interval;
        if run_main {
            self.last_sched = self.now;
            self.schedule(BackfillPolicy::None);
        }
        if run_bf {
            self.last_backfill = self.now;
            self.schedule(self.cfg.backfill);
        }
    }

    fn clock_to(&mut self, t: i64) {
        if t <= self.now {
            return;
        }
        let dt = (t - self.now) as f64;
        self.busy_node_seconds +=
            f64::from(self.cfg.nodes - self.free_nodes - self.down_nodes) * dt;
        self.now = t;
    }

    /// Returns a job's pool allocation to the per-pool free counters and
    /// clears its contention mark. No-op on a homogeneous partition.
    fn release_pools(&mut self, idx: usize) {
        if self.cfg.hetero.is_none() {
            return;
        }
        for (c, f) in self.pool_alloc[idx]
            .iter_mut()
            .zip(self.pool_free.iter_mut())
        {
            *f += *c;
            *c = 0;
        }
        if self.slowed[idx] {
            self.contended_running -= 1;
            self.slowed[idx] = false;
        }
    }

    /// O(1) removal from the running list via the stored slot index.
    fn unlink_running(&mut self, idx: usize) {
        let slot = self.run_slot[idx];
        debug_assert_eq!(self.running[slot], idx, "stale running slot");
        self.running.swap_remove(slot);
        if let Some(&moved) = self.running.get(slot) {
            self.run_slot[moved] = slot;
        }
    }

    /// Tears a running job down at `t`: frees its nodes, charges the
    /// partial run to fairshare, then re-queues it under the retry policy
    /// or fails it terminally — the tick-driven twin of the fast
    /// simulator's eviction path.
    fn evict_running(&mut self, idx: usize, t: i64) {
        let RefStatus::Running { start } = self.status[idx] else {
            unreachable!("evicting a non-running job");
        };
        self.free_nodes += self.jobs[idx].nodes;
        self.release_pools(idx);
        let consumed = f64::from(self.jobs[idx].nodes) * (t - start) as f64;
        let slot = self.fairshare.slot(self.jobs[idx].user);
        self.fairshare.record(slot, consumed);
        self.unlink_running(idx);
        self.job_faults_v[idx].evictions += 1;
        self.evicted_at[idx] = t;
        self.fault_stats.evictions += 1;
        self.evictions_log.record(t);
        let attempt = self.attempt[idx];
        if self.cfg.retry.allows(attempt) {
            self.fault_stats.retries += 1;
            self.status[idx] = RefStatus::Future;
            let delay = self.cfg.retry.delay(attempt);
            self.arrivals.push(Reverse((t + delay, idx)));
        } else {
            self.fault_stats.failed_jobs += 1;
            self.status[idx] = RefStatus::Failed { start, end: t };
            self.jobs[idx].start = Some(start);
            self.jobs[idx].end = Some(t);
        }
    }

    fn schedule(&mut self, policy: BackfillPolicy) {
        if self.pending.is_empty() {
            return;
        }
        self.fairshare
            .decay_to(self.now, self.cfg.weights.fairshare_halflife);
        let w = self.cfg.weights;
        let mut order = self.pending.clone();
        let mut prio: HashMap<usize, f64> = HashMap::with_capacity(order.len());
        for &i in &order {
            let r = &self.jobs[i];
            let slot = self.fairshare.slot(r.user);
            let usage = self.fairshare.normalized_usage(slot);
            prio.insert(
                i,
                priority(&w, self.now - r.submit, r.nodes, self.cfg.nodes, usage),
            );
        }
        order.sort_by(|&a, &b| {
            prio[&b]
                .partial_cmp(&prio[&a])
                .unwrap()
                .then(self.jobs[a].submit.cmp(&self.jobs[b].submit))
                .then(self.jobs[a].id.cmp(&self.jobs[b].id))
        });
        let views: Vec<PendingView> = order
            .iter()
            .map(|&i| PendingView {
                nodes: self.jobs[i].nodes,
                timelimit: self.jobs[i].timelimit,
            })
            .collect();
        let releases: Vec<(i64, u32)> = self
            .running
            .iter()
            .map(|&i| {
                let RefStatus::Running { start } = self.status[i] else {
                    unreachable!("running list holds only running jobs");
                };
                // The scheduler only knows the *limit*, not the real
                // runtime.
                (start + self.jobs[i].timelimit, self.jobs[i].nodes)
            })
            .collect();
        // Crashed nodes are invisible to the planner until they recover
        // (same rule as the fast simulator).
        let starts = plan_schedule(
            &views,
            self.free_nodes,
            self.cfg.nodes - self.down_nodes,
            self.now,
            &releases,
            policy,
        );
        let started: Vec<usize> = starts.iter().map(|&s| order[s]).collect();
        for &idx in &started {
            self.status[idx] = RefStatus::Running { start: self.now };
            self.run_slot[idx] = self.running.len();
            self.running.push(idx);
            self.recent_starts
                .record(self.now, self.now - self.jobs[idx].submit);
            self.free_nodes -= self.jobs[idx].nodes;
            self.attempt[idx] += 1;
            if self.attempt[idx] > 1 {
                // Downtime the eviction inflicted: eviction → restart.
                self.job_faults_v[idx].downtime += self.now - self.evicted_at[idx];
            }
            let mut run = self.jobs[idx].runtime.min(self.jobs[idx].timelimit);
            if !self.cfg.hetero.is_none() {
                // Same placement model (and the same slowdown draws, being
                // a pure hash of id/attempt) as the fast simulator.
                let placed = self.cfg.hetero.place(
                    &mut self.pool_free,
                    &self.jobs[idx].pool,
                    self.jobs[idx].nodes,
                    self.jobs[idx].id,
                    self.attempt[idx],
                    &mut self.pool_alloc[idx],
                );
                self.hetero_stats.record(&placed);
                self.slowed[idx] = placed.scale > 1.0;
                if self.slowed[idx] {
                    self.contended_running += 1;
                }
                run = scale_runtime(run, placed.scale).min(self.jobs[idx].timelimit);
            }
            let epoch = self.attempt[idx];
            // The transient-failure draw is a pure hash of (id, attempt),
            // so both simulators reach the same verdict for the same
            // attempt even though their start instants differ.
            match self.cfg.faults.job_fails(self.jobs[idx].id, epoch) {
                Some(frac) if run > 0 => {
                    let at = ((run as f64 * frac).ceil() as i64).clamp(1, run);
                    self.completions
                        .push(Reverse((self.now + at, idx, epoch, true)));
                }
                _ => {
                    self.completions
                        .push(Reverse((self.now + run, idx, epoch, false)));
                }
            }
        }
        self.pending.retain(|i| !started.contains(i));
    }

    /// Completed jobs (start/end filled), ordered by `(end, id)` — a
    /// single pass over the incrementally maintained completion list.
    pub fn completed(&self) -> Vec<JobRecord> {
        self.completed_order
            .iter()
            .map(|&i| self.jobs[i].clone())
            .collect()
    }

    /// Aggregate metrics of the run so far.
    pub fn metrics(&self) -> SimMetrics {
        let completed = self.completed();
        let span = self.now - self.first_submit.unwrap_or(0);
        let mut m = SimMetrics::from_completed(
            &completed,
            self.rejected,
            self.cfg.nodes,
            self.busy_node_seconds,
            span.max(0),
        );
        m.failed_jobs = self.fault_stats.failed_jobs as usize;
        m
    }

    /// Per-user accounting ledger — the tick-driven twin of
    /// `Simulator::user_usage`, over this backend's own pending/running
    /// index lists and completion order.
    pub fn user_usage(&self, user: u32) -> ServiceUsage {
        let mut usage = ServiceUsage::empty(user);
        for &i in &self.pending {
            let r = &self.jobs[i];
            if r.user == user {
                usage.queued += 1;
                usage.queued_nodes += u64::from(r.nodes);
            }
        }
        for &i in &self.running {
            let r = &self.jobs[i];
            if r.user == user {
                usage.running += 1;
                usage.running_nodes += u64::from(r.nodes);
            }
        }
        for &i in &self.completed_order {
            let r = &self.jobs[i];
            if r.user != user {
                continue;
            }
            let start = r.start.expect("done jobs have a start");
            let end = r.end.expect("done jobs have an end");
            usage.completed += 1;
            usage.node_seconds += f64::from(r.nodes) * (end - start) as f64;
            usage.wait_sum += start - r.submit;
        }
        usage
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirage_trace::HOUR;

    fn job(id: u64, submit: i64, nodes: u32, runtime: i64, limit: i64) -> JobRecord {
        JobRecord::new(id, format!("j{id}"), 1, submit, nodes, limit, runtime)
    }

    #[test]
    fn starts_happen_on_ticks_only() {
        let mut s = ReferenceSimulator::new(ReferenceConfig::new(4));
        s.load_trace(&[job(1, 45, 1, HOUR, HOUR)]);
        s.run_to_completion();
        let done = s.completed();
        let start = done[0].start.unwrap();
        // Submitted at t=45; the next main pass tick at/after 45 is 60.
        assert!(start >= 45);
        assert_eq!(start % 30, 0, "starts align to scheduler ticks");
    }

    #[test]
    fn completes_all_jobs_like_fast_sim() {
        let trace: Vec<JobRecord> = (0..20)
            .map(|i| job(i + 1, i as i64 * 600, 1 + (i % 3) as u32, HOUR, 2 * HOUR))
            .collect();
        let mut s = ReferenceSimulator::new(ReferenceConfig::new(4));
        s.load_trace(&trace);
        s.run_to_completion();
        assert_eq!(s.completed().len(), 20);
    }

    #[test]
    fn oversized_rejected() {
        let mut s = ReferenceSimulator::new(ReferenceConfig::new(2));
        s.load_trace(&[job(1, 0, 4, HOUR, HOUR)]);
        s.run_to_completion();
        assert_eq!(s.metrics().rejected_jobs, 1);
    }

    #[test]
    fn agent_surface_matches_fast_simulator_semantics() {
        let mut s = ReferenceSimulator::new(ReferenceConfig::new(4));
        s.step(500);
        assert_eq!(s.now(), 500);
        // Submit overrides the submit time to now and reassigns taken ids.
        let a = s.submit(job(7, 42, 1, HOUR, HOUR));
        let b = s.submit(job(7, 42, 1, HOUR, HOUR));
        assert_eq!(a, 7);
        assert_ne!(b, 7);
        assert!(matches!(
            s.job_status(a),
            Some(JobStatus::Future | JobStatus::Pending)
        ));
        s.run_to_completion();
        let done = s.completed();
        assert_eq!(done.len(), 2);
        assert!(done.iter().all(|j| j.submit == 500));
        assert!(matches!(s.job_status(a), Some(JobStatus::Completed { .. })));
        assert!(!s.is_active());
        assert!(s.avg_recent_wait(100 * HOUR).is_some());
        // Reset restores the idle cluster.
        s.reset();
        assert_eq!(s.now(), 0);
        assert_eq!(s.free_nodes(), 4);
        assert!(s.completed().is_empty());
    }

    #[test]
    fn sample_reports_queue_and_running_state() {
        let mut cfg = ReferenceConfig::new(2);
        cfg.tick = 30;
        let mut s = ReferenceSimulator::new(cfg);
        s.load_trace(&[
            job(1, 0, 2, 4 * HOUR, 4 * HOUR),
            job(2, HOUR, 1, HOUR, HOUR),
        ]);
        s.run_until(2 * HOUR);
        let snap = s.sample();
        assert_eq!(snap.now, 2 * HOUR);
        assert_eq!(snap.total_nodes, 2);
        assert_eq!(snap.free_nodes, 0);
        assert_eq!(snap.running.len(), 1);
        assert_eq!(snap.queued.len(), 1);
        assert_eq!(snap.queued[0].age, HOUR);
    }

    #[test]
    fn backfill_happens_while_head_is_blocked() {
        // J1 holds 3 of 4 nodes (limit 4h); J2 (4 nodes) blocks the head.
        // J3 (1 node, short limit) can only start via the backfill pass —
        // and must start while J1 is still running, on a tick boundary.
        let mut cfg = ReferenceConfig::new(4);
        cfg.backfill_interval = 300;
        let mut s = ReferenceSimulator::new(cfg);
        s.load_trace(&[
            job(1, 0, 3, 2 * HOUR, 4 * HOUR),
            job(2, 10, 4, HOUR, 2 * HOUR),
            job(3, 20, 1, HOUR / 4, HOUR / 4),
        ]);
        s.run_to_completion();
        let done = s.completed();
        let j3 = done.iter().find(|j| j.id == 3).unwrap();
        let start = j3.start.unwrap();
        assert!((20..2 * HOUR).contains(&start), "backfilled before J1 ends");
        assert_eq!(start % 30, 0, "starts align to scheduler ticks");
    }

    #[test]
    fn transient_failure_retries_on_tick_cadence() {
        let fm = FaultModel {
            job_fail_prob: 0.5,
            seed: 7,
            ..FaultModel::none()
        };
        let id = (1..500u64)
            .find(|&id| fm.job_fails(id, 1).is_some() && fm.job_fails(id, 2).is_none())
            .expect("some id fails once then succeeds");
        let mut cfg = ReferenceConfig::new(1);
        cfg.faults = fm;
        let mut s = ReferenceSimulator::new(cfg);
        s.load_trace(&[job(id, 0, 1, HOUR, 2 * HOUR)]);
        s.run_to_completion();
        let done = s.completed();
        assert_eq!(done.len(), 1);
        assert!(done[0].end.unwrap() > HOUR, "failed attempt delays the end");
        let stats = s.fault_stats();
        assert_eq!(stats.job_failures, 1);
        assert_eq!(stats.retry_successes, 1);
        assert_eq!(s.job_faults(id).evictions, 1);
        assert!(s.job_faults(id).downtime > 0);
        assert_eq!(s.metrics().failed_jobs, 0);
    }

    #[test]
    fn exhausted_retries_fail_terminally_on_ticks_too() {
        let mut cfg = ReferenceConfig::new(1);
        cfg.faults = FaultModel {
            job_fail_prob: 1.0,
            seed: 3,
            ..FaultModel::none()
        };
        cfg.retry.max_attempts = 2;
        let mut s = ReferenceSimulator::new(cfg);
        s.load_trace(&[job(1, 0, 1, HOUR, 2 * HOUR)]);
        s.run_to_completion();
        assert!(s.completed().is_empty());
        assert!(matches!(s.job_status(1), Some(JobStatus::Failed { .. })));
        assert_eq!(s.fault_stats().failed_jobs, 1);
        assert_eq!(s.metrics().failed_jobs, 1);
    }

    #[test]
    fn node_crashes_evict_and_replay_identically_after_reset() {
        let mut cfg = ReferenceConfig::new(4);
        cfg.faults = FaultModel::severe(11);
        let mut s = ReferenceSimulator::new(cfg);
        let trace: Vec<_> = (0..40u32)
            .map(|i| job(u64::from(i) + 1, i64::from(i) * 600, 2, 3 * HOUR, 4 * HOUR))
            .collect();
        s.load_trace(&trace);
        s.run_to_completion();
        let first = (s.completed(), s.fault_stats(), s.metrics());
        assert!(first.1.node_crashes > 0, "severe model must actually crash");
        s.reset();
        s.load_trace(&trace);
        s.run_to_completion();
        assert_eq!(s.completed(), first.0, "reset replays the same crashes");
        assert_eq!(s.fault_stats(), first.1);
        assert_eq!(s.metrics(), first.2);
    }

    #[test]
    fn fast_pool_shortens_runtimes_on_tick_cadence() {
        use crate::hetero::{HeteroModel, NodePool};
        use mirage_trace::PoolRequest;
        let mut cfg = ReferenceConfig::new(8);
        cfg.hetero = HeteroModel::with_pools(
            vec![NodePool::new("a100", 2, 2.0), NodePool::new("v100", 6, 1.0)],
            0.0,
            1,
        );
        cfg.validate().unwrap();
        let mut s = ReferenceSimulator::new(cfg);
        s.load_trace(&[
            job(1, 0, 2, HOUR, 2 * HOUR).with_pool(PoolRequest::Demand("a100".into())),
            job(2, 0, 2, HOUR, 2 * HOUR).with_pool(PoolRequest::Demand("v100".into())),
        ]);
        s.run_to_completion();
        let done = s.completed();
        let j1 = done.iter().find(|j| j.id == 1).unwrap();
        let j2 = done.iter().find(|j| j.id == 2).unwrap();
        let (s1, s2) = (j1.start.unwrap(), j2.start.unwrap());
        assert_eq!(j1.end, Some(s1 + HOUR / 2), "a100 runs at 2x");
        assert_eq!(j2.end, Some(s2 + HOUR), "v100 is baseline speed");
        assert_eq!(s.pool_free(), vec![2, 6]);
        assert_eq!(s.pool_total(), vec![2, 6]);
        assert_eq!(s.hetero_stats().placements, 2);
        assert_eq!(s.contended_running(), 0);
    }

    #[test]
    fn hetero_contention_replays_identically_after_reset() {
        let mut cfg = ReferenceConfig::new(8);
        cfg.hetero = HeteroModel::balanced(8, 5);
        cfg.faults = FaultModel::severe(11);
        cfg.validate().unwrap();
        let mut s = ReferenceSimulator::new(cfg);
        let trace: Vec<_> = (0..40u32)
            .map(|i| {
                job(
                    u64::from(i) + 1,
                    i64::from(i) * 600,
                    1 + i % 4,
                    3 * HOUR,
                    4 * HOUR,
                )
            })
            .collect();
        s.load_trace(&trace);
        s.run_to_completion();
        let first = (
            s.completed(),
            s.fault_stats(),
            s.hetero_stats(),
            s.metrics(),
        );
        assert!(first.2.slowdowns > 0, "balanced scenario must contend");
        s.reset();
        assert_eq!(s.pool_free(), s.pool_total(), "reset refills the pools");
        s.load_trace(&trace);
        s.run_to_completion();
        assert_eq!(s.completed(), first.0, "reset replays the same placements");
        assert_eq!(s.fault_stats(), first.1);
        assert_eq!(s.hetero_stats(), first.2);
        assert_eq!(s.metrics(), first.3);
    }
}
