//! The fast, event-driven Slurm simulator.
//!
//! Exposes the agent-facing interface the paper describes in §5.1:
//! [`Simulator::submit`] injects a job, [`Simulator::step`] advances
//! simulated time, and [`Simulator::sample`] returns the observable
//! cluster state. Scheduling passes run exactly when an arrival or
//! completion changes the system, which is what makes replaying a month of
//! trace take well under a minute.
//!
//! The pending table is columnar: one column per field a pass reads, all
//! stripes of one buffer that grows as one. A pass costs a few vectorised
//! loops over those columns plus work proportional to what it starts: the
//! fair-share tracker refreshes one factor per user with queued jobs (it
//! counts them as jobs arrive and start), one loop gathers each row's
//! factor and one turns it into the row's rank, and each job the planner
//! reads is one scan of the rank column: a minimum fold over the rows its
//! test accepts ([`crate::backfill`]). Nothing is built or sorted. The
//! rows it started leave by a shift of only the rows on the shorter side
//! of them, in arrival order. A backlog deeper than `sched_depth` takes
//! the same path: the cut is checked on each row a read finds, by one
//! count over the rank column. The event queue keeps a trace's future
//! arrivals in a sorted stream beside its heap ([`crate::event`]).
//!
//! Loading a trace is a fill of memory the simulator already holds. The
//! job arena keeps its slots across [`Simulator::reset`], which only
//! marks them spare, and [`Simulator::load_trace`] writes each record
//! into the next spare slot in place (its name into the slot's old name
//! buffer); the id map and the fair-share user map hash with a fixed
//! multiplicative hasher. A reload of a trace no larger than the last
//! one allocates nothing, and a restore (`clone_from`) writes the
//! source's jobs over the target's slots the same way.

use std::fmt;
use std::ops::{Deref, Index, IndexMut};

use mirage_trace::{JobRecord, DAY};
use serde::{Deserialize, Serialize};

use crate::admission::{prepare_admission, IdMap, RecentStarts};
use crate::backfill::{plan_queue, BackfillPolicy, PassQueue, PlanScratch};
use crate::event::{Event, EventKind, EventQueue};
use crate::fault::{EvictionLog, FaultModel, FaultStats, JobFaults, RetryPolicy, SimConfigError};
use crate::hetero::{scale_runtime, HeteroModel, HeteroStats};
use crate::metrics::{ServiceUsage, SimMetrics};
use crate::pending::{PendingRow, PendingTable, Ranking, EXACT_TIME};
use crate::priority::{size_term, FairshareTracker, PriorityWeights};
use crate::snapshot::{ClusterSnapshot, RunningJobView};

/// Simulator configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Nodes in the partition. A job requesting more, or submitted more
    /// than 2^53 s from the epoch (not exact in `f64`), is rejected on
    /// arrival.
    pub nodes: u32,
    /// Multifactor priority weights.
    pub weights: PriorityWeights,
    /// Backfill flavor.
    pub backfill: BackfillPolicy,
    /// At most this many queued jobs are considered per scheduling pass,
    /// taken in priority order (Slurm's `bf_max_job_test`). Bounds what
    /// the planner reads and starts, not the cost of a pass: every pass
    /// still ranks the whole backlog and every read scans it, and a read
    /// checks the row it finds against the cut with one more scan when
    /// the backlog is deeper than this.
    pub sched_depth: usize,
    /// Fault injection: node crash/recovery processes and transient job
    /// failures. [`FaultModel::none`] (the default) injects nothing.
    #[serde(default)]
    pub faults: FaultModel,
    /// How evicted / failed jobs re-enter the queue.
    #[serde(default)]
    pub retry: RetryPolicy,
    /// Heterogeneous node pools and placement-sensitive contention.
    /// [`HeteroModel::none`] (the default) keeps the homogeneous
    /// single-counter model.
    #[serde(default)]
    pub hetero: HeteroModel,
}

impl SimConfig {
    /// Default configuration for a partition of `nodes` nodes.
    pub fn new(nodes: u32) -> Self {
        Self {
            nodes,
            weights: PriorityWeights::default(),
            backfill: BackfillPolicy::default(),
            sched_depth: 512,
            faults: FaultModel::none(),
            retry: RetryPolicy::default(),
            hetero: HeteroModel::none(),
        }
    }

    /// Rejects configurations that cannot run a sound simulation: an
    /// empty partition, a zero scheduling depth, or weight/fault/retry
    /// fields their own `validate()`s reject. Called by
    /// [`SimBuilder::try_build`](crate::backend::SimBuilder::try_build)
    /// so bad configs fail at build time with a typed error.
    pub fn validate(&self) -> Result<(), SimConfigError> {
        if self.nodes == 0 {
            return Err(SimConfigError {
                field: "nodes",
                value: "0".to_string(),
                reason: "partition needs at least one node",
            });
        }
        if self.sched_depth == 0 {
            return Err(SimConfigError {
                field: "sched_depth",
                value: "0".to_string(),
                reason: "each scheduling pass must consider at least one job",
            });
        }
        self.weights.validate()?;
        self.faults.validate()?;
        self.hetero.validate(self.nodes)?;
        self.retry.validate()
    }
}

/// Lifecycle state of a job inside the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobStatus {
    /// Known but not yet submitted (future trace arrival).
    Future,
    /// In the queue.
    Pending,
    /// Dispatched; payload is the start time.
    Running {
        /// Dispatch instant.
        start: i64,
    },
    /// Finished; payload is `(start, end)`.
    Completed {
        /// Dispatch instant.
        start: i64,
        /// Completion instant.
        end: i64,
    },
    /// Rejected (cannot ever fit, or its submit time is not exact in
    /// `f64`).
    Rejected,
    /// Evicted or failed mid-run and out of retry attempts; payload is
    /// the last attempt's `(start, end)`.
    Failed {
        /// Last attempt's dispatch instant.
        start: i64,
        /// Instant the last attempt died.
        end: i64,
    },
}

#[derive(Debug)]
struct SimJob {
    record: JobRecord,
    status: JobStatus,
    /// The user's fair-share slot, interned at admission.
    user_slot: u32,
    /// Index of this job inside `running` while it runs (kept current by
    /// swap-remove fixups), so completion never scans the running list.
    run_slot: usize,
    /// How many times this job has started (1-based once running; also
    /// the epoch stamped on its in-flight completion event).
    attempt: u32,
    /// Instant of the last eviction (meaningful while awaiting a retry).
    evicted_at: i64,
    /// Per-job fault ledger: evictions suffered and service downtime.
    faults: JobFaults,
    /// Nodes held per pool while running (empty on a homogeneous
    /// partition; indexed like `HeteroModel::pools`).
    pool_alloc: Vec<u32>,
    /// Whether the current attempt's placement drew a slowdown (> 1.0
    /// runtime scale), for the contention metric.
    slowed: bool,
}

impl SimJob {
    /// A job of `record` just loaded: future, never started, no ledger.
    /// The user slot is the caller's to set.
    fn future(record: JobRecord) -> Self {
        Self {
            record,
            status: JobStatus::Future,
            user_slot: 0,
            run_slot: usize::MAX,
            attempt: 0,
            evicted_at: 0,
            faults: JobFaults::default(),
            pool_alloc: Vec::new(),
            slowed: false,
        }
    }

    /// Turns a spare slot into [`SimJob::future`] of the record it holds,
    /// in place (the pool vector keeps its capacity).
    fn reset_state(&mut self) {
        let Self {
            record: _,
            status,
            user_slot,
            run_slot,
            attempt,
            evicted_at,
            faults,
            pool_alloc,
            slowed,
        } = self;
        *status = JobStatus::Future;
        *user_slot = 0;
        *run_slot = usize::MAX;
        *attempt = 0;
        *evicted_at = 0;
        *faults = JobFaults::default();
        pool_alloc.clear();
        *slowed = false;
    }
}

impl Clone for SimJob {
    fn clone(&self) -> Self {
        Self {
            record: self.record.clone(),
            pool_alloc: self.pool_alloc.clone(),
            ..*self
        }
    }

    /// In place, reusing the record's name buffer and the pool slots.
    fn clone_from(&mut self, source: &Self) {
        let Self {
            record,
            status,
            user_slot,
            run_slot,
            attempt,
            evicted_at,
            faults,
            pool_alloc,
            slowed,
        } = self;
        record.clone_from(&source.record);
        *status = source.status;
        *user_slot = source.user_slot;
        *run_slot = source.run_slot;
        *attempt = source.attempt;
        *evicted_at = source.evicted_at;
        *faults = source.faults;
        pool_alloc.clone_from(&source.pool_alloc);
        *slowed = source.slowed;
    }
}

/// The job arena: `slots[..live]` are the loaded jobs, indexed by arena
/// index; the slots past `live` are spare, left by an earlier, larger load
/// or restore. Reads see only the live jobs (the arena derefs to
/// `&[SimJob]` over them), [`JobArena::clear`] frees nothing, and the next
/// load writes over the spare slots in place before it grows the vector.
#[derive(Default)]
struct JobArena {
    slots: Vec<SimJob>,
    live: usize,
}

impl JobArena {
    /// Marks every slot spare.
    fn clear(&mut self) {
        self.live = 0;
    }

    /// Loads a copy of `record` into the next slot, reusing a spare
    /// slot's name buffer, and returns its index.
    fn load(&mut self, record: &JobRecord) -> usize {
        let idx = self.live;
        match self.slots.get_mut(idx) {
            Some(slot) => {
                slot.record.clone_from(record);
                slot.reset_state();
            }
            None => self.slots.push(SimJob::future(record.clone())),
        }
        self.live += 1;
        idx
    }

    /// Moves `record` into the next slot and returns its index.
    fn push(&mut self, record: JobRecord) -> usize {
        let idx = self.live;
        match self.slots.get_mut(idx) {
            Some(slot) => {
                slot.record = record;
                slot.reset_state();
            }
            None => self.slots.push(SimJob::future(record)),
        }
        self.live += 1;
        idx
    }
}

impl Index<usize> for JobArena {
    type Output = SimJob;

    /// The job in slot `idx`, indexed without first slicing to the live
    /// jobs: the event loop reaches jobs only through indices of live
    /// ones (the queue, the running list, events, the completion list).
    fn index(&self, idx: usize) -> &SimJob {
        debug_assert!(idx < self.live, "slot {idx} is spare");
        &self.slots[idx]
    }
}

impl IndexMut<usize> for JobArena {
    fn index_mut(&mut self, idx: usize) -> &mut SimJob {
        debug_assert!(idx < self.live, "slot {idx} is spare");
        &mut self.slots[idx]
    }
}

impl Deref for JobArena {
    type Target = [SimJob];

    fn deref(&self) -> &[SimJob] {
        &self.slots[..self.live]
    }
}

impl fmt::Debug for JobArena {
    /// The live jobs only.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl Clone for JobArena {
    /// The live jobs, without spare slots.
    fn clone(&self) -> Self {
        Self {
            slots: self.to_vec(),
            live: self.live,
        }
    }

    /// Copies `source`'s live jobs over this arena's slots in place and
    /// grows it only past its own slots; slots this arena holds beyond
    /// `source`'s live jobs stay as spare slots.
    fn clone_from(&mut self, source: &Self) {
        let (over, beyond) = source.split_at(source.live.min(self.slots.len()));
        for (slot, job) in self.slots.iter_mut().zip(over) {
            slot.clone_from(job);
        }
        self.slots.extend_from_slice(beyond);
        self.live = source.live;
    }
}

/// Event-driven Slurm simulator.
///
/// A fork is `clone()`, a restore is `clone_from()`: the restored
/// simulator runs on exactly as the source would, and a restore into a
/// used simulator writes over its job-arena slots and reuses its buffers
/// (see the `Clone` impl), as a reload after [`Simulator::reset`] does.
#[derive(Debug)]
pub struct Simulator {
    cfg: SimConfig,
    now: i64,
    free_nodes: u32,
    /// Crashed nodes (capacity the scheduler cannot see until recovery).
    down_nodes: u32,
    /// Per-pool free-node counts (empty on a homogeneous partition).
    /// Invariant per pool: `free + allocated + down == pool.nodes`.
    pool_free: Vec<u32>,
    hetero_stats: HeteroStats,
    /// Running jobs whose current placement drew a slowdown.
    contended_running: u32,
    fault_stats: FaultStats,
    evictions_log: EvictionLog,
    jobs: JobArena,
    id_map: IdMap<u64, usize>,
    /// The queue, in arrival order, column by column. Grows by doubling
    /// to the deepest backlog seen and keeps that room across
    /// [`Simulator::reset`]. It also keeps the fewest nodes any queued job
    /// asks for, exactly ([`PendingTable::min_nodes`]), which lets the
    /// event clock skip futile passes.
    pending: PendingTable,
    running: Vec<usize>, // arena indices of running jobs (≤ nodes entries)
    events: EventQueue,
    fairshare: FairshareTracker,
    busy_node_seconds: f64,
    first_submit: Option<i64>,
    rejected: usize,
    next_id: u64,
    recent_starts: RecentStarts,
    /// `(start + timelimit, nodes)` of every running job — the planner
    /// only knows the *limit*, not the real runtime — kept sorted across
    /// passes: inserted at start, removed at completion/eviction.
    releases: Vec<(i64, u32)>,
    // Completion bookkeeping, maintained incrementally at completion time
    // so `completed()`/`metrics()` never re-filter or sort the job arena:
    // `completed_order` holds arena indices sorted by `(end, id)` (ends
    // arrive non-decreasing; same-end ties are fixed up with local swaps),
    // and the aggregate sums make `metrics()` O(1).
    completed_order: Vec<usize>,
    wait_sum: f64,
    jct_sum: f64,
    last_end: i64,
    first_completed_submit: Option<i64>,
    // Scratch buffers reused across scheduling passes (perf-book: reuse
    // workhorse collections instead of reallocating in the hot loop).
    scratch_starts: Vec<usize>,
    scratch_plan: PlanScratch,
}

impl Simulator {
    /// Creates an idle cluster at time 0. A non-`none` fault model loads
    /// its full crash/recovery tape into the event queue up front, so the
    /// same config (and seed) always replays the same faults.
    pub fn new(cfg: SimConfig) -> Self {
        let capacity_ns = f64::from(cfg.nodes) * cfg.weights.fairshare_halflife as f64;
        let mut sim = Self {
            cfg,
            now: 0,
            free_nodes: 0,
            down_nodes: 0,
            pool_free: Vec::new(),
            hetero_stats: HeteroStats::default(),
            contended_running: 0,
            fault_stats: FaultStats::default(),
            evictions_log: EvictionLog::default(),
            jobs: JobArena::default(),
            id_map: IdMap::default(),
            pending: PendingTable::default(),
            running: Vec::new(),
            events: EventQueue::new(),
            fairshare: FairshareTracker::new(capacity_ns),
            busy_node_seconds: 0.0,
            first_submit: None,
            rejected: 0,
            next_id: 1,
            recent_starts: RecentStarts::default(),
            releases: Vec::new(),
            completed_order: Vec::new(),
            wait_sum: 0.0,
            jct_sum: 0.0,
            last_end: 0,
            first_completed_submit: None,
            scratch_starts: Vec::new(),
            scratch_plan: PlanScratch::default(),
        };
        sim.reset();
        sim
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
            .map_or_else(JobFaults::default, |&i| self.jobs[i].faults)
    }

    /// Simulator configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Loads a trace of future arrivals. Jobs with `submit <= now` arrive
    /// immediately on the next event processing. Ids are preserved if
    /// unique, otherwise reassigned.
    ///
    /// A fill, not a build: each record is copied into the job arena's
    /// next slot in place — a slot left spare by [`Simulator::reset`]
    /// keeps its name buffer, so the copy allocates only for a name longer
    /// than the one it overwrites — and the arrival stream, the event heap
    /// and the completion list are reserved once for the whole batch.
    pub fn load_trace(&mut self, jobs: &[JobRecord]) {
        self.events.reserve_arrivals(jobs.len());
        for j in jobs {
            let idx = self.jobs.load(j);
            self.admit(idx);
        }
        self.reserve_for_jobs();
    }

    /// Submits a job *now* (the agent-facing call): the job's submit time
    /// is overridden to the current instant. Returns the id under which the
    /// simulator tracks it.
    pub fn submit(&mut self, mut job: JobRecord) -> u64 {
        job.submit = self.now;
        let idx = self.jobs.push(job);
        self.reserve_for_jobs();
        self.admit(idx)
    }

    /// Admits the just-loaded job in arena slot `idx`: resolves its id,
    /// interns its user and schedules its arrival. Returns the id.
    fn admit(&mut self, idx: usize) -> u64 {
        let job = &mut self.jobs[idx];
        let (id, submit) = prepare_admission(
            &mut job.record,
            self.now,
            &self.id_map,
            &mut self.next_id,
            &mut self.first_submit,
        );
        job.user_slot = self.fairshare.slot(job.record.user);
        self.id_map.insert(id, idx);
        self.events
            .push(Event::new(submit, EventKind::Arrival, idx));
        id
    }

    /// Steady-state allocation hygiene: every job contributes at most one
    /// live event and one completion slot, so paying that capacity at
    /// admission time (once per loaded trace, once per submitted job)
    /// keeps starts and completions in the hot loop off the allocator. A
    /// job whose arrival waits in the event queue's stream (reserved by
    /// `load_trace`) needs no heap slot until it starts, so the heap is
    /// reserved net of the stream and grows with the running set on the
    /// first replay only (reset keeps the capacity). The pending table is
    /// not sized this way — 80 bytes of columns per *loaded* job is a
    /// third more peak memory on a bulk replay, for a queue that never
    /// holds more than a fraction of the trace — it grows with the backlog.
    fn reserve_for_jobs(&mut self) {
        let cap = self.jobs.len() + 1;
        self.events.reserve_total(cap);
        if self.completed_order.capacity() < cap {
            self.completed_order
                .reserve(cap - self.completed_order.len());
        }
    }

    /// Observable cluster state at the current instant.
    pub fn sample(&self) -> ClusterSnapshot {
        let mut snap = ClusterSnapshot::default();
        self.sample_into(&mut snap);
        snap
    }

    /// Observable cluster state written into a caller-provided snapshot,
    /// **reusing** its `queued`/`running` vectors: once their capacity
    /// covers the backlog, repeated sampling never allocates. The result
    /// is identical to a fresh [`Simulator::sample`] — stale contents of
    /// `out` are fully overwritten.
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
        out.queued.extend(self.pending.rows().queued(self.now));
        out.running.clear();
        out.running.extend(self.running.iter().map(|&i| {
            let j = &self.jobs[i];
            let start = match j.status {
                JobStatus::Running { start } => start,
                _ => unreachable!("running list holds only running jobs"),
            };
            RunningJobView {
                id: j.record.id,
                nodes: j.record.nodes,
                start,
                elapsed: self.now - start,
                timelimit: j.record.timelimit,
                user: j.record.user,
            }
        }));
    }

    /// Status of a job by id.
    pub fn job_status(&self, id: u64) -> Option<JobStatus> {
        self.id_map.get(&id).map(|&i| self.jobs[i].status)
    }

    /// Advances simulated time by `dt` seconds, processing every event in
    /// the window. Non-positive `dt` is a no-op: stepping backwards (or
    /// nowhere) must not re-process events or corrupt the event order.
    pub fn step(&mut self, dt: i64) {
        if dt <= 0 {
            return;
        }
        self.run_until(self.now + dt);
    }

    /// Returns to an idle cluster at time 0 with the same configuration,
    /// forgetting all loaded jobs and history — in place, and without
    /// freeing anything: the job arena keeps every slot (the jobs only
    /// become spare slots, which the next [`Simulator::load_trace`] writes
    /// over), and the id map, the event heap, the queue and every scratch
    /// buffer are cleared, keeping their capacity. Apart from pushing a
    /// fault model's crash tape and wiping the id map's control bytes, it
    /// does no per-job work. [`Simulator::new`] is "empty, then `reset()`", so a
    /// reset simulator and a fresh one differ in nothing a read can see:
    /// only in spare slots and spare capacity. Fair-share slots do not
    /// survive: every job that carried one is gone, and users are
    /// interned afresh.
    pub fn reset(&mut self) {
        // Exhaustive on purpose: a new field must decide what reset means.
        let Self {
            cfg,
            now,
            free_nodes,
            down_nodes,
            pool_free,
            hetero_stats,
            contended_running,
            fault_stats,
            evictions_log,
            jobs,
            id_map,
            pending,
            running,
            events,
            fairshare,
            busy_node_seconds,
            first_submit,
            rejected,
            next_id,
            recent_starts,
            releases,
            completed_order,
            wait_sum,
            jct_sum,
            last_end,
            first_completed_submit,
            scratch_starts: _,
            scratch_plan: _,
        } = self;
        *now = 0;
        *free_nodes = cfg.nodes;
        *down_nodes = 0;
        pool_free.clear();
        if !cfg.hetero.is_none() {
            pool_free.extend(cfg.hetero.pools.iter().map(|p| p.nodes));
        }
        *hetero_stats = HeteroStats::default();
        *contended_running = 0;
        *fault_stats = FaultStats::default();
        evictions_log.clear();
        jobs.clear();
        id_map.clear();
        pending.clear();
        running.clear();
        events.clear();
        fairshare.clear();
        *busy_node_seconds = 0.0;
        *first_submit = None;
        *rejected = 0;
        *next_id = 1;
        recent_starts.clear();
        releases.clear();
        completed_order.clear();
        *wait_sum = 0.0;
        *jct_sum = 0.0;
        *last_end = 0;
        *first_completed_submit = None;
        for ev in cfg.faults.node_schedule(cfg.nodes) {
            let kind = if ev.up {
                EventKind::NodeUp
            } else {
                EventKind::NodeDown
            };
            events.push(Event::new(ev.time, kind, ev.node as usize));
        }
    }

    /// Advances simulated time to `t_end`, processing every event up to and
    /// including that instant.
    pub fn run_until(&mut self, t_end: i64) {
        while let Some(t) = self.events.peek_time() {
            if t > t_end {
                break;
            }
            self.advance_clock(t);
            self.process_events_at(t);
            self.event_pass();
        }
        self.advance_clock(t_end);
    }

    /// Runs until no events remain (all loaded jobs completed or rejected).
    pub fn run_to_completion(&mut self) {
        while let Some(t) = self.events.peek_time() {
            self.advance_clock(t);
            self.process_events_at(t);
            self.event_pass();
        }
    }

    /// The event clock's pass after an instant's events — unless it is
    /// provably futile (no pending job fits in the free nodes; see
    /// [`PendingTable::min_nodes`]). Skipping a pass also skips its fair-share
    /// decay, so the skip is this clock's pinned arithmetic, not the
    /// pass's: a clock that runs passes on a cadence runs them all.
    fn event_pass(&mut self) {
        if self.free_nodes >= self.pending.min_nodes() {
            self.schedule_pass(self.cfg.backfill);
        }
    }

    /// [`Simulator::run_until`] without the passes: fires every event up
    /// to and including `t_end` and leaves *when* to schedule to the
    /// caller's clock ([`crate::ReferenceSimulator`]'s cadences).
    pub(crate) fn fire_events_until(&mut self, t_end: i64) {
        while let Some(t) = self.events.peek_time() {
            if t > t_end {
                break;
            }
            self.advance_clock(t);
            self.process_events_at(t);
        }
        self.advance_clock(t_end);
    }

    /// Whether a loaded job is still future, queued or running: every job
    /// ends completed, rejected or terminally failed. Unlike
    /// [`Simulator::is_active`] this ignores what is left of the fault
    /// tape and stranded completion events.
    pub(crate) fn has_unresolved_jobs(&self) -> bool {
        self.completed_order.len() + self.rejected + (self.fault_stats.failed_jobs as usize)
            < self.jobs.len()
    }

    /// Whether any work remains (queued, running or future).
    pub fn is_active(&self) -> bool {
        !self.events.is_empty() || !self.pending.is_empty() || !self.running.is_empty()
    }

    /// Completed job records (start/end filled), ordered by `(end, id)`.
    ///
    /// `completed_order` is maintained incrementally at completion time,
    /// so this is a single pass over the completed set — no arena filter,
    /// no sort — and `metrics()` during an episode stays cheap.
    pub fn completed(&self) -> Vec<JobRecord> {
        self.completed_order
            .iter()
            .map(|&i| self.jobs[i].record.clone())
            .collect()
    }

    /// Mean queue wait of jobs that *started* within the trailing `window`
    /// seconds — the observable statistic behind the paper's `avg`
    /// heuristic baseline. `None` if nothing started in the window.
    pub fn avg_recent_wait(&self, window: i64) -> Option<f64> {
        self.recent_starts.avg(self.now, window)
    }

    /// Aggregate metrics of the run so far — O(1), computed from sums
    /// maintained at completion time (identical numbers to
    /// [`SimMetrics::from_completed`] over [`Simulator::completed`]: the
    /// summed quantities are exact integers in f64, so completion order
    /// cannot change the result).
    pub fn metrics(&self) -> SimMetrics {
        let span = (self.now - self.first_submit.unwrap_or(0)).max(0);
        let n = self.completed_order.len();
        let first_submit = self.first_completed_submit.unwrap_or(0);
        let last_end = if n == 0 { first_submit } else { self.last_end };
        let utilization = if span > 0 && self.cfg.nodes > 0 {
            self.busy_node_seconds / (f64::from(self.cfg.nodes) * span as f64)
        } else {
            0.0
        };
        SimMetrics {
            completed_jobs: n,
            rejected_jobs: self.rejected,
            makespan: last_end - first_submit,
            avg_wait: if n == 0 {
                0.0
            } else {
                self.wait_sum / n as f64
            },
            avg_jct: if n == 0 { 0.0 } else { self.jct_sum / n as f64 },
            utilization,
            failed_jobs: self.fault_stats.failed_jobs as usize,
        }
    }

    /// Per-user accounting ledger: `user`'s current queued/running
    /// footprint plus completed consumption. One allocation-free pass
    /// over the pending table, the running list and the completed set
    /// (the latter two are index lists into the job arena).
    pub fn user_usage(&self, user: u32) -> ServiceUsage {
        let mut usage = ServiceUsage::empty(user);
        (usage.queued, usage.queued_nodes) = self.pending.rows().queued_by(user);
        for &i in &self.running {
            let r = &self.jobs[i].record;
            if r.user == user {
                usage.running += 1;
                usage.running_nodes += u64::from(r.nodes);
            }
        }
        for &i in &self.completed_order {
            let r = &self.jobs[i].record;
            if r.user != user {
                continue;
            }
            let start = r.start.expect("completed jobs have a start");
            let end = r.end.expect("completed jobs have an end");
            usage.completed += 1;
            usage.node_seconds += f64::from(r.nodes) * (end - start) as f64;
            usage.wait_sum += start - r.submit;
        }
        usage
    }

    fn advance_clock(&mut self, t: i64) {
        if t <= self.now {
            return;
        }
        let dt = (t - self.now) as f64;
        self.busy_node_seconds +=
            f64::from(self.cfg.nodes - self.free_nodes - self.down_nodes) * dt;
        self.now = t;
    }

    /// Fires all events at exactly time `t` (completions first — the event
    /// queue orders them ahead of arrivals).
    fn process_events_at(&mut self, t: i64) {
        while self.events.peek_time() == Some(t) {
            let ev = self.events.pop().expect("peeked");
            match ev.kind {
                EventKind::NodeUp => self.node_up(ev.job),
                EventKind::Completion => self.complete_job(ev.job, ev.epoch),
                EventKind::JobFail => self.fail_job_attempt(ev.job, ev.epoch),
                EventKind::NodeDown => self.node_down(ev.job),
                EventKind::Arrival => self.arrive_job(ev.job),
            }
        }
    }

    fn arrive_job(&mut self, idx: usize) {
        let job = &mut self.jobs[idx];
        debug_assert!(matches!(job.status, JobStatus::Future));
        if job.record.nodes > self.cfg.nodes || job.record.submit.unsigned_abs() > EXACT_TIME {
            job.status = JobStatus::Rejected;
            self.rejected += 1;
            return;
        }
        job.status = JobStatus::Pending;
        self.fairshare.enqueue(job.user_slot);
        let r = &job.record;
        self.pending.push(PendingRow {
            idx,
            id: r.id,
            submit: r.submit,
            timelimit: r.timelimit,
            nodes: r.nodes,
            user: r.user,
            user_slot: job.user_slot,
            size_term: size_term(&self.cfg.weights, r.nodes, self.cfg.nodes),
        });
        debug_assert_eq!(self.pending.min_nodes(), self.pending.scan_min_nodes());
    }

    fn complete_job(&mut self, idx: usize, epoch: u32) {
        let now = self.now;
        let job = &mut self.jobs[idx];
        // An eviction strands the old attempt's in-flight completion event;
        // the epoch stamp identifies it so a re-queued attempt is not
        // completed early by its predecessor's ghost.
        let JobStatus::Running { start } = job.status else {
            return;
        };
        if job.attempt != epoch {
            return;
        }
        if job.attempt > 1 {
            self.fault_stats.retry_successes += 1;
        }
        job.status = JobStatus::Completed { start, end: now };
        job.record.start = Some(start);
        job.record.end = Some(now);
        let submit = job.record.submit;
        let id = job.record.id;
        self.vacate(idx, start);

        // Incremental completion bookkeeping: ends arrive non-decreasing,
        // so `completed_order` stays `(end, id)`-sorted with at most a few
        // swaps inside the same-end tie run.
        self.completed_order.push(idx);
        let mut i = self.completed_order.len() - 1;
        while i > 0 {
            let prev = self.completed_order[i - 1];
            let prev_rec = &self.jobs[prev].record;
            if prev_rec.end == Some(now) && prev_rec.id > id {
                self.completed_order.swap(i - 1, i);
                i -= 1;
            } else {
                break;
            }
        }
        self.wait_sum += (start - submit) as f64;
        self.jct_sum += (now - submit) as f64;
        self.last_end = self.last_end.max(now);
        self.first_completed_submit = Some(
            self.first_completed_submit
                .map_or(submit, |f| f.min(submit)),
        );
    }

    /// Takes the job that ran since `start` off the cluster (completion
    /// and eviction alike): frees its nodes and pool slots, charges the
    /// run to fair-share, and drops it from the release ledger and the
    /// running list.
    fn vacate(&mut self, idx: usize, start: i64) {
        let job = &mut self.jobs[idx];
        self.free_nodes += job.record.nodes;
        if !self.cfg.hetero.is_none() {
            for (c, f) in job.pool_alloc.iter_mut().zip(self.pool_free.iter_mut()) {
                *f += *c;
                *c = 0;
            }
            if job.slowed {
                self.contended_running -= 1;
                job.slowed = false;
            }
        }
        let consumed = f64::from(job.record.nodes) * (self.now - start) as f64;
        self.fairshare.record(job.user_slot, consumed);
        let release = (start + job.record.timelimit, job.record.nodes);
        let at = self
            .releases
            .binary_search(&release)
            .expect("every running job is in the release ledger");
        self.releases.remove(at);

        // O(1) removal from the running list via the stored slot index.
        let slot = job.run_slot;
        debug_assert_eq!(self.running[slot], idx, "stale running slot");
        self.running.swap_remove(slot);
        if let Some(&moved) = self.running.get(slot) {
            self.jobs[moved].run_slot = slot;
        }
    }

    fn start_job(&mut self, idx: usize) {
        let now = self.now;
        let job = &mut self.jobs[idx];
        debug_assert!(matches!(job.status, JobStatus::Pending));
        self.fairshare.dequeue(job.user_slot);
        self.recent_starts.record(now, now - job.record.submit);
        job.status = JobStatus::Running { start: now };
        job.attempt += 1;
        if job.attempt > 1 {
            // Downtime the eviction inflicted: eviction instant → restart.
            job.faults.downtime += now - job.evicted_at;
        }
        self.free_nodes -= job.record.nodes;
        let release = (now + job.record.timelimit, job.record.nodes);
        let at = self.releases.partition_point(|r| *r < release);
        self.releases.insert(at, release);
        // Jobs are killed at their wall-clock limit.
        let mut run = job.record.runtime.min(job.record.timelimit);
        if !self.cfg.hetero.is_none() {
            // Pool placement: fill the pools in declaration order. The
            // resulting scale folds pool speed and any contention slowdown
            // into the effective runtime (still capped by the wall-clock
            // limit).
            let placed = self.cfg.hetero.place(
                &mut self.pool_free,
                job.record.nodes,
                job.record.id,
                job.attempt,
                &mut job.pool_alloc,
            );
            self.hetero_stats.record(&placed);
            job.slowed = placed.scale > 1.0;
            if job.slowed {
                self.contended_running += 1;
            }
            run = scale_runtime(run, placed.scale).min(job.record.timelimit);
        }
        let ev = match self.cfg.faults.job_fails(job.record.id, job.attempt) {
            Some(frac) if run > 0 => {
                // Transient mid-run death at a deterministic fraction of
                // the runtime — strictly before the clean completion.
                let at = ((run as f64 * frac).ceil() as i64).clamp(1, run);
                Event {
                    time: now + at,
                    kind: EventKind::JobFail,
                    job: idx,
                    epoch: job.attempt,
                }
            }
            _ => Event {
                time: now + run,
                kind: EventKind::Completion,
                job: idx,
                epoch: job.attempt,
            },
        };
        job.run_slot = self.running.len();
        self.running.push(idx);
        self.events.push(ev);
    }

    /// A crashed node recovered. `node` is the crashed node's index, which
    /// maps the recovery back to its pool on a heterogeneous partition.
    fn node_up(&mut self, node: usize) {
        self.fault_stats.node_recoveries += 1;
        debug_assert!(self.down_nodes > 0, "recovery without a crash");
        self.down_nodes -= 1;
        self.free_nodes += 1;
        if !self.cfg.hetero.is_none() {
            let p = self.cfg.hetero.pool_of_node(node as u32);
            self.pool_free[p] += 1;
        }
    }

    /// A node crashed. An idle node absorbs the crash silently; otherwise
    /// the most recently started running job (LIFO victim rule — the
    /// least sunk work) is evicted and one of its freed nodes marked down.
    /// On a heterogeneous partition the crash is pool-local: `node`'s pool
    /// must absorb it, and the victim is the most recently started job
    /// holding nodes *in that pool*.
    fn node_down(&mut self, node: usize) {
        self.fault_stats.node_crashes += 1;
        self.down_nodes += 1;
        if !self.cfg.hetero.is_none() {
            let p = self.cfg.hetero.pool_of_node(node as u32);
            if self.pool_free[p] == 0 {
                let victim = self
                    .running
                    .iter()
                    .copied()
                    .filter(|&i| self.jobs[i].pool_alloc.get(p).is_some_and(|&c| c > 0))
                    .max_by_key(|&i| match self.jobs[i].status {
                        JobStatus::Running { start } => (start, self.jobs[i].record.id),
                        _ => unreachable!("running list holds only running jobs"),
                    });
                let Some(victim) = victim else {
                    unreachable!("crashed pool fully busy but hosts no job");
                };
                self.evict_job(victim);
            }
            self.pool_free[p] -= 1;
            self.free_nodes -= 1;
            return;
        }
        if self.free_nodes > 0 {
            self.free_nodes -= 1;
            return;
        }
        let victim = self
            .running
            .iter()
            .copied()
            .max_by_key(|&i| match self.jobs[i].status {
                JobStatus::Running { start } => (start, self.jobs[i].record.id),
                _ => unreachable!("running list holds only running jobs"),
            });
        let Some(victim) = victim else {
            unreachable!("no free nodes and nothing running on a crash");
        };
        self.evict_job(victim);
        self.free_nodes -= 1;
    }

    /// A running attempt died mid-run (transient failure). Stale events
    /// from already-evicted attempts are dropped via the epoch stamp.
    fn fail_job_attempt(&mut self, idx: usize, epoch: u32) {
        let job = &self.jobs[idx];
        if !matches!(job.status, JobStatus::Running { .. }) || job.attempt != epoch {
            return;
        }
        self.fault_stats.job_failures += 1;
        self.evict_job(idx);
    }

    /// Tears a running job down mid-run: frees its nodes, charges the
    /// partial run to fairshare, then either re-queues it under the retry
    /// policy's backoff or fails it terminally.
    fn evict_job(&mut self, idx: usize) {
        let now = self.now;
        let job = &mut self.jobs[idx];
        let JobStatus::Running { start } = job.status else {
            unreachable!("evicting a non-running job");
        };
        job.faults.evictions += 1;
        job.evicted_at = now;
        let attempt = job.attempt;
        self.vacate(idx, start);

        self.fault_stats.evictions += 1;
        self.evictions_log.record(now);

        let job = &mut self.jobs[idx];
        if self.cfg.retry.allows(attempt) {
            self.fault_stats.retries += 1;
            job.status = JobStatus::Future;
            let delay = self.cfg.retry.delay(attempt);
            self.events
                .push(Event::new(now + delay, EventKind::Arrival, idx));
        } else {
            self.fault_stats.failed_jobs += 1;
            job.status = JobStatus::Failed { start, end: now };
            job.record.start = Some(start);
            job.record.end = Some(now);
        }
    }

    /// One scheduling pass: decay and fair-share refresh, priority ranks,
    /// the plan over a queue read by scans, then the starts — no hashing,
    /// no sort and no copy of the queue.
    ///
    /// * The fair-share tracker decays and then refreshes the factor of
    ///   every user with queued jobs, one `2^(-usage)` per user.
    /// * A [`PassQueue`] ranks every row of the pending table by
    ///   `(-priority, submit, id)` into the table's rank column, in two
    ///   loops over its columns that vectorise (the factor gathered by
    ///   slot, then the rank). It hands out at most the `sched_depth` best
    ///   keys (Slurm's `bf_max_job_test`), one per read of [`plan_queue`]:
    ///   each read is a scan of the rank column for the best unread row
    ///   the planner's test accepts (every row in phases 1 and 2, the
    ///   harmless ones in the backfill phase), and the depth cut is
    ///   checked on that row by one count over the column. The resulting
    ///   starts, and their order, are those of sorting the whole queue
    ///   first.
    /// * The started rows leave the table by a shift of only the rows on
    ///   the shorter side of them (usually the few ahead: age dominates
    ///   priority), which keeps arrival order; the fewest nodes any row
    ///   asks for stays exact, rescanned only when a started row asked for
    ///   exactly that many.
    /// * The planner sees only physically available capacity: crashed
    ///   nodes cannot host a reservation until they recover. Priority and
    ///   fair-share keep the nominal partition size, matching how Slurm's
    ///   multifactor weights stay fixed across drained nodes.
    pub(crate) fn schedule_pass(&mut self, policy: BackfillPolicy) {
        debug_assert!(
            self.fairshare.counts_match(self.pending.rows().slots()),
            "the active fair-share slots are not the pending rows' slots"
        );
        if self.pending.is_empty() {
            return;
        }
        let now = self.now;
        let total = self.cfg.nodes;
        self.fairshare
            .decay_to(now, self.cfg.weights.fairshare_halflife);
        self.fairshare.refresh();

        let ranking = Ranking {
            weights: self.cfg.weights,
            now,
            factors: self.fairshare.factors(),
        };
        let mut queue = PassQueue::new(&mut self.pending, ranking, self.cfg.sched_depth);
        let mut starts = std::mem::take(&mut self.scratch_starts);
        plan_queue(
            &mut queue,
            self.free_nodes,
            total - self.down_nodes,
            now,
            &self.releases,
            policy,
            &mut self.scratch_plan,
            &mut starts,
        );
        // The planner hands back positions in the pending table.
        for &at in &starts {
            let idx = self.pending.rows().idx(at);
            self.start_job(idx);
        }
        self.pending.remove(&mut starts);
        debug_assert_eq!(self.pending.min_nodes(), self.pending.scan_min_nodes());
        self.scratch_starts = starts;
    }
}

impl Clone for Simulator {
    /// A fork: a new simulator restored from this one, holding only its
    /// live jobs (no spare slots).
    fn clone(&self) -> Self {
        let mut sim = Simulator::new(self.cfg.clone());
        sim.clone_from(self);
        sim
    }

    /// Restores `source`'s state in place: `source`'s live jobs are copied
    /// over the target's arena slots (names into the slots' buffers), the
    /// target's spare slots beyond them stay spare, and the event heap,
    /// queue, running list, id map, release ledger and every log keep
    /// their capacity — so restoring a warm simulator into one that ran
    /// the same window, or a larger one with names no shorter, allocates
    /// nothing. The pass scratch is not state (every pass clears it) and
    /// is left alone.
    fn clone_from(&mut self, source: &Self) {
        // Exhaustive on purpose, like `reset`: a new field must decide
        // what a restore means.
        let Self {
            cfg,
            now,
            free_nodes,
            down_nodes,
            pool_free,
            hetero_stats,
            contended_running,
            fault_stats,
            evictions_log,
            jobs,
            id_map,
            pending,
            running,
            events,
            fairshare,
            busy_node_seconds,
            first_submit,
            rejected,
            next_id,
            recent_starts,
            releases,
            completed_order,
            wait_sum,
            jct_sum,
            last_end,
            first_completed_submit,
            scratch_starts: _,
            scratch_plan: _,
        } = self;
        // A restore normally targets a fork of the same simulator: an
        // equal config keeps its pool names where they are.
        if *cfg != source.cfg {
            cfg.clone_from(&source.cfg);
        }
        *now = source.now;
        *free_nodes = source.free_nodes;
        *down_nodes = source.down_nodes;
        pool_free.clone_from(&source.pool_free);
        *hetero_stats = source.hetero_stats;
        *contended_running = source.contended_running;
        *fault_stats = source.fault_stats;
        evictions_log.clone_from(&source.evictions_log);
        jobs.clone_from(&source.jobs);
        // `HashMap::clone_from` keeps the table only at an equal bucket
        // count; a roomier table keeps it by re-inserting (nothing reads
        // the map's iteration order).
        if id_map.capacity() != source.id_map.capacity() && id_map.capacity() >= source.id_map.len()
        {
            id_map.clear();
            id_map.extend(source.id_map.iter().map(|(&id, &idx)| (id, idx)));
        } else {
            id_map.clone_from(&source.id_map);
        }
        pending.clone_from(&source.pending);
        running.clone_from(&source.running);
        events.clone_from(&source.events);
        fairshare.clone_from(&source.fairshare);
        *busy_node_seconds = source.busy_node_seconds;
        *first_submit = source.first_submit;
        *rejected = source.rejected;
        *next_id = source.next_id;
        recent_starts.clone_from(&source.recent_starts);
        releases.clone_from(&source.releases);
        completed_order.clone_from(&source.completed_order);
        *wait_sum = source.wait_sum;
        *jct_sum = source.jct_sum;
        *last_end = source.last_end;
        *first_completed_submit = source.first_completed_submit;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::QueuedJobView;
    use mirage_trace::HOUR;

    fn job(id: u64, submit: i64, nodes: u32, runtime: i64, limit: i64) -> JobRecord {
        JobRecord::new(id, format!("j{id}"), 1, submit, nodes, limit, runtime)
    }

    fn sim(nodes: u32) -> Simulator {
        Simulator::new(SimConfig::new(nodes))
    }

    #[test]
    fn empty_cluster_starts_job_immediately() {
        let mut s = sim(4);
        s.load_trace(&[job(1, 100, 2, HOUR, 2 * HOUR)]);
        s.run_to_completion();
        let done = s.completed();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].start, Some(100));
        assert_eq!(done[0].end, Some(100 + HOUR));
    }

    #[test]
    fn jobs_queue_when_cluster_full() {
        let mut s = sim(4);
        s.load_trace(&[job(1, 0, 4, HOUR, 2 * HOUR), job(2, 10, 4, HOUR, 2 * HOUR)]);
        s.run_to_completion();
        let done = s.completed();
        assert_eq!(done[0].start, Some(0));
        // Second job waits for the first to actually finish (1h), not its
        // 2h limit.
        assert_eq!(done[1].start, Some(HOUR));
        assert_eq!(done[1].wait(), Some(HOUR - 10));
    }

    #[test]
    fn backfill_lets_short_job_jump_ahead() {
        // 4 nodes; J1 takes 3 of them until t=2h (limit 4h → shadow at 4h).
        // J2 (4 nodes) blocks at its arrival; J3 (1 node, 30 min limit)
        // fits in the single free node and finishes before J2's shadow, so
        // EASY backfills it immediately at t=20.
        let mut s = sim(4);
        s.load_trace(&[
            job(1, 0, 3, 2 * HOUR, 4 * HOUR),
            job(2, 10, 4, HOUR, 2 * HOUR),
            job(3, 20, 1, HOUR / 2, HOUR / 2),
        ]);
        s.run_to_completion();
        let done = s.completed();
        let j3 = done.iter().find(|j| j.id == 3).unwrap();
        assert_eq!(j3.start, Some(20), "J3 backfills instantly");
        // J2 starts when J1 *actually* completes (2h), not at the 4h limit.
        let j2 = done.iter().find(|j| j.id == 2).unwrap();
        assert_eq!(j2.start, Some(2 * HOUR));
    }

    #[test]
    fn no_backfill_means_head_of_line_blocking() {
        let mut cfg = SimConfig::new(4);
        cfg.backfill = BackfillPolicy::None;
        let mut s = Simulator::new(cfg);
        // J1 fills the cluster; J2 (too big to fit beside J1) blocks J3
        // even though J3 would fit.
        s.load_trace(&[
            job(1, 0, 3, 2 * HOUR, 2 * HOUR),
            job(2, 10, 4, HOUR, HOUR),
            job(3, 20, 1, HOUR, HOUR),
        ]);
        s.run_until(HOUR);
        let snap = s.sample();
        assert_eq!(snap.running.len(), 1, "only J1 runs");
        assert_eq!(snap.queued.len(), 2, "J3 blocked behind J2");
    }

    #[test]
    fn oversized_jobs_are_rejected() {
        // Wider than the partition, or submitted where times stop being
        // exact in f64 (the pass's age arithmetic needs them exact).
        let edge = 1i64 << 53;
        for (submit, nodes) in [(0, 8), (edge + 1, 1), (-edge - 1, 1)] {
            let mut s = sim(4);
            s.load_trace(&[job(1, submit, nodes, HOUR, HOUR)]);
            s.run_to_completion();
            assert_eq!(s.job_status(1), Some(JobStatus::Rejected));
            assert_eq!(s.metrics().rejected_jobs, 1);
            assert!(s.completed().is_empty());
        }
    }

    #[test]
    fn submit_overrides_submit_time_to_now() {
        let mut s = sim(4);
        s.step(500);
        let id = s.submit(job(0, 42, 1, HOUR, HOUR));
        s.run_to_completion();
        let done = s.completed();
        assert_eq!(done[0].id, id);
        assert_eq!(done[0].submit, 500);
    }

    #[test]
    fn sample_reports_ages_and_elapsed() {
        let mut s = sim(2);
        s.load_trace(&[
            job(1, 0, 2, 4 * HOUR, 4 * HOUR),
            job(2, HOUR, 1, HOUR, HOUR),
        ]);
        s.run_until(2 * HOUR);
        let snap = s.sample();
        assert_eq!(snap.now, 2 * HOUR);
        assert_eq!(snap.running.len(), 1);
        assert_eq!(snap.running[0].elapsed, 2 * HOUR);
        assert_eq!(snap.queued.len(), 1);
        assert_eq!(snap.queued[0].age, HOUR);
        assert_eq!(snap.free_nodes, 0);
    }

    #[test]
    fn step_is_incremental_run_until() {
        let mut a = sim(2);
        let mut b = sim(2);
        let trace = vec![
            job(1, 0, 1, HOUR, HOUR),
            job(2, 30, 2, HOUR, 2 * HOUR),
            job(3, 60, 1, 2 * HOUR, 2 * HOUR),
        ];
        a.load_trace(&trace);
        b.load_trace(&trace);
        a.run_until(5 * HOUR);
        for _ in 0..10 {
            b.step(HOUR / 2);
        }
        assert_eq!(a.sample(), b.sample());
        assert_eq!(a.completed(), b.completed());
    }

    #[test]
    fn utilization_accounting_matches_by_hand() {
        let mut s = sim(2);
        // One 1-node job for 1h on a 2-node cluster, observed over 2h.
        s.load_trace(&[job(1, 0, 1, HOUR, HOUR)]);
        s.run_until(2 * HOUR);
        let m = s.metrics();
        // busy = 1 node × 1h = 3600 node-s; capacity = 2 × 7200.
        assert!((m.utilization - 3600.0 / 14400.0).abs() < 1e-9);
    }

    #[test]
    fn duplicate_ids_are_reassigned() {
        let mut s = sim(4);
        let a = s.submit(job(7, 0, 1, HOUR, HOUR));
        let b = s.submit(job(7, 0, 1, HOUR, HOUR));
        assert_eq!(a, 7);
        assert_ne!(b, 7);
        s.run_to_completion();
        assert_eq!(s.completed().len(), 2);
    }

    #[test]
    fn fairshare_pushes_hogs_back() {
        // User 1 monopolizes the cluster; then user 1 and user 2 submit
        // simultaneously — user 2 must start first.
        let mut s = sim(2);
        let mut hog = job(1, 0, 2, 10 * HOUR, 10 * HOUR);
        hog.user = 1;
        s.load_trace(&[hog]);
        s.run_until(10 * HOUR);
        let mut j_hog = job(2, 0, 2, HOUR, HOUR);
        j_hog.user = 1;
        let mut j_new = job(3, 0, 2, HOUR, HOUR);
        j_new.user = 2;
        s.submit(j_hog);
        s.submit(j_new);
        s.run_to_completion();
        let done = s.completed();
        let start_hog = done.iter().find(|j| j.id == 2).unwrap().start.unwrap();
        let start_new = done.iter().find(|j| j.id == 3).unwrap().start.unwrap();
        assert!(
            start_new < start_hog,
            "fresh user should preempt hog in queue order"
        );
    }

    #[test]
    fn runtime_capped_at_timelimit() {
        let mut s = sim(1);
        let mut j = job(1, 0, 1, 10 * HOUR, HOUR);
        j.runtime = 10 * HOUR; // claims 10h but limit is 1h
        s.load_trace(&[j]);
        s.run_to_completion();
        let done = s.completed();
        assert_eq!(done[0].end, Some(HOUR), "killed at the wall-clock limit");
    }

    #[test]
    fn non_positive_step_is_a_no_op() {
        let mut s = sim(2);
        s.load_trace(&[job(1, 50, 1, HOUR, HOUR)]);
        s.step(100);
        let before = s.sample();
        s.step(0);
        s.step(-3600);
        assert_eq!(s.now(), 100, "clock must not move");
        assert_eq!(s.sample(), before, "state must be untouched");
        // The event order survives: the run still completes normally.
        s.run_to_completion();
        assert_eq!(s.completed().len(), 1);
    }

    #[test]
    fn reset_restores_an_idle_cluster() {
        let mut s = sim(4);
        s.load_trace(&[job(1, 0, 2, HOUR, HOUR)]);
        s.run_until(30 * 60);
        assert!(s.is_active());
        s.reset();
        assert_eq!(s.now(), 0);
        assert_eq!(s.free_nodes(), 4);
        assert!(!s.is_active());
        assert!(s.completed().is_empty());
        // Fully reusable after reset.
        s.load_trace(&[job(1, 10, 1, HOUR, HOUR)]);
        s.run_to_completion();
        assert_eq!(s.completed().len(), 1);
    }

    #[test]
    fn is_active_tracks_outstanding_work() {
        let mut s = sim(1);
        assert!(!s.is_active());
        s.load_trace(&[job(1, 100, 1, HOUR, HOUR)]);
        assert!(s.is_active());
        s.run_to_completion();
        assert!(!s.is_active());
    }

    #[test]
    fn node_crash_and_recovery_track_capacity() {
        let mut s = sim(2);
        s.events.push(Event::new(10, EventKind::NodeDown, 0));
        s.events.push(Event::new(20, EventKind::NodeUp, 0));
        s.run_until(15);
        assert_eq!(s.down_nodes(), 1);
        assert_eq!(s.free_nodes(), 1);
        assert_eq!(s.available_nodes(), 1);
        let snap = s.sample();
        assert_eq!(snap.down_nodes, 1);
        assert_eq!(snap.busy_nodes(), 0, "idle node absorbed the crash");
        s.run_until(25);
        assert_eq!(s.down_nodes(), 0);
        assert_eq!(s.free_nodes(), 2);
        let stats = s.fault_stats();
        assert_eq!((stats.node_crashes, stats.node_recoveries), (1, 1));
        assert_eq!(stats.evictions, 0, "nothing was running");
    }

    #[test]
    fn crash_evicts_running_job_which_retries_after_recovery() {
        let mut s = sim(1);
        s.load_trace(&[job(1, 0, 1, HOUR, 2 * HOUR)]);
        s.events.push(Event::new(100, EventKind::NodeDown, 0));
        s.events.push(Event::new(200, EventKind::NodeUp, 0));
        s.run_to_completion();
        // Evicted at 100, re-queued at 100 + 60 s backoff, but no capacity
        // until the node recovers at 200 — so the retry starts at 200 and
        // runs its full hour.
        let done = s.completed();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].start, Some(200));
        assert_eq!(done[0].end, Some(200 + HOUR));
        assert_eq!(done[0].submit, 0, "retry keeps the original submit");
        let stats = s.fault_stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.retries, 1);
        assert_eq!(stats.retry_successes, 1);
        assert_eq!(stats.failed_jobs, 0);
        let jf = s.job_faults(1);
        assert_eq!(jf.evictions, 1);
        assert_eq!(jf.downtime, 100, "evicted at 100, restarted at 200");
        assert_eq!(s.recent_evictions(DAY), 1);
    }

    /// The pending table is a copy of arena fields taken at arrival; a
    /// fault retry is the one arrival whose row is not the newest (its
    /// `submit` predates its neighbours'). What `sample_into` and
    /// `user_usage` stream from the table must be what the arena says.
    #[test]
    fn retry_row_matches_the_arena() {
        let mut s = sim(2);
        let mut other = job(4, 20, 1, HOUR, 3 * HOUR);
        other.user = 2;
        s.load_trace(&[
            job(1, 0, 1, 4 * HOUR, 5 * HOUR),
            job(2, 5, 1, 4 * HOUR, 6 * HOUR),
            job(3, 10, 2, HOUR, 2 * HOUR),
            other,
        ]);
        // Jobs 1 and 2 fill the cluster; the crash evicts job 2 (the later
        // starter), which re-queues at 160 behind jobs 3 and 4.
        s.events.push(Event::new(100, EventKind::NodeDown, 0));
        s.events.push(Event::new(3 * HOUR, EventKind::NodeUp, 0));
        s.run_until(200);
        assert_eq!(s.job_faults(2).evictions, 1);

        let snap = s.sample();
        let ids: Vec<u64> = snap.queued.iter().map(|q| q.id).collect();
        assert_eq!(ids, [3, 4, 2], "the retry re-enters at the back");
        assert!(snap.queued[2].submit < snap.queued[0].submit);
        assert_eq!(snap.queued[2].age, 195, "age runs from the first submit");

        let from_arena: Vec<QueuedJobView> = s
            .pending
            .rows()
            .iter()
            .map(|row| {
                let j = &s.jobs[row.idx];
                assert_eq!(j.status, JobStatus::Pending);
                assert_eq!(row.user_slot, j.user_slot);
                QueuedJobView {
                    id: j.record.id,
                    nodes: j.record.nodes,
                    submit: j.record.submit,
                    age: s.now - j.record.submit,
                    timelimit: j.record.timelimit,
                    user: j.record.user,
                }
            })
            .collect();
        assert_eq!(snap.queued, from_arena);
        for user in [1, 2, 3] {
            let queued: Vec<&SimJob> = s
                .jobs
                .iter()
                .filter(|j| j.status == JobStatus::Pending && j.record.user == user)
                .collect();
            let usage = s.user_usage(user);
            assert_eq!(usage.queued, queued.len(), "user {user}");
            let nodes: u64 = queued.iter().map(|j| u64::from(j.record.nodes)).sum();
            assert_eq!(usage.queued_nodes, nodes, "user {user}");
        }
        assert_eq!(s.user_usage(1).queued, 2, "job 3 and the retry");

        // The retry then starts from its row like any other job.
        s.run_to_completion();
        assert_eq!(s.completed().len(), 4);
        assert_eq!(s.fault_stats().retry_successes, 1);
    }

    /// The fair-share tracker counts queued jobs per user: the active
    /// slots must be exactly the pending rows' slots, with matching counts,
    /// through arrivals, starts, an eviction and its retry, `reset()` and a
    /// `clone_from` into a used simulator.
    #[test]
    fn active_slots_follow_the_queue() {
        fn check(s: &mut Simulator) {
            let slots = s.pending.rows().slots();
            assert!(s.fairshare.counts_match(slots), "at t={}", s.now);
        }
        let trace: Vec<JobRecord> = (0..12u32)
            .map(|i| {
                let mut j = job(u64::from(i) + 1, i64::from(i) * 60, 1, HOUR, 2 * HOUR);
                j.user = i % 3;
                j
            })
            .collect();
        let mut s = sim(2);
        s.load_trace(&trace);
        s.events.push(Event::new(90, EventKind::NodeDown, 0));
        s.events.push(Event::new(3 * HOUR, EventKind::NodeUp, 0));
        check(&mut s);
        for t in [30, 61, 95, 200, HOUR, 2 * HOUR + 1, 4 * HOUR] {
            s.run_until(t);
            check(&mut s);
        }
        assert_eq!(
            s.fault_stats().retries,
            1,
            "the crash evicted a job that retried"
        );
        assert!(!s.pending.is_empty(), "the queue is live");

        let mut used = sim(2);
        used.load_trace(&trace[..5]);
        used.run_until(7 * HOUR);
        used.clone_from(&s);
        check(&mut used);
        used.run_to_completion();
        s.run_to_completion();
        check(&mut used);
        assert_eq!(used.completed(), s.completed());

        s.reset();
        check(&mut s);
        assert_eq!(s.fairshare.factors().len(), 0, "reset forgets every slot");
        s.load_trace(&trace);
        s.run_until(HOUR);
        check(&mut s);
    }

    #[test]
    fn transient_failure_retries_and_completes() {
        // Pick a job id whose first attempt dies but whose second survives,
        // so the retry path ends in a completion.
        let fm = FaultModel {
            job_fail_prob: 0.5,
            seed: 7,
            ..FaultModel::none()
        };
        let id = (1..500u64)
            .find(|&id| fm.job_fails(id, 1).is_some() && fm.job_fails(id, 2).is_none())
            .expect("some id fails once then succeeds");
        let mut cfg = SimConfig::new(1);
        cfg.faults = fm;
        let mut s = Simulator::new(cfg);
        s.load_trace(&[job(id, 0, 1, HOUR, 2 * HOUR)]);
        s.run_to_completion();
        let done = s.completed();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, id);
        let end = done[0].end.unwrap();
        assert!(end > HOUR, "a failed first attempt must delay completion");
        let stats = s.fault_stats();
        assert_eq!(stats.job_failures, 1);
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.retry_successes, 1);
        assert_eq!(s.metrics().failed_jobs, 0);
    }

    #[test]
    fn exhausted_retries_fail_terminally() {
        let mut cfg = SimConfig::new(1);
        cfg.faults = FaultModel {
            job_fail_prob: 1.0, // every attempt dies mid-run
            seed: 3,
            ..FaultModel::none()
        };
        cfg.retry.max_attempts = 2;
        let mut s = Simulator::new(cfg);
        s.load_trace(&[job(1, 0, 1, HOUR, 2 * HOUR)]);
        s.run_to_completion();
        assert!(s.completed().is_empty());
        assert!(matches!(s.job_status(1), Some(JobStatus::Failed { .. })));
        let stats = s.fault_stats();
        assert_eq!(stats.evictions, 2, "both attempts died");
        assert_eq!(stats.retries, 1, "only the first eviction may retry");
        assert_eq!(stats.failed_jobs, 1);
        assert_eq!(s.metrics().failed_jobs, 1);
        assert_eq!(s.job_faults(1).evictions, 2);
    }

    #[test]
    fn crash_victim_is_the_most_recently_started_job() {
        // Two 1-node jobs; the second starts later. A crash at t=100 must
        // evict the late starter (least sunk work), not the early one.
        let mut s = sim(2);
        s.load_trace(&[job(1, 0, 1, HOUR, 2 * HOUR), job(2, 50, 1, HOUR, 2 * HOUR)]);
        s.events.push(Event::new(100, EventKind::NodeDown, 0));
        s.events.push(Event::new(150, EventKind::NodeUp, 0));
        s.run_to_completion();
        assert_eq!(s.job_faults(1).evictions, 0);
        assert_eq!(s.job_faults(2).evictions, 1);
        let done = s.completed();
        let j1 = done.iter().find(|j| j.id == 1).unwrap();
        assert_eq!(j1.end, Some(HOUR), "survivor is undisturbed");
    }

    #[test]
    fn faultless_config_leaves_event_queue_empty() {
        let s = sim(8);
        assert!(s.events.is_empty(), "FaultModel::none() loads no tape");
        assert_eq!(s.fault_stats(), FaultStats::default());
        assert_eq!(s.available_nodes(), 8);
        assert_eq!(s.recent_evictions(DAY), 0);
    }

    #[test]
    fn fault_schedule_survives_reset() {
        let mut cfg = SimConfig::new(4);
        cfg.faults = FaultModel::severe(11);
        let mut a = Simulator::new(cfg.clone());
        let trace: Vec<_> = (0..40u32)
            .map(|i| job(u64::from(i) + 1, i64::from(i) * 600, 2, 3 * HOUR, 4 * HOUR))
            .collect();
        a.load_trace(&trace);
        a.run_to_completion();
        let first = (a.completed(), a.fault_stats(), a.metrics());
        a.reset();
        a.load_trace(&trace);
        a.run_to_completion();
        assert_eq!(a.completed(), first.0, "reset replays the same crashes");
        assert_eq!(a.fault_stats(), first.1);
        assert_eq!(a.metrics(), first.2);
        assert!(first.1.node_crashes > 0, "severe model must actually crash");
    }

    fn hetero_sim(nodes: u32, hetero: crate::hetero::HeteroModel) -> Simulator {
        let mut cfg = SimConfig::new(nodes);
        cfg.hetero = hetero;
        cfg.validate().unwrap();
        Simulator::new(cfg)
    }

    #[test]
    fn fast_pool_shortens_runtimes() {
        use crate::hetero::{HeteroModel, NodePool};
        // Contention 0 isolates the pure pool-speed scaling: the first job
        // fills the double-speed pool and finishes in half its trace
        // runtime; the second lands on the baseline pool.
        let m = HeteroModel::with_pools(
            vec![NodePool::new("a100", 2, 2.0), NodePool::new("v100", 6, 1.0)],
            0.0,
            1,
        );
        let mut s = hetero_sim(8, m);
        s.load_trace(&[job(1, 0, 2, HOUR, 2 * HOUR), job(2, 0, 2, HOUR, 2 * HOUR)]);
        s.run_to_completion();
        let done = s.completed();
        let j1 = done.iter().find(|j| j.id == 1).unwrap();
        let j2 = done.iter().find(|j| j.id == 2).unwrap();
        assert_eq!(j1.end, Some(HOUR / 2), "a100 runs at 2x");
        assert_eq!(j2.end, Some(HOUR), "v100 is baseline speed");
        assert_eq!(s.pool_free(), vec![2, 6], "pools drain back to full");
        assert_eq!(s.pool_total(), vec![2, 6]);
        assert_eq!(s.contended_running(), 0);
        assert_eq!(s.hetero_stats().placements, 2);
        assert_eq!(s.hetero_stats().span_placements, 0);
    }

    #[test]
    fn spanning_placements_draw_a_contention_slowdown() {
        use crate::hetero::{HeteroModel, NodePool};
        // Equal-speed pools, contention on: a job wider than any single
        // pool must span, draw a slowdown, and show up in the contended
        // counter while it runs.
        let m = HeteroModel::with_pools(
            vec![NodePool::new("a", 2, 1.0), NodePool::new("b", 6, 1.0)],
            1.0,
            7,
        );
        let mut s = hetero_sim(8, m.clone());
        s.load_trace(&[job(1, 0, 8, HOUR, 3 * HOUR)]);
        s.step(1);
        assert_eq!(s.contended_running(), 1);
        assert_eq!(s.sample().contended_running, 1);
        s.run_to_completion();
        let stats = s.hetero_stats();
        assert_eq!(stats.span_placements, 1);
        assert_eq!(stats.slowdowns, 1);
        assert_eq!(s.contended_running(), 0, "completion releases the flag");
        let expected = crate::hetero::scale_runtime(HOUR, m.slowdown(1, 1));
        let done = s.completed();
        assert_eq!(done[0].end, Some(expected), "slowdown replays the draw");
        assert!(expected > HOUR);
    }

    #[test]
    fn node_crash_evicts_within_the_crashed_pool() {
        use crate::hetero::{HeteroModel, NodePool};
        // Homogeneous LIFO would evict the most recently started job
        // (job 2); pool-aware eviction must pick the job actually holding
        // nodes in the crashed pool (job 1 on the a100 node 0).
        let m = HeteroModel::with_pools(
            vec![NodePool::new("a100", 1, 1.0), NodePool::new("v100", 1, 1.0)],
            0.0,
            1,
        );
        let mut s = hetero_sim(2, m);
        s.load_trace(&[
            job(1, 0, 1, 2 * HOUR, 3 * HOUR),
            job(2, 50, 1, 2 * HOUR, 3 * HOUR),
        ]);
        s.events.push(Event::new(100, EventKind::NodeDown, 0));
        s.events.push(Event::new(200, EventKind::NodeUp, 0));
        s.run_to_completion();
        assert_eq!(s.job_faults(1).evictions, 1, "pool-0 holder is the victim");
        assert_eq!(s.job_faults(2).evictions, 0, "later starter survives");
        assert_eq!(s.pool_free(), vec![1, 1]);
    }

    #[test]
    fn hetero_and_fault_tapes_both_survive_reset() {
        let mut cfg = SimConfig::new(8);
        cfg.hetero = crate::hetero::HeteroModel::balanced(8, 5);
        cfg.faults = FaultModel::severe(11);
        cfg.validate().unwrap();
        let mut s = Simulator::new(cfg);
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
