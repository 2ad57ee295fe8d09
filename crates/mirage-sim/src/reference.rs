//! Tick-driven reference simulator.
//!
//! Stands in for the "standard Slurm simulator" ([3, 44] in the paper) that
//! the fast simulator is validated against in §5.2. It is the same cluster
//! under a different clock: [`ReferenceSimulator`] owns a
//! [`Simulator`] — one job arena, queue, fault/retry/pool ledger and
//! scheduling pass for both — and drives it on the cadence of a production
//! `slurmctld`:
//!
//! * the **main scheduling pass** (strict priority order, no backfill) runs
//!   every `sched_interval` seconds,
//! * the **backfill pass** runs every `backfill_interval` seconds,
//! * job starts therefore happen only on scheduler ticks, even though
//!   completions, crashes and recoveries take effect at their exact
//!   instants.
//!
//! What a fidelity comparison measures is therefore exactly that
//! difference — passes on a cadence against passes at events — and the
//! overhead gap (§5.2: 3–26×) is the cost of walking every tick and
//! running every due pass over the whole queue, where the event clock
//! leaps between events and skips passes that cannot start anything.

use std::ops::Deref;

use mirage_trace::JobRecord;
use serde::{Deserialize, Serialize};

use crate::backfill::BackfillPolicy;
use crate::fault::{FaultModel, RetryPolicy};
use crate::hetero::HeteroModel;
use crate::priority::PriorityWeights;
use crate::simulator::{SimConfig, Simulator};

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

/// Tick-driven Slurm simulator used as the fidelity baseline: a
/// [`Simulator`] whose scheduling passes run on `slurmctld`'s cadences
/// instead of at events.
///
/// Every read — `now`, `sample_into`, `job_status`, `metrics`,
/// `completed`, `user_usage`, the fault and pool statistics — is the
/// cluster's own, through [`Deref`]. There is deliberately no `DerefMut`:
/// time moves only through this type's tick clock.
#[derive(Debug)]
pub struct ReferenceSimulator {
    /// Boxed: inline it makes [`crate::AnyBackend::Tick`] a quarter
    /// larger than `Event` (clippy's `large_enum_variant`).
    cfg: Box<ReferenceConfig>,
    cluster: Simulator,
    last_sched: i64,
    last_backfill: i64,
}

/// "Long ago" without risking i64 overflow in cadence checks.
const NEVER: i64 = i64::MIN / 4;

impl Clone for ReferenceSimulator {
    fn clone(&self) -> Self {
        Self {
            cfg: self.cfg.clone(),
            cluster: self.cluster.clone(),
            ..*self
        }
    }

    /// Restores `source`'s cluster and cadence stamps in place (the
    /// cluster's restore keeps its buffers; see [`Simulator`]'s).
    fn clone_from(&mut self, source: &Self) {
        let Self {
            cfg,
            cluster,
            last_sched,
            last_backfill,
        } = self;
        if *cfg != source.cfg {
            cfg.clone_from(&source.cfg);
        }
        cluster.clone_from(&source.cluster);
        *last_sched = source.last_sched;
        *last_backfill = source.last_backfill;
    }
}

impl Deref for ReferenceSimulator {
    type Target = Simulator;

    fn deref(&self) -> &Simulator {
        &self.cluster
    }
}

impl ReferenceSimulator {
    /// Creates an idle cluster at time 0. A non-`none` fault model lays
    /// out its full crash/recovery tape up front (the tape the event
    /// clock replays for the same model and seed).
    pub fn new(cfg: ReferenceConfig) -> Self {
        let cluster = Simulator::new(SimConfig {
            nodes: cfg.nodes,
            weights: cfg.weights,
            // Each pass is handed its policy; the cluster's own is unused.
            backfill: cfg.backfill,
            sched_depth: usize::MAX,
            faults: cfg.faults,
            retry: cfg.retry,
            hetero: cfg.hetero.clone(),
        });
        Self {
            cfg: Box::new(cfg),
            cluster,
            last_sched: NEVER,
            last_backfill: NEVER,
        }
    }

    /// Returns to an idle cluster at time 0 with the same configuration.
    pub fn reset(&mut self) {
        self.cluster.reset();
        self.last_sched = NEVER;
        self.last_backfill = NEVER;
    }

    /// Loads future arrivals. Ids are preserved when unique, otherwise
    /// reassigned.
    pub fn load_trace(&mut self, jobs: &[JobRecord]) {
        self.cluster.load_trace(jobs);
    }

    /// Submits a job *now* (the agent-facing call): the job's submit time
    /// is overridden to the current instant. Returns the id under which
    /// the simulator tracks it.
    pub fn submit(&mut self, job: JobRecord) -> u64 {
        self.cluster.submit(job)
    }

    /// Simulator configuration.
    pub fn config(&self) -> &ReferenceConfig {
        &self.cfg
    }

    /// Advances simulated time by `dt` seconds (non-positive `dt` is a
    /// no-op).
    pub fn step(&mut self, dt: i64) {
        if dt > 0 {
            self.run_until(self.now() + dt);
        }
    }

    /// Whether any work remains (future, queued or running).
    pub fn is_active(&self) -> bool {
        self.cluster.has_unresolved_jobs()
    }

    /// Runs tick-by-tick until `t_end`.
    pub fn run_until(&mut self, t_end: i64) {
        while self.now() < t_end {
            let next = (self.now() + self.cfg.tick).min(t_end);
            self.advance_tick(next);
        }
    }

    /// Runs until all loaded jobs are done, failed or rejected.
    pub fn run_to_completion(&mut self) {
        while self.is_active() {
            let next = self.now() + self.cfg.tick;
            self.advance_tick(next);
        }
    }

    /// One tick: the cluster fires the tick's events at their exact
    /// instants and in causal order (nodes free when jobs end, crashes
    /// evict from what is running then), but starts wait for the passes
    /// that are due at the tick boundary.
    fn advance_tick(&mut self, tick_end: i64) {
        self.cluster.fire_events_until(tick_end);
        let run_main = tick_end - self.last_sched >= self.cfg.sched_interval;
        let run_bf = tick_end - self.last_backfill >= self.cfg.backfill_interval;
        if run_main {
            self.last_sched = tick_end;
            self.cluster.schedule_pass(BackfillPolicy::None);
        }
        if run_bf {
            self.last_backfill = tick_end;
            self.cluster.schedule_pass(self.cfg.backfill);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::JobStatus;
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

    /// Node crashes only: no transient failure muddies an eviction count.
    fn crashes_only(seed: u64) -> FaultModel {
        FaultModel {
            job_fail_prob: 0.0,
            ..FaultModel::severe(seed)
        }
    }

    #[test]
    fn crash_inside_a_tick_sees_only_nodes_freed_before_it() {
        let mut cfg = ReferenceConfig::new(4);
        cfg.faults = crashes_only(11);
        let tape = cfg.faults.node_schedule(cfg.nodes);
        let crash = tape
            .iter()
            .find(|e| !e.up && e.time % cfg.tick != 0)
            .expect("some crash falls strictly inside a tick")
            .time;
        assert_eq!(crash, tape[0].time, "nothing crashes before it");
        // One job holds every node from the first pass until a second
        // after the crash, inside the crash's tick: the nodes it frees are
        // not there yet when the crash picks between a free node and a
        // victim.
        let first_pass = cfg.tick;
        let tick_end = crash - crash % cfg.tick + cfg.tick;
        assert!(first_pass < crash);
        let mut s = ReferenceSimulator::new(cfg);
        s.load_trace(&[job(1, 0, 4, crash + 1 - first_pass, 30 * 24 * HOUR)]);
        s.run_until(tick_end);
        assert_eq!(
            s.fault_stats().evictions,
            1,
            "no node was free at the crash"
        );
        assert_eq!(s.job_faults(1).evictions, 1);
    }

    #[test]
    fn run_to_completion_stops_with_the_last_job() {
        let mut cfg = ReferenceConfig::new(4);
        cfg.faults = crashes_only(11);
        cfg.retry.max_attempts = 1;
        let tick = cfg.tick;
        let crash = cfg.faults.node_schedule(cfg.nodes)[0].time;
        assert!(crash > tick, "the job must be running when the node dies");
        let mut s = ReferenceSimulator::new(cfg);
        // A month-long job on every node: the first crash fails it for
        // good, stranding its completion event a month out.
        s.load_trace(&[job(1, 0, 4, 30 * 24 * HOUR, 30 * 24 * HOUR)]);
        s.run_to_completion();
        assert_eq!(
            s.job_status(1),
            Some(JobStatus::Failed {
                start: tick,
                end: crash
            })
        );
        assert!(!s.is_active());
        assert!(s.now() - crash <= tick, "ran on to t = {}", s.now());
    }

    #[test]
    fn fast_pool_shortens_runtimes_on_tick_cadence() {
        use crate::hetero::{HeteroModel, NodePool};
        let mut cfg = ReferenceConfig::new(8);
        cfg.hetero = HeteroModel::with_pools(
            vec![NodePool::new("a100", 2, 2.0), NodePool::new("v100", 6, 1.0)],
            0.0,
            1,
        );
        cfg.validate().unwrap();
        let mut s = ReferenceSimulator::new(cfg);
        s.load_trace(&[job(1, 0, 2, HOUR, 2 * HOUR), job(2, 0, 2, HOUR, 2 * HOUR)]);
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
