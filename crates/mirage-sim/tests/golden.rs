//! Golden digests of whole congested replays, none produced by the code
//! it certifies.
//!
//! * The three **event-clock** digests were captured on the commit before
//!   the scheduling pass stopped sorting the whole queue (PR 13) and are
//!   unchanged since.
//! * The three **tick-clock** digests (`golden_digest_tick_*`) were
//!   captured from the hand-written tick simulator PR 19 deleted — a
//!   second job arena, queue, fault/retry/pool ledger and scheduling pass
//!   beside `Simulator`'s — in a tree holding the PR 18 commit plus two
//!   fixes to that twin and nothing else: its tick fired all completions,
//!   then all node events, then all arrivals, so a crash was absorbed by
//!   a node freed *later* in the same tick (now merged in the event
//!   queue's `(time, kind, push order)`), and its `run_to_completion` ran
//!   on to the stranded completion entry of an evicted attempt (now stops
//!   with the last job). Neither fix touches a fault-free run: the plain
//!   digest is also the unfixed PR 18 twin's, whose other two read
//!   `0xdf3e_2836_06b4_bfb4` (2 741 completed) and `0x75d9_7f32_a0a8_c641`
//!   (2 667). The tick clock over `Simulator` landed against all three.
//!
//! The scheduling pass decides *which job starts when*; any change to the
//! priority order, its tie-breaks, the `sched_depth` truncation or the
//! backfill plan moves a start time somewhere in these traces and with it
//! the digest. Each digest folds every completed job's `(id, start, end)`
//! in completion order plus `metrics()`, `fault_stats()` and
//! `hetero_stats()`, so "bit-identical starts, start order and statistics"
//! is one `assert_eq!` per scenario. The plain and truncated event-clock
//! replays both run backlogs deeper than their `sched_depth`, so the two
//! digests pin the depth cut at 512 and at 32.

use mirage_sim::{
    ClusterBackend, FaultModel, HeteroModel, ReferenceConfig, ReferenceSimulator, SimConfig,
    Simulator,
};
use mirage_trace::{
    clean_trace, ClusterProfile, JobRecord, SynthConfig, TraceGenerator, HOUR, WEEK,
};

/// Three weeks of the RTX profile at 1.3× its arrival rate: the generator
/// seed is picked so the backlog is established inside the window (the
/// plain replay asserts the queue passes the default `sched_depth`, 512).
fn congested_trace() -> Vec<JobRecord> {
    let profile = ClusterProfile::rtx();
    let mut cfg = SynthConfig::new(profile.clone(), 11);
    cfg.months = Some(1);
    cfg.rate_scale = Some(1.3);
    let raw = TraceGenerator::new(cfg).generate();
    let mut jobs = clean_trace(&raw, profile.nodes).0;
    jobs.retain(|j| j.submit < 3 * WEEK);
    jobs
}

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
    fn push(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

fn event_clock(cfg: SimConfig) -> Simulator {
    cfg.validate().expect("golden configs are valid");
    Simulator::new(cfg)
}

fn tick_clock(cfg: ReferenceConfig) -> ReferenceSimulator {
    cfg.validate().expect("golden configs are valid");
    ReferenceSimulator::new(cfg)
}

/// Replays `trace` on `sim` an hour at a time over its `weeks` of
/// arrivals (so the deepest queue is observed), then to completion, and
/// digests everything the run exposes. Returns
/// `(digest, completed jobs, deepest queue)`.
fn replay<B: ClusterBackend>(mut sim: B, trace: &[JobRecord], weeks: i64) -> (u64, usize, usize) {
    sim.load_trace(trace);
    let mut deepest = 0;
    for hour in 1..=(weeks * WEEK / HOUR) {
        sim.run_until(hour * HOUR);
        deepest = deepest.max(sim.sample().queued.len());
    }
    sim.run_to_completion();

    let mut d = Digest::new();
    let completed = sim.completed();
    for j in &completed {
        d.push(j.id);
        d.push(j.start.expect("completed jobs have a start") as u64);
        d.push(j.end.expect("completed jobs have an end") as u64);
    }
    let m = sim.metrics();
    for v in [m.completed_jobs, m.rejected_jobs, m.failed_jobs] {
        d.push(v as u64);
    }
    d.push(m.makespan as u64);
    for v in [m.avg_wait, m.avg_jct, m.utilization] {
        d.push(v.to_bits());
    }
    let f = sim.fault_stats();
    for v in [
        f.node_crashes,
        f.node_recoveries,
        f.evictions,
        f.job_failures,
        f.retries,
        f.retry_successes,
        f.failed_jobs,
    ] {
        d.push(v);
    }
    let h = sim.hetero_stats();
    for v in [
        h.placements,
        h.span_placements,
        h.congested_placements,
        0,
        h.slowdowns,
    ] {
        d.push(v);
    }
    (d.0, completed.len(), deepest)
}

#[test]
fn golden_digest_congested_replay() {
    let trace = congested_trace();
    let cfg = SimConfig::new(84);
    // Deeper than the default `sched_depth`, so the digest pins its cut.
    let depth = cfg.sched_depth;
    let (digest, completed, deepest) = replay(event_clock(cfg), &trace, 3);
    assert!(
        deepest > depth,
        "queue only reached {deepest}, not past {depth}"
    );
    assert_eq!((digest, completed), (0xb3c7_4fb5_0ea2_b0d6, 6678));
}

#[test]
fn golden_digest_faults_and_pools() {
    let trace = congested_trace();
    let mut cfg = SimConfig::new(84);
    cfg.faults = FaultModel::severe(11);
    cfg.hetero = HeteroModel::scarce(84, 5);
    let (digest, completed, deepest) = replay(event_clock(cfg), &trace, 3);
    assert!(deepest > 100, "queue only reached {deepest}");
    assert_eq!((digest, completed), (0x26a8_95ae_5163_3ad6, 6376));
}

#[test]
fn golden_digest_truncated_depth() {
    let trace = congested_trace();
    let mut cfg = SimConfig::new(84);
    cfg.sched_depth = 32;
    let (digest, completed, deepest) = replay(event_clock(cfg), &trace, 3);
    assert!(deepest > 32, "backlog {deepest} never exceeded sched_depth");
    assert_eq!((digest, completed), (0x44b6_3313_622b_9c26, 6678));
}

/// The event clock restored mid-replay: the first time it is sent to
/// `at` or past it, its cluster is restored (`clone_from`) into a spare
/// simulator that ran another replay, and the run carries on there —
/// [`replay`] cannot tell.
struct RestoredMidway {
    live: Simulator,
    spare: Simulator,
    at: Option<i64>,
}

impl ClusterBackend for RestoredMidway {
    fn cluster(&self) -> &Simulator {
        &self.live
    }
    fn load_trace(&mut self, jobs: &[JobRecord]) {
        self.live.load_trace(jobs);
    }
    fn submit(&mut self, job: JobRecord) -> u64 {
        self.live.submit(job)
    }
    fn run_until(&mut self, t_end: i64) {
        self.live.run_until(t_end);
        if self.at.is_some_and(|at| t_end >= at) {
            self.spare.clone_from(&self.live);
            std::mem::swap(&mut self.live, &mut self.spare);
            self.at = None;
        }
    }
    fn run_to_completion(&mut self) {
        self.live.run_to_completion();
    }
    fn is_active(&self) -> bool {
        self.live.is_active()
    }
    fn reset(&mut self) {
        self.live.reset();
    }
}

/// A restore is exact: the faults-and-pools replay, restored into a dirty
/// simulator ten days in (backlog established, crashes and retries in
/// flight), reaches [`golden_digest_faults_and_pools`]'s committed digest.
#[test]
fn golden_digest_restored_mid_replay() {
    let trace = congested_trace();
    let mut cfg = SimConfig::new(84);
    cfg.faults = FaultModel::severe(11);
    cfg.hetero = HeteroModel::scarce(84, 5);
    let mut spare = event_clock(cfg.clone());
    spare.load_trace(&trace[..trace.len() / 3]);
    spare.run_until(3 * WEEK);
    let sim = RestoredMidway {
        live: event_clock(cfg),
        spare,
        at: Some(10 * 24 * HOUR),
    };
    let (digest, completed, deepest) = replay(sim, &trace, 3);
    assert!(deepest > 100, "queue only reached {deepest}");
    assert_eq!((digest, completed), (0x26a8_95ae_5163_3ad6, 6376));
}

/// The first week of [`congested_trace`]: the hand-written tick simulator
/// the tick digests were captured from needed ~4 s for it in release.
fn congested_week() -> Vec<JobRecord> {
    let mut jobs = congested_trace();
    jobs.retain(|j| j.submit < WEEK);
    jobs
}

#[test]
fn golden_digest_tick_congested_replay() {
    let trace = congested_week();
    let (digest, completed, deepest) = replay(tick_clock(ReferenceConfig::new(84)), &trace, 1);
    assert!(deepest > 100, "queue only reached {deepest}");
    assert_eq!((digest, completed), (0x0ada_71d5_58f8_102b, 2784));
}

#[test]
fn golden_digest_tick_faults() {
    let trace = congested_week();
    let mut cfg = ReferenceConfig::new(84);
    cfg.faults = FaultModel::severe(11);
    let (digest, completed, deepest) = replay(tick_clock(cfg), &trace, 1);
    assert!(deepest > 100, "queue only reached {deepest}");
    assert_eq!((digest, completed), (0xf905_7b38_8dd7_0f8e, 2737));
}

#[test]
fn golden_digest_tick_faults_and_pools() {
    let trace = congested_week();
    let mut cfg = ReferenceConfig::new(84);
    cfg.faults = FaultModel::severe(11);
    cfg.hetero = HeteroModel::scarce(84, 5);
    let (digest, completed, deepest) = replay(tick_clock(cfg), &trace, 1);
    assert!(deepest > 100, "queue only reached {deepest}");
    assert_eq!((digest, completed), (0xd400_61b8_c8d3_0c61, 2656));
}
