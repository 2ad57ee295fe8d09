//! Golden digests of whole congested replays, captured on the commit
//! before the scheduling pass stopped sorting the whole queue (PR 13) and
//! unchanged since.
//!
//! The scheduling pass decides *which job starts when*; any change to the
//! priority order, its tie-breaks, the `sched_depth` truncation or the
//! backfill plan moves a start time somewhere in these traces and with it
//! the digest. Each digest folds every completed job's `(id, start, end)`
//! in completion order plus `metrics()`, `fault_stats()` and
//! `hetero_stats()`, so "bit-identical starts, start order and statistics"
//! is one `assert_eq!` per scenario.

use mirage_sim::{FaultModel, HeteroModel, SimConfig, Simulator};
use mirage_trace::{
    clean_trace, ClusterProfile, JobRecord, SynthConfig, TraceGenerator, HOUR, WEEK,
};

/// Three weeks of the RTX profile at 1.3× its arrival rate: the generator
/// seed is picked so the backlog is established inside the window (the
/// test asserts the queue passes 100).
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

/// Replays `trace` under `cfg` an hour at a time (so the deepest queue is
/// observed) and digests everything the run exposes. Returns
/// `(digest, completed jobs, deepest queue)`.
fn replay(cfg: SimConfig, trace: &[JobRecord]) -> (u64, usize, usize) {
    cfg.validate().expect("golden configs are valid");
    let mut sim = Simulator::new(cfg);
    sim.load_trace(trace);
    let mut deepest = 0;
    for hour in 1..=(3 * WEEK / HOUR) {
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
        h.off_type_placements,
        h.slowdowns,
    ] {
        d.push(v);
    }
    (d.0, completed.len(), deepest)
}

#[test]
fn golden_digest_congested_replay() {
    let trace = congested_trace();
    let (digest, completed, deepest) = replay(SimConfig::new(84), &trace);
    assert!(deepest > 100, "queue only reached {deepest}");
    assert_eq!((digest, completed), (0xb3c7_4fb5_0ea2_b0d6, 6678));
}

#[test]
fn golden_digest_faults_and_pools() {
    let trace = congested_trace();
    let mut cfg = SimConfig::new(84);
    cfg.faults = FaultModel::severe(11);
    cfg.hetero = HeteroModel::scarce(84, 5);
    let (digest, completed, deepest) = replay(cfg, &trace);
    assert!(deepest > 100, "queue only reached {deepest}");
    assert_eq!((digest, completed), (0x26a8_95ae_5163_3ad6, 6376));
}

#[test]
fn golden_digest_truncated_depth() {
    let trace = congested_trace();
    let mut cfg = SimConfig::new(84);
    cfg.sched_depth = 32;
    let (digest, completed, deepest) = replay(cfg, &trace);
    assert!(deepest > 32, "backlog {deepest} never exceeded sched_depth");
    assert_eq!((digest, completed), (0x44b6_3313_622b_9c26, 6678));
}
