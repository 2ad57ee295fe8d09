//! `replay_congested`: the `serve_heavy` trace through the simulator in
//! bulk — `reset()` + `load_trace`, then the whole trace a simulated day
//! at a time (`run_until`), then `run_to_completion` for the tail.
//!
//! Uses `sim` differently from serving (one long run, no snapshots, no
//! 600 s cadence), so a gain for one use that costs the other shows.
//! `nn` and `rl` do nothing here.
//!
//! Work unit: one simulator event (arrival or completion). Op: one
//! simulated day of replay, so p99 is the most congested day.

use std::time::Instant;

use mirage::sim::fidelity::compare;
use mirage::sim::{
    ClusterBackend, ClusterSnapshot, ReferenceConfig, ReferenceSimulator, SimConfig, SimMetrics,
    Simulator,
};
use mirage::trace::{ClusterProfile, JobRecord, DAY, MONTH, WEEK};

use super::{ms_since, part_of, synth_trace, Digest, Metrics, SliceOut, SynthTrace, Workload};
use crate::estimate::Part;
use crate::kernels;
use crate::names::*;
use crate::span;
use crate::spans::Tracer;

/// Simulated days the 3-month trace submits over.
const TRACE_DAYS: i64 = 3 * MONTH / DAY;

pub struct Replay {
    seed: u64,
    trace: SynthTrace,
    sim: Simulator,
    metrics: Option<SimMetrics>,
    conservation_breaks: u64,
}

impl Replay {
    pub fn setup(seed: u64) -> Self {
        let trace = synth_trace(ClusterProfile::rtx(), seed, 3, 1.3);
        Self {
            seed,
            sim: Simulator::new(SimConfig::new(trace.profile.nodes)),
            trace,
            metrics: None,
            conservation_breaks: 0,
        }
    }

    fn finish_slice(&mut self) -> SliceOut {
        let m = self.sim.metrics();
        let loaded = self.trace.jobs.len();
        if m.completed_jobs + m.rejected_jobs + m.failed_jobs != loaded {
            self.conservation_breaks += 1;
        }
        let mut d = Digest::default();
        for v in [m.completed_jobs, m.rejected_jobs, m.failed_jobs] {
            d.push(v as u64);
        }
        d.push(m.makespan as u64);
        for v in [m.avg_wait, m.avg_jct, m.utilization] {
            d.push_f64(v);
        }
        let work = (loaded + m.completed_jobs) as u64;
        self.metrics = Some(m);
        SliceOut {
            work,
            attempted: loaded as u64,
            digest: d.0,
        }
    }
}

/// Events per host second of one bulk replay on a fresh backend.
fn replay_events_per_s<B: ClusterBackend>(backend: &mut B, jobs: &[JobRecord]) -> f64 {
    backend.load_trace(jobs);
    let t = Instant::now();
    backend.run_to_completion();
    let secs = t.elapsed().as_secs_f64();
    (jobs.len() + backend.metrics().completed_jobs) as f64 / secs
}

impl Workload for Replay {
    /// One part for `reset` + `load_trace`, one per simulated day, one
    /// for the tail after the last arrival.
    fn slice(&mut self, parts: &mut Vec<Part>) -> SliceOut {
        part_of(parts, || {
            self.sim.reset();
            self.sim.load_trace(&self.trace.jobs);
        });
        for day in 1..=TRACE_DAYS {
            part_of(parts, || self.sim.run_until(day * DAY));
        }
        part_of(parts, || self.sim.run_to_completion());
        self.finish_slice()
    }

    fn traced_slice(&mut self, t: &mut Tracer) -> SliceOut {
        t.set_op(0);
        t.enter(BENCH_OP);
        span!(t, SIM_RESET, self.sim.reset());
        span!(t, SIM_LOAD_TRACE, self.sim.load_trace(&self.trace.jobs));
        for day in 1..=TRACE_DAYS {
            span!(t, SIM_RUN_UNTIL, self.sim.run_until(day * DAY));
        }
        span!(t, SIM_RUN_TO_COMPLETION, self.sim.run_to_completion());
        t.exit();
        self.finish_slice()
    }

    fn check(&mut self, failures: &mut Vec<String>) {
        if self.conservation_breaks > 0 {
            failures.push(format!(
                "{} replays lost jobs: completed + rejected + failed != loaded",
                self.conservation_breaks
            ));
        }
        let failed = self.metrics.as_ref().map_or(0, |m| m.failed_jobs);
        if failed > 0 {
            failures.push(format!("{failed} jobs failed with faults off"));
        }
    }

    fn layer_metrics(&mut self, out: &mut Metrics) {
        let m = self.metrics.clone().expect("layer_metrics follows a slice");
        out.insert("trace.generate.ms", self.trace.generate_ms);
        out.insert("trace.clean.ms", self.trace.clean_ms);
        out.insert("sim.jobs_completed.count", m.completed_jobs as f64);
        out.insert("sim.avg_wait_h", m.avg_wait / 3600.0);
        out.insert("sim.utilization", m.utilization);
        // Mean day plus the tail, over every event of the replay.
        let run_ns = out
            .get("sim.run_until.ns")
            .map_or(0.0, |ns| ns * TRACE_DAYS as f64)
            + out
                .get("sim.run_to_completion.ms")
                .map_or(0.0, |ms| ms * 1e6);
        out.insert(
            "sim.ns_per_event",
            run_ns / (self.trace.jobs.len() + m.completed_jobs) as f64,
        );
        let t = Instant::now();
        let completed = self.sim.completed();
        out.insert("sim.completed.ms", ms_since(t));

        // The queue the scheduling kernels see mid-trace, where the
        // backlog is established.
        self.sim.reset();
        self.sim.load_trace(&self.trace.jobs);
        self.sim.run_until(45 * DAY);
        let mut snap = ClusterSnapshot::default();
        self.sim.sample_into(&mut snap);
        out.insert("sim.queue_depth.mean", snap.queued.len() as f64);
        out.insert("sim.running_jobs.mean", snap.running.len() as f64);
        kernels::sim_kernels(&snap, &self.trace.profile, out);

        // The same simulator on an uncongested trace, and the tick-driven
        // reference on a prefix of the congested one.
        let light = synth_trace(ClusterProfile::a100(), self.seed, 3, 0.5);
        let mut sim = Simulator::new(SimConfig::new(light.profile.nodes));
        out.insert(
            "sim.replay_light.events_per_s",
            replay_events_per_s(&mut sim, &light.jobs),
        );
        let prefix: Vec<JobRecord> = self
            .trace
            .jobs
            .iter()
            .filter(|j| j.submit < 2 * WEEK)
            .cloned()
            .collect();
        let mut tick = ReferenceSimulator::new(ReferenceConfig::new(self.trace.profile.nodes));
        out.insert(
            "sim.tick.events_per_s",
            replay_events_per_s(&mut tick, &prefix),
        );
        let mut fast = Simulator::new(SimConfig::new(self.trace.profile.nodes));
        fast.load_trace(&prefix);
        fast.run_to_completion();
        let report = compare(&fast.completed(), &tick.completed());
        let denom = report.avg_wait_reference.max(1.0);
        out.insert(
            "sim.fidelity.wait_err_frac",
            (report.avg_wait_fast - report.avg_wait_reference).abs() / denom,
        );
        std::hint::black_box(completed);
    }
}
