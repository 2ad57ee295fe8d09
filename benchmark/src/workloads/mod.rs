//! The six workloads. Each builds every input from the seed, runs
//! equal-work slices along the product's public API (`slice`), and can
//! run the same slice with spans on (`traced_slice`), recomposing the
//! product loop from public pieces where the product call is opaque.

use std::collections::BTreeMap;
use std::time::Instant;

use mirage::trace::{
    clean_trace, split_seed, splitmix64, ClusterProfile, JobRecord, SynthConfig, TraceGenerator,
};

use crate::estimate::Part;
use crate::spans::Tracer;

pub mod pipeline;
pub mod replay;
pub mod scenario;
pub mod serve;
pub mod train;

/// Metric name → value.
pub type Metrics = BTreeMap<&'static str, f64>;

/// What one slice did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SliceOut {
    /// Units of work completed (README, "Units per workload").
    pub work: u64,
    /// Operations attempted: episodes, replayed jobs, pipeline stages.
    pub attempted: u64,
    /// Digest of the slice's simulated statistics and outputs. Every
    /// slice of a workload repeats the same inputs, so it must repeat.
    pub digest: u64,
}

pub trait Workload {
    /// One untraced slice along the product path; appends its parts, the
    /// same parts in the same order every slice.
    fn slice(&mut self, parts: &mut Vec<Part>) -> SliceOut;

    /// The same slice with spans on. Must reproduce `slice`'s digest:
    /// that pins a recomposed loop to the product path.
    fn traced_slice(&mut self, t: &mut Tracer) -> SliceOut;

    /// Workload-specific output checks; appends one line per failure.
    fn check(&mut self, failures: &mut Vec<String>);

    /// Per-layer metrics that do not come from spans: set-up timings,
    /// simulated statistics, and public-kernel timings at the workload's
    /// own shapes. Called once, after the traced slices.
    fn layer_metrics(&mut self, out: &mut Metrics);
}

/// The workload called `name`, one of [`crate::names::WORKLOADS`].
pub fn build(name: &str, seed: u64) -> Box<dyn Workload> {
    match name {
        "serve_light" => Box::new(serve::Serve::setup(seed, false)),
        "serve_heavy" => Box::new(serve::Serve::setup(seed, true)),
        "replay_congested" => Box::new(replay::Replay::setup(seed)),
        "train_online" => Box::new(train::TrainOnline::setup(seed)),
        "paper_pipeline" => Box::new(pipeline::Pipeline::setup(seed)),
        "scenario_sweep" => Box::new(scenario::Scenarios::setup(seed)),
        _ => unreachable!("{name} is not in WORKLOADS"),
    }
}

/// FNV-1a over 64-bit words: the slice digest.
#[derive(Debug, Clone, Copy)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn push(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn push_f64(&mut self, v: f64) {
        self.push(v.to_bits());
    }
}

/// Seed of the trace generator's macro-scale load profile (month and
/// day campaign factors, burst episodes, maintenance windows).
///
/// A constant, not `--seed`: a 3-month trace is one draw from a
/// heavy-tailed congestion process, and across generator seeds the same
/// profile and arrival rate give mean queue depths from 40 to 9 000 and
/// replay times from 0.09 to 20 s (README, "Why the load profile is
/// pinned"). A workload has to stay the regime its name says, so the
/// profile draw is part of the workload's definition, like a dataset,
/// and `--seed` re-draws everything below it: arrival jitter, episode
/// starts, weights, exploration, sampling.
pub const REGIME_SEED: u64 = 11;

/// Each job's submit time moves later by a seeded draw from
/// `0..=SUBMIT_JITTER` seconds: a different trace for every seed (other
/// arrival order, other scheduling decisions), the same load profile.
const SUBMIT_JITTER: u64 = 300;

/// A generated, cleaned and jittered synthetic trace, with what making
/// it cost.
pub struct SynthTrace {
    pub profile: ClusterProfile,
    pub jobs: Vec<JobRecord>,
    pub generate_ms: f64,
    pub clean_ms: f64,
}

/// The paper's traces at smoke scale: `months` of `profile` at
/// `rate_scale` times its arrival rate on the pinned load profile,
/// cleaned for its partition, arrivals jittered by `seed`.
pub fn synth_trace(profile: ClusterProfile, seed: u64, months: u32, rate_scale: f64) -> SynthTrace {
    let mut cfg = SynthConfig::new(profile.clone(), REGIME_SEED);
    cfg.months = Some(months);
    cfg.rate_scale = Some(rate_scale);
    let t = Instant::now();
    let raw = TraceGenerator::new(cfg).generate();
    let generate_ms = ms_since(t);
    let t = Instant::now();
    let mut jobs = clean_trace(&raw, profile.nodes).0;
    let clean_ms = ms_since(t);
    let mut draw = split_seed(seed, 0);
    for j in &mut jobs {
        draw = splitmix64(draw);
        j.submit += (draw % (SUBMIT_JITTER + 1)) as i64;
    }
    jobs.sort_by_key(|j| (j.submit, j.id));
    for (i, j) in jobs.iter_mut().enumerate() {
        j.id = i as u64 + 1;
    }
    SynthTrace {
        profile,
        jobs,
        generate_ms,
        clean_ms,
    }
}

/// `n` episode starts on an even grid over `[lo, hi)`, each moved later
/// by a seeded draw of up to `jitter` seconds: every slice of every seed
/// samples the whole trace, so the mix of quiet and congested stretches
/// an episode sees does not depend on the draw.
pub fn grid_starts(lo: i64, hi: i64, n: usize, jitter: i64, seed: u64) -> Vec<i64> {
    let step = (hi - lo) / n as i64;
    let mut draw = seed;
    (0..n as i64)
        .map(|i| {
            draw = splitmix64(draw);
            lo + i * step + (draw % jitter as u64) as i64
        })
        .collect()
}

/// Times `run` as one part of a slice that is also one op.
pub fn part_of<R>(parts: &mut Vec<Part>, run: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let r = run();
    let ns = t.elapsed().as_nanos() as u64;
    parts.push(Part {
        ns,
        op_ns: vec![ns],
    });
    r
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Nanoseconds per call of `f`: `reps` calls in five batches after a
/// warm-up batch, fastest batch reported (the slice estimator's rule,
/// for the same reason: the machine's speed drifts).
pub fn time_ns(reps: u64, mut f: impl FnMut()) -> f64 {
    let per_batch = (reps / 5).max(1);
    let mut batch = || {
        let t = Instant::now();
        for _ in 0..per_batch {
            f();
        }
        t.elapsed().as_nanos() as f64 / per_batch as f64
    };
    batch();
    (0..5).map(|_| batch()).fold(f64::INFINITY, f64::min)
}
