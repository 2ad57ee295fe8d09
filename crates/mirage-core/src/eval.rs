//! Evaluation harness (§6 of the paper).
//!
//! Validation episodes are sampled from the held-out range; every method
//! runs the *same* episode (same trace window, same start instant), and
//! results are grouped by the cluster-load level observed under the
//! reactive baseline:
//!
//! * **heavy** — reactive queue wait > 12 h,
//! * **medium** — 2–12 h,
//! * **light** — < 2 h.
//!
//! Reported per method × load level: average interruption, average
//! overlap, and the zero-interruption episode fraction (the paper's
//! "jobs safeguarded with zero interruption").
//!
//! Until a policy acts, every method's episode at one start is the same
//! bytes: the backend reset, the trace window loaded, the warm-up replay,
//! the history window and the predecessor submission. So one loop here
//! warms each start **once** and runs every method (the implicit reactive
//! run included) on a working [`MultiServiceEnv`] restored from that warm
//! one: one warm-up per start instead of one per method, and every report
//! bit-identical to re-warming per method. It has five callers:
//! [`evaluate`], the chaos and hetero lanes
//! ([`crate::chaos::evaluate_chaos`], [`crate::hetero::evaluate_hetero`],
//! through the sweep they share),
//! [`crate::multiservice::evaluate_multiservice`], and §4.9.1 offline
//! collection ([`crate::train::collect_offline`], whose "methods" are the
//! reactive run and the split-point runs of each start). Single-service
//! methods decide through the engine's N = 1 decision context, exactly as
//! through [`EpisodeDriver`](crate::episode::EpisodeDriver).

use std::ops::AddAssign;

use mirage_sim::ClusterBackend;
use mirage_trace::{JobRecord, HOUR};
use serde::{Deserialize, Serialize};

use crate::episode::{EpisodeConfig, EpisodeResult};
use crate::multiservice::{MultiServiceConfig, MultiServiceEnv};
use crate::policy::{ProvisionPolicy, ReactivePolicy};
use crate::reward::{EpisodeOutcome, RewardShaper};
use crate::train::{episode_window, sample_episode_starts};

/// Cluster-load classification thresholds (§6: by reactive queue wait).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LoadLevel {
    /// Reactive wait below 2 h.
    Light,
    /// Reactive wait in [2 h, 12 h).
    Medium,
    /// Reactive wait of 12 h or more.
    Heavy,
}

impl LoadLevel {
    /// Classifies by the reactive baseline's queue wait.
    pub fn classify(reactive_wait: i64) -> Self {
        if reactive_wait >= 12 * HOUR {
            LoadLevel::Heavy
        } else if reactive_wait >= 2 * HOUR {
            LoadLevel::Medium
        } else {
            LoadLevel::Light
        }
    }

    /// Display name.
    pub fn label(&self) -> &'static str {
        match self {
            LoadLevel::Light => "light",
            LoadLevel::Medium => "medium",
            LoadLevel::Heavy => "heavy",
        }
    }

    /// All levels, heaviest first (the paper's figure order).
    pub fn all() -> [LoadLevel; 3] {
        [LoadLevel::Heavy, LoadLevel::Medium, LoadLevel::Light]
    }
}

/// One method's outcomes on one episode.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MethodOutcome {
    /// Method label.
    pub method: String,
    /// Episode outcome.
    pub outcome: EpisodeOutcome,
    /// Whether the method submitted proactively.
    pub proactive: bool,
}

/// One validation episode across all methods.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EpisodeRecord {
    /// Predecessor submission instant.
    pub t0: i64,
    /// Load level under the reactive baseline.
    pub load: LoadLevel,
    /// The reactive successor wait (the classification statistic).
    pub reactive_wait: i64,
    /// Per-method outcomes (same order as the evaluated method list).
    pub methods: Vec<MethodOutcome>,
}

/// Aggregate over episodes for one method at one load level.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MethodSummary {
    /// Method label.
    pub method: String,
    /// Load level.
    pub load: LoadLevel,
    /// Episodes aggregated.
    pub episodes: usize,
    /// Mean interruption, hours.
    pub avg_interruption_h: f64,
    /// Mean overlap, hours.
    pub avg_overlap_h: f64,
    /// Fraction of episodes with zero interruption.
    pub zero_interruption_frac: f64,
}

/// Full evaluation output.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EvalReport {
    /// Per-episode records.
    pub episodes: Vec<EpisodeRecord>,
    /// Method labels in evaluation order.
    pub method_names: Vec<String>,
}

/// Evaluation settings.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct EvalConfig {
    /// Episode shape (must match what the methods were trained for).
    pub episode: EpisodeConfig,
    /// Validation episodes to sample.
    pub n_episodes: usize,
    /// Start-sampling seed.
    pub seed: u64,
}

/// Runs every method over the same sampled validation episodes, on any
/// [`ClusterBackend`] that can be forked.
///
/// Each start is warmed once, on `backend` (reset, trace window, warm-up
/// replay, history, predecessor), and every method runs on a working
/// engine restored from that warm one. The working engine owns a clone of
/// the backend, made at the first restore and reused by every later one,
/// so one value hosts the whole evaluation and forking costs one more
/// backend's memory. The report is bit-identical to re-warming the
/// backend for every method.
///
/// The first method should be the reactive baseline; its successor wait
/// classifies each episode's load level. (If it is not, the reactive wait
/// is computed with an implicit extra run, on a restore like the rest.)
pub fn evaluate<B: ClusterBackend + Clone>(
    methods: &mut [Box<dyn ProvisionPolicy>],
    backend: &mut B,
    trace: &[JobRecord],
    range: (i64, i64),
    cfg: &EvalConfig,
) -> EvalReport {
    let starts = sample_episode_starts(range.0, range.1, &cfg.episode, cfg.n_episodes, cfg.seed);
    let method_names: Vec<String> = methods.iter().map(|m| m.name()).collect();
    let n = methods.len();
    let reactive = method_names.iter().position(|m| m == "reactive");
    let mut implicit = ReactivePolicy;
    let mut runs: Vec<&mut dyn ProvisionPolicy> = methods.iter_mut().map(|m| m.as_mut()).collect();
    if reactive.is_none() {
        runs.push(&mut implicit);
    }

    let mut results = Vec::with_capacity(starts.len() * runs.len());
    let single = MultiServiceConfig::single(&cfg.episode, RewardShaper::default());
    let window = |t0| episode_window(trace, t0, &cfg.episode);
    warm_once(
        std::slice::from_mut(backend),
        &starts,
        window,
        &single,
        &mut runs,
        |_, m, work| results.push(play_method(&mut **m, work)),
    );

    let episodes = starts
        .iter()
        .zip(results.chunks(runs.len()))
        .map(|(&t0, results)| {
            let reactive_wait = results[reactive.unwrap_or(n)].outcome.interruption;
            let methods = results[..n].iter().zip(&method_names);
            EpisodeRecord {
                t0,
                load: LoadLevel::classify(reactive_wait),
                reactive_wait,
                methods: methods
                    .map(|(r, name)| MethodOutcome {
                        method: name.clone(),
                        outcome: r.outcome,
                        proactive: r.submitted_by_policy,
                    })
                    .collect(),
            }
        })
        .collect();
    EvalReport {
        episodes,
        method_names,
    }
}

/// The one evaluation loop. For each start `starts[i]`, warms the episode
/// `cfg` describes once on `hosts[i % hosts.len()]`, replaying
/// `window(t0)` (so one host serves every start, or `n` hosts serve `n`
/// starts one each), then runs every method on a working engine restored
/// from that warm one: `play(j, &mut methods[j], work)`. The working
/// engine owns a clone of a host, made at the first restore and reused by
/// every later one. Decision recording is off (the reports keep outcomes,
/// not trajectories); `play` turns it on for a run that wants them.
pub(crate) fn warm_once<'t, B: ClusterBackend + Clone, M>(
    hosts: &mut [B],
    starts: &[i64],
    window: impl Fn(i64) -> &'t [JobRecord],
    cfg: &MultiServiceConfig,
    methods: &mut [M],
    mut play: impl FnMut(usize, &mut M, &mut MultiServiceEnv<B>),
) {
    let mut working: Option<MultiServiceEnv<B>> = None;
    for (i, &t0) in starts.iter().enumerate() {
        let host = &mut hosts[i % hosts.len()];
        let mut warm = MultiServiceEnv::new(host, window(t0), cfg, t0);
        warm.set_record_decisions(false);
        for (j, m) in methods.iter_mut().enumerate() {
            if let Some(work) = &mut working {
                work.restore_from(&warm);
            }
            play(j, m, working.get_or_insert_with(|| warm.fork()));
        }
    }
}

/// One single-service method's episode on `work`, a restore of the
/// start's warm engine: resets the policy, runs it, and stamps the
/// episode's guard-fallback delta into the outcome (non-zero only when an
/// RL policy's network emitted garbage this episode).
fn play_method<B: ClusterBackend>(
    method: &mut dyn ProvisionPolicy,
    work: &mut MultiServiceEnv<B>,
) -> EpisodeResult {
    method.reset();
    let fallbacks_before = method.guard_fallbacks();
    let mut result = work.play_single(|ctx| method.decide(ctx));
    result.outcome.guard_fallbacks = method.guard_fallbacks() - fallbacks_before;
    result
}

/// One method's aggregate over one scenario lane (a chaos severity or a
/// hetero pool scenario).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LaneMethodSummary {
    /// Method label.
    pub method: String,
    /// Episodes aggregated.
    pub episodes: usize,
    /// Mean shaped reward (0 is optimal; more negative = worse).
    pub mean_reward: f64,
    /// Mean total interruption — hand-off gap plus fault downtime, hours.
    pub avg_interruption_h: f64,
    /// Mean fault-caused downtime alone, hours.
    pub avg_fault_interruption_h: f64,
    /// Fraction of episodes with zero interruption of either kind.
    pub zero_interruption_frac: f64,
    /// Total guard fallbacks across the lane's episodes: decisions
    /// where an RL policy's network emitted a non-finite or degenerate
    /// output and its agent degraded to the heuristic. Non-zero means
    /// the method survived this lane on its fallback, not its network.
    #[serde(default)]
    pub guard_fallbacks: u64,
}

/// The sweep the chaos and hetero lanes share: every method over the same
/// `starts` through [`warm_once`] on `backend`, so every run sees the
/// identical seeded tape. Returns each method's summary and the sum of
/// the backend counters `stats` reads after each run.
pub(crate) fn sweep_lane<B: ClusterBackend + Clone, S: Default + AddAssign>(
    methods: &mut [Box<dyn ProvisionPolicy>],
    backend: &mut B,
    trace: &[JobRecord],
    starts: &[i64],
    episode: &EpisodeConfig,
    shaper: &RewardShaper,
    stats: impl Fn(&B) -> S,
) -> (Vec<LaneMethodSummary>, S) {
    let mut summaries: Vec<LaneMethodSummary> = methods
        .iter()
        .map(|m| LaneMethodSummary {
            method: m.name(),
            ..LaneMethodSummary::default()
        })
        .collect();
    let mut totals = S::default();
    let single = MultiServiceConfig::single(episode, RewardShaper::default());
    let window = |t0| episode_window(trace, t0, episode);
    let hosts = std::slice::from_mut(backend);
    warm_once(hosts, starts, window, &single, methods, |j, m, work| {
        let o = play_method(m.as_mut(), work).outcome;
        // The run started from the warm-up's state, reset included, so
        // the counters reflect exactly this run.
        totals += stats(work.backend());
        let s = &mut summaries[j];
        s.episodes += 1;
        s.mean_reward += f64::from(shaper.reward(&o));
        s.avg_interruption_h += (o.interruption + o.fault_interruption) as f64 / 3600.0;
        s.avg_fault_interruption_h += o.fault_interruption as f64 / 3600.0;
        s.zero_interruption_frac += f64::from(u8::from(o.zero_interruption()));
        s.guard_fallbacks += o.guard_fallbacks;
    });
    // The sums become means.
    for s in &mut summaries {
        let n = s.episodes.max(1) as f64;
        s.mean_reward /= n;
        s.avg_interruption_h /= n;
        s.avg_fault_interruption_h /= n;
        s.zero_interruption_frac /= n;
    }
    (summaries, totals)
}

impl EvalReport {
    /// Aggregates one method at one load level.
    pub fn summarize(&self, method: &str, load: LoadLevel) -> MethodSummary {
        let mut n = 0usize;
        let mut sum_i = 0.0f64;
        let mut sum_o = 0.0f64;
        let mut zero = 0usize;
        for ep in self.episodes.iter().filter(|e| e.load == load) {
            if let Some(mo) = ep.methods.iter().find(|m| m.method == method) {
                n += 1;
                sum_i += mo.outcome.interruption as f64 / 3600.0;
                sum_o += mo.outcome.overlap as f64 / 3600.0;
                if mo.outcome.zero_interruption() {
                    zero += 1;
                }
            }
        }
        MethodSummary {
            method: method.to_string(),
            load,
            episodes: n,
            avg_interruption_h: if n > 0 { sum_i / n as f64 } else { 0.0 },
            avg_overlap_h: if n > 0 { sum_o / n as f64 } else { 0.0 },
            zero_interruption_frac: if n > 0 { zero as f64 / n as f64 } else { 0.0 },
        }
    }

    /// Episode count at a load level.
    pub fn episodes_at(&self, load: LoadLevel) -> usize {
        self.episodes.iter().filter(|e| e.load == load).count()
    }

    /// Interruption reduction of `method` vs the reactive baseline at a
    /// load level, in percent (the §6.1 headline statistic).
    pub fn reduction_vs_reactive(&self, method: &str, load: LoadLevel) -> Option<f64> {
        let m = self.summarize(method, load);
        let r = self.summarize("reactive", load);
        if m.episodes == 0 || r.episodes == 0 || r.avg_interruption_h <= 0.0 {
            return None;
        }
        Some((1.0 - m.avg_interruption_h / r.avg_interruption_h) * 100.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{AvgWaitPolicy, ReactivePolicy};
    use mirage_sim::{SimConfig, Simulator};
    use mirage_trace::{DAY, MINUTE};

    fn tiny_episode() -> EpisodeConfig {
        EpisodeConfig {
            pair_nodes: 1,
            pair_timelimit: 4 * HOUR,
            pair_runtime: 4 * HOUR,
            decision_interval: 30 * MINUTE,
            history_k: 4,
            warmup: DAY,
            pair_user: 999,
            fault_features: false,
            hetero_features: false,
        }
    }

    fn congested_trace(days: i64) -> Vec<JobRecord> {
        // Steady stream keeping a 4-node cluster busy.
        (0..days * 24 * 2)
            .map(|i| {
                JobRecord::new(
                    i as u64 + 1,
                    format!("bg{i}"),
                    (i % 5) as u32,
                    i * HOUR / 2,
                    2,
                    6 * HOUR,
                    3 * HOUR,
                )
            })
            .collect()
    }

    #[test]
    fn load_classification_thresholds() {
        assert_eq!(LoadLevel::classify(0), LoadLevel::Light);
        assert_eq!(LoadLevel::classify(2 * HOUR), LoadLevel::Medium);
        assert_eq!(LoadLevel::classify(12 * HOUR - 1), LoadLevel::Medium);
        assert_eq!(LoadLevel::classify(12 * HOUR), LoadLevel::Heavy);
        assert_eq!(LoadLevel::classify(3 * DAY), LoadLevel::Heavy);
    }

    #[test]
    fn evaluation_runs_all_methods_on_same_episodes() {
        let trace = congested_trace(14);
        let mut methods: Vec<Box<dyn ProvisionPolicy>> =
            vec![Box::new(ReactivePolicy), Box::new(AvgWaitPolicy::default())];
        let cfg = EvalConfig {
            episode: tiny_episode(),
            n_episodes: 4,
            seed: 7,
        };
        let mut sim = Simulator::new(SimConfig::new(4));
        let report = evaluate(&mut methods, &mut sim, &trace, (0, 14 * DAY), &cfg);
        assert_eq!(report.episodes.len(), 4);
        for ep in &report.episodes {
            assert_eq!(ep.methods.len(), 2);
            assert_eq!(ep.methods[0].method, "reactive");
            // Reactive never overlaps by construction.
            assert_eq!(ep.methods[0].outcome.overlap, 0);
        }
        let total: usize = LoadLevel::all()
            .iter()
            .map(|&l| report.episodes_at(l))
            .sum();
        assert_eq!(total, 4);
    }

    #[test]
    fn summaries_aggregate_consistently() {
        let trace = congested_trace(10);
        let mut methods: Vec<Box<dyn ProvisionPolicy>> = vec![Box::new(ReactivePolicy)];
        let cfg = EvalConfig {
            episode: tiny_episode(),
            n_episodes: 3,
            seed: 9,
        };
        let mut sim = Simulator::new(SimConfig::new(4));
        let report = evaluate(&mut methods, &mut sim, &trace, (0, 10 * DAY), &cfg);
        for load in LoadLevel::all() {
            let s = report.summarize("reactive", load);
            assert_eq!(s.episodes, report.episodes_at(load));
            assert!(s.avg_interruption_h >= 0.0);
            assert!(s.zero_interruption_frac >= 0.0 && s.zero_interruption_frac <= 1.0);
        }
    }

    #[test]
    fn reduction_vs_reactive_is_zero_for_itself() {
        let trace = congested_trace(10);
        let mut methods: Vec<Box<dyn ProvisionPolicy>> = vec![Box::new(ReactivePolicy)];
        let cfg = EvalConfig {
            episode: tiny_episode(),
            n_episodes: 3,
            seed: 11,
        };
        let mut sim = Simulator::new(SimConfig::new(4));
        let report = evaluate(&mut methods, &mut sim, &trace, (0, 10 * DAY), &cfg);
        for load in LoadLevel::all() {
            if report.episodes_at(load) > 0 {
                if let Some(red) = report.reduction_vs_reactive("reactive", load) {
                    assert!(red.abs() < 1e-9);
                }
            }
        }
    }
}
