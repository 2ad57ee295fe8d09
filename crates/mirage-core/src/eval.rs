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
//! the history window and the predecessor submission. So [`evaluate`] —
//! and the chaos and hetero lanes, through the sweep they share — warm
//! each start **once**, on the caller's backend, and run every method
//! (the implicit reactive run included) on a working
//! [`EpisodeDriver`] restored from that warm one
//! ([`EpisodeDriver::restore_from`]): one warm-up per start instead of
//! one per method, and every report bit-identical to re-warming per
//! method.

use std::ops::AddAssign;

use mirage_sim::ClusterBackend;
use mirage_trace::{JobRecord, HOUR};
use serde::{Deserialize, Serialize};

use crate::episode::{Action, EpisodeConfig, EpisodeDriver, EpisodeResult};
use crate::policy::ProvisionPolicy;
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
/// Each start is warmed once, on `backend` ([`EpisodeDriver::new`]:
/// reset, trace window, warm-up replay, history, predecessor), and every
/// method runs on a working driver restored from that warm one. The
/// working driver owns a clone of the backend, made at the first restore
/// and reused by every later one, so one value hosts the whole
/// evaluation and forking costs one more backend's memory. The report is
/// bit-identical to re-warming the backend for every method.
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
    let reactive_idx = method_names.iter().position(|n| n == "reactive");

    let mut working = None;
    let mut episodes = Vec::with_capacity(starts.len());
    for &t0 in &starts {
        let warm = warm_start(backend, trace, &cfg.episode, t0);
        let mut outcomes: Vec<MethodOutcome> = Vec::with_capacity(methods.len());
        for m in methods.iter_mut() {
            let result = play_method(m.as_mut(), restored(&mut working, &warm));
            outcomes.push(MethodOutcome {
                method: m.name(),
                outcome: result.outcome,
                proactive: result.submitted_by_policy,
            });
        }
        let reactive_wait = match reactive_idx {
            Some(i) => outcomes[i].outcome.interruption,
            None => {
                let work = restored(&mut working, &warm);
                work.play(|_| Action::Wait).outcome.interruption
            }
        };
        episodes.push(EpisodeRecord {
            t0,
            load: LoadLevel::classify(reactive_wait),
            reactive_wait,
            methods: outcomes,
        });
    }
    EvalReport {
        episodes,
        method_names,
    }
}

/// The driver every method's episode at `t0` starts from: `backend`
/// reset, `t0`'s trace window replayed through the warm-up, the
/// predecessor submitted. Decision recording is off: the reports keep
/// outcomes, not trajectories.
fn warm_start<'b, B: ClusterBackend>(
    backend: &'b mut B,
    trace: &[JobRecord],
    episode: &EpisodeConfig,
    t0: i64,
) -> EpisodeDriver<&'b mut B> {
    let window = episode_window(trace, t0, episode);
    let mut warm = EpisodeDriver::new(backend, window, episode, t0);
    warm.set_record_decisions(false);
    warm
}

/// The working driver, restored from `warm` (forked from it on first
/// use).
fn restored<'w, B: ClusterBackend + Clone>(
    working: &'w mut Option<EpisodeDriver<B>>,
    warm: &EpisodeDriver<&mut B>,
) -> &'w mut EpisodeDriver<B> {
    if let Some(work) = working {
        work.restore_from(warm);
    }
    working.get_or_insert_with(|| warm.fork())
}

/// One method's episode on `work`, a restore of the start's warm driver:
/// resets the policy, runs it, and stamps the episode's guard-fallback
/// delta into the outcome (non-zero only when a guarded policy's network
/// emitted garbage this episode).
fn play_method<B: ClusterBackend>(
    method: &mut dyn ProvisionPolicy,
    work: &mut EpisodeDriver<B>,
) -> EpisodeResult {
    method.reset();
    let fallbacks_before = method.guard_fallbacks();
    let mut result = work.play(|ctx| method.decide(ctx));
    result.outcome.guard_fallbacks = method.guard_fallbacks() - fallbacks_before;
    result
}

/// One method's running sums across a scenario lane's episodes.
#[derive(Default)]
pub(crate) struct LaneAccum {
    pub method: String,
    pub reward: f64,
    /// Hand-off gap plus fault downtime, hours.
    pub interruption_h: f64,
    /// Fault downtime alone, hours.
    pub fault_h: f64,
    pub zero: usize,
    pub episodes: usize,
    pub guard_fallbacks: u64,
}

impl LaneAccum {
    /// `sum` averaged over the lane's episodes.
    pub fn mean(&self, sum: f64) -> f64 {
        sum / self.episodes.max(1) as f64
    }
}

/// The sweep body the chaos and hetero lanes share: every method over
/// the same `starts`, each start warmed once on `backend` and every
/// method run on a restore of that warm driver (as in [`evaluate`]), so
/// every run sees the identical seeded tape; accumulates per-method sums
/// and the backend counters `stats` reads after each run.
pub(crate) fn sweep_lane<B: ClusterBackend + Clone, S: Default + AddAssign>(
    methods: &mut [Box<dyn ProvisionPolicy>],
    backend: &mut B,
    trace: &[JobRecord],
    starts: &[i64],
    episode: &EpisodeConfig,
    shaper: &RewardShaper,
    stats: impl Fn(&B) -> S,
) -> (Vec<LaneAccum>, S) {
    let mut accums: Vec<LaneAccum> = methods
        .iter()
        .map(|m| LaneAccum {
            method: m.name(),
            ..LaneAccum::default()
        })
        .collect();
    let mut totals = S::default();
    let mut working = None;
    for &t0 in starts {
        let warm = warm_start(backend, trace, episode, t0);
        for (m, acc) in methods.iter_mut().zip(&mut accums) {
            let work = restored(&mut working, &warm);
            let o = play_method(m.as_mut(), work).outcome;
            // The run started from the warm-up's state, reset included,
            // so the counters reflect exactly this run.
            totals += stats(work.backend());
            acc.guard_fallbacks += o.guard_fallbacks;
            acc.reward += f64::from(shaper.reward(&o));
            acc.interruption_h += (o.interruption + o.fault_interruption) as f64 / 3600.0;
            acc.fault_h += o.fault_interruption as f64 / 3600.0;
            acc.zero += usize::from(o.zero_interruption());
            acc.episodes += 1;
        }
    }
    (accums, totals)
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

    /// All summaries: methods × load levels (paper figure layout).
    pub fn all_summaries(&self) -> Vec<MethodSummary> {
        let mut out = Vec::new();
        for load in LoadLevel::all() {
            for m in &self.method_names {
                out.push(self.summarize(m, load));
            }
        }
        out
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
        let summaries = report.all_summaries();
        assert_eq!(summaries.len(), 2 * 3);
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
