//! Chaos evaluation lane: degradation under fault injection.
//!
//! Every provisioning method is evaluated on **identically seeded fault
//! schedules** at increasing severity — none / moderate / severe — so the
//! lane answers "how gracefully does each method degrade when nodes crash
//! and jobs die mid-run?" rather than "who got lucky with the crashes?".
//! The fault tape is a pure function of `(fault_seed, severity)` carried
//! inside the simulator config, so the `reset()` that warms each episode
//! start replays the exact same crashes at every start, and every method
//! runs on a restore of that warm state.
//!
//! Reported per severity × method: mean shaped reward, mean total
//! interruption (hand-off gap + fault downtime), mean fault-caused
//! downtime, and the zero-interruption fraction; plus per-severity fault
//! totals (crashes, evictions, retries, retry successes, terminal
//! failures) summed over every episode run.

use mirage_sim::{ClusterBackend, FaultModel, FaultStats, RetryPolicy, SimBuilder};
use mirage_trace::JobRecord;
use serde::{Deserialize, Serialize};

use crate::episode::EpisodeConfig;
use crate::eval::{sweep_lane, LaneMethodSummary};
use crate::policy::ProvisionPolicy;
use crate::reward::RewardShaper;
use crate::train::sample_episode_starts;

/// Fault-injection severity of one chaos lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ChaosSeverity {
    /// Perfectly reliable hardware — the control lane; results must match
    /// a fault-free evaluation bit for bit.
    None,
    /// [`FaultModel::moderate`]: ~4-day MTBF, ~2 h repairs, 2 % transient
    /// job failures.
    Moderate,
    /// [`FaultModel::severe`]: ~18 h MTBF, ~4 h repairs, 8 % transient job
    /// failures.
    Severe,
}

impl ChaosSeverity {
    /// Every severity, mildest first (the sweep order).
    pub const ALL: [ChaosSeverity; 3] = [
        ChaosSeverity::None,
        ChaosSeverity::Moderate,
        ChaosSeverity::Severe,
    ];

    /// Display / JSON-field name.
    pub fn label(&self) -> &'static str {
        match self {
            ChaosSeverity::None => "none",
            ChaosSeverity::Moderate => "moderate",
            ChaosSeverity::Severe => "severe",
        }
    }

    /// The fault model this severity injects, on `seed`'s crash tape.
    pub fn fault_model(&self, seed: u64) -> FaultModel {
        match self {
            ChaosSeverity::None => FaultModel::none(),
            ChaosSeverity::Moderate => FaultModel::moderate(seed),
            ChaosSeverity::Severe => FaultModel::severe(seed),
        }
    }
}

/// Chaos-lane settings.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ChaosConfig {
    /// Episode shape (set `fault_features` to let agents observe cluster
    /// health).
    pub episode: EpisodeConfig,
    /// Validation episodes per severity.
    pub n_episodes: usize,
    /// Episode-start sampling seed (same starts at every severity).
    pub seed: u64,
    /// Crash-tape seed (same tape for every method at one severity).
    pub fault_seed: u64,
    /// Retry policy for evicted jobs.
    pub retry: RetryPolicy,
    /// Reward coefficients for the mean-reward statistic.
    pub shaper: RewardShaper,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        Self {
            episode: EpisodeConfig::default(),
            n_episodes: 8,
            seed: 17,
            fault_seed: 4242,
            retry: RetryPolicy::default(),
            shaper: RewardShaper::default(),
        }
    }
}

/// One severity's lane: per-method summaries plus the fault totals the
/// tape actually inflicted (summed over every episode run).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChaosLane {
    /// Severity of this lane.
    pub severity: ChaosSeverity,
    /// Per-method aggregates (evaluation order).
    pub methods: Vec<LaneMethodSummary>,
    /// Fault counters summed across all methods × episodes.
    pub faults: FaultStats,
}

/// Full chaos sweep output.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChaosReport {
    /// One lane per severity, [`ChaosSeverity::ALL`] order.
    pub lanes: Vec<ChaosLane>,
}

impl ChaosReport {
    /// The lane at `severity`.
    pub fn lane(&self, severity: ChaosSeverity) -> &ChaosLane {
        self.lanes
            .iter()
            .find(|l| l.severity == severity)
            .expect("every severity has a lane")
    }

    /// One method's summary at one severity.
    pub fn summary(&self, severity: ChaosSeverity, method: &str) -> &LaneMethodSummary {
        self.lane(severity)
            .methods
            .iter()
            .find(|m| m.method == method)
            .expect("method evaluated in every lane")
    }
}

/// Sweeps every method through the none → moderate → severe fault
/// severities on identically seeded crash tapes.
///
/// `builder` supplies the cluster shape; this function overrides only its
/// fault model and retry policy per lane, builds one backend per severity,
/// and runs every method over the same sampled episode starts. Each start
/// is warmed once on that backend (reset, warm-up replay, predecessor)
/// and every method runs on a restore of the warm state; with the fault
/// tape in the config, every run at one severity sees the identical crash
/// schedule, isolating the provisioning policy. The report equals
/// re-warming the backend for every method, bit for bit.
pub fn evaluate_chaos(
    methods: &mut [Box<dyn ProvisionPolicy>],
    builder: &SimBuilder,
    trace: &[JobRecord],
    range: (i64, i64),
    cfg: &ChaosConfig,
) -> ChaosReport {
    let starts = sample_episode_starts(range.0, range.1, &cfg.episode, cfg.n_episodes, cfg.seed);
    let mut lanes = Vec::with_capacity(ChaosSeverity::ALL.len());
    for severity in ChaosSeverity::ALL {
        let mut backend = builder
            .clone()
            .faults(severity.fault_model(cfg.fault_seed))
            .retry(cfg.retry)
            .build();
        let (summaries, faults) = sweep_lane(
            methods,
            &mut backend,
            trace,
            &starts,
            &cfg.episode,
            &cfg.shaper,
            |b| b.fault_stats(),
        );
        lanes.push(ChaosLane {
            severity,
            methods: summaries,
            faults,
        });
    }
    ChaosReport { lanes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::ReactivePolicy;
    use mirage_sim::SimConfig;
    use mirage_trace::{DAY, HOUR, MINUTE};

    fn tiny_episode() -> EpisodeConfig {
        EpisodeConfig {
            pair_nodes: 1,
            pair_timelimit: 4 * HOUR,
            pair_runtime: 4 * HOUR,
            decision_interval: 30 * MINUTE,
            history_k: 4,
            warmup: DAY,
            pair_user: 999,
            fault_features: true,
            hetero_features: false,
        }
    }

    fn busy_trace(days: i64) -> Vec<JobRecord> {
        (0..days * 24)
            .map(|i| {
                JobRecord::new(
                    i as u64 + 1,
                    format!("bg{i}"),
                    (i % 3) as u32,
                    i * HOUR,
                    2,
                    6 * HOUR,
                    3 * HOUR,
                )
            })
            .collect()
    }

    #[test]
    fn severity_tiers_and_labels() {
        assert_eq!(ChaosSeverity::ALL.len(), 3);
        assert_eq!(ChaosSeverity::None.label(), "none");
        assert!(ChaosSeverity::None.fault_model(5).is_none());
        let mo = ChaosSeverity::Moderate.fault_model(5);
        let se = ChaosSeverity::Severe.fault_model(5);
        assert!(se.mtbf < mo.mtbf && se.job_fail_prob > mo.job_fail_prob);
    }

    #[test]
    fn sweep_reports_every_severity_and_method() {
        let trace = busy_trace(8);
        let mut methods: Vec<Box<dyn ProvisionPolicy>> = vec![Box::new(ReactivePolicy)];
        let cfg = ChaosConfig {
            episode: tiny_episode(),
            n_episodes: 2,
            ..ChaosConfig::default()
        };
        let builder = SimConfig::builder().nodes(4);
        let report = evaluate_chaos(&mut methods, &builder, &trace, (0, 8 * DAY), &cfg);
        assert_eq!(report.lanes.len(), 3);
        for (lane, sev) in report.lanes.iter().zip(ChaosSeverity::ALL) {
            assert_eq!(lane.severity, sev);
            assert_eq!(lane.methods.len(), 1);
            assert_eq!(lane.methods[0].episodes, 2);
        }
        // The control lane cannot count faults.
        let none = report.lane(ChaosSeverity::None);
        assert_eq!(none.faults, FaultStats::default());
        assert_eq!(none.methods[0].avg_fault_interruption_h, 0.0);
    }

    #[test]
    fn identical_seeds_replay_identical_chaos() {
        let trace = busy_trace(8);
        let cfg = ChaosConfig {
            episode: tiny_episode(),
            n_episodes: 2,
            ..ChaosConfig::default()
        };
        let builder = SimConfig::builder().nodes(4);
        let mut m1: Vec<Box<dyn ProvisionPolicy>> = vec![Box::new(ReactivePolicy)];
        let mut m2: Vec<Box<dyn ProvisionPolicy>> = vec![Box::new(ReactivePolicy)];
        let a = evaluate_chaos(&mut m1, &builder, &trace, (0, 8 * DAY), &cfg);
        let b = evaluate_chaos(&mut m2, &builder, &trace, (0, 8 * DAY), &cfg);
        for (la, lb) in a.lanes.iter().zip(&b.lanes) {
            assert_eq!(la.faults, lb.faults);
            assert_eq!(la.methods, lb.methods);
        }
    }
}
