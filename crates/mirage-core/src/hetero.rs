//! Heterogeneous-cluster evaluation lane: RL vs classic baselines on
//! pool-typed hardware.
//!
//! Every provisioning method is evaluated on **identically seeded pool
//! scenarios** — a balanced fast/slow split and a scarce-accelerator
//! tiering — so the lane answers "who times the hand-off best when the
//! hardware is heterogeneous and contended?" rather than "who got the
//! fast pool?". The placement tape is a pure function of the hetero seed
//! carried inside the simulator config, so the `reset()` that warms each
//! episode start replays the exact same slowdown draws at every start,
//! and every method runs on a restore of that warm state — the same
//! controlled-experiment discipline as the chaos lane's crash tapes.
//!
//! Reported per scenario × method: mean shaped reward, mean interruption,
//! and the zero-interruption fraction; plus per-scenario placement totals
//! (spans, congested placements, slowdowns) summed over every episode run,
//! proving the scenario actually exercised contention.

use mirage_sim::{ClusterBackend, HeteroModel, HeteroStats, SimBuilder};
use mirage_trace::JobRecord;
use serde::{Deserialize, Serialize};

use crate::episode::EpisodeConfig;
use crate::eval::{sweep_lane, LaneMethodSummary};
use crate::policy::ProvisionPolicy;
use crate::reward::RewardShaper;
use crate::train::sample_episode_starts;

/// One seeded pool scenario of the hetero lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HeteroScenario {
    /// [`HeteroModel::balanced`]: a quarter of the partition is a fast
    /// `a100` pool (1.6× throughput), the rest baseline `v100`, moderate
    /// contention.
    Balanced,
    /// [`HeteroModel::scarce`]: an eighth of the partition is a 2×
    /// `a100` pool, a mid `v100` tier, and a 0.6× `t4` tail, full
    /// contention — fast capacity is the bottleneck.
    Scarce,
}

impl HeteroScenario {
    /// Every scenario, gentlest first (the sweep order).
    pub const ALL: [HeteroScenario; 2] = [HeteroScenario::Balanced, HeteroScenario::Scarce];

    /// Display / JSON-field name.
    pub fn label(&self) -> &'static str {
        match self {
            HeteroScenario::Balanced => "balanced",
            HeteroScenario::Scarce => "scarce",
        }
    }

    /// The pool model this scenario installs, on `seed`'s placement tape.
    pub fn model(&self, nodes: u32, seed: u64) -> HeteroModel {
        match self {
            HeteroScenario::Balanced => HeteroModel::balanced(nodes, seed),
            HeteroScenario::Scarce => HeteroModel::scarce(nodes, seed),
        }
    }
}

/// Hetero-lane settings.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct HeteroConfig {
    /// Episode shape (set `hetero_features` to let agents observe pool
    /// headroom and contention).
    pub episode: EpisodeConfig,
    /// Validation episodes per scenario.
    pub n_episodes: usize,
    /// Episode-start sampling seed (same starts in every scenario).
    pub seed: u64,
    /// Placement-tape seed (same hardware for every method at one
    /// scenario).
    pub hetero_seed: u64,
    /// Partition size the scenarios split into pools.
    pub nodes: u32,
    /// Reward coefficients for the mean-reward statistic.
    pub shaper: RewardShaper,
}

impl Default for HeteroConfig {
    fn default() -> Self {
        Self {
            episode: EpisodeConfig {
                hetero_features: true,
                ..EpisodeConfig::default()
            },
            n_episodes: 8,
            seed: 23,
            hetero_seed: 7171,
            nodes: 88,
            shaper: RewardShaper::default(),
        }
    }
}

/// One scenario's lane: per-method summaries plus the placement totals
/// the pool model actually inflicted (summed over every episode run).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HeteroLane {
    /// Scenario of this lane.
    pub scenario: HeteroScenario,
    /// Per-method aggregates (evaluation order).
    pub methods: Vec<LaneMethodSummary>,
    /// Placement counters summed across all methods × episodes.
    pub hetero: HeteroStats,
}

/// Full hetero sweep output.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HeteroReport {
    /// One lane per scenario, [`HeteroScenario::ALL`] order.
    pub lanes: Vec<HeteroLane>,
}

impl HeteroReport {
    /// The lane at `scenario`.
    pub fn lane(&self, scenario: HeteroScenario) -> &HeteroLane {
        self.lanes
            .iter()
            .find(|l| l.scenario == scenario)
            .expect("every scenario has a lane")
    }

    /// One method's summary in one scenario.
    pub fn summary(&self, scenario: HeteroScenario, method: &str) -> &LaneMethodSummary {
        self.lane(scenario)
            .methods
            .iter()
            .find(|m| m.method == method)
            .expect("method evaluated in every lane")
    }
}

/// Sweeps every method through the balanced and scarce pool scenarios on
/// identically seeded placement tapes.
///
/// `builder` supplies the cluster shape; this function overrides only its
/// partition size and pool model per lane, builds one backend per
/// scenario, and runs every method over the same sampled episode starts.
/// Each start is warmed once on that backend (reset, warm-up replay,
/// predecessor) and every method runs on a restore of the warm state;
/// with the placement tape in the config, every run in one scenario sees
/// identical hardware, isolating the provisioning policy. The report
/// equals re-warming the backend for every method, bit for bit.
pub fn evaluate_hetero(
    methods: &mut [Box<dyn ProvisionPolicy>],
    builder: &SimBuilder,
    trace: &[JobRecord],
    range: (i64, i64),
    cfg: &HeteroConfig,
) -> HeteroReport {
    let starts = sample_episode_starts(range.0, range.1, &cfg.episode, cfg.n_episodes, cfg.seed);
    let mut lanes = Vec::with_capacity(HeteroScenario::ALL.len());
    for scenario in HeteroScenario::ALL {
        let mut backend = builder
            .clone()
            .nodes(cfg.nodes)
            .hetero(scenario.model(cfg.nodes, cfg.hetero_seed))
            .build();
        let (summaries, hetero) = sweep_lane(
            methods,
            &mut backend,
            trace,
            &starts,
            &cfg.episode,
            &cfg.shaper,
            |b| b.hetero_stats(),
        );
        lanes.push(HeteroLane {
            scenario,
            methods: summaries,
            hetero,
        });
    }
    HeteroReport { lanes }
}

/// The four classic baselines every hetero lane compares RL against:
/// FCFS, SJF, shortest-queue and pool-greedy, evaluation order.
pub fn classic_baselines() -> Vec<Box<dyn ProvisionPolicy>> {
    vec![
        Box::new(crate::policy::FcfsPolicy),
        Box::new(crate::policy::SjfPolicy),
        Box::new(crate::policy::ShortestQueuePolicy),
        Box::new(crate::policy::PoolGreedyPolicy),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::ReactivePolicy;
    use mirage_sim::SimConfig;
    use mirage_trace::{DAY, HOUR, MINUTE};

    fn tiny_episode() -> EpisodeConfig {
        EpisodeConfig {
            pair_nodes: 2,
            pair_timelimit: 4 * HOUR,
            pair_runtime: 4 * HOUR,
            decision_interval: 30 * MINUTE,
            history_k: 4,
            warmup: DAY,
            pair_user: 999,
            fault_features: false,
            hetero_features: true,
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
                    3,
                    6 * HOUR,
                    3 * HOUR,
                )
            })
            .collect()
    }

    fn tiny_cfg() -> HeteroConfig {
        HeteroConfig {
            episode: tiny_episode(),
            n_episodes: 2,
            nodes: 8,
            ..HeteroConfig::default()
        }
    }

    #[test]
    fn scenarios_and_labels() {
        assert_eq!(HeteroScenario::ALL.len(), 2);
        assert_eq!(HeteroScenario::Balanced.label(), "balanced");
        assert_eq!(HeteroScenario::Scarce.label(), "scarce");
        let b = HeteroScenario::Balanced.model(8, 1);
        let s = HeteroScenario::Scarce.model(8, 1);
        assert_eq!(b.pools.len(), 2);
        assert_eq!(s.pools.len(), 3);
        assert!(s.contention > b.contention);
    }

    #[test]
    fn sweep_reports_every_scenario_and_method() {
        let trace = busy_trace(8);
        let mut methods = classic_baselines();
        methods.push(Box::new(ReactivePolicy));
        let cfg = tiny_cfg();
        let builder = SimConfig::builder();
        let report = evaluate_hetero(&mut methods, &builder, &trace, (0, 8 * DAY), &cfg);
        assert_eq!(report.lanes.len(), 2);
        for (lane, sc) in report.lanes.iter().zip(HeteroScenario::ALL) {
            assert_eq!(lane.scenario, sc);
            assert_eq!(lane.methods.len(), 5);
            for m in &lane.methods {
                assert_eq!(m.episodes, 2);
                assert!(m.mean_reward <= 0.0);
            }
            assert!(lane.hetero.placements > 0, "pool allocator exercised");
        }
        let names: Vec<_> = report.lanes[0]
            .methods
            .iter()
            .map(|m| m.method.clone())
            .collect();
        assert_eq!(
            names,
            ["fcfs", "sjf", "shortest_queue", "pool_greedy", "reactive"]
        );
    }

    #[test]
    fn identical_seeds_replay_identical_lanes() {
        let trace = busy_trace(8);
        let cfg = tiny_cfg();
        let builder = SimConfig::builder();
        let mut m1 = classic_baselines();
        let mut m2 = classic_baselines();
        let a = evaluate_hetero(&mut m1, &builder, &trace, (0, 8 * DAY), &cfg);
        let b = evaluate_hetero(&mut m2, &builder, &trace, (0, 8 * DAY), &cfg);
        for (la, lb) in a.lanes.iter().zip(&b.lanes) {
            assert_eq!(la.hetero, lb.hetero);
            assert_eq!(la.methods, lb.methods);
        }
    }
}
