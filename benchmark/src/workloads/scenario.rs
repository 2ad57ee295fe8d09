//! `scenario_sweep`: the three scenario harnesses on the toy clusters
//! and fixed-seed nets of the existing bench lanes, at episode counts
//! long enough to time — `evaluate_chaos` (none / moderate / severe),
//! `evaluate_hetero` (balanced / scarce), `evaluate_multiservice`
//! (diurnal, bursty).
//!
//! The only workload that runs fault eviction and retry, pool placement
//! and contention, and `MultiServiceBatch`; every other workload runs
//! with faults and pools off.
//!
//! Work unit: one scenario episode (method × lane × episode). Op: one
//! `evaluate_*` call; the chaos and hetero sweeps are each four calls
//! over a quarter of the episodes, so a sweep is ten ops.

use mirage::core::multiservice::{
    GreedyPerServicePolicy, RlServicePolicy, ShortestQueuePolicy, UniformSharePolicy,
};
use mirage::core::state::STATE_VARS;
use mirage::core::{
    bursty_scenario, classic_baselines, diurnal_scenario, evaluate_chaos, evaluate_hetero,
    evaluate_multiservice, ChaosConfig, ChaosReport, ChaosSeverity, DqnPolicy, EpisodeConfig,
    HeteroConfig, HeteroReport, HeteroScenario, MultiServiceConfig, MultiServicePolicy,
    MultiServiceReport, ProvisionPolicy, ReactivePolicy,
};
use mirage::nn::foundation::FoundationKind;
use mirage::rl::{DqnAgent, DqnConfig, DualHeadConfig, DualHeadNet};
use mirage::sim::{FaultStats, SimConfig, Simulator};
use mirage::trace::{split_seed, JobRecord, DAY, HOUR};

use super::{grid_starts, part_of, Digest, Metrics, SliceOut, Workload};
use crate::estimate::Part;
use crate::names::*;
use crate::spans::Tracer;

/// Episodes per severity / per pool scenario / per traffic scenario,
/// and the calls the first two are spread over.
const CHAOS_EPISODES: usize = 64;
const HETERO_EPISODES: usize = 128;
const MULTISERVICE_EPISODES: usize = 32;
const CALLS: usize = 4;
const MULTISERVICE_NODES: u32 = 16;
const MULTISERVICE_SERVICES: usize = 3;

/// A periodic background load: job `i` arrives at `i · gap`.
fn periodic(n: i64, gap: i64, job: impl Fn(i64) -> (u32, i64, i64)) -> Vec<JobRecord> {
    (0..n)
        .map(|i| {
            let (nodes, timelimit, runtime) = job(i);
            JobRecord::new(
                i as u64 + 1,
                format!("bg{i}"),
                (i % 5) as u32,
                i * gap,
                nodes,
                timelimit,
                runtime,
            )
        })
        .collect()
}

/// The lanes' small fixed-seed DQN.
fn small_dqn(history_k: usize, seed: u64) -> DqnAgent {
    DqnAgent::new(
        DualHeadNet::new(DualHeadConfig::small(
            FoundationKind::Transformer,
            STATE_VARS,
            history_k,
            seed,
        )),
        DqnConfig::default(),
    )
}

fn dqn_policy(seed: u64) -> Box<dyn ProvisionPolicy> {
    Box::new(DqnPolicy {
        agent: small_dqn(4, seed),
        label: "dqn".into(),
    })
}

/// 6 h pairs decided every 30 min over a 4-row history.
fn toy_episode(pair_nodes: u32) -> EpisodeConfig {
    EpisodeConfig {
        pair_nodes,
        pair_timelimit: 6 * HOUR,
        pair_runtime: 6 * HOUR,
        decision_interval: 30 * 60,
        history_k: 4,
        warmup: DAY,
        pair_user: 999,
        fault_features: false,
        hetero_features: false,
    }
}

#[derive(Default)]
struct Reports {
    chaos: Vec<ChaosReport>,
    hetero: Vec<HeteroReport>,
    multiservice: Vec<MultiServiceReport>,
}

pub struct Scenarios {
    chaos_trace: Vec<JobRecord>,
    /// One per call: the same lane, its own episode starts.
    chaos_cfgs: Vec<ChaosConfig>,
    hetero_trace: Vec<JobRecord>,
    hetero_cfgs: Vec<HeteroConfig>,
    ms_trace: Vec<JobRecord>,
    ms_t0s: Vec<i64>,
    ms_cfgs: [(MultiServiceConfig, &'static str); 2],
    reports: Reports,
}

impl Scenarios {
    pub fn setup(seed: u64) -> Self {
        // The fault and placement tapes and the traffic overlay keep the
        // lanes' own seeds: a tape or a burst drawn from `--seed` changes
        // how much work the lane is (and a burst can ask for more nodes
        // than the toy cluster has, and that pair never starts). The
        // seed draws the episode starts.
        let chaos = ChaosConfig {
            episode: EpisodeConfig {
                fault_features: true,
                ..toy_episode(1)
            },
            n_episodes: CHAOS_EPISODES / CALLS,
            ..ChaosConfig::default()
        };
        let hetero = HeteroConfig {
            episode: EpisodeConfig {
                hetero_features: true,
                ..toy_episode(2)
            },
            n_episodes: HETERO_EPISODES / CALLS,
            nodes: 8,
            ..HeteroConfig::default()
        };
        Self {
            // Busy half-hourly 2-node jobs on 4 nodes: enough queue
            // pressure that node crashes evict real work.
            chaos_trace: periodic(10 * 48, HOUR / 2, |_| (2, 8 * HOUR, 4 * HOUR)),
            chaos_cfgs: (0..CALLS as u64)
                .map(|c| ChaosConfig {
                    seed: split_seed(seed, 300 + c),
                    ..chaos
                })
                .collect(),
            // Hourly jobs alternating 3-wide 1 h / 2-wide 2 h on 8 nodes:
            // wide enough to stripe across pools, light enough that
            // submit timing has consequences.
            hetero_trace: periodic(10 * 24, HOUR, |i| {
                (3 - (i % 2) as u32, 6 * HOUR, (1 + i % 2) * HOUR)
            }),
            hetero_cfgs: (0..CALLS as u64)
                .map(|c| HeteroConfig {
                    seed: split_seed(seed, 320 + c),
                    ..hetero
                })
                .collect(),
            // Thin hourly load, long enough to cover the last episode's
            // 24 h pair and its successor.
            ms_trace: periodic(16 * 24, HOUR, |i| (1 + (i % 3) as u32, 6 * HOUR, 3 * HOUR)),
            ms_t0s: grid_starts(
                2 * DAY,
                10 * DAY,
                MULTISERVICE_EPISODES,
                HOUR,
                split_seed(seed, 34),
            ),
            ms_cfgs: [
                (
                    diurnal_scenario(MULTISERVICE_SERVICES, MULTISERVICE_NODES, 11),
                    "diurnal",
                ),
                (
                    bursty_scenario(MULTISERVICE_SERVICES, MULTISERVICE_NODES, 11),
                    "bursty",
                ),
            ],
            reports: Reports::default(),
        }
    }

    /// The sweep, each `evaluate_*` call handed to `call(span, run)`.
    fn run(&mut self, mut call: impl FnMut(usize, &mut dyn FnMut())) -> SliceOut {
        let mut reports = Reports::default();
        for cfg in &self.chaos_cfgs {
            call(CHAOS_EVALUATE, &mut || {
                let mut methods = vec![
                    Box::new(ReactivePolicy) as Box<dyn ProvisionPolicy>,
                    dqn_policy(5),
                ];
                reports.chaos.push(evaluate_chaos(
                    &mut methods,
                    &SimConfig::builder().nodes(4),
                    &self.chaos_trace,
                    (0, 10 * DAY),
                    cfg,
                ));
            });
        }
        for cfg in &self.hetero_cfgs {
            call(HETERO_EVALUATE, &mut || {
                let mut methods = vec![dqn_policy(7)];
                methods.extend(classic_baselines());
                reports.hetero.push(evaluate_hetero(
                    &mut methods,
                    &SimConfig::builder(),
                    &self.hetero_trace,
                    (0, 10 * DAY),
                    cfg,
                ));
            });
        }
        for (cfg, name) in &self.ms_cfgs {
            call(MULTISERVICE_EVALUATE, &mut || {
                let mut methods: Vec<Box<dyn MultiServicePolicy>> = vec![
                    Box::new(RlServicePolicy::new(small_dqn(cfg.history_k, 5), "dqn")),
                    Box::new(UniformSharePolicy),
                    Box::new(GreedyPerServicePolicy::default()),
                    Box::new(ShortestQueuePolicy::default()),
                ];
                reports.multiservice.push(evaluate_multiservice(
                    &mut methods,
                    |n| {
                        (0..n)
                            .map(|_| Simulator::new(SimConfig::new(MULTISERVICE_NODES)))
                            .collect::<Vec<_>>()
                    },
                    &self.ms_trace,
                    &self.ms_t0s,
                    cfg,
                    name,
                ));
            });
        }

        let mut d = Digest::default();
        let mut episodes = 0u64;
        let mut method = |reward: f64, n: usize| {
            d.push_f64(reward);
            episodes += n as u64;
        };
        for lane in reports.chaos.iter().flat_map(|r| &r.lanes) {
            lane.methods
                .iter()
                .for_each(|m| method(m.mean_reward, m.episodes));
        }
        for lane in reports.hetero.iter().flat_map(|r| &r.lanes) {
            lane.methods
                .iter()
                .for_each(|m| method(m.mean_reward, m.episodes));
        }
        for report in &reports.multiservice {
            report
                .methods
                .iter()
                .for_each(|m| method(m.mean_reward, m.episodes));
        }
        for lane in reports.chaos.iter().flat_map(|r| &r.lanes) {
            for v in [
                lane.faults.evictions,
                lane.faults.retries,
                lane.faults.retry_successes,
            ] {
                d.push(v);
            }
        }
        for lane in reports.hetero.iter().flat_map(|r| &r.lanes) {
            d.push(lane.hetero.slowdowns);
            d.push(lane.hetero.span_placements);
        }
        for report in &reports.multiservice {
            d.push(report.decisions);
        }
        self.reports = reports;
        SliceOut {
            work: episodes,
            attempted: episodes,
            digest: d.0,
        }
    }

    /// Fault totals of one severity over the sweep's chaos calls.
    fn faults(&self, severity: ChaosSeverity) -> FaultStats {
        let mut total = FaultStats::default();
        for lane in self.reports.chaos.iter().map(|r| r.lane(severity)) {
            total.evictions += lane.faults.evictions;
            total.retries += lane.faults.retries;
            total.retry_successes += lane.faults.retry_successes;
        }
        total
    }
}

/// Mean of a per-call statistic.
fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.collect();
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

impl Workload for Scenarios {
    /// One part per `evaluate_*` call.
    fn slice(&mut self, parts: &mut Vec<Part>) -> SliceOut {
        self.run(|_, run| part_of(parts, run))
    }

    /// Each harness is one opaque public call, so the traced slice is
    /// the same calls with a span around each.
    fn traced_slice(&mut self, t: &mut Tracer) -> SliceOut {
        t.set_op(0);
        t.enter(BENCH_OP);
        let out = self.run(|span, run| {
            t.enter(span);
            run();
            t.exit();
        });
        t.exit();
        out
    }

    fn check(&mut self, failures: &mut Vec<String>) {
        let r = &self.reports;
        if r.chaos.len() != CALLS || r.hetero.len() != CALLS || r.multiservice.len() != 2 {
            failures.push("a scenario harness did not report".into());
            return;
        }
        let none = self.faults(ChaosSeverity::None);
        if none != FaultStats::default() {
            failures.push(format!("chaos control lane injected faults: {none:?}"));
        }
        let severe = self.faults(ChaosSeverity::Severe);
        if severe.evictions < 1 || severe.retry_successes < 1 {
            failures.push(format!("severe chaos lane failed to inject: {severe:?}"));
        }
        for scenario in HeteroScenario::ALL {
            let lanes = r.hetero.iter().map(|h| h.lane(scenario));
            let (spans, slowdowns) = lanes.fold((0, 0), |(s, d), l| {
                (s + l.hetero.span_placements, d + l.hetero.slowdowns)
            });
            if spans < 1 || slowdowns < 1 {
                failures.push(format!(
                    "{} hetero lane failed to contend: {spans} spanning placements, {slowdowns} slowdowns",
                    scenario.label()
                ));
            }
        }
        let rewards = (r.chaos.iter().flat_map(|c| &c.lanes))
            .flat_map(|l| l.methods.iter().map(|m| m.mean_reward))
            .chain(
                (r.hetero.iter().flat_map(|h| &h.lanes))
                    .flat_map(|l| l.methods.iter().map(|m| m.mean_reward)),
            )
            .chain(
                r.multiservice
                    .iter()
                    .flat_map(|m| m.methods.iter().map(|s| s.mean_reward)),
            );
        if rewards.into_iter().any(|x| !x.is_finite()) {
            failures.push("non-finite scenario reward".into());
        }
    }

    fn layer_metrics(&mut self, out: &mut Metrics) {
        let r = &self.reports;
        let mut faults = FaultStats::default();
        for severity in ChaosSeverity::ALL {
            let lane = self.faults(severity);
            faults.evictions += lane.evictions;
            faults.retries += lane.retries;
            faults.retry_successes += lane.retry_successes;
        }
        out.insert("sim.fault.evictions.count", faults.evictions as f64);
        out.insert("sim.fault.retries.count", faults.retries as f64);
        out.insert(
            "sim.fault.retry_successes.count",
            faults.retry_successes as f64,
        );
        let hetero_lanes = || r.hetero.iter().flat_map(|h| &h.lanes);
        out.insert(
            "sim.hetero.slowdowns.count",
            hetero_lanes().map(|l| l.hetero.slowdowns as f64).sum(),
        );
        out.insert(
            "sim.hetero.span_placements.count",
            hetero_lanes()
                .map(|l| l.hetero.span_placements as f64)
                .sum(),
        );
        out.insert(
            "core.multiservice.decisions.count",
            r.multiservice.iter().map(|m| m.decisions as f64).sum(),
        );
        out.insert(
            "core.chaos.severe.rl_reward",
            mean(
                r.chaos
                    .iter()
                    .map(|c| c.summary(ChaosSeverity::Severe, "dqn").mean_reward),
            ),
        );
        out.insert(
            "core.hetero.scarce.rl_reward",
            mean(
                r.hetero
                    .iter()
                    .map(|h| h.summary(HeteroScenario::Scarce, "dqn").mean_reward),
            ),
        );
        let bursty = r.multiservice.iter().filter(|m| m.scenario == "bursty");
        out.insert(
            "core.multiservice.bursty.rl_reward",
            mean(
                bursty
                    .filter_map(|m| m.method("dqn"))
                    .map(|m| m.mean_reward),
            ),
        );
    }
}
