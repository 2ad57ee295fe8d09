//! Warm once, fork per method: `evaluate`, `evaluate_chaos`,
//! `evaluate_hetero`, `evaluate_multiservice` and `collect_offline` run
//! on one loop that warms each episode start once and runs every method
//! on a restore of that warm engine (collection's one method walks the
//! start's waiting line and forks a run at each split point's submit
//! decision). Their outputs must equal, field for field or bit for bit,
//! those of re-warming the backend for every method (`run_method`,
//! `oracle_multiservice` and `oracle_collect_offline` below, the
//! test-local oracles). CI runs the five `*_matches_rewarm_oracle` tests
//! by name.
//!
//! The method lists cover what a restore could leak between methods:
//! early submitters (FCFS, a sampling PG policy whose RNG stream runs on
//! across episodes), a threshold heuristic, and a DQN on a poisoned
//! network whose fallback counter moves every decision. The
//! first `evaluate` list has no `reactive`, so the load level comes from
//! the implicit reactive run.

use std::ops::AddAssign;

use mirage_core::chaos::{evaluate_chaos, ChaosConfig, ChaosLane, ChaosReport, ChaosSeverity};
use mirage_core::episode::{run_episode, Action, EpisodeConfig, EpisodeResult};
use mirage_core::eval::{
    evaluate, EpisodeRecord, EvalConfig, EvalReport, LaneMethodSummary, LoadLevel, MethodOutcome,
};
use mirage_core::features::extract_features;
use mirage_core::hetero::{
    evaluate_hetero, HeteroConfig, HeteroLane, HeteroReport, HeteroScenario,
};
use mirage_core::multiservice::{
    bursty_scenario, diurnal_scenario, evaluate_multiservice, GreedyPerServicePolicy,
    MultiMethodSummary, MultiServiceConfig, MultiServiceEnv, MultiServicePolicy,
    MultiServiceReport, RlServicePolicy, ShortestQueuePolicy, UniformSharePolicy,
};
use mirage_core::policy::{
    AvgWaitPolicy, DqnPolicy, FcfsPolicy, PgPolicy, ProvisionPolicy, ReactivePolicy,
};
use mirage_core::reward::RewardShaper;
use mirage_core::state::STATE_VARS;
use mirage_core::train::{
    collect_offline, episode_window, sample_episode_starts, OfflineData, TrainConfig,
};
use mirage_nn::foundation::FoundationKind;
use mirage_nn::transformer::TransformerConfig;
use mirage_rl::{
    ActionEncoding, DqnAgent, DqnConfig, DualHeadConfig, DualHeadNet, PgAgent, PgConfig,
    RewardSample,
};
use mirage_sim::{
    BackendKind, ClusterBackend, FaultModel, HeteroModel, SimBuilder, SimConfig, Simulator,
};
use mirage_trace::{JobRecord, DAY, HOUR, MINUTE};

const K: usize = 4;

fn net(seed: u64) -> DualHeadNet {
    DualHeadNet::new(DualHeadConfig {
        foundation: FoundationKind::Transformer,
        transformer: TransformerConfig {
            input_dim: STATE_VARS,
            seq_len: K,
            d_model: 8,
            heads: 2,
            layers: 1,
            ff_mult: 2,
        },
        action_encoding: ActionEncoding::TwoHead,
        freeze_foundation: false,
        seed,
    })
}

/// A DQN whose every weight is NaN: each decision falls back to `Wait`
/// and is counted.
fn poisoned_guarded() -> DqnPolicy {
    let mut net = net(3);
    let ids: Vec<_> = net.ps.iter().map(|(id, _)| id).collect();
    for id in ids {
        net.ps.get_mut(id).data_mut().fill(f32::NAN);
    }
    DqnPolicy {
        agent: DqnAgent::new(net, DqnConfig::default()),
        label: "guarded".into(),
    }
}

fn methods(with_reactive: bool) -> Vec<Box<dyn ProvisionPolicy>> {
    let mut methods: Vec<Box<dyn ProvisionPolicy>> = Vec::new();
    if with_reactive {
        methods.push(Box::new(ReactivePolicy));
    }
    methods.push(Box::new(AvgWaitPolicy::default()));
    methods.push(Box::new(FcfsPolicy));
    methods.push(Box::new(poisoned_guarded()));
    methods.push(Box::new(PgPolicy::new(
        PgAgent::new(net(5), PgConfig::default()),
        "pg",
        11,
    )));
    methods
}

fn busy_trace(days: i64, nodes: u32) -> Vec<JobRecord> {
    (0..days * 24 * 2)
        .map(|i| {
            JobRecord::new(
                i as u64 + 1,
                format!("bg{i}"),
                (i % 5) as u32,
                i * HOUR / 2,
                nodes,
                8 * HOUR,
                4 * HOUR,
            )
        })
        .collect()
}

fn episode(pair_nodes: u32) -> EpisodeConfig {
    EpisodeConfig {
        pair_nodes,
        pair_timelimit: 6 * HOUR,
        pair_runtime: 6 * HOUR,
        decision_interval: 30 * MINUTE,
        history_k: K,
        warmup: DAY,
        pair_user: 999,
        fault_features: true,
        hetero_features: true,
    }
}

/// One method's episode, re-warmed: reset the policy, re-warm the backend
/// from scratch (`run_episode` resets it and replays the warm-up) and
/// run, stamping the episode's guard-fallback delta.
fn run_method<B: ClusterBackend>(
    method: &mut dyn ProvisionPolicy,
    backend: &mut B,
    window: &[JobRecord],
    episode: &EpisodeConfig,
    t0: i64,
) -> EpisodeResult {
    method.reset();
    let fallbacks_before = method.guard_fallbacks();
    let mut result = run_episode(backend, window, episode, t0, |ctx| method.decide(ctx));
    result.outcome.guard_fallbacks = method.guard_fallbacks() - fallbacks_before;
    result
}

/// `evaluate`, re-warming per method.
fn oracle_evaluate<B: ClusterBackend>(
    methods: &mut [Box<dyn ProvisionPolicy>],
    backend: &mut B,
    trace: &[JobRecord],
    range: (i64, i64),
    cfg: &EvalConfig,
) -> EvalReport {
    let starts = sample_episode_starts(range.0, range.1, &cfg.episode, cfg.n_episodes, cfg.seed);
    let method_names: Vec<String> = methods.iter().map(|m| m.name()).collect();
    let reactive_idx = method_names.iter().position(|n| n == "reactive");
    let mut episodes = Vec::new();
    for &t0 in &starts {
        let window = episode_window(trace, t0, &cfg.episode);
        let mut outcomes = Vec::new();
        for m in methods.iter_mut() {
            let result = run_method(m.as_mut(), backend, window, &cfg.episode, t0);
            outcomes.push(MethodOutcome {
                method: m.name(),
                outcome: result.outcome,
                proactive: result.submitted_by_policy,
            });
        }
        let reactive_wait = match reactive_idx {
            Some(i) => outcomes[i].outcome.interruption,
            None => {
                let mut reactive = ReactivePolicy;
                run_method(&mut reactive, backend, window, &cfg.episode, t0)
                    .outcome
                    .interruption
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

/// One method's sums over a lane, as the lanes report them.
#[derive(Default)]
struct Sums {
    reward: f64,
    interruption_h: f64,
    fault_h: f64,
    zero: usize,
    episodes: usize,
    guard_fallbacks: u64,
}

impl Sums {
    fn mean(&self, sum: f64) -> f64 {
        sum / self.episodes.max(1) as f64
    }
}

/// The chaos / hetero sweep body, re-warming per method.
fn oracle_sweep<B: ClusterBackend, S: Default + AddAssign>(
    methods: &mut [Box<dyn ProvisionPolicy>],
    backend: &mut B,
    trace: &[JobRecord],
    starts: &[i64],
    episode: &EpisodeConfig,
    shaper: &RewardShaper,
    stats: impl Fn(&B) -> S,
) -> (Vec<Sums>, S) {
    let mut sums: Vec<Sums> = methods.iter().map(|_| Sums::default()).collect();
    let mut totals = S::default();
    for &t0 in starts {
        let window = episode_window(trace, t0, episode);
        for (m, s) in methods.iter_mut().zip(&mut sums) {
            let o = run_method(m.as_mut(), backend, window, episode, t0).outcome;
            totals += stats(backend);
            s.guard_fallbacks += o.guard_fallbacks;
            s.reward += f64::from(shaper.reward(&o));
            s.interruption_h += (o.interruption + o.fault_interruption) as f64 / 3600.0;
            s.fault_h += o.fault_interruption as f64 / 3600.0;
            s.zero += usize::from(o.zero_interruption());
            s.episodes += 1;
        }
    }
    (sums, totals)
}

/// `evaluate_chaos`, re-warming per method.
fn oracle_chaos(
    methods: &mut [Box<dyn ProvisionPolicy>],
    builder: &SimBuilder,
    trace: &[JobRecord],
    range: (i64, i64),
    cfg: &ChaosConfig,
) -> ChaosReport {
    let starts = sample_episode_starts(range.0, range.1, &cfg.episode, cfg.n_episodes, cfg.seed);
    let mut lanes = Vec::new();
    for severity in ChaosSeverity::ALL {
        let mut backend = builder
            .clone()
            .faults(severity.fault_model(cfg.fault_seed))
            .retry(cfg.retry)
            .build();
        let (sums, faults) = oracle_sweep(
            methods,
            &mut backend,
            trace,
            &starts,
            &cfg.episode,
            &cfg.shaper,
            |b| b.fault_stats(),
        );
        let methods = sums
            .iter()
            .zip(methods.iter())
            .map(|(s, m)| LaneMethodSummary {
                method: m.name(),
                episodes: s.episodes,
                mean_reward: s.mean(s.reward),
                avg_interruption_h: s.mean(s.interruption_h),
                avg_fault_interruption_h: s.mean(s.fault_h),
                zero_interruption_frac: s.mean(s.zero as f64),
                guard_fallbacks: s.guard_fallbacks,
            })
            .collect();
        lanes.push(ChaosLane {
            severity,
            methods,
            faults,
        });
    }
    ChaosReport { lanes }
}

/// `evaluate_hetero`, re-warming per method.
fn oracle_hetero(
    methods: &mut [Box<dyn ProvisionPolicy>],
    builder: &SimBuilder,
    trace: &[JobRecord],
    range: (i64, i64),
    cfg: &HeteroConfig,
) -> HeteroReport {
    let starts = sample_episode_starts(range.0, range.1, &cfg.episode, cfg.n_episodes, cfg.seed);
    let mut lanes = Vec::new();
    for scenario in HeteroScenario::ALL {
        let mut backend = builder
            .clone()
            .nodes(cfg.nodes)
            .hetero(scenario.model(cfg.nodes, cfg.hetero_seed))
            .build();
        let (sums, hetero) = oracle_sweep(
            methods,
            &mut backend,
            trace,
            &starts,
            &cfg.episode,
            &cfg.shaper,
            |b| b.hetero_stats(),
        );
        let methods = sums
            .iter()
            .zip(methods.iter())
            .map(|(s, m)| LaneMethodSummary {
                method: m.name(),
                episodes: s.episodes,
                mean_reward: s.mean(s.reward),
                avg_interruption_h: s.mean(s.interruption_h),
                avg_fault_interruption_h: s.mean(s.fault_h),
                zero_interruption_frac: s.mean(s.zero as f64),
                guard_fallbacks: s.guard_fallbacks,
            })
            .collect();
        lanes.push(HeteroLane {
            scenario,
            methods,
            hetero,
        });
    }
    HeteroReport { lanes }
}

/// `evaluate_multiservice` re-warming per method: fresh backends for
/// every method, start `i` on backend `i`, one engine per episode.
fn oracle_multiservice<B: ClusterBackend>(
    methods: &mut [Box<dyn MultiServicePolicy>],
    mut make_backends: impl FnMut(usize) -> Vec<B>,
    trace: &[JobRecord],
    t0s: &[i64],
    cfg: &MultiServiceConfig,
    scenario: &str,
) -> MultiServiceReport {
    let mut summaries = Vec::new();
    let mut decisions = 0u64;
    for m in methods.iter_mut() {
        let mut results = Vec::new();
        for (backend, &t0) in make_backends(t0s.len()).into_iter().zip(t0s) {
            m.reset();
            let mut env = MultiServiceEnv::new(backend, trace, cfg, t0);
            env.set_record_decisions(false);
            decisions += env.run(m.as_mut());
            results.push(env.finish().0);
        }

        let per_service = (results.len() * cfg.n_services()) as f64;
        let (mut reward, mut interruption, mut overlap) = (0.0f64, 0.0f64, 0.0f64);
        let (mut slo_hits, mut proactive, mut stampede) = (0usize, 0usize, 0usize);
        for r in &results {
            stampede += r.stampede_ticks;
            for s in &r.services {
                reward += f64::from(s.reward);
                interruption += s.outcome.interruption as f64 / 3600.0;
                overlap += s.outcome.overlap as f64 / 3600.0;
                slo_hits += usize::from(s.slo_met);
                proactive += usize::from(s.submitted_by_policy);
            }
        }
        summaries.push(MultiMethodSummary {
            method: m.name(),
            episodes: results.len(),
            mean_reward: reward / per_service,
            mean_interruption_h: interruption / per_service,
            mean_overlap_h: overlap / per_service,
            slo_hit_rate: slo_hits as f64 / per_service,
            stampede_ticks: stampede,
            proactive_rate: proactive as f64 / per_service,
        });
    }
    MultiServiceReport {
        scenario: scenario.into(),
        services: cfg.n_services(),
        methods: summaries,
        decisions,
    }
}

/// `collect_offline`, re-warming per run: one fresh `run_episode` per
/// (start, split) on `backend`, the features at the first submit, then
/// the same post-processing — every decision into the reward pool with
/// its run's reward, `(features, wait)` per submitting run, and per
/// distinct `t0` the decisions of its best run (the first of equals), in
/// `t0` order.
fn oracle_collect_offline<B: ClusterBackend>(
    backend: &mut B,
    trace: &[JobRecord],
    cfg: &TrainConfig,
    starts: &[i64],
) -> OfflineData {
    let episode = &cfg.episode;
    let points = cfg.split_points.max(1) as i64;
    let mut data = OfflineData::default();
    let mut best = std::collections::BTreeMap::new();
    for &t0 in starts {
        let window = episode_window(trace, t0, episode);
        for split in std::iter::once(None).chain((0..points).map(Some)) {
            let mut features = None;
            let mut result = run_episode(backend, window, episode, t0, |ctx| {
                let submit = split.is_some_and(|j| {
                    let threshold = (j + 1) * episode.pair_timelimit / (points + 1);
                    ctx.pred_started && episode.pair_timelimit - ctx.pred_remaining >= threshold
                });
                if !submit {
                    return Action::Wait;
                }
                if features.is_none() {
                    features = Some(extract_features(ctx));
                }
                Action::Submit
            });
            let reward = cfg.shaper.reward(&result.outcome);
            if let Some(f) = features {
                let wait_h = result.succ_wait() as f32 / 3600.0;
                data.wait_samples.push((f, wait_h));
            }
            let decisions = result.take_decisions();
            let best_of_t0 = best.entry(t0).or_insert((f32::NEG_INFINITY, Vec::new()));
            if reward > best_of_t0.0 {
                *best_of_t0 = (reward, decisions.clone());
            }
            let samples = decisions.into_iter().map(|(state, action)| RewardSample {
                state,
                action,
                reward,
            });
            data.reward_samples.extend(samples);
        }
    }
    for (_, decisions) in best.into_values() {
        data.best_run_decisions.extend(decisions);
    }
    data
}

fn bits(xs: &[f32]) -> impl Iterator<Item = u32> + '_ {
    xs.iter().map(|v| v.to_bits())
}

/// Every bit of an offline pool: reward samples, wait samples and
/// best-run decisions, floats as their bit patterns.
fn offline_bits(d: &OfflineData) -> Vec<Vec<u32>> {
    let rewards = d.reward_samples.iter().map(|s| {
        let tail = [s.action as u32, s.reward.to_bits()];
        bits(s.state.data()).chain(tail).collect()
    });
    let waits = (d.wait_samples.iter()).map(|(f, w)| bits(f).chain([w.to_bits()]).collect());
    let best =
        (d.best_run_decisions.iter()).map(|(s, a)| bits(s.data()).chain([*a as u32]).collect());
    let lens = vec![
        d.reward_samples.len() as u32,
        d.wait_samples.len() as u32,
        d.best_run_decisions.len() as u32,
    ];
    std::iter::once(lens)
        .chain(rewards)
        .chain(waits)
        .chain(best)
        .collect()
}

/// Field for field: `Debug` prints every field, every float to the bit.
fn assert_same<T: std::fmt::Debug>(forked: &T, oracle: &T, what: &str) {
    assert_eq!(format!("{forked:#?}"), format!("{oracle:#?}"), "{what}");
}

#[test]
fn evaluate_matches_rewarm_oracle() {
    let trace = busy_trace(14, 2);
    let cfg = EvalConfig {
        episode: episode(1),
        n_episodes: 4,
        seed: 7,
    };
    let range = (0, 14 * DAY);
    // Without `reactive` (the implicit run classifies) on the event
    // clock, with it on a coarse tick clock.
    for (with_reactive, kind) in [(false, BackendKind::EventDriven), (true, BackendKind::Tick)] {
        let builder = SimConfig::builder()
            .nodes(4)
            .backend(kind)
            .tick(300)
            .sched_interval(300)
            .backfill_interval(300);
        let forked = evaluate(
            &mut methods(with_reactive),
            &mut builder.build(),
            &trace,
            range,
            &cfg,
        );
        let oracle = oracle_evaluate(
            &mut methods(with_reactive),
            &mut builder.build(),
            &trace,
            range,
            &cfg,
        );
        assert_same(&forked, &oracle, &format!("{kind:?}"));
        let guard = forked.episodes[0]
            .methods
            .iter()
            .find(|m| m.method == "guarded")
            .expect("guarded method evaluated");
        assert!(guard.outcome.guard_fallbacks > 0, "the guard fell back");
        assert!(
            forked
                .episodes
                .iter()
                .any(|e| e.methods.iter().any(|m| m.proactive)),
            "some method submitted early"
        );
    }
    // The plain simulator as the caller's backend.
    let forked = evaluate(
        &mut methods(false),
        &mut Simulator::new(SimConfig::new(4)),
        &trace,
        range,
        &cfg,
    );
    let oracle = oracle_evaluate(
        &mut methods(false),
        &mut Simulator::new(SimConfig::new(4)),
        &trace,
        range,
        &cfg,
    );
    assert_same(&forked, &oracle, "Simulator");
}

#[test]
fn evaluate_chaos_matches_rewarm_oracle() {
    let trace = busy_trace(10, 2);
    let cfg = ChaosConfig {
        episode: episode(1),
        n_episodes: 3,
        ..ChaosConfig::default()
    };
    let builder = SimConfig::builder().nodes(4);
    let range = (0, 10 * DAY);
    let forked = evaluate_chaos(&mut methods(true), &builder, &trace, range, &cfg);
    let oracle = oracle_chaos(&mut methods(true), &builder, &trace, range, &cfg);
    assert_same(&forked, &oracle, "chaos");
    let severe = forked.lane(ChaosSeverity::Severe);
    assert!(severe.faults.evictions > 0, "the crash tape evicted");
    assert!(
        forked
            .summary(ChaosSeverity::Severe, "guarded")
            .guard_fallbacks
            > 0
    );
}

#[test]
fn evaluate_hetero_matches_rewarm_oracle() {
    let trace = busy_trace(8, 3);
    let cfg = HeteroConfig {
        episode: episode(2),
        n_episodes: 3,
        nodes: 8,
        ..HeteroConfig::default()
    };
    let builder = SimConfig::builder();
    let range = (0, 8 * DAY);
    let forked = evaluate_hetero(&mut methods(false), &builder, &trace, range, &cfg);
    let oracle = oracle_hetero(&mut methods(false), &builder, &trace, range, &cfg);
    assert_same(&forked, &oracle, "hetero");
    let scarce = forked.lane(HeteroScenario::Scarce);
    assert!(scarce.hetero.slowdowns > 0, "the pools contended");
    assert!(
        forked
            .summary(HeteroScenario::Scarce, "guarded")
            .guard_fallbacks
            > 0
    );
}

#[test]
fn evaluate_multiservice_matches_rewarm_oracle() {
    const NODES: u32 = 16;
    // Hourly 1–3 node jobs over 16 days: past the last pair's hand-off.
    let trace: Vec<JobRecord> = (0..16 * 24)
        .map(|i| {
            let nodes = 1 + (i % 3) as u32;
            JobRecord::new(
                i as u64 + 1,
                format!("bg{i}"),
                (i % 5) as u32,
                i * HOUR,
                nodes,
                6 * HOUR,
                3 * HOUR,
            )
        })
        .collect();
    let t0s = [3 * DAY, 5 * DAY + 7 * HOUR, 8 * DAY + 13 * HOUR];
    let methods = |cfg: &MultiServiceConfig| -> Vec<Box<dyn MultiServicePolicy>> {
        let agent = DqnAgent::new(
            DualHeadNet::new(DualHeadConfig::small(
                FoundationKind::Transformer,
                STATE_VARS,
                cfg.history_k,
                5,
            )),
            DqnConfig::default(),
        );
        vec![
            Box::new(RlServicePolicy::new(agent, "dqn")),
            Box::new(UniformSharePolicy),
            Box::new(GreedyPerServicePolicy::default()),
            Box::new(ShortestQueuePolicy::default()),
        ]
    };
    // Identical simulators, as the benchmark passes; and pool slots that
    // each draw their own crash tape, so only "start `i` runs on backend
    // `i`" reproduces the oracle.
    let identical = |n: usize| -> Vec<Simulator> {
        (0..n)
            .map(|_| Simulator::new(SimConfig::new(NODES)))
            .collect()
    };
    let pool = SimConfig::builder()
        .nodes(NODES)
        .faults(FaultModel::severe(4242))
        .build_pool();
    for (cfg, scenario) in [
        (diurnal_scenario(3, NODES, 11), "diurnal"),
        (bursty_scenario(3, NODES, 11), "bursty"),
    ] {
        let mut calls = Vec::new();
        let forked = evaluate_multiservice(
            &mut methods(&cfg),
            |n| {
                calls.push(n);
                identical(n)
            },
            &trace,
            &t0s,
            &cfg,
            scenario,
        );
        assert_eq!(calls, [t0s.len()], "one make_backends call per evaluation");
        let oracle =
            oracle_multiservice(&mut methods(&cfg), identical, &trace, &t0s, &cfg, scenario);
        assert_same(&forked, &oracle, scenario);
        assert!(forked.decisions > 0);

        let slots = |n: usize| pool.build_range(0, n);
        let forked = evaluate_multiservice(&mut methods(&cfg), slots, &trace, &t0s, &cfg, scenario);
        let oracle = oracle_multiservice(&mut methods(&cfg), slots, &trace, &t0s, &cfg, scenario);
        assert_same(&forked, &oracle, &format!("{scenario}, pool slots"));
        // The slots' tapes matter: running every start on slot 0's tape
        // changes the report.
        let slot0 = |n: usize| vec![pool.build_one(); n];
        let one_tape =
            evaluate_multiservice(&mut methods(&cfg), slot0, &trace, &t0s, &cfg, scenario);
        assert_ne!(
            format!("{forked:#?}"),
            format!("{one_tape:#?}"),
            "{scenario}"
        );
    }
}

#[test]
fn collect_offline_matches_rewarm_oracle() {
    let trace = busy_trace(12, 2);
    let cfg = TrainConfig {
        episode: episode(1),
        split_points: 3,
        ..TrainConfig::default()
    };
    // The repeated start runs twice as often as the others, and its best
    // run is chosen over both occurrences.
    let starts = [2 * DAY + 5 * HOUR, 4 * DAY, 4 * DAY, 6 * DAY + 17 * HOUR];
    // The event clock at 1 and 4 workers, a coarse tick clock, and a
    // pool whose slot 0 crashes nodes and runs unequal node pools.
    let pooled = |workers| {
        SimConfig::builder()
            .nodes(4)
            .backend(BackendKind::Pooled { workers })
    };
    let tick = SimConfig::builder()
        .nodes(4)
        .backend(BackendKind::Tick)
        .tick(300)
        .sched_interval(300)
        .backfill_interval(300);
    let chaotic = pooled(2)
        .faults(FaultModel::severe(4242))
        .hetero(HeteroModel::scarce(4, 5));
    for (builder, what) in [
        (pooled(1), "1 workers"),
        (pooled(4), "4 workers"),
        (tick, "tick clock"),
        (chaotic, "faults x pools"),
    ] {
        let pool = builder.build_pool();
        let forked = collect_offline(&pool, &trace, &cfg, &starts);
        let oracle = oracle_collect_offline(&mut pool.build_one(), &trace, &cfg, &starts);
        assert!(offline_bits(&forked) == offline_bits(&oracle), "{what}");
        assert!(!forked.wait_samples.is_empty(), "some split run submitted");
        assert!(forked.reward_samples.iter().any(|s| s.action == 0));
        assert!(!forked.best_run_decisions.is_empty());
    }
}
