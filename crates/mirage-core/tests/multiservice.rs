//! Property tests pinning the multi-service engine's degeneration
//! claims:
//!
//! * **N = 1 ≡ single-service** — a `MultiServiceEnv` configured via
//!   `MultiServiceConfig::single` makes the *identical* sequence of
//!   backend-mutating calls as the single-service machinery, so the
//!   episode is bit-identical: same decision count, same state matrices,
//!   same actions, same outcome and timestamps, same reward — against
//!   the `run_episode` closure loop, for arbitrary background load,
//!   scripted "submit at decision n" policies (every outcome a
//!   single-service policy can reach) and threshold policies — and, with
//!   `fault_features` / `hetero_features` on, over a severe-fault and a
//!   scarce-pool backend (the flags reach the engine through
//!   `MultiServiceConfig::single`).
//! * **feature flags at N = 3** — the fault/pool columns of every
//!   service's state matrix are live with the flags on and zero with them
//!   off, the other columns untouched.
//! * **two-service smoke** — the short shared-cluster episode CI runs
//!   explicitly: services resolve, ledgers tag per-service usage, and
//!   the stampede accounting stays consistent.
//! * **traffic peaks wider than the partition** — a bursty service whose
//!   demand outgrows the cluster still resolves: its pair jobs are
//!   submitted clamped to the partition.

use mirage_core::episode::{run_episode, Action, EpisodeConfig};
use mirage_core::multiservice::{
    bursty_scenario, MultiServiceConfig, MultiServiceEnv, ServiceSlo, UniformSharePolicy,
};
use mirage_core::reward::RewardShaper;
use mirage_core::train::episode_window;
use mirage_sim::{ClusterBackend, FaultModel, HeteroModel, SimConfig, Simulator};
use mirage_trace::{JobRecord, DAY, HOUR};
use proptest::prelude::*;

fn sim4() -> Simulator {
    Simulator::new(SimConfig::new(4))
}

/// Sorted background trace from proptest raw material.
fn build_trace(jobs: &[(i64, u32, i64)]) -> Vec<JobRecord> {
    let mut submits: Vec<(i64, u32, i64)> = jobs.to_vec();
    submits.sort_by_key(|&(submit, _, _)| submit);
    submits
        .iter()
        .enumerate()
        .map(|(i, &(submit, nodes, runtime))| {
            JobRecord::new(
                i as u64 + 1,
                format!("bg{i}"),
                (i % 3) as u32,
                submit,
                nodes,
                runtime * 2,
                runtime,
            )
        })
        .collect()
}

fn episode_cfg(interval: i64, k: usize, runtime_h: i64) -> EpisodeConfig {
    EpisodeConfig {
        pair_nodes: 1,
        pair_timelimit: runtime_h * HOUR,
        pair_runtime: runtime_h * HOUR,
        decision_interval: interval,
        history_k: k,
        warmup: DAY,
        pair_user: 999,
        fault_features: false,
        hetero_features: false,
    }
}

/// Drives a one-service `MultiServiceEnv` with a decision-indexed
/// policy, returning the per-service episode record.
fn run_single_service(
    window: &[JobRecord],
    ms: &MultiServiceConfig,
    t0: i64,
    decide: impl FnMut(usize, bool, i64) -> Action,
) -> mirage_core::multiservice::ServiceEpisode {
    run_single_service_on(sim4(), window, ms, t0, decide)
}

/// [`run_single_service`] on a caller-built backend.
fn run_single_service_on(
    backend: impl ClusterBackend,
    window: &[JobRecord],
    ms: &MultiServiceConfig,
    t0: i64,
    mut decide: impl FnMut(usize, bool, i64) -> Action,
) -> mirage_core::multiservice::ServiceEpisode {
    let mut env = MultiServiceEnv::new(backend, window, ms, t0);
    let mut n = 0usize;
    while env.is_deciding() {
        let width = env.advance_tick();
        if width == 0 {
            continue;
        }
        let ctx = env.slot_context(0);
        let action = decide(n, ctx.pred_started, ctx.pred_remaining);
        n += 1;
        env.apply(&[action]);
    }
    let (mut result, _) = env.finish();
    assert_eq!(result.stampede_ticks, 0, "one service can never stampede");
    result.services.remove(0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// N = 1 degeneration against `run_episode` under a scripted policy
    /// that submits at decision `submit_at` (or never, letting the
    /// reactive fallback fire): every outcome a single-service policy can
    /// reach is one of these. Both sides see the same states, take the
    /// same actions, and resolve to the same outcome, timestamps and
    /// shaped reward.
    #[test]
    fn one_service_matches_run_episode_under_scripted_submits(
        jobs in prop::collection::vec((0i64..5 * DAY, 1u32..=3, 1800i64..18_000), 0..25),
        submit_at in 0usize..16,
        interval_half_hours in 1i64..=2,
        k in 2usize..6,
        runtime_h in 2i64..7,
    ) {
        let trace = build_trace(&jobs);
        let cfg = episode_cfg(interval_half_hours * HOUR / 2, k, runtime_h);
        let t0 = DAY;
        let shaper = RewardShaper::default();
        let window = episode_window(&trace, t0, &cfg);

        let mut n = 0usize;
        let expect = run_episode(&mut sim4(), window, &cfg, t0, |_| {
            let a = Action::from_index(usize::from(n == submit_at));
            n += 1;
            a
        });

        let ms = MultiServiceConfig::single(&cfg, shaper);
        let got = run_single_service(window, &ms, t0, |n, _, _| {
            Action::from_index(usize::from(n == submit_at))
        });

        prop_assert_eq!(got.outcome, expect.outcome);
        prop_assert_eq!(got.pred_submit, expect.pred_submit);
        prop_assert_eq!(got.pred_start, expect.pred_start);
        prop_assert_eq!(got.pred_end, expect.pred_end);
        prop_assert_eq!(got.succ_submit, expect.succ_submit);
        prop_assert_eq!(got.succ_start, expect.succ_start);
        prop_assert_eq!(got.submitted_by_policy, expect.submitted_by_policy);
        prop_assert_eq!(got.submitted_by_policy, submit_at < expect.decisions.len());
        prop_assert_eq!(got.reward, shaper.reward(&expect.outcome));
        prop_assert_eq!(got.decisions.len(), expect.decisions.len());
        for ((gm, ga), (em, ea)) in got.decisions.iter().zip(&expect.decisions) {
            prop_assert_eq!(ga, ea, "same action at every decision");
            prop_assert_eq!(gm, em, "same state matrix at every decision");
        }
    }

    /// N = 1 degeneration against `run_episode` under context-sensitive
    /// threshold policies and arbitrary reward weights.
    #[test]
    fn one_service_matches_run_episode_under_threshold_policies(
        jobs in prop::collection::vec((0i64..5 * DAY, 1u32..=4, 1800i64..20_000), 0..25),
        threshold_h in 0i64..10,
        e_i in 0.0f32..8.0,
        e_o in 0.0f32..8.0,
        runtime_h in 2i64..7,
    ) {
        let trace = build_trace(&jobs);
        let cfg = episode_cfg(HOUR / 2, 4, runtime_h);
        let t0 = DAY;
        let shaper = RewardShaper { e_interrupt: e_i, e_overlap: e_o };
        let threshold = threshold_h * HOUR;

        let expect = run_episode(&mut sim4(), &trace, &cfg, t0, |ctx| {
            if ctx.pred_started && ctx.pred_remaining <= threshold {
                Action::Submit
            } else {
                Action::Wait
            }
        });

        let ms = MultiServiceConfig::single(&cfg, shaper);
        let got = run_single_service(&trace, &ms, t0, |_, started, remaining| {
            if started && remaining <= threshold {
                Action::Submit
            } else {
                Action::Wait
            }
        });

        prop_assert_eq!(got.outcome, expect.outcome);
        prop_assert_eq!(got.succ_submit, expect.succ_submit);
        prop_assert_eq!(got.succ_start, expect.succ_start);
        prop_assert_eq!(got.submitted_by_policy, expect.submitted_by_policy);
        prop_assert_eq!(got.reward, shaper.reward(&expect.outcome));
        prop_assert_eq!(got.decisions.len(), expect.decisions.len());
        for ((gm, ga), (em, ea)) in got.decisions.iter().zip(&expect.decisions) {
            prop_assert_eq!(ga, ea);
            prop_assert_eq!(gm, em);
        }
    }

    /// The N = 1 identity with each encoder flag on, over the backend
    /// whose surface the flag exposes: the flag must reach the engine's
    /// encoder exactly as it reaches the single-service driver's.
    #[test]
    fn one_service_matches_run_episode_with_fault_and_pool_features(
        jobs in prop::collection::vec((0i64..5 * DAY, 1u32..=4, 1800i64..20_000), 5..25),
        threshold_h in 0i64..6,
        fault_seed in 0u64..1000,
        which_flag in 0u8..2,
    ) {
        let hetero_on = which_flag == 1;
        let trace = build_trace(&jobs);
        let mut cfg = episode_cfg(HOUR / 2, 4, 4);
        cfg.fault_features = !hetero_on;
        cfg.hetero_features = hetero_on;
        let backend = || {
            let builder = SimConfig::builder().nodes(4);
            if hetero_on {
                builder.hetero(HeteroModel::scarce(4, fault_seed)).build()
            } else {
                builder.faults(FaultModel::severe(fault_seed)).build()
            }
        };
        let t0 = DAY;
        let threshold = threshold_h * HOUR;
        let policy = |started: bool, remaining: i64| {
            if started && remaining <= threshold {
                Action::Submit
            } else {
                Action::Wait
            }
        };

        let expect = run_episode(&mut backend(), &trace, &cfg, t0, |ctx| {
            policy(ctx.pred_started, ctx.pred_remaining)
        });
        let ms = MultiServiceConfig::single(&cfg, RewardShaper::default());
        prop_assert_eq!((ms.fault_features, ms.hetero_features), (!hetero_on, hetero_on));
        let got = run_single_service_on(backend(), &trace, &ms, t0, |_, s, r| policy(s, r));

        prop_assert_eq!(got.outcome, expect.outcome);
        prop_assert_eq!(got.succ_submit, expect.succ_submit);
        prop_assert_eq!(got.succ_start, expect.succ_start);
        prop_assert_eq!(got.submitted_by_policy, expect.submitted_by_policy);
        prop_assert_eq!(&got.decisions, &expect.decisions);
        // The flag's columns are live in at least one recorded state.
        let cols = if hetero_on { 42..46 } else { 40..42 };
        let live = got.decisions.iter().any(|(m, _)| {
            (0..m.rows()).any(|r| m.row(r)[cols.clone()].iter().any(|&v| v != 0.0))
        });
        prop_assert!(got.decisions.is_empty() || live, "flagged columns stayed zero");
    }
}

/// The short two-service shared-cluster episode CI runs by name: both
/// services resolve on one backend, jobs are tagged per service in the
/// usage ledgers, and stampede accounting stays self-consistent.
#[test]
fn two_service_smoke_episode() {
    let cfg = episode_cfg(HOUR / 2, 4, 4);
    let mut ms = MultiServiceConfig::single(&cfg, RewardShaper::default());
    let mut second = ms.services[0].clone();
    second.name = "svc1".into();
    second.user = 1001;
    second.slo = ServiceSlo::with_target(HOUR);
    second.shaper = second.slo.weights();
    ms.services.push(second);
    ms.stampede_coef = 0.25;

    let trace = build_trace(
        &(0..20)
            .map(|i| (i * 3600, 1 + (i % 2) as u32, 7200 + i * 300))
            .collect::<Vec<_>>(),
    );
    let mut env = MultiServiceEnv::new(sim4(), &trace, &ms, DAY);
    while env.is_deciding() {
        let width = env.advance_tick();
        if width == 0 {
            continue;
        }
        let actions: Vec<Action> = (0..width)
            .map(|row| {
                let ctx = env.slot_context(row);
                if ctx.pred_started && ctx.pred_remaining <= HOUR {
                    Action::Submit
                } else {
                    Action::Wait
                }
            })
            .collect();
        env.apply(&actions);
    }
    let (result, backend) = env.finish();

    assert_eq!(result.services.len(), 2);
    for s in &result.services {
        // Outcomes are one-sided and causality holds.
        assert!(s.outcome.interruption == 0 || s.outcome.overlap == 0);
        assert!(s.succ_start >= s.succ_submit);
        assert!(s.pred_end > s.pred_start);
        // The shared backend's ledger saw this service's jobs.
        assert_eq!(s.usage.user, s.user);
        assert!(!s.usage.is_idle());
        assert!(s.reward <= 0.0);
    }
    // Stampede accounting: co-submitter counts are symmetric for N = 2
    // (either both services share a tick or neither does).
    let co: Vec<usize> = result.services.iter().map(|s| s.co_submitters).collect();
    assert_eq!(co[0], co[1]);
    assert_eq!(result.stampede_ticks, usize::from(co[0] > 0));
    // Distinct services, distinct users, shared cluster.
    assert_ne!(result.services[0].user, result.services[1].user);
    assert_eq!(backend.total_nodes(), 4);
}

/// Fault and pool features at N = 3: with the flags on, every service's
/// recorded state matrices carry live fault (40–41) and pool (42–45)
/// columns; with them off those columns are zero and everything else —
/// the other 40 columns, the actions, the outcomes — is unchanged, since
/// the features are observed, not acted on, by a context-only policy.
#[test]
fn three_services_observe_faults_and_pools_only_with_the_flags_on() {
    let cfg = episode_cfg(HOUR / 2, 4, 4);
    let mut ms = MultiServiceConfig::single(&cfg, RewardShaper::default());
    for (i, user) in [1001, 1002].into_iter().enumerate() {
        let mut svc = ms.services[0].clone();
        svc.name = format!("svc{}", i + 1);
        svc.user = user;
        ms.services.push(svc);
    }
    let trace = build_trace(
        &(0..60)
            .map(|i| (i * 1800, 1 + (i % 3) as u32, 7200 + i * 300))
            .collect::<Vec<_>>(),
    );
    let run = |flags: bool| {
        let mut ms = ms.clone();
        ms.fault_features = flags;
        ms.hetero_features = flags;
        let backend = SimConfig::builder()
            .nodes(8)
            .faults(FaultModel::severe(3))
            .hetero(HeteroModel::scarce(8, 5))
            .build();
        let mut env = MultiServiceEnv::new(backend, &trace, &ms, DAY);
        while env.is_deciding() {
            let width = env.advance_tick();
            let actions: Vec<Action> = (0..width)
                .map(|row| {
                    let ctx = env.slot_context(row);
                    if ctx.pred_started && ctx.pred_remaining <= HOUR {
                        Action::Submit
                    } else {
                        Action::Wait
                    }
                })
                .collect();
            env.apply(&actions);
        }
        env.finish().0
    };
    let (on, off) = (run(true), run(false));
    assert_eq!(on.services.len(), 3);
    for (a, b) in on.services.iter().zip(&off.services) {
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.decisions.len(), b.decisions.len());
        assert!(!a.decisions.is_empty());
        let mut live = [false; 6];
        for ((ma, aa), (mb, ab)) in a.decisions.iter().zip(&b.decisions) {
            assert_eq!(aa, ab);
            for r in 0..ma.rows() {
                assert_eq!(ma.row(r)[..40], mb.row(r)[..40], "shared columns moved");
                assert!(
                    mb.row(r)[40..].iter().all(|&v| v == 0.0),
                    "flag-off column set"
                );
                for (c, seen) in live.iter_mut().enumerate() {
                    *seen |= ma.row(r)[40 + c] != 0.0;
                }
            }
        }
        // Which pools have headroom depends on the tape; that some fault
        // column and some pool column carry signal does not.
        assert!(live[..2].contains(&true), "{}: dead fault columns", a.name);
        assert!(live[2..].contains(&true), "{}: dead pool columns", a.name);
    }
}

/// Hourly 1–3 node background jobs over 16 days.
fn hourly_trace() -> Vec<JobRecord> {
    (0..16 * 24)
        .map(|i| {
            JobRecord::new(
                i as u64 + 1,
                format!("bg{i}"),
                (i % 5) as u32,
                i * HOUR,
                1 + (i % 3) as u32,
                6 * HOUR,
                3 * HOUR,
            )
        })
        .collect()
}

/// Runs a bursty three-service episode on a 16-node cluster under the
/// uniform-share baseline to the end; every pair must resolve.
fn bursty_episode_resolves(seed: u64, t0: i64) -> MultiServiceConfig {
    let cfg = bursty_scenario(3, 16, seed);
    let mut env = MultiServiceEnv::new(
        Simulator::new(SimConfig::new(16)),
        &hourly_trace(),
        &cfg,
        t0,
    );
    env.run(&mut UniformSharePolicy);
    let (result, _) = env.finish();
    assert_eq!(result.services.len(), 3);
    for s in &result.services {
        assert!(s.pred_end > s.pred_start && s.succ_start >= s.succ_submit);
    }
    cfg
}

/// A successor whose demand peaks past the partition when it is
/// submitted used to be rejected by the backend and never resolve ("the
/// simulation drained before every pair resolved").
#[test]
fn a_successor_demand_wider_than_the_partition_still_resolves() {
    let t0 = 4 * DAY + 14 * HOUR;
    let cfg = bursty_episode_resolves(12, t0);
    let peak = (t0..t0 + 2 * DAY)
        .step_by(HOUR as usize)
        .flat_map(|t| cfg.services.iter().map(move |s| s.nodes_at(t)))
        .max();
    assert!(peak > Some(16), "demand stayed within the partition");
}

/// A predecessor whose demand at `t0` is wider than the partition used
/// to be rejected ("predecessor wider than the partition").
#[test]
fn a_predecessor_demand_wider_than_the_partition_still_resolves() {
    let t0 = 5 * DAY + 9 * HOUR;
    let cfg = bursty_episode_resolves(11, t0);
    assert!(cfg.services.iter().any(|s| s.nodes_at(t0) > 16));
}
