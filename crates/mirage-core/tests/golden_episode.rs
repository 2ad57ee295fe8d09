//! Golden digests of whole provisioning episodes, captured on the commit
//! before the single-service drivers became N = 1 views over the
//! multi-service engine (PR 15) by running this test body there, and
//! unchanged since.
//!
//! After the merge the N = 1 identity pins compare the engine with
//! itself; these digests are what still ties it to the two hand-off
//! state machines it replaced. Each digest folds, per hand-off, the
//! outcome, all five timestamps, `submitted_by_policy` and every recorded
//! decision's state-matrix bits and action — so any change to the warm-up
//! replay, the status → predecessor-state mapping, the reactive fallback,
//! the resolution loop or the lockstep narrowing moves a digest.
//!
//! Three digests were re-captured once, in PR 18, and not by the code
//! they now certify: `golden_three_service_bursty_env`,
//! `golden_three_service_env_on_faulty_scarce_backend` and
//! `golden_two_episode_multiservice_batch` are the ones whose queues grow
//! past 128 jobs, where the PR 17 encoder's nested bottom-up selection
//! wrote wrong 25th/50th percentiles into the state matrix. Their values
//! come from the PR 17 tree with only that selection replaced by a full
//! sort (and, as a cross-check, by a top-down selection: same three
//! digests); the other four digests did not move there. The integer
//! order-statistics encoder landed against these values afterwards.

use mirage_core::batch::{BatchedEpisodeDriver, LanePolicy};
use mirage_core::episode::{run_episode, Action, DecisionContext, EpisodeConfig, EpisodeResult};
use mirage_core::multiservice::{
    bursty_scenario, GreedyPerServicePolicy, MultiServiceEnv, MultiServiceResult,
    ShortestQueuePolicy,
};
use mirage_core::reward::EpisodeOutcome;
use mirage_core::train::episode_window;
use mirage_nn::Matrix;
use mirage_sim::{AnyBackend, BackendKind, ClusterBackend, FaultModel, HeteroModel, SimConfig};
use mirage_trace::{JobRecord, DAY, HOUR, MINUTE};

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

    fn handoff(
        &mut self,
        outcome: &EpisodeOutcome,
        times: [i64; 5],
        submitted_by_policy: bool,
        decisions: &[(Matrix, usize)],
    ) {
        for v in [
            outcome.interruption,
            outcome.overlap,
            outcome.fault_interruption,
        ] {
            self.push(v as u64);
        }
        for t in times {
            self.push(t as u64);
        }
        self.push(u64::from(submitted_by_policy));
        self.push(decisions.len() as u64);
        for (m, action) in decisions {
            for v in m.data() {
                self.push(u64::from(v.to_bits()));
            }
            self.push(*action as u64);
        }
    }

    fn episode(&mut self, r: &EpisodeResult) {
        self.handoff(
            &r.outcome,
            [
                r.pred_submit,
                r.pred_start,
                r.pred_end,
                r.succ_submit,
                r.succ_start,
            ],
            r.submitted_by_policy,
            &r.decisions,
        );
    }

    fn multiservice(&mut self, r: &MultiServiceResult) {
        self.push(r.stampede_ticks as u64);
        for s in &r.services {
            self.handoff(
                &s.outcome,
                [
                    s.pred_submit,
                    s.pred_start,
                    s.pred_end,
                    s.succ_submit,
                    s.succ_start,
                ],
                s.submitted_by_policy,
                &s.decisions,
            );
            self.push(s.co_submitters as u64);
            self.push(u64::from(s.slo_met));
            self.push(u64::from(s.reward.to_bits()));
        }
    }
}

/// Background load slightly above what an 8-node cluster drains, with
/// uneven widths and runtimes, so queue waits (and with them the
/// wait-sensitive policy's submit instants) vary across starts.
fn busy_trace(days: i64) -> Vec<JobRecord> {
    (0..days * 24)
        .map(|i| {
            JobRecord::new(
                i as u64 + 1,
                format!("bg{i}"),
                (i % 5) as u32,
                i * HOUR + (i % 7) * 3 * MINUTE,
                1 + (i % 4) as u32,
                (6 + i % 5) * HOUR,
                (2 + i % 3) * HOUR + (i % 11) * 7 * MINUTE,
            )
        })
        .collect()
}

fn episode_cfg(fault_features: bool, hetero_features: bool) -> EpisodeConfig {
    EpisodeConfig {
        pair_nodes: 2,
        pair_timelimit: 6 * HOUR,
        pair_runtime: 6 * HOUR,
        decision_interval: 30 * MINUTE,
        history_k: 4,
        warmup: 2 * DAY,
        pair_user: 999,
        fault_features,
        hetero_features,
    }
}

/// Submit once the predecessor's remaining limit falls under the larger
/// of one hour and the recent average queue wait: reads every scalar of
/// the context the drivers compute.
fn wait_sensitive(ctx: &DecisionContext) -> Action {
    let lead = ctx.recent_avg_wait.unwrap_or(0.0).max(HOUR as f64);
    if ctx.pred_started && (ctx.pred_remaining as f64) <= lead {
        Action::Submit
    } else {
        Action::Wait
    }
}

const STARTS: [i64; 4] = [
    3 * DAY,
    4 * DAY + 5 * HOUR,
    5 * DAY + 13 * HOUR + 20 * MINUTE,
    7 * DAY + HOUR,
];

/// Digest of `run_episode` under the wait-sensitive policy over
/// [`STARTS`], one backend reused across the episodes.
fn run_episode_digest(backend: &mut AnyBackend, cfg: &EpisodeConfig) -> (u64, usize) {
    let trace = busy_trace(10);
    let mut d = Digest::new();
    let mut decisions = 0;
    for t0 in STARTS {
        let window = episode_window(&trace, t0, cfg);
        let r = run_episode(backend, window, cfg, t0, wait_sensitive);
        decisions += r.decisions.len();
        d.episode(&r);
    }
    (d.0, decisions)
}

fn plain(kind: BackendKind) -> AnyBackend {
    SimConfig::builder().nodes(8).backend(kind).build()
}

fn severe_faults(kind: BackendKind) -> AnyBackend {
    SimConfig::builder()
        .nodes(8)
        .faults(FaultModel::severe(11))
        .backend(kind)
        .build()
}

fn scarce_pools(kind: BackendKind) -> AnyBackend {
    SimConfig::builder()
        .nodes(8)
        .hetero(HeteroModel::scarce(8, 5))
        .backend(kind)
        .build()
}

#[test]
fn golden_run_episode_plain() {
    let cfg = episode_cfg(false, false);
    assert_eq!(
        run_episode_digest(&mut plain(BackendKind::EventDriven), &cfg),
        (0x2a35_9c10_5471_4fdc, 105)
    );
    assert_eq!(
        run_episode_digest(&mut plain(BackendKind::Tick), &cfg),
        (0x44bd_76e5_4ea7_5985, 105)
    );
}

#[test]
fn golden_run_episode_severe_faults_with_fault_features() {
    let cfg = episode_cfg(true, false);
    let mut event = severe_faults(BackendKind::EventDriven);
    assert_eq!(
        run_episode_digest(&mut event, &cfg),
        (0x7682_4e8f_cef5_c262, 113)
    );
    assert!(event.fault_stats().evictions > 0, "the tape never evicted");
    assert_eq!(
        run_episode_digest(&mut severe_faults(BackendKind::Tick), &cfg),
        (0xe965_7476_7c7d_bd20, 142)
    );
}

#[test]
fn golden_run_episode_scarce_pools_with_hetero_features() {
    let cfg = episode_cfg(false, true);
    let mut event = scarce_pools(BackendKind::EventDriven);
    assert_eq!(
        run_episode_digest(&mut event, &cfg),
        (0x9d35_3845_6962_9b00, 565)
    );
    assert!(event.hetero_stats().slowdowns > 0, "contention never bit");
    assert_eq!(
        run_episode_digest(&mut scarce_pools(BackendKind::Tick), &cfg),
        (0x406f_8c28_8546_bd70, 606)
    );
}

/// The wait-sensitive rule as a lane policy: reads each pending row's
/// context through the lockstep driver, as the training collectors do.
struct WaitSensitiveLanes;

impl<B: ClusterBackend> LanePolicy<B> for WaitSensitiveLanes {
    fn decide_lanes(&mut self, driver: &BatchedEpisodeDriver<B>, actions: &mut Vec<usize>) {
        for row in 0..driver.pending().len() {
            actions.push(wait_sensitive(&driver.pending_context(row)).index());
        }
    }
}

#[test]
fn golden_batched_lanes_with_distinct_windows() {
    let cfg = episode_cfg(false, false);
    let trace = busy_trace(10);
    let windows = STARTS.map(|t0| episode_window(&trace, t0, &cfg));
    let backends = STARTS.map(|_| plain(BackendKind::EventDriven));
    let mut driver = BatchedEpisodeDriver::with_windows(backends, windows, &cfg, &STARTS);
    driver.run_lanes(&mut WaitSensitiveLanes);
    let (results, _) = driver.finish();
    let mut d = Digest::new();
    for r in &results {
        d.episode(r);
    }
    let decisions: usize = results.iter().map(|r| r.decisions.len()).sum();
    assert_eq!((d.0, decisions), (0x2a35_9c10_5471_4fdc, 105));
}

/// Sixteen days of background on 16 nodes: the bursty scenario's 12-day
/// warm-up plus room for its 24-hour pairs.
fn long_trace() -> Vec<JobRecord> {
    (0..16 * 24)
        .map(|i| {
            JobRecord::new(
                i as u64 + 1,
                format!("bg{i}"),
                (i % 6) as u32,
                i * HOUR + (i % 5) * 9 * MINUTE,
                2 + (i % 5) as u32,
                (10 + i % 7) * HOUR,
                (5 + i % 6) * HOUR,
            )
        })
        .collect()
}

#[test]
fn golden_three_service_bursty_env() {
    let cfg = bursty_scenario(3, 16, 7);
    let trace = long_trace();
    let backend = SimConfig::builder().nodes(16).build();
    let mut env = MultiServiceEnv::new(backend, &trace, &cfg, 12 * DAY + 3 * HOUR);
    env.run(&mut ShortestQueuePolicy::default());
    let (result, _) = env.finish();
    let mut d = Digest::new();
    d.multiservice(&result);
    let decisions: usize = result.services.iter().map(|s| s.decisions.len()).sum();
    assert_eq!((d.0, decisions), (0x21be_a16c_da0d_54fd, 335));
}

/// The flag-off bytes of a multi-service episode on a backend whose
/// fault and pool surfaces are live: carrying `fault_features` /
/// `hetero_features` into the engine must not move them.
#[test]
fn golden_three_service_env_on_faulty_scarce_backend() {
    let cfg = bursty_scenario(3, 16, 9);
    let trace = long_trace();
    let backend = SimConfig::builder()
        .nodes(16)
        .faults(FaultModel::severe(11))
        .hetero(HeteroModel::scarce(16, 5))
        .build();
    let mut env = MultiServiceEnv::new(backend, &trace, &cfg, 12 * DAY + 9 * HOUR);
    env.run(&mut GreedyPerServicePolicy::default());
    let (result, backend) = env.finish();
    assert!(
        backend.fault_stats().evictions > 0,
        "the tape never evicted"
    );
    assert!(backend.hetero_stats().slowdowns > 0, "contention never bit");
    let mut d = Digest::new();
    d.multiservice(&result);
    let decisions: usize = result.services.iter().map(|s| s.decisions.len()).sum();
    assert_eq!((d.0, decisions), (0x389e_ddf7_8318_c85a, 225));
}

#[test]
fn golden_two_episode_multiservice_batch() {
    let cfg = bursty_scenario(2, 16, 3);
    let trace = long_trace();
    // Captured from one lockstep batch of both episodes; each episode
    // evolves exactly as it would alone, so two engines in sequence
    // reproduce it.
    let mut d = Digest::new();
    let mut decisions = 0;
    for t0 in [12 * DAY, 13 * DAY + 7 * HOUR] {
        let backend = SimConfig::builder().nodes(16).build();
        let mut env = MultiServiceEnv::new(backend, &trace, &cfg, t0);
        decisions += env.run(&mut GreedyPerServicePolicy::default());
        d.multiservice(&env.finish().0);
    }
    assert_eq!((d.0, decisions), (0xede9_ffd2_45fa_360f, 652));
}
