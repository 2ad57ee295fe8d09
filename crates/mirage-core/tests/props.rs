//! Property-based tests for Mirage's reward, state and episode invariants.

use mirage_core::batch::{BatchedEpisodeDriver, LanePolicy};
use mirage_core::episode::{run_episode, Action, EpisodeConfig};
use mirage_core::reward::{EpisodeOutcome, RewardShaper};
use mirage_core::state::{PredecessorState, StateEncoder, StateHistory, SuccessorSpec, STATE_VARS};
use mirage_rl::{ActionEncoding, DqnAgent, DqnConfig, DualHeadConfig, DualHeadNet};
use mirage_sim::{ClusterSnapshot, QueuedJobView, RunningJobView, Simulator};
use mirage_trace::{JobRecord, DAY, HOUR};
use proptest::prelude::*;

/// The greedy DQN as a lane policy: one batched forward per tick.
struct Greedy(DqnAgent);

impl LanePolicy<Simulator> for Greedy {
    fn decide_lanes(&mut self, driver: &BatchedEpisodeDriver<Simulator>, actions: &mut Vec<usize>) {
        let width = driver.pending().len();
        self.0
            .act_greedy_batch(driver.batch_states(), width, actions);
    }
}

proptest! {
    /// Outcomes are one-sided and reward is never positive.
    #[test]
    fn outcome_and_reward_invariants(
        pred_end in 0i64..1_000_000,
        succ_start in 0i64..1_000_000,
        e_i in 0.0f32..20.0,
        e_o in 0.0f32..20.0,
    ) {
        let outcome = EpisodeOutcome::from_times(pred_end, succ_start);
        prop_assert!(outcome.interruption >= 0 && outcome.overlap >= 0);
        prop_assert!(outcome.interruption == 0 || outcome.overlap == 0);
        prop_assert_eq!(outcome.interruption - outcome.overlap, succ_start - pred_end);
        let shaper = RewardShaper { e_interrupt: e_i, e_overlap: e_o };
        prop_assert!(shaper.reward(&outcome) <= 0.0);
    }

    /// The state encoder is total: any snapshot yields 40 finite features.
    #[test]
    fn encoder_is_total(
        queued in prop::collection::vec((1u32..=32, 0i64..200_000, 60i64..200_000), 0..30),
        running in prop::collection::vec((1u32..=32, 0i64..200_000, 60i64..200_000), 0..20),
        free in 0u32..=88,
    ) {
        let now = 300_000i64;
        let snap = ClusterSnapshot {
            now,
            free_nodes: free,
            total_nodes: 88,
            down_nodes: 0,
            recent_evictions: 0,
            queued: queued
                .iter()
                .enumerate()
                .map(|(i, &(nodes, age, limit))| QueuedJobView {
                    id: i as u64, nodes, submit: now - age, age, timelimit: limit, user: 1,
                })
                .collect(),
            running: running
                .iter()
                .enumerate()
                .map(|(i, &(nodes, elapsed, limit))| RunningJobView {
                    id: 1000 + i as u64, nodes, start: now - elapsed, elapsed,
                    timelimit: limit, user: 2,
                })
                .collect(),
            ..ClusterSnapshot::default()
        };
        let enc = StateEncoder::new(88, 48 * HOUR);
        let pred = PredecessorState { nodes: 1, timelimit: 48 * HOUR, queue_time: 0, elapsed: 0 };
        let succ = SuccessorSpec { nodes: 1, timelimit: 48 * HOUR };
        let v = enc.encode(&snap, &pred, &succ);
        prop_assert_eq!(v.len(), STATE_VARS);
        for x in v {
            prop_assert!(x.is_finite());
            prop_assert!(x >= 0.0);
        }
    }

    /// History matrices always have exactly k rows, whatever was pushed.
    #[test]
    fn history_shape_invariant(k in 1usize..32, pushes in 1usize..64) {
        let mut h = StateHistory::new(k);
        for i in 0..pushes {
            let mut v = [0.0f32; STATE_VARS];
            v[0] = i as f32;
            h.push(v);
        }
        let m = h.matrix();
        prop_assert_eq!(m.shape(), (k, STATE_VARS));
        // Newest row is always the last push.
        prop_assert_eq!(m.get(k - 1, 0), (pushes - 1) as f32);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Episode post-conditions hold for arbitrary background load and any
    /// fixed submit-threshold policy: causality, one-sidedness, and the
    /// reactive fallback guarantee.
    #[test]
    fn episode_postconditions(
        seed_jobs in prop::collection::vec((0i64..6 * DAY, 1u32..=4, 1800i64..20_000), 0..25),
        threshold_h in 0i64..12,
    ) {
        let trace: Vec<JobRecord> = seed_jobs
            .iter()
            .enumerate()
            .map(|(i, &(submit, nodes, runtime))| {
                JobRecord::new(i as u64 + 1, format!("bg{i}"), (i % 3) as u32,
                               submit, nodes, runtime * 2, runtime)
            })
            .collect();
        let cfg = EpisodeConfig {
            pair_nodes: 1,
            pair_timelimit: 8 * HOUR,
            pair_runtime: 8 * HOUR,
            decision_interval: HOUR,
            history_k: 4,
            warmup: DAY,
            pair_user: 999,
            fault_features: false,
            hetero_features: false,
        };
        let t0 = 2 * DAY;
        let mut sim = mirage_sim::Simulator::new(mirage_sim::SimConfig::new(4));
        let result = run_episode(&mut sim, &trace, &cfg, t0, |ctx| {
            if ctx.pred_started && ctx.pred_remaining <= threshold_h * HOUR {
                Action::Submit
            } else {
                Action::Wait
            }
        });
        // Causality.
        prop_assert!(result.pred_start >= result.pred_submit);
        prop_assert!(result.pred_end > result.pred_start);
        prop_assert!(result.succ_start >= result.succ_submit);
        prop_assert!(result.succ_submit >= t0);
        // One-sided outcome consistent with the timestamps.
        let expect = EpisodeOutcome::from_times(result.pred_end, result.succ_start);
        prop_assert_eq!(result.outcome, expect);
        // The reactive fallback bounds the submit time by the pred end
        // (modulo one decision interval of slack).
        prop_assert!(result.succ_submit <= result.pred_end + cfg.decision_interval);
        // Decision trail actions are consistent with the outcome.
        if result.submitted_by_policy {
            prop_assert_eq!(result.decisions.last().map(|(_, a)| *a), Some(1));
        } else {
            prop_assert!(result.decisions.iter().all(|(_, a)| *a == 0));
        }
    }

    /// The batched episode engine is execution-equivalent to sequential
    /// per-episode runs: for arbitrary background load, batch widths and
    /// (possibly coincident) start instants, every decision matrix,
    /// action and outcome matches bit for bit — one batched NN forward
    /// per tick included, via the greedy DQN agent on both sides.
    #[test]
    fn batched_episodes_match_sequential_bitwise(
        seed_jobs in prop::collection::vec((0i64..4 * DAY, 1u32..=4, 1800i64..20_000), 0..20),
        t0_offsets in prop::collection::vec(0i64..12, 1..5),
        net_seed in 0u64..1000,
    ) {
        let trace: Vec<JobRecord> = seed_jobs
            .iter()
            .enumerate()
            .map(|(i, &(submit, nodes, runtime))| {
                JobRecord::new(i as u64 + 1, format!("bg{i}"), (i % 3) as u32,
                               submit, nodes, runtime * 2, runtime)
            })
            .collect();
        let cfg = EpisodeConfig {
            pair_nodes: 1,
            pair_timelimit: 6 * HOUR,
            pair_runtime: 6 * HOUR,
            decision_interval: HOUR,
            history_k: 4,
            warmup: DAY,
            pair_user: 999,
            fault_features: false,
            hetero_features: false,
        };
        let t0s: Vec<i64> = t0_offsets.iter().map(|&h| 2 * DAY + h * HOUR).collect();
        let net = || DualHeadNet::new(DualHeadConfig {
            foundation: mirage_nn::FoundationKind::Transformer,
            transformer: mirage_nn::TransformerConfig {
                input_dim: STATE_VARS,
                seq_len: 4,
                d_model: 8,
                heads: 2,
                layers: 1,
                ff_mult: 2,
            },
            action_encoding: ActionEncoding::TwoHead,
            freeze_foundation: false,
            seed: net_seed,
        });

        let mut seq_agent = DqnAgent::new(net(), DqnConfig::default());
        let sequential: Vec<_> = t0s
            .iter()
            .map(|&t0| {
                let mut sim = mirage_sim::Simulator::new(mirage_sim::SimConfig::new(4));
                run_episode(&mut sim, &trace, &cfg, t0, |ctx| {
                    Action::from_index(seq_agent.act_greedy(ctx.state_matrix))
                })
            })
            .collect();

        let mut batch_agent = Greedy(DqnAgent::new(net(), DqnConfig::default()));
        let backends =
            (0..t0s.len()).map(|_| mirage_sim::Simulator::new(mirage_sim::SimConfig::new(4)));
        let mut driver = BatchedEpisodeDriver::new(backends, &trace, &cfg, &t0s);
        driver.run_lanes(&mut batch_agent);
        let (batched, _) = driver.finish();

        for (b, s) in batched.iter().zip(&sequential) {
            prop_assert_eq!(&b.outcome, &s.outcome);
            prop_assert_eq!(b.succ_submit, s.succ_submit);
            prop_assert_eq!(b.succ_start, s.succ_start);
            prop_assert_eq!(b.submitted_by_policy, s.submitted_by_policy);
            prop_assert_eq!(b.decisions.len(), s.decisions.len());
            for ((bm, ba), (sm, sa)) in b.decisions.iter().zip(&s.decisions) {
                prop_assert_eq!(ba, sa);
                prop_assert_eq!(bm, sm);
            }
        }
    }
}
