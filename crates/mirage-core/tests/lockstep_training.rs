//! Lockstep-training identity properties.
//!
//! The lockstep refactor deleted the sequential per-method episode loops
//! in `train.rs` and rebuilt the whole training data-path on the batched
//! episode engine; today one online loop runs it, with a DQN and a PG
//! learner. These tests pin it to the code it replaced:
//!
//! * **batch = 1** — `train_dqn_online` with `collect_lanes = 1` is
//!   bit-identical to a verbatim replica of the deleted sequential loop:
//!   same replay contents, same final weights, same episode outcomes.
//! * **PG, default lanes** — `train_pg_online` with `collect_lanes = 4`
//!   (the REINFORCE batch) is *globally* bit-identical to the deleted
//!   sequential PG loop.
//! * **batch = N, per lane** — every lane of a lockstep window is
//!   bit-identical to a sequential run of its episode under the same
//!   per-lane `(seed, ε-base)` and window-start weights, exercised both
//!   update-free (pure collection) and with the full update cadence
//!   (the CI training-smoke shape: online_episodes = 4, batch = 2).
//! * **host-independent width** — `collect_lanes = None` on a pool built
//!   without an explicit worker count trains exactly like four pinned
//!   lanes, whatever the machine's parallelism.
//! * **frozen DQN digest** — a warm-started run of 204 updates ends on
//!   weights and clocks captured on the commit before γ, the target
//!   network and successor states were deleted (that tree synced its
//!   target network at update 200), so the deletion moved no bit. A
//!   change to what the DQN learns moves this digest on purpose.

use mirage_core::episode::{run_episode, Action, EpisodeConfig, EpisodeResult};
use mirage_core::state::STATE_VARS;
use mirage_core::train::{
    collect_offline, dqn_episode_seed, episode_window, pg_episode_seed, sample_episode_starts,
    train_dqn_online_traced, train_pg_online_traced, OfflineData, TrainConfig,
};
use mirage_nn::foundation::FoundationKind;
use mirage_nn::serialize::{crc32, params_to_bytes};
use mirage_nn::transformer::TransformerConfig;
use mirage_nn::ParamSet;
use mirage_rl::{
    ActionEncoding, BalancedReplay, DqnAgent, DqnConfig, DualHeadConfig, DualHeadNet,
    EpisodeSample, EpsilonSchedule, Experience, ExploreLane, MiniBatch, PgAgent, ReplayBuffer,
};
use mirage_sim::{BackendKind, BackendPool, ClusterBackend, SimBuilder, SimConfig};
use mirage_trace::{JobRecord, DAY, HOUR, MINUTE};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn tiny_cfg(lanes: usize) -> TrainConfig {
    TrainConfig {
        episode: EpisodeConfig {
            pair_nodes: 1,
            pair_timelimit: 4 * HOUR,
            pair_runtime: 4 * HOUR,
            decision_interval: 30 * MINUTE,
            history_k: 4,
            warmup: DAY,
            pair_user: 999,
            fault_features: false,
            hetero_features: false,
        },
        offline_episodes: 2,
        split_points: 3,
        online_episodes: 6,
        batch_size: 16,
        updates_per_episode: 2,
        d_model: 8,
        heads: 2,
        layers: 1,
        collect_lanes: Some(lanes),
        seed: 11,
        ..TrainConfig::default()
    }
}

/// Hourly background jobs: enough contention that episodes run several
/// decisions and outcomes differ across starts.
fn bg_trace(span_days: i64) -> Vec<JobRecord> {
    (0..span_days * 24)
        .map(|i| {
            JobRecord::new(
                i as u64 + 1,
                format!("bg{i}"),
                (i % 7) as u32,
                i * HOUR,
                1 + (i % 3) as u32,
                4 * HOUR,
                2 * HOUR,
            )
        })
        .collect()
}

fn pool_for(workers: usize) -> BackendPool<SimBuilder> {
    SimConfig::builder()
        .nodes(4)
        .backend(BackendKind::Pooled { workers })
        .build_pool()
}

fn net(cfg: &TrainConfig) -> DualHeadNet {
    DualHeadNet::new(DualHeadConfig {
        foundation: FoundationKind::Transformer,
        transformer: TransformerConfig {
            input_dim: STATE_VARS,
            seq_len: cfg.episode.history_k,
            d_model: cfg.d_model,
            heads: cfg.heads,
            layers: cfg.layers,
            ff_mult: 2,
        },
        action_encoding: ActionEncoding::TwoHead,
        freeze_foundation: false,
        seed: cfg.seed,
    })
}

fn assert_params_bitwise_eq(a: &ParamSet, b: &ParamSet, what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: param count");
    for ((ida, ma), (_, mb)) in a.iter().zip(b.iter()) {
        assert_eq!(ma, mb, "{what}: param `{}` diverged", a.name(ida));
    }
}

fn assert_replay_bitwise_eq<'a>(
    a: impl Iterator<Item = &'a Experience>,
    b: impl Iterator<Item = &'a Experience>,
    what: &str,
) {
    let a: Vec<_> = a.collect();
    let b: Vec<_> = b.collect();
    assert_eq!(a.len(), b.len(), "{what}: replay size");
    for (i, (x, y)) in a.iter().zip(&b).enumerate() {
        assert_eq!(x.action, y.action, "{what}: action of transition {i}");
        assert_eq!(
            x.reward.to_bits(),
            y.reward.to_bits(),
            "{what}: reward of transition {i}"
        );
        assert_eq!(x.state, y.state, "{what}: state of transition {i}");
    }
}

fn assert_outcomes_eq(a: &[EpisodeResult], b: &[EpisodeResult], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: episode count");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.outcome, y.outcome, "{what}: outcome of episode {i}");
        assert_eq!(x.succ_submit, y.succ_submit, "{what}: episode {i}");
        assert_eq!(x.succ_start, y.succ_start, "{what}: episode {i}");
        assert_eq!(
            x.submitted_by_policy, y.submitted_by_policy,
            "{what}: episode {i}"
        );
    }
}

/// Verbatim replica of the deleted sequential `train_dqn_online` body
/// (PR 3 tree): one episode at a time through `run_episode`, the agent's
/// *global* ε clock, hand-rolled two-buffer class-balanced replay, and a
/// freshly allocated mini-batch per update.
#[allow(clippy::too_many_arguments)]
fn legacy_train_dqn_online<B: ClusterBackend>(
    net: DualHeadNet,
    backend: &mut B,
    trace: &[JobRecord],
    cfg: &TrainConfig,
    starts: &[i64],
    warm_start: &OfflineData,
) -> (DqnAgent, ReplayBuffer, ReplayBuffer, Vec<EpisodeResult>) {
    let mut agent = DqnAgent::new(net, cfg.dqn);
    let mut mb = MiniBatch::new();
    let mut replay_wait = ReplayBuffer::new(8192);
    let mut replay_submit = ReplayBuffer::new(4096);
    let push = |e: Experience, w: &mut ReplayBuffer, s: &mut ReplayBuffer| {
        if e.action == 1 {
            s.push(e);
        } else {
            w.push(e);
        }
    };
    for s in &warm_start.reward_samples {
        push(
            Experience::terminal(s.state.clone(), s.action, s.reward),
            &mut replay_wait,
            &mut replay_submit,
        );
    }
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xD9);
    let mut episodes = Vec::new();
    for (i, &t0) in starts.iter().cycle().take(cfg.online_episodes).enumerate() {
        let window = episode_window(trace, t0, &cfg.episode);
        let agent_ref = &mut agent;
        let mut ep_rng = StdRng::seed_from_u64(cfg.seed ^ (i as u64) << 3);
        let result = run_episode(backend, window, &cfg.episode, t0, |ctx| {
            Action::from_index(agent_ref.act(ctx.state_matrix, &mut ep_rng))
        });
        let reward = cfg.shaper.reward(&result.outcome);
        for (state, action) in &result.decisions {
            push(
                Experience::terminal(state.clone(), *action, reward),
                &mut replay_wait,
                &mut replay_submit,
            );
        }
        if replay_wait.len() + replay_submit.len() >= cfg.batch_size {
            for _ in 0..cfg.updates_per_episode.max(1) {
                let half = cfg.batch_size / 2;
                let mut batch = replay_wait.sample(&mut rng, cfg.batch_size - half);
                if !replay_submit.is_empty() {
                    batch.extend(replay_submit.sample(&mut rng, half));
                }
                mb.assemble_refs(&batch);
                agent.train_minibatch(&mb);
            }
        }
        episodes.push(result);
    }
    (agent, replay_wait, replay_submit, episodes)
}

/// Verbatim replica of the deleted sequential `train_pg_online` body.
fn legacy_train_pg_online<B: ClusterBackend>(
    net: DualHeadNet,
    backend: &mut B,
    trace: &[JobRecord],
    cfg: &TrainConfig,
    starts: &[i64],
) -> (PgAgent, Vec<EpisodeResult>) {
    let mut agent = PgAgent::new(net, cfg.pg);
    let batch = 4usize;
    let mut pending: Vec<EpisodeSample> = Vec::with_capacity(batch);
    let mut episodes = Vec::new();
    for (i, &t0) in starts.iter().cycle().take(cfg.online_episodes).enumerate() {
        let window = episode_window(trace, t0, &cfg.episode);
        let agent_ref = &mut agent;
        let mut ep_rng = StdRng::seed_from_u64(cfg.seed ^ 0xBEEF ^ ((i as u64) << 4));
        let result = run_episode(backend, window, &cfg.episode, t0, |ctx| {
            Action::from_index(agent_ref.act(ctx.state_matrix, &mut ep_rng))
        });
        let reward = cfg.shaper.reward(&result.outcome);
        pending.push(EpisodeSample {
            steps: result.decisions.clone(),
            episode_return: reward,
        });
        if pending.len() >= batch {
            agent.train_episodes(&pending);
            pending.clear();
        }
        episodes.push(result);
    }
    if !pending.is_empty() {
        agent.train_episodes(&pending);
    }
    (agent, episodes)
}

fn online_starts(cfg: &TrainConfig, trace: &[JobRecord], seed: u64) -> Vec<i64> {
    sample_episode_starts(
        0,
        trace.last().map_or(10 * DAY, |j| j.submit),
        &cfg.episode,
        3,
        seed,
    )
}

#[test]
fn dqn_batch1_is_bitwise_identical_to_the_deleted_sequential_loop() {
    let cfg = tiny_cfg(1);
    let trace = bg_trace(12);
    let pool = pool_for(4);
    let starts = online_starts(&cfg, &trace, 21);
    // Real warm-start pool, shared by both sides, so mini-batch updates
    // kick in from the first episode (the old loop's steady state).
    let offline_starts = sample_episode_starts(0, 12 * DAY, &cfg.episode, 2, 22);
    let warm = collect_offline(&pool, &trace, &cfg, &offline_starts);

    let mut backend = SimConfig::builder().nodes(4).build();
    let (legacy_agent, legacy_wait, legacy_submit, legacy_eps) =
        legacy_train_dqn_online(net(&cfg), &mut backend, &trace, &cfg, &starts, &warm);

    let (agent, replay, episodes) =
        train_dqn_online_traced(net(&cfg), &pool, &trace, &cfg, &starts, &warm);

    assert_outcomes_eq(&episodes, &legacy_eps, "dqn batch=1");
    assert_replay_bitwise_eq(replay.wait().iter(), legacy_wait.iter(), "dqn wait replay");
    assert_replay_bitwise_eq(
        replay.submit().iter(),
        legacy_submit.iter(),
        "dqn submit replay",
    );
    assert_eq!(agent.steps, legacy_agent.steps, "global ε clock");
    assert_params_bitwise_eq(&agent.net.ps, &legacy_agent.net.ps, "dqn batch=1");
}

#[test]
fn pg_default_lanes_are_bitwise_identical_to_the_deleted_sequential_loop() {
    // collect_lanes = 4 matches the REINFORCE update batch, so even the
    // *batched* run is globally identical to the deleted sequential
    // loop: both act on episodes 4k..4k+4 with the weights of update k.
    for lanes in [1usize, 4] {
        let cfg = tiny_cfg(lanes);
        let trace = bg_trace(12);
        let pool = pool_for(4);
        let starts = online_starts(&cfg, &trace, 31);

        let mut backend = SimConfig::builder().nodes(4).build();
        let (legacy_agent, legacy_eps) =
            legacy_train_pg_online(net(&cfg), &mut backend, &trace, &cfg, &starts);

        let (agent, episodes) = train_pg_online_traced(net(&cfg), &pool, &trace, &cfg, &starts);

        assert_outcomes_eq(&episodes, &legacy_eps, &format!("pg lanes={lanes}"));
        assert_eq!(
            agent.baseline().to_bits(),
            legacy_agent.baseline().to_bits(),
            "pg lanes={lanes}: baseline"
        );
        assert_params_bitwise_eq(
            &agent.net.ps,
            &legacy_agent.net.ps,
            &format!("pg lanes={lanes}"),
        );
    }
}

#[test]
fn dqn_lanes_match_sequential_per_lane_runs_update_free() {
    // Pure collection (batch_size too large for updates to ever fire):
    // lane i of one lockstep window must reproduce, bit for bit, a
    // sequential episode driven by `act_lane` under lane i's seed and a
    // zero ε base — decisions, replay rows and outcome alike.
    let mut cfg = tiny_cfg(3);
    cfg.online_episodes = 3;
    cfg.batch_size = 100_000; // no updates: weights stay at init
    let trace = bg_trace(12);
    let pool = pool_for(3);
    let starts = online_starts(&cfg, &trace, 41);
    let warm = OfflineData::default();

    let (_, replay, episodes) =
        train_dqn_online_traced(net(&cfg), &pool, &trace, &cfg, &starts, &warm);

    // Sequential side: same initial weights; acting never updates them,
    // so one agent serves all lanes.
    let mut seq_agent = DqnAgent::new(net(&cfg), cfg.dqn);
    let mut seq_replay = BalancedReplay::new(8192, 4096);
    let mut seq_eps = Vec::new();
    let mut backend = SimConfig::builder().nodes(4).build();
    for (i, &t0) in starts.iter().take(3).enumerate() {
        let mut lane = ExploreLane::seeded(dqn_episode_seed(cfg.seed, i), 0);
        let window = episode_window(&trace, t0, &cfg.episode);
        let agent_ref = &mut seq_agent;
        let result = run_episode(&mut backend, window, &cfg.episode, t0, |ctx| {
            Action::from_index(agent_ref.act_lane(ctx.state_matrix, &mut lane))
        });
        let reward = cfg.shaper.reward(&result.outcome);
        for (state, action) in &result.decisions {
            seq_replay.push(Experience::terminal(state.clone(), *action, reward));
        }
        seq_eps.push(result);
    }

    assert_outcomes_eq(&episodes, &seq_eps, "dqn per-lane");
    assert_replay_bitwise_eq(
        replay.wait().iter(),
        seq_replay.wait().iter(),
        "dqn per-lane wait replay",
    );
    assert_replay_bitwise_eq(
        replay.submit().iter(),
        seq_replay.submit().iter(),
        "dqn per-lane submit replay",
    );
}

/// Sequential reference for the *windowed* cadence: identical window
/// chunking, per-lane seeds, ε bases and update schedule as the lockstep
/// loop — only the acting runs one lane at a time through `run_episode`
/// and `act_lane` instead of one batched forward per tick. Any
/// divergence from `train_dqn_online_traced` is therefore attributable
/// to batching itself.
fn windowed_sequential_dqn(
    netv: DualHeadNet,
    trace: &[JobRecord],
    cfg: &TrainConfig,
    starts: &[i64],
    warm_start: &OfflineData,
) -> (DqnAgent, BalancedReplay, Vec<EpisodeResult>) {
    let mut agent = DqnAgent::new(netv, cfg.dqn);
    let mut mb = MiniBatch::new();
    let mut replay = BalancedReplay::new(8192, 4096);
    for s in &warm_start.reward_samples {
        replay.push(Experience::terminal(s.state.clone(), s.action, s.reward));
    }
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xD9);
    let t0s: Vec<i64> = starts
        .iter()
        .cycle()
        .take(cfg.online_episodes)
        .copied()
        .collect();
    let mut backend = SimConfig::builder().nodes(4).build();
    let mut episodes: Vec<EpisodeResult> = Vec::new();
    for chunk in t0s.chunks(cfg.collect_lanes.expect("test configs pin lanes").max(1)) {
        let step_base = agent.steps;
        let mut results = Vec::with_capacity(chunk.len());
        for (l, &t0) in chunk.iter().enumerate() {
            let i = episodes.len() + l;
            let mut lane = ExploreLane::seeded(dqn_episode_seed(cfg.seed, i), step_base);
            let window = episode_window(trace, t0, &cfg.episode);
            let agent_ref = &mut agent;
            results.push(run_episode(&mut backend, window, &cfg.episode, t0, |ctx| {
                Action::from_index(agent_ref.act_lane(ctx.state_matrix, &mut lane))
            }));
        }
        for mut result in results {
            let reward = cfg.shaper.reward(&result.outcome);
            agent.steps += result.decisions.len() as u64;
            for (state, action) in result.take_decisions() {
                replay.push(Experience::terminal(state, action, reward));
            }
            if replay.len() >= cfg.batch_size {
                let mut batch = Vec::with_capacity(cfg.batch_size);
                for _ in 0..cfg.updates_per_episode.max(1) {
                    replay.sample_into(&mut rng, cfg.batch_size, &mut batch);
                    mb.assemble_refs(&batch);
                    agent.train_minibatch(&mb);
                }
            }
            episodes.push(result);
        }
    }
    (agent, replay, episodes)
}

#[test]
fn training_smoke_batch2_matches_windowed_sequential() {
    // The CI training-smoke shape: tiny synthetic trace, 4 online
    // episodes in lockstep windows of 2, full replay/update cadence.
    // Batched acting must be bit-identical — replay, weights, outcomes —
    // to the windowed sequential reference above.
    let mut cfg = tiny_cfg(2);
    cfg.online_episodes = 4;
    let trace = bg_trace(12);
    let pool = pool_for(2);
    let starts = online_starts(&cfg, &trace, 51);
    let offline_starts = sample_episode_starts(0, 12 * DAY, &cfg.episode, 2, 52);
    let warm = collect_offline(&pool, &trace, &cfg, &offline_starts);

    let (seq_agent, seq_replay, seq_eps) =
        windowed_sequential_dqn(net(&cfg), &trace, &cfg, &starts, &warm);
    let (agent, replay, episodes) =
        train_dqn_online_traced(net(&cfg), &pool, &trace, &cfg, &starts, &warm);

    assert_outcomes_eq(&episodes, &seq_eps, "smoke batch=2");
    assert_replay_bitwise_eq(
        replay.wait().iter(),
        seq_replay.wait().iter(),
        "smoke wait replay",
    );
    assert_replay_bitwise_eq(
        replay.submit().iter(),
        seq_replay.submit().iter(),
        "smoke submit replay",
    );
    assert_eq!(agent.steps, seq_agent.steps, "global ε clock");
    assert_params_bitwise_eq(&agent.net.ps, &seq_agent.net.ps, "smoke batch=2");
}

#[test]
fn pg_lanes_match_sequential_per_lane_sampling() {
    // One window of stochastic PG collection (3 episodes, no update
    // before the window ends): each lane's sampled trajectory equals a
    // sequential `act`-driven episode on the lane's own RNG stream.
    let mut cfg = tiny_cfg(3);
    cfg.online_episodes = 3;
    let trace = bg_trace(12);
    let pool = pool_for(3);
    let starts = online_starts(&cfg, &trace, 61);

    let (_, episodes) = train_pg_online_traced(net(&cfg), &pool, &trace, &cfg, &starts);

    let mut seq_agent = PgAgent::new(net(&cfg), cfg.pg);
    let mut backend = SimConfig::builder().nodes(4).build();
    let seq_eps: Vec<EpisodeResult> = starts
        .iter()
        .take(3)
        .enumerate()
        .map(|(i, &t0)| {
            let mut lane = ExploreLane::seeded(pg_episode_seed(cfg.seed, i), 0);
            let window = episode_window(&trace, t0, &cfg.episode);
            let agent_ref = &mut seq_agent;
            run_episode(&mut backend, window, &cfg.episode, t0, |ctx| {
                Action::from_index(agent_ref.act(ctx.state_matrix, &mut lane.rng))
            })
        })
        .collect();

    assert_outcomes_eq(&episodes, &seq_eps, "pg per-lane");
}

#[test]
fn auto_sized_lanes_on_a_default_pool_do_not_depend_on_the_host() {
    // `build_pool()` without `BackendKind::Pooled` has a fixed worker
    // count, so `collect_lanes: None` sizes the lockstep windows the same
    // on every machine: four lanes, bit for bit. ε decays to 0 within
    // the run and the lr is high, so a window's start clock and weights
    // steer its acting and any other width trains different weights.
    let mut pinned = tiny_cfg(4);
    pinned.dqn.epsilon = EpsilonSchedule::linear(0.5, 0.0, 40);
    pinned.dqn.lr = 1e-2;
    let auto = TrainConfig {
        collect_lanes: None,
        ..pinned.clone()
    };
    let trace = bg_trace(12);
    let pool = SimConfig::builder().nodes(4).build_pool();
    let starts = online_starts(&pinned, &trace, 41);
    let offline_starts = sample_episode_starts(0, 12 * DAY, &pinned.episode, 2, 42);
    let warm = collect_offline(&pool, &trace, &pinned, &offline_starts);

    let (a, a_replay, a_eps) =
        train_dqn_online_traced(net(&auto), &pool, &trace, &auto, &starts, &warm);
    let (p, p_replay, p_eps) =
        train_dqn_online_traced(net(&pinned), &pool, &trace, &pinned, &starts, &warm);

    assert_outcomes_eq(&a_eps, &p_eps, "auto vs 4 lanes");
    assert_replay_bitwise_eq(
        a_replay.wait().iter(),
        p_replay.wait().iter(),
        "wait replay",
    );
    assert_replay_bitwise_eq(
        a_replay.submit().iter(),
        p_replay.submit().iter(),
        "submit replay",
    );
    assert_eq!(a.steps, p.steps, "global ε clock");
    assert_params_bitwise_eq(&a.net.ps, &p.net.ps, "auto vs 4 lanes");
}

#[test]
fn dqn_training_digest_is_frozen() {
    // A warm start, then 6 episodes × 34 updates = 204 updates: past
    // update 200, where the deleted target network would have synced.
    // The literals were captured on the commit before that deletion.
    let mut cfg = tiny_cfg(2);
    cfg.dqn = DqnConfig::default();
    cfg.updates_per_episode = 34;
    let trace = bg_trace(12);
    let pool = pool_for(2);
    let starts = online_starts(&cfg, &trace, 91);
    let offline_starts = sample_episode_starts(0, 12 * DAY, &cfg.episode, 2, 92);
    let warm = collect_offline(&pool, &trace, &cfg, &offline_starts);

    let (agent, _, _) = train_dqn_online_traced(net(&cfg), &pool, &trace, &cfg, &starts, &warm);

    let state = agent.export_state();
    let weights = params_to_bytes(&agent.net.ps).expect("finite weights");
    assert_eq!(
        (crc32(&weights), state.opt_t, state.steps, state.train_steps),
        (0x372b_6be8, 204, 11, 204)
    );
}
