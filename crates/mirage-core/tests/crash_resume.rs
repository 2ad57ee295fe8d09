//! Crash/resume identity pins for checkpointed online training.
//!
//! The resilient-runtime PR's contract: a run that checkpoints, "crashes"
//! (halts at a chunk boundary via [`CheckpointConfig::halt_after`]) and
//! resumes from disk is **bit-identical** to the uninterrupted run — same
//! final weights, same replay contents, same episode outcomes. That holds
//! because the checkpoint captures the full training state (weights,
//! Adam moments, replay rings, the replay-sampling RNG, the global ε
//! clock and the episode counter) and because lane exploration
//! streams are a pure function of `(cfg.seed, episode ordinal, ε clock)`,
//! all of which the checkpoint restores.
//!
//! CI runs `crash_resume_smoke` as a named step.

use std::path::PathBuf;

use mirage_core::checkpoint::{
    CheckpointConfig, DqnTrainCheckpoint, PgTrainCheckpoint, ResumeError, KIND_DQN_TRAIN,
};
use mirage_core::episode::{EpisodeConfig, EpisodeResult};
use mirage_core::state::STATE_VARS;
use mirage_core::train::{
    collect_offline, sample_episode_starts, train_dqn_online_checkpointed, train_dqn_online_traced,
    train_pg_online_checkpointed, train_pg_online_traced, OfflineData, TrainConfig,
};
use mirage_nn::foundation::FoundationKind;
use mirage_nn::serialize::{seal, unseal, CheckpointError};
use mirage_nn::transformer::TransformerConfig;
use mirage_nn::ParamSet;
use mirage_rl::{ActionEncoding, DualHeadConfig, DualHeadNet, Experience};
use mirage_sim::{BackendKind, BackendPool, SimBuilder, SimConfig};
use mirage_trace::{JobRecord, DAY, HOUR, MINUTE};

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

fn online_starts(cfg: &TrainConfig, trace: &[JobRecord], seed: u64) -> Vec<i64> {
    sample_episode_starts(
        0,
        trace.last().map_or(10 * DAY, |j| j.submit),
        &cfg.episode,
        3,
        seed,
    )
}

/// Self-cleaning temp checkpoint path (unique per test + process).
struct TempCkpt(PathBuf);

impl TempCkpt {
    fn new(tag: &str) -> Self {
        Self(std::env::temp_dir().join(format!(
            "mirage_crash_resume_{tag}_{}.ckpt",
            std::process::id()
        )))
    }
}

impl Drop for TempCkpt {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

#[test]
fn crash_resume_smoke() {
    // The CI crash drill: train DQN with periodic checkpoints, "crash"
    // right after the episode-2 chunk boundary save, resume from disk,
    // and demand the resumed run is bit-identical to the uninterrupted
    // one — weights, replay contents and episode outcomes alike.
    let cfg = tiny_cfg(2);
    let trace = bg_trace(12);
    let pool = pool_for(2);
    let starts = online_starts(&cfg, &trace, 21);
    let offline_starts = sample_episode_starts(0, 12 * DAY, &cfg.episode, 2, 22);
    let warm = collect_offline(&pool, &trace, &cfg, &offline_starts);

    let (full_agent, full_replay, full_eps) =
        train_dqn_online_traced(net(&cfg), &pool, &trace, &cfg, &starts, &warm);

    let ckpt_path = TempCkpt::new("dqn");
    let mut ckpt = CheckpointConfig::every(&ckpt_path.0, 2);
    ckpt.halt_after = Some(2);
    let halted =
        train_dqn_online_checkpointed(net(&cfg), &pool, &trace, &cfg, &starts, &warm, &ckpt, None)
            .expect("checkpointed run");
    assert!(halted.halted, "halt_after stops the run at the boundary");
    assert_eq!(halted.episodes.len(), 2, "crashed after one chunk");

    let resume_cfg = CheckpointConfig::every(&ckpt_path.0, 2);
    let resumed = train_dqn_online_checkpointed(
        net(&cfg),
        &pool,
        &trace,
        &cfg,
        &starts,
        &warm,
        &resume_cfg,
        Some(&ckpt_path.0),
    )
    .expect("resumed run");
    assert!(!resumed.halted);

    assert_outcomes_eq(&resumed.episodes, &full_eps, "dqn resume");
    assert_replay_bitwise_eq(
        resumed.replay.wait().iter(),
        full_replay.wait().iter(),
        "dqn resume wait replay",
    );
    assert_replay_bitwise_eq(
        resumed.replay.submit().iter(),
        full_replay.submit().iter(),
        "dqn resume submit replay",
    );
    assert_eq!(resumed.agent.steps, full_agent.steps, "global ε clock");
    assert_params_bitwise_eq(&resumed.agent.net.ps, &full_agent.net.ps, "dqn resume");
}

#[test]
fn pg_resume_is_bit_identical_mid_update_batch() {
    // Halting after 2 episodes leaves a half-full REINFORCE batch in
    // `pending`; the checkpoint must carry it so the resumed run trains
    // on the exact same 4-episode batches as the uninterrupted run.
    let cfg = tiny_cfg(2);
    let trace = bg_trace(12);
    let pool = pool_for(2);
    let starts = online_starts(&cfg, &trace, 31);

    let (full_agent, full_eps) = train_pg_online_traced(net(&cfg), &pool, &trace, &cfg, &starts);

    let ckpt_path = TempCkpt::new("pg");
    let mut ckpt = CheckpointConfig::every(&ckpt_path.0, 2);
    ckpt.halt_after = Some(2);
    let halted = train_pg_online_checkpointed(net(&cfg), &pool, &trace, &cfg, &starts, &ckpt, None)
        .expect("checkpointed run");
    assert!(halted.halted);
    assert_eq!(halted.episodes.len(), 2);

    let resume_cfg = CheckpointConfig::every(&ckpt_path.0, 2);
    let resumed = train_pg_online_checkpointed(
        net(&cfg),
        &pool,
        &trace,
        &cfg,
        &starts,
        &resume_cfg,
        Some(&ckpt_path.0),
    )
    .expect("resumed run");
    assert!(!resumed.halted);

    assert_outcomes_eq(&resumed.episodes, &full_eps, "pg resume");
    assert_eq!(
        resumed.agent.baseline().to_bits(),
        full_agent.baseline().to_bits(),
        "pg resume: baseline"
    );
    assert_params_bitwise_eq(&resumed.agent.net.ps, &full_agent.net.ps, "pg resume");
}

#[test]
fn resume_refuses_a_multi_worker_checkpoint() {
    // Training has one worker and writes `workers = 1`; a checkpoint that
    // says otherwise (written by a build that trained on several threads)
    // must be refused by field name, for both loops, not resumed on a
    // different chunk layout.
    let cfg = tiny_cfg(2);
    let trace = bg_trace(12);
    let pool = pool_for(2);
    let starts = online_starts(&cfg, &trace, 51);
    let warm = OfflineData::default();
    let expect_workers_mismatch = |err: ResumeError| match err {
        ResumeError::ConfigMismatch { field, saved, .. } => {
            assert_eq!((field, saved.as_str()), ("train workers", "2"))
        }
        other => panic!("expected ConfigMismatch, got {other}"),
    };

    let dqn_path = TempCkpt::new("dqn_w2");
    let mut ckpt = CheckpointConfig::every(&dqn_path.0, 2);
    ckpt.halt_after = Some(2);
    train_dqn_online_checkpointed(net(&cfg), &pool, &trace, &cfg, &starts, &warm, &ckpt, None)
        .expect("checkpointed run");
    let mut saved = DqnTrainCheckpoint::load(&dqn_path.0).expect("checkpoint written");
    assert_eq!(saved.workers, 1);
    saved.workers = 2;
    saved.save(&dqn_path.0).expect("re-saved");
    let err = train_dqn_online_checkpointed(
        net(&cfg),
        &pool,
        &trace,
        &cfg,
        &starts,
        &warm,
        &CheckpointConfig::every(&dqn_path.0, 2),
        Some(&dqn_path.0),
    )
    .expect_err("a two-worker DQN checkpoint must refuse to resume");
    expect_workers_mismatch(err);

    let pg_path = TempCkpt::new("pg_w2");
    let mut ckpt = CheckpointConfig::every(&pg_path.0, 2);
    ckpt.halt_after = Some(2);
    train_pg_online_checkpointed(net(&cfg), &pool, &trace, &cfg, &starts, &ckpt, None)
        .expect("checkpointed PG run");
    let mut saved = PgTrainCheckpoint::load(&pg_path.0).expect("checkpoint written");
    assert_eq!(saved.workers, 1);
    saved.workers = 2;
    saved.save(&pg_path.0).expect("re-saved");
    let err = train_pg_online_checkpointed(
        net(&cfg),
        &pool,
        &trace,
        &cfg,
        &starts,
        &CheckpointConfig::every(&pg_path.0, 2),
        Some(&pg_path.0),
    )
    .expect_err("a two-worker PG checkpoint must refuse to resume");
    expect_workers_mismatch(err);
}

#[test]
fn resume_rejects_mismatched_runs_and_wrong_kinds() {
    let cfg = tiny_cfg(2);
    let trace = bg_trace(12);
    let pool = pool_for(2);
    let starts = online_starts(&cfg, &trace, 41);
    let offline_starts = sample_episode_starts(0, 12 * DAY, &cfg.episode, 2, 42);
    let warm = collect_offline(&pool, &trace, &cfg, &offline_starts);

    let ckpt_path = TempCkpt::new("mismatch");
    let mut ckpt = CheckpointConfig::every(&ckpt_path.0, 2);
    ckpt.halt_after = Some(2);
    train_dqn_online_checkpointed(net(&cfg), &pool, &trace, &cfg, &starts, &warm, &ckpt, None)
        .expect("checkpointed run");

    // A different seed is a different run — resuming would silently
    // diverge, so it must be refused with the offending field named.
    let mut other = cfg.clone();
    other.seed = 12;
    let err = train_dqn_online_checkpointed(
        net(&other),
        &pool,
        &trace,
        &other,
        &starts,
        &warm,
        &CheckpointConfig::every(&ckpt_path.0, 2),
        Some(&ckpt_path.0),
    )
    .expect_err("seed mismatch must refuse to resume");
    match err {
        ResumeError::ConfigMismatch { field, .. } => assert_eq!(field, "seed"),
        other => panic!("expected ConfigMismatch, got {other}"),
    }

    // A different network is a different run too. Both used to panic:
    // more layers at `import_state`'s parameter-count assert, a wider
    // model at the first forward over the mis-shaped matrices it had
    // silently installed.
    let mut deeper = cfg.clone();
    deeper.layers = 2;
    let mut wider = cfg.clone();
    wider.d_model = 16;
    // (What the two sides of the message share: a parameter count, or
    // the name of the first parameter whose shape differs.)
    for (other, differs) in [(&deeper, "parameters"), (&wider, "`foundation.embed.w`")] {
        let err = train_dqn_online_checkpointed(
            net(other),
            &pool,
            &trace,
            other,
            &starts,
            &warm,
            &CheckpointConfig::every(&ckpt_path.0, 2),
            Some(&ckpt_path.0),
        )
        .expect_err("architecture mismatch must refuse to resume");
        match err {
            ResumeError::ConfigMismatch {
                field,
                saved,
                current,
            } => {
                assert_eq!(field, "network architecture");
                assert_ne!(saved, current);
                assert!(
                    saved.contains(differs) && current.contains(differs),
                    "names what differs: saved {saved}, current {current}"
                );
            }
            other => panic!("expected ConfigMismatch, got {other}"),
        }
    }

    // A DQN checkpoint handed to the PG loop is a kind error from the
    // envelope layer, not a garbage agent.
    let err = train_pg_online_checkpointed(
        net(&cfg),
        &pool,
        &trace,
        &cfg,
        &starts,
        &CheckpointConfig::every(&ckpt_path.0, 2),
        Some(&ckpt_path.0),
    )
    .expect_err("kind mismatch must refuse to resume");
    match err {
        ResumeError::Checkpoint(CheckpointError::WrongKind { .. }) => {}
        other => panic!("expected WrongKind, got {other}"),
    }

    // A missing file is a typed I/O error, not a panic.
    let missing = std::env::temp_dir().join("mirage_crash_resume_does_not_exist.ckpt");
    let err = train_dqn_online_checkpointed(
        net(&cfg),
        &pool,
        &trace,
        &cfg,
        &starts,
        &warm,
        &CheckpointConfig::every(&ckpt_path.0, 2),
        Some(&missing),
    )
    .expect_err("missing checkpoint must refuse to resume");
    assert!(matches!(
        err,
        ResumeError::Checkpoint(CheckpointError::Io(_))
    ));

    // The PG loop refuses a different network the same way.
    let pg_path = TempCkpt::new("mismatch_pg");
    let mut pg_ckpt = CheckpointConfig::every(&pg_path.0, 2);
    pg_ckpt.halt_after = Some(2);
    train_pg_online_checkpointed(net(&cfg), &pool, &trace, &cfg, &starts, &pg_ckpt, None)
        .expect("checkpointed PG run");
    let err = train_pg_online_checkpointed(
        net(&wider),
        &pool,
        &trace,
        &wider,
        &starts,
        &CheckpointConfig::every(&pg_path.0, 2),
        Some(&pg_path.0),
    )
    .expect_err("architecture mismatch must refuse to resume");
    match err {
        ResumeError::ConfigMismatch { field, saved, .. } => {
            assert_eq!(field, "network architecture");
            assert!(
                saved.contains("parameter `"),
                "names the parameter: {saved}"
            );
        }
        other => panic!("expected ConfigMismatch, got {other}"),
    }
}

#[test]
fn resume_refuses_a_dqns_checkpoint() {
    // Files written before the DQN lost its target network and successor
    // states carry the `DQNS` kind tag, and the kind alone decides: a
    // current payload re-sealed under that tag must be refused as the
    // envelope's typed kind error, not misread and not a panic.
    let cfg = tiny_cfg(2);
    let trace = bg_trace(12);
    let pool = pool_for(2);
    let starts = online_starts(&cfg, &trace, 61);
    let warm = OfflineData::default();
    let ckpt_path = TempCkpt::new("dqns");
    let mut ckpt = CheckpointConfig::every(&ckpt_path.0, 2);
    ckpt.halt_after = Some(2);
    train_dqn_online_checkpointed(net(&cfg), &pool, &trace, &cfg, &starts, &warm, &ckpt, None)
        .expect("checkpointed run");
    let sealed = std::fs::read(&ckpt_path.0).expect("checkpoint written");
    let payload = unseal(KIND_DQN_TRAIN, &sealed).expect("current layout");
    std::fs::write(&ckpt_path.0, seal("DQNS", payload)).expect("re-sealed");

    let err = train_dqn_online_checkpointed(
        net(&cfg),
        &pool,
        &trace,
        &cfg,
        &starts,
        &warm,
        &CheckpointConfig::every(&ckpt_path.0, 2),
        Some(&ckpt_path.0),
    )
    .expect_err("a DQNS checkpoint must refuse to resume");
    match err {
        ResumeError::Checkpoint(CheckpointError::WrongKind { found, .. }) => {
            assert_eq!(found, "DQNS")
        }
        other => panic!("expected WrongKind, got {other}"),
    }
}
