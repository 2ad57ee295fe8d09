//! Reproducibility: everything in the pipeline is a pure function of its
//! seed — trace generation, simulation, episode outcomes, and training
//! data collection.

use mirage::core::episode::{run_episode, Action, EpisodeConfig};
use mirage::core::train::{collect_offline, sample_training_starts, TrainConfig};
use mirage::prelude::*;

fn jobs(seed: u64) -> (ClusterProfile, Vec<JobRecord>) {
    let profile = ClusterProfile::rtx().scaled(0.3);
    let mut cfg = SynthConfig::new(profile.clone(), seed);
    cfg.months = Some(2);
    let raw = TraceGenerator::new(cfg).generate();
    let (clean, _) = clean_trace(&raw, profile.nodes);
    (profile, clean)
}

#[test]
fn trace_generation_is_seed_deterministic() {
    assert_eq!(jobs(1).1, jobs(1).1);
    assert_ne!(jobs(1).1, jobs(2).1);
}

#[test]
fn simulation_replay_is_deterministic() {
    let (profile, trace) = jobs(3);
    let run = |t: &[JobRecord]| {
        let mut backend = SimConfig::builder().nodes(profile.nodes).build();
        backend.load_trace(t);
        backend.run_to_completion();
        backend.completed()
    };
    assert_eq!(run(&trace), run(&trace));
}

#[test]
fn episode_outcomes_are_deterministic() {
    let (profile, trace) = jobs(4);
    let ecfg = EpisodeConfig {
        pair_timelimit: 12 * HOUR,
        pair_runtime: 12 * HOUR,
        warmup: 2 * DAY,
        ..EpisodeConfig::default()
    };
    let t0 = 20 * DAY;
    let run = || {
        let mut backend = SimConfig::builder().nodes(profile.nodes).build();
        run_episode(&mut backend, &trace, &ecfg, t0, |ctx| {
            if ctx.pred_started && ctx.pred_remaining <= 3 * HOUR {
                Action::Submit
            } else {
                Action::Wait
            }
        })
    };
    let a = run();
    let b = run();
    assert_eq!(a.outcome, b.outcome);
    assert_eq!(a.succ_start, b.succ_start);
    assert_eq!(a.decisions.len(), b.decisions.len());
}

#[test]
fn offline_collection_is_deterministic() {
    let (profile, trace) = jobs(5);
    let mut tcfg = TrainConfig::default();
    tcfg.episode.pair_timelimit = 12 * HOUR;
    tcfg.episode.pair_runtime = 12 * HOUR;
    tcfg.episode.warmup = 2 * DAY;
    tcfg.offline_episodes = 4;
    let range = (trace.first().unwrap().submit, trace.last().unwrap().submit);
    let starts =
        sample_training_starts(&trace, profile.nodes, range.0, range.1, &tcfg.episode, 4, 9);
    let pool = SimConfig::builder()
        .nodes(profile.nodes)
        .backend(BackendKind::Pooled { workers: 4 })
        .build_pool();
    let a = collect_offline(&pool, &trace, &tcfg, &starts);
    let b = collect_offline(&pool, &trace, &tcfg, &starts);
    assert_eq!(a.reward_samples.len(), b.reward_samples.len());
    assert_eq!(a.wait_samples, b.wait_samples);
    for (x, y) in a.reward_samples.iter().zip(&b.reward_samples) {
        assert_eq!(x.state, y.state);
        assert_eq!(x.action, y.action);
        assert_eq!(x.reward, y.reward);
    }
}

#[test]
fn pooled_collection_matches_sequential_collection() {
    // Collection runs every start on the pool's slot-0 backend, one
    // warm-up per start and no threads, so the pool's worker count must
    // not show: a 4-worker pool yields the single-worker pool's bytes.
    let (profile, trace) = jobs(6);
    let mut tcfg = TrainConfig::default();
    tcfg.episode.pair_timelimit = 12 * HOUR;
    tcfg.episode.pair_runtime = 12 * HOUR;
    tcfg.episode.warmup = 2 * DAY;
    tcfg.offline_episodes = 4;
    let range = (trace.first().unwrap().submit, trace.last().unwrap().submit);
    let starts = sample_training_starts(
        &trace,
        profile.nodes,
        range.0,
        range.1,
        &tcfg.episode,
        4,
        11,
    );
    let builder = SimConfig::builder().nodes(profile.nodes);
    let sequential = collect_offline(
        &builder
            .clone()
            .backend(BackendKind::Pooled { workers: 1 })
            .build_pool(),
        &trace,
        &tcfg,
        &starts,
    );
    let pooled = collect_offline(
        &builder
            .backend(BackendKind::Pooled { workers: 4 })
            .build_pool(),
        &trace,
        &tcfg,
        &starts,
    );
    assert_eq!(sequential.wait_samples, pooled.wait_samples);
    assert_eq!(sequential.reward_samples.len(), pooled.reward_samples.len());
    for (x, y) in sequential.reward_samples.iter().zip(&pooled.reward_samples) {
        assert_eq!(x.state, y.state);
        assert_eq!(x.action, y.action);
        assert_eq!(x.reward, y.reward);
    }
    assert_eq!(
        sequential.best_run_decisions.len(),
        pooled.best_run_decisions.len()
    );
    for (x, y) in sequential
        .best_run_decisions
        .iter()
        .zip(&pooled.best_run_decisions)
    {
        assert_eq!(x, y);
    }
}
