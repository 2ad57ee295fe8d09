//! User-configurable reward shaping (§4.5).
//!
//! Two users provision the same chained jobs on the same cluster:
//! a performance-sensitive user (interruption penalty e_I ≫ e_O) and a
//! resource-waste-averse user (e_O ≫ e_I). Both train a DQN provisioner;
//! the learned behaviors differ — the performance-sensitive agent submits
//! earlier and accepts overlap, the frugal agent waits longer.
//!
//! ```sh
//! cargo run --release --example custom_reward
//! ```

use mirage::core::episode::EpisodeConfig;
use mirage::core::eval::{evaluate, EvalConfig, LoadLevel};
use mirage::core::reward::RewardShaper;
use mirage::core::train::{
    collect_offline, sample_training_starts, train_method, MethodKind, TrainConfig,
};
use mirage::core::ProvisionPolicy;
use mirage::prelude::*;
use mirage::rl::DqnConfig;

fn main() {
    let profile = ClusterProfile::v100().scaled(0.4);
    let mut scfg = SynthConfig::new(profile.clone(), 21);
    scfg.months = Some(5);
    let raw = TraceGenerator::new(scfg).generate();
    let (jobs, _) = clean_trace(&raw, profile.nodes);
    let split = split_by_time(&jobs, 0.8);
    let train_range = (jobs.first().unwrap().submit, split.split_time);
    let val_range = (split.split_time, jobs.last().unwrap().submit);

    let users = [
        (
            "performance-sensitive (e_I=4, e_O=1)",
            RewardShaper {
                e_interrupt: 4.0,
                e_overlap: 1.0,
            },
        ),
        (
            "waste-averse         (e_I=1, e_O=4)",
            RewardShaper {
                e_interrupt: 1.0,
                e_overlap: 4.0,
            },
        ),
    ];

    for (label, shaper) in users {
        let tcfg = TrainConfig {
            episode: EpisodeConfig {
                pair_timelimit: 24 * HOUR,
                pair_runtime: 24 * HOUR,
                ..EpisodeConfig::default()
            },
            shaper,
            offline_episodes: 16,
            online_episodes: 50,
            // Rewards scale with e_I/e_O; keep the Huber regression of Q
            // onto them out of its saturated (linear) regime so the
            // preference signal survives.
            dqn: DqnConfig {
                huber_delta: 20.0,
                ..DqnConfig::default()
            },
            ..TrainConfig::default()
        };

        println!("training a transformer+DQN provisioner for the {label} user ...");
        let starts = sample_training_starts(
            &jobs,
            profile.nodes,
            train_range.0,
            train_range.1,
            &tcfg.episode,
            tcfg.offline_episodes,
            13,
        );
        let pool = SimConfig::builder()
            .nodes(profile.nodes)
            .seed(13)
            .build_pool();
        let data = collect_offline(&pool, &jobs, &tcfg, &starts);
        let mut backend = SimConfig::builder().nodes(profile.nodes).build();
        let mut methods: Vec<Box<dyn ProvisionPolicy>> = vec![train_method(
            MethodKind::TransformerDqn,
            &pool,
            &jobs,
            &tcfg,
            &data,
            train_range,
        )];
        let report = evaluate(
            &mut methods,
            &mut backend,
            &jobs,
            val_range,
            &EvalConfig {
                episode: tcfg.episode,
                n_episodes: 20,
                seed: 17,
            },
        );
        let mut tot_i = 0.0;
        let mut tot_o = 0.0;
        let mut n = 0usize;
        for load in LoadLevel::all() {
            let s = report.summarize("transformer+DQN", load);
            tot_i += s.avg_interruption_h * s.episodes as f64;
            tot_o += s.avg_overlap_h * s.episodes as f64;
            n += s.episodes;
        }
        println!(
            "  -> over {n} validation episodes: avg interruption {:.2}h, avg overlap {:.2}h\n",
            tot_i / n.max(1) as f64,
            tot_o / n.max(1) as f64
        );
    }
    println!("Expected shape: the waste-averse agent shows lower overlap; the");
    println!("performance-sensitive agent trades overlap for fewer/shorter gaps.");
}
