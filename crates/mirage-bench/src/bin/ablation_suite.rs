//! Quality ablations for the reproduction's design choices.
//!
//! * backfill vs plain priority scheduling (queue-wait impact),
//! * history length k for the foundation model (reward-prediction MSE),
//! * single transformer vs dense MoE foundation (reward-prediction MSE),
//! * reward penalty ratio e_I : e_O (behavioral effect on submit timing).
//!
//! Run it at smoke scale with `MIRAGE_QUICK=1 cargo run --release -p
//! mirage-bench --bin ablation_suite`.

use mirage_bench::{busiest_user, prepare_cluster};
use mirage_core::episode::EpisodeConfig;
use mirage_core::train::{collect_offline, sample_training_starts, TrainConfig};
use mirage_core::{RewardShaper, STATE_VARS};
use mirage_nn::foundation::FoundationKind;
use mirage_rl::{pretrain_foundation, reward_mse, PretrainConfig, RewardSample};
use mirage_sim::{BackfillPolicy, SimConfig, Simulator};
use mirage_trace::{ClusterProfile, HOUR};

fn main() {
    let profile = ClusterProfile::v100();
    let pc = prepare_cluster(&profile, Some(6), 42);

    backfill_ablation(&pc.jobs, profile.nodes);
    let (train_data, val_data) = offline_pools(&pc);
    history_ablation(&train_data, &val_data);
    moe_ablation(&train_data, &val_data);
    reward_ratio_ablation(&pc);
}

fn backfill_ablation(jobs: &[mirage_trace::JobRecord], nodes: u32) {
    println!("=== ablation: EASY backfill vs plain priority scheduling ===");
    for (name, policy) in [
        ("EASY backfill", BackfillPolicy::Easy { reserve_depth: 1 }),
        ("no backfill", BackfillPolicy::None),
    ] {
        let mut cfg = SimConfig::new(nodes);
        cfg.backfill = policy;
        let mut sim = Simulator::new(cfg);
        sim.load_trace(jobs);
        sim.run_to_completion();
        let m = sim.metrics();
        println!(
            "  {:14} avg wait {:7.2}h  utilization {:5.1}%  makespan {:6.1}d",
            name,
            m.avg_wait / HOUR as f64,
            m.utilization * 100.0,
            m.makespan as f64 / 86400.0
        );
    }
    println!("  (backfill should cut waits at equal or better utilization)\n");
}

/// Collects train/validation reward pools at two history lengths by
/// re-encoding the same episodes.
fn offline_pools(pc: &mirage_bench::PreparedCluster) -> (Vec<RewardSample>, Vec<RewardSample>) {
    let mut tcfg = TrainConfig::default();
    tcfg.episode.pair_user = busiest_user(&pc.jobs);
    tcfg.offline_episodes = 12;
    let starts = sample_training_starts(
        &pc.jobs,
        pc.profile.nodes,
        pc.train_range.0,
        pc.train_range.1,
        &tcfg.episode,
        tcfg.offline_episodes,
        3,
    );
    let pool = SimConfig::builder().nodes(pc.profile.nodes).build_pool();
    let data = collect_offline(&pool, &pc.jobs, &tcfg, &starts);
    let n = data.reward_samples.len();
    let split = n * 4 / 5;
    let train = data.reward_samples[..split].to_vec();
    let valid = data.reward_samples[split..].to_vec();
    (train, valid)
}

fn pretrain_and_score(
    kind: FoundationKind,
    k: usize,
    train: &[RewardSample],
    valid: &[RewardSample],
) -> f32 {
    // Truncate state matrices to the last k rows to emulate shorter
    // histories without re-running episodes.
    let shrink = |s: &RewardSample| RewardSample {
        state: mirage_nn::Matrix::from_fn(k, s.state.cols(), |r, c| {
            s.state.get(s.state.rows() - k + r, c)
        }),
        action: s.action,
        reward: s.reward,
    };
    let train_k: Vec<RewardSample> = train.iter().map(shrink).collect();
    let valid_k: Vec<RewardSample> = valid.iter().map(shrink).collect();
    let mut net = mirage_rl::DualHeadNet::new(mirage_rl::DualHeadConfig {
        foundation: kind,
        transformer: mirage_nn::TransformerConfig {
            input_dim: STATE_VARS,
            seq_len: k,
            d_model: 16,
            heads: 2,
            layers: 1,
            ff_mult: 2,
        },
        action_encoding: mirage_rl::ActionEncoding::TwoHead,
        freeze_foundation: false,
        seed: 7,
    });
    pretrain_foundation(
        &mut net,
        &train_k,
        &PretrainConfig {
            epochs: 5,
            batch_size: 32,
            lr: 1e-3,
            seed: 0,
            grad_clip: 5.0,
        },
    );
    reward_mse(&net, &valid_k)
}

fn history_ablation(train: &[RewardSample], valid: &[RewardSample]) {
    println!("=== ablation: history length k (reward-prediction val MSE) ===");
    for k in [3usize, 6, 12] {
        let mse = pretrain_and_score(FoundationKind::Transformer, k, train, valid);
        println!("  k = {k:>3}: val MSE {mse:9.3}");
    }
    println!("  (longer history should not hurt; gains taper off)\n");
}

fn moe_ablation(train: &[RewardSample], valid: &[RewardSample]) {
    println!("=== ablation: single transformer vs dense MoE foundation ===");
    for (name, kind) in [
        ("transformer", FoundationKind::Transformer),
        ("dense MoE x3", FoundationKind::MoE { experts: 3 }),
    ] {
        let mse = pretrain_and_score(kind, 12, train, valid);
        println!("  {name:14} val MSE {mse:9.3}");
    }
    println!("  (reward regression over the offline episodes, not a policy result)\n");
}

fn reward_ratio_ablation(pc: &mirage_bench::PreparedCluster) {
    println!("=== ablation: reward ratio e_I : e_O (best offline submit fraction) ===");
    // For each ratio, report which §4.9.1 split point won (earlier =
    // more aggressive) averaged over episodes.
    let tcfg = TrainConfig {
        episode: EpisodeConfig {
            pair_user: busiest_user(&pc.jobs),
            ..EpisodeConfig::default()
        },
        offline_episodes: 10,
        ..TrainConfig::default()
    };
    let starts = sample_training_starts(
        &pc.jobs,
        pc.profile.nodes,
        pc.train_range.0,
        pc.train_range.1,
        &tcfg.episode,
        tcfg.offline_episodes,
        11,
    );
    for (label, shaper) in [
        (
            "e_I=10, e_O=1 (perf-sensitive)",
            RewardShaper {
                e_interrupt: 10.0,
                e_overlap: 1.0,
            },
        ),
        ("e_I=2,  e_O=1 (default)", RewardShaper::default()),
        (
            "e_I=1,  e_O=10 (waste-averse)",
            RewardShaper {
                e_interrupt: 1.0,
                e_overlap: 10.0,
            },
        ),
    ] {
        let mut cfg = tcfg.clone();
        cfg.shaper = shaper;
        let pool = SimConfig::builder().nodes(pc.profile.nodes).build_pool();
        let data = collect_offline(&pool, &pc.jobs, &cfg, &starts);
        // The best-run pool holds the highest-reward run per start; its
        // submit fraction reveals the preferred aggressiveness.
        let proactive_frac = data
            .best_run_decisions
            .iter()
            .filter(|(_, a)| *a == 1)
            .count() as f64
            / starts.len() as f64;
        println!(
            "  {label:32} best runs submitted proactively in {:.0}% of episodes",
            proactive_frac * 100.0
        );
    }
    println!("  (higher interruption penalty should favor proactive submission)");
}
