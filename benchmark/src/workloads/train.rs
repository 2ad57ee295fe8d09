//! `train_online`: online DQN fine-tuning on the existing training-lane
//! shape — a thin 3-week synthetic load on an 8-node pool, 48 h pairs at
//! a 600 s cadence, ε = 0.002 constant, 8 updates per episode, batch 32,
//! 2 lockstep collection lanes, 1 training worker.
//!
//! Uses `nn` differently from serving (batched forward + backward +
//! Adam, replay, the lockstep `BatchedCollector`), so a forward-only
//! shortcut that slows training shows here.
//!
//! Work unit: one trained decision (`agent.steps`). Op: one fine-tuning
//! run of 8 episodes; a slice is four such runs from four exploration
//! seeds, the last one writing its checkpoint and reading it back.

use std::path::{Path, PathBuf};

use mirage::core::batch::{BatchedEpisodeDriver, LanePolicy};
use mirage::core::train::{
    dqn_episode_seed, sample_episode_starts, train_dqn_online_checkpointed,
    train_dqn_online_traced, OfflineData,
};
use mirage::core::{
    BatchedCollector, CheckpointConfig, DqnTrainCheckpoint, EpisodeConfig, EpisodeResult,
    TrainConfig,
};
use mirage::nn::Matrix;
use mirage::rl::{
    BalancedReplay, DqnAgent, DualHeadNet, EpisodeSample, EpsilonSchedule, Experience, ExploreLane,
    MiniBatch, PgAgent, PgConfig,
};
use mirage::sim::{BackendKind, BackendPool, ClusterBackend, SimBuilder, SimConfig};
use mirage::trace::{split_seed, JobRecord, DAY, HOUR};
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::serve::{serving_episode, serving_net};
use super::{part_of, time_ns, Digest, Metrics, SliceOut, Workload};
use crate::estimate::Part;
use crate::kernels;
use crate::names::*;
use crate::span;
use crate::spans::Tracer;

const RUNS: usize = 4;
const EPISODES_PER_RUN: usize = 8;
const NODES: u32 = 8;
const LANES: usize = 2;

/// Replay pool sizes of `train_dqn_online` (wait class, submit class).
const REPLAY_CAPACITY: (usize, usize) = (8192, 4096);

pub struct TrainOnline {
    trace: Vec<JobRecord>,
    /// One per run: the same shape, its own exploration and sampling seed.
    cfgs: Vec<TrainConfig>,
    starts: Vec<i64>,
    net: DualHeadNet,
    pool: BackendPool<SimBuilder>,
    ckpt_path: PathBuf,
    /// From the last slice: trained decisions, updates, last loss (the
    /// recomposed loop sees it; the product call does not return it).
    steps: u64,
    updates: u64,
    final_loss: f64,
    checkpoint_bytes: u64,
}

/// What one fine-tuning run ended on; the slice's last run also wrote
/// a checkpoint and read it back.
struct RunEnd {
    agent: DqnAgent,
    episodes: Vec<EpisodeResult>,
    checkpoint: Option<(DqnTrainCheckpoint, u64)>,
}

/// Reads the checkpoint at `path` back, with its size on disk.
fn read_back(path: &Path) -> (DqnTrainCheckpoint, u64) {
    (
        DqnTrainCheckpoint::load(path).expect("checkpoint reads back"),
        std::fs::metadata(path).map_or(0, |m| m.len()),
    )
}

impl TrainOnline {
    pub fn setup(seed: u64) -> Self {
        // Thin hourly background load over 3 weeks: the NN, not the
        // simulator backlog, is the dominant per-decision cost.
        let trace: Vec<JobRecord> = (0..21 * 24)
            .map(|i| {
                JobRecord::new(
                    i as u64 + 1,
                    format!("bg{i}"),
                    (i % 5) as u32,
                    i * HOUR,
                    1 + (i % 2) as u32,
                    6 * HOUR,
                    3 * HOUR,
                )
            })
            .collect();
        let mut cfg = TrainConfig {
            online_episodes: EPISODES_PER_RUN,
            collect_lanes: Some(LANES),
            train_workers: 1,
            updates_per_episode: 8,
            batch_size: 32,
            episode: EpisodeConfig {
                warmup: 2 * DAY,
                pair_user: 999,
                ..serving_episode()
            },
            ..TrainConfig::default()
        };
        // Fine-tuning regime: a pretrained provisioner holds its submit,
        // so episodes run until exploration (or the deadline) ends them.
        // The lane this copies explores at 0.02; there an episode ends
        // after 95 ± 90 decisions and the work in 32 episodes moves 16 %
        // with the exploration seed. At 0.002 three episodes in four run
        // to the deadline (~250 decisions) and it moves 5 %.
        cfg.dqn.epsilon = EpsilonSchedule::constant(0.002);
        let starts = sample_episode_starts(
            0,
            21 * DAY,
            &cfg.episode,
            EPISODES_PER_RUN,
            split_seed(seed, 11),
        );
        let mut net = serving_net(split_seed(seed, 12));
        // Stand in for that pretraining: whatever weights the seed drew,
        // the Q head starts at Q(wait) = 0, Q(submit) = −1 for every
        // state, and learns from there.
        net.ps.get_mut(net.q_head.w).data_mut().fill(0.0);
        net.ps
            .get_mut(net.q_head.b)
            .data_mut()
            .copy_from_slice(&[0.0, -1.0]);
        let pool = SimConfig::builder()
            .nodes(NODES)
            .backend(BackendKind::Pooled { workers: LANES })
            .build_pool();
        Self {
            trace,
            cfgs: (0..RUNS as u64)
                .map(|r| TrainConfig {
                    seed: split_seed(seed, 100 + r),
                    ..cfg.clone()
                })
                .collect(),
            starts,
            net,
            pool,
            ckpt_path: crate::out_dir().join(format!("train-{}.ckpt", std::process::id())),
            steps: 0,
            updates: 0,
            final_loss: 0.0,
            checkpoint_bytes: 0,
        }
    }

    fn finish_slice(&mut self, runs: &[RunEnd]) -> SliceOut {
        let mut d = Digest::default();
        let (mut steps, mut updates, mut episodes) = (0, 0, 0);
        for run in runs {
            let state = run.agent.export_state();
            for m in state
                .net_params
                .iter()
                .chain(state.target_params.iter().flatten())
            {
                for v in m.data() {
                    d.push(u64::from(v.to_bits()));
                }
            }
            for v in [state.opt_t, state.steps, state.train_steps] {
                d.push(v);
            }
            for e in &run.episodes {
                for v in [
                    e.outcome.interruption,
                    e.outcome.overlap,
                    e.succ_submit,
                    e.succ_start,
                ] {
                    d.push(v as u64);
                }
            }
            // What came back from disk is what training ended on.
            if let Some((loaded, bytes)) = &run.checkpoint {
                d.push(*bytes);
                d.push(loaded.agent.steps);
                d.push(loaded.agent.train_steps);
                d.push(loaded.episodes.len() as u64);
                self.checkpoint_bytes = *bytes;
            }
            steps += state.steps;
            updates += state.train_steps;
            episodes += run.episodes.len() as u64;
        }
        self.steps = steps;
        self.updates = updates;
        let _ = std::fs::remove_file(&self.ckpt_path);
        SliceOut {
            work: steps,
            attempted: episodes,
            digest: d.0,
        }
    }

    /// `train_dqn_online` at one worker, from public pieces: window
    /// collection, replay pushes, per-episode updates, and (for a
    /// `checkpointed` run) the checkpoint at the end.
    fn recomposed_run(&mut self, t: &mut Tracer, cfg: &TrainConfig, checkpointed: bool) -> RunEnd {
        let mut agent = DqnAgent::new(self.net.clone(), cfg.dqn);
        let mut replay = BalancedReplay::new(REPLAY_CAPACITY.0, REPLAY_CAPACITY.1);
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xD9);
        let t0s: Vec<i64> = self
            .starts
            .iter()
            .cycle()
            .take(cfg.online_episodes)
            .copied()
            .collect();
        let collector = BatchedCollector::new(&self.pool, &self.trace, &cfg.episode, LANES);
        let mut episodes: Vec<EpisodeResult> = Vec::with_capacity(t0s.len());
        let mut lanes: Vec<ExploreLane> = Vec::with_capacity(LANES);
        let mut mb = MiniBatch::new();
        for chunk in t0s.chunks(LANES) {
            lanes.clear();
            lanes.extend(
                (episodes.len()..episodes.len() + chunk.len())
                    .map(|i| ExploreLane::seeded(dqn_episode_seed(cfg.seed, i), agent.steps)),
            );
            t.enter(COLLECT_WINDOW);
            let mut driver = collector.window(chunk);
            driver.run_lanes(&mut TracedAct {
                agent: &mut agent,
                lanes: &mut lanes,
                tracer: t,
            });
            let results = driver.finish().0;
            t.exit();
            for mut result in results {
                let reward = cfg.shaper.reward(&result.outcome);
                agent.steps += result.decisions.len() as u64;
                for (state, action) in result.take_decisions() {
                    span!(
                        t,
                        REPLAY_PUSH,
                        replay.push(Experience::terminal(state, action, reward))
                    );
                }
                if replay.len() >= cfg.batch_size {
                    for _ in 0..cfg.updates_per_episode {
                        span!(
                            t,
                            REPLAY_SAMPLE_MINIBATCH,
                            replay.sample_minibatch(&mut rng, cfg.batch_size, &mut mb)
                        );
                        let loss = span!(
                            t,
                            DQN_TRAIN_MINIBATCH,
                            agent.train_minibatch_sharded(&mb, 1)
                        );
                        self.final_loss = f64::from(loss);
                    }
                }
                episodes.push(result);
            }
        }
        if !checkpointed {
            return RunEnd {
                agent,
                episodes,
                checkpoint: None,
            };
        }
        // Snapshot and write, as the product's checkpoint step does.
        t.enter(CHECKPOINT_SAVE);
        let (wc, ww, wb) = replay.wait().raw_parts();
        let (sc, sw, sb) = replay.submit().raw_parts();
        DqnTrainCheckpoint {
            cfg_seed: cfg.seed,
            lanes: LANES as u64,
            workers: 1,
            agent: agent.export_state(),
            replay_wait: (wc as u64, ww as u64, wb.to_vec()),
            replay_submit: (sc as u64, sw as u64, sb.to_vec()),
            rng: rng.state(),
            episodes: episodes.clone(),
        }
        .save(&self.ckpt_path)
        .expect("checkpoint writes");
        t.exit();
        let checkpoint = span!(t, CHECKPOINT_LOAD, read_back(&self.ckpt_path));
        RunEnd {
            agent,
            episodes,
            checkpoint: Some(checkpoint),
        }
    }
}

/// `DqnActWindow` with a span around the batched forward.
struct TracedAct<'a> {
    agent: &'a mut DqnAgent,
    lanes: &'a mut [ExploreLane],
    tracer: &'a mut Tracer,
}

impl<B: ClusterBackend> LanePolicy<B> for TracedAct<'_> {
    fn decide_lanes(&mut self, driver: &BatchedEpisodeDriver<B>, actions: &mut Vec<usize>) {
        span!(
            self.tracer,
            DQN_ACT_BATCH,
            self.agent
                .act_batch(driver.batch_states(), self.lanes, driver.pending(), actions)
        );
    }
}

impl Workload for TrainOnline {
    /// One part per fine-tuning run.
    fn slice(&mut self, parts: &mut Vec<Part>) -> SliceOut {
        let warm = OfflineData::default();
        let runs: Vec<RunEnd> = (0..RUNS)
            .map(|r| {
                let (net, cfg) = (self.net.clone(), &self.cfgs[r]);
                part_of(parts, || {
                    if r + 1 < RUNS {
                        let (agent, _, episodes) = train_dqn_online_traced(
                            net,
                            &self.pool,
                            &self.trace,
                            cfg,
                            &self.starts,
                            &warm,
                        );
                        return RunEnd {
                            agent,
                            episodes,
                            checkpoint: None,
                        };
                    }
                    let run = train_dqn_online_checkpointed(
                        net,
                        &self.pool,
                        &self.trace,
                        cfg,
                        &self.starts,
                        &warm,
                        &CheckpointConfig::every(&self.ckpt_path, EPISODES_PER_RUN),
                        None,
                    )
                    .expect("checkpointed training run");
                    RunEnd {
                        agent: run.agent,
                        episodes: run.episodes,
                        checkpoint: Some(read_back(&self.ckpt_path)),
                    }
                })
            })
            .collect();
        self.finish_slice(&runs)
    }

    /// The digest (final weights, optimizer clocks, episode outcomes,
    /// checkpoints) pins the recomposed runs to the product call.
    fn traced_slice(&mut self, t: &mut Tracer) -> SliceOut {
        let cfgs = self.cfgs.clone();
        let runs: Vec<RunEnd> = cfgs
            .iter()
            .enumerate()
            .map(|(r, cfg)| {
                t.set_op(r as u32);
                t.enter(BENCH_OP);
                let run = self.recomposed_run(t, cfg, r + 1 == RUNS);
                t.exit();
                run
            })
            .collect();
        self.finish_slice(&runs)
    }

    fn check(&mut self, failures: &mut Vec<String>) {
        if (self.steps as usize) < RUNS * EPISODES_PER_RUN * 30 {
            failures.push(format!(
                "train_online left the fine-tuning regime: {} decisions over {} episodes",
                self.steps,
                RUNS * EPISODES_PER_RUN
            ));
        }
        if !self.final_loss.is_finite() {
            failures.push("non-finite training loss".into());
        }
    }

    fn layer_metrics(&mut self, out: &mut Metrics) {
        out.insert("rl.dqn.steps.count", self.steps as f64);
        out.insert("rl.dqn.updates.count", self.updates as f64);
        out.insert("rl.dqn.final_loss", self.final_loss);
        out.insert("core.checkpoint.bytes", self.checkpoint_bytes as f64);
        kernels::nn_kernels(&self.net, out);

        // The other trainer's update at the same shapes: 4 episodes of
        // 100 decisions, the REINFORCE batch.
        let mut pg = PgAgent::new(self.net.clone(), PgConfig::default());
        let episode = self.cfgs[0].episode;
        let state = Matrix::zeros(episode.history_k, self.net.cfg.transformer.input_dim);
        let batch: Vec<EpisodeSample> = (0..4)
            .map(|e| EpisodeSample {
                steps: (0..100)
                    .map(|i| (state.clone(), usize::from(i == 99)))
                    .collect(),
                episode_return: -1.0 - e as f32,
            })
            .collect();
        let ns = time_ns(20, || {
            std::hint::black_box(pg.train_episodes(&batch));
        });
        out.insert("rl.pg.train_episodes.us", ns / 1e3);
    }
}
