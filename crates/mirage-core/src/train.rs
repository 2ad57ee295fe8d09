//! Training pipelines (§4.9 of the paper).
//!
//! * **Offline sample collection** (§4.9.1): episodes replayed from the
//!   training range submit the successor at evenly split points between
//!   the predecessor's start and its end; every decision in the episode
//!   is credited with the delayed episode reward (Eq. 8) and stored in
//!   the experience memory pool.
//! * **Foundation pretraining**: supervised reward regression over the
//!   collected pool (`mirage-rl::offline`). There is one pretrained
//!   foundation per kind, shared by the V-head and P-head methods
//!   (§4.9.1): [`OfflineData`] keeps the net pretrained on it, and
//!   [`train_method`]'s DQN and PG arms both start from a clone.
//! * **Online training** (§4.9.2): one loop, two learners. DQN trains
//!   on-policy with ε-greedy exploration and replay mini-batches; PG
//!   trains on Monte-Carlo episode rollouts.
//! * **Ensemble fitting**: the same episodes supply (features → observed
//!   successor wait) pairs for the Random Forest / XGBoost baselines.
//!
//! Offline collection plays fixed split-point policies, so it runs on the
//! warm-once loop in [`crate::eval`]: one warm-up per start, every run on
//! a restore. The online loop steps `TrainConfig::collect_lanes` episodes
//! per lockstep window through the [`BatchedCollector`] (one batched NN
//! forward per decision tick) and hands the learner each window's results
//! in episode order, so replay pushes and the update cadence are those of
//! a sequential loop. Its contract, pinned by the `lockstep_training`
//! property tests:
//!
//! * with `lanes == 1`, a training run is **bit-identical** to the
//!   sequential loop it replaced — same replay contents, same final
//!   weights, same episode outcomes;
//! * with `lanes == N`, every lane is bit-identical to a sequential run
//!   of its episode under the same per-lane `(seed, ε-step-base)` and
//!   the same window-start weights ([`ExploreLane`] keeps lane streams
//!   and clocks independent of the batch width).
//!
//! Acting inside a window always uses the window-start weights (updates
//! happen between windows, per finished episode), and `lanes == 1`
//! recovers the fully sequential cadence exactly.

use mirage_ensemble::{Dataset, ForestConfig, GbdtConfig, GradientBoosting, RandomForest};
use mirage_nn::foundation::FoundationKind;
use mirage_nn::serialize::write_atomic;
use mirage_nn::transformer::{TransformerConfig, TransformerConfigError};
use mirage_nn::Matrix;
use mirage_rl::{
    pretrain_foundation, ActionEncoding, BalancedReplay, DqnAgent, DqnConfig, DualHeadConfig,
    DualHeadNet, EpisodeSample, Experience, ExploreLane, HeadBatchCache, MiniBatch, PgAgent,
    PgConfig, PretrainConfig, RewardSample,
};
use mirage_sim::{BackendFactory, BackendPool, ClusterBackend};
use mirage_trace::{JobRecord, DAY};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::path::Path;
use std::sync::{Mutex, PoisonError};

use crate::batch::{BatchedEpisodeDriver, LanePolicy};
use crate::checkpoint::{
    check_match, CheckpointConfig, DqnTrainCheckpoint, PgTrainCheckpoint, ResumeError,
};
use crate::episode::{Action, EpisodeConfig, EpisodeConfigError, EpisodeResult};
use crate::eval::warm_once;
use crate::features::extract_features;
use crate::multiservice::MultiServiceConfig;
use crate::policy::{
    AvgWaitPolicy, DqnPolicy, PgPolicy, ProvisionPolicy, ReactivePolicy, WaitModel,
    WaitPredictorPolicy,
};
use crate::reward::RewardShaper;
use crate::state::STATE_VARS;

/// The eight §6 methods.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MethodKind {
    /// Submit on predecessor completion (common practice).
    Reactive,
    /// Submit `T_avg` before the predecessor's end.
    AvgHeuristic,
    /// Random-forest wait predictor.
    RandomForest,
    /// Gradient-boosted wait predictor.
    Xgboost,
    /// Transformer foundation + DQN head.
    TransformerDqn,
    /// MoE foundation + DQN head (the paper's default Mirage model).
    MoeDqn,
    /// Transformer foundation + PG head (the aggressive option).
    TransformerPg,
    /// MoE foundation + PG head.
    MoePg,
}

impl MethodKind {
    /// All methods in the order the paper's figures list them.
    pub fn all() -> [MethodKind; 8] {
        [
            MethodKind::Reactive,
            MethodKind::AvgHeuristic,
            MethodKind::RandomForest,
            MethodKind::Xgboost,
            MethodKind::TransformerDqn,
            MethodKind::MoeDqn,
            MethodKind::TransformerPg,
            MethodKind::MoePg,
        ]
    }

    /// Figure label.
    pub fn label(&self) -> &'static str {
        match self {
            MethodKind::Reactive => "reactive",
            MethodKind::AvgHeuristic => "avg",
            MethodKind::RandomForest => "random-forest",
            MethodKind::Xgboost => "xgboost",
            MethodKind::TransformerDqn => "transformer+DQN",
            MethodKind::MoeDqn => "MoE+DQN",
            MethodKind::TransformerPg => "transformer+PG",
            MethodKind::MoePg => "MoE+PG",
        }
    }
}

/// End-to-end training configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Episode shape (pair size, cadence, history length…).
    pub episode: EpisodeConfig,
    /// Predecessor start points sampled from the training range.
    pub offline_episodes: usize,
    /// Successor submission split points per episode (7 in §4.9.1).
    pub split_points: usize,
    /// Reward shaping coefficients.
    pub shaper: RewardShaper,
    /// Foundation/optimizer seed.
    pub seed: u64,
    /// MoE expert count.
    pub moe_experts: usize,
    /// Foundation pretraining settings.
    pub pretrain: PretrainConfig,
    /// Online DQN settings.
    pub dqn: DqnConfig,
    /// Online PG settings.
    pub pg: PgConfig,
    /// Online fine-tuning episodes (per RL method).
    pub online_episodes: usize,
    /// Replay-batch size for online DQN updates.
    pub batch_size: usize,
    /// Replay mini-batch updates after each online DQN episode (at least
    /// one: [`validate`](Self::validate) refuses 0).
    pub updates_per_episode: usize,
    /// Lockstep episode lanes per online-collection window (offline
    /// collection plays one episode at a time and ignores it); the only
    /// width online training has. Each window's acting shares the
    /// window-start weights; `Some(1)` recovers the fully sequential
    /// collect-update cadence bit for bit, and every lane is
    /// bit-identical to a sequential run under its own `(seed, ε-base)`
    /// whatever the width (see [`crate::train`]). `None` (the default)
    /// sizes from the pool via [`TrainConfig::collect_lanes_for`]:
    /// `min(pool workers,` [`l1_lane_cap`](Self::l1_lane_cap)`)`. The
    /// pool's worker count is 4 unless `BackendKind::Pooled` sets it,
    /// never the host's core count, so the width is the same on every
    /// machine.
    pub collect_lanes: Option<usize>,
    /// Training workers. Training runs on one worker, the calling
    /// thread: `0` and `1` both mean that, and
    /// [`validate`](Self::validate) refuses anything larger (widen
    /// [`collect_lanes`](Self::collect_lanes) instead). Kept only because
    /// the repository's benchmark sets it.
    #[serde(default)]
    pub train_workers: usize,
    /// Cap on reward samples used for foundation pretraining (subsampled
    /// deterministically when the pool is larger).
    pub max_pretrain_samples: usize,
    /// Transformer width/depth.
    pub d_model: usize,
    /// Attention heads.
    pub heads: usize,
    /// Encoder layers.
    pub layers: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            episode: EpisodeConfig::default(),
            offline_episodes: 24,
            split_points: 7,
            shaper: RewardShaper::default(),
            seed: 0,
            moe_experts: 3,
            pretrain: PretrainConfig {
                epochs: 4,
                batch_size: 32,
                lr: 1e-3,
                seed: 0,
                grad_clip: 5.0,
            },
            dqn: DqnConfig::default(),
            // Low online lr: REINFORCE fine-tunes the behavior-cloned
            // policy without being able to wipe it out in a few bad
            // episode batches.
            pg: PgConfig {
                entropy_coef: 0.02,
                lr: 3e-4,
                ..PgConfig::default()
            },
            online_episodes: 60,
            batch_size: 32,
            updates_per_episode: 6,
            // Auto-size to the pool: past ~8 lanes the per-window update
            // staleness outweighs the batching gain. `Some(4)` recovers
            // the old fixed default (and makes PG *globally*
            // bit-identical to the pre-lockstep sequential loop, whose
            // REINFORCE batch is 4).
            collect_lanes: None,
            train_workers: 1,
            max_pretrain_samples: 2500,
            d_model: 16,
            heads: 2,
            layers: 1,
        }
    }
}

impl TrainConfig {
    /// Resolves [`collect_lanes`](Self::collect_lanes) against the
    /// backend pool driving collection: an explicit override wins
    /// (clamped to at least one lane); `None` auto-sizes to
    /// `min(pool_workers,` [`l1_lane_cap`](Self::l1_lane_cap)`)` — the
    /// pool's width, capped where the lockstep batch stops fitting in
    /// cache (and where wider windows stop paying for their update
    /// staleness).
    pub fn collect_lanes_for(&self, pool_workers: usize) -> usize {
        self.collect_lanes
            .unwrap_or_else(|| pool_workers.min(self.l1_lane_cap()))
            .max(1)
    }

    /// Deterministic cache-residency probe for the auto-sized lockstep
    /// width: the widest lane count whose hot per-tick state — one
    /// `history_k × STATE_VARS` observation row-stack plus one `d_model`
    /// activation row per lane, in `f32` — still fits a conservative
    /// 32 KiB L1 data cache, clamped to `[2, 16]`. Derived purely from
    /// the config (never from runtime timing), so auto-sized runs are
    /// reproducible across machines; an explicit
    /// [`collect_lanes`](Self::collect_lanes) override bypasses it
    /// entirely.
    pub fn l1_lane_cap(&self) -> usize {
        const L1_BYTES: usize = 32 * 1024;
        let per_lane =
            (self.episode.history_k * STATE_VARS + self.d_model) * std::mem::size_of::<f32>();
        (L1_BYTES / per_lane.max(1)).clamp(2, 16)
    }

    /// Rejects the values that only fail deep inside `mirage-rl`: a zero
    /// [`batch_size`](Self::batch_size) (an empty replay mini-batch) or
    /// `pretrain.batch_size` (zero-sized chunks), zero
    /// [`updates_per_episode`](Self::updates_per_episode) (an online
    /// DQN run that never trains), zero
    /// [`moe_experts`](Self::moe_experts), and more than one
    /// [`train_workers`](Self::train_workers). The `episode` part is
    /// validated where episodes are built. Every training entry point
    /// checks this first; the checkpointed online ones return the error
    /// as [`ResumeError::InvalidConfig`], the others panic with it.
    pub fn validate(&self) -> Result<(), EpisodeConfigError> {
        let sizes = [
            ("batch_size", self.batch_size),
            ("pretrain.batch_size", self.pretrain.batch_size),
        ];
        for (field, size) in sizes {
            if size == 0 {
                return Err(EpisodeConfigError {
                    field: field.into(),
                    value: "0".into(),
                    reason: "a mini-batch needs at least one sample",
                });
            }
        }
        if self.updates_per_episode == 0 {
            return Err(EpisodeConfigError {
                field: "updates_per_episode".into(),
                value: "0".into(),
                reason: "an online DQN episode takes at least one replay update",
            });
        }
        if self.moe_experts == 0 {
            return Err(EpisodeConfigError {
                field: "moe_experts".into(),
                value: "0".into(),
                reason: "a mixture of experts needs at least one expert",
            });
        }
        if self.train_workers > 1 {
            return Err(EpisodeConfigError {
                field: "train_workers".into(),
                value: self.train_workers.to_string(),
                reason: "training runs on one worker; widen collect_lanes instead",
            });
        }
        Ok(())
    }

    /// [`validate`](Self::validate) for the infallible entry points.
    fn expect_valid(&self, entry: &str) {
        self.validate().unwrap_or_else(|e| panic!("{entry}: {e}"));
    }
}

/// Offline data pools produced by §4.9.1 collection.
///
/// The pools also carry the nets pretrained on them: one pretrained
/// foundation per kind, shared by the V-head and P-head methods (§4.9.1).
/// [`train_method`] pretrains a foundation the first time one of its two
/// RL methods asks and hands the other a clone. An entry is keyed on
/// everything pretraining reads, the samples included, so editing
/// [`reward_samples`](Self::reward_samples) makes the next call pretrain
/// afresh.
#[derive(Debug, Default)]
pub struct OfflineData {
    /// (state, action, reward) triples for foundation pretraining and DQN.
    pub reward_samples: Vec<RewardSample>,
    /// (features, successor wait in hours) pairs for the ensembles.
    pub wait_samples: Vec<(Vec<f32>, f32)>,
    /// Decisions of the best-reward run per episode start — the
    /// behavior-cloning warm start for the P-head (REINFORCE alone is too
    /// sample-hungry at this scale).
    pub best_run_decisions: Vec<(mirage_nn::Matrix, usize)>,
    /// Pretrained nets by pretraining input (see [`shared_pretrained_net`]).
    pretrained: Mutex<Vec<(PretrainKey, DualHeadNet)>>,
}

/// Everything [`try_build_pretrained_net`] reads, compared by value
/// (floats by their bits). The samples enter as the length and a digest
/// of the subsample pretraining reads.
#[derive(Debug, PartialEq, Eq)]
struct PretrainKey {
    foundation: FoundationKind,
    transformer: TransformerConfig,
    seed: u64,
    /// `cfg.pretrain`: epochs, batch size, lr bits, seed, clip bits.
    pretrain: (usize, usize, u32, u64, u32),
    max_pretrain_samples: usize,
    /// Subsample length and [`sample_digest`].
    samples: (usize, u64),
}

impl PretrainKey {
    fn new(foundation: FoundationKind, cfg: &TrainConfig, data: &OfflineData) -> Self {
        let p = &cfg.pretrain;
        let stride = pretrain_stride(cfg, data.reward_samples.len());
        let sub = data.reward_samples.iter().step_by(stride);
        Self {
            foundation,
            transformer: transformer_config(cfg),
            seed: cfg.seed,
            pretrain: (
                p.epochs,
                p.batch_size,
                p.lr.to_bits(),
                p.seed,
                p.grad_clip.to_bits(),
            ),
            max_pretrain_samples: cfg.max_pretrain_samples,
            samples: (sub.len(), sample_digest(sub)),
        }
    }
}

/// Order-sensitive 64-bit digest of every state, action and reward bit
/// of `samples`, mixed one word at a time.
fn sample_digest<'a>(samples: impl Iterator<Item = &'a RewardSample>) -> u64 {
    let mix = |h: u64, w: u64| (h ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29);
    samples.fold(0, |mut h, s| {
        h = mix(h, s.state.rows() as u64);
        h = mix(h, s.state.cols() as u64);
        for v in s.state.data() {
            h = mix(h, u64::from(v.to_bits()));
        }
        h = mix(h, s.action as u64);
        mix(h, u64::from(s.reward.to_bits()))
    })
}

/// Samples episode start instants uniformly within `[range_start,
/// range_end)`, leaving room for warm-up before and the episode horizon
/// after.
pub fn sample_episode_starts(
    range_start: i64,
    range_end: i64,
    episode: &EpisodeConfig,
    n: usize,
    seed: u64,
) -> Vec<i64> {
    // The warm-up window may reach *before* range_start: it only replays
    // background context that already existed (no leakage), and insisting
    // on post-start warm-up would blind short validation ranges to their
    // early congested stretches.
    let lo = range_start + 2 * DAY;
    let hi = (range_end - episode.pair_timelimit - 2 * DAY).max(lo + 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut starts: Vec<i64> = (0..n).map(|_| rng.gen_range(lo..hi)).collect();
    starts.sort_unstable();
    starts
}

/// Samples *training* episode starts with a congestion bias: candidates
/// are ranked by the local offered demand (node-seconds submitted in the
/// preceding two days over capacity) and half the picks come from the most
/// congested quartile. Heavy-load episodes are where the paper's results
/// live, but they are rare under uniform sampling — this keeps them in the
/// training diet without touching the (uniformly sampled) validation set.
pub fn sample_training_starts(
    trace: &[JobRecord],
    nodes: u32,
    range_start: i64,
    range_end: i64,
    episode: &EpisodeConfig,
    n: usize,
    seed: u64,
) -> Vec<i64> {
    let candidates = sample_episode_starts(range_start, range_end, episode, n * 3, seed);
    let demand_at = |t0: i64| -> f64 {
        let from = t0 - 2 * DAY;
        let lo = trace.partition_point(|j| j.submit < from);
        let hi = trace.partition_point(|j| j.submit < t0);
        let ns: f64 = trace[lo..hi]
            .iter()
            .map(|j| j.nodes as f64 * j.runtime as f64)
            .sum();
        ns / (f64::from(nodes.max(1)) * (2 * DAY) as f64)
    };
    let mut ranked: Vec<(f64, i64)> = candidates.iter().map(|&t| (demand_at(t), t)).collect();
    ranked.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
    let top_quartile = ranked.len() / 4;
    let mut picks: Vec<i64> = Vec::with_capacity(n);
    // Half from the congested quartile, half spread over the full ranking.
    for (_, t) in ranked.iter().take(top_quartile.max(1)).take(n / 2) {
        picks.push(*t);
    }
    let rest = &ranked[top_quartile.min(ranked.len())..];
    if !rest.is_empty() {
        let stride = (rest.len() / (n - picks.len()).max(1)).max(1);
        for (_, t) in rest.iter().step_by(stride) {
            if picks.len() >= n {
                break;
            }
            picks.push(*t);
        }
    }
    while picks.len() < n && !ranked.is_empty() {
        picks.push(ranked[picks.len() % ranked.len()].1);
    }
    picks.sort_unstable();
    picks
}

/// Slices the (submit-sorted) trace to the window an episode at `t0`
/// needs: warm-up before, generous horizon after.
pub fn episode_window<'a>(
    trace: &'a [JobRecord],
    t0: i64,
    episode: &EpisodeConfig,
) -> &'a [JobRecord] {
    let from = t0 - episode.warmup;
    let to = t0 + 2 * episode.pair_timelimit + 6 * DAY;
    let lo = trace.partition_point(|j| j.submit < from);
    let hi = trace.partition_point(|j| j.submit < to);
    &trace[lo..hi]
}

/// §4.9.1 offline collection: for each start, one reactive run plus
/// `split_points` runs that submit the successor at evenly split elapsed
/// fractions of the predecessor's limit. Every decision of a run is
/// credited with the delayed episode reward, and the features at a run's
/// submit decision pair with its successor wait for the ensembles.
///
/// The runs of one start are identical until the policy acts, so they
/// run on the evaluation loop in [`crate::eval`]: each start is warmed
/// once on one pool backend (slot 0, [`BackendPool::build_one`]) and
/// every run plays on a restore of that warm engine, bit-identical to
/// re-warming per run. On a fault-injecting pool every run of every
/// start therefore replays slot 0's crash tape. No threads are spawned;
/// the pool's worker count does not change the output. Decision matrices
/// move straight into the reward pool — only each start's best run is
/// copied (out of that pool) for the behavior-cloning warm start.
pub fn collect_offline<F: BackendFactory>(
    pool: &BackendPool<F>,
    trace: &[JobRecord],
    cfg: &TrainConfig,
    starts: &[i64],
) -> OfflineData
where
    F::Backend: Clone,
{
    let episode = &cfg.episode;
    let points = cfg.split_points.max(1) as i64;
    // Run 0 is reactive (never submits proactively); run j + 1 submits
    // once the predecessor's elapsed time passes (j+1)/(points+1) of its
    // limit.
    let mut thresholds: Vec<Option<i64>> = std::iter::once(None)
        .chain((1..=points).map(|j| Some(j * episode.pair_timelimit / (points + 1))))
        .collect();
    let runs = thresholds.len();
    let mut played = Vec::with_capacity(starts.len() * runs);
    let single = MultiServiceConfig::single(episode, RewardShaper::default());
    warm_once(
        &mut [pool.build_one()],
        starts,
        |t0| episode_window(trace, t0, episode),
        &single,
        &mut thresholds,
        |_, threshold, work| {
            work.set_record_decisions(true);
            let mut features = None;
            let result = work.play_single(|ctx| {
                let elapsed = episode.pair_timelimit - ctx.pred_remaining;
                if threshold.is_some_and(|th| ctx.pred_started && elapsed >= th) {
                    // A submit ends the decision loop: this is the first.
                    features = Some(extract_features(ctx));
                    Action::Submit
                } else {
                    Action::Wait
                }
            });
            played.push((result, features));
        },
    );

    let mut data = OfflineData::default();
    let mut best_per_start: std::collections::HashMap<i64, (f32, usize)> =
        std::collections::HashMap::new();
    // Reward-pool span of each task's decisions, so best runs can be
    // copied back out without keeping a second full set of matrices.
    let mut spans: Vec<(usize, usize)> = Vec::with_capacity(played.len());
    for (i, (mut result, features)) in played.into_iter().enumerate() {
        let reward = cfg.shaper.reward(&result.outcome);
        let offset = data.reward_samples.len();
        for (state, action) in result.take_decisions() {
            data.reward_samples.push(RewardSample {
                state,
                action,
                reward,
            });
        }
        spans.push((offset, data.reward_samples.len()));
        if let Some(features) = features {
            data.wait_samples
                .push((features, result.succ_wait() as f32 / 3600.0));
        }
        best_per_start
            .entry(starts[i / runs])
            .and_modify(|(best, idx)| {
                if reward > *best {
                    *best = reward;
                    *idx = i;
                }
            })
            .or_insert((reward, i));
    }
    let mut best: Vec<(i64, usize)> = best_per_start
        .into_iter()
        .map(|(t0, (_, idx))| (t0, idx))
        .collect();
    best.sort_unstable();
    for (_, idx) in best {
        let (lo, hi) = spans[idx];
        for s in &data.reward_samples[lo..hi] {
            data.best_run_decisions.push((s.state.clone(), s.action));
        }
    }
    data
}

/// Fits the Random Forest wait predictor on offline wait samples.
pub fn train_forest(data: &OfflineData, seed: u64) -> RandomForest {
    let (rows, ys): (Vec<Vec<f32>>, Vec<f32>) = data.wait_samples.iter().cloned().unzip();
    let ds = Dataset::from_rows(&rows, &ys);
    RandomForest::fit(
        &ds,
        &ForestConfig {
            n_trees: 60,
            seed,
            ..ForestConfig::default()
        },
    )
}

/// Fits the XGBoost-style wait predictor on offline wait samples.
pub fn train_gbdt(data: &OfflineData, seed: u64) -> GradientBoosting {
    let (rows, ys): (Vec<Vec<f32>>, Vec<f32>) = data.wait_samples.iter().cloned().unzip();
    let ds = Dataset::from_rows(&rows, &ys);
    GradientBoosting::fit(
        &ds,
        &GbdtConfig {
            n_rounds: 60,
            seed,
            ..GbdtConfig::default()
        },
    )
}

fn transformer_config(cfg: &TrainConfig) -> TransformerConfig {
    TransformerConfig {
        input_dim: STATE_VARS,
        seq_len: cfg.episode.history_k,
        d_model: cfg.d_model,
        heads: cfg.heads,
        layers: cfg.layers,
        ff_mult: 2,
    }
}

/// Builds and pretrains a dual-head network of the given foundation kind.
/// Panics with the [`TransformerConfigError`] message when `cfg`'s widths
/// cannot form an encoder — use [`try_build_pretrained_net`] to handle it
/// — and with [`TrainConfig::validate`]'s on a zero mini-batch size.
pub fn build_pretrained_net(
    kind: FoundationKind,
    cfg: &TrainConfig,
    data: &OfflineData,
) -> DualHeadNet {
    cfg.expect_valid("build_pretrained_net");
    try_build_pretrained_net(kind, cfg, data)
        .unwrap_or_else(|e| panic!("build_pretrained_net: {e}"))
}

/// [`build_pretrained_net`] with the config checked first: a zero or
/// indivisible `d_model` / `heads` / `history_k` in `cfg` is a typed
/// error here, before anything is built or trained. The mini-batch sizes
/// are the caller's to check ([`TrainConfig::validate`]).
pub fn try_build_pretrained_net(
    kind: FoundationKind,
    cfg: &TrainConfig,
    data: &OfflineData,
) -> Result<DualHeadNet, TransformerConfigError> {
    let mut net = DualHeadNet::try_new(DualHeadConfig {
        foundation: kind,
        transformer: transformer_config(cfg),
        action_encoding: ActionEncoding::TwoHead,
        freeze_foundation: false,
        seed: cfg.seed,
    })?;
    if !data.reward_samples.is_empty() {
        let stride = pretrain_stride(cfg, data.reward_samples.len());
        if stride > 1 {
            let sub: Vec<RewardSample> = data
                .reward_samples
                .iter()
                .step_by(stride)
                .cloned()
                .collect();
            pretrain_foundation(&mut net, &sub, &cfg.pretrain);
        } else {
            pretrain_foundation(&mut net, &data.reward_samples, &cfg.pretrain);
        }
    }
    Ok(net)
}

/// The stride of the subsample pretraining reads out of `n` reward
/// samples: 1 (all of them) up to `max_pretrain_samples`, above it a
/// deterministic stride that keeps episode diversity.
fn pretrain_stride(cfg: &TrainConfig, n: usize) -> usize {
    if n > cfg.max_pretrain_samples {
        n / cfg.max_pretrain_samples + 1
    } else {
        1
    }
}

/// [`build_pretrained_net`] through `data`'s memo: the first call for a
/// pretraining input pretrains, and every later one returns a clone,
/// bit-identical to pretraining again. Entries whose samples no longer
/// match `data` are dropped first, so the memo holds at most one net per
/// foundation and config.
fn shared_pretrained_net(
    kind: FoundationKind,
    cfg: &TrainConfig,
    data: &OfflineData,
) -> DualHeadNet {
    let key = PretrainKey::new(kind, cfg, data);
    // A panic while the lock is held (inside pretraining) leaves the memo
    // as it was: every update below is one whole `retain` or `push`.
    let mut memo = data
        .pretrained
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    memo.retain(|(k, _)| k.samples == key.samples);
    if let Some((_, net)) = memo.iter().find(|(k, _)| *k == key) {
        return net.clone();
    }
    let net = build_pretrained_net(kind, cfg, data);
    memo.push((key, net.clone()));
    net
}

/// The per-lane RNG seed of online-DQN training episode `i` (the seed
/// the pre-refactor sequential loop gave episode `i`'s RNG, kept so the
/// lockstep refactor is comparable run for run).
pub fn dqn_episode_seed(cfg_seed: u64, i: usize) -> u64 {
    cfg_seed ^ ((i as u64) << 3)
}

/// The per-lane RNG seed of online-PG training episode `i`.
pub fn pg_episode_seed(cfg_seed: u64, i: usize) -> u64 {
    cfg_seed ^ 0xBEEF ^ ((i as u64) << 4)
}

/// Lockstep episode collection over a [`BackendPool`]: chunks an episode
/// list into windows of at most `lanes`, builds one fresh pool backend
/// and one [`episode_window`] trace slice per lane, and steps each
/// window through a [`BatchedEpisodeDriver`].
pub struct BatchedCollector<'a, F: BackendFactory> {
    pool: &'a BackendPool<F>,
    trace: &'a [JobRecord],
    episode: &'a EpisodeConfig,
    lanes: usize,
}

impl<'a, F: BackendFactory> BatchedCollector<'a, F> {
    /// Collector stepping `lanes` episodes per lockstep window (clamped
    /// to at least 1).
    pub fn new(
        pool: &'a BackendPool<F>,
        trace: &'a [JobRecord],
        episode: &'a EpisodeConfig,
        lanes: usize,
    ) -> Self {
        Self {
            pool,
            trace,
            episode,
            lanes: lanes.max(1),
        }
    }

    /// Window width (episodes per lockstep window).
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Builds the lockstep driver for one window of episode starts: one
    /// fresh pool backend per lane (slots `0..t0s.len()`, from
    /// [`BackendPool::build_range`]) and one per-`t0` trace window per
    /// lane. Decision recording is on — the trajectories are the training
    /// data. Training loops step windows themselves, updating weights
    /// between them.
    pub fn window(&self, t0s: &[i64]) -> BatchedEpisodeDriver<F::Backend> {
        let windows: Vec<&[JobRecord]> = t0s
            .iter()
            .map(|&t0| episode_window(self.trace, t0, self.episode))
            .collect();
        BatchedEpisodeDriver::with_windows(
            self.pool.build_range(0, t0s.len()),
            windows,
            self.episode,
            t0s,
        )
    }
}

/// One algorithm of [`online_loop`]: acts for a window's lanes (as its
/// [`LanePolicy`]), learns from each finished episode, checkpoints itself.
trait OnlineLearner {
    /// Seeds one exploration lane per episode `first..first + n` of the
    /// next window.
    fn open_window(&mut self, seed: u64, first: usize, n: usize);
    /// Learns from one finished episode's decisions and reward.
    fn learn(&mut self, cfg: &TrainConfig, decisions: Vec<(Matrix, usize)>, reward: f32);
    /// Runs after the last window of a run that was not halted.
    fn finish(&mut self) {}
    /// This learner's sealed checkpoint of the run so far.
    fn checkpoint(&self, run: &RunShape, episodes: &[EpisodeResult]) -> Vec<u8>;
    /// Restores this learner from `path` once `run` accepts the
    /// checkpoint, returning its episode records.
    fn resume(&mut self, path: &Path, run: &RunShape) -> Result<Vec<EpisodeResult>, ResumeError>;
}

/// The run a checkpoint is written by and must match on resume.
struct RunShape {
    seed: u64,
    lanes: usize,
    episodes: usize,
    history_k: usize,
}

impl RunShape {
    /// Refuses a checkpoint of another run, in order: seed, collect lanes,
    /// train workers, episode counter, the shape of every stored state.
    /// The learner's agent import checks the network architecture last.
    fn check<'m>(
        &self,
        (seed, lanes, workers): (u64, u64, u64),
        done: usize,
        states: impl IntoIterator<Item = &'m Matrix>,
    ) -> Result<(), ResumeError> {
        check_match("seed", seed, self.seed)?;
        check_match("collect lanes", lanes, self.lanes as u64)?;
        check_match("train workers", workers, 1)?;
        if done > self.episodes {
            check_match("online episodes", done, self.episodes)?;
        }
        if !done.is_multiple_of(self.lanes) && done < self.episodes {
            return Err(ResumeError::ConfigMismatch {
                field: "episode counter (must sit on a chunk boundary)",
                saved: done.to_string(),
                current: format!("multiple of {}", self.lanes),
            });
        }
        let want = (self.history_k, STATE_VARS);
        let shape = |(k, vars): (usize, usize)| format!("{k} ({k}x{vars} states)");
        match states
            .into_iter()
            .map(|m| (m.rows(), m.cols()))
            .find(|s| *s != want)
        {
            Some(saved) => check_match("history_k", shape(saved), shape(want)),
            None => Ok(()),
        }
    }
}

/// The online-training loop (§4.9.2): cycles `starts` up to
/// `cfg.online_episodes` in lockstep windows, hands `learner` each finished
/// episode in order and checkpoints at chunk boundaries. Returns the
/// learner, the episode records and whether `halt_after` stopped the run.
fn online_loop<F: BackendFactory, L: OnlineLearner + LanePolicy<F::Backend>>(
    mut learner: L,
    pool: &BackendPool<F>,
    trace: &[JobRecord],
    cfg: &TrainConfig,
    starts: &[i64],
    ckpt: Option<&CheckpointConfig>,
    resume_from: Option<&Path>,
) -> Result<(L, Vec<EpisodeResult>, bool), ResumeError> {
    cfg.validate().map_err(ResumeError::InvalidConfig)?;
    let t0s = Vec::from_iter(starts.iter().copied().cycle().take(cfg.online_episodes));
    let width = cfg.collect_lanes_for(pool.workers());
    let collector = BatchedCollector::new(pool, trace, &cfg.episode, width);
    let run = RunShape {
        seed: cfg.seed,
        lanes: width,
        episodes: t0s.len(),
        history_k: cfg.episode.history_k,
    };
    let mut episodes = match resume_from {
        Some(path) => learner.resume(path, &run)?,
        None => Vec::with_capacity(t0s.len()),
    };
    let done = episodes.len();
    let mut last_saved = done;
    for (c, chunk) in t0s.chunks(width).enumerate() {
        if c * width + chunk.len() <= done {
            // Replayed from the checkpoint: the restored learner and
            // episode records already contain this chunk.
            continue;
        }
        learner.open_window(cfg.seed, episodes.len(), chunk.len());
        let mut driver = collector.window(chunk);
        driver.run_lanes(&mut learner);
        for mut result in driver.finish().0 {
            let reward = cfg.shaper.reward(&result.outcome);
            learner.learn(cfg, result.take_decisions(), reward);
            episodes.push(result);
        }
        if let Some(c) = ckpt {
            let at = episodes.len();
            let halt = c.halt_after.is_some_and(|h| at >= h);
            if halt || (c.every_episodes > 0 && at - last_saved >= c.every_episodes) {
                write_atomic(&c.path, &learner.checkpoint(&run, &episodes))?;
                last_saved = at;
            }
            if halt {
                return Ok((learner, episodes, true));
            }
        }
    }
    learner.finish();
    Ok((learner, episodes, false))
}

/// DQN fine-tuning (§4.9.2a): ε-greedy acting through one
/// [`DqnAgent::act_batch`] forward per tick, every decision into the
/// class-balanced replay with its episode's reward, then the episode's
/// mini-batch updates.
struct DqnLearner {
    agent: DqnAgent,
    replay: BalancedReplay,
    /// Replay-sampling stream.
    rng: StdRng,
    /// Refilled in place per update: steady-state updates allocate nothing.
    mb: MiniBatch,
    lanes: Vec<ExploreLane>,
}

impl<B: ClusterBackend> LanePolicy<B> for DqnLearner {
    fn decide_lanes(&mut self, driver: &BatchedEpisodeDriver<B>, actions: &mut Vec<usize>) {
        let (states, pending) = (driver.batch_states(), driver.pending());
        self.agent
            .act_batch(states, &mut self.lanes, pending, actions);
    }
}

impl OnlineLearner for DqnLearner {
    fn open_window(&mut self, seed: u64, first: usize, n: usize) {
        // Lane i resumes the agent's global ε clock and owns the RNG
        // stream its episode ordinal has always had. (This also makes
        // chunk-boundary checkpoints complete: lane streams are derived
        // from the saved ε clock and episode counter, never stored.)
        let steps = self.agent.steps;
        self.lanes.clear();
        self.lanes.extend(
            (first..first + n).map(|i| ExploreLane::seeded(dqn_episode_seed(seed, i), steps)),
        );
    }

    fn learn(&mut self, cfg: &TrainConfig, decisions: Vec<(Matrix, usize)>, reward: f32) {
        self.agent.steps += decisions.len() as u64;
        for (state, action) in decisions {
            self.replay
                .push(Experience::terminal(state, action, reward));
        }
        if self.replay.len() >= cfg.batch_size {
            for _ in 0..cfg.updates_per_episode {
                self.replay
                    .sample_minibatch(&mut self.rng, cfg.batch_size, &mut self.mb);
                self.agent.train_minibatch(&self.mb);
            }
        }
    }

    fn checkpoint(&self, run: &RunShape, episodes: &[EpisodeResult]) -> Vec<u8> {
        let (wc, ww, wb) = self.replay.wait().raw_parts();
        let (sc, sw, sb) = self.replay.submit().raw_parts();
        DqnTrainCheckpoint {
            cfg_seed: run.seed,
            lanes: run.lanes as u64,
            workers: 1,
            agent: self.agent.export_state(),
            replay_wait: (wc as u64, ww as u64, wb.to_vec()),
            replay_submit: (sc as u64, sw as u64, sb.to_vec()),
            rng: self.rng.state(),
            episodes: episodes.to_vec(),
        }
        .to_bytes()
    }

    fn resume(&mut self, path: &Path, run: &RunShape) -> Result<Vec<EpisodeResult>, ResumeError> {
        let mut saved = DqnTrainCheckpoint::load(path)?;
        let rings = saved.replay_wait.2.iter().chain(&saved.replay_submit.2);
        run.check(
            (saved.cfg_seed, saved.lanes, saved.workers),
            saved.episodes.len(),
            rings.map(|e| &e.state),
        )?;
        let (wait, submit) = saved.take_replay();
        self.replay = BalancedReplay::from_buffers(wait, submit);
        self.rng = StdRng::from_state(saved.rng);
        self.agent.import_state(saved.agent)?;
        Ok(saved.episodes)
    }
}

/// Online DQN fine-tuning (§4.9.2a): ε-greedy episodes collected in
/// lockstep windows of `cfg.collect_lanes` (one batched forward per
/// decision tick); each episode's decisions enter the class-balanced
/// replay pool with the delayed episode reward, followed by that
/// episode's mini-batch updates — the sequential loop's exact cadence,
/// with acting inside a window pinned to the window-start weights.
pub fn train_dqn_online<F: BackendFactory>(
    net: DualHeadNet,
    pool: &BackendPool<F>,
    trace: &[JobRecord],
    cfg: &TrainConfig,
    starts: &[i64],
    warm_start: &OfflineData,
) -> DqnAgent {
    train_dqn_online_traced(net, pool, trace, cfg, starts, warm_start).0
}

/// [`train_dqn_online`] additionally returning the replay pool and the
/// per-episode records (decision trajectories already moved into the
/// replay, so their `decisions` are empty) — the inspection surface the
/// lockstep identity property tests pin this refactor with.
pub fn train_dqn_online_traced<F: BackendFactory>(
    net: DualHeadNet,
    pool: &BackendPool<F>,
    trace: &[JobRecord],
    cfg: &TrainConfig,
    starts: &[i64],
    warm_start: &OfflineData,
) -> (DqnAgent, BalancedReplay, Vec<EpisodeResult>) {
    let learner = dqn_learner(net, cfg, warm_start);
    let (l, episodes, _) = online_loop(learner, pool, trace, cfg, starts, None, None)
        .unwrap_or_else(|e| panic!("online DQN training: {e}"));
    (l.agent, l.replay, episodes)
}

/// A (possibly halted) checkpointed DQN training run.
#[derive(Debug)]
pub struct DqnTrainRun {
    /// The trained (or mid-training, if halted) agent.
    pub agent: DqnAgent,
    /// The replay pool as of the last episode run.
    pub replay: BalancedReplay,
    /// Per-episode records (decisions drained into the replay).
    pub episodes: Vec<EpisodeResult>,
    /// Whether [`CheckpointConfig::halt_after`] stopped the run early
    /// (right after writing a checkpoint at a chunk boundary).
    pub halted: bool,
}

/// [`train_dqn_online`] with crash-safe checkpointing: full training
/// state — weights, Adam moments, both replay rings, the replay-sampling
/// RNG, the global ε clock and the episode counter — is snapshotted to
/// `ckpt.path` at chunk boundaries on the `ckpt.every_episodes` cadence. Pass `resume_from` to continue an
/// interrupted run: the resumed run is **bit-identical** to the
/// uninterrupted one (weights, replay contents, episode outcomes), as
/// pinned by `tests/crash_resume.rs`. An invalid `cfg` is
/// [`ResumeError::InvalidConfig`], returned before anything runs.
#[allow(clippy::too_many_arguments)]
pub fn train_dqn_online_checkpointed<F: BackendFactory>(
    net: DualHeadNet,
    pool: &BackendPool<F>,
    trace: &[JobRecord],
    cfg: &TrainConfig,
    starts: &[i64],
    warm_start: &OfflineData,
    ckpt: &CheckpointConfig,
    resume_from: Option<&Path>,
) -> Result<DqnTrainRun, ResumeError> {
    let learner = dqn_learner(net, cfg, warm_start);
    let (l, episodes, halted) =
        online_loop(learner, pool, trace, cfg, starts, Some(ckpt), resume_from)?;
    Ok(DqnTrainRun {
        agent: l.agent,
        replay: l.replay,
        episodes,
        halted,
    })
}

/// A fresh DQN learner, its replay warm-started with `warm_start`.
fn dqn_learner(net: DualHeadNet, cfg: &TrainConfig, warm_start: &OfflineData) -> DqnLearner {
    let mut replay = BalancedReplay::new(8192, 4096);
    for s in &warm_start.reward_samples {
        replay.push(Experience::terminal(s.state.clone(), s.action, s.reward));
    }
    DqnLearner {
        agent: DqnAgent::new(net, cfg.dqn),
        replay,
        rng: StdRng::seed_from_u64(cfg.seed ^ 0xD9),
        mb: MiniBatch::new(),
        lanes: Vec::new(),
    }
}

/// Warm-starts the P-head (and shared foundation) by behavior-cloning the
/// best-reward offline run of each training episode: cross-entropy between
/// the P-head's softmax and the demonstrated submit/no-submit decisions.
/// REINFORCE then fine-tunes from a sensible policy instead of noise.
///
/// Each mini-batch is one row-stacked forward/backward through the P-head
/// into a retained `Grads` (fused sink), bit-identical to the test-only
/// per-sample oracle.
pub fn behavior_clone(
    net: &mut DualHeadNet,
    samples: &[(mirage_nn::Matrix, usize)],
    epochs: usize,
    lr: f32,
    seed: u64,
) {
    use mirage_nn::loss::softmax_cross_entropy;
    use mirage_nn::{GradSink, Scratch};
    use mirage_rl::dualhead::stack_states_into;

    let mut scratch = Scratch::new();
    let mut cache = HeadBatchCache::default();
    fit_behavior_clone(
        net,
        samples,
        epochs,
        lr,
        seed,
        |net, chunk, class_w, grads| {
            let mut states = scratch.take(0, 0);
            let n = stack_states_into(chunk.iter().map(|&i| &samples[i].0), &mut states);
            let mut logits = scratch.take(n, 2);
            net.p_forward_batch_train(&states, n, &mut logits, &mut cache, &mut scratch);
            let mut d_logits = scratch.take(n, 2);
            let mut row = scratch.take(1, 2);
            let mut loss_sum = 0.0f32;
            for (b, &i) in chunk.iter().enumerate() {
                let action = samples[i].1;
                row.row_mut(0).copy_from_slice(logits.row(b));
                let (loss, d) = softmax_cross_entropy(&row, action);
                let d = d.scale(class_w[action]);
                d_logits.row_mut(b).copy_from_slice(d.row(0));
                loss_sum += loss;
            }
            let mut sink = GradSink::Fused(grads);
            net.p_backward_batch(&mut cache, &states, &d_logits, n, &mut sink, &mut scratch);
            scratch.give(row);
            scratch.give(d_logits);
            scratch.give(logits);
            scratch.give(states);
            loss_sum
        },
    );
}

/// The behaviour-cloning fit around a chunk-gradient body: balances the
/// two classes, then runs `fit_minibatches` in chunks of 32, handing
/// `chunk_grads` each chunk and the per-class loss weights.
fn fit_behavior_clone(
    net: &mut DualHeadNet,
    samples: &[(mirage_nn::Matrix, usize)],
    epochs: usize,
    lr: f32,
    seed: u64,
    mut chunk_grads: impl FnMut(&DualHeadNet, &[usize], &[f32; 2], &mut mirage_nn::Grads) -> f32,
) {
    if samples.is_empty() {
        return;
    }
    // Submit decisions are ~1-in-50 (one per episode): balance the classes
    // or the clone degenerates to "always wait".
    let n = samples.len() as f32;
    let n_submit = samples.iter().filter(|(_, a)| *a == 1).count() as f32;
    let n_wait = n - n_submit;
    let class_w = [
        if n_wait > 0.0 {
            n / (2.0 * n_wait)
        } else {
            0.0
        },
        if n_submit > 0.0 {
            n / (2.0 * n_submit)
        } else {
            0.0
        },
    ];
    let fit = PretrainConfig {
        epochs,
        batch_size: 32,
        lr,
        seed,
        grad_clip: 5.0,
    };
    mirage_rl::offline::fit_minibatches(net, samples.len(), &fit, |net, chunk, grads| {
        chunk_grads(net, chunk, &class_w, grads)
    });
}

/// PG fine-tuning (§4.9.2b): stochastic acting through one
/// [`PgAgent::act_sample_batch`] forward per tick, and a REINFORCE update
/// per batch of [`PG_UPDATE_BATCH`] episodes.
struct PgLearner {
    agent: PgAgent,
    /// Collected episodes not yet folded into an update.
    pending: Vec<EpisodeSample>,
    lanes: Vec<ExploreLane>,
}

const PG_UPDATE_BATCH: usize = 4;

impl<B: ClusterBackend> LanePolicy<B> for PgLearner {
    fn decide_lanes(&mut self, driver: &BatchedEpisodeDriver<B>, actions: &mut Vec<usize>) {
        let (states, pending) = (driver.batch_states(), driver.pending());
        self.agent
            .act_sample_batch(states, &mut self.lanes, pending, actions);
    }
}

impl OnlineLearner for PgLearner {
    fn open_window(&mut self, seed: u64, first: usize, n: usize) {
        self.lanes.clear();
        self.lanes
            .extend((first..first + n).map(|i| ExploreLane::seeded(pg_episode_seed(seed, i), 0)));
    }

    fn learn(&mut self, _: &TrainConfig, decisions: Vec<(Matrix, usize)>, reward: f32) {
        self.pending.push(EpisodeSample {
            steps: decisions,
            episode_return: reward,
        });
        if self.pending.len() >= PG_UPDATE_BATCH {
            self.agent.train_episodes(&self.pending);
            self.pending.clear();
        }
    }

    fn finish(&mut self) {
        if !self.pending.is_empty() {
            self.agent.train_episodes(&self.pending);
        }
    }

    fn checkpoint(&self, run: &RunShape, episodes: &[EpisodeResult]) -> Vec<u8> {
        PgTrainCheckpoint {
            cfg_seed: run.seed,
            lanes: run.lanes as u64,
            workers: 1,
            agent: self.agent.export_state(),
            pending: self.pending.clone(),
            episodes: episodes.to_vec(),
        }
        .to_bytes()
    }

    fn resume(&mut self, path: &Path, run: &RunShape) -> Result<Vec<EpisodeResult>, ResumeError> {
        let saved = PgTrainCheckpoint::load(path)?;
        let steps = saved.pending.iter().flat_map(|s| &s.steps);
        run.check(
            (saved.cfg_seed, saved.lanes, saved.workers),
            saved.episodes.len(),
            steps.map(|(state, _)| state),
        )?;
        self.agent.import_state(saved.agent)?;
        self.pending = saved.pending;
        Ok(saved.episodes)
    }
}

/// Online PG fine-tuning (§4.9.2b): Monte-Carlo rollouts under the
/// current stochastic policy, collected in lockstep windows of
/// `cfg.collect_lanes` (one batched `p_probs_batch` forward per decision
/// tick), REINFORCE update per small batch of episodes. With
/// `collect_lanes = Some(4)` — the REINFORCE batch — this is *globally*
/// bit-identical to the sequential loop it replaced: the sequential loop
/// also acted every group of four episodes on the same post-update
/// weights.
pub fn train_pg_online<F: BackendFactory>(
    net: DualHeadNet,
    pool: &BackendPool<F>,
    trace: &[JobRecord],
    cfg: &TrainConfig,
    starts: &[i64],
) -> PgAgent {
    train_pg_online_traced(net, pool, trace, cfg, starts).0
}

/// [`train_pg_online`] additionally returning the per-episode records
/// (decision trajectories moved into the REINFORCE samples, so their
/// `decisions` are empty) — the lockstep identity tests' surface.
pub fn train_pg_online_traced<F: BackendFactory>(
    net: DualHeadNet,
    pool: &BackendPool<F>,
    trace: &[JobRecord],
    cfg: &TrainConfig,
    starts: &[i64],
) -> (PgAgent, Vec<EpisodeResult>) {
    let (l, episodes, _) = online_loop(pg_learner(net, cfg), pool, trace, cfg, starts, None, None)
        .unwrap_or_else(|e| panic!("online PG training: {e}"));
    (l.agent, episodes)
}

/// A (possibly halted) checkpointed PG training run.
#[derive(Debug)]
pub struct PgTrainRun {
    /// The trained (or mid-training, if halted) agent.
    pub agent: PgAgent,
    /// Per-episode records (decisions drained into REINFORCE samples).
    pub episodes: Vec<EpisodeResult>,
    /// Whether [`CheckpointConfig::halt_after`] stopped the run early.
    pub halted: bool,
}

/// [`train_pg_online`] with crash-safe checkpointing: weights, Adam
/// moments, the EMA baseline, the not-yet-trained pending REINFORCE
/// batch and the episode counter are snapshotted to `ckpt.path` at
/// chunk boundaries. Pass `resume_from` to continue an interrupted run
/// bit-identically (see `tests/crash_resume.rs`). An invalid `cfg` is
/// [`ResumeError::InvalidConfig`], returned before anything runs.
pub fn train_pg_online_checkpointed<F: BackendFactory>(
    net: DualHeadNet,
    pool: &BackendPool<F>,
    trace: &[JobRecord],
    cfg: &TrainConfig,
    starts: &[i64],
    ckpt: &CheckpointConfig,
    resume_from: Option<&Path>,
) -> Result<PgTrainRun, ResumeError> {
    let learner = pg_learner(net, cfg);
    let (l, episodes, halted) =
        online_loop(learner, pool, trace, cfg, starts, Some(ckpt), resume_from)?;
    Ok(PgTrainRun {
        agent: l.agent,
        episodes,
        halted,
    })
}

fn pg_learner(net: DualHeadNet, cfg: &TrainConfig) -> PgLearner {
    PgLearner {
        agent: PgAgent::new(net, cfg.pg),
        pending: Vec::with_capacity(PG_UPDATE_BATCH),
        lanes: Vec::new(),
    }
}

/// Trains one §6 method end to end and returns it as a policy. For the
/// heuristics this is free; for the ensembles it fits on the offline wait
/// samples; for the RL methods it takes the pretrained foundation and
/// fine-tunes online in lockstep windows against `pool`-built backends
/// (any [`BackendFactory`] — the same pool offline collection builds on).
///
/// There is one pretrained foundation per kind, shared by the V-head and
/// P-head methods (§4.9.1): the first of `TransformerDqn` /
/// `TransformerPg` (or `MoeDqn` / `MoePg`) to run on `data` pretrains it,
/// and the other starts from a clone — the net an uncached
/// [`build_pretrained_net`] would have built, bit for bit.
pub fn train_method<F: BackendFactory>(
    kind: MethodKind,
    pool: &BackendPool<F>,
    trace: &[JobRecord],
    cfg: &TrainConfig,
    data: &OfflineData,
    train_range: (i64, i64),
) -> Box<dyn ProvisionPolicy> {
    cfg.expect_valid("train_method");
    // Partition size for congestion-biased start sampling; only the RL
    // methods need it, and probing it costs one throwaway backend.
    let nodes = || pool.build_one().total_nodes();
    let foundation = if matches!(kind, MethodKind::MoeDqn | MethodKind::MoePg) {
        FoundationKind::MoE {
            experts: cfg.moe_experts,
        }
    } else {
        FoundationKind::Transformer
    };
    match kind {
        MethodKind::Reactive => Box::new(ReactivePolicy),
        MethodKind::AvgHeuristic => Box::new(AvgWaitPolicy::default()),
        MethodKind::RandomForest => Box::new(WaitPredictorPolicy::new(WaitModel::Forest(
            train_forest(data, cfg.seed),
        ))),
        MethodKind::Xgboost => Box::new(WaitPredictorPolicy::new(WaitModel::Gbdt(train_gbdt(
            data, cfg.seed,
        )))),
        MethodKind::TransformerDqn | MethodKind::MoeDqn => {
            let net = shared_pretrained_net(foundation, cfg, data);
            let starts = sample_training_starts(
                trace,
                nodes(),
                train_range.0,
                train_range.1,
                &cfg.episode,
                cfg.online_episodes.max(1),
                cfg.seed ^ 0x51,
            );
            let agent = train_dqn_online(net, pool, trace, cfg, &starts, data);
            Box::new(DqnPolicy {
                agent,
                label: kind.label().into(),
            })
        }
        MethodKind::TransformerPg | MethodKind::MoePg => {
            let mut net = shared_pretrained_net(foundation, cfg, data);
            behavior_clone(
                &mut net,
                &data.best_run_decisions,
                cfg.pretrain.epochs + 4,
                cfg.pretrain.lr,
                cfg.seed ^ 0x77,
            );
            let starts = sample_training_starts(
                trace,
                nodes(),
                train_range.0,
                train_range.1,
                &cfg.episode,
                cfg.online_episodes.max(1),
                cfg.seed ^ 0x52,
            );
            let agent = train_pg_online(net, pool, trace, cfg, &starts);
            Box::new(PgPolicy::new(agent, kind.label(), cfg.seed ^ 0x53))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirage_sim::{BackendKind, SimConfig};
    use mirage_trace::{HOUR, MINUTE};

    /// The per-sample oracle [`behavior_clone`] is held to: one isolated
    /// P-head gradient per demonstration, merged in chunk order.
    fn behavior_clone_per_sample(
        net: &mut DualHeadNet,
        samples: &[(mirage_nn::Matrix, usize)],
        epochs: usize,
        lr: f32,
        seed: u64,
    ) {
        use mirage_nn::loss::softmax_cross_entropy;
        let mut sample_grads = mirage_nn::Grads::new(&net.ps);
        fit_behavior_clone(
            net,
            samples,
            epochs,
            lr,
            seed,
            |net, chunk, class_w, grads| {
                let mut loss_sum = 0.0f32;
                for &i in chunk {
                    let (state, action) = &samples[i];
                    let (logits, cache) = net.p_forward(state);
                    let (loss, d_logits) = softmax_cross_entropy(&logits, *action);
                    let d_logits = d_logits.scale(class_w[*action]);
                    sample_grads.reset();
                    net.p_backward(&cache, &d_logits, &mut sample_grads);
                    grads.merge_ref(&sample_grads);
                    loss_sum += loss;
                }
                loss_sum
            },
        );
    }

    fn pool4() -> BackendPool<mirage_sim::SimBuilder> {
        SimConfig::builder()
            .nodes(4)
            .backend(BackendKind::Pooled { workers: 4 })
            .build_pool()
    }

    fn tiny_cfg() -> TrainConfig {
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
            offline_episodes: 3,
            split_points: 3,
            online_episodes: 2,
            d_model: 8,
            heads: 2,
            layers: 1,
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

    #[test]
    fn start_sampling_respects_bounds() {
        let cfg = tiny_cfg();
        let starts = sample_episode_starts(0, 20 * DAY, &cfg.episode, 10, 1);
        assert_eq!(starts.len(), 10);
        for &s in &starts {
            assert!(s >= cfg.episode.warmup);
            assert!(s < 20 * DAY);
        }
        assert!(starts.windows(2).all(|w| w[0] <= w[1]), "sorted");
    }

    #[test]
    fn window_slices_by_submit_time() {
        let cfg = tiny_cfg();
        let trace = bg_trace(30);
        let w = episode_window(&trace, 10 * DAY, &cfg.episode);
        assert!(!w.is_empty());
        assert!(w.iter().all(|j| j.submit >= 9 * DAY));
        assert!(w.len() < trace.len());
    }

    #[test]
    fn offline_collection_produces_both_pools() {
        let cfg = tiny_cfg();
        let trace = bg_trace(12);
        let starts = sample_episode_starts(0, 12 * DAY, &cfg.episode, cfg.offline_episodes, 2);
        let data = collect_offline(&pool4(), &trace, &cfg, &starts);
        assert!(!data.reward_samples.is_empty(), "reward pool empty");
        assert!(!data.wait_samples.is_empty(), "wait pool empty");
        // Eq 8: every decision of an episode shares the episode reward —
        // rewards are ≤ 0 (negative penalties).
        assert!(data.reward_samples.iter().all(|s| s.reward <= 0.0));
        // Scheduled runs must contain submit actions.
        assert!(data.reward_samples.iter().any(|s| s.action == 1));
        assert!(data.reward_samples.iter().any(|s| s.action == 0));
        // Wait targets are non-negative hours.
        assert!(data.wait_samples.iter().all(|(_, w)| *w >= 0.0));
    }

    #[test]
    fn heuristic_methods_need_no_data() {
        let cfg = tiny_cfg();
        let data = OfflineData::default();
        let pool = pool4();
        let p = train_method(MethodKind::Reactive, &pool, &[], &cfg, &data, (0, DAY));
        assert_eq!(p.name(), "reactive");
        let p = train_method(MethodKind::AvgHeuristic, &pool, &[], &cfg, &data, (0, DAY));
        assert_eq!(p.name(), "avg");
    }

    #[test]
    fn ensemble_training_runs_end_to_end() {
        let cfg = tiny_cfg();
        let trace = bg_trace(12);
        let starts = sample_episode_starts(0, 12 * DAY, &cfg.episode, 2, 3);
        let data = collect_offline(&pool4(), &trace, &cfg, &starts);
        let forest = train_forest(&data, 0);
        assert!(forest.n_trees() > 0);
        let gbdt = train_gbdt(&data, 0);
        assert!(gbdt.n_trees() > 0);
    }

    #[test]
    fn rl_training_runs_end_to_end() {
        let cfg = tiny_cfg();
        let trace = bg_trace(14);
        let starts = sample_episode_starts(0, 14 * DAY, &cfg.episode, 2, 4);
        let pool = pool4();
        let data = collect_offline(&pool, &trace, &cfg, &starts);
        let p = train_method(
            MethodKind::TransformerDqn,
            &pool,
            &trace,
            &cfg,
            &data,
            (0, 14 * DAY),
        );
        assert_eq!(p.name(), "transformer+DQN");
        let p = train_method(
            MethodKind::TransformerPg,
            &pool,
            &trace,
            &cfg,
            &data,
            (0, 14 * DAY),
        );
        assert_eq!(p.name(), "transformer+PG");
    }

    #[test]
    fn bad_widths_are_a_typed_error_before_any_training() {
        let data = OfflineData::default();
        let indivisible = TrainConfig {
            d_model: 10,
            heads: 4,
            ..tiny_cfg()
        };
        assert_eq!(
            try_build_pretrained_net(FoundationKind::Transformer, &indivisible, &data).err(),
            Some(TransformerConfigError::HeadsDoNotDivide {
                d_model: 10,
                heads: 4
            })
        );
        let no_heads = TrainConfig {
            heads: 0,
            ..tiny_cfg()
        };
        assert_eq!(
            try_build_pretrained_net(FoundationKind::MoE { experts: 2 }, &no_heads, &data).err(),
            Some(TransformerConfigError::Zero { field: "heads" })
        );
        assert!(try_build_pretrained_net(FoundationKind::Transformer, &tiny_cfg(), &data).is_ok());
    }

    #[test]
    fn a_zero_mini_batch_size_is_a_typed_error_naming_the_field() {
        assert_eq!(TrainConfig::default().validate(), Ok(()));
        assert_eq!(tiny_cfg().validate(), Ok(()));
        let mut cfg = tiny_cfg();
        cfg.batch_size = 0;
        assert_eq!(cfg.validate().unwrap_err().field, "batch_size");
        let mut cfg = tiny_cfg();
        cfg.pretrain.batch_size = 0;
        assert_eq!(cfg.validate().unwrap_err().field, "pretrain.batch_size");
        let mut cfg = tiny_cfg();
        cfg.updates_per_episode = 0;
        assert_eq!(cfg.validate().unwrap_err().field, "updates_per_episode");
    }

    #[test]
    fn zero_moe_experts_is_a_typed_error_naming_the_field() {
        let cfg = TrainConfig {
            moe_experts: 0,
            ..tiny_cfg()
        };
        let err = cfg.validate().unwrap_err();
        assert_eq!(
            (err.field.as_str(), err.value.as_str()),
            ("moe_experts", "0")
        );
        let zero = FoundationKind::MoE { experts: 0 };
        assert_eq!(
            try_build_pretrained_net(zero, &tiny_cfg(), &OfflineData::default()).err(),
            Some(TransformerConfigError::Zero { field: "experts" })
        );
    }

    #[test]
    fn the_dqn_and_pg_methods_of_one_foundation_pretrain_once() {
        // A cap below the pool size, so pretraining reads a strided
        // subsample.
        let cfg = TrainConfig {
            max_pretrain_samples: 16,
            ..tiny_cfg()
        };
        let trace = bg_trace(14);
        let starts = sample_episode_starts(0, 14 * DAY, &cfg.episode, 2, 4);
        let pool = pool4();
        let mut data = collect_offline(&pool, &trace, &cfg, &starts);
        assert!(data.reward_samples.len() > cfg.max_pretrain_samples);
        let moe = FoundationKind::MoE {
            experts: cfg.moe_experts,
        };
        let bits = |net: &DualHeadNet| {
            net.ps
                .iter()
                .flat_map(|(_, m)| m.data().iter().map(|v| v.to_bits()))
                .collect::<Vec<u32>>()
        };
        let memo = |data: &OfflineData| {
            let memo = data.pretrained.lock().unwrap();
            memo.iter().map(|(_, net)| bits(net)).collect::<Vec<_>>()
        };
        let uncached = bits(&build_pretrained_net(moe, &cfg, &data));
        // The transformer's entry must not answer for the MoE.
        let transformer = bits(&shared_pretrained_net(
            FoundationKind::Transformer,
            &cfg,
            &data,
        ));

        // Both MoE methods, one pretraining: the DQN arm adds the
        // uncached net to the memo, and the PG arm adds nothing.
        for kind in [MethodKind::MoeDqn, MethodKind::MoePg] {
            train_method(kind, &pool, &trace, &cfg, &data, (0, 14 * DAY));
            let want = vec![transformer.clone(), uncached.clone()];
            assert_eq!(memo(&data), want, "after {kind:?}");
        }
        // A hit is the memo's copy, not a second pretraining.
        data.pretrained.lock().unwrap()[1]
            .1
            .ps
            .get_mut(mirage_nn::ParamId(0))
            .data_mut()[0] = 123.0;
        let hit = shared_pretrained_net(moe, &cfg, &data);
        assert_eq!(hit.ps.get(mirage_nn::ParamId(0)).get(0, 0), 123.0);

        // Sample 0 is in every strided subsample: editing its reward
        // makes the next call pretrain afresh, on the edited data, and
        // drops both stale entries.
        data.reward_samples[0].reward -= 1.0;
        let fresh = bits(&shared_pretrained_net(moe, &cfg, &data));
        let edited = bits(&build_pretrained_net(moe, &cfg, &data));
        assert_eq!(fresh, edited);
        assert_ne!(fresh, uncached);
        assert_eq!(memo(&data), vec![edited]);
    }

    #[test]
    fn more_than_one_train_worker_is_a_typed_error_naming_the_field() {
        for workers in [0, 1] {
            let cfg = TrainConfig {
                train_workers: workers,
                ..tiny_cfg()
            };
            assert_eq!(cfg.validate(), Ok(()), "{workers} means one worker");
        }
        let cfg = TrainConfig {
            train_workers: 2,
            ..tiny_cfg()
        };
        let err = cfg.validate().unwrap_err();
        assert_eq!(
            (err.field.as_str(), err.value.as_str()),
            ("train_workers", "2")
        );
    }

    #[test]
    #[should_panic(expected = "invalid episode config: batch_size = 0")]
    fn online_dqn_rejects_a_zero_batch_size_before_collecting() {
        let cfg = TrainConfig {
            batch_size: 0,
            ..tiny_cfg()
        };
        let data = OfflineData::default();
        let net = try_build_pretrained_net(FoundationKind::Transformer, &cfg, &data).unwrap();
        let trace = bg_trace(14);
        let starts = sample_episode_starts(0, 14 * DAY, &cfg.episode, 2, 4);
        train_dqn_online_traced(net, &pool4(), &trace, &cfg, &starts, &data);
    }

    #[test]
    fn batched_behavior_cloning_ends_on_the_per_sample_weights() {
        // 70 demonstrations (one submit in ten): two full mini-batches
        // and a remainder of 6 per epoch.
        let mut rng = StdRng::seed_from_u64(5);
        let samples: Vec<(mirage_nn::Matrix, usize)> = (0..70)
            .map(|i| {
                let state = mirage_nn::Matrix::from_fn(3, 5, |_, _| rng.gen_range(-1.0f32..1.0));
                (state, usize::from(i % 10 == 0))
            })
            .collect();
        for kind in [
            FoundationKind::Transformer,
            FoundationKind::MoE { experts: 2 },
        ] {
            let mut batched = DualHeadNet::new(DualHeadConfig {
                foundation: kind,
                transformer: TransformerConfig {
                    input_dim: 5,
                    seq_len: 3,
                    d_model: 8,
                    heads: 2,
                    layers: 1,
                    ff_mult: 2,
                },
                action_encoding: ActionEncoding::TwoHead,
                freeze_foundation: false,
                seed: 6,
            });
            let mut oracle = batched.clone();
            behavior_clone(&mut batched, &samples, 3, 3e-3, 7);
            behavior_clone_per_sample(&mut oracle, &samples, 3, 3e-3, 7);
            for ((_, a), (_, b)) in batched.ps.iter().zip(oracle.ps.iter()) {
                let bits = |m: &mirage_nn::Matrix| {
                    m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                };
                assert_eq!(bits(a), bits(b), "{kind:?}");
            }
        }
    }

    #[test]
    fn collect_lanes_auto_sizes_to_the_pool() {
        let auto = TrainConfig::default();
        assert_eq!(auto.collect_lanes, None);
        // The default shape's hot per-lane state is
        // (12·46 + 16)·4 B = 2272 B → 14 lanes fit the 32 KiB budget
        // (the hetero widening of STATE_VARS from 42 to 46 cost one lane:
        // at 42 vars a lane was 2080 B and 15 fit).
        assert_eq!(auto.l1_lane_cap(), 14);
        // None tracks the pool width up to the L1-residency cap.
        assert_eq!(auto.collect_lanes_for(1), 1);
        assert_eq!(auto.collect_lanes_for(6), 6);
        assert_eq!(auto.collect_lanes_for(32), auto.l1_lane_cap());
        // A degenerate zero-width pool still yields one lane.
        assert_eq!(auto.collect_lanes_for(0), 1);
        // The probe is config-derived (deterministic), clamped to [2, 16]:
        // a huge model cannot auto-size below two lanes, and a tiny one
        // cannot blow past the staleness-bounded ceiling.
        let huge = TrainConfig {
            d_model: 64 * 1024,
            ..TrainConfig::default()
        };
        assert_eq!(huge.l1_lane_cap(), 2);
        let tiny = TrainConfig {
            episode: EpisodeConfig {
                history_k: 4,
                ..EpisodeConfig::default()
            },
            d_model: 8,
            ..TrainConfig::default()
        };
        assert_eq!(tiny.l1_lane_cap(), 16);
        // Explicit overrides win, whatever the pool looks like.
        let pinned = TrainConfig {
            collect_lanes: Some(3),
            ..TrainConfig::default()
        };
        assert_eq!(pinned.collect_lanes_for(1), 3);
        assert_eq!(pinned.collect_lanes_for(32), 3);
        let zero = TrainConfig {
            collect_lanes: Some(0),
            ..TrainConfig::default()
        };
        assert_eq!(zero.collect_lanes_for(4), 1);
    }
}
