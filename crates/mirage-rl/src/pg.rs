//! Policy-gradient (REINFORCE) agent (§2.3, §4.9 of the paper).
//!
//! The P-head outputs a softmax over {no-submit, submit}; actions are
//! sampled from it ("non-deterministic policy", §4.4). Training follows
//! Eq. 6: Monte-Carlo rollouts, return-weighted log-probability gradients,
//! with a moving-average baseline and optional entropy regularization for
//! variance control. Each episode's steps run as **one batched
//! forward/backward** on the calling thread — the only update path; the
//! unit tests hold it bit for bit to a test-only per-step oracle.

use mirage_nn::loss::policy_gradient_loss;
use mirage_nn::optim::Adam;
use mirage_nn::param::{GradSink, Grads};
use mirage_nn::scratch::Scratch;
use mirage_nn::tensor::Matrix;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::dualhead::{
    check_snapshot_fits, install_params, stack_states_into, BatchInferCache, DualHeadNet,
    HeadBatchCache, StateMismatch,
};
use crate::schedule::ExploreLane;
use crate::{prob_pair_is_valid, FALLBACK_ACTION};

/// Categorical draw over a `[p(no-submit), p(submit)]` pair from one
/// uniform sample.
#[inline]
fn sample_pair(p: [f32; 2], u: f32) -> usize {
    usize::from(u >= p[0])
}

/// The one place a PG agent turns a probability pair into an action,
/// behind both [`PgAgent::act`] and [`PgAgent::act_sample_batch`]: a
/// valid pair is sampled with one `draw()`; anything else falls back to
/// [`FALLBACK_ACTION`], counted in `fallbacks`, *without* drawing, so a
/// healthy net samples exactly the stream an unchecked one would.
#[inline]
fn checked_sample(p: [f32; 2], draw: impl FnOnce() -> f32, fallbacks: &mut u64) -> usize {
    if prob_pair_is_valid(p) {
        sample_pair(p, draw())
    } else {
        *fallbacks += 1;
        FALLBACK_ACTION
    }
}

/// REINFORCE hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PgConfig {
    /// Adam learning rate.
    pub lr: f32,
    /// EMA coefficient for the return baseline.
    pub baseline_beta: f32,
    /// Entropy-bonus coefficient (0 disables).
    pub entropy_coef: f32,
    /// Global gradient-norm clip (0 disables).
    pub grad_clip: f32,
}

impl Default for PgConfig {
    fn default() -> Self {
        Self {
            lr: 1e-3,
            baseline_beta: 0.9,
            entropy_coef: 0.01,
            grad_clip: 5.0,
        }
    }
}

/// One collected episode: the visited `(state, action)` pairs and the
/// episode return (the paper's delayed terminal reward).
#[derive(Debug, Clone)]
pub struct EpisodeSample {
    /// Trajectory of decisions.
    pub steps: Vec<(Matrix, usize)>,
    /// Total (undiscounted) episode return.
    pub episode_return: f32,
}

/// Everything a [`PgAgent`] needs to resume bit-identically after a
/// crash: weights, Adam moments, the EMA baseline and the episode clock.
#[derive(Debug, Clone)]
pub struct PgAgentState {
    /// Network parameters, in [`ParamSet`](mirage_nn::ParamSet)
    /// allocation order.
    pub net_params: Vec<Matrix>,
    /// Adam update steps taken.
    pub opt_t: u64,
    /// Adam first moments, by parameter position.
    pub opt_m: Vec<Option<Matrix>>,
    /// Adam second moments, by parameter position.
    pub opt_v: Vec<Option<Matrix>>,
    /// EMA return baseline.
    pub baseline: f32,
    /// Whether the baseline has absorbed its first batch.
    pub baseline_initialized: bool,
    /// Episodes consumed so far.
    pub episodes: u64,
}

/// REINFORCE agent over a [`DualHeadNet`].
#[derive(Debug, Clone)]
pub struct PgAgent {
    /// The dual-head network (P-head is the policy).
    pub net: DualHeadNet,
    opt: Adam,
    cfg: PgConfig,
    baseline: f32,
    baseline_initialized: bool,
    /// Episodes consumed so far.
    pub episodes: u64,
    /// Reusable inference buffers: serving-time decisions allocate
    /// nothing once this arena is warm.
    scratch: Scratch,
    /// Per-episode embed-row caches for the batched greedy path
    /// (invalidated after every training step).
    batch_cache: BatchInferCache,
    /// Reusable probability-pair buffer for the batched greedy path.
    batch_vals: Vec<[f32; 2]>,
    /// Retained activation caches for the training path.
    train_cache: HeadBatchCache,
    /// Retained accumulated-gradient buffer (reset each update).
    grads: Grads,
    /// Retained per-episode gradient buffer.
    ep_grads: Grads,
    /// Decisions whose probability pair failed the check (a diagnostic,
    /// not training state: checkpoints do not carry it).
    fallbacks: u64,
}

impl PgAgent {
    /// Wraps a network with REINFORCE training machinery.
    pub fn new(net: DualHeadNet, cfg: PgConfig) -> Self {
        let opt = Adam::new(cfg.lr);
        let grads = Grads::new(&net.ps);
        let ep_grads = Grads::new(&net.ps);
        Self {
            net,
            opt,
            cfg,
            baseline: 0.0,
            baseline_initialized: false,
            episodes: 0,
            scratch: Scratch::new(),
            batch_cache: BatchInferCache::new(),
            batch_vals: Vec::new(),
            train_cache: HeadBatchCache::default(),
            grads,
            ep_grads,
            fallbacks: 0,
        }
    }

    /// Current return baseline.
    pub fn baseline(&self) -> f32 {
        self.baseline
    }

    /// Decisions since construction that fell back to
    /// [`FALLBACK_ACTION`] because the probability pair was not finite,
    /// non-negative and normalized.
    pub fn fallbacks(&self) -> u64 {
        self.fallbacks
    }

    /// Snapshots the full training state for crash-safe checkpointing.
    /// Round-trips through [`import_state`](Self::import_state).
    pub fn export_state(&self) -> PgAgentState {
        PgAgentState {
            net_params: self.net.ps.iter().map(|(_, m)| m.clone()).collect(),
            opt_t: self.opt.steps(),
            opt_m: self.opt.state().1.to_vec(),
            opt_v: self.opt.state().2.to_vec(),
            baseline: self.baseline,
            baseline_initialized: self.baseline_initialized,
            episodes: self.episodes,
        }
    }

    /// Restores an [`export_state`](Self::export_state) snapshot into an
    /// agent freshly built over the same network architecture. A
    /// snapshot of a different architecture (parameter count, or any
    /// parameter or Adam moment shape) is refused before anything is
    /// installed.
    pub fn import_state(&mut self, state: PgAgentState) -> Result<(), StateMismatch> {
        let ps = &mut self.net.ps;
        check_snapshot_fits(ps, &state.net_params, &state.opt_m, &state.opt_v)?;
        install_params(ps, state.net_params);
        self.opt
            .restore_state(state.opt_t, state.opt_m, state.opt_v);
        self.baseline = state.baseline;
        self.baseline_initialized = state.baseline_initialized;
        self.episodes = state.episodes;
        // Cached embed rows belong to the pre-restore weights.
        self.batch_cache.clear();
        Ok(())
    }

    /// Samples an action from the policy distribution (allocation-free
    /// `p_probs` fast path against the agent's scratch arena); an invalid
    /// pair falls back to [`FALLBACK_ACTION`], counted, and draws nothing
    /// from `rng`.
    pub fn act(&mut self, state: &Matrix, rng: &mut impl Rng) -> usize {
        let p = self.net.p_probs(state, &mut self.scratch);
        checked_sample(p, || rng.gen::<f32>(), &mut self.fallbacks)
    }

    /// Stochastic actions for a lockstep batch in **one** batched
    /// forward: `states` row-stacks `rows.len()` state matrices, and
    /// batch row `r` samples the softmax categorically with one uniform
    /// draw from `lanes[rows[r]]`'s RNG stream (the lane indirection
    /// keeps each episode pinned to its stream as a narrowing batch
    /// drops finished episodes). Per row the action is bit-identical to
    /// [`act`](Self::act) on that state with that RNG; lane ε clocks are
    /// not touched (the policy head has no exploration schedule).
    pub fn act_sample_batch(
        &mut self,
        states: &Matrix,
        lanes: &mut [ExploreLane],
        rows: &[usize],
        actions: &mut Vec<usize>,
    ) {
        self.net.p_probs_batch(
            states,
            rows.len(),
            &mut self.batch_vals,
            &mut self.scratch,
            &mut self.batch_cache,
        );
        actions.clear();
        for (r, &l) in rows.iter().enumerate() {
            let (p, rng) = (self.batch_vals[r], &mut lanes[l].rng);
            actions.push(checked_sample(p, || rng.gen(), &mut self.fallbacks));
        }
    }

    /// Folds the batch's mean return into the EMA baseline and returns the
    /// value every episode's advantage is measured against. Shared by every
    /// training path (the oracle included) so their advantages can never
    /// diverge.
    fn advance_baseline(&mut self, episodes: &[EpisodeSample]) -> f32 {
        let batch_mean: f32 =
            episodes.iter().map(|e| e.episode_return).sum::<f32>() / episodes.len() as f32;
        if self.baseline_initialized {
            self.baseline = self.cfg.baseline_beta * self.baseline
                + (1.0 - self.cfg.baseline_beta) * batch_mean;
        } else {
            self.baseline = batch_mean;
            self.baseline_initialized = true;
        }
        self.baseline
    }

    /// Shared update tail: mean-normalize, clip, Adam step, cache
    /// invalidation and the episode clock. Returns the mean loss.
    fn apply_update(&mut self, total_loss: f32, step_count: usize, n_episodes: usize) -> f32 {
        self.grads.scale(1.0 / step_count.max(1) as f32);
        if self.cfg.grad_clip > 0.0 {
            self.grads.clip_global_norm(self.cfg.grad_clip);
        }
        self.opt.step(&mut self.net.ps, &self.grads);
        // The parameters moved: cached embed rows are stale.
        self.batch_cache.clear();
        self.episodes += n_episodes as u64;
        total_loss / step_count.max(1) as f32
    }

    /// One REINFORCE update from a batch of complete episodes; returns the
    /// mean surrogate loss. Every episode's steps run in one row-stacked
    /// forward/backward against retained buffers. Gradient accumulation
    /// stays per-episode (fused flat fold within an episode, ascending
    /// episode-order merge across episodes) so the f32 addition chains
    /// match the test-only per-step oracle exactly.
    pub fn train_episodes(&mut self, episodes: &[EpisodeSample]) -> f32 {
        assert!(!episodes.is_empty(), "empty episode batch");
        let baseline = self.advance_baseline(episodes);
        let entropy_coef = self.cfg.entropy_coef;
        let step_count: usize = episodes.iter().map(|e| e.steps.len()).sum();

        let net = &self.net;
        let scratch = &mut self.scratch;
        self.grads.reset();
        let mut total_loss = 0.0f32;
        for ep in episodes {
            if ep.steps.is_empty() {
                // An empty episode contributes exactly +0.0 loss and no
                // gradient in the per-step fold; skipping it is bitwise
                // equivalent (the running total is never -0.0).
                continue;
            }
            let advantage = ep.episode_return - baseline;
            self.ep_grads.reset();
            let loss_sum = pg_episode_batched(
                net,
                ep,
                advantage,
                entropy_coef,
                &mut self.train_cache,
                &mut self.ep_grads,
                scratch,
            );
            self.grads.merge_ref(&self.ep_grads);
            total_loss += loss_sum;
        }
        self.apply_update(total_loss, step_count, episodes.len())
    }
}

/// One non-empty episode's REINFORCE pass as a single row-stacked
/// forward/backward. Accumulates into `grads` (caller resets) and returns
/// the episode's loss sum. Bit-identical to the per-step loop of the
/// test-only oracle.
fn pg_episode_batched(
    net: &DualHeadNet,
    ep: &EpisodeSample,
    advantage: f32,
    entropy_coef: f32,
    cache: &mut HeadBatchCache,
    grads: &mut Grads,
    scratch: &mut Scratch,
) -> f32 {
    let t_count = ep.steps.len();
    let mut states = scratch.take(0, 0);
    stack_states_into(ep.steps.iter().map(|(state, _)| state), &mut states);
    let mut logits = scratch.take(t_count, 2);
    net.p_forward_batch_train(&states, t_count, &mut logits, cache, scratch);

    let mut dl = scratch.take(t_count, 2);
    let mut row = scratch.take(1, 2);
    let mut loss_sum = 0.0f32;
    for (t, (_, action)) in ep.steps.iter().enumerate() {
        row.row_mut(0).copy_from_slice(logits.row(t));
        let (loss, mut d_logits) = policy_gradient_loss(&row, *action, advantage);
        if entropy_coef > 0.0 {
            d_logits.add_assign(&entropy_grad(&row).scale(entropy_coef));
        }
        dl.row_mut(t).copy_from_slice(d_logits.row(0));
        loss_sum += loss;
    }

    let mut sink = GradSink::Fused(grads);
    net.p_backward_batch(cache, &states, &dl, t_count, &mut sink, scratch);
    scratch.give(row);
    scratch.give(dl);
    scratch.give(logits);
    scratch.give(states);
    loss_sum
}

/// Gradient of `−H(π)` w.r.t. the logits (added to push *toward* higher
/// entropy when scaled positively and subtracted from the loss gradient):
/// `d(−H)/dz_i = p_i (log p_i + H)`.
fn entropy_grad(logits: &Matrix) -> Matrix {
    let p = logits.softmax_rows();
    let h: f32 = -p
        .data()
        .iter()
        .map(|&x| if x > 0.0 { x * x.ln() } else { 0.0 })
        .sum::<f32>();
    p.map(|pi| if pi > 0.0 { pi * (pi.ln() + h) } else { 0.0 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dualhead::{ActionEncoding, DualHeadConfig, DualHeadNet};
    use crate::env::SignBandit;
    use crate::greedy_pair;
    use mirage_nn::foundation::FoundationKind;
    use mirage_nn::transformer::TransformerConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rayon::prelude::*;

    impl PgAgent {
        /// The pinned per-step oracle [`PgAgent::train_episodes`] is held
        /// to: one forward/backward per visited state, per-episode
        /// gradients merged in ascending episode order.
        fn train_episodes_scalar(&mut self, episodes: &[EpisodeSample]) -> f32 {
            assert!(!episodes.is_empty(), "empty episode batch");
            let baseline = self.advance_baseline(episodes);
            let entropy_coef = self.cfg.entropy_coef;
            let net = &self.net;
            let step_count: usize = episodes.iter().map(|e| e.steps.len()).sum();
            // Parallel per-episode passes, deterministic in-order merge.
            let per_episode: Vec<(f32, Grads)> = episodes
                .par_iter()
                .map(|ep| {
                    let advantage = ep.episode_return - baseline;
                    let mut grads = Grads::new(&net.ps);
                    let mut loss_sum = 0.0f32;
                    for (state, action) in &ep.steps {
                        let (logits, cache) = net.p_forward(state);
                        let (loss, mut d_logits) =
                            policy_gradient_loss(&logits, *action, advantage);
                        if entropy_coef > 0.0 {
                            d_logits.add_assign(&entropy_grad(&logits).scale(entropy_coef));
                        }
                        net.p_backward(&cache, &d_logits, &mut grads);
                        loss_sum += loss;
                    }
                    (loss_sum, grads)
                })
                .collect();
            let (total_loss, merged) = per_episode.into_iter().fold(
                (0.0f32, Grads::new(&net.ps)),
                |(l1, mut g1), (l2, g2)| {
                    g1.merge(g2);
                    (l1 + l2, g1)
                },
            );
            self.grads.reset();
            self.grads.merge(merged);
            self.apply_update(total_loss, step_count, episodes.len())
        }
    }

    fn tiny_net(kind: FoundationKind, seed: u64) -> DualHeadNet {
        DualHeadNet::new(DualHeadConfig {
            foundation: kind,
            transformer: TransformerConfig {
                input_dim: 3,
                seq_len: 2,
                d_model: 8,
                heads: 2,
                layers: 1,
                ff_mult: 2,
            },
            action_encoding: ActionEncoding::TwoHead,
            freeze_foundation: false,
            seed,
        })
    }

    /// A transformer `tiny_net` with every parameter NaN: a diverged
    /// update or a corrupted checkpoint, as seen from inference.
    fn poisoned_net(seed: u64) -> DualHeadNet {
        let mut net = tiny_net(FoundationKind::Transformer, seed);
        let ids: Vec<_> = net.ps.iter().map(|(id, _)| id).collect();
        for id in ids {
            net.ps.get_mut(id).data_mut().fill(f32::NAN);
        }
        net
    }

    fn collect_episodes(
        agent: &mut PgAgent,
        env: &mut SignBandit,
        rng: &mut StdRng,
        n: usize,
    ) -> Vec<EpisodeSample> {
        (0..n)
            .map(|_| {
                let state = env.reset();
                let action = agent.act(&state, rng);
                let (_, reward) = env.step(action);
                EpisodeSample {
                    steps: vec![(state, action)],
                    episode_return: reward,
                }
            })
            .collect()
    }

    fn accuracy(agent: &mut PgAgent, seed: u64, trials: usize) -> f64 {
        let mut env = SignBandit::new(seed, 2, 3);
        let mut ok = 0;
        for _ in 0..trials {
            let s = env.reset();
            if greedy_pair(agent.net.action_probs(&s)) == env.correct_action() {
                ok += 1;
            }
        }
        ok as f64 / trials as f64
    }

    #[test]
    fn reinforce_learns_the_sign_bandit() {
        let mut agent = PgAgent::new(
            tiny_net(FoundationKind::Transformer, 21),
            PgConfig {
                lr: 5e-3,
                ..PgConfig::default()
            },
        );
        let mut env = SignBandit::new(22, 2, 3);
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..120 {
            let eps = collect_episodes(&mut agent, &mut env, &mut rng, 16);
            agent.train_episodes(&eps);
        }
        let acc = accuracy(&mut agent, 99, 100);
        assert!(acc > 0.85, "PG should solve the bandit, got {acc:.2}");
    }

    #[test]
    fn moe_foundation_also_learns() {
        let mut agent = PgAgent::new(
            tiny_net(FoundationKind::MoE { experts: 2 }, 31),
            PgConfig {
                lr: 5e-3,
                ..PgConfig::default()
            },
        );
        let mut env = SignBandit::new(32, 2, 3);
        let mut rng = StdRng::seed_from_u64(33);
        for _ in 0..120 {
            let eps = collect_episodes(&mut agent, &mut env, &mut rng, 16);
            agent.train_episodes(&eps);
        }
        let acc = accuracy(&mut agent, 98, 100);
        assert!(acc > 0.8, "MoE+PG accuracy {acc:.2}");
    }

    #[test]
    fn baseline_tracks_mean_return() {
        let mut agent = PgAgent::new(
            tiny_net(FoundationKind::Transformer, 41),
            PgConfig::default(),
        );
        let eps: Vec<EpisodeSample> = (0..8)
            .map(|i| EpisodeSample {
                steps: vec![(Matrix::zeros(2, 3), 0)],
                episode_return: if i % 2 == 0 { 1.0 } else { -1.0 },
            })
            .collect();
        agent.train_episodes(&eps);
        assert!(agent.baseline().abs() < 1e-6, "mean of ±1 returns is 0");
        let all_pos: Vec<EpisodeSample> = (0..8)
            .map(|_| EpisodeSample {
                steps: vec![(Matrix::zeros(2, 3), 0)],
                episode_return: 2.0,
            })
            .collect();
        agent.train_episodes(&all_pos);
        assert!(agent.baseline() > 0.0);
    }

    #[test]
    fn act_sample_batch_rows_match_sequential_sampling_bitwise() {
        // Batched stochastic acting == sequential `act` per row: one
        // p_probs_batch forward, one uniform draw per lane, including
        // across a train step and a narrowed, permuted batch.
        for kind in [
            FoundationKind::Transformer,
            FoundationKind::MoE { experts: 2 },
        ] {
            let mut batch_agent = PgAgent::new(tiny_net(kind, 61), PgConfig::default());
            let mut seq_agent = batch_agent.clone();
            let mut batch_lanes: Vec<ExploreLane> =
                (0..3).map(|l| ExploreLane::seeded(200 + l, 0)).collect();
            let mut seq_lanes = batch_lanes.clone();
            let mut rng = StdRng::seed_from_u64(62);
            let states: Vec<Matrix> = (0..3).map(|_| Matrix::xavier(2, 3, &mut rng)).collect();

            let mut actions = Vec::new();
            for tick in 0..5 {
                let rows: Vec<usize> = match tick {
                    0 | 1 => vec![0, 1, 2],
                    2 => vec![2, 1],
                    _ => vec![0],
                };
                let mut stacked = Matrix::zeros(rows.len() * 2, 3);
                for (r, &l) in rows.iter().enumerate() {
                    for i in 0..2 {
                        stacked.row_mut(r * 2 + i).copy_from_slice(states[l].row(i));
                    }
                }
                batch_agent.act_sample_batch(&stacked, &mut batch_lanes, &rows, &mut actions);
                for (r, &l) in rows.iter().enumerate() {
                    let expect = seq_agent.act(&states[l], &mut seq_lanes[l].rng);
                    assert_eq!(actions[r], expect, "{kind:?} tick {tick} row {r} lane {l}");
                }
                if tick == 2 {
                    let eps: Vec<EpisodeSample> = (0..4)
                        .map(|i| EpisodeSample {
                            steps: vec![(states[i % 3].clone(), i % 2)],
                            episode_return: -(i as f32),
                        })
                        .collect();
                    batch_agent.train_episodes(&eps);
                    seq_agent.train_episodes(&eps);
                }
            }
        }
    }

    #[test]
    fn healthy_act_paths_are_the_unchecked_formula() {
        // On a finite net both act paths are sample_pair(p, draw) on the
        // same streams, and nothing falls back.
        let mut agent = PgAgent::new(
            tiny_net(FoundationKind::Transformer, 63),
            PgConfig::default(),
        );
        let mut rng = StdRng::seed_from_u64(64);
        let states: Vec<Matrix> = (0..3).map(|_| Matrix::xavier(2, 3, &mut rng)).collect();
        let mut scratch = Scratch::new();
        let probs: Vec<[f32; 2]> = states
            .iter()
            .map(|s| agent.net.p_probs(s, &mut scratch))
            .collect();
        let mut stacked = Matrix::zeros(0, 0);
        stack_states_into(states.iter(), &mut stacked);
        let fresh = || {
            let lanes: Vec<ExploreLane> = (0..3).map(|l| ExploreLane::seeded(70 + l, 0)).collect();
            (StdRng::seed_from_u64(65), lanes)
        };
        let (mut act_rng, mut lanes) = fresh();
        let (mut oracle_rng, mut oracle_lanes) = fresh();
        let mut actions = Vec::new();
        for tick in 0..6 {
            agent.act_sample_batch(&stacked, &mut lanes, &[0, 1, 2], &mut actions);
            for (l, s) in states.iter().enumerate() {
                let expect = sample_pair(probs[l], oracle_rng.gen());
                assert_eq!(agent.act(s, &mut act_rng), expect, "act, tick {tick}");
                let expect = sample_pair(probs[l], oracle_lanes[l].rng.gen());
                assert_eq!(actions[l], expect, "act_sample_batch row {l}, tick {tick}");
            }
        }
        assert_eq!(agent.fallbacks(), 0);
    }

    #[test]
    fn poisoned_act_paths_fall_back_count_and_draw_nothing() {
        let mut agent = PgAgent::new(poisoned_net(66), PgConfig::default());
        let s = Matrix::zeros(2, 3);
        let mut stacked = Matrix::zeros(0, 0);
        stack_states_into([&s, &s, &s].into_iter(), &mut stacked);
        let mut rng = StdRng::seed_from_u64(67);
        let mut lanes: Vec<ExploreLane> = (0..3).map(|l| ExploreLane::seeded(l, 0)).collect();
        let mut actions = Vec::new();
        for _ in 0..2 {
            assert_eq!(agent.act(&s, &mut rng), FALLBACK_ACTION);
            agent.act_sample_batch(&stacked, &mut lanes, &[0, 1, 2], &mut actions);
            assert_eq!(actions, [FALLBACK_ACTION; 3]);
        }
        assert_eq!(agent.fallbacks(), 8, "every decision counted");
        // Neither the caller's stream nor any lane's was drawn from.
        assert_eq!(rng.gen::<u64>(), StdRng::seed_from_u64(67).gen::<u64>());
        for (l, lane) in lanes.iter_mut().enumerate() {
            let untouched = StdRng::seed_from_u64(l as u64).gen::<u64>();
            assert_eq!(lane.rng.gen::<u64>(), untouched, "lane {l}");
        }
    }

    #[test]
    fn sampling_follows_the_policy_distribution() {
        let mut agent = PgAgent::new(
            tiny_net(FoundationKind::Transformer, 51),
            PgConfig::default(),
        );
        let s = Matrix::zeros(2, 3);
        let p = agent.net.action_probs(&s);
        let mut rng = StdRng::seed_from_u64(52);
        let n = 2000;
        let ones: usize = (0..n).map(|_| agent.act(&s, &mut rng)).sum();
        let freq = ones as f32 / n as f32;
        assert!(
            (freq - p[1]).abs() < 0.05,
            "sample frequency {freq:.3} vs probability {:.3}",
            p[1]
        );
    }

    #[test]
    fn pg_batched_update_matches_scalar_reference_bitwise() {
        // The batched update must equal the per-step oracle bit for bit —
        // losses, parameters and baseline — across foundation kinds and
        // sequential updates, with varying episode lengths including an
        // empty episode (a crashed lane).
        for kind in [
            FoundationKind::Transformer,
            FoundationKind::MoE { experts: 2 },
        ] {
            let mut batched = PgAgent::new(tiny_net(kind, 43), PgConfig::default());
            let mut scalar = batched.clone();
            let mut rng = StdRng::seed_from_u64(47);
            for step in 0..3 {
                let eps: Vec<EpisodeSample> = (0..5 + step)
                    .map(|i| EpisodeSample {
                        steps: (0..(i % 4))
                            .map(|t| (Matrix::xavier(2, 3, &mut rng), t % 2))
                            .collect(),
                        episode_return: rng.gen::<f32>() * 2.0 - 1.0,
                    })
                    .collect();
                let lb = batched.train_episodes(&eps);
                let ls = scalar.train_episodes_scalar(&eps);
                let ctx = format!("{kind:?} step {step}");
                assert_eq!(lb.to_bits(), ls.to_bits(), "{ctx}: loss {lb} vs {ls}");
                for ((_, a), (_, b)) in batched.net.ps.iter().zip(scalar.net.ps.iter()) {
                    let bits =
                        |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(a), bits(b), "{ctx}: weights");
                }
                assert_eq!(
                    batched.baseline().to_bits(),
                    scalar.baseline().to_bits(),
                    "{ctx}: baseline"
                );
            }
        }
    }

    #[test]
    fn entropy_gradient_is_zero_at_uniform() {
        let g = entropy_grad(&Matrix::row_vector(vec![0.5, 0.5]));
        assert!(g.data().iter().all(|v| v.abs() < 1e-6));
        // And pushes toward uniform when skewed: the larger-probability
        // logit gets a positive (loss-increasing) component.
        let g = entropy_grad(&Matrix::row_vector(vec![2.0, 0.0]));
        assert!(g.get(0, 0) > 0.0);
        assert!(g.get(0, 1) < 0.0);
    }
}
