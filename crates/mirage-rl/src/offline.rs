//! Offline foundation pretraining (§4.9.1 of the paper).
//!
//! The foundation model is pretrained with supervised learning before any
//! online RL: each sample pairs a state (and the action taken) with the
//! observed episode reward; the model regresses the reward through the
//! dedicated reward head. This shapes the shared representation the
//! V-head and P-head later build on.

use mirage_nn::optim::Adam;
use mirage_nn::param::{GradSink, Grads};
use mirage_nn::scratch::Scratch;
use mirage_nn::tensor::Matrix;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::dualhead::{stack_states_into, DualHeadNet, HeadBatchCache};

/// One supervised pretraining sample (state, action, observed reward).
#[derive(Debug, Clone)]
pub struct RewardSample {
    /// State matrix at decision time.
    pub state: Matrix,
    /// Action that was taken (the replay warm start stores it; reward
    /// regression does not read it).
    pub action: usize,
    /// Observed delayed reward of the episode.
    pub reward: f32,
}

/// Pretraining hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PretrainConfig {
    /// Full passes over the sample set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Shuffling seed.
    pub seed: u64,
    /// Global gradient-norm clip (0 disables).
    pub grad_clip: f32,
}

impl Default for PretrainConfig {
    fn default() -> Self {
        Self {
            epochs: 10,
            batch_size: 32,
            lr: 1e-3,
            seed: 0,
            grad_clip: 5.0,
        }
    }
}

/// Pretrains the foundation by reward regression; returns the mean MSE per
/// epoch (a decreasing curve if learning works).
///
/// Each mini-batch is one row-stacked forward/backward through the
/// reward head into a retained [`Grads`] (fused sink), bit-identical to
/// the test-only per-sample oracle.
pub fn pretrain_foundation(
    net: &mut DualHeadNet,
    samples: &[RewardSample],
    cfg: &PretrainConfig,
) -> Vec<f32> {
    assert!(!samples.is_empty(), "no pretraining samples");
    let mut scratch = Scratch::new();
    let mut cache = HeadBatchCache::default();
    fit_minibatches(net, samples.len(), cfg, |net, chunk, grads| {
        let mut states = scratch.take(0, 0);
        let n = stack_states_into(chunk.iter().map(|&i| &samples[i].state), &mut states);
        let mut preds = scratch.take(n, 1);
        net.reward_forward_batch_train(&states, n, &mut preds, &mut cache, &mut scratch);
        // `mse` of a single prediction: loss d², gradient 2d.
        let mut d_preds = scratch.take(n, 1);
        let mut loss_sum = 0.0f32;
        for (b, &i) in chunk.iter().enumerate() {
            let d = preds.get(b, 0) - samples[i].reward;
            loss_sum += d * d;
            d_preds.set(b, 0, d * 2.0);
        }
        let mut sink = GradSink::Fused(grads);
        net.reward_backward_batch(&mut cache, &states, &d_preds, n, &mut sink, &mut scratch);
        scratch.give(d_preds);
        scratch.give(preds);
        scratch.give(states);
        loss_sum
    })
}

/// The shuffled mini-batch Adam loop of the supervised stages (reward
/// pretraining here, behaviour cloning in `mirage-core`): `cfg.epochs`
/// passes over a seeded shuffle of `0..n_samples` in chunks of
/// `cfg.batch_size`. For each chunk `chunk_grads(net, chunk, grads)`
/// accumulates the summed gradient of the chunk's samples into the
/// (reset) `grads` and returns their summed loss; the loop mean-scales,
/// clips, and steps. Returns the mean per-sample loss of each epoch.
pub fn fit_minibatches(
    net: &mut DualHeadNet,
    n_samples: usize,
    cfg: &PretrainConfig,
    mut chunk_grads: impl FnMut(&DualHeadNet, &[usize], &mut Grads) -> f32,
) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut opt = Adam::new(cfg.lr);
    let mut order: Vec<usize> = (0..n_samples).collect();
    let mut curve = Vec::with_capacity(cfg.epochs);
    let mut grads = Grads::new(&net.ps);
    for _ in 0..cfg.epochs {
        order.shuffle(&mut rng);
        let mut epoch_loss = 0.0f32;
        let mut batches = 0usize;
        for chunk in order.chunks(cfg.batch_size) {
            grads.reset();
            let loss_sum = chunk_grads(net, chunk, &mut grads);
            grads.scale(1.0 / chunk.len() as f32);
            if cfg.grad_clip > 0.0 {
                grads.clip_global_norm(cfg.grad_clip);
            }
            opt.step(&mut net.ps, &grads);
            epoch_loss += loss_sum / chunk.len() as f32;
            batches += 1;
        }
        curve.push(epoch_loss / batches.max(1) as f32);
    }
    curve
}

/// Mean reward-prediction MSE of a network over samples (for validation).
/// The samples run through the cacheless batched reward forward in
/// chunks of 32; the squared errors are summed in sample order, so the
/// result equals the per-sample mean bit for bit.
pub fn reward_mse(net: &DualHeadNet, samples: &[RewardSample]) -> f32 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut scratch = Scratch::new();
    let (mut states, mut preds) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
    let mut sum = 0.0f32;
    for chunk in samples.chunks(32) {
        let n = stack_states_into(chunk.iter().map(|s| &s.state), &mut states);
        let head = &net.reward_head;
        net.head_forward_batch(head, &states, n, &mut preds, None, &mut scratch);
        for (b, s) in chunk.iter().enumerate() {
            let d = preds.get(b, 0) - s.reward;
            sum += d * d;
        }
    }
    sum / samples.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dualhead::{ActionEncoding, DualHeadConfig};
    use mirage_nn::foundation::FoundationKind;
    use mirage_nn::loss::mse;
    use mirage_nn::transformer::TransformerConfig;
    use rand::Rng;

    /// The per-sample oracle [`pretrain_foundation`] is held to: one
    /// isolated reward gradient per sample, merged in chunk order.
    fn pretrain_per_sample(
        net: &mut DualHeadNet,
        samples: &[RewardSample],
        cfg: &PretrainConfig,
    ) -> Vec<f32> {
        let mut sample_grads = Grads::new(&net.ps);
        fit_minibatches(net, samples.len(), cfg, |net, chunk, grads| {
            let mut loss_sum = 0.0f32;
            for &i in chunk {
                let s = &samples[i];
                let (pred, cache) = net.reward_forward(&s.state);
                let (loss, dl) = mse(
                    &Matrix::row_vector(vec![pred]),
                    &Matrix::row_vector(vec![s.reward]),
                );
                sample_grads.reset();
                net.reward_backward(&cache, dl.get(0, 0), &mut sample_grads);
                grads.merge_ref(&sample_grads);
                loss_sum += loss;
            }
            loss_sum
        })
    }

    fn tiny_net(seed: u64) -> DualHeadNet {
        tiny_net_of(FoundationKind::Transformer, seed)
    }

    fn tiny_net_of(kind: FoundationKind, seed: u64) -> DualHeadNet {
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

    /// Reward = mean of the state entries — learnable regression target.
    fn make_samples(n: usize, seed: u64) -> Vec<RewardSample> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let state = Matrix::from_fn(2, 3, |_, _| rng.gen_range(-1.0..1.0));
                let reward = state.sum() / 6.0;
                RewardSample {
                    state,
                    action: rng.gen_range(0..2),
                    reward,
                }
            })
            .collect()
    }

    #[test]
    fn pretraining_reduces_mse() {
        let mut net = tiny_net(61);
        let train = make_samples(256, 62);
        let valid = make_samples(64, 63);
        // The per-sample mean `reward_mse` must equal bit for bit.
        let per_sample = |net: &DualHeadNet| {
            let sq = |s: &RewardSample| {
                let d = net.reward_forward(&s.state).0 - s.reward;
                d * d
            };
            valid.iter().map(sq).sum::<f32>() / valid.len() as f32
        };
        let before = reward_mse(&net, &valid);
        assert_eq!(before.to_bits(), per_sample(&net).to_bits());
        let curve = pretrain_foundation(
            &mut net,
            &train,
            &PretrainConfig {
                epochs: 15,
                lr: 3e-3,
                ..PretrainConfig::default()
            },
        );
        let after = reward_mse(&net, &valid);
        assert_eq!(after.to_bits(), per_sample(&net).to_bits());
        assert!(
            curve.last().unwrap() < curve.first().unwrap(),
            "train curve must drop"
        );
        assert!(after < before * 0.5, "val mse {before:.4} → {after:.4}");
    }

    #[test]
    fn curve_has_one_entry_per_epoch() {
        let mut net = tiny_net(81);
        let train = make_samples(32, 82);
        let curve = pretrain_foundation(
            &mut net,
            &train,
            &PretrainConfig {
                epochs: 3,
                ..PretrainConfig::default()
            },
        );
        assert_eq!(curve.len(), 3);
    }

    #[test]
    fn batched_pretraining_ends_on_the_per_sample_weights() {
        // 70 samples: two full mini-batches and a remainder of 6 per epoch.
        let train = make_samples(70, 92);
        let cfg = PretrainConfig {
            epochs: 3,
            lr: 3e-3,
            ..PretrainConfig::default()
        };
        for kind in [
            FoundationKind::Transformer,
            FoundationKind::MoE { experts: 2 },
        ] {
            let mut batched = tiny_net_of(kind, 93);
            let mut oracle = batched.clone();
            let curve = pretrain_foundation(&mut batched, &train, &cfg);
            let curve_ref = pretrain_per_sample(&mut oracle, &train, &cfg);
            let bits = |c: &[f32]| c.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&curve), bits(&curve_ref), "{kind:?} curve");
            for ((_, a), (_, b)) in batched.ps.iter().zip(oracle.ps.iter()) {
                assert_eq!(bits(a.data()), bits(b.data()), "{kind:?} weights");
            }
        }
    }

    #[test]
    fn empty_validation_is_zero() {
        let net = tiny_net(91);
        assert_eq!(reward_mse(&net, &[]), 0.0);
    }
}
