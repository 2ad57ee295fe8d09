//! Deterministic hyperparameter grid search.
//!
//! The paper tunes its network hyperparameters with RayTune; this is the
//! native substitution: an exhaustive grid over candidate
//! foundation configurations, scored by held-out reward-prediction MSE
//! after a short pretraining run. Deterministic, parallel over candidates.

use mirage_nn::foundation::FoundationKind;
use mirage_nn::transformer::{TransformerConfig, TransformerConfigError};
use mirage_rl::{
    pretrain_foundation, reward_mse, ActionEncoding, DualHeadConfig, DualHeadNet, PretrainConfig,
    RewardSample,
};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::state::STATE_VARS;

/// One grid point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Candidate {
    /// Model width.
    pub d_model: usize,
    /// Attention heads.
    pub heads: usize,
    /// Encoder layers.
    pub layers: usize,
    /// Foundation architecture.
    pub foundation: FoundationKind,
}

/// A scored grid point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TuneResult {
    /// The candidate configuration.
    pub candidate: Candidate,
    /// Held-out reward-prediction MSE (lower is better).
    pub val_mse: f32,
    /// Parameter count of the built network.
    pub params: usize,
}

/// Search-space definition.
#[derive(Debug, Clone)]
pub struct TuneGrid {
    /// Widths to try.
    pub d_models: Vec<usize>,
    /// Head counts to try (must divide the width).
    pub heads: Vec<usize>,
    /// Layer counts to try.
    pub layers: Vec<usize>,
    /// Foundations to try.
    pub foundations: Vec<FoundationKind>,
}

impl Default for TuneGrid {
    fn default() -> Self {
        Self {
            d_models: vec![16, 32],
            heads: vec![2, 4],
            layers: vec![1, 2],
            foundations: vec![
                FoundationKind::Transformer,
                FoundationKind::MoE { experts: 3 },
            ],
        }
    }
}

impl TuneGrid {
    /// Enumerates the grid points whose head count divides their width.
    /// Zero widths and head counts are kept: [`grid_search`] rejects them
    /// with a typed error instead of dropping them silently.
    pub fn candidates(&self) -> Vec<Candidate> {
        let mut out = Vec::new();
        for &d_model in &self.d_models {
            for &heads in &self.heads {
                if heads != 0 && d_model % heads != 0 {
                    continue;
                }
                for &layers in &self.layers {
                    for &foundation in &self.foundations {
                        out.push(Candidate {
                            d_model,
                            heads,
                            layers,
                            foundation,
                        });
                    }
                }
            }
        }
        out
    }
}

/// Scores every candidate on `(train, valid)` reward pools; returns
/// results sorted best-first. Candidates are evaluated in parallel, each
/// with its own deterministic seed. A candidate (or `history_k`) that
/// cannot form an encoder is a typed error, raised before any candidate
/// trains.
pub fn grid_search(
    grid: &TuneGrid,
    train: &[RewardSample],
    valid: &[RewardSample],
    history_k: usize,
    epochs: usize,
    seed: u64,
) -> Result<Vec<TuneResult>, TransformerConfigError> {
    assert!(!train.is_empty() && !valid.is_empty(), "empty tuning pools");
    let candidates = grid.candidates();
    let shape = |c: &Candidate| TransformerConfig {
        input_dim: STATE_VARS,
        seq_len: history_k,
        d_model: c.d_model,
        heads: c.heads,
        layers: c.layers,
        ff_mult: 2,
    };
    for c in &candidates {
        shape(c).validate()?;
    }
    let mut results: Vec<TuneResult> = candidates
        .par_iter()
        .map(|&candidate| {
            let mut net = DualHeadNet::new(DualHeadConfig {
                foundation: candidate.foundation,
                transformer: shape(&candidate),
                action_encoding: ActionEncoding::TwoHead,
                freeze_foundation: false,
                seed,
            });
            let params = net.ps.scalar_count();
            pretrain_foundation(
                &mut net,
                train,
                &PretrainConfig {
                    epochs,
                    batch_size: 32,
                    lr: 1e-3,
                    seed,
                    grad_clip: 5.0,
                },
            );
            TuneResult {
                candidate,
                val_mse: reward_mse(&net, valid),
                params,
            }
        })
        .collect();
    results.sort_by(|a, b| a.val_mse.partial_cmp(&b.val_mse).unwrap());
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirage_nn::Matrix;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn pools(k: usize) -> (Vec<RewardSample>, Vec<RewardSample>) {
        let mut rng = StdRng::seed_from_u64(0);
        let mut gen = |n: usize| -> Vec<RewardSample> {
            (0..n)
                .map(|_| {
                    let state = Matrix::from_fn(k, STATE_VARS, |_, _| rng.gen_range(-1.0..1.0f32));
                    let reward = state.mean_rows().sum() / STATE_VARS as f32;
                    RewardSample {
                        state,
                        action: 0,
                        reward,
                    }
                })
                .collect()
        };
        (gen(64), gen(24))
    }

    #[test]
    fn grid_enumeration_respects_divisibility() {
        let grid = TuneGrid {
            d_models: vec![6, 8],
            heads: vec![2, 4],
            layers: vec![1],
            foundations: vec![FoundationKind::Transformer],
        };
        let cands = grid.candidates();
        // 6 % 4 != 0 is excluded: (6,2), (8,2), (8,4).
        assert_eq!(cands.len(), 3);
        assert!(cands.iter().all(|c| c.d_model % c.heads == 0));
    }

    #[test]
    fn search_scores_and_sorts() {
        let (train, valid) = pools(3);
        let grid = TuneGrid {
            d_models: vec![8],
            heads: vec![2],
            layers: vec![1],
            foundations: vec![
                FoundationKind::Transformer,
                FoundationKind::MoE { experts: 2 },
            ],
        };
        let results = grid_search(&grid, &train, &valid, 3, 2, 7).unwrap();
        assert_eq!(results.len(), 2);
        assert!(
            results[0].val_mse <= results[1].val_mse,
            "sorted best-first"
        );
        assert!(results.iter().all(|r| r.val_mse.is_finite()));
        assert!(results.iter().all(|r| r.params > 0));
        // MoE has more parameters than the single transformer.
        let moe = results
            .iter()
            .find(|r| matches!(r.candidate.foundation, FoundationKind::MoE { .. }))
            .unwrap();
        let tf = results
            .iter()
            .find(|r| matches!(r.candidate.foundation, FoundationKind::Transformer))
            .unwrap();
        assert!(moe.params > tf.params);
    }

    #[test]
    fn zero_sized_candidates_are_a_typed_error() {
        let (train, valid) = pools(3);
        let grid = TuneGrid {
            d_models: vec![8],
            heads: vec![2, 0],
            layers: vec![1],
            foundations: vec![FoundationKind::Transformer],
        };
        assert_eq!(
            grid_search(&grid, &train, &valid, 3, 1, 7),
            Err(TransformerConfigError::Zero { field: "heads" })
        );
        assert_eq!(
            grid_search(&TuneGrid::default(), &train, &valid, 0, 1, 7),
            Err(TransformerConfigError::Zero { field: "seq_len" })
        );
    }

    #[test]
    fn search_is_deterministic() {
        let (train, valid) = pools(3);
        let grid = TuneGrid {
            d_models: vec![8],
            heads: vec![2],
            layers: vec![1],
            foundations: vec![FoundationKind::Transformer],
        };
        let a = grid_search(&grid, &train, &valid, 3, 2, 9).unwrap();
        let b = grid_search(&grid, &train, &valid, 3, 2, 9).unwrap();
        assert_eq!(a, b);
    }
}
