//! Random forest regressor (\[7\] in the paper; baseline method in §6).
//!
//! Bagged CART trees with feature subsampling, predictions averaged.
//! Each tree draws from its own seeded stream, so the forest is the same
//! in any fitting order; the `into_par_iter` below runs sequentially on
//! the vendored `rayon` stand-in.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::dataset::Dataset;
use crate::tree::{RegressionTree, TreeConfig};

/// Forest hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ForestConfig {
    /// Number of trees.
    pub n_trees: usize,
    /// Per-tree growth limits.
    pub tree: TreeConfig,
    /// Bootstrap sample fraction (1.0 = classic bagging with replacement).
    pub sample_fraction: f64,
    /// Master seed.
    pub seed: u64,
}

impl Default for ForestConfig {
    fn default() -> Self {
        Self {
            n_trees: 50,
            tree: TreeConfig::default(),
            sample_fraction: 1.0,
            seed: 0,
        }
    }
}

/// A fitted random forest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RandomForest {
    trees: Vec<RegressionTree>,
}

impl RandomForest {
    /// Fits `cfg.n_trees` trees on bootstrap resamples of `data`.
    ///
    /// Feature subsampling defaults to `sqrt(n_features)` when the tree
    /// config does not set one (the usual RF heuristic).
    pub fn fit(data: &Dataset, cfg: &ForestConfig) -> Self {
        assert!(!data.is_empty(), "cannot fit a forest on zero samples");
        let mut tree_cfg = cfg.tree;
        if tree_cfg.feature_subsample.is_none() {
            let k = (data.n_features() as f64).sqrt().ceil() as usize;
            tree_cfg.feature_subsample = Some(k.max(1));
        }
        let n = data.len();
        let draw = ((n as f64) * cfg.sample_fraction).ceil() as usize;
        let trees: Vec<RegressionTree> = (0..cfg.n_trees)
            .into_par_iter()
            .map(|t| {
                // Independent, deterministic stream per tree.
                let mut rng = StdRng::seed_from_u64(
                    cfg.seed ^ (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                );
                let idx: Vec<usize> = (0..draw.max(1)).map(|_| rng.gen_range(0..n)).collect();
                RegressionTree::fit_indices(data, &idx, &tree_cfg, &mut rng)
            })
            .collect();
        Self { trees }
    }

    /// Mean prediction over all trees.
    pub fn predict(&self, row: &[f32]) -> f32 {
        self.trees.iter().map(|t| t.predict(row)).sum::<f32>() / self.trees.len() as f32
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rand_distr::{Distribution, Normal};

    /// Noisy piecewise function the forest must denoise.
    fn noisy_data(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let noise = Normal::new(0.0f32, 0.3).unwrap();
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|_| vec![rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)])
            .collect();
        let ys: Vec<f32> = rows
            .iter()
            .map(|r| {
                let base = if r[0] > 0.5 { 2.0 } else { 0.0 } + r[1];
                base + noise.sample(&mut rng)
            })
            .collect();
        Dataset::from_rows(&rows, &ys)
    }

    fn mse_on(forest: &RandomForest, data: &Dataset) -> f32 {
        (0..data.len())
            .map(|i| {
                let d = forest.predict(data.row(i)) - data.target(i);
                d * d
            })
            .sum::<f32>()
            / data.len() as f32
    }

    #[test]
    fn beats_the_mean_baseline_out_of_sample() {
        let train = noisy_data(600, 1);
        let test = noisy_data(200, 2);
        let forest = RandomForest::fit(&train, &ForestConfig::default());
        let mse = mse_on(&forest, &test);
        let mean = train.target_mean();
        let base: f32 = (0..test.len())
            .map(|i| (test.target(i) - mean).powi(2))
            .sum::<f32>()
            / test.len() as f32;
        assert!(mse < base * 0.5, "forest mse {mse} vs baseline {base}");
    }

    #[test]
    fn averaging_reduces_variance_vs_single_tree() {
        let train = noisy_data(400, 3);
        let test = noisy_data(200, 4);
        let single = RandomForest::fit(
            &train,
            &ForestConfig {
                n_trees: 1,
                seed: 7,
                ..ForestConfig::default()
            },
        );
        let many = RandomForest::fit(
            &train,
            &ForestConfig {
                n_trees: 60,
                seed: 7,
                ..ForestConfig::default()
            },
        );
        assert!(mse_on(&many, &test) < mse_on(&single, &test));
    }

    #[test]
    fn deterministic_given_seed() {
        let data = noisy_data(100, 5);
        let cfg = ForestConfig {
            n_trees: 8,
            seed: 42,
            ..ForestConfig::default()
        };
        let f1 = RandomForest::fit(&data, &cfg);
        let f2 = RandomForest::fit(&data, &cfg);
        assert_eq!(f1, f2, "parallel fit must still be deterministic");
    }

    #[test]
    fn tree_count_matches_config() {
        let data = noisy_data(50, 6);
        let f = RandomForest::fit(
            &data,
            &ForestConfig {
                n_trees: 5,
                ..Default::default()
            },
        );
        assert_eq!(f.n_trees(), 5);
    }
}
