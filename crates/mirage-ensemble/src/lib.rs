//! Ensemble-learning baselines for the Mirage reproduction.
//!
//! §6 of the paper compares the RL provisioners against two classical
//! ensemble methods: Random Forest (\[7\]) and XGBoost (\[9\]). Both are
//! implemented here from scratch:
//!
//! * [`tree::RegressionTree`] — CART with variance-reduction splits,
//! * [`forest::RandomForest`] — bagging + feature subsampling, one
//!   seeded stream per tree (fitted one after another: the vendored
//!   `rayon` stand-in is sequential),
//! * [`gbdt::GradientBoosting`] — second-order boosting with XGBoost's
//!   regularized leaf weights and structure gain.

pub mod dataset;
pub mod forest;
pub mod gbdt;
pub mod tree;

pub use dataset::Dataset;
pub use forest::{ForestConfig, RandomForest};
pub use gbdt::{GbdtConfig, GradientBoosting};
pub use tree::{RegressionTree, TreeConfig};
