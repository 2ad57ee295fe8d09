//! Cluster profiles.
//!
//! One profile per production cluster studied in the paper (§3, Table 1),
//! carrying both the hard facts the paper publishes (node counts, trace
//! span, job volume) and the workload-shape knobs the synthetic generator
//! needs (size mix, runtime scale, burstiness, short-job spike).

use serde::{Deserialize, Serialize};

use crate::time::HOUR;

/// Static description of a GPU cluster and its workload character.
///
/// Every profile is a single-type partition, as each of the paper's three
/// clusters is. Mixed node types are a simulator setting
/// (`mirage_sim::HeteroModel`), not a profile field.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterProfile {
    /// Display name (`"V100"`, `"RTX"`, `"A100"`).
    pub name: String,
    /// Compute nodes in the production partition.
    pub nodes: u32,
    /// GPUs per node (4 / 4 / 3 on the three clusters).
    pub gpus_per_node: u32,
    /// Trace length in 30-day months.
    pub trace_months: u32,
    /// Mean submitted jobs per month (paper Fig 2: 2 955 / 8 378 / 4 377).
    pub jobs_per_month: f64,
    /// Month-to-month variability of the job volume (coefficient of
    /// variation of the monthly count).
    pub monthly_cv: f64,
    /// Mean requested nodes per job (paper §3.1: 2.5 / 1.3 / 1.6).
    pub mean_nodes_per_job: f64,
    /// Fraction of jobs that run < 30 s (the RTX trace has a large spike:
    /// 96 780 of 375 095 original jobs).
    pub short_job_fraction: f64,
    /// Median runtime of "real" (non-short) single-node jobs, seconds.
    pub median_runtime: i64,
    /// Wall-clock limit ceiling enforced by the site (48 h on the TACC
    /// clusters studied).
    pub max_timelimit: i64,
    /// Demand-to-capacity pressure; 1.0 ≈ offered load equals capacity.
    /// Drives how congested (Fig 1 / Fig 4) the synthetic cluster gets.
    pub load_intensity: f64,
    /// Strength of bursty arrival episodes (0 = pure Poisson).
    pub burstiness: f64,
    /// Fraction of logical submissions that are chained sub-job sequences
    /// (checkpoint–restart chains recorded as separate accounting rows).
    /// Calibrated so original/filtered matches Table 1 (≈2.9/2.1/2.0 on
    /// V100/RTX/A100).
    pub chain_fraction: f64,
    /// Mean chain length (sub-jobs per chain).
    pub chain_len_mean: f64,
}

impl ClusterProfile {
    /// TACC Longhorn: 88 nodes × 4 V100, 21-month trace, heaviest queueing
    /// (30–41 % of jobs waiting > 24 h in peak months).
    pub fn v100() -> Self {
        Self {
            name: "V100".into(),
            nodes: 88,
            gpus_per_node: 4,
            trace_months: 21,
            jobs_per_month: 2955.0,
            monthly_cv: 0.44,
            mean_nodes_per_job: 2.5,
            short_job_fraction: 0.05,
            median_runtime: 3 * HOUR,
            max_timelimit: 48 * HOUR,
            load_intensity: 0.91,
            burstiness: 0.5,
            chain_fraction: 0.148,
            chain_len_mean: 14.0,
        }
    }

    /// TACC Frontera RTX partition: 84 nodes × 4 RTX 5000, 20-month trace,
    /// many sub-30 s "noisy" jobs, moderate queueing (12–24 % > 24 h).
    pub fn rtx() -> Self {
        Self {
            name: "RTX".into(),
            nodes: 84,
            gpus_per_node: 4,
            trace_months: 20,
            jobs_per_month: 8378.0,
            monthly_cv: 0.8,
            mean_nodes_per_job: 1.3,
            short_job_fraction: 0.26,
            median_runtime: HOUR,
            max_timelimit: 48 * HOUR,
            load_intensity: 0.84,
            burstiness: 0.7,
            chain_fraction: 0.088,
            chain_len_mean: 14.0,
        }
    }

    /// TACC Lonestar6 A100 partition: 76 nodes × 3 A100, 5-month trace,
    /// light queueing (92–98 % of jobs wait < 12 h) and a clean job mix.
    pub fn a100() -> Self {
        Self {
            name: "A100".into(),
            nodes: 76,
            gpus_per_node: 3,
            trace_months: 5,
            jobs_per_month: 4377.0,
            monthly_cv: 0.3,
            mean_nodes_per_job: 1.6,
            short_job_fraction: 0.04,
            median_runtime: 2 * HOUR,
            max_timelimit: 48 * HOUR,
            load_intensity: 0.91,
            burstiness: 0.45,
            chain_fraction: 0.077,
            chain_len_mean: 14.0,
        }
    }

    /// All three paper clusters, in the order they appear in every figure.
    pub fn all() -> Vec<Self> {
        vec![Self::v100(), Self::rtx(), Self::a100()]
    }

    /// Returns a proportionally shrunk profile for fast tests and CI: node
    /// count, job volume and trace length are scaled by `factor` (clamped to
    /// at least 1 node / 1 month), workload shape is preserved.
    pub fn scaled(&self, factor: f64) -> Self {
        let mut p = self.clone();
        p.nodes = ((self.nodes as f64 * factor).round() as u32).max(1);
        p.jobs_per_month = (self.jobs_per_month * factor).max(1.0);
        p.trace_months = ((self.trace_months as f64 * factor).round() as u32).max(1);
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_hardware() {
        let v = ClusterProfile::v100();
        let r = ClusterProfile::rtx();
        let a = ClusterProfile::a100();
        assert_eq!((v.nodes, v.gpus_per_node), (88, 4));
        assert_eq!((r.nodes, r.gpus_per_node), (84, 4));
        assert_eq!((a.nodes, a.gpus_per_node), (76, 3));
    }

    #[test]
    fn trace_spans_match_paper() {
        assert_eq!(ClusterProfile::v100().trace_months, 21);
        assert_eq!(ClusterProfile::rtx().trace_months, 20);
        assert_eq!(ClusterProfile::a100().trace_months, 5);
    }

    #[test]
    fn scaling_preserves_shape_and_clamps() {
        let p = ClusterProfile::v100().scaled(0.25);
        assert_eq!(p.nodes, 22);
        assert_eq!(p.trace_months, 5);
        assert!((p.mean_nodes_per_job - 2.5).abs() < f64::EPSILON);
        let tiny = ClusterProfile::a100().scaled(0.001);
        assert_eq!(tiny.nodes, 1);
        assert_eq!(tiny.trace_months, 1);
    }

    #[test]
    fn all_lists_three_clusters_in_figure_order() {
        let names: Vec<_> = ClusterProfile::all()
            .iter()
            .map(|c| c.name.clone())
            .collect();
        assert_eq!(names, vec!["V100", "RTX", "A100"]);
    }
}
