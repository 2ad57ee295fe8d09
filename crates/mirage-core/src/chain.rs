//! Chain provisioning — walking a whole sequence of sub-jobs.
//!
//! §4.1 of the paper: "the model maintains a current Predecessor-Successor
//! pair for each group of chained sub-jobs … When J2 is submitted per the
//! model's decision, J2 becomes the predecessor and J3 becomes the
//! successor, and so on, until J4 is submitted." This module runs that
//! loop: one policy provisions an entire chain, each hand-off scored
//! separately, with cumulative service-interruption accounting.

use mirage_sim::ClusterBackend;
use mirage_trace::JobRecord;
use serde::{Deserialize, Serialize};

use crate::episode::{run_episode, EpisodeConfig, EpisodeResult};
use crate::policy::ProvisionPolicy;

/// Result of provisioning one chain of sub-jobs.
#[derive(Debug, Clone)]
pub struct ChainResult {
    /// Per-hand-off episode results (`links − 1` entries for `links`
    /// sub-jobs).
    pub handoffs: Vec<EpisodeResult>,
    /// Total service interruption across the chain, seconds.
    pub total_interruption: i64,
    /// Total overlap across the chain, seconds.
    pub total_overlap: i64,
    /// Hand-offs that were gap-free.
    pub zero_interruption_handoffs: usize,
}

/// Summary statistics of a chain run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChainSummary {
    /// Number of hand-offs.
    pub handoffs: usize,
    /// Mean interruption per hand-off, hours.
    pub avg_interruption_h: f64,
    /// Mean overlap per hand-off, hours.
    pub avg_overlap_h: f64,
    /// Fraction of gap-free hand-offs.
    pub zero_fraction: f64,
}

impl ChainResult {
    /// Aggregates the chain into summary statistics.
    pub fn summary(&self) -> ChainSummary {
        let n = self.handoffs.len().max(1);
        ChainSummary {
            handoffs: self.handoffs.len(),
            avg_interruption_h: self.total_interruption as f64 / 3600.0 / n as f64,
            avg_overlap_h: self.total_overlap as f64 / 3600.0 / n as f64,
            zero_fraction: self.zero_interruption_handoffs as f64 / n as f64,
        }
    }
}

/// Provisions a chain of `links` sub-jobs starting at `t0`, using `policy`
/// for every hand-off, on any [`ClusterBackend`].
///
/// Each hand-off is simulated as one episode; the next episode starts where
/// the previous predecessor ended (the successor of hand-off *i* is the
/// predecessor of hand-off *i+1*, as in the paper). The backend is reset
/// and reloaded from the trace for each episode, so hand-offs are
/// independent trials along the chain's real timeline.
pub fn provision_chain<B: ClusterBackend>(
    backend: &mut B,
    trace: &[JobRecord],
    cfg: &EpisodeConfig,
    t0: i64,
    links: usize,
    policy: &mut dyn ProvisionPolicy,
) -> ChainResult {
    assert!(links >= 2, "a chain needs at least two sub-jobs");
    let mut handoffs = Vec::with_capacity(links - 1);
    let mut start = t0;
    for _ in 0..links - 1 {
        policy.reset();
        let result = run_episode(backend, trace, cfg, start, |ctx| policy.decide(ctx));
        // The next sub-job's life begins where this predecessor ended.
        start = result.pred_end;
        handoffs.push(result);
    }
    let total_interruption = handoffs.iter().map(|h| h.outcome.interruption).sum();
    let total_overlap = handoffs.iter().map(|h| h.outcome.overlap).sum();
    let zero = handoffs
        .iter()
        .filter(|h| h.outcome.zero_interruption())
        .count();
    ChainResult {
        handoffs,
        total_interruption,
        total_overlap,
        zero_interruption_handoffs: zero,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::ReactivePolicy;
    use mirage_sim::{SimConfig, Simulator};
    use mirage_trace::{DAY, HOUR, MINUTE};

    fn cfg() -> EpisodeConfig {
        EpisodeConfig {
            pair_nodes: 1,
            pair_timelimit: 4 * HOUR,
            pair_runtime: 4 * HOUR,
            decision_interval: 30 * MINUTE,
            history_k: 4,
            warmup: DAY,
            pair_user: 999,
            fault_features: false,
            hetero_features: false,
        }
    }

    #[test]
    fn chain_on_idle_cluster_is_seamless() {
        let mut policy = ReactivePolicy;
        let mut sim = Simulator::new(SimConfig::new(4));
        let result = provision_chain(&mut sim, &[], &cfg(), DAY, 4, &mut policy);
        assert_eq!(result.handoffs.len(), 3);
        assert_eq!(result.total_interruption, 0);
        assert_eq!(result.total_overlap, 0);
        assert_eq!(result.zero_interruption_handoffs, 3);
        let s = result.summary();
        assert_eq!(s.zero_fraction, 1.0);
    }

    #[test]
    fn links_chain_consecutively() {
        let mut policy = ReactivePolicy;
        let mut sim = Simulator::new(SimConfig::new(4));
        let result = provision_chain(&mut sim, &[], &cfg(), DAY, 3, &mut policy);
        // Each hand-off starts where the previous predecessor ended.
        assert_eq!(result.handoffs[1].pred_submit, result.handoffs[0].pred_end);
    }

    #[test]
    fn congestion_accumulates_interruption_reactively() {
        // Keep the 4-node cluster saturated across the whole chain span.
        let bg: Vec<JobRecord> = (0..400)
            .map(|i| {
                JobRecord::new(
                    i + 1,
                    format!("bg{i}"),
                    (i % 5) as u32,
                    i as i64 * 15 * MINUTE,
                    2,
                    6 * HOUR,
                    5 * HOUR,
                )
            })
            .collect();
        let mut policy = ReactivePolicy;
        let mut sim = Simulator::new(SimConfig::new(4));
        let result = provision_chain(&mut sim, &bg, &cfg(), DAY, 3, &mut policy);
        assert!(
            result.total_interruption > 0,
            "saturated cluster must interrupt a reactive chain"
        );
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn single_link_is_rejected() {
        let mut policy = ReactivePolicy;
        let mut sim = Simulator::new(SimConfig::new(4));
        let _ = provision_chain(&mut sim, &[], &cfg(), 0, 1, &mut policy);
    }
}
