//! Heterogeneous node pools and placement-sensitive contention.
//!
//! Each of the paper's clusters is a single-type partition, but a cluster
//! may mix A100/V100/T4-class nodes. There the node type sets job speed and
//! the *placement* sets a second-order penalty: a job striped across pools
//! pays cross-pool interconnect cost, and a job landing on an almost-full
//! pool contends for shared links. Pools are a property of the cluster;
//! jobs name no node type, and the allocator fills pools in declaration
//! order. This module models both effects:
//!
//! * [`NodePool`] — a typed slice of the partition with a per-type
//!   throughput multiplier (1.0 = baseline; runtimes scale by
//!   `1/throughput`),
//! * [`HeteroModel`] — the pool layout plus a contention model: a
//!   placement that spans pools or lands congested draws a deterministic,
//!   seeded slowdown factor.
//!
//! Determinism follows the fault-model discipline: the slowdown draw is a
//! pure hash of `(seed, job id, attempt)`, so identically-seeded runs — and
//! `reset()` replays — see identical slowdowns regardless of event
//! interleaving, and retries of the same job re-draw independently.
//!
//! `HeteroModel::none()` (the default, an empty pool list) is a strict
//! no-op: simulators skip every pool code path and stay byte-identical to
//! the homogeneous model.
//! A single-pool model with `throughput == 1.0` and `contention == 0.0` is
//! also an exact identity — `place` then always returns scale 1.0 — which
//! the property tests pin against the pre-hetero behaviour.

use serde::{Deserialize, Serialize};

use mirage_trace::splitmix64;

use crate::fault::SimConfigError;

/// One typed node pool: a contiguous range of node indices
/// (`[offset, offset + nodes)` in declaration order) with a common speed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodePool {
    /// Pool kind label (e.g. `"a100"`).
    pub kind: String,
    /// Nodes in this pool. Pool node counts sum to the partition size.
    pub nodes: u32,
    /// Relative per-node throughput (baseline = 1.0). Runtimes of jobs
    /// placed here scale by `1/throughput`; a job touching several pools
    /// runs at the *slowest* touched pool's speed (stragglers gate
    /// synchronous workloads).
    pub throughput: f64,
}

impl NodePool {
    /// Creates a pool.
    pub fn new(kind: impl Into<String>, nodes: u32, throughput: f64) -> Self {
        Self {
            kind: kind.into(),
            nodes,
            throughput,
        }
    }
}

/// Pool layout and placement-sensitivity model of a partition.
///
/// Carried by value inside simulator configs so `reset()` replays the same
/// heterogeneity tape, mirroring [`FaultModel`](crate::FaultModel).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HeteroModel {
    /// Typed pools in node-index order; counts must sum to the partition
    /// size. Empty (the default) is the homogeneous partition: simulators
    /// keep the single-counter fast path and ignore every other field.
    #[serde(default)]
    pub pools: Vec<NodePool>,
    /// Strength of the contention slowdown. A penalized placement draws a
    /// factor in `[1 + 0.25·c, 1 + c]`; `0.0` disables the penalty while
    /// keeping pool-speed scaling.
    #[serde(default)]
    pub contention: f64,
    /// Busy fraction at or above which a touched pool counts as congested
    /// (post-placement, down nodes included). In `(0, 1]`.
    #[serde(default)]
    pub congestion: f64,
    /// Seed of the slowdown draw stream; independent of the fault seed.
    #[serde(default)]
    pub seed: u64,
}

impl Default for HeteroModel {
    fn default() -> Self {
        Self::none()
    }
}

/// Outcome of placing one job on the pooled partition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Placement {
    /// Runtime multiplier: `slowdown / min(touched throughput)`. Exactly
    /// `1.0` for an unpenalized placement on baseline-speed nodes.
    pub scale: f64,
    /// The job was striped across two or more pools.
    pub spans: bool,
    /// Some touched pool was at or above the congestion threshold.
    pub congested: bool,
}

/// Running counters of the heterogeneity model, for eval lanes and benches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct HeteroStats {
    /// Job placements performed by the pool allocator.
    pub placements: u64,
    /// Placements striped across two or more pools.
    pub span_placements: u64,
    /// Placements that touched a congested pool.
    pub congested_placements: u64,
    /// Placements whose final runtime scale exceeded 1.0 (contention draw
    /// and/or a sub-baseline pool).
    pub slowdowns: u64,
}

impl HeteroStats {
    /// Folds one placement outcome into the counters.
    pub fn record(&mut self, p: &Placement) {
        self.placements += 1;
        self.span_placements += u64::from(p.spans);
        self.congested_placements += u64::from(p.congested);
        self.slowdowns += u64::from(p.scale > 1.0);
    }
}

impl std::ops::AddAssign for HeteroStats {
    /// Counter-wise sum: folds one run's counters into a lane total.
    fn add_assign(&mut self, run: Self) {
        self.placements += run.placements;
        self.span_placements += run.span_placements;
        self.congested_placements += run.congested_placements;
        self.slowdowns += run.slowdowns;
    }
}

impl HeteroModel {
    /// Homogeneous partition: no pools, no contention, a strict no-op.
    pub fn none() -> Self {
        Self {
            pools: Vec::new(),
            contention: 0.0,
            congestion: 0.9,
            seed: 0,
        }
    }

    /// Whether this is the homogeneous no-op model.
    pub fn is_none(&self) -> bool {
        self.pools.is_empty()
    }

    /// Model from an explicit pool list.
    pub fn with_pools(pools: Vec<NodePool>, contention: f64, seed: u64) -> Self {
        Self {
            pools,
            contention,
            congestion: 0.9,
            seed,
        }
    }

    /// Canonical two-tier scenario: a fast `a100` quarter (throughput 1.6)
    /// and a baseline `v100` balance, moderate contention. Needs
    /// `nodes >= 2`.
    pub fn balanced(nodes: u32, seed: u64) -> Self {
        let fast = (nodes / 4).max(1);
        let mut m = Self::with_pools(
            vec![
                NodePool::new("a100", fast, 1.6),
                NodePool::new("v100", nodes - fast, 1.0),
            ],
            0.6,
            seed,
        );
        m.congestion = 0.85;
        m
    }

    /// Canonical three-tier scenario: scarce double-speed `a100`s, a
    /// baseline `v100` middle and a slow `t4` tail, high contention with an
    /// aggressive congestion threshold. Needs `nodes >= 3`.
    pub fn scarce(nodes: u32, seed: u64) -> Self {
        let fast = (nodes / 8).max(1);
        let mid = ((nodes - fast) / 2).max(1);
        let mut m = Self::with_pools(
            vec![
                NodePool::new("a100", fast, 2.0),
                NodePool::new("v100", mid, 1.0),
                NodePool::new("t4", nodes - fast - mid, 0.6),
            ],
            1.0,
            seed,
        );
        m.congestion = 0.75;
        m
    }

    /// Validates the model against the partition size.
    ///
    /// The homogeneous model always passes (every field is ignored),
    /// mirroring how `FaultModel::none()` validates.
    pub fn validate(&self, nodes: u32) -> Result<(), SimConfigError> {
        if self.is_none() {
            return Ok(());
        }
        for p in &self.pools {
            if p.nodes == 0 {
                return Err(SimConfigError::new(
                    "hetero.pools.nodes",
                    p.nodes,
                    "every pool needs at least one node",
                ));
            }
            if !p.throughput.is_finite() || p.throughput <= 0.0 {
                return Err(SimConfigError::new(
                    "hetero.pools.throughput",
                    p.throughput,
                    "throughput multiplier must be finite and positive",
                ));
            }
        }
        let total: u32 = self.pools.iter().map(|p| p.nodes).sum();
        if total != nodes {
            return Err(SimConfigError::new(
                "hetero.pools",
                total,
                "pool node counts must sum to the partition size",
            ));
        }
        if !self.contention.is_finite() || self.contention < 0.0 {
            return Err(SimConfigError::new(
                "hetero.contention",
                self.contention,
                "contention strength must be finite and non-negative",
            ));
        }
        if !self.congestion.is_finite() || self.congestion <= 0.0 || self.congestion > 1.0 {
            return Err(SimConfigError::new(
                "hetero.congestion",
                self.congestion,
                "congestion threshold must be in (0, 1]",
            ));
        }
        Ok(())
    }

    /// Per-pool node totals, in declaration order.
    pub fn pool_totals(&self) -> Vec<u32> {
        self.pools.iter().map(|p| p.nodes).collect()
    }

    /// Pool index owning node `node` (pools cover contiguous index ranges
    /// in declaration order).
    pub fn pool_of_node(&self, node: u32) -> usize {
        let mut acc = 0u32;
        for (p, pool) in self.pools.iter().enumerate() {
            acc += pool.nodes;
            if node < acc {
                return p;
            }
        }
        self.pools.len().saturating_sub(1)
    }

    /// Deterministic contention slowdown for `(job id, attempt)`.
    ///
    /// Pure hash of the seed and identifiers — the same discipline as
    /// `FaultModel::job_fails`, with a distinct mixing constant so the two
    /// streams stay independent even under equal seeds. Returns a factor in
    /// `[1 + 0.25·contention, 1 + contention]`, or exactly `1.0` when
    /// contention is zero.
    pub fn slowdown(&self, id: u64, attempt: u32) -> f64 {
        if self.contention <= 0.0 {
            return 1.0;
        }
        let h = splitmix64(
            self.seed
                ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ u64::from(attempt).wrapping_mul(0xC2B2_AE3D_27D4_EB4F),
        );
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        1.0 + self.contention * (0.25 + 0.75 * u)
    }

    /// Places a `nodes`-wide job on the pools, decrementing `pool_free` and
    /// recording per-pool allocation counts into `counts` (resized to the
    /// pool count). Requires `sum(pool_free) >= nodes` — the scheduler has
    /// already admitted the job against the aggregate free counter.
    ///
    /// Deterministic greedy fill of the pools in declaration order.
    pub fn place(
        &self,
        pool_free: &mut [u32],
        nodes: u32,
        id: u64,
        attempt: u32,
        counts: &mut Vec<u32>,
    ) -> Placement {
        counts.clear();
        counts.resize(self.pools.len(), 0);
        let mut need = nodes;
        for (free, count) in pool_free.iter_mut().zip(counts.iter_mut()) {
            let t = need.min(*free);
            *free -= t;
            *count = t;
            need -= t;
        }
        debug_assert_eq!(need, 0, "placement admitted without enough free nodes");

        let mut touched = 0usize;
        let mut thr = f64::INFINITY;
        let mut congested = false;
        for (p, pool) in self.pools.iter().enumerate() {
            if counts[p] == 0 {
                continue;
            }
            touched += 1;
            thr = thr.min(pool.throughput);
            let busy = pool.nodes - pool_free[p];
            if f64::from(busy) >= self.congestion * f64::from(pool.nodes) {
                congested = true;
            }
        }
        let spans = touched > 1;
        let factor = if spans || congested {
            self.slowdown(id, attempt)
        } else {
            1.0
        };
        let thr = if thr.is_finite() { thr } else { 1.0 };
        Placement {
            scale: factor / thr,
            spans,
            congested,
        }
    }
}

/// Applies a placement scale to a runtime, rounding partial seconds up.
/// Exact identity at `scale == 1.0` so unpenalized baseline placements stay
/// byte-identical to the homogeneous path.
pub fn scale_runtime(run: i64, scale: f64) -> i64 {
    if scale == 1.0 || run <= 0 {
        return run;
    }
    ((run as f64 * scale).ceil() as i64).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_pool() -> HeteroModel {
        HeteroModel::with_pools(
            vec![NodePool::new("a100", 2, 1.6), NodePool::new("v100", 6, 1.0)],
            0.5,
            7,
        )
    }

    #[test]
    fn none_is_default_and_validates_anything() {
        assert!(HeteroModel::none().is_none());
        assert_eq!(HeteroModel::default(), HeteroModel::none());
        assert!(HeteroModel::with_pools(Vec::new(), 0.5, 7).is_none());
        let mut garbage = HeteroModel::none();
        garbage.contention = f64::NAN;
        assert!(garbage.validate(0).is_ok(), "homogeneous model is inert");
    }

    #[test]
    fn validation_rejects_unsound_fields() {
        let nodes = 8;
        let mut m = two_pool();
        m.pools[0].nodes = 0;
        assert_eq!(m.validate(nodes).unwrap_err().field, "hetero.pools.nodes");

        let mut m = two_pool();
        m.pools[1].throughput = -1.0;
        assert_eq!(
            m.validate(nodes).unwrap_err().field,
            "hetero.pools.throughput"
        );

        let m = two_pool();
        let err = m.validate(9).unwrap_err();
        assert_eq!(err.field, "hetero.pools");
        assert_eq!(err.value, "8");

        let mut m = two_pool();
        m.contention = -0.1;
        assert_eq!(m.validate(nodes).unwrap_err().field, "hetero.contention");

        let mut m = two_pool();
        m.congestion = 1.5;
        assert_eq!(m.validate(nodes).unwrap_err().field, "hetero.congestion");

        assert!(two_pool().validate(nodes).is_ok());
    }

    #[test]
    fn pool_of_node_follows_declaration_ranges() {
        let m = two_pool();
        assert_eq!(m.pool_of_node(0), 0);
        assert_eq!(m.pool_of_node(1), 0);
        assert_eq!(m.pool_of_node(2), 1);
        assert_eq!(m.pool_of_node(7), 1);
        assert_eq!(m.pool_totals(), vec![2, 6]);
    }

    #[test]
    fn slowdown_is_deterministic_bounded_and_stream_independent() {
        let m = two_pool();
        for id in 1..200u64 {
            for attempt in 1..4u32 {
                let s = m.slowdown(id, attempt);
                assert_eq!(s, m.slowdown(id, attempt));
                assert!((1.125..=1.5).contains(&s), "slowdown {s} out of range");
            }
        }
        // Different seeds decorrelate.
        let mut other = two_pool();
        other.seed = 8;
        assert!((1..200u64).any(|id| m.slowdown(id, 1) != other.slowdown(id, 1)));
        // Retries re-draw.
        assert!((1..200u64).any(|id| m.slowdown(id, 1) != m.slowdown(id, 2)));
        // Zero contention is an exact identity.
        let mut off = two_pool();
        off.contention = 0.0;
        assert_eq!(off.slowdown(42, 1), 1.0);
    }

    #[test]
    fn placement_fills_pools_in_declaration_order_and_detects_spans() {
        let m = two_pool();
        let mut free = vec![2u32, 6];
        let mut counts = Vec::new();
        // A job that fits in pool 0 stays there.
        let p = m.place(&mut free, 2, 1, 1, &mut counts);
        assert_eq!(counts, vec![2, 0]);
        assert_eq!(free, vec![0, 6]);
        assert!(!p.spans);
        // Pool 0 is full: the next job lands in pool 1.
        m.place(&mut free, 1, 2, 1, &mut counts);
        assert_eq!(counts, vec![0, 1]);
        assert_eq!(free, vec![0, 5]);
        // A wide job spans both pools once pool 0 frees up.
        free = vec![2, 6];
        let p = m.place(&mut free, 4, 3, 1, &mut counts);
        assert_eq!(counts, vec![2, 2]);
        assert!(p.spans);
        // Spanning runs at the slowest touched pool's speed, times the draw.
        assert!(p.scale >= m.slowdown(3, 1) / 1.0 - 1e-12);
    }

    #[test]
    fn congestion_triggers_at_the_threshold() {
        let mut m = two_pool();
        m.contention = 1.0;
        m.congestion = 0.5;
        // Pool 0 is full, so the job lands in pool 1 alone: 3 of 6 v100
        // nodes busy == the 0.5 threshold.
        let mut free = vec![0u32, 6];
        let mut counts = Vec::new();
        let p = m.place(&mut free, 3, 9, 1, &mut counts);
        assert_eq!(counts, vec![0, 3]);
        assert!(!p.spans);
        assert!(p.congested);
        assert!(p.scale > 1.0);
    }

    #[test]
    fn single_baseline_pool_without_contention_is_an_exact_identity() {
        let m = HeteroModel::with_pools(vec![NodePool::new("any", 8, 1.0)], 0.0, 99);
        let mut free = vec![8u32];
        let mut counts = Vec::new();
        for id in 1..50u64 {
            let width = 1 + (id % 4) as u32;
            if free[0] < width {
                free[0] = 8;
            }
            let p = m.place(&mut free, width, id, 1, &mut counts);
            assert_eq!(p.scale, 1.0, "identity model must never rescale");
            assert_eq!(scale_runtime(3600, p.scale), 3600);
        }
    }

    #[test]
    fn scale_runtime_rounds_up_and_clamps() {
        assert_eq!(scale_runtime(100, 1.0), 100);
        assert_eq!(scale_runtime(100, 1.5), 150);
        assert_eq!(scale_runtime(101, 1.013), 103);
        assert_eq!(scale_runtime(100, 0.5), 50);
        assert_eq!(scale_runtime(1, 0.1), 1);
        assert_eq!(scale_runtime(0, 2.0), 0);
    }

    #[test]
    fn canonical_scenarios_validate_on_small_and_paper_sized_partitions() {
        for nodes in [4u32, 8, 16, 88] {
            HeteroModel::balanced(nodes, 1).validate(nodes).unwrap();
            HeteroModel::scarce(nodes, 1).validate(nodes).unwrap();
        }
    }
}
