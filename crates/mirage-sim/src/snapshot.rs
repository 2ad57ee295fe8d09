//! Cluster state snapshots — what `sample()` hands to the agent.
//!
//! The Mirage state encoder (§4.1) consumes exactly this view: queued-job
//! sizes/ages/limits, running-job sizes/elapsed/limits, and the free-node
//! count. Job-internal state is deliberately absent: the paper treats, e.g.,
//! a training job's epoch progress as private to the user.

use serde::{Deserialize, Serialize};

/// One queued (pending) job as visible to the provisioner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueuedJobView {
    /// Simulator job id.
    pub id: u64,
    /// Requested nodes.
    pub nodes: u32,
    /// Submission instant.
    pub submit: i64,
    /// Seconds spent pending so far.
    pub age: i64,
    /// Requested wall-clock limit.
    pub timelimit: i64,
    /// Owning user.
    pub user: u32,
}

/// One running job as visible to the provisioner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunningJobView {
    /// Simulator job id.
    pub id: u64,
    /// Allocated nodes.
    pub nodes: u32,
    /// Dispatch instant.
    pub start: i64,
    /// Seconds running so far.
    pub elapsed: i64,
    /// Requested wall-clock limit.
    pub timelimit: i64,
    /// Owning user.
    pub user: u32,
}

/// Full observable cluster state at one instant.
///
/// `Default` gives an empty snapshot suitable as the reusable buffer for
/// [`crate::ClusterBackend::sample_into`].
#[derive(Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ClusterSnapshot {
    /// Snapshot instant.
    pub now: i64,
    /// Idle nodes.
    pub free_nodes: u32,
    /// Partition size.
    pub total_nodes: u32,
    /// Nodes currently crashed (invisible to the scheduler until they
    /// recover). 0 without fault injection.
    #[serde(default)]
    pub down_nodes: u32,
    /// Fault evictions recorded in the trailing 24 h. 0 without fault
    /// injection.
    #[serde(default)]
    pub recent_evictions: u32,
    /// Per-pool free-node counts on a heterogeneous partition, in pool
    /// declaration order. Empty on a homogeneous cluster.
    #[serde(default)]
    pub pool_free: Vec<u32>,
    /// Per-pool node totals, aligned with `pool_free`. Empty on a
    /// homogeneous cluster.
    #[serde(default)]
    pub pool_total: Vec<u32>,
    /// Running jobs whose placement drew a contention slowdown (spanning
    /// pools or a congested pool). 0 without heterogeneity.
    #[serde(default)]
    pub contended_running: u32,
    /// Pending jobs (unordered).
    pub queued: Vec<QueuedJobView>,
    /// Running jobs (unordered).
    pub running: Vec<RunningJobView>,
}

impl Clone for ClusterSnapshot {
    fn clone(&self) -> Self {
        Self {
            pool_free: self.pool_free.clone(),
            pool_total: self.pool_total.clone(),
            queued: self.queued.clone(),
            running: self.running.clone(),
            ..*self
        }
    }

    /// In place, reusing every vector (what restoring a decision engine's
    /// snapshot buffer needs).
    fn clone_from(&mut self, source: &Self) {
        let Self {
            now,
            free_nodes,
            total_nodes,
            down_nodes,
            recent_evictions,
            pool_free,
            pool_total,
            contended_running,
            queued,
            running,
        } = self;
        *now = source.now;
        *free_nodes = source.free_nodes;
        *total_nodes = source.total_nodes;
        *down_nodes = source.down_nodes;
        *recent_evictions = source.recent_evictions;
        pool_free.clone_from(&source.pool_free);
        pool_total.clone_from(&source.pool_total);
        *contended_running = source.contended_running;
        queued.clone_from(&source.queued);
        running.clone_from(&source.running);
    }
}

impl ClusterSnapshot {
    /// Nodes currently allocated (crashed nodes hold no allocations).
    pub fn busy_nodes(&self) -> u32 {
        self.total_nodes - self.free_nodes - self.down_nodes
    }

    /// Nodes physically available right now (total minus crashed).
    pub fn available_nodes(&self) -> u32 {
        self.total_nodes - self.down_nodes
    }

    /// Instantaneous utilization in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        if self.total_nodes == 0 {
            0.0
        } else {
            f64::from(self.busy_nodes()) / f64::from(self.total_nodes)
        }
    }

    /// Total nodes requested by the queue (demand backlog).
    pub fn queued_nodes(&self) -> u32 {
        self.queued.iter().map(|q| q.nodes).sum()
    }

    /// Fraction of running jobs currently suffering a contention slowdown
    /// — the scalar contention metric exposed to policies and encoders.
    pub fn contention(&self) -> f64 {
        if self.running.is_empty() {
            0.0
        } else {
            f64::from(self.contended_running) / self.running.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_quantities() {
        let snap = ClusterSnapshot {
            now: 100,
            free_nodes: 2,
            total_nodes: 8,
            down_nodes: 0,
            recent_evictions: 0,
            queued: vec![
                QueuedJobView {
                    id: 1,
                    nodes: 4,
                    submit: 0,
                    age: 100,
                    timelimit: 10,
                    user: 1,
                },
                QueuedJobView {
                    id: 2,
                    nodes: 3,
                    submit: 50,
                    age: 50,
                    timelimit: 10,
                    user: 2,
                },
            ],
            ..ClusterSnapshot::default()
        };
        assert_eq!(snap.busy_nodes(), 6);
        assert!((snap.utilization() - 0.75).abs() < 1e-12);
        assert_eq!(snap.queued_nodes(), 7);
    }

    #[test]
    fn empty_cluster_is_safe() {
        let snap = ClusterSnapshot::default();
        assert_eq!(snap.utilization(), 0.0);
        assert_eq!(snap.queued_nodes(), 0);
        assert_eq!(snap.contention(), 0.0);
    }

    #[test]
    fn down_nodes_shrink_busy_and_available_counts() {
        let snap = ClusterSnapshot {
            now: 0,
            free_nodes: 2,
            total_nodes: 8,
            down_nodes: 3,
            recent_evictions: 1,
            ..ClusterSnapshot::default()
        };
        assert_eq!(snap.available_nodes(), 5);
        assert_eq!(snap.busy_nodes(), 3, "8 total − 2 idle − 3 crashed");
    }

    #[test]
    fn contention_is_the_slowed_share_of_running_jobs() {
        let run = |id| RunningJobView {
            id,
            nodes: 1,
            start: 0,
            elapsed: 10,
            timelimit: 100,
            user: 1,
        };
        let snap = ClusterSnapshot {
            free_nodes: 0,
            total_nodes: 4,
            contended_running: 1,
            pool_free: vec![0, 0],
            pool_total: vec![1, 3],
            running: vec![run(1), run(2), run(3), run(4)],
            ..ClusterSnapshot::default()
        };
        assert!((snap.contention() - 0.25).abs() < 1e-12);
    }
}
