//! The job record model.
//!
//! Mirrors the fields the paper collects from the Slurm accounting database:
//! `JobID, JobName, UserID, SubmitTime, StartTime, EndTime, Timelimit,
//! NumNodes` (§3). `runtime` is the job's actual execution duration; for a
//! freshly generated synthetic job `start`/`end` are `None` and get filled in
//! when the trace is replayed through the simulator (the production trace
//! has them recorded by the real scheduler).

use serde::{Deserialize, Serialize};

/// A single batch job, either freshly generated (no `start`/`end`) or
/// completed (replayed through a scheduler, or recorded by one).
///
/// A job names no node type: each paper cluster is a single-type
/// partition, so where a job lands on a mixed-type cluster is decided by
/// the simulator's placement model, not by the record.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct JobRecord {
    /// Unique job id within the trace.
    pub id: u64,
    /// Job name as submitted. Chained sub-jobs share a prefix and end in
    /// `_<k>` (e.g. `bert_pretrain_3`), which the §3.2 cleaner merges.
    pub name: String,
    /// Owning user id.
    pub user: u32,
    /// Submission timestamp (seconds since trace epoch).
    pub submit: i64,
    /// Number of requested nodes.
    pub nodes: u32,
    /// Wall-clock limit requested at submission (seconds).
    pub timelimit: i64,
    /// Actual execution duration (seconds). Always `<= timelimit` for jobs
    /// that ran to completion; jobs killed at the limit have
    /// `runtime == timelimit`.
    pub runtime: i64,
    /// Dispatch timestamp, if the job has been scheduled.
    pub start: Option<i64>,
    /// Completion timestamp, if the job has finished.
    pub end: Option<i64>,
}

impl Clone for JobRecord {
    fn clone(&self) -> Self {
        Self {
            name: self.name.clone(),
            ..*self
        }
    }

    /// In place, reusing `name`'s buffer: restoring a simulator's job
    /// arena is one of these per job.
    fn clone_from(&mut self, source: &Self) {
        let Self {
            id,
            name,
            user,
            submit,
            nodes,
            timelimit,
            runtime,
            start,
            end,
        } = self;
        *id = source.id;
        name.clone_from(&source.name);
        *user = source.user;
        *submit = source.submit;
        *nodes = source.nodes;
        *timelimit = source.timelimit;
        *runtime = source.runtime;
        *start = source.start;
        *end = source.end;
    }
}

impl JobRecord {
    /// Creates a pending job (not yet scheduled).
    pub fn new(
        id: u64,
        name: impl Into<String>,
        user: u32,
        submit: i64,
        nodes: u32,
        timelimit: i64,
        runtime: i64,
    ) -> Self {
        Self {
            id,
            name: name.into(),
            user,
            submit,
            nodes,
            timelimit,
            runtime,
            start: None,
            end: None,
        }
    }

    /// Queue wait time (start − submit), if the job has been scheduled.
    #[inline]
    pub fn wait(&self) -> Option<i64> {
        self.start.map(|s| s - self.submit)
    }

    /// Node-hours actually consumed (`nodes × runtime`), in hours.
    #[inline]
    pub fn node_hours(&self) -> f64 {
        self.nodes as f64 * self.runtime as f64 / 3600.0
    }

    /// Whether this is one of the "noisy" short jobs the paper calls out on
    /// the RTX cluster (runs for less than 30 seconds).
    #[inline]
    pub fn is_short(&self) -> bool {
        self.runtime < 30
    }

    /// Whether the job uses more than one node.
    #[inline]
    pub fn is_multi_node(&self) -> bool {
        self.nodes > 1
    }

    /// Splits `name` into a chained-job prefix and sub-job index if the name
    /// matches the `<prefix>_<digits>` convention used for consecutive
    /// sub-jobs.
    pub fn subjob_key(&self) -> Option<(&str, u64)> {
        let (prefix, idx) = self.name.rsplit_once('_')?;
        if prefix.is_empty() || idx.is_empty() || !idx.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        idx.parse::<u64>().ok().map(|i| (prefix, i))
    }

    /// Marks the job as started at `t` and completed after its runtime.
    pub fn complete_at(&mut self, start: i64) {
        self.start = Some(start);
        self.end = Some(start + self.runtime);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::HOUR;

    fn job(name: &str) -> JobRecord {
        JobRecord::new(1, name, 7, 100, 2, 4 * HOUR, HOUR)
    }

    #[test]
    fn wait_requires_start() {
        let mut j = job("a");
        assert_eq!(j.wait(), None);
        j.complete_at(400);
        assert_eq!(j.wait(), Some(300));
        assert_eq!(j.end, Some(400 + HOUR));
    }

    #[test]
    fn node_hours_scale_with_nodes_and_runtime() {
        let j = job("a");
        assert!((j.node_hours() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn short_job_detection() {
        let mut j = job("a");
        assert!(!j.is_short());
        j.runtime = 29;
        assert!(j.is_short());
        j.runtime = 30;
        assert!(!j.is_short());
    }

    #[test]
    fn subjob_key_parses_suffix() {
        assert_eq!(job("train_12").subjob_key(), Some(("train", 12)));
        assert_eq!(job("train_a12").subjob_key(), None);
        assert_eq!(job("plain").subjob_key(), None);
        assert_eq!(job("_3").subjob_key(), None);
        assert_eq!(job("deep_run_003").subjob_key(), Some(("deep_run", 3)));
    }
}
