//! Trace statistics (§3.1 of the paper).
//!
//! Everything needed to regenerate Table 1 and Figures 1–4: monthly job
//! counts, queue-wait aggregates and distributions, and node-hour shares by
//! job size.

use std::collections::BTreeMap;

use crate::job::JobRecord;
use crate::time::{month_of, HOUR};

/// Queue-wait distribution bucket edges used throughout the paper's Fig 4
/// narrative: `<2h, 2–12h, 12–24h, 24–36h, >36h`.
pub const WAIT_BUCKET_EDGES: [i64; 4] = [2 * HOUR, 12 * HOUR, 24 * HOUR, 36 * HOUR];

/// Human labels matching [`WAIT_BUCKET_EDGES`].
pub const WAIT_BUCKET_LABELS: [&str; 5] = ["<2h", "2-12h", "12-24h", "24-36h", ">36h"];

/// Job-size classes used for the Fig 3 node-hour breakdown.
pub const SIZE_CLASS_LABELS: [&str; 4] = ["1 node", "2-4 nodes", "5-8 nodes", ">8 nodes"];

/// Jobs submitted in each synthetic month (Fig 2 series).
pub fn monthly_job_counts(jobs: &[JobRecord]) -> BTreeMap<i64, usize> {
    let mut m = BTreeMap::new();
    for j in jobs {
        *m.entry(month_of(j.submit)).or_insert(0) += 1;
    }
    m
}

/// Mean and standard deviation of the monthly job count, as quoted in §3.1
/// (e.g. "2,955 ± 1,289 per month" on V100).
pub fn monthly_count_mean_std(jobs: &[JobRecord]) -> (f64, f64) {
    let counts = monthly_job_counts(jobs);
    if counts.is_empty() {
        return (0.0, 0.0);
    }
    let n = counts.len() as f64;
    let mean = counts.values().map(|&c| c as f64).sum::<f64>() / n;
    let var = counts
        .values()
        .map(|&c| (c as f64 - mean).powi(2))
        .sum::<f64>()
        / n;
    (mean, var.sqrt())
}

/// Average queue wait per month (Fig 1 series), in seconds. Jobs without a
/// recorded start are skipped.
pub fn monthly_avg_wait(jobs: &[JobRecord]) -> BTreeMap<i64, f64> {
    let mut sums: BTreeMap<i64, (f64, usize)> = BTreeMap::new();
    for j in jobs {
        if let Some(w) = j.wait() {
            let e = sums.entry(month_of(j.submit)).or_insert((0.0, 0));
            e.0 += w as f64;
            e.1 += 1;
        }
    }
    sums.into_iter()
        .map(|(m, (s, n))| (m, s / n as f64))
        .collect()
}

/// Fraction of (scheduled) jobs falling into each wait bucket defined by
/// `edges` (producing `edges.len() + 1` buckets).
pub fn wait_distribution(jobs: &[JobRecord], edges: &[i64]) -> Vec<f64> {
    let mut counts = vec![0usize; edges.len() + 1];
    let mut total = 0usize;
    for j in jobs {
        if let Some(w) = j.wait() {
            let b = edges.partition_point(|&e| e <= w);
            counts[b] += 1;
            total += 1;
        }
    }
    if total == 0 {
        return vec![0.0; edges.len() + 1];
    }
    counts.iter().map(|&c| c as f64 / total as f64).collect()
}

/// Per-month wait distributions (Fig 4 series).
pub fn monthly_wait_distribution(jobs: &[JobRecord], edges: &[i64]) -> BTreeMap<i64, Vec<f64>> {
    let mut by_month: BTreeMap<i64, Vec<JobRecord>> = BTreeMap::new();
    for j in jobs {
        if j.start.is_some() {
            by_month
                .entry(month_of(j.submit))
                .or_default()
                .push(j.clone());
        }
    }
    by_month
        .into_iter()
        .map(|(m, js)| (m, wait_distribution(&js, edges)))
        .collect()
}

/// Classifies a node count into the Fig 3 size classes.
#[inline]
pub fn size_class(nodes: u32) -> usize {
    match nodes {
        0..=1 => 0,
        2..=4 => 1,
        5..=8 => 2,
        _ => 3,
    }
}

/// Share of total node-hours consumed by each size class (Fig 3 bars).
pub fn node_hour_shares(jobs: &[JobRecord]) -> [f64; 4] {
    let mut hours = [0.0f64; 4];
    for j in jobs {
        hours[size_class(j.nodes)] += j.node_hours();
    }
    let total: f64 = hours.iter().sum();
    if total > 0.0 {
        for h in &mut hours {
            *h /= total;
        }
    }
    hours
}

/// Share of the *job count* in each size class, for the Fig 3 contrast
/// between job share and node-hour share.
pub fn job_count_shares(jobs: &[JobRecord]) -> [f64; 4] {
    let mut counts = [0usize; 4];
    for j in jobs {
        counts[size_class(j.nodes)] += 1;
    }
    let total: usize = counts.iter().sum();
    let mut out = [0.0f64; 4];
    if total > 0 {
        for (o, &c) in out.iter_mut().zip(&counts) {
            *o = c as f64 / total as f64;
        }
    }
    out
}

/// §3.1 observation: multi-node jobs are a small share of jobs but a large
/// share of node-hours. Returns `(multi_node_job_fraction,
/// multi_node_node_hour_fraction)`.
pub fn multi_node_shares(jobs: &[JobRecord]) -> (f64, f64) {
    if jobs.is_empty() {
        return (0.0, 0.0);
    }
    let multi_jobs = jobs.iter().filter(|j| j.is_multi_node()).count();
    let multi_hours: f64 = jobs
        .iter()
        .filter(|j| j.is_multi_node())
        .map(|j| j.node_hours())
        .sum();
    let total_hours: f64 = jobs.iter().map(|j| j.node_hours()).sum();
    (
        multi_jobs as f64 / jobs.len() as f64,
        if total_hours > 0.0 {
            multi_hours / total_hours
        } else {
            0.0
        },
    )
}

/// Mean queue wait over all scheduled jobs, seconds.
pub fn avg_wait(jobs: &[JobRecord]) -> f64 {
    let waits: Vec<f64> = jobs
        .iter()
        .filter_map(|j| j.wait())
        .map(|w| w as f64)
        .collect();
    if waits.is_empty() {
        0.0
    } else {
        waits.iter().sum::<f64>() / waits.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{DAY, MONTH};

    fn scheduled(id: u64, submit: i64, wait: i64, nodes: u32, runtime: i64) -> JobRecord {
        let mut j = JobRecord::new(id, format!("j{id}"), 1, submit, nodes, 2 * runtime, runtime);
        j.complete_at(submit + wait);
        j
    }

    #[test]
    fn monthly_counts_bucket_correctly() {
        let jobs = vec![
            scheduled(1, 0, 10, 1, HOUR),
            scheduled(2, MONTH - 1, 10, 1, HOUR),
            scheduled(3, MONTH, 10, 1, HOUR),
        ];
        let c = monthly_job_counts(&jobs);
        assert_eq!(c[&0], 2);
        assert_eq!(c[&1], 1);
    }

    #[test]
    fn mean_std_of_monthly_counts() {
        let jobs = vec![
            scheduled(1, 0, 0, 1, HOUR),
            scheduled(2, 1, 0, 1, HOUR),
            scheduled(3, MONTH, 0, 1, HOUR),
        ];
        let (mean, std) = monthly_count_mean_std(&jobs);
        assert!((mean - 1.5).abs() < 1e-9);
        assert!((std - 0.5).abs() < 1e-9);
    }

    #[test]
    fn wait_distribution_fractions_sum_to_one() {
        let jobs = vec![
            scheduled(1, 0, HOUR, 1, HOUR),      // <2h
            scheduled(2, 0, 5 * HOUR, 1, HOUR),  // 2-12h
            scheduled(3, 0, 30 * HOUR, 1, HOUR), // 24-36h
            scheduled(4, 0, 2 * DAY, 1, HOUR),   // >36h
        ];
        let d = wait_distribution(&jobs, &WAIT_BUCKET_EDGES);
        assert_eq!(d.len(), 5);
        assert!((d.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!((d[0] - 0.25).abs() < 1e-9);
        assert!((d[3] - 0.25).abs() < 1e-9);
        assert!((d[4] - 0.25).abs() < 1e-9);
    }

    #[test]
    fn unscheduled_jobs_are_skipped_in_wait_stats() {
        let mut pending = JobRecord::new(9, "p", 1, 0, 1, HOUR, HOUR);
        pending.start = None;
        let jobs = vec![pending, scheduled(1, 0, HOUR, 1, HOUR)];
        assert!((avg_wait(&jobs) - HOUR as f64).abs() < 1e-9);
        let d = wait_distribution(&jobs, &WAIT_BUCKET_EDGES);
        assert!((d[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn size_classes_partition_sizes() {
        assert_eq!(size_class(1), 0);
        assert_eq!(size_class(2), 1);
        assert_eq!(size_class(4), 1);
        assert_eq!(size_class(5), 2);
        assert_eq!(size_class(8), 2);
        assert_eq!(size_class(9), 3);
        assert_eq!(size_class(32), 3);
    }

    #[test]
    fn node_hour_shares_favor_big_long_jobs() {
        let jobs = vec![
            scheduled(1, 0, 0, 1, HOUR),
            scheduled(2, 0, 0, 8, 10 * HOUR),
        ];
        let shares = node_hour_shares(&jobs);
        assert!(shares[2] > 0.9, "8-node job should dominate node-hours");
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn multi_node_shares_reproduce_the_sec31_contrast() {
        // 1 of 4 jobs is multi-node (25 %) but consumes most node-hours.
        let jobs = vec![
            scheduled(1, 0, 0, 1, HOUR),
            scheduled(2, 0, 0, 1, HOUR),
            scheduled(3, 0, 0, 1, HOUR),
            scheduled(4, 0, 0, 16, 20 * HOUR),
        ];
        let (job_frac, hour_frac) = multi_node_shares(&jobs);
        assert!((job_frac - 0.25).abs() < 1e-9);
        assert!(hour_frac > 0.9);
    }

    #[test]
    fn empty_inputs_do_not_panic() {
        assert_eq!(avg_wait(&[]), 0.0);
        assert_eq!(multi_node_shares(&[]), (0.0, 0.0));
        assert_eq!(node_hour_shares(&[]), [0.0; 4]);
        assert!(monthly_avg_wait(&[]).is_empty());
    }
}
