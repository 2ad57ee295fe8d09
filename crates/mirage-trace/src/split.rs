//! Train/validation splitting (§6 of the paper).
//!
//! "We partition each trace in 80:20 ratio for training and validation" —
//! the split is *temporal*: the model trains on the early months and is
//! validated on the held-out later months, which is what makes the §6
//! results a generality test rather than in-sample fit.

use serde::{Deserialize, Serialize};

use crate::job::JobRecord;

/// A temporal partition of a trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceSplit {
    /// Early portion, used for training.
    pub train: Vec<JobRecord>,
    /// Held-out later portion, used for validation.
    pub validation: Vec<JobRecord>,
    /// Boundary timestamp: jobs with `submit < split_time` train, the rest
    /// validate.
    pub split_time: i64,
}

/// Splits on the time axis: the training range covers the first
/// `train_fraction` of the trace's span. Input need not be sorted.
pub fn split_by_time(jobs: &[JobRecord], train_fraction: f64) -> TraceSplit {
    assert!(
        (0.0..=1.0).contains(&train_fraction),
        "train_fraction must be in [0,1]"
    );
    if jobs.is_empty() {
        return TraceSplit {
            train: Vec::new(),
            validation: Vec::new(),
            split_time: 0,
        };
    }
    let first = jobs.iter().map(|j| j.submit).min().unwrap();
    let last = jobs.iter().map(|j| j.submit).max().unwrap();
    let split_time = first + ((last - first) as f64 * train_fraction) as i64;
    partition_at(jobs, split_time)
}

fn partition_at(jobs: &[JobRecord], split_time: i64) -> TraceSplit {
    let mut train = Vec::new();
    let mut validation = Vec::new();
    for j in jobs {
        if j.submit < split_time {
            train.push(j.clone());
        } else {
            validation.push(j.clone());
        }
    }
    train.sort_by_key(|j| j.submit);
    validation.sort_by_key(|j| j.submit);
    TraceSplit {
        train,
        validation,
        split_time,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::HOUR;

    fn jobs(n: usize) -> Vec<JobRecord> {
        (0..n)
            .map(|i| {
                JobRecord::new(
                    i as u64,
                    format!("j{i}"),
                    1,
                    i as i64 * HOUR,
                    1,
                    HOUR,
                    HOUR / 2,
                )
            })
            .collect()
    }

    #[test]
    fn time_split_puts_early_jobs_in_train() {
        let js = jobs(10); // submits 0..9h, span 9h
        let s = split_by_time(&js, 0.8);
        assert_eq!(s.train.len() + s.validation.len(), 10);
        assert!(s.train.iter().all(|j| j.submit < s.split_time));
        assert!(s.validation.iter().all(|j| j.submit >= s.split_time));
        assert!(s.train.len() >= 7 && s.train.len() <= 9);
    }

    #[test]
    fn empty_input() {
        let s = split_by_time(&[], 0.8);
        assert!(s.train.is_empty() && s.validation.is_empty());
    }

    #[test]
    fn outputs_are_sorted_by_submit() {
        let mut js = jobs(6);
        js.reverse();
        let s = split_by_time(&js, 0.5);
        for w in s.train.windows(2) {
            assert!(w[0].submit <= w[1].submit);
        }
        for w in s.validation.windows(2) {
            assert!(w[0].submit <= w[1].submit);
        }
    }

    #[test]
    #[should_panic(expected = "train_fraction")]
    fn invalid_fraction_panics() {
        split_by_time(&jobs(3), 1.5);
    }
}
