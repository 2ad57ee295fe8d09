//! Deterministic node-failure schedules: exponential MTBF/MTTR
//! crash/recovery processes on seed-split streams.
//!
//! Real GPU clusters lose nodes — ECC errors, NVLink flaps, host reboots —
//! and Mirage's low-interruption claim only means something if the learned
//! policies survive that. Each node draws an alternating sequence of
//! up-intervals (mean `mtbf`) and down-intervals (mean `mttr`) from its own
//! [`SeedSplitter`] stream, so the schedule is a pure function of
//! `(seed, nodes, mtbf, mttr, horizon)`: both simulators,
//! every evaluation method and every retry of a bench lane replay exactly
//! the same crash tape.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::seed::SeedSplitter;

/// One node-level fault transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeFaultEvent {
    /// Instant the transition fires.
    pub time: i64,
    /// Node index in `[0, nodes)`.
    pub node: u32,
    /// `true` = the node recovers, `false` = the node crashes.
    pub up: bool,
}

/// One exponential draw with the given mean, in whole seconds (≥ 1 so a
/// node never crashes and recovers in the same instant).
fn exp_seconds(rng: &mut StdRng, mean: i64) -> i64 {
    let u: f64 = rng.gen_range(0.0..1.0);
    let draw = -(mean as f64) * (1.0 - u).ln();
    (draw.ceil() as i64).max(1)
}

/// Generates the full crash/recovery schedule for `nodes` nodes.
///
/// Crashes are drawn until `horizon`; every crash's matching recovery is
/// always emitted (possibly past the horizon), so no node stays down
/// forever. Events come back sorted by `(time, node, up)` — a total,
/// deterministic order the simulators can merge into their event loops.
pub fn fault_schedule(
    seed: u64,
    nodes: u32,
    mtbf: i64,
    mttr: i64,
    horizon: i64,
) -> Vec<NodeFaultEvent> {
    assert!(mtbf > 0, "fault schedules need a positive MTBF");
    let mttr = mttr.max(1);
    let mut splitter = SeedSplitter::new(seed);
    let mut events = Vec::new();
    for node in 0..nodes {
        let mut rng = StdRng::seed_from_u64(splitter.next_seed());
        let mut t = 0i64;
        loop {
            t += exp_seconds(&mut rng, mtbf);
            if t > horizon {
                break;
            }
            events.push(NodeFaultEvent {
                time: t,
                node,
                up: false,
            });
            t += exp_seconds(&mut rng, mttr);
            events.push(NodeFaultEvent {
                time: t,
                node,
                up: true,
            });
        }
    }
    events.sort_unstable_by_key(|e| (e.time, e.node, e.up));
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{DAY, HOUR};

    #[test]
    fn schedule_is_deterministic_in_the_seed() {
        let a = fault_schedule(7, 8, DAY, 2 * HOUR, 30 * DAY);
        let b = fault_schedule(7, 8, DAY, 2 * HOUR, 30 * DAY);
        assert_eq!(a, b);
        let c = fault_schedule(8, 8, DAY, 2 * HOUR, 30 * DAY);
        assert_ne!(a, c, "different seeds, different tapes");
    }

    #[test]
    fn every_crash_has_a_later_recovery() {
        let events = fault_schedule(3, 4, 12 * HOUR, HOUR, 10 * DAY);
        for node in 0..4 {
            let mine: Vec<_> = events.iter().filter(|e| e.node == node).collect();
            // Strictly alternating, starting with a crash, ending recovered.
            assert_eq!(mine.len() % 2, 0, "unpaired transition on node {node}");
            for (i, e) in mine.iter().enumerate() {
                assert_eq!(e.up, i % 2 == 1, "node {node} transition {i}");
                if i > 0 {
                    assert!(e.time > mine[i - 1].time, "zero-length interval");
                }
            }
        }
    }

    #[test]
    fn events_are_time_sorted_and_crashes_stay_inside_the_horizon() {
        let events = fault_schedule(11, 16, DAY, 4 * HOUR, 20 * DAY);
        assert!(!events.is_empty(), "16 nodes over 20 days must crash");
        for w in events.windows(2) {
            assert!((w[0].time, w[0].node) <= (w[1].time, w[1].node));
        }
        for e in &events {
            if !e.up {
                assert!(e.time <= 20 * DAY, "crash past the horizon");
            }
        }
    }

    #[test]
    fn interval_means_track_the_configured_mtbf() {
        // ~90 nodes over a long horizon: the empirical mean up-interval
        // should sit near the configured MTBF (law of large numbers on a
        // pinned seed, not a probabilistic test).
        let mtbf = DAY;
        let events = fault_schedule(42, 90, mtbf, HOUR, 60 * DAY);
        let mut gaps = Vec::new();
        for node in 0..90 {
            let mut last_up = 0i64;
            for e in events.iter().filter(|e| e.node == node) {
                if e.up {
                    last_up = e.time;
                } else {
                    gaps.push(e.time - last_up);
                }
            }
        }
        let mean = gaps.iter().sum::<i64>() as f64 / gaps.len() as f64;
        assert!(
            (mean - mtbf as f64).abs() < 0.15 * mtbf as f64,
            "empirical MTBF {mean} vs configured {mtbf}"
        );
    }
}
