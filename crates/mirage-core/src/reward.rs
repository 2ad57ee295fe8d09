//! Reward shaping (§4.5 of the paper).
//!
//! Once the successor sub-job starts running, the episode outcome is
//! revealed: either an **interruption** (the successor started after the
//! predecessor ended — service gap) or an **overlap** (it started before —
//! node-hours double-held). The reward is the negative, user-weighted
//! penalty of Eq. 8: zero is the best possible reward.

use serde::{Deserialize, Serialize};

/// User-configurable penalty coefficients `e_I` / `e_O`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RewardShaper {
    /// Penalty per hour of interruption (performance-sensitive users raise
    /// this).
    pub e_interrupt: f32,
    /// Penalty per hour of overlap (resource-waste-averse users raise
    /// this).
    pub e_overlap: f32,
}

impl Default for RewardShaper {
    /// The balanced default: interruption hurts twice as much as overlap —
    /// a few hours of overlap are benign (§6.3: the successor loads
    /// checkpoints and takes over with no wasted computation), while an
    /// interruption is a hard service gap.
    fn default() -> Self {
        Self {
            e_interrupt: 2.0,
            e_overlap: 1.0,
        }
    }
}

/// Outcome of one provisioning episode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EpisodeOutcome {
    /// Seconds of service gap (`max(0, succ_start − pred_end)`).
    pub interruption: i64,
    /// Seconds both jobs held nodes (`max(0, pred_end − succ_start)`).
    pub overlap: i64,
    /// Seconds of service downtime caused by fault evictions of either
    /// sub-job (node crashes, transient failures). Zero when the backend
    /// runs without a fault model.
    #[serde(default)]
    pub fault_interruption: i64,
    /// Decisions in this episode where the policy's network emitted a
    /// non-finite or degenerate output and its agent degraded to the
    /// reactive heuristic. Zero for healthy nets and for policies without
    /// one; a non-zero count is the visible trace of silent NN corruption.
    #[serde(default)]
    pub guard_fallbacks: u64,
}

impl EpisodeOutcome {
    /// Derives the outcome from the two timestamps.
    pub fn from_times(pred_end: i64, succ_start: i64) -> Self {
        Self {
            interruption: (succ_start - pred_end).max(0),
            overlap: (pred_end - succ_start).max(0),
            fault_interruption: 0,
            guard_fallbacks: 0,
        }
    }

    /// Whether the hand-off was gap-free.
    pub fn zero_interruption(&self) -> bool {
        self.interruption == 0 && self.fault_interruption == 0
    }
}

impl RewardShaper {
    /// Eq. 8: negative weighted penalty in hours; 0 is the optimum.
    /// Fault-caused downtime is a service gap like any other, so it is
    /// charged at the same `e_interrupt` rate as hand-off gaps.
    pub fn reward(&self, outcome: &EpisodeOutcome) -> f32 {
        let hours_i = (outcome.interruption + outcome.fault_interruption) as f32 / 3600.0;
        let hours_o = outcome.overlap as f32 / 3600.0;
        -(self.e_interrupt * hours_i + self.e_overlap * hours_o)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirage_trace::HOUR;

    #[test]
    fn outcome_is_one_sided() {
        let gap = EpisodeOutcome::from_times(100, 400);
        assert_eq!(gap.interruption, 300);
        assert_eq!(gap.overlap, 0);
        let lap = EpisodeOutcome::from_times(400, 100);
        assert_eq!(lap.interruption, 0);
        assert_eq!(lap.overlap, 300);
        let perfect = EpisodeOutcome::from_times(250, 250);
        assert_eq!((perfect.interruption, perfect.overlap), (0, 0));
        assert!(perfect.zero_interruption());
    }

    #[test]
    fn perfect_handoff_gets_zero_reward() {
        let shaper = RewardShaper::default();
        let r = shaper.reward(&EpisodeOutcome::from_times(100, 100));
        assert_eq!(r, 0.0);
    }

    #[test]
    fn rewards_are_negative_penalties() {
        let shaper = RewardShaper {
            e_interrupt: 2.0,
            e_overlap: 1.0,
        };
        let r_gap = shaper.reward(&EpisodeOutcome::from_times(0, 3 * HOUR));
        assert!((r_gap + 6.0).abs() < 1e-5, "3h gap × e_I=2 → −6");
        let r_lap = shaper.reward(&EpisodeOutcome::from_times(3 * HOUR, 0));
        assert!((r_lap + 3.0).abs() < 1e-5, "3h overlap × e_O=1 → −3");
    }

    #[test]
    fn fault_downtime_is_charged_like_interruption() {
        let shaper = RewardShaper::default();
        let mut o = EpisodeOutcome::from_times(100, 100);
        assert_eq!(shaper.reward(&o), 0.0);
        o.fault_interruption = 3 * HOUR;
        assert!(
            (shaper.reward(&o) + 6.0).abs() < 1e-5,
            "3h downtime × e_I=2 → −6"
        );
        assert!(!o.zero_interruption());
    }

    #[test]
    fn coefficients_express_user_preference() {
        let outcome_gap = EpisodeOutcome::from_times(0, HOUR);
        let outcome_lap = EpisodeOutcome::from_times(HOUR, 0);
        // Performance-sensitive user: interruption much worse.
        let perf = RewardShaper {
            e_interrupt: 10.0,
            e_overlap: 1.0,
        };
        assert!(perf.reward(&outcome_gap) < perf.reward(&outcome_lap));
        // Waste-averse user: overlap much worse.
        let frugal = RewardShaper {
            e_interrupt: 1.0,
            e_overlap: 10.0,
        };
        assert!(frugal.reward(&outcome_lap) < frugal.reward(&outcome_gap));
    }
}
