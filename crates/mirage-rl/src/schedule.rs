//! Exploration and learning-rate schedules, plus the per-lane
//! exploration state that keeps lockstep batched collection bit-identical
//! to sequential acting.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Linearly decaying ε for ε-greedy exploration (§4.9.2: a small ε > 0
/// also guards against the DQN policy never submitting).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EpsilonSchedule {
    /// Initial ε.
    pub start: f32,
    /// Final ε (kept forever after decay).
    pub end: f32,
    /// Steps over which ε decays linearly.
    pub decay_steps: u64,
}

impl EpsilonSchedule {
    /// Constant ε.
    pub fn constant(eps: f32) -> Self {
        Self {
            start: eps,
            end: eps,
            decay_steps: 1,
        }
    }

    /// Standard linear decay.
    pub fn linear(start: f32, end: f32, decay_steps: u64) -> Self {
        Self {
            start,
            end,
            decay_steps: decay_steps.max(1),
        }
    }

    /// ε at a given step.
    pub fn value(&self, step: u64) -> f32 {
        if step >= self.decay_steps {
            return self.end;
        }
        let frac = step as f32 / self.decay_steps as f32;
        self.start + (self.end - self.start) * frac
    }
}

impl Default for EpsilonSchedule {
    fn default() -> Self {
        Self::linear(1.0, 0.05, 2_000)
    }
}

/// Per-lane exploration state for lockstep batched acting: an independent
/// RNG stream plus a lane-local ε-decay clock.
///
/// Sequential ε-greedy training advances one global step counter per
/// decision; stepped in lockstep, that counter would interleave across
/// lanes and make a lane's ε depend on how many *other* episodes share
/// its window. Giving every lane its own `(rng, steps)` pair removes that
/// coupling: lane `i` of a batched collection run draws and decays
/// bit-identically to a sequential run handed the same seed and step
/// base, whatever the batch width (`DqnAgent::act_batch` row `r` ==
/// `DqnAgent::act_lane` on row `r`'s state and lane).
#[derive(Debug, Clone)]
pub struct ExploreLane {
    /// The lane's private RNG stream (exploration and sampling draws).
    pub rng: StdRng,
    /// Lane-local ε-decay clock, advanced once per decision on this lane.
    pub steps: u64,
}

impl ExploreLane {
    /// Lane with an RNG stream seeded by `seed` and the ε clock starting
    /// at `steps` (the agent's accumulated step count at window start, so
    /// a one-lane window reproduces the global sequential decay exactly).
    pub fn seeded(seed: u64, steps: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
            steps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_decay_endpoints() {
        let s = EpsilonSchedule::linear(1.0, 0.1, 100);
        assert_eq!(s.value(0), 1.0);
        assert!((s.value(50) - 0.55).abs() < 1e-6);
        assert_eq!(s.value(100), 0.1);
        assert_eq!(s.value(10_000), 0.1);
    }

    #[test]
    fn constant_stays_constant() {
        let s = EpsilonSchedule::constant(0.3);
        assert_eq!(s.value(0), 0.3);
        assert_eq!(s.value(1_000_000), 0.3);
    }

    #[test]
    fn lanes_decay_independently() {
        // Two lanes stepped in lockstep each see ε at *their own* step
        // count — a lane's decay never depends on the batch width.
        let s = EpsilonSchedule::linear(1.0, 0.0, 10);
        let mut a = ExploreLane::seeded(1, 0);
        let mut b = ExploreLane::seeded(2, 4);
        for _ in 0..3 {
            a.steps += 1;
            b.steps += 1;
        }
        assert_eq!(s.value(a.steps), s.value(3));
        assert_eq!(s.value(b.steps), s.value(7));
    }

    #[test]
    fn seeded_lanes_reproduce_their_stream() {
        use rand::Rng;
        let mut a = ExploreLane::seeded(42, 0);
        let mut b = ExploreLane::seeded(42, 0);
        for _ in 0..16 {
            assert_eq!(a.rng.gen::<f32>(), b.rng.gen::<f32>());
        }
    }
}
