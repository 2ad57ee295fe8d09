//! Guarded inference: numeric validation of agent outputs with graceful
//! degradation to the conservative heuristic action.
//!
//! A silently corrupted network (NaN weights after a diverged update, ∞
//! from an overflowed activation) still *returns* a Q/probability pair —
//! and `NaN > x` is `false`, so a poisoned greedy argmax quietly
//! collapses to one action and the run keeps going with garbage
//! decisions. [`GuardedPolicy`] checks every inference output before
//! acting on it: a non-finite or degenerate pair falls back to the
//! reactive heuristic (never submit proactively — the paper's common
//! practice baseline) and increments a fallback counter, so corruption
//! becomes a visible, countable event in episode outcomes instead of a
//! silent quality cliff.

use mirage_nn::tensor::Matrix;
use rand::Rng;

use crate::dqn::DqnAgent;
use crate::greedy_pair;
use crate::pg::PgAgent;

/// The action a guarded policy degrades to: index 0 = wait/no-submit,
/// i.e. the reactive baseline's only move.
pub const FALLBACK_ACTION: usize = 0;

/// Whether a Q-value pair is safe to argmax: both entries finite.
#[inline]
pub fn q_pair_is_valid(q: [f32; 2]) -> bool {
    q[0].is_finite() && q[1].is_finite()
}

/// Whether a probability pair is safe to sample from: finite,
/// non-negative, and summing to ≈ 1 (a softmax output that lost those
/// properties came from a corrupted forward pass).
#[inline]
pub fn prob_pair_is_valid(p: [f32; 2]) -> bool {
    p[0].is_finite()
        && p[1].is_finite()
        && p[0] >= 0.0
        && p[1] >= 0.0
        && (p[0] + p[1] - 1.0).abs() <= 1e-3
}

/// Cumulative guard counters of one wrapped agent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GuardStats {
    /// Inference outputs validated.
    pub checks: u64,
    /// Outputs rejected (fell back to the heuristic action).
    pub fallbacks: u64,
}

/// An agent wrapped with output validation: every decision first runs
/// the numeric guard, and invalid outputs degrade to
/// [`FALLBACK_ACTION`] instead of propagating garbage into the cluster.
#[derive(Debug, Clone)]
pub struct GuardedPolicy<A> {
    /// The wrapped agent.
    pub agent: A,
    stats: GuardStats,
}

impl<A> GuardedPolicy<A> {
    /// Wraps an agent with a zeroed fallback counter.
    pub fn new(agent: A) -> Self {
        Self {
            agent,
            stats: GuardStats::default(),
        }
    }

    /// Cumulative guard counters since construction.
    pub fn stats(&self) -> GuardStats {
        self.stats
    }
}

impl GuardedPolicy<DqnAgent> {
    /// Greedy action with output validation: argmax of the Q pair when
    /// it is finite, [`FALLBACK_ACTION`] (counted) otherwise.
    pub fn act_greedy(&mut self, state: &Matrix) -> usize {
        let q = self.agent.q_pair(state);
        self.stats.checks += 1;
        if q_pair_is_valid(q) {
            greedy_pair(q)
        } else {
            self.stats.fallbacks += 1;
            FALLBACK_ACTION
        }
    }
}

impl GuardedPolicy<PgAgent> {
    /// Stochastic action with output validation. The RNG is only drawn
    /// from when the pair is valid, so a healthy net under a guard
    /// samples the identical stream as an unguarded one.
    pub fn act(&mut self, state: &Matrix, rng: &mut impl Rng) -> usize {
        let p = self.agent.p_pair(state);
        self.stats.checks += 1;
        if prob_pair_is_valid(p) {
            usize::from(rng.gen::<f32>() >= p[0])
        } else {
            self.stats.fallbacks += 1;
            FALLBACK_ACTION
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dqn::DqnConfig;
    use crate::dualhead::{ActionEncoding, DualHeadConfig, DualHeadNet};
    use crate::pg::PgConfig;
    use mirage_nn::foundation::FoundationKind;
    use mirage_nn::transformer::TransformerConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_net(seed: u64) -> DualHeadNet {
        DualHeadNet::new(DualHeadConfig {
            foundation: FoundationKind::Transformer,
            transformer: TransformerConfig {
                input_dim: 3,
                seq_len: 2,
                d_model: 8,
                heads: 2,
                layers: 1,
                ff_mult: 2,
            },
            action_encoding: ActionEncoding::TwoHead,
            freeze_foundation: false,
            seed,
        })
    }

    /// Poisons every parameter of a net with NaN.
    fn poison(net: &mut DualHeadNet) {
        let ids: Vec<_> = net.ps.iter().map(|(id, _)| id).collect();
        for id in ids {
            let m = net.ps.get_mut(id);
            for v in m.data_mut() {
                *v = f32::NAN;
            }
        }
    }

    #[test]
    fn pair_validators() {
        assert!(q_pair_is_valid([1.0, -2.0]));
        assert!(!q_pair_is_valid([f32::NAN, 0.0]));
        assert!(!q_pair_is_valid([0.0, f32::INFINITY]));
        assert!(prob_pair_is_valid([0.25, 0.75]));
        assert!(!prob_pair_is_valid([f32::NAN, 0.5]));
        assert!(!prob_pair_is_valid([-0.1, 1.1]));
        assert!(!prob_pair_is_valid([0.9, 0.9]), "must sum to 1");
    }

    #[test]
    fn healthy_agent_is_bit_identical_under_the_guard() {
        let mut plain = DqnAgent::new(tiny_net(7), DqnConfig::default());
        let mut guarded = GuardedPolicy::new(plain.clone());
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..16 {
            let s = Matrix::xavier(2, 3, &mut rng);
            assert_eq!(guarded.act_greedy(&s), plain.act_greedy(&s));
        }
        assert_eq!(guarded.stats().fallbacks, 0);
        assert_eq!(guarded.stats().checks, 16);

        let mut pg_plain = PgAgent::new(tiny_net(9), PgConfig::default());
        let mut pg_guarded = GuardedPolicy::new(pg_plain.clone());
        let mut draw_a = StdRng::seed_from_u64(10);
        let mut draw_b = StdRng::seed_from_u64(10);
        for _ in 0..16 {
            let s = Matrix::xavier(2, 3, &mut rng);
            assert_eq!(
                pg_guarded.act(&s, &mut draw_a),
                pg_plain.act(&s, &mut draw_b),
                "guard must not perturb the sampling stream"
            );
        }
        assert_eq!(pg_guarded.stats().fallbacks, 0);
    }

    #[test]
    fn poisoned_net_falls_back_and_counts() {
        let mut net = tiny_net(11);
        poison(&mut net);
        let mut guarded = GuardedPolicy::new(DqnAgent::new(net, DqnConfig::default()));
        let s = Matrix::zeros(2, 3);
        for _ in 0..5 {
            assert_eq!(guarded.act_greedy(&s), FALLBACK_ACTION);
        }
        assert_eq!(guarded.stats().fallbacks, 5);
        assert_eq!(guarded.stats().checks, 5);

        let mut pg_net = tiny_net(12);
        poison(&mut pg_net);
        let mut pg = GuardedPolicy::new(PgAgent::new(pg_net, PgConfig::default()));
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..2 {
            assert_eq!(pg.act(&s, &mut rng), FALLBACK_ACTION);
        }
        assert_eq!(pg.stats().fallbacks, 2);
    }
}
