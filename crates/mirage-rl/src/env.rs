//! A toy environment for the agent unit tests (compiled only under
//! `cfg(test)`). States are small matrices, actions are `0` / `1`, and
//! `step` returns `(next state, reward)`.

use mirage_nn::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One-step contextual bandit: the state is a `seq × m` matrix; the
/// rewarded action is 1 if the matrix mean is positive, else 0.
pub struct SignBandit {
    rng: StdRng,
    seq: usize,
    m: usize,
    state: Matrix,
}

impl SignBandit {
    pub fn new(seed: u64, seq: usize, m: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let state = Self::draw(&mut rng, seq, m);
        Self { rng, seq, m, state }
    }

    fn draw(rng: &mut StdRng, seq: usize, m: usize) -> Matrix {
        // Mean offset ±0.5 with noise: clearly separable but not trivial.
        let sign: f32 = if rng.gen::<bool>() { 0.5 } else { -0.5 };
        Matrix::from_fn(seq, m, |_, _| sign + rng.gen_range(-0.4..0.4))
    }

    pub fn correct_action(&self) -> usize {
        usize::from(self.state.sum() > 0.0)
    }

    /// Draws a fresh state and returns it.
    pub fn reset(&mut self) -> Matrix {
        self.state = Self::draw(&mut self.rng, self.seq, self.m);
        self.state.clone()
    }

    /// ±1 for the (in)correct action; every step ends the episode and
    /// draws the next state.
    pub fn step(&mut self, action: usize) -> (Matrix, f32) {
        let reward = if action == self.correct_action() {
            1.0
        } else {
            -1.0
        };
        (self.reset(), reward)
    }
}

mod tests {
    use super::*;

    #[test]
    fn bandit_rewards_match_the_sign_rule() {
        let mut env = SignBandit::new(1, 2, 3);
        for _ in 0..20 {
            let correct = env.correct_action();
            assert_eq!(env.step(correct).1, 1.0);
            let wrong = 1 - env.correct_action();
            assert_eq!(env.step(wrong).1, -1.0);
        }
    }
}
