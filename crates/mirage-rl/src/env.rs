//! Toy environments for the agent unit tests (compiled only under
//! `cfg(test)`). States are small matrices, actions are `0` / `1`, and
//! `step` returns `(next state, reward, done)`.

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
    pub fn step(&mut self, action: usize) -> (Matrix, f32, bool) {
        let reward = if action == self.correct_action() {
            1.0
        } else {
            -1.0
        };
        (self.reset(), reward, true)
    }
}

/// Deterministic chain MDP of length `n`: action 1 moves right (reward
/// 1 at the end), action 0 resets to the start. Tests bootstrapped
/// credit assignment across steps.
pub struct Chain {
    n: usize,
    pos: usize,
}

impl Chain {
    pub fn new(n: usize) -> Self {
        Self { n, pos: 0 }
    }

    fn encode(&self) -> Matrix {
        Matrix::from_fn(1, self.n, |_, c| if c == self.pos { 1.0 } else { 0.0 })
    }

    /// Back to the start; returns the start state.
    pub fn reset(&mut self) -> Matrix {
        self.pos = 0;
        self.encode()
    }

    pub fn step(&mut self, action: usize) -> (Matrix, f32, bool) {
        if action == 1 {
            self.pos += 1;
            if self.pos >= self.n - 1 {
                let s = self.encode();
                self.pos = 0;
                return (s, 1.0, true);
            }
        } else {
            self.pos = 0;
        }
        (self.encode(), 0.0, false)
    }
}

mod tests {
    use super::*;

    #[test]
    fn chain_rewards_persistent_rightward_policy() {
        let mut env = Chain::new(5);
        env.reset();
        let (mut steps, mut total) = (0, 0.0);
        loop {
            let (_, reward, done) = env.step(1);
            steps += 1;
            total += reward;
            if done {
                break;
            }
            assert!(steps < 100, "episode must terminate");
        }
        assert_eq!(total, 1.0);
        assert_eq!(steps, 4, "n−1 steps to the end");
    }

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
