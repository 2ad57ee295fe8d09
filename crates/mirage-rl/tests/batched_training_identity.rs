//! The replay samplers' bit-identity contract:
//! `ReplayBuffer::sample_minibatch` / `BalancedReplay::sample_minibatch`
//! must consume the exact RNG draw stream of `sample_into` and assemble
//! the same rows.
//!
//! The batched updates' identity to the per-sample oracles lives in the
//! `dqn` and `pg` unit tests: the oracles are `#[cfg(test)]` code of
//! the library, which an integration test cannot reach.

use mirage_nn::tensor::Matrix;
use mirage_rl::{BalancedReplay, Experience, MiniBatch, ReplayBuffer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `n` production-shaped experiences over `2 × cols` states: both
/// actions, random rewards.
fn make_batch(rng: &mut StdRng, n: usize, cols: usize) -> Vec<Experience> {
    (0..n)
        .map(|i| {
            let state = Matrix::xavier(2, cols, rng);
            let reward = rng.gen::<f32>() - 0.5;
            Experience::terminal(state, i % 2, reward)
        })
        .collect()
}

fn assert_minibatch_matches_refs(mb: &MiniBatch, refs: &[&Experience], ctx: &str) {
    let mut expect = MiniBatch::new();
    expect.assemble_refs(refs);
    assert_eq!(mb.len, expect.len, "{ctx}: len");
    assert_eq!(mb.seq, expect.seq, "{ctx}: seq");
    assert_eq!(mb.actions, expect.actions, "{ctx}: actions");
    assert_eq!(
        mb.states.shape(),
        expect.states.shape(),
        "{ctx}: states shape"
    );
    for (&x, &y) in mb.states.data().iter().zip(expect.states.data().iter()) {
        assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: states payload");
    }
    for (r, (&x, &y)) in mb.rewards.iter().zip(expect.rewards.iter()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: reward {r}");
    }
}

#[test]
fn replay_sample_minibatch_consumes_the_sample_into_draw_stream() {
    let mut fill_rng = StdRng::seed_from_u64(31);
    let mut plain = ReplayBuffer::new(16);
    let mut balanced = BalancedReplay::new(16, 16);
    for e in make_batch(&mut fill_rng, 12, 3) {
        plain.push(e.clone());
        balanced.push(e);
    }

    for n in [1usize, 4, 9] {
        // Plain buffer: identical draws, identical rows.
        let mut rng_a = StdRng::seed_from_u64(100 + n as u64);
        let mut rng_b = rng_a.clone();
        let mut refs = Vec::new();
        plain.sample_into(&mut rng_a, n, &mut refs);
        let mut mb = MiniBatch::new();
        plain.sample_minibatch(&mut rng_b, n, &mut mb);
        assert_minibatch_matches_refs(&mb, &refs, &format!("plain n={n}"));
        // Both samplers must leave the RNG at the same point.
        assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>(), "plain n={n}: rng");

        // Balanced buffer: same wait/submit split and draw order.
        let mut rng_a = StdRng::seed_from_u64(200 + n as u64);
        let mut rng_b = rng_a.clone();
        refs.clear();
        balanced.sample_into(&mut rng_a, n, &mut refs);
        balanced.sample_minibatch(&mut rng_b, n, &mut mb);
        assert_minibatch_matches_refs(&mb, &refs, &format!("balanced n={n}"));
        assert_eq!(
            rng_a.gen::<u64>(),
            rng_b.gen::<u64>(),
            "balanced n={n}: rng"
        );
    }
}
