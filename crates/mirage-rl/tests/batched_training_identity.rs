//! Agent-level bit-identity contracts for the parallel training paths:
//!
//! * `DqnAgent::train_minibatch_sharded` (multi-thread deterministic
//!   all-reduce) must be bitwise identical to the unsharded update for
//!   every worker count.
//! * `ReplayBuffer::sample_minibatch` / `BalancedReplay::sample_minibatch`
//!   must consume the exact RNG draw stream of `sample_into` and assemble
//!   the same rows.
//! * `PgAgent::train_episodes_sharded` must match `train_episodes`
//!   bitwise.
//!
//! The batched updates' identity to the per-sample oracles lives in the
//! `dqn` and `pg` unit tests: the oracles are `#[cfg(test)]` code of
//! the library, which an integration test cannot reach.

use mirage_nn::foundation::FoundationKind;
use mirage_nn::tensor::Matrix;
use mirage_nn::transformer::TransformerConfig;
use mirage_rl::{
    ActionEncoding, BalancedReplay, DqnAgent, DqnConfig, DualHeadConfig, DualHeadNet,
    EpisodeSample, Experience, MiniBatch, PgAgent, PgConfig, ReplayBuffer,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const KINDS: [FoundationKind; 2] = [
    FoundationKind::Transformer,
    FoundationKind::MoE { experts: 2 },
];

fn tiny_net(kind: FoundationKind, seed: u64) -> DualHeadNet {
    DualHeadNet::new(DualHeadConfig {
        foundation: kind,
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

fn assert_nets_bitwise_eq(a: &DualHeadNet, b: &DualHeadNet, ctx: &str) {
    for ((id_a, m_a), (id_b, m_b)) in a.ps.iter().zip(b.ps.iter()) {
        assert_eq!(id_a, id_b, "{ctx}: param order diverged");
        for (i, (&x, &y)) in m_a.data().iter().zip(m_b.data().iter()).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{ctx}: param {id_a:?} element {i}: {x} vs {y}"
            );
        }
    }
}

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

#[test]
fn dqn_sharded_update_matches_unsharded_bitwise() {
    for kind in KINDS {
        for workers in [2usize, 3, 8] {
            let mut unsharded = DqnAgent::new(tiny_net(kind, 19), DqnConfig::default());
            let mut sharded = unsharded.clone();
            let mut rng = StdRng::seed_from_u64(23);
            let mut mb = MiniBatch::new();
            for step in 0..3 {
                let batch = make_batch(&mut rng, 6, 3);
                let refs: Vec<&Experience> = batch.iter().collect();
                mb.assemble_refs(&refs);
                let lu = unsharded.train_minibatch(&mb);
                let lw = sharded.train_minibatch_sharded(&mb, workers);
                assert_eq!(
                    lu.to_bits(),
                    lw.to_bits(),
                    "{kind:?} W={workers} step {step}: loss {lu} vs {lw}"
                );
                assert_nets_bitwise_eq(
                    &unsharded.net,
                    &sharded.net,
                    &format!("{kind:?} W={workers} step {step}"),
                );
            }
        }
    }
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

fn make_episodes(rng: &mut StdRng, n: usize, cols: usize) -> Vec<EpisodeSample> {
    (0..n)
        .map(|i| EpisodeSample {
            // Varying lengths, including an empty episode (crashed lane).
            steps: (0..(i % 4))
                .map(|t| (Matrix::xavier(2, cols, rng), t % 2))
                .collect(),
            episode_return: rng.gen::<f32>() * 2.0 - 1.0,
        })
        .collect()
}

#[test]
fn pg_sharded_update_matches_unsharded_bitwise() {
    for kind in KINDS {
        for workers in [2usize, 3, 8] {
            let mut unsharded = PgAgent::new(tiny_net(kind, 53), PgConfig::default());
            let mut sharded = unsharded.clone();
            let mut rng = StdRng::seed_from_u64(59);
            for step in 0..3 {
                let eps = make_episodes(&mut rng, 6, 3);
                let lu = unsharded.train_episodes(&eps);
                let lw = sharded.train_episodes_sharded(&eps, workers);
                assert_eq!(
                    lu.to_bits(),
                    lw.to_bits(),
                    "{kind:?} W={workers} step {step}: loss {lu} vs {lw}"
                );
                assert_nets_bitwise_eq(
                    &unsharded.net,
                    &sharded.net,
                    &format!("{kind:?} W={workers} step {step}"),
                );
            }
        }
    }
}
