//! Bit-identity of the one attention core against the per-sample
//! definition, over shapes the older pins never reached: sequence lengths
//! that are not a multiple of the row group or the lane width, head
//! widths from 1 to 32 (the production shape is 12 × 16 with 2 heads, the
//! tune grid reaches `d_head` 16), several heads, several blocks.
//!
//! For every shape, `forward` on each block alone is the reference, and
//! `forward_into`, every block of `forward_batch` without a cache, every
//! block of `forward_batch` with one (output *and* cached attention) and
//! `backward_batch` against per-block `backward` must agree with it in
//! every bit.

use mirage_nn::attention::{AttentionBatchCache, MultiHeadAttention};
use mirage_nn::{GradSink, Grads, Matrix, ParamSet, Scratch};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const D_HEADS: [usize; 6] = [1, 4, 8, 12, 16, 32];
const HEADS: [usize; 3] = [1, 2, 4];
const BATCHES: [usize; 2] = [1, 3];

fn bit_eq(a: &Matrix, b: &Matrix) -> bool {
    a.shape() == b.shape()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

fn grads_bit_eq(a: &Grads, b: &Grads) -> bool {
    let (av, bv): (Vec<_>, Vec<_>) = (a.iter().collect(), b.iter().collect());
    av.len() == bv.len()
        && av
            .iter()
            .zip(&bv)
            .all(|((ia, ma), (ib, mb))| ia == ib && bit_eq(ma, mb))
}

/// Rows `[b·seq, (b+1)·seq)` of a stacked matrix.
fn block(m: &Matrix, b: usize, seq: usize) -> Matrix {
    Matrix::from_fn(seq, m.cols(), |r, c| m.get(b * seq + r, c))
}

/// Holds every entry point to the per-sample definition on one shape.
/// `scratch` and `cache` arrive warm from whatever shape ran before, so
/// stale contents and stale shapes in the work buffers are covered too.
fn check_shape(
    (seq, d_head, heads, batch): (usize, usize, usize, usize),
    seed: u64,
    scratch: &mut Scratch,
    cache: &mut AttentionBatchCache,
) -> Result<(), String> {
    let d_model = d_head * heads;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ps = ParamSet::new();
    let mha = MultiHeadAttention::new(&mut ps, "a", d_model, heads, &mut rng);
    let x = Matrix::from_fn(batch * seq, d_model, |_, _| rng.gen_range(-2.0f32..2.0));
    let dy = Matrix::from_fn(batch * seq, d_model, |_, _| rng.gen_range(-1.0f32..1.0));
    let shape = format!("seq {seq}, d_head {d_head}, heads {heads}, batch {batch}");

    // The definition, block by block.
    let mut y_ref = Matrix::zeros(batch * seq, d_model);
    let mut dx_ref = Matrix::zeros(batch * seq, d_model);
    let mut attn_ref = Vec::new();
    let mut g_ref = Grads::new(&ps);
    let mut y = Matrix::zeros(0, 0);
    for b in 0..batch {
        let xb = block(&x, b, seq);
        let (yb, c) = mha.forward(&ps, &xb);
        mha.forward_into(&ps, &xb, &mut y, scratch);
        if !bit_eq(&yb, &y) {
            return Err(format!("forward_into != forward, block {b} ({shape})"));
        }
        let dxb = mha.backward(&ps, &c, &block(&dy, b, seq), &mut g_ref);
        for r in 0..seq {
            y_ref.row_mut(b * seq + r).copy_from_slice(yb.row(r));
            dx_ref.row_mut(b * seq + r).copy_from_slice(dxb.row(r));
        }
        attn_ref.extend(c.attn().iter().cloned());
    }

    mha.forward_batch(&ps, &x, batch, &mut y, None, scratch);
    if !bit_eq(&y_ref, &y) {
        return Err(format!("uncached forward_batch != forward ({shape})"));
    }

    mha.forward_batch(&ps, &x, batch, &mut y, Some(&mut *cache), scratch);
    if !bit_eq(&y_ref, &y) {
        return Err(format!("cached forward_batch != forward ({shape})"));
    }
    if cache.attn().len() != attn_ref.len() {
        return Err(format!("cached attention count ({shape})"));
    }
    for (i, (a, a_ref)) in cache.attn().iter().zip(&attn_ref).enumerate() {
        if !bit_eq(a_ref, a) {
            return Err(format!(
                "cached attention differs, block {} head {} ({shape})",
                i / heads,
                i % heads
            ));
        }
    }

    let mut g = Grads::new(&ps);
    let mut dx = Matrix::zeros(0, 0);
    mha.backward_batch(
        &ps,
        cache,
        &dy,
        batch,
        &mut GradSink::Fused(&mut g),
        &mut dx,
        scratch,
    );
    if !grads_bit_eq(&g_ref, &g) {
        return Err(format!("backward_batch grads != backward ({shape})"));
    }
    if !bit_eq(&dx_ref, &dx) {
        return Err(format!("backward_batch dx != backward ({shape})"));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `forward` ≡ `forward_into` ≡ each block of uncached `forward_batch`
    /// ≡ each block of cached `forward_batch` (output and cached attention),
    /// and `backward_batch` ≡ per-block `backward`, bit for bit.
    #[test]
    fn attention_core_matches_the_per_sample_definition(
        seq in 1usize..=40,
        warm_seq in 1usize..=40,
        (dh, heads, batch) in (0usize..D_HEADS.len(), 0usize..HEADS.len(), 0usize..BATCHES.len()),
        seed in 0u64..1 << 40,
    ) {
        let mut scratch = Scratch::new();
        let mut cache = AttentionBatchCache::default();
        // A first pass on another shape leaves the arena and the training
        // cache holding buffers of the wrong size, full of old values.
        let warm = (warm_seq, D_HEADS[(dh + 1) % D_HEADS.len()], HEADS[heads], 2);
        prop_assert_eq!(check_shape(warm, seed ^ 1, &mut scratch, &mut cache), Ok(()));
        let shape = (seq, D_HEADS[dh], HEADS[heads], BATCHES[batch]);
        prop_assert_eq!(check_shape(shape, seed, &mut scratch, &mut cache), Ok(()));
    }
}

/// The shapes that matter by name: the serving net (12 × 16, 2 heads),
/// the paper's history length (k = 144), and the head widths 16 and 32
/// where the inference path used to sum its scores in `dot`'s eight-lane
/// order and so disagreed with training in the last bits.
#[test]
fn production_and_wide_head_shapes_match_the_per_sample_definition() {
    let mut scratch = Scratch::new();
    let mut cache = AttentionBatchCache::default();
    for (i, shape) in [
        (12, 8, 2, 1),
        (12, 8, 2, 32),
        (144, 8, 4, 1),
        (12, 16, 2, 3),
        (24, 16, 2, 1),
        (12, 32, 2, 3),
        (24, 32, 1, 1),
    ]
    .into_iter()
    .enumerate()
    {
        assert_eq!(
            check_shape(shape, 7 + i as u64, &mut scratch, &mut cache),
            Ok(())
        );
    }
}
