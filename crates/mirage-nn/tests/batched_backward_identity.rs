//! Bit-identity pins for the batched training backward: at every layer,
//! running `backward_batch` over a row-stacked mini-batch into a
//! [`GradSink`] must reproduce the sequential per-sample backward **bit
//! for bit** — same parameter gradients, and, for the layers inside the
//! encoder, same input gradients. The foundations (transformer, MoE) are
//! a network's first layer and have only a params-only batched backward,
//! so their pins compare gradients. These are the contracts the batched
//! DQN/PG update paths stand on.

use mirage_nn::attention::MultiHeadAttention;
use mirage_nn::foundation::{FoundationBatchCache, FoundationKind, FoundationNet};
use mirage_nn::layernorm::{LayerNorm, LayerNormBatchCache};
use mirage_nn::moe::MoEFoundation;
use mirage_nn::tensor::Matrix;
use mirage_nn::transformer::TransformerConfig;
use mirage_nn::{Activation, GradSink, Grads, Linear, ParamSet, Scratch};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn matrix_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-3.0f32..3.0, rows * cols)
        .prop_map(move |v| Matrix::from_vec(rows, cols, v))
}

/// Bitwise gradient equality: same touched parameters, same bits.
fn grads_bit_eq(a: &Grads, b: &Grads) -> bool {
    let av: Vec<_> = a.iter().collect();
    let bv: Vec<_> = b.iter().collect();
    av.len() == bv.len()
        && av.iter().zip(&bv).all(|((ia, ma), (ib, mb))| {
            ia == ib
                && ma.shape() == mb.shape()
                && ma
                    .data()
                    .iter()
                    .zip(mb.data())
                    .all(|(x, y)| x.to_bits() == y.to_bits())
        })
}

fn matrix_bit_eq(a: &Matrix, b: &Matrix) -> bool {
    a.shape() == b.shape()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Extracts block `b` (rows `[b·h, (b+1)·h)`) of a stacked matrix.
fn block(m: &Matrix, b: usize, h: usize) -> Matrix {
    Matrix::from_fn(h, m.cols(), |r, c| m.get(b * h + r, c))
}

/// Widths every shape strategy draws half the time: the lane-vector
/// widths of the kernels (8, 16, 32), one on each side of them, and the
/// narrow and wide ends. The other half are uniform.
const LANDMARK_DIMS: [usize; 12] = [1, 2, 3, 4, 7, 8, 9, 15, 16, 17, 32, 33];

fn dim_strategy(max: usize) -> impl Strategy<Value = usize> {
    (0usize..2, 0..LANDMARK_DIMS.len(), 1..=max).prop_map(move |(pick, l, d)| {
        if pick == 0 {
            LANDMARK_DIMS[l].min(max)
        } else {
            d
        }
    })
}

/// A `rows × cols` matrix of uniform values in `[-3, 3)`.
fn drawn_matrix(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-3.0f32..3.0))
}

/// A LayerNorm input whose rows are uniform, constant (zero variance),
/// all `-0.0`, or uniform with signed zeros mixed in.
fn layernorm_input(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
    let mut m = drawn_matrix(rng, rows, cols);
    for r in 0..rows {
        match rng.gen_range(0u32..4) {
            0 => {}
            1 => m.row_mut(r).fill(rng.gen_range(-3.0f32..3.0)),
            2 => m.row_mut(r).fill(-0.0),
            _ => {
                for v in m.row_mut(r) {
                    match rng.gen_range(0u32..3) {
                        0 => *v = -0.0,
                        1 => *v = 0.0,
                        _ => {}
                    }
                }
            }
        }
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Linear: fused batched backward ≡ sequential per-block backward,
    /// with and without the input gradient, for every lane-tile shape of
    /// the weight-gradient fold and tail, into empty, parked and already
    /// filled gradient slots.
    #[test]
    fn linear_backward_batch_is_bit_identical(
        in_dim in dim_strategy(48),
        out_dim in dim_strategy(40),
        h in 1usize..=13,
        batch in 1usize..=5,
        (seed, prefilled) in (0u64..u64::MAX, 0u32..2),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = drawn_matrix(&mut rng, batch * h, in_dim);
        let dy = drawn_matrix(&mut rng, batch * h, out_dim);
        let mut ps = ParamSet::new();
        let lin = Linear::new(&mut ps, "l", in_dim, out_dim, &mut rng);
        // A gradient already in the slots on entry (`prefilled`), or a
        // cleared accumulator whose parked buffers hold stale values.
        let prior_w = drawn_matrix(&mut rng, in_dim, out_dim);
        let prior_b = drawn_matrix(&mut rng, 1, out_dim);
        let entry = || {
            let mut g = Grads::new(&ps);
            g.accumulate(lin.w, prior_w.clone());
            g.accumulate(lin.b, prior_b.clone());
            if prefilled == 0 {
                g.reset();
            }
            g
        };

        let mut g_ref = entry();
        let mut dx_ref = Matrix::zeros(0, 0);
        for b in 0..batch {
            let (_, cache) = lin.forward(&ps, &block(&x, b, h));
            let dxb = lin.backward(&ps, &cache, &block(&dy, b, h), &mut g_ref);
            for r in 0..h {
                if dx_ref.rows() == 0 {
                    dx_ref.reset(batch * h, dxb.cols());
                }
                dx_ref.row_mut(b * h + r).copy_from_slice(dxb.row(r));
            }
        }

        let mut scratch = Scratch::new();
        let mut g_fused = entry();
        let mut dx = Matrix::zeros(0, 0);
        lin.backward_batch(&ps, &x, &dy, batch, &mut GradSink::Fused(&mut g_fused), Some(&mut dx), &mut scratch);
        prop_assert!(grads_bit_eq(&g_ref, &g_fused), "fused grads diverge");
        prop_assert!(matrix_bit_eq(&dx_ref, &dx), "dx diverges");
        // Without `dx` (a first layer): the same parameter gradients.
        let mut g_params = entry();
        lin.backward_batch(&ps, &x, &dy, batch, &mut GradSink::Fused(&mut g_params), None, &mut scratch);
        prop_assert!(grads_bit_eq(&g_ref, &g_params), "params-only grads diverge");
        prop_assert!(grads_bit_eq(&g_fused, &g_params), "params-only grads differ from the dx arm");
    }

    /// LayerNorm: batched forward + backward ≡ per-block, bitwise, for
    /// widths across the lane vectors and row counts on both sides of the
    /// forward's and the backward's row groups, with constant rows and
    /// signed-zero inputs.
    #[test]
    fn layernorm_batch_is_bit_identical(
        dim in dim_strategy(40),
        h in 1usize..=13,
        batch in 1usize..=4,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = layernorm_input(&mut rng, batch * h, dim);
        let dy = layernorm_input(&mut rng, batch * h, dim);
        let mut ps = ParamSet::new();
        let ln = LayerNorm::new(&mut ps, "ln", dim);
        *ps.get_mut(ln.gamma) = Matrix::xavier(1, dim, &mut rng);
        // Signed-zero shifts keep the sign of a zero `x̂ · γ` in the output.
        *ps.get_mut(ln.beta) = layernorm_input(&mut rng, 1, dim);

        let mut g_ref = Grads::new(&ps);
        let mut y_ref = Matrix::zeros(batch * h, dim);
        let mut dx_ref = Matrix::zeros(batch * h, dim);
        for b in 0..batch {
            let (yb, cache) = ln.forward(&ps, &block(&x, b, h));
            let dxb = ln.backward(&ps, &cache, &block(&dy, b, h), &mut g_ref);
            for r in 0..h {
                y_ref.row_mut(b * h + r).copy_from_slice(yb.row(r));
                dx_ref.row_mut(b * h + r).copy_from_slice(dxb.row(r));
            }
        }

        let mut cache = LayerNormBatchCache::default();
        let mut y = Matrix::zeros(0, 0);
        ln.forward_batch(&ps, &x, &mut y, Some(&mut cache));
        prop_assert!(matrix_bit_eq(&y_ref, &y), "forward diverges");
        let mut g_fused = Grads::new(&ps);
        let mut dx = Matrix::zeros(0, 0);
        ln.backward_batch(&ps, &cache, &dy, batch, &mut GradSink::Fused(&mut g_fused), &mut dx);
        prop_assert!(grads_bit_eq(&g_ref, &g_fused), "grads diverge");
        prop_assert!(matrix_bit_eq(&dx_ref, &dx), "dx diverges");
    }
}

proptest! {
    /// Activation: elementwise batched backward ≡ per-block hadamard form.
    #[test]
    fn activation_backward_into_is_bit_identical(
        x in matrix_strategy(4, 6),
        dy in matrix_strategy(4, 6),
    ) {
        for act in [Activation::Relu, Activation::Gelu, Activation::Tanh, Activation::Identity] {
            let (_, cache) = act.forward(&x);
            let dx_ref = act.backward(&cache, &dy);
            let mut dx = Matrix::zeros(0, 0);
            act.backward_into(&x, &dy, &mut dx);
            prop_assert!(matrix_bit_eq(&dx_ref, &dx), "{act:?} diverges");
        }
    }
}

/// Attention: batched training forward/backward ≡ sequential per-block,
/// bitwise, across several geometries and a warm (reused) cache.
#[test]
fn attention_batch_is_bit_identical() {
    for (seed, seq, d_model, heads, batch) in [
        (0u64, 4, 8, 2, 3),
        (1, 3, 6, 3, 2),
        (2, 5, 8, 4, 1),
        (3, 2, 4, 2, 4),
    ] {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let mha = MultiHeadAttention::new(&mut ps, "a", d_model, heads, &mut rng);
        let mut scratch = Scratch::new();
        let mut cache = mirage_nn::attention::AttentionBatchCache::default();
        // Two rounds through the same retained cache: the second round is
        // the warm path the steady-state update loop runs.
        for round in 0..2u64 {
            let mut xr = StdRng::seed_from_u64(seed ^ (round << 8) ^ 0xA11);
            let x = Matrix::xavier(batch * seq, d_model, &mut xr);
            let dy = Matrix::xavier(batch * seq, d_model, &mut xr);

            let mut g_ref = Grads::new(&ps);
            let mut y_ref = Matrix::zeros(batch * seq, d_model);
            let mut dx_ref = Matrix::zeros(batch * seq, d_model);
            for b in 0..batch {
                let (yb, c) = mha.forward(&ps, &block(&x, b, seq));
                let dxb = mha.backward(&ps, &c, &block(&dy, b, seq), &mut g_ref);
                for r in 0..seq {
                    y_ref.row_mut(b * seq + r).copy_from_slice(yb.row(r));
                    dx_ref.row_mut(b * seq + r).copy_from_slice(dxb.row(r));
                }
            }

            let mut y = Matrix::zeros(0, 0);
            mha.forward_batch(&ps, &x, batch, &mut y, Some(&mut cache), &mut scratch);
            assert!(
                matrix_bit_eq(&y_ref, &y),
                "forward diverges (round {round})"
            );
            let mut g_fused = Grads::new(&ps);
            let mut dx = Matrix::zeros(0, 0);
            mha.backward_batch(
                &ps,
                &cache,
                &dy,
                batch,
                &mut GradSink::Fused(&mut g_fused),
                &mut dx,
                &mut scratch,
            );
            assert!(
                grads_bit_eq(&g_ref, &g_fused),
                "grads diverge (round {round})"
            );
            assert!(matrix_bit_eq(&dx_ref, &dx), "dx diverges (round {round})");
        }
    }
}

/// Full encoder: the batched params-only backward's gradients ≡
/// sequential per-block `backward`, bitwise.
#[test]
fn transformer_batch_train_is_bit_identical() {
    for (seed, seq, batch) in [(0u64, 3, 3), (1, 4, 2), (2, 2, 1), (3, 3, 5)] {
        let cfg = TransformerConfig {
            input_dim: 5,
            seq_len: 4,
            d_model: 8,
            heads: 2,
            layers: 2,
            ff_mult: 2,
        };
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let enc = mirage_nn::transformer::TransformerEncoder::new(&mut ps, "t", cfg, &mut rng);
        let xs = Matrix::xavier(batch * seq, cfg.input_dim, &mut rng);
        let d_pooled = Matrix::xavier(batch, cfg.d_model, &mut rng);

        let mut g_ref = Grads::new(&ps);
        let mut pooled_ref = Matrix::zeros(batch, cfg.d_model);
        for b in 0..batch {
            let (yb, c) = enc.forward(&ps, &block(&xs, b, seq));
            pooled_ref.row_mut(b).copy_from_slice(yb.row(0));
            let dp = Matrix::from_fn(1, cfg.d_model, |_, c2| d_pooled.get(b, c2));
            enc.backward(&ps, &c, &dp, &mut g_ref);
        }

        let mut scratch = Scratch::new();
        let mut cache = mirage_nn::transformer::TransformerBatchCache::default();
        let mut pooled = Matrix::zeros(0, 0);
        enc.forward_batch(&ps, &xs, batch, &mut pooled, Some(&mut cache), &mut scratch);
        assert!(
            matrix_bit_eq(&pooled_ref, &pooled),
            "pooled diverges (seed {seed})"
        );

        let mut g_fused = Grads::new(&ps);
        enc.backward_batch_params(
            &ps,
            &cache,
            &xs,
            &d_pooled,
            &mut GradSink::Fused(&mut g_fused),
            &mut scratch,
        );
        assert!(
            grads_bit_eq(&g_ref, &g_fused),
            "grads diverge (seed {seed})"
        );
    }
}

/// Dense MoE and the foundation dispatch: the batched params-only
/// backward's gradients ≡ sequential per-block `backward`, bitwise — for
/// 1, 2 and 3 experts, a batch of one, sequences shorter than `seq_len`
/// (the gate sees zero-padded rows, whose weight-gradient products are
/// signed zeros) and an output-gradient row of exact zeros.
#[test]
fn moe_and_foundation_batch_train_are_bit_identical() {
    let cfg = TransformerConfig {
        input_dim: 4,
        seq_len: 3,
        d_model: 4,
        heads: 2,
        layers: 1,
        ff_mult: 2,
    };
    // (seed, experts, batch, rows per block, all-zero d_out row)
    let cases = [
        (0u64, 2, 3, 3, None),
        (1, 2, 2, 3, None),
        (2, 1, 1, 3, None),
        (3, 3, 4, 2, Some(1)),
        (4, 3, 1, 1, Some(0)),
        (5, 1, 5, 2, Some(4)),
        (6, 3, 3, 3, Some(0)),
    ];
    for (seed, experts, batch, seq, zero_row) in cases {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let moe = MoEFoundation::new(&mut ps, "m", cfg, experts, &mut rng);
        let xs = Matrix::xavier(batch * seq, cfg.input_dim, &mut rng);
        let mut d_out = Matrix::xavier(batch, cfg.d_model, &mut rng);
        if let Some(r) = zero_row {
            d_out.row_mut(r).fill(0.0);
        }

        let mut g_ref = Grads::new(&ps);
        let mut out_ref = Matrix::zeros(batch, cfg.d_model);
        for b in 0..batch {
            let (yb, c) = moe.forward(&ps, &block(&xs, b, seq));
            out_ref.row_mut(b).copy_from_slice(yb.row(0));
            let dp = Matrix::from_fn(1, cfg.d_model, |_, c2| d_out.get(b, c2));
            moe.backward(&ps, &c, &dp, &mut g_ref);
        }

        // Twice through one retained cache and scratch: the second round
        // is the warm path the steady-state update loop runs.
        let mut scratch = Scratch::new();
        let mut cache = mirage_nn::moe::MoEBatchCache::default();
        let mut out = Matrix::zeros(0, 0);
        for round in 0..2 {
            let case = format!("seed {seed}, {experts} experts, round {round}");
            moe.forward_batch(&ps, &xs, batch, &mut out, Some(&mut cache), &mut scratch);
            assert!(matrix_bit_eq(&out_ref, &out), "forward diverges ({case})");
            let mut g_fused = Grads::new(&ps);
            moe.backward_batch_params(
                &ps,
                &cache,
                &xs,
                &d_out,
                &mut GradSink::Fused(&mut g_fused),
                &mut scratch,
            );
            assert!(grads_bit_eq(&g_ref, &g_fused), "grads diverge ({case})");
        }
    }

    // Foundation dispatch, both kinds.
    for kind in [
        FoundationKind::Transformer,
        FoundationKind::MoE { experts: 3 },
    ] {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(9);
        let net = FoundationNet::new(&mut ps, "f", kind, cfg, &mut rng);
        let (batch, seq) = (2, cfg.seq_len);
        let xs = Matrix::xavier(batch * seq, cfg.input_dim, &mut rng);
        let d_out = Matrix::xavier(batch, cfg.d_model, &mut rng);

        let mut g_ref = Grads::new(&ps);
        for b in 0..batch {
            let (_, c) = net.forward(&ps, &block(&xs, b, seq));
            let dp = Matrix::from_fn(1, cfg.d_model, |_, c2| d_out.get(b, c2));
            net.backward(&ps, &c, &dp, &mut g_ref);
        }

        let mut scratch = Scratch::new();
        let mut cache = FoundationBatchCache::default();
        let mut out = Matrix::zeros(0, 0);
        net.forward_batch(&ps, &xs, batch, &mut out, Some(&mut cache), &mut scratch);
        let mut g_fused = Grads::new(&ps);
        net.backward_batch_params(
            &ps,
            &cache,
            &xs,
            &d_out,
            &mut GradSink::Fused(&mut g_fused),
            &mut scratch,
        );
        assert!(grads_bit_eq(&g_ref, &g_fused), "{kind:?} grads diverge");
    }
}

/// Warm `Grads` reuse: reset + re-accumulate must be bit-identical to a
/// fresh accumulator (copy-on-first-touch, not zero-then-add).
#[test]
fn grads_reset_reuse_is_bit_identical() {
    let mut ps = ParamSet::new();
    let mut rng = StdRng::seed_from_u64(21);
    let lin = Linear::new(&mut ps, "l", 4, 3, &mut rng);
    let x = Matrix::xavier(6, 4, &mut rng);
    let dy = Matrix::xavier(6, 3, &mut rng);
    let mut scratch = Scratch::new();

    let mut warm = Grads::new(&ps);
    let mut dx = Matrix::zeros(0, 0);
    // Poison the warm accumulator with a different pass, then reset.
    let other = Matrix::xavier(6, 3, &mut rng);
    lin.backward_batch(
        &ps,
        &x,
        &other,
        3,
        &mut GradSink::Fused(&mut warm),
        Some(&mut dx),
        &mut scratch,
    );
    warm.reset();
    lin.backward_batch(
        &ps,
        &x,
        &dy,
        3,
        &mut GradSink::Fused(&mut warm),
        Some(&mut dx),
        &mut scratch,
    );

    let mut fresh = Grads::new(&ps);
    lin.backward_batch(
        &ps,
        &x,
        &dy,
        3,
        &mut GradSink::Fused(&mut fresh),
        Some(&mut dx),
        &mut scratch,
    );
    assert!(
        grads_bit_eq(&warm, &fresh),
        "warm reuse diverges from fresh"
    );
}
