//! Property-based tests for the tensor and layer algebra, plus the
//! checkpoint envelope's corruption contract: damaged bytes are typed
//! errors, never panics or silently-wrong parameters. (The CRC stops
//! everything here before the payload reader runs; damage *under* a
//! valid CRC is `serialize`'s `malformed_payloads_are_parse_errors` and
//! `mirage-core`'s `damaged_payloads_are_parse_errors_or_reencode`,
//! which covers all three payload kinds.)

use std::sync::OnceLock;

use mirage_nn::foundation::{FoundationKind, FoundationNet};
use mirage_nn::serialize::{params_from_bytes, params_to_bytes};
use mirage_nn::tensor::Matrix;
use mirage_nn::transformer::TransformerConfig;
use mirage_nn::{Activation, Grads, LayerNorm, Linear, ParamSet, Scratch};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn matrix_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-3.0f32..3.0, rows * cols)
        .prop_map(move |v| Matrix::from_vec(rows, cols, v))
}

/// One sealed reference checkpoint, built once and shared across
/// corruption cases (the bytes being damaged are always the same —
/// only the damage varies).
fn sealed_reference() -> &'static (ParamSet, Vec<u8>) {
    static SEALED: OnceLock<(ParamSet, Vec<u8>)> = OnceLock::new();
    SEALED.get_or_init(|| {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(7);
        ps.alloc("w1", Matrix::xavier(4, 6, &mut rng));
        ps.alloc("b1", Matrix::xavier(1, 6, &mut rng));
        ps.alloc("w2", Matrix::xavier(6, 2, &mut rng));
        let bytes = params_to_bytes(&ps).expect("reference params serialize");
        (ps, bytes)
    })
}

fn params_bitwise_eq(a: &ParamSet, b: &ParamSet) -> bool {
    a.len() == b.len() && a.iter().zip(b.iter()).all(|((_, ma), (_, mb))| ma == mb)
}

proptest! {
    /// (A·B)·C == A·(B·C) within f32 tolerance.
    #[test]
    fn matmul_is_associative(
        a in matrix_strategy(3, 4),
        b in matrix_strategy(4, 5),
        c in matrix_strategy(5, 2),
    ) {
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        for (x, y) in left.data().iter().zip(right.data()) {
            prop_assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    /// Transpose is an involution and (A·B)ᵀ = Bᵀ·Aᵀ.
    #[test]
    fn transpose_laws(a in matrix_strategy(4, 3), b in matrix_strategy(3, 5)) {
        prop_assert_eq!(a.transpose().transpose(), a.clone());
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    /// Softmax rows are probability distributions, invariant to shifts.
    #[test]
    fn softmax_is_shift_invariant_distribution(a in matrix_strategy(3, 6), shift in -5.0f32..5.0) {
        let s1 = a.softmax_rows();
        let s2 = a.map(|v| v + shift).softmax_rows();
        for r in 0..3 {
            let sum: f32 = s1.row(r).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-5);
        }
        for (x, y) in s1.data().iter().zip(s2.data()) {
            prop_assert!((x - y).abs() < 1e-5, "shift changed softmax");
        }
    }

    /// Layer norm always standardizes rows regardless of input scale.
    #[test]
    fn layernorm_standardizes(rows in matrix_strategy(4, 8), scale in 0.1f32..50.0) {
        let mut ps = ParamSet::new();
        let ln = LayerNorm::new(&mut ps, "ln", 8);
        let x = rows.scale(scale);
        let (y, _) = ln.forward(&ps, &x);
        for r in 0..y.rows() {
            let mean: f32 = y.row(r).iter().sum::<f32>() / 8.0;
            prop_assert!(mean.abs() < 1e-3, "row {r} mean {mean}");
        }
    }

    /// Linear layers are affine: f(αx) − f(0) = α(f(x) − f(0)).
    #[test]
    fn linear_is_affine(x in matrix_strategy(1, 6), alpha in -2.0f32..2.0) {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(1);
        let lin = Linear::new(&mut ps, "l", 6, 4, &mut rng);
        let zero = Matrix::zeros(1, 6);
        let (f0, _) = lin.forward(&ps, &zero);
        let (fx, _) = lin.forward(&ps, &x);
        let (fax, _) = lin.forward(&ps, &x.scale(alpha));
        for i in 0..4 {
            let lhs = fax.get(0, i) - f0.get(0, i);
            let rhs = alpha * (fx.get(0, i) - f0.get(0, i));
            prop_assert!((lhs - rhs).abs() < 1e-3);
        }
    }

    /// Activations are monotone non-decreasing (ReLU, Tanh, Identity).
    #[test]
    fn activations_monotone(a in -5.0f32..5.0, b in -5.0f32..5.0) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        for act in [Activation::Relu, Activation::Tanh, Activation::Identity] {
            prop_assert!(act.apply(lo) <= act.apply(hi) + 1e-6);
        }
    }

    /// `forward_into` + a reused [`Scratch`] matches the allocating,
    /// cache-returning `forward` **bit for bit** across random shapes and
    /// parameter seeds — the inference fast path must never drift from the
    /// training path.
    #[test]
    fn forward_into_matches_forward_bitwise(
        seed in 0u64..1_000,
        seq in 1usize..6,
        d_sel in 0usize..2,
        layers in 1usize..3,
        experts in 1usize..4,
    ) {
        let d_model = [4usize, 8][d_sel];
        let cfg = TransformerConfig {
            input_dim: 5,
            seq_len: 6,
            d_model,
            heads: 2,
            layers,
            ff_mult: 2,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        // One scratch reused across kinds AND iterations: stale contents
        // from previous takes must never leak into results.
        let mut scratch = Scratch::new();
        let mut out = Matrix::zeros(0, 0);
        for kind in [
            FoundationKind::Transformer,
            FoundationKind::MoE { experts },
        ] {
            let mut ps = ParamSet::new();
            let net = FoundationNet::new(&mut ps, "f", kind, cfg, &mut rng);
            let x = Matrix::xavier(seq, 5, &mut rng);
            let (reference, _cache) = net.forward(&ps, &x);
            net.forward_into(&ps, &x, &mut out, &mut scratch);
            prop_assert_eq!(&out, &reference, "kind {:?}", kind);
            // Second pass on the warm scratch must be identical too.
            net.forward_into(&ps, &x, &mut out, &mut scratch);
            prop_assert_eq!(&out, &reference, "warm rerun, kind {:?}", kind);
        }
    }

    /// The blocked `matmul_into` equals the definitionally-simple triple
    /// loop bit for bit (the accumulation order contract).
    #[test]
    fn blocked_matmul_matches_naive_accumulation(
        m in 1usize..7, k in 1usize..260, n in 1usize..140, seed in 0u64..1_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Matrix::xavier(m, k, &mut rng);
        let b = Matrix::xavier(k, n, &mut rng);
        let mut out = Matrix::zeros(0, 0);
        a.matmul_into(&b, &mut out);
        let naive = Matrix::from_fn(m, n, |r, c| {
            let mut acc = 0.0f32;
            for i in 0..k {
                acc += a.get(r, i) * b.get(i, c);
            }
            acc
        });
        prop_assert_eq!(out, naive);
    }

    /// One batched forward over `n` row-stacked states equals `n`
    /// sequential `forward_into` calls and `n` per-sample `forward`
    /// calls **bit for bit**, for every foundation kind — the lockstep
    /// episode engine must never drift from per-episode execution.
    #[test]
    fn forward_batch_into_matches_sequential_bitwise(
        seed in 0u64..500,
        batch in 1usize..5,
        seq in 1usize..5,
        experts in 1usize..3,
    ) {
        let cfg = TransformerConfig {
            input_dim: 5,
            seq_len: 5,
            d_model: 8,
            heads: 2,
            layers: 2,
            ff_mult: 2,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut scratch = Scratch::new();
        let mut seq_out = Matrix::zeros(0, 0);
        let mut batch_out = Matrix::zeros(0, 0);
        for kind in [
            FoundationKind::Transformer,
            FoundationKind::MoE { experts },
        ] {
            let mut ps = ParamSet::new();
            let net = FoundationNet::new(&mut ps, "f", kind, cfg, &mut rng);
            let states: Vec<Matrix> = (0..batch).map(|_| Matrix::xavier(seq, 5, &mut rng)).collect();
            let mut stacked = Matrix::zeros(batch * seq, 5);
            for (b, s) in states.iter().enumerate() {
                for r in 0..seq {
                    stacked.row_mut(b * seq + r).copy_from_slice(s.row(r));
                }
            }
            net.forward_batch_into(&ps, &stacked, batch, &mut batch_out, &mut scratch);
            prop_assert_eq!(batch_out.shape(), (batch, 8));
            for (b, s) in states.iter().enumerate() {
                net.forward_into(&ps, s, &mut seq_out, &mut scratch);
                prop_assert_eq!(seq_out.row(0), batch_out.row(b), "row {} kind {:?}", b, kind);
                let (per_sample, _) = net.forward(&ps, s);
                prop_assert_eq!(per_sample.row(0), batch_out.row(b), "row {} kind {:?}", b, kind);
            }
        }
    }

    /// Truncating a valid sealed checkpoint at *any* byte offset is a
    /// typed error — never a panic, never a partial `ParamSet`.
    #[test]
    fn truncated_checkpoints_are_typed_errors(frac in 0.0f64..1.0) {
        let (_, bytes) = sealed_reference();
        let cut = ((bytes.len() as f64) * frac) as usize; // 0..len, never the full file
        let cut = cut.min(bytes.len() - 1);
        prop_assert!(
            params_from_bytes(&bytes[..cut]).is_err(),
            "truncation at {cut}/{} must not load",
            bytes.len()
        );
    }

    /// Flipping any single bit of a sealed checkpoint either fails with
    /// a typed error or (if the flip is somehow harmless) loads the
    /// *exact* original parameters — the loader never hands back
    /// silently-wrong weights.
    #[test]
    fn bit_flipped_checkpoints_never_load_wrong_params(
        byte_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let (original, bytes) = sealed_reference();
        let pos = (((bytes.len() - 1) as f64) * byte_frac) as usize;
        let mut flipped = bytes.clone();
        flipped[pos] ^= 1 << bit;
        match params_from_bytes(&flipped) {
            Err(_) => {}
            Ok(loaded) => prop_assert!(
                params_bitwise_eq(&loaded, original),
                "flip at byte {pos} bit {bit} loaded different params"
            ),
        }
    }

    /// Arbitrary garbage bytes never panic the loader and never load.
    #[test]
    fn garbage_bytes_never_panic_the_loader(garbage in prop::collection::vec(0u8..255, 0..512)) {
        prop_assert!(params_from_bytes(&garbage).is_err(), "garbage must not load");
    }

    /// Gradient accumulation is commutative: merge(a, b) == merge(b, a).
    #[test]
    fn grads_merge_commutes(v1 in prop::collection::vec(-2.0f32..2.0, 6),
                            v2 in prop::collection::vec(-2.0f32..2.0, 6)) {
        let mut ps = ParamSet::new();
        let id = ps.alloc("w", Matrix::zeros(2, 3));
        let mk = |v: &[f32]| {
            let mut g = Grads::new(&ps);
            g.accumulate(id, Matrix::from_vec(2, 3, v.to_vec()));
            g
        };
        let mut ab = mk(&v1);
        ab.merge(mk(&v2));
        let mut ba = mk(&v2);
        ba.merge(mk(&v1));
        for (x, y) in ab.get(id).unwrap().data().iter().zip(ba.get(id).unwrap().data()) {
            prop_assert!((x - y).abs() < 1e-6);
        }
    }
}
