//! Elementwise activations with exact backward passes.

use serde::{Deserialize, Serialize};

use crate::tensor::Matrix;

/// Supported activation functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// `max(0, x)`.
    Relu,
    /// Gaussian error linear unit (tanh approximation, as in GPT/BERT).
    Gelu,
    /// Hyperbolic tangent.
    Tanh,
    /// Pass-through.
    Identity,
}

/// Forward cache of the per-sample pass: the pre-activation input.
#[cfg(any(test, feature = "reference"))]
#[derive(Debug, Clone)]
pub struct ActivationCache {
    x: Matrix,
}

const GELU_C: f32 = 0.797_884_6; // sqrt(2/π)

/// Branch-free rational `tanh` approximation (the classic 7/6 Padé /
/// Lambert continued-fraction form), saturating to ±1 beyond |x| ≈ 4.97.
///
/// Absolute error stays below ~1e-6 on the rational range and below ~1e-4
/// at the saturation seam — far inside every training tolerance — while
/// vectorizing to a handful of FMAs plus one divide. `libm`'s `tanhf` is
/// the single most expensive operation in a GELU transformer forward;
/// this form is ~5× cheaper and is used consistently by both the forward
/// and the derivative, so gradient checks stay self-consistent.
#[inline]
pub fn fast_tanh(x: f32) -> f32 {
    // Branch-free on purpose: the input clamp keeps the polynomials away
    // from f32 overflow, and the output clamp performs the saturation
    // (the rational form crosses ±1 at |x| ≈ 4.97 and keeps growing), so
    // the whole body vectorizes inside activation loops.
    let x = x.clamp(-20.0, 20.0);
    let x2 = x * x;
    let p = x * (135_135.0 + x2 * (17_325.0 + x2 * (378.0 + x2)));
    let q = 135_135.0 + x2 * (62_370.0 + x2 * (3_150.0 + x2 * 28.0));
    (p / q).clamp(-1.0, 1.0)
}

/// Branch-free `e^x` approximation (Cephes-style `expf`): reduce to
/// `2^n · e^r` with `|r| ≤ ln2/2`, evaluate a degree-6 minimax
/// polynomial for `e^r`, and apply `2^n` exactly through the exponent
/// bits. Relative error stays below ~3e-7 — tighter than f32 matmul
/// noise — and `fast_exp(0) = 1` exactly. NaN in gives NaN out (the RL
/// agents' output checks depend on non-finite values surviving); ±∞
/// clamp like any other out-of-range input.
///
/// `libm`'s `expf` dominates the attention softmax the same way `tanhf`
/// dominated GELU before [`fast_tanh`]: one serial call per score. This
/// body exists to run eight lanes wide inside the softmax loops
/// ([`crate::tensor::softmax_in_place`] and the attention core, which
/// share it so training and inference stay bit-identical), and two
/// innocent-looking steps used to keep it scalar at ~2 ns per element:
/// `f32::clamp`, and the saturating `n as i32` that built the `2^n`
/// scale. The clamp is now two selects and the scale is built with float
/// and bit operations only; results are bit-identical to the old body for
/// every non-NaN input (pinned in the tests against a frozen copy). To
/// check that it still vectorizes after a toolchain change, time
/// `softmax_rows_in_place` on a few hundred elements — ~0.3 ns per
/// element is vector code, ~2 ns is not — or look for `vmulps … ymm` in
/// the disassembly of a softmax loop.
#[inline]
#[allow(clippy::excessive_precision)] // Cephes reference constants, kept verbatim
pub fn fast_exp(x: f32) -> f32 {
    const LOG2E: f32 = std::f32::consts::LOG2_E;
    // ln2 split hi/lo so `x − n·ln2` keeps full precision.
    const LN2_HI: f32 = 0.693_359_375;
    const LN2_LO: f32 = -2.121_944_4e-4;
    // 1.5 · 2^23: adding then subtracting rounds to the nearest integer
    // (in f32's round-to-nearest mode) without a scalar `round` call.
    const ROUND_MAGIC: f32 = 12_582_912.0;
    // 2^23 + 127: added to the integer `n ∈ [−126, 127]` the sum is
    // exact and has `n + 127` in its low mantissa bits.
    const EXPONENT_MAGIC: f32 = 8_388_735.0;
    // Clamp keeps 2^n inside normal-float range: e^-87 ≈ 1.6e-38 is the
    // smallest normal scale, e^88 the largest before overflow. NaN fails
    // both comparisons and passes through.
    let x = if x < -87.0 { -87.0 } else { x };
    let x = if x > 88.0 { 88.0 } else { x };
    let n = (x * LOG2E + ROUND_MAGIC) - ROUND_MAGIC;
    let r = (x - n * LN2_HI) - n * LN2_LO;
    let mut p = 1.987_569_1e-4;
    p = p * r + 1.398_199_9e-3;
    p = p * r + 8.333_452e-3;
    p = p * r + 4.166_579_6e-2;
    p = p * r + 1.666_666_5e-1;
    p = p * r + 5.000_000_2e-1;
    let z = p * r * r + r + 1.0;
    // Shifting the biased exponent `n + 127` from the low mantissa bits
    // into the exponent field (everything above falls off) is `2^n`.
    let scale = f32::from_bits((n + EXPONENT_MAGIC).to_bits() << 23);
    z * scale
}

impl Activation {
    /// Scalar forward.
    #[inline]
    pub fn apply(self, x: f32) -> f32 {
        match self {
            Activation::Relu => x.max(0.0),
            Activation::Gelu => {
                let inner = GELU_C * (x + 0.044715 * x * x * x);
                0.5 * x * (1.0 + fast_tanh(inner))
            }
            Activation::Tanh => fast_tanh(x),
            Activation::Identity => x,
        }
    }

    /// Scalar derivative at `x` (consistent with the [`fast_tanh`]-based
    /// forward, so finite-difference checks agree).
    #[inline]
    pub fn derivative(self, x: f32) -> f32 {
        match self {
            Activation::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Gelu => {
                let u = GELU_C * (x + 0.044715 * x * x * x);
                let t = fast_tanh(u);
                let du = GELU_C * (1.0 + 3.0 * 0.044715 * x * x);
                0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du
            }
            Activation::Tanh => {
                let t = fast_tanh(x);
                1.0 - t * t
            }
            Activation::Identity => 1.0,
        }
    }

    /// In-place matrix forward: no cache, no allocation. Applies the same
    /// scalar [`Activation::apply`] as the per-sample `forward`, so
    /// results are bit-identical.
    pub fn apply_in_place(self, x: &mut Matrix) {
        for v in x.data_mut() {
            *v = self.apply(*v);
        }
    }

    /// Allocation-free backward `dx = dy ⊙ f′(x)` into `dx`: each element
    /// is the same `dy · f′(x)` product as the per-sample `backward`, so
    /// the result is bit-identical regardless of how rows are blocked
    /// into a batch.
    pub fn backward_into(self, x: &Matrix, dy: &Matrix, dx: &mut Matrix) {
        assert_eq!(x.shape(), dy.shape(), "activation backward shape mismatch");
        dx.reset(x.rows(), x.cols());
        for ((o, &xv), &dv) in dx.data_mut().iter_mut().zip(x.data()).zip(dy.data()) {
            *o = dv * self.derivative(xv);
        }
    }
}

/// Per-sample definitions: the oracles the batched passes are pinned to.
#[cfg(any(test, feature = "reference"))]
impl Activation {
    /// Matrix forward.
    pub fn forward(self, x: &Matrix) -> (Matrix, ActivationCache) {
        (x.map(|v| self.apply(v)), ActivationCache { x: x.clone() })
    }

    /// Matrix backward: `dx = dy ⊙ f′(x)`.
    pub fn backward(self, cache: &ActivationCache, dy: &Matrix) -> Matrix {
        let deriv = cache.x.map(|v| self.derivative(v));
        dy.hadamard(&deriv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        let x = Matrix::row_vector(vec![-1.0, 0.0, 2.0]);
        let (y, _) = Activation::Relu.forward(&x);
        assert_eq!(y.data(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn gelu_known_values() {
        // GELU(0) = 0, GELU(large) ≈ identity, GELU(-large) ≈ 0.
        assert_eq!(Activation::Gelu.apply(0.0), 0.0);
        assert!((Activation::Gelu.apply(10.0) - 10.0).abs() < 1e-4);
        assert!(Activation::Gelu.apply(-10.0).abs() < 1e-4);
        // Smooth positive bias near zero: GELU(1) ≈ 0.841.
        assert!((Activation::Gelu.apply(1.0) - 0.841).abs() < 5e-3);
    }

    #[test]
    fn fast_tanh_tracks_libm_tanh() {
        let mut x = -9.0f32;
        while x <= 9.0 {
            let err = (fast_tanh(x) - x.tanh()).abs();
            assert!(err < 2e-4, "fast_tanh({x}) off by {err}");
            x += 0.0137;
        }
        // Exact saturation and sign symmetry.
        assert_eq!(fast_tanh(20.0), 1.0);
        assert_eq!(fast_tanh(-20.0), -1.0);
        assert_eq!(fast_tanh(0.0), 0.0);
        // Monotone across the saturation seam.
        assert!(fast_tanh(4.969) <= fast_tanh(4.971));
    }

    #[test]
    fn fast_exp_tracks_libm_exp() {
        // Relative error under 1e-6 across the softmax-relevant range.
        let mut x = -30.0f32;
        while x <= 30.0 {
            let reference = x.exp();
            let rel = (fast_exp(x) - reference).abs() / reference.max(f32::MIN_POSITIVE);
            assert!(rel < 1e-6, "fast_exp({x}) rel err {rel}");
            x += 0.0173;
        }
        // Exact identity at 0 (softmax of equal logits must be uniform).
        assert_eq!(fast_exp(0.0), 1.0);
        // Saturated tails stay finite and ordered.
        assert!(fast_exp(-100.0) > 0.0 && fast_exp(-100.0) < 1e-37);
        assert!(fast_exp(100.0).is_finite());
        assert!(fast_exp(1.0) > fast_exp(0.999));
    }

    /// The body `fast_exp` had before it was rewritten to vectorize,
    /// frozen: `f32::clamp` and the saturating `n as i32` scale.
    #[allow(clippy::excessive_precision)]
    fn fast_exp_frozen(x: f32) -> f32 {
        let x = x.clamp(-87.0, 88.0);
        let n = (x * std::f32::consts::LOG2_E + 12_582_912.0) - 12_582_912.0;
        let r = (x - n * 0.693_359_375) - n * -2.121_944_4e-4;
        let mut p = 1.987_569_1e-4;
        p = p * r + 1.398_199_9e-3;
        p = p * r + 8.333_452e-3;
        p = p * r + 4.166_579_6e-2;
        p = p * r + 1.666_666_5e-1;
        p = p * r + 5.000_000_2e-1;
        let z = p * r * r + r + 1.0;
        z * f32::from_bits((((n as i32) + 127) << 23) as u32)
    }

    #[test]
    fn fast_exp_matches_frozen_reference() {
        let same = |x: f32| {
            let (new, old) = (fast_exp(x), fast_exp_frozen(x));
            if x.is_nan() {
                // The agents' output checks depend on NaN surviving.
                assert!(new.is_nan() && old.is_nan(), "NaN {:#x} lost", x.to_bits());
            } else {
                assert_eq!(new.to_bits(), old.to_bits(), "fast_exp({x:e})");
            }
        };
        // Every 4 099th bit pattern: both signs, every exponent,
        // subnormals, infinities and NaNs of both kinds.
        (0..=u32::MAX)
            .step_by(4_099)
            .for_each(|b| same(f32::from_bits(b)));
        for x in [-87.0f32, 88.0, 0.0, 1.0, f32::MIN_POSITIVE, 1e-45, f32::MAX] {
            // The value, its neighbours on both sides, and all three negated.
            for b in [x.to_bits().saturating_sub(1), x.to_bits(), x.to_bits() + 1] {
                same(f32::from_bits(b));
                same(-f32::from_bits(b));
            }
        }
        for x in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN, -f32::NAN] {
            same(x);
        }
        assert_eq!(fast_exp(f32::NEG_INFINITY), fast_exp(-87.0));
        assert_eq!(fast_exp(f32::INFINITY), fast_exp(88.0));
        // Both zeros give exactly 1: a score equal to its row maximum
        // shifts to `0.0` or `-0.0` depending on the maximum's sign.
        assert_eq!(fast_exp(-0.0).to_bits(), 1.0f32.to_bits());
        // A dense sweep of where softmax inputs live.
        let mut x = -100.0f32;
        while x <= 100.0 {
            same(x);
            x += 0.000_37;
        }
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let eps = 1e-3f32;
        for act in [
            Activation::Relu,
            Activation::Gelu,
            Activation::Tanh,
            Activation::Identity,
        ] {
            for &x in &[-2.0f32, -0.5, 0.3, 1.7] {
                if act == Activation::Relu && x.abs() < eps {
                    continue; // kink
                }
                let numeric = (act.apply(x + eps) - act.apply(x - eps)) / (2.0 * eps);
                let analytic = act.derivative(x);
                assert!(
                    (numeric - analytic).abs() < 5e-3,
                    "{act:?} at {x}: {analytic} vs {numeric}"
                );
            }
        }
    }

    #[test]
    fn matrix_backward_is_elementwise() {
        let x = Matrix::row_vector(vec![-1.0, 2.0]);
        let (_, cache) = Activation::Relu.forward(&x);
        let dy = Matrix::row_vector(vec![3.0, 3.0]);
        let dx = Activation::Relu.backward(&cache, &dy);
        assert_eq!(dx.data(), &[0.0, 3.0]);
    }
}
