//! Loss functions with analytic gradients.

use crate::tensor::{softmax_in_place, Matrix};

/// Mean squared error over all elements. Returns `(loss, d_pred)`.
#[cfg(any(test, feature = "reference"))]
pub fn mse(pred: &Matrix, target: &Matrix) -> (f32, Matrix) {
    assert_eq!(pred.shape(), target.shape(), "mse shape mismatch");
    let n = (pred.rows() * pred.cols()) as f32;
    let diff = pred.sub(target);
    let loss = diff.data().iter().map(|d| d * d).sum::<f32>() / n;
    let grad = diff.scale(2.0 / n);
    (loss, grad)
}

/// Huber loss (smooth L1) with threshold `delta`. Returns `(loss, d_pred)`.
/// Quadratic near zero, linear in the tails — the standard robust choice
/// for TD targets with outlier rewards.
#[cfg(any(test, feature = "reference"))]
pub fn huber(pred: &Matrix, target: &Matrix, delta: f32) -> (f32, Matrix) {
    assert_eq!(pred.shape(), target.shape(), "huber shape mismatch");
    let n = (pred.rows() * pred.cols()) as f32;
    let mut loss = 0.0;
    let mut grad = Matrix::zeros(pred.rows(), pred.cols());
    for i in 0..pred.data().len() {
        let d = pred.data()[i] - target.data()[i];
        if d.abs() <= delta {
            loss += 0.5 * d * d;
            grad.data_mut()[i] = d / n;
        } else {
            loss += delta * (d.abs() - 0.5 * delta);
            grad.data_mut()[i] = delta * d.signum() / n;
        }
    }
    (loss / n, grad)
}

/// Softmax cross-entropy of a `1 × n` logit row against a class index.
/// Returns `(loss, d_logits)`.
pub fn softmax_cross_entropy(logits: &Matrix, target: usize) -> (f32, Matrix) {
    assert_eq!(logits.rows(), 1, "expects a single logit row");
    assert!(target < logits.cols(), "target class out of range");
    let mut probs: Vec<f32> = logits.row(0).to_vec();
    softmax_in_place(&mut probs);
    let loss = -(probs[target].max(1e-12)).ln();
    let mut grad = Matrix::row_vector(probs);
    grad.set(0, target, grad.get(0, target) - 1.0);
    (loss, grad)
}

/// REINFORCE surrogate for one decision: `L = −advantage · log π(a)` where
/// `π = softmax(logits)`. Returns `(loss, d_logits)`.
///
/// The gradient is `advantage · (π − one_hot(a))`, so positive advantages
/// push probability toward the taken action.
pub fn policy_gradient_loss(logits: &Matrix, action: usize, advantage: f32) -> (f32, Matrix) {
    assert_eq!(logits.rows(), 1, "expects a single logit row");
    assert!(action < logits.cols(), "action out of range");
    let mut probs: Vec<f32> = logits.row(0).to_vec();
    softmax_in_place(&mut probs);
    let loss = -advantage * (probs[action].max(1e-12)).ln();
    let mut grad = Matrix::row_vector(probs).scale(advantage);
    grad.set(0, action, grad.get(0, action) - advantage);
    (loss, grad)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mse_known_values() {
        let p = Matrix::row_vector(vec![1.0, 2.0]);
        let t = Matrix::row_vector(vec![0.0, 4.0]);
        let (loss, grad) = mse(&p, &t);
        assert!((loss - (1.0 + 4.0) / 2.0).abs() < 1e-6);
        assert_eq!(grad.data(), &[1.0, -2.0]);
    }

    #[test]
    fn huber_is_quadratic_inside_linear_outside() {
        let p = Matrix::row_vector(vec![0.5, 5.0]);
        let t = Matrix::row_vector(vec![0.0, 0.0]);
        let (_, grad) = huber(&p, &t, 1.0);
        // Inside: d/2 per element (n=2). Outside: δ·sign/2.
        assert!((grad.get(0, 0) - 0.25).abs() < 1e-6);
        assert!((grad.get(0, 1) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn huber_equals_mse_for_small_errors() {
        let p = Matrix::row_vector(vec![0.1, -0.2]);
        let t = Matrix::zeros(1, 2);
        let (hl, _) = huber(&p, &t, 10.0);
        let (ml, _) = mse(&p, &t);
        assert!((hl - ml / 2.0).abs() < 1e-6, "huber = ½·mse inside δ");
    }

    #[test]
    fn cross_entropy_gradient_is_probs_minus_onehot() {
        let logits = Matrix::row_vector(vec![2.0, 0.0, -1.0]);
        let (loss, grad) = softmax_cross_entropy(&logits, 0);
        assert!(loss > 0.0);
        // Gradient sums to zero and is negative only at the target.
        assert!(grad.data().iter().sum::<f32>().abs() < 1e-5);
        assert!(grad.get(0, 0) < 0.0);
        assert!(grad.get(0, 1) > 0.0 && grad.get(0, 2) > 0.0);
    }

    #[test]
    fn cross_entropy_loss_decreases_with_confidence() {
        let unsure = Matrix::row_vector(vec![0.0, 0.0]);
        let confident = Matrix::row_vector(vec![5.0, 0.0]);
        let (l1, _) = softmax_cross_entropy(&unsure, 0);
        let (l2, _) = softmax_cross_entropy(&confident, 0);
        assert!(l2 < l1);
    }

    #[test]
    fn policy_gradient_sign_follows_advantage() {
        let logits = Matrix::row_vector(vec![0.0, 0.0]);
        // Positive advantage: gradient decreases the taken action's logit
        // loss term → d_logit[action] negative (push probability up).
        let (_, g_pos) = policy_gradient_loss(&logits, 1, 2.0);
        assert!(g_pos.get(0, 1) < 0.0);
        assert!(g_pos.get(0, 0) > 0.0);
        // Negative advantage flips the direction.
        let (_, g_neg) = policy_gradient_loss(&logits, 1, -2.0);
        assert!(g_neg.get(0, 1) > 0.0);
    }

    #[test]
    fn zero_advantage_means_zero_gradient() {
        let logits = Matrix::row_vector(vec![0.3, -0.4]);
        let (loss, grad) = policy_gradient_loss(&logits, 0, 0.0);
        assert_eq!(loss, 0.0);
        assert!(grad.data().iter().all(|g| g.abs() < 1e-9));
    }
}
