//! Probability utilities shared by every model implementation.
//!
//! All PLMs in this workspace emit probabilities through the same stable
//! softmax, and all black-box interpreters consume them through the same
//! clamped log-ratio — so softmax-saturation behaviour (paper §V-D) is
//! uniform and attributable.

use openapi_linalg::Vector;

/// Numerically stable softmax: subtracts the max logit before
/// exponentiating, so no overflow occurs for any finite input.
///
/// Returns a probability vector (non-negative, sums to 1).
///
/// # Panics
/// Panics on an empty slice.
pub fn softmax(logits: &[f64]) -> Vector {
    assert!(!logits.is_empty(), "softmax of empty logits");
    let max = logits.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let mut out: Vec<f64> = logits.iter().map(|z| (z - max).exp()).collect();
    let sum: f64 = out.iter().sum();
    for o in &mut out {
        *o /= sum;
    }
    Vector(out)
}

/// Stable log-softmax: `z_c − max(z) − ln Σ exp(z_j − max(z))`.
///
/// Useful for cross-entropy losses where `ln(softmax)` would underflow.
///
/// # Panics
/// Panics on an empty slice.
pub fn stable_log_softmax(logits: &[f64]) -> Vector {
    assert!(!logits.is_empty(), "log_softmax of empty logits");
    let max = logits.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let lse = logits.iter().map(|z| (z - max).exp()).sum::<f64>().ln();
    Vector(logits.iter().map(|z| z - max - lse).collect())
}

/// The paper's Equation 2 right-hand side: `ln(y_c / y_{c'})` from a
/// probability vector.
///
/// Probabilities are clamped to `f64::MIN_POSITIVE` before the logarithm so
/// a saturated softmax (a class probability rounded to exactly 0) yields a
/// large-but-finite ratio instead of ±inf. This mirrors what a real client
/// of a prediction API can do, and deliberately *surfaces* the saturation
/// instability the paper discusses rather than hiding it.
///
/// # Panics
/// Panics when either class index is out of range.
pub fn log_ratio(probs: &[f64], c: usize, c_prime: usize) -> f64 {
    clamped_ln(probs[c]) - clamped_ln(probs[c_prime])
}

/// `ln(max(p, f64::MIN_POSITIVE))`: one term of [`log_ratio`], for callers
/// that form many ratios against the same class.
pub fn clamped_ln(p: f64) -> f64 {
    p.max(f64::MIN_POSITIVE).ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_sums_to_one_and_orders_by_logit() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        let sum: f64 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!(p[2] > p[1] && p[1] > p[0]);
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = softmax(&[1.0, 2.0, 3.0]);
        let b = softmax(&[1001.0, 1002.0, 1003.0]);
        for i in 0..3 {
            assert!((a[i] - b[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn softmax_survives_extreme_logits() {
        let p = softmax(&[-1e8, 0.0, 1e8]);
        assert!(p.is_finite());
        assert!((p[2] - 1.0).abs() < 1e-12);
        assert_eq!(p[0], 0.0);
    }

    #[test]
    fn uniform_logits_give_uniform_probabilities() {
        let p = softmax(&[5.0; 4]);
        for i in 0..4 {
            assert!((p[i] - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn log_softmax_matches_ln_of_softmax_when_safe() {
        let z = [0.3, -1.2, 2.0];
        let p = softmax(&z);
        let lp = stable_log_softmax(&z);
        for i in 0..3 {
            assert!((lp[i] - p[i].ln()).abs() < 1e-12);
        }
    }

    #[test]
    fn log_ratio_is_logit_difference_for_softmax_outputs() {
        // For y = softmax(z): ln(y_c/y_c') = z_c − z_c' exactly.
        let z = [0.5, -0.25, 1.75];
        let p = softmax(&z);
        for c in 0..3 {
            for cp in 0..3 {
                let lr = log_ratio(p.as_slice(), c, cp);
                assert!(
                    (lr - (z[c] - z[cp])).abs() < 1e-10,
                    "({c},{cp}): {lr} vs {}",
                    z[c] - z[cp]
                );
            }
        }
    }

    #[test]
    fn log_ratio_clamps_saturated_probabilities() {
        let probs = [1.0, 0.0];
        let lr = log_ratio(&probs, 0, 1);
        assert!(lr.is_finite());
        assert!(lr > 700.0, "clamped ratio must be very large: {lr}");
        assert_eq!(log_ratio(&probs, 1, 0), -lr);
    }

    #[test]
    fn log_ratio_same_class_is_zero() {
        let probs = [0.3, 0.7];
        assert_eq!(log_ratio(&probs, 1, 1), 0.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn softmax_empty_panics() {
        let _ = softmax(&[]);
    }
}
