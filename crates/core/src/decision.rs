//! Decision features and core parameters (paper §IV-A), plus the region
//! fingerprint the region cache (see [`crate::cache`]) dedupes on.

use crate::error::InterpretError;
use openapi_api::log_ratio;
use openapi_linalg::Vector;

/// The recovered core parameters of one class contrast:
/// `(D_{c,c'}, B_{c,c'})` such that `ln(y_c/y_{c'}) = D_{c,c'}ᵀx + B_{c,c'}`
/// throughout the locally linear region.
#[derive(Debug, Clone, PartialEq)]
pub struct PairwiseCoreParams {
    /// The contrast class `c'`.
    pub c_prime: usize,
    /// `D_{c,c'} = W_c − W_{c'}` — the pairwise decision features.
    pub weights: Vector,
    /// `B_{c,c'} = b_c − b_{c'}` — the pairwise bias difference.
    pub bias: f64,
}

impl PairwiseCoreParams {
    /// Whether these core parameters explain an observed prediction: checks
    /// `|D_{c,c'}ᵀx + B_{c,c'} − ln(y_c/y_{c'})| ≤ rtol · max(1, |ln(y_c/y_{c'})|)`.
    ///
    /// By Theorem 2, the core parameters hold throughout `x`'s locally
    /// linear region; a probe that violates this identity for any contrast
    /// therefore lies in a *different* region (with probability 1).
    ///
    /// Shape mismatches — `x`'s dimension disagreeing with the recovered
    /// weights, or a class index out of range of `probs` — return `false`
    /// rather than panicking: parameters recovered from a *different model*
    /// cannot explain this probe, and membership scans must be able to say
    /// so safely (a region cache warm-started from a stale or mismatched
    /// snapshot must degrade to misses, never take the serving thread
    /// down — see `openapi-serve`'s snapshot module).
    pub fn explains(&self, x: &Vector, probs: &[f64], class: usize, rtol: f64) -> bool {
        if class >= probs.len() || self.c_prime >= probs.len() {
            return false;
        }
        let Ok(dot) = self.weights.dot(x) else {
            return false;
        };
        let predicted = dot + self.bias;
        let observed = log_ratio(probs, class, self.c_prime);
        (predicted - observed).abs() <= rtol * observed.abs().max(1.0)
    }
}

/// Canonical identity of a locally linear region, derived from recovered
/// core parameters.
///
/// Theorem 2 guarantees every instance of a region recovers the *identical*
/// core parameters (up to solver round-off), so hashing a canonicalized
/// (rounded) encoding of `(c', D_{c,c'}, B_{c,c'})` over all contrasts
/// yields a stable per-region key without any oracle access. Round-off
/// landing exactly on a rounding boundary can split one region over two
/// fingerprints — that costs a duplicate cache entry, never a wrong answer,
/// because lookups verify membership against the actual parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionFingerprint(pub u64);

/// FNV-1a over a byte stream — deterministic across processes and
/// platforms, unlike `std::collections::hash_map::DefaultHasher`.
fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// Canonicalizes recovered core parameters into a [`RegionFingerprint`].
///
/// Each parameter is rounded to `digits` decimal places before hashing so
/// solver round-off (≪ the rounding step for any sane `digits`) maps
/// same-region recoveries to the same key.
pub fn region_fingerprint(pairwise: &[PairwiseCoreParams], digits: u32) -> RegionFingerprint {
    let scale = 10f64.powi(digits as i32);
    // +0.0 so −0.0 and +0.0 (and any value rounding to zero) hash alike.
    let quantize = |v: f64| ((v * scale).round() + 0.0).to_bits();
    let mut hash = 0xCBF2_9CE4_8422_2325u64; // FNV offset basis
    for p in pairwise {
        fnv1a(&mut hash, &(p.c_prime as u64).to_le_bytes());
        fnv1a(&mut hash, &quantize(p.bias).to_le_bytes());
        for &w in p.weights.iter() {
            fnv1a(&mut hash, &quantize(w).to_le_bytes());
        }
    }
    RegionFingerprint(hash)
}

/// A complete interpretation of one prediction.
#[derive(Debug, Clone, PartialEq)]
pub struct Interpretation {
    /// The interpreted class `c`.
    pub class: usize,
    /// The class decision features `D_c` (Equation 1) — the attribution
    /// vector all experiments consume.
    pub decision_features: Vector,
    /// Per-contrast core parameters, when the method recovers them
    /// (OpenAPI, the naive method, LIME, ZOO do; the gradient baselines
    /// yield only an attribution vector and leave this empty).
    pub pairwise: Vec<PairwiseCoreParams>,
}

/// Applies Equation 1: `D_c = (1/(C−1)) Σ_{c'≠c} D_{c,c'}`.
///
/// # Errors
/// [`InterpretError::TooFewClasses`] when `pairwise` is empty, and
/// [`InterpretError::DimensionMismatch`] when contrast vectors disagree on
/// dimension.
pub fn decision_features_from_pairwise(
    pairwise: &[PairwiseCoreParams],
) -> Result<Vector, InterpretError> {
    let first = pairwise
        .first()
        .ok_or(InterpretError::TooFewClasses { num_classes: 1 })?;
    let d = first.weights.len();
    let mut acc = Vector::zeros(d);
    for p in pairwise {
        if p.weights.len() != d {
            return Err(InterpretError::DimensionMismatch {
                expected: d,
                found: p.weights.len(),
            });
        }
        acc.axpy(1.0, &p.weights).expect("length checked above");
    }
    acc.scale(1.0 / pairwise.len() as f64);
    Ok(acc)
}

impl Interpretation {
    /// Builds an interpretation from recovered pairwise core parameters.
    ///
    /// # Errors
    /// Propagates [`decision_features_from_pairwise`] failures.
    pub fn from_pairwise(
        class: usize,
        pairwise: Vec<PairwiseCoreParams>,
    ) -> Result<Self, InterpretError> {
        let decision_features = decision_features_from_pairwise(&pairwise)?;
        Ok(Interpretation {
            class,
            decision_features,
            pairwise,
        })
    }

    /// Builds an attribution-only interpretation (gradient baselines).
    pub fn attribution_only(class: usize, decision_features: Vector) -> Self {
        Interpretation {
            class,
            decision_features,
            pairwise: Vec::new(),
        }
    }

    /// The recovered contrast against `c_prime`, if present.
    pub fn contrast(&self, c_prime: usize) -> Option<&PairwiseCoreParams> {
        self.pairwise.iter().find(|p| p.c_prime == c_prime)
    }

    /// Whether this interpretation's core parameters explain the prediction
    /// `probs` observed at `x` — i.e. whether `x` lies in the same locally
    /// linear region (Theorem 2). Every recovered contrast must pass
    /// [`PairwiseCoreParams::explains`]; attribution-only interpretations
    /// (no contrasts) explain nothing.
    ///
    /// The test is exact only at `rtol → 0`: at a finite tolerance, an `x`
    /// within roughly `rtol` of a region boundary can also pass for the
    /// adjacent region, whose behaviour at `x` differs by less than the
    /// tolerance (PLMs are continuous across boundaries).
    ///
    /// Shape mismatches between the recovered parameters and `(x, probs)`
    /// — parameters from a different model — answer `false` rather than
    /// panicking (see [`PairwiseCoreParams::explains`]).
    pub fn explains_probe(&self, x: &Vector, probs: &[f64], rtol: f64) -> bool {
        !self.pairwise.is_empty()
            && self
                .pairwise
                .iter()
                .all(|p| p.explains(x, probs, self.class, rtol))
    }

    /// The canonical region fingerprint of this interpretation's recovered
    /// core parameters (see [`region_fingerprint`]).
    pub fn fingerprint(&self, digits: u32) -> RegionFingerprint {
        region_fingerprint(&self.pairwise, digits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(c_prime: usize, w: Vec<f64>, b: f64) -> PairwiseCoreParams {
        PairwiseCoreParams {
            c_prime,
            weights: Vector(w),
            bias: b,
        }
    }

    #[test]
    fn equation_one_is_the_mean_of_contrasts() {
        let pw = vec![pair(1, vec![1.0, 2.0], 0.5), pair(2, vec![3.0, -2.0], -0.5)];
        let d = decision_features_from_pairwise(&pw).unwrap();
        assert_eq!(d.as_slice(), &[2.0, 0.0]);
    }

    #[test]
    fn single_contrast_passes_through() {
        // Binary classification: D_c = D_{c,c'}.
        let pw = vec![pair(1, vec![4.0, -1.0], 0.0)];
        let d = decision_features_from_pairwise(&pw).unwrap();
        assert_eq!(d.as_slice(), &[4.0, -1.0]);
    }

    #[test]
    fn empty_contrasts_error() {
        assert!(matches!(
            decision_features_from_pairwise(&[]),
            Err(InterpretError::TooFewClasses { .. })
        ));
    }

    #[test]
    fn ragged_contrasts_error() {
        let pw = vec![pair(1, vec![1.0], 0.0), pair(2, vec![1.0, 2.0], 0.0)];
        assert!(matches!(
            decision_features_from_pairwise(&pw),
            Err(InterpretError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn interpretation_constructors() {
        let pw = vec![pair(1, vec![2.0], 0.25)];
        let i = Interpretation::from_pairwise(0, pw).unwrap();
        assert_eq!(i.class, 0);
        assert_eq!(i.decision_features.as_slice(), &[2.0]);
        assert!(i.contrast(1).is_some());
        assert!(i.contrast(2).is_none());

        let a = Interpretation::attribution_only(3, Vector(vec![1.0]));
        assert!(a.pairwise.is_empty());
        assert_eq!(a.class, 3);
    }

    #[test]
    fn fingerprint_is_stable_under_round_off() {
        let a = vec![pair(1, vec![0.5, -0.25], 0.125)];
        let b = vec![pair(1, vec![0.5 + 1e-12, -0.25 - 1e-12], 0.125 + 1e-12)];
        assert_eq!(region_fingerprint(&a, 6), region_fingerprint(&b, 6));
    }

    #[test]
    fn fingerprint_distinguishes_regions_and_contrasts() {
        let a = vec![pair(1, vec![0.5, -0.25], 0.125)];
        let b = vec![pair(1, vec![0.5, -0.25], 0.5)];
        let c = vec![pair(2, vec![0.5, -0.25], 0.125)];
        assert_ne!(region_fingerprint(&a, 6), region_fingerprint(&b, 6));
        assert_ne!(region_fingerprint(&a, 6), region_fingerprint(&c, 6));
    }

    #[test]
    fn fingerprint_treats_signed_zero_alike() {
        let a = vec![pair(1, vec![0.0], 0.0)];
        let b = vec![pair(1, vec![-0.0], -1e-12)];
        assert_eq!(region_fingerprint(&a, 6), region_fingerprint(&b, 6));
    }

    #[test]
    fn explains_accepts_in_region_probes_and_rejects_foreign_ones() {
        // Core params D = (1, −1), B = 0.5 for contrast (0, 1).
        let p = pair(1, vec![1.0, -1.0], 0.5);
        let x = Vector(vec![0.3, 0.1]);
        // ln(y0/y1) must equal D·x + B = 0.7; build consistent probs.
        let r = 0.7f64.exp();
        let y1 = 1.0 / (1.0 + r);
        let probs = [r * y1, y1];
        assert!(p.explains(&x, &probs, 0, 1e-9));
        let i = Interpretation::from_pairwise(0, vec![p]).unwrap();
        assert!(i.explains_probe(&x, &probs, 1e-9));
        // A probe from a different region fails the identity.
        assert!(!i.explains_probe(&x, &[0.9, 0.1], 1e-9));
        // Attribution-only interpretations never claim membership.
        let a = Interpretation::attribution_only(0, Vector(vec![1.0, -1.0]));
        assert!(!a.explains_probe(&x, &probs, 1e-9));
    }

    #[test]
    fn mismatched_shapes_answer_false_instead_of_panicking() {
        // Regression: parameters recovered from a different model (wrong
        // dimensionality, or contrast classes the probed model does not
        // have) must fail membership safely — a cache warm-started from a
        // mismatched snapshot degrades to misses, never panics a scan.
        let p = pair(4, vec![1.0, -1.0], 0.5); // c' = 4: not in a 2-class probe
        let x = Vector(vec![0.3, 0.1]);
        let probs = [0.6, 0.4];
        assert!(!p.explains(&x, &probs, 0, 1e-6));
        let i = Interpretation::from_pairwise(0, vec![p]).unwrap();
        assert!(!i.explains_probe(&x, &probs, 1e-6));
        // Wrong dimensionality (weights are 2-dim, x is 3-dim).
        let wide = Vector(vec![0.1, 0.2, 0.3]);
        let q = pair(1, vec![1.0, -1.0], 0.0);
        assert!(!q.explains(&wide, &probs, 0, 1e-6));
        // Interpreted class out of the probe's range.
        let r = Interpretation::from_pairwise(5, vec![pair(1, vec![1.0, -1.0], 0.0)]).unwrap();
        assert!(!r.explains_probe(&x, &probs, 1e-6));
    }
}
