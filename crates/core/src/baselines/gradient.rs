//! The white-box gradient baselines (§V): Saliency Maps, Gradient*Input,
//! Integrated Gradients.
//!
//! The paper grants these methods access to model parameters — here, the
//! [`GradientOracle`] bound. They produce attribution vectors rather than
//! core parameters, so their [`Interpretation`]s carry no pairwise block.

use crate::decision::Interpretation;
use crate::error::InterpretError;
use crate::openapi::validate_request;
use openapi_api::GradientOracle;
use openapi_linalg::Vector;

/// Which score the gradient is taken of.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScoreKind {
    /// The softmax probability `y_c` ("the prediction", the paper's usage).
    #[default]
    Probability,
    /// The pre-softmax logit `z_c` (common in the saliency literature;
    /// exposed for ablations).
    Logit,
}

impl ScoreKind {
    fn gradient<M: GradientOracle>(&self, model: &M, x: &[f64], class: usize) -> Vector {
        match self {
            ScoreKind::Probability => model.prob_gradient(x, class),
            ScoreKind::Logit => model.logit_gradient(x, class),
        }
    }
}

/// Saliency Maps [Simonyan et al.]: the **absolute value** of the score
/// gradient. Unsigned — the paper's Figure 3 discussion attributes its weak
/// effectiveness to exactly this signlessness.
#[derive(Debug, Clone, Copy, Default)]
pub struct SaliencyMaps {
    /// Score whose gradient is taken.
    pub score: ScoreKind,
}

impl SaliencyMaps {
    /// Computes the attribution for `class` at `x0`.
    ///
    /// # Errors
    /// Argument validation only.
    pub fn interpret<M: GradientOracle>(
        &self,
        model: &M,
        x0: &Vector,
        class: usize,
    ) -> Result<Interpretation, InterpretError> {
        validate_request(model, x0.as_slice(), class)?;
        let g = self.score.gradient(model, x0.as_slice(), class);
        Ok(Interpretation::attribution_only(class, g.abs()))
    }
}

/// Gradient*Input [Shrikumar et al.]: the elementwise product of the score
/// gradient with the input itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct GradientInput {
    /// Score whose gradient is taken.
    pub score: ScoreKind,
}

impl GradientInput {
    /// Computes the attribution for `class` at `x0`.
    ///
    /// # Errors
    /// Argument validation only.
    pub fn interpret<M: GradientOracle>(
        &self,
        model: &M,
        x0: &Vector,
        class: usize,
    ) -> Result<Interpretation, InterpretError> {
        validate_request(model, x0.as_slice(), class)?;
        let g = self.score.gradient(model, x0.as_slice(), class);
        let attribution = g.hadamard(x0).expect("validated dimensions");
        Ok(Interpretation::attribution_only(class, attribution))
    }
}

/// Integrated Gradients [Sundararajan et al.]: the input-minus-baseline
/// times the average gradient along the straight path from the baseline.
#[derive(Debug, Clone)]
pub struct IntegratedGradients {
    /// Score whose gradient is taken.
    pub score: ScoreKind,
    /// Riemann-sum resolution (midpoint rule).
    pub steps: usize,
    /// Path start; `None` means the all-zeros baseline (a black image —
    /// the usual choice for `[0,1]` pixel data).
    pub baseline: Option<Vector>,
}

impl Default for IntegratedGradients {
    fn default() -> Self {
        IntegratedGradients {
            score: ScoreKind::Probability,
            steps: 50,
            baseline: None,
        }
    }
}

impl IntegratedGradients {
    /// Computes the attribution for `class` at `x0`.
    ///
    /// # Errors
    /// Argument validation; [`InterpretError::DimensionMismatch`] when a
    /// custom baseline disagrees with the input dimension.
    pub fn interpret<M: GradientOracle>(
        &self,
        model: &M,
        x0: &Vector,
        class: usize,
    ) -> Result<Interpretation, InterpretError> {
        validate_request(model, x0.as_slice(), class)?;
        assert!(
            self.steps > 0,
            "IntegratedGradients needs at least one step"
        );
        let baseline = match &self.baseline {
            Some(b) => {
                if b.len() != x0.len() {
                    return Err(InterpretError::DimensionMismatch {
                        expected: x0.len(),
                        found: b.len(),
                    });
                }
                b.clone()
            }
            None => Vector::zeros(x0.len()),
        };
        let delta = x0 - &baseline;
        let mut avg_grad = Vector::zeros(x0.len());
        for k in 0..self.steps {
            // Midpoint rule: alpha = (k + 0.5) / steps.
            let alpha = (k as f64 + 0.5) / self.steps as f64;
            let point = &baseline + &delta.scaled(alpha);
            let g = self.score.gradient(model, point.as_slice(), class);
            avg_grad
                .axpy(1.0 / self.steps as f64, &g)
                .expect("dimension invariant");
        }
        let attribution = delta.hadamard(&avg_grad).expect("dimension invariant");
        Ok(Interpretation::attribution_only(class, attribution))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openapi_api::{LinearSoftmaxModel, PredictionApi};
    use openapi_linalg::Matrix;

    fn model() -> LinearSoftmaxModel {
        let w = Matrix::from_rows(&[&[1.0, -0.5], &[-1.0, 0.5]]).unwrap();
        LinearSoftmaxModel::new(w, Vector(vec![0.0, 0.0]))
    }

    #[test]
    fn saliency_is_unsigned() {
        let api = model();
        let x0 = Vector(vec![0.3, 0.4]);
        let s = SaliencyMaps::default().interpret(&api, &x0, 0).unwrap();
        assert!(s.decision_features.iter().all(|v| *v >= 0.0));
        assert!(s.pairwise.is_empty());
    }

    #[test]
    fn saliency_logit_kind_is_abs_weight_column() {
        let api = model();
        let x0 = Vector(vec![0.3, 0.4]);
        let s = SaliencyMaps {
            score: ScoreKind::Logit,
        }
        .interpret(&api, &x0, 0)
        .unwrap();
        // Column 0 of W is (1, -1); saliency is its absolute value.
        assert_eq!(s.decision_features.as_slice(), &[1.0, 1.0]);
    }

    #[test]
    fn gradient_input_is_gradient_times_input() {
        let api = model();
        let x0 = Vector(vec![2.0, -1.0]);
        let gi = GradientInput {
            score: ScoreKind::Logit,
        }
        .interpret(&api, &x0, 0)
        .unwrap();
        // Gradient (1, -1) times input (2, -1) elementwise.
        assert_eq!(gi.decision_features.as_slice(), &[2.0, 1.0]);
    }

    #[test]
    fn integrated_gradients_satisfies_completeness_on_probabilities() {
        // Completeness axiom: Σ attribution = F(x) − F(baseline). Verify to
        // Riemann-sum accuracy.
        let api = model();
        let x0 = Vector(vec![1.2, -0.7]);
        let ig = IntegratedGradients {
            steps: 400,
            ..Default::default()
        };
        let a = ig.interpret(&api, &x0, 0).unwrap();
        let total: f64 = a.decision_features.iter().sum();
        let fx = api.predict(x0.as_slice())[0];
        let f0 = api.predict(&[0.0, 0.0])[0];
        assert!(
            (total - (fx - f0)).abs() < 1e-4,
            "completeness gap {}",
            total - (fx - f0)
        );
    }

    #[test]
    fn integrated_gradients_with_custom_baseline() {
        let api = model();
        let x0 = Vector(vec![1.0, 1.0]);
        let ig = IntegratedGradients {
            steps: 100,
            baseline: Some(x0.clone()),
            ..Default::default()
        };
        // Baseline == input ⇒ zero attribution.
        let a = ig.interpret(&api, &x0, 1).unwrap();
        assert_eq!(a.decision_features.norm_linf(), 0.0);

        let bad = IntegratedGradients {
            baseline: Some(Vector(vec![0.0])),
            ..Default::default()
        };
        assert!(matches!(
            bad.interpret(&api, &x0, 0),
            Err(InterpretError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn validation_catches_bad_class() {
        let api = model();
        let x0 = Vector(vec![0.0, 0.0]);
        assert!(matches!(
            SaliencyMaps::default().interpret(&api, &x0, 5),
            Err(InterpretError::ClassOutOfRange { .. })
        ));
    }
}
