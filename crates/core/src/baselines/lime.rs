//! The paper's extended LIME baselines (§V): fit the log-probability ratio
//! with a linear model over hypercube perturbations.
//!
//! Standard LIME regresses the predicted probability `y_c`; the paper's
//! extension instead regresses `ln(y_c / y_{c'})`, which inside one locally
//! linear region *is* an affine function of the input — so the regression
//! coefficients approximate the core parameters `(D_{c,c'}, B_{c,c'})`
//! directly, and Equation 1 assembles `D_c`. Two regressors are evaluated:
//! ordinary least squares (`Linear Regression LIME`) and ridge regression
//! (`Ridge Regression LIME`), whose shrinkage is exactly what collapses its
//! fits toward constants at small perturbation distances (paper §V-D).

use crate::decision::{Interpretation, PairwiseCoreParams};
use crate::equations::{EquationSystem, Probe};
use crate::error::InterpretError;
use crate::openapi::validate_request;
use crate::sampler::sample_many;
use openapi_api::PredictionApi;
use openapi_linalg::{LuFactor, Matrix, QrFactor, Vector};
use rand::Rng;

/// Which regression fits the perturbation set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LimeRegressor {
    /// Ordinary least squares — the paper's `Linear Regression LIME`, `L(h)`.
    Linear,
    /// Ridge regression with penalty `lambda` (intercept unpenalized) — the
    /// paper's `Ridge Regression LIME`, `R(h)`.
    Ridge {
        /// L2 penalty weight.
        lambda: f64,
    },
}

/// LIME parameters.
#[derive(Debug, Clone)]
pub struct LimeConfig {
    /// Perturbation distance `h` (hypercube edge around `x0`).
    pub perturbation_distance: f64,
    /// Number of perturbed instances sampled (plus `x0` itself). For the
    /// OLS regressor this must be ≥ `d` so the design matrix has full
    /// column rank; the default (`0`) auto-selects `2(d + 1)` samples,
    /// twice-overdetermined as is customary for LIME surrogates.
    pub num_samples: usize,
    /// Regressor choice.
    pub regressor: LimeRegressor,
}

impl LimeConfig {
    /// Linear-regression LIME at perturbation distance `h`.
    pub fn linear(h: f64) -> Self {
        LimeConfig {
            perturbation_distance: h,
            num_samples: 0,
            regressor: LimeRegressor::Linear,
        }
    }

    /// Ridge-regression LIME at perturbation distance `h` with the classic
    /// scikit-learn default penalty `λ = 1.0` (the setting whose collapse
    /// the paper dissects).
    pub fn ridge(h: f64) -> Self {
        LimeConfig {
            perturbation_distance: h,
            num_samples: 0,
            regressor: LimeRegressor::Ridge { lambda: 1.0 },
        }
    }

    /// The actual sample count for dimensionality `d` (resolves the `0`
    /// auto default to `2(d + 1)`).
    pub fn resolved_samples(&self, d: usize) -> usize {
        if self.num_samples == 0 {
            2 * (d + 1)
        } else {
            self.num_samples
        }
    }
}

/// The extended-LIME interpreter.
#[derive(Debug, Clone)]
pub struct LimeInterpreter {
    config: LimeConfig,
}

impl LimeInterpreter {
    /// Creates the interpreter.
    ///
    /// # Panics
    /// Panics when the perturbation distance is not positive/finite or a
    /// ridge `lambda` is negative.
    pub fn new(config: LimeConfig) -> Self {
        assert!(
            config.perturbation_distance.is_finite() && config.perturbation_distance > 0.0,
            "perturbation distance must be positive"
        );
        if let LimeRegressor::Ridge { lambda } = config.regressor {
            assert!(
                lambda.is_finite() && lambda >= 0.0,
                "ridge lambda must be non-negative"
            );
        }
        LimeInterpreter { config }
    }

    /// Fits the surrogate and returns the interpretation for `class`.
    ///
    /// # Errors
    /// Argument errors as in OpenAPI; [`InterpretError::Numerical`] when the
    /// regression is degenerate (rank-deficient OLS design, singular ridge
    /// normal equations).
    pub fn interpret<M: PredictionApi, R: Rng>(
        &self,
        api: &M,
        x0: &Vector,
        class: usize,
        rng: &mut R,
    ) -> Result<Interpretation, InterpretError> {
        validate_request(api, x0.as_slice(), class)?;
        let (d, c_total) = (api.dim(), api.num_classes());

        let n = self.config.resolved_samples(d);
        let mut probes = Vec::with_capacity(n + 1);
        probes.push(Probe::query(api, x0.clone()));
        for x in sample_many(x0.as_slice(), self.config.perturbation_distance, n, rng) {
            probes.push(Probe::query(api, x));
        }
        let system = EquationSystem::new(probes);
        let design = system.coefficients();

        // Factor the shared design once, solve per contrast.
        enum Fitted {
            Ols(QrFactor),
            Ridge(LuFactor, Matrix), // (factored normal matrix, design)
        }
        let fitted = match self.config.regressor {
            LimeRegressor::Linear => Fitted::Ols(QrFactor::new(design)?),
            LimeRegressor::Ridge { lambda } => {
                let k = design.cols();
                let mut normal = design.transpose().matmul(design)?;
                for i in 1..k {
                    // Intercept (column 0) unpenalized, matching sklearn's
                    // Ridge(fit_intercept=True) that LIME uses.
                    normal[(i, i)] += lambda;
                }
                Fitted::Ridge(LuFactor::new(&normal)?, design.clone())
            }
        };

        let mut pairwise = Vec::with_capacity(c_total - 1);
        for c_prime in (0..c_total).filter(|&cp| cp != class) {
            let rhs = system.rhs(class, c_prime);
            let coef = match &fitted {
                Fitted::Ols(qr) => qr.solve_lstsq(&rhs)?.0,
                Fitted::Ridge(lu, design) => {
                    let atb = design.matvec_t(&rhs)?;
                    lu.solve(atb.as_slice())?
                }
            };
            pairwise.push(PairwiseCoreParams {
                c_prime,
                bias: coef[0],
                weights: Vector(coef.as_slice()[1..].to_vec()),
            });
        }
        Interpretation::from_pairwise(class, pairwise)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openapi_api::LinearSoftmaxModel;
    use openapi_linalg::Matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model() -> LinearSoftmaxModel {
        let w =
            Matrix::from_rows(&[&[1.0, -0.5, 0.3], &[0.0, 2.0, -0.7], &[-1.5, 0.5, 0.2]]).unwrap();
        LinearSoftmaxModel::new(w, Vector(vec![0.1, -0.2, 0.05]))
    }

    #[test]
    fn ols_lime_is_near_exact_on_single_region_models() {
        // One region ⇒ the log-ratio is globally affine ⇒ OLS recovers it to
        // solver precision.
        let api = model();
        let x0 = Vector(vec![0.2, -0.1, 0.4]);
        let lime = LimeInterpreter::new(LimeConfig::linear(0.1));
        let mut rng = StdRng::seed_from_u64(1);
        let i = lime.interpret(&api, &x0, 0, &mut rng).unwrap();
        let truth = api.local().decision_features(0);
        let err = i.decision_features.l1_distance(&truth).unwrap();
        assert!(err < 1e-7, "L1Dist {err}");
    }

    #[test]
    fn ridge_lime_collapses_at_tiny_perturbation_distances() {
        // §V-D: with h tiny the design's feature columns barely vary, the
        // penalty dominates, and the slope estimates shrink to ~0 while the
        // intercept absorbs the response.
        let api = model();
        let x0 = Vector(vec![0.2, -0.1, 0.4]);
        let truth = api.local().decision_features(0);

        let ridge = LimeInterpreter::new(LimeConfig::ridge(1e-8));
        let mut rng = StdRng::seed_from_u64(2);
        let i = ridge.interpret(&api, &x0, 0, &mut rng).unwrap();
        assert!(
            i.decision_features.norm_l2() < 1e-3 * truth.norm_l2(),
            "ridge slopes should be crushed: ‖D̂‖ = {}, truth {}",
            i.decision_features.norm_l2(),
            truth.norm_l2()
        );
        // Yet with a large h, ridge recovers a usable approximation.
        let ridge_big = LimeInterpreter::new(LimeConfig::ridge(1.0));
        let mut rng = StdRng::seed_from_u64(3);
        let i_big = ridge_big.interpret(&api, &x0, 0, &mut rng).unwrap();
        let cs = i_big.decision_features.cosine_similarity(&truth).unwrap();
        assert!(
            cs > 0.9,
            "large-h ridge direction should be usable, cs {cs}"
        );
    }

    #[test]
    fn auto_sample_count_is_twice_overdetermined() {
        assert_eq!(LimeConfig::linear(0.1).resolved_samples(10), 22);
        let explicit = LimeConfig {
            num_samples: 99,
            ..LimeConfig::linear(0.1)
        };
        assert_eq!(explicit.resolved_samples(10), 99);
    }

    #[test]
    fn pairwise_biases_are_recovered_by_ols() {
        let api = model();
        let x0 = Vector(vec![0.0, 0.0, 0.0]);
        let lime = LimeInterpreter::new(LimeConfig::linear(0.5));
        let mut rng = StdRng::seed_from_u64(4);
        let i = lime.interpret(&api, &x0, 1, &mut rng).unwrap();
        for p in &i.pairwise {
            let want = api.local().pairwise_bias(1, p.c_prime);
            assert!((p.bias - want).abs() < 1e-7, "contrast {}", p.c_prime);
        }
    }

    #[test]
    fn validates_arguments() {
        let api = model();
        let lime = LimeInterpreter::new(LimeConfig::linear(0.1));
        let mut rng = StdRng::seed_from_u64(5);
        assert!(matches!(
            lime.interpret(&api, &Vector(vec![0.0]), 0, &mut rng),
            Err(InterpretError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            lime.interpret(&api, &Vector(vec![0.0; 3]), 5, &mut rng),
            Err(InterpretError::ClassOutOfRange { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_bad_distance() {
        let _ = LimeInterpreter::new(LimeConfig::linear(0.0));
    }
}
