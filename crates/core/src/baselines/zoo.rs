//! The ZOO baseline (§V): zeroth-order gradient estimation.
//!
//! ZOO probes the API back-and-forth along every axis at a fixed distance
//! `h` and estimates gradients with symmetric difference quotients. Since
//! Equation 2 makes `∂ ln(y_c/y_{c'}) / ∂x = D_{c,c'}` inside a region, the
//! quotient of the log-ratio estimates the pairwise decision features
//! directly — exactly when both probes of an axis stay in `x⁰`'s region,
//! and silently wrong otherwise (the `h`-sensitivity of Figures 5–7).

use crate::decision::{Interpretation, PairwiseCoreParams};
use crate::error::InterpretError;
use crate::openapi::validate_request;
use crate::sampler::axis_pairs;
use openapi_api::{log_ratio, PredictionApi};
use openapi_linalg::Vector;

/// ZOO parameters.
#[derive(Debug, Clone)]
pub struct ZooConfig {
    /// Probe distance `h` along each axis (paper sweeps 1e-8, 1e-4, 1e-2).
    pub probe_distance: f64,
}

impl ZooConfig {
    /// ZOO at probe distance `h`.
    pub fn with_distance(h: f64) -> Self {
        ZooConfig { probe_distance: h }
    }
}

/// The ZOO interpreter.
#[derive(Debug, Clone)]
pub struct ZooInterpreter {
    config: ZooConfig,
}

impl ZooInterpreter {
    /// Creates the interpreter.
    ///
    /// # Panics
    /// Panics when the probe distance is not positive/finite.
    pub fn new(config: ZooConfig) -> Self {
        assert!(
            config.probe_distance.is_finite() && config.probe_distance > 0.0,
            "probe distance must be positive"
        );
        ZooInterpreter { config }
    }

    /// Estimates `D_c` for `class` at `x0` with `2d + 1` API queries.
    ///
    /// The pairwise bias is completed from the center evaluation:
    /// `B̂ = ln(y⁰_c/y⁰_{c'}) − D̂ᵀx⁰`, exact whenever the gradient estimate
    /// is.
    ///
    /// # Errors
    /// Argument errors as in OpenAPI (ZOO itself cannot fail numerically —
    /// it only divides by `2h`).
    pub fn interpret<M: PredictionApi>(
        &self,
        api: &M,
        x0: &Vector,
        class: usize,
    ) -> Result<Interpretation, InterpretError> {
        validate_request(api, x0.as_slice(), class)?;
        let (d, c_total) = (api.dim(), api.num_classes());

        let h = self.config.probe_distance;
        let center = api.predict(x0.as_slice());
        // One shared probe sweep serves all contrasts: predictions are
        // cached per axis, then each contrast reads its own log-ratios.
        let probes: Vec<(Vector, Vector)> = axis_pairs(x0.as_slice(), h)
            .into_iter()
            .map(|(p, m)| (api.predict(p.as_slice()), api.predict(m.as_slice())))
            .collect();

        let mut pairwise = Vec::with_capacity(c_total - 1);
        for c_prime in (0..c_total).filter(|&cp| cp != class) {
            let mut grad = Vector::zeros(d);
            for (i, (pp, pm)) in probes.iter().enumerate() {
                let lp = log_ratio(pp.as_slice(), class, c_prime);
                let lm = log_ratio(pm.as_slice(), class, c_prime);
                grad[i] = (lp - lm) / (2.0 * h);
            }
            let center_ratio = log_ratio(center.as_slice(), class, c_prime);
            let bias = center_ratio - grad.dot(x0).expect("grad and x0 share dimensionality");
            pairwise.push(PairwiseCoreParams {
                c_prime,
                weights: grad,
                bias,
            });
        }
        Interpretation::from_pairwise(class, pairwise)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openapi_api::{
        CountingApi, GroundTruthOracle, LinearSoftmaxModel, LocalLinearModel, TwoRegionPlm,
    };
    use openapi_linalg::Matrix;

    fn model() -> LinearSoftmaxModel {
        let w =
            Matrix::from_rows(&[&[1.0, -0.5, 0.3], &[0.0, 2.0, -0.7], &[-1.5, 0.5, 0.2]]).unwrap();
        LinearSoftmaxModel::new(w, Vector(vec![0.1, -0.2, 0.05]))
    }

    #[test]
    fn exact_on_single_region_models_at_any_h() {
        let api = model();
        let x0 = Vector(vec![0.2, -0.1, 0.4]);
        let truth = api.local().decision_features(0);
        for h in [1e-6, 1e-3, 0.1] {
            let zoo = ZooInterpreter::new(ZooConfig::with_distance(h));
            let i = zoo.interpret(&api, &x0, 0).unwrap();
            let err = i.decision_features.l1_distance(&truth).unwrap();
            assert!(err < 1e-6, "h={h}: L1Dist {err}");
        }
    }

    #[test]
    fn bias_completion_is_exact_in_region() {
        let api = model();
        let x0 = Vector(vec![0.5, 0.5, -0.5]);
        let zoo = ZooInterpreter::new(ZooConfig::with_distance(1e-4));
        let i = zoo.interpret(&api, &x0, 2).unwrap();
        for p in &i.pairwise {
            let want = api.local().pairwise_bias(2, p.c_prime);
            assert!((p.bias - want).abs() < 1e-6, "contrast {}", p.c_prime);
        }
    }

    #[test]
    fn query_budget_is_2d_plus_1() {
        let api = CountingApi::new(model());
        let x0 = Vector(vec![0.0, 0.0, 0.0]);
        let zoo = ZooInterpreter::new(ZooConfig::with_distance(1e-3));
        let _ = zoo.interpret(&api, &x0, 0).unwrap();
        assert_eq!(api.queries(), 2 * 3 + 1);
    }

    #[test]
    fn wrong_when_probes_cross_a_boundary() {
        let low = LocalLinearModel::new(
            Matrix::from_rows(&[&[2.0, -2.0], &[1.0, 0.5]]).unwrap(),
            Vector(vec![0.0, 0.2]),
        );
        let high = LocalLinearModel::new(
            Matrix::from_rows(&[&[-5.0, 1.5], &[0.0, 3.0]]).unwrap(),
            Vector(vec![0.5, -0.5]),
        );
        let api = TwoRegionPlm::axis_split(0, 0.5, low, high);
        // x0 at 0.495: probes at h = 1e-2 along axis 0 hit 0.505 (other
        // region). The axis-0 quotient is corrupted.
        let x0 = Vector(vec![0.495, 0.0]);
        let truth = api.local_model(x0.as_slice()).decision_features(0);
        let zoo_big = ZooInterpreter::new(ZooConfig::with_distance(1e-2));
        let wrong = zoo_big.interpret(&api, &x0, 0).unwrap();
        assert!(wrong.decision_features.l1_distance(&truth).unwrap() > 0.1);

        let zoo_small = ZooInterpreter::new(ZooConfig::with_distance(1e-4));
        let right = zoo_small.interpret(&api, &x0, 0).unwrap();
        assert!(right.decision_features.l1_distance(&truth).unwrap() < 1e-5);
    }

    #[test]
    fn validates_arguments() {
        let api = model();
        let zoo = ZooInterpreter::new(ZooConfig::with_distance(1e-3));
        assert!(matches!(
            zoo.interpret(&api, &Vector(vec![0.0]), 0),
            Err(InterpretError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            zoo.interpret(&api, &Vector(vec![0.0; 3]), 3),
            Err(InterpretError::ClassOutOfRange { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_bad_distance() {
        let _ = ZooInterpreter::new(ZooConfig::with_distance(f64::NAN));
    }
}
