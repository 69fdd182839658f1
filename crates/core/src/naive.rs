//! The naive method (§IV-B): solve the determined system `Ω_{d+1}` at a
//! fixed, user-chosen perturbation distance.
//!
//! This is the method Theorem 1 warns about: it is exact *only in the ideal
//! case* where every sampled instance shares `x⁰`'s core parameters. When
//! the fixed hypercube straddles a region boundary, the solution is wrong
//! with probability 1 — and the method has no way to notice. It is included
//! both as the paper's baseline `N(h)` and as the experimental control that
//! makes OpenAPI's consistency check measurable.

use crate::decision::Interpretation;
use crate::equations::{solve_determined_many, EquationSystem, Probe};
use crate::error::InterpretError;
use crate::openapi::validate_request;
use crate::sampler::sample_many;
use openapi_api::PredictionApi;
use openapi_linalg::{LinalgError, Vector};
use rand::Rng;

/// Naive-method parameters.
#[derive(Debug, Clone)]
pub struct NaiveConfig {
    /// The fixed perturbation distance `h` (hypercube edge). The paper
    /// sweeps `h ∈ {1e-8, 1e-4, 1e-2}`.
    pub edge: f64,
    /// Resampling attempts when the sampled matrix is numerically singular
    /// (a probability-0 accident, but floating point earns a retry).
    pub max_attempts: usize,
}

impl NaiveConfig {
    /// Naive method at perturbation distance `h`.
    pub fn with_edge(edge: f64) -> Self {
        NaiveConfig {
            edge,
            max_attempts: 3,
        }
    }
}

/// The naive interpreter.
#[derive(Debug, Clone)]
pub struct NaiveInterpreter {
    config: NaiveConfig,
}

impl NaiveInterpreter {
    /// Creates the interpreter.
    ///
    /// # Panics
    /// Panics when `edge` is not positive/finite or `max_attempts == 0`.
    pub fn new(config: NaiveConfig) -> Self {
        assert!(
            config.edge.is_finite() && config.edge > 0.0,
            "edge must be positive"
        );
        assert!(config.max_attempts > 0, "need at least one attempt");
        NaiveInterpreter { config }
    }

    /// Interprets `api`'s prediction on `x0` for `class` by solving the
    /// determined `Ω_{d+1}` once (no consistency check, by design).
    ///
    /// # Errors
    /// Argument errors as in OpenAPI, plus [`InterpretError::Numerical`]
    /// when all resampling attempts produced singular systems.
    pub fn interpret<M: PredictionApi, R: Rng>(
        &self,
        api: &M,
        x0: &Vector,
        class: usize,
        rng: &mut R,
    ) -> Result<Interpretation, InterpretError> {
        validate_request(api, x0.as_slice(), class)?;
        let (d, c_total) = (api.dim(), api.num_classes());

        let x0_probe = Probe::query(api, x0.clone());
        let c_primes: Vec<usize> = (0..c_total).filter(|&cp| cp != class).collect();
        let mut last_err: LinalgError = LinalgError::Empty { op: "naive" };
        for _ in 0..self.config.max_attempts {
            // d sampled instances + x0 = d + 1 equations for d + 1 unknowns.
            let mut probes = Vec::with_capacity(d + 1);
            probes.push(x0_probe.clone());
            for x in sample_many(x0.as_slice(), self.config.edge, d, rng) {
                probes.push(Probe::query(api, x));
            }
            // One factorization serves every contrast; a singular one
            // fails the attempt.
            match solve_determined_many(&EquationSystem::new(probes), class, &c_primes) {
                Ok(pairwise) => return Interpretation::from_pairwise(class, pairwise),
                Err(e) => last_err = e,
            }
        }
        Err(InterpretError::Numerical(last_err))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openapi_api::{GroundTruthOracle, LinearSoftmaxModel, LocalLinearModel, TwoRegionPlm};
    use openapi_linalg::Matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn linear_model() -> LinearSoftmaxModel {
        let w =
            Matrix::from_rows(&[&[1.0, -0.5, 0.3], &[0.0, 2.0, -0.7], &[-1.5, 0.5, 0.2]]).unwrap();
        LinearSoftmaxModel::new(w, Vector(vec![0.1, -0.2, 0.05]))
    }

    #[test]
    fn exact_in_the_ideal_case() {
        // Single-region model: every hypercube is "ideal"; the naive method
        // is exact at any h.
        let api = linear_model();
        let x0 = Vector(vec![0.2, 0.4, -0.3]);
        for h in [1e-8, 1e-4, 1e-2, 1.0] {
            let naive = NaiveInterpreter::new(NaiveConfig::with_edge(h));
            let mut rng = StdRng::seed_from_u64(1);
            let i = naive.interpret(&api, &x0, 0, &mut rng).unwrap();
            let truth = api.local().decision_features(0);
            let err = i.decision_features.l1_distance(&truth).unwrap();
            assert!(err < 1e-6, "h={h}: L1Dist {err}");
        }
    }

    #[test]
    fn wrong_when_the_cube_straddles_a_boundary() {
        // Theorem 1's scenario: x0 is 0.05 from the boundary and h = 1.0,
        // so nearly half the samples come from the other region. The naive
        // method returns *something* — and it is far from the truth.
        let low = LocalLinearModel::new(
            Matrix::from_rows(&[&[2.0, -2.0], &[1.0, 0.5]]).unwrap(),
            Vector(vec![0.0, 0.2]),
        );
        let high = LocalLinearModel::new(
            Matrix::from_rows(&[&[-5.0, 1.5], &[0.0, 3.0]]).unwrap(),
            Vector(vec![0.5, -0.5]),
        );
        let api = TwoRegionPlm::axis_split(0, 0.5, low, high);
        let x0 = Vector(vec![0.45, 0.0]);
        let truth = api.local_model(x0.as_slice()).decision_features(0);

        // With h = 1.0, each of the 2 samples crosses the boundary with
        // probability ≈ 0.47; over seeds, the majority of runs mix regions
        // and come out badly wrong while NEVER reporting failure.
        let naive = NaiveInterpreter::new(NaiveConfig::with_edge(1.0));
        let mut wrong = 0;
        for seed in 0..12 {
            let mut rng = StdRng::seed_from_u64(seed);
            let i = naive.interpret(&api, &x0, 0, &mut rng).unwrap();
            if i.decision_features.l1_distance(&truth).unwrap() > 0.1 {
                wrong += 1;
            }
        }
        assert!(
            wrong >= 6,
            "naive should usually be wrong here, was wrong {wrong}/12"
        );

        // …while a small-enough fixed h stays inside the region and is exact
        // on every run (the h-sensitivity the paper's Figures 5-7 chart).
        let naive_small = NaiveInterpreter::new(NaiveConfig::with_edge(1e-4));
        for seed in 0..12 {
            let mut rng = StdRng::seed_from_u64(seed);
            let i_small = naive_small.interpret(&api, &x0, 0, &mut rng).unwrap();
            let err_small = i_small.decision_features.l1_distance(&truth).unwrap();
            assert!(
                err_small < 1e-4,
                "seed {seed}: small h should be exact, got {err_small}"
            );
        }
    }

    #[test]
    fn validates_arguments() {
        let api = linear_model();
        let naive = NaiveInterpreter::new(NaiveConfig::with_edge(0.1));
        let mut rng = StdRng::seed_from_u64(4);
        assert!(matches!(
            naive.interpret(&api, &Vector(vec![0.0]), 0, &mut rng),
            Err(InterpretError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            naive.interpret(&api, &Vector(vec![0.0; 3]), 7, &mut rng),
            Err(InterpretError::ClassOutOfRange { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_nonpositive_edge() {
        let _ = NaiveInterpreter::new(NaiveConfig::with_edge(-1.0));
    }
}
