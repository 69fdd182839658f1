//! Region-extent estimation — how big is the locally linear region?
//!
//! Algorithm 1 only *shrinks* its hypercube until consistency holds; this
//! extension also *grows* it, bracketing the largest hypercube around `x⁰`
//! on which the recovered core parameters stay consistent. That bracket is
//! a query-only estimate of the locally linear region's inradius — useful
//! for choosing safe perturbation budgets (e.g. for the fixed-`h` baselines
//! this repository evaluates) and for characterizing a hidden model's
//! geometry, complementing `reverse::boundary_probe`'s directional probes.

use crate::equations::{ConsistencySolver, EquationSystem, Probe};
use crate::error::InterpretError;
use crate::openapi::{validate_request, OpenApiConfig, OpenApiInterpreter};
use crate::sampler::sample_many;
use openapi_api::PredictionApi;
use openapi_linalg::Vector;
use rand::Rng;

/// The outcome of a region-extent probe.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeBracket {
    /// Largest tested hypercube edge whose samples were all consistent
    /// with `x⁰`'s core parameters.
    pub consistent_edge: f64,
    /// Smallest tested edge that produced an inconsistent system, when the
    /// growth phase found one (`None` means consistency held up to
    /// `max_edge` — the region extends beyond the probe budget).
    pub inconsistent_edge: Option<f64>,
    /// Total prediction queries spent (interpretation + growth probes).
    pub queries: usize,
}

/// Estimates the consistent-hypercube bracket around `x0` for `class`.
///
/// First runs OpenAPI to convergence (edge `r*`), then doubles the edge —
/// re-sampling `d + 1` fresh instances each step and re-checking all
/// `C − 1` contrasts — until a system turns inconsistent or `max_edge` is
/// reached. Each growth step costs `d + 1` queries.
///
/// The returned bracket is stochastic (a consistent draw at some edge does
/// not *prove* the whole cube lies in the region), but an inconsistent draw
/// at edge `r` **does** prove the region boundary intersects the `r`-cube —
/// so `inconsistent_edge` is a sound upper bound on the inradius while
/// `consistent_edge` is a probabilistic lower bound.
///
/// # Errors
/// Propagates [`OpenApiInterpreter::interpret`] errors from the initial
/// convergence run.
///
/// # Panics
/// Panics when `max_edge` is not positive/finite.
pub fn estimate_region_edge<M: PredictionApi, R: Rng>(
    api: &M,
    x0: &Vector,
    class: usize,
    config: &OpenApiConfig,
    max_edge: f64,
    rng: &mut R,
) -> Result<EdgeBracket, InterpretError> {
    assert!(
        max_edge.is_finite() && max_edge > 0.0,
        "max_edge must be positive"
    );
    // One probe of x⁰ serves both the convergence run and every growth
    // step's system.
    validate_request(api, x0.as_slice(), class)?;
    let x0_probe = Probe::query(api, x0.clone());
    let interpreter = OpenApiInterpreter::new(config.clone());
    let base = interpreter.interpret_with_probe(api, x0_probe.clone(), class, rng)?;
    let mut queries = base.queries;
    let d = api.dim();
    let c_primes: Vec<usize> = (0..api.num_classes()).filter(|&cp| cp != class).collect();

    let mut consistent_edge = base.final_edge;
    let mut edge = base.final_edge * 2.0;
    while edge <= max_edge {
        let samples = sample_many(x0.as_slice(), edge, d + 1, rng);
        let mut probes = Vec::with_capacity(d + 2);
        probes.push(x0_probe.clone());
        for x in samples {
            probes.push(Probe::query(api, x));
        }
        queries += d + 1;
        let system = EquationSystem::new(probes);
        // Degenerate geometry counts as "not shown consistent".
        let consistent = ConsistencySolver::new(&system, config.strategy, config.rtol)
            .and_then(|solver| solver.check_many(&system.rhs_many(class, &c_primes), &c_primes))
            .is_ok_and(|verdicts| verdicts.iter().all(|v| v.consistent));
        if !consistent {
            return Ok(EdgeBracket {
                consistent_edge,
                inconsistent_edge: Some(edge),
                queries,
            });
        }
        consistent_edge = edge;
        edge *= 2.0;
    }
    Ok(EdgeBracket {
        consistent_edge,
        inconsistent_edge: None,
        queries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use openapi_api::{CountingApi, LinearSoftmaxModel, LocalLinearModel, TwoRegionPlm};
    use openapi_linalg::Matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn linear_model() -> LinearSoftmaxModel {
        let w = Matrix::from_rows(&[&[1.0, -0.5], &[0.0, 2.0]]).unwrap();
        LinearSoftmaxModel::new(w, Vector(vec![0.1, -0.2]))
    }

    #[test]
    fn single_region_grows_to_the_budget() {
        let api = linear_model();
        let x0 = Vector(vec![0.3, 0.3]);
        let mut rng = StdRng::seed_from_u64(1);
        let bracket =
            estimate_region_edge(&api, &x0, 0, &OpenApiConfig::default(), 64.0, &mut rng).unwrap();
        assert_eq!(
            bracket.inconsistent_edge, None,
            "one region: never inconsistent"
        );
        assert!(
            bracket.consistent_edge >= 64.0,
            "edge {}",
            bracket.consistent_edge
        );
    }

    #[test]
    fn two_region_model_brackets_the_known_margin() {
        let low = LocalLinearModel::new(
            Matrix::from_rows(&[&[2.0, -2.0], &[1.0, 0.5]]).unwrap(),
            Vector(vec![0.0, 0.2]),
        );
        let high = LocalLinearModel::new(
            Matrix::from_rows(&[&[-1.0, 1.5], &[0.0, 3.0]]).unwrap(),
            Vector(vec![0.5, -0.5]),
        );
        let api = TwoRegionPlm::axis_split(0, 0.5, low, high);
        // Margin to the boundary: 0.4. A cube of edge > 0.4 can cross.
        let x0 = Vector(vec![0.1, 0.0]);
        let mut rng = StdRng::seed_from_u64(2);
        let bracket =
            estimate_region_edge(&api, &x0, 0, &OpenApiConfig::default(), 256.0, &mut rng).unwrap();
        let upper = bracket.inconsistent_edge.expect("boundary must be found");
        // The inconsistent edge is sound: a crossing cube must be > margin.
        assert!(
            upper > 0.4,
            "inconsistent edge {upper} below the true margin"
        );
        assert!(bracket.consistent_edge < upper);
        assert!(bracket.queries > 0);
    }

    #[test]
    fn growth_steps_pay_d_plus_one_queries_each_and_x0_once() {
        let api = CountingApi::new(linear_model());
        let x0 = Vector(vec![0.3, 0.3]);
        let config = OpenApiConfig::default();
        let base = OpenApiInterpreter::new(config.clone())
            .interpret(&api, &x0, 0, &mut StdRng::seed_from_u64(5))
            .unwrap();
        api.reset();
        let bracket =
            estimate_region_edge(&api, &x0, 0, &config, 8.0, &mut StdRng::seed_from_u64(5))
                .unwrap();
        let d = 2;
        let growth = bracket.queries - base.queries;
        assert!(growth > 0, "at least one growth step ran");
        assert_eq!(growth % (d + 1), 0, "growth share {growth}");
        assert_eq!(growth as u64, api.queries() - base.queries as u64);
        assert_eq!(bracket.queries as u64, api.queries());
    }

    #[test]
    fn boundary_budget_errors_propagate() {
        let low = LocalLinearModel::new(Matrix::zeros(2, 2), Vector(vec![1.0, 0.0]));
        let high = LocalLinearModel::new(Matrix::zeros(2, 2), Vector(vec![0.0, 1.0]));
        let api = TwoRegionPlm::axis_split(0, 0.5, low, high);
        // x0 exactly on the boundary with a tiny iteration budget: the
        // initial interpretation may fail — the error must surface.
        let x0 = Vector(vec![0.5, 0.0]);
        let cfg = OpenApiConfig {
            max_iterations: 2,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(3);
        let r = estimate_region_edge(&api, &x0, 0, &cfg, 4.0, &mut rng);
        // Either budget-exhausted (expected) or a success whose growth then
        // brackets; both are legal, but no panic.
        if let Ok(b) = r {
            assert!(b.consistent_edge > 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn bad_budget_panics() {
        let api = linear_model();
        let mut rng = StdRng::seed_from_u64(4);
        let _ = estimate_region_edge(
            &api,
            &Vector(vec![0.0, 0.0]),
            0,
            &OpenApiConfig::default(),
            0.0,
            &mut rng,
        );
    }
}
