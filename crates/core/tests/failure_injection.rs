//! Failure injection: what happens to each interpreter when the API's
//! contract degrades — quantized probabilities, noisy responses, saturated
//! softmax. The paper's probability-1 guarantees assume exact real-valued
//! outputs; these tests pin down the *designed* behaviour outside that
//! envelope: OpenAPI either refuses loudly (non-deterministic noise) or
//! converges to an honest interpretation of the degraded API itself
//! (deterministic quantization plateaus); the naive method errs silently.

use openapi_api::{GroundTruthOracle, LinearSoftmaxModel, NoisyApi, PredictionApi, QuantizedApi};
use openapi_core::{
    EdgeSearch, InterpretError, NaiveConfig, NaiveInterpreter, OpenApiConfig, OpenApiInterpreter,
};
use openapi_linalg::{Matrix, Vector};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn model() -> LinearSoftmaxModel {
    let w = Matrix::from_rows(&[
        &[1.0, -0.5, 0.25],
        &[0.0, 2.0, -1.0],
        &[-1.5, 0.5, 0.75],
        &[0.6, -0.2, 0.9],
    ])
    .unwrap();
    LinearSoftmaxModel::new(w, Vector(vec![0.1, -0.2, 0.3]))
}

fn x0() -> Vector {
    Vector(vec![0.3, -0.1, 0.4, 0.2])
}

#[test]
fn openapi_interprets_the_quantization_plateau_exactly() {
    // A deterministic quantized API is itself a PLM — a piecewise-CONSTANT
    // one. Once the hypercube shrinks inside one quantization plateau,
    // every probe returns identical probabilities, the system is perfectly
    // consistent, and its unique solution is the plateau's true local
    // behaviour: zero decision features. OpenAPI thus converges and
    // faithfully reports the API it queried — which is NOT the hidden
    // model. (You interpret the API you can reach; quantization changes
    // what that is. The iteration log records the shrink-to-plateau path.)
    let api = QuantizedApi::new(model(), 3);
    let cfg = OpenApiConfig {
        max_iterations: 20,
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(1);
    let r = OpenApiInterpreter::new(cfg)
        .interpret(&api, &x0(), 0, &mut rng)
        .expect("plateaus are consistent regions");
    // The recovered features describe the plateau (zero slope)…
    assert!(
        r.interpretation.decision_features.norm_linf() < 1e-6,
        "plateau slope must be ~0, got {:?}",
        r.interpretation.decision_features.norm_linf()
    );
    // …which is far from the hidden model's features: the degradation is
    // visible in the answer, not hidden by it.
    let truth = model().local_model(x0().as_slice()).decision_features(0);
    assert!(truth.norm_linf() > 0.5);
    // And the log shows the adaptive descent into the plateau.
    assert!(r.iterations > 1);
}

#[test]
fn openapi_tolerates_fine_quantization_within_loosened_tolerance() {
    // 12-decimal quantization perturbs log-ratios by ~1e-11; with rtol
    // loosened above that, OpenAPI accepts and the recovered features are
    // accurate to the quantization level.
    let api = QuantizedApi::new(model(), 12);
    let cfg = OpenApiConfig {
        rtol: 1e-6,
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(2);
    let r = OpenApiInterpreter::new(cfg)
        .interpret(&api, &x0(), 0, &mut rng)
        .expect("fine quantization within tolerance");
    let truth = model().local_model(x0().as_slice()).decision_features(0);
    let err = r
        .interpretation
        .decision_features
        .l1_distance(&truth)
        .unwrap();
    assert!(
        err < 1e-3,
        "error {err} should track the quantization scale"
    );
}

#[test]
fn naive_method_answers_wrongly_on_quantized_api_without_complaint() {
    let api = QuantizedApi::new(model(), 3);
    let naive = NaiveInterpreter::new(NaiveConfig::with_edge(1e-4));
    let mut rng = StdRng::seed_from_u64(3);
    let i = naive
        .interpret(&api, &x0(), 0, &mut rng)
        .expect("the naive method has no failure detection");
    let truth = model().local_model(x0().as_slice()).decision_features(0);
    let err = i.decision_features.l1_distance(&truth).unwrap();
    // At h = 1e-4 the quantization error (~5e-4 on probabilities) dominates
    // the signal — the answer is badly wrong, and nothing warned the user.
    assert!(err > 1.0, "expected a large silent error, got {err}");
}

#[test]
fn openapi_refuses_on_noisy_api() {
    let api = NoisyApi::new(model(), 1e-3, 7);
    let cfg = OpenApiConfig {
        max_iterations: 10,
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(4);
    let r = OpenApiInterpreter::new(cfg).interpret(&api, &x0(), 0, &mut rng);
    assert!(matches!(r, Err(InterpretError::BudgetExhausted { .. })));
}

#[test]
fn zero_noise_wrapper_changes_nothing() {
    let api = NoisyApi::new(model(), 0.0, 8);
    let mut rng = StdRng::seed_from_u64(5);
    let r = OpenApiInterpreter::new(OpenApiConfig::default())
        .interpret(&api, &x0(), 0, &mut rng)
        .expect("noiseless wrapper is exact");
    let truth = model().local_model(x0().as_slice()).decision_features(0);
    let err = r
        .interpretation
        .decision_features
        .l1_distance(&truth)
        .unwrap();
    assert!(err < 1e-7);
}

#[test]
fn saturated_softmax_still_interpretable_with_clamped_log_ratios() {
    // Scale the weights so the softmax saturates (probabilities hit 1.0 /
    // ~0.0 in f64). The clamped log-ratio keeps equations finite; OpenAPI
    // either solves consistently or refuses — it must not panic or emit
    // non-finite features.
    let mut w = Matrix::zeros(3, 2);
    w[(0, 0)] = 400.0;
    w[(1, 1)] = 390.0;
    w[(2, 0)] = -100.0;
    let api = LinearSoftmaxModel::new(w, Vector(vec![0.0, 0.0]));
    let x = Vector(vec![1.0, 1.0, 1.0]);
    let mut rng = StdRng::seed_from_u64(6);
    let cfg = OpenApiConfig {
        max_iterations: 10,
        ..Default::default()
    };
    match OpenApiInterpreter::new(cfg).interpret(&api, &x, 0, &mut rng) {
        Ok(r) => assert!(r.interpretation.decision_features.is_finite()),
        Err(InterpretError::BudgetExhausted { .. }) => {} // acceptable: saturation detected
        Err(e) => panic!("unexpected error kind: {e}"),
    }
}

/// A `d`-dimensional, C=3 logistic model: at d=35 the pre-screen runs 8
/// segments per rung, at d=100 it runs 16.
fn wide_model(d: usize) -> LinearSoftmaxModel {
    let w = Matrix::from_fn(d, 3, |r, c| ((r * 3 + c) % 7) as f64 * 0.1 - 0.3);
    LinearSoftmaxModel::new(w, Vector(vec![0.1, -0.2, 0.05]))
}

/// An instance of [`wide_model`]'s dimension.
fn wide_x0(d: usize) -> Vector {
    Vector((0..d).map(|i| (i as f64 * 0.7).sin() * 0.3).collect())
}

/// Runs the pre-screened Algorithm 1 on `api` at `x0` and holds the
/// outcome to the contract: an `Ok` explains the API's own probe of `x0`
/// and passes `exact` (what "exact" means for this API), and every other
/// outcome is a typed `BudgetExhausted` whose query count is what the
/// API saw. Returns whether it was `Ok`.
fn prescreened_is_exact_or_refused<M: PredictionApi>(
    api: &M,
    x0: &Vector,
    seed: u64,
    exact: impl Fn(&Vector) -> bool,
) -> bool {
    let api = openapi_api::CountingApi::new(api);
    let cfg = OpenApiConfig {
        max_iterations: 20,
        edge_search: EdgeSearch::PreScreen,
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(seed);
    match OpenApiInterpreter::new(cfg).interpret(&api, x0, 0, &mut rng) {
        Ok(r) => {
            assert_eq!(r.queries as u64, api.queries());
            let probs = api.predict(x0.as_slice());
            assert!(r.interpretation.explains_probe(x0, probs.as_slice(), 1e-6));
            assert!(exact(&r.interpretation.decision_features), "seed {seed}");
            true
        }
        Err(InterpretError::BudgetExhausted { queries, .. }) => {
            assert_eq!(queries as u64, api.queries());
            false
        }
        Err(e) => panic!("unexpected error kind: {e}"),
    }
}

#[test]
fn prescreen_ends_degraded_apis_in_an_exact_answer_or_a_typed_refusal() {
    for (model, x0) in [
        (model(), x0()),
        (wide_model(35), wide_x0(35)),
        (wide_model(100), wide_x0(100)),
    ] {
        let truth = model.local_model(x0.as_slice()).decision_features(0);
        for seed in 0..4 {
            // Coarse quantization: the only exact answer is the plateau's
            // zero slope.
            let coarse = QuantizedApi::new(model.clone(), 3);
            prescreened_is_exact_or_refused(&coarse, &x0, seed, |f| f.norm_linf() < 1e-6);
            // Fine quantization: the hidden model's features, to the
            // quantization scale.
            let fine = QuantizedApi::new(model.clone(), 12);
            assert!(prescreened_is_exact_or_refused(&fine, &x0, seed, |f| {
                f.l1_distance(&truth).unwrap() < 1e-3
            }));
            // Noise breaks every midpoint and every held-out row: refusal.
            let noisy = NoisyApi::new(model.clone(), 1e-3, seed);
            assert!(!prescreened_is_exact_or_refused(&noisy, &x0, seed, |_| {
                false
            }));
        }
    }
}

#[test]
fn degraded_apis_do_not_corrupt_ground_truth_passthrough() {
    let api = QuantizedApi::new(model(), 2);
    // The oracle below the wrapper still reports the exact model — the
    // evaluation side never degrades, only the API surface.
    let lm = api.local_model(x0().as_slice());
    assert_eq!(&lm, model().local());
}
