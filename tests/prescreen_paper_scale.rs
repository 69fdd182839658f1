//! The serving default's edge search (`EdgeSearch::PreScreen`) at the
//! paper's scale, d = 196 and C = 10, on both model families of the smoke
//! profile's synthetic-MNIST panels. Every solve must land on the hidden
//! model's own decision features, and its query count must be what the
//! API saw.

use openapi_eval::config::{ExperimentConfig, Profile};
use openapi_eval::panel::{build_lmt_panel, build_plnn_panel};
use openapi_repro::api::CountingApi;
use openapi_repro::data::SynthStyle;
use openapi_repro::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One seeded solve of `class` at `x` under the serving default. Returns
/// the L1 distance to the oracle's decision features, after checking the
/// solve's query accounting.
fn solve<M: PredictionApi + GroundTruthOracle>(
    model: &M,
    x: &Vector,
    class: usize,
    seed: u64,
) -> f64 {
    let api = CountingApi::new(model);
    let mut rng = StdRng::seed_from_u64(seed);
    let res = OpenApiInterpreter::new(ServiceConfig::default().openapi)
        .interpret(&api, x, class, &mut rng)
        .unwrap_or_else(|e| panic!("class {class} seed {seed}: {e}"));
    assert_eq!(
        res.queries as u64,
        api.queries(),
        "class {class} seed {seed}"
    );
    let rungs: usize = res.log.iter().map(|l| l.queries).sum();
    assert_eq!(res.queries, 1 + rungs, "class {class} seed {seed}");
    assert_eq!(res.samples.len(), model.dim() + 1);
    let truth = model.local_model(x.as_slice()).decision_features(class);
    res.interpretation
        .decision_features
        .l1_distance(&truth)
        .expect("the oracle has the model's dimension")
}

/// Training instance 78 of the smoke PLNN panel sits close to a region
/// boundary, with a smallest class probability of 1.2e-8. Cube samples
/// that straddle the boundary used to pass the tolerance there, for L1
/// errors of 0.08 to 2.2 on the ten classes.
#[test]
fn instance_78_of_the_smoke_plnn_panel_is_exact_for_every_class() {
    let panel = build_plnn_panel(
        &ExperimentConfig::for_profile(Profile::Smoke),
        SynthStyle::MnistLike,
    );
    let x = &panel.train.instances()[78];
    assert_eq!(x.len(), 196);
    for class in 0..10 {
        let l1 = solve(&panel.model, x, class, 78);
        assert!(l1 <= 1e-8, "class {class}: L1 {l1}");
    }
}

/// The first 32 training instances of the smoke LMT panel whose smallest
/// class probability is at least 1e-5 (the floor the serving benchmark's
/// pools keep), solved for class `i % 10` with seed `i`.
#[test]
fn the_smoke_lmt_panel_is_exact_under_the_serving_default() {
    let panel = build_lmt_panel(
        &ExperimentConfig::for_profile(Profile::Smoke),
        SynthStyle::MnistLike,
    );
    let instances: Vec<&Vector> = panel
        .train
        .instances()
        .iter()
        .filter(|x| panel.model.predict(x.as_slice()).iter().all(|&p| p >= 1e-5))
        .take(32)
        .collect();
    assert_eq!(instances.len(), 32);
    for (i, x) in instances.into_iter().enumerate() {
        let l1 = solve(&panel.model, x, i % 10, i as u64);
        assert!(l1 <= 1e-7, "instance {i}: L1 {l1}");
    }
}
