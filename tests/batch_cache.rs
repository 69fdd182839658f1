//! Integration coverage of region deduplication through the facade:
//! Theorem 2's consistency property as an executable contract — cache hits
//! are bit-identical to cold runs and cost (almost) no queries.
//!
//! Every test runs a one-worker service on the paper's Halving policy, the
//! sequential pass the experiment harness uses: sent one request at a time,
//! request `i` solves with `derived_rng(seed, i)`.

use openapi_repro::api::CountingApi;
use openapi_repro::core::rng::derived_rng;
use openapi_repro::prelude::*;
use openapi_repro::serve::{ServeError, Served};
use rand::rngs::StdRng;
use rand::SeedableRng;

mod common;
use common::{two_region_plm, DIM};

/// Instances alternating between both regions of the PLM.
fn workload(n: usize) -> Vec<Vector> {
    (0..n)
        .map(|i| {
            let mut x: Vec<f64> = (0..DIM)
                .map(|j| ((i * DIM + j) as f64 * 0.61).cos() * 0.4)
                .collect();
            x[1] = if i % 2 == 0 { -0.6 } else { 1.1 };
            Vector(x)
        })
        .collect()
}

/// A fresh one-worker service with one leader slot and the paper's
/// Halving policy.
fn sequential<M: PredictionApi + Send + Sync + 'static>(
    api: M,
    seed: u64,
) -> InterpretationService<M> {
    InterpretationService::new(
        api,
        ServiceConfig {
            workers: 1,
            max_leaders_per_class: 1,
            seed,
            openapi: OpenApiConfig::default(),
            ..ServiceConfig::default()
        },
    )
}

/// Submits each instance and waits for it before sending the next.
fn one_at_a_time<M: PredictionApi + Send + Sync + 'static>(
    service: &InterpretationService<M>,
    instances: &[Vector],
    class: usize,
) -> Vec<Result<Served, ServeError>> {
    instances
        .iter()
        .map(|x| service.submit_instance(x.clone(), class).wait())
        .collect()
}

#[test]
fn cache_hits_are_bit_identical_to_the_region_cold_run() {
    let plm = two_region_plm();
    let instances = workload(16);
    // Cold per-instance baseline on region 0's representative, drawing the
    // stream the service gives request 0.
    let cold_a = OpenApiInterpreter::default()
        .interpret(&plm, &instances[0], 2, &mut derived_rng(7, 0))
        .unwrap();
    let service = sequential(plm.clone(), 7);
    let served = one_at_a_time(&service, &instances, 2);
    let stats = service.stats();
    assert_eq!(stats.failures, 0);
    assert_eq!(stats.misses, 2, "one solve per region");
    assert_eq!(stats.hits, 14);
    // Every even-indexed instance shares region 0's interpretation — the
    // service serves instance 0's cold result, bit for bit.
    let first = served[0].as_ref().unwrap();
    assert_eq!(*first.interpretation, cold_a.interpretation);
    for (i, r) in served.iter().enumerate() {
        let item = r.as_ref().unwrap();
        let hit = item.outcome == ServeOutcome::CacheHit;
        assert_eq!(hit, i >= 2, "only the first two instances miss");
        if i % 2 == 0 {
            assert_eq!(*item.interpretation, cold_a.interpretation);
        }
        // All answers are exact w.r.t. the ground-truth oracle.
        let truth = plm
            .local_model(instances[i].as_slice())
            .decision_features(2);
        let err = item
            .interpretation
            .decision_features
            .l1_distance(&truth)
            .unwrap();
        assert!(err < 1e-7, "instance {i}: L1Dist {err}");
    }
}

#[test]
fn black_box_batching_cuts_queries_at_least_five_fold() {
    let plm = two_region_plm();
    let instances = workload(40);
    // Per-instance baseline.
    let counted = CountingApi::new(&plm);
    let interpreter = OpenApiInterpreter::default();
    let mut rng = StdRng::seed_from_u64(11);
    for x in &instances {
        interpreter.interpret(&counted, x, 0, &mut rng).unwrap();
    }
    let solo = counted.queries();
    // Deduplicated through the service.
    let service = sequential(CountingApi::new(plm), 11);
    one_at_a_time(&service, &instances, 0);
    let stats = service.stats();
    assert_eq!(stats.failures, 0);
    assert_eq!(stats.queries, service.api().queries());
    assert!(
        stats.queries * 5 <= solo,
        "expected ≥5× fewer queries: {} vs {solo}",
        stats.queries
    );
}

#[test]
fn a_batch_equals_its_instances_interpreted_one_at_a_time() {
    let plm = two_region_plm();
    let mut instances = workload(12);
    instances[5].0[3] = f64::NAN;
    let class = 1;

    let batched = sequential(CountingApi::new(plm.clone()), 23);
    let requests = instances
        .iter()
        .map(|x| InterpretRequest::new(x.clone(), class))
        .collect();
    let out: Vec<_> = batched
        .submit_batch(requests)
        .into_iter()
        .map(Ticket::wait)
        .collect();

    let single = sequential(CountingApi::new(plm), 23);
    let singles = one_at_a_time(&single, &instances, class);

    assert_eq!(out.len(), singles.len());
    for (i, (b, s)) in out.iter().zip(&singles).enumerate() {
        match (b, s) {
            (Ok(b), Ok(s)) => {
                assert_eq!(b.interpretation, s.interpretation, "instance {i}");
                assert_eq!(b.fingerprint, s.fingerprint, "instance {i}");
                assert_eq!(b.outcome, s.outcome, "instance {i}");
                assert_eq!(b.queries, s.queries, "instance {i}");
            }
            (Err(b), Err(s)) => assert_eq!(b, s, "instance {i}"),
            _ => panic!("instance {i}: batch {b:?} vs one at a time {s:?}"),
        }
    }
    assert!(out[5].is_err(), "the NaN instance fails");
    let (b, s) = (batched.stats(), single.stats());
    assert!(b.hits > 0 && b.misses > 0);
    assert_eq!(
        (b.requests, b.hits, b.misses, b.failures, b.queries),
        (s.requests, s.hits, s.misses, s.failures, s.queries)
    );
    assert_eq!(batched.api().queries(), single.api().queries());
}
