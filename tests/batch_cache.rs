//! Integration coverage of the region-deduplicating batch layer through the
//! facade: Theorem 2's consistency property as an executable contract —
//! cache hits are bit-identical to cold runs and cost (almost) no queries.

use openapi_repro::api::CountingApi;
use openapi_repro::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

#[test]
fn cache_hits_are_bit_identical_to_the_region_cold_run() {
    let plm = two_region_plm();
    let instances = workload(16);
    // Cold per-instance baseline on the two region representatives.
    let cold_a = OpenApiInterpreter::default()
        .interpret(&plm, &instances[0], 2, &mut StdRng::seed_from_u64(7))
        .unwrap();
    let mut batch = BatchInterpreter::new(BatchConfig::default());
    let out = batch.interpret_batch(&plm, &instances, 2, &mut StdRng::seed_from_u64(7));
    assert_eq!(out.stats.failures, 0);
    assert_eq!(out.stats.misses, 2, "one solve per region");
    assert_eq!(out.stats.hits, 14);
    // Every even-indexed instance shares region 0's interpretation — the
    // batch serves instance 0's cold result, bit for bit.
    let first = out.results[0].as_ref().unwrap();
    assert_eq!(*first.interpretation, cold_a.interpretation);
    for (i, r) in out.results.iter().enumerate() {
        let item = r.as_ref().unwrap();
        assert_eq!(item.cache_hit, i >= 2, "only the first two instances miss");
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
    // Batched.
    let counted_batch = CountingApi::new(&plm);
    let mut batch = BatchInterpreter::new(BatchConfig::default());
    let mut rng = StdRng::seed_from_u64(11);
    let out = batch.interpret_batch(&counted_batch, &instances, 0, &mut rng);
    assert_eq!(out.stats.failures, 0);
    assert_eq!(out.stats.queries as u64, counted_batch.queries());
    assert!(
        counted_batch.queries() * 5 <= solo,
        "expected ≥5× fewer queries: {} vs {solo}",
        counted_batch.queries()
    );
}

#[test]
fn a_batch_equals_its_instances_interpreted_one_at_a_time() {
    let plm = two_region_plm();
    let mut instances = workload(12);
    instances[5].0[3] = f64::NAN;
    let class = 1;

    let batched_api = CountingApi::new(&plm);
    let mut batched = BatchInterpreter::new(BatchConfig::default());
    let mut batched_rng = StdRng::seed_from_u64(23);
    let out = batched.interpret_batch(&batched_api, &instances, class, &mut batched_rng);

    let single_api = CountingApi::new(&plm);
    let mut single = BatchInterpreter::new(BatchConfig::default());
    let mut single_rng = StdRng::seed_from_u64(23);
    let singles: Vec<_> = instances
        .iter()
        .map(|x| {
            let mut one = single.interpret_batch(
                &single_api,
                std::slice::from_ref(x),
                class,
                &mut single_rng,
            );
            assert_eq!(one.results.len(), 1);
            one.results.pop().unwrap()
        })
        .collect();

    assert_eq!(out.results.len(), singles.len());
    for (i, (b, s)) in out.results.iter().zip(&singles).enumerate() {
        match (b, s) {
            (Ok(b), Ok(s)) => {
                assert_eq!(b.interpretation, s.interpretation, "instance {i}");
                assert_eq!(b.fingerprint, s.fingerprint, "instance {i}");
                assert_eq!(b.cache_hit, s.cache_hit, "instance {i}");
                assert_eq!(b.queries, s.queries, "instance {i}");
            }
            (Err(b), Err(s)) => assert_eq!(b, s, "instance {i}"),
            _ => panic!("instance {i}: batch {b:?} vs one at a time {s:?}"),
        }
    }
    assert!(out.results[5].is_err(), "the NaN instance fails");
    assert!(out.stats.hits > 0 && out.stats.misses > 0);
    assert_eq!(batched.lifetime_stats(), single.lifetime_stats());
    assert_eq!(batched_api.queries(), single_api.queries());
    assert_eq!(
        batched_rng.gen::<u64>(),
        single_rng.gen::<u64>(),
        "both paths consume the same solver randomness"
    );
}
