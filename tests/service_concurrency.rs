//! Concurrency coverage of the interpretation service through the facade:
//! N client threads hammer one service on overlapping regions, and the
//! paper's guarantees must hold under contention — every returned
//! interpretation explains its own probe (exactness via Theorem 2), the
//! bounded cache never exceeds its capacity, and the statistics ledger adds
//! up request by request.

use openapi_repro::api::CountingApi;
use openapi_repro::prelude::*;
use openapi_repro::serve::{ServeOutcome, Ticket};
use std::time::Duration;

mod common;
use common::{two_region_plm, DIM};

const CLIENTS: usize = 6;
const REQUESTS_PER_CLIENT: usize = 25;

/// Client `t`'s `i`-th instance: deterministic, alternating regions.
fn instance(t: usize, i: usize) -> Vector {
    let mut x: Vec<f64> = (0..DIM)
        .map(|j| (((t * REQUESTS_PER_CLIENT + i) * DIM + j) as f64 * 0.61).cos() * 0.4)
        .collect();
    x[1] = if (t + i).is_multiple_of(2) { -0.6 } else { 1.1 };
    Vector(x)
}

#[test]
fn hammered_service_stays_exact_bounded_and_accounted() {
    let model = two_region_plm();
    let service = InterpretationService::new(
        CountingApi::new(two_region_plm()),
        ServiceConfig {
            workers: 4,
            cache: SharedCacheConfig {
                capacity: 32,
                ..SharedCacheConfig::default()
            },
            // One leader slot per class keeps the solve count deterministic
            // (≤ one per distinct class/region pair) so the ledger bounds
            // below are exact; the concurrent-leader pool has its own
            // deterministic coverage in the openapi-serve unit tests.
            max_leaders_per_class: 1,
            ..ServiceConfig::default()
        },
    );

    let mut per_request: Vec<(usize, ServeOutcome)> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|t| {
                let service = &service;
                scope.spawn(move || {
                    let class = t % 3;
                    let submitted: Vec<(Vector, Ticket)> = (0..REQUESTS_PER_CLIENT)
                        .map(|i| {
                            let x = instance(t, i);
                            let ticket = service.submit_instance(x.clone(), class);
                            (x, ticket)
                        })
                        .collect();
                    submitted
                        .into_iter()
                        .map(|(x, ticket)| {
                            let served = ticket.wait().expect("interior instances interpret");
                            (x, class, served)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            for (x, class, served) in handle.join().expect("client thread") {
                // Exactness under contention: the served parameters are the
                // ground truth of the instance's own region, for every one
                // of the 150 requests, whatever thread solved it.
                let truth = model.local_model(x.as_slice()).decision_features(class);
                let err = served
                    .interpretation
                    .decision_features
                    .l1_distance(&truth)
                    .unwrap();
                assert!(err < 1e-7, "client class {class}: L1Dist {err}");
                // And the interpretation explains the instance's probe: the
                // membership identity the service verified before serving.
                let probs = model.predict(x.as_slice());
                assert!(served
                    .interpretation
                    .explains_probe(&x, probs.as_slice(), 1e-6));
                per_request.push((served.queries, served.outcome));
            }
        }
    });

    // Capacity bound: 6 distinct (class, region) pairs ≪ 32; nothing may
    // have been evicted, and the cache never exceeds its bound.
    assert!(service.cache().len() <= service.cache().capacity());
    assert_eq!(service.stats().evictions, 0);

    // Stats totals equal the sum of per-request outcomes.
    let stats = service.stats();
    let total = (CLIENTS * REQUESTS_PER_CLIENT) as u64;
    assert_eq!(stats.requests, total);
    assert_eq!(stats.failures, 0);
    assert_eq!(
        stats.hits + stats.store_hits + stats.misses + stats.coalesced_served + stats.failures,
        total,
        "every request ends in exactly one outcome bucket"
    );
    assert_eq!(stats.store_hits, 0, "no durable store attached here");
    let count = |o: ServeOutcome| per_request.iter().filter(|(_, x)| *x == o).count() as u64;
    assert_eq!(count(ServeOutcome::CacheHit), stats.hits);
    assert_eq!(count(ServeOutcome::Solved), stats.misses);
    assert_eq!(count(ServeOutcome::Coalesced), stats.coalesced_served);
    // Per-request query receipts sum to the ledger, which matches the
    // metered API exactly.
    let receipts: u64 = per_request.iter().map(|(q, _)| *q as u64).sum();
    assert_eq!(receipts, stats.queries);
    assert_eq!(stats.queries, service.api().queries());
    // Region sharing worked: 6 clients × 2 regions × 3 classes can need at
    // most 6 solves (one per distinct class/region pair), not one per
    // client.
    assert!(stats.misses <= 6, "misses {}", stats.misses);
    // Latency quantiles exist and are ordered.
    let (p50, p99) = (stats.p50_latency.unwrap(), stats.p99_latency.unwrap());
    assert!(p50 <= p99 && p99 < Duration::from_secs(3600));
}

#[test]
fn capacity_bound_holds_under_many_distinct_regions() {
    // More distinct (class, region) pairs than capacity: eviction must keep
    // the cache at its bound while every answer stays exact.
    let model = two_region_plm();
    let service = InterpretationService::new(
        two_region_plm(),
        ServiceConfig {
            workers: 3,
            cache: SharedCacheConfig {
                capacity: 2,
                ..SharedCacheConfig::default()
            },
            ..ServiceConfig::default()
        },
    );
    std::thread::scope(|scope| {
        for t in 0..3 {
            let service = &service;
            let model = &model;
            scope.spawn(move || {
                for i in 0..10 {
                    let x = instance(t, i);
                    let class = (t + i) % 3;
                    let served = service
                        .submit_instance(x.clone(), class)
                        .wait()
                        .expect("interpretable");
                    let truth = model.local_model(x.as_slice()).decision_features(class);
                    let err = served
                        .interpretation
                        .decision_features
                        .l1_distance(&truth)
                        .unwrap();
                    assert!(err < 1e-7, "thread {t} item {i}: L1Dist {err}");
                }
            });
        }
    });
    assert!(
        service.cache().len() <= service.cache().capacity(),
        "eviction must keep the cache within its bound"
    );
    assert!(
        service.stats().evictions > 0,
        "6 class/region pairs through a 2-capacity cache must evict"
    );
}
