//! Concurrent interpretation-service throughput versus independent
//! per-client batch interpreters.
//!
//! Workload: 8 client threads, each submitting the same 100 instances
//! drawn from the 5 most populous regions of the trained PLNN panel — the
//! shape real traffic has (many users, few hot regions; 800 requests
//! total). Two hard claims are asserted before the criterion timings:
//!
//! 1. **Strictly fewer API queries.** Eight clients sharing one
//!    `InterpretationService` (shared region cache + request coalescing)
//!    must issue strictly fewer total prediction queries than eight
//!    independent `BatchInterpreter`s running the same workload — the
//!    independents each re-solve every region; the service solves each
//!    region once for the whole fleet.
//! 2. **≥ 3× concurrent throughput.** Requests served per second by the
//!    service (800 requests, 8 client threads) must be at least 3× the
//!    single-threaded `batch_throughput` cold path (100 instances, one
//!    thread) on the same instance set.

use criterion::{criterion_group, criterion_main, Criterion};
use openapi_api::{CountingApi, PredictionApi};
use openapi_bench::{banner, hot_region_workload, plnn_panel};
use openapi_core::batch::{BatchConfig, BatchInterpreter};
use openapi_linalg::Vector;
use openapi_serve::{InterpretationService, ServiceConfig};
use openapi_sync::atomic::{AtomicU64, Ordering};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

const WORKLOAD: usize = 100;
const MAX_REGIONS: usize = 5;
const CLASS: usize = 0;
const CLIENTS: usize = 8;

type PanelApi = CountingApi<&'static openapi_eval::panel::PanelModel>;

fn make_service() -> InterpretationService<PanelApi> {
    InterpretationService::new(
        CountingApi::new(&plnn_panel().model),
        ServiceConfig {
            workers: CLIENTS,
            seed: 1,
            ..ServiceConfig::default()
        },
    )
}

/// Eight independent batch interpreters, one per client: total queries.
fn independent_queries(instances: &[Vector]) -> u64 {
    let api = CountingApi::new(&plnn_panel().model);
    for client in 0..CLIENTS {
        let mut batch = BatchInterpreter::new(BatchConfig::default());
        let mut rng = StdRng::seed_from_u64(client as u64 + 1);
        let out = batch.interpret_batch(&api, instances, CLASS, &mut rng);
        assert_eq!(out.stats.failures, 0);
    }
    api.queries()
}

/// One shared service, `CLIENTS` closed-loop client threads each
/// submitting every instance; returns (queries, wall-clock seconds).
fn service_run(instances: &[Vector]) -> (u64, f64) {
    let service = make_service();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            let service = &service;
            scope.spawn(move || {
                let tickets: Vec<_> = instances
                    .iter()
                    .map(|x| service.submit_instance(x.clone(), CLASS))
                    .collect();
                for t in tickets {
                    t.wait().expect("interior instances interpret");
                }
            });
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    (service.api().queries(), elapsed)
}

/// Single-thread cold batch pass (the `batch_throughput` baseline):
/// wall-clock seconds for 100 instances.
fn batch_cold_run(instances: &[Vector]) -> f64 {
    let mut batch = BatchInterpreter::new(BatchConfig::default());
    let mut rng = StdRng::seed_from_u64(1);
    let start = Instant::now();
    let out = batch.interpret_batch(&plnn_panel().model, instances, CLASS, &mut rng);
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(out.stats.failures, 0);
    elapsed
}

/// A latency-bearing API wrapper tracking how many predictions are in
/// flight simultaneously — the direct evidence that distinct-region cold
/// solves of one class run in parallel rather than serializing.
struct ConcurrencyProbe<M> {
    inner: M,
    round_trip: Duration,
    in_flight: AtomicU64,
    peak: AtomicU64,
    calls: AtomicU64,
}

impl<M: PredictionApi> ConcurrencyProbe<M> {
    fn new(inner: M, round_trip: Duration) -> Self {
        ConcurrencyProbe {
            inner,
            round_trip,
            in_flight: AtomicU64::new(0),
            peak: AtomicU64::new(0),
            calls: AtomicU64::new(0),
        }
    }
}

impl<M: PredictionApi> PredictionApi for ConcurrencyProbe<M> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn num_classes(&self) -> usize {
        self.inner.num_classes()
    }

    fn predict(&self, x: &[f64]) -> Vector {
        // Gauges for a concurrency probe: the RMWs are atomic regardless,
        // the final reads happen after every ticket resolved (reply-channel
        // edges), and a stale `peak` only under-reports parallelism.
        // ordering: Relaxed — on all three updates below.
        self.calls.fetch_add(1, Ordering::Relaxed);
        let now = self.in_flight.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak.fetch_max(now, Ordering::Relaxed);
        std::thread::sleep(self.round_trip);
        let out = self.inner.predict(x);
        // ordering: Relaxed — gauge decrement, as above.
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
        out
    }
}

/// ROADMAP item: distinct-region cold misses of one class must no longer
/// serialize behind a single coalescing leader. Five distinct-region
/// instances of one class hit a fresh service over a 500 µs round-trip
/// API; with the default leader pool (4 per class) the solves overlap, so
/// (a) at least two predictions are observed in flight at once and (b)
/// the wall clock lands well under the fully-serialized floor of
/// `calls × round_trip`.
fn assert_cold_misses_parallelize(instances: &[Vector]) {
    let round_trip = Duration::from_micros(500);
    let distinct: Vec<Vector> = instances[..MAX_REGIONS].to_vec();
    let service = InterpretationService::new(
        ConcurrencyProbe::new(&plnn_panel().model, round_trip),
        ServiceConfig {
            workers: MAX_REGIONS,
            seed: 1,
            ..ServiceConfig::default()
        },
    );
    let start = Instant::now();
    let tickets: Vec<_> = distinct
        .iter()
        .map(|x| service.submit_instance(x.clone(), CLASS))
        .collect();
    for t in tickets {
        t.wait().expect("interior instances interpret");
    }
    let elapsed = start.elapsed();
    let api = service.api();
    // ordering: Relaxed — every ticket resolved above; the reply-channel
    // receives ordered all probe RMWs before these loads.
    let calls = api.calls.load(Ordering::Relaxed);
    let peak = api.peak.load(Ordering::Relaxed);
    let serial_floor = round_trip * calls as u32;
    println!(
        "cold-start parallelism: {} distinct regions, {} calls, peak {} in flight, \
         {elapsed:.2?} vs {serial_floor:.2?} serialized",
        MAX_REGIONS, calls, peak
    );
    assert!(
        peak >= 2,
        "distinct-region cold solves of one class must overlap (peak {peak})"
    );
    assert!(
        elapsed < serial_floor.mul_f64(0.75),
        "cold start must beat the serialized floor: {elapsed:.2?} vs {serial_floor:.2?}"
    );
    assert_eq!(service.stats().failures, 0);
}

fn bench_service_throughput(c: &mut Criterion) {
    let instances = hot_region_workload(WORKLOAD, MAX_REGIONS);
    banner(
        "service throughput",
        &format!("{CLIENTS} clients × {WORKLOAD} instances over ≤{MAX_REGIONS} regions, d = 196"),
    );
    assert_cold_misses_parallelize(&instances);

    let independent = independent_queries(&instances);
    let (shared, service_secs) = service_run(&instances);
    let batch_secs = batch_cold_run(&instances);
    let service_rps = (CLIENTS * WORKLOAD) as f64 / service_secs;
    let batch_rps = WORKLOAD as f64 / batch_secs;
    println!("{CLIENTS} independent BatchInterpreters : {independent} queries");
    println!(
        "1 shared InterpretationService   : {shared} queries, {:.0} req/s ({} requests in {service_secs:.3}s)",
        service_rps,
        CLIENTS * WORKLOAD
    );
    println!(
        "single-thread batch cold         : {:.0} req/s ({WORKLOAD} instances in {batch_secs:.3}s)",
        batch_rps
    );
    println!(
        "query reduction {:.1}×, throughput {:.1}×",
        independent as f64 / shared as f64,
        service_rps / batch_rps
    );
    assert!(
        shared < independent,
        "coalescing + shared cache must cut total queries: {shared} vs {independent}"
    );
    assert!(
        service_rps >= 3.0 * batch_rps,
        "concurrent throughput must be ≥3× the single-thread cold path: \
         {service_rps:.0} vs {batch_rps:.0} req/s"
    );

    let mut group = c.benchmark_group("service_throughput");
    group.sample_size(10);
    group.bench_function("independent_8x100x5regions", |b| {
        b.iter(|| independent_queries(&instances))
    });
    group.bench_function("service_cold_8x100x5regions", |b| {
        b.iter(|| service_run(&instances))
    });
    group.bench_function("service_warm_8x100x5regions", |b| {
        let service = make_service();
        // Warm the cache once; timed passes serve everything as hits.
        for x in &instances {
            service
                .submit_instance(x.clone(), CLASS)
                .wait()
                .expect("warmup");
        }
        b.iter(|| {
            let tickets: Vec<_> = instances
                .iter()
                .map(|x| service.submit_instance(x.clone(), CLASS))
                .collect();
            tickets
                .into_iter()
                .map(|t| t.wait().expect("warm hits").queries)
                .sum::<usize>()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_service_throughput);
criterion_main!(benches);
