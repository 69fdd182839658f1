//! Batch-interpretation throughput: the Theorem-2 region cache versus
//! per-instance Algorithm 1 on a clustered workload.
//!
//! Workload: 100 instances drawn from the 5 most populous regions of the
//! trained PLNN panel (136 distinct regions in its test set) — the shape
//! real traffic has (many users, few hot regions). The printed accounting
//! must show the batch layer issuing at least 5× fewer prediction queries
//! than the per-instance loop; the criterion group then times both paths.

use criterion::{criterion_group, criterion_main, Criterion};
use openapi_api::CountingApi;
use openapi_bench::{banner, hot_region_workload, plnn_panel};
use openapi_core::batch::{BatchConfig, BatchInterpreter};
use openapi_core::OpenApiInterpreter;
use openapi_linalg::Vector;
use rand::rngs::StdRng;
use rand::SeedableRng;

const WORKLOAD: usize = 100;
const MAX_REGIONS: usize = 5;
const CLASS: usize = 0;

fn per_instance_queries(instances: &[Vector]) -> u64 {
    let api = CountingApi::new(&plnn_panel().model);
    let interpreter = OpenApiInterpreter::default();
    let mut rng = StdRng::seed_from_u64(1);
    for x in instances {
        let _ = interpreter.interpret(&api, x, CLASS, &mut rng);
    }
    api.queries()
}

fn batched_queries(instances: &[Vector]) -> (u64, usize, usize) {
    let api = CountingApi::new(&plnn_panel().model);
    let mut batch = BatchInterpreter::new(BatchConfig::default());
    let mut rng = StdRng::seed_from_u64(1);
    let out = batch.interpret_batch(&api, instances, CLASS, &mut rng);
    (api.queries(), out.stats.hits, out.stats.regions)
}

fn bench_batch_throughput(c: &mut Criterion) {
    let instances = hot_region_workload(WORKLOAD, MAX_REGIONS);
    banner(
        "batch throughput",
        &format!("{WORKLOAD} instances from ≤{MAX_REGIONS} regions, d = 196"),
    );

    let solo = per_instance_queries(&instances);
    let (probed, hits, regions) = batched_queries(&instances);
    println!("per-instance OpenAPI : {solo} queries");
    println!("batched (black-box)  : {probed} queries ({hits} hits over {regions} regions)");
    println!("query reduction      : {:.1}×", solo as f64 / probed as f64);
    assert!(
        probed * 5 <= solo,
        "batch layer must cut queries ≥5×: {probed} vs {solo}"
    );

    let mut group = c.benchmark_group("batch_throughput");
    group.sample_size(10);
    group.bench_function("per_instance_100x5regions", |b| {
        b.iter(|| {
            let interpreter = OpenApiInterpreter::default();
            let mut rng = StdRng::seed_from_u64(1);
            instances
                .iter()
                .filter_map(|x| {
                    interpreter
                        .interpret(&plnn_panel().model, x, CLASS, &mut rng)
                        .ok()
                })
                .count()
        })
    });
    group.bench_function("batched_cold_100x5regions", |b| {
        b.iter(|| {
            let mut batch = BatchInterpreter::new(BatchConfig::default());
            let mut rng = StdRng::seed_from_u64(1);
            batch
                .interpret_batch(&plnn_panel().model, &instances, CLASS, &mut rng)
                .stats
        })
    });
    group.bench_function("batched_warm_100x5regions", |b| {
        let mut batch = BatchInterpreter::new(BatchConfig::default());
        let mut rng = StdRng::seed_from_u64(1);
        let _ = batch.interpret_batch(&plnn_panel().model, &instances, CLASS, &mut rng);
        b.iter(|| {
            batch
                .interpret_batch(&plnn_panel().model, &instances, CLASS, &mut rng)
                .stats
        })
    });
    group.finish();
}

criterion_group!(benches, bench_batch_throughput);
criterion_main!(benches);
