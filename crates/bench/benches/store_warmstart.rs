//! Warm-start economics of the durable region store: cold solve versus
//! WAL-recovered restart.
//!
//! Workload: 100 instances from the 5 most populous regions of the
//! trained PLNN panel (d = 196), the same hot-region shape
//! `batch_throughput` and `service_throughput` use. Two hard claims are
//! asserted before the criterion timings:
//!
//! 1. **≥ 5× fewer API queries after restart.** A service reopened
//!    against the store directory its previous life wrote must serve the
//!    identical workload for at least 5× fewer prediction queries — every
//!    previously solved region costs one membership probe instead of an
//!    Algorithm-1 solve (`1 + T·(d+1)` queries under the paper's halving,
//!    about a fifth of that under the service's default pre-screen).
//! 2. **Zero Algorithm-1 solves after restart.** The restarted run's
//!    `misses` counter must be exactly 0 — restart-without-requerying is
//!    a correctness property of the store, not a statistical one.

use criterion::{criterion_group, criterion_main, Criterion};
use openapi_api::CountingApi;
use openapi_bench::{banner, hot_region_workload, plnn_panel};
use openapi_linalg::Vector;
use openapi_serve::{InterpretationService, ServiceConfig};
use openapi_sync::atomic::{AtomicU64, Ordering};
use std::path::PathBuf;

const WORKLOAD: usize = 100;
const MAX_REGIONS: usize = 5;
const CLASS: usize = 0;

type PanelApi = CountingApi<&'static openapi_eval::panel::PanelModel>;

/// A unique temp directory per call; the bench removes what it creates.
fn temp_store_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "openapi_bench_store_{tag}_{}_{}",
        std::process::id(),
        // ordering: Relaxed — uniqueness only; nothing published.
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn open_service(dir: &PathBuf) -> InterpretationService<PanelApi> {
    InterpretationService::open(
        CountingApi::new(&plnn_panel().model),
        ServiceConfig {
            workers: 4,
            seed: 1,
            ..ServiceConfig::default()
        },
        dir,
    )
    .expect("store directory must open")
}

/// Drives the workload through a service and returns the queries spent.
fn run_workload(svc: &InterpretationService<PanelApi>, instances: &[Vector]) -> u64 {
    let before = svc.api().queries();
    let tickets: Vec<_> = instances
        .iter()
        .map(|x| svc.submit_instance(x.clone(), CLASS))
        .collect();
    for t in tickets {
        t.wait().expect("interior instances interpret");
    }
    svc.api().queries() - before
}

fn bench_store_warmstart(c: &mut Criterion) {
    let instances = hot_region_workload(WORKLOAD, MAX_REGIONS);
    banner(
        "store warm start",
        &format!(
            "{WORKLOAD} instances over ≤{MAX_REGIONS} regions, d = 196, cold vs WAL-recovered"
        ),
    );

    // Cold life: solve everything, persist via the WAL, close cleanly.
    let dir = temp_store_dir("warmstart");
    let svc = open_service(&dir);
    let cold_queries = run_workload(&svc, &instances);
    let cold_stats = svc.stats();
    assert!(cold_stats.misses >= 1, "cold run must solve");
    svc.close().expect("clean close flushes the WAL");

    // Restarted life: same directory, fresh process image.
    let svc = open_service(&dir);
    let store_regions = svc.store().expect("store attached").len();
    assert!(store_regions >= 1, "regions recovered from the WAL");
    let warm_queries = run_workload(&svc, &instances);
    let warm_stats = svc.stats();
    println!(
        "cold start : {cold_queries} queries, {} solves",
        cold_stats.misses
    );
    println!(
        "warm start : {warm_queries} queries, {} solves, {} store hits ({} regions recovered)",
        warm_stats.misses, warm_stats.store_hits, store_regions
    );
    println!(
        "query reduction {:.1}×",
        cold_queries as f64 / warm_queries as f64
    );
    assert_eq!(
        warm_stats.misses, 0,
        "a restarted service must re-serve every stored region without solving"
    );
    assert!(
        cold_queries >= 5 * warm_queries,
        "restart must cut API queries ≥5×: {cold_queries} vs {warm_queries}"
    );
    svc.close().expect("clean close");
    std::fs::remove_dir_all(&dir).ok();

    let mut group = c.benchmark_group("store_warmstart");
    group.sample_size(10);
    group.bench_function("cold_100x5regions", |b| {
        b.iter(|| {
            let dir = temp_store_dir("cold_iter");
            let svc = open_service(&dir);
            let q = run_workload(&svc, &instances);
            drop(svc);
            std::fs::remove_dir_all(&dir).ok();
            q
        })
    });
    group.bench_function("warm_restart_100x5regions", |b| {
        // One cold life outside the timed loop fills the store…
        let dir = temp_store_dir("warm_iter");
        let svc = open_service(&dir);
        run_workload(&svc, &instances);
        svc.close().expect("clean close");
        // …then every timed pass is a full restart: open (replay the
        // WAL), serve the workload, close.
        b.iter(|| {
            let svc = open_service(&dir);
            let q = run_workload(&svc, &instances);
            assert_eq!(svc.stats().misses, 0);
            drop(svc);
            q
        });
        std::fs::remove_dir_all(&dir).ok();
    });
    group.finish();
}

criterion_group!(benches, bench_store_warmstart);
criterion_main!(benches);
