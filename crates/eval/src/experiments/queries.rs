//! Query-budget accounting: what each interpretation costs at the API.
//!
//! The paper notes OpenAPI's complexity `O(T · C (d+2)³)` with `T` the
//! number of shrink iterations; this experiment measures the *billable*
//! side of every black-box method — prediction queries per interpretation —
//! which is what a real cloud deployment meters. Gradient methods are free
//! at the API (they bill parameter access instead) and are omitted.

use crate::config::ExperimentConfig;
use crate::driver::BatchDriver;
use crate::experiments::{out_path, predicted_classes};
use crate::panel::{eval_indices, Panel};
use openapi_api::CountingApi;
use openapi_core::{Method, OpenApiConfig};
use openapi_linalg::Summary;
use openapi_metrics::report::{write_csv, Table};
use openapi_serve::{InterpretationService, ServeError, Served, ServiceConfig, StatsSnapshot};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;

/// Runs the accounting on every panel; prints queries min/mean/max per
/// method and writes `queries_budget.csv`.
///
/// # Errors
/// I/O errors writing the CSV.
pub fn run(cfg: &ExperimentConfig, panels: &[Panel]) -> std::io::Result<()> {
    let methods: Vec<Method> = Method::quality_lineup()
        .into_iter()
        .filter(|m| m.is_black_box())
        .collect();
    let mut csv_rows: Vec<Vec<String>> = Vec::new();

    for panel in panels {
        let indices = eval_indices(panel, cfg.eval_instances.min(8), cfg.seed);
        let classes = predicted_classes(panel, &indices);
        let mut table = Table::new(
            format!(
                "Query budget — {} (prediction queries per interpretation)",
                panel.name
            ),
            &["method", "min", "mean", "max"],
        );
        for method in &methods {
            let mut summary = Summary::new();
            let api = CountingApi::new(&panel.model);
            for (&idx, &class) in indices.iter().zip(classes.iter()) {
                let mut rng = StdRng::seed_from_u64(cfg.seed ^ idx as u64);
                api.reset();
                let _ = method.attribution(&api, panel.test.instance(idx), class, &mut rng);
                summary.push(api.queries() as f64);
            }
            let fmt = |v: Option<f64>| v.map(|x| format!("{x:.0}")).unwrap_or_default();
            table.push_row(vec![
                method.name(),
                fmt(summary.min()),
                fmt(summary.mean()),
                fmt(summary.max()),
            ]);
            csv_rows.push(vec![
                panel.name.clone(),
                method.name(),
                fmt(summary.min()),
                fmt(summary.mean()),
                fmt(summary.max()),
            ]);
        }
        println!("{}", table.render());

        // The region-deduplicating pass on the same instances: one
        // membership probe per cache hit instead of a full Algorithm 1 run.
        let mut batch_cfg = cfg.clone();
        batch_cfg.eval_instances = cfg.eval_instances.min(8);
        let driver = BatchDriver::new(panel, &batch_cfg);
        let (served, stats) = dedup_pass(cfg, &driver);
        println!(
            "OpenAPI batched over the same {} instances: {} hits / {} misses \
             across {} regions, {} queries total ({} failures)\n",
            stats.requests,
            stats.hits,
            stats.misses,
            regions_served(&served),
            stats.queries,
            stats.failures
        );

        // Opt-in concurrent path: the same work items through a shared
        // `openapi-serve` service hammered by `service_clients` threads.
        if cfg.service_clients > 0 {
            let service_stats = run_service(cfg, &driver);
            println!(
                "OpenAPI served concurrently ({} client threads):\n{service_stats}\n",
                cfg.service_clients
            );
        }

        // Opt-in wire path: the same work items again, but through
        // `openapi-net` client connections against a remote server.
        if let Some(addr) = &cfg.remote {
            match run_remote(cfg, &driver, addr) {
                Ok(report) => println!("{report}\n"),
                Err(e) => eprintln!("remote leg against {addr} failed: {e}\n"),
            }
        }
    }
    write_csv(
        &out_path(cfg, "queries_budget.csv"),
        &[
            "panel",
            "method",
            "min_queries",
            "mean_queries",
            "max_queries",
        ],
        &csv_rows,
    )
}

/// The region-deduplicating pass: the driver's items, in order, through a
/// fresh one-worker service on the paper's Halving policy, each waited on
/// before the next is sent. Request `i` therefore draws
/// [`crate::parallel::item_rng`]`(cfg.seed, i)`, and every solved region is
/// admitted before the next item probes the cache, so a later instance of
/// an already-solved region costs its one probe query (Theorem 2).
fn dedup_pass(
    cfg: &ExperimentConfig,
    driver: &BatchDriver<'_>,
) -> (Vec<Result<Served, ServeError>>, StatsSnapshot) {
    let service = InterpretationService::new(
        driver.panel().model.clone(),
        ServiceConfig {
            workers: 1,
            max_leaders_per_class: 1,
            seed: cfg.seed,
            openapi: OpenApiConfig::default(),
            ..ServiceConfig::default()
        },
    );
    let served = driver
        .items()
        .iter()
        .map(|item| {
            service
                .submit_instance(driver.instance(*item).clone(), item.class)
                .wait()
        })
        .collect();
    (served, service.stats())
}

/// Distinct regions a pass was served from, counted by fingerprint.
fn regions_served(served: &[Result<Served, ServeError>]) -> usize {
    served
        .iter()
        .filter_map(|r| r.as_ref().ok())
        .map(|s| s.fingerprint)
        .collect::<HashSet<_>>()
        .len()
}

/// The opt-in concurrent-service path: every client thread submits the
/// driver's full work-item list to one shared [`InterpretationService`]
/// (mirroring many users asking about the same traffic), waits for all
/// tickets, and the aggregate statistics are returned for reporting. The
/// shared cache + coalescing mean the whole fleet pays for each region's
/// Algorithm-1 solve at most once — this experiment accounts query
/// budgets, so the leader pool is pinned to 1 (strictly minimal spend;
/// cold-start latency is the bench suite's concern). With
/// `cfg.service_store_dir` set, the service is backed by a durable
/// `openapi-store` region store, and a repeated run re-serves previously
/// solved regions as store hits (visible in the returned stats).
fn run_service(cfg: &ExperimentConfig, driver: &BatchDriver<'_>) -> StatsSnapshot {
    let api = CountingApi::new(driver.panel().model.clone());
    let config = ServiceConfig {
        workers: cfg.service_clients,
        seed: cfg.seed,
        max_leaders_per_class: 1,
        ..ServiceConfig::default()
    };
    let service = match &cfg.service_store_dir {
        Some(dir) => InterpretationService::open(api, config, dir)
            .expect("service store directory must open"),
        None => InterpretationService::new(api, config),
    };
    std::thread::scope(|scope| {
        for _ in 0..cfg.service_clients {
            let service = &service;
            scope.spawn(move || {
                let tickets: Vec<_> = driver
                    .items()
                    .iter()
                    .map(|item| service.submit_instance(driver.instance(*item).clone(), item.class))
                    .collect();
                for ticket in tickets {
                    // Failures are tolerated here (they are counted in the
                    // stats); the experiment reports, not asserts.
                    let _ = ticket.wait();
                }
            });
        }
    });
    let stats = service.stats();
    if let Err(e) = service.close() {
        eprintln!("warning: service store close failed: {e}");
    }
    stats
}

/// The opt-in wire path: `service_clients.max(1)` threads, each with its
/// own [`openapi_net::Client`] connection to `addr`, submit the driver's
/// full work-item list over the wire; afterwards one connection fetches
/// the server's statistics. Per-item failures (e.g. a server fronting a
/// model of a different dimensionality) are counted, not fatal — the
/// experiment reports, it does not assert. Only a failed connect/handshake
/// aborts the leg.
fn run_remote(
    cfg: &ExperimentConfig,
    driver: &BatchDriver<'_>,
    addr: &str,
) -> Result<String, openapi_net::ClientError> {
    use openapi_sync::atomic::{AtomicU64, Ordering};

    let clients = cfg.service_clients.max(1);
    // Fail fast (before spawning a fleet) if nobody is listening.
    let mut observer = openapi_net::Client::connect(addr)?;
    let rtt = observer.ping()?;
    let (ok, failed) = (AtomicU64::new(0), AtomicU64::new(0));
    std::thread::scope(|scope| {
        for _ in 0..clients {
            let (ok, failed) = (&ok, &failed);
            scope.spawn(move || {
                let Ok(mut client) = openapi_net::Client::connect(addr) else {
                    // ordering: Relaxed — tally counters; the scope join
                    // publishes them before the final loads.
                    failed.fetch_add(driver.items().len() as u64, Ordering::Relaxed);
                    return;
                };
                for item in driver.items() {
                    match client.interpret(driver.instance(*item), item.class) {
                        // ordering: Relaxed — tallies, as above.
                        Ok(_) => ok.fetch_add(1, Ordering::Relaxed),
                        Err(_) => failed.fetch_add(1, Ordering::Relaxed),
                    };
                }
            });
        }
    });
    let stats = observer.stats()?;
    Ok(format!(
        "OpenAPI served over the wire ({clients} connections to {addr}, rtt {rtt:?}): \
         {} ok / {} failed\nserver-side stats:\n{stats}",
        // ordering: Relaxed — the thread-scope join above already ordered
        // every tally before these loads.
        ok.load(Ordering::Relaxed),
        failed.load(Ordering::Relaxed),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Profile;
    use crate::panel::build_lmt_panel;
    use openapi_api::GroundTruthOracle;
    use openapi_data::SynthStyle;

    /// Pins the dedup pass's accounting on the smoke MnistLike LMT panel:
    /// the figures `openapi-exp queries --profile smoke` prints for it.
    #[test]
    fn dedup_pass_on_the_smoke_lmt_panel_is_pinned() {
        let mut cfg = ExperimentConfig::for_profile(Profile::Smoke);
        cfg.eval_instances = 4;
        let panel = build_lmt_panel(&cfg, SynthStyle::MnistLike);
        let driver = BatchDriver::new(&panel, &cfg);
        let (served, stats) = dedup_pass(&cfg, &driver);
        assert_eq!(
            (
                stats.hits,
                stats.misses,
                regions_served(&served),
                stats.queries,
                stats.failures
            ),
            (1, 3, 3, 5126, 0)
        );
    }

    #[test]
    fn dedup_pass_accounts_every_item_and_serves_exact_answers() {
        let cfg = ExperimentConfig::for_profile(Profile::Smoke);
        let panel = build_lmt_panel(&cfg, SynthStyle::MnistLike);
        let driver = BatchDriver::new(&panel, &cfg);
        let (served, stats) = dedup_pass(&cfg, &driver);
        assert_eq!(served.len(), driver.len());
        assert_eq!(stats.requests, driver.len() as u64);
        assert_eq!(
            stats.hits + stats.misses + stats.failures,
            driver.len() as u64
        );
        // Every successful item's answer matches its region's ground truth.
        for (item, result) in driver.items().iter().zip(&served) {
            if let Ok(s) = result {
                let truth = panel
                    .model
                    .local_model(driver.instance(*item).as_slice())
                    .decision_features(item.class);
                let err = s.interpretation.decision_features.l1_distance(&truth);
                assert!(err.unwrap() < 1e-6);
            }
        }
    }

    #[test]
    fn service_path_shares_solves_across_clients() {
        let mut cfg = ExperimentConfig::for_profile(Profile::Smoke);
        cfg.eval_instances = 3;
        cfg.service_clients = 3;
        let panel = build_lmt_panel(&cfg, SynthStyle::MnistLike);
        let driver = BatchDriver::new(&panel, &cfg);
        let stats = run_service(&cfg, &driver);
        // 3 clients × 3 items each, every request accounted for exactly once.
        assert_eq!(stats.requests, 9);
        assert_eq!(
            stats.hits + stats.store_hits + stats.misses + stats.coalesced_served + stats.failures,
            stats.requests
        );
        assert!(stats.store.is_none(), "no store dir configured");
        // The fleet shares the cache: at most one solve per distinct item,
        // never one per client.
        assert!(stats.misses <= 3, "misses {}", stats.misses);

        // Store-backed repeat on the same panel: the first run fills the
        // durable store, the second re-serves from it without a single
        // additional Algorithm-1 solve.
        let dir =
            std::env::temp_dir().join(format!("openapi_queries_store_{}", std::process::id()));
        cfg.service_store_dir = Some(dir.clone());
        let first = run_service(&cfg, &driver);
        assert!(first.misses >= 1, "cold run must solve");
        assert_eq!(first.store.as_ref().unwrap().appends, first.misses);
        let second = run_service(&cfg, &driver);
        assert_eq!(second.misses, 0, "warm store run must not re-solve");
        assert!(second.store_hits >= 1, "store hits must be reported");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn remote_path_drives_items_over_the_wire() {
        let mut cfg = ExperimentConfig::for_profile(Profile::Smoke);
        cfg.eval_instances = 2;
        cfg.service_clients = 2;
        let panel = build_lmt_panel(&cfg, SynthStyle::MnistLike);
        let driver = BatchDriver::new(&panel, &cfg);

        // An in-process server over the same panel model, on an ephemeral
        // port — exactly what `interpretation_server --listen` would host.
        let service = openapi_serve::InterpretationService::new(
            CountingApi::new(panel.model.clone()),
            ServiceConfig {
                workers: 2,
                seed: cfg.seed,
                max_leaders_per_class: 1,
                ..ServiceConfig::default()
            },
        );
        let server =
            openapi_net::Server::bind("127.0.0.1:0", service, openapi_net::ServerConfig::default())
                .unwrap();
        cfg.remote = Some(server.local_addr().to_string());

        let report = run_remote(&cfg, &driver, cfg.remote.as_ref().unwrap()).unwrap();
        assert!(report.contains("2 connections"), "{report}");
        // 2 connections × 2 items, all served, none failed.
        assert!(report.contains("4 ok / 0 failed"), "{report}");
        let stats = server.service().stats();
        assert_eq!(stats.requests, 4);
        assert_eq!(stats.failures, 0);
        // The fleet shares the server's cache: at most one solve per
        // distinct item, never one per connection.
        assert!(stats.misses <= 2, "misses {}", stats.misses);
        server.close().unwrap();

        // Nobody listening: the leg reports a typed error instead of
        // wedging the experiment.
        assert!(run_remote(&cfg, &driver, cfg.remote.as_ref().unwrap()).is_err());
    }

    #[test]
    fn query_counts_match_method_formulas() {
        let mut cfg = ExperimentConfig::for_profile(Profile::Smoke);
        cfg.eval_instances = 2;
        cfg.out_dir = std::env::temp_dir().join("openapi_queries_test");
        let panel = build_lmt_panel(&cfg, SynthStyle::MnistLike);
        run(&cfg, &[panel]).unwrap();
        let csv = std::fs::read_to_string(cfg.out_dir.join("queries_budget.csv")).unwrap();
        // ZOO costs exactly 2d + 1 = 393 queries at d = 196.
        let zoo = csv.lines().find(|l| l.contains("Z(1e-4)")).unwrap();
        assert!(zoo.contains("393"), "{zoo}");
        // The naive method costs exactly d + 1 = 197.
        let naive = csv.lines().find(|l| l.contains("N(1e-4)")).unwrap();
        assert!(naive.contains("197"), "{naive}");
        std::fs::remove_dir_all(&cfg.out_dir).ok();
    }
}
