//! The three workloads. `--trace 0` runs one timed phase against the
//! program as shipped; the only wrapper is the API's query counter, which
//! the ledger needs. `--trace 1` runs the same traffic against a service
//! built with the timing wrappers, then the runtime-switch A/Bs and the
//! timed direct calls of `layers`, and reports the per-layer metrics.

use crate::drive::{self, mean, median, quantile, sorted, Tally, Window, STREAMS};
use crate::gen::{self, Panel, Pools, Region, Stream, CLASS};
use crate::layers::{self, SolveLayer};
use crate::wrap::{self, ApiMeter, KernelMeter, MeteredApi, TimedBackend};
use crate::{Args, Failure, Report, Workload};
use openapi_api::PredictionApi;
use openapi_core::decision::{Interpretation, RegionFingerprint};
use openapi_linalg::Vector;
use openapi_metrics::{quantile_from_buckets, LATENCY_BUCKETS};
use openapi_net::{Server, ServerConfig};
use openapi_serve::{
    set_drift_detection_enabled, InterpretationService, ServeOutcome, Served, ServiceConfig,
    SharedCacheConfig, StageSlot, StatsSnapshot,
};
use openapi_store::{RegionStore, StoreConfig, StoreStatsSnapshot};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

type Service = InterpretationService<MeteredApi>;
type Metrics = Vec<(&'static str, f64)>;

/// Worker threads of every service: one per client stream.
const WORKERS: usize = STREAMS;
/// Full set-ups per run: at least `SETUP_MIN_REPS`, and more until they
/// span `SETUP_MIN_SPAN`, so that a second of load from elsewhere on the
/// host moves a few of them and not their median, which is `setup_s`.
const SETUP_MIN_REPS: usize = 7;
const SETUP_MIN_SPAN: Duration = Duration::from_secs(3);
const SETUP_MAX_REPS: usize = 64;
/// Service start-ups per run; `recover_s` is their median. A fixed count,
/// so every run opens and closes as many services, and peak memory does
/// not depend on how fast they started.
const RECOVER_REPS: usize = 11;
const WARM_REGIONS: usize = 64;
const WARM_MEMBERS: usize = 16;
/// Well inside the default cache (8 shards × 512 slots), so no hit turns
/// into a solve through eviction. At 2000 regions (28 MB of packed rows)
/// the scan was memory-bound and throughput moved 20-30% between runs on
/// a shared 2-core host; at 500 the spread over ten seeds measured 8-26%
/// with the host's load, which keeps restart_scan out of `BENCHMARK.json`.
/// At 128 it is four times faster but no steadier.
const RESTART_REGIONS: usize = 500;
const RESTART_MEMBERS: usize = 4;
/// Regions restart_scan's set-up appends between durability barriers.
const WRITE_BATCH: usize = 64;
/// Requests per `cold_solve` round, one per region of its pool slice. Each
/// round runs against a service opened over a fresh directory, so every
/// request solves, and a run repeats rounds until its time is up. So the
/// memory a round holds and the store it leaves do not grow with how fast
/// the program solves, and no run can exhaust the pool.
const COLD_ROUND: usize = 256;
/// `cold_solve`'s pool: rounds send its slices in turn, so a run's tail
/// latency spans this many distinct regions, not one round's.
const COLD_POOL: usize = 4 * COLD_ROUND;
/// Regions no request touches: store misses and direct solves.
const FRESH: usize = 16;
/// Samples a one-second window needs for its own p99: ten beyond it.
const WINDOW_P99_SAMPLES: usize = 1000;
/// Wire traffic before timing starts (connections, caches, page faults).
const WARMUP: Duration = Duration::from_millis(300);
/// Stream ids of untimed traffic, apart from the timed streams' `0..STREAMS`.
const WARMUP_STREAMS: usize = 100;
const AB_STREAMS: usize = 200;
const NET_STREAM: usize = 300;
const AB_ROUNDS: usize = 6;
/// Shares of `--seconds` in the traced run: its timed phase, and the A/Bs
/// together; the direct calls take the rest.
const PHASE_SHARE: f64 = 0.45;
const AB_SHARE: f64 = 0.35;
const DIRECT_SOLVES: usize = 8;
const FACTOR_SYSTEMS: usize = 6;
const NET_PROBES: usize = 300;
const LOOKUP_HITS: usize = 64;
const CODEC_REGIONS: usize = 64;
/// What a warm in-process request may be served as.
const WARM_OUTCOMES: &[ServeOutcome] = &[ServeOutcome::CacheHit, ServeOutcome::StoreHit];

pub fn run(args: &Args, work: &Path) -> Result<Report, Failure> {
    openapi_trace::set_runtime_enabled(true);
    set_drift_detection_enabled(true);
    match (args.workload, args.trace) {
        (Workload::WarmWire, false) => warm_wire(args, work),
        (Workload::WarmWire, true) => warm_wire_traced(args, work),
        (Workload::RestartScan, false) => restart_scan(args, work),
        (Workload::RestartScan, true) => restart_scan_traced(args, work),
        (Workload::ColdSolve, false) => cold_solve(args, work),
        (Workload::ColdSolve, true) => cold_solve_traced(args, work),
    }
}

// ---- warm_wire -------------------------------------------------------

fn warm_bench(args: &Args, work: &Path) -> Result<Bench, String> {
    set_up(args, work, WARM_REGIONS, WARM_MEMBERS, FRESH, |_, _| Ok(()))
}

/// warm_wire's deployment coming back: service up, the seeded regions
/// loaded into its cache, listener bound.
fn warm_server(b: &Bench, seed: u64, traced: bool) -> Result<(Server<MeteredApi>, Meters), String> {
    let (api, config, meters) = instrument(&b.panel, seed, traced);
    let service = InterpretationService::new(api, config);
    for region in &b.pools.regions {
        service.cache().insert(Arc::clone(&region.interpretation));
    }
    let server = Server::bind("127.0.0.1:0", service, ServerConfig::default())
        .map_err(|e| format!("binding the server failed: {e}"))?;
    Ok((server, meters))
}

fn warm_up(addr: SocketAddr, regions: &[Region], seed: u64) -> Result<(), String> {
    wire_traffic(addr, regions, seed, WARMUP_STREAMS, WARMUP)
        .0
        .check()
}

fn warm_wire(args: &Args, work: &Path) -> Result<Report, Failure> {
    let b = warm_bench(args, work)?;
    let (recover_s, (server, meters)) = start_up(
        || warm_server(&b, args.seed, false),
        |(server, _)| close_server(server),
    )?;
    let (addr, regions) = (server.local_addr(), &b.pools.regions);
    warm_up(addr, regions, args.seed)?;
    let phase = measured(
        || server.service().stats(),
        &meters,
        || wire_traffic(addr, regions, args.seed, 0, timed(args)),
    )?;
    close_server(server)?;
    Ok(one_phase_report(args, &b, &phase, recover_s))
}

fn warm_wire_traced(args: &Args, work: &Path) -> Result<Report, Failure> {
    let b = warm_bench(args, work)?;
    let regions = &b.pools.regions;
    let (server, meters) = warm_server(&b, args.seed, true)?;
    let addr = server.local_addr();
    warm_up(addr, regions, args.seed)?;
    let traced = measured(
        || server.service().stats(),
        &meters,
        || wire_traffic(addr, regions, args.seed, 0, phase_len(args)),
    )?;
    let mut m = serve_layers(&traced);
    let rtt = sorted(traced.tally.lat_ns.iter().map(|&ns| ns as f64 / 1e3));
    let wire = sorted(traced.tally.wire_ns.iter().map(|&ns| ns as f64 / 1e3));
    m.extend(ab_layers(args, |arm| {
        rps(wire_traffic(addr, regions, args.seed, AB_STREAMS, arm))
    })?);
    m.extend(net_layers(&rtt, &wire, &layers::pings(addr, NET_PROBES)?));
    close_server(server)?;

    // warm_wire serves without a store; its store layer is timed on a side
    // store holding the same regions.
    let side = RegionStore::open(work.join("side-store"), store_config())
        .map_err(|e| format!("opening the side store failed: {e}"))?;
    for region in regions {
        side.append(region.fingerprint, Arc::clone(&region.interpretation));
    }
    side.flush()
        .map_err(|e| format!("flushing the side store failed: {e}"))?;
    m.extend(store_lookup_layers(&side, &b, regions, &b.pools.fresh)?);
    m.extend(store_counters(&side.stats(), None));
    side.close()
        .map_err(|e| format!("closing the side store failed: {e}"))?;

    m.extend(direct_solve_layers(&b, args.seed)?);
    m.extend(direct_layers(
        &b,
        &pairs_of(regions),
        &b.pools.fresh,
        args.seed,
    )?);
    Ok(report(
        args,
        &b,
        &traced.tally,
        m,
        vec![traced.ledger.clone()],
    ))
}

// ---- restart_scan ----------------------------------------------------

fn restart_bench(args: &Args, work: &Path) -> Result<Bench, String> {
    set_up(
        args,
        work,
        RESTART_REGIONS,
        RESTART_MEMBERS,
        FRESH,
        |pools, dir| write_store(dir, &pools.regions),
    )
}

/// restart_scan's deployment coming back: the service reopened over the
/// set-up's store, which must hold every region.
fn open_restart(b: &Bench, seed: u64, traced: bool) -> Result<(Service, Meters), String> {
    let (service, meters) = open_service(b, seed, traced, &b.store_dir)?;
    let held = service.store().map_or(0, RegionStore::len);
    if held != b.pools.regions.len() {
        return Err(format!(
            "the reopened store holds {held} regions; set-up wrote {}",
            b.pools.regions.len()
        ));
    }
    Ok((service, meters))
}

fn restart_scan(args: &Args, work: &Path) -> Result<Report, Failure> {
    let b = restart_bench(args, work)?;
    let (recover_s, (service, meters)) = start_up(
        || open_restart(&b, args.seed, false),
        |(service, _)| close_service(service),
    )?;
    let phase = measured(
        || service.stats(),
        &meters,
        || inproc_traffic(&service, &b.pools.regions, args.seed, 0, timed(args)),
    )?;
    zero_solves(&phase)?;
    close_service(service)?;
    Ok(one_phase_report(args, &b, &phase, recover_s))
}

fn restart_scan_traced(args: &Args, work: &Path) -> Result<Report, Failure> {
    let b = restart_bench(args, work)?;
    let regions = &b.pools.regions;
    let (service, meters) = open_restart(&b, args.seed, true)?;
    let traced = measured(
        || service.stats(),
        &meters,
        || inproc_traffic(&service, regions, args.seed, 0, phase_len(args)),
    )?;
    zero_solves(&traced)?;
    let mut m = serve_layers(&traced);
    m.extend(phase_store_counters(&traced)?);
    m.extend(ab_layers(args, |arm| {
        rps(inproc_traffic(
            &service, regions, args.seed, AB_STREAMS, arm,
        ))
    })?);
    let store = service
        .store()
        .ok_or_else(|| "the reopened service has no store".to_string())?;
    m.extend(store_lookup_layers(store, &b, regions, &b.pools.fresh)?);
    m.extend(served_net_layers(service, regions, args.seed)?);
    m.extend(direct_solve_layers(&b, args.seed)?);
    m.extend(direct_layers(
        &b,
        &pairs_of(regions),
        &b.pools.fresh,
        args.seed,
    )?);
    Ok(report(
        args,
        &b,
        &traced.tally,
        m,
        vec![traced.ledger.clone()],
    ))
}

/// restart_scan's gate: the service ran no solve.
fn zero_solves(phase: &Phase) -> Result<(), Failure> {
    match phase.after.misses - phase.before.misses {
        0 => Ok(()),
        solves => Err(failure(
            &phase.tally,
            format!("restart_scan ran {solves} solves; it must run none"),
        )),
    }
}

// ---- cold_solve ------------------------------------------------------

fn cold_bench(args: &Args, work: &Path) -> Result<Bench, String> {
    set_up(args, work, COLD_POOL, 1, FRESH, |_, _| Ok(()))
}

fn cold_solve(args: &Args, work: &Path) -> Result<Report, Failure> {
    let b = cold_bench(args, work)?;
    let run = cold_rounds(&b, args.seed, false, work, timed(args))?;
    close_service(run.service)?;
    // A cold deployment restarts over what it solved: reopen the store the
    // last round wrote (the first reopen also compacts the WAL it finds).
    let (recover_s, (service, _)) = start_up(
        || open_service(&b, args.seed, false, &run.dir),
        |(service, _)| close_service(service),
    )?;
    close_service(service)?;
    let api_calls = run.rounds.iter().map(|p| p.api_calls).sum();
    let values = end_to_end(&b, &run.tally, run.secs, api_calls, recover_s);
    let mut lines = run.lines;
    lines.push(samples_line(&run.tally, run.secs));
    Ok(report(args, &b, &run.tally, values, lines))
}

fn cold_solve_traced(args: &Args, work: &Path) -> Result<Report, Failure> {
    let b = cold_bench(args, work)?;
    let run = cold_rounds(&b, args.seed, true, work, phase_len(args))?;
    // Rounds are alike; the layers of one are read from the last.
    let last = run
        .rounds
        .last()
        .expect("a cold run has at least one round");
    let mut m = serve_layers(last);
    m.extend(phase_store_counters(last)?);
    let api_busy_ns = run.rounds.iter().map(|p| p.api_busy_ns).sum();
    m.extend(solve_layers(&served_solves(&b, &run.solves, api_busy_ns)));
    // The last round's service has solved every region of its slice:
    // re-requests of them are warm.
    let pool = cold_slice(&b.pools.regions, run.rounds.len() - 1);
    let service = run.service;
    m.extend(ab_layers(args, |arm| {
        rps(inproc_traffic(&service, pool, args.seed, AB_STREAMS, arm))
    })?);
    let store = service
        .store()
        .ok_or_else(|| "the cold service has no store".to_string())?;
    m.extend(store_lookup_layers(store, &b, pool, &b.pools.fresh)?);
    m.extend(served_net_layers(service, pool, args.seed)?);
    m.extend(direct_layers(
        &b,
        &pairs_of(pool),
        &b.pools.fresh,
        args.seed,
    )?);
    Ok(report(args, &b, &run.tally, m, run.lines))
}

/// A cold_solve phase: its rounds, the client tally over all of them (on
/// one clock from the phase's start), and the last round's service, still
/// open over its directory.
struct ColdRun {
    rounds: Vec<Phase>,
    tally: Tally,
    secs: f64,
    /// `(latency, queries)` of every `Solved` reply.
    solves: Vec<(Duration, usize)>,
    /// Each round's ledger, then the gate line.
    lines: Vec<String>,
    service: Service,
    dir: PathBuf,
}

/// Runs `COLD_ROUND`-request rounds, each against a service opened over a
/// fresh directory, until `dur` has passed; every round passes its gates
/// (`check_cold`) and the ledger before the next begins, and the run's
/// replies together pass the exactness gate (`gen::exactness`).
fn cold_rounds(
    b: &Bench,
    seed: u64,
    traced: bool,
    work: &Path,
    dur: Duration,
) -> Result<ColdRun, Failure> {
    let start = Instant::now();
    let (mut rounds, mut solves, mut l1s) = (Vec::new(), Vec::new(), Vec::new());
    loop {
        let dir = work.join(format!("cold-{}", rounds.len()));
        let slice = cold_slice(&b.pools.regions, rounds.len());
        let (service, meters) = open_service(b, seed, traced, &dir)?;
        let mut replies = Vec::new();
        let phase = measured(
            || service.stats(),
            &meters,
            || {
                let (tally, secs, served) = cold_traffic(&service, slice, start);
                replies = served;
                (tally, secs)
            },
        )?;
        l1s.extend(check_cold(b, &phase, slice, &replies)?);
        solves.extend(
            replies
                .iter()
                .filter(|(_, served)| served.outcome == ServeOutcome::Solved)
                .map(|(_, served)| (served.latency, served.queries)),
        );
        rounds.push(phase);
        if start.elapsed() >= dur {
            let secs = start.elapsed().as_secs_f64();
            let tally = Tally::merge(rounds.iter().map(|p| &p.tally));
            let exact = gen::exactness(l1s).map_err(|why| failure(&tally, why))?;
            let mut lines: Vec<String> = rounds.iter().map(|p| p.ledger.clone()).collect();
            lines.push(format!(
                "cold_solve: {} rounds of {COLD_ROUND} new regions, each against a fresh service; every reply explains its own probe; {exact}",
                rounds.len(),
            ));
            return Ok(ColdRun {
                rounds,
                tally,
                secs,
                solves,
                lines,
                service,
                dir,
            });
        }
        close_service(service)?;
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The pool regions round `round` sends: the pool's consecutive slices in
/// turn, so a run covers the whole pool before any region repeats.
fn cold_slice(pool: &[Region], round: usize) -> &[Region] {
    let start = round * COLD_ROUND % pool.len();
    &pool[start..start + COLD_ROUND]
}

/// cold_solve's gates over one round: it fed its service every region of
/// its slice once, and every reply explains its own probe. Returns each
/// reply's L1 distance to the oracle.
fn check_cold(
    b: &Bench,
    phase: &Phase,
    slice: &[Region],
    replies: &[(usize, Served)],
) -> Result<Vec<f64>, Failure> {
    let fail = |why: String| failure(&phase.tally, why);
    if phase.tally.attempted != slice.len() as u64 {
        return Err(fail(format!(
            "a cold round sent {} requests for {} pool regions",
            phase.tally.attempted,
            slice.len()
        )));
    }
    let rtol = gen::membership_rtol();
    let mut l1s = Vec::with_capacity(replies.len());
    for (k, served) in replies {
        let region = &slice[*k];
        let x = &region.members[0];
        let probs = b.panel.model.predict(x.as_slice());
        if !served
            .interpretation
            .explains_probe(x, probs.as_slice(), rtol)
        {
            return Err(fail(format!(
                "the reply for pool region {k} does not explain its own probe"
            )));
        }
        l1s.push(gen::l1_to_oracle(&served.interpretation, region).map_err(fail)?);
    }
    Ok(l1s)
}

/// cold_solve's solve layer from the service's own solves: the latency of
/// each `Solved` reply, its iterations from its cost `1 + T·(d+1)`, and the
/// API's busy time over the phase.
fn served_solves(b: &Bench, solves: &[(Duration, usize)], api_busy_ns: u64) -> SolveLayer {
    let per_iteration = (b.panel.model.dim() + 1) as f64;
    SolveLayer {
        ms: solves
            .iter()
            .map(|(latency, _)| latency.as_secs_f64() * 1e3)
            .collect(),
        iterations: solves
            .iter()
            .map(|&(_, queries)| (queries - 1) as f64 / per_iteration)
            .collect(),
        api_busy_ms: api_busy_ns as f64 / 1e6,
    }
}

// ---- set-up and services ---------------------------------------------

/// A workload's set-up: the panel, its pools and (restart_scan) the store
/// written from them, plus what set-up measured and checked.
struct Bench {
    panel: Panel,
    pools: Pools,
    store_dir: PathBuf,
    setup_s: f64,
    lines: Vec<String>,
}

/// Runs the whole set-up (panel training, region pools, `persist`) at
/// least `SETUP_MIN_REPS` times and until `SETUP_MIN_SPAN` has passed,
/// keeps the last, and checks that every repetition generated
/// byte-identical inputs; `setup_s` is the median repetition.
fn set_up(
    args: &Args,
    work: &Path,
    regions: usize,
    members: usize,
    fresh: usize,
    persist: impl Fn(&Pools, &Path) -> Result<(), String>,
) -> Result<Bench, String> {
    let first = Instant::now();
    let mut times = Vec::new();
    let mut digest = None;
    let mut kept = None;
    while times.len() < SETUP_MIN_REPS
        || (first.elapsed() < SETUP_MIN_SPAN && times.len() < SETUP_MAX_REPS)
    {
        let dir = work.join(format!("setup-{}", times.len()));
        let start = Instant::now();
        let panel = Panel::build();
        let pools = Pools::generate(&panel, args.seed, regions, members, fresh)?;
        persist(&pools, &dir)?;
        times.push(start.elapsed().as_secs_f64());
        let this = pools.digest(args.seed);
        if *digest.get_or_insert(this) != this {
            return Err(format!(
                "seed {} generated different inputs across set-ups",
                args.seed
            ));
        }
        if let Some((_, _, old)) = kept.replace((panel, pools, dir)) {
            let _ = std::fs::remove_dir_all(old);
        }
    }
    let (panel, pools, store_dir) = kept.expect("SETUP_MIN_REPS ≥ 1");
    let lines = vec![
        format!(
            "generator: {} set-ups from seed {} gave byte-identical pools and streams (digest {:016x})",
            times.len(),
            args.seed,
            digest.unwrap_or_default()
        ),
        gen::self_test(&panel, &pools)?,
    ];
    Ok(Bench {
        panel,
        pools,
        store_dir,
        setup_s: median(times),
        lines,
    })
}

fn store_config() -> StoreConfig {
    StoreConfig {
        membership_rtol: gen::membership_rtol(),
        ..StoreConfig::default()
    }
}

/// restart_scan's set-up: the regions a previous life solved, written to
/// a fresh store, compacted into one sealed segment, and closed.
fn write_store(dir: &Path, regions: &[Region]) -> Result<(), String> {
    let store = RegionStore::open(dir, store_config())
        .map_err(|e| format!("opening the store failed: {e}"))?;
    for chunk in regions.chunks(WRITE_BATCH) {
        for region in chunk {
            if !store.append(region.fingerprint, Arc::clone(&region.interpretation)) {
                return Err("the store refused a distinct region as a duplicate".into());
            }
        }
        // Bounds the frames queued for the flusher, so set-up's peak
        // memory does not depend on how far the flusher lags.
        store
            .flush()
            .map_err(|e| format!("flushing the store failed: {e}"))?;
    }
    store
        .compact()
        .map_err(|e| format!("compacting the store failed: {e}"))?;
    store
        .close()
        .map_err(|e| format!("closing the store failed: {e}"))
}

/// The meters of one service's wrappers: the API's always (the ledger
/// needs its count), the kernel backend's only when traced.
struct Meters {
    api: Arc<ApiMeter>,
    kernel: Option<Arc<KernelMeter>>,
}

impl Meters {
    fn kernel_counts(&self) -> [u64; 3] {
        self.kernel.as_ref().map_or([0; 3], |k| k.counts())
    }
}

/// The API and configuration one service is built from. Traced, every
/// query is timed and a counting, timing kernel backend is passed in
/// through `SharedCacheConfig::backend`.
fn instrument(panel: &Panel, seed: u64, traced: bool) -> (MeteredApi, ServiceConfig, Meters) {
    let api = MeteredApi::new(Arc::clone(&panel.model), traced);
    let kernel = traced.then(|| Arc::new(KernelMeter::default()));
    let mut cache = SharedCacheConfig::default();
    if let Some(meter) = &kernel {
        cache.backend = Arc::new(TimedBackend::new(Arc::clone(meter)));
    }
    let config = ServiceConfig {
        workers: WORKERS,
        cache,
        seed,
        ..ServiceConfig::default()
    };
    let meters = Meters {
        api: api.meter(),
        kernel,
    };
    (api, config, meters)
}

fn open_service(
    b: &Bench,
    seed: u64,
    traced: bool,
    dir: &Path,
) -> Result<(Service, Meters), String> {
    let (api, config, meters) = instrument(&b.panel, seed, traced);
    let service = InterpretationService::open(api, config, dir)
        .map_err(|e| format!("opening the service over {} failed: {e}", dir.display()))?;
    Ok((service, meters))
}

fn close_service(service: Service) -> Result<(), String> {
    service
        .close()
        .map_err(|e| format!("closing the service failed: {e}"))
}

fn close_server(server: Server<MeteredApi>) -> Result<(), String> {
    server
        .close()
        .map_err(|e| format!("closing the server failed: {e}"))
}

/// Brings the service up over the workload's saved state, repeatedly,
/// closing all but the last; returns the median start-up time.
fn start_up<T>(
    mut open: impl FnMut() -> Result<T, String>,
    mut close: impl FnMut(T) -> Result<(), String>,
) -> Result<(f64, T), String> {
    let mut times = Vec::with_capacity(RECOVER_REPS);
    let mut kept = None;
    for _ in 0..RECOVER_REPS {
        let start = Instant::now();
        let up = open()?;
        times.push(start.elapsed().as_secs_f64());
        if let Some(old) = kept.replace(up) {
            close(old)?;
        }
    }
    Ok((median(times), kept.expect("RECOVER_REPS ≥ 1")))
}

// ---- phases and traffic ----------------------------------------------

/// One timed phase: what the clients saw, and the service-side deltas.
struct Phase {
    tally: Tally,
    secs: f64,
    before: StatsSnapshot,
    after: StatsSnapshot,
    api_calls: u64,
    api_busy_ns: u64,
    kernel: [u64; 3],
    ring_dropped: u64,
    ledger: String,
}

fn failure(tally: &Tally, why: String) -> Failure {
    Failure {
        attempted: tally.attempted,
        failed: tally.failed,
        why,
    }
}

/// Runs `traffic`, then its gates and the ledger reconciliation.
fn measured(
    stats: impl Fn() -> StatsSnapshot,
    meters: &Meters,
    traffic: impl FnOnce() -> (Tally, f64),
) -> Result<Phase, Failure> {
    let before = stats();
    let (calls0, busy0) = (meters.api.calls(), meters.api.busy_ns());
    let kernel0 = meters.kernel_counts();
    let ring0 = openapi_trace::ring_stats().dropped;
    let (tally, secs) = traffic();
    let after = stats();
    tally.check().map_err(|why| failure(&tally, why))?;
    let api_calls = meters.api.calls() - calls0;
    let ledger =
        drive::reconcile(&before, &after, &tally, api_calls).map_err(|why| failure(&tally, why))?;
    let kernel1 = meters.kernel_counts();
    Ok(Phase {
        api_calls,
        api_busy_ns: meters.api.busy_ns() - busy0,
        kernel: std::array::from_fn(|i| kernel1[i] - kernel0[i]),
        ring_dropped: openapi_trace::ring_stats().dropped - ring0,
        tally,
        secs,
        before,
        after,
        ledger,
    })
}

/// Closed-loop wire traffic: `STREAMS` TCP clients, each on its own
/// request stream, until `dur` has passed. Every reply must be a cache hit
/// costing one query.
fn wire_traffic(
    addr: SocketAddr,
    regions: &[Region],
    seed: u64,
    first_stream: usize,
    dur: Duration,
) -> (Tally, f64) {
    let start = Instant::now();
    let deadline = start + dur;
    let parts = drive::run_streams(STREAMS, |s| {
        let mut tally = Tally::default();
        let mut client = match openapi_net::Client::connect(addr) {
            Ok(client) => client,
            Err(e) => {
                tally.fail(format!("connecting to the server failed: {e}"));
                return tally;
            }
        };
        let mut stream = Stream::new(seed, first_stream + s);
        while Instant::now() < deadline {
            let x = stream.next(regions);
            let sent = Instant::now();
            match client.interpret(x, CLASS) {
                Ok(reply) => {
                    let rtt = sent.elapsed();
                    tally.served(reply.outcome, reply.queries, rtt, start.elapsed());
                    tally
                        .wire_ns
                        .push(drive::nanos(rtt.saturating_sub(reply.server_latency)));
                    if reply.outcome != ServeOutcome::CacheHit || reply.queries != 1 {
                        tally.flag(format!(
                            "a warm_wire reply was {:?} costing {} queries; every reply must be a CacheHit costing 1",
                            reply.outcome, reply.queries
                        ));
                    }
                }
                Err(e) => {
                    tally.fail(format!("a wire request failed: {e}"));
                    break;
                }
            }
        }
        tally
    });
    (Tally::merge(&parts), start.elapsed().as_secs_f64())
}

/// Closed-loop in-process traffic over `regions`; every reply must be a
/// cache or store hit costing one query.
fn inproc_traffic(
    service: &Service,
    regions: &[Region],
    seed: u64,
    first_stream: usize,
    dur: Duration,
) -> (Tally, f64) {
    let start = Instant::now();
    let deadline = start + dur;
    let parts = drive::run_streams(STREAMS, |s| {
        let mut tally = Tally::default();
        let mut stream = Stream::new(seed, first_stream + s);
        while Instant::now() < deadline {
            let x = stream.next(regions).clone();
            let sent = Instant::now();
            match service.submit_instance(x, CLASS).wait() {
                Ok(served) => {
                    tally.served(
                        served.outcome,
                        served.queries,
                        sent.elapsed(),
                        start.elapsed(),
                    );
                    if !WARM_OUTCOMES.contains(&served.outcome) || served.queries != 1 {
                        tally.flag(format!(
                            "a warm reply was {:?} costing {} queries; it must be a cache or store hit costing 1",
                            served.outcome, served.queries
                        ));
                    }
                }
                Err(e) => tally.fail(format!("a request failed: {e}")),
            }
        }
        tally
    });
    (Tally::merge(&parts), start.elapsed().as_secs_f64())
}

/// One cold round: closed-loop in-process traffic where every request
/// comes from the next unused pool region, until every region was sent
/// once. Completions are timed from `phase_start`. Returns the round's
/// length and each reply with its pool index, in order.
fn cold_traffic(
    service: &Service,
    pool: &[Region],
    phase_start: Instant,
) -> (Tally, f64, Vec<(usize, Served)>) {
    let next = AtomicUsize::new(0);
    let round_start = Instant::now();
    let parts = drive::run_streams(STREAMS, |_| {
        let mut tally = Tally::default();
        let mut replies = Vec::new();
        loop {
            // Relaxed: the counter only hands out distinct indices.
            let k = next.fetch_add(1, Ordering::Relaxed);
            let Some(region) = pool.get(k) else { break };
            let sent = Instant::now();
            match service
                .submit_instance(region.members[0].clone(), CLASS)
                .wait()
            {
                Ok(served) => {
                    tally.served(
                        served.outcome,
                        served.queries,
                        sent.elapsed(),
                        phase_start.elapsed(),
                    );
                    replies.push((k, served));
                }
                Err(e) => tally.fail(format!("a cold request failed: {e}")),
            }
        }
        (tally, replies)
    });
    let secs = round_start.elapsed().as_secs_f64();
    let (mut tallies, mut replies) = (Vec::new(), Vec::new());
    for (tally, part) in parts {
        tallies.push(tally);
        replies.extend(part);
    }
    replies.sort_by_key(|(k, _)| *k);
    (Tally::merge(&tallies), secs, replies)
}

/// Requests per second of one untimed traffic run, after its gates.
fn rps((tally, secs): (Tally, f64)) -> Result<f64, String> {
    tally.check()?;
    Ok(tally.ok() as f64 / secs)
}

fn timed(args: &Args) -> Duration {
    Duration::from_secs_f64(args.seconds)
}

fn phase_len(args: &Args) -> Duration {
    Duration::from_secs_f64(args.seconds * PHASE_SHARE)
}

/// One arm of the A/Bs: `AB_SHARE` of the run over 3 switches ×
/// `AB_ROUNDS` rounds × 2 arms.
fn ab_arm(args: &Args) -> Duration {
    Duration::from_secs_f64(args.seconds * AB_SHARE / (6 * AB_ROUNDS) as f64)
}

// ---- metrics ---------------------------------------------------------

/// Throughput and p50 are the median of the phase's one-second windows;
/// p99 as `latency_p99` takes it.
fn end_to_end(b: &Bench, tally: &Tally, secs: f64, api_calls: u64, recover_s: f64) -> Metrics {
    let ok = tally.ok() as f64;
    let windows = drive::windows(tally, secs);
    vec![
        (
            "throughput_rps",
            median(windows.iter().map(|w| w.completed as f64)),
        ),
        ("latency_p50_ms", median(windows.iter().map(|w| w.p50_ms))),
        ("latency_p99_ms", latency_p99(tally, &windows).0),
        ("queries_per_interp", api_calls as f64 / ok),
        ("success_rate", ok / tally.attempted as f64),
        ("recover_s", recover_s),
        ("setup_s", b.setup_s),
        ("peak_rss_mb", drive::peak_rss_mb()),
    ]
}

/// The run's report: the stamp and set-up lines, then `lines`; `tally` is
/// every timed request of the run.
fn report(args: &Args, b: &Bench, tally: &Tally, values: Metrics, lines: Vec<String>) -> Report {
    let mut all = vec![stamp(args, b)];
    all.extend(b.lines.iter().cloned());
    all.extend(lines);
    Report {
        attempted: tally.attempted,
        failed: tally.failed,
        values,
        lines: all,
    }
}

/// What the result was measured on.
fn stamp(args: &Args, b: &Bench) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let members = b.pools.regions.first().map_or(0, |r| r.members.len());
    // The runtime switch reads back `true` only with the feature compiled in.
    openapi_trace::set_runtime_enabled(true);
    let trace = if openapi_trace::enabled() {
        "compiled-in"
    } else {
        "compiled-out"
    };
    format!(
        "stamp: rev={} nproc={nproc} d={} C={} regions={}x{members} fresh={} seed={} profile={:?} trace_feature={trace} streams={STREAMS} workers={WORKERS}",
        crate::git_revision(),
        b.panel.model.dim(),
        b.panel.model.num_classes(),
        b.pools.regions.len(),
        b.pools.fresh.len(),
        args.seed,
        gen::PROFILE,
    )
}

/// p99 latency (ms), and how it was taken: the median of the windows' p99s
/// when every window holds `WINDOW_P99_SAMPLES`, so that a burst of load
/// from elsewhere moves a few windows and not the result; otherwise pooled
/// over the whole phase.
fn latency_p99(tally: &Tally, windows: &[Window]) -> (f64, String) {
    if windows.iter().all(|w| w.completed >= WINDOW_P99_SAMPLES) {
        let p99 = median(windows.iter().map(|w| w.p99_ms));
        let how = format!(
            "p99 is the median of {} windows' p99s, each over at least {WINDOW_P99_SAMPLES} samples",
            windows.len()
        );
        return (p99, how);
    }
    let latency = sorted(tally.lat_ns.iter().map(|&ns| ns as f64 / 1e6));
    let how = format!(
        "p99 pools all {} samples ({} beyond it)",
        latency.len(),
        latency.len() / 100
    );
    (quantile(&latency, 0.99), how)
}

fn samples_line(tally: &Tally, secs: f64) -> String {
    let windows = drive::windows(tally, secs);
    format!(
        "latency samples: {}; throughput and p50 are medians of {} one-second windows; {}",
        tally.lat_ns.len(),
        windows.len(),
        latency_p99(tally, &windows).1
    )
}

/// The end-to-end report of a workload with one timed phase.
fn one_phase_report(args: &Args, b: &Bench, phase: &Phase, recover_s: f64) -> Report {
    let values = end_to_end(b, &phase.tally, phase.secs, phase.api_calls, recover_s);
    let lines = vec![phase.ledger.clone(), samples_line(&phase.tally, phase.secs)];
    report(args, b, &phase.tally, values, lines)
}

/// The serve, kernel, cache, API and trace-ring layers over a traced phase.
fn serve_layers(p: &Phase) -> Metrics {
    let (b, a) = (&p.before, &p.after);
    let requests = (a.requests - b.requests).max(1) as f64;
    let share = |after: u64, before: u64| (after - before) as f64 / requests;
    let queue = StageSlot::Queue as usize;
    let waits: [u64; LATENCY_BUCKETS] =
        std::array::from_fn(|i| a.stage_buckets[queue][i] - b.stage_buckets[queue][i]);
    let [passes, rows, kernel_ns] = p.kernel;
    vec![
        (
            "serve.queue_us_p50",
            quantile_from_buckets(&waits, 0.5).map_or(0.0, |d| d.as_secs_f64() * 1e6),
        ),
        ("serve.hit_ratio", share(a.hits, b.hits)),
        ("serve.store_hit_ratio", share(a.store_hits, b.store_hits)),
        ("serve.solve_ratio", share(a.misses, b.misses)),
        (
            "serve.coalesced_share",
            share(a.coalesced_served, b.coalesced_served),
        ),
        ("kernel.calls_per_req", passes as f64 / requests),
        ("kernel.rows_per_req", rows as f64 / requests),
        ("kernel.busy_us_per_req", kernel_ns as f64 / 1e3 / requests),
        ("cache.regions", a.cached_regions as f64),
        ("cache.evictions", (a.evictions - b.evictions) as f64),
        (
            "api.calls_per_interp",
            p.api_calls as f64 / p.tally.ok().max(1) as f64,
        ),
        (
            "api.predict_us_mean",
            p.api_busy_ns as f64 / 1e3 / p.api_calls.max(1) as f64,
        ),
        ("trace.ring_dropped", p.ring_dropped as f64),
    ]
}

fn store_counters(after: &StoreStatsSnapshot, before: Option<&StoreStatsSnapshot>) -> Metrics {
    let zero = StoreStatsSnapshot::default();
    let b = before.unwrap_or(&zero);
    vec![
        ("store.lookups", (after.lookups - b.lookups) as f64),
        ("store.hits", (after.hits - b.hits) as f64),
        ("store.appends", (after.appends - b.appends) as f64),
        ("store.fsyncs", (after.fsyncs - b.fsyncs) as f64),
        ("store.wal_bytes", after.wal_bytes as f64),
        (
            "store.compactions",
            (after.compactions - b.compactions) as f64,
        ),
    ]
}

fn phase_store_counters(p: &Phase) -> Result<Metrics, String> {
    let after = p
        .after
        .store
        .as_ref()
        .ok_or_else(|| "the service reported no store counters".to_string())?;
    Ok(store_counters(after, p.before.store.as_ref()))
}

/// Timed `lookup_probe`s: the first members of up to `LOOKUP_HITS` stored
/// regions, and the members of `misses`, which the store must not hold.
fn store_lookup_layers(
    store: &RegionStore,
    b: &Bench,
    hits: &[Region],
    misses: &[Region],
) -> Result<Metrics, String> {
    let hits: Vec<&Vector> = hits
        .iter()
        .take(LOOKUP_HITS)
        .map(|r| &r.members[0])
        .collect();
    let misses: Vec<&Vector> = misses.iter().map(|r| &r.members[0]).collect();
    let cost = layers::store_lookups(store, &b.panel.model, &hits, &misses)?;
    Ok(vec![
        ("store.lookup_us_hit", cost.hit_us),
        ("store.lookup_us_miss", cost.miss_us),
    ])
}

/// The runtime-switch A/Bs on the workload's own traffic at `STREAMS`
/// streams: the trace tier's kill switch, the drift detector's, and the
/// benchmark wrappers' own timing (the traced run's overhead on itself).
fn ab_layers(
    args: &Args,
    mut run: impl FnMut(Duration) -> Result<f64, String>,
) -> Result<Metrics, String> {
    let arm = ab_arm(args);
    let trace = drive::ab_overhead(AB_ROUNDS, openapi_trace::set_runtime_enabled, || run(arm))?;
    let drift = drive::ab_overhead(AB_ROUNDS, set_drift_detection_enabled, || run(arm))?;
    let harness = drive::ab_overhead(AB_ROUNDS, wrap::set_timing, || run(arm))?;
    Ok(vec![
        ("trace.overhead_frac", trace),
        ("serve.drift_overhead_frac", drift),
        ("harness.overhead_frac", harness),
    ])
}

fn net_layers(rtt: &[f64], wire: &[f64], ping: &[f64]) -> Metrics {
    vec![
        ("net.rtt_us_p50", quantile(rtt, 0.5)),
        ("net.rtt_us_p99", quantile(rtt, 0.99)),
        ("net.wire_us_p50", quantile(wire, 0.5)),
        ("net.ping_rtt_us", quantile(ping, 0.5)),
    ]
}

/// The net layer of an in-process workload: its final service moved
/// behind a server, then one client's warm round trips over the workload's
/// regions, and pings.
fn served_net_layers(service: Service, regions: &[Region], seed: u64) -> Result<Metrics, String> {
    let server = Server::bind("127.0.0.1:0", service, ServerConfig::default())
        .map_err(|e| format!("binding the server failed: {e}"))?;
    let mut stream = Stream::new(seed, NET_STREAM);
    let xs: Vec<&Vector> = (0..NET_PROBES).map(|_| stream.next(regions)).collect();
    let (rtt, wire) = layers::round_trips(server.local_addr(), &xs)?;
    let ping = layers::pings(server.local_addr(), NET_PROBES)?;
    close_server(server)?;
    Ok(net_layers(&rtt, &wire, &ping))
}

fn solve_layers(s: &SolveLayer) -> Metrics {
    let ms = sorted(s.ms.iter().copied());
    let api_per_solve = s.api_busy_ms / ms.len().max(1) as f64;
    vec![
        ("solve.ms_p50", quantile(&ms, 0.5)),
        ("solve.ms_p99", quantile(&ms, 0.99)),
        ("solve.iterations_mean", mean(&s.iterations)),
        ("solve.self_ms_per_solve", mean(&ms) - api_per_solve),
        ("api.busy_ms_per_solve", api_per_solve),
    ]
}

/// The solve layer of a workload whose traffic never solves: direct
/// Algorithm-1 solves of fresh regions.
fn direct_solve_layers(b: &Bench, seed: u64) -> Result<Metrics, String> {
    let regions = &b.pools.fresh[..DIRECT_SOLVES.min(b.pools.fresh.len())];
    Ok(solve_layers(&layers::direct_solves(
        &b.panel.model,
        regions,
        seed,
    )?))
}

/// Direct calls every workload makes: the wire codec over the workload's
/// own interpretations, Algorithm 1's factor and check on systems sampled
/// at the first members of `at`, and the scalar-vs-blocked kernel pass
/// over the workload's packed regions.
fn direct_layers(
    b: &Bench,
    regions: &[(Arc<Interpretation>, RegionFingerprint)],
    at: &[Region],
    seed: u64,
) -> Result<Metrics, String> {
    let at: Vec<&Vector> = at
        .iter()
        .take(FACTOR_SYSTEMS)
        .map(|r| &r.members[0])
        .collect();
    let probe = at
        .first()
        .copied()
        .ok_or("no instance to sample systems at")?;
    let codec = layers::wire_codec(&regions[..regions.len().min(CODEC_REGIONS)])?;
    let systems = layers::factor_and_check(&b.panel.model, &at, seed)?;
    let interpretations: Vec<Arc<Interpretation>> =
        regions.iter().map(|(i, _)| Arc::clone(i)).collect();
    let speedup = layers::blocked_speedup(&interpretations, probe)?;
    Ok(vec![
        ("net.reply_bytes", codec.reply_bytes),
        ("net.encode_us", codec.encode_us),
        ("net.decode_us", codec.decode_us),
        ("solve.factor_us", systems.factor_us),
        ("solve.check_us", systems.check_us),
        ("kernel.blocked_speedup", speedup),
    ])
}

fn pairs_of(regions: &[Region]) -> Vec<(Arc<Interpretation>, RegionFingerprint)> {
    regions
        .iter()
        .map(|r| (Arc::clone(&r.interpretation), r.fingerprint))
        .collect()
}
