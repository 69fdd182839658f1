//! The concurrent interpretation service (see the crate docs for the
//! request lifecycle and the exactness argument for coalescing).

use crate::coalesce::{ClassLedger, Election};
use crate::shared_cache::{SharedCacheConfig, SharedRegionCache};
use crate::stats::{DriftStats, FabricStats, ServiceStats, StageSlot, StatsSnapshot};
use crossbeam::channel::{self, Receiver, Sender};
use openapi_api::PredictionApi;
use openapi_core::cache::{CachedRegion, ProbeRef};
use openapi_core::decision::{Interpretation, RegionFingerprint};
use openapi_core::equations::Probe;
use openapi_core::openapi::{validate_request, EdgeSearch, OpenApiConfig, OpenApiInterpreter};
use openapi_core::InterpretError;
use openapi_linalg::Vector;
use openapi_store::{RegionStore, StoreConfig, StoreError};
use openapi_sync::atomic::{AtomicBool, AtomicU64, Ordering};
use openapi_sync::Mutex;
use openapi_trace::{clock, slowlog, RequestSpan, Stage};
use rand::rngs::StdRng;
use std::collections::HashMap;
use std::fmt;
use std::path::Path;
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Service tuning knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads (clamped to ≥ 1).
    pub workers: usize,
    /// Shared-cache capacity and membership tolerance.
    pub cache: SharedCacheConfig,
    /// Configuration of the per-region Algorithm-1 solves. The default
    /// pre-screens each rung ([`EdgeSearch::PreScreen`]): the same exact
    /// answers as the paper's halving, for about a fifth of its queries
    /// at d = 196.
    pub openapi: OpenApiConfig,
    /// Master seed; each request's sampling RNG derives from
    /// `(seed, request id)`, so a fixed submission order replays exactly.
    pub seed: u64,
    /// How many Algorithm-1 solves of one class may run concurrently
    /// before further misses park as waiters (clamped to ≥ 1; default 4).
    /// A class's region identity is unknowable before its solve, so
    /// during cold start distinct-region misses of one class would
    /// serialize behind a single leader; allowing several leaders
    /// parallelizes the cold start at the cost of occasionally solving
    /// the *same* region twice — duplicates merge at
    /// [`openapi_core::cache::RegionCache::insert`], so consistency is
    /// unaffected, only query spend. Set to 1 for strictly minimal spend.
    pub max_leaders_per_class: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 4,
            cache: SharedCacheConfig::default(),
            openapi: OpenApiConfig {
                edge_search: EdgeSearch::PreScreen,
                ..OpenApiConfig::default()
            },
            seed: 42,
            max_leaders_per_class: 4,
        }
    }
}

/// One unit of work for the service.
#[derive(Debug, Clone)]
pub struct InterpretRequest {
    /// The instance whose prediction to interpret.
    pub instance: Vector,
    /// The class to interpret it for.
    pub class: usize,
    /// Drop-dead time: a request past its deadline completes with
    /// [`ServeError::DeadlineExceeded`] instead of occupying a worker.
    pub deadline: Option<Instant>,
}

impl InterpretRequest {
    /// A request with no deadline.
    pub fn new(instance: Vector, class: usize) -> Self {
        InterpretRequest {
            instance,
            class,
            deadline: None,
        }
    }

    /// Sets a deadline `budget` from now. A budget past the clock's range
    /// sets no deadline.
    pub fn with_timeout(mut self, budget: Duration) -> Self {
        self.deadline = clock::now().checked_add(budget);
        self
    }
}

/// How a request was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeOutcome {
    /// Served from the shared in-memory cache (1 probe query).
    CacheHit,
    /// Served from the durable region store (1 probe query; the region
    /// was solved in a previous run and promoted back into the cache).
    StoreHit,
    /// This request led the Algorithm-1 solve for its region.
    Solved,
    /// Served from another request's in-flight solve (1 probe query).
    Coalesced,
}

/// A completed interpretation.
#[derive(Debug, Clone, PartialEq)]
pub struct Served {
    /// The region's exact interpretation (bit-identical across every
    /// request resolved to the same region — the paper's consistency
    /// property). Shared out of the cache slot: a hit hands out an `Arc`,
    /// never a multi-KB parameter copy.
    pub interpretation: Arc<Interpretation>,
    /// Canonical key of the serving region.
    pub fingerprint: RegionFingerprint,
    /// How the request was satisfied.
    pub outcome: ServeOutcome,
    /// Prediction queries spent on behalf of this request.
    pub queries: usize,
    /// End-to-end latency (submit → completion).
    pub latency: Duration,
    /// The request's trace span id (0 with tracing disabled), for
    /// correlating this reply with its ring events and slow-log lines.
    pub span: u64,
}

/// Why a request failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The underlying interpretation failed (bad arguments, budget
    /// exhaustion, …).
    Interpret(InterpretError),
    /// The request's deadline passed before it completed.
    DeadlineExceeded,
    /// The service shut down before the request completed.
    ServiceStopped,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Interpret(e) => write!(f, "interpretation failed: {e}"),
            ServeError::DeadlineExceeded => write!(f, "deadline exceeded"),
            ServeError::ServiceStopped => write!(f, "service stopped"),
        }
    }
}

impl std::error::Error for ServeError {}

/// The caller's handle to an in-flight request: block on
/// [`Ticket::wait`] or poll with [`Ticket::poll`].
#[derive(Debug)]
pub struct Ticket {
    rx: mpsc::Receiver<Result<Served, ServeError>>,
}

impl Ticket {
    /// Blocks until the request completes.
    ///
    /// # Errors
    /// [`ServeError`] as completed by the service, or
    /// [`ServeError::ServiceStopped`] if the service dropped the request.
    pub fn wait(self) -> Result<Served, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::ServiceStopped))
    }

    /// Blocks up to `timeout`; `None` when the request is still running.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<Served, ServeError>> {
        match self.rx.recv_timeout(timeout) {
            Ok(result) => Some(result),
            Err(mpsc::RecvTimeoutError::Timeout) => None,
            Err(mpsc::RecvTimeoutError::Disconnected) => Some(Err(ServeError::ServiceStopped)),
        }
    }

    /// Non-blocking check; `None` while the request is still running.
    pub fn poll(&self) -> Option<Result<Served, ServeError>> {
        match self.rx.try_recv() {
            Ok(result) => Some(result),
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => Some(Err(ServeError::ServiceStopped)),
        }
    }
}

/// A queued request inside the service. `probs` caches the membership
/// probe so a requeued request never queries the API twice.
struct Job {
    x: Vector,
    class: usize,
    deadline: Option<Instant>,
    probs: Option<Vector>,
    queries_spent: usize,
    submitted: Instant,
    /// When the job last entered the queue: `submitted` at first, reset
    /// on every requeue, so the queue-stage timing never double-counts a
    /// previous pass.
    enqueued: Instant,
    id: u64,
    /// Set when the drift detector invalidated this request's former
    /// region: its eventual successful serve is a *re-solve* and is traced
    /// ([`Stage::Resolve`]) and counted as such.
    drifted: bool,
    /// The request's trace span; every stage event carries its id.
    span: RequestSpan,
    /// Per-stage nanosecond breakdown accumulated across the job's life,
    /// in [`crate::stats::STAGE_NAMES`] order — the slow log's timeline.
    stage_ns: [u64; slowlog::STAGES],
    reply: mpsc::Sender<Result<Served, ServeError>>,
}

enum Msg {
    Job(Job),
    Shutdown,
}

/// Most served instances the drift detector remembers. Witnesses are the
/// detector's ground truth ("this exact `x` was served by that region"),
/// so the book is bounded: once full, new serves are simply not witnessed
/// (drift on them is still caught the moment a *witnessed* instance of
/// the same region misses, or by an [`InterpretationService::audit_drift`]
/// sweep).
const DRIFT_WITNESS_CAP: usize = 4096;

/// Runtime kill switch for the drift detector — witness recording on the
/// serve path and conviction on the miss path. On by default; the
/// overhead A/B in `--bench chaos_overhead` flips it to price the
/// calm-path bookkeeping (`BENCH_chaos.json` at the workspace root), and
/// an operator who accepts staleness-on-swap can do the same.
static DRIFT_DETECTION: AtomicBool = AtomicBool::new(true);

/// Enables or disables the drift detector at runtime (default: enabled).
///
/// Disabling stops witness recording and miss-path convictions; it does
/// not forget already-held witnesses, and tombstones already written stay
/// suppressed (a tombstone is a store fact, not detector state).
pub fn set_drift_detection_enabled(on: bool) {
    // ordering: Relaxed — an independent on/off knob; every serve
    // re-reads it, and no other state is published through it.
    DRIFT_DETECTION.store(on, Ordering::Relaxed);
}

/// Whether the drift detector is currently enabled.
pub fn drift_detection_enabled() -> bool {
    // ordering: Relaxed — see `set_drift_detection_enabled`.
    DRIFT_DETECTION.load(Ordering::Relaxed)
}

/// The drift detector's memory: for instances the service has served, the
/// exact bit pattern of `x` (keyed per class) and the fingerprint of the
/// region that served it. A later request for the same exact instance
/// whose probe misses *both* tiers while that region is still on offer is
/// proof the hidden model changed — predictions moved, so the once-exact
/// parameters no longer explain them.
#[derive(Debug, Default)]
struct WitnessBook {
    by_instance: HashMap<(usize, Vec<u64>), RegionFingerprint>,
}

/// The exact identity of a served instance: its class and the bit
/// patterns of its coordinates (bit equality, not float equality — the
/// witness must name the very probe that was served).
fn witness_key(class: usize, x: &Vector) -> (usize, Vec<u64>) {
    (class, x.as_slice().iter().map(|v| v.to_bits()).collect())
}

impl WitnessBook {
    /// Remembers (or refreshes) a successful serve. Past the cap, new
    /// instances are not admitted; known instances always refresh.
    fn record(&mut self, class: usize, x: &Vector, fingerprint: RegionFingerprint) {
        let key = witness_key(class, x);
        if self.by_instance.len() >= DRIFT_WITNESS_CAP && !self.by_instance.contains_key(&key) {
            return;
        }
        self.by_instance.insert(key, fingerprint);
    }

    /// Removes and returns the witnessed fingerprint for an instance, if
    /// any — the serving path consumes the witness while deciding whether
    /// a two-tier miss is drift (a successful re-serve re-records it).
    fn take(&mut self, class: usize, x: &Vector) -> Option<RegionFingerprint> {
        self.by_instance.remove(&witness_key(class, x))
    }

    /// Witnesses currently held (gauge).
    fn len(&self) -> usize {
        self.by_instance.len()
    }

    /// A copy of every witness, for the audit sweep.
    fn entries(&self) -> Vec<((usize, Vec<u64>), RegionFingerprint)> {
        self.by_instance
            .iter()
            .map(|(k, &v)| (k.clone(), v))
            .collect()
    }

    /// Drops one witness by its exact key.
    fn remove(&mut self, class: usize, bits: &[u64]) {
        self.by_instance.remove(&(class, bits.to_vec()));
    }
}

/// State shared between the service handle and its workers.
struct Inner<M> {
    api: M,
    cache: SharedRegionCache,
    store: Option<RegionStore>,
    stats: ServiceStats,
    /// Counters the anti-entropy fabric (`openapi-fabric`, a tier above
    /// this crate) records into through a [`ServiceCore`]. Always present
    /// so recording is lock-free; surfaced in snapshots only once
    /// `fabric_active` is set.
    fabric_stats: FabricStats,
    /// Set by [`ServiceCore::mark_fabric_active`]; gates whether
    /// [`InterpretationService::stats`] carries the fabric counters.
    fabric_active: AtomicBool,
    /// Counters of the drift detector (see [`WitnessBook`]).
    drift_stats: DriftStats,
    /// Served instances remembered for drift detection.
    witnesses: Mutex<WitnessBook>,
    interpreter: OpenApiInterpreter,
    config: ServiceConfig,
    /// Per-class in-flight solve registry: up to
    /// [`ServiceConfig::max_leaders_per_class`] leaders solve
    /// concurrently; requests beyond that park as waiters and are settled
    /// (or requeued) by whichever leader finishes next. Owns the solve
    /// generation too — see [`crate::coalesce`] for the protocol and its
    /// `--cfg loom` model checks.
    ledger: ClassLedger<Job>,
}

/// The concurrent interpretation service (see the crate docs).
///
/// Dropping the service joins its workers; requests still queued at that
/// point complete with [`ServeError::ServiceStopped`]. A service with a
/// durable store flushes it on drop too (the store's own destructor);
/// use [`InterpretationService::close`] to *observe* flush errors.
pub struct InterpretationService<M: PredictionApi + Send + Sync + 'static> {
    inner: Arc<Inner<M>>,
    tx: Sender<Msg>,
    workers: Vec<JoinHandle<()>>,
    next_id: AtomicU64,
}

impl<M: PredictionApi + Send + Sync + 'static> InterpretationService<M> {
    /// Spawns the worker pool over `api`, with no durable tier.
    pub fn new(api: M, config: ServiceConfig) -> Self {
        Self::build(api, config, None)
    }

    /// Spawns the worker pool over `api` with `store` as the L2 behind
    /// the shared cache: cache misses consult the store before electing
    /// an Algorithm-1 leader, and every solved region is appended to the
    /// store's WAL asynchronously.
    pub fn with_store(api: M, config: ServiceConfig, store: RegionStore) -> Self {
        Self::build(api, config, Some(store))
    }

    /// Convenience: opens (or creates) a [`RegionStore`] under `dir` —
    /// recovering every previously solved region — and builds the service
    /// on top of it. The store's membership tolerance is aligned with the
    /// cache's.
    ///
    /// # Errors
    /// [`StoreError`] from [`RegionStore::open`].
    pub fn open(api: M, config: ServiceConfig, dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        let store = RegionStore::open(
            dir,
            StoreConfig {
                membership_rtol: config.cache.membership_rtol,
                ..StoreConfig::default()
            },
        )?;
        Ok(Self::with_store(api, config, store))
    }

    fn build(api: M, config: ServiceConfig, store: Option<RegionStore>) -> Self {
        let mut config = config;
        config.workers = config.workers.max(1);
        config.max_leaders_per_class = config.max_leaders_per_class.max(1);
        let cache = SharedRegionCache::new(config.cache.clone());
        let interpreter = OpenApiInterpreter::new(config.openapi.clone());
        let inner = Arc::new(Inner {
            api,
            cache,
            store,
            stats: ServiceStats::default(),
            fabric_stats: FabricStats::default(),
            fabric_active: AtomicBool::new(false),
            drift_stats: DriftStats::default(),
            witnesses: Mutex::new(WitnessBook::default()),
            interpreter,
            config,
            ledger: ClassLedger::new(),
        });
        let (tx, rx) = channel::unbounded::<Msg>();
        let workers = (0..inner.config.workers)
            .map(|_| {
                let inner = Arc::clone(&inner);
                let rx: Receiver<Msg> = rx.clone();
                let tx = tx.clone();
                std::thread::spawn(move || worker_loop(&inner, &rx, &tx))
            })
            .collect();
        InterpretationService {
            inner,
            tx,
            workers,
            next_id: AtomicU64::new(0),
        }
    }

    /// Borrow the (clamped) configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.inner.config
    }

    /// Borrow the shared region cache (e.g. to seed or inspect it).
    pub fn cache(&self) -> &SharedRegionCache {
        &self.inner.cache
    }

    /// Borrow the durable store, when the service has one.
    pub fn store(&self) -> Option<&RegionStore> {
        self.inner.store.as_ref()
    }

    /// Borrow the wrapped prediction API.
    pub fn api(&self) -> &M {
        &self.inner.api
    }

    /// A cloneable handle onto the service's shared state, for sibling
    /// subsystems (the anti-entropy fabric) that outlive individual
    /// requests. See [`ServiceCore`] for the shutdown-ordering caveat.
    pub fn core(&self) -> ServiceCore<M> {
        ServiceCore {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Submits a request; returns immediately with a [`Ticket`]. Mints a
    /// fresh root trace span for the request.
    pub fn submit(&self, request: InterpretRequest) -> Ticket {
        self.submit_spanned(request, RequestSpan::root())
    }

    /// [`submit`](InterpretationService::submit) under a caller-minted
    /// trace span — `openapi-net` mints the span at frame decode so the
    /// request's trace covers its wire time too.
    pub fn submit_spanned(&self, request: InterpretRequest, span: RequestSpan) -> Ticket {
        let (job, ticket) = self.open_job(request, span);
        if let Err(channel::SendError(Msg::Job(job))) = self.tx.send(Msg::Job(job)) {
            // Workers are gone (shutdown raced the submit): fail the ticket
            // immediately — through `finish`, so the failure is counted and
            // the stats ledger stays consistent.
            finish(self.inner.as_ref(), job, Err(ServeError::ServiceStopped));
        }
        ticket
    }

    /// Admits one request: counts it, and builds its [`Job`] under `span`
    /// with a fresh id and the reply channel its [`Ticket`] waits on.
    fn open_job(&self, request: InterpretRequest, span: RequestSpan) -> (Job, Ticket) {
        let (reply, rx) = mpsc::channel();
        ServiceStats::add(&self.inner.stats.requests, 1);
        let now = clock::now();
        let job = Job {
            x: request.instance,
            class: request.class,
            deadline: request.deadline,
            probs: None,
            queries_spent: 0,
            submitted: now,
            enqueued: now,
            // ordering: Relaxed — the ID only needs uniqueness (the RMW is
            // atomic regardless of ordering); nothing is published through it.
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            drifted: false,
            span,
            stage_ns: [0; slowlog::STAGES],
            reply,
        };
        (job, Ticket { rx })
    }

    /// Convenience: submit an instance/class pair with no deadline.
    pub fn submit_instance(&self, instance: Vector, class: usize) -> Ticket {
        self.submit(InterpretRequest::new(instance, class))
    }

    /// Submits a batch of requests through the warm-path fast lane: every
    /// request is probed on the caller thread (one prediction query each —
    /// the same query the per-request path pays), then the whole batch is
    /// resolved against the shared cache in **one blocked kernel pass**
    /// ([`SharedRegionCache::lookup_probe_batch`]) instead of N
    /// sequential scans. Hits complete immediately; misses carry their
    /// probe to the worker pool and take the ordinary solve path (store
    /// lookup, coalescing, Algorithm 1), so outcomes, query accounting,
    /// and exactness are identical to N individual [`submit`] calls — only
    /// the cache-hit path gets cheaper.
    ///
    /// Returns one [`Ticket`] per request, in submission order.
    ///
    /// [`submit`]: InterpretationService::submit
    pub fn submit_batch(&self, requests: Vec<InterpretRequest>) -> Vec<Ticket> {
        self.submit_batch_spanned(requests, RequestSpan::root())
    }

    /// [`submit_batch`](InterpretationService::submit_batch) under a
    /// caller-minted trace span: each request gets a child span of
    /// `parent` (the wire frame's span, for remote batches), and the
    /// shared kernel pass's events attribute to `parent` itself.
    pub fn submit_batch_spanned(
        &self,
        requests: Vec<InterpretRequest>,
        parent: RequestSpan,
    ) -> Vec<Ticket> {
        let inner = self.inner.as_ref();
        let mut tickets = Vec::with_capacity(requests.len());
        // Jobs that survive validation, paired with their (already paid)
        // membership probe.
        let mut pending: Vec<(Job, Vector)> = Vec::new();
        for request in requests {
            let (mut job, ticket) = self.open_job(request, parent.child());
            tickets.push(ticket);
            if expired(&job) {
                finish(inner, job, Err(ServeError::DeadlineExceeded));
                continue;
            }
            if let Err(e) = validate_request(&inner.api, job.x.as_slice(), job.class) {
                finish(inner, job, Err(ServeError::Interpret(e)));
                continue;
            }
            ServiceStats::add(&inner.stats.queries, 1);
            job.queries_spent += 1;
            let probe_start = clock::now();
            let probs = inner.api.predict(job.x.as_slice());
            // Per-request probe attribution in the batch path covers the
            // prediction query; the shared kernel pass below is the
            // frame's, not any one item's.
            let (_, at) = mark_stage(inner, &mut job, StageSlot::Probe, probe_start);
            job.span.event_at(Stage::Probe, 1, at);
            pending.push((job, probs));
        }

        // One batched membership pass over the shared cache.
        let probes: Vec<ProbeRef<'_>> = pending
            .iter()
            .map(|(job, probs)| ProbeRef {
                x: &job.x,
                probs: probs.as_slice(),
                class: job.class,
            })
            .collect();
        let mut hits = Vec::new();
        hits.resize_with(probes.len(), || None);
        {
            // The blocked pass's kernel events attribute to the frame span.
            let _frame = openapi_trace::enter(parent);
            inner.cache.lookup_probe_batch(&probes, &mut hits);
        }
        drop(probes);

        // One clock read covers every hit in the frame: the batched pass
        // just ended, so all the hit events share its completion instant.
        let batch_at = clock::now();
        for ((mut job, probs), hit) in pending.into_iter().zip(hits) {
            match hit {
                Some(cached) => {
                    ServiceStats::add(&inner.stats.hits, 1);
                    job.span.event_at(Stage::CacheHit, 0, batch_at);
                    let served = served(&job, cached, ServeOutcome::CacheHit);
                    finish(inner, job, Ok(served));
                }
                None => {
                    // Hand the probe to the workers: `handle_job` takes it
                    // from `job.probs` and never queries twice.
                    job.probs = Some(probs);
                    if let Err(channel::SendError(Msg::Job(job))) = self.tx.send(Msg::Job(job)) {
                        finish(inner, job, Err(ServeError::ServiceStopped));
                    }
                }
            }
        }
        tickets
    }

    /// Records the reply-write stage for a request served over the wire:
    /// `openapi-net`'s writer thread calls this after framing and writing
    /// the response, with the `span` taken from [`Served::span`] and `at`
    /// the clock reading that ended the write (one reading stamps every
    /// span a batch frame answers).
    pub fn record_reply(&self, span: u64, latency: Duration, at: Instant) {
        self.inner.stats.record_stage(StageSlot::Reply, latency);
        RequestSpan::from_id(span).event_at(
            Stage::Reply,
            latency.as_nanos().min(u128::from(u64::MAX)) as u64,
            at,
        );
    }

    /// A point-in-time statistics snapshot (counters + cache gauges +
    /// latency quantiles + the store's counters when one is attached).
    pub fn stats(&self) -> StatsSnapshot {
        let mut snapshot = self
            .inner
            .stats
            .snapshot(self.inner.cache.evictions(), self.inner.cache.len());
        snapshot.store = self.inner.store.as_ref().map(RegionStore::stats);
        // ordering: Relaxed — a presence flag set once at fabric spawn;
        // the counters it gates are themselves only per-counter exact.
        if self.inner.fabric_active.load(Ordering::Relaxed) {
            snapshot.fabric = Some(self.inner.fabric_stats.snapshot());
        }
        let witnesses = self.inner.witnesses.lock().len() as u64;
        snapshot.drift = Some(self.inner.drift_stats.snapshot(witnesses));
        snapshot
    }

    /// Actively audits the served history against the live API: re-probes
    /// every witnessed instance (one prediction query each) and
    /// invalidates any whose probe no cached or stored region explains
    /// while the region that once served it is still on offer — the same
    /// verdict the inline detector reaches, without waiting for traffic to
    /// touch the stale region. Returns the number of regions invalidated.
    pub fn audit_drift(&self) -> u64 {
        audit_drift(self.inner.as_ref())
    }

    /// Graceful shutdown: drains and joins the workers, then closes the
    /// durable store (final WAL flush + fsync), surfacing any I/O error.
    /// Dropping the service instead does the same shutdown but can only
    /// swallow store errors.
    ///
    /// # Errors
    /// [`StoreError`] when the store's final flush fails.
    pub fn close(mut self) -> Result<(), StoreError> {
        self.shutdown_workers();
        // Workers are joined, so this handle owns the last `Arc` and can
        // take the store out for a fallible close. (If a caller somehow
        // kept another clone alive, fall back to the store's own drop —
        // still flushed, just not observable.)
        match Arc::get_mut(&mut self.inner).and_then(|inner| inner.store.take()) {
            Some(store) => store.close(),
            None => Ok(()),
        }
    }

    fn shutdown_workers(&mut self) {
        for _ in &self.workers {
            // Workers still draining jobs will see the sentinel eventually;
            // send errors mean they are already gone.
            let _ = self.tx.send(Msg::Shutdown);
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl<M: PredictionApi + Send + Sync + 'static> Drop for InterpretationService<M> {
    fn drop(&mut self) {
        self.shutdown_workers();
    }
}

/// A cloneable handle onto an [`InterpretationService`]'s shared state:
/// the API, the durable store, the shared cache, and the fabric counters.
/// `openapi-fabric`'s gossip loop holds one so it can read digests, ingest
/// peer records, and promote them — without owning the service.
///
/// **Shutdown ordering:** a live core keeps the service's shared state
/// alive, so [`InterpretationService::close`] cannot take the store out
/// for a fallible close while one exists — the store still flushes (its
/// own destructor), but flush errors become unobservable. Shut the fabric
/// down (dropping its core) before closing the service.
pub struct ServiceCore<M: PredictionApi + Send + Sync + 'static> {
    inner: Arc<Inner<M>>,
}

impl<M: PredictionApi + Send + Sync + 'static> Clone for ServiceCore<M> {
    fn clone(&self) -> Self {
        ServiceCore {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<M: PredictionApi + Send + Sync + 'static> fmt::Debug for ServiceCore<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServiceCore")
            .field("cached_regions", &self.inner.cache.len())
            .field(
                "stored_regions",
                &self.inner.store.as_ref().map(RegionStore::len),
            )
            .finish_non_exhaustive()
    }
}

impl<M: PredictionApi + Send + Sync + 'static> ServiceCore<M> {
    /// Borrow the wrapped prediction API.
    pub fn api(&self) -> &M {
        &self.inner.api
    }

    /// Borrow the durable store, when the service has one.
    pub fn store(&self) -> Option<&RegionStore> {
        self.inner.store.as_ref()
    }

    /// Borrow the (clamped) service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.inner.config
    }

    /// The fabric counters this service surfaces in its stats snapshots.
    pub fn fabric_stats(&self) -> &FabricStats {
        &self.inner.fabric_stats
    }

    /// Marks the fabric attached: from now on,
    /// [`InterpretationService::stats`] snapshots carry the fabric
    /// counters (and the wire/Prometheus expositions with them).
    pub fn mark_fabric_active(&self) {
        // ordering: Relaxed — a one-way presence flag; the counters it
        // gates carry their own (per-counter) contract.
        self.inner.fabric_active.store(true, Ordering::Relaxed);
    }

    /// Ingests a validated record pulled from a peer: appends it to the
    /// durable store (idempotent — the store dedupes re-appends) and
    /// promotes it into the shared region cache, so the next request in
    /// that region warm-serves without a solve. Returns whether the store
    /// accepted the record as new.
    ///
    /// Exactness is *not* delegated to the peer: the serving path
    /// re-verifies membership against each request's own probe before the
    /// record ever answers anything, identical to a locally solved region.
    pub fn ingest(
        &self,
        fingerprint: RegionFingerprint,
        interpretation: Arc<Interpretation>,
    ) -> bool {
        if let Some(store) = &self.inner.store {
            // Tombstones win permanently: a region invalidated for drift
            // must never be resurrected by a replicated live record, no
            // matter the arrival order — neither in the store (its admit
            // also refuses) nor, crucially, in the cache.
            if store.contains_tombstone(interpretation.class, fingerprint) {
                return false;
            }
        }
        let fresh = match &self.inner.store {
            Some(store) => store.append(fingerprint, Arc::clone(&interpretation)),
            None => false,
        };
        // Promote through the cache's own insert so fingerprint merging
        // keeps one canonical entry per region.
        let _ = self.inner.cache.insert(interpretation);
        fresh
    }

    /// The drift detector's counters this service surfaces in its stats
    /// snapshots.
    pub fn drift_stats(&self) -> &DriftStats {
        &self.inner.drift_stats
    }

    /// Applies a "forget this region" fact — detected locally by
    /// [`InterpretationService::audit_drift`]/the serving path on a peer
    /// and replicated through the fabric, or decided by an operator:
    /// evicts the region's cache entries and tombstones it in the durable
    /// store, so it can never be served again nor resurrected by
    /// anti-entropy set union. Returns whether the tombstone was fresh
    /// (false when the store already held it, or without a store).
    pub fn apply_tombstone(&self, class: usize, fingerprint: RegionFingerprint) -> bool {
        // A replicated fact needs no conviction: it is applied regardless.
        let fresh = invalidate(&self.inner, class, fingerprint, |_| true) == Some(true);
        if fresh {
            RequestSpan::detached().event(Stage::Invalidate, fingerprint.0);
        }
        fresh
    }

    /// [`InterpretationService::audit_drift`] through the core handle, for
    /// sibling subsystems (the fabric's chaos soak, operator tooling).
    pub fn audit_drift(&self) -> u64 {
        audit_drift(self.inner.as_ref())
    }
}

impl<M: PredictionApi + Send + Sync + 'static> fmt::Debug for InterpretationService<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("InterpretationService")
            .field("config", &self.inner.config)
            .field("cached_regions", &self.inner.cache.len())
            .field(
                "stored_regions",
                &self.inner.store.as_ref().map(RegionStore::len),
            )
            .finish_non_exhaustive()
    }
}

fn worker_loop<M: PredictionApi>(inner: &Inner<M>, rx: &Receiver<Msg>, tx: &Sender<Msg>) {
    while let Ok(Msg::Job(job)) = rx.recv() {
        // A panicking `predict` (e.g. a remote-API wrapper) must not take
        // the worker — or, via leaked coalescing leadership, a whole class
        // — down with it. The panicking job's reply sender is dropped here,
        // so its ticket resolves as `ServiceStopped`; `LeaderGuard` inside
        // `handle_job` releases any leadership it held.
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| handle_job(inner, tx, job)));
        if outcome.is_err() {
            ServiceStats::add(&inner.stats.failures, 1);
        }
    }
}

/// Unwind protection for coalescing leadership: if a leader panics
/// between electing itself and settling its waiters, dropping the guard
/// steps its slot down and requeues the parked waiters so healthy workers
/// recover them — without it, a class at its leader limit would park every
/// future request behind dead leaders forever.
struct LeaderGuard<'a, M: PredictionApi> {
    inner: &'a Inner<M>,
    tx: &'a Sender<Msg>,
    class: usize,
    armed: bool,
}

impl<'a, M: PredictionApi> LeaderGuard<'a, M> {
    fn new(inner: &'a Inner<M>, tx: &'a Sender<Msg>, class: usize) -> Self {
        LeaderGuard {
            inner,
            tx,
            class,
            armed: true,
        }
    }

    /// The normal path: disarms the guard, steps this leader down, and
    /// hands back the waiters that parked during the solve.
    fn release(mut self) -> Vec<Job> {
        self.armed = false;
        self.inner.ledger.step_down(self.class)
    }
}

impl<M: PredictionApi> Drop for LeaderGuard<'_, M> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        // Unwinding: step down and requeue the waiters. A send failure
        // means shutdown; dropping the job resolves its ticket as
        // `ServiceStopped`.
        for mut waiter in self.inner.ledger.step_down(self.class) {
            waiter.enqueued = clock::now();
            let _ = self.tx.send(Msg::Job(waiter));
        }
    }
}

/// Records one stage's elapsed time into the service's per-stage
/// histogram and the job's slow-log breakdown; returns the elapsed
/// nanoseconds (for use as an event payload) together with the clock
/// reading that ended the stage, so the caller can stamp the stage's
/// trace event without a second clock read.
fn mark_stage(
    inner: &Inner<impl PredictionApi>,
    job: &mut Job,
    slot: StageSlot,
    start: Instant,
) -> (u64, Instant) {
    let now = clock::now();
    let elapsed = now.saturating_duration_since(start);
    inner.stats.record_stage(slot, elapsed);
    let ns = elapsed.as_nanos().min(u128::from(u64::MAX)) as u64;
    job.stage_ns[slot as usize] += ns;
    (ns, now)
}

/// Completes a job: records latency + outcome counters, emits the span's
/// terminal event, feeds the slow-request log, sends the reply.
fn finish(inner: &Inner<impl PredictionApi>, job: Job, result: Result<Served, ServeError>) {
    // Finish payload: 0 ok / 1 failed / 2 deadline-expired.
    let outcome_code = match &result {
        Ok(_) => 0,
        Err(ServeError::DeadlineExceeded) => 2,
        Err(_) => 1,
    };
    if result.is_err() {
        ServiceStats::add(&inner.stats.failures, 1);
        if matches!(result, Err(ServeError::DeadlineExceeded)) {
            ServiceStats::add(&inner.stats.deadline_expired, 1);
        }
    }
    let now = clock::now();
    let latency = now.saturating_duration_since(job.submitted);
    inner.stats.record_latency(latency);
    if let Ok(served) = &result {
        if job.drifted {
            // The drift detector invalidated this request's former region
            // and this serve replaced it with a live answer.
            DriftStats::add(&inner.drift_stats.resolves, 1);
            job.span.event_at(Stage::Resolve, served.fingerprint.0, now);
        }
        // Witness the serve: the exact instance and the region that
        // answered it, the ground truth later drift checks test against.
        if drift_detection_enabled() {
            inner
                .witnesses
                .lock()
                .record(job.class, &job.x, served.fingerprint);
        }
    }
    job.span.event_at(Stage::Finish, outcome_code, now);
    slowlog::observe(job.span.id(), latency, &job.stage_ns);
    let _ = job.reply.send(result);
}

/// The reply for a request satisfied by `region`: the queries it spent
/// and its latency so far are read off the job.
fn served(job: &Job, region: CachedRegion, outcome: ServeOutcome) -> Served {
    Served {
        interpretation: region.interpretation,
        fingerprint: region.fingerprint,
        outcome,
        queries: job.queries_spent,
        latency: clock::now().saturating_duration_since(job.submitted),
        span: job.span.id(),
    }
}

fn expired(job: &Job) -> bool {
    job.deadline.is_some_and(|d| clock::now() > d)
}

fn handle_job<M: PredictionApi>(inner: &Inner<M>, tx: &Sender<Msg>, mut job: Job) {
    // Kernel and store events emitted below attribute to this request's
    // span through the thread-local.
    let _span_guard = openapi_trace::enter(job.span);
    let enqueued = job.enqueued;
    let (queue_ns, at) = mark_stage(inner, &mut job, StageSlot::Queue, enqueued);
    job.span.event_at(Stage::Queue, queue_ns, at);
    if expired(&job) {
        return finish(inner, job, Err(ServeError::DeadlineExceeded));
    }
    // Validated before the first query: a doomed request is not billed.
    if let Err(e) = validate_request(&inner.api, job.x.as_slice(), job.class) {
        return finish(inner, job, Err(ServeError::Interpret(e)));
    }

    // The membership probe: one query, reused as Algorithm 1's x⁰ equation
    // on a miss and carried along on a requeue — never paid twice.
    let probe_start = clock::now();
    let (probs, probe_queries) = match job.probs.take() {
        Some(probs) => (probs, 0),
        None => {
            ServiceStats::add(&inner.stats.queries, 1);
            job.queries_spent += 1;
            (inner.api.predict(job.x.as_slice()), 1)
        }
    };

    let generation = inner.ledger.generation();
    let hit = inner
        .cache
        .lookup_probe(&job.x, probs.as_slice(), job.class);
    // The probe stage covers the prediction query plus the cache scan.
    let (_, at) = mark_stage(inner, &mut job, StageSlot::Probe, probe_start);
    job.span.event_at(Stage::Probe, probe_queries, at);
    if let Some(hit) = hit {
        ServiceStats::add(&inner.stats.hits, 1);
        job.span.event_at(Stage::CacheHit, 0, at);
        let served = served(&job, hit, ServeOutcome::CacheHit);
        return finish(inner, job, Ok(served));
    }

    // L2: the durable store. A region solved in any previous run (or by a
    // sibling process sharing the directory) is promoted back into the
    // cache and served for the price of the probe — no leader election,
    // no Algorithm-1 queries. The membership test just passed against
    // *this* request's live probe, so the serve is as exact as any hit.
    if let Some(store) = &inner.store {
        let store_start = clock::now();
        let stored = store.lookup_probe(&job.x, probs.as_slice(), job.class);
        let (_, at) = mark_stage(inner, &mut job, StageSlot::Store, store_start);
        job.span
            .event_at(Stage::StoreLookup, u64::from(stored.is_some()), at);
        if let Some(stored) = stored {
            ServiceStats::add(&inner.stats.store_hits, 1);
            let cached = inner.cache.insert(stored.interpretation);
            let served = served(&job, cached, ServeOutcome::StoreHit);
            return finish(inner, job, Ok(served));
        }
    }

    // Drift detection: this exact instance was served before (witnessed),
    // yet its probe now misses both tiers. If the region that served it is
    // still being offered, the hidden model changed behind the API — the
    // once-exact parameters no longer explain its predictions. Invalidate
    // the stale region everywhere (cache evict + store tombstone), then
    // fall through to re-solve against the live API. A consumed witness is
    // re-recorded when this request's fresh serve completes.
    let witnessed = if drift_detection_enabled() {
        inner.witnesses.lock().take(job.class, &job.x)
    } else {
        None
    };
    if let Some(stale) = witnessed {
        if invalidate(inner, job.class, stale, |evicted| {
            evicted > 0 || stored(inner, job.class, stale)
        })
        .is_some()
        {
            DriftStats::add(&inner.drift_stats.detected, 1);
            job.span.event(Stage::Invalidate, stale.0);
            job.drifted = true;
        }
    }

    // The probe rides in the job across the election: a parked request is
    // settled (or requeued) with its probe intact and never pays it twice.
    job.probs = Some(probs);
    let class = job.class;
    // The span outlives the election either way; keep a copy so the parked
    // branch (which surrenders the job to the ledger) can still emit its
    // event.
    let span = job.span;
    let guard = match inner
        .ledger
        .try_lead(class, inner.config.max_leaders_per_class, job)
    {
        Election::Parked => {
            // The class is at its concurrent-solve limit: parked (the limit
            // check and the park were one atomic step inside the ledger). A
            // finishing leader's result decides our fate — serve if it
            // explains our probe, requeue otherwise.
            ServiceStats::add(&inner.stats.coalesced_waits, 1);
            span.event(Stage::CoalesceWait, 0);
            return;
        }
        Election::Led(led) => {
            job = led;
            job.span.event(Stage::CoalesceLead, 0);
            // Guard constructed immediately after winning the slot: from
            // here on, a panic anywhere in the solve steps this leader down
            // via `Drop`.
            LeaderGuard::new(inner, tx, class)
        }
    };
    let probs = job.probs.take().expect("the probe rides the election");

    // Double-checked lookup before solving: a leader that finished between
    // our cache miss and our election has already inserted its region
    // (insert happens-before the generation bump, which happens-before the
    // registry bookkeeping our election observed), so re-reading the cache
    // prevents a duplicate solve of a just-solved region. The recheck runs
    // OUTSIDE the registry mutex — leadership slots already bound
    // same-class concurrency, so the scan serializes nobody — and only in
    // the rare race, when the generation says a solve completed since our
    // lookup began.
    let recheck = (inner.ledger.generation() != generation)
        .then(|| {
            inner
                .cache
                .lookup_probe(&job.x, probs.as_slice(), job.class)
        })
        .flatten();

    let (solved, outcome) = match recheck {
        Some(hit) => {
            ServiceStats::add(&inner.stats.hits, 1);
            job.span.event(Stage::CacheHit, 0);
            (Ok(hit), ServeOutcome::CacheHit)
        }
        None => {
            let solve_start = clock::now();
            let queries_before = job.queries_spent;
            let solved = lead_solve(inner, &mut job, probs);
            let (_, at) = mark_stage(inner, &mut job, StageSlot::Solve, solve_start);
            job.span.event_at(
                Stage::Solve,
                (job.queries_spent - queries_before) as u64,
                at,
            );
            (solved, ServeOutcome::Solved)
        }
    };

    let waiters = guard.release();
    settle_waiters(inner, tx, solved.as_ref(), waiters);

    let result = solved
        .map(|region| served(&job, region, outcome))
        .map_err(ServeError::Interpret);
    finish(inner, job, result);
}

/// Runs Algorithm 1 from the already-paid probe, admits the result into
/// the shared cache, and queues the durable-store append. Returns the
/// *cached* entry (canonical under fingerprint merging), so every caller
/// serves identical bits.
fn lead_solve<M: PredictionApi>(
    inner: &Inner<M>,
    job: &mut Job,
    probs: Vector,
) -> Result<CachedRegion, InterpretError> {
    let probe = Probe {
        x: job.x.clone(),
        probs,
    };
    let mut rng = request_rng(inner.config.seed, job.id);
    match inner
        .interpreter
        .interpret_with_probe(&inner.api, probe, job.class, &mut rng)
    {
        Ok(res) => {
            // `res.queries` counts the probe; it was already tallied.
            ServiceStats::add(&inner.stats.queries, (res.queries - 1) as u64);
            ServiceStats::add(&inner.stats.misses, 1);
            job.queries_spent += res.queries - 1;
            let cached = inner.cache.insert(Arc::new(res.interpretation));
            if let Some(store) = &inner.store {
                // Asynchronous append: deduped against the store's index,
                // written + fsynced by its flusher thread. The solve path
                // never waits on the disk.
                store.append(cached.fingerprint, Arc::clone(&cached.interpretation));
            }
            // After the insert, before the leader steps down: anyone who
            // later observes a free leader slot also observes this bump
            // (the registry mutex orders both), and rechecks.
            inner.ledger.record_solve();
            Ok(cached)
        }
        Err(e) => {
            ServiceStats::add(&inner.stats.queries, queries_consumed(&e) as u64);
            Err(e)
        }
    }
}

/// Sampling queries a failed interpretation spent beyond `x⁰`'s probe, read
/// off the error (a failed run returns no
/// [`openapi_core::openapi::OpenApiResult`] to read it from). Budget
/// exhaustion carries its own count; argument validation spends none.
fn queries_consumed(error: &InterpretError) -> usize {
    match error {
        InterpretError::BudgetExhausted { queries, .. } => queries.saturating_sub(1),
        _ => 0,
    }
}

/// Settles the requests that parked behind a leader's solve: waiters whose
/// probe the solved region explains are in that region (Theorem 2) and are
/// served its exact interpretation; everyone else — other regions queued
/// behind this solve, or waiters of a failed solve — goes back on the
/// queue, probe in hand, to hit the cache or lead (or park behind) a solve
/// of their own.
fn settle_waiters<M: PredictionApi>(
    inner: &Inner<M>,
    tx: &Sender<Msg>,
    solved: Result<&CachedRegion, &InterpretError>,
    waiters: Vec<Job>,
) {
    let rtol = inner.config.cache.membership_rtol;
    for mut waiter in waiters {
        if expired(&waiter) {
            finish(inner, waiter, Err(ServeError::DeadlineExceeded));
            continue;
        }
        let region = solved.ok().filter(|region| {
            let probs = waiter.probs.as_ref().expect("waiters carry their probe");
            region
                .interpretation
                .explains_probe(&waiter.x, probs.as_slice(), rtol)
        });
        if let Some(region) = region {
            ServiceStats::add(&inner.stats.coalesced_served, 1);
            let served = served(&waiter, region.clone(), ServeOutcome::Coalesced);
            finish(inner, waiter, Ok(served));
        } else {
            // Back on the queue: reset the queue-stage clock so the next
            // pass counts only its own wait.
            waiter.enqueued = clock::now();
            if let Err(channel::SendError(Msg::Job(waiter))) = tx.send(Msg::Job(waiter)) {
                finish(inner, waiter, Err(ServeError::ServiceStopped));
            }
        }
    }
}

/// The active half of the drift detector (the inline half lives in
/// `handle_job`): re-probes every witnessed instance against the live API
/// and invalidates any stale region it convicts. One prediction query per
/// witness; witnesses that no longer convict anything (their region is
/// already gone everywhere) are dropped, witnesses still explained by a
/// cached or stored region are kept.
fn audit_drift<M: PredictionApi>(inner: &Inner<M>) -> u64 {
    let entries = inner.witnesses.lock().entries();
    let mut invalidated = 0;
    for ((class, bits), stale) in entries {
        let x = Vector(bits.iter().map(|&b| f64::from_bits(b)).collect());
        ServiceStats::add(&inner.stats.queries, 1);
        let probs = inner.api.predict(x.as_slice());
        if inner
            .cache
            .lookup_probe(&x, probs.as_slice(), class)
            .is_some()
        {
            continue;
        }
        if let Some(store) = &inner.store {
            if store.lookup_probe(&x, probs.as_slice(), class).is_some() {
                continue;
            }
        }
        // Nothing explains the live prediction any more. If the witnessed
        // region is still on offer, it is stale: invalidate it everywhere.
        if invalidate(inner, class, stale, |evicted| {
            evicted > 0 || stored(inner, class, stale)
        })
        .is_some()
        {
            DriftStats::add(&inner.drift_stats.detected, 1);
            RequestSpan::detached().event(Stage::Invalidate, stale.0);
            invalidated += 1;
        }
        inner.witnesses.lock().remove(class, &bits);
    }
    invalidated
}

/// Forgets a stale region everywhere — the one invalidation path the
/// inline detector, the audit sweep and replicated tombstones share.
/// Evicts the region's cache entries; then, if `convicted(evicted)` holds,
/// tombstones it in the durable store and counts the evictions and any
/// fresh tombstone in the drift stats. Returns `None` when not convicted,
/// else whether the tombstone was fresh (false without a store).
fn invalidate<M: PredictionApi>(
    inner: &Inner<M>,
    class: usize,
    stale: RegionFingerprint,
    convicted: impl FnOnce(u64) -> bool,
) -> Option<bool> {
    let evicted = inner.cache.evict(class, stale) as u64;
    if !convicted(evicted) {
        return None;
    }
    DriftStats::add(&inner.drift_stats.invalidated, evicted);
    let fresh = inner
        .store
        .as_ref()
        .is_some_and(|store| store.tombstone(class, stale));
    if fresh {
        DriftStats::add(&inner.drift_stats.tombstones, 1);
    }
    Some(fresh)
}

/// Whether the durable store still offers `stale` (false without a store).
fn stored<M: PredictionApi>(inner: &Inner<M>, class: usize, stale: RegionFingerprint) -> bool {
    inner
        .store
        .as_ref()
        .is_some_and(|store| store.contains_fingerprint(class, stale))
}

/// Derives a request's sampling RNG from `(seed, request id)` via
/// [`openapi_core::rng::derived_rng`] — the same derivation the eval
/// harness's `item_rng` uses, so request 0 never collides with direct uses
/// of the master seed and any fixed submission order replays
/// bit-identically.
fn request_rng(seed: u64, id: u64) -> StdRng {
    openapi_core::rng::derived_rng(seed, id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use openapi_api::{CountingApi, LinearSoftmaxModel, LocalLinearModel, TwoRegionPlm};
    use openapi_linalg::Matrix;
    use std::path::PathBuf;

    fn two_region_model() -> TwoRegionPlm {
        let low = LocalLinearModel::new(
            Matrix::from_rows(&[&[2.0, -2.0], &[1.0, 0.5]]).unwrap(),
            Vector(vec![0.0, 0.2]),
        );
        let high = LocalLinearModel::new(
            Matrix::from_rows(&[&[-1.0, 1.5], &[0.0, 3.0]]).unwrap(),
            Vector(vec![0.5, -0.5]),
        );
        TwoRegionPlm::axis_split(0, 0.5, low, high)
    }

    fn service(workers: usize) -> InterpretationService<CountingApi<TwoRegionPlm>> {
        InterpretationService::new(
            CountingApi::new(two_region_model()),
            ServiceConfig {
                workers,
                ..ServiceConfig::default()
            },
        )
    }

    /// A unique temp directory per call; each test removes its own.
    fn temp_store_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "openapi_serve_{tag}_{}_{}",
            std::process::id(),
            // ordering: Relaxed — uniqueness only; nothing published.
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn serves_exact_interpretations_and_counts_outcomes() {
        let svc = service(2);
        let instances: Vec<Vector> = (0..12)
            .map(|i| {
                let side = if i % 2 == 0 { 0.2 } else { 0.8 };
                Vector(vec![side, (i as f64 * 0.37).sin() * 0.4])
            })
            .collect();
        let tickets: Vec<Ticket> = instances
            .iter()
            .map(|x| svc.submit_instance(x.clone(), 0))
            .collect();
        let model = two_region_model();
        for (x, t) in instances.iter().zip(tickets) {
            let served = t.wait().expect("interior instances interpret");
            // Exactness: the served parameters are the region's ground truth.
            use openapi_api::GroundTruthOracle;
            let truth = model.local_model(x.as_slice()).decision_features(0);
            let err = served
                .interpretation
                .decision_features
                .l1_distance(&truth)
                .unwrap();
            assert!(err < 1e-7, "L1Dist {err}");
            // Every serve verified membership against this request's probe.
            assert!(served.queries >= 1);
        }
        let stats = svc.stats();
        assert_eq!(stats.requests, 12);
        assert_eq!(
            stats.hits + stats.store_hits + stats.misses + stats.coalesced_served + stats.failures,
            12
        );
        assert_eq!(stats.failures, 0);
        assert_eq!(stats.store_hits, 0, "no store attached");
        assert!(stats.store.is_none());
        assert_eq!(stats.cached_regions, 2);
        // The metered API agrees with the stats ledger.
        assert_eq!(stats.queries, svc.api().queries());
    }

    #[test]
    fn invalid_requests_fail_without_queries() {
        let svc = service(1);
        let bad_dim = svc.submit_instance(Vector(vec![0.0; 5]), 0).wait();
        assert!(matches!(
            bad_dim,
            Err(ServeError::Interpret(
                InterpretError::DimensionMismatch { .. }
            ))
        ));
        let bad_class = svc.submit_instance(Vector(vec![0.1, 0.2]), 9).wait();
        assert!(matches!(
            bad_class,
            Err(ServeError::Interpret(
                InterpretError::ClassOutOfRange { .. }
            ))
        ));
        assert_eq!(svc.api().queries(), 0);
        let stats = svc.stats();
        assert_eq!(stats.failures, 2);
    }

    #[test]
    fn non_finite_instances_fail_without_queries_on_both_submit_paths() {
        let svc = service(1);
        let refused = |r: Result<Served, ServeError>, index: usize| {
            assert!(
                matches!(
                    r,
                    Err(ServeError::Interpret(InterpretError::NonFiniteInstance { index: i }))
                        if i == index
                ),
                "{r:?}"
            );
        };
        refused(
            svc.submit_instance(Vector(vec![f64::NAN, 0.2]), 0).wait(),
            0,
        );
        let batch = svc.submit_batch(vec![
            InterpretRequest::new(Vector(vec![0.1, f64::INFINITY]), 0),
            InterpretRequest::new(Vector(vec![f64::NEG_INFINITY, 0.2]), 1),
        ]);
        for (ticket, index) in batch.into_iter().zip([1, 0]) {
            refused(ticket.wait(), index);
        }
        assert_eq!(svc.api().queries(), 0);
        let stats = svc.stats();
        assert_eq!((stats.failures, stats.queries), (3, 0));
    }

    #[test]
    fn budget_exhaustion_charges_what_the_api_saw_on_both_policies() {
        // On the split itself any cube straddles it, so a short budget
        // runs out; the failed solve's cost must reach the ledger exactly.
        let mut on_split = TwoRegionPlm::reference_instance(0);
        on_split[1] = 0.25;
        for edge_search in [EdgeSearch::Halving, EdgeSearch::PreScreen] {
            let svc = InterpretationService::new(
                CountingApi::new(TwoRegionPlm::reference()),
                ServiceConfig {
                    workers: 1,
                    openapi: OpenApiConfig {
                        max_iterations: 3,
                        edge_search,
                        ..OpenApiConfig::default()
                    },
                    ..ServiceConfig::default()
                },
            );
            let failed = svc.submit_instance(on_split.clone(), 0).wait();
            assert!(
                matches!(
                    failed,
                    Err(ServeError::Interpret(
                        InterpretError::BudgetExhausted { .. }
                    ))
                ),
                "{edge_search:?}: {failed:?}"
            );
            let stats = svc.stats();
            assert_eq!(stats.failures, 1);
            assert_eq!(stats.queries, svc.api().queries(), "{edge_search:?}");
        }
    }

    #[test]
    fn expired_deadlines_are_rejected() {
        let svc = service(1);
        let req = InterpretRequest {
            instance: Vector(vec![0.2, 0.1]),
            class: 0,
            deadline: Some(clock::now() - Duration::from_millis(1)),
        };
        assert!(matches!(
            svc.submit(req).wait(),
            Err(ServeError::DeadlineExceeded)
        ));
        assert_eq!(svc.stats().deadline_expired, 1);
    }

    #[test]
    fn budgets_past_the_clock_range_set_no_deadline() {
        let req = InterpretRequest::new(Vector(vec![0.2, 0.1]), 0);
        assert_eq!(req.with_timeout(Duration::MAX).deadline, None);
    }

    #[test]
    fn tickets_can_be_polled() {
        let svc = service(1);
        let ticket = svc.submit_instance(Vector(vec![0.2, 0.1]), 0);
        let deadline = clock::now() + Duration::from_secs(10);
        let result = loop {
            if let Some(r) = ticket.poll() {
                break r;
            }
            assert!(clock::now() < deadline, "request never completed");
            std::thread::yield_now();
        };
        assert!(result.is_ok());
    }

    #[test]
    fn coalescing_shares_one_solve_across_a_burst() {
        // Single-region model: every request resolves to the same region.
        // With the leader limit pinned to 1, a burst must produce exactly
        // one miss and zero failures, and hits + coalesced make up the
        // rest. (At the default limit of 4 leaders, up to `workers` racing
        // cold requests may each solve the one region — duplicates merge,
        // but the query spend is what this test pins down.)
        let w = Matrix::from_fn(8, 3, |r, c| ((r * 3 + c) % 7) as f64 * 0.1 - 0.3);
        let api = CountingApi::new(LinearSoftmaxModel::new(w, Vector(vec![0.1, -0.2, 0.05])));
        let svc = InterpretationService::new(
            api,
            ServiceConfig {
                workers: 4,
                max_leaders_per_class: 1,
                ..ServiceConfig::default()
            },
        );
        let tickets: Vec<Ticket> = (0..64)
            .map(|i| {
                let x = Vector((0..8).map(|j| ((i * 8 + j) as f64 * 0.11).cos()).collect());
                svc.submit_instance(x, 1)
            })
            .collect();
        let mut outcomes = Vec::new();
        for t in tickets {
            outcomes.push(t.wait().expect("single region must interpret").outcome);
        }
        let stats = svc.stats();
        assert_eq!(stats.misses, 1, "one region, one solve");
        assert_eq!(stats.failures, 0);
        assert_eq!(stats.hits + stats.coalesced_served, 63);
        assert_eq!(
            outcomes
                .iter()
                .filter(|o| **o == ServeOutcome::Solved)
                .count(),
            1
        );
        // All 64 answers are bit-identical (consistency).
        // (Checked via stats here; tests/service_concurrency.rs does the
        // full bitwise comparison across threads.)
    }

    #[test]
    fn batched_submission_serves_warm_probes_in_one_pass() {
        let svc = service(2);
        // Warm both regions through the ordinary path.
        let warm = [Vector(vec![0.2, 0.3]), Vector(vec![0.8, -0.2])];
        for x in &warm {
            assert_eq!(
                svc.submit_instance(x.clone(), 0).wait().unwrap().outcome,
                ServeOutcome::Solved
            );
        }
        let queries_before = svc.api().queries();

        // A mixed batch: six warm probes, one invalid dimension, one
        // pre-expired deadline.
        let mut requests: Vec<InterpretRequest> = (0..6)
            .map(|i| {
                let side = if i % 2 == 0 { 0.2 } else { 0.8 };
                InterpretRequest::new(Vector(vec![side, (i as f64 * 0.31).sin() * 0.3]), 0)
            })
            .collect();
        requests.push(InterpretRequest::new(Vector(vec![0.0; 5]), 0));
        requests.push(InterpretRequest {
            instance: Vector(vec![0.2, 0.1]),
            class: 0,
            deadline: Some(clock::now() - Duration::from_millis(1)),
        });
        let tickets = svc.submit_batch(requests);
        assert_eq!(tickets.len(), 8);
        let mut results: Vec<_> = tickets.into_iter().map(Ticket::wait).collect();
        assert!(matches!(
            results.pop().unwrap(),
            Err(ServeError::DeadlineExceeded)
        ));
        assert!(matches!(
            results.pop().unwrap(),
            Err(ServeError::Interpret(
                InterpretError::DimensionMismatch { .. }
            ))
        ));
        for r in results {
            let served = r.expect("warm probes must serve");
            assert_eq!(served.outcome, ServeOutcome::CacheHit);
            assert_eq!(served.queries, 1, "one probe, zero solve queries");
        }
        // The whole warm batch cost exactly one prediction per valid probe.
        assert_eq!(svc.api().queries() - queries_before, 6);
        let stats = svc.stats();
        assert_eq!(stats.requests, 10);
        assert_eq!(stats.hits, 6);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.failures, 2);
    }

    #[test]
    fn batched_submission_routes_cold_probes_to_the_workers() {
        let svc = service(2);
        // Cold cache: the batch itself must trigger the solves.
        let tickets = svc.submit_batch(vec![
            InterpretRequest::new(Vector(vec![0.2, 0.3]), 0),
            InterpretRequest::new(Vector(vec![0.8, -0.2]), 0),
        ]);
        let outcomes: Vec<_> = tickets
            .into_iter()
            .map(|t| t.wait().expect("cold batch must solve").outcome)
            .collect();
        // Distinct regions: both solve (no coalescing possible between them).
        assert!(outcomes.iter().all(|o| *o == ServeOutcome::Solved));
        let stats = svc.stats();
        assert_eq!(stats.misses, 2);
        // The metered API agrees with the ledger — the batch probe was
        // reused as Algorithm 1's x⁰ equation, never paid twice.
        assert_eq!(stats.queries, svc.api().queries());
    }

    /// Sleeps on exactly one designated prediction call (1-indexed), long
    /// enough for the test to race other requests past it.
    struct SlowCall<M> {
        inner: M,
        calls: AtomicU64,
        slow_call: u64,
        sleep: Duration,
    }

    impl<M: PredictionApi> SlowCall<M> {
        fn new(inner: M, slow_call: u64, sleep: Duration) -> Self {
            SlowCall {
                inner,
                calls: AtomicU64::new(0),
                slow_call,
                sleep,
            }
        }
    }

    impl<M: PredictionApi> PredictionApi for SlowCall<M> {
        fn dim(&self) -> usize {
            self.inner.dim()
        }

        fn num_classes(&self) -> usize {
            self.inner.num_classes()
        }

        fn predict(&self, x: &[f64]) -> Vector {
            // ordering: Relaxed — a monotone call counter; the test below
            // only polls it for progress, never to publish data.
            let n = self.calls.fetch_add(1, Ordering::Relaxed) + 1;
            if n == self.slow_call {
                std::thread::sleep(self.sleep);
            }
            self.inner.predict(x)
        }
    }

    /// Builds the slow-first-solve scenario shared by the two leader-limit
    /// tests: request A's Algorithm-1 solve stalls on its first sampling
    /// query (call 2; its probe was call 1), then request B — a *different
    /// region* of the same class — arrives. Returns `(ticket_a, ticket_b)`
    /// with B's submitted only after A is provably mid-solve.
    fn slow_first_solve(svc: &InterpretationService<SlowCall<TwoRegionPlm>>) -> (Ticket, Ticket) {
        let a = svc.submit_instance(Vector(vec![0.2, 0.1]), 0); // low region
        let deadline = clock::now() + Duration::from_secs(30);
        // ordering: Relaxed — progress polling; the sleep itself is the
        // only synchronization the scenario needs.
        while svc.api().calls.load(Ordering::Relaxed) < 2 {
            assert!(clock::now() < deadline, "request A never began solving");
            std::thread::yield_now();
        }
        let b = svc.submit_instance(Vector(vec![0.8, -0.2]), 0); // high region
        (a, b)
    }

    #[test]
    fn second_leader_overtakes_a_slow_first_solve() {
        // ROADMAP item: distinct-region cold misses of one class must no
        // longer serialize. With 2 leader slots, request B elects itself
        // while A's solve is still sleeping and completes long before A.
        let svc = InterpretationService::new(
            SlowCall::new(two_region_model(), 2, Duration::from_millis(400)),
            ServiceConfig {
                workers: 2,
                max_leaders_per_class: 2,
                ..ServiceConfig::default()
            },
        );
        let (a, b) = slow_first_solve(&svc);
        let served_b = b.wait().expect("B solves independently");
        assert_eq!(served_b.outcome, ServeOutcome::Solved);
        assert!(
            a.poll().is_none(),
            "B finished while A was still mid-solve — no serialization"
        );
        assert_eq!(a.wait().expect("A completes").outcome, ServeOutcome::Solved);
        assert_eq!(svc.stats().coalesced_waits, 0, "B never parked");
    }

    #[test]
    fn single_leader_limit_still_serializes_distinct_regions() {
        // The mirror: with the limit at 1 (the pre-leader-pool behavior),
        // B parks behind A's in-flight solve and can only complete after
        // A settles it — so by the time B resolves, A must be done.
        let svc = InterpretationService::new(
            SlowCall::new(two_region_model(), 2, Duration::from_millis(400)),
            ServiceConfig {
                workers: 2,
                max_leaders_per_class: 1,
                ..ServiceConfig::default()
            },
        );
        let (a, b) = slow_first_solve(&svc);
        let served_b = b.wait().expect("B eventually solves");
        assert_eq!(served_b.outcome, ServeOutcome::Solved);
        assert!(svc.stats().coalesced_waits >= 1, "B must have parked");
        // B was submitted just as A's 400 ms sleep began and could only be
        // requeued after A's solve settled, so its end-to-end latency must
        // carry most of that sleep — the serialization the leader pool
        // removes. (The overtake test's B finishes in microseconds.)
        assert!(
            served_b.latency >= Duration::from_millis(200),
            "with one leader slot, B must have waited out A's solve \
             (latency {:?})",
            served_b.latency
        );
        assert_eq!(a.wait().expect("A completes").outcome, ServeOutcome::Solved);
    }

    #[test]
    fn panicking_solve_does_not_wedge_the_class_or_the_worker() {
        /// Panics on exactly the `panic_on`-th prediction — timed so the
        /// first request's probe succeeds (call 1) and its Algorithm-1
        /// sampling (calls 2–4) dies mid-solve, i.e. while the request
        /// holds a coalescing leader slot for its class.
        struct PanicOnCall<M> {
            inner: M,
            calls: AtomicU64,
            panic_on: u64,
        }

        impl<M: PredictionApi> PredictionApi for PanicOnCall<M> {
            fn dim(&self) -> usize {
                self.inner.dim()
            }

            fn num_classes(&self) -> usize {
                self.inner.num_classes()
            }

            fn predict(&self, x: &[f64]) -> Vector {
                // ordering: Relaxed — monotone call counter, uniqueness only.
                let n = self.calls.fetch_add(1, Ordering::Relaxed) + 1;
                assert!(n != self.panic_on, "injected mid-solve panic");
                self.inner.predict(x)
            }
        }

        let svc = InterpretationService::new(
            PanicOnCall {
                inner: two_region_model(),
                calls: AtomicU64::new(0),
                panic_on: 3,
            },
            ServiceConfig {
                workers: 1,
                // One leader slot, so a leaked slot would wedge the class —
                // the strictest config for this regression.
                max_leaders_per_class: 1,
                ..ServiceConfig::default()
            },
        );
        let x = Vector(vec![0.2, 0.1]);
        let poisoned = svc.submit_instance(x.clone(), 0);
        let recovered = svc.submit_instance(x.clone(), 0);
        let hit = svc.submit_instance(x, 0);
        // The poisoned request dies with the worker's unwind; its ticket
        // resolves (as stopped), it never hangs.
        assert!(poisoned.wait().is_err());
        // Leadership was released: the follow-up request for the same class
        // completes (a wedged registry would park it forever).
        let recovered = recovered
            .wait_timeout(Duration::from_secs(60))
            .expect("class must recover after a panicked leader")
            .expect("clean re-solve");
        assert_eq!(recovered.outcome, ServeOutcome::Solved);
        assert_eq!(hit.wait().unwrap().outcome, ServeOutcome::CacheHit);
        // The panicked request is accounted as a failure.
        assert!(svc.stats().failures >= 1);
    }

    #[test]
    fn replays_are_deterministic_for_a_fixed_submission_order() {
        let run = || {
            let svc = service(1);
            let xs = [Vector(vec![0.2, 0.4]), Vector(vec![0.7, -0.1])];
            xs.iter()
                .map(|x| {
                    svc.submit_instance(x.clone(), 0)
                        .wait()
                        .unwrap()
                        .interpretation
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn foreign_cache_entry_degrades_to_misses_not_poisoned_lookups() {
        // Regression: an entry recovered from a DIFFERENT model (contrast
        // class 4 in a 2-class service) lands in the cache; it
        // must simply never pass membership — requests for its class still
        // solve and succeed, rather than every lookup panicking on the
        // foreign entry and killing the class.
        use openapi_core::decision::PairwiseCoreParams;

        let foreign = Interpretation::from_pairwise(
            0,
            vec![PairwiseCoreParams {
                c_prime: 4, // out of range for TwoRegionPlm's 2 classes
                weights: Vector(vec![1.0, -1.0]),
                bias: 0.5,
            }],
        )
        .unwrap();
        let svc = service(2);
        svc.cache().insert(Arc::new(foreign));
        let served = svc
            .submit_instance(Vector(vec![0.2, 0.1]), 0)
            .wait()
            .expect("foreign cache entry must not poison the class");
        assert_eq!(served.outcome, ServeOutcome::Solved);
        assert_eq!(svc.stats().failures, 0);
    }

    #[test]
    fn restarting_against_a_store_reserves_without_solving() {
        // The acceptance scenario in miniature: run traffic, close, reopen
        // the same directory — zero additional Algorithm-1 solves.
        let dir = temp_store_dir("restart");
        let xs = [Vector(vec![0.2, 0.3]), Vector(vec![0.8, -0.2])];
        let svc = InterpretationService::open(
            CountingApi::new(two_region_model()),
            ServiceConfig::default(),
            &dir,
        )
        .unwrap();
        for x in &xs {
            let served = svc.submit_instance(x.clone(), 0).wait().unwrap();
            assert_eq!(served.outcome, ServeOutcome::Solved);
        }
        let stats = svc.stats();
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.store.as_ref().unwrap().appends, 2);
        svc.close().unwrap();

        let svc = InterpretationService::open(
            CountingApi::new(two_region_model()),
            ServiceConfig::default(),
            &dir,
        )
        .unwrap();
        assert_eq!(svc.store().unwrap().len(), 2, "regions recovered");
        // First touch of each region: store hit, promoted to the cache.
        for x in &xs {
            let served = svc.submit_instance(x.clone(), 0).wait().unwrap();
            assert_eq!(served.outcome, ServeOutcome::StoreHit);
            assert_eq!(served.queries, 1, "one membership probe, no solve");
        }
        // Second touch: plain cache hits (the store is consulted only on
        // cache misses).
        for x in &xs {
            let served = svc.submit_instance(x.clone(), 0).wait().unwrap();
            assert_eq!(served.outcome, ServeOutcome::CacheHit);
        }
        let stats = svc.stats();
        assert_eq!(stats.misses, 0, "zero Algorithm-1 solves after restart");
        assert_eq!(stats.store_hits, 2);
        assert_eq!(stats.hits, 2);
        assert_eq!(
            stats.hits + stats.store_hits + stats.misses + stats.coalesced_served + stats.failures,
            4
        );
        assert_eq!(stats.queries, 4, "restart cost: one probe per request");
        let store_stats = stats.store.as_ref().unwrap();
        assert_eq!(store_stats.hits, 2);
        assert_eq!(store_stats.duplicate_appends, 0);
        svc.close().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn store_from_a_different_model_degrades_to_solves() {
        // Mirror of the mismatched-snapshot test against the store tier: a
        // directory written by a DIFFERENT model must never poison serves —
        // membership re-verification guards every store hit.
        let dir = temp_store_dir("foreign");
        let foreign_model = LinearSoftmaxModel::new(
            Matrix::from_fn(2, 5, |r, c| (r * 5 + c) as f64 * 0.2 - 0.4),
            Vector(vec![0.1, -0.1, 0.3, 0.0, -0.2]),
        );
        let svc =
            InterpretationService::open(foreign_model, ServiceConfig::default(), &dir).unwrap();
        svc.submit_instance(Vector(vec![0.4, -0.6]), 0)
            .wait()
            .unwrap();
        svc.close().unwrap();

        // Same directory, different model behind the API.
        let svc = InterpretationService::open(
            CountingApi::new(two_region_model()),
            ServiceConfig::default(),
            &dir,
        )
        .unwrap();
        assert!(!svc.store().unwrap().is_empty(), "foreign records loaded");
        let served = svc
            .submit_instance(Vector(vec![0.2, 0.1]), 0)
            .wait()
            .expect("foreign store entries must not poison the class");
        assert_eq!(served.outcome, ServeOutcome::Solved);
        assert_eq!(svc.stats().store_hits, 0, "foreign entries never pass");
        assert_eq!(svc.stats().failures, 0);
        svc.close().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn silent_model_swap_is_detected_tombstoned_and_resolved() {
        use openapi_api::{ChaosApi, GroundTruthOracle};

        let dir = temp_store_dir("drift");
        let api = ChaosApi::new(TwoRegionPlm::reference(), 0xD21F7)
            .with_standby(TwoRegionPlm::reference_v2());
        let svc = InterpretationService::open(
            api,
            ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
            &dir,
        )
        .unwrap();
        let x = TwoRegionPlm::reference_instance(0);

        // Calm phase: solve, then hit — the serve records a drift witness.
        let first = svc.submit_instance(x.clone(), 0).wait().unwrap();
        assert_eq!(first.outcome, ServeOutcome::Solved);
        assert_eq!(
            svc.submit_instance(x.clone(), 0).wait().unwrap().outcome,
            ServeOutcome::CacheHit
        );
        let drift = svc.stats().drift.unwrap();
        assert_eq!(drift.detected, 0);
        assert_eq!(drift.witnesses, 1);

        // The vendor silently swaps the hidden model. The next request's
        // own membership probe convicts the cached region: the serving
        // path must invalidate it everywhere and re-solve, never serve
        // the stale parameters.
        assert!(svc.api().swap_now());
        let resolved = svc.submit_instance(x.clone(), 0).wait().unwrap();
        assert_eq!(resolved.outcome, ServeOutcome::Solved);
        assert_ne!(resolved.fingerprint, first.fingerprint);
        // Exactness against the NEW model (the oracle follows the swap).
        let truth = svc.api().local_model(x.as_slice()).decision_features(0);
        let err = resolved
            .interpretation
            .decision_features
            .l1_distance(&truth)
            .unwrap();
        assert!(
            err < 1e-7,
            "re-solve must be exact for the new model: {err}"
        );

        let drift = svc.stats().drift.unwrap();
        assert_eq!(drift.detected, 1);
        assert_eq!(drift.invalidated, 1, "one stale cache entry evicted");
        assert_eq!(drift.tombstones, 1);
        assert_eq!(drift.resolves, 1);
        assert_eq!(drift.witnesses, 1, "the fresh serve re-witnessed");
        let store = svc.store().unwrap();
        assert!(store.contains_tombstone(0, first.fingerprint));
        assert!(
            !store.contains_fingerprint(0, first.fingerprint),
            "the stale record is suppressed, not just shadowed"
        );

        // Steady state again: the new region serves from cache.
        assert_eq!(
            svc.submit_instance(x, 0).wait().unwrap().outcome,
            ServeOutcome::CacheHit
        );
        assert_eq!(svc.stats().drift.unwrap().detected, 1, "no re-detection");
        svc.close().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn audit_sweep_invalidates_every_stale_witness() {
        use openapi_api::ChaosApi;

        let dir = temp_store_dir("audit");
        let api = ChaosApi::new(TwoRegionPlm::reference(), 0xA0D17)
            .with_standby(TwoRegionPlm::reference_v2());
        let svc = InterpretationService::open(
            api,
            ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
            &dir,
        )
        .unwrap();
        // One witnessed instance per region.
        let xs = [
            TwoRegionPlm::reference_instance(0),
            TwoRegionPlm::reference_instance(1),
        ];
        for x in &xs {
            assert_eq!(
                svc.submit_instance(x.clone(), 0).wait().unwrap().outcome,
                ServeOutcome::Solved
            );
        }
        // Calm audit: every witness is still explained; nothing happens.
        assert_eq!(svc.audit_drift(), 0);
        let drift = svc.stats().drift.unwrap();
        assert_eq!((drift.detected, drift.witnesses), (0, 2));

        // After the swap, an active sweep (no client traffic needed)
        // convicts and tombstones both stale regions.
        assert!(svc.api().swap_now());
        assert_eq!(svc.audit_drift(), 2);
        let drift = svc.stats().drift.unwrap();
        assert_eq!(drift.detected, 2);
        assert_eq!(drift.invalidated, 2);
        assert_eq!(drift.tombstones, 2);
        assert_eq!(drift.witnesses, 0, "convicted witnesses are retired");
        assert_eq!(svc.store().unwrap().tombstone_count(), 2);
        assert_eq!(svc.store().unwrap().len(), 0, "no live records remain");

        // Traffic after the sweep re-solves fresh regions — the sweep
        // already cleared the stale ones, so no inline detection fires.
        for x in &xs {
            assert_eq!(
                svc.submit_instance(x.clone(), 0).wait().unwrap().outcome,
                ServeOutcome::Solved
            );
        }
        assert_eq!(svc.stats().drift.unwrap().detected, 2);
        svc.close().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tombstoned_region_refuses_resurrection_by_ingest() {
        let dir = temp_store_dir("tombstone_ingest");
        let svc = InterpretationService::open(
            CountingApi::new(two_region_model()),
            ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
            &dir,
        )
        .unwrap();
        let x = Vector(vec![0.2, 0.1]);
        let served = svc.submit_instance(x.clone(), 0).wait().unwrap();
        let core = svc.core();

        assert!(core.apply_tombstone(0, served.fingerprint));
        assert!(
            !core.apply_tombstone(0, served.fingerprint),
            "tombstoning is idempotent"
        );
        // A peer replicating the (now stale) live record must not bring
        // the region back — neither into the store nor the cache.
        assert!(!core.ingest(served.fingerprint, Arc::clone(&served.interpretation)));
        assert!(!svc
            .store()
            .unwrap()
            .contains_fingerprint(0, served.fingerprint));
        let probs = svc.api().predict(x.as_slice());
        assert!(
            svc.cache().lookup_probe(&x, probs.as_slice(), 0).is_none(),
            "the evicted region must not reappear in the cache"
        );
        svc.close().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A service that runs the region-deduplicating pass: one worker, one
    /// leader slot, the paper's Halving. Sent one request at a time,
    /// request `i` solves with `derived_rng(seed, i)`, and every solved
    /// region is admitted before the next request probes the cache.
    fn sequential<M: PredictionApi + Send + Sync + 'static>(
        api: M,
        seed: u64,
        cache: SharedCacheConfig,
    ) -> InterpretationService<M> {
        InterpretationService::new(
            api,
            ServiceConfig {
                workers: 1,
                max_leaders_per_class: 1,
                seed,
                openapi: OpenApiConfig::default(),
                cache,
            },
        )
    }

    /// Submits each instance and waits for it before sending the next.
    fn serve_in_order<M: PredictionApi + Send + Sync + 'static>(
        svc: &InterpretationService<M>,
        instances: &[Vector],
        class: usize,
    ) -> Vec<Result<Served, ServeError>> {
        instances
            .iter()
            .map(|x| svc.submit_instance(x.clone(), class).wait())
            .collect()
    }

    /// Instances alternating between the two regions of `two_region_model`.
    fn clustered_instances(n: usize) -> Vec<Vector> {
        (0..n)
            .map(|i| {
                let side = if i % 2 == 0 { 0.2 } else { 0.8 };
                Vector(vec![side, (i as f64 * 0.37).sin() * 0.4])
            })
            .collect()
    }

    /// L1 distance from a served interpretation to the region's ground
    /// truth at `x`.
    fn l1_to_truth(model: &TwoRegionPlm, x: &Vector, served: &Served) -> f64 {
        use openapi_api::GroundTruthOracle;
        let truth = model
            .local_model(x.as_slice())
            .decision_features(served.interpretation.class);
        served
            .interpretation
            .decision_features
            .l1_distance(&truth)
            .unwrap()
    }

    #[test]
    fn sequential_pass_dedupes_to_one_solve_per_region() {
        let svc = sequential(two_region_model(), 1, SharedCacheConfig::default());
        let served = serve_in_order(&svc, &clustered_instances(20), 0);
        let stats = svc.stats();
        assert_eq!(stats.requests, 20);
        assert_eq!(stats.failures, 0);
        assert_eq!(stats.misses, 2, "one solve per region");
        assert_eq!(stats.hits, 18);
        assert_eq!(stats.cached_regions, 2);
        let outcomes: Vec<ServeOutcome> =
            served.iter().map(|r| r.as_ref().unwrap().outcome).collect();
        assert_eq!(outcomes[..2], [ServeOutcome::Solved; 2]);
        assert!(outcomes[2..].iter().all(|o| *o == ServeOutcome::CacheHit));
        // A second pass over the warm cache solves nothing.
        serve_in_order(&svc, &clustered_instances(4), 0);
        assert_eq!(svc.stats().misses, 2, "warm cache serves everything");
    }

    #[test]
    fn sequential_hits_are_bit_identical_within_a_region_and_exact() {
        let model = two_region_model();
        let instances = clustered_instances(10);
        let svc = sequential(model.clone(), 2, SharedCacheConfig::default());
        let served: Vec<Served> = serve_in_order(&svc, &instances, 0)
            .into_iter()
            .map(Result::unwrap)
            .collect();
        for item in &served {
            // Same fingerprint ⇒ the very same Interpretation, bitwise.
            let rep = served
                .iter()
                .find(|o| o.fingerprint == item.fingerprint)
                .unwrap();
            assert_eq!(rep.interpretation, item.interpretation);
        }
        // And the cached answer is the region's exact ground truth.
        for (x, item) in instances.iter().zip(&served) {
            assert!(l1_to_truth(&model, x, item) < 1e-7);
        }
    }

    #[test]
    fn sequential_hits_cost_one_query_each() {
        let d = 16;
        let w = Matrix::from_fn(d, 3, |r, c| ((r * 3 + c) % 7) as f64 * 0.1 - 0.3);
        let api = CountingApi::new(LinearSoftmaxModel::new(w, Vector(vec![0.1, -0.2, 0.05])));
        let instances: Vec<Vector> = (0..50)
            .map(|i| Vector((0..d).map(|j| ((i * d + j) as f64 * 0.11).cos()).collect()))
            .collect();
        let svc = sequential(api, 3, SharedCacheConfig::default());
        let served = serve_in_order(&svc, &instances, 1);
        let stats = svc.stats();
        assert_eq!(stats.misses, 1, "single region: one solve");
        assert_eq!(stats.hits, 49);
        // Stats agree with the metered truth.
        assert_eq!(stats.queries, svc.api().queries());
        // 49 hits × 1 probe + one full Algorithm 1 run.
        let miss_cost = served[0].as_ref().unwrap().queries;
        assert!(served[1..].iter().all(|r| r.as_ref().unwrap().queries == 1));
        assert_eq!(stats.queries, 49 + miss_cost as u64);
        // ≥ 5× fewer queries than 50 per-instance runs (each ≥ miss_cost).
        assert!(stats.queries * 5 <= 50 * miss_cost as u64);
    }

    #[test]
    fn sequential_hit_is_bit_identical_to_the_cold_run() {
        // The paper's consistency property: the cached entry a hit serves
        // IS the cold run's Interpretation, bit for bit — the cold run
        // drawing request 0's stream.
        let model = two_region_model();
        let a = Vector(vec![0.1, 0.7]);
        let b = Vector(vec![0.3, -0.4]); // same region as `a`
        let cold = OpenApiInterpreter::default()
            .interpret(&model, &a, 0, &mut request_rng(5, 0))
            .unwrap();
        let svc = sequential(model, 5, SharedCacheConfig::default());
        let served = serve_in_order(&svc, &[a, b], 0);
        let (first, second) = (served[0].as_ref().unwrap(), served[1].as_ref().unwrap());
        assert_eq!(first.outcome, ServeOutcome::Solved);
        assert_eq!(second.outcome, ServeOutcome::CacheHit);
        assert_eq!(*first.interpretation, cold.interpretation);
        assert_eq!(*second.interpretation, cold.interpretation);
    }

    #[test]
    fn classes_do_not_share_cache_entries() {
        let instances = clustered_instances(6);
        let svc = sequential(two_region_model(), 7, SharedCacheConfig::default());
        let c0 = serve_in_order(&svc, &instances, 0);
        assert_eq!(svc.stats().misses, 2);
        let c1 = serve_in_order(&svc, &instances, 1);
        assert_eq!(svc.stats().misses, 4, "class 1 must not reuse class 0");
        assert_eq!(svc.stats().cached_regions, 4);
        let regions = |served: &[Result<Served, ServeError>], class: usize| {
            let served: Vec<&Served> = served.iter().map(|r| r.as_ref().unwrap()).collect();
            assert!(served.iter().all(|s| s.interpretation.class == class));
            served
                .iter()
                .map(|s| s.fingerprint)
                .collect::<std::collections::HashSet<_>>()
                .len()
        };
        assert_eq!(regions(&c0, 0), 2);
        assert_eq!(regions(&c1, 1), 2);
    }

    #[test]
    fn per_request_failures_do_not_disturb_later_requests() {
        let svc = sequential(two_region_model(), 8, SharedCacheConfig::default());
        let bad = Vector(vec![0.0; 5]); // wrong dimension
        let good = Vector(vec![0.2, 0.1]);
        let served = serve_in_order(&svc, &[bad, good], 0);
        assert!(matches!(
            served[0],
            Err(ServeError::Interpret(
                InterpretError::DimensionMismatch { .. }
            ))
        ));
        assert!(served[1].is_ok());
        assert_eq!(svc.stats().failures, 1);
    }

    #[test]
    fn fingerprint_collisions_do_not_serve_the_wrong_region() {
        // Two regions whose core parameters all quantize to the same cell at
        // integer granularity: with fingerprint_digits = 0 their fingerprints
        // collide, and the cache must keep both rather than silently serving
        // the first region's parameters for the second.
        let low = LocalLinearModel::new(
            Matrix::from_rows(&[&[0.2, 0.0], &[0.1, 0.0]]).unwrap(),
            Vector(vec![0.0, 0.0]),
        );
        let high = LocalLinearModel::new(
            Matrix::from_rows(&[&[0.0, 0.3], &[0.0, 0.1]]).unwrap(),
            Vector(vec![0.2, 0.0]),
        );
        let model = TwoRegionPlm::axis_split(0, 0.5, low, high);
        let cache = SharedCacheConfig {
            fingerprint_digits: 0,
            ..SharedCacheConfig::default()
        };
        let svc = sequential(model.clone(), 10, cache);
        let instances = [
            Vector(vec![0.1, 0.3]),  // low region
            Vector(vec![0.9, -0.2]), // high region — colliding fingerprint
            Vector(vec![0.8, 0.4]),  // high region again — must hit entry 2
        ];
        let served: Vec<Served> = serve_in_order(&svc, &instances, 0)
            .into_iter()
            .map(Result::unwrap)
            .collect();
        assert_eq!(served[0].fingerprint, served[1].fingerprint, "collision");
        assert_ne!(served[0].interpretation, served[1].interpretation);
        let stats = svc.stats();
        assert_eq!((stats.misses, stats.hits), (2, 1));
        assert_eq!(
            stats.cached_regions, 2,
            "the second region keeps its own entry"
        );
        assert_eq!(
            served[2].outcome,
            ServeOutcome::CacheHit,
            "un-indexed entry still serves hits"
        );
        assert_eq!(served[2].interpretation, served[1].interpretation);
        for (x, item) in instances.iter().zip(&served) {
            let err = l1_to_truth(&model, x, item);
            assert!(err < 1e-7, "served the wrong region: L1Dist {err}");
        }
    }
}
