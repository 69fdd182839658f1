//! Atomic service statistics: the numbers a capacity planner needs.

use openapi_metrics::{quantile_from_buckets, LatencyHistogram, LATENCY_BUCKETS};
use openapi_store::StoreStatsSnapshot;
use openapi_sync::atomic::{AtomicU64, Ordering};
use openapi_trace::expose::{Family, Metric, MetricsText};
use openapi_trace::metric;
use std::fmt;
use std::time::Duration;

pub use openapi_trace::slowlog::{STAGES, STAGE_NAMES};

/// Index of a per-stage latency slot (the [`STAGE_NAMES`] order): where a
/// request's wall time went, one histogram per stage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum StageSlot {
    /// Queue wait: `submit` to a worker picking the job up.
    Queue = 0,
    /// Black-box membership probe (cache scan + model queries).
    Probe = 1,
    /// Durable store lookup after a cache miss.
    Store = 2,
    /// A led Algorithm-1 solve.
    Solve = 3,
    /// Reply frame write on the wire (recorded by `openapi-net`).
    Reply = 4,
}

/// Lock-free counters every worker thread records into, plus the request
/// latency histogram. All counters are monotone over the service lifetime.
#[derive(Debug, Default)]
pub struct ServiceStats {
    /// Requests submitted.
    pub(crate) requests: AtomicU64,
    /// Requests served from the shared cache (1 probe query each).
    pub(crate) hits: AtomicU64,
    /// Requests served from the durable region store (1 probe query each;
    /// the region is promoted back into the cache).
    pub(crate) store_hits: AtomicU64,
    /// Requests that led an Algorithm-1 solve.
    pub(crate) misses: AtomicU64,
    /// Times a request parked behind an in-flight solve of its class.
    pub(crate) coalesced_waits: AtomicU64,
    /// Requests served from a leader's solve without solving themselves.
    pub(crate) coalesced_served: AtomicU64,
    /// Requests that completed with an error (including expired deadlines).
    pub(crate) failures: AtomicU64,
    /// Requests rejected because their deadline passed before completion.
    pub(crate) deadline_expired: AtomicU64,
    /// Prediction queries issued to the API on behalf of all requests.
    pub(crate) queries: AtomicU64,
    /// End-to-end request latency (submit → reply).
    pub(crate) latency: LatencyHistogram,
    /// Per-stage latency, one histogram per [`StageSlot`].
    pub(crate) stage: [LatencyHistogram; STAGES],
}

impl ServiceStats {
    pub(crate) fn add(counter: &AtomicU64, n: u64) {
        // ordering: Relaxed — independent monotone counters; no reader
        // infers cross-counter state from one load (see `snapshot`).
        counter.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn record_latency(&self, latency: Duration) {
        self.latency.record(latency);
    }

    /// Records one observation into a stage's latency histogram.
    pub(crate) fn record_stage(&self, slot: StageSlot, latency: Duration) {
        self.stage[slot as usize].record(latency);
    }

    /// A point-in-time copy of the counters. `evictions` and
    /// `cached_regions` describe the cache, which the service owns — it
    /// fills them in (see `InterpretationService::stats`).
    ///
    /// # Torn reads
    /// Per-counter exact only, see [`Family::load`]: a snapshot taken
    /// while requests are in flight may observe, say, a request's
    /// `requests` increment but not yet its outcome bucket. Once every
    /// submitted ticket has resolved the snapshot is exact as a whole (the
    /// ledger identity on [`StatsSnapshot`] holds) — the reply-channel
    /// `recv` the caller blocked on happens-after the worker's final `add`.
    pub(crate) fn snapshot(&self, evictions: u64, cached_regions: usize) -> StatsSnapshot {
        let mut snapshot = StatsSnapshot {
            evictions,
            cached_regions: cached_regions as u64,
            p50_latency: self.latency.p50(),
            p99_latency: self.latency.p99(),
            latency_buckets: self.latency.snapshot(),
            stage_buckets: std::array::from_fn(|i| self.stage[i].snapshot()),
            ..StatsSnapshot::default()
        };
        snapshot.load(self);
        snapshot
    }
}

/// Lock-free counters for the drift detector: what the service did when
/// the hidden model stopped explaining a region it had already solved
/// (a silent model swap behind the API). The serving path records
/// detections inline; [`crate::ServiceCore::apply_tombstone`] records
/// replicated invalidations from the fabric.
#[derive(Debug, Default)]
pub struct DriftStats {
    /// Confirmed drift detections: a previously witnessed instance whose
    /// probe no cached or stored region explains any more, while its old
    /// region was still being offered.
    pub detected: AtomicU64,
    /// Cache entries evicted by invalidations (local or replicated).
    pub invalidated: AtomicU64,
    /// Fresh tombstones written to the durable store.
    pub tombstones: AtomicU64,
    /// Drifted requests that completed a fresh solve against the live API.
    pub resolves: AtomicU64,
}

impl DriftStats {
    /// Adds `n` to one drift counter.
    pub fn add(counter: &AtomicU64, n: u64) {
        // ordering: Relaxed — independent monotone counters; no reader
        // infers cross-counter state from one load (see `snapshot`).
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// A point-in-time copy of the counters (per-counter exact, same
    /// contract as [`ServiceStats`]). The witness-book size is a gauge the
    /// service owns, so it passes the current value in.
    pub fn snapshot(&self, witnesses: u64) -> DriftStatsSnapshot {
        let mut snapshot = DriftStatsSnapshot {
            witnesses,
            ..DriftStatsSnapshot::default()
        };
        snapshot.load(self);
        snapshot
    }
}

/// A point-in-time view of [`DriftStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DriftStatsSnapshot {
    /// Confirmed drift detections.
    pub detected: u64,
    /// Cache entries evicted by invalidations.
    pub invalidated: u64,
    /// Fresh tombstones written to the durable store.
    pub tombstones: u64,
    /// Drifted requests that completed a fresh solve.
    pub resolves: u64,
    /// Served instances currently remembered as drift witnesses (gauge).
    pub witnesses: u64,
}

impl Family for DriftStatsSnapshot {
    type Atomics = DriftStats;
    const METRICS: &'static [Metric<Self>] = &[
        metric!(Counter detected, "openapi_drift_detected_total", "Confirmed drift detections (stale regions caught)."),
        metric!(Counter invalidated, "openapi_drift_invalidated_total", "Cache entries evicted by drift invalidations."),
        metric!(Counter tombstones, "openapi_drift_tombstones_total", "Fresh tombstones written to the durable store."),
        metric!(Counter resolves, "openapi_drift_resolves_total", "Drifted requests re-solved against the live API."),
        metric!(Gauge witnesses, "openapi_drift_witnesses", "Served instances remembered as drift witnesses.", owned),
    ];
}

/// Lock-free counters for the anti-entropy replication fabric. The service
/// owns one (`Arc`-shared with the `openapi-fabric` gossip loop, which
/// lives *above* this crate in the dependency graph) so a stats snapshot
/// can carry the fabric's view without a dependency cycle.
#[derive(Debug, Default)]
pub struct FabricStats {
    /// Completed anti-entropy rounds (one round = one peer exchange).
    pub rounds: AtomicU64,
    /// Digest exchanges performed against peers.
    pub digests: AtomicU64,
    /// Record frames pulled from peers.
    pub pulled_records: AtomicU64,
    /// Bytes of record frames pulled from peers.
    pub pulled_bytes: AtomicU64,
    /// Pulled records validated and ingested into the local store.
    pub ingested: AtomicU64,
    /// Pulled records the local store already held (benign gossip overlap).
    pub duplicates: AtomicU64,
    /// Pulled records rejected by validation (frame CRC, model shape, or
    /// the self-consistency spot-check).
    pub rejected: AtomicU64,
    /// Rounds lost to transport or peer errors (the loop retries later).
    pub peer_failures: AtomicU64,
    /// Self-consistency spot-checks run against pulled records.
    pub spot_checks: AtomicU64,
    /// Configured peers (gauge).
    pub peers: AtomicU64,
}

impl FabricStats {
    /// Adds `n` to one fabric counter.
    pub fn add(counter: &AtomicU64, n: u64) {
        // ordering: Relaxed — independent monotone counters; no reader
        // infers cross-counter state from one load (see `snapshot`).
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// A point-in-time copy of the counters (per-counter exact; no
    /// cross-counter atomicity, same contract as [`ServiceStats`]).
    pub fn snapshot(&self) -> FabricStatsSnapshot {
        let mut snapshot = FabricStatsSnapshot::default();
        snapshot.load(self);
        snapshot
    }
}

/// A point-in-time view of [`FabricStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FabricStatsSnapshot {
    /// Completed anti-entropy rounds.
    pub rounds: u64,
    /// Digest exchanges performed against peers.
    pub digests: u64,
    /// Record frames pulled from peers.
    pub pulled_records: u64,
    /// Bytes of record frames pulled from peers.
    pub pulled_bytes: u64,
    /// Pulled records validated and ingested into the local store.
    pub ingested: u64,
    /// Pulled records the local store already held.
    pub duplicates: u64,
    /// Pulled records rejected by validation.
    pub rejected: u64,
    /// Rounds lost to transport or peer errors.
    pub peer_failures: u64,
    /// Self-consistency spot-checks run against pulled records.
    pub spot_checks: u64,
    /// Configured peers (gauge).
    pub peers: u64,
}

impl Family for FabricStatsSnapshot {
    type Atomics = FabricStats;
    const METRICS: &'static [Metric<Self>] = &[
        metric!(Gauge peers, "openapi_fabric_peers", "Anti-entropy peers configured."),
        metric!(Counter rounds, "openapi_fabric_rounds_total", "Completed anti-entropy rounds."),
        metric!(Counter digests, "openapi_fabric_digests_total", "Digest exchanges performed against peers."),
        metric!(Counter pulled_records, "openapi_fabric_pulled_records_total", "Record frames pulled from peers."),
        metric!(Counter pulled_bytes, "openapi_fabric_pulled_bytes_total", "Bytes of record frames pulled from peers."),
        metric!(Counter ingested, "openapi_fabric_ingested_total", "Pulled records validated and ingested into the store."),
        metric!(Counter duplicates, "openapi_fabric_duplicates_total", "Pulled records the local store already held."),
        metric!(Counter rejected, "openapi_fabric_rejected_total", "Pulled records rejected by validation."),
        metric!(Counter peer_failures, "openapi_fabric_peer_failures_total", "Anti-entropy rounds lost to transport or peer errors."),
        metric!(Counter spot_checks, "openapi_fabric_spot_checks_total", "Self-consistency spot-checks run on pulled records."),
    ];
}

/// A point-in-time view of [`ServiceStats`] plus the cache gauges (and
/// the durable store's counters, when the service has one).
///
/// Once every submitted ticket has resolved and the service is still
/// running, `requests = hits + store_hits + misses + coalesced_served +
/// failures` — each request the service completed ends in exactly one of
/// those outcomes. The exception is shutdown: requests still queued when
/// the workers exit resolve as `ServeError::ServiceStopped` through their
/// dropped reply channels, outside any worker's accounting, so after a
/// shutdown race `requests` can exceed the outcome buckets' sum.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsSnapshot {
    /// Requests submitted.
    pub requests: u64,
    /// Requests served from the shared cache.
    pub hits: u64,
    /// Requests served from the durable region store (outcome bucket).
    pub store_hits: u64,
    /// Requests that led an Algorithm-1 solve.
    pub misses: u64,
    /// Times a request parked behind an in-flight solve (events, not
    /// outcomes: one request can wait more than once).
    pub coalesced_waits: u64,
    /// Requests served from a leader's solve (outcome bucket).
    pub coalesced_served: u64,
    /// Requests that completed with an error.
    pub failures: u64,
    /// Of the failures, how many were expired deadlines.
    pub deadline_expired: u64,
    /// Prediction queries issued to the API.
    pub queries: u64,
    /// Regions evicted from the bounded cache.
    pub evictions: u64,
    /// Regions currently cached.
    pub cached_regions: u64,
    /// Median request latency (`None` before any request completed).
    pub p50_latency: Option<Duration>,
    /// 99th-percentile request latency.
    pub p99_latency: Option<Duration>,
    /// Raw end-to-end latency bucket counts (the `LatencyHistogram` log₂
    /// layout), so remote consumers can reconstruct any quantile.
    pub latency_buckets: [u64; LATENCY_BUCKETS],
    /// Raw per-stage latency bucket counts, one array per [`StageSlot`]
    /// in [`STAGE_NAMES`] order.
    pub stage_buckets: [[u64; LATENCY_BUCKETS]; STAGES],
    /// The durable store's own counters (`None` when the service runs
    /// without a store).
    pub store: Option<StoreStatsSnapshot>,
    /// The anti-entropy fabric's counters (`None` when no fabric node is
    /// attached to the service).
    pub fabric: Option<FabricStatsSnapshot>,
    /// The drift detector's counters (`None` only on snapshots not taken
    /// through a service — the detector itself is always on).
    pub drift: Option<DriftStatsSnapshot>,
}

impl Family for StatsSnapshot {
    type Atomics = ServiceStats;
    const METRICS: &'static [Metric<Self>] = &[
        metric!(Counter requests, "openapi_requests_total", "Requests submitted to the interpretation service."),
        metric!(Counter hits, "openapi_cache_hits_total", "Requests served from the shared region cache."),
        metric!(Counter store_hits, "openapi_store_hits_total", "Requests served from the durable region store."),
        metric!(Counter misses, "openapi_misses_total", "Requests that led an Algorithm-1 solve."),
        metric!(Counter coalesced_waits, "openapi_coalesced_waits_total", "Times a request parked behind an in-flight solve."),
        metric!(Counter coalesced_served, "openapi_coalesced_served_total", "Requests served from a leader's solve."),
        metric!(Counter failures, "openapi_failures_total", "Requests that completed with an error."),
        metric!(Counter deadline_expired, "openapi_deadline_expired_total", "Failures caused by an expired deadline."),
        metric!(Counter queries, "openapi_queries_total", "Prediction queries issued to the model API."),
        metric!(Counter evictions, "openapi_cache_evictions_total", "Regions evicted from the bounded cache.", owned),
        metric!(Gauge cached_regions, "openapi_cache_regions", "Regions currently cached.", owned),
    ];
}

impl Default for StatsSnapshot {
    /// An all-zero snapshot: no latency observed, no store, fabric or
    /// drift view.
    fn default() -> Self {
        StatsSnapshot {
            requests: 0,
            hits: 0,
            store_hits: 0,
            misses: 0,
            coalesced_waits: 0,
            coalesced_served: 0,
            failures: 0,
            deadline_expired: 0,
            queries: 0,
            evictions: 0,
            cached_regions: 0,
            p50_latency: None,
            p99_latency: None,
            latency_buckets: [0; LATENCY_BUCKETS],
            stage_buckets: [[0; LATENCY_BUCKETS]; STAGES],
            store: None,
            fabric: None,
            drift: None,
        }
    }
}

impl fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_line(f, "service")?;
        let show = |d: Option<Duration>| match d {
            Some(d) => format!("{:.3} ms", d.as_secs_f64() * 1e3),
            None => "n/a".to_string(),
        };
        let q = |buckets: &[u64; LATENCY_BUCKETS], q: f64| quantile_from_buckets(buckets, q);
        writeln!(
            f,
            "\nlatency  p50 {}   p90 {}   p99 {}",
            show(q(&self.latency_buckets, 0.5)),
            show(q(&self.latency_buckets, 0.9)),
            show(q(&self.latency_buckets, 0.99)),
        )?;
        write!(f, "stages   ")?;
        for (i, name) in STAGE_NAMES.iter().enumerate() {
            if i > 0 {
                write!(f, "   ")?;
            }
            write!(
                f,
                "{} p50/p99 {}/{}",
                name,
                show(q(&self.stage_buckets[i], 0.5)),
                show(q(&self.stage_buckets[i], 0.99)),
            )?;
        }
        if let Some(store) = &self.store {
            write!(f, "\n{store}")?;
        }
        if let Some(fabric) = &self.fabric {
            f.write_str("\n")?;
            fabric.write_line(f, "fabric")?;
        }
        if let Some(drift) = &self.drift {
            f.write_str("\n")?;
            drift.write_line(f, "drift")?;
        }
        Ok(())
    }
}

impl StatsSnapshot {
    /// Renders this snapshot as a Prometheus text-format exposition:
    /// counters, cache gauges, the end-to-end latency histogram, the
    /// per-stage histograms (labelled `stage="queue"` … `stage="reply"`),
    /// the store, fabric and drift families when present, and the trace
    /// ring's own emit/drop counters. Served by the `Metrics` wire request
    /// and the example server's `--metrics-addr` listener; conventions and
    /// the full metric table are in `docs/OBSERVABILITY.md`.
    ///
    /// The ring counters come from this process's global ring, so call it
    /// where the snapshot was taken (the server side), not on a
    /// wire-copied snapshot.
    pub fn to_prometheus(&self) -> String {
        let mut m = MetricsText::new();
        m.family(self);
        m.histogram_log2ns(
            "openapi_request_latency_seconds",
            "End-to-end request latency (submit to reply).",
            &[("", &self.latency_buckets)],
        );
        let labels: Vec<String> = STAGE_NAMES
            .iter()
            .map(|n| format!("stage=\"{n}\""))
            .collect();
        let series: Vec<(&str, &[u64])> = labels
            .iter()
            .zip(&self.stage_buckets)
            .map(|(l, b)| (l.as_str(), b.as_slice()))
            .collect();
        m.histogram_log2ns(
            "openapi_stage_latency_seconds",
            "Per-stage request latency by serving stage.",
            &series,
        );
        if let Some(store) = &self.store {
            m.family(store);
        }
        if let Some(fabric) = &self.fabric {
            m.family(fabric);
        }
        if let Some(drift) = &self.drift {
            m.family(drift);
        }
        m.family(&openapi_trace::ring_stats());
        m.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reads_what_was_recorded() {
        let stats = ServiceStats::default();
        ServiceStats::add(&stats.requests, 10);
        ServiceStats::add(&stats.hits, 5);
        ServiceStats::add(&stats.store_hits, 1);
        ServiceStats::add(&stats.misses, 2);
        ServiceStats::add(&stats.coalesced_served, 1);
        ServiceStats::add(&stats.failures, 1);
        ServiceStats::add(&stats.queries, 42);
        stats.record_latency(Duration::from_micros(100));
        let snap = stats.snapshot(3, 7);
        assert_eq!(snap.requests, 10);
        assert_eq!(
            snap.hits + snap.store_hits + snap.misses + snap.coalesced_served + snap.failures,
            10
        );
        assert!(snap.store.is_none(), "the service fills the store view in");
        assert_eq!(snap.queries, 42);
        assert_eq!(snap.evictions, 3);
        assert_eq!(snap.cached_regions, 7);
        assert!(snap.p50_latency.is_some());
        // Display renders without panicking and mentions the key counters.
        let text = snap.to_string();
        assert!(text.contains("requests") && text.contains("p99"));
    }

    #[test]
    fn stage_histograms_flow_into_the_snapshot_and_report() {
        let stats = ServiceStats::default();
        ServiceStats::add(&stats.requests, 1);
        stats.record_stage(StageSlot::Queue, Duration::from_micros(3));
        stats.record_stage(StageSlot::Probe, Duration::from_micros(20));
        stats.record_stage(StageSlot::Reply, Duration::from_micros(5));
        stats.record_latency(Duration::from_micros(30));
        let snap = stats.snapshot(0, 0);
        assert_eq!(
            snap.stage_buckets[StageSlot::Queue as usize]
                .iter()
                .sum::<u64>(),
            1
        );
        assert_eq!(
            snap.stage_buckets[StageSlot::Solve as usize]
                .iter()
                .sum::<u64>(),
            0
        );
        // The Display breakdown names every stage.
        let text = snap.to_string();
        for name in STAGE_NAMES {
            assert!(text.contains(name), "stage {name} missing from report");
        }
        assert!(text.contains("p90"));
    }

    #[test]
    fn fabric_counters_flow_into_display_and_prometheus() {
        let fabric = FabricStats::default();
        FabricStats::add(&fabric.rounds, 3);
        FabricStats::add(&fabric.pulled_records, 5);
        FabricStats::add(&fabric.ingested, 5);
        FabricStats::add(&fabric.peers, 2);
        let stats = ServiceStats::default();
        let mut snap = stats.snapshot(0, 0);
        assert!(
            snap.fabric.is_none(),
            "the service fills the fabric view in"
        );
        snap.fabric = Some(fabric.snapshot());
        let text = snap.to_string();
        assert!(text.contains("fabric") && text.contains("rounds"));
        let doc = snap.to_prometheus();
        assert!(doc.contains("openapi_fabric_rounds_total 3\n"));
        assert!(doc.contains("openapi_fabric_ingested_total 5\n"));
        assert!(doc.contains("openapi_fabric_peers 2\n"));
        // Without a fabric the series are absent entirely.
        let bare = stats.snapshot(0, 0).to_prometheus();
        assert!(!bare.contains("openapi_fabric_"));
    }

    #[test]
    fn drift_counters_flow_into_display_and_prometheus() {
        let drift = DriftStats::default();
        DriftStats::add(&drift.detected, 2);
        DriftStats::add(&drift.invalidated, 3);
        DriftStats::add(&drift.tombstones, 2);
        DriftStats::add(&drift.resolves, 2);
        let stats = ServiceStats::default();
        let mut snap = stats.snapshot(0, 0);
        assert!(snap.drift.is_none(), "the service fills the drift view in");
        snap.drift = Some(drift.snapshot(11));
        let text = snap.to_string();
        assert!(text.contains("drift") && text.contains("tombstones"));
        let doc = snap.to_prometheus();
        assert!(doc.contains("openapi_drift_detected_total 2\n"));
        assert!(doc.contains("openapi_drift_tombstones_total 2\n"));
        assert!(doc.contains("openapi_drift_witnesses 11\n"));
        // Without the drift view the series are absent entirely.
        let bare = stats.snapshot(0, 0).to_prometheus();
        assert!(!bare.contains("openapi_drift_"));
    }

    /// Stores a distinct value into every atomic-backed counter of `S`
    /// through its declaration, loads a snapshot, and checks each value
    /// landed in its own field.
    fn check_load<S: Family + Default>(atomics: &S::Atomics) {
        for (i, m) in S::METRICS.iter().enumerate() {
            if let Some(cell) = m.atomic {
                // ordering: Relaxed — single-threaded test setup.
                cell(atomics).store(100 + i as u64, Ordering::Relaxed);
            }
        }
        let mut snapshot = S::default();
        snapshot.load(atomics);
        for (i, m) in S::METRICS.iter().enumerate() {
            let want = if m.atomic.is_some() {
                100 + i as u64
            } else {
                0
            };
            assert_eq!((m.get)(&snapshot), want, "{}", m.name);
        }
    }

    #[test]
    fn every_atomic_backed_counter_loads_into_its_own_field() {
        check_load::<StatsSnapshot>(&ServiceStats::default());
        check_load::<FabricStatsSnapshot>(&FabricStats::default());
        check_load::<DriftStatsSnapshot>(&DriftStats::default());
    }

    /// docs/OBSERVABILITY.md's metric table lists exactly the declared
    /// counters and gauges, in exposition order, with kind and help text.
    #[test]
    fn the_documented_metric_table_matches_the_declarations() {
        fn rows<S: Family>() -> impl Iterator<Item = String> {
            S::METRICS
                .iter()
                .map(|m| format!("| `{}` | {} | {} |", m.name, m.kind.as_str(), m.help))
        }
        let declared: Vec<String> = rows::<StatsSnapshot>()
            .chain(rows::<StoreStatsSnapshot>())
            .chain(rows::<FabricStatsSnapshot>())
            .chain(rows::<DriftStatsSnapshot>())
            .chain(rows::<openapi_trace::RingStats>())
            .collect();
        let documented: Vec<&str> = include_str!("../../../docs/OBSERVABILITY.md")
            .lines()
            .filter(|l| l.contains(" | counter | ") || l.contains(" | gauge | "))
            .collect();
        assert_eq!(documented, declared);
    }

    #[test]
    fn the_prometheus_exposition_exposes_counters_and_stage_histograms() {
        let stats = ServiceStats::default();
        ServiceStats::add(&stats.requests, 4);
        ServiceStats::add(&stats.queries, 9);
        stats.record_stage(StageSlot::Probe, Duration::from_micros(20));
        stats.record_latency(Duration::from_micros(25));
        let doc = stats.snapshot(0, 2).to_prometheus();
        assert!(doc.contains("# TYPE openapi_requests_total counter\n"));
        assert!(doc.contains("openapi_requests_total 4\n"));
        assert!(doc.contains("openapi_queries_total 9\n"));
        assert!(doc.contains("openapi_cache_regions 2\n"));
        assert!(doc.contains("# TYPE openapi_stage_latency_seconds histogram\n"));
        for name in STAGE_NAMES {
            assert!(doc.contains(&format!("stage=\"{name}\"")));
        }
        assert!(doc.contains("openapi_request_latency_seconds_bucket{le=\"+Inf\"} 1\n"));
        // Every non-comment line is `name{labels} value` — parseable.
        for line in doc.lines().filter(|l| !l.starts_with('#')) {
            let (name, value) = line.rsplit_once(' ').expect("sample line");
            assert!(!name.is_empty());
            assert!(value.parse::<f64>().is_ok(), "unparseable value: {line}");
        }
    }
}
