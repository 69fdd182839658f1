//! Atomic store statistics: recovery, append, flush, and lookup counters.

use openapi_sync::atomic::{AtomicU64, Ordering};
use openapi_trace::expose::{Family, Metric};
use openapi_trace::metric;
use std::fmt;

/// Lock-free counters the store's callers and its flusher thread record
/// into. Recovery counters are written once at open; the rest are monotone
/// over the store's lifetime.
#[derive(Debug, Default)]
pub struct StoreStats {
    /// New regions accepted (queued for the WAL).
    pub(crate) appends: AtomicU64,
    /// Appends skipped because the region was already durable.
    pub(crate) duplicate_appends: AtomicU64,
    /// Records actually written to the WAL by the flusher.
    pub(crate) flushed_records: AtomicU64,
    /// `fsync` calls issued by the flusher (≤ `flushed_records`: batched).
    pub(crate) fsyncs: AtomicU64,
    /// Membership lookups served.
    pub(crate) lookups: AtomicU64,
    /// Lookups that found their region.
    pub(crate) hits: AtomicU64,
    /// Compaction passes completed.
    pub(crate) compactions: AtomicU64,
    /// Records replayed from the WAL at open.
    pub(crate) recovered_wal_records: AtomicU64,
    /// Records replayed from sealed segments at open.
    pub(crate) recovered_segment_records: AtomicU64,
    /// Torn/corrupt tail bytes clipped during recovery.
    pub(crate) recovered_discarded_bytes: AtomicU64,
}

impl StoreStats {
    pub(crate) fn add(counter: &AtomicU64, n: u64) {
        // ordering: Relaxed — independent monotone counters; no reader
        // infers cross-counter state from one load (see `snapshot`).
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// A point-in-time copy of the counters; the gauges (`regions`,
    /// `wal_bytes`, `segments`) describe state the store owns and are
    /// filled in by [`crate::RegionStore::stats`].
    ///
    /// # Torn reads
    /// Per-counter exact only (see [`Family::load`]): a snapshot racing
    /// the flusher may see an append without its flush. After
    /// `flush`/`close` returns, the barrier ack's channel edge makes the
    /// whole snapshot exact.
    pub(crate) fn snapshot(
        &self,
        regions: u64,
        wal_bytes: u64,
        segments: u64,
    ) -> StoreStatsSnapshot {
        let mut snapshot = StoreStatsSnapshot {
            regions,
            wal_bytes,
            segments,
            ..StoreStatsSnapshot::default()
        };
        snapshot.load(self);
        snapshot
    }
}

/// A point-in-time view of [`StoreStats`] plus the store gauges.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreStatsSnapshot {
    /// Distinct regions durable (or queued durable) right now.
    pub regions: u64,
    /// Current WAL length in bytes (header included).
    pub wal_bytes: u64,
    /// Sealed segment files on disk.
    pub segments: u64,
    /// New regions accepted.
    pub appends: u64,
    /// Appends skipped as already-durable duplicates.
    pub duplicate_appends: u64,
    /// Records written to the WAL.
    pub flushed_records: u64,
    /// Batched `fsync` calls issued.
    pub fsyncs: u64,
    /// Membership lookups served.
    pub lookups: u64,
    /// Lookups that found their region.
    pub hits: u64,
    /// Compaction passes completed.
    pub compactions: u64,
    /// Records replayed from the WAL at open.
    pub recovered_wal_records: u64,
    /// Records replayed from sealed segments at open.
    pub recovered_segment_records: u64,
    /// Torn/corrupt tail bytes clipped during recovery.
    pub recovered_discarded_bytes: u64,
}

impl Family for StoreStatsSnapshot {
    type Atomics = StoreStats;
    const METRICS: &'static [Metric<Self>] = &[
        metric!(Gauge regions, "openapi_store_regions", "Distinct regions durable (or queued durable).", owned),
        metric!(Gauge wal_bytes, "openapi_store_wal_bytes", "Current WAL length in bytes.", owned),
        metric!(Gauge segments, "openapi_store_segments", "Sealed segment files on disk.", owned),
        metric!(Counter appends, "openapi_store_appends_total", "New regions accepted by the store."),
        metric!(Counter duplicate_appends, "openapi_store_duplicate_appends_total", "Appends skipped as already-durable duplicates."),
        metric!(Counter flushed_records, "openapi_store_flushed_records_total", "Records written to the WAL by the flusher."),
        metric!(Counter fsyncs, "openapi_store_fsyncs_total", "Batched fsync calls issued by the flusher."),
        metric!(Counter lookups, "openapi_store_lookups_total", "Membership lookups served by the store."),
        metric!(Counter hits, "openapi_store_lookup_hits_total", "Store lookups that found their region."),
        metric!(Counter compactions, "openapi_store_compactions_total", "Compaction passes completed."),
        metric!(Counter recovered_wal_records, "openapi_store_recovered_wal_records_total", "Records replayed from the WAL at open."),
        metric!(Counter recovered_segment_records, "openapi_store_recovered_segment_records_total", "Records replayed from sealed segments at open."),
        metric!(Counter recovered_discarded_bytes, "openapi_store_recovered_discarded_bytes_total", "Torn or corrupt tail bytes clipped during recovery."),
    ];
}

impl fmt::Display for StoreStatsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_line(f, "store")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reads_what_was_recorded() {
        let stats = StoreStats::default();
        StoreStats::add(&stats.appends, 5);
        StoreStats::add(&stats.duplicate_appends, 2);
        StoreStats::add(&stats.flushed_records, 5);
        StoreStats::add(&stats.fsyncs, 1);
        StoreStats::add(&stats.lookups, 10);
        StoreStats::add(&stats.hits, 7);
        let snap = stats.snapshot(5, 1234, 1);
        assert_eq!(snap.appends, 5);
        assert_eq!(snap.duplicate_appends, 2);
        assert_eq!(snap.fsyncs, 1);
        assert_eq!(snap.hits, 7);
        assert_eq!(snap.regions, 5);
        assert_eq!(snap.wal_bytes, 1234);
        let text = snap.to_string();
        assert!(text.contains("regions") && text.contains("fsyncs"));
    }
}
