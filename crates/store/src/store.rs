//! [`RegionStore`]: the durable region tier (see the crate docs for the
//! on-disk layout and durability protocol).

use crate::error::StoreError;
use crate::record::{self, RegionTombstone, StoreRecord};
use crate::replay::Recovery;
use crate::segment::{self, sync_dir};
use crate::stats::{StoreStats, StoreStatsSnapshot};
use crate::sticky::StickyError;
use crate::sync::{StoreDigest, SyncDelta};
use crate::wal::Wal;
use openapi_core::cache::{CachedRegion, RegionCache, RegionCacheConfig};
use openapi_core::decision::{Interpretation, RegionFingerprint};
use openapi_linalg::Vector;
use openapi_sync::atomic::{AtomicU64, Ordering};
use openapi_sync::{Mutex, RwLock};
use openapi_trace::{RequestSpan, Stage};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

/// Store tuning knobs.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Relative tolerance of the membership test (and of the merge test
    /// that dedupes re-solves of an already-stored region). Keep aligned
    /// with the cache tier's `membership_rtol`.
    pub membership_rtol: f64,
    /// Maximum records the flusher writes per `fsync` batch (clamped ≥ 1).
    /// Larger batches amortize the sync under bursty inserts at the cost
    /// of a longer unsynced window.
    pub flush_batch: usize,
    /// Auto-compact at open when the recovered WAL is at least this many
    /// bytes (`u64::MAX` disables; compaction is always available
    /// explicitly via [`RegionStore::compact`]).
    pub compact_wal_bytes: u64,
    /// Auto-compact from the flusher thread once the *live* WAL reaches
    /// this many bytes (after the batch that crossed the threshold is
    /// written and any waiting durability barriers are acked). On by
    /// default; `u64::MAX` disables. A failed background pass is not a
    /// durability event — every record is still in the WAL — so it leaves
    /// [`RegionStore::flush`] healthy and is simply retried at the next
    /// flush batch.
    pub auto_compact_bytes: u64,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            membership_rtol: openapi_core::cache::RegionCacheConfig::default().membership_rtol,
            flush_batch: 64,
            compact_wal_bytes: 8 << 20,
            auto_compact_bytes: 32 << 20,
        }
    }
}

/// The deduplicated in-memory image of everything durable: recovery fills
/// it, appends extend it, lookups scan it. The live regions sit in an
/// unbounded [`RegionCache`], so the store's lookups and merges run on the
/// workspace's one membership scan and merge rule: a fingerprint collision
/// between genuinely different regions keeps both (the store can never
/// conflate two regions), a re-solve of either merges, and the scan visits
/// regions in admission order.
///
/// Tombstones win, permanently: once a `(class, fingerprint)` key is
/// tombstoned, every live region under it is evicted (and its sync key
/// dropped from the gossip surface) and no later admit under the same key
/// succeeds — which makes tombstone-vs-record merge order-independent, so
/// anti-entropy set-union stays conflict-free. A re-solve of a genuinely
/// changed region lands under a fresh fingerprint, so suppression never
/// blocks new facts.
#[derive(Debug)]
struct Index {
    /// The live regions, in admission order.
    regions: RegionCache,
    /// Permanently suppressed `(class, fingerprint)` keys (ordered, so
    /// compaction seals them deterministically).
    tombstoned: BTreeSet<(usize, u64)>,
    /// `sync key → record`, live and tombstone alike. The sync key is the
    /// frame's CRC-64/XZ (bytes `[4..12]` of the encoded frame): it
    /// addresses the exact frame bytes, so the anti-entropy tier can
    /// summarize and exchange records without conflating fingerprint
    /// collisions.
    by_sync_key: HashMap<u64, StoreRecord>,
}

impl Index {
    fn new(membership_rtol: f64) -> Self {
        Index {
            regions: RegionCache::new(RegionCacheConfig {
                membership_rtol,
                ..RegionCacheConfig::default()
            }),
            tombstoned: BTreeSet::new(),
            by_sync_key: HashMap::new(),
        }
    }

    /// Admits a record into the index without filing it under a sync key
    /// ([`Index::keep`] does that); returns it when it is new. `None`
    /// means an agreeing record was already present, or the key is
    /// tombstoned (idempotent either way).
    ///
    /// A tombstone evicts every live region under its `(class,
    /// fingerprint)` key, the canonical one and any collided duplicates,
    /// and removes their sync keys from the gossip surface, so two stores
    /// that both tombstone a key converge to equal digests. A live record
    /// under a tombstoned key is refused: the key is a dead fact forever.
    /// (The caller still owns a freshly solved interpretation and serves
    /// it to its own requester; it just never re-enters the store.)
    fn admit(&mut self, record: StoreRecord) -> Option<StoreRecord> {
        match record {
            StoreRecord::Live(r) => {
                if self
                    .tombstoned
                    .contains(&(r.interpretation.class, r.fingerprint.0))
                {
                    return None;
                }
                let (region, fresh) = self.regions.insert(r.fingerprint, r.interpretation);
                fresh.then_some(StoreRecord::Live(region))
            }
            StoreRecord::Tombstone(t) => {
                let key = (t.class, t.fingerprint.0);
                if !self.tombstoned.insert(key) {
                    return None;
                }
                self.regions.evict_fingerprint(t.class, t.fingerprint);
                self.by_sync_key.retain(|_, r| r.key() != key);
                Some(record)
            }
        }
    }

    /// Admits a record that is not yet durable. `Some(frame)` means it was
    /// new: the returned canonical frame is what must be persisted, and its
    /// CRC is the sync key the record is filed under.
    fn insert(&mut self, record: StoreRecord) -> Option<Vec<u8>> {
        let fresh = self.admit(record)?;
        let frame = fresh.encode();
        self.keep(record::sync_key_of(&frame), fresh);
        Some(frame)
    }

    /// Replays a recovered log: admits its records in log order, each new
    /// one under the sync key its CRC-verified frame carries. Nothing is
    /// re-encoded. The key is the one [`Index::insert`] would compute,
    /// because a frame that decodes is its record's canonical encoding
    /// (the codec refuses trailing payload bytes).
    fn replay(&mut self, recovered: Recovery) {
        for (record, key) in recovered.records.into_iter().zip(recovered.keys) {
            if let Some(fresh) = self.admit(record) {
                self.keep(key, fresh);
            }
        }
    }

    /// Files an admitted record under its sync key: the CRC-64 of its
    /// canonical frame, computed by [`Index::insert`] or carried by the
    /// verified frame [`Index::replay`] read.
    fn keep(&mut self, key: u64, record: StoreRecord) {
        // A CRC collision between different records would leave the later
        // one unsummarized (it still serves locally; it just never gossips)
        // — `or_insert` keeps the digest an exact image of `by_sync_key`.
        self.by_sync_key.entry(key).or_insert(record);
    }

    /// Everything durable, for compaction: live regions in admission
    /// order, then tombstones. (Tombstone-wins is order-independent, so
    /// any deterministic order is a faithful fold.)
    fn all_records(&self) -> Vec<StoreRecord> {
        let tombstones = self.tombstoned.iter().map(|&(class, fp)| {
            StoreRecord::Tombstone(RegionTombstone {
                fingerprint: RegionFingerprint(fp),
                class,
            })
        });
        self.regions
            .iter()
            .map(StoreRecord::Live)
            .chain(tombstones)
            .collect()
    }
}

/// Work for the flusher thread. Channel order is durability order.
enum FlushMsg {
    /// One pre-encoded record frame to append.
    Append(Vec<u8>),
    /// Flush + fsync everything received so far, then ack.
    Barrier(mpsc::Sender<Result<(), String>>),
    /// Drain, final fsync, exit.
    Shutdown,
}

/// State shared between the store handle and its flusher thread.
#[derive(Debug)]
struct Shared {
    dir: PathBuf,
    config: StoreConfig,
    wal: Mutex<Wal>,
    index: RwLock<Index>,
    stats: StoreStats,
    /// Sealed segments currently on disk (gauge).
    segments: AtomicU64,
    /// Current WAL length in bytes (gauge), mirrored out of [`Wal::len`]
    /// after every append/reset so [`RegionStore::stats`] never has to
    /// queue behind the flusher's fsync or a running compaction.
    wal_bytes: AtomicU64,
    /// First WAL write/sync failure, sticky: once set, the flusher stops
    /// writing (records stay served from memory) and every later barrier —
    /// including the one inside [`RegionStore::close`] — reports it, so an
    /// accepted-but-lost append can never be silently acknowledged.
    wal_error: StickyError,
}

/// The durable log-structured region store (see the crate docs).
///
/// Thread-safe: lookups take a read lock, appends a short write lock plus
/// a channel send; all file I/O happens on the flusher thread (except
/// compaction, which the calling thread runs under the WAL lock).
/// Dropping the store drains and joins the flusher — every accepted
/// append is written and fsynced before the destructor returns, unless
/// the WAL has failed, in which case writing stopped at the first error.
/// Use [`RegionStore::close`] to observe that error: it is sticky, so it
/// reaches the final barrier even when the failing batch carried none.
#[derive(Debug)]
pub struct RegionStore {
    shared: Arc<Shared>,
    tx: mpsc::Sender<FlushMsg>,
    flusher: Option<JoinHandle<()>>,
}

impl RegionStore {
    /// Opens (or creates) a store under `dir`: replays sealed segments in
    /// sequence order, then the WAL's longest valid prefix (truncating any
    /// torn tail), deduplicates into the in-memory index, and starts the
    /// flusher. Auto-compacts when the recovered WAL exceeds
    /// [`StoreConfig::compact_wal_bytes`].
    ///
    /// # Errors
    /// [`StoreError`] on filesystem failures or foreign files in the
    /// directory (wrong magic — never clobbered).
    pub fn open(dir: impl AsRef<Path>, config: StoreConfig) -> Result<Self, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        let mut config = config;
        config.flush_batch = config.flush_batch.max(1);
        std::fs::create_dir_all(&dir)?;

        let stats = StoreStats::default();
        let mut index = Index::new(config.membership_rtol);
        let segments = segment::list_segments(&dir)?;
        for (_, path) in &segments {
            let recovered = segment::read_segment(path)?;
            StoreStats::add(
                &stats.recovered_segment_records,
                recovered.records.len() as u64,
            );
            StoreStats::add(&stats.recovered_discarded_bytes, recovered.discarded_bytes);
            index.replay(recovered);
        }
        let (wal, recovered) = Wal::open(&dir.join("wal.log"))?;
        StoreStats::add(&stats.recovered_wal_records, recovered.records.len() as u64);
        StoreStats::add(&stats.recovered_discarded_bytes, recovered.discarded_bytes);
        index.replay(recovered);

        let wal_bytes = wal.len();
        let compact_now = wal_bytes >= config.compact_wal_bytes;
        let shared = Arc::new(Shared {
            dir,
            config,
            wal: Mutex::new(wal),
            index: RwLock::new(index),
            stats,
            segments: AtomicU64::new(segments.len() as u64),
            wal_bytes: AtomicU64::new(wal_bytes),
            wal_error: StickyError::new(),
        });
        let (tx, rx) = mpsc::channel();
        let flusher = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("openapi-store-flusher".into())
                .spawn(move || flusher_loop(&shared, &rx))?
        };
        let store = RegionStore {
            shared,
            tx,
            flusher: Some(flusher),
        };
        if compact_now {
            store.compact()?;
        }
        Ok(store)
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.shared.dir
    }

    /// Borrow the (clamped) configuration.
    pub fn config(&self) -> &StoreConfig {
        &self.shared.config
    }

    /// Distinct live regions the store holds (durable or queued durable;
    /// tombstone-suppressed regions are not counted).
    pub fn len(&self) -> usize {
        self.shared.index.read().regions.len()
    }

    /// Whether the store holds no live regions.
    pub fn is_empty(&self) -> bool {
        self.shared.index.read().regions.is_empty()
    }

    /// Distinct tombstoned `(class, fingerprint)` keys the store holds.
    pub fn tombstone_count(&self) -> usize {
        self.shared.index.read().tombstoned.len()
    }

    /// A point-in-time statistics snapshot (counters + gauges).
    pub fn stats(&self) -> StoreStatsSnapshot {
        self.shared.stats.snapshot(
            self.len() as u64,
            // ordering: Relaxed — gauges mirrored out of mutex-protected
            // state so a snapshot never queues behind an fsync; each load
            // is individually exact, cross-gauge tearing is accepted.
            // ordering: (same for both loads below)
            self.shared.wal_bytes.load(Ordering::Relaxed),
            self.shared.segments.load(Ordering::Relaxed),
        )
    }

    /// Black-box membership lookup, answered by
    /// [`RegionCache::lookup_probe`]'s kernel-packed scan: the first
    /// stored region of `class`, in admission order, whose core parameters
    /// explain the prediction `probs` observed at `x` (Theorem 2). The
    /// returned interpretation is an `Arc` share of the stored record — no
    /// payload copy.
    pub fn lookup_probe(&self, x: &Vector, probs: &[f64], class: usize) -> Option<CachedRegion> {
        StoreStats::add(&self.shared.stats.lookups, 1);
        let hit = self
            .shared
            .index
            .read()
            .regions
            .lookup_probe(x, probs, class);
        if hit.is_some() {
            StoreStats::add(&self.shared.stats.hits, 1);
        }
        hit
    }

    /// Accepts a freshly solved region: deduplicates against the index
    /// (an already-stored region costs one map probe and no I/O), then
    /// queues the WAL append for the flusher. Returns whether the region
    /// was new.
    ///
    /// Appends are asynchronous: the record is immediately visible to
    /// [`RegionStore::lookup_probe`] but becomes durable at the flusher's
    /// next batched fsync. Use [`RegionStore::flush`] for a durability
    /// barrier.
    pub fn append(
        &self,
        fingerprint: RegionFingerprint,
        interpretation: Arc<Interpretation>,
    ) -> bool {
        let admitted = self
            .shared
            .index
            .write()
            .insert(StoreRecord::Live(CachedRegion {
                fingerprint,
                interpretation,
            }));
        let Some(frame) = admitted else {
            StoreStats::add(&self.shared.stats.duplicate_appends, 1);
            return false;
        };
        StoreStats::add(&self.shared.stats.appends, 1);
        // Attributes to the solving request's span when called from a
        // worker (the serving tier holds the span in its thread-local);
        // payload = encoded frame bytes queued for the flusher.
        openapi_trace::emit(Stage::WalAppend, frame.len() as u64);
        // A send failure means the flusher exited (shutdown race). Either
        // way the record stays served from memory; if the WAL ever failed,
        // the sticky `wal_error` surfaces through flush()/close().
        let _ = self.tx.send(FlushMsg::Append(frame));
        true
    }

    /// Tombstones a `(class, fingerprint)` key: every stored record under
    /// it stops serving immediately and for good — through compaction,
    /// restart, and anti-entropy exchange (the tombstone frame gossips
    /// like any record and wins the set-union). Returns whether the
    /// tombstone was new; re-tombstoning is an idempotent no-op.
    ///
    /// Like [`RegionStore::append`], durability is asynchronous: the
    /// suppression is immediate in memory, the WAL frame lands at the
    /// flusher's next batch ([`RegionStore::flush`] is the barrier).
    pub fn tombstone(&self, class: usize, fingerprint: RegionFingerprint) -> bool {
        let t = RegionTombstone { fingerprint, class };
        let admitted = self.shared.index.write().insert(StoreRecord::Tombstone(t));
        let Some(frame) = admitted else {
            return false;
        };
        StoreStats::add(&self.shared.stats.appends, 1);
        // Same accounting as a record append: the tombstone is one more
        // framed WAL write attributed to the invalidating request's span.
        openapi_trace::emit(Stage::WalAppend, frame.len() as u64);
        let _ = self.tx.send(FlushMsg::Append(frame));
        true
    }

    /// Whether `(class, fingerprint)` is tombstoned (permanently
    /// suppressed).
    pub fn contains_tombstone(&self, class: usize, fingerprint: RegionFingerprint) -> bool {
        self.shared
            .index
            .read()
            .tombstoned
            .contains(&(class, fingerprint.0))
    }

    /// A bucketed XOR/count digest of the store's record set, keyed by
    /// each record frame's CRC-64/XZ. Two stores whose digests are equal
    /// hold the same record set (w.h.p. — and membership re-verification
    /// on the serving path means a false match can only delay a gossip
    /// round, never corrupt an answer).
    pub fn digest(&self) -> StoreDigest {
        let index = self.shared.index.read();
        let mut digest = StoreDigest::default();
        for &key in index.by_sync_key.keys() {
            digest.add(key);
        }
        digest
    }

    /// Whether the store already holds the record whose frame CRC is
    /// `sync_key` (i.e. that exact record byte string).
    pub fn contains_record(&self, sync_key: u64) -> bool {
        self.shared.index.read().by_sync_key.contains_key(&sync_key)
    }

    /// Whether the store holds a canonical record under
    /// `(class, fingerprint)`. A collided (un-indexed) duplicate does not
    /// count — this answers "is the fingerprint key taken", mirroring the
    /// cache's keying.
    pub fn contains_fingerprint(&self, class: usize, fingerprint: RegionFingerprint) -> bool {
        self.shared
            .index
            .read()
            .regions
            .contains(class, fingerprint)
    }

    /// Every record's sync key, sorted (a stable iteration surface for
    /// tests and debugging; the digest is the compact form).
    pub fn record_keys(&self) -> Vec<u64> {
        let mut keys: Vec<u64> = self
            .shared
            .index
            .read()
            .by_sync_key
            .keys()
            .copied()
            .collect();
        keys.sort_unstable();
        keys
    }

    /// The sync keys that hash into any of `buckets`, sorted — what a
    /// puller sends alongside a pull so the peer ships only records the
    /// puller is actually missing.
    pub fn keys_in_buckets(&self, buckets: &[u32]) -> Vec<u64> {
        let wanted: HashSet<u32> = buckets.iter().copied().collect();
        let mut keys: Vec<u64> = self
            .shared
            .index
            .read()
            .by_sync_key
            .keys()
            .copied()
            .filter(|&k| wanted.contains(&(StoreDigest::bucket_of(k) as u32)))
            .collect();
        keys.sort_unstable();
        keys
    }

    /// The delta a peer needs: the encoded frames of every record —
    /// live or tombstone — in `buckets` whose sync key is not in `have`,
    /// concatenated, capped at roughly `max_bytes` (at least one record
    /// always ships, even a lone tombstone, so a pull loop makes
    /// progress). Frames are re-encoded from the index — the codec is
    /// deterministic, so they are byte-identical to this store's own
    /// on-disk records.
    pub fn sync_delta(&self, buckets: &[u32], have: &[u64], max_bytes: usize) -> SyncDelta {
        let wanted: HashSet<u32> = buckets.iter().copied().collect();
        let have: HashSet<u64> = have.iter().copied().collect();
        let index = self.shared.index.read();
        let mut missing: Vec<(&u64, &StoreRecord)> = index
            .by_sync_key
            .iter()
            .filter(|&(&k, _)| {
                wanted.contains(&(StoreDigest::bucket_of(k) as u32)) && !have.contains(&k)
            })
            .collect();
        // Deterministic delta order regardless of hash-map iteration.
        missing.sort_unstable_by_key(|&(&k, _)| k);
        let mut delta = SyncDelta::default();
        for (_, record) in missing {
            let frame = record.encode();
            if delta.records > 0 && delta.frames.len() + frame.len() > max_bytes {
                delta.truncated = true;
                break;
            }
            delta.frames.extend_from_slice(&frame);
            delta.records += 1;
        }
        delta
    }

    /// Durability barrier: blocks until every append accepted before this
    /// call is written to the WAL and fsynced.
    ///
    /// # Errors
    /// [`StoreError::Io`] when the flusher reports a write/sync failure —
    /// the first failure is sticky, so once any accepted append has been
    /// dropped, every later barrier (including the one in
    /// [`RegionStore::close`]) fails rather than acking lost data.
    pub fn flush(&self) -> Result<(), StoreError> {
        let (ack_tx, ack_rx) = mpsc::channel();
        if self.tx.send(FlushMsg::Barrier(ack_tx)).is_err() {
            return Err(std::io::Error::other("store flusher is gone").into());
        }
        match ack_rx.recv() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(msg)) => Err(std::io::Error::other(msg).into()),
            Err(_) => Err(std::io::Error::other("store flusher died mid-flush").into()),
        }
    }

    /// Folds everything the store holds into one fresh sealed segment,
    /// then empties the WAL and removes the older segments. Crash-safe at
    /// every step: the new segment is tmp-written, fsynced, and renamed
    /// into place *before* any old data is dropped, so every record is in
    /// at least one durable file at every instant (worst case it is in
    /// two, and recovery's dedup folds the copies). Returns the records
    /// sealed.
    ///
    /// # Errors
    /// [`StoreError::Io`] from any filesystem step.
    pub fn compact(&self) -> Result<usize, StoreError> {
        self.shared.compact()
    }

    /// Graceful shutdown: durability barrier, then drains and joins the
    /// flusher. The `Drop` impl does the same minus error reporting, so
    /// `close` is for callers that must *observe* flush failures.
    ///
    /// # Errors
    /// [`StoreError::Io`] when the final flush fails.
    pub fn close(mut self) -> Result<(), StoreError> {
        let result = self.flush();
        let _ = self.tx.send(FlushMsg::Shutdown);
        if let Some(handle) = self.flusher.take() {
            let _ = handle.join();
        }
        result
    }
}

impl Drop for RegionStore {
    fn drop(&mut self) {
        let _ = self.tx.send(FlushMsg::Shutdown);
        if let Some(handle) = self.flusher.take() {
            let _ = handle.join();
        }
    }
}

impl Shared {
    /// The compaction pass behind [`RegionStore::compact`] — on `Shared`
    /// so the flusher thread can run it too (see
    /// [`StoreConfig::auto_compact_bytes`]).
    fn compact(&self) -> Result<usize, StoreError> {
        // Hold the WAL lock across the whole pass: the flusher cannot
        // interleave a write between the index snapshot and the WAL reset,
        // so a record admitted concurrently is either in our snapshot
        // (sealed) or its WAL write lands after the reset (kept) — never
        // silently dropped.
        let mut wal = self.wal.lock();
        // Live records plus tombstones: a compacted store genuinely
        // forgets suppressed regions (their frames are dropped) while the
        // "forget" facts themselves stay durable.
        let records: Vec<StoreRecord> = self.index.read().all_records();
        let old_segments = segment::list_segments(&self.dir)?;
        let id = old_segments.last().map_or(1, |(last, _)| last + 1);
        segment::write_segment(&self.dir, id, &records)?;
        wal.reset()?;
        // ordering: Relaxed — stats gauges (see `RegionStore::stats`); the
        // WAL mutex held across the pass orders the underlying state.
        self.wal_bytes.store(wal.len(), Ordering::Relaxed);
        for (_, path) in &old_segments {
            std::fs::remove_file(path)?;
        }
        sync_dir(&self.dir);
        // ordering: Relaxed — gauge, as above.
        self.segments.store(1, Ordering::Relaxed);
        StoreStats::add(&self.stats.compactions, 1);
        Ok(records.len())
    }
}

/// The flusher: drains the channel in batches, appends to the WAL, and
/// fsyncs once per batch. Channel FIFO order means a barrier acks only
/// after every append accepted before it is durable.
fn flusher_loop(shared: &Shared, rx: &mpsc::Receiver<FlushMsg>) {
    let mut stop = false;
    while !stop {
        let Ok(first) = rx.recv() else { break };
        let mut pending: Vec<Vec<u8>> = Vec::new();
        let mut barriers: Vec<mpsc::Sender<Result<(), String>>> = Vec::new();
        match first {
            FlushMsg::Append(frame) => pending.push(frame),
            FlushMsg::Barrier(ack) => barriers.push(ack),
            FlushMsg::Shutdown => stop = true,
        }
        while pending.len() < shared.config.flush_batch && !stop {
            match rx.try_recv() {
                Ok(FlushMsg::Append(frame)) => pending.push(frame),
                Ok(FlushMsg::Barrier(ack)) => barriers.push(ack),
                Ok(FlushMsg::Shutdown) => stop = true,
                Err(_) => break,
            }
        }
        if !pending.is_empty() || !barriers.is_empty() {
            // A failed WAL is failed for good: stop writing (Wal::append
            // already rolled the file back to its last good boundary, but
            // a device that errored once gives no durability promises) and
            // report the original failure to every later barrier instead
            // of acking batches that were silently dropped.
            let mut error = shared.wal_error.get();
            if error.is_none() && !pending.is_empty() {
                let mut wal = shared.wal.lock();
                let result = wal.append(&pending).and_then(|_| wal.sync());
                // ordering: Relaxed — a stats gauge; the authoritative
                // value lives in `wal` under its mutex (see `Shared`).
                shared.wal_bytes.store(wal.len(), Ordering::Relaxed);
                drop(wal);
                match result {
                    Ok(()) => {
                        StoreStats::add(&shared.stats.flushed_records, pending.len() as u64);
                        StoreStats::add(&shared.stats.fsyncs, 1);
                        // A process-level event (the batched fsync serves
                        // many requests), so it carries the detached span;
                        // payload = records made durable by this sync.
                        RequestSpan::detached().event(Stage::Fsync, pending.len() as u64);
                    }
                    Err(e) => {
                        let msg = e.to_string();
                        shared.wal_error.record(msg.clone());
                        error = Some(msg);
                    }
                }
            }
            for ack in barriers {
                let _ = ack.send(match &error {
                    None => Ok(()),
                    Some(msg) => Err(msg.clone()),
                });
            }
            // Background compaction: once the live WAL crosses the
            // threshold, fold it into a sealed segment right here on the
            // flusher — after the barriers acked, so durability waiters
            // never queue behind a compaction pass. A failure is NOT a
            // WAL error (every record is still durable in the WAL); the
            // pass simply retries at the next batch.
            // ordering: Relaxed — a threshold probe on the gauge; the
            // compaction itself re-reads the WAL under its mutex.
            if error.is_none()
                && shared.wal_bytes.load(Ordering::Relaxed) >= shared.config.auto_compact_bytes
            {
                let _ = shared.compact();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{consistent_probs, region, temp_dir};

    fn open(dir: &Path) -> RegionStore {
        RegionStore::open(dir, StoreConfig::default()).unwrap()
    }

    #[test]
    fn appends_survive_a_clean_close_and_reopen() {
        let dir = temp_dir("store_reopen");
        let store = open(&dir);
        let a = region(0, &[1.0, -0.5], 0.25);
        let b = region(1, &[2.0, 0.5], -0.75);
        assert!(store.append(a.fingerprint, Arc::clone(&a.interpretation)));
        assert!(store.append(b.fingerprint, Arc::clone(&b.interpretation)));
        assert!(
            !store.append(a.fingerprint, Arc::clone(&a.interpretation)),
            "duplicate append must be a no-op"
        );
        assert_eq!(store.len(), 2);
        store.close().unwrap();

        let store = open(&dir);
        assert_eq!(store.len(), 2);
        let stats = store.stats();
        assert_eq!(stats.recovered_wal_records, 2);
        assert_eq!(stats.recovered_discarded_bytes, 0);
        // The recovered records serve probes exactly.
        let x = Vector(vec![0.3, -0.2]);
        let probs = consistent_probs(&a.interpretation, &x);
        let hit = store.lookup_probe(&x, &probs, 0).expect("region stored");
        assert_eq!(hit.interpretation, a.interpretation);
        assert!(store.lookup_probe(&x, &[0.5, 0.5], 0).is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn drop_without_close_still_flushes() {
        let dir = temp_dir("store_drop");
        let store = open(&dir);
        let a = region(0, &[3.0], 0.0);
        store.append(a.fingerprint, Arc::clone(&a.interpretation));
        drop(store);
        let store = open(&dir);
        assert_eq!(store.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_folds_the_wal_into_one_segment() {
        let dir = temp_dir("store_compact");
        let store = open(&dir);
        let regions: Vec<_> = (0..10).map(|i| region(0, &[i as f64 + 0.5], 0.0)).collect();
        for r in &regions {
            store.append(r.fingerprint, Arc::clone(&r.interpretation));
        }
        store.flush().unwrap();
        assert!(store.stats().wal_bytes > crate::wal::WAL_HEADER);
        assert_eq!(store.compact().unwrap(), 10);
        let stats = store.stats();
        assert_eq!(stats.segments, 1);
        assert_eq!(stats.wal_bytes, crate::wal::WAL_HEADER, "WAL emptied");
        assert_eq!(stats.compactions, 1);
        store.close().unwrap();

        // Recovery now comes entirely from the segment.
        let store = open(&dir);
        assert_eq!(store.len(), 10);
        let stats = store.stats();
        assert_eq!(stats.recovered_segment_records, 10);
        assert_eq!(stats.recovered_wal_records, 0);

        // Appends after compaction land in the WAL and coexist.
        let extra = region(1, &[99.0], 1.0);
        store.append(extra.fingerprint, Arc::clone(&extra.interpretation));
        store.close().unwrap();
        let store = open(&dir);
        assert_eq!(store.len(), 11);
        // A second compaction supersedes the first segment.
        store.compact().unwrap();
        assert_eq!(segment::list_segments(&dir).unwrap().len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_wal_tail_recovers_the_valid_prefix() {
        let dir = temp_dir("store_torn");
        let store = open(&dir);
        let keep = region(0, &[1.0], 0.0);
        let lost = region(0, &[2.0], 0.0);
        store.append(keep.fingerprint, Arc::clone(&keep.interpretation));
        store.append(lost.fingerprint, Arc::clone(&lost.interpretation));
        store.close().unwrap();
        // Tear mid-way into the second record.
        let wal = dir.join("wal.log");
        let len = std::fs::metadata(&wal).unwrap().len();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&wal)
            .unwrap()
            .set_len(len - 7)
            .unwrap();
        let store = open(&dir);
        assert_eq!(store.len(), 1);
        let stats = store.stats();
        assert_eq!(stats.recovered_wal_records, 1);
        assert!(stats.recovered_discarded_bytes > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn auto_compaction_triggers_on_a_large_wal() {
        let dir = temp_dir("store_autocompact");
        let config = StoreConfig {
            compact_wal_bytes: 64,
            ..StoreConfig::default()
        };
        let store = RegionStore::open(&dir, config.clone()).unwrap();
        for i in 0..8 {
            let r = region(0, &[i as f64 + 0.25], 0.0);
            store.append(r.fingerprint, Arc::clone(&r.interpretation));
        }
        store.close().unwrap();
        // Reopen past the threshold: the WAL folds into a segment.
        let store = RegionStore::open(&dir, config).unwrap();
        let stats = store.stats();
        assert_eq!(stats.compactions, 1);
        assert_eq!(stats.segments, 1);
        assert_eq!(stats.wal_bytes, crate::wal::WAL_HEADER);
        assert_eq!(store.len(), 8);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flusher_auto_compacts_past_the_live_threshold() {
        let dir = temp_dir("store_live_autocompact");
        let store = RegionStore::open(
            &dir,
            StoreConfig {
                // Wide weights make every record frame larger than the
                // threshold, so whichever way the flusher batches the
                // appends, the batch that lands last also compacts last.
                auto_compact_bytes: 64,
                ..StoreConfig::default()
            },
        )
        .unwrap();
        let weights: Vec<f64> = (0..32).map(|j| j as f64 * 0.1 - 1.5).collect();
        for i in 0..8 {
            let mut w = weights.clone();
            w[0] += i as f64;
            let r = region(0, &w, 0.0);
            store.append(r.fingerprint, Arc::clone(&r.interpretation));
        }
        store.flush().unwrap();
        // The compaction runs on the flusher right after the barrier acks;
        // wait for it to land. A snapshot racing the pass may tear across
        // its gauges and counter (see `StoreStats::snapshot`), so wait for
        // all three to show the finished pass: one sealed segment.
        let deadline = openapi_trace::clock::now() + std::time::Duration::from_secs(30);
        loop {
            let stats = store.stats();
            if stats.compactions >= 1
                && stats.wal_bytes == crate::wal::WAL_HEADER
                && stats.segments == 1
            {
                break;
            }
            assert!(
                openapi_trace::clock::now() < deadline,
                "flusher never compacted the live WAL into one segment: {stats}"
            );
            std::thread::yield_now();
        }
        assert_eq!(store.len(), 8);
        // Everything survives a reopen from the sealed segment (plus any
        // later appends from the fresh WAL).
        let extra = region(1, &[42.0], 0.5);
        store.append(extra.fingerprint, Arc::clone(&extra.interpretation));
        store.close().unwrap();
        let store = open(&dir);
        assert_eq!(store.len(), 9);
        assert!(store.stats().recovered_segment_records >= 8);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_appends_and_lookups_stay_consistent() {
        let dir = temp_dir("store_concurrent");
        let store = open(&dir);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let store = &store;
                scope.spawn(move || {
                    for i in 0..25 {
                        let r = region(0, &[(t * 25 + i) as f64 + 0.5], 0.0);
                        store.append(r.fingerprint, Arc::clone(&r.interpretation));
                    }
                });
            }
            for _ in 0..2 {
                let store = &store;
                scope.spawn(move || {
                    let x = Vector(vec![0.4]);
                    for i in 0..100 {
                        let target = region(0, &[i as f64 + 0.5], 0.0);
                        let probs = consistent_probs(&target.interpretation, &x);
                        if let Some(hit) = store.lookup_probe(&x, &probs, 0) {
                            // Any hit is the queried region, never another.
                            assert_eq!(hit.interpretation, target.interpretation);
                        }
                    }
                });
            }
        });
        assert_eq!(store.len(), 100);
        store.close().unwrap();
        let store = open(&dir);
        assert_eq!(store.len(), 100);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_is_idempotent_and_sync_surfaces_reflect_the_set() {
        let dir = temp_dir("store_sync_surface");
        let store = open(&dir);
        let a = region(0, &[1.0, -0.5], 0.25);
        let b = region(1, &[2.0, 0.5], -0.75);
        assert!(store.append(a.fingerprint, Arc::clone(&a.interpretation)));
        assert!(store.append(b.fingerprint, Arc::clone(&b.interpretation)));
        // Idempotent: re-appending changes nothing observable.
        for _ in 0..3 {
            assert!(!store.append(a.fingerprint, Arc::clone(&a.interpretation)));
        }
        assert_eq!(store.len(), 2);
        assert_eq!(store.stats().duplicate_appends, 3);

        let keys = store.record_keys();
        assert_eq!(keys.len(), 2);
        let frame_a = record::encode_record(a.fingerprint, &a.interpretation);
        let key_a = u64::from_le_bytes(frame_a[4..12].try_into().unwrap());
        assert!(keys.contains(&key_a));
        assert!(store.contains_record(key_a));
        assert!(!store.contains_record(key_a ^ 1));
        assert!(store.contains_fingerprint(0, a.fingerprint));
        assert!(!store.contains_fingerprint(5, a.fingerprint));

        // The digest summarizes exactly the key set, and the duplicate
        // appends above never inflated it.
        let digest = store.digest();
        assert_eq!(digest.total(), 2);
        let mut expect = StoreDigest::default();
        for &k in &keys {
            expect.add(k);
        }
        assert_eq!(digest, expect);
        store.close().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sync_delta_ships_exact_frames_and_respects_the_cap() {
        let dir = temp_dir("store_sync_delta");
        let store = open(&dir);
        let regions: Vec<_> = (0..6).map(|i| region(0, &[i as f64 + 0.5], 0.0)).collect();
        for r in &regions {
            store.append(r.fingerprint, Arc::clone(&r.interpretation));
        }
        let all_buckets: Vec<u32> = (0..crate::sync::DIGEST_BUCKETS as u32).collect();

        // A peer holding nothing gets every record, as exact frames.
        let delta = store.sync_delta(&all_buckets, &[], usize::MAX);
        assert_eq!(delta.records, 6);
        assert!(!delta.truncated);
        let mut slice = delta.frames.as_slice();
        let mut decoded = 0;
        while !slice.is_empty() {
            let rec = record::get_record(&mut slice).unwrap();
            assert!(
                store.contains_fingerprint(rec.interpretation.class, rec.fingerprint),
                "delta record must come from the store"
            );
            decoded += 1;
        }
        assert_eq!(decoded, 6);

        // A peer that already has everything gets an empty delta.
        let have = store.record_keys();
        let none = store.sync_delta(&all_buckets, &have, usize::MAX);
        assert_eq!(none.records, 0);
        assert!(!none.truncated);

        // A tight cap still ships at least one record and flags the rest.
        let tiny = store.sync_delta(&all_buckets, &[], 1);
        assert_eq!(tiny.records, 1);
        assert!(tiny.truncated);

        // Pull-looping to completion over the capped path converges on
        // the identical byte set as the uncapped pull.
        let mut have: Vec<u64> = Vec::new();
        let mut gathered = Vec::new();
        loop {
            let step = store.sync_delta(&all_buckets, &have, 64);
            if step.records == 0 {
                break;
            }
            let mut slice = step.frames.as_slice();
            while !slice.is_empty() {
                let start = slice;
                let _ = record::get_record(&mut slice).unwrap();
                let frame = &start[..start.len() - slice.len()];
                have.push(u64::from_le_bytes(frame[4..12].try_into().unwrap()));
                gathered.extend_from_slice(frame);
            }
            if !step.truncated {
                break;
            }
        }
        have.sort_unstable();
        assert_eq!(have, store.record_keys());
        assert_eq!(gathered, delta.frames, "same bytes, any pull schedule");
        store.close().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tombstones_suppress_serving_through_restart_and_compaction() {
        let dir = temp_dir("store_tombstone");
        let store = open(&dir);
        let a = region(0, &[1.0, -0.5], 0.25);
        let b = region(1, &[2.0, 0.5], -0.75);
        assert!(store.append(a.fingerprint, Arc::clone(&a.interpretation)));
        assert!(store.append(b.fingerprint, Arc::clone(&b.interpretation)));
        let x = Vector(vec![0.3, -0.2]);
        let probs = consistent_probs(&a.interpretation, &x);
        assert!(store.lookup_probe(&x, &probs, 0).is_some());

        assert!(store.tombstone(0, a.fingerprint));
        assert!(!store.tombstone(0, a.fingerprint), "idempotent");
        assert!(store.lookup_probe(&x, &probs, 0).is_none(), "suppressed");
        assert!(store.contains_tombstone(0, a.fingerprint));
        assert!(!store.contains_fingerprint(0, a.fingerprint));
        assert_eq!(store.len(), 1);
        assert_eq!(store.tombstone_count(), 1);
        // Tombstone-wins is permanent: the same key never re-enters.
        assert!(!store.append(a.fingerprint, Arc::clone(&a.interpretation)));
        // The untouched region still serves.
        let probs_b = consistent_probs(&b.interpretation, &x);
        assert!(store.lookup_probe(&x, &probs_b, 1).is_some());
        store.close().unwrap();

        // Restart: the WAL replays the tombstone after the record.
        let store = open(&dir);
        assert_eq!(store.len(), 1);
        assert_eq!(store.tombstone_count(), 1);
        assert!(store.lookup_probe(&x, &probs, 0).is_none());
        assert!(!store.append(a.fingerprint, Arc::clone(&a.interpretation)));
        // Compaction folds the suppressed record away but keeps the fact.
        assert_eq!(store.compact().unwrap(), 2, "one live + one tombstone");
        store.close().unwrap();

        // Restart from the compacted segment: still forgotten.
        let store = open(&dir);
        assert_eq!(store.len(), 1);
        assert_eq!(store.tombstone_count(), 1);
        assert!(store.lookup_probe(&x, &probs, 0).is_none());
        assert!(store.contains_tombstone(0, a.fingerprint));
        assert_eq!(store.stats().recovered_segment_records, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn digests_converge_after_both_stores_tombstone_the_same_key() {
        // Regression for the anti-entropy livelock: suppressing a record
        // must remove its sync key from the digest, or two stores that
        // both tombstoned the same region would disagree forever.
        let dir_a = temp_dir("store_ts_digest_a");
        let dir_b = temp_dir("store_ts_digest_b");
        let sa = open(&dir_a);
        let sb = open(&dir_b);
        let regions: Vec<_> = (0..4).map(|i| region(0, &[i as f64 + 0.5], 0.0)).collect();
        for r in &regions {
            sa.append(r.fingerprint, Arc::clone(&r.interpretation));
        }
        // Opposite admission order on the peer.
        for r in regions.iter().rev() {
            sb.append(r.fingerprint, Arc::clone(&r.interpretation));
        }
        let victim = &regions[1];
        assert!(sa.tombstone(0, victim.fingerprint));
        assert!(sb.tombstone(0, victim.fingerprint));
        assert_eq!(sa.record_keys(), sb.record_keys());
        assert_eq!(sa.digest(), sb.digest());
        assert!(sa.digest().differing_buckets(&sb.digest()).is_empty());
        // The tombstone frame itself is summarized (3 live + 1 tombstone).
        assert_eq!(sa.digest().total(), 4);
        sa.close().unwrap();
        sb.close().unwrap();
        std::fs::remove_dir_all(&dir_a).ok();
        std::fs::remove_dir_all(&dir_b).ok();
    }

    #[test]
    fn a_lone_tombstone_ships_through_sync_delta() {
        // The ≥1-record progress guarantee covers tombstone-only deltas.
        let dir = temp_dir("store_ts_delta");
        let store = open(&dir);
        let a = region(0, &[1.0], 0.0);
        store.append(a.fingerprint, Arc::clone(&a.interpretation));
        store.tombstone(0, a.fingerprint);
        let all_buckets: Vec<u32> = (0..crate::sync::DIGEST_BUCKETS as u32).collect();
        let delta = store.sync_delta(&all_buckets, &[], 1);
        assert_eq!(delta.records, 1);
        assert!(!delta.truncated);
        let mut slice = delta.frames.as_slice();
        match record::get_any_record(&mut slice).unwrap() {
            StoreRecord::Tombstone(t) => {
                assert_eq!(t.fingerprint, a.fingerprint);
                assert_eq!(t.class, 0);
            }
            other => panic!("expected a tombstone frame, got {other:?}"),
        }
        assert!(slice.is_empty());
        // The live-only wire decoder refuses the same frame, typed.
        let mut slice = delta.frames.as_slice();
        assert!(matches!(
            record::get_record(&mut slice),
            Err(crate::record::RecordError::UnexpectedTombstone(_))
        ));
        store.close().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fingerprint_collisions_keep_both_regions() {
        let dir = temp_dir("store_collision");
        let store = open(&dir);
        let a = region(0, &[1.0], 0.0);
        // Same fingerprint key, genuinely different parameters.
        let b = CachedRegion {
            fingerprint: a.fingerprint,
            interpretation: region(0, &[5.0], 1.0).interpretation,
        };
        assert!(store.append(a.fingerprint, Arc::clone(&a.interpretation)));
        assert!(store.append(b.fingerprint, Arc::clone(&b.interpretation)));
        assert!(!store.append(b.fingerprint, Arc::clone(&b.interpretation)));
        assert_eq!(store.len(), 2);
        // Both are served by membership, and reopen preserves both.
        store.close().unwrap();
        let store = open(&dir);
        assert_eq!(store.len(), 2);
        let x = Vector(vec![0.7]);
        let probs = consistent_probs(&b.interpretation, &x);
        let hit = store.lookup_probe(&x, &probs, 0).expect("collided region");
        assert_eq!(hit.interpretation, b.interpretation);
        std::fs::remove_dir_all(&dir).ok();
    }
}
