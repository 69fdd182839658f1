#![forbid(unsafe_code)]
#![deny(missing_docs)]
//! `openapi-store` — a durable, log-structured persistence tier for
//! recovered locally linear regions.
//!
//! Theorem 2 of the paper makes each region's interpretation *exact and
//! permanent*: once Algorithm 1 has solved a region, the recovered core
//! parameters never change and never need re-querying. That makes the set
//! of solved regions the most valuable asset the system owns — every
//! record is one Algorithm-1 solve's prediction queries (`1 + T·(d+1)`
//! under the paper's halving, fewer under the pre-screen) that never have
//! to be paid again. This crate keeps that asset on disk, so a restarted service
//! warm-starts from its own history instead of re-billing the API.
//!
//! # On-disk layout
//!
//! A store directory holds one active write-ahead log and any number of
//! sealed segments:
//!
//! ```text
//! store-dir/
//! ├── wal.log          append-only: magic + framed records, in arrival order
//! ├── seg-000001.seg   sealed: magic + framed, deduplicated records
//! └── seg-000002.seg   (younger segments supersede nothing: records are
//!                       immutable facts, recovery dedupes)
//! ```
//!
//! Every record on every surface uses one codec ([`record`]): a
//! `(fingerprint, Interpretation)` payload inside a `len + CRC-64/XZ`
//! frame. The fabric's sync deltas and the serving wire carry the same
//! frames, so the workspace has exactly one persistence framing to audit.
//! *Tombstones* — "forget this region" facts emitted by the drift
//! detector when the hidden model was silently swapped — travel in the
//! same framing ([`record::RegionTombstone`]): they replay from the WAL,
//! seal into segments, and win permanently over the records they
//! suppress, so compaction genuinely forgets a stale region while the
//! fact of its staleness survives restart and anti-entropy exchange.
//!
//! # Durability protocol
//!
//! * **Append** ([`RegionStore::append`]): dedup against the in-memory
//!   index — an unbounded [`openapi_core::cache::RegionCache`], so the
//!   store's lookups and merges run on the same membership scan and merge
//!   rule as the serving cache (already-stored regions cost no I/O) — then
//!   hand the encoded frame to a dedicated flusher thread. The flusher
//!   batches whatever has accumulated (up to [`StoreConfig::flush_batch`]
//!   records), writes once, and `fsync`s once — many inserts per sync
//!   under load, one sync per insert when idle. [`RegionStore::flush`] is
//!   the explicit barrier.
//! * **Recovery** ([`RegionStore::open`]): replay segments in sequence
//!   order, then the WAL's longest valid record prefix. A torn tail —
//!   a crash mid-write — fails its frame's CRC, gets clipped (the file is
//!   truncated back to the valid prefix), and costs at most the records
//!   of the final unsynced batch, never a wrong record. Each file is
//!   CRC-verified and decoded once, on every core when it is large
//!   enough, and its records are admitted in log order under the sync
//!   keys their frames carry.
//! * **Compaction** ([`RegionStore::compact`]): fold everything — the live
//!   regions in admission order, then the tombstones — into one fresh
//!   segment (tmp-write, fsync, atomic rename), *then* empty the WAL and
//!   drop the older segments. Every record is durable in at least one file
//!   at every instant; a crash anywhere leaves duplicates at worst, which
//!   recovery's dedup folds.
//!
//! # Exactness is never delegated to the disk
//!
//! A lookup ([`RegionStore::lookup_probe`]) only returns a stored region
//! whose parameters *explain the caller's own probe* at every contrast —
//! the Theorem-2 membership test, run by the same kernel-packed
//! `RegionCache` scan the serving cache uses.
//! Bytes can rot, directories can be swapped, a store can come from a
//! different model entirely: a record either proves itself against the
//! live API's prediction or it is ignored. The CRC framing exists to keep
//! recovery honest (and cheap); correctness never rests on it.
//!
//! # Example
//!
//! Append a solved region, restart, and find it recovered:
//!
//! ```
//! use openapi_core::decision::{Interpretation, PairwiseCoreParams};
//! use openapi_linalg::Vector;
//! use openapi_store::{RegionStore, StoreConfig};
//! use std::sync::Arc;
//!
//! let dir = std::env::temp_dir().join(format!("openapi_store_doc_{}", std::process::id()));
//! let store = RegionStore::open(&dir, StoreConfig::default()).unwrap();
//! let region = Interpretation::from_pairwise(
//!     0,
//!     vec![PairwiseCoreParams {
//!         c_prime: 1,
//!         weights: Vector(vec![0.5, -1.0]),
//!         bias: 0.25,
//!     }],
//! )
//! .unwrap();
//! store.append(region.fingerprint(6), Arc::new(region));
//! store.close().unwrap(); // final WAL flush + fsync
//!
//! // A new process life: every previously solved region is recovered.
//! let reopened = RegionStore::open(&dir, StoreConfig::default()).unwrap();
//! assert_eq!(reopened.len(), 1);
//! reopened.close().unwrap();
//! std::fs::remove_dir_all(&dir).ok();
//! ```

mod error;
pub mod record;
mod replay;
mod segment;
mod stats;
pub mod sticky;
mod store;
pub mod sync;
mod wal;

pub use error::StoreError;
pub use record::{RecordError, RegionTombstone, StoreRecord};
pub use replay::Recovery;
pub use segment::{read_segment, segment_name, SEGMENT_MAGIC};
pub use stats::{StoreStats, StoreStatsSnapshot};
pub use sticky::StickyError;
pub use store::{RegionStore, StoreConfig};
pub use sync::{DigestBucket, StoreDigest, SyncDelta, DIGEST_BUCKETS};
pub use wal::{Wal, WAL_MAGIC};

#[cfg(test)]
pub(crate) mod testutil {
    use openapi_core::cache::CachedRegion;
    use openapi_core::decision::{Interpretation, PairwiseCoreParams};
    use openapi_linalg::Vector;
    use openapi_sync::atomic::{AtomicU64, Ordering};
    use std::path::PathBuf;
    use std::sync::Arc;

    /// A unique, created temp directory per call — concurrent tests never
    /// share one, and each test removes its own at the end.
    pub fn temp_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "openapi_store_{tag}_{}_{}",
            std::process::id(),
            // ordering: Relaxed — uniqueness only; nothing published.
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A synthetic one-contrast region whose weights encode its identity.
    pub fn region(class: usize, weights: &[f64], bias: f64) -> CachedRegion {
        let interpretation = Interpretation::from_pairwise(
            class,
            vec![PairwiseCoreParams {
                c_prime: class + 1,
                weights: Vector(weights.to_vec()),
                bias,
            }],
        )
        .unwrap();
        CachedRegion {
            fingerprint: interpretation.fingerprint(6),
            interpretation: Arc::new(interpretation),
        }
    }

    /// A probability vector consistent with `i` at `x`: the probe its
    /// region's membership test accepts.
    pub fn consistent_probs(i: &Interpretation, x: &Vector) -> Vec<f64> {
        let p = &i.pairwise[0];
        let target = p.weights.dot(x).unwrap() + p.bias;
        let r = target.exp();
        let denom = 1.0 + r;
        let mut probs = vec![0.0; p.c_prime + 1];
        probs[i.class] = r / denom;
        probs[p.c_prime] = 1.0 / denom;
        probs
    }
}
