#![forbid(unsafe_code)]
#![deny(missing_docs)]
//! `openapi-serve` — a concurrent interpretation service over the paper's
//! Theorem-2 region cache.
//!
//! The OpenAPI method (Algorithm 1) makes exact black-box interpretation
//! cheap enough to run behind a live prediction API, and Theorem 2 makes
//! the expensive part per-*region*, not per-instance: every instance inside
//! one locally linear region recovers the identical core parameters. The
//! single-threaded [`openapi_core::BatchInterpreter`] already exploits that
//! with a region cache; this crate scales the same insight to many client
//! threads:
//!
//! * [`SharedRegionCache`] — one [`openapi_core::RegionCache`] keyed by
//!   [`openapi_core::RegionFingerprint`] behind an `openapi_sync::RwLock`,
//!   with a capacity bound and CLOCK eviction so memory stays flat under
//!   millions of distinct regions, and the store's lookup order: a probe
//!   resolves to the first admitted region that explains it. Slots hold
//!   `Arc<Interpretation>`, so a hit is a reference-count bump, never a
//!   multi-KB parameter copy. Warm start across restarts is the durable
//!   store's job (below).
//! * [`InterpretationService`] — a worker pool (crossbeam channels) that
//!   accepts [`InterpretRequest`]s and returns [`Ticket`] handles the
//!   caller can block on ([`Ticket::wait`]) or poll ([`Ticket::poll`]).
//!   Opened over a directory ([`InterpretationService::open`]), it gains a
//!   durable L2 — [`openapi_store::RegionStore`] — behind the cache:
//!   misses consult the store before electing an Algorithm-1 leader
//!   ([`ServeOutcome::StoreHit`]), solves append to the store's
//!   write-ahead log asynchronously, and a restart against the same
//!   directory re-serves every previously solved region without a single
//!   additional solve.
//! * [`ServiceStats`] — atomic hit/store-hit/miss/coalesce/eviction/query
//!   counters plus a fixed-bucket latency histogram
//!   ([`openapi_metrics::LatencyHistogram`]) for p50/p99, with the
//!   store's own counters embedded when one is attached. Each counter is
//!   declared once in its family's [`openapi_trace::expose::Family`]
//!   table, which drives the snapshot, `Display`, Prometheus text and the
//!   wire codec alike.
//!
//! # Request coalescing preserves exactness
//!
//! Concurrent requests that resolve to the same region wait on one
//! in-flight Algorithm-1 solve instead of each paying the full query
//! budget. This does **not** weaken the paper's exactness guarantee, for
//! the same reason the cache itself doesn't:
//!
//! 1. Every request pays one membership probe (its own prediction at `x`).
//! 2. A waiter is served the leader's interpretation **only if** that
//!    interpretation explains the waiter's probe at every class contrast
//!    ([`openapi_core::decision::Interpretation::explains_probe`]) — the
//!    identical test a cache hit passes.
//! 3. By Theorem 2, core parameters hold throughout a locally linear
//!    region, and an instance whose observed prediction satisfies
//!    `D_{c,c'}ᵀx + B_{c,c'} = ln(y_c/y_{c'})` for every contrast lies in
//!    the solved region (with probability 1, at the configured tolerance).
//!    All waiters that pass the test are therefore in the *same region* as
//!    the leader, and the leader's exact answer is *their* exact answer —
//!    bit-identical, which is the paper's consistency property.
//!
//! A waiter whose probe is *not* explained (it was merely queued behind a
//! different region's solve) is requeued and solved on its own — coalescing
//! can only save queries, never change an answer.
//!
//! # Example
//!
//! ```
//! use openapi_api::LinearSoftmaxModel;
//! use openapi_linalg::{Matrix, Vector};
//! use openapi_serve::{InterpretationService, ServeOutcome, ServiceConfig};
//!
//! let model = LinearSoftmaxModel::new(
//!     Matrix::from_fn(4, 3, |r, c| ((r * 3 + c) % 5) as f64 * 0.25 - 0.5),
//!     Vector(vec![0.1, -0.2, 0.05]),
//! );
//! let service = InterpretationService::new(model, ServiceConfig::default());
//! let x = Vector(vec![0.3, -0.1, 0.7, 0.2]);
//!
//! // The first request into a region pays the Algorithm-1 solve …
//! let first = service.submit_instance(x.clone(), 1).wait().unwrap();
//! assert_eq!(first.outcome, ServeOutcome::Solved);
//! // … every later request in the region costs one membership probe and
//! // is served the identical bits (the paper's consistency property).
//! let again = service.submit_instance(x, 1).wait().unwrap();
//! assert_eq!(again.outcome, ServeOutcome::CacheHit);
//! assert_eq!(again.queries, 1);
//! assert_eq!(again.interpretation, first.interpretation);
//! ```
//!
//! A region's identity is unknowable before its solve (knowing it would
//! require the very parameters being solved for), so the in-flight registry
//! keys on the only thing a miss *does* know: its class. Up to
//! [`ServiceConfig::max_leaders_per_class`] solves of one class run
//! concurrently, so distinct-region cold misses parallelize instead of
//! serializing behind a single leader; the deliberate cost is that racing
//! leaders occasionally solve the *same* region twice — the duplicates
//! merge at insert (identical bits, one entry), so only query spend is
//! affected, never an answer. Past the leader limit, misses park as
//! waiters; once the hot regions are cached the registry is idle (hits
//! dominate steady-state traffic and never touch it).
//!
//! # Request lifecycle
//!
//! ```text
//! submit(x, c) ──► queue ──► worker: probe x (1 query)
//!                              │
//!                              ├─ cache lookup ──► hit ──► reply (cached, exact)
//!                              │
//!                              ├─ durable store lookup (if attached)
//!                              │    └─ hit ──► promote to cache ──► reply (store, exact)
//!                              │
//!                              ├─ class at its leader limit?
//!                              │    └─ yes ──► park as waiter (coalesce)
//!                              │
//!                              └─ no ──► lead Algorithm-1 solve (≤ N per class)
//!                                         ├─ insert region into cache (may evict)
//!                                         ├─ append region to store WAL (async fsync)
//!                                         ├─ reply to leader
//!                                         └─ for each waiter:
//!                                              explains_probe? ──► reply (coalesced)
//!                                              else ──► requeue
//! ```

pub mod coalesce;
mod service;
mod shared_cache;
mod stats;

pub use coalesce::{ClassLedger, Election};
pub use service::{
    drift_detection_enabled, set_drift_detection_enabled, InterpretRequest, InterpretationService,
    ServeError, ServeOutcome, Served, ServiceConfig, ServiceCore, Ticket,
};
pub use shared_cache::{SharedCacheConfig, SharedRegionCache};
pub use stats::{
    DriftStats, DriftStatsSnapshot, FabricStats, FabricStatsSnapshot, ServiceStats, StageSlot,
    StatsSnapshot, STAGES, STAGE_NAMES,
};
