//! The thread-safe region cache.
//!
//! [`SharedRegionCache`] puts one [`RegionCache`] behind an
//! `openapi_sync::RwLock`. Lookups take the read lock, so concurrent
//! readers proceed in parallel, and the membership test per entry is a
//! handful of dot products. Lookups cannot know a probe's fingerprint
//! before solving (that would require the very parameters being looked
//! up), so every lookup scans the class's packed boundaries; inserts and
//! evictions take the write lock.
//!
//! One cache means one lookup order: a probe resolves to the first
//! admitted region that explains it, as in the store and the batch layer.
//! The cache holds at most `capacity` entries, evicted CLOCK-wise (see
//! [`RegionCache`]), so it stays within its configured bound no matter how
//! many distinct regions traffic touches.

use openapi_core::cache::{CachedRegion, ProbeRef, RegionCache, RegionCacheConfig};
use openapi_core::decision::{Interpretation, RegionFingerprint};
use openapi_linalg::kernel::Backend;
use openapi_linalg::Vector;
use openapi_sync::RwLock;
use std::sync::Arc;

/// Configuration of a [`SharedRegionCache`].
#[derive(Debug, Clone)]
pub struct SharedCacheConfig {
    /// Capacity bound (clamped to ≥ 1).
    pub capacity: usize,
    /// Membership-test tolerance (see
    /// [`openapi_core::cache::RegionCacheConfig::membership_rtol`]).
    pub membership_rtol: f64,
    /// Fingerprint canonicalization digits: inserts key each region by
    /// its parameters' fingerprint at this precision.
    pub fingerprint_digits: u32,
    /// Kernel backend the blocked membership scan runs on (see
    /// [`openapi_linalg::kernel`]); backends are bit-identical by
    /// contract.
    pub backend: Arc<dyn Backend>,
}

impl Default for SharedCacheConfig {
    fn default() -> Self {
        let base = RegionCacheConfig::default();
        SharedCacheConfig {
            capacity: 4096,
            membership_rtol: base.membership_rtol,
            fingerprint_digits: openapi_core::batch::BatchConfig::default().fingerprint_digits,
            backend: base.backend,
        }
    }
}

/// The concurrent region cache (see the module docs).
#[derive(Debug)]
pub struct SharedRegionCache {
    cache: RwLock<RegionCache>,
    config: SharedCacheConfig,
}

impl SharedRegionCache {
    /// Creates an empty cache with the given capacity.
    pub fn new(config: SharedCacheConfig) -> Self {
        let mut config = config;
        config.capacity = config.capacity.max(1);
        let cache = RwLock::new(RegionCache::new(RegionCacheConfig {
            membership_rtol: config.membership_rtol,
            capacity: Some(config.capacity),
            backend: Arc::clone(&config.backend),
        }));
        SharedRegionCache { cache, config }
    }

    /// Borrow the (clamped) configuration.
    pub fn config(&self) -> &SharedCacheConfig {
        &self.config
    }

    /// The capacity bound.
    pub fn capacity(&self) -> usize {
        self.config.capacity
    }

    /// Regions currently cached.
    pub fn len(&self) -> usize {
        self.cache.read().len()
    }

    /// Whether no regions are cached.
    pub fn is_empty(&self) -> bool {
        self.cache.read().is_empty()
    }

    /// Regions evicted since construction.
    pub fn evictions(&self) -> u64 {
        self.cache.read().evictions()
    }

    /// Drops every cached region.
    pub fn clear(&self) {
        self.cache.write().clear();
    }

    /// Black-box membership lookup under the read lock: the first cached
    /// region of `class` whose core parameters explain the prediction
    /// `probs` observed at `x`.
    pub fn lookup_probe(&self, x: &Vector, probs: &[f64], class: usize) -> Option<CachedRegion> {
        self.cache.read().lookup_probe(x, probs, class)
    }

    /// Batched black-box lookup: resolves every probe whose `results` slot
    /// is `None`, writing hits in place, in one read lock and one blocked
    /// kernel pass over the packed boundaries (see
    /// [`openapi_core::cache::RegionCache::lookup_probe_batch`]) instead
    /// of one scan per probe.
    ///
    /// # Panics
    /// When `probes.len() != results.len()`.
    pub fn lookup_probe_batch(
        &self,
        probes: &[ProbeRef<'_>],
        results: &mut [Option<CachedRegion>],
    ) {
        self.cache.read().lookup_probe_batch(probes, results);
    }

    /// Admits a freshly solved (or store-recovered) region under its
    /// fingerprint, returning the entry that ends up cached (the
    /// canonical one if an agreeing entry already existed — see
    /// [`RegionCache::insert`]). Takes an [`Arc`] so admission from
    /// another tier never copies the parameter payload.
    pub fn insert(&self, interpretation: Arc<Interpretation>) -> CachedRegion {
        let fingerprint = interpretation.fingerprint(self.config.fingerprint_digits);
        let (cached, _) = self.cache.write().insert(fingerprint, interpretation);
        cached
    }

    /// Drops every cached entry of `class` keyed by `fingerprint`
    /// (collision fallbacks included — see
    /// [`RegionCache::evict_fingerprint`]). The drift detector's cache
    /// half; returns the number of entries removed.
    pub fn evict(&self, class: usize, fingerprint: RegionFingerprint) -> usize {
        self.cache.write().evict_fingerprint(class, fingerprint)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openapi_core::decision::PairwiseCoreParams;

    fn interp(class: usize, w: f64) -> Arc<Interpretation> {
        Arc::new(
            Interpretation::from_pairwise(
                class,
                vec![PairwiseCoreParams {
                    c_prime: class + 1,
                    weights: Vector(vec![w, -w]),
                    bias: 0.25 * w,
                }],
            )
            .unwrap(),
        )
    }

    /// A probe consistent with `interp(class, w)` at `x`: builds the
    /// two-class probability vector whose log-ratio matches `D·x + B`.
    fn consistent_probs(i: &Interpretation, x: &Vector) -> Vec<f64> {
        let p = &i.pairwise[0];
        let target = p.weights.dot(x).unwrap() + p.bias;
        let r = target.exp();
        let denom = 1.0 + r;
        let mut probs = vec![0.0; p.c_prime + 1];
        probs[i.class] = r / denom;
        probs[p.c_prime] = 1.0 / denom;
        probs
    }

    #[test]
    fn insert_then_lookup_roundtrips() {
        let cache = SharedRegionCache::new(SharedCacheConfig::default());
        let x = Vector(vec![0.3, -0.8]);
        for w in 1..=16 {
            cache.insert(interp(0, w as f64));
        }
        assert_eq!(cache.len(), 16);
        let target = interp(0, 7.0);
        let probs = consistent_probs(&target, &x);
        let hit = cache.lookup_probe(&x, &probs, 0).expect("region 7 cached");
        assert_eq!(hit.interpretation, target);
        // A probe no cached region explains misses.
        assert!(cache.lookup_probe(&x, &[0.31, 0.69], 0).is_none());
    }

    #[test]
    fn batched_lookup_matches_per_probe_lookup() {
        let cache = SharedRegionCache::new(SharedCacheConfig::default());
        let x = Vector(vec![0.3, -0.8]);
        for w in 1..=32 {
            cache.insert(interp(0, w as f64));
        }
        // Probes spread over the admission order, plus one that misses and one
        // pre-resolved slot that must be left alone.
        let targets: Vec<_> = [3, 8, 17, 30, 11].map(|w| interp(0, w as f64)).to_vec();
        let probs: Vec<Vec<f64>> = targets.iter().map(|t| consistent_probs(t, &x)).collect();
        let miss = vec![0.45, 0.55];
        let mut all_probs: Vec<&[f64]> = probs.iter().map(Vec::as_slice).collect();
        all_probs.push(&miss);
        let probes: Vec<ProbeRef> = all_probs
            .iter()
            .map(|p| ProbeRef {
                x: &x,
                probs: p,
                class: 0,
            })
            .collect();
        let mut results = vec![None; probes.len()];
        results[1] = cache.lookup_probe(&x, &probs[1], 0);
        cache.lookup_probe_batch(&probes, &mut results);
        for (i, target) in targets.iter().enumerate() {
            let hit = results[i].as_ref().expect("batched lookup must hit");
            assert_eq!(&hit.interpretation, target, "probe {i}");
        }
        assert!(results[5].is_none(), "unexplained probe must miss");
    }

    #[test]
    fn evict_drops_only_the_named_region() {
        let cache = SharedRegionCache::new(SharedCacheConfig::default());
        let x = Vector(vec![0.3, -0.8]);
        for w in 1..=16 {
            cache.insert(interp(0, w as f64));
        }
        let victim = interp(0, 7.0);
        let fingerprint = victim.fingerprint(6);
        assert_eq!(cache.evict(0, fingerprint), 1);
        assert_eq!(cache.len(), 15);
        let probs = consistent_probs(&victim, &x);
        assert!(cache.lookup_probe(&x, &probs, 0).is_none());
        // Idempotent, and survivors still serve.
        assert_eq!(cache.evict(0, fingerprint), 0);
        let survivor = interp(0, 9.0);
        let probs = consistent_probs(&survivor, &x);
        let hit = cache.lookup_probe(&x, &probs, 0).expect("survivor serves");
        assert_eq!(hit.interpretation, survivor);
    }

    #[test]
    fn duplicate_inserts_merge_to_one_entry() {
        let cache = SharedRegionCache::new(SharedCacheConfig::default());
        let a = cache.insert(interp(1, 3.0));
        let b = cache.insert(interp(1, 3.0));
        assert_eq!(cache.len(), 1);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.interpretation, b.interpretation);
    }

    #[test]
    fn capacity_bound_holds() {
        let cache = SharedRegionCache::new(SharedCacheConfig {
            capacity: 16,
            ..SharedCacheConfig::default()
        });
        assert_eq!(cache.capacity(), 16);
        for w in 0..200 {
            cache.insert(interp(0, w as f64 + 0.5));
        }
        assert_eq!(cache.len(), 16);
        assert_eq!(cache.evictions(), 184);
    }

    #[test]
    fn degenerate_configs_are_clamped() {
        let cache = SharedRegionCache::new(SharedCacheConfig {
            capacity: 0,
            ..SharedCacheConfig::default()
        });
        assert_eq!(cache.capacity(), 1);
        cache.insert(interp(0, 1.0));
        cache.insert(interp(0, 2.0));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.config().capacity, 1);
    }

    #[test]
    fn concurrent_readers_and_writers_stay_consistent() {
        let cache = SharedRegionCache::new(SharedCacheConfig {
            capacity: 64,
            ..SharedCacheConfig::default()
        });
        let x = Vector(vec![0.1, 0.9]);
        std::thread::scope(|s| {
            for t in 0..4 {
                let cache = &cache;
                s.spawn(move || {
                    for w in 0..50 {
                        cache.insert(interp(0, (t * 50 + w) as f64 + 0.25));
                    }
                });
            }
            for _ in 0..4 {
                let cache = &cache;
                let x = &x;
                s.spawn(move || {
                    for w in 0..200 {
                        let target = interp(0, w as f64 + 0.25);
                        let probs = consistent_probs(&target, x);
                        // Any hit must return exactly the queried region's
                        // parameters (never another region's).
                        if let Some(hit) = cache.lookup_probe(x, &probs, 0) {
                            assert_eq!(hit.interpretation, target);
                        }
                    }
                });
            }
        });
        assert!(cache.len() <= cache.capacity());
    }
}
