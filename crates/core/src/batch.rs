//! Region-deduplicating batch interpretation.
//!
//! Theorem 2 of the paper is a *caching theorem* in disguise: every instance
//! inside one locally linear region recovers the **identical** core
//! parameters `(D_{c,c'}, B_{c,c'})` — interpretation is a per-region
//! computation, not a per-instance one (the insight OpenBox, arXiv:1802.06259,
//! exploits with white-box access). [`BatchInterpreter`] carries that insight
//! into the black-box setting: it interprets a slice of instances for a
//! class, runs the full `d + 1`-query Algorithm 1 only on the **first**
//! instance of each region, and serves every later instance of that region
//! from cache.
//!
//! Cache soundness rests on Theorem 2 both ways:
//!
//! * **Lookup** ([`BatchInterpreter::interpret_batch`]): one prediction
//!   query per instance suffices to decide membership — if a cached region's
//!   parameters satisfy `D_{c,c'}ᵀx + B_{c,c'} = ln(y_c/y_{c'})` for every
//!   contrast ([`Interpretation::explains_probe`]), then `x` lies in that
//!   region (exactly, at zero tolerance) and the cached interpretation is
//!   `x`'s interpretation. The check runs at the finite tolerance of
//!   Algorithm 1's own consistency check ([`OpenApiConfig::rtol`] of
//!   [`BatchConfig::openapi`]), so an instance within roughly that
//!   tolerance of a boundary can match the *adjacent* region — a PLM is
//!   continuous across boundaries, so the served parameters still explain
//!   `x`'s observable behaviour to the same tolerance Algorithm 1 itself
//!   accepts solutions at (its consistency check admits borderline sample
//!   sets the same way). A hit costs 1 query instead of a solve's
//!   [`crate::openapi::OpenApiResult::queries`] (`1 + iterations · (d+1)`
//!   under the paper's halving).
//! * **Key** ([`crate::decision::region_fingerprint`]): recovered parameters
//!   are canonicalized and hashed, so two misses that independently solved
//!   the same region (e.g. a borderline membership tolerance) merge into one
//!   entry and all their callers receive bit-identical interpretations.
//!
//! The cache itself lives in [`crate::cache::RegionCache`] — the
//! concurrent tier in `openapi-serve` puts the same structure behind one
//! lock, so both share one membership-probe code path and one lookup
//! order. [`BatchStats`] exposes the hit/miss/query accounting a capacity
//! planner needs.

use crate::cache::{RegionCache, RegionCacheConfig};
use crate::decision::{Interpretation, RegionFingerprint};
use crate::equations::Probe;
use crate::error::InterpretError;
use crate::openapi::{validate_request, OpenApiConfig, OpenApiInterpreter};
use openapi_api::PredictionApi;
use openapi_linalg::Vector;
use rand::Rng;
use std::sync::Arc;

/// Batch-layer hyperparameters.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Configuration of the underlying per-region Algorithm 1 runs. Its
    /// [`OpenApiConfig::rtol`] is also the cached-region membership
    /// tolerance: membership and consistency judge the same identity.
    pub openapi: OpenApiConfig,
    /// Decimal places used to canonicalize recovered core parameters into a
    /// [`RegionFingerprint`] (default 6). See
    /// [`crate::decision::region_fingerprint`].
    pub fingerprint_digits: u32,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            openapi: OpenApiConfig::default(),
            fingerprint_digits: 6,
        }
    }
}

/// Hit/miss/query accounting for one batch (and cumulatively for the
/// interpreter's lifetime via [`BatchInterpreter::lifetime_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Instances submitted.
    pub instances: usize,
    /// Instances served from cache.
    pub hits: usize,
    /// Instances that ran the full Algorithm 1.
    pub misses: usize,
    /// Instances whose interpretation failed (budget exhaustion etc.).
    pub failures: usize,
    /// Prediction queries issued to the API.
    pub queries: usize,
    /// Distinct cached regions: for a per-batch outcome, the entries for the
    /// batch's class after processing; in
    /// [`BatchInterpreter::lifetime_stats`], the total cache size over all
    /// classes (equal to [`BatchInterpreter::cached_regions`]).
    pub regions: usize,
}

impl BatchStats {
    /// Folds one batch into the lifetime totals; `regions` is overwritten by
    /// the caller with the full cache size. Additions saturate: a long-lived
    /// interpreter's lifetime counters must clamp at the type maximum, not
    /// wrap (or panic in debug builds) once traffic crosses it.
    fn absorb(&mut self, other: &BatchStats) {
        self.instances = self.instances.saturating_add(other.instances);
        self.hits = self.hits.saturating_add(other.hits);
        self.misses = self.misses.saturating_add(other.misses);
        self.failures = self.failures.saturating_add(other.failures);
        self.queries = self.queries.saturating_add(other.queries);
    }
}

/// One instance's result within a batch.
#[derive(Debug, Clone)]
pub struct BatchItem {
    /// The interpretation — bit-identical across every instance of a region
    /// (shared out of the cache slot; a hit clones an [`Arc`], not the
    /// parameter payload).
    pub interpretation: Arc<Interpretation>,
    /// Canonical key of the region that produced it.
    pub fingerprint: RegionFingerprint,
    /// Whether the result came from cache.
    pub cache_hit: bool,
    /// Prediction queries spent on this instance (1 for a hit).
    pub queries: usize,
}

/// A processed batch: per-instance results plus the batch's statistics.
#[derive(Debug)]
pub struct BatchOutcome {
    /// One entry per input instance, in input order.
    pub results: Vec<Result<BatchItem, InterpretError>>,
    /// Accounting for this batch only.
    pub stats: BatchStats,
}

impl BatchOutcome {
    /// The successful interpretations, in input order (failures skipped).
    pub fn interpretations(&self) -> impl Iterator<Item = &Interpretation> {
        self.results
            .iter()
            .filter_map(|r| r.as_ref().ok())
            .map(|item| item.interpretation.as_ref())
    }
}

/// The region-deduplicating batch interpreter (see the module docs).
///
/// A thin adapter over [`RegionCache`]: this type owns the *batch* concerns
/// (per-instance probing, query accounting, statistics), while membership
/// lookup, fingerprint merging, and the collision fallback live in the
/// cache — the same code path `openapi-serve`'s shared cache, one
/// `RegionCache` behind one `RwLock`, builds on.
///
/// The cache persists across [`BatchInterpreter::interpret_batch`] calls, so
/// a long-lived instance keeps getting cheaper as traffic covers more of the
/// model's region structure. [`BatchInterpreter::clear_cache`] resets it.
#[derive(Debug)]
pub struct BatchInterpreter {
    config: BatchConfig,
    interpreter: OpenApiInterpreter,
    cache: RegionCache,
    lifetime: BatchStats,
}

impl Default for BatchInterpreter {
    fn default() -> Self {
        BatchInterpreter::new(BatchConfig::default())
    }
}

impl BatchInterpreter {
    /// Creates a batch interpreter with the given configuration.
    pub fn new(config: BatchConfig) -> Self {
        let interpreter = OpenApiInterpreter::new(config.openapi.clone());
        let cache = RegionCache::new(RegionCacheConfig {
            membership_rtol: config.openapi.rtol,
            ..RegionCacheConfig::default()
        });
        BatchInterpreter {
            config,
            interpreter,
            cache,
            lifetime: BatchStats::default(),
        }
    }

    /// Borrow the configuration.
    pub fn config(&self) -> &BatchConfig {
        &self.config
    }

    /// Borrow the underlying region cache.
    pub fn cache(&self) -> &RegionCache {
        &self.cache
    }

    /// Number of distinct regions currently cached (all classes).
    pub fn cached_regions(&self) -> usize {
        self.cache.len()
    }

    /// Cumulative statistics over every batch this interpreter has served.
    pub fn lifetime_stats(&self) -> BatchStats {
        self.lifetime
    }

    /// Drops every cached region. The lifetime counters are kept, but
    /// `regions` — a gauge of the *current* cache, not a counter — is reset
    /// to zero so the lifetime view never reports entries that no longer
    /// exist.
    pub fn clear_cache(&mut self) {
        self.cache.clear();
        self.lifetime.regions = 0;
    }

    /// Interprets `instances` for `class` against a black-box API,
    /// deduplicating by region.
    ///
    /// Instances run one at a time, in input order, so a batch is exactly
    /// its instances submitted one by one: each is validated, costs one
    /// membership probe, and is served by the first cached region that
    /// explains it (1 query instead of a full Algorithm-1 solve). A miss
    /// reuses the probe as Algorithm 1's `x⁰` equation, so nothing is
    /// queried twice, and admits the solved region before the next
    /// instance runs. Per-instance failures land as `Err` entries without
    /// aborting the batch.
    pub fn interpret_batch<M: PredictionApi, R: Rng>(
        &mut self,
        api: &M,
        instances: &[Vector],
        class: usize,
        rng: &mut R,
    ) -> BatchOutcome {
        let mut stats = BatchStats {
            instances: instances.len(),
            ..BatchStats::default()
        };
        let results = instances
            .iter()
            .map(|x| self.interpret_one(api, x, class, rng, &mut stats))
            .collect();
        stats.regions = self.cache.class_len(class);
        self.lifetime.absorb(&stats);
        self.lifetime.regions = self.cache.len();
        BatchOutcome { results, stats }
    }

    /// One instance of [`BatchInterpreter::interpret_batch`], tallied into
    /// `stats`.
    fn interpret_one<M: PredictionApi, R: Rng>(
        &mut self,
        api: &M,
        x: &Vector,
        class: usize,
        rng: &mut R,
        stats: &mut BatchStats,
    ) -> Result<BatchItem, InterpretError> {
        if let Err(e) = validate_request(api, x.as_slice(), class) {
            stats.failures += 1;
            return Err(e);
        }
        stats.queries += 1;
        let probe = Probe::query(api, x.clone());
        if let Some(hit) = self.cache.lookup_probe(x, probe.probs.as_slice(), class) {
            stats.hits += 1;
            return Ok(BatchItem {
                interpretation: hit.interpretation,
                fingerprint: hit.fingerprint,
                cache_hit: true,
                queries: 1,
            });
        }
        match self
            .interpreter
            .interpret_with_probe(api, probe, class, rng)
        {
            Ok(solved) => {
                // `solved.queries` counts the membership probe (as
                // Algorithm 1's x⁰ query), which is already tallied.
                stats.queries += solved.queries - 1;
                stats.misses += 1;
                Ok(self.admit(solved.interpretation, solved.queries))
            }
            Err(e) => {
                stats.queries += queries_consumed(&e);
                stats.failures += 1;
                Err(e)
            }
        }
    }

    /// Admits a freshly solved region into the cache (see
    /// [`RegionCache::insert`] for the merge/collision semantics) and builds
    /// the miss's [`BatchItem`] from the entry that ends up cached.
    fn admit(&mut self, interpretation: Interpretation, queries: usize) -> BatchItem {
        let fingerprint = interpretation.fingerprint(self.config.fingerprint_digits);
        let (cached, _) = self.cache.insert(fingerprint, Arc::new(interpretation));
        BatchItem {
            interpretation: cached.interpretation,
            fingerprint: cached.fingerprint,
            cache_hit: false,
            queries,
        }
    }
}

/// Sampling queries a failed interpretation spent beyond `x⁰`'s probe, read
/// off the error (a failed run returns no [`crate::openapi::OpenApiResult`]
/// to read it from). Budget exhaustion carries its own count; argument
/// validation spends none. Public so other accounting layers (the
/// `openapi-serve` service) charge failures identically.
pub fn queries_consumed(error: &InterpretError) -> usize {
    match error {
        InterpretError::BudgetExhausted { queries, .. } => queries.saturating_sub(1),
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openapi_api::{
        CountingApi, GroundTruthOracle, LinearSoftmaxModel, LocalLinearModel, TwoRegionPlm,
    };
    use openapi_linalg::Matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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

    /// A single-region model with a larger `d`, so the per-instance query
    /// cost (`≥ d + 2`) towers over the batch's 1-query hits.
    fn wide_linear_model(d: usize) -> LinearSoftmaxModel {
        let w = Matrix::from_fn(d, 3, |r, c| ((r * 3 + c) % 7) as f64 * 0.1 - 0.3);
        LinearSoftmaxModel::new(w, Vector(vec![0.1, -0.2, 0.05]))
    }

    fn clustered_instances(n: usize) -> Vec<Vector> {
        // Alternate between the two regions of `two_region_model`.
        (0..n)
            .map(|i| {
                let side = if i % 2 == 0 { 0.2 } else { 0.8 };
                Vector(vec![side, (i as f64 * 0.37).sin() * 0.4])
            })
            .collect()
    }

    #[test]
    fn batch_dedupes_to_one_solve_per_region() {
        let api = two_region_model();
        let instances = clustered_instances(20);
        let mut batch = BatchInterpreter::default();
        let mut rng = StdRng::seed_from_u64(1);
        let out = batch.interpret_batch(&api, &instances, 0, &mut rng);
        assert_eq!(out.stats.instances, 20);
        assert_eq!(out.stats.failures, 0);
        assert_eq!(out.stats.misses, 2, "one solve per region");
        assert_eq!(out.stats.hits, 18);
        assert_eq!(out.stats.regions, 2);
        assert_eq!(batch.cached_regions(), 2);
    }

    #[test]
    fn hits_are_bit_identical_within_a_region_and_exact() {
        let api = two_region_model();
        let instances = clustered_instances(10);
        let mut batch = BatchInterpreter::default();
        let mut rng = StdRng::seed_from_u64(2);
        let out = batch.interpret_batch(&api, &instances, 0, &mut rng);
        let items: Vec<&BatchItem> = out.results.iter().map(|r| r.as_ref().unwrap()).collect();
        for item in &items {
            // Same fingerprint ⇒ the very same Interpretation, bitwise.
            let rep = items
                .iter()
                .find(|o| o.fingerprint == item.fingerprint)
                .unwrap();
            assert_eq!(rep.interpretation, item.interpretation);
        }
        // And the cached answer is the region's exact ground truth.
        for (x, item) in instances.iter().zip(&items) {
            let truth = api.local_model(x.as_slice()).decision_features(0);
            let err = item.interpretation.decision_features.l1_distance(&truth);
            assert!(err.unwrap() < 1e-7);
        }
    }

    #[test]
    fn black_box_hits_cost_one_query_each() {
        let d = 16;
        let api = CountingApi::new(wide_linear_model(d));
        let instances: Vec<Vector> = (0..50)
            .map(|i| Vector((0..d).map(|j| ((i * d + j) as f64 * 0.11).cos()).collect()))
            .collect();
        let mut batch = BatchInterpreter::default();
        let mut rng = StdRng::seed_from_u64(3);
        let out = batch.interpret_batch(&api, &instances, 1, &mut rng);
        assert_eq!(out.stats.misses, 1, "single region: one solve");
        assert_eq!(out.stats.hits, 49);
        // Stats agree with the metered truth.
        assert_eq!(out.stats.queries as u64, api.queries());
        // 49 hits × 1 probe + one full Algorithm 1 run.
        let miss_cost = out.results[0].as_ref().unwrap().queries;
        assert_eq!(out.stats.queries, 49 + miss_cost);
        // ≥ 5× fewer queries than 50 per-instance runs (each ≥ miss_cost).
        assert!(out.stats.queries * 5 <= 50 * miss_cost);
    }

    #[test]
    fn cache_hit_returns_bit_identical_interpretation_to_the_cold_run() {
        // The paper's consistency property as a unit test: the cached entry
        // a hit serves IS the cold run's Interpretation, bit for bit.
        let api = two_region_model();
        let a = Vector(vec![0.1, 0.7]);
        let b = Vector(vec![0.3, -0.4]); // same region as `a`
        let cold = OpenApiInterpreter::default()
            .interpret(&api, &a, 0, &mut StdRng::seed_from_u64(5))
            .unwrap();
        let mut batch = BatchInterpreter::default();
        let out = batch.interpret_batch(&api, &[a, b], 0, &mut StdRng::seed_from_u64(5));
        let first = out.results[0].as_ref().unwrap();
        let second = out.results[1].as_ref().unwrap();
        assert!(!first.cache_hit);
        assert!(second.cache_hit);
        assert_eq!(*first.interpretation, cold.interpretation);
        assert_eq!(*second.interpretation, cold.interpretation);
    }

    #[test]
    fn lifetime_stats_survive_clear_cache_and_report_an_empty_cache() {
        // Regression: `clear_cache` used to leave `lifetime.regions` stale,
        // reporting entries that no longer existed until the next batch.
        let api = two_region_model();
        let mut batch = BatchInterpreter::default();
        let mut rng = StdRng::seed_from_u64(20);
        let first = batch.interpret_batch(&api, &clustered_instances(6), 0, &mut rng);
        assert_eq!(first.stats.misses, 2);
        let before = batch.lifetime_stats();
        assert_eq!(before.regions, 2);
        batch.clear_cache();
        let after = batch.lifetime_stats();
        // Counters survive; the cache gauge reflects the (now empty) cache.
        assert_eq!(after.instances, before.instances);
        assert_eq!(after.hits, before.hits);
        assert_eq!(after.misses, before.misses);
        assert_eq!(after.queries, before.queries);
        assert_eq!(after.regions, 0, "cleared cache must report zero regions");
    }

    #[test]
    fn lifetime_accounting_saturates_instead_of_overflowing() {
        // Regression: `absorb` used plain `+`, which panics in debug builds
        // (and wraps in release) once a lifetime counter nears the maximum.
        let mut lifetime = BatchStats {
            instances: usize::MAX - 1,
            hits: usize::MAX,
            misses: 3,
            failures: usize::MAX - 2,
            queries: usize::MAX,
            regions: 0,
        };
        let batch = BatchStats {
            instances: 5,
            hits: 5,
            misses: 5,
            failures: 5,
            queries: usize::MAX,
            regions: 7,
        };
        lifetime.absorb(&batch);
        assert_eq!(lifetime.instances, usize::MAX);
        assert_eq!(lifetime.hits, usize::MAX);
        assert_eq!(lifetime.misses, 8);
        assert_eq!(lifetime.failures, usize::MAX);
        assert_eq!(lifetime.queries, usize::MAX);
    }

    #[test]
    fn cache_persists_and_clears_across_batches() {
        let api = two_region_model();
        let mut batch = BatchInterpreter::default();
        let mut rng = StdRng::seed_from_u64(6);
        let first = batch.interpret_batch(&api, &clustered_instances(4), 0, &mut rng);
        assert_eq!(first.stats.misses, 2);
        let second = batch.interpret_batch(&api, &clustered_instances(4), 0, &mut rng);
        assert_eq!(second.stats.misses, 0, "warm cache serves everything");
        assert_eq!(batch.lifetime_stats().instances, 8);
        assert_eq!(batch.lifetime_stats().hits, 2 + 4);
        batch.clear_cache();
        assert_eq!(batch.cached_regions(), 0);
        let third = batch.interpret_batch(&api, &clustered_instances(4), 0, &mut rng);
        assert_eq!(third.stats.misses, 2, "cleared cache resolves again");
    }

    #[test]
    fn classes_do_not_share_cache_entries() {
        let api = two_region_model();
        let instances = clustered_instances(6);
        let mut batch = BatchInterpreter::default();
        let mut rng = StdRng::seed_from_u64(7);
        let c0 = batch.interpret_batch(&api, &instances, 0, &mut rng);
        let c1 = batch.interpret_batch(&api, &instances, 1, &mut rng);
        assert_eq!(c0.stats.misses, 2);
        assert_eq!(c1.stats.misses, 2, "class 1 must not reuse class 0");
        assert_eq!(c0.stats.regions, 2);
        assert_eq!(c1.stats.regions, 2);
        assert_eq!(batch.cached_regions(), 4);
        // Lifetime stats report the full cache, not a per-class view.
        assert_eq!(batch.lifetime_stats().regions, 4);
        for r in c1.results.iter().take(1) {
            assert_eq!(r.as_ref().unwrap().interpretation.class, 1);
        }
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
        let api = TwoRegionPlm::axis_split(0, 0.5, low, high);
        let cfg = BatchConfig {
            fingerprint_digits: 0,
            ..BatchConfig::default()
        };
        let mut batch = BatchInterpreter::new(cfg);
        let mut rng = StdRng::seed_from_u64(10);
        let instances = [
            Vector(vec![0.1, 0.3]),  // low region
            Vector(vec![0.9, -0.2]), // high region — colliding fingerprint
            Vector(vec![0.8, 0.4]),  // high region again — must hit entry 2
        ];
        let out = batch.interpret_batch(&api, &instances, 0, &mut rng);
        let items: Vec<&BatchItem> = out.results.iter().map(|r| r.as_ref().unwrap()).collect();
        assert_eq!(items[0].fingerprint, items[1].fingerprint, "collision");
        assert_ne!(items[0].interpretation, items[1].interpretation);
        assert_eq!(out.stats.misses, 2);
        assert_eq!(out.stats.hits, 1);
        assert!(items[2].cache_hit, "un-indexed entry still serves hits");
        assert_eq!(items[2].interpretation, items[1].interpretation);
        for (x, item) in instances.iter().zip(&items) {
            let truth = api.local_model(x.as_slice()).decision_features(0);
            let err = item
                .interpretation
                .decision_features
                .l1_distance(&truth)
                .unwrap();
            assert!(err < 1e-7, "served the wrong region: L1Dist {err}");
        }
    }

    #[test]
    fn per_instance_failures_do_not_abort_the_batch() {
        let api = two_region_model();
        let mut batch = BatchInterpreter::default();
        let mut rng = StdRng::seed_from_u64(8);
        let bad = Vector(vec![0.0; 5]); // wrong dimension
        let good = Vector(vec![0.2, 0.1]);
        let out = batch.interpret_batch(&api, &[bad, good], 0, &mut rng);
        assert!(matches!(
            out.results[0],
            Err(InterpretError::DimensionMismatch { .. })
        ));
        assert!(out.results[1].is_ok());
        assert_eq!(out.stats.failures, 1);
        assert_eq!(out.interpretations().count(), 1);
    }

    #[test]
    fn invalid_instances_fail_without_queries() {
        let api = CountingApi::new(two_region_model());
        let mut batch = BatchInterpreter::default();
        let mut rng = StdRng::seed_from_u64(11);
        let instances = [
            Vector(vec![f64::NAN, 0.1]),
            Vector(vec![0.2, 0.1]),
            Vector(vec![0.3, f64::NEG_INFINITY]),
        ];
        let out = batch.interpret_batch(&api, &instances, 0, &mut rng);
        assert_eq!(
            out.results[0].as_ref().unwrap_err(),
            &InterpretError::NonFiniteInstance { index: 0 }
        );
        assert!(out.results[1].is_ok());
        assert_eq!(
            out.results[2].as_ref().unwrap_err(),
            &InterpretError::NonFiniteInstance { index: 1 }
        );
        assert_eq!(out.stats.failures, 2);
        assert_eq!(out.stats.queries as u64, api.queries());
        assert_eq!(out.stats.queries, out.results[1].as_ref().unwrap().queries);
        // A class the model lacks fails every instance, query-free.
        let before = api.queries();
        let out = batch.interpret_batch(&api, &instances[1..2], 7, &mut rng);
        assert!(matches!(
            out.results[0],
            Err(InterpretError::ClassOutOfRange { .. })
        ));
        assert_eq!((out.stats.failures, out.stats.queries), (1, 0));
        assert_eq!(api.queries(), before);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let api = two_region_model();
        let mut batch = BatchInterpreter::default();
        let mut rng = StdRng::seed_from_u64(9);
        let out = batch.interpret_batch(&api, &[], 0, &mut rng);
        assert!(out.results.is_empty());
        assert_eq!(out.stats, BatchStats::default());
    }
}
