//! Characterization of the durable store's membership lookup: for random
//! small-dimension, multi-class region sets — with forced fingerprint
//! collisions, agreeing re-solves under colliding keys, duplicate appends
//! and tombstoned keys — `RegionStore::lookup_probe` returns the *first
//! admitted* live region of the probed class whose parameters explain the
//! probe (`Interpretation::explains_probe`), exactly as a reference scan
//! over the admitted regions computes it. The same holds after a close and
//! reopen, with or without a compaction before the close. The serving
//! tier's `SharedRegionCache`, replayed the same live regions in admission
//! order, resolves every probe to the same interpretation.
//!
//! Admission itself is read off `append`'s return value, so the reference
//! pins lookup order and tombstone suppression without re-deriving the
//! store's merge rule.

use openapi_repro::core::decision::{Interpretation, PairwiseCoreParams, RegionFingerprint};
use openapi_repro::prelude::*;
use openapi_repro::sync::atomic::{AtomicU64, Ordering};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::sync::Arc;

/// Classes of the synthetic model.
const CLASSES: usize = 3;

/// A unique, created temp directory per call; every case removes its own.
fn temp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "openapi_store_order_{tag}_{}_{}",
        std::process::id(),
        // ordering: Relaxed — uniqueness only; nothing published.
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A random region of a random class with one or two contrasts. Weights
/// and biases come from a small grid, so distinct regions often agree on
/// a probe whose nonzero coordinates they share — which is what makes the
/// admission order of overlapping regions observable.
fn random_region(rng: &mut StdRng, d: usize) -> Arc<Interpretation> {
    const GRID: [f64; 5] = [-1.0, -0.5, 0.0, 0.5, 1.0];
    let class = rng.gen_range(0..CLASSES);
    let contrasts = rng.gen_range(1..CLASSES);
    let pairwise = (1..=contrasts)
        .map(|k| PairwiseCoreParams {
            c_prime: (class + k) % CLASSES,
            weights: Vector((0..d).map(|_| GRID[rng.gen_range(0..GRID.len())]).collect()),
            bias: GRID[rng.gen_range(0..GRID.len())],
        })
        .collect();
    Arc::new(Interpretation::from_pairwise(class, pairwise).unwrap())
}

/// A probe on a grid with zero coordinates, so regions that differ only
/// where the probe is zero explain it alike.
fn random_probe(rng: &mut StdRng, d: usize) -> Vector {
    const GRID: [f64; 4] = [0.0, 0.0, 0.5, -1.0];
    Vector((0..d).map(|_| GRID[rng.gen_range(0..GRID.len())]).collect())
}

/// The prediction `region` would produce at `x`: class probabilities whose
/// log-ratios against the region's class reproduce every contrast.
fn consistent_probs(region: &Interpretation, x: &Vector) -> Vec<f64> {
    let mut logits = [0.0; CLASSES];
    for p in &region.pairwise {
        logits[p.c_prime] = -(p.weights.dot(x).unwrap() + p.bias);
    }
    let z: f64 = logits.iter().map(|l| l.exp()).sum();
    logits.iter().map(|l| l.exp() / z).collect()
}

type Admitted = Vec<(RegionFingerprint, Arc<Interpretation>)>;

/// The reference scan: the first admitted live region of `class` whose
/// parameters explain `probs` at `x`.
fn reference(
    admitted: &Admitted,
    x: &Vector,
    probs: &[f64],
    class: usize,
    rtol: f64,
) -> Option<(RegionFingerprint, Interpretation)> {
    admitted
        .iter()
        .find(|(_, i)| i.class == class && i.explains_probe(x, probs, rtol))
        .map(|(fp, i)| (*fp, i.as_ref().clone()))
}

/// Every probe in `probes` resolves on `store` exactly as the reference
/// scan resolves it; the live count and key membership agree too.
fn check(
    store: &RegionStore,
    admitted: &Admitted,
    probes: &[(Vector, Vec<f64>, usize)],
    rtol: f64,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(store.len(), admitted.len());
    for (fp, i) in admitted {
        prop_assert!(store.contains_fingerprint(i.class, *fp));
    }
    for (x, probs, class) in probes {
        let got = store
            .lookup_probe(x, probs, *class)
            .map(|hit| (hit.fingerprint, hit.interpretation.as_ref().clone()));
        let want = reference(admitted, x, probs, *class, rtol);
        prop_assert_eq!(got, want, "probe {:?} of class {}", x, class);
    }
    Ok(())
}

/// Every probe resolves on a `SharedRegionCache` that admitted the live
/// regions in order to the reference scan's interpretation. Fingerprints
/// are not compared: the cache keys each region by its own fingerprint.
fn check_service_cache(
    admitted: &Admitted,
    probes: &[(Vector, Vec<f64>, usize)],
    rtol: f64,
) -> Result<(), TestCaseError> {
    let cache = SharedRegionCache::new(SharedCacheConfig::default());
    prop_assert_eq!(cache.config().membership_rtol, rtol);
    for (_, i) in admitted {
        cache.insert(Arc::clone(i));
    }
    for (x, probs, class) in probes {
        let got = cache
            .lookup_probe(x, probs, *class)
            .map(|hit| hit.interpretation.as_ref().clone());
        let want = reference(admitted, x, probs, *class, rtol).map(|(_, i)| i);
        prop_assert_eq!(got, want, "probe {:?} of class {}", x, class);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lookup_serves_the_first_admitted_live_region_that_explains_the_probe(
        seed in 0u64..u64::MAX,
        d in 1usize..4,
        ops in 4usize..48
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dir = temp_dir("case");
        let config = StoreConfig::default();
        let rtol = config.membership_rtol;
        let store = RegionStore::open(&dir, config.clone()).unwrap();
        // Every region ever offered, with the key it was offered under.
        let mut offered: Admitted = Vec::new();
        let mut admitted: Admitted = Vec::new();
        for _ in 0..ops {
            let roll = rng.gen_range(0..10);
            if roll < 2 && !offered.is_empty() {
                // Tombstone a key offered earlier (admitted or not).
                let (fp, i) = offered[rng.gen_range(0..offered.len())].clone();
                store.tombstone(i.class, fp);
                admitted.retain(|(f, r)| !(*f == fp && r.class == i.class));
                continue;
            }
            let (fp, interpretation) = if roll < 4 && !offered.is_empty() {
                // Re-offer an earlier region: an exact duplicate, or an
                // agreeing re-solve (last-bit perturbation) under a key
                // borrowed from another offered region.
                let (fp, i) = offered[rng.gen_range(0..offered.len())].clone();
                if rng.gen_bool(0.5) {
                    (fp, i)
                } else {
                    let mut pairwise = i.pairwise.clone();
                    pairwise[0].bias += 1e-12;
                    let key = offered[rng.gen_range(0..offered.len())].0;
                    let twin = Interpretation::from_pairwise(i.class, pairwise).unwrap();
                    (key, Arc::new(twin))
                }
            } else {
                let i = random_region(&mut rng, d);
                // Half the fresh regions are keyed into a tiny fingerprint
                // space, forcing collisions between genuinely different
                // regions of one class.
                let fp = if rng.gen_bool(0.5) {
                    RegionFingerprint(rng.gen_range(0..3))
                } else {
                    i.fingerprint(6)
                };
                (fp, i)
            };
            if store.append(fp, Arc::clone(&interpretation)) {
                admitted.push((fp, Arc::clone(&interpretation)));
            }
            offered.push((fp, interpretation));
        }

        // Probes consistent with offered regions (live, merged away or
        // tombstoned), probed under their own class or a random one, plus
        // probes no region was built for.
        let mut probes = Vec::new();
        for _ in 0..4 * ops {
            let x = random_probe(&mut rng, d);
            let (probs, class) = if rng.gen_bool(0.8) {
                let (_, i) = &offered[rng.gen_range(0..offered.len())];
                let class = if rng.gen_bool(0.9) { i.class } else { rng.gen_range(0..CLASSES) };
                (consistent_probs(i, &x), class)
            } else {
                let mut p: Vec<f64> = (0..CLASSES).map(|_| rng.gen_range(0.05..1.0)).collect();
                let z: f64 = p.iter().sum();
                p.iter_mut().for_each(|v| *v /= z);
                (p, rng.gen_range(0..CLASSES))
            };
            probes.push((x, probs, class));
        }
        check(&store, &admitted, &probes, rtol)?;
        check_service_cache(&admitted, &probes, rtol)?;

        if rng.gen_bool(0.5) {
            store.compact().unwrap();
            check(&store, &admitted, &probes, rtol)?;
        }
        store.close().unwrap();
        let store = RegionStore::open(&dir, config).unwrap();
        check(&store, &admitted, &probes, rtol)?;
        store.close().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
