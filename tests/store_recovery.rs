//! Crash-recovery coverage of the durable region store through the
//! facade: a WAL torn at *every* byte boundary, or corrupted by random
//! byte flips, must either recover a valid prefix of what was written or
//! reject the damage outright — it may never produce a record that was
//! not written. On top of the byte-level guarantees, the service-level
//! restart contract: an `InterpretationService` reopened against the same
//! store directory re-serves every previously solved region with zero
//! additional Algorithm-1 solves, and a store written by a *different*
//! model degrades to ordinary solves (membership re-verification guards
//! every serve). Plus a property-based round trip of arbitrary
//! interpretations through the record codec, bit for bit.

use openapi_repro::api::CountingApi;
use openapi_repro::core::cache::CachedRegion;
use openapi_repro::core::decision::{Interpretation, PairwiseCoreParams};
use openapi_repro::prelude::*;
use openapi_repro::serve::ServeOutcome;
use openapi_repro::store::record::{
    self, encode_record, encode_tombstone, RegionTombstone, StoreRecord,
};
use openapi_repro::store::{Wal, WAL_MAGIC};
use openapi_repro::sync::atomic::{AtomicU64, Ordering};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::sync::Arc;

mod common;
use common::{two_region_plm, DIM};

/// A unique, created temp directory per call; every test removes its own.
fn temp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "openapi_store_it_{tag}_{}_{}",
        std::process::id(),
        // ordering: Relaxed — uniqueness only; nothing published.
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A synthetic region whose single weight vector encodes its identity.
fn region(class: usize, weights: Vec<f64>, bias: f64) -> CachedRegion {
    let interpretation = Interpretation::from_pairwise(
        class,
        vec![PairwiseCoreParams {
            c_prime: class + 1,
            weights: Vector(weights),
            bias,
        }],
    )
    .unwrap();
    CachedRegion {
        fingerprint: interpretation.fingerprint(6),
        interpretation: Arc::new(interpretation),
    }
}

/// A tombstone suppressing `r`'s `(class, fingerprint)` key.
fn tombstone_of(r: &CachedRegion) -> StoreRecord {
    StoreRecord::Tombstone(RegionTombstone {
        fingerprint: r.fingerprint,
        class: r.interpretation.class,
    })
}

/// Encodes any store record into its WAL frame.
fn frame_of(record: &StoreRecord) -> Vec<u8> {
    match record {
        StoreRecord::Live(r) => encode_record(r.fingerprint, &r.interpretation),
        StoreRecord::Tombstone(t) => encode_tombstone(*t),
    }
}

/// Writes `records` — live regions and tombstones alike — into a fresh
/// WAL file and returns its raw bytes.
fn wal_bytes(dir: &std::path::Path, records: &[StoreRecord]) -> Vec<u8> {
    let path = dir.join("wal.log");
    let (mut wal, _) = Wal::open(&path).unwrap();
    let frames: Vec<Vec<u8>> = records.iter().map(frame_of).collect();
    wal.append(&frames).unwrap();
    wal.sync().unwrap();
    drop(wal);
    std::fs::read(&path).unwrap()
}

/// Recovers a WAL from `bytes` (written into a scratch file) and asserts
/// the fundamental safety property: the recovered records are exactly a
/// prefix of `originals` — bit-identical, in order, possibly shorter,
/// never different and never reordered. Tombstones obey the same law:
/// damage can lose a suppression from the tail, never invent one.
fn recover_and_check_prefix(scratch: &std::path::Path, bytes: &[u8], originals: &[StoreRecord]) {
    let path = scratch.join("wal.log");
    std::fs::write(&path, bytes).unwrap();
    match Wal::open(&path) {
        Ok((_, recovery)) => {
            assert!(
                recovery.records.len() <= originals.len(),
                "recovered more records than were written"
            );
            for (got, want) in recovery.records.iter().zip(originals) {
                assert_eq!(
                    got, want,
                    "recovery must never yield a record that was not written"
                );
            }
        }
        Err(e) => {
            // Refusal (e.g. the magic itself was damaged) is as safe as a
            // prefix — the store never trusts damaged framing.
            assert!(
                matches!(e, StoreError::BadMagic { .. }),
                "only a damaged header may abort recovery, got {e}"
            );
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn truncating_the_wal_at_every_byte_boundary_recovers_a_valid_prefix() {
    let dir = temp_dir("truncate");
    // Mixed live records and tombstones: one tombstone retracting an
    // earlier record in the same log, one for a key the log never held
    // (replicated from a peer before the record itself arrived).
    let live: Vec<CachedRegion> = (0..5)
        .map(|i| {
            region(
                i % 3,
                vec![i as f64 + 0.5, -(i as f64) * 0.25],
                0.125 * i as f64,
            )
        })
        .collect();
    let foreign = region(1, vec![99.0, -3.5], 0.75);
    let originals: Vec<StoreRecord> = vec![
        StoreRecord::Live(live[0].clone()),
        StoreRecord::Live(live[1].clone()),
        tombstone_of(&live[0]),
        StoreRecord::Live(live[2].clone()),
        tombstone_of(&foreign),
        StoreRecord::Live(live[3].clone()),
        StoreRecord::Live(live[4].clone()),
        tombstone_of(&live[4]),
    ];
    let clean = wal_bytes(&dir, &originals);
    let scratch = temp_dir("truncate_scratch");
    // Every truncation point, exhaustively — including mid-header,
    // mid-frame-length, mid-CRC, and mid-payload positions.
    for keep in 0..=clean.len() {
        recover_and_check_prefix(&scratch, &clean[..keep], &originals);
    }
    // The untruncated log recovers everything.
    let path = scratch.join("wal.log");
    std::fs::write(&path, &clean).unwrap();
    let (_, recovery) = Wal::open(&path).unwrap();
    assert_eq!(recovery.records, originals);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&scratch).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random byte flips anywhere in the log (header included): recovery
    /// yields a valid prefix or fails with a checksum/framing error —
    /// never a record that was not written. CRC-64 makes a silently
    /// accepted corruption a ~2⁻⁶⁴ event; these cases assert the handling
    /// around it. Seeds divisible by 3 chase their record with its
    /// tombstone, so the sweep covers mixed-kind logs too.
    #[test]
    fn random_byte_flips_never_yield_a_wrong_record(
        seeds in prop::collection::vec(0u64..1_000_000, 1..5),
        flips in prop::collection::vec((0usize..10_000, 1u8..=255), 1..8)
    ) {
        let mut originals: Vec<StoreRecord> = Vec::new();
        for (i, &s) in seeds.iter().enumerate() {
            let w = (s % 997) as f64 * 0.01 - 4.0;
            let r = region(i % 4, vec![w, w * 0.5 - 1.0, 0.25], (s % 31) as f64 * 0.1);
            if s % 3 == 0 {
                originals.push(tombstone_of(&r));
            }
            originals.push(StoreRecord::Live(r));
        }
        let dir = temp_dir("flip");
        let clean = wal_bytes(&dir, &originals);
        let mut corrupted = clean.clone();
        for (pos, xor) in &flips {
            let at = pos % corrupted.len();
            corrupted[at] ^= xor;
        }
        let scratch = temp_dir("flip_scratch");
        recover_and_check_prefix(&scratch, &corrupted, &originals);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&scratch).ok();
    }
}

#[test]
fn damaged_magic_refuses_instead_of_guessing() {
    let dir = temp_dir("magic");
    let clean = wal_bytes(&dir, &[StoreRecord::Live(region(0, vec![1.0], 0.0))]);
    let mut damaged = clean;
    damaged[3] ^= 0xFF; // inside the 8-byte magic
    let path = dir.join("damaged.log");
    std::fs::write(&path, &damaged).unwrap();
    assert!(matches!(Wal::open(&path), Err(StoreError::BadMagic { .. })));
    // Sanity: the magic constant is what the file actually starts with.
    let (reopened, _) = Wal::open(&dir.join("wal.log")).unwrap();
    drop(reopened);
    let bytes = std::fs::read(dir.join("wal.log")).unwrap();
    assert_eq!(
        u64::from_le_bytes(bytes[..8].try_into().unwrap()),
        WAL_MAGIC
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Instances covering both regions of the shared two-region PLM.
fn workload(n: usize) -> Vec<Vector> {
    (0..n)
        .map(|i| {
            let mut x: Vec<f64> = (0..DIM)
                .map(|j| ((i * DIM + j) as f64 * 0.61).cos() * 0.4)
                .collect();
            x[1] = if i % 2 == 0 { -0.6 } else { 1.1 };
            Vector(x)
        })
        .collect()
}

#[test]
fn restarted_service_reserves_from_the_store_with_zero_solves() {
    let dir = temp_dir("service_restart");
    // 4 instances over 2 regions at d = 8: the cold run pays 2 solves
    // (≥ 10 queries each) + 2 probes, the warm run 4 probes — so the ≥5×
    // query-reduction bound below is meaningful, not slack.
    let instances = workload(4);

    // Run 1: cold — every region pays its Algorithm-1 solve, and the
    // store's WAL absorbs the solved regions.
    let svc = InterpretationService::open(
        CountingApi::new(two_region_plm()),
        ServiceConfig::default(),
        &dir,
    )
    .unwrap();
    for x in &instances {
        svc.submit_instance(x.clone(), 0).wait().unwrap();
    }
    let cold = svc.stats();
    assert!(cold.misses >= 2, "both regions solved");
    let cold_queries = cold.queries;
    svc.close().unwrap();

    // Run 2: a brand-new process image (fresh service, fresh cache) over
    // the same directory. Zero additional solves; every request costs
    // exactly its one membership probe.
    let svc = InterpretationService::open(
        CountingApi::new(two_region_plm()),
        ServiceConfig::default(),
        &dir,
    )
    .unwrap();
    let mut outcomes = Vec::new();
    for x in &instances {
        let served = svc.submit_instance(x.clone(), 0).wait().unwrap();
        assert_eq!(served.queries, 1, "restart pays one probe per request");
        outcomes.push(served.outcome);
    }
    let warm = svc.stats();
    assert_eq!(warm.misses, 0, "zero Algorithm-1 solves after restart");
    assert_eq!(warm.store_hits, 2, "one store hit per region, then cache");
    assert!(outcomes
        .iter()
        .all(|o| matches!(o, ServeOutcome::StoreHit | ServeOutcome::CacheHit)));
    assert_eq!(warm.queries, instances.len() as u64);
    assert!(
        cold_queries >= 5 * warm.queries,
        "warm restart must cut queries ≥5×: {cold_queries} vs {}",
        warm.queries
    );
    // Exactness after recovery: the served parameters still match the
    // ground truth of each instance's own region.
    let model = two_region_plm();
    let served = svc.submit_instance(instances[0].clone(), 0).wait().unwrap();
    let truth = model
        .local_model(instances[0].as_slice())
        .decision_features(0);
    let err = served
        .interpretation
        .decision_features
        .l1_distance(&truth)
        .unwrap();
    assert!(err < 1e-7, "L1Dist {err}");
    svc.close().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_wal_tail_costs_at_most_the_torn_region() {
    // Crash mid-append: the service reopens against a WAL whose last
    // record is torn. The intact region is re-served from the store; the
    // torn one is transparently re-solved. No error, no wrong answer.
    let dir = temp_dir("service_torn");
    let instances = workload(2); // one instance per region
    let svc = InterpretationService::open(
        CountingApi::new(two_region_plm()),
        ServiceConfig::default(),
        &dir,
    )
    .unwrap();
    for x in &instances {
        svc.submit_instance(x.clone(), 0).wait().unwrap();
    }
    svc.close().unwrap();

    // Simulate the crash: tear bytes off the WAL tail (into the second
    // record).
    let wal_path = dir.join("wal.log");
    let len = std::fs::metadata(&wal_path).unwrap().len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&wal_path)
        .unwrap()
        .set_len(len - 9)
        .unwrap();

    let svc = InterpretationService::open(
        CountingApi::new(two_region_plm()),
        ServiceConfig::default(),
        &dir,
    )
    .unwrap();
    assert_eq!(
        svc.store().unwrap().len(),
        1,
        "one region survived the tear"
    );
    assert!(svc.store().unwrap().stats().recovered_discarded_bytes > 0);
    for x in &instances {
        let served = svc.submit_instance(x.clone(), 0).wait().unwrap();
        assert!(served.interpretation.explains_probe(
            x,
            two_region_plm().predict(x.as_slice()).as_slice(),
            1e-6
        ));
    }
    let stats = svc.stats();
    assert_eq!(stats.misses, 1, "only the torn region re-solves");
    assert_eq!(stats.store_hits, 1);
    svc.close().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn store_written_by_a_different_model_never_poisons_serves() {
    // The snapshot-from-wrong-model regression, mirrored against the
    // durable tier: records recovered from an unrelated model's store can
    // never pass the live membership test, so requests fall through to
    // clean solves.
    let dir = temp_dir("service_foreign");
    let mut rng = StdRng::seed_from_u64(11);
    let foreign: Vec<CachedRegion> = (0..4)
        .map(|i| {
            region(
                i % 3,
                (0..DIM).map(|_| rng.gen_range(-2.0..2.0)).collect(),
                rng.gen_range(-1.0..1.0),
            )
        })
        .collect();
    {
        let store = RegionStore::open(&dir, StoreConfig::default()).unwrap();
        for r in &foreign {
            store.append(r.fingerprint, Arc::clone(&r.interpretation));
        }
        store.close().unwrap();
    }

    let svc = InterpretationService::open(
        CountingApi::new(two_region_plm()),
        ServiceConfig::default(),
        &dir,
    )
    .unwrap();
    assert_eq!(svc.store().unwrap().len(), 4, "foreign records recovered");
    let instances = workload(4);
    for x in &instances {
        let served = svc
            .submit_instance(x.clone(), 0)
            .wait()
            .expect("foreign store must not poison the class");
        assert!(matches!(
            served.outcome,
            ServeOutcome::Solved | ServeOutcome::CacheHit | ServeOutcome::Coalesced
        ));
    }
    let stats = svc.stats();
    assert_eq!(stats.store_hits, 0, "foreign records never pass membership");
    assert_eq!(stats.failures, 0);
    svc.close().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_recovered_tombstone_still_suppresses_its_region() {
    // Durability of "forget this region": the suppression must survive a
    // restart (WAL replay), a compaction (segment rewrite), and a restart
    // after the compaction — and keep refusing re-appends at every stage.
    let dir = temp_dir("tombstone_durability");
    let kept = region(0, vec![1.0, 2.0], 0.5);
    let dead = region(1, vec![-3.0, 0.25], -1.5);
    let dead_class = dead.interpretation.class;
    {
        let store = RegionStore::open(&dir, StoreConfig::default()).unwrap();
        assert!(store.append(kept.fingerprint, Arc::clone(&kept.interpretation)));
        assert!(store.append(dead.fingerprint, Arc::clone(&dead.interpretation)));
        assert!(store.tombstone(dead_class, dead.fingerprint));
        store.close().unwrap();
    }

    let assert_suppressed = |store: &RegionStore, when: &str| {
        assert!(
            store.contains_tombstone(dead_class, dead.fingerprint),
            "{when}: tombstone lost"
        );
        assert!(
            !store.contains_fingerprint(dead_class, dead.fingerprint),
            "{when}: suppressed record resurfaced"
        );
        assert!(
            store.contains_fingerprint(kept.interpretation.class, kept.fingerprint),
            "{when}: unrelated record lost"
        );
        assert_eq!(store.len(), 1, "{when}: live count");
        assert!(
            !store.append(dead.fingerprint, Arc::clone(&dead.interpretation)),
            "{when}: a tombstoned key must refuse re-appends"
        );
    };

    // Restart 1: the tombstone replays from the WAL.
    let store = RegionStore::open(&dir, StoreConfig::default()).unwrap();
    assert_suppressed(&store, "after WAL replay");
    // Compaction folds the WAL into segments; the suppression must be
    // carried into the rewritten files, not resurrected out of them.
    store.compact().unwrap();
    assert_suppressed(&store, "after compaction");
    store.close().unwrap();

    // Restart 2: recovery now reads the compacted segments.
    let store = RegionStore::open(&dir, StoreConfig::default()).unwrap();
    assert_suppressed(&store, "after compacted restart");
    store.close().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// Strategy: an arbitrary (but valid) interpretation — 1–3 contrasts over
/// distinct classes, finite weights/biases at mixed magnitudes.
fn arb_interpretation() -> impl Strategy<Value = Interpretation> {
    (
        0usize..4,
        1usize..4,
        prop::collection::vec(-1e6f64..1e6, 1..6),
    )
        .prop_flat_map(|(class, contrasts, weights)| {
            let d = weights.len();
            prop::collection::vec(
                (prop::collection::vec(-1e6f64..1e6, d), -1e3f64..1e3),
                contrasts..=contrasts,
            )
            .prop_map(move |per_contrast| {
                let pairwise = per_contrast
                    .into_iter()
                    .enumerate()
                    .map(|(k, (w, bias))| PairwiseCoreParams {
                        // Distinct contrast classes, never equal to `class`.
                        c_prime: class + k + 1,
                        weights: Vector(w),
                        bias,
                    })
                    .collect();
                Interpretation::from_pairwise(class, pairwise).expect("non-empty contrasts")
            })
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn record_codec_round_trips_fingerprints_and_parameters(
        interps in prop::collection::vec(arb_interpretation(), 0..8)
    ) {
        let mut bytes = Vec::new();
        for i in &interps {
            record::put_record(&mut bytes, i.fingerprint(6), i);
        }
        let mut rest = bytes.as_slice();
        for original in &interps {
            let decoded = record::get_record(&mut rest).unwrap();
            // Recovered parameters are bit-identical…
            prop_assert_eq!(decoded.interpretation.as_ref(), original);
            prop_assert_eq!(decoded.fingerprint, original.fingerprint(6));
            // …so the canonical fingerprint recomputes identically too.
            prop_assert_eq!(decoded.fingerprint, decoded.interpretation.fingerprint(6));
        }
        prop_assert!(rest.is_empty(), "every frame consumed exactly");
    }
}
