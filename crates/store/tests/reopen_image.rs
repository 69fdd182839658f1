//! A reopened store is an exact image of the one that wrote it: the same
//! digest, sync keys, live and tombstone counts, sync-delta frames, and
//! lookup answers — whether it recovers from the WAL or, after
//! compaction, from a sealed segment.

use openapi_core::cache::CachedRegion;
use openapi_core::decision::{Interpretation, PairwiseCoreParams};
use openapi_linalg::Vector;
use openapi_store::{RegionStore, StoreConfig, StoreDigest, SyncDelta, DIGEST_BUCKETS};
use std::path::PathBuf;
use std::sync::Arc;

/// A created temp directory unique to this test process.
fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("openapi_store_image_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A one-contrast region whose weights encode its identity.
fn region(class: usize, weights: &[f64], bias: f64) -> CachedRegion {
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

/// A probe `(x, probs)` that `r`'s membership test accepts.
fn probe_of(r: &CachedRegion) -> (Vector, Vec<f64>) {
    let x = Vector(vec![0.3, -0.2, 0.7]);
    let p = &r.interpretation.pairwise[0];
    let ratio = (p.weights.dot(&x).unwrap() + p.bias).exp();
    let mut probs = vec![0.0; p.c_prime + 1];
    probs[r.interpretation.class] = ratio / (1.0 + ratio);
    probs[p.c_prime] = 1.0 / (1.0 + ratio);
    (x, probs)
}

/// Everything a reader can observe of a store's record set.
#[derive(Debug, PartialEq)]
struct Image {
    digest: StoreDigest,
    keys: Vec<u64>,
    len: usize,
    tombstones: usize,
    delta: SyncDelta,
    lookups: Vec<Option<CachedRegion>>,
}

fn image(store: &RegionStore, members: &[CachedRegion]) -> Image {
    let all_buckets: Vec<u32> = (0..DIGEST_BUCKETS as u32).collect();
    Image {
        digest: store.digest(),
        keys: store.record_keys(),
        len: store.len(),
        tombstones: store.tombstone_count(),
        delta: store.sync_delta(&all_buckets, &[], usize::MAX),
        lookups: members
            .iter()
            .map(|r| {
                let (x, probs) = probe_of(r);
                store.lookup_probe(&x, &probs, r.interpretation.class)
            })
            .collect(),
    }
}

#[test]
fn a_reopened_store_is_an_exact_image_of_its_writer() {
    let dir = temp_dir("reopen");
    let writer = RegionStore::open(&dir, StoreConfig::default()).unwrap();
    let live: Vec<CachedRegion> = (0..6)
        .map(|i| {
            let w = i as f64;
            region(i % 3, &[w + 0.5, -0.25 * w, 1.0 - w], 0.125 * w)
        })
        .collect();
    for r in &live {
        assert!(writer.append(r.fingerprint, Arc::clone(&r.interpretation)));
    }
    // A re-append of a stored region is a no-op.
    assert!(!writer.append(live[2].fingerprint, Arc::clone(&live[2].interpretation)));
    // A fingerprint collision: a distinct region under live[1]'s key.
    let collided = CachedRegion {
        fingerprint: live[1].fingerprint,
        interpretation: region(1, &[-3.0, 2.0, 0.5], -1.5).interpretation,
    };
    assert!(writer.append(collided.fingerprint, Arc::clone(&collided.interpretation)));
    // A tombstone suppressing live[4].
    assert!(writer.tombstone(live[4].interpretation.class, live[4].fingerprint));
    writer.flush().unwrap();

    let mut members = live.clone();
    members.push(collided);
    let expect = image(&writer, &members);
    assert_eq!(expect.len, 6, "five live regions plus the collided one");
    assert_eq!(expect.tombstones, 1);
    assert!(expect.lookups[1].is_some() && expect.lookups[6].is_some());
    assert!(expect.lookups[4].is_none(), "the tombstoned region is gone");
    writer.close().unwrap();

    // Through the WAL.
    let from_wal = RegionStore::open(&dir, StoreConfig::default()).unwrap();
    assert_eq!(from_wal.stats().recovered_wal_records, 8);
    assert_eq!(image(&from_wal, &members), expect);
    from_wal.compact().unwrap();
    from_wal.close().unwrap();

    // Through the sealed segment.
    let from_segment = RegionStore::open(&dir, StoreConfig::default()).unwrap();
    let stats = from_segment.stats();
    assert_eq!(stats.recovered_wal_records, 0);
    assert_eq!(
        stats.recovered_segment_records, 7,
        "six live plus one tombstone"
    );
    assert_eq!(image(&from_segment, &members), expect);
    from_segment.close().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
