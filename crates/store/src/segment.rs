//! Sealed, immutable segment files.
//!
//! Compaction folds the WAL (plus any earlier segments) into one
//! deduplicated segment: an 8-byte magic header followed by framed records
//! (the same codec as the WAL — see [`crate::record`]). Segments are
//! written to a `.tmp` name, fsynced, then atomically renamed into place,
//! so a crash mid-compaction leaves either no new segment or a complete
//! one — and since the WAL is only truncated *after* the rename lands,
//! every record is durable in at least one file at every instant.
//!
//! Reads still tolerate a torn tail (stop at the first bad frame) for
//! defence in depth; with the tmp-rename protocol that path should never
//! trigger in practice.

use crate::error::StoreError;
use crate::record::{self, StoreRecord};
use crate::replay::{self, Recovery};
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Segment file magic + version ("OASEG" v1); bumped on any layout change.
pub const SEGMENT_MAGIC: u64 = 0x4F41_5345_4700_0001;

/// File-name prefix/suffix of sealed segments.
const PREFIX: &str = "seg-";
const SUFFIX: &str = ".seg";

/// The segment file name for sequence number `id`.
pub fn segment_name(id: u64) -> String {
    format!("{PREFIX}{id:06}{SUFFIX}")
}

/// Parses a segment sequence number out of a file name.
pub fn parse_segment_name(name: &str) -> Option<u64> {
    name.strip_prefix(PREFIX)?
        .strip_suffix(SUFFIX)?
        .parse()
        .ok()
}

/// Lists the sealed segments under `dir` in ascending sequence order, and
/// deletes any `.tmp` leftovers from an interrupted compaction.
///
/// # Errors
/// [`StoreError::Io`] from directory enumeration.
pub fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, StoreError> {
    let mut segments = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if name.ends_with(".tmp") {
            // An interrupted compaction's partial write: its records are
            // still in the WAL/old segments, so the file is pure garbage.
            std::fs::remove_file(entry.path()).ok();
            continue;
        }
        if let Some(id) = parse_segment_name(name) {
            segments.push((id, entry.path()));
        }
    }
    segments.sort_by_key(|(id, _)| *id);
    Ok(segments)
}

/// Reads a sealed segment, tolerating a torn tail.
///
/// # Errors
/// [`StoreError::Io`] on filesystem failures; [`StoreError::BadMagic`]
/// when the file is not a segment.
pub fn read_segment(path: &Path) -> Result<Recovery, StoreError> {
    let bytes = std::fs::read(path)?;
    if bytes.len() < 8 {
        return Ok(Recovery {
            discarded_bytes: bytes.len() as u64,
            ..Recovery::default()
        });
    }
    let magic = u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes checked"));
    if magic != SEGMENT_MAGIC {
        return Err(StoreError::BadMagic {
            path: path.to_path_buf(),
            found: magic,
        });
    }
    Ok(replay::decode_log(&bytes[8..]))
}

/// Writes a sealed segment atomically: `.tmp` + fsync + rename + dir
/// fsync. Tombstones seal alongside live records — compaction keeps the
/// "forget this region" facts durable even after the records they
/// suppressed are gone. Returns the final path.
///
/// # Errors
/// [`StoreError::Io`] from any write/fsync/rename step.
pub fn write_segment(dir: &Path, id: u64, records: &[StoreRecord]) -> Result<PathBuf, StoreError> {
    let final_path = dir.join(segment_name(id));
    let tmp_path = dir.join(format!("{}.tmp", segment_name(id)));
    let mut buf = Vec::with_capacity(8 + records.len() * 128);
    buf.extend_from_slice(&SEGMENT_MAGIC.to_le_bytes());
    for r in records {
        match r {
            StoreRecord::Live(r) => record::put_record(&mut buf, r.fingerprint, &r.interpretation),
            StoreRecord::Tombstone(t) => record::put_tombstone(&mut buf, *t),
        }
    }
    let mut file = File::create(&tmp_path)?;
    file.write_all(&buf)?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp_path, &final_path)?;
    sync_dir(dir);
    Ok(final_path)
}

/// Best-effort directory fsync: makes creates/renames/removes durable on
/// filesystems that require it; silently a no-op where directories cannot
/// be opened for sync.
pub(crate) fn sync_dir(dir: &Path) {
    if let Ok(handle) = File::open(dir) {
        let _ = handle.sync_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RegionTombstone;
    use crate::testutil::{region, temp_dir};
    use openapi_core::cache::CachedRegion;
    use openapi_core::decision::RegionFingerprint;

    fn live(records: &[CachedRegion]) -> Vec<StoreRecord> {
        records.iter().cloned().map(StoreRecord::Live).collect()
    }

    #[test]
    fn names_round_trip() {
        assert_eq!(segment_name(7), "seg-000007.seg");
        assert_eq!(parse_segment_name("seg-000007.seg"), Some(7));
        assert_eq!(parse_segment_name("seg-1000000.seg"), Some(1_000_000));
        assert_eq!(parse_segment_name("wal.log"), None);
        assert_eq!(parse_segment_name("seg-xyz.seg"), None);
    }

    #[test]
    fn segments_round_trip_and_list_in_order() {
        let dir = temp_dir("seg_roundtrip");
        let a = live(&[region(0, &[1.0], 0.0), region(1, &[2.0], 0.5)]);
        let b = live(&[region(2, &[3.0], -1.0)]);
        write_segment(&dir, 2, &b).unwrap();
        write_segment(&dir, 1, &a).unwrap();
        let listed = list_segments(&dir).unwrap();
        assert_eq!(
            listed.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            vec![1, 2]
        );
        assert_eq!(read_segment(&listed[0].1).unwrap().records, a);
        assert_eq!(read_segment(&listed[1].1).unwrap().records, b);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tombstones_seal_and_read_back_in_order() {
        let dir = temp_dir("seg_tombstone");
        let r = region(0, &[1.0], 0.0);
        let records = vec![
            StoreRecord::Live(r),
            StoreRecord::Tombstone(RegionTombstone {
                fingerprint: RegionFingerprint(77),
                class: 3,
            }),
        ];
        let path = write_segment(&dir, 1, &records).unwrap();
        let rec = read_segment(&path).unwrap();
        assert_eq!(rec.records, records);
        assert_eq!(rec.discarded_bytes, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tmp_leftovers_are_swept_on_listing() {
        let dir = temp_dir("seg_tmp");
        write_segment(&dir, 1, &live(&[region(0, &[1.0], 0.0)])).unwrap();
        let stray = dir.join("seg-000009.seg.tmp");
        std::fs::write(&stray, b"partial compaction output").unwrap();
        let listed = list_segments(&dir).unwrap();
        assert_eq!(listed.len(), 1);
        assert!(!stray.exists(), "tmp leftovers must be deleted");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_segment_tail_is_tolerated() {
        let dir = temp_dir("seg_torn");
        let records = live(&[region(0, &[1.0], 0.0), region(0, &[2.0], 0.0)]);
        let path = write_segment(&dir, 1, &records).unwrap();
        let full = std::fs::metadata(&path).unwrap().len();
        let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(full - 3).unwrap();
        drop(file);
        let rec = read_segment(&path).unwrap();
        assert_eq!(rec.records, records[..1]);
        assert!(rec.discarded_bytes > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn foreign_segment_is_refused() {
        let dir = temp_dir("seg_foreign");
        let path = dir.join(segment_name(3));
        std::fs::write(&path, b"not a segment, promise").unwrap();
        assert!(matches!(
            read_segment(&path),
            Err(StoreError::BadMagic { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
