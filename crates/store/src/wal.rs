//! The append-only write-ahead log.
//!
//! Layout: an 8-byte magic header, then framed records (see
//! [`crate::record`]) back to back. Appends only ever extend the file, so
//! after a crash the log is a valid prefix followed by at most one torn
//! frame plus garbage. Recovery ([`Wal::open`]) keeps the records up to
//! the first frame that fails to decode, **truncates** the file back to
//! the end of the last valid record, and reports what it clipped — a torn
//! tail can cost the unsynced suffix, never a wrong record.
//!
//! What recovery verifies: every frame of the kept prefix has a plausible
//! length, its whole payload, a CRC-64 that matches the payload, and a
//! payload that decodes to a valid record with no bytes left over. Each
//! byte is CRC-verified once; the decode is spread over the host's cores
//! (the `replay` module). Records come back in log order, and the store
//! admits them in that order, each under its sync key: the CRC its
//! verified frame header carries, which is the CRC re-encoding the record
//! would give, so nothing is re-encoded.
//!
//! Durability: [`Wal::append`] only `write()`s; the caller decides when to
//! [`Wal::sync`] (the store's flusher batches many appends per fsync).

use crate::error::StoreError;
use crate::replay::{self, Recovery};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// WAL file magic + version ("OAWAL" v1); bumped on any layout change.
pub const WAL_MAGIC: u64 = 0x4F41_5741_4C00_0001;

/// Byte length of the file header (the magic).
pub const WAL_HEADER: u64 = 8;

/// An open write-ahead log (see the module docs).
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    /// Current file length; appends extend it, truncation resets it.
    len: u64,
}

impl Wal {
    /// Opens (or creates) the log at `path`, replaying the longest valid
    /// record prefix and truncating any torn tail.
    ///
    /// # Errors
    /// [`StoreError::Io`] on filesystem failures; [`StoreError::BadMagic`]
    /// when the file exists but is not a WAL (it is left untouched).
    pub fn open(path: &Path) -> Result<(Wal, Recovery), StoreError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;

        let mut recovery = Recovery::default();
        let valid_len = if bytes.is_empty() {
            file.write_all(&WAL_MAGIC.to_le_bytes())?;
            file.sync_all()?;
            WAL_HEADER
        } else if bytes.len() < WAL_HEADER as usize {
            // A crash between create and header sync: nothing recoverable.
            recovery.discarded_bytes = bytes.len() as u64;
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(&WAL_MAGIC.to_le_bytes())?;
            file.sync_all()?;
            WAL_HEADER
        } else {
            let magic = u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes checked"));
            if magic != WAL_MAGIC {
                return Err(StoreError::BadMagic {
                    path: path.to_path_buf(),
                    found: magic,
                });
            }
            recovery = replay::decode_log(&bytes[WAL_HEADER as usize..]);
            let valid = bytes.len() as u64 - recovery.discarded_bytes;
            if recovery.discarded_bytes > 0 {
                file.set_len(valid)?;
                file.sync_all()?;
            }
            valid
        };
        file.seek(SeekFrom::Start(valid_len))?;
        Ok((
            Wal {
                file,
                path: path.to_path_buf(),
                len: valid_len,
            },
            recovery,
        ))
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Current file length in bytes (header included).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.len <= WAL_HEADER
    }

    /// Appends pre-encoded frames (no fsync — see [`Wal::sync`]). Returns
    /// the bytes written.
    ///
    /// # Errors
    /// [`std::io::Error`] from the underlying write. On failure the file
    /// is rolled back to the last good frame boundary (truncate + seek),
    /// so a partial frame can never sit *between* this batch and a later
    /// successful one — recovery would clip everything after the tear,
    /// including records whose fsync was acknowledged.
    pub fn append(&mut self, frames: &[Vec<u8>]) -> std::io::Result<u64> {
        let mut written = 0u64;
        for frame in frames {
            if let Err(e) = self.file.write_all(frame) {
                // Best-effort rollback; if even this fails the device is
                // gone and the caller must stop trusting the log anyway.
                let _ = self.file.set_len(self.len);
                let _ = self.file.seek(SeekFrom::Start(self.len));
                return Err(e);
            }
            written += frame.len() as u64;
        }
        self.len += written;
        Ok(written)
    }

    /// Forces everything appended so far to stable storage.
    ///
    /// # Errors
    /// [`std::io::Error`] from `fsync`.
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.file.sync_all()
    }

    /// Drops every record: truncates back to the header and syncs. Used
    /// after compaction folds the log into a sealed segment.
    ///
    /// # Errors
    /// [`std::io::Error`] from truncate/seek/fsync.
    pub fn reset(&mut self) -> std::io::Result<()> {
        self.file.set_len(WAL_HEADER)?;
        self.file.seek(SeekFrom::Start(WAL_HEADER))?;
        self.len = WAL_HEADER;
        self.file.sync_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{
        self, encode_record, encode_tombstone, put_frame, RegionTombstone, StoreRecord,
        FRAME_HEADER,
    };
    use crate::testutil::{region, temp_dir};
    use openapi_core::cache::CachedRegion;

    fn live(records: &[CachedRegion]) -> Vec<StoreRecord> {
        records.iter().cloned().map(StoreRecord::Live).collect()
    }

    #[test]
    fn fresh_log_opens_empty_and_replays_appends() {
        let dir = temp_dir("wal_fresh");
        let path = dir.join("wal.log");
        let (mut wal, rec) = Wal::open(&path).unwrap();
        assert!(rec.records.is_empty());
        assert!(wal.is_empty());
        let a = region(0, &[1.0, 2.0], 0.5);
        let b = region(1, &[-3.0, 0.25], -1.0);
        wal.append(&[
            encode_record(a.fingerprint, &a.interpretation),
            encode_record(b.fingerprint, &b.interpretation),
        ])
        .unwrap();
        wal.sync().unwrap();
        drop(wal);
        let (_, rec) = Wal::open(&path).unwrap();
        assert_eq!(rec.records, live(&[a, b]));
        assert_eq!(rec.discarded_bytes, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tombstones_replay_in_order_with_live_records() {
        let dir = temp_dir("wal_tombstone");
        let path = dir.join("wal.log");
        let (mut wal, _) = Wal::open(&path).unwrap();
        let a = region(0, &[1.0, 2.0], 0.5);
        let t = RegionTombstone {
            fingerprint: a.fingerprint,
            class: 0,
        };
        let b = region(1, &[-3.0, 0.25], -1.0);
        wal.append(&[
            encode_record(a.fingerprint, &a.interpretation),
            encode_tombstone(t),
            encode_record(b.fingerprint, &b.interpretation),
        ])
        .unwrap();
        wal.sync().unwrap();
        drop(wal);
        let (_, rec) = Wal::open(&path).unwrap();
        assert_eq!(
            rec.records,
            vec![
                StoreRecord::Live(a),
                StoreRecord::Tombstone(t),
                StoreRecord::Live(b),
            ]
        );
        assert_eq!(rec.discarded_bytes, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_clipped_to_the_longest_valid_prefix() {
        let dir = temp_dir("wal_torn");
        let path = dir.join("wal.log");
        let (mut wal, _) = Wal::open(&path).unwrap();
        let a = region(0, &[1.0], 0.0);
        let b = region(0, &[2.0], 0.0);
        wal.append(&[
            encode_record(a.fingerprint, &a.interpretation),
            encode_record(b.fingerprint, &b.interpretation),
        ])
        .unwrap();
        wal.sync().unwrap();
        let full = wal.len();
        drop(wal);
        // Tear 5 bytes off the final record.
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(full - 5).unwrap();
        drop(file);
        let (wal, rec) = Wal::open(&path).unwrap();
        assert_eq!(rec.records, live(std::slice::from_ref(&a)));
        assert!(rec.discarded_bytes > 0);
        // The file itself was truncated back to the valid prefix…
        let reopened_len = wal.len();
        drop(wal);
        // …so a second recovery sees a clean log.
        let (_, rec2) = Wal::open(&path).unwrap();
        assert_eq!(rec2.records, live(&[a]));
        assert_eq!(rec2.discarded_bytes, 0);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), reopened_len);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_record_with_trailing_payload_bytes_ends_the_valid_prefix() {
        let dir = temp_dir("wal_padded");
        let path = dir.join("wal.log");
        let (mut wal, _) = Wal::open(&path).unwrap();
        let a = region(0, &[1.0], 0.0);
        let b = region(1, &[2.0], 0.5);
        let good = encode_record(a.fingerprint, &a.interpretation);
        let mut payload = encode_record(b.fingerprint, &b.interpretation)[FRAME_HEADER..].to_vec();
        payload.extend_from_slice(&[0u8; 8]);
        let mut padded = Vec::new();
        put_frame(&mut padded, &payload);
        wal.append(&[good.clone(), padded.clone()]).unwrap();
        wal.sync().unwrap();
        drop(wal);
        let (wal, rec) = Wal::open(&path).unwrap();
        assert_eq!(rec.records, live(&[a]));
        assert_eq!(rec.keys, vec![record::sync_key_of(&good)]);
        assert_eq!(rec.discarded_bytes, padded.len() as u64);
        assert_eq!(wal.len(), WAL_HEADER + good.len() as u64);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn foreign_files_are_refused_not_clobbered() {
        let dir = temp_dir("wal_foreign");
        let path = dir.join("wal.log");
        std::fs::write(&path, b"definitely not a wal file").unwrap();
        assert!(matches!(Wal::open(&path), Err(StoreError::BadMagic { .. })));
        // The refusal must leave the file byte-identical.
        assert_eq!(
            std::fs::read(&path).unwrap(),
            b"definitely not a wal file".to_vec()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sub_header_garbage_is_reset_to_a_fresh_log() {
        let dir = temp_dir("wal_stub");
        let path = dir.join("wal.log");
        std::fs::write(&path, [0xAB, 0xCD]).unwrap();
        let (wal, rec) = Wal::open(&path).unwrap();
        assert!(wal.is_empty());
        assert_eq!(rec.discarded_bytes, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reset_empties_the_log_durably() {
        let dir = temp_dir("wal_reset");
        let path = dir.join("wal.log");
        let (mut wal, _) = Wal::open(&path).unwrap();
        let a = region(0, &[4.0], 0.0);
        wal.append(&[encode_record(a.fingerprint, &a.interpretation)])
            .unwrap();
        wal.sync().unwrap();
        wal.reset().unwrap();
        assert!(wal.is_empty());
        // Appends continue cleanly after a reset.
        let b = region(1, &[5.0], 1.0);
        wal.append(&[encode_record(b.fingerprint, &b.interpretation)])
            .unwrap();
        wal.sync().unwrap();
        drop(wal);
        let (_, rec) = Wal::open(&path).unwrap();
        assert_eq!(rec.records, live(&[b]));
        std::fs::remove_dir_all(&dir).ok();
    }
}
