//! The one record codec every persistence surface shares.
//!
//! A *record* is one `(fingerprint, Interpretation)` pair — a
//! [`CachedRegion`], the same type the region caches serve. On every
//! durable surface — the write-ahead log, sealed segments, and the fabric's
//! sync deltas — a record travels inside a *frame*:
//!
//! ```text
//! ┌────────────┬────────────┬─────────────────────┐
//! │ len: u32LE │ crc: u64LE │ payload (len bytes) │
//! └────────────┴────────────┴─────────────────────┘
//! ```
//!
//! `crc` is CRC-64/XZ over the payload, so a torn write (length header
//! present, payload short), a truncated tail, or in-place corruption is
//! detected before a single byte of the payload is trusted. The payload
//! itself follows the workspace codec conventions
//! ([`openapi_linalg::codec`]): length-prefixed little-endian fields —
//! fingerprint, class, contrast count, then per contrast `(c', bias,
//! weights)`.
//!
//! Decoding validates at three altitudes, in order: frame (length
//! plausible, bytes present), checksum (payload uncorrupted), and entry
//! ([`Interpretation::from_pairwise`] — non-empty contrasts, consistent
//! dimensions). Malformed input of any kind yields a [`RecordError`],
//! never a panic.

use bytes::{Buf, BufMut};
use openapi_core::cache::CachedRegion;
use openapi_core::decision::{Interpretation, PairwiseCoreParams, RegionFingerprint};
use openapi_core::InterpretError;
use openapi_linalg::codec::{self, CodecError};
use std::fmt;
use std::sync::Arc;

/// Frame header bytes: u32 payload length + u64 CRC.
pub const FRAME_HEADER: usize = 12;

/// Upper bound on a single frame's payload — corrupted length fields must
/// fail fast instead of attempting a huge allocation (a real record at
/// `d = 784`, 100 classes is well under 1 MiB).
pub const MAX_PAYLOAD: u32 = 1 << 28;

/// A durable "forget this region" fact: the `(class, fingerprint)` key of
/// a region the hidden model stopped explaining (drift detection caught an
/// `explains_probe` failure on it). Tombstones travel in the same framed
/// codec as live records, so the WAL, sealed segments, and the anti-entropy
/// fabric all carry them — an invalidated region stays invalidated through
/// compaction, restart, and set-union with a stale peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegionTombstone {
    /// Canonical key of the suppressed region.
    pub fingerprint: RegionFingerprint,
    /// The class whose `(class, fingerprint)` key is suppressed.
    pub class: usize,
}

/// Any record a durable surface can hold: a live region or a tombstone.
/// Recovery and fabric ingestion decode this ([`get_any_record`]); the
/// serving path's wire codec stays live-only ([`get_record`]) because a
/// tombstone is never an answer.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreRecord {
    /// A solved region's interpretation.
    Live(CachedRegion),
    /// A "this key is stale, never serve it" marker.
    Tombstone(RegionTombstone),
}

impl StoreRecord {
    /// The `(class, fingerprint)` key this record is about.
    pub fn key(&self) -> (usize, u64) {
        match self {
            StoreRecord::Live(r) => (r.interpretation.class, r.fingerprint.0),
            StoreRecord::Tombstone(t) => (t.class, t.fingerprint.0),
        }
    }

    /// Re-encodes the record's canonical frame (deterministic, so the
    /// bytes are identical to what was — or will be — persisted).
    pub fn encode(&self) -> Vec<u8> {
        match self {
            StoreRecord::Live(r) => encode_record(r.fingerprint, &r.interpretation),
            StoreRecord::Tombstone(t) => encode_tombstone(*t),
        }
    }
}

/// Why decoding a frame or record failed.
#[derive(Debug, Clone, PartialEq)]
pub enum RecordError {
    /// Truncated or implausible binary payload.
    Codec(CodecError),
    /// The payload bytes do not hash to the stored checksum.
    Checksum {
        /// CRC stored in the frame header.
        stored: u64,
        /// CRC computed over the payload actually read.
        computed: u64,
    },
    /// The payload decoded structurally but is not a valid interpretation
    /// (empty contrast list, ragged dimensions).
    BadEntry(InterpretError),
    /// A valid tombstone frame reached a live-records-only decoder
    /// ([`get_record`], which backs the serving wire — a tombstone is
    /// never an answer). Use [`get_any_record`] where tombstones belong.
    UnexpectedTombstone(RegionTombstone),
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordError::Codec(e) => write!(f, "record frame: {e}"),
            RecordError::Checksum { stored, computed } => write!(
                f,
                "record checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            RecordError::BadEntry(e) => write!(f, "record entry invalid: {e}"),
            RecordError::UnexpectedTombstone(t) => write!(
                f,
                "tombstone for class {} fingerprint {:#018x} where only live records belong",
                t.class, t.fingerprint.0
            ),
        }
    }
}

impl std::error::Error for RecordError {}

impl From<CodecError> for RecordError {
    fn from(e: CodecError) -> Self {
        RecordError::Codec(e)
    }
}

/// CRC-64/XZ lookup table, built at compile time.
const CRC64_TABLE: [u64; 256] = {
    // Reflected ECMA-182 polynomial.
    const POLY: u64 = 0xC96C_5795_D787_0F42;
    let mut table = [0u64; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u64;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-64/XZ of `bytes` (init and final XOR all-ones).
pub fn crc64(bytes: &[u8]) -> u64 {
    let mut crc = !0u64;
    for &b in bytes {
        crc = CRC64_TABLE[((crc ^ u64::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Frames an opaque payload: length, CRC, bytes. The inverse of
/// [`get_frame`].
pub fn put_frame(buf: &mut Vec<u8>, payload: &[u8]) {
    debug_assert!(payload.len() <= MAX_PAYLOAD as usize);
    buf.put_u32_le(payload.len() as u32);
    buf.put_u64_le(crc64(payload));
    buf.extend_from_slice(payload);
}

/// Reads one frame, returning the payload slice after verifying length
/// plausibility, byte availability, and the checksum.
///
/// # Errors
/// [`RecordError::Codec`] on truncation or an implausible length,
/// [`RecordError::Checksum`] when the payload fails verification.
pub fn get_frame<'a>(buf: &mut &'a [u8]) -> Result<&'a [u8], RecordError> {
    if buf.remaining() < FRAME_HEADER {
        return Err(CodecError::Truncated {
            what: "record frame header",
            needed: FRAME_HEADER,
            remaining: buf.remaining(),
        }
        .into());
    }
    let len = buf.get_u32_le();
    if len > MAX_PAYLOAD {
        return Err(CodecError::BadLength {
            what: "record frame payload",
            value: u64::from(len),
        }
        .into());
    }
    let stored = buf.get_u64_le();
    let len = len as usize;
    if buf.remaining() < len {
        return Err(CodecError::Truncated {
            what: "record frame payload",
            needed: len,
            remaining: buf.remaining(),
        }
        .into());
    }
    let (payload, rest) = buf.split_at(len);
    let computed = crc64(payload);
    if computed != stored {
        return Err(RecordError::Checksum { stored, computed });
    }
    *buf = rest;
    Ok(payload)
}

/// Encodes one record payload (no frame): fingerprint, class, contrasts.
fn put_payload(buf: &mut Vec<u8>, fingerprint: RegionFingerprint, i: &Interpretation) {
    buf.put_u64_le(fingerprint.0);
    codec::put_len(buf, i.class);
    codec::put_len(buf, i.pairwise.len());
    for p in &i.pairwise {
        codec::put_len(buf, p.c_prime);
        buf.put_f64_le(p.bias);
        codec::put_vector(buf, &p.weights);
    }
}

/// Decodes a record payload written by [`put_payload`]. Decision features
/// are recomputed from the persisted pairwise parameters (Equation 1 is
/// deterministic, so the result is bit-identical to the original).
///
/// The payload must be consumed exactly: trailing bytes are a
/// [`CodecError::BadLength`] carrying the payload length. So a payload
/// that decodes is its record's canonical encoding, and the frame's CRC is
/// the sync key re-encoding the record would give.
fn get_payload(mut payload: &[u8]) -> Result<CachedRegion, RecordError> {
    let len = payload.len();
    let buf = &mut payload;
    if buf.remaining() < 8 {
        return Err(CodecError::Truncated {
            what: "record fingerprint",
            needed: 8,
            remaining: buf.remaining(),
        }
        .into());
    }
    let fingerprint = RegionFingerprint(buf.get_u64_le());
    let class = codec::get_len(buf, "record class")?;
    let contrasts = codec::get_len(buf, "record contrasts")?;
    let mut pairwise = Vec::with_capacity(contrasts.min(1 << 16));
    for _ in 0..contrasts {
        let c_prime = codec::get_len(buf, "contrast class")?;
        if buf.remaining() < 8 {
            return Err(CodecError::Truncated {
                what: "contrast bias",
                needed: 8,
                remaining: buf.remaining(),
            }
            .into());
        }
        let bias = buf.get_f64_le();
        let weights = codec::get_vector(buf, "contrast weights")?;
        pairwise.push(PairwiseCoreParams {
            c_prime,
            weights,
            bias,
        });
    }
    if !buf.is_empty() {
        return Err(CodecError::BadLength {
            what: "record payload",
            value: len as u64,
        }
        .into());
    }
    let interpretation =
        Interpretation::from_pairwise(class, pairwise).map_err(RecordError::BadEntry)?;
    Ok(CachedRegion {
        fingerprint,
        interpretation: Arc::new(interpretation),
    })
}

/// Appends one framed record to `buf`.
pub fn put_record(buf: &mut Vec<u8>, fingerprint: RegionFingerprint, i: &Interpretation) {
    let mut payload = Vec::with_capacity(64 + 8 * i.decision_features.len() * i.pairwise.len());
    put_payload(&mut payload, fingerprint, i);
    put_frame(buf, &payload);
}

/// Encodes one framed record into a fresh buffer.
pub fn encode_record(fingerprint: RegionFingerprint, i: &Interpretation) -> Vec<u8> {
    let mut buf = Vec::new();
    put_record(&mut buf, fingerprint, i);
    buf
}

/// Marker leading every tombstone payload ("OATOMB" v1; bumped on any
/// tombstone-layout change).
pub const TOMBSTONE_MAGIC: u64 = 0x4F41_544F_4D42_0001;

/// Exact byte length of a tombstone payload: magic + fingerprint + class,
/// each a `u64` LE. A minimal *live* payload is strictly longer — its
/// fingerprint, class, contrast count, and one mandatory contrast
/// (`c'` + bias + weight-vector length prefix) already total 48 bytes —
/// so payload length plus the leading magic disambiguates the two record
/// kinds without changing the frame format.
pub const TOMBSTONE_PAYLOAD: usize = 24;

/// Whether a checksum-verified frame payload is a tombstone.
fn is_tombstone_payload(payload: &[u8]) -> bool {
    payload.len() == TOMBSTONE_PAYLOAD && payload[..8] == TOMBSTONE_MAGIC.to_le_bytes()
}

/// Decodes a tombstone payload already vetted by [`is_tombstone_payload`].
fn get_tombstone_payload(payload: &[u8]) -> RegionTombstone {
    let fingerprint = u64::from_le_bytes(payload[8..16].try_into().expect("24-byte payload"));
    let class = u64::from_le_bytes(payload[16..24].try_into().expect("24-byte payload"));
    RegionTombstone {
        fingerprint: RegionFingerprint(fingerprint),
        class: class as usize,
    }
}

/// Appends one framed tombstone to `buf`.
pub fn put_tombstone(buf: &mut Vec<u8>, t: RegionTombstone) {
    let mut payload = Vec::with_capacity(TOMBSTONE_PAYLOAD);
    payload.put_u64_le(TOMBSTONE_MAGIC);
    payload.put_u64_le(t.fingerprint.0);
    payload.put_u64_le(t.class as u64);
    put_frame(buf, &payload);
}

/// Encodes one framed tombstone into a fresh buffer.
pub fn encode_tombstone(t: RegionTombstone) -> Vec<u8> {
    let mut buf = Vec::new();
    put_tombstone(&mut buf, t);
    buf
}

/// The sync key of an encoded frame: its CRC-64/XZ, read straight out of
/// the header (bytes `[4..12]`). Content-addresses the exact frame bytes,
/// for live records and tombstones alike.
///
/// # Panics
/// Panics when `frame` is shorter than a frame header — callers hand this
/// frames they encoded themselves.
pub fn sync_key_of(frame: &[u8]) -> u64 {
    u64::from_le_bytes(frame[4..FRAME_HEADER].try_into().expect("frame header"))
}

/// Reads one framed **live** record, advancing `buf` past it.
///
/// # Errors
/// [`RecordError`] on a bad frame, checksum mismatch, invalid entry, or a
/// tombstone frame ([`RecordError::UnexpectedTombstone`] — this decoder
/// backs the serving wire, where a tombstone is never an answer); `buf` is
/// only advanced on success, so prefix replays can stop exactly at the
/// last valid record.
pub fn get_record(buf: &mut &[u8]) -> Result<CachedRegion, RecordError> {
    let mut probe = *buf;
    let payload = get_frame(&mut probe)?;
    if is_tombstone_payload(payload) {
        return Err(RecordError::UnexpectedTombstone(get_tombstone_payload(
            payload,
        )));
    }
    let record = get_payload(payload)?;
    *buf = probe;
    Ok(record)
}

/// Reads one framed record of either kind, advancing `buf` past it. This
/// is the recovery and fabric-ingestion decoder — the surfaces where
/// tombstones legitimately appear.
///
/// # Errors
/// [`RecordError`] on a bad frame, checksum mismatch, or invalid entry;
/// `buf` is only advanced on success.
pub fn get_any_record(buf: &mut &[u8]) -> Result<StoreRecord, RecordError> {
    let mut probe = *buf;
    let payload = get_frame(&mut probe)?;
    let record = if is_tombstone_payload(payload) {
        StoreRecord::Tombstone(get_tombstone_payload(payload))
    } else {
        StoreRecord::Live(get_payload(payload)?)
    };
    *buf = probe;
    Ok(record)
}

#[cfg(test)]
mod tests {
    use super::*;
    use openapi_linalg::Vector;

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

    #[test]
    fn crc64_matches_the_xz_check_value() {
        // The CRC-64/XZ specification check: crc("123456789").
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
        assert_eq!(crc64(b""), 0);
    }

    #[test]
    fn records_round_trip_bit_exactly() {
        for r in [
            region(0, vec![1.5, -2.25, 1e-300], 0.125),
            region(3, vec![f64::MIN_POSITIVE, 0.0], -7.5),
        ] {
            let bytes = encode_record(r.fingerprint, &r.interpretation);
            let mut slice = bytes.as_slice();
            let back = get_record(&mut slice).unwrap();
            assert_eq!(back, r);
            assert!(slice.is_empty(), "decoder must consume exactly");
        }
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let r = region(1, vec![0.5, -0.25], 0.75);
        let clean = encode_record(r.fingerprint, &r.interpretation);
        for i in 0..clean.len() {
            let mut bytes = clean.clone();
            bytes[i] ^= 0x40;
            let mut slice = bytes.as_slice();
            match get_record(&mut slice) {
                // A flip in the length field may masquerade as truncation
                // or an implausible length; anywhere else the CRC fires.
                Err(_) => {}
                Ok(back) => {
                    // The only undetectable flips would be CRC collisions;
                    // a single-bit flip never collides in CRC-64.
                    panic!("flip at byte {i} decoded as {back:?}");
                }
            }
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let r = region(2, vec![1.0, 2.0, 3.0], -0.5);
        let clean = encode_record(r.fingerprint, &r.interpretation);
        for keep in 0..clean.len() {
            let mut slice = &clean[..keep];
            let before = slice;
            let err = get_record(&mut slice).expect_err("truncated record must fail");
            assert!(matches!(
                err,
                RecordError::Codec(CodecError::Truncated { .. }) | RecordError::Checksum { .. }
            ));
            // The cursor must not advance on failure.
            assert_eq!(slice.len(), before.len());
        }
    }

    #[test]
    fn implausible_frame_length_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.put_u32_le(u32::MAX);
        buf.put_u64_le(0);
        buf.extend_from_slice(&[0u8; 32]);
        assert!(matches!(
            get_frame(&mut buf.as_slice()),
            Err(RecordError::Codec(CodecError::BadLength { .. }))
        ));
    }

    fn tombstone(class: usize, fingerprint: u64) -> RegionTombstone {
        RegionTombstone {
            fingerprint: RegionFingerprint(fingerprint),
            class,
        }
    }

    #[test]
    fn tombstones_round_trip_bit_exactly() {
        for t in [tombstone(0, 0), tombstone(7, u64::MAX), tombstone(3, 42)] {
            let bytes = encode_tombstone(t);
            assert_eq!(bytes.len(), FRAME_HEADER + TOMBSTONE_PAYLOAD);
            let mut slice = bytes.as_slice();
            let back = get_any_record(&mut slice).unwrap();
            assert_eq!(back, StoreRecord::Tombstone(t));
            assert!(slice.is_empty(), "decoder must consume exactly");
            assert_eq!(back.key(), (t.class, t.fingerprint.0));
            assert_eq!(back.encode(), bytes, "re-encode is canonical");
        }
    }

    #[test]
    fn get_any_record_decodes_both_kinds_from_one_stream() {
        let live = region(1, vec![0.5, -0.25], 0.75);
        let t = tombstone(1, live.fingerprint.0);
        let mut stream = encode_record(live.fingerprint, &live.interpretation);
        stream.extend_from_slice(&encode_tombstone(t));
        let mut slice = stream.as_slice();
        assert_eq!(get_any_record(&mut slice).unwrap(), StoreRecord::Live(live));
        assert_eq!(
            get_any_record(&mut slice).unwrap(),
            StoreRecord::Tombstone(t)
        );
        assert!(slice.is_empty());
    }

    #[test]
    fn live_only_decoder_refuses_tombstones_without_advancing() {
        let t = tombstone(2, 99);
        let bytes = encode_tombstone(t);
        let mut slice = bytes.as_slice();
        assert_eq!(
            get_record(&mut slice),
            Err(RecordError::UnexpectedTombstone(t))
        );
        assert_eq!(slice.len(), bytes.len(), "cursor must not advance");
    }

    #[test]
    fn every_tombstone_byte_flip_or_truncation_is_detected() {
        let clean = encode_tombstone(tombstone(5, 0xDEAD_BEEF));
        for i in 0..clean.len() {
            let mut bytes = clean.clone();
            bytes[i] ^= 0x40;
            let mut slice = bytes.as_slice();
            assert!(
                get_any_record(&mut slice).is_err(),
                "flip at byte {i} must not decode"
            );
        }
        for keep in 0..clean.len() {
            let mut slice = &clean[..keep];
            let before = slice;
            get_any_record(&mut slice).expect_err("truncated tombstone must fail");
            assert_eq!(slice.len(), before.len(), "cursor must not advance");
        }
    }

    #[test]
    fn a_short_live_payload_never_masquerades_as_a_tombstone() {
        // The smallest structurally attemptable live payload (fingerprint
        // + class + zero contrasts) happens to be exactly 24 bytes — the
        // tombstone length. Without the magic check it would be ambiguous;
        // with it, a fingerprint would have to equal TOMBSTONE_MAGIC, and
        // even then the old path only reached BadEntry. Pin the magic
        // check: this payload must stay a (rejected) live record.
        let mut payload = Vec::new();
        payload.put_u64_le(42); // fingerprint ≠ TOMBSTONE_MAGIC
        codec::put_len(&mut payload, 0); // class
        codec::put_len(&mut payload, 0); // zero contrasts
        assert_eq!(payload.len(), TOMBSTONE_PAYLOAD);
        let mut buf = Vec::new();
        put_frame(&mut buf, &payload);
        assert!(matches!(
            get_any_record(&mut buf.as_slice()),
            Err(RecordError::BadEntry(_))
        ));
    }

    #[test]
    fn sync_key_reads_the_frame_crc() {
        let r = region(0, vec![1.0], 0.5);
        let frame = encode_record(r.fingerprint, &r.interpretation);
        assert_eq!(sync_key_of(&frame), crc64(&frame[FRAME_HEADER..]));
        let t = encode_tombstone(tombstone(0, 7));
        assert_eq!(sync_key_of(&t), crc64(&t[FRAME_HEADER..]));
        assert_ne!(sync_key_of(&frame), sync_key_of(&t));
    }

    #[test]
    fn a_payload_with_trailing_bytes_is_rejected() {
        let r = region(1, vec![0.5, -0.25], 0.75);
        let clean = encode_record(r.fingerprint, &r.interpretation);
        let mut payload = clean[FRAME_HEADER..].to_vec();
        payload.extend_from_slice(&[0u8; 8]);
        let mut padded = Vec::new();
        put_frame(&mut padded, &payload);
        let want = RecordError::Codec(CodecError::BadLength {
            what: "record payload",
            value: payload.len() as u64,
        });
        assert_eq!(get_any_record(&mut padded.as_slice()), Err(want.clone()));
        assert_eq!(get_record(&mut padded.as_slice()), Err(want));
    }

    #[test]
    fn structurally_valid_but_empty_entry_is_rejected() {
        // Zero contrasts frame+CRC fine but cannot form an interpretation.
        let mut payload = Vec::new();
        payload.put_u64_le(42); // fingerprint
        codec::put_len(&mut payload, 0); // class
        codec::put_len(&mut payload, 0); // zero contrasts
        let mut buf = Vec::new();
        put_frame(&mut buf, &payload);
        assert!(matches!(
            get_record(&mut buf.as_slice()),
            Err(RecordError::BadEntry(_))
        ));
    }
}
