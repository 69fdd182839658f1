//! The one decoder of framed logs: the WAL and every sealed segment
//! recover through [`decode_log`].
//!
//! A log body is frames back to back (see [`crate::record`]). Decoding
//! keeps exactly the longest valid prefix, as a sequential
//! [`record::get_any_record`] loop would, but spreads the work:
//!
//! 1. Walk the frame headers, reading only their length fields, until a
//!    header is short, implausible, or runs past the end of the bytes.
//! 2. Cut the walked frames into contiguous runs of about equal bytes, one
//!    per thread, and CRC-verify and decode each run on its own thread,
//!    stopping at the run's first bad frame.
//! 3. Concatenate the runs in log order up to the first bad frame.
//!
//! Each byte is CRC-verified once. Each record comes back with its sync
//! key: its frame's CRC-64, which the header carries and the verification
//! just confirmed ([`record::sync_key_of`]).

use crate::record::{self, StoreRecord, FRAME_HEADER, MAX_PAYLOAD};
use std::num::NonZeroUsize;
use std::ops::Range;

/// Bytes of log one decode thread must have before spawning it pays.
const MIN_BYTES_PER_THREAD: usize = 256 << 10;

/// What decoding one log (the WAL or a segment) recovered.
#[derive(Debug, Default)]
pub struct Recovery {
    /// The records of the longest valid prefix, live regions and
    /// tombstones alike, in log order.
    pub records: Vec<StoreRecord>,
    /// `keys[i]` is the sync key of `records[i]`: the CRC-64 its verified
    /// frame carries.
    pub keys: Vec<u64>,
    /// Bytes clipped off the tail (a torn final write, or garbage).
    pub discarded_bytes: u64,
}

/// Decodes a log body (the bytes after its file magic) on as many threads
/// as the host has cores, or on the calling thread alone when the log is
/// too small for a spawn to pay.
pub(crate) fn decode_log(body: &[u8]) -> Recovery {
    let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    decode_log_on(body, cores.min(body.len() / MIN_BYTES_PER_THREAD))
}

/// [`decode_log`] on exactly `threads` threads (at least one; the calling
/// thread is one of them).
pub(crate) fn decode_log_on(body: &[u8], threads: usize) -> Recovery {
    let frames = frame_spans(body);
    let threads = threads.clamp(1, frames.len().max(1));
    // Cut `k` is the first frame at or past byte `k · len / threads`, so
    // cut 0 is 0 and cut `threads` is `frames.len()`.
    let cuts: Vec<usize> = (0..=threads)
        .map(|k| frames.partition_point(|f| f.start < k * body.len() / threads))
        .collect();
    let runs: Vec<&[Range<usize>]> = cuts.windows(2).map(|w| &frames[w[0]..w[1]]).collect();
    let decoded: Vec<Run> = std::thread::scope(|scope| {
        let spawned: Vec<_> = runs[1..]
            .iter()
            .map(|run| scope.spawn(move || decode_run(body, run)))
            .collect();
        std::iter::once(decode_run(body, runs[0]))
            .chain(
                spawned
                    .into_iter()
                    .map(|h| h.join().expect("a frame decode thread panicked")),
            )
            .collect()
    });

    let mut recovery = Recovery::default();
    for run in decoded {
        recovery.records.extend(run.records);
        recovery.keys.extend(run.keys);
        if !run.clean {
            break;
        }
    }
    let valid = match recovery.keys.len() {
        0 => 0,
        n => frames[n - 1].end,
    };
    recovery.discarded_bytes = (body.len() - valid) as u64;
    recovery
}

/// The byte spans of the frames whose headers are intact and whose
/// payloads are fully present, from the start of `body` up to the first
/// that is not. Payloads are not read.
fn frame_spans(body: &[u8]) -> Vec<Range<usize>> {
    let mut spans = Vec::new();
    let mut at = 0;
    while let Some(header) = body.get(at..at + FRAME_HEADER) {
        let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes"));
        let end = at + FRAME_HEADER + len as usize;
        if len > MAX_PAYLOAD || end > body.len() {
            break;
        }
        spans.push(at..end);
        at = end;
    }
    spans
}

/// One run's decoded prefix.
struct Run {
    records: Vec<StoreRecord>,
    keys: Vec<u64>,
    /// Whether every frame of the run decoded.
    clean: bool,
}

/// CRC-verifies and decodes `frames` in order, stopping at the first that
/// fails.
fn decode_run(body: &[u8], frames: &[Range<usize>]) -> Run {
    let mut run = Run {
        records: Vec::with_capacity(frames.len()),
        keys: Vec::with_capacity(frames.len()),
        clean: true,
    };
    for span in frames {
        let frame = &body[span.clone()];
        match record::get_any_record(&mut &frame[..]) {
            Ok(r) => {
                run.records.push(r);
                run.keys.push(record::sync_key_of(frame));
            }
            Err(_) => {
                run.clean = false;
                break;
            }
        }
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{encode_record, encode_tombstone, RegionTombstone};
    use crate::testutil::region;
    use openapi_core::decision::RegionFingerprint;
    use proptest::prelude::*;

    /// The sequential loop the decoder must match: records, keys and the
    /// valid-prefix length.
    fn oracle(body: &[u8]) -> (Vec<StoreRecord>, Vec<u64>, usize) {
        let (mut records, mut keys) = (Vec::new(), Vec::new());
        let mut cursor = body;
        while !cursor.is_empty() {
            let start = cursor;
            match record::get_any_record(&mut cursor) {
                Ok(r) => {
                    records.push(r);
                    keys.push(record::sync_key_of(start));
                }
                Err(_) => break,
            }
        }
        (records, keys, body.len() - cursor.len())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Random live and tombstone streams, truncated at a random byte
        /// and hit by random flips, decode identically at 1 to 4 threads
        /// and as the sequential loop.
        #[test]
        fn the_decoder_matches_the_sequential_loop(
            kinds in prop::collection::vec((0u64..1_000, any::<bool>()), 0..24),
            cut in 0usize..100_000,
            flips in prop::collection::vec((0usize..100_000, 1u8..=255), 0..3)
        ) {
            let mut body = Vec::new();
            for (i, &(seed, live)) in kinds.iter().enumerate() {
                let frame = if live {
                    let w = seed as f64 * 0.01 - 5.0;
                    let r = region(i % 3, &vec![w; 1 + (seed % 7) as usize], 0.5);
                    encode_record(r.fingerprint, &r.interpretation)
                } else {
                    encode_tombstone(RegionTombstone {
                        fingerprint: RegionFingerprint(seed),
                        class: i % 3,
                    })
                };
                body.extend_from_slice(&frame);
            }
            body.truncate(cut % (body.len() + 1));
            for &(at, xor) in &flips {
                if !body.is_empty() {
                    let at = at % body.len();
                    body[at] ^= xor;
                }
            }
            let (records, keys, valid) = oracle(&body);
            for threads in 1..=4 {
                let got = decode_log_on(&body, threads);
                prop_assert_eq!(&got.records, &records);
                prop_assert_eq!(&got.keys, &keys);
                prop_assert_eq!(got.discarded_bytes as usize, body.len() - valid);
            }
        }
    }

    #[test]
    fn a_bad_frame_in_a_later_run_keeps_the_earlier_runs() {
        let frames: Vec<Vec<u8>> = (0..8)
            .map(|i| {
                let r = region(0, &[i as f64 + 0.5], 0.0);
                encode_record(r.fingerprint, &r.interpretation)
            })
            .collect();
        let mut body = frames.concat();
        let sixth = frames[..5].iter().map(Vec::len).sum::<usize>();
        body[sixth + FRAME_HEADER] ^= 0x01;
        for threads in 1..=4 {
            let got = decode_log_on(&body, threads);
            assert_eq!(got.records.len(), 5, "{threads} threads");
            assert_eq!(got.discarded_bytes as usize, body.len() - sixth);
        }
    }
}
