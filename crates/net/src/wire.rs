//! The wire protocol: handshake, message codec, and stream framing.
//!
//! Everything on the wire reuses the `openapi-store` record-codec
//! discipline — little-endian fields behind `openapi_linalg::codec`
//! length prefixes, inside `len + CRC-64/XZ` frames
//! ([`openapi_store::record::put_frame`]) — so the workspace keeps exactly
//! one binary framing to audit, on disk and on the wire alike. The
//! byte-for-byte specification lives in `docs/PROTOCOL.md`; this module is
//! its executable form.
//!
//! A connection starts with a fixed-size hello in each direction: the
//! client sends magic + version ([`encode_hello`]/[`decode_hello`]); the
//! server answers with magic + version + the hidden model's shape and
//! identity ([`encode_server_hello`]/[`decode_server_hello`]), so clients
//! *and* anti-entropy peers fail fast at connect instead of on their
//! first mismatched request. Every subsequent message is one frame whose
//! payload begins with a one-byte tag ([`Request`] tags in `0x01..=0x07`,
//! [`Response`] tags in `0x81..=0x87` plus [`TAG_ERROR`]). Decoding never
//! panics on hostile bytes: every failure is a typed [`WireError`].

use bytes::{Buf, BufMut};
use openapi_core::decision::{Interpretation, RegionFingerprint};
use openapi_linalg::codec::{self, CodecError};
use openapi_linalg::Vector;
use openapi_serve::{ServeOutcome, StatsSnapshot};
use openapi_store::record::{self, RecordError};
use openapi_store::{DigestBucket, StoreDigest, SyncDelta, DIGEST_BUCKETS};
use openapi_trace::expose::Family;
use std::fmt;
use std::io::{self, Read, Write};
use std::sync::Arc;
use std::time::Duration;

/// Magic bytes opening every connection, in both directions.
pub const MAGIC: [u8; 8] = *b"OAPINET\0";

/// The one protocol version this build speaks. Version 2 added the
/// model-describing server hello and the anti-entropy sync messages.
pub const VERSION: u32 = 2;

/// Byte length of a client hello (magic + `u32` version).
pub const HELLO_LEN: usize = 12;

/// Byte length of a server hello (magic + `u32` version + `u32` dim +
/// `u32` num_classes + `u64` model id).
pub const SERVER_HELLO_LEN: usize = 28;

/// Most items accepted in one `InterpretBatch` request. Bounds the work a
/// single frame can enqueue (the frame length itself is already bounded by
/// [`openapi_store::record::MAX_PAYLOAD`]).
pub const MAX_BATCH: usize = 1024;

/// Request tag: [`Request::Ping`].
pub const TAG_PING: u8 = 0x01;
/// Request tag: [`Request::Interpret`].
pub const TAG_INTERPRET: u8 = 0x02;
/// Request tag: [`Request::InterpretBatch`].
pub const TAG_INTERPRET_BATCH: u8 = 0x03;
/// Request tag: [`Request::Stats`].
pub const TAG_STATS: u8 = 0x04;
/// Request tag: [`Request::Metrics`].
pub const TAG_METRICS: u8 = 0x05;
/// Request tag: [`Request::SyncDigest`].
pub const TAG_SYNC_DIGEST: u8 = 0x06;
/// Request tag: [`Request::SyncPull`].
pub const TAG_SYNC_PULL: u8 = 0x07;
/// Response tag: [`Response::Pong`].
pub const TAG_PONG: u8 = 0x81;
/// Response tag: [`Response::Interpreted`].
pub const TAG_INTERPRETED: u8 = 0x82;
/// Response tag: [`Response::Batch`].
pub const TAG_BATCH: u8 = 0x83;
/// Response tag: [`Response::StatsReply`].
pub const TAG_STATS_REPLY: u8 = 0x84;
/// Response tag: [`Response::MetricsReply`].
pub const TAG_METRICS_REPLY: u8 = 0x85;
/// Response tag: [`Response::SyncDigestReply`].
pub const TAG_SYNC_DIGEST_REPLY: u8 = 0x86;
/// Response tag: [`Response::SyncPullReply`].
pub const TAG_SYNC_PULL_REPLY: u8 = 0x87;
/// Response tag: [`Response::Error`].
pub const TAG_ERROR: u8 = 0xEE;

/// Why decoding wire bytes failed. Every variant is a *typed* refusal —
/// hostile or truncated input can produce any of these, never a panic.
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// The frame itself is bad: truncated, implausible length, or a
    /// CRC-64/XZ mismatch (carries the store codec's own error).
    Record(RecordError),
    /// A message body field failed to decode.
    Codec(CodecError),
    /// The payload's leading tag byte names no known message.
    BadTag {
        /// The offending tag.
        tag: u8,
    },
    /// A field decoded but holds a value outside its domain (an unknown
    /// outcome or error code, a flag byte that is neither 0 nor 1).
    BadValue {
        /// What was being decoded.
        what: &'static str,
        /// The offending value.
        value: u64,
    },
    /// The message decoded completely but bytes remain in the frame.
    TrailingBytes {
        /// How many bytes were left over.
        remaining: usize,
    },
    /// The hello's magic bytes are wrong — the peer is not speaking this
    /// protocol at all.
    BadMagic {
        /// The eight bytes found where [`MAGIC`] was expected.
        found: [u8; 8],
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Record(e) => write!(f, "wire frame: {e}"),
            WireError::Codec(e) => write!(f, "wire field: {e}"),
            WireError::BadTag { tag } => write!(f, "unknown message tag {tag:#04x}"),
            WireError::BadValue { what, value } => {
                write!(f, "{what}: value {value} out of domain")
            }
            WireError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after message")
            }
            WireError::BadMagic { found } => {
                write!(f, "bad protocol magic {found:02x?}")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<RecordError> for WireError {
    fn from(e: RecordError) -> Self {
        WireError::Record(e)
    }
}

impl From<CodecError> for WireError {
    fn from(e: CodecError) -> Self {
        WireError::Codec(e)
    }
}

/// Typed error codes a server can answer with (the `code` field of
/// [`RemoteError`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The client's hello named a protocol version this server does not
    /// speak; the connection is closed after this reply.
    UnsupportedVersion,
    /// The request could not be decoded. When the *frame* was corrupt the
    /// stream has lost sync and the server closes the connection; when the
    /// frame was intact but its payload was malformed, the connection
    /// stays usable.
    Malformed,
    /// The connection's bounded in-flight queue is full — backpressure.
    /// Retry after draining some responses.
    Busy,
    /// The request's deadline passed before it completed.
    DeadlineExceeded,
    /// The interpretation itself failed (bad arguments, budget
    /// exhaustion); the message carries the interpreter's diagnostics.
    Interpret,
    /// The server is shutting down; the request was not served.
    Stopped,
    /// The peer's declared model shape/identity does not match this
    /// server's hidden model; syncing their region stores would merge
    /// interpretations of different functions, so the request is refused.
    ModelMismatch,
    /// The request needs a durable region store, but this server runs
    /// without one (in-memory cache only).
    NoStore,
}

impl ErrorCode {
    /// The code's `u16` wire value.
    pub fn as_u16(self) -> u16 {
        match self {
            ErrorCode::UnsupportedVersion => 1,
            ErrorCode::Malformed => 2,
            ErrorCode::Busy => 3,
            ErrorCode::DeadlineExceeded => 4,
            ErrorCode::Interpret => 5,
            ErrorCode::Stopped => 6,
            ErrorCode::ModelMismatch => 7,
            ErrorCode::NoStore => 8,
        }
    }

    /// Parses a wire value back into a code.
    pub fn from_u16(value: u16) -> Option<ErrorCode> {
        match value {
            1 => Some(ErrorCode::UnsupportedVersion),
            2 => Some(ErrorCode::Malformed),
            3 => Some(ErrorCode::Busy),
            4 => Some(ErrorCode::DeadlineExceeded),
            5 => Some(ErrorCode::Interpret),
            6 => Some(ErrorCode::Stopped),
            7 => Some(ErrorCode::ModelMismatch),
            8 => Some(ErrorCode::NoStore),
            _ => None,
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ErrorCode::UnsupportedVersion => "unsupported version",
            ErrorCode::Malformed => "malformed request",
            ErrorCode::Busy => "busy",
            ErrorCode::DeadlineExceeded => "deadline exceeded",
            ErrorCode::Interpret => "interpretation failed",
            ErrorCode::Stopped => "server stopped",
            ErrorCode::ModelMismatch => "model mismatch",
            ErrorCode::NoStore => "no durable store",
        };
        f.write_str(name)
    }
}

/// A typed error a server answered with.
#[derive(Debug, Clone, PartialEq)]
pub struct RemoteError {
    /// What went wrong, as a stable code.
    pub code: ErrorCode,
    /// Human-readable diagnostics (e.g. the interpreter's own error text).
    pub message: String,
}

impl fmt::Display for RemoteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.message.is_empty() {
            write!(f, "{}", self.code)
        } else {
            write!(f, "{}: {}", self.code, self.message)
        }
    }
}

impl std::error::Error for RemoteError {}

/// A completed interpretation as served over the wire — the remote
/// counterpart of [`openapi_serve::Served`].
#[derive(Debug, Clone, PartialEq)]
pub struct RemoteServed {
    /// The region's exact interpretation (bit-identical for every request
    /// the server resolved to the same region).
    pub interpretation: Arc<Interpretation>,
    /// Canonical key of the serving region.
    pub fingerprint: RegionFingerprint,
    /// How the server satisfied the request (cache/store/solve/coalesce).
    pub outcome: ServeOutcome,
    /// Prediction queries the server spent on behalf of this request.
    pub queries: usize,
    /// Server-side latency (submit → completion inside the service; wire
    /// time excluded).
    pub server_latency: Duration,
    /// The server's trace span id for this request (0 when the server was
    /// built without tracing) — quote it when reporting a slow request so
    /// the operator can find the matching ring events and slow-log line.
    pub span: u64,
}

/// The hidden model's shape and identity, as declared in the server
/// hello. Two servers may sync region stores only when all three fields
/// agree — interpretations are exact statements *about one function*, and
/// merging stores of different functions would silently serve wrong
/// answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelInfo {
    /// Input dimensionality of the hidden model.
    pub dim: usize,
    /// Number of output classes.
    pub num_classes: usize,
    /// Operator-assigned identity of the hidden model deployment. Two
    /// models with equal shape but different weights must get different
    /// ids; `0` (the default) opts out of identity checking beyond shape.
    pub model_id: u64,
}

/// One request message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness + round-trip probe; the server echoes the nonce.
    Ping {
        /// Opaque value echoed back in [`Response::Pong`].
        nonce: u64,
    },
    /// Interpret one instance's prediction for one class.
    Interpret {
        /// The class to interpret for.
        class: usize,
        /// Deadline budget in milliseconds from server receipt; `0` means
        /// none (the server may still apply its configured default).
        deadline_ms: u64,
        /// The instance whose prediction to interpret.
        instance: Vector,
    },
    /// Interpret up to [`MAX_BATCH`] instances in one round trip; results
    /// come back per item, in order.
    InterpretBatch {
        /// Deadline budget in milliseconds, shared by every item (`0` =
        /// none).
        deadline_ms: u64,
        /// `(instance, class)` work items.
        items: Vec<(Vector, usize)>,
    },
    /// Fetch the server's service statistics snapshot.
    Stats,
    /// Fetch a Prometheus-style text exposition of the server's metrics
    /// (counters, gauges, and per-stage latency histograms).
    Metrics,
    /// Anti-entropy round, step 1: ask for the server's region-store
    /// digest. Carries the caller's own model declaration so the server
    /// can refuse cross-model syncs with a typed
    /// [`ErrorCode::ModelMismatch`] even when the caller skipped the
    /// hello check.
    SyncDigest {
        /// The caller's model input dimensionality.
        dim: usize,
        /// The caller's model class count.
        num_classes: usize,
        /// The caller's model identity (see [`ModelInfo::model_id`]).
        model_id: u64,
    },
    /// Anti-entropy round, step 2: pull record frames the caller is
    /// missing from the named digest buckets.
    SyncPull {
        /// Digest buckets (each `< DIGEST_BUCKETS`) whose contents the
        /// caller wants.
        buckets: Vec<u32>,
        /// Sync keys (record-frame CRCs) the caller already holds in
        /// those buckets; the server ships only what is absent here.
        have: Vec<u64>,
        /// Soft cap on shipped frame bytes; the server marks the reply
        /// truncated when it stops early, and the caller pulls again.
        max_bytes: u64,
    },
}

/// One response message. On a connection, responses arrive in request
/// order — requests may be pipelined, answers never reorder.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong {
        /// The request's nonce, echoed.
        nonce: u64,
    },
    /// Answer to [`Request::Interpret`].
    Interpreted(RemoteServed),
    /// Answer to [`Request::InterpretBatch`]: one result per item, in
    /// submission order.
    Batch(Vec<Result<RemoteServed, RemoteError>>),
    /// Answer to [`Request::Stats`]. Boxed: the snapshot carries the raw
    /// latency bucket arrays (~2.3 KiB) and would otherwise dominate the
    /// size of every `Response` on the stack.
    StatsReply(Box<StatsSnapshot>),
    /// Answer to [`Request::Metrics`]: the exposition text, UTF-8.
    MetricsReply(String),
    /// Answer to [`Request::SyncDigest`]. Boxed: the digest is a
    /// 64-bucket array (~1 KiB) that would otherwise dominate every
    /// `Response`'s stack size.
    SyncDigestReply(Box<StoreDigest>),
    /// Answer to [`Request::SyncPull`]: verbatim record frames the
    /// caller was missing, exactly as they sit in the server's WAL.
    SyncPullReply(SyncDelta),
    /// A typed failure (answer to any request, or — for
    /// [`ErrorCode::Malformed`] frames — to bytes that never became one).
    Error(RemoteError),
}

/// Encodes a hello: magic + version.
pub fn encode_hello(version: u32) -> [u8; HELLO_LEN] {
    let mut hello = [0u8; HELLO_LEN];
    hello[..8].copy_from_slice(&MAGIC);
    hello[8..].copy_from_slice(&version.to_le_bytes());
    hello
}

/// Decodes a hello, returning the peer's version.
///
/// # Errors
/// [`WireError::BadMagic`] when the magic bytes are wrong.
pub fn decode_hello(hello: &[u8; HELLO_LEN]) -> Result<u32, WireError> {
    if hello[..8] != MAGIC {
        let mut found = [0u8; 8];
        found.copy_from_slice(&hello[..8]);
        return Err(WireError::BadMagic { found });
    }
    Ok(u32::from_le_bytes(hello[8..].try_into().expect("4 bytes")))
}

/// Encodes a server hello: magic + version + the hidden model's shape and
/// identity. The first [`HELLO_LEN`] bytes are laid out exactly like a
/// client hello, so a client can read those, learn the version, and only
/// then commit to reading the model tail.
pub fn encode_server_hello(version: u32, model: &ModelInfo) -> [u8; SERVER_HELLO_LEN] {
    let mut hello = [0u8; SERVER_HELLO_LEN];
    hello[..8].copy_from_slice(&MAGIC);
    hello[8..12].copy_from_slice(&version.to_le_bytes());
    hello[12..16].copy_from_slice(&(model.dim.min(u32::MAX as usize) as u32).to_le_bytes());
    hello[16..20].copy_from_slice(&(model.num_classes.min(u32::MAX as usize) as u32).to_le_bytes());
    hello[20..28].copy_from_slice(&model.model_id.to_le_bytes());
    hello
}

/// Decodes a server hello, returning the peer's version and model
/// declaration.
///
/// # Errors
/// [`WireError::BadMagic`] when the magic bytes are wrong.
pub fn decode_server_hello(hello: &[u8; SERVER_HELLO_LEN]) -> Result<(u32, ModelInfo), WireError> {
    let mut head = [0u8; HELLO_LEN];
    head.copy_from_slice(&hello[..HELLO_LEN]);
    let version = decode_hello(&head)?;
    let dim = u32::from_le_bytes(hello[12..16].try_into().expect("4 bytes")) as usize;
    let num_classes = u32::from_le_bytes(hello[16..20].try_into().expect("4 bytes")) as usize;
    let model_id = u64::from_le_bytes(hello[20..28].try_into().expect("8 bytes"));
    Ok((
        version,
        ModelInfo {
            dim,
            num_classes,
            model_id,
        },
    ))
}

fn get_u8(buf: &mut &[u8], what: &'static str) -> Result<u8, WireError> {
    if buf.remaining() < 1 {
        return Err(CodecError::Truncated {
            what,
            needed: 1,
            remaining: 0,
        }
        .into());
    }
    Ok(buf.get_u8())
}

fn get_u16(buf: &mut &[u8], what: &'static str) -> Result<u16, WireError> {
    if buf.remaining() < 2 {
        return Err(CodecError::Truncated {
            what,
            needed: 2,
            remaining: buf.remaining(),
        }
        .into());
    }
    Ok(buf.get_u16_le())
}

fn get_u64(buf: &mut &[u8], what: &'static str) -> Result<u64, WireError> {
    if buf.remaining() < 8 {
        return Err(CodecError::Truncated {
            what,
            needed: 8,
            remaining: buf.remaining(),
        }
        .into());
    }
    Ok(buf.get_u64_le())
}

fn put_string(buf: &mut Vec<u8>, s: &str) {
    codec::put_len(buf, s.len());
    buf.extend_from_slice(s.as_bytes());
}

fn get_string(buf: &mut &[u8], what: &'static str) -> Result<String, WireError> {
    let len = codec::get_len(buf, what)?;
    if buf.remaining() < len {
        return Err(CodecError::Truncated {
            what,
            needed: len,
            remaining: buf.remaining(),
        }
        .into());
    }
    let (bytes, rest) = buf.split_at(len);
    let s = String::from_utf8_lossy(bytes).into_owned();
    *buf = rest;
    Ok(s)
}

fn outcome_to_u8(outcome: ServeOutcome) -> u8 {
    match outcome {
        ServeOutcome::CacheHit => 0,
        ServeOutcome::StoreHit => 1,
        ServeOutcome::Solved => 2,
        ServeOutcome::Coalesced => 3,
    }
}

fn outcome_from_u8(value: u8) -> Result<ServeOutcome, WireError> {
    match value {
        0 => Ok(ServeOutcome::CacheHit),
        1 => Ok(ServeOutcome::StoreHit),
        2 => Ok(ServeOutcome::Solved),
        3 => Ok(ServeOutcome::Coalesced),
        other => Err(WireError::BadValue {
            what: "serve outcome",
            value: u64::from(other),
        }),
    }
}

/// Durations travel as whole microseconds; `u64::MAX` encodes `None` for
/// the optional latency quantiles.
const NO_DURATION: u64 = u64::MAX;

fn put_opt_duration(buf: &mut Vec<u8>, d: Option<Duration>) {
    buf.put_u64_le(d.map_or(NO_DURATION, |d| {
        d.as_micros().min(u128::from(NO_DURATION - 1)) as u64
    }));
}

fn get_opt_duration(buf: &mut &[u8], what: &'static str) -> Result<Option<Duration>, WireError> {
    let micros = get_u64(buf, what)?;
    Ok((micros != NO_DURATION).then(|| Duration::from_micros(micros)))
}

fn put_served(buf: &mut Vec<u8>, served: &RemoteServed) {
    buf.put_u8(outcome_to_u8(served.outcome));
    codec::put_len(buf, served.queries);
    buf.put_u64_le(served.server_latency.as_micros().min(u128::from(u64::MAX)) as u64);
    buf.put_u64_le(served.span);
    // The interpretation travels as one openapi-store record frame —
    // byte-identical to its on-disk representation, CRC included.
    record::put_record(buf, served.fingerprint, &served.interpretation);
}

fn get_served(buf: &mut &[u8]) -> Result<RemoteServed, WireError> {
    let outcome = outcome_from_u8(get_u8(buf, "served outcome")?)?;
    let queries = codec::get_len(buf, "served queries")?;
    let latency = Duration::from_micros(get_u64(buf, "served latency")?);
    let span = get_u64(buf, "served span")?;
    let region = record::get_record(buf)?;
    Ok(RemoteServed {
        interpretation: region.interpretation,
        fingerprint: region.fingerprint,
        outcome,
        queries,
        server_latency: latency,
        span,
    })
}

fn put_remote_error(buf: &mut Vec<u8>, e: &RemoteError) {
    buf.put_u16_le(e.code.as_u16());
    put_string(buf, &e.message);
}

fn get_remote_error(buf: &mut &[u8]) -> Result<RemoteError, WireError> {
    let raw = get_u16(buf, "error code")?;
    let code = ErrorCode::from_u16(raw).ok_or(WireError::BadValue {
        what: "error code",
        value: u64::from(raw),
    })?;
    let message = get_string(buf, "error message")?;
    Ok(RemoteError { code, message })
}

fn put_digest(buf: &mut Vec<u8>, digest: &StoreDigest) {
    for bucket in &digest.buckets {
        buf.put_u64_le(bucket.xor);
        buf.put_u64_le(bucket.count);
    }
}

fn get_digest(buf: &mut &[u8]) -> Result<StoreDigest, WireError> {
    let mut digest = StoreDigest::default();
    for bucket in &mut digest.buckets {
        *bucket = DigestBucket {
            xor: get_u64(buf, "digest bucket xor")?,
            count: get_u64(buf, "digest bucket count")?,
        };
    }
    Ok(digest)
}

/// Writes every declared counter of a stats family, in declaration order.
fn put_family<S: Family>(buf: &mut Vec<u8>, s: &S) {
    for m in S::METRICS {
        buf.put_u64_le((m.get)(s));
    }
}

/// Reads the counters [`put_family`] wrote into `s`.
fn get_family<S: Family>(buf: &mut &[u8], s: &mut S) -> Result<(), WireError> {
    for m in S::METRICS {
        (m.set)(s, get_u64(buf, m.field)?);
    }
    Ok(())
}

/// An optional family behind its presence byte (`0` absent, `1` present).
fn put_section<S: Family>(buf: &mut Vec<u8>, s: Option<&S>) {
    buf.put_u8(u8::from(s.is_some()));
    if let Some(s) = s {
        put_family(buf, s);
    }
}

fn get_section<S: Family + Default>(
    buf: &mut &[u8],
    what: &'static str,
) -> Result<Option<S>, WireError> {
    match get_u8(buf, what)? {
        0 => Ok(None),
        1 => {
            let mut s = S::default();
            get_family(buf, &mut s)?;
            Ok(Some(s))
        }
        other => Err(WireError::BadValue {
            what,
            value: u64::from(other),
        }),
    }
}

fn put_stats(buf: &mut Vec<u8>, s: &StatsSnapshot) {
    put_family(buf, s);
    put_opt_duration(buf, s.p50_latency);
    put_opt_duration(buf, s.p99_latency);
    let buckets = s.latency_buckets.iter();
    for b in buckets.chain(s.stage_buckets.iter().flatten()) {
        buf.put_u64_le(*b);
    }
    put_section(buf, s.store.as_ref());
    put_section(buf, s.fabric.as_ref());
    put_section(buf, s.drift.as_ref());
}

fn get_stats(buf: &mut &[u8]) -> Result<StatsSnapshot, WireError> {
    let mut s = StatsSnapshot::default();
    get_family(buf, &mut s)?;
    s.p50_latency = get_opt_duration(buf, "stats p50")?;
    s.p99_latency = get_opt_duration(buf, "stats p99")?;
    let buckets = s.latency_buckets.iter_mut();
    for b in buckets.chain(s.stage_buckets.iter_mut().flatten()) {
        *b = get_u64(buf, "stats latency bucket")?;
    }
    s.store = get_section(buf, "stats store flag")?;
    s.fabric = get_section(buf, "stats fabric flag")?;
    s.drift = get_section(buf, "stats drift flag")?;
    Ok(s)
}

/// Wraps a finished payload in its frame (length + CRC).
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(payload.len() + record::FRAME_HEADER);
    record::put_frame(&mut frame, payload);
    frame
}

/// Encodes an `Interpret` request frame from borrowed parts — the
/// client's hot path, sparing the instance copy [`encode_request`]'s
/// owned [`Request`] would force.
pub fn encode_interpret(class: usize, deadline_ms: u64, instance: &Vector) -> Vec<u8> {
    let mut payload = Vec::with_capacity(17 + 8 + 8 * instance.len());
    payload.put_u8(TAG_INTERPRET);
    codec::put_len(&mut payload, class);
    payload.put_u64_le(deadline_ms);
    codec::put_vector(&mut payload, instance);
    frame(&payload)
}

/// Encodes an `InterpretBatch` request frame from borrowed items (see
/// [`encode_interpret`]).
pub fn encode_interpret_batch(deadline_ms: u64, items: &[(Vector, usize)]) -> Vec<u8> {
    let mut payload = Vec::new();
    payload.put_u8(TAG_INTERPRET_BATCH);
    payload.put_u64_le(deadline_ms);
    codec::put_len(&mut payload, items.len());
    for (instance, class) in items {
        codec::put_len(&mut payload, *class);
        codec::put_vector(&mut payload, instance);
    }
    frame(&payload)
}

/// Encodes a request into one complete frame (header + CRC + payload).
pub fn encode_request(request: &Request) -> Vec<u8> {
    match request {
        Request::Ping { nonce } => {
            let mut payload = Vec::with_capacity(9);
            payload.put_u8(TAG_PING);
            payload.put_u64_le(*nonce);
            frame(&payload)
        }
        Request::Interpret {
            class,
            deadline_ms,
            instance,
        } => encode_interpret(*class, *deadline_ms, instance),
        Request::InterpretBatch { deadline_ms, items } => {
            encode_interpret_batch(*deadline_ms, items)
        }
        Request::Stats => frame(&[TAG_STATS]),
        Request::Metrics => frame(&[TAG_METRICS]),
        Request::SyncDigest {
            dim,
            num_classes,
            model_id,
        } => {
            let mut payload = Vec::with_capacity(27);
            payload.put_u8(TAG_SYNC_DIGEST);
            codec::put_len(&mut payload, *dim);
            codec::put_len(&mut payload, *num_classes);
            payload.put_u64_le(*model_id);
            frame(&payload)
        }
        Request::SyncPull {
            buckets,
            have,
            max_bytes,
        } => {
            let mut payload = Vec::with_capacity(19 + 4 * buckets.len() + 8 * have.len());
            payload.put_u8(TAG_SYNC_PULL);
            codec::put_len(&mut payload, buckets.len());
            for b in buckets {
                payload.put_u32_le(*b);
            }
            codec::put_len(&mut payload, have.len());
            for key in have {
                payload.put_u64_le(*key);
            }
            payload.put_u64_le(*max_bytes);
            frame(&payload)
        }
    }
}

/// Decodes a request from a verified frame payload.
///
/// # Errors
/// [`WireError`] on an unknown tag, malformed field, out-of-domain value,
/// or trailing bytes.
pub fn decode_request(mut payload: &[u8]) -> Result<Request, WireError> {
    let buf = &mut payload;
    let request = match get_u8(buf, "request tag")? {
        TAG_PING => Request::Ping {
            nonce: get_u64(buf, "ping nonce")?,
        },
        TAG_INTERPRET => Request::Interpret {
            class: codec::get_len(buf, "interpret class")?,
            deadline_ms: get_u64(buf, "interpret deadline")?,
            instance: codec::get_vector(buf, "interpret instance")?,
        },
        TAG_INTERPRET_BATCH => {
            let deadline_ms = get_u64(buf, "batch deadline")?;
            let count = codec::get_len(buf, "batch count")?;
            if count > MAX_BATCH {
                return Err(WireError::BadValue {
                    what: "batch count",
                    value: count as u64,
                });
            }
            let mut items = Vec::with_capacity(count);
            for _ in 0..count {
                let class = codec::get_len(buf, "batch item class")?;
                let instance = codec::get_vector(buf, "batch item instance")?;
                items.push((instance, class));
            }
            Request::InterpretBatch { deadline_ms, items }
        }
        TAG_STATS => Request::Stats,
        TAG_METRICS => Request::Metrics,
        TAG_SYNC_DIGEST => Request::SyncDigest {
            dim: codec::get_len(buf, "sync digest dim")?,
            num_classes: codec::get_len(buf, "sync digest classes")?,
            model_id: get_u64(buf, "sync digest model id")?,
        },
        TAG_SYNC_PULL => {
            let count = codec::get_len(buf, "sync pull bucket count")?;
            if count > DIGEST_BUCKETS {
                return Err(WireError::BadValue {
                    what: "sync pull bucket count",
                    value: count as u64,
                });
            }
            let mut buckets = Vec::with_capacity(count);
            for _ in 0..count {
                if buf.remaining() < 4 {
                    return Err(CodecError::Truncated {
                        what: "sync pull bucket",
                        needed: 4,
                        remaining: buf.remaining(),
                    }
                    .into());
                }
                let b = buf.get_u32_le();
                if b as usize >= DIGEST_BUCKETS {
                    return Err(WireError::BadValue {
                        what: "sync pull bucket",
                        value: u64::from(b),
                    });
                }
                buckets.push(b);
            }
            let have_count = codec::get_len(buf, "sync pull have count")?;
            // No fixed cap: the frame length (MAX_PAYLOAD) already bounds
            // this, and the allocation below grows with bytes actually
            // present, never with a hostile count alone.
            let mut have = Vec::with_capacity(have_count.min(buf.remaining() / 8));
            for _ in 0..have_count {
                have.push(get_u64(buf, "sync pull have key")?);
            }
            Request::SyncPull {
                buckets,
                have,
                max_bytes: get_u64(buf, "sync pull max bytes")?,
            }
        }
        tag => return Err(WireError::BadTag { tag }),
    };
    if !buf.is_empty() {
        return Err(WireError::TrailingBytes {
            remaining: buf.len(),
        });
    }
    Ok(request)
}

/// Encodes a response into one complete frame (header + CRC + payload).
pub fn encode_response(response: &Response) -> Vec<u8> {
    let mut payload = Vec::new();
    match response {
        Response::Pong { nonce } => {
            payload.put_u8(TAG_PONG);
            payload.put_u64_le(*nonce);
        }
        Response::Interpreted(served) => {
            payload.put_u8(TAG_INTERPRETED);
            put_served(&mut payload, served);
        }
        Response::Batch(results) => {
            payload.put_u8(TAG_BATCH);
            codec::put_len(&mut payload, results.len());
            for result in results {
                match result {
                    Ok(served) => {
                        payload.put_u8(1);
                        put_served(&mut payload, served);
                    }
                    Err(e) => {
                        payload.put_u8(0);
                        put_remote_error(&mut payload, e);
                    }
                }
            }
        }
        Response::StatsReply(stats) => {
            payload.put_u8(TAG_STATS_REPLY);
            put_stats(&mut payload, stats);
        }
        Response::MetricsReply(text) => {
            payload.put_u8(TAG_METRICS_REPLY);
            put_string(&mut payload, text);
        }
        Response::SyncDigestReply(digest) => {
            payload.put_u8(TAG_SYNC_DIGEST_REPLY);
            put_digest(&mut payload, digest);
        }
        Response::SyncPullReply(delta) => {
            payload.put_u8(TAG_SYNC_PULL_REPLY);
            payload.put_u64_le(delta.records);
            payload.put_u8(u8::from(delta.truncated));
            codec::put_len(&mut payload, delta.frames.len());
            payload.extend_from_slice(&delta.frames);
        }
        Response::Error(e) => {
            payload.put_u8(TAG_ERROR);
            put_remote_error(&mut payload, e);
        }
    }
    frame(&payload)
}

/// Decodes a response from a verified frame payload.
///
/// # Errors
/// [`WireError`] on an unknown tag, malformed field, out-of-domain value,
/// or trailing bytes.
pub fn decode_response(mut payload: &[u8]) -> Result<Response, WireError> {
    let buf = &mut payload;
    let response = match get_u8(buf, "response tag")? {
        TAG_PONG => Response::Pong {
            nonce: get_u64(buf, "pong nonce")?,
        },
        TAG_INTERPRETED => Response::Interpreted(get_served(buf)?),
        TAG_BATCH => {
            let count = codec::get_len(buf, "batch reply count")?;
            if count > MAX_BATCH {
                return Err(WireError::BadValue {
                    what: "batch reply count",
                    value: count as u64,
                });
            }
            let mut results = Vec::with_capacity(count);
            for _ in 0..count {
                results.push(match get_u8(buf, "batch item flag")? {
                    1 => Ok(get_served(buf)?),
                    0 => Err(get_remote_error(buf)?),
                    other => {
                        return Err(WireError::BadValue {
                            what: "batch item flag",
                            value: u64::from(other),
                        })
                    }
                });
            }
            Response::Batch(results)
        }
        TAG_STATS_REPLY => Response::StatsReply(Box::new(get_stats(buf)?)),
        TAG_METRICS_REPLY => Response::MetricsReply(get_string(buf, "metrics text")?),
        TAG_SYNC_DIGEST_REPLY => Response::SyncDigestReply(Box::new(get_digest(buf)?)),
        TAG_SYNC_PULL_REPLY => {
            let records = get_u64(buf, "sync pull records")?;
            let truncated = match get_u8(buf, "sync pull truncated flag")? {
                0 => false,
                1 => true,
                other => {
                    return Err(WireError::BadValue {
                        what: "sync pull truncated flag",
                        value: u64::from(other),
                    })
                }
            };
            let len = codec::get_len(buf, "sync pull frame bytes")?;
            if buf.remaining() < len {
                return Err(CodecError::Truncated {
                    what: "sync pull frames",
                    needed: len,
                    remaining: buf.remaining(),
                }
                .into());
            }
            let (bytes, rest) = buf.split_at(len);
            let frames = bytes.to_vec();
            *buf = rest;
            Response::SyncPullReply(SyncDelta {
                frames,
                records,
                truncated,
            })
        }
        TAG_ERROR => Response::Error(get_remote_error(buf)?),
        tag => return Err(WireError::BadTag { tag }),
    };
    if !buf.is_empty() {
        return Err(WireError::TrailingBytes {
            remaining: buf.len(),
        });
    }
    Ok(response)
}

/// How reading one frame from a stream ended.
#[derive(Debug)]
pub enum FrameRead {
    /// A frame arrived and its CRC verified; here is its payload.
    Payload(Vec<u8>),
    /// The peer closed the stream cleanly between frames.
    Closed,
    /// The stream broke mid-frame or the frame failed verification. The
    /// stream can no longer be trusted to be in sync.
    Corrupt(WireError),
}

/// Reads one frame from `r`: the same `len + CRC-64/XZ + payload` layout
/// [`openapi_store::record::get_frame`] parses from byte slices, adapted
/// to a blocking stream. A clean EOF *between* frames is
/// [`FrameRead::Closed`]; an EOF *inside* a frame, an implausible length,
/// or a checksum mismatch is [`FrameRead::Corrupt`].
///
/// # Errors
/// Only genuine I/O failures (connection reset, timeouts) are returned as
/// `Err`; protocol-level trouble is in the `Ok(FrameRead)` domain.
pub fn read_frame(r: &mut impl Read) -> io::Result<FrameRead> {
    let mut header = [0u8; record::FRAME_HEADER];
    match read_full(r, &mut header)? {
        0 => return Ok(FrameRead::Closed),
        n if n < header.len() => {
            return Ok(FrameRead::Corrupt(
                CodecError::Truncated {
                    what: "wire frame header",
                    needed: header.len(),
                    remaining: n,
                }
                .into(),
            ))
        }
        _ => {}
    }
    let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes"));
    let stored = u64::from_le_bytes(header[4..].try_into().expect("8 bytes"));
    if len > record::MAX_PAYLOAD {
        return Ok(FrameRead::Corrupt(
            CodecError::BadLength {
                what: "wire frame payload",
                value: u64::from(len),
            }
            .into(),
        ));
    }
    // The length field is untrusted until the CRC verifies, so the buffer
    // grows chunk by chunk as bytes actually arrive — a hostile header
    // claiming a 256 MiB payload costs this process only what the peer
    // really transmits, never an up-front allocation.
    const CHUNK: usize = 64 * 1024;
    let len = len as usize;
    let mut payload = Vec::with_capacity(len.min(CHUNK));
    while payload.len() < len {
        let want = (len - payload.len()).min(CHUNK);
        let start = payload.len();
        payload.resize(start + want, 0);
        let got = read_full(r, &mut payload[start..])?;
        payload.truncate(start + got);
        if got < want {
            return Ok(FrameRead::Corrupt(
                CodecError::Truncated {
                    what: "wire frame payload",
                    needed: len,
                    remaining: payload.len(),
                }
                .into(),
            ));
        }
    }
    let computed = record::crc64(&payload);
    if computed != stored {
        return Ok(FrameRead::Corrupt(
            RecordError::Checksum { stored, computed }.into(),
        ));
    }
    Ok(FrameRead::Payload(payload))
}

/// Writes one already-encoded frame to `w`.
///
/// # Errors
/// Whatever the underlying writer fails with.
pub fn write_frame(w: &mut impl Write, frame: &[u8]) -> io::Result<()> {
    w.write_all(frame)?;
    w.flush()
}

/// Reads until `buf` is full or EOF; returns how many bytes were read.
fn read_full(r: &mut impl Read, buf: &mut [u8]) -> io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use openapi_core::decision::PairwiseCoreParams;
    use openapi_serve::{DriftStatsSnapshot, FabricStatsSnapshot};
    use openapi_store::StoreStatsSnapshot;

    fn served(outcome: ServeOutcome) -> RemoteServed {
        let interpretation = Interpretation::from_pairwise(
            1,
            vec![
                PairwiseCoreParams {
                    c_prime: 0,
                    weights: Vector(vec![0.5, -1.25, 3.0]),
                    bias: 0.125,
                },
                PairwiseCoreParams {
                    c_prime: 2,
                    weights: Vector(vec![1e-9, 2.0, -0.75]),
                    bias: -4.5,
                },
            ],
        )
        .unwrap();
        RemoteServed {
            fingerprint: interpretation.fingerprint(6),
            interpretation: Arc::new(interpretation),
            outcome,
            queries: 11,
            server_latency: Duration::from_micros(12_345),
            span: 0xFACE,
        }
    }

    fn sample_stats(with_store: bool) -> StatsSnapshot {
        StatsSnapshot {
            requests: 100,
            hits: 60,
            store_hits: 10,
            misses: 20,
            coalesced_waits: 7,
            coalesced_served: 5,
            failures: 3,
            deadline_expired: 2,
            queries: 321,
            evictions: 4,
            cached_regions: 16,
            p50_latency: Some(Duration::from_micros(250)),
            p99_latency: None,
            latency_buckets: std::array::from_fn(|i| (i as u64) % 5),
            stage_buckets: std::array::from_fn(|s| {
                std::array::from_fn(|i| ((s * 7 + i) as u64) % 3)
            }),
            store: with_store.then_some(StoreStatsSnapshot {
                regions: 21,
                wal_bytes: 4096,
                segments: 2,
                appends: 20,
                duplicate_appends: 1,
                flushed_records: 19,
                fsyncs: 3,
                lookups: 50,
                hits: 10,
                compactions: 6,
                recovered_wal_records: 5,
                recovered_segment_records: 15,
                recovered_discarded_bytes: 13,
            }),
            fabric: with_store.then_some(FabricStatsSnapshot {
                peers: 2,
                rounds: 40,
                digests: 80,
                pulled_records: 17,
                pulled_bytes: 9999,
                ingested: 15,
                duplicates: 3,
                rejected: 0,
                peer_failures: 1,
                spot_checks: 14,
            }),
            drift: with_store.then_some(DriftStatsSnapshot {
                detected: 3,
                invalidated: 4,
                tombstones: 6,
                resolves: 2,
                witnesses: 11,
            }),
        }
    }

    fn roundtrip_request(request: Request) {
        let frame = encode_request(&request);
        let mut slice = frame.as_slice();
        let payload = record::get_frame(&mut slice).unwrap();
        assert!(slice.is_empty(), "one frame, consumed exactly");
        assert_eq!(decode_request(payload).unwrap(), request);
    }

    fn roundtrip_response(response: Response) {
        let frame = encode_response(&response);
        let mut slice = frame.as_slice();
        let payload = record::get_frame(&mut slice).unwrap();
        assert!(slice.is_empty(), "one frame, consumed exactly");
        assert_eq!(decode_response(payload).unwrap(), response);
    }

    #[test]
    fn every_request_round_trips() {
        roundtrip_request(Request::Ping { nonce: 0xDEAD_BEEF });
        roundtrip_request(Request::Interpret {
            class: 3,
            deadline_ms: 1500,
            instance: Vector(vec![0.25, -1.5, 1e-300, 42.0]),
        });
        roundtrip_request(Request::InterpretBatch {
            deadline_ms: 0,
            items: vec![(Vector(vec![1.0, 2.0]), 0), (Vector(vec![-0.5, 0.5]), 7)],
        });
        roundtrip_request(Request::Stats);
        roundtrip_request(Request::Metrics);
        roundtrip_request(Request::SyncDigest {
            dim: 16,
            num_classes: 4,
            model_id: 0xFEED_F00D,
        });
        roundtrip_request(Request::SyncPull {
            buckets: vec![0, 17, 63],
            have: vec![0xAAAA, 0xBBBB, u64::MAX],
            max_bytes: 1 << 20,
        });
        roundtrip_request(Request::SyncPull {
            buckets: Vec::new(),
            have: Vec::new(),
            max_bytes: 0,
        });
    }

    /// The `StatsReply` frame for `sample_stats(true)` — every section
    /// present, every counter distinct within its family — pinned byte for
    /// byte, so a codec change that moves, drops or resizes a field fails
    /// here instead of on a deployed peer.
    #[test]
    fn stats_reply_bytes_match_the_golden_frame() {
        let frame = encode_response(&Response::StatsReply(Box::new(sample_stats(true))));
        let hex: String = frame.iter().map(|b| format!("{b:02x}")).collect();
        let golden: String = include_str!("../testdata/stats_reply.hex")
            .split_whitespace()
            .collect();
        assert_eq!(hex, golden, "StatsReply bytes changed");
    }

    /// Sets every declared counter of `s` to the next value of `next`;
    /// returns each declaration's series name with the value it was given.
    fn fill<S: Family>(s: &mut S, next: &mut u64) -> Vec<(&'static str, u64)> {
        S::METRICS
            .iter()
            .map(|m| {
                *next += 1;
                (m.set)(s, *next);
                (m.name, *next)
            })
            .collect()
    }

    /// Field-exhaustive over the declarations rather than named fields:
    /// every counter of every family gets a distinct value, survives the
    /// wire, and appears in the exposition exactly once with that value.
    #[test]
    fn every_declared_counter_crosses_the_wire_and_is_exposed_once() {
        let mut next = 1_000;
        let mut stats = sample_stats(false);
        let (mut store, mut fabric, mut drift) = (
            StoreStatsSnapshot::default(),
            FabricStatsSnapshot::default(),
            DriftStatsSnapshot::default(),
        );
        let mut declared = fill(&mut stats, &mut next);
        declared.extend(fill(&mut store, &mut next));
        declared.extend(fill(&mut fabric, &mut next));
        declared.extend(fill(&mut drift, &mut next));
        (stats.store, stats.fabric, stats.drift) = (Some(store), Some(fabric), Some(drift));

        roundtrip_response(Response::StatsReply(Box::new(stats.clone())));
        let text = stats.to_prometheus();
        for (name, value) in declared {
            let samples: Vec<&str> = text
                .lines()
                .filter(|l| l.split(' ').next() == Some(name))
                .collect();
            assert_eq!(samples, [format!("{name} {value}")]);
        }
    }

    #[test]
    fn every_response_round_trips() {
        roundtrip_response(Response::Pong { nonce: 7 });
        for outcome in [
            ServeOutcome::CacheHit,
            ServeOutcome::StoreHit,
            ServeOutcome::Solved,
            ServeOutcome::Coalesced,
        ] {
            roundtrip_response(Response::Interpreted(served(outcome)));
        }
        roundtrip_response(Response::Batch(vec![
            Ok(served(ServeOutcome::Solved)),
            Err(RemoteError {
                code: ErrorCode::Interpret,
                message: "dimension mismatch: expected 8, found 5".into(),
            }),
            Ok(served(ServeOutcome::CacheHit)),
        ]));
        roundtrip_response(Response::StatsReply(Box::new(sample_stats(false))));
        roundtrip_response(Response::StatsReply(Box::new(sample_stats(true))));
        roundtrip_response(Response::MetricsReply(
            "# TYPE openapi_requests_total counter\nopenapi_requests_total 100\n".into(),
        ));
        roundtrip_response(Response::Error(RemoteError {
            code: ErrorCode::Busy,
            message: String::new(),
        }));
        roundtrip_response(Response::Error(RemoteError {
            code: ErrorCode::ModelMismatch,
            message: "peer model 3x2 id 7, local 3x2 id 9".into(),
        }));
        let mut digest = StoreDigest::default();
        digest.add(0xDEAD_BEEF);
        digest.add(0xFEED_F00D);
        roundtrip_response(Response::SyncDigestReply(Box::new(digest)));
        let mut frames = Vec::new();
        record::put_record(
            &mut frames,
            served(ServeOutcome::Solved).fingerprint,
            &served(ServeOutcome::Solved).interpretation,
        );
        roundtrip_response(Response::SyncPullReply(SyncDelta {
            frames,
            records: 1,
            truncated: true,
        }));
        roundtrip_response(Response::SyncPullReply(SyncDelta::default()));
    }

    #[test]
    fn sync_pull_rejects_out_of_domain_buckets() {
        let mut payload = vec![TAG_SYNC_PULL];
        codec::put_len(&mut payload, 1);
        payload.put_u32_le(DIGEST_BUCKETS as u32);
        assert!(matches!(
            decode_request(&payload),
            Err(WireError::BadValue {
                what: "sync pull bucket",
                ..
            })
        ));
        let mut payload = vec![TAG_SYNC_PULL];
        codec::put_len(&mut payload, DIGEST_BUCKETS + 1);
        assert!(matches!(
            decode_request(&payload),
            Err(WireError::BadValue {
                what: "sync pull bucket count",
                ..
            })
        ));
    }

    #[test]
    fn server_hello_round_trips_and_shares_the_client_prefix() {
        let model = ModelInfo {
            dim: 24,
            num_classes: 5,
            model_id: 0xC0FF_EE00,
        };
        let hello = encode_server_hello(VERSION, &model);
        assert_eq!(decode_server_hello(&hello).unwrap(), (VERSION, model));
        // A version-only reader parses the first HELLO_LEN bytes as an
        // ordinary hello — that is what lets old clients learn the
        // version before rejecting us.
        let mut head = [0u8; HELLO_LEN];
        head.copy_from_slice(&hello[..HELLO_LEN]);
        assert_eq!(decode_hello(&head).unwrap(), VERSION);
        let mut bad = hello;
        bad[3] ^= 0x40;
        assert!(matches!(
            decode_server_hello(&bad),
            Err(WireError::BadMagic { .. })
        ));
    }

    #[test]
    fn hello_round_trips_and_rejects_bad_magic() {
        let hello = encode_hello(VERSION);
        assert_eq!(decode_hello(&hello).unwrap(), VERSION);
        let mut bad = hello;
        bad[0] ^= 0xFF;
        assert!(matches!(
            decode_hello(&bad),
            Err(WireError::BadMagic { .. })
        ));
    }

    #[test]
    fn unknown_tags_and_trailing_bytes_are_typed_errors() {
        assert!(matches!(
            decode_request(&[0x7F]),
            Err(WireError::BadTag { tag: 0x7F })
        ));
        assert!(matches!(
            decode_response(&[0x01]),
            Err(WireError::BadTag { tag: 0x01 })
        ));
        // A valid Stats request followed by junk.
        assert!(matches!(
            decode_request(&[TAG_STATS, 0xAA]),
            Err(WireError::TrailingBytes { remaining: 1 })
        ));
        assert!(matches!(decode_request(&[]), Err(WireError::Codec(_))));
    }

    #[test]
    fn a_served_record_with_trailing_payload_bytes_is_refused() {
        let reply = served(ServeOutcome::Solved);
        let mut payload = vec![TAG_INTERPRETED];
        put_served(&mut payload, &reply);
        let record_at =
            payload.len() - record::encode_record(reply.fingerprint, &reply.interpretation).len();
        let mut record_payload = payload.split_off(record_at)[record::FRAME_HEADER..].to_vec();
        record_payload.extend_from_slice(&[0u8; 8]);
        record::put_frame(&mut payload, &record_payload);
        assert!(matches!(
            decode_response(&payload),
            Err(WireError::Record(RecordError::Codec(CodecError::BadLength {
                what: "record payload",
                value,
            }))) if value == record_payload.len() as u64
        ));
    }

    #[test]
    fn oversized_batch_counts_are_rejected() {
        let mut payload = vec![TAG_INTERPRET_BATCH];
        payload.put_u64_le(0);
        codec::put_len(&mut payload, MAX_BATCH + 1);
        assert!(matches!(
            decode_request(&payload),
            Err(WireError::BadValue {
                what: "batch count",
                ..
            })
        ));
    }

    #[test]
    fn every_truncation_of_a_framed_request_is_detected() {
        let frame = encode_request(&Request::Interpret {
            class: 1,
            deadline_ms: 250,
            instance: Vector(vec![0.5, -0.5, 1.5]),
        });
        for keep in 0..frame.len() {
            let mut cursor = &frame[..keep];
            match record::get_frame(&mut cursor) {
                Err(_) => {}
                Ok(payload) => panic!("truncation to {keep} bytes slipped through: {payload:?}"),
            }
        }
    }

    #[test]
    fn every_byte_flip_of_a_framed_request_is_detected() {
        let frame = encode_request(&Request::Interpret {
            class: 0,
            deadline_ms: 0,
            instance: Vector(vec![1.0, 2.0]),
        });
        for i in 0..frame.len() {
            let mut corrupt = frame.clone();
            corrupt[i] ^= 0x10;
            let mut cursor = corrupt.as_slice();
            match record::get_frame(&mut cursor) {
                // Length-field flips read as truncation/bad length; payload
                // flips fail the CRC. Either way: typed, never a panic.
                Err(_) => {}
                Ok(payload) => {
                    // A flip confined to the *length* field that still
                    // frames correctly is impossible here (the buffer holds
                    // exactly one frame), so the CRC must have fired.
                    panic!("flip at byte {i} decoded as {payload:?}");
                }
            }
        }
    }

    #[test]
    fn stream_framing_round_trips_and_reports_clean_close() {
        let frame = encode_request(&Request::Ping { nonce: 99 });
        let mut stream: Vec<u8> = Vec::new();
        write_frame(&mut stream, &frame).unwrap();
        write_frame(&mut stream, &frame).unwrap();
        let mut cursor = io::Cursor::new(stream);
        for _ in 0..2 {
            match read_frame(&mut cursor).unwrap() {
                FrameRead::Payload(p) => {
                    assert_eq!(decode_request(&p).unwrap(), Request::Ping { nonce: 99 });
                }
                other => panic!("expected payload, got {other:?}"),
            }
        }
        assert!(matches!(
            read_frame(&mut cursor).unwrap(),
            FrameRead::Closed
        ));
    }

    #[test]
    fn stream_truncation_mid_frame_is_corrupt_not_closed() {
        let frame = encode_request(&Request::Stats);
        for keep in 1..frame.len() {
            let mut cursor = io::Cursor::new(frame[..keep].to_vec());
            assert!(
                matches!(read_frame(&mut cursor).unwrap(), FrameRead::Corrupt(_)),
                "EOF {keep} bytes into a frame must read as corruption"
            );
        }
    }
}
