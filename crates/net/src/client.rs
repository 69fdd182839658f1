//! A blocking wire-protocol client with connection reuse.

use crate::wire::{
    self, FrameRead, ModelInfo, RemoteError, RemoteServed, Request, Response, WireError, VERSION,
};
use openapi_linalg::Vector;
use openapi_serve::StatsSnapshot;
use openapi_store::{StoreDigest, SyncDelta};
use openapi_trace::clock;
use std::fmt;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, read, write, or the server hanging up
    /// mid-exchange).
    Io(io::Error),
    /// The server's bytes did not decode as the protocol (wrong magic on
    /// the hello, a corrupt frame, a malformed response body).
    Wire(WireError),
    /// The server speaks a different protocol version.
    VersionMismatch {
        /// The version the server's hello advertised.
        server_version: u32,
    },
    /// The server answered this request with a typed error.
    Remote(RemoteError),
    /// The server answered with a well-formed response of the wrong kind
    /// for the request (protocol bug, or a non-pipelined reuse violation).
    UnexpectedResponse {
        /// The response kind the call expected.
        expected: &'static str,
    },
    /// A previous call on this connection failed mid-exchange (e.g. a
    /// read timeout with the response still in flight), so the stream can
    /// no longer be trusted to pair requests with responses: a later read
    /// could silently return the *earlier* request's answer. The client
    /// refuses further calls; reconnect to continue.
    Poisoned,
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport: {e}"),
            ClientError::Wire(e) => write!(f, "protocol: {e}"),
            ClientError::VersionMismatch { server_version } => write!(
                f,
                "server speaks protocol version {server_version}, this client speaks {VERSION}"
            ),
            ClientError::Remote(e) => write!(f, "server error: {e}"),
            ClientError::UnexpectedResponse { expected } => {
                write!(
                    f,
                    "server sent a response of the wrong kind (expected {expected})"
                )
            }
            ClientError::Poisoned => write!(
                f,
                "connection poisoned by an earlier mid-exchange failure; reconnect"
            ),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

/// A blocking client over one reused TCP connection.
///
/// Calls are strictly request→response (no client-side pipelining), so the
/// connection is reusable indefinitely; the server keeps it open across
/// any number of calls. The client is `Send` — hand one to each worker
/// thread; it is deliberately not shareable between threads (`&mut self`
/// methods), matching one-connection-one-conversation.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    peer: SocketAddr,
    /// The hidden model the server declared in its hello — dimensionality,
    /// class count, and deployment identity.
    server_model: ModelInfo,
    next_nonce: u64,
    /// Set when an exchange failed after its request was written: an
    /// unread response may still be in flight, so request/response
    /// pairing is lost and every further call must be refused
    /// ([`ClientError::Poisoned`]) rather than risk serving a stale
    /// answer as a fresh one.
    poisoned: bool,
}

impl Client {
    /// Connects and performs the protocol handshake.
    ///
    /// # Errors
    /// [`ClientError::Io`] on connect failures, [`ClientError::Wire`] when
    /// the peer is not speaking this protocol, and
    /// [`ClientError::VersionMismatch`] when it speaks another version.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        stream.write_all(&wire::encode_hello(VERSION))?;
        stream.flush()?;
        // The server hello's first HELLO_LEN bytes are laid out exactly
        // like a client hello; read those first, learn the version, and
        // only then commit to reading the v2 model tail — a server
        // speaking another version may not send one.
        let mut hello = [0u8; wire::SERVER_HELLO_LEN];
        io::Read::read_exact(&mut stream, &mut hello[..wire::HELLO_LEN])?;
        let mut head = [0u8; wire::HELLO_LEN];
        head.copy_from_slice(&hello[..wire::HELLO_LEN]);
        let server_version = wire::decode_hello(&head)?;
        if server_version != VERSION {
            return Err(ClientError::VersionMismatch { server_version });
        }
        io::Read::read_exact(&mut stream, &mut hello[wire::HELLO_LEN..])?;
        let (_, server_model) = wire::decode_server_hello(&hello)?;
        let peer = stream.peer_addr()?;
        Ok(Client {
            stream,
            peer,
            server_model,
            next_nonce: 1,
            poisoned: false,
        })
    }

    /// The hidden model the server declared at connect: input
    /// dimensionality, class count, and deployment identity. Anti-entropy
    /// peers compare this against their own model before syncing; ordinary
    /// clients can use it to validate instance shapes up front.
    pub fn server_model(&self) -> ModelInfo {
        self.server_model
    }

    /// The server's address.
    pub fn peer_addr(&self) -> SocketAddr {
        self.peer
    }

    /// Sets a timeout on blocking reads, bounding how long any call waits
    /// for its response (`None` = wait forever, the default).
    ///
    /// # Errors
    /// I/O errors from the socket option.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> Result<(), ClientError> {
        self.stream.set_read_timeout(timeout)?;
        Ok(())
    }

    /// One request→response exchange. Any failure after the request was
    /// written poisons the connection: its response may still arrive
    /// later, and a subsequent call must never read it as its own.
    fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        self.exchange(&wire::encode_request(request))
    }

    /// Writes one already-encoded request frame and reads its response.
    fn exchange(&mut self, frame: &[u8]) -> Result<Response, ClientError> {
        if self.poisoned {
            return Err(ClientError::Poisoned);
        }
        self.poisoned = true;
        wire::write_frame(&mut self.stream, frame)?;
        let response = match wire::read_frame(&mut self.stream)? {
            FrameRead::Payload(payload) => wire::decode_response(&payload)?,
            FrameRead::Closed => {
                return Err(ClientError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection before responding",
                )))
            }
            FrameRead::Corrupt(e) => return Err(ClientError::Wire(e)),
        };
        // A complete, verified response frame arrived for this request:
        // the exchange is balanced and the connection stays usable. (A
        // typed `Response::Error` is a *valid* answer — callers map it to
        // `ClientError::Remote` without poisoning anything.)
        self.poisoned = false;
        Ok(response)
    }

    /// Round-trip liveness probe; returns the measured round-trip time.
    ///
    /// # Errors
    /// [`ClientError`] on transport, protocol, or server-side failures.
    pub fn ping(&mut self) -> Result<Duration, ClientError> {
        let nonce = self.next_nonce;
        self.next_nonce += 1;
        let start = clock::now();
        match self.call(&Request::Ping { nonce })? {
            Response::Pong { nonce: echoed } if echoed == nonce => {
                Ok(clock::now().saturating_duration_since(start))
            }
            Response::Pong { .. } => Err(ClientError::UnexpectedResponse {
                expected: "pong with matching nonce",
            }),
            Response::Error(e) => Err(ClientError::Remote(e)),
            _ => Err(ClientError::UnexpectedResponse { expected: "pong" }),
        }
    }

    /// Interprets one instance's prediction for `class`, with no deadline
    /// beyond the server's default.
    ///
    /// # Errors
    /// [`ClientError::Remote`] carries the server's typed refusal
    /// ([`wire::ErrorCode::Busy`], [`wire::ErrorCode::DeadlineExceeded`],
    /// [`wire::ErrorCode::Interpret`], …); transport and protocol failures map
    /// to the other variants.
    pub fn interpret(
        &mut self,
        instance: &Vector,
        class: usize,
    ) -> Result<RemoteServed, ClientError> {
        self.interpret_inner(instance, class, 0)
    }

    /// Like [`Client::interpret`], with a deadline `budget` the server
    /// enforces from receipt (a lapsed budget answers
    /// [`wire::ErrorCode::DeadlineExceeded`]).
    ///
    /// # Errors
    /// As [`Client::interpret`].
    pub fn interpret_within(
        &mut self,
        instance: &Vector,
        class: usize,
        budget: Duration,
    ) -> Result<RemoteServed, ClientError> {
        self.interpret_inner(instance, class, wire_budget_ms(budget))
    }

    fn interpret_inner(
        &mut self,
        instance: &Vector,
        class: usize,
        deadline_ms: u64,
    ) -> Result<RemoteServed, ClientError> {
        // Encoded from borrowed parts: the hot path never copies the
        // instance just to build an owned `Request` it would drop.
        match self.exchange(&wire::encode_interpret(class, deadline_ms, instance))? {
            Response::Interpreted(served) => Ok(served),
            Response::Error(e) => Err(ClientError::Remote(e)),
            _ => Err(ClientError::UnexpectedResponse {
                expected: "interpretation",
            }),
        }
    }

    /// Interprets up to [`wire::MAX_BATCH`] `(instance, class)` items in
    /// one round trip; results come back per item, in order.
    ///
    /// # Errors
    /// Per-item failures are `Err` *inside* the returned vector; the outer
    /// error covers the exchange itself (transport, protocol, or a
    /// whole-batch refusal such as [`wire::ErrorCode::Busy`]).
    pub fn interpret_batch(
        &mut self,
        items: &[(Vector, usize)],
        budget: Option<Duration>,
    ) -> Result<Vec<Result<RemoteServed, RemoteError>>, ClientError> {
        let deadline_ms = budget.map_or(0, wire_budget_ms);
        match self.exchange(&wire::encode_interpret_batch(deadline_ms, items))? {
            Response::Batch(results) => Ok(results),
            Response::Error(e) => Err(ClientError::Remote(e)),
            _ => Err(ClientError::UnexpectedResponse {
                expected: "batch reply",
            }),
        }
    }

    /// Fetches the server's service statistics snapshot.
    ///
    /// # Errors
    /// [`ClientError`] on transport, protocol, or server-side failures.
    pub fn stats(&mut self) -> Result<StatsSnapshot, ClientError> {
        match self.call(&Request::Stats)? {
            Response::StatsReply(stats) => Ok(*stats),
            Response::Error(e) => Err(ClientError::Remote(e)),
            _ => Err(ClientError::UnexpectedResponse { expected: "stats" }),
        }
    }

    /// Fetches the server's Prometheus-style metrics exposition (counters,
    /// gauges, and per-stage latency histograms as text).
    ///
    /// # Errors
    /// [`ClientError`] on transport, protocol, or server-side failures.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        match self.call(&Request::Metrics)? {
            Response::MetricsReply(text) => Ok(text),
            Response::Error(e) => Err(ClientError::Remote(e)),
            _ => Err(ClientError::UnexpectedResponse {
                expected: "metrics",
            }),
        }
    }

    /// Anti-entropy step 1: fetches the server's region-store digest,
    /// declaring `model` as the caller's own hidden model. A server
    /// fronting a different model refuses with
    /// [`wire::ErrorCode::ModelMismatch`]; one without a durable store,
    /// with [`wire::ErrorCode::NoStore`].
    ///
    /// # Errors
    /// [`ClientError`] on transport, protocol, or server-side failures.
    pub fn sync_digest(&mut self, model: &ModelInfo) -> Result<StoreDigest, ClientError> {
        match self.call(&Request::SyncDigest {
            dim: model.dim,
            num_classes: model.num_classes,
            model_id: model.model_id,
        })? {
            Response::SyncDigestReply(digest) => Ok(*digest),
            Response::Error(e) => Err(ClientError::Remote(e)),
            _ => Err(ClientError::UnexpectedResponse {
                expected: "sync digest",
            }),
        }
    }

    /// Anti-entropy step 2: pulls record frames from the named digest
    /// `buckets` that are absent from `have` (the caller's own sync keys
    /// in those buckets), capped near `max_bytes`. A truncated reply means
    /// more remains — pull again with the updated `have`.
    ///
    /// # Errors
    /// [`ClientError`] on transport, protocol, or server-side failures.
    pub fn sync_pull(
        &mut self,
        buckets: &[u32],
        have: &[u64],
        max_bytes: usize,
    ) -> Result<SyncDelta, ClientError> {
        match self.call(&Request::SyncPull {
            buckets: buckets.to_vec(),
            have: have.to_vec(),
            max_bytes: max_bytes as u64,
        })? {
            Response::SyncPullReply(delta) => Ok(delta),
            Response::Error(e) => Err(ClientError::Remote(e)),
            _ => Err(ClientError::UnexpectedResponse {
                expected: "sync pull",
            }),
        }
    }
}

/// A deadline budget as the wire's `deadline_ms`: whole milliseconds, at
/// least 1 (0 on the wire means "use the server's default"), saturating at
/// `u64::MAX` rather than wrapping.
fn wire_budget_ms(budget: Duration) -> u64 {
    u64::try_from(budget.as_millis()).unwrap_or(u64::MAX).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_budgets_round_up_to_one_and_saturate() {
        assert_eq!(wire_budget_ms(Duration::ZERO), 1);
        assert_eq!(wire_budget_ms(Duration::from_millis(250)), 250);
        // 2⁶¹ s is 125 · 2⁶⁴ ms: a plain `as u64` wraps it to 0.
        assert_eq!(wire_budget_ms(Duration::from_secs(1 << 61)), u64::MAX);
        assert_eq!(wire_budget_ms(Duration::MAX), u64::MAX);
    }
}
