//! The TCP serving tier: a threaded acceptor in front of an
//! [`InterpretationService`].
//!
//! One connection is handled by two threads: a *reader* that decodes
//! request frames and submits work, and a *writer* that resolves tickets
//! and writes response frames in request order (clients may pipeline;
//! answers never reorder). The reader feeds the writer through a
//! per-connection queue bounded by
//! [`ServerConfig::max_inflight_per_conn`]: interpret work past the bound
//! is answered immediately with a typed [`ErrorCode::Busy`] instead of
//! piling unbounded load onto the shared worker pool — backpressure the
//! client can see and retry on.
//!
//! Shutdown ([`Server::close`]) is graceful end to end: stop accepting,
//! shut the read half of every live connection (so readers stop taking new
//! requests), let every writer drain its in-flight tickets and write their
//! responses, join all threads, then close the service — which flushes and
//! fsyncs the durable store when one is attached.

use crate::budget::ConnBudget;
use crate::wire::{
    self, ErrorCode, FrameRead, ModelInfo, RemoteError, RemoteServed, Request, Response, VERSION,
};
use openapi_api::PredictionApi;
use openapi_linalg::Vector;
use openapi_serve::{InterpretRequest, InterpretationService, ServeError, Served, Ticket};
use openapi_store::StoreError;
use openapi_sync::atomic::{AtomicBool, AtomicU64, Ordering};
use openapi_sync::Mutex;
use openapi_trace::{clock, RequestSpan, Stage};
use std::collections::HashMap;
use std::io::{self, BufWriter, Write};
use std::net::{
    IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs,
};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Most interpret requests one connection may have in flight (queued
    /// or solving) before further ones are answered [`ErrorCode::Busy`]
    /// (clamped to ≥ 1). A batch counts as its item count — except on an
    /// idle connection, where any protocol-legal batch is admitted even
    /// past this bound, so oversized batches are delayed by backpressure,
    /// never starved by it.
    pub max_inflight_per_conn: usize,
    /// Deadline applied to interpret requests that do not carry their own
    /// (`None` = no default: such requests may occupy a worker until they
    /// resolve).
    pub default_deadline: Option<Duration>,
    /// Per-`write` timeout on every connection, so a client that stops
    /// reading its responses cannot stall the writer (and with it,
    /// graceful shutdown) forever. `None` disables the guard.
    pub write_timeout: Option<Duration>,
    /// Operator-assigned identity of the hidden model this server fronts,
    /// declared in the server hello and enforced on sync requests (see
    /// [`ModelInfo::model_id`]). Two servers replicate region stores only
    /// when dim, class count, *and* this id agree; `0` (the default)
    /// checks shape alone.
    pub model_id: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_inflight_per_conn: 64,
            default_deadline: None,
            write_timeout: Some(Duration::from_secs(30)),
            model_id: 0,
        }
    }
}

/// What the reader hands the writer for one request, in request order.
enum Slot {
    /// Already resolved (ping, stats, typed errors): write as-is. Boxed:
    /// a stats reply is an order of magnitude bigger than a ticket, and
    /// every queued slot would otherwise pay its footprint.
    Ready(Box<Response>),
    /// A submitted interpret request: wait, then write.
    Pending(Ticket),
    /// A submitted batch: wait for each, then write one reply.
    PendingBatch(Vec<Ticket>),
}

/// State shared by the acceptor, every connection thread, and the handle.
struct Shared<M: PredictionApi + Send + Sync + 'static> {
    service: InterpretationService<M>,
    config: ServerConfig,
    stopping: AtomicBool,
    /// Read halves of live connections, for shutdown. Keyed by connection
    /// id so a finished reader can deregister itself.
    conns: Mutex<HashMap<u64, TcpStream>>,
    next_conn_id: AtomicU64,
}

/// A TCP server exposing an [`InterpretationService`] over the wire
/// protocol (see [`crate::wire`] and `docs/PROTOCOL.md`).
///
/// Dropping the server performs the same graceful drain as
/// [`Server::close`] but can only swallow store errors; prefer `close` to
/// observe them.
pub struct Server<M: PredictionApi + Send + Sync + 'static> {
    /// `Some` until [`Server::close`] takes the state out; every other
    /// method runs while it is populated.
    shared: Option<Arc<Shared<M>>>,
    local_addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl<M: PredictionApi + Send + Sync + 'static> Server<M> {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts accepting connections into `service`.
    ///
    /// # Errors
    /// I/O errors binding the listener.
    pub fn bind(
        addr: impl ToSocketAddrs,
        service: InterpretationService<M>,
        config: ServerConfig,
    ) -> io::Result<Self> {
        let mut config = config;
        config.max_inflight_per_conn = config.max_inflight_per_conn.max(1);
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            service,
            config,
            stopping: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            next_conn_id: AtomicU64::new(0),
        });
        let handlers = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let shared = Arc::clone(&shared);
            let handlers = Arc::clone(&handlers);
            std::thread::spawn(move || accept_loop(&listener, &shared, &handlers))
        };
        Ok(Server {
            shared: Some(shared),
            local_addr,
            acceptor: Some(acceptor),
            handlers,
        })
    }

    fn shared(&self) -> &Arc<Shared<M>> {
        self.shared
            .as_ref()
            .expect("server state lives until close")
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Borrow the underlying service (e.g. for its statistics).
    pub fn service(&self) -> &InterpretationService<M> {
        &self.shared().service
    }

    /// Graceful shutdown: stop accepting, stop reading new requests, drain
    /// every in-flight ticket to its response, join all threads, then
    /// close the service (final store flush + fsync when one is attached).
    ///
    /// # Errors
    /// [`StoreError`] when the store's final flush fails.
    pub fn close(mut self) -> Result<(), StoreError> {
        self.drain();
        // All connection and acceptor threads are joined, so this handle
        // owns the last `Arc` and can take the service out for a fallible
        // close; if something still holds a clone, fall back to drop
        // semantics (flushed, not observable) exactly like
        // `InterpretationService::close` does for its store.
        match Arc::try_unwrap(self.shared.take().expect("first close")) {
            Ok(shared) => shared.service.close(),
            Err(shared) => {
                drop(shared);
                Ok(())
            }
        }
    }

    /// Stops the acceptor and drains every live connection. Idempotent.
    fn drain(&mut self) {
        let shared = Arc::clone(self.shared());
        // ordering: SeqCst — shutdown takes the strongest ordering so the
        // store, the acceptor's load, and every connection's recheck agree
        // on one total order; this runs once per server lifetime, so the
        // cost is irrelevant and the simplicity is not.
        shared.stopping.store(true, Ordering::SeqCst);
        // Unblock `accept` with a throwaway connection to ourselves; the
        // acceptor sees `stopping` before handling it. A `0.0.0.0`/`::`
        // bind is not connectable as-is — aim the wake-up at loopback on
        // the bound port instead.
        let mut wake_addr = self.local_addr;
        if wake_addr.ip().is_unspecified() {
            wake_addr.set_ip(match wake_addr {
                SocketAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                SocketAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            });
        }
        let woke = TcpStream::connect_timeout(&wake_addr, Duration::from_secs(5)).is_ok();
        if let Some(acceptor) = self.acceptor.take() {
            if woke {
                let _ = acceptor.join();
            }
            // A failed wake-up (unroutable bind address, saturated SYN
            // backlog) must not hang `close`/`Drop` forever: leave the
            // acceptor parked in `accept` — it exits with the process,
            // and `stopping` keeps it from serving anything meanwhile.
        }
        // Readers blocked in `read` observe EOF once the read half shuts;
        // their writers then drain pending tickets and exit.
        for (_, conn) in shared.conns.lock().iter() {
            let _ = conn.shutdown(Shutdown::Read);
        }
        let handlers = std::mem::take(&mut *self.handlers.lock());
        for handle in handlers {
            let _ = handle.join();
        }
    }
}

impl<M: PredictionApi + Send + Sync + 'static> Drop for Server<M> {
    fn drop(&mut self) {
        if self.acceptor.is_some() {
            self.drain();
        }
    }
}

impl<M: PredictionApi + Send + Sync + 'static> std::fmt::Debug for Server<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("local_addr", &self.local_addr)
            .field("config", &self.shared().config)
            .finish_non_exhaustive()
    }
}

fn accept_loop<M: PredictionApi + Send + Sync + 'static>(
    listener: &TcpListener,
    shared: &Arc<Shared<M>>,
    handlers: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    for stream in listener.incoming() {
        // ordering: SeqCst — pairs with the shutdown store (see `drain`).
        if shared.stopping.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else {
            // Persistent accept errors (EMFILE under fd exhaustion, most
            // likely) would otherwise busy-spin a core; back off briefly
            // and let in-flight connections finish and free descriptors.
            std::thread::sleep(Duration::from_millis(20));
            continue;
        };
        let mut guard = handlers.lock();
        // Opportunistically reap finished connections so a long-lived
        // server does not accumulate a handle per past connection.
        guard.retain(|h| !h.is_finished());
        let shared = Arc::clone(shared);
        guard.push(std::thread::spawn(move || {
            handle_connection(&shared, stream);
        }));
    }
}

/// Runs one connection: handshake, then the reader loop feeding a writer
/// thread. Returns when the client closes, the stream corrupts, or
/// shutdown shuts the read half.
fn handle_connection<M: PredictionApi + Send + Sync + 'static>(
    shared: &Arc<Shared<M>>,
    mut stream: TcpStream,
) {
    stream.set_nodelay(true).ok();
    // ordering: Relaxed — connection IDs only need uniqueness; all the
    // registry traffic they key is ordered by the registry mutex.
    let conn_id = shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
    match stream.try_clone() {
        Ok(clone) => shared.conns.lock().insert(conn_id, clone),
        // No clone means no shutdown handle: serving anyway would leave a
        // connection graceful shutdown cannot reach (a blocked reader
        // would hang `Server::close` forever). Refuse it instead —
        // try_clone only fails under fd exhaustion, where shedding load
        // is the right answer anyway.
        Err(_) => return,
    };
    // Registration races shutdown's registry sweep: a connection accepted
    // just before `stopping` was set may register *after* the sweep ran
    // and would never see its read half shut. The recheck closes the
    // window — either the sweep saw us, or we see `stopping` (the store
    // precedes the sweep, whose registry unlock precedes our insert).
    // ordering: SeqCst — pairs with the shutdown store (see `drain`); the
    // comment above explains why the recheck closes the race window.
    if shared.stopping.load(Ordering::SeqCst) {
        let _ = stream.shutdown(Shutdown::Read);
    }
    let outcome = serve_connection(shared, &mut stream);
    if outcome.is_err() {
        // I/O trouble mid-connection: nothing to salvage, just hang up.
        let _ = stream.shutdown(Shutdown::Both);
    }
    shared.conns.lock().remove(&conn_id);
}

fn serve_connection<M: PredictionApi + Send + Sync + 'static>(
    shared: &Arc<Shared<M>>,
    stream: &mut TcpStream,
) -> io::Result<()> {
    stream.set_write_timeout(shared.config.write_timeout)?;
    // Handshake: read the client hello, answer with ours. A wrong magic is
    // not this protocol at all — close without a byte. A wrong version
    // gets our hello (so the client learns what we speak) plus a typed
    // error, then the connection closes.
    let mut hello = [0u8; wire::HELLO_LEN];
    let mut write_half = stream.try_clone()?;
    {
        let mut filled = 0;
        while filled < hello.len() {
            let n = io::Read::read(stream, &mut hello[filled..])?;
            if n == 0 {
                return Ok(());
            }
            filled += n;
        }
    }
    let client_version = match wire::decode_hello(&hello) {
        Ok(v) => v,
        Err(_) => return Ok(()),
    };
    write_half.write_all(&wire::encode_server_hello(VERSION, &local_model(shared)))?;
    if client_version != VERSION {
        let refusal = Response::Error(RemoteError {
            code: ErrorCode::UnsupportedVersion,
            message: format!("server speaks version {VERSION}, client sent {client_version}"),
        });
        wire::write_frame(&mut write_half, &wire::encode_response(&refusal))?;
        return Ok(());
    }

    // In-flight interpret budget for this connection: the reader admits
    // at submit, the writer releases after the response is written, so the
    // bound covers queue + solve + reply (see [`crate::budget`] for the
    // protocol and its loom model checks). The slot channel is bounded
    // too: a client that pipelines faster than its responses drain
    // eventually blocks the reader — TCP backpressure, not memory.
    let budget = Arc::new(ConnBudget::new(shared.config.max_inflight_per_conn));
    let (slot_tx, slot_rx) =
        mpsc::sync_channel::<Slot>(shared.config.max_inflight_per_conn * 2 + 16);
    let writer = {
        let budget = Arc::clone(&budget);
        let shared = Arc::clone(shared);
        std::thread::spawn(move || writer_loop(&shared, &slot_rx, write_half, &budget))
    };

    let result = reader_loop(shared, stream, &slot_tx, &budget);
    drop(slot_tx);
    let _ = writer.join();
    if matches!(result, Ok(ReaderExit::DrainThenClose)) {
        // The writer has flushed the typed `Malformed` reply; before the
        // socket closes, briefly consume whatever the desynced client is
        // still sending. Unread bytes at close would turn the close into a
        // TCP RST, which discards in-flight data — including the reply the
        // client needs to see. Draining first lets the close send a FIN
        // and the reply win the race.
        drain_read_side(stream);
    }
    result.map(|_| ())
}

/// Bounds on the post-`Malformed` read-side drain: a desynced client gets
/// this much grace to finish its in-flight garbage, not an open-ended sink.
const DRAIN_CAP_BYTES: usize = 64 * 1024;
const DRAIN_WINDOW: Duration = Duration::from_millis(100);

fn drain_read_side(stream: &mut TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(25)));
    let deadline = clock::now() + DRAIN_WINDOW;
    let mut sink = [0u8; 4096];
    let mut drained = 0;
    while drained < DRAIN_CAP_BYTES && clock::now() < deadline {
        match io::Read::read(stream, &mut sink) {
            Ok(0) => break, // client closed its write half: fully drained
            Ok(n) => drained += n,
            Err(_) => break, // timeout or error: best effort only
        }
    }
    let _ = stream.shutdown(Shutdown::Read);
}

/// How `reader_loop` ended, beyond I/O failure.
#[derive(Debug, PartialEq, Eq)]
enum ReaderExit {
    /// Clean end of stream (client closed, writer gone, shutdown).
    Closed,
    /// A corrupt frame was answered with a typed error; the read side
    /// should be drained before the connection closes so the reply
    /// outruns the close (see `drain_read_side`).
    DrainThenClose,
}

fn reader_loop<M: PredictionApi + Send + Sync + 'static>(
    shared: &Arc<Shared<M>>,
    stream: &mut TcpStream,
    slot_tx: &mpsc::SyncSender<Slot>,
    budget: &ConnBudget,
) -> io::Result<ReaderExit> {
    loop {
        let payload = match wire::read_frame(stream)? {
            FrameRead::Closed => return Ok(ReaderExit::Closed),
            FrameRead::Corrupt(e) => {
                // The stream lost sync: answer with a typed error (the
                // writer drains anything already in flight first) and stop
                // reading — the connection winds down.
                let _ = slot_tx.send(Slot::Ready(Box::new(Response::Error(RemoteError {
                    code: ErrorCode::Malformed,
                    message: e.to_string(),
                }))));
                return Ok(ReaderExit::DrainThenClose);
            }
            FrameRead::Payload(payload) => payload,
        };
        let slot = match wire::decode_request(&payload) {
            Err(e) => {
                // The frame verified but the payload is malformed: the
                // stream is still in sync, so answer and keep serving.
                Slot::Ready(Box::new(Response::Error(RemoteError {
                    code: ErrorCode::Malformed,
                    message: e.to_string(),
                })))
            }
            Ok(request) => handle_request(shared, request, budget),
        };
        if slot_tx.send(slot).is_err() {
            // Writer is gone (client stopped reading): nothing sensible
            // left to do with further requests.
            return Ok(ReaderExit::Closed);
        }
    }
}

fn handle_request<M: PredictionApi + Send + Sync + 'static>(
    shared: &Arc<Shared<M>>,
    request: Request,
    budget: &ConnBudget,
) -> Slot {
    match request {
        Request::Ping { nonce } => Slot::Ready(Box::new(Response::Pong { nonce })),
        Request::Stats => Slot::Ready(Box::new(Response::StatsReply(Box::new(
            shared.service.stats(),
        )))),
        Request::Metrics => Slot::Ready(Box::new(Response::MetricsReply(
            shared.service.stats().to_prometheus(),
        ))),
        Request::Interpret {
            class,
            deadline_ms,
            instance,
        } => {
            if !budget.try_admit() {
                return Slot::Ready(Box::new(Response::Error(busy(budget.limit()))));
            }
            // The trace span is minted here, right after frame decode, so
            // the request's queue stage covers its time on the wire tier
            // too (the channel hop into the worker pool).
            let span = RequestSpan::root();
            Slot::Pending(
                shared
                    .service
                    .submit_spanned(to_request(instance, class, deadline_ms, shared), span),
            )
        }
        Request::InterpretBatch { deadline_ms, items } => {
            let n = items.len();
            // Batch admission is idle-aware — a batch larger than the whole
            // budget is admitted on an idle connection (≤ MAX_BATCH is
            // already enforced by the decoder), so "retry after draining
            // responses" always eventually succeeds; see
            // [`ConnBudget::try_admit_batch`].
            if !budget.try_admit_batch(n) {
                return Slot::Ready(Box::new(Response::Error(busy(budget.limit()))));
            }
            // The batched fast lane: one membership probe per item, then a
            // single blocked kernel pass over the shared cache — not N
            // sequential per-probe scans (see
            // [`InterpretationService::submit_batch`]).
            let requests = items
                .into_iter()
                .map(|(instance, class)| to_request(instance, class, deadline_ms, shared))
                .collect();
            // One frame-level span parents every item's span; the shared
            // kernel pass attributes to the frame itself.
            let frame_span = RequestSpan::root();
            Slot::PendingBatch(shared.service.submit_batch_spanned(requests, frame_span))
        }
        Request::SyncDigest {
            dim,
            num_classes,
            model_id,
        } => {
            let local = local_model(shared);
            let remote = ModelInfo {
                dim,
                num_classes,
                model_id,
            };
            if remote != local {
                return Slot::Ready(Box::new(Response::Error(model_mismatch(&remote, &local))));
            }
            match shared.service.store() {
                Some(store) => {
                    let digest = store.digest();
                    RequestSpan::detached().event(Stage::FabricDigest, digest.total());
                    Slot::Ready(Box::new(Response::SyncDigestReply(Box::new(digest))))
                }
                None => Slot::Ready(Box::new(Response::Error(no_store()))),
            }
        }
        Request::SyncPull {
            buckets,
            have,
            max_bytes,
        } => match shared.service.store() {
            Some(store) => {
                let delta = store.sync_delta(&buckets, &have, max_bytes as usize);
                RequestSpan::detached().event(Stage::FabricPull, delta.records);
                Slot::Ready(Box::new(Response::SyncPullReply(delta)))
            }
            None => Slot::Ready(Box::new(Response::Error(no_store()))),
        },
    }
}

/// The model declaration this server makes in its hello and holds sync
/// requests against.
fn local_model<M: PredictionApi + Send + Sync + 'static>(shared: &Arc<Shared<M>>) -> ModelInfo {
    ModelInfo {
        dim: shared.service.api().dim(),
        num_classes: shared.service.api().num_classes(),
        model_id: shared.config.model_id,
    }
}

fn model_mismatch(remote: &ModelInfo, local: &ModelInfo) -> RemoteError {
    RemoteError {
        code: ErrorCode::ModelMismatch,
        message: format!(
            "peer model {}x{} id {}, local {}x{} id {}",
            remote.dim,
            remote.num_classes,
            remote.model_id,
            local.dim,
            local.num_classes,
            local.model_id
        ),
    }
}

fn no_store() -> RemoteError {
    RemoteError {
        code: ErrorCode::NoStore,
        message: "this server runs without a durable region store".into(),
    }
}

fn busy(budget: usize) -> RemoteError {
    RemoteError {
        code: ErrorCode::Busy,
        message: format!("connection at its in-flight limit ({budget})"),
    }
}

/// Maps a wire request onto a service request: the request's own deadline
/// budget wins, else the server default.
fn to_request<M: PredictionApi + Send + Sync + 'static>(
    instance: Vector,
    class: usize,
    deadline_ms: u64,
    shared: &Arc<Shared<M>>,
) -> InterpretRequest {
    let request = InterpretRequest::new(instance, class);
    match deadline_ms {
        0 => match shared.config.default_deadline {
            Some(d) => request.with_timeout(d),
            None => request,
        },
        ms => request.with_timeout(Duration::from_millis(ms)),
    }
}

fn writer_loop<M: PredictionApi + Send + Sync + 'static>(
    shared: &Arc<Shared<M>>,
    slot_rx: &mpsc::Receiver<Slot>,
    stream: TcpStream,
    budget: &ConnBudget,
) {
    let mut out = BufWriter::new(stream);
    let mut broken = false;
    // Spans of the requests answered by the frame being written, so the
    // reply-write time can be recorded against each of them.
    let mut spans: Vec<u64> = Vec::new();
    while let Ok(slot) = slot_rx.recv() {
        spans.clear();
        let (response, completed) = match slot {
            Slot::Ready(response) => (*response, 0),
            Slot::Pending(ticket) => {
                let response = match ticket.wait() {
                    Ok(served) => {
                        spans.push(served.span);
                        Response::Interpreted(to_remote(served))
                    }
                    Err(e) => Response::Error(serve_error(&e)),
                };
                (response, 1)
            }
            Slot::PendingBatch(tickets) => {
                let n = tickets.len();
                let results = tickets
                    .into_iter()
                    .map(|ticket| {
                        ticket
                            .wait()
                            .map(|served| {
                                spans.push(served.span);
                                to_remote(served)
                            })
                            .map_err(|e| serve_error(&e))
                    })
                    .collect();
                (Response::Batch(results), n)
            }
        };
        // A broken pipe must not stop the drain: tickets still pending in
        // later slots are waited out (their in-flight accounting and the
        // service's stats ledger stay exact), the bytes just go nowhere.
        let write_start = clock::now();
        if !broken && wire::write_frame(&mut out, &wire::encode_response(&response)).is_err() {
            broken = true;
        }
        // Reply stage: encode + write of the answering frame, recorded for
        // every request it carries (a batch frame answers all its items).
        let write_end = clock::now();
        let write_time = write_end.saturating_duration_since(write_start);
        for &span in &spans {
            shared.service.record_reply(span, write_time, write_end);
        }
        // Budget released only after the reply is written (or abandoned):
        // the per-connection bound covers queue + solve + reply, as the
        // config documents — a stalled reader cannot spend freed budget
        // on new requests while its replies still occupy this writer.
        if completed > 0 {
            budget.release(completed);
        }
    }
    let _ = out.flush();
}

fn to_remote(served: Served) -> RemoteServed {
    RemoteServed {
        interpretation: served.interpretation,
        fingerprint: served.fingerprint,
        outcome: served.outcome,
        queries: served.queries,
        server_latency: served.latency,
        span: served.span,
    }
}

fn serve_error(e: &ServeError) -> RemoteError {
    let (code, message) = match e {
        ServeError::DeadlineExceeded => (ErrorCode::DeadlineExceeded, String::new()),
        ServeError::ServiceStopped => (ErrorCode::Stopped, String::new()),
        ServeError::Interpret(inner) => (ErrorCode::Interpret, inner.to_string()),
    };
    RemoteError { code, message }
}
