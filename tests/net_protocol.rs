//! Wire-protocol coverage of the TCP serving tier through the facade.
//!
//! Three claims, mirroring what `service_concurrency.rs` and
//! `store_recovery.rs` pin down for their tiers:
//!
//! 1. **The network changes no answer.** Interpretations served over TCP
//!    are exact (they explain their own probe — Theorem 2's membership
//!    identity) and bit-identical to what a direct, in-process
//!    `InterpretationService` run produces on the same instances.
//! 2. **Hostile bytes get typed errors, never panics and never wrong
//!    interpretations.** Every truncation and every byte flip of a framed
//!    request yields either an `ErrorCode::Malformed` response or a clean
//!    close — and the server keeps serving healthy clients afterwards.
//! 3. **The operational protocol holds**: version negotiation, Busy
//!    backpressure at the per-connection bound, deadlines expiring over
//!    the wire, per-item batch results, stats parity, and a graceful close
//!    that drains in-flight requests.

use openapi_repro::api::{CountingApi, PredictionApi, TwoRegionPlm};
use openapi_repro::net::wire::{self, ErrorCode, FrameRead, Request, Response};
use openapi_repro::net::{Client, ClientError, Server, ServerConfig, VERSION};
use openapi_repro::prelude::*;
use openapi_repro::sync::atomic::{AtomicUsize, Ordering};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Duration;

mod common;
use common::{two_region_plm, DIM};

/// Membership tolerance used by every cache/store/coalescing lookup in the
/// stack (the `SharedCacheConfig` default).
const RTOL: f64 = 1e-6;

/// Deterministic instances alternating between the two regions of
/// [`two_region_plm`] — the canonical generator, shared with the
/// `net_throughput` bench.
fn instance(i: usize) -> Vector {
    TwoRegionPlm::reference_instance(i)
}

fn service_config(workers: usize) -> ServiceConfig {
    ServiceConfig {
        workers,
        // One leader slot per class: the canonical per-region solve is the
        // lowest-id request's, making remote-vs-direct bit-identity exact.
        max_leaders_per_class: 1,
        ..ServiceConfig::default()
    }
}

fn spawn_server(workers: usize) -> Server<CountingApi<TwoRegionPlm>> {
    let service =
        InterpretationService::new(CountingApi::new(two_region_plm()), service_config(workers));
    Server::bind("127.0.0.1:0", service, ServerConfig::default()).expect("ephemeral bind")
}

/// Opens a raw connection and completes the handshake, for tests that
/// need to put hand-crafted bytes on the wire.
fn raw_handshake(addr: SocketAddr) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    stream.write_all(&wire::encode_hello(VERSION)).unwrap();
    let mut hello = [0u8; wire::SERVER_HELLO_LEN];
    stream.read_exact(&mut hello).unwrap();
    let (version, _model) = wire::decode_server_hello(&hello).unwrap();
    assert_eq!(version, VERSION);
    stream
}

/// Reads responses until the server closes, asserting every frame is a
/// well-formed `Response` and collecting them.
fn read_until_close(stream: &mut TcpStream) -> Vec<Response> {
    let mut responses = Vec::new();
    loop {
        match wire::read_frame(stream).expect("socket stays healthy") {
            FrameRead::Payload(payload) => {
                responses.push(wire::decode_response(&payload).expect("server speaks the protocol"))
            }
            FrameRead::Closed => return responses,
            FrameRead::Corrupt(e) => panic!("server emitted a corrupt frame: {e}"),
        }
    }
}

/// The acceptance scenario: a server on an ephemeral port, warmed in a
/// deterministic order, then hammered by concurrent clients — every
/// returned interpretation must be exact against its own probe and
/// bit-identical to a direct in-process `InterpretationService` run over
/// the same instances with the same seed.
#[test]
fn remote_serves_are_exact_and_bit_identical_to_direct() {
    const CLIENTS: usize = 3;
    const INSTANCES: usize = 10;
    let instances: Vec<Vector> = (0..INSTANCES).map(instance).collect();
    let model = two_region_plm();

    // The reference: a direct, in-process service, same seed, same
    // submission order.
    let direct = InterpretationService::new(two_region_plm(), service_config(2));
    let reference: Vec<_> = instances
        .iter()
        .map(|x| {
            direct
                .submit_instance(x.clone(), 0)
                .wait()
                .expect("interior instances interpret")
                .interpretation
        })
        .collect();

    let server = spawn_server(4);
    let addr = server.local_addr();

    // Warm pass: one client, same submission order as the direct run, so
    // request ids — and therefore the per-region canonical solves — match
    // the reference bit for bit.
    let mut warm = Client::connect(addr).expect("handshake");
    for (x, reference) in instances.iter().zip(&reference) {
        let served = warm.interpret(x, 0).expect("warm pass serves");
        assert_eq!(
            served.interpretation, *reference,
            "the wire must not change a single bit"
        );
    }

    // Hammer pass: concurrent clients, each its own connection.
    let failures = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for t in 0..CLIENTS {
            let (instances, reference, model, failures) =
                (&instances, &reference, &model, &failures);
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("handshake");
                // Interleave differently per client to vary contention.
                for k in 0..instances.len() {
                    let i = (k * (t + 1)) % instances.len();
                    let x = &instances[i];
                    let Ok(served) = client.interpret(x, 0) else {
                        // ordering: Relaxed — a tally read after the scoped
                        // threads join; the join is the happens-before edge.
                        failures.fetch_add(1, Ordering::Relaxed);
                        continue;
                    };
                    // Exactness: the served parameters explain this
                    // instance's own prediction at every contrast.
                    let probs = model.predict(x.as_slice());
                    assert!(
                        served
                            .interpretation
                            .explains_probe(x, probs.as_slice(), RTOL),
                        "client {t}, instance {i}: served region does not explain the probe"
                    );
                    // Consistency: bit-identical to the direct service.
                    assert_eq!(served.interpretation, reference[i]);
                    assert_eq!(served.fingerprint, reference[i].fingerprint(6));
                    // Warm server: nothing may solve again.
                    assert!(
                        matches!(
                            served.outcome,
                            ServeOutcome::CacheHit | ServeOutcome::Coalesced
                        ),
                        "client {t}, instance {i}: unexpected {:?}",
                        served.outcome
                    );
                    assert_eq!(served.queries, 1, "a warm serve costs one probe");
                }
            });
        }
    });
    // ordering: Relaxed — all writers joined above; no concurrency left.
    assert_eq!(failures.load(Ordering::Relaxed), 0);

    // The ledger adds up across all connections: warm pass + hammer.
    let stats = server.service().stats();
    assert_eq!(stats.requests, (INSTANCES * (1 + CLIENTS)) as u64);
    assert_eq!(
        stats.hits + stats.store_hits + stats.misses + stats.coalesced_served + stats.failures,
        stats.requests
    );
    assert_eq!(stats.failures, 0);
    assert_eq!(stats.misses, 2, "one solve per region, fleet-wide");
    server.close().expect("clean close");
}

/// Mirrors `store_recovery.rs` for the wire: every truncation and every
/// byte flip of a framed request must produce a typed protocol error (or a
/// clean close) — never a panic, never an interpretation.
#[test]
fn corrupted_frames_yield_typed_errors_never_panics() {
    let server = spawn_server(2);
    let addr = server.local_addr();
    let clean = wire::encode_request(&Request::Interpret {
        class: 0,
        deadline_ms: 0,
        instance: instance(0),
    });

    let mut corruptions: Vec<Vec<u8>> = Vec::new();
    for keep in 1..clean.len() {
        corruptions.push(clean[..keep].to_vec());
    }
    for i in 0..clean.len() {
        let mut flipped = clean.clone();
        flipped[i] ^= 0x20;
        corruptions.push(flipped);
    }

    for (case, bytes) in corruptions.iter().enumerate() {
        let mut stream = raw_handshake(addr);
        if stream.write_all(bytes).is_err() {
            continue; // server already hung up on earlier garbage
        }
        let _ = stream.shutdown(Shutdown::Write);
        // The typed error is best-effort: when the server tears down a
        // connection with our corrupt bytes still unread, the OS may turn
        // the close into a reset that outruns the reply. The guarantees
        // under test: any frame that *does* arrive is a typed Malformed
        // error — never a panic artifact, never an interpretation — and
        // the server stays up.
        while let Ok(FrameRead::Payload(payload)) = wire::read_frame(&mut stream) {
            match wire::decode_response(&payload)
                .unwrap_or_else(|e| panic!("case {case}: undecodable response: {e}"))
            {
                Response::Error(e) => assert_eq!(
                    e.code,
                    ErrorCode::Malformed,
                    "case {case}: wrong error kind: {e}"
                ),
                other => panic!("case {case}: corrupt bytes produced {other:?}"),
            }
        }
    }

    // The server survived all of it and still serves healthy clients.
    let mut client = Client::connect(addr).expect("server must still accept");
    let served = client.interpret(&instance(0), 0).expect("still serving");
    let probs = server.service().api().predict(instance(0).as_slice());
    assert!(served
        .interpretation
        .explains_probe(&instance(0), probs.as_slice(), RTOL));
    server.close().expect("clean close");
}

/// A frame that verifies (CRC intact) but carries a malformed payload gets
/// a typed error *without* losing the connection — the stream is still in
/// sync, so the conversation continues.
#[test]
fn malformed_payload_in_a_valid_frame_keeps_the_connection() {
    let server = spawn_server(1);
    let mut stream = raw_handshake(server.local_addr());

    // A perfectly framed message with an unknown tag.
    let mut frame = Vec::new();
    openapi_repro::store::record::put_frame(&mut frame, &[0x7F, 1, 2, 3]);
    stream.write_all(&frame).unwrap();
    match wire::read_frame(&mut stream).unwrap() {
        FrameRead::Payload(payload) => match wire::decode_response(&payload).unwrap() {
            Response::Error(e) => assert_eq!(e.code, ErrorCode::Malformed),
            other => panic!("expected malformed error, got {other:?}"),
        },
        other => panic!("expected a response frame, got {other:?}"),
    }

    // Same connection, valid ping: still alive, still in sync.
    stream
        .write_all(&wire::encode_request(&Request::Ping { nonce: 7 }))
        .unwrap();
    match wire::read_frame(&mut stream).unwrap() {
        FrameRead::Payload(payload) => {
            assert_eq!(
                wire::decode_response(&payload).unwrap(),
                Response::Pong { nonce: 7 }
            );
        }
        other => panic!("expected pong, got {other:?}"),
    }
    server.close().expect("clean close");
}

#[test]
fn version_negotiation_rejects_strangers_with_typed_errors() {
    let server = spawn_server(1);
    let addr = server.local_addr();

    // Wrong version: the server answers with its own hello (so the client
    // learns what it speaks) plus a typed refusal, then hangs up.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    stream.write_all(&wire::encode_hello(99)).unwrap();
    // The refusing server still sends its full 28-byte hello — the
    // version-only prefix tells the stranger what we speak, the model
    // tail costs it nothing.
    let mut hello = [0u8; wire::SERVER_HELLO_LEN];
    stream.read_exact(&mut hello).unwrap();
    let (version, _model) = wire::decode_server_hello(&hello).unwrap();
    assert_eq!(version, VERSION);
    let responses = read_until_close(&mut stream);
    assert_eq!(responses.len(), 1);
    match &responses[0] {
        Response::Error(e) => assert_eq!(e.code, ErrorCode::UnsupportedVersion),
        other => panic!("expected version refusal, got {other:?}"),
    }

    // Wrong magic: not this protocol at all — closed without a byte.
    // (Exactly HELLO_LEN junk bytes, so the server reads everything we
    // sent and its close arrives as a clean FIN rather than a reset.)
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    stream.write_all(b"NOT-OAPINET!").unwrap();
    let mut sink = Vec::new();
    stream.read_to_end(&mut sink).unwrap();
    assert!(sink.is_empty(), "a stranger gets no bytes, got {sink:?}");

    // The real client still works.
    let mut client = Client::connect(addr).expect("handshake");
    client.ping().expect("server alive");
    server.close().expect("clean close");
}

/// Sleeps on every prediction, so solves occupy workers long enough to
/// observe queueing behaviour deterministically.
struct SlowApi<M> {
    inner: M,
    sleep: Duration,
}

impl<M: PredictionApi> PredictionApi for SlowApi<M> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn num_classes(&self) -> usize {
        self.inner.num_classes()
    }

    fn predict(&self, x: &[f64]) -> Vector {
        std::thread::sleep(self.sleep);
        self.inner.predict(x)
    }
}

fn slow_server(
    sleep: Duration,
    workers: usize,
    config: ServerConfig,
) -> Server<SlowApi<TwoRegionPlm>> {
    let service = InterpretationService::new(
        SlowApi {
            inner: two_region_plm(),
            sleep,
        },
        service_config(workers),
    );
    Server::bind("127.0.0.1:0", service, config).expect("ephemeral bind")
}

/// Past the per-connection in-flight bound, pipelined interpret requests
/// are answered `Busy` immediately — typed backpressure, in order.
#[test]
fn pipelined_overload_gets_busy_responses() {
    let server = slow_server(
        Duration::from_millis(300),
        2,
        ServerConfig {
            max_inflight_per_conn: 1,
            ..ServerConfig::default()
        },
    );
    let mut stream = raw_handshake(server.local_addr());
    // Three pipelined requests: the first occupies the connection's single
    // in-flight slot for ≥ 300 ms (its probe alone sleeps that long), so
    // the reader sees #2 and #3 while #1 is still solving.
    let frame = wire::encode_request(&Request::Interpret {
        class: 0,
        deadline_ms: 0,
        instance: instance(0),
    });
    for _ in 0..3 {
        stream.write_all(&frame).unwrap();
    }
    stream.flush().unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let responses = read_until_close(&mut stream);
    assert_eq!(responses.len(), 3, "every request gets an answer, in order");
    assert!(
        matches!(responses[0], Response::Interpreted(_)),
        "the in-budget request is served: {:?}",
        responses[0]
    );
    for response in &responses[1..] {
        match response {
            Response::Error(e) => assert_eq!(e.code, ErrorCode::Busy),
            other => panic!("over-budget request got {other:?}"),
        }
    }
    server.close().expect("clean close");
}

/// A batch larger than the whole in-flight budget is admitted when the
/// connection is idle — `Busy` is backpressure, not starvation: an
/// oversized batch succeeds once earlier work drains, it is never
/// rejected forever.
#[test]
fn oversized_batches_succeed_on_an_idle_connection() {
    let service = InterpretationService::new(CountingApi::new(two_region_plm()), service_config(2));
    let server = Server::bind(
        "127.0.0.1:0",
        service,
        ServerConfig {
            max_inflight_per_conn: 1,
            ..ServerConfig::default()
        },
    )
    .expect("ephemeral bind");
    let mut client = Client::connect(server.local_addr()).expect("handshake");
    let items: Vec<(Vector, usize)> = (0..4).map(|i| (instance(i), 0)).collect();
    let results = client
        .interpret_batch(&items, None)
        .expect("an idle connection admits any legal batch");
    assert_eq!(results.len(), 4);
    for (i, result) in results.iter().enumerate() {
        assert!(result.is_ok(), "item {i}: {result:?}");
    }
    server.close().expect("clean close");
}

/// A read timeout mid-exchange leaves the response in flight; the client
/// must refuse further calls (`Poisoned`) rather than risk pairing the
/// stale response with the next request — a silent wrong answer.
#[test]
fn timed_out_clients_poison_instead_of_desyncing() {
    let server = slow_server(Duration::from_millis(100), 1, ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).expect("handshake");
    client
        .set_read_timeout(Some(Duration::from_millis(20)))
        .unwrap();
    // The solve takes ≥ 1 s (10 sleepy queries); the 20 ms read times out
    // with the response still on its way.
    match client.interpret(&instance(0), 0) {
        Err(ClientError::Io(_)) => {}
        other => panic!("expected a transport timeout, got {other:?}"),
    }
    // Every further call on this connection is refused, even after the
    // stale response has long arrived in the socket buffer.
    std::thread::sleep(Duration::from_secs(2));
    match client.interpret(&instance(1), 0) {
        Err(ClientError::Poisoned) => {}
        other => panic!("a poisoned client must refuse calls, got {other:?}"),
    }
    assert!(matches!(client.ping(), Err(ClientError::Poisoned)));
    // A fresh connection to the same server works fine.
    let mut fresh = Client::connect(server.local_addr()).expect("handshake");
    fresh.interpret(&instance(0), 0).expect("server unaffected");
    server.close().expect("clean close");
}

/// A deadline that lapses while the request queues behind a slow solve
/// comes back as a typed `DeadlineExceeded`, not a late answer.
#[test]
fn deadlines_expire_over_the_wire() {
    let server = slow_server(Duration::from_millis(50), 1, ServerConfig::default());
    let addr = server.local_addr();
    std::thread::scope(|scope| {
        // Occupy the single worker with a full solve (≥ 10 sleepy queries).
        let slow = scope.spawn(move || {
            let mut client = Client::connect(addr).expect("handshake");
            client
                .interpret(&instance(0), 0)
                .expect("eventually served")
        });
        // Give the slow request time to reach its worker, then race it
        // with a budget that cannot survive the queue.
        std::thread::sleep(Duration::from_millis(100));
        let mut client = Client::connect(addr).expect("handshake");
        match client.interpret_within(&instance(1), 0, Duration::from_millis(1)) {
            Err(ClientError::Remote(e)) => assert_eq!(e.code, ErrorCode::DeadlineExceeded),
            other => panic!("expected a deadline refusal, got {other:?}"),
        }
        slow.join().unwrap();
    });
    assert_eq!(server.service().stats().deadline_expired, 1);
    server.close().expect("clean close");
}

/// Batch requests come back per item, in order, with typed per-item
/// failures for the items the service refuses.
#[test]
fn batches_return_per_item_results() {
    let server = spawn_server(2);
    let mut client = Client::connect(server.local_addr()).expect("handshake");
    let items = vec![
        (instance(0), 0),
        (Vector(vec![1.0; DIM + 3]), 0), // wrong dimension
        (instance(1), 99),               // class out of range
        (instance(2), 1),
    ];
    let results = client
        .interpret_batch(&items, None)
        .expect("batch exchange");
    assert_eq!(results.len(), 4);
    assert!(results[0].is_ok());
    for (i, expectation) in [(1usize, "dimension"), (2, "class")] {
        match &results[i] {
            Err(e) => {
                assert_eq!(e.code, ErrorCode::Interpret);
                assert!(
                    e.message.contains(expectation),
                    "item {i}: diagnostics survive the wire: {e}"
                );
            }
            Ok(_) => panic!("item {i} must fail"),
        }
    }
    let served = results[3].as_ref().expect("valid item serves");
    let x = instance(2);
    let probs = server.service().api().predict(x.as_slice());
    assert!(served
        .interpretation
        .explains_probe(&x, probs.as_slice(), RTOL));
    server.close().expect("clean close");
}

/// An instance with a NaN or ±∞ feature decodes fine (the codec carries
/// any bit pattern) but is refused with a typed error before the service
/// spends a single query, single or batched.
#[test]
fn non_finite_instances_are_refused_without_a_query() {
    let server = spawn_server(2);
    let mut client = Client::connect(server.local_addr()).expect("handshake");
    let poisoned = |v: f64| {
        let mut x = instance(0);
        x[1] = v;
        x
    };
    for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        match client.interpret(&poisoned(v), 0) {
            Err(ClientError::Remote(e)) => {
                assert_eq!(e.code, ErrorCode::Interpret);
                assert!(e.message.contains("feature 1"), "{v}: {e}");
            }
            other => panic!("{v}: expected a typed refusal, got {other:?}"),
        }
    }
    let items = vec![(poisoned(f64::NAN), 0), (poisoned(f64::INFINITY), 1)];
    let results = client
        .interpret_batch(&items, None)
        .expect("batch exchange");
    for r in &results {
        let e = r.as_ref().expect_err("non-finite item must fail");
        assert_eq!(e.code, ErrorCode::Interpret);
    }
    assert_eq!(server.service().api().queries(), 0);
    let stats = client.stats().expect("stats exchange");
    assert_eq!((stats.requests, stats.failures, stats.queries), (5, 5, 0));
    server.close().expect("clean close");
}

/// The statistics a remote client fetches are the service's own numbers.
#[test]
fn stats_travel_the_wire_faithfully() {
    let server = spawn_server(2);
    let mut client = Client::connect(server.local_addr()).expect("handshake");
    for i in 0..6 {
        client.interpret(&instance(i), 0).expect("serves");
    }
    let local = server.service().stats();
    let remote = client.stats().expect("stats exchange");
    assert_eq!(remote.requests, local.requests);
    assert_eq!(remote.hits, local.hits);
    assert_eq!(remote.misses, local.misses);
    assert_eq!(remote.coalesced_served, local.coalesced_served);
    assert_eq!(remote.failures, 0);
    assert_eq!(remote.queries, local.queries);
    assert_eq!(remote.cached_regions, local.cached_regions);
    assert!(remote.p50_latency.is_some());
    assert!(remote.store.is_none(), "no store attached");
    server.close().expect("clean close");
}

/// `Server::close` is a drain, not an abort: requests in flight when the
/// shutdown starts still get their responses before the socket dies.
#[test]
fn graceful_close_drains_in_flight_requests() {
    let server = slow_server(Duration::from_millis(50), 1, ServerConfig::default());
    let addr = server.local_addr();
    let in_flight = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("handshake");
        client.interpret(&instance(0), 0)
    });
    // Let the request reach its worker (the probe alone sleeps 50 ms),
    // then close while its solve is still running.
    std::thread::sleep(Duration::from_millis(150));
    server.close().expect("drain and close");
    let served = in_flight
        .join()
        .unwrap()
        .expect("in-flight request must be drained to completion, not dropped");
    assert_eq!(served.outcome, ServeOutcome::Solved);
    // The listener is gone: fresh connections are refused now.
    assert!(Client::connect(addr).is_err());
}
