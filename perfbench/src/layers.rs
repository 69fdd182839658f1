//! Timed direct calls into single layers, made from outside the program:
//! the wire codec, the store's membership lookup, Algorithm 1's
//! factorization and per-contrast check, whole solves, the kernel
//! backends, and TCP round trips.

use crate::drive::{median, nanos, sorted};
use crate::gen::{self, Region, CLASS};
use crate::wrap::MeteredApi;
use openapi_api::PredictionApi;
use openapi_core::decision::{Interpretation, RegionFingerprint};
use openapi_core::equations::{ConsistencySolver, EquationSystem, Probe};
use openapi_core::openapi::{OpenApiConfig, OpenApiInterpreter};
use openapi_core::rng::derived_rng;
use openapi_core::sampler::sample_many;
use openapi_eval::PanelModel;
use openapi_linalg::kernel::{Backend, BlockedBackend, RowMatrix, ScalarBackend};
use openapi_linalg::Vector;
use openapi_net::wire::{decode_response, encode_response, read_frame, FrameRead};
use openapi_net::{Client, RemoteServed, Response};
use openapi_serve::ServeOutcome;
use openapi_store::RegionStore;
use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Encode/decode passes over the sampled replies.
const CODEC_ROUNDS: usize = 20;
/// Half-width of the hypercube the timed equation systems are sampled in.
const SYSTEM_EDGE: f64 = 1e-3;
/// Multiply-adds per timed kernel measurement (a few milliseconds scalar).
const KERNEL_WORK: usize = 4_000_000;
/// Scalar/blocked measurement pairs; the speed-up is their median ratio.
const KERNEL_ROUNDS: usize = 7;
/// Salt of the direct solves' sampling streams.
const SOLVE_SALT: u64 = 0x50;

pub struct WireCodec {
    pub reply_bytes: f64,
    pub encode_us: f64,
    pub decode_us: f64,
}

/// Encodes one interpret reply per region into a frame and reads it back
/// (frame check + decode), checking every reply survives the round trip.
pub fn wire_codec(
    regions: &[(Arc<Interpretation>, RegionFingerprint)],
) -> Result<WireCodec, String> {
    if regions.is_empty() {
        return Err("no interpretations to encode".into());
    }
    let replies: Vec<Response> = regions
        .iter()
        .map(|(interpretation, fingerprint)| {
            Response::Interpreted(RemoteServed {
                interpretation: Arc::clone(interpretation),
                fingerprint: *fingerprint,
                outcome: ServeOutcome::CacheHit,
                queries: 1,
                server_latency: Duration::from_micros(100),
                span: 0,
            })
        })
        .collect();
    let (mut encode_ns, mut decode_ns, mut bytes) = (0u64, 0u64, 0usize);
    for _ in 0..CODEC_ROUNDS {
        for reply in &replies {
            let start = Instant::now();
            let frame = encode_response(black_box(reply));
            encode_ns += nanos(start.elapsed());
            let start = Instant::now();
            let mut input: &[u8] = black_box(&frame);
            let decoded = match read_frame(&mut input) {
                Ok(FrameRead::Payload(payload)) => {
                    decode_response(&payload).map_err(|e| e.to_string())
                }
                Ok(_) => Err("the encoded frame did not read back as one frame".into()),
                Err(e) => Err(e.to_string()),
            };
            decode_ns += nanos(start.elapsed());
            match decoded {
                Ok(back) if back == *reply => bytes += frame.len(),
                Ok(_) => return Err("a decoded reply differs from the one encoded".into()),
                Err(e) => return Err(format!("decoding an encoded reply failed: {e}")),
            }
        }
    }
    let n = (CODEC_ROUNDS * replies.len()) as f64;
    Ok(WireCodec {
        reply_bytes: bytes as f64 / n,
        encode_us: encode_ns as f64 / 1e3 / n,
        decode_us: decode_ns as f64 / 1e3 / n,
    })
}

pub struct StoreLookups {
    pub hit_us: f64,
    pub miss_us: f64,
}

/// Times `RegionStore::lookup_probe` for instances the store must hold and
/// instances it must not (a miss scans the whole class bucket).
pub fn store_lookups(
    store: &RegionStore,
    model: &PanelModel,
    hits: &[&Vector],
    misses: &[&Vector],
) -> Result<StoreLookups, String> {
    let time = |xs: &[&Vector], want: bool| -> Result<f64, String> {
        let mut total = 0u64;
        for x in xs {
            let probs = model.predict(x.as_slice());
            let start = Instant::now();
            let found = store.lookup_probe(x, probs.as_slice(), CLASS).is_some();
            total += nanos(start.elapsed());
            if found != want {
                return Err(format!(
                    "a store lookup {} an instance whose region the store {}",
                    if found { "found" } else { "missed" },
                    if want { "holds" } else { "does not hold" }
                ));
            }
        }
        Ok(total as f64 / 1e3 / xs.len().max(1) as f64)
    };
    Ok(StoreLookups {
        hit_us: time(hits, true)?,
        miss_us: time(misses, false)?,
    })
}

pub struct FactorCheck {
    pub factor_us: f64,
    pub check_us: f64,
}

/// Times `ConsistencySolver::new` (one LU of the leading (d+1)² block) and
/// `check` (one contrast) on Algorithm-1 systems sampled around `at`.
pub fn factor_and_check(
    model: &PanelModel,
    at: &[&Vector],
    seed: u64,
) -> Result<FactorCheck, String> {
    let config = OpenApiConfig::default();
    let (mut factor, mut check_ns, mut checks) = (Vec::new(), 0u64, 0u64);
    for (i, x) in at.iter().enumerate() {
        let mut rng = derived_rng(seed ^ SOLVE_SALT, i as u64);
        let mut probes = vec![Probe::query(model, (*x).clone())];
        for sample in sample_many(x.as_slice(), SYSTEM_EDGE, model.dim() + 1, &mut rng) {
            probes.push(Probe::query(model, sample));
        }
        let system = EquationSystem::new(probes);
        let start = Instant::now();
        let solver = ConsistencySolver::new(&system, config.strategy, config.rtol)
            .map_err(|e| format!("factorizing a sampled system failed: {e}"))?;
        factor.push(nanos(start.elapsed()) as f64);
        for c in (0..model.num_classes()).filter(|&c| c != CLASS) {
            let rhs = system.rhs(CLASS, c);
            let start = Instant::now();
            let verdict = solver
                .check(&rhs, c)
                .map_err(|e| format!("checking a contrast failed: {e}"))?;
            check_ns += nanos(start.elapsed());
            checks += 1;
            black_box(verdict);
        }
    }
    Ok(FactorCheck {
        factor_us: median(factor) / 1e3,
        check_us: check_ns as f64 / 1e3 / checks.max(1) as f64,
    })
}

/// The solve layer: per-solve wall time, iterations, and the API's busy
/// time over all of them.
pub struct SolveLayer {
    pub ms: Vec<f64>,
    pub iterations: Vec<f64>,
    pub api_busy_ms: f64,
}

/// Whole Algorithm-1 solves called directly, for workloads whose traffic
/// never solves: each region's instance through a timed `MeteredApi`,
/// held to the exactness gate (`gen::exactness`).
pub fn direct_solves(
    model: &Arc<PanelModel>,
    regions: &[Region],
    seed: u64,
) -> Result<SolveLayer, String> {
    let api = MeteredApi::new(Arc::clone(model), true);
    let meter = api.meter();
    let interpreter = OpenApiInterpreter::new(OpenApiConfig::default());
    let (mut ms, mut iterations, mut served) = (Vec::new(), Vec::new(), Vec::new());
    for (i, region) in regions.iter().enumerate() {
        let mut rng = derived_rng(seed ^ SOLVE_SALT, i as u64);
        let start = Instant::now();
        let solved = interpreter
            .interpret(&api, &region.members[0], CLASS, &mut rng)
            .map_err(|e| format!("a direct solve failed: {e}"))?;
        ms.push(start.elapsed().as_secs_f64() * 1e3);
        iterations.push(solved.iterations as f64);
        served.push(solved.interpretation);
    }
    let l1s = served
        .iter()
        .zip(regions)
        .map(|(s, r)| gen::l1_to_oracle(s, r))
        .collect::<Result<Vec<_>, _>>()?;
    gen::exactness(l1s)?;
    Ok(SolveLayer {
        ms,
        iterations,
        api_busy_ms: meter.busy_ns() as f64 / 1e6,
    })
}

/// Scalar over blocked wall time of one `boundary_eval` pass over every
/// contrast row of `interpretations`, packed as the cache packs them. The
/// two passes must agree bit for bit.
pub fn blocked_speedup(interpretations: &[Arc<Interpretation>], x: &Vector) -> Result<f64, String> {
    let mut w = RowMatrix::new(x.len());
    let mut bias = Vec::new();
    for interpretation in interpretations {
        for p in &interpretation.pairwise {
            w.push_row(p.weights.as_slice());
            bias.push(p.bias);
        }
    }
    if w.is_empty() {
        return Err("no regions to pack for the kernel pass".into());
    }
    let rows = 0..w.rows();
    let (scalar, blocked): (&dyn Backend, &dyn Backend) = (&ScalarBackend, &BlockedBackend);
    let (mut ys, mut yb) = (Vec::new(), Vec::new());
    scalar.boundary_eval(&w, &bias, x.as_slice(), rows.clone(), &mut ys);
    blocked.boundary_eval(&w, &bias, x.as_slice(), rows.clone(), &mut yb);
    if ys.iter().zip(&yb).any(|(a, b)| a.to_bits() != b.to_bits()) {
        return Err("the blocked kernel pass differs from the scalar reference".into());
    }
    let reps = (KERNEL_WORK / (w.rows() * x.len())).max(1);
    let mut y = Vec::new();
    let mut time = |backend: &dyn Backend| {
        let start = Instant::now();
        for _ in 0..reps {
            backend.boundary_eval(
                black_box(&w),
                &bias,
                black_box(x.as_slice()),
                rows.clone(),
                &mut y,
            );
            black_box(&y);
        }
        start.elapsed().as_secs_f64()
    };
    let ratios: Vec<f64> = (0..KERNEL_ROUNDS)
        .map(|_| time(scalar) / time(blocked))
        .collect();
    Ok(median(ratios))
}

/// Ping round trips on one fresh connection, ascending, in µs.
pub fn pings(addr: SocketAddr, n: usize) -> Result<Vec<f64>, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connecting failed: {e}"))?;
    let rtts = (0..n)
        .map(|_| {
            client
                .ping()
                .map(|rtt| rtt.as_secs_f64() * 1e6)
                .map_err(|e| format!("a ping failed: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(sorted(rtts))
}

/// One client's interpret round trips over `xs` (each must be served warm,
/// for one query): `(rtt, rtt − server latency)`, ascending, in µs.
pub fn round_trips(addr: SocketAddr, xs: &[&Vector]) -> Result<(Vec<f64>, Vec<f64>), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connecting failed: {e}"))?;
    let (mut rtt, mut wire) = (Vec::with_capacity(xs.len()), Vec::with_capacity(xs.len()));
    for x in xs {
        let start = Instant::now();
        let reply = client
            .interpret(x, CLASS)
            .map_err(|e| format!("a round trip failed: {e}"))?;
        let elapsed = start.elapsed();
        if reply.queries != 1
            || !matches!(
                reply.outcome,
                ServeOutcome::CacheHit | ServeOutcome::StoreHit
            )
        {
            return Err(format!(
                "a warm round trip was {:?} costing {} queries",
                reply.outcome, reply.queries
            ));
        }
        rtt.push(elapsed.as_secs_f64() * 1e6);
        wire.push(elapsed.saturating_sub(reply.server_latency).as_secs_f64() * 1e6);
    }
    Ok((sorted(rtt), sorted(wire)))
}
