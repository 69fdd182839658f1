//! Helpers shared by the golden tests: a seeded solve reduced to
//! `(iterations, queries, digest)`, its rung logs reduced to one digest,
//! and its distance to the hidden model's oracle.

use openapi_api::{CountingApi, GroundTruthOracle, PredictionApi};
use openapi_core::openapi::IterationLog;
use openapi_core::{Interpretation, OpenApiConfig, OpenApiInterpreter, OpenApiResult};
use openapi_linalg::Vector;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a over the little-endian bytes of 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn eat(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// FNV-1a over the exact bits of every number in `interpretation`.
fn digest(interpretation: &Interpretation) -> u64 {
    let mut hash = Fnv::new();
    hash.eat(interpretation.class as u64);
    for v in interpretation.decision_features.iter() {
        hash.eat(v.to_bits());
    }
    for p in &interpretation.pairwise {
        hash.eat(p.c_prime as u64);
        hash.eat(p.bias.to_bits());
        for w in p.weights.iter() {
            hash.eat(w.to_bits());
        }
    }
    hash.0
}

/// FNV-1a over every rung's edge, consistent count, worst-residual bits,
/// degenerate flag, queries and screened flag, in rung order.
fn log_digest(log: &[IterationLog]) -> u64 {
    let mut hash = Fnv::new();
    for rung in log {
        hash.eat(rung.edge.to_bits());
        hash.eat(rung.consistent_contrasts as u64);
        hash.eat(rung.worst_residual.to_bits());
        hash.eat(u64::from(rung.degenerate));
        hash.eat(rung.queries as u64);
        hash.eat(u64::from(rung.screened));
    }
    hash.0
}

/// One seeded solve under `config`, and the queries a `CountingApi` saw.
fn run<M: PredictionApi>(
    config: OpenApiConfig,
    model: M,
    x0: &[f64],
    class: usize,
    seed: u64,
) -> (OpenApiResult, u64) {
    let api = CountingApi::new(model);
    let mut rng = StdRng::seed_from_u64(seed);
    let res = OpenApiInterpreter::new(config)
        .interpret(&api, &Vector(x0.to_vec()), class, &mut rng)
        .expect("every pinned case solves");
    assert_eq!(res.queries as u64, api.queries());
    (res, api.queries())
}

/// `(iterations, queries, digest)` of one seeded solve under `config`; the
/// query count is read off a `CountingApi`, not the result.
pub fn solve<M: PredictionApi>(
    config: OpenApiConfig,
    model: M,
    x0: &[f64],
    class: usize,
    seed: u64,
) -> (usize, u64, u64) {
    let (res, queries) = run(config, model, x0, class, seed);
    (res.iterations, queries, digest(&res.interpretation))
}

/// Digest of the rung logs ([`IterationLog`]) of the same seeded solve as
/// [`solve`].
pub fn rungs<M: PredictionApi>(
    config: OpenApiConfig,
    model: M,
    x0: &[f64],
    class: usize,
    seed: u64,
) -> u64 {
    log_digest(&run(config, model, x0, class, seed).0.log)
}

/// L1 distance from the decision features of the same seeded solve as
/// [`solve`] to the oracle's at `x0`.
#[allow(dead_code)] // the paper-policy suite pins bits only
pub fn l1_to_oracle<M: PredictionApi + GroundTruthOracle>(
    config: OpenApiConfig,
    model: M,
    x0: &[f64],
    class: usize,
    seed: u64,
) -> f64 {
    let truth = model.local_model(x0).decision_features(class);
    let (res, _) = run(config, model, x0, class, seed);
    res.interpretation
        .decision_features
        .l1_distance(&truth)
        .expect("the oracle has the model's dimension")
}
