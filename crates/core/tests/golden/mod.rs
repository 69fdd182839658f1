//! Helpers shared by the golden tests: a seeded solve reduced to
//! `(iterations, queries, digest)`.

use openapi_api::{CountingApi, PredictionApi};
use openapi_core::{Interpretation, OpenApiConfig, OpenApiInterpreter};
use openapi_linalg::Vector;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a over the exact bits of every number in `interpretation`.
fn digest(interpretation: &Interpretation) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    let mut eat = |word: u64| {
        for b in word.to_le_bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    eat(interpretation.class as u64);
    for v in interpretation.decision_features.iter() {
        eat(v.to_bits());
    }
    for p in &interpretation.pairwise {
        eat(p.c_prime as u64);
        eat(p.bias.to_bits());
        for w in p.weights.iter() {
            eat(w.to_bits());
        }
    }
    hash
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
    let api = CountingApi::new(model);
    let mut rng = StdRng::seed_from_u64(seed);
    let res = OpenApiInterpreter::new(config)
        .interpret(&api, &Vector(x0.to_vec()), class, &mut rng)
        .expect("every pinned case solves");
    assert_eq!(res.queries as u64, api.queries());
    (res.iterations, api.queries(), digest(&res.interpretation))
}
