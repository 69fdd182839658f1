//! Ablation bench: the two consistency-check strategies across problem
//! sizes — the core `O((d+2)³)` kernel of Algorithm 1.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use openapi_api::LinearSoftmaxModel;
use openapi_core::equations::{ConsistencySolver, ConsistencyStrategy, EquationSystem, Probe};
use openapi_core::sampler::sample_many;
use openapi_linalg::{Matrix, Vector};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn make_system(d: usize, c_total: usize, seed: u64) -> EquationSystem {
    let mut rng = StdRng::seed_from_u64(seed);
    let w = Matrix::from_fn(d, c_total, |_, _| rng.gen_range(-1.0..1.0));
    let bias = Vector((0..c_total).map(|_| rng.gen_range(-0.5..0.5)).collect());
    let model = LinearSoftmaxModel::new(w, bias);
    let x0 = Vector((0..d).map(|_| rng.gen_range(0.0..1.0)).collect());
    let mut probes = vec![Probe::query(&model, x0.clone())];
    for x in sample_many(x0.as_slice(), 0.5, d + 1, &mut rng) {
        probes.push(Probe::query(&model, x));
    }
    EquationSystem::new(probes)
}

fn bench_solver(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_solver");
    group.sample_size(10);
    for d in [64usize, 196, 784] {
        let system = make_system(d, 10, d as u64);
        for (label, strategy) in [
            ("square", ConsistencyStrategy::SquareThenCheck),
            ("lstsq", ConsistencyStrategy::LeastSquares),
        ] {
            group.bench_with_input(
                BenchmarkId::new(format!("factor_and_9_checks_{label}"), d),
                &d,
                |b, _| {
                    b.iter(|| {
                        let solver =
                            ConsistencySolver::new(&system, strategy, 1e-6).expect("full rank");
                        // All C−1 = 9 contrasts, as Algorithm 1 does per
                        // iteration.
                        for c_prime in 1..10 {
                            let rhs = system.rhs(0, c_prime);
                            let _ = solver.check(&rhs, c_prime).expect("solvable");
                        }
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_solver);
criterion_main!(benches);
