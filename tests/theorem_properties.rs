//! Property-based integration tests of the paper's theorems, on randomly
//! generated PLMs (not just fixed fixtures).

use openapi_repro::prelude::*;
use openapi_repro::{api, core, nn};

use api::{LinearSoftmaxModel, LocalLinearModel, TwoRegionPlm};
use core::equations::{
    solve_determined, ConsistencySolver, ConsistencyStrategy, EquationSystem, Probe,
};
use core::sampler::sample_many;
use nn::{Activation, Plnn};
use openapi_repro::linalg::Matrix;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy: a random linear softmax model with d features, C classes.
fn random_linear_model(d: usize, c: usize) -> impl Strategy<Value = LinearSoftmaxModel> {
    (
        prop::collection::vec(-2.0f64..2.0, d * c),
        prop::collection::vec(-1.0f64..1.0, c),
    )
        .prop_map(move |(w, b)| {
            LinearSoftmaxModel::new(
                Matrix::from_vec(d, c, w).expect("shape by construction"),
                Vector(b),
            )
        })
}

/// `Ω` for a d = 3 model: `x⁰` plus `4 + held_out` hypercube samples, so
/// rows `4..` are the held-out equations `SquareThenCheck` sweeps.
fn overdetermined_system(
    model: &LinearSoftmaxModel,
    x0: Vec<f64>,
    held_out: usize,
    seed: u64,
) -> EquationSystem {
    let x0 = Vector(x0);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut probes = vec![Probe::query(model, x0.clone())];
    for x in sample_many(x0.as_slice(), 1.0, 4 + held_out, &mut rng) {
        probes.push(Probe::query(model, x));
    }
    EquationSystem::new(probes)
}

const STRATEGIES: [ConsistencyStrategy; 2] = [
    ConsistencyStrategy::SquareThenCheck,
    ConsistencyStrategy::LeastSquares,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Theorem 2's acceptance half: a system whose every equation comes
    /// from one linear region is consistent under both strategies, and its
    /// solution is that region's core parameters.
    #[test]
    fn constructed_consistent_overdetermined_system_is_accepted(
        model in random_linear_model(3, 3),
        x0 in prop::collection::vec(-2.0f64..2.0, 3),
        held_out in 1usize..6,
        seed in 0u64..1000,
    ) {
        let sys = overdetermined_system(&model, x0, held_out, seed);
        let rtol = OpenApiConfig::default().rtol;
        for strategy in STRATEGIES {
            let solver = ConsistencySolver::new(&sys, strategy, rtol).unwrap();
            for c_prime in 1..3 {
                let v = solver.check(&sys.rhs(0, c_prime), c_prime).unwrap();
                prop_assert!(
                    v.consistent,
                    "{:?} rejected contrast {}: residual {} > {}",
                    strategy, c_prime, v.residual, v.threshold
                );
                let want_w = model.local().pairwise_decision_features(0, c_prime);
                let want_b = model.local().pairwise_bias(0, c_prime);
                prop_assert!(v.params.weights.l1_distance(&want_w).unwrap() < 1e-5);
                prop_assert!((v.params.bias - want_b).abs() < 1e-5);
            }
        }
    }

    /// Theorem 2's rejection half: one held-out equation off its region's
    /// plane makes the system inconsistent under both strategies.
    #[test]
    fn corrupted_equation_is_rejected(
        model in random_linear_model(3, 3),
        x0 in prop::collection::vec(-2.0f64..2.0, 3),
        held_out in 1usize..6,
        row in 0usize..6,
        bump in prop::sample::select(vec![0.1f64, 1.0, 10.0]),
        seed in 0u64..1000,
    ) {
        let sys = overdetermined_system(&model, x0, held_out, seed);
        let mut rhs = sys.rhs(0, 1);
        let scale = rhs.iter().fold(1.0f64, |s, v| s.max(v.abs()));
        // Rows from `unknowns` on are held out, so SquareThenCheck sees it.
        rhs[sys.unknowns() + row % held_out] += bump * scale;
        for strategy in STRATEGIES {
            let solver = ConsistencySolver::new(&sys, strategy, 1e-9).unwrap();
            let v = solver.check(&rhs, 1).unwrap();
            prop_assert!(!v.consistent, "{:?} accepted a corrupted system", strategy);
        }
    }

    /// Theorem 2 (single-region case): OpenAPI's first iteration recovers
    /// the exact decision features of ANY linear softmax model, for every
    /// class, from any instance.
    #[test]
    fn openapi_exact_on_random_linear_models(
        model in random_linear_model(6, 4),
        x0 in prop::collection::vec(-3.0f64..3.0, 6),
        seed in 0u64..1000,
    ) {
        let x0 = Vector(x0);
        let interpreter = OpenApiInterpreter::new(OpenApiConfig::default());
        let mut rng = StdRng::seed_from_u64(seed);
        for class in 0..4 {
            let res = interpreter.interpret(&model, &x0, class, &mut rng).unwrap();
            prop_assert_eq!(res.iterations, 1);
            let truth = model.local().decision_features(class);
            let err = res.interpretation.decision_features.l1_distance(&truth).unwrap();
            prop_assert!(err < 1e-6, "class {}: L1Dist {}", class, err);
        }
    }

    /// Lemma 1: the naive determined system is solvable (full rank) for
    /// uniform hypercube samples, and in the ideal (single-region) case its
    /// solution is exact — at ANY perturbation distance.
    #[test]
    fn naive_system_full_rank_and_exact_in_ideal_case(
        model in random_linear_model(5, 3),
        x0 in prop::collection::vec(-2.0f64..2.0, 5),
        edge_exp in -6.0f64..0.0,
        seed in 0u64..1000,
    ) {
        let x0 = Vector(x0);
        let edge = 10f64.powf(edge_exp);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut probes = vec![Probe::query(&model, x0.clone())];
        for x in sample_many(x0.as_slice(), edge, 5, &mut rng) {
            probes.push(Probe::query(&model, x));
        }
        let sys = EquationSystem::new(probes);
        // Full rank w.p. 1: solve must succeed.
        let params = solve_determined(&sys, 0, 1).unwrap();
        let want_w = model.local().pairwise_decision_features(0, 1);
        let want_b = model.local().pairwise_bias(0, 1);
        prop_assert!(params.weights.l1_distance(&want_w).unwrap() < 1e-5);
        prop_assert!((params.bias - want_b).abs() < 1e-5);
    }

    /// Consistency: within one region of a two-region PLM, interpretations
    /// of different instances coincide exactly.
    #[test]
    fn interpretations_region_constant_on_two_region_plms(
        w_low in prop::collection::vec(-2.0f64..2.0, 4),
        w_high in prop::collection::vec(-2.0f64..2.0, 4),
        xa in -2.0f64..0.2,
        xb in -2.0f64..0.2,
        y in -2.0f64..2.0,
        seed in 0u64..500,
    ) {
        let low = LocalLinearModel::new(
            Matrix::from_vec(2, 2, w_low).expect("shape"),
            Vector(vec![0.0, 0.1]),
        );
        let high = LocalLinearModel::new(
            Matrix::from_vec(2, 2, w_high).expect("shape"),
            Vector(vec![0.2, -0.1]),
        );
        // Skip degenerate draws where the two classes coincide in the low
        // region (decision features ~ 0 make cosine similarity undefined).
        let d_low = low.decision_features(0);
        prop_assume!(d_low.norm_l2() > 1e-6);

        let plm = TwoRegionPlm::axis_split(0, 0.5, low, high);
        let a = Vector(vec![xa, y]);
        let b = Vector(vec![xb, -y]);
        let interpreter = OpenApiInterpreter::new(OpenApiConfig::default());
        let mut rng = StdRng::seed_from_u64(seed);
        let ia = interpreter.interpret(&plm, &a, 0, &mut rng).unwrap();
        let ib = interpreter.interpret(&plm, &b, 0, &mut rng).unwrap();
        let dist = ia.interpretation.decision_features
            .l1_distance(&ib.interpretation.decision_features).unwrap();
        prop_assert!(dist < 1e-6, "same-region interpretations differ by {}", dist);
    }

    /// The OpenBox ground truth obeys softmax shift invariance: adding a
    /// constant to every output-layer bias changes no decision feature.
    #[test]
    fn decision_features_invariant_to_logit_shift(
        seed in 0u64..1000,
        shift in -5.0f64..5.0,
        x in prop::collection::vec(-1.0f64..1.0, 4),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = Plnn::mlp(&[4, 6, 3], Activation::ReLU, &mut rng);
        // Rebuild the network with every output bias shifted by the same
        // constant (softmax is invariant to such shifts).
        let mut layers = net.layers().to_vec();
        if let nn::Layer::Dense(l) = &mut layers[1] {
            for b in l.bias.iter_mut() {
                *b += shift;
            }
        }
        let shifted = Plnn::new(layers);
        let d0 = net.local_linear_map(&x).decision_features(0);
        let d0s = shifted.local_linear_map(&x).decision_features(0);
        prop_assert!(d0.l1_distance(&d0s).unwrap() < 1e-9);
        // And the softmax outputs are unchanged too.
        let pa = net.predict(&x);
        let pb = shifted.predict(&x);
        for c in 0..3 {
            prop_assert!((pa[c] - pb[c]).abs() < 1e-12);
        }
    }
}
