//! Property-based tests for the factorizations and solvers.
//!
//! These are the invariants OpenAPI's correctness leans on: a full-rank
//! system solved by LU/QR reproduces its right-hand side, least squares is
//! optimal, and the basic vector identities hold for arbitrary finite data.
//! (The consistency check's accept/reject properties live with the check,
//! in the workspace's `tests/theorem_properties.rs`.)

use openapi_linalg::{LuFactor, Matrix, QrFactor, Vector};
use proptest::prelude::*;

/// Strategy: a well-conditioned n×n matrix built as (random in [-1,1]) + n·I.
/// Diagonal dominance guarantees invertibility without rejection sampling.
fn well_conditioned_square(n: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-1.0f64..1.0, n * n).prop_map(move |data| {
        let mut m = Matrix::from_vec(n, n, data).unwrap();
        for i in 0..n {
            m[(i, i)] += n as f64 + 1.0;
        }
        m
    })
}

fn finite_vec(n: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-100.0f64..100.0, n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lu_solution_reproduces_rhs(a in well_conditioned_square(7), b in finite_vec(7)) {
        let f = LuFactor::new(&a).unwrap();
        let x = f.solve(&b).unwrap();
        let ax = a.matvec(x.as_slice()).unwrap();
        for i in 0..7 {
            prop_assert!((ax[i] - b[i]).abs() < 1e-8, "row {i}: {} vs {}", ax[i], b[i]);
        }
    }

    #[test]
    fn lu_and_qr_agree_on_square_systems(a in well_conditioned_square(6), b in finite_vec(6)) {
        let x_lu = LuFactor::new(&a).unwrap().solve(&b).unwrap();
        let (x_qr, res) = QrFactor::new(&a).unwrap().solve_lstsq(&b).unwrap();
        prop_assert!(res < 1e-8);
        for i in 0..6 {
            prop_assert!((x_lu[i] - x_qr[i]).abs() < 1e-8);
        }
    }

    #[test]
    fn determinant_sign_flips_with_row_swap(a in well_conditioned_square(5)) {
        let d0 = LuFactor::new(&a).unwrap().det();
        let mut swapped = a.clone();
        swapped.swap_rows(0, 3);
        let d1 = LuFactor::new(&swapped).unwrap().det();
        prop_assert!((d0 + d1).abs() < 1e-6 * d0.abs().max(1.0));
    }

    #[test]
    fn lstsq_residual_is_optimal_under_coordinate_nudges(
        data in prop::collection::vec(-1.0f64..1.0, 8 * 3),
        b in finite_vec(8),
        nudge in -0.5f64..0.5,
    ) {
        let mut a = Matrix::from_vec(8, 3, data).unwrap();
        // Make columns independent deterministically.
        for i in 0..3 { a[(i, i)] += 4.0; }
        let (x, res) = QrFactor::new(&a).unwrap().solve_lstsq(&b).unwrap();
        // Any nudge of any coordinate must not decrease the residual.
        for k in 0..3 {
            let mut xx = x.clone();
            xx[k] += nudge;
            let ax = a.matvec(xx.as_slice()).unwrap();
            let r2 = ax.iter().zip(b.iter()).map(|(p, q)| (p - q) * (p - q)).sum::<f64>().sqrt();
            prop_assert!(r2 + 1e-9 >= res, "nudge at {k} beat LS: {r2} < {res}");
        }
    }

    #[test]
    fn cosine_similarity_is_scale_invariant(v in finite_vec(12), alpha in 0.001f64..1000.0) {
        let a = Vector(v.clone());
        if a.norm_l2() > 1e-9 {
            let b = a.scaled(alpha);
            let cs = a.cosine_similarity(&b).unwrap();
            prop_assert!((cs - 1.0).abs() < 1e-9);
            let c = a.scaled(-alpha);
            let cs_neg = a.cosine_similarity(&c).unwrap();
            prop_assert!((cs_neg + 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn triangle_inequality_l1(u in finite_vec(6), v in finite_vec(6), w in finite_vec(6)) {
        let (u, v, w) = (Vector(u), Vector(v), Vector(w));
        let direct = u.l1_distance(&w).unwrap();
        let via = u.l1_distance(&v).unwrap() + v.l1_distance(&w).unwrap();
        prop_assert!(direct <= via + 1e-9);
    }

    #[test]
    fn matvec_is_linear(
        data in prop::collection::vec(-2.0f64..2.0, 5 * 4),
        x in finite_vec(4),
        y in finite_vec(4),
        alpha in -3.0f64..3.0,
    ) {
        let a = Matrix::from_vec(5, 4, data).unwrap();
        let xv = Vector(x);
        let yv = Vector(y);
        let lhs = a.matvec((&xv + &yv.scaled(alpha)).as_slice()).unwrap();
        let ax = a.matvec(xv.as_slice()).unwrap();
        let ay = a.matvec(yv.as_slice()).unwrap();
        let rhs = &ax + &ay.scaled(alpha);
        for i in 0..5 {
            prop_assert!((lhs[i] - rhs[i]).abs() < 1e-7 * lhs[i].abs().max(1.0));
        }
    }
}
