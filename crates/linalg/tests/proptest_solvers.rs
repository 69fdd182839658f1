//! Property-based tests for the factorizations and solvers.
//!
//! These are the invariants OpenAPI's correctness leans on: a full-rank
//! system solved by LU/QR reproduces its right-hand side, least squares is
//! optimal, and the basic vector identities hold for arbitrary finite data.
//! (The consistency check's accept/reject properties live with the check,
//! in the workspace's `tests/theorem_properties.rs`.)
//!
//! The kernels' summation-order contracts are checked bit for bit against
//! reference implementations kept here: `Matrix::matvec` and
//! `TiledMatrix::matvec` against the one-row `iter().sum()` expression, and `LuFactor::solve_many` against
//! the one-right-hand-side elimination and substitution loops.

use openapi_linalg::{LuFactor, Matrix, QrFactor, TiledMatrix, Vector};
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

/// Mostly finite values, one draw in four a signed zero, ±∞, NaN or an
/// extreme magnitude.
fn entry() -> impl Strategy<Value = f64> {
    let specials = vec![
        0.0,
        -0.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MAX,
        f64::MIN_POSITIVE,
        -1e-300,
    ];
    (0u8..4, -10.0f64..10.0, prop::sample::select(specials)).prop_map(|(pick, v, special)| {
        if pick == 0 {
            special
        } else {
            v
        }
    })
}

/// Signed zeros and a few finite values: many products are ±0.0.
fn zero_heavy_entry() -> impl Strategy<Value = f64> {
    prop::sample::select(vec![-0.0, 0.0, 1.5, -2.0])
}

/// A `rows × cols` matrix and a length-`cols` vector, `rows ∈
/// 0..=max_rows` and `cols ∈ 0..=9`, with entries drawn from `values()`.
fn matvec_case<S: Strategy<Value = f64>>(
    values: fn() -> S,
    max_rows: usize,
) -> impl Strategy<Value = (Matrix, Vec<f64>)> {
    (0usize..=max_rows, 0usize..=9).prop_flat_map(move |(rows, cols)| {
        (
            prop::collection::vec(values(), rows * cols),
            prop::collection::vec(values(), cols),
        )
            .prop_map(move |(data, x)| (Matrix::from_vec(rows, cols, data).unwrap(), x))
    })
}

/// Bit equality, with any two NaNs equal (the payload of a NaN result is
/// not part of the contract).
fn same_bits(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// The one-row matvec expression `Matrix::matvec` must reproduce.
fn matvec_oracle(a: &Matrix, x: &[f64]) -> Vec<f64> {
    (0..a.rows())
        .map(|r| a.row(r).iter().zip(x.iter()).map(|(a, b)| a * b).sum())
        .collect()
}

/// One-right-hand-side LU with partial pivoting, loop for loop: packed
/// factors and permutation, or `None` for a non-finite or numerically
/// singular matrix.
fn lu_oracle(a: &Matrix) -> Option<(Matrix, Vec<usize>)> {
    if !a.is_finite() {
        return None;
    }
    let n = a.rows();
    let mut packed = a.clone();
    let mut perm: Vec<usize> = (0..n).collect();
    let tol = 1e-13 * packed.norm_max().max(f64::MIN_POSITIVE);
    for k in 0..n {
        let mut pivot_row = k;
        let mut pivot_mag = packed[(k, k)].abs();
        for r in k + 1..n {
            let mag = packed[(r, k)].abs();
            if mag > pivot_mag {
                pivot_mag = mag;
                pivot_row = r;
            }
        }
        if pivot_mag <= tol {
            return None;
        }
        if pivot_row != k {
            packed.swap_rows(pivot_row, k);
            perm.swap(pivot_row, k);
        }
        let pivot = packed[(k, k)];
        for r in k + 1..n {
            let m = packed[(r, k)] / pivot;
            packed[(r, k)] = m;
            if m != 0.0 {
                for c in k + 1..n {
                    let ukc = packed[(k, c)];
                    packed[(r, c)] -= m * ukc;
                }
            }
        }
    }
    Some((packed, perm))
}

/// Forward then back substitution for one right-hand side on
/// [`lu_oracle`]'s factors.
fn substitution_oracle(packed: &Matrix, perm: &[usize], b: &[f64]) -> Vec<f64> {
    let n = packed.rows();
    let mut y = vec![0.0; n];
    for i in 0..n {
        let mut s = b[perm[i]];
        for (j, yj) in y.iter().enumerate().take(i) {
            s -= packed[(i, j)] * yj;
        }
        y[i] = s;
    }
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut s = y[i];
        for (j, xj) in x.iter().enumerate().take(n).skip(i + 1) {
            s -= packed[(i, j)] * xj;
        }
        x[i] = s / packed[(i, i)];
    }
    x
}

/// An `n × n` matrix (unconditioned, so pivoting and singular draws
/// happen) and an `n × k` block of right-hand sides, `n, k ∈ 1..=9`.
fn multi_rhs_case() -> impl Strategy<Value = (Matrix, Matrix)> {
    (1usize..=9, 1usize..=9).prop_flat_map(|(n, k)| {
        (
            prop::collection::vec(-1.0f64..1.0, n * n),
            prop::collection::vec(entry(), n * k),
        )
            .prop_map(move |(a, b)| {
                (
                    Matrix::from_vec(n, n, a).unwrap(),
                    Matrix::from_vec(n, k, b).unwrap(),
                )
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matvec_matches_the_one_row_sum_bit_for_bit(case in matvec_case(entry, 9)) {
        let (a, x) = case;
        let got = a.matvec(&x).unwrap();
        let want = matvec_oracle(&a, &x);
        prop_assert_eq!(got.len(), want.len());
        for (r, (&g, &w)) in got.iter().zip(&want).enumerate() {
            prop_assert!(same_bits(g, w), "row {r}: {g:e} vs {w:e}");
        }
    }

    #[test]
    fn matvec_keeps_the_sign_of_zero_sums(
        case in matvec_case(zero_heavy_entry, 9)
    ) {
        // Products of signed zeros and ±finite values are signed zeros: a
        // row whose products are all −0.0 must sum to −0.0, as the
        // one-row sum (which starts at −0.0) does.
        let (a, x) = case;
        let got = a.matvec(&x).unwrap();
        for (r, w) in matvec_oracle(&a, &x).into_iter().enumerate() {
            prop_assert_eq!(got[r].to_bits(), w.to_bits(), "row {}", r);
        }
    }

    #[test]
    fn tiled_matvec_matches_the_one_row_sum_bit_for_bit(
        case in matvec_case(entry, 40),
        zeros in matvec_case(zero_heavy_entry, 40),
    ) {
        // Up to 40 rows: no tile, one, two, and rows past the last tile.
        for (a, x) in [case, zeros] {
            let got = TiledMatrix::new(&a).matvec(&x).unwrap();
            let want = matvec_oracle(&a, &x);
            prop_assert_eq!(got.len(), want.len());
            for (r, (&g, &w)) in got.iter().zip(&want).enumerate() {
                prop_assert!(same_bits(g, w), "row {r}: {g:e} vs {w:e}");
            }
        }
    }

    #[test]
    fn solve_many_matches_one_rhs_substitution_bit_for_bit(case in multi_rhs_case()) {
        let (a, b) = case;
        let oracle = lu_oracle(&a);
        let lu = LuFactor::new(&a);
        prop_assert_eq!(lu.is_ok(), oracle.is_some());
        if let (Ok(lu), Some((packed, perm))) = (lu, oracle) {
            let many = lu.solve_many(&b).unwrap();
            prop_assert_eq!((many.rows(), many.cols()), (b.rows(), b.cols()));
            for j in 0..b.cols() {
                let col = b.col(j);
                let want = substitution_oracle(&packed, &perm, col.as_slice());
                let alone = lu.solve(col.as_slice()).unwrap();
                for (i, &w) in want.iter().enumerate() {
                    prop_assert!(same_bits(many[(i, j)], w), "side {j} row {i}: {:e} vs {w:e}", many[(i, j)]);
                    prop_assert!(same_bits(alone[i], w), "alone {j} row {i}: {:e} vs {w:e}", alone[i]);
                }
            }
        }
    }

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
