//! LU factorization with partial pivoting.
//!
//! This is the fast path of OpenAPI's consistency check: the square
//! subsystem `Θ_i` of the overdetermined `Ω_{d+2}` (Theorem 2 of the paper)
//! is solved once via LU, and the left-out equation's residual decides
//! consistency. Lemma 1 guarantees the coefficient matrix is full rank with
//! probability 1, but floating point still demands pivoting and an explicit
//! singularity tolerance.

use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::vector::Vector;
use crate::Result;

/// Relative pivot tolerance: a pivot below `tol * max|A|` is treated as zero.
const PIVOT_RTOL: f64 = 1e-13;

/// LU factorization `P·A = L·U` of a square matrix, with partial pivoting.
///
/// The factors are stored packed in a single matrix (`U` on and above the
/// diagonal, the unit-lower `L` multipliers below), alongside the row
/// permutation. One factorization serves any number of right-hand sides:
/// OpenAPI solves the same coefficient matrix for `C − 1` of them (one per
/// contrast class), and [`LuFactor::solve_many`] solves them side by side.
///
/// Elimination-order contract: the factors are bit for bit those of the
/// unblocked right-looking loop. For each pivot column `k` in turn, the
/// largest `|a_rk|` with `r ≥ k` is swapped to row `k` (the first one on a
/// tie), and every entry below and right of the pivot takes
/// `a_rc −= m_rk·u_kc` with `m_rk = a_rk / u_kk`, skipped when
/// `m_rk == 0`. So each entry takes its updates in ascending `k`, and the
/// first pivot column whose largest magnitude is at or below the tolerance
/// ends the factorization as [`LinalgError::Singular`] with that column and
/// magnitude. The loop itself runs in 32-column panels and 2 × 8 register
/// tiles ([`LuFactor::from_matrix`]).
///
/// Summation-order contract: for every right-hand side `b`, forward
/// substitution computes `y_i = b_{perm[i]} − L_i0·y_0 − … − L_i,i−1·y_i−1`
/// and back substitution `x_i = (y_i − U_i,i+1·x_i+1 − … − U_i,n−1·x_n−1)
/// / U_ii`, each subtraction in that order, whether the side is solved
/// alone ([`LuFactor::solve`]) or next to others.
#[derive(Debug, Clone)]
pub struct LuFactor {
    packed: Matrix,
    /// Row permutation: `perm[i]` is the original index of factored row `i`.
    perm: Vec<usize>,
    /// Sign of the permutation (`+1.0` or `-1.0`), for determinants.
    perm_sign: f64,
}

impl LuFactor {
    /// Factors a copy of a square matrix.
    ///
    /// # Errors
    /// As [`LuFactor::from_matrix`].
    pub fn new(a: &Matrix) -> Result<Self> {
        Self::from_matrix(a.clone())
    }

    /// Factors a square matrix in place: the factors overwrite `a`, so no
    /// copy of it is made. A pivot below `1e-13 · max|A|` counts as zero.
    ///
    /// The elimination is right-looking and blocked in panels of 32
    /// columns. Each panel is factored with the pivot search, row swap and
    /// row loop restricted to its own columns; the panel's rows then take
    /// their trailing columns' updates in ascending `k`; and the trailing
    /// block takes the whole panel's updates at once, in the 2 × 8 tiles of
    /// `update_trailing`. Every entry still sees the steps of the
    /// type-level contract in their order.
    ///
    /// # Errors
    /// * [`LinalgError::DimensionMismatch`] for a non-square input.
    /// * [`LinalgError::NonFinite`] when the matrix contains NaN/inf.
    /// * [`LinalgError::Singular`] when a pivot column is numerically zero.
    pub fn from_matrix(a: Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::DimensionMismatch {
                op: "LuFactor::new (square required)",
                expected: a.rows(),
                found: a.cols(),
            });
        }
        if !a.is_finite() {
            return Err(LinalgError::NonFinite {
                op: "LuFactor::new",
            });
        }
        let n = a.rows();
        let mut packed = a;
        let mut perm: Vec<usize> = (0..n).collect();
        let mut perm_sign = 1.0;
        let scale = packed.norm_max().max(f64::MIN_POSITIVE);
        let tol = PIVOT_RTOL * scale;

        let a = packed.as_mut_slice();
        for k0 in (0..n).step_by(PANEL) {
            let k1 = (k0 + PANEL).min(n);
            for k in k0..k1 {
                // Partial pivoting: bring the largest remaining entry of
                // column k to the diagonal.
                let mut pivot_row = k;
                let mut pivot_mag = a[k * n + k].abs();
                for r in k + 1..n {
                    let mag = a[r * n + k].abs();
                    if mag > pivot_mag {
                        pivot_mag = mag;
                        pivot_row = r;
                    }
                }
                if pivot_mag <= tol {
                    return Err(LinalgError::Singular {
                        pivot: k,
                        magnitude: pivot_mag,
                    });
                }
                if pivot_row != k {
                    let (head, tail) = a.split_at_mut(pivot_row * n);
                    head[k * n..(k + 1) * n].swap_with_slice(&mut tail[..n]);
                    perm.swap(pivot_row, k);
                    perm_sign = -perm_sign;
                }
                // Eliminate below the pivot, inside the panel only.
                let (above, below) = a.split_at_mut((k + 1) * n);
                let pivot = above[k * n + k];
                let u = &above[k * n + k + 1..k * n + k1];
                for row in below.chunks_exact_mut(n) {
                    let m = row[k] / pivot;
                    row[k] = m;
                    if m != 0.0 {
                        sub_scaled(&mut row[k + 1..k1], m, u);
                    }
                }
            }
            if k1 < n {
                // The panel's own rows, top down: their trailing columns
                // become rows of U, each taking the updates of the panel
                // rows above it in ascending k.
                for r in k0 + 1..k1 {
                    let (above, row) = a.split_at_mut(r * n);
                    let (l, t) = row[..n].split_at_mut(k1);
                    update_row(t, &l[k0..r], &above[k0 * n..], n, k1);
                }
                update_trailing(a, n, k0, k1);
            }
        }
        Ok(LuFactor {
            packed,
            perm,
            perm_sign,
        })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.packed.rows()
    }

    /// Solves `A·x = b` using the stored factors: [`LuFactor::solve_many`]
    /// with one right-hand side.
    ///
    /// # Errors
    /// [`LinalgError::DimensionMismatch`] when `b.len() != dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vector> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "LuFactor::solve",
                expected: n,
                found: b.len(),
            });
        }
        Ok(Vector(self.substitute(b, 1)))
    }

    /// Solves `A·X = B` for every column of the `dim() × k` matrix `b`.
    /// The columns run side by side in blocks of up to eight: each factor
    /// entry is read once per block and applied to all of its right-hand
    /// sides, so for `k ≤ 8` the factors are read once. Column `j` of the
    /// result is bit for bit what [`LuFactor::solve`] returns for column
    /// `j` of `b`.
    ///
    /// # Errors
    /// [`LinalgError::DimensionMismatch`] when `b.rows() != dim()`.
    pub fn solve_many(&self, b: &Matrix) -> Result<Matrix> {
        let n = self.dim();
        if b.rows() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "LuFactor::solve_many",
                expected: n,
                found: b.rows(),
            });
        }
        Matrix::from_vec(n, b.cols(), self.substitute(b.as_slice(), b.cols()))
    }

    /// Forward then back substitution on `k` right-hand sides stored
    /// row-major (`b[i·k + j]` is equation `i` of side `j`), returned in
    /// the same layout. The sides run in blocks of 8, 4, 2 or 1 columns.
    fn substitute(&self, b: &[f64], k: usize) -> Vec<f64> {
        let mut x = Vec::with_capacity(self.dim() * k);
        for &p in &self.perm {
            x.extend_from_slice(&b[p * k..(p + 1) * k]);
        }
        let mut c0 = 0;
        while c0 < k {
            c0 += match k - c0 {
                8.. => self.substitute_block::<8>(&mut x, k, c0),
                4..=7 => self.substitute_block::<4>(&mut x, k, c0),
                2 | 3 => self.substitute_block::<2>(&mut x, k, c0),
                _ => self.substitute_block::<1>(&mut x, k, c0),
            };
        }
        x
    }

    /// Substitutes columns `c0..c0 + W` of the permuted `dim() × k` block
    /// `x` in place, in one pass over the factors. Each row's `W` running
    /// sums stay in registers while that row's factor entries stream by,
    /// so the `W` subtraction chains overlap instead of each waiting on a
    /// store. Returns `W`.
    fn substitute_block<const W: usize>(&self, x: &mut [f64], k: usize, c0: usize) -> usize {
        let n = self.dim();
        // Forward substitution with permuted b: L·Y = P·B.
        for i in 1..n {
            let (done, rest) = x.split_at_mut(i * k);
            let yi = &mut rest[c0..c0 + W];
            let mut acc: [f64; W] = (*yi).try_into().expect("W columns");
            for (&l, yj) in self.packed.row(i)[..i].iter().zip(done.chunks_exact(k)) {
                for (s, &y) in acc.iter_mut().zip(&yj[c0..c0 + W]) {
                    *s -= l * y;
                }
            }
            yi.copy_from_slice(&acc);
        }
        // Back substitution: U·X = Y.
        for i in (0..n).rev() {
            let (head, tail) = x.split_at_mut((i + 1) * k);
            let xi = &mut head[i * k + c0..i * k + c0 + W];
            let u = self.packed.row(i);
            let mut acc: [f64; W] = (*xi).try_into().expect("W columns");
            for (&uij, xj) in u[i + 1..].iter().zip(tail.chunks_exact(k)) {
                for (s, &v) in acc.iter_mut().zip(&xj[c0..c0 + W]) {
                    *s -= uij * v;
                }
            }
            for s in &mut acc {
                *s /= u[i];
            }
            xi.copy_from_slice(&acc);
        }
        W
    }

    /// Determinant of the factored matrix (product of `U`'s diagonal times
    /// the permutation sign).
    pub fn det(&self) -> f64 {
        let mut d = self.perm_sign;
        for i in 0..self.dim() {
            d *= self.packed[(i, i)];
        }
        d
    }
}

/// Columns per panel of the blocked elimination in [`LuFactor::from_matrix`].
const PANEL: usize = 32;

/// Columns of one register tile of the trailing update (its rows are two).
const TILE: usize = 8;

/// `row[c] −= m·u[c]` for every column `c`: one elimination step on one
/// row.
#[inline]
fn sub_scaled(row: &mut [f64], m: f64, u: &[f64]) {
    for (x, &uc) in row.iter_mut().zip(u) {
        *x -= m * uc;
    }
}

/// Applies panel `k0..k1`'s elimination steps to the trailing block, rows
/// and columns `k1..n` of the `n × n` row-major `a`, whose panel columns
/// hold the multipliers and whose panel rows hold `U`.
///
/// Entry `(r, c)` takes `a_rc −= m_rk·u_kc` for each `k` in ascending
/// order, and no step whose multiplier is zero. Rows run in pairs. A pair
/// whose `2·(k1 − k0)` multipliers are all nonzero is updated in 2 × 8
/// tiles that hold their sixteen entries in registers across the whole
/// panel; any other pair, the odd last row and the columns past the last
/// full tile take the per-row loop, which skips zero multipliers.
fn update_trailing(a: &mut [f64], n: usize, k0: usize, k1: usize) {
    let (top, bottom) = a.split_at_mut(k1 * n);
    let u = &top[k0 * n..];
    let width = n - k1;
    let tiled = width - width % TILE;
    let mut pairs = bottom.chunks_exact_mut(2 * n);
    for pair in &mut pairs {
        let (r0, r1) = pair.split_at_mut(n);
        let (l0, t0) = r0.split_at_mut(k1);
        let (l1, t1) = r1.split_at_mut(k1);
        let (m0, m1) = (&l0[k0..], &l1[k0..]);
        let done = if m0.iter().chain(m1).all(|&m| m != 0.0) {
            for c in (0..tiled).step_by(TILE) {
                let mut acc0: [f64; TILE] = t0[c..c + TILE].try_into().expect("tile");
                let mut acc1: [f64; TILE] = t1[c..c + TILE].try_into().expect("tile");
                for ((&a0, &a1), uk) in m0.iter().zip(m1).zip(u.chunks_exact(n)) {
                    let uk: &[f64; TILE] = uk[k1 + c..k1 + c + TILE].try_into().expect("tile");
                    for j in 0..TILE {
                        acc0[j] -= a0 * uk[j];
                        acc1[j] -= a1 * uk[j];
                    }
                }
                t0[c..c + TILE].copy_from_slice(&acc0);
                t1[c..c + TILE].copy_from_slice(&acc1);
            }
            tiled
        } else {
            0
        };
        update_row(&mut t0[done..], m0, u, n, k1 + done);
        update_row(&mut t1[done..], m1, u, n, k1 + done);
    }
    let last = pairs.into_remainder();
    if !last.is_empty() {
        let (l, t) = last.split_at_mut(k1);
        update_row(t, &l[k0..], u, n, k1);
    }
}

/// One row's share of a panel's steps: `t` is the row's columns from `c0`
/// on, `m` its multipliers, `u` the `n`-wide rows of `U` they scale, in
/// ascending `k`; a zero multiplier's step is skipped.
fn update_row(t: &mut [f64], m: &[f64], u: &[f64], n: usize, c0: usize) {
    for (&mk, uk) in m.iter().zip(u.chunks_exact(n)) {
        if mk != 0.0 {
            sub_scaled(t, mk, &uk[c0..]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solve_dense(a: &Matrix, b: &[f64]) -> Vector {
        LuFactor::new(a).unwrap().solve(b).unwrap()
    }

    /// The unblocked elimination `from_matrix` replaced, one pivot column
    /// at a time over the whole trailing matrix: the oracle for its factors,
    /// permutation and errors. `Err` carries `Singular`'s pivot and
    /// magnitude.
    fn unblocked(a: &Matrix) -> std::result::Result<(Matrix, Vec<usize>, f64), (usize, f64)> {
        let n = a.rows();
        let mut packed = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut perm_sign = 1.0;
        let tol = PIVOT_RTOL * packed.norm_max().max(f64::MIN_POSITIVE);
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
                return Err((k, pivot_mag));
            }
            if pivot_row != k {
                packed.swap_rows(pivot_row, k);
                perm.swap(pivot_row, k);
                perm_sign = -perm_sign;
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
        Ok((packed, perm, perm_sign))
    }

    /// Asserts that `from_matrix` reproduces the unblocked oracle bit for
    /// bit on `a`, and reports whether the factorization succeeded.
    fn assert_matches_unblocked(a: &Matrix, what: &str) -> bool {
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        match (LuFactor::new(a), unblocked(a)) {
            (Ok(f), Ok((packed, perm, sign))) => {
                assert_eq!(bits(&f.packed), bits(&packed), "{what}: packed factors");
                assert_eq!(f.perm, perm, "{what}: permutation");
                assert_eq!(f.perm_sign.to_bits(), sign.to_bits(), "{what}: sign");
                true
            }
            (Err(LinalgError::Singular { pivot, magnitude }), Err((p, m))) => {
                assert_eq!(pivot, p, "{what}: singular pivot");
                assert_eq!(magnitude.to_bits(), m.to_bits(), "{what}: magnitude");
                false
            }
            (got, want) => panic!("{what}: got {got:?}, oracle {want:?}"),
        }
    }

    /// splitmix64: a seeded stream of `u64`s for the generators below.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform in `[0, 1)`.
        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }

        fn below(&mut self, k: u64) -> u64 {
            self.next() % k
        }
    }

    #[test]
    fn blocked_elimination_equals_the_unblocked_loop() {
        let sizes = (1..=9).chain(31..=33).chain(63..=65).chain([197]);
        let (mut factored, mut singular) = (0, 0);
        let mut tally = |ok: bool| if ok { factored += 1 } else { singular += 1 };
        for n in sizes {
            let mut rng = Mix(n as u64);
            // Algorithm 1's Ω head: a column of ones, then samples of a
            // hypercube of edge 2^-e around x⁰.
            let x0: Vec<f64> = (1..n).map(|_| rng.unit()).collect();
            for e in 0..=20 {
                let edge = (-(e as f64)).exp2();
                let omega = Matrix::from_fn(n, n, |_, c| match c {
                    0 => 1.0,
                    _ => x0[c - 1] + edge * (rng.unit() - 0.5),
                });
                tally(assert_matches_unblocked(
                    &omega,
                    &format!("n={n} Ω edge 2^-{e}"),
                ));
            }
            // Exact and signed zeros, so zero multipliers land inside
            // tiles, with and without a dominant diagonal.
            for (seed, diagonal) in [(1, 0.0), (2, 4.0), (3, n as f64)] {
                let mut rng = Mix(1000 * n as u64 + seed);
                let zeros = Matrix::from_fn(n, n, |r, c| {
                    let v = match rng.below(6) {
                        0 | 1 => 0.0,
                        2 => -0.0,
                        3 => -(rng.below(4) as f64) - 1.0,
                        _ => rng.unit() - 0.5,
                    };
                    if r == c {
                        v + diagonal
                    } else {
                        v
                    }
                });
                tally(assert_matches_unblocked(
                    &zeros,
                    &format!("n={n} zeros {seed}"),
                ));
            }
            // Upper triangular with signed zeros everywhere off the
            // diagonal: every multiplier is zero, so an update that is not
            // skipped flips a −0 entry of U to +0.
            let mut rng = Mix(3000 + n as u64);
            let triangular = Matrix::from_fn(n, n, |r, c| match (r.cmp(&c), rng.below(4)) {
                (std::cmp::Ordering::Equal, _) => 1.0 + rng.unit(),
                (_, 0) => 0.0,
                (_, 1) => -0.0,
                (std::cmp::Ordering::Less, _) => rng.unit() - 0.5,
                _ => 0.0,
            });
            tally(assert_matches_unblocked(
                &triangular,
                &format!("n={n} triangular"),
            ));
            // Small integers: ties in pivot magnitude, exact cancellation.
            let mut rng = Mix(2000 + n as u64);
            let ints = Matrix::from_fn(n, n, |_, _| rng.below(5) as f64 - 2.0);
            tally(assert_matches_unblocked(&ints, &format!("n={n} integers")));
            // Rank-deficient: an integer product of rank n / 2, and a
            // matrix whose last column repeats its first.
            let rank = (n / 2).max(1);
            let left = Matrix::from_fn(n, rank, |_, _| rng.below(3) as f64 - 1.0);
            let right = Matrix::from_fn(rank, n, |_, _| rng.below(3) as f64 - 1.0);
            let low = left.matmul(&right).unwrap();
            tally(assert_matches_unblocked(
                &low,
                &format!("n={n} rank {rank}"),
            ));
            let mut repeat = Matrix::from_fn(n, n, |_, _| rng.unit() - 0.5);
            for r in 0..n {
                repeat[(r, n - 1)] = repeat[(r, 0)];
            }
            tally(assert_matches_unblocked(
                &repeat,
                &format!("n={n} repeated column"),
            ));
        }
        assert!(
            factored > 0 && singular > 0,
            "{factored} factored, {singular} singular"
        );
    }

    #[test]
    fn solves_known_2x2() {
        // [2 1; 1 3] x = [3; 5]  =>  x = [4/5, 7/5]
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]).unwrap();
        let x = solve_dense(&a, &[3.0, 5.0]);
        assert!((x[0] - 0.8).abs() < 1e-12);
        assert!((x[1] - 1.4).abs() < 1e-12);
    }

    #[test]
    fn solve_requires_matching_rhs_length() {
        let a = Matrix::identity(3);
        let f = LuFactor::new(&a).unwrap();
        assert!(f.solve(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        // Naive elimination without pivoting would divide by zero here.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let x = solve_dense(&a, &[2.0, 3.0]);
        assert_eq!(x.as_slice(), &[3.0, 2.0]);
    }

    #[test]
    fn detects_singular_matrix() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert!(matches!(
            LuFactor::new(&a),
            Err(LinalgError::Singular { .. })
        ));
    }

    #[test]
    fn rejects_non_square_and_non_finite() {
        let rect = Matrix::zeros(2, 3);
        assert!(matches!(
            LuFactor::new(&rect),
            Err(LinalgError::DimensionMismatch { .. })
        ));
        let mut nan = Matrix::identity(2);
        nan[(0, 1)] = f64::NAN;
        assert!(matches!(
            LuFactor::new(&nan),
            Err(LinalgError::NonFinite { .. })
        ));
    }

    #[test]
    fn determinant_with_permutation_sign() {
        // Swapping rows of the identity gives det = -1.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let f = LuFactor::new(&a).unwrap();
        assert!((f.det() + 1.0).abs() < 1e-12);

        let b = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 3.0]]).unwrap();
        assert!((LuFactor::new(&b).unwrap().det() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn reconstruction_residual_is_small() {
        // A·x̂ should reproduce b to near machine precision on a
        // well-conditioned random-ish matrix.
        let n = 12;
        let a = Matrix::from_fn(n, n, |r, c| {
            if r == c {
                (n as f64) + 1.0
            } else {
                ((r * 31 + c * 17) % 7) as f64 * 0.25 - 0.75
            }
        });
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let x = solve_dense(&a, &b);
        let r = a.matvec(&x).unwrap();
        for i in 0..n {
            assert!((r[i] - b[i]).abs() < 1e-10, "residual too large at {i}");
        }
    }

    #[test]
    fn multiple_rhs_reuse_one_factorization() {
        let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]).unwrap();
        let f = LuFactor::new(&a).unwrap();
        for b in [[1.0, 0.0], [0.0, 1.0], [2.0, -1.0]] {
            let x = f.solve(&b).unwrap();
            let back = a.matvec(&x).unwrap();
            assert!((back[0] - b[0]).abs() < 1e-12);
            assert!((back[1] - b[1]).abs() < 1e-12);
        }
    }
}
