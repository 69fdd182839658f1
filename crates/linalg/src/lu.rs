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

        for k in 0..n {
            // Partial pivoting: bring the largest remaining entry of column k
            // to the diagonal.
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
                return Err(LinalgError::Singular {
                    pivot: k,
                    magnitude: pivot_mag,
                });
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

#[cfg(test)]
mod tests {
    use super::*;

    fn solve_dense(a: &Matrix, b: &[f64]) -> Vector {
        LuFactor::new(a).unwrap().solve(b).unwrap()
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
