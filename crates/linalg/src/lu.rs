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
const DEFAULT_PIVOT_RTOL: f64 = 1e-13;

/// LU factorization `P·A = L·U` of a square matrix, with partial pivoting.
///
/// The factors are stored packed in a single matrix (`U` on and above the
/// diagonal, the unit-lower `L` multipliers below), alongside the row
/// permutation. One factorization serves any number of [`LuFactor::solve`]
/// calls — OpenAPI solves the same coefficient matrix for up to `C − 1`
/// right-hand sides (one per contrast class), so this split pays for itself.
#[derive(Debug, Clone)]
pub struct LuFactor {
    packed: Matrix,
    /// Row permutation: `perm[i]` is the original index of factored row `i`.
    perm: Vec<usize>,
    /// Sign of the permutation (`+1.0` or `-1.0`), for determinants.
    perm_sign: f64,
}

impl LuFactor {
    /// Factors a square matrix with the default pivot tolerance.
    ///
    /// # Errors
    /// * [`LinalgError::DimensionMismatch`] for a non-square input.
    /// * [`LinalgError::NonFinite`] when the matrix contains NaN/inf.
    /// * [`LinalgError::Singular`] when a pivot column is numerically zero.
    pub fn new(a: &Matrix) -> Result<Self> {
        Self::with_tolerance(a, DEFAULT_PIVOT_RTOL)
    }

    /// Factors with an explicit relative pivot tolerance.
    ///
    /// See [`LuFactor::new`] for the error conditions.
    pub fn with_tolerance(a: &Matrix, pivot_rtol: f64) -> Result<Self> {
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
        let mut packed = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut perm_sign = 1.0;
        let scale = packed.norm_max().max(f64::MIN_POSITIVE);
        let tol = pivot_rtol * scale;

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

    /// Solves `A·x = b` using the stored factors.
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
        // Forward substitution with permuted b: L·y = P·b.
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut s = b[self.perm[i]];
            for (j, yj) in y.iter().enumerate().take(i) {
                s -= self.packed[(i, j)] * yj;
            }
            y[i] = s;
        }
        // Back substitution: U·x = y.
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut s = y[i];
            for (j, xj) in x.iter().enumerate().take(n).skip(i + 1) {
                s -= self.packed[(i, j)] * xj;
            }
            x[i] = s / self.packed[(i, i)];
        }
        Ok(Vector(x))
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
