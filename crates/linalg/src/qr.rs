//! Householder QR factorization and least squares.
//!
//! QR is the robust path of OpenAPI's consistency check — factoring the full
//! `(d+2)×(d+1)` system and reading the residual — and the fitting engine for
//! the LIME baselines, which regress `ln(y_c/y_{c'})` on perturbed instances.

use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::vector::Vector;
use crate::Result;

/// Default relative tolerance for declaring an `R` diagonal entry zero when
/// estimating numerical rank.
const DEFAULT_RANK_RTOL: f64 = 1e-12;

/// Householder QR factorization of an `m × n` matrix with `m ≥ n`.
///
/// The reflectors are stored in packed form (below the diagonal of the work
/// matrix plus a separate `tau`-like normalization), so applying `Qᵀ` to a
/// right-hand side costs `O(m·n)` instead of forming `Q` explicitly.
#[derive(Debug, Clone)]
pub struct QrFactor {
    /// Packed Householder vectors (below diagonal, with implicit leading 1)
    /// and `R` (on and above the diagonal).
    packed: Matrix,
    /// Scaling factors `beta_k = 2 / (v_kᵀ v_k)` for each reflector; zero for
    /// a degenerate (identity) reflector.
    betas: Vec<f64>,
    rows: usize,
    cols: usize,
}

impl QrFactor {
    /// Factors a copy of `a` (requires `rows ≥ cols`).
    ///
    /// # Errors
    /// As [`QrFactor::from_matrix`].
    pub fn new(a: &Matrix) -> Result<Self> {
        Self::from_matrix(a.clone())
    }

    /// Factors `a` in place (requires `rows ≥ cols`): the packed factors
    /// overwrite it, so no copy of it is made.
    ///
    /// # Errors
    /// * [`LinalgError::DimensionMismatch`] when `rows < cols`.
    /// * [`LinalgError::NonFinite`] when the matrix contains NaN/inf.
    pub fn from_matrix(a: Matrix) -> Result<Self> {
        let (m, n) = (a.rows(), a.cols());
        if m < n {
            return Err(LinalgError::DimensionMismatch {
                op: "QrFactor::new (rows >= cols required)",
                expected: n,
                found: m,
            });
        }
        if !a.is_finite() {
            return Err(LinalgError::NonFinite {
                op: "QrFactor::new",
            });
        }
        let mut packed = a;
        let mut betas = vec![0.0; n];

        for k in 0..n {
            // Build the Householder reflector annihilating column k below
            // the diagonal.
            let mut norm2 = 0.0;
            for r in k..m {
                let v = packed[(r, k)];
                norm2 += v * v;
            }
            let norm = norm2.sqrt();
            if norm == 0.0 {
                // Column already zero: identity reflector.
                betas[k] = 0.0;
                continue;
            }
            let akk = packed[(k, k)];
            // Choose the sign that avoids cancellation.
            let alpha = if akk >= 0.0 { -norm } else { norm };
            // v = x - alpha * e1, stored with v[0] in place of a_kk.
            packed[(k, k)] = akk - alpha;
            let mut vtv = 0.0;
            for r in k..m {
                let v = packed[(r, k)];
                vtv += v * v;
            }
            if vtv == 0.0 {
                betas[k] = 0.0;
                packed[(k, k)] = alpha;
                continue;
            }
            let beta = 2.0 / vtv;
            betas[k] = beta;
            // Apply the reflector to the trailing columns.
            for c in k + 1..n {
                let mut dot = 0.0;
                for r in k..m {
                    dot += packed[(r, k)] * packed[(r, c)];
                }
                let s = beta * dot;
                for r in k..m {
                    let v = packed[(r, k)];
                    packed[(r, c)] -= s * v;
                }
            }
            // Normalize the reflector so v[0] = 1; it can then live below the
            // diagonal implicitly while R_kk = alpha takes the diagonal slot.
            // Rescaling v by 1/v0 requires beta -> beta * v0^2 to keep
            // H = I - beta v v^T unchanged.
            let v0 = packed[(k, k)];
            if v0 != 0.0 {
                for r in k + 1..m {
                    packed[(r, k)] /= v0;
                }
                // With v normalized (v0 = 1), beta becomes beta * v0².
                betas[k] = beta * v0 * v0;
            }
            packed[(k, k)] = alpha;
        }
        Ok(QrFactor {
            packed,
            betas,
            rows: m,
            cols: n,
        })
    }

    /// Applies `Qᵀ` to a right-hand side, in place.
    // Index loops mirror the textbook Householder update; iterators obscure
    // the triangular access pattern here.
    #[allow(clippy::needless_range_loop)]
    fn apply_qt(&self, b: &mut [f64]) {
        let (m, n) = (self.rows, self.cols);
        for k in 0..n {
            let beta = self.betas[k];
            if beta == 0.0 {
                continue;
            }
            // v has implicit v[0] = 1 at row k, stored entries below.
            let mut dot = b[k];
            for r in k + 1..m {
                dot += self.packed[(r, k)] * b[r];
            }
            let s = beta * dot;
            b[k] -= s;
            for r in k + 1..m {
                b[r] -= s * self.packed[(r, k)];
            }
        }
    }

    /// Numerical column rank: the number of `R` diagonal entries above
    /// `rtol * max |R_kk|`.
    pub fn rank_with_tolerance(&self, rtol: f64) -> usize {
        let mut maxd: f64 = 0.0;
        for k in 0..self.cols {
            maxd = maxd.max(self.packed[(k, k)].abs());
        }
        if maxd == 0.0 {
            return 0;
        }
        let tol = rtol * maxd;
        (0..self.cols)
            .filter(|&k| self.packed[(k, k)].abs() > tol)
            .count()
    }

    /// Numerical column rank with the default tolerance.
    pub fn rank(&self) -> usize {
        self.rank_with_tolerance(DEFAULT_RANK_RTOL)
    }

    /// Solves the least-squares problem `min ‖A·x − b‖₂`.
    ///
    /// Returns the minimizer `x̂` together with the residual 2-norm
    /// `‖A·x̂ − b‖₂` computed from the orthogonal transform (the norm of the
    /// trailing `m − n` entries of `Qᵀb`), which is exact up to round-off and
    /// free — OpenAPI's least-squares consistency check reads it directly.
    ///
    /// # Errors
    /// * [`LinalgError::DimensionMismatch`] when `b.len() != rows`.
    /// * [`LinalgError::RankDeficient`] when `R` is numerically singular.
    pub fn solve_lstsq(&self, b: &[f64]) -> Result<(Vector, f64)> {
        let (m, n) = (self.rows, self.cols);
        if b.len() != m {
            return Err(LinalgError::DimensionMismatch {
                op: "QrFactor::solve_lstsq",
                expected: m,
                found: b.len(),
            });
        }
        let rank = self.rank();
        if rank < n {
            return Err(LinalgError::RankDeficient { rank, cols: n });
        }
        let mut qtb = b.to_vec();
        self.apply_qt(&mut qtb);
        // Back substitution on R.
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut s = qtb[i];
            for (j, xj) in x.iter().enumerate().take(n).skip(i + 1) {
                s -= self.packed[(i, j)] * xj;
            }
            x[i] = s / self.packed[(i, i)];
        }
        let residual = qtb[n..m].iter().map(|v| v * v).sum::<f64>().sqrt();
        Ok((Vector(x), residual))
    }

    /// The `R` factor as a dense upper-triangular `n × n` matrix
    /// (top block of the packed storage).
    pub fn r(&self) -> Matrix {
        let n = self.cols;
        Matrix::from_fn(n, n, |r, c| if c >= r { self.packed[(r, c)] } else { 0.0 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_system_has_zero_residual() {
        // Square, well-conditioned: least squares equals the exact solution.
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]).unwrap();
        let qr = QrFactor::new(&a).unwrap();
        let (x, res) = qr.solve_lstsq(&[3.0, 5.0]).unwrap();
        assert!((x[0] - 0.8).abs() < 1e-12);
        assert!((x[1] - 1.4).abs() < 1e-12);
        assert!(res < 1e-12);
    }

    #[test]
    fn overdetermined_consistent_system() {
        // Rows are (x_i, 1) and rhs = 2*x_i + 3: consistent despite being 4x2.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 1.0], &[2.0, 1.0], &[5.0, 1.0]]).unwrap();
        let b = [3.0, 5.0, 7.0, 13.0];
        let (x, res) = QrFactor::new(&a).unwrap().solve_lstsq(&b).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
        assert!(res < 1e-12, "consistent system must have ~zero residual");
    }

    #[test]
    fn overdetermined_inconsistent_system_reports_residual() {
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]).unwrap();
        let b = [1.0, 1.0, 0.0]; // inconsistent: x=1, y=1, but x+y=0
        let (x, res) = QrFactor::new(&a).unwrap().solve_lstsq(&b).unwrap();
        // The LS solution of this classic system is x = y = 1/3.
        assert!((x[0] - 1.0 / 3.0).abs() < 1e-12);
        assert!((x[1] - 1.0 / 3.0).abs() < 1e-12);
        // Residual vector is (2/3, 2/3, -2/3), norm = 2/sqrt(3).
        assert!((res - 2.0 / 3f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn residual_matches_explicit_computation() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, -1.0], &[0.5, 0.5], &[2.0, 2.0]]).unwrap();
        let b = [1.0, 2.0, 3.0, 4.0];
        let (x, res) = QrFactor::new(&a).unwrap().solve_lstsq(&b).unwrap();
        let ax = a.matvec(x.as_slice()).unwrap();
        let explicit = ax
            .iter()
            .zip(b.iter())
            .map(|(p, q)| (p - q) * (p - q))
            .sum::<f64>()
            .sqrt();
        assert!((res - explicit).abs() < 1e-10);
    }

    #[test]
    fn rank_detects_dependent_columns() {
        let a = Matrix::from_rows(&[
            &[1.0, 2.0, 3.0],
            &[2.0, 4.0, 6.0],
            &[0.0, 1.0, 1.0],
            &[1.0, 0.0, 1.0],
        ])
        .unwrap(); // col3 = col1 + col2
        let qr = QrFactor::new(&a).unwrap();
        assert_eq!(qr.rank(), 2);
        assert!(matches!(
            qr.solve_lstsq(&[1.0; 4]),
            Err(LinalgError::RankDeficient { rank: 2, cols: 3 })
        ));
    }

    #[test]
    fn rejects_underdetermined_shapes() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            QrFactor::new(&a),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn rejects_non_finite() {
        let mut a = Matrix::identity(2);
        a[(1, 0)] = f64::INFINITY;
        assert!(matches!(
            QrFactor::new(&a),
            Err(LinalgError::NonFinite { .. })
        ));
    }

    #[test]
    fn r_factor_is_upper_triangular_and_reproduces_norms() {
        let a = Matrix::from_rows(&[&[3.0, 1.0], &[4.0, 2.0], &[0.0, 5.0]]).unwrap();
        let qr = QrFactor::new(&a).unwrap();
        let r = qr.r();
        assert_eq!(r.rows(), 2);
        assert_eq!(r[(1, 0)], 0.0);
        // |R_00| must equal the norm of A's first column (5.0) since Q is
        // orthogonal.
        assert!((r[(0, 0)].abs() - 5.0).abs() < 1e-12);
        // Frobenius norm is preserved by orthogonal transforms.
        assert!((r.norm_frobenius() - a.norm_frobenius()).abs() < 1e-10);
    }

    #[test]
    fn handles_zero_column_gracefully() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[0.0, 2.0], &[0.0, 3.0]]).unwrap();
        let qr = QrFactor::new(&a).unwrap();
        assert_eq!(qr.rank(), 1);
    }

    #[test]
    fn moderately_sized_random_system_round_trips() {
        // Deterministic pseudo-random matrix; checks numerical health at the
        // d+2 x d+1 shape OpenAPI uses (scaled down).
        let (m, n) = (34, 33);
        let a = Matrix::from_fn(m, n, |r, c| {
            let h = ((r * 2654435761usize) ^ (c * 40503)) % 1000;
            h as f64 / 500.0 - 1.0 + if r == c { 3.0 } else { 0.0 }
        });
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).cos()).collect();
        let b = a.matvec(&x_true).unwrap();
        let (x, res) = QrFactor::new(&a)
            .unwrap()
            .solve_lstsq(b.as_slice())
            .unwrap();
        assert!(res < 1e-8, "constructed-consistent system residual {res}");
        for i in 0..n {
            assert!((x[i] - x_true[i]).abs() < 1e-8);
        }
    }
}
