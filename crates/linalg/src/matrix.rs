//! Dense row-major `f64` matrix.

use crate::error::LinalgError;
use crate::vector::Vector;
use crate::Result;
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense matrix stored in row-major order.
///
/// Sized for the workloads of this repository: coefficient matrices of the
/// interpretation equation systems (up to `(d+2)×(d+1)` with `d = 784`),
/// neural-network weight matrices, and logistic-regression coefficient
/// blocks. Row-major layout keeps equation assembly (one perturbed instance
/// per row) allocation-free and cache-friendly.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a row-major data vector.
    ///
    /// # Errors
    /// [`LinalgError::DimensionMismatch`] when `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::DimensionMismatch {
                op: "Matrix::from_vec",
                expected: rows * cols,
                found: data.len(),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Builds a matrix from row slices; every row must have equal length.
    ///
    /// # Errors
    /// [`LinalgError::Empty`] when `rows` is empty, or
    /// [`LinalgError::DimensionMismatch`] for ragged input.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self> {
        let first = rows.first().ok_or(LinalgError::Empty {
            op: "Matrix::from_rows",
        })?;
        let cols = first.len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            if row.len() != cols {
                return Err(LinalgError::DimensionMismatch {
                    op: "Matrix::from_rows",
                    expected: cols,
                    found: row.len(),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Builds a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `true` when the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow the raw row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Borrow the raw row-major data mutably (used by optimizers that treat
    /// parameter tensors as flat slices).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrow row `r` as a slice.
    ///
    /// # Panics
    /// Panics when `r >= rows`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row {r} out of range ({} rows)", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Borrow row `r` mutably.
    ///
    /// # Panics
    /// Panics when `r >= rows`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row {r} out of range ({} rows)", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a new [`Vector`].
    ///
    /// # Panics
    /// Panics when `c >= cols`.
    pub fn col(&self, c: usize) -> Vector {
        assert!(c < self.cols, "col {c} out of range ({} cols)", self.cols);
        Vector((0..self.rows).map(|r| self[(r, c)]).collect())
    }

    /// Overwrites row `r` with `values`.
    ///
    /// # Errors
    /// [`LinalgError::DimensionMismatch`] when `values.len() != cols`.
    ///
    /// # Panics
    /// Panics when `r >= rows`.
    pub fn set_row(&mut self, r: usize, values: &[f64]) -> Result<()> {
        if values.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "Matrix::set_row",
                expected: self.cols,
                found: values.len(),
            });
        }
        self.row_mut(r).copy_from_slice(values);
        Ok(())
    }

    /// Returns the transpose as a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t[(c, r)] = self[(r, c)];
            }
        }
        t
    }

    /// Matrix–vector product `A·x`.
    ///
    /// Summation-order contract: output `r` equals
    /// `row(r).iter().zip(x).map(|(a, b)| a * b).sum::<f64>()` bit for bit
    /// — one accumulator that starts at `−0.0` and adds the row's products
    /// `a_rj · x_j` left to right. Four rows run per pass, sharing each
    /// `x_j` load, so four independent add chains hide the add latency;
    /// leftover rows (and `cols == 0`) take the one-row expression itself.
    ///
    /// # Errors
    /// [`LinalgError::DimensionMismatch`] when `x.len() != cols`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vector> {
        if x.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "Matrix::matvec",
                expected: self.cols,
                found: x.len(),
            });
        }
        let mut out = Vec::with_capacity(self.rows);
        if self.cols > 0 {
            for rows in self.data.chunks_exact(4 * self.cols) {
                let (r0, rest) = rows.split_at(self.cols);
                let (r1, rest) = rest.split_at(self.cols);
                let (r2, r3) = rest.split_at(self.cols);
                let (mut a0, mut a1, mut a2, mut a3) = (-0.0f64, -0.0f64, -0.0f64, -0.0f64);
                for ((((&xj, &w0), &w1), &w2), &w3) in x.iter().zip(r0).zip(r1).zip(r2).zip(r3) {
                    a0 += w0 * xj;
                    a1 += w1 * xj;
                    a2 += w2 * xj;
                    a3 += w3 * xj;
                }
                out.extend_from_slice(&[a0, a1, a2, a3]);
            }
        }
        for r in out.len()..self.rows {
            let row = self.row(r);
            out.push(row.iter().zip(x.iter()).map(|(a, b)| a * b).sum());
        }
        Ok(Vector(out))
    }

    /// Transposed matrix–vector product `Aᵀ·x` without forming `Aᵀ`.
    ///
    /// # Errors
    /// [`LinalgError::DimensionMismatch`] when `x.len() != rows`.
    #[allow(clippy::needless_range_loop)] // row-index loop matches the math
    pub fn matvec_t(&self, x: &[f64]) -> Result<Vector> {
        if x.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "Matrix::matvec_t",
                expected: self.rows,
                found: x.len(),
            });
        }
        let mut out = vec![0.0; self.cols];
        for r in 0..self.rows {
            let row = self.row(r);
            let xr = x[r];
            if xr != 0.0 {
                for (o, a) in out.iter_mut().zip(row.iter()) {
                    *o += xr * a;
                }
            }
        }
        Ok(Vector(out))
    }

    /// Matrix–matrix product `A·B`.
    ///
    /// Uses the i-k-j loop order so the inner loop streams rows of `B`;
    /// at the sizes used here (≤ ~800) this is within a small factor of
    /// blocked implementations and keeps the code obvious.
    ///
    /// # Errors
    /// [`LinalgError::DimensionMismatch`] when `self.cols != rhs.rows`.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "Matrix::matmul",
                expected: self.cols,
                found: rhs.rows,
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                if aik == 0.0 {
                    continue;
                }
                let brow = rhs.row(k);
                let orow = out.row_mut(i);
                for (o, b) in orow.iter_mut().zip(brow.iter()) {
                    *o += aik * b;
                }
            }
        }
        Ok(out)
    }

    /// Element-wise sum `A + B`.
    ///
    /// # Errors
    /// [`LinalgError::DimensionMismatch`] on shape mismatch.
    pub fn add(&self, rhs: &Matrix) -> Result<Matrix> {
        self.zip_with(rhs, "Matrix::add", |a, b| a + b)
    }

    /// Element-wise difference `A − B`.
    ///
    /// # Errors
    /// [`LinalgError::DimensionMismatch`] on shape mismatch.
    pub fn sub(&self, rhs: &Matrix) -> Result<Matrix> {
        self.zip_with(rhs, "Matrix::sub", |a, b| a - b)
    }

    fn zip_with(
        &self,
        rhs: &Matrix,
        op: &'static str,
        f: impl Fn(f64, f64) -> f64,
    ) -> Result<Matrix> {
        if self.rows != rhs.rows || self.cols != rhs.cols {
            return Err(LinalgError::DimensionMismatch {
                op,
                expected: self.rows * self.cols,
                found: rhs.rows * rhs.cols,
            });
        }
        let data = self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(a, b)| f(*a, *b))
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Multiplies every entry by `alpha`, in place.
    pub fn scale(&mut self, alpha: f64) {
        for a in &mut self.data {
            *a *= alpha;
        }
    }

    /// Frobenius norm `sqrt(Σ a_ij²)`.
    pub fn norm_frobenius(&self) -> f64 {
        self.data.iter().map(|a| a * a).sum::<f64>().sqrt()
    }

    /// Maximum absolute entry (0 for an empty matrix).
    pub fn norm_max(&self) -> f64 {
        self.data.iter().fold(0.0, |m, a| m.max(a.abs()))
    }

    /// `true` when every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|a| a.is_finite())
    }

    /// Swaps rows `a` and `b` in place.
    ///
    /// # Panics
    /// Panics when either index is out of range.
    pub fn swap_rows(&mut self, a: usize, b: usize) {
        assert!(a < self.rows && b < self.rows, "swap_rows out of range");
        if a == b {
            return;
        }
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let (head, tail) = self.data.split_at_mut(hi * self.cols);
        head[lo * self.cols..(lo + 1) * self.cols].swap_with_slice(&mut tail[..self.cols]);
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}×{} [", self.rows, self.cols)?;
        let max_rows = 8usize;
        for r in 0..self.rows.min(max_rows) {
            write!(f, "  [")?;
            for c in 0..self.cols.min(8) {
                if c > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:+.4e}", self[(r, c)])?;
            }
            if self.cols > 8 {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > max_rows {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

/// Rows per tile of a [`TiledMatrix`].
const TILE_ROWS: usize = 16;

/// A matrix repacked for [`TiledMatrix::matvec`]: its rows in tiles of 16,
/// each tile stored column-major, so entry `(r, j)` of tile `t` sits at
/// `16·t·cols + 16·j + r`. Rows past the last full tile stay row-major.
/// Pack a matrix once and multiply by it many times: packing copies every
/// entry.
#[derive(Debug, Clone)]
pub struct TiledMatrix {
    rows: usize,
    cols: usize,
    /// The full tiles, back to back.
    tiles: Vec<f64>,
    /// Rows past the last full tile, row-major.
    rest: Vec<f64>,
}

impl TiledMatrix {
    /// Packs `a`.
    pub fn new(a: &Matrix) -> Self {
        let split = a.rows / TILE_ROWS * TILE_ROWS * a.cols;
        let mut tiles = Vec::with_capacity(split);
        for t in (0..split).step_by(TILE_ROWS * a.cols.max(1)) {
            for j in 0..a.cols {
                tiles.extend((0..TILE_ROWS).map(|r| a.data[t + r * a.cols + j]));
            }
        }
        TiledMatrix {
            rows: a.rows,
            cols: a.cols,
            tiles,
            rest: a.data[split..].to_vec(),
        }
    }

    /// Matrix–vector product `A·x`, bit for bit what [`Matrix::matvec`]
    /// returns for the packed matrix.
    ///
    /// Summation-order contract, as [`Matrix::matvec`]'s: output `r` has
    /// one accumulator that starts at `−0.0` and adds the row's products
    /// `a_rj · x_j` left to right. A tile's sixteen accumulators advance
    /// together, one column at a time; since the tile is column-major, each
    /// step reads sixteen adjacent weights and one `x_j`, which the
    /// compiler turns into vector multiplies and adds across rows. Rows
    /// past the last full tile take `matvec`'s one-row expression.
    ///
    /// # Errors
    /// [`LinalgError::DimensionMismatch`] when `x.len() != cols`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vector> {
        if x.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "TiledMatrix::matvec",
                expected: self.cols,
                found: x.len(),
            });
        }
        let mut out = Vec::with_capacity(self.rows);
        if self.cols > 0 {
            for tile in self.tiles.chunks_exact(TILE_ROWS * self.cols) {
                let mut acc = [-0.0f64; TILE_ROWS];
                for (w, &xj) in tile.chunks_exact(TILE_ROWS).zip(x) {
                    for (a, &wr) in acc.iter_mut().zip(w) {
                        *a += wr * xj;
                    }
                }
                out.extend_from_slice(&acc);
            }
        }
        for r in 0..self.rows - out.len() {
            let row = &self.rest[r * self.cols..(r + 1) * self.cols];
            out.push(row.iter().zip(x.iter()).map(|(a, b)| a * b).sum());
        }
        Ok(Vector(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap()
    }

    #[test]
    fn construction_and_shape() {
        let m = sample();
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 2);
        assert!(!m.is_square());
        assert_eq!(m[(2, 1)], 6.0);
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let err = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]);
        assert!(matches!(err, Err(LinalgError::DimensionMismatch { .. })));
        assert!(matches!(
            Matrix::from_rows(&[]),
            Err(LinalgError::Empty { .. })
        ));
    }

    #[test]
    fn identity_matvec_is_identity() {
        let i = Matrix::identity(3);
        let x = [1.0, 2.0, 3.0];
        assert_eq!(i.matvec(&x).unwrap().as_slice(), &x);
    }

    #[test]
    fn matvec_known_product() {
        let m = sample();
        let y = m.matvec(&[1.0, 1.0]).unwrap();
        assert_eq!(y.as_slice(), &[3.0, 7.0, 11.0]);
    }

    /// Both matvecs round each product before adding it: with `e = 1 + ε`
    /// and `f = 1 − ε`, the row `[−1, e]` times `[1, f]` sums to `0.0`,
    /// where a fused multiply-add gives `−1 + e·f = 2⁻¹⁰⁴`. The 21 rows fill
    /// a 16-row tile, a four-row pass and the one-row loop.
    #[test]
    fn matvec_rounds_each_product_before_adding() {
        use std::hint::black_box;
        let row = [black_box(-1.0), black_box(1.0 + f64::EPSILON)];
        let a = Matrix::from_fn(21, 2, |_, c| row[c]);
        let x = [black_box(1.0), black_box(1.0 - f64::EPSILON)];
        for (what, y) in [
            ("Matrix", a.matvec(&x)),
            ("TiledMatrix", TiledMatrix::new(&a).matvec(&x)),
        ] {
            for (r, v) in y.unwrap().iter().enumerate() {
                assert_eq!(v.to_bits(), 0.0f64.to_bits(), "{what} row {r}");
            }
        }
    }

    #[test]
    fn matvec_t_matches_explicit_transpose() {
        let m = sample();
        let x = [1.0, 0.5, -1.0];
        let via_t = m.transpose().matvec(&x).unwrap();
        let direct = m.matvec_t(&x).unwrap();
        assert_eq!(via_t, direct);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_dimension_check() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn transpose_round_trip() {
        let m = sample();
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn row_and_col_access() {
        let m = sample();
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.col(0).as_slice(), &[1.0, 3.0, 5.0]);
    }

    #[test]
    fn set_row_validates_width() {
        let mut m = sample();
        assert!(m.set_row(0, &[9.0]).is_err());
        m.set_row(0, &[9.0, 8.0]).unwrap();
        assert_eq!(m.row(0), &[9.0, 8.0]);
    }

    #[test]
    fn swap_rows_both_orders() {
        let mut m = sample();
        m.swap_rows(0, 2);
        assert_eq!(m.row(0), &[5.0, 6.0]);
        assert_eq!(m.row(2), &[1.0, 2.0]);
        m.swap_rows(2, 0); // reverse order
        assert_eq!(m.row(0), &[1.0, 2.0]);
        m.swap_rows(1, 1); // no-op
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn add_sub_and_scale() {
        let a = Matrix::identity(2);
        let mut b = Matrix::identity(2);
        b.scale(3.0);
        let sum = a.add(&b).unwrap();
        assert_eq!(sum[(0, 0)], 4.0);
        let diff = sum.sub(&a).unwrap();
        assert_eq!(diff, b);
    }

    #[test]
    fn norms_and_finiteness() {
        let m = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 4.0]]).unwrap();
        assert_eq!(m.norm_frobenius(), 5.0);
        assert_eq!(m.norm_max(), 4.0);
        assert!(m.is_finite());
        let mut bad = m.clone();
        bad[(0, 0)] = f64::NAN;
        assert!(!bad.is_finite());
    }

    #[test]
    fn display_is_bounded_for_large_matrices() {
        let m = Matrix::zeros(100, 100);
        let s = format!("{m}");
        assert!(s.lines().count() < 15);
    }
}
