//! Batched probe/membership kernels behind the [`Backend`] seam.
//!
//! PR 5's `net_throughput` bench showed the warm serving path is
//! cache-bound: every request pays exactly one Theorem-2 membership scan,
//! and that scan is per-region row math. This module restructures the scan
//! into batched, cache-blocked kernels over a *contiguous* row-major
//! boundary matrix ([`RowMatrix`]), so one pass evaluates every cached
//! boundary of a class instead of chasing one heap-allocated weight vector
//! per region.
//!
//! Two implementations share the [`Backend`] trait:
//!
//! * [`ScalarBackend`] — the bit-identity oracle. One row at a time, each
//!   dot product accumulated strictly left-to-right. Every other backend
//!   must reproduce its results bit for bit.
//! * [`BlockedBackend`] — the fast path. Processes [`LANES`] rows together
//!   with one independent accumulator chain per row. Per-row summation
//!   order is *unchanged* (still strictly left-to-right in `j`), so results
//!   stay bit-identical to the scalar reference; the speedup comes from
//!   instruction-level parallelism across rows (the scalar loop is bound by
//!   the latency of one serial FP-add chain), from reusing each probe
//!   coordinate `x[j]` across all lanes, and from the contiguity of the
//!   underlying [`RowMatrix`].
//!
//! The trait is deliberately small and object-safe — a `dyn Backend` is
//! threaded through the cache and serving tiers, leaving the seam open for
//! a GPU/accelerator implementation later (the CubeCL shape: algorithms
//! written against launchable kernels, specialized per backend).

use crate::matrix::Matrix;
use std::fmt::Debug;
use std::ops::Range;
use std::sync::Arc;

/// Rows processed together by [`BlockedBackend`] (one accumulator chain
/// each). Eight chains are enough to hide a 4-cycle FP-add latency on
/// every mainstream core without spilling accumulators to the stack.
pub const LANES: usize = 8;

/// Probes processed together by [`BlockedBackend`]'s multi-probe pass
/// ([`Backend::boundary_eval_batch`]). Transposing this many probes puts
/// their `j`-th coordinates side by side, so the inner loop runs across
/// probes — independent accumulators the compiler can vectorize — while
/// each matrix row is streamed exactly once per probe block instead of
/// once per probe.
pub const PROBE_LANES: usize = 8;

/// A growable dense row-major `f64` matrix with a fixed column count.
///
/// This is the storage format the kernels operate on: region boundary
/// rows are packed back to back, so a membership pass streams one
/// contiguous allocation instead of pointer-chasing per-region vectors.
/// Unlike [`Matrix`] it supports cheap row append and range removal,
/// which the region cache uses to maintain the pack incrementally across
/// inserts and evictions.
#[derive(Debug, Clone, PartialEq)]
pub struct RowMatrix {
    cols: usize,
    data: Vec<f64>,
}

impl RowMatrix {
    /// An empty matrix whose rows will have `cols` columns (`cols ≥ 1`).
    ///
    /// # Panics
    /// When `cols == 0`.
    pub fn new(cols: usize) -> Self {
        Self::with_capacity(cols, 0)
    }

    /// An empty matrix of `cols` columns with room for `rows` rows, so
    /// pushing that many allocates once.
    ///
    /// # Panics
    /// When `cols == 0`.
    pub fn with_capacity(cols: usize, rows: usize) -> Self {
        assert!(cols > 0, "RowMatrix requires at least one column");
        RowMatrix {
            cols,
            data: Vec::with_capacity(cols * rows),
        }
    }

    /// Number of rows currently stored.
    pub fn rows(&self) -> usize {
        self.data.len() / self.cols
    }

    /// The fixed column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Whether the matrix holds no rows.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow row `r`.
    ///
    /// # Panics
    /// When `r` is out of range.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(
            r < self.rows(),
            "row {r} out of range ({} rows)",
            self.rows()
        );
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Appends one row.
    ///
    /// # Panics
    /// When `row.len() != self.cols()`.
    pub fn push_row(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.cols, "row length must equal cols");
        self.data.extend_from_slice(row);
    }

    /// Removes the row range `rows`, shifting later rows down (the
    /// relative order of the survivors is preserved).
    ///
    /// # Panics
    /// When the range is out of bounds or inverted.
    pub fn remove_rows(&mut self, rows: Range<usize>) {
        assert!(rows.start <= rows.end && rows.end <= self.rows());
        self.data
            .drain(rows.start * self.cols..rows.end * self.cols);
    }

    /// The packed row-major storage (`rows × cols` values).
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Drops every row (the column count is kept).
    pub fn clear(&mut self) {
        self.data.clear();
    }
}

/// A contiguous run of rows inside a [`RowMatrix`] that belong to one
/// logical unit (one cached region's pairwise contrasts). Membership
/// verdicts are per group: a group passes only when *every* one of its
/// rows passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowGroup {
    /// First row of the group (relative to the evaluated row range).
    pub start: usize,
    /// Number of rows in the group.
    pub len: usize,
}

/// The batched-kernel seam between the linear-algebra substrate and the
/// cache/serving tiers.
///
/// A backend provides three kernels over contiguous row data: batched
/// boundary evaluation (`y = W·x + b` for a range of packed rows), batched
/// Theorem-2 membership verdicts, and the blocked held-out residual sweep
/// of Algorithm 1's consistency check (`openapi_core`'s
/// `ConsistencySolver::check`). [`ScalarBackend`] defines the
/// reference semantics; every backend must be bit-identical to it (same
/// per-row accumulation order — speed must come from parallelism *across*
/// rows, never from reassociating a row's sum).
///
/// ```
/// use openapi_linalg::kernel::{default_backend, RowGroup, RowMatrix};
///
/// // Two cached boundary rows for one region (two pairwise contrasts).
/// let mut w = RowMatrix::new(2);
/// w.push_row(&[1.0, -1.0]);
/// w.push_row(&[0.5, 2.0]);
/// let bias = [0.25, -0.5];
///
/// // Evaluate both boundaries at the probe x in one pass.
/// let backend = default_backend();
/// let mut y = Vec::new();
/// backend.boundary_eval(&w, &bias, &[2.0, 1.0], 0..2, &mut y);
/// assert_eq!(y, vec![2.0 - 1.0 + 0.25, 1.0 + 2.0 - 0.5]);
///
/// // The region explains the probe iff every row is within tolerance of
/// // its observed log-probability ratio.
/// let groups = [RowGroup { start: 0, len: 2 }];
/// let mut verdicts = Vec::new();
/// backend.membership_verdicts(&y, &[1.25, 2.5], 1e-9, &groups, &mut verdicts);
/// assert_eq!(verdicts, vec![true]);
/// ```
pub trait Backend: Debug + Send + Sync {
    /// A short stable identifier (used in benches and logs).
    fn name(&self) -> &'static str;

    /// Batched boundary evaluation: for each packed row `r` in `rows`,
    /// computes `y[r - rows.start] = Σⱼ w[r][j]·x[j] + bias[r]`, clearing
    /// and filling `y` (`y.len() == rows.len()` on return).
    ///
    /// `bias` is indexed by *absolute* row, parallel to `w`. The per-row
    /// dot product must accumulate strictly left-to-right in `j` — that
    /// order is the contract that keeps backends bit-identical.
    ///
    /// # Panics
    /// When `rows` is out of range, `x.len() != w.cols()`, or `bias` is
    /// shorter than `rows.end`.
    fn boundary_eval(
        &self,
        w: &RowMatrix,
        bias: &[f64],
        x: &[f64],
        rows: Range<usize>,
        y: &mut Vec<f64>,
    );

    /// Multi-probe boundary evaluation: evaluates the packed rows `rows`
    /// for *every* probe in `xs`, clearing and filling `y` probe-major —
    /// `y[p·rows.len() + i]` is probe `p`'s value for row
    /// `rows.start + i` (`y.len() == xs.len()·rows.len()` on return).
    ///
    /// Every `(probe, row)` value must be bit-identical to what
    /// [`Backend::boundary_eval`] produces for that probe alone: batching
    /// may reuse the matrix across probes, but each per-row dot product
    /// still accumulates strictly left-to-right in `j`. This default body
    /// is the reference semantics — one single-probe pass per probe.
    ///
    /// # Panics
    /// As [`Backend::boundary_eval`], for each probe in `xs`.
    fn boundary_eval_batch(
        &self,
        w: &RowMatrix,
        bias: &[f64],
        xs: &[&[f64]],
        rows: Range<usize>,
        y: &mut Vec<f64>,
    ) {
        let mut tmp = Vec::new();
        y.clear();
        y.reserve(xs.len() * rows.len());
        for x in xs {
            self.boundary_eval(w, bias, x, rows.clone(), &mut tmp);
            y.extend_from_slice(&tmp);
        }
    }

    /// Batched Theorem-2 membership verdicts. Row `r` passes when
    /// `|y[r] − targets[r]| ≤ rtol·max(1, |targets[r]|)`; a group's
    /// verdict is `true` when the group is non-empty and every one of its
    /// rows passes. A NaN target fails its row (the caller uses NaN as the
    /// "contrast class out of range" sentinel). Clears and fills `out`
    /// (`out.len() == groups.len()` on return).
    ///
    /// The comparison is per-row exact (no accumulation), so this default
    /// body is shared by every backend.
    ///
    /// # Panics
    /// When `y.len() != targets.len()` or a group is out of range.
    fn membership_verdicts(
        &self,
        y: &[f64],
        targets: &[f64],
        rtol: f64,
        groups: &[RowGroup],
        out: &mut Vec<bool>,
    ) {
        assert_eq!(y.len(), targets.len(), "y and targets must align");
        out.clear();
        out.reserve(groups.len());
        for g in groups {
            let rows = g.start..g.start + g.len;
            let pass = g.len > 0
                && y[rows.clone()]
                    .iter()
                    .zip(&targets[rows])
                    .all(|(&yi, &ti)| (yi - ti).abs() <= rtol * ti.abs().max(1.0));
            out.push(pass);
        }
    }

    /// Blocked residual sweep of the consistency check: the worst
    /// `|a.row(r)·x − b[r]|` over rows `from_row..a.rows()` (0.0 when the
    /// range is empty). Per-row dot products accumulate strictly
    /// left-to-right; the max folds in ascending row order.
    ///
    /// # Panics
    /// When `from_row > a.rows()`, `x.len() != a.cols()`, or
    /// `b.len() != a.rows()`.
    fn residual_inf(&self, a: &Matrix, from_row: usize, x: &[f64], b: &[f64]) -> f64;
}

fn check_eval_args(w: &RowMatrix, bias: &[f64], x: &[f64], rows: &Range<usize>) {
    assert!(
        rows.start <= rows.end && rows.end <= w.rows(),
        "row range out of bounds"
    );
    assert_eq!(x.len(), w.cols(), "probe dimension must equal cols");
    assert!(bias.len() >= rows.end, "bias must cover the evaluated rows");
}

fn check_residual_args(a: &Matrix, from_row: usize, x: &[f64], b: &[f64]) {
    assert!(from_row <= a.rows(), "from_row out of range");
    assert_eq!(x.len(), a.cols(), "x length must equal cols");
    assert_eq!(b.len(), a.rows(), "b length must equal rows");
}

/// One row at a time, strictly sequential — the bit-identity oracle every
/// other backend is tested against.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScalarBackend;

/// The per-row reference dot product: a single left-to-right chain.
#[inline]
fn row_dot(row: &[f64], x: &[f64]) -> f64 {
    let mut acc = 0.0f64;
    for (w, xv) in row.iter().zip(x) {
        acc += w * xv;
    }
    acc
}

impl Backend for ScalarBackend {
    fn name(&self) -> &'static str {
        "scalar"
    }

    fn boundary_eval(
        &self,
        w: &RowMatrix,
        bias: &[f64],
        x: &[f64],
        rows: Range<usize>,
        y: &mut Vec<f64>,
    ) {
        check_eval_args(w, bias, x, &rows);
        y.clear();
        y.reserve(rows.len());
        for r in rows {
            y.push(row_dot(w.row(r), x) + bias[r]);
        }
    }

    fn residual_inf(&self, a: &Matrix, from_row: usize, x: &[f64], b: &[f64]) -> f64 {
        check_residual_args(a, from_row, x, b);
        let mut worst = 0.0f64;
        for (r, &bv) in b.iter().enumerate().skip(from_row) {
            worst = worst.max((row_dot(a.row(r), x) - bv).abs());
        }
        worst
    }
}

/// [`LANES`] rows at a time, one independent accumulator chain per row —
/// bit-identical to [`ScalarBackend`] (identical per-row summation order)
/// but no longer bound by a single serial FP-add chain.
#[derive(Debug, Clone, Copy, Default)]
pub struct BlockedBackend;

/// Evaluates [`LANES`] consecutive rows of packed row-major `data`
/// starting at row `r0`, returning `row(r0+l) · x` per lane. Each lane's
/// sum lives in its own named accumulator and folds strictly
/// left-to-right in `j` — exactly the scalar reference order — so the
/// blocking is across *rows* only. The lock-step `zip` walk gives the
/// compiler eight independent FP chains with no bounds checks to hoist.
#[inline]
fn lane_dots(data: &[f64], cols: usize, r0: usize, x: &[f64]) -> [f64; LANES] {
    let base = r0 * cols;
    let rows: [&[f64]; LANES] =
        std::array::from_fn(|l| &data[base + l * cols..base + (l + 1) * cols]);
    let (mut a0, mut a1, mut a2, mut a3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    let (mut a4, mut a5, mut a6, mut a7) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for ((((((((&xj, &w0), &w1), &w2), &w3), &w4), &w5), &w6), &w7) in x
        .iter()
        .zip(rows[0])
        .zip(rows[1])
        .zip(rows[2])
        .zip(rows[3])
        .zip(rows[4])
        .zip(rows[5])
        .zip(rows[6])
        .zip(rows[7])
    {
        a0 += w0 * xj;
        a1 += w1 * xj;
        a2 += w2 * xj;
        a3 += w3 * xj;
        a4 += w4 * xj;
        a5 += w5 * xj;
        a6 += w6 * xj;
        a7 += w7 * xj;
    }
    [a0, a1, a2, a3, a4, a5, a6, a7]
}

impl Backend for BlockedBackend {
    fn name(&self) -> &'static str {
        "blocked"
    }

    fn boundary_eval(
        &self,
        w: &RowMatrix,
        bias: &[f64],
        x: &[f64],
        rows: Range<usize>,
        y: &mut Vec<f64>,
    ) {
        check_eval_args(w, bias, x, &rows);
        y.clear();
        y.reserve(rows.len());
        let (data, cols) = (w.as_slice(), w.cols());
        let mut r = rows.start;
        while r + LANES <= rows.end {
            let acc = lane_dots(data, cols, r, x);
            for (l, a) in acc.into_iter().enumerate() {
                y.push(a + bias[r + l]);
            }
            r += LANES;
        }
        for (r, &bv) in bias.iter().enumerate().take(rows.end).skip(r) {
            y.push(row_dot(w.row(r), x) + bv);
        }
    }

    fn boundary_eval_batch(
        &self,
        w: &RowMatrix,
        bias: &[f64],
        xs: &[&[f64]],
        rows: Range<usize>,
        y: &mut Vec<f64>,
    ) {
        for x in xs {
            check_eval_args(w, bias, x, &rows);
        }
        let n = rows.len();
        y.clear();
        y.resize(xs.len() * n, 0.0);
        let (data, cols) = (w.as_slice(), w.cols());
        // Transposed probe block: xt[j·PROBE_LANES + p] = xs[p0+p][j], so
        // the j-th coordinates of the block's probes sit side by side and
        // the inner loop below vectorizes across probes. Each probe's sum
        // still folds j left-to-right — the scalar reference order.
        let mut xt = vec![0.0f64; cols * PROBE_LANES];
        let mut p0 = 0;
        while p0 + PROBE_LANES <= xs.len() {
            for p in 0..PROBE_LANES {
                for (j, &v) in xs[p0 + p].iter().enumerate() {
                    xt[j * PROBE_LANES + p] = v;
                }
            }
            for (i, r) in rows.clone().enumerate() {
                let row = &data[r * cols..(r + 1) * cols];
                let mut acc = [0.0f64; PROBE_LANES];
                for (wj, xtj) in row.iter().zip(xt.chunks_exact(PROBE_LANES)) {
                    for (a, xp) in acc.iter_mut().zip(xtj) {
                        *a += wj * xp;
                    }
                }
                for (p, a) in acc.into_iter().enumerate() {
                    y[(p0 + p) * n + i] = a + bias[r];
                }
            }
            p0 += PROBE_LANES;
        }
        // Tail probes run the single-probe blocked pass (bit-identical by
        // the same contract).
        let mut tmp = Vec::new();
        for p in p0..xs.len() {
            self.boundary_eval(w, bias, xs[p], rows.clone(), &mut tmp);
            y[p * n..(p + 1) * n].copy_from_slice(&tmp);
        }
    }

    fn residual_inf(&self, a: &Matrix, from_row: usize, x: &[f64], b: &[f64]) -> f64 {
        check_residual_args(a, from_row, x, b);
        let (data, cols) = (a.as_slice(), a.cols());
        let mut worst = 0.0f64;
        let mut r = from_row;
        // Degenerate (but legal) matrices with zero columns have no packed
        // data to block over; the scalar tail below handles them.
        while cols > 0 && r + LANES <= a.rows() {
            let acc = lane_dots(data, cols, r, x);
            // Fold in ascending row order, matching the scalar reference.
            for (l, pred) in acc.into_iter().enumerate() {
                worst = worst.max((pred - b[r + l]).abs());
            }
            r += LANES;
        }
        for (r, &bv) in b.iter().enumerate().skip(r) {
            worst = worst.max((row_dot(a.row(r), x) - bv).abs());
        }
        worst
    }
}

/// The backend new caches and services use unless configured otherwise:
/// the blocked implementation (bit-identical to scalar, several times
/// faster on wide packs).
pub fn default_backend() -> Arc<dyn Backend> {
    Arc::new(BlockedBackend)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pack(rows: usize, cols: usize, seed: f64) -> (RowMatrix, Vec<f64>) {
        let mut w = RowMatrix::new(cols);
        let mut bias = Vec::with_capacity(rows);
        for r in 0..rows {
            let row: Vec<f64> = (0..cols)
                .map(|c| ((r * cols + c) as f64 * 0.37 + seed).sin() * 2.0)
                .collect();
            w.push_row(&row);
            bias.push((r as f64 * 0.11 - seed).cos());
        }
        (w, bias)
    }

    fn probe(cols: usize, seed: f64) -> Vec<f64> {
        (0..cols).map(|c| (c as f64 * 0.71 + seed).cos()).collect()
    }

    #[test]
    fn blocked_matches_scalar_bit_for_bit_across_shapes() {
        for &(rows, cols) in &[(0, 3), (1, 1), (7, 5), (8, 8), (9, 196), (33, 17)] {
            let (w, bias) = pack(rows, cols, 0.3);
            let x = probe(cols, 1.7);
            let (mut ys, mut yb) = (Vec::new(), Vec::new());
            ScalarBackend.boundary_eval(&w, &bias, &x, 0..rows, &mut ys);
            BlockedBackend.boundary_eval(&w, &bias, &x, 0..rows, &mut yb);
            assert_eq!(ys.len(), rows);
            let same = ys.iter().zip(&yb).all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "bit mismatch at rows={rows} cols={cols}");
        }
    }

    #[test]
    fn sub_ranges_and_bias_indexing_are_absolute() {
        let (w, bias) = pack(20, 6, 0.9);
        let x = probe(6, 0.2);
        let mut full = Vec::new();
        ScalarBackend.boundary_eval(&w, &bias, &x, 0..20, &mut full);
        for backend in [&ScalarBackend as &dyn Backend, &BlockedBackend] {
            let mut part = Vec::new();
            backend.boundary_eval(&w, &bias, &x, 5..17, &mut part);
            assert_eq!(part.len(), 12);
            for (i, v) in part.iter().enumerate() {
                assert_eq!(v.to_bits(), full[5 + i].to_bits());
            }
        }
    }

    #[test]
    fn batch_eval_matches_per_probe_eval_bit_for_bit() {
        // Probe counts straddle PROBE_LANES so both the transposed block
        // path and the single-probe tail are exercised.
        for &probes in &[0usize, 1, 7, 8, 9, 17] {
            for &(rows, cols) in &[(0usize, 3usize), (5, 1), (9, 196), (33, 17)] {
                let (w, bias) = pack(rows, cols, 0.6);
                let xs_owned: Vec<Vec<f64>> =
                    (0..probes).map(|p| probe(cols, p as f64 * 0.31)).collect();
                let xs: Vec<&[f64]> = xs_owned.iter().map(Vec::as_slice).collect();
                for backend in [&ScalarBackend as &dyn Backend, &BlockedBackend] {
                    let mut batched = Vec::new();
                    backend.boundary_eval_batch(&w, &bias, &xs, 0..rows, &mut batched);
                    assert_eq!(batched.len(), probes * rows);
                    let mut single = Vec::new();
                    for (p, x) in xs.iter().enumerate() {
                        ScalarBackend.boundary_eval(&w, &bias, x, 0..rows, &mut single);
                        for (i, v) in single.iter().enumerate() {
                            assert_eq!(
                                batched[p * rows + i].to_bits(),
                                v.to_bits(),
                                "{} probe {p} row {i} (probes={probes} rows={rows} cols={cols})",
                                backend.name(),
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn batch_eval_respects_sub_ranges() {
        let (w, bias) = pack(20, 6, 0.4);
        let xs_owned: Vec<Vec<f64>> = (0..9).map(|p| probe(6, p as f64)).collect();
        let xs: Vec<&[f64]> = xs_owned.iter().map(Vec::as_slice).collect();
        let mut batched = Vec::new();
        BlockedBackend.boundary_eval_batch(&w, &bias, &xs, 5..17, &mut batched);
        assert_eq!(batched.len(), 9 * 12);
        let mut single = Vec::new();
        for (p, x) in xs.iter().enumerate() {
            ScalarBackend.boundary_eval(&w, &bias, x, 5..17, &mut single);
            for (i, v) in single.iter().enumerate() {
                assert_eq!(
                    batched[p * 12 + i].to_bits(),
                    v.to_bits(),
                    "probe {p} row {i}"
                );
            }
        }
    }

    #[test]
    fn verdicts_demand_every_row_of_a_group() {
        let y = [1.0, 2.0, 3.0];
        let targets = [1.0, 2.5, 3.0];
        let groups = [
            RowGroup { start: 0, len: 1 },
            RowGroup { start: 0, len: 2 },
            RowGroup { start: 2, len: 1 },
            RowGroup { start: 1, len: 0 },
        ];
        let mut out = Vec::new();
        ScalarBackend.membership_verdicts(&y, &targets, 1e-6, &groups, &mut out);
        // Row 1 is off by 0.5: any group containing it fails; empty groups
        // fail by definition (no boundary can't explain a probe).
        assert_eq!(out, vec![true, false, true, false]);
    }

    #[test]
    fn nan_targets_fail_their_group() {
        let y = [1.0, 2.0];
        let targets = [1.0, f64::NAN];
        let groups = [RowGroup { start: 0, len: 2 }];
        let mut out = Vec::new();
        BlockedBackend.membership_verdicts(&y, &targets, 1e-2, &groups, &mut out);
        assert_eq!(out, vec![false]);
    }

    #[test]
    fn residual_inf_matches_between_backends_and_the_inline_sweep() {
        let a = Matrix::from_fn(21, 5, |r, c| ((r * 5 + c) as f64 * 0.23).sin());
        let x: Vec<f64> = (0..5).map(|c| (c as f64 * 0.4).cos()).collect();
        let b: Vec<f64> = (0..21).map(|r| (r as f64 * 0.9).sin() * 3.0).collect();
        let scalar = ScalarBackend.residual_inf(&a, 5, &x, &b);
        let blocked = BlockedBackend.residual_inf(&a, 5, &x, &b);
        assert_eq!(scalar.to_bits(), blocked.to_bits());
        // And both match the historical inline sweep of the consistency check.
        let mut worst = 0.0f64;
        for (r, &bv) in b.iter().enumerate().skip(5) {
            let pred: f64 = a.row(r).iter().zip(x.iter()).map(|(p, q)| p * q).sum();
            worst = worst.max((pred - bv).abs());
        }
        assert_eq!(scalar.to_bits(), worst.to_bits());
        // Empty sweep range → 0.
        assert_eq!(ScalarBackend.residual_inf(&a, 21, &x, &b), 0.0);
    }

    #[test]
    fn row_matrix_remove_rows_shifts_later_rows_down() {
        let (mut w, _) = pack(6, 3, 0.1);
        let row4 = w.row(4).to_vec();
        let row5 = w.row(5).to_vec();
        w.remove_rows(1..4);
        assert_eq!(w.rows(), 3);
        assert_eq!(w.row(1), row4.as_slice());
        assert_eq!(w.row(2), row5.as_slice());
        w.remove_rows(0..0);
        assert_eq!(w.rows(), 3);
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.cols(), 3);
    }

    #[test]
    #[should_panic(expected = "row length must equal cols")]
    fn push_row_validates_width() {
        RowMatrix::new(3).push_row(&[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "probe dimension must equal cols")]
    fn boundary_eval_validates_probe_dim() {
        let (w, bias) = pack(4, 3, 0.5);
        ScalarBackend.boundary_eval(&w, &bias, &[1.0, 2.0], 0..4, &mut Vec::new());
    }
}
