//! Property-based bit-identity suite for the kernel layer: on random
//! packed matrices, probes, and tolerances, the [`BlockedBackend`] must
//! reproduce the [`ScalarBackend`] oracle *bit for bit* across every
//! kernel — boundary evaluation (single- and multi-probe), membership
//! verdicts, and the held-out residual sweep behind
//! `ConsistencySolver::check`.
//!
//! These run in CI under `--release` as well: the blocked code paths the
//! optimizer actually emits (vectorized, unrolled) are the ones that must
//! hold the contract, not just the debug build.

use openapi_repro::core::equations::{
    ConsistencySolver, ConsistencyStrategy, EquationSystem, Probe,
};
use openapi_repro::linalg::kernel::{Backend, BlockedBackend, RowGroup, RowMatrix, ScalarBackend};
use openapi_repro::linalg::{Matrix, Vector};
use proptest::prelude::*;

/// Strategy: a packed `rows × cols` matrix plus parallel bias, with shapes
/// straddling the blocked kernels' lane boundaries (LANES = PROBE_LANES
/// = 8), and one probe per batch lane.
fn packed_fixture() -> impl Strategy<Value = (usize, usize, Vec<f64>, Vec<f64>, Vec<Vec<f64>>)> {
    ((0usize..40), (1usize..24), (0usize..12)).prop_flat_map(|(rows, cols, probes)| {
        (
            Just(rows),
            Just(cols),
            prop::collection::vec(-8.0f64..8.0, rows * cols),
            prop::collection::vec(-4.0f64..4.0, rows),
            prop::collection::vec(prop::collection::vec(-8.0f64..8.0, cols), probes),
        )
    })
}

fn pack(cols: usize, data: &[f64]) -> RowMatrix {
    let mut w = RowMatrix::new(cols);
    for row in data.chunks_exact(cols) {
        w.push_row(row);
    }
    w
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Single-probe boundary evaluation is bit-identical, on full ranges
    /// and on arbitrary sub-ranges (absolute bias indexing included).
    #[test]
    fn boundary_eval_is_bit_identical(
        fixture in packed_fixture(),
        lo in 0usize..40,
        hi in 0usize..40,
    ) {
        let (rows, cols, data, bias, xs) = fixture;
        let w = pack(cols, &data);
        let (lo, hi) = (lo.min(rows), hi.min(rows));
        let range = lo.min(hi)..lo.max(hi);
        for x in xs.iter().chain(std::iter::once(&vec![0.25f64; cols])) {
            let (mut ys, mut yb) = (Vec::new(), Vec::new());
            ScalarBackend.boundary_eval(&w, &bias, x, range.clone(), &mut ys);
            BlockedBackend.boundary_eval(&w, &bias, x, range.clone(), &mut yb);
            prop_assert_eq!(ys.len(), range.len());
            prop_assert_eq!(ys.len(), yb.len());
            for (a, b) in ys.iter().zip(&yb) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    /// Multi-probe evaluation is bit-identical between backends AND to the
    /// per-probe single evaluation — batching reuses the matrix, it never
    /// changes a sum.
    #[test]
    fn boundary_eval_batch_is_bit_identical(
        fixture in packed_fixture(),
    ) {
        let (rows, cols, data, bias, xs) = fixture;
        let w = pack(cols, &data);
        let refs: Vec<&[f64]> = xs.iter().map(Vec::as_slice).collect();
        let (mut ys, mut yb) = (Vec::new(), Vec::new());
        ScalarBackend.boundary_eval_batch(&w, &bias, &refs, 0..rows, &mut ys);
        BlockedBackend.boundary_eval_batch(&w, &bias, &refs, 0..rows, &mut yb);
        prop_assert_eq!(ys.len(), refs.len() * rows);
        prop_assert_eq!(ys.len(), yb.len());
        for (a, b) in ys.iter().zip(&yb) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        let mut single = Vec::new();
        for (p, x) in refs.iter().enumerate() {
            BlockedBackend.boundary_eval(&w, &bias, x, 0..rows, &mut single);
            for (i, v) in single.iter().enumerate() {
                prop_assert_eq!(yb[p * rows + i].to_bits(), v.to_bits());
            }
        }
    }

    /// Membership verdicts agree exactly for random group partitions and
    /// tolerances (planted exact hits, near misses, and NaN targets).
    #[test]
    fn membership_verdicts_are_identical(
        fixture in packed_fixture(),
        x in prop::collection::vec(-8.0f64..8.0, 24),
        rtol in prop::sample::select(vec![0.0, 1e-12, 1e-6, 1e-2]),
        lens in prop::collection::vec(0usize..5, 1..12),
        offsets in prop::collection::vec(0usize..3, 0..40),
    ) {
        let (rows, cols, data, bias, _) = fixture;
        let w = pack(cols, &data);
        let mut y = Vec::new();
        ScalarBackend.boundary_eval(&w, &bias, &x[..cols], 0..rows, &mut y);
        // Targets: exact hits where offset lands on 0, NaN on 2, misses on 1.
        let targets: Vec<f64> = y
            .iter()
            .enumerate()
            .map(|(i, v)| match offsets.get(i).copied().unwrap_or(0) {
                0 => *v,
                1 => v + 0.5,
                _ => f64::NAN,
            })
            .collect();
        let mut groups = Vec::new();
        let mut start = 0;
        for len in lens {
            if start + len > rows {
                break;
            }
            groups.push(RowGroup { start, len });
            start += len;
        }
        let (mut vs, mut vb) = (Vec::new(), Vec::new());
        ScalarBackend.membership_verdicts(&y, &targets, rtol, &groups, &mut vs);
        BlockedBackend.membership_verdicts(&y, &targets, rtol, &groups, &mut vb);
        prop_assert_eq!(vs.len(), groups.len());
        prop_assert_eq!(vs, vb);
    }

    /// The residual sweep agrees bit-for-bit, and `ConsistencySolver`'s
    /// held-out sweep (which runs on the blocked kernel) reproduces the
    /// scalar oracle's residual over its own solution, and the verdict
    /// that follows from it.
    #[test]
    fn residual_sweep_is_bit_identical(
        fixture in packed_fixture(),
        x in prop::collection::vec(-8.0f64..8.0, 24),
        from in 0usize..40,
        rtol in prop::sample::select(vec![1e-9, 1e-3, 10.0]),
    ) {
        let (rows, cols, data, b, _) = fixture;
        let a = Matrix::from_vec(rows, cols, data).expect("shape by construction");
        let from = from.min(rows);
        let x = &x[..cols];
        let scalar = ScalarBackend.residual_inf(&a, from, x, &b);
        let blocked = BlockedBackend.residual_inf(&a, from, x, &b);
        prop_assert_eq!(scalar.to_bits(), blocked.to_bits());
        if rows > cols {
            // Rows `[1 | a.row(r)[1..]]`: the fixture's trailing columns
            // are the probes; the solver supplies the bias column.
            let probes = (0..rows)
                .map(|r| Probe {
                    x: Vector(a.row(r)[1..].to_vec()),
                    probs: Vector(vec![0.5, 0.5]),
                })
                .collect();
            let sys = EquationSystem::new(probes);
            let strategy = ConsistencyStrategy::SquareThenCheck;
            // A degenerate leading block fails to factor: nothing to sweep.
            if let Ok(solver) = ConsistencySolver::new(&sys, strategy, rtol) {
                let v = solver.check(&b, 1).expect("LU path never rank-fails");
                let mut solution = vec![v.params.bias];
                solution.extend_from_slice(v.params.weights.as_slice());
                let oracle = ScalarBackend.residual_inf(sys.coefficients(), cols, &solution, &b);
                prop_assert_eq!(v.residual.to_bits(), oracle.to_bits());
                let bscale = b.iter().fold(0.0f64, |s, v| s.max(v.abs())).max(1.0);
                prop_assert_eq!(v.threshold.to_bits(), (rtol * bscale).to_bits());
                prop_assert_eq!(v.consistent, oracle <= v.threshold);
            }
        }
    }
}
