//! Assembly and solving of the interpretation equation systems (§IV-B).
//!
//! Equation 2 turns every queried instance `(xⁱ, yⁱ)` into one linear
//! equation per class contrast:
//!
//! ```text
//! D_{c,c'}ᵀ xⁱ + B_{c,c'} = ln(yⁱ_c / yⁱ_{c'})
//! ```
//!
//! The *coefficient matrix* `[1 | xⁱ]` depends only on the sampled
//! instances — it is shared across all `C − 1` contrasts — while the
//! right-hand side depends on the class pair. [`ConsistencySolver`] exploits
//! this: it factors the matrix once (LU of the leading square block, or QR
//! of the full system) and then checks every contrast with cheap
//! back-substitutions. For `C = 10`, that is a 9× saving over re-factoring
//! per contrast, without changing any semantics of Algorithm 1.
//!
//! [`ConsistencySolver::check`] is the workspace's one Theorem-2
//! consistency check: Algorithm 1 accepts a rung on its verdicts, and its
//! held-out sweep runs on the blocked kernel
//! ([`Backend::residual_inf`]).

use crate::decision::PairwiseCoreParams;
use openapi_api::{log_ratio, PredictionApi};
use openapi_linalg::kernel::{Backend, BlockedBackend};
use openapi_linalg::{LinalgError, LuFactor, Matrix, QrFactor, Vector};

/// One queried instance and the API's prediction for it.
#[derive(Debug, Clone, PartialEq)]
pub struct Probe {
    /// The instance submitted to the API.
    pub x: Vector,
    /// The probability vector the API returned.
    pub probs: Vector,
}

impl Probe {
    /// Queries `api` at `x` and records the answer.
    pub fn query<M: PredictionApi>(api: &M, x: Vector) -> Self {
        let probs = api.predict(x.as_slice());
        Probe { x, probs }
    }
}

/// The assembled equation system for a fixed set of probes.
///
/// Row `i` of the coefficient matrix is `[1, xⁱ_1, …, xⁱ_d]` (bias column
/// first); the unknown vector is `[B_{c,c'}, D_{c,c'}]`.
#[derive(Debug, Clone)]
pub struct EquationSystem {
    coeffs: Matrix,
    probes: Vec<Probe>,
}

impl EquationSystem {
    /// Builds the system from probes (the first probe is conventionally the
    /// instance being interpreted, `x⁰`).
    ///
    /// # Panics
    /// Panics when `probes` is empty or dimensions are inconsistent.
    pub fn new(probes: Vec<Probe>) -> Self {
        assert!(!probes.is_empty(), "equation system needs probes");
        let d = probes[0].x.len();
        assert!(
            probes.iter().all(|p| p.x.len() == d),
            "probe dimensions inconsistent"
        );
        let coeffs = Matrix::from_fn(probes.len(), d + 1, |r, c| {
            if c == 0 {
                1.0
            } else {
                probes[r].x[c - 1]
            }
        });
        EquationSystem { coeffs, probes }
    }

    /// Number of equations (probes).
    pub fn rows(&self) -> usize {
        self.probes.len()
    }

    /// Number of unknowns (`d + 1`).
    pub fn unknowns(&self) -> usize {
        self.coeffs.cols()
    }

    /// The right-hand side for contrast `(c, c')`: `ln(yⁱ_c / yⁱ_{c'})` per
    /// probe.
    ///
    /// # Panics
    /// Panics when either class index is out of range.
    pub fn rhs(&self, c: usize, c_prime: usize) -> Vec<f64> {
        self.probes
            .iter()
            .map(|p| log_ratio(p.probs.as_slice(), c, c_prime))
            .collect()
    }

    /// Borrow the coefficient matrix.
    pub fn coefficients(&self) -> &Matrix {
        &self.coeffs
    }

    /// Borrow the probes.
    pub fn probes(&self) -> &[Probe] {
        &self.probes
    }
}

/// Splits a solved unknown vector `[B, D…]` into core parameters.
fn unpack(solution: Vector, c_prime: usize) -> PairwiseCoreParams {
    let bias = solution[0];
    let weights = Vector(solution.as_slice()[1..].to_vec());
    PairwiseCoreParams {
        c_prime,
        weights,
        bias,
    }
}

/// Strategy for deciding whether an overdetermined system has a solution.
///
/// Both appear in the paper's construction: Theorem 2 argues through the
/// square subsystems `Θ_i` (the `SquareThenCheck` strategy), while "`Ω` has
/// at least one solution" is literally a least-squares residual test
/// (`LeastSquares`). They agree in exact arithmetic; the solver ablation
/// compares their speed and floating-point robustness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConsistencyStrategy {
    /// LU-solve the first `n` equations, then test the residuals of the
    /// remaining rows. `O(n³/3)` — the fast path.
    SquareThenCheck,
    /// QR on the full system; consistency is a small least-squares residual.
    /// ~4× the flops, but immune to an ill-conditioned leading block.
    LeastSquares,
}

/// Verdict for one contrast from [`ConsistencySolver::check`].
#[derive(Debug, Clone)]
pub struct ContrastVerdict {
    /// The candidate core parameters (meaningful when `consistent`).
    pub params: PairwiseCoreParams,
    /// Residual magnitude used for the verdict.
    pub residual: f64,
    /// Threshold the residual was compared against.
    pub threshold: f64,
    /// Whether the overdetermined system was consistent.
    pub consistent: bool,
}

/// Factor-once solver for an *overdetermined* system (`rows ≥ unknowns + 1`)
/// checked against many right-hand sides.
#[derive(Debug)]
pub struct ConsistencySolver {
    strategy: ConsistencyStrategy,
    rtol: f64,
    coeffs: Matrix,
    lu: Option<LuFactor>,
    qr: Option<QrFactor>,
}

impl ConsistencySolver {
    /// Factors the coefficient matrix.
    ///
    /// # Errors
    /// * [`LinalgError::DimensionMismatch`] when the system is not
    ///   overdetermined.
    /// * [`LinalgError::Singular`] (LU path) when the leading square block
    ///   degenerates — per Lemma 1 this is a probability-0 sampling accident;
    ///   Algorithm 1 treats it as "resample".
    pub fn new(
        system: &EquationSystem,
        strategy: ConsistencyStrategy,
        rtol: f64,
    ) -> Result<Self, LinalgError> {
        let (m, n) = (system.rows(), system.unknowns());
        if m <= n {
            return Err(LinalgError::DimensionMismatch {
                op: "ConsistencySolver (rows > unknowns required)",
                expected: n + 1,
                found: m,
            });
        }
        let coeffs = system.coefficients().clone();
        let (lu, qr) = match strategy {
            ConsistencyStrategy::SquareThenCheck => {
                let head = Matrix::from_fn(n, n, |r, c| coeffs[(r, c)]);
                (Some(LuFactor::new(&head)?), None)
            }
            ConsistencyStrategy::LeastSquares => (None, Some(QrFactor::new(&coeffs)?)),
        };
        Ok(ConsistencySolver {
            strategy,
            rtol,
            coeffs,
            lu,
            qr,
        })
    }

    /// Checks one contrast's right-hand side for consistency: the residual
    /// is compared against `rtol · max(1, ‖rhs‖∞)` — the right-hand sides
    /// are log-probability ratios, and the `max(1, ·)` floor keeps the test
    /// meaningful when predictions are nearly uniform.
    ///
    /// # Errors
    /// [`LinalgError::RankDeficient`] on the QR path when the factored
    /// matrix was rank deficient (treated as "resample" by Algorithm 1).
    ///
    /// # Panics
    /// Panics when `rhs.len() != rows`.
    pub fn check(&self, rhs: &[f64], c_prime: usize) -> Result<ContrastVerdict, LinalgError> {
        let n = self.coeffs.cols();
        assert_eq!(rhs.len(), self.coeffs.rows(), "rhs length mismatch");
        let bscale = rhs.iter().fold(0.0f64, |s, v| s.max(v.abs())).max(1.0);
        let threshold = self.rtol * bscale;
        match self.strategy {
            ConsistencyStrategy::SquareThenCheck => {
                let lu = self.lu.as_ref().expect("strategy invariant");
                let solution = lu.solve(&rhs[..n])?;
                // Residuals of the held-out equations decide consistency
                // (Theorem 2's Θ construction: any solution of Ω solves
                // every Θ).
                let worst = BlockedBackend.residual_inf(&self.coeffs, n, solution.as_slice(), rhs);
                Ok(ContrastVerdict {
                    params: unpack(solution, c_prime),
                    residual: worst,
                    threshold,
                    consistent: worst <= threshold,
                })
            }
            ConsistencyStrategy::LeastSquares => {
                let qr = self.qr.as_ref().expect("strategy invariant");
                let (solution, residual) = qr.solve_lstsq(rhs)?;
                Ok(ContrastVerdict {
                    params: unpack(solution, c_prime),
                    residual,
                    threshold,
                    consistent: residual <= threshold,
                })
            }
        }
    }
}

/// Solves a *determined* system (`rows == unknowns`) exactly — the naive
/// method's `Ω_{d+1}` (and the ideal case of §IV-B).
///
/// # Errors
/// Factorization errors ([`LinalgError::Singular`] etc.).
///
/// # Panics
/// Panics when the system is not square.
pub fn solve_determined(
    system: &EquationSystem,
    c: usize,
    c_prime: usize,
) -> Result<PairwiseCoreParams, LinalgError> {
    assert_eq!(
        system.rows(),
        system.unknowns(),
        "determined solve needs rows == unknowns"
    );
    let lu = LuFactor::new(system.coefficients())?;
    let solution = lu.solve(&system.rhs(c, c_prime))?;
    Ok(unpack(solution, c_prime))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::sample_many;
    use openapi_api::LinearSoftmaxModel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// d = 3, C = 3 linear model: the whole space is one region, so every
    /// probe set yields consistent systems with the exact core parameters.
    fn model() -> LinearSoftmaxModel {
        let w = Matrix::from_rows(&[&[1.0, -0.5, 0.25], &[0.0, 2.0, -1.0], &[-1.5, 0.5, 0.75]])
            .unwrap();
        LinearSoftmaxModel::new(w, Vector(vec![0.1, -0.2, 0.3]))
    }

    fn probes_for(api: &LinearSoftmaxModel, n: usize, seed: u64) -> Vec<Probe> {
        let mut rng = StdRng::seed_from_u64(seed);
        let x0 = Vector(vec![0.2, -0.1, 0.4]);
        let mut probes = vec![Probe::query(api, x0.clone())];
        for x in sample_many(x0.as_slice(), 0.5, n - 1, &mut rng) {
            probes.push(Probe::query(api, x));
        }
        probes
    }

    #[test]
    fn coefficient_layout_is_bias_first() {
        let api = model();
        let sys = EquationSystem::new(probes_for(&api, 2, 1));
        assert_eq!(sys.unknowns(), 4);
        assert_eq!(sys.coefficients()[(0, 0)], 1.0);
        assert_eq!(sys.coefficients()[(1, 0)], 1.0);
        assert_eq!(sys.coefficients()[(0, 1)], 0.2);
    }

    #[test]
    fn rhs_is_log_ratio_per_probe() {
        let api = model();
        let sys = EquationSystem::new(probes_for(&api, 3, 2));
        let rhs = sys.rhs(0, 2);
        for (i, p) in sys.probes().iter().enumerate() {
            let expect = p.probs[0].ln() - p.probs[2].ln();
            assert!((rhs[i] - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn determined_solve_recovers_exact_core_params() {
        let api = model();
        // d + 1 = 4 probes: square system.
        let sys = EquationSystem::new(probes_for(&api, 4, 3));
        let truth = api.local();
        for c_prime in [1usize, 2] {
            let got = solve_determined(&sys, 0, c_prime).unwrap();
            let want_w = truth.pairwise_decision_features(0, c_prime);
            let want_b = truth.pairwise_bias(0, c_prime);
            assert!(got.weights.l1_distance(&want_w).unwrap() < 1e-8);
            assert!((got.bias - want_b).abs() < 1e-8);
        }
    }

    #[test]
    fn consistency_solver_accepts_single_region_systems_both_strategies() {
        let api = model();
        // d + 2 = 5 probes: overdetermined.
        let sys = EquationSystem::new(probes_for(&api, 5, 4));
        let truth = api.local();
        for strategy in [
            ConsistencyStrategy::SquareThenCheck,
            ConsistencyStrategy::LeastSquares,
        ] {
            let solver = ConsistencySolver::new(&sys, strategy, 1e-7).unwrap();
            for c_prime in [1usize, 2] {
                let v = solver.check(&sys.rhs(0, c_prime), c_prime).unwrap();
                assert!(
                    v.consistent,
                    "{strategy:?} contrast {c_prime}: residual {}",
                    v.residual
                );
                let want = truth.pairwise_decision_features(0, c_prime);
                assert!(v.params.weights.l1_distance(&want).unwrap() < 1e-7);
            }
        }
    }

    #[test]
    fn corrupted_probe_breaks_consistency() {
        let api = model();
        let mut probes = probes_for(&api, 5, 5);
        // Corrupt the last probe's prediction, as if it came from a
        // different locally linear region.
        let last = probes.last_mut().unwrap();
        last.probs = Vector(vec![0.80, 0.15, 0.05]);
        let sys = EquationSystem::new(probes);
        for strategy in [
            ConsistencyStrategy::SquareThenCheck,
            ConsistencyStrategy::LeastSquares,
        ] {
            let solver = ConsistencySolver::new(&sys, strategy, 1e-7).unwrap();
            let v = solver.check(&sys.rhs(0, 1), 1).unwrap();
            assert!(!v.consistent, "{strategy:?} must flag the corrupted probe");
        }
    }

    #[test]
    fn solver_rejects_non_overdetermined_systems() {
        let api = model();
        let sys = EquationSystem::new(probes_for(&api, 4, 6)); // square
        assert!(ConsistencySolver::new(&sys, ConsistencyStrategy::LeastSquares, 1e-7).is_err());
    }

    #[test]
    fn duplicate_probes_surface_as_singular_for_lu_path() {
        let api = model();
        let mut probes = probes_for(&api, 5, 7);
        probes[2] = probes[1].clone(); // degenerate sampling
        let sys = EquationSystem::new(probes);
        let r = ConsistencySolver::new(&sys, ConsistencyStrategy::SquareThenCheck, 1e-7);
        assert!(matches!(r, Err(LinalgError::Singular { .. })));
    }

    #[test]
    fn same_class_contrast_is_trivially_consistent_zero() {
        let api = model();
        let sys = EquationSystem::new(probes_for(&api, 5, 8));
        let solver = ConsistencySolver::new(&sys, ConsistencyStrategy::LeastSquares, 1e-9).unwrap();
        let v = solver.check(&sys.rhs(1, 1), 1).unwrap();
        assert!(v.consistent);
        assert!(v.params.weights.norm_linf() < 1e-9);
        assert!(v.params.bias.abs() < 1e-9);
    }
}
