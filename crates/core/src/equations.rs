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
//! right-hand side depends on the class pair. [`ConsistencySolver`]
//! exploits this: it factors the matrix once (LU of the leading square
//! block, or QR of the full system), and [`ConsistencySolver::check_many`]
//! then checks every contrast from one pass over the LU factors
//! ([`LuFactor::solve_many`]) on the right-hand sides of
//! [`EquationSystem::rhs_many`]. For `C = 10` that is one factorization and
//! one side-by-side substitution instead of nine of each, with every
//! contrast's solution bit for bit what a solve of its own would give, so
//! no semantics of Algorithm 1 change.
//!
//! [`ConsistencySolver::check_many`] is the workspace's one Theorem-2
//! consistency check ([`ConsistencySolver::check`] is it with one
//! contrast): Algorithm 1 accepts a rung on its verdicts, and its held-out
//! sweep runs on the blocked kernel ([`Backend::residual_inf`]).

use crate::decision::PairwiseCoreParams;
use openapi_api::{clamped_ln, PredictionApi};
use openapi_linalg::kernel::{Backend, BlockedBackend};
use openapi_linalg::{LinalgError, LuFactor, Matrix, QrFactor, Vector};
use std::sync::OnceLock;

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
/// first); the unknown vector is `[B_{c,c'}, D_{c,c'}]`. The full matrix is
/// built only when [`EquationSystem::coefficients`] asks for it:
/// [`ConsistencySolver`] copies just the rows it factors straight from the
/// probes.
#[derive(Debug, Clone)]
pub struct EquationSystem {
    probes: Vec<Probe>,
    coeffs: OnceLock<Matrix>,
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
        EquationSystem {
            probes,
            coeffs: OnceLock::new(),
        }
    }

    /// Number of equations (probes).
    pub fn rows(&self) -> usize {
        self.probes.len()
    }

    /// Number of unknowns (`d + 1`).
    pub fn unknowns(&self) -> usize {
        self.probes[0].x.len() + 1
    }

    /// The right-hand side for contrast `(c, c')`: `ln(yⁱ_c / yⁱ_{c'})` per
    /// probe.
    ///
    /// # Panics
    /// Panics when either class index is out of range.
    pub fn rhs(&self, c: usize, c_prime: usize) -> Vec<f64> {
        self.rhs_many(c, &[c_prime]).as_slice().to_vec()
    }

    /// The right-hand sides of the contrasts `(c, c_primes[j])` side by
    /// side: a `rows() × c_primes.len()` matrix whose column `j` is
    /// [`EquationSystem::rhs`]`(c, c_primes[j])`. One pass over the probes
    /// takes each class's clamped `ln` once per probe; each entry is the
    /// difference of two of them, exactly as [`openapi_api::log_ratio`]
    /// forms it.
    ///
    /// # Panics
    /// Panics when a class index is out of range.
    pub fn rhs_many(&self, c: usize, c_primes: &[usize]) -> Matrix {
        let mut data = Vec::with_capacity(self.rows() * c_primes.len());
        for p in &self.probes {
            let ln_c = clamped_ln(p.probs[c]);
            data.extend(c_primes.iter().map(|&cp| ln_c - clamped_ln(p.probs[cp])));
        }
        Matrix::from_vec(self.rows(), c_primes.len(), data)
            .expect("one entry per probe and contrast")
    }

    /// Borrow the coefficient matrix (built on first use).
    pub fn coefficients(&self) -> &Matrix {
        self.coeffs
            .get_or_init(|| coefficient_rows(&self.probes, self.unknowns()))
    }

    /// Borrow the probes.
    pub fn probes(&self) -> &[Probe] {
        &self.probes
    }

    /// Takes the probes back, in the order the system was built from.
    pub fn into_probes(self) -> Vec<Probe> {
        self.probes
    }
}

/// The coefficient rows `[1 | xⁱ]` of `probes`, one per probe, each
/// `cols = d + 1` wide.
fn coefficient_rows(probes: &[Probe], cols: usize) -> Matrix {
    let mut data = Vec::with_capacity(probes.len() * cols);
    for p in probes {
        data.push(1.0);
        data.extend_from_slice(p.x.as_slice());
    }
    Matrix::from_vec(probes.len(), cols, data).expect("probe dimensions are checked")
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

/// Verdict for one contrast from [`ConsistencySolver::check_many`].
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
/// checked against many right-hand sides. It keeps only what its strategy
/// reads: the LU factors of the leading square block and the held-out rows,
/// or the QR factors of the full system.
#[derive(Debug)]
pub struct ConsistencySolver {
    rtol: f64,
    rows: usize,
    factor: Factor,
}

#[derive(Debug)]
enum Factor {
    /// [`ConsistencyStrategy::SquareThenCheck`]: the factored leading
    /// `n × n` block and the remaining rows, whose residuals decide.
    Square { lu: LuFactor, held_out: Matrix },
    /// [`ConsistencyStrategy::LeastSquares`]: the factored full system.
    LeastSquares(QrFactor),
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
        let factor = match strategy {
            ConsistencyStrategy::SquareThenCheck => {
                let (head, rest) = system.probes().split_at(n);
                Factor::Square {
                    lu: LuFactor::from_matrix(coefficient_rows(head, n))?,
                    held_out: coefficient_rows(rest, n),
                }
            }
            ConsistencyStrategy::LeastSquares => {
                Factor::LeastSquares(QrFactor::from_matrix(coefficient_rows(system.probes(), n))?)
            }
        };
        Ok(ConsistencySolver {
            rtol,
            rows: m,
            factor,
        })
    }

    /// Checks one contrast's right-hand side for consistency:
    /// [`ConsistencySolver::check_many`] with one column.
    ///
    /// # Errors
    /// As [`ConsistencySolver::check_many`].
    ///
    /// # Panics
    /// Panics when `rhs.len() != rows`.
    pub fn check(&self, rhs: &[f64], c_prime: usize) -> Result<ContrastVerdict, LinalgError> {
        assert_eq!(rhs.len(), self.rows, "rhs length mismatch");
        let rhs = Matrix::from_vec(rhs.len(), 1, rhs.to_vec())?;
        Ok(self
            .check_many(&rhs, &[c_prime])?
            .pop()
            .expect("one verdict per column"))
    }

    /// Checks every contrast at once: column `j` of `rhs` is the
    /// right-hand side of contrast `c_primes[j]`, and verdict `j` answers
    /// for it. Each residual is compared against
    /// `rtol · max(1, ‖rhs_j‖∞)` — the right-hand sides are
    /// log-probability ratios, and the `max(1, ·)` floor keeps the test
    /// meaningful when predictions are nearly uniform.
    ///
    /// On the LU path one [`LuFactor::solve_many`] call solves every
    /// column, then each column's held-out rows are swept; the verdicts are
    /// bit for bit those of checking each column alone.
    ///
    /// # Errors
    /// [`LinalgError::RankDeficient`] on the QR path when the factored
    /// matrix was rank deficient (treated as "resample" by Algorithm 1).
    ///
    /// # Panics
    /// Panics when `rhs.rows() != rows` or `rhs.cols() != c_primes.len()`.
    pub fn check_many(
        &self,
        rhs: &Matrix,
        c_primes: &[usize],
    ) -> Result<Vec<ContrastVerdict>, LinalgError> {
        assert_eq!(rhs.rows(), self.rows, "rhs length mismatch");
        assert_eq!(rhs.cols(), c_primes.len(), "one contrast per rhs column");
        let verdict = |solution: Vector, c_prime: usize, residual: f64, b: &Vector| {
            let bscale = b.iter().fold(0.0f64, |s, v| s.max(v.abs())).max(1.0);
            let threshold = self.rtol * bscale;
            ContrastVerdict {
                params: unpack(solution, c_prime),
                residual,
                threshold,
                consistent: residual <= threshold,
            }
        };
        match &self.factor {
            Factor::Square { lu, held_out } => {
                let n = lu.dim();
                let solutions =
                    lu.solve_many(&Matrix::from_fn(n, rhs.cols(), |i, j| rhs[(i, j)]))?;
                Ok(c_primes
                    .iter()
                    .enumerate()
                    .map(|(j, &c_prime)| {
                        let (solution, b) = (solutions.col(j), rhs.col(j));
                        // Residuals of the held-out equations decide
                        // consistency (Theorem 2's Θ construction: any
                        // solution of Ω solves every Θ).
                        let worst = BlockedBackend.residual_inf(
                            held_out,
                            0,
                            solution.as_slice(),
                            &b.as_slice()[n..],
                        );
                        verdict(solution, c_prime, worst, &b)
                    })
                    .collect())
            }
            Factor::LeastSquares(qr) => c_primes
                .iter()
                .enumerate()
                .map(|(j, &c_prime)| {
                    let b = rhs.col(j);
                    let (solution, residual) = qr.solve_lstsq(b.as_slice())?;
                    Ok(verdict(solution, c_prime, residual, &b))
                })
                .collect(),
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
    Ok(solve_determined_many(system, c, &[c_prime])?
        .pop()
        .expect("one solution per contrast"))
}

/// [`solve_determined`] for every contrast `(c, c_primes[j])` from one
/// factorization and one pass over its factors; solution `j` is bit for
/// bit what [`solve_determined`] returns for `c_primes[j]`.
///
/// # Errors
/// Factorization errors ([`LinalgError::Singular`] etc.).
///
/// # Panics
/// Panics when the system is not square.
pub(crate) fn solve_determined_many(
    system: &EquationSystem,
    c: usize,
    c_primes: &[usize],
) -> Result<Vec<PairwiseCoreParams>, LinalgError> {
    assert_eq!(
        system.rows(),
        system.unknowns(),
        "determined solve needs rows == unknowns"
    );
    let lu = LuFactor::from_matrix(coefficient_rows(system.probes(), system.unknowns()))?;
    let solutions = lu.solve_many(&system.rhs_many(c, c_primes))?;
    Ok(c_primes
        .iter()
        .enumerate()
        .map(|(j, &c_prime)| unpack(solutions.col(j), c_prime))
        .collect())
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
