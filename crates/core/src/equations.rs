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
//! A system whose samples mostly lie on the coordinate axes through `x⁰`
//! is factored a second way ([`ConsistencySolver::on_axes`]): each axis
//! sample gives its weight as one difference quotient, and only the
//! `k × k` block of the other samples is factored, by block elimination.
//! That is the pre-screened rung of Algorithm 1, whose `d + 1 − k` fill
//! samples are axis points.
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
/// the QR factors of the full system, or ([`ConsistencySolver::on_axes`])
/// the axis offsets and the LU factors of the off-axis block.
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
    /// [`ConsistencySolver::on_axes`]: a system laid out as `x⁰`, `k`
    /// off-axis samples, one sample on each of the `d − k` fill axes and
    /// one held-out row.
    Axes(AxisBlock),
}

/// What [`ConsistencySolver::on_axes`] keeps of its system.
#[derive(Debug)]
struct AxisBlock {
    x0: Vector,
    /// The fill axes, in row order: row `k + 1 + t` lies on `fill[t]`.
    fill: Vec<usize>,
    /// The realized offset `xᵗ[fill[t]] − x⁰[fill[t]]` of each fill row.
    delta: Vec<f64>,
    /// The other `k` axes, ascending: the columns of `lu`.
    screened: Vec<usize>,
    /// The `k × (d − k)` offsets of the off-axis samples on the fill
    /// axes: entry `(i, t)` is `xⁱ[fill[t]] − x⁰[fill[t]]`.
    cross: Matrix,
    /// The factored `k × k` block: row `i` is `xⁱ[S] − x⁰[S]`.
    lu: LuFactor,
    /// The held-out row `[1 | x]`.
    held_out: Matrix,
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

    /// Factors a system whose fill samples lie on the coordinate axes
    /// through `x⁰`. Its `d + 2` probes must be, in order: `x⁰`; `k` samples
    /// anywhere (row `i` for `i` in `1..=k`); one sample on each axis of
    /// `fill_axes` (row `k + 1 + t` differs from `x⁰` only in coordinate
    /// `fill_axes[t]`), so `k = d − fill_axes.len()`; and one held-out row.
    ///
    /// Each fill row gives its axis's weight as one difference quotient,
    /// `D[j] = (lr(xᵗ) − lr(x⁰))/δ_j` with the realized offset
    /// `δ_j = xᵗ[j] − x⁰[j]`. What is left of the first `k` rows is a
    /// `k × k` system in the weights of the other axes `S`, with rows
    /// `xⁱ[S] − x⁰[S]`; it is the only system factored. The bias follows as
    /// `B = lr(x⁰) − D·x⁰`, and the held-out row decides consistency, as
    /// under [`ConsistencyStrategy::SquareThenCheck`].
    ///
    /// # Errors
    /// [`LinalgError::Singular`] when an offset `δ_j` is zero or the
    /// `k × k` block degenerates: Algorithm 1 treats both as "resample".
    ///
    /// # Panics
    /// Panics when the system does not have `d + 2` rows, or `fill_axes`
    /// repeats an axis or names one out of range.
    pub fn on_axes(
        system: &EquationSystem,
        fill_axes: &[usize],
        rtol: f64,
    ) -> Result<Self, LinalgError> {
        let (probes, d) = (system.probes(), system.unknowns() - 1);
        assert_eq!(probes.len(), d + 2, "an axis system has d + 2 rows");
        let mut on_fill = vec![false; d];
        for &j in fill_axes {
            assert!(j < d && !on_fill[j], "fill axes must be distinct axes");
            on_fill[j] = true;
        }
        let x0 = probes[0].x.clone();
        let k = d - fill_axes.len();
        let screened: Vec<usize> = (0..d).filter(|&j| !on_fill[j]).collect();
        let mut delta = Vec::with_capacity(fill_axes.len());
        for (&j, p) in fill_axes.iter().zip(&probes[k + 1..=d]) {
            let offset = p.x[j] - x0[j];
            if offset == 0.0 {
                return Err(LinalgError::Singular {
                    pivot: j,
                    magnitude: 0.0,
                });
            }
            delta.push(offset);
        }
        let off_axis = &probes[1..=k];
        let cross = Matrix::from_fn(k, fill_axes.len(), |i, t| {
            off_axis[i].x[fill_axes[t]] - x0[fill_axes[t]]
        });
        let block = Matrix::from_fn(k, k, |i, s| off_axis[i].x[screened[s]] - x0[screened[s]]);
        let block = AxisBlock {
            lu: LuFactor::from_matrix(block)?,
            held_out: coefficient_rows(&probes[d + 1..], d + 1),
            x0,
            fill: fill_axes.to_vec(),
            delta,
            screened,
            cross,
        };
        Ok(ConsistencySolver {
            rtol,
            rows: d + 2,
            factor: Factor::Axes(block),
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
            Factor::Axes(axes) => {
                let solutions = axes.solve_many(rhs)?;
                Ok(solutions
                    .into_iter()
                    .zip(c_primes)
                    .enumerate()
                    .map(|(j, (solution, &c_prime))| {
                        let b = rhs.col(j);
                        let worst = BlockedBackend.residual_inf(
                            &axes.held_out,
                            0,
                            solution.as_slice(),
                            &b.as_slice()[self.rows - 1..],
                        );
                        verdict(solution, c_prime, worst, &b)
                    })
                    .collect())
            }
        }
    }
}

impl AxisBlock {
    /// The unknowns `[B, D…]` of every column of `rhs` from its first
    /// `d + 1` rows: the fill axes' difference quotients, then one
    /// [`LuFactor::solve_many`] of the off-axis block for the other axes.
    fn solve_many(&self, rhs: &Matrix) -> Result<Vec<Vector>, LinalgError> {
        let (k, cols) = (self.lu.dim(), rhs.cols());
        let lr0 = rhs.row(0);
        // Row t: the weight of axis fill[t] in every contrast.
        let fill_weights = Matrix::from_fn(self.fill.len(), cols, |t, col| {
            (rhs[(k + 1 + t, col)] - lr0[col]) / self.delta[t]
        });
        // Row i: what is left of row 1 + i once x⁰'s log-ratios and the
        // fill axes' share are taken out. The contrasts run side by side.
        let mut block = Matrix::from_fn(k, cols, |i, col| rhs[(1 + i, col)] - lr0[col]);
        for i in 0..k {
            let left = block.row_mut(i);
            for (t, &offset) in self.cross.row(i).iter().enumerate() {
                for (b, &w) in left.iter_mut().zip(fill_weights.row(t)) {
                    *b -= offset * w;
                }
            }
        }
        let screened = self.lu.solve_many(&block)?;
        Ok((0..cols)
            .map(|col| {
                let mut solution = vec![0.0; self.x0.len() + 1];
                for (t, &j) in self.fill.iter().enumerate() {
                    solution[1 + j] = fill_weights[(t, col)];
                }
                for (s, &j) in self.screened.iter().enumerate() {
                    solution[1 + j] = screened[(s, col)];
                }
                let at_x0: f64 = solution[1..]
                    .iter()
                    .zip(self.x0.iter())
                    .map(|(w, x)| w * x)
                    .sum();
                solution[0] = lr0[col] - at_x0;
                Vector(solution)
            })
            .collect())
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

    /// `x⁰`, `k` cube samples, a point 0.25 off `x⁰` on each remaining
    /// axis (in descending axis order, signs alternating) and one held-out
    /// cube sample: the layout [`ConsistencySolver::on_axes`] reads.
    fn axis_probes(api: &LinearSoftmaxModel, k: usize, seed: u64) -> (Vec<Probe>, Vec<usize>) {
        let mut probes = probes_for(api, k + 1, seed);
        let x0 = probes[0].x.clone();
        let fill: Vec<usize> = (0..3).rev().take(3 - k).collect();
        for (t, &j) in fill.iter().enumerate() {
            let mut x = x0.clone();
            x[j] += if t % 2 == 0 { 0.25 } else { -0.25 };
            probes.push(Probe::query(api, x));
        }
        let mut rng = StdRng::seed_from_u64(seed + 100);
        probes.extend(
            sample_many(x0.as_slice(), 0.5, 1, &mut rng)
                .into_iter()
                .map(|x| Probe::query(api, x)),
        );
        (probes, fill)
    }

    #[test]
    fn axis_solver_recovers_exact_core_params_for_every_block_size() {
        let api = model();
        let truth = api.local();
        for k in 0..=3 {
            let (probes, fill) = axis_probes(&api, k, 9);
            let sys = EquationSystem::new(probes);
            let solver = ConsistencySolver::on_axes(&sys, &fill, 1e-7).unwrap();
            let verdicts = solver
                .check_many(&sys.rhs_many(0, &[1, 2]), &[1, 2])
                .unwrap();
            for (v, c_prime) in verdicts.iter().zip([1usize, 2]) {
                assert!(
                    v.consistent,
                    "k = {k} contrast {c_prime}: residual {}",
                    v.residual
                );
                let want = truth.pairwise_decision_features(0, c_prime);
                assert!(
                    v.params.weights.l1_distance(&want).unwrap() < 1e-8,
                    "k = {k}"
                );
                assert!((v.params.bias - truth.pairwise_bias(0, c_prime)).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn axis_solver_flags_a_corrupted_held_out_row() {
        let api = model();
        let (mut probes, fill) = axis_probes(&api, 1, 10);
        probes.last_mut().unwrap().probs = Vector(vec![0.80, 0.15, 0.05]);
        let sys = EquationSystem::new(probes);
        let solver = ConsistencySolver::on_axes(&sys, &fill, 1e-7).unwrap();
        assert!(!solver.check(&sys.rhs(0, 1), 1).unwrap().consistent);
    }

    #[test]
    fn zero_axis_offsets_and_duplicate_samples_surface_as_singular() {
        let api = model();
        let (mut probes, fill) = axis_probes(&api, 1, 11);
        probes[2].x = probes[0].x.clone();
        let sys = EquationSystem::new(probes);
        let r = ConsistencySolver::on_axes(&sys, &fill, 1e-7);
        assert!(matches!(r, Err(LinalgError::Singular { magnitude, .. }) if magnitude == 0.0));
        // Two equal off-axis samples make the k × k block singular.
        let (mut probes, fill) = axis_probes(&api, 2, 12);
        probes[2] = probes[1].clone();
        let sys = EquationSystem::new(probes);
        let r = ConsistencySolver::on_axes(&sys, &fill, 1e-7);
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
