//! OpenAPI — Algorithm 1 of the paper.
//!
//! For an instance `x⁰` and class `c`, OpenAPI samples `d + 1` perturbed
//! instances in a hypercube around `x⁰`, builds the overdetermined system
//! `Ω_{d+2}` for every contrast class `c'`, and accepts the solutions only
//! if **every** contrast's system is consistent (Theorem 2: a consistent
//! `Ω_{d+2}` has a unique solution equal to the true core parameters with
//! probability 1). Otherwise the hypercube edge is halved and the sampling
//! repeats — adaptively shrinking until the cube fits inside `x⁰`'s locally
//! linear region, with no knowledge of where that region's boundaries lie.
//!
//! [`EdgeSearch::PreScreen`] makes the failed rungs of that search cheap:
//! inside one region every log-ratio is affine in `x` (Theorem 2), so a
//! segment from `x⁰` whose midpoint breaks `lr(m) = (lr(x⁰) + lr(x))/2`
//! proves the cube straddles a boundary after 2 queries, before the other
//! `d + 1` are paid. Acceptance is still the full `Ω_{d+2}` check.

use crate::decision::Interpretation;
use crate::equations::{ConsistencySolver, ConsistencyStrategy, EquationSystem, Probe};
use crate::error::InterpretError;
use crate::sampler::{sample_in_hypercube, sample_many};
use openapi_api::{clamped_ln, PredictionApi};
use openapi_linalg::Vector;
use rand::Rng;

/// Algorithm 1 hyperparameters (defaults follow the paper's experiments).
#[derive(Debug, Clone)]
pub struct OpenApiConfig {
    /// Maximum sampling iterations `m` (paper: 100; observed ≤ 20).
    pub max_iterations: usize,
    /// Initial hypercube edge `r` (paper: 1.0 — "the initial value of r has
    /// little influence" because of the adaptive halving).
    pub initial_edge: f64,
    /// Multiplicative edge shrink per failed iteration (paper: ½). Exposed
    /// for the hypercube-policy ablation.
    pub shrink_factor: f64,
    /// Relative residual tolerance of the consistency check.
    pub rtol: f64,
    /// Which consistency check to run (see the solver ablation).
    pub strategy: ConsistencyStrategy,
    /// How each rung of the edge search is paid for (paper: halving).
    pub edge_search: EdgeSearch,
}

impl Default for OpenApiConfig {
    fn default() -> Self {
        OpenApiConfig {
            max_iterations: 100,
            initial_edge: 1.0,
            shrink_factor: 0.5,
            rtol: 1e-6,
            strategy: ConsistencyStrategy::SquareThenCheck,
            edge_search: EdgeSearch::Halving,
        }
    }
}

/// How Algorithm 1 spends each rung of its halving edge search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeSearch {
    /// The paper's rung: sample `d + 1` instances, query them all, factor
    /// `Ω_{d+2}` and check every contrast. A rung costs `d + 1` queries,
    /// so a solve costs `1 + iterations · (d+1)`.
    Halving,
    /// Before the paper's rung, draw `k(d) = min(max(8, ⌊(d+1)/6⌋),
    /// ⌊(d+1)/4⌋)` endpoints `x_j` one at a time and query each with its
    /// midpoint `m_j = (x⁰ + x_j)/2`. A midpoint whose log-ratios are not
    /// the mean of its ends' (within `rtol`) halves the edge at once: no
    /// system is built. If all `k` pass, the endpoints become the first
    /// `k` of the `d + 1` samples and acceptance is the unchanged
    /// `Ω_{d+2}` check. Midpoints never enter `Ω`: they are collinear
    /// with `x⁰`.
    PreScreen,
}

impl EdgeSearch {
    /// Segments screened per rung at dimension `d` (`0` under
    /// [`EdgeSearch::Halving`]). The screen deepens with `d`: a full rung
    /// passes only if all `d + 1 − k` fill samples land in `x⁰`'s region
    /// too, so the larger `d` is, the more of the straddling cubes a fixed
    /// `k` lets through to fail there, each after paying the fill and an
    /// LU. At least 8 (up to `d = 52` the rule is `min(8, ⌊(d+1)/4⌋)`), and
    /// never more than `⌊(d+1)/4⌋`, so the screen costs at most half a rung
    /// and a model with `d < 3` runs the paper's rung.
    pub(crate) fn segments(self, d: usize) -> usize {
        match self {
            EdgeSearch::Halving => 0,
            EdgeSearch::PreScreen => ((d + 1) / 6).max(8).min((d + 1) / 4),
        }
    }
}

/// One iteration's diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationLog {
    /// Hypercube edge used this iteration.
    pub edge: f64,
    /// Contrasts whose systems were consistent. Contrasts are checked in
    /// ascending `c'` order and the iteration aborts at the first
    /// inconsistent one, so on a failed iteration this counts the
    /// consistent prefix actually checked.
    pub consistent_contrasts: usize,
    /// Total contrasts required (`C − 1`).
    pub required_contrasts: usize,
    /// Worst residual over the checked contrasts (∞ when factorization
    /// failed). On a failed iteration the last checked contrast is the
    /// inconsistent one that doomed it; contrasts after it are never
    /// solved, so their residuals cannot dilute this figure.
    pub worst_residual: f64,
    /// Whether the sampled geometry degenerated (singular/rank-deficient).
    pub degenerate: bool,
    /// Prediction queries this rung spent (midpoints included).
    pub queries: usize,
    /// Whether the pre-screen rejected this rung: a midpoint broke the
    /// affine identity, so nothing was factorized, `consistent_contrasts`
    /// is 0 and `worst_residual` is that midpoint's defect.
    pub screened: bool,
}

/// Successful OpenAPI output with full diagnostics.
#[derive(Debug, Clone)]
pub struct OpenApiResult {
    /// The recovered interpretation (exact with probability 1).
    pub interpretation: Interpretation,
    /// Iterations consumed (1 = first sample succeeded).
    pub iterations: usize,
    /// Hypercube edge of the successful iteration.
    pub final_edge: f64,
    /// Prediction queries issued, `x⁰`'s probe included:
    /// `1 + Σ log[i].queries` (the paper's `1 + iterations · (d+1)` under
    /// [`EdgeSearch::Halving`]).
    pub queries: usize,
    /// Per-iteration log (length = `iterations`).
    pub log: Vec<IterationLog>,
    /// The `d + 1` sampled instances of the successful iteration (the set
    /// whose quality the paper's RD/WD experiments measure); under
    /// [`EdgeSearch::PreScreen`] the screened endpoints come first.
    pub samples: Vec<Vector>,
}

/// Argument validation for every entry point that queries `api` about
/// `x` — Algorithm 1, the serving tier, the naive method and the
/// baselines — run before the first query, so a request doomed by its
/// arguments is never billed one. `x` must have the API's dimension
/// and finite features (a NaN or ±∞ feature puts every hypercube sample
/// off the model's domain), and `class` must name one of its `C ≥ 2`
/// classes.
///
/// # Errors
/// [`InterpretError::DimensionMismatch`],
/// [`InterpretError::NonFiniteInstance`] (first offending index),
/// [`InterpretError::TooFewClasses`] or [`InterpretError::ClassOutOfRange`],
/// checked in that order.
pub fn validate_request<M: PredictionApi>(
    api: &M,
    x: &[f64],
    class: usize,
) -> Result<(), InterpretError> {
    let (d, c_total) = (api.dim(), api.num_classes());
    if x.len() != d {
        return Err(InterpretError::DimensionMismatch {
            expected: d,
            found: x.len(),
        });
    }
    if let Some(index) = x.iter().position(|v| !v.is_finite()) {
        return Err(InterpretError::NonFiniteInstance { index });
    }
    if c_total < 2 {
        return Err(InterpretError::TooFewClasses {
            num_classes: c_total,
        });
    }
    if class >= c_total {
        return Err(InterpretError::ClassOutOfRange {
            class,
            num_classes: c_total,
        });
    }
    Ok(())
}

/// The OpenAPI interpreter.
#[derive(Debug, Clone, Default)]
pub struct OpenApiInterpreter {
    config: OpenApiConfig,
}

impl OpenApiInterpreter {
    /// Creates an interpreter with the given configuration.
    pub fn new(config: OpenApiConfig) -> Self {
        OpenApiInterpreter { config }
    }

    /// Borrow the configuration.
    pub fn config(&self) -> &OpenApiConfig {
        &self.config
    }

    /// Runs Algorithm 1: interprets the prediction of `api` on `x0` for
    /// `class`.
    ///
    /// # Errors
    /// * The argument errors of [`validate_request`], before any query.
    /// * [`InterpretError::BudgetExhausted`] when `max_iterations` sampling
    ///   rounds never produced `C − 1` consistent systems — for a true PLM
    ///   this happens only if `x0` lies exactly on a region boundary
    ///   (probability 0) or the API degrades its outputs.
    pub fn interpret<M: PredictionApi, R: Rng>(
        &self,
        api: &M,
        x0: &Vector,
        class: usize,
        rng: &mut R,
    ) -> Result<OpenApiResult, InterpretError> {
        // Validate BEFORE the x0 probe: a metered API must not be billed
        // for a call that was doomed by its arguments.
        validate_request(api, x0.as_slice(), class)?;
        let x0_probe = Probe::query(api, x0.clone());
        self.interpret_with_probe(api, x0_probe, class, rng)
    }

    /// Runs Algorithm 1 starting from an already-queried probe of `x0` —
    /// the serving tier pays one membership probe per request and reuses it
    /// here on a cache miss, so no instance is ever queried twice.
    ///
    /// `x0_probe` must come from this `api`; [`OpenApiResult::queries`]
    /// includes the probe, exactly as if [`OpenApiInterpreter::interpret`]
    /// had issued it.
    ///
    /// # Errors
    /// As [`OpenApiInterpreter::interpret`].
    pub fn interpret_with_probe<M: PredictionApi, R: Rng>(
        &self,
        api: &M,
        x0_probe: Probe,
        class: usize,
        rng: &mut R,
    ) -> Result<OpenApiResult, InterpretError> {
        validate_request(api, x0_probe.x.as_slice(), class)?;
        let (d, c_total) = (api.dim(), api.num_classes());
        let x0 = x0_probe.x.clone();
        let segments = self.config.edge_search.segments(d);
        // x⁰'s log terms, shared by every segment the screen tests.
        let ln0: Vec<f64> = x0_probe.probs.iter().map(|&p| clamped_ln(p)).collect();
        let mut queries = 1usize;
        let mut edge = self.config.initial_edge;
        let mut log = Vec::new();

        for iteration in 1..=self.config.max_iterations {
            let mut probes = Vec::with_capacity(d + 2);
            probes.push(x0_probe.clone());
            let mut spent = 0;
            let mut defect = None;
            for _ in 0..segments {
                let x = sample_in_hypercube(x0.as_slice(), edge, rng);
                let m = Vector(
                    x0.iter()
                        .zip(x.iter())
                        .map(|(a, b)| 0.5 * (a + b))
                        .collect(),
                );
                let end = Probe::query(api, x);
                let mid = Probe::query(api, m);
                spent += 2;
                defect = self.midpoint_defect(&ln0, &end, &mid, class);
                if defect.is_some() {
                    break;
                }
                probes.push(end);
            }
            let outcome = match defect {
                Some(defect) => Err(IterationLog {
                    edge,
                    consistent_contrasts: 0,
                    required_contrasts: c_total - 1,
                    worst_residual: defect,
                    degenerate: false,
                    queries: spent,
                    screened: true,
                }),
                None => {
                    // Fill up to d + 1 fresh instances; together with x0
                    // they form the d + 2 equations of Ω_{d+2}.
                    let fill = d + 1 - segments;
                    for x in sample_many(x0.as_slice(), edge, fill, rng) {
                        probes.push(Probe::query(api, x));
                    }
                    spent += fill;
                    let system = EquationSystem::new(probes);
                    let verdicts = self.try_all_contrasts(&system, class, c_total);
                    verdicts.map(|(pairwise, worst)| (pairwise, worst, system.into_probes()))
                }
            };
            queries += spent;
            match outcome {
                Ok((pairwise, worst_residual, probes)) => {
                    log.push(IterationLog {
                        edge,
                        consistent_contrasts: c_total - 1,
                        required_contrasts: c_total - 1,
                        worst_residual,
                        degenerate: false,
                        queries: spent,
                        screened: false,
                    });
                    let interpretation = Interpretation::from_pairwise(class, pairwise)?;
                    return Ok(OpenApiResult {
                        interpretation,
                        iterations: iteration,
                        final_edge: edge,
                        queries,
                        log,
                        samples: probes.into_iter().skip(1).map(|p| p.x).collect(),
                    });
                }
                Err(iter_log) => {
                    log.push(IterationLog {
                        edge,
                        queries: spent,
                        ..iter_log
                    });
                    edge *= self.config.shrink_factor;
                    if edge < f64::MIN_POSITIVE * 4.0 {
                        // The cube has shrunk below representable widths;
                        // further iterations would sample duplicates.
                        break;
                    }
                }
            }
        }

        let unsatisfied = (0..c_total).filter(|&cp| cp != class).collect();
        Err(InterpretError::BudgetExhausted {
            iterations: log.len(),
            final_edge: edge,
            unsatisfied,
            queries,
        })
    }

    /// The pre-screen's test of one segment `x⁰ → x`: inside one region
    /// every log-ratio is affine (Theorem 2), so at the midpoint `m`
    /// `lr(m) = (lr(x⁰) + lr(x))/2` for every contrast. Returns the first
    /// contrast's defect `|lr(m) − (lr(x⁰) + lr(x))/2|` above
    /// `rtol · max(1, |lr(x⁰)|, |lr(x)|, |lr(m)|)`, or `None` when the
    /// segment passes (a NaN defect fails).
    ///
    /// `ln0` holds x⁰'s `clamped_ln` of every class. Each log-ratio is the
    /// difference of two such terms, as [`openapi_api::log_ratio`] forms it;
    /// the segment's terms are taken once each, and only for the contrasts
    /// the test reaches.
    fn midpoint_defect(&self, ln0: &[f64], end: &Probe, mid: &Probe, class: usize) -> Option<f64> {
        let (end_c, mid_c) = (clamped_ln(end.probs[class]), clamped_ln(mid.probs[class]));
        (0..ln0.len()).filter(|&cp| cp != class).find_map(|cp| {
            let at0 = ln0[class] - ln0[cp];
            let at_end = end_c - clamped_ln(end.probs[cp]);
            let at_mid = mid_c - clamped_ln(mid.probs[cp]);
            let defect = (at_mid - 0.5 * (at0 + at_end)).abs();
            let scale = at0.abs().max(at_end.abs()).max(at_mid.abs()).max(1.0);
            // A NaN defect compares false here, so it fails the screen.
            let passes = defect <= self.config.rtol * scale;
            (!passes).then_some(defect)
        })
    }

    /// Convenience: interpret the API's own predicted class at `x0`.
    ///
    /// # Errors
    /// As [`OpenApiInterpreter::interpret`].
    pub fn interpret_predicted<M: PredictionApi, R: Rng>(
        &self,
        api: &M,
        x0: &Vector,
        rng: &mut R,
    ) -> Result<OpenApiResult, InterpretError> {
        // Validate before the labelling query; class 0 exists whenever the
        // model has the two classes any interpretation needs.
        validate_request(api, x0.as_slice(), 0)?;
        let class = api.predict_label(x0.as_slice());
        self.interpret(api, x0, class, rng)
    }

    /// Checks every contrast on one sampled system. On success returns the
    /// recovered pairwise parameters; on failure returns the iteration log
    /// entry (minus the edge and queries, filled by the caller).
    ///
    /// Every contrast is solved in one pass ([`ConsistencySolver::check_many`]);
    /// the verdicts are then read in ascending `c'` and the first
    /// inconsistent one decides, so the log is the one a contrast-by-contrast
    /// check that stops there would write.
    fn try_all_contrasts(
        &self,
        system: &EquationSystem,
        class: usize,
        c_total: usize,
    ) -> Result<(Vec<crate::decision::PairwiseCoreParams>, f64), IterationLog> {
        let required = c_total - 1;
        let failed = |consistent_contrasts, worst_residual, degenerate| IterationLog {
            edge: 0.0,
            consistent_contrasts,
            required_contrasts: required,
            worst_residual,
            degenerate,
            queries: 0,
            screened: false,
        };
        let c_primes: Vec<usize> = (0..c_total).filter(|&cp| cp != class).collect();
        let verdicts = ConsistencySolver::new(system, self.config.strategy, self.config.rtol)
            .and_then(|solver| solver.check_many(&system.rhs_many(class, &c_primes), &c_primes))
            // Degenerate sampling geometry (probability 0): resample.
            .map_err(|_| failed(0, f64::INFINITY, true))?;
        let mut pairwise = Vec::with_capacity(required);
        let mut worst_residual = 0.0f64;
        for verdict in verdicts {
            worst_residual = worst_residual.max(verdict.residual);
            if !verdict.consistent {
                // Algorithm 1 needs ALL contrasts consistent; one failure
                // dooms the iteration, and the later verdicts are not read.
                return Err(failed(pairwise.len(), worst_residual, false));
            }
            pairwise.push(verdict.params);
        }
        Ok((pairwise, worst_residual))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openapi_api::{
        CountingApi, GroundTruthOracle, LinearSoftmaxModel, LocalLinearModel, TwoRegionPlm,
    };
    use openapi_linalg::Matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn linear_model() -> LinearSoftmaxModel {
        let w = Matrix::from_rows(&[
            &[1.0, -0.5, 0.25, 0.8],
            &[0.0, 2.0, -1.0, -0.3],
            &[-1.5, 0.5, 0.75, 0.1],
            &[0.3, -0.9, 0.4, 1.2],
        ])
        .unwrap();
        LinearSoftmaxModel::new(w, Vector(vec![0.1, -0.2, 0.3, 0.0]))
    }

    #[test]
    fn recovers_exact_decision_features_on_single_region_model() {
        // Logistic regression is a PLM with one region: OpenAPI must succeed
        // on the FIRST iteration with the exact D_c.
        let api = linear_model();
        let x0 = Vector(vec![0.3, -0.2, 0.5, 0.1]);
        let interp = OpenApiInterpreter::default();
        let mut rng = StdRng::seed_from_u64(1);
        for class in 0..4 {
            let res = interp.interpret(&api, &x0, class, &mut rng).unwrap();
            assert_eq!(res.iterations, 1, "single region: first cube works");
            let truth = api.local().decision_features(class);
            let err = res
                .interpretation
                .decision_features
                .l1_distance(&truth)
                .unwrap();
            assert!(err < 1e-7, "class {class}: L1Dist {err}");
            // Pairwise biases too.
            for p in &res.interpretation.pairwise {
                let want = api.local().pairwise_bias(class, p.c_prime);
                assert!((p.bias - want).abs() < 1e-7);
            }
        }
    }

    fn two_region_model() -> TwoRegionPlm {
        let low = LocalLinearModel::new(
            Matrix::from_rows(&[&[2.0, -2.0], &[1.0, 0.5]]).unwrap(),
            Vector(vec![0.0, 0.2]),
        );
        let high = LocalLinearModel::new(
            Matrix::from_rows(&[&[-1.0, 1.5], &[0.0, 3.0]]).unwrap(),
            Vector(vec![0.5, -0.5]),
        );
        TwoRegionPlm::axis_split(0, 0.5, low, high)
    }

    #[test]
    fn adaptively_shrinks_near_a_region_boundary() {
        // x0 sits 0.01 from the boundary; the initial edge 1.0 cube
        // straddles it, so with probability ≈ 0.87 per run the first sample
        // set mixes regions and OpenAPI must shrink. Run several seeds: the
        // answer must be EXACT on every run, and shrinking must be observed
        // on most runs.
        let api = two_region_model();
        let x0 = Vector(vec![0.49, 0.3]);
        let interp = OpenApiInterpreter::default();
        let truth = api.local_model(x0.as_slice()).decision_features(0);
        let mut shrank = 0;
        for seed in 0..10 {
            let mut rng = StdRng::seed_from_u64(seed);
            let res = interp.interpret(&api, &x0, 0, &mut rng).unwrap();
            let err = res
                .interpretation
                .decision_features
                .l1_distance(&truth)
                .unwrap();
            assert!(err < 1e-7, "seed {seed}: L1Dist {err}");
            assert_eq!(res.log.len(), res.iterations);
            if res.iterations > 1 {
                shrank += 1;
                assert!(res.final_edge < 1.0);
                // The log records the failed iterations.
                assert!(res.log[..res.iterations - 1]
                    .iter()
                    .all(|l| l.consistent_contrasts < l.required_contrasts));
            }
        }
        assert!(
            shrank >= 5,
            "expected shrinking on most runs, saw {shrank}/10"
        );
    }

    #[test]
    fn interprets_the_correct_side_of_the_boundary() {
        let api = two_region_model();
        let interp = OpenApiInterpreter::default();
        let mut rng = StdRng::seed_from_u64(3);
        let lo = Vector(vec![0.2, 0.0]);
        let hi = Vector(vec![0.8, 0.0]);
        let d_lo = interp.interpret(&api, &lo, 0, &mut rng).unwrap();
        let d_hi = interp.interpret(&api, &hi, 0, &mut rng).unwrap();
        let t_lo = api.local_model(lo.as_slice()).decision_features(0);
        let t_hi = api.local_model(hi.as_slice()).decision_features(0);
        assert!(
            d_lo.interpretation
                .decision_features
                .l1_distance(&t_lo)
                .unwrap()
                < 1e-7
        );
        assert!(
            d_hi.interpretation
                .decision_features
                .l1_distance(&t_hi)
                .unwrap()
                < 1e-7
        );
        assert!(
            d_lo.interpretation
                .decision_features
                .l1_distance(&d_hi.interpretation.decision_features)
                .unwrap()
                > 0.5
        );
    }

    #[test]
    fn consistency_is_exact_within_a_region() {
        // Two instances in the same region get IDENTICAL interpretations up
        // to solver round-off — the paper's consistency property.
        let api = two_region_model();
        let interp = OpenApiInterpreter::default();
        let mut rng = StdRng::seed_from_u64(4);
        let a = Vector(vec![0.1, 0.7]);
        let b = Vector(vec![0.3, -0.4]);
        let da = interp.interpret(&api, &a, 1, &mut rng).unwrap();
        let db = interp.interpret(&api, &b, 1, &mut rng).unwrap();
        let cs = da
            .interpretation
            .decision_features
            .cosine_similarity(&db.interpretation.decision_features)
            .unwrap();
        assert!((cs - 1.0).abs() < 1e-9, "cosine similarity {cs}");
    }

    /// A `d`-dimensional, 3-class two-region PLM split at `x_0 = 0.5`.
    fn wide_two_region_model(d: usize) -> TwoRegionPlm {
        let low = LocalLinearModel::new(
            Matrix::from_fn(d, 3, |r, c| ((r * 3 + c) % 7) as f64 * 0.1 - 0.3),
            Vector(vec![0.1, -0.2, 0.05]),
        );
        let high = LocalLinearModel::new(
            Matrix::from_fn(d, 3, |r, c| ((r * 5 + c * 2) % 9) as f64 * 0.08 - 0.35),
            Vector(vec![-0.3, 0.25, 0.0]),
        );
        TwoRegionPlm::axis_split(0, 0.5, low, high)
    }

    fn config(edge_search: EdgeSearch) -> OpenApiConfig {
        OpenApiConfig {
            edge_search,
            ..OpenApiConfig::default()
        }
    }

    /// `x⁰` 0.01 below the split of [`wide_two_region_model`].
    fn near_split(d: usize) -> Vector {
        let mut x0 = vec![0.1; d];
        x0[0] = 0.49;
        Vector(x0)
    }

    #[test]
    fn query_accounting_matches_iterations() {
        // Near the split both policies shrink and the pre-screen screens;
        // every query is the probe or some logged rung's.
        for edge_search in [EdgeSearch::Halving, EdgeSearch::PreScreen] {
            let interp = OpenApiInterpreter::new(config(edge_search));
            for seed in 0..5 {
                let api = CountingApi::new(wide_two_region_model(35));
                let mut rng = StdRng::seed_from_u64(seed);
                let res = interp
                    .interpret(&api, &near_split(35), 1, &mut rng)
                    .unwrap();
                let rungs: usize = res.log.iter().map(|l| l.queries).sum();
                assert_eq!(res.queries, 1 + rungs, "{edge_search:?} seed {seed}");
                assert_eq!(res.queries as u64, api.queries());
                assert_eq!(res.samples.len(), 36);
                if edge_search == EdgeSearch::Halving {
                    assert_eq!(res.queries, 1 + res.iterations * 36);
                }
            }
            // Budget exhaustion on the split itself carries its own count.
            let api = CountingApi::new(wide_two_region_model(35));
            let mut on_split = near_split(35);
            on_split[0] = 0.5;
            let budget = OpenApiConfig {
                max_iterations: 4,
                ..config(edge_search)
            };
            let mut rng = StdRng::seed_from_u64(9);
            match OpenApiInterpreter::new(budget).interpret(&api, &on_split, 0, &mut rng) {
                Err(InterpretError::BudgetExhausted {
                    iterations,
                    queries,
                    ..
                }) => {
                    assert_eq!(iterations, 4);
                    assert_eq!(queries as u64, api.queries(), "{edge_search:?}");
                }
                other => panic!("{edge_search:?}: expected exhaustion, got {other:?}"),
            }
        }
    }

    #[test]
    fn prescreen_depth_grows_with_the_dimension_under_its_cap() {
        // k(d) = min(max(8, ⌊(d+1)/6⌋), ⌊(d+1)/4⌋): 8 or the cap up to
        // d = 52, deeper beyond, never over half a rung.
        let cases = [
            (2, 0),
            (3, 1),
            (35, 8),
            (52, 8),
            (53, 9),
            (100, 16),
            (196, 32),
        ];
        for (d, k) in cases {
            assert_eq!(EdgeSearch::PreScreen.segments(d), k, "d = {d}");
            assert!(4 * k <= d + 1, "d = {d}: the screen exceeds half a rung");
            assert_eq!(EdgeSearch::Halving.segments(d), 0);
        }
    }

    #[test]
    fn prescreen_is_exact_near_a_boundary_and_screens_straddling_rungs() {
        // x0 sits 0.01 from the split; k = 8, 16 and 32 segments per rung.
        for d in [35, 100, 196] {
            let k = EdgeSearch::PreScreen.segments(d);
            let x0 = near_split(d);
            let truth = wide_two_region_model(d)
                .local_model(x0.as_slice())
                .decision_features(0);
            let interp = OpenApiInterpreter::new(config(EdgeSearch::PreScreen));
            let mut screened = 0;
            for seed in 0..10 {
                let api = CountingApi::new(wide_two_region_model(d));
                let mut rng = StdRng::seed_from_u64(seed);
                let res = interp.interpret(&api, &x0, 0, &mut rng).unwrap();
                let err = res
                    .interpretation
                    .decision_features
                    .l1_distance(&truth)
                    .unwrap();
                assert!(err < 1e-7, "d = {d} seed {seed}: L1Dist {err}");
                let rungs: usize = res.log.iter().map(|l| l.queries).sum();
                assert_eq!(res.queries, 1 + rungs, "d = {d} seed {seed}");
                assert_eq!(res.queries as u64, api.queries());
                for l in res.log.iter().filter(|l| l.screened) {
                    screened += 1;
                    // Rejected after j ≤ k segments of 2 queries, with no system.
                    assert!(l.queries % 2 == 0 && l.queries <= 2 * k);
                    assert_eq!(l.consistent_contrasts, 0);
                    assert!(!l.degenerate && l.worst_residual > 0.0);
                }
                let last = res.log.last().unwrap();
                assert!(!last.screened);
                assert_eq!(last.queries, d + 1 + k);
            }
            assert!(screened > 0, "d = {d}: no rung was screened over 10 seeds");
        }
    }

    #[test]
    fn prescreen_replays_bit_for_bit_from_its_seed() {
        let api = wide_two_region_model(35);
        let interp = OpenApiInterpreter::new(config(EdgeSearch::PreScreen));
        let run = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            interp
                .interpret(&api, &near_split(35), 2, &mut rng)
                .unwrap()
        };
        for seed in 0..3 {
            let (a, b) = (run(seed), run(seed));
            assert_eq!(a.interpretation, b.interpretation);
            assert_eq!(a.queries, b.queries);
            assert_eq!(a.log, b.log);
            assert_eq!(a.samples, b.samples);
        }
    }

    #[test]
    fn prescreen_without_segments_is_the_paper_rung() {
        // d = 2 caps k at ⌊3/4⌋ = 0: the pre-screen must be bit-identical
        // to halving, queries and log included.
        assert_eq!(EdgeSearch::PreScreen.segments(2), 0);
        let api = two_region_model();
        let x0 = Vector(vec![0.49, 0.3]);
        for seed in 0..10 {
            let run = |edge_search| {
                let mut rng = StdRng::seed_from_u64(seed);
                OpenApiInterpreter::new(config(edge_search))
                    .interpret(&api, &x0, 0, &mut rng)
                    .unwrap()
            };
            let (paper, screen) = (run(EdgeSearch::Halving), run(EdgeSearch::PreScreen));
            assert_eq!(paper.interpretation, screen.interpretation);
            assert_eq!(paper.queries, screen.queries);
            assert_eq!(paper.log, screen.log);
            assert_eq!(paper.samples, screen.samples);
        }
    }

    #[test]
    fn both_strategies_agree_on_the_answer() {
        let api = two_region_model();
        let x0 = Vector(vec![0.45, 0.2]);
        let mut cfg = OpenApiConfig::default();
        let mut rng1 = StdRng::seed_from_u64(6);
        let a = OpenApiInterpreter::new(cfg.clone())
            .interpret(&api, &x0, 0, &mut rng1)
            .unwrap();
        cfg.strategy = ConsistencyStrategy::LeastSquares;
        let mut rng2 = StdRng::seed_from_u64(6);
        let b = OpenApiInterpreter::new(cfg)
            .interpret(&api, &x0, 0, &mut rng2)
            .unwrap();
        let dist = a
            .interpretation
            .decision_features
            .l1_distance(&b.interpretation.decision_features)
            .unwrap();
        assert!(dist < 1e-7, "strategies disagree by {dist}");
    }

    #[test]
    fn budget_exhaustion_is_reported_not_silent() {
        // A tiny iteration budget with a point essentially on the boundary.
        let api = two_region_model();
        let x0 = Vector(vec![0.5, 0.0]); // exactly on the boundary
        let cfg = OpenApiConfig {
            max_iterations: 3,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(7);
        let res = OpenApiInterpreter::new(cfg).interpret(&api, &x0, 0, &mut rng);
        // On the boundary the region routing puts x0 in the 'high' region,
        // but any cube contains 'low' points; with only 3 iterations the
        // cube may not shrink enough.
        match res {
            Err(InterpretError::BudgetExhausted { iterations, .. }) => {
                assert_eq!(iterations, 3);
            }
            Ok(r) => {
                // If it succeeded, the cube shrank enough that all samples
                // landed on the high side; verify exactness then.
                let truth = api.local_model(x0.as_slice()).decision_features(0);
                assert!(
                    r.interpretation
                        .decision_features
                        .l1_distance(&truth)
                        .unwrap()
                        < 1e-7
                );
            }
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn inconsistent_contrast_aborts_the_iteration_early() {
        // Build a probe set that is consistent for contrast (0, 2) but
        // corrupted for (0, 1): the first failing contrast must abort the
        // sweep, so the later (consistent) contrast is never counted.
        let api = linear_model();
        let x0 = Vector(vec![0.1, 0.2, -0.1, 0.3]);
        let mut rng = StdRng::seed_from_u64(11);
        let mut probes = vec![Probe::query(&api, x0.clone())];
        for x in crate::sampler::sample_many(x0.as_slice(), 0.5, api.dim() + 1, &mut rng) {
            probes.push(Probe::query(&api, x));
        }
        // Double class 1's probability on the last probe only: log-ratios
        // involving class 1 shift by ln 2 on that equation, others are
        // untouched.
        probes.last_mut().unwrap().probs[1] *= 2.0;
        let system = EquationSystem::new(probes);
        let interp = OpenApiInterpreter::default();
        let log = interp
            .try_all_contrasts(&system, 0, api.num_classes())
            .expect_err("contrast (0,1) is corrupted");
        assert!(!log.degenerate);
        assert_eq!(log.required_contrasts, 3);
        // Early exit at the FIRST contrast (c' = 1): the consistent
        // contrasts (0,2) and (0,3) after it must not be counted or solved.
        assert_eq!(log.consistent_contrasts, 0);
        assert!(log.worst_residual.is_finite());
        // Sanity: without the corruption every contrast is consistent.
        let mut rng = StdRng::seed_from_u64(11);
        let mut clean = vec![Probe::query(&api, x0.clone())];
        for x in crate::sampler::sample_many(x0.as_slice(), 0.5, api.dim() + 1, &mut rng) {
            clean.push(Probe::query(&api, x));
        }
        let clean_system = EquationSystem::new(clean);
        assert!(interp
            .try_all_contrasts(&clean_system, 0, api.num_classes())
            .is_ok());
    }

    #[test]
    fn interpret_with_probe_matches_interpret_bit_for_bit() {
        let api = two_region_model();
        let x0 = Vector(vec![0.3, -0.2]);
        let interp = OpenApiInterpreter::default();
        let mut rng_a = StdRng::seed_from_u64(12);
        let a = interp.interpret(&api, &x0, 0, &mut rng_a).unwrap();
        let mut rng_b = StdRng::seed_from_u64(12);
        let probe = Probe::query(&api, x0.clone());
        let b = interp
            .interpret_with_probe(&api, probe, 0, &mut rng_b)
            .unwrap();
        assert_eq!(a.interpretation, b.interpretation);
        assert_eq!(a.queries, b.queries);
        assert_eq!(a.iterations, b.iterations);
    }

    #[test]
    fn argument_validation() {
        let api = linear_model();
        let interp = OpenApiInterpreter::default();
        let mut rng = StdRng::seed_from_u64(8);
        let short = Vector(vec![0.0; 2]);
        assert!(matches!(
            interp.interpret(&api, &short, 0, &mut rng),
            Err(InterpretError::DimensionMismatch { .. })
        ));
        let x0 = Vector(vec![0.0; 4]);
        assert!(matches!(
            interp.interpret(&api, &x0, 9, &mut rng),
            Err(InterpretError::ClassOutOfRange { .. })
        ));
    }

    #[test]
    fn non_finite_instances_are_refused_before_any_query() {
        let api = CountingApi::new(linear_model());
        let interp = OpenApiInterpreter::new(OpenApiConfig {
            edge_search: EdgeSearch::PreScreen,
            ..OpenApiConfig::default()
        });
        let mut rng = StdRng::seed_from_u64(8);
        for (index, v) in [(0, f64::NAN), (2, f64::INFINITY), (3, f64::NEG_INFINITY)] {
            let mut x0 = Vector(vec![0.1; 4]);
            x0[index] = v;
            let refused = InterpretError::NonFiniteInstance { index };
            assert_eq!(
                interp.interpret(&api, &x0, 0, &mut rng).unwrap_err(),
                refused
            );
            assert_eq!(
                interp.interpret_predicted(&api, &x0, &mut rng).unwrap_err(),
                refused
            );
            // A probe carrying a non-finite x is refused too (its query
            // was paid by the caller; Algorithm 1 adds none).
            let probe = Probe {
                x: x0.clone(),
                probs: Vector(vec![0.25; 4]),
            };
            let r = interp.interpret_with_probe(&api, probe, 0, &mut rng);
            assert_eq!(r.unwrap_err(), refused);
        }
        assert_eq!(api.queries(), 0);
    }

    #[test]
    fn invalid_arguments_cost_zero_queries() {
        // A metered API must not be billed for calls doomed by their
        // arguments: validation runs before the x0 probe.
        let api = CountingApi::new(linear_model());
        let interp = OpenApiInterpreter::default();
        let mut rng = StdRng::seed_from_u64(10);
        let _ = interp.interpret(&api, &Vector(vec![0.0; 2]), 0, &mut rng);
        let _ = interp.interpret(&api, &Vector(vec![0.0; 4]), 9, &mut rng);
        assert_eq!(api.queries(), 0);
    }

    #[test]
    fn interpret_predicted_uses_argmax_class() {
        let api = linear_model();
        let x0 = Vector(vec![0.3, -0.2, 0.5, 0.1]);
        let interp = OpenApiInterpreter::default();
        let mut rng = StdRng::seed_from_u64(9);
        let res = interp.interpret_predicted(&api, &x0, &mut rng).unwrap();
        assert_eq!(res.interpretation.class, api.predict_label(x0.as_slice()));
    }
}
