#![forbid(unsafe_code)]
#![deny(missing_docs)]
//! The paper's contribution: **OpenAPI** — exact and consistent
//! interpretation of piecewise linear models hidden behind APIs — plus every
//! method it is evaluated against.
//!
//! # Map from paper to module
//!
//! | Paper | Module |
//! |---|---|
//! | §IV-A decision features `D_c`, core parameters `(D_{c,c'}, B_{c,c'})` | [`decision`] |
//! | §IV-B Equation 2 systems `Ω_{d+1}`, `Ω_{d+2}` | [`equations`] |
//! | §IV-B the naive method (Theorem 1's failure mode included) | [`naive`] |
//! | §IV-C Algorithm 1, OpenAPI | [`openapi`] |
//! | hypercube sampling (Lemma 1's continuity requirement) | [`sampler`] |
//! | §V baselines: LIME (linear/ridge), ZOO, Saliency, Gradient*Input, Integrated Gradients | [`baselines`] |
//! | §VI future work: reverse-engineering the PLM behind the API | [`reverse`] |
//! | extension: region-extent bracketing via consistency growth | [`region`] |
//! | extension: Theorem-2 region cache (shared by the serving tier and the store) | [`cache`] |
//! | uniform method dispatch for the experiment harness | [`method`] |
//!
//! The type system mirrors the threat model: black-box methods take any
//! [`openapi_api::PredictionApi`]; the gradient baselines additionally
//! require [`openapi_api::GradientOracle`] (the paper grants them parameter
//! access); nothing in this crate can see ground-truth regions.
//!
//! # Example
//!
//! Recover the exact local decision function of a model from prediction
//! queries alone, and check it against the (test-only) ground truth:
//!
//! ```
//! use openapi_api::{GroundTruthOracle, LinearSoftmaxModel};
//! use openapi_core::openapi::{OpenApiConfig, OpenApiInterpreter};
//! use openapi_linalg::{Matrix, Vector};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! // The hidden model: d = 4, C = 3. The interpreter only ever calls
//! // its `predict` — parameters stay invisible.
//! let model = LinearSoftmaxModel::new(
//!     Matrix::from_fn(4, 3, |r, c| ((r * 3 + c) % 5) as f64 * 0.25 - 0.5),
//!     Vector(vec![0.1, -0.2, 0.05]),
//! );
//! let interpreter = OpenApiInterpreter::new(OpenApiConfig::default());
//! let mut rng = StdRng::seed_from_u64(7);
//! let x = Vector(vec![0.3, -0.1, 0.7, 0.2]);
//! let result = interpreter.interpret(&model, &x, 1, &mut rng).unwrap();
//!
//! // Closed form means exact: the recovered decision features match the
//! // model's own local linear function at x (Equation 1) to round-off.
//! let truth = model.local_model(x.as_slice()).decision_features(1);
//! let err = result
//!     .interpretation
//!     .decision_features
//!     .l1_distance(&truth)
//!     .unwrap();
//! assert!(err < 1e-7, "L1Dist {err}");
//! ```

pub mod baselines;
pub mod cache;
pub mod decision;
pub mod equations;
pub mod error;
pub mod method;
pub mod naive;
pub mod openapi;
pub mod region;
pub mod reverse;
pub mod rng;
pub mod sampler;

pub use cache::{CachedRegion, RegionCache, RegionCacheConfig};
pub use decision::{
    decision_features_from_pairwise, region_fingerprint, Interpretation, PairwiseCoreParams,
    RegionFingerprint,
};
pub use error::InterpretError;
pub use method::Method;
pub use naive::{NaiveConfig, NaiveInterpreter};
pub use openapi::{EdgeSearch, OpenApiConfig, OpenApiInterpreter, OpenApiResult};
