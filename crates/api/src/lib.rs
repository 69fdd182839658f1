#![forbid(unsafe_code)]
#![deny(missing_docs)]
//! The hidden-model boundary of the OpenAPI reproduction.
//!
//! The paper's threat model is precise: the interpreter sees **only** a
//! prediction API — instances in, class probabilities out — with no access
//! to parameters or training data. This crate encodes that boundary as
//! traits so the rest of the workspace cannot cheat by construction:
//!
//! * [`PredictionApi`] — the only capability OpenAPI, LIME, ZOO, and the
//!   naive method receive.
//! * [`GradientOracle`] — white-box gradient access for the gradient-based
//!   baselines (Saliency Maps, Gradient*Input, Integrated Gradients), which
//!   the paper *allows* to see model parameters.
//! * [`GroundTruthOracle`] — region identity and exact local linear models,
//!   used **only** by the evaluation metrics (RD, WD, L1Dist) that compare
//!   against ground truth, never by interpreters.
//!
//! It also ships instrumentation and degradation wrappers ([`counter`],
//! [`degrade`]), a deterministic fault-injection wrapper ([`chaos`]) for
//! the adversarial suites, and two self-contained reference PLMs
//! ([`linear`], [`toy`]) used pervasively in tests.

pub mod chaos;
pub mod counter;
pub mod degrade;
pub mod linear;
pub mod probability;
pub mod toy;
pub mod traits;

pub use chaos::{ApiError, ChaosApi, ChaosConfig, ChaosStats};
pub use counter::CountingApi;
pub use degrade::{NoisyApi, QuantizedApi};
pub use linear::LinearSoftmaxModel;
pub use probability::{clamped_ln, log_ratio, softmax, stable_log_softmax};
pub use toy::TwoRegionPlm;
pub use traits::{GradientOracle, GroundTruthOracle, LocalLinearModel, PredictionApi, RegionId};
