//! Dense linear algebra substrate for the OpenAPI reproduction.
//!
//! The OpenAPI method (Cong et al., ICDE 2020) reduces model interpretation to
//! solving small-to-medium dense linear systems: a determined `(d+1)×(d+1)`
//! system for the naive method and an overdetermined `(d+2)×(d+1)` system for
//! OpenAPI itself, where `d` is the input dimensionality (784 for the paper's
//! image workloads). This crate provides everything those solvers need,
//! hand-rolled and dependency-free:
//!
//! * [`Vector`] and [`Matrix`] — dense `f64` containers with the usual
//!   arithmetic, norms, and similarity measures.
//! * [`TiledMatrix`] — a matrix packed once for many bit-identical
//!   [`Matrix::matvec`]s (the PLNN forward pass behind every `predict`).
//! * [`LuFactor`] — LU factorization with partial pivoting for square solves
//!   and determinants (the fast path of OpenAPI's consistency check).
//! * [`QrFactor`] — Householder QR for least-squares solves and numerical
//!   rank (the robust path of the consistency check, and the fitting engine
//!   behind the LIME baselines).
//!
//! The consistency check itself — Theorem 2's verdict on an overdetermined
//! system — lives in `openapi-core` (`equations::ConsistencySolver`), built
//! on these factorizations and the [`kernel`] residual sweep.
//!
//! All routines are deterministic and allocate only what they return; hot
//! paths (factor/solve) reuse caller-provided buffers where it matters.
//!
//! The [`kernel`] module adds the batched layer on top: a [`Backend`]
//! trait with blocked, SIMD-friendly kernels for boundary evaluation and
//! Theorem-2 membership over contiguous row packs, used by the cache and
//! serving tiers for the warm path.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod codec;
pub mod error;
pub mod kernel;
pub mod lu;
pub mod matrix;
pub mod qr;
pub mod stats;
pub mod vector;

pub use error::LinalgError;
pub use kernel::{Backend, BlockedBackend, RowGroup, RowMatrix, ScalarBackend};
pub use lu::LuFactor;
pub use matrix::{Matrix, TiledMatrix};
pub use qr::QrFactor;
pub use stats::Summary;
pub use vector::Vector;

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, LinalgError>;
