#![forbid(unsafe_code)]
#![deny(missing_docs)]
//! Facade crate for the OpenAPI reproduction workspace.
//!
//! Re-exports every member crate under a stable, discoverable namespace so
//! that downstream users (and the `examples/` and `tests/` in this package)
//! can depend on a single crate:
//!
//! ```
//! use openapi_repro::prelude::*;
//! ```
//!
//! See the workspace `README.md` for the project overview,
//! `docs/ARCHITECTURE.md` for the tier-by-tier system design and its
//! mapping onto the paper, and `docs/PROTOCOL.md` for the byte-level wire
//! protocol of the `openapi-net` serving tier.

pub use openapi_api as api;
pub use openapi_core as core;
pub use openapi_data as data;
pub use openapi_fabric as fabric;
pub use openapi_linalg as linalg;
pub use openapi_lmt as lmt;
pub use openapi_metrics as metrics;
pub use openapi_net as net;
pub use openapi_nn as nn;
pub use openapi_serve as serve;
pub use openapi_store as store;
pub use openapi_sync as sync;
pub use openapi_trace as trace;

/// The most commonly used items across the workspace, in one import.
pub mod prelude {
    pub use openapi_api::{GradientOracle, GroundTruthOracle, PredictionApi};
    pub use openapi_core::batch::{BatchConfig, BatchInterpreter, BatchOutcome, BatchStats};
    pub use openapi_core::cache::{RegionCache, RegionCacheConfig};
    pub use openapi_core::decision::{Interpretation, PairwiseCoreParams, RegionFingerprint};
    pub use openapi_core::openapi::{EdgeSearch, OpenApiConfig, OpenApiInterpreter, OpenApiResult};
    pub use openapi_core::Method;
    pub use openapi_fabric::{FabricConfig, FabricNode};
    pub use openapi_linalg::{Matrix, Vector};
    pub use openapi_net::{Client, ClientError, ModelInfo, RemoteServed, Server, ServerConfig};
    pub use openapi_serve::{
        InterpretRequest, InterpretationService, ServeOutcome, ServiceConfig, ServiceCore,
        SharedCacheConfig, SharedRegionCache, Ticket,
    };
    pub use openapi_store::{RegionStore, StoreConfig, StoreError};
    pub use openapi_trace::{RequestSpan, Stage, TraceEvent};
}
