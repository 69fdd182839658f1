//! The wrappers the benchmark passes into the stack from outside: a
//! `PredictionApi` that counts every query (and, traced, times it) and a
//! kernel `Backend` that counts and times every pass.

use openapi_api::PredictionApi;
use openapi_eval::PanelModel;
use openapi_linalg::kernel::{default_backend, Backend, RowGroup, RowMatrix};
use openapi_linalg::{Matrix, Vector};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The wrappers' timing switch (on by default). Off, an instrumented
/// service's wrappers only count and forward, so an interleaved A/B of this
/// switch prices the benchmark's own tracing.
static TIMING: AtomicBool = AtomicBool::new(true);

pub fn set_timing(on: bool) {
    // Relaxed: an independent on/off knob that publishes nothing.
    TIMING.store(on, Ordering::Relaxed);
}

fn timing() -> bool {
    TIMING.load(Ordering::Relaxed)
}

fn add(counter: &AtomicU64, n: u64) {
    // Relaxed: statistics only, read after the client streams have joined.
    counter.fetch_add(n, Ordering::Relaxed);
}

fn load(counter: &AtomicU64) -> u64 {
    counter.load(Ordering::Relaxed)
}

fn since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Queries answered and, when timed, their total wall time.
#[derive(Debug, Default)]
pub struct ApiMeter {
    calls: AtomicU64,
    busy_ns: AtomicU64,
}

impl ApiMeter {
    pub fn calls(&self) -> u64 {
        load(&self.calls)
    }

    pub fn busy_ns(&self) -> u64 {
        load(&self.busy_ns)
    }
}

/// The hidden model as the service sees it: `PredictionApi` only. Every
/// query is counted, since the ledger reconciles this count against the
/// service's; when `timed` (and the timing switch is on), each query's
/// wall time is metered too.
pub struct MeteredApi {
    model: Arc<PanelModel>,
    meter: Arc<ApiMeter>,
    timed: bool,
}

impl MeteredApi {
    pub fn new(model: Arc<PanelModel>, timed: bool) -> Self {
        MeteredApi {
            model,
            meter: Arc::default(),
            timed,
        }
    }

    pub fn meter(&self) -> Arc<ApiMeter> {
        Arc::clone(&self.meter)
    }
}

impl PredictionApi for MeteredApi {
    fn dim(&self) -> usize {
        self.model.dim()
    }

    fn num_classes(&self) -> usize {
        self.model.num_classes()
    }

    fn predict(&self, x: &[f64]) -> Vector {
        add(&self.meter.calls, 1);
        if !(self.timed && timing()) {
            return self.model.predict(x);
        }
        let start = Instant::now();
        let probs = self.model.predict(x);
        add(&self.meter.busy_ns, since(start));
        probs
    }
}

/// Kernel passes, the boundary rows they evaluated, and their wall time.
#[derive(Debug, Default)]
pub struct KernelMeter {
    calls: AtomicU64,
    rows: AtomicU64,
    busy_ns: AtomicU64,
}

impl KernelMeter {
    /// `[passes, rows, busy ns]`.
    pub fn counts(&self) -> [u64; 3] {
        [load(&self.calls), load(&self.rows), load(&self.busy_ns)]
    }
}

/// The default backend, counted and timed while the timing switch is on;
/// reaches the cache through `SharedCacheConfig::backend`.
#[derive(Debug)]
pub struct TimedBackend {
    inner: Arc<dyn Backend>,
    meter: Arc<KernelMeter>,
}

impl TimedBackend {
    pub fn new(meter: Arc<KernelMeter>) -> Self {
        TimedBackend {
            inner: default_backend(),
            meter,
        }
    }

    fn pass(&self, rows: usize, start: Instant) {
        add(&self.meter.busy_ns, since(start));
        add(&self.meter.calls, 1);
        add(&self.meter.rows, rows as u64);
    }
}

impl Backend for TimedBackend {
    fn name(&self) -> &'static str {
        "timed"
    }

    fn boundary_eval(
        &self,
        w: &RowMatrix,
        bias: &[f64],
        x: &[f64],
        rows: Range<usize>,
        y: &mut Vec<f64>,
    ) {
        if !timing() {
            return self.inner.boundary_eval(w, bias, x, rows, y);
        }
        let (n, start) = (rows.len(), Instant::now());
        self.inner.boundary_eval(w, bias, x, rows, y);
        self.pass(n, start);
    }

    fn boundary_eval_batch(
        &self,
        w: &RowMatrix,
        bias: &[f64],
        xs: &[&[f64]],
        rows: Range<usize>,
        y: &mut Vec<f64>,
    ) {
        if !timing() {
            return self.inner.boundary_eval_batch(w, bias, xs, rows, y);
        }
        let (n, start) = (rows.len() * xs.len(), Instant::now());
        self.inner.boundary_eval_batch(w, bias, xs, rows, y);
        self.pass(n, start);
    }

    fn membership_verdicts(
        &self,
        y: &[f64],
        targets: &[f64],
        rtol: f64,
        groups: &[RowGroup],
        out: &mut Vec<bool>,
    ) {
        if !timing() {
            return self
                .inner
                .membership_verdicts(y, targets, rtol, groups, out);
        }
        let start = Instant::now();
        self.inner
            .membership_verdicts(y, targets, rtol, groups, out);
        add(&self.meter.busy_ns, since(start));
    }

    fn residual_inf(&self, a: &Matrix, from_row: usize, x: &[f64], b: &[f64]) -> f64 {
        if !timing() {
            return self.inner.residual_inf(a, from_row, x, b);
        }
        let start = Instant::now();
        let worst = self.inner.residual_inf(a, from_row, x, b);
        add(&self.meter.busy_ns, since(start));
        worst
    }
}
