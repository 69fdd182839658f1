//! The batch driver: one deterministic fan-out path for every per-instance
//! experiment.
//!
//! Figures 3–7 all share the same skeleton — select evaluation instances,
//! pair each with its predicted class, fan the per-instance work out over
//! [`parallel_map`] with per-item seeded RNGs. [`BatchDriver`] owns that
//! skeleton so each experiment states only its per-instance kernel, and the
//! selection/seeding conventions can never drift apart between figures.
//!
//! Determinism contract: [`BatchDriver::run`] and [`BatchDriver::run_items`]
//! are thin wrappers over [`parallel_map`] with the experiment seed — for a
//! fixed seed their outputs are **bit-identical** to the inline
//! `parallel_map` calls they replaced, at any thread count.
//!
//! The region-deduplicating pass of the `queries` experiment sends the same
//! work items, in order, through a one-worker `openapi-serve` service, whose
//! request `i` draws item `i`'s [`crate::parallel::item_rng`] stream.

use crate::config::ExperimentConfig;
use crate::panel::{eval_indices, Panel};
use crate::parallel::parallel_map;
use openapi_linalg::Vector;
use rand::rngs::StdRng;

/// One evaluation work item: a test-set instance and the class to interpret.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalItem {
    /// Index into the panel's test set.
    pub index: usize,
    /// Class to interpret (the model's predicted label at the instance).
    pub class: usize,
}

/// Per-panel experiment driver (see the module docs).
#[derive(Debug)]
pub struct BatchDriver<'a> {
    panel: &'a Panel,
    seed: u64,
    indices: Vec<usize>,
    items: Vec<EvalItem>,
}

impl<'a> BatchDriver<'a> {
    /// Selects `cfg.eval_instances` instances from the panel's test set
    /// (deterministically from `cfg.seed`) and pairs each with its
    /// predicted class — the selection every figure experiment shares.
    pub fn new(panel: &'a Panel, cfg: &ExperimentConfig) -> Self {
        let indices = eval_indices(panel, cfg.eval_instances, cfg.seed);
        let classes = crate::experiments::predicted_classes(panel, &indices);
        let items = indices
            .iter()
            .zip(&classes)
            .map(|(&index, &class)| EvalItem { index, class })
            .collect();
        BatchDriver {
            panel,
            seed: cfg.seed,
            indices,
            items,
        }
    }

    /// The driven panel.
    pub fn panel(&self) -> &'a Panel {
        self.panel
    }

    /// Selected test-set indices, in selection order.
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// The work items, in selection order.
    pub fn items(&self) -> &[EvalItem] {
        &self.items
    }

    /// Number of work items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether no instances were selected.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The test-set instance of a work item.
    pub fn instance(&self, item: EvalItem) -> &'a Vector {
        self.panel.test.instance(item.index)
    }

    /// Fans `f(item, instance, rng)` out over the work items via
    /// [`parallel_map`]; bit-identical to the inline call it replaces.
    pub fn run<U, F>(&self, f: F) -> Vec<U>
    where
        U: Send,
        F: Fn(EvalItem, &Vector, &mut StdRng) -> U + Sync,
    {
        parallel_map(&self.items, self.seed, |_, &item, rng| {
            f(item, self.instance(item), rng)
        })
    }

    /// Fans `f` out over a custom item list (e.g. Figure 4's
    /// nearest-neighbour pairs) with the driver's seed. Signature matches
    /// [`parallel_map`] exactly, so existing kernels move over verbatim.
    pub fn run_items<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(usize, &T, &mut StdRng) -> U + Sync,
    {
        parallel_map(items, self.seed, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Profile;
    use crate::panel::build_lmt_panel;
    use openapi_api::PredictionApi;
    use openapi_core::Method;
    use openapi_data::SynthStyle;

    fn smoke_panel() -> (ExperimentConfig, Panel) {
        let cfg = ExperimentConfig::for_profile(Profile::Smoke);
        let panel = build_lmt_panel(&cfg, SynthStyle::MnistLike);
        (cfg, panel)
    }

    #[test]
    fn driver_selection_matches_the_shared_helpers() {
        let (cfg, panel) = smoke_panel();
        let driver = BatchDriver::new(&panel, &cfg);
        assert_eq!(driver.len(), cfg.eval_instances.min(panel.test.len()));
        assert!(!driver.is_empty());
        assert_eq!(
            driver.indices(),
            eval_indices(&panel, cfg.eval_instances, cfg.seed).as_slice()
        );
        for item in driver.items() {
            assert_eq!(
                item.class,
                panel
                    .model
                    .predict_label(panel.test.instance(item.index).as_slice())
            );
        }
    }

    /// The refactor's acceptance criterion: `run` must be bit-identical to
    /// the inline `parallel_map` pattern the figure experiments used before.
    #[test]
    fn run_is_bit_identical_to_inline_parallel_map() {
        let (cfg, panel) = smoke_panel();
        let driver = BatchDriver::new(&panel, &cfg);
        let method = Method::default();
        let via_driver: Vec<Option<Vector>> =
            driver.run(|item, x0, rng| method.attribution(&panel.model, x0, item.class, rng).ok());
        // The pre-refactor shape: zip indices with classes, fan out inline.
        let indices = eval_indices(&panel, cfg.eval_instances, cfg.seed);
        let classes: Vec<usize> = indices
            .iter()
            .map(|&i| panel.model.predict_label(panel.test.instance(i).as_slice()))
            .collect();
        let items: Vec<(usize, usize)> = indices
            .iter()
            .copied()
            .zip(classes.iter().copied())
            .collect();
        let inline: Vec<Option<Vector>> =
            parallel_map(&items, cfg.seed, |_, &(idx, class), rng| {
                method
                    .attribution(&panel.model, panel.test.instance(idx), class, rng)
                    .ok()
            });
        assert_eq!(via_driver, inline);
    }
}
