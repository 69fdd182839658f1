#![forbid(unsafe_code)]
#![deny(missing_docs)]
//! Shared fixtures for the Criterion benchmark harness.
//!
//! Benches that interpret a trained PLM share one panel; training inside
//! the benchmark loop would swamp the measurement, so the panel is built
//! once per process behind a `OnceLock` at the bench-default scale (smoke
//! profile: `d = 196`, small models — the kernels under measurement are
//! identical to paper scale, only `d` and instance counts shrink). The
//! paper's figures and tables are `openapi-exp`'s job
//! (`openapi-exp <experiment> --profile smoke`).

use openapi_api::GroundTruthOracle;
use openapi_data::SynthStyle;
use openapi_eval::panel::build_plnn_panel;
use openapi_eval::{ExperimentConfig, Panel, Profile};
use openapi_linalg::Vector;
use std::collections::HashMap;
use std::sync::OnceLock;

/// The benchmark-scale experiment configuration (smoke profile).
pub fn bench_config() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::for_profile(Profile::Smoke);
    cfg.out_dir = std::env::temp_dir().join("openapi_bench_out");
    cfg
}

/// A trained PLNN panel on synthetic MNIST, built once.
pub fn plnn_panel() -> &'static Panel {
    static PANEL: OnceLock<Panel> = OnceLock::new();
    PANEL.get_or_init(|| build_plnn_panel(&bench_config(), SynthStyle::MnistLike))
}

/// Prints a one-line banner tying a bench target to its paper artifact.
pub fn banner(artifact: &str, detail: &str) {
    println!("\n### regenerating {artifact} at bench scale — {detail} ###");
}

/// `workload` test instances of the PLNN panel cycled round-robin over its
/// `max_regions` most populous regions (deterministic: ties broken by first
/// test index) — the shape real traffic has: many users, few hot regions.
/// The `service_throughput` and `store_warmstart` benches share it, so
/// their numbers compare like for like.
pub fn hot_region_workload(workload: usize, max_regions: usize) -> Vec<Vector> {
    let panel = plnn_panel();
    let mut by_region: HashMap<_, Vec<usize>> = HashMap::new();
    for i in 0..panel.test.len() {
        let id = panel.model.region_id(panel.test.instance(i).as_slice());
        by_region.entry(id).or_default().push(i);
    }
    let mut groups: Vec<Vec<usize>> = by_region.into_values().collect();
    groups.sort_by_key(|g| (std::cmp::Reverse(g.len()), g[0]));
    groups.truncate(max_regions.max(1));
    (0..workload)
        .map(|k| {
            let group = &groups[k % groups.len()];
            panel.test.instance(group[(k / groups.len()) % group.len()])
        })
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build_and_cache() {
        let a = plnn_panel();
        let b = plnn_panel();
        assert!(std::ptr::eq(a, b), "OnceLock must cache");
        assert!(a.train_accuracy > 0.5);
    }
}
