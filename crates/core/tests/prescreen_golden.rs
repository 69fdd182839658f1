//! Pins Algorithm 1 under the serving default's edge search,
//! `EdgeSearch::PreScreen`: seeded solves near a region boundary must keep
//! their iteration count, their query count and every bit of the
//! recovered interpretation, and each must land within 1e-7 L1 of the
//! hidden model's own decision features. The segments screened per rung
//! depend on `d`, so a change to that rule, to the screen's sampling order
//! or to the axis fill fails here first; the cases cover d = 8 and d = 35.

mod golden;

use openapi_api::{GroundTruthOracle, LocalLinearModel, PredictionApi, TwoRegionPlm};
use openapi_core::{EdgeSearch, OpenApiConfig};
use openapi_linalg::{Matrix, Vector};

fn prescreen() -> OpenApiConfig {
    OpenApiConfig {
        edge_search: EdgeSearch::PreScreen,
        ..OpenApiConfig::default()
    }
}

/// `(iterations, queries, digest)` of one seeded solve, which must also
/// land within 1e-7 L1 of the oracle's decision features.
fn solve<M: PredictionApi + GroundTruthOracle + Clone>(
    model: M,
    x0: &[f64],
    class: usize,
    seed: u64,
) -> (usize, u64, u64) {
    let l1 = golden::l1_to_oracle(prescreen(), model.clone(), x0, class, seed);
    assert!(l1 <= 1e-7, "seed {seed}: L1 {l1} to the oracle");
    golden::solve(prescreen(), model, x0, class, seed)
}

/// The d=35, C=3 two-region model of the `openapi` unit tests, split at
/// `x_0 = 0.5`.
fn wide_two_region_model() -> TwoRegionPlm {
    let d = 35;
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

#[test]
fn reference_fixture_solves_near_its_split_are_pinned() {
    // The reference fixture splits axis 1 at 0.25; x0 sits 0.01 below it.
    let got: Vec<_> = (0..6)
        .map(|seed| {
            let mut x0 = TwoRegionPlm::reference_instance(seed);
            x0[1] = 0.24;
            let class = seed % 3;
            solve(TwoRegionPlm::reference(), x0.as_slice(), class, seed as u64)
        })
        .collect();
    let want = [
        (1, 12, 0xe027_82ed_c45f_b3f4),
        (8, 50, 0xe182_5892_b62c_c6eb),
        (3, 16, 0x0904_1eaf_eb36_bf5f),
        (7, 46, 0x39f1_251d_395d_bf64),
        (8, 50, 0xb7d8_4421_65de_c516),
        (7, 33, 0x9fbf_7a06_c3ef_c107),
    ];
    assert_eq!(got, want);
}

#[test]
fn wide_two_region_solves_near_the_split_are_pinned() {
    let mut x0 = vec![0.1; 35];
    x0[0] = 0.49;
    let got: Vec<_> = (0..6)
        .map(|seed| solve(wide_two_region_model(), &x0, (seed % 3) as usize, seed))
        .collect();
    let want = [
        (8, 115, 0x82ae_2a22_1834_3c77),
        (8, 79, 0xe981_e335_0e67_5c7c),
        (8, 81, 0xbd00_3352_1e5d_db48),
        (8, 95, 0x4cbe_df7e_1ece_5338),
        (8, 77, 0x8730_ee04_4ea6_bf52),
        (8, 69, 0x2b38_25c0_816f_acd8),
    ];
    assert_eq!(got, want);
}

#[test]
fn reference_fixture_rung_logs_are_pinned() {
    let got: Vec<_> = (0..6)
        .map(|seed| {
            let mut x0 = TwoRegionPlm::reference_instance(seed);
            x0[1] = 0.24;
            let class = seed % 3;
            golden::rungs(
                prescreen(),
                TwoRegionPlm::reference(),
                x0.as_slice(),
                class,
                seed as u64,
            )
        })
        .collect();
    let want = [
        0xcca4_332a_23fd_fe54,
        0x3fcc_dd6d_fbc7_0090,
        0x4e3e_fdec_e45d_3777,
        0x6aa1_3a5d_9ea2_ed5b,
        0x2172_989e_530a_922c,
        0x8f34_b1f9_5c1c_6270,
    ];
    assert_eq!(got, want);
}

#[test]
fn wide_two_region_rung_logs_are_pinned() {
    let mut x0 = vec![0.1; 35];
    x0[0] = 0.49;
    let got: Vec<_> = (0..6)
        .map(|seed| {
            let class = (seed % 3) as usize;
            golden::rungs(prescreen(), wide_two_region_model(), &x0, class, seed)
        })
        .collect();
    let want = [
        0x7a29_50fc_baf7_2878,
        0xa05e_49c1_7210_da50,
        0x6134_eaf6_8a71_72c7,
        0xdc69_2bd0_637f_af89,
        0x789d_3fd3_f685_a673,
        0xecef_3287_22ea_d610,
    ];
    assert_eq!(got, want);
}
