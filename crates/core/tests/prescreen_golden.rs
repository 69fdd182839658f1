//! Pins Algorithm 1 under the serving default's edge search,
//! `EdgeSearch::PreScreen`: seeded solves near a region boundary must keep
//! their iteration count, their query count and every bit of the
//! recovered interpretation. The segments screened per rung depend on `d`,
//! so a change to that rule or to the screen's sampling order fails here
//! first; the cases cover d = 8 and d = 35.

mod golden;

use openapi_api::{LocalLinearModel, TwoRegionPlm};
use openapi_core::{EdgeSearch, OpenApiConfig};
use openapi_linalg::{Matrix, Vector};

fn prescreen() -> OpenApiConfig {
    OpenApiConfig {
        edge_search: EdgeSearch::PreScreen,
        ..OpenApiConfig::default()
    }
}

fn solve<M: openapi_api::PredictionApi>(
    model: M,
    x0: &[f64],
    class: usize,
    seed: u64,
) -> (usize, u64, u64) {
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
        (8, 59, 0x1cc6_8827_8f9d_6297),
        (8, 64, 0x6faa_adbc_afc4_ef17),
        (3, 16, 0x566e_274e_5c52_041a),
        (8, 55, 0x2718_2426_d9be_db77),
        (8, 57, 0x26b4_ad5c_fc41_1c48),
        (8, 37, 0x32c2_c6c0_303f_e561),
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
        (8, 115, 0x1ee4_da3b_35eb_6fdf),
        (8, 79, 0x3abb_ca13_52cc_43a1),
        (8, 81, 0xec9c_4003_90b1_620c),
        (8, 95, 0x4a06_e9a4_42c1_6ea4),
        (8, 77, 0x3075_e605_6b2d_369d),
        (8, 69, 0x1151_3467_e5c2_4df0),
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
        0x1d74_021e_b6a1_cd93,
        0x6d08_5f57_9411_1d85,
        0xbadf_1b6b_c62f_124d,
        0x837e_6ab8_eba7_f31d,
        0x4eb4_28cd_9151_b2d9,
        0x0b1e_4f2e_67b8_aecf,
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
        0x1bbf_08ad_5914_bca2,
        0x5340_6348_7ce0_a65f,
        0x23ac_a7e1_5711_b005,
        0xe583_16ce_674b_30bf,
        0x8842_94c8_4304_bfd9,
        0x825c_5f10_19b8_0fc2,
    ];
    assert_eq!(got, want);
}
