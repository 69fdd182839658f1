//! Pins Algorithm 1 under the paper's policy, `OpenApiConfig::default()`:
//! seeded solves must keep their iteration count, their query count and
//! every bit of the recovered interpretation. The figure experiments and
//! `openapi-exp` report these numbers as the paper's, so a change to the
//! default edge search or sampling order fails here first.

mod golden;

use openapi_api::{LinearSoftmaxModel, LocalLinearModel, TwoRegionPlm};
use openapi_core::OpenApiConfig;
use openapi_linalg::{Matrix, Vector};

/// The d=4, C=4 logistic model of the `openapi` unit tests (one region).
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

/// The d=2 two-region fixture of the `openapi` unit tests, split at
/// `x_0 = 0.5`.
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

/// `(iterations, queries, digest)` of one seeded default-policy solve.
fn solve<M: openapi_api::PredictionApi>(
    model: M,
    x0: &[f64],
    class: usize,
    seed: u64,
) -> (usize, u64, u64) {
    golden::solve(OpenApiConfig::default(), model, x0, class, seed)
}

#[test]
fn linear_model_solves_are_pinned() {
    let x0 = [0.3, -0.2, 0.5, 0.1];
    let got: Vec<_> = (0..4)
        .map(|class| solve(linear_model(), &x0, class, 100 + class as u64))
        .collect();
    let want = [
        (1, 6, 0xe470_56dc_ce2b_9558),
        (1, 6, 0x840a_d92c_ae83_2c3a),
        (1, 6, 0x695c_22d9_2f4c_9803),
        (1, 6, 0x7c62_b8da_5251_e82e),
    ];
    assert_eq!(got, want);
}

#[test]
fn near_boundary_two_region_solves_are_pinned() {
    // x0 sits 0.01 from the split, so most seeds shrink the cube first.
    let x0 = [0.49, 0.3];
    let got: Vec<_> = (0..6)
        .map(|seed| solve(two_region_model(), &x0, (seed % 2) as usize, seed))
        .collect();
    let want = [
        (1, 4, 0x6287_54e5_ad97_1d12),
        (8, 25, 0x0561_6146_3936_b9c5),
        (2, 7, 0xc982_894d_da08_997a),
        (3, 10, 0x108d_9f4f_7cb8_db33),
        (8, 25, 0xcc61_de09_ac55_05f9),
        (5, 16, 0x65cf_a570_5020_902e),
    ];
    assert_eq!(got, want);
}

#[test]
fn linear_model_rung_logs_are_pinned() {
    let x0 = [0.3, -0.2, 0.5, 0.1];
    let got: Vec<_> = (0..4)
        .map(|class| {
            golden::rungs(
                OpenApiConfig::default(),
                linear_model(),
                &x0,
                class,
                100 + class as u64,
            )
        })
        .collect();
    let want = [
        0x2e54_880b_d09c_72ac,
        0x3e40_3bc0_edeb_0d6c,
        0x25c1_525f_cb77_e590,
        0xf787_2e28_f88e_6292,
    ];
    assert_eq!(got, want);
}

#[test]
fn near_boundary_two_region_rung_logs_are_pinned() {
    let x0 = [0.49, 0.3];
    let got: Vec<_> = (0..6)
        .map(|seed| {
            let class = (seed % 2) as usize;
            golden::rungs(
                OpenApiConfig::default(),
                two_region_model(),
                &x0,
                class,
                seed,
            )
        })
        .collect();
    let want = [
        0x0c19_c351_0ac5_139a,
        0xc68a_f738_2ebb_60e0,
        0xac1e_1d09_859d_f6b6,
        0xf4ed_86a9_f305_fdb3,
        0x54d0_bc58_8001_81df,
        0x661d_08cc_46e4_7e77,
    ];
    assert_eq!(got, want);
}
