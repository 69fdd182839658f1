//! Pins Algorithm 1 on seeded piecewise-linear networks: a ReLU MLP and a
//! MaxOut MLP, each interpreted under the paper's edge search
//! (`EdgeSearch::Halving`) and the serving default's
//! (`EdgeSearch::PreScreen`). Every solve must keep its iteration count,
//! its query count, every bit of the recovered interpretation and every
//! field of every rung's log. The networks' forward pass is the dense
//! `Matrix::matvec` kernel, and the solves run the LU and the consistency
//! check at d = 64, so a change to any of them that moves one bit fails
//! here. The hidden widths (30, 13, 18) are deliberately not multiples of
//! four.

#[path = "../crates/core/tests/golden/mod.rs"]
mod golden;

use openapi_repro::nn::{Activation, Plnn};
use openapi_repro::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const D: usize = 64;

fn relu_net() -> Plnn {
    let mut rng = StdRng::seed_from_u64(41);
    Plnn::mlp(&[D, 30, 13, 10], Activation::ReLU, &mut rng)
}

fn maxout_net() -> Plnn {
    let mut rng = StdRng::seed_from_u64(42);
    Plnn::maxout_mlp(&[D, 18, 10], 3, &mut rng)
}

/// A seeded instance in `[0, 1)^D`.
fn instance(seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(1000 + seed);
    (0..D).map(|_| rng.gen_range(0.0..1.0)).collect()
}

fn config(edge_search: EdgeSearch) -> OpenApiConfig {
    OpenApiConfig {
        edge_search,
        ..OpenApiConfig::default()
    }
}

/// `((iterations, queries, digest), rung-log digest)` of the seeded solves
/// of `net` for seeds `0..4`, interpreting class `seed % 10`.
fn pins(net: fn() -> Plnn, edge_search: EdgeSearch) -> Vec<((usize, u64, u64), u64)> {
    (0..4u64)
        .map(|seed| {
            let x0 = instance(seed);
            let class = (seed % 10) as usize;
            let solved = golden::solve(config(edge_search), net(), &x0, class, seed);
            let rungs = golden::rungs(config(edge_search), net(), &x0, class, seed);
            (solved, rungs)
        })
        .collect()
}

#[test]
fn relu_halving_solves_are_pinned() {
    let want = [
        ((8, 521, 0x4ef4_543e_9c43_8099), 0x45b4_7bf4_731a_a4f2),
        ((8, 521, 0xcbe0_b7f1_c703_a75f), 0xa871_48bc_d31a_8d89),
        ((8, 521, 0xb781_fd86_0493_05dd), 0xf946_2dec_f334_a583),
        ((10, 651, 0xb84e_7fb0_4060_b949), 0xf2f1_0a6f_121a_601c),
    ];
    assert_eq!(pins(relu_net, EdgeSearch::Halving), want);
}

#[test]
fn relu_prescreen_solves_are_pinned() {
    let want = [
        ((9, 177, 0x7643_2934_3c47_d75a), 0x6a23_1ad5_e739_ea9b),
        ((8, 173, 0xe3b3_0eef_05dc_0948), 0x54b7_badf_72d4_1e93),
        ((8, 165, 0x9cfd_b18c_65a4_7ab2), 0x352c_5c83_8847_9db0),
        ((11, 179, 0xe8e6_7fe2_9d0a_ddc8), 0x9de8_75ac_bda5_3a23),
    ];
    assert_eq!(pins(relu_net, EdgeSearch::PreScreen), want);
}

#[test]
fn maxout_halving_solves_are_pinned() {
    let want = [
        ((7, 456, 0xc2db_6def_13a3_2e7f), 0x616f_965c_8098_bb58),
        ((9, 586, 0xcb0b_b7a8_5b26_d5bc), 0xa507_5b11_d296_6926),
        ((6, 391, 0x0f4a_b6b2_ef25_67ca), 0x1559_f4e2_d0b8_e4f5),
        ((11, 716, 0x94c7_50f1_3a66_628c), 0x5e62_c908_02a5_0ebb),
    ];
    assert_eq!(pins(maxout_net, EdgeSearch::Halving), want);
}

#[test]
fn maxout_prescreen_solves_are_pinned() {
    let want = [
        ((8, 175, 0x0049_517d_11d8_43bd), 0xd405_1ef7_e14d_124c),
        ((8, 108, 0x2fb9_069a_e543_ba53), 0x3b5a_8f46_134b_217a),
        ((6, 161, 0x19f2_aad5_22d6_6d8b), 0x6be4_b071_ce30_a50f),
        ((11, 191, 0x81b1_0201_f5af_b58a), 0x4f0f_d07e_1fb5_522c),
    ];
    assert_eq!(pins(maxout_net, EdgeSearch::PreScreen), want);
}
