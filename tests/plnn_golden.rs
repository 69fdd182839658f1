//! Pins Algorithm 1 on seeded piecewise-linear networks: a ReLU MLP and a
//! MaxOut MLP, each interpreted under the paper's edge search
//! (`EdgeSearch::Halving`) and the serving default's
//! (`EdgeSearch::PreScreen`). Every solve must keep its iteration count,
//! its query count, every bit of the recovered interpretation and every
//! field of every rung's log, and the serving default's solves must land
//! within 1e-7 L1 of the network's own decision features. The networks'
//! forward pass is the dense `Matrix::matvec` kernel, and the solves run
//! the LU (the whole `Ω` under halving, the off-axis block under the
//! pre-screen) and the consistency check at d = 64, so a change to any of
//! them that moves one bit fails here. The hidden widths (30, 13, 18) are
//! deliberately not multiples of four.

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

/// Each seeded solve of `pins` under the serving default lands within
/// 1e-7 L1 of the network's own decision features at `x0`.
fn assert_prescreen_exact(net: fn() -> Plnn) {
    for seed in 0..4u64 {
        let (x0, class) = (instance(seed), (seed % 10) as usize);
        let l1 = golden::l1_to_oracle(config(EdgeSearch::PreScreen), net(), &x0, class, seed);
        assert!(l1 <= 1e-7, "seed {seed}: L1 {l1} to the oracle");
    }
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
        ((8, 102, 0x9103_db61_a567_43b6), 0x7a17_dfd7_cddc_403a),
        ((7, 98, 0xba77_2e65_220b_b07a), 0x1780_031c_bdd9_873c),
        ((7, 90, 0x6784_8104_e21a_823f), 0x0f38_5f4d_3d14_3420),
        ((10, 104, 0xb36f_6980_2f35_dc40), 0x9787_c3a5_65ca_5a20),
    ];
    assert_prescreen_exact(relu_net);
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
        ((7, 100, 0xffd9_edf0_6dcc_73ef), 0x579d_cde2_f666_5bfc),
        ((8, 108, 0x3e48_9545_d5e8_a195), 0x5eef_e577_eb02_7498),
        ((5, 86, 0x6698_92ef_b5cf_1841), 0x76f4_9ed5_93f8_a13c),
        ((10, 177, 0x0f41_8817_47f2_68cd), 0xf064_f87e_cb79_74c7),
    ];
    assert_prescreen_exact(maxout_net);
    assert_eq!(pins(maxout_net, EdgeSearch::PreScreen), want);
}
