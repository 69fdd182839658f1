//! `Plnn::logits` and `predict` run each weight matrix packed into 16-row
//! tiles. They must equal, bit for bit, the layer-by-layer pass that
//! `forward_trace` runs on `DenseLayer::forward` and `MaxOutLayer::forward`,
//! and a trained network must never be served from its old pack.

use openapi_api::{softmax, PredictionApi};
use openapi_data::Dataset;
use openapi_linalg::{Matrix, Vector};
use openapi_nn::{train, Activation, DenseLayer, Layer, MaxOutLayer, Plnn, TrainConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Bit equality, with any two NaNs equal (the payload of a NaN result is
/// not part of the contract).
fn same_bits(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

fn assert_same(got: &Vector, want: &Vector, what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (&g, &w)) in got.iter().zip(want.iter()).enumerate() {
        assert!(same_bits(g, w), "{what}[{i}]: {g:e} vs {w:e}");
    }
}

/// Asserts `logits` and `predict` against the layer-by-layer reference.
fn assert_matches_reference(net: &Plnn, x: &[f64], what: &str) {
    let reference = net.forward_trace(x).logits;
    assert_same(&net.logits(x), &reference, &format!("{what}: logits"));
    assert_same(
        &net.predict(x),
        &softmax(reference.as_slice()),
        &format!("{what}: predict"),
    );
}

/// A weight matrix with about one entry in five a signed zero and one row
/// in eight all −0.0, whose product with a nonnegative input is −0.0.
fn weights(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
    let mut w = Matrix::from_fn(rows, cols, |_, _| match rng.gen_range(0..10) {
        0 => 0.0,
        1 => -0.0,
        _ => rng.gen_range(-1.0..1.0),
    });
    for r in 0..rows {
        if rng.gen_range(0..8) == 0 {
            w.row_mut(r).fill(-0.0);
        }
    }
    w
}

/// A bias with about half its entries signed zeros, so the sign of a zero
/// weight product survives into the layer's output.
fn bias(rows: usize, rng: &mut StdRng) -> Vector {
    Vector(
        (0..rows)
            .map(|_| match rng.gen_range(0..4) {
                0 => 0.0,
                1 => -0.0,
                _ => rng.gen_range(-0.5..0.5),
            })
            .collect(),
    )
}

/// A stack through `widths` (`[input, hidden…, output]`) whose hidden
/// layers are Dense with `hidden` or, when `hidden` is `None`, MaxOut with
/// three pieces.
fn stack(widths: &[usize], hidden: Option<Activation>, seed: u64) -> Plnn {
    let mut rng = StdRng::seed_from_u64(seed);
    let last = widths.len() - 2;
    let layers = widths
        .windows(2)
        .enumerate()
        .map(|(i, w)| {
            let (inp, out) = (w[0], w[1]);
            match (i == last, hidden) {
                (false, None) => Layer::MaxOut(MaxOutLayer::new(
                    (0..3).map(|_| weights(out, inp, &mut rng)).collect(),
                    (0..3).map(|_| bias(out, &mut rng)).collect(),
                )),
                (is_last, act) => Layer::Dense(DenseLayer::new(
                    weights(out, inp, &mut rng),
                    bias(out, &mut rng),
                    match (is_last, act) {
                        (false, Some(act)) => act,
                        _ => Activation::Identity,
                    },
                )),
            }
        })
        .collect();
    Plnn::new(layers)
}

/// Probes for a `d`-dimensional net: signed zeros, extreme magnitudes,
/// subnormals, and ordinary values.
fn inputs(d: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let specials = [
        0.0,
        -0.0,
        1e300,
        -1e300,
        f64::MAX,
        f64::MIN_POSITIVE,
        5e-324,
        -1e-310,
    ];
    let mut xs = vec![vec![0.0; d], vec![-0.0; d], vec![1e300; d]];
    xs.push((0..d).map(|j| specials[j % specials.len()]).collect());
    for _ in 0..6 {
        xs.push(
            (0..d)
                .map(|_| match rng.gen_range(0..6) {
                    0 => specials[rng.gen_range(0..specials.len())],
                    _ => rng.gen_range(-2.0..2.0),
                })
                .collect(),
        );
    }
    xs
}

#[test]
fn logits_and_predict_equal_the_layer_by_layer_pass() {
    // Layers of 1, 15, 16, 17 and 33 rows: no full tile, one tile short,
    // one exact tile, a tile and a row, two tiles and a row.
    let shapes: [&[usize]; 4] = [
        &[7, 1, 15, 16, 17, 33, 3],
        &[5, 33, 17],
        &[9, 16, 16],
        &[4, 15, 1],
    ];
    let hidden = [
        Some(Activation::ReLU),
        Some(Activation::LeakyReLU(0.01)),
        None,
    ];
    for (s, widths) in shapes.iter().enumerate() {
        for (h, act) in hidden.iter().enumerate() {
            let seed = (10 * s + h) as u64;
            let net = stack(widths, *act, seed);
            for (i, x) in inputs(widths[0], seed).iter().enumerate() {
                assert_matches_reference(&net, x, &format!("{widths:?} {act:?} input {i}"));
            }
        }
    }
    // The smoke panel's [196, 32, 16, 10] network, as `Plnn::mlp` and
    // `Plnn::maxout_mlp` initialize it.
    let mut rng = StdRng::seed_from_u64(196);
    let smoke = [
        Plnn::mlp(&[196, 32, 16, 10], Activation::ReLU, &mut rng),
        Plnn::mlp(&[196, 32, 16, 10], Activation::LeakyReLU(0.1), &mut rng),
        Plnn::maxout_mlp(&[196, 32, 16, 10], 2, &mut rng),
    ];
    for (n, net) in smoke.iter().enumerate() {
        for (i, x) in inputs(196, 100 + n as u64).iter().enumerate() {
            assert_matches_reference(net, x, &format!("smoke net {n} input {i}"));
        }
    }
}

#[test]
fn training_drops_the_stale_pack() {
    let mut rng = StdRng::seed_from_u64(7);
    for mut net in [
        Plnn::mlp(&[6, 17, 3], Activation::ReLU, &mut rng),
        Plnn::maxout_mlp(&[6, 17, 3], 2, &mut rng),
    ] {
        let xs: Vec<Vector> = (0..32)
            .map(|_| Vector((0..6).map(|_| rng.gen_range(-1.0..1.0)).collect()))
            .collect();
        let labels = xs.iter().map(|x| usize::from(x[0] > 0.0)).collect();
        let data = Dataset::new(xs.clone(), labels, 3).unwrap();
        let x = xs[0].as_slice();
        let before = net.predict(x);
        let cfg = TrainConfig {
            epochs: 1,
            batch_size: 8,
            ..TrainConfig::default()
        };
        train(&mut net, &data, &cfg, &mut rng);
        assert_ne!(net.predict(x), before, "training changed nothing");
        for (i, x) in xs.iter().enumerate() {
            assert_matches_reference(&net, x, &format!("after training, input {i}"));
        }
    }
}
