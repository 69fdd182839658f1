//! The piecewise linear network: layer stack, forward pass, predictions.

use crate::activation::Activation;
use crate::init;
use crate::layer::DenseLayer;
use crate::maxout::MaxOutLayer;
use openapi_api::{softmax, PredictionApi};
use openapi_linalg::{TiledMatrix, Vector};
use rand::Rng;
use std::fmt;
use std::sync::OnceLock;

/// One layer of a [`Plnn`].
#[derive(Debug, Clone, PartialEq)]
pub enum Layer {
    /// Dense affine layer with an elementwise PWL activation.
    Dense(DenseLayer),
    /// MaxOut layer (max over affine pieces).
    MaxOut(MaxOutLayer),
}

impl Layer {
    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        match self {
            Layer::Dense(l) => l.input_dim(),
            Layer::MaxOut(l) => l.input_dim(),
        }
    }

    /// Output dimensionality.
    pub fn output_dim(&self) -> usize {
        match self {
            Layer::Dense(l) => l.output_dim(),
            Layer::MaxOut(l) => l.output_dim(),
        }
    }

    /// Number of trainable parameters.
    pub fn param_count(&self) -> usize {
        match self {
            Layer::Dense(l) => l.param_count(),
            Layer::MaxOut(l) => l.param_count(),
        }
    }
}

/// Per-layer forward-pass record, retained for backprop and region
/// extraction.
#[derive(Debug, Clone)]
pub enum LayerTrace {
    /// Dense layer: the pre-activation vector.
    Dense {
        /// `W·x + b` before the activation.
        pre: Vector,
    },
    /// MaxOut layer: which piece won at each unit.
    MaxOut {
        /// Selected piece index per output unit.
        selection: Vec<usize>,
    },
}

/// Full forward trace: inputs to every layer plus per-layer records and the
/// final logits.
#[derive(Debug, Clone)]
pub struct ForwardTrace {
    /// `inputs[l]` is the input vector fed to layer `l`; `inputs[0]` is the
    /// network input.
    pub inputs: Vec<Vector>,
    /// Per-layer records aligned with the layer stack.
    pub layers: Vec<LayerTrace>,
    /// Output of the last layer (logits — the last layer is linear).
    pub logits: Vector,
}

/// A feed-forward piecewise linear network.
///
/// Invariants (validated at construction):
/// * consecutive layer dimensions chain,
/// * the final layer is a [`DenseLayer`] with [`Activation::Identity`]
///   (it produces logits; [`PredictionApi::predict`] applies softmax).
#[derive(Clone)]
pub struct Plnn {
    layers: Vec<Layer>,
    /// Each layer's weight matrices (one, or one per MaxOut piece) packed
    /// for [`Plnn::logits`]: built on first use, dropped by
    /// [`Plnn::layers_mut`], the only way to change a layer.
    packed: OnceLock<Vec<Vec<TiledMatrix>>>,
}

impl fmt::Debug for Plnn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Plnn")
            .field("layers", &self.layers)
            .finish_non_exhaustive()
    }
}

/// Networks are equal when their layers are; the pack is derived from them.
impl PartialEq for Plnn {
    fn eq(&self, other: &Self) -> bool {
        self.layers == other.layers
    }
}

impl Plnn {
    /// Builds a network from a layer stack.
    ///
    /// # Panics
    /// Panics when the stack is empty, dimensions do not chain, or the final
    /// layer is not a linear dense layer.
    pub fn new(layers: Vec<Layer>) -> Self {
        assert!(!layers.is_empty(), "Plnn needs at least one layer");
        for w in layers.windows(2) {
            assert_eq!(
                w[0].output_dim(),
                w[1].input_dim(),
                "layer dimensions do not chain: {} -> {}",
                w[0].output_dim(),
                w[1].input_dim()
            );
        }
        match layers.last().expect("non-empty") {
            Layer::Dense(d) => assert_eq!(
                d.activation,
                Activation::Identity,
                "final layer must be linear (logits feed softmax)"
            ),
            Layer::MaxOut(_) => panic!("final layer must be a linear dense layer"),
        }
        Plnn {
            layers,
            packed: OnceLock::new(),
        }
    }

    /// Builds a fully-connected MLP with the given layer widths
    /// (`dims = [input, hidden…, output]`), `activation` on hidden layers,
    /// He-initialized hidden weights, and a Xavier-initialized linear output.
    ///
    /// # Panics
    /// Panics when `dims.len() < 2` or any width is zero.
    pub fn mlp<R: Rng>(dims: &[usize], activation: Activation, rng: &mut R) -> Self {
        assert!(
            dims.len() >= 2,
            "mlp needs at least input and output widths"
        );
        assert!(dims.iter().all(|&d| d > 0), "zero-width layer");
        let mut layers = Vec::with_capacity(dims.len() - 1);
        for i in 0..dims.len() - 1 {
            let (inp, out) = (dims[i], dims[i + 1]);
            let last = i == dims.len() - 2;
            let weights = if last {
                init::xavier_uniform(out, inp, rng)
            } else {
                init::he_uniform(out, inp, rng)
            };
            let act = if last {
                Activation::Identity
            } else {
                activation
            };
            layers.push(Layer::Dense(DenseLayer::new(
                weights,
                init::zero_bias(out),
                act,
            )));
        }
        Plnn::new(layers)
    }

    /// The paper's PLNN: 784-256-128-100-10 with ReLU hidden layers
    /// (the Fashion-MNIST benchmark baseline architecture).
    pub fn paper_architecture<R: Rng>(rng: &mut R) -> Self {
        Self::mlp(&[784, 256, 128, 100, 10], Activation::ReLU, rng)
    }

    /// Builds an MLP whose hidden layers are MaxOut with `pieces` affine
    /// pieces each (the other PLM nonlinearity the paper's introduction
    /// names, via Goodfellow et al.), ending in a linear output layer.
    ///
    /// # Panics
    /// Panics when `dims.len() < 2`, any width is zero, or `pieces < 2`.
    pub fn maxout_mlp<R: Rng>(dims: &[usize], pieces: usize, rng: &mut R) -> Self {
        assert!(
            dims.len() >= 2,
            "maxout_mlp needs at least input and output widths"
        );
        assert!(dims.iter().all(|&d| d > 0), "zero-width layer");
        assert!(pieces >= 2, "MaxOut needs at least 2 pieces");
        let mut layers = Vec::with_capacity(dims.len() - 1);
        for i in 0..dims.len() - 1 {
            let (inp, out) = (dims[i], dims[i + 1]);
            if i == dims.len() - 2 {
                layers.push(Layer::Dense(DenseLayer::new(
                    init::xavier_uniform(out, inp, rng),
                    init::zero_bias(out),
                    Activation::Identity,
                )));
            } else {
                let ws = (0..pieces)
                    .map(|_| init::he_uniform(out, inp, rng))
                    .collect();
                let bs = (0..pieces).map(|_| init::zero_bias(out)).collect();
                layers.push(Layer::MaxOut(MaxOutLayer::new(ws, bs)));
            }
        }
        Plnn::new(layers)
    }

    /// Borrow the layer stack.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Mutable access for the trainer. Drops the packed weights, so the
    /// next [`Plnn::logits`] packs the changed layers afresh.
    pub(crate) fn layers_mut(&mut self) -> &mut [Layer] {
        self.packed.take();
        &mut self.layers
    }

    /// Total number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// Computes logits (pre-softmax scores).
    ///
    /// Bit for bit the logits of [`Plnn::forward_trace`]: each weight
    /// product runs on the layer's [`TiledMatrix`], which keeps
    /// [`Matrix::matvec`](openapi_linalg::Matrix::matvec)'s summation order,
    /// and the bias, activation and MaxOut selection are the layers' own.
    /// The weights are packed on the first call.
    ///
    /// # Panics
    /// Panics when `x.len() != dim()`.
    pub fn logits(&self, x: &[f64]) -> Vector {
        let packed = self.packed.get_or_init(|| {
            self.layers
                .iter()
                .map(|layer| match layer {
                    Layer::Dense(l) => vec![TiledMatrix::new(&l.weights)],
                    Layer::MaxOut(l) => l.pieces.iter().map(TiledMatrix::new).collect(),
                })
                .collect()
        });
        let mut cur: Option<Vector> = None;
        for (layer, weights) in self.layers.iter().zip(packed) {
            let input = cur.as_deref().unwrap_or(x);
            let mut products = weights
                .iter()
                .map(|w| w.matvec(input).expect("Plnn::logits: dimension mismatch"));
            cur = Some(match layer {
                Layer::Dense(l) => l.output_from(products.next().expect("one matrix")),
                Layer::MaxOut(l) => l.select(products).1,
            });
        }
        cur.expect("a Plnn has at least one layer")
    }

    /// Forward pass retaining everything backprop and OpenBox need.
    ///
    /// # Panics
    /// Panics when `x.len() != dim()`.
    pub fn forward_trace(&self, x: &[f64]) -> ForwardTrace {
        let mut inputs = Vec::with_capacity(self.layers.len());
        let mut traces = Vec::with_capacity(self.layers.len());
        let mut cur = Vector(x.to_vec());
        for layer in &self.layers {
            inputs.push(cur.clone());
            cur = match layer {
                Layer::Dense(l) => {
                    let (pre, post) = l.forward(cur.as_slice());
                    traces.push(LayerTrace::Dense { pre });
                    post
                }
                Layer::MaxOut(l) => {
                    let (selection, out) = l.forward(cur.as_slice());
                    traces.push(LayerTrace::MaxOut { selection });
                    out
                }
            };
        }
        ForwardTrace {
            inputs,
            layers: traces,
            logits: cur,
        }
    }
}

impl PredictionApi for Plnn {
    fn dim(&self) -> usize {
        self.layers[0].input_dim()
    }

    fn num_classes(&self) -> usize {
        self.layers.last().expect("non-empty").output_dim()
    }

    fn predict(&self, x: &[f64]) -> Vector {
        softmax(self.logits(x).as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openapi_linalg::Matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_net() -> Plnn {
        // 2 -> 3 (ReLU) -> 2 (linear).
        let l1 = DenseLayer::new(
            Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]).unwrap(),
            Vector(vec![0.0, 0.0, -1.0]),
            Activation::ReLU,
        );
        let l2 = DenseLayer::new(
            Matrix::from_rows(&[&[1.0, -1.0, 2.0], &[0.0, 1.0, -1.0]]).unwrap(),
            Vector(vec![0.1, -0.1]),
            Activation::Identity,
        );
        Plnn::new(vec![Layer::Dense(l1), Layer::Dense(l2)])
    }

    #[test]
    fn logits_hand_computed() {
        let net = tiny_net();
        // x = (1, 2): pre1 = (1, 2, 2), post1 = (1, 2, 2);
        // logits = (1-2+4+0.1, 0+2-2-0.1) = (3.1, -0.1).
        let z = net.logits(&[1.0, 2.0]);
        assert!((z[0] - 3.1).abs() < 1e-12);
        assert!((z[1] + 0.1).abs() < 1e-12);
    }

    #[test]
    fn relu_masks_negative_units() {
        let net = tiny_net();
        // x = (-1, 0): pre1 = (-1, 0, -2) -> post1 = (0, 0, 0);
        // logits = bias of layer 2.
        let z = net.logits(&[-1.0, 0.0]);
        assert_eq!(z.as_slice(), &[0.1, -0.1]);
    }

    #[test]
    fn predict_is_softmax_of_logits() {
        let net = tiny_net();
        let x = [0.5, -0.25];
        let p = net.predict(&x);
        let z = net.logits(&x);
        let expected = softmax(z.as_slice());
        assert_eq!(p, expected);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn forward_trace_matches_logits() {
        let net = tiny_net();
        let x = [0.3, 0.9];
        let trace = net.forward_trace(&x);
        assert_eq!(trace.logits, net.logits(&x));
        assert_eq!(trace.inputs.len(), 2);
        assert_eq!(trace.inputs[0].as_slice(), &x);
        match &trace.layers[0] {
            LayerTrace::Dense { pre } => assert_eq!(pre.len(), 3),
            _ => panic!("expected dense trace"),
        }
    }

    #[test]
    fn mlp_builder_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let net = Plnn::mlp(&[8, 16, 4], Activation::ReLU, &mut rng);
        assert_eq!(net.dim(), 8);
        assert_eq!(net.num_classes(), 4);
        assert_eq!(net.layers().len(), 2);
        assert_eq!(net.param_count(), 16 * 8 + 16 + 4 * 16 + 4);
    }

    #[test]
    fn paper_architecture_matches_spec() {
        let mut rng = StdRng::seed_from_u64(1);
        let net = Plnn::paper_architecture(&mut rng);
        assert_eq!(net.dim(), 784);
        assert_eq!(net.num_classes(), 10);
        let dims: Vec<usize> = net.layers().iter().map(|l| l.output_dim()).collect();
        assert_eq!(dims, vec![256, 128, 100, 10]);
    }

    #[test]
    fn maxout_layers_compose() {
        let mo = MaxOutLayer::new(
            vec![
                Matrix::from_rows(&[&[1.0, 0.0]]).unwrap(),
                Matrix::from_rows(&[&[-1.0, 0.0]]).unwrap(),
            ],
            vec![Vector(vec![0.0]), Vector(vec![0.0])],
        );
        let out = DenseLayer::new(
            Matrix::from_rows(&[&[1.0], &[-1.0]]).unwrap(),
            Vector::zeros(2),
            Activation::Identity,
        );
        let net = Plnn::new(vec![Layer::MaxOut(mo), Layer::Dense(out)]);
        // |x0| at the hidden unit.
        let z = net.logits(&[-3.0, 7.0]);
        assert_eq!(z.as_slice(), &[3.0, -3.0]);
    }

    #[test]
    fn maxout_mlp_builder_shapes() {
        let mut rng = StdRng::seed_from_u64(5);
        let net = Plnn::maxout_mlp(&[6, 10, 3], 3, &mut rng);
        assert_eq!(net.dim(), 6);
        assert_eq!(net.num_classes(), 3);
        assert!(matches!(net.layers()[0], Layer::MaxOut(_)));
        assert!(matches!(net.layers()[1], Layer::Dense(_)));
        // 3 pieces × (10×6 + 10) + (3×10 + 3)
        assert_eq!(net.param_count(), 3 * 70 + 33);
        let p = net.predict(&[0.1, -0.2, 0.3, 0.0, 0.5, -0.4]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "must be linear")]
    fn nonlinear_final_layer_rejected() {
        let l = DenseLayer::new(Matrix::zeros(2, 2), Vector::zeros(2), Activation::ReLU);
        let _ = Plnn::new(vec![Layer::Dense(l)]);
    }

    #[test]
    #[should_panic(expected = "do not chain")]
    fn dimension_chain_enforced() {
        let l1 = DenseLayer::new(Matrix::zeros(3, 2), Vector::zeros(3), Activation::ReLU);
        let l2 = DenseLayer::new(Matrix::zeros(2, 4), Vector::zeros(2), Activation::Identity);
        let _ = Plnn::new(vec![Layer::Dense(l1), Layer::Dense(l2)]);
    }
}
