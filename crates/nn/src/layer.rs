//! Dense (fully-connected) layer with a piecewise linear activation.

use crate::activation::Activation;
use openapi_linalg::{Matrix, Vector};

/// A dense layer `z = act(W·x + b)` with `W ∈ R^{out×in}`.
///
/// Note the orientation: rows index output units (the usual neural-network
/// convention), which is the *transpose* of the `d × C` layout the
/// interpretation layer uses for local models. `openbox` performs the
/// transposition once at extraction time.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseLayer {
    /// `out × in` weight matrix.
    pub weights: Matrix,
    /// Length-`out` bias.
    pub bias: Vector,
    /// Elementwise activation.
    pub activation: Activation,
}

impl DenseLayer {
    /// Constructs a layer, validating shapes.
    ///
    /// # Panics
    /// Panics when `weights.rows() != bias.len()`.
    pub fn new(weights: Matrix, bias: Vector, activation: Activation) -> Self {
        assert_eq!(
            weights.rows(),
            bias.len(),
            "DenseLayer: weights rows {} != bias len {}",
            weights.rows(),
            bias.len()
        );
        DenseLayer {
            weights,
            bias,
            activation,
        }
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.weights.cols()
    }

    /// Output dimensionality.
    pub fn output_dim(&self) -> usize {
        self.weights.rows()
    }

    /// Pre-activation values `W·x + b`.
    ///
    /// # Panics
    /// Panics when `x.len() != input_dim()`.
    pub fn pre_activation(&self, x: &[f64]) -> Vector {
        let mut a = self
            .weights
            .matvec(x)
            .expect("DenseLayer::pre_activation: dimension mismatch");
        a += &self.bias;
        a
    }

    /// The layer's output from its weight product `W·x`: adds the bias,
    /// then applies the activation, as [`DenseLayer::forward`] does.
    pub(crate) fn output_from(&self, mut wx: Vector) -> Vector {
        wx += &self.bias;
        for a in wx.iter_mut() {
            *a = self.activation.apply(*a);
        }
        wx
    }

    /// Full forward pass: returns `(pre_activation, post_activation)`.
    ///
    /// # Panics
    /// Panics when `x.len() != input_dim()`.
    pub fn forward(&self, x: &[f64]) -> (Vector, Vector) {
        let pre = self.pre_activation(x);
        let post = Vector(pre.iter().map(|&a| self.activation.apply(a)).collect());
        (pre, post)
    }

    /// Number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.weights.rows() * self.weights.cols() + self.bias.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer() -> DenseLayer {
        DenseLayer::new(
            Matrix::from_rows(&[&[1.0, -1.0], &[0.5, 0.5], &[-2.0, 1.0]]).unwrap(),
            Vector(vec![0.0, 1.0, -0.5]),
            Activation::ReLU,
        )
    }

    #[test]
    fn shapes() {
        let l = layer();
        assert_eq!(l.input_dim(), 2);
        assert_eq!(l.output_dim(), 3);
        assert_eq!(l.param_count(), 9);
    }

    #[test]
    fn forward_applies_affine_then_activation() {
        let l = layer();
        let (pre, post) = l.forward(&[1.0, 2.0]);
        assert_eq!(pre.as_slice(), &[-1.0, 2.5, -0.5]);
        assert_eq!(post.as_slice(), &[0.0, 2.5, 0.0]);
    }

    #[test]
    fn identity_activation_passes_through() {
        let mut l = layer();
        l.activation = Activation::Identity;
        let (pre, post) = l.forward(&[1.0, 2.0]);
        assert_eq!(pre, post);
    }

    #[test]
    #[should_panic(expected = "bias len")]
    fn shape_mismatch_panics() {
        let _ = DenseLayer::new(Matrix::zeros(3, 2), Vector::zeros(2), Activation::ReLU);
    }
}
