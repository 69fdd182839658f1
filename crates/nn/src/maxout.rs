//! MaxOut layer — the other piecewise linear nonlinearity the paper's
//! introduction places inside the PLM family [Goodfellow et al., ICML 2013].

use openapi_linalg::{Matrix, Vector};

/// A MaxOut layer: `z_j = max_k (W_k·x + b_k)_j` over `k` affine *pieces*.
///
/// Each output unit takes the maximum over `k` independent affine functions
/// of the input; the layer is piecewise linear with the active-piece index
/// per unit playing the role ReLU's on/off bit plays in the activation
/// pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct MaxOutLayer {
    /// `k` weight matrices, each `out × in`.
    pub pieces: Vec<Matrix>,
    /// `k` bias vectors, each length `out`.
    pub biases: Vec<Vector>,
}

impl MaxOutLayer {
    /// Constructs a layer from piece weights/biases.
    ///
    /// # Panics
    /// Panics when there are fewer than 2 pieces, shapes are inconsistent,
    /// or weights/biases counts differ.
    pub fn new(pieces: Vec<Matrix>, biases: Vec<Vector>) -> Self {
        assert!(pieces.len() >= 2, "MaxOut needs at least 2 pieces");
        assert_eq!(pieces.len(), biases.len(), "pieces/biases count mismatch");
        let (out, inp) = (pieces[0].rows(), pieces[0].cols());
        for (i, p) in pieces.iter().enumerate() {
            assert_eq!(p.rows(), out, "piece {i} rows");
            assert_eq!(p.cols(), inp, "piece {i} cols");
            assert_eq!(biases[i].len(), out, "bias {i} length");
        }
        MaxOutLayer { pieces, biases }
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.pieces[0].cols()
    }

    /// Output dimensionality.
    pub fn output_dim(&self) -> usize {
        self.pieces[0].rows()
    }

    /// Number of affine pieces `k`.
    pub fn num_pieces(&self) -> usize {
        self.pieces.len()
    }

    /// Forward pass returning `(selected_piece_per_unit, output)`.
    ///
    /// The selection vector is the layer's contribution to the activation
    /// pattern: inputs sharing selections lie in the same linear region.
    /// Ties break toward the lower piece index (measure-zero event for
    /// continuous inputs).
    ///
    /// # Panics
    /// Panics when `x.len() != input_dim()`.
    pub fn forward(&self, x: &[f64]) -> (Vec<usize>, Vector) {
        self.select(
            self.pieces
                .iter()
                .map(|w| w.matvec(x).expect("MaxOut forward: dimension mismatch")),
        )
    }

    /// The layer's selection and output from its pieces' weight products
    /// `W_k·x`, in piece order: adds each piece's bias, then keeps the
    /// largest value per unit, ties to the lower piece.
    pub(crate) fn select(&self, products: impl Iterator<Item = Vector>) -> (Vec<usize>, Vector) {
        let per_piece: Vec<Vector> = products
            .zip(self.biases.iter())
            .map(|(mut a, b)| {
                a += b;
                a
            })
            .collect();
        let out_dim = self.output_dim();
        let mut selection = vec![0usize; out_dim];
        let mut out = Vector::zeros(out_dim);
        for j in 0..out_dim {
            let mut best_k = 0;
            let mut best_v = per_piece[0][j];
            for (k, vals) in per_piece.iter().enumerate().skip(1) {
                if vals[j] > best_v {
                    best_v = vals[j];
                    best_k = k;
                }
            }
            selection[j] = best_k;
            out[j] = best_v;
        }
        (selection, out)
    }

    /// Number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.num_pieces() * (self.output_dim() * self.input_dim() + self.output_dim())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer() -> MaxOutLayer {
        // 2 pieces, 2 units, 1 input: unit j computes max of two lines.
        let p0 = Matrix::from_rows(&[&[1.0], &[-1.0]]).unwrap();
        let p1 = Matrix::from_rows(&[&[-1.0], &[1.0]]).unwrap();
        MaxOutLayer::new(
            vec![p0, p1],
            vec![Vector(vec![0.0, 0.0]), Vector(vec![0.0, 0.0])],
        )
    }

    #[test]
    fn maxout_computes_abs_here() {
        // max(x, -x) = |x| for unit 0; unit 1 is max(-x, x) = |x| too.
        let l = layer();
        let (_, out) = l.forward(&[3.0]);
        assert_eq!(out.as_slice(), &[3.0, 3.0]);
        let (_, out) = l.forward(&[-2.0]);
        assert_eq!(out.as_slice(), &[2.0, 2.0]);
    }

    #[test]
    fn selection_tracks_active_piece() {
        let l = layer();
        let (sel_pos, _) = l.forward(&[5.0]);
        assert_eq!(sel_pos, vec![0, 1]);
        let (sel_neg, _) = l.forward(&[-5.0]);
        assert_eq!(sel_neg, vec![1, 0]);
    }

    #[test]
    fn ties_break_low() {
        let l = layer();
        let (sel, out) = l.forward(&[0.0]);
        assert_eq!(sel, vec![0, 0]);
        assert_eq!(out.as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn shapes_and_params() {
        let l = layer();
        assert_eq!(l.input_dim(), 1);
        assert_eq!(l.output_dim(), 2);
        assert_eq!(l.num_pieces(), 2);
        assert_eq!(l.param_count(), 2 * (2 + 2));
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn single_piece_rejected() {
        let _ = MaxOutLayer::new(vec![Matrix::zeros(1, 1)], vec![Vector::zeros(1)]);
    }

    #[test]
    #[should_panic(expected = "rows")]
    fn inconsistent_pieces_rejected() {
        let _ = MaxOutLayer::new(
            vec![Matrix::zeros(2, 1), Matrix::zeros(3, 1)],
            vec![Vector::zeros(2), Vector::zeros(3)],
        );
    }
}
