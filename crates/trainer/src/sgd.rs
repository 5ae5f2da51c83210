//! Stochastic gradient descent with momentum over fp32 master weights.
//!
//! As in the HBFP training recipe, the optimizer state and master
//! weights stay in fp32; only the datapath (GEMMs, activations, weight
//! reads) is quantized.

use equinox_arith::Matrix;

/// SGD-with-momentum state for one parameter tensor.
#[derive(Debug, Clone)]
pub struct SgdMomentum {
    pub(crate) velocity: Matrix,
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient (0 disables momentum).
    pub momentum: f32,
}

impl SgdMomentum {
    /// Creates optimizer state shaped like `params`.
    pub fn new(rows: usize, cols: usize, lr: f32, momentum: f32) -> Self {
        SgdMomentum { velocity: Matrix::zeros(rows, cols), lr, momentum }
    }

    /// Applies one update: `v = momentum·v + grad; params -= lr·v`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ from construction.
    pub fn step(&mut self, params: &mut Matrix, grad: &Matrix) {
        assert_eq!(
            (self.velocity.rows(), self.velocity.cols()),
            (grad.rows(), grad.cols()),
            "gradient shape mismatch"
        );
        let momentum = self.momentum;
        self.velocity = self.velocity.zip_map(grad, |v, g| momentum * v + g);
        params.axpy(-self.lr, &self.velocity);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_sgd_step() {
        let mut opt = SgdMomentum::new(1, 2, 0.1, 0.0);
        let mut p = Matrix::from_vec(1, 2, vec![1.0, -1.0]);
        let g = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        opt.step(&mut p, &g);
        assert_eq!(p.as_slice(), &[0.9, -1.2]);
    }

    #[test]
    fn momentum_accumulates() {
        let mut opt = SgdMomentum::new(1, 1, 1.0, 0.5);
        let mut p = Matrix::from_vec(1, 1, vec![0.0]);
        let g = Matrix::from_vec(1, 1, vec![1.0]);
        opt.step(&mut p, &g); // v = 1, p = -1
        opt.step(&mut p, &g); // v = 1.5, p = -2.5
        assert_eq!(p.get(0, 0), -2.5);
    }

    #[test]
    fn converges_on_quadratic() {
        // Minimize ||p - t||² with gradient 2(p - t).
        let target = Matrix::from_vec(1, 3, vec![1.0, -2.0, 0.5]);
        let mut p = Matrix::zeros(1, 3);
        let mut opt = SgdMomentum::new(1, 3, 0.1, 0.9);
        for _ in 0..200 {
            let g = p.zip_map(&target, |pi, ti| 2.0 * (pi - ti));
            opt.step(&mut p, &g);
        }
        let err = p.zip_map(&target, |a, b| a - b).frobenius_norm();
        assert!(err < 1e-3, "{err}");
    }

    #[test]
    #[should_panic(expected = "gradient shape mismatch")]
    fn wrong_shape_panics() {
        let mut opt = SgdMomentum::new(1, 2, 0.1, 0.0);
        let mut p = Matrix::zeros(1, 2);
        opt.step(&mut p, &Matrix::zeros(2, 1));
    }
}
