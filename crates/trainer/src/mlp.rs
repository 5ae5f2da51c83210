//! A two-layer MLP whose datapath routes through an arithmetic backend.
//!
//! Forward: `h = relu(x·W1 + b1)`, `logits = h·W2 + b2`, with every
//! GEMM, weight read and activation write-back going through the
//! backend's encoding. Backward computes exact backprop over the
//! *quantized* forward values, with the backward GEMMs also quantized —
//! modeling a training accelerator whose MMU is uniform-encoding in both
//! passes. Master weights and the optimizer stay in fp32.

use crate::backend::Backend;
use crate::loss;
use crate::sgd::SgdMomentum;
use equinox_arith::Matrix;
use equinox_arith::rng::SplitMix64;

/// The MLP and its optimizer state.
pub struct Mlp {
    w1: Matrix,
    b1: Matrix,
    w2: Matrix,
    b2: Matrix,
    opt_w1: SgdMomentum,
    opt_b1: SgdMomentum,
    opt_w2: SgdMomentum,
    opt_b2: SgdMomentum,
}

/// Values captured by a forward pass, needed for backprop.
pub struct ForwardPass {
    x: Matrix,
    h_pre: Matrix,
    h: Matrix,
    /// `W2` as the datapath stored it for this pass.
    w2: Matrix,
    /// The output logits.
    pub logits: Matrix,
}

impl Mlp {
    /// Creates an MLP with He-style random initialization.
    pub fn new(input: usize, hidden: usize, output: usize, lr: f32, seed: u64) -> Self {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let mut init = |rows: usize, cols: usize, scale: f32| {
            Matrix::from_fn(rows, cols, |_, _| (rng.next_f32() * 2.0 - 1.0) * scale)
        };
        let s1 = (2.0 / input as f32).sqrt();
        let s2 = (2.0 / hidden as f32).sqrt();
        Mlp {
            w1: init(input, hidden, s1),
            b1: Matrix::zeros(1, hidden),
            w2: init(hidden, output, s2),
            b2: Matrix::zeros(1, output),
            opt_w1: SgdMomentum::new(input, hidden, lr, 0.9),
            opt_b1: SgdMomentum::new(1, hidden, lr, 0.9),
            opt_w2: SgdMomentum::new(hidden, output, lr, 0.9),
            opt_b2: SgdMomentum::new(1, output, lr, 0.9),
        }
    }

    /// Forward pass through `backend`'s datapath.
    pub fn forward(&self, backend: &dyn Backend, x: &Matrix) -> ForwardPass {
        let w1 = backend.store_weights(&self.w1);
        let w2 = backend.store_weights(&self.w2);
        let mut h_pre = backend.gemm(x, &w1);
        add_bias(&mut h_pre, &self.b1);
        let h_pre = backend.writeback(&h_pre);
        let h = backend.writeback(&h_pre.map(|v| v.max(0.0)));
        let mut logits = backend.gemm(&h, &w2);
        add_bias(&mut logits, &self.b2);
        ForwardPass { x: x.clone(), h_pre, h, w2, logits }
    }

    /// Backward pass and SGD update from the loss gradient at the
    /// logits, through the weights `pass` stored.
    pub fn backward(&mut self, backend: &dyn Backend, pass: &ForwardPass, dlogits: &Matrix) {
        // dW2 = hᵀ · dlogits; db2 = Σ rows(dlogits).
        let dw2 = backend.gemm(&pass.h.transpose(), dlogits);
        let db2 = sum_rows(dlogits);
        // dh = dlogits · W2ᵀ, masked by relu'.
        let mut dh = backend.gemm(dlogits, &pass.w2.transpose());
        for r in 0..dh.rows() {
            for (g, &pre) in dh.row_mut(r).iter_mut().zip(pass.h_pre.row(r)) {
                *g = if pre > 0.0 { *g } else { 0.0 };
            }
        }
        // dW1 = xᵀ · dh; db1 = Σ rows(dh).
        let dw1 = backend.gemm(&pass.x.transpose(), &dh);
        let db1 = sum_rows(&dh);
        self.opt_w1.step(&mut self.w1, &dw1);
        self.opt_b1.step(&mut self.b1, &db1);
        self.opt_w2.step(&mut self.w2, &dw2);
        self.opt_b2.step(&mut self.b2, &db2);
    }

    /// One training step on a mini-batch: forward, cross-entropy
    /// gradient, backward. Returns the batch loss.
    pub fn train_step(
        &mut self,
        backend: &dyn Backend,
        x: &Matrix,
        targets: &[usize],
    ) -> f32 {
        let pass = self.forward(backend, x);
        let (loss_value, dlogits) = loss::cross_entropy_with_grad(&pass.logits, targets);
        self.backward(backend, &pass, &dlogits);
        loss_value
    }

    /// Validation error rate under the backend's inference datapath.
    pub fn validation_error(
        &self,
        backend: &dyn Backend,
        x: &Matrix,
        targets: &[usize],
    ) -> f32 {
        loss::error_rate(&self.forward(backend, x).logits, targets)
    }

    /// Validation perplexity (for language-model tasks).
    pub fn validation_perplexity(
        &self,
        backend: &dyn Backend,
        x: &Matrix,
        targets: &[usize],
    ) -> f32 {
        loss::perplexity(&self.forward(backend, x).logits, targets)
    }
}

/// Adds a 1×C bias row to every row of `m`.
pub(crate) fn add_bias(m: &mut Matrix, bias: &Matrix) {
    assert_eq!(m.cols(), bias.cols(), "bias width must match");
    for r in 0..m.rows() {
        for (v, &b) in m.row_mut(r).iter_mut().zip(bias.row(0)) {
            *v += b;
        }
    }
}

/// Column sums as a 1×C matrix, each starting from zero and adding the
/// rows in order.
pub(crate) fn sum_rows(m: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(1, m.cols());
    let sums = out.row_mut(0);
    for r in 0..m.rows() {
        for (s, &v) in sums.iter_mut().zip(m.row(r)) {
            *s += v;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Bf16Backend, Fp32Backend, Hbfp8Backend};
    use crate::dataset;

    #[test]
    fn forward_shapes() {
        let mlp = Mlp::new(8, 16, 4, 0.1, 1);
        let x = Matrix::zeros(5, 8);
        let pass = mlp.forward(&Fp32Backend, &x);
        assert_eq!(pass.logits.rows(), 5);
        assert_eq!(pass.logits.cols(), 4);
    }

    #[test]
    fn train_step_reduces_loss_fp32() {
        let data = dataset::teacher_student(64, 16, 8, 3, 2);
        let mut mlp = Mlp::new(8, 32, 3, 0.05, 3);
        let first = mlp.train_step(&Fp32Backend, &data.train_x, &data.train_y);
        for _ in 0..50 {
            mlp.train_step(&Fp32Backend, &data.train_x, &data.train_y);
        }
        let last = mlp.train_step(&Fp32Backend, &data.train_x, &data.train_y);
        assert!(last < first * 0.7, "loss {first} -> {last}");
    }

    #[test]
    fn train_step_reduces_loss_hbfp8() {
        let data = dataset::teacher_student(64, 16, 8, 3, 2);
        let backend = Hbfp8Backend::new();
        let mut mlp = Mlp::new(8, 32, 3, 0.05, 3);
        let first = mlp.train_step(&backend, &data.train_x, &data.train_y);
        for _ in 0..50 {
            mlp.train_step(&backend, &data.train_x, &data.train_y);
        }
        let last = mlp.train_step(&backend, &data.train_x, &data.train_y);
        assert!(last < first * 0.8, "loss {first} -> {last}");
    }

    #[test]
    fn backends_start_from_identical_weights() {
        // Same seed ⇒ same initialization ⇒ first-step losses close
        // across encodings (quantization noise only).
        let data = dataset::teacher_student(32, 8, 8, 3, 5);
        let mut a = Mlp::new(8, 16, 3, 0.05, 9);
        let mut b = Mlp::new(8, 16, 3, 0.05, 9);
        let la = a.train_step(&Fp32Backend, &data.train_x, &data.train_y);
        let lb = b.train_step(&Bf16Backend, &data.train_x, &data.train_y);
        assert!((la - lb).abs() / la < 0.05, "{la} vs {lb}");
    }

    #[test]
    fn validation_error_in_range() {
        let data = dataset::teacher_student(32, 16, 8, 4, 6);
        let mlp = Mlp::new(8, 16, 4, 0.05, 7);
        let e = mlp.validation_error(&Fp32Backend, &data.val_x, &data.val_y);
        assert!((0.0..=1.0).contains(&e));
    }
}
