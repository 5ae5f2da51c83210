//! Softmax cross-entropy loss and classification metrics.
//!
//! Every loss here takes its softmax row by row through one helper, so
//! they all round alike: the max fold, each `exp(v − max)`, their
//! `Iterator::sum` in column order, then one division per column.

use equinox_arith::Matrix;

/// Softmax of one logits row into `out`, with the usual
/// max-subtraction stabilization.
fn softmax_row(row: &[f32], out: &mut [f32]) {
    let max = row.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
    for (e, &v) in out.iter_mut().zip(row) {
        *e = (v - max).exp();
    }
    let sum: f32 = out.iter().sum();
    for e in out.iter_mut() {
        *e /= sum;
    }
}

/// `−ln p`, with `p` floored at 1e-12.
fn nll(p: f32) -> f64 {
    -(p.max(1e-12) as f64).ln()
}

/// Row-wise softmax.
pub fn softmax(logits: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(logits.rows(), logits.cols());
    for r in 0..logits.rows() {
        softmax_row(logits.row(r), out.row_mut(r));
    }
    out
}

/// Mean cross-entropy of `logits` against integer `targets`.
///
/// # Panics
///
/// Panics if `targets.len() != logits.rows()` or a target is out of
/// range.
pub fn cross_entropy(logits: &Matrix, targets: &[usize]) -> f32 {
    cross_entropy_with_grad(logits, targets).0
}

/// Cross-entropy of one logits row against `target`, bit for bit what
/// [`cross_entropy`] returns for a one-row matrix. The row's softmax is
/// written into `probs`, a buffer of the row's width.
///
/// # Panics
///
/// Panics if `target` is out of range or `probs` is not the row's
/// width.
pub fn row_cross_entropy(row: &[f32], target: usize, probs: &mut [f32]) -> f32 {
    assert_eq!(row.len(), probs.len(), "probs must match the row's width");
    assert!(target < row.len(), "target class out of range");
    softmax_row(row, probs);
    // Summed from zero, as `cross_entropy` sums its rows: a certain
    // prediction is +0, not −0.
    (0.0 + nll(probs[target])) as f32
}

/// [`cross_entropy`] and its gradient with respect to the logits,
/// `(softmax − onehot) / batch`, from one softmax.
///
/// # Panics
///
/// Panics if `targets.len() != logits.rows()` or a target is out of
/// range.
pub fn cross_entropy_with_grad(logits: &Matrix, targets: &[usize]) -> (f32, Matrix) {
    assert_eq!(logits.rows(), targets.len(), "one target per row required");
    let scale = 1.0 / targets.len() as f32;
    let mut grad = Matrix::zeros(logits.rows(), logits.cols());
    let mut total = 0.0f64;
    for (r, &t) in targets.iter().enumerate() {
        assert!(t < logits.cols(), "target class out of range");
        let g = grad.row_mut(r);
        softmax_row(logits.row(r), g);
        total += nll(g[t]);
        g[t] -= 1.0;
        for v in g.iter_mut() {
            *v *= scale;
        }
    }
    ((total / targets.len() as f64) as f32, grad)
}

/// Fraction of rows whose argmax disagrees with the target.
pub fn error_rate(logits: &Matrix, targets: &[usize]) -> f32 {
    assert_eq!(logits.rows(), targets.len(), "one target per row required");
    if targets.is_empty() {
        return 0.0;
    }
    let mut wrong = 0usize;
    for (r, &t) in targets.iter().enumerate() {
        let row = logits.row(r);
        let pred = row
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0);
        if pred != t {
            wrong += 1;
        }
    }
    wrong as f32 / targets.len() as f32
}

/// Perplexity: `exp(cross-entropy)` — the Figure 2b metric.
pub fn perplexity(logits: &Matrix, targets: &[usize]) -> f32 {
    cross_entropy(logits, targets).exp()
}

/// The loss as first written, one softmax per call: the specification
/// that the losses above, and the LSTM's reference step, are held to
/// bit for bit.
#[cfg(test)]
pub(crate) mod reference {
    use equinox_arith::Matrix;

    pub(crate) fn softmax(logits: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(logits.rows(), logits.cols());
        for r in 0..logits.rows() {
            let row = logits.row(r);
            let max = row.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
            let exps: Vec<f32> = row.iter().map(|&v| (v - max).exp()).collect();
            let sum: f32 = exps.iter().sum();
            for (c, e) in exps.iter().enumerate() {
                out.set(r, c, e / sum);
            }
        }
        out
    }

    pub(crate) fn cross_entropy(logits: &Matrix, targets: &[usize]) -> f32 {
        let probs = softmax(logits);
        let mut total = 0.0f64;
        for (r, &t) in targets.iter().enumerate() {
            total += -(probs.get(r, t).max(1e-12) as f64).ln();
        }
        (total / targets.len() as f64) as f32
    }

    pub(crate) fn cross_entropy_grad(logits: &Matrix, targets: &[usize]) -> Matrix {
        let mut grad = softmax(logits);
        let scale = 1.0 / targets.len() as f32;
        for (r, &t) in targets.iter().enumerate() {
            let v = grad.get(r, t);
            grad.set(r, t, v - 1.0);
        }
        grad.map(|v| v * scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_rows_sum_to_one() {
        let logits = Matrix::from_fn(3, 4, |r, c| (r * c) as f32 - 2.0);
        let p = softmax(&logits);
        for r in 0..3 {
            let s: f32 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
            assert!(p.row(r).iter().all(|&v| v > 0.0));
        }
    }

    #[test]
    fn softmax_stable_for_large_logits() {
        let logits = Matrix::from_vec(1, 2, vec![1000.0, 0.0]);
        let p = softmax(&logits);
        assert!((p.get(0, 0) - 1.0).abs() < 1e-6);
        assert!(p.get(0, 1) >= 0.0);
    }

    #[test]
    fn cross_entropy_of_perfect_prediction_near_zero() {
        let logits = Matrix::from_vec(1, 3, vec![100.0, 0.0, 0.0]);
        assert!(cross_entropy(&logits, &[0]) < 1e-6);
    }

    #[test]
    fn cross_entropy_uniform_is_log_classes() {
        let logits = Matrix::zeros(5, 4);
        let ce = cross_entropy(&logits, &[0, 1, 2, 3, 0]);
        assert!((ce - (4.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn grad_points_down() {
        // Moving along the negative gradient must reduce the loss.
        let logits = Matrix::from_vec(2, 3, vec![0.5, -0.2, 0.1, 0.0, 0.3, -0.4]);
        let targets = [2, 0];
        let (loss, g) = cross_entropy_with_grad(&logits, &targets);
        assert_eq!(loss.to_bits(), cross_entropy(&logits, &targets).to_bits());
        let mut stepped = logits.clone();
        stepped.axpy(-0.5, &g);
        assert!(cross_entropy(&stepped, &targets) < loss);
    }

    #[test]
    fn grad_rows_sum_to_zero() {
        let logits = Matrix::from_fn(3, 4, |r, c| ((r + c) as f32).sin());
        let (_, g) = cross_entropy_with_grad(&logits, &[1, 2, 3]);
        for r in 0..3 {
            let s: f32 = g.row(r).iter().sum();
            assert!(s.abs() < 1e-6);
        }
    }

    #[test]
    fn one_softmax_gives_the_reference_bits() {
        equinox_arith::check::for_each_case(200, 0x6c6f73, |g| {
            let (rows, cols) = (g.usize_in(1, 7), g.usize_in(2, 10));
            let spread = [1.0, 30.0, 200.0][g.usize_in(0, 3)];
            let logits = Matrix::from_fn(rows, cols, |_, _| g.f32_in(-spread, spread));
            let targets: Vec<usize> = (0..rows).map(|_| g.usize_in(0, cols)).collect();
            let (loss, grad) = cross_entropy_with_grad(&logits, &targets);
            let want_loss = reference::cross_entropy(&logits, &targets);
            let want_grad = reference::cross_entropy_grad(&logits, &targets);
            assert_eq!(loss.to_bits(), want_loss.to_bits());
            assert_eq!(loss.to_bits(), cross_entropy(&logits, &targets).to_bits());
            let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&grad), bits(&want_grad));
            assert_eq!(bits(&softmax(&logits)), bits(&reference::softmax(&logits)));
            let mut probs = vec![0.0; cols];
            for (r, &t) in targets.iter().enumerate() {
                let one_row = Matrix::from_vec(1, cols, logits.row(r).to_vec());
                assert_eq!(
                    row_cross_entropy(logits.row(r), t, &mut probs).to_bits(),
                    reference::cross_entropy(&one_row, &[t]).to_bits()
                );
            }
        });
    }

    #[test]
    fn error_rate_counts_mistakes() {
        let logits = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        assert_eq!(error_rate(&logits, &[0, 1]), 0.0);
        assert_eq!(error_rate(&logits, &[1, 0]), 1.0);
        assert_eq!(error_rate(&logits, &[0, 0]), 0.5);
    }

    #[test]
    fn perplexity_uniform_is_vocab_size() {
        let logits = Matrix::zeros(4, 8);
        let ppl = perplexity(&logits, &[0, 1, 2, 3]);
        assert!((ppl - 8.0).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "one target per row")]
    fn mismatched_targets_panic() {
        cross_entropy(&Matrix::zeros(2, 2), &[0]);
    }
}
