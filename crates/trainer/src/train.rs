//! Training loops producing the Figure 2 convergence curves.

use crate::backend::Backend;
use crate::dataset::{ClassificationData, LanguageData};
use crate::mlp::Mlp;
use equinox_arith::Matrix;

/// Hyper-parameters shared by the Figure 2 runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Epochs to train.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch: usize,
    /// Hidden width of the student MLP.
    pub hidden: usize,
    /// Learning rate.
    pub lr: f32,
    /// Weight-initialization seed (identical across encodings so the
    /// curves differ only by arithmetic).
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig { epochs: 40, batch: 32, hidden: 64, lr: 0.05, seed: 17 }
    }
}

/// One epoch's measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochPoint {
    /// Epoch index (1-based).
    pub epoch: usize,
    /// Mean training loss over the epoch.
    pub train_loss: f32,
    /// Validation metric: error rate (classification) or perplexity
    /// (language modeling).
    pub val_metric: f32,
}

/// A labeled convergence curve (one per encoding in Figure 2).
#[derive(Debug, Clone, PartialEq)]
pub struct ConvergenceCurve {
    /// The encoding's label (`fp32`, `hbfp8`, `bfloat16`).
    pub label: String,
    /// Per-epoch measurements.
    pub points: Vec<EpochPoint>,
}

impl ConvergenceCurve {
    /// The final validation metric.
    pub fn final_metric(&self) -> f32 {
        self.points.last().map(|p| p.val_metric).unwrap_or(f32::NAN)
    }

    /// The best (minimum) validation metric across epochs.
    pub fn best_metric(&self) -> f32 {
        self.points
            .iter()
            .map(|p| p.val_metric)
            .fold(f32::INFINITY, f32::min)
    }
}

/// The mini-batch of up to `size` rows starting at row `start`.
fn batch_of(x: &Matrix, y: &[usize], start: usize, size: usize) -> (Matrix, Vec<usize>) {
    let end = (start + size).min(x.rows());
    let rows = x.as_slice()[start * x.cols()..end * x.cols()].to_vec();
    (Matrix::from_vec(end - start, x.cols(), rows), y[start..end].to_vec())
}

/// Trains the student classifier under `backend`, returning its
/// convergence curve (validation **error rate**, Figure 2a analog).
pub fn train_classifier(
    backend: &dyn Backend,
    data: &ClassificationData,
    config: &TrainConfig,
) -> ConvergenceCurve {
    let input = data.train_x.cols();
    let mut mlp = Mlp::new(input, config.hidden, data.classes, config.lr, config.seed);
    let mut points = Vec::with_capacity(config.epochs);
    for epoch in 1..=config.epochs {
        let mut losses = Vec::new();
        let mut start = 0;
        while start < data.train_x.rows() {
            let (bx, by) = batch_of(&data.train_x, &data.train_y, start, config.batch);
            losses.push(mlp.train_step(backend, &bx, &by));
            start += config.batch;
        }
        let val = mlp.validation_error(backend, &data.val_x, &data.val_y);
        points.push(EpochPoint {
            epoch,
            train_loss: losses.iter().sum::<f32>() / losses.len().max(1) as f32,
            val_metric: val,
        });
    }
    ConvergenceCurve { label: backend.name().to_string(), points }
}

/// Trains the next-token model under `backend`, returning its
/// convergence curve (validation **perplexity**, Figure 2b analog).
pub fn train_language_model(
    backend: &dyn Backend,
    data: &LanguageData,
    config: &TrainConfig,
) -> ConvergenceCurve {
    let mut mlp = Mlp::new(data.vocab, config.hidden, data.vocab, config.lr, config.seed);
    let mut points = Vec::with_capacity(config.epochs);
    for epoch in 1..=config.epochs {
        let mut losses = Vec::new();
        let mut start = 0;
        while start < data.train_x.rows() {
            let (bx, by) = batch_of(&data.train_x, &data.train_y, start, config.batch);
            losses.push(mlp.train_step(backend, &bx, &by));
            start += config.batch;
        }
        let val = mlp.validation_perplexity(backend, &data.val_x, &data.val_y);
        points.push(EpochPoint {
            epoch,
            train_loss: losses.iter().sum::<f32>() / losses.len().max(1) as f32,
            val_metric: val,
        });
    }
    ConvergenceCurve { label: backend.name().to_string(), points }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Bf16Backend, Fp32Backend, Hbfp8Backend};
    use crate::dataset;

    fn quick_config(epochs: usize) -> TrainConfig {
        TrainConfig { epochs, batch: 32, hidden: 32, lr: 0.05, seed: 11 }
    }

    #[test]
    fn classifier_learns_fp32() {
        let data = dataset::teacher_student(512, 128, 16, 4, 21);
        let curve = train_classifier(&Fp32Backend, &data, &quick_config(15));
        assert_eq!(curve.points.len(), 15);
        let first = curve.points[0].val_metric;
        let last = curve.final_metric();
        assert!(last < first * 0.8, "error {first} -> {last}");
    }

    #[test]
    fn hbfp8_matches_fp32_convergence() {
        // The Figure 2 claim at reduced scale: the hbfp8 curve tracks
        // fp32 within a few points of validation error.
        let data = dataset::teacher_student(512, 128, 16, 4, 21);
        let cfg = quick_config(20);
        let fp32 = train_classifier(&Fp32Backend, &data, &cfg);
        let hbfp = train_classifier(&Hbfp8Backend::new(), &data, &cfg);
        let gap = (hbfp.final_metric() - fp32.final_metric()).abs();
        assert!(
            gap < 0.08,
            "final error gap {gap}: fp32 {} vs hbfp8 {}",
            fp32.final_metric(),
            hbfp.final_metric()
        );
    }

    #[test]
    fn language_model_approaches_entropy_floor() {
        let data = dataset::markov_text(2048, 512, 12, 23);
        let cfg = TrainConfig { epochs: 15, hidden: 24, lr: 0.3, ..quick_config(15) };
        let curve = train_language_model(&Fp32Backend, &data, &cfg);
        // Perplexity must fall well below the uniform baseline (12).
        assert!(curve.final_metric() < 8.0, "{}", curve.final_metric());
        assert!(curve.final_metric() >= 1.0);
    }

    #[test]
    fn bf16_language_model_close_to_fp32() {
        let data = dataset::markov_text(1024, 256, 12, 29);
        let cfg = TrainConfig { epochs: 10, hidden: 24, lr: 0.3, ..quick_config(10) };
        let fp32 = train_language_model(&Fp32Backend, &data, &cfg);
        let bf16 = train_language_model(&Bf16Backend, &data, &cfg);
        let rel = (bf16.final_metric() - fp32.final_metric()).abs() / fp32.final_metric();
        assert!(rel < 0.15, "ppl fp32 {} vs bf16 {}", fp32.final_metric(), bf16.final_metric());
    }

    #[test]
    fn best_metric_not_above_final() {
        let data = dataset::teacher_student(128, 64, 8, 3, 31);
        let curve = train_classifier(&Fp32Backend, &data, &quick_config(5));
        assert!(curve.best_metric() <= curve.final_metric() + 1e-9);
    }

    #[test]
    fn empty_curve_metrics_nan() {
        let c = ConvergenceCurve { label: "x".into(), points: vec![] };
        assert!(c.final_metric().is_nan());
        assert_eq!(c.best_metric(), f32::INFINITY);
    }
}
