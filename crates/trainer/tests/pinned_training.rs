//! Pins the per-epoch training loss and validation metric of short
//! training runs under each encoding: the LSTM language model, the MLP
//! classifier and the MLP language model.
//!
//! A run goes through every GEMM kernel, the HBFP write-back path and
//! the validation forward pass, so any change to their bits, or to the
//! order in which the trainer combines them, shows here as a
//! different line. The LSTM values were recorded before the kernels and
//! validation were rewritten for speed, the MLP values before its
//! elementwise passes were; a deliberate change re-records them and
//! says why.

use equinox_trainer::dataset::{markov_sequences, markov_text, teacher_student};
use equinox_trainer::lstm::{train_lstm_lm, LstmConfig};
use equinox_trainer::train::{train_classifier, train_language_model};
use equinox_trainer::{
    Backend, Bf16Backend, ConvergenceCurve, Fp32Backend, Hbfp8Backend, TrainConfig,
};

/// `epoch:loss_bits/metric_bits` for every epoch of a curve.
fn pins(curve: ConvergenceCurve) -> String {
    curve
        .points
        .iter()
        .map(|p| {
            format!(
                "{}:{:08x}/{:08x}",
                p.epoch,
                p.train_loss.to_bits(),
                p.val_metric.to_bits()
            )
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// A 2-epoch LSTM language-model run.
fn curve(backend: &dyn Backend) -> String {
    let data = markov_sequences(48, 12, 14, 8, 77);
    let config = LstmConfig {
        epochs: 2,
        ..LstmConfig::default()
    };
    pins(train_lstm_lm(backend, &data, &config))
}

/// 2-epoch MLP runs; 100 samples in batches of 32 end on a batch of 4.
fn mlp_config() -> TrainConfig {
    TrainConfig { epochs: 2, batch: 32, hidden: 24, lr: 0.1, seed: 19 }
}

/// A 2-epoch MLP classifier run (validation error).
fn classifier_curve(backend: &dyn Backend) -> String {
    let data = teacher_student(100, 40, 16, 4, 61);
    pins(train_classifier(backend, &data, &mlp_config()))
}

/// A 2-epoch MLP language-model run (validation perplexity).
fn language_curve(backend: &dyn Backend) -> String {
    let data = markov_text(100, 40, 12, 67);
    pins(train_language_model(backend, &data, &TrainConfig { lr: 0.3, ..mlp_config() }))
}

#[test]
fn fp32_lstm_curve_is_pinned() {
    assert_eq!(
        curve(&Fp32Backend),
        "1:400148c3/40d1a743 2:3feafeb9/40c3e5e4"
    );
}

#[test]
fn hbfp8_lstm_curve_is_pinned() {
    assert_eq!(
        curve(&Hbfp8Backend::new()),
        "1:400145fb/40d18da5 2:3feaf47d/40c3e37c"
    );
}

#[test]
fn bf16_lstm_curve_is_pinned() {
    assert_eq!(
        curve(&Bf16Backend),
        "1:400148bf/40d1a736 2:3feafe38/40c3e757"
    );
}

#[test]
fn fp32_classifier_curve_is_pinned() {
    assert_eq!(
        classifier_curve(&Fp32Backend),
        "1:3fb826d2/3f066666 2:3fa37a28/3f0ccccd"
    );
}

#[test]
fn hbfp8_classifier_curve_is_pinned() {
    assert_eq!(
        classifier_curve(&Hbfp8Backend::new()),
        "1:3fb834ba/3f000000 2:3fa365bd/3f0ccccd"
    );
}

#[test]
fn bf16_classifier_curve_is_pinned() {
    assert_eq!(
        classifier_curve(&Bf16Backend),
        "1:3fb82877/3f066666 2:3fa37680/3f0ccccd"
    );
}

#[test]
fn fp32_language_model_curve_is_pinned() {
    assert_eq!(
        language_curve(&Fp32Backend),
        "1:401c8e53/412fcd0d 2:400c0e98/411d1527"
    );
}

#[test]
fn hbfp8_language_model_curve_is_pinned() {
    assert_eq!(
        language_curve(&Hbfp8Backend::new()),
        "1:401c892c/412fc3f9 2:400c08e2/411d0933"
    );
}

#[test]
fn bf16_language_model_curve_is_pinned() {
    assert_eq!(
        language_curve(&Bf16Backend),
        "1:401c8e56/412fccee 2:400c0d35/411d0d24"
    );
}
