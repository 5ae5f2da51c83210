//! Pins the per-epoch training loss and validation perplexity of a
//! short LSTM language-model run under each encoding.
//!
//! A run goes through every GEMM kernel, the HBFP write-back path and
//! the validation forward pass, so any change to their bits, or to the
//! order in which the trainer combines them, shows here as a
//! different line. The values were recorded before the kernels and
//! validation were rewritten for speed; a deliberate change re-records
//! them and says why.

use equinox_trainer::dataset::markov_sequences;
use equinox_trainer::lstm::{train_lstm_lm, LstmConfig};
use equinox_trainer::{Backend, Bf16Backend, Fp32Backend, Hbfp8Backend};

/// `epoch:loss_bits/ppl_bits` for every epoch of a 2-epoch run.
fn curve(backend: &dyn Backend) -> String {
    let data = markov_sequences(48, 12, 14, 8, 77);
    let config = LstmConfig {
        epochs: 2,
        ..LstmConfig::default()
    };
    train_lstm_lm(backend, &data, &config)
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
