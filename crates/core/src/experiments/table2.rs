//! Table 2: training and inference performance for various DNN models
//! on Equinox_500µs.

use crate::accelerator::{Equinox, RunOptions};
use crate::experiments::{simulate, ExperimentScale};
use equinox_arith::Encoding;
use equinox_isa::models::ModelSpec;
use equinox_model::LatencyConstraint;

/// One row of Table 2.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Model name.
    pub model: String,
    /// Training throughput at 60 % inference load, TOp/s.
    pub training_tops: f64,
    /// Maximum inference throughput, TOp/s.
    pub inference_tops: f64,
    /// Inference (batch service) latency, ms.
    pub inference_latency_ms: f64,
}

/// The Table 2 result.
#[derive(Debug, Clone)]
pub struct Table2 {
    /// Rows: the paper's LSTM, GRU and ResNet-50, then two extension
    /// workload classes: a TPU-style MLP and a BERT-base Transformer
    /// encoder.
    pub rows: Vec<Table2Row>,
}

/// ResNet-50 inference batch on the large-MMU configuration (the conv
/// GEMMs are tall, so utilization does not need `n` samples).
const RESNET_BATCH: usize = 8;

/// Runs the sensitivity study. The Transformer's weights exceed the
/// 50 MB weight buffer, so its inference throughput is additionally
/// bounded by streaming weights from DRAM (the Brainwave large-model
/// case).
pub fn run(scale: ExperimentScale) -> Table2 {
    let eq = Equinox::build(Encoding::Hbfp8, LatencyConstraint::Micros(500))
        .expect("the 500 µs design exists");
    let models: [(ModelSpec, Option<usize>); 5] = [
        (ModelSpec::lstm_2048_25(), None),
        (ModelSpec::gru_2816_1500(), None),
        (ModelSpec::resnet50(), Some(RESNET_BATCH)),
        (ModelSpec::mlp_2048x5(), None),
        (ModelSpec::transformer_encoder_768(), Some(16)),
    ];
    let cells: Vec<_> = models
        .into_iter()
        .map(|(model, batch)| {
            let timing = match batch {
                Some(b) => eq.compile_with_batch(&model, b),
                None => eq.compile(&model),
            }
            .expect("reference workload compiles");
            // Training throughput at 60 % load (training instance of the
            // same model, per the paper's setup).
            let opts = RunOptions {
                train_model: Some(model.clone()),
                // GRU batches are ~75 ms; keep the request count modest.
                target_requests: scale.target_requests().min(2000),
                model,
                ..RunOptions::colocated(0.6)
            };
            (&eq, timing, opts)
        })
        .collect();
    let rows = cells
        .iter()
        .zip(simulate(cells.clone()))
        .map(|((_, timing, RunOptions { model, .. }), report)| {
            let mut inference_ops = timing.effective_throughput_ops(eq.freq_hz());
            let weight_bytes = model.weight_params() * Encoding::Hbfp8.bytes_per_value() as u64;
            if weight_bytes > 50 << 20 {
                // Weights stream once per batch: throughput is also
                // bounded by the batch's arithmetic intensity over the
                // weight bytes.
                let intensity = 2.0 * timing.total_macs as f64 / weight_bytes as f64;
                let dram_bound = intensity * eq.config().dram.bandwidth_bytes_per_s;
                inference_ops = inference_ops.min(dram_bound);
            }
            Table2Row {
                model: model.name().to_string(),
                training_tops: report.training_tops(),
                inference_tops: inference_ops / 1e12,
                inference_latency_ms: timing.service_time_s(eq.freq_hz()) * 1e3,
            }
        })
        .collect();
    Table2 { rows }
}

impl Table2 {
    /// A row by model name.
    pub fn row(&self, model: &str) -> Option<&Table2Row> {
        self.rows.iter().find(|r| r.model == model)
    }
}

impl std::fmt::Display for Table2 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Table 2 — workload sensitivity on Equinox_500us (training @60% load):"
        )?;
        writeln!(
            f,
            "  {:<10} {:>14} {:>15} {:>13}",
            "Model", "Train (TOp/s)", "Inf max (TOp/s)", "Inf lat (ms)"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "  {:<10} {:>14.1} {:>15.1} {:>13.2}",
                r.model, r.training_tops, r.inference_tops, r.inference_latency_ms
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sensitivity_shapes() {
        let t = run(ExperimentScale::Quick);
        assert_eq!(t.rows.len(), 5);
        let lstm = t.row("LSTM").unwrap();
        let gru = t.row("GRU").unwrap();
        let resnet = t.row("Resnet50").unwrap();
        // LSTM and GRU achieve the same inference throughput despite two
        // orders of magnitude different service times (paper's point).
        let rel = (lstm.inference_tops - gru.inference_tops).abs() / lstm.inference_tops;
        assert!(rel < 0.15, "LSTM {} vs GRU {}", lstm.inference_tops, gru.inference_tops);
        assert!(gru.inference_latency_ms > 20.0 * lstm.inference_latency_ms);
        // ResNet-50 maps poorly on the large MMU: a fraction of peak.
        assert!(
            resnet.inference_tops < 0.5 * lstm.inference_tops,
            "resnet {} vs lstm {}",
            resnet.inference_tops,
            lstm.inference_tops
        );
        assert!(resnet.training_tops < lstm.training_tops);
        // LSTM latency ≈0.5 ms; training throughput meaningful at 60 %.
        assert!(lstm.inference_latency_ms > 0.3 && lstm.inference_latency_ms < 0.8);
        assert!(lstm.training_tops > 20.0, "{}", lstm.training_tops);
        // The MLP is pure vector-matrix work like the LSTM: comparable
        // inference throughput on the same geometry.
        let mlp = t.row("MLP").unwrap();
        assert!(
            (mlp.inference_tops - lstm.inference_tops).abs() / lstm.inference_tops < 0.25,
            "MLP {} vs LSTM {}",
            mlp.inference_tops,
            lstm.inference_tops
        );
        // The Transformer trains and serves at meaningful rates too.
        let tf = t.row("Transformer").unwrap();
        assert!(tf.inference_tops > 50.0, "{}", tf.inference_tops);
        assert!(tf.training_tops > 5.0, "{}", tf.training_tops);
    }
}
