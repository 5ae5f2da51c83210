//! Figure 2: hbfp8 matches fp32 convergence (validation error and
//! validation perplexity), with bfloat16 as the reference encoding.

use crate::experiments::ExperimentScale;
use equinox_trainer::backend::{Backend, Bf16Backend, Fp32Backend, Hbfp8Backend};
use equinox_trainer::dataset;
use equinox_trainer::lstm::{train_lstm_lm, LstmConfig};
use equinox_trainer::train::{self, ConvergenceCurve, TrainConfig};

/// The Figure 2 result: one curve per encoding per task.
#[derive(Debug, Clone)]
pub struct Fig2 {
    /// Figure 2a analog: validation error on the classification task.
    pub classification: Vec<ConvergenceCurve>,
    /// Figure 2b analog: validation perplexity on the language task.
    pub language: Vec<ConvergenceCurve>,
    /// Recurrent extension: LSTM-with-BPTT perplexity on order-2
    /// sequences — the paper's own workload family, trained through
    /// the quantized datapaths (fp32 and hbfp8).
    pub lstm: Vec<ConvergenceCurve>,
}

/// The three Figure 2 tasks; each trains once per encoding.
#[derive(Clone, Copy)]
enum Task {
    Classification,
    Language,
    Lstm,
}

/// Runs the convergence studies for fp32, hbfp8 and bfloat16.
///
/// The eight training runs are independent, so each is one pool task;
/// every GEMM inside a run is serial.
pub fn run(scale: ExperimentScale) -> Fig2 {
    let (train_n, val_n, lm_train, lm_val) = match scale {
        ExperimentScale::Quick => (512, 128, 1024, 256),
        ExperimentScale::Full => (2048, 512, 8192, 2048),
    };
    let cfg = TrainConfig { epochs: scale.epochs(), ..Default::default() };
    let cls_data = dataset::teacher_student(train_n, val_n, 16, 4, 97);
    let lm_data = dataset::markov_text(lm_train, lm_val, 16, 131);
    let lm_cfg = TrainConfig { hidden: 32, lr: 0.3, ..cfg };
    let (seqs, lstm_epochs) = match scale {
        ExperimentScale::Quick => (128, 8),
        ExperimentScale::Full => (512, 20),
    };
    let seq_data = dataset::markov_sequences(seqs, seqs / 4, 20, 8, 55);
    let lstm_cfg = LstmConfig { epochs: lstm_epochs, ..Default::default() };
    let hbfp8 = Hbfp8Backend::new();
    let backends: [&(dyn Backend + Sync); 3] = [&Fp32Backend, &hbfp8, &Bf16Backend];
    // Artifact order: three classifiers, three language models, then
    // the fp32 and hbfp8 LSTMs.
    let mut jobs: Vec<_> = [Task::Classification, Task::Language]
        .into_iter()
        .flat_map(|task| backends.map(|backend| (task, backend)))
        .chain(backends[..2].iter().map(|&backend| (Task::Lstm, backend)))
        .collect();
    // `parallel_map` deals contiguous blocks of jobs to its workers, so
    // list the heaviest first: reverse artifact order, LSTMs leading.
    jobs.reverse();
    let mut curves = equinox_par::parallel_map(jobs, |(task, backend)| match task {
        Task::Classification => train::train_classifier(backend, &cls_data, &cfg),
        Task::Language => train::train_language_model(backend, &lm_data, &lm_cfg),
        Task::Lstm => train_lstm_lm(backend, &seq_data, &lstm_cfg),
    });
    curves.reverse();
    let lstm = curves.split_off(6);
    let language = curves.split_off(3);
    Fig2 { classification: curves, language, lstm }
}

impl Fig2 {
    /// The curve with a given label in a task's set.
    pub fn curve<'a>(
        curves: &'a [ConvergenceCurve],
        label: &str,
    ) -> Option<&'a ConvergenceCurve> {
        curves.iter().find(|c| c.label == label)
    }

    /// Absolute gap between hbfp8's and fp32's final validation error.
    pub fn classification_gap(&self) -> f32 {
        let fp32 = Self::curve(&self.classification, "fp32").map(|c| c.final_metric());
        let hbfp = Self::curve(&self.classification, "hbfp8").map(|c| c.final_metric());
        match (fp32, hbfp) {
            (Some(a), Some(b)) => (a - b).abs(),
            _ => f32::NAN,
        }
    }

    /// Relative gap between hbfp8's and fp32's final perplexity.
    pub fn perplexity_gap(&self) -> f32 {
        let fp32 = Self::curve(&self.language, "fp32").map(|c| c.final_metric());
        let hbfp = Self::curve(&self.language, "hbfp8").map(|c| c.final_metric());
        match (fp32, hbfp) {
            (Some(a), Some(b)) if a > 0.0 => (a - b).abs() / a,
            _ => f32::NAN,
        }
    }
}

impl std::fmt::Display for Fig2 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Figure 2a — validation error (classification):")?;
        for c in &self.classification {
            writeln!(
                f,
                "  {:<9} final {:.3}  best {:.3}",
                c.label,
                c.final_metric(),
                c.best_metric()
            )?;
        }
        writeln!(f, "Figure 2b — validation perplexity (language model):")?;
        for c in &self.language {
            writeln!(
                f,
                "  {:<9} final {:.3}  best {:.3}",
                c.label,
                c.final_metric(),
                c.best_metric()
            )?;
        }
        writeln!(f, "Recurrent extension — LSTM/BPTT validation perplexity:")?;
        for c in &self.lstm {
            writeln!(
                f,
                "  {:<9} final {:.3}  best {:.3}",
                c.label,
                c.final_metric(),
                c.best_metric()
            )?;
        }
        write!(
            f,
            "hbfp8 vs fp32: error gap {:.3}, perplexity gap {:.1}%",
            self.classification_gap(),
            self.perplexity_gap() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_matches_paper_claim() {
        let fig = run(ExperimentScale::Quick);
        // Each task's curves come back in artifact order, whatever
        // order the pool ran them in.
        let labels = |curves: &[ConvergenceCurve]| -> Vec<String> {
            curves.iter().map(|c| c.label.clone()).collect()
        };
        assert_eq!(labels(&fig.classification), ["fp32", "hbfp8", "bfloat16"]);
        assert_eq!(labels(&fig.language), ["fp32", "hbfp8", "bfloat16"]);
        assert_eq!(labels(&fig.lstm), ["fp32", "hbfp8"]);
        // The Figure 2 claim: hbfp8 tracks fp32.
        assert!(fig.classification_gap() < 0.10, "gap {}", fig.classification_gap());
        assert!(fig.perplexity_gap() < 0.15, "gap {}", fig.perplexity_gap());
        // And both actually learned something.
        let fp32 = Fig2::curve(&fig.classification, "fp32").unwrap();
        assert!(fp32.final_metric() < fp32.points[0].val_metric);
        // The recurrent extension: hbfp8 BPTT tracks fp32 BPTT.
        let lstm_fp32 = Fig2::curve(&fig.lstm, "fp32").unwrap();
        let lstm_hbfp = Fig2::curve(&fig.lstm, "hbfp8").unwrap();
        let rel = (lstm_hbfp.final_metric() - lstm_fp32.final_metric()).abs()
            / lstm_fp32.final_metric();
        assert!(rel < 0.15, "lstm fp32 {} vs hbfp8 {}", lstm_fp32.final_metric(),
            lstm_hbfp.final_metric());
        let s = fig.to_string();
        assert!(s.contains("hbfp8"));
        assert!(s.contains("LSTM/BPTT"));
    }
}
