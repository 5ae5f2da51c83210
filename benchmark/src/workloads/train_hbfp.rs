//! `train_hbfp`: the software trainer and the arithmetic under it.
//!
//! Set-up synthesizes the datasets from the seed: order-2 Markov token
//! sequences and a teacher-student classification set. A pass runs
//! three units one after another: the LSTM language model with BPTT
//! (Figure 2's recurrent extension) under hbfp8, the same model from
//! the same initial weights under fp32, and the MLP classifier under
//! hbfp8. The benchmark drives the `train_step` loop itself so that
//! each step is timed, and every GEMM goes through a counting backend
//! so MACs are exact. This is the only workload whose wall clock GEMM
//! kernels can move. It runs with the worker pool held to one thread, so
//! the GEMMs take their serial path (see `workloads::run`).

use super::Scale;
use crate::harness::{sum, UnitId, UnitOutput, Workload};
use crate::trace::SpanCtx;
use equinox_arith::gemm::gemm_macs;
use equinox_arith::Matrix;
use equinox_sim::loadgen::split_seed;
use equinox_trainer::dataset::{
    markov_sequences, teacher_student, ClassificationData, SequenceData,
};
use equinox_trainer::lstm::{LstmConfig, LstmLm};
use equinox_trainer::mlp::Mlp;
use equinox_trainer::{Backend, Fp32Backend, Hbfp8Backend, TrainConfig};
use std::cell::Cell;

/// The `train_hbfp` workload.
pub struct TrainHbfp(pub Scale);

/// What every unit shares.
pub struct Setup {
    sequences: SequenceData,
    classes: ClassificationData,
    hbfp8: Hbfp8Backend,
}

/// Sizes at one scale.
struct Sizes {
    sequences: usize,
    lstm_epochs: usize,
    samples: usize,
    mlp_epochs: usize,
}

impl TrainHbfp {
    fn sizes(&self) -> Sizes {
        match self.0 {
            Scale::Full => Sizes {
                sequences: 128,
                lstm_epochs: 4,
                samples: 512,
                mlp_epochs: 10,
            },
            Scale::Smoke => Sizes {
                sequences: 32,
                lstm_epochs: 2,
                samples: 128,
                mlp_epochs: 2,
            },
        }
    }
}

/// A backend that forwards to `inner`, counts GEMM MACs from the
/// operand shapes and, when tracing, records a span per call.
struct Counted<'a> {
    inner: &'a dyn Backend,
    ctx: Cell<SpanCtx<'a>>,
    macs: Cell<u64>,
}

impl Backend for Counted<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn gemm(&self, a: &Matrix, b: &Matrix) -> Matrix {
        let macs = gemm_macs(a.rows(), a.cols(), b.cols());
        self.macs.set(self.macs.get() + macs);
        self.ctx.get().span("arith", "gemm", |ctx| {
            ctx.count("arith.macs", macs as f64);
            self.inner.gemm(a, b)
        })
    }

    fn store_weights(&self, weights: &Matrix) -> Matrix {
        self.ctx.get().span("arith", "store_weights", |_| {
            self.inner.store_weights(weights)
        })
    }

    fn writeback(&self, values: &Matrix) -> Matrix {
        self.ctx
            .get()
            .span("arith", "writeback", |_| self.inner.writeback(values))
    }
}

impl<'a> Counted<'a> {
    /// Runs one training step as a `trainer` span with the GEMMs below it.
    fn step(&self, ctx: SpanCtx<'a>, f: impl FnOnce(&dyn Backend) -> f32) -> f32 {
        ctx.span("trainer", "train_step", |ctx| {
            self.ctx.set(ctx);
            let before = self.macs.get();
            let loss = f(self);
            ctx.count("trainer.macs", (self.macs.get() - before) as f64);
            loss
        })
    }
}

/// Per-epoch training loss and validation metric of one unit.
struct Curve {
    losses: Vec<f32>,
    metric: Vec<f32>,
    steps: usize,
}

impl Curve {
    fn fields(&self, metric: &'static str, macs: u64) -> Vec<(&'static str, f64)> {
        let first = |v: &[f32]| f64::from(v.first().copied().unwrap_or(f32::NAN));
        let last = |v: &[f32]| f64::from(v.last().copied().unwrap_or(f32::NAN));
        vec![
            ("steps", self.steps as f64),
            ("first_loss", first(&self.losses)),
            ("final_loss", last(&self.losses)),
            (
                if metric == "ppl" {
                    "first_ppl"
                } else {
                    "first_err"
                },
                first(&self.metric),
            ),
            (
                if metric == "ppl" {
                    "final_ppl"
                } else {
                    "final_err"
                },
                last(&self.metric),
            ),
            ("macs", macs as f64),
        ]
    }
}

impl Workload for TrainHbfp {
    type Setup = Setup;

    fn setup(&self, seed: u64, ctx: SpanCtx<'_>) -> Result<Setup, String> {
        let s = self.sizes();
        let sequences = ctx.span("trainer", "markov_sequences", |_| {
            markov_sequences(
                s.sequences,
                s.sequences / 4,
                20,
                8,
                split_seed(seed, 1 << 41),
            )
        });
        let classes = ctx.span("trainer", "teacher_student", |_| {
            teacher_student(
                s.samples,
                s.samples / 4,
                16,
                4,
                split_seed(seed, 1 << 41 | 1),
            )
        });
        Ok(Setup {
            sequences,
            classes,
            hbfp8: Hbfp8Backend::new(),
        })
    }

    fn units_per_pass(&self, _: &Setup) -> usize {
        3
    }

    fn parallel(&self) -> bool {
        false
    }

    fn run_unit(&self, setup: &Setup, id: UnitId, ctx: SpanCtx<'_>) -> UnitOutput {
        // Units 0 and 1 of a pass start from the same weights, so their
        // perplexity gap is the arithmetic's alone.
        let init = split_seed(id.run_seed, 1 << 42 | id.pass as u64);
        let s = self.sizes();
        let inner: &dyn Backend = if id.index == 1 {
            &Fp32Backend
        } else {
            &setup.hbfp8
        };
        let backend = Counted {
            inner,
            ctx: Cell::new(ctx),
            macs: Cell::new(0),
        };
        let (kind, curve) = if id.index < 2 {
            (
                "ppl",
                train_lstm(&backend, &setup.sequences, s.lstm_epochs, init, ctx),
            )
        } else {
            (
                "err",
                train_mlp(&backend, &setup.classes, s.mlp_epochs, init, ctx),
            )
        };
        let mut fields = vec![("unit", id.index as f64)];
        fields.extend(curve.fields(kind, backend.macs.get()));
        let failure = ctx.span("bench", "check", |_| {
            check(&curve.losses, &curve.metric, kind == "ppl").err()
        });
        UnitOutput { fields, failure }
    }

    fn summarize(&self, first: &[UnitOutput]) -> Vec<(&'static str, f64)> {
        let (hbfp8, fp32) = (first[0].field("final_ppl"), first[1].field("final_ppl"));
        vec![
            ("hbfp_ppl_gap", (hbfp8 - fp32).abs() / fp32),
            ("trainer.steps", sum(first, "steps")),
            ("trainer.macs", sum(first, "macs")),
        ]
    }
}

fn train_lstm<'a>(
    backend: &Counted<'a>,
    data: &SequenceData,
    epochs: usize,
    seed: u64,
    ctx: SpanCtx<'a>,
) -> Curve {
    let config = LstmConfig {
        epochs,
        seed,
        ..LstmConfig::default()
    };
    let mut model = LstmLm::new(data.vocab, &config);
    let mut curve = Curve {
        losses: Vec::new(),
        metric: Vec::new(),
        steps: 0,
    };
    for _ in 0..epochs {
        let mut total = 0.0;
        let mut steps = 0;
        for chunk in data.train.chunks(config.batch) {
            let batch: Vec<&[usize]> = chunk.iter().map(Vec::as_slice).collect();
            total += backend.step(ctx, |b| model.train_step(b, &batch));
            steps += 1;
        }
        curve.steps += steps;
        curve.losses.push(total / steps as f32);
        curve
            .metric
            .push(ctx.span("trainer", "validation_perplexity", |_| {
                model.validation_perplexity(backend.inner, &data.val)
            }));
    }
    curve
}

fn train_mlp<'a>(
    backend: &Counted<'a>,
    data: &ClassificationData,
    epochs: usize,
    seed: u64,
    ctx: SpanCtx<'a>,
) -> Curve {
    let config = TrainConfig {
        epochs,
        seed,
        ..TrainConfig::default()
    };
    let mut mlp = Mlp::new(
        data.train_x.cols(),
        config.hidden,
        data.classes,
        config.lr,
        seed,
    );
    let mut curve = Curve {
        losses: Vec::new(),
        metric: Vec::new(),
        steps: 0,
    };
    let rows = data.train_x.rows();
    for _ in 0..epochs {
        let mut total = 0.0;
        let mut steps = 0;
        for start in (0..rows).step_by(config.batch) {
            let end = (start + config.batch).min(rows);
            let x = Matrix::from_fn(end - start, data.train_x.cols(), |r, c| {
                data.train_x.get(start + r, c)
            });
            let y = &data.train_y[start..end];
            total += backend.step(ctx, |b| mlp.train_step(b, &x, y));
            steps += 1;
        }
        curve.steps += steps;
        curve.losses.push(total / steps as f32);
        curve
            .metric
            .push(ctx.span("trainer", "validation_error", |_| {
                mlp.validation_error(backend.inner, &data.val_x, &data.val_y)
            }));
    }
    curve
}

/// The unit's output check: every loss and validation metric is finite,
/// the training loss fell from the first epoch to the last, and for the
/// language model the validation perplexity fell too.
pub fn check(losses: &[f32], metric: &[f32], perplexity: bool) -> Result<(), String> {
    if let Some(bad) = losses.iter().chain(metric).find(|v| !v.is_finite()) {
        return Err(format!("non-finite loss or metric {bad}"));
    }
    let fell = |v: &[f32]| matches!((v.first(), v.last()), (Some(a), Some(b)) if b < a);
    if !fell(losses) {
        return Err(format!("training loss did not fall: {losses:?}"));
    }
    if perplexity && !fell(metric) {
        return Err(format!("validation perplexity did not fall: {metric:?}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_fires_on_doctored_curves() {
        assert_eq!(check(&[2.0, 1.5], &[7.0, 5.0], true), Ok(()));
        assert!(check(&[2.0, f32::NAN], &[7.0, 5.0], true)
            .unwrap_err()
            .contains("non-finite"));
        assert!(check(&[2.0, 1.5], &[7.0, f32::INFINITY], true)
            .unwrap_err()
            .contains("non-finite"));
        assert!(check(&[2.0, 2.5], &[7.0, 5.0], true)
            .unwrap_err()
            .contains("loss did not fall"));
        assert!(check(&[2.0, 1.5], &[5.0, 5.0], true)
            .unwrap_err()
            .contains("perplexity"));
        // A classifier's validation error may plateau.
        assert_eq!(check(&[2.0, 1.5], &[0.2, 0.2], false), Ok(()));
    }

    #[test]
    fn counted_backend_counts_gemm_macs_exactly() {
        let tracer = crate::trace::Tracer::new(true);
        let backend = Counted {
            inner: &Fp32Backend,
            ctx: Cell::new(tracer.root()),
            macs: Cell::new(0),
        };
        let a = Matrix::zeros(3, 4);
        let b = Matrix::zeros(4, 5);
        let loss = backend.step(tracer.root(), |be| {
            be.gemm(&a, &b);
            be.gemm(&b.transpose(), &a.transpose());
            1.0
        });
        assert_eq!(loss, 1.0);
        assert_eq!(backend.macs.get(), 2 * 3 * 4 * 5);
        let steps: Vec<_> = tracer
            .counters()
            .into_iter()
            .filter(|c| c.1 == "trainer.macs")
            .collect();
        assert_eq!(steps.len(), 1);
        assert_eq!(steps[0].2, 120.0);
        let gemms = tracer
            .spans()
            .into_iter()
            .filter(|s| s.name == "gemm")
            .count();
        assert_eq!(gemms, 2);
    }
}
