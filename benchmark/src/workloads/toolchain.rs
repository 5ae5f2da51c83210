//! `toolchain`: the compile gate and the static analyzer.
//!
//! A pass covers the Table 1 hbfp8 family × {LSTM, GRU, ResNet50, MLP} ×
//! {inference, training}: 32 units, from a cold compile cache. An
//! inference unit runs the installation fit, lowers the program and
//! runs each program pass of the analyzer on it in turn; a training
//! unit lowers one training iteration and runs the same passes.
//! Programs estimated above 2 M instructions are skipped, as the
//! `equinox-check` sweep does, and so are workloads that do not install.
//! Nothing here is random, so the seed changes nothing.

use super::{failure, Scale};
use crate::harness::{sum, UnitId, UnitOutput, Workload};
use crate::trace::SpanCtx;
use equinox_arith::Encoding;
use equinox_check::bounds::paper_energy_params;
use equinox_check::{
    analyze_installation, analyze_program_with, BoundsOptions, BufferBudget, NumericsOptions, Pass,
    PassSelection, Report,
};
use equinox_core::Equinox;
use equinox_isa::cache::{compile_inference_cached, lower_training_cached};
use equinox_isa::lower::{estimate_inference_instructions, InferenceTiming};
use equinox_isa::models::ModelSpec;
use equinox_isa::training::{estimate_training_instructions, TrainingSetup};
use equinox_model::{DesignSpace, LatencyConstraint, TechnologyParams};
use equinox_sim::{AcceleratorConfig, CostModel};

/// The program passes, each run by its own call.
const PASSES: [Pass; 5] = [
    Pass::Dataflow,
    Pass::Resources,
    Pass::Encoding,
    Pass::Bounds,
    Pass::Numerics,
];

/// The `toolchain` workload.
pub struct Toolchain(pub Scale);

/// One unit: a program to lower and analyze.
struct Cell {
    config: AcceleratorConfig,
    model: ModelSpec,
    training: bool,
    /// Estimated instructions; 0 when the unit will be skipped.
    estimate: u64,
}

/// What every unit shares: the grid, largest programs first.
pub struct Setup {
    cells: Vec<Cell>,
}

impl Toolchain {
    /// Programs estimated above this many instructions are skipped.
    fn cap(&self) -> u64 {
        match self.0 {
            Scale::Full => 2_000_000,
            Scale::Smoke => 20_000,
        }
    }
}

/// Batch a model is served at: the geometry's `n` for RNN/MLP, 8 for
/// im2col workloads, as the analyzer sweep serves them.
fn serving_batch(model: &ModelSpec, n: usize) -> usize {
    if model.is_vector_matrix() {
        n
    } else {
        8
    }
}

/// Training configuration per model, as the analyzer sweep uses it:
/// RNN/MLP minibatch 128 (the GRU's 1500-step unroll at 32), im2col
/// workloads at 8.
fn training_setup(model: &ModelSpec) -> TrainingSetup {
    let batch = match model.name() {
        "GRU" => 32,
        _ if model.is_vector_matrix() => 128,
        _ => 8,
    };
    TrainingSetup {
        batch,
        encoding: Encoding::Hbfp8,
        ..TrainingSetup::paper_default()
    }
}

impl Workload for Toolchain {
    type Setup = Setup;

    fn setup(&self, _: u64, ctx: SpanCtx<'_>) -> Result<Setup, String> {
        let family = ctx.span("model", "DesignSpace::sweep", |_| {
            let space = DesignSpace::sweep(Encoding::Hbfp8, &TechnologyParams::tsmc28());
            LatencyConstraint::table1_rows()
                .into_iter()
                .filter_map(|c| Equinox::build_from_space(Encoding::Hbfp8, c, &space).ok())
                .collect::<Vec<_>>()
        });
        if family.len() != LatencyConstraint::table1_rows().len() {
            return Err(format!("only {} Table 1 designs exist", family.len()));
        }
        let models = [
            ModelSpec::lstm_2048_25(),
            ModelSpec::gru_2816_1500(),
            ModelSpec::resnet50(),
            ModelSpec::mlp_2048x5(),
        ];
        let mut cells = Vec::new();
        for eq in &family {
            let dims = eq.dims();
            for model in &models {
                for training in [false, true] {
                    let estimate = if training {
                        estimate_training_instructions(model, &dims, &training_setup(model))
                    } else {
                        estimate_inference_instructions(model, &dims, serving_batch(model, dims.n))
                    };
                    let estimate = if estimate <= self.cap() { estimate } else { 0 };
                    cells.push(Cell {
                        config: eq.config().clone(),
                        model: model.clone(),
                        training,
                        estimate,
                    });
                }
            }
        }
        cells.sort_by_key(|c| std::cmp::Reverse(c.estimate));
        Ok(Setup { cells })
    }

    fn units_per_pass(&self, setup: &Setup) -> usize {
        setup.cells.len()
    }

    fn parallel(&self) -> bool {
        true
    }

    fn run_unit(&self, setup: &Setup, id: UnitId, ctx: SpanCtx<'_>) -> UnitOutput {
        let Cell {
            config,
            model,
            training,
            estimate,
        } = &setup.cells[id.index];
        let dims = config.dims;
        let budget = BufferBudget::paper_default();
        let mut fields = vec![("estimate", *estimate as f64)];
        let program = if *training {
            (*estimate > 0).then(|| {
                ctx.span("isa", "lower_training_cached", |ctx| {
                    let p = lower_training_cached(model, &dims, &training_setup(model));
                    ctx.count("isa.instr", p.instructions().len() as f64);
                    p
                })
            })
        } else {
            let batch = serving_batch(model, dims.n);
            let install = ctx.span("check", "analyze_installation", |_| {
                analyze_installation(model, Encoding::Hbfp8, batch, &budget)
            });
            fields.push(("install_errors", install.error_count() as f64));
            (!install.has_errors() && *estimate > 0).then(|| {
                let p = ctx.span("isa", "compile_inference_cached", |ctx| {
                    let p = compile_inference_cached(model, &dims, batch, Encoding::Hbfp8, &budget);
                    ctx.count("isa.instr", p.instructions().len() as f64);
                    p
                });
                fields.push((
                    "service_cycles",
                    InferenceTiming::from_program(&p, &dims, batch).total_cycles as f64,
                ));
                p
            })
        };
        let Some(program) = program else {
            fields.push(("skipped", 1.0));
            return UnitOutput {
                fields,
                failure: None,
            };
        };
        let instructions = program.instructions().len() as f64;
        let cost = CostModel::from_config(config)
            .with_energy(paper_energy_params(Encoding::Hbfp8, config.freq_hz));
        let mut report = Report::new(program.name().to_string());
        for pass in PASSES {
            let found = ctx.span("check", pass.name(), |ctx| {
                ctx.count("check.instr", instructions);
                analyze_program_with(
                    &program,
                    &dims,
                    &budget,
                    Encoding::Hbfp8,
                    &PassSelection::none().with(pass),
                    Some(&cost),
                    &BoundsOptions::default(),
                    &NumericsOptions::default(),
                )
                .0
            });
            report.extend(found.diagnostics().iter().cloned());
        }
        fields.extend([
            ("instr", instructions),
            ("errors", report.error_count() as f64),
            ("warnings", report.warning_count() as f64),
            ("diagnostics", report.diagnostics().len() as f64),
        ]);
        let verdict = ctx.span("bench", "check", |_| check(&report));
        match verdict {
            Ok(()) => UnitOutput {
                fields,
                failure: None,
            },
            Err(why) => UnitOutput {
                fields,
                ..failure(why)
            },
        }
    }

    fn summarize(&self, first: &[UnitOutput]) -> Vec<(&'static str, f64)> {
        vec![
            ("sim_service_mcycles", sum(first, "service_cycles") / 1e6),
            ("isa.instr", sum(first, "instr")),
            ("check.diagnostics", sum(first, "diagnostics")),
        ]
    }
}

/// The unit's output check: no error-severity diagnostic from any
/// program pass.
pub fn check(report: &Report) -> Result<(), String> {
    if report.has_errors() {
        Err(format!(
            "{} error-severity diagnostic(s) on {}:\n{}",
            report.error_count(),
            report.subject(),
            report.render_human()
        ))
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use equinox_check::{Code, Diagnostic};

    #[test]
    fn check_fires_on_an_error_diagnostic() {
        let mut report = Report::new("LSTM");
        report.push(Diagnostic::note(Code::ANALYSIS_SKIPPED, "a note is fine"));
        assert_eq!(check(&report), Ok(()));
        report.push(Diagnostic::error(Code::DECODE_ERROR, "doctored"));
        assert!(check(&report).unwrap_err().contains("1 error-severity"));
    }

    #[test]
    fn the_grid_lists_the_largest_programs_first() {
        let w = Toolchain(Scale::Full);
        let setup = w
            .setup(0, crate::trace::Tracer::new(false).root())
            .expect("set-up");
        assert_eq!(w.units_per_pass(&setup), 32);
        let estimates: Vec<u64> = setup.cells.iter().map(|c| c.estimate).collect();
        assert!(estimates.windows(2).all(|p| p[0] >= p[1]), "{estimates:?}");
        assert!(estimates.iter().all(|&e| e <= w.cap()));
        assert!(
            setup.cells.iter().any(|c| c.estimate == 0),
            "some programs exceed the cap"
        );
    }
}
