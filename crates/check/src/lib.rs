//! # equinox-check
//!
//! A multi-pass static analyzer for lowered Equinox ISA programs and
//! accelerator configurations.
//!
//! The simulator executes whatever program the compiler (or a hand
//! assembler) produces; this crate catches malformed inputs *before*
//! cycles are spent simulating them, with structured diagnostics
//! ([`Diagnostic`]) carrying stable `EQXnnnn` codes, severities, and
//! instruction spans. Five program pass families run over lowered
//! programs:
//!
//! 1. **Dataflow** ([`dataflow`]) — precise operand-level def-use
//!    analysis over the byte regions instructions name
//!    (use-before-define, partial clobber of live regions, DMA races
//!    across a missing `Sync` / double-buffer aliasing, out-of-bounds
//!    regions, dead stores, undersized operands);
//! 2. **Resources** ([`resources`]) — MMU geometry bounds,
//!    instruction-buffer streaming capacity, installation fit, and
//!    training DRAM-traffic sanity;
//! 3. **Encoding** ([`encoding`]) — encode→decode round-trip
//!    verification of the 16-byte wire format;
//! 4. **Bounds** ([`bounds`]) — static `[lower, upper]` cycle and
//!    energy envelopes from the simulator's own cost model
//!    (un-overlappable DMA, utilization floors, power-envelope
//!    violations), calibrated against the cycle-accurate simulator;
//! 5. **Numerics** ([`numerics`]) — HBFP-aware abstract interpretation
//!    over magnitude/exponent domains (reduction-chain saturation,
//!    exponent-field overflow, requantization flush, stalled weight
//!    updates), calibrated against executed fixed-point arithmetic.
//!    Runs only for hbfp8 programs — bf16 designs accumulate in fp32
//!    and have no shared-exponent blocks.
//!
//! The program families can be selected individually
//! ([`PassSelection`]), and [`analyze_program_with`] reports per-family
//! wall-clock so drivers can record where analysis time goes.
//!
//! The configuration lints ([`config`], `04xx`: scheduler starvation,
//! degenerate batching thresholds, Pareto-optimality) analyze an
//! accelerator configuration rather than a program, so they run through
//! [`analyze_config`] instead of a [`PassSelection`].
//!
//! Two further standalone passes sit outside the [`PassSelection`]
//! machinery because they analyze scalar parameters rather than
//! programs: [`serving`] (`07xx`) lints fleet-level admission-control
//! and autoscaling parameters ([`ServingParams`]), and
//! [`interconnect`] (`09xx`) lints the gradient-synchronization
//! fabric against its sync workload ([`InterconnectParams`]).
//!
//! ## Example
//!
//! ```
//! use equinox_check::{analyze_program, BufferBudget};
//! use equinox_isa::{ArrayDims, Instruction, Program};
//! use equinox_isa::instruction::{BufferKind, Region};
//! use equinox_arith::Encoding;
//!
//! // Stores bytes no instruction ever defined into the buffer.
//! let mut p = Program::new("broken");
//! p.push(Instruction::StoreDram {
//!     source: BufferKind::Activation,
//!     region: Region::new(0, 64),
//! });
//! let dims = ArrayDims { n: 186, w: 3, m: 3 };
//! let report = analyze_program(&p, &dims, &BufferBudget::paper_default(), Encoding::Hbfp8);
//! assert!(report.has_errors());
//! assert_eq!(report.diagnostics()[0].code.to_string(), "EQX0501");
//! ```

pub mod bounds;
pub mod config;
pub mod dataflow;
pub mod diag;
pub mod encoding;
#[cfg(test)]
mod equivalence;
pub mod interconnect;
pub mod intervals;
pub mod numerics;
pub mod resources;
pub mod serving;

pub use bounds::{BoundsOptions, CycleBounds, EnergyBounds, ProgramBounds};
pub use diag::{Code, Diagnostic, Report, Severity, Span};
pub use interconnect::{analyze_interconnect, InterconnectParams};
pub use numerics::{ChainVerdict, NumericsOptions, NumericsSummary};
pub use serving::{analyze_serving, ServingParams};
pub use equinox_isa::validate::BufferBudget;

use equinox_arith::Encoding as ValueEncoding;
use equinox_isa::models::ModelSpec;
use equinox_isa::training::TrainingProfile;
use equinox_isa::{ArrayDims, Program};
use equinox_model::DesignSpace;
use equinox_sim::{AcceleratorConfig, CostModel};
use std::time::Instant;

/// One analyzer pass family, for selection (`--pass`) and per-family
/// timing attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Pass {
    /// Operand-level def-use dataflow (`05xx`).
    Dataflow,
    /// Resource envelopes: geometry, buffers, installation (`02xx`).
    Resources,
    /// Binary encoding round-trips (`03xx`).
    Encoding,
    /// Static cycle/energy bound analysis (`06xx`).
    Bounds,
    /// HBFP numerical-safety abstract interpretation (`08xx`).
    Numerics,
}

impl Pass {
    /// Every pass family, in canonical (code-range) order.
    pub const ALL: [Pass; 5] =
        [Pass::Dataflow, Pass::Resources, Pass::Encoding, Pass::Bounds, Pass::Numerics];

    /// The stable lower-case name used by `--pass` and in artifacts.
    pub fn name(self) -> &'static str {
        match self {
            Pass::Dataflow => "dataflow",
            Pass::Resources => "resources",
            Pass::Encoding => "encoding",
            Pass::Bounds => "bounds",
            Pass::Numerics => "numerics",
        }
    }

    /// One-line description for `--list-passes`.
    pub fn description(self) -> &'static str {
        match self {
            Pass::Dataflow => "operand-level def-use analysis over byte regions (EQX05xx)",
            Pass::Resources => "buffer/geometry resource envelopes (EQX02xx)",
            Pass::Encoding => "binary encoding round-trip verification (EQX03xx)",
            Pass::Bounds => "static cycle/energy bound analysis (EQX06xx)",
            Pass::Numerics => "HBFP numerical-safety abstract interpretation (EQX08xx)",
        }
    }

    /// Parses a pass name as accepted by `--pass`.
    pub fn parse(name: &str) -> Option<Pass> {
        Pass::ALL.iter().copied().find(|p| p.name() == name)
    }
}

impl std::fmt::Display for Pass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A set of selected pass families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassSelection {
    selected: [bool; 5],
}

impl Default for PassSelection {
    fn default() -> Self {
        PassSelection::all()
    }
}

impl PassSelection {
    /// Every pass family selected (the default).
    pub fn all() -> Self {
        PassSelection { selected: [true; 5] }
    }

    /// No pass family selected.
    pub fn none() -> Self {
        PassSelection { selected: [false; 5] }
    }

    /// Selects one family (builder style).
    #[must_use]
    pub fn with(mut self, pass: Pass) -> Self {
        self.selected[pass as usize] = true;
        self
    }

    /// True when `pass` is selected.
    pub fn contains(&self, pass: Pass) -> bool {
        self.selected[pass as usize]
    }

    /// The selected families, in canonical order.
    pub fn passes(&self) -> impl Iterator<Item = Pass> + '_ {
        Pass::ALL.into_iter().filter(|p| self.contains(*p))
    }

    /// Parses a comma-separated `--pass` list (e.g. `dataflow,bounds`).
    /// Rejects unknown names with the valid choices in the message.
    pub fn parse_list(list: &str) -> Result<Self, String> {
        let mut selection = PassSelection::none();
        for name in list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            match Pass::parse(name) {
                Some(pass) => selection = selection.with(pass),
                None => {
                    let valid: Vec<&str> = Pass::ALL.iter().map(|p| p.name()).collect();
                    return Err(format!(
                        "unknown pass '{name}' (valid: {})",
                        valid.join(", ")
                    ));
                }
            }
        }
        if selection == PassSelection::none() {
            return Err("no passes selected".to_string());
        }
        Ok(selection)
    }
}

/// Runs all program-level passes (dataflow, resources, encoding,
/// numerics) over one lowered program.
pub fn analyze_program(
    program: &Program,
    dims: &ArrayDims,
    budget: &BufferBudget,
    encoding: ValueEncoding,
) -> Report {
    analyze_program_with(
        program,
        dims,
        budget,
        encoding,
        &PassSelection::all(),
        None,
        &BoundsOptions::default(),
        &NumericsOptions::default(),
    )
    .0
}

/// Runs the selected program-level passes over one lowered program,
/// returning the report plus per-family wall-clock seconds.
///
/// The bounds family runs only when selected *and* a [`CostModel`] is
/// supplied (it needs a concrete operating point to price cycles); the
/// numerics family runs only for [`ValueEncoding::Hbfp8`] programs
/// (other encodings accumulate in fp32 and carry no shared-exponent
/// blocks); the other families need nothing extra.
#[allow(clippy::too_many_arguments)]
pub fn analyze_program_with(
    program: &Program,
    dims: &ArrayDims,
    budget: &BufferBudget,
    encoding: ValueEncoding,
    passes: &PassSelection,
    bounds_cost: Option<&CostModel>,
    bounds_options: &BoundsOptions,
    numerics_options: &NumericsOptions,
) -> (Report, Vec<(Pass, f64)>) {
    let mut report = Report::new(program.name().to_string());
    let mut timings = Vec::new();
    let mut timed = |pass: Pass, report: &mut Report, run: &mut dyn FnMut(&mut Report)| {
        let start = Instant::now();
        run(report);
        timings.push((pass, start.elapsed().as_secs_f64()));
    };
    if passes.contains(Pass::Dataflow) {
        timed(Pass::Dataflow, &mut report, &mut |r| {
            r.extend(dataflow::analyze(program, budget, encoding));
        });
    }
    if passes.contains(Pass::Resources) {
        timed(Pass::Resources, &mut report, &mut |r| {
            r.extend(resources::analyze_program(program, dims, budget));
        });
    }
    if passes.contains(Pass::Encoding) {
        timed(Pass::Encoding, &mut report, &mut |r| {
            r.extend(encoding::analyze(program));
        });
    }
    if passes.contains(Pass::Bounds) {
        if let Some(cost) = bounds_cost {
            timed(Pass::Bounds, &mut report, &mut |r| {
                bounds::analyze(r, program, cost, bounds_options);
            });
        }
    }
    if passes.contains(Pass::Numerics) && encoding == ValueEncoding::Hbfp8 {
        timed(Pass::Numerics, &mut report, &mut |r| {
            numerics::analyze(r, program, encoding, numerics_options);
        });
    }
    (report, timings)
}

/// Runs the installation-fit pass for `model` served at `batch`.
pub fn analyze_installation(
    model: &ModelSpec,
    encoding: ValueEncoding,
    batch: usize,
    budget: &BufferBudget,
) -> Report {
    let mut report = Report::new(format!("{}@batch{batch}", model.name()));
    report.extend(resources::analyze_installation(model, encoding, batch, budget));
    report
}

/// Runs the configuration lints, including the Pareto-frontier check
/// when a swept design space is supplied.
pub fn analyze_config(config: &AcceleratorConfig, space: Option<&DesignSpace>) -> Report {
    let mut report = Report::new(config.name.clone());
    report.extend(config::analyze(config));
    if let Some(space) = space {
        report.extend(config::pareto_lint(config, space));
    }
    report
}

/// Runs the training-profile sanity pass under `config`'s clock and
/// DRAM interface.
pub fn analyze_training(profile: &TrainingProfile, config: &AcceleratorConfig) -> Report {
    let mut report = Report::new(format!("{}:training", config.name));
    report.extend(resources::analyze_training(
        profile,
        config.freq_hz,
        config.dram.bandwidth_bytes_per_s,
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use equinox_isa::lower::compile_inference;

    #[test]
    fn compiled_paper_workloads_are_error_free() {
        let dims = ArrayDims { n: 186, w: 3, m: 3 };
        let budget = BufferBudget::paper_default();
        for model in [
            ModelSpec::lstm_2048_25(),
            ModelSpec::gru_2816_1500(),
            ModelSpec::mlp_2048x5(),
        ] {
            let p = compile_inference(&model, &dims, dims.n);
            let r = analyze_program(&p, &dims, &budget, ValueEncoding::Hbfp8);
            assert!(!r.has_errors(), "{}", r.render_human());
        }
    }

    #[test]
    fn pass_selection_parses_and_gates_passes() {
        let sel = PassSelection::parse_list("dataflow,bounds").unwrap();
        assert!(sel.contains(Pass::Dataflow));
        assert!(sel.contains(Pass::Bounds));
        assert!(!sel.contains(Pass::Encoding));
        assert_eq!(sel.passes().collect::<Vec<_>>(), vec![Pass::Dataflow, Pass::Bounds]);
        assert!(PassSelection::parse_list("dataflow,nope").unwrap_err().contains("nope"));
        assert!(PassSelection::parse_list("").is_err());
        assert_eq!(PassSelection::default(), PassSelection::all());
        for pass in Pass::ALL {
            assert_eq!(Pass::parse(pass.name()), Some(pass));
            assert!(!pass.description().is_empty());
            assert_eq!(pass.to_string(), pass.name());
        }
    }

    #[test]
    fn timed_analysis_reports_only_selected_families() {
        use equinox_sim::CostModel;
        let dims = ArrayDims { n: 186, w: 3, m: 3 };
        let budget = BufferBudget::paper_default();
        let program = compile_inference(&ModelSpec::mlp_2048x5(), &dims, 8);
        let config = AcceleratorConfig::new("t", dims, 610e6, ValueEncoding::Hbfp8);
        let cost = CostModel::from_config(&config);
        let sel = PassSelection::parse_list("encoding,bounds").unwrap();
        let (report, timings) = analyze_program_with(
            &program,
            &dims,
            &budget,
            ValueEncoding::Hbfp8,
            &sel,
            Some(&cost),
            &BoundsOptions::default(),
            &NumericsOptions::default(),
        );
        assert!(!report.has_errors(), "{}", report.render_human());
        let families: Vec<Pass> = timings.iter().map(|(p, _)| *p).collect();
        assert_eq!(families, vec![Pass::Encoding, Pass::Bounds]);
        assert!(timings.iter().all(|(_, s)| *s >= 0.0));
        // Without a cost model, bounds cannot run even when selected.
        let (_, no_cost) = analyze_program_with(
            &program,
            &dims,
            &budget,
            ValueEncoding::Hbfp8,
            &sel,
            None,
            &BoundsOptions::default(),
            &NumericsOptions::default(),
        );
        assert_eq!(no_cost.iter().map(|(p, _)| *p).collect::<Vec<_>>(), vec![Pass::Encoding]);
    }

    #[test]
    fn numerics_pass_runs_only_for_hbfp8() {
        let dims = ArrayDims { n: 186, w: 3, m: 3 };
        let budget = BufferBudget::paper_default();
        let program = compile_inference(&ModelSpec::mlp_2048x5(), &dims, 8);
        let sel = PassSelection::none().with(Pass::Numerics);
        for (encoding, expected) in [
            (ValueEncoding::Hbfp8, vec![Pass::Numerics]),
            (ValueEncoding::Bfloat16, Vec::new()),
        ] {
            let (report, timings) = analyze_program_with(
                &program,
                &dims,
                &budget,
                encoding,
                &sel,
                None,
                &BoundsOptions::default(),
                &NumericsOptions::default(),
            );
            assert!(!report.has_errors(), "{}", report.render_human());
            assert_eq!(timings.iter().map(|(p, _)| *p).collect::<Vec<_>>(), expected);
        }
    }

    #[test]
    fn report_subjects_are_informative() {
        let budget = BufferBudget::paper_default();
        let r = analyze_installation(&ModelSpec::lstm_2048_25(), ValueEncoding::Hbfp8, 186, &budget);
        assert_eq!(r.subject(), "LSTM@batch186");
        assert!(r.is_clean());
    }
}
