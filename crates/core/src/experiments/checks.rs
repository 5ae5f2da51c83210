//! Extension: the static analyzer over the paper's accelerator family.
//!
//! Before any cycle is simulated, `equinox-check` vets every lowering
//! the evaluation serves (§5, Table 1). For both encodings, each design
//! of the Table 1 family gets its configuration lints, including the
//! Pareto lint against the swept design space, and each built-in model
//! gets four reports on it: the installation fit, the inference program
//! (with the bounds pass priced by the design's own cost model), the
//! training program and the training profile.
//!
//! Whether a workload fits the buffers is a property of the workload
//! (Transformer and large-batch ResNet-50 legitimately exceed them, cf.
//! Table 2), so installation findings are reported without a gate. An
//! error in any other report is a defect in a compiled program or a
//! configuration and fails its gate. The `checks` regen id writes the
//! reports to `results/equinox_check.json`.

use crate::accelerator::Equinox;
use equinox_arith::json::Json;
use equinox_arith::Encoding;
use equinox_check::bounds::paper_energy_params;
use equinox_check::{
    analyze_config, analyze_installation, analyze_program_with, analyze_training,
    analyze_training_program, BoundsOptions, BufferBudget, Code, Diagnostic, NumericsOptions,
    PassSelection, Report,
};
use equinox_isa::cache::compile_inference_cached;
use equinox_isa::lower::estimate_inference_instructions;
use equinox_isa::models::ModelSpec;
use equinox_isa::training::TrainingProfile;
use equinox_model::{DesignSpace, LatencyConstraint, TechnologyParams};
use equinox_sim::CostModel;

/// Upper bound on a swept program's instruction count: tiny geometries
/// shatter the large RNNs into hundreds of millions of tiles, which is
/// a compiler stress test rather than a useful check. A larger lowering
/// gets an [`Code::ANALYSIS_SKIPPED`] note instead of an analysis.
pub const MAX_SWEEP_INSTRUCTIONS: u64 = 2_000_000;

/// One report of the sweep.
#[derive(Debug, Clone)]
pub struct Checked {
    /// The analyzer's findings, sorted by span.
    pub report: Report,
    /// The gate the report is held to (no errors), named by encoding,
    /// model and subject; `None` for installation fits.
    pub gate: Option<String>,
}

/// Every report of the sweep, in grid order: per encoding, per design,
/// the configuration lints and then each model's reports.
#[derive(Debug, Clone)]
pub struct CheckSweep {
    /// The reports.
    pub reports: Vec<Checked>,
}

fn paper_models() -> [ModelSpec; 5] {
    [
        ModelSpec::lstm_2048_25(),
        ModelSpec::gru_2816_1500(),
        ModelSpec::resnet50(),
        ModelSpec::mlp_2048x5(),
        ModelSpec::transformer_encoder_768(),
    ]
}

/// `report` under a new subject: reports are named at construction,
/// and the sweep qualifies them with the design.
fn renamed(report: &Report, subject: String) -> Report {
    let mut renamed = Report::new(subject);
    renamed.extend(report.diagnostics().iter().cloned());
    renamed
}

/// Every report for `model` on `eq`, in emission order.
fn check_model(eq: &Equinox, model: &ModelSpec, budget: &BufferBudget) -> Vec<Checked> {
    let config = eq.config();
    let encoding = config.encoding;
    let gated = |report: Report| {
        let gate = format!("{encoding} {} {} has no errors", model.name(), report.subject());
        Checked { report, gate: Some(gate) }
    };
    let batch = eq.serving_batch(model);
    let install = analyze_installation(model, encoding, batch, budget);
    let installs = !install.has_errors();
    let mut out = vec![Checked { report: install, gate: None }];
    let cost = CostModel::from_config(config)
        .with_energy(paper_energy_params(encoding, config.freq_hz));
    // Only a model that installs is served, so only its inference
    // program is analyzed, and only while it stays a tractable size.
    if installs {
        let subject = format!("{}/{}", config.name, model.name());
        let estimate = estimate_inference_instructions(model, &config.dims, batch);
        let report = if estimate > MAX_SWEEP_INSTRUCTIONS {
            let mut skipped = Report::new(subject);
            skipped.push(Diagnostic::note(
                Code::ANALYSIS_SKIPPED,
                format!(
                    "~{estimate} instructions on this geometry; \
                     skipped (sweep cap {MAX_SWEEP_INSTRUCTIONS})"
                ),
            ));
            skipped
        } else {
            let program = compile_inference_cached(model, &config.dims, batch, encoding, budget);
            let (report, _) = analyze_program_with(
                &program,
                &config.dims,
                budget,
                encoding,
                &PassSelection::all(),
                Some(&cost),
                &BoundsOptions::default(),
                &NumericsOptions::default(),
            );
            renamed(&report, subject)
        };
        out.push(gated(report));
    }
    // Training runs on the same geometry however inference is served:
    // the backward pass streams from DRAM, so it is analyzed even when
    // the serving installation does not fit.
    let setup = eq.training_setup(model);
    let training = analyze_training_program(
        model,
        &config.dims,
        &setup,
        budget,
        MAX_SWEEP_INSTRUCTIONS,
        Some(&cost),
    );
    out.push(gated(renamed(&training, format!("{}/{}:training", config.name, model.name()))));
    let profile = TrainingProfile::profile(model, &config.dims, &setup);
    out.push(gated(analyze_training(&profile, config)));
    out
}

/// Analyzes the Table 1 family of both encodings.
pub fn run() -> CheckSweep {
    let tech = TechnologyParams::tsmc28();
    let budget = BufferBudget::paper_default();
    let spaces = [Encoding::Hbfp8, Encoding::Bfloat16].map(|e| (e, DesignSpace::sweep(e, &tech)));
    // Enumerate the grid serially (cheap), analyze its units in
    // parallel, then flatten them in grid order, so the reports are the
    // same at any thread count.
    let mut units = Vec::new();
    for (encoding, space) in &spaces {
        for constraint in LatencyConstraint::table1_rows() {
            let Ok(eq) = Equinox::build_from_space(*encoding, constraint, space) else {
                continue;
            };
            units.push((space, eq.clone(), None));
            units.extend(paper_models().map(|model| (space, eq.clone(), Some(model))));
        }
    }
    let cells = equinox_par::parallel_map(units, |(space, eq, model)| match model {
        None => {
            let report = analyze_config(eq.config(), Some(space));
            let gate = format!("{} {} has no errors", eq.config().encoding, report.subject());
            vec![Checked { report, gate: Some(gate) }]
        }
        Some(model) => check_model(&eq, &model, &budget),
    });
    let mut reports: Vec<Checked> = cells.into_iter().flatten().collect();
    for checked in &mut reports {
        checked.report.sort_by_span();
    }
    CheckSweep { reports }
}

impl CheckSweep {
    /// Error-severity findings across every report.
    pub fn error_count(&self) -> usize {
        self.reports.iter().map(|c| c.report.error_count()).sum()
    }

    /// Warning-severity findings across every report.
    pub fn warning_count(&self) -> usize {
        self.reports.iter().map(|c| c.report.warning_count()).sum()
    }

    /// One `(name, holds)` gate per report but the installation fits:
    /// the report has no error-severity finding.
    pub fn gates(&self) -> impl Iterator<Item = (&str, bool)> {
        self.reports
            .iter()
            .filter_map(|c| Some((c.gate.as_deref()?, !c.report.has_errors())))
    }

    /// The sweep as a JSON document.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("tool", "equinox-check".into()),
            ("reports", Json::array(self.reports.iter().map(|c| c.report.to_json()))),
        ])
    }
}

/// Every report with findings, then a one-line summary.
impl std::fmt::Display for CheckSweep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for c in self.reports.iter().filter(|c| !c.report.is_clean()) {
            f.write_str(&c.report.render_human())?;
        }
        write!(
            f,
            "equinox-check: {} subject(s) analyzed, {} error(s), {} warning(s)",
            self.reports.len(),
            self.error_count(),
            self.warning_count()
        )
    }
}
