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
//! reports to `results/equinox_check.json`, and one verdict per
//! published driver, merged from the same reports, to
//! `results/driver_checks.json`.

use crate::accelerator::Equinox;
use crate::experiments::paper_models;
use equinox_arith::json::Json;
use equinox_arith::Encoding;
use equinox_check::bounds::paper_energy_params;
use equinox_check::{
    analyze_config, analyze_installation, analyze_program_with, analyze_training, BoundsOptions,
    BufferBudget, Code, Diagnostic, NumericsOptions, PassSelection, Report,
};
use equinox_isa::lower::estimate_inference_instructions;
use equinox_isa::models::ModelSpec;
use equinox_isa::training::{estimate_training_instructions, TrainingProfile};
use equinox_isa::Program;
use equinox_model::{DesignSpace, LatencyConstraint, TechnologyParams};
use equinox_sim::{AcceleratorConfig, CostModel};
use std::sync::Arc;

/// Upper bound on a swept program's instruction count: tiny geometries
/// shatter the large RNNs into hundreds of millions of tiles, which is
/// a compiler stress test rather than a useful check. A larger lowering
/// gets an [`Code::ANALYSIS_SKIPPED`] note instead of an analysis.
pub const MAX_SWEEP_INSTRUCTIONS: u64 = 2_000_000;

/// The published drivers, in artifact order: the figures or table
/// whose numbers come from one hbfp8 design (named by its Table 1 row)
/// serving one model.
const DRIVERS: [(&str, LatencyConstraint, &str); 7] = [
    ("fig7/fig8/fig10/fig11", LatencyConstraint::Micros(500), "LSTM"),
    ("fig9", LatencyConstraint::Micros(50), "LSTM"),
    ("fig9/min", LatencyConstraint::MinLatency, "LSTM"),
    ("table2/gru", LatencyConstraint::Micros(500), "GRU"),
    ("table2/resnet", LatencyConstraint::Micros(500), "Resnet50"),
    ("table2/mlp", LatencyConstraint::Micros(500), "MLP"),
    ("diurnal/fault", LatencyConstraint::Micros(500), "LSTM"),
];

/// One report of the sweep, with the (encoding, design, model) cell it
/// belongs to.
#[derive(Debug, Clone)]
pub struct Checked {
    /// The design's encoding.
    pub encoding: Encoding,
    /// The Table 1 row the design was selected for.
    pub constraint: LatencyConstraint,
    /// The model and the batch the design serves it at; `None` for the
    /// design's configuration lints.
    pub model: Option<(String, usize)>,
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

/// The one rule for every swept program: a lowering estimated above
/// [`MAX_SWEEP_INSTRUCTIONS`] is never built, and its report holds the
/// single [`Code::ANALYSIS_SKIPPED`] note `skipped`; any other is built
/// by `lower` and gets every program pass, bounds priced by `cost`.
fn analyze_capped(
    subject: String,
    estimate: u64,
    skipped: String,
    lower: impl FnOnce() -> Arc<Program>,
    config: &AcceleratorConfig,
    budget: &BufferBudget,
    cost: &CostModel,
) -> Report {
    let mut report = Report::new(subject);
    if estimate > MAX_SWEEP_INSTRUCTIONS {
        report.push(Diagnostic::note(Code::ANALYSIS_SKIPPED, skipped));
    } else {
        let (analyzed, _) = analyze_program_with(
            &lower(),
            &config.dims,
            budget,
            config.encoding,
            &PassSelection::all(),
            Some(cost),
            &BoundsOptions::default(),
            &NumericsOptions::default(),
        );
        report.extend(analyzed.diagnostics().iter().cloned());
    }
    report
}

/// Every report for `model` on `eq`, in emission order.
fn check_model(eq: &Equinox, model: &ModelSpec, budget: &BufferBudget) -> Vec<Checked> {
    let config = eq.config();
    let (encoding, name) = (config.encoding, &config.name);
    let batch = eq.serving_batch(model);
    let checked = |report: Report, gated: bool| Checked {
        encoding,
        constraint: eq.constraint(),
        model: Some((model.name().to_string(), batch)),
        gate: gated
            .then(|| format!("{encoding} {} {} has no errors", model.name(), report.subject())),
        report,
    };
    let install = analyze_installation(model, encoding, batch, budget);
    let installs = !install.has_errors();
    let mut out = vec![checked(install, false)];
    let cost = CostModel::from_config(config)
        .with_energy(paper_energy_params(encoding, config.freq_hz));
    // Only a model that installs is served, so only its inference
    // program is analyzed.
    if installs {
        let estimate = estimate_inference_instructions(model, &config.dims, batch);
        let report = analyze_capped(
            format!("{name}/{}", model.name()),
            estimate,
            format!(
                "~{estimate} instructions on this geometry; \
                 skipped (sweep cap {MAX_SWEEP_INSTRUCTIONS})"
            ),
            || eq.lowering(model, false).0,
            config,
            budget,
            &cost,
        );
        out.push(checked(report, true));
    }
    // Training runs on the same geometry however inference is served:
    // the backward pass streams from DRAM, so it is analyzed even when
    // the serving installation does not fit.
    let setup = eq.training_setup(model);
    let estimate = estimate_training_instructions(model, &config.dims, &setup);
    let training = analyze_capped(
        format!("{name}/{}:training", model.name()),
        estimate,
        format!(
            "training lowering estimated at {estimate} instructions exceeds the \
             {MAX_SWEEP_INSTRUCTIONS} analysis cap; skipped"
        ),
        || eq.lowering(model, true).0,
        config,
        budget,
        &cost,
    );
    out.push(checked(training, true));
    let profile = TrainingProfile::profile(model, &config.dims, &setup);
    out.push(checked(analyze_training(&profile, config), true));
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
            // Every built-in model: the paper's four and the Transformer.
            let models = paper_models().into_iter().chain([ModelSpec::transformer_encoder_768()]);
            units.extend(models.map(|model| (space, eq.clone(), Some(model))));
        }
    }
    let cells = equinox_par::parallel_map(units, |(space, eq, model)| match model {
        None => {
            let report = analyze_config(eq.config(), Some(space));
            let encoding = eq.config().encoding;
            let gate = format!("{encoding} {} has no errors", report.subject());
            vec![Checked {
                encoding,
                constraint: eq.constraint(),
                model: None,
                report,
                gate: Some(gate),
            }]
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

    /// One verdict per published driver, in artifact order: every hbfp8
    /// report of the driver's (design, model) cell plus that design's
    /// configuration lints, merged and sorted by span under
    /// `{design}/{model}@batch{b}`.
    pub fn driver_reports(&self) -> Vec<(&'static str, Report)> {
        DRIVERS
            .iter()
            .map(|&(driver, constraint, model)| (driver, self.driver_report(constraint, model)))
            .collect()
    }

    /// The verdict for `model` on the hbfp8 design selected for
    /// `constraint` (see [`CheckSweep::driver_reports`]).
    ///
    /// # Panics
    ///
    /// If the sweep holds no such cell.
    fn driver_report(&self, constraint: LatencyConstraint, model: &str) -> Report {
        let cell: Vec<&Checked> = self
            .reports
            .iter()
            .filter(|c| {
                c.encoding == Encoding::Hbfp8
                    && c.constraint == constraint
                    && c.model.as_ref().is_none_or(|(name, _)| name == model)
            })
            .collect();
        let batch = cell
            .iter()
            .find_map(|c| c.model.as_ref().map(|&(_, batch)| batch))
            .unwrap_or_else(|| panic!("the sweep has no hbfp8 {model} cell for {constraint:?}"));
        let mut report = Report::new(format!("{}/{model}@batch{batch}", constraint.config_name()));
        report.extend(cell.iter().flat_map(|c| c.report.diagnostics().iter().cloned()));
        report.sort_by_span();
        report
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

#[cfg(test)]
mod tests {
    use super::*;
    use equinox_check::Severity;
    use equinox_isa::ArrayDims;

    /// A report whose one note names the cell and report it stands for.
    fn checked(
        encoding: Encoding,
        constraint: LatencyConstraint,
        model: Option<(&str, usize)>,
        origin: &str,
    ) -> Checked {
        let design = constraint.config_name();
        let label = format!("{encoding} {design} {} {origin}", model.map_or("config", |m| m.0));
        let mut report = Report::new(label.clone());
        report.push(Diagnostic::note(Code::DRAM_TRAFFIC_SANITY, label));
        let model = model.map(|(name, batch)| (name.to_string(), batch));
        Checked { encoding, constraint, model, report, gate: None }
    }

    #[test]
    fn a_driver_row_merges_its_own_hbfp8_cell_and_the_design_lints() {
        let designs = [(LatencyConstraint::Micros(500), 186), (LatencyConstraint::Micros(50), 15)];
        let origins = ["install", "inference", "training", "profile"];
        let mut reports = Vec::new();
        for encoding in [Encoding::Hbfp8, Encoding::Bfloat16] {
            for (constraint, n) in designs {
                // Every cell serves at its own batch, so the subject
                // shows which cell named the row.
                let batch = n + usize::from(encoding == Encoding::Bfloat16);
                reports.push(checked(encoding, constraint, None, "lints"));
                for model in ["LSTM", "GRU"] {
                    for origin in origins {
                        reports.push(checked(encoding, constraint, Some((model, batch)), origin));
                    }
                }
            }
        }
        let sweep = CheckSweep { reports };
        for (constraint, n) in designs {
            let design = constraint.config_name();
            let row = sweep.driver_report(constraint, "LSTM");
            assert_eq!(row.subject(), format!("{design}/LSTM@batch{n}"));
            let mut got: Vec<&str> = row.diagnostics().iter().map(|d| d.message.as_str()).collect();
            got.sort_unstable();
            let mut want = vec![format!("hbfp8 {design} config lints")];
            want.extend(origins.map(|origin| format!("hbfp8 {design} LSTM {origin}")));
            want.sort_unstable();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn a_program_over_the_cap_is_never_lowered() {
        let dims = ArrayDims { n: 186, w: 3, m: 3 };
        let config = AcceleratorConfig::new("t", dims, 610e6, Encoding::Hbfp8);
        let (budget, cost) = (BufferBudget::paper_default(), CostModel::from_config(&config));
        let analyze = |estimate, lower: &mut dyn FnMut() -> Arc<Program>| {
            analyze_capped("p".into(), estimate, "skipped".into(), lower, &config, &budget, &cost)
        };
        let over = analyze(MAX_SWEEP_INSTRUCTIONS + 1, &mut || panic!("lowered over the cap"));
        let notes: Vec<_> =
            over.diagnostics().iter().map(|d| (d.code, d.severity, d.message.as_str())).collect();
        assert_eq!(notes, [(Code::ANALYSIS_SKIPPED, Severity::Note, "skipped")]);
        // At the cap, the program is lowered and analyzed.
        let mut lowered = false;
        let at = analyze(MAX_SWEEP_INSTRUCTIONS, &mut || {
            lowered = true;
            Arc::new(Program::new("empty"))
        });
        assert!(lowered);
        assert!(!at.has_code(Code::ANALYSIS_SKIPPED), "{}", at.render_human());
    }
}
