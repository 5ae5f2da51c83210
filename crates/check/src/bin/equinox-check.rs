//! Command-line front end of the static analyzer.
//!
//! With no arguments, sweeps every built-in workload across the paper's
//! accelerator family (both encodings), runs all pass families over both
//! the inference and training lowerings, prints a human summary, and
//! writes a machine-readable report to `results/equinox_check.json`
//! plus per-pass wall-clock timings, with the `equinox-par` pool size
//! they were taken at, to `results/check_timings.json` (the timings
//! file is a measurement, exempt from the determinism contract, like
//! `results/bench_timings.json`).
//!
//! With file arguments, each file is treated as an installable
//! instruction stream (the 16-byte-word wire format), decoded, and
//! analyzed against the paper's `Equinox_500us` geometry.
//!
//! `--pass <list>` restricts the run to a comma-separated subset of
//! pass families; `--list-passes` prints the families and exits.
//!
//! The exit code is non-zero iff any error-severity diagnostic was
//! produced — or, under `--deny-warnings`, any warning.

use equinox_arith::json::Json;
use equinox_arith::Encoding;
use equinox_check::bounds::paper_energy_params;
use equinox_check::{
    analyze_config, analyze_program_with, analyze_training, analyze_training_program_with,
};
use equinox_check::{
    encoding as wire, BoundsOptions, BufferBudget, NumericsOptions, Pass, PassSelection, Report,
};
use equinox_isa::cache::compile_inference_cached;
use equinox_isa::lower::estimate_inference_instructions;
use equinox_isa::models::ModelSpec;
use equinox_isa::training::{TrainingProfile, TrainingSetup};
use equinox_isa::{ArrayDims, Program};
use equinox_model::{DesignSpace, LatencyConstraint, TechnologyParams};
use equinox_sim::{AcceleratorConfig, CostModel};
use std::sync::Arc;
use std::time::Instant;

fn builtin_models() -> Vec<ModelSpec> {
    vec![
        ModelSpec::lstm_2048_25(),
        ModelSpec::gru_2816_1500(),
        ModelSpec::resnet50(),
        ModelSpec::mlp_2048x5(),
        ModelSpec::transformer_encoder_768(),
    ]
}

/// The Table 1 configuration family for one encoding.
fn paper_family(encoding: Encoding, space: &DesignSpace) -> Vec<AcceleratorConfig> {
    LatencyConstraint::table1_rows()
        .into_iter()
        .filter_map(|c| {
            let best = space.best_under_latency(c)?;
            let dims = ArrayDims { n: best.design.n, w: best.design.w, m: best.design.m };
            Some(AcceleratorConfig::new(
                c.config_name(),
                dims,
                best.design.freq_hz,
                encoding,
            ))
        })
        .collect()
}

/// Batch size a workload is served at (RNN/MLP batch to the geometry's
/// `n`; im2col/attention workloads serve small batches, cf. Table 2).
fn serving_batch(model: &ModelSpec, dims: &ArrayDims) -> usize {
    if model.is_vector_matrix() {
        dims.n
    } else {
        8
    }
}

/// Training configuration a workload trains under: RNN/MLP minibatch
/// 128 (the GRU's 1500-step unroll at 32), im2col workloads at 8.
fn training_setup(model: &ModelSpec, encoding: Encoding) -> TrainingSetup {
    let batch = match model.name() {
        "GRU" => 32,
        _ if model.is_vector_matrix() => 128,
        _ => 8,
    };
    TrainingSetup { batch, encoding, ..TrainingSetup::paper_default() }
}

/// Upper bound on the sweep's per-program instruction count: tiny
/// geometries shatter the large RNNs into hundreds of millions of
/// tiles, which is a compiler stress test rather than a useful check.
const MAX_SWEEP_INSTRUCTIONS: u64 = 2_000_000;

/// One independently-analyzable cell of the sweep grid: either the
/// configuration-level lints (`model: None`) or the full
/// install/inference/training pass stack for one `(config, model)`
/// pair. Units carry everything they need so they can run on any
/// worker; results are re-assembled in grid order, so the report
/// stream is identical to the old serial sweep at any thread count.
struct SweepUnit {
    encoding: Encoding,
    space: Arc<DesignSpace>,
    config: AcceleratorConfig,
    model: Option<ModelSpec>,
}

/// Analyzes one sweep cell. Returns the cell's reports in emission
/// order, whether any of them fails the sweep, and the per-pass
/// wall-clock spent.
fn run_unit(
    unit: SweepUnit,
    budget: &BufferBudget,
    passes: &PassSelection,
) -> (Vec<Report>, bool, Vec<(Pass, f64)>) {
    let SweepUnit { encoding, space, config, model } = unit;
    let bounds_options = BoundsOptions::default();
    let numerics_options = NumericsOptions::default();
    let mut reports = Vec::new();
    let mut timings: Vec<(Pass, f64)> = Vec::new();
    let mut failed = false;
    let Some(model) = model else {
        if passes.contains(Pass::Config) {
            let start = Instant::now();
            let config_report = analyze_config(&config, Some(&space));
            timings.push((Pass::Config, start.elapsed().as_secs_f64()));
            failed |= config_report.has_errors();
            reports.push(config_report);
        }
        return (reports, failed, timings);
    };
    let batch = serving_batch(&model, &config.dims);
    // The installation fit always computes (it gates program analysis),
    // but is only reported — and billed — when its family is selected.
    let install_start = Instant::now();
    let install =
        equinox_check::analyze_installation(&model, encoding, batch, budget);
    let installs = !install.has_errors();
    if passes.contains(Pass::Resources) {
        timings.push((Pass::Resources, install_start.elapsed().as_secs_f64()));
        // Whether a workload fits the buffers is a property of
        // the workload (Transformer and large-batch ResNet-50
        // legitimately exceed them, cf. Table 2), so install
        // findings are reported without failing the sweep; only
        // defects in compiled programs or configurations do.
        reports.push(install);
    }
    // The bounds pass prices cycles and energy through the simulator's
    // own cost model at this configuration's operating point.
    let cost = CostModel::from_config(&config)
        .with_energy(paper_energy_params(encoding, config.freq_hz));
    // Only analyze programs for models that install, and only
    // when the lowered program stays a tractable size.
    if installs {
        let estimate = estimate_inference_instructions(&model, &config.dims, batch);
        let subject = format!("{}/{}", config.name, model.name());
        if estimate > MAX_SWEEP_INSTRUCTIONS {
            let mut skipped = Report::new(subject);
            skipped.push(equinox_check::Diagnostic::note(
                equinox_check::Code::ANALYSIS_SKIPPED,
                format!(
                    "~{estimate} instructions on this geometry; \
                     skipped (sweep cap {MAX_SWEEP_INSTRUCTIONS})"
                ),
            ));
            reports.push(skipped);
        } else {
            let program =
                compile_inference_cached(&model, &config.dims, batch, encoding, budget);
            let (mut report, pass_times) = analyze_program_with(
                &program,
                &config.dims,
                budget,
                encoding,
                passes,
                Some(&cost),
                &bounds_options,
                &numerics_options,
            );
            timings.extend(pass_times);
            rename(&mut report, subject);
            failed |= report.has_errors();
            reports.push(report);
        }
    }
    // Training runs on the same geometry regardless of how
    // inference is served: the lowered backward pass streams
    // from DRAM, so it is analyzed even when the serving
    // installation does not fit.
    let setup = training_setup(&model, encoding);
    let (mut training_prog, pass_times) = analyze_training_program_with(
        &model,
        &config.dims,
        &setup,
        budget,
        MAX_SWEEP_INSTRUCTIONS,
        passes,
        Some(&cost),
        &bounds_options,
        &numerics_options,
    );
    timings.extend(pass_times);
    rename(
        &mut training_prog,
        format!("{}/{}:training", config.name, model.name()),
    );
    failed |= training_prog.has_errors();
    reports.push(training_prog);
    if passes.contains(Pass::Resources) {
        let start = Instant::now();
        let profile = TrainingProfile::profile(&model, &config.dims, &setup);
        let training = analyze_training(&profile, &config);
        timings.push((Pass::Resources, start.elapsed().as_secs_f64()));
        failed |= training.has_errors();
        reports.push(training);
    }
    (reports, failed, timings)
}

fn run_sweep(passes: &PassSelection) -> (Vec<Report>, bool, [f64; 6]) {
    let tech = TechnologyParams::tsmc28();
    let budget = BufferBudget::paper_default();
    // Enumerate the grid serially (cheap), analyze cells in parallel,
    // then flatten in enumeration order so output is deterministic.
    let mut units = Vec::new();
    for encoding in [Encoding::Hbfp8, Encoding::Bfloat16] {
        let space = Arc::new(DesignSpace::sweep(encoding, &tech));
        for config in paper_family(encoding, &space) {
            units.push(SweepUnit {
                encoding,
                space: Arc::clone(&space),
                config: config.clone(),
                model: None,
            });
            for model in builtin_models() {
                units.push(SweepUnit {
                    encoding,
                    space: Arc::clone(&space),
                    config: config.clone(),
                    model: Some(model),
                });
            }
        }
    }
    let cells = equinox_par::parallel_map(units, |u| run_unit(u, &budget, passes));
    let mut reports = Vec::new();
    let mut failed = false;
    let mut pass_seconds = [0.0f64; 6];
    for (cell_reports, cell_failed, cell_timings) in cells {
        reports.extend(cell_reports);
        failed |= cell_failed;
        for (pass, seconds) in cell_timings {
            pass_seconds[pass as usize] += seconds;
        }
    }
    (reports, failed, pass_seconds)
}

/// Rebuilds a report under a new subject (reports are subject-named at
/// construction; the sweep qualifies them with the configuration).
fn rename(report: &mut Report, subject: String) {
    let mut renamed = Report::new(subject);
    renamed.extend(report.diagnostics().iter().cloned());
    *report = renamed;
}

fn check_file(path: &str, passes: &PassSelection) -> Report {
    let dims = ArrayDims { n: 186, w: 3, m: 3 };
    let budget = BufferBudget::paper_default();
    let mut report = Report::new(path.to_string());
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) => {
            report.push(equinox_check::Diagnostic::error(
                equinox_check::Code::DECODE_ERROR,
                format!("cannot read {path}: {e}"),
            ));
            return report;
        }
    };
    match wire::decode_stream(&bytes) {
        Ok(instructions) => {
            let mut program = Program::new(path.to_string());
            program.extend(instructions);
            let config =
                AcceleratorConfig::new("Equinox_500us", dims, 610e6, Encoding::Hbfp8);
            let cost = CostModel::from_config(&config)
                .with_energy(paper_energy_params(Encoding::Hbfp8, config.freq_hz));
            analyze_program_with(
                &program,
                &dims,
                &budget,
                Encoding::Hbfp8,
                passes,
                Some(&cost),
                &BoundsOptions::default(),
                &NumericsOptions::default(),
            )
            .0
        }
        Err(diag) => {
            report.push(diag);
            report
        }
    }
}

/// Renders `value` into `results/<name>` with a trailing newline,
/// naming the file in any error.
fn write_result(name: &str, value: &Json) -> Result<(), String> {
    let path = format!("results/{name}");
    let text = value.render().map_err(|e| format!("cannot write {path}: {e}"))?;
    std::fs::create_dir_all("results")
        .and_then(|()| std::fs::write(&path, text + "\n"))
        .map_err(|e| format!("cannot write {path}: {e}"))
}

fn main() {
    let mut deny_warnings = false;
    let mut passes = PassSelection::all();
    let mut files: Vec<String> = Vec::new();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--deny-warnings" => deny_warnings = true,
            "--list-passes" => {
                for pass in Pass::ALL {
                    println!("{:<10} {}", pass.name(), pass.description());
                }
                return;
            }
            "--pass" => {
                i += 1;
                let Some(list) = args.get(i) else {
                    eprintln!("equinox-check: --pass requires a comma-separated list");
                    std::process::exit(2);
                };
                match PassSelection::parse_list(list) {
                    Ok(selection) => passes = selection,
                    Err(e) => {
                        eprintln!("equinox-check: {e}");
                        std::process::exit(2);
                    }
                }
            }
            other => match other.strip_prefix("--pass=") {
                Some(list) => match PassSelection::parse_list(list) {
                    Ok(selection) => passes = selection,
                    Err(e) => {
                        eprintln!("equinox-check: {e}");
                        std::process::exit(2);
                    }
                },
                None => files.push(other.to_string()),
            },
        }
        i += 1;
    }
    let started = Instant::now();
    let (mut reports, mut failed, pass_seconds) = if files.is_empty() {
        run_sweep(&passes)
    } else {
        let reports: Vec<Report> = files.iter().map(|p| check_file(p, &passes)).collect();
        let failed = reports.iter().any(Report::has_errors);
        (reports, failed, [0.0; 6])
    };

    let mut errors = 0;
    let mut warnings = 0;
    for report in &mut reports {
        report.sort_by_span();
        if !report.is_clean() {
            print!("{}", report.render_human());
        }
        errors += report.error_count();
        warnings += report.warning_count();
    }
    println!(
        "equinox-check: {} subject(s) analyzed, {errors} error(s), {warnings} warning(s)",
        reports.len()
    );

    if files.is_empty() {
        let report = Json::object([
            ("tool", "equinox-check".into()),
            ("reports", Json::array(reports.iter().map(Report::to_json))),
        ]);
        // Per-pass wall clock: a measurement, exempt from the
        // byte-identical determinism contract like
        // `results/bench_timings.json`. Passes that did not run are left out.
        let passes = Pass::ALL.into_iter().filter(|&pass| pass_seconds[pass as usize] != 0.0);
        let timings = Json::object([
            ("tool", "equinox-check".into()),
            ("threads", equinox_par::thread_count().into()),
            ("total_s", Json::seconds(started.elapsed().as_secs_f64())),
            (
                "passes",
                Json::array(passes.map(|pass| {
                    Json::object([
                        ("pass", pass.to_string().into()),
                        ("wall_s", Json::seconds(pass_seconds[pass as usize])),
                    ])
                })),
            ),
        ]);
        for (name, value, what) in [
            ("equinox_check.json", report, "report"),
            ("check_timings.json", timings, "pass timings"),
        ] {
            if let Err(e) = write_result(name, &value) {
                eprintln!("equinox-check: {e}");
                std::process::exit(2);
            }
            println!("{what} written to results/{name}");
        }
    }
    if deny_warnings && warnings > 0 {
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
