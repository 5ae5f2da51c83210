//! Command-line front end of the static analyzer.
//!
//! Each file argument is treated as an installable instruction stream
//! (the 16-byte-word wire format), decoded, and analyzed against the
//! paper's `Equinox_500us` geometry. Without a file argument it exits 2:
//! the sweep over the paper's accelerator family is the `checks` entry
//! of the experiment registry (`regen-results checks`).
//!
//! `--pass <list>` restricts the run to a comma-separated subset of
//! program pass families; `--list-passes` prints the families and exits.
//!
//! The exit code is 1 iff any error-severity diagnostic was produced —
//! or, under `--deny-warnings`, any warning — and 2 on a usage error:
//! no file, or an option or pass it does not know.

use equinox_arith::Encoding;
use equinox_check::bounds::paper_energy_params;
use equinox_check::{
    analyze_program_with, encoding as wire, BoundsOptions, BufferBudget, NumericsOptions, Pass,
    PassSelection, Report,
};
use equinox_isa::{ArrayDims, Program};
use equinox_sim::{AcceleratorConfig, CostModel};

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

/// Prints `message` and the usage line, then exits 2.
fn usage_error(message: &str) -> ! {
    eprintln!("equinox-check: {message}");
    eprintln!("usage: equinox-check [--deny-warnings] [--pass <list>] [--list-passes] <file>...");
    std::process::exit(2);
}

fn main() {
    let mut deny_warnings = false;
    let mut passes = PassSelection::all();
    let mut files: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let list = match arg.as_str() {
            "--deny-warnings" => {
                deny_warnings = true;
                continue;
            }
            "--list-passes" => {
                for pass in Pass::ALL {
                    println!("{:<10} {}", pass.name(), pass.description());
                }
                return;
            }
            "--pass" => args
                .next()
                .unwrap_or_else(|| usage_error("--pass requires a comma-separated list")),
            other => match other.strip_prefix("--pass=") {
                Some(list) => list.to_string(),
                None if other.starts_with("--") => {
                    usage_error(&format!("unknown option {other}"))
                }
                None => {
                    files.push(arg);
                    continue;
                }
            },
        };
        passes = PassSelection::parse_list(&list).unwrap_or_else(|e| usage_error(&e));
    }
    if files.is_empty() {
        usage_error(
            "no instruction-stream file given; the sweep over the paper's accelerator \
             family is `regen-results checks`",
        );
    }

    let mut failed = false;
    let mut errors = 0;
    let mut warnings = 0;
    for path in &files {
        let mut report = check_file(path, &passes);
        report.sort_by_span();
        if !report.is_clean() {
            print!("{}", report.render_human());
        }
        failed |= report.has_errors();
        errors += report.error_count();
        warnings += report.warning_count();
    }
    println!(
        "equinox-check: {} subject(s) analyzed, {errors} error(s), {warnings} warning(s)",
        files.len()
    );
    if failed || (deny_warnings && warnings > 0) {
        std::process::exit(1);
    }
}
