//! `bench`: runs one workload and prints its metrics. See the library
//! docs and `benchmark/README.md`.

use equinox_benchmark::{cli, json, trace, workloads};
use std::path::Path;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = cli::parse(&argv).unwrap_or_else(|e| {
        eprintln!("bench: {e}\n{}", cli::usage());
        std::process::exit(2);
    });
    if let Err(e) = run(&args) {
        eprintln!("bench: {e}");
        std::process::exit(1);
    }
}

fn run(args: &cli::Args) -> Result<(), String> {
    let report = workloads::run(args.workload, &args.options)?;
    // Render both documents first: a non-finite value stops the run
    // before it prints a summary.
    let summary = json::to_string(&report.summary())?;
    let record = json::to_string(&report.record())?;

    let o = &report.options;
    println!(
        "workload {} seed {} threads {} setup_reps {} passes {} units {}",
        report.workload, o.seed, report.threads, report.setup_reps, report.passes, report.attempted
    );
    for failure in &report.failures {
        println!("FAILED {failure}");
    }
    for (name, unit, value) in &report.metrics {
        println!("{name} {value} {unit}");
    }
    for (name, value) in &report.raw {
        println!("raw {name} {value} s");
    }
    for (name, value) in &report.outputs {
        println!("output {name} {value}");
    }
    println!("digest {:016x}", report.digest);

    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let write = |name: String, text: &str| {
        let path = out.join(name);
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let tag = format!(
        "{}-{}{}",
        report.workload,
        o.seed,
        if o.smoke { "-smoke" } else { "" }
    );
    write(
        format!("result-{tag}-trace{}.json", u8::from(o.trace)),
        &format!("{record}\n"),
    )?;
    if o.trace {
        write(
            format!("trace-{tag}.json"),
            &trace::chrome_trace(&report.spans),
        )?;
    }
    println!("{summary}");
    Ok(())
}
