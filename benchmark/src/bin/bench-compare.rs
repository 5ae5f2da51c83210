//! `bench-compare <base-dir> <new-dir>`: judges the result files in
//! `new-dir` against those in `base-dir`, with the metric directions and
//! bounds of the repository's `BENCHMARK.json`. Prints one row per
//! (workload, metric) and flags every digest that changed; exits 1 when
//! a metric got worse or a deterministic output moved, 2 on bad input.

use equinox_benchmark::compare::{compare, load_dir, metric_specs};
use equinox_benchmark::json;
use std::path::{Path, PathBuf};

fn fail(message: String) -> ! {
    eprintln!("bench-compare: {message}");
    eprintln!("usage: bench-compare <base-dir> <new-dir>");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [base_dir, new_dir] = args.as_slice() else {
        fail(format!("expected two directories, got {}", args.len()));
    };
    let spec_path: PathBuf = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let specs = std::fs::read_to_string(&spec_path)
        .map_err(|e| format!("{}: {e}", spec_path.display()))
        .and_then(|text| json::parse(&text))
        .and_then(|v| metric_specs(&v))
        .unwrap_or_else(|e| fail(e));
    let base = load_dir(Path::new(base_dir)).unwrap_or_else(|e| fail(e));
    let new = load_dir(Path::new(new_dir)).unwrap_or_else(|e| fail(e));
    if base.is_empty() || new.is_empty() {
        fail("each directory needs at least one result-*.json".into());
    }
    let c = compare(&base, &new, &specs);
    println!(
        "{:<11} {:<26} {:>38} {:>38} {:>6}  verdict",
        "workload", "metric", "base median [q1, q3]", "new median [q1, q3]", "wins"
    );
    for r in &c.rows {
        let cell = |(m, q1, q3): (f64, f64, f64)| format!("{m:.6e} [{q1:.4e}, {q3:.4e}]");
        let wins = if r.wins.1 == 0 {
            "-".to_string()
        } else {
            format!("{}/{}", r.wins.0, r.wins.1)
        };
        println!(
            "{:<11} {:<26} {:>38} {:>38} {:>6}  {}",
            r.workload,
            r.metric,
            cell(r.base),
            cell(r.new),
            wins,
            r.verdict.label()
        );
    }
    for flag in &c.flags {
        println!("FLAG {flag}");
    }
    if !c.clean() {
        std::process::exit(1);
    }
}
