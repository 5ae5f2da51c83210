//! Regenerates the paper's tables and figures and the extension sweeps.
//!
//! Usage: `cargo run --release -p equinox-bench --bin regen-results
//! [--quick] [id]...`
//!
//! With no ids every entry of [`equinox_bench::EXPERIMENTS`] runs.
//! `--quick` switches to the reduced [`ExperimentScale::Quick`] grids
//! and holds each id to its wall-clock budget. Ids match exactly; any
//! other argument exits 2 and lists the valid ids before anything runs.
//! Output goes to stdout and into `results/` (relative to the working
//! directory). A gate that does not hold, a blown `--quick` budget or a
//! failed `results/` write exits 1.
//!
//! ## Parallel execution and determinism
//!
//! The selected experiments are independent, so they run concurrently
//! on the `equinox-par` pool (`EQUINOX_THREADS` sizes it; `1` forces
//! serial). Each renders its log and its `results/` payloads into
//! memory; the main thread then prints logs and writes files in the
//! canonical order, so stdout and every artifact are byte-identical at
//! any thread count. Wall-clock readings, rounded to whole milliseconds,
//! land in `results/bench_timings.json`, the one artifact exempt from
//! that rule, since it records timings of this very run. When a selected
//! id reads the fitted-surrogate table, the table is fitted once before
//! the pool starts and timed as its own entry, so no id's wall clock
//! depends on which reader asked first.

use equinox_arith::json::Json;
use equinox_bench::{Outcome, EXPERIMENTS};
use equinox_core::ExperimentScale;
use std::fs;
use std::time::Instant;

/// Writes `results/<name>`, naming the file in the error.
fn write_result(name: &str, content: &str) -> Result<(), String> {
    let path = format!("results/{name}");
    fs::create_dir_all("results")
        .and_then(|()| fs::write(&path, content))
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("  [wrote {path}]");
    Ok(())
}

/// `results/bench_timings.json`: per-id wall clock, pool size, the
/// compile-cache counters and, when a selected id reads it, the shared
/// fitted-table fit's wall clock (`fitted_table_s`).
fn timings_json(
    threads: usize,
    quick: bool,
    total_s: f64,
    fit_s: Option<f64>,
    outcomes: &[Outcome],
) -> Json {
    let cache = equinox_isa::cache::stats();
    let experiments = outcomes.iter().map(|o| {
        let mut fields = vec![("id", o.experiment.id.into()), ("wall_s", Json::seconds(o.wall_s))];
        if quick {
            fields.push(("budget_s", o.experiment.quick_budget_s.into()));
            fields.push(("within_budget", o.within_budget().into()));
        }
        Json::object(fields)
    });
    let mut fields = vec![
        ("tool", "regen-results".into()),
        ("threads", threads.into()),
        ("quick", quick.into()),
        ("total_s", Json::seconds(total_s)),
        (
            "compile_cache",
            Json::object([
                ("hits", cache.hits.into()),
                ("misses", cache.misses.into()),
                ("evictions", cache.evictions.into()),
            ]),
        ),
    ];
    fields.extend(fit_s.map(|s| ("fitted_table_s", Json::seconds(s))));
    fields.push(("experiments", Json::array(experiments)));
    Json::object(fields)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let selection = equinox_bench::parse_args(&args).unwrap_or_else(|e| {
        let ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
        eprintln!("regen-results: {e}");
        eprintln!("usage: regen-results [--quick] [id]...");
        eprintln!("valid ids: {}", ids.join(" "));
        std::process::exit(2);
    });
    let scale = selection.scale;
    let quick = scale == ExperimentScale::Quick;
    let threads = equinox_par::thread_count();
    let start = Instant::now();
    let fit_s = equinox_bench::fit_shared_table(&selection.experiments, scale);
    let outcomes = equinox_bench::run(&selection.experiments, scale);

    let mut failures = Vec::new();
    for o in &outcomes {
        println!("\n=== {}: {} ===", o.experiment.id, o.experiment.title);
        print!("{}", o.artifacts.log);
        for (name, content) in &o.artifacts.files {
            failures.extend(write_result(name, content).err());
        }
        println!("  [{:.1}s]", o.wall_s);
    }

    let elapsed = start.elapsed().as_secs_f64();
    let timings = timings_json(threads, quick, elapsed, fit_s, &outcomes)
        .render()
        .map_err(|e| format!("results/bench_timings.json: {e}"))
        .and_then(|text| write_result("bench_timings.json", &(text + "\n")));
    failures.extend(timings.err());
    println!("\nAll selected experiments done in {elapsed:.1}s ({threads} thread(s)).");

    if quick {
        // A blowup here means a grid accidentally regained full scale;
        // budgets are per id, so the offender is named.
        println!("\n--quick wall-clock budgets:");
        println!("  {:<10} {:>8} {:>10}  verdict", "id", "wall_s", "budget_s");
        for o in &outcomes {
            println!(
                "  {:<10} {:>8.1} {:>10.0}  {}",
                o.experiment.id,
                o.wall_s,
                o.experiment.quick_budget_s,
                if o.within_budget() { "ok" } else { "OVER" }
            );
        }
    }

    failures.extend(equinox_bench::failures(&outcomes, scale));
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("{f}");
        }
        std::process::exit(1);
    }
}
