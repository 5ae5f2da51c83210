//! The parallel runtime's determinism contract: every serialized
//! result is byte-identical at any thread count.
//!
//! The whole experiment table runs through the regen driver's own
//! [`equinox_bench::run`] at `EQUINOX_THREADS`-equivalent 1 (forced
//! serial) and 4 (work-stealing engaged) via
//! [`equinox_par::set_thread_override`], and every entry's log,
//! `results/` files and gate verdicts must match, with every gate
//! holding. The container running CI may only have one core — that's
//! fine: with 4 workers on one core the OS interleaves them
//! arbitrarily, which is exactly the schedule nondeterminism the
//! contract must be immune to.

use equinox_bench::{Outcome, EXPERIMENTS};
use equinox_core::experiments::fitted;
use equinox_core::ExperimentScale;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Thread-count overrides are process-global; probes must not overlap.
fn override_guard() -> MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    GUARD.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `probe()` under a forced thread count, restoring the default
/// afterwards even if the probe panics.
fn with_threads<T>(threads: usize, probe: impl FnOnce() -> T) -> T {
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            equinox_par::set_thread_override(None);
        }
    }
    let _restore = Restore;
    equinox_par::set_thread_override(Some(threads));
    probe()
}

/// Every entry's `(1-thread, 4-thread)` outcomes at `Quick` scale,
/// computed once per process and shared by the tests below. The compile
/// cache is cleared between the passes so the second compiles cold too.
fn table_passes() -> &'static [(Outcome, Outcome)] {
    static PASSES: OnceLock<Vec<(Outcome, Outcome)>> = OnceLock::new();
    PASSES.get_or_init(|| {
        let _g = override_guard();
        let all: Vec<_> = EXPERIMENTS.iter().collect();
        let serial = with_threads(1, || equinox_bench::run(&all, ExperimentScale::Quick));
        equinox_isa::cache::clear();
        let parallel = with_threads(4, || equinox_bench::run(&all, ExperimentScale::Quick));
        serial.into_iter().zip(parallel).collect()
    })
}

/// Asserts one entry rendered the same log, files and gate verdicts in
/// both passes.
fn assert_invariant(serial: &Outcome, parallel: &Outcome) {
    let id = serial.experiment.id;
    let (s, p) = (&serial.artifacts, &parallel.artifacts);
    assert!(!s.log.is_empty(), "{id}: empty log");
    assert!(s.log == p.log, "{id}: log differs between 1 and 4 threads");
    let names = |files: &[(String, String)]| -> Vec<String> {
        files.iter().map(|(name, _)| name.clone()).collect()
    };
    assert_eq!(names(&s.files), names(&p.files), "{id}: different results/ files");
    for ((name, a), (_, b)) in s.files.iter().zip(&p.files) {
        assert!(a == b, "{id}: results/{name} differs between 1 and 4 threads");
    }
    assert_eq!(s.gates, p.gates, "{id}: gate verdicts differ between 1 and 4 threads");
}

#[test]
fn experiment_table_is_thread_count_invariant() {
    let mut written = Vec::new();
    let mut failing = Vec::new();
    for (serial, parallel) in table_passes() {
        assert_invariant(serial, parallel);
        written.extend(serial.artifacts.files.iter().map(|(name, _)| name.clone()));
        // A failing gate is reported as `<id>: <gate>`, so a repeated
        // name would hide which of its holders failed.
        let id = serial.experiment.id;
        let gates = &serial.artifacts.gates;
        for (i, (name, holds)) in gates.iter().enumerate() {
            assert!(gates[..i].iter().all(|(n, _)| n != name), "{id}: gate `{name}` repeats");
            if !holds {
                failing.push(format!("{id}: {name}"));
            }
        }
    }
    // Every gate holds, so `cargo test` fails where `regen-results` would.
    assert!(failing.is_empty(), "gates that do not hold:\n{}", failing.join("\n"));
    // The table writes every committed artifact except the timing file
    // of the regen run itself.
    let exempt = ["bench_timings.json"];
    let mut committed: Vec<String> = std::fs::read_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/results"))
        .expect("results/ is committed")
        .map(|entry| entry.expect("readable entry").file_name().into_string().expect("UTF-8 name"))
        .filter(|name| !exempt.contains(&name.as_str()))
        .collect();
    committed.sort();
    written.sort();
    assert_eq!(written, committed, "the table's files differ from the committed results/");
}

/// Asserts the entry that writes `results/<name>` is thread-count
/// invariant. Reads the shared passes; runs nothing.
fn assert_artifact_invariant(name: &str) {
    let (serial, parallel) = table_passes()
        .iter()
        .find(|(s, _)| s.artifacts.files.iter().any(|(n, _)| n == name))
        .unwrap_or_else(|| panic!("no experiment writes results/{name}"));
    assert_invariant(serial, parallel);
}

/// One probe per committed artifact, so a divergence also reports under
/// the artifact's own test name.
macro_rules! artifact_probes {
    ($($test:ident => $file:literal,)*) => {$(
        #[test]
        fn $test() {
            assert_artifact_invariant($file);
        }
    )*};
}

artifact_probes! {
    fig6_csvs_are_thread_count_invariant => "fig6a_hbfp8.csv",
    table1_is_thread_count_invariant => "table1_pareto.txt",
    fig7_quick_series_is_thread_count_invariant => "fig7a_hbfp8.csv",
    fig8_quick_breakdown_is_thread_count_invariant => "fig8_breakdown.csv",
    fig9_quick_series_is_thread_count_invariant => "fig9_training.csv",
    fig10_quick_series_is_thread_count_invariant => "fig10_scheduling.csv",
    fig11_quick_panels_are_thread_count_invariant => "fig11_batching.csv",
    fleet_sweep_json_is_thread_count_invariant => "fleet_sweep.json",
    allreduce_sweep_json_is_thread_count_invariant => "allreduce_sweep.json",
    serve_sweep_json_is_thread_count_invariant => "serve_sweep.json",
    numerics_sweep_json_is_thread_count_invariant => "numerics_sweep.json",
    check_report_is_thread_count_invariant => "driver_checks.json",
    analyzer_sweep_is_thread_count_invariant => "equinox_check.json",
}

#[test]
fn fitted_tables_json_is_thread_count_invariant() {
    // The table's `fitted` entry reads the process-wide
    // `FittedCalibration::shared`, so its 4-thread pass reuses the
    // 1-thread fit. Calling `fitted::run` directly makes both renderings
    // genuinely refit: the (model, load, seed) sampling grid fans out
    // across threads but pools samples by grid index, so the tables and
    // their held-out calibration must not depend on scheduling.
    let _g = override_guard();
    // Rendered bytes, not `Json` values: value equality would treat
    // `0.0` and `-0.0` as the same number.
    let render = || fitted::run(ExperimentScale::Quick).to_json().render().unwrap();
    let serial = with_threads(1, render);
    let parallel = with_threads(4, render);
    assert!(serial == parallel, "fitted tables differ between 1 and 4 threads");
}

#[test]
fn gemm_kernels_are_thread_count_invariant() {
    use equinox_arith::gemm::{gemm_bf16, gemm_f32, gemm_hbfp, HbfpGemmConfig};
    use equinox_arith::Matrix;
    let _g = override_guard();
    let a = Matrix::from_fn(64, 96, |i, j| ((i * 31 + j * 17) % 23) as f32 - 11.0);
    let b = Matrix::from_fn(96, 48, |i, j| ((i * 13 + j * 7) % 19) as f32 - 9.0);
    let probe = || {
        let f = gemm_f32(&a, &b);
        let h = gemm_bf16(&a, &b);
        let q = gemm_hbfp(&a, &b, &HbfpGemmConfig::default());
        format!("{:?}{:?}{:?}", f.as_slice(), h.as_slice(), q.as_slice())
    };
    let serial = with_threads(1, probe);
    let parallel = with_threads(4, probe);
    assert_eq!(serial, parallel);
}
