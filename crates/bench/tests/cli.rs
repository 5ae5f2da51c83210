//! End-to-end tests of the `regen-results` binary's argument handling
//! and exit status. Each runs the binary in a fresh working directory,
//! since it writes `results/` relative to it.

use std::path::PathBuf;
use std::process::{Command, Output};

/// An empty working directory named after the test.
fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("regen-results-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn regen(dir: &PathBuf, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_regen-results"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("binary runs")
}

#[test]
fn bad_arguments_exit_2_before_anything_runs() {
    // `fig99` and `--quik` once matched by prefix and ran `fig9` or a
    // Full-scale `table3`; `nope` ran nothing and exited 0.
    for (name, args) in
        [("nope", &["nope"][..]), ("fig99", &["fig99"]), ("quik", &["--quik", "table3"])]
    {
        let dir = workdir(name);
        let out = regen(&dir, args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("`{}`", args[0])), "{stderr}");
        for e in &equinox_bench::EXPERIMENTS {
            assert!(stderr.contains(e.id), "{args:?}: `{}` not listed in {stderr}", e.id);
        }
        assert!(out.stdout.is_empty(), "{args:?} ran something");
        assert!(!dir.join("results").exists(), "{args:?} created results/");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn quick_run_writes_its_files_and_timings() {
    let dir = workdir("quick");
    let out = regen(&dir, &["--quick", "table3"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(dir.join("results/table3_area_power.txt").is_file());
    let timings = std::fs::read_to_string(dir.join("results/bench_timings.json")).unwrap();
    assert!(timings.contains("\"id\":\"table3\""), "{timings}");
    // `table3` reads no fitted table, so none is fitted or timed.
    assert!(!timings.contains("fitted_table_s"), "{timings}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("--quick wall-clock budgets"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_shared_table_fit_is_timed_on_its_own() {
    let dir = workdir("fitted");
    let out = regen(&dir, &["--quick", "fitted"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let timings = std::fs::read_to_string(dir.join("results/bench_timings.json")).unwrap();
    assert!(timings.contains("\"fitted_table_s\":"), "{timings}");
    assert!(timings.contains("\"id\":\"fitted\""), "{timings}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unwritable_results_exit_1() {
    // `results` is a plain file, so no artifact can be written under it.
    let dir = workdir("unwritable");
    std::fs::write(dir.join("results"), "").unwrap();
    let out = regen(&dir, &["table3"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot write results/table3_area_power.txt"), "{stderr}");
    assert!(stderr.contains("cannot write results/bench_timings.json"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
