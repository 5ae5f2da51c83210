#!/usr/bin/env bash
# Full offline quality gate: lint, build, test, and run the static
# analyzer sweep. Everything here works without network access.
#
# rustfmt is intentionally not enforced: the codebase predates a
# rustfmt profile and conformance would be a whole-tree churn.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> determinism guard: no HashMap/HashSet/wall-clock reads in"
echo "    result-producing crates outside the documented allowlist"
bash scripts/determinism_guard.sh

echo "==> clippy (all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> build (release, including the paper-bench binaries)"
cargo build --workspace --release
cargo build --workspace --release --features equinox-bench/paper-bench

echo "==> tests"
cargo test --workspace --quiet

echo "==> benchmark package: clippy and tests (its own workspace, so the"
echo "    --workspace steps above never build it)"
cargo clippy --manifest-path benchmark/Cargo.toml --all-targets -- -D warnings
cargo test --manifest-path benchmark/Cargo.toml

echo "==> equinox-check sweep: inference + training lowerings across the"
echo "    paper family; exits non-zero on any error-severity diagnostic"
echo "    (writes results/equinox_check.json)"
cargo run --release -p equinox-check --bin equinox-check

echo "==> driver configuration checks, incl. the four paper models'"
echo "    training lowerings (writes results/driver_checks.json)"
cargo run --release -p equinox-bench --bin regen-results -- checks

echo "==> fault-injection smoke (reduced grid; fails on panics, SLO"
echo "    violations in the no-fault baseline, rejected policies, or"
echo "    blowing a per-figure --quick wall-clock budget)"
cargo run --release -p equinox-bench --bin regen-results -- --quick fault

echo "==> fleet smoke (reduced grid; fails if training-aware routing"
echo "    stops beating round-robin harvest at moderate load with a"
echo "    clean SLO, or blows its --quick budget"
echo "    EQUINOX_QUICK_BUDGET_FLEET_S)"
cargo run --release -p equinox-bench --bin regen-results -- --quick fleet

echo "==> serving smoke (reduced grid; fails if the priority admission"
echo "    policy stops protecting the paid tier under 120% overload,"
echo "    free traffic is no longer shed first, the autoscaler loses an"
echo "    in-flight request, the EQX07xx lints regress, or the --quick"
echo "    budget EQUINOX_QUICK_BUDGET_SERVE_S is blown)"
cargo run --release -p equinox-bench --bin regen-results -- --quick serve

echo "==> all-reduce smoke (reduced grid; fails if the harvest-vs-sync"
echo "    frontier loses a cell, a fabric stops completing its round"
echo "    with positive synced epochs at moderate load, the paid tier"
echo "    is touched at the reference cells, a link leaks bytes, the"
echo "    EQX09xx lints regress, or the --quick budget"
echo "    EQUINOX_QUICK_BUDGET_ALLREDUCE_S is blown)"
cargo run --release -p equinox-bench --bin regen-results -- --quick allreduce

echo "==> bound-calibration smoke (fails if the cycle-accurate sim"
echo "    measures outside any static [lower, upper] envelope, any"
echo "    upper/lower ratio exceeds 4x, or the --quick budget"
echo "    EQUINOX_QUICK_BUDGET_BOUNDS_S is blown)"
cargo run --release -p equinox-bench --bin regen-results -- --quick bounds

echo "==> numerics-calibration smoke (fails on any EQX08xx error in a"
echo "    paper lowering, on any false-safe saturation verdict against"
echo "    the executed fixed-point kernels, or if the --quick budget"
echo "    EQUINOX_QUICK_BUDGET_NUMERICS_S is blown)"
cargo run --release -p equinox-bench --bin regen-results -- --quick numerics

echo "==> fitted-surrogate smoke (fails if any sample escapes the static"
echo "    envelope, a held-out contention bucket misses its calibration"
echo "    ceiling, or the --quick budget EQUINOX_QUICK_BUDGET_FITTED_S"
echo "    is blown; writes results/fitted_tables.json and the scaled-"
echo "    sweep wall-clock comparison into bench_timings.json)"
cargo run --release -p equinox-bench --bin regen-results -- --quick fitted

echo "==> determinism smoke: the --quick regen of the sweep-backed"
echo "    figures, the fleet and serving sweeps (incl. their scaled"
echo "    fitted-surrogate cells), the bound and numerics calibrations,"
echo "    and the fitted tables must be byte-identical serial vs parallel"
EQUINOX_THREADS=1 cargo run --release -p equinox-bench --bin regen-results -- --quick fig6 table1 checks fleet serve allreduce bounds numerics fitted
cp results/fig6a_hbfp8.csv /tmp/equinox_fig6a_serial.csv
cp results/table1_pareto.txt /tmp/equinox_table1_serial.txt
cp results/driver_checks.json /tmp/equinox_checks_serial.json
cp results/fleet_sweep.json /tmp/equinox_fleet_serial.json
cp results/serve_sweep.json /tmp/equinox_serve_serial.json
cp results/allreduce_sweep.json /tmp/equinox_allreduce_serial.json
cp results/bounds_calibration.json /tmp/equinox_bounds_serial.json
cp results/numerics_sweep.json /tmp/equinox_numerics_serial.json
cp results/fitted_tables.json /tmp/equinox_fitted_serial.json
cargo run --release -p equinox-bench --bin regen-results -- --quick fig6 table1 checks fleet serve allreduce bounds numerics fitted
cmp results/fig6a_hbfp8.csv /tmp/equinox_fig6a_serial.csv
cmp results/table1_pareto.txt /tmp/equinox_table1_serial.txt
cmp results/driver_checks.json /tmp/equinox_checks_serial.json
cmp results/fleet_sweep.json /tmp/equinox_fleet_serial.json
cmp results/serve_sweep.json /tmp/equinox_serve_serial.json
cmp results/allreduce_sweep.json /tmp/equinox_allreduce_serial.json
cmp results/bounds_calibration.json /tmp/equinox_bounds_serial.json
cmp results/numerics_sweep.json /tmp/equinox_numerics_serial.json
cmp results/fitted_tables.json /tmp/equinox_fitted_serial.json
echo "    byte-identical at EQUINOX_THREADS=1 and the default pool"

echo "==> rustdoc (warnings are errors; no external deps to document)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> wall-clock + compile-cache profile of this run"
cat results/bench_timings.json

echo "OK"
