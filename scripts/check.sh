#!/usr/bin/env bash
# Full offline quality gate: lint, build, test and every experiment at
# --quick scale, the static analyzer sweep included, then every
# experiment at Full scale compared byte for byte with the committed
# results/. Everything here works without network access; CI runs this
# script as is.
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

echo "==> build (release)"
cargo build --workspace --release

echo "==> tests (incl. tests/determinism.rs: every experiment at 1 and"
echo "    at 4 threads, compared byte for byte, every gate holding)"
cargo test --workspace --quiet

echo "==> exhaustive arithmetic checks, #[ignore]d in the default run (~20 s"
echo "    in release): the bit-derived HBFP block exponent equals libm's"
echo "    log2().ceil() on every positive finite f32, on this host's libm"
cargo test --release -p equinox-arith -- --ignored

echo "==> benchmark package: clippy and tests (its own workspace, so the"
echo "    --workspace steps above never build it)"
cargo clippy --manifest-path benchmark/Cargo.toml --all-targets -- -D warnings
cargo test --manifest-path benchmark/Cargo.toml

# regen-results writes results/ relative to its working directory. It
# runs in target/check-results/ so the committed results/ keep their
# Full-scale bytes.
mkdir -p target/check-results

echo "==> every experiment at --quick scale: fails on any panic, on any"
echo "    gate that does not hold (printed as <id>: <gate>; the checks id"
echo "    gates every analyzer report but the installation fits) or on any"
echo "    id over its --quick wall-clock budget (writes"
echo "    target/check-results/results/)"
(cd target/check-results && cargo run --release -p equinox-bench --bin regen-results -- --quick)

echo "==> every experiment at Full scale (~50 s, ~2 GiB RSS on 2 vCPUs):"
echo "    fails on any gate that does not hold, and on any file that is not"
echo "    byte-identical to the committed results/ (bench_timings.json holds"
echo "    wall-clock times, so it is the one file exempt); diff -rq names"
echo "    each differing, missing or extra file"
rm -rf target/check-full
mkdir -p target/check-full
(cd target/check-full && cargo run --release -p equinox-bench --bin regen-results)
diff -rq --exclude=bench_timings.json results target/check-full/results

echo "==> rustdoc (warnings are errors; no external deps to document)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> wall-clock + compile-cache profile of this run"
cat target/check-results/results/bench_timings.json

echo "OK"
