#!/usr/bin/env bash
# Source-level determinism guard.
#
# The determinism contract (see tests/determinism.rs and the regen
# driver's module docs) promises that every results/ artifact is
# byte-identical at any EQUINOX_THREADS. The determinism test catches
# schedule-dependent output after the fact; this guard catches the two
# usual ways it gets introduced at review time instead:
#
#   * std's HashMap/HashSet — iteration order is randomized per process,
#     so any artifact rendered from an iterated std hash map differs run
#     to run. Result-producing code uses BTreeMap/BTreeSet.
#   * Wall-clock reads (Instant::now / SystemTime) — anything derived
#     from them is nondeterministic by definition.
#
# Allowlist (timing-exempt paths, reviewed case by case):
#
#   crates/isa/src/cache.rs            The compile cache's HashMap is
#                                      keyed lookup only — it is never
#                                      iterated, so its order cannot
#                                      reach any artifact.
#   crates/check/src/lib.rs            analyze_program_with returns
#                                      per-pass wall clocks for callers
#                                      that profile the analyzer; no
#                                      results/ artifact records them.
#   crates/bench/src                   The experiment registry's driver
#                                      times each id; the readings feed
#                                      only results/bench_timings.json,
#                                      documented as exempt from the
#                                      byte-identity contract (it
#                                      measures this run).
#
# Growing the allowlist requires the same justification: either the
# container never iterates, or the readings reach no artifact other
# than a *_timings file.
set -euo pipefail
cd "$(dirname "$0")/.."

PATTERN='\bHashMap\b|\bHashSet\b|Instant::now|SystemTime'

ALLOW=(
  'crates/isa/src/cache\.rs'
  'crates/check/src/lib\.rs'
  'crates/bench/src/'
)

allow_re="$(IFS='|'; echo "${ALLOW[*]}")"

hits="$(grep -rnE "$PATTERN" crates/*/src --include='*.rs' | grep -vE "^($allow_re)" || true)"

if [[ -n "$hits" ]]; then
  echo "determinism guard: nondeterminism primitives outside the allowlist:" >&2
  echo "$hits" >&2
  echo >&2
  echo "Use BTreeMap/BTreeSet in result-producing code, or document the" >&2
  echo "path in scripts/determinism_guard.sh if it is timing-exempt." >&2
  exit 1
fi

echo "determinism guard: clean (allowlist: ${#ALLOW[@]} documented paths)"
