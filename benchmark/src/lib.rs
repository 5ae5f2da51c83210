//! End-to-end and per-layer benchmark of the Equinox reproduction.
//!
//! `bench --workload <name>` runs one workload in one process: it sets
//! up several times, then runs whole passes over the workload's unit
//! grid for a fixed time, checks every unit's outputs, re-runs the
//! first unit to check determinism, and prints every metric by name
//! with its unit, ending with one JSON summary line. `--trace 1` runs
//! the same units while recording spans around the benchmark's calls
//! into each crate, and reports per-layer metrics instead.
//! `bench-compare` judges two sets of result files against the bounds
//! in the repository's `BENCHMARK.json`. See `benchmark/README.md`.

pub mod cli;
pub mod compare;
pub mod harness;
pub mod json;
pub mod speed;
pub mod stats;
pub mod trace;
pub mod workloads;

/// Measured-phase length when `--seconds` is not given; equal to
/// `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 20.0;

/// Seed when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 42;

/// End-to-end metrics `(name, unit)`, measured with tracing off. Host
/// times are rescaled to the reference machine speed (see [`speed`]).
pub const END_TO_END: [(&str, &str); 3] = [
    // Median over the run's set-up samples.
    ("setup_s", "s"),
    // Mean host wall clock of one pass over the unit grid.
    ("pass_s", "s"),
    // VmHWM at the end of the run.
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics `(name, unit)`, from the traced run. A layer that
/// a workload does not touch reads 0 there.
pub const PER_LAYER: [(&str, &str); 58] = [
    ("unit.p50_ms", "ms"),
    ("unit.p90_ms", "ms"),
    ("bench.units", "count"),
    ("par.busy_frac", "frac"),
    ("trace.coverage_frac", "frac"),
    ("trace.overhead_frac", "frac"),
    ("bench.self_frac", "frac"),
    ("model.self_frac", "frac"),
    ("core.self_frac", "frac"),
    ("isa.self_frac", "frac"),
    ("check.self_frac", "frac"),
    ("sim.self_frac", "frac"),
    ("fleet.self_frac", "frac"),
    ("net.self_frac", "frac"),
    ("trainer.self_frac", "frac"),
    ("arith.self_frac", "frac"),
    ("check.install_frac", "frac"),
    ("check.dataflow_frac", "frac"),
    ("check.resources_frac", "frac"),
    ("check.encoding_frac", "frac"),
    ("check.bounds_frac", "frac"),
    ("check.numerics_frac", "frac"),
    ("isa.lower_frac", "frac"),
    ("sim.loadgen_frac", "frac"),
    ("sim.run_frac", "frac"),
    ("trainer.step_frac", "frac"),
    ("trainer.eval_frac", "frac"),
    ("arith.gemm_frac", "frac"),
    ("arith.quantize_frac", "frac"),
    ("isa.instr_per_s", "1/s"),
    ("check.instr_per_s", "1/s"),
    ("sim.device_cycles_per_s", "1/s"),
    ("sim.requests_per_s", "1/s"),
    ("fleet.device_cycles_per_s", "1/s"),
    ("fleet.requests_per_s", "1/s"),
    ("net.fabric_cycles_per_s", "1/s"),
    ("net.link_bytes_per_s", "B/s"),
    ("trainer.macs_per_s", "1/s"),
    ("arith.macs_per_s", "1/s"),
    ("core.fit_batches_per_s", "1/s"),
    ("isa.instr", "count"),
    ("check.diagnostics", "count"),
    ("sim.requests", "count"),
    ("sim.batches", "count"),
    ("fleet.offered", "count"),
    ("fleet.admission_shed", "count"),
    ("fleet.completed", "count"),
    ("net.retries", "count"),
    ("net.bg_packets", "count"),
    ("net.aborted_flows", "count"),
    ("trainer.steps", "count"),
    ("trainer.macs", "count"),
    ("sim_p99_ms", "sim_ms"),
    ("sim_train_tops", "TOp/s"),
    ("sim_slo_miss", "frac"),
    ("sim_round_mcycles", "Mcycles"),
    ("sim_service_mcycles", "Mcycles"),
    ("hbfp_ppl_gap", "frac"),
];

/// Metrics computed from the first pass's outputs alone: for one seed
/// they repeat exactly, so `bench-compare` requires them identical.
pub const DETERMINISTIC: [&str; 18] = [
    "isa.instr",
    "check.diagnostics",
    "sim.requests",
    "sim.batches",
    "fleet.offered",
    "fleet.admission_shed",
    "fleet.completed",
    "net.retries",
    "net.bg_packets",
    "net.aborted_flows",
    "trainer.steps",
    "trainer.macs",
    "sim_p99_ms",
    "sim_train_tops",
    "sim_slo_miss",
    "sim_round_mcycles",
    "sim_service_mcycles",
    "hbfp_ppl_gap",
];
