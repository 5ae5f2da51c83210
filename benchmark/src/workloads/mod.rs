//! The five workloads. Each stresses different layers; the README
//! records which, and which metrics each is predicted to move.

pub mod allreduce;
pub mod cohost;
pub mod fleet_day;
pub mod toolchain;
pub mod train_hbfp;

use crate::harness::{self, RunOptions, RunReport, UnitOutput};

/// Workload names, in the order the README and `BENCHMARK.json` list
/// them.
pub const NAMES: [&str; 5] = [
    "cohost",
    "fleet_day",
    "allreduce",
    "toolchain",
    "train_hbfp",
];

/// Problem size: the benchmark's, or the smoke check's few-percent cut.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured size.
    Full,
    /// A quick correctness check of every code path.
    Smoke,
}

/// A unit that could not run at all.
pub(crate) fn failure(why: String) -> UnitOutput {
    UnitOutput {
        fields: Vec::new(),
        failure: Some(why),
    }
}

/// Runs the workload called `name`.
///
/// # Errors
///
/// An unknown name, a set-up failure, or unreadable peak memory.
pub fn run(name: &str, options: &RunOptions) -> Result<RunReport, String> {
    let scale = if options.smoke {
        Scale::Smoke
    } else {
        Scale::Full
    };
    match name {
        "cohost" => harness::run("cohost", &cohost::Cohost(scale), options),
        "fleet_day" => harness::run("fleet_day", &fleet_day::FleetDay(scale), options),
        "allreduce" => harness::run("allreduce", &allreduce::AllReduce(scale), options),
        "toolchain" => harness::run("toolchain", &toolchain::Toolchain(scale), options),
        "train_hbfp" => on_one_thread(|| {
            harness::run("train_hbfp", &train_hbfp::TrainHbfp(scale), options)
        }),
        other => Err(format!(
            "unknown workload '{other}' (valid: {})",
            NAMES.join(", ")
        )),
    }
}

/// Runs `f` with the worker pool held to one thread.
///
/// The tiled GEMM spawns fresh workers for every product of 2^16 MACs
/// or more: thousands of spawns a `train_hbfp` pass, each waking the
/// other vCPU, and a quarter of the run in the kernel. On a shared VM
/// that measured the host's scheduler: when neighbours were busy the
/// pass slowed up to four times while the speed probe slowed 1.5 times.
/// On one thread the GEMM takes its serial path, which gives the same
/// bits (the tiling is bitwise identical to serial) and, there, took
/// two thirds of the time.
fn on_one_thread<R>(f: impl FnOnce() -> R) -> R {
    equinox_par::set_thread_override(Some(1));
    let result = f();
    equinox_par::set_thread_override(None);
    result
}
