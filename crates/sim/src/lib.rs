//! # equinox-sim
//!
//! Cycle-accurate simulator of the Equinox accelerator (Figures 3 and 5
//! of the paper): the matrix-multiply unit, SIMD unit, on-chip buffers,
//! DRAM/host interfaces, the request dispatcher (batch formation with
//! static or adaptive policies) and the instruction dispatcher
//! (hardware priority / fair / software scheduling between the
//! inference and training contexts).
//!
//! Instruction timing comes from the `equinox-isa` compiler; the engine
//! in [`engine`] advances between state-change events at cycle
//! resolution and records every batch and request fate in a
//! [`RunLedger`], the accounting the fleet's surrogate walk shares. See
//! `DESIGN.md` for the validation strategy (the role the authors' RTL
//! traces and DRAMSim comparison played).
//!
//! Beyond the happy path, [`fault`] injects deterministic disturbances
//! (traffic bursts, DRAM throttling, transient batch corruption,
//! formation stalls), [`slo`] holds a run against a per-request
//! deadline, and [`config::DegradationPolicy`] gives the scheduler
//! graceful-degradation levers (training preemption, batch shrinking,
//! load shedding, bounded retries). Fallible public APIs return
//! [`EquinoxError`] instead of panicking.
//!
//! ## Example
//!
//! ```
//! use equinox_sim::{AcceleratorConfig, Simulation, loadgen};
//! use equinox_isa::{ArrayDims, models::ModelSpec, lower};
//! use equinox_arith::Encoding;
//!
//! let dims = ArrayDims { n: 16, w: 4, m: 8 };
//! let config = AcceleratorConfig::new("Equinox_demo", dims, 1e9, Encoding::Hbfp8);
//! let program = lower::compile_inference(&ModelSpec::lstm_2048_25(), &dims, dims.n);
//! let timing = lower::InferenceTiming::from_program(&program, &dims, dims.n);
//! let sim = Simulation::new(config, timing, None).unwrap();
//! let rate = 0.5 * sim.max_request_rate_per_cycle();
//! let arrivals = loadgen::poisson_arrivals(rate, 50_000_000, 42).unwrap();
//! let report = sim.run(&arrivals, 50_000_000).unwrap();
//! assert!(report.completed_requests > 0);
//! ```

pub mod config;
pub mod cost;
pub mod dram;
pub mod engine;
pub mod fault;
pub mod ledger;
pub mod loadgen;
pub mod report;
pub mod slo;
pub mod stats;
pub mod validate;

pub use config::{
    AcceleratorConfig, BatchingPolicy, DegradationPolicy, DramParams, RetryPolicy, SchedulerPolicy,
};
pub use cost::{CostModel, EnergyParams};
pub use engine::{BatchSample, Simulation};
pub use equinox_isa::EquinoxError;
pub use fault::FaultScenario;
pub use ledger::{Completion, EngineTally, RunLedger, TrainingTally};
pub use report::SimReport;
pub use slo::{ClassLedger, RequestClass, SloReport, SloSpec};
pub use stats::{CycleBreakdown, LatencyStats};
