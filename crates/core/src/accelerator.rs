//! The `Equinox` facade: design selection → compilation → simulation.

use equinox_arith::Encoding;
use equinox_isa::cache::{compile_inference_cached, lower_training_cached};
use equinox_isa::lower::InferenceTiming;
use equinox_isa::models::ModelSpec;
use equinox_isa::training::{TrainingProfile, TrainingSetup};
use equinox_isa::{ArrayDims, Program};
use equinox_model::{DesignSpace, EvaluatedDesign, LatencyConstraint, TechnologyParams};
use equinox_sim::{
    loadgen, AcceleratorConfig, BatchingPolicy, DegradationPolicy, EquinoxError, FaultScenario,
    SchedulerPolicy, SimReport, Simulation, SloSpec,
};
use std::sync::Arc;

/// A configured Equinox accelerator instance (one of the §5 family,
/// e.g. `Equinox_500us`).
#[derive(Debug, Clone)]
pub struct Equinox {
    constraint: LatencyConstraint,
    design: EvaluatedDesign,
    config: AcceleratorConfig,
}

impl Equinox {
    /// Selects the Pareto-optimal design for `constraint` via the §4
    /// sweep and wraps it with the paper's default policies (adaptive
    /// batching at 2×, hardware priority scheduling).
    ///
    /// # Errors
    ///
    /// [`EquinoxError::NoDesign`] if no design satisfies the
    /// constraint.
    pub fn build(encoding: Encoding, constraint: LatencyConstraint) -> Result<Self, EquinoxError> {
        let tech = TechnologyParams::tsmc28();
        let space = DesignSpace::sweep(encoding, &tech);
        Equinox::build_from_space(encoding, constraint, &space)
    }

    /// [`Equinox::build`] against an already-swept design space, so
    /// callers instantiating several family members pay for the §4
    /// sweep once.
    ///
    /// # Errors
    ///
    /// [`EquinoxError::NoDesign`] if no design satisfies the
    /// constraint.
    pub fn build_from_space(
        encoding: Encoding,
        constraint: LatencyConstraint,
        space: &DesignSpace,
    ) -> Result<Self, EquinoxError> {
        let design = space.best_under_latency(constraint).ok_or_else(|| EquinoxError::NoDesign {
            encoding: encoding.to_string(),
            constraint: constraint.config_name(),
        })?;
        let dims = ArrayDims { n: design.design.n, w: design.design.w, m: design.design.m };
        let config = AcceleratorConfig::new(
            constraint.config_name(),
            dims,
            design.design.freq_hz,
            encoding,
        );
        Ok(Equinox { constraint, design, config })
    }

    /// The four-configuration family of Table 1 for one encoding
    /// (constraints that admit no design are skipped). The design
    /// space is swept once and shared across the members.
    pub fn family(encoding: Encoding) -> Vec<Equinox> {
        let tech = TechnologyParams::tsmc28();
        let space = DesignSpace::sweep(encoding, &tech);
        LatencyConstraint::table1_rows()
            .into_iter()
            .filter_map(|c| Equinox::build_from_space(encoding, c, &space).ok())
            .collect()
    }

    /// The latency constraint this instance was built for.
    pub fn constraint(&self) -> LatencyConstraint {
        self.constraint
    }

    /// The selected analytical design point.
    pub fn design(&self) -> &EvaluatedDesign {
        &self.design
    }

    /// The simulator configuration.
    pub fn config(&self) -> &AcceleratorConfig {
        &self.config
    }

    /// MMU geometry.
    pub fn dims(&self) -> ArrayDims {
        self.config.dims
    }

    /// Clock frequency, Hz.
    pub fn freq_hz(&self) -> f64 {
        self.config.freq_hz
    }

    /// Compiles `model` at this design's natural batch size (`n`).
    ///
    /// # Errors
    ///
    /// See [`Equinox::compile_with_batch`].
    pub fn compile(&self, model: &ModelSpec) -> Result<InferenceTiming, EquinoxError> {
        self.compile_with_batch(model, self.config.dims.n)
    }

    /// Compiles `model` at an explicit batch size.
    ///
    /// The lowered program is vetted by the `equinox-check` static
    /// analyzer before any cycles are spent simulating it.
    ///
    /// # Errors
    ///
    /// [`EquinoxError::AnalysisRejected`] carrying the rendered
    /// diagnostic report if the analyzer finds an error-severity defect
    /// (a compiler bug: the compiler must only emit programs that
    /// install and stream on its own geometry). Warnings and notes are
    /// tolerated; the [`checks`](crate::experiments::checks) sweep records
    /// them.
    pub fn compile_with_batch(
        &self,
        model: &ModelSpec,
        batch: usize,
    ) -> Result<InferenceTiming, EquinoxError> {
        let budget = equinox_check::BufferBudget::paper_default();
        let program =
            compile_inference_cached(model, &self.config.dims, batch, self.config.encoding, &budget);
        let report =
            equinox_check::analyze_program(&program, &self.config.dims, &budget, self.config.encoding);
        if report.has_errors() {
            return Err(EquinoxError::AnalysisRejected {
                subject: format!("{}/{}@batch{batch}", self.config.name, model.name()),
                errors: report.error_count(),
                report: report.render_human(),
            });
        }
        Ok(InferenceTiming::from_program(&program, &self.config.dims, batch))
    }

    /// Batch size `model` is served at on this instance: vector-matrix
    /// workloads (RNN/MLP) at the geometry's `n`, im2col and attention
    /// workloads at 8 (cf. Table 2).
    pub fn serving_batch(&self, model: &ModelSpec) -> usize {
        if model.is_vector_matrix() {
            self.config.dims.n
        } else {
            8
        }
    }

    /// Training configuration for `model` on this instance: RNN/MLP
    /// minibatch 128 (the GRU's 1500-step unroll at 32), im2col
    /// workloads at 8, streamed in this design's encoding.
    pub fn training_setup(&self, model: &ModelSpec) -> TrainingSetup {
        let batch = match model.name() {
            "GRU" => 32,
            _ if model.is_vector_matrix() => 128,
            _ => 8,
        };
        TrainingSetup {
            batch,
            encoding: self.config.encoding,
            ..TrainingSetup::paper_default()
        }
    }

    /// The program `model` runs on this instance and its batch: one
    /// served inference pass at [`Equinox::serving_batch`], or one
    /// training iteration at [`Equinox::training_setup`].
    pub(crate) fn lowering(&self, model: &ModelSpec, training: bool) -> (Arc<Program>, usize) {
        let dims = &self.config.dims;
        if training {
            let setup = self.training_setup(model);
            (lower_training_cached(model, dims, &setup), setup.batch)
        } else {
            let batch = self.serving_batch(model);
            let budget = equinox_check::BufferBudget::paper_default();
            (compile_inference_cached(model, dims, batch, self.config.encoding, &budget), batch)
        }
    }

    /// Profiles one training iteration of `model` on this geometry at
    /// the paper's reference minibatch.
    pub fn training_profile(&self, model: &ModelSpec) -> TrainingProfile {
        TrainingProfile::profile(model, &self.config.dims, &TrainingSetup::paper_default())
    }

    /// Runs one simulation per [`RunOptions`].
    ///
    /// # Errors
    ///
    /// Propagates [`Equinox::compile_with_batch`] and
    /// [`Equinox::run_compiled`] errors.
    pub fn run(&self, opts: &RunOptions) -> Result<SimReport, EquinoxError> {
        let timing = match opts.batch {
            Some(b) => self.compile_with_batch(&opts.model, b)?,
            None => self.compile(&opts.model)?,
        };
        self.run_compiled(&timing, opts)
    }

    /// Runs a simulation reusing an already-compiled timing (use this
    /// when sweeping loads so compilation happens once).
    ///
    /// # Errors
    ///
    /// [`EquinoxError::InvalidArgument`] for malformed run options
    /// (e.g. a negative load).
    pub fn run_compiled(
        &self,
        timing: &InferenceTiming,
        opts: &RunOptions,
    ) -> Result<SimReport, EquinoxError> {
        self.run_scenario(timing, opts, &FaultScenario::baseline(), None)
    }

    /// Runs a simulation under a fault scenario, optionally holding it
    /// against an SLO (see [`equinox_sim::fault`] and
    /// [`equinox_sim::slo`]): the scenario's traffic bursts are
    /// superposed on the Poisson arrivals, its throttle/stall/corruption
    /// disturbances are injected by the engine, and the configured
    /// [`DegradationPolicy`] (via [`RunOptions::degradation`]) decides
    /// how the scheduler degrades.
    ///
    /// # Errors
    ///
    /// [`EquinoxError::InvalidArgument`] for malformed run options and
    /// [`EquinoxError::FaultModel`] for a malformed scenario.
    pub fn run_scenario(
        &self,
        timing: &InferenceTiming,
        opts: &RunOptions,
        scenario: &FaultScenario,
        slo: Option<SloSpec>,
    ) -> Result<SimReport, EquinoxError> {
        let mut config = self.config.clone();
        if let Some(s) = opts.scheduler {
            config.scheduler = s;
        }
        if let Some(b) = opts.batching {
            config.batching = b;
        }
        if let Some(d) = opts.degradation {
            config.degradation = d;
        }
        let training = opts
            .train_model
            .as_ref()
            .map(|m| TrainingProfile::profile(m, &config.dims, &TrainingSetup::paper_default()));
        let sim = Simulation::new(config, *timing, training)?;
        let rate = loadgen::rate_for_load(opts.load, sim.max_request_rate_per_cycle())?;
        // Horizon: enough to complete the target request count, but at
        // least 50 batch intervals so training/idle accounting settles.
        let min_cycles = (50 * timing.total_cycles).max(opts.min_horizon_cycles);
        let horizon = if rate > 0.0 {
            ((opts.target_requests as f64 / rate) as u64).max(min_cycles)
        } else {
            min_cycles.max(200 * timing.total_cycles)
        };
        let arrivals =
            equinox_sim::fault::scenario_arrivals(scenario, rate, horizon, ARRIVAL_SEED)?;
        sim.run_faulted(&arrivals, horizon, scenario, slo)
    }

    /// The paper's service-level latency target: 10× the mean service
    /// time of the reference (LSTM) workload on the **500 µs**
    /// configuration of the same encoding family (§5).
    pub fn latency_target_s(encoding: Encoding) -> f64 {
        let eq = Equinox::build(encoding, LatencyConstraint::Micros(500))
            .or_else(|_| Equinox::build(encoding, LatencyConstraint::None))
            .expect("the unconstrained design always exists");
        let timing = eq
            .compile(&ModelSpec::lstm_2048_25())
            .expect("the reference workload compiles on every design");
        10.0 * timing.service_time_s(eq.freq_hz())
    }
}

impl std::fmt::Display for Equinox {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.config)
    }
}

/// The Poisson arrival seed of every `Equinox::run*`: all runs draw the
/// same arrival process, so no report depends on the runs before it.
const ARRIVAL_SEED: u64 = 42;

/// Options for one simulation run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// The inference workload.
    pub model: ModelSpec,
    /// Batch-size override (default: the geometry's `n`).
    pub batch: Option<usize>,
    /// Offered load as a fraction of the saturation request rate.
    pub load: f64,
    /// Co-hosted training workload, if any.
    pub train_model: Option<ModelSpec>,
    /// Scheduler override.
    pub scheduler: Option<SchedulerPolicy>,
    /// Batching override.
    pub batching: Option<BatchingPolicy>,
    /// Graceful-degradation override (default: the configuration's,
    /// which is [`DegradationPolicy::none`] unless customised).
    pub degradation: Option<DegradationPolicy>,
    /// Approximate number of requests to simulate.
    pub target_requests: u64,
    /// Lower bound on the simulated horizon, cycles (0 = derive from
    /// the workload). Needed when non-preemptible training blocks are
    /// much longer than the batch service time.
    pub min_horizon_cycles: u64,
}

impl RunOptions {
    /// Inference-only LSTM run at `load`.
    pub fn inference(load: f64) -> Self {
        RunOptions {
            model: ModelSpec::lstm_2048_25(),
            batch: None,
            load,
            train_model: None,
            scheduler: None,
            batching: None,
            degradation: None,
            target_requests: 4000,
            min_horizon_cycles: 0,
        }
    }

    /// LSTM inference co-hosted with LSTM training at `load` (the
    /// paper's two-independent-instances setup).
    pub fn colocated(load: f64) -> Self {
        RunOptions {
            train_model: Some(ModelSpec::lstm_2048_25()),
            ..RunOptions::inference(load)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_the_paper_family() {
        let family = Equinox::family(Encoding::Hbfp8);
        assert_eq!(family.len(), 4);
        let names: Vec<String> =
            family.iter().map(|e| e.config().name.clone()).collect();
        assert!(names.contains(&"Equinox_min".to_string()));
        assert!(names.contains(&"Equinox_500us".to_string()));
    }

    #[test]
    fn latency_target_near_5ms() {
        // 10 × ≈0.46 ms ≈ 4.6 ms for hbfp8.
        let t = Equinox::latency_target_s(Encoding::Hbfp8);
        assert!(t > 3e-3 && t < 7e-3, "{t}");
    }

    #[test]
    fn run_inference_only() {
        let eq = Equinox::build(Encoding::Hbfp8, LatencyConstraint::Micros(500)).unwrap();
        let r = eq
            .run(&RunOptions { target_requests: 500, ..RunOptions::inference(0.5) })
            .unwrap();
        assert!(r.completed_requests > 200);
        assert!(r.inference_tops() > 50.0);
        assert_eq!(r.training_tops(), 0.0);
    }

    #[test]
    fn run_colocated_reclaims_cycles() {
        let eq = Equinox::build(Encoding::Hbfp8, LatencyConstraint::Micros(500)).unwrap();
        let r = eq
            .run(&RunOptions { target_requests: 500, ..RunOptions::colocated(0.4) })
            .unwrap();
        assert!(r.training_tops() > 10.0, "training {}", r.training_tops());
    }

    #[test]
    fn min_config_has_batch_one() {
        let eq = Equinox::build(Encoding::Hbfp8, LatencyConstraint::MinLatency).unwrap();
        assert_eq!(eq.dims().n, 1);
    }
}
