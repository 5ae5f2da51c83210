//! `cohost`: the paper's mechanism on the cycle-accurate tier.
//!
//! Equinox_500us (hbfp8) serves the LSTM with LSTM training co-hosted
//! at the Figure 10 operating point — hardware priority scheduling
//! (`Priority{2n}`) with adaptive batching — held against a deadline of
//! 16× the batch service time. Traffic is open-loop Poisson in
//! simulated time at 90, 60 and 30 % of saturation. A pass is 12 units:
//! four per load, the first of which runs a DRAM-throttle plus
//! batch-corruption scenario under the shedding degradation policy.

use super::{failure, Scale};
use crate::harness::{mean, sum, UnitId, UnitOutput, Workload};
use crate::trace::SpanCtx;
use equinox_arith::Encoding;
use equinox_core::Equinox;
use equinox_isa::cache::compile_inference_cached;
use equinox_isa::lower::InferenceTiming;
use equinox_isa::models::ModelSpec;
use equinox_isa::training::{TrainingProfile, TrainingSetup};
use equinox_model::{DesignSpace, LatencyConstraint, TechnologyParams};
use equinox_sim::fault::scenario_arrivals;
use equinox_sim::loadgen::{rate_for_load, split_seed};
use equinox_sim::{
    AcceleratorConfig, BatchingPolicy, DegradationPolicy, FaultScenario, SchedulerPolicy,
    SimReport, Simulation, SloSpec,
};

/// Offered loads, fractions of the saturation request rate, heaviest
/// first.
const LOADS: [f64; 3] = [0.9, 0.6, 0.3];

/// Units per load in a pass; the first of them (the heaviest) is
/// faulted.
const PER_LOAD: usize = 4;

/// Deadline as a multiple of the batch service time (the fault and
/// fleet sweeps use the same).
const DEADLINE_X: f64 = 16.0;

/// The `cohost` workload.
pub struct Cohost(pub Scale);

/// What every unit shares.
pub struct Setup {
    config: AcceleratorConfig,
    timing: InferenceTiming,
    training: TrainingProfile,
    slo: SloSpec,
}

impl Cohost {
    /// Simulated horizon of one unit, in batch service intervals.
    fn intervals(&self) -> u64 {
        match self.0 {
            Scale::Full => 6_000,
            Scale::Smoke => 240,
        }
    }
}

impl Workload for Cohost {
    type Setup = Setup;

    fn setup(&self, _: u64, ctx: SpanCtx<'_>) -> Result<Setup, String> {
        let eq = ctx
            .span("model", "DesignSpace::sweep", |_| {
                let space = DesignSpace::sweep(Encoding::Hbfp8, &TechnologyParams::tsmc28());
                Equinox::build_from_space(Encoding::Hbfp8, LatencyConstraint::Micros(500), &space)
            })
            .map_err(|e| e.to_string())?;
        let (model, dims) = (ModelSpec::lstm_2048_25(), eq.dims());
        let budget = equinox_check::BufferBudget::paper_default();
        let program = ctx.span("isa", "compile_inference_cached", |_| {
            compile_inference_cached(&model, &dims, dims.n, Encoding::Hbfp8, &budget)
        });
        let report = ctx.span("check", "analyze_program", |_| {
            equinox_check::analyze_program(&program, &dims, &budget, Encoding::Hbfp8)
        });
        if report.has_errors() {
            return Err(report.render_human());
        }
        let timing = InferenceTiming::from_program(&program, &dims, dims.n);
        let training = ctx.span("isa", "TrainingProfile::profile", |_| {
            TrainingProfile::profile(&model, &dims, &TrainingSetup::paper_default())
        });
        let mut config = eq.config().clone();
        config.scheduler = SchedulerPolicy::Priority {
            queue_threshold: 2 * dims.n,
        };
        config.batching = BatchingPolicy::adaptive_default();
        let slo = SloSpec::new(DEADLINE_X * timing.service_time_s(eq.freq_hz()))
            .map_err(|e| e.to_string())?;
        Ok(Setup {
            config,
            timing,
            training,
            slo,
        })
    }

    fn units_per_pass(&self, _: &Setup) -> usize {
        LOADS.len() * PER_LOAD
    }

    fn parallel(&self) -> bool {
        true
    }

    fn run_unit(&self, setup: &Setup, id: UnitId, ctx: SpanCtx<'_>) -> UnitOutput {
        let load = LOADS[id.index / PER_LOAD];
        let faulted = id.index.is_multiple_of(PER_LOAD);
        let seed = id.seed();
        let horizon = self.intervals() * setup.timing.total_cycles;
        let mut config = setup.config.clone();
        let scenario = if faulted {
            config.degradation = DegradationPolicy::shedding(config.dims.n);
            FaultScenario::named("throttle+corruption")
                .with_throttle(horizon * 3 / 10, horizon * 6 / 10, 0.35)
                .with_corruption(0.05, split_seed(seed, 1))
        } else {
            FaultScenario::baseline()
        };
        let result = (|| {
            let sim = Simulation::new(config, setup.timing, Some(setup.training))?;
            let rate = rate_for_load(load, sim.max_request_rate_per_cycle())?;
            let arrivals = ctx.span("sim", "scenario_arrivals", |_| {
                scenario_arrivals(&scenario, rate, horizon, seed)
            })?;
            let report = ctx.span("sim", "run_faulted", |ctx| {
                ctx.count("sim.device_cycles", horizon as f64);
                ctx.count("sim.requests", arrivals.len() as f64);
                sim.run_faulted(&arrivals, horizon, &scenario, Some(setup.slo))
            })?;
            Ok::<_, equinox_sim::EquinoxError>((arrivals.len(), report))
        })();
        let (arrivals, report) = match result {
            Ok(r) => r,
            Err(e) => return failure(e.to_string()),
        };
        let slo = report.slo.as_ref();
        let fields = vec![
            ("load", load),
            ("faulted", f64::from(u8::from(faulted))),
            ("arrivals", arrivals as f64),
            ("completed", report.completed_requests as f64),
            ("batches", report.batches_issued as f64),
            ("p99_ms", report.p99_ms()),
            ("train_tops", report.training_tops()),
            ("violations", slo.map_or(0, |s| s.total_violations()) as f64),
            ("measured", slo.map_or(0, |s| s.measured_requests) as f64),
        ];
        let failure = ctx.span("bench", "check", |_| check(&report, arrivals).err());
        UnitOutput { fields, failure }
    }

    fn summarize(&self, first: &[UnitOutput]) -> Vec<(&'static str, f64)> {
        vec![
            ("sim_p99_ms", mean(first, "p99_ms")),
            ("sim_train_tops", mean(first, "train_tops")),
            (
                "sim_slo_miss",
                sum(first, "violations") / sum(first, "measured"),
            ),
            ("sim.requests", sum(first, "arrivals")),
            ("sim.batches", sum(first, "batches")),
        ]
    }
}

/// The unit's output check: no request completes that never arrived,
/// the SLO ledger is present, and every latency is finite.
pub fn check(report: &SimReport, arrivals: usize) -> Result<(), String> {
    if report.completed_requests > arrivals as u64 {
        return Err(format!(
            "{} requests completed but only {arrivals} arrived",
            report.completed_requests
        ));
    }
    if report.slo.is_none() {
        return Err("the SLO ledger is missing".into());
    }
    if let Some(bad) = report.latency.samples().iter().find(|l| !l.is_finite()) {
        return Err(format!("non-finite latency {bad}"));
    }
    if !report.training_tops().is_finite() {
        return Err("non-finite training throughput".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Tracer;
    use equinox_sim::LatencyStats;

    fn smoke_report() -> (SimReport, usize) {
        let w = Cohost(Scale::Smoke);
        let tracer = Tracer::new(false);
        let setup = w.setup(0, tracer.root()).expect("set-up");
        let horizon = w.intervals() * setup.timing.total_cycles;
        let sim =
            Simulation::new(setup.config.clone(), setup.timing, Some(setup.training)).unwrap();
        let rate = rate_for_load(0.6, sim.max_request_rate_per_cycle()).unwrap();
        let scenario = FaultScenario::baseline();
        let arrivals = scenario_arrivals(&scenario, rate, horizon, 7).unwrap();
        let report = sim
            .run_faulted(&arrivals, horizon, &scenario, Some(setup.slo))
            .unwrap();
        (report, arrivals.len())
    }

    #[test]
    fn check_fires_on_doctored_reports() {
        let (report, arrivals) = smoke_report();
        assert_eq!(check(&report, arrivals), Ok(()));

        let mut over = report.clone();
        over.completed_requests = arrivals as u64 + 1;
        assert!(check(&over, arrivals).unwrap_err().contains("completed"));

        let mut nan = report.clone();
        let mut samples = nan.latency.samples().to_vec();
        samples.push(f64::NAN);
        nan.latency = LatencyStats::from_samples(samples);
        assert!(check(&nan, arrivals)
            .unwrap_err()
            .contains("non-finite latency"));

        let mut no_slo = report;
        no_slo.slo = None;
        assert!(check(&no_slo, arrivals).is_err());
    }
}
