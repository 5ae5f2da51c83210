//! `fleet_day`: the scale path on the fitted tier.
//!
//! Set-up fits the distributional surrogate's quantile tables against
//! the cycle-accurate engine (`experiments::fitted::run`) and builds a
//! 64-device fleet of fitted LSTM devices, the second half harvesting.
//! Each unit serves one trace day — the diurnal profile averaging 30 %
//! composed with a 2.5× midday flash crowd, scaled to a mean offered
//! load of 80 % of fleet saturation — with priority admission,
//! training-aware routing and 60 % paid traffic. Units run one after
//! another: `Fleet::run` already fans its devices out on the pool.

use super::{failure, Scale};
use crate::harness::{mean, sum, UnitId, UnitOutput, Workload};
use crate::trace::SpanCtx;
use equinox_core::experiments::fitted;
use equinox_core::ExperimentScale;
use equinox_fleet::routing::RoutingPolicy;
use equinox_fleet::{AdmissionSpec, ArrivalSource, Fleet, FleetReport, FleetRunOptions};
use equinox_sim::loadgen::{trace_mean_load, DiurnalProfile, FlashCrowd};
use equinox_sim::SloSpec;

/// Devices in the fleet.
const DEVICES: usize = 64;

/// Mean offered load over the day, fraction of fleet saturation.
const MEAN_LOAD: f64 = 0.8;

/// Probability that an arrival is paid-tier.
const PAID_FRACTION: f64 = 0.6;

/// Deadline as a multiple of the LSTM batch service time.
const DEADLINE_X: f64 = 16.0;

/// The `fleet_day` workload.
pub struct FleetDay(pub Scale);

/// What every unit shares.
pub struct Setup {
    fleet: Fleet,
    options: FleetRunOptions,
}

impl Workload for FleetDay {
    type Setup = Setup;

    fn setup(&self, _: u64, ctx: SpanCtx<'_>) -> Result<Setup, String> {
        let (scale, intervals) = match self.0 {
            Scale::Full => (ExperimentScale::Full, 20),
            Scale::Smoke => (ExperimentScale::Quick, 2),
        };
        let calibration = ctx.span("core", "fitted::run", |ctx| {
            let c = fitted::run(scale);
            let batches = c
                .fits
                .iter()
                .map(|f| f.train_samples + f.heldout_samples)
                .sum::<usize>();
            ctx.count("core.fit_batches", batches as f64);
            c
        });
        if !calibration.all_calibrated() {
            return Err(format!(
                "fitted tables failed calibration: {:?}",
                calibration.failures()
            ));
        }
        let fit = calibration.fit("LSTM").ok_or("no LSTM table was fitted")?;
        let fleet = ctx
            .span("fleet", "Fleet::new", |_| {
                Fleet::new(
                    (0..DEVICES)
                        .map(|i| fit.device(&format!("fit[{i}]"), i >= DEVICES / 2))
                        .collect(),
                )
            })
            .map_err(|e| e.to_string())?;
        let profile = DiurnalProfile::thirty_percent_average();
        let crowd = FlashCrowd {
            start_frac: 0.55,
            duration_frac: 0.08,
            multiplier: 2.5,
        };
        let day_mean = trace_mean_load(&profile, &[crowd]).map_err(|e| e.to_string())?;
        let deadline_s = DEADLINE_X * fit.measured_cycles as f64 / calibration.freq_hz;
        let options = FleetRunOptions {
            source: ArrivalSource::Trace {
                profile,
                rate_scale: MEAN_LOAD / day_mean,
                crowd,
            },
            policy: RoutingPolicy::training_aware_default(),
            admission: AdmissionSpec::priority_default(),
            autoscale: None,
            paid_fraction: PAID_FRACTION,
            horizon_cycles: intervals * fit.measured_cycles,
            // Each unit runs with its own seed.
            seed: 0,
            slo: Some(SloSpec::new(deadline_s).map_err(|e| e.to_string())?),
        };
        Ok(Setup { fleet, options })
    }

    fn units_per_pass(&self, _: &Setup) -> usize {
        1
    }

    fn parallel(&self) -> bool {
        false
    }

    fn run_unit(&self, setup: &Setup, id: UnitId, ctx: SpanCtx<'_>) -> UnitOutput {
        let options = FleetRunOptions {
            seed: id.seed(),
            ..setup.options
        };
        let result = ctx.span("fleet", "Fleet::run", |ctx| {
            let report = setup.fleet.run(&options);
            if let Ok(r) = &report {
                let devices = r.devices.len() as f64;
                ctx.count(
                    "fleet.device_cycles",
                    options.horizon_cycles as f64 * devices,
                );
                ctx.count("fleet.requests", r.offered_requests as f64);
            }
            report
        });
        let report = match result {
            Ok(r) => r,
            Err(e) => return failure(e.to_string()),
        };
        let ledger = Ledger::of(&report);
        let fields = vec![
            ("offered", ledger.offered as f64),
            ("admission_shed", ledger.admission_shed as f64),
            ("completed", ledger.completed as f64),
            ("device_shed", ledger.device_shed as f64),
            ("final_queue", ledger.final_queue as f64),
            ("violations", report.total_violations() as f64),
            ("measured", report.measured_requests() as f64),
            ("p99_ms", report.p99_ms()),
            ("train_tops", report.training_tops()),
        ];
        let failure = ctx.span("bench", "check", |_| ledger.check().err());
        UnitOutput { fields, failure }
    }

    fn summarize(&self, first: &[UnitOutput]) -> Vec<(&'static str, f64)> {
        // Requests refused at the edge miss the deadline too.
        let missed = sum(first, "violations") + sum(first, "admission_shed");
        let judged = sum(first, "measured") + sum(first, "admission_shed");
        vec![
            ("sim_p99_ms", mean(first, "p99_ms")),
            ("sim_train_tops", mean(first, "train_tops")),
            ("sim_slo_miss", missed / judged),
            ("fleet.offered", sum(first, "offered")),
            ("fleet.admission_shed", sum(first, "admission_shed")),
            ("fleet.completed", sum(first, "completed")),
        ]
    }
}

/// Where every offered request of a fleet day ended up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ledger {
    /// Requests offered at the front end.
    pub offered: usize,
    /// Refused by admission at the fleet edge.
    pub admission_shed: usize,
    /// Completed on a device.
    pub completed: u64,
    /// Shed by a device's own policy.
    pub device_shed: u64,
    /// Still queued on a device at the horizon.
    pub final_queue: usize,
}

impl Ledger {
    /// The ledger of `report`.
    pub fn of(report: &FleetReport) -> Self {
        Ledger {
            offered: report.offered_requests,
            admission_shed: report.admission_shed_requests,
            completed: report.completed_requests(),
            device_shed: report.shed_requests(),
            final_queue: report
                .devices
                .iter()
                .filter_map(|d| d.report.slo.as_ref())
                .map(|s| s.final_queue_depth)
                .sum(),
        }
    }

    /// Request conservation: `offered == admission_shed + Σ(completed +
    /// device_shed + final_queue)`.
    pub fn check(&self) -> Result<(), String> {
        let accounted = self.admission_shed as u64
            + self.completed
            + self.device_shed
            + self.final_queue as u64;
        if accounted == self.offered as u64 {
            Ok(())
        } else {
            Err(format!(
                "{} requests offered but {accounted} accounted for: {self:?}",
                self.offered
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conservation_check_fires_on_a_doctored_ledger() {
        let ok = Ledger {
            offered: 10,
            admission_shed: 2,
            completed: 5,
            device_shed: 1,
            final_queue: 2,
        };
        assert_eq!(ok.check(), Ok(()));
        for bad in [
            Ledger { completed: 6, ..ok },
            Ledger {
                final_queue: 1,
                ..ok
            },
            Ledger { offered: 11, ..ok },
        ] {
            assert!(bad.check().unwrap_err().contains("accounted"), "{bad:?}");
        }
    }
}
