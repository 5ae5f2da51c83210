//! Per-device specification of a fleet member.

use crate::fitted::FittedTable;
use equinox_isa::lower::InferenceTiming;
use equinox_isa::training::TrainingProfile;
use equinox_isa::EquinoxError;
use equinox_sim::{AcceleratorConfig, FaultScenario, SchedulerPolicy, Simulation};
use std::sync::Arc;

/// How a fleet member evaluates its share of the traffic.
///
/// Large fleet sweeps pay one full discrete-event simulation per
/// device per cell. A device can instead be evaluated by the surrogate
/// walk ([`crate::surrogate`]), which draws each batch's service time,
/// contention stretch, and energy from a [`FittedTable`] at O(1) cost
/// per request — what lets sweeps reach 64–256 devices and 10–100×
/// longer horizons. A table fitted offline against the cycle-accurate
/// engine and clamped into the static envelope of the served program
/// ([`FittedTable::fit`]) is distributionally faithful; the one-point
/// table [`FittedTable::fixed`] at the upper static bound of the served
/// program (`equinox_check::bounds`) charges every batch that bound, so
/// its latencies and its harvest are both conservative.
#[derive(Debug, Clone, PartialEq)]
pub enum Fidelity {
    /// Full discrete-event simulation (the default).
    CycleAccurate,
    /// The surrogate walk: batch service drawn from a quantile table
    /// (shared across devices via `Arc`), every draw clamped inside the
    /// table's static envelope.
    Fitted(Arc<FittedTable>),
}

/// One accelerator in the fleet: its simulator configuration, the
/// compiled timing of the inference workload it serves, an optional
/// co-hosted training service (the device "harvests" free epochs), and
/// an optional device-local fault scenario.
///
/// Fleets may be heterogeneous: members can differ in geometry, clock,
/// scheduler/batching/degradation policies, training co-hosting, and
/// injected faults. The router compares devices in *seconds* of
/// estimated outstanding work, so heterogeneous members are weighed
/// fairly.
#[derive(Debug, Clone)]
pub struct DeviceSpec {
    /// Simulator configuration (name, geometry, clock, policies).
    pub config: AcceleratorConfig,
    /// Compiled timing of the served inference workload.
    pub timing: InferenceTiming,
    /// Co-hosted training service; `None` for an inference-only device.
    pub training: Option<TrainingProfile>,
    /// Device-local fault scenario (baseline = fault-free).
    pub scenario: FaultScenario,
    /// How this device's traffic share is evaluated.
    pub fidelity: Fidelity,
}

impl DeviceSpec {
    /// An inference-only, fault-free, cycle-accurate device.
    pub fn new(config: AcceleratorConfig, timing: InferenceTiming) -> Self {
        DeviceSpec {
            config,
            timing,
            training: None,
            scenario: FaultScenario::baseline(),
            fidelity: Fidelity::CycleAccurate,
        }
    }

    /// Co-hosts a training service on this device.
    #[must_use]
    pub fn with_training(mut self, profile: TrainingProfile) -> Self {
        self.training = Some(profile);
        self
    }

    /// Injects a device-local fault scenario.
    #[must_use]
    pub fn with_scenario(mut self, scenario: FaultScenario) -> Self {
        self.scenario = scenario;
        self
    }

    /// Evaluates this device with the surrogate walk over `table`
    /// instead of the discrete-event engine. The table is `Arc`-shared
    /// so hundreds of devices serving the same model reference one fit;
    /// [`crate::Fleet::new`] validates that the table's batch matches
    /// the device timing and that the nominal service time lies inside
    /// the table's envelope.
    #[must_use]
    pub fn with_fitted(mut self, table: Arc<FittedTable>) -> Self {
        self.fidelity = Fidelity::Fitted(table);
        self
    }

    /// True if this device harvests: it co-hosts training and its
    /// scheduler grants training cycles. Routing and admission shield
    /// these devices, the surrogate credits their harvest, and they
    /// join gradient synchronization.
    pub fn harvests(&self) -> bool {
        self.training.is_some() && !matches!(self.config.scheduler, SchedulerPolicy::InferenceOnly)
    }

    /// Saturation request rate in requests per second: a full batch
    /// every batch-service interval.
    pub fn max_request_rate_per_s(&self) -> f64 {
        self.timing.batch as f64 / self.timing.total_cycles as f64 * self.config.freq_hz
    }

    /// Seconds of service capacity one request consumes at saturation
    /// (the router's unit of outstanding work).
    pub fn work_per_request_s(&self) -> f64 {
        1.0 / self.max_request_rate_per_s()
    }

    /// Batch service time in seconds.
    pub fn service_time_s(&self) -> f64 {
        self.timing.total_cycles as f64 / self.config.freq_hz
    }

    /// Builds the per-device simulation.
    ///
    /// # Errors
    ///
    /// Propagates [`Simulation::new`] validation
    /// ([`EquinoxError::InvalidArgument`] on a degenerate timing).
    pub(crate) fn simulation(&self) -> Result<Simulation, EquinoxError> {
        Simulation::new(self.config.clone(), self.timing, self.training)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::tests::test_device;

    #[test]
    fn rates_are_consistent() {
        let d = test_device("d0", 1e9, false);
        let rate = d.max_request_rate_per_s();
        assert!(rate > 0.0);
        assert!((d.work_per_request_s() * rate - 1.0).abs() < 1e-12);
        // batch requests per service interval.
        assert!(
            (d.service_time_s() * rate - d.timing.batch as f64).abs() < 1e-9,
            "{} vs {}",
            d.service_time_s() * rate,
            d.timing.batch
        );
    }

    #[test]
    fn builders_set_fields() {
        let mut d = test_device("d0", 1e9, true)
            .with_scenario(FaultScenario::named("stall").with_stall(10, 20));
        assert!(d.harvests());
        assert_eq!(d.scenario.name, "stall");
        // A training profile the scheduler never runs harvests nothing.
        d.config.scheduler = SchedulerPolicy::InferenceOnly;
        assert!(!d.harvests());
        assert!(!test_device("d1", 1e9, false).harvests());
    }
}
