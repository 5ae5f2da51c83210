//! The fleet itself: one arrival stream in, one [`FleetReport`] out.
//!
//! A run has three stages. First the front end draws the fleet-wide
//! arrival stream (Poisson or a trace day, reusing `equinox_sim::loadgen`)
//! on the *reference clock* — device 0's — and routes every request in
//! one serial pass (see [`crate::routing`]). Then each device
//! simulates its share of the traffic, concurrently on the
//! `equinox-par` pool, with the `equinox-sim` event engine or the
//! surrogate walk ([`crate::surrogate`]); both record into one
//! `equinox_sim::RunLedger`, so their reports follow the same
//! accounting rules. Timestamps are rescaled to each device's own
//! clock, so heterogeneous-frequency fleets compose. Finally the
//! per-device reports are merged in device index order into a
//! [`FleetReport`] — byte-identical at any thread count. The merge
//! copies no latency sample: the fleet-wide and per-class tails share
//! the devices' sorted runs.

use crate::admission::{AdmissionContext, AdmissionDecision, AdmissionSpec};
use crate::autoscale::{AutoscalePolicy, Autoscaler};
use crate::device::{DeviceSpec, Fidelity};
use crate::report::{free_epochs, DeviceOutcome, FleetReport};
use crate::routing::{Router, RoutingPolicy};
use crate::surrogate;
use crate::sync;
use equinox_arith::rng::SplitMix64;
use equinox_isa::EquinoxError;
use equinox_net::InterconnectSpec;
use equinox_sim::loadgen::{poisson_arrivals, split_seed, trace_arrivals, DiurnalProfile, FlashCrowd};
use equinox_sim::{ClassLedger, LatencyStats, RequestClass, SchedulerPolicy, SimReport, SloSpec};

/// The seed stream of the paid/free class draw (see the crate docs):
/// far above any device stream, so adding devices never collides.
pub(crate) const CLASS_STREAM: u64 = 1 << 32;

/// The seed stream of the interconnect's background-traffic phases
/// (see the crate docs): above even [`CLASS_STREAM`], so attaching an
/// interconnect never perturbs arrivals, routing, or the class draw.
pub(crate) const INTERCONNECT_STREAM: u64 = 1 << 33;

/// Where the fleet's request traffic comes from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalSource {
    /// Homogeneous Poisson traffic at `load ×` the fleet's aggregate
    /// saturation rate.
    Poisson {
        /// Offered load as a fraction of aggregate fleet saturation.
        load: f64,
    },
    /// Trace-scale traffic: the diurnal day composed with a flash-crowd
    /// window and scaled by `rate_scale`
    /// ([`trace_arrivals`]). `rate_scale = x / trace_mean_load(...)`
    /// pins the day's *mean* offered load to exactly `x ×` fleet
    /// saturation, crowd included — the overload regimes of the `serve`
    /// sweep are calibrated this way.
    Trace {
        /// The day's load profile.
        profile: DiurnalProfile,
        /// Multiplier on the composed profile (1.0 = the profile's own
        /// load fractions against fleet saturation).
        rate_scale: f64,
        /// The flash-crowd window multiplying the diurnal rate.
        crowd: FlashCrowd,
    },
}

/// Parameters of one fleet run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetRunOptions {
    /// The traffic source.
    pub source: ArrivalSource,
    /// The routing policy.
    pub policy: RoutingPolicy,
    /// The admission policy evaluated at the router
    /// ([`AdmissionSpec::AdmitAll`] reproduces the pre-admission
    /// behaviour exactly).
    pub admission: AdmissionSpec,
    /// Reactive autoscaling; `None` keeps every device active for the
    /// whole run.
    pub autoscale: Option<AutoscalePolicy>,
    /// Probability that an arrival is paid-tier (class stream
    /// `CLASS_STREAM`); 1.0 makes every request paid. The draw is
    /// independent of arrivals and routing, so changing the mix never
    /// perturbs the offered traffic.
    pub paid_fraction: f64,
    /// Horizon in reference-clock cycles (device 0's clock).
    pub horizon_cycles: u64,
    /// Master seed; every random stream derives from it via
    /// [`split_seed`] (see the crate docs for the stream map).
    pub seed: u64,
    /// Per-request deadline every device is held against, if any.
    pub slo: Option<SloSpec>,
}

/// A set of devices behind one request router, optionally wired
/// together by a packet-level interconnect.
#[derive(Debug, Clone)]
pub struct Fleet {
    devices: Vec<DeviceSpec>,
    interconnect: Option<InterconnectSpec>,
}

impl Fleet {
    /// Builds a fleet.
    ///
    /// # Errors
    ///
    /// [`EquinoxError::InvalidArgument`] if `devices` is empty, and
    /// [`EquinoxError::FaultModel`] if a device scenario carries
    /// traffic bursts — fleet traffic enters only through the router,
    /// so per-device burst injection would bypass the policy under
    /// study (throttles, stalls, and corruption are device-local and
    /// fine).
    pub fn new(devices: Vec<DeviceSpec>) -> Result<Self, EquinoxError> {
        if devices.is_empty() {
            return Err(EquinoxError::invalid_argument(
                "Fleet::new",
                "a fleet needs at least one device",
            ));
        }
        if let Some(d) = devices.iter().find(|d| !d.scenario.bursts.is_empty()) {
            return Err(EquinoxError::fault_model(
                d.scenario.name.clone(),
                "device scenarios must not inject burst traffic; fleet \
                 traffic enters through the router (use a Poisson or \
                 trace source instead)",
            ));
        }
        // Surrogate devices: the table must fit the served program, and
        // the walk models neither faults, software scheduling, nor
        // degradation beyond load shedding — reject combinations whose
        // answer it could not stand behind.
        for d in &devices {
            let Fidelity::Fitted(table) = &d.fidelity else { continue };
            if table.batch != d.timing.batch {
                return Err(EquinoxError::invalid_argument(
                    "Fleet::new",
                    format!(
                        "fitted table '{}' was fitted at batch {} but device \
                         '{}' serves batch {}",
                        table.model, table.batch, d.config.name, d.timing.batch
                    ),
                ));
            }
            if !(table.lower_cycles..=table.upper_cycles).contains(&d.timing.total_cycles) {
                return Err(EquinoxError::invalid_argument(
                    "Fleet::new",
                    format!(
                        "device '{}' nominal service time {} cycles lies outside \
                         fitted table '{}' envelope [{}, {}]",
                        d.config.name,
                        d.timing.total_cycles,
                        table.model,
                        table.lower_cycles,
                        table.upper_cycles
                    ),
                ));
            }
            if !d.scenario.is_fault_free() {
                return Err(EquinoxError::fault_model(
                    d.scenario.name.clone(),
                    "the surrogate cannot model injected faults; use \
                     cycle-accurate fidelity for faulted devices",
                ));
            }
            let deg = &d.config.degradation;
            let shed_only = deg.preempt_training_above.is_none()
                && deg.shrink_batch_above.is_none()
                && deg.retry.max_attempts == 0;
            if matches!(d.config.scheduler, SchedulerPolicy::Software { .. }) || !shed_only {
                return Err(EquinoxError::invalid_argument(
                    "Fleet::new",
                    "the surrogate models only the hardware schedulers and, of \
                     the degradation levers, only load shedding; use \
                     cycle-accurate fidelity",
                ));
            }
        }
        Ok(Fleet { devices, interconnect: None })
    }

    /// Attaches a packet-level interconnect: every free epoch then
    /// pays for one gradient all-reduce round over the harvesting
    /// devices, and the report gains a [`crate::sync::SyncReport`].
    ///
    /// # Errors
    ///
    /// [`EquinoxError::InvalidArgument`] when `spec` fails
    /// [`InterconnectSpec::validate`] against this fleet's size.
    pub fn with_interconnect(mut self, spec: InterconnectSpec) -> Result<Self, EquinoxError> {
        spec.validate(self.devices.len())?;
        self.interconnect = Some(spec);
        Ok(self)
    }

    /// The attached interconnect, if any.
    pub fn interconnect(&self) -> Option<&InterconnectSpec> {
        self.interconnect.as_ref()
    }

    /// The device specifications, in index order.
    pub fn devices(&self) -> &[DeviceSpec] {
        &self.devices
    }

    /// Aggregate saturation request rate of the fleet, requests/s.
    pub fn max_request_rate_per_s(&self) -> f64 {
        self.devices.iter().map(DeviceSpec::max_request_rate_per_s).sum()
    }

    /// The reference clock (device 0's), Hz.
    pub fn reference_freq_hz(&self) -> f64 {
        self.devices[0].config.freq_hz
    }

    /// Runs the fleet (see the module docs for the three stages).
    ///
    /// # Errors
    ///
    /// [`EquinoxError::InvalidArgument`] for a `paid_fraction` outside
    /// `[0, 1]` or degenerate admission/autoscale parameters;
    /// otherwise propagates load-generation and per-device simulation
    /// errors ([`EquinoxError::InvalidArgument`],
    /// [`EquinoxError::FaultModel`]); the first failing device (by
    /// index) wins, deterministically.
    pub fn run(&self, opts: &FleetRunOptions) -> Result<FleetReport, EquinoxError> {
        if !opts.paid_fraction.is_finite() || !(0.0..=1.0).contains(&opts.paid_fraction) {
            return Err(EquinoxError::invalid_argument(
                "Fleet::run",
                format!("paid_fraction must be in [0, 1], got {}", opts.paid_fraction),
            ));
        }
        opts.admission.validate()?;
        if let Some(p) = &opts.autoscale {
            p.validate(self.devices.len())?;
        }
        let freq_ref = self.reference_freq_hz();
        let fleet_rate_per_cycle = self.max_request_rate_per_s() / freq_ref;
        let arrival_seed = split_seed(opts.seed, 0);
        let arrivals = match opts.source {
            ArrivalSource::Poisson { load } => {
                let rate = equinox_sim::loadgen::rate_for_load(load, fleet_rate_per_cycle)?;
                poisson_arrivals(rate, opts.horizon_cycles, arrival_seed)?
            }
            ArrivalSource::Trace { profile, rate_scale, crowd } => trace_arrivals(
                &profile,
                &[crowd],
                rate_scale,
                fleet_rate_per_cycle,
                opts.horizon_cycles,
                arrival_seed,
            )?,
        };

        // Stage 1: the serial front-end pass. Per arrival: draw the
        // class, let the autoscaler adjust the active set, let the
        // routing policy pick a candidate among the active devices,
        // then let the admission policy admit / redirect / shed. Only
        // admitted requests charge the router and reach a device;
        // binning is on each device's own clock (both maps are
        // monotone, so per-device streams stay sorted and inside the
        // device's horizon).
        let mut router = Router::new(&self.devices, opts.policy, split_seed(opts.seed, 1));
        let mut admission = opts.admission.build(&self.devices);
        let mut scaler = opts.autoscale.map(|p| Autoscaler::new(p, self.devices.len()));
        let mut class_rng = SplitMix64::seed_from_u64(split_seed(opts.seed, CLASS_STREAM));
        let all: Vec<usize> = (0..self.devices.len()).collect();
        let deadline_s = opts.slo.map(|s| s.deadline_s);
        let mut per_device: Vec<DeviceShare> = vec![(Vec::new(), Vec::new()); self.devices.len()];
        let mut offered_by_class = [0usize; 2];
        let mut shed_by_class = [0usize; 2];
        for &t in &arrivals {
            let t_s = t as f64 / freq_ref;
            let class = if class_rng.next_f64() < opts.paid_fraction {
                RequestClass::Paid
            } else {
                RequestClass::Free
            };
            offered_by_class[class.index()] += 1;
            router.decay_to(t_s);
            if let Some(s) = scaler.as_mut() {
                s.step(t_s, router.backlogs(), &self.devices);
            }
            let active: &[usize] = scaler.as_ref().map_or(&all, |s| s.active_list());
            let candidate = router.pick(active);
            let decision = admission.decide(&AdmissionContext {
                t_s,
                class,
                candidate,
                backlog_s: router.backlogs(),
                devices: &self.devices,
                active,
                deadline_s,
            });
            let d = match decision {
                AdmissionDecision::Admit => candidate,
                AdmissionDecision::AdmitOn(d) => d,
                AdmissionDecision::Shed => {
                    shed_by_class[class.index()] += 1;
                    continue;
                }
            };
            router.charge(d);
            let scale = self.devices[d].config.freq_hz / freq_ref;
            let t_local = if scale == 1.0 { t } else { (t as f64 * scale) as u64 };
            per_device[d].0.push(t_local);
            per_device[d].1.push(class);
        }

        // Stage 2: per-device simulations, concurrent and index-merged.
        // Surrogate devices attribute every request's fate to its class;
        // cycle-accurate devices only report aggregates, so their
        // admitted requests land in `unattributed_requests`.
        let assigned: Vec<usize> = per_device.iter().map(|(a, _)| a.len()).collect();
        let work: Vec<(usize, DeviceShare)> = per_device.into_iter().enumerate().collect();
        let results: Vec<Result<DeviceResult, EquinoxError>> =
            equinox_par::parallel_map(work, |(i, (device_arrivals, classes))| {
                let spec = &self.devices[i];
                let scale = spec.config.freq_hz / freq_ref;
                let horizon = if scale == 1.0 {
                    opts.horizon_cycles
                } else {
                    (opts.horizon_cycles as f64 * scale).ceil() as u64
                };
                match &spec.fidelity {
                    Fidelity::CycleAccurate => {
                        let report = spec.simulation()?.run_faulted(
                            &device_arrivals,
                            horizon,
                            &spec.scenario,
                            opts.slo,
                        )?;
                        Ok((report, unattributed_ledgers(&classes), 0.0))
                    }
                    Fidelity::Fitted(table) => {
                        // Stream `2 + i` is free for the per-batch
                        // draws: fitted devices are fault-free, so no
                        // burst traffic ever uses it (see crate docs).
                        let run = surrogate::run(
                            spec,
                            table,
                            &device_arrivals,
                            &classes,
                            horizon,
                            opts.slo,
                            split_seed(opts.seed, 2 + i as u64),
                        );
                        Ok((run.report, run.ledgers, run.energy_j))
                    }
                }
            });

        // Stage 3: merge in device-index order; the front-end edge
        // ledger (offered and admission-shed counts) joins the
        // per-device attribution ledgers. The merged latency tails share
        // the devices' sorted runs rather than copying them, so this
        // stage's cost grows with the device count, not the request
        // count: their quantiles select across the runs, and the
        // interconnect's deadline recount takes partition points in
        // them.
        let mut devices = Vec::with_capacity(self.devices.len());
        let mut device_ledgers: Vec<[ClassLedger; 2]> = Vec::with_capacity(self.devices.len());
        for ((spec, result), assigned) in self.devices.iter().zip(results).zip(assigned) {
            let (report, ledgers, inference_energy_j) = result?;
            device_ledgers.push(ledgers);
            devices.push(DeviceOutcome {
                name: spec.config.name.clone(),
                assigned_requests: assigned,
                free_epochs: free_epochs(&report, spec.training.as_ref()),
                inference_energy_j,
                report,
            });
        }
        let mut class_ledgers: Vec<ClassLedger> = RequestClass::ALL
            .iter()
            .map(|&class| {
                let mut edge = ClassLedger::empty(class);
                edge.offered_requests = offered_by_class[class.index()];
                edge.shed_requests = shed_by_class[class.index()];
                ClassLedger::merged(
                    class,
                    std::iter::once(&edge)
                        .chain(device_ledgers.iter().map(|l| &l[class.index()])),
                )
            })
            .collect();
        let sync = self
            .interconnect
            .as_ref()
            .map(|spec| {
                sync::evaluate_sync(
                    spec,
                    &self.devices,
                    &devices,
                    &mut class_ledgers,
                    opts,
                    freq_ref,
                )
            })
            .transpose()?;
        Ok(FleetReport {
            policy: opts.policy.name(),
            admission: opts.admission.name(),
            horizon_cycles: opts.horizon_cycles,
            freq_hz: freq_ref,
            offered_requests: arrivals.len(),
            admission_shed_requests: shed_by_class[0] + shed_by_class[1],
            latency: LatencyStats::merged(devices.iter().map(|d| &d.report.latency)),
            class_ledgers,
            scaling_spans: scaler.map(Autoscaler::into_spans).unwrap_or_default(),
            sync,
            devices,
        })
    }
}

/// One device's routed traffic: local-clock arrivals and, in step,
/// each request's priority class.
type DeviceShare = (Vec<u64>, Vec<RequestClass>);

/// One device's evaluation: the engine-shaped report, its per-class
/// attribution ledgers, and the inference energy (fitted devices only).
type DeviceResult = (SimReport, [ClassLedger; 2], f64);

/// The class ledgers of a device that reports only aggregates: every
/// admitted request is counted as unattributed instead of guessed.
fn unattributed_ledgers(classes: &[RequestClass]) -> [ClassLedger; 2] {
    let mut ledgers = RequestClass::ALL.map(ClassLedger::empty);
    for &c in classes {
        ledgers[c.index()].unattributed_requests += 1;
    }
    ledgers
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use equinox_arith::Encoding;
    use equinox_isa::lower::InferenceTiming;
    use equinox_isa::training::TrainingProfile;
    use equinox_isa::ArrayDims;
    use equinox_sim::{AcceleratorConfig, FaultScenario};

    /// A small synthetic device: 16-request batches served in 16 µs at
    /// `freq_hz` = 1 GHz (saturation 1 M req/s), optionally co-hosting
    /// a training service whose DRAM appetite stays comfortably inside
    /// the default staging bandwidth.
    pub(crate) fn test_device(name: &str, freq_hz: f64, harvests: bool) -> DeviceSpec {
        let dims = ArrayDims { n: 16, w: 4, m: 4 };
        let config = AcceleratorConfig::new(name, dims, freq_hz, Encoding::Hbfp8);
        let timing = InferenceTiming {
            total_cycles: 16_000,
            mmu_busy_cycles: 12_000,
            mmu_utilization: 0.85,
            stall_cycles: 1_000,
            simd_busy_cycles: 2_000,
            total_macs: 32_000_000,
            macs_per_request: 2_000_000,
            batch: 16,
        };
        let spec = DeviceSpec::new(config, timing);
        if harvests {
            spec.with_training(TrainingProfile {
                iteration_macs: 1_000_000_000,
                iteration_mmu_cycles: 40_000,
                iteration_dram_bytes: 4_000_000,
                iteration_simd_cycles: 4_000,
                batch: 128,
            })
        } else {
            spec
        }
    }

    fn mixed_fleet(n: usize, harvesting: usize) -> Fleet {
        let devices = (0..n)
            .map(|i| test_device(&format!("dev{i}"), 1e9, i >= n - harvesting))
            .collect();
        Fleet::new(devices).unwrap()
    }

    fn opts(policy: RoutingPolicy, load: f64, intervals: u64) -> FleetRunOptions {
        FleetRunOptions {
            source: ArrivalSource::Poisson { load },
            policy,
            admission: AdmissionSpec::AdmitAll,
            autoscale: None,
            paid_fraction: 1.0,
            horizon_cycles: intervals * 16_000,
            seed: 42,
            slo: Some(SloSpec::new(16.0 * 16_000.0 / 1e9).unwrap()),
        }
    }

    #[test]
    fn rejects_empty_fleets_and_burst_scenarios() {
        assert_eq!(Fleet::new(Vec::new()).unwrap_err().kind(), "invalid-argument");
        let bursty = test_device("d0", 1e9, false)
            .with_scenario(FaultScenario::named("burst").with_burst(10, 20, 4.0));
        assert_eq!(Fleet::new(vec![bursty]).unwrap_err().kind(), "fault-model");
    }

    #[test]
    fn single_device_fleet_matches_the_direct_simulation() {
        let fleet = mixed_fleet(1, 0);
        let o = opts(RoutingPolicy::RoundRobin, 0.5, 400);
        let fr = fleet.run(&o).unwrap();
        // Reconstruct the same arrival stream and run the device alone.
        let rate = equinox_sim::loadgen::rate_for_load(
            0.5,
            fleet.devices()[0].max_request_rate_per_s() / 1e9,
        )
        .unwrap();
        let arrivals =
            poisson_arrivals(rate, o.horizon_cycles, split_seed(o.seed, 0)).unwrap();
        let direct = fleet.devices()[0]
            .simulation()
            .unwrap()
            .run_faulted(&arrivals, o.horizon_cycles, &FaultScenario::baseline(), o.slo)
            .unwrap();
        assert_eq!(fr.offered_requests, arrivals.len());
        assert_eq!(fr.devices[0].assigned_requests, arrivals.len());
        assert_eq!(fr.completed_requests(), direct.completed_requests);
        assert_eq!(fr.inference_throughput_ops(), direct.inference_throughput_ops);
        assert_eq!(fr.p99_ms(), direct.p99_ms());
    }

    #[test]
    fn every_offered_request_is_assigned_exactly_once() {
        for policy in RoutingPolicy::all_default() {
            let fleet = mixed_fleet(4, 2);
            let fr = fleet.run(&opts(policy, 0.6, 300)).unwrap();
            let assigned: usize = fr.devices.iter().map(|d| d.assigned_requests).sum();
            assert_eq!(assigned, fr.offered_requests, "{}", policy.name());
            assert!(fr.completed_requests() > 0, "{}", policy.name());
        }
    }

    #[test]
    fn fixed_table_devices_compose_with_cycle_accurate_ones() {
        // Device 1 runs the surrogate walk over a one-point table at the
        // nominal service time: the fleet must run, conserve requests,
        // and give the surrogate device latencies in the same range as
        // its cycle-accurate twin.
        let devices = vec![test_device("d0", 1e9, false), surrogate_device("d1", false)];
        let fleet = Fleet::new(devices).unwrap();
        let fr = fleet.run(&opts(RoutingPolicy::RoundRobin, 0.5, 400)).unwrap();
        let assigned: usize = fr.devices.iter().map(|d| d.assigned_requests).sum();
        assert_eq!(assigned, fr.offered_requests);
        assert!(fr.devices[1].report.completed_requests > 0);
        let p99_accurate = fr.devices[0].report.p99_ms();
        let p99_surrogate = fr.devices[1].report.p99_ms();
        assert!(
            (p99_surrogate - p99_accurate).abs() < 0.5 * p99_accurate,
            "surrogate p99 {p99_surrogate} ms vs engine {p99_accurate} ms"
        );
        assert!(fr.slo_clean(), "{fr}");
    }

    #[test]
    fn surrogate_devices_reject_unmodellable_configurations() {
        let base = || surrogate_device("d0", false);
        // Faulted surrogate devices.
        let bad = base().with_scenario(FaultScenario::named("stall").with_stall(10, 20));
        assert_eq!(Fleet::new(vec![bad]).unwrap_err().kind(), "fault-model");
        // Software scheduling under the surrogate.
        let mut bad = base();
        bad.config.scheduler =
            equinox_sim::SchedulerPolicy::Software { block_cycles: 1_000 };
        assert_eq!(Fleet::new(vec![bad]).unwrap_err().kind(), "invalid-argument");
        // The same configurations are fine at cycle-accurate fidelity.
        let ok = test_device("d0", 1e9, false)
            .with_scenario(FaultScenario::named("stall").with_stall(10, 20));
        assert!(Fleet::new(vec![ok]).is_ok());
    }

    #[test]
    fn reports_are_deterministic() {
        let fleet = mixed_fleet(3, 1);
        let o = opts(RoutingPolicy::PowerOfTwo, 0.5, 300);
        let a = fleet.run(&o).unwrap().to_string();
        let b = fleet.run(&o).unwrap().to_string();
        assert!(!a.is_empty());
        assert_eq!(a, b);
    }

    #[test]
    fn heterogeneous_clocks_compose() {
        let devices = vec![
            test_device("slow", 1e9, false),
            test_device("fast", 2e9, true),
        ];
        let fleet = Fleet::new(devices).unwrap();
        let fr = fleet.run(&opts(RoutingPolicy::LeastOutstanding, 0.7, 400)).unwrap();
        let assigned: usize = fr.devices.iter().map(|d| d.assigned_requests).sum();
        assert_eq!(assigned, fr.offered_requests);
        // The 2 GHz device serves each request in half the time, so
        // least-outstanding work sends it clearly more traffic.
        assert!(
            fr.devices[1].assigned_requests > fr.devices[0].assigned_requests,
            "fast {} vs slow {}",
            fr.devices[1].assigned_requests,
            fr.devices[0].assigned_requests
        );
        assert!(fr.completed_requests() > 0);
    }

    #[test]
    fn training_aware_routing_shields_harvesting_devices() {
        let fleet = mixed_fleet(4, 2);
        let rr = fleet.run(&opts(RoutingPolicy::RoundRobin, 0.6, 400)).unwrap();
        let ta = fleet
            .run(&opts(RoutingPolicy::training_aware_default(), 0.6, 400))
            .unwrap();
        let harvesting_share = |fr: &FleetReport| -> usize {
            fr.devices[2].assigned_requests + fr.devices[3].assigned_requests
        };
        assert!(
            harvesting_share(&ta) < harvesting_share(&rr) / 2,
            "training-aware must steer load off the harvesting devices: \
             {} vs {}",
            harvesting_share(&ta),
            harvesting_share(&rr)
        );
        assert!(
            ta.free_epochs() > rr.free_epochs(),
            "shielded devices must harvest more: {} vs {}",
            ta.free_epochs(),
            rr.free_epochs()
        );
        assert!(ta.slo_clean(), "steering must not violate the SLO: {ta}");
    }

    #[test]
    fn an_interconnect_prices_the_harvest_and_stays_deterministic() {
        let fleet = mixed_fleet(4, 2)
            .with_interconnect(InterconnectSpec::datacenter(1 << 20, 65_536))
            .unwrap();
        let o = opts(RoutingPolicy::training_aware_default(), 0.5, 400);
        let fr = fleet.run(&o).unwrap();
        let s = fr.sync.as_ref().expect("sync report present");
        assert_eq!(s.participants, 2);
        assert!(s.round_cycles > 0);
        assert!(s.raw_free_epochs > 0.0, "{s}");
        assert!(
            s.synced_free_epochs > 0.0 && s.synced_free_epochs < s.raw_free_epochs,
            "synchronization must cost something but not everything: {s}"
        );
        assert!((fr.synced_free_epochs() - s.synced_free_epochs).abs() < 1e-12);
        // one_big_switch over 4 devices: 8 host links reported.
        assert_eq!(s.link_utilization.len(), 8);
        assert!(s.peak_link_utilization > 0.0);
        // Determinism of the rendered report (includes the sync line).
        assert_eq!(fleet.run(&o).unwrap().to_string(), fr.to_string());
        // Without an interconnect, synced falls back to raw.
        let bare = mixed_fleet(4, 2).run(&o).unwrap();
        assert!(bare.sync.is_none());
        assert_eq!(bare.synced_free_epochs(), bare.free_epochs());
        assert_eq!(bare.sync_deadline_misses(), 0);
    }

    #[test]
    fn a_lone_trainer_syncs_for_free_and_bad_specs_reject() {
        let mut spec = InterconnectSpec::datacenter(1 << 20, 65_536);
        let fleet = mixed_fleet(3, 1).with_interconnect(spec.clone()).unwrap();
        let fr = fleet.run(&opts(RoutingPolicy::RoundRobin, 0.4, 300)).unwrap();
        let s = fr.sync.as_ref().unwrap();
        assert_eq!(s.participants, 1);
        assert_eq!(s.round_cycles, 0, "a lone trainer never crosses the fabric");
        assert!((s.synced_free_epochs - s.raw_free_epochs).abs() < 1e-12);
        assert_eq!(s.sync_delay_s, 0.0);
        spec.gradient_bytes = 0;
        assert_eq!(
            mixed_fleet(3, 1).with_interconnect(spec).unwrap_err().kind(),
            "invalid-argument"
        );
    }

    /// A surrogate twin of [`test_device`]: a one-point table at the
    /// nominal service time, so the walk serves the engine's queue.
    fn surrogate_device(name: &str, harvests: bool) -> DeviceSpec {
        let d = test_device(name, 1e9, harvests);
        let exact = d.timing.total_cycles;
        let table = crate::fitted::FittedTable::fixed("test", d.timing.batch, exact).unwrap();
        d.with_fitted(std::sync::Arc::new(table))
    }

    /// A fitted table fitting [`test_device`]'s timing: a ±25 %
    /// envelope around the nominal service time, mild depth-dependent
    /// stretch, 1 mJ..2 mJ energy.
    fn test_fitted_table() -> std::sync::Arc<crate::fitted::FittedTable> {
        let nominal = 16_000u64;
        let (lower, upper) = (nominal - nominal / 4, nominal + nominal / 4);
        let samples: Vec<equinox_sim::BatchSample> = (0..400)
            .map(|i| {
                let depth = (i % 5) * 16;
                let occ = lower as f64 + ((i * 37) % (upper - lower) as usize) as f64;
                let stretch = 1.0 + 0.5 * (depth as f64 / 64.0).min(1.0);
                equinox_sim::BatchSample {
                    queue_depth: depth,
                    real: 16,
                    start_cycle: 0.0,
                    end_cycle: occ * stretch,
                    occupancy_cycles: occ,
                }
            })
            .collect();
        std::sync::Arc::new(
            crate::fitted::FittedTable::fit(
                "test", 16, lower, upper, 1e-3, 2e-3, vec![16, 48], &samples,
            )
            .unwrap(),
        )
    }

    #[test]
    fn fitted_devices_compose_and_fill_the_harvest_ledgers() {
        let table = test_fitted_table();
        let devices = vec![
            test_device("d0", 1e9, true).with_fitted(table.clone()),
            test_device("d1", 1e9, false).with_fitted(table),
        ];
        let fleet = Fleet::new(devices).unwrap();
        let o = opts(RoutingPolicy::RoundRobin, 0.5, 400);
        let fr = fleet.run(&o).unwrap();
        let assigned: usize = fr.devices.iter().map(|d| d.assigned_requests).sum();
        assert_eq!(assigned, fr.offered_requests);
        assert!(fr.completed_requests() > 0);
        // The fitted tier prices energy; both devices served traffic.
        assert!(fr.devices[0].inference_energy_j > 0.0);
        assert!(fr.devices[1].inference_energy_j > 0.0);
        assert!(fr.inference_energy_j() > 0.0);
        // The harvesting device harvests (co-run + idle credit) and its
        // paid traffic is charged the epochs it displaced; the
        // inference-only device displaces nothing.
        assert!(fr.devices[0].free_epochs > 0.0);
        assert_eq!(fr.devices[1].free_epochs, 0.0);
        let paid = fr.class_ledger(RequestClass::Paid);
        assert!(paid.displaced_epochs > 0.0, "paid traffic on a harvesting device");
        assert_eq!(fr.class_ledger(RequestClass::Free).displaced_epochs, 0.0);
        // Displacement is bounded by what full occupancy of the horizon
        // could have harvested.
        assert!(paid.displaced_epochs < fr.devices[0].free_epochs + paid.displaced_epochs + 1.0);
        // Determinism: same options, same rendered report.
        assert_eq!(fleet.run(&o).unwrap().to_string(), fr.to_string());
    }

    #[test]
    fn fitted_validation_rejects_mismatched_tables() {
        let table = test_fitted_table();
        // Happy path first.
        assert!(Fleet::new(vec![test_device("d0", 1e9, false).with_fitted(table.clone())]).is_ok());
        // Batch mismatch.
        let wrong_batch = std::sync::Arc::new(
            crate::fitted::FittedTable::fit("m", 8, 12_000, 20_000, 0.0, 1.0, vec![], &[])
                .unwrap(),
        );
        let bad = test_device("d0", 1e9, false).with_fitted(wrong_batch);
        assert_eq!(Fleet::new(vec![bad]).unwrap_err().kind(), "invalid-argument");
        // Nominal service time outside the table's envelope.
        let narrow = std::sync::Arc::new(
            crate::fitted::FittedTable::fit("m", 16, 1_000, 2_000, 0.0, 1.0, vec![], &[])
                .unwrap(),
        );
        let bad = test_device("d0", 1e9, false).with_fitted(narrow);
        assert_eq!(Fleet::new(vec![bad]).unwrap_err().kind(), "invalid-argument");
        // Faults and non-shed degradation reject.
        let bad = test_device("d0", 1e9, false)
            .with_fitted(table.clone())
            .with_scenario(FaultScenario::named("stall").with_stall(10, 20));
        assert_eq!(Fleet::new(vec![bad]).unwrap_err().kind(), "fault-model");
        let mut bad = test_device("d0", 1e9, false).with_fitted(table);
        bad.config.degradation.preempt_training_above = Some(64);
        assert_eq!(Fleet::new(vec![bad]).unwrap_err().kind(), "invalid-argument");
    }

    #[test]
    fn admit_all_defaults_change_nothing_and_fill_the_paid_ledger() {
        let fleet = mixed_fleet(2, 0);
        let fr = fleet.run(&opts(RoutingPolicy::RoundRobin, 0.5, 300)).unwrap();
        assert_eq!(fr.admission, "admit_all");
        assert_eq!(fr.admission_shed_requests, 0);
        assert_eq!(fr.admitted_requests(), fr.offered_requests);
        assert!(fr.scaling_spans.is_empty());
        let paid = fr.class_ledger(RequestClass::Paid);
        let free = fr.class_ledger(RequestClass::Free);
        assert_eq!(paid.offered_requests, fr.offered_requests, "paid_fraction 1.0");
        assert_eq!(free.offered_requests, 0);
        // Cycle-accurate devices cannot attribute completions.
        assert_eq!(paid.unattributed_requests, fr.offered_requests);
    }

    #[test]
    fn run_validates_serving_options() {
        let fleet = mixed_fleet(2, 0);
        let mut o = opts(RoutingPolicy::RoundRobin, 0.5, 50);
        o.paid_fraction = 1.5;
        assert_eq!(fleet.run(&o).unwrap_err().kind(), "invalid-argument");
        let mut o = opts(RoutingPolicy::RoundRobin, 0.5, 50);
        o.admission = AdmissionSpec::TokenBucket { rate_x: 0.0, burst_batches: 4.0 };
        assert_eq!(fleet.run(&o).unwrap_err().kind(), "invalid-argument");
        let mut o = opts(RoutingPolicy::RoundRobin, 0.5, 50);
        o.autoscale = Some(AutoscalePolicy {
            min_devices: 3, // > fleet size
            initial_devices: 3,
            up_backlog_batches: 2.0,
            down_backlog_batches: 0.5,
            sustain_s: 1e-4,
            drain_grace_s: 1e-4,
        });
        assert_eq!(fleet.run(&o).unwrap_err().kind(), "invalid-argument");
    }

    #[test]
    fn surrogates_accept_shed_only_degradation() {
        // Shed-only degradation on a surrogate device is modelled
        // honestly (satellite of the serving-layer PR); any other
        // lever still rejects.
        let mut ok = surrogate_device("d0", false);
        ok.config.degradation.shed_above = Some(64);
        assert!(Fleet::new(vec![ok]).is_ok());
        let mut bad = surrogate_device("d0", false);
        bad.config.degradation.preempt_training_above = Some(64);
        assert_eq!(Fleet::new(vec![bad]).unwrap_err().kind(), "invalid-argument");
    }

    #[test]
    fn token_bucket_bounds_overload_and_conserves_requests() {
        let devices =
            vec![surrogate_device("d0", false), surrogate_device("d1", false)];
        let fleet = Fleet::new(devices).unwrap();
        let mut o = opts(RoutingPolicy::LeastOutstanding, 1.5, 600);
        o.admission = AdmissionSpec::token_bucket_default();
        let fr = fleet.run(&o).unwrap();
        assert!(fr.admission_shed_requests > 0, "1.5× overload must shed at the edge");
        let assigned: usize = fr.devices.iter().map(|d| d.assigned_requests).sum();
        assert_eq!(assigned + fr.admission_shed_requests, fr.offered_requests);
        // Zero in-flight loss: every admitted request is completed,
        // device-shed, or still queued at the horizon.
        for d in &fr.devices {
            let slo = d.report.slo.as_ref().unwrap();
            assert_eq!(
                d.report.completed_requests as usize
                    + d.report.shed_requests as usize
                    + slo.final_queue_depth,
                d.assigned_requests,
                "{}",
                d.name
            );
        }
        // The admitted stream is capped near 95 % of capacity, so the
        // queues stay bounded where admit-all would grow without bound.
        let admit_all = fleet.run(&opts(RoutingPolicy::LeastOutstanding, 1.5, 600)).unwrap();
        let final_queue = |fr: &FleetReport| -> usize {
            fr.devices
                .iter()
                .map(|d| d.report.slo.as_ref().unwrap().final_queue_depth)
                .sum()
        };
        assert!(
            final_queue(&fr) < final_queue(&admit_all) / 4,
            "token bucket {} vs admit-all {}",
            final_queue(&fr),
            final_queue(&admit_all)
        );
    }

    #[test]
    fn priority_admission_sheds_free_before_paid() {
        let devices = vec![
            surrogate_device("d0", false),
            surrogate_device("d1", false),
            surrogate_device("d2", true),
            surrogate_device("d3", true),
        ];
        let fleet = Fleet::new(devices).unwrap();
        let mut o = opts(RoutingPolicy::training_aware_default(), 1.3, 600);
        o.admission = AdmissionSpec::priority_default();
        o.paid_fraction = 0.6;
        let fr = fleet.run(&o).unwrap();
        let paid = fr.class_ledger(RequestClass::Paid);
        let free = fr.class_ledger(RequestClass::Free);
        assert!(paid.offered_requests > 0 && free.offered_requests > 0);
        assert!(free.shed_requests > 0, "overload must shed the free tier");
        assert!(
            free.shed_rate() > 4.0 * paid.shed_rate(),
            "free shed rate {:.3} must dominate paid {:.3}",
            free.shed_rate(),
            paid.shed_rate()
        );
        // Attributed paid completions exist and carry a latency tail.
        assert!(paid.completed_requests > 0);
        assert!(paid.p999_s() > 0.0);
        // Class-ledger sanity: attributed fates never exceed what was
        // offered (completions inside the warmup window are measured
        // nowhere, so the identity is an inequality, not an equality).
        for l in [paid, free] {
            assert!(
                l.shed_requests + l.completed_requests + l.unattributed_requests
                    <= l.offered_requests,
                "{} ledger overflows its offered count",
                l.class.name()
            );
        }
    }

    #[test]
    fn trace_source_with_autoscale_joins_drains_and_loses_nothing() {
        let devices = vec![
            surrogate_device("d0", false),
            surrogate_device("d1", false),
            surrogate_device("d2", true),
        ];
        let fleet = Fleet::new(devices).unwrap();
        let horizon_s = 4_000.0 * 16_000.0 / 1e9;
        let o = FleetRunOptions {
            source: ArrivalSource::Trace {
                profile: DiurnalProfile { trough: 0.10, peak: 0.55 },
                rate_scale: 1.0,
                crowd: FlashCrowd { start_frac: 0.55, duration_frac: 0.1, multiplier: 3.0 },
            },
            policy: RoutingPolicy::LeastOutstanding,
            admission: AdmissionSpec::AdmitAll,
            autoscale: Some(AutoscalePolicy {
                min_devices: 1,
                initial_devices: 1,
                up_backlog_batches: 1.0,
                down_backlog_batches: 0.125,
                sustain_s: horizon_s / 200.0,
                drain_grace_s: horizon_s / 100.0,
            }),
            paid_fraction: 0.8,
            horizon_cycles: 4_000 * 16_000,
            seed: 42,
            slo: Some(SloSpec::new(16.0 * 16_000.0 / 1e9).unwrap()),
        };
        let fr = fleet.run(&o).unwrap();
        let joins =
            fr.scaling_spans.iter().filter(|s| s.kind == crate::autoscale::ScalingKind::Join);
        let drains =
            fr.scaling_spans.iter().filter(|s| s.kind == crate::autoscale::ScalingKind::Drain);
        assert!(joins.count() >= 1, "the midday crowd must trigger a join: {fr}");
        assert!(drains.count() >= 1, "the night trough must trigger a drain: {fr}");
        assert!(
            fr.scaling_spans.windows(2).all(|w| w[0].t_s <= w[1].t_s),
            "spans are in time order"
        );
        // Drain-never-drop: every admitted request is accounted for on
        // its device — completed, device-shed, or queued at horizon.
        let assigned: usize = fr.devices.iter().map(|d| d.assigned_requests).sum();
        assert_eq!(assigned + fr.admission_shed_requests, fr.offered_requests);
        for d in &fr.devices {
            let slo = d.report.slo.as_ref().unwrap();
            assert_eq!(
                d.report.completed_requests as usize
                    + d.report.shed_requests as usize
                    + slo.final_queue_depth,
                d.assigned_requests,
                "in-flight loss on {}",
                d.name
            );
        }
        // Determinism: the exact same options reproduce the report.
        assert_eq!(fleet.run(&o).unwrap().to_string(), fr.to_string());
    }
}

