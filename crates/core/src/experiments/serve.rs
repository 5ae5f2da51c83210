//! Extension: production serving sweep — admission policy × overload
//! regime on a trace-scale fleet, plus fault and autoscale scenarios.
//!
//! The fleet sweep (`fleet.rs`) asks what the *routing* tier is worth;
//! this sweep asks what the *admission* tier is worth when the fleet is
//! genuinely overloaded. An eight-device fleet (half co-hosting
//! training) serves a full simulated day of trace-scale traffic — a
//! diurnal profile composed with a midday flash crowd, mean offered
//! load pinned at 80 %, 100 %, and 120 % of aggregate saturation — and
//! every [`AdmissionSpec`] policy is held against the same per-request
//! deadline with a 60/40 paid/free tier mix. Two scenario cells ride
//! along: the 120 % overload with a DRAM-throttle fault on one
//! (cycle-accurate) device, and a reactive-autoscaling day that must
//! join on the crowd and drain on the trough without losing a single
//! in-flight request.
//!
//! Devices are evaluated by the surrogate walk over a one-point
//! [`FittedTable::fixed`] table at the nominal service time (so service
//! times match the engine), which attributes every request's fate to
//! its tier; the full day at `Full` scale offers over a million
//! requests per overload cell while the sweep stays minutes-cheap. The
//! gate the CI smoke holds: at 120 % offered load (with and without the
//! fault) the priority policy keeps the paid tier's p999 inside the
//! deadline with zero paid deadline misses while admit-all blows
//! through it, free traffic is shed ahead of paid, the autoscaler both
//! joins and drains, and the serving-layer lints (`EQX07xx`) are clean
//! on the swept parameters.

use crate::experiments::fitted::FittedCalibration;
use crate::experiments::ExperimentScale;
use equinox_arith::json::Json;
use equinox_arith::Encoding;
use equinox_check::{analyze_serving, ServingParams};
use equinox_fleet::{
    AdmissionSpec, ArrivalSource, AutoscalePolicy, DeviceSpec, FittedTable, Fleet, FleetReport,
    FleetRunOptions, RoutingPolicy, ScalingKind,
};
use equinox_isa::lower::InferenceTiming;
use equinox_isa::training::TrainingProfile;
use equinox_isa::ArrayDims;
use equinox_sim::loadgen::{trace_mean_load, DiurnalProfile, FlashCrowd};
use equinox_sim::{AcceleratorConfig, FaultScenario, RequestClass, SloSpec};
use std::sync::Arc;

/// Devices in the serving fleet (the second half co-hosts training).
pub const FLEET_SIZE: usize = 8;

/// Mean offered loads swept (fractions of aggregate fleet saturation,
/// crowd included): below, at, and 20 % past saturation.
pub const LOADS: [f64; 3] = [0.8, 1.0, 1.2];

/// The overload operating point the headline gates are held at.
pub const OVERLOAD: f64 = 1.2;

/// Probability that an arrival is paid-tier.
pub const PAID_FRACTION: f64 = 0.6;

/// Per-request deadline as a multiple of the batch service time
/// (matches the fleet sweep so SLO numbers are comparable).
const DEADLINE_X: f64 = 16.0;

/// Master seed of every run in the sweep.
const SWEEP_SEED: u64 = 42;

/// Per-tier outcome of one cell.
#[derive(Debug, Clone)]
pub struct TierStats {
    /// Requests of this tier offered at the front end.
    pub offered: usize,
    /// Requests shed (fleet-edge admission + device-local).
    pub shed: usize,
    /// Attributed completions.
    pub completed: usize,
    /// Attributed deadline misses.
    pub misses: usize,
    /// Admitted requests whose fate a cycle-accurate device could not
    /// attribute per-tier.
    pub unattributed: usize,
    /// Shed requests over offered.
    pub shed_rate: f64,
    /// 99.9th-percentile latency of attributed completions, ms.
    pub p999_ms: f64,
}

/// One (scenario, admission policy, load) cell.
#[derive(Debug, Clone)]
pub struct ServeCell {
    /// Scenario kind: `steady`, `fault`, or `autoscale`.
    pub kind: &'static str,
    /// Admission policy name.
    pub admission: &'static str,
    /// Mean offered load (fraction of aggregate saturation).
    pub load: f64,
    /// Requests offered at the front end.
    pub offered: usize,
    /// Requests the admission policy rejected at the fleet edge.
    pub admission_shed: usize,
    /// Requests completed fleet-wide.
    pub completed: u64,
    /// Requests shed by device-local policies.
    pub device_shed: u64,
    /// Requests lost with corrupted batches on devices, warm-up
    /// included.
    pub device_dropped: u64,
    /// Requests still queued on devices at the horizon.
    pub final_queue: usize,
    /// Autoscale joins observed.
    pub joins: usize,
    /// Autoscale drains observed.
    pub drains: usize,
    /// Fleet-wide 99.9th-percentile latency, ms.
    pub p999_ms: f64,
    /// Device-side SLO violations (misses + device shed + dropped).
    pub violations: usize,
    /// Paid-tier ledger summary.
    pub paid: TierStats,
    /// Free-tier ledger summary.
    pub free: TierStats,
    /// Requests routed per device, in device-index order.
    pub assigned_per_device: Vec<usize>,
}

/// The full sweep result.
#[derive(Debug, Clone)]
pub struct ServeSweep {
    /// The per-request deadline every run was held against, ms.
    pub deadline_ms: f64,
    /// The deadline of the `scaled` cell, ms (16× the fitted LSTM
    /// batch service time — the devices differ, so the deadline does).
    pub scaled_deadline_ms: f64,
    /// Paid-tier arrival probability.
    pub paid_fraction: f64,
    /// Offered-request floor the trace-scale gate requires of the
    /// heaviest cell (10⁶ at `Full` scale).
    pub min_offered: usize,
    /// Error-severity `EQX07xx` findings on the swept parameters.
    pub lint_errors: usize,
    /// Warning-severity `EQX07xx` findings on the swept parameters.
    pub lint_warnings: usize,
    /// All cells: steady (load-major, then policy in canonical order),
    /// then fault, then autoscale.
    pub cells: Vec<ServeCell>,
}

/// The synthetic serving device: 16-request batches served in 16 µs at
/// 1 GHz (saturation 1 M req/s), evaluated by the surrogate walk over a
/// one-point table at exactly that service time, so service times match
/// the engine. The all-reduce sweep builds its fleet from it too.
pub(crate) fn serve_device(i: usize) -> DeviceSpec {
    let dims = ArrayDims { n: 16, w: 4, m: 4 };
    let config = AcceleratorConfig::new(format!("serve[{i}]"), dims, 1e9, Encoding::Hbfp8);
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
    let spec = if i >= FLEET_SIZE - FLEET_SIZE / 2 {
        spec.with_training(TrainingProfile {
            iteration_macs: 1_000_000_000,
            iteration_mmu_cycles: 40_000,
            iteration_dram_bytes: 4_000_000,
            iteration_simd_cycles: 4_000,
            batch: 128,
        })
    } else {
        spec
    };
    let table = FittedTable::fixed("serve", 16, 16_000).expect("a valid one-point table");
    spec.with_fitted(Arc::new(table))
}

/// The trace day: a diurnal profile averaging 30 % load with a midday
/// flash crowd multiplying the rate 2.5× for 8 % of the day.
fn trace_day() -> (DiurnalProfile, FlashCrowd) {
    (
        DiurnalProfile::thirty_percent_average(),
        FlashCrowd { start_frac: 0.55, duration_frac: 0.08, multiplier: 2.5 },
    )
}

/// The autoscaling policy of the `autoscale` cell, sized relative to
/// the horizon so `Quick` and `Full` exercise the same dynamics.
fn autoscale_policy(horizon_s: f64) -> AutoscalePolicy {
    AutoscalePolicy {
        min_devices: 2,
        initial_devices: 2,
        up_backlog_batches: 1.0,
        down_backlog_batches: 0.125,
        sustain_s: horizon_s / 200.0,
        drain_grace_s: horizon_s / 100.0,
    }
}

fn tier_stats(report: &FleetReport, class: RequestClass) -> TierStats {
    let l = report.class_ledger(class);
    TierStats {
        offered: l.offered_requests,
        shed: l.shed_requests,
        completed: l.completed_requests,
        misses: l.deadline_misses,
        unattributed: l.unattributed_requests,
        shed_rate: l.shed_rate(),
        p999_ms: l.p999_s() * 1e3,
    }
}

/// The cell of a `kind` run under `admission` at `load` that produced
/// `report`.
fn serve_cell(
    kind: &'static str,
    admission: AdmissionSpec,
    load: f64,
    report: &FleetReport,
) -> ServeCell {
    let joins = report.scaling_spans.iter().filter(|s| s.kind == ScalingKind::Join).count();
    ServeCell {
        kind,
        admission: admission.name(),
        load,
        offered: report.offered_requests,
        admission_shed: report.admission_shed_requests,
        completed: report.completed_requests(),
        device_shed: report.shed_requests(),
        device_dropped: report.dropped_requests(),
        final_queue: report
            .devices
            .iter()
            .filter_map(|d| d.report.slo.as_ref())
            .map(|s| s.final_queue_depth)
            .sum(),
        joins,
        drains: report.scaling_spans.len() - joins,
        p999_ms: report.p999_ms(),
        violations: report.total_violations(),
        paid: tier_stats(report, RequestClass::Paid),
        free: tier_stats(report, RequestClass::Free),
        assigned_per_device: report.devices.iter().map(|d| d.assigned_requests).collect(),
    }
}

/// Runs the sweep.
pub fn run(scale: ExperimentScale) -> ServeSweep {
    let devices: Vec<DeviceSpec> = (0..FLEET_SIZE).map(serve_device).collect();
    let deadline_s = DEADLINE_X * devices[0].service_time_s();
    let slo = SloSpec::new(deadline_s).expect("positive deadline");
    // One simulated "day" in batch-service intervals.
    let (intervals, min_offered): (u64, usize) = match scale {
        ExperimentScale::Quick => (9_375 / 16, 50_000),
        ExperimentScale::Full => (9_375, 1_000_000),
    };
    let horizon = intervals * 16_000;
    let horizon_s = horizon as f64 / 1e9;
    let (profile, crowd) = trace_day();
    let trace_mean =
        trace_mean_load(&profile, &[crowd]).expect("the trace day is well-formed");
    let scaler = autoscale_policy(horizon_s);

    let base = FleetRunOptions {
        source: ArrivalSource::Trace { profile, rate_scale: 1.0, crowd },
        policy: RoutingPolicy::training_aware_default(),
        admission: AdmissionSpec::AdmitAll,
        autoscale: None,
        paid_fraction: PAID_FRACTION,
        horizon_cycles: horizon,
        seed: SWEEP_SEED,
        slo: Some(slo),
    };

    // The grid, in artifact order: steady load × policy cells, the two
    // fault cells at the overload point, and the autoscaling day.
    enum Cell {
        Steady { admission: AdmissionSpec, load: f64 },
        Fault { admission: AdmissionSpec },
        Autoscale,
    }
    let mut grid: Vec<Cell> = Vec::new();
    for &load in &LOADS {
        for admission in AdmissionSpec::all_default() {
            grid.push(Cell::Steady { admission, load });
        }
    }
    for admission in [AdmissionSpec::AdmitAll, AdmissionSpec::priority_default()] {
        grid.push(Cell::Fault { admission });
    }
    grid.push(Cell::Autoscale);

    let mut cells = equinox_par::parallel_map(grid, |cell| {
        let (kind, load, admission, autoscale, fault) = match cell {
            Cell::Steady { admission, load } => ("steady", load, admission, None, false),
            Cell::Fault { admission } => ("fault", OVERLOAD, admission, None, true),
            // The autoscaling day runs below saturation so the trough
            // genuinely idles the fleet; admission stays admit-all to
            // isolate the scaling dynamics.
            Cell::Autoscale => ("autoscale", 0.5, AdmissionSpec::AdmitAll, Some(scaler), false),
        };
        let mut devices = devices.clone();
        if fault {
            // One device loses 65 % of its DRAM bandwidth mid-day; it
            // runs cycle-accurately (the surrogate cannot price
            // faults), so its completions land unattributed.
            devices[0] = DeviceSpec::new(devices[0].config.clone(), devices[0].timing)
                .with_scenario(
                    FaultScenario::named("dram_throttle")
                        .with_throttle(horizon * 3 / 10, horizon * 6 / 10, 0.35),
                );
        }
        let fleet = Fleet::new(devices).expect("the serving fleet is valid");
        let report = fleet
            .run(&FleetRunOptions {
                source: ArrivalSource::Trace {
                    profile,
                    rate_scale: load / trace_mean,
                    crowd,
                },
                admission,
                autoscale,
                ..base
            })
            .expect("serve runs complete");
        serve_cell(kind, admission, load, &report)
    });

    // The scaled cell: the same trace day served by a 64-device fleet
    // of fitted-surrogate LSTM devices (half harvesting) under priority
    // admission, at a horizon ≥ 10× the Quick day in the scaled
    // fleet's own batch-service intervals. It rides in the same cell
    // vector with kind `scaled` — only the deadline differs (real
    // devices, real service time), recorded as `scaled_deadline_ms`.
    let fit = FittedCalibration::shared(scale)
        .fit("LSTM")
        .expect("the LSTM table is fitted")
        .clone();
    let scaled_deadline_s = DEADLINE_X * fit.measured_cycles as f64
        / FittedCalibration::shared(scale).freq_hz;
    let (scaled_size, scaled_load, scaled_intervals): (usize, f64, u64) = match scale {
        ExperimentScale::Quick => (64, 0.05, 5_860),
        ExperimentScale::Full => (64, 0.05, 18_750),
    };
    let scaled_devices: Vec<DeviceSpec> = (0..scaled_size)
        .map(|i| fit.device(&format!("fit[{i}]"), i >= scaled_size - scaled_size / 2))
        .collect();
    let scaled_fleet = Fleet::new(scaled_devices).expect("fitted devices validate");
    let admission = AdmissionSpec::priority_default();
    let scaled_report = scaled_fleet
        .run(&FleetRunOptions {
            source: ArrivalSource::Trace {
                profile,
                rate_scale: scaled_load / trace_mean,
                crowd,
            },
            admission,
            horizon_cycles: scaled_intervals * fit.measured_cycles,
            slo: Some(SloSpec::new(scaled_deadline_s).expect("positive deadline")),
            ..base
        })
        .expect("the scaled serve run completes");
    cells.push(serve_cell("scaled", admission, scaled_load, &scaled_report));

    // The serving-layer lints over the parameters the sweep ran: the
    // admission defaults its grid was built from (where two policies
    // carry a token bucket, each parameter at its tighter value) plus the
    // autoscaler, against the fleet's real deadline and service-time
    // scales.
    let mut params = ServingParams {
        deadline_s,
        batch_service_s: devices[0].service_time_s(),
        paid_offered_floor_x: PAID_FRACTION * LOADS[0],
        slack_x: f64::INFINITY,
        token_rate_x: f64::INFINITY,
        burst_batches: f64::INFINITY,
        free_reserve_batches: 0.0,
        up_backlog_batches: scaler.up_backlog_batches,
        down_backlog_batches: scaler.down_backlog_batches,
        sustain_s: scaler.sustain_s,
        drain_grace_s: scaler.drain_grace_s,
    };
    for admission in AdmissionSpec::all_default() {
        match admission {
            AdmissionSpec::AdmitAll => {}
            AdmissionSpec::DeadlineAware { slack_x } => params.slack_x = params.slack_x.min(slack_x),
            AdmissionSpec::TokenBucket { rate_x, burst_batches }
            | AdmissionSpec::Priority { rate_x, burst_batches, .. } => {
                params.token_rate_x = params.token_rate_x.min(rate_x);
                params.burst_batches = params.burst_batches.min(burst_batches);
            }
        }
        if let AdmissionSpec::Priority { free_reserve_batches, .. } = admission {
            params.free_reserve_batches = params.free_reserve_batches.max(free_reserve_batches);
        }
    }
    let lints = analyze_serving(&params);
    let lint_errors = lints
        .iter()
        .filter(|d| d.severity == equinox_check::Severity::Error)
        .count();

    ServeSweep {
        deadline_ms: deadline_s * 1e3,
        scaled_deadline_ms: scaled_deadline_s * 1e3,
        paid_fraction: PAID_FRACTION,
        min_offered,
        lint_errors,
        lint_warnings: lints.len() - lint_errors,
        cells,
    }
}

impl ServeSweep {
    /// The cell for (`kind`, `admission`, `load`), if present.
    pub fn cell(&self, kind: &str, admission: &str, load: f64) -> Option<&ServeCell> {
        self.cells.iter().find(|c| {
            c.kind == kind && c.admission == admission && (c.load - load).abs() < 1e-9
        })
    }

    /// True when the paid tier held its SLO in `cell`: p999 inside the
    /// deadline and not a single attributed paid deadline miss.
    fn paid_holds(&self, cell: &ServeCell) -> bool {
        cell.paid.p999_ms <= self.deadline_ms && cell.paid.misses == 0
    }

    /// The headline gate: at 120 % offered load — both the clean
    /// overload and the faulted one — the priority policy holds the
    /// paid tier's SLO while admit-all violates it.
    pub fn priority_protects_paid(&self) -> bool {
        ["steady", "fault"].iter().all(|kind| {
            let (Some(pri), Some(all)) = (
                self.cell(kind, "priority", OVERLOAD),
                self.cell(kind, "admit_all", OVERLOAD),
            ) else {
                return false;
            };
            self.paid_holds(pri) && !self.paid_holds(all)
        })
    }

    /// Priority classes work: under overload the free tier is shed at a
    /// strictly higher rate than the paid tier.
    pub fn free_is_shed_first(&self) -> bool {
        ["steady", "fault"].iter().all(|kind| {
            self.cell(kind, "priority", OVERLOAD)
                .is_some_and(|c| c.free.shed_rate > c.paid.shed_rate)
        })
    }

    /// The autoscaling day both grew and shrank the fleet (that it lost
    /// nothing is [`ServeSweep::requests_conserved`]).
    pub fn autoscale_drains_cleanly(&self) -> bool {
        self.cells.iter().filter(|c| c.kind == "autoscale").all(|c| c.joins >= 1 && c.drains >= 1)
            && self.cells.iter().any(|c| c.kind == "autoscale")
    }

    /// Every cell lost nothing: each offered request is admission-shed,
    /// completed, device-shed, dropped with a corrupted batch, or still
    /// unfinished at the horizon.
    pub fn requests_conserved(&self) -> bool {
        self.cells.iter().all(|c| {
            c.admission_shed as u64 + c.completed + c.device_shed + c.device_dropped
                + c.final_queue as u64
                == c.offered as u64
        })
    }

    /// The sweep reached trace scale: the heaviest cell offered at
    /// least [`ServeSweep::min_offered`] requests.
    pub fn trace_scale_reached(&self) -> bool {
        self.cells.iter().map(|c| c.offered).max().unwrap_or(0) >= self.min_offered
    }

    /// No error-severity `EQX07xx` finding on the swept parameters.
    pub fn lints_clean(&self) -> bool {
        self.lint_errors == 0
    }

    /// The gate the CI smoke holds the tree to.
    pub fn passes(&self) -> bool {
        self.priority_protects_paid()
            && self.free_is_shed_first()
            && self.autoscale_drains_cleanly()
            && self.requests_conserved()
            && self.trace_scale_reached()
            && self.lints_clean()
    }

    /// The sweep as a JSON document.
    pub fn to_json(&self) -> Json {
        fn tier(t: &TierStats) -> Json {
            Json::object([
                ("offered", t.offered.into()),
                ("shed", t.shed.into()),
                ("completed", t.completed.into()),
                ("misses", t.misses.into()),
                ("unattributed", t.unattributed.into()),
                ("shed_rate", t.shed_rate.into()),
                ("p999_ms", t.p999_ms.into()),
            ])
        }
        let gates = Json::object([
            ("priority_protects_paid", self.priority_protects_paid().into()),
            ("free_is_shed_first", self.free_is_shed_first().into()),
            ("autoscale_drains_cleanly", self.autoscale_drains_cleanly().into()),
            ("requests_conserved", self.requests_conserved().into()),
            ("trace_scale_reached", self.trace_scale_reached().into()),
            ("lints_clean", self.lints_clean().into()),
            ("passes", self.passes().into()),
        ]);
        let cells = self.cells.iter().map(|c| {
            Json::object([
                ("kind", c.kind.into()),
                ("admission", c.admission.into()),
                ("load", c.load.into()),
                ("offered", c.offered.into()),
                ("admission_shed", c.admission_shed.into()),
                ("completed", c.completed.into()),
                ("device_shed", c.device_shed.into()),
                ("final_queue", c.final_queue.into()),
                ("joins", c.joins.into()),
                ("drains", c.drains.into()),
                ("p999_ms", c.p999_ms.into()),
                ("violations", c.violations.into()),
                ("paid", tier(&c.paid)),
                ("free", tier(&c.free)),
                ("assigned_per_device", c.assigned_per_device.as_slice().into()),
            ])
        });
        Json::object([
            ("deadline_ms", self.deadline_ms.into()),
            ("scaled_deadline_ms", self.scaled_deadline_ms.into()),
            ("paid_fraction", self.paid_fraction.into()),
            ("min_offered", self.min_offered.into()),
            ("lint_errors", self.lint_errors.into()),
            ("lint_warnings", self.lint_warnings.into()),
            ("gates", gates),
            ("cells", Json::array(cells)),
        ])
    }
}

impl std::fmt::Display for ServeSweep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Serving sweep — {FLEET_SIZE} surrogate devices, trace-day traffic \
             (diurnal × flash crowd), deadline {:.3} ms, {:.0}% paid:",
            self.deadline_ms,
            self.paid_fraction * 100.0,
        )?;
        writeln!(
            f,
            "  {:<9} {:<14} {:>5} {:>9} {:>9} {:>9} {:>10} {:>10} {:>5} {:>6}",
            "Scenario", "Admission", "Load", "Offered", "EdgeShed", "Complete", "Paid999ms",
            "Free-shed", "Joins", "Drains"
        )?;
        for c in &self.cells {
            writeln!(
                f,
                "  {:<9} {:<14} {:>4.0}% {:>9} {:>9} {:>9} {:>10.3} {:>9.1}% {:>5} {:>6}",
                c.kind,
                c.admission,
                c.load * 100.0,
                c.offered,
                c.admission_shed,
                c.completed,
                c.paid.p999_ms,
                c.free.shed_rate * 100.0,
                c.joins,
                c.drains,
            )?;
        }
        writeln!(
            f,
            "  gates: priority_protects_paid={} free_is_shed_first={} \
             autoscale_drains_cleanly={} requests_conserved={} trace_scale_reached={} \
             lints_clean={}",
            self.priority_protects_paid(),
            self.free_is_shed_first(),
            self.autoscale_drains_cleanly(),
            self.requests_conserved(),
            self.trace_scale_reached(),
            self.lints_clean(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// The Quick sweep, shared across tests (15 fleet runs).
    fn sweep() -> &'static ServeSweep {
        static SWEEP: OnceLock<ServeSweep> = OnceLock::new();
        SWEEP.get_or_init(|| run(ExperimentScale::Quick))
    }

    #[test]
    fn grid_covers_scenarios_policies_and_loads() {
        let s = sweep();
        assert_eq!(s.cells.len(), LOADS.len() * 4 + 2 + 1 + 1);
        assert_eq!(s.cells.iter().filter(|c| c.kind == "steady").count(), 12);
        assert_eq!(s.cells.iter().filter(|c| c.kind == "fault").count(), 2);
        assert_eq!(s.cells.iter().filter(|c| c.kind == "autoscale").count(), 1);
        assert_eq!(s.cells.iter().filter(|c| c.kind == "scaled").count(), 1);
        let policies: std::collections::BTreeSet<_> =
            s.cells.iter().map(|c| c.admission).collect();
        assert_eq!(policies.len(), 4);
    }

    #[test]
    fn scaled_cell_serves_the_trace_day_on_a_fitted_fleet() {
        let s = sweep();
        let c = s.cells.iter().find(|c| c.kind == "scaled").expect("scaled cell exists");
        assert_eq!(c.assigned_per_device.len(), 64);
        assert!(c.offered > 1_000_000, "scaled cell is trace-scale: {}", c.offered);
        assert!(c.completed > 0);
        // Tier ledgers partition the day.
        assert_eq!(c.paid.offered + c.free.offered, c.offered);
        assert!(s.scaled_deadline_ms > s.deadline_ms, "LSTM batches are slower");
    }

    #[test]
    fn requests_are_conserved_in_every_cell() {
        for c in &sweep().cells {
            let assigned: usize = c.assigned_per_device.iter().sum();
            assert_eq!(
                assigned + c.admission_shed,
                c.offered,
                "{} {}",
                c.kind,
                c.admission
            );
            // Every admitted request is completed, device-shed,
            // dropped, or unfinished at the horizon.
            assert_eq!(
                c.completed + c.device_shed + c.device_dropped + c.final_queue as u64,
                assigned as u64,
                "{} {}",
                c.kind,
                c.admission
            );
            // Tier ledgers partition the offered stream.
            assert_eq!(c.paid.offered + c.free.offered, c.offered);
            for t in [&c.paid, &c.free] {
                assert!(t.shed + t.completed + t.unattributed <= t.offered);
            }
        }
    }

    #[test]
    fn priority_admission_protects_the_paid_tier() {
        let s = sweep();
        assert!(s.priority_protects_paid(), "{s}");
        assert!(s.free_is_shed_first(), "{s}");
        // The overload is real: admit-all at 120 % misses deadlines.
        let all = s.cell("steady", "admit_all", OVERLOAD).unwrap();
        assert!(all.paid.misses > 0, "{s}");
    }

    #[test]
    fn autoscale_joins_and_drains_without_loss() {
        let s = sweep();
        assert!(s.autoscale_drains_cleanly(), "{s}");
        assert!(s.requests_conserved(), "{s}");
    }

    #[test]
    fn sweep_passes_its_gate_and_reaches_quick_scale() {
        let s = sweep();
        assert!(s.trace_scale_reached(), "{s}");
        assert!(s.lints_clean(), "{s}");
        assert!(s.passes(), "{s}");
    }

    #[test]
    fn artifact_records_gates_and_tiers() {
        let json = sweep().to_json().render().unwrap();
        assert!(json.contains("\"passes\":true"), "{json}");
        assert!(json.contains("\"priority_protects_paid\":true"));
        assert!(json.contains("\"requests_conserved\":true"));
        assert!(json.contains("\"admission\":\"token_bucket\""));
        assert!(json.contains("\"kind\":\"autoscale\""));
        assert!(json.contains("\"paid\":{\"offered\":"));
    }
}
