//! Extension: fleet-level sweep — fleet size × routing policy × load.
//!
//! The paper evaluates one device; this sweep serves the same LSTM
//! traffic from fleets of Equinox_500µs devices behind a request
//! router. Half of each fleet co-hosts the training service (the
//! production-relevant mixed deployment), so the sweep quantifies what
//! the routing tier is worth at the fleet level: aggregate throughput,
//! fleet-wide tail latency against a per-request deadline SLO, and
//! free-training epochs harvested under each policy.
//!
//! Measured harvest is concave in device load (`fig9_training.csv`:
//! flat to ≈50 % load, steep fall after), so the interesting policy
//! question is asymmetry on mixed fleets: the training-aware router
//! steers inference toward the inference-only half, holding the
//! harvesting half in the flat region of the curve. The sweep records
//! both its harvest and round-robin's per cell so the comparison is
//! part of the artifact (`results/fleet_sweep.json`).

use crate::accelerator::Equinox;
use crate::experiments::fitted::FittedCalibration;
use crate::experiments::ExperimentScale;
use equinox_arith::json::Json;
use equinox_arith::Encoding;
use equinox_fleet::{
    AdmissionSpec, ArrivalSource, DeviceSpec, Fleet, FleetRunOptions, RoutingPolicy,
};
use equinox_isa::models::ModelSpec;
use equinox_model::LatencyConstraint;
use equinox_sim::{RequestClass, SloSpec};

/// Fleet sizes swept (≥ 3, per the sweep's acceptance contract).
pub const FLEET_SIZES: [usize; 3] = [2, 4, 8];

/// Offered fleet loads swept (fractions of aggregate saturation):
/// light, the moderate operating point where training-aware routing
/// pays, and heavy.
pub const LOADS: [f64; 3] = [0.3, 0.6, 0.85];

/// The moderate-load operating point the harvest-advantage gate is
/// held at.
pub const MODERATE_LOAD: f64 = 0.6;

/// Per-request deadline as a multiple of the batch service time (the
/// fault sweep's bound, reused so SLO numbers are comparable).
const DEADLINE_X: f64 = 16.0;

/// Master seed of every fleet run in the sweep.
const SWEEP_SEED: u64 = 42;

/// One (fleet size, policy, load) cell.
#[derive(Debug, Clone)]
pub struct FleetCell {
    /// Devices in the fleet.
    pub fleet_size: usize,
    /// Devices co-hosting training (the second half of the fleet).
    pub training_devices: usize,
    /// Routing policy name.
    pub policy: &'static str,
    /// Offered fleet load (fraction of aggregate saturation).
    pub load: f64,
    /// Requests the front end offered.
    pub offered: usize,
    /// Requests completed fleet-wide.
    pub completed: u64,
    /// Requests shed at admission fleet-wide.
    pub shed: u64,
    /// SLO violations fleet-wide (misses + shed + dropped).
    pub violations: usize,
    /// Violations over measured requests.
    pub violation_rate: f64,
    /// Fleet-wide 99th-percentile latency, ms.
    pub p99_ms: f64,
    /// Fleet-wide 99.9th-percentile latency, ms.
    pub p999_ms: f64,
    /// Aggregate inference throughput, TOp/s.
    pub inference_tops: f64,
    /// Aggregate harvested training throughput, TOp/s.
    pub training_tops: f64,
    /// Fleet-wide free-training epochs harvested.
    pub free_epochs: f64,
    /// Free epochs per device, in device-index order.
    pub epochs_per_device: Vec<f64>,
    /// Requests routed per device, in device-index order.
    pub assigned_per_device: Vec<usize>,
}

/// The harvest comparison the sweep exists to record: training-aware
/// vs round-robin at one (fleet size, load) point.
#[derive(Debug, Clone)]
pub struct HarvestComparison {
    /// Devices in the fleet.
    pub fleet_size: usize,
    /// Offered fleet load.
    pub load: f64,
    /// Round-robin's fleet-wide free epochs.
    pub round_robin_epochs: f64,
    /// Training-aware routing's fleet-wide free epochs.
    pub training_aware_epochs: f64,
    /// `training_aware_epochs / round_robin_epochs` (0 if undefined).
    pub advantage: f64,
    /// Whether training-aware routing held the SLO (zero violations).
    pub training_aware_slo_clean: bool,
}

/// One cell of the scaled sweep: a 64–256-device fleet of
/// [`crate::experiments::fitted`]-surrogate devices, run for a horizon
/// the cycle-accurate grid never reaches (≥ 10× more batch-service
/// intervals). Per-batch service comes from the calibrated quantile
/// tables, so the cell carries the same SLO/harvest/energy accounting
/// as a [`FleetCell`] plus the displacement ledger the surrogate
/// attributes per admission tier.
#[derive(Debug, Clone)]
pub struct ScaledCell {
    /// Devices in the fleet.
    pub fleet_size: usize,
    /// Devices co-hosting training (the second half of the fleet).
    pub training_devices: usize,
    /// Routing policy name.
    pub policy: &'static str,
    /// Offered fleet load (fraction of aggregate saturation).
    pub load: f64,
    /// Horizon, in batch-service intervals.
    pub intervals: u64,
    /// `intervals` over the cycle-accurate grid's horizon at this
    /// scale (the "10–100×" claim, measured not asserted).
    pub horizon_multiple: f64,
    /// Requests the front end offered.
    pub offered: usize,
    /// Requests completed fleet-wide.
    pub completed: u64,
    /// SLO violations fleet-wide.
    pub violations: usize,
    /// Fleet-wide 99th-percentile latency, ms.
    pub p99_ms: f64,
    /// Fleet-wide free-training epochs harvested.
    pub free_epochs: f64,
    /// Fleet-wide inference energy priced by the fitted tables, J.
    pub inference_energy_j: f64,
    /// Training epochs displaced by admitted paid traffic.
    pub paid_displaced_epochs: f64,
    /// Training epochs displaced by admitted free traffic.
    pub free_displaced_epochs: f64,
}

/// The full sweep result.
#[derive(Debug, Clone)]
pub struct FleetSweep {
    /// The per-request deadline every run was held against, ms.
    pub deadline_ms: f64,
    /// All cells, size-major, then policy (canonical order), then load.
    pub cells: Vec<FleetCell>,
    /// Harvest comparisons for every (size, load) point.
    pub comparisons: Vec<HarvestComparison>,
    /// The fitted-surrogate cells at 64–256 devices and 10–100× longer
    /// horizons.
    pub scaled: Vec<ScaledCell>,
}

/// A mixed fleet of `size` Equinox_500µs devices: the first half
/// serves inference only, the second half co-hosts training.
fn mixed_fleet(eq: &Equinox, size: usize) -> Fleet {
    let timing = eq
        .compile(&ModelSpec::lstm_2048_25())
        .expect("reference workload compiles");
    let profile = eq.training_profile(&ModelSpec::lstm_2048_25());
    let devices: Vec<DeviceSpec> = (0..size)
        .map(|i| {
            let mut config = eq.config().clone();
            config.name = format!("{}[{i}]", config.name);
            let spec = DeviceSpec::new(config, timing);
            if i >= size - size / 2 {
                spec.with_training(profile)
            } else {
                spec
            }
        })
        .collect();
    Fleet::new(devices).expect("non-empty fleet with router-fed traffic")
}

/// Runs the sweep on mixed Equinox_500µs fleets serving the reference
/// LSTM.
pub fn run(scale: ExperimentScale) -> FleetSweep {
    let eq = Equinox::build(Encoding::Hbfp8, LatencyConstraint::Micros(500))
        .expect("the 500 µs design exists");
    let timing = eq
        .compile(&ModelSpec::lstm_2048_25())
        .expect("reference workload compiles");
    // Fixed horizon in batch-service intervals so every policy sees the
    // same offered stream per (size, load).
    let horizon = base_intervals(scale) * timing.total_cycles;
    let deadline_s = DEADLINE_X * timing.service_time_s(eq.freq_hz());
    let slo = SloSpec::new(deadline_s).expect("positive deadline");

    // The grid cells are independent fleet runs: fan them out on the
    // pool (each run fans its devices out again; nesting composes) and
    // collect in canonical order.
    let mut grid: Vec<(usize, RoutingPolicy, f64)> = Vec::new();
    for &size in &FLEET_SIZES {
        for policy in RoutingPolicy::all_default() {
            for &load in &LOADS {
                grid.push((size, policy, load));
            }
        }
    }
    let cells = equinox_par::parallel_map(grid, |(size, policy, load)| {
        let fleet = mixed_fleet(&eq, size);
        let report = fleet
            .run(&FleetRunOptions {
                source: ArrivalSource::Poisson { load },
                policy,
                admission: AdmissionSpec::AdmitAll,
                autoscale: None,
                paid_fraction: 1.0,
                horizon_cycles: horizon,
                seed: SWEEP_SEED,
                slo: Some(slo),
            })
            .expect("fleet runs complete");
        FleetCell {
            fleet_size: size,
            training_devices: size / 2,
            policy: policy.name(),
            load,
            offered: report.offered_requests,
            completed: report.completed_requests(),
            shed: report.shed_requests(),
            violations: report.total_violations(),
            violation_rate: report.violation_rate(),
            p99_ms: report.p99_ms(),
            p999_ms: report.p999_ms(),
            inference_tops: report.inference_tops(),
            training_tops: report.training_tops(),
            free_epochs: report.free_epochs(),
            epochs_per_device: report.devices.iter().map(|d| d.free_epochs).collect(),
            assigned_per_device: report
                .devices
                .iter()
                .map(|d| d.assigned_requests)
                .collect(),
        }
    });

    let mut sweep = FleetSweep {
        deadline_ms: deadline_s * 1e3,
        cells,
        comparisons: Vec::new(),
        scaled: run_scaled(scale),
    };
    for &size in &FLEET_SIZES {
        for &load in &LOADS {
            let cell = |policy| sweep.cell(size, policy, load);
            let (Some(rr), Some(ta)) = (cell("round_robin"), cell("training_aware")) else {
                continue;
            };
            let comparison = HarvestComparison {
                fleet_size: size,
                load,
                round_robin_epochs: rr.free_epochs,
                training_aware_epochs: ta.free_epochs,
                advantage: if rr.free_epochs > 0.0 {
                    ta.free_epochs / rr.free_epochs
                } else {
                    0.0
                },
                training_aware_slo_clean: ta.violations == 0,
            };
            sweep.comparisons.push(comparison);
        }
    }
    sweep
}

/// Horizon of the cycle-accurate grid at `scale`, in batch-service
/// intervals — the baseline the scaled cells' `horizon_multiple` is
/// measured against.
fn base_intervals(scale: ExperimentScale) -> u64 {
    match scale {
        ExperimentScale::Quick => 100,
        ExperimentScale::Full => 600,
    }
}

/// The scaled (size, load, intervals) grid. Loads are light because
/// the router still materialises every request (≈ 70–80 B each):
/// 64 devices × 6 000 intervals × 186 requests/interval/device at 30 %
/// load is already ≈ 21 M routed requests.
fn scaled_grid(scale: ExperimentScale) -> Vec<(usize, f64, u64)> {
    match scale {
        ExperimentScale::Quick => vec![(64, 0.3, 10 * base_intervals(scale))],
        ExperimentScale::Full => vec![
            (64, 0.3, 10 * base_intervals(scale)),
            (256, 0.1, 10 * base_intervals(scale)),
        ],
    }
}

/// Runs the scaled sweep: mixed fleets of fitted-surrogate LSTM
/// devices (half harvesting, 60 % paid traffic) at sizes and horizons
/// the cycle-accurate engine cannot reach in the wall-clock budget.
/// Routing is round-robin so every device — including the harvesting
/// half — serves traffic and the per-tier displacement ledger is
/// exercised at scale (training-aware routing would starve the
/// harvesting half at these light loads and leave the ledger empty).
pub fn run_scaled(scale: ExperimentScale) -> Vec<ScaledCell> {
    let fit = FittedCalibration::shared(scale)
        .fit("LSTM")
        .expect("the LSTM table is fitted")
        .clone();
    // The same deadline rule as the cycle-accurate grid (16× the
    // measured batch service time), so the SLO columns compare.
    let deadline_s = DEADLINE_X * fit.measured_cycles as f64
        / FittedCalibration::shared(scale).freq_hz;
    let slo = SloSpec::new(deadline_s).expect("positive deadline");
    // The cells are few and huge; run them serially so each one's
    // per-device fan-out owns the whole pool.
    scaled_grid(scale)
        .into_iter()
        .map(|(size, load, intervals)| {
            let devices: Vec<DeviceSpec> = (0..size)
                .map(|i| fit.device(&format!("fit[{i}]"), i >= size - size / 2))
                .collect();
            let fleet = Fleet::new(devices).expect("fitted devices validate");
            let report = fleet
                .run(&FleetRunOptions {
                    source: ArrivalSource::Poisson { load },
                    policy: RoutingPolicy::RoundRobin,
                    admission: AdmissionSpec::AdmitAll,
                    autoscale: None,
                    paid_fraction: 0.6,
                    horizon_cycles: intervals * fit.measured_cycles,
                    seed: SWEEP_SEED,
                    slo: Some(slo),
                })
                .expect("scaled fleet runs complete");
            ScaledCell {
                fleet_size: size,
                training_devices: size / 2,
                policy: RoutingPolicy::RoundRobin.name(),
                load,
                intervals,
                horizon_multiple: intervals as f64 / base_intervals(scale) as f64,
                offered: report.offered_requests,
                completed: report.completed_requests(),
                violations: report.total_violations(),
                p99_ms: report.p99_ms(),
                free_epochs: report.free_epochs(),
                inference_energy_j: report.inference_energy_j(),
                paid_displaced_epochs: report.displaced_epochs(RequestClass::Paid),
                free_displaced_epochs: report.displaced_epochs(RequestClass::Free),
            }
        })
        .collect()
}

impl FleetSweep {
    /// The cell for (`size`, `policy`, `load`), if present.
    pub fn cell(&self, size: usize, policy: &str, load: f64) -> Option<&FleetCell> {
        self.cells.iter().find(|c| {
            c.fleet_size == size && c.policy == policy && (c.load - load).abs() < 1e-9
        })
    }

    /// The harvest comparison at (`size`, `load`), if present.
    pub fn comparison(&self, size: usize, load: f64) -> Option<&HarvestComparison> {
        self.comparisons
            .iter()
            .find(|c| c.fleet_size == size && (c.load - load).abs() < 1e-9)
    }

    /// The gate the CI smoke holds the tree to: at the moderate
    /// operating point, training-aware routing harvests strictly more
    /// fleet-wide free epochs than round-robin on every fleet size,
    /// without a single SLO violation.
    pub fn training_aware_wins(&self) -> bool {
        FLEET_SIZES.iter().all(|&size| {
            self.comparison(size, MODERATE_LOAD).is_some_and(|c| {
                c.advantage > 1.0 && c.training_aware_slo_clean
            })
        })
    }

    /// The sweep as a JSON document.
    pub fn to_json(&self) -> Json {
        let cells = self.cells.iter().map(|c| {
            Json::object([
                ("fleet_size", c.fleet_size.into()),
                ("training_devices", c.training_devices.into()),
                ("policy", c.policy.into()),
                ("load", c.load.into()),
                ("offered", c.offered.into()),
                ("completed", c.completed.into()),
                ("shed", c.shed.into()),
                ("violations", c.violations.into()),
                ("violation_rate", c.violation_rate.into()),
                ("p99_ms", c.p99_ms.into()),
                ("p999_ms", c.p999_ms.into()),
                ("inference_tops", c.inference_tops.into()),
                ("training_tops", c.training_tops.into()),
                ("free_epochs", c.free_epochs.into()),
                ("epochs_per_device", c.epochs_per_device.as_slice().into()),
                ("assigned_per_device", c.assigned_per_device.as_slice().into()),
            ])
        });
        let scaled = self.scaled.iter().map(|c| {
            Json::object([
                ("fleet_size", c.fleet_size.into()),
                ("training_devices", c.training_devices.into()),
                ("policy", c.policy.into()),
                ("load", c.load.into()),
                ("intervals", c.intervals.into()),
                ("horizon_multiple", c.horizon_multiple.into()),
                ("offered", c.offered.into()),
                ("completed", c.completed.into()),
                ("violations", c.violations.into()),
                ("p99_ms", c.p99_ms.into()),
                ("free_epochs", c.free_epochs.into()),
                ("inference_energy_j", c.inference_energy_j.into()),
                ("paid_displaced_epochs", c.paid_displaced_epochs.into()),
                ("free_displaced_epochs", c.free_displaced_epochs.into()),
            ])
        });
        let comparisons = self.comparisons.iter().map(|c| {
            Json::object([
                ("fleet_size", c.fleet_size.into()),
                ("load", c.load.into()),
                ("round_robin_epochs", c.round_robin_epochs.into()),
                ("training_aware_epochs", c.training_aware_epochs.into()),
                ("advantage", c.advantage.into()),
                ("training_aware_slo_clean", c.training_aware_slo_clean.into()),
            ])
        });
        Json::object([
            ("deadline_ms", self.deadline_ms.into()),
            ("training_aware_wins", self.training_aware_wins().into()),
            ("cells", Json::array(cells)),
            ("scaled", Json::array(scaled)),
            ("harvest_comparisons", Json::array(comparisons)),
        ])
    }
}

impl std::fmt::Display for FleetSweep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Fleet sweep — mixed Equinox_500us fleets (half co-host training), \
             LSTM traffic, deadline {:.2} ms:",
            self.deadline_ms
        )?;
        writeln!(
            f,
            "  {:<5} {:<17} {:>5} {:>8} {:>6} {:>5} {:>9} {:>9} {:>9} {:>8}",
            "Size", "Policy", "Load", "Complete", "Shed", "Viol", "p99(ms)", "Inf(TOp/s)", "Trn(TOp/s)", "Epochs"
        )?;
        for c in &self.cells {
            writeln!(
                f,
                "  {:<5} {:<17} {:>4.0}% {:>8} {:>6} {:>5} {:>9.3} {:>9.1} {:>9.1} {:>8.2}",
                c.fleet_size,
                c.policy,
                c.load * 100.0,
                c.completed,
                c.shed,
                c.violations,
                c.p99_ms,
                c.inference_tops,
                c.training_tops,
                c.free_epochs,
            )?;
        }
        for c in &self.scaled {
            writeln!(
                f,
                "  scaled (fitted surrogate): {} devices @ {:>2.0}% load, {} intervals \
                 ({:.0}x horizon): {} completed, {} viol, p99 {:.3} ms, {:.2} epochs, \
                 {:.1} J, displaced {:.2} paid / {:.2} free",
                c.fleet_size,
                c.load * 100.0,
                c.intervals,
                c.horizon_multiple,
                c.completed,
                c.violations,
                c.p99_ms,
                c.free_epochs,
                c.inference_energy_j,
                c.paid_displaced_epochs,
                c.free_displaced_epochs,
            )?;
        }
        writeln!(f, "  harvest at the moderate operating point (training-aware vs round-robin):")?;
        for c in &self.comparisons {
            if (c.load - MODERATE_LOAD).abs() > 1e-9 {
                continue;
            }
            writeln!(
                f,
                "    {} devices @ {:>2.0}% load: {:.2} vs {:.2} epochs ({:.2}x), SLO {}",
                c.fleet_size,
                c.load * 100.0,
                c.training_aware_epochs,
                c.round_robin_epochs,
                c.advantage,
                if c.training_aware_slo_clean { "clean" } else { "VIOLATED" },
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// The Quick sweep, shared across tests (it is the heaviest driver
    /// in the suite: 36 fleet runs).
    fn sweep() -> &'static FleetSweep {
        static SWEEP: OnceLock<FleetSweep> = OnceLock::new();
        SWEEP.get_or_init(|| run(ExperimentScale::Quick))
    }

    #[test]
    fn grid_covers_sizes_policies_loads() {
        let s = sweep();
        assert_eq!(s.cells.len(), FLEET_SIZES.len() * 4 * LOADS.len());
        let policies: std::collections::BTreeSet<_> =
            s.cells.iter().map(|c| c.policy).collect();
        assert_eq!(policies.len(), 4);
        let sizes: std::collections::BTreeSet<_> =
            s.cells.iter().map(|c| c.fleet_size).collect();
        assert!(sizes.len() >= 3);
    }

    #[test]
    fn requests_are_conserved_in_every_cell() {
        for c in &sweep().cells {
            let assigned: usize = c.assigned_per_device.iter().sum();
            assert_eq!(assigned, c.offered, "{} size {}", c.policy, c.fleet_size);
            assert!(c.completed > 0, "{} size {}", c.policy, c.fleet_size);
            assert_eq!(c.epochs_per_device.len(), c.fleet_size);
            // Only the training half harvests.
            let inference_half: f64 =
                c.epochs_per_device[..c.fleet_size - c.training_devices].iter().sum();
            assert_eq!(inference_half, 0.0);
        }
    }

    #[test]
    fn training_aware_beats_round_robin_at_moderate_load() {
        let s = sweep();
        assert!(s.training_aware_wins(), "{s}");
        // And the advantage is substantial on the larger fleets, not a
        // rounding artifact (fig9's concave harvest curve predicts
        // ≈20 % at this operating point).
        let c = s.comparison(8, MODERATE_LOAD).unwrap();
        assert!(c.advantage > 1.1, "advantage {:.3}: {s}", c.advantage);
    }

    #[test]
    fn harvest_numbers_are_recorded_in_the_artifact() {
        let json = sweep().to_json().render().unwrap();
        assert!(json.contains("\"training_aware_wins\":true"));
        assert!(json.contains("\"round_robin_epochs\":"));
        assert!(json.contains("\"training_aware_epochs\":"));
        assert!(json.contains("\"policy\":\"power_of_two\""));
        assert!(json.contains("\"epochs_per_device\":["));
    }

    #[test]
    fn scaled_cells_reach_the_issue_floor() {
        // The tentpole claim: ≥ 64 fitted devices at ≥ 10× the
        // cycle-accurate horizon, with live harvest/energy/displacement
        // accounting.
        let s = sweep();
        assert!(!s.scaled.is_empty());
        for c in &s.scaled {
            assert!(c.fleet_size >= 64, "{}", c.fleet_size);
            assert!(c.horizon_multiple >= 10.0, "{}", c.horizon_multiple);
            assert!(c.completed > 0);
            assert!(c.offered > 100_000, "scaled cell should be big: {}", c.offered);
            assert!(c.free_epochs > 0.0, "harvesting half should harvest");
            assert!(c.inference_energy_j > 0.0, "fitted energy lane should price");
            assert!(
                c.paid_displaced_epochs > 0.0 && c.free_displaced_epochs > 0.0,
                "both tiers displace at 60% paid: paid {} free {}",
                c.paid_displaced_epochs,
                c.free_displaced_epochs
            );
        }
        let json = s.to_json().render().unwrap();
        assert!(json.contains("\"scaled\":[{"));
        assert!(json.contains("\"horizon_multiple\":"));
        assert!(json.contains("\"paid_displaced_epochs\":"));
    }
}
