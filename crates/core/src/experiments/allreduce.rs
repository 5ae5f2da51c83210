//! Extension: the harvest-vs-sync frontier — all-reduce topology ×
//! schedule × inference load on a packet-level fabric.
//!
//! Every earlier harvest number treated free epochs as per-device
//! fictions: replicas trained independently and nothing paid for
//! combining gradients. This sweep attaches an `equinox-net`
//! interconnect to a mixed eight-device fleet (half harvesting) and
//! prices the synchronization: each free epoch ships the reference
//! LSTM's full hbfp8 weight footprint through an all-reduce round over
//! the harvesting half, contending with the fleet's inference-DMA and
//! harvest-staging traffic on the same links. The frontier the
//! artifact records (`results/allreduce_sweep.json`) is raw vs synced
//! epochs — and the inference tail the sync traffic perturbs — across
//! {one-big-switch, ring, two-level tree} fabrics × {ring, binomial
//! tree} schedules × {30, 60, 85} % offered load.
//!
//! The gate the CI smoke holds: the full 18-cell frontier is present;
//! at the 60 % operating point every fabric still completes its round
//! and harvests strictly positive *synced* epochs; at the reference
//! cells (one-big-switch, ≤ 60 % load) the paid tier sees zero shed
//! requests, zero deadline misses, and zero misses attributable to
//! interconnect congestion; every link conserves bytes in every cell;
//! and the `EQX09xx` interconnect lints are clean on the swept fabric.

use crate::experiments::serve::{self, serve_device};
use crate::experiments::ExperimentScale;
use equinox_arith::json::Json;
use equinox_arith::Encoding;
use equinox_check::{analyze_interconnect, InterconnectParams, Severity};
use equinox_fleet::{
    AdmissionSpec, AllReduceSchedule, ArrivalSource, DeviceSpec, Fleet, FleetRunOptions,
    InterconnectSpec, RoutingPolicy, Topology,
};
use equinox_isa::models::ModelSpec;
use equinox_sim::{RequestClass, SloSpec};

/// Devices in the fleet: the serve sweep's synthetic fleet, whose
/// second half co-hosts training, so the all-reduce group has four
/// participants.
pub const FLEET_SIZE: usize = serve::FLEET_SIZE;

/// Offered fleet loads swept (fractions of aggregate saturation).
pub const LOADS: [f64; 3] = [0.3, 0.6, 0.85];

/// The operating point the synced-harvest gate is held at.
pub const MODERATE_LOAD: f64 = 0.6;

/// Probability that an arrival is paid-tier (matches the serve sweep).
pub const PAID_FRACTION: f64 = 0.6;

/// Fabric topologies swept, in artifact order.
pub const TOPOLOGIES: [Topology; 3] =
    [Topology::OneBigSwitch, Topology::Ring, Topology::Tree { leaf_group: 2 }];

/// All-reduce schedules swept, in artifact order.
pub const SCHEDULES: [AllReduceSchedule; 2] =
    [AllReduceSchedule::Ring, AllReduceSchedule::Tree];

/// Per-request deadline as a multiple of the batch service time
/// (matches the fleet and serve sweeps so SLO numbers are comparable).
const DEADLINE_X: f64 = 16.0;

/// Master seed of every run in the sweep.
const SWEEP_SEED: u64 = 42;

/// Inference DMA bytes per issued batch on a device's host link
/// (activations in and out; 16 requests × 2 KiB × 2 directions).
const DMA_BYTES_PER_BATCH: u64 = 65_536;

/// Gradient bytes one all-reduce round must move per participant: the
/// reference LSTM's full weight footprint at one hbfp8 byte per value
/// (the shared exponents ride in the same blocks).
pub fn gradient_bytes() -> u64 {
    ModelSpec::lstm_2048_25().weight_params() * Encoding::Hbfp8.bytes_per_value() as u64
}

/// One (topology, schedule, load) cell of the frontier.
#[derive(Debug, Clone)]
pub struct AllReduceCell {
    /// Fabric topology name.
    pub topology: &'static str,
    /// All-reduce schedule name.
    pub schedule: &'static str,
    /// Offered fleet load (fraction of aggregate saturation).
    pub load: f64,
    /// Requests the front end offered.
    pub offered: usize,
    /// Requests completed fleet-wide.
    pub completed: u64,
    /// Device-side SLO violations fleet-wide.
    pub violations: usize,
    /// Fleet-wide 99th-percentile latency, ms.
    pub p99_ms: f64,
    /// Paid-tier requests shed (edge + device-local).
    pub paid_shed: usize,
    /// Paid-tier deadline misses.
    pub paid_misses: usize,
    /// Paid-tier completions pushed past the deadline by the
    /// interconnect's DMA-delay surcharge.
    pub paid_sync_misses: usize,
    /// Simulated cycles one all-reduce round took on the loaded fabric.
    pub round_cycles: u64,
    /// Go-back-N timeout firings during the round.
    pub retries: u64,
    /// Flows that exhausted their retry budget.
    pub aborted_flows: usize,
    /// True when PFC backpressure deadlocked the round.
    pub deadlocked: bool,
    /// True when the round hit the event-cap backstop.
    pub truncated: bool,
    /// True when every link conserved bytes over the round.
    pub conserved: bool,
    /// Mean queueing delay of background DMA packets, cycles.
    pub bg_delay_mean_cycles: f64,
    /// The busiest link's utilization over the round.
    pub peak_link_utilization: f64,
    /// Per-link utilization over the round, in fabric link order.
    pub link_utilization: Vec<(String, f64)>,
    /// Fleet free epochs before paying for synchronization.
    pub raw_free_epochs: f64,
    /// Fleet free epochs once every epoch pays one all-reduce round.
    pub synced_free_epochs: f64,
    /// Fraction of training wall-clock spent inside all-reduce rounds.
    pub sync_overhead_frac: f64,
}

/// The full frontier.
#[derive(Debug, Clone)]
pub struct AllReduceSweep {
    /// The per-request deadline every run was held against, ms.
    pub deadline_ms: f64,
    /// Gradient bytes per participant per round ([`gradient_bytes`]).
    pub gradient_bytes: u64,
    /// Devices in the fleet.
    pub fleet_size: usize,
    /// All-reduce participants (the harvesting half).
    pub participants: usize,
    /// Error-severity `EQX09xx` findings on the swept fabric.
    pub lint_errors: usize,
    /// Warning-severity `EQX09xx` findings on the swept fabric.
    pub lint_warnings: usize,
    /// All cells, topology-major, then schedule, then load.
    pub cells: Vec<AllReduceCell>,
}

/// The swept fabric for one (topology, schedule) pair: the datacenter
/// link profile carrying the reference gradient, drop-tail switching
/// everywhere (the PFC variant is deadlock-capable on the ring — the
/// `EQX0902` lint and the net crate's deadlock test cover it).
fn fabric_spec(topology: Topology, schedule: AllReduceSchedule) -> InterconnectSpec {
    InterconnectSpec::datacenter(gradient_bytes(), DMA_BYTES_PER_BATCH)
        .with_topology(topology)
        .with_schedule(schedule)
}

/// Hop count of the longest route each topology can produce on an
/// `n`-device fleet (host up-link + fabric traversal + host
/// down-link), for the `EQX0903` window round-trip lint.
fn max_route_hops(topology: Topology, n: usize) -> usize {
    match topology {
        Topology::OneBigSwitch => 2,
        Topology::Ring => n + 1,
        Topology::Tree { .. } => 4,
    }
}

/// Runs the frontier sweep.
pub fn run(scale: ExperimentScale) -> AllReduceSweep {
    let devices: Vec<DeviceSpec> = (0..FLEET_SIZE).map(serve_device).collect();
    let deadline_s = DEADLINE_X * devices[0].service_time_s();
    let slo = SloSpec::new(deadline_s).expect("positive deadline");
    let intervals: u64 = match scale {
        ExperimentScale::Quick => 100,
        ExperimentScale::Full => 600,
    };
    let horizon = intervals * 16_000;

    let mut grid: Vec<(Topology, AllReduceSchedule, f64)> = Vec::new();
    for &topology in &TOPOLOGIES {
        for &schedule in &SCHEDULES {
            for &load in &LOADS {
                grid.push((topology, schedule, load));
            }
        }
    }
    let cells = equinox_par::parallel_map(grid, |(topology, schedule, load)| {
        let fleet = Fleet::new((0..FLEET_SIZE).map(serve_device).collect())
            .expect("synthetic devices validate")
            .with_interconnect(fabric_spec(topology, schedule))
            .expect("the swept fabric validates against the fleet");
        let report = fleet
            .run(&FleetRunOptions {
                source: ArrivalSource::Poisson { load },
                policy: RoutingPolicy::training_aware_default(),
                admission: AdmissionSpec::AdmitAll,
                autoscale: None,
                paid_fraction: PAID_FRACTION,
                horizon_cycles: horizon,
                seed: SWEEP_SEED,
                slo: Some(slo),
            })
            .expect("fleet runs complete");
        let sync = report.sync.as_ref().expect("an interconnect is attached");
        let paid = report.class_ledger(RequestClass::Paid);
        AllReduceCell {
            topology: topology.name(),
            schedule: schedule.name(),
            load,
            offered: report.offered_requests,
            completed: report.completed_requests(),
            violations: report.total_violations(),
            p99_ms: report.p99_ms(),
            paid_shed: paid.shed_requests,
            paid_misses: paid.deadline_misses,
            paid_sync_misses: paid.sync_deadline_misses,
            round_cycles: sync.round_cycles,
            retries: sync.retries,
            aborted_flows: sync.aborted_flows,
            deadlocked: sync.deadlocked,
            truncated: sync.truncated,
            conserved: sync.conserved,
            bg_delay_mean_cycles: sync.bg_delay_mean_cycles,
            peak_link_utilization: sync.peak_link_utilization,
            link_utilization: sync.link_utilization.clone(),
            raw_free_epochs: sync.raw_free_epochs,
            synced_free_epochs: sync.synced_free_epochs,
            sync_overhead_frac: sync.sync_overhead_frac,
        }
    });

    // Lint the swept fabric once per topology at the observed epoch
    // pace (the slowest cell's, i.e. the most demanding cadence).
    let participants = FLEET_SIZE / 2;
    let min_epoch_wall = cells
        .iter()
        .filter(|c| c.raw_free_epochs > 0.0)
        .map(|c| horizon as f64 / (c.raw_free_epochs / participants as f64))
        .fold(f64::INFINITY, f64::min);
    let (mut lint_errors, mut lint_warnings) = (0usize, 0usize);
    for &topology in &TOPOLOGIES {
        let spec = fabric_spec(topology, AllReduceSchedule::Ring);
        let params = InterconnectParams {
            link_rate_bytes_per_cycle: spec.link.rate_bytes_per_cycle,
            link_latency_cycles: spec.link.latency_cycles,
            packet_bytes: spec.packet_bytes,
            window_packets: spec.window_packets,
            timeout_cycles: spec.timeout_cycles,
            retry_budget: spec.retry_budget,
            max_route_hops: max_route_hops(topology, FLEET_SIZE),
            topology_cyclic: topology.is_cyclic(),
            pfc: false,
            gradient_bytes: spec.gradient_bytes,
            harvesting_devices: participants,
            epoch_wall_cycles: if min_epoch_wall.is_finite() { min_epoch_wall } else { 0.0 },
            background_load_frac: spec.bg_cap_frac,
        };
        for d in analyze_interconnect(&params) {
            match d.severity {
                Severity::Error => lint_errors += 1,
                _ => lint_warnings += 1,
            }
        }
    }

    AllReduceSweep {
        deadline_ms: deadline_s * 1e3,
        gradient_bytes: gradient_bytes(),
        fleet_size: FLEET_SIZE,
        participants,
        lint_errors,
        lint_warnings,
        cells,
    }
}

impl AllReduceSweep {
    /// The cell for (`topology`, `schedule`, `load`), if present.
    pub fn cell(&self, topology: &str, schedule: &str, load: f64) -> Option<&AllReduceCell> {
        self.cells.iter().find(|c| {
            c.topology == topology && c.schedule == schedule && (c.load - load).abs() < 1e-9
        })
    }

    /// Every (topology, schedule, load) combination is present.
    pub fn frontier_complete(&self) -> bool {
        TOPOLOGIES.iter().all(|t| {
            SCHEDULES.iter().all(|s| {
                LOADS.iter().all(|&l| self.cell(t.name(), s.name(), l).is_some())
            })
        })
    }

    /// At the moderate operating point every fabric completes its
    /// round (no aborts, deadlock, or truncation) and harvests
    /// strictly positive synced epochs.
    pub fn synced_positive_at_moderate(&self) -> bool {
        let at_moderate: Vec<&AllReduceCell> = self
            .cells
            .iter()
            .filter(|c| (c.load - MODERATE_LOAD).abs() < 1e-9)
            .collect();
        !at_moderate.is_empty()
            && at_moderate.iter().all(|c| {
                c.synced_free_epochs > 0.0
                    && c.aborted_flows == 0
                    && !c.deadlocked
                    && !c.truncated
            })
    }

    /// At the reference cells (one-big-switch, at or below the
    /// moderate load, both schedules) the paid tier is untouched: zero
    /// shed, zero deadline misses, zero interconnect-attributed misses.
    pub fn reference_slo_clean(&self) -> bool {
        let reference: Vec<&AllReduceCell> = self
            .cells
            .iter()
            .filter(|c| c.topology == "one_big_switch" && c.load <= MODERATE_LOAD + 1e-9)
            .collect();
        !reference.is_empty()
            && reference.iter().all(|c| {
                c.paid_shed == 0 && c.paid_misses == 0 && c.paid_sync_misses == 0
            })
    }

    /// Every link conserved bytes in every cell.
    pub fn conserved(&self) -> bool {
        self.cells.iter().all(|c| c.conserved)
    }

    /// The `EQX09xx` interconnect lints are clean on the swept fabric.
    pub fn lints_clean(&self) -> bool {
        self.lint_errors == 0
    }

    /// The gate the CI smoke and the regen driver hold the tree to.
    pub fn passes(&self) -> bool {
        self.frontier_complete()
            && self.synced_positive_at_moderate()
            && self.reference_slo_clean()
            && self.conserved()
            && self.lints_clean()
    }

    /// The sweep as a JSON document.
    pub fn to_json(&self) -> Json {
        let cells = self.cells.iter().map(|c| {
            let links = c.link_utilization.iter().map(|(name, u)| {
                Json::object([("link", name.as_str().into()), ("utilization", (*u).into())])
            });
            Json::object([
                ("topology", c.topology.into()),
                ("schedule", c.schedule.into()),
                ("load", c.load.into()),
                ("offered", c.offered.into()),
                ("completed", c.completed.into()),
                ("violations", c.violations.into()),
                ("p99_ms", c.p99_ms.into()),
                ("paid_shed", c.paid_shed.into()),
                ("paid_misses", c.paid_misses.into()),
                ("paid_sync_misses", c.paid_sync_misses.into()),
                ("round_cycles", c.round_cycles.into()),
                ("retries", c.retries.into()),
                ("aborted_flows", c.aborted_flows.into()),
                ("deadlocked", c.deadlocked.into()),
                ("truncated", c.truncated.into()),
                ("conserved", c.conserved.into()),
                ("bg_delay_mean_cycles", c.bg_delay_mean_cycles.into()),
                ("peak_link_utilization", c.peak_link_utilization.into()),
                ("raw_free_epochs", c.raw_free_epochs.into()),
                ("synced_free_epochs", c.synced_free_epochs.into()),
                ("sync_overhead_frac", c.sync_overhead_frac.into()),
                ("link_utilization", Json::array(links)),
            ])
        });
        Json::object([
            ("deadline_ms", self.deadline_ms.into()),
            ("gradient_bytes", self.gradient_bytes.into()),
            ("fleet_size", self.fleet_size.into()),
            ("participants", self.participants.into()),
            ("lint_errors", self.lint_errors.into()),
            ("lint_warnings", self.lint_warnings.into()),
            ("passes", self.passes().into()),
            ("cells", Json::array(cells)),
        ])
    }
}

impl std::fmt::Display for AllReduceSweep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "All-reduce frontier — {} devices ({} harvesting), {:.1} MiB \
             gradients, deadline {:.2} ms:",
            self.fleet_size,
            self.participants,
            self.gradient_bytes as f64 / (1 << 20) as f64,
            self.deadline_ms
        )?;
        writeln!(
            f,
            "  {:<15} {:<9} {:>5} {:>10} {:>8} {:>8} {:>9} {:>8} {:>8} {:>9}",
            "Topology", "Schedule", "Load", "Round(cyc)", "PeakUtil", "Raw", "Synced", "Ovhd", "p99(ms)", "SyncMiss"
        )?;
        for c in &self.cells {
            writeln!(
                f,
                "  {:<15} {:<9} {:>4.0}% {:>10} {:>7.0}% {:>8.3} {:>9.3} {:>7.1}% {:>8.3} {:>9}{}",
                c.topology,
                c.schedule,
                c.load * 100.0,
                c.round_cycles,
                c.peak_link_utilization * 100.0,
                c.raw_free_epochs,
                c.synced_free_epochs,
                c.sync_overhead_frac * 100.0,
                c.p99_ms,
                c.paid_sync_misses,
                if c.deadlocked {
                    "  DEADLOCKED"
                } else if c.aborted_flows > 0 {
                    "  ABORTED"
                } else {
                    ""
                },
            )?;
        }
        writeln!(
            f,
            "  EQX09xx fabric lints: {} error(s), {} warning(s); gate {}",
            self.lint_errors,
            self.lint_warnings,
            if self.passes() { "PASSES" } else { "FAILS" },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// The Quick sweep, shared across tests (18 fleet runs, each with
    /// a simulated all-reduce round).
    fn sweep() -> &'static AllReduceSweep {
        static SWEEP: OnceLock<AllReduceSweep> = OnceLock::new();
        SWEEP.get_or_init(|| run(ExperimentScale::Quick))
    }

    #[test]
    fn the_frontier_is_complete_and_passes_its_gates() {
        let s = sweep();
        assert_eq!(s.cells.len(), TOPOLOGIES.len() * SCHEDULES.len() * LOADS.len());
        assert!(s.frontier_complete(), "{s}");
        assert!(s.synced_positive_at_moderate(), "{s}");
        assert!(s.reference_slo_clean(), "{s}");
        assert!(s.conserved(), "{s}");
        assert!(s.lints_clean(), "{s}");
        assert!(s.passes());
    }

    #[test]
    fn synchronization_is_never_free() {
        for c in &sweep().cells {
            assert!(c.round_cycles > 0, "{} {} {}", c.topology, c.schedule, c.load);
            assert!(c.peak_link_utilization > 0.0, "{}", c.topology);
            // Synced epochs pay for the round: strictly below raw
            // whenever the fleet harvested anything.
            if c.raw_free_epochs > 0.0 && c.aborted_flows == 0 {
                assert!(
                    c.synced_free_epochs < c.raw_free_epochs,
                    "{} {} at {}: {} !< {}",
                    c.topology,
                    c.schedule,
                    c.load,
                    c.synced_free_epochs,
                    c.raw_free_epochs
                );
            }
            assert_eq!(c.link_utilization.len(), expected_links(c.topology));
        }
    }

    fn expected_links(topology: &str) -> usize {
        // up + down per device, plus trunks: n ring links, or
        // ceil(n/leaf_group) up/down pairs under the two-level tree.
        match topology {
            "one_big_switch" => 2 * FLEET_SIZE,
            "ring" => 3 * FLEET_SIZE,
            "tree" => 2 * FLEET_SIZE + 2 * FLEET_SIZE.div_ceil(2),
            other => panic!("unexpected topology {other}"),
        }
    }

    #[test]
    fn the_artifact_records_the_frontier() {
        let json = sweep().to_json().render().unwrap();
        assert!(json.contains("\"passes\":true"));
        assert!(json.contains("\"topology\":\"one_big_switch\""));
        assert!(json.contains("\"schedule\":\"tree\""));
        assert!(json.contains("\"synced_free_epochs\":"));
        assert!(json.contains("\"link\":\"up0\""));
        assert!(json.contains("\"conserved\":true"));
        assert!(!json.contains("\"conserved\":false"));
    }
}
