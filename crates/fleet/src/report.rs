//! Fleet-level aggregation: merged latency distribution, throughput,
//! the shed/dropped ledger, and free-training epoch accounting.

use crate::autoscale::ScalingSpan;
use crate::sync::SyncReport;
use equinox_isa::training::TrainingProfile;
use equinox_sim::{ClassLedger, LatencyStats, RequestClass, SimReport};

/// Reference training-corpus size defining one "free epoch": the
/// number of samples a device must push through its co-hosted training
/// service for the fleet ledger to credit it with one epoch. 65 536
/// samples is a small-corpus stand-in (≈ the paper's CIFAR-sized
/// convergence studies); harvest comparisons only ever use epoch
/// *ratios*, so the constant cancels there.
pub const EPOCH_SAMPLES: u64 = 65_536;

/// MMU cycles one epoch of [`EPOCH_SAMPLES`] samples costs at the
/// profile's mini-batch size — the denominator of every epoch figure
/// in the fleet ledger.
pub fn epoch_cycles(p: &TrainingProfile) -> f64 {
    let iterations = EPOCH_SAMPLES.div_ceil(p.batch as u64) as f64;
    iterations * p.iteration_mmu_cycles as f64
}

/// Free-training epochs a device harvested, given its simulation
/// report and training profile: MMU cycles actually granted to
/// training, divided by [`epoch_cycles`].
pub fn free_epochs(report: &SimReport, training: Option<&TrainingProfile>) -> f64 {
    let Some(p) = training else { return 0.0 };
    let epoch_cycles = epoch_cycles(p);
    if epoch_cycles <= 0.0 {
        return 0.0;
    }
    report.training_mmu_cycles / epoch_cycles
}

/// One device's share of a fleet run.
#[derive(Debug, Clone)]
pub struct DeviceOutcome {
    /// Device name (from its `AcceleratorConfig`).
    pub name: String,
    /// Requests the router dispatched to this device.
    pub assigned_requests: usize,
    /// Free-training epochs harvested ([`free_epochs`]).
    pub free_epochs: f64,
    /// Inference energy served by this device, joules. Priced only by
    /// the surrogate, from its table's energy envelope (0 under a
    /// one-point [`crate::FittedTable::fixed`] table); 0 under
    /// cycle-accurate evaluation.
    pub inference_energy_j: f64,
    /// The full per-device simulation report.
    pub report: SimReport,
}

/// The merged result of a fleet run.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Routing policy name ([`crate::RoutingPolicy::name`]).
    pub policy: &'static str,
    /// Admission policy name ([`crate::AdmissionSpec::name`]).
    pub admission: &'static str,
    /// Simulated horizon in reference-clock cycles (device 0's clock).
    pub horizon_cycles: u64,
    /// The reference clock, Hz.
    pub freq_hz: f64,
    /// Arrivals offered to the front end (before admission control).
    pub offered_requests: usize,
    /// Requests the admission policy rejected at the fleet edge (not
    /// counted in [`FleetReport::total_violations`], which stays the
    /// device-side SLO ledger; the per-class ledgers account for them).
    pub admission_shed_requests: usize,
    /// Per-class QoS ledgers in [`RequestClass::ALL`] order (paid,
    /// free): offered/shed counts are exact at the fleet edge;
    /// completions are attributed on surrogate devices (see
    /// [`ClassLedger`]).
    pub class_ledgers: Vec<ClassLedger>,
    /// Autoscaling transitions, in time order (empty without an
    /// autoscale policy).
    pub scaling_spans: Vec<ScalingSpan>,
    /// Gradient-synchronization accounting; present only when the
    /// fleet carries an interconnect
    /// ([`crate::Fleet::with_interconnect`]).
    pub sync: Option<SyncReport>,
    /// Per-device outcomes, in device-index order.
    pub devices: Vec<DeviceOutcome>,
    /// Fleet-wide latency distribution: every device's measured
    /// samples as one tail, sharing the devices' sorted runs
    /// ([`LatencyStats::merged`]); its quantiles select across them.
    pub latency: LatencyStats,
}

impl FleetReport {
    /// Requests that passed admission control.
    pub fn admitted_requests(&self) -> usize {
        self.offered_requests - self.admission_shed_requests
    }

    /// The QoS ledger of one priority tier.
    pub fn class_ledger(&self, class: RequestClass) -> &ClassLedger {
        &self.class_ledgers[class.index()]
    }

    /// Requests completed across the fleet.
    pub fn completed_requests(&self) -> u64 {
        self.devices.iter().map(|d| d.report.completed_requests).sum()
    }

    /// Aggregate inference throughput, Ops/s.
    pub fn inference_throughput_ops(&self) -> f64 {
        self.devices.iter().map(|d| d.report.inference_throughput_ops).sum()
    }

    /// Aggregate inference throughput, TOp/s.
    pub fn inference_tops(&self) -> f64 {
        self.inference_throughput_ops() / 1e12
    }

    /// Aggregate harvested training throughput, TOp/s.
    pub fn training_tops(&self) -> f64 {
        self.devices.iter().map(|d| d.report.training_tops()).sum()
    }

    /// Fleet-wide free-training epochs harvested.
    pub fn free_epochs(&self) -> f64 {
        self.devices.iter().map(|d| d.free_epochs).sum()
    }

    /// Fleet-wide free epochs once gradient synchronization is paid
    /// for: the interconnect's synced figure when one is attached, the
    /// raw harvest otherwise (no interconnect — replicas are free and
    /// independent, the pre-interconnect convention).
    pub fn synced_free_epochs(&self) -> f64 {
        self.sync
            .as_ref()
            .map_or_else(|| self.free_epochs(), |s| s.synced_free_epochs)
    }

    /// Deadline misses attributable to interconnect congestion, summed
    /// over the class ledgers (0 without an interconnect).
    pub fn sync_deadline_misses(&self) -> usize {
        self.class_ledgers.iter().map(|l| l.sync_deadline_misses).sum()
    }

    /// Fleet-wide inference energy, joules (nonzero only where fitted
    /// devices served traffic — see
    /// [`DeviceOutcome::inference_energy_j`]).
    pub fn inference_energy_j(&self) -> f64 {
        self.devices.iter().map(|d| d.inference_energy_j).sum()
    }

    /// Fleet-wide free-training epochs displaced by attributed traffic,
    /// per class (the per-tier harvest ledger; nonzero only where
    /// surrogate devices co-host training).
    pub fn displaced_epochs(&self, class: RequestClass) -> f64 {
        self.class_ledger(class).displaced_epochs
    }

    /// Requests shed by device-local load shedding across the fleet
    /// (fleet-edge admission sheds are in
    /// [`FleetReport::admission_shed_requests`]).
    pub fn shed_requests(&self) -> u64 {
        self.devices.iter().map(|d| d.report.shed_requests).sum()
    }

    /// Requests dropped with corrupted batches across the fleet,
    /// warm-up included (the SLO ledgers' counts are in
    /// [`FleetReport::total_violations`]).
    pub fn dropped_requests(&self) -> u64 {
        self.devices.iter().map(|d| d.report.dropped_requests).sum()
    }

    /// Deadline misses across the fleet.
    pub fn deadline_misses(&self) -> usize {
        self.slo_ledger(|s| s.deadline_misses)
    }

    /// SLO-measured requests across the fleet.
    pub fn measured_requests(&self) -> usize {
        self.slo_ledger(|s| s.measured_requests)
    }

    /// Total SLO violations (misses + shed + dropped) across the fleet.
    pub fn total_violations(&self) -> usize {
        self.slo_ledger(equinox_sim::SloReport::total_violations)
    }

    /// Violations over measured requests, fleet-wide.
    pub fn violation_rate(&self) -> f64 {
        let measured = self.measured_requests();
        if measured == 0 {
            0.0
        } else {
            self.total_violations() as f64 / measured as f64
        }
    }

    /// True if no device recorded any SLO violation.
    pub fn slo_clean(&self) -> bool {
        self.total_violations() == 0
    }

    /// Fleet-wide 99th-percentile latency, ms.
    pub fn p99_ms(&self) -> f64 {
        self.latency.p99() * 1e3
    }

    /// Fleet-wide 99.9th-percentile latency, ms.
    pub fn p999_ms(&self) -> f64 {
        self.latency.p999() * 1e3
    }

    fn slo_ledger(&self, field: impl Fn(&equinox_sim::SloReport) -> usize) -> usize {
        self.devices
            .iter()
            .filter_map(|d| d.report.slo.as_ref())
            .map(field)
            .sum()
    }
}

impl std::fmt::Display for FleetReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Fleet[{} devices, {}]: {} offered, {} completed, {:.1} TOp/s inf, \
             {:.1} TOp/s train, {:.2} free epochs, p99 {:.3} ms, p999 {:.3} ms, \
             {} violation(s)",
            self.devices.len(),
            self.policy,
            self.offered_requests,
            self.completed_requests(),
            self.inference_tops(),
            self.training_tops(),
            self.free_epochs(),
            self.p99_ms(),
            self.p999_ms(),
            self.total_violations(),
        )?;
        for (i, d) in self.devices.iter().enumerate() {
            writeln!(
                f,
                "  [{i}] {:<14} {:>7} req  {:>6.1} TOp/s inf  {:>6.1} TOp/s train  \
                 {:>6.2} epochs",
                d.name,
                d.assigned_requests,
                d.report.inference_tops(),
                d.report.training_tops(),
                d.free_epochs,
            )?;
        }
        if self.admission != "admit_all" || self.admission_shed_requests > 0 {
            writeln!(
                f,
                "  admission {}: {} shed at the edge",
                self.admission, self.admission_shed_requests
            )?;
        }
        for l in &self.class_ledgers {
            if l.class == RequestClass::Free && l.offered_requests == 0 {
                continue;
            }
            if self.admission == "admit_all" && self.class_ledgers[1].offered_requests == 0 {
                // Single-tier admit-all runs: the ledger restates the
                // headline numbers, skip it.
                continue;
            }
            write!(
                f,
                "  {:<4} tier: {} offered, {} shed, {} completed, {} missed, \
                 p999 {:.3} ms",
                l.class.name(),
                l.offered_requests,
                l.shed_requests,
                l.completed_requests,
                l.deadline_misses,
                l.p999_s() * 1e3,
            )?;
            if l.displaced_epochs > 0.0 {
                write!(f, ", displaced {:.2} epochs", l.displaced_epochs)?;
            }
            writeln!(f)?;
        }
        if let Some(s) = &self.sync {
            writeln!(f, "  {s}")?;
        }
        if !self.scaling_spans.is_empty() {
            let joins = self
                .scaling_spans
                .iter()
                .filter(|s| s.kind == crate::autoscale::ScalingKind::Join)
                .count();
            writeln!(
                f,
                "  autoscale: {} join(s), {} drain(s)",
                joins,
                self.scaling_spans.len() - joins
            )?;
        }
        Ok(())
    }
}
