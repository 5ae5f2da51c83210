//! Gradient synchronization: the bridge between a fleet run and the
//! `equinox-net` packet layer.
//!
//! Harvested free epochs were, until this layer existed, per-device
//! fictions: each device trained its own replica and nothing ever paid
//! for combining gradients. With an
//! [`InterconnectSpec`] attached, every
//! free epoch must ship the model's gradient bytes through an
//! all-reduce round over the harvesting participants, contending with
//! the fleet's inference-DMA and harvest-staging traffic. The rounds
//! of one run are statistically identical (the background combs are
//! periodic and the schedule is fixed), so one round is simulated and
//! its cost applied analytically to every epoch:
//!
//! * Synchronous data-parallel training runs at the slowest
//!   participant's pace: with `e_min` the minimum per-participant raw
//!   free epochs over the horizon `H`, each epoch's wall time grows
//!   from `H / e_min` to `H / e_min + round_cycles`, so each
//!   participant completes `e_min / (1 + round_cycles · e_min / H)`
//!   synced epochs and the fleet total is `k ×` that.
//! * An aborted, deadlocked, or truncated round means the fleet never
//!   synchronizes: synced epochs are zero (raw harvest is unchanged —
//!   the cycles were still stolen, they just trained nothing global).
//! * The mean queueing delay the round's congestion added to the
//!   background DMA packets is charged to every attributed request
//!   latency sample as [`ClassLedger::sync_delay_s`], and completions
//!   pushed past the deadline by exactly that surcharge are recounted
//!   as [`ClassLedger::sync_deadline_misses`].

use crate::cluster::{FleetRunOptions, INTERCONNECT_STREAM};
use crate::device::DeviceSpec;
use crate::report::DeviceOutcome;
use equinox_isa::EquinoxError;
use equinox_net::{run_allreduce_round, InterconnectSpec};
use equinox_sim::loadgen::split_seed;
use equinox_sim::ClassLedger;

/// The interconnect's verdict on one fleet run: what one all-reduce
/// round cost, what the fleet's harvest is worth once every free epoch
/// pays for it, and what the congestion did to the inference path.
#[derive(Debug, Clone, PartialEq)]
pub struct SyncReport {
    /// Fabric topology name.
    pub topology: &'static str,
    /// Switching policy name.
    pub switching: &'static str,
    /// All-reduce schedule name.
    pub schedule: &'static str,
    /// Harvesting participants (devices with a training service and a
    /// scheduler that grants it cycles).
    pub participants: usize,
    /// Simulated cycles one all-reduce round takes on the loaded
    /// fabric (0 with fewer than two participants).
    pub round_cycles: u64,
    /// Go-back-N timeout firings during the round.
    pub retries: u64,
    /// Flows that exhausted their retry budget.
    pub aborted_flows: usize,
    /// True when PFC backpressure deadlocked the round.
    pub deadlocked: bool,
    /// True when the round hit the engine's event-cap backstop.
    pub truncated: bool,
    /// True when every link's byte conservation held (offered ==
    /// delivered + dropped + still queued at round end).
    pub conserved: bool,
    /// Mean queueing delay of background DMA packets, cycles.
    pub bg_delay_mean_cycles: f64,
    /// 99th-percentile queueing delay of background DMA packets, cycles.
    pub bg_delay_p99_cycles: u64,
    /// Per-link utilization over the round, `(name, fraction)` in
    /// fabric link order.
    pub link_utilization: Vec<(String, f64)>,
    /// The busiest link's utilization.
    pub peak_link_utilization: f64,
    /// Fleet free epochs before paying for synchronization (sum over
    /// participants of their raw harvest).
    pub raw_free_epochs: f64,
    /// Fleet free epochs once every epoch runs at the slowest
    /// participant's pace and pays one all-reduce round; 0 when the
    /// round aborted or deadlocked.
    pub synced_free_epochs: f64,
    /// Fraction of each participant's training wall-clock spent inside
    /// all-reduce rounds (1.0 when the round never completes).
    pub sync_overhead_frac: f64,
    /// The DMA delay surcharge applied to the ledgers, seconds.
    pub sync_delay_s: f64,
}

impl std::fmt::Display for SyncReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "sync[{} all-reduce over {}, {}]: {} participant(s), round {} cycles, \
             {:.2} raw → {:.2} synced epochs ({:.1} % overhead), peak link {:.0} %, \
             bg delay +{:.0} cycles",
            self.schedule,
            self.topology,
            self.switching,
            self.participants,
            self.round_cycles,
            self.raw_free_epochs,
            self.synced_free_epochs,
            self.sync_overhead_frac * 100.0,
            self.peak_link_utilization * 100.0,
            self.bg_delay_mean_cycles,
        )?;
        if self.deadlocked {
            write!(f, ", DEADLOCKED")?;
        } else if self.aborted_flows > 0 {
            write!(f, ", {} flow(s) aborted", self.aborted_flows)?;
        }
        Ok(())
    }
}

/// Devices that participate in gradient synchronization: the
/// harvesting ones ([`DeviceSpec::harvests`]).
pub(crate) fn participant_indices(devices: &[DeviceSpec]) -> Vec<usize> {
    devices
        .iter()
        .enumerate()
        .filter(|(_, d)| d.harvests())
        .map(|(i, _)| i)
        .collect()
}

/// Simulates one all-reduce round on the loaded fabric and folds its
/// cost into the run: the synced-harvest arithmetic above, plus the
/// DMA-delay recount on `class_ledgers`.
pub(crate) fn evaluate_sync(
    spec: &InterconnectSpec,
    devices: &[DeviceSpec],
    outcomes: &[DeviceOutcome],
    class_ledgers: &mut [ClassLedger],
    opts: &FleetRunOptions,
    freq_ref: f64,
) -> Result<SyncReport, EquinoxError> {
    let participants = participant_indices(devices);
    let n = devices.len();
    let horizon = opts.horizon_cycles.max(1) as f64;

    // Per-device background demand on its host link, bytes/cycle over
    // the horizon: inference DMA (activations in and out per issued
    // batch) plus harvest staging (the training service's DRAM
    // appetite, prorated over the MMU cycles it was actually granted).
    // `add_background` caps each at `bg_cap_frac ×` link rate.
    let bg: Vec<f64> = devices
        .iter()
        .zip(outcomes)
        .map(|(d, o)| {
            let mut bytes = o.report.batches_issued as f64 * spec.dma_bytes_per_batch as f64;
            if let Some(p) = &d.training {
                if p.iteration_mmu_cycles > 0 {
                    bytes += o.report.training_mmu_cycles * p.iteration_dram_bytes as f64
                        / p.iteration_mmu_cycles as f64;
                }
            }
            bytes / horizon
        })
        .collect();

    let round = run_allreduce_round(
        spec,
        n,
        &participants,
        &bg,
        split_seed(opts.seed, INTERCONNECT_STREAM),
    )?;

    let k = participants.len();
    let raw_free_epochs: f64 = participants.iter().map(|&i| outcomes[i].free_epochs).sum();
    let (synced_free_epochs, sync_overhead_frac) = if k < 2 {
        // Nothing to combine: a lone trainer (or none) syncs for free.
        (raw_free_epochs, 0.0)
    } else if !round.completed() {
        (0.0, 1.0)
    } else {
        let e_min = participants
            .iter()
            .map(|&i| outcomes[i].free_epochs)
            .fold(f64::INFINITY, f64::min);
        if e_min <= 0.0 {
            (0.0, 0.0)
        } else {
            let per = e_min / (1.0 + round.round_cycles as f64 * e_min / horizon);
            let frac = round.round_cycles as f64 * per / horizon;
            (k as f64 * per, frac)
        }
    };

    // Charge the congestion's mean DMA queueing delay to the request
    // path: attributed completions that made the deadline by less than
    // the surcharge are recounted as interconnect-caused misses.
    let sync_delay_s = if k >= 2 { round.bg_delay_mean_cycles / freq_ref } else { 0.0 };
    if sync_delay_s > 0.0 {
        if let Some(slo) = opts.slo {
            for l in class_ledgers.iter_mut() {
                l.sync_delay_s = sync_delay_s;
                l.sync_deadline_misses =
                    l.latency.count_pushed_past(slo.deadline_s, sync_delay_s);
            }
        }
    }

    Ok(SyncReport {
        topology: spec.topology.name(),
        switching: spec.switching.name(),
        schedule: spec.schedule.name(),
        participants: k,
        round_cycles: round.round_cycles,
        retries: round.retries,
        aborted_flows: round.aborted_flows,
        deadlocked: round.deadlocked,
        truncated: round.truncated,
        conserved: round.conserves(),
        bg_delay_mean_cycles: round.bg_delay_mean_cycles,
        bg_delay_p99_cycles: round.bg_delay_p99_cycles,
        link_utilization: round
            .links
            .iter()
            .map(|l| (l.name.clone(), l.utilization(round.round_cycles)))
            .collect(),
        peak_link_utilization: round.peak_utilization(),
        raw_free_epochs,
        synced_free_epochs,
        sync_overhead_frac,
        sync_delay_s,
    })
}
