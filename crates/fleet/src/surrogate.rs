//! The surrogate walk: an analytic device evaluator.
//!
//! A [`Fidelity::Fitted`](crate::Fidelity::Fitted) device skips the
//! discrete-event engine and answers from a closed-form walk over its
//! arrival stream. The walk mirrors the dispatcher's batch-formation
//! rules exactly — full batches issue at their last arrival, adaptive
//! batching issues the partial batch when the oldest waiting request
//! has aged `threshold × nominal service`, static batching never issues
//! a partial — and serves batches back to back on one MMU. Each batch's
//! occupancy, contention stretch, and energy are drawn from the
//! device's [`FittedTable`], from the grid selected by the queue depth
//! at formation, on a device-local seeded stream. The table decides
//! what the answer means:
//!
//! - A table fitted against the engine ([`FittedTable::fit`]) makes
//!   latencies distributionally faithful inside the static envelope,
//!   and harvest additionally credits the co-run share training
//!   receives while a stretched batch is in flight.
//! - A one-point table ([`FittedTable::fixed`]) at the *upper* static
//!   bound makes the result deliberately one-sided. Latency is
//!   conservative: real service never exceeds the upper bound (the
//!   bounds pass's soundness claim, calibrated by the `bounds` regen
//!   gate), and a single serial server with no overlap is the slowest
//!   legal schedule. Harvest is conservative: at stretch 1 training is
//!   credited only for cycles the MMU is fully idle, capped by what
//!   DRAM staging can feed — never the co-run share the engine's
//!   priority/fair schedulers award while inference is in flight. At
//!   the *nominal* service time the walk is the engine's own queue.
//!
//! Admission-control load shedding (`DegradationPolicy::shed_above`)
//! *is* modelled, with the engine's exact rule: an arrival is shed when
//! the queue of forming plus formed-but-not-yet-in-service requests is
//! at or beyond the threshold, and shed counts land in the same
//! `SimReport`/`SloReport` fields the engine fills — never a hardcoded
//! zero. The walk also records a `RequestOutcome` per arrival
//! (completed with its latency, shed, or stranded at the horizon),
//! which is what lets the fleet layer attribute per-class SLO ledgers
//! without re-deriving request fates from sorted aggregates.
//!
//! Faults, software scheduling, and the remaining degradation knobs
//! (training preemption, batch shrinking, retries) are *not* modelled;
//! [`crate::Fleet::new`] rejects surrogate devices that request them.

use crate::device::DeviceSpec;
use crate::fitted::FittedTable;
use equinox_arith::rng::SplitMix64;
use equinox_sim::{
    BatchingPolicy, CostModel, CycleBreakdown, LatencyStats, SimReport, SloReport, SloSpec,
    WARMUP_FRACTION,
};
use std::collections::VecDeque;

/// The fate of one request under the surrogate walk, in arrival order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum RequestOutcome {
    /// Served to completion inside the horizon. `measured` is the
    /// engine's warmup rule: the arrival fell past the warmup window,
    /// so the latency sample counts toward the report.
    Completed {
        latency_s: f64,
        measured: bool,
        /// This request's share of its batch's MMU occupancy cycles —
        /// the currency of harvest displacement attribution.
        busy_cycles: f64,
    },
    /// Turned away by the device's `shed_above` admission control.
    Shed { measured: bool },
    /// Still forming, queued, or in flight at the horizon. `missed` is
    /// the engine's stranded rule: past warmup with the deadline
    /// already expired, so it counts as a deadline miss.
    Stranded { missed: bool },
}

/// A surrogate evaluation: the engine-shaped report plus the
/// per-request outcome trace backing it.
pub(crate) struct SurrogateRun {
    pub report: SimReport,
    /// One outcome per input arrival, in input order.
    pub outcomes: Vec<RequestOutcome>,
    /// Inference energy of the completed batches, joules (0 under a
    /// one-point table, which prices no energy).
    pub energy_j: f64,
}

/// The incremental walk state: a serial server, priced by draws from
/// the device's table, behind the dispatcher's batch-formation front
/// end.
struct Walk<'a> {
    arrivals: &'a [u64],
    n: usize,
    table: &'a FittedTable,
    /// The device-local stream of per-batch uniforms.
    rng: SplitMix64,
    /// Whether training co-runs, so draws stretch past occupancy (an
    /// inference-only device has nothing to stretch against and serves
    /// at occupancy).
    harvesting: bool,
    horizon: f64,
    warmup: f64,
    freq: f64,
    deadline_s: Option<f64>,
    useful: f64,
    mmu_busy: f64,
    stall: f64,
    nominal: f64,
    /// Indices of requests still forming a batch.
    forming: Vec<usize>,
    /// Formed batches not yet in service by the walk's clock:
    /// `(member count, service start)`. Starts are monotone, so a
    /// deque pointer mirrors the engine's formed queue.
    pending: VecDeque<(usize, f64)>,
    /// Forming + pending members — the queue `shed_above` measures.
    queued: usize,
    /// End of the serial server's schedule tail.
    tail_busy: f64,
    outcomes: Vec<RequestOutcome>,
    breakdown: CycleBreakdown,
    latencies: Vec<f64>,
    inference_busy: f64,
    /// Training's co-run MMU share while stretched batches were in
    /// flight: Σ (duration − occupancy) over completed batches. Zero
    /// when every draw has stretch 1.
    corun_cycles: f64,
    /// Inference energy of completed batches, joules.
    energy_j: f64,
    completed: u64,
    completed_measured: usize,
    deadline_misses: usize,
    batches_issued: u64,
    incomplete_batches: u64,
    peak_queue: usize,
    shed_total: u64,
    shed_measured: usize,
    stranded_count: usize,
    stranded_misses: usize,
}

impl Walk<'_> {
    /// The engine's stranded-miss rule for an arrival still queued at
    /// the horizon.
    fn stranded_missed(&self, a: u64) -> bool {
        let Some(deadline_s) = self.deadline_s else { return false };
        (a as f64) >= self.warmup && (self.horizon - a as f64) / self.freq > deadline_s
    }

    /// Forms one batch at `ready`, prices it with one table draw,
    /// schedules it on the serial server, and resolves its members'
    /// fates (the schedule is deterministic, so fate is known at
    /// formation). Members stay in `queued` via `pending` until their
    /// service start passes the walk's clock.
    fn form_batch(&mut self, members: Vec<usize>, ready: f64) {
        self.batches_issued += 1;
        let real = members.len();
        // The fitted table's contention proxy: the backlog behind this
        // batch (the engine's sampler measures the queue after the
        // serviced batch leaves it).
        let depth = self.queued.saturating_sub(real);
        let draw = self.table.sample(depth, self.rng.next_f64());
        let occupancy = draw.occupancy_cycles;
        let duration = if self.harvesting { draw.duration_cycles } else { occupancy };
        let start = self.tail_busy.max(ready);
        let end = start + duration;
        self.tail_busy = end;
        self.pending.push_back((real, start));
        if end > self.horizon {
            // The server is serial and starts are monotone: this batch
            // and every later one miss the horizon.
            for &i in &members {
                let missed = self.stranded_missed(self.arrivals[i]);
                self.outcomes[i] = RequestOutcome::Stranded { missed };
                self.stranded_count += 1;
                if missed {
                    self.stranded_misses += 1;
                }
            }
            return;
        }
        self.inference_busy += duration;
        self.corun_cycles += duration - occupancy;
        self.energy_j += draw.energy_j;
        if real < self.n {
            self.incomplete_batches += 1;
        }
        let busy_cycles = occupancy / real as f64;
        for &i in &members {
            self.completed += 1;
            let a = self.arrivals[i] as f64;
            let latency_s = (end - a) / self.freq;
            let measured = a >= self.warmup;
            self.outcomes[i] = RequestOutcome::Completed { latency_s, measured, busy_cycles };
            if measured {
                self.latencies.push(latency_s);
                self.completed_measured += 1;
                if self.deadline_s.is_some_and(|d| latency_s > d) {
                    self.deadline_misses += 1;
                }
            }
        }
        // The engine's per-batch Figure 8 accounting, plus the draw's
        // pessimism cycles (occupancy above nominal) as wasted time.
        self.breakdown.working += self.useful * real as f64 / self.n as f64;
        self.breakdown.dummy += self.useful * (self.n - real) as f64 / self.n as f64;
        self.breakdown.other +=
            (self.mmu_busy - self.useful) + self.stall + (occupancy - self.nominal).max(0.0);
    }
}

/// The DRAM-capped fraction of an idle MMU cycle the device's training
/// service can actually use: staging supply over the profile's
/// bytes-per-executed-cycle appetite, capped at 1. Zero without a
/// co-hosted profile.
pub(crate) fn idle_harvest_rate(spec: &DeviceSpec) -> f64 {
    let Some(profile) = spec.training.as_ref() else { return 0.0 };
    let bytes_per_exec =
        profile.iteration_dram_bytes as f64 / profile.iteration_mmu_cycles as f64;
    let supply = CostModel::from_config(&spec.config).dram_bytes_per_cycle;
    if bytes_per_exec > 0.0 {
        (supply / bytes_per_exec).min(1.0)
    } else {
        1.0
    }
}

/// Evaluates `spec`'s share of the traffic with the surrogate walk,
/// keeping the per-request outcome trace (see the module docs).
/// `arrivals` are sorted device-clock cycles; per-batch service is
/// drawn from `table` on a device-local stream seeded with `seed` (the
/// fleet passes stream `2 + device_index`, see the crate docs), so the
/// result is a pure function of the inputs at any thread count. The
/// embedded report has the same shape the engine produces, so fleet
/// merging is fidelity-agnostic.
pub(crate) fn run(
    spec: &DeviceSpec,
    table: &FittedTable,
    arrivals: &[u64],
    horizon: u64,
    slo: Option<SloSpec>,
    seed: u64,
) -> SurrogateRun {
    let freq = spec.config.freq_hz;
    let timing = &spec.timing;
    let n = timing.batch.max(1);
    // The dispatcher's formation deadline is keyed to the *nominal*
    // service time (it is a policy of the real hardware, not of the
    // bound), exactly as in the engine.
    let threshold = match spec.config.batching {
        BatchingPolicy::Static => None,
        BatchingPolicy::Adaptive { threshold_x } => {
            Some(threshold_x * timing.total_cycles as f64)
        }
    };
    let shed_above = spec.config.degradation.shed_above;
    let mut walk = Walk {
        arrivals,
        n,
        table,
        rng: SplitMix64::seed_from_u64(seed),
        harvesting: spec.harvests(),
        horizon: horizon as f64,
        warmup: horizon as f64 * WARMUP_FRACTION,
        freq,
        deadline_s: slo.map(|s| s.deadline_s),
        useful: timing.mmu_busy_cycles as f64 * timing.mmu_utilization,
        mmu_busy: timing.mmu_busy_cycles as f64,
        stall: timing.stall_cycles as f64,
        nominal: timing.total_cycles as f64,
        forming: Vec::new(),
        pending: VecDeque::new(),
        queued: 0,
        tail_busy: 0.0,
        outcomes: vec![RequestOutcome::Stranded { missed: false }; arrivals.len()],
        breakdown: CycleBreakdown::default(),
        latencies: Vec::new(),
        inference_busy: 0.0,
        corun_cycles: 0.0,
        energy_j: 0.0,
        completed: 0,
        completed_measured: 0,
        deadline_misses: 0,
        batches_issued: 0,
        incomplete_batches: 0,
        peak_queue: 0,
        shed_total: 0,
        shed_measured: 0,
        stranded_count: 0,
        stranded_misses: 0,
    };

    for (i, &t) in arrivals.iter().enumerate() {
        let ta = t as f64;
        // Adaptive formation deadline that expired before this arrival
        // (the engine fires it as its own timer event).
        if let (Some(thr), Some(&first)) = (threshold, walk.forming.first()) {
            let deadline = arrivals[first] as f64 + thr;
            if deadline <= ta {
                let members = std::mem::take(&mut walk.forming);
                walk.form_batch(members, deadline);
            }
        }
        // Batches whose service started strictly before this arrival
        // have left the dispatcher's queue (the engine dispatches in
        // `settle` after processing same-instant arrivals, so a batch
        // starting exactly now still counts as queued).
        while let Some(&(m, start)) = walk.pending.front() {
            if start < ta {
                walk.queued -= m;
                walk.pending.pop_front();
            } else {
                break;
            }
        }
        // Admission control: the engine's shed rule, verbatim.
        if let Some(k) = shed_above {
            if walk.queued >= k {
                let measured = ta >= walk.warmup;
                walk.outcomes[i] = RequestOutcome::Shed { measured };
                walk.shed_total += 1;
                if measured {
                    walk.shed_measured += 1;
                }
                continue;
            }
        }
        walk.forming.push(i);
        walk.queued += 1;
        walk.peak_queue = walk.peak_queue.max(walk.queued);
        if walk.forming.len() >= n {
            let members = std::mem::take(&mut walk.forming);
            walk.form_batch(members, ta);
        }
    }
    // Trailing adaptive partial whose deadline still fits the horizon.
    if let (Some(thr), Some(&first)) = (threshold, walk.forming.first()) {
        let deadline = arrivals[first] as f64 + thr;
        if deadline < horizon as f64 {
            let members = std::mem::take(&mut walk.forming);
            walk.form_batch(members, deadline);
        }
    }
    // Whatever is still forming at the horizon is stranded.
    for &i in &walk.forming {
        let missed = walk.stranded_missed(arrivals[i]);
        walk.outcomes[i] = RequestOutcome::Stranded { missed };
        walk.stranded_count += 1;
        if missed {
            walk.stranded_misses += 1;
        }
    }
    let final_queue_depth = walk.stranded_count;
    let peak_queue = walk.peak_queue.max(final_queue_depth);

    // Harvest: idle cycles DRAM-capped, plus the co-run share training
    // received while stretched batches were in flight (none at stretch
    // 1, which is what keeps a one-point table conservative).
    let idle = (horizon as f64 - walk.inference_busy).max(0.0);
    let (training_cycles, idle_harvest, training_macs) = if walk.harvesting {
        let profile = spec.training.as_ref().expect("a harvesting device co-hosts training");
        let idle_harvest = idle * idle_harvest_rate(spec);
        let cycles = walk.corun_cycles + idle_harvest;
        let macs_per_cycle =
            profile.iteration_macs as f64 / profile.iteration_mmu_cycles as f64;
        (cycles, idle_harvest, cycles * macs_per_cycle)
    } else {
        (0.0, 0.0, 0.0)
    };
    let mut breakdown = walk.breakdown;
    breakdown.working += training_cycles;
    breakdown.idle = (idle - idle_harvest).max(0.0);

    let elapsed_s = horizon as f64 / freq;
    let measured_s = elapsed_s * (1.0 - WARMUP_FRACTION);
    let latency = LatencyStats::from_samples(walk.latencies);
    let slo_report = slo.map(|spec| SloReport {
        deadline_s: spec.deadline_s,
        measured_requests: walk.completed_measured + walk.shed_measured + walk.stranded_misses,
        deadline_misses: walk.deadline_misses + walk.stranded_misses,
        shed_requests: walk.shed_measured,
        dropped_requests: 0,
        p999_s: latency.p999(),
        peak_queue_depth: peak_queue,
        final_queue_depth,
        corrupted_batches: 0,
        retried_batches: 0,
        dropped_batches: 0,
        recovery_cycles: None,
        recovered: true,
    });
    let report = SimReport {
        name: spec.config.name.clone(),
        horizon_cycles: horizon,
        freq_hz: freq,
        latency,
        completed_requests: walk.completed,
        inference_throughput_ops: 2.0
            * walk.completed_measured as f64
            * timing.macs_per_request as f64
            / measured_s,
        training_throughput_ops: 2.0 * training_macs / elapsed_s,
        training_mmu_cycles: training_cycles,
        breakdown,
        batches_issued: walk.batches_issued,
        incomplete_batches: walk.incomplete_batches,
        training_blocks: 0,
        shed_requests: walk.shed_total,
        dropped_requests: 0,
        slo: slo_report,
    };
    SurrogateRun { report, outcomes: walk.outcomes, energy_j: walk.energy_j }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::tests::test_device;
    use equinox_sim::loadgen::poisson_arrivals;
    use equinox_sim::{BatchSample, FaultScenario};

    /// Arrivals at `load ×` the device's saturation rate.
    fn arrivals_at(load: f64, horizon: u64, seed: u64) -> Vec<u64> {
        let d = test_device("d0", 1e9, false);
        let rate = load * d.max_request_rate_per_s() / 1e9;
        poisson_arrivals(rate, horizon, seed).unwrap()
    }

    /// Arrivals at 30 % of the device's saturation rate.
    fn light_arrivals(horizon: u64) -> Vec<u64> {
        arrivals_at(0.3, horizon, 7)
    }

    /// The walk over a one-point table charging `service_cycles` a
    /// batch.
    fn run_fixed(
        d: &DeviceSpec,
        service_cycles: u64,
        arrivals: &[u64],
        horizon: u64,
        slo: Option<SloSpec>,
    ) -> SurrogateRun {
        let table = FittedTable::fixed("test", d.timing.batch, service_cycles).unwrap();
        run(d, &table, arrivals, horizon, slo, 0)
    }

    #[test]
    fn exact_bounds_reproduce_the_engine_on_light_traffic() {
        // With lower = upper = the nominal service time, the surrogate
        // and the engine implement the same queue; their latency
        // distributions must agree to the engine's event epsilons.
        let d = test_device("d0", 1e9, false);
        let horizon = 2_000 * 16_000;
        let arrivals = light_arrivals(horizon);
        let slo = Some(SloSpec::new(16.0 * 16_000.0 / 1e9).unwrap());
        let surrogate =
            run_fixed(&d, d.timing.total_cycles, &arrivals, horizon, slo).report;
        let engine = d
            .simulation()
            .unwrap()
            .run_faulted(&arrivals, horizon, &FaultScenario::baseline(), slo)
            .unwrap();
        assert_eq!(surrogate.completed_requests, engine.completed_requests);
        assert_eq!(surrogate.batches_issued, engine.batches_issued);
        assert_eq!(surrogate.incomplete_batches, engine.incomplete_batches);
        assert_eq!(surrogate.latency.count(), engine.latency.count());
        for (a, b) in surrogate.latency.samples().iter().zip(engine.latency.samples()) {
            assert!((a - b).abs() * 1e9 < 1.0, "{a} vs {b}");
        }
        assert_eq!(
            surrogate.slo.as_ref().unwrap().deadline_misses,
            engine.slo.as_ref().unwrap().deadline_misses
        );
    }

    #[test]
    fn looser_upper_bounds_only_raise_latency() {
        let d = test_device("d0", 1e9, false);
        let horizon = 2_000 * 16_000;
        let arrivals = light_arrivals(horizon);
        let tight = run_fixed(&d, d.timing.total_cycles, &arrivals, horizon, None).report;
        let loose =
            run_fixed(&d, 2 * d.timing.total_cycles, &arrivals, horizon, None).report;
        assert!(loose.latency.max() > tight.latency.max());
        assert!(loose.latency.p99() >= tight.latency.p99());
        // Pessimism cycles land in `other`, not in useful work (the
        // slower server may also complete fewer batches, so useful
        // work can only shrink).
        assert!(loose.breakdown.other > tight.breakdown.other);
        assert!(loose.breakdown.working <= tight.breakdown.working);
    }

    #[test]
    fn static_batching_strands_the_partial_tail() {
        let mut d = test_device("d0", 1e9, false);
        d.config.batching = BatchingPolicy::Static;
        let horizon: u64 = 1_000_000;
        // 4 requests on a batch-16 device: no batch ever forms.
        let arrivals: Vec<u64> = (0..4).map(|i| horizon / 2 + i).collect();
        let slo = Some(SloSpec::new(1e-6).unwrap());
        let r = run_fixed(&d, d.timing.total_cycles, &arrivals, horizon, slo).report;
        assert_eq!(r.completed_requests, 0);
        assert_eq!(r.batches_issued, 0);
        let s = r.slo.unwrap();
        assert_eq!(s.final_queue_depth, 4);
        assert_eq!(s.deadline_misses, 4, "stranded requests count as misses");
    }

    #[test]
    fn idle_harvest_is_conservative_against_the_engine() {
        // No traffic at all: the engine harvests with the whole machine
        // too, so the surrogate must match it up to DRAM capping; with
        // light traffic the surrogate must never credit more than the
        // engine's co-run-aware accounting.
        let d = test_device("d0", 1e9, true);
        let horizon = 2_000 * 16_000;
        let quiet = run_fixed(&d, d.timing.total_cycles, &[], horizon, None).report;
        assert!(quiet.training_mmu_cycles > 0.0);
        let engine_quiet = d
            .simulation()
            .unwrap()
            .run_faulted(&[], horizon, &FaultScenario::baseline(), None)
            .unwrap();
        assert!(
            quiet.training_mmu_cycles <= engine_quiet.training_mmu_cycles + 1.0,
            "{} vs {}",
            quiet.training_mmu_cycles,
            engine_quiet.training_mmu_cycles
        );
        let arrivals = light_arrivals(horizon);
        let busy = run_fixed(&d, d.timing.total_cycles, &arrivals, horizon, None).report;
        let engine_busy = d
            .simulation()
            .unwrap()
            .run_faulted(&arrivals, horizon, &FaultScenario::baseline(), None)
            .unwrap();
        assert!(
            busy.training_mmu_cycles <= engine_busy.training_mmu_cycles + 1.0,
            "{} vs {}",
            busy.training_mmu_cycles,
            engine_busy.training_mmu_cycles
        );
    }

    #[test]
    fn shed_counts_are_honest_against_the_engine() {
        // A shedding device under 1.5× overload, exact bounds: the
        // surrogate implements the engine's shed rule over the same
        // queue, so the shed ledger must agree — not be hardcoded zero.
        let mut d = test_device("d0", 1e9, false);
        d.config.degradation.shed_above = Some(8 * 16);
        let horizon = 2_000 * 16_000;
        let arrivals = arrivals_at(1.5, horizon, 11);
        let slo = Some(SloSpec::new(16.0 * 16_000.0 / 1e9).unwrap());
        let surrogate =
            run_fixed(&d, d.timing.total_cycles, &arrivals, horizon, slo).report;
        let engine = d
            .simulation()
            .unwrap()
            .run_faulted(&arrivals, horizon, &FaultScenario::baseline(), slo)
            .unwrap();
        assert!(surrogate.shed_requests > 0, "overload must shed");
        assert_eq!(surrogate.shed_requests, engine.shed_requests);
        assert_eq!(
            surrogate.slo.as_ref().unwrap().shed_requests,
            engine.slo.as_ref().unwrap().shed_requests
        );
        assert_eq!(surrogate.completed_requests, engine.completed_requests);
        // Shedding bounds the queue at the threshold.
        assert!(surrogate.slo.as_ref().unwrap().peak_queue_depth <= 8 * 16 + 16);
    }

    /// A single-bucket table whose every draw is the device's nominal
    /// occupancy at the given stretch, pricing `energy` joules a batch.
    fn degenerate_table(d: &DeviceSpec, stretch: f64, energy: f64) -> FittedTable {
        let nominal = d.timing.total_cycles;
        let samples: Vec<BatchSample> = (0..64)
            .map(|i| BatchSample {
                queue_depth: i % 64,
                real: d.timing.batch,
                start_cycle: 0.0,
                end_cycle: nominal as f64 * stretch,
                occupancy_cycles: nominal as f64,
            })
            .collect();
        FittedTable::fit(
            &d.config.name,
            d.timing.batch,
            nominal,
            nominal,
            energy,
            energy,
            vec![],
            &samples,
        )
        .unwrap()
    }

    #[test]
    fn fitted_stretch_lengthens_latency_and_credits_corun_harvest() {
        let d = test_device("d0", 1e9, true);
        let horizon = 2_000 * 16_000;
        let arrivals = light_arrivals(horizon);
        let calm = degenerate_table(&d, 1.0, 0.5);
        let stretched = degenerate_table(&d, 2.0, 0.5);
        let a = run(&d, &calm, &arrivals, horizon, None, 7);
        let b = run(&d, &stretched, &arrivals, horizon, None, 7);
        // Every draw of a one-point grid is the same, so the draw seed
        // changes nothing.
        let reseeded = run(&d, &calm, &arrivals, horizon, None, 8);
        assert_eq!(reseeded.report.latency.samples(), a.report.latency.samples());
        assert!(
            b.report.latency.p99() > a.report.latency.p99(),
            "contention stretch must lengthen the tail: {} vs {}",
            b.report.latency.p99(),
            a.report.latency.p99()
        );
        // Both harvest; the stretched run's occupancy cycles co-run
        // with training (duration − occupancy is credited), so the
        // harvest does not collapse even though wall-clock busy
        // doubles.
        assert!(a.report.training_mmu_cycles > 0.0);
        assert!(
            b.report.training_mmu_cycles > 0.6 * a.report.training_mmu_cycles,
            "co-run credit must keep the stretched harvest close: {} vs {}",
            b.report.training_mmu_cycles,
            a.report.training_mmu_cycles
        );
        // Completed outcomes carry their occupancy share for
        // displacement attribution.
        let busy: f64 = b
            .outcomes
            .iter()
            .map(|o| match o {
                RequestOutcome::Completed { busy_cycles, .. } => *busy_cycles,
                _ => 0.0,
            })
            .sum();
        // Each completed batch's members share exactly its occupancy
        // (here the nominal), so the total is a whole number of
        // batches — at least as many as the completed requests fill.
        let batches = busy / d.timing.total_cycles as f64;
        assert!(
            (batches - batches.round()).abs() < 1e-6,
            "busy shares must sum to whole batches of occupancy, got {batches}"
        );
        assert!(batches >= b.report.completed_requests as f64 / d.timing.batch as f64);
        // The energy ledger prices exactly 0.5 J per completed batch.
        assert!(
            (b.energy_j - 0.5 * batches.round()).abs() < 1e-9,
            "{} J for {batches} batches",
            b.energy_j
        );
    }

    #[test]
    fn fitted_draws_depend_on_contention_bucket() {
        // Two buckets: calm below depth 8, stretched above. Overload
        // traffic must land in the slow bucket and show a longer tail
        // than light traffic does.
        let d = test_device("d0", 1e9, true);
        let nominal = d.timing.total_cycles;
        let samples: Vec<BatchSample> = (0..200)
            .map(|i| {
                let (depth, stretch) = if i % 2 == 0 { (0, 1.0) } else { (64, 1.9) };
                BatchSample {
                    queue_depth: depth,
                    real: d.timing.batch,
                    start_cycle: 0.0,
                    end_cycle: nominal as f64 * stretch,
                    occupancy_cycles: nominal as f64,
                }
            })
            .collect();
        let table = FittedTable::fit(
            &d.config.name,
            d.timing.batch,
            nominal,
            nominal,
            0.0,
            0.0,
            vec![8],
            &samples,
        )
        .unwrap();
        let horizon = 2_000 * 16_000;
        let light = run(&d, &table, &arrivals_at(0.2, horizon, 3), horizon, None, 5);
        let heavy = run(&d, &table, &arrivals_at(0.9, horizon, 3), horizon, None, 5);
        assert!(heavy.report.latency.p99() > light.report.latency.p99());
        assert!(heavy.report.training_mmu_cycles > 0.0, "co-run harvest under contention");
    }

    #[test]
    fn outcome_trace_conserves_requests_and_matches_the_report() {
        for (load, shed_above) in [(0.3, None), (1.5, Some(64)), (1.5, None)] {
            let mut d = test_device("d0", 1e9, false);
            d.config.degradation.shed_above = shed_above;
            let horizon = 1_000 * 16_000;
            let arrivals = arrivals_at(load, horizon, 5);
            let slo = Some(SloSpec::new(16.0 * 16_000.0 / 1e9).unwrap());
            let run =
                run_fixed(&d, d.timing.total_cycles, &arrivals, horizon, slo);
            assert_eq!(run.outcomes.len(), arrivals.len());
            let mut completed = 0u64;
            let mut shed = 0u64;
            let mut stranded = 0usize;
            for o in &run.outcomes {
                match o {
                    RequestOutcome::Completed { latency_s, .. } => {
                        assert!(*latency_s > 0.0);
                        completed += 1;
                    }
                    RequestOutcome::Shed { .. } => shed += 1,
                    RequestOutcome::Stranded { .. } => stranded += 1,
                }
            }
            assert_eq!(completed, run.report.completed_requests, "load {load}");
            assert_eq!(shed, run.report.shed_requests, "load {load}");
            assert_eq!(
                stranded,
                run.report.slo.as_ref().unwrap().final_queue_depth,
                "load {load}"
            );
            assert_eq!(completed + shed + stranded as u64, arrivals.len() as u64);
        }
    }
}
