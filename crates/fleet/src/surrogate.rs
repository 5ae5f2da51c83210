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
//! is modelled: an arrival is shed when the queue of forming plus
//! formed-but-not-yet-in-service requests is at or beyond the
//! threshold. Every batch and request fate is recorded in the same
//! [`RunLedger`] the engine records into, and in the request's
//! [`ClassLedger`] in the same step, which is how the fleet attributes
//! per-class SLO ledgers.
//!
//! Faults, software scheduling, and the remaining degradation knobs
//! (training preemption, batch shrinking, retries) are *not* modelled;
//! [`crate::Fleet::new`] rejects surrogate devices that request them.

use crate::device::DeviceSpec;
use crate::fitted::FittedTable;
use crate::report::epoch_cycles;
use equinox_arith::rng::SplitMix64;
use equinox_sim::{
    BatchingPolicy, ClassLedger, CostModel, EngineTally, LatencyStats, RequestClass, RunLedger,
    SimReport, SloSpec, TrainingTally,
};
use std::collections::VecDeque;

/// A surrogate evaluation: the engine-shaped report and the per-class
/// ledgers of the same requests.
pub(crate) struct SurrogateRun {
    pub report: SimReport,
    /// Per-class ledgers in [`RequestClass::ALL`] order: sheds,
    /// measured completions and their latencies, deadline misses and
    /// displaced epochs. Offered counts stay zero — the fleet edge owns
    /// them.
    pub ledgers: [ClassLedger; 2],
    /// Inference energy of the completed batches, joules (0 under a
    /// one-point table, which prices no energy).
    pub energy_j: f64,
}

/// The incremental walk state: a serial server, priced by draws from
/// the device's table, behind the dispatcher's batch-formation front
/// end.
struct Walk<'a> {
    arrivals: &'a [u64],
    classes: &'a [RequestClass],
    table: &'a FittedTable,
    /// The device-local stream of per-batch uniforms.
    rng: SplitMix64,
    /// Whether training co-runs, so draws stretch past occupancy (an
    /// inference-only device has nothing to stretch against and serves
    /// at occupancy).
    harvesting: bool,
    horizon: f64,
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
    ledger: RunLedger,
    class_ledgers: [ClassLedger; 2],
    /// Latencies of each class's measured completions.
    class_latencies: [Vec<f64>; 2],
    /// Free-training epochs one MMU busy cycle displaces
    /// ([`epochs_per_busy_cycle`]).
    epochs_per_busy_cycle: f64,
    inference_busy: f64,
    /// Training's co-run MMU share while stretched batches were in
    /// flight: Σ (duration − occupancy) over completed batches. Zero
    /// when every draw has stretch 1.
    corun_cycles: f64,
    /// Inference energy of completed batches, joules.
    energy_j: f64,
}

impl Walk<'_> {
    /// Request `i` is unfinished at the horizon.
    fn strand(&mut self, i: usize) {
        if self.ledger.stranded(self.arrivals[i]) {
            self.class_ledgers[self.classes[i].index()].deadline_misses += 1;
        }
    }

    /// Forms one batch at `ready`, prices it with one table draw,
    /// schedules it on the serial server, and resolves its members'
    /// fates (the schedule is deterministic, so fate is known at
    /// formation). Members stay in `queued` via `pending` until their
    /// service start passes the walk's clock.
    fn form_batch(&mut self, members: Vec<usize>, ready: f64) {
        let real = members.len();
        self.ledger.batch_formed(real);
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
            for i in members {
                self.strand(i);
            }
            return;
        }
        self.inference_busy += duration;
        self.corun_cycles += duration - occupancy;
        self.energy_j += draw.energy_j;
        // Each member is charged its share of the batch's occupancy.
        // Batches form in arrival order, so each class sums its
        // displaced epochs in arrival order.
        let busy_cycles = occupancy / real as f64;
        for i in members {
            let done = self.ledger.completed(self.arrivals[i], end);
            let class = self.classes[i].index();
            let l = &mut self.class_ledgers[class];
            l.displaced_epochs += busy_cycles * self.epochs_per_busy_cycle;
            if done.measured {
                l.completed_requests += 1;
                l.deadline_misses += usize::from(done.missed);
                self.class_latencies[class].push(done.latency_s);
            }
        }
        // The draw's pessimism cycles (occupancy above nominal) are
        // wasted time.
        self.ledger.batch_served(real, (occupancy - self.nominal).max(0.0));
    }
}

/// The DRAM-capped fraction of an idle MMU cycle the device's training
/// service can actually use: staging supply over the profile's
/// bytes-per-executed-cycle appetite, capped at 1. Zero without a
/// co-hosted profile.
fn idle_harvest_rate(spec: &DeviceSpec) -> f64 {
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

/// The free-training epochs one MMU busy cycle displaces on `spec`,
/// charged to each completion — first-order attribution: had the
/// request not been served, its occupancy would have been idle and
/// harvested at the DRAM-capped rate. Zero on a device that does not
/// harvest ([`DeviceSpec::harvests`]).
fn epochs_per_busy_cycle(spec: &DeviceSpec) -> f64 {
    let Some(profile) = spec.training.as_ref().filter(|_| spec.harvests()) else {
        return 0.0;
    };
    let epoch_cycles = epoch_cycles(profile);
    if epoch_cycles > 0.0 {
        idle_harvest_rate(spec) / epoch_cycles
    } else {
        0.0
    }
}

/// Evaluates `spec`'s share of the traffic with the surrogate walk.
/// `arrivals` are sorted device-clock cycles and `classes` each
/// request's class, in step; per-batch service is drawn from `table`
/// on a device-local stream seeded with `seed` (the fleet passes stream
/// `2 + device_index`, see the crate docs), so the result is a pure
/// function of the inputs at any thread count. The report has the
/// shape the engine produces, so fleet merging is fidelity-agnostic.
pub(crate) fn run(
    spec: &DeviceSpec,
    table: &FittedTable,
    arrivals: &[u64],
    classes: &[RequestClass],
    horizon: u64,
    slo: Option<SloSpec>,
    seed: u64,
) -> SurrogateRun {
    debug_assert_eq!(arrivals.len(), classes.len());
    let timing = &spec.timing;
    let n = timing.batch;
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
        classes,
        table,
        rng: SplitMix64::seed_from_u64(seed),
        harvesting: spec.harvests(),
        horizon: horizon as f64,
        nominal: timing.total_cycles as f64,
        forming: Vec::new(),
        pending: VecDeque::new(),
        queued: 0,
        tail_busy: 0.0,
        ledger: RunLedger::new(&spec.config, *timing, arrivals.len(), horizon, slo),
        class_ledgers: RequestClass::ALL.map(ClassLedger::empty),
        class_latencies: [Vec::new(), Vec::new()],
        epochs_per_busy_cycle: epochs_per_busy_cycle(spec),
        inference_busy: 0.0,
        corun_cycles: 0.0,
        energy_j: 0.0,
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
        // Admission control.
        if shed_above.is_some_and(|k| walk.queued >= k) {
            walk.ledger.shed(t);
            walk.class_ledgers[classes[i].index()].shed_requests += 1;
            continue;
        }
        walk.forming.push(i);
        walk.queued += 1;
        walk.ledger.observe_queue(walk.queued);
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
    for i in std::mem::take(&mut walk.forming) {
        walk.strand(i);
    }

    // Harvest: idle cycles DRAM-capped, plus the co-run share training
    // received while stretched batches were in flight (none at stretch
    // 1, which is what keeps a one-point table conservative).
    let idle = (horizon as f64 - walk.inference_busy).max(0.0);
    let (cycles, idle_harvest, macs) = if walk.harvesting {
        let profile = spec.training.as_ref().expect("a harvesting device co-hosts training");
        let idle_harvest = idle * idle_harvest_rate(spec);
        let cycles = walk.corun_cycles + idle_harvest;
        let macs_per_cycle =
            profile.iteration_macs as f64 / profile.iteration_mmu_cycles as f64;
        (cycles, idle_harvest, cycles * macs_per_cycle)
    } else {
        (0.0, 0.0, 0.0)
    };
    let training = TrainingTally { cycles, macs, idle_cycles: (idle - idle_harvest).max(0.0) };
    let mut ledgers = walk.class_ledgers;
    for (l, samples) in ledgers.iter_mut().zip(walk.class_latencies) {
        l.latency = LatencyStats::from_samples(samples);
    }
    SurrogateRun {
        report: walk.ledger.finish(training, EngineTally::default()),
        ledgers,
        energy_j: walk.energy_j,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::tests::test_device;
    use equinox_arith::check;
    use equinox_isa::lower::InferenceTiming;
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

    /// A class for each of `len` requests: every third one free.
    fn mixed_classes(len: usize) -> Vec<RequestClass> {
        (0..len)
            .map(|i| if i % 3 == 0 { RequestClass::Free } else { RequestClass::Paid })
            .collect()
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
        run(d, &table, arrivals, &mixed_classes(arrivals.len()), horizon, slo, 0)
    }

    /// Runs `d` through both tiers, the walk over a one-point table at
    /// the nominal service time and the engine, and asserts that they
    /// agree on every count of the report and on every latency to
    /// within one cycle. `case` names the inputs in a failure. Returns
    /// the walk's report.
    fn assert_tiers_agree(
        d: &DeviceSpec,
        arrivals: &[u64],
        horizon: u64,
        slo: SloSpec,
        case: &str,
    ) -> SimReport {
        let walk = run_fixed(d, d.timing.total_cycles, arrivals, horizon, Some(slo)).report;
        let engine = d
            .simulation()
            .unwrap()
            .run_faulted(arrivals, horizon, &FaultScenario::baseline(), Some(slo))
            .unwrap();
        let counts = |r: &SimReport| {
            let s = r.slo.as_ref().unwrap();
            [
                ("completed", r.completed_requests as usize),
                ("shed", r.shed_requests as usize),
                ("measured shed", s.shed_requests),
                ("batches issued", r.batches_issued as usize),
                ("incomplete batches", r.incomplete_batches as usize),
                ("deadline misses", s.deadline_misses),
                ("measured requests", s.measured_requests),
                ("final queue", s.final_queue_depth),
                ("peak queue", s.peak_queue_depth),
                ("latency samples", r.latency.count()),
            ]
        };
        assert_eq!(counts(&walk), counts(&engine), "{case}: the walk's counts, then the engine's");
        for (a, b) in walk.latency.samples().iter().zip(engine.latency.samples()) {
            let cycles = (a - b).abs() * d.config.freq_hz;
            assert!(cycles <= 1.0, "{case}: latency {a} s vs the engine's {b} s");
        }
        walk
    }

    #[test]
    fn a_one_point_table_at_the_nominal_service_time_is_the_engine() {
        // With lower = upper = the nominal service time the walk and the
        // engine serve the same queue. First two fixed cases: light
        // traffic, and a shedding device at 1.5× overload.
        let horizon = 2_000 * 16_000;
        let slo = SloSpec::new(16.0 * 16_000.0 / 1e9).unwrap();
        let d = test_device("d0", 1e9, false);
        assert_tiers_agree(&d, &light_arrivals(horizon), horizon, slo, "light traffic");
        let mut shedding = d.clone();
        shedding.config.degradation.shed_above = Some(8 * 16);
        let overload =
            assert_tiers_agree(&shedding, &arrivals_at(1.5, horizon, 11), horizon, slo, "overload");
        assert!(overload.shed_requests > 0, "overload must shed");
        assert!(overload.slo.unwrap().peak_queue_depth <= 8 * 16 + 16, "shedding bounds the queue");
        // Then random inference-only devices.
        check::for_each_case(400, 0xC0FFEE, |g| {
            let n = g.usize_in(1, 65);
            let service = g.usize_in(1_000, 50_001) as u64;
            let mut d = test_device("d0", 1e9, false);
            d.timing = InferenceTiming {
                total_cycles: service,
                mmu_busy_cycles: service * 3 / 4,
                stall_cycles: service / 16,
                simd_busy_cycles: service / 8,
                total_macs: n as u64 * d.timing.macs_per_request,
                batch: n,
                ..d.timing
            };
            d.config.batching = if g.usize_in(0, 4) == 0 {
                BatchingPolicy::Static
            } else {
                BatchingPolicy::Adaptive { threshold_x: g.f64_in(0.25, 8.0) }
            };
            d.config.degradation.shed_above = g.next_bool().then(|| g.usize_in(n, 16 * n + 1));
            let load = g.f64_in(0.05, 1.6);
            let deadline_s = g.f64_in(1.5, 32.0) * service as f64 / d.config.freq_hz;
            let horizon = g.usize_in(50, 801) as u64 * service;
            let rate = load * n as f64 / service as f64;
            let arrivals = poisson_arrivals(rate, horizon, g.next_u64()).unwrap();
            let case = format!(
                "batch {n}, service {service}, {:?}, shed above {:?}, load {load:.3}, \
                 deadline {deadline_s:.3e} s, horizon {horizon}",
                d.config.batching, d.config.degradation.shed_above
            );
            assert_tiers_agree(&d, &arrivals, horizon, SloSpec::new(deadline_s).unwrap(), &case);
        });
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
        let classes = mixed_classes(arrivals.len());
        let a = run(&d, &calm, &arrivals, &classes, horizon, None, 7);
        let b = run(&d, &stretched, &arrivals, &classes, horizon, None, 7);
        // Every draw of a one-point grid is the same, so the draw seed
        // changes nothing.
        let reseeded = run(&d, &calm, &arrivals, &classes, horizon, None, 8);
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
        // Every completion is charged its share of its batch's
        // occupancy, priced in displaced epochs; both classes carry
        // some.
        let [paid, free] = &b.ledgers;
        assert!(paid.displaced_epochs > 0.0 && free.displaced_epochs > 0.0);
        let busy = (paid.displaced_epochs + free.displaced_epochs) / epochs_per_busy_cycle(&d);
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
        let run_at = |load| {
            let arrivals = arrivals_at(load, horizon, 3);
            run(&d, &table, &arrivals, &mixed_classes(arrivals.len()), horizon, None, 5)
        };
        let (light, heavy) = (run_at(0.2), run_at(0.9));
        assert!(heavy.report.latency.p99() > light.report.latency.p99());
        assert!(heavy.report.training_mmu_cycles > 0.0, "co-run harvest under contention");
    }

    #[test]
    fn class_ledgers_split_the_device_report_by_class() {
        for (load, shed_above) in [(0.3, None), (1.5, Some(64)), (1.5, None)] {
            let mut d = test_device("d0", 1e9, false);
            d.config.degradation.shed_above = shed_above;
            let horizon = 1_000 * 16_000;
            let arrivals = arrivals_at(load, horizon, 5);
            let slo = Some(SloSpec::new(16.0 * 16_000.0 / 1e9).unwrap());
            let run = run_fixed(&d, d.timing.total_cycles, &arrivals, horizon, slo);
            let (r, s) = (&run.report, run.report.slo.as_ref().unwrap());
            let [paid, free] = &run.ledgers;
            // The class tallies sum to the device's sheds, measured
            // completions and misses, and their latencies are its
            // latencies.
            assert_eq!(paid.shed_requests + free.shed_requests, r.shed_requests as usize);
            assert_eq!(paid.completed_requests + free.completed_requests, r.latency.count());
            assert_eq!(paid.deadline_misses + free.deadline_misses, s.deadline_misses);
            assert_eq!(LatencyStats::merged([&paid.latency, &free.latency]), r.latency);
            assert!(r.latency.samples()[0] > 0.0, "load {load}");
            assert!(paid.completed_requests > 0 && free.completed_requests > 0, "load {load}");
            // Only the fleet edge counts offered requests, and an
            // inference-only device displaces no harvest.
            for l in [paid, free] {
                assert_eq!((l.offered_requests, l.unattributed_requests), (0, 0));
                assert_eq!(l.displaced_epochs, 0.0);
            }
            // Every request lands in exactly one fate.
            assert_eq!(
                r.completed_requests + r.shed_requests + s.final_queue_depth as u64,
                arrivals.len() as u64
            );
            // Each fate follows its own request's class: swapping every
            // class swaps the two ledgers.
            let swapped: Vec<RequestClass> = mixed_classes(arrivals.len())
                .into_iter()
                .map(|c| match c {
                    RequestClass::Paid => RequestClass::Free,
                    RequestClass::Free => RequestClass::Paid,
                })
                .collect();
            let table =
                FittedTable::fixed("test", d.timing.batch, d.timing.total_cycles).unwrap();
            let [paid_now, free_now] =
                super::run(&d, &table, &arrivals, &swapped, horizon, slo, 0).ledgers;
            let unclassed =
                |l: &ClassLedger| ClassLedger { class: RequestClass::Paid, ..l.clone() };
            assert_eq!(unclassed(&paid_now), unclassed(free), "load {load}");
            assert_eq!(unclassed(&free_now), unclassed(paid), "load {load}");
        }
    }
}
