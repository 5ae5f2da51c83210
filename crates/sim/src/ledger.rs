//! The request ledger every device evaluator records into.
//!
//! The cycle-accurate engine and the fleet's surrogate walk decide
//! *when* things happen in different ways, but what a run reports is
//! one set of rules: which requests are measured (the warm-up window),
//! which miss their deadline (late completions, and requests stranded
//! at the horizon with the deadline already expired), how shed and
//! dropped requests are counted, when a batch counts as incomplete (when
//! it is formed padded), and how a served batch splits its cycles for
//! Figure 8. [`RunLedger`] holds those rules; an evaluator only reports
//! batches and request fates to it, and [`RunLedger::finish`] assembles
//! the [`SimReport`] and [`SloReport`].
//!
//! Every request ends in exactly one fate — completed, shed, dropped or
//! stranded — and `finish` checks that the four counts sum to the
//! arrivals on every run.

use crate::config::AcceleratorConfig;
use crate::report::SimReport;
use crate::slo::{SloReport, SloSpec};
use crate::stats::{CycleBreakdown, LatencyStats};
use equinox_isa::lower::InferenceTiming;

/// Fraction of the horizon treated as warm-up: requests arriving inside
/// it are fully simulated but excluded from latency statistics and the
/// SLO ledger.
const WARMUP_FRACTION: f64 = 0.05;

/// What the ledger tells an evaluator about one completed request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Completion {
    /// Arrival to completion, seconds.
    pub latency_s: f64,
    /// The request arrived after the warm-up window.
    pub measured: bool,
    /// Measured and later than the run's deadline.
    pub missed: bool,
}

/// The training side of a run, which each evaluator prices its own way.
#[derive(Debug, Clone, Copy)]
pub struct TrainingTally {
    /// MMU cycles granted to training.
    pub cycles: f64,
    /// MACs those cycles executed.
    pub macs: f64,
    /// MMU cycles neither inference nor training used.
    pub idle_cycles: f64,
}

/// What only the cycle-accurate engine tallies: retries, dropped
/// batches, software training blocks and recovery after the last
/// disturbance. The default is a fault-free run.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineTally {
    /// Corrupted batches re-queued for another attempt.
    pub retried_batches: usize,
    /// Corrupted batches dropped after their last attempt.
    pub dropped_batches: usize,
    /// Software-scheduler training blocks dispatched.
    pub training_blocks: u64,
    /// End of the last disturbance window, if the scenario has one.
    pub disturbance_end: Option<u64>,
    /// First cycle the queue drained to at most one batch after it.
    pub recovered_at: Option<f64>,
}

/// Per-request and per-batch accounting of one device run.
#[derive(Debug, Clone)]
pub struct RunLedger {
    name: String,
    timing: InferenceTiming,
    arrivals: usize,
    horizon: f64,
    warmup: f64,
    freq_hz: f64,
    slo: Option<SloSpec>,
    breakdown: CycleBreakdown,
    latencies: Vec<f64>,
    completed: u64,
    shed: u64,
    dropped: u64,
    stranded: usize,
    shed_measured: usize,
    dropped_measured: usize,
    deadline_misses: usize,
    stranded_misses: usize,
    batches_issued: u64,
    incomplete_batches: u64,
    corrupted_batches: usize,
    peak_queue: usize,
}

impl RunLedger {
    /// An empty ledger for `arrivals` requests served by `config` with
    /// `timing` over `horizon_cycles`, held against `slo` if given.
    pub fn new(
        config: &AcceleratorConfig,
        timing: InferenceTiming,
        arrivals: usize,
        horizon_cycles: u64,
        slo: Option<SloSpec>,
    ) -> Self {
        RunLedger {
            name: config.name.clone(),
            timing,
            arrivals,
            horizon: horizon_cycles as f64,
            warmup: horizon_cycles as f64 * WARMUP_FRACTION,
            freq_hz: config.freq_hz,
            slo,
            breakdown: CycleBreakdown::default(),
            latencies: Vec::new(),
            completed: 0,
            shed: 0,
            dropped: 0,
            stranded: 0,
            shed_measured: 0,
            dropped_measured: 0,
            deadline_misses: 0,
            stranded_misses: 0,
            batches_issued: 0,
            incomplete_batches: 0,
            corrupted_batches: 0,
            peak_queue: 0,
        }
    }

    fn measured(&self, arrival: u64) -> bool {
        arrival as f64 >= self.warmup
    }

    /// A batch of `real` requests was formed; it is incomplete (padded
    /// with dummies) when `real` is below the batch size, whether or not
    /// it is served inside the horizon.
    pub fn batch_formed(&mut self, real: usize) {
        self.batches_issued += 1;
        if real < self.timing.batch {
            self.incomplete_batches += 1;
        }
    }

    /// The request that arrived at `arrival` completed at `cycle`.
    pub fn completed(&mut self, arrival: u64, cycle: f64) -> Completion {
        self.completed += 1;
        let latency_s = (cycle - arrival as f64) / self.freq_hz;
        let measured = self.measured(arrival);
        let missed = measured && self.slo.is_some_and(|s| latency_s > s.deadline_s);
        if measured {
            self.latencies.push(latency_s);
            self.deadline_misses += usize::from(missed);
        }
        Completion { latency_s, measured, missed }
    }

    /// A batch of `real` requests was served cleanly: Figure 8's split
    /// of its compiled cycles, plus `extra_cycles` of wasted time (an
    /// evaluator's service above the nominal time).
    pub fn batch_served(&mut self, real: usize, extra_cycles: f64) {
        let t = &self.timing;
        let n = t.batch as f64;
        let busy = t.mmu_busy_cycles as f64;
        let useful = busy * t.mmu_utilization;
        self.breakdown.working += useful * real as f64 / n;
        self.breakdown.dummy += useful * (t.batch - real) as f64 / n;
        self.breakdown.other += (busy - useful) + t.stall_cycles as f64 + extra_cycles;
    }

    /// A batch came back corrupted: its whole service interval is
    /// wasted.
    pub fn batch_corrupted(&mut self) {
        self.corrupted_batches += 1;
        let t = &self.timing;
        self.breakdown.other += t.mmu_busy_cycles as f64 + t.stall_cycles as f64;
    }

    /// The request that arrived at `arrival` was turned away by load
    /// shedding.
    pub fn shed(&mut self, arrival: u64) {
        self.shed += 1;
        self.shed_measured += usize::from(self.measured(arrival));
    }

    /// The request that arrived at `arrival` was lost with a batch that
    /// exhausted its retries.
    pub fn dropped(&mut self, arrival: u64) {
        self.dropped += 1;
        self.dropped_measured += usize::from(self.measured(arrival));
    }

    /// The request that arrived at `arrival` is unfinished at the
    /// horizon. It is a deadline miss when it is measured and its
    /// deadline has already expired: without this, an overloaded run
    /// whose queue grows without bound would report no violations.
    pub fn stranded(&mut self, arrival: u64) -> bool {
        self.stranded += 1;
        let missed = self.measured(arrival)
            && self
                .slo
                .is_some_and(|s| (self.horizon - arrival as f64) / self.freq_hz > s.deadline_s);
        self.stranded_misses += usize::from(missed);
        missed
    }

    /// One observation of the queue depth.
    pub fn observe_queue(&mut self, depth: usize) {
        self.peak_queue = self.peak_queue.max(depth);
    }

    /// The run's report.
    ///
    /// # Panics
    ///
    /// Panics, naming the four counts, if the completed, shed, dropped
    /// and stranded requests do not add up to the arrivals: some request
    /// was given no fate, or two.
    pub fn finish(self, training: TrainingTally, engine: EngineTally) -> SimReport {
        let accounted = self.completed + self.shed + self.dropped + self.stranded as u64;
        assert!(
            accounted == self.arrivals as u64,
            "{}: request conservation broken: {} completed + {} shed + {} dropped + {} \
             unfinished != {} arrivals",
            self.name,
            self.completed,
            self.shed,
            self.dropped,
            self.stranded,
            self.arrivals
        );
        let elapsed_s = self.horizon / self.freq_hz;
        let measured_s = elapsed_s * (1.0 - WARMUP_FRACTION);
        let completed_measured = self.latencies.len();
        let mut breakdown = self.breakdown;
        breakdown.working += training.cycles;
        breakdown.idle = training.idle_cycles;
        let latency = LatencyStats::from_samples(self.latencies);
        let slo = self.slo.map(|spec| SloReport {
            deadline_s: spec.deadline_s,
            measured_requests: completed_measured
                + self.shed_measured
                + self.dropped_measured
                + self.stranded_misses,
            deadline_misses: self.deadline_misses + self.stranded_misses,
            shed_requests: self.shed_measured,
            dropped_requests: self.dropped_measured,
            p999_s: latency.p999(),
            // The backlog at the horizon is one more observation of the
            // queue, so the peak never reads below it.
            peak_queue_depth: self.peak_queue.max(self.stranded),
            final_queue_depth: self.stranded,
            corrupted_batches: self.corrupted_batches,
            retried_batches: engine.retried_batches,
            dropped_batches: engine.dropped_batches,
            recovery_cycles: match (engine.disturbance_end, engine.recovered_at) {
                (Some(end), Some(at)) => Some(at - end as f64),
                _ => None,
            },
            recovered: engine.disturbance_end.is_none() || engine.recovered_at.is_some(),
        });
        SimReport {
            name: self.name,
            horizon_cycles: self.horizon as u64,
            freq_hz: self.freq_hz,
            latency,
            completed_requests: self.completed,
            inference_throughput_ops: 2.0
                * completed_measured as f64
                * self.timing.macs_per_request as f64
                / measured_s,
            training_throughput_ops: 2.0 * training.macs / elapsed_s,
            training_mmu_cycles: training.cycles,
            breakdown,
            batches_issued: self.batches_issued,
            incomplete_batches: self.incomplete_batches,
            training_blocks: engine.training_blocks,
            shed_requests: self.shed,
            dropped_requests: self.dropped,
            slo,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use equinox_arith::Encoding;
    use equinox_isa::ArrayDims;

    /// A ledger for `arrivals` requests over 1 000 cycles at 1 GHz
    /// (warm-up: the first 50 cycles), batches of 4, deadline 100 ns.
    fn ledger(arrivals: usize) -> RunLedger {
        let config =
            AcceleratorConfig::new("t", ArrayDims { n: 4, w: 1, m: 1 }, 1e9, Encoding::Hbfp8);
        let timing = InferenceTiming {
            total_cycles: 40,
            mmu_busy_cycles: 30,
            mmu_utilization: 0.5,
            stall_cycles: 4,
            simd_busy_cycles: 2,
            total_macs: 400,
            macs_per_request: 100,
            batch: 4,
        };
        RunLedger::new(&config, timing, arrivals, 1_000, Some(SloSpec::new(100e-9).unwrap()))
    }

    fn no_training() -> TrainingTally {
        TrainingTally { cycles: 0.0, macs: 0.0, idle_cycles: 0.0 }
    }

    #[test]
    fn each_fate_follows_the_warm_up_and_deadline_rules() {
        let mut l = ledger(8);
        l.batch_formed(3);
        // Padded batches count as incomplete when formed, served or not.
        l.batch_formed(4);
        l.batch_formed(1);
        // Inside warm-up: counted, never measured.
        let early = l.completed(10, 200.0);
        assert_eq!((early.measured, early.missed), (false, false));
        // Measured: on time, then late.
        assert!(!l.completed(100, 150.0).missed);
        let late = l.completed(100, 250.0);
        assert_eq!((late.latency_s, late.measured, late.missed), (150e-9, true, true));
        l.batch_served(3, 0.0);
        l.shed(20);
        l.shed(300);
        l.observe_queue(2);
        // Stranded: a miss once measured and already past its deadline.
        assert!(!l.stranded(40));
        assert!(!l.stranded(950));
        assert!(l.stranded(800));
        let r = l.finish(no_training(), EngineTally::default());
        let s = r.slo.unwrap();
        assert_eq!((r.completed_requests, r.shed_requests, r.latency.count()), (3, 2, 2));
        assert_eq!((r.batches_issued, r.incomplete_batches), (3, 2));
        assert_eq!((s.shed_requests, s.deadline_misses, s.final_queue_depth), (1, 2, 3));
        // Two measured completions, one measured shed, one stranded miss.
        assert_eq!(s.measured_requests, 4);
        assert_eq!(s.peak_queue_depth, 3, "the final queue is one more observation");
        assert!(s.recovered && s.recovery_cycles.is_none());
        // One real slot of four was padding.
        let useful = 30.0 * 0.5;
        assert_eq!(r.breakdown.working, useful * 3.0 / 4.0);
        assert_eq!(r.breakdown.dummy, useful / 4.0);
        assert_eq!(r.breakdown.other, 15.0 + 4.0);
    }

    #[test]
    #[should_panic(expected = "t: request conservation broken: 1 completed + 1 shed + 0 dropped \
                               + 0 unfinished != 3 arrivals")]
    fn a_request_without_a_fate_fails_the_run() {
        let mut l = ledger(3);
        l.completed(100, 200.0);
        l.shed(100);
        l.finish(no_training(), EngineTally::default());
    }
}
