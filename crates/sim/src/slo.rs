//! SLO monitoring: per-request deadlines, tail latency, and
//! graceful-degradation accounting.
//!
//! §5 frames Equinox's guarantee as "no effect on inference QoS". The
//! baseline simulator only reports the p99 latency; under fault
//! injection we need the full QoS ledger: how many requests missed
//! their deadline, how many were shed at admission, how many were lost
//! with a dropped batch, how deep the queue grew, and how long the
//! system took to drain back to steady state after the last
//! disturbance.

use crate::stats::LatencyStats;
use equinox_isa::EquinoxError;

/// The priority tier of a request at a serving front end.
///
/// Paid requests carry the SLO; free-tier requests ride along on spare
/// capacity the way harvested training does, and a priority admission
/// policy sheds them first under overload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RequestClass {
    /// SLO-bearing traffic: admitted first, shed last.
    Paid,
    /// Best-effort traffic: admitted only with headroom to spare.
    Free,
}

impl RequestClass {
    /// Both classes, in ledger order (paid first).
    pub const ALL: [RequestClass; 2] = [RequestClass::Paid, RequestClass::Free];

    /// Stable identifier used in sweep artifacts and reports.
    pub fn name(self) -> &'static str {
        match self {
            RequestClass::Paid => "paid",
            RequestClass::Free => "free",
        }
    }

    /// Dense index of this class (the position in [`RequestClass::ALL`]),
    /// for per-class accumulator arrays.
    pub fn index(self) -> usize {
        match self {
            RequestClass::Paid => 0,
            RequestClass::Free => 1,
        }
    }
}

/// The per-class QoS ledger of one serving run: where each tier's
/// requests went (admitted, shed, completed, missed) and the latency
/// tail of its completions.
///
/// Offered and shed counts are exact for every request — they are
/// decided at the admission edge. Completion fate is *attributed*
/// per class only where the evaluator knows each request's class (the
/// fleet's surrogate walk does; the cycle-accurate engine reports
/// aggregates): requests whose fate cannot be attributed are counted
/// in `unattributed_requests` rather than silently folded into a
/// class they may not belong to.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassLedger {
    /// The tier this ledger accounts for.
    pub class: RequestClass,
    /// Requests of this class that arrived at the front end.
    pub offered_requests: usize,
    /// Requests rejected before service: at fleet admission, or by a
    /// device-level load-shedding policy.
    pub shed_requests: usize,
    /// Measured completions attributed to this class.
    pub completed_requests: usize,
    /// Attributed deadline misses: completions past the deadline, plus
    /// requests stranded in a queue with the deadline already expired.
    pub deadline_misses: usize,
    /// Admitted requests routed to an evaluator that only reports
    /// aggregates, so their completion fate cannot be attributed here.
    pub unattributed_requests: usize,
    /// Free-training epochs this class's completed traffic displaced:
    /// the MMU cycles its batches occupied, priced at the device's
    /// harvest rate and divided by the cycles one epoch costs. Filled
    /// only by evaluators that attribute fates, on harvesting devices;
    /// it makes "paid overload ate the harvest"
    /// directly visible instead of inferable from scaling spans.
    pub displaced_epochs: f64,
    /// Mean extra per-request delay the fleet interconnect's gradient
    /// traffic imposed on this class's DMA path, seconds (0 without an
    /// interconnect, or when its fabric stayed uncongested).
    pub sync_delay_s: f64,
    /// Attributed completions that met the deadline on their own but
    /// would miss it once [`ClassLedger::sync_delay_s`] is added — the
    /// interconnect's contribution to tail violations, kept separate
    /// from [`ClassLedger::deadline_misses`] so the device-side ledger
    /// stays comparable across runs with and without an interconnect.
    pub sync_deadline_misses: usize,
    /// Latency distribution of the attributed completions, seconds.
    pub latency: LatencyStats,
}

impl ClassLedger {
    /// An empty ledger for `class`.
    pub fn empty(class: RequestClass) -> Self {
        ClassLedger {
            class,
            offered_requests: 0,
            shed_requests: 0,
            completed_requests: 0,
            deadline_misses: 0,
            unattributed_requests: 0,
            displaced_epochs: 0.0,
            sync_delay_s: 0.0,
            sync_deadline_misses: 0,
            latency: LatencyStats::from_samples(Vec::new()),
        }
    }

    /// Attributed SLO violations of this class: deadline misses plus
    /// requests shed before service (a shed request never completes).
    pub fn total_violations(&self) -> usize {
        self.deadline_misses + self.shed_requests
    }

    /// Violations over offered requests (0 for an empty ledger).
    pub fn violation_rate(&self) -> f64 {
        if self.offered_requests == 0 {
            0.0
        } else {
            self.total_violations() as f64 / self.offered_requests as f64
        }
    }

    /// Shed requests over offered requests (0 for an empty ledger).
    pub fn shed_rate(&self) -> f64 {
        if self.offered_requests == 0 {
            0.0
        } else {
            self.shed_requests as f64 / self.offered_requests as f64
        }
    }

    /// 99.9th-percentile latency of attributed completions, seconds.
    pub fn p999_s(&self) -> f64 {
        self.latency.p999()
    }

    /// Merges per-device ledgers of the same class into one: counts sum,
    /// and the latency tail shares the parts' sorted runs
    /// ([`LatencyStats::merged`]), so its quantiles select across them
    /// and no sample is copied.
    ///
    /// # Panics
    ///
    /// Panics if the parts disagree on the class.
    pub fn merged<'a>(
        class: RequestClass,
        parts: impl IntoIterator<Item = &'a ClassLedger>,
    ) -> ClassLedger {
        let mut out = ClassLedger::empty(class);
        let mut tails = Vec::new();
        for p in parts {
            assert_eq!(p.class, class, "merging ledgers of different classes");
            out.offered_requests += p.offered_requests;
            out.shed_requests += p.shed_requests;
            out.completed_requests += p.completed_requests;
            out.deadline_misses += p.deadline_misses;
            out.unattributed_requests += p.unattributed_requests;
            out.displaced_epochs += p.displaced_epochs;
            // Sync misses sum; the delay keeps the worst part's value
            // (the edge ledger carries 0, so a mean would dilute it).
            out.sync_deadline_misses += p.sync_deadline_misses;
            out.sync_delay_s = out.sync_delay_s.max(p.sync_delay_s);
            tails.push(&p.latency);
        }
        out.latency = LatencyStats::merged(tails);
        out
    }
}

/// The service-level objective one run is held against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloSpec {
    /// Per-request completion deadline, seconds from arrival. A request
    /// completing later (or never) counts as a violation.
    pub deadline_s: f64,
}

impl SloSpec {
    /// An SLO at the given per-request deadline.
    ///
    /// # Errors
    ///
    /// [`EquinoxError::InvalidArgument`] for a non-finite or
    /// non-positive deadline.
    pub fn new(deadline_s: f64) -> Result<Self, EquinoxError> {
        if !deadline_s.is_finite() || deadline_s <= 0.0 {
            return Err(EquinoxError::invalid_argument(
                "SloSpec::new",
                format!("deadline must be finite and positive, got {deadline_s}"),
            ));
        }
        Ok(SloSpec { deadline_s })
    }
}

/// The QoS ledger of one simulation run, produced by the engine when an
/// [`SloSpec`] is attached.
#[derive(Debug, Clone, PartialEq)]
pub struct SloReport {
    /// The deadline the run was held against, seconds.
    pub deadline_s: f64,
    /// Requests whose fate was measured: completed, shed, or dropped.
    pub measured_requests: usize,
    /// Requests that missed the deadline: completed late, or still
    /// queued at the horizon with the deadline already expired.
    pub deadline_misses: usize,
    /// Requests rejected at admission by load shedding.
    pub shed_requests: usize,
    /// Requests lost when a corrupted batch exhausted its retries.
    pub dropped_requests: usize,
    /// 99.9th-percentile latency of completed requests, seconds.
    pub p999_s: f64,
    /// Deepest the inference queue (formed + forming requests) got,
    /// never below [`SloReport::final_queue_depth`].
    pub peak_queue_depth: usize,
    /// Requests unfinished when the run ended: forming, formed, in
    /// service, or awaiting a retry. With the run's completed, shed and
    /// dropped requests ([`SimReport`](crate::SimReport)'s totals, not
    /// this ledger's post-warm-up counts) they account for every
    /// arrival. Growth beyond a few batches signals an unstable
    /// (overloaded) regime.
    pub final_queue_depth: usize,
    /// Batches whose results were corrupted by injected faults.
    pub corrupted_batches: usize,
    /// Corrupted batches that were re-executed under the retry policy.
    pub retried_batches: usize,
    /// Corrupted batches dropped after exhausting retries.
    pub dropped_batches: usize,
    /// Cycles from the end of the last disturbance window until the
    /// queue first drained to at most one batch; `None` when the
    /// scenario had no windowed disturbance.
    pub recovery_cycles: Option<f64>,
    /// True if the queue drained back to at most one batch after the
    /// last disturbance (always true for a stable fault-free run).
    pub recovered: bool,
}

impl SloReport {
    /// Total SLO violations: deadline misses plus requests shed at
    /// admission plus requests lost with dropped batches. Shed and
    /// dropped requests never complete, so they are violations by
    /// definition.
    pub fn total_violations(&self) -> usize {
        self.deadline_misses + self.shed_requests + self.dropped_requests
    }

    /// Violations as a fraction of measured requests (0 for an empty
    /// run).
    pub fn violation_rate(&self) -> f64 {
        if self.measured_requests == 0 {
            0.0
        } else {
            self.total_violations() as f64 / self.measured_requests as f64
        }
    }

    /// True if the run ended with a queue that never drained — the
    /// unbounded-growth signature of offered load above capacity.
    /// `batch` is the accelerator's batch size; a backlog of more than
    /// eight batches at the horizon indicates the queue was growing,
    /// not fluctuating (the priority scheduler deliberately lets the
    /// queue ride near its threshold of two batches in steady state).
    pub fn indicates_unbounded_growth(&self, batch: usize) -> bool {
        self.final_queue_depth > 8 * batch.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> SloReport {
        SloReport {
            deadline_s: 1e-3,
            measured_requests: 1000,
            deadline_misses: 5,
            shed_requests: 10,
            dropped_requests: 5,
            p999_s: 9e-4,
            peak_queue_depth: 48,
            final_queue_depth: 3,
            corrupted_batches: 2,
            retried_batches: 1,
            dropped_batches: 1,
            recovery_cycles: Some(1.5e5),
            recovered: true,
        }
    }

    #[test]
    fn spec_validates_deadline() {
        assert!(SloSpec::new(1e-3).is_ok());
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = SloSpec::new(bad).unwrap_err();
            assert_eq!(err.kind(), "invalid-argument");
        }
    }

    #[test]
    fn violations_sum_all_failure_modes() {
        let r = report();
        assert_eq!(r.total_violations(), 20);
        assert!((r.violation_rate() - 0.02).abs() < 1e-12);
    }

    #[test]
    fn empty_run_has_zero_rate() {
        let r = SloReport { measured_requests: 0, ..report() };
        assert_eq!(r.violation_rate(), 0.0);
    }

    #[test]
    fn class_names_and_indices_are_stable() {
        assert_eq!(RequestClass::ALL.map(RequestClass::name), ["paid", "free"]);
        for (i, c) in RequestClass::ALL.into_iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn class_ledger_rates_and_merge() {
        let mut paid = ClassLedger::empty(RequestClass::Paid);
        paid.offered_requests = 100;
        paid.shed_requests = 5;
        paid.completed_requests = 90;
        paid.deadline_misses = 5;
        paid.displaced_epochs = 0.25;
        paid.sync_delay_s = 2e-6;
        paid.sync_deadline_misses = 3;
        paid.latency = LatencyStats::from_samples(vec![1e-3; 90]);
        assert_eq!(paid.total_violations(), 10);
        assert!((paid.violation_rate() - 0.1).abs() < 1e-12);
        assert!((paid.shed_rate() - 0.05).abs() < 1e-12);
        assert_eq!(paid.p999_s(), 1e-3);
        let merged = ClassLedger::merged(RequestClass::Paid, [&paid, &paid]);
        assert_eq!(merged.offered_requests, 200);
        assert_eq!(merged.deadline_misses, 10);
        assert!((merged.displaced_epochs - 0.5).abs() < 1e-12);
        assert_eq!(merged.sync_deadline_misses, 6);
        assert_eq!(merged.sync_delay_s, 2e-6, "merge keeps the worst delay");
        assert_eq!(merged.latency.count(), 180);
        let empty = ClassLedger::empty(RequestClass::Free);
        assert_eq!(empty.violation_rate(), 0.0);
        assert_eq!(empty.shed_rate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "different classes")]
    fn class_ledger_merge_rejects_mixed_classes() {
        let free = ClassLedger::empty(RequestClass::Free);
        ClassLedger::merged(RequestClass::Paid, [&free]);
    }

    #[test]
    fn unbounded_growth_thresholds_on_batch() {
        let r = SloReport { final_queue_depth: 200, ..report() };
        assert!(r.indicates_unbounded_growth(16));
        let r = SloReport { final_queue_depth: 40, ..report() };
        assert!(!r.indicates_unbounded_growth(16));
    }
}
