//! Simulation results.

use crate::slo::SloReport;
use crate::stats::{CycleBreakdown, LatencyStats};

/// The outcome of one simulation run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Configuration name (e.g. `Equinox_500us`).
    pub name: String,
    /// Simulated horizon, cycles.
    pub horizon_cycles: u64,
    /// Clock frequency, Hz.
    pub freq_hz: f64,
    /// Request latency distribution (warm-up excluded).
    pub latency: LatencyStats,
    /// Real inference requests completed (including warm-up).
    pub completed_requests: u64,
    /// Achieved inference throughput over the measured window, Ops/s.
    pub inference_throughput_ops: f64,
    /// Achieved training throughput, Ops/s.
    pub training_throughput_ops: f64,
    /// MMU cycles consumed by training.
    pub training_mmu_cycles: f64,
    /// Figure 8 cycle breakdown (working includes training cycles).
    pub breakdown: CycleBreakdown,
    /// Inference batches issued.
    pub batches_issued: u64,
    /// Batches issued incomplete (padded with dummies).
    pub incomplete_batches: u64,
    /// Software-scheduler training blocks dispatched.
    pub training_blocks: u64,
    /// Requests turned away at admission by load shedding (0 unless a
    /// degradation policy sheds).
    pub shed_requests: u64,
    /// Requests lost with a corrupted batch that exhausted its retries
    /// (0 unless faults corrupt batches). Unlike the SLO ledger's count,
    /// it includes warm-up: with the completed and shed requests and the
    /// final queue it accounts for every arrival.
    pub dropped_requests: u64,
    /// QoS ledger, present when the run was held against an
    /// [`SloSpec`](crate::slo::SloSpec).
    pub slo: Option<SloReport>,
}

impl SimReport {
    /// Inference throughput in TOp/s.
    pub fn inference_tops(&self) -> f64 {
        self.inference_throughput_ops / 1e12
    }

    /// Training throughput in TOp/s.
    pub fn training_tops(&self) -> f64 {
        self.training_throughput_ops / 1e12
    }

    /// 99th-percentile latency in milliseconds (the paper's y-axis).
    pub fn p99_ms(&self) -> f64 {
        self.latency.p99() * 1e3
    }

    /// Fraction of issued batches that were incomplete.
    pub fn incomplete_batch_fraction(&self) -> f64 {
        if self.batches_issued == 0 {
            0.0
        } else {
            self.incomplete_batches as f64 / self.batches_issued as f64
        }
    }
}

impl std::fmt::Display for SimReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: inf {:.1} TOp/s (p99 {:.2} ms, {} reqs), train {:.1} TOp/s, {}",
            self.name,
            self.inference_tops(),
            self.p99_ms(),
            self.completed_requests,
            self.training_tops(),
            self.breakdown
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> SimReport {
        SimReport {
            name: "x".into(),
            horizon_cycles: 1000,
            freq_hz: 1e9,
            latency: LatencyStats::from_samples(vec![1e-3; 10]),
            completed_requests: 10,
            inference_throughput_ops: 2e12,
            training_throughput_ops: 5e11,
            training_mmu_cycles: 100.0,
            breakdown: CycleBreakdown::default(),
            batches_issued: 4,
            incomplete_batches: 1,
            training_blocks: 0,
            shed_requests: 0,
            dropped_requests: 0,
            slo: None,
        }
    }

    #[test]
    fn unit_conversions() {
        let r = report();
        assert_eq!(r.inference_tops(), 2.0);
        assert_eq!(r.training_tops(), 0.5);
        assert_eq!(r.p99_ms(), 1.0);
        assert_eq!(r.incomplete_batch_fraction(), 0.25);
    }

    #[test]
    fn zero_batches_fraction() {
        let mut r = report();
        r.batches_issued = 0;
        r.incomplete_batches = 0;
        assert_eq!(r.incomplete_batch_fraction(), 0.0);
    }

    #[test]
    fn display_compact() {
        let s = report().to_string();
        assert!(s.contains("p99 1.00 ms"));
        assert!(s.contains("train 0.5 TOp/s"));
    }
}
