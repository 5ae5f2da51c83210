//! The §6 software-scheduling finding (discussed in the text, no
//! figure): a software scheduler must operate at training-batch
//! granularity because of the accelerator's instruction issue rate, so
//! inference requests arriving during a training batch queue for the
//! whole block and blow the latency target — forcing the operator to
//! disable training altogether.

use crate::accelerator::{Equinox, RunOptions};
use crate::experiments::{sweep, ExperimentScale, Series};
use equinox_arith::Encoding;
use equinox_isa::models::ModelSpec;
use equinox_model::LatencyConstraint;
use equinox_sim::SchedulerPolicy;

/// The software-vs-hardware scheduling comparison.
#[derive(Debug, Clone)]
pub struct SoftwareSched {
    /// Hardware priority scheduling (meets the target and trains).
    pub hardware: Series,
    /// Software batch-granularity scheduling with LSTM training blocks
    /// (≈2 ms): degrades tail latency and starves training.
    pub software: Series,
    /// Software scheduling with GRU training blocks (≈100 ms): violates
    /// the latency target outright.
    pub software_gru: Series,
    /// Software scheduling with training disabled (the operator's only
    /// way to restore the target).
    pub software_disabled: Series,
    /// The service-level target, ms.
    pub latency_target_ms: f64,
    /// The non-preemptible LSTM block length, cycles (one training
    /// batch: forward + backward at batch 128).
    pub block_cycles: u64,
    /// The non-preemptible GRU block length, cycles.
    pub gru_block_cycles: u64,
}

/// Runs the comparison on Equinox_500µs.
pub fn run(scale: ExperimentScale) -> SoftwareSched {
    let eq = Equinox::build(Encoding::Hbfp8, LatencyConstraint::Micros(500))
        .expect("the 500 µs design exists");
    let model = ModelSpec::lstm_2048_25();
    let timing = eq.compile(&model).expect("reference workload compiles");
    let profile = eq.training_profile(&model);
    let block_cycles = profile.iteration_mmu_cycles;
    let gru_block_cycles = eq
        .training_profile(&ModelSpec::gru_2816_1500())
        .iteration_mmu_cycles;
    let line = |name: &str, scheduler, train_model| {
        // Cover many training blocks so requests queued behind them
        // actually complete and show up in the tail.
        let min_horizon_cycles = match scheduler {
            SchedulerPolicy::Software { block_cycles } => 20 * block_cycles,
            _ => 0,
        };
        let opts = RunOptions {
            scheduler: Some(scheduler),
            train_model,
            min_horizon_cycles,
            ..RunOptions::inference(0.0)
        };
        (name.to_string(), &eq, timing, opts)
    };
    let priority = SchedulerPolicy::Priority { queue_threshold: 2 * eq.dims().n };
    let gru_blocks = SchedulerPolicy::Software { block_cycles: gru_block_cycles };
    let lines = vec![
        line("hardware priority", priority, Some(model.clone())),
        line("software (LSTM blocks)", SchedulerPolicy::Software { block_cycles }, Some(model)),
        line("software (GRU blocks)", gru_blocks, Some(ModelSpec::gru_2816_1500())),
        line("software (training disabled)", SchedulerPolicy::InferenceOnly, None),
    ];
    let [hardware, software, software_gru, software_disabled]: [Series; 4] =
        sweep(lines, scale).try_into().expect("one series per line");
    SoftwareSched {
        hardware,
        software,
        software_gru,
        software_disabled,
        latency_target_ms: Equinox::latency_target_s(Encoding::Hbfp8) * 1e3,
        block_cycles,
        gru_block_cycles,
    }
}

impl SoftwareSched {
    /// True if software scheduling of the long-running training batches
    /// violates the target at any measured sub-saturation load (the
    /// paper's finding).
    pub fn software_violates_target(&self) -> bool {
        self.software_gru
            .points
            .iter()
            .filter(|p| p.load <= 0.9)
            .any(|p| p.p99_ms > self.latency_target_ms)
    }

    /// How much training throughput software scheduling costs versus
    /// hardware priority at the lowest measured load (short blocks).
    pub fn training_loss_factor(&self) -> f64 {
        let hw = self.hardware.points.first().map(|p| p.training_tops).unwrap_or(0.0);
        let sw = self.software.points.first().map(|p| p.training_tops).unwrap_or(0.0);
        if sw > 0.0 {
            hw / sw
        } else {
            f64::INFINITY
        }
    }
}

impl std::fmt::Display for SoftwareSched {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Software scheduling study on Equinox_500us (target {:.2} ms, blocks: LSTM {} / GRU {} cycles):",
            self.latency_target_ms, self.block_cycles, self.gru_block_cycles
        )?;
        for s in [
            &self.hardware,
            &self.software,
            &self.software_gru,
            &self.software_disabled,
        ] {
            writeln!(f, "  {}:", s.name)?;
            for p in &s.points {
                writeln!(
                    f,
                    "    load {:>4.0}%  p99 {:>8.2} ms  train {:>6.1} TOp/s",
                    p.load * 100.0,
                    p.p99_ms,
                    p.training_tops
                )?;
            }
        }
        writeln!(
            f,
            "  => long training batches violate the target under software scheduling: {}; \
             short batches cost {:.1}x training throughput (hence: hardware scheduling)",
            self.software_violates_target(),
            self.training_loss_factor()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn software_scheduler_fails_where_hardware_succeeds() {
        let study = run(ExperimentScale::Quick);
        // The paper's finding: batch-granularity software scheduling
        // queues inference behind non-preemptible training blocks —
        // long-running batches blow the latency target outright...
        assert!(study.software_violates_target(), "{study}");
        // ...and even short blocks starve training badly versus the
        // hardware scheduler.
        assert!(
            study.training_loss_factor() > 3.0,
            "training loss factor {} in:\n{study}",
            study.training_loss_factor()
        );
        // The hardware priority scheduler meets the target everywhere
        // while actually training.
        for p in &study.hardware.points {
            assert!(
                p.p99_ms < study.latency_target_ms,
                "hardware p99 {} at load {}",
                p.p99_ms,
                p.load
            );
        }
        let trained: f64 = study.hardware.points.iter().map(|p| p.training_tops).sum();
        assert!(trained > 0.0);
        // Disabling training restores the target but trains nothing.
        for p in &study.software_disabled.points {
            assert!(p.p99_ms < study.latency_target_ms);
            assert_eq!(p.training_tops, 0.0);
        }
    }
}
