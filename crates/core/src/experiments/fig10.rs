//! Figure 10: inference tail latency vs throughput under fair-share and
//! priority scheduling, with the inference-only baseline.

use crate::accelerator::{Equinox, RunOptions};
use crate::experiments::{sweep, ExperimentScale, Series};
use equinox_arith::Encoding;
use equinox_isa::models::ModelSpec;
use equinox_model::LatencyConstraint;
use equinox_sim::SchedulerPolicy;

/// The Figure 10 result.
#[derive(Debug, Clone)]
pub struct Fig10 {
    /// `Inf`, `Inf+Train+Fair sched.`, `Inf+Train+Priority sched.`.
    pub series: Vec<Series>,
    /// The paper's dashed latency-target line, ms.
    pub latency_target_ms: f64,
}

/// Runs the scheduling comparison on Equinox_500µs.
pub fn run(scale: ExperimentScale) -> Fig10 {
    let eq = Equinox::build(Encoding::Hbfp8, LatencyConstraint::Micros(500))
        .expect("the 500 µs design exists");
    let timing = eq.compile(&ModelSpec::lstm_2048_25()).expect("reference workload compiles");
    let line = |name: &str, scheduler, base: RunOptions| {
        (name.to_string(), &eq, timing, RunOptions { scheduler: Some(scheduler), ..base })
    };
    let priority = SchedulerPolicy::Priority { queue_threshold: 2 * eq.dims().n };
    let lines = vec![
        line("Inf", SchedulerPolicy::InferenceOnly, RunOptions::inference(0.0)),
        line("Inf+Train+Fair sched.", SchedulerPolicy::Fair, RunOptions::colocated(0.0)),
        line("Inf+Train+Priority sched.", priority, RunOptions::colocated(0.0)),
    ];
    Fig10 {
        series: sweep(lines, scale),
        latency_target_ms: Equinox::latency_target_s(Encoding::Hbfp8) * 1e3,
    }
}

impl Fig10 {
    /// A series by name.
    pub fn series_named(&self, name: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.name == name)
    }

    /// Priority-over-fair throughput advantage under the latency target
    /// (the paper reports 1.3×).
    pub fn priority_over_fair(&self) -> Option<f64> {
        let pri = self
            .series_named("Inf+Train+Priority sched.")?
            .max_tops_under_latency(self.latency_target_ms);
        let fair = self
            .series_named("Inf+Train+Fair sched.")?
            .max_tops_under_latency(self.latency_target_ms);
        (fair > 0.0).then_some(pri / fair)
    }
}

impl std::fmt::Display for Fig10 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Figure 10 — scheduling policies on Equinox_500us (target {:.2} ms):",
            self.latency_target_ms
        )?;
        for s in &self.series {
            writeln!(f, "  {}:", s.name)?;
            for p in &s.points {
                writeln!(
                    f,
                    "    load {:>4.0}%  {:>7.1} TOp/s  p99 {:>8.3} ms  train {:>6.1} TOp/s",
                    p.load * 100.0,
                    p.inference_tops,
                    p.p99_ms,
                    p.training_tops
                )?;
            }
        }
        if let Some(r) = self.priority_over_fair() {
            writeln!(f, "  priority/fair throughput under target: {r:.2}x")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_outperforms_fair() {
        let fig = run(ExperimentScale::Quick);
        assert_eq!(fig.series.len(), 3);
        let ratio = fig.priority_over_fair().expect("both series measured");
        // Paper: 1.3×. Accept anything clearly above parity.
        assert!(ratio > 1.1, "priority/fair {ratio}");
        // Priority matches the inference-only baseline's constrained
        // throughput (the paper's headline for this figure).
        let inf = fig
            .series_named("Inf")
            .unwrap()
            .max_tops_under_latency(fig.latency_target_ms);
        let pri = fig
            .series_named("Inf+Train+Priority sched.")
            .unwrap()
            .max_tops_under_latency(fig.latency_target_ms);
        assert!(pri > 0.85 * inf, "priority {pri} vs inference-only {inf}");
        // Training overhead shows at low load: both co-located series
        // have higher p99 than inference-only at the lowest load.
        let low = |name: &str| fig.series_named(name).unwrap().points[0].p99_ms;
        assert!(low("Inf+Train+Fair sched.") > low("Inf"));
    }
}
