//! Figure 11: adaptive batching — (a) static vs adaptive tail latency,
//! (b) threshold sensitivity of tail latency, (c) threshold sensitivity
//! of training throughput.

use crate::accelerator::{Equinox, RunOptions};
use crate::experiments::{sweep, ExperimentScale, Series};
use equinox_arith::Encoding;
use equinox_isa::models::ModelSpec;
use equinox_model::LatencyConstraint;
use equinox_sim::BatchingPolicy;

/// The thresholds swept in Figures 11b/11c, as multiples of the service
/// time.
pub const THRESHOLDS: [f64; 5] = [2.0, 4.0, 6.0, 8.0, 10.0];

/// The Figure 11 result.
#[derive(Debug, Clone)]
pub struct Fig11 {
    /// Panel (a): `Static batching` and `Adaptive batching` series.
    pub panel_a: Vec<Series>,
    /// Panel (b): one series per threshold, inference only.
    pub panel_b: Vec<Series>,
    /// Panel (c): one series per threshold, with training.
    pub panel_c: Vec<Series>,
    /// The paper's dashed latency-target line, ms.
    pub latency_target_ms: f64,
}

/// Runs all three panels on Equinox_500µs.
pub fn run(scale: ExperimentScale) -> Fig11 {
    let eq = Equinox::build(Encoding::Hbfp8, LatencyConstraint::Micros(500))
        .expect("the 500 µs design exists");
    let timing = eq.compile(&ModelSpec::lstm_2048_25()).expect("reference workload compiles");
    let line = |name: String, batching, base: RunOptions| {
        (name, &eq, timing, RunOptions { batching: Some(batching), ..base })
    };
    // Panel (a), then (b) inference only and (c) with training, one line
    // per threshold.
    let mut lines = vec![
        line("Static batching".into(), BatchingPolicy::Static, RunOptions::inference(0.0)),
        line(
            "Adaptive batching".into(),
            BatchingPolicy::Adaptive { threshold_x: 2.0 },
            RunOptions::inference(0.0),
        ),
    ];
    for base in [RunOptions::inference(0.0), RunOptions::colocated(0.0)] {
        for &x in &THRESHOLDS {
            let batching = BatchingPolicy::Adaptive { threshold_x: x };
            lines.push(line(format!("{x:.0}x service time"), batching, base.clone()));
        }
    }
    let mut all = sweep(lines, scale);
    let panel_c = all.split_off(2 + THRESHOLDS.len());
    let panel_b = all.split_off(2);
    Fig11 {
        panel_a: all,
        panel_b,
        panel_c,
        latency_target_ms: Equinox::latency_target_s(Encoding::Hbfp8) * 1e3,
    }
}

impl std::fmt::Display for Fig11 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Figure 11 — adaptive batching on Equinox_500us (target {:.2} ms):",
            self.latency_target_ms
        )?;
        writeln!(f, " (a) static vs adaptive, p99 by load:")?;
        for s in &self.panel_a {
            write!(f, "   {:<18}", s.name)?;
            for p in &s.points {
                write!(f, " {:>8.2}", p.p99_ms)?;
            }
            writeln!(f)?;
        }
        writeln!(f, " (b) p99 (ms) by load per threshold:")?;
        for s in &self.panel_b {
            write!(f, "   {:<18}", s.name)?;
            for p in &s.points {
                write!(f, " {:>8.2}", p.p99_ms)?;
            }
            writeln!(f)?;
        }
        writeln!(f, " (c) training TOp/s by load per threshold:")?;
        for s in &self.panel_c {
            write!(f, "   {:<18}", s.name)?;
            for p in &s.points {
                write!(f, " {:>8.1}", p.training_tops)?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_batching_effects() {
        let fig = run(ExperimentScale::Quick);
        assert_eq!(fig.panel_a.len(), 2);
        let static_s = &fig.panel_a[0];
        let adaptive_s = &fig.panel_a[1];
        // (a) at low load static batching waits >10× the service time;
        // adaptive bounds formation near the threshold.
        let low_static = static_s.points[0].p99_ms;
        let low_adaptive = adaptive_s.points[0].p99_ms;
        assert!(
            low_static > 3.0 * low_adaptive,
            "static {low_static} vs adaptive {low_adaptive}"
        );
        // Both converge at high load.
        let hi_static = static_s.points.last().unwrap().p99_ms;
        let hi_adaptive = adaptive_s.points.last().unwrap().p99_ms;
        assert!(
            (hi_static - hi_adaptive).abs() / hi_adaptive < 0.6,
            "static {hi_static} vs adaptive {hi_adaptive}"
        );
        // (b) a larger threshold never lowers low-load p99.
        let low_p99: Vec<f64> = fig.panel_b.iter().map(|s| s.points[0].p99_ms).collect();
        for pair in low_p99.windows(2) {
            assert!(pair[1] >= pair[0] * 0.95, "{low_p99:?}");
        }
        // (c) training throughput positive at low load for every threshold.
        for s in &fig.panel_c {
            assert!(s.points[0].training_tops > 5.0, "{}: {:?}", s.name, s.points[0]);
        }
    }
}
