//! Figure 7: inference tail latency as a function of throughput for the
//! Equinox family, hbfp8 (a) and bfloat16 (b).

use crate::accelerator::{Equinox, RunOptions};
use crate::experiments::{sweep, ExperimentScale, Series};
use equinox_arith::Encoding;
use equinox_isa::models::ModelSpec;

/// The Figure 7 result for one encoding panel.
#[derive(Debug, Clone)]
pub struct Fig7 {
    /// Which panel: hbfp8 (a) or bfloat16 (b).
    pub encoding: Encoding,
    /// One series per family configuration.
    pub series: Vec<Series>,
    /// The paper's dashed latency-target line, ms.
    pub latency_target_ms: f64,
}

/// Sweeps offered load for every configuration of `encoding`'s family,
/// inference only (the baseline panel).
pub fn run(encoding: Encoding, scale: ExperimentScale) -> Fig7 {
    let model = ModelSpec::lstm_2048_25();
    let family = Equinox::family(encoding);
    let lines = family
        .iter()
        .map(|eq| {
            let timing = eq.compile(&model).expect("reference workload compiles");
            (eq.config().name.clone(), eq, timing, RunOptions::inference(0.0))
        })
        .collect();
    Fig7 {
        encoding,
        series: sweep(lines, scale),
        latency_target_ms: Equinox::latency_target_s(encoding) * 1e3,
    }
}

impl Fig7 {
    /// A series by configuration name.
    pub fn series_named(&self, name: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.name == name)
    }

    /// The family-wide throughput ratio under the latency target:
    /// best relaxed-latency configuration vs the latency-optimal one.
    pub fn relaxed_vs_min_ratio(&self) -> Option<f64> {
        let min = self.series_named("Equinox_min")?;
        let best = self
            .series
            .iter()
            .map(|s| s.max_tops_under_latency(self.latency_target_ms))
            .fold(0.0, f64::max);
        let min_best = min.max_tops_under_latency(self.latency_target_ms);
        (min_best > 0.0).then(|| best / min_best)
    }
}

impl std::fmt::Display for Fig7 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Figure 7 ({}) — p99 latency vs inference throughput (target {:.2} ms):",
            self.encoding, self.latency_target_ms
        )?;
        for s in &self.series {
            writeln!(f, "  {}:", s.name)?;
            for p in &s.points {
                writeln!(
                    f,
                    "    load {:>4.0}%  {:>7.1} TOp/s  p99 {:>8.3} ms",
                    p.load * 100.0,
                    p.inference_tops,
                    p.p99_ms
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hbfp8_panel_quick() {
        let fig = run(Encoding::Hbfp8, ExperimentScale::Quick);
        assert_eq!(fig.series.len(), 4);
        // Relaxed-latency designs reach several times the min-latency
        // throughput under the target (the paper reports up to 6×).
        let ratio = fig.relaxed_vs_min_ratio().expect("min series present");
        assert!(ratio > 3.0, "ratio {ratio}");
        for s in &fig.series {
            // Every configuration stays under the service-level target
            // at sub-saturation loads (the Figure 7 regime)...
            for p in &s.points {
                assert!(
                    p.p99_ms < fig.latency_target_ms,
                    "{}: p99 {} over target at load {}",
                    s.name,
                    p.p99_ms,
                    p.load
                );
            }
            // ...and achieved throughput scales with offered load.
            let first = s.points.first().unwrap();
            let last = s.points.last().unwrap();
            assert!(
                last.inference_tops > 5.0 * first.inference_tops,
                "{}: {} -> {}",
                s.name,
                first.inference_tops,
                last.inference_tops
            );
        }
        // Batched configurations pay a formation-dominated p99 at low
        // load (the paper's low-load regime for Equinox_500us), well
        // above the min-latency configuration's.
        let min0 = fig.series_named("Equinox_min").unwrap().points[0].p99_ms;
        let b500 = fig.series_named("Equinox_500us").unwrap().points[0].p99_ms;
        assert!(b500 > 5.0 * min0, "500us low-load p99 {b500} vs min {min0}");
    }
}
