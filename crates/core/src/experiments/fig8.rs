//! Figure 8: MMU cycle usage breakdown of Equinox_500µs at various
//! loads, with and without training.

use crate::accelerator::{Equinox, RunOptions};
use crate::experiments::{simulate, ExperimentScale};
use equinox_arith::Encoding;
use equinox_isa::models::ModelSpec;
use equinox_model::LatencyConstraint;
use equinox_sim::CycleBreakdown;

/// One bar of Figure 8.
#[derive(Debug, Clone)]
pub struct Fig8Bar {
    /// Offered load fraction.
    pub load: f64,
    /// True for the `Inf+Train` bar, false for `Inf`.
    pub with_training: bool,
    /// Normalized cycle fractions.
    pub breakdown: CycleBreakdown,
}

/// The Figure 8 result: six bars (5 %, 50 %, 95 % × Inf, Inf+Train).
#[derive(Debug, Clone)]
pub struct Fig8 {
    /// Bars in figure order.
    pub bars: Vec<Fig8Bar>,
}

/// Runs the breakdown experiment on the Equinox_500µs configuration.
pub fn run(scale: ExperimentScale) -> Fig8 {
    let eq = Equinox::build(Encoding::Hbfp8, LatencyConstraint::Micros(500))
        .expect("the 500 µs design exists");
    let timing = eq.compile(&ModelSpec::lstm_2048_25()).expect("reference workload compiles");
    // Figure order: load-major, Inf before Inf+Train.
    let cells: Vec<_> = [0.05, 0.5, 0.95]
        .into_iter()
        .flat_map(|load| [RunOptions::inference(load), RunOptions::colocated(load)])
        .map(|base| (&eq, timing, RunOptions { target_requests: scale.target_requests(), ..base }))
        .collect();
    let bars = cells
        .iter()
        .zip(simulate(cells.clone()))
        .map(|((_, _, opts), report)| Fig8Bar {
            load: opts.load,
            with_training: opts.train_model.is_some(),
            breakdown: report.breakdown.fractions(),
        })
        .collect();
    Fig8 { bars }
}

impl Fig8 {
    /// The bar for a `(load, with_training)` pair.
    pub fn bar(&self, load: f64, with_training: bool) -> Option<&Fig8Bar> {
        self.bars
            .iter()
            .find(|b| (b.load - load).abs() < 1e-9 && b.with_training == with_training)
    }
}

impl std::fmt::Display for Fig8 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Figure 8 — cycle breakdown of Equinox_500us:")?;
        for b in &self.bars {
            writeln!(
                f,
                "  {:>3.0}% load, {:<9}: {}",
                b.load * 100.0,
                if b.with_training { "Inf+Train" } else { "Inf" },
                b.breakdown
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_shapes_match_paper() {
        let fig = run(ExperimentScale::Quick);
        assert_eq!(fig.bars.len(), 6);
        // 5% load, inference only: mostly idle + a large dummy share.
        let low = fig.bar(0.05, false).unwrap().breakdown;
        assert!(low.idle > 0.3, "idle {low:?}");
        assert!(low.dummy > 0.1, "dummy {low:?}");
        // Adding training reclaims most idle cycles.
        let low_t = fig.bar(0.05, true).unwrap().breakdown;
        assert!(low_t.idle < low.idle * 0.6, "{low:?} -> {low_t:?}");
        assert!(low_t.working > low.working);
        // At 95% load the accelerator is near saturation: training is
        // mostly shut out and idle is small.
        let high = fig.bar(0.95, true).unwrap().breakdown;
        assert!(high.working > 0.5, "{high:?}");
        assert!(high.idle < 0.3, "{high:?}");
        // 50% + training pushes working well up (paper: ≈80 %).
        let mid_t = fig.bar(0.5, true).unwrap().breakdown;
        assert!(mid_t.working > 0.6, "{mid_t:?}");
    }
}
