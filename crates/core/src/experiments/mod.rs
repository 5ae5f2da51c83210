//! Experiment drivers — one module per paper table/figure.
//!
//! Every driver takes an [`ExperimentScale`] so the same code serves
//! quick CI checks (`Quick`) and the full regeneration runs (`Full`)
//! behind `cargo run -p equinox-bench --bin regen-results`.

use crate::accelerator::{Equinox, RunOptions};
use equinox_isa::lower::InferenceTiming;
use equinox_sim::SimReport;

pub mod ablation;
pub mod allreduce;
pub mod bounds_calibration;
pub mod checks;
pub mod diurnal;
pub mod fault_sweep;
pub mod fig10;
pub mod fig11;
pub mod fig2;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod fitted;
pub mod fleet;
pub mod numerics;
pub mod serve;
pub mod software_sched;
pub mod table1;
pub mod table2;
pub mod table3;

/// How much work an experiment run should do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExperimentScale {
    /// Reduced loads/epochs/requests — seconds of runtime, for tests.
    Quick,
    /// The paper-scale sweep.
    Full,
}

impl ExperimentScale {
    /// The offered-load sweep for load-based figures.
    pub fn loads(self) -> Vec<f64> {
        match self {
            ExperimentScale::Quick => vec![0.1, 0.3, 0.5, 0.7, 0.9],
            ExperimentScale::Full => {
                vec![0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1.0]
            }
        }
    }

    /// Target completed requests per simulation point.
    pub fn target_requests(self) -> u64 {
        match self {
            ExperimentScale::Quick => 1200,
            ExperimentScale::Full => 12000,
        }
    }

    /// Training epochs for the Figure 2 runs.
    pub fn epochs(self) -> usize {
        match self {
            ExperimentScale::Quick => 10,
            ExperimentScale::Full => 40,
        }
    }
}

/// One measured point of a load sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadPoint {
    /// Offered load (fraction of saturation).
    pub load: f64,
    /// Achieved inference throughput, TOp/s.
    pub inference_tops: f64,
    /// 99th-percentile latency, ms.
    pub p99_ms: f64,
    /// Achieved training throughput, TOp/s.
    pub training_tops: f64,
}

/// A named series of load points (one line of a figure).
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend label.
    pub name: String,
    /// Points in ascending load order.
    pub points: Vec<LoadPoint>,
}

impl Series {
    /// The highest inference throughput achieved under `p99_limit_ms`
    /// (the paper's "throughput under latency constraints").
    pub fn max_tops_under_latency(&self, p99_limit_ms: f64) -> f64 {
        self.points
            .iter()
            .filter(|p| p.p99_ms <= p99_limit_ms)
            .map(|p| p.inference_tops)
            .fold(0.0, f64::max)
    }
}

/// Runs one simulation per `(design, compiled workload, options)` cell
/// on the pool and returns the reports in cell order. Every run is
/// seeded identically, so neither the order nor the thread count can
/// change a report.
pub(crate) fn simulate(cells: Vec<(&Equinox, InferenceTiming, RunOptions)>) -> Vec<SimReport> {
    equinox_par::parallel_map(cells, |(eq, timing, opts)| {
        eq.run_compiled(&timing, &opts).expect("simulation run")
    })
}

/// Runs each named line at every load of `scale` with
/// `scale.target_requests()` and returns one [`Series`] per line, in line
/// order. A line's options fix everything but the load.
pub(crate) fn sweep(
    lines: Vec<(String, &Equinox, InferenceTiming, RunOptions)>,
    scale: ExperimentScale,
) -> Vec<Series> {
    let loads = scale.loads();
    let cells = lines
        .iter()
        .flat_map(|(_, eq, timing, opts)| {
            loads.iter().map(|&load| {
                let opts =
                    RunOptions { load, target_requests: scale.target_requests(), ..opts.clone() };
                (*eq, *timing, opts)
            })
        })
        .collect();
    let reports = simulate(cells);
    lines
        .into_iter()
        .zip(reports.chunks(loads.len()))
        .map(|((name, ..), reports)| Series {
            name,
            points: loads
                .iter()
                .zip(reports)
                .map(|(&load, r)| LoadPoint {
                    load,
                    inference_tops: r.inference_tops(),
                    p99_ms: r.p99_ms(),
                    training_tops: r.training_tops(),
                })
                .collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_differ() {
        assert!(ExperimentScale::Quick.loads().len() < ExperimentScale::Full.loads().len());
        assert!(ExperimentScale::Quick.target_requests() < ExperimentScale::Full.target_requests());
        assert!(ExperimentScale::Quick.epochs() < ExperimentScale::Full.epochs());
    }

    #[test]
    fn series_latency_constrained_max() {
        let s = Series {
            name: "x".into(),
            points: vec![
                LoadPoint { load: 0.5, inference_tops: 100.0, p99_ms: 1.0, training_tops: 0.0 },
                LoadPoint { load: 0.9, inference_tops: 300.0, p99_ms: 10.0, training_tops: 0.0 },
            ],
        };
        assert_eq!(s.max_tops_under_latency(5.0), 100.0);
        assert_eq!(s.max_tops_under_latency(20.0), 300.0);
        assert_eq!(s.max_tops_under_latency(0.1), 0.0);
    }
}
