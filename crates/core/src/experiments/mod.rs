//! Experiment drivers — one module per paper table/figure.
//!
//! Every driver takes an [`ExperimentScale`] so the same code serves
//! quick CI checks (`Quick`) and the full regeneration runs (`Full`)
//! behind `cargo run -p equinox-bench --bin regen-results`.

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
