//! Every workload at smoke scale, plain and traced: all output checks
//! pass, every declared metric is reported, and the summary renders.

use equinox_benchmark::harness::RunOptions;
use equinox_benchmark::workloads::{run, NAMES};
use equinox_benchmark::{json, END_TO_END, PER_LAYER};
use std::time::Instant;

#[test]
fn every_workload_passes_its_checks_at_smoke_scale() {
    let start = Instant::now();
    for name in NAMES {
        for trace in [false, true] {
            let options = RunOptions {
                seed: 42,
                seconds: 1.0,
                trace,
                smoke: true,
            };
            let report = run(name, &options).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(report.failed, 0, "{name}: {:?}", report.failures);
            assert_eq!(report.passes, 1, "{name}");
            let expected = if trace {
                PER_LAYER.len()
            } else {
                END_TO_END.len()
            };
            assert_eq!(report.metrics.len(), expected, "{name}");
            json::to_string(&report.summary()).unwrap_or_else(|e| panic!("{name}: {e}"));
            if trace {
                let coverage = report
                    .metrics
                    .iter()
                    .find(|m| m.0 == "trace.coverage_frac")
                    .unwrap()
                    .2;
                assert!(coverage > 0.5, "{name}: coverage {coverage}");
            } else {
                assert!(
                    report.metrics.iter().all(|m| m.2 > 0.0),
                    "{name}: {:?}",
                    report.metrics
                );
            }
        }
    }
    eprintln!(
        "all workloads, plain and traced, at smoke scale: {:.1} s",
        start.elapsed().as_secs_f64()
    );
}

#[test]
fn the_same_seed_gives_the_same_outputs() {
    let options = RunOptions {
        seed: 7,
        seconds: 1.0,
        trace: false,
        smoke: true,
    };
    for name in ["cohost", "allreduce"] {
        let a = run(name, &options).unwrap();
        let b = run(name, &options).unwrap();
        assert_eq!(a.digest, b.digest, "{name}");
        let c = run(name, &RunOptions { seed: 8, ..options }).unwrap();
        assert_ne!(a.digest, c.digest, "{name}: the seed must reach the inputs");
    }
}
