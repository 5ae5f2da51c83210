//! Table 1: Pareto-optimal designs under various latency constraints.

use equinox_arith::Encoding;
use equinox_model::{DesignSpace, ParetoTable, TechnologyParams};

/// Builds Table 1 from the full §4 sweep (both encodings swept
/// concurrently; they are independent).
pub fn run() -> ParetoTable {
    let tech = TechnologyParams::tsmc28();
    let mut spaces = equinox_par::parallel_map(
        vec![Encoding::Bfloat16, Encoding::Hbfp8],
        |enc| DesignSpace::sweep(enc, &tech),
    );
    let hbfp8 = spaces.pop().expect("two encodings swept");
    let bf16 = spaces.pop().expect("two encodings swept");
    ParetoTable::build(&bf16, &hbfp8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use equinox_model::LatencyConstraint;

    #[test]
    fn reproduces_headline_ratios() {
        let t = run();
        assert_eq!(t.rows.len(), 4);
        let min = t.row(LatencyConstraint::MinLatency).unwrap().hbfp8.unwrap();
        let l500 = t.row(LatencyConstraint::Micros(500)).unwrap().hbfp8.unwrap();
        // The abstract's claim: ≈6.67× at 500 µs vs latency-optimal.
        let ratio = l500.throughput_ops / min.throughput_ops;
        assert!(ratio > 5.0 && ratio < 8.0, "{ratio}");
    }
}
