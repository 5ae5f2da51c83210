//! Table 3: area and power of Equinox_500µs by component.

use crate::accelerator::Equinox;
use equinox_arith::Encoding;
use equinox_model::LatencyConstraint;
use equinox_synth::SynthesisReport;

/// Builds the Table 3 roll-up for the 500 µs configuration selected by
/// the design-space exploration.
pub fn run() -> SynthesisReport {
    let eq = Equinox::build(Encoding::Hbfp8, LatencyConstraint::Micros(500))
        .expect("the 500 µs design exists");
    SynthesisReport::for_config(&eq.dims(), eq.freq_hz(), Encoding::Hbfp8)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthesis_claims_hold_for_selected_design() {
        let r = run();
        assert!(r.total_area_mm2() > 200.0, "{}", r.total_area_mm2());
        let (ca, cp) = r.controller_overhead();
        assert!(ca < 0.01 && cp < 0.01, "controller {ca}/{cp}");
        let (ea, ep) = r.encoding_overhead();
        assert!(ea > 0.02 && ea < 0.08, "encoding area {ea}");
        assert!(ep > 0.08 && ep < 0.18, "encoding power {ep}");
        let (da, dp) = r.datapath_share();
        assert!(da > 0.9 && dp > 0.75, "datapath {da}/{dp}");
    }
}
