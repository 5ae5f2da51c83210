//! Integration tests of the ISA pipeline: every evaluation workload
//! compiles, passes the resource analyzer, installs within the buffer
//! budgets, encodes to the wire format and decodes back bit-identically,
//! on every configuration the design-space exploration actually selects.

use equinox::core::Equinox;
use equinox::isa::encode::{decode, encode};
use equinox::isa::lower::compile_inference;
use equinox::isa::models::ModelSpec;
use equinox::isa::validate::{validate_installation, BufferBudget};
use equinox_arith::Encoding;

fn workloads() -> Vec<(ModelSpec, usize)> {
    vec![
        (ModelSpec::lstm_2048_25(), 0),  // 0 = use the config's n
        (ModelSpec::gru_2816_1500(), 0),
        (ModelSpec::resnet50(), 8),
        (ModelSpec::mlp_2048x5(), 0),
    ]
}

#[test]
fn every_selected_design_runs_every_workload() {
    let budget = BufferBudget::paper_default();
    for eq in Equinox::family(Encoding::Hbfp8) {
        let dims = eq.dims();
        for (model, batch) in workloads() {
            let batch = if batch == 0 { dims.n } else { batch };
            let program = compile_inference(&model, &dims, batch);
            // MAC conservation.
            assert_eq!(
                program.total_macs(),
                batch as u64 * model.macs_per_sample(),
                "{} on {}",
                model.name(),
                eq.config().name
            );
            // The compiled program respects the geometry and buffers:
            // the resource pass finds nothing, not even a warning.
            let diags = equinox::check::resources::analyze_program(&program, &dims, &budget);
            assert!(diags.is_empty(), "{} on {}: {diags:?}", model.name(), eq.config().name);
            // The service installs (weights + activations fit).
            validate_installation(&model, Encoding::Hbfp8, batch, &budget).unwrap_or_else(
                |e| panic!("{} (batch {batch}): {e}", model.name()),
            );
        }
    }
}

#[test]
fn wire_format_round_trips_real_programs() {
    let eq = Equinox::family(Encoding::Hbfp8)
        .into_iter()
        .find(|e| e.config().name == "Equinox_500us")
        .expect("family contains the 500 µs configuration");
    for (model, batch) in workloads() {
        let batch = if batch == 0 { eq.dims().n } else { batch };
        let program = compile_inference(&model, &eq.dims(), batch);
        let bytes = encode(program.instructions());
        let decoded = decode(&bytes)
            .unwrap_or_else(|e| panic!("{} failed to decode: {e}", model.name()));
        assert_eq!(decoded, program.instructions(), "{}", model.name());
    }
}

#[test]
fn compiled_timing_consistent_with_design_service_time() {
    // The cycle-level timing of the compiled LSTM agrees with the
    // analytical model's batch service time within 30 % for every
    // selected hbfp8 design (the §6 "corroborates our analytical model"
    // check).
    let model = ModelSpec::lstm_2048_25();
    for eq in Equinox::family(Encoding::Hbfp8) {
        let timing = eq.compile(&model).expect("reference workload compiles");
        let simulated = timing.service_time_s(eq.freq_hz());
        let analytical = eq.design().service_time_s;
        let rel = (simulated - analytical).abs() / analytical;
        assert!(
            rel < 0.3,
            "{}: simulated {simulated} vs analytical {analytical}",
            eq.config().name
        );
    }
}
