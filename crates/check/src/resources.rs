//! Pass family 2: resource-envelope checks.
//!
//! Checks programs against the MMU geometry and the instruction buffer,
//! reporting *every* violation with a stable code and span, reports
//! `equinox_isa::validate`'s installation verdict as a diagnostic, and
//! adds the zero-extent lint and training DRAM-traffic sanity checks.

use crate::diag::{Code, Diagnostic, Span};
use equinox_arith::Encoding;
use equinox_isa::encode::INSTRUCTION_BYTES;
use equinox_isa::layers::GemmMode;
use equinox_isa::models::ModelSpec;
use equinox_isa::training::TrainingProfile;
use equinox_isa::validate::{validate_installation, BufferBudget, ValidationError};
use equinox_isa::{ArrayDims, Instruction, Program};

/// Checks every instruction of `program` against the MMU geometry and
/// the instruction-buffer streaming capacity.
pub fn analyze_program(
    program: &Program,
    dims: &ArrayDims,
    budget: &BufferBudget,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let capacity = (budget.instruction_bytes as usize) / INSTRUCTION_BYTES;
    let mut region = 0usize;
    let mut region_start = 0usize;
    let close_region = |diags: &mut Vec<Diagnostic>, region: usize, start, end| {
        if region > capacity {
            diags.push(
                Diagnostic::error(
                    Code::REGION_TOO_LARGE,
                    format!(
                        "dependence region holds {region} encoded words but the \
                         {} byte instruction buffer streams {capacity}",
                        budget.instruction_bytes
                    ),
                )
                .with_span(Span { start, end }),
            );
        }
    };
    for (index, instr) in program.instructions().iter().enumerate() {
        match *instr {
            Instruction::MatMulTile { rows, k_span, out_span, mode, .. } => {
                let max_out = match mode {
                    GemmMode::VectorMatrix => dims.tile_out(),
                    GemmMode::WeightBroadcast => dims.n,
                };
                if k_span > dims.tile_k() || out_span > max_out {
                    diags.push(
                        Diagnostic::error(
                            Code::TILE_TOO_LARGE,
                            format!(
                                "tile {k_span}×{out_span} exceeds the {} geometry \
                                 (tile_k {}, max out {max_out})",
                                dims,
                                dims.tile_k()
                            ),
                        )
                        .with_span(Span::at(index)),
                    );
                }
                if rows == 0 || k_span == 0 || out_span == 0 {
                    diags.push(
                        Diagnostic::warning(
                            Code::ZERO_EXTENT_TILE,
                            format!(
                                "tile with zero extent ({rows} rows, k {k_span}, \
                                 out {out_span}) performs no work"
                            ),
                        )
                        .with_span(Span::at(index)),
                    );
                }
                region += instr.encoded_words();
            }
            Instruction::Simd { elems, .. } => {
                if elems == 0 {
                    diags.push(
                        Diagnostic::warning(
                            Code::ZERO_EXTENT_TILE,
                            "SIMD instruction over zero elements performs no work".to_string(),
                        )
                        .with_span(Span::at(index)),
                    );
                }
                region += 1;
            }
            Instruction::Sync => {
                close_region(&mut diags, region, region_start, index);
                region = 0;
                region_start = index + 1;
            }
            _ => region += instr.encoded_words(),
        }
    }
    close_region(&mut diags, region, region_start, program.len());
    diags
}

/// Checks whether `model` (served at `batch`) installs under `budget`,
/// as structured diagnostics ([`Code::WEIGHTS_DONT_FIT`] /
/// [`Code::ACTIVATIONS_DONT_FIT`]).
pub fn analyze_installation(
    model: &ModelSpec,
    encoding: Encoding,
    batch: usize,
    budget: &BufferBudget,
) -> Vec<Diagnostic> {
    match validate_installation(model, encoding, batch, budget) {
        Ok(()) => Vec::new(),
        Err(e) => {
            let code = match e {
                ValidationError::WeightsDontFit { .. } => Code::WEIGHTS_DONT_FIT,
                ValidationError::ActivationsDontFit { .. } => Code::ACTIVATIONS_DONT_FIT,
            };
            vec![Diagnostic::error(code, e.to_string())]
        }
    }
}

/// Sanity-checks one training iteration's DRAM traffic against the
/// interface bandwidth and the MMU's compute rate.
///
/// * zero DRAM bytes per iteration is a profiling bug (training streams
///   from DRAM by construction, §2.2) — warning;
/// * DRAM-bound training (bandwidth limit below the compute limit) is
///   the expected regime and reported as a note.
pub fn analyze_training(
    profile: &TrainingProfile,
    freq_hz: f64,
    bandwidth_bytes_per_s: f64,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if profile.iteration_dram_bytes == 0 {
        diags.push(Diagnostic::warning(
            Code::DRAM_TRAFFIC_SANITY,
            "training iteration moves zero DRAM bytes; the training context \
             streams operands from DRAM by construction"
                .to_string(),
        ));
        return diags;
    }
    let dram = profile.dram_limited_ops(bandwidth_bytes_per_s);
    let mmu = profile.mmu_limited_ops(freq_hz);
    if dram < mmu {
        diags.push(Diagnostic::note(
            Code::DRAM_TRAFFIC_SANITY,
            format!(
                "training is DRAM-bound: bandwidth limits it to {:.1} TOp/s \
                 while the MMU could sustain {:.1} TOp/s",
                dram / 1e12,
                mmu / 1e12
            ),
        ));
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use equinox_isa::lower::compile_inference;
    use equinox_isa::training::TrainingSetup;

    fn dims() -> ArrayDims {
        ArrayDims { n: 186, w: 3, m: 3 }
    }

    #[test]
    fn compiled_programs_are_clean() {
        let d = dims();
        for model in [ModelSpec::lstm_2048_25(), ModelSpec::resnet50()] {
            let batch = if model.is_vector_matrix() { d.n } else { 8 };
            let p = compile_inference(&model, &d, batch);
            let diags = analyze_program(&p, &d, &BufferBudget::paper_default());
            assert!(diags.is_empty(), "{}: {diags:?}", model.name());
        }
    }

    #[test]
    fn all_oversized_tiles_reported() {
        let mut p = Program::new("bad");
        for _ in 0..3 {
            p.push(Instruction::matmul(1, dims().tile_k() + 1, 1, GemmMode::VectorMatrix));
        }
        let diags = analyze_program(&p, &dims(), &BufferBudget::paper_default());
        assert_eq!(
            diags.iter().filter(|d| d.code == Code::TILE_TOO_LARGE).count(),
            3
        );
    }

    #[test]
    fn oversized_region_span_covers_region() {
        let mut p = Program::new("long");
        for _ in 0..1000 {
            p.push(Instruction::matmul(1, 1, 1, GemmMode::VectorMatrix));
        }
        // 1000 three-word tile multiplies = 3000 words > 2048.
        let diags = analyze_program(&p, &dims(), &BufferBudget::paper_default());
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::REGION_TOO_LARGE);
        assert_eq!(diags[0].span, Some(Span { start: 0, end: 1000 }));
        assert!(diags[0].message.contains("3000 encoded words"), "{}", diags[0].message);
        // With syncs every 600 instructions (1800 words) it streams.
        let mut split = Program::new("split");
        for i in 0..3000 {
            split.push(Instruction::matmul(1, 1, 1, GemmMode::VectorMatrix));
            if i % 600 == 599 {
                split.push(Instruction::Sync);
            }
        }
        assert!(analyze_program(&split, &dims(), &BufferBudget::paper_default()).is_empty());
    }

    #[test]
    fn zero_extent_is_warning_only() {
        let mut p = Program::new("noop");
        p.push(Instruction::matmul(0, 1, 1, GemmMode::VectorMatrix));
        p.push(Instruction::simd(equinox_isa::instruction::SimdOpKind::Activation, 0));
        let diags = analyze_program(&p, &dims(), &BufferBudget::paper_default());
        assert_eq!(diags.len(), 2);
        assert!(diags.iter().all(|d| d.code == Code::ZERO_EXTENT_TILE));
        assert!(diags.iter().all(|d| d.severity == crate::diag::Severity::Warning));
    }

    #[test]
    fn installation_maps_validation_codes() {
        let budget = BufferBudget::paper_default();
        let too_big = ModelSpec::new(
            "huge",
            vec![equinox_isa::layers::GemmStep::dense(10_000, 10_000)],
        );
        let d = analyze_installation(&too_big, Encoding::Bfloat16, 1, &budget);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, Code::WEIGHTS_DONT_FIT);
        let d = analyze_installation(&ModelSpec::resnet50(), Encoding::Hbfp8, 64, &budget);
        assert_eq!(d[0].code, Code::ACTIVATIONS_DONT_FIT);
        assert!(analyze_installation(&ModelSpec::lstm_2048_25(), Encoding::Hbfp8, 186, &budget)
            .is_empty());
    }

    #[test]
    fn training_dram_bound_is_a_note() {
        let p = TrainingProfile::profile(
            &ModelSpec::lstm_2048_25(),
            &dims(),
            &TrainingSetup::paper_default(),
        );
        let d = analyze_training(&p, 610e6, 1e12);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, Code::DRAM_TRAFFIC_SANITY);
        assert_eq!(d[0].severity, crate::diag::Severity::Note);
    }

    #[test]
    fn zero_dram_bytes_is_a_warning() {
        let p = TrainingProfile {
            iteration_macs: 1,
            iteration_mmu_cycles: 1,
            iteration_dram_bytes: 0,
            iteration_simd_cycles: 0,
            batch: 1,
        };
        let d = analyze_training(&p, 610e6, 1e12);
        assert_eq!(d[0].severity, crate::diag::Severity::Warning);
    }
}
