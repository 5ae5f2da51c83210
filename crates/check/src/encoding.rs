//! Pass family 3: binary-encoding verification.
//!
//! Programs are installed through the host interface as 16-byte words
//! (`equinox_isa::encode`); an instruction whose wire form does not
//! decode back to itself would be silently corrupted at installation
//! time. This pass round-trips every instruction through
//! encode→decode and reports any mismatch — including genuine lossy
//! encodings, such as `MatMulTile` row counts or region offsets that
//! truncate through the 32-bit operand fields.
//!
//! Each instruction is encoded and decoded on its own, so one bad
//! instruction cannot shift the words of the next. The pass reuses one
//! word buffer and one instruction buffer throughout
//! ([`encode_into`], [`decode_into`]), so a round trip allocates
//! nothing.

use crate::diag::{Code, Diagnostic, Span};
use equinox_isa::encode::{decode, decode_into, encode_into, DecodeError, INSTRUCTION_BYTES};
use equinox_isa::Program;

/// Round-trips every instruction of `program` through the wire format.
pub fn analyze(program: &Program) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut words = Vec::with_capacity(3 * INSTRUCTION_BYTES);
    let mut decoded = Vec::with_capacity(1);
    for (index, instr) in program.instructions().iter().enumerate() {
        words.clear();
        encode_into(&mut words, instr);
        decoded.clear();
        match decode_into(&words, &mut decoded) {
            Ok(()) if decoded.len() == 1 && decoded[0] == *instr => {}
            Ok(()) => {
                diags.push(
                    Diagnostic::error(
                        Code::ROUND_TRIP_MISMATCH,
                        format!(
                            "instruction {instr:?} decodes back as {:?}; the wire \
                             format loses information",
                            decoded.first()
                        ),
                    )
                    .with_span(Span::at(index)),
                );
            }
            Err(e) => {
                diags.push(
                    Diagnostic::error(
                        Code::DECODE_ERROR,
                        format!("own encoding fails to decode: {e}"),
                    )
                    .with_span(Span::at(index)),
                );
            }
        }
    }
    diags
}

/// Decodes an installable byte stream, mapping failures to
/// [`Code::DECODE_ERROR`] with the word index as the span.
///
/// # Errors
///
/// The diagnostic for the first malformed word or truncated tail.
pub fn decode_stream(bytes: &[u8]) -> Result<Vec<equinox_isa::Instruction>, Diagnostic> {
    decode(bytes).map_err(|e| {
        let span = match e {
            DecodeError::TruncatedWord { .. } => Span::at(bytes.len() / INSTRUCTION_BYTES),
            DecodeError::UnknownOpcode { index, .. }
            | DecodeError::UnknownModifier { index, .. }
            | DecodeError::MissingOperandWord { index }
            | DecodeError::StrayOperandWord { index } => Span::at(index),
        };
        Diagnostic::error(Code::DECODE_ERROR, e.to_string()).with_span(span)
    })
}

/// The pass with a fresh `encode` and `decode` per instruction, three
/// allocations each. It is the specification the equivalence properties
/// hold the pass to.
#[cfg(test)]
pub(crate) mod reference {
    use crate::diag::{Code, Diagnostic, Span};
    use equinox_isa::encode::{decode, encode};
    use equinox_isa::Program;

    /// Round-trips every instruction of `program` through the wire format.
    pub(crate) fn analyze(program: &Program) -> Vec<Diagnostic> {
        let mut diags = Vec::new();
        for (index, instr) in program.instructions().iter().enumerate() {
            let words = encode(std::slice::from_ref(instr));
            match decode(&words) {
                Ok(decoded) if decoded.len() == 1 && decoded[0] == *instr => {}
                Ok(decoded) => {
                    diags.push(
                        Diagnostic::error(
                            Code::ROUND_TRIP_MISMATCH,
                            format!(
                                "instruction {instr:?} decodes back as {:?}; the wire \
                                 format loses information",
                                decoded.first()
                            ),
                        )
                        .with_span(Span::at(index)),
                    );
                }
                Err(e) => {
                    diags.push(
                        Diagnostic::error(
                            Code::DECODE_ERROR,
                            format!("own encoding fails to decode: {e}"),
                        )
                        .with_span(Span::at(index)),
                    );
                }
            }
        }
        diags
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use equinox_isa::encode::encode;
    use equinox_isa::instruction::{BufferKind, Region, SimdOpKind};
    use equinox_isa::layers::GemmMode;
    use equinox_isa::Instruction;

    #[test]
    fn representable_instructions_round_trip() {
        let mut p = Program::new("ok");
        p.extend([
            Instruction::MatMulTile {
                rows: 186,
                k_span: 558,
                out_span: 558,
                mode: GemmMode::VectorMatrix,
                weights: Region::new(0x1000, 558 * 558),
                input: Region::new(0, 186 * 558),
                output: Region::new(10 << 20, 186 * 558),
            },
            Instruction::Simd {
                kind: SimdOpKind::Loss,
                elems: 4096,
                region: Region::new(64, 4096),
            },
            Instruction::LoadDram {
                target: BufferKind::Weight,
                region: Region::new(0, 1 << 20),
            },
            Instruction::Sync,
        ]);
        assert!(analyze(&p).is_empty());
    }

    #[test]
    fn truncating_row_count_is_detected() {
        // The wire word stores rows in 32 bits; larger counts silently
        // wrap. The round-trip pass is what catches this class of bug.
        let mut p = Program::new("wide");
        p.push(Instruction::matmul((u32::MAX as usize) + 2, 1, 1, GemmMode::VectorMatrix));
        let d = analyze(&p);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, Code::ROUND_TRIP_MISMATCH);
        assert_eq!(d[0].span, Some(Span::at(0)));
    }

    #[test]
    fn truncating_region_offset_is_detected() {
        // Region offsets ride 32-bit fields: a hand-built load past
        // 4 GiB does not survive the wire.
        let mut p = Program::new("far");
        p.push(Instruction::LoadDram {
            target: BufferKind::Activation,
            region: Region::new(1 << 33, 64),
        });
        let d = analyze(&p);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, Code::ROUND_TRIP_MISMATCH);
    }

    #[test]
    fn stream_decode_maps_errors() {
        // Truncated tail.
        let err = decode_stream(&[0u8; 17]).unwrap_err();
        assert_eq!(err.code, Code::DECODE_ERROR);
        // Unknown opcode in word 1.
        let mut bytes = vec![0u8; 32];
        bytes[0] = 0x06; // Sync
        bytes[16] = 0xEE;
        let err = decode_stream(&bytes).unwrap_err();
        assert_eq!(err.span, Some(Span::at(1)));
    }

    #[test]
    fn stream_decode_maps_operand_word_errors() {
        // A geometry word with its operand extensions stripped.
        let mut p = Program::new("mm");
        p.push(Instruction::matmul(4, 4, 4, GemmMode::VectorMatrix));
        let full = encode(p.instructions());
        let err = decode_stream(&full[..16]).unwrap_err();
        assert_eq!(err.code, Code::DECODE_ERROR);
        assert_eq!(err.span, Some(Span::at(0)));
        // An operand word with no geometry word before it.
        let stray = full[16..32].to_vec();
        let err = decode_stream(&stray).unwrap_err();
        assert_eq!(err.code, Code::DECODE_ERROR);
        assert_eq!(err.span, Some(Span::at(0)));
    }
}
