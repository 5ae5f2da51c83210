//! Binary encoding of the accelerator ISA.
//!
//! Programs are installed into the 32 KB instruction buffer through the
//! host interface (§3.1), which requires a concrete wire format. Each
//! instruction encodes to one or more fixed 16-byte words: one opcode
//! byte, one modifier byte, and up to three little-endian operand
//! fields per word. A tile multiply needs three buffer regions (six
//! 32-bit fields) on top of its geometry, so it occupies three words:
//! the geometry word (opcode `0x01`) followed by two operand-extension
//! words (opcode `0x07`, modifiers 0 and 1). All other instructions fit
//! in a single word. The decoder is total over encoder output
//! (round-trip property-tested) and rejects malformed words — including
//! detached or missing operand-extension words — with a descriptive
//! error.
//!
//! Region offsets and extents are encoded as `u32`: the largest on-chip
//! buffer (the 50 MB weight buffer) is far below 4 GiB. SIMD element
//! counts are likewise `u32` on the wire; lowering never exceeds that,
//! and the `EQX0301` encoding-fidelity pass flags any hand-built
//! instruction whose fields would not survive the round trip.

use crate::instruction::{BufferKind, Instruction, Region, SimdOpKind};
use crate::layers::GemmMode;

/// Size of one encoded instruction word, bytes.
pub const INSTRUCTION_BYTES: usize = 16;

/// Errors produced by [`decode`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The input was not a whole number of instruction words.
    TruncatedWord {
        /// Bytes left over.
        remainder: usize,
    },
    /// Unknown opcode byte.
    UnknownOpcode {
        /// The offending opcode.
        opcode: u8,
        /// Word index in the stream.
        index: usize,
    },
    /// Unknown modifier for the given opcode.
    UnknownModifier {
        /// The opcode whose modifier was invalid.
        opcode: u8,
        /// The offending modifier.
        modifier: u8,
        /// Word index in the stream.
        index: usize,
    },
    /// A tile-multiply geometry word was not followed by its two
    /// operand-extension words (opcode `0x07`, modifiers 0 then 1).
    MissingOperandWord {
        /// Word index of the geometry word.
        index: usize,
    },
    /// An operand-extension word appeared without a preceding
    /// tile-multiply geometry word.
    StrayOperandWord {
        /// Word index of the stray word.
        index: usize,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::TruncatedWord { remainder } => {
                write!(f, "truncated instruction word: {remainder} trailing bytes")
            }
            DecodeError::UnknownOpcode { opcode, index } => {
                write!(f, "unknown opcode {opcode:#04x} at word {index}")
            }
            DecodeError::UnknownModifier { opcode, modifier, index } => {
                write!(
                    f,
                    "unknown modifier {modifier:#04x} for opcode {opcode:#04x} at word {index}"
                )
            }
            DecodeError::MissingOperandWord { index } => {
                write!(
                    f,
                    "tile multiply at word {index} is missing its operand-extension words"
                )
            }
            DecodeError::StrayOperandWord { index } => {
                write!(
                    f,
                    "operand-extension word at {index} without a preceding tile multiply"
                )
            }
        }
    }
}

impl std::error::Error for DecodeError {}

const OP_MATMUL: u8 = 0x01;
const OP_SIMD: u8 = 0x02;
const OP_LOAD_DRAM: u8 = 0x03;
const OP_STORE_DRAM: u8 = 0x04;
const OP_HOST_IO: u8 = 0x05;
const OP_SYNC: u8 = 0x06;
/// Operand-extension word for [`OP_MATMUL`] (two per tile multiply).
const OP_MATMUL_OPS: u8 = 0x07;

fn buffer_code(kind: BufferKind) -> u8 {
    match kind {
        BufferKind::Activation => 0,
        BufferKind::Weight => 1,
        BufferKind::Instruction => 2,
        BufferKind::SimdRegisters => 3,
    }
}

fn buffer_from(code: u8) -> Option<BufferKind> {
    match code {
        0 => Some(BufferKind::Activation),
        1 => Some(BufferKind::Weight),
        2 => Some(BufferKind::Instruction),
        3 => Some(BufferKind::SimdRegisters),
        _ => None,
    }
}

fn simd_code(kind: SimdOpKind) -> u8 {
    match kind {
        SimdOpKind::Activation => 0,
        SimdOpKind::Elementwise => 1,
        SimdOpKind::BatchNorm => 2,
        SimdOpKind::Derivative => 3,
        SimdOpKind::Loss => 4,
        SimdOpKind::WeightUpdate => 5,
    }
}

fn simd_from(code: u8) -> Option<SimdOpKind> {
    match code {
        0 => Some(SimdOpKind::Activation),
        1 => Some(SimdOpKind::Elementwise),
        2 => Some(SimdOpKind::BatchNorm),
        3 => Some(SimdOpKind::Derivative),
        4 => Some(SimdOpKind::Loss),
        5 => Some(SimdOpKind::WeightUpdate),
        _ => None,
    }
}

fn put_u32(w: &mut [u8; INSTRUCTION_BYTES], offset: usize, value: u32) {
    w[offset..offset + 4].copy_from_slice(&value.to_le_bytes());
}

/// Appends the word(s) for one instruction to `out`.
pub fn encode_into(out: &mut Vec<u8>, instruction: &Instruction) {
    let mut w = [0u8; INSTRUCTION_BYTES];
    match *instruction {
        Instruction::MatMulTile { rows, k_span, out_span, mode, weights, input, output } => {
            w[0] = OP_MATMUL;
            w[1] = match mode {
                GemmMode::VectorMatrix => 0,
                GemmMode::WeightBroadcast => 1,
            };
            put_u32(&mut w, 2, rows as u32);
            put_u32(&mut w, 6, k_span as u32);
            put_u32(&mut w, 10, out_span as u32);
            out.extend_from_slice(&w);

            let mut b = [0u8; INSTRUCTION_BYTES];
            b[0] = OP_MATMUL_OPS;
            b[1] = 0;
            put_u32(&mut b, 2, weights.offset as u32);
            put_u32(&mut b, 6, weights.bytes as u32);
            put_u32(&mut b, 10, input.offset as u32);
            out.extend_from_slice(&b);

            let mut c = [0u8; INSTRUCTION_BYTES];
            c[0] = OP_MATMUL_OPS;
            c[1] = 1;
            put_u32(&mut c, 2, input.bytes as u32);
            put_u32(&mut c, 6, output.offset as u32);
            put_u32(&mut c, 10, output.bytes as u32);
            out.extend_from_slice(&c);
        }
        Instruction::Simd { kind, elems, region } => {
            w[0] = OP_SIMD;
            w[1] = simd_code(kind);
            put_u32(&mut w, 2, elems as u32);
            put_u32(&mut w, 6, region.offset as u32);
            put_u32(&mut w, 10, region.bytes as u32);
            out.extend_from_slice(&w);
        }
        Instruction::LoadDram { target, region } => {
            w[0] = OP_LOAD_DRAM;
            w[1] = buffer_code(target);
            put_u32(&mut w, 2, region.offset as u32);
            put_u32(&mut w, 6, region.bytes as u32);
            out.extend_from_slice(&w);
        }
        Instruction::StoreDram { source, region } => {
            w[0] = OP_STORE_DRAM;
            w[1] = buffer_code(source);
            put_u32(&mut w, 2, region.offset as u32);
            put_u32(&mut w, 6, region.bytes as u32);
            out.extend_from_slice(&w);
        }
        Instruction::HostIo { bytes } => {
            w[0] = OP_HOST_IO;
            w[2..10].copy_from_slice(&bytes.to_le_bytes());
            out.extend_from_slice(&w);
        }
        Instruction::Sync => {
            w[0] = OP_SYNC;
            out.extend_from_slice(&w);
        }
    }
}

/// Encodes a sequence of instructions into the installable byte stream.
pub fn encode(instructions: &[Instruction]) -> Vec<u8> {
    let words: usize = instructions.iter().map(Instruction::encoded_words).sum();
    let mut out = Vec::with_capacity(words * INSTRUCTION_BYTES);
    for i in instructions {
        encode_into(&mut out, i);
    }
    out
}

/// Decodes a byte stream back into instructions.
///
/// # Errors
///
/// Returns [`DecodeError`] for truncated input, unknown opcodes,
/// unknown modifiers, or detached/missing operand-extension words.
pub fn decode(bytes: &[u8]) -> Result<Vec<Instruction>, DecodeError> {
    let mut out = Vec::with_capacity(bytes.len() / INSTRUCTION_BYTES);
    decode_into(bytes, &mut out)?;
    Ok(out)
}

/// Decodes a byte stream, appending the instructions to `out`, so a
/// caller that decodes many streams can reuse one buffer. The words are
/// read in place.
///
/// # Errors
///
/// As [`decode`]; `out` then also holds the instructions decoded before
/// the malformed word.
pub fn decode_into(bytes: &[u8], out: &mut Vec<Instruction>) -> Result<(), DecodeError> {
    if !bytes.len().is_multiple_of(INSTRUCTION_BYTES) {
        return Err(DecodeError::TruncatedWord { remainder: bytes.len() % INSTRUCTION_BYTES });
    }
    let words = bytes.len() / INSTRUCTION_BYTES;
    let word = |index: usize| &bytes[index * INSTRUCTION_BYTES..(index + 1) * INSTRUCTION_BYTES];
    let u32_at = |w: &[u8], o: usize| u32::from_le_bytes(w[o..o + 4].try_into().expect("4 bytes"));
    let u64_at = |w: &[u8], o: usize| u64::from_le_bytes(w[o..o + 8].try_into().expect("8 bytes"));
    let mut index = 0;
    while index < words {
        let w = word(index);
        let opcode = w[0];
        let modifier = w[1];
        let instr = match opcode {
            OP_MATMUL => {
                let mode = match modifier {
                    0 => GemmMode::VectorMatrix,
                    1 => GemmMode::WeightBroadcast,
                    _ => return Err(DecodeError::UnknownModifier { opcode, modifier, index }),
                };
                if index + 2 >= words {
                    return Err(DecodeError::MissingOperandWord { index });
                }
                let (b, c) = (word(index + 1), word(index + 2));
                if b[0] != OP_MATMUL_OPS || b[1] != 0 || c[0] != OP_MATMUL_OPS || c[1] != 1 {
                    return Err(DecodeError::MissingOperandWord { index });
                }
                let instr = Instruction::MatMulTile {
                    rows: u32_at(w, 2) as usize,
                    k_span: u32_at(w, 6) as usize,
                    out_span: u32_at(w, 10) as usize,
                    mode,
                    weights: Region::new(u32_at(b, 2) as u64, u32_at(b, 6) as u64),
                    input: Region::new(u32_at(b, 10) as u64, u32_at(c, 2) as u64),
                    output: Region::new(u32_at(c, 6) as u64, u32_at(c, 10) as u64),
                };
                index += 2;
                instr
            }
            OP_MATMUL_OPS => return Err(DecodeError::StrayOperandWord { index }),
            OP_SIMD => Instruction::Simd {
                kind: simd_from(modifier)
                    .ok_or(DecodeError::UnknownModifier { opcode, modifier, index })?,
                elems: u32_at(w, 2) as usize,
                region: Region::new(u32_at(w, 6) as u64, u32_at(w, 10) as u64),
            },
            OP_LOAD_DRAM => Instruction::LoadDram {
                target: buffer_from(modifier)
                    .ok_or(DecodeError::UnknownModifier { opcode, modifier, index })?,
                region: Region::new(u32_at(w, 2) as u64, u32_at(w, 6) as u64),
            },
            OP_STORE_DRAM => Instruction::StoreDram {
                source: buffer_from(modifier)
                    .ok_or(DecodeError::UnknownModifier { opcode, modifier, index })?,
                region: Region::new(u32_at(w, 2) as u64, u32_at(w, 6) as u64),
            },
            OP_HOST_IO => Instruction::HostIo { bytes: u64_at(w, 2) },
            OP_SYNC => Instruction::Sync,
            _ => return Err(DecodeError::UnknownOpcode { opcode, index }),
        };
        out.push(instr);
        index += 1;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use equinox_arith::check;

    fn sample_instructions() -> Vec<Instruction> {
        vec![
            Instruction::MatMulTile {
                rows: 186,
                k_span: 558,
                out_span: 558,
                mode: GemmMode::VectorMatrix,
                weights: Region::new(0x10000, 558 * 558),
                input: Region::new(0, 186 * 558),
                output: Region::new(0x50000, 186 * 558),
            },
            Instruction::MatMulTile {
                rows: 12544,
                k_span: 147,
                out_span: 64,
                mode: GemmMode::WeightBroadcast,
                weights: Region::new(0, 147 * 64),
                input: Region::unaddressed(),
                output: Region::new(0x100, 12544 * 64),
            },
            Instruction::simd(SimdOpKind::Derivative, 1 << 20),
            Instruction::LoadDram { target: BufferKind::Weight, region: Region::new(0, 16 << 20) },
            Instruction::StoreDram {
                source: BufferKind::Activation,
                region: Region::new(1 << 20, 4096),
            },
            Instruction::HostIo { bytes: 128 },
            Instruction::Sync,
        ]
    }

    #[test]
    fn round_trip_sample() {
        let instrs = sample_instructions();
        let bytes = encode(&instrs);
        let words: usize = instrs.iter().map(Instruction::encoded_words).sum();
        assert_eq!(bytes.len(), words * INSTRUCTION_BYTES);
        assert_eq!(decode(&bytes).expect("valid stream"), instrs);
    }

    #[test]
    fn decode_into_appends_to_a_reused_buffer() {
        let instrs = sample_instructions();
        let bytes = encode(&instrs);
        let mut out = vec![Instruction::Sync];
        decode_into(&bytes, &mut out).expect("valid stream");
        assert_eq!(out[0], Instruction::Sync);
        assert_eq!(&out[1..], &instrs[..]);
        // On a malformed word, the instructions before it stay.
        let mut bad = encode(&instrs[..2]);
        bad.extend_from_slice(&[0xEE; INSTRUCTION_BYTES]);
        out.clear();
        let err = decode_into(&bad, &mut out).unwrap_err();
        assert_eq!(err, DecodeError::UnknownOpcode { opcode: 0xEE, index: 6 });
        assert_eq!(out, &instrs[..2]);
    }

    #[test]
    fn truncated_rejected() {
        let mut bytes = encode(&sample_instructions());
        bytes.pop();
        assert_eq!(
            decode(&bytes),
            Err(DecodeError::TruncatedWord { remainder: INSTRUCTION_BYTES - 1 })
        );
    }

    #[test]
    fn unknown_opcode_rejected() {
        let mut bytes = encode(&[Instruction::Sync]);
        bytes[0] = 0xFF;
        assert!(matches!(
            decode(&bytes),
            Err(DecodeError::UnknownOpcode { opcode: 0xFF, index: 0 })
        ));
    }

    #[test]
    fn unknown_modifier_rejected() {
        let mut bytes = encode(&[Instruction::simd(SimdOpKind::Loss, 4)]);
        bytes[1] = 0x77;
        let err = decode(&bytes).unwrap_err();
        assert!(matches!(err, DecodeError::UnknownModifier { modifier: 0x77, .. }));
        assert!(err.to_string().contains("modifier"));
    }

    #[test]
    fn matmul_missing_operand_words_rejected() {
        let full = encode(&[Instruction::matmul(4, 8, 16, GemmMode::VectorMatrix)]);
        // Drop the second extension word entirely.
        let truncated = &full[..2 * INSTRUCTION_BYTES];
        assert_eq!(decode(truncated), Err(DecodeError::MissingOperandWord { index: 0 }));
        // Replace the first extension word with a Sync.
        let mut swapped = full.clone();
        swapped[INSTRUCTION_BYTES..2 * INSTRUCTION_BYTES]
            .copy_from_slice(&encode(&[Instruction::Sync]));
        assert_eq!(decode(&swapped), Err(DecodeError::MissingOperandWord { index: 0 }));
    }

    #[test]
    fn stray_operand_word_rejected() {
        let full = encode(&[Instruction::matmul(4, 8, 16, GemmMode::VectorMatrix)]);
        // An extension word with no geometry word before it.
        let stray = &full[INSTRUCTION_BYTES..];
        assert_eq!(decode(stray), Err(DecodeError::StrayOperandWord { index: 0 }));
    }

    #[test]
    fn full_lstm_program_round_trips() {
        use crate::lower::compile_inference;
        use crate::models::ModelSpec;
        use crate::ArrayDims;
        let dims = ArrayDims { n: 16, w: 4, m: 8 };
        let p = compile_inference(&ModelSpec::lstm_2048_25(), &dims, 16);
        let bytes = encode(p.instructions());
        let decoded = decode(&bytes).expect("compiler output is encodable");
        assert_eq!(decoded, p.instructions());
        // The paper's 32 KB instruction buffer holds 2048 words; bigger
        // programs stream through it (sanity on sizes only).
        assert_eq!(bytes.len() / INSTRUCTION_BYTES, p.encoded_words());
    }

    fn arbitrary_region(g: &mut equinox_arith::SplitMix64) -> Region {
        Region::new(g.usize_in(0, u32::MAX as usize) as u64, g.usize_in(0, u32::MAX as usize) as u64)
    }

    #[test]
    fn round_trip_arbitrary_matmul() {
        check::check(0x656e01, |g| {
            let i = Instruction::MatMulTile {
                rows: g.usize_in(0, u32::MAX as usize),
                k_span: g.usize_in(0, u32::MAX as usize),
                out_span: g.usize_in(0, u32::MAX as usize),
                mode: if g.next_bool() {
                    GemmMode::WeightBroadcast
                } else {
                    GemmMode::VectorMatrix
                },
                weights: arbitrary_region(g),
                input: arbitrary_region(g),
                output: arbitrary_region(g),
            };
            assert_eq!(decode(&encode(&[i])).unwrap(), vec![i]);
        });
    }

    #[test]
    fn round_trip_arbitrary_dram() {
        check::check(0x656e02, |g| {
            let region = arbitrary_region(g);
            let i = if g.next_bool() {
                Instruction::LoadDram { target: BufferKind::Weight, region }
            } else {
                Instruction::StoreDram { source: BufferKind::Activation, region }
            };
            assert_eq!(decode(&encode(&[i])).unwrap(), vec![i]);
        });
    }

    #[test]
    fn round_trip_arbitrary_simd() {
        check::check(0x656e03, |g| {
            let kinds = [
                SimdOpKind::Activation,
                SimdOpKind::Elementwise,
                SimdOpKind::BatchNorm,
                SimdOpKind::Derivative,
                SimdOpKind::Loss,
                SimdOpKind::WeightUpdate,
            ];
            let i = Instruction::Simd {
                kind: kinds[g.usize_in(0, kinds.len() - 1)],
                elems: g.usize_in(0, u32::MAX as usize),
                region: arbitrary_region(g),
            };
            assert_eq!(decode(&encode(&[i])).unwrap(), vec![i]);
        });
    }
}
