//! Equivalence properties: the dataflow, numerics and encoding passes
//! against their reference implementations (each pass's `reference`
//! module), which are the specification of every diagnostic those
//! passes emit and of the numerics summary.
//!
//! The passes trade the references' simple data structures for faster
//! ones — a [`RegionMap`](crate::intervals::RegionMap) with
//! single-lookup fast paths, a race scan over DMA-side pairs only, and
//! reused encode/decode buffers — and must stay equal to them
//! byte for byte: the same rendered reports, in the same order, and the
//! same `NumericsSummary` bit for bit.

use crate::diag::{Code, Report};
use crate::numerics::{NumericsOptions, NumericsSummary};
use crate::{analyze_program, dataflow, encoding, numerics, resources, BufferBudget};
use equinox_arith::check::for_each_case;
use equinox_arith::{Encoding, SplitMix64};
use equinox_isa::instruction::{BufferKind, Region, SimdOpKind};
use equinox_isa::layers::GemmMode;
use equinox_isa::{ArrayDims, Instruction, Program};
use std::collections::BTreeMap;

fn dims() -> ArrayDims {
    ArrayDims { n: 186, w: 3, m: 3 }
}

/// A region of one program's pool. Half the draws reuse a region the
/// program already named, so exact overwrites, re-reads and equal
/// offsets at different pcs are common.
fn region(g: &mut SplitMix64, pool: &mut Vec<Region>, capacity: u64) -> Region {
    if !pool.is_empty() && g.next_bool() {
        return pool[g.usize_in(0, pool.len())];
    }
    let r = match g.usize_in(0, 100) {
        // Unaddressed operands are skipped by both passes.
        0..=5 => Region::unaddressed(),
        // Straddling or past the buffer's end.
        6..=8 => Region::new(capacity - 16 * g.usize_in(0, 4) as u64, 16 * g.usize_in(1, 9) as u64),
        // Past the 32-bit wire fields.
        9 if g.usize_in(0, 8) == 0 => Region::new(1 << 33, 64),
        _ => {
            // A 16-byte grid over 1 KiB, sometimes off the grid.
            let mut offset = 16 * g.usize_in(0, 64) as u64;
            let mut bytes = 16 * g.usize_in(1, 12) as u64;
            if g.usize_in(0, 5) == 0 {
                offset += g.usize_in(1, 16) as u64;
            }
            if g.usize_in(0, 5) == 0 {
                bytes += g.usize_in(1, 16) as u64;
            }
            Region::new(offset, bytes)
        }
    };
    pool.push(r);
    r
}

const SIMD_KINDS: [SimdOpKind; 6] = [
    SimdOpKind::Activation,
    SimdOpKind::Elementwise,
    SimdOpKind::BatchNorm,
    SimdOpKind::Derivative,
    SimdOpKind::Loss,
    SimdOpKind::WeightUpdate,
];

/// A DMA transfer's buffer and its capacity.
fn buffer(g: &mut SplitMix64, budget: &BufferBudget) -> (BufferKind, u64) {
    match g.usize_in(0, 40) {
        0 => (BufferKind::Instruction, budget.instruction_bytes),
        1 => (BufferKind::SimdRegisters, dataflow::SIMD_REGISTER_BYTES),
        2..=13 => (BufferKind::Weight, budget.weight_bytes),
        _ => (BufferKind::Activation, budget.activation_bytes),
    }
}

fn random_program(g: &mut SplitMix64, name: String) -> Program {
    let budget = BufferBudget::paper_default();
    let act = budget.activation_bytes;
    let mut pool = Vec::new();
    let mut p = Program::new(name);
    for _ in 0..g.usize_in(1, 100) {
        let instr = match g.usize_in(0, 100) {
            0..=22 => {
                let (target, cap) = buffer(g, &budget);
                Instruction::LoadDram { target, region: region(g, &mut pool, cap) }
            }
            23..=37 => {
                let (source, cap) = buffer(g, &budget);
                Instruction::StoreDram { source, region: region(g, &mut pool, cap) }
            }
            38..=64 => Instruction::MatMulTile {
                // Rarely a row count the 32-bit wire field truncates.
                rows: if g.usize_in(0, 400) == 0 {
                    u32::MAX as usize + 2
                } else {
                    g.usize_in(1, 17)
                },
                k_span: if g.usize_in(0, 10) == 0 {
                    g.usize_in(600, 1500)
                } else {
                    g.usize_in(1, 41)
                },
                out_span: g.usize_in(1, 17),
                mode: if g.next_bool() {
                    GemmMode::VectorMatrix
                } else {
                    GemmMode::WeightBroadcast
                },
                weights: region(g, &mut pool, budget.weight_bytes),
                input: region(g, &mut pool, act),
                output: region(g, &mut pool, act),
            },
            65..=88 => Instruction::Simd {
                kind: SIMD_KINDS[g.usize_in(0, SIMD_KINDS.len())],
                elems: g.usize_in(1, 513),
                region: region(g, &mut pool, act),
            },
            89..=97 => Instruction::Sync,
            _ => Instruction::HostIo { bytes: g.usize_in(0, 4097) as u64 },
        };
        p.push(instr);
    }
    p
}

/// The numerics summary with `min_headroom` as bits, so that equality
/// is bit for bit.
fn summary_bits(s: &NumericsSummary) -> (String, u64) {
    (format!("{:?} {}", s.chains, s.matmul_count), s.min_headroom.to_bits())
}

/// Analyzes `program` with the passes and with their references, asserts
/// that both agree, and returns the report.
fn assert_equivalent(program: &Program, encoding: Encoding) -> Report {
    let budget = BufferBudget::paper_default();
    let options = NumericsOptions::default();
    let report = analyze_program(program, &dims(), &budget, encoding);

    // The same passes, in the same order, over the references.
    let mut expected = Report::new(program.name().to_string());
    expected.extend(dataflow::reference::analyze_with_stats(program, &budget, encoding).0);
    expected.extend(resources::analyze_program(program, &dims(), &budget));
    expected.extend(encoding::reference::analyze(program));
    if encoding == Encoding::Hbfp8 {
        let summary = numerics::reference::analyze(&mut expected, program, encoding, &options);
        let mut scratch = Report::new(program.name().to_string());
        let actual = numerics::analyze(&mut scratch, program, encoding, &options);
        assert_eq!(summary_bits(&actual), summary_bits(&summary), "{}", program.name());
    }
    assert_eq!(report.render_human(), expected.render_human());
    assert_eq!(report, expected);
    report
}

#[test]
fn passes_match_their_references_on_random_programs() {
    let mut counts: BTreeMap<Code, usize> = BTreeMap::new();
    let mut case = 0;
    for_each_case(3000, 0xe9_0503, |g| {
        case += 1;
        let program = random_program(g, format!("random-{case}"));
        let encoding = if g.usize_in(0, 4) == 0 { Encoding::Bfloat16 } else { Encoding::Hbfp8 };
        for d in assert_equivalent(&program, encoding).diagnostics() {
            *counts.entry(d.code).or_default() += 1;
        }
    });
    for code in [
        Code::USE_BEFORE_DEFINE,
        Code::PARTIAL_CLOBBER,
        Code::DMA_RACE,
        Code::REGION_OUT_OF_BOUNDS,
        Code::DEAD_STORE,
        Code::UNDERSIZED_OPERAND,
        Code::ROUND_TRIP_MISMATCH,
        Code::REQUANTIZATION_FLUSH,
        Code::UPDATE_BELOW_LSB,
    ] {
        let n = counts.get(&code).copied().unwrap_or(0);
        assert!(n >= 100, "{code} fired {n} times: {counts:?}");
    }
}

fn act_load(offset: u64, bytes: u64) -> Instruction {
    Instruction::LoadDram { target: BufferKind::Activation, region: Region::new(offset, bytes) }
}

fn act_store(offset: u64, bytes: u64) -> Instruction {
    Instruction::StoreDram { source: BufferKind::Activation, region: Region::new(offset, bytes) }
}

fn simd(kind: SimdOpKind, offset: u64, bytes: u64) -> Instruction {
    Instruction::Simd { kind, elems: bytes as usize, region: Region::new(offset, bytes) }
}

/// The codes of `report`'s diagnostics, in order.
fn codes(report: &Report) -> Vec<Code> {
    report.diagnostics().iter().map(|d| d.code).collect()
}

fn program(name: &str, instructions: impl IntoIterator<Item = Instruction>) -> Program {
    let mut p = Program::new(name);
    p.extend(instructions);
    p
}

#[test]
fn exact_overwrite_of_an_unread_load_is_a_dead_store() {
    let p = program(
        "reload",
        [
            act_load(0, 128),
            Instruction::Sync,
            act_load(0, 128),
            Instruction::Sync,
            act_store(0, 128),
        ],
    );
    let r = assert_equivalent(&p, Encoding::Hbfp8);
    assert_eq!(codes(&r), [Code::DEAD_STORE]);
    assert!(r.diagnostics()[0].message.contains("overwritten at instr 2"), "{}", r.render_human());
}

#[test]
fn a_read_straddling_two_spans_joins_and_consumes_both() {
    // Two loads, one raised by an activation; a store and a SIMD op
    // straddle the pair. No dead store, and the weight update reads the
    // join of a capped and a fresh exponent.
    let p = program(
        "straddle",
        [
            act_load(0, 64),
            act_load(64, 64),
            Instruction::Sync,
            simd(SimdOpKind::Activation, 0, 64),
            Instruction::Sync,
            act_store(32, 64),
            Instruction::Sync,
            simd(SimdOpKind::WeightUpdate, 32, 64),
        ],
    );
    let r = assert_equivalent(&p, Encoding::Hbfp8);
    assert!(r.is_clean(), "{}", r.render_human());
}

#[test]
fn a_write_inside_one_span_leaves_two_remainders() {
    // The second load cuts the unread first one in three: a partial
    // clobber, then both remainders stay pending and are never read.
    let p = program("split", [act_load(0, 256), Instruction::Sync, act_load(64, 64)]);
    let r = assert_equivalent(&p, Encoding::Hbfp8);
    assert_eq!(
        codes(&r),
        [Code::PARTIAL_CLOBBER, Code::DEAD_STORE, Code::DEAD_STORE, Code::DEAD_STORE]
    );
    let dead: Vec<&str> = r.diagnostics()[1..].iter().map(|d| d.message.as_str()).collect();
    assert!(dead[0].contains("[0x0..0x40)"), "{dead:?}");
    assert!(dead[1].contains("[0x40..0x80)"), "{dead:?}");
    assert!(dead[2].contains("[0x80..0x100)"), "{dead:?}");
}

#[test]
fn races_are_found_whichever_side_sorts_first() {
    // The load sorts before the SIMD op (equal offset, earlier pc),
    // after it (larger offset), and before it by offset though issued
    // later.
    for (name, instructions) in [
        ("dma-first", vec![act_load(0, 64), simd(SimdOpKind::Activation, 0, 64)]),
        (
            "dma-after",
            vec![
                act_load(0, 128),
                Instruction::Sync,
                simd(SimdOpKind::Loss, 0, 64),
                act_load(32, 64),
            ],
        ),
        (
            "dma-first-by-offset",
            vec![
                act_load(64, 64),
                Instruction::Sync,
                simd(SimdOpKind::Loss, 64, 64),
                act_load(0, 96),
            ],
        ),
    ] {
        let r = assert_equivalent(&program(name, instructions), Encoding::Hbfp8);
        assert!(r.has_code(Code::DMA_RACE), "{name}: {}", r.render_human());
    }
}

#[test]
fn equal_offsets_at_different_pcs_keep_pc_order() {
    // Every access starts at offset 0, so the scan order is by pc. Each
    // of the 13 pairs with a DMA side and a write races, compute
    // accesses between two DMA ones included.
    let p = program(
        "same-offset",
        [
            act_load(0, 64),
            simd(SimdOpKind::Elementwise, 0, 64),
            act_store(0, 32),
            simd(SimdOpKind::BatchNorm, 0, 128),
            act_load(0, 16),
            Instruction::Sync,
            act_store(0, 64),
        ],
    );
    let r = assert_equivalent(&p, Encoding::Hbfp8);
    let races = r.diagnostics().iter().filter(|d| d.code == Code::DMA_RACE).count();
    assert_eq!(races, 13, "{}", r.render_human());
}
