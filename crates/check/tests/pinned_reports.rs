//! Pins the analyzer's program passes across versions: a seeded corpus
//! of random programs, plus the LSTM and GRU inference lowerings at one
//! small geometry.
//!
//! The dataflow, numerics and encoding passes are rewritten for speed
//! from time to time, and every analyzer artifact is downstream of
//! their exact output. The unit tests compare each pass with a
//! reference implementation inside one version; these pins are the only
//! check that the rendered reports and the numerics chains stay the
//! same from one version to the next. A deliberate change of a message
//! or of a verdict re-records the strings and says why.

use equinox_arith::{Encoding, SplitMix64};
use equinox_check::numerics::compute_numerics;
use equinox_check::{analyze_program, BufferBudget, NumericsOptions, NumericsSummary, Report};
use equinox_isa::instruction::{BufferKind, Region, SimdOpKind};
use equinox_isa::layers::GemmMode;
use equinox_isa::lower::compile_inference;
use equinox_isa::models::ModelSpec;
use equinox_isa::{ArrayDims, Instruction, Program};
use std::collections::BTreeMap;

/// FNV-1a over a byte stream, continued from `digest`.
fn fnv1a(digest: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(digest, |d, &b| (d ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn dims() -> ArrayDims {
    ArrayDims { n: 186, w: 3, m: 3 }
}

/// Half the time a region the program already named, so that exact
/// overwrites and re-reads are common; otherwise a fresh one.
fn region(g: &mut SplitMix64, pool: &mut Vec<Region>, capacity: u64) -> Region {
    if !pool.is_empty() && g.next_bool() {
        return pool[g.usize_in(0, pool.len())];
    }
    let r = fresh_region(g, capacity);
    pool.push(r);
    r
}

/// A region on a 16-byte grid near the start of a buffer, sometimes at
/// an odd offset or size, sometimes unaddressed, rarely straddling the
/// buffer's end and very rarely past the 32-bit wire fields.
fn fresh_region(g: &mut SplitMix64, capacity: u64) -> Region {
    match g.usize_in(0, 100) {
        0..=7 => Region::unaddressed(),
        8 => Region::new(capacity - 16 * g.usize_in(0, 4) as u64, 16 * g.usize_in(1, 9) as u64),
        9 if g.usize_in(0, 10) == 0 => Region::new(1 << 33, 64),
        _ => {
            let mut offset = 16 * g.usize_in(0, 49) as u64;
            let mut bytes = 16 * g.usize_in(1, 13) as u64;
            if g.usize_in(0, 6) == 0 {
                offset += g.usize_in(1, 16) as u64;
            }
            if g.usize_in(0, 6) == 0 {
                bytes += g.usize_in(1, 16) as u64;
            }
            Region::new(offset, bytes)
        }
    }
}

const SIMD_KINDS: [SimdOpKind; 6] = [
    SimdOpKind::Activation,
    SimdOpKind::Elementwise,
    SimdOpKind::BatchNorm,
    SimdOpKind::Derivative,
    SimdOpKind::Loss,
    SimdOpKind::WeightUpdate,
];

/// A buffer for a DMA transfer and its capacity: mostly activations,
/// often weights, rarely the two buffers only the dataflow pass tracks.
fn buffer(g: &mut SplitMix64, budget: &BufferBudget) -> (BufferKind, u64) {
    match g.usize_in(0, 40) {
        0 => (BufferKind::Instruction, budget.instruction_bytes),
        1 => (BufferKind::SimdRegisters, 5 << 20),
        2..=13 => (BufferKind::Weight, budget.weight_bytes),
        _ => (BufferKind::Activation, budget.activation_bytes),
    }
}

fn random_program(g: &mut SplitMix64, name: String) -> Program {
    let budget = BufferBudget::paper_default();
    let act = budget.activation_bytes;
    let mut p = Program::new(name);
    let mut pool = Vec::new();
    for _ in 0..g.usize_in(1, 61) {
        let instr = match g.usize_in(0, 100) {
            0..=24 => {
                let (target, cap) = buffer(g, &budget);
                Instruction::LoadDram { target, region: region(g, &mut pool, cap) }
            }
            25..=39 => {
                let (source, cap) = buffer(g, &budget);
                Instruction::StoreDram { source, region: region(g, &mut pool, cap) }
            }
            40..=64 => Instruction::MatMulTile {
                rows: if g.usize_in(0, 300) == 0 {
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
            65..=86 => Instruction::Simd {
                kind: SIMD_KINDS[g.usize_in(0, SIMD_KINDS.len())],
                elems: g.usize_in(1, 513),
                region: region(g, &mut pool, act),
            },
            87..=96 => Instruction::Sync,
            _ => Instruction::HostIo { bytes: g.usize_in(0, 4097) as u64 },
        };
        p.push(instr);
    }
    p
}

/// Every rendered report line and every numerics chain, folded into one
/// digest; per-code counts alongside.
#[derive(Default)]
struct Pin {
    digest: u64,
    counts: BTreeMap<String, usize>,
    reports: usize,
}

impl Pin {
    fn new() -> Self {
        Pin { digest: FNV_OFFSET, ..Default::default() }
    }

    fn add(&mut self, report: &Report, summary: Option<&NumericsSummary>) {
        self.reports += 1;
        self.digest = fnv1a(self.digest, report.render_human().as_bytes());
        for d in report.diagnostics() {
            *self.counts.entry(d.code.to_string()).or_default() += 1;
        }
        if let Some(s) = summary {
            let mut line = format!("{} {:016x}", s.matmul_count, s.min_headroom.to_bits());
            for c in &s.chains {
                line.push_str(&format!(" {}/{}/{}/{}", c.k_span, c.max_a, c.max_b, c.safe_depth));
            }
            self.digest = fnv1a(self.digest, line.as_bytes());
        }
    }

    fn fingerprint(&self) -> String {
        let mut parts = vec![format!("reports={}", self.reports)];
        parts.extend(self.counts.iter().map(|(code, n)| format!("{code}={n}")));
        parts.push(format!("digest={:016x}", self.digest));
        parts.join(" ")
    }
}

fn analyze_into(pin: &mut Pin, program: &Program, encoding: Encoding) {
    let budget = BufferBudget::paper_default();
    let report = analyze_program(program, &dims(), &budget, encoding);
    let summary = (encoding == Encoding::Hbfp8)
        .then(|| compute_numerics(program, encoding, &NumericsOptions::default()));
    pin.add(&report, summary.as_ref());
}

#[test]
fn random_program_corpus() {
    let mut pin = Pin::new();
    let mut g = SplitMix64::seed_from_u64(0x5eed_0503);
    for i in 0..2000 {
        let program = random_program(&mut g, format!("random-{i}"));
        let encoding = if i % 4 == 3 { Encoding::Bfloat16 } else { Encoding::Hbfp8 };
        analyze_into(&mut pin, &program, encoding);
    }
    assert_eq!(
        pin.fingerprint(),
        "reports=2000 EQX0202=1477 EQX0301=119 EQX0501=29484 EQX0502=8131 EQX0503=49082 \
         EQX0504=220 EQX0505=6102 EQX0506=14402 EQX0801=442 EQX0803=1093 EQX0804=119 \
         EQX0805=360 digest=54a21c130320236b"
    );
}

#[test]
fn lstm_and_gru_inference_lowerings() {
    let mut pin = Pin::new();
    let d = dims();
    for model in [ModelSpec::lstm_2048_25(), ModelSpec::gru_2816_1500()] {
        let program = compile_inference(&model, &d, d.n);
        analyze_into(&mut pin, &program, Encoding::Hbfp8);
    }
    // Both lowerings are clean; the digest holds their numerics chains.
    assert_eq!(pin.fingerprint(), "reports=2 digest=a8f2b88b3773f75a");
}
