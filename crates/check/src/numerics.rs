//! Numerical-safety pass: abstract interpretation over lowered ISA
//! programs with an HBFP-aware magnitude domain (`EQX08xx`).
//!
//! The paper's §3.2 hardware contract makes *software* responsible for
//! keeping hbfp8 accumulation chains inside the 25-bit saturating
//! accumulator: products of 8-bit mantissas are at most 2^14, so a
//! chain deeper than `floor((2^24 - 1) / (max_a · max_b))` products
//! **will** clamp on adversarial data — silently, because saturation is
//! not an exception. This pass walks a lowered program once (programs
//! are straight-line; recurrences arrive unrolled) propagating an
//! [`AbstractTensor`] per written buffer region and flags:
//!
//! * **EQX0801** (error) — a tile multiply's in-accumulator reduction
//!   chain (`k_span`; see `Instruction::reduction_depth`) exceeds the
//!   saturation-safe depth [`Accumulator25::safe_chain_depth`] at the
//!   operands' worst-case mantissa magnitudes. The bound is the *same
//!   function* the executed-arithmetic calibration gate drives, so the
//!   static verdict cannot drift from the arithmetic it speaks for.
//! * **EQX0802** (warning) — a propagated value-magnitude interval
//!   needs a block exponent above the top of the 12-bit field.
//! * **EQX0803** (warning) — a bf16→hbfp8 requantization can flush a
//!   block's smaller mantissas to zero (within-block magnitude spread
//!   exceeds the 7 mantissa magnitude bits).
//! * **EQX0804** (warning) — a weight-update increment can fall below
//!   the weight blocks' representable LSB (stalled training).
//! * **EQX0805** (warning) — a chain is safe but its headroom
//!   (safe depth / actual depth) is under the configured floor.
//!
//! ## The abstract domain
//!
//! [`AbstractTensor`] tracks, for every byte region of the activation
//! and weight buffers: the worst-case mantissa magnitude (always 127
//! for data that passed through hbfp8 quantization — the quantizer
//! scales the block so `|mantissa| ≤ 127`), a value-magnitude exponent
//! interval `[exp_lo, exp_hi]` (`|v| ≤ 2^exp_hi`), and the worst-case
//! within-block magnitude spread in bits. Transfer functions:
//!
//! * `LoadDram` installs the fresh-from-DRAM abstraction from
//!   [`NumericsOptions`] (tensors quantized host-side).
//! * `MatMulTile` reads both operands, checks the chain depth, and
//!   writes `exp_hi' = exp_hi_a + exp_hi_w + ⌈log2 k_span⌉`,
//!   `spread' = spread_a + spread_w` (products multiply magnitudes;
//!   spreads add in bits).
//! * `Simd` `Elementwise` (the compiler's cross-k-chunk fold, see
//!   `Tile::fold_count`) grows `exp_hi` by `⌈log2(folds + 1)⌉` where
//!   the fold multiplicity is recovered from `elems / region-elems`.
//! * `Simd` `Activation` / `BatchNorm` / `Derivative` / `Loss` are
//!   **range-bounding operators**: saturating nonlinearities,
//!   normalized statistics, and `σ′ ≤ 1` damping bound their outputs, so
//!   the domain caps `exp_hi` at [`NumericsOptions::activation_exp_hi`]
//!   and resets the spread. This is a modeling assumption (documented
//!   in DESIGN.md), not a soundness claim — without it every unrolled
//!   recurrence would flag EQX0802 vacuously. The saturation verdict
//!   (EQX0801/0805) does **not** depend on it: mantissa magnitudes are
//!   pinned at the quantizer's hard 127 bound, which is exact.
//!
//! Each buffer's values sit on the disjoint spans of a
//! [`RegionMap`]: a write trims whatever it overlaps, and a read joins
//! every value it overlaps, plus the fresh default when some of its
//! bytes hold none. An exact overwrite and a read inside one span —
//! nearly every access of a lowered program — cost one lookup each.
//!
//! The pass is meaningful only for [`Encoding::Hbfp8`]: bf16 designs
//! accumulate in fp32 and have no shared-exponent blocks, so the
//! library entry points skip it for other encodings.

use crate::diag::{Code, Diagnostic, Report, Span};
use crate::intervals::RegionMap;
use equinox_arith::{Accumulator25, Encoding, HbfpSpec};
use equinox_isa::instruction::{BufferKind, Region, SimdOpKind};
use equinox_isa::{Instruction, Program};
use std::collections::BTreeMap;

/// Tunable modeling assumptions of the numerics pass. The defaults
/// describe tensors produced by a sane host-side quantizer (unit-scale
/// data) and the paper's training setup; golden tests override
/// individual fields to seed each diagnostic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NumericsOptions {
    /// Smallest value-magnitude exponent of fresh-from-DRAM tensors.
    pub input_exp_lo: i32,
    /// Largest value-magnitude exponent of fresh-from-DRAM tensors.
    pub input_exp_hi: i32,
    /// Worst-case within-block magnitude spread (bits) of fresh tensors.
    pub input_spread_bits: u32,
    /// Exponent ceiling after a range-bounding SIMD op (activation,
    /// batch norm, derivative, loss).
    pub activation_exp_hi: i32,
    /// Exponent of the learning rate the weight-update SIMD overload
    /// applies (paper-scale training: 2^-8 ≈ 4e-3).
    pub learning_rate_exp: i32,
    /// Minimum tolerated `safe_depth / k_span` ratio before EQX0805.
    pub headroom_floor: f64,
}

impl Default for NumericsOptions {
    fn default() -> Self {
        NumericsOptions {
            input_exp_lo: -32,
            input_exp_hi: 16,
            input_spread_bits: 3,
            activation_exp_hi: 4,
            learning_rate_exp: -8,
            headroom_floor: 1.5,
        }
    }
}

/// Abstract value for one buffer region: worst-case mantissa magnitude,
/// value-magnitude exponent interval, and within-block spread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AbstractTensor {
    /// Worst-case `|mantissa|` after hbfp8 quantization (≤ 127; the
    /// quantizer scales each block so mantissas fit the magnitude bits).
    pub max_mantissa: u32,
    /// Lower bound of the value-magnitude exponent (`|v| ≥ 2^exp_lo`
    /// for the smallest nonzero values the region may hold).
    pub exp_lo: i32,
    /// Upper bound of the value-magnitude exponent (`|v| ≤ 2^exp_hi`).
    pub exp_hi: i32,
    /// Worst-case within-block magnitude spread, bits.
    pub spread_bits: u32,
}

impl AbstractTensor {
    /// Least upper bound of two abstract values (regions merged or
    /// partially covered reads).
    pub fn join(self, other: AbstractTensor) -> AbstractTensor {
        AbstractTensor {
            max_mantissa: self.max_mantissa.max(other.max_mantissa),
            exp_lo: self.exp_lo.min(other.exp_lo),
            exp_hi: self.exp_hi.max(other.exp_hi),
            spread_bits: self.spread_bits.max(other.spread_bits),
        }
    }
}

/// The static verdict for one distinct reduction-chain shape: depth and
/// operand magnitudes, with the shared saturation-safe bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainVerdict {
    /// In-accumulator reduction depth (the tile's `k_span`).
    pub k_span: usize,
    /// Worst-case activation mantissa magnitude.
    pub max_a: u32,
    /// Worst-case weight mantissa magnitude.
    pub max_b: u32,
    /// [`Accumulator25::safe_chain_depth`] at those magnitudes.
    pub safe_depth: u64,
}

impl ChainVerdict {
    /// True when the static pass declared this chain saturation-safe.
    pub fn safe(&self) -> bool {
        self.k_span as u64 <= self.safe_depth
    }

    /// `safe_depth / k_span` (infinite for zero-depth chains).
    pub fn headroom(&self) -> f64 {
        if self.k_span == 0 {
            f64::INFINITY
        } else {
            self.safe_depth as f64 / self.k_span as f64
        }
    }
}

/// Aggregates the pass computes alongside its diagnostics — the
/// executed-arithmetic calibration gate replays [`Self::chains`]
/// through the real fixed-point kernels.
#[derive(Debug, Clone, PartialEq)]
pub struct NumericsSummary {
    /// Every distinct `(k_span, max_a, max_b)` chain shape the program
    /// executes, in canonical order, with its static verdict.
    pub chains: Vec<ChainVerdict>,
    /// Smallest observed `safe_depth / k_span` over all safe tile
    /// multiplies (infinite when the program has none).
    pub min_headroom: f64,
    /// Number of tile multiplies analyzed.
    pub matmul_count: usize,
}

/// What the pass needs of one buffer's abstract state. The tests also
/// run the pass over a reference implementation of it.
trait AbstractBuffer: Default {
    /// Installs `v` on `r`, trimming whatever it overlaps.
    fn write(&mut self, r: Region, v: AbstractTensor);

    /// The join of every value overlapping `r`, and of `default` when
    /// some byte of `r` holds none.
    fn read(&self, r: Region, default: AbstractTensor) -> AbstractTensor;
}

/// One [`BufferKind`]'s abstract values (see the module docs).
#[derive(Debug, Default)]
struct BufferState {
    spans: RegionMap<AbstractTensor>,
}

impl AbstractBuffer for BufferState {
    fn write(&mut self, r: Region, v: AbstractTensor) {
        if !r.is_empty() {
            self.spans.overwrite(r.offset, r.end(), v, |_, _, _| {});
        }
    }

    fn read(&self, r: Region, default: AbstractTensor) -> AbstractTensor {
        if r.is_empty() {
            return default;
        }
        let mut acc: Option<AbstractTensor> = None;
        let mut covered = 0u64;
        self.spans.for_each_overlap(r.offset, r.end(), |start, end, &v| {
            acc = Some(acc.map_or(v, |a| a.join(v)));
            covered += end.min(r.end()) - start.max(r.offset);
        });
        match acc {
            Some(a) if covered >= r.bytes => a,
            Some(a) => a.join(default),
            None => default,
        }
    }
}

/// Ceiling of log2 for positive `x` (0 for `x ≤ 1`).
fn ceil_log2(x: u64) -> i32 {
    if x <= 1 {
        0
    } else {
        (64 - (x - 1).leading_zeros()) as i32
    }
}

/// One aggregated finding class: diagnostics are deduplicated to the
/// first offending instruction plus a total count, so a 1.9M-instruction
/// training lowering reports each code once instead of per tile.
struct Finding {
    first_span: Span,
    detail: String,
    count: usize,
}

struct Analysis {
    /// Mantissa magnitude bits (7 for hbfp8) and exponent-field top
    /// (2047), taken from the arith crate's spec so the pass and the
    /// arithmetic agree by construction.
    magnitude_bits: u32,
    exp_field_max: i32,
    findings: BTreeMap<Code, Finding>,
    chains: BTreeMap<(usize, u32, u32), u64>,
    min_headroom: f64,
    matmul_count: usize,
}

impl Analysis {
    fn record(&mut self, code: Code, index: usize, detail: impl FnOnce() -> String) {
        self.findings
            .entry(code)
            .and_modify(|f| f.count += 1)
            .or_insert_with(|| Finding { first_span: Span::at(index), detail: detail(), count: 1 });
    }

    /// Checks an abstract value about to be written back (where the
    /// bf16→hbfp8 requantization happens): EQX0802 and EQX0803.
    fn check_writeback(&mut self, v: AbstractTensor, index: usize) {
        let magnitude_bits = self.magnitude_bits;
        let exp_field_max = self.exp_field_max;
        let needed_exp = v.exp_hi - magnitude_bits as i32;
        if needed_exp > exp_field_max {
            self.record(Code::EXPONENT_FIELD_OVERFLOW, index, || {
                format!(
                    "value magnitudes up to 2^{} need a block exponent of {needed_exp}, past \
                     the 12-bit field's maximum {exp_field_max} — the exponent clamps and \
                     every mantissa in the block saturates",
                    v.exp_hi
                )
            });
        }
        if v.spread_bits > magnitude_bits {
            self.record(Code::REQUANTIZATION_FLUSH, index, || {
                format!(
                    "within-block magnitude spread of {} bits exceeds the {magnitude_bits} \
                     mantissa magnitude bits — requantization can flush a block's smaller \
                     values to zero",
                    v.spread_bits
                )
            });
        }
    }
}

/// Runs the pass, appending deduplicated `EQX08xx` diagnostics to
/// `report` and returning the summary the calibration gate replays.
///
/// `encoding` supplies the bytes-per-value used to recover fold
/// multiplicities from SIMD element counts; callers gate the pass to
/// [`Encoding::Hbfp8`] (see the module docs).
pub fn analyze(
    report: &mut Report,
    program: &Program,
    encoding: Encoding,
    options: &NumericsOptions,
) -> NumericsSummary {
    analyze_over::<BufferState>(report, program, encoding, options)
}

/// [`analyze`] over the buffer state `B`.
fn analyze_over<B: AbstractBuffer>(
    report: &mut Report,
    program: &Program,
    encoding: Encoding,
    options: &NumericsOptions,
) -> NumericsSummary {
    let spec = HbfpSpec::hbfp8();
    let mut analysis = Analysis {
        magnitude_bits: spec.mantissa_bits - 1,
        exp_field_max: spec.exponent_range().1,
        findings: BTreeMap::new(),
        chains: BTreeMap::new(),
        min_headroom: f64::INFINITY,
        matmul_count: 0,
    };
    let fresh = AbstractTensor {
        max_mantissa: spec.mantissa_max() as u32,
        exp_lo: options.input_exp_lo,
        exp_hi: options.input_exp_hi,
        spread_bits: options.input_spread_bits,
    };
    let bpv = (encoding.bytes_per_value() as u64).max(1);
    let mut activations = B::default();
    let mut weights = B::default();

    for (index, instr) in program.instructions().iter().enumerate() {
        match *instr {
            Instruction::LoadDram { target, region } => {
                let state = match target {
                    BufferKind::Activation => &mut activations,
                    BufferKind::Weight => &mut weights,
                    _ => continue,
                };
                state.write(region, fresh);
            }
            Instruction::MatMulTile { k_span, weights: w_region, input, output, .. } => {
                analysis.matmul_count += 1;
                let a = activations.read(input, fresh);
                let w = weights.read(w_region, fresh);
                if k_span > 0 {
                    let safe_depth =
                        Accumulator25::safe_chain_depth(a.max_mantissa, w.max_mantissa);
                    analysis
                        .chains
                        .entry((k_span, a.max_mantissa, w.max_mantissa))
                        .or_insert(safe_depth);
                    if k_span as u64 > safe_depth {
                        analysis.record(Code::REDUCTION_CHAIN_OVERFLOW, index, || {
                            format!(
                                "in-accumulator reduction chain of {k_span} products exceeds \
                                 the saturation-safe depth {safe_depth} of the 25-bit \
                                 accumulator at worst-case mantissa magnitudes {}x{}, with no \
                                 intervening drain — adversarial data will clamp silently",
                                a.max_mantissa, w.max_mantissa
                            )
                        });
                    } else {
                        let headroom = safe_depth as f64 / k_span as f64;
                        analysis.min_headroom = analysis.min_headroom.min(headroom);
                        if headroom < options.headroom_floor {
                            analysis.record(Code::SATURATION_HEADROOM_LOW, index, || {
                                format!(
                                    "reduction chain of {k_span} products leaves only \
                                     {headroom:.2}x headroom under the saturation-safe depth \
                                     {safe_depth} (floor {:.2}x) — safe, but fragile under \
                                     deeper tiling",
                                    options.headroom_floor
                                )
                            });
                        }
                    }
                }
                let out = AbstractTensor {
                    max_mantissa: spec.mantissa_max() as u32,
                    exp_lo: a.exp_lo + w.exp_lo,
                    exp_hi: a.exp_hi + w.exp_hi + ceil_log2(k_span.max(1) as u64),
                    spread_bits: a.spread_bits + w.spread_bits,
                };
                analysis.check_writeback(out, index);
                activations.write(output, out);
            }
            Instruction::Simd { kind, elems, region } => {
                let current = activations.read(region, fresh);
                let out = match kind {
                    SimdOpKind::Activation
                    | SimdOpKind::BatchNorm
                    | SimdOpKind::Derivative
                    | SimdOpKind::Loss => AbstractTensor {
                        max_mantissa: spec.mantissa_max() as u32,
                        exp_lo: current.exp_lo.max(options.input_exp_lo),
                        exp_hi: current.exp_hi.min(options.activation_exp_hi),
                        spread_bits: options.input_spread_bits,
                    },
                    SimdOpKind::Elementwise => {
                        let region_elems =
                            if region.is_empty() { elems as u64 } else { region.bytes / bpv };
                        let folds = (elems as u64 / region_elems.max(1)).max(1);
                        AbstractTensor {
                            exp_hi: current.exp_hi + ceil_log2(folds + 1),
                            ..current
                        }
                    }
                    SimdOpKind::WeightUpdate => {
                        // The increment is lr × grad; the weights being
                        // updated are fresh-from-DRAM scale, so their
                        // blocks' LSB sits magnitude_bits below the
                        // input ceiling.
                        let weight_lsb_exp =
                            options.input_exp_hi - analysis.magnitude_bits as i32;
                        let increment_exp = current.exp_hi + options.learning_rate_exp;
                        if increment_exp < weight_lsb_exp - 1 {
                            analysis.record(Code::UPDATE_BELOW_LSB, index, || {
                                format!(
                                    "weight-update increments (≤ 2^{increment_exp} at learning \
                                     rate 2^{}) fall below the weight blocks' representable \
                                     LSB (2^{weight_lsb_exp}) — the optimizer step rounds to \
                                     zero and training stalls",
                                    options.learning_rate_exp
                                )
                            });
                        }
                        current
                    }
                };
                analysis.check_writeback(out, index);
                activations.write(region, out);
            }
            Instruction::StoreDram { .. } | Instruction::HostIo { .. } | Instruction::Sync => {}
        }
    }

    for (code, finding) in &analysis.findings {
        let mut message = finding.detail.clone();
        if finding.count > 1 {
            message.push_str(&format!(" [{} instructions affected]", finding.count));
        }
        let diagnostic = if *code == Code::REDUCTION_CHAIN_OVERFLOW {
            Diagnostic::error(*code, message)
        } else {
            Diagnostic::warning(*code, message)
        };
        report.push(diagnostic.with_span(finding.first_span));
    }

    NumericsSummary {
        chains: analysis
            .chains
            .iter()
            .map(|(&(k_span, max_a, max_b), &safe_depth)| ChainVerdict {
                k_span,
                max_a,
                max_b,
                safe_depth,
            })
            .collect(),
        min_headroom: analysis.min_headroom,
        matmul_count: analysis.matmul_count,
    }
}

/// [`analyze`] without a report — the pure summary for callers that
/// only need the chain verdicts (the calibration gate's fixture tests).
pub fn compute_numerics(
    program: &Program,
    encoding: Encoding,
    options: &NumericsOptions,
) -> NumericsSummary {
    let mut report = Report::new(program.name().to_string());
    analyze(&mut report, program, encoding, options)
}

/// The buffer state on a plain `BTreeMap`: it finds the first candidate
/// span with one descent and the overlaps with another, and collects
/// every overwritten span into a fresh `Vec`. It is the specification
/// the equivalence properties hold the pass to.
#[cfg(test)]
pub(crate) mod reference {
    use super::{AbstractBuffer, AbstractTensor, NumericsOptions, NumericsSummary};
    use crate::diag::Report;
    use equinox_arith::Encoding;
    use equinox_isa::instruction::Region;
    use equinox_isa::Program;
    use std::collections::BTreeMap;

    /// Per-buffer interval map from byte ranges to abstract values.
    /// Writes trim overlapped intervals; reads join every overlapping value
    /// (plus the fresh default when bytes are uncovered).
    #[derive(Debug, Default)]
    pub(crate) struct BufferState {
        /// `start → (end, value)`, non-overlapping.
        spans: BTreeMap<u64, (u64, AbstractTensor)>,
    }

    impl BufferState {
        /// Start key of the first span that could overlap `r`: spans are
        /// non-overlapping, so only the last span starting at or before
        /// `r.offset` can reach past it — scanning from there keeps every
        /// operation O(log n + overlaps) instead of O(spans).
        fn first_candidate(&self, r: Region) -> u64 {
            self.spans.range(..=r.offset).next_back().map_or(r.offset, |(&start, _)| start)
        }
    }

    impl AbstractBuffer for BufferState {
        fn write(&mut self, r: Region, v: AbstractTensor) {
            if r.is_empty() {
                return;
            }
            let overlapping: Vec<u64> = self
                .spans
                .range(self.first_candidate(r)..r.end())
                .filter(|&(_, &(end, _))| end > r.offset)
                .map(|(&start, _)| start)
                .collect();
            for start in overlapping {
                let (end, old) = self.spans.remove(&start).expect("key just listed");
                if start < r.offset {
                    self.spans.insert(start, (r.offset, old));
                }
                if end > r.end() {
                    self.spans.insert(r.end(), (end, old));
                }
            }
            self.spans.insert(r.offset, (r.end(), v));
        }

        fn read(&self, r: Region, default: AbstractTensor) -> AbstractTensor {
            if r.is_empty() {
                return default;
            }
            let mut acc: Option<AbstractTensor> = None;
            let mut covered = 0u64;
            for (&start, &(end, v)) in self.spans.range(self.first_candidate(r)..r.end()) {
                if end > r.offset {
                    acc = Some(acc.map_or(v, |a| a.join(v)));
                    covered += end.min(r.end()) - start.max(r.offset);
                }
            }
            match acc {
                Some(a) if covered >= r.bytes => a,
                Some(a) => a.join(default),
                None => default,
            }
        }
    }

    /// The pass over the reference buffer state.
    pub(crate) fn analyze(
        report: &mut Report,
        program: &Program,
        encoding: Encoding,
        options: &NumericsOptions,
    ) -> NumericsSummary {
        super::analyze_over::<BufferState>(report, program, encoding, options)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use equinox_isa::layers::GemmMode;
    use equinox_isa::lower::compile_inference;
    use equinox_isa::models::ModelSpec;
    use equinox_isa::ArrayDims;

    fn paper_dims() -> ArrayDims {
        ArrayDims { n: 186, w: 3, m: 3 }
    }

    fn analyze_fresh(program: &Program, options: &NumericsOptions) -> (Report, NumericsSummary) {
        let mut report = Report::new(program.name().to_string());
        let summary = analyze(&mut report, program, Encoding::Hbfp8, options);
        (report, summary)
    }

    #[test]
    fn paper_lstm_lowering_is_clean_with_expected_headroom() {
        let d = paper_dims();
        let p = compile_inference(&ModelSpec::lstm_2048_25(), &d, d.n);
        let (report, summary) = analyze_fresh(&p, &NumericsOptions::default());
        assert!(report.is_clean(), "{}", report.render_human());
        // The paper tile depth is n·w = 558 at fresh 127-magnitude
        // operands: safe depth 1040, headroom 1040/558 ≈ 1.864.
        assert!(summary.chains.iter().any(|c| c.k_span == d.tile_k()));
        assert!(summary.chains.iter().all(|c| c.safe()));
        assert!((summary.min_headroom - 1040.0 / 558.0).abs() < 1e-9, "{}", summary.min_headroom);
        assert!(summary.matmul_count > 0);
    }

    #[test]
    fn over_deep_chain_is_an_error_with_dedup_count() {
        let mut p = Program::new("deep");
        for _ in 0..3 {
            p.push(Instruction::matmul(8, 2000, 8, GemmMode::VectorMatrix));
        }
        let (report, summary) = analyze_fresh(&p, &NumericsOptions::default());
        assert!(report.has_errors());
        assert!(report.has_code(Code::REDUCTION_CHAIN_OVERFLOW));
        let d = &report.diagnostics()[0];
        assert_eq!(d.span, Some(Span::at(0)), "first offender");
        assert!(d.message.contains("[3 instructions affected]"), "{}", d.message);
        assert!(d.message.contains("1040"), "{}", d.message);
        let chain = summary.chains.iter().find(|c| c.k_span == 2000).unwrap();
        assert!(!chain.safe());
        assert_eq!(chain.safe_depth, 1040);
    }

    #[test]
    fn low_headroom_is_a_warning_not_an_error() {
        let mut p = Program::new("tight");
        // 800 ≤ 1040 but 1040/800 = 1.3 < the 1.5 floor.
        p.push(Instruction::matmul(8, 800, 8, GemmMode::VectorMatrix));
        let (report, summary) = analyze_fresh(&p, &NumericsOptions::default());
        assert!(!report.has_errors());
        assert!(report.has_code(Code::SATURATION_HEADROOM_LOW));
        assert_eq!(report.warning_count(), 1);
        assert!(summary.chains[0].safe());
        assert!((summary.min_headroom - 1.3).abs() < 1e-9);
    }

    #[test]
    fn exponent_growth_is_capped_by_activations() {
        // A long unrolled recurrence with an activation after each
        // step reaches a fixed point instead of diverging past the
        // 12-bit field.
        let mut p = Program::new("recurrent");
        for _ in 0..2000 {
            p.push(Instruction::matmul(8, 100, 8, GemmMode::VectorMatrix));
            p.push(Instruction::simd(SimdOpKind::Activation, 64));
            p.push(Instruction::Sync);
        }
        let (report, _) = analyze_fresh(&p, &NumericsOptions::default());
        assert!(!report.has_code(Code::EXPONENT_FIELD_OVERFLOW), "{}", report.render_human());
    }

    #[test]
    fn huge_input_exponents_overflow_the_field() {
        let mut p = Program::new("hot");
        p.push(Instruction::matmul(8, 100, 8, GemmMode::VectorMatrix));
        let options = NumericsOptions { input_exp_hi: 2000, ..Default::default() };
        let (report, _) = analyze_fresh(&p, &options);
        assert!(report.has_code(Code::EXPONENT_FIELD_OVERFLOW), "{}", report.render_human());
        assert!(!report.has_errors());
    }

    #[test]
    fn wide_spread_flags_requantization_flush() {
        let mut p = Program::new("spread");
        p.push(Instruction::matmul(8, 100, 8, GemmMode::VectorMatrix));
        let options = NumericsOptions { input_spread_bits: 6, ..Default::default() };
        let (report, _) = analyze_fresh(&p, &options);
        // 6 + 6 = 12 bits of product spread > 7 magnitude bits.
        assert!(report.has_code(Code::REQUANTIZATION_FLUSH), "{}", report.render_human());
    }

    #[test]
    fn tiny_learning_rate_stalls_updates() {
        let mut p = Program::new("stalled");
        p.push(Instruction::simd(SimdOpKind::WeightUpdate, 64));
        let options = NumericsOptions { learning_rate_exp: -120, ..Default::default() };
        let (report, _) = analyze_fresh(&p, &options);
        assert!(report.has_code(Code::UPDATE_BELOW_LSB), "{}", report.render_human());
        // The default learning rate does not stall.
        let (clean, _) = analyze_fresh(&p, &NumericsOptions::default());
        assert!(!clean.has_code(Code::UPDATE_BELOW_LSB));
    }

    #[test]
    fn interval_map_trims_and_joins() {
        let fresh = AbstractTensor { max_mantissa: 127, exp_lo: -32, exp_hi: 16, spread_bits: 3 };
        let hot = AbstractTensor { max_mantissa: 127, exp_lo: 0, exp_hi: 40, spread_bits: 5 };
        let mut state = BufferState::default();
        state.write(Region::new(0, 100), fresh);
        state.write(Region::new(40, 20), hot);
        // Overlapping read joins both values.
        let joined = state.read(Region::new(30, 40), fresh);
        assert_eq!(joined.exp_hi, 40);
        assert_eq!(joined.exp_lo, -32);
        assert_eq!(joined.spread_bits, 5);
        // The trimmed head and tail keep the old value.
        assert_eq!(state.read(Region::new(0, 40), hot), fresh);
        assert_eq!(state.read(Region::new(60, 40), hot), fresh);
        // A read past all coverage joins the supplied default.
        let past = state.read(Region::new(90, 20), hot);
        assert_eq!(past.exp_hi, 40, "uncovered bytes join the default");
    }

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(0), 0);
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(558), 10);
        assert_eq!(ceil_log2(1024), 10);
        assert_eq!(ceil_log2(1025), 11);
    }

    #[test]
    fn chain_verdicts_are_canonical_and_shared_with_arith() {
        let mut p = Program::new("two-shapes");
        p.push(Instruction::matmul(8, 558, 8, GemmMode::VectorMatrix));
        p.push(Instruction::matmul(8, 142, 8, GemmMode::VectorMatrix));
        p.push(Instruction::matmul(8, 558, 8, GemmMode::VectorMatrix));
        let summary = compute_numerics(&p, Encoding::Hbfp8, &NumericsOptions::default());
        let spans: Vec<usize> = summary.chains.iter().map(|c| c.k_span).collect();
        assert_eq!(spans, vec![142, 558], "distinct shapes in canonical order");
        for c in &summary.chains {
            assert_eq!(c.safe_depth, Accumulator25::safe_chain_depth(c.max_a, c.max_b));
        }
        assert_eq!(summary.matmul_count, 3);
    }
}
