//! Extension: executed-arithmetic calibration of the numerics pass.
//!
//! Not a paper figure — a soundness gate. The `EQX08xx` numerics pass
//! (`equinox_check::numerics`) claims that every in-accumulator
//! reduction chain it marks safe cannot saturate the 25-bit accumulator
//! for any data within the abstract operand bounds. This experiment
//! holds that claim against the real fixed-point kernels: for all four
//! paper models, in both the inference and training lowerings on
//! Equinox_500µs, every distinct [`ChainVerdict`] the pass produced is
//! replayed through [`Accumulator25`] and [`HbfpBlock::dot_with_events`]
//! on adversarial (worst-case-magnitude) and property-random tensors of
//! the same reduction depth.
//!
//! Three probes per chain:
//!
//! * **Adversarial** — `k_span` MACs of `±max_a × ±max_b` on both
//!   accumulator rails, plus the full quantize→dot path at mantissa 127.
//!   A statically *safe* chain must produce zero saturation events
//!   (anything else is a **false-safe** verdict — the gate fails by
//!   name); a statically *unsafe* chain must actually saturate (the
//!   diagnostic is demonstrated, not speculative).
//! * **Tightness** — the same worst case at depth `safe_depth + 1` must
//!   saturate, proving the static bound sits exactly at the cliff edge
//!   rather than being vacuously permissive.
//! * **Random** — seeded [`SplitMix64`] mantissa streams within the
//!   abstract bounds, and random float tensors through the real
//!   quantizer; a safe chain must stay clean on all of them.
//!
//! The artifact (`results/numerics_sweep.json`) records every cell and
//! chain; [`NumericsSweep::all_calibrated`] is the gate the `numerics`
//! regen job fails on.

use crate::accelerator::Equinox;
use crate::experiments::{paper_models, ExperimentScale};
use equinox_arith::json::Json;
use equinox_arith::{Accumulator25, Encoding, HbfpBlock, HbfpSpec, NumericEvents, Q8, SplitMix64};
use equinox_check::diag::Report;
use equinox_check::numerics;
use equinox_check::{ChainVerdict, NumericsOptions};
use equinox_isa::models::ModelSpec;
use equinox_model::LatencyConstraint;

/// Tightness probes run only when `safe_depth + 1` stays below this
/// (an unbounded `safe_depth` — zero-magnitude operands — has no cliff
/// to probe).
pub const TIGHTNESS_PROBE_CEILING: u64 = 1 << 20;

/// One chain verdict replayed through the executed arithmetic.
#[derive(Debug, Clone)]
pub struct ChainProbe {
    /// In-accumulator reduction depth (the tile's `k_span`).
    pub k_span: usize,
    /// Worst-case activation mantissa magnitude from the abstract state.
    pub max_a: u32,
    /// Worst-case weight mantissa magnitude from the abstract state.
    pub max_b: u32,
    /// The shared static bound ([`Accumulator25::safe_chain_depth`]).
    pub safe_depth: u64,
    /// The static verdict: `k_span ≤ safe_depth`.
    pub static_safe: bool,
    /// Saturation events from the worst-case probes at depth `k_span`
    /// (both rails, plus the full quantize→dot path at mantissa 127).
    pub adversarial_saturations: u64,
    /// Saturation events from the worst case at `safe_depth + 1`.
    pub overdepth_saturations: u64,
    /// Whether the tightness probe ran (skipped above the ceiling).
    pub overdepth_probed: bool,
    /// Random trials executed (accumulator streams + float tensors).
    pub random_trials: u32,
    /// Saturation events across all random trials.
    pub random_saturations: u64,
}

impl ChainProbe {
    /// A statically safe chain that saturated under executed
    /// arithmetic — the unsoundness the gate exists to catch.
    pub fn false_safe(&self) -> bool {
        self.static_safe && (self.adversarial_saturations > 0 || self.random_saturations > 0)
    }

    /// True when the executed arithmetic agrees with the static
    /// verdict: safe chains never saturate (and the bound is tight),
    /// unsafe chains demonstrably do.
    pub fn sound(&self) -> bool {
        if self.static_safe {
            !self.false_safe() && (!self.overdepth_probed || self.overdepth_saturations > 0)
        } else {
            self.adversarial_saturations > 0
        }
    }
}

/// One (model × lowering) calibration cell.
#[derive(Debug, Clone)]
pub struct NumericsCell {
    /// Paper model name.
    pub model: String,
    /// `inference` or `training`.
    pub mode: &'static str,
    /// Batch the program was lowered at.
    pub batch: usize,
    /// Lowered program length.
    pub instructions: usize,
    /// Tile multiplies the pass analyzed.
    pub matmul_count: usize,
    /// Smallest `safe_depth / k_span` over the cell's safe chains.
    pub min_headroom: f64,
    /// `EQX08xx` errors the pass reported (must be zero on paper
    /// models).
    pub errors: usize,
    /// `EQX08xx` warnings the pass reported.
    pub warnings: usize,
    /// Every distinct chain shape, replayed.
    pub chains: Vec<ChainProbe>,
}

impl NumericsCell {
    /// True when the cell meets every calibration criterion: the pass
    /// is clean, it saw the program's multiplies, and every chain
    /// verdict survives executed arithmetic.
    pub fn passes(&self) -> bool {
        self.errors == 0
            && self.matmul_count > 0
            && !self.chains.is_empty()
            && self.chains.iter().all(ChainProbe::sound)
    }
}

/// The full calibration result.
#[derive(Debug, Clone)]
pub struct NumericsSweep {
    /// Design-point name the cells were calibrated on.
    pub config: String,
    /// Random trials per chain (scale-dependent).
    pub random_trials: u32,
    /// All cells, model-major in paper order, inference before
    /// training.
    pub cells: Vec<NumericsCell>,
}

/// Worst-case chained accumulation at the given depth and operand
/// magnitudes, on both accumulator rails; returns total saturation
/// events. This is the exact monotone extreme of the verdict's
/// precondition: any conforming data has partial sums bounded by this
/// chain's, so zero events here proves no conforming data saturates.
fn worst_case_saturations(depth: u64, max_a: u32, max_b: u32) -> u64 {
    let a = Q8(max_a.min(Q8::MAX.0 as u32) as i8);
    let b = Q8(max_b.min(Q8::MAX.0 as u32) as i8);
    let neg_b = Q8(-b.0);
    let mut pos = Accumulator25::new();
    let mut neg = Accumulator25::new();
    for _ in 0..depth {
        pos.mac(a, b);
        neg.mac(a, neg_b);
    }
    pos.saturation_events() as u64 + neg.saturation_events() as u64
}

/// The full quantize→dot path at worst-case magnitude: a single HBFP
/// block spanning the whole reduction depth (the in-accumulator chain),
/// dotted with itself through the real kernel.
fn full_path_saturations(depth: usize) -> u64 {
    let spec = HbfpSpec::hbfp8_with_block(depth);
    let values = vec![Q8::MAX.0 as f32; depth];
    let block = HbfpBlock::quantize(&values, &spec);
    let mut events = NumericEvents::default();
    let _ = block.dot_with_events(&block, &mut events);
    events.accumulator_saturations
}

/// Deterministic per-chain seed (no wall clock anywhere in the sweep).
fn chain_seed(v: &ChainVerdict) -> u64 {
    let mut s = 0x4551_0801u64;
    for x in [v.k_span as u64, v.max_a as u64, v.max_b as u64] {
        s = s.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(x);
    }
    s
}

/// Random probes within the verdict's precondition: mantissa streams
/// uniform in `[-max, max]` straight into the accumulator, and (when
/// the bounds admit full-range mantissas) random float tensors through
/// the real quantizer and dot kernel.
fn random_probe_saturations(v: &ChainVerdict, trials: u32) -> u64 {
    let mut gen = SplitMix64::seed_from_u64(chain_seed(v));
    let mut total = 0u64;
    for _ in 0..trials {
        let mut acc = Accumulator25::new();
        for _ in 0..v.k_span {
            let a = gen.usize_in(0, 2 * v.max_a as usize + 1) as i64 - v.max_a as i64;
            let b = gen.usize_in(0, 2 * v.max_b as usize + 1) as i64 - v.max_b as i64;
            acc.mac(Q8(a as i8), Q8(b as i8));
        }
        total += acc.saturation_events() as u64;
    }
    if v.max_a >= Q8::MAX.0 as u32 && v.max_b >= Q8::MAX.0 as u32 && v.k_span > 0 {
        let spec = HbfpSpec::hbfp8_with_block(v.k_span);
        for _ in 0..trials {
            let av: Vec<f32> = (0..v.k_span).map(|_| gen.f32_in(-1.0, 1.0)).collect();
            let bv: Vec<f32> = (0..v.k_span).map(|_| gen.f32_in(-1.0, 1.0)).collect();
            let mut events = NumericEvents::default();
            let _ = HbfpBlock::quantize(&av, &spec)
                .dot_with_events(&HbfpBlock::quantize(&bv, &spec), &mut events);
            total += events.accumulator_saturations;
        }
    }
    total
}

/// Replays one static chain verdict through the executed arithmetic.
pub fn probe_chain(v: &ChainVerdict, trials: u32) -> ChainProbe {
    let mut adversarial = worst_case_saturations(v.k_span as u64, v.max_a, v.max_b);
    if v.max_a >= Q8::MAX.0 as u32 && v.max_b >= Q8::MAX.0 as u32 && v.k_span > 0 {
        adversarial += full_path_saturations(v.k_span);
    }
    let overdepth_probed = v.safe() && v.safe_depth < TIGHTNESS_PROBE_CEILING;
    let overdepth_saturations = if overdepth_probed {
        worst_case_saturations(v.safe_depth + 1, v.max_a, v.max_b)
    } else {
        0
    };
    ChainProbe {
        k_span: v.k_span,
        max_a: v.max_a,
        max_b: v.max_b,
        safe_depth: v.safe_depth,
        static_safe: v.safe(),
        adversarial_saturations: adversarial,
        overdepth_saturations,
        overdepth_probed,
        random_trials: trials,
        random_saturations: random_probe_saturations(v, trials),
    }
}

/// Calibrates one (model, lowering) cell.
fn calibrate(eq: &Equinox, model: &ModelSpec, training: bool, trials: u32) -> NumericsCell {
    let (program, batch) = eq.lowering(model, training);
    let mut report = Report::new(program.name().to_string());
    let encoding = eq.config().encoding;
    let summary = numerics::analyze(&mut report, &program, encoding, &NumericsOptions::default());
    let chains = summary.chains.iter().map(|v| probe_chain(v, trials)).collect();
    NumericsCell {
        model: model.name().to_string(),
        mode: if training { "training" } else { "inference" },
        batch,
        instructions: program.instructions().len(),
        matmul_count: summary.matmul_count,
        min_headroom: summary.min_headroom,
        errors: report.error_count(),
        warnings: report.warning_count(),
        chains,
    }
}

/// Calibrates the numerics pass on Equinox_500µs across all four paper
/// models, inference and training lowerings.
pub fn run(scale: ExperimentScale) -> NumericsSweep {
    let eq = Equinox::build(Encoding::Hbfp8, LatencyConstraint::Micros(500))
        .expect("the 500 µs design exists");
    let trials: u32 = match scale {
        ExperimentScale::Quick => 16,
        ExperimentScale::Full => 128,
    };
    let models = paper_models();
    // The 8 cells are independent lowerings + probes: fan them out.
    let grid: Vec<(usize, bool)> =
        (0..models.len()).flat_map(|i| [(i, false), (i, true)]).collect();
    let cells =
        equinox_par::parallel_map(grid, |(i, training)| calibrate(&eq, &models[i], training, trials));
    NumericsSweep { config: eq.config().name.clone(), random_trials: trials, cells }
}

impl NumericsSweep {
    /// The cell for (`model`, `mode`), if present.
    pub fn cell(&self, model: &str, mode: &str) -> Option<&NumericsCell> {
        self.cells.iter().find(|c| c.model == model && c.mode == mode)
    }

    /// The gate the `numerics` regen job holds the tree to: every cell
    /// clean under the pass and every chain verdict confirmed by the
    /// executed arithmetic, with zero false-safe verdicts.
    pub fn all_calibrated(&self) -> bool {
        !self.cells.is_empty() && self.cells.iter().all(NumericsCell::passes)
    }

    /// Total false-safe verdicts across all cells (the headline
    /// unsoundness count; must be zero).
    pub fn false_safe_count(&self) -> usize {
        self.cells.iter().flat_map(|c| &c.chains).filter(|p| p.false_safe()).count()
    }

    /// Cells that fail calibration, for failure messages.
    pub fn failures(&self) -> Vec<&NumericsCell> {
        self.cells.iter().filter(|c| !c.passes()).collect()
    }

    /// The calibration as a JSON document.
    pub fn to_json(&self) -> Json {
        let cells = self.cells.iter().map(|c| {
            let chains = c.chains.iter().map(|p| {
                Json::object([
                    ("k_span", p.k_span.into()),
                    ("max_a", p.max_a.into()),
                    ("max_b", p.max_b.into()),
                    ("safe_depth", p.safe_depth.into()),
                    ("static_safe", p.static_safe.into()),
                    ("adversarial_saturations", p.adversarial_saturations.into()),
                    ("overdepth_probed", p.overdepth_probed.into()),
                    ("overdepth_saturations", p.overdepth_saturations.into()),
                    ("random_trials", p.random_trials.into()),
                    ("random_saturations", p.random_saturations.into()),
                    ("false_safe", p.false_safe().into()),
                    ("sound", p.sound().into()),
                ])
            });
            Json::object([
                ("model", c.model.as_str().into()),
                ("mode", c.mode.into()),
                ("batch", c.batch.into()),
                ("instructions", c.instructions.into()),
                ("matmul_count", c.matmul_count.into()),
                ("min_headroom", c.min_headroom.into()),
                ("errors", c.errors.into()),
                ("warnings", c.warnings.into()),
                ("passes", c.passes().into()),
                ("chains", Json::array(chains)),
            ])
        });
        Json::object([
            ("config", self.config.as_str().into()),
            ("random_trials", self.random_trials.into()),
            ("false_safe_count", self.false_safe_count().into()),
            ("all_calibrated", self.all_calibrated().into()),
            ("cells", Json::array(cells)),
        ])
    }
}

impl std::fmt::Display for NumericsSweep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Numerics calibration — {} ({} random trials/chain, {} false-safe):",
            self.config,
            self.random_trials,
            self.false_safe_count(),
        )?;
        writeln!(
            f,
            "  {:<10} {:<9} {:>5} {:>8} {:>9} {:>6} {:>5} {:>5}",
            "Model", "Mode", "Batch", "MatMuls", "Headroom", "Chains", "Errs", "Gate"
        )?;
        for c in &self.cells {
            writeln!(
                f,
                "  {:<10} {:<9} {:>5} {:>8} {:>9.3} {:>6} {:>5} {:>5}",
                c.model,
                c.mode,
                c.batch,
                c.matmul_count,
                c.min_headroom,
                c.chains.len(),
                c.errors,
                if c.passes() { "ok" } else { "FAIL" },
            )?;
            for p in &c.chains {
                writeln!(
                    f,
                    "    chain k={:<5} |a|≤{:<3} |b|≤{:<3} safe≤{:<6} adv {:>3} over {:>3} rand {:>3} ({})",
                    p.k_span,
                    p.max_a,
                    p.max_b,
                    p.safe_depth,
                    p.adversarial_saturations,
                    p.overdepth_saturations,
                    p.random_saturations,
                    if p.sound() { "sound" } else { "FALSE-SAFE" },
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// The Quick sweep, shared across tests (the GRU training lowering
    /// dominates its cost).
    fn sweep() -> &'static NumericsSweep {
        static SWEEP: OnceLock<NumericsSweep> = OnceLock::new();
        SWEEP.get_or_init(|| run(ExperimentScale::Quick))
    }

    #[test]
    fn every_paper_cell_is_calibrated_in_both_modes() {
        let s = sweep();
        assert_eq!(s.cells.len(), 8);
        for model in ["LSTM", "GRU", "Resnet50", "MLP"] {
            for mode in ["inference", "training"] {
                let c = s.cell(model, mode).unwrap_or_else(|| panic!("{model}/{mode}"));
                assert!(c.passes(), "{model}/{mode} failed calibration: {s}");
            }
        }
        assert!(s.all_calibrated(), "{s}");
        assert!(s.failures().is_empty());
        assert_eq!(s.false_safe_count(), 0);
    }

    #[test]
    fn paper_chains_are_statically_safe_and_never_saturate() {
        for c in &sweep().cells {
            assert_eq!(c.errors, 0, "{}/{}", c.model, c.mode);
            assert!(c.min_headroom >= 1.5, "{}/{}: {}", c.model, c.mode, c.min_headroom);
            for p in &c.chains {
                assert!(p.static_safe, "{}/{} k={}", c.model, c.mode, p.k_span);
                assert_eq!(p.adversarial_saturations, 0, "{}/{} k={}", c.model, c.mode, p.k_span);
                assert_eq!(p.random_saturations, 0, "{}/{} k={}", c.model, c.mode, p.k_span);
            }
        }
    }

    #[test]
    fn tightness_probe_saturates_just_past_the_static_bound() {
        let mut probed = 0;
        for c in &sweep().cells {
            for p in &c.chains {
                if p.overdepth_probed {
                    probed += 1;
                    assert!(
                        p.overdepth_saturations > 0,
                        "{}/{}: depth {} past bound {} did not saturate",
                        c.model,
                        c.mode,
                        p.safe_depth + 1,
                        p.safe_depth,
                    );
                }
            }
        }
        assert!(probed > 0, "no tightness probes ran");
    }

    #[test]
    fn a_lying_safe_verdict_is_caught_by_executed_arithmetic() {
        // A verdict that claims a 2000-deep worst-case chain is safe
        // (the true bound at 127×127 is 1040). The executed probes must
        // expose it as false-safe.
        let lie = ChainVerdict { k_span: 2000, max_a: 127, max_b: 127, safe_depth: 4000 };
        let p = probe_chain(&lie, 4);
        assert!(p.static_safe);
        assert!(p.adversarial_saturations > 0);
        assert!(p.false_safe());
        assert!(!p.sound());
        // And the honest verdict for the same chain is confirmed unsafe.
        let honest = ChainVerdict {
            k_span: 2000,
            max_a: 127,
            max_b: 127,
            safe_depth: Accumulator25::safe_chain_depth(127, 127),
        };
        let q = probe_chain(&honest, 4);
        assert!(!q.static_safe && q.sound() && !q.false_safe());
    }

    #[test]
    fn artifact_records_the_gate_and_every_cell() {
        let json = sweep().to_json().render().unwrap();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"all_calibrated\":true"));
        assert!(json.contains("\"false_safe_count\":0"));
        assert!(json.contains("\"mode\":\"training\""));
        assert_eq!(json.matches("\"passes\":true").count(), 8);
        assert!(!json.contains("\"false_safe\":true"));
    }
}
