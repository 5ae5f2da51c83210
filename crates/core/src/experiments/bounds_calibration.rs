//! Extension: sim calibration of the static cycle/energy bounds.
//!
//! Not a paper figure — a soundness gate. The `EQX06xx` bounds pass
//! (`equinox_check::bounds`) claims that every lowered program finishes
//! inside `[lower, upper]` cycles on the machine the cost model
//! describes. This experiment holds that claim against the
//! cycle-accurate reference: for all four paper models, in both the
//! inference and training lowerings on Equinox_500µs, the dispatcher's
//! own timing accounting ([`InferenceTiming::from_program`]) must land
//! inside the static bounds, and the bounds must be tight enough to be
//! useful (`upper/lower ≤` [`RATIO_CEILING`]).
//!
//! Inference cells are additionally probed end-to-end through the
//! discrete-event engine at the paper's two serving operating points —
//! the Figure 10 priority-scheduled adaptive-batching configuration and
//! the Figure 11 static-batching configuration. A full batch of
//! back-to-back arrivals is injected after the warm-up window; with an
//! idle accelerator the batch forms at the last arrival and the first
//! request's latency is exactly `(batch − 1) + service` cycles, so the
//! engine-implied service time must agree with the static accounting to
//! within [`SIM_TOLERANCE_CYCLES`] (the engine's event epsilons).
//! Training lowerings are not served as requests, so they carry no
//! engine probes.
//!
//! The artifact (`results/bounds_calibration.json`) records every cell;
//! [`BoundsCalibration::all_calibrated`] is the gate the `bounds` regen
//! job fails on.

use crate::accelerator::Equinox;
use crate::experiments::ExperimentScale;
use equinox_arith::json::Json;
use equinox_arith::Encoding;
use equinox_check::bounds::{compute_bounds, paper_energy_params, soundness_diagnostics};
use equinox_check::BufferBudget;
use equinox_isa::cache::{compile_inference_cached, lower_training_cached};
use equinox_isa::lower::InferenceTiming;
use equinox_isa::models::ModelSpec;
use equinox_model::LatencyConstraint;
use equinox_sim::{AcceleratorConfig, BatchingPolicy, CostModel, SchedulerPolicy, Simulation};

/// Maximum tolerated looseness of the static bounds: `upper/lower`
/// must not exceed this on any calibrated cell.
pub const RATIO_CEILING: f64 = 4.0;

/// Tolerated disagreement, in cycles, between the engine-implied
/// service time and the static timing accounting. The event engine
/// carries small epsilons for float-robust event ordering; everything
/// beyond them is a real modelling divergence.
pub const SIM_TOLERANCE_CYCLES: u64 = 16;

/// One engine probe of an inference cell: the cycle-accurate simulator
/// run at a named serving operating point.
#[derive(Debug, Clone)]
pub struct SimProbe {
    /// Operating point name (`fig10_priority_adaptive`, `fig11_static`).
    pub operating_point: &'static str,
    /// Service cycles implied by the engine's max request latency
    /// (`latency_max × freq − (batch − 1)`).
    pub sim_cycles: u64,
    /// `sim_cycles − measured_cycles` (static accounting).
    pub deviation_cycles: i64,
    /// `|deviation_cycles| ≤` [`SIM_TOLERANCE_CYCLES`].
    pub agrees: bool,
}

/// One (model × lowering) calibration cell.
#[derive(Debug, Clone)]
pub struct CalibrationCell {
    /// Paper model name.
    pub model: String,
    /// `inference` or `training`.
    pub mode: &'static str,
    /// Batch the program was lowered at.
    pub batch: usize,
    /// Lowered program length.
    pub instructions: usize,
    /// Cycles per the dispatcher's own accounting — the reference the
    /// bounds must bracket.
    pub measured_cycles: u64,
    /// Static lower bound, cycles.
    pub lower_cycles: u64,
    /// Static upper bound, cycles.
    pub upper_cycles: u64,
    /// `upper / lower`.
    pub ratio: f64,
    /// `lower ≤ measured ≤ upper`.
    pub contained: bool,
    /// The pass's own internal soundness check (`EQX0601`) was clean.
    pub sound: bool,
    /// Static energy lower bound, joules.
    pub energy_lower_j: f64,
    /// Static energy upper bound, joules.
    pub energy_upper_j: f64,
    /// Engine probes (inference cells only).
    pub probes: Vec<SimProbe>,
}

impl CalibrationCell {
    /// True when the cell meets every calibration criterion.
    pub fn passes(&self) -> bool {
        self.contained
            && self.sound
            && self.ratio <= RATIO_CEILING
            && self.probes.iter().all(|p| p.agrees)
    }
}

/// The full calibration result.
#[derive(Debug, Clone)]
pub struct BoundsCalibration {
    /// Design-point name the cells were calibrated on.
    pub config: String,
    /// Clock frequency, Hz.
    pub freq_hz: f64,
    /// All cells, model-major in paper order, inference before
    /// training.
    pub cells: Vec<CalibrationCell>,
}

/// The four paper models, in paper order.
fn paper_models() -> [ModelSpec; 4] {
    [
        ModelSpec::lstm_2048_25(),
        ModelSpec::gru_2816_1500(),
        ModelSpec::resnet50(),
        ModelSpec::mlp_2048x5(),
    ]
}

/// Runs the engine at one operating point with a full batch of
/// back-to-back arrivals placed after the warm-up window, and returns
/// the service cycles its max latency implies.
fn probe(
    name: &'static str,
    config: AcceleratorConfig,
    timing: &InferenceTiming,
    measured_cycles: u64,
    intervals: u64,
) -> SimProbe {
    let freq = config.freq_hz;
    let batch = timing.batch as u64;
    let horizon = intervals * timing.total_cycles + 2 * batch;
    // First arrival strictly past the 5 % warm-up so every request in
    // the batch is a measured latency sample.
    let first = horizon / 20 + 1;
    let arrivals: Vec<u64> = (0..batch).map(|i| first + i).collect();
    let sim = Simulation::new(config, *timing, None).expect("probe config is valid");
    let report = sim.run(&arrivals, horizon).expect("probe run fits the horizon");
    let max_latency_cycles = report.latency.max() * freq;
    let sim_cycles = (max_latency_cycles - (batch - 1) as f64).round().max(0.0) as u64;
    let deviation_cycles = sim_cycles as i64 - measured_cycles as i64;
    SimProbe {
        operating_point: name,
        sim_cycles,
        deviation_cycles,
        agrees: deviation_cycles.unsigned_abs() <= SIM_TOLERANCE_CYCLES,
    }
}

/// Calibrates one (model, lowering) cell.
fn calibrate(eq: &Equinox, cost: &CostModel, model: &ModelSpec, training: bool, intervals: u64) -> CalibrationCell {
    let dims = eq.dims();
    let config = eq.config();
    let (program, batch) = if training {
        let setup = eq.training_setup(model);
        (lower_training_cached(model, &dims, &setup), setup.batch)
    } else {
        let batch = eq.serving_batch(model);
        let program = compile_inference_cached(
            model,
            &dims,
            batch,
            config.encoding,
            &BufferBudget::paper_default(),
        );
        (program, batch)
    };
    let timing = InferenceTiming::from_program(&program, &dims, batch);
    let bounds = compute_bounds(&program, cost);
    let energy = bounds.energy.as_ref().expect("cost model carries energy parameters");
    let probes = if training {
        Vec::new()
    } else {
        let fig10 = {
            let mut c = config.clone();
            c.scheduler = SchedulerPolicy::Priority { queue_threshold: 2 * dims.n };
            c.batching = BatchingPolicy::adaptive_default();
            c
        };
        let fig11 = {
            let mut c = config.clone();
            c.batching = BatchingPolicy::Static;
            c
        };
        vec![
            probe("fig10_priority_adaptive", fig10, &timing, timing.total_cycles, intervals),
            probe("fig11_static", fig11, &timing, timing.total_cycles, intervals),
        ]
    };
    CalibrationCell {
        model: model.name().to_string(),
        mode: if training { "training" } else { "inference" },
        batch,
        instructions: program.instructions().len(),
        measured_cycles: timing.total_cycles,
        lower_cycles: bounds.cycles.lower,
        upper_cycles: bounds.cycles.upper,
        ratio: bounds.cycles.ratio(),
        contained: bounds.cycles.contains(timing.total_cycles),
        sound: soundness_diagnostics(&bounds).is_empty(),
        energy_lower_j: energy.lower_j,
        energy_upper_j: energy.upper_j,
        probes,
    }
}

/// Calibrates the bounds pass on Equinox_500µs across all four paper
/// models, inference and training lowerings.
pub fn run(scale: ExperimentScale) -> BoundsCalibration {
    let eq = Equinox::build(Encoding::Hbfp8, LatencyConstraint::Micros(500))
        .expect("the 500 µs design exists");
    let cost = CostModel::from_config(eq.config())
        .with_energy(paper_energy_params(eq.config().encoding, eq.freq_hz()));
    // Probe horizon in batch-service intervals; the probes are exact
    // either way, Full just exercises a longer warm-up placement.
    let intervals: u64 = match scale {
        ExperimentScale::Quick => 8,
        ExperimentScale::Full => 32,
    };
    let models = paper_models();
    // The 8 cells are independent lowerings + probes: fan them out.
    let grid: Vec<(usize, bool)> =
        (0..models.len()).flat_map(|i| [(i, false), (i, true)]).collect();
    let cells = equinox_par::parallel_map(grid, |(i, training)| {
        calibrate(&eq, &cost, &models[i], training, intervals)
    });
    BoundsCalibration {
        config: eq.config().name.clone(),
        freq_hz: eq.freq_hz(),
        cells,
    }
}

impl BoundsCalibration {
    /// The cell for (`model`, `mode`), if present.
    pub fn cell(&self, model: &str, mode: &str) -> Option<&CalibrationCell> {
        self.cells.iter().find(|c| c.model == model && c.mode == mode)
    }

    /// The gate the `bounds` regen job holds the tree to: every cell
    /// contained, internally sound, tight (`ratio ≤` [`RATIO_CEILING`])
    /// and in agreement with the cycle-accurate engine.
    pub fn all_calibrated(&self) -> bool {
        !self.cells.is_empty() && self.cells.iter().all(CalibrationCell::passes)
    }

    /// Cells that fail calibration, for failure messages.
    pub fn failures(&self) -> Vec<&CalibrationCell> {
        self.cells.iter().filter(|c| !c.passes()).collect()
    }

    /// The calibration as a JSON document.
    pub fn to_json(&self) -> Json {
        let cells = self.cells.iter().map(|c| {
            let probes = c.probes.iter().map(|p| {
                Json::object([
                    ("operating_point", p.operating_point.into()),
                    ("sim_cycles", p.sim_cycles.into()),
                    ("deviation_cycles", p.deviation_cycles.into()),
                    ("agrees", p.agrees.into()),
                ])
            });
            Json::object([
                ("model", c.model.as_str().into()),
                ("mode", c.mode.into()),
                ("batch", c.batch.into()),
                ("instructions", c.instructions.into()),
                ("measured_cycles", c.measured_cycles.into()),
                ("lower_cycles", c.lower_cycles.into()),
                ("upper_cycles", c.upper_cycles.into()),
                ("ratio", c.ratio.into()),
                ("contained", c.contained.into()),
                ("sound", c.sound.into()),
                ("energy_lower_j", c.energy_lower_j.into()),
                ("energy_upper_j", c.energy_upper_j.into()),
                ("passes", c.passes().into()),
                ("probes", Json::array(probes)),
            ])
        });
        Json::object([
            ("config", self.config.as_str().into()),
            ("freq_hz", self.freq_hz.into()),
            ("ratio_ceiling", RATIO_CEILING.into()),
            ("sim_tolerance_cycles", SIM_TOLERANCE_CYCLES.into()),
            ("all_calibrated", self.all_calibrated().into()),
            ("cells", Json::array(cells)),
        ])
    }
}

impl std::fmt::Display for BoundsCalibration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Bounds calibration — {} @ {:.0} MHz (ratio ceiling {RATIO_CEILING}, \
             sim tolerance {SIM_TOLERANCE_CYCLES} cycles):",
            self.config,
            self.freq_hz / 1e6
        )?;
        writeln!(
            f,
            "  {:<10} {:<9} {:>5} {:>10} {:>10} {:>10} {:>6} {:>5}",
            "Model", "Mode", "Batch", "Measured", "Lower", "Upper", "Ratio", "Gate"
        )?;
        for c in &self.cells {
            writeln!(
                f,
                "  {:<10} {:<9} {:>5} {:>10} {:>10} {:>10} {:>6.3} {:>5}",
                c.model,
                c.mode,
                c.batch,
                c.measured_cycles,
                c.lower_cycles,
                c.upper_cycles,
                c.ratio,
                if c.passes() { "ok" } else { "FAIL" },
            )?;
            for p in &c.probes {
                writeln!(
                    f,
                    "    probe {:<24} sim {:>10} dev {:>+4} ({})",
                    p.operating_point,
                    p.sim_cycles,
                    p.deviation_cycles,
                    if p.agrees { "agrees" } else { "DIVERGES" },
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

    /// The Quick calibration, shared across tests (the GRU lowerings
    /// dominate its cost).
    fn calibration() -> &'static BoundsCalibration {
        static CAL: OnceLock<BoundsCalibration> = OnceLock::new();
        CAL.get_or_init(|| run(ExperimentScale::Quick))
    }

    #[test]
    fn every_paper_model_is_calibrated_in_both_modes() {
        let cal = calibration();
        assert_eq!(cal.cells.len(), 8);
        for model in ["LSTM", "GRU", "Resnet50", "MLP"] {
            for mode in ["inference", "training"] {
                let c = cal.cell(model, mode).unwrap_or_else(|| panic!("{model}/{mode}"));
                assert!(c.passes(), "{model}/{mode} failed calibration: {cal}");
            }
        }
        assert!(cal.all_calibrated(), "{cal}");
        assert!(cal.failures().is_empty());
    }

    #[test]
    fn inference_cells_carry_both_engine_probes() {
        for c in &calibration().cells {
            match c.mode {
                "inference" => {
                    assert_eq!(c.probes.len(), 2, "{}", c.model);
                    assert_eq!(c.probes[0].operating_point, "fig10_priority_adaptive");
                    assert_eq!(c.probes[1].operating_point, "fig11_static");
                    // With an idle device and a full batch, both
                    // operating points serve the batch identically.
                    assert_eq!(c.probes[0].sim_cycles, c.probes[1].sim_cycles, "{}", c.model);
                }
                _ => assert!(c.probes.is_empty(), "{}", c.model),
            }
        }
    }

    #[test]
    fn bounds_are_bracketing_and_tight() {
        for c in &calibration().cells {
            assert!(c.lower_cycles <= c.measured_cycles, "{}/{}", c.model, c.mode);
            assert!(c.measured_cycles <= c.upper_cycles, "{}/{}", c.model, c.mode);
            assert!(c.ratio <= RATIO_CEILING, "{}/{}: {}", c.model, c.mode, c.ratio);
            assert!(c.energy_lower_j > 0.0 && c.energy_lower_j <= c.energy_upper_j);
        }
    }

    #[test]
    fn artifact_records_the_gate_and_every_cell() {
        let json = calibration().to_json().render().unwrap();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"all_calibrated\":true"));
        assert!(json.contains("\"operating_point\":\"fig11_static\""));
        assert_eq!(json.matches("\"passes\":true").count(), 8);
    }
}
