//! Extension: offline fitting + calibration gate of the fitted
//! distributional fleet surrogate.
//!
//! The fleet layer's surrogate tier
//! ([`equinox_fleet::Fidelity::Fitted`]) replaces the per-batch
//! discrete-event simulation with inverse-CDF draws from per-(model,
//! batch, contention-bucket) quantile tables. This driver *builds*
//! those tables against the cycle-accurate engine and gates them, so a
//! 64–256-device sweep at 10–100× longer horizons rests on measured —
//! not assumed — service-time and energy distributions:
//!
//! 1. **Sample.** For each fitted model (the LSTM reference workload
//!    and the MLP, both served at the full hardware batch `n` on
//!    Equinox_500µs with training co-hosted at the Figure 10 operating
//!    point), run [`equinox_sim::Simulation::run_sampled`] over a
//!    (load × seed) grid on the `equinox-par` pool, collecting one
//!    [`equinox_sim::BatchSample`] per completed batch. Even seeds are
//!    the fitting set, odd seeds are held out.
//! 2. **Fit.** [`FittedTable::fit`] buckets the fitting set by queue
//!    depth at service start and takes per-bucket occupancy / stretch /
//!    energy quantile grids, clamped into the static
//!    `equinox_check::bounds` envelope of the served program.
//! 3. **Gate.** The `fitted` regen job fails by name if (a) any raw
//!    sample's occupancy escapes the static cycle envelope or its
//!    stretch escapes `[1, MAX_STRETCH]` (beyond the engine's event
//!    epsilons), or (b) on any contention bucket with at least
//!    [`MIN_HELDOUT_SAMPLES`] held-out batches, a fitted occupancy or
//!    wall-clock-duration quantile disagrees with the held-out
//!    empirical quantile by more than [`ERROR_CEILING`] relative.
//!
//! The artifact (`results/fitted_tables.json`) records the tables
//! themselves plus every bucket's calibration error, and
//! [`FittedCalibration::shared`] hands the fitted tables to the scaled
//! fleet/serve sweeps and the tests without refitting per call site.

use crate::accelerator::Equinox;
use crate::experiments::ExperimentScale;
use equinox_arith::json::Json;
use equinox_arith::Encoding;
use equinox_check::bounds::{compute_bounds, paper_energy_params};
use equinox_check::BufferBudget;
use equinox_fleet::{sorted_quantile, DeviceSpec, FittedTable, GRID_POINTS, MAX_STRETCH};
use equinox_isa::cache::compile_inference_cached;
use equinox_isa::lower::InferenceTiming;
use equinox_isa::models::ModelSpec;
use equinox_isa::training::TrainingProfile;
use equinox_model::LatencyConstraint;
use equinox_sim::loadgen::{poisson_arrivals, rate_for_load, split_seed};
use equinox_sim::{
    AcceleratorConfig, BatchSample, BatchingPolicy, CostModel, SchedulerPolicy, Simulation,
};
use std::sync::{Arc, OnceLock};

/// Maximum tolerated relative error between a fitted quantile and the
/// held-out empirical quantile, on gated (≥ [`MIN_HELDOUT_SAMPLES`])
/// buckets, over the interior grid points of the occupancy and
/// wall-clock-duration lanes.
pub const ERROR_CEILING: f64 = 0.10;

/// A contention bucket is only held to [`ERROR_CEILING`] when the
/// held-out set put at least this many batches in it — below that the
/// empirical quantiles are noise, and the bucket is recorded as
/// unchecked instead of being gated on luck.
pub const MIN_HELDOUT_SAMPLES: usize = 24;

/// Tolerated excursion of a raw sample's occupancy outside the static
/// cycle envelope, cycles: the engine integrates occupancy through
/// float event times, so the accounting carries event epsilons but
/// nothing model-sized.
pub const ESCAPE_TOLERANCE_CYCLES: f64 = 2.0;

/// Relative tolerance on the stretch clamp `[1, MAX_STRETCH]` for the
/// same float-accounting reason.
const STRETCH_TOLERANCE: f64 = 1e-6;

/// Offered loads the fitting traffic sweeps: light, the moderate
/// operating point, near saturation, and 10 % past it (overload walks
/// the queue through every contention bucket).
pub const FIT_LOADS: [f64; 4] = [0.3, 0.6, 0.9, 1.1];

/// Master seed of the fitting traffic; per-cell arrival seeds derive
/// from it via [`split_seed`].
const FIT_SEED: u64 = 0xF17ED;

/// Per-bucket calibration verdict against the held-out runs.
#[derive(Debug, Clone)]
pub struct BucketCalibration {
    /// Bucket index (into [`FittedTable::buckets`]).
    pub bucket: usize,
    /// Fitting-set batches that landed in this bucket.
    pub train_count: usize,
    /// Held-out batches that landed in this bucket.
    pub heldout_count: usize,
    /// Whether the bucket met [`MIN_HELDOUT_SAMPLES`] and was gated.
    pub checked: bool,
    /// Worst relative error of the fitted occupancy quantiles vs the
    /// held-out empirical quantiles (interior grid points; 0 when
    /// unchecked).
    pub max_occupancy_rel_err: f64,
    /// Worst relative error of the fitted wall-clock-duration quantiles
    /// (occupancy × stretch, comonotone) vs held-out.
    pub max_duration_rel_err: f64,
}

impl BucketCalibration {
    /// True when the bucket is unchecked or inside [`ERROR_CEILING`].
    pub fn passes(&self) -> bool {
        !self.checked
            || (self.max_occupancy_rel_err <= ERROR_CEILING
                && self.max_duration_rel_err <= ERROR_CEILING)
    }
}

/// One fitted (model, batch) cell: the table plus everything the gate
/// measured while fitting it.
#[derive(Debug, Clone)]
pub struct FittedFit {
    /// Paper model name.
    pub model: String,
    /// Batch the table was fitted at (the hardware `n`).
    pub batch: usize,
    /// Static cycle envelope of the served program.
    pub lower_cycles: u64,
    /// Static cycle envelope of the served program.
    pub upper_cycles: u64,
    /// Static per-batch energy envelope, joules.
    pub energy_lower_j: f64,
    /// Static per-batch energy envelope, joules.
    pub energy_upper_j: f64,
    /// Dispatcher-accounted service cycles (must sit inside the cycle
    /// envelope — the same containment the `bounds` gate holds).
    pub measured_cycles: u64,
    /// `lower ≤ measured ≤ upper`.
    pub contained: bool,
    /// Batches in the fitting set (even seeds, all loads pooled).
    pub train_samples: usize,
    /// Batches held out (odd seeds, all loads pooled).
    pub heldout_samples: usize,
    /// Raw samples (fitting + held-out) whose occupancy or stretch
    /// escaped the envelope beyond the event-epsilon tolerances.
    pub envelope_escapes: usize,
    /// Per-bucket held-out calibration, in bucket order.
    pub buckets: Vec<BucketCalibration>,
    /// The fitted table, shared with every device built from this fit.
    pub table: Arc<FittedTable>,
    /// The Figure 10 operating-point configuration the samples were
    /// collected under (scheduler + batching a fitted device should
    /// mirror).
    config: AcceleratorConfig,
    /// The compiled timing of the served program.
    timing: InferenceTiming,
    /// The co-hosted training service the contention was sampled with.
    training: TrainingProfile,
}

impl FittedFit {
    /// The gate for this fit: the measured service is inside the static
    /// envelope, zero raw samples escaped it, at least one contention
    /// bucket reached held-out significance, and every checked bucket
    /// is inside [`ERROR_CEILING`].
    pub fn passes(&self) -> bool {
        self.contained
            && self.envelope_escapes == 0
            && self.buckets.iter().any(|b| b.checked)
            && self.buckets.iter().all(BucketCalibration::passes)
    }

    /// A fleet device evaluated by this fit's table: the sampled
    /// operating-point config renamed to `name`, optionally co-hosting
    /// the same training service the contention was fitted under.
    pub fn device(&self, name: &str, harvests: bool) -> DeviceSpec {
        let mut config = self.config.clone();
        config.name = name.to_string();
        let spec = DeviceSpec::new(config, self.timing);
        let spec = if harvests { spec.with_training(self.training) } else { spec };
        spec.with_fitted(Arc::clone(&self.table))
    }
}

/// The full fitting + calibration result.
#[derive(Debug, Clone)]
pub struct FittedCalibration {
    /// Design-point name the tables were fitted on.
    pub config: String,
    /// Clock frequency, Hz.
    pub freq_hz: f64,
    /// Traffic seeds per load (half fitting, half held out).
    pub seeds_per_load: usize,
    /// One fit per model, in grid order.
    pub fits: Vec<FittedFit>,
}

/// The fitted models: the LSTM reference workload and the MLP — the
/// two vector-matrix paper models served at the full hardware batch,
/// spanning a ≈16× spread in per-batch service cycles.
fn fitted_models() -> [ModelSpec; 2] {
    [ModelSpec::lstm_2048_25(), ModelSpec::mlp_2048x5()]
}

/// The Figure 10 serving operating point the samples are collected
/// under: priority scheduling (training preempted above a 2n queue)
/// with adaptive batching.
fn operating_config(eq: &Equinox) -> AcceleratorConfig {
    let mut config = eq.config().clone();
    config.scheduler = SchedulerPolicy::Priority { queue_threshold: 2 * eq.dims().n };
    config.batching = BatchingPolicy::adaptive_default();
    config
}

/// Contention-bucket boundaries for a batch-`n` device: calm (< 1
/// queued), sub-batch backlog, one to two batches deep, and past the
/// 2n priority-preemption threshold.
fn bucket_edges(n: usize) -> Vec<usize> {
    vec![1, n / 2, n, 2 * n, 4 * n]
}

/// Fits and gates one model's table from pooled `train` samples and
/// `heldout` runs.
#[allow(clippy::too_many_arguments)]
fn gate_fit(
    model: &ModelSpec,
    config: AcceleratorConfig,
    timing: InferenceTiming,
    training: TrainingProfile,
    envelope: (u64, u64, f64, f64),
    train: Vec<BatchSample>,
    heldout: Vec<BatchSample>,
) -> FittedFit {
    let (lower_cycles, upper_cycles, energy_lower_j, energy_upper_j) = envelope;
    let edges = bucket_edges(timing.batch);
    let table = FittedTable::fit(
        model.name(),
        timing.batch,
        lower_cycles,
        upper_cycles,
        energy_lower_j,
        energy_upper_j,
        edges.clone(),
        &train,
    )
    .expect("the calibrated envelope is valid");

    let escapes = |s: &BatchSample| {
        let occ_low = lower_cycles as f64 - ESCAPE_TOLERANCE_CYCLES;
        let occ_high = upper_cycles as f64 + ESCAPE_TOLERANCE_CYCLES;
        !(occ_low..=occ_high).contains(&s.occupancy_cycles)
            || !(1.0 - STRETCH_TOLERANCE..=MAX_STRETCH + STRETCH_TOLERANCE)
                .contains(&s.stretch())
    };
    let envelope_escapes =
        train.iter().chain(heldout.iter()).filter(|s| escapes(s)).count();

    // Held-out empirical quantiles per bucket vs the fitted grids, with
    // the same estimator the fit used. The extreme grid points (min /
    // max) are single order statistics and stay diagnostic-only; the
    // interior points are gated.
    let buckets = (0..edges.len() + 1)
        .map(|b| {
            let grid = &table.buckets()[b];
            let bin: Vec<&BatchSample> = heldout
                .iter()
                .filter(|s| edges.partition_point(|&e| e <= s.queue_depth) == b)
                .collect();
            let heldout_count = bin.len();
            let checked = heldout_count >= MIN_HELDOUT_SAMPLES;
            let (mut occ_err, mut dur_err) = (0.0f64, 0.0f64);
            if checked {
                let mut occ: Vec<f64> = bin.iter().map(|s| s.occupancy_cycles).collect();
                let mut dur: Vec<f64> = bin.iter().map(|s| s.duration_cycles()).collect();
                occ.sort_by(f64::total_cmp);
                dur.sort_by(f64::total_cmp);
                for i in 1..GRID_POINTS - 1 {
                    let q = i as f64 / (GRID_POINTS - 1) as f64;
                    let rel = |fitted: f64, actual: f64| {
                        (fitted - actual).abs() / actual.abs().max(f64::MIN_POSITIVE)
                    };
                    occ_err =
                        occ_err.max(rel(grid.occupancy_cycles[i], sorted_quantile(&occ, q)));
                    dur_err = dur_err.max(rel(
                        grid.occupancy_cycles[i] * grid.stretch[i],
                        sorted_quantile(&dur, q),
                    ));
                }
            }
            BucketCalibration {
                bucket: b,
                train_count: grid.count,
                heldout_count,
                checked,
                max_occupancy_rel_err: occ_err,
                max_duration_rel_err: dur_err,
            }
        })
        .collect();

    FittedFit {
        model: model.name().to_string(),
        batch: timing.batch,
        lower_cycles,
        upper_cycles,
        energy_lower_j,
        energy_upper_j,
        measured_cycles: timing.total_cycles,
        contained: lower_cycles <= timing.total_cycles && timing.total_cycles <= upper_cycles,
        train_samples: train.len(),
        heldout_samples: heldout.len(),
        envelope_escapes,
        buckets,
        table: Arc::new(table),
        config,
        timing,
        training,
    }
}

/// Fits and gates the tables on Equinox_500µs.
pub fn run(scale: ExperimentScale) -> FittedCalibration {
    let eq = Equinox::build(Encoding::Hbfp8, LatencyConstraint::Micros(500))
        .expect("the 500 µs design exists");
    let cost = CostModel::from_config(eq.config())
        .with_energy(paper_energy_params(eq.config().encoding, eq.freq_hz()));
    let dims = eq.dims();
    let config = operating_config(&eq);
    // Sampling volume: a fixed cycle horizon per run (so the cheap MLP
    // contributes proportionally more batches than the LSTM), and seeds
    // alternating fitting / held-out.
    let (target_cycles, seeds_per_load): (u64, usize) = match scale {
        ExperimentScale::Quick => (36_000_000, 4),
        ExperimentScale::Full => (108_000_000, 8),
    };

    struct ModelCtx {
        model: ModelSpec,
        timing: InferenceTiming,
        training: TrainingProfile,
        envelope: (u64, u64, f64, f64),
        horizon: u64,
    }
    let contexts: Vec<ModelCtx> = fitted_models()
        .into_iter()
        .map(|model| {
            assert!(model.is_vector_matrix(), "fitted models serve at the hardware batch");
            let batch = dims.n;
            let program = compile_inference_cached(
                &model,
                &dims,
                batch,
                eq.config().encoding,
                &BufferBudget::paper_default(),
            );
            let timing = InferenceTiming::from_program(&program, &dims, batch);
            let bounds = compute_bounds(&program, &cost);
            let energy = bounds.energy.as_ref().expect("cost model carries energy parameters");
            let intervals = (target_cycles / timing.total_cycles).max(20);
            ModelCtx {
                training: eq.training_profile(&model),
                model,
                timing,
                envelope: (
                    bounds.cycles.lower,
                    bounds.cycles.upper,
                    energy.lower_j,
                    energy.upper_j,
                ),
                horizon: intervals * timing.total_cycles,
            }
        })
        .collect();

    // Every (model, load, seed) sampling run is an independent engine
    // run: fan the whole grid out and pool by (model, parity) in grid
    // order afterwards, so the fitted tables are byte-identical at any
    // thread count.
    let mut grid: Vec<(usize, f64, usize, u64)> = Vec::new();
    for (m, _) in contexts.iter().enumerate() {
        for &load in &FIT_LOADS {
            for s in 0..seeds_per_load {
                let cell = grid.len() as u64;
                grid.push((m, load, s, cell));
            }
        }
    }
    let runs = equinox_par::parallel_map(grid.clone(), |(m, load, _, cell)| {
        let ctx = &contexts[m];
        let sim = Simulation::new(config.clone(), ctx.timing, Some(ctx.training))
            .expect("the operating-point simulation is valid");
        let rate = rate_for_load(load, sim.max_request_rate_per_cycle())
            .expect("fitting loads are finite");
        let arrivals = poisson_arrivals(rate, ctx.horizon, split_seed(FIT_SEED, cell))
            .expect("fitting rates are finite");
        let (_, samples) =
            sim.run_sampled(&arrivals, ctx.horizon).expect("sampling runs complete");
        samples
    });

    let fits = contexts
        .into_iter()
        .enumerate()
        .map(|(m, ctx)| {
            let mut train = Vec::new();
            let mut heldout = Vec::new();
            for ((gm, _, s, _), samples) in grid.iter().zip(runs.iter()) {
                if *gm != m {
                    continue;
                }
                let pool = if s % 2 == 0 { &mut train } else { &mut heldout };
                pool.extend(samples.iter().copied());
            }
            gate_fit(
                &ctx.model,
                config.clone(),
                ctx.timing,
                ctx.training,
                ctx.envelope,
                train,
                heldout,
            )
        })
        .collect();

    FittedCalibration {
        config: eq.config().name.clone(),
        freq_hz: eq.freq_hz(),
        seeds_per_load,
        fits,
    }
}

impl FittedCalibration {
    /// The fitting run at `scale`, computed once per process and shared
    /// by the scaled fleet/serve sweeps, the regen driver, and the
    /// tests (refitting is 10s of engine runs — pointless to repeat per
    /// call site, and the result is deterministic anyway).
    pub fn shared(scale: ExperimentScale) -> &'static FittedCalibration {
        static QUICK: OnceLock<FittedCalibration> = OnceLock::new();
        static FULL: OnceLock<FittedCalibration> = OnceLock::new();
        match scale {
            ExperimentScale::Quick => QUICK.get_or_init(|| run(ExperimentScale::Quick)),
            ExperimentScale::Full => FULL.get_or_init(|| run(ExperimentScale::Full)),
        }
    }

    /// The fit for `model`, if present.
    pub fn fit(&self, model: &str) -> Option<&FittedFit> {
        self.fits.iter().find(|f| f.model == model)
    }

    /// The gate the `fitted` regen job holds the tree to: every fit
    /// contained, escape-free, and held-out-calibrated.
    pub fn all_calibrated(&self) -> bool {
        !self.fits.is_empty() && self.fits.iter().all(FittedFit::passes)
    }

    /// Named failure messages for the regen job.
    pub fn failures(&self) -> Vec<String> {
        let mut out = Vec::new();
        for f in &self.fits {
            if !f.contained {
                out.push(format!(
                    "{}: measured {} cycles outside the static [{}, {}] envelope",
                    f.model, f.measured_cycles, f.lower_cycles, f.upper_cycles
                ));
            }
            if f.envelope_escapes > 0 {
                out.push(format!(
                    "{}: {} sample(s) escaped the static envelope",
                    f.model, f.envelope_escapes
                ));
            }
            if !f.buckets.iter().any(|b| b.checked) {
                out.push(format!(
                    "{}: no contention bucket reached {MIN_HELDOUT_SAMPLES} held-out samples",
                    f.model
                ));
            }
            for b in &f.buckets {
                if !b.passes() {
                    out.push(format!(
                        "{}/bucket{}: held-out rel err occupancy {:.3} / duration {:.3} \
                         exceeds {ERROR_CEILING}",
                        f.model, b.bucket, b.max_occupancy_rel_err, b.max_duration_rel_err
                    ));
                }
            }
        }
        out
    }

    /// The tables + calibration as a JSON document.
    pub fn to_json(&self) -> Json {
        let tables = self.fits.iter().map(|f| {
            let grids = f.table.buckets().iter().map(|g| {
                Json::object([
                    ("count", g.count.into()),
                    ("occupancy_cycles", g.occupancy_cycles.as_slice().into()),
                    ("stretch", g.stretch.as_slice().into()),
                    ("energy_j", g.energy_j.as_slice().into()),
                ])
            });
            let calibration = f.buckets.iter().map(|b| {
                Json::object([
                    ("bucket", b.bucket.into()),
                    ("train_count", b.train_count.into()),
                    ("heldout_count", b.heldout_count.into()),
                    ("checked", b.checked.into()),
                    ("max_occupancy_rel_err", b.max_occupancy_rel_err.into()),
                    ("max_duration_rel_err", b.max_duration_rel_err.into()),
                    ("passes", b.passes().into()),
                ])
            });
            Json::object([
                ("model", f.model.as_str().into()),
                ("batch", f.batch.into()),
                ("lower_cycles", f.lower_cycles.into()),
                ("upper_cycles", f.upper_cycles.into()),
                ("energy_lower_j", f.energy_lower_j.into()),
                ("energy_upper_j", f.energy_upper_j.into()),
                ("measured_cycles", f.measured_cycles.into()),
                ("contained", f.contained.into()),
                ("train_samples", f.train_samples.into()),
                ("heldout_samples", f.heldout_samples.into()),
                ("envelope_escapes", f.envelope_escapes.into()),
                ("passes", f.passes().into()),
                ("bucket_edges", f.table.bucket_edges().into()),
                ("buckets", Json::array(grids)),
                ("calibration", Json::array(calibration)),
            ])
        });
        Json::object([
            ("config", self.config.as_str().into()),
            ("freq_hz", self.freq_hz.into()),
            ("grid_points", GRID_POINTS.into()),
            ("max_stretch", MAX_STRETCH.into()),
            ("error_ceiling", ERROR_CEILING.into()),
            ("min_heldout_samples", MIN_HELDOUT_SAMPLES.into()),
            ("escape_tolerance_cycles", ESCAPE_TOLERANCE_CYCLES.into()),
            ("seeds_per_load", self.seeds_per_load.into()),
            ("loads", FIT_LOADS.as_slice().into()),
            ("all_calibrated", self.all_calibrated().into()),
            ("tables", Json::array(tables)),
        ])
    }
}

impl std::fmt::Display for FittedCalibration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Fitted surrogate calibration — {} @ {:.0} MHz, fig10 operating point, \
             loads {:?}, {} seeds/load (half held out):",
            self.config,
            self.freq_hz / 1e6,
            FIT_LOADS,
            self.seeds_per_load,
        )?;
        for fit in &self.fits {
            writeln!(
                f,
                "  {:<6} batch {:>4}  cycles [{}, {}]  {} train / {} held-out batches  \
                 {} escape(s)  {}",
                fit.model,
                fit.batch,
                fit.lower_cycles,
                fit.upper_cycles,
                fit.train_samples,
                fit.heldout_samples,
                fit.envelope_escapes,
                if fit.passes() { "calibrated" } else { "FAILED" },
            )?;
            for b in &fit.buckets {
                if !b.checked {
                    continue;
                }
                writeln!(
                    f,
                    "    bucket {}: {:>6} held-out, rel err occupancy {:.4} / duration {:.4} \
                     (ceiling {ERROR_CEILING})",
                    b.bucket, b.heldout_count, b.max_occupancy_rel_err, b.max_duration_rel_err,
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use equinox_fleet::Fleet;

    fn cal() -> &'static FittedCalibration {
        FittedCalibration::shared(ExperimentScale::Quick)
    }

    #[test]
    fn fitting_gate_passes_at_quick_scale() {
        let c = cal();
        assert!(c.all_calibrated(), "failures: {:?}\n{c}", c.failures());
        assert!(c.failures().is_empty());
        for model in ["LSTM", "MLP"] {
            let fit = c.fit(model).unwrap_or_else(|| panic!("{model} is fitted"));
            assert!(fit.train_samples > 100, "{model}: {} train batches", fit.train_samples);
            assert!(fit.heldout_samples > 100);
            assert_eq!(fit.envelope_escapes, 0);
            assert!(fit.contained);
        }
        // The cheap MLP contributes more batches per cycle budget.
        assert!(c.fit("MLP").unwrap().train_samples > c.fit("LSTM").unwrap().train_samples);
    }

    #[test]
    fn heldout_calibration_covers_contended_buckets() {
        // The overload load walks the queue deep enough that calibration
        // is held on genuinely contended buckets, not just the calm one.
        for fit in &cal().fits {
            let checked: Vec<usize> =
                fit.buckets.iter().filter(|b| b.checked).map(|b| b.bucket).collect();
            assert!(checked.len() >= 2, "{}: checked buckets {checked:?}", fit.model);
            assert!(
                checked.iter().any(|&b| b > 0),
                "{}: only the calm bucket was checked",
                fit.model
            );
            for b in fit.buckets.iter().filter(|b| b.checked) {
                assert!(b.passes(), "{}/bucket{}: {b:?}", fit.model, b.bucket);
            }
        }
    }

    #[test]
    fn fitted_devices_compose_into_a_valid_fleet() {
        let fit = cal().fit("LSTM").expect("LSTM is fitted");
        let devices: Vec<_> =
            (0..4).map(|i| fit.device(&format!("fit[{i}]"), i >= 2)).collect();
        let fleet = Fleet::new(devices).expect("fitted devices validate");
        drop(fleet);
    }

    #[test]
    fn artifact_records_tables_and_calibration() {
        let json = cal().to_json().render().unwrap();
        assert!(json.contains("\"all_calibrated\":true"), "{json}");
        assert!(json.contains("\"model\":\"LSTM\""));
        assert!(json.contains("\"model\":\"MLP\""));
        assert!(json.contains("\"bucket_edges\":["));
        assert!(json.contains("\"occupancy_cycles\":["));
        assert!(json.contains("\"max_duration_rel_err\":"));
        assert!(json.contains("\"envelope_escapes\":0"));
    }
}
