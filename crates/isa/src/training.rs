//! Lowering of training iterations (§3.2) and their DRAM traffic.
//!
//! Training piggybacks as a best-effort context: a synchronous-SGD
//! iteration is one forward pass, one backward pass (activation
//! gradients `dX` and weight gradients `dW`), an optimizer update, and a
//! parameter-server exchange. Because the training footprint is a few
//! GBs, operands stream from DRAM and on-chip buffers only stage them
//! right before computation — training is fundamentally bound by
//! off-chip bandwidth (§2.2).

use crate::alloc::{Bump, DoubleBuffer};
use crate::instruction::{BufferKind, Instruction, Region, SimdOpKind};
use crate::layers::GemmMode;
use crate::lower::{
    emit_tiles, partition_waves, split_oversized_regions, tile_list, RepeatGeometry,
};
use crate::models::ModelSpec;
use crate::program::Program;
use crate::validate::BufferBudget;
use crate::ArrayDims;
use equinox_arith::Encoding;

/// Parameters of the training service.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainingSetup {
    /// Mini-batch size (the paper models 128).
    pub batch: usize,
    /// Datapath encoding for streamed operands.
    pub encoding: Encoding,
    /// Multiplier on raw component traffic accounting for DRAM row
    /// activation on strided tile accesses, transfer granularity,
    /// refresh, and staging double-buffer duplication. Calibrated so the
    /// LSTM training intensity matches the paper's HBM-saturated maximum
    /// (≈105 TOp/s at 1 TB/s).
    pub dram_inefficiency_factor: f64,
}

impl TrainingSetup {
    /// The paper's configuration: batch 128, hbfp8 operands.
    pub fn paper_default() -> Self {
        TrainingSetup {
            batch: 128,
            encoding: Encoding::Hbfp8,
            dram_inefficiency_factor: 3.5,
        }
    }
}

impl Default for TrainingSetup {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Occupancy cycles of one GEMM tiled onto `dims` (`rows × k → out`).
fn gemm_occupancy(dims: &ArrayDims, rows: usize, k: usize, out: usize, mode: GemmMode) -> u64 {
    let tile_k = dims.tile_k();
    let tile_out = match mode {
        GemmMode::VectorMatrix => dims.tile_out(),
        GemmMode::WeightBroadcast => dims.n,
    };
    let row_cycles = match mode {
        GemmMode::VectorMatrix => rows as u64,
        GemmMode::WeightBroadcast => rows.div_ceil(dims.m.max(1)) as u64,
    };
    (k.div_ceil(tile_k) as u64) * (out.div_ceil(tile_out) as u64) * row_cycles
}

/// Aggregate cost of one training iteration on a given geometry — the
/// quantities the simulator's training context streams from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainingProfile {
    /// Useful MACs per iteration (forward + dX + dW).
    pub iteration_macs: u64,
    /// MMU occupancy cycles per iteration.
    pub iteration_mmu_cycles: u64,
    /// DRAM bytes moved per iteration (weights both passes, gradients,
    /// optimizer state, staged activations, parameter-server exchange),
    /// including the calibrated inefficiency factor.
    pub iteration_dram_bytes: u64,
    /// SIMD cycles per iteration (derivatives, loss, weight update).
    pub iteration_simd_cycles: u64,
    /// Mini-batch size.
    pub batch: usize,
}

impl TrainingProfile {
    /// Profiles one synchronous-SGD iteration of `model` on `dims`.
    ///
    /// Backward-pass lowering: `dX = dY·Wᵀ` keeps the batch on the rows
    /// (vector-matrix mode); `dW = Xᵀ·dY` has tall `k`-row activations
    /// and a shallow `batch`-deep reduction, so it maps in
    /// weight-broadcast mode (the paper's mode 2).
    ///
    /// # Panics
    ///
    /// Panics if `setup.batch` is zero.
    pub fn profile(model: &ModelSpec, dims: &ArrayDims, setup: &TrainingSetup) -> Self {
        assert!(setup.batch > 0, "training batch must be positive");
        let b = setup.batch;
        let simd_lanes = (dims.m * dims.n).max(1) as u64;
        let mut macs = 0u64;
        let mut mmu_cycles = 0u64;
        let mut simd_cycles = 0u64;
        for step in model.steps() {
            let reps = step.repeats as u64;
            let rows = b * step.rows_per_sample;
            // Forward: rows × k → out.
            mmu_cycles += reps * gemm_occupancy(dims, rows, step.k, step.out, step.mode);
            // dX: rows × out → k.
            mmu_cycles += reps * gemm_occupancy(dims, rows, step.out, step.k, step.mode);
            // dW: k rows × batch-deep reduction → out (tall: mode 2).
            mmu_cycles += reps
                * gemm_occupancy(
                    dims,
                    step.k * step.rows_per_sample.min(b),
                    b,
                    step.out,
                    GemmMode::WeightBroadcast,
                );
            macs += 3 * reps * rows as u64 * step.k as u64 * step.out as u64;
            // SIMD: forward activations, their derivatives, and the loss
            // tail; plus the optimizer update over the step's weights.
            let act = reps * b as u64 * step.simd_elems_per_sample as u64;
            simd_cycles += (2 * act).div_ceil(simd_lanes);
            simd_cycles += step.weight_params().div_ceil(simd_lanes);
        }
        let dram = Self::iteration_traffic_bytes(model, setup);
        TrainingProfile {
            iteration_macs: macs,
            iteration_mmu_cycles: mmu_cycles,
            iteration_dram_bytes: dram,
            iteration_simd_cycles: simd_cycles,
            batch: b,
        }
    }

    /// Raw + calibrated DRAM traffic of one iteration, bytes.
    ///
    /// Components per iteration:
    /// * weights: streamed for forward and backward (encoding width),
    ///   fp32 gradients written, momentum + fp32 master copy
    ///   read/written, re-quantized weights written;
    /// * activations: written in fp32 during forward, re-read during
    ///   backward, activation gradients written and re-read;
    /// * parameter server: fp32 gradients out, new quantized model in.
    pub fn iteration_traffic_bytes(model: &ModelSpec, setup: &TrainingSetup) -> u64 {
        let enc = setup.encoding.bytes_per_value() as u64;
        let params = model.weight_params();
        let act = model.activation_elems_per_sample() * setup.batch as u64;
        let weight_bytes = params * (2 * enc + 4 + 8 + 8 + enc);
        let act_bytes = act * 16; // fp32: write, read, grad write, grad read
        let sync_bytes = params * (4 + enc);
        let raw = weight_bytes + act_bytes + sync_bytes;
        (raw as f64 * setup.dram_inefficiency_factor) as u64
    }

    /// Arithmetic intensity, Ops per DRAM byte.
    pub fn intensity_ops_per_byte(&self) -> f64 {
        2.0 * self.iteration_macs as f64 / self.iteration_dram_bytes as f64
    }

    /// Training throughput if DRAM bandwidth is the only limit, Ops/s.
    pub fn dram_limited_ops(&self, bandwidth_bytes_per_s: f64) -> f64 {
        self.intensity_ops_per_byte() * bandwidth_bytes_per_s
    }

    /// Training throughput if the MMU is the only limit, Ops/s.
    pub fn mmu_limited_ops(&self, freq_hz: f64) -> f64 {
        2.0 * self.iteration_macs as f64 * freq_hz / self.iteration_mmu_cycles as f64
    }

    /// The maximum achievable training throughput — what a dedicated
    /// training accelerator saturating both the compute and the DRAM
    /// bandwidth would reach, Ops/s.
    pub fn max_achievable_ops(&self, freq_hz: f64, bandwidth_bytes_per_s: f64) -> f64 {
        self.dram_limited_ops(bandwidth_bytes_per_s)
            .min(self.mmu_limited_ops(freq_hz))
    }
}

/// One GEMM of a training pass, streamed from DRAM.
#[derive(Debug, Clone, Copy)]
struct StreamedGemm {
    rows: usize,
    k: usize,
    out: usize,
    mode: GemmMode,
    /// SIMD pass applied to each output block after its compute epoch
    /// (activation for forward, derivative for `dX`, the optimizer
    /// update for `dW`).
    post: Option<SimdOpKind>,
}

/// Emits one streamed GEMM: the activation buffer is split into a fixed
/// input half and output half; rows are processed in blocks sized so
/// both windows fit their halves. Each block stages its input window
/// and weight tiles (waves alternating between the weight-buffer
/// halves when one load exceeds a half), computes, applies the `post`
/// SIMD pass, and drains the output block to DRAM. Returns the last
/// output window.
fn lower_streamed_gemm(
    program: &mut Program,
    dims: &ArrayDims,
    budget: &BufferBudget,
    bpv: u64,
    gemm: StreamedGemm,
) -> Region {
    let act_half = (budget.activation_bytes / 2).max(1);
    let out_base = budget.activation_bytes / 2;
    let widest = (gemm.k.max(gemm.out) as u64 * bpv).max(1);
    let rows_per_block = ((act_half / widest) as usize).clamp(1, gemm.rows);
    let tiles = tile_list(dims, gemm.k, gemm.out, gemm.mode);
    let mut weight_db = DoubleBuffer::new(0, budget.weight_bytes);
    let mut last_window = Region::unaddressed();
    let mut start = 0usize;
    while start < gemm.rows {
        let rows_blk = rows_per_block.min(gemm.rows - start);
        let input = Region::new(0, rows_blk as u64 * gemm.k as u64 * bpv);
        let out_window = Region::new(out_base, rows_blk as u64 * gemm.out as u64 * bpv);
        let waves = partition_waves(&tiles, weight_db.half_bytes(), bpv);
        let last_wave = waves.len().saturating_sub(1);
        for (wi, wave) in waves.iter().enumerate() {
            // Stage epoch: the block's input window rides the first wave.
            if wi == 0 {
                program.push(Instruction::LoadDram {
                    target: BufferKind::Activation,
                    region: input,
                });
            }
            let mut bump = Bump::new(weight_db.active_base());
            let regions: Vec<Region> =
                wave.iter().map(|t| bump.alloc(t.weight_bytes(bpv))).collect();
            for &r in &regions {
                program.push(Instruction::LoadDram { target: BufferKind::Weight, region: r });
            }
            program.push(Instruction::Sync);
            // Compute epoch.
            emit_tiles(
                program,
                wave,
                &regions,
                RepeatGeometry { rows: rows_blk, mode: gemm.mode, input, out_base, bpv },
            );
            if wi == last_wave {
                if let Some(kind) = gemm.post {
                    program.push(Instruction::Simd {
                        kind,
                        elems: rows_blk * gemm.out,
                        region: out_window,
                    });
                }
            }
            program.push(Instruction::Sync);
            weight_db.flip();
        }
        // Drain epoch: stash the block for the rest of the iteration.
        program.push(Instruction::StoreDram {
            source: BufferKind::Activation,
            region: out_window,
        });
        program.push(Instruction::Sync);
        last_window = out_window;
        start += rows_blk;
    }
    last_window
}

/// The three GEMMs of one training step repeat, in backward order for
/// the reverse passes:
///
/// * forward `Y = X·W` — `rows × k → out` in the step's serving mode;
/// * `dX = dY·Wᵀ` — `rows × out → k`, same mode (the batch stays on the
///   rows);
/// * `dW = Xᵀ·dY` — `k × rows → out` with the `rows`-deep reduction: a
///   tall activation matrix, so it maps in weight-broadcast mode (the
///   paper's mode 2) with the `dY` tiles staged through the weight
///   buffer.
fn step_gemms(step: &crate::layers::GemmStep, batch: usize) -> [StreamedGemm; 3] {
    let rows = batch * step.rows_per_sample;
    [
        StreamedGemm {
            rows,
            k: step.k,
            out: step.out,
            mode: step.mode,
            post: if step.simd_elems_per_sample > 0 {
                Some(SimdOpKind::Activation)
            } else {
                None
            },
        },
        StreamedGemm {
            rows,
            k: step.out,
            out: step.k,
            mode: step.mode,
            post: Some(SimdOpKind::Derivative),
        },
        StreamedGemm {
            rows: step.k,
            k: rows,
            out: step.out,
            mode: GemmMode::WeightBroadcast,
            post: Some(SimdOpKind::WeightUpdate),
        },
    ]
}

/// Lowers one synchronous-SGD iteration of `model` into an executable
/// program: every forward repeat, a loss pass, then the backward
/// repeats in reverse order (`dX` + `dW` with the optimizer update),
/// closing with the parameter-server exchange over the host interface.
///
/// All operands stream from DRAM through staged buffer regions (§2.2:
/// the training footprint is a few GBs, so nothing stays installed);
/// the MAC total is exactly `3 ×` the forward pass — the invariant
/// [`TrainingProfile::iteration_macs`] counts with.
///
/// # Panics
///
/// Panics if `setup.batch` is zero.
pub fn lower_training(model: &ModelSpec, dims: &ArrayDims, setup: &TrainingSetup) -> Program {
    assert!(setup.batch > 0, "training batch must be positive");
    let budget = BufferBudget::paper_default();
    let bpv = setup.encoding.bytes_per_value() as u64;
    let b = setup.batch;
    let mut program = Program::new(format!("{}-training-b{}", model.name(), b));
    // Forward pass.
    let mut last_window = Region::unaddressed();
    for step in model.steps() {
        let [fwd, _, _] = step_gemms(step, b);
        for _ in 0..step.repeats {
            last_window = lower_streamed_gemm(&mut program, dims, &budget, bpv, fwd);
        }
    }
    // Loss over the final output window: the SIMD loss overload
    // rewrites it in place into the output gradient, which drains to
    // DRAM for the backward pass to stream back.
    if !last_window.is_empty() {
        program.push(Instruction::Simd {
            kind: SimdOpKind::Loss,
            elems: (last_window.bytes / bpv.max(1)) as usize,
            region: last_window,
        });
        program.push(Instruction::Sync);
        program.push(Instruction::StoreDram {
            source: BufferKind::Activation,
            region: last_window,
        });
        program.push(Instruction::Sync);
    }
    // Backward pass, reverse step order: activation gradients then
    // weight gradients + optimizer update per repeat.
    for step in model.steps().iter().rev() {
        let [_, dx, dw] = step_gemms(step, b);
        for _ in 0..step.repeats {
            lower_streamed_gemm(&mut program, dims, &budget, bpv, dx);
            lower_streamed_gemm(&mut program, dims, &budget, bpv, dw);
        }
    }
    // Parameter-server exchange: fp32 gradients out, quantized model in.
    program.push(Instruction::HostIo {
        bytes: model.weight_params() * (4 + setup.encoding.bytes_per_value() as u64),
    });
    split_oversized_regions(program)
}

/// A cheap upper bound on [`lower_training`]'s instruction count,
/// mirroring its block/wave arithmetic — used by sweep drivers to skip
/// lowerings too large to analyze on small geometries.
pub fn estimate_training_instructions(
    model: &ModelSpec,
    dims: &ArrayDims,
    setup: &TrainingSetup,
) -> u64 {
    let budget = BufferBudget::paper_default();
    let bpv = setup.encoding.bytes_per_value() as u64;
    let act_half = (budget.activation_bytes / 2).max(1);
    let weight_half = (budget.weight_bytes / 2).max(1);
    let tile_k = dims.tile_k().max(1) as u64;
    let gemm_cost = |g: StreamedGemm| -> u64 {
        let tile_out = crate::lower::tile_out_span(dims, g.mode).max(1) as u64;
        let k_chunks = (g.k as u64).div_ceil(tile_k);
        let out_groups = (g.out as u64).div_ceil(tile_out);
        let tiles = k_chunks * out_groups;
        let widest = (g.k.max(g.out) as u64 * bpv).max(1);
        let rows_per_block = (act_half / widest).clamp(1, g.rows as u64);
        let blocks = (g.rows as u64).div_ceil(rows_per_block);
        let tile_bytes = tile_k * tile_out * bpv;
        let waves = (tiles * tile_bytes).div_ceil(weight_half).max(1);
        // loads + matmuls + accum/post SIMD + per-wave and drain syncs,
        // plus slack for region-split syncs (≤ words/1536).
        blocks * (2 * tiles + out_groups + 2 * waves + 6 + tiles / 256)
    };
    let mut total = 6u64; // loss epoch + host I/O
    for step in model.steps() {
        let [fwd, dx, dw] = step_gemms(step, setup.batch);
        total += step.repeats as u64 * (gemm_cost(fwd) + gemm_cost(dx) + gemm_cost(dw));
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dims_500us() -> ArrayDims {
        ArrayDims { n: 186, w: 3, m: 3 }
    }

    #[test]
    fn lstm_intensity_matches_calibration_target() {
        let p = TrainingProfile::profile(
            &ModelSpec::lstm_2048_25(),
            &dims_500us(),
            &TrainingSetup::paper_default(),
        );
        // HBM-saturated max ≈ 100–115 TOp/s at 1 TB/s (the paper's
        // Figure 9 plateau for Equinox_none).
        let dram_tops = p.dram_limited_ops(1e12) / 1e12;
        assert!(dram_tops > 90.0 && dram_tops < 125.0, "{dram_tops}");
    }

    #[test]
    fn lstm_training_is_dram_bound_on_500us_config() {
        let p = TrainingProfile::profile(
            &ModelSpec::lstm_2048_25(),
            &dims_500us(),
            &TrainingSetup::paper_default(),
        );
        // The MMU could go much faster than DRAM lets it (§2.2).
        assert!(p.mmu_limited_ops(610e6) > 1.5 * p.dram_limited_ops(1e12));
        assert_eq!(
            p.max_achievable_ops(610e6, 1e12),
            p.dram_limited_ops(1e12)
        );
    }

    #[test]
    fn iteration_macs_three_passes() {
        let model = ModelSpec::lstm_2048_25();
        let p = TrainingProfile::profile(
            &model,
            &dims_500us(),
            &TrainingSetup::paper_default(),
        );
        assert_eq!(p.iteration_macs, 3 * 128 * model.macs_per_sample());
    }

    #[test]
    fn traffic_scales_with_inefficiency_factor() {
        let model = ModelSpec::lstm_2048_25();
        let base = TrainingSetup { dram_inefficiency_factor: 1.0, ..Default::default() };
        let double = TrainingSetup { dram_inefficiency_factor: 2.0, ..Default::default() };
        let b1 = TrainingProfile::iteration_traffic_bytes(&model, &base);
        let b2 = TrainingProfile::iteration_traffic_bytes(&model, &double);
        assert!((b2 as f64 / b1 as f64 - 2.0).abs() < 0.01);
    }

    #[test]
    fn footprint_is_a_few_gb() {
        // §2.2: training footprints are in the range of a few GBs.
        let model = ModelSpec::lstm_2048_25();
        let bytes = TrainingProfile::iteration_traffic_bytes(
            &model,
            &TrainingSetup::paper_default(),
        );
        let gb = bytes as f64 / 1e9;
        assert!(gb > 1.0 && gb < 10.0, "{gb}");
    }

    #[test]
    fn gru_training_less_dram_bound_than_lstm() {
        // GRU's 1500 steps reuse the same weights, raising intensity.
        let setup = TrainingSetup::paper_default();
        let lstm = TrainingProfile::profile(&ModelSpec::lstm_2048_25(), &dims_500us(), &setup);
        let gru = TrainingProfile::profile(&ModelSpec::gru_2816_1500(), &dims_500us(), &setup);
        assert!(gru.intensity_ops_per_byte() > lstm.intensity_ops_per_byte());
    }

    #[test]
    #[should_panic(expected = "training batch must be positive")]
    fn zero_batch_panics() {
        let setup = TrainingSetup { batch: 0, ..Default::default() };
        TrainingProfile::profile(&ModelSpec::lstm_2048_25(), &dims_500us(), &setup);
    }

    #[test]
    fn lowered_training_conserves_macs() {
        // The executable lowering and the analytical profile must agree
        // exactly: 3x the forward MACs, for every paper model.
        let d = dims_500us();
        for (model, batch) in [
            (ModelSpec::lstm_2048_25(), 128),
            (ModelSpec::gru_2816_1500(), 32),
            (ModelSpec::resnet50(), 8),
            (ModelSpec::mlp_2048x5(), 128),
        ] {
            let setup = TrainingSetup { batch, ..Default::default() };
            let p = lower_training(&model, &d, &setup);
            let profile = TrainingProfile::profile(&model, &d, &setup);
            assert_eq!(
                p.total_macs(),
                profile.iteration_macs,
                "{} training MACs diverge",
                model.name()
            );
        }
    }

    #[test]
    fn training_program_uses_training_simd_and_host_io() {
        let p = lower_training(
            &ModelSpec::mlp_2048x5(),
            &dims_500us(),
            &TrainingSetup::paper_default(),
        );
        let has_kind = |k: SimdOpKind| {
            p.instructions()
                .iter()
                .any(|i| matches!(i, Instruction::Simd { kind, .. } if *kind == k))
        };
        assert!(has_kind(SimdOpKind::Loss));
        assert!(has_kind(SimdOpKind::Derivative));
        assert!(has_kind(SimdOpKind::WeightUpdate));
        assert!(p
            .instructions()
            .iter()
            .any(|i| matches!(i, Instruction::HostIo { bytes } if *bytes > 0)));
    }

    #[test]
    fn training_operands_stay_in_buffer_budgets() {
        let budget = BufferBudget::paper_default();
        let p = lower_training(
            &ModelSpec::resnet50(),
            &dims_500us(),
            &TrainingSetup { batch: 8, ..Default::default() },
        );
        for i in p.instructions() {
            match i {
                Instruction::LoadDram { target: crate::instruction::BufferKind::Weight, region } => {
                    assert!(region.end() <= budget.weight_bytes, "weight stage {region} overflows");
                }
                Instruction::LoadDram { region, .. } | Instruction::StoreDram { region, .. } => {
                    assert!(
                        region.end() <= budget.activation_bytes,
                        "activation window {region} overflows"
                    );
                }
                _ => {}
            }
        }
    }

    #[test]
    fn estimate_bounds_lowered_size() {
        let d = dims_500us();
        for (model, batch) in [
            (ModelSpec::lstm_2048_25(), 128),
            (ModelSpec::resnet50(), 8),
            (ModelSpec::mlp_2048x5(), 128),
        ] {
            let setup = TrainingSetup { batch, ..Default::default() };
            let actual = lower_training(&model, &d, &setup).instructions().len() as u64;
            let estimate = estimate_training_instructions(&model, &d, &setup);
            assert!(
                estimate >= actual,
                "{}: estimate {estimate} under actual {actual}",
                model.name()
            );
        }
    }

    #[test]
    fn mmu_utilization_reasonable() {
        // Training keeps the arrays reasonably busy when it runs: the
        // per-iteration effective rate is within [20%, 100%] of peak.
        let d = dims_500us();
        let p = TrainingProfile::profile(
            &ModelSpec::lstm_2048_25(),
            &d,
            &TrainingSetup::paper_default(),
        );
        let peak = 2.0 * d.alu_count() as f64 * 610e6;
        let eff = p.mmu_limited_ops(610e6);
        assert!(eff > 0.2 * peak && eff <= peak, "eff {eff} peak {peak}");
    }
}
