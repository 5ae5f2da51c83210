//! Hybrid block floating point (HBFP) encoding.
//!
//! HBFP (Drumond et al., NeurIPS'18) stores tensors as blocks of
//! fixed-point mantissas sharing a single exponent. Equinox uses 8-bit
//! mantissas and a 12-bit shared exponent (`hbfp8`). All matrix
//! multiplications happen in the fixed-point domain (8-bit multipliers,
//! 25-bit accumulators, exponents added once per block pair); all other
//! operations happen in bfloat16 on the SIMD unit.
//!
//! Blocks run along the *reduction* (k) dimension of a GEMM so a block
//! pair can be consumed by a systolic-array pass with a single exponent
//! add: activations are blocked within rows, weights within columns.

use crate::fixed::{Accumulator25, Q8};

/// Static description of an HBFP format.
///
/// # Example
///
/// ```
/// use equinox_arith::HbfpSpec;
/// let spec = HbfpSpec::hbfp8();
/// assert_eq!(spec.mantissa_bits, 8);
/// assert_eq!(spec.exponent_bits, 12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HbfpSpec {
    /// Bits per mantissa, including sign (8 for hbfp8).
    pub mantissa_bits: u32,
    /// Bits of the shared block exponent (12 for hbfp8).
    pub exponent_bits: u32,
    /// Number of values sharing one exponent.
    pub block_size: usize,
}

impl HbfpSpec {
    /// The paper's hbfp8 format: 8-bit mantissas, 12-bit shared exponent,
    /// 16-value blocks (a common HBFP operating point; the convergence
    /// results in the HBFP paper hold for blocks up to 576 values).
    pub fn hbfp8() -> Self {
        HbfpSpec { mantissa_bits: 8, exponent_bits: 12, block_size: 16 }
    }

    /// hbfp8 with a caller-chosen block size.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero.
    pub fn hbfp8_with_block(block_size: usize) -> Self {
        assert!(block_size > 0, "block size must be positive");
        HbfpSpec { block_size, ..Self::hbfp8() }
    }

    /// Exponent range of the shared exponent: `[-2^(b-1), 2^(b-1) - 1]`.
    pub fn exponent_range(&self) -> (i32, i32) {
        let half = 1i32 << (self.exponent_bits - 1);
        (-half, half - 1)
    }

    /// Largest mantissa magnitude: `2^(mantissa_bits-1) - 1` (127 for hbfp8).
    pub fn mantissa_max(&self) -> i32 {
        (1i32 << (self.mantissa_bits - 1)) - 1
    }

    /// Storage bits for one block: mantissas plus the shared exponent.
    pub fn block_storage_bits(&self) -> usize {
        self.block_size * self.mantissa_bits as usize + self.exponent_bits as usize
    }
}

impl Default for HbfpSpec {
    fn default() -> Self {
        Self::hbfp8()
    }
}

/// Counters for the numeric events the hbfp8 datapath can silently
/// absorb: accumulator saturations in block dots, nonzero values a
/// shared exponent flushes to a zero mantissa, and block exponents
/// clamped at the top of the 12-bit field (which saturates every
/// mantissa in the block). The executed-arithmetic calibration gate and
/// future simulator probes read these instead of inferring events from
/// final values.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NumericEvents {
    /// Accumulations clamped at a 25-bit rail during block dots.
    pub accumulator_saturations: u64,
    /// Nonzero finite inputs quantized to a zero mantissa (the
    /// small-value-next-to-large-value HBFP failure mode).
    pub underflows_to_zero: u64,
    /// Blocks whose ideal exponent exceeded the exponent-field maximum
    /// and was clamped down, saturating the block's mantissas.
    pub exponent_clamps: u64,
}

impl NumericEvents {
    /// Accumulates another counter set into this one.
    pub fn absorb(&mut self, other: NumericEvents) {
        self.accumulator_saturations += other.accumulator_saturations;
        self.underflows_to_zero += other.underflows_to_zero;
        self.exponent_clamps += other.exponent_clamps;
    }

    /// True when no event of any kind was observed.
    pub fn is_clean(&self) -> bool {
        *self == NumericEvents::default()
    }
}

/// `2^e` as an `f32`, bit for bit what `(e as f32).exp2()` returns.
///
/// On the normal range the value is built from its exponent field; the
/// subnormal and overflow ends fall back to `exp2`. The block dot scales
/// every block pair by one of these, and the libm call costs more than
/// the 16 MACs it scales.
pub(crate) fn pow2(e: i32) -> f32 {
    if (-126..=127).contains(&e) {
        f32::from_bits(((e + 127) as u32) << 23)
    } else {
        (e as f32).exp2()
    }
}

/// Quantizes one block of `values` into `mantissas` (same length) and
/// returns the shared exponent: the smallest power of two that fits the
/// largest magnitude into the mantissa range, with round-to-nearest and
/// saturation at the mantissa bounds. An all-zero (or empty) block maps
/// to the minimum exponent. Counts flushed values and clamped exponents
/// into `events`. [`HbfpBlock`] and [`HbfpMatrix`] both quantize here.
fn quantize_into(
    values: &[f32],
    spec: &HbfpSpec,
    mantissas: &mut [Q8],
    events: &mut NumericEvents,
) -> i32 {
    debug_assert_eq!(values.len(), mantissas.len());
    let (exp_min, exp_max) = spec.exponent_range();
    let max_abs = values.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
    let exponent = if max_abs == 0.0 || !max_abs.is_finite() {
        exp_min
    } else {
        // Smallest e with max_abs / 2^e <= mantissa_max.
        let needed = (max_abs / spec.mantissa_max() as f32).log2().ceil() as i32;
        if needed > exp_max {
            events.exponent_clamps += 1;
        }
        needed.clamp(exp_min, exp_max)
    };
    let scale = pow2(exponent);
    for (m, &v) in mantissas.iter_mut().zip(values) {
        *m = Q8::saturating_from_scaled(v / scale);
        if v != 0.0 && v.is_finite() && *m == Q8(0) {
            events.underflows_to_zero += 1;
        }
    }
    exponent
}

/// One HBFP block: `block_size` 8-bit mantissas sharing one exponent.
///
/// A value `i` denotes `mantissa[i] · 2^exponent`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct HbfpBlock {
    mantissas: Vec<Q8>,
    exponent: i32,
}

impl HbfpBlock {
    /// Quantizes a slice of `f32` into a single block.
    ///
    /// The exponent is the smallest power of two such that the largest
    /// magnitude fits the mantissa range; values quantize with
    /// round-to-nearest and saturate at the mantissa bounds. An all-zero
    /// (or empty) slice maps to the minimum exponent.
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` exceeds `spec.block_size`.
    pub fn quantize(values: &[f32], spec: &HbfpSpec) -> Self {
        let mut events = NumericEvents::default();
        Self::quantize_with_events(values, spec, &mut events)
    }

    /// [`HbfpBlock::quantize`] that also counts the numeric events the
    /// conversion absorbed: nonzero values flushed to a zero mantissa
    /// and exponents clamped at the top of the field.
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` exceeds `spec.block_size`.
    pub fn quantize_with_events(
        values: &[f32],
        spec: &HbfpSpec,
        events: &mut NumericEvents,
    ) -> Self {
        assert!(
            values.len() <= spec.block_size,
            "block of {} values exceeds spec block size {}",
            values.len(),
            spec.block_size
        );
        let mut mantissas = vec![Q8(0); values.len()];
        let exponent = quantize_into(values, spec, &mut mantissas, events);
        HbfpBlock { mantissas, exponent }
    }

    /// The shared exponent.
    pub fn exponent(&self) -> i32 {
        self.exponent
    }

    /// The mantissas.
    pub fn mantissas(&self) -> &[Q8] {
        &self.mantissas
    }

    /// Number of values in the block.
    pub fn len(&self) -> usize {
        self.mantissas.len()
    }

    /// True if the block holds no values.
    pub fn is_empty(&self) -> bool {
        self.mantissas.is_empty()
    }

    /// Dequantizes back to `f32`.
    pub fn dequantize(&self) -> Vec<f32> {
        let scale = (self.exponent as f32).exp2();
        self.mantissas.iter().map(|q| q.0 as f32 * scale).collect()
    }

    /// Fixed-point dot product with another block, exactly as the systolic
    /// array computes it: integer MACs into a 25-bit saturating
    /// accumulator, one exponent add, then a single scale at the end.
    ///
    /// # Panics
    ///
    /// Panics if the blocks have different lengths.
    pub fn dot(&self, other: &HbfpBlock) -> f32 {
        let mut events = NumericEvents::default();
        self.dot_with_events(other, &mut events)
    }

    /// [`HbfpBlock::dot`] that also counts accumulator saturations, for
    /// probes that need to observe overflow rather than infer it from a
    /// clamped result.
    ///
    /// # Panics
    ///
    /// Panics if the blocks have different lengths.
    pub fn dot_with_events(&self, other: &HbfpBlock, events: &mut NumericEvents) -> f32 {
        assert_eq!(self.len(), other.len(), "block length mismatch in dot");
        let mut acc = Accumulator25::new();
        for (&a, &b) in self.mantissas.iter().zip(&other.mantissas) {
            acc.mac(a, b);
        }
        events.accumulator_saturations += acc.saturation_events() as u64;
        let exp = self.exponent + other.exponent;
        acc.value() as f32 * (exp as f32).exp2()
    }
}

/// Which axis of a matrix the HBFP blocks run along.
///
/// GEMM reductions run along `k`; activations (left operand, m×k) block
/// along rows, weights (right operand, k×n) along columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockAxis {
    /// Blocks are contiguous runs within each row.
    Row,
    /// Blocks are contiguous runs within each column.
    Col,
}

/// A matrix stored in HBFP blocks.
///
/// Logically `rows × cols` of `f32`. Each *lane*, a row or a column per
/// [`BlockAxis`], is cut into blocks of `spec.block_size` values, the
/// last one possibly shorter; a block holds exactly what
/// [`HbfpBlock::quantize`] makes of that chunk. Storage is flat and
/// lane-major: every mantissa of lane 0, then of lane 1, and so on, and
/// beside them one exponent per block in the same order.
/// [`HbfpMatrix::lane`] returns one lane's share of each.
#[derive(Debug, Clone, PartialEq)]
pub struct HbfpMatrix {
    rows: usize,
    cols: usize,
    axis: BlockAxis,
    spec: HbfpSpec,
    mantissas: Vec<Q8>,
    exponents: Vec<i32>,
}

impl HbfpMatrix {
    /// Quantizes a dense matrix into HBFP blocks along `axis`.
    pub fn quantize(m: &crate::Matrix, axis: BlockAxis, spec: HbfpSpec) -> Self {
        let mut events = NumericEvents::default();
        Self::quantize_with_events(m, axis, spec, &mut events)
    }

    /// [`HbfpMatrix::quantize`] that also counts the numeric events the
    /// whole-matrix conversion absorbed (summed over every block).
    pub fn quantize_with_events(
        m: &crate::Matrix,
        axis: BlockAxis,
        spec: HbfpSpec,
        events: &mut NumericEvents,
    ) -> Self {
        let mut q = HbfpMatrix {
            rows: m.rows(),
            cols: m.cols(),
            axis,
            spec,
            mantissas: vec![Q8(0); m.len()],
            exponents: Vec::new(),
        };
        let (lanes, lane_len) = q.lane_shape();
        q.exponents.reserve_exact(lanes * lane_len.div_ceil(spec.block_size));
        let mut col_buf = Vec::new();
        for (lane, lane_mantissas) in q.mantissas.chunks_exact_mut(lane_len.max(1)).enumerate() {
            let values = match axis {
                BlockAxis::Row => m.row(lane),
                BlockAxis::Col => {
                    col_buf.clear();
                    col_buf.extend(m.as_slice().iter().skip(lane).step_by(m.cols()));
                    &col_buf[..]
                }
            };
            for (chunk, out) in values
                .chunks(spec.block_size)
                .zip(lane_mantissas.chunks_mut(spec.block_size))
            {
                q.exponents.push(quantize_into(chunk, &spec, out, events));
            }
        }
        q
    }

    /// Logical number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Logical number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Blocking axis.
    pub fn axis(&self) -> BlockAxis {
        self.axis
    }

    /// `(lanes, values per lane)`: rows and their length when blocked
    /// along rows, columns and their length when blocked along columns.
    fn lane_shape(&self) -> (usize, usize) {
        match self.axis {
            BlockAxis::Row => (self.rows, self.cols),
            BlockAxis::Col => (self.cols, self.rows),
        }
    }

    /// One lane (row or column, per the blocking axis): its mantissas in
    /// order, and the shared exponent of each of its blocks. Block `b`
    /// covers mantissas `b · block_size ..` up to the next block or the
    /// lane's end.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of bounds.
    pub fn lane(&self, lane: usize) -> (&[Q8], &[i32]) {
        let (lanes, len) = self.lane_shape();
        assert!(lane < lanes, "lane {lane} out of bounds for {lanes} lanes");
        let blocks = len.div_ceil(self.spec.block_size);
        (
            &self.mantissas[lane * len..(lane + 1) * len],
            &self.exponents[lane * blocks..(lane + 1) * blocks],
        )
    }

    /// Dequantizes back into a dense matrix.
    pub fn dequantize(&self) -> crate::Matrix {
        let bs = self.spec.block_size;
        let mut m = crate::Matrix::zeros(self.rows, self.cols);
        for lane in 0..self.lane_shape().0 {
            let (mantissas, exponents) = self.lane(lane);
            for (b, (block, &e)) in mantissas.chunks(bs).zip(exponents).enumerate() {
                let scale = pow2(e);
                for (j, q) in block.iter().enumerate() {
                    let v = q.0 as f32 * scale;
                    match self.axis {
                        BlockAxis::Row => m.set(lane, b * bs + j, v),
                        BlockAxis::Col => m.set(b * bs + j, lane, v),
                    }
                }
            }
        }
        m
    }

    /// Total storage in bits, including shared exponents.
    pub fn storage_bits(&self) -> usize {
        self.mantissas.len() * self.spec.mantissa_bits as usize
            + self.exponents.len() * self.spec.exponent_bits as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check;
    use crate::Matrix;

    #[test]
    fn spec_defaults() {
        let spec = HbfpSpec::default();
        assert_eq!(spec, HbfpSpec::hbfp8());
        assert_eq!(spec.mantissa_max(), 127);
        assert_eq!(spec.exponent_range(), (-2048, 2047));
        assert_eq!(spec.block_storage_bits(), 16 * 8 + 12);
    }

    #[test]
    #[should_panic(expected = "block size must be positive")]
    fn zero_block_size_panics() {
        HbfpSpec::hbfp8_with_block(0);
    }

    #[test]
    fn pow2_matches_exp2_over_the_exponent_sum_range() {
        // Two hbfp8 exponents sum to [-4096, 4094]; every value there,
        // subnormal and overflowing ends included, must match.
        for e in -4096..=4094 {
            assert_eq!(pow2(e).to_bits(), (e as f32).exp2().to_bits(), "2^{e}");
        }
    }

    #[test]
    fn quantize_zero_block() {
        let spec = HbfpSpec::hbfp8();
        let block = HbfpBlock::quantize(&[0.0; 8], &spec);
        assert!(block.dequantize().iter().all(|&v| v == 0.0));
        assert_eq!(block.exponent(), spec.exponent_range().0);
    }

    #[test]
    fn quantize_exact_powers() {
        let spec = HbfpSpec::hbfp8();
        // 127 values scaled by 2^e are exactly representable.
        let block = HbfpBlock::quantize(&[127.0, -127.0, 64.0, 1.0], &spec);
        assert_eq!(block.exponent(), 0);
        assert_eq!(block.dequantize(), vec![127.0, -127.0, 64.0, 1.0]);
    }

    #[test]
    fn quantize_relative_error_bounded() {
        let spec = HbfpSpec::hbfp8();
        let values = [1.0f32, 0.9, 0.5, -0.3, 0.01];
        let block = HbfpBlock::quantize(&values, &spec);
        let deq = block.dequantize();
        // Error per value is at most half a quantization step:
        // step = max_abs / 127 (rounded up to a power of two).
        let step = 2.0f32.powi(block.exponent());
        for (&v, &d) in values.iter().zip(&deq) {
            assert!((v - d).abs() <= step / 2.0 + 1e-9, "{v} -> {d}");
        }
    }

    #[test]
    fn small_values_in_block_with_large_lose_precision() {
        // The defining HBFP behaviour: a tiny value sharing a block with a
        // large one underflows to zero.
        let spec = HbfpSpec::hbfp8();
        let block = HbfpBlock::quantize(&[1000.0, 1e-6], &spec);
        let deq = block.dequantize();
        assert_eq!(deq[1], 0.0);
        assert!((deq[0] - 1000.0).abs() / 1000.0 < 0.01);
    }

    #[test]
    fn dot_matches_float_for_exact_values() {
        let spec = HbfpSpec::hbfp8();
        let a = HbfpBlock::quantize(&[2.0, 4.0, -8.0], &spec);
        let b = HbfpBlock::quantize(&[1.0, 0.5, 0.25], &spec);
        let expected = 2.0 * 1.0 + 4.0 * 0.5 - 8.0 * 0.25;
        assert!((a.dot(&b) - expected).abs() < 1e-3, "{}", a.dot(&b));
    }

    #[test]
    #[should_panic(expected = "block length mismatch")]
    fn dot_length_mismatch_panics() {
        let spec = HbfpSpec::hbfp8();
        let a = HbfpBlock::quantize(&[1.0], &spec);
        let b = HbfpBlock::quantize(&[1.0, 2.0], &spec);
        a.dot(&b);
    }

    #[test]
    fn matrix_round_trip_row_axis() {
        let m = Matrix::from_fn(5, 7, |r, c| ((r * 7 + c) as f32 - 17.0) * 0.125);
        let q = HbfpMatrix::quantize(&m, BlockAxis::Row, HbfpSpec::hbfp8_with_block(4));
        let d = q.dequantize();
        assert_eq!(d.rows(), 5);
        assert_eq!(d.cols(), 7);
        // Values here are all exactly representable (multiples of 0.125
        // with small magnitude), so the round trip is exact.
        assert_eq!(d, m);
    }

    #[test]
    fn matrix_round_trip_col_axis() {
        let m = Matrix::from_fn(6, 3, |r, c| (r as f32 - c as f32) * 0.5);
        let q = HbfpMatrix::quantize(&m, BlockAxis::Col, HbfpSpec::hbfp8_with_block(4));
        assert_eq!(q.dequantize(), m);
        assert_eq!(q.axis(), BlockAxis::Col);
    }

    #[test]
    fn storage_accounting() {
        let m = Matrix::zeros(2, 32);
        let q = HbfpMatrix::quantize(&m, BlockAxis::Row, HbfpSpec::hbfp8_with_block(16));
        // 2 rows × 2 blocks × (16×8 + 12) bits.
        assert_eq!(q.storage_bits(), 2 * 2 * (16 * 8 + 12));
    }

    #[test]
    fn non_finite_inputs_do_not_panic() {
        let spec = HbfpSpec::hbfp8();
        let block = HbfpBlock::quantize(&[f32::INFINITY, 1.0], &spec);
        // Infinity collapses to the minimum exponent path; result is finite.
        assert!(block.dequantize().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn quantize_error_half_step() {
        check::check(0x686201, |g| {
            let values = check::vec_f32(g, -1e4, 1e4, 1, 16);
            let spec = HbfpSpec::hbfp8();
            let block = HbfpBlock::quantize(&values, &spec);
            let step = 2.0f32.powi(block.exponent());
            for (&v, &d) in values.iter().zip(block.dequantize().iter()) {
                assert!((v - d).abs() <= step / 2.0 + step * 1e-3);
            }
        });
    }

    #[test]
    fn dot_close_to_f32_dot() {
        check::check(0x686202, |g| {
            let len = g.usize_in(1, 16);
            let xs: Vec<f32> = (0..len).map(|_| g.f32_in(-8.0, 8.0)).collect();
            let ys: Vec<f32> = (0..len).map(|_| g.f32_in(-8.0, 8.0)).collect();
            let spec = HbfpSpec::hbfp8();
            let a = HbfpBlock::quantize(&xs, &spec);
            let b = HbfpBlock::quantize(&ys, &spec);
            let exact: f32 = xs.iter().zip(&ys).map(|(x, y)| x * y).sum();
            let approx = a.dot(&b);
            // Error bound: n * (step_a * max_b + step_b * max_a) / 2 rounded generously.
            let max_x = xs.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
            let max_y = ys.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
            let bound = len as f32
                * (max_x / 64.0 * max_y.max(1.0) + max_y / 64.0 * max_x.max(1.0)).max(0.25);
            assert!(
                (exact - approx).abs() <= bound,
                "exact {exact} approx {approx} bound {bound}"
            );
        });
    }

    #[test]
    fn quantize_counts_underflows_to_zero() {
        let spec = HbfpSpec::hbfp8();
        let mut events = NumericEvents::default();
        // 1e-6 shares a block with 1000.0 and flushes to a zero mantissa;
        // the true zero must not be counted.
        HbfpBlock::quantize_with_events(&[1000.0, 1e-6, 0.0], &spec, &mut events);
        assert_eq!(events.underflows_to_zero, 1);
        assert_eq!(events.exponent_clamps, 0);
        assert_eq!(events.accumulator_saturations, 0);
        assert!(!events.is_clean());
    }

    #[test]
    fn quantize_counts_exponent_clamps() {
        // An f32 can't exceed the hbfp8 field top (exponents stop at
        // 2047 > 128), so exercise the clamp with a narrower field: a
        // value needing exponent 120 against a 6-bit field ([-32, 31]).
        let mut events = NumericEvents::default();
        let huge = 2.0f32.powi(120);
        let tiny_spec = HbfpSpec { exponent_bits: 6, ..HbfpSpec::hbfp8() };
        let block = HbfpBlock::quantize_with_events(&[huge], &tiny_spec, &mut events);
        assert_eq!(events.exponent_clamps, 1);
        assert_eq!(block.exponent(), tiny_spec.exponent_range().1);
        assert_eq!(block.mantissas()[0], Q8::MAX);
    }

    #[test]
    fn dot_counts_accumulator_saturations() {
        // Two 1041-long blocks of worst-case same-sign mantissas: the
        // safe depth for (127, 127) is 1040, so exactly one MAC clamps.
        let spec = HbfpSpec::hbfp8_with_block(1041);
        let values = vec![127.0f32; 1041];
        let a = HbfpBlock::quantize(&values, &spec);
        let b = HbfpBlock::quantize(&values, &spec);
        let mut events = NumericEvents::default();
        a.dot_with_events(&b, &mut events);
        assert_eq!(events.accumulator_saturations, 1);

        // One element shorter and the chain is clean.
        let spec_ok = HbfpSpec::hbfp8_with_block(1040);
        let a = HbfpBlock::quantize(&values[..1040], &spec_ok);
        let b = HbfpBlock::quantize(&values[..1040], &spec_ok);
        let mut clean = NumericEvents::default();
        a.dot_with_events(&b, &mut clean);
        assert!(clean.is_clean());
    }

    #[test]
    fn numeric_events_absorb_sums_fields() {
        let mut total = NumericEvents::default();
        total.absorb(NumericEvents {
            accumulator_saturations: 2,
            underflows_to_zero: 3,
            exponent_clamps: 1,
        });
        total.absorb(NumericEvents {
            accumulator_saturations: 1,
            underflows_to_zero: 0,
            exponent_clamps: 4,
        });
        assert_eq!(
            total,
            NumericEvents {
                accumulator_saturations: 3,
                underflows_to_zero: 3,
                exponent_clamps: 5,
            }
        );
    }

    #[test]
    fn matrix_quantize_dims_preserved() {
        check::check(0x686203, |g| {
            let rows = g.usize_in(1, 10);
            let cols = g.usize_in(1, 20);
            let m = Matrix::from_fn(rows, cols, |r, c| (r as f32 * 0.3) - (c as f32 * 0.7));
            let q = HbfpMatrix::quantize(&m, BlockAxis::Row, HbfpSpec::hbfp8_with_block(5));
            assert_eq!(q.rows(), rows);
            assert_eq!(q.cols(), cols);
            let d = q.dequantize();
            assert_eq!(d.rows(), rows);
            assert_eq!(d.cols(), cols);
        });
    }
}
