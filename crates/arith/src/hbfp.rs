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
use std::iter::repeat;

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
        normal_pow2(e)
    } else {
        (e as f32).exp2()
    }
}

/// `2^e` for `e` in `[-126, 127]`, built from its exponent field.
pub(crate) fn normal_pow2(e: i32) -> f32 {
    f32::from_bits(((e + 127) as u32) << 23)
}

/// `y.log2().ceil() as i32`, read from `y`'s bits where that is exact.
///
/// A normal `y = 2^E · (1 + f · 2^-23)` with `f = 0` is a power of two,
/// and its logarithm is exactly `E`. With `f ≥ 2^11`, `log2 y` lies in
/// `[E + log2(1 + 2^-12), E + 1)`: at least 3.5·10^-4 above `E`, far
/// more than one rounding of `log2f` moves any value of magnitude at
/// most 128, so the rounded logarithm lies in `(E, E + 1]` and its
/// ceiling is `E + 1`. Just above a power of two, `log2f` can round to
/// `E` itself, and the quantizer's exponent depends on that, so those
/// fractions, like zero, subnormal and infinite `y`, keep the libm
/// call. `tests::ceil_log2_matches_libm_on_every_positive_float` checks
/// every positive finite `f32`.
fn ceil_log2(y: f32) -> i32 {
    let bits = y.to_bits();
    let field = (bits >> 23) as i32;
    let fraction = bits & 0x7f_ffff;
    let normal = (1..0xff).contains(&field);
    if normal && fraction == 0 {
        field - 127
    } else if normal && fraction >= 1 << 11 {
        field - 126
    } else {
        y.log2().ceil() as i32
    }
}

/// The largest magnitude in `values`, or zero. `f32::max` ignores NaN
/// and is otherwise order-free, so four independent partial maxima give
/// the serial fold's result.
fn max_abs(values: &[f32]) -> f32 {
    let mut lanes = [0.0f32; 4];
    let mut quads = values.chunks_exact(4);
    for quad in quads.by_ref() {
        for (lane, &v) in lanes.iter_mut().zip(quad) {
            *lane = lane.max(v.abs());
        }
    }
    let tail = quads.remainder().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
    lanes.into_iter().fold(tail, f32::max)
}

/// `Q8::saturating_from_scaled(x)` for `x = v · inverse`, without libm.
///
/// Adding `1.5 · 2^23` rounds any `|x| < 2^22` to the nearest integer
/// `n`, ties to even, and leaves `n` in the sum's low mantissa bits.
/// The remainder `x - n` is exact, and `f32::round` differs from `n`
/// only on a tie away from zero, where it moves a positive `x` up and a
/// negative one down. A NaN maps to 0. Callers keep `|x| < 256`.
fn round_scaled(v: f32, inverse: f32) -> Q8 {
    const SHIFT: f32 = 12_582_912.0;
    let x = v * inverse;
    let shifted = x + SHIFT;
    let n = shifted.to_bits() as i32 - SHIFT.to_bits() as i32;
    let remainder = x - (shifted - SHIFT);
    let rounded =
        n + i32::from(remainder >= 0.5 && x > 0.0) - i32::from(remainder <= -0.5 && x < 0.0);
    let mantissa = rounded.clamp(i8::MIN.into(), i8::MAX.into()) as i8;
    Q8(if x.is_nan() { 0 } else { mantissa })
}

/// `Q8::saturating_from_scaled(v / scale)`: the quantizer as the
/// datapath defines it, for the blocks [`round_scaled`] cannot take.
fn divide(v: f32, scale: f32) -> Q8 {
    Q8::saturating_from_scaled(v / scale)
}

/// Writes `mantissa(v, f)` for each value `v` and its factor `f`, and
/// returns how many nonzero finite values became a zero mantissa. The
/// count rides in the same loop, and in `u32` lanes, since callers pass
/// one block or one row.
fn write_mantissas(
    values: &[f32],
    factors: impl Iterator<Item = f32>,
    mantissas: &mut [Q8],
    mantissa: impl Fn(f32, f32) -> Q8,
) -> u64 {
    let mut flushed = 0u32;
    for ((q, &v), f) in mantissas.iter_mut().zip(values).zip(factors) {
        *q = mantissa(v, f);
        flushed += u32::from(v != 0.0 && v.is_finite() && q.0 == 0);
    }
    flushed.into()
}

/// A block's shared exponent and, where it is exact, the reciprocal of
/// its scale.
#[derive(Debug, Clone, Copy)]
struct BlockScale {
    exponent: i32,
    /// `2^-exponent` when every value's mantissa may be
    /// [`round_scaled`]`(v, 2^-exponent)`; `None` when values must be
    /// [`divide`]d by `2^exponent`.
    inverse: Option<f32>,
}

impl BlockScale {
    /// The scale of a block whose largest magnitude is `max_abs`: the
    /// smallest power of two that fits `max_abs` into the mantissa
    /// range, clamped to the exponent field (a clamp is counted into
    /// `events`). An all-zero or non-finite block takes the minimum
    /// exponent.
    ///
    /// The multiply is exact when `2^e` is normal and `2^-e` is too:
    /// `v · 2^-e` is then the real `v / 2^e` rounded once, which is what
    /// the division computes, so either gives every value the same
    /// mantissa. `max_abs · 2^-e < 256` keeps every scaled value in
    /// [`round_scaled`]'s range. Clamped exponents, non-finite blocks
    /// and scales below `2^-126` divide.
    fn of(max_abs: f32, spec: &HbfpSpec, events: &mut NumericEvents) -> Self {
        let (exp_min, exp_max) = spec.exponent_range();
        if max_abs == 0.0 || !max_abs.is_finite() {
            return BlockScale { exponent: exp_min, inverse: None };
        }
        // Smallest e with max_abs / 2^e <= mantissa_max.
        let needed = ceil_log2(max_abs / spec.mantissa_max() as f32);
        if needed > exp_max {
            events.exponent_clamps += 1;
        }
        let exponent = needed.clamp(exp_min, exp_max);
        let inverse = (-126..=126)
            .contains(&exponent)
            .then(|| normal_pow2(-exponent))
            .filter(|&inverse| max_abs * inverse < 256.0);
        BlockScale { exponent, inverse }
    }
}

/// Quantizes one block of `values` into `mantissas` (same length) and
/// returns the shared exponent: the smallest power of two that fits the
/// largest magnitude into the mantissa range, with round-to-nearest and
/// saturation at the mantissa bounds. An all-zero (or empty) block maps
/// to the minimum exponent. Counts flushed values and clamped exponents
/// into `events`. [`HbfpBlock`] and row-blocked [`HbfpMatrix`]es
/// quantize here; column blocks share [`BlockScale`].
fn quantize_into(
    values: &[f32],
    spec: &HbfpSpec,
    mantissas: &mut [Q8],
    events: &mut NumericEvents,
) -> i32 {
    debug_assert_eq!(values.len(), mantissas.len());
    let scale = BlockScale::of(max_abs(values), spec, events);
    events.underflows_to_zero += match scale.inverse {
        Some(inverse) => write_mantissas(values, repeat(inverse), mantissas, round_scaled),
        None => write_mantissas(values, repeat(pow2(scale.exponent)), mantissas, divide),
    };
    scale.exponent
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
/// Logically `rows × cols` of `f32`. Each row ([`BlockAxis::Row`]) or
/// column ([`BlockAxis::Col`]) is cut into blocks of `spec.block_size`
/// values, the last one possibly shorter; a block holds exactly what
/// [`HbfpBlock::quantize`] makes of that chunk. Mantissas are stored
/// row-major on both axes, in the dense matrix's own order, so either
/// axis is quantized and dequantized a row at a time. Exponents are
/// stored one per block: for `Row`, row by row, each row's blocks in
/// order; for `Col`, block by block down the rows, one per column. A
/// column block is therefore `block_size` consecutive mantissa rows
/// and `cols` consecutive exponents, the operand panel a GEMM reads.
///
/// Quantizing gives the bits of the datapath's definition (exponent
/// `log2(max_abs / mantissa_max).ceil()`, values divided by the scale
/// and rounded by `f32::round`) but makes no libm call on the common
/// path. A block's exponent is
/// read from the bits of `max_abs / mantissa_max`: a power of two gives
/// its exponent field, and a fraction of at least 2^-12 the next one,
/// which is what `log2().ceil()` returns there on every positive `f32`.
/// Values are scaled by multiplying with `2^-e` instead of dividing by
/// `2^e`: both are the same real number rounded once, so the same
/// `f32`, and the product is rounded half away from zero by integer
/// arithmetic instead of `roundf`.
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
        let (bs, n) = (spec.block_size, m.cols().max(1));
        let values = m.as_slice();
        let mut mantissas = vec![Q8(0); m.len()];
        let mut exponents = Vec::new();
        match axis {
            BlockAxis::Row => {
                exponents.reserve_exact(m.rows() * m.cols().div_ceil(bs));
                for (row, out) in values.chunks_exact(n).zip(mantissas.chunks_exact_mut(n)) {
                    for (chunk, out) in row.chunks(bs).zip(out.chunks_mut(bs)) {
                        exponents.push(quantize_into(chunk, &spec, out, events));
                    }
                }
            }
            BlockAxis::Col => {
                exponents.reserve_exact(m.rows().div_ceil(bs) * m.cols());
                let mut max_abs = vec![0.0f32; m.cols()];
                let mut scales = Vec::with_capacity(m.cols());
                let mut factors = Vec::with_capacity(m.cols());
                for (block, out) in values.chunks(bs * n).zip(mantissas.chunks_mut(bs * n)) {
                    max_abs.fill(0.0);
                    for row in block.chunks_exact(n) {
                        for (max, &v) in max_abs.iter_mut().zip(row) {
                            *max = max.max(v.abs());
                        }
                    }
                    scales.clear();
                    scales.extend(max_abs.iter().map(|&max| BlockScale::of(max, &spec, events)));
                    exponents.extend(scales.iter().map(|s| s.exponent));
                    // One column that cannot multiply makes the whole
                    // block divide, which gives every column the same
                    // mantissas (see `BlockScale::of`).
                    factors.clear();
                    factors.extend(scales.iter().map_while(|s| s.inverse));
                    let multiply = factors.len() == scales.len();
                    if !multiply {
                        factors.clear();
                        factors.extend(scales.iter().map(|s| pow2(s.exponent)));
                    }
                    for (row, out) in block.chunks_exact(n).zip(out.chunks_exact_mut(n)) {
                        let factors = factors.iter().copied();
                        events.underflows_to_zero += if multiply {
                            write_mantissas(row, factors, out, round_scaled)
                        } else {
                            write_mantissas(row, factors, out, divide)
                        };
                    }
                }
            }
        }
        HbfpMatrix { rows: m.rows(), cols: m.cols(), axis, spec, mantissas, exponents }
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

    /// Every mantissa, row-major.
    pub(crate) fn mantissas(&self) -> &[Q8] {
        &self.mantissas
    }

    /// Every block exponent, in the order the type's docs give.
    pub(crate) fn exponents(&self) -> &[i32] {
        &self.exponents
    }

    /// Dequantizes back into a dense matrix.
    pub fn dequantize(&self) -> crate::Matrix {
        let (bs, n) = (self.spec.block_size, self.cols.max(1));
        let mut data = Vec::with_capacity(self.mantissas.len());
        match self.axis {
            BlockAxis::Row => {
                let blocks = self.mantissas.chunks_exact(n).flat_map(|row| row.chunks(bs));
                for (block, &e) in blocks.zip(&self.exponents) {
                    let scale = pow2(e);
                    data.extend(block.iter().map(|q| q.0 as f32 * scale));
                }
            }
            BlockAxis::Col => {
                let mut scales = Vec::with_capacity(self.cols);
                for (block, exponents) in self.mantissas.chunks(bs * n).zip(self.exponents.chunks(n)) {
                    scales.clear();
                    scales.extend(exponents.iter().map(|&e| pow2(e)));
                    for row in block.chunks_exact(n) {
                        data.extend(row.iter().zip(&scales).map(|(q, &scale)| q.0 as f32 * scale));
                    }
                }
            }
        }
        crate::Matrix::from_vec(self.rows, self.cols, data)
    }

    /// Total storage in bits, including shared exponents.
    pub fn storage_bits(&self) -> usize {
        self.mantissas.len() * self.spec.mantissa_bits as usize
            + self.exponents.len() * self.spec.exponent_bits as usize
    }
}

/// The quantizer as first written, before the bit-derived exponent and
/// the multiply-and-round path: the specification that [`quantize_into`]
/// and [`HbfpMatrix`] are held to bit for bit, as are `gemm_hbfp`'s
/// references in `gemm::tests`.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    /// One block, exactly as [`quantize_into`] must make it.
    pub(crate) fn quantize_into(
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

    /// [`HbfpBlock::quantize_with_events`] through the reference.
    pub(crate) fn block(values: &[f32], spec: &HbfpSpec, events: &mut NumericEvents) -> HbfpBlock {
        let mut mantissas = vec![Q8(0); values.len()];
        let exponent = quantize_into(values, spec, &mut mantissas, events);
        HbfpBlock { mantissas, exponent }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check;
    use crate::rng::SplitMix64;
    use crate::Matrix;

    /// A value from one of the quantizer's edge cases, around the
    /// binade `2^e`: signed zeros, NaN, infinities, subnormals, exactly
    /// `127·2^e` and one ulp above it, rounding ties at `2^e`'s scale,
    /// or a random magnitude up to 256× either side of it. `specials`
    /// in 256ths is how often a zero, NaN, infinity or subnormal comes
    /// up.
    fn edge_value(g: &mut SplitMix64, e: i32, specials: usize) -> f32 {
        let sign = if g.next_bool() { -1.0 } else { 1.0 };
        let top = 127.0 * 2.0f32.powi(e);
        if g.usize_in(0, 256) < specials {
            return match g.usize_in(0, 5) {
                0 => 0.0,
                1 => -0.0,
                2 => f32::NAN,
                3 => sign * f32::INFINITY,
                _ => sign * f32::from_bits(g.usize_in(1, 1 << 23) as u32),
            };
        }
        match g.usize_in(0, 8) {
            0 => sign * top,
            1 => sign * f32::from_bits(top.to_bits() + 1),
            2 => sign * (g.usize_in(0, 127) as f32 + 0.5) * 2.0f32.powi(e),
            _ => sign * g.f32_in(0.0, 1.0) * 2.0f32.powi(e + g.usize_in(0, 17) as i32 - 8),
        }
    }

    /// A spec from the sizes and fields the quantizer must handle: the
    /// block sizes 1, 16, 64 and 1500, and exponent fields of 12 bits
    /// (hbfp8), 6 and 4 bits (both clamp at either end).
    fn edge_spec(g: &mut SplitMix64) -> HbfpSpec {
        HbfpSpec {
            exponent_bits: [12, 12, 6, 4][g.usize_in(0, 4)],
            ..HbfpSpec::hbfp8_with_block([1, 16, 64, 1500][g.usize_in(0, 4)])
        }
    }

    /// A binade to draw around: anywhere from the subnormals to the
    /// top of the `f32` range.
    fn edge_binade(g: &mut SplitMix64) -> i32 {
        g.usize_in(0, 260) as i32 - 150
    }

    #[test]
    fn quantize_matches_reference() {
        check::for_each_case(2000, 0x686204, |g| {
            let spec = edge_spec(g);
            let (e, specials) = (edge_binade(g), [0, 0, 8, 64][g.usize_in(0, 4)]);
            let len = g.usize_in(0, spec.block_size + 1);
            let values: Vec<f32> = (0..len).map(|_| edge_value(g, e, specials)).collect();
            let mut want = NumericEvents::default();
            let expected = reference::block(&values, &spec, &mut want);
            let mut got = NumericEvents::default();
            let block = HbfpBlock::quantize_with_events(&values, &spec, &mut got);
            assert_eq!(block, expected, "{spec:?} {values:?}");
            assert_eq!(got, want, "{spec:?} {values:?}");
        });
    }

    #[test]
    fn matrix_quantize_matches_reference_on_both_axes() {
        check::for_each_case(400, 0x686205, |g| {
            let spec = HbfpSpec { block_size: [1, 3, 16, 64][g.usize_in(0, 4)], ..edge_spec(g) };
            let (rows, cols) = (g.usize_in(0, 40), g.usize_in(0, 40));
            let (e, specials) = (edge_binade(g), [0, 0, 4, 32][g.usize_in(0, 4)]);
            let m = Matrix::from_fn(rows, cols, |_, _| edge_value(g, e, specials));
            for axis in [BlockAxis::Row, BlockAxis::Col] {
                // The reference quantizes each lane (row or column) in
                // order; `lanes` holds one per row.
                let lanes = match axis {
                    BlockAxis::Row => m.clone(),
                    BlockAxis::Col => m.transpose(),
                };
                let mut want = NumericEvents::default();
                let mut mantissas = Matrix::zeros(lanes.rows(), lanes.cols());
                let mut values = Matrix::zeros(lanes.rows(), lanes.cols());
                let mut exponents = Vec::new();
                for lane in 0..lanes.rows() {
                    for (b, chunk) in lanes.row(lane).chunks(spec.block_size).enumerate() {
                        let block = reference::block(chunk, &spec, &mut want);
                        for (j, q) in block.mantissas().iter().enumerate() {
                            let c = b * spec.block_size + j;
                            mantissas.set(lane, c, f32::from(q.0));
                            values.set(lane, c, f32::from(q.0) * pow2(block.exponent()));
                        }
                        exponents.push(block.exponent());
                    }
                }
                if axis == BlockAxis::Col {
                    // Lane-major to block-row-major: block b of every column.
                    let blocks = rows.div_ceil(spec.block_size);
                    exponents = (0..blocks)
                        .flat_map(|b| (0..cols).map(move |j| j * blocks + b))
                        .map(|i| exponents[i])
                        .collect();
                    (mantissas, values) = (mantissas.transpose(), values.transpose());
                }
                let mut got = NumericEvents::default();
                let q = HbfpMatrix::quantize_with_events(&m, axis, spec, &mut got);
                let what = format!("{axis:?} {spec:?} {rows}x{cols}");
                assert_eq!(got, want, "{what}");
                let stored: Vec<f32> = q.mantissas().iter().map(|q| f32::from(q.0)).collect();
                assert_eq!(stored, mantissas.as_slice(), "{what}");
                assert_eq!(q.exponents(), exponents, "{what}");
                let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&q.dequantize()), bits(&values), "{what}");
            }
        });
    }

    fn assert_ceil_log2_matches_libm(bits: impl Iterator<Item = u32>) {
        for bits in bits {
            let y = f32::from_bits(bits);
            assert_eq!(ceil_log2(y), y.log2().ceil() as i32, "y = {y:e} ({bits:#010x})");
        }
    }

    /// Where the bit-derived exponent meets the libm fallback: the
    /// lowest 2^12 fractions of every binade, and a stride through the
    /// subnormals.
    #[test]
    fn ceil_log2_matches_libm_just_above_every_power_of_two() {
        let binades = (1..0xffu32).flat_map(|field| (0..1 << 12).map(move |f| field << 23 | f));
        assert_ceil_log2_matches_libm(binades.chain((1..1 << 23).step_by(4099)));
    }

    #[test]
    #[ignore = "sweeps every positive finite f32, about 20 s in release; scripts/check.sh runs it"]
    fn ceil_log2_matches_libm_on_every_positive_float() {
        assert_ceil_log2_matches_libm(1..f32::INFINITY.to_bits());
    }

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
