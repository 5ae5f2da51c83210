//! GEMM kernels for each encoding the paper evaluates.
//!
//! * [`gemm_f32`] — the fp32 software baseline.
//! * [`gemm_bf16`] — bfloat16 operands, fp32 accumulation (TPUv2/v3-style,
//!   the paper's bfloat16 datapath variant).
//! * [`gemm_hbfp`] — hbfp8: operands quantized to HBFP blocks along the
//!   reduction dimension, block-pair dot products on 8-bit multipliers
//!   with 25-bit saturating accumulators, partial sums combined and the
//!   result rounded to bfloat16 at the MMU→SIMD boundary (§3.2).
//!
//! The kernels are bit-faithful models of the datapath, not fast BLAS;
//! they are used by the trainer for the Figure 2 convergence study.
//! They are written so that the compiler can vectorize them without
//! changing a bit of any output:
//!
//! * **fp32.** Every output is one sum over k in order from zero,
//!   `((0 + a₀b₀) + a₁b₁) + …`. The kernel reads `b` row by row and
//!   gives each of eight adjacent outputs its own accumulator, so vector
//!   lanes run across outputs; no sum is split or reordered along k, and
//!   Rust never fuses `acc + x·y` into one rounding. Each output therefore
//!   sees the same sequence of f32 roundings as the textbook loop.
//! * **bf16.** A bf16 MAC ([`Bf16::fma_into_f32`]) is `acc + a·b` in
//!   fp32, so the bf16 GEMM is the fp32 kernel run on operands rounded
//!   to bf16.
//! * **hbfp8.** Both operands are quantized to [`HbfpMatrix`]es, which
//!   store mantissas row-major on either block axis, so one column block
//!   of `b` is `block_size` consecutive rows. `b`'s mantissas are
//!   widened to `i16` once per GEMM, and each row of `a` reduces one
//!   block against all
//!   `n` columns at once, vector lanes running across outputs. A block
//!   dot sums its 8-bit products in a plain `i32`. Each product is at
//!   most 2^14 in magnitude, so no partial sum of
//!   `Accumulator25::safe_chain_depth(128, 128)` = 1023 products or fewer
//!   can reach a 25-bit rail: the modeled accumulator would never
//!   saturate, and its value is the exact integer sum, which the `i32`
//!   computes in any order. Longer blocks keep the saturating
//!   [`Accumulator25`] loop, in k order, the only correct model there.
//!   Each output then adds `dot · 2^(ea+eb)` block by block in k order,
//!   so it meets the same fp32 roundings, and the same final bf16 one,
//!   as an output reduced on its own. The scale is built from its
//!   exponent bits when the block's exponent sums all lie in the normal
//!   range, which equals `exp2` bit for bit; the quantizer's own
//!   shortcuts are exact too (see [`HbfpMatrix`]).
//!
//! Every kernel runs serially on the calling thread. Training is
//! parallel one level up, one whole training run per pool task (see
//! `equinox_core::experiments::fig2`), so the bits never depend on the
//! thread count.

use crate::bf16::Bf16;
use crate::convert::matrix_to_bf16;
use crate::fixed::{Accumulator25, Q8};
use crate::hbfp::{normal_pow2, pow2, BlockAxis, HbfpMatrix, HbfpSpec};
use crate::matrix::Matrix;

/// Adjacent outputs the fp32 kernel accumulates at once, one
/// accumulator each.
const LANES: usize = 8;

/// Computes an `m×n` output by filling each row with `fill(i, row)`.
fn fill_rows(m: usize, n: usize, mut fill: impl FnMut(usize, &mut [f32])) -> Matrix {
    let mut data = vec![0.0f32; m * n];
    for (i, row) in data.chunks_exact_mut(n.max(1)).enumerate() {
        fill(i, row);
    }
    Matrix::from_vec(m, n, data)
}

/// Configuration of the hbfp8 GEMM datapath model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HbfpGemmConfig {
    /// HBFP format (mantissa/exponent widths, block size).
    pub spec: HbfpSpec,
    /// Round the final output to bfloat16, modeling the MMU→SIMD
    /// conversion the hardware performs. Enabled by default.
    pub round_output_to_bf16: bool,
}

impl Default for HbfpGemmConfig {
    fn default() -> Self {
        HbfpGemmConfig { spec: HbfpSpec::hbfp8(), round_output_to_bf16: true }
    }
}

/// Checks GEMM operand shapes, panicking with a clear message.
fn check_shapes(a: &Matrix, b: &Matrix) {
    assert_eq!(
        a.cols(),
        b.rows(),
        "GEMM shape mismatch: a is {}x{}, b is {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
}

/// Single-precision GEMM: `a (m×k) · b (k×n) -> m×n`.
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`.
///
/// # Example
///
/// ```
/// use equinox_arith::{Matrix, gemm::gemm_f32};
/// let a = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
/// let b = Matrix::from_vec(2, 1, vec![3.0, 4.0]);
/// assert_eq!(gemm_f32(&a, &b).get(0, 0), 11.0);
/// ```
pub fn gemm_f32(a: &Matrix, b: &Matrix) -> Matrix {
    check_shapes(a, b);
    let n = b.cols();
    fill_rows(a.rows(), n, |i, row| {
        let arow = a.row(i);
        let mut groups = row.chunks_exact_mut(LANES);
        for (g, out) in groups.by_ref().enumerate() {
            out.copy_from_slice(&column_sums::<LANES>(arow, b, g * LANES));
        }
        let tail = n - n % LANES;
        for (j, out) in groups.into_remainder().iter_mut().enumerate() {
            *out = column_sums::<1>(arow, b, tail + j)[0];
        }
    })
}

/// The `W` adjacent outputs `Σ_k arow[k] · b[k][j0 + l]`, each summed
/// in k order from zero in its own accumulator.
fn column_sums<const W: usize>(arow: &[f32], b: &Matrix, j0: usize) -> [f32; W] {
    let mut acc = [0.0f32; W];
    for (&x, brow) in arow.iter().zip(b.as_slice().chunks_exact(b.cols())) {
        let brow: &[f32; W] = brow[j0..j0 + W].try_into().expect("a slice of W values");
        for (acc, &y) in acc.iter_mut().zip(brow) {
            *acc += x * y;
        }
    }
    acc
}

/// bfloat16 GEMM with fp32 accumulation.
///
/// Both operands are rounded to bfloat16 before multiplication (as they
/// would be when stored in the bfloat16 datapath's buffers); each product
/// is exact in fp32 and accumulation happens at full fp32 precision
/// (the paper's bfloat16 variant uses single-precision accumulators).
/// That is [`gemm_f32`] over the rounded operands.
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`.
pub fn gemm_bf16(a: &Matrix, b: &Matrix) -> Matrix {
    gemm_f32(&matrix_to_bf16(a), &matrix_to_bf16(b))
}

/// hbfp8 GEMM.
///
/// `a` is blocked along rows and `b` along columns (both along the
/// reduction dimension k). Each block pair is reduced on the modeled
/// 8-bit × 8-bit multipliers into a 25-bit saturating accumulator with one
/// exponent add; partial block sums are combined in fp32 (the across-tile
/// accumulation instructions), and the final result is rounded to
/// bfloat16 if [`HbfpGemmConfig::round_output_to_bf16`] is set.
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`.
pub fn gemm_hbfp(a: &Matrix, b: &Matrix, config: &HbfpGemmConfig) -> Matrix {
    check_shapes(a, b);
    let (k, n, bs) = (a.cols(), b.cols(), config.spec.block_size);
    let qa = HbfpMatrix::quantize(a, BlockAxis::Row, config.spec);
    let qb = HbfpMatrix::quantize(b, BlockAxis::Col, config.spec);
    // Widened once for every row of `a`: products of `i16` lanes
    // vectorize on baseline x86-64, products of `i8` lanes do not.
    let panel: Vec<i16> = qb.mantissas().iter().map(|q| i16::from(q.0)).collect();
    let blocks: Vec<PanelBlock> = panel
        .chunks(bs * n.max(1))
        .zip(qb.exponents().chunks(n.max(1)))
        .map(|(rows, exponents)| PanelBlock {
            rows,
            exponents,
            min_exponent: exponents.iter().copied().min().unwrap_or(0),
            max_exponent: exponents.iter().copied().max().unwrap_or(0),
        })
        .collect();
    let blocks_per_row = k.div_ceil(bs);
    let mut dots = vec![0i32; n];
    fill_rows(a.rows(), n, |i, row| {
        let mantissas = &qa.mantissas()[i * k..(i + 1) * k];
        let exponents = &qa.exponents()[i * blocks_per_row..(i + 1) * blocks_per_row];
        for ((xa, &ea), block) in mantissas.chunks(bs).zip(exponents).zip(&blocks) {
            block_dots(xa, block.rows, &mut dots);
            block.accumulate(row, &dots, ea);
        }
        if config.round_output_to_bf16 {
            for out in row.iter_mut() {
                *out = Bf16::from_f32(*out).to_f32();
            }
        }
    })
}

/// One column block of the right operand: its mantissa rows, widened,
/// and its exponent per column with their range.
struct PanelBlock<'a> {
    rows: &'a [i16],
    exponents: &'a [i32],
    min_exponent: i32,
    max_exponent: i32,
}

impl PanelBlock<'_> {
    /// `out[j] += dots[j] · 2^(ea + exponents[j])` for every column, the
    /// fp32 across-block accumulation. When every exponent sum is in the
    /// normal range, which the column range settles once per block, the
    /// scale is built from its bits; otherwise [`pow2`] picks per column.
    fn accumulate(&self, out: &mut [f32], dots: &[i32], ea: i32) {
        let columns = out.iter_mut().zip(dots).zip(self.exponents);
        let normal = -126..=127;
        if normal.contains(&(ea + self.min_exponent)) && normal.contains(&(ea + self.max_exponent)) {
            for ((out, &dot), &eb) in columns {
                *out += dot as f32 * normal_pow2(ea + eb);
            }
        } else {
            for ((out, &dot), &eb) in columns {
                *out += dot as f32 * pow2(ea + eb);
            }
        }
    }
}

/// Every column's 25-bit accumulator value after one block's MACs:
/// `dots[j] = Σ_k xa[k] · rows[k][j]`. A block of at most
/// `Accumulator25::safe_chain_depth(128, 128)` values cannot reach a
/// rail (see the module docs), so its exact `i32` sums are the
/// accumulator's values in any order. Longer blocks run the saturating
/// [`Accumulator25`] per column, in k order.
fn block_dots(xa: &[Q8], rows: &[i16], dots: &mut [i32]) {
    let rows = xa.iter().map(|x| i16::from(x.0)).zip(rows.chunks_exact(dots.len()));
    if xa.len() as u64 <= Accumulator25::safe_chain_depth(128, 128) {
        dots.fill(0);
        for (x, row) in rows {
            for (dot, &y) in dots.iter_mut().zip(row) {
                *dot += i32::from(x * y);
            }
        }
    } else {
        let mut saturating = vec![Accumulator25::new(); dots.len()];
        for (x, row) in rows {
            for (acc, &y) in saturating.iter_mut().zip(row) {
                acc.add_product(i32::from(x * y));
            }
        }
        for (dot, acc) in dots.iter_mut().zip(&saturating) {
            *dot = acc.value();
        }
    }
}

/// Counts the multiply-accumulate operations of a GEMM, the unit used for
/// all paper throughput numbers (each MAC is 2 Ops).
pub fn gemm_macs(m: usize, k: usize, n: usize) -> u64 {
    m as u64 * k as u64 * n as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check;
    use crate::hbfp::{reference, NumericEvents};
    use crate::metrics::relative_frobenius_error;
    use std::collections::BTreeSet;

    fn test_matrices(m: usize, k: usize, n: usize, seed: u64) -> (Matrix, Matrix) {
        // Simple deterministic LCG so tests need no RNG dependency here.
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 11) as f64 / (1u64 << 53) as f64) as f32 * 2.0 - 1.0
        };
        let a = Matrix::from_fn(m, k, |_, _| next());
        let b = Matrix::from_fn(k, n, |_, _| next());
        (a, b)
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// hbfp8 GEMM as the datapath defines it: every block pair quantized
    /// to `HbfpBlock`s by the reference quantizer and reduced by their
    /// own dot, the block results summed in fp32, the sum rounded to bf16
    /// when configured. Each block pair's exponent sum goes into `sums`.
    fn reference_hbfp(
        a: &Matrix,
        b: &Matrix,
        cfg: &HbfpGemmConfig,
        events: &mut NumericEvents,
        sums: &mut BTreeSet<i32>,
    ) -> Matrix {
        let bs = cfg.spec.block_size;
        let bt = b.transpose();
        Matrix::from_fn(a.rows(), b.cols(), |i, j| {
            let mut acc = 0.0f32;
            for (xa, xb) in a.row(i).chunks(bs).zip(bt.row(j).chunks(bs)) {
                let qa = reference::block(xa, &cfg.spec, &mut NumericEvents::default());
                let qb = reference::block(xb, &cfg.spec, &mut NumericEvents::default());
                sums.insert(qa.exponent() + qb.exponent());
                acc += qa.dot_with_events(&qb, events);
            }
            if cfg.round_output_to_bf16 {
                Bf16::from_f32(acc).to_f32()
            } else {
                acc
            }
        })
    }

    #[test]
    fn hbfp_matches_block_reference() {
        let mut sums = BTreeSet::new();
        check::for_each_case(256, 0x6e7703, |g| {
            let block = [1, 16, 64, 1500][g.usize_in(0, 4)];
            let cfg = HbfpGemmConfig {
                spec: HbfpSpec::hbfp8_with_block(block),
                round_output_to_bf16: g.next_bool(),
            };
            let (m, n) = (g.usize_in(1, 5), g.usize_in(1, 12));
            let (a, b) = if block > 1023 {
                // Worst-case mantissas: every value quantizes to ±127,
                // `a` is 95% positive and each column of `b` has one
                // sign, so a chain of 1300 or more drifts past a 25-bit
                // rail, clamps, and keeps accumulating from the rail.
                let rail = |negative: bool| if negative { -127.0 } else { 127.0 };
                let k = g.usize_in(1300, 2001);
                let a = Matrix::from_fn(m, k, |_, _| rail(g.usize_in(0, 20) == 0));
                let signs: Vec<f32> = (0..n).map(|_| rail(g.next_bool())).collect();
                (a, Matrix::from_fn(k, n, |_, j| signs[j]))
            } else {
                // Every value is at most `127·2^e` for its operand's `e`,
                // about one in four equals it and the rest spread over 16
                // binades below, so many block pairs have the exponent
                // sum `ea + eb` and the others sit below it: the ends of
                // the normal range, just past them, far past them, or 0.
                let sum = [-126, 127, -127, 128, -200, 0][g.usize_in(0, 6)];
                let (ea, eb) = (sum / 2, sum - sum / 2);
                let k = g.usize_in(0, 71);
                let mut value = |e: i32| {
                    let sign = if g.next_bool() { -1.0 } else { 1.0 };
                    let top = 127.0 * 2.0f32.powi(e);
                    let below = g.f32_in(0.0, 1.0) * 2.0f32.powi(-(g.usize_in(0, 16) as i32));
                    sign * top * if g.usize_in(0, 4) == 0 { 1.0 } else { below }
                };
                let a = Matrix::from_fn(m, k, |_, _| value(ea));
                let b = Matrix::from_fn(k, n, |_, _| value(eb));
                (a, b)
            };
            let mut events = NumericEvents::default();
            let expected = reference_hbfp(&a, &b, &cfg, &mut events, &mut sums);
            let got = gemm_hbfp(&a, &b, &cfg);
            assert_eq!(bits(&got), bits(&expected), "block {block}, k {}", a.cols());
            if block > 1023 {
                assert!(events.accumulator_saturations > 0, "the long chains must saturate");
            }
        });
        // Both ends of the bit-built scale's range, and past each.
        for sum in [-126, 127] {
            assert!(sums.contains(&sum), "no block pair summed to {sum}");
        }
        assert!(sums.first() < Some(&-126) && sums.last() > Some(&127), "{sums:?}");
    }

    #[test]
    fn f32_matches_sequential_loop() {
        for n in [1, 7, 8, 9, 17] {
            for k in [0, 1, 6, 40] {
                let (a, b) = test_matrices(3, k, n, (100 * n + k) as u64);
                let naive = Matrix::from_fn(3, n, |i, j| {
                    let mut acc = 0.0f32;
                    for kk in 0..k {
                        acc += a.get(i, kk) * b.get(kk, j);
                    }
                    acc
                });
                assert_eq!(bits(&gemm_f32(&a, &b)), bits(&naive), "k {k}, n {n}");
            }
        }
    }

    #[test]
    fn f32_identity() {
        let a = Matrix::from_fn(3, 3, |r, c| if r == c { 1.0 } else { 0.0 });
        let b = Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f32);
        assert_eq!(gemm_f32(&a, &b), b);
    }

    #[test]
    #[should_panic(expected = "GEMM shape mismatch")]
    fn shape_mismatch_panics() {
        gemm_f32(&Matrix::zeros(2, 3), &Matrix::zeros(2, 2));
    }

    #[test]
    fn bf16_close_to_f32() {
        let (a, b) = test_matrices(8, 32, 8, 42);
        let exact = gemm_f32(&a, &b);
        let approx = gemm_bf16(&a, &b);
        let err = relative_frobenius_error(&exact, &approx);
        assert!(err < 0.02, "bf16 error too large: {err}");
    }

    #[test]
    fn hbfp_close_to_f32() {
        let (a, b) = test_matrices(8, 64, 8, 7);
        let exact = gemm_f32(&a, &b);
        let approx = gemm_hbfp(&a, &b, &HbfpGemmConfig::default());
        let err = relative_frobenius_error(&exact, &approx);
        assert!(err < 0.1, "hbfp8 error too large: {err}");
    }

    #[test]
    fn hbfp_exact_for_representable_inputs() {
        // Small integers are exactly representable in 8-bit mantissas and
        // products stay within the 25-bit accumulator.
        let a = Matrix::from_fn(4, 8, |r, c| ((r + c) % 5) as f32 - 2.0);
        let b = Matrix::from_fn(8, 4, |r, c| ((r * c) % 7) as f32 - 3.0);
        let exact = gemm_f32(&a, &b);
        let cfg = HbfpGemmConfig { round_output_to_bf16: false, ..Default::default() };
        let approx = gemm_hbfp(&a, &b, &cfg);
        assert_eq!(exact, approx);
    }

    #[test]
    fn bf16_output_rounding_applied() {
        let (a, b) = test_matrices(4, 16, 4, 3);
        let cfg = HbfpGemmConfig::default();
        let out = gemm_hbfp(&a, &b, &cfg);
        for &v in out.as_slice() {
            assert_eq!(v, Bf16::from_f32(v).to_f32(), "output must be bf16-representable");
        }
    }

    #[test]
    fn macs_count() {
        assert_eq!(gemm_macs(2, 3, 4), 24);
        assert_eq!(gemm_macs(0, 3, 4), 0);
    }

    #[test]
    fn hbfp_error_smaller_with_larger_mantissa_budget() {
        // Sanity: block size 1 (per-value exponent ~ minifloat) should be
        // at least as accurate as block size 64 on heterogeneous data.
        let a = Matrix::from_fn(4, 64, |_, c| if c % 16 == 0 { 100.0 } else { 0.01 });
        let b = Matrix::from_fn(64, 4, |r, _| if r % 16 == 0 { 100.0 } else { 0.01 });
        let exact = gemm_f32(&a, &b);
        let small = HbfpGemmConfig {
            spec: HbfpSpec::hbfp8_with_block(1),
            round_output_to_bf16: false,
        };
        let large = HbfpGemmConfig {
            spec: HbfpSpec::hbfp8_with_block(64),
            round_output_to_bf16: false,
        };
        let err_small = relative_frobenius_error(&exact, &gemm_hbfp(&a, &b, &small));
        let err_large = relative_frobenius_error(&exact, &gemm_hbfp(&a, &b, &large));
        assert!(err_small <= err_large + 1e-6, "small {err_small} vs large {err_large}");
    }

    #[test]
    fn hbfp_error_bounded() {
        check::for_each_case(32, 0x6e7701, |g| {
            let m = g.usize_in(1, 6);
            let k = g.usize_in(1, 48);
            let n = g.usize_in(1, 6);
            let seed = g.next_u64() % 1000;
            let (a, b) = test_matrices(m, k, n, seed);
            let exact = gemm_f32(&a, &b);
            let approx = gemm_hbfp(&a, &b, &HbfpGemmConfig::default());
            // hbfp8 with block 16 on unit-scale data: relative error well
            // under 1 (loose bound; tight behaviour asserted above).
            let err = relative_frobenius_error(&exact, &approx);
            assert!(err < 0.5, "error {err}");
        });
    }

    #[test]
    fn gemm_dims() {
        check::for_each_case(32, 0x6e7702, |g| {
            let m = g.usize_in(1, 5);
            let k = g.usize_in(1, 5);
            let n = g.usize_in(1, 5);
            let (a, b) = test_matrices(m, k, n, 1);
            for out in [
                gemm_f32(&a, &b),
                gemm_bf16(&a, &b),
                gemm_hbfp(&a, &b, &HbfpGemmConfig::default()),
            ] {
                assert_eq!(out.rows(), m);
                assert_eq!(out.cols(), n);
            }
        });
    }
}
