//! # equinox-arith
//!
//! Arithmetic substrate for the Equinox reproduction (MICRO'21).
//!
//! Equinox's datapath supports two numeric encodings:
//!
//! * **bfloat16** ([`Bf16`]) — the state-of-the-art reference encoding for
//!   custom training accelerators (TPUv2/v3-style): 1 sign, 8 exponent,
//!   7 mantissa bits, with fp32 accumulation.
//! * **hbfp8** ([`hbfp::HbfpBlock`]) — hybrid block floating point
//!   (Drumond et al., NeurIPS'18): blocks of 8-bit fixed-point mantissas
//!   sharing a single 12-bit exponent, multiplied on 8-bit integer
//!   multipliers with 25-bit fixed-point accumulators, with non-GEMM
//!   operations performed in bfloat16 on the SIMD unit.
//!
//! This crate provides bit-accurate software implementations of both
//! encodings, blocked tensor containers, and GEMM kernels for each encoding
//! so that the `equinox-trainer` crate can reproduce the paper's Figure 2
//! convergence comparison and the simulator can reason about operand sizes.
//! It also holds the workspace's std-only utilities: the [`rng`] stream,
//! the [`check`] property harness and the [`json`] value every `results/`
//! artifact is rendered from.
//!
//! ## Example
//!
//! ```
//! use equinox_arith::{Matrix, gemm};
//!
//! let a = Matrix::from_fn(4, 8, |r, c| (r + c) as f32 * 0.25);
//! let b = Matrix::from_fn(8, 3, |r, c| (r as f32 - c as f32) * 0.5);
//! let exact = gemm::gemm_f32(&a, &b);
//! let approx = gemm::gemm_hbfp(&a, &b, &gemm::HbfpGemmConfig::default());
//! let err = equinox_arith::metrics::relative_frobenius_error(&exact, &approx);
//! assert!(err < 1e-1);
//! ```

pub mod bf16;
pub mod check;
pub mod convert;
pub mod fixed;
pub mod gemm;
pub mod hbfp;
pub mod json;
pub mod matrix;
pub mod metrics;
pub mod rng;
pub mod wide;

pub use bf16::Bf16;
pub use fixed::{Accumulator25, Q8};
pub use hbfp::{HbfpBlock, HbfpMatrix, HbfpSpec, NumericEvents};
pub use matrix::Matrix;
pub use rng::SplitMix64;

/// The numeric encodings evaluated by the paper.
///
/// `Hbfp8` is Equinox's uniform encoding; `Bfloat16` is the
/// state-of-the-art reference for custom training accelerators; `Fp32`
/// is the software convergence baseline (never implemented in hardware).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Encoding {
    /// Hybrid block floating point with 8-bit mantissas.
    Hbfp8,
    /// 16-bit brain floating point with fp32 accumulation.
    Bfloat16,
    /// IEEE-754 single precision (software baseline).
    Fp32,
}

impl Encoding {
    /// Storage bits per scalar operand in buffers.
    ///
    /// hbfp8 stores one 8-bit mantissa per value plus a 12-bit exponent
    /// amortized over the block; the paper accounts the amortized exponent
    /// as negligible, so buffers are sized at one byte per value.
    pub fn bits_per_value(self) -> u32 {
        match self {
            Encoding::Hbfp8 => 8,
            Encoding::Bfloat16 => 16,
            Encoding::Fp32 => 32,
        }
    }

    /// Storage bytes per scalar operand (rounded up).
    pub fn bytes_per_value(self) -> u32 {
        self.bits_per_value().div_ceil(8)
    }

    /// Human-readable name used in reports (matches the paper's labels).
    pub fn label(self) -> &'static str {
        match self {
            Encoding::Hbfp8 => "hbfp8",
            Encoding::Bfloat16 => "bfloat16",
            Encoding::Fp32 => "fp32",
        }
    }
}

impl std::fmt::Display for Encoding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoding_widths() {
        assert_eq!(Encoding::Hbfp8.bits_per_value(), 8);
        assert_eq!(Encoding::Bfloat16.bits_per_value(), 16);
        assert_eq!(Encoding::Fp32.bits_per_value(), 32);
        assert_eq!(Encoding::Hbfp8.bytes_per_value(), 1);
        assert_eq!(Encoding::Bfloat16.bytes_per_value(), 2);
        assert_eq!(Encoding::Fp32.bytes_per_value(), 4);
    }

    #[test]
    fn encoding_labels_match_paper() {
        assert_eq!(Encoding::Hbfp8.to_string(), "hbfp8");
        assert_eq!(Encoding::Bfloat16.to_string(), "bfloat16");
        assert_eq!(Encoding::Fp32.to_string(), "fp32");
    }

    #[test]
    fn encoding_is_ordered_and_hashable() {
        use std::collections::BTreeSet;
        let set: BTreeSet<Encoding> =
            [Encoding::Hbfp8, Encoding::Bfloat16, Encoding::Fp32].into_iter().collect();
        assert_eq!(set.len(), 3);
        assert!(Encoding::Hbfp8 < Encoding::Fp32);
    }
}
