//! Pins the output bits of every GEMM kernel and of the HBFP matrix
//! round trip on seeded operands.
//!
//! The unit and property tests compare each kernel with a reference
//! built from the same crate, and the determinism test compares a build
//! with itself at two thread counts. These digests are the kernels'
//! only cross-version check: any change to rounding, accumulation order
//! or block layout shows here as a different digest. A deliberate
//! change re-records the strings and says why.

use equinox_arith::gemm::{gemm_bf16, gemm_f32, gemm_hbfp, HbfpGemmConfig};
use equinox_arith::hbfp::{BlockAxis, HbfpMatrix, HbfpSpec};
use equinox_arith::{Matrix, SplitMix64};

/// FNV-1a over the shape and the little-endian bit pattern of every
/// element, row-major.
fn digest(m: &Matrix) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let shape = [m.rows() as u32, m.cols() as u32];
    let bits = m.as_slice().iter().map(|v| v.to_bits());
    for word in shape.into_iter().chain(bits) {
        for b in word.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// Seeded values spread over twelve binades, so blocks carry different
/// exponents and small values next to large ones flush to zero.
fn operand(rows: usize, cols: usize, rng: &mut SplitMix64) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| {
        rng.f32_in(-1.0, 1.0) * 2.0f32.powi(rng.usize_in(0, 12) as i32 - 6)
    })
}

/// Every pinned output of one `m×k×n` product on one line.
fn fingerprint(m: usize, k: usize, n: usize, seed: u64) -> String {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let a = operand(m, k, &mut rng);
    let b = operand(k, n, &mut rng);
    let block64 = HbfpGemmConfig {
        spec: HbfpSpec::hbfp8_with_block(64),
        round_output_to_bf16: false,
    };
    let round_trip =
        |x: &Matrix, axis| digest(&HbfpMatrix::quantize(x, axis, HbfpSpec::hbfp8()).dequantize());
    format!(
        "f32={} bf16={} hbfp8={} hbfp8_b64={} a_row={} a_col={} b_row={} b_col={}",
        digest(&gemm_f32(&a, &b)),
        digest(&gemm_bf16(&a, &b)),
        digest(&gemm_hbfp(&a, &b, &HbfpGemmConfig::default())),
        digest(&gemm_hbfp(&a, &b, &block64)),
        round_trip(&a, BlockAxis::Row),
        round_trip(&a, BlockAxis::Col),
        round_trip(&b, BlockAxis::Row),
        round_trip(&b, BlockAxis::Col),
    )
}

/// k a multiple of 16 with n a multiple of 8.
#[test]
fn full_blocks() {
    assert_eq!(fingerprint(6, 48, 16, 1),
        "f32=b2521a9e1c2053ab bf16=09e2e049391bb13b hbfp8=68e086ea5642ac76 hbfp8_b64=ba1c14fe1190fd6a \
         a_row=bbe04c1ae4f9fc94 a_col=83eed4298d49536c b_row=8217ef66f67e2adf b_col=37ebeb4d10873ee0"
    );
}

/// k = 40: two full 16-value blocks and an 8-value tail; n = 13 leaves
/// five outputs past the last group of eight.
#[test]
fn short_block_tail() {
    assert_eq!(fingerprint(5, 40, 13, 2),
        "f32=3847e18bab8742ba bf16=d31ccd297028bc38 hbfp8=64ee8c13512af1d3 hbfp8_b64=e6fe9ab0dbc57237 \
         a_row=306a0e55ca915445 a_col=92f2ab8fc5c4b68e b_row=ba862621c9dd6b04 b_col=d6bd87fccd630a58"
    );
}

/// k below one block, n below one group of eight.
#[test]
fn single_partial_block() {
    assert_eq!(fingerprint(4, 9, 7, 3),
        "f32=164ced9f72c736a5 bf16=2aa24176adf247ef hbfp8=a28ae018376c2633 hbfp8_b64=5d6015133533a3c7 \
         a_row=7a75227ac57f7689 a_col=3bbeeec7220c99f2 b_row=afdd27e33d478402 b_col=a2b9234c3171bac9"
    );
}

/// A wide output row with a ragged end (k = 16), and a single output
/// column (k = 64).
#[test]
fn ragged_outputs() {
    assert_eq!(fingerprint(3, 16, 33, 4),
        "f32=df48f98bfd6589b9 bf16=9ba58ebc7b587cd8 hbfp8=44a4431e5f5d9cea hbfp8_b64=52e657e7c754f111 \
         a_row=0248bc1ec4596842 a_col=bec4d01aa4f57e55 b_row=3e3dd282cdfa724f b_col=0773a879f9c14aa6"
    );
    assert_eq!(fingerprint(7, 64, 1, 5),
        "f32=d702efca52d203ec bf16=81f24b8bad2d6fcf hbfp8=901dad52ab9f91e7 hbfp8_b64=02b5abe299a43fe2 \
         a_row=1dd4fe76f077e11e a_col=885645b8463e749b b_row=25d8da866271fe21 b_col=59ac6eb8d21ea112"
    );
}
