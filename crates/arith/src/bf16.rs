//! Software bfloat16: 1 sign bit, 8 exponent bits, 7 mantissa bits.
//!
//! bfloat16 is the upper half of an IEEE-754 `f32`. The systolic arrays of
//! Equinox's bfloat16 datapath variant multiply in bfloat16 and accumulate
//! in fp32 (as TPUv2/v3 do); the SIMD unit operates in bfloat16 in *both*
//! datapath variants. Rounding is round-to-nearest-even, matching the
//! hardware convention.

/// A 16-bit brain floating point value.
///
/// The representation is the raw upper 16 bits of the corresponding `f32`.
///
/// # Example
///
/// ```
/// use equinox_arith::Bf16;
/// let x = Bf16::from_f32(1.5);
/// assert_eq!(x.to_f32(), 1.5);
/// // 7 mantissa bits cannot represent 1.01 exactly:
/// let y = Bf16::from_f32(1.01);
/// assert!((y.to_f32() - 1.01).abs() < 0.01);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Bf16(u16);

impl Bf16 {
    /// Positive zero.
    pub const ZERO: Bf16 = Bf16(0);
    /// One.
    pub const ONE: Bf16 = Bf16(0x3F80);

    /// Creates a `Bf16` from raw bits.
    pub const fn from_bits(bits: u16) -> Self {
        Bf16(bits)
    }

    /// Returns the raw bit representation.
    pub const fn to_bits(self) -> u16 {
        self.0
    }

    /// Rounds an `f32` to the nearest `Bf16` (ties to even).
    ///
    /// NaN payloads are canonicalized to a quiet NaN so that equality on
    /// bits never distinguishes NaNs produced by different operations.
    pub fn from_f32(value: f32) -> Self {
        let bits = value.to_bits();
        if value.is_nan() {
            return Bf16(0x7FC0);
        }
        // Round to nearest even on the truncated 16 low bits.
        let round_bit = 0x00008000u32;
        let lower = bits & 0xFFFF;
        let mut upper = bits >> 16;
        if lower > round_bit || (lower == round_bit && (upper & 1) == 1) {
            upper += 1;
        }
        Bf16(upper as u16)
    }

    /// Widens to `f32` (exact).
    pub fn to_f32(self) -> f32 {
        f32::from_bits((self.0 as u32) << 16)
    }

    /// Fused multiply-add into an fp32 accumulator, as done by the
    /// bfloat16 MMU variant: the product of two bfloat16 operands is exact
    /// in fp32, and the accumulation happens at full fp32 precision.
    pub fn fma_into_f32(self, rhs: Bf16, acc: f32) -> f32 {
        acc + self.to_f32() * rhs.to_f32()
    }

    /// True if the value is NaN.
    pub fn is_nan(self) -> bool {
        (self.0 & 0x7F80) == 0x7F80 && (self.0 & 0x007F) != 0
    }
}

impl From<f32> for Bf16 {
    fn from(v: f32) -> Self {
        Bf16::from_f32(v)
    }
}

/// `self + rhs` computed in bfloat16 (operands and result rounded).
impl std::ops::Add for Bf16 {
    type Output = Bf16;
    fn add(self, rhs: Bf16) -> Bf16 {
        Bf16::from_f32(self.to_f32() + rhs.to_f32())
    }
}

/// `self - rhs` computed in bfloat16.
impl std::ops::Sub for Bf16 {
    type Output = Bf16;
    fn sub(self, rhs: Bf16) -> Bf16 {
        Bf16::from_f32(self.to_f32() - rhs.to_f32())
    }
}

/// `self * rhs` computed in bfloat16.
impl std::ops::Mul for Bf16 {
    type Output = Bf16;
    fn mul(self, rhs: Bf16) -> Bf16 {
        Bf16::from_f32(self.to_f32() * rhs.to_f32())
    }
}

impl From<Bf16> for f32 {
    fn from(v: Bf16) -> Self {
        v.to_f32()
    }
}

impl std::fmt::Display for Bf16 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_f32())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check;

    #[test]
    fn exact_round_trip_for_representable() {
        for v in [0.0f32, 1.0, -1.0, 0.5, 2.0, 1.5, -3.25, 256.0] {
            assert_eq!(Bf16::from_f32(v).to_f32(), v, "{v} should be exact");
        }
    }

    #[test]
    fn rounds_to_nearest_even() {
        // 1.0 + 2^-8 is exactly halfway between 1.0 and 1.0 + 2^-7;
        // round-to-even keeps 1.0 (even mantissa).
        let halfway = f32::from_bits(0x3F80_8000);
        assert_eq!(Bf16::from_f32(halfway).to_f32(), 1.0);
        // Slightly above halfway rounds up.
        let above = f32::from_bits(0x3F80_8001);
        assert_eq!(Bf16::from_f32(above).to_f32(), f32::from_bits(0x3F81_0000));
    }

    #[test]
    fn nan_is_canonicalized() {
        let nan = Bf16::from_f32(f32::NAN);
        assert!(nan.is_nan());
        assert_eq!(nan.to_bits(), 0x7FC0);
    }

    #[test]
    fn infinity_preserved() {
        assert_eq!(Bf16::from_f32(f32::INFINITY).to_f32(), f32::INFINITY);
        assert_eq!(Bf16::from_f32(f32::NEG_INFINITY).to_f32(), f32::NEG_INFINITY);
    }

    #[test]
    fn arithmetic_ops() {
        let a = Bf16::from_f32(1.5);
        let b = Bf16::from_f32(2.0);
        assert_eq!((a + b).to_f32(), 3.5);
        assert_eq!((a - b).to_f32(), -0.5);
        assert_eq!((a * b).to_f32(), 3.0);
    }

    #[test]
    fn fma_accumulates_in_f32() {
        let a = Bf16::from_f32(1.0);
        let b = Bf16::from_f32(2.0f32.powi(-20));
        // In pure bf16 this accumulation would be lost; in fp32 it is kept.
        let acc = a.fma_into_f32(b, 1.0);
        assert!(acc > 1.0);
    }

    #[test]
    fn display_shows_value() {
        assert_eq!(Bf16::from_f32(1.5).to_string(), "1.5");
    }

    #[test]
    fn constants() {
        assert_eq!(Bf16::ZERO.to_f32(), 0.0);
        assert_eq!(Bf16::ONE.to_f32(), 1.0);
    }

    #[test]
    fn round_trip_error_bounded() {
        check::check(0xbf1601, |g| {
            let v = g.f32_in(-1e6, 1e6);
            let r = Bf16::from_f32(v).to_f32();
            // Relative error of bf16 rounding is at most 2^-8.
            let err = (r - v).abs();
            assert!(err <= v.abs() * 2.0f32.powi(-8) + f32::MIN_POSITIVE);
        });
    }

    #[test]
    fn rounding_is_monotone() {
        check::check(0xbf1602, |g| {
            let a = g.f32_in(-1e6, 1e6);
            let b = g.f32_in(-1e6, 1e6);
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            assert!(Bf16::from_f32(lo).to_f32() <= Bf16::from_f32(hi).to_f32());
        });
    }

    #[test]
    fn idempotent() {
        check::check(0xbf1603, |g| {
            let v = g.f32_in(-1e6, 1e6);
            let once = Bf16::from_f32(v).to_f32();
            let twice = Bf16::from_f32(once).to_f32();
            assert_eq!(once, twice);
        });
    }
}
