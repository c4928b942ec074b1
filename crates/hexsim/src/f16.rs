//! Software IEEE 754 binary16 ("half precision", `__fp16`) arithmetic.
//!
//! The paper's kernels are FP16 end-to-end: HMX tiles, the `vgather` exp LUT
//! (65536 possible bit patterns), `vlut16` dequantization tables, and the
//! FlashAttention state are all half precision. Reproducing them bit-exactly
//! requires a faithful binary16 implementation, so this module provides one
//! from scratch (no external `half` dependency): conversions with
//! round-to-nearest-even, subnormal handling, and arithmetic performed by
//! widening to `f32` (which is exact for binary16 add/sub/mul because an f32
//! significand holds the full double-width product of two 11-bit
//! significands).
//!
//! Every functional datapath converts through [`F16::from_f32`] and
//! [`F16::to_f32`], so both are branch-free bit arithmetic; the f32 ->
//! binary16 direction rounds subnormal results with the FPU's own RTNE add
//! (the "denormal magic" trick). The unit tests pin them bit for bit
//! against readable field-by-field oracles: on all 2^16 halves, on a
//! structured f32 sweep, and (as an ignored test run in release) on all
//! 2^32 floats, NaN payloads included.

use std::cmp::Ordering;
use std::fmt;

/// An IEEE 754 binary16 floating-point value, stored as its bit pattern.
///
/// Layout: 1 sign bit, 5 exponent bits (bias 15), 10 significand bits.
/// Largest finite value is 65504; smallest positive subnormal is 2^-24.
#[derive(Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct F16(pub u16);

/// Sign mask of a binary16 bit pattern.
const SIGN_MASK: u16 = 0x8000;
/// Exponent mask of a binary16 bit pattern.
const EXP_MASK: u16 = 0x7c00;
/// Significand (mantissa) mask of a binary16 bit pattern.
const MANT_MASK: u16 = 0x03ff;

// Arithmetic is exposed as named methods rather than operator overloads on
// purpose: every call site is an explicit binary16 rounding step, mirroring
// one hardware instruction.
#[allow(clippy::should_implement_trait)]
impl F16 {
    /// Positive zero.
    pub const ZERO: F16 = F16(0x0000);
    /// Negative zero.
    pub const NEG_ZERO: F16 = F16(0x8000);
    /// One.
    pub const ONE: F16 = F16(0x3c00);
    /// Positive infinity.
    pub const INFINITY: F16 = F16(0x7c00);
    /// Negative infinity.
    pub const NEG_INFINITY: F16 = F16(0xfc00);
    /// A canonical quiet NaN.
    pub const NAN: F16 = F16(0x7e00);
    /// Largest finite value, 65504.
    pub const MAX: F16 = F16(0x7bff);
    /// Most negative finite value, -65504.
    pub const MIN: F16 = F16(0xfbff);
    /// Smallest positive normal value, 2^-14.
    pub const MIN_POSITIVE: F16 = F16(0x0400);
    /// Smallest positive subnormal value, 2^-24.
    pub const MIN_SUBNORMAL: F16 = F16(0x0001);

    /// Reinterprets a raw bit pattern as an `F16`.
    #[inline]
    pub const fn from_bits(bits: u16) -> Self {
        F16(bits)
    }

    /// Returns the raw bit pattern.
    #[inline]
    pub const fn to_bits(self) -> u16 {
        self.0
    }

    /// Converts an `f32` to binary16 with round-to-nearest-even.
    ///
    /// Overflow produces infinity; underflow produces (signed) zero or a
    /// subnormal; NaN maps to the canonical quiet NaN with the input sign.
    #[inline]
    pub fn from_f32(value: f32) -> Self {
        F16(f32_bits_to_f16_bits(value.to_bits()))
    }

    /// Converts to `f32` exactly (every binary16 value is representable).
    /// NaN keeps its sign and payload and becomes quiet.
    #[inline]
    pub fn to_f32(self) -> f32 {
        f16_bits_to_f32(self.0)
    }

    /// Converts from `f64` by first rounding to `f32`.
    ///
    /// Double rounding f64 -> f32 -> f16 can differ from direct f64 -> f16
    /// rounding only for values within half an f32 ULP of an f16 tie, which
    /// does not occur for the LUT contents generated in this project; the
    /// paper's LUT is likewise precomputed at >= 32-bit precision.
    pub fn from_f64(value: f64) -> Self {
        Self::from_f32(value as f32)
    }

    /// Returns `true` if the value is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        (self.0 & EXP_MASK) == EXP_MASK && (self.0 & MANT_MASK) != 0
    }

    /// Returns `true` if the value is positive or negative infinity.
    #[inline]
    pub fn is_infinite(self) -> bool {
        (self.0 & !SIGN_MASK) == EXP_MASK
    }

    /// Returns `true` if the value is finite (neither infinite nor NaN).
    #[inline]
    pub fn is_finite(self) -> bool {
        (self.0 & EXP_MASK) != EXP_MASK
    }

    /// Absolute value (clears the sign bit).
    #[inline]
    pub fn abs(self) -> Self {
        F16(self.0 & !SIGN_MASK)
    }

    /// Negation (flips the sign bit, also for NaN, matching IEEE `negate`).
    #[inline]
    pub fn neg(self) -> Self {
        F16(self.0 ^ SIGN_MASK)
    }

    /// IEEE maximum of two values; returns the other operand if one is NaN.
    #[inline]
    pub fn max(self, other: Self) -> Self {
        if self.is_nan() {
            return other;
        }
        if other.is_nan() {
            return self;
        }
        if self.to_f32() >= other.to_f32() {
            self
        } else {
            other
        }
    }

    /// IEEE minimum of two values; returns the other operand if one is NaN.
    #[inline]
    pub fn min(self, other: Self) -> Self {
        if self.is_nan() {
            return other;
        }
        if other.is_nan() {
            return self;
        }
        if self.to_f32() <= other.to_f32() {
            self
        } else {
            other
        }
    }

    /// Correctly rounded binary16 addition.
    #[inline]
    pub fn add(self, other: Self) -> Self {
        F16::from_f32(self.to_f32() + other.to_f32())
    }

    /// Correctly rounded binary16 subtraction.
    #[inline]
    pub fn sub(self, other: Self) -> Self {
        F16::from_f32(self.to_f32() - other.to_f32())
    }

    /// Correctly rounded binary16 multiplication.
    #[inline]
    pub fn mul(self, other: Self) -> Self {
        F16::from_f32(self.to_f32() * other.to_f32())
    }

    /// Total order comparison on finite values; NaN sorts greater than all.
    pub fn total_cmp(self, other: Self) -> Ordering {
        match (self.is_nan(), other.is_nan()) {
            (true, true) => Ordering::Equal,
            (true, false) => Ordering::Greater,
            (false, true) => Ordering::Less,
            (false, false) => self
                .to_f32()
                .partial_cmp(&other.to_f32())
                .unwrap_or(Ordering::Equal),
        }
    }
}

// ---------------------------------------------------------------------
// Conversions on raw bits.
//
// Every functional lane, HMX tile and host staging loop converts through
// the two functions below, so they are branch-free: each computes the
// candidate results of its input classes and selects one, which lets
// LLVM keep the loops over them vectorized (the crate denies `unsafe`,
// so explicit intrinsics are off the table). Readable field-by-field
// versions are kept as test oracles, and the tests pin these two bit for
// bit against them (exhaustively for binary16 -> f32).
// The slice converters loop over the same functions in fixed-size
// chunks; the CPU-side lm_head and embedding paths in `edgellm` are
// their main consumers.
// ---------------------------------------------------------------------

/// Elements per inner chunk of the slice converters. Sixteen f32 fill two
/// 256-bit AVX2 registers (x86-64 builds target x86-64-v3, see
/// `.cargo/config.toml`) or four 128-bit NEON or SSE2 ones; sixteen
/// binary16 values fill one AVX2 register.
const CONVERT_CHUNK: usize = 16;

/// f32 -> binary16 conversion on raw bits, round-to-nearest-even.
#[inline(always)]
fn f32_bits_to_f16_bits(x: u32) -> u16 {
    let sign = ((x >> 16) & 0x8000) as u16;
    let a = x & 0x7fff_ffff;
    // Normal result: rebias the exponent by -112 and round to nearest-even
    // on the 13 discarded mantissa bits. Adding 0xFFF plus the ties-to-even
    // bit carries into the mantissa (and, on overflow, the exponent)
    // exactly when RTNE rounds up.
    let normal = (a.wrapping_add(0xC800_0FFF).wrapping_add((a >> 13) & 1) >> 13) as u16;
    // Subnormal or zero result (the "denormal magic" add): the f32 ulp of
    // 0.5 + |v| is 2^-24, the binary16 subnormal unit, so the FPU's own
    // RTNE add rounds |v| to whole units, which land in the low mantissa
    // bits. A round-up to 2^-14 yields 0x0400, the smallest normal, and
    // f32 subnormal inputs round to zero.
    let subnormal = (f32::from_bits(a) + 0.5)
        .to_bits()
        .wrapping_sub(0x3f00_0000) as u16;
    // At or above 2^16: overflow to infinity; NaN canonicalizes to 0x7e00.
    let special = if a > 0x7f80_0000 { 0x7e00 } else { EXP_MASK };
    let magnitude = if a >= 0x4780_0000 {
        special
    } else if a >= 0x3880_0000 {
        normal
    } else {
        subnormal
    };
    sign | magnitude
}

/// binary16 -> f32 conversion on raw bits (exact).
#[inline(always)]
fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = ((h & SIGN_MASK) as u32) << 16;
    // The f16 exponent and mantissa, placed in the f32 fields.
    let bits = ((h & 0x7fff) as u32) << 13;
    // Finite: rescale by 2^112 (= 2^(127-15)). The multiply is exact for
    // normals and subnormals alike (a power-of-two scale only shifts the
    // exponent, and every f16 subnormal is an f32 normal after scaling).
    let finite = (f32::from_bits(bits) * f32::from_bits(0x7780_0000)).to_bits();
    // Infinity / NaN: all-ones exponent, payload kept, NaN made quiet.
    let quiet = u32::from(bits & 0x007f_ffff != 0) << 22;
    let special = 0x7f80_0000 | bits | quiet;
    let magnitude = if bits >= 0x0f80_0000 { special } else { finite };
    f32::from_bits(sign | magnitude)
}

impl F16 {
    /// Converts `src` into `dst` with round-to-nearest-even: elementwise
    /// [`F16::from_f32`] in chunked, SIMD-friendly inner loops (the
    /// host-side hot path for embeddings and activation staging).
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn from_f32_slice(src: &[f32], dst: &mut [F16]) {
        assert_eq!(src.len(), dst.len(), "slice lengths must match");
        let mut s = src.chunks_exact(CONVERT_CHUNK);
        let mut d = dst.chunks_exact_mut(CONVERT_CHUNK);
        for (cs, cd) in (&mut s).zip(&mut d) {
            for i in 0..CONVERT_CHUNK {
                cd[i] = F16(f32_bits_to_f16_bits(cs[i].to_bits()));
            }
        }
        for (v, o) in s.remainder().iter().zip(d.into_remainder()) {
            *o = F16(f32_bits_to_f16_bits(v.to_bits()));
        }
    }

    /// Converts `src` into `dst` exactly: elementwise [`F16::to_f32`] in
    /// chunked, SIMD-friendly inner loops (the host-side hot path for the
    /// CPU lm_head).
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn to_f32_slice(src: &[F16], dst: &mut [f32]) {
        assert_eq!(src.len(), dst.len(), "slice lengths must match");
        let mut s = src.chunks_exact(CONVERT_CHUNK);
        let mut d = dst.chunks_exact_mut(CONVERT_CHUNK);
        for (cs, cd) in (&mut s).zip(&mut d) {
            for i in 0..CONVERT_CHUNK {
                cd[i] = f16_bits_to_f32(cs[i].0);
            }
        }
        for (v, o) in s.remainder().iter().zip(d.into_remainder()) {
            *o = f16_bits_to_f32(v.0);
        }
    }

    /// Allocating convenience over [`F16::from_f32_slice`].
    pub fn vec_from_f32(src: &[f32]) -> Vec<F16> {
        let mut out = vec![F16::ZERO; src.len()];
        F16::from_f32_slice(src, &mut out);
        out
    }

    /// Allocating convenience over [`F16::to_f32_slice`].
    pub fn vec_to_f32(src: &[F16]) -> Vec<f32> {
        let mut out = vec![0.0f32; src.len()];
        F16::to_f32_slice(src, &mut out);
        out
    }
}

impl fmt::Debug for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "F16({} /*0x{:04x}*/)", self.to_f32(), self.0)
    }
}

impl fmt::Display for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f32())
    }
}

impl From<f32> for F16 {
    fn from(v: f32) -> Self {
        F16::from_f32(v)
    }
}

impl From<F16> for f32 {
    fn from(v: F16) -> Self {
        v.to_f32()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Readable f32 -> binary16 conversion (RTNE), field by field: the
    /// oracle the branch-free [`F16::from_f32`] is pinned to.
    fn from_f32_oracle(value: f32) -> F16 {
        let x = value.to_bits();
        let sign = ((x >> 16) & 0x8000) as u16;
        let exp = ((x >> 23) & 0xff) as i32;
        let mant = x & 0x007f_ffff;

        if exp == 0xff {
            // Infinity or NaN.
            return if mant == 0 {
                F16(sign | EXP_MASK)
            } else {
                F16(sign | 0x7e00)
            };
        }
        if exp == 0 {
            // f32 subnormals are below 2^-126, far under the f16 underflow
            // threshold of 2^-25, so they round to signed zero.
            return F16(sign);
        }

        // 24-bit significand with the implicit leading one made explicit.
        let sig = mant | 0x0080_0000;
        let unbiased = exp - 127;

        if unbiased > 15 {
            // Magnitude >= 2^16 > 65504: overflow to infinity.
            return F16(sign | EXP_MASK);
        }
        if unbiased >= -14 {
            // Normal result. Re-bias so that adding the 11-bit shifted
            // significand (which contains the implicit bit at position 10)
            // lands the exponent field correctly, then round RTNE on the 13
            // discarded bits. A mantissa carry naturally increments the
            // exponent, and a carry out of exponent 30 correctly yields
            // infinity (0x7c00).
            let base = ((unbiased + 14) as u32) << 10;
            let mut h = base + (sig >> 13);
            let rem = sig & 0x1fff;
            if rem > 0x1000 || (rem == 0x1000 && (h & 1) == 1) {
                h += 1;
            }
            return F16(sign | (h as u16));
        }

        // Subnormal (or zero) result: value = sig * 2^(unbiased - 23), and the
        // f16 subnormal unit is 2^-24, so the stored mantissa is
        // sig >> (-unbiased - 1), rounded RTNE. For unbiased < -25 the shift
        // discards everything including the rounding bit.
        let shift = (-unbiased - 1) as u32;
        if shift > 25 {
            return F16(sign);
        }
        let shifted = sig >> shift;
        let rem = sig & ((1u32 << shift) - 1);
        let half = 1u32 << (shift - 1);
        let mut h = shifted;
        if rem > half || (rem == half && (h & 1) == 1) {
            h += 1;
        }
        F16(sign | (h as u16))
    }

    /// Readable binary16 -> f32 conversion, field by field: the oracle the
    /// branch-free [`F16::to_f32`] is pinned to.
    fn to_f32_oracle(h: F16) -> f32 {
        let sign = ((h.0 & SIGN_MASK) as u32) << 16;
        let exp = ((h.0 & EXP_MASK) >> 10) as u32;
        let mant = (h.0 & MANT_MASK) as u32;

        let bits = if exp == 0x1f {
            // Infinity or NaN.
            if mant == 0 {
                sign | 0x7f80_0000
            } else {
                sign | 0x7fc0_0000 | (mant << 13)
            }
        } else if exp == 0 {
            if mant == 0 {
                sign
            } else {
                // Subnormal: normalize into an f32, which has ample range.
                let mut e = -14i32;
                let mut m = mant;
                while m & 0x0400 == 0 {
                    m <<= 1;
                    e -= 1;
                }
                m &= MANT_MASK as u32;
                sign | (((e + 127) as u32) << 23) | (m << 13)
            }
        } else {
            sign | ((exp + 127 - 15) << 23) | (mant << 13)
        };
        f32::from_bits(bits)
    }

    #[test]
    fn roundtrip_all_bit_patterns() {
        // Every f16 converts to f32 exactly, so from_f32 must return the
        // identical bit pattern (NaNs canonicalize but stay NaN).
        for bits in 0..=u16::MAX {
            let h = F16(bits);
            let back = F16::from_f32(h.to_f32());
            if h.is_nan() {
                assert!(back.is_nan(), "bits {bits:#06x} lost NaN-ness");
            } else {
                assert_eq!(h.0, back.0, "bits {bits:#06x} did not round-trip");
            }
        }
    }

    #[test]
    fn known_constants() {
        assert_eq!(F16::from_f32(0.0).0, 0x0000);
        assert_eq!(F16::from_f32(-0.0).0, 0x8000);
        assert_eq!(F16::from_f32(1.0).0, 0x3c00);
        assert_eq!(F16::from_f32(-2.0).0, 0xc000);
        assert_eq!(F16::from_f32(65504.0).0, 0x7bff);
        assert_eq!(F16::from_f32(0.5).0, 0x3800);
        assert_eq!(F16::from_f32(0.099975586).0, 0x2e66);
    }

    #[test]
    fn overflow_rounds_to_infinity() {
        // 65520 is the midpoint between 65504 (odd mantissa) and the next
        // representable step 65536; ties-to-even rounds up to infinity.
        assert_eq!(F16::from_f32(65520.0).0, 0x7c00);
        assert_eq!(F16::from_f32(65519.996).0, 0x7bff);
        assert_eq!(F16::from_f32(1e9).0, 0x7c00);
        assert_eq!(F16::from_f32(-1e9).0, 0xfc00);
    }

    #[test]
    fn subnormal_boundaries() {
        // 2^-24 is the smallest subnormal.
        assert_eq!(F16::from_f32(5.9604645e-8).0, 0x0001);
        // 2^-25 is exactly half the smallest subnormal: ties-to-even -> 0.
        assert_eq!(F16::from_f32(2.9802322e-8).0, 0x0000);
        // Slightly above 2^-25 rounds up to the smallest subnormal.
        assert_eq!(F16::from_f32(3.0e-8).0, 0x0001);
        // Below 2^-25 underflows to zero.
        assert_eq!(F16::from_f32(1.0e-8).0, 0x0000);
        // Largest subnormal.
        let largest_sub = (1023.0 / 1024.0) * 2.0f32.powi(-14);
        assert_eq!(F16::from_f32(largest_sub).0, 0x03ff);
        // Smallest normal.
        assert_eq!(F16::from_f32(2.0f32.powi(-14)).0, 0x0400);
    }

    #[test]
    fn rtne_ties() {
        // 1.0 + 2^-11 is exactly between 1.0 (even) and 1.0+2^-10: round down.
        let tie_down = 1.0f32 + 2.0f32.powi(-11);
        assert_eq!(F16::from_f32(tie_down).0, 0x3c00);
        // 1.0 + 3*2^-11 is between 1.0+2^-10 (odd) and 1.0+2^-9 (even): up.
        let tie_up = 1.0f32 + 3.0 * 2.0f32.powi(-11);
        assert_eq!(F16::from_f32(tie_up).0, 0x3c02);
    }

    #[test]
    fn nan_propagation() {
        assert!(F16::from_f32(f32::NAN).is_nan());
        assert!(F16::NAN.add(F16::ONE).is_nan());
        assert!(!F16::INFINITY.is_nan());
        assert!(F16::INFINITY.is_infinite());
        assert!(F16::INFINITY.sub(F16::INFINITY).is_nan());
    }

    #[test]
    fn arithmetic_basics() {
        let a = F16::from_f32(1.5);
        let b = F16::from_f32(2.25);
        assert_eq!(a.add(b).to_f32(), 3.75);
        assert_eq!(a.mul(b).to_f32(), 3.375);
        assert_eq!(b.sub(a).to_f32(), 0.75);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn max_min_with_nan() {
        assert_eq!(F16::NAN.max(F16::ONE), F16::ONE);
        assert_eq!(F16::ONE.max(F16::NAN), F16::ONE);
        assert_eq!(F16::NAN.min(F16::ONE), F16::ONE);
    }

    #[test]
    fn neg_and_abs() {
        assert_eq!(F16::ONE.neg(), F16(0xbc00));
        assert_eq!(F16(0xbc00).abs(), F16::ONE);
        assert_eq!(F16::ZERO.neg(), F16::NEG_ZERO);
    }

    #[test]
    fn subnormals_to_f32_exact() {
        for bits in 1..0x0400u16 {
            let h = F16(bits);
            let expected = bits as f32 * 2.0f32.powi(-24);
            assert_eq!(h.to_f32(), expected, "subnormal {bits:#06x}");
        }
    }

    #[test]
    fn to_f32_matches_oracle_for_all_bit_patterns() {
        // Scalar and chunked conversion must equal the readable oracle on
        // every one of the 65536 binary16 patterns, bit for bit (including
        // NaN payloads, which callers may bit-compare).
        let src: Vec<F16> = (0..=u16::MAX).map(F16).collect();
        let batch = F16::vec_to_f32(&src);
        for (&h, &got) in src.iter().zip(&batch) {
            let want = to_f32_oracle(h).to_bits();
            assert_eq!(h.to_f32().to_bits(), want, "scalar, bits {:#06x}", h.0);
            assert_eq!(got.to_bits(), want, "slice, bits {:#06x}", h.0);
        }
    }

    /// Asserts that scalar and chunked `from_f32` equal the oracle on
    /// every input.
    fn assert_from_f32_matches_oracle(inputs: &[f32]) {
        let batch = F16::vec_from_f32(inputs);
        for (&v, got) in inputs.iter().zip(&batch) {
            let want = from_f32_oracle(v).0;
            let bits = v.to_bits();
            assert_eq!(F16::from_f32(v).0, want, "scalar, input {bits:#010x}");
            assert_eq!(got.0, want, "slice, input {bits:#010x}");
        }
    }

    #[test]
    fn from_f32_matches_oracle_on_structured_sweep() {
        // Every f16 value, every half-ulp midpoint around it, values just
        // above/below the midpoints, and a dense pseudorandom sweep.
        let mut inputs: Vec<f32> = Vec::new();
        for bits in 0..=u16::MAX {
            let f = to_f32_oracle(F16(bits));
            inputs.push(f);
            let fb = f.to_bits();
            // Perturb around the exact value in f32 ulps (crosses the
            // rounding boundaries of from_f32's 13 discarded bits).
            for delta in [1u32, 0xFFF, 0x1000, 0x1001] {
                inputs.push(f32::from_bits(fb.wrapping_add(delta)));
                inputs.push(f32::from_bits(fb.wrapping_sub(delta)));
            }
        }
        // Dense LCG sweep over raw f32 bit patterns (hits subnormals,
        // overflow range and NaNs).
        let mut state = 0x2545_f491u32;
        for _ in 0..200_000 {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            inputs.push(f32::from_bits(state));
        }
        assert_from_f32_matches_oracle(&inputs);
    }

    #[test]
    #[ignore = "all 2^32 floats: ~20 s in release; run with --ignored"]
    fn from_f32_matches_oracle_on_every_f32() {
        let mut inputs = vec![0.0f32; 1 << 16];
        for high in 0..=u16::MAX as u32 {
            for (low, v) in inputs.iter_mut().enumerate() {
                *v = f32::from_bits(high << 16 | low as u32);
            }
            assert_from_f32_matches_oracle(&inputs);
        }
    }

    #[test]
    fn slice_converters_handle_remainders_and_empty() {
        for len in [0usize, 1, 7, 15, 16, 17, 33] {
            let src: Vec<f32> = (0..len).map(|i| i as f32 * 0.37 - 3.0).collect();
            let half = F16::vec_from_f32(&src);
            assert_eq!(half.len(), len);
            for (&v, h) in src.iter().zip(&half) {
                assert_eq!(h.0, F16::from_f32(v).0);
            }
            let back = F16::vec_to_f32(&half);
            for (h, &f) in half.iter().zip(&back) {
                assert_eq!(f.to_bits(), h.to_f32().to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "lengths must match")]
    fn slice_length_mismatch_panics() {
        let mut out = [F16::ZERO; 2];
        F16::from_f32_slice(&[1.0], &mut out);
    }

    #[test]
    fn total_cmp_ordering() {
        let mut vals = [
            F16::from_f32(3.0),
            F16::NEG_INFINITY,
            F16::from_f32(-1.0),
            F16::ZERO,
            F16::INFINITY,
        ];
        vals.sort_by(|a, b| a.total_cmp(*b));
        let f: Vec<f32> = vals.iter().map(|v| v.to_f32()).collect();
        assert_eq!(f, vec![f32::NEG_INFINITY, -1.0, 0.0, 3.0, f32::INFINITY]);
    }
}
