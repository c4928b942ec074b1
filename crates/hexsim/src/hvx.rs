//! HVX vector register datapath: 1024-bit values and pure lane operations.
//!
//! An HVX context has 32 vector registers of 1024 bits (paper Section
//! 3.1.2). This module provides the register value type [`HvxVec`] and the
//! *functional* semantics of the lane operations the paper's kernels use;
//! instruction costs are charged by [`crate::ctx::NpuContext`], which wraps
//! these helpers. Lane widths follow HVX naming: `b` = byte (128 lanes),
//! `h` = halfword (64 lanes), `w`/`sf` = word / single float (32 lanes),
//! `hf` = half float (64 lanes).

use crate::f16::F16;

/// Bytes per HVX vector register (1024 bits).
pub const HVX_BYTES: usize = 128;
/// Halfword (16-bit) lanes per register.
pub const HVX_HALVES: usize = 64;
/// Word (32-bit) lanes per register.
const HVX_WORDS: usize = 32;

/// A 1024-bit HVX vector register value.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct HvxVec(pub [u8; HVX_BYTES]);

impl Default for HvxVec {
    #[inline]
    fn default() -> Self {
        HvxVec([0u8; HVX_BYTES])
    }
}

impl std::fmt::Debug for HvxVec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "HvxVec[")?;
        for i in 0..4 {
            write!(f, "{} ", self.get_hf(i))?;
        }
        write!(f, "... ]")
    }
}

impl HvxVec {
    /// The all-zeros register.
    #[inline]
    pub fn zero() -> Self {
        Self::default()
    }

    /// Builds a register from raw bytes.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not exactly 128 bytes long.
    pub fn from_bytes(bytes: &[u8]) -> Self {
        let mut v = [0u8; HVX_BYTES];
        v.copy_from_slice(bytes);
        HvxVec(v)
    }

    /// Reads halfword lane `i` (little-endian).
    #[inline]
    pub fn get_h(&self, i: usize) -> u16 {
        u16::from_le_bytes([self.0[2 * i], self.0[2 * i + 1]])
    }

    /// Writes halfword lane `i`.
    #[inline]
    pub fn set_h(&mut self, i: usize, v: u16) {
        self.0[2 * i..2 * i + 2].copy_from_slice(&v.to_le_bytes());
    }

    /// Reads word lane `i`.
    #[inline]
    fn get_w(&self, i: usize) -> u32 {
        u32::from_le_bytes([
            self.0[4 * i],
            self.0[4 * i + 1],
            self.0[4 * i + 2],
            self.0[4 * i + 3],
        ])
    }

    /// Writes word lane `i`.
    #[inline]
    fn set_w(&mut self, i: usize, v: u32) {
        self.0[4 * i..4 * i + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Reads half-float lane `i`.
    #[inline]
    pub fn get_hf(&self, i: usize) -> F16 {
        F16(self.get_h(i))
    }

    /// Writes half-float lane `i`.
    #[inline]
    pub fn set_hf(&mut self, i: usize, v: F16) {
        self.set_h(i, v.0);
    }

    /// Reads single-float lane `i`.
    #[inline]
    pub fn get_sf(&self, i: usize) -> f32 {
        f32::from_bits(self.get_w(i))
    }

    /// Writes single-float lane `i`.
    #[inline]
    pub fn set_sf(&mut self, i: usize, v: f32) {
        self.set_w(i, v.to_bits());
    }

    /// Extracts all 64 half-float lanes.
    pub fn to_hf_vec(&self) -> Vec<F16> {
        (0..HVX_HALVES).map(|i| self.get_hf(i)).collect()
    }

    /// Broadcast a halfword pattern to all 64 lanes.
    pub fn splat_h(v: u16) -> Self {
        let mut out = HvxVec::zero();
        for i in 0..HVX_HALVES {
            out.set_h(i, v);
        }
        out
    }

    /// Broadcast a byte to all 128 lanes.
    pub fn splat_b(v: u8) -> Self {
        HvxVec([v; HVX_BYTES])
    }
}

/// Elementwise binary op over half-float lanes.
pub fn map2_hf(a: &HvxVec, b: &HvxVec, f: impl Fn(F16, F16) -> F16) -> HvxVec {
    let mut out = HvxVec::zero();
    for i in 0..HVX_HALVES {
        out.set_hf(i, f(a.get_hf(i), b.get_hf(i)));
    }
    out
}

/// Widens the 64 half-float lanes of `v` to FP32 (exactly).
fn widen_hf(v: &HvxVec) -> [f32; HVX_HALVES] {
    let mut out = [0.0f32; HVX_HALVES];
    for (o, h) in out.iter_mut().zip(v.0.chunks_exact(2)) {
        *o = F16(u16::from_le_bytes([h[0], h[1]])).to_f32();
    }
    out
}

/// Elementwise FP32 op over half-float lanes: both registers widen to FP32
/// (exactly), `f` runs on every lane, and each result rounds once to FP16.
/// With `+`, `-` or `*` this is [`map2_hf`] with [`F16::add`],
/// [`F16::sub`] or [`F16::mul`], which are defined as exactly that.
pub(crate) fn map2_hf_f32(a: &HvxVec, b: &HvxVec, f: impl Fn(f32, f32) -> f32) -> HvxVec {
    let (a, b) = (widen_hf(a), widen_hf(b));
    let mut out = HvxVec::zero();
    for ((o, &x), &y) in out.0.chunks_exact_mut(2).zip(&a).zip(&b) {
        o.copy_from_slice(&F16::from_f32(f(x, y)).0.to_le_bytes());
    }
    out
}

/// Elementwise unary op over half-float lanes.
pub fn map_hf(a: &HvxVec, f: impl Fn(F16) -> F16) -> HvxVec {
    let mut out = HvxVec::zero();
    for i in 0..HVX_HALVES {
        out.set_hf(i, f(a.get_hf(i)));
    }
    out
}

/// Elementwise binary op over byte lanes.
pub fn map2_b(a: &HvxVec, b: &HvxVec, f: impl Fn(u8, u8) -> u8) -> HvxVec {
    let mut out = HvxVec::zero();
    for i in 0..HVX_BYTES {
        out.0[i] = f(a.0[i], b.0[i]);
    }
    out
}

/// `vlut16` semantics: each of the 128 byte lanes of `idx` (low 4 bits)
/// selects one of 16 halfword `table` entries; the 128 halfword results fill
/// a register pair (lanes 0-63 in `.0`, lanes 64-127 in `.1`).
///
/// The real instruction's lane crossing is more intricate; the simulator
/// models the architectural effect (16-entry LUT, byte indices, pair
/// output), which is what the paper's Figure 9 dequantization path uses.
pub fn vlut16(idx: &HvxVec, table: &[u16; 16]) -> (HvxVec, HvxVec) {
    let mut out = [HvxVec::zero(); 2];
    for (dst, idx) in out.iter_mut().zip(idx.0.chunks_exact(HVX_HALVES)) {
        for (d, &i) in dst.0.chunks_exact_mut(2).zip(idx) {
            d.copy_from_slice(&table[(i & 0x0f) as usize].to_le_bytes());
        }
    }
    (out[0], out[1])
}

/// Interleave ("shuffle") the halfword lanes of two registers:
/// out pair = (a0,b0,a1,b1,...): `.0` holds lanes from the low half,
/// `.1` from the high half. This is the primitive used to build the HMX
/// two-row interleaved tile layout (paper Figure 4a).
pub fn vshuff_h(a: &HvxVec, b: &HvxVec) -> (HvxVec, HvxVec) {
    let mut out = [HvxVec::zero(); 2];
    let halves =
        a.0.chunks_exact(HVX_BYTES / 2)
            .zip(b.0.chunks_exact(HVX_BYTES / 2));
    for (dst, (a, b)) in out.iter_mut().zip(halves) {
        for ((d, a), b) in dst
            .0
            .chunks_exact_mut(4)
            .zip(a.chunks_exact(2))
            .zip(b.chunks_exact(2))
        {
            d[..2].copy_from_slice(a);
            d[2..].copy_from_slice(b);
        }
    }
    (out[0], out[1])
}

/// Deinterleave ("deal") halfword lanes: inverse of [`vshuff_h`].
pub fn vdeal_h(lo: &HvxVec, hi: &HvxVec) -> (HvxVec, HvxVec) {
    let mut a = HvxVec::zero();
    let mut b = HvxVec::zero();
    for i in 0..HVX_HALVES {
        let (src, lane) = if 2 * i < HVX_HALVES {
            (lo, 2 * i)
        } else {
            (hi, 2 * i - HVX_HALVES)
        };
        a.set_h(i, src.get_h(lane));
        b.set_h(i, src.get_h(lane + 1));
    }
    (a, b)
}

/// Zero-extends the 128 byte lanes into 128 halfword lanes (register pair).
pub fn vunpack_ub_h(v: &HvxVec) -> (HvxVec, HvxVec) {
    let mut lo = HvxVec::zero();
    let mut hi = HvxVec::zero();
    for i in 0..HVX_BYTES {
        let val = v.0[i] as u16;
        if i < HVX_HALVES {
            lo.set_h(i, val);
        } else {
            hi.set_h(i - HVX_HALVES, val);
        }
    }
    (lo, hi)
}

/// Sign-extends the 128 byte lanes (as i8) into halfword lanes (as i16).
pub fn vunpack_b_h(v: &HvxVec) -> (HvxVec, HvxVec) {
    let mut lo = HvxVec::zero();
    let mut hi = HvxVec::zero();
    for i in 0..HVX_BYTES {
        let val = v.0[i] as i8 as i16 as u16;
        if i < HVX_HALVES {
            lo.set_h(i, val);
        } else {
            hi.set_h(i - HVX_HALVES, val);
        }
    }
    (lo, hi)
}

/// Converts signed 16-bit integer lanes to half-float lanes.
pub fn vcvt_h_hf(v: &HvxVec) -> HvxVec {
    let mut out = HvxVec::zero();
    for i in 0..HVX_HALVES {
        let x = v.get_h(i) as i16;
        out.set_hf(i, F16::from_f32(x as f32));
    }
    out
}

/// Widens 64 half-float lanes to 64 single-float lanes (register pair).
pub fn vcvt_hf_sf(v: &HvxVec) -> (HvxVec, HvxVec) {
    let mut lo = HvxVec::zero();
    let mut hi = HvxVec::zero();
    for i in 0..HVX_HALVES {
        let x = v.get_hf(i).to_f32();
        if i < HVX_WORDS {
            lo.set_sf(i, x);
        } else {
            hi.set_sf(i - HVX_WORDS, x);
        }
    }
    (lo, hi)
}

/// Narrows a single-float register pair to one half-float register (RTNE).
pub fn vcvt_sf_hf(lo: &HvxVec, hi: &HvxVec) -> HvxVec {
    let mut out = HvxVec::zero();
    for i in 0..HVX_WORDS {
        out.set_hf(i, F16::from_f32(lo.get_sf(i)));
        out.set_hf(i + HVX_WORDS, F16::from_f32(hi.get_sf(i)));
    }
    out
}

/// Logical shift right on each halfword lane.
pub fn vshr_h(v: &HvxVec, n: u32) -> HvxVec {
    let mut out = HvxVec::zero();
    for i in 0..HVX_HALVES {
        out.set_h(i, v.get_h(i) >> n);
    }
    out
}

/// Logical shift left on each halfword lane.
pub fn vshl_h(v: &HvxVec, n: u32) -> HvxVec {
    let mut out = HvxVec::zero();
    for i in 0..HVX_HALVES {
        out.set_h(i, v.get_h(i) << n);
    }
    out
}

/// Logical shift right on each byte lane.
pub fn vshr_b(v: &HvxVec, n: u32) -> HvxVec {
    let mut out = HvxVec::zero();
    for i in 0..HVX_BYTES {
        out.0[i] = v.0[i] >> n;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_accessors_roundtrip() {
        let mut v = HvxVec::zero();
        v.set_h(0, 0xBEEF);
        v.set_h(63, 0x1234);
        v.set_w(8, 0xDEAD_BEEF);
        assert_eq!(v.get_h(0), 0xBEEF);
        assert_eq!(v.get_h(63), 0x1234);
        assert_eq!(v.get_w(8), 0xDEAD_BEEF);
        v.set_hf(5, F16::from_f32(1.5));
        assert_eq!(v.get_hf(5).to_f32(), 1.5);
        v.set_sf(3, -2.25);
        assert_eq!(v.get_sf(3), -2.25);
    }

    #[test]
    fn vlut16_maps_low_nibbles() {
        let mut table = [0u16; 16];
        for (i, t) in table.iter_mut().enumerate() {
            *t = (i as u16) * 100;
        }
        let mut idx = HvxVec::zero();
        for i in 0..HVX_BYTES {
            idx.0[i] = (i % 16) as u8 | 0xf0; // High nibble must be ignored.
        }
        let (lo, hi) = vlut16(&idx, &table);
        for i in 0..HVX_HALVES {
            assert_eq!(lo.get_h(i), ((i % 16) as u16) * 100);
            assert_eq!(hi.get_h(i), (((i + 64) % 16) as u16) * 100);
        }
    }

    #[test]
    fn shuff_then_deal_is_identity() {
        let mut a = HvxVec::zero();
        let mut b = HvxVec::zero();
        for i in 0..HVX_HALVES {
            a.set_h(i, i as u16);
            b.set_h(i, 1000 + i as u16);
        }
        let (lo, hi) = vshuff_h(&a, &b);
        // Interleaving property: lo = a0,b0,a1,b1,...
        assert_eq!(lo.get_h(0), 0);
        assert_eq!(lo.get_h(1), 1000);
        assert_eq!(lo.get_h(2), 1);
        let (a2, b2) = vdeal_h(&lo, &hi);
        assert_eq!(a, a2);
        assert_eq!(b, b2);
    }

    #[test]
    fn unpack_signed_vs_unsigned() {
        let mut v = HvxVec::zero();
        v.0[0] = 0xff;
        v.0[127] = 0x7f;
        let (ulo, uhi) = vunpack_ub_h(&v);
        assert_eq!(ulo.get_h(0), 255);
        assert_eq!(uhi.get_h(63), 127);
        let (slo, shi) = vunpack_b_h(&v);
        assert_eq!(slo.get_h(0) as i16, -1);
        assert_eq!(shi.get_h(63) as i16, 127);
    }

    #[test]
    fn int_to_halffloat_conversion() {
        let mut v = HvxVec::zero();
        v.set_h(0, (-8i16) as u16);
        v.set_h(1, 7);
        let out = vcvt_h_hf(&v);
        assert_eq!(out.get_hf(0).to_f32(), -8.0);
        assert_eq!(out.get_hf(1).to_f32(), 7.0);
    }

    #[test]
    fn widen_narrow_roundtrip() {
        let mut v = HvxVec::zero();
        for i in 0..HVX_HALVES {
            v.set_hf(i, F16::from_f32(i as f32 * 0.25 - 8.0));
        }
        let (lo, hi) = vcvt_hf_sf(&v);
        let back = vcvt_sf_hf(&lo, &hi);
        assert_eq!(v, back);
    }

    #[test]
    fn shifts() {
        let v = HvxVec::splat_h(0x8002);
        assert_eq!(vshr_h(&v, 1).get_h(0), 0x4001);
        assert_eq!(vshl_h(&v, 1).get_h(3), 0x0004);
        let b = HvxVec::splat_b(0xf3);
        assert_eq!(vshr_b(&b, 4).0[0], 0x0f);
    }

    #[test]
    fn map_helpers() {
        let a = HvxVec::splat_h(F16::from_f32(2.0).0);
        let b = HvxVec::splat_h(F16::from_f32(3.0).0);
        let sum = map2_hf(&a, &b, |x, y| x.add(y));
        assert_eq!(sum.get_hf(17).to_f32(), 5.0);
        let neg = map_hf(&a, |x| x.neg());
        assert_eq!(neg.get_hf(0).to_f32(), -2.0);
        let bytes = map2_b(&HvxVec::splat_b(0xf0), &HvxVec::splat_b(0x0f), |x, y| x | y);
        assert_eq!(bytes.0[99], 0xff);
    }
}
