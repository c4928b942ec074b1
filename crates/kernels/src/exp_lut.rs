//! Exponential kernels: the paper's `vgather` FP16 LUT and the polynomial
//! baselines it replaces (Section 5.2.1).
//!
//! Safe softmax guarantees non-positive inputs, so only `x <= 0` needs
//! coverage: 32768 FP16 bit patterns, 64 KiB — exactly within `vgather`'s
//! 65535-byte offset reach. The table is precomputed at >= 32-bit precision
//! during initialization (0.8% of TCM), so LUT-exp is *more* accurate than a
//! 16-bit polynomial while costing one masked shift plus one gather per 64
//! elements.

use hexsim::f16::F16;
use hexsim::hvx::{HvxVec, HVX_HALVES};
use hexsim::prelude::*;

/// Which exponential implementation a softmax/attention kernel uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ExpMethod {
    /// Upcast to FP32, polynomial `exp2` with exponent stuffing, downcast.
    F32Poly,
    /// FP16 polynomial `exp2` (degree 3) — faster but least accurate.
    F16Poly,
    /// The paper's 64 KiB FP16 LUT via `vgather`.
    Lut16,
}

impl ExpMethod {
    /// Label used in figures and reports.
    pub fn label(self) -> &'static str {
        match self {
            ExpMethod::F32Poly => "F32 exp",
            ExpMethod::F16Poly => "F16 exp",
            ExpMethod::Lut16 => "LUT16 exp",
        }
    }
}

/// Number of LUT entries (all FP16 bit patterns with the sign bit cleared).
pub const LUT_ENTRIES: usize = 32768;
/// LUT footprint in bytes (64 KiB, ~0.8% of the 8 MiB TCM).
pub const LUT_BYTES: usize = LUT_ENTRIES * 2;

/// The precomputed `exp` lookup table resident in TCM.
pub struct ExpLut16 {
    /// TCM base address of the 64 KiB table.
    pub base: TcmAddr,
    /// Hoisted sign-clear mask register.
    mask: HvxVec,
}

impl ExpLut16 {
    /// Allocates and fills the table: entry `m` (an FP16 bit pattern with
    /// sign cleared) holds `exp(-value(m))` computed in f64 and rounded once
    /// to FP16. Runs at system initialization; charges no inference-time
    /// cost (paper Section 5.2.1). A cost-only context reserves the TCM but
    /// leaves the table unfilled, since its gathers compute no lanes.
    pub fn build(ctx: &mut NpuContext) -> SimResult<Self> {
        let base = ctx.tcm_alloc(LUT_BYTES as u32, 128)?;
        if ctx.mode == ExecMode::Functional {
            let mut bytes = vec![0u8; LUT_BYTES];
            for m in 0..LUT_ENTRIES as u16 {
                let magnitude = F16(m).to_f32() as f64;
                let value = F16::from_f64((-magnitude).exp());
                bytes[2 * m as usize..2 * m as usize + 2].copy_from_slice(&value.0.to_le_bytes());
            }
            ctx.tcm_poke(base, &bytes);
        }
        let mask = HvxVec::splat_h(0x7fff);
        Ok(ExpLut16 { base, mask })
    }

    /// Computes `exp` of 64 FP16 lanes (all expected `<= 0`) via `vgather`:
    /// clear the sign bit, shift left one bit to form byte offsets, gather.
    /// Three instructions, one of which is the 24-48-packet gather.
    pub fn exp_vec(&self, ctx: &mut NpuContext, v: &HvxVec) -> HvxVec {
        let magnitude = ctx.vand_b(v, &self.mask);
        let offsets = ctx.vshl_h(&magnitude, 1);
        ctx.vgather_h(self.base, &offsets, true)
    }

    /// Scalar view of the table: exact same entry a `vgather` lane would
    /// fetch for input `x`, read with one 2-byte TCM peek. A kernel that
    /// evaluates a whole row borrows the table once through [`RowExp`].
    pub fn exp_scalar(&self, ctx: &NpuContext, x: F16) -> F16 {
        let m = (x.0 & 0x7fff) as usize;
        let bytes = ctx.tcm_peek(self.base.offset(2 * m as u32), 2);
        F16(u16::from_le_bytes([bytes[0], bytes[1]]))
    }
}

/// FP32 polynomial exponential of 64 FP16 lanes.
///
/// Functional result: correctly rounded through f32 (the paper's F32 path
/// carries >= 1e-7 relative error, below FP16 resolution). Cost: widen +
/// two 20-instruction polynomial chains + narrow, plus 10 modeled stall
/// cycles for the sequential dependences VLIW cannot hide (Section 5.2.1).
fn exp_f32_vec(ctx: &mut NpuContext, v: &HvxVec) -> HvxVec {
    let (lo, hi) = ctx.vcvt_hf_sf(v);
    // Modeled polynomial: range reduction, degree-5 poly, exponent insert
    // (20 instructions per 32-lane register; two registers).
    ctx.cost.charge_hvx_packets(2 * 20);
    ctx.stall(10);
    let mut elo = HvxVec::zero();
    let mut ehi = HvxVec::zero();
    for i in 0..32 {
        elo.set_sf(i, lo.get_sf(i).exp());
        ehi.set_sf(i, hi.get_sf(i).exp());
    }
    ctx.vcvt_sf_hf(&elo, &ehi)
}

/// FP16 polynomial exponential of 64 lanes: `exp2`-based with a degree-3
/// Taylor expansion of the fractional part, all arithmetic in genuine FP16
/// (so its truncation error is visible to accuracy tests, matching the
/// paper's note that the LUT beats the 16-bit polynomial on accuracy).
fn exp_f16_vec(ctx: &mut NpuContext, v: &HvxVec) -> HvxVec {
    // Cost: ~16 FP16 instructions (scale by log2e, floor split, 3-term
    // Horner, exponent stuffing) + qfloat converts + 20 stall cycles from
    // the serial Horner chain.
    let qf = 4 * ctx.device().qf16_convert_ops();
    ctx.cost.charge_hvx_packets(16 + qf);
    ctx.stall(20);
    let mut out = HvxVec::zero();
    for i in 0..HVX_HALVES {
        out.set_hf(i, exp_f16_scalar(v.get_hf(i)));
    }
    out
}

/// Scalar FP16 polynomial `exp` (the per-lane semantics of
/// [`ExpMethod::F16Poly`]), public so tile-level kernels can share it.
pub fn exp_f16_scalar(x: F16) -> F16 {
    if x.is_nan() {
        return F16::NAN;
    }
    let xf = x.to_f32();
    if xf > 0.0 {
        // Safe softmax never produces positive inputs; saturate like the
        // kernel's clamp would.
        return F16::from_f32(xf.exp());
    }
    // y = x * log2(e), split into integer k and fraction f in [0, 1).
    let log2e = F16::from_f32(std::f32::consts::LOG2_E);
    let y = x.mul(log2e);
    let yf = y.to_f32();
    let k = yf.floor();
    if k < -25.0 {
        return F16::ZERO;
    }
    let f = F16::from_f32(yf - k);
    // 2^f ~= 1 + f*(c1 + f*(c2 + f*c3)) evaluated in FP16 (Horner), with
    // coefficients fitted for [0,1): c1=0.6931, c2=0.2416, c3=0.0520.
    let c1 = F16::from_f32(std::f32::consts::LN_2);
    let c2 = F16::from_f32(0.240_226_5);
    let c3 = F16::from_f32(0.052_0);
    let mut p = c3.mul(f).add(c2);
    p = p.mul(f).add(c1);
    p = p.mul(f).add(F16::ONE);
    // Multiply by 2^k via exponent-field arithmetic (exact).
    scale_by_pow2(p, k as i32)
}

/// Multiplies an FP16 value by `2^k` exactly via exponent manipulation,
/// falling to subnormals or zero on underflow.
fn scale_by_pow2(v: F16, k: i32) -> F16 {
    F16::from_f32(v.to_f32() * (k as f32).exp2())
}

/// Charges the cost of one 64-lane exponential without computing it, for
/// tile-level kernels that evaluate the same per-lane function scalar-side.
/// Kept in exact agreement with the vector kernels (see the
/// `charge_exp_matches_vector_kernels` test).
pub fn charge_exp(ctx: &mut NpuContext, method: ExpMethod) {
    match method {
        ExpMethod::F32Poly => {
            // Widen + 2 x 20-instruction polynomial + narrow + stalls.
            ctx.cost.charge_hvx_packets(1 + 40 + 1);
            ctx.stall(10);
        }
        ExpMethod::F16Poly => {
            let qf = 4 * ctx.device().qf16_convert_ops();
            ctx.cost.charge_hvx_packets(16 + qf);
            ctx.stall(20);
        }
        ExpMethod::Lut16 => {
            // Mask + shift + pipelined vgather.
            ctx.cost.charge_hvx_packets(2);
            ctx.cost.charge_vgather(true);
        }
    }
}

/// Dispatches one 64-lane exponential by method.
pub fn exp_vec(ctx: &mut NpuContext, lut: &ExpLut16, method: ExpMethod, v: &HvxVec) -> HvxVec {
    match method {
        ExpMethod::F32Poly => exp_f32_vec(ctx, v),
        ExpMethod::F16Poly => exp_f16_vec(ctx, v),
        ExpMethod::Lut16 => lut.exp_vec(ctx, v),
    }
}

/// Scalar exponential for tile-level kernels, per method: the per-lane
/// values of [`exp_vec`], with the operands a row needs fetched once. The
/// LUT variant borrows the TCM-resident table with one bounds-checked
/// read and then indexes it per element, reading exactly the entry
/// [`ExpLut16::exp_scalar`] reads.
#[derive(Clone, Copy)]
pub enum RowExp<'a> {
    /// [`ExpMethod::F32Poly`].
    F32Poly,
    /// [`ExpMethod::F16Poly`].
    F16Poly,
    /// [`ExpMethod::Lut16`]: the table's 64 KiB of TCM bytes.
    Lut16(&'a [u8; LUT_BYTES]),
}

impl<'a> RowExp<'a> {
    /// Fetches what `method` needs from `ctx`.
    pub fn new(ctx: &'a NpuContext, lut: &ExpLut16, method: ExpMethod) -> Self {
        match method {
            ExpMethod::F32Poly => RowExp::F32Poly,
            ExpMethod::F16Poly => RowExp::F16Poly,
            ExpMethod::Lut16 => RowExp::Lut16(
                ctx.tcm_peek(lut.base, LUT_BYTES)
                    .try_into()
                    .expect("a peek of LUT_BYTES is the table"),
            ),
        }
    }

    /// `exp(x)`, bit for bit the lane a vector kernel would compute.
    #[inline]
    pub fn exp(self, x: F16) -> F16 {
        match self {
            RowExp::F32Poly => F16::from_f32(x.to_f32().exp()),
            RowExp::F16Poly => exp_f16_scalar(x),
            RowExp::Lut16(table) => {
                let m = 2 * (x.0 & 0x7fff) as usize;
                F16(u16::from_le_bytes([table[m], table[m + 1]]))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> NpuContext {
        NpuContext::new(DeviceProfile::v75(), ExecMode::Functional)
    }

    #[test]
    fn lut_fits_paper_budget() {
        assert_eq!(LUT_BYTES, 64 * 1024);
        let frac = LUT_BYTES as f64 / (8.0 * 1024.0 * 1024.0);
        assert!((frac - 0.0078).abs() < 0.001, "~0.8% of TCM");
    }

    #[test]
    fn lut_exp_matches_f64_exp_to_half_ulp() {
        let mut c = ctx();
        let lut = ExpLut16::build(&mut c).unwrap();
        for bits in [0x0000u16, 0x3c00, 0x4200, 0x4900, 0x5640, 0x7bff] {
            let x = F16(bits | 0x8000); // Negative input.
            let got = lut.exp_scalar(&c, x);
            let expect = F16::from_f64((x.to_f32() as f64).exp());
            assert_eq!(got, expect, "x={}", x.to_f32());
        }
        // exp(0) = 1 exactly.
        assert_eq!(lut.exp_scalar(&c, F16::ZERO), F16::ONE);
        // exp(-inf) = 0.
        assert_eq!(lut.exp_scalar(&c, F16::NEG_INFINITY), F16::ZERO);
    }

    #[test]
    fn lut_vector_matches_scalar() {
        let mut c = ctx();
        let lut = ExpLut16::build(&mut c).unwrap();
        let mut v = HvxVec::zero();
        for i in 0..HVX_HALVES {
            v.set_hf(i, F16::from_f32(-(i as f32) * 0.17));
        }
        let out = lut.exp_vec(&mut c, &v);
        for i in 0..HVX_HALVES {
            assert_eq!(out.get_hf(i), lut.exp_scalar(&c, v.get_hf(i)), "lane {i}");
        }
    }

    #[test]
    fn vector_gather_cost_is_three_instructions() {
        let mut c = ctx();
        let lut = ExpLut16::build(&mut c).unwrap();
        let v = HvxVec::splat_h(F16::from_f32(-1.0).0);
        let before = c.cost.counters().hvx_instructions;
        let gathers = c.cost.counters().vgathers;
        let _ = lut.exp_vec(&mut c, &v);
        // mask + shift + gather(24 packets pipelined).
        assert_eq!(c.cost.counters().vgathers - gathers, 1);
        assert_eq!(c.cost.counters().hvx_instructions - before, 2 + 24);
    }

    #[test]
    fn f16_poly_is_close_but_less_accurate_than_lut() {
        let mut c = ctx();
        let lut = ExpLut16::build(&mut c).unwrap();
        let mut max_err_poly = 0.0f64;
        let mut max_err_lut = 0.0f64;
        for i in 1..2000 {
            let x = F16::from_f32(-(i as f32) * 0.005);
            let exact = (x.to_f32() as f64).exp();
            let poly = exp_f16_scalar(x).to_f32() as f64;
            let lutv = lut.exp_scalar(&c, x).to_f32() as f64;
            max_err_poly = max_err_poly.max(((poly - exact) / exact).abs());
            max_err_lut = max_err_lut.max(((lutv - exact) / exact).abs());
        }
        // Paper: LUT (32-bit precomputation) is more accurate than the
        // 16-bit polynomial.
        assert!(
            max_err_lut < max_err_poly,
            "lut {max_err_lut} poly {max_err_poly}"
        );
        // And the polynomial is still a usable exp (sub-2% relative error).
        assert!(max_err_poly < 0.02, "poly max rel err {max_err_poly}");
        // LUT stays within one FP16 ULP (~1e-3 relative).
        assert!(max_err_lut < 1.2e-3, "lut max rel err {max_err_lut}");
    }

    #[test]
    fn f32_path_matches_libm_closely() {
        let mut c = ctx();
        let mut v = HvxVec::zero();
        for i in 0..HVX_HALVES {
            v.set_hf(i, F16::from_f32(-(i as f32) * 0.1));
        }
        let out = exp_f32_vec(&mut c, &v);
        for i in 0..HVX_HALVES {
            let expect = F16::from_f32(v.get_hf(i).to_f32().exp());
            assert_eq!(out.get_hf(i), expect, "lane {i}");
        }
    }

    #[test]
    fn per_element_cost_ordering_matches_figure_14() {
        // LUT < F16 poly < F32 poly per element, the premise of Figure 14.
        let mut c = ctx();
        let lut = ExpLut16::build(&mut c).unwrap();
        let v = HvxVec::splat_h(F16::from_f32(-0.5).0);
        let cost_of = |c: &mut NpuContext, m: ExpMethod| {
            let t0 = c.cost.engine_secs(hexsim::cost::Engine::Hvx);
            let _ = exp_vec(c, &lut, m, &v);
            c.cost.engine_secs(hexsim::cost::Engine::Hvx) - t0
        };
        let t_lut = cost_of(&mut c, ExpMethod::Lut16);
        let t_f16 = cost_of(&mut c, ExpMethod::F16Poly);
        let t_f32 = cost_of(&mut c, ExpMethod::F32Poly);
        assert!(t_lut < t_f16 && t_f16 < t_f32);
        let f32_speedup = t_f32 / t_lut;
        let f16_speedup = t_f16 / t_lut;
        // Raw per-register bounds; end-to-end softmax dilutes these toward
        // the paper's 1.26-2.19x (F32) and <=1.60x (F16).
        assert!((1.2..2.6).contains(&f32_speedup), "f32/lut {f32_speedup}");
        assert!((1.1..1.8).contains(&f16_speedup), "f16/lut {f16_speedup}");
    }

    #[test]
    fn exp_f16_scalar_edge_cases() {
        assert_eq!(exp_f16_scalar(F16::ZERO), F16::ONE);
        assert_eq!(exp_f16_scalar(F16::NEG_INFINITY), F16::ZERO);
        assert!(exp_f16_scalar(F16::NAN).is_nan());
        // Very negative underflows to zero.
        assert_eq!(exp_f16_scalar(F16::from_f32(-30.0)), F16::ZERO);
    }

    #[test]
    fn charge_exp_matches_vector_kernels() {
        for method in [ExpMethod::F32Poly, ExpMethod::F16Poly, ExpMethod::Lut16] {
            let mut c1 = ctx();
            let lut = ExpLut16::build(&mut c1).unwrap();
            let v = HvxVec::splat_h(F16::from_f32(-1.0).0);
            let before = c1.cost.counters().hvx_instructions;
            let _ = exp_vec(&mut c1, &lut, method, &v);
            let vec_charge = c1.cost.counters().hvx_instructions - before;

            let mut c2 = ctx();
            let before = c2.cost.counters().hvx_instructions;
            charge_exp(&mut c2, method);
            let plan_charge = c2.cost.counters().hvx_instructions - before;
            assert_eq!(vec_charge, plan_charge, "{method:?}");
        }
    }

    #[test]
    fn lut_build_charges_no_inference_cost() {
        let mut c = ctx();
        let _ = ExpLut16::build(&mut c).unwrap();
        assert_eq!(c.cost.counters().hvx_instructions, 0);
        assert_eq!(c.cost.counters().dma_bytes, 0);
    }
}
