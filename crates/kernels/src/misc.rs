//! Miscellaneous transformer vector kernels: RMSNorm, RoPE, SiLU, add.
//!
//! The paper classifies these as minor contributors ("we neglect their
//! impacts due to their small computation and memory access volumes",
//! Section 5.2.1) but the end-to-end pipeline still executes and charges
//! them, so their smallness is a measured property rather than an
//! assumption.
//!
//! Charges depend only on row lengths. In [`ExecMode::CostOnly`] every
//! kernel issues the same charges in the same order and skips its scalar
//! loop, leaving its row untouched.

use hexsim::f16::F16;
use hexsim::prelude::*;

/// RMS normalization of a length-`n` FP16 row: `y = x / rms(x) * w`.
///
/// FP32 accumulation for the sum of squares (one widen + two FMA-ish ops
/// per register), scalar rsqrt, then an FP16 scale pass. The length comes
/// from `w`, so cost-only callers may pass an empty `x`.
///
/// # Panics
///
/// Panics in functional mode if `x` and `w` differ in length.
pub fn rmsnorm(ctx: &mut NpuContext, x: &mut [F16], w: &[F16], eps: f32) {
    let n = w.len();
    let regs = n.div_ceil(64) as u64;
    // Pass 1: sum of squares in FP32.
    ctx.cost.charge_tcm_bytes(regs * 128);
    ctx.cost.charge_hvx_packets(regs * 3 + 12 + 6);
    // Pass 2: scale by inv_rms and the elementwise weight.
    let qf = 2 * ctx.device().qf16_convert_ops();
    ctx.cost.charge_tcm_bytes(regs * 256);
    ctx.cost.charge_hvx_packets(regs * (2 + qf) + 1);
    if ctx.mode == ExecMode::CostOnly {
        return;
    }
    assert_eq!(x.len(), n);
    let mut ss = 0.0f32;
    for v in x.iter() {
        let f = v.to_f32();
        ss += f * f;
    }
    let inv_rms = 1.0 / (ss / n as f32 + eps).sqrt();
    for (xi, wi) in x.iter_mut().zip(w) {
        let scaled = F16::from_f32(xi.to_f32() * inv_rms);
        *xi = scaled.mul(*wi);
    }
}

/// Rotary position embedding applied in place to one head vector
/// (`head_dim` FP16 values, rotated in half-split pairs) for position
/// `pos`.
pub fn rope(ctx: &mut NpuContext, x: &mut [F16], pos: usize, theta_base: f32) {
    let d = x.len();
    assert_eq!(d % 2, 0);
    let half = d / 2;
    let regs = d.div_ceil(64).max(1) as u64;
    // cos/sin table loads + 4 multiplies and 2 adds per register pair.
    let qf = 2 * ctx.device().qf16_convert_ops();
    ctx.cost.charge_tcm_bytes(regs * 256);
    ctx.cost.charge_hvx_packets(regs * (6 + qf));
    if ctx.mode == ExecMode::CostOnly {
        return;
    }
    for i in 0..half {
        let freq = theta_base.powf(-2.0 * (i as f32) / d as f32);
        let angle = pos as f32 * freq;
        let (sin, cos) = angle.sin_cos();
        let a = x[i].to_f32();
        let b = x[i + half].to_f32();
        x[i] = F16::from_f32(a * cos - b * sin);
        x[i + half] = F16::from_f32(a * sin + b * cos);
    }
}

/// SiLU activation `x * sigmoid(x)` applied in place (gate path of SwiGLU).
///
/// Modeled as a 12-instruction polynomial with a short dependency stall;
/// functional values use libm through f32 (the hardware approximation error
/// is below FP16 resolution).
pub fn silu(ctx: &mut NpuContext, x: &mut [F16]) {
    let regs = x.len().div_ceil(64) as u64;
    ctx.cost.charge_tcm_bytes(regs * 256);
    ctx.cost.charge_hvx_packets(regs * 12);
    ctx.stall(4);
    if ctx.mode == ExecMode::CostOnly {
        return;
    }
    for v in x.iter_mut() {
        let f = v.to_f32();
        *v = F16::from_f32(f / (1.0 + (-f).exp()));
    }
}

/// Elementwise FP16 multiply (SwiGLU gate application), in place on `a`.
pub fn mul_inplace(ctx: &mut NpuContext, a: &mut [F16], b: &[F16]) {
    assert_eq!(a.len(), b.len());
    let regs = a.len().div_ceil(64) as u64;
    let qf = ctx.device().qf16_convert_ops();
    ctx.cost.charge_tcm_bytes(regs * 384);
    ctx.cost.charge_hvx_packets(regs * (1 + qf));
    if ctx.mode == ExecMode::CostOnly {
        return;
    }
    for (x, y) in a.iter_mut().zip(b) {
        *x = x.mul(*y);
    }
}

/// Residual addition `a += b` in FP16.
pub fn add_inplace(ctx: &mut NpuContext, a: &mut [F16], b: &[F16]) {
    assert_eq!(a.len(), b.len());
    let regs = a.len().div_ceil(64) as u64;
    let qf = ctx.device().qf16_convert_ops();
    ctx.cost.charge_tcm_bytes(regs * 384);
    ctx.cost.charge_hvx_packets(regs * (1 + qf));
    if ctx.mode == ExecMode::CostOnly {
        return;
    }
    for (x, y) in a.iter_mut().zip(b) {
        *x = x.add(*y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> NpuContext {
        NpuContext::new(DeviceProfile::v75(), ExecMode::Functional)
    }

    fn vecf(vals: &[f32]) -> Vec<F16> {
        vals.iter().map(|&v| F16::from_f32(v)).collect()
    }

    #[test]
    fn rmsnorm_produces_unit_rms() {
        let mut c = ctx();
        let mut x = vecf(&[1.0, -2.0, 3.0, -4.0, 2.0, 0.5, -1.5, 2.5]);
        let w = vec![F16::ONE; 8];
        rmsnorm(&mut c, &mut x, &w, 1e-6);
        let ss: f32 = x.iter().map(|v| v.to_f32() * v.to_f32()).sum();
        let rms = (ss / 8.0).sqrt();
        assert!((rms - 1.0).abs() < 0.01, "rms {rms}");
    }

    #[test]
    fn rmsnorm_applies_weights() {
        let mut c = ctx();
        let mut x = vecf(&[2.0, 2.0]);
        let w = vecf(&[1.0, 0.5]);
        rmsnorm(&mut c, &mut x, &w, 1e-6);
        let ratio = x[0].to_f32() / x[1].to_f32();
        assert!((ratio - 2.0).abs() < 0.01);
    }

    #[test]
    fn rope_preserves_pair_norm() {
        let mut c = ctx();
        let mut x = vecf(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let orig = x.clone();
        rope(&mut c, &mut x, 17, 10000.0);
        // Rotation preserves the norm of each (i, i+half) pair.
        for i in 0..4 {
            let n0 = orig[i].to_f32().hypot(orig[i + 4].to_f32());
            let n1 = x[i].to_f32().hypot(x[i + 4].to_f32());
            assert!((n0 - n1).abs() < 0.02, "pair {i}: {n0} vs {n1}");
        }
    }

    #[test]
    fn rope_at_position_zero_is_identity() {
        let mut c = ctx();
        let mut x = vecf(&[1.0, 2.0, 3.0, 4.0]);
        let orig = x.clone();
        rope(&mut c, &mut x, 0, 10000.0);
        assert_eq!(x, orig);
    }

    #[test]
    fn silu_known_values() {
        let mut c = ctx();
        let mut x = vecf(&[0.0, 1.0, -1.0, 4.0]);
        silu(&mut c, &mut x);
        assert_eq!(x[0].to_f32(), 0.0);
        assert!((x[1].to_f32() - 0.7311).abs() < 0.001);
        assert!((x[2].to_f32() - -0.2689).abs() < 0.001);
        // Large positive saturates toward identity.
        assert!((x[3].to_f32() - 3.928).abs() < 0.01);
    }

    #[test]
    fn add_and_mul_inplace() {
        let mut c = ctx();
        let mut a = vecf(&[1.0, 2.0, 3.0]);
        add_inplace(&mut c, &mut a, &vecf(&[0.5, 0.5, 0.5]));
        assert_eq!(a[2].to_f32(), 3.5);
        mul_inplace(&mut c, &mut a, &vecf(&[2.0, 2.0, 2.0]));
        assert_eq!(a[0].to_f32(), 3.0);
    }

    #[test]
    fn functional_and_cost_only_charge_identically() {
        // Cost-only kernels skip their scalar loops but issue the same
        // charges in the same order, so every engine's seconds agree to the
        // bit. 200 elements leave a partial final register.
        type Kernel = fn(&mut NpuContext, &mut [F16], &[F16]);
        let rms: Kernel = |c, x, w| rmsnorm(c, x, w, 1e-5);
        let kernels: [(&str, Kernel); 5] = [
            ("rmsnorm", rms),
            ("rope", |c, x, _| rope(c, x, 7, 10000.0)),
            ("silu", |c, x, _| silu(c, x)),
            ("mul_inplace", mul_inplace),
            ("add_inplace", add_inplace),
        ];
        let vals: Vec<f32> = (0..200).map(|i| (i % 13) as f32 * 0.25 - 1.5).collect();
        let x0 = vecf(&vals);
        let w: Vec<F16> = x0.iter().rev().copied().collect();
        let run = |mode, kernel: Kernel, x: &mut [F16]| {
            let mut c = NpuContext::new(DeviceProfile::v75(), mode);
            kernel(&mut c, x, &w);
            (
                Engine::ALL.map(|e| c.cost.engine_secs(e).to_bits()),
                *c.cost.counters(),
            )
        };
        for (name, kernel) in kernels {
            let functional = run(ExecMode::Functional, kernel, &mut x0.clone());
            let mut x = x0.clone();
            assert_eq!(
                run(ExecMode::CostOnly, kernel, &mut x),
                functional,
                "{name}"
            );
            assert_eq!(x, x0, "{name}: cost-only mode wrote its row");
        }
        // RMSNorm takes its length from the weights, so cost-only callers
        // pass no row at all.
        assert_eq!(
            run(ExecMode::CostOnly, rms, &mut []),
            run(ExecMode::Functional, rms, &mut x0.clone())
        );
    }

    #[test]
    fn costs_scale_with_length() {
        let mut c = ctx();
        let mut small = vec![F16::ONE; 64];
        silu(&mut c, &mut small);
        let t1 = c.cost.engine_secs(hexsim::cost::Engine::Hvx);
        let mut big = vec![F16::ONE; 640];
        silu(&mut c, &mut big);
        let t2 = c.cost.engine_secs(hexsim::cost::Engine::Hvx) - t1;
        assert!(t2 > t1 * 5.0, "10x data should cost >5x");
    }
}
