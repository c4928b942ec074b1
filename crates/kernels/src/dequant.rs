//! INT4/INT8 -> FP16 dequantization kernels (paper Sections 5.1-5.2,
//! Figure 9).
//!
//! Three code paths, matching the Figure 15 ablation arms:
//!
//! 1. **Coalesced LUT** (`dequant_super_q4_lut`) — the paper's design. One
//!    128-byte register holds the INT4 codes of a whole super-group (256
//!    elements); two `vlut16` lookups map nibbles straight to IEEE FP16 in
//!    `[-8, 7]` (no unpack chain, no qfloat converts), two shuffles restore
//!    element order, and two more `vlut16`s broadcast four group scales
//!    each. Output registers store contiguously because the weights were
//!    quantized in HMX stream order.
//! 2. **Naive conversion on HMX layout** (`dequant_pairs_naive_hmx`) — same
//!    weight order but plain 18-byte AoS groups and the conventional
//!    mask/unpack/convert/bias/multiply instruction sequence, paying qfloat
//!    conversion on pre-V79 devices and per-group scalar scale broadcasts.
//! 3. **Baseline scatter** (`dequant_group_baseline_scatter`) — conventional
//!    column-major group quantization: after the naive conversion chain,
//!    each group's 32 values must be *scattered* to their interleaved
//!    positions in the HMX tile (Figure 6), costing a `vscatter` per group.
//!
//! The coalesced-LUT kernels are fused. Each keeps its Figure 9
//! instruction sequence as a private trace function and runs it under
//! [`NpuContext::charge_only`], so the trace stays the only source of
//! charges and TCM bounds checks in both modes. A functional context then
//! computes the 256 outputs from the staged bytes in one loop: the table
//! and the eight scales widen once, every product rounds once through one
//! `F16::from_f32_slice`, and one `tcm_poke` stores the 512 bytes. The
//! tests run each trace with lanes as the oracle, over every scale bit
//! pattern and code.

use hexsim::f16::F16;
use hexsim::hmx::tile_elem_offset;
use hexsim::hvx::{HvxVec, HVX_BYTES};
use hexsim::prelude::*;
use tilequant::block::{q4_0_lut, BlockQ4_0, BlockQ8_0, GROUP_SIZE};
use tilequant::super_group::{SUPER_Q4_BYTES, SUPER_Q8_BYTES};

/// Hoisted constants for the LUT dequantization inner loop: built once per
/// kernel launch (3 instructions), reused across every super-block.
pub struct DequantEnv {
    /// `0x0f` byte mask for low-nibble extraction.
    pub mask0f: HvxVec,
    /// Constant indices `i / 32` used to broadcast 4 scales per `vlut16`.
    pub idx_quarter: HvxVec,
    /// The 16-entry INT4 -> FP16 value table (`code - 8`).
    pub lut: [F16; 16],
}

impl DequantEnv {
    /// Builds the hoisted constants, charging their setup instructions.
    pub fn new(ctx: &mut NpuContext) -> Self {
        Self::with_table(ctx, q4_0_lut())
    }

    /// Builds the constants with a custom 16-entry value table — the
    /// paper's point that the LUT-centric design supports NF4/FP4/IQ4_NL
    /// "simply by adjusting the table contents" (Section 5.2.2).
    fn with_table(ctx: &mut NpuContext, lut: [F16; 16]) -> Self {
        let mask0f = ctx.vsplat_b(0x0f);
        // Index pattern: byte i selects scale i/32; built with one splat
        // plus one add-offset instruction on hardware.
        ctx.cost.charge_hvx_packets(2);
        let mut idx_quarter = HvxVec::zero();
        for i in 0..HVX_BYTES {
            idx_quarter.0[i] = (i / 32) as u8;
        }
        DequantEnv {
            mask0f,
            idx_quarter,
            lut,
        }
    }
}

/// Builds a 16-entry scale table register from four FP16 scales (the upper
/// twelve entries are unused padding). On hardware this is the scales
/// register itself; the load that brought it on-chip is charged by the
/// caller.
fn scale_table(scales: &[F16]) -> [F16; 16] {
    let mut t = [F16::ZERO; 16];
    t[..scales.len()].copy_from_slice(scales);
    t
}

/// The eight little-endian FP16 super-group scales at the start of
/// `bytes`: the simulation-side view of the scales register that trails
/// the quants.
fn group_scales(bytes: &[u8]) -> [F16; 8] {
    std::array::from_fn(|g| F16(u16::from_le_bytes([bytes[2 * g], bytes[2 * g + 1]])))
}

/// Dequantizes one Q4 super-block (256 elements) from `src` (144 bytes in
/// TCM) to 512 bytes of FP16 at `dst`, using the paper's LUT pipeline.
///
/// Instruction trace per super-block: 2 loads, `vand`+`vshr`, 2 value
/// `vlut16`, 2 `vshuff`, 2 scale `vlut16`, 4 `vmpy` (+4 qfloat converts on
/// pre-V79), 4 stores. The trace runs under [`NpuContext::charge_only`]
/// for its charges and TCM bounds checks; a functional context then
/// computes its result from the staged bytes in one pass, output `n`
/// being `table[code n] * scale[n / 32]` rounded once to FP16, like the
/// trace's `vmpy`.
pub fn dequant_super_q4_lut(ctx: &mut NpuContext, env: &DequantEnv, src: TcmAddr, dst: TcmAddr) {
    ctx.charge_only(|ctx| q4_lut_trace(ctx, env, src, dst));
    if ctx.mode == ExecMode::Functional {
        let staged = ctx.tcm_peek(src, SUPER_Q4_BYTES);
        let table = env.lut.map(F16::to_f32);
        let mut wide = [0.0f32; SUPER_ELEMS];
        for ((out, codes), scale) in wide
            .chunks_exact_mut(GROUP_SIZE)
            .zip(staged.chunks_exact(GROUP_SIZE / 2))
            .zip(group_scales(&staged[128..]).map(F16::to_f32))
        {
            // Byte i holds element 2i (low nibble) and 2i+1 (high nibble).
            for (pair, &b) in out.chunks_exact_mut(2).zip(codes) {
                pair[0] = table[(b & 0x0f) as usize] * scale;
                pair[1] = table[(b >> 4) as usize] * scale;
            }
        }
        store_f16(ctx, dst, &wide);
    }
}

/// The Figure 9 instruction sequence of [`dequant_super_q4_lut`]. Run with
/// lanes in a functional context, it is the reference the fused kernel
/// matches bit for bit.
fn q4_lut_trace(ctx: &mut NpuContext, env: &DequantEnv, src: TcmAddr, dst: TcmAddr) {
    // Load the coalesced quants register and the scales register.
    let quants = ctx.vmem_ld_tcm(src);
    let _scales_reg = ctx.vmem_ld_tcm(src.offset(128));
    let scales = group_scales(ctx.tcm_peek(src.offset(128), 16));

    // Nibble split: byte i holds element 2i (low) and 2i+1 (high).
    let lo_idx = ctx.vand_b(&quants, &env.mask0f);
    let hi_idx = ctx.vshr_b(&quants, 4);

    // Straight to IEEE FP16 via table lookup (Figure 9, right path).
    let (e0, e1) = ctx.vlut16_hf(&lo_idx, &env.lut); // Elements 0,2,..,254.
    let (o0, o1) = ctx.vlut16_hf(&hi_idx, &env.lut); // Elements 1,3,..,255.

    // Restore element order: interleave even/odd streams.
    let (v0, v1) = ctx.vshuff_h(&e0, &o0); // Elements 0..63, 64..127.
    let (v2, v3) = ctx.vshuff_h(&e1, &o1); // Elements 128..191, 192..255.

    // Scale broadcast: one vlut16 covers four groups (Section 5.2.2).
    let (s01, s23) = ctx.vlut16_hf(&env.idx_quarter, &scale_table(&scales[0..4]));
    let (s45, s67) = ctx.vlut16_hf(&env.idx_quarter, &scale_table(&scales[4..8]));

    // Apply scales; the multiply is the only float op left, so pre-V79
    // devices pay exactly one qfloat convert per output register.
    let r0 = ctx.vmpy_hf(&v0, &s01);
    let r0 = ctx.vconv_qf16(r0);
    let r1 = ctx.vmpy_hf(&v1, &s23);
    let r1 = ctx.vconv_qf16(r1);
    let r2 = ctx.vmpy_hf(&v2, &s45);
    let r2 = ctx.vconv_qf16(r2);
    let r3 = ctx.vmpy_hf(&v3, &s67);
    let r3 = ctx.vconv_qf16(r3);

    // Contiguous stores: the whole point of quantizing in HMX stream order.
    ctx.vmem_st_tcm(dst, &r0);
    ctx.vmem_st_tcm(dst.offset(128), &r1);
    ctx.vmem_st_tcm(dst.offset(256), &r2);
    ctx.vmem_st_tcm(dst.offset(384), &r3);
}

/// Dequantizes one Q8 super-block (256 elements, 272 bytes) at `src` to 512
/// bytes of FP16 at `dst`. INT8 cannot use a 16-entry LUT, so values take
/// the sign-extend + convert path, but scale broadcast still uses `vlut16`
/// and stores remain contiguous.
///
/// Like [`dequant_super_q4_lut`], the instruction trace runs for its
/// charges only, and a functional context computes output `n` as
/// `code n * scale[n / 32]` rounded once to FP16 (every INT8 code is exact
/// in FP16, so the trace's convert rounds nothing).
pub fn dequant_super_q8_lut(ctx: &mut NpuContext, env: &DequantEnv, src: TcmAddr, dst: TcmAddr) {
    ctx.charge_only(|ctx| q8_lut_trace(ctx, env, src, dst));
    if ctx.mode == ExecMode::Functional {
        let staged = ctx.tcm_peek(src, SUPER_Q8_BYTES);
        let mut wide = [0.0f32; SUPER_ELEMS];
        for ((out, codes), scale) in wide
            .chunks_exact_mut(GROUP_SIZE)
            .zip(staged.chunks_exact(GROUP_SIZE))
            .zip(group_scales(&staged[256..]).map(F16::to_f32))
        {
            for (o, &b) in out.iter_mut().zip(codes) {
                *o = f32::from(b as i8) * scale;
            }
        }
        store_f16(ctx, dst, &wide);
    }
}

/// The instruction sequence of [`dequant_super_q8_lut`], and the reference
/// its fused computation matches bit for bit.
fn q8_lut_trace(ctx: &mut NpuContext, env: &DequantEnv, src: TcmAddr, dst: TcmAddr) {
    let q_lo = ctx.vmem_ld_tcm(src);
    let q_hi = ctx.vmem_ld_tcm(src.offset(128));
    let _scales_reg = ctx.vmem_ld_tcm(src.offset(256));
    let scales = group_scales(ctx.tcm_peek(src.offset(256), 16));

    // Sign-extend INT8 -> INT16, then convert to FP16.
    let (a0, a1) = ctx.vunpack_b_h(&q_lo); // Elements 0..63, 64..127.
    let (a2, a3) = ctx.vunpack_b_h(&q_hi); // Elements 128..191, 192..255.
    let f0 = ctx.vcvt_h_hf(&a0);
    let f0 = ctx.vconv_qf16(f0);
    let f1 = ctx.vcvt_h_hf(&a1);
    let f1 = ctx.vconv_qf16(f1);
    let f2 = ctx.vcvt_h_hf(&a2);
    let f2 = ctx.vconv_qf16(f2);
    let f3 = ctx.vcvt_h_hf(&a3);
    let f3 = ctx.vconv_qf16(f3);

    let (s01, s23) = ctx.vlut16_hf(&env.idx_quarter, &scale_table(&scales[0..4]));
    let (s45, s67) = ctx.vlut16_hf(&env.idx_quarter, &scale_table(&scales[4..8]));

    let r0 = ctx.vmpy_hf(&f0, &s01);
    let r0 = ctx.vconv_qf16(r0);
    let r1 = ctx.vmpy_hf(&f1, &s23);
    let r1 = ctx.vconv_qf16(r1);
    let r2 = ctx.vmpy_hf(&f2, &s45);
    let r2 = ctx.vconv_qf16(r2);
    let r3 = ctx.vmpy_hf(&f3, &s67);
    let r3 = ctx.vconv_qf16(r3);

    ctx.vmem_st_tcm(dst, &r0);
    ctx.vmem_st_tcm(dst.offset(128), &r1);
    ctx.vmem_st_tcm(dst.offset(256), &r2);
    ctx.vmem_st_tcm(dst.offset(384), &r3);
}

/// Elements per super-block: eight groups of [`GROUP_SIZE`].
const SUPER_ELEMS: usize = 8 * GROUP_SIZE;

/// Rounds a super-block's FP32 products to FP16 and writes them to TCM as
/// one 512-byte store.
fn store_f16(ctx: &mut NpuContext, dst: TcmAddr, wide: &[f32; SUPER_ELEMS]) {
    let mut halves = [F16::ZERO; SUPER_ELEMS];
    F16::from_f32_slice(wide, &mut halves);
    let mut bytes = [0u8; 2 * SUPER_ELEMS];
    for (b, h) in bytes.chunks_exact_mut(2).zip(halves) {
        b.copy_from_slice(&h.0.to_le_bytes());
    }
    ctx.tcm_poke(dst, &bytes);
}

/// Naive dequantization of two Q4 groups (64 elements) already in HMX
/// stream order but stored as plain 18-byte AoS blocks at `src`; writes 128
/// bytes of FP16 to `dst`.
///
/// The functional result is computed exactly; the instruction trace is the
/// modeled naive sequence (Figure 9, left path): 1 wide load spanning the
/// misaligned blocks, 2 align, 2 nibble, 2 sign-fix, 2 int-convert (+2
/// qfloat), 2 scalar scale broadcasts, 2 multiplies (+2 qfloat), 1 store.
pub fn dequant_pairs_naive_hmx(ctx: &mut NpuContext, src: TcmAddr, dst: TcmAddr) {
    // Cost: one (unaligned) register load covering both 18-byte blocks.
    ctx.cost.charge_tcm_bytes(HVX_BYTES as u64);
    // Modeled ALU sequence; see doc comment. Pre-V79 pays 4 qfloat
    // converts, V79+ none.
    let qf = 4 * ctx.device().qf16_convert_ops();
    ctx.cost.charge_hvx_packets(13 + qf);
    // One packed store of the 64 results.
    ctx.cost.charge_tcm_bytes(HVX_BYTES as u64);

    // Exact functional result via the block codec.
    let mut out = [0u8; 128];
    for g in 0..2 {
        let block = BlockQ4_0::from_bytes(ctx.tcm_peek(src.offset(g * 18), 18));
        for i in 0..GROUP_SIZE {
            let v = block.dequantize_f16(i);
            let o = (g as usize * GROUP_SIZE + i) * 2;
            out[o..o + 2].copy_from_slice(&v.0.to_le_bytes());
        }
    }
    ctx.tcm_poke(dst, &out);
}

/// Naive dequantization of one Q8 group (32 elements, 34-byte block) in HMX
/// stream order; writes 64 bytes of FP16 to `dst`.
pub fn dequant_group_naive_q8_hmx(ctx: &mut NpuContext, src: TcmAddr, dst: TcmAddr) {
    ctx.cost.charge_tcm_bytes(HVX_BYTES as u64);
    // Modeled: 1 align, 1 unpack, 1 convert (+1 qf), 1 scale broadcast,
    // 1 multiply (+1 qf), handling only half a register of useful data.
    let qf = 2 * ctx.device().qf16_convert_ops();
    ctx.cost.charge_hvx_packets(5 + qf);
    ctx.cost.charge_tcm_bytes(HVX_BYTES as u64);

    let block = BlockQ8_0::from_bytes(ctx.tcm_peek(src, 34));
    let d = block.scale;
    let mut out = [0u8; 64];
    for i in 0..GROUP_SIZE {
        let v = F16::from_f32(block.quants[i] as f32).mul(d);
        out[2 * i..2 * i + 2].copy_from_slice(&v.0.to_le_bytes());
    }
    ctx.tcm_poke(dst, &out);
}

/// Baseline: dequantizes one conventional column-major Q4 group (32
/// elements of a single output column `col`, k-range `32*group_k ..`), then
/// *scatters* the values into the interleaved HMX tile at `dst_tile`.
///
/// The scatter is the cost disaster the paper measures: consecutive column
/// elements land 2 or 126 bytes apart in the tile (Figure 6), so a
/// `vscatter` (24-48 packets) is charged per group on top of the naive
/// conversion chain.
pub fn dequant_group_baseline_scatter(
    ctx: &mut NpuContext,
    src: TcmAddr,
    dst_tile: TcmAddr,
    col_in_tile: usize,
) {
    // Cost: wide load of the 18-byte block + naive chain (Figure 9 left:
    // 2 nibble, 2 unpack, 2 bias, 2 convert (+2 qf), scalar scale extract +
    // splat, 2 multiply (+2 qf)).
    ctx.cost.charge_tcm_bytes(HVX_BYTES as u64);
    let qf = 4 * ctx.device().qf16_convert_ops();
    ctx.cost.charge_hvx_packets(11 + qf);
    // The scatter itself (half the lanes carry this group's 32 values).
    ctx.cost.charge_vgather(true);

    let block = BlockQ4_0::from_bytes(ctx.tcm_peek(src, 18));
    for (i, v) in block.dequantize().iter().enumerate() {
        let off = tile_elem_offset(i, col_in_tile);
        let h = F16::from_f32(*v);
        let addr = dst_tile.offset(off as u32);
        let bytes = h.0.to_le_bytes();
        ctx.tcm_poke(addr, &bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hexsim::cost::Engine;
    use tilequant::block::BlockQ4_0;
    use tilequant::super_group::SuperBlockQ4;

    fn ctx() -> NpuContext {
        NpuContext::new(DeviceProfile::v75(), ExecMode::Functional)
    }

    fn test_blocks(seed: u32) -> [BlockQ4_0; 8] {
        std::array::from_fn(|g| {
            let vals: Vec<f32> = (0..32)
                .map(|i| (((seed as usize + g * 32 + i) as f32) * 0.7).sin() * 3.0)
                .collect();
            BlockQ4_0::quantize(&vals)
        })
    }

    #[test]
    fn lut_dequant_is_bit_exact() {
        let mut c = ctx();
        let env = DequantEnv::new(&mut c);
        let blocks = test_blocks(1);
        let sb = SuperBlockQ4::from_blocks(&blocks);
        let src = c.tcm_alloc(256, 128).unwrap();
        let dst = c.tcm_alloc(512, 128).unwrap();
        c.tcm_poke(src, &sb.to_bytes());
        dequant_super_q4_lut(&mut c, &env, src, dst);
        // Compare against the scalar F16 dequantization path, element by
        // element (the kernel must match it bit-exactly).
        for (g, block) in blocks.iter().enumerate() {
            for i in 0..32 {
                let expected = block.dequantize_f16(i);
                let off = (g * 32 + i) * 2;
                let got = c.tcm_peek(dst.offset(off as u32), 2);
                let got = F16(u16::from_le_bytes([got[0], got[1]]));
                assert_eq!(got, expected, "group {g} elem {i}");
            }
        }
    }

    #[test]
    fn lut_dequant_instruction_budget() {
        let mut c = ctx();
        let env = DequantEnv::new(&mut c);
        let src = c.tcm_alloc(256, 128).unwrap();
        let dst = c.tcm_alloc(512, 128).unwrap();
        let before = c.cost.counters().hvx_instructions;
        let before_lut = c.cost.counters().vluts;
        dequant_super_q4_lut(&mut c, &env, src, dst);
        let instr = c.cost.counters().hvx_instructions - before;
        let luts = c.cost.counters().vluts - before_lut;
        assert_eq!(luts, 4, "2 value lookups + 2 scale broadcasts");
        // 2 nibble + 4 vlut + 2 shuffle + 4 mul + 4 qf-convert = 16 on V75.
        assert_eq!(instr, 16);
        // Memory: 256 B loads + 512 B stores.
        assert_eq!(c.cost.counters().tcm_bytes, 768);
    }

    #[test]
    fn lut_dequant_no_qfloat_cost_on_v79() {
        let mut c = NpuContext::new(DeviceProfile::v79(), ExecMode::Functional);
        let env = DequantEnv::new(&mut c);
        let src = c.tcm_alloc(256, 128).unwrap();
        let dst = c.tcm_alloc(512, 128).unwrap();
        let before = c.cost.counters().hvx_instructions;
        dequant_super_q4_lut(&mut c, &env, src, dst);
        assert_eq!(c.cost.counters().hvx_instructions - before, 12);
    }

    #[test]
    fn q8_dequant_is_exact() {
        let mut c = ctx();
        let env = DequantEnv::new(&mut c);
        let blocks: [BlockQ8_0; 8] = std::array::from_fn(|g| {
            let vals: Vec<f32> = (0..32)
                .map(|i| ((g * 31 + i) as f32 * 0.3).cos() * 2.0)
                .collect();
            BlockQ8_0::quantize(&vals)
        });
        let sb = tilequant::super_group::SuperBlockQ8::from_blocks(&blocks);
        let src = c.tcm_alloc(384, 128).unwrap();
        let dst = c.tcm_alloc(512, 128).unwrap();
        c.tcm_poke(src, &sb.to_bytes());
        dequant_super_q8_lut(&mut c, &env, src, dst);
        for (g, block) in blocks.iter().enumerate() {
            for i in 0..32 {
                let expected = F16::from_f32(block.quants[i] as f32).mul(block.scale);
                let off = (g * 32 + i) * 2;
                let got = c.tcm_peek(dst.offset(off as u32), 2);
                let got = F16(u16::from_le_bytes([got[0], got[1]]));
                assert_eq!(got, expected, "group {g} elem {i}");
            }
        }
    }

    type Kernel = fn(&mut NpuContext, &DequantEnv, TcmAddr, TcmAddr);

    /// Every engine's seconds (as bits) and the activity counters.
    fn charges(c: &NpuContext) -> ([u64; hexsim::cost::NUM_ENGINES], hexsim::cost::Counters) {
        (
            Engine::ALL.map(|e| c.cost.engine_secs(e).to_bits()),
            *c.cost.counters(),
        )
    }

    /// Asserts two FP16 outputs are equal lane by lane, bit for bit, except
    /// that a NaN lane only has to be NaN in both: Rust leaves the sign of a
    /// NaN product open when both operands are NaN.
    fn assert_same_lanes(got: &[u8], want: &[u8], what: impl Fn() -> String) {
        assert_eq!(got.len(), want.len());
        for (lane, (g, w)) in got.chunks_exact(2).zip(want.chunks_exact(2)).enumerate() {
            let (g, w) = (
                F16(u16::from_le_bytes([g[0], g[1]])),
                F16(u16::from_le_bytes([w[0], w[1]])),
            );
            assert!(
                g == w || (g.is_nan() && w.is_nan()),
                "lane {lane}: fused {g:?} vs trace {w:?} ({})",
                what()
            );
        }
    }

    /// Stages `blocks` super-blocks, each written by `fill`, in one
    /// functional context, and requires `fused` to match `trace` on each.
    fn sweep_against_trace(
        table: [F16; 16],
        fused: Kernel,
        trace: Kernel,
        len: usize,
        blocks: usize,
        fill: impl Fn(usize, &mut [u8]),
    ) {
        let mut c = ctx();
        let env = DequantEnv::with_table(&mut c, table);
        let src = c.tcm_alloc(384, 128).unwrap();
        let want = c.tcm_alloc(512, 128).unwrap();
        let got = c.tcm_alloc(512, 128).unwrap();
        let mut block = vec![0u8; len];
        for b in 0..blocks {
            fill(b, &mut block);
            c.tcm_poke(src, &block);
            trace(&mut c, &env, src, want);
            fused(&mut c, &env, src, got);
            assert_same_lanes(c.tcm_peek(got, 512), c.tcm_peek(want, 512), || {
                format!("super-block {b}")
            });
        }
    }

    /// Writes scale bit patterns `8 * chunk .. 8 * chunk + 8` as the eight
    /// group scales at the start of `bytes`.
    fn fill_scales(chunk: usize, bytes: &mut [u8]) {
        for (g, scale) in bytes.chunks_exact_mut(2).take(8).enumerate() {
            scale.copy_from_slice(&((8 * chunk + g) as u16).to_le_bytes());
        }
    }

    #[test]
    fn fused_q4_matches_its_trace_on_every_scale_and_code() {
        // All 65,536 scale bit patterns (±0, subnormals, ±Inf and NaNs
        // included), eight per super-block, each against all 16 codes in
        // both nibble positions, with the Q4_0 table and the NF4 one.
        for table in [q4_0_lut(), tilequant::block::nf4_lut()] {
            sweep_against_trace(
                table,
                dequant_super_q4_lut,
                q4_lut_trace,
                SUPER_Q4_BYTES,
                1 << 13,
                |chunk, sb| {
                    for (g, codes) in sb[..128].chunks_exact_mut(16).enumerate() {
                        for (b, byte) in codes.iter_mut().enumerate() {
                            *byte = (b | ((b + chunk + g) % 16) << 4) as u8;
                        }
                    }
                    fill_scales(chunk, &mut sb[128..]);
                },
            );
        }
    }

    #[test]
    fn fused_q8_matches_its_trace_on_every_scale_and_code() {
        // All 65,536 scale bit patterns against all 256 codes: eight
        // super-blocks per eight scales, rotating which 32 codes each
        // group holds.
        sweep_against_trace(
            q4_0_lut(),
            dequant_super_q8_lut,
            q8_lut_trace,
            SUPER_Q8_BYTES,
            1 << 16,
            |b, sb| {
                let (chunk, turn) = (b / 8, b % 8);
                for (g, codes) in sb[..256].chunks_exact_mut(32).enumerate() {
                    let first = 32 * ((turn + g) % 8);
                    for (i, code) in codes.iter_mut().enumerate() {
                        *code = (first + i) as u8;
                    }
                }
                fill_scales(chunk, &mut sb[256..]);
            },
        );
    }

    #[test]
    fn functional_and_cost_only_charge_identically() {
        // On random super-blocks (random scales include NaN, Inf and
        // subnormal bit patterns), the fused kernel in a functional and in
        // a cost-only context and the per-instruction trace with lanes all
        // issue the same charges in the same order: on fresh contexts every
        // engine's seconds agree to the bit, and the counters agree. Only
        // functional mode writes TCM.
        let mut state = 0x2545_f491u32;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            state
        };
        let kernels: [(&str, Kernel, Kernel, usize); 2] = [
            ("q4", dequant_super_q4_lut, q4_lut_trace, SUPER_Q4_BYTES),
            ("q8", dequant_super_q8_lut, q8_lut_trace, SUPER_Q8_BYTES),
        ];
        for device in [DeviceProfile::v75(), DeviceProfile::v79()] {
            for (name, fused, trace, len) in kernels {
                for _ in 0..8 {
                    let block: Vec<u8> = (0..len).map(|_| next() as u8).collect();
                    let run = |mode, kernel: Kernel| {
                        let mut c = NpuContext::new(device.clone(), mode);
                        let env = DequantEnv::new(&mut c);
                        let src = c.tcm_alloc(384, 128).unwrap();
                        let dst = c.tcm_alloc(512, 128).unwrap();
                        c.tcm_poke(src, &block);
                        kernel(&mut c, &env, src, dst);
                        (charges(&c), c.tcm_peek(dst, 512).to_vec())
                    };
                    let (fused_charges, fused_out) = run(ExecMode::Functional, fused);
                    let (trace_charges, trace_out) = run(ExecMode::Functional, trace);
                    let (cost_only_charges, cost_only_out) = run(ExecMode::CostOnly, fused);
                    let what = || format!("{name} on {}", device.name);
                    assert_eq!(fused_charges, trace_charges, "{}", what());
                    assert_eq!(cost_only_charges, trace_charges, "{}", what());
                    assert_same_lanes(&fused_out, &trace_out, what);
                    assert!(cost_only_out.iter().all(|&b| b == 0), "{}", what());
                }
            }
        }
    }

    #[test]
    fn naive_hmx_matches_lut_values() {
        let mut c = ctx();
        let env = DequantEnv::new(&mut c);
        let blocks = test_blocks(9);
        // LUT path input: coalesced.
        let sb = SuperBlockQ4::from_blocks(&blocks);
        let src_sb = c.tcm_alloc(256, 128).unwrap();
        let dst_lut = c.tcm_alloc(512, 128).unwrap();
        c.tcm_poke(src_sb, &sb.to_bytes());
        dequant_super_q4_lut(&mut c, &env, src_sb, dst_lut);
        // Naive path input: plain AoS blocks.
        let src_blocks = c.tcm_alloc(18 * 8 + 128, 128).unwrap();
        let dst_naive = c.tcm_alloc(512, 128).unwrap();
        for (g, b) in blocks.iter().enumerate() {
            c.tcm_poke(src_blocks.offset(g as u32 * 18), &b.to_bytes());
        }
        for pair in 0..4u32 {
            dequant_pairs_naive_hmx(
                &mut c,
                src_blocks.offset(pair * 36),
                dst_naive.offset(pair * 128),
            );
        }
        assert_eq!(c.tcm_peek(dst_lut, 512), c.tcm_peek(dst_naive, 512));
    }

    #[test]
    fn naive_is_slower_than_lut_per_element() {
        // Per-element HVX time: naive-on-HMX-layout must cost more than the
        // coalesced LUT path (Figure 15: 1.82-3.45x), and the scatter
        // baseline must be far worse (9.65-19.04x overall).
        let mut c = ctx();
        let env = DequantEnv::new(&mut c);
        let src = c.tcm_alloc(4096, 128).unwrap();
        let dst = c.tcm_alloc(4096, 128).unwrap();

        let t0 = c.cost.engine_secs(Engine::Hvx);
        dequant_super_q4_lut(&mut c, &env, src, dst); // 256 elems.
        let lut_per_elem = (c.cost.engine_secs(Engine::Hvx) - t0) / 256.0;

        let t0 = c.cost.engine_secs(Engine::Hvx);
        dequant_pairs_naive_hmx(&mut c, src, dst); // 64 elems.
        let naive_per_elem = (c.cost.engine_secs(Engine::Hvx) - t0) / 64.0;

        let t0 = c.cost.engine_secs(Engine::Hvx);
        dequant_group_baseline_scatter(&mut c, src, dst, 0); // 32 elems.
        let scatter_per_elem = (c.cost.engine_secs(Engine::Hvx) - t0) / 32.0;

        let naive_ratio = naive_per_elem / lut_per_elem;
        let scatter_ratio = scatter_per_elem / lut_per_elem;
        assert!(
            (1.5..4.5).contains(&naive_ratio),
            "naive/lut per-element ratio {naive_ratio}"
        );
        assert!(
            scatter_ratio > 6.0,
            "scatter/lut per-element ratio {scatter_ratio}"
        );
    }

    #[test]
    fn baseline_scatter_places_elements_in_tile_order() {
        let mut c = ctx();
        let blocks = test_blocks(4);
        let src = c.tcm_alloc(18, 128).unwrap();
        let tile = c.tcm_alloc(2048, 2048).unwrap();
        c.tcm_poke(src, &blocks[0].to_bytes());
        dequant_group_baseline_scatter(&mut c, src, tile, 5);
        let unpacked = hexsim::hmx::unpack_tile(c.tcm_peek(tile, 2048));
        let expected = blocks[0].dequantize();
        for k in 0..32 {
            assert!(
                (unpacked[k][5].to_f32() - expected[k]).abs() < 1e-2,
                "row {k}"
            );
        }
        assert_eq!(c.cost.counters().vgathers, 1);
    }

    #[test]
    fn lut_table_swap_supports_nf4() {
        // Same kernel, different table contents: NF4 dequantization must be
        // bit-exact against the codec's scalar path.
        use tilequant::block::{nf4_lut, BlockTable4};
        let mut c = ctx();
        let env = DequantEnv::with_table(&mut c, nf4_lut());
        let table = nf4_lut();
        let blocks: [BlockTable4; 8] = std::array::from_fn(|g| {
            let vals: Vec<f32> = (0..32)
                .map(|i| (((g * 32 + i) as f32) * 0.41).sin() * 2.5)
                .collect();
            BlockTable4::quantize(&vals, &table)
        });
        // BlockTable4 shares the super-block wire shape (16 B nibbles +
        // FP16 scale), so coalesce manually.
        let mut sb = [0u8; 144];
        for (g, b) in blocks.iter().enumerate() {
            sb[g * 16..(g + 1) * 16].copy_from_slice(&b.quants);
            sb[128 + 2 * g..130 + 2 * g].copy_from_slice(&b.scale.0.to_le_bytes());
        }
        let src = c.tcm_alloc(256, 128).unwrap();
        let dst = c.tcm_alloc(512, 128).unwrap();
        c.tcm_poke(src, &sb);
        dequant_super_q4_lut(&mut c, &env, src, dst);
        for (g, b) in blocks.iter().enumerate() {
            let expected = b.dequantize_f16(&table);
            for (i, e) in expected.iter().enumerate() {
                let off = (g * 32 + i) * 2;
                let got = c.tcm_peek(dst.offset(off as u32), 2);
                let got = F16(u16::from_le_bytes([got[0], got[1]]));
                assert_eq!(got, *e, "group {g} elem {i}");
            }
        }
    }

    #[test]
    fn q8_naive_group_is_exact() {
        let mut c = ctx();
        let vals: Vec<f32> = (0..32).map(|i| (i as f32 * 0.9).sin()).collect();
        let block = BlockQ8_0::quantize(&vals);
        let src = c.tcm_alloc(34, 128).unwrap();
        let dst = c.tcm_alloc(64, 128).unwrap();
        c.tcm_poke(src, &block.to_bytes());
        dequant_group_naive_q8_hmx(&mut c, src, dst);
        for i in 0..32 {
            let got = c.tcm_peek(dst.offset(2 * i as u32), 2);
            let got = F16(u16::from_le_bytes([got[0], got[1]]));
            let expected = F16::from_f32(block.quants[i] as f32).mul(block.scale);
            assert_eq!(got, expected);
        }
    }
}
