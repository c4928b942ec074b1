//! FP16 FlashAttention on the simulated NPU — the paper's Algorithm 1 —
//! with the stage-level latency breakdown of Figure 8.
//!
//! The kernel processes one GQA group: a single KV head shared by
//! `q_heads_per_kv` query heads (Qwen2.5-1.5B shares each KV head across 6
//! query heads). KV tiles stream from DDR once per block and are reused by
//! every query head in the group — which is why the Figure 8 load/store
//! share *shrinks* as the query batch grows while the softmax share
//! explodes.
//!
//! State follows the paper exactly: `S`, `P`, `O`, `m`, `l` are FP16; the
//! `QK^T` MAC and the row-sum of `P` accumulate in FP32 (`AccumType=FP32`);
//! the exponential is pluggable (F32/F16 polynomial or the 64 KiB LUT).
//!
//! Functional math runs at tile level with per-element FP16 rounding that
//! mirrors the vector kernels bit-for-bit (the LUT path reads the actual
//! TCM-resident table); the instruction trace is charged per stage from the
//! same formulas the standalone kernels produce.

use hexsim::cost::{PhaseCost, NUM_ENGINES};
use hexsim::f16::F16;
use hexsim::prelude::*;

use crate::exp_lut::{charge_exp, exp_scalar, ExpLut16, ExpMethod};

/// Attention workload shape for one GQA group.
#[derive(Clone, Copy, Debug)]
pub struct AttnShape {
    /// Query length (decode batch size in test-time scaling).
    pub nq: usize,
    /// KV (context) length.
    pub nkv: usize,
    /// Head dimension (multiple of 32).
    pub head_dim: usize,
}

/// Per-stage cost buckets matching Figure 8's legend.
#[derive(Clone, Debug, Default)]
pub struct FlashAttentionBreakdown {
    /// "QKVO Load/Store": KV streaming plus Q load and O store DMA.
    pub load_store: PhaseCost,
    /// "MatMul (QK, DO+PV)": HMX tile-ops and their tile traffic.
    pub matmul: PhaseCost,
    /// "Softmax": max/subtract/exp/sum/rescale vector work.
    pub softmax: PhaseCost,
}

impl FlashAttentionBreakdown {
    /// Total wall time: stages execute sequentially per block (the
    /// figure's percentages sum to 100).
    pub fn total_wall(&self) -> f64 {
        self.load_store.wall_secs + self.matmul.wall_secs + self.softmax.wall_secs
    }

    /// Percentage shares `[load_store, matmul, softmax]`.
    pub fn shares(&self) -> [f64; 3] {
        let t = self.total_wall().max(1e-30);
        [
            self.load_store.wall_secs / t * 100.0,
            self.matmul.wall_secs / t * 100.0,
            self.softmax.wall_secs / t * 100.0,
        ]
    }

    fn scale(&mut self, factor: f64) {
        for p in [&mut self.load_store, &mut self.matmul, &mut self.softmax] {
            for i in 0..NUM_ENGINES {
                p.engine_secs[i] *= factor;
            }
            p.wall_secs *= factor;
        }
    }

    fn add_delta(bucket: &mut PhaseCost, delta: &PhaseCost) {
        for i in 0..NUM_ENGINES {
            bucket.engine_secs[i] += delta.engine_secs[i];
        }
        bucket.wall_secs += delta.wall_secs;
    }
}

/// FlashAttention kernel configuration.
pub struct FlashAttention<'a> {
    /// The TCM-resident exp LUT (used when `method == Lut16`).
    pub lut: &'a ExpLut16,
    /// Exponential implementation.
    pub method: ExpMethod,
    /// KV block length streamed per iteration (multiple of 32).
    pub kv_block: usize,
    /// Query heads sharing one KV head (GQA group size).
    pub q_heads_per_kv: usize,
}

impl<'a> FlashAttention<'a> {
    /// Creates a kernel with the paper-typical block size of 128.
    pub fn new(lut: &'a ExpLut16, method: ExpMethod, q_heads_per_kv: usize) -> Self {
        FlashAttention {
            lut,
            method,
            kv_block: 128,
            q_heads_per_kv,
        }
    }

    /// Runs attention for one GQA group.
    ///
    /// `q`: `[G, nq, d]` (G = `q_heads_per_kv`), `k`/`v`: `[nkv, d]`, all
    /// row-major FP16. Returns the `[G, nq, d]` output and the Figure 8
    /// breakdown. In cost-only mode the returned output is empty.
    ///
    /// # Panics
    ///
    /// Panics if shapes are inconsistent, `head_dim % 32 != 0`, or
    /// `nkv == 0`.
    pub fn run(
        &self,
        ctx: &mut NpuContext,
        shape: AttnShape,
        q: &[F16],
        k: &[F16],
        v: &[F16],
    ) -> (Vec<F16>, FlashAttentionBreakdown) {
        self.run_with_mask(ctx, shape, q, k, v, None)
    }

    /// Causal variant for prefill: query row `i` (at absolute position
    /// `q_start + i`) attends only to KV positions `<= q_start + i`. Tile
    /// work is charged unmasked (the hardware computes full tiles; masking
    /// happens in the softmax pass), matching the kernel the paper runs
    /// during prefill.
    pub fn run_causal(
        &self,
        ctx: &mut NpuContext,
        shape: AttnShape,
        q: &[F16],
        k: &[F16],
        v: &[F16],
        q_start: usize,
    ) -> (Vec<F16>, FlashAttentionBreakdown) {
        self.run_with_mask(ctx, shape, q, k, v, Some(q_start))
    }

    fn run_with_mask(
        &self,
        ctx: &mut NpuContext,
        shape: AttnShape,
        q: &[F16],
        k: &[F16],
        v: &[F16],
        causal_start: Option<usize>,
    ) -> (Vec<F16>, FlashAttentionBreakdown) {
        let AttnShape {
            nq,
            nkv,
            head_dim: d,
        } = shape;
        let g = self.q_heads_per_kv;
        assert!(d % 32 == 0, "head_dim must be a multiple of 32");
        assert!(nkv > 0, "empty KV cache");
        let functional = ctx.mode == ExecMode::Functional;
        if functional {
            assert_eq!(q.len(), g * nq * d);
            assert_eq!(k.len(), nkv * d);
            assert_eq!(v.len(), nkv * d);
        }

        let mut bd = FlashAttentionBreakdown::default();
        let scale = 1.0 / (d as f64).sqrt();

        // Q load + O store traffic, once per call (part of "QKVO").
        let snap = ctx.cost.snapshot();
        ctx.cost.charge_dma((2 * g * nq * d * 2) as u64);
        FlashAttentionBreakdown::add_delta(&mut bd.load_store, &ctx.cost.delta_since(&snap, ""));

        // Softmax running state per query head and row.
        let mut m = vec![F16::NEG_INFINITY; g * nq];
        let mut l = vec![F16::ZERO; g * nq];
        let mut o = vec![0.0f32; if functional { g * nq * d } else { 0 }];

        let n_blocks = nkv.div_ceil(self.kv_block);
        let run_blocks: usize = if functional { n_blocks } else { 1 };
        let all_snap = ctx.cost.snapshot();
        let mut bd_blocks = FlashAttentionBreakdown::default();

        for b in 0..run_blocks {
            let kv_lo = b * self.kv_block;
            let kv_hi = ((b + 1) * self.kv_block).min(nkv);
            self.process_block(
                ctx,
                shape,
                scale,
                q,
                k,
                v,
                kv_lo,
                kv_hi,
                &mut m,
                &mut l,
                &mut o,
                &mut bd_blocks,
                functional,
                causal_start,
            );
        }
        if !functional && n_blocks > 1 {
            ctx.cost.scale_since(&all_snap, n_blocks as u64);
            bd_blocks.scale(n_blocks as f64);
        }
        FlashAttentionBreakdown::add_delta(&mut bd.load_store, &bd_blocks.load_store);
        FlashAttentionBreakdown::add_delta(&mut bd.matmul, &bd_blocks.matmul);
        FlashAttentionBreakdown::add_delta(&mut bd.softmax, &bd_blocks.softmax);

        // Final normalization O_i = diag(l)^-1 O (charged to softmax).
        let snap = ctx.cost.snapshot();
        let o_regs = (g * nq * d).div_ceil(64) as u64;
        ctx.cost.charge_hvx_packets(o_regs * 2 + (g * nq) as u64);
        let out = if functional {
            let mut out = vec![F16::ZERO; g * nq * d];
            // Chunked O writeback: divide into an f32 scratch row, then
            // round the whole row at once (bit-identical to per-element
            // `from_f32`).
            let mut row_f = vec![0.0f32; d];
            for (row, &lv) in l.iter().enumerate() {
                let denom = lv.to_f32();
                for (p, slot) in row_f.iter_mut().enumerate() {
                    *slot = if denom > 0.0 {
                        o[row * d + p] / denom
                    } else {
                        0.0
                    };
                }
                F16::from_f32_slice(&row_f, &mut out[row * d..(row + 1) * d]);
            }
            out
        } else {
            Vec::new()
        };
        FlashAttentionBreakdown::add_delta(&mut bd.softmax, &ctx.cost.delta_since(&snap, ""));

        (out, bd)
    }

    /// Processes one KV block for every query head in the group, updating
    /// running state and cost buckets.
    #[allow(clippy::too_many_arguments)]
    fn process_block(
        &self,
        ctx: &mut NpuContext,
        shape: AttnShape,
        scale: f64,
        q: &[F16],
        k: &[F16],
        v: &[F16],
        kv_lo: usize,
        kv_hi: usize,
        m: &mut [F16],
        l: &mut [F16],
        o: &mut [f32],
        bd: &mut FlashAttentionBreakdown,
        functional: bool,
        causal_start: Option<usize>,
    ) {
        let AttnShape {
            nq, head_dim: d, ..
        } = shape;
        let g = self.q_heads_per_kv;
        let kv_tiles = self.kv_block.div_ceil(32);
        let d_tiles = d / 32;
        // All query heads of the GQA group attend to the same KV head, so
        // the kernel batches their rows into shared tiles: `g * nq` query
        // rows per block. This is what keeps the Figure 8 matmul share tiny.
        let rows = g * nq;
        let q_row_tiles = rows.div_ceil(32);

        // --- Stage 1: KV streaming (shared across the GQA group). ---
        let snap = ctx.cost.snapshot();
        ctx.cost.charge_dma((2 * self.kv_block * d * 2) as u64);
        FlashAttentionBreakdown::add_delta(&mut bd.load_store, &ctx.cost.delta_since(&snap, ""));

        // --- Stage 2a cost: S = Q K^T on the HMX (FP32 accumulate). ---
        // S writeback flows through the HMX's dedicated converter path
        // (Figure 3), so only tile-ops are charged here.
        let snap = ctx.cost.snapshot();
        ctx.cost
            .charge_hmx_tile_ops((q_row_tiles * kv_tiles * d_tiles) as u64);
        FlashAttentionBreakdown::add_delta(&mut bd.matmul, &ctx.cost.delta_since(&snap, ""));

        // --- Stage 3 cost: softmax update (max, exp, sum, rescale). ---
        let snap = ctx.cost.snapshot();
        let row_pair_regs = rows.div_ceil(2) as u64;
        for _tile in 0..kv_tiles {
            // Per row-pair register: running max (1), subtract+convert (2),
            // FP32 sum accumulate (2), plus the exponential.
            for _reg in 0..row_pair_regs {
                ctx.cost.charge_hvx_packets(5);
                charge_exp(ctx, self.method);
            }
            // m/l running-state update for the tile.
            ctx.cost.charge_hvx_packets(row_pair_regs * 2 + 6);
        }
        // S load + P store traffic for the rows actually occupied.
        ctx.cost
            .charge_tcm_bytes((2 * rows * self.kv_block * 2) as u64);
        // O rescale by diag(exp(m_prev - m_new)) once per block.
        let o_regs = (rows * d).div_ceil(64) as u64;
        ctx.cost.charge_hvx_packets(o_regs * 2);
        charge_exp(ctx, self.method);
        let softmax_snap_end = ctx.cost.delta_since(&snap, "");

        // --- Stage 2b cost: O += P V on the HMX. ---
        let snap_pv = ctx.cost.snapshot();
        ctx.cost
            .charge_hmx_tile_ops((q_row_tiles * kv_tiles * d_tiles) as u64);
        let pv_delta = ctx.cost.delta_since(&snap_pv, "");

        // --- Functional math (charge-free; per query head of the group).
        if functional {
            let cols = kv_hi - kv_lo;
            // Host staging, chunked F16 treatment: convert the group's Q
            // rows and this block's K/V rows to f32 once instead of once
            // per inner-loop visit. `to_f32` is exact and `from_f32_slice`
            // is bitwise RTNE, so every sum below accumulates the same
            // values in the same order — bit-identical to the elementwise
            // loops (pinned by `staged_block_math_is_bit_identical_*`).
            let qf = F16::vec_to_f32(&q[..rows * d]);
            // K transposed to `[d][cols]` and V as contiguous `[cols][d]`
            // rows: a query row's scores, and a P row's outputs, then
            // accumulate side by side over contiguous lanes, each still
            // summing its products in ascending order.
            let mut kt = vec![0.0f32; d * cols];
            for (jj, k_row) in k[kv_lo * d..kv_hi * d].chunks_exact(d).enumerate() {
                for (p, &x) in k_row.iter().enumerate() {
                    kt[p * cols + jj] = x.to_f32();
                }
            }
            let vf = F16::vec_to_f32(&v[kv_lo * d..kv_hi * d]);
            let mut s_row = vec![0.0f32; cols];
            let mut p_half = vec![F16::ZERO; cols];
            let mut p_row = vec![0.0f32; cols];
            let mut pv = vec![0.0f32; d];
            let mut o_row = vec![0.0f32; d];
            let mut o_half = vec![F16::ZERO; d];
            for gh in 0..g {
                let mut s_block = vec![F16::ZERO; nq * cols];
                for i in 0..nq {
                    let q_row = &qf[(gh * nq + i) * d..][..d];
                    s_row.fill(0.0);
                    for (&qp, k_col) in q_row.iter().zip(kt.chunks_exact(cols)) {
                        for (dot, &kp) in s_row.iter_mut().zip(k_col) {
                            *dot += qp * kp;
                        }
                    }
                    for (jj, dot) in s_row.iter_mut().enumerate() {
                        // Causal mask: query at absolute position
                        // `start + i` must not see KV positions beyond it.
                        let masked = causal_start.is_some_and(|start| kv_lo + jj > start + i);
                        *dot = if masked {
                            f32::NEG_INFINITY
                        } else {
                            *dot * scale as f32
                        };
                    }
                    F16::from_f32_slice(&s_row, &mut s_block[i * cols..(i + 1) * cols]);
                }
                for i in 0..nq {
                    let row = gh * nq + i;
                    let mut row_max = m[row];
                    for jj in 0..cols {
                        row_max = row_max.max(s_block[i * cols + jj]);
                    }
                    if row_max == F16::NEG_INFINITY {
                        // Entire row masked so far (prefill rows whose
                        // positions precede this block): state unchanged.
                        continue;
                    }
                    // P = exp(S - m_new), FP16 subtraction like vsub_hf.
                    for (jj, slot) in p_half.iter_mut().enumerate() {
                        let s_val = s_block[i * cols + jj];
                        *slot = if s_val == F16::NEG_INFINITY {
                            F16::ZERO
                        } else {
                            exp_scalar(ctx, self.lut, self.method, s_val.sub(row_max))
                        };
                    }
                    F16::to_f32_slice(&p_half, &mut p_row);
                    let mut rowsum = 0.0f32;
                    for &e in &p_row {
                        rowsum += e;
                    }
                    // Correction factor exp(m_old - m_new) in FP16.
                    let e_dm = exp_scalar(ctx, self.lut, self.method, m[row].sub(row_max));
                    // l update: FP16 state, FP32 accumulate (Algorithm 1).
                    l[row] = F16::from_f32(e_dm.to_f32() * l[row].to_f32() + rowsum);
                    // PV accumulate, then the O rescale (HMX writeback
                    // rounds the combined FP32 update to FP16 once).
                    pv.fill(0.0);
                    for (&pj, v_row) in p_row.iter().zip(vf.chunks_exact(d)) {
                        for (acc, &vp) in pv.iter_mut().zip(v_row) {
                            *acc += pj * vp;
                        }
                    }
                    let e_dm_f = e_dm.to_f32();
                    let o_old = &o[row * d..(row + 1) * d];
                    for ((slot, &o_old), &acc) in o_row.iter_mut().zip(o_old).zip(&pv) {
                        *slot = o_old * e_dm_f + acc;
                    }
                    F16::from_f32_slice(&o_row, &mut o_half);
                    F16::to_f32_slice(&o_half, &mut o[row * d..(row + 1) * d]);
                    m[row] = row_max;
                }
            }
        }
        FlashAttentionBreakdown::add_delta(&mut bd.softmax, &softmax_snap_end);
        FlashAttentionBreakdown::add_delta(&mut bd.matmul, &pv_delta);
    }
}

/// Conventional FP32 attention (no tiling, f32 throughout) — the accuracy
/// baseline of the paper's Table 5. Purely functional.
pub fn attention_f32(
    q: &[F16],
    k: &[F16],
    v: &[F16],
    heads: usize,
    nq: usize,
    nkv: usize,
    d: usize,
) -> Vec<F16> {
    let scale = 1.0f32 / (d as f32).sqrt();
    // Same chunked host staging as the flash kernel: Q/K/V convert once
    // up front (`to_f32` is exact, so every accumulation below is
    // bit-identical to converting inside the inner loops).
    let qf = F16::vec_to_f32(q);
    let kf = F16::vec_to_f32(k);
    let vf = F16::vec_to_f32(v);
    let mut out = vec![F16::ZERO; heads * nq * d];
    let mut o_row = vec![0.0f32; d];
    for h in 0..heads {
        for i in 0..nq {
            let mut s = vec![0.0f32; nkv];
            for (j, sj) in s.iter_mut().enumerate() {
                let mut dot = 0.0f32;
                for p in 0..d {
                    dot += qf[(h * nq + i) * d + p] * kf[j * d + p];
                }
                *sj = dot * scale;
            }
            let mx = s.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0f32;
            for x in s.iter_mut() {
                *x = (*x - mx).exp();
                sum += *x;
            }
            for (p, slot) in o_row.iter_mut().enumerate() {
                let mut acc = 0.0f32;
                for (j, &w) in s.iter().enumerate() {
                    acc += w / sum * vf[j * d + p];
                }
                *slot = acc;
            }
            let lo = (h * nq + i) * d;
            F16::from_f32_slice(&o_row, &mut out[lo..lo + d]);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{attention_ref_f64, rmse};

    fn ctx() -> NpuContext {
        NpuContext::new(DeviceProfile::v75(), ExecMode::Functional)
    }

    fn rand_f16(n: usize, seed: u64, scale: f32) -> Vec<F16> {
        (0..n)
            .map(|i| {
                let x = ((i as u64).wrapping_mul(seed.wrapping_add(12345)) % 1000) as f32;
                F16::from_f32((x / 500.0 - 1.0) * scale)
            })
            .collect()
    }

    fn to_f32(v: &[F16]) -> Vec<f32> {
        v.iter().map(|x| x.to_f32()).collect()
    }

    /// The flash kernel's functional math with per-element conversions in
    /// every inner loop — the shape the code had before the chunked-F16
    /// staging. The kernel must reproduce this bit-for-bit: staging only
    /// hoists exact `to_f32` conversions and batches the RTNE roundings.
    #[allow(clippy::too_many_arguments)]
    fn flash_elementwise_ref(
        ctx: &mut NpuContext,
        lut: &ExpLut16,
        method: ExpMethod,
        kv_block: usize,
        g: usize,
        shape: AttnShape,
        q: &[F16],
        k: &[F16],
        v: &[F16],
        causal_start: Option<usize>,
    ) -> Vec<F16> {
        let AttnShape {
            nq,
            nkv,
            head_dim: d,
        } = shape;
        let scale = 1.0 / (d as f64).sqrt();
        let mut m = vec![F16::NEG_INFINITY; g * nq];
        let mut l = vec![F16::ZERO; g * nq];
        let mut o = vec![0.0f32; g * nq * d];
        for b in 0..nkv.div_ceil(kv_block) {
            let kv_lo = b * kv_block;
            let kv_hi = ((b + 1) * kv_block).min(nkv);
            let cols = kv_hi - kv_lo;
            for gh in 0..g {
                let mut s_block = vec![F16::ZERO; nq * cols];
                for i in 0..nq {
                    for (jj, j) in (kv_lo..kv_hi).enumerate() {
                        if let Some(start) = causal_start {
                            if j > start + i {
                                s_block[i * cols + jj] = F16::NEG_INFINITY;
                                continue;
                            }
                        }
                        let mut dot = 0.0f32;
                        for p in 0..d {
                            dot += q[(gh * nq + i) * d + p].to_f32() * k[j * d + p].to_f32();
                        }
                        s_block[i * cols + jj] = F16::from_f32(dot * scale as f32);
                    }
                }
                let mut p_block = vec![F16::ZERO; nq * cols];
                for i in 0..nq {
                    let row = gh * nq + i;
                    let mut row_max = m[row];
                    for jj in 0..cols {
                        row_max = row_max.max(s_block[i * cols + jj]);
                    }
                    if row_max == F16::NEG_INFINITY {
                        continue;
                    }
                    let mut rowsum = 0.0f32;
                    for jj in 0..cols {
                        let s_val = s_block[i * cols + jj];
                        let e = if s_val == F16::NEG_INFINITY {
                            F16::ZERO
                        } else {
                            exp_scalar(ctx, lut, method, s_val.sub(row_max))
                        };
                        p_block[i * cols + jj] = e;
                        rowsum += e.to_f32();
                    }
                    let e_dm = exp_scalar(ctx, lut, method, m[row].sub(row_max));
                    l[row] = F16::from_f32(e_dm.to_f32() * l[row].to_f32() + rowsum);
                    for p in 0..d {
                        let mut acc = 0.0f32;
                        for jj in 0..cols {
                            acc +=
                                p_block[i * cols + jj].to_f32() * v[(kv_lo + jj) * d + p].to_f32();
                        }
                        let updated = o[row * d + p] * e_dm.to_f32() + acc;
                        o[row * d + p] = F16::from_f32(updated).to_f32();
                    }
                    m[row] = row_max;
                }
            }
        }
        let mut out = vec![F16::ZERO; g * nq * d];
        for (row, &lv) in l.iter().enumerate() {
            let denom = lv.to_f32();
            for p in 0..d {
                let val = if denom > 0.0 {
                    o[row * d + p] / denom
                } else {
                    0.0
                };
                out[row * d + p] = F16::from_f32(val);
            }
        }
        out
    }

    #[test]
    fn staged_block_math_is_bit_identical_to_elementwise() {
        // Differential sweep over GQA group sizes, multi-block and
        // partial-tail KV lengths, causal masks with fully-masked rows,
        // value ranges that round to infinities, K/V holding subnormals or
        // ±Inf and NaN, and all three exp methods: the staged kernel must
        // match the per-element reference bit-for-bit everywhere. With NaN
        // inputs, NaN lanes compare by NaN-ness: Rust leaves the sign of a
        // NaN result open when both operands are NaN.
        let mut c = ctx();
        let lut = ExpLut16::build(&mut c).unwrap();
        // (g, nq, nkv, d, causal_start, seed, amp, K/V fill)
        type Case = (usize, usize, usize, usize, Option<usize>, u64, f32, Fill);
        #[derive(Clone, Copy, Debug)]
        enum Fill {
            Plain,
            Subnormal,
            NonFinite,
        }
        let mut cases: Vec<Case> = vec![
            (1, 4, 160, 64, None, 3, 1.0, Fill::Plain),
            (2, 3, 100, 32, None, 5, 1.0, Fill::Plain),
            (6, 2, 300, 64, None, 9, 1.0, Fill::Plain),
            (1, 8, 256, 128, Some(248), 11, 1.0, Fill::Plain),
            (2, 5, 130, 32, Some(125), 13, 1.0, Fill::Plain),
            (1, 1, 1, 32, Some(0), 17, 1.0, Fill::Plain),
            (2, 4, 200, 64, None, 19, 16.0, Fill::Plain),
            (1, 6, 140, 32, Some(134), 23, 16.0, Fill::Plain),
        ];
        // Three KV blocks, the last one partial. Causal start 120 leaves
        // rows 0..8 fully masked in the second block and every row in the
        // third; start `nkv - nq` ends the last row at the last key.
        let nkv = 300;
        for g in [1, 2, 6] {
            for nq in [1, 3, 16] {
                for causal in [None, Some(120), Some(nkv - nq)] {
                    for fill in [Fill::Plain, Fill::Subnormal, Fill::NonFinite] {
                        let seed = (cases.len() as u64) * 2 + 29;
                        cases.push((g, nq, nkv, 32, causal, seed, 1.0, fill));
                    }
                }
            }
        }
        const NON_FINITE: [F16; 3] = [F16::INFINITY, F16::NEG_INFINITY, F16::NAN];
        const SUBNORMAL: [F16; 3] = [F16(0x0001), F16(0x83ff), F16(0x0200)];
        for (g, nq, nkv, d, causal, seed, amp, fill) in cases {
            let shape = AttnShape {
                nq,
                nkv,
                head_dim: d,
            };
            let q = rand_f16(g * nq * d, seed, amp);
            let mut k = rand_f16(nkv * d, seed ^ 0xA5, amp);
            let mut v = rand_f16(nkv * d, seed ^ 0x5A, amp);
            let (specials, step) = match fill {
                Fill::Plain => (&[][..], 1),
                Fill::Subnormal => (&SUBNORMAL[..], 7),
                Fill::NonFinite => (&NON_FINITE[..], 331),
            };
            for kv in [&mut k, &mut v] {
                for (x, &special) in kv.iter_mut().step_by(step).zip(specials.iter().cycle()) {
                    *x = special;
                }
            }
            for method in [ExpMethod::F32Poly, ExpMethod::F16Poly, ExpMethod::Lut16] {
                let fa = FlashAttention {
                    lut: &lut,
                    method,
                    kv_block: 128,
                    q_heads_per_kv: g,
                };
                let (out, _) = fa.run_with_mask(&mut c, shape, &q, &k, &v, causal);
                let reference =
                    flash_elementwise_ref(&mut c, &lut, method, 128, g, shape, &q, &k, &v, causal);
                assert_eq!(out.len(), reference.len());
                let nan_blind = matches!(fill, Fill::NonFinite);
                for (idx, (a, b)) in out.iter().zip(&reference).enumerate() {
                    assert!(
                        a == b || (nan_blind && a.is_nan() && b.is_nan()),
                        "element {idx}: {a:?} vs {b:?}: g={g} nq={nq} nkv={nkv} d={d} \
                         causal={causal:?} amp={amp} {fill:?} {method:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn staged_attention_f32_is_bit_identical_to_elementwise() {
        // Same check for the Table 5 accuracy baseline: staging Q/K/V and
        // batching the output rounding must not move a single bit.
        let elementwise =
            |q: &[F16], k: &[F16], v: &[F16], heads: usize, nq: usize, nkv: usize, d: usize| {
                let scale = 1.0f32 / (d as f32).sqrt();
                let mut out = vec![F16::ZERO; heads * nq * d];
                for h in 0..heads {
                    for i in 0..nq {
                        let mut s = vec![0.0f32; nkv];
                        for (j, sj) in s.iter_mut().enumerate() {
                            let mut dot = 0.0f32;
                            for p in 0..d {
                                dot += q[(h * nq + i) * d + p].to_f32() * k[j * d + p].to_f32();
                            }
                            *sj = dot * scale;
                        }
                        let mx = s.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
                        let mut sum = 0.0f32;
                        for x in s.iter_mut() {
                            *x = (*x - mx).exp();
                            sum += *x;
                        }
                        for p in 0..d {
                            let mut acc = 0.0f32;
                            for (j, &w) in s.iter().enumerate() {
                                acc += w / sum * v[j * d + p].to_f32();
                            }
                            out[(h * nq + i) * d + p] = F16::from_f32(acc);
                        }
                    }
                }
                out
            };
        for &(heads, nq, nkv, d, seed, amp) in &[
            (1usize, 4usize, 96usize, 64usize, 3u64, 1.0f32),
            (2, 3, 100, 32, 7, 1.0),
            (4, 2, 33, 64, 11, 16.0),
        ] {
            let q = rand_f16(heads * nq * d, seed, amp);
            let k = rand_f16(nkv * d, seed ^ 0xA5, amp);
            let v = rand_f16(nkv * d, seed ^ 0x5A, amp);
            let staged = attention_f32(&q, &k, &v, heads, nq, nkv, d);
            let reference = elementwise(&q, &k, &v, heads, nq, nkv, d);
            for (idx, (a, b)) in staged.iter().zip(&reference).enumerate() {
                assert_eq!(
                    a.0, b.0,
                    "element {idx}: heads={heads} nq={nq} nkv={nkv} d={d}"
                );
            }
        }
    }

    #[test]
    fn flash_attention_matches_f64_reference() {
        let mut c = ctx();
        let lut = ExpLut16::build(&mut c).unwrap();
        let shape = AttnShape {
            nq: 4,
            nkv: 160,
            head_dim: 64,
        };
        let q = rand_f16(4 * 64, 3, 1.0);
        let k = rand_f16(160 * 64, 7, 1.0);
        let v = rand_f16(160 * 64, 11, 1.0);
        let fa = FlashAttention::new(&lut, ExpMethod::Lut16, 1);
        let (out, _) = fa.run(&mut c, shape, &q, &k, &v);
        let reference =
            attention_ref_f64(&to_f32(&q), &to_f32(&k), &to_f32(&v), 4, 160, 64, 1.0 / 8.0);
        let err = rmse(&to_f32(&out), &reference);
        assert!(err < 5e-3, "rmse {err}");
    }

    #[test]
    fn partial_final_block_is_handled() {
        let mut c = ctx();
        let lut = ExpLut16::build(&mut c).unwrap();
        // nkv = 100 is not a multiple of the 128-long KV block.
        let shape = AttnShape {
            nq: 2,
            nkv: 100,
            head_dim: 32,
        };
        let q = rand_f16(2 * 32, 5, 1.0);
        let k = rand_f16(100 * 32, 6, 1.0);
        let v = rand_f16(100 * 32, 8, 1.0);
        let fa = FlashAttention::new(&lut, ExpMethod::Lut16, 1);
        let (out, _) = fa.run(&mut c, shape, &q, &k, &v);
        let reference = attention_ref_f64(
            &to_f32(&q),
            &to_f32(&k),
            &to_f32(&v),
            2,
            100,
            32,
            1.0 / (32.0f64).sqrt(),
        );
        assert!(rmse(&to_f32(&out), &reference) < 5e-3);
    }

    #[test]
    fn lut_fa_matches_f32_attention_closely() {
        // Table 5's claim: FP16 FA with LUT softmax ~= conventional F32
        // attention at the model level. At the kernel level their outputs
        // must agree to FP16 resolution.
        let mut c = ctx();
        let lut = ExpLut16::build(&mut c).unwrap();
        let shape = AttnShape {
            nq: 3,
            nkv: 96,
            head_dim: 64,
        };
        let q = rand_f16(2 * 3 * 64, 4, 1.0);
        let k = rand_f16(96 * 64, 9, 1.0);
        let v = rand_f16(96 * 64, 10, 1.0);
        let fa = FlashAttention::new(&lut, ExpMethod::Lut16, 2);
        let (out_fa, _) = fa.run(&mut c, shape, &q, &k, &v);
        let out_f32 = attention_f32(&q, &k, &v, 2, 3, 96, 64);
        let max_diff = out_fa
            .iter()
            .zip(&out_f32)
            .map(|(a, b)| (a.to_f32() - b.to_f32()).abs())
            .fold(0.0f32, f32::max);
        assert!(max_diff < 8e-3, "max diff {max_diff}");
    }

    #[test]
    fn breakdown_shifts_to_softmax_with_batch_figure8() {
        // Figure 8: at prompt 4096 with GQA group 6 (Qwen2.5-1.5B), the
        // load/store share falls and the softmax share rises as q grows.
        let mut c = NpuContext::new(DeviceProfile::v75(), ExecMode::CostOnly);
        let lut = ExpLut16::build(&mut c).unwrap();
        let fa = FlashAttention::new(&lut, ExpMethod::Lut16, 6);
        let share = |c: &mut NpuContext, nq: usize| {
            let shape = AttnShape {
                nq,
                nkv: 4096,
                head_dim: 128,
            };
            let (_, bd) = fa.run(c, shape, &[], &[], &[]);
            bd.shares()
        };
        let s4 = share(&mut c, 4);
        let s32 = share(&mut c, 32);
        // Load/store is a major share at q=4 (paper: 58.3%) and fades by
        // q=32 (paper: 11.3%).
        assert!(s4[0] > 30.0, "q=4 load share {}", s4[0]);
        assert!(s32[0] < 15.0, "q=32 load share {}", s32[0]);
        assert!(s32[0] < s4[0]);
        // Softmax dominates at q=32 (paper: 84.6%).
        assert!(s32[2] > 75.0, "q=32 softmax share {}", s32[2]);
        assert!(s4[2] < s32[2]);
        // MatMul is the smallest contributor throughout (paper: "matrix
        // multiplication contributes little", ~4%).
        assert!(s4[1] < s4[0] && s4[1] < 15.0, "q=4 matmul share {}", s4[1]);
        assert!(s32[1] < s32[2] && s32[1] < 15.0);
    }

    #[test]
    fn causal_prefill_matches_reference() {
        let mut c = ctx();
        let lut = ExpLut16::build(&mut c).unwrap();
        // 6 new tokens starting at position 2 of an 8-token KV cache.
        let shape = AttnShape {
            nq: 6,
            nkv: 8,
            head_dim: 32,
        };
        let q = rand_f16(6 * 32, 13, 1.0);
        let k = rand_f16(8 * 32, 14, 1.0);
        let v = rand_f16(8 * 32, 15, 1.0);
        let fa = FlashAttention::new(&lut, ExpMethod::Lut16, 1);
        let (out, _) = fa.run_causal(&mut c, shape, &q, &k, &v, 2);
        let reference = crate::reference::attention_causal_ref_f64(
            &to_f32(&q),
            &to_f32(&k),
            &to_f32(&v),
            6,
            8,
            32,
            1.0 / (32.0f64).sqrt(),
            2,
        );
        assert!(rmse(&to_f32(&out), &reference) < 6e-3);
    }

    #[test]
    fn cost_only_and_functional_agree_on_totals() {
        let shape = AttnShape {
            nq: 4,
            nkv: 256,
            head_dim: 64,
        };
        let run = |mode| {
            let mut c = NpuContext::new(DeviceProfile::v75(), mode);
            let lut = ExpLut16::build(&mut c).unwrap();
            let fa = FlashAttention::new(&lut, ExpMethod::Lut16, 2);
            let (q, k, v) = if mode == ExecMode::Functional {
                (
                    rand_f16(2 * 4 * 64, 1, 1.0),
                    rand_f16(256 * 64, 2, 1.0),
                    rand_f16(256 * 64, 3, 1.0),
                )
            } else {
                (vec![], vec![], vec![])
            };
            let (_, bd) = fa.run(&mut c, shape, &q, &k, &v);
            bd.total_wall()
        };
        let wf = run(ExecMode::Functional);
        let wc = run(ExecMode::CostOnly);
        assert!(
            (wf - wc).abs() / wf < 1e-9,
            "functional {wf} vs cost-only {wc}"
        );
    }

    #[test]
    fn longer_context_costs_proportionally_more() {
        let mut c = NpuContext::new(DeviceProfile::v75(), ExecMode::CostOnly);
        let lut = ExpLut16::build(&mut c).unwrap();
        let fa = FlashAttention::new(&lut, ExpMethod::Lut16, 4);
        let t = |c: &mut NpuContext, nkv: usize| {
            let shape = AttnShape {
                nq: 8,
                nkv,
                head_dim: 128,
            };
            fa.run(c, shape, &[], &[], &[]).1.total_wall()
        };
        let t1k = t(&mut c, 1024);
        let t4k = t(&mut c, 4096);
        let ratio = t4k / t1k;
        assert!((3.5..4.5).contains(&ratio), "context scaling {ratio}");
    }
}
