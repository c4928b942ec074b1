//! Mixed-precision GEMM/GEMV: streaming weight dequantization feeding the
//! HMX matrix engine (paper Sections 5.1-5.2, ablated in Figure 15).
//!
//! The pipeline per weight tile is: DMA the quantized bytes DDR -> TCM,
//! dequantize to FP16 on the HVX, multiply-accumulate on the HMX. DMA,
//! HVX and HMX run concurrently (double buffering), so the kernel's wall
//! time is the maximum of the three engine times — which is how the paper's
//! "no dequantization" arm becomes a DMA-bound upper bound that the
//! coalesced-LUT design approaches within ~27%.
//!
//! Four variants, matching Figure 15's arms:
//!
//! | Variant            | Weight layout      | Dequant path                |
//! |--------------------|--------------------|-----------------------------|
//! | `BaselineScatter`  | column-major groups| naive chain + `vscatter`    |
//! | `HmxLayoutNaive`   | HMX tile groups    | naive chain, contiguous st  |
//! | `CoalescedLut`     | HMX tile groups + super-blocks | `vlut16` path   |
//! | `NoDequantBound`   | HMX tile groups    | none (copy only; perf bound)|
//!
//! A functional [`gemm_mixed`] keeps, per weight tile of its
//! [`PreparedWeights`], the FP16 tile the dequantizer wrote and its FP32
//! widening, keyed on the quantized bytes the DMA staged. When a later
//! call stages the same bytes, the dequantizer's instruction trace runs
//! for its charges only and the memoized tile goes into TCM, so TCM bytes,
//! charges and output equal a full dequantization's; staged bytes that
//! differ from the key (the stream was rewritten through
//! [`NpuContext::ddr_write`]) dequantize again. Cost-only calls never
//! touch the memo. A memoized tile takes about 7 KiB (the key, the 2 KiB
//! FP16 tile and the 4 KiB FP32 one), several times its quantized bytes,
//! which suits the small models functional contexts run. Activation tiles
//! widen straight from the rows they pack, not back out of TCM, and output
//! tiles convert only the batch's real rows: the padding rows are +0 and
//! skip every MAC.

use std::cell::RefCell;
use std::fmt;

use hexsim::f16::F16;
use hexsim::hmx::{pack_tile, unpack_tile_f32, HmxAccumulator, WideTile, TILE_BYTES, TILE_DIM};
use hexsim::prelude::*;
use tilequant::block::{BlockQ4_0, BlockQ8_0, Q4_0_BLOCK_BYTES, Q8_0_BLOCK_BYTES};
use tilequant::super_group::{
    coalesce_q4_stream, coalesce_q8_stream, SUPER_Q4_BYTES, SUPER_Q8_BYTES,
};
use tilequant::{QuantScheme, QuantizedMatrix, WeightLayout};

use crate::dequant::{
    dequant_group_baseline_scatter, dequant_group_naive_q8_hmx, dequant_pairs_naive_hmx,
    dequant_super_q4_lut, dequant_super_q8_lut, DequantEnv,
};

/// Which dequantization arm of the Figure 15 ablation to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DequantVariant {
    /// Conventional layout; dequantize group-by-group and scatter into
    /// tiles ("baseline" in Figure 15).
    BaselineScatter,
    /// Offline HMX-layout rearrangement with tile-group quantization, but
    /// the naive conversion chain ("w/ HMX layout").
    HmxLayoutNaive,
    /// Full design: super-group coalescing + LUT dequantization ("ours").
    CoalescedLut,
    /// Copy quantized bytes on-chip without any dequantization — the
    /// performance upper bound ("no dequant.").
    NoDequantBound,
}

impl DequantVariant {
    /// Label as used in Figure 15.
    pub fn label(self) -> &'static str {
        match self {
            DequantVariant::BaselineScatter => "baseline",
            DequantVariant::HmxLayoutNaive => "w/ HMX layout",
            DequantVariant::CoalescedLut => "ours",
            DequantVariant::NoDequantBound => "no dequant.",
        }
    }

    /// The weight layout this variant requires.
    pub fn required_layout(self) -> WeightLayout {
        match self {
            DequantVariant::BaselineScatter => WeightLayout::ColumnMajorGroups,
            _ => WeightLayout::HmxTileGroups,
        }
    }
}

/// GEMM shape and execution configuration.
#[derive(Clone, Copy, Debug)]
pub struct GemmConfig {
    /// Rows of the activation matrix (decode batch size; 1 for GEMV).
    pub m: usize,
    /// Accumulation dimension (multiple of 32).
    pub k: usize,
    /// Output dimension (multiple of 32).
    pub n: usize,
    /// Block codec of the weights.
    pub scheme: QuantScheme,
    /// Dequantization arm.
    pub variant: DequantVariant,
    /// HVX threads the dequantizer spreads across.
    pub threads: u32,
}

/// GEMM output and cost.
#[derive(Clone, Debug)]
pub struct GemmResult {
    /// Row-major `[m, n]` FP16 output (empty in cost-only mode).
    pub out: Vec<F16>,
    /// Single overlapped-phase cost; wall = max over engines.
    pub cost: PhaseCost,
}

/// Weights prepared for the NPU: quantized bytes resident in DDR in the
/// order the chosen variant streams them.
pub struct PreparedWeights {
    /// DDR residency of the streaming byte layout.
    pub buf: DdrBuffer,
    /// Matrix shape `[k, n]`.
    pub k: usize,
    /// Output dimension.
    pub n: usize,
    /// Codec.
    pub scheme: QuantScheme,
    /// Variant the bytes were packed for.
    pub variant: DequantVariant,
    /// Bytes per 32x32 weight tile in the stream.
    pub tile_bytes: usize,
    /// Total byte length.
    pub len: u64,
    /// One slot per weight tile, in stream order: what the dequantizer
    /// made of the bytes last staged for it. Empty until a functional
    /// [`gemm_mixed`] call sizes it. `RefCell` because the forward pass
    /// takes the weights by shared reference.
    memo: RefCell<Vec<Option<TileMemo>>>,
}

/// The tile data stays out of the output: a model's weights print as
/// their shapes.
impl fmt::Debug for PreparedWeights {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PreparedWeights")
            .field("buf", &self.buf)
            .field("k", &self.k)
            .field("n", &self.n)
            .field("scheme", &self.scheme)
            .field("variant", &self.variant)
            .field("tile_bytes", &self.tile_bytes)
            .field("len", &self.len)
            .finish_non_exhaustive()
    }
}

/// The dequantizer's output for one weight tile.
struct TileMemo {
    /// The staged quantized bytes it was computed from.
    key: Vec<u8>,
    /// The interleaved FP16 tile the dequantizer wrote to TCM.
    fp16: [u8; TILE_BYTES],
    /// `fp16` widened for the MAC.
    wide: WideTile,
}

/// Bytes per 1024-element tile of quantized stream for a scheme/variant.
fn tile_stream_bytes(scheme: QuantScheme, variant: DequantVariant) -> usize {
    match (scheme, variant) {
        (QuantScheme::Q4_0, DequantVariant::CoalescedLut) => 4 * SUPER_Q4_BYTES,
        (QuantScheme::Q8_0, DequantVariant::CoalescedLut) => 4 * SUPER_Q8_BYTES,
        (QuantScheme::Q4_0, _) => 32 * Q4_0_BLOCK_BYTES,
        (QuantScheme::Q8_0, _) => 32 * Q8_0_BLOCK_BYTES,
    }
}

/// Uploads a quantized matrix into DDR in the byte order the variant
/// expects (coalescing super-groups for the LUT arm). Offline cost: free.
///
/// # Panics
///
/// Panics if the matrix layout does not match the variant's requirement.
pub fn prepare_weights(
    ctx: &mut NpuContext,
    qm: &QuantizedMatrix,
    variant: DequantVariant,
) -> SimResult<PreparedWeights> {
    assert_eq!(
        qm.layout,
        variant.required_layout(),
        "matrix layout does not match variant"
    );
    let tiles = (qm.k / TILE_DIM) * (qm.n / TILE_DIM);
    let len = (tiles * tile_stream_bytes(qm.scheme, variant)) as u64;
    let buf = if ctx.mode == ExecMode::Functional {
        let bytes: Vec<u8> = if variant == DequantVariant::CoalescedLut {
            match qm.scheme {
                QuantScheme::Q4_0 => {
                    let blocks: Vec<BlockQ4_0> =
                        (0..qm.num_blocks()).map(|i| qm.block_q4(i)).collect();
                    coalesce_q4_stream(&blocks)
                }
                QuantScheme::Q8_0 => {
                    let blocks: Vec<BlockQ8_0> =
                        (0..qm.num_blocks()).map(|i| qm.block_q8(i)).collect();
                    coalesce_q8_stream(&blocks)
                }
            }
        } else {
            qm.bytes.clone()
        };
        assert_eq!(bytes.len() as u64, len, "stream length mismatch");
        ctx.ddr_alloc_from(&bytes)?
    } else {
        // Cost-only: the stream size is derived from the shape; no bytes
        // are materialized.
        ctx.ddr_alloc(len)?
    };
    Ok(PreparedWeights {
        buf,
        k: qm.k,
        n: qm.n,
        scheme: qm.scheme,
        variant,
        tile_bytes: tile_stream_bytes(qm.scheme, variant),
        len,
        memo: RefCell::new(Vec::new()),
    })
}

/// Packs activation rows `[m, k]` into interleaved HMX tiles in TCM
/// (functional), charging the shuffle/store trace per tile.
///
/// Returns the same tiles widened to FP32, in TCM order, straight from
/// `act`: the real rows widen and the padding rows stay +0.0, which is
/// exactly what unpacking the packed tiles would give. Cost-only calls
/// (no `area`) return nothing.
fn stage_activations(
    ctx: &mut NpuContext,
    act: &[F16],
    m: usize,
    k: usize,
    area: Option<TcmAddr>,
) -> Vec<WideTile> {
    let m_tiles = m.div_ceil(TILE_DIM);
    let k_tiles = k / TILE_DIM;
    // Charges: per tile, 16 cross-lane shuffles plus a load+store sweep.
    let tiles = (m_tiles * k_tiles) as u64;
    ctx.cost.charge_dma((m * k * 2) as u64);
    ctx.cost.charge_hvx_packets(tiles * 16);
    ctx.cost.charge_tcm_bytes(tiles * 2 * TILE_BYTES as u64);
    let Some(area) = area else {
        return Vec::new();
    };
    let mut wide = Vec::with_capacity(m_tiles * k_tiles);
    for (mt, rows) in act[..m * k].chunks(TILE_DIM * k).enumerate() {
        for kt in 0..k_tiles {
            let mut tile = [[F16::ZERO; TILE_DIM]; TILE_DIM];
            let mut tile_f32: WideTile = [[0.0; TILE_DIM]; TILE_DIM];
            for ((dst, dst_f32), row) in
                tile.iter_mut().zip(&mut tile_f32).zip(rows.chunks_exact(k))
            {
                let src = &row[kt * TILE_DIM..(kt + 1) * TILE_DIM];
                dst.copy_from_slice(src);
                F16::to_f32_slice(src, dst_f32);
            }
            let off = ((mt * k_tiles + kt) * TILE_BYTES) as u32;
            ctx.tcm_poke(area.offset(off), &pack_tile(&tile));
            wide.push(tile_f32);
        }
    }
    wide
}

/// Dequantizes one staged weight tile into `wgt_tile` via the variant's
/// kernel. `staging` holds the tile's quantized bytes (already DMA'd).
fn dequant_tile(
    ctx: &mut NpuContext,
    env: &DequantEnv,
    cfg: &GemmConfig,
    staging: TcmAddr,
    wgt_tile: TcmAddr,
) {
    match (cfg.variant, cfg.scheme) {
        (DequantVariant::CoalescedLut, QuantScheme::Q4_0) => {
            for s in 0..4u32 {
                dequant_super_q4_lut(
                    ctx,
                    env,
                    staging.offset(s * SUPER_Q4_BYTES as u32),
                    wgt_tile.offset(s * 512),
                );
            }
        }
        (DequantVariant::CoalescedLut, QuantScheme::Q8_0) => {
            for s in 0..4u32 {
                dequant_super_q8_lut(
                    ctx,
                    env,
                    staging.offset(s * SUPER_Q8_BYTES as u32),
                    wgt_tile.offset(s * 512),
                );
            }
        }
        (DequantVariant::HmxLayoutNaive, QuantScheme::Q4_0) => {
            for p in 0..16u32 {
                dequant_pairs_naive_hmx(
                    ctx,
                    staging.offset(p * 2 * Q4_0_BLOCK_BYTES as u32),
                    wgt_tile.offset(p * 128),
                );
            }
        }
        (DequantVariant::HmxLayoutNaive, QuantScheme::Q8_0) => {
            for gi in 0..32u32 {
                dequant_group_naive_q8_hmx(
                    ctx,
                    staging.offset(gi * Q8_0_BLOCK_BYTES as u32),
                    wgt_tile.offset(gi * 64),
                );
            }
        }
        (DequantVariant::BaselineScatter, scheme) => {
            // Conventional layout: the staged bytes hold one group per
            // output column of this tile (32 groups).
            let block_bytes = scheme.block_bytes() as u32;
            for col in 0..32 {
                match scheme {
                    QuantScheme::Q4_0 => dequant_group_baseline_scatter(
                        ctx,
                        staging.offset(col as u32 * block_bytes),
                        wgt_tile,
                        col,
                    ),
                    QuantScheme::Q8_0 => {
                        // Q8 baseline: naive chain + the same scatter cost.
                        let src = staging.offset(col as u32 * block_bytes);
                        ctx.cost.charge_tcm_bytes(128);
                        let qf = 2 * ctx.device().qf16_convert_ops();
                        ctx.cost.charge_hvx_packets(7 + qf);
                        ctx.cost.charge_vgather(true);
                        let block = BlockQ8_0::from_bytes(ctx.tcm_peek(src, 34));
                        for (i, q) in block.quants.iter().enumerate() {
                            let vf = F16::from_f32(*q as f32).mul(block.scale);
                            let off = hexsim::hmx::tile_elem_offset(i, col) as u32;
                            let b = vf.0.to_le_bytes();
                            ctx.tcm_poke(wgt_tile.offset(off), &b);
                        }
                    }
                }
            }
        }
        (DequantVariant::NoDequantBound, scheme) => {
            // Copy quantized bytes on-chip without compute: the bandwidth
            // bound. Functionally we still produce correct FP16 tiles
            // (simulation-side, uncharged) so GEMM results stay checkable.
            let qbytes = tile_stream_bytes(scheme, DequantVariant::HmxLayoutNaive) as u64;
            ctx.cost.charge_tcm_bytes(qbytes * 2);
            if ctx.mode == ExecMode::Functional {
                let mut tile_bytes = vec![0u8; TILE_BYTES];
                match scheme {
                    QuantScheme::Q4_0 => {
                        for gi in 0..32 {
                            let src = staging.offset((gi * Q4_0_BLOCK_BYTES) as u32);
                            let block = BlockQ4_0::from_bytes(ctx.tcm_peek(src, Q4_0_BLOCK_BYTES));
                            for i in 0..32 {
                                let vf = block.dequantize_f16(i);
                                let o = (gi * 32 + i) * 2;
                                tile_bytes[o..o + 2].copy_from_slice(&vf.0.to_le_bytes());
                            }
                        }
                    }
                    QuantScheme::Q8_0 => {
                        for gi in 0..32 {
                            let src = staging.offset((gi * Q8_0_BLOCK_BYTES) as u32);
                            let block = BlockQ8_0::from_bytes(ctx.tcm_peek(src, Q8_0_BLOCK_BYTES));
                            for i in 0..32 {
                                let vf = F16::from_f32(block.quants[i] as f32).mul(block.scale);
                                let o = (gi * 32 + i) * 2;
                                tile_bytes[o..o + 2].copy_from_slice(&vf.0.to_le_bytes());
                            }
                        }
                    }
                }
                ctx.tcm_poke(wgt_tile, &tile_bytes);
            }
        }
    }
}

/// [`dequant_tile`] in a functional context through the tile's memo
/// `slot`: returns the dequantized tile widened for the MAC.
///
/// If the `staged_len` bytes at `staging` equal the slot's key, the
/// dequantizer runs for its charges and TCM bounds checks only and the
/// memoized FP16 tile is poked into `wgt_tile`. Otherwise it runs in
/// full, and its output and the staged bytes refill the slot. Either way
/// `wgt_tile` holds the same bytes and the context the same charges.
fn dequant_tile_memo<'m>(
    ctx: &mut NpuContext,
    env: &DequantEnv,
    cfg: &GemmConfig,
    staging: TcmAddr,
    staged_len: usize,
    wgt_tile: TcmAddr,
    slot: &'m mut Option<TileMemo>,
) -> &'m WideTile {
    match slot {
        Some(memo) if memo.key == ctx.tcm_peek(staging, staged_len) => {
            ctx.charge_only(|ctx| dequant_tile(ctx, env, cfg, staging, wgt_tile));
            ctx.tcm_poke(wgt_tile, &memo.fp16);
        }
        _ => {
            let key = ctx.tcm_peek(staging, staged_len).to_vec();
            dequant_tile(ctx, env, cfg, staging, wgt_tile);
            let fp16: [u8; TILE_BYTES] = ctx
                .tcm_peek(wgt_tile, TILE_BYTES)
                .try_into()
                .expect("a peek of TILE_BYTES is one tile");
            let wide = unpack_tile_f32(&fp16);
            *slot = Some(TileMemo { key, fp16, wide });
        }
    }
    &slot.as_ref().expect("a miss fills the slot").wide
}

/// What a cost-only `gemm_mixed` writes back: it accumulates nothing, and
/// its `hmx_store_acc` only charges and bounds-checks.
static COST_ONLY_ACC: HmxAccumulator = HmxAccumulator::new();

/// Runs the mixed-precision GEMM `Y[m, n] = X[m, k] x W[k, n]`.
///
/// `act` is row-major `[m, k]` FP16 (may be empty in cost-only mode).
/// Returns the output and the overlapped-phase cost. A functional call
/// dequantizes each weight tile through the memo in `weights` (see the
/// module documentation).
///
/// # Panics
///
/// Panics if shapes are inconsistent with `weights`, or if functional mode
/// is used with a workload whose staging exceeds TCM.
pub fn gemm_mixed(
    ctx: &mut NpuContext,
    cfg: &GemmConfig,
    weights: &PreparedWeights,
    act: &[F16],
) -> GemmResult {
    assert_eq!(weights.k, cfg.k);
    assert_eq!(weights.n, cfg.n);
    assert_eq!(weights.scheme, cfg.scheme);
    assert_eq!(weights.variant, cfg.variant);
    let functional = ctx.mode == ExecMode::Functional;
    if functional {
        assert_eq!(act.len(), cfg.m * cfg.k);
    }

    let m_tiles = cfg.m.div_ceil(TILE_DIM);
    let k_tiles = cfg.k / TILE_DIM;
    let n_tiles = cfg.n / TILE_DIM;
    // Real rows of activation row-tile `mt`; the last one may be padded.
    let real_rows = |mt: usize| TILE_DIM.min(cfg.m - mt * TILE_DIM);
    let mark = ctx.tcm_mark();

    // TCM areas (functional only for the big activation array).
    let act_area = if functional {
        Some(
            ctx.tcm_alloc((m_tiles * k_tiles * TILE_BYTES) as u32, 2048)
                .expect("activation tiles must fit TCM in functional mode"),
        )
    } else {
        None
    };
    let staging = ctx
        .tcm_alloc((weights.tile_bytes + 128) as u32, 128)
        .expect("weight staging fits");
    let wgt_tile = ctx
        .tcm_alloc(TILE_BYTES as u32, 2048)
        .expect("wgt tile fits");
    let out_area = ctx
        .tcm_alloc((m_tiles * TILE_BYTES) as u32, 2048)
        .expect("output tiles fit");

    let mut out = if functional {
        vec![F16::ZERO; cfg.m * cfg.n]
    } else {
        Vec::new()
    };
    let mut memo = weights.memo.borrow_mut();
    if functional && memo.is_empty() {
        memo.resize_with(n_tiles * k_tiles, || None);
    }

    let prev = ctx.cost.set_hvx_parallelism(cfg.threads);
    let env = DequantEnv::new(ctx);
    let (_, cost) = ctx.phase("gemm", |ctx| {
        // The staged activation tiles, widened to FP32 once per call.
        let act_wide = stage_activations(ctx, act, cfg.m, cfg.k, act_area);
        // Cost-only calls accumulate nothing, so they hold no accumulators.
        let mut accs: Vec<HmxAccumulator> = if functional {
            vec![HmxAccumulator::new(); m_tiles]
        } else {
            Vec::new()
        };
        let tiles = (n_tiles * k_tiles) as u64;
        ctx.replay_indexed(tiles, |ctx, idx| {
            let tile_idx = idx as usize;
            let nt = tile_idx / k_tiles;
            let kt = tile_idx % k_tiles;
            if kt == 0 {
                for acc in accs.iter_mut() {
                    acc.clear();
                }
            }
            // Stream this tile's quantized bytes from DDR: a column-major
            // tile stream for HMX layouts, while the baseline's
            // conventional stream interleaves per-column groups, which the
            // DMA gathers with a 2D descriptor.
            if cfg.variant == DequantVariant::BaselineScatter {
                // 2D DMA: 32 groups, one per column, strided by k/32 blocks.
                let block_bytes = cfg.scheme.block_bytes() as u64;
                let col_stride = k_tiles as u64 * block_bytes;
                let base = (nt * 32) as u64 * col_stride + kt as u64 * block_bytes;
                ctx.dma_h2t_2d(
                    weights.buf,
                    base,
                    col_stride,
                    staging,
                    cfg.scheme.block_bytes() as u32,
                    32,
                )
                .expect("baseline weight DMA");
            } else {
                ctx.dma_h2t(
                    weights.buf,
                    (tile_idx * weights.tile_bytes) as u64,
                    staging,
                    weights.tile_bytes as u32,
                );
            }
            // Dequantize, then multiply-accumulate every activation
            // row-tile against the weight tile, widened once for all of
            // them. Each MAC's `hmx_matmul` runs for its charge and bounds
            // checks only.
            match act_area {
                Some(area) => {
                    let wgt_wide = dequant_tile_memo(
                        ctx,
                        &env,
                        cfg,
                        staging,
                        weights.tile_bytes,
                        wgt_tile,
                        &mut memo[tile_idx],
                    );
                    for (mt, acc) in accs.iter_mut().enumerate() {
                        let t = mt * k_tiles + kt;
                        let act_tile = area.offset((t * TILE_BYTES) as u32);
                        ctx.charge_only(|ctx| ctx.hmx_matmul(acc, act_tile, wgt_tile));
                        acc.mac_f32(&act_wide[t], wgt_wide);
                    }
                }
                None => {
                    dequant_tile(ctx, &env, cfg, staging, wgt_tile);
                    for _ in 0..m_tiles {
                        ctx.hmx_charge(1);
                    }
                }
            }
            if kt == k_tiles - 1 {
                // Write back this output tile column. `hmx_store_acc` runs
                // for its charge and bounds check; only the real rows
                // convert. The padding rows skipped every MAC, so they
                // stay +0.0 and pack to +0 exactly as `to_tile` would.
                for mt in 0..m_tiles {
                    let acc = accs.get(mt).unwrap_or(&COST_ONLY_ACC);
                    let out_tile = out_area.offset((mt * TILE_BYTES) as u32);
                    ctx.charge_only(|ctx| ctx.hmx_store_acc(acc, out_tile, None, None));
                    ctx.cost.charge_dma(TILE_BYTES as u64);
                    if functional {
                        let rows = real_rows(mt);
                        debug_assert!(acc.0[rows..].iter().flatten().all(|v| v.to_bits() == 0));
                        let mut tile = [[F16::ZERO; TILE_DIM]; TILE_DIM];
                        for (dst, src) in tile.iter_mut().zip(&acc.0[..rows]) {
                            F16::from_f32_slice(src, dst);
                        }
                        ctx.tcm_poke(out_tile, &pack_tile(&tile));
                        for (r, row) in tile[..rows].iter().enumerate() {
                            let o = (mt * TILE_DIM + r) * cfg.n + nt * TILE_DIM;
                            out[o..o + TILE_DIM].copy_from_slice(row);
                        }
                    }
                }
            }
        });
    });
    ctx.cost.restore_hvx_parallelism(prev);
    ctx.tcm_release(mark);
    GemmResult { out, cost }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::gemm_ref_f32;
    use hexsim::cost::Engine;
    use hexsim::hmx::unpack_tile;
    use tilequant::synth::gaussian_matrix;

    fn ctx() -> NpuContext {
        NpuContext::new(DeviceProfile::v75(), ExecMode::Functional)
    }

    fn act_f16(m: usize, k: usize, seed: u64) -> Vec<F16> {
        (0..m * k)
            .map(|i| F16::from_f32((((i as u64 * (seed + 3)) % 41) as f32) / 20.0 - 1.0))
            .collect()
    }

    fn run_variant(
        variant: DequantVariant,
        scheme: QuantScheme,
        m: usize,
        k: usize,
        n: usize,
    ) -> (Vec<F16>, Vec<f32>, PhaseCost) {
        let mut c = ctx();
        let _lut_area = c.tcm_alloc(64 * 1024, 128).unwrap(); // Mimic resident LUT.
        let w = gaussian_matrix(k, n, 77, 0.7, 0.0);
        let qm = QuantizedMatrix::quantize(&w, k, n, scheme, variant.required_layout());
        let deq = qm.dequantize();
        let prepared = prepare_weights(&mut c, &qm, variant).unwrap();
        let act = act_f16(m, k, 5);
        let cfg = GemmConfig {
            m,
            k,
            n,
            scheme,
            variant,
            threads: 4,
        };
        let result = gemm_mixed(&mut c, &cfg, &prepared, &act);
        // The second call dequantizes through the memo the first filled.
        let again = gemm_mixed(&mut c, &cfg, &prepared, &act);
        assert_eq!(again.out, result.out, "{variant:?} memo hit");
        let act_f32: Vec<f32> = act.iter().map(|v| v.to_f32()).collect();
        let reference = gemm_ref_f32(&act_f32, &deq, m, k, n);
        (result.out, reference, result.cost)
    }

    fn check_close(got: &[F16], expect: &[f32], tol: f32, label: &str) {
        for (i, (g, e)) in got.iter().zip(expect).enumerate() {
            let diff = (g.to_f32() - e).abs();
            let bound = tol * e.abs().max(1.0);
            assert!(diff <= bound, "{label}[{i}]: {} vs {}", g.to_f32(), e);
        }
    }

    #[test]
    fn coalesced_lut_gemv_matches_reference() {
        let (out, reference, _) =
            run_variant(DequantVariant::CoalescedLut, QuantScheme::Q4_0, 1, 64, 64);
        check_close(&out, &reference, 0.02, "lut");
    }

    #[test]
    fn all_variants_agree_functionally() {
        let (lut, reference, _) =
            run_variant(DequantVariant::CoalescedLut, QuantScheme::Q4_0, 2, 64, 96);
        check_close(&lut, &reference, 0.02, "lut");
        let (naive, reference2, _) =
            run_variant(DequantVariant::HmxLayoutNaive, QuantScheme::Q4_0, 2, 64, 96);
        check_close(&naive, &reference2, 0.02, "naive");
        let (nodeq, reference4, _) =
            run_variant(DequantVariant::NoDequantBound, QuantScheme::Q4_0, 2, 64, 96);
        check_close(&nodeq, &reference4, 0.02, "nodeq");
        // LUT and naive share the tile-group quantization, so they must be
        // bit-identical, not merely close.
        assert_eq!(lut, naive);
        assert_eq!(lut, nodeq);
    }

    #[test]
    fn baseline_scatter_matches_its_own_reference() {
        // The baseline uses conventional grouping, so its quantized values
        // differ slightly from the tile-group ones; compare against its own
        // dequantized reference.
        let (out, reference, _) = run_variant(
            DequantVariant::BaselineScatter,
            QuantScheme::Q4_0,
            1,
            64,
            64,
        );
        check_close(&out, &reference, 0.02, "baseline");
    }

    #[test]
    fn q8_gemv_is_tighter_than_q4() {
        let (out8, ref8, _) =
            run_variant(DequantVariant::CoalescedLut, QuantScheme::Q8_0, 1, 64, 64);
        let rmse8: f32 = out8
            .iter()
            .zip(&ref8)
            .map(|(a, b)| (a.to_f32() - b) * (a.to_f32() - b))
            .sum::<f32>()
            .sqrt();
        assert!(rmse8 < 0.05, "q8 rmse {rmse8}");
    }

    /// `gemm_mixed` with the plain MAC loop and no memo: every tile
    /// dequantizes from the bytes just staged, and every MAC reads both
    /// tiles back from TCM through `hmx_matmul`, which widens them again.
    /// Functional mode and HMX-layout weights only. The kernel must match
    /// it bitwise, charge for charge.
    #[allow(clippy::needless_range_loop)]
    fn gemm_tcm_mac_oracle(
        ctx: &mut NpuContext,
        cfg: &GemmConfig,
        weights: &PreparedWeights,
        act: &[F16],
    ) -> Vec<F16> {
        let m_tiles = cfg.m.div_ceil(TILE_DIM);
        let k_tiles = cfg.k / TILE_DIM;
        let n_tiles = cfg.n / TILE_DIM;
        let mark = ctx.tcm_mark();
        let area = ctx
            .tcm_alloc((m_tiles * k_tiles * TILE_BYTES) as u32, 2048)
            .unwrap();
        let staging = ctx
            .tcm_alloc((weights.tile_bytes + 128) as u32, 128)
            .unwrap();
        let wgt_tile = ctx.tcm_alloc(TILE_BYTES as u32, 2048).unwrap();
        let out_area = ctx.tcm_alloc((m_tiles * TILE_BYTES) as u32, 2048).unwrap();
        let mut out = vec![F16::ZERO; cfg.m * cfg.n];
        let prev = ctx.cost.set_hvx_parallelism(cfg.threads);
        let env = DequantEnv::new(ctx);
        ctx.phase("gemm", |ctx| {
            stage_activations(ctx, act, cfg.m, cfg.k, Some(area));
            let mut accs = vec![HmxAccumulator::new(); m_tiles];
            for nt in 0..n_tiles {
                for kt in 0..k_tiles {
                    if kt == 0 {
                        accs.iter_mut().for_each(HmxAccumulator::clear);
                    }
                    let tile_idx = nt * k_tiles + kt;
                    ctx.dma_h2t(
                        weights.buf,
                        (tile_idx * weights.tile_bytes) as u64,
                        staging,
                        weights.tile_bytes as u32,
                    );
                    dequant_tile(ctx, &env, cfg, staging, wgt_tile);
                    for (mt, acc) in accs.iter_mut().enumerate() {
                        let act_tile = area.offset(((mt * k_tiles + kt) * TILE_BYTES) as u32);
                        ctx.hmx_matmul(acc, act_tile, wgt_tile);
                    }
                }
                for (mt, acc) in accs.iter().enumerate() {
                    let out_tile = out_area.offset((mt * TILE_BYTES) as u32);
                    ctx.hmx_store_acc(acc, out_tile, None, None);
                    ctx.cost.charge_dma(TILE_BYTES as u64);
                    let tile = unpack_tile(ctx.tcm_peek(out_tile, TILE_BYTES));
                    for r in 0..TILE_DIM.min(cfg.m - mt * TILE_DIM) {
                        for c in 0..TILE_DIM {
                            out[(mt * TILE_DIM + r) * cfg.n + nt * TILE_DIM + c] = tile[r][c];
                        }
                    }
                }
            }
        });
        ctx.cost.restore_hvx_parallelism(prev);
        ctx.tcm_release(mark);
        out
    }

    /// Asserts two FP16 sequences agree bit for bit. NaN lanes compare by
    /// NaN-ness: Rust leaves the sign of a NaN sum open when both operands
    /// are NaN.
    fn assert_same_halves(got: &[F16], want: &[F16], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                g == w || (g.is_nan() && w.is_nan()),
                "{what} [{i}]: {g:?} vs {w:?}"
            );
        }
    }

    #[test]
    fn gemm_matches_the_tcm_mac_loop_bitwise_and_in_charges() {
        // Batches around the 32-row tile edge, each with one all-(-0.0)
        // activation row, and again with ±Inf and NaN activations. Each
        // kernel runs twice on one `PreparedWeights`: the first
        // `gemm_mixed` call fills the tile memo and the second hits it.
        // Before each call all of TCM is scribbled over, so the call must
        // write every byte it uses; after it, output, charges and all of
        // TCM must match.
        let (k, n) = (64, 96);
        let w = gaussian_matrix(k, n, 31, 0.7, 0.0);
        let scribble = vec![0xa5; DeviceProfile::v75().tcm_bytes as usize];
        let halves = |bytes: &[u8]| -> Vec<F16> {
            bytes
                .chunks_exact(2)
                .map(|h| F16(u16::from_le_bytes([h[0], h[1]])))
                .collect()
        };
        for scheme in [QuantScheme::Q4_0, QuantScheme::Q8_0] {
            let qm = QuantizedMatrix::quantize(&w, k, n, scheme, WeightLayout::HmxTileGroups);
            for m in [1, 31, 32, 33, 45] {
                let mut zero_row = act_f16(m, k, 7);
                zero_row[m / 2 * k..(m / 2 + 1) * k].fill(F16::NEG_ZERO);
                let mut specials = act_f16(m, k, 9);
                for (i, a) in specials.iter_mut().step_by(13).enumerate() {
                    *a = [F16::INFINITY, F16::NEG_INFINITY, F16::NAN][i % 3];
                }
                for (pattern, act) in [("-0.0 row", zero_row), ("±Inf/NaN", specials)] {
                    let cfg = GemmConfig {
                        m,
                        k,
                        n,
                        scheme,
                        variant: DequantVariant::CoalescedLut,
                        threads: 4,
                    };
                    let run = |kernel: &dyn Fn(&mut NpuContext, &PreparedWeights) -> Vec<F16>| {
                        let mut c = ctx();
                        let prepared = prepare_weights(&mut c, &qm, cfg.variant).unwrap();
                        [(); 2].map(|_| {
                            c.tcm_poke(TcmAddr(0), &scribble);
                            let out = kernel(&mut c, &prepared);
                            let charges = (
                                Engine::ALL.map(|e| c.cost.engine_secs(e).to_bits()),
                                *c.cost.counters(),
                            );
                            let tcm = halves(c.tcm_peek(TcmAddr(0), c.device().tcm_bytes as usize));
                            (out, charges, tcm)
                        })
                    };
                    let got = run(&|c, w| gemm_mixed(c, &cfg, w, &act).out);
                    let want = run(&|c, w| gemm_tcm_mac_oracle(c, &cfg, w, &act));
                    for (call, (g, w)) in got.iter().zip(&want).enumerate() {
                        let what = format!("{scheme:?} m={m} {pattern} call {call}");
                        assert_eq!(g.1, w.1, "{what}");
                        assert_same_halves(&g.0, &w.0, &what);
                        assert_same_halves(&g.2, &w.2, &format!("{what} TCM"));
                    }
                    // Only the ±Inf/NaN activations reach the output as NaN.
                    let nan_out = want[0].0.iter().any(|v| v.is_nan());
                    assert_eq!(nan_out, pattern == "±Inf/NaN", "{scheme:?} m={m}");
                }
            }
        }
    }

    #[test]
    fn a_rewritten_weight_stream_misses_the_memo() {
        // After a call fills the memo, the last three of the six tiles are
        // overwritten with another matrix's through `ddr_write`. The next
        // call must dequantize them again: it equals the TCM MAC loop,
        // which has no memo and reads the new bytes.
        let (m, k, n) = (3, 64, 96);
        let act = act_f16(m, k, 4);
        for scheme in [QuantScheme::Q4_0, QuantScheme::Q8_0] {
            let quantize = |seed| {
                let w = gaussian_matrix(k, n, seed, 0.7, 0.0);
                QuantizedMatrix::quantize(&w, k, n, scheme, WeightLayout::HmxTileGroups)
            };
            let cfg = GemmConfig {
                m,
                k,
                n,
                scheme,
                variant: DequantVariant::CoalescedLut,
                threads: 4,
            };
            let mut c = ctx();
            let prepared = prepare_weights(&mut c, &quantize(31), cfg.variant).unwrap();
            let before = gemm_mixed(&mut c, &cfg, &prepared, &act).out;
            let mut other_ctx = ctx();
            let other = prepare_weights(&mut other_ctx, &quantize(32), cfg.variant).unwrap();
            let from = 3 * prepared.tile_bytes as u64;
            let tail = other_ctx.ddr_read(other.buf, from, (other.len - from) as usize);
            c.ddr_write(prepared.buf, from, &tail);
            let got = gemm_mixed(&mut c, &cfg, &prepared, &act).out;
            let want = gemm_tcm_mac_oracle(&mut c, &cfg, &prepared, &act);
            assert_ne!(got, before, "{scheme:?}: the rewrite changes the product");
            assert_eq!(got, want, "{scheme:?}");
        }
    }

    #[test]
    fn only_functional_calls_fill_the_memo() {
        let (m, k, n) = (2, 64, 64);
        let w = gaussian_matrix(k, n, 5, 0.7, 0.0);
        let qm =
            QuantizedMatrix::quantize(&w, k, n, QuantScheme::Q4_0, WeightLayout::HmxTileGroups);
        let cfg = GemmConfig {
            m,
            k,
            n,
            scheme: QuantScheme::Q4_0,
            variant: DequantVariant::CoalescedLut,
            threads: 4,
        };
        let mut c = NpuContext::new(DeviceProfile::v75(), ExecMode::CostOnly);
        let prepared = prepare_weights(&mut c, &qm, cfg.variant).unwrap();
        gemm_mixed(&mut c, &cfg, &prepared, &[]);
        assert!(prepared.memo.borrow().is_empty());

        let mut c = ctx();
        let prepared = prepare_weights(&mut c, &qm, cfg.variant).unwrap();
        gemm_mixed(&mut c, &cfg, &prepared, &act_f16(m, k, 1));
        let memo = prepared.memo.borrow();
        assert_eq!(memo.len(), 4);
        assert!(memo.iter().all(Option::is_some));
        // `Debug` shows the shape, not the memoized tiles.
        let debug = format!("{prepared:?}");
        assert!(
            debug.starts_with("PreparedWeights { buf: DdrBuffer("),
            "{debug}"
        );
        assert!(debug.len() < 200, "{debug}");
    }

    #[test]
    fn functional_and_cost_only_charge_identically() {
        // One 32x32 weight tile: functional mode runs the single block that
        // cost-only mode replays once, so both issue the same charges and
        // every engine's seconds agree to the bit on fresh contexts.
        let (m, k, n) = (2, 32, 32);
        let w = gaussian_matrix(k, n, 21, 0.7, 0.0);
        let qm =
            QuantizedMatrix::quantize(&w, k, n, QuantScheme::Q4_0, WeightLayout::HmxTileGroups);
        let cfg = GemmConfig {
            m,
            k,
            n,
            scheme: QuantScheme::Q4_0,
            variant: DequantVariant::CoalescedLut,
            threads: 6,
        };
        let run = |mode| {
            let mut c = NpuContext::new(DeviceProfile::v75(), mode);
            let prepared = prepare_weights(&mut c, &qm, cfg.variant).unwrap();
            let act = if mode == ExecMode::Functional {
                act_f16(m, k, 3)
            } else {
                Vec::new()
            };
            gemm_mixed(&mut c, &cfg, &prepared, &act);
            (
                Engine::ALL.map(|e| c.cost.engine_secs(e).to_bits()),
                *c.cost.counters(),
            )
        };
        assert_eq!(run(ExecMode::CostOnly), run(ExecMode::Functional));
    }

    #[test]
    fn gemv_speedups_match_figure_15_ranges() {
        // Cost-only at a paper shape: 2048x2048 Q4 GEMV on V75 with the
        // device's full thread pool.
        let mut c = NpuContext::new(DeviceProfile::v75(), ExecMode::CostOnly);
        let wall = |c: &mut NpuContext, variant: DequantVariant, scheme| {
            let (k, n) = (2048, 2048);
            let w = vec![0.0f32; 1]; // Shape-only: no real weights needed.
            let _ = w;
            let qm = QuantizedMatrix {
                k,
                n,
                scheme,
                layout: variant.required_layout(),
                bytes: Vec::new(),
            };
            let prepared = prepare_weights(c, &qm, variant).unwrap();
            let cfg = GemmConfig {
                m: 1,
                k,
                n,
                scheme,
                variant,
                threads: 6,
            };
            let r = gemm_mixed(c, &cfg, &prepared, &[]);
            c.ddr_free(prepared.buf);
            r.cost.wall_secs
        };
        let t_base = wall(&mut c, DequantVariant::BaselineScatter, QuantScheme::Q4_0);
        let t_hmx = wall(&mut c, DequantVariant::HmxLayoutNaive, QuantScheme::Q4_0);
        let t_ours = wall(&mut c, DequantVariant::CoalescedLut, QuantScheme::Q4_0);
        let t_bound = wall(&mut c, DequantVariant::NoDequantBound, QuantScheme::Q4_0);

        let speedup_vs_baseline = t_base / t_ours;
        let speedup_vs_hmx = t_hmx / t_ours;
        let slowdown_vs_bound = t_ours / t_bound;
        // Paper: 9.65-19.04x vs baseline; 1.82-3.45x vs HMX-layout-only;
        // ~27% slower than the no-dequant bound on average.
        assert!(
            (8.0..21.0).contains(&speedup_vs_baseline),
            "vs baseline {speedup_vs_baseline}"
        );
        assert!(
            (1.5..4.0).contains(&speedup_vs_hmx),
            "vs hmx layout {speedup_vs_hmx}"
        );
        assert!(
            (1.05..2.2).contains(&slowdown_vs_bound),
            "vs bound {slowdown_vs_bound}"
        );
    }

    #[test]
    fn gemm_latency_nearly_flat_in_batch() {
        // The free-compute insight (Section 3.2): batch 16 GEMM costs about
        // the same as batch 1 because the HMX tile count is unchanged and
        // dequantization dominates.
        let mut c = NpuContext::new(DeviceProfile::v75(), ExecMode::CostOnly);
        let wall = |c: &mut NpuContext, m: usize| {
            let (k, n) = (2048, 2048);
            let qm = QuantizedMatrix {
                k,
                n,
                scheme: QuantScheme::Q4_0,
                layout: WeightLayout::HmxTileGroups,
                bytes: Vec::new(),
            };
            let prepared = prepare_weights(c, &qm, DequantVariant::CoalescedLut).unwrap();
            let cfg = GemmConfig {
                m,
                k,
                n,
                scheme: QuantScheme::Q4_0,
                variant: DequantVariant::CoalescedLut,
                threads: 6,
            };
            let r = gemm_mixed(c, &cfg, &prepared, &[]);
            c.ddr_free(prepared.buf);
            r.cost.wall_secs
        };
        let t1 = wall(&mut c, 1);
        let t16 = wall(&mut c, 16);
        let ratio = t16 / t1;
        assert!(ratio < 1.25, "batch-16 GEMM should be nearly free: {ratio}");
    }

    #[test]
    fn engine_breakdown_shows_dma_bound_for_no_dequant() {
        let mut c = NpuContext::new(DeviceProfile::v75(), ExecMode::CostOnly);
        let qm = QuantizedMatrix {
            k: 2048,
            n: 2048,
            scheme: QuantScheme::Q4_0,
            layout: WeightLayout::HmxTileGroups,
            bytes: Vec::new(),
        };
        let prepared = prepare_weights(&mut c, &qm, DequantVariant::NoDequantBound).unwrap();
        let cfg = GemmConfig {
            m: 1,
            k: 2048,
            n: 2048,
            scheme: QuantScheme::Q4_0,
            variant: DequantVariant::NoDequantBound,
            threads: 6,
        };
        let r = gemm_mixed(&mut c, &cfg, &prepared, &[]);
        assert!(r.cost.engine(Engine::Dma) > r.cost.engine(Engine::Hvx));
        assert!((r.cost.wall_secs - r.cost.engine(Engine::Dma)).abs() < 1e-12);
    }
}
