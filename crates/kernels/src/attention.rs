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
//!
//! Each stage charges exactly one engine: DMA for the Q/O and KV traffic,
//! HMX for QK^T and PV, HVX for the softmax update and the final
//! normalization. A stage's cost delta is therefore that engine's running
//! total after the stage minus before it — the subtraction
//! [`CostModel::delta_since`] makes, without snapshotting the other five —
//! and the Figure 8 breakdown is built from those scalars. Cost-only calls
//! charge one representative KV block and scale it by the block count
//! ([`CostModel::scale_since`]); both modes run the same accounting.
//!
//! The functional kernel reads K/V from [`KvBlocks`]: one KV head's
//! history, widened to FP32 once per position when it is appended and kept
//! in blocks of 32 positions, keys transposed. A decode step's KV never
//! changes once appended, so a cache that keeps its history this way is
//! read in place by every later step ([`FlashAttention::run_blocks`])
//! instead of being copied, widened and transposed again on each call.
//! Blocks are shared copy-on-write between clones, so N samples admitted
//! over one prompt hold one copy of the prompt's blocks.

use std::sync::Arc;

use hexsim::cost::NUM_ENGINES;
use hexsim::f16::F16;
use hexsim::prelude::*;

use crate::exp_lut::{charge_exp, ExpLut16, ExpMethod, RowExp};

/// Positions per [`KvBlocks`] block.
const BLOCK: usize = 32;

/// One KV head's history for [`FlashAttention::run_blocks`]: each position
/// widened to FP32 once, when it is pushed, and stored in blocks of 32
/// positions. A block holds its keys transposed to `[head_dim][32]`, then
/// its values as `[32][head_dim]` rows.
///
/// Blocks are reference-counted and copied on first write: a clone shares
/// every block with its source until one side pushes into a shared block,
/// which copies that block only.
#[derive(Clone, Debug)]
pub struct KvBlocks {
    head_dim: usize,
    len: usize,
    blocks: Vec<Arc<[f32]>>,
}

impl KvBlocks {
    /// An empty history for heads of `head_dim` values.
    pub fn new(head_dim: usize) -> Self {
        KvBlocks {
            head_dim,
            len: 0,
            blocks: Vec::new(),
        }
    }

    /// Positions stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no position is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends one position's key and value rows.
    ///
    /// # Panics
    ///
    /// Panics if either row is not `head_dim` long.
    pub fn push(&mut self, k: &[F16], v: &[F16]) {
        let d = self.head_dim;
        assert_eq!(k.len(), d, "key row length");
        assert_eq!(v.len(), d, "value row length");
        let j = self.len % BLOCK;
        if j == 0 {
            self.blocks
                .push(std::iter::repeat_n(0.0, 2 * BLOCK * d).collect());
        }
        let last = self.blocks.last_mut().expect("a block holds position j");
        let (keys, values) = Arc::make_mut(last).split_at_mut(BLOCK * d);
        for (key_row, &x) in keys.chunks_exact_mut(BLOCK).zip(k) {
            key_row[j] = x.to_f32();
        }
        F16::to_f32_slice(v, &mut values[j * d..(j + 1) * d]);
        self.len += 1;
    }

    /// Keeps the first `len` positions (no-op if there are not more).
    pub fn truncate(&mut self, len: usize) {
        if len < self.len {
            self.len = len;
            self.blocks.truncate(len.div_ceil(BLOCK));
        }
    }

    /// Drops every position.
    pub fn clear(&mut self) {
        self.truncate(0);
    }

    /// Position `j`'s key and value rows, as widened.
    ///
    /// # Panics
    ///
    /// Panics if `j >= len()`.
    pub fn position(&self, j: usize) -> (Vec<f32>, Vec<f32>) {
        assert!(j < self.len, "position {j} of {}", self.len);
        let d = self.head_dim;
        let (keys, values) = self.blocks[j / BLOCK].split_at(BLOCK * d);
        let jj = j % BLOCK;
        let k = keys
            .chunks_exact(BLOCK)
            .map(|key_row| key_row[jj])
            .collect();
        (k, values[jj * d..(jj + 1) * d].to_vec())
    }
}

/// The per-call functional state of [`FlashAttention::run_blocks`]: the
/// group's Q rows widened once, the running softmax state of each query
/// row, and scratch rows every block reuses.
struct BlockMath {
    qf: Vec<f32>,
    m: Vec<F16>,
    l: Vec<F16>,
    o: Vec<f32>,
    s_block: Vec<F16>,
    s_row: Vec<f32>,
    p_half: Vec<F16>,
    p_row: Vec<f32>,
    pv: Vec<f32>,
    o_row: Vec<f32>,
    o_half: Vec<F16>,
}

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
}

/// The seconds one call's stages kept their engines busy: DMA for
/// "QKVO Load/Store", HMX for "MatMul", HVX for "Softmax".
#[derive(Clone, Copy, Default)]
struct StageSecs {
    load_store: f64,
    matmul: f64,
    softmax: f64,
}

/// Seconds `engine` gained while `charge` ran: its running total after
/// minus before, the subtraction [`CostModel::delta_since`] makes for each
/// engine. Every FlashAttention stage charges one engine only, so this is
/// the stage's whole cost delta; debug builds check that no other engine
/// moved.
#[inline]
fn stage_secs(ctx: &mut NpuContext, engine: Engine, charge: impl FnOnce(&mut NpuContext)) -> f64 {
    #[cfg(debug_assertions)]
    let snap = ctx.cost.snapshot();
    let before = ctx.cost.engine_secs(engine);
    charge(ctx);
    #[cfg(debug_assertions)]
    {
        let delta = ctx.cost.delta_since(&snap, "");
        let others_idle = Engine::ALL
            .iter()
            .all(|&e| e == engine || delta.engine(e) == 0.0);
        debug_assert!(
            others_idle,
            "a {engine:?} stage charged another engine: {delta:?}"
        );
    }
    ctx.cost.engine_secs(engine) - before
}

/// The cost of stages that kept only `engine` busy, for `secs` in all:
/// every other engine zero and the wall time that engine's, as in each
/// such stage's [`CostModel::delta_since`].
fn one_engine(engine: Engine, secs: f64) -> PhaseCost {
    let mut engine_secs = [0.0; NUM_ENGINES];
    engine_secs[engine.index()] = secs;
    PhaseCost {
        label: "",
        engine_secs,
        wall_secs: secs,
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
    /// breakdown. In cost-only mode the returned output is empty. K/V are
    /// packed into a [`KvBlocks`] per call; a caller that keeps its KV
    /// history calls [`FlashAttention::run_blocks`] instead.
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
        let kv = Self::pack(ctx, shape, k, v);
        self.run_blocks(ctx, shape, q, &kv, None)
    }

    /// Packs row-major `[nkv, d]` K/V into blocks (functional mode only;
    /// cost-only calls carry no rows).
    fn pack(ctx: &NpuContext, shape: AttnShape, k: &[F16], v: &[F16]) -> KvBlocks {
        let d = shape.head_dim;
        let mut kv = KvBlocks::new(d);
        if ctx.mode == ExecMode::Functional {
            assert_eq!(k.len(), shape.nkv * d);
            assert_eq!(v.len(), shape.nkv * d);
            for (k_row, v_row) in k.chunks_exact(d).zip(v.chunks_exact(d)) {
                kv.push(k_row, v_row);
            }
        }
        kv
    }

    /// Runs attention for one GQA group over a KV history read in place.
    ///
    /// `q` is `[G, nq, d]` row-major FP16 and `kv` holds the group's
    /// `shape.nkv` positions (cost-only calls pass no rows and an empty
    /// `kv`). With `causal_start`, query row `i` attends only to positions
    /// `<= causal_start + i` (prefill). Every
    /// score and output adds its products in the same order as an
    /// elementwise loop over FP16 rows, so the result does not depend on
    /// how the rows were stored.
    ///
    /// # Panics
    ///
    /// Panics if shapes are inconsistent, `head_dim % 32 != 0`,
    /// `kv_block % 32 != 0`, or `nkv == 0`.
    pub fn run_blocks(
        &self,
        ctx: &mut NpuContext,
        shape: AttnShape,
        q: &[F16],
        kv: &KvBlocks,
        causal_start: Option<usize>,
    ) -> (Vec<F16>, FlashAttentionBreakdown) {
        let AttnShape {
            nq,
            nkv,
            head_dim: d,
        } = shape;
        let g = self.q_heads_per_kv;
        assert!(d % 32 == 0, "head_dim must be a multiple of 32");
        assert!(
            self.kv_block.is_multiple_of(BLOCK),
            "kv_block must be a multiple of 32"
        );
        assert!(nkv > 0, "empty KV cache");
        let functional = ctx.mode == ExecMode::Functional;
        let rows = g * nq;
        let mut math = functional.then(|| {
            assert_eq!(q.len(), rows * d);
            assert_eq!(kv.head_dim, d);
            assert_eq!(kv.len(), nkv);
            let cols = self.kv_block.min(nkv);
            BlockMath {
                qf: F16::vec_to_f32(q),
                m: vec![F16::NEG_INFINITY; rows],
                l: vec![F16::ZERO; rows],
                o: vec![0.0; rows * d],
                s_block: vec![F16::ZERO; nq * cols],
                s_row: vec![0.0; cols],
                p_half: vec![F16::ZERO; cols],
                p_row: vec![0.0; cols],
                pv: vec![0.0; d],
                o_row: vec![0.0; d],
                o_half: vec![F16::ZERO; d],
            }
        });

        let scale = 1.0 / (d as f64).sqrt();

        // Q load + O store traffic, once per call (part of "QKVO").
        let qo_secs = stage_secs(ctx, Engine::Dma, |ctx| {
            ctx.cost.charge_dma((2 * g * nq * d * 2) as u64)
        });

        let n_blocks = nkv.div_ceil(self.kv_block);
        let mut blocks = StageSecs::default();
        match &mut math {
            // Functional calls charge and compute every block.
            Some(math) => {
                for b in 0..n_blocks {
                    self.charge_block(ctx, rows, d, &mut blocks);
                    let kv_lo = b * self.kv_block;
                    let kv_hi = ((b + 1) * self.kv_block).min(nkv);
                    self.block_math(ctx, math, shape, scale, kv, kv_lo, kv_hi, causal_start);
                }
            }
            // Cost-only calls charge one representative block and scale it.
            // Kept apart from the functional loop, which calls `block_math`:
            // the x86-64 calling convention preserves no SSE register across
            // a call, and sharing that loop cost a cost-only decode row
            // about a third of its host time.
            None => {
                let replay = (n_blocks > 1).then(|| ctx.cost.snapshot());
                self.charge_block(ctx, rows, d, &mut blocks);
                if let Some(snap) = replay {
                    ctx.cost.scale_since(&snap, n_blocks as u64);
                    let factor = n_blocks as f64;
                    blocks.load_store *= factor;
                    blocks.matmul *= factor;
                    blocks.softmax *= factor;
                }
            }
        }

        // Final normalization O_i = diag(l)^-1 O (charged to softmax).
        let norm_secs = stage_secs(ctx, Engine::Hvx, |ctx| {
            let o_regs = (g * nq * d).div_ceil(64) as u64;
            ctx.cost.charge_hvx_packets(o_regs * 2 + (g * nq) as u64)
        });
        let out = match math {
            Some(BlockMath { l, o, .. }) => {
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
            }
            None => Vec::new(),
        };
        let bd = FlashAttentionBreakdown {
            load_store: one_engine(Engine::Dma, qo_secs + blocks.load_store),
            matmul: one_engine(Engine::Hmx, blocks.matmul),
            softmax: one_engine(Engine::Hvx, blocks.softmax + norm_secs),
        };
        (out, bd)
    }

    /// Charges one KV block for every query head in the group: `rows`
    /// query rows (`G * nq`) against `kv_block` keys of width `d`, adding
    /// each stage's seconds to `secs`.
    fn charge_block(&self, ctx: &mut NpuContext, rows: usize, d: usize, secs: &mut StageSecs) {
        let kv_tiles = self.kv_block.div_ceil(32);
        let d_tiles = d / 32;
        // All query heads of the GQA group attend to the same KV head, so
        // the kernel batches their rows into shared tiles: `g * nq` query
        // rows per block. This is what keeps the Figure 8 matmul share tiny.
        let q_row_tiles = rows.div_ceil(32);
        let tile_ops = (q_row_tiles * kv_tiles * d_tiles) as u64;

        // --- Stage 1: KV streaming (shared across the GQA group). ---
        secs.load_store += stage_secs(ctx, Engine::Dma, |ctx| {
            ctx.cost.charge_dma((2 * self.kv_block * d * 2) as u64)
        });

        // --- Stage 2a cost: S = Q K^T on the HMX (FP32 accumulate). ---
        // S writeback flows through the HMX's dedicated converter path
        // (Figure 3), so only tile-ops are charged here.
        secs.matmul += stage_secs(ctx, Engine::Hmx, |ctx| {
            ctx.cost.charge_hmx_tile_ops(tile_ops)
        });

        // --- Stage 3 cost: softmax update (max, exp, sum, rescale). ---
        secs.softmax += stage_secs(ctx, Engine::Hvx, |ctx| {
            let row_pair_regs = rows.div_ceil(2) as u64;
            for _tile in 0..kv_tiles {
                // Per row-pair register: running max (1), subtract+convert
                // (2), FP32 sum accumulate (2), plus the exponential.
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
        });

        // --- Stage 2b cost: O += P V on the HMX. ---
        secs.matmul += stage_secs(ctx, Engine::Hmx, |ctx| {
            ctx.cost.charge_hmx_tile_ops(tile_ops)
        });
    }

    /// The functional math of KV positions `kv_lo..kv_hi` for every query
    /// head of the group, updating the running state in `math`. Charges
    /// nothing: [`FlashAttention::charge_block`] charged the block.
    ///
    /// QK^T reads each 32-key block's transposed keys, so a query row's 32
    /// scores accumulate side by side; PV reads the value rows in position
    /// order. Each score and each output still adds its products in
    /// ascending order, exactly as the elementwise loops do.
    #[allow(clippy::too_many_arguments)]
    fn block_math(
        &self,
        ctx: &NpuContext,
        math: &mut BlockMath,
        shape: AttnShape,
        scale: f64,
        kv: &KvBlocks,
        kv_lo: usize,
        kv_hi: usize,
        causal_start: Option<usize>,
    ) {
        let AttnShape {
            nq, head_dim: d, ..
        } = shape;
        let cols = kv_hi - kv_lo;
        let blocks = &kv.blocks[kv_lo / BLOCK..kv_hi.div_ceil(BLOCK)];
        let BlockMath {
            qf,
            m,
            l,
            o,
            s_block,
            s_row,
            p_half,
            p_row,
            pv,
            o_row,
            o_half,
        } = math;
        let (s_row, p_half, p_row) = (&mut s_row[..cols], &mut p_half[..cols], &mut p_row[..cols]);
        for gh in 0..self.q_heads_per_kv {
            for i in 0..nq {
                let q_row = &qf[(gh * nq + i) * d..][..d];
                for (s_chunk, block) in s_row.chunks_mut(BLOCK).zip(blocks) {
                    // All 32 lanes accumulate, in registers; lanes past the
                    // history's end are dropped below.
                    let mut acc = [0.0f32; BLOCK];
                    for (&qp, k_col) in q_row.iter().zip(block[..BLOCK * d].chunks_exact(BLOCK)) {
                        for (dot, &kp) in acc.iter_mut().zip(k_col) {
                            *dot += qp * kp;
                        }
                    }
                    s_chunk.copy_from_slice(&acc[..s_chunk.len()]);
                }
                for (jj, dot) in s_row.iter_mut().enumerate() {
                    // Causal mask: query at absolute position `start + i`
                    // must not see KV positions beyond it.
                    let masked = causal_start.is_some_and(|start| kv_lo + jj > start + i);
                    *dot = if masked {
                        f32::NEG_INFINITY
                    } else {
                        *dot * scale as f32
                    };
                }
                F16::from_f32_slice(s_row, &mut s_block[i * cols..(i + 1) * cols]);
            }
            for i in 0..nq {
                let row = gh * nq + i;
                let s_vals = &s_block[i * cols..(i + 1) * cols];
                let mut row_max = m[row];
                for &s_val in s_vals {
                    row_max = row_max.max(s_val);
                }
                if row_max == F16::NEG_INFINITY {
                    // Entire row masked so far (prefill rows whose
                    // positions precede this block): state unchanged.
                    continue;
                }
                // P = exp(S - m_new), FP16 subtraction like vsub_hf.
                let exp = RowExp::new(ctx, self.lut, self.method);
                for (slot, &s_val) in p_half.iter_mut().zip(s_vals) {
                    *slot = if s_val == F16::NEG_INFINITY {
                        F16::ZERO
                    } else {
                        exp.exp(s_val.sub(row_max))
                    };
                }
                F16::to_f32_slice(p_half, p_row);
                let mut rowsum = 0.0f32;
                for &e in p_row.iter() {
                    rowsum += e;
                }
                // Correction factor exp(m_old - m_new) in FP16.
                let e_dm = exp.exp(m[row].sub(row_max));
                // l update: FP16 state, FP32 accumulate (Algorithm 1).
                l[row] = F16::from_f32(e_dm.to_f32() * l[row].to_f32() + rowsum);
                // PV accumulate, then the O rescale (HMX writeback
                // rounds the combined FP32 update to FP16 once).
                pv.fill(0.0);
                for (p_chunk, block) in p_row.chunks(BLOCK).zip(blocks) {
                    for (&pj, v_row) in p_chunk.iter().zip(block[BLOCK * d..].chunks_exact(d)) {
                        for (acc, &vp) in pv.iter_mut().zip(v_row) {
                            *acc += pj * vp;
                        }
                    }
                }
                let e_dm_f = e_dm.to_f32();
                let o_old = &o[row * d..(row + 1) * d];
                for ((slot, &o_old), &acc) in o_row.iter_mut().zip(o_old).zip(pv.iter()) {
                    *slot = o_old * e_dm_f + acc;
                }
                F16::from_f32_slice(o_row, o_half);
                F16::to_f32_slice(o_half, &mut o[row * d..(row + 1) * d]);
                m[row] = row_max;
            }
        }
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
    use crate::exp_lut::exp_f16_scalar;
    use crate::reference::{attention_ref_f64, rmse};
    use hexsim::cost::PhaseCost;

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

    /// One exponential per call, the LUT read through a 2-byte TCM peek.
    fn exp_scalar(ctx: &NpuContext, lut: &ExpLut16, method: ExpMethod, x: F16) -> F16 {
        match method {
            ExpMethod::F32Poly => F16::from_f32(x.to_f32().exp()),
            ExpMethod::F16Poly => exp_f16_scalar(x),
            ExpMethod::Lut16 => lut.exp_scalar(ctx, x),
        }
    }

    /// The flash kernel's functional math with per-element conversions in
    /// every inner loop, over FP16 rows — the shape the code had before
    /// the chunked-F16 staging and the FP32 KV blocks. The kernel must
    /// reproduce this bit-for-bit: blocks and staging only hoist exact
    /// `to_f32` conversions, lay the same values out differently and
    /// batch the RTNE roundings.
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
        // ±Inf and NaN, and all three exp methods: both entry points (FP16
        // rows packed per call, and `run_blocks` on a `KvBlocks`
        // built by `push`) must match the per-element reference
        // bit-for-bit everywhere. With NaN inputs, NaN lanes compare by
        // NaN-ness: Rust leaves the sign of a NaN result open when both
        // operands are NaN.
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
        // KV lengths on and around the 32-position storage blocks and the
        // 128-position kernel blocks.
        for nkv in [
            31, 32, 33, 63, 64, 65, 127, 128, 129, 159, 160, 161, 255, 256, 257,
        ] {
            let seed = nkv as u64 * 3 + 1;
            cases.push((2, 1, nkv, 32, None, seed, 1.0, Fill::Plain));
            cases.push((1, 4, nkv, 64, Some(nkv - 4), seed + 1, 1.0, Fill::Plain));
        }
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
            let mut blocks = KvBlocks::new(d);
            for (k_row, v_row) in k.chunks_exact(d).zip(v.chunks_exact(d)) {
                blocks.push(k_row, v_row);
            }
            for method in [ExpMethod::F32Poly, ExpMethod::F16Poly, ExpMethod::Lut16] {
                let fa = FlashAttention {
                    lut: &lut,
                    method,
                    kv_block: 128,
                    q_heads_per_kv: g,
                };
                let (via_rows, _) = match causal {
                    Some(start) => {
                        let kv = FlashAttention::pack(&c, shape, &k, &v);
                        fa.run_blocks(&mut c, shape, &q, &kv, Some(start))
                    }
                    None => fa.run(&mut c, shape, &q, &k, &v),
                };
                let (via_blocks, _) = fa.run_blocks(&mut c, shape, &q, &blocks, causal);
                let reference =
                    flash_elementwise_ref(&mut c, &lut, method, 128, g, shape, &q, &k, &v, causal);
                let nan_blind = matches!(fill, Fill::NonFinite);
                for (entry, out) in [("run", via_rows), ("run_blocks", via_blocks)] {
                    assert_eq!(out.len(), reference.len());
                    for (idx, (a, b)) in out.iter().zip(&reference).enumerate() {
                        assert!(
                            a == b || (nan_blind && a.is_nan() && b.is_nan()),
                            "{entry} element {idx}: {a:?} vs {b:?}: g={g} nq={nq} nkv={nkv} \
                             d={d} causal={causal:?} amp={amp} {fill:?} {method:?}"
                        );
                    }
                }
            }
        }
    }

    /// A deterministic xorshift32 stream.
    fn xorshift(mut state: u32) -> impl FnMut() -> u32 {
        move || {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            state
        }
    }

    /// One random FP16 row; any bit pattern, NaN payloads included.
    fn random_row(next: &mut impl FnMut() -> u32, d: usize) -> Vec<F16> {
        (0..d).map(|_| F16(next() as u16)).collect()
    }

    /// `kv` must hold exactly `rows`, widened.
    fn assert_holds(kv: &KvBlocks, rows: &[(Vec<F16>, Vec<F16>)], what: &str) {
        assert_eq!(kv.len(), rows.len(), "{what}: length");
        assert_eq!(kv.is_empty(), rows.is_empty(), "{what}: emptiness");
        for (j, (k, v)) in rows.iter().enumerate() {
            let (got_k, got_v) = kv.position(j);
            for (want, got) in [(k, got_k), (v, got_v)] {
                let want: Vec<u32> = want.iter().map(|x| x.to_f32().to_bits()).collect();
                let got: Vec<u32> = got.iter().map(|x| x.to_bits()).collect();
                assert_eq!(got, want, "{what}: position {j}");
            }
        }
    }

    /// The kernel's charges as they were taken before the one-engine
    /// stage deltas: a full snapshot and `delta_since` around every stage,
    /// whole-`PhaseCost` additions into the buckets, and the cost-only
    /// block replay scaled by `scale_since` and `FlashAttentionBreakdown`
    /// scaling. The kernel's math charges nothing, so this issues the
    /// charges alone.
    fn snapshot_charges(
        fa: &FlashAttention,
        ctx: &mut NpuContext,
        shape: AttnShape,
    ) -> FlashAttentionBreakdown {
        fn add(bucket: &mut PhaseCost, delta: &PhaseCost) {
            for (b, d) in bucket.engine_secs.iter_mut().zip(&delta.engine_secs) {
                *b += d;
            }
            bucket.wall_secs += delta.wall_secs;
        }
        let AttnShape {
            nq,
            nkv,
            head_dim: d,
        } = shape;
        let (g, method) = (fa.q_heads_per_kv, fa.method);
        let rows = g * nq;
        let mut bd = FlashAttentionBreakdown::default();
        let snap = ctx.cost.snapshot();
        ctx.cost.charge_dma((2 * g * nq * d * 2) as u64);
        add(&mut bd.load_store, &ctx.cost.delta_since(&snap, ""));

        let n_blocks = nkv.div_ceil(fa.kv_block);
        let functional = ctx.mode == ExecMode::Functional;
        let all_snap = ctx.cost.snapshot();
        let mut blocks = FlashAttentionBreakdown::default();
        for _ in 0..if functional { n_blocks } else { 1 } {
            let kv_tiles = fa.kv_block.div_ceil(32);
            let tile_ops = (rows.div_ceil(32) * kv_tiles * (d / 32)) as u64;
            let snap = ctx.cost.snapshot();
            ctx.cost.charge_dma((2 * fa.kv_block * d * 2) as u64);
            add(&mut blocks.load_store, &ctx.cost.delta_since(&snap, ""));
            let snap = ctx.cost.snapshot();
            ctx.cost.charge_hmx_tile_ops(tile_ops);
            add(&mut blocks.matmul, &ctx.cost.delta_since(&snap, ""));
            let snap = ctx.cost.snapshot();
            let row_pair_regs = rows.div_ceil(2) as u64;
            for _ in 0..kv_tiles {
                for _ in 0..row_pair_regs {
                    ctx.cost.charge_hvx_packets(5);
                    charge_exp(ctx, method);
                }
                ctx.cost.charge_hvx_packets(row_pair_regs * 2 + 6);
            }
            ctx.cost
                .charge_tcm_bytes((2 * rows * fa.kv_block * 2) as u64);
            ctx.cost
                .charge_hvx_packets((rows * d).div_ceil(64) as u64 * 2);
            charge_exp(ctx, method);
            let softmax = ctx.cost.delta_since(&snap, "");
            let snap = ctx.cost.snapshot();
            ctx.cost.charge_hmx_tile_ops(tile_ops);
            let pv = ctx.cost.delta_since(&snap, "");
            add(&mut blocks.softmax, &softmax);
            add(&mut blocks.matmul, &pv);
        }
        if !functional && n_blocks > 1 {
            ctx.cost.scale_since(&all_snap, n_blocks as u64);
            for p in [
                &mut blocks.load_store,
                &mut blocks.matmul,
                &mut blocks.softmax,
            ] {
                for secs in &mut p.engine_secs {
                    *secs *= n_blocks as f64;
                }
                p.wall_secs *= n_blocks as f64;
            }
        }
        add(&mut bd.load_store, &blocks.load_store);
        add(&mut bd.matmul, &blocks.matmul);
        add(&mut bd.softmax, &blocks.softmax);

        let snap = ctx.cost.snapshot();
        let o_regs = (g * nq * d).div_ceil(64) as u64;
        ctx.cost.charge_hvx_packets(o_regs * 2 + (g * nq) as u64);
        add(&mut bd.softmax, &ctx.cost.delta_since(&snap, ""));
        bd
    }

    #[test]
    fn stage_deltas_match_the_snapshot_reference_bit_for_bit() {
        // Seeded random shapes — decode rows and causal prefill groups,
        // GQA groups 1-8, heads of 32-128, histories of 1-1100 with
        // partial last blocks, every block length and exp method — on
        // three devices and in both modes (small shapes in functional
        // mode). Each context takes hundreds of calls, so the running
        // totals every stage delta subtracts are deep; after every call
        // the engine seconds, counters and breakdown match a twin context
        // charged by the snapshot reference, bit for bit.
        let bits = |p: &PhaseCost| {
            (
                p.label,
                p.engine_secs.map(f64::to_bits),
                p.wall_secs.to_bits(),
            )
        };
        let mut next = xorshift(0x0b5e_55ed);
        for device in [
            DeviceProfile::v73(),
            DeviceProfile::v75(),
            DeviceProfile::v79(),
        ] {
            for mode in [ExecMode::CostOnly, ExecMode::Functional] {
                let functional = mode == ExecMode::Functional;
                let mut c = NpuContext::new(device.clone(), mode);
                let mut reference = NpuContext::new(device.clone(), mode);
                let lut = ExpLut16::build(&mut c).unwrap();
                ExpLut16::build(&mut reference).unwrap();
                let mut pick = |lo: usize, hi: usize| lo + next() as usize % (hi - lo + 1);
                for call in 0..if functional { 150 } else { 400 } {
                    let (g, d, nq, nkv) = if functional {
                        (pick(1, 4), 32 * pick(1, 2), pick(1, 8), pick(1, 200))
                    } else {
                        (pick(1, 8), 32 * pick(1, 4), pick(1, 300), pick(1, 1100))
                    };
                    let fa = FlashAttention {
                        lut: &lut,
                        method: [ExpMethod::F32Poly, ExpMethod::F16Poly, ExpMethod::Lut16]
                            [pick(0, 2)],
                        kv_block: 32 << pick(0, 2),
                        q_heads_per_kv: g,
                    };
                    let causal = (pick(0, 1) == 0).then(|| nkv.saturating_sub(nq));
                    let shape = AttnShape {
                        nq,
                        nkv,
                        head_dim: d,
                    };
                    let (mut q, mut kv) = (Vec::new(), KvBlocks::new(d));
                    if functional {
                        let seed = pick(0, 1 << 20) as u64;
                        q = rand_f16(g * nq * d, seed, 1.0);
                        let (k, v) = (
                            rand_f16(nkv * d, seed ^ 0xA5, 1.0),
                            rand_f16(nkv * d, seed ^ 0x5A, 1.0),
                        );
                        kv = FlashAttention::pack(&c, shape, &k, &v);
                    }
                    let (_, got) = fa.run_blocks(&mut c, shape, &q, &kv, causal);
                    let want = snapshot_charges(&fa, &mut reference, shape);
                    let what = format!(
                        "{} {mode:?} call {call}: g={g} nq={nq} nkv={nkv} d={d} kv_block={} {:?}",
                        device.name, fa.kv_block, fa.method
                    );
                    for e in Engine::ALL {
                        let (a, b) = (c.cost.engine_secs(e), reference.cost.engine_secs(e));
                        assert_eq!(a.to_bits(), b.to_bits(), "{what}: {e:?} seconds");
                    }
                    assert_eq!(c.cost.counters(), reference.cost.counters(), "{what}");
                    assert_eq!(bits(&got.load_store), bits(&want.load_store), "{what}");
                    assert_eq!(bits(&got.matmul), bits(&want.matmul), "{what}");
                    assert_eq!(bits(&got.softmax), bits(&want.softmax), "{what}");
                }
            }
        }
    }

    #[test]
    fn kv_blocks_hold_what_a_list_of_fp16_rows_holds() {
        let d = 32;
        let mut next = xorshift(0x9e37_79b9);
        let mut kv = KvBlocks::new(d);
        let mut rows = Vec::new();
        let push = |next: &mut _, kv: &mut KvBlocks, rows: &mut Vec<_>| {
            let (k, v) = (random_row(next, d), random_row(next, d));
            kv.push(&k, &v);
            rows.push((k, v));
        };
        // 40 positions: one full block and a partial one.
        for _ in 0..40 {
            push(&mut next, &mut kv, &mut rows);
        }
        // A clone that diverges: its pushes must not reach the source.
        let (mut fork, mut fork_rows) = (kv.clone(), rows.clone());
        for _ in 0..30 {
            push(&mut next, &mut fork, &mut fork_rows);
        }
        assert_holds(&kv, &rows, "source after the clone diverged");
        assert_holds(&fork, &fork_rows, "diverged clone");
        // Truncating into a shared partial block, then pushing over the
        // dropped positions, leaves the other side's rows alone.
        let (mut cut, mut cut_rows) = (kv.clone(), rows.clone());
        cut.truncate(35);
        cut_rows.truncate(35);
        push(&mut next, &mut cut, &mut cut_rows);
        assert_holds(&kv, &rows, "source after a truncated clone pushed");
        assert_holds(&cut, &cut_rows, "truncated clone");
        // The source can do the same to a block its clone now shares.
        kv.truncate(33);
        rows.truncate(33);
        push(&mut next, &mut kv, &mut rows);
        assert_holds(&fork, &fork_rows, "diverged clone after the source pushed");
        assert_holds(&kv, &rows, "source");

        // Seeded random sequences of push, truncate, clear and clone over
        // a few replicas, with lengths drawn on and around multiples of 32.
        for seed in [1u32, 7, 31, 4242] {
            let mut next = xorshift(seed.wrapping_mul(0x2545_f491) | 1);
            let mut replicas = vec![(KvBlocks::new(d), Vec::new())];
            for step in 0..300 {
                let r = next() as usize % replicas.len();
                match next() % 10 {
                    0..=4 => {
                        let (kv, rows) = &mut replicas[r];
                        for _ in 0..next() % 40 {
                            push(&mut next, kv, rows);
                        }
                    }
                    5..=6 => {
                        let (kv, rows) = &mut replicas[r];
                        let len = rows.len();
                        let to = match next() % 4 {
                            0 => len.saturating_sub(1),
                            1 => len / 32 * 32,
                            2 => (len / 32 * 32).saturating_sub(1),
                            _ => next() as usize % (len + 1),
                        };
                        kv.truncate(to);
                        rows.truncate(to);
                    }
                    7 => {
                        let (kv, rows) = &mut replicas[r];
                        kv.clear();
                        rows.clear();
                    }
                    _ => {
                        if replicas.len() < 4 {
                            let copy = replicas[r].clone();
                            replicas.push(copy);
                        } else {
                            replicas.swap_remove(r);
                        }
                    }
                }
                for (i, (kv, rows)) in replicas.iter().enumerate() {
                    assert_holds(kv, rows, &format!("seed {seed} step {step} replica {i}"));
                }
            }
        }
    }

    #[test]
    fn a_clone_shares_every_block_until_it_appends() {
        let d = 32;
        let mut next = xorshift(0x1234_5678);
        let row = |next: &mut _| random_row(next, d);
        let mut source = KvBlocks::new(d);
        for _ in 0..70 {
            source.push(&row(&mut next), &row(&mut next));
        }
        assert_eq!(source.blocks.len(), 3);
        let shared = |a: &KvBlocks, b: &KvBlocks| -> Vec<bool> {
            a.blocks
                .iter()
                .zip(&b.blocks)
                .map(|(x, y)| Arc::ptr_eq(x, y))
                .collect()
        };
        let mut clone = source.clone();
        assert_eq!(shared(&source, &clone), [true, true, true]);
        // An append into the shared partial block copies that block only.
        clone.push(&row(&mut next), &row(&mut next));
        assert_eq!(shared(&source, &clone), [true, true, false]);
        // Once unshared, the block takes further appends in place.
        let last = Arc::as_ptr(&clone.blocks[2]);
        clone.push(&row(&mut next), &row(&mut next));
        assert_eq!(Arc::as_ptr(&clone.blocks[2]), last);
        // An append that opens a new block copies nothing.
        let mut aligned = source.clone();
        aligned.truncate(64);
        aligned.push(&row(&mut next), &row(&mut next));
        assert_eq!(shared(&source, &aligned), [true, true, false]);
        assert_eq!(source.len(), 70);
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
        let kv = FlashAttention::pack(&c, shape, &k, &v);
        let (out, _) = fa.run_blocks(&mut c, shape, &q, &kv, Some(2));
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
