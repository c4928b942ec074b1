//! The NPU transformer forward pass: batched prefill and decode.
//!
//! Operator placement follows the paper's runtime (Section 6/7.2.2):
//! projections, attention, norms and activations run on the NPU; the
//! embedding lookup, the vocabulary projection (lm_head) and sampling stay
//! on the CPU, because the Hexagon session's 32-bit address space cannot
//! hold the logits tensor of a modern vocabulary. That placement is what
//! caps decode throughput scaling at large batch (Figure 11's discussion:
//! at batch 16 the CPU logits share approaches 50%).
//!
//! In functional mode (tiny models) every value is computed bit-faithfully
//! through the kernel crate; in cost-only mode (paper-scale models) the
//! same code path charges identical per-shape costs via `replay`, while the
//! kernels skip their arithmetic and the walk carries no activations.

use std::cell::RefCell;

use hexsim::f16::F16;
use hexsim::prelude::*;
use htpops::attention::{AttnShape, FlashAttention, KvBlocks};
use htpops::exp_lut::{ExpLut16, ExpMethod};
use htpops::gemm::{gemm_mixed, DequantVariant, GemmConfig, PreparedWeights};
use htpops::misc::{self, RopeTable};

use crate::config::{ModelConfig, ModelId};
use crate::kv_cache::KvCache;
use crate::overlap::{self, DispatchMode, LayerStage, StepStages};
use crate::weights::ModelWeights;

/// The NPU ops one transformer layer dispatches, in submission order:
/// 2 norms, 3 QKV projections, RoPE, attention, output projection,
/// 2 residuals, gate/up/down projections, SwiGLU. Each op's descriptor
/// travels the rpcmem command ring ([`hexsim::ring::NpuSession`]) and pays
/// ring submission + cache maintenance + completion sync.
const LAYER_OPS: [OpCode; 14] = [
    OpCode::Misc,      // attention RMSNorm
    OpCode::MatMul,    // Q projection
    OpCode::MatMul,    // K projection
    OpCode::MatMul,    // V projection
    OpCode::Misc,      // RoPE
    OpCode::Attention, // FlashAttention
    OpCode::MatMul,    // output projection
    OpCode::Misc,      // attention residual
    OpCode::Misc,      // FFN RMSNorm
    OpCode::MatMul,    // gate projection
    OpCode::MatMul,    // up projection
    OpCode::Misc,      // SwiGLU
    OpCode::MatMul,    // down projection
    OpCode::Misc,      // FFN residual
];

/// NPU op submissions per transformer layer (see [`LAYER_OPS`]).
const LAYER_DISPATCH_OPS: f64 = LAYER_OPS.len() as f64;

/// Per-operator dispatch overhead in seconds: command submission over the
/// shared-memory ring, cache maintenance, and inter-op synchronization.
/// Calibrated at 100 us so end-to-end decode matches the paper's Figure 11
/// absolute throughput (the paper notes decode is constrained by per-step
/// overheads beyond raw kernel time).
const OP_DISPATCH_SECS: f64 = 100e-6;

/// Wall-time cost of one model step, by operator class.
#[derive(Clone, Copy, Debug, Default)]
pub struct StepCost {
    /// Weight GEMMs (dequant + HMX), seconds.
    pub gemm_secs: f64,
    /// Attention (FlashAttention incl. KV streaming), seconds.
    pub attn_secs: f64,
    /// Norms, RoPE, activations, residuals, seconds.
    pub misc_secs: f64,
    /// CPU work: embedding, lm_head, sampling, seconds.
    pub cpu_secs: f64,
    /// CPU-side NPU session switches (multi-session sharded execution,
    /// paper Section 8); zero for single-session deployments.
    pub switch_secs: f64,
    /// Weight-streaming DMA seconds: whole-layer fetches from the DDR
    /// staging region into the double-buffered session window (hot/cold
    /// placement). Zero for fully resident plans. Serial dispatch pays
    /// this in full; the overlapped schedule hides fetches behind other
    /// layers' compute and charges only the exposed remainder.
    pub stream_secs: f64,
    /// Critical-path wall seconds of the step under the overlap-aware
    /// event-timeline schedule ([`crate::overlap`], paper Section 7.2.2).
    /// Equals [`StepCost::wall_secs`] under [`DispatchMode::Serial`] (the
    /// default); never exceeds it. The per-engine totals above are busy
    /// time and do not change with the dispatch mode.
    pub overlapped_secs: f64,
}

impl StepCost {
    /// NPU wall seconds (sequential kernel composition).
    pub fn npu_secs(&self) -> f64 {
        self.gemm_secs + self.attn_secs + self.misc_secs
    }

    /// Total wall seconds under serial dispatch: the CPU logits pass
    /// serializes with the NPU (sampling feeds the next step), and
    /// session switches serialize too (the CPU re-points dispatch before
    /// the next shard's layers can run). The overlap-aware view of the
    /// same step is [`StepCost::overlapped_secs`].
    pub fn wall_secs(&self) -> f64 {
        self.npu_secs() + self.cpu_secs + self.switch_secs + self.stream_secs
    }

    /// Accumulates another step's cost.
    pub fn add(&mut self, other: &StepCost) {
        self.gemm_secs += other.gemm_secs;
        self.attn_secs += other.attn_secs;
        self.misc_secs += other.misc_secs;
        self.cpu_secs += other.cpu_secs;
        self.switch_secs += other.switch_secs;
        self.stream_secs += other.stream_secs;
        self.overlapped_secs += other.overlapped_secs;
    }
}

/// How a forward pass walks layers across NPU sessions — the execution
/// half of a shard plan (the placement half, `npuscale::session::ShardPlan`,
/// lowers to this; it lives upstairs because placement needs the
/// `MultiSession` allocator, while the walk only needs layer indices).
///
/// With an empty boundary list the schedule is a no-op and the forward
/// pass is bit- and cost-identical to the historical single-session path.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LayerSchedule {
    /// Ascending layer indices at which the weights live in a *new* NPU
    /// session (the first shard starting at layer 0 is implicit). Empty
    /// means everything fits one session.
    pub boundaries: Vec<usize>,
    /// CPU seconds to re-point command dispatch at another session's ring
    /// (FastRPC handle swap + cache maintenance on the new ring).
    pub switch_secs: f64,
    /// Ascending indices of *cold* layers whose weights live in the DDR
    /// staging region and stream through the double-buffered session
    /// window (hot/cold placement). Empty (the default) means fully
    /// resident weights — the historical path, bit-identical.
    pub streamed: Vec<usize>,
    /// Bytes streamed per cold layer (the layer's prepared weight
    /// footprint). The walk converts this to seconds with the device's
    /// DDR streaming bandwidth at charge time.
    pub stream_layer_bytes: u64,
}

impl LayerSchedule {
    /// Schedule for a single-session deployment (no switches).
    pub fn single_session() -> Self {
        LayerSchedule::default()
    }

    /// Whether this schedule crosses any session boundary.
    pub fn is_sharded(&self) -> bool {
        !self.boundaries.is_empty()
    }

    /// Session switches charged per full layer walk: one at each shard
    /// boundary plus one to return dispatch to the first shard for the
    /// next pass.
    pub fn switches_per_pass(&self) -> usize {
        if self.boundaries.is_empty() {
            0
        } else {
            self.boundaries.len() + 1
        }
    }

    /// Whether any layer streams its weights from the DDR staging region.
    pub fn is_streaming(&self) -> bool {
        !self.streamed.is_empty()
    }
}

/// Output of one decode step.
#[derive(Debug)]
pub struct DecodeOutput {
    /// Logits `[batch, vocab]` (empty in cost-only mode).
    pub logits: Vec<f32>,
    /// Cost breakdown of the step.
    pub cost: StepCost,
    /// Stage breakdown of the step — the input the overlap scheduler
    /// ([`crate::overlap`]) derived [`StepCost::overlapped_secs`] from,
    /// exposed so tests and benches can recompute the critical path.
    pub stages: StepStages,
}

/// A model instance bound to one NPU context.
pub struct Model {
    /// Architecture.
    pub cfg: ModelConfig,
    /// Weights (NPU-resident + float reference copies).
    pub weights: ModelWeights,
    /// The TCM-resident exp LUT.
    pub lut: ExpLut16,
    /// HVX threads for weight dequantization (the op library's thread
    /// pool; kernels saturate the six scalar contexts).
    pub threads: u32,
    /// Session walk schedule for multi-session sharded weights (paper
    /// Section 8). Defaults to single-session (no switches); set via
    /// [`Model::set_layer_schedule`].
    schedule: LayerSchedule,
    /// How stages compose into wall time: additive (the default, every
    /// historical number bit-identical) or overlap-aware (paper Section
    /// 7.2.2 pipelining). Set via [`Model::set_dispatch_mode`]. Only the
    /// time model changes — logits and per-engine busy totals do not.
    dispatch: DispatchMode,
    /// The rpcmem command ring every layer's op descriptors travel
    /// (transport protocol; the calibrated per-op cost,
    /// [`OP_DISPATCH_SECS`], is charged per completed descriptor in the
    /// walk). `RefCell` because the forward pass takes `&self` and the
    /// ring mutates per dispatch.
    ring: RefCell<NpuSession>,
    /// The tied embedding transposed to `[hidden][vocab]`, the layout the
    /// CPU lm_head reads (functional mode only; built once here).
    embed_t: Vec<f32>,
    /// RoPE angles of every position a functional forward has reached,
    /// grown as positions appear.
    rope: RefCell<RopeTable>,
}

impl Model {
    /// Builds a model: exp LUT, weights, and DDR residency.
    pub fn new(
        ctx: &mut NpuContext,
        id: ModelId,
        variant: DequantVariant,
        seed: u64,
    ) -> SimResult<Self> {
        let cfg = ModelConfig::for_id(id);
        let lut = ExpLut16::build(ctx)?;
        let weights = ModelWeights::build(ctx, &cfg, variant, seed)?;
        Ok(Model::assemble(cfg, weights, lut))
    }

    /// Builds a model with the hot/cold weight split: the layers in
    /// `streamed` (ascending) keep their weights in the CPU-owned DDR
    /// staging region — outside the session VA envelope — and a
    /// double-buffered window sized for two cold layers is mapped into
    /// session VA instead. With an empty `streamed` list this is exactly
    /// [`Model::new`]. The caller still installs the matching
    /// [`LayerSchedule`] (with its `streamed` list) so the walk charges
    /// the per-layer fetches.
    pub fn new_streamed(
        ctx: &mut NpuContext,
        id: ModelId,
        variant: DequantVariant,
        seed: u64,
        streamed: &[usize],
    ) -> SimResult<Self> {
        let cfg = ModelConfig::for_id(id);
        let lut = ExpLut16::build(ctx)?;
        let weights = ModelWeights::build_streamed(ctx, &cfg, variant, seed, streamed)?;
        Ok(Model::assemble(cfg, weights, lut))
    }

    /// A single-session, serially dispatched model over built weights.
    fn assemble(cfg: ModelConfig, weights: ModelWeights, lut: ExpLut16) -> Self {
        let embed_t = transpose(&weights.embed, cfg.hidden);
        let rope = RefCell::new(RopeTable::new(cfg.head_dim, cfg.rope_theta));
        Model {
            cfg,
            weights,
            lut,
            threads: 6,
            schedule: LayerSchedule::single_session(),
            dispatch: DispatchMode::Serial,
            ring: RefCell::new(NpuSession::open()),
            embed_t,
            rope,
        }
    }

    /// Selects how the step's stages compose into wall time (serial sum
    /// vs. overlap-aware critical path). Functional results are identical
    /// in both modes; only [`StepCost::overlapped_secs`] changes.
    pub fn set_dispatch_mode(&mut self, mode: DispatchMode) {
        self.dispatch = mode;
    }

    /// The installed dispatch mode.
    pub fn dispatch_mode(&self) -> DispatchMode {
        self.dispatch
    }

    /// Installs the session walk schedule for sharded execution. Every
    /// subsequent forward pass walks the layer shards in order and charges
    /// a CPU-side session switch at each boundary (plus one wrap-around
    /// switch back to the first shard).
    ///
    /// # Panics
    ///
    /// Panics if the boundaries are not strictly ascending layer indices
    /// in `1..layers`.
    pub fn set_layer_schedule(&mut self, schedule: LayerSchedule) {
        assert!(
            schedule.boundaries.windows(2).all(|w| w[0] < w[1]),
            "shard boundaries must be strictly ascending"
        );
        if let (Some(&first), Some(&last)) =
            (schedule.boundaries.first(), schedule.boundaries.last())
        {
            assert!(
                first >= 1 && last < self.cfg.layers,
                "shard boundaries must split the layer range"
            );
        }
        assert!(
            schedule.streamed.windows(2).all(|w| w[0] < w[1]),
            "streamed layers must be strictly ascending"
        );
        if let Some(&last) = schedule.streamed.last() {
            assert!(last < self.cfg.layers, "streamed layer out of range");
        }
        self.schedule = schedule;
    }

    /// Charges one CPU-side session switch (sharded execution only):
    /// dispatch re-points at another session's command ring, which the
    /// NPU cannot overlap with because the next shard's first kernel
    /// waits on it.
    fn charge_session_switch(&self, ctx: &mut NpuContext, cost: &mut StepCost) {
        ctx.cost.charge_secs(Engine::Cpu, self.schedule.switch_secs);
        cost.switch_secs += self.schedule.switch_secs;
    }

    /// Walks every layer in shard order, charging a session switch at
    /// each shard boundary and one wrap-around switch at the end of a
    /// sharded walk. With a single-session schedule this is exactly the
    /// historical `0..layers` loop. Each layer's kernel/dispatch seconds
    /// are recorded into `stages` for the overlap scheduler.
    #[allow(clippy::too_many_arguments)]
    fn walk_layers(
        &self,
        ctx: &mut NpuContext,
        x: &mut [F16],
        rows: usize,
        cache: &mut KvCache,
        seqs: &[usize],
        positions: &[usize],
        prefill: bool,
        cost: &mut StepCost,
        stages: &mut Vec<LayerStage>,
    ) -> SimResult<()> {
        let mut next_boundary = self.schedule.boundaries.iter().peekable();
        let mut next_stream = self.schedule.streamed.iter().peekable();
        for layer in 0..self.cfg.layers {
            let switch_before = next_boundary.peek() == Some(&&layer);
            if switch_before {
                next_boundary.next();
                self.charge_session_switch(ctx, cost);
            }
            // Cold layer: its weights stream from the DDR staging region
            // into the session window before the kernels can run. Serial
            // dispatch pays the fetch in full here; the overlap scheduler
            // re-derives the exposed share from the recorded stage.
            let weight_fetch_secs = if next_stream.peek() == Some(&&layer) {
                next_stream.next();
                let secs = ctx.cost.charge_ddr_stream(self.schedule.stream_layer_bytes);
                cost.stream_secs += secs;
                secs
            } else {
                0.0
            };
            let before = *cost;
            self.layer_forward(ctx, layer, x, rows, cache, seqs, positions, prefill, cost)?;
            let dispatch_secs = LAYER_DISPATCH_OPS * OP_DISPATCH_SECS;
            let npu_secs = ((cost.gemm_secs - before.gemm_secs)
                + (cost.attn_secs - before.attn_secs)
                + (cost.misc_secs - before.misc_secs)
                - dispatch_secs)
                .max(0.0);
            stages.push(LayerStage {
                npu_secs,
                dispatch_secs,
                switch_before,
                weight_fetch_secs,
            });
        }
        if self.schedule.is_sharded() {
            // Return dispatch to the first shard for the next pass.
            self.charge_session_switch(ctx, cost);
        }
        Ok(())
    }

    fn gemm(
        &self,
        ctx: &mut NpuContext,
        w: &PreparedWeights,
        act: &[F16],
        m: usize,
    ) -> (Vec<F16>, f64) {
        let cfg = GemmConfig {
            m,
            k: w.k,
            n: w.n,
            scheme: w.scheme,
            variant: w.variant,
            threads: self.threads,
        };
        let r = gemm_mixed(ctx, &cfg, w, act);
        (r.out, r.cost.wall_secs)
    }

    /// RMSNorm over `rows` rows of `x` with weight row `w`: functional mode
    /// normalizes each real row; cost-only replays one row's charges (`x`
    /// is empty there, and the kernel takes its length from `w`).
    fn rmsnorm_rows(ctx: &mut NpuContext, rows: usize, w: &[F16], x: &mut [F16]) {
        match ctx.mode {
            ExecMode::Functional => {
                let n = w.len();
                for r in 0..rows {
                    misc::rmsnorm(ctx, &mut x[r * n..(r + 1) * n], w, 1e-5);
                }
            }
            ExecMode::CostOnly => {
                ctx.replay(rows as u64, |ctx| misc::rmsnorm(ctx, &mut [], w, 1e-5));
            }
        }
    }

    /// CPU logits pass: `rows` hidden states against the full vocabulary.
    /// Charges the CPU roofline (weights stream at ~1 byte/param, logits
    /// write in f32); functional mode computes real logits from the tied
    /// embedding, read through its `[hidden][vocab]` transpose built at
    /// construction (see [`logits_transposed`]).
    fn lm_head(&self, ctx: &mut NpuContext, x: &[F16], rows: usize, functional: bool) -> Vec<f32> {
        let (hidden, vocab) = (self.cfg.hidden, self.cfg.vocab);
        let flops = 2 * rows as u64 * hidden as u64 * vocab as u64;
        let bytes = (vocab * hidden) as u64 + (rows * vocab * 4) as u64;
        ctx.cost.charge_cpu(flops, bytes);
        if !functional {
            return Vec::new();
        }
        // Convert each hidden state to f32 once (chunked, SIMD-friendly)
        // instead of once per vocabulary row; `to_f32` is exact, so the
        // accumulation below is bit-identical to converting in the inner
        // loop.
        let xf = F16::vec_to_f32(x);
        let mut logits = vec![0.0f32; rows * vocab];
        for (row, out) in xf.chunks_exact(hidden).zip(logits.chunks_exact_mut(vocab)) {
            logits_transposed(row, &self.embed_t, out);
        }
        logits
    }

    /// One transformer layer over `rows` rows of `x`, appending KV and
    /// attending per sequence. In prefill mode `positions[0]` is the start
    /// of the prefilled span; in decode mode `positions[r]` is the absolute
    /// position of row `r`'s token (sequences at different depths may share
    /// one batch under continuous batching).
    #[allow(clippy::too_many_arguments)]
    fn layer_forward(
        &self,
        ctx: &mut NpuContext,
        layer: usize,
        x: &mut [F16],
        rows: usize,
        cache: &mut KvCache,
        seqs: &[usize],
        positions: &[usize],
        prefill: bool,
        cost: &mut StepCost,
    ) -> SimResult<()> {
        let cfg = &self.cfg;
        let functional = ctx.mode == ExecMode::Functional;
        let lw = &self.weights.layers[layer];
        let (hidden, q_dim, kv_dim, d) = (cfg.hidden, cfg.q_dim(), cfg.kv_dim(), cfg.head_dim);

        // Attention RMSNorm.
        let snap = ctx.cost.snapshot();
        let mut normed = x.to_vec();
        Self::rmsnorm_rows(ctx, rows, &lw.attn_norm, &mut normed);
        cost.misc_secs += ctx.cost.delta_since(&snap, "").wall_secs;

        // QKV projections.
        let (mut q, tq) = self.gemm(ctx, &lw.wq, &normed, rows);
        let (mut k, tk) = self.gemm(ctx, &lw.wk, &normed, rows);
        let (v, tv) = self.gemm(ctx, &lw.wv, &normed, rows);
        cost.gemm_secs += tq + tk + tv;

        // RoPE on Q and K per head, then cache append.
        let snap = ctx.cost.snapshot();
        let pos_of = |r: usize| {
            if prefill {
                positions[0] + r
            } else {
                positions[r]
            }
        };
        if functional {
            let mut rope = self.rope.borrow_mut();
            rope.grow((0..rows).map(pos_of).max().map_or(0, |p| p + 1));
            for r in 0..rows {
                let angles = rope.angles(pos_of(r));
                for head in q[r * q_dim..(r + 1) * q_dim].chunks_exact_mut(d) {
                    misc::rope(ctx, head, angles);
                }
                for head in k[r * kv_dim..(r + 1) * kv_dim].chunks_exact_mut(d) {
                    misc::rope(ctx, head, angles);
                }
            }
        } else {
            let mut dummy = vec![F16::ONE; d];
            ctx.replay((rows * (cfg.heads + cfg.kv_heads)) as u64, |ctx| {
                misc::rope(ctx, &mut dummy, &[])
            });
        }
        // Prefill rows all belong to the one prefilled sequence; decode
        // appends one new row per sequence.
        for r in 0..rows {
            let seq = if prefill { seqs[0] } else { seqs[r] };
            let (kr, vr) = if functional {
                (
                    &k[r * kv_dim..(r + 1) * kv_dim],
                    &v[r * kv_dim..(r + 1) * kv_dim],
                )
            } else {
                (&[][..], &[][..])
            };
            cache.append(layer, seq, kr, vr, functional)?;
        }
        cost.misc_secs += ctx.cost.delta_since(&snap, "").wall_secs;

        // Attention per sequence, per KV head, GQA-group batched, reading
        // the cache's KV blocks in place (cost-only caches hold none).
        let g = cfg.gqa_group();
        let fa = FlashAttention::new(&self.lut, ExpMethod::Lut16, g);
        let no_rows = KvBlocks::new(d);
        let kv = |s: usize, h: usize| {
            if functional {
                cache.blocks(layer, s, h)
            } else {
                &no_rows
            }
        };
        let mut attn_out = if functional {
            vec![F16::ZERO; rows * q_dim]
        } else {
            Vec::new()
        };
        if prefill {
            // One sequence, `rows` query positions.
            let s = seqs[0];
            let nkv = cache.len(s);
            for h in 0..cfg.kv_heads {
                let shape = AttnShape {
                    nq: rows,
                    nkv,
                    head_dim: d,
                };
                let mut qs = Vec::new();
                if functional {
                    for gh in 0..g {
                        let qh = h * g + gh;
                        for r in 0..rows {
                            qs.extend_from_slice(&q[r * q_dim + qh * d..r * q_dim + (qh + 1) * d]);
                        }
                    }
                }
                let (out, bd) = fa.run_blocks(ctx, shape, &qs, kv(s, h), Some(positions[0]));
                cost.attn_secs += bd.total_wall();
                if functional {
                    for gh in 0..g {
                        let qh = h * g + gh;
                        for r in 0..rows {
                            let src = (gh * rows + r) * d;
                            attn_out[r * q_dim + qh * d..r * q_dim + (qh + 1) * d]
                                .copy_from_slice(&out[src..src + d]);
                        }
                    }
                }
            }
        } else {
            // Decode: each sequence attends to its own cache, one query
            // position per head.
            for (r, &s) in seqs.iter().enumerate() {
                let nkv = cache.len(s);
                for h in 0..cfg.kv_heads {
                    let shape = AttnShape {
                        nq: 1,
                        nkv,
                        head_dim: d,
                    };
                    // The group's query heads sit side by side in the row.
                    let group = r * q_dim + h * g * d..r * q_dim + (h + 1) * g * d;
                    let qs = if functional {
                        &q[group.clone()]
                    } else {
                        &[][..]
                    };
                    let (out, bd) = fa.run_blocks(ctx, shape, qs, kv(s, h), None);
                    cost.attn_secs += bd.total_wall();
                    if functional {
                        attn_out[group].copy_from_slice(&out);
                    }
                }
            }
        }

        // Output projection + residual.
        let (o, to) = self.gemm(ctx, &lw.wo, &attn_out, rows);
        cost.gemm_secs += to;
        let snap = ctx.cost.snapshot();
        if functional {
            for (xi, oi) in x.iter_mut().zip(&o) {
                *xi = xi.add(*oi);
            }
        }
        ctx.replay(rows as u64, |ctx| {
            ctx.cost
                .charge_hvx_packets((hidden as u64).div_ceil(64) * 2);
            ctx.cost.charge_tcm_bytes(hidden as u64 * 6);
        });
        cost.misc_secs += ctx.cost.delta_since(&snap, "").wall_secs;

        // FFN: norm, gate/up, SiLU, mul, down (Q8), residual.
        let snap = ctx.cost.snapshot();
        let mut ffn_in = x.to_vec();
        Self::rmsnorm_rows(ctx, rows, &lw.ffn_norm, &mut ffn_in);
        cost.misc_secs += ctx.cost.delta_since(&snap, "").wall_secs;

        let (mut gate, tg) = self.gemm(ctx, &lw.w_gate, &ffn_in, rows);
        let (up, tu) = self.gemm(ctx, &lw.w_up, &ffn_in, rows);
        cost.gemm_secs += tg + tu;

        let snap = ctx.cost.snapshot();
        if functional {
            for r in 0..rows {
                misc::silu(ctx, &mut gate[r * cfg.ffn..(r + 1) * cfg.ffn]);
            }
            misc::mul_inplace(ctx, &mut gate, &up);
        } else {
            // SiLU and the gate multiply take their length from one
            // gate/up row pair.
            let mut pair = vec![F16::ZERO; 2 * cfg.ffn];
            let (gate_row, up_row) = pair.split_at_mut(cfg.ffn);
            ctx.replay(rows as u64, |ctx| misc::silu(ctx, gate_row));
            ctx.replay(rows as u64, |ctx| misc::mul_inplace(ctx, gate_row, up_row));
        }
        cost.misc_secs += ctx.cost.delta_since(&snap, "").wall_secs;

        let (down, td) = self.gemm(ctx, &lw.w_down, &gate, rows);
        cost.gemm_secs += td;

        let snap = ctx.cost.snapshot();
        if functional {
            for (xi, di) in x.iter_mut().zip(&down) {
                *xi = xi.add(*di);
            }
        }
        ctx.replay(rows as u64, |ctx| {
            ctx.cost
                .charge_hvx_packets((hidden as u64).div_ceil(64) * 2);
            ctx.cost.charge_tcm_bytes(hidden as u64 * 6);
        });
        cost.misc_secs += ctx.cost.delta_since(&snap, "").wall_secs;

        // Per-operator dispatch: every op's descriptor travels the rpcmem
        // command ring — submission, cache clean, NPU-side poll — and the
        // calibrated per-op overhead is charged per *completed* descriptor,
        // so streamed and resident layers share the one transport path.
        let mut ring = self.ring.borrow_mut();
        let mut dispatched = 0u64;
        for &op in &LAYER_OPS {
            ring.submit(op, layer as u32, true)?;
            while ring.poll_dispatch()?.is_some() {
                dispatched += 1;
            }
        }
        let overhead = dispatched as f64 * OP_DISPATCH_SECS;
        ctx.cost.charge_secs(hexsim::cost::Engine::Scalar, overhead);
        cost.misc_secs += overhead;
        Ok(())
    }

    /// Prefills one sequence with `tokens`, filling its KV cache. Returns
    /// the cost and (functional mode) the logits of the final position.
    pub fn prefill(
        &self,
        ctx: &mut NpuContext,
        cache: &mut KvCache,
        seq: usize,
        tokens: &[u32],
    ) -> SimResult<DecodeOutput> {
        self.prefill_impl(ctx, cache, seq, tokens, false)
    }

    /// Like [`Model::prefill`] but returns logits for *every* position —
    /// the verification pass of speculative decoding (paper Section 9):
    /// one batched forward scores a whole drafted chunk.
    pub fn prefill_all_logits(
        &self,
        ctx: &mut NpuContext,
        cache: &mut KvCache,
        seq: usize,
        tokens: &[u32],
    ) -> SimResult<DecodeOutput> {
        self.prefill_impl(ctx, cache, seq, tokens, true)
    }

    fn prefill_impl(
        &self,
        ctx: &mut NpuContext,
        cache: &mut KvCache,
        seq: usize,
        tokens: &[u32],
        all_logits: bool,
    ) -> SimResult<DecodeOutput> {
        let functional = ctx.mode == ExecMode::Functional;
        let rows = tokens.len();
        let hidden = self.cfg.hidden;
        let mut cost = StepCost::default();
        let start_pos = cache.len(seq);

        // Embedding on the CPU.
        let snap = ctx.cost.snapshot();
        ctx.cost.charge_cpu(0, (rows * hidden * 2) as u64);
        let mut x = if functional {
            let mut x = Vec::with_capacity(rows * hidden);
            for &t in tokens {
                x.extend(self.weights.embed_row(&self.cfg, t));
            }
            x
        } else {
            Vec::new()
        };
        let embed_secs = ctx.cost.delta_since(&snap, "").wall_secs;
        cost.cpu_secs += embed_secs;

        let mut layer_stages = Vec::with_capacity(self.cfg.layers);
        self.walk_layers(
            ctx,
            &mut x,
            rows,
            cache,
            &[seq],
            &[start_pos],
            true,
            &mut cost,
            &mut layer_stages,
        )?;

        // Final norm + logits: last position only for generation, every
        // position for speculative verification.
        let head_rows = if all_logits { rows } else { 1 };
        let first_row = rows - head_rows;
        let snap = ctx.cost.snapshot();
        Self::rmsnorm_rows(
            ctx,
            head_rows,
            &self.weights.final_norm,
            if functional {
                &mut x[first_row * hidden..]
            } else {
                &mut []
            },
        );
        let final_npu_secs = ctx.cost.delta_since(&snap, "").wall_secs;
        cost.misc_secs += final_npu_secs;

        let snap = ctx.cost.snapshot();
        let logits = if functional {
            self.lm_head(ctx, &x[first_row * hidden..], head_rows, true)
        } else {
            self.lm_head(ctx, &[], head_rows, false)
        };
        let head_secs = ctx.cost.delta_since(&snap, "").wall_secs;
        cost.cpu_secs += head_secs;
        let stages = StepStages {
            cpu_embed_secs: embed_secs,
            layers: layer_stages,
            final_npu_secs,
            cpu_head_secs: head_secs,
            switch_secs: self.schedule.switch_secs,
            wrap_switch: self.schedule.is_sharded(),
            batch: rows,
            draft_cpu_secs: 0.0,
            draft_npu_secs: 0.0,
        };
        // Prefill is one standalone pass: dispatch and session switches
        // overlap the walk, but there is no next step to pipeline into.
        cost.overlapped_secs = match self.dispatch {
            DispatchMode::Serial => cost.wall_secs(),
            DispatchMode::Overlapped => overlap::single_pass_secs(&stages),
        };
        Ok(DecodeOutput {
            logits,
            cost,
            stages,
        })
    }

    /// One batched decode step over the leading cache slots: `tokens[i]`
    /// is the newest token of sequence `i`. Returns per-sequence logits
    /// and the step cost.
    pub fn decode_step(
        &self,
        ctx: &mut NpuContext,
        cache: &mut KvCache,
        tokens: &[u32],
    ) -> SimResult<DecodeOutput> {
        let seqs: Vec<usize> = (0..tokens.len()).collect();
        self.decode_step_for(ctx, cache, &seqs, tokens)
    }

    /// One batched decode step over an explicit set of cache slots:
    /// `tokens[i]` is the newest token of slot `seqs[i]`. Slots may sit at
    /// different context depths — continuous batching admits and retires
    /// sequences mid-stream — and each row attends to its own slot's KV at
    /// its own length. Returns per-row logits in `seqs` order.
    pub fn decode_step_for(
        &self,
        ctx: &mut NpuContext,
        cache: &mut KvCache,
        seqs: &[usize],
        tokens: &[u32],
    ) -> SimResult<DecodeOutput> {
        let functional = ctx.mode == ExecMode::Functional;
        let batch = tokens.len();
        assert_eq!(batch, seqs.len(), "one token per decoded slot");
        assert!(batch >= 1, "decode step needs at least one sequence");
        assert!(
            seqs.iter().all(|&s| s < cache.batch()),
            "slot index out of range"
        );
        {
            // A duplicated slot would double-append to one KV sequence and
            // let the second row attend to a half-updated cache.
            let mut sorted = seqs.to_vec();
            sorted.sort_unstable();
            assert!(
                sorted.windows(2).all(|w| w[0] != w[1]),
                "decoded slots must be unique"
            );
        }
        let hidden = self.cfg.hidden;
        let mut cost = StepCost::default();
        // Each sequence decodes at its own current position (uniform in
        // plain test-time scaling; staggered under continuous batching).
        let positions: Vec<usize> = seqs.iter().map(|&s| cache.len(s)).collect();

        let snap = ctx.cost.snapshot();
        ctx.cost.charge_cpu(0, (batch * hidden * 2) as u64);
        let mut x = if functional {
            let mut x = Vec::with_capacity(batch * hidden);
            for &t in tokens {
                x.extend(self.weights.embed_row(&self.cfg, t));
            }
            x
        } else {
            Vec::new()
        };
        let embed_secs = ctx.cost.delta_since(&snap, "").wall_secs;
        cost.cpu_secs += embed_secs;

        let mut layer_stages = Vec::with_capacity(self.cfg.layers);
        self.walk_layers(
            ctx,
            &mut x,
            batch,
            cache,
            seqs,
            &positions,
            false,
            &mut cost,
            &mut layer_stages,
        )?;

        let snap = ctx.cost.snapshot();
        Self::rmsnorm_rows(ctx, batch, &self.weights.final_norm, &mut x);
        let final_npu_secs = ctx.cost.delta_since(&snap, "").wall_secs;
        cost.misc_secs += final_npu_secs;

        let snap = ctx.cost.snapshot();
        let logits = self.lm_head(ctx, &x, batch, functional);
        let head_secs = ctx.cost.delta_since(&snap, "").wall_secs;
        cost.cpu_secs += head_secs;
        let stages = StepStages {
            cpu_embed_secs: embed_secs,
            layers: layer_stages,
            final_npu_secs,
            cpu_head_secs: head_secs,
            switch_secs: self.schedule.switch_secs,
            wrap_switch: self.schedule.is_sharded(),
            batch,
            draft_cpu_secs: 0.0,
            draft_npu_secs: 0.0,
        };
        // Decode steps repeat, so the overlap-aware wall time is the
        // steady-state period of the pipelined schedule: the CPU tail of
        // step t hides behind the first layers of step t+1 (Section
        // 7.2.2), dispatch rides the double-buffered ring, and session
        // switches hide behind the previous shard's tail kernels.
        cost.overlapped_secs = match self.dispatch {
            DispatchMode::Serial => cost.wall_secs(),
            DispatchMode::Overlapped => overlap::steady_state_step_secs(&stages),
        };
        Ok(DecodeOutput {
            logits,
            cost,
            stages,
        })
    }
}

/// `w` (row-major, `cols` columns) transposed: `[cols][rows]`.
fn transpose(w: &[f32], cols: usize) -> Vec<f32> {
    let rows = w.len() / cols.max(1);
    let mut t = vec![0.0f32; w.len()];
    for (r, row) in w.chunks_exact(cols).enumerate() {
        for (c, &x) in row.iter().enumerate() {
            t[c * rows + r] = x;
        }
    }
    t
}

/// `out[v] = x · w[v]` for the first `out.len()` rows of a row-major
/// matrix `w` with `x.len()` columns, given its transpose `wt`
/// (`[x.len()][out.len()]`). Each pass over `x` adds one product to every
/// output across contiguous lanes. Every output still starts at 0.0 and
/// adds its products in ascending column order, and Rust never fuses
/// `acc += a * b` into an FMA, so each result equals the one-row loop's
/// bit for bit.
fn logits_transposed(x: &[f32], wt: &[f32], out: &mut [f32]) {
    out.fill(0.0);
    for (&xv, w_col) in x.iter().zip(wt.chunks_exact(out.len())) {
        for (o, &w) in out.iter_mut().zip(w_col) {
            *o += xv * w;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelId;
    use crate::cpu_ref::forward_reference;
    use crate::tokenizer::Tokenizer;

    #[test]
    fn transposed_lm_head_matches_the_one_row_loop_bitwise() {
        // Vocabularies of one row, below, at and around multiples of 8,
        // the tiny model's 256, and past it.
        let hidden = 64;
        let mut state = 0x9e37_79b9u32;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            (state % 20_001) as f32 / 1000.0 - 10.0
        };
        let x: Vec<f32> = (0..hidden).map(|_| next()).collect();
        for vocab in [1, 7, 8, 13, 256, 261] {
            let w: Vec<f32> = (0..vocab * hidden).map(|_| next()).collect();
            let wt = transpose(&w, hidden);
            let mut got = vec![f32::NAN; vocab];
            logits_transposed(&x, &wt, &mut got);
            for (v, g) in got.iter().enumerate() {
                let mut want = 0.0f32;
                for (xv, wv) in x.iter().zip(&w[v * hidden..(v + 1) * hidden]) {
                    want += xv * wv;
                }
                assert_eq!(g.to_bits(), want.to_bits(), "vocab={vocab} row {v}");
            }
        }
    }

    fn functional_setup() -> (NpuContext, Model, KvCache) {
        let mut ctx = NpuContext::new(DeviceProfile::v75(), ExecMode::Functional);
        let model = Model::new(&mut ctx, ModelId::Tiny, DequantVariant::CoalescedLut, 42).unwrap();
        let cache = KvCache::new(&mut ctx, &model.cfg, 4, 256).unwrap();
        (ctx, model, cache)
    }

    #[test]
    fn tiny_prefill_matches_cpu_reference() {
        let (mut ctx, model, mut cache) = functional_setup();
        let tok = Tokenizer::new();
        let tokens = tok.encode_with_bos("2+3=");
        let out = model.prefill(&mut ctx, &mut cache, 0, &tokens).unwrap();
        assert_eq!(out.logits.len(), model.cfg.vocab);

        let ref_logits = forward_reference(&model.cfg, &model.weights, &tokens);
        let last = &ref_logits[(tokens.len() - 1) * model.cfg.vocab..];
        // Cosine similarity between NPU-path logits and the f32 reference.
        let dot: f32 = out.logits.iter().zip(last).map(|(a, b)| a * b).sum();
        let na: f32 = out.logits.iter().map(|a| a * a).sum::<f32>().sqrt();
        let nb: f32 = last.iter().map(|b| b * b).sum::<f32>().sqrt();
        let cos = dot / (na * nb);
        assert!(cos > 0.99, "cosine {cos}");
    }

    #[test]
    fn decode_continues_from_prefill() {
        let (mut ctx, model, mut cache) = functional_setup();
        let tok = Tokenizer::new();
        let tokens = tok.encode_with_bos("12*4");
        model.prefill(&mut ctx, &mut cache, 0, &tokens).unwrap();
        cache.broadcast_prompt(true);
        let out = model
            .decode_step(&mut ctx, &mut cache, &[100, 101, 102, 103])
            .unwrap();
        assert_eq!(out.logits.len(), 4 * model.cfg.vocab);
        assert_eq!(cache.len(0), tokens.len() + 1);
        assert_eq!(cache.len(3), tokens.len() + 1);
        // Batch rows see different tokens, so logits must differ.
        let r0 = &out.logits[..model.cfg.vocab];
        let r1 = &out.logits[model.cfg.vocab..2 * model.cfg.vocab];
        assert!(r0 != r1);
    }

    #[test]
    fn decode_cost_scales_sublinearly_with_batch() {
        // The TTS premise: batch-16 decode costs far less than 16x batch-1.
        let mut ctx = NpuContext::new(DeviceProfile::v75(), ExecMode::CostOnly);
        let model =
            Model::new(&mut ctx, ModelId::Qwen1_5B, DequantVariant::CoalescedLut, 1).unwrap();
        let mut wall = |batch: usize| {
            let budget = batch * 1024 + batch;
            let mut cache = KvCache::new(&mut ctx, &model.cfg, batch, budget).unwrap();
            for s in 0..batch {
                for _ in 0..1024 {
                    for l in 0..model.cfg.layers {
                        cache.append(l, s, &[], &[], false).unwrap();
                    }
                }
            }
            let out = model
                .decode_step(&mut ctx, &mut cache, &vec![0u32; batch])
                .unwrap();
            cache.free(&mut ctx);
            out.cost.wall_secs()
        };
        let t1 = wall(1);
        let t16 = wall(16);
        let ratio = t16 / t1;
        assert!(
            (1.0..6.0).contains(&ratio),
            "batch-16 step should cost much less than 16x batch-1: {ratio}"
        );
    }

    #[test]
    fn lm_head_share_grows_with_batch_figure_11() {
        // Paper: at batch 16 the CPU logits time approaches/exceeds 50%.
        let mut ctx = NpuContext::new(DeviceProfile::v75(), ExecMode::CostOnly);
        let model =
            Model::new(&mut ctx, ModelId::Qwen1_5B, DequantVariant::CoalescedLut, 1).unwrap();
        let mut share = |batch: usize| {
            let budget = batch * 512 + batch;
            let mut cache = KvCache::new(&mut ctx, &model.cfg, batch, budget).unwrap();
            for s in 0..batch {
                for _ in 0..512 {
                    for l in 0..model.cfg.layers {
                        cache.append(l, s, &[], &[], false).unwrap();
                    }
                }
            }
            let out = model
                .decode_step(&mut ctx, &mut cache, &vec![0u32; batch])
                .unwrap();
            cache.free(&mut ctx);
            out.cost.cpu_secs / out.cost.wall_secs()
        };
        let s1 = share(1);
        let s16 = share(16);
        assert!(s16 > s1, "cpu share must grow with batch");
        assert!(s16 > 0.35, "batch-16 cpu share {s16} (paper: ~50%)");
        assert!(s1 < 0.35, "batch-1 cpu share {s1}");
    }

    #[test]
    fn prefill_throughput_exceeds_decode_throughput() {
        let mut ctx = NpuContext::new(DeviceProfile::v75(), ExecMode::CostOnly);
        let model =
            Model::new(&mut ctx, ModelId::Qwen1_5B, DequantVariant::CoalescedLut, 1).unwrap();
        let mut cache = KvCache::new(&mut ctx, &model.cfg, 1, 4096).unwrap();
        let tokens = vec![0u32; 512];
        let out = model.prefill(&mut ctx, &mut cache, 0, &tokens).unwrap();
        let prefill_tps = 512.0 / out.cost.wall_secs();
        let step = model.decode_step(&mut ctx, &mut cache, &[0]).unwrap();
        let decode_tps = 1.0 / step.cost.wall_secs();
        assert!(
            prefill_tps > 8.0 * decode_tps,
            "prefill {prefill_tps} tok/s vs decode {decode_tps} tok/s"
        );
    }

    #[test]
    fn sharded_walk_is_bit_identical_and_charges_switches() {
        // Golden parity: a 2-shard schedule must not perturb the forward
        // pass — only add the session-switch time.
        let (mut ctx, model, mut cache) = functional_setup();
        let tok = Tokenizer::new();
        let tokens = tok.encode_with_bos("7*8=");
        let base_prefill = model.prefill(&mut ctx, &mut cache, 0, &tokens).unwrap();
        cache.broadcast_prompt(true);
        let base_step = model
            .decode_step(&mut ctx, &mut cache, &[100, 101, 102, 103])
            .unwrap();

        let mut ctx2 = NpuContext::new_sharded(DeviceProfile::v75(), ExecMode::Functional, 2);
        let mut sharded =
            Model::new(&mut ctx2, ModelId::Tiny, DequantVariant::CoalescedLut, 42).unwrap();
        sharded.set_layer_schedule(LayerSchedule {
            boundaries: vec![1],
            switch_secs: 30e-6,
            ..Default::default()
        });
        let mut cache2 = KvCache::new(&mut ctx2, &sharded.cfg, 4, 256).unwrap();
        let shard_prefill = sharded.prefill(&mut ctx2, &mut cache2, 0, &tokens).unwrap();
        cache2.broadcast_prompt(true);
        let shard_step = sharded
            .decode_step(&mut ctx2, &mut cache2, &[100, 101, 102, 103])
            .unwrap();

        assert_eq!(base_prefill.logits, shard_prefill.logits);
        assert_eq!(base_step.logits, shard_step.logits);
        // Two shards -> one boundary + one wrap-around per walk.
        let per_walk = 2.0 * 30e-6;
        assert!((shard_prefill.cost.switch_secs - per_walk).abs() < 1e-12);
        assert!((shard_step.cost.switch_secs - per_walk).abs() < 1e-12);
        assert!(base_step.cost.switch_secs == 0.0);
        assert!(
            (shard_step.cost.wall_secs() - base_step.cost.wall_secs() - per_walk).abs() < 1e-9,
            "sharded walk must cost exactly the switch overhead more"
        );
    }

    #[test]
    fn streamed_walk_is_bit_identical_and_charges_fetches() {
        // Hot/cold streaming is a placement + time-model change only: a
        // walk that streams layer 1 must produce the same logits and cost
        // exactly one DMA fetch more per pass.
        let (mut ctx, model, mut cache) = functional_setup();
        let tok = Tokenizer::new();
        let tokens = tok.encode_with_bos("6+6=");
        let base_prefill = model.prefill(&mut ctx, &mut cache, 0, &tokens).unwrap();
        cache.broadcast_prompt(true);
        let base_step = model
            .decode_step(&mut ctx, &mut cache, &[100, 101, 102, 103])
            .unwrap();

        let mut ctx2 = NpuContext::new(DeviceProfile::v75(), ExecMode::Functional);
        let mut streamed = Model::new_streamed(
            &mut ctx2,
            ModelId::Tiny,
            DequantVariant::CoalescedLut,
            42,
            &[1],
        )
        .unwrap();
        let bytes = 1 << 20;
        streamed.set_layer_schedule(LayerSchedule {
            streamed: vec![1],
            stream_layer_bytes: bytes,
            ..Default::default()
        });
        let mut cache2 = KvCache::new(&mut ctx2, &streamed.cfg, 4, 256).unwrap();
        let s_prefill = streamed
            .prefill(&mut ctx2, &mut cache2, 0, &tokens)
            .unwrap();
        cache2.broadcast_prompt(true);
        let s_step = streamed
            .decode_step(&mut ctx2, &mut cache2, &[100, 101, 102, 103])
            .unwrap();

        assert_eq!(base_prefill.logits, s_prefill.logits);
        assert_eq!(base_step.logits, s_step.logits);
        let fetch = bytes as f64 / ctx2.device().ddr_stream_bw;
        assert!((s_step.cost.stream_secs - fetch).abs() < 1e-15);
        assert_eq!(base_step.cost.stream_secs, 0.0);
        assert!(
            (s_step.cost.wall_secs() - base_step.cost.wall_secs() - fetch).abs() < 1e-9,
            "streamed walk must cost exactly the fetch more under serial dispatch"
        );
        assert_eq!(s_step.stages.layers[1].weight_fetch_secs, fetch);
        assert_eq!(s_step.stages.layers[0].weight_fetch_secs, 0.0);
        // The cold layer's weights live in DDR staging, not session VA.
        assert!(ctx2.ddr_staged_bytes() > 0);
        assert!(ctx2.ddr_staged_bytes() < ctx.ddr_mapped_bytes());
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_schedule_is_rejected() {
        let (_ctx, mut model, _cache) = functional_setup();
        model.set_layer_schedule(LayerSchedule {
            boundaries: vec![1, 1],
            switch_secs: 0.0,
            ..Default::default()
        });
    }

    #[test]
    fn kv_budget_exhaustion_surfaces() {
        let (mut ctx, model, _) = functional_setup();
        let mut tiny_cache = KvCache::new(&mut ctx, &model.cfg, 1, 2).unwrap();
        let tokens = vec![5u32, 6, 7];
        let err = model
            .prefill(&mut ctx, &mut tiny_cache, 0, &tokens)
            .unwrap_err();
        assert!(matches!(err, SimError::Unsupported { .. }));
    }
}
