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
//! Prefill and decode share one forward walk, which runs unchanged in both
//! execution modes. In functional mode (tiny models) every value is
//! computed bit-faithfully through the kernel crate. In cost-only mode
//! (paper-scale models) the same walk charges identical per-shape costs:
//! `replay` runs one representative block, the kernels skip their
//! arithmetic, the activations are empty and the KV cache holds no rows.

use std::borrow::Cow;
use std::cell::RefCell;
use std::ops::Range;

use hexsim::f16::F16;
use hexsim::prelude::*;
use htpops::attention::{AttnShape, FlashAttention};
use htpops::exp_lut::{ExpLut16, ExpMethod};
use htpops::gemm::{gemm_mixed, DequantVariant, GemmConfig, PreparedWeights};
use htpops::misc::{self, RopeTable};

use crate::config::{ModelConfig, ModelId};
use crate::kv_cache::KvCache;
use crate::overlap::{DispatchMode, LayerStage, StepStages};
use crate::weights::ModelWeights;

/// Number of NPU ops one transformer layer dispatches, in submission
/// order:
///  1. attention RMSNorm,
///  2. Q projection,
///  3. K projection,
///  4. V projection,
///  5. RoPE,
///  6. FlashAttention,
///  7. output projection,
///  8. attention residual,
///  9. FFN RMSNorm,
/// 10. gate projection,
/// 11. up projection,
/// 12. SwiGLU,
/// 13. down projection,
/// 14. FFN residual.
///
/// On the device each op's descriptor travels the rpcmem command ring; the
/// walk charges [`OP_DISPATCH_SECS`] per op for ring submission, cache
/// maintenance and completion sync.
const LAYER_OPS: usize = 14;

/// Per-operator dispatch overhead in seconds: command submission over the
/// shared-memory ring, cache maintenance, and inter-op synchronization.
/// Calibrated at 100 us so end-to-end decode matches the paper's Figure 11
/// absolute throughput (the paper notes decode is constrained by per-step
/// overheads beyond raw kernel time).
const OP_DISPATCH_SECS: f64 = 100e-6;

/// Dispatch seconds per transformer layer: every op in [`LAYER_OPS`] at
/// [`OP_DISPATCH_SECS`].
const LAYER_DISPATCH_SECS: f64 = LAYER_OPS as f64 * OP_DISPATCH_SECS;

/// Wall-time cost of one model step, by operator class.
#[derive(Clone, Copy, Debug, Default)]
pub struct StepCost {
    /// Weight GEMMs (dequant + HMX), seconds.
    pub gemm_secs: f64,
    /// Attention (FlashAttention incl. KV streaming), seconds.
    pub attn_secs: f64,
    /// Norms, RoPE, activations and residuals, plus the per-op command
    /// dispatch overhead of every layer (each layer's share is also
    /// recorded as [`LayerStage::dispatch_secs`]), seconds.
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
    /// How stages compose into [`StepCost::overlapped_secs`]: additive
    /// (the default) or overlap-aware (paper Section 7.2.2 pipelining).
    /// Set via [`Model::set_dispatch_mode`]. Only that one field changes —
    /// logits, per-engine busy totals and the recorded stages do not.
    dispatch: DispatchMode,
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
            embed_t,
            rope,
        }
    }

    /// Selects how the step's stages compose into
    /// [`StepCost::overlapped_secs`] (serial sum vs. overlap-aware critical
    /// path). Nothing else a step records changes.
    pub fn set_dispatch_mode(&mut self, mode: DispatchMode) {
        self.dispatch = mode;
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

    /// The one forward walk: the CPU embedding, every layer, the final
    /// norm and the CPU lm_head over `step`'s rows (`tokens[r]` is row
    /// `r`'s token). Records each stage for the overlap scheduler and
    /// prices [`StepCost::overlapped_secs`] under the dispatch mode.
    fn forward(
        &self,
        ctx: &mut NpuContext,
        cache: &mut KvCache,
        step: &Step,
        tokens: &[u32],
    ) -> SimResult<DecodeOutput> {
        let functional = ctx.mode == ExecMode::Functional;
        let (hidden, vocab) = (self.cfg.hidden, self.cfg.vocab);
        let rows = step.rows.len();
        let mut cost = StepCost::default();

        // Embedding on the CPU. A cost-only walk looks up no rows, so its
        // activations stay empty, and it grows no RoPE angles.
        let (mut x, cpu_embed_secs) = timed(ctx, |ctx| {
            ctx.cost.charge_cpu(0, (rows * hidden * 2) as u64);
            let mut x = Vec::new();
            if functional {
                x.reserve(rows * hidden);
                for &t in tokens {
                    x.extend(self.weights.embed_row(&self.cfg, t));
                }
            }
            x
        });
        cost.cpu_secs += cpu_embed_secs;
        if functional {
            let end = step.rows.iter().map(|row| row.pos + 1).max();
            self.rope.borrow_mut().grow(end.unwrap_or(0));
        }

        let layers = self.walk_layers(ctx, step, &mut x, cache, &mut cost)?;

        // Final norm + logits over the trailing head rows: the last
        // position for generation, every row for decode and verification.
        let head_rows = step.head_rows;
        let head_start = x.len().saturating_sub(head_rows * hidden);
        let head = &mut x[head_start..];
        let ((), final_npu_secs) = timed(ctx, |ctx| {
            rmsnorm_rows(ctx, head_rows, &self.weights.norm_gain, head)
        });
        cost.misc_secs += final_npu_secs;
        // The CPU roofline: weights stream at ~1 byte/param, logits write
        // in f32.
        let (logits, cpu_head_secs) = timed(ctx, |ctx| {
            let flops = 2 * head_rows as u64 * hidden as u64 * vocab as u64;
            let bytes = (vocab * hidden) as u64 + (head_rows * vocab * 4) as u64;
            ctx.cost.charge_cpu(flops, bytes);
            self.logits(head)
        });
        cost.cpu_secs += cpu_head_secs;
        let stages = StepStages {
            cpu_embed_secs,
            layers,
            final_npu_secs,
            cpu_head_secs,
            switch_secs: self.schedule.switch_secs,
            wrap_switch: self.schedule.is_sharded(),
            batch: rows,
            draft_cpu_secs: 0.0,
            draft_npu_secs: 0.0,
        };
        cost.overlapped_secs = self.dispatch.price(cost.wall_secs(), &stages, step.repeats);
        Ok(DecodeOutput {
            logits,
            cost,
            stages,
        })
    }

    /// Walks every layer in shard order, charging a session switch at
    /// each shard boundary and one wrap-around switch at the end of a
    /// sharded walk. With a single-session schedule this is exactly the
    /// `0..layers` loop. Returns each layer's kernel/dispatch seconds for
    /// the overlap scheduler.
    fn walk_layers(
        &self,
        ctx: &mut NpuContext,
        step: &Step,
        x: &mut [F16],
        cache: &mut KvCache,
        cost: &mut StepCost,
    ) -> SimResult<Vec<LayerStage>> {
        let mut stages = Vec::with_capacity(self.cfg.layers);
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
            self.layer_forward(ctx, layer, step, x, cache, cost)?;
            let npu_secs = ((cost.gemm_secs - before.gemm_secs)
                + (cost.attn_secs - before.attn_secs)
                + (cost.misc_secs - before.misc_secs)
                - LAYER_DISPATCH_SECS)
                .max(0.0);
            stages.push(LayerStage {
                npu_secs,
                dispatch_secs: LAYER_DISPATCH_SECS,
                switch_before,
                weight_fetch_secs,
            });
        }
        if self.schedule.is_sharded() {
            // Return dispatch to the first shard for the next pass.
            self.charge_session_switch(ctx, cost);
        }
        Ok(stages)
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

    /// The logits of the hidden-state rows in `x` against the tied
    /// embedding, read through its `[hidden][vocab]` transpose built at
    /// construction (see [`logits_transposed`]). No rows give no logits.
    fn logits(&self, x: &[F16]) -> Vec<f32> {
        let (hidden, vocab) = (self.cfg.hidden, self.cfg.vocab);
        // Convert each hidden state to f32 once (chunked, SIMD-friendly)
        // instead of once per vocabulary row; `to_f32` is exact, so the
        // accumulation below is bit-identical to converting in the inner
        // loop.
        let xf = F16::vec_to_f32(x);
        let mut logits = vec![0.0f32; x.len() / hidden * vocab];
        for (row, out) in xf.chunks_exact(hidden).zip(logits.chunks_exact_mut(vocab)) {
            logits_transposed(row, &self.embed_t, out);
        }
        logits
    }

    /// One transformer layer over `step`'s rows of `x`: each row appends
    /// its K/V to its slot, then each group of rows attends to its slot's
    /// history.
    fn layer_forward(
        &self,
        ctx: &mut NpuContext,
        layer: usize,
        step: &Step,
        x: &mut [F16],
        cache: &mut KvCache,
        cost: &mut StepCost,
    ) -> SimResult<()> {
        let cfg = &self.cfg;
        let lw = &self.weights.layers[layer];
        let rows = step.rows.len();
        let (hidden, q_dim, kv_dim, d) = (cfg.hidden, cfg.q_dim(), cfg.kv_dim(), cfg.head_dim);

        // Attention RMSNorm.
        let (normed, secs) = timed(ctx, |ctx| {
            let mut normed = x.to_vec();
            rmsnorm_rows(ctx, rows, &self.weights.norm_gain, &mut normed);
            normed
        });
        cost.misc_secs += secs;

        // QKV projections.
        let (mut q, tq) = self.gemm(ctx, &lw.wq, &normed, rows);
        let (mut k, tk) = self.gemm(ctx, &lw.wk, &normed, rows);
        let (v, tv) = self.gemm(ctx, &lw.wv, &normed, rows);
        cost.gemm_secs += tq + tk + tv;

        // RoPE on each row's Q heads, then its K heads, then the cache
        // append.
        let (appended, secs) = timed(ctx, |ctx| {
            let rope = self.rope.borrow();
            let heads = cfg.heads + cfg.kv_heads;
            ctx.replay_indexed((rows * heads) as u64, |ctx, i| {
                let (r, h) = (i as usize / heads, i as usize % heads);
                let head = match h.checked_sub(cfg.heads) {
                    None => part_mut(&mut q, r * q_dim + h * d, d),
                    Some(kh) => part_mut(&mut k, r * kv_dim + kh * d, d),
                };
                misc::rope(ctx, head, &rope, step.rows[r].pos);
            });
            step.rows.iter().enumerate().try_for_each(|(r, row)| {
                let (kr, vr) = (part(&k, r * kv_dim, kv_dim), part(&v, r * kv_dim, kv_dim));
                cache.append(layer, row.slot, kr, vr)
            })
        });
        appended?;
        cost.misc_secs += secs;

        // Attention per group, per KV head, GQA-group batched, reading the
        // cache's KV blocks in place.
        let g = cfg.gqa_group();
        let fa = FlashAttention::new(&self.lut, ExpMethod::Lut16, g);
        let mut attn_out = vec![F16::ZERO; q.len()];
        for group in &step.groups {
            let (first, n) = (group.rows.start, group.rows.len());
            let slot = step.rows[first].slot;
            let shape = AttnShape {
                nq: n,
                nkv: cache.len(slot),
                head_dim: d,
            };
            let causal_start = group.causal.then_some(step.rows[first].pos);
            for h in 0..cfg.kv_heads {
                // The group's query heads sit side by side in a row, from
                // `col`. FlashAttention reads them head-major, `[g][n][d]`:
                // one row's in place, several rows' gathered.
                let col = h * g * d;
                let qs = if n == 1 {
                    Cow::Borrowed(part(&q, first * q_dim + col, g * d))
                } else {
                    let mut qs = Vec::new();
                    for c in (col..col + g * d).step_by(d) {
                        for row in q.chunks_exact(q_dim).skip(first).take(n) {
                            qs.extend_from_slice(&row[c..c + d]);
                        }
                    }
                    Cow::Owned(qs)
                };
                let kv = cache.blocks(layer, slot, h);
                let (out, bd) = fa.run_blocks(ctx, shape, &qs, kv, causal_start);
                cost.attn_secs += bd.total_wall();
                for (c, head_out) in (col..).step_by(d).zip(out.chunks_exact(n * d)) {
                    let dst_rows = attn_out.chunks_exact_mut(q_dim).skip(first);
                    for (dst, src) in dst_rows.zip(head_out.chunks_exact(d)) {
                        dst[c..c + d].copy_from_slice(src);
                    }
                }
            }
        }

        // Output projection + residual.
        let (o, to) = self.gemm(ctx, &lw.wo, &attn_out, rows);
        cost.gemm_secs += to;
        cost.misc_secs += timed(ctx, |ctx| residual(ctx, x, &o, rows, hidden)).1;

        // FFN: norm, gate/up, SwiGLU, down (Q8), residual.
        let (ffn_in, secs) = timed(ctx, |ctx| {
            let mut ffn_in = x.to_vec();
            rmsnorm_rows(ctx, rows, &self.weights.norm_gain, &mut ffn_in);
            ffn_in
        });
        cost.misc_secs += secs;

        let (mut gate, tg) = self.gemm(ctx, &lw.w_gate, &ffn_in, rows);
        let (up, tu) = self.gemm(ctx, &lw.w_up, &ffn_in, rows);
        cost.gemm_secs += tg + tu;
        cost.misc_secs += timed(ctx, |ctx| swiglu(ctx, &mut gate, &up, rows, cfg.ffn)).1;

        let (down, td) = self.gemm(ctx, &lw.w_down, &gate, rows);
        cost.gemm_secs += td;
        cost.misc_secs += timed(ctx, |ctx| residual(ctx, x, &down, rows, hidden)).1;

        // Per-operator dispatch: the calibrated overhead of every op's
        // descriptor on the command ring.
        ctx.cost.charge_secs(Engine::Scalar, LAYER_DISPATCH_SECS);
        cost.misc_secs += LAYER_DISPATCH_SECS;
        Ok(())
    }

    /// Prefills one sequence with `tokens`, filling its KV cache. Returns
    /// the cost and (functional mode) the logits of the final position.
    ///
    /// An empty `tokens` is [`SimError::InvalidConfig`], returned before
    /// anything is charged.
    pub fn prefill(
        &self,
        ctx: &mut NpuContext,
        cache: &mut KvCache,
        seq: usize,
        tokens: &[u32],
    ) -> SimResult<DecodeOutput> {
        self.prefill_rows(ctx, cache, seq, tokens, 1)
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
        self.prefill_rows(ctx, cache, seq, tokens, tokens.len())
    }

    /// Prefills `tokens` into slot `seq` from its current length; the
    /// last `head_rows` positions reach the lm_head.
    fn prefill_rows(
        &self,
        ctx: &mut NpuContext,
        cache: &mut KvCache,
        seq: usize,
        tokens: &[u32],
        head_rows: usize,
    ) -> SimResult<DecodeOutput> {
        check_prompt(tokens)?;
        let step = Step::prefill(seq, cache.len(seq), tokens.len(), head_rows);
        self.forward(ctx, cache, &step, tokens)
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
    /// its own length. Returns per-row logits in `seqs` order. An empty
    /// step is [`SimError::InvalidConfig`], returned before anything is
    /// charged.
    pub fn decode_step_for(
        &self,
        ctx: &mut NpuContext,
        cache: &mut KvCache,
        seqs: &[usize],
        tokens: &[u32],
    ) -> SimResult<DecodeOutput> {
        assert_eq!(tokens.len(), seqs.len(), "one token per decoded slot");
        if seqs.is_empty() {
            return Err(SimError::InvalidConfig {
                reason: "empty decode step: a decode step needs at least one sequence".into(),
            });
        }
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
        // Each sequence decodes at its own current position (uniform in
        // plain test-time scaling; staggered under continuous batching).
        let step = Step::decode(seqs.iter().map(|&slot| StepRow {
            slot,
            pos: cache.len(slot),
        }));
        self.forward(ctx, cache, &step, tokens)
    }
}

/// The rows of one forward step, as the walk reads them: each row's KV
/// slot and position, which rows attend together, and how many trailing
/// rows reach the lm_head.
struct Step {
    rows: Vec<StepRow>,
    /// Consecutive rows that attend together, on their first row's slot.
    groups: Vec<RowGroup>,
    /// Trailing rows that reach the final norm and the lm_head.
    head_rows: usize,
    /// Whether the step repeats (decode): its overlap-aware wall time is
    /// then the pipelined steady-state period, not one pass
    /// ([`DispatchMode::price`]).
    repeats: bool,
}

/// One row of a [`Step`]: the KV slot it appends to and attends over, and
/// its absolute position there.
struct StepRow {
    slot: usize,
    pos: usize,
}

/// Rows of a [`Step`] that attend together.
struct RowGroup {
    rows: Range<usize>,
    /// Whether the rows attend causally from the group's first position
    /// (prefill) rather than to the slot's whole history (a decode row).
    causal: bool,
}

impl Step {
    /// `n` rows of slot `slot` from position `start`, attending causally
    /// as one group; the last `head_rows` reach the lm_head.
    fn prefill(slot: usize, start: usize, n: usize, head_rows: usize) -> Self {
        Step {
            rows: (start..start + n)
                .map(|pos| StepRow { slot, pos })
                .collect(),
            groups: vec![RowGroup {
                rows: 0..n,
                causal: true,
            }],
            head_rows,
            repeats: false,
        }
    }

    /// One row per slot, each its own group; every row reaches the
    /// lm_head.
    fn decode(rows: impl Iterator<Item = StepRow>) -> Self {
        let rows: Vec<StepRow> = rows.collect();
        let groups = (0..rows.len())
            .map(|r| RowGroup {
                rows: r..r + 1,
                causal: false,
            })
            .collect();
        Step {
            head_rows: rows.len(),
            rows,
            groups,
            repeats: true,
        }
    }
}

/// [`SimError::InvalidConfig`] for an empty prompt: a prefill has no
/// position to attend from or to take logits at.
pub(crate) fn check_prompt(tokens: &[u32]) -> SimResult<()> {
    if tokens.is_empty() {
        return Err(SimError::InvalidConfig {
            reason: "empty prompt: a prefill needs at least one token".into(),
        });
    }
    Ok(())
}

/// Runs `f` and returns its result with the wall seconds it charged.
fn timed<R>(ctx: &mut NpuContext, f: impl FnOnce(&mut NpuContext) -> R) -> (R, f64) {
    let snap = ctx.cost.snapshot();
    let r = f(ctx);
    (r, ctx.cost.delta_since(&snap, "").wall_secs)
}

/// `len` values of `x` from `start`. A cost-only activation is empty, and
/// so is every part of it: the kernels take their shapes from weights and
/// tables, and a cost-only cache stores no rows.
fn part(x: &[F16], start: usize, len: usize) -> &[F16] {
    x.get(start..start + len).unwrap_or_default()
}

/// [`part`], mutably.
fn part_mut(x: &mut [F16], start: usize, len: usize) -> &mut [F16] {
    x.get_mut(start..start + len).unwrap_or_default()
}

/// RMSNorm over `rows` rows of `x` with weight row `w`, which gives the
/// kernel its length.
fn rmsnorm_rows(ctx: &mut NpuContext, rows: usize, w: &[F16], x: &mut [F16]) {
    let n = w.len();
    ctx.replay_indexed(rows as u64, |ctx, r| {
        misc::rmsnorm(ctx, part_mut(x, r as usize * n, n), w, 1e-5)
    });
}

/// Residual `x += y` over `rows` rows of `hidden` values, charged per row.
fn residual(ctx: &mut NpuContext, x: &mut [F16], y: &[F16], rows: usize, hidden: usize) {
    for (xi, yi) in x.iter_mut().zip(y) {
        *xi = xi.add(*yi);
    }
    ctx.replay(rows as u64, |ctx| {
        ctx.cost
            .charge_hvx_packets((hidden as u64).div_ceil(64) * 2);
        ctx.cost.charge_tcm_bytes(hidden as u64 * 6);
    });
}

/// SwiGLU over `rows` gate/up row pairs of `ffn` values: SiLU on each
/// gate row, then the gate multiply. Functional mode multiplies every row
/// in one call; cost-only mode has no rows and charges one `ffn`-long
/// multiply per row. The two charge sequences round differently, and the
/// pinned numbers of each mode rest on its own.
fn swiglu(ctx: &mut NpuContext, gate: &mut [F16], up: &[F16], rows: usize, ffn: usize) {
    ctx.replay_indexed(rows as u64, |ctx, r| {
        misc::silu(ctx, part_mut(gate, r as usize * ffn, ffn), ffn)
    });
    let (mul_calls, mul_len) = if ctx.mode == ExecMode::Functional {
        (1, rows * ffn)
    } else {
        (rows as u64, ffn)
    };
    ctx.replay(mul_calls, |ctx| misc::mul_inplace(ctx, gate, up, mul_len));
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
        cache.broadcast_prompt();
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
                        cache.append(l, s, &[], &[]).unwrap();
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
                        cache.append(l, s, &[], &[]).unwrap();
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
        cache.broadcast_prompt();
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
        cache2.broadcast_prompt();
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
        cache.broadcast_prompt();
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
        cache2.broadcast_prompt();
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

    /// What an entry point may not move when it rejects its input: every
    /// engine's seconds, the counters and the mapped DDR bytes.
    fn charged_state(ctx: &NpuContext) -> ([u64; 6], hexsim::cost::Counters, u64) {
        let secs = Engine::ALL.map(|e| ctx.cost.engine_secs(e).to_bits());
        (secs, *ctx.cost.counters(), ctx.ddr_mapped_bytes())
    }

    #[test]
    fn an_empty_prompt_is_rejected_before_anything_is_charged() {
        for (mode, id) in [
            (ExecMode::CostOnly, ModelId::Qwen1_5B),
            (ExecMode::Functional, ModelId::Tiny),
        ] {
            let mut ctx = NpuContext::new(DeviceProfile::v75(), mode);
            let model = Model::new(&mut ctx, id, DequantVariant::CoalescedLut, 1).unwrap();
            let mut cache = KvCache::new(&mut ctx, &model.cfg, 2, 64).unwrap();
            model.prefill(&mut ctx, &mut cache, 1, &[1; 5]).unwrap();
            let before = charged_state(&ctx);
            for seq in [0, 1] {
                let outcomes = [
                    model.prefill(&mut ctx, &mut cache, seq, &[]),
                    model.prefill_all_logits(&mut ctx, &mut cache, seq, &[]),
                ];
                for out in outcomes {
                    let err = out.unwrap_err();
                    assert!(
                        matches!(&err, SimError::InvalidConfig { reason } if reason.contains("empty prompt")),
                        "{mode:?} slot {seq}: {err}"
                    );
                }
                assert_eq!(charged_state(&ctx), before, "{mode:?} slot {seq}");
            }
            assert_eq!((cache.len(0), cache.len(1)), (0, 5));
        }
    }

    #[test]
    fn an_empty_decode_step_is_rejected_before_anything_is_charged() {
        for (mode, id) in [
            (ExecMode::CostOnly, ModelId::Qwen1_5B),
            (ExecMode::Functional, ModelId::Tiny),
        ] {
            let mut ctx = NpuContext::new(DeviceProfile::v75(), mode);
            let model = Model::new(&mut ctx, id, DequantVariant::CoalescedLut, 1).unwrap();
            let mut cache = KvCache::new(&mut ctx, &model.cfg, 2, 64).unwrap();
            model.prefill(&mut ctx, &mut cache, 1, &[1; 5]).unwrap();
            let before = charged_state(&ctx);
            let outcomes = [
                model.decode_step(&mut ctx, &mut cache, &[]),
                model.decode_step_for(&mut ctx, &mut cache, &[], &[]),
            ];
            for out in outcomes {
                let err = out.unwrap_err();
                assert!(
                    matches!(&err, SimError::InvalidConfig { reason } if reason.contains("empty decode step")),
                    "{mode:?}: {err}"
                );
            }
            assert_eq!(charged_state(&ctx), before, "{mode:?}");
            assert_eq!((cache.len(0), cache.len(1)), (0, 5));
        }
    }

    /// Every float a step records, as bits: the seven `StepCost` fields,
    /// the `StepStages` scalars, then each layer's three. A step that
    /// computed logits appends an FNV-1a digest of their bits.
    fn recorded_bits(out: &DecodeOutput) -> Vec<u64> {
        let (c, s) = (&out.cost, &out.stages);
        let mut secs = vec![
            c.gemm_secs,
            c.attn_secs,
            c.misc_secs,
            c.cpu_secs,
            c.switch_secs,
            c.stream_secs,
            c.overlapped_secs,
            s.cpu_embed_secs,
            s.final_npu_secs,
            s.cpu_head_secs,
            s.switch_secs,
            s.draft_cpu_secs,
            s.draft_npu_secs,
        ];
        for l in &s.layers {
            secs.extend([l.npu_secs, l.dispatch_secs, l.weight_fetch_secs]);
        }
        let mut bits: Vec<u64> = secs.into_iter().map(f64::to_bits).collect();
        if !out.logits.is_empty() {
            bits.push(out.logits.iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
                (h ^ u64::from(v.to_bits())).wrapping_mul(0x100_0000_01b3)
            }));
        }
        bits
    }

    /// The tiny model's prompt prefill and one batch-4 step under
    /// `schedule`, whose cold layers are `streamed`.
    fn scheduled_tiny_bits(
        ctx: &mut NpuContext,
        streamed: &[usize],
        schedule: LayerSchedule,
    ) -> [Vec<u64>; 2] {
        let mut model = Model::new_streamed(
            ctx,
            ModelId::Tiny,
            DequantVariant::CoalescedLut,
            42,
            streamed,
        )
        .unwrap();
        model.set_layer_schedule(schedule);
        let mut cache = KvCache::new(ctx, &model.cfg, 4, 256).unwrap();
        let prompt = Tokenizer::new().encode_with_bos("7*8=");
        let prefill = model.prefill(ctx, &mut cache, 0, &prompt).unwrap();
        cache.broadcast_prompt();
        let step = model
            .decode_step(ctx, &mut cache, &[100, 101, 102, 103])
            .unwrap();
        [recorded_bits(&prefill), recorded_bits(&step)]
    }

    /// The recorded bits of every pinned step, labelled as in
    /// `testdata/model_charges.txt`.
    fn recorded_steps() -> Vec<(&'static str, Vec<u64>)> {
        let mut bits = Vec::new();
        // Tiny, functional: a prompt, a 4-row verify pass that extends
        // slot 1 past it, then (after slot 3 steps alone) two batch-4
        // steps over slots at three depths.
        let (mut ctx, model, mut cache) = functional_setup();
        let prompt = Tokenizer::new().encode_with_bos("12*4=");
        bits.push(model.prefill(&mut ctx, &mut cache, 0, &prompt).unwrap());
        cache.broadcast_prompt();
        let verify = model.prefill_all_logits(&mut ctx, &mut cache, 1, &[7, 8, 9, 10]);
        bits.push(verify.unwrap());
        model
            .decode_step_for(&mut ctx, &mut cache, &[3], &[11])
            .unwrap();
        for tokens in [[20, 21, 22, 23], [24, 25, 26, 27]] {
            let step = model.decode_step_for(&mut ctx, &mut cache, &[2, 0, 3, 1], &tokens);
            bits.push(step.unwrap());
        }
        let mut bits: Vec<Vec<u64>> = bits.iter().map(recorded_bits).collect();
        let mut ctx = NpuContext::new_sharded(DeviceProfile::v75(), ExecMode::Functional, 2);
        let sharded = LayerSchedule {
            boundaries: vec![1],
            switch_secs: 30e-6,
            ..Default::default()
        };
        bits.extend(scheduled_tiny_bits(&mut ctx, &[], sharded));
        let mut ctx = NpuContext::new(DeviceProfile::v75(), ExecMode::Functional);
        let streamed = LayerSchedule {
            streamed: vec![1],
            stream_layer_bytes: 1 << 20,
            ..Default::default()
        };
        bits.extend(scheduled_tiny_bits(&mut ctx, &[1], streamed));

        // Qwen-1.5B, cost-only, priced overlapped: a 40-token prefill and
        // a step over slots at three depths, under a 2-shard schedule and
        // then under one streamed layer.
        let cfg = ModelConfig::for_id(ModelId::Qwen1_5B);
        let schedules = [
            LayerSchedule {
                boundaries: vec![14],
                switch_secs: 30e-6,
                ..Default::default()
            },
            LayerSchedule {
                streamed: vec![3],
                stream_layer_bytes: cfg.npu_layer_weight_bytes(),
                ..Default::default()
            },
        ];
        for schedule in schedules {
            let sessions = schedule.boundaries.len() + 1;
            let mut ctx =
                NpuContext::new_sharded(DeviceProfile::v75(), ExecMode::CostOnly, sessions);
            let mut model = Model::new_streamed(
                &mut ctx,
                cfg.id,
                DequantVariant::CoalescedLut,
                1,
                &schedule.streamed,
            )
            .unwrap();
            model.set_layer_schedule(schedule);
            model.set_dispatch_mode(DispatchMode::Overlapped);
            let mut cache = KvCache::new(&mut ctx, &model.cfg, 3, 512).unwrap();
            let prefill = model.prefill(&mut ctx, &mut cache, 0, &[0; 40]).unwrap();
            cache.fast_fill(1, 100);
            cache.fast_fill(2, 7);
            let step = model.decode_step_for(&mut ctx, &mut cache, &[2, 0, 1], &[0; 3]);
            bits.extend([recorded_bits(&prefill), recorded_bits(&step.unwrap())]);
        }
        let labels = [
            "functional prefill",
            "functional verify",
            "functional step 1",
            "functional step 2",
            "functional 2-shard prefill",
            "functional 2-shard step",
            "functional streamed prefill",
            "functional streamed step",
            "cost-only 2-shard prefill",
            "cost-only 2-shard step",
            "cost-only streamed prefill",
            "cost-only streamed step",
        ];
        labels.into_iter().zip(bits).collect()
    }

    #[test]
    fn recorded_charges_match_the_pinned_bits() {
        // Pins every charge a step records in both execution modes, bit
        // for bit. A change that moves one re-pins the file and says so.
        let pinned: Vec<(&str, Vec<u64>)> = include_str!("../testdata/model_charges.txt")
            .lines()
            .filter(|line| !line.starts_with('#'))
            .map(|line| {
                let (label, hex) = line.split_once(": ").unwrap();
                let bits = hex.split(' ').map(|h| u64::from_str_radix(h, 16).unwrap());
                (label, bits.collect())
            })
            .collect();
        let recorded = recorded_steps();
        assert_eq!(recorded.len(), pinned.len());
        for ((label, got), (pinned_label, want)) in recorded.iter().zip(&pinned) {
            assert_eq!(label, pinned_label);
            let first = got.iter().zip(want).position(|(g, w)| g != w);
            assert!(
                got == want,
                "{label}: {} values recorded, {} pinned, first difference at {first:?}",
                got.len(),
                want.len()
            );
        }
    }
}
