//! Direct calls into the `htpops` kernels and the `hexsim` HMX tile at the
//! tiny model's shapes: host time per call, the simulated cost each call
//! charges, and the operations and bytes each call does. Operations and
//! bytes are computed from the tensor shapes, not counted by the
//! simulator.

use edgellm::model::Model;
use hexsim::hmx::{pack_tile, HmxAccumulator};
use hexsim::prelude::*;
use htpops::attention::{AttnShape, FlashAttention};
use htpops::dequant::{dequant_super_q4_lut, DequantEnv};
use htpops::exp_lut::ExpMethod;
use htpops::gemm::{gemm_mixed, GemmConfig};
use htpops::softmax::{softmax_rows, SoftmaxConfig};
use tilequant::block::BlockQ4_0;
use tilequant::super_group::SuperBlockQ4;

use crate::report::Metrics;
use crate::stats::median;
use crate::trace::Tracer;

/// Calls per timed batch; a batch is one span.
const CALLS: usize = 64;

/// Timed batches per kernel; the per-call host time is their median.
const BATCHES: usize = 7;

/// Decode rows (the widest Best-of-N batch) and KV length the probes use.
const ROWS: usize = 16;
const KV_LEN: usize = 64;

fn f16s(n: usize, salt: usize) -> Vec<F16> {
    (0..n)
        .map(|i| F16::from_f32((((i * 31 + salt) % 97) as f32) / 48.0 - 1.0))
        .collect()
}

/// Where probes run and report.
struct Probe<'a> {
    ctx: &'a mut NpuContext,
    tracer: &'a Tracer,
    out: &'a mut Metrics,
}

impl Probe<'_> {
    /// Times `call` in `BATCHES` spans named `span` (`kernels.<name>`) of
    /// `CALLS` calls each, and records `kernels.<name>_us`, `_sim_us`,
    /// `_ops` and `_bytes`.
    fn time(
        &mut self,
        span: &'static str,
        ops: f64,
        bytes: f64,
        mut call: impl FnMut(&mut NpuContext),
    ) {
        let snap = self.ctx.cost.snapshot();
        for b in 0..BATCHES {
            self.tracer.span(span, b as u64, || {
                for _ in 0..CALLS {
                    call(self.ctx);
                }
            });
        }
        let calls = (BATCHES * CALLS) as f64;
        let sim_us = self.ctx.cost.delta_since(&snap, span).wall_secs / calls * 1e6;
        let host_us = median(&self.tracer.durations_us(span)) / CALLS as f64;
        let out = &mut self.out;
        out.put_n(format!("{span}_us"), host_us, "us", BATCHES);
        out.put(format!("{span}_sim_us"), sim_us, "us");
        out.put(format!("{span}_ops"), ops, "count");
        out.put(format!("{span}_bytes"), bytes, "B");
    }
}

/// Probes every kernel on a fresh functional V75 context, with `model`'s
/// tiny-model weights and exp LUT.
pub fn probe_all(model: &Model, ctx: &mut NpuContext, tracer: &Tracer, out: &mut Metrics) {
    let cfg = &model.cfg;
    let mut p = Probe { ctx, tracer, out };

    // Mixed-precision GEMM: the Q projection over a 16-row decode batch.
    let w = &model.weights.layers[0].wq;
    let gemm = GemmConfig {
        m: ROWS,
        k: w.k,
        n: w.n,
        scheme: w.scheme,
        variant: w.variant,
        threads: model.threads,
    };
    let act = f16s(ROWS * w.k, 1);
    let ops = 2.0 * (ROWS * w.k * w.n) as f64;
    let bytes = w.len as f64 + 2.0 * (ROWS * (w.k + w.n)) as f64;
    p.time("kernels.gemm_mixed", ops, bytes, |ctx| {
        std::hint::black_box(gemm_mixed(ctx, &gemm, w, &act));
    });

    // FP16 flash attention with the LUT exp: one GQA group, one decode row.
    let g = cfg.gqa_group();
    let d = cfg.head_dim;
    let fa = FlashAttention::new(&model.lut, ExpMethod::Lut16, g);
    let shape = AttnShape {
        nq: 1,
        nkv: KV_LEN,
        head_dim: d,
    };
    let (q, k, v) = (f16s(g * d, 2), f16s(KV_LEN * d, 3), f16s(KV_LEN * d, 4));
    let ops = 4.0 * (g * KV_LEN * d) as f64;
    let bytes = 2.0 * (2 * g * d + 2 * KV_LEN * d) as f64;
    p.time("kernels.flash_attention", ops, bytes, |ctx| {
        std::hint::black_box(fa.run(ctx, shape, &q, &k, &v));
    });

    // Row softmax with the LUT exp over a TCM-resident score block.
    let sm = SoftmaxConfig {
        rows: ROWS,
        cols: KV_LEN,
        method: ExpMethod::Lut16,
    };
    let scores: Vec<u8> = f16s(ROWS * KV_LEN, 5)
        .iter()
        .flat_map(|h| h.0.to_le_bytes())
        .collect();
    let data = p
        .ctx
        .tcm_alloc(scores.len() as u32, 128)
        .expect("TCM holds one score block");
    p.ctx.tcm_poke(data, &scores);
    let (ops, bytes) = ((ROWS * KV_LEN) as f64, 4.0 * (ROWS * KV_LEN) as f64);
    p.time("kernels.softmax_rows", ops, bytes, |ctx| {
        ctx.tcm_poke(data, &scores);
        std::hint::black_box(softmax_rows(ctx, &model.lut, sm, data));
    });

    // LUT dequantization of one 256-element INT4 super-block.
    let env = DequantEnv::new(p.ctx);
    let blocks: [BlockQ4_0; 8] = std::array::from_fn(|b| {
        let vals: Vec<f32> = (0..32)
            .map(|i| ((b * 32 + i) as f32 * 0.11).sin())
            .collect();
        BlockQ4_0::quantize(&vals)
    });
    let sb = SuperBlockQ4::from_blocks(&blocks).to_bytes();
    let src = p
        .ctx
        .tcm_alloc(256, 128)
        .expect("TCM holds one super-block");
    let dst = p
        .ctx
        .tcm_alloc(512, 128)
        .expect("TCM holds one dequantized block");
    p.ctx.tcm_poke(src, &sb);
    let bytes = (sb.len() + 512) as f64;
    p.time("kernels.dequant_super_q4_lut", 256.0, bytes, |ctx| {
        dequant_super_q4_lut(ctx, &env, src, dst)
    });

    // One 32x32x32 HMX tile multiply-accumulate.
    let mut tile = [[F16::ZERO; TILE_DIM]; TILE_DIM];
    for (r, row) in tile.iter_mut().enumerate() {
        for (c, v) in row.iter_mut().enumerate() {
            *v = F16::from_f32(((r * 31 + c) % 17) as f32 * 0.25 - 2.0);
        }
    }
    let packed = pack_tile(&tile);
    let a = p
        .ctx
        .tcm_alloc(TILE_BYTES as u32, 2048)
        .expect("TCM holds a tile");
    let b = p
        .ctx
        .tcm_alloc(TILE_BYTES as u32, 2048)
        .expect("TCM holds a tile");
    p.ctx.tcm_poke(a, &packed);
    p.ctx.tcm_poke(b, &packed);
    let ops = 2.0 * (TILE_DIM * TILE_DIM * TILE_DIM) as f64;
    p.time("kernels.hmx_matmul", ops, 2.0 * TILE_BYTES as f64, |ctx| {
        let mut acc = HmxAccumulator::new();
        ctx.hmx_matmul(&mut acc, a, b);
        std::hint::black_box(acc.0[0][0]);
    });
}
