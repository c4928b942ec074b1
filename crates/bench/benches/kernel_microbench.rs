//! Criterion microbenchmarks of the simulator kernels.
//!
//! Unlike the figure/table harnesses (which report *simulated device*
//! latencies), these measure the host-side execution speed of the
//! bit-exact functional paths and of the cost-only paths paper-scale
//! sweeps run — useful when optimizing the simulator itself and as a
//! regression guard for the hot loops.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use edgellm::config::{ModelConfig, ModelId};
use edgellm::kv_cache::KvCache;
use edgellm::model::Model;
use edgellm::overlap::steady_state_step_secs;
use hexsim::f16::F16;
use hexsim::prelude::*;
use htpops::attention::{AttnShape, FlashAttention, KvBlocks};
use htpops::dequant::{dequant_super_q4_lut, DequantEnv};
use htpops::exp_lut::{ExpLut16, ExpMethod};
use htpops::gemm::{gemm_mixed, prepare_weights, DequantVariant, GemmConfig};
use htpops::softmax::{softmax_rows, SoftmaxConfig};
use tilequant::block::BlockQ4_0;
use tilequant::super_group::SuperBlockQ4;
use tilequant::synth::gaussian_matrix;
use tilequant::{QuantScheme, QuantizedMatrix, WeightLayout};

fn bench_f16_conversion(c: &mut Criterion) {
    // The chunked slice converters, the hot path of the CPU lm_head and
    // embedding staging. Scalar `from_f32`/`to_f32` run the same
    // branch-free conversions one element at a time.
    let mut group = c.benchmark_group("f16");
    group.throughput(Throughput::Elements(4096));
    let values: Vec<f32> = (0..4096).map(|i| (i as f32) * 0.37 - 700.0).collect();
    let mut half = vec![F16::ZERO; 4096];
    group.bench_function("from_f32_slice_4096", |b| {
        b.iter(|| {
            F16::from_f32_slice(std::hint::black_box(&values), &mut half);
            half[0].0
        })
    });
    F16::from_f32_slice(&values, &mut half);
    let mut floats = vec![0.0f32; 4096];
    group.bench_function("to_f32_slice_4096", |b| {
        b.iter(|| {
            F16::to_f32_slice(std::hint::black_box(&half), &mut floats);
            floats[0]
        })
    });
    group.finish();
}

fn bench_lut_dequant(c: &mut Criterion) {
    let mut group = c.benchmark_group("dequant");
    group.throughput(Throughput::Elements(256));
    let mut ctx = NpuContext::new(DeviceProfile::v75(), ExecMode::Functional);
    let env = DequantEnv::new(&mut ctx);
    let blocks: [BlockQ4_0; 8] = std::array::from_fn(|g| {
        let vals: Vec<f32> = (0..32)
            .map(|i| ((g * 32 + i) as f32 * 0.11).sin())
            .collect();
        BlockQ4_0::quantize(&vals)
    });
    let sb = SuperBlockQ4::from_blocks(&blocks);
    let src = ctx.tcm_alloc(256, 128).unwrap();
    let dst = ctx.tcm_alloc(512, 128).unwrap();
    ctx.tcm_poke(src, &sb.to_bytes());
    group.bench_function("super_q4_lut_256_elems", |b| {
        b.iter(|| dequant_super_q4_lut(&mut ctx, &env, src, dst))
    });
    group.finish();
}

fn bench_softmax(c: &mut Criterion) {
    let mut group = c.benchmark_group("softmax");
    group.throughput(Throughput::Elements(4 * 1024));
    let mut ctx = NpuContext::new(DeviceProfile::v75(), ExecMode::Functional);
    let lut = ExpLut16::build(&mut ctx).unwrap();
    let data = ctx.tcm_alloc(4 * 1024 * 2, 128).unwrap();
    let mut bytes = vec![0u8; 4 * 1024 * 2];
    for i in 0..4 * 1024 {
        let v = F16::from_f32(-((i % 97) as f32) / 10.0);
        bytes[2 * i..2 * i + 2].copy_from_slice(&v.0.to_le_bytes());
    }
    ctx.tcm_poke(data, &bytes);
    for method in [ExpMethod::F32Poly, ExpMethod::F16Poly, ExpMethod::Lut16] {
        group.bench_function(format!("rows4_cols1024_{method:?}"), |b| {
            b.iter(|| {
                softmax_rows(
                    &mut ctx,
                    &lut,
                    SoftmaxConfig {
                        rows: 4,
                        cols: 1024,
                        method,
                    },
                    data,
                )
            })
        });
    }
    // The pass-2 host lane sum in isolation: per-lane scalar conversion
    // against the chunked slice converter now used by softmax_rows (both
    // bit-identical, pinned by the exhaustive htpops test).
    let vecs: Vec<HvxVec> = (0..64)
        .map(|r| {
            let mut v = HvxVec::zero();
            for lane in 0..HVX_HALVES {
                v.set_hf(
                    lane,
                    F16::from_f32(-((r * HVX_HALVES + lane) as f32 % 97.0) / 10.0),
                );
            }
            v
        })
        .collect();
    group.bench_function("host_lane_sum_scalar_4096", |b| {
        b.iter(|| {
            let mut sum = 0.0f64;
            for v in std::hint::black_box(&vecs) {
                for lane in 0..HVX_HALVES {
                    sum += v.get_hf(lane).to_f32() as f64;
                }
            }
            sum
        })
    });
    group.bench_function("host_lane_sum_chunked_4096", |b| {
        b.iter(|| {
            let mut sum = 0.0f64;
            let mut lanes = [F16::ZERO; HVX_HALVES];
            let mut lanes_f32 = [0.0f32; HVX_HALVES];
            for v in std::hint::black_box(&vecs) {
                for (lane, slot) in lanes.iter_mut().enumerate() {
                    *slot = v.get_hf(lane);
                }
                F16::to_f32_slice(&lanes, &mut lanes_f32);
                for &x in &lanes_f32 {
                    sum += x as f64;
                }
            }
            sum
        })
    });
    group.finish();
}

fn bench_decode_attention(c: &mut Criterion) {
    // The tiny model's decode attention: one GQA group of 2 query heads,
    // one query row, head_dim 32, LUT exp, at two KV lengths. `run` takes
    // FP16 rows and packs them into KV blocks on every call; `run_blocks`
    // reads a history built once, the way the functional KV cache keeps
    // it. Both are bit-identical to the elementwise kernel (pinned by
    // `staged_block_math_is_bit_identical_to_elementwise` in htpops).
    let cfg = ModelConfig::for_id(ModelId::Tiny);
    let (g, d) = (cfg.gqa_group(), cfg.head_dim);
    let mut ctx = NpuContext::new(DeviceProfile::v75(), ExecMode::Functional);
    let lut = ExpLut16::build(&mut ctx).unwrap();
    let fa = FlashAttention::new(&lut, ExpMethod::Lut16, g);
    let f16s = |n: usize, salt: usize| -> Vec<F16> {
        (0..n)
            .map(|i| F16::from_f32((((i * 31 + salt) % 97) as f32) / 48.0 - 1.0))
            .collect()
    };
    let q = f16s(g * d, 2);
    let mut group = c.benchmark_group("decode_attention");
    for nkv in [64, 160] {
        let (k, v) = (f16s(nkv * d, 3), f16s(nkv * d, 4));
        let mut blocks = KvBlocks::new(d);
        for (k_row, v_row) in k.chunks_exact(d).zip(v.chunks_exact(d)) {
            blocks.push(k_row, v_row);
        }
        let shape = AttnShape {
            nq: 1,
            nkv,
            head_dim: d,
        };
        group.throughput(Throughput::Elements((g * nkv * d) as u64));
        group.bench_function(format!("run_fp16_rows_kv{nkv}"), |b| {
            b.iter(|| fa.run(&mut ctx, shape, std::hint::black_box(&q), &k, &v).0[0].0)
        });
        group.bench_function(format!("run_blocks_kv{nkv}"), |b| {
            b.iter(|| {
                let q = std::hint::black_box(&q);
                fa.run_blocks(&mut ctx, shape, q, &blocks, None).0[0].0
            })
        });
    }
    group.finish();
}

fn bench_lm_head_row(c: &mut Criterion) {
    // One lm_head row: hidden state against a vocabulary slice — scalar
    // per-element conversion vs the hoisted chunked conversion (convert
    // the hidden state once, dot in f32; `to_f32` is exact so both
    // accumulate identically), and the transposed layout the model uses.
    let mut group = c.benchmark_group("lm_head");
    let (hidden, vocab) = (256usize, 512usize);
    group.throughput(Throughput::Elements((hidden * vocab) as u64));
    let x: Vec<F16> = (0..hidden)
        .map(|i| F16::from_f32(((i % 61) as f32) / 30.0 - 1.0))
        .collect();
    let w: Vec<f32> = (0..hidden * vocab)
        .map(|i| ((i % 103) as f32) / 51.0 - 1.0)
        .collect();
    group.bench_function("row_scalar_h256_v512", |b| {
        b.iter(|| {
            let mut acc = 0.0f32;
            for v in 0..vocab {
                let row = &w[v * hidden..(v + 1) * hidden];
                let mut dot = 0.0f32;
                for (h, wv) in std::hint::black_box(&x).iter().zip(row) {
                    dot += h.to_f32() * wv;
                }
                acc += dot;
            }
            acc
        })
    });
    group.bench_function("row_staged_h256_v512", |b| {
        b.iter(|| {
            let xf = F16::vec_to_f32(std::hint::black_box(&x));
            let mut acc = 0.0f32;
            for v in 0..vocab {
                let row = &w[v * hidden..(v + 1) * hidden];
                let mut dot = 0.0f32;
                for (h, wv) in xf.iter().zip(row) {
                    dot += h * wv;
                }
                acc += dot;
            }
            acc
        })
    });
    // The layout the model reads: the matrix transposed to
    // `[hidden][vocab]` once, so each hidden element adds one product to
    // every logit across contiguous lanes (same per-logit order).
    let mut wt = vec![0.0f32; hidden * vocab];
    for (v, row) in w.chunks_exact(hidden).enumerate() {
        for (h, &wv) in row.iter().enumerate() {
            wt[h * vocab + v] = wv;
        }
    }
    group.bench_function("row_transposed_h256_v512", |b| {
        b.iter(|| {
            let xf = F16::vec_to_f32(std::hint::black_box(&x));
            let mut logits = vec![0.0f32; vocab];
            for (&h, col) in xf.iter().zip(wt.chunks_exact(vocab)) {
                for (logit, &wv) in logits.iter_mut().zip(col) {
                    *logit += h * wv;
                }
            }
            logits.iter().sum::<f32>()
        })
    });
    group.finish();
}

fn bench_verify_argmax(c: &mut Criterion) {
    // The speculative-decode verify host loop: one argmax per drafted row
    // over the full vocabulary. Scalar reference against the chunked
    // NEG_INFINITY-sentinel scan `ttscale::spec_decode::argmax` actually
    // uses (bit-identical tie-breaking, pinned by the elementwise
    // differential tests in spec_decode) — the same scalar-vs-chunked pin
    // pattern as the lm_head group above.
    use ttscale::spec_decode::{argmax, argmax_scalar};
    let mut group = c.benchmark_group("verify_argmax");
    let (rows, vocab) = (4usize, 8192usize);
    group.throughput(Throughput::Elements((rows * vocab) as u64));
    let logits: Vec<Vec<f32>> = (0..rows)
        .map(|r| {
            (0..vocab)
                .map(|i| (((r * vocab + i) % 211) as f32) / 7.0 - 15.0)
                .collect()
        })
        .collect();
    for row in &logits {
        assert_eq!(argmax(row), argmax_scalar(row));
    }
    group.bench_function("rows4_scalar_v8192", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for row in std::hint::black_box(&logits) {
                acc = acc.wrapping_add(argmax_scalar(row));
            }
            acc
        })
    });
    group.bench_function("rows4_chunked_v8192", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for row in std::hint::black_box(&logits) {
                acc = acc.wrapping_add(argmax(row));
            }
            acc
        })
    });
    group.finish();
}

fn bench_gemm(c: &mut Criterion) {
    // The tiny model's Q projection through the functional `gemm_mixed`,
    // at one decode row and at a 16-row batch. Warm calls reuse one
    // `PreparedWeights`, so every weight tile comes from its memo; cold
    // calls prepare the weights afresh each iteration, so every tile
    // dequantizes in full.
    let cfg = ModelConfig::for_id(ModelId::Tiny);
    let (k, n) = (cfg.hidden, cfg.q_dim());
    let w = gaussian_matrix(k, n, 3, 1.0 / (k as f32).sqrt(), 0.0);
    let qm = QuantizedMatrix::quantize(&w, k, n, QuantScheme::Q4_0, WeightLayout::HmxTileGroups);
    let variant = DequantVariant::CoalescedLut;
    let mut ctx = NpuContext::new(DeviceProfile::v75(), ExecMode::Functional);
    let warm = prepare_weights(&mut ctx, &qm, variant).unwrap();
    let mut group = c.benchmark_group("gemm");
    for m in [1, 16] {
        let gemm = GemmConfig {
            m,
            k,
            n,
            scheme: qm.scheme,
            variant,
            threads: 6,
        };
        let act: Vec<F16> = (0..m * k)
            .map(|i| F16::from_f32(((i % 37) as f32) / 18.0 - 1.0))
            .collect();
        group.throughput(Throughput::Elements((m * k * n) as u64));
        group.bench_function(format!("q_proj_m{m}_warm"), |b| {
            b.iter(|| gemm_mixed(&mut ctx, &gemm, &warm, std::hint::black_box(&act)).out[0].0)
        });
        group.bench_function(format!("q_proj_m{m}_cold"), |b| {
            b.iter(|| {
                let cold = prepare_weights(&mut ctx, &qm, variant).unwrap();
                let out = gemm_mixed(&mut ctx, &gemm, &cold, std::hint::black_box(&act)).out[0].0;
                ctx.ddr_free(cold.buf);
                out
            })
        });
    }
    group.finish();
}

fn bench_cost_only(c: &mut Criterion) {
    // Paper-scale kernels in a cost-only V75 context, which charges every
    // instruction and computes no lanes: Qwen-1.5B's Q projection at one
    // decode row and at a 16-row batch, one decode row's attention over a
    // 300-position history (the empty one a cost-only cache hands it), one
    // causal 256-row prefill attention call, the steady-state schedule of a
    // recorded batch-8 decode step, and one whole batch-16 decode step
    // whose slots each stay at a 300-token history.
    let cfg = ModelConfig::for_id(ModelId::Qwen1_5B);
    let variant = DequantVariant::CoalescedLut;
    let mut ctx = NpuContext::new(DeviceProfile::v75(), ExecMode::CostOnly);
    let qm = QuantizedMatrix {
        k: cfg.hidden,
        n: cfg.q_dim(),
        scheme: QuantScheme::Q4_0,
        layout: variant.required_layout(),
        bytes: Vec::new(),
    };
    let wq = prepare_weights(&mut ctx, &qm, variant).unwrap();
    let mut group = c.benchmark_group("cost_only");
    for m in [1, 16] {
        let gemm = GemmConfig {
            m,
            k: qm.k,
            n: qm.n,
            scheme: qm.scheme,
            variant,
            threads: 6,
        };
        group.bench_function(format!("qwen1_5b_q_proj_m{m}"), |b| {
            b.iter(|| {
                gemm_mixed(&mut ctx, std::hint::black_box(&gemm), &wq, &[])
                    .cost
                    .wall_secs
            })
        });
    }
    let lut = ExpLut16::build(&mut ctx).unwrap();
    let fa = FlashAttention::new(&lut, ExpMethod::Lut16, cfg.gqa_group());
    let shape = AttnShape {
        nq: 1,
        nkv: 300,
        head_dim: cfg.head_dim,
    };
    let history = KvBlocks::new(cfg.head_dim);
    group.bench_function("qwen1_5b_decode_attention_kv300", |b| {
        b.iter(|| {
            let shape = std::hint::black_box(shape);
            fa.run_blocks(&mut ctx, shape, &[], &history, None)
                .1
                .total_wall()
        })
    });
    let prefill_shape = AttnShape {
        nq: 256,
        nkv: 256,
        head_dim: cfg.head_dim,
    };
    group.bench_function("qwen1_5b_prefill_attention_256", |b| {
        b.iter(|| {
            let shape = std::hint::black_box(prefill_shape);
            fa.run_blocks(&mut ctx, shape, &[], &history, Some(0))
                .1
                .total_wall()
        })
    });
    let model = Model::new(&mut ctx, ModelId::Qwen1_5B, variant, 7).unwrap();
    let mut cache = KvCache::new(&mut ctx, &cfg, 8, 8 * 320).unwrap();
    model.prefill(&mut ctx, &mut cache, 0, &[1; 256]).unwrap();
    cache.broadcast_prompt();
    let stages = model
        .decode_step(&mut ctx, &mut cache, &[1; 8])
        .unwrap()
        .stages;
    group.bench_function("qwen1_5b_b8_steady_state_step", |b| {
        b.iter(|| steady_state_step_secs(std::hint::black_box(&stages)))
    });
    cache.free(&mut ctx);
    let mut cache = KvCache::new(&mut ctx, &cfg, 16, 16 * 301).unwrap();
    model.prefill(&mut ctx, &mut cache, 0, &[1; 300]).unwrap();
    cache.broadcast_prompt();
    group.bench_function("qwen1_5b_decode_step_b16", |b| {
        b.iter(|| {
            let out = model.decode_step(&mut ctx, &mut cache, &[1; 16]).unwrap();
            for slot in 0..16 {
                cache.truncate_seq(slot, 300);
            }
            out.cost.overlapped_secs
        })
    });
    group.finish();
}

fn bench_hmx_tile(c: &mut Criterion) {
    let mut group = c.benchmark_group("hmx");
    group.throughput(Throughput::Elements(32 * 32 * 32));
    let mut ctx = NpuContext::new(DeviceProfile::v75(), ExecMode::Functional);
    let act = ctx.tcm_alloc(2048, 2048).unwrap();
    let wgt = ctx.tcm_alloc(2048, 2048).unwrap();
    let mut tile = [[F16::ZERO; 32]; 32];
    for (r, row) in tile.iter_mut().enumerate() {
        for (cc, v) in row.iter_mut().enumerate() {
            *v = F16::from_f32(((r * 31 + cc) % 17) as f32 * 0.25 - 2.0);
        }
    }
    let packed = hexsim::hmx::pack_tile(&tile);
    ctx.tcm_poke(act, &packed);
    ctx.tcm_poke(wgt, &packed);
    group.bench_function("tile_matmul_32x32x32", |b| {
        b.iter(|| {
            let mut acc = hexsim::hmx::HmxAccumulator::new();
            ctx.hmx_matmul(&mut acc, act, wgt);
            acc.0[0][0]
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).warm_up_time(std::time::Duration::from_millis(300)).measurement_time(std::time::Duration::from_secs(1));
    targets = bench_f16_conversion, bench_lut_dequant, bench_softmax, bench_decode_attention, bench_lm_head_row, bench_verify_argmax, bench_gemm, bench_cost_only, bench_hmx_tile
}
criterion_main!(benches);
