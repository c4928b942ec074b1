//! One row-generator per paper table and figure.
//!
//! Every public `*_rows()` function regenerates the data behind one exhibit
//! of the paper's evaluation (Section 7); Figure 10's panels come from
//! [`crate::pareto::pareto_panel`]. The `paper_figures` example prints
//! these rows, and CI diffs its output against the committed copy in
//! `tests/stdout/`. Where a quantity cannot be measured without the real
//! hardware or checkpoints, the row carries a *measured proxy* (weight
//! RMSE, logit divergence) plus its calibrated mapping — never a bare
//! constant.

use edgellm::config::{ModelConfig, ModelId};
use edgellm::ppl::{mean_kl, perplexity_float};
use edgellm::weights::{LayerFloatWeights, ModelWeights};
use hexsim::cost::Engine;
use hexsim::f16::F16;
use hexsim::prelude::*;
use htpops::exp_lut::{ExpLut16, ExpMethod};
use htpops::gemm::{gemm_mixed, prepare_weights, DequantVariant, GemmConfig};
use htpops::softmax::{softmax_rows, SoftmaxConfig};
use mathsynth::choice::{evaluate as choice_eval, generate_items, ChoiceKind};
use mathsynth::mathgen::{DatasetKind, TaskGenerator};
use tilequant::channel::PerChannelQ4;
use tilequant::metrics::QuantError;
use tilequant::synth::{activation_amax, gaussian_matrix};
use tilequant::{QuantScheme, QuantizedMatrix, WeightLayout};
use ttscale::best_of_n;
use ttscale::calib::{quant_capability, quant_skill_penalty};
use ttscale::policy::CalibratedPolicy;
use ttscale::verifier::SimOrm;

use crate::backend::Backend;
use crate::memory::{measure_overhead, OverheadPoint};
use crate::pipeline::{DecodePoint, Deployment, DispatchMode, PrefillPoint};
use crate::power::{PowerModel, PowerPoint};
use crate::serve::{
    poisson_trace, FleetGateway, FleetSpec, GatewayConfig, Request, ServingReport, TenantSpec,
    ThermalPolicy,
};
use crate::session::ShardPlan;
use crate::spec::SpecDecodePoint;
use crate::thermal::{sustained_decode_curve, SustainedCurve};

// ---------------------------------------------------------------------
// Table 1 — per-group (AWQ) vs per-channel (QNN) W4A16 accuracy.
// ---------------------------------------------------------------------

/// One Table 1 row.
#[derive(Clone, Debug)]
pub struct Table1Row {
    /// Quantization scheme label.
    pub scheme: String,
    /// Measured relative weight RMSE on outlier-bearing synthetic weights.
    pub weight_rmse_rel: f64,
    /// Derived capability multiplier.
    pub capability: f64,
    /// MATH500-like accuracy (percent); paper: AWQ 15.9, QNN 2.1.
    pub math500_pct: f64,
    /// GSM8K-like accuracy (percent); paper: AWQ 32.6, QNN 3.4.
    pub gsm8k_pct: f64,
    /// Logit KL divergence vs the F16 model, measured functionally on the
    /// instrument model (the ordering instrument behind the PPL column).
    pub logit_kl: f64,
    /// Wikitext perplexity *mapped* from the measured RMSE through the
    /// paper's two anchors (AWQ 19.42, QNN 28.99).
    pub wiki_ppl_mapped: f64,
}

/// `(matrix, k, n) -> transformed matrix` weight transform.
type MatTransform = dyn Fn(&[f32], usize, usize) -> Vec<f32>;

/// Quantizes every matrix of a float layer set with a transform.
fn map_layers(
    layers: &[LayerFloatWeights],
    cfg: &ModelConfig,
    f: &MatTransform,
) -> Vec<LayerFloatWeights> {
    layers
        .iter()
        .map(|lw| LayerFloatWeights {
            wq: f(&lw.wq, cfg.hidden, cfg.q_dim()),
            wk: f(&lw.wk, cfg.hidden, cfg.kv_dim()),
            wv: f(&lw.wv, cfg.hidden, cfg.kv_dim()),
            wo: f(&lw.wo, cfg.q_dim(), cfg.hidden),
            w_gate: f(&lw.w_gate, cfg.hidden, cfg.ffn),
            w_up: f(&lw.w_up, cfg.hidden, cfg.ffn),
            w_down: f(&lw.w_down, cfg.ffn, cfg.hidden),
        })
        .collect()
}

/// Synthetic PPL stream for tiny-model perplexity.
fn ppl_stream(len: usize) -> Vec<u32> {
    (0..len)
        .map(|i| 4 + ((i * 37 + i * i * 11) % 200) as u32)
        .collect()
}

/// Functional model used as the perplexity instrument: wide enough (hidden
/// 256) that per-channel quantization scales cover many rows, so outlier
/// dilution shows up the way it does at full scale.
fn ppl_instrument_config() -> ModelConfig {
    let mut cfg = ModelConfig::for_id(ModelId::Tiny);
    cfg.hidden = 256;
    cfg.heads = 4;
    cfg.kv_heads = 2;
    cfg.head_dim = 64;
    cfg.ffn = 512;
    cfg
}

/// Regenerates Table 1.
pub fn table1_rows(seed: u64) -> Vec<Table1Row> {
    // Representative layer-scale weight sample with the outlier channels
    // that break coarse quantization (see tilequant::synth).
    let (k, n) = (512, 512);
    let w = gaussian_matrix(k, n, seed, 1.0, 0.02);
    let std = (w.iter().map(|v| (v * v) as f64).sum::<f64>() / w.len() as f64).sqrt();
    let act = activation_amax(k, seed, 4.0);

    // AWQ-style group quantization.
    let awq = tilequant::awq::awq_quantize(&w, k, n, &act, QuantScheme::Q4_0);
    let r_awq = QuantError::measure(&w, &awq.dequantized).rmse / std;
    // QNN-style per-channel quantization.
    let pc = PerChannelQ4::quantize(&w, k, n).dequantize();
    let r_pc = QuantError::measure(&w, &pc).rmse / std;

    // Logit-divergence instrument: a wider-than-tiny functional model
    // (hidden 256) whose per-channel scales span enough rows for outliers
    // to dilute them. The KL of each variant's logits against the F16
    // model's orders the schemes by real forward-pass damage.
    let tiny = ppl_instrument_config();
    let (float_layers, embed) = ModelWeights::generate_float_with_outliers(&tiny, seed, 0.02);
    let stream = ppl_stream(48);
    let base_logits = edgellm::cpu_ref::forward_float(&tiny, &float_layers, &embed, &stream);
    let group_layers = map_layers(&float_layers, &tiny, &|m, kk, nn| {
        QuantizedMatrix::quantize(
            m,
            kk,
            nn,
            QuantScheme::Q4_0,
            WeightLayout::ColumnMajorGroups,
        )
        .dequantize()
    });
    let channel_layers = map_layers(&float_layers, &tiny, &|m, kk, nn| {
        PerChannelQ4::quantize(m, kk, nn).dequantize()
    });
    let kl_group = mean_kl(
        &base_logits,
        &edgellm::cpu_ref::forward_float(&tiny, &group_layers, &embed, &stream),
        tiny.vocab,
    );
    let kl_channel = mean_kl(
        &base_logits,
        &edgellm::cpu_ref::forward_float(&tiny, &channel_layers, &embed, &stream),
        tiny.vocab,
    );

    // PPL mapping through the paper's anchors: ppl(r) = A * exp(B * r)
    // with (r_awq, 19.42) and (r_pc, 28.99).
    let b = (28.99f64 / 19.42).ln() / (r_pc - r_awq);
    let a = 19.42 / (b * r_awq).exp();
    let mapped_ppl = |r: f64| a * (b * r).exp();

    let tasks_math = TaskGenerator::new(DatasetKind::Math500Like, seed).take(400);
    let tasks_gsm = TaskGenerator::new(DatasetKind::Gsm8kLike, seed).take(400);
    let orm = SimOrm::default();
    let row = |label: &str, r: f64, kl: f64| {
        let cap = quant_capability(r);
        let penalty = quant_skill_penalty(r);
        let policy = |ds| CalibratedPolicy::new(ModelId::Llama1B, ds).with_skill_penalty(penalty);
        Table1Row {
            scheme: label.to_string(),
            weight_rmse_rel: r,
            capability: cap,
            math500_pct: best_of_n::accuracy_over_tasks(
                &policy(DatasetKind::Math500Like),
                &orm,
                &tasks_math,
                1,
                seed,
            ),
            gsm8k_pct: best_of_n::accuracy_over_tasks(
                &policy(DatasetKind::Gsm8kLike),
                &orm,
                &tasks_gsm,
                1,
                seed,
            ),
            logit_kl: kl,
            wiki_ppl_mapped: mapped_ppl(r),
        }
    };
    vec![
        row("AutoAWQ (W4A16, group)", r_awq, kl_group),
        row("QNN (W4A16, per-channel)", r_pc, kl_channel),
    ]
}

// ---------------------------------------------------------------------
// Table 2 — HVX vs HMX unit performance.
// ---------------------------------------------------------------------

/// One Table 2 row.
#[derive(Clone, Debug)]
pub struct Table2Row {
    /// Hardware unit label.
    pub unit: String,
    /// FP16 GEMM throughput in GFLOPS (1024^3 GEMM resident in TCM).
    pub gemm_gflops: f64,
    /// Memory read bandwidth in GB/s.
    pub read_bw_gbs: f64,
}

/// Regenerates Table 2 by timing the simulator's engines on the paper's
/// microbenchmarks.
pub fn table2_rows() -> Vec<Table2Row> {
    let device = DeviceProfile::v75();
    let mut ctx = NpuContext::new(device.clone(), ExecMode::CostOnly);

    // HMX: 1024^3 FP16 GEMM = 32768 tile-ops.
    let flops = 2.0 * 1024f64.powi(3);
    let snap = ctx.cost.snapshot();
    ctx.hmx_charge(32 * 32 * 32);
    let hmx_secs = ctx.cost.delta_since(&snap, "").engine(Engine::Hmx);
    let hmx_gflops = flops / hmx_secs / 1e9;

    // HVX single thread: the calibrated measured constant (the simulator's
    // vector-GEMM model is anchored on it).
    let hvx_gflops = device.hvx_thread_gemm_flops / 1e9;

    // DMA bandwidth: time a 64 MiB transfer.
    let buf = ctx.ddr_alloc(64 * 1024 * 1024).unwrap();
    let t = ctx.tcm_alloc(4096, 128).unwrap();
    let snap = ctx.cost.snapshot();
    for chunk in 0..(64 * 1024 * 1024 / 4096) as u64 {
        let _ = chunk;
        ctx.dma_h2t(buf, 0, t, 4096);
    }
    let dma_secs = ctx.cost.delta_since(&snap, "").engine(Engine::Dma);
    let dma_bw = 64.0 * 1024.0 * 1024.0 / dma_secs / 1e9;

    // HVX core-path load bandwidth: stream 64 MiB of register loads.
    let snap = ctx.cost.snapshot();
    for i in 0..(64 * 1024 * 1024 / 128) as u64 {
        let _ = ctx.vmem_ld_ddr(buf, (i % 1000) * 128);
    }
    let hvx_secs = ctx.cost.delta_since(&snap, "").engine(Engine::Hvx);
    let hvx_bw = 64.0 * 1024.0 * 1024.0 / hvx_secs / 1e9;

    vec![
        Table2Row {
            unit: "HVX (1 thread)".to_string(),
            gemm_gflops: hvx_gflops,
            read_bw_gbs: hvx_bw,
        },
        Table2Row {
            unit: "HMX".to_string(),
            gemm_gflops: hmx_gflops,
            read_bw_gbs: dma_bw,
        },
    ]
}

// ---------------------------------------------------------------------
// Figure 5 — Best-of-N scaling with generation budget.
// ---------------------------------------------------------------------

/// One Figure 5 point.
#[derive(Clone, Debug)]
pub struct Fig5Row {
    /// Model label.
    pub model: String,
    /// Generation budget (max batch).
    pub budget: usize,
    /// MATH500-like accuracy, percent.
    pub accuracy_pct: f64,
}

/// Regenerates Figure 5 (budgets 1-16, Llama3.2-1B and Qwen2.5-1.5B).
pub fn fig5_rows(seed: u64) -> Vec<Fig5Row> {
    let tasks = TaskGenerator::new(DatasetKind::Math500Like, seed).take(500);
    let orm = SimOrm::default();
    let mut out = Vec::new();
    for model in [ModelId::Llama1B, ModelId::Qwen1_5B] {
        let policy = CalibratedPolicy::new(model, DatasetKind::Math500Like);
        for budget in [1usize, 2, 4, 6, 8, 12, 16] {
            out.push(Fig5Row {
                model: ModelConfig::for_id(model).name.to_string(),
                budget,
                accuracy_pct: best_of_n::accuracy_over_tasks(&policy, &orm, &tasks, budget, seed),
            });
        }
    }
    out
}

// ---------------------------------------------------------------------
// Figure 8 — FlashAttention latency breakdown.
// ---------------------------------------------------------------------

/// One Figure 8 bar.
#[derive(Clone, Debug)]
pub struct Fig8Row {
    /// Query length (decode batch).
    pub q_len: usize,
    /// "QKVO Load/Store" share, percent.
    pub load_store_pct: f64,
    /// "MatMul" share, percent.
    pub matmul_pct: f64,
    /// "Softmax" share, percent.
    pub softmax_pct: f64,
}

/// Regenerates Figure 8 (Qwen2.5-1.5B geometry, prompt 4096).
pub fn fig8_rows() -> Vec<Fig8Row> {
    let mut ctx = NpuContext::new(DeviceProfile::v75(), ExecMode::CostOnly);
    let lut = ExpLut16::build(&mut ctx).unwrap();
    let cfg = ModelConfig::for_id(ModelId::Qwen1_5B);
    let fa = htpops::attention::FlashAttention::new(&lut, ExpMethod::Lut16, cfg.gqa_group());
    [4usize, 8, 16, 32]
        .iter()
        .map(|&q| {
            let shape = htpops::attention::AttnShape {
                nq: q,
                nkv: 4096,
                head_dim: cfg.head_dim,
            };
            let (_, bd) = fa.run(&mut ctx, shape, &[], &[], &[]);
            let s = bd.shares();
            Fig8Row {
                q_len: q,
                load_store_pct: s[0],
                matmul_pct: s[1],
                softmax_pct: s[2],
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figure 11 — decode throughput vs batch across devices.
// ---------------------------------------------------------------------

/// One Figure 11 point.
#[derive(Clone, Debug)]
pub struct Fig11Row {
    /// Device SoC label.
    pub device: String,
    /// Model label.
    pub model: String,
    /// Batch size.
    pub batch: usize,
    /// Decode throughput, tokens/second (`None` when the model cannot map
    /// on the device — the 8G2/3B gate).
    pub tokens_per_sec: Option<f64>,
}

/// Regenerates Figure 11 (context 1024): serial decode in the paper's
/// single-session deployment, empty where the VA gate refuses the model.
pub fn fig11_rows() -> Vec<Fig11Row> {
    let mut out = Vec::new();
    for device in DeviceProfile::all() {
        for model in ModelId::on_device() {
            let cfg = ModelConfig::for_id(model);
            for batch in [1usize, 2, 4, 6, 8, 12, 16] {
                let tps = ShardPlan::single_session(&cfg, device.session_va_bytes, batch, 1024)
                    .and_then(|plan| Deployment::new(&device, model, &plan, DispatchMode::Serial))
                    .and_then(|dep| dep.decode(batch, 1024))
                    .ok()
                    .map(|p| p.tokens_per_sec);
                out.push(Fig11Row {
                    device: device.arch.soc_label().to_string(),
                    model: model.label().to_string(),
                    batch,
                    tokens_per_sec: tps,
                });
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// Figure 12 — power and energy.
// ---------------------------------------------------------------------

/// Regenerates Figure 12 (OnePlus 12, performance mode): serial decode
/// in the paper's single-session deployment.
pub fn fig12_rows() -> Vec<PowerPoint> {
    let device = DeviceProfile::v75();
    let pm = PowerModel::new(device.clone());
    let mut out = Vec::new();
    for model in [ModelId::Qwen1_5B, ModelId::Qwen3B] {
        let cfg = ModelConfig::for_id(model);
        for batch in [1usize, 2, 4, 8, 16] {
            let point = ShardPlan::single_session(&cfg, device.session_va_bytes, batch, 1024)
                .and_then(|plan| Deployment::new(&device, model, &plan, DispatchMode::Serial))
                .and_then(|dep| dep.decode(batch, 1024));
            if let Ok(point) = point {
                out.push(pm.measure(&point));
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// Figure 13 — comparison with GPU and QNN baselines.
// ---------------------------------------------------------------------

/// Regenerates Figure 13's decode panels over a backend set
/// (conventionally the serial [`crate::backend::NpuSimBackend`] followed
/// by the GPU and QNN [`crate::backend::baselines`]): one
/// `(Backend::name(), point)` pair per model, batch and backend, at
/// context 1024. Configurations a backend cannot run — the VA gate,
/// QNN's batch-1 static graphs — are skipped, exactly as they are absent
/// from the paper's plot.
pub fn fig13_decode_rows(backends: &[Box<dyn Backend>]) -> Vec<(&'static str, DecodePoint)> {
    let mut out = Vec::new();
    for model in [ModelId::Qwen1_5B, ModelId::Qwen3B] {
        for batch in [1usize, 2, 4, 8, 16] {
            for b in backends {
                if let Ok(p) = b.decode(model, batch, 1024) {
                    out.push((b.name(), p));
                }
            }
        }
    }
    out
}

/// Regenerates Figure 13's prefill panels over a backend set: one
/// `(Backend::name(), point)` pair per model, prompt length and backend.
pub fn fig13_prefill_rows(backends: &[Box<dyn Backend>]) -> Vec<(&'static str, PrefillPoint)> {
    let mut out = Vec::new();
    for model in [ModelId::Qwen1_5B, ModelId::Qwen3B] {
        for prompt in [128usize, 256, 512, 1024, 2048] {
            for b in backends {
                if let Ok(p) = b.prefill(model, prompt) {
                    out.push((b.name(), p));
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// Figure 14 — softmax exponential ablation.
// ---------------------------------------------------------------------

/// One Figure 14 point.
#[derive(Clone, Debug)]
pub struct Fig14Row {
    /// KV length.
    pub nkv: usize,
    /// Query length.
    pub nq: usize,
    /// Exp method label.
    pub method: String,
    /// On-chip softmax latency in microseconds.
    pub latency_us: f64,
    /// Speedup of LUT16 over this method (1.0 for LUT16 itself).
    pub lut_speedup: f64,
}

/// Regenerates Figure 14 (on-chip softmax latency per exp method).
pub fn fig14_rows() -> Vec<Fig14Row> {
    let mut ctx = NpuContext::new(DeviceProfile::v75(), ExecMode::CostOnly);
    let lut = ExpLut16::build(&mut ctx).unwrap();
    let data = ctx.tcm_alloc(128 * 1024, 128).unwrap();
    let mut out = Vec::new();
    for &nkv in &[1024usize, 4096, 16384] {
        for &nq in &[1usize, 4, 16] {
            let mut lat = |method| {
                softmax_rows(
                    &mut ctx,
                    &lut,
                    SoftmaxConfig {
                        rows: nq,
                        cols: nkv,
                        method,
                    },
                    data,
                )
                .wall_secs
                    * 1e6
            };
            let t32 = lat(ExpMethod::F32Poly);
            let t16 = lat(ExpMethod::F16Poly);
            let tlut = lat(ExpMethod::Lut16);
            for (m, t) in [
                (ExpMethod::F32Poly, t32),
                (ExpMethod::F16Poly, t16),
                (ExpMethod::Lut16, tlut),
            ] {
                out.push(Fig14Row {
                    nkv,
                    nq,
                    method: m.label().to_string(),
                    latency_us: t,
                    lut_speedup: t / tlut,
                });
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// Figure 15 — dequantization GEMV ablation.
// ---------------------------------------------------------------------

/// One Figure 15 point.
#[derive(Clone, Debug)]
pub struct Fig15Row {
    /// Weight matrix configuration label ("1536*8960, Q4").
    pub config: String,
    /// Variant label (Figure 15 legend).
    pub variant: String,
    /// GEMV latency in microseconds.
    pub latency_us: f64,
    /// Speedup of "ours" over this variant.
    pub ours_speedup: f64,
}

/// The paper's eleven weight configurations.
fn fig15_matrix_configs() -> Vec<(usize, usize, QuantScheme)> {
    vec![
        (1536, 1536, QuantScheme::Q4_0),
        (1536, 8960, QuantScheme::Q4_0),
        (8960, 1536, QuantScheme::Q8_0),
        (2048, 2048, QuantScheme::Q4_0),
        (2048, 8192, QuantScheme::Q4_0),
        (8192, 2048, QuantScheme::Q8_0),
        (2048, 11008, QuantScheme::Q4_0),
        (11008, 2048, QuantScheme::Q8_0),
        (3072, 3072, QuantScheme::Q4_0),
        (3072, 8192, QuantScheme::Q4_0),
        (8192, 3072, QuantScheme::Q8_0),
    ]
}

/// Regenerates Figure 15 (GEMV latency per dequantization arm).
pub fn fig15_rows() -> Vec<Fig15Row> {
    let mut ctx = NpuContext::new(DeviceProfile::v75(), ExecMode::CostOnly);
    let mut out = Vec::new();
    for (k, n, scheme) in fig15_matrix_configs() {
        let mut wall = |variant| {
            let qm = QuantizedMatrix {
                k,
                n,
                scheme,
                layout: DequantVariant::required_layout(variant),
                bytes: Vec::new(),
            };
            let prepared = prepare_weights(&mut ctx, &qm, variant).unwrap();
            let cfg = GemmConfig {
                m: 1,
                k,
                n,
                scheme,
                variant,
                threads: 6,
            };
            let r = gemm_mixed(&mut ctx, &cfg, &prepared, &[]);
            ctx.ddr_free(prepared.buf);
            r.cost.wall_secs * 1e6
        };
        let t_base = wall(DequantVariant::BaselineScatter);
        let t_hmx = wall(DequantVariant::HmxLayoutNaive);
        let t_ours = wall(DequantVariant::CoalescedLut);
        let t_bound = wall(DequantVariant::NoDequantBound);
        let label = format!(
            "{k}*{n}, {}",
            if scheme == QuantScheme::Q4_0 {
                "Q4"
            } else {
                "Q8"
            }
        );
        for (variant, t) in [
            ("baseline", t_base),
            ("w/ HMX layout", t_hmx),
            ("ours", t_ours),
            ("no dequant.", t_bound),
        ] {
            out.push(Fig15Row {
                config: label.clone(),
                variant: variant.to_string(),
                latency_us: t,
                ours_speedup: t / t_ours,
            });
        }
    }
    out
}

// ---------------------------------------------------------------------
// Figure 16 — CPU/memory overhead.
// ---------------------------------------------------------------------

/// Regenerates Figure 16 (decode-stage CPU memory and utilization) over a
/// backend set (conventionally the serial
/// [`crate::backend::NpuSimBackend`] alone). The
/// overhead model describes *our* runtime's CPU/dmabuf placement, so
/// analytic points without engine activity are skipped rather than
/// fabricated.
pub fn fig16_rows(backends: &[Box<dyn Backend>]) -> Vec<OverheadPoint> {
    let mut out = Vec::new();
    for b in backends {
        for model in [ModelId::Qwen1_5B, ModelId::Qwen3B] {
            for batch in [1usize, 2, 4, 8, 16] {
                if let Ok(p) = b.decode(model, batch, 1024) {
                    if p.has_engine_activity() {
                        out.push(measure_overhead(model, &p, 4096, b.name()));
                    }
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// Overlap extension — serial vs. async-dispatch decode (Section 7.2.2).
// ---------------------------------------------------------------------

/// Measures serial vs. overlap-aware decode across the three Snapdragon
/// generations: Qwen2.5-1.5B at batches 1/8/16 everywhere, plus the
/// sharded Qwen-7B deployment (where the session switches are on the
/// line). Returns one `[serial, overlapped]` pair per configuration: the
/// rows behind the `BENCH_decode.json` artifact, whose speedup is the
/// overlapped throughput over the serial one (>= 1 by construction: the
/// critical path never exceeds the serial stage sum). CI regenerates
/// these rows each push and fails if any overlapped point regresses above
/// its serial baseline.
pub fn decode_overlap_rows() -> Vec<[DecodePoint; 2]> {
    let mut out = Vec::new();
    for device in DeviceProfile::all() {
        let [serial, overlapped, _] = crate::backend::NpuSimBackend::variants(&device);
        let mut push = |model: ModelId, batch: usize, ctx_len: usize| {
            // Two independent measurements on purpose: one Overlapped run's
            // StepCost carries both views, but the regression gate is only
            // meaningful when serial goes through its own full pipeline —
            // comparing a number against itself would always pass.
            if let (Ok(s), Ok(o)) = (
                serial.decode(model, batch, ctx_len),
                overlapped.decode(model, batch, ctx_len),
            ) {
                out.push([s, o]);
            }
        };
        for batch in [1usize, 8, 16] {
            push(ModelId::Qwen1_5B, batch, 1024);
        }
        push(ModelId::Qwen7B, 8, 1024);
    }
    out
}

// ---------------------------------------------------------------------
// Streaming extension — resident vs. weight-streamed decode.
// ---------------------------------------------------------------------

/// One resident-vs-streamed decode comparison point (the streaming rows
/// of the `BENCH_decode.json` artifact). Both sides run overlap-aware
/// dispatch, so the row isolates the *placement* change: hot/cold weight
/// hierarchy with DMA-lane prefetch versus everything resident.
#[derive(Clone, Debug)]
pub struct DecodeStreamRow {
    /// Device SoC label.
    pub device: String,
    /// Model label.
    pub model: String,
    /// Decode batch size.
    pub batch: usize,
    /// Context length per sequence.
    pub ctx_len: usize,
    /// Whether the fully resident plan runs at all on this device (a
    /// `false` here is the streaming headline: the deployment exceeds the
    /// session cap resident but decodes streamed).
    pub resident_runs: bool,
    /// Resident decode throughput, tokens/second (0 when it cannot run).
    pub resident_tps: f64,
    /// Sessions the resident plan occupies (0 when it cannot run).
    pub resident_sessions: usize,
    /// Streamed decode throughput, tokens/second.
    pub streamed_tps: f64,
    /// Sessions the streaming plan occupies.
    pub streamed_sessions: usize,
    /// `resident_sessions - streamed_sessions`: capacity given back to
    /// other tenants of the rpcmem driver (0 when resident cannot run —
    /// the win there is running at all, not saving sessions).
    pub sessions_saved: usize,
    /// `streamed_tps / resident_tps` (0 when resident cannot run). The
    /// CI gate holds this at >= 0.9: the DMA prefetch lane must hide all
    /// but a sliver of the cold-layer fetches.
    pub throughput_ratio: f64,
}

/// Measures resident vs. weight-streamed decode for the sharded Qwen-7B
/// deployment: batch 8 / ctx 1024 on all three Snapdragon generations
/// (where streaming trades sessions for hidden DMA time), plus batch 8 /
/// ctx 8192 on the 8 Gen 2 — a configuration whose resident plan exceeds
/// the session cap entirely and only runs streamed. CI regenerates these
/// rows each push and fails if any streamed point drops below 90% of its
/// resident baseline or the rescue configuration stops running.
pub fn decode_stream_rows() -> Vec<DecodeStreamRow> {
    let mut out = Vec::new();
    let mut push = |device: &DeviceProfile, model: ModelId, batch: usize, ctx_len: usize| {
        let [_, resident, streamed] = crate::backend::NpuSimBackend::variants(device);
        let Ok(s) = streamed.decode(model, batch, ctx_len) else {
            return;
        };
        let (resident_runs, resident_tps, resident_sessions) =
            match resident.decode(model, batch, ctx_len) {
                Ok(r) => (true, r.tokens_per_sec, r.sessions),
                Err(_) => (false, 0.0, 0),
            };
        out.push(DecodeStreamRow {
            device: device.arch.soc_label().to_string(),
            model: model.label().to_string(),
            batch,
            ctx_len,
            resident_runs,
            resident_tps,
            resident_sessions,
            streamed_tps: s.tokens_per_sec,
            streamed_sessions: s.sessions,
            sessions_saved: resident_sessions.saturating_sub(s.sessions),
            throughput_ratio: if resident_runs {
                s.tokens_per_sec / resident_tps
            } else {
                0.0
            },
        });
    };
    for device in DeviceProfile::all() {
        push(&device, ModelId::Qwen7B, 8, 1024);
    }
    push(&DeviceProfile::v73(), ModelId::Qwen7B, 8, 8192);
    out
}

// ---------------------------------------------------------------------
// Thermal extension — sustained-vs-burst decode and thermal-aware fleet
// dispatch (the rows behind the `BENCH_power.json` artifact).
// ---------------------------------------------------------------------

/// The fixed workload every thermal decode row runs: Qwen-3B at batch 8,
/// context 1024 — heavy enough that every Snapdragon generation crosses
/// its throttle cap inside the window.
pub const THERMAL_WORKLOAD: (ModelId, usize, usize) = (ModelId::Qwen3B, 8, 1024);

/// Simulated seconds of back-to-back decode per thermal row (several RC
/// time constants: long enough that the sustained plateau dominates).
pub const THERMAL_WINDOW_SECS: f64 = 120.0;

/// Regenerates the sustained-vs-burst curves: the fixed Qwen-3B b8
/// workload decoded for [`THERMAL_WINDOW_SECS`] on each Snapdragon
/// generation with the thermal/DVFS loop closed. A curve's burst
/// tokens/sec must equal the pre-thermal decode number for the same
/// deployment bit for bit (the CI gate).
pub fn thermal_decode_rows() -> Vec<SustainedCurve> {
    let (model, batch, ctx_len) = THERMAL_WORKLOAD;
    DeviceProfile::all()
        .iter()
        .filter_map(|device| {
            sustained_decode_curve(device, model, batch, ctx_len, THERMAL_WINDOW_SECS).ok()
        })
        .collect()
}

/// The seeded multi-minute trace the thermal fleet comparison serves:
/// a sustained mixed-tenant stream heavy enough to keep the V79/V75/V73
/// fleet busy past its thermal time constants.
fn thermal_fleet_trace(seed: u64) -> Vec<Request> {
    let tenants = [
        TenantSpec {
            output_lens: (16, 48),
            ..TenantSpec::interactive("chat")
        },
        TenantSpec {
            output_lens: (24, 64),
            ..TenantSpec::batch("batch")
        },
    ];
    // ~3 req/s for ~3 simulated minutes.
    poisson_trace(&tenants, 3.0, 540, seed)
}

/// Serves the seeded thermal fleet trace (a sustained mixed-tenant stream
/// heavy enough to keep the fleet busy past its thermal time constants)
/// through the heterogeneous fleet under thermal-blind and thermal-aware
/// dispatch: identical physics, identical trace, only the dispatcher's
/// completion oracle differs. Returns `[blind, aware]`.
pub fn fleet_thermal_rows(seed: u64) -> SimResult<[ServingReport; 2]> {
    let trace = thermal_fleet_trace(seed);
    let serve = |thermal| {
        let config = GatewayConfig {
            thermal,
            ..GatewayConfig::default()
        };
        FleetGateway::new(FleetSpec::heterogeneous(ModelId::Qwen1_5B), config)?.serve_trace(&trace)
    };
    Ok([serve(ThermalPolicy::Blind)?, serve(ThermalPolicy::Aware)?])
}

// ---------------------------------------------------------------------
// Speculative decoding extension — plain vs spec-serial vs spec-overlapped
// and adaptive-vs-fixed draft length (the rows behind `BENCH_spec.json`).
// ---------------------------------------------------------------------

/// Target model of the speculative-decoding rows (the paper's primary
/// on-device model).
const SPEC_TARGET: ModelId = ModelId::Qwen1_5B;
/// Draft model: the Qwen2.5-0.5B-class config that exists only to
/// propose chunks for [`SPEC_TARGET`].
const SPEC_DRAFT: ModelId = ModelId::Qwen0_5B;
/// Context length of every speculative row.
pub const SPEC_CTX_LEN: usize = 1024;
/// Verify rounds replayed per row (enough that the trace's empirical
/// acceptance converges to its configured rate).
pub const SPEC_ROUNDS: usize = 1024;
/// Fixed draft length of the headline rows.
const SPEC_DRAFT_LEN: usize = 3;
/// Acceptance rate of the headline trace (a well-matched draft).
pub const SPEC_ACCEPTANCE: f64 = 0.7;
/// Acceptance rate of the adaptive-vs-fixed comparison (a cold draft —
/// the regime where clinging to a long draft length wastes every round).
pub const SPEC_LOW_ACCEPTANCE: f64 = 0.25;
/// Seed of the replayed acceptance trace (both policies of a comparison
/// see the identical accept/reject stream).
const SPEC_TRACE_SEED: u64 = 20260808;

/// Measures plain vs spec-serial vs spec-overlapped decode on each
/// Snapdragon generation: Qwen-1.5B verifies chunks drafted by Qwen-0.5B,
/// at a fixed draft length of 3, on the seeded [`SPEC_ACCEPTANCE`] trace.
/// These points are the headline rows of the `BENCH_spec.json` artifact:
/// the CI-gated end-to-end win is `spec_overlapped_tps /
/// plain_serial_tps`, and `spec_overlapped_tps / spec_serial_tps` is what
/// the DRAFT lane alone buys (1/(1 + exposed_draft_fraction) in the
/// Section 9 decomposition). CI regenerates these rows each push and
/// fails if spec-overlapped stops beating plain decode anywhere.
pub fn spec_decode_rows() -> Vec<SpecDecodePoint> {
    use ttscale::spec_decode::{AcceptanceTrace, DraftLenController};
    DeviceProfile::all()
        .iter()
        .filter_map(|device| {
            let mut ctrl = DraftLenController::fixed(SPEC_DRAFT_LEN);
            let mut trace = AcceptanceTrace::seeded(SPEC_TRACE_SEED, SPEC_ACCEPTANCE);
            crate::spec::measure_spec_decode(
                device,
                SPEC_TARGET,
                SPEC_DRAFT,
                SPEC_CTX_LEN,
                &mut ctrl,
                &mut trace,
                SPEC_ROUNDS,
            )
            .ok()
        })
        .collect()
}

/// Replays the cold [`SPEC_LOW_ACCEPTANCE`] trace under a fixed `k = 6`
/// draft length and under the acceptance-adaptive controller (start 3,
/// bounds `1..=k_max` with `k_max` capped by the device's
/// [`crate::spec::max_verify_draft_len`] probe), on each generation:
/// one `[fixed, adaptive]` pair per device, identical in pair, context
/// and acceptance trace, with only the controller differing. The
/// adaptive controller shrinks toward `k = 1` and stops paying for
/// doomed draft steps; its CI-gated win is the adaptive
/// `spec_overlapped_tps` over the fixed one, and CI fails if it ever
/// loses to the fixed policy.
pub fn spec_adaptive_rows() -> Vec<[SpecDecodePoint; 2]> {
    use ttscale::spec_decode::{AcceptanceTrace, DraftLenController};
    let fixed_k = 6usize;
    DeviceProfile::all()
        .iter()
        .filter_map(|device| {
            let run = |ctrl: &mut DraftLenController| {
                let mut trace = AcceptanceTrace::seeded(SPEC_TRACE_SEED, SPEC_LOW_ACCEPTANCE);
                crate::spec::measure_spec_decode(
                    device,
                    SPEC_TARGET,
                    SPEC_DRAFT,
                    SPEC_CTX_LEN,
                    ctrl,
                    &mut trace,
                    SPEC_ROUNDS,
                )
            };
            let mut fixed = DraftLenController::fixed(fixed_k);
            let f = run(&mut fixed).ok()?;
            let k_max = crate::spec::max_verify_draft_len(device, SPEC_TARGET, SPEC_CTX_LEN, 6);
            let mut adaptive = DraftLenController::adaptive(3.min(k_max), 1, k_max);
            let a = run(&mut adaptive).ok()?;
            Some([f, a])
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figure 17 — prompt length sensitivity.
// ---------------------------------------------------------------------

/// Regenerates Figure 17 over a backend set (conventionally the serial
/// [`crate::backend::NpuSimBackend`] alone): one `(Backend::name(),
/// point)` pair per backend, model, prompt length (the point's context
/// at decode time) and batch.
pub fn fig17_rows(backends: &[Box<dyn Backend>]) -> Vec<(&'static str, DecodePoint)> {
    let mut out = Vec::new();
    for b in backends {
        for model in [ModelId::Qwen1_5B, ModelId::Qwen3B] {
            for &prompt in &[512usize, 1024, 2048, 4096] {
                for &batch in &[1usize, 2, 4, 8, 16] {
                    if let Ok(p) = b.decode(model, batch, prompt) {
                        out.push((b.name(), p));
                    }
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// Table 4 — tile-group vs conventional-group vs F16 accuracy.
// ---------------------------------------------------------------------

/// One Table 4 column.
#[derive(Clone, Debug)]
pub struct Table4Row {
    /// Variant label.
    pub variant: String,
    /// Measured relative weight RMSE.
    pub weight_rmse_rel: f64,
    /// WinoGrande-like accuracy, percent.
    pub winogrande_pct: f64,
    /// MMLU-like accuracy, percent.
    pub mmlu_pct: f64,
    /// Tiny-model perplexity (measured functionally).
    pub tiny_ppl: f64,
}

/// Regenerates Table 4 (Qwen2.5-1.5B geometry for the RMSE sample).
pub fn table4_rows(seed: u64) -> Vec<Table4Row> {
    // Weight-space error of each variant on an outlier-free sample (the
    // paper's premise: pretrained weights are near-Gaussian).
    let (k, n) = (512, 512);
    let w = gaussian_matrix(k, n, seed, 1.0, 0.0);
    let std = (w.iter().map(|v| (v * v) as f64).sum::<f64>() / w.len() as f64).sqrt();
    let rmse_of = |layout| {
        let qm = QuantizedMatrix::quantize(&w, k, n, QuantScheme::Q4_0, layout);
        QuantError::measure(&w, &qm.dequantize()).rmse / std
    };
    let f16_roundtrip: Vec<f32> = w.iter().map(|&v| F16::from_f32(v).to_f32()).collect();
    let r_tile = rmse_of(WeightLayout::HmxTileGroups);
    let r_common = rmse_of(WeightLayout::ColumnMajorGroups);
    let r_f16 = QuantError::measure(&w, &f16_roundtrip).rmse / std;

    // Tiny-model perplexity per variant.
    let tiny = ModelConfig::for_id(ModelId::Tiny);
    let (float_layers, embed) = ModelWeights::generate_float(&tiny, seed);
    let stream = ppl_stream(96);
    let quantize_with = |layout: WeightLayout| {
        map_layers(&float_layers, &tiny, &move |m, kk, nn| {
            QuantizedMatrix::quantize(m, kk, nn, QuantScheme::Q4_0, layout).dequantize()
        })
    };
    let f16_layers = map_layers(&float_layers, &tiny, &|m, _, _| {
        m.iter().map(|&v| F16::from_f32(v).to_f32()).collect()
    });
    let ppl_tile = perplexity_float(
        &tiny,
        &quantize_with(WeightLayout::HmxTileGroups),
        &embed,
        &stream,
    );
    let ppl_common = perplexity_float(
        &tiny,
        &quantize_with(WeightLayout::ColumnMajorGroups),
        &embed,
        &stream,
    );
    let ppl_f16 = perplexity_float(&tiny, &f16_layers, &embed, &stream);

    let wino = generate_items(ChoiceKind::WinoGrandeLike, 8000, seed);
    let mmlu = generate_items(ChoiceKind::MmluLike, 8000, seed + 1);
    let row = |label: &str, r: f64, ppl: f64| Table4Row {
        variant: label.to_string(),
        weight_rmse_rel: r,
        winogrande_pct: choice_eval(&wino, quant_capability(r), seed + 2),
        mmlu_pct: choice_eval(&mmlu, quant_capability(r), seed + 3),
        tiny_ppl: ppl,
    };
    vec![
        row("Tile group (ours)", r_tile, ppl_tile),
        row("Common group", r_common, ppl_common),
        row("F16", r_f16, ppl_f16),
    ]
}

// ---------------------------------------------------------------------
// Table 5 — LUT16 FP16 FlashAttention vs F32 attention accuracy.
// ---------------------------------------------------------------------

/// One Table 5 column.
#[derive(Clone, Debug)]
pub struct Table5Row {
    /// Attention implementation label.
    pub variant: String,
    /// Model-level logit divergence vs the F32 path (mean KL).
    pub logit_kl: f64,
    /// WinoGrande-like accuracy, percent.
    pub winogrande_pct: f64,
    /// MMLU-like accuracy, percent.
    pub mmlu_pct: f64,
}

/// Regenerates Table 5: runs the tiny model's NPU forward (FP16
/// FlashAttention with the LUT softmax) against the F32 reference and
/// measures the logit divergence, then maps both through the choice evals.
pub fn table5_rows(seed: u64) -> Vec<Table5Row> {
    use edgellm::cpu_ref::forward_reference;
    use edgellm::kv_cache::KvCache;
    use edgellm::model::Model;

    let mut ctx = NpuContext::new(DeviceProfile::v75(), ExecMode::Functional);
    let model = Model::new(&mut ctx, ModelId::Tiny, DequantVariant::CoalescedLut, seed).unwrap();
    let tokens: Vec<u32> = (0..24).map(|i| 4 + (i * 13) % 200).collect();

    // NPU path (FP16 FA + LUT exp): final-position logits.
    let mut cache = KvCache::new(&mut ctx, &model.cfg, 1, 64).unwrap();
    let npu = model.prefill(&mut ctx, &mut cache, 0, &tokens).unwrap();
    // F32 reference path: same weights, conventional attention.
    let ref_logits = forward_reference(&model.cfg, &model.weights, &tokens);
    let last = &ref_logits[(tokens.len() - 1) * model.cfg.vocab..];

    let kl = mean_kl(last, &npu.logits, model.cfg.vocab);
    // Map divergence to capability exactly like quantization damage; the
    // divergence is tiny, so both variants score essentially identically
    // (the paper's Table 5 deltas are within noise).
    let cap_fa = quant_capability(kl.sqrt());
    let wino = generate_items(ChoiceKind::WinoGrandeLike, 8000, seed);
    let mmlu = generate_items(ChoiceKind::MmluLike, 8000, seed + 1);
    vec![
        Table5Row {
            variant: "Our LUT16 FA (FP16)".to_string(),
            logit_kl: kl,
            winogrande_pct: choice_eval(&wino, cap_fa, seed + 2),
            mmlu_pct: choice_eval(&mmlu, cap_fa, seed + 3),
        },
        Table5Row {
            variant: "F32 Attention".to_string(),
            logit_kl: 0.0,
            winogrande_pct: choice_eval(&wino, 1.0, seed + 2),
            mmlu_pct: choice_eval(&mmlu, 1.0, seed + 3),
        },
    ]
}

// ---------------------------------------------------------------------
// Extension: scaling-method comparison at matched budgets.
// ---------------------------------------------------------------------

/// One row of the method-comparison extension (not a paper exhibit; an
/// ablation across the TTS algorithms the paper describes in Section 2.1).
#[derive(Clone, Debug)]
pub struct ExtMethodRow {
    /// Model label.
    pub model: String,
    /// Generation budget (decode batch).
    pub budget: usize,
    /// Best-of-N with the calibrated ORM, percent.
    pub best_of_n_pct: f64,
    /// Step-level beam search with the calibrated PRM, percent.
    pub beam_search_pct: f64,
    /// Self-consistency (majority vote, no reward model), percent.
    pub self_consistency_pct: f64,
    /// pass@N with an oracle verifier (the selection upper bound), percent.
    pub oracle_pct: f64,
}

/// Compares all scaling methods at matched budgets (MATH500 profile).
pub fn ext_method_comparison_rows(model: ModelId, seed: u64) -> Vec<ExtMethodRow> {
    use ttscale::{beam_search, self_consistency};

    let tasks = TaskGenerator::new(DatasetKind::Math500Like, seed).take(400);
    let policy = CalibratedPolicy::new(model, DatasetKind::Math500Like);
    let orm = SimOrm::default();
    let prm = ttscale::verifier::SimPrm::default();
    [1usize, 4, 16]
        .iter()
        .map(|&budget| ExtMethodRow {
            model: model.label().to_string(),
            budget,
            best_of_n_pct: best_of_n::accuracy_over_tasks(&policy, &orm, &tasks, budget, seed),
            beam_search_pct: beam_search::accuracy_over_tasks(
                &policy,
                &prm,
                &tasks,
                crate::pareto::beam_width_for_budget(budget),
                seed,
            ),
            self_consistency_pct: self_consistency::accuracy_over_tasks(
                &policy, &tasks, budget, seed,
            ),
            oracle_pct: best_of_n::pass_at_n_oracle(&policy, &tasks, budget, seed),
        })
        .collect()
}

#[cfg(test)]
mod ext_tests {
    use super::*;

    #[test]
    fn method_ordering_holds() {
        let rows = ext_method_comparison_rows(ModelId::Qwen1_5B, 9);
        for r in &rows {
            // The oracle bounds every realizable method.
            assert!(r.oracle_pct + 1e-9 >= r.best_of_n_pct, "{r:?}");
            assert!(r.oracle_pct + 1e-9 >= r.self_consistency_pct, "{r:?}");
            if r.budget > 1 {
                // Reward-model methods beat unguided majority voting at
                // equal budget on hard tasks.
                assert!(r.best_of_n_pct >= r.self_consistency_pct - 3.0, "{r:?}");
            }
        }
        // All methods scale with budget.
        assert!(rows[2].best_of_n_pct > rows[0].best_of_n_pct + 10.0);
        assert!(rows[2].beam_search_pct > rows[0].beam_search_pct + 10.0);
        assert!(rows[2].self_consistency_pct > rows[0].self_consistency_pct + 3.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_reproduces_the_collapse() {
        let rows = table1_rows(7);
        let awq = &rows[0];
        let qnn = &rows[1];
        // Per-channel quantization collapses reasoning accuracy (paper:
        // MATH500 15.9 -> 2.1, GSM8K 32.6 -> 3.4).
        assert!(awq.math500_pct > 3.0 * qnn.math500_pct.max(0.5));
        assert!(awq.gsm8k_pct > 3.0 * qnn.gsm8k_pct.max(0.5));
        // The forward-pass damage instrument orders the same way, and the
        // mapped perplexity reproduces the anchors (paper: 19.42 vs 28.99).
        assert!(qnn.logit_kl > awq.logit_kl);
        assert!((awq.wiki_ppl_mapped - 19.42).abs() < 0.1);
        assert!((qnn.wiki_ppl_mapped - 28.99).abs() < 0.1);
    }

    #[test]
    fn table2_reproduces_unit_gap() {
        let rows = table2_rows();
        let hvx = &rows[0];
        let hmx = &rows[1];
        // Paper: 32.93 vs 12032.54 GFLOPS — over 300x.
        assert!(hmx.gemm_gflops / hvx.gemm_gflops > 300.0);
        assert!((hmx.gemm_gflops - 12032.54).abs() < 50.0);
        assert!((hmx.read_bw_gbs - 60.0).abs() < 2.0);
        assert!((hvx.read_bw_gbs - 26.0).abs() < 2.0);
    }

    #[test]
    fn fig8_shares_sum_to_hundred() {
        for row in fig8_rows() {
            let sum = row.load_store_pct + row.matmul_pct + row.softmax_pct;
            assert!((sum - 100.0).abs() < 1e-6, "q={} sums to {sum}", row.q_len);
        }
    }

    #[test]
    fn fig14_speedups_in_paper_band() {
        let rows = fig14_rows();
        for row in rows.iter().filter(|r| r.method == "F32 exp") {
            assert!(
                (1.2..2.3).contains(&row.lut_speedup),
                "Nkv={} Nq={}: {}",
                row.nkv,
                row.nq,
                row.lut_speedup
            );
        }
        for row in rows.iter().filter(|r| r.method == "F16 exp") {
            assert!(row.lut_speedup >= 1.0 && row.lut_speedup < 1.7);
        }
    }

    #[test]
    fn fig15_speedups_in_paper_band() {
        let rows = fig15_rows();
        let baselines: Vec<&Fig15Row> = rows.iter().filter(|r| r.variant == "baseline").collect();
        for b in &baselines {
            assert!(
                (7.0..22.0).contains(&b.ours_speedup),
                "{}: {}",
                b.config,
                b.ours_speedup
            );
        }
        // Mean slowdown vs the no-dequant bound ~27% in the paper.
        let bounds: Vec<f64> = rows
            .iter()
            .filter(|r| r.variant == "no dequant.")
            .map(|r| 1.0 / r.ours_speedup)
            .collect();
        let mean_ratio = bounds.iter().sum::<f64>() / bounds.len() as f64;
        assert!(
            (1.05..2.0).contains(&mean_ratio),
            "ours/bound mean {mean_ratio}"
        );
    }

    #[test]
    fn table4_tile_close_to_common_far_from_nothing() {
        let rows = table4_rows(3);
        let tile = &rows[0];
        let common = &rows[1];
        let f16 = &rows[2];
        // Tile and common grouping are near-equivalent (paper: 62.56 vs
        // 63.35 WinoGrande), both below F16.
        assert!((tile.winogrande_pct - common.winogrande_pct).abs() < 3.0);
        assert!(f16.winogrande_pct >= tile.winogrande_pct - 1.0);
        assert!(f16.tiny_ppl <= tile.tiny_ppl + 0.5);
        // F16 round-trip error is far below quantization error.
        assert!(tile.weight_rmse_rel > 10.0 * f16.weight_rmse_rel);
    }

    #[test]
    fn stream_rows_trade_sessions_for_hidden_fetches() {
        let rows = decode_stream_rows();
        assert_eq!(rows.len(), 4, "3 devices at ctx 1024 + the 8G2 rescue");
        // Where the resident plan runs, streaming must save at least one
        // session and keep at least 90% of the throughput (the CI gate).
        let resident: Vec<&DecodeStreamRow> = rows.iter().filter(|r| r.resident_runs).collect();
        assert_eq!(resident.len(), 3);
        for r in &resident {
            assert!(
                r.throughput_ratio >= 0.9,
                "{}: streamed/resident {}",
                r.device,
                r.throughput_ratio
            );
            assert!(r.streamed_sessions < r.resident_sessions, "{:?}", r);
            assert!(r.sessions_saved >= 1);
        }
        // The rescue configuration only exists streamed.
        let rescue = rows.iter().find(|r| !r.resident_runs).unwrap();
        assert_eq!((rescue.device.as_str(), rescue.ctx_len), ("8G2", 8192));
        assert!(rescue.streamed_tps > 0.0);
        assert_eq!(rescue.throughput_ratio, 0.0);
        assert_eq!(rescue.sessions_saved, 0);
    }

    #[test]
    fn thermal_rows_throttle_every_generation() {
        let rows = thermal_decode_rows();
        assert_eq!(rows.len(), 3, "Qwen-3B b8 shards onto all devices");
        for r in &rows {
            // Every generation crosses its cap well inside the window.
            let step = r.first_throttle_step.expect("never throttled");
            assert!(step > 0, "{}: throttled on the cold first step", r.device);
            assert!(
                r.first_throttle_secs.unwrap() < THERMAL_WINDOW_SECS / 2.0,
                "{}: throttles too late to matter",
                r.device
            );
            // Throttling costs throughput but the fixed switch overheads
            // keep the drop milder than the raw clock cut.
            let (burst_tps, sustained_tps) = (r.burst_tokens_per_sec, r.sustained_tokens_per_sec);
            assert!(sustained_tps < burst_tps, "{:?}", r);
            let degradation = sustained_tps / burst_tps;
            assert!(degradation >= 0.55, "{}: {}", r.device, degradation);
            assert!(r.avg_tokens_per_sec > sustained_tps && r.avg_tokens_per_sec < burst_tps);
            // Cube-law power: the sustained point is the efficient one.
            assert!(r.sustained_power_w < r.burst_power_w);
            assert!(r.sustained_tokens_per_joule > r.burst_tokens_per_joule);
        }
    }

    #[test]
    fn thermal_aware_dispatch_beats_blind_on_the_pinned_trace() {
        let [blind, aware] = fleet_thermal_rows(20260808).unwrap();
        let throttled_steps =
            |r: &ServingReport| r.workers.iter().map(|w| w.throttled_steps).sum::<usize>();
        // Same physics, same trace — only the dispatch oracle differs.
        // Routing around hot workers lets dies recover to burst clocks,
        // so aware wins goodput and spends fewer steps throttled.
        assert!(
            aware.goodput_rps > blind.goodput_rps,
            "aware {} vs blind {}",
            aware.goodput_rps,
            blind.goodput_rps
        );
        assert!(aware.tbt_p99_secs <= blind.tbt_p99_secs);
        assert!(throttled_steps(&aware) < throttled_steps(&blind));
        // Both run hot enough for the comparison to be about thermals.
        assert!(throttled_steps(&blind) > 0);
        let blind_peak_c = blind
            .workers
            .iter()
            .map(|w| w.peak_temp_c)
            .fold(0.0, f64::max);
        assert!(blind_peak_c > DeviceProfile::v75().ambient_temp_c);
    }

    #[test]
    fn spec_rows_beat_plain_decode_on_every_generation() {
        let rows = spec_decode_rows();
        assert_eq!(rows.len(), 3, "the 1.5B/0.5B pair fits every device");
        for r in &rows {
            // The CI gate: overlapped speculation must beat plain decode
            // in end-to-end accepted-tokens/sec at the pinned trace
            // (measured 1.21-1.31x across the generations).
            let speedup = r.spec_overlapped_tps / r.plain_serial_tps;
            assert!(
                speedup > 1.1,
                "{}: spec-overlapped {} vs plain {}",
                r.device,
                r.spec_overlapped_tps,
                r.plain_serial_tps
            );
            // The DRAFT lane is doing real work: overlapped speculation
            // beats its own serial schedule by ~1.5x (the draft's CPU
            // share — lm_head over the 152k vocab — hides behind the
            // verify kernels).
            let overlap_gain = r.spec_overlapped_tps / r.spec_serial_tps;
            assert!(overlap_gain > 1.3, "{}: {}", r.device, overlap_gain);
            // And the decomposition's inputs are in the expected regime.
            assert!((0.3..0.8).contains(&r.draft_step_frac), "{r:?}");
            assert!((1.3..1.8).contains(&r.mean_accepted), "{r:?}");
        }
    }

    #[test]
    fn adaptive_draft_length_beats_fixed_on_the_cold_trace() {
        let rows = spec_adaptive_rows();
        assert_eq!(rows.len(), 3);
        for [fixed, adaptive] in &rows {
            // The CI gate: on a cold trace the adaptive controller stops
            // paying for doomed draft steps and wins throughput
            // (measured ~5.5x against a fixed k=6).
            let advantage = adaptive.spec_overlapped_tps / fixed.spec_overlapped_tps;
            assert!(
                advantage > 2.0,
                "{}: adaptive {} vs fixed {}",
                fixed.device,
                adaptive.spec_overlapped_tps,
                fixed.spec_overlapped_tps
            );
            // It wins by actually shrinking the draft length.
            assert!(
                adaptive.mean_draft_len < fixed.mean_draft_len,
                "{}: mean k {}",
                fixed.device,
                adaptive.mean_draft_len
            );
        }
    }

    #[test]
    fn table5_attention_variants_are_equivalent() {
        let rows = table5_rows(5);
        let fa = &rows[0];
        let f32_ref = &rows[1];
        assert!(fa.logit_kl < 0.05, "logit KL {}", fa.logit_kl);
        assert!(
            (fa.winogrande_pct - f32_ref.winogrande_pct).abs() < 1.5,
            "{} vs {}",
            fa.winogrande_pct,
            f32_ref.winogrande_pct
        );
        assert!((fa.mmlu_pct - f32_ref.mmlu_pct).abs() < 1.5);
    }
}
