//! Analytic baselines for Figure 13: llama.cpp's OpenCL backend on the
//! Adreno GPU, QNN's FP16 deployment, and a mobile-CPU reference.
//!
//! None of these can be rebuilt from source here (one targets real Adreno
//! silicon, one is closed, one is the host fallback), so all are modelled
//! as rooflines with constants taken from public Adreno 750 specifications
//! and the paper's measured curves. What matters for the reproduction are
//! the *crossovers*: the GPU edges out the NPU at batch 1 but saturates
//! early, QNN's FP16 prefill is comparable to ours while its decode pays
//! the 3.6x weight-size penalty of FP16 over Q4, and the CPU path trails
//! everything batched.
//!
//! These structs only carry the roofline constants and arithmetic; the
//! uniform execution interface (and the only place callers should name
//! them) is [`crate::backend`], where each implements
//! [`crate::backend::Backend`].

use edgellm::config::{ModelConfig, ModelId};

/// llama.cpp OpenCL (Adreno GPU) baseline.
#[derive(Clone, Debug)]
pub struct GpuBaseline {
    /// Effective memory bandwidth achieved by the Q4_0 GEMV kernels, B/s.
    /// (Shared LPDDR5x peaks near 70 GB/s; mobile GPU kernels sustain a
    /// fraction of it.)
    pub eff_bw: f64,
    /// Effective FP16/FP32 mixed GEMM throughput during decode, FLOP/s
    /// (small-m kernels; llama.cpp's portable kernels sustain a few
    /// percent of the Adreno 750's ~4.6 TFLOPS peak).
    pub eff_flops: f64,
    /// Effective GEMM throughput during prefill, FLOP/s (large-m kernels
    /// are far more efficient).
    pub eff_prefill_flops: f64,
    /// Fixed per-step driver/dispatch overhead, seconds.
    pub step_overhead: f64,
}

impl Default for GpuBaseline {
    fn default() -> Self {
        GpuBaseline {
            eff_bw: 14.0e9,
            eff_flops: 120.0e9,
            eff_prefill_flops: 1.6e12,
            step_overhead: 3.0e-3,
        }
    }
}

impl GpuBaseline {
    /// Bytes the decoder streams per step (Q4_0 weights + KV).
    fn step_bytes(cfg: &ModelConfig, batch: usize, ctx_len: usize) -> f64 {
        let weights = cfg.npu_weight_bytes() as f64;
        let kv = (2 * cfg.layers * cfg.kv_dim() * ctx_len * 2 * batch) as f64;
        weights + kv
    }

    /// FLOPs per decode step.
    fn step_flops(cfg: &ModelConfig, batch: usize) -> f64 {
        // ~2 flops per weight per row, plus the vocabulary projection.
        let body = 2.0 * cfg.float_params();
        let head = 2.0 * (cfg.vocab * cfg.hidden) as f64;
        (body + head) * batch as f64
    }

    /// Decode throughput in tokens/second.
    pub fn decode_tps(&self, model: ModelId, batch: usize, ctx_len: usize) -> f64 {
        let cfg = ModelConfig::for_id(model);
        let t_mem = Self::step_bytes(&cfg, batch, ctx_len) / self.eff_bw;
        let t_compute = Self::step_flops(&cfg, batch) / self.eff_flops;
        let step = t_mem.max(t_compute) + self.step_overhead;
        batch as f64 / step
    }

    /// Prefill throughput in tokens/second.
    pub fn prefill_tps(&self, model: ModelId, prompt_len: usize) -> f64 {
        let cfg = ModelConfig::for_id(model);
        // Compute-bound GEMM over the prompt + quadratic attention.
        let body = 2.0 * cfg.float_params() * prompt_len as f64;
        let attn = 2.0
            * (cfg.heads * cfg.head_dim) as f64
            * (prompt_len * prompt_len) as f64
            * cfg.layers as f64;
        let t = (body + attn) / self.eff_prefill_flops + Self::step_bytes(&cfg, 1, 0) / self.eff_bw;
        prompt_len as f64 / t
    }
}

/// QNN FP16 deployment baseline (closed-source; static-graph NPU path).
#[derive(Clone, Debug)]
pub struct QnnFp16Baseline {
    /// Fraction of HMX peak QNN's FP16 prefill sustains.
    pub prefill_efficiency: f64,
    /// DMA bandwidth available to its FP16 decode, B/s.
    pub dma_bw: f64,
    /// HMX FP16 peak of the device, FLOP/s.
    pub hmx_flops: f64,
}

impl Default for QnnFp16Baseline {
    fn default() -> Self {
        QnnFp16Baseline {
            prefill_efficiency: 0.35,
            dma_bw: 60.0e9,
            hmx_flops: 12.03e12,
        }
    }
}

impl QnnFp16Baseline {
    /// FP16 weight bytes of the model (2 bytes per float parameter — the
    /// 3.6x decode-traffic penalty over the Q4 deployment).
    fn weight_bytes(cfg: &ModelConfig) -> f64 {
        cfg.float_params() * 2.0
    }

    /// Decode throughput (batch 1; QNN's static graphs preclude the
    /// dynamic batching test-time scaling needs — the paper's motivation
    /// for bypassing it).
    pub fn decode_tps(&self, model: ModelId) -> f64 {
        let cfg = ModelConfig::for_id(model);
        let t = Self::weight_bytes(&cfg) / self.dma_bw;
        1.0 / t
    }

    /// Prefill throughput in tokens/second.
    pub fn prefill_tps(&self, model: ModelId, prompt_len: usize) -> f64 {
        let cfg = ModelConfig::for_id(model);
        let flops = 2.0 * (Self::weight_bytes(&cfg) / 2.0) * prompt_len as f64;
        let t = flops / (self.hmx_flops * self.prefill_efficiency)
            + Self::weight_bytes(&cfg) / self.dma_bw;
        prompt_len as f64 / t
    }
}

/// Mobile-CPU reference baseline: the paper runtime's host fallback path
/// (every operator on the big cores, the placement `edgellm::cpu_ref`
/// implements functionally), modelled as a roofline over the four big
/// cores' FLOP/s and their LPDDR bandwidth share.
#[derive(Clone, Debug)]
pub struct CpuRefBackend {
    /// Sustained CPU GEMV read bandwidth during decode, B/s (the big-core
    /// cluster's share of LPDDR5x under a streaming Q4 GEMV).
    pub eff_bw: f64,
    /// Effective FP32 throughput during decode, FLOP/s.
    pub eff_flops: f64,
    /// Effective FP32 GEMM throughput during prefill, FLOP/s (large-m
    /// kernels amortize loads but stay far below NPU tensor rates).
    pub eff_prefill_flops: f64,
    /// Fixed per-step scheduling overhead, seconds.
    pub step_overhead: f64,
}

impl Default for CpuRefBackend {
    fn default() -> Self {
        CpuRefBackend {
            eff_bw: 10.0e9,
            eff_flops: 50.0e9,
            eff_prefill_flops: 150.0e9,
            step_overhead: 1.0e-3,
        }
    }
}

impl CpuRefBackend {
    /// Bytes streamed per decode step (Q4 weights + FP16 KV).
    fn step_bytes(cfg: &ModelConfig, batch: usize, ctx_len: usize) -> f64 {
        let weights = cfg.npu_weight_bytes() as f64;
        let kv = (2 * cfg.layers * cfg.kv_dim() * ctx_len * 2 * batch) as f64;
        weights + kv
    }

    /// Decode throughput in tokens/second.
    pub fn decode_tps(&self, model: ModelId, batch: usize, ctx_len: usize) -> f64 {
        let cfg = ModelConfig::for_id(model);
        let flops =
            (2.0 * cfg.float_params() + 2.0 * (cfg.vocab * cfg.hidden) as f64) * batch as f64;
        let t_mem = Self::step_bytes(&cfg, batch, ctx_len) / self.eff_bw;
        let t_compute = flops / self.eff_flops;
        batch as f64 / (t_mem.max(t_compute) + self.step_overhead)
    }

    /// Prefill throughput in tokens/second.
    pub fn prefill_tps(&self, model: ModelId, prompt_len: usize) -> f64 {
        let cfg = ModelConfig::for_id(model);
        let body = 2.0 * cfg.float_params() * prompt_len as f64;
        let t = body / self.eff_prefill_flops + Self::step_bytes(&cfg, 1, 0) / self.eff_bw;
        prompt_len as f64 / t
    }
}
