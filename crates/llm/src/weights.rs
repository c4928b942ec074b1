//! Synthetic model weights: generation, quantization and DDR residency.
//!
//! Deployment quantization follows the paper (Section 7.1): Q4_0 (4.5 bpw)
//! for attention and FFN gate/up projections, Q8_0 (8.5 bpw) for the
//! accuracy-critical FFN down projections. All NPU-resident matrices use
//! the tile-group layout and super-group coalescing unless a baseline
//! variant is requested.
//!
//! In functional mode (tiny models) real Gaussian weights are generated,
//! quantized and uploaded; float copies are retained for the CPU reference
//! path. In cost-only mode (paper-scale models) only shapes and DDR
//! residency are tracked — which is also where the Snapdragon 8 Gen 2
//! session-VA gate fires for 3B+ models.

use hexsim::f16::F16;
use hexsim::prelude::*;
use htpops::gemm::{prepare_weights, DequantVariant, PreparedWeights};
use tilequant::synth::gaussian_matrix;
use tilequant::{QuantScheme, QuantizedMatrix};

use crate::config::ModelConfig;

/// Float (dequantized) weights of one layer, for the CPU reference path.
#[derive(Clone, Debug)]
pub struct LayerFloatWeights {
    /// `[hidden, q_dim]` query projection.
    pub wq: Vec<f32>,
    /// `[hidden, kv_dim]` key projection.
    pub wk: Vec<f32>,
    /// `[hidden, kv_dim]` value projection.
    pub wv: Vec<f32>,
    /// `[q_dim, hidden]` output projection.
    pub wo: Vec<f32>,
    /// `[hidden, ffn]` gate projection.
    pub w_gate: Vec<f32>,
    /// `[hidden, ffn]` up projection.
    pub w_up: Vec<f32>,
    /// `[ffn, hidden]` down projection.
    pub w_down: Vec<f32>,
}

/// NPU-resident quantized weights of one layer.
#[derive(Debug)]
pub struct LayerNpuWeights {
    /// Query projection.
    pub wq: PreparedWeights,
    /// Key projection.
    pub wk: PreparedWeights,
    /// Value projection.
    pub wv: PreparedWeights,
    /// Output projection.
    pub wo: PreparedWeights,
    /// FFN gate projection.
    pub w_gate: PreparedWeights,
    /// FFN up projection.
    pub w_up: PreparedWeights,
    /// FFN down projection (Q8_0).
    pub w_down: PreparedWeights,
}

/// All weights of a model instance: seven quantized matrices per layer,
/// one RMSNorm gain row that every norm shares, and in functional mode the
/// embedding and the float reference copies.
#[derive(Debug)]
pub struct ModelWeights {
    /// Per-layer NPU weights.
    pub layers: Vec<LayerNpuWeights>,
    /// The RMSNorm gain row (`hidden` values), shared by every norm of the
    /// walk: each layer's attention and FFN norms and the final norm. The
    /// synthetic gains are all 1.0, so one row serves them all, in both
    /// modes; a cost-only norm reads only its length.
    pub norm_gain: Vec<F16>,
    /// Embedding matrix `[vocab, hidden]` (CPU-resident; also the lm_head
    /// when embeddings are tied). Present in functional mode only.
    pub embed: Vec<f32>,
    /// Float copies for the reference path (functional mode only).
    pub float_layers: Vec<LayerFloatWeights>,
    /// Dequantization variant the weights are packed for.
    pub variant: DequantVariant,
    /// Session-resident double-buffered window that streamed (cold) layers
    /// are fetched into; `None` for fully resident builds.
    pub stream_window: Option<DdrBuffer>,
    /// Largest staged byte footprint of any single streamed layer (the
    /// window is twice this, one half per in-flight fetch).
    pub stream_layer_bytes: u64,
}

/// Generates, quantizes and uploads one matrix.
fn build_matrix(
    ctx: &mut NpuContext,
    k: usize,
    n: usize,
    scheme: QuantScheme,
    variant: DequantVariant,
    seed: u64,
    keep_float: bool,
) -> SimResult<(PreparedWeights, Vec<f32>)> {
    if ctx.mode == ExecMode::Functional {
        // Scaled for stable forward passes: std ~ 1/sqrt(k).
        let std = 1.0 / (k as f32).sqrt();
        let w = gaussian_matrix(k, n, seed, std, 0.0);
        let qm = QuantizedMatrix::quantize(&w, k, n, scheme, variant.required_layout());
        let float = if keep_float {
            qm.dequantize()
        } else {
            Vec::new()
        };
        let prepared = prepare_weights(ctx, &qm, variant)?;
        Ok((prepared, float))
    } else {
        let qm = QuantizedMatrix {
            k,
            n,
            scheme,
            layout: variant.required_layout(),
            bytes: Vec::new(),
        };
        let prepared = prepare_weights(ctx, &qm, variant)?;
        Ok((prepared, Vec::new()))
    }
}

impl ModelWeights {
    /// Builds all weights for a model configuration.
    ///
    /// Returns [`SimError::VaSpaceExceeded`] when the device session cannot
    /// map the model (the Snapdragon 8 Gen 2 / 3B gate of Figure 11).
    pub fn build(
        ctx: &mut NpuContext,
        cfg: &ModelConfig,
        variant: DequantVariant,
        seed: u64,
    ) -> SimResult<Self> {
        Self::build_streamed(ctx, cfg, variant, seed, &[])
    }

    /// Builds weights with the layers in `streamed` (ascending indices)
    /// parked in the CPU-owned DDR staging region instead of session VA —
    /// the hot/cold hierarchy of the weight-streaming path. Hot layers
    /// build exactly as [`ModelWeights::build`] does (same seeds, same
    /// bytes); cold layers consume no session space, and one
    /// double-buffered window of `2 * stream_layer_bytes` is mapped into
    /// session VA for the fetches to land in. With `streamed` empty this
    /// is bit-for-bit the resident build.
    pub fn build_streamed(
        ctx: &mut NpuContext,
        cfg: &ModelConfig,
        variant: DequantVariant,
        seed: u64,
        streamed: &[usize],
    ) -> SimResult<Self> {
        let functional = ctx.mode == ExecMode::Functional;
        let mut layers = Vec::with_capacity(cfg.layers);
        let mut float_layers = Vec::new();
        let mut stream_layer_bytes = 0u64;
        for l in 0..cfg.layers {
            let cold = streamed.contains(&l);
            let staged_before = ctx.ddr_staged_bytes();
            ctx.set_ddr_staging(cold);
            let s = seed.wrapping_add(1000 * l as u64);
            let (wq, fq) = build_matrix(
                ctx,
                cfg.hidden,
                cfg.q_dim(),
                QuantScheme::Q4_0,
                variant,
                s,
                functional,
            )?;
            let (wk, fk) = build_matrix(
                ctx,
                cfg.hidden,
                cfg.kv_dim(),
                QuantScheme::Q4_0,
                variant,
                s + 1,
                functional,
            )?;
            let (wv, fv) = build_matrix(
                ctx,
                cfg.hidden,
                cfg.kv_dim(),
                QuantScheme::Q4_0,
                variant,
                s + 2,
                functional,
            )?;
            let (wo, fo) = build_matrix(
                ctx,
                cfg.q_dim(),
                cfg.hidden,
                QuantScheme::Q4_0,
                variant,
                s + 3,
                functional,
            )?;
            let (w_gate, fg) = build_matrix(
                ctx,
                cfg.hidden,
                cfg.ffn,
                QuantScheme::Q4_0,
                variant,
                s + 4,
                functional,
            )?;
            let (w_up, fu) = build_matrix(
                ctx,
                cfg.hidden,
                cfg.ffn,
                QuantScheme::Q4_0,
                variant,
                s + 5,
                functional,
            )?;
            // FFN down in Q8_0, "as existing work indicates their importance
            // in preserving model accuracy" (Section 7.1).
            let (w_down, fd) = build_matrix(
                ctx,
                cfg.ffn,
                cfg.hidden,
                QuantScheme::Q8_0,
                variant,
                s + 6,
                functional,
            )?;
            ctx.set_ddr_staging(false);
            if cold {
                let staged = ctx.ddr_staged_bytes() - staged_before;
                stream_layer_bytes = stream_layer_bytes.max(staged);
            }
            layers.push(LayerNpuWeights {
                wq,
                wk,
                wv,
                wo,
                w_gate,
                w_up,
                w_down,
            });
            if functional {
                float_layers.push(LayerFloatWeights {
                    wq: fq,
                    wk: fk,
                    wv: fv,
                    wo: fo,
                    w_gate: fg,
                    w_up: fu,
                    w_down: fd,
                });
            }
        }
        let embed = if functional {
            gaussian_matrix(cfg.vocab, cfg.hidden, seed ^ 0xE3BED, 0.25, 0.0)
        } else {
            Vec::new()
        };
        // The streaming window is session-resident: fetches of cold layers
        // land here, two slots deep so layer N+1's fetch overlaps layer N.
        let stream_window = if stream_layer_bytes > 0 {
            Some(ctx.ddr_alloc(2 * stream_layer_bytes)?)
        } else {
            None
        };
        Ok(ModelWeights {
            layers,
            norm_gain: vec![F16::ONE; cfg.hidden],
            embed,
            float_layers,
            variant,
            stream_window,
            stream_layer_bytes,
        })
    }

    /// Generates the *unquantized* float layers and embedding for a config
    /// (no NPU context, no quantization) — the raw material quantization-
    /// impact experiments quantize with different schemes.
    pub fn generate_float(cfg: &ModelConfig, seed: u64) -> (Vec<LayerFloatWeights>, Vec<f32>) {
        Self::generate_float_with_outliers(cfg, seed, 0.0)
    }

    /// Like [`ModelWeights::generate_float`] but with a fraction of
    /// outlier weights in hot channels (the structure that breaks coarse
    /// quantization; used by the Table 1 reproduction).
    pub fn generate_float_with_outliers(
        cfg: &ModelConfig,
        seed: u64,
        outlier_frac: f32,
    ) -> (Vec<LayerFloatWeights>, Vec<f32>) {
        let mut layers = Vec::with_capacity(cfg.layers);
        for l in 0..cfg.layers {
            let s = seed.wrapping_add(1000 * l as u64);
            let g = |k: usize, n: usize, off: u64| {
                gaussian_matrix(k, n, s + off, 1.0 / (k as f32).sqrt(), outlier_frac)
            };
            layers.push(LayerFloatWeights {
                wq: g(cfg.hidden, cfg.q_dim(), 0),
                wk: g(cfg.hidden, cfg.kv_dim(), 1),
                wv: g(cfg.hidden, cfg.kv_dim(), 2),
                wo: g(cfg.q_dim(), cfg.hidden, 3),
                w_gate: g(cfg.hidden, cfg.ffn, 4),
                w_up: g(cfg.hidden, cfg.ffn, 5),
                w_down: g(cfg.ffn, cfg.hidden, 6),
            });
        }
        let embed = gaussian_matrix(cfg.vocab, cfg.hidden, seed ^ 0xE3BED, 0.25, 0.0);
        (layers, embed)
    }

    /// Embedding row for a token (functional mode).
    ///
    /// # Panics
    ///
    /// Panics in cost-only mode or for out-of-range tokens.
    pub fn embed_row(&self, cfg: &ModelConfig, token: u32) -> Vec<F16> {
        let t = token as usize;
        assert!(t < cfg.vocab, "token {t} out of vocabulary");
        // Chunked conversion is bit-identical to elementwise `from_f32`
        // (pinned by hexsim's exhaustive differential tests).
        F16::vec_from_f32(&self.embed[t * cfg.hidden..(t + 1) * cfg.hidden])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ModelConfig, ModelId};

    #[test]
    fn tiny_model_builds_functionally() {
        let mut ctx = NpuContext::new(DeviceProfile::v75(), ExecMode::Functional);
        let cfg = ModelConfig::for_id(ModelId::Tiny);
        let w = ModelWeights::build(&mut ctx, &cfg, DequantVariant::CoalescedLut, 7).unwrap();
        assert_eq!(w.layers.len(), 2);
        assert_eq!(w.float_layers.len(), 2);
        assert_eq!(w.float_layers[0].wq.len(), 64 * 64);
        assert_eq!(w.embed.len(), 256 * 64);
        // DDR now holds all seven matrices per layer.
        assert!(ctx.ddr_mapped_bytes() > 0);
    }

    #[test]
    fn paper_model_builds_shape_only() {
        let mut ctx = NpuContext::new(DeviceProfile::v75(), ExecMode::CostOnly);
        let cfg = ModelConfig::for_id(ModelId::Qwen1_5B);
        let w = ModelWeights::build(&mut ctx, &cfg, DequantVariant::CoalescedLut, 7).unwrap();
        assert_eq!(w.layers.len(), 28);
        assert!(w.float_layers.is_empty());
        // Mapped bytes should be close to the analytic weight footprint.
        let analytic = cfg.npu_weight_bytes() as f64;
        let mapped = ctx.ddr_mapped_bytes() as f64;
        assert!(
            (mapped - analytic).abs() / analytic < 0.05,
            "mapped {mapped} vs analytic {analytic}"
        );
    }

    #[test]
    fn qwen3b_fails_on_v73_session() {
        // Figure 11's footnote: 3B+ models cannot run on Snapdragon 8 Gen 2
        // due to the session VA limit.
        let mut ctx = NpuContext::new(DeviceProfile::v73(), ExecMode::CostOnly);
        let cfg = ModelConfig::for_id(ModelId::Qwen3B);
        let err = ModelWeights::build(&mut ctx, &cfg, DequantVariant::CoalescedLut, 7).unwrap_err();
        assert!(matches!(err, SimError::VaSpaceExceeded { .. }));
    }

    #[test]
    fn qwen1_5b_fits_on_v73_session() {
        let mut ctx = NpuContext::new(DeviceProfile::v73(), ExecMode::CostOnly);
        let cfg = ModelConfig::for_id(ModelId::Qwen1_5B);
        assert!(ModelWeights::build(&mut ctx, &cfg, DequantVariant::CoalescedLut, 7).is_ok());
    }

    #[test]
    fn streamed_build_parks_cold_layers_outside_session_va() {
        let mut resident = NpuContext::new(DeviceProfile::v75(), ExecMode::CostOnly);
        let cfg = ModelConfig::for_id(ModelId::Qwen1_5B);
        ModelWeights::build(&mut resident, &cfg, DequantVariant::CoalescedLut, 7).unwrap();

        let mut ctx = NpuContext::new(DeviceProfile::v75(), ExecMode::CostOnly);
        let cold: Vec<usize> = (1..cfg.layers - 1).collect();
        let w =
            ModelWeights::build_streamed(&mut ctx, &cfg, DequantVariant::CoalescedLut, 7, &cold)
                .unwrap();
        assert!(w.stream_window.is_some());
        assert!(w.stream_layer_bytes > 0);
        // Staging holds the 26 cold layers; session VA holds only the two
        // hot layers plus the double-buffered window.
        assert_eq!(
            ctx.ddr_staged_bytes() + ctx.ddr_mapped_bytes(),
            resident.ddr_mapped_bytes() + 2 * w.stream_layer_bytes
        );
        assert!(ctx.ddr_mapped_bytes() < resident.ddr_mapped_bytes() / 5);
    }

    #[test]
    fn qwen3b_streams_onto_v73_session() {
        // The same model the resident build rejects above maps once its
        // cold layers stream: session VA holds 2 hot layers + the window.
        let mut ctx = NpuContext::new(DeviceProfile::v73(), ExecMode::CostOnly);
        let cfg = ModelConfig::for_id(ModelId::Qwen3B);
        let cold: Vec<usize> = (1..cfg.layers - 1).collect();
        let w =
            ModelWeights::build_streamed(&mut ctx, &cfg, DequantVariant::CoalescedLut, 7, &cold)
                .unwrap();
        assert!(w.stream_window.is_some());
        assert!(ctx.ddr_mapped_bytes() <= DeviceProfile::v73().session_va_bytes);
    }

    #[test]
    fn empty_stream_set_is_the_resident_build() {
        let mut a = NpuContext::new(DeviceProfile::v75(), ExecMode::Functional);
        let cfg = ModelConfig::for_id(ModelId::Tiny);
        let wa = ModelWeights::build(&mut a, &cfg, DequantVariant::CoalescedLut, 7).unwrap();
        let mut b = NpuContext::new(DeviceProfile::v75(), ExecMode::Functional);
        let wb = ModelWeights::build_streamed(&mut b, &cfg, DequantVariant::CoalescedLut, 7, &[])
            .unwrap();
        assert!(wb.stream_window.is_none());
        assert_eq!(wb.stream_layer_bytes, 0);
        assert_eq!(a.ddr_mapped_bytes(), b.ddr_mapped_bytes());
        assert_eq!(b.ddr_staged_bytes(), 0);
        assert_eq!(wa.float_layers[0].wq, wb.float_layers[0].wq);
    }

    #[test]
    fn embed_row_shape() {
        let mut ctx = NpuContext::new(DeviceProfile::v75(), ExecMode::Functional);
        let cfg = ModelConfig::for_id(ModelId::Tiny);
        let w = ModelWeights::build(&mut ctx, &cfg, DequantVariant::CoalescedLut, 7).unwrap();
        let row = w.embed_row(&cfg, 42);
        assert_eq!(row.len(), 64);
        // Deterministic across rebuilds with the same seed.
        let w2 = ModelWeights::build(&mut ctx, &cfg, DequantVariant::CoalescedLut, 7).unwrap();
        assert_eq!(row, w2.embed_row(&cfg, 42));
    }
}
