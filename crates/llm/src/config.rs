//! Model architecture configurations.
//!
//! The five evaluation models use their *published* dimensions, which is
//! what makes the Figure 15 weight-matrix shapes (1536x8960, 2048x11008,
//! 3072x8192, ...) fall out exactly and what drives every latency and
//! memory result.

/// The models evaluated in the paper (Section 7.1), plus a tiny functional
/// test model.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ModelId {
    /// Llama 3.2 1B Instruct ("L1").
    Llama1B,
    /// Llama 3.2 3B Instruct ("L3").
    Llama3B,
    /// Qwen 2.5 1.5B Instruct ("Q1.5").
    Qwen1_5B,
    /// Qwen 2.5 3B Instruct ("Q3").
    Qwen3B,
    /// Qwen 2.5 7B Instruct ("Q7", performance-cost comparison only).
    Qwen7B,
    /// Qwen 2.5 0.5B Instruct ("Q0.5"): the draft model of the Section 9
    /// speculative-decoding pipeline. Not part of the paper's on-device
    /// evaluation set — it rides along with a target model, so it never
    /// appears in [`ModelId::on_device`].
    Qwen0_5B,
    /// Tiny synthetic model for functional tests and examples.
    Tiny,
}

impl ModelId {
    /// Short label used in the paper's figures ("QN"/"LN").
    pub fn label(self) -> &'static str {
        match self {
            ModelId::Llama1B => "L1",
            ModelId::Llama3B => "L3",
            ModelId::Qwen1_5B => "Q1.5",
            ModelId::Qwen3B => "Q3",
            ModelId::Qwen7B => "Q7",
            ModelId::Qwen0_5B => "Q0.5",
            ModelId::Tiny => "tiny",
        }
    }

    /// All deployable on-device models in paper order.
    pub fn on_device() -> Vec<ModelId> {
        vec![
            ModelId::Llama1B,
            ModelId::Llama3B,
            ModelId::Qwen1_5B,
            ModelId::Qwen3B,
        ]
    }
}

/// Architecture hyperparameters of one model.
#[derive(Clone, Debug)]
pub struct ModelConfig {
    /// Which model this is.
    pub id: ModelId,
    /// Human-readable name.
    pub name: &'static str,
    /// Approximate parameter count in billions (for reports).
    pub params_b: f64,
    /// Hidden (embedding) dimension.
    pub hidden: usize,
    /// Number of transformer layers.
    pub layers: usize,
    /// Query heads.
    pub heads: usize,
    /// KV heads (GQA).
    pub kv_heads: usize,
    /// Per-head dimension.
    pub head_dim: usize,
    /// FFN intermediate dimension.
    pub ffn: usize,
    /// Vocabulary size.
    pub vocab: usize,
    /// RoPE base frequency.
    pub rope_theta: f32,
    /// Whether the output head shares the embedding matrix.
    pub tied_embeddings: bool,
}

impl ModelConfig {
    /// Configuration for a model id.
    pub fn for_id(id: ModelId) -> Self {
        match id {
            ModelId::Llama1B => ModelConfig {
                id,
                name: "Llama3.2-1B-Instruct",
                params_b: 1.24,
                hidden: 2048,
                layers: 16,
                heads: 32,
                kv_heads: 8,
                head_dim: 64,
                ffn: 8192,
                vocab: 128_256,
                rope_theta: 500_000.0,
                tied_embeddings: true,
            },
            ModelId::Llama3B => ModelConfig {
                id,
                name: "Llama3.2-3B-Instruct",
                params_b: 3.21,
                hidden: 3072,
                layers: 28,
                heads: 24,
                kv_heads: 8,
                head_dim: 128,
                ffn: 8192,
                vocab: 128_256,
                rope_theta: 500_000.0,
                tied_embeddings: true,
            },
            ModelId::Qwen1_5B => ModelConfig {
                id,
                name: "Qwen2.5-1.5B-Instruct",
                params_b: 1.54,
                hidden: 1536,
                layers: 28,
                heads: 12,
                kv_heads: 2,
                head_dim: 128,
                ffn: 8960,
                vocab: 151_936,
                rope_theta: 1_000_000.0,
                tied_embeddings: true,
            },
            ModelId::Qwen3B => ModelConfig {
                id,
                name: "Qwen2.5-3B-Instruct",
                params_b: 3.09,
                hidden: 2048,
                layers: 36,
                heads: 16,
                kv_heads: 2,
                head_dim: 128,
                ffn: 11_008,
                vocab: 151_936,
                rope_theta: 1_000_000.0,
                tied_embeddings: true,
            },
            ModelId::Qwen7B => ModelConfig {
                id,
                name: "Qwen2.5-7B-Instruct",
                params_b: 7.62,
                hidden: 3584,
                layers: 28,
                heads: 28,
                kv_heads: 4,
                head_dim: 128,
                ffn: 18_944,
                vocab: 152_064,
                rope_theta: 1_000_000.0,
                tied_embeddings: false,
            },
            ModelId::Qwen0_5B => ModelConfig {
                id,
                name: "Qwen2.5-0.5B-Instruct",
                params_b: 0.49,
                hidden: 896,
                layers: 24,
                heads: 14,
                kv_heads: 2,
                head_dim: 64,
                ffn: 4864,
                vocab: 151_936,
                rope_theta: 1_000_000.0,
                tied_embeddings: true,
            },
            ModelId::Tiny => ModelConfig {
                id,
                name: "tiny-test",
                params_b: 0.0004,
                hidden: 64,
                layers: 2,
                heads: 2,
                kv_heads: 1,
                head_dim: 32,
                ffn: 128,
                vocab: 256,
                rope_theta: 10_000.0,
                tied_embeddings: true,
            },
        }
    }

    /// Query heads per KV head (GQA group size).
    pub fn gqa_group(&self) -> usize {
        self.heads / self.kv_heads
    }

    /// Total query projection width (`heads * head_dim`).
    pub fn q_dim(&self) -> usize {
        self.heads * self.head_dim
    }

    /// Total KV projection width (`kv_heads * head_dim`).
    pub fn kv_dim(&self) -> usize {
        self.kv_heads * self.head_dim
    }

    /// NPU-resident weight bytes under the paper's deployment quantization
    /// (Q4_0 at 4.5 bpw everywhere, Q8_0 at 8.5 bpw for FFN down), per layer.
    pub fn npu_layer_weight_bytes(&self) -> u64 {
        let q4_elems = (self.hidden * self.q_dim())      // wq
            + 2 * (self.hidden * self.kv_dim())          // wk, wv
            + (self.q_dim() * self.hidden)               // wo
            + 2 * (self.hidden * self.ffn); // gate, up
        let q8_elems = self.ffn * self.hidden; // down
        (q4_elems as f64 * 4.5 / 8.0 + q8_elems as f64 * 8.5 / 8.0) as u64
    }

    /// Total NPU-resident weight bytes across all layers.
    pub fn npu_weight_bytes(&self) -> u64 {
        self.npu_layer_weight_bytes() * self.layers as u64
    }

    /// Approximate non-embedding parameter count, recovered from the
    /// deployed quantized byte footprint at the blended 4.5 bits/weight of
    /// the paper's deployment ([`Self::npu_weight_bytes`] · 8 / 4.5).
    ///
    /// Every analytic baseline scales from this one number: FLOP counts
    /// are `2 · float_params()` per token, and an FP16 deployment streams
    /// `2 · float_params()` weight bytes per decode step.
    pub fn float_params(&self) -> f64 {
        self.npu_weight_bytes() as f64 / 4.5 * 8.0
    }

    /// KV cache bytes of *one layer* for a total context budget of
    /// `budget` tokens (FP16 K and V rows). The cache is allocated one
    /// buffer per layer, which is what lets multi-session sharding
    /// colocate each layer's KV slice with that layer's weights.
    pub fn kv_cache_layer_bytes(&self, budget: usize) -> u64 {
        (2 * self.kv_dim() * budget * 2) as u64
    }

    /// KV cache bytes for a total context budget of `budget` tokens
    /// (FP16 K and V across all layers).
    pub fn kv_cache_bytes(&self, budget: usize) -> u64 {
        self.layers as u64 * self.kv_cache_layer_bytes(budget)
    }

    /// CPU-resident bytes: the lm_head/embedding matrix (kept on the CPU
    /// because the Hexagon session address space cannot hold the logits
    /// tensor, Section 7.2.2), stored Q8-like at ~1 byte/weight.
    pub fn cpu_lm_head_bytes(&self) -> u64 {
        (self.vocab * self.hidden) as u64
    }

    /// Approximate dmabuf (NPU shared memory) footprint at a context
    /// budget, reproducing the paper's reported 1056 MiB (1.5B) and
    /// 2090 MiB (3B) at 4096 tokens (Section 7.5).
    pub fn dmabuf_bytes(&self, budget: usize) -> u64 {
        // Weights + KV cache + activation/staging pool (~64 MiB).
        self.npu_weight_bytes() + self.kv_cache_bytes(budget) + 64 * 1024 * 1024
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_15_matrix_shapes_fall_out() {
        let q15 = ModelConfig::for_id(ModelId::Qwen1_5B);
        assert_eq!(q15.q_dim(), 1536); // 1536x1536 Wq.
        assert_eq!(q15.ffn, 8960); // 1536x8960 / 8960x1536.
        let l1 = ModelConfig::for_id(ModelId::Llama1B);
        assert_eq!(l1.q_dim(), 2048); // 2048x2048.
        assert_eq!(l1.ffn, 8192); // 2048x8192 / 8192x2048.
        let q3 = ModelConfig::for_id(ModelId::Qwen3B);
        assert_eq!(q3.ffn, 11_008); // 2048x11008 / 11008x2048.
        let l3 = ModelConfig::for_id(ModelId::Llama3B);
        assert_eq!(l3.q_dim(), 3072); // 3072x3072 / 3072x8192.
    }

    #[test]
    fn parameter_counts_are_roughly_right() {
        for id in [ModelId::Llama1B, ModelId::Qwen1_5B, ModelId::Qwen3B] {
            let cfg = ModelConfig::for_id(id);
            // Rough parameter reconstruction: layers * (attn + ffn) + embed.
            let per_layer = cfg.hidden * cfg.q_dim()
                + 2 * cfg.hidden * cfg.kv_dim()
                + cfg.q_dim() * cfg.hidden
                + 3 * cfg.hidden * cfg.ffn;
            let embed = cfg.vocab * cfg.hidden;
            let total = (cfg.layers * per_layer + embed) as f64 / 1e9;
            assert!(
                (total - cfg.params_b).abs() / cfg.params_b < 0.25,
                "{}: reconstructed {total}B vs declared {}B",
                cfg.name,
                cfg.params_b
            );
        }
    }

    #[test]
    fn dmabuf_footprints_match_paper_section_7_5() {
        // Paper: 1056 MiB (Qwen2.5-1.5B) and 2090 MiB (Qwen2.5-3B) of
        // dmabuf at a 4096-token context budget.
        let mib = |b: u64| b as f64 / (1024.0 * 1024.0);
        let q15 = ModelConfig::for_id(ModelId::Qwen1_5B).dmabuf_bytes(4096);
        let q3 = ModelConfig::for_id(ModelId::Qwen3B).dmabuf_bytes(4096);
        assert!(
            (mib(q15) - 1056.0).abs() < 160.0,
            "1.5B dmabuf {} MiB vs paper 1056",
            mib(q15)
        );
        assert!(
            (mib(q3) - 2090.0).abs() < 250.0,
            "3B dmabuf {} MiB vs paper 2090",
            mib(q3)
        );
    }

    #[test]
    fn gqa_groups() {
        assert_eq!(ModelConfig::for_id(ModelId::Qwen1_5B).gqa_group(), 6);
        assert_eq!(ModelConfig::for_id(ModelId::Llama1B).gqa_group(), 4);
        assert_eq!(ModelConfig::for_id(ModelId::Qwen7B).gqa_group(), 7);
    }

    #[test]
    fn model_over_2gib_exceeds_v73_session() {
        // The Figure 11 gate: 3B models cannot map on Snapdragon 8 Gen 2.
        let q3 = ModelConfig::for_id(ModelId::Qwen3B);
        assert!(q3.dmabuf_bytes(4096) > 2 * 1024 * 1024 * 1024);
        let q15 = ModelConfig::for_id(ModelId::Qwen1_5B);
        assert!(q15.dmabuf_bytes(4096) < 2 * 1024 * 1024 * 1024);
    }

    #[test]
    fn draft_model_is_a_fraction_of_its_target() {
        let q05 = ModelConfig::for_id(ModelId::Qwen0_5B);
        assert_eq!(q05.hidden % 32, 0);
        assert_eq!(q05.ffn % 32, 0);
        assert_eq!(q05.q_dim() % 32, 0);
        assert_eq!(q05.kv_dim() % 32, 0);
        // The draft rides alongside Qwen-1.5B as its target: its NPU
        // kernels must cost a small fraction of a target step.
        let q15 = ModelConfig::for_id(ModelId::Qwen1_5B);
        let ratio = q05.npu_weight_bytes() as f64 / q15.npu_weight_bytes() as f64;
        assert!(
            ratio > 0.15 && ratio < 0.4,
            "draft/target NPU weight ratio {ratio}"
        );
        // It is not one of the paper's deployable evaluation models.
        assert!(!ModelId::on_device().contains(&ModelId::Qwen0_5B));
    }

    #[test]
    fn tiny_model_is_tile_aligned() {
        let t = ModelConfig::for_id(ModelId::Tiny);
        assert_eq!(t.hidden % 32, 0);
        assert_eq!(t.ffn % 32, 0);
        assert_eq!(t.q_dim() % 32, 0);
        assert_eq!(t.kv_dim() % 32, 0);
    }
}
