//! Transformer inference substrate (llama.cpp analog) for the EuroSys '26
//! mobile-NPU test-time-scaling reproduction.
//!
//! Provides the model zoo the paper evaluates — Qwen 2.5 (1.5B/3B/7B) and
//! Llama 3.2 (1B/3B) with their *published* architectural dimensions — plus
//! a tiny functional configuration for bit-level testing. Real checkpoints
//! are unavailable, so weights are seeded synthetic
//! Gaussians; throughput/latency/memory results depend only on shapes and
//! layouts, which are exact.
//!
//! - [`config`] — model architectures (the Figure 15 weight shapes fall out
//!   of these numbers).
//! - [`weights`] — synthetic quantized weights resident in simulated DDR
//!   (Q4_0 everywhere, Q8_0 for the FFN down projection, per Section 7.1),
//!   with dmabuf-style memory accounting (Figure 16).
//! - [`kv_cache`] — batched KV cache with a fixed context budget and
//!   slot reuse (reset/snapshot/restore) for continuous batching.
//! - [`model`] — the NPU forward pass: every matmul through
//!   [`htpops::gemm`], attention through the paper's FP16 FlashAttention,
//!   lm_head on the CPU (Section 7.2.2's deliberate placement).
//! - [`decode_session`] — continuous-batching decode (`admit` / `step` /
//!   `retire` over a shared prompt), the dynamic-batch API static QNN
//!   graphs cannot express.
//! - [`cpu_ref`] — f32 reference forward for validation.
//! - [`tokenizer`] — deterministic byte-level tokenizer for the synthetic
//!   math workloads.
//! - [`ppl`] — teacher-forced perplexity and logit-divergence measurement.

pub mod config;
pub mod cpu_ref;
pub mod decode_session;
pub mod kv_cache;
pub mod model;
pub mod overlap;
pub mod ppl;
pub mod tokenizer;
pub mod weights;

pub use config::{ModelConfig, ModelId};
pub use decode_session::{DecodeSession, FinishedSeq, PreemptedSeq, SeqId};
pub use kv_cache::{KvCache, KvSeqSnapshot};
pub use model::{DecodeOutput, LayerSchedule, Model, StepCost};
pub use overlap::{DispatchMode, LayerStage, StepStages};
pub use tokenizer::Tokenizer;
