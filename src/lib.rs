//! Umbrella crate for the reproduction of *"Scaling LLM Test-Time Compute
//! with Mobile NPU on Smartphones"* (EuroSys '26).
//!
//! Re-exports the full stack so examples and integration tests can reach
//! every layer through one dependency:
//!
//! - [`hexsim`] — the Hexagon-class NPU simulator (HVX/HMX/TCM/DMA).
//! - [`tilequant`] — Q4_0/Q8_0, tile-group layout, super-group coalescing.
//! - [`htpops`] — the NPU kernel library (LUT dequant, LUT softmax,
//!   FlashAttention, mixed-precision GEMM).
//! - [`edgellm`] — the transformer runtime (models, KV cache, forward).
//! - [`ttscale`] — Best-of-N, beam search, self-consistency.
//! - [`mathsynth`] — verifiable synthetic workloads.
//! - [`npuscale`] — the end-to-end system and experiment drivers.
//!
//! # Examples
//!
//! ```
//! use npuscale_repro::prelude::*;
//!
//! // Plan the paper's single-session deployment, build it, measure it.
//! let device = DeviceProfile::v75();
//! let cfg = ModelConfig::for_id(ModelId::Qwen1_5B);
//! let plan = ShardPlan::single_session(&cfg, device.session_va_bytes, 8, 1024).unwrap();
//! let deployment = Deployment::new(&device, ModelId::Qwen1_5B, &plan, DispatchMode::Serial);
//! let point = deployment.unwrap().decode(8, 1024).unwrap();
//! assert!(point.tokens_per_sec > 10.0);
//! ```

pub use edgellm;
pub use hexsim;
pub use htpops;
pub use mathsynth;
pub use npuscale;
pub use tilequant;
pub use ttscale;

/// The most commonly used items across the stack.
pub mod prelude {
    pub use edgellm::config::{ModelConfig, ModelId};
    pub use edgellm::decode_session::{DecodeSession, PreemptedSeq, SeqId};
    pub use edgellm::kv_cache::KvCache;
    pub use edgellm::model::{LayerSchedule, Model};
    pub use edgellm::overlap::DispatchMode;
    pub use edgellm::tokenizer::Tokenizer;
    pub use hexsim::prelude::*;
    pub use htpops::exp_lut::ExpMethod;
    pub use htpops::gemm::DequantVariant;
    pub use mathsynth::mathgen::{DatasetKind, TaskGenerator};
    pub use npuscale::backend::{baselines, Backend, FitReport, NpuSimBackend};
    pub use npuscale::pipeline::Deployment;
    pub use npuscale::power::PowerModel;
    pub use npuscale::serve::{
        poisson_trace, FleetGateway, FleetSpec, GatewayConfig, PrefillMode, Request, ServingReport,
        SloConfig, TenantSpec,
    };
    pub use npuscale::session::{LayerShard, MultiSession, ShardPlan};
    pub use ttscale::policy::CalibratedPolicy;
    pub use ttscale::verifier::{SimOrm, SimPrm};
}
