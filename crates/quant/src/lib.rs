//! Quantization substrate for the EuroSys '26 mobile-NPU test-time-scaling
//! reproduction.
//!
//! Implements every quantization scheme the paper touches:
//!
//! - **Q4_0 / Q8_0 group quantization** ([`block`]) — llama.cpp-compatible
//!   32-element groups with an FP16 scale (4.5 / 8.5 bits per weight).
//! - **Weight layouts** ([`layout`]) — the conventional column-major group
//!   layout used by CPU dot-product kernels, and the paper's *tile-group*
//!   layout (Section 5.1.1): weights permuted into the HMX tile order
//!   *before* round-to-nearest quantization, so that dequantized values
//!   stream contiguously into TCM.
//! - **Super-group coalescing** ([`super_group`], paper Figure 7) — eight
//!   Q4_0 groups repacked so 256 INT4 values fill one 128-byte HVX register,
//!   with the eight scales gathered behind them.
//! - **Per-channel quantization** ([`channel`]) — the coarse-grained
//!   scheme QNN supports, which Table 1 shows destroys reasoning
//!   accuracy.
//! - **AWQ-lite** ([`awq`]) — activation-aware per-input-channel
//!   equalization before group quantization, the paper's accuracy baseline.
//! - **Error metrics** ([`metrics`]) and a synthetic LLM-like weight
//!   generator with outlier channels ([`synth`]) used by the accuracy
//!   experiments.

pub mod awq;
pub mod block;
pub mod channel;
pub mod layout;
pub mod metrics;
pub mod super_group;
pub mod synth;

pub use block::{BlockQ4_0, BlockQ8_0, GROUP_SIZE};
pub use layout::{QuantScheme, QuantizedMatrix, WeightLayout};
pub use metrics::QuantError;
pub use super_group::{SuperBlockQ4, SuperBlockQ8};
