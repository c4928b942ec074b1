//! `npuscale` — the end-to-end LLM inference system for NPU test-time
//! scaling: the paper's primary contribution, assembled from the substrate
//! crates.
//!
//! - [`backend`] — the [`backend::Backend`] trait every execution engine
//!   implements (`fits`/`decode`/`prefill`), with the simulated NPU
//!   runtime and the GPU/QNN/CPU rooflines behind one
//!   `&[Box<dyn Backend>]` interface.
//! - [`session`] — the paper's Section 8 multi-session sharding:
//!   [`session::MultiSession`] VA placement lowered to an executable
//!   [`session::ShardPlan`]. Re-exports the continuous-batching
//!   [`session::DecodeSession`] decode API.
//! - [`pipeline`] — the one way a deployment is built: a
//!   [`pipeline::Deployment`] of a [`session::ShardPlan`] under a dispatch
//!   mode, consumed by decode/prefill measurements over the full model
//!   forward (Figures 11, 13, 17).
//! - [`power`] — activity-based power/energy accounting (Figure 12).
//! - [`memory`] — dmabuf/CPU-RSS/CPU-utilization accounting (Figure 16).
//! - [`baselines`] — analytic llama.cpp-OpenCL (Adreno GPU), QNN-FP16 and
//!   mobile-CPU roofline constants (Figure 13); execute them through
//!   [`backend`].
//! - [`pareto`] — accuracy-vs-latency joins for the test-time-scaling
//!   trade-off (Figure 10).
//! - [`experiments`] — one row-generator per paper table/figure; the
//!   `paper_figures` example prints exactly these rows. The
//!   system-comparison generators (Figures 13, 16, 17) consume
//!   `&[Box<dyn Backend>]`. Where a row would only copy a measurement,
//!   a generator returns the measurement itself: `(Backend::name(),
//!   point)` pairs for Figures 13 and 17, `[serial, overlapped]`
//!   decode points, speculation points and `[fixed, adaptive]` pairs,
//!   whose ratios each caller divides out.
//! - [`serve`] — the fleet-scale serving gateway: seeded Poisson /
//!   trace-replay arrivals, bounded priority admission, chunked prefill
//!   interleaved with continuous-batching decode, SLO metrics
//!   (TTFT/TBT percentiles, goodput) over a heterogeneous device fleet.
//! - [`thermal`] — the power-to-latency feedback loop: lumped RC die
//!   model, burst/sustained DVFS governor with hysteresis, and the
//!   sustained-vs-burst decode curves a phone actually delivers under
//!   multi-minute load.

pub mod backend;
pub mod baselines;
pub mod experiments;
pub mod memory;
pub mod pareto;
pub mod pipeline;
pub mod power;
pub mod serve;
pub mod session;
pub mod spec;
pub mod thermal;

pub use backend::{Backend, FitReport, NpuSimBackend};
pub use pipeline::{DecodePoint, PrefillPoint};
pub use power::PowerModel;
pub use session::{DecodeSession, LayerShard, ShardPlan};
pub use thermal::{sustained_decode_curve, DvfsGovernor, SustainedCurve, ThermalState};
