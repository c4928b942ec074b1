//! `npuscale::serve` — a fleet-scale serving gateway over the simulated
//! NPU runtime: seeded arrival traces, admission control, chunked
//! prefill interleaved with continuous-batching decode, and SLO metrics.
//!
//! The paper evaluates one phone decoding one workload; this subsystem
//! asks the deployment question behind it: what happens when a *fleet*
//! of heterogeneous devices (Hexagon V73/V75/V79, resident and
//! weight-streamed plans) serves an online request stream? The gateway
//! is a deterministic discrete-event simulator built from the pieces the
//! repo already has:
//!
//! - [`arrivals`] — seeded Poisson arrival generation over per-tenant
//!   specs (mixed prompt/output lengths, priorities) plus trace replay;
//! - [`scheduler`] — the admission queue (bounded, priority-ordered,
//!   evict-lowest on overflow), the per-worker capacity plan gated on
//!   [`crate::backend::Backend::fits`], and the dispatch oracle that
//!   predicts completion times from measured
//!   [`crate::pipeline::DecodePoint`]s;
//! - [`gateway`] — the event loop: each worker runs a
//!   [`crate::session::DecodeSession`] in cost-only mode, decode steps
//!   are charged at the overlap model's steady-state critical path, and
//!   prompt prefills either stall the batch
//!   ([`scheduler::PrefillMode::Monolithic`]) or ride the decode walk
//!   chunk by chunk ([`scheduler::PrefillMode::Chunked`], charged via
//!   [`edgellm::overlap::StepStages::merged`]);
//! - [`metrics`] — SLO attainment: TTFT/TBT percentiles, queue wait,
//!   goodput under a [`metrics::SloConfig`], per-device utilization.
//!
//! # Examples
//!
//! Serve a seeded two-tenant Poisson trace on a single 8 Gen 3 worker
//! with chunked prefill:
//!
//! ```
//! use edgellm::config::ModelId;
//! use hexsim::prelude::*;
//! use npuscale::serve::{
//!     poisson_trace, FleetGateway, FleetSpec, GatewayConfig, TenantSpec,
//! };
//!
//! let tenants = [
//!     TenantSpec::interactive("chat"),
//!     TenantSpec::batch("summarize"),
//! ];
//! let trace = poisson_trace(&tenants, 4.0, 8, 7);
//! let fleet = FleetSpec::single(ModelId::Qwen1_5B, DeviceProfile::v75(), false);
//! let gateway = FleetGateway::new(fleet, GatewayConfig::default()).unwrap();
//! let report = gateway.serve_trace(&trace).unwrap();
//! assert_eq!(report.completed + report.rejected, 8);
//! assert!(report.makespan_secs > 0.0);
//! ```

pub mod arrivals;
pub mod gateway;
pub mod metrics;
pub mod scheduler;

pub use arrivals::{
    bursty_trace, merge_traces, poisson_trace, replay_trace, BurstSpec, Request, TenantSpec,
};
pub use gateway::{FleetGateway, ServingReport, TenantReport, WorkerReport};
pub use metrics::{jain_index, percentile, SloConfig};
pub use scheduler::{
    predicted_completion_secs, predicted_completion_secs_thermal, strict_before, wfq_before,
    AdmissionQueue, FleetSpec, GatewayConfig, PreemptionPolicy, PrefillMode, QueueEntry,
    SchedulingPolicy, ThermalPolicy, WfqState, WorkerOracle, WorkerSpec,
};
