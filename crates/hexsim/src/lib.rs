//! Functional + cost-model simulator of a Hexagon-class mobile NPU.
//!
//! This crate is the hardware substrate for the reproduction of *"Scaling LLM
//! Test-Time Compute with Mobile NPU on Smartphones"* (EuroSys '26). The paper
//! evaluates on real Snapdragon silicon (Hexagon V73/V75/V79); this simulator
//! replaces that hardware with:
//!
//! - a **functional model** that computes real bytes for every operation the
//!   paper's kernels rely on — IEEE binary16 arithmetic ([`f16::F16`]), the
//!   1024-bit HVX vector unit with `vlut16`/`vgather`/shuffle instructions
//!   ([`hvx`]), and the HMX 32x32 FP16 tile matrix engine with its two-level
//!   interleaved memory layout ([`hmx`]); and
//! - a **cost model** ([`cost::CostModel`]) that charges cycles, bytes and
//!   tile-ops to per-engine accumulators, calibrated against the numbers the
//!   paper reports (Table 2 unit throughput, `vgather` packet latency, DMA
//!   and core-path bandwidths), so that latency figures are *derived* from
//!   instruction traces rather than hardcoded.
//!
//! The two models share one code path: kernels emit operations through
//! [`ctx::NpuContext`], which charges their cost and, in functional mode,
//! executes them. For paper-scale shapes, cost-only mode charges without
//! computing, and [`ctx::NpuContext::replay`] measures one representative
//! block and scales the cost delta, keeping simulation time bounded while
//! preserving cost exactness for data-independent kernels. A kernel reads
//! what a stretch of its work cost one way: [`cost::CostModel::snapshot`]
//! before it, [`cost::CostModel::delta_since`] after.
//!
//! The host-to-NPU transport (the paper's rpcmem command ring, Section 6)
//! is not simulated here: the runtime above charges a calibrated per-op
//! dispatch overhead for it.
//!
//! # Examples
//!
//! ```
//! use hexsim::prelude::*;
//!
//! let device = DeviceProfile::v75();
//! let mut ctx = NpuContext::new(device, ExecMode::Functional);
//! let a = ctx.tcm_alloc(2048, 2048).unwrap();
//! assert_eq!(a.0 % 2048, 0);
//! ```

pub mod cost;
pub mod ctx;
pub mod device;
pub mod error;
pub mod f16;
pub mod hmx;
pub mod hvx;
pub mod mem;
pub mod timeline;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::cost::{CostModel, Engine, PhaseCost};
    pub use crate::ctx::{ExecMode, NpuContext};
    pub use crate::device::{DeviceProfile, NpuArch};
    pub use crate::error::{SimError, SimResult};
    pub use crate::f16::F16;
    pub use crate::hmx::{HmxAccumulator, TILE_BYTES, TILE_DIM};
    pub use crate::hvx::{HvxVec, HVX_BYTES, HVX_HALVES, HVX_WORDS};
    pub use crate::mem::{DdrBuffer, TcmAddr};
    pub use crate::timeline::{TaskId, Timeline};
}
