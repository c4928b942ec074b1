//! NPU sessions: the paper's Section 8 multi-session workaround and the
//! continuous-batching decode API.
//!
//! The paper's runtime (Section 6) starts a remote NPU session over
//! FastRPC, then passes each op's descriptor through a shared-memory
//! command ring that an NPU-side thread polls. This reproduction prices
//! that transport without modelling the ring itself: the layer walk in
//! `edgellm::model` charges a calibrated per-op dispatch overhead, and
//! `edgellm::overlap` schedules it as the DISPATCH lane.
//!
//! `MultiSession` implements the paper's sketched workaround (Section 8)
//! for the 32-bit per-session VA limit: weights spread across several
//! sessions, each with its own VA budget. [`ShardPlan`] turns that
//! allocator into an executable placement — contiguous layer ranges per
//! session plus a KV-cache home — which [`crate::backend::Backend::fits`]
//! reports as a shard count and a [`crate::pipeline::Deployment`]
//! actually runs, charging a 30 µs session switch at every shard
//! boundary of the walk.
//!
//! This module also re-exports the continuous-batching [`DecodeSession`]
//! (implemented in `edgellm::decode_session`, where the model and KV cache
//! live): the `admit`/`step`/`retire` decode API whose dynamic batches are
//! the paper's argument for bypassing QNN's static graphs.
//!
//! # Examples
//!
//! Plan a deployment that exceeds one session and lower it to the layer
//! walk the forward pass executes:
//!
//! ```
//! use edgellm::config::{ModelConfig, ModelId};
//! use hexsim::prelude::*;
//! use npuscale::session::ShardPlan;
//!
//! // Qwen-7B (~4.6 GB of Q4/Q8 weights) on the paper's primary device:
//! // two 4 GiB sessions.
//! let cfg = ModelConfig::for_id(ModelId::Qwen7B);
//! let va = DeviceProfile::v75().session_va_bytes;
//! let plan = ShardPlan::build(&cfg, va, 1, 1024).unwrap();
//! assert_eq!(plan.sessions(), 2);
//!
//! // The plan lowers to the schedule the model's layer walk consumes:
//! // decode crosses one shard boundary and wraps back, paying two
//! // session switches per step.
//! let schedule = plan.schedule();
//! assert_eq!(schedule.boundaries.len(), 1);
//! assert_eq!(schedule.switches_per_pass(), 2);
//! assert!(plan.switch_overhead_secs() < 100e-6);
//!
//! // Per-session byte totals respect the VA cap.
//! for &bytes in &plan.session_bytes {
//!     assert!(bytes <= va);
//! }
//! ```

use std::ops::Range;

use hexsim::prelude::*;

pub use edgellm::decode_session::{DecodeSession, FinishedSeq, PreemptedSeq, SeqId};

/// Multiple NPU sessions splitting a weight set across VA spaces — the
/// paper's Section 8 workaround for models that exceed one session's
/// 32-bit address space.
pub struct MultiSession {
    /// Per-session VA capacity in bytes.
    pub va_per_session: u64,
    /// Bytes mapped into each open session.
    pub mapped: Vec<u64>,
}

impl MultiSession {
    /// Creates a multi-session allocator.
    pub fn new(va_per_session: u64) -> Self {
        MultiSession {
            va_per_session,
            mapped: vec![0],
        }
    }

    /// Maps a buffer, opening new sessions as needed. Returns the session
    /// index the buffer landed in.
    pub fn map(&mut self, bytes: u64) -> SimResult<usize> {
        if bytes > self.va_per_session {
            return Err(SimError::VaSpaceExceeded {
                capacity: self.va_per_session,
                mapped: 0,
                requested: bytes,
            });
        }
        for (i, used) in self.mapped.iter_mut().enumerate() {
            if *used + bytes <= self.va_per_session {
                *used += bytes;
                return Ok(i);
            }
        }
        self.mapped.push(bytes);
        Ok(self.mapped.len() - 1)
    }

    /// Number of open sessions.
    pub fn sessions(&self) -> usize {
        self.mapped.len()
    }
}

/// Default CPU-side cost of switching command dispatch between NPU
/// sessions, in seconds: a FastRPC handle swap plus cache maintenance on
/// the new session's command ring. A few of these per decode step is the
/// price the paper's Section 8 workaround pays for breaking the 32-bit
/// VA ceiling; it is small next to the ~1.4 ms of per-layer dispatch a
/// 3B model already spends.
const SESSION_SWITCH_SECS: f64 = 30e-6;

/// One contiguous run of transformer layers resident in one NPU session.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LayerShard {
    /// Session index holding these layers' weights.
    pub session: usize,
    /// First layer of the run.
    pub start: usize,
    /// One past the last layer of the run.
    pub end: usize,
}

impl LayerShard {
    /// Number of layers in the shard.
    pub fn layers(&self) -> usize {
        self.end - self.start
    }
}

/// Placement of a model across NPU session VA spaces — the paper's
/// Section 8 workaround made concrete. Each layer's weights *and its KV
/// slice* (the cache is one buffer per layer, `[layer][seq]` layout) are
/// assigned to sessions together through [`MultiSession`] first-fit —
/// whole layers only, one layer never splits across sessions — producing
/// contiguous layer ranges per session. Colocating a layer's KV with its
/// weights means every op of a layer dispatches in one session, so the
/// only cross-session traffic is at shard boundaries, and `sessions() >
/// 1` always comes with a non-empty boundary list. The plan both
/// *proves* the deployment fits (construction fails with
/// [`SimError::VaSpaceExceeded`] only when one layer's weights + KV
/// exceed a whole session) and *drives* execution: it lowers to the
/// [`edgellm::model::LayerSchedule`] the forward pass walks, charging
/// [`ShardPlan::switch_secs`] at every shard boundary.
///
/// # Examples
///
/// Qwen-3B exceeds the Snapdragon 8 Gen 2's ~2 GiB session, so its 36
/// layers split across two sessions:
///
/// ```
/// use edgellm::config::{ModelConfig, ModelId};
/// use hexsim::prelude::*;
/// use npuscale::session::ShardPlan;
///
/// let cfg = ModelConfig::for_id(ModelId::Qwen3B);
/// let va = DeviceProfile::v73().session_va_bytes;
/// let plan = ShardPlan::build(&cfg, va, 1, 1024).unwrap();
/// assert_eq!(plan.sessions(), 2);
/// assert_eq!(plan.shards.len(), 2);
/// assert_eq!(plan.shards[0].start, 0);
/// assert_eq!(plan.shards[1].end, cfg.layers);
/// // Two shards: one boundary switch + one wrap-around per decode step.
/// assert_eq!(plan.schedule().switches_per_pass(), 2);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct ShardPlan {
    /// Contiguous layer ranges in execution order, one per shard (each
    /// shard holds its layers' weights and KV slices).
    pub shards: Vec<LayerShard>,
    /// Total device-resident bytes the plan accounts (weights + KV).
    pub bytes: u64,
    /// Bytes mapped into each open session.
    pub session_bytes: Vec<u64>,
    /// CPU seconds charged per session switch during execution.
    pub switch_secs: f64,
    /// Ascending indices of cold layers whose weights live in the DDR
    /// staging region and stream through the double-buffered window;
    /// empty for fully resident plans (the historical layout).
    pub streamed: Vec<usize>,
    /// Weight bytes fetched per streamed layer.
    pub stream_layer_bytes: u64,
    /// Session-resident bytes of the double-buffered streaming window
    /// (two cold-layer slots); zero for resident plans.
    pub window_bytes: u64,
    /// Bytes parked in the CPU-owned DDR staging region (cold weights);
    /// zero for resident plans.
    pub staged_bytes: u64,
}

impl ShardPlan {
    /// Plans a decode deployment: layer weights plus a KV cache sized for
    /// `batch` sequences at `ctx_len` context (the same `batch * (ctx_len
    /// + 2)` budget a [`crate::pipeline::Deployment`] allocates; a prefill
    /// of `n` tokens plans as one sequence at context `n`).
    pub fn build(
        cfg: &edgellm::config::ModelConfig,
        va_per_session: u64,
        batch: usize,
        ctx_len: usize,
    ) -> SimResult<Self> {
        Self::place(cfg, va_per_session, batch, ctx_len, 0..0)
    }

    /// Plans the paper's single-session deployment: the resident plan of
    /// [`ShardPlan::build`], rejected with [`SimError::VaSpaceExceeded`]
    /// when it needs more than one session. This is the Section 7.2.1 VA
    /// gate, the refusal the Snapdragon 8 Gen 2 gives a 3B model without
    /// the Section 8 sharding workaround.
    pub fn single_session(
        cfg: &edgellm::config::ModelConfig,
        va_per_session: u64,
        batch: usize,
        ctx_len: usize,
    ) -> SimResult<Self> {
        let plan = Self::build(cfg, va_per_session, batch, ctx_len)?;
        if plan.sessions() > 1 {
            return Err(SimError::VaSpaceExceeded {
                capacity: va_per_session,
                mapped: 0,
                requested: plan.bytes,
            });
        }
        Ok(plan)
    }

    /// Plans a *streaming* decode deployment: hot layers (the first and
    /// last, whose weights sandwich the CPU embedding / lm_head work)
    /// stay session-resident, while the cold middle layers park their
    /// weights in the CPU-owned DDR staging region and stream through a
    /// double-buffered window of two cold-layer slots. Every layer's KV
    /// slice stays session-resident — attention reads it every step, and
    /// it is written in place. The result needs far fewer sessions than
    /// [`ShardPlan::build`] (weights dominate KV at decode batch sizes)
    /// and can map models whose resident footprint exceeds the whole
    /// session envelope.
    pub fn build_streaming(
        cfg: &edgellm::config::ModelConfig,
        va_per_session: u64,
        batch: usize,
        ctx_len: usize,
    ) -> SimResult<Self> {
        // With fewer than three layers nothing lies between the hot first
        // and last layer, and the plan is the resident one.
        let cold = 1..cfg.layers.saturating_sub(1);
        Self::place(cfg, va_per_session, batch, ctx_len, cold)
    }

    /// First-fit placement of every layer through [`MultiSession`]: a
    /// layer in `streamed` maps only its KV slice, any other layer its
    /// weights plus its KV slice. With streamed layers, the two-slot
    /// streaming window maps first, so it shares session 0 with the entry
    /// layer's weights (fetches and the walk start in one session); a
    /// resident plan (`streamed` empty) maps no window.
    fn place(
        cfg: &edgellm::config::ModelConfig,
        va_per_session: u64,
        batch: usize,
        ctx_len: usize,
        streamed: Range<usize>,
    ) -> SimResult<Self> {
        let weight_bytes = cfg.npu_layer_weight_bytes();
        let kv_bytes = cfg.kv_cache_layer_bytes(batch * (ctx_len + 2));
        let stream_layer_bytes = if streamed.is_empty() { 0 } else { weight_bytes };
        let window_bytes = 2 * stream_layer_bytes;
        let mut ms = MultiSession::new(va_per_session);
        ms.map(window_bytes)?;
        let mut shards: Vec<LayerShard> = Vec::new();
        let mut bytes = window_bytes;
        for layer in 0..cfg.layers {
            // A layer travels as one unit: its KV slice plus, unless it
            // streams, its weights, so attention never reaches across
            // sessions.
            let unit = if streamed.contains(&layer) {
                kv_bytes
            } else {
                weight_bytes + kv_bytes
            };
            let session = ms.map(unit)?;
            bytes += unit;
            match shards.last_mut() {
                Some(shard) if shard.session == session => shard.end = layer + 1,
                _ => shards.push(LayerShard {
                    session,
                    start: layer,
                    end: layer + 1,
                }),
            }
        }
        let streamed: Vec<usize> = streamed.collect();
        Ok(ShardPlan {
            shards,
            bytes,
            session_bytes: ms.mapped,
            switch_secs: SESSION_SWITCH_SECS,
            staged_bytes: streamed.len() as u64 * weight_bytes,
            streamed,
            stream_layer_bytes,
            window_bytes,
        })
    }

    /// Number of NPU sessions the deployment opens.
    pub fn sessions(&self) -> usize {
        self.session_bytes.len()
    }

    /// Whether execution crosses session boundaries.
    pub fn is_sharded(&self) -> bool {
        self.shards.len() > 1
    }

    /// Layer indices at which a new session's weights begin (the first
    /// shard at layer 0 is implicit), ascending.
    pub fn boundaries(&self) -> Vec<usize> {
        self.shards.iter().skip(1).map(|s| s.start).collect()
    }

    /// Lowers the placement to the execution schedule the model's layer
    /// walk consumes.
    pub fn schedule(&self) -> edgellm::model::LayerSchedule {
        edgellm::model::LayerSchedule {
            boundaries: self.boundaries(),
            switch_secs: self.switch_secs,
            streamed: self.streamed.clone(),
            stream_layer_bytes: self.stream_layer_bytes,
        }
    }

    /// Whether cold layers stream from the DDR staging region.
    pub fn is_streaming(&self) -> bool {
        !self.streamed.is_empty()
    }

    /// Total session-switch seconds one full layer walk (one decode step
    /// or one prefill pass) pays under this plan.
    pub fn switch_overhead_secs(&self) -> f64 {
        self.schedule().switches_per_pass() as f64 * self.switch_secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(id: edgellm::config::ModelId, device: &DeviceProfile) -> ShardPlan {
        let cfg = edgellm::config::ModelConfig::for_id(id);
        ShardPlan::build(&cfg, device.session_va_bytes, 1, 1024).unwrap()
    }

    #[test]
    fn qwen3b_plan_on_8g2_uses_two_contiguous_shards() {
        use edgellm::config::{ModelConfig, ModelId};
        let cfg = ModelConfig::for_id(ModelId::Qwen3B);
        let p = plan(ModelId::Qwen3B, &DeviceProfile::v73());
        assert_eq!(p.sessions(), 2);
        assert_eq!(p.shards.len(), 2);
        // Shards tile the layer range contiguously and in order.
        assert_eq!(p.shards[0].start, 0);
        assert_eq!(p.shards[0].end, p.shards[1].start);
        assert_eq!(p.shards[1].end, cfg.layers);
        assert_eq!(p.boundaries(), vec![p.shards[1].start]);
        // Per-session bytes respect the VA cap.
        for &b in &p.session_bytes {
            assert!(b <= DeviceProfile::v73().session_va_bytes);
        }
        // Total bytes account every layer plus the KV cache.
        let expected = cfg.npu_weight_bytes() + cfg.kv_cache_bytes(1026);
        assert_eq!(p.bytes, expected);
        assert!((p.switch_overhead_secs() - 2.0 * SESSION_SWITCH_SECS).abs() < 1e-15);
    }

    #[test]
    fn small_models_plan_single_session() {
        use edgellm::config::ModelId;
        let p = plan(ModelId::Qwen1_5B, &DeviceProfile::v75());
        assert_eq!(p.sessions(), 1);
        assert!(!p.is_sharded());
        assert!(p.boundaries().is_empty());
        assert_eq!(p.schedule().switches_per_pass(), 0);
        assert_eq!(p.switch_overhead_secs(), 0.0);
    }

    #[test]
    fn qwen7b_plans_sharded_everywhere() {
        use edgellm::config::ModelId;
        // ~4.6 GB of weights: two sessions on the 4 GiB-VA devices, three
        // on the 8 Gen 2 — the deployment the single-session repo could
        // never express.
        assert_eq!(plan(ModelId::Qwen7B, &DeviceProfile::v75()).sessions(), 2);
        assert_eq!(plan(ModelId::Qwen7B, &DeviceProfile::v79()).sessions(), 2);
        assert_eq!(plan(ModelId::Qwen7B, &DeviceProfile::v73()).sessions(), 3);
    }

    #[test]
    fn streaming_plan_collapses_qwen7b_to_one_v73_session() {
        use edgellm::config::{ModelConfig, ModelId};
        let cfg = ModelConfig::for_id(ModelId::Qwen7B);
        let va = DeviceProfile::v73().session_va_bytes;
        // Resident: three sessions on the 8 Gen 2 (the pinned deployment).
        assert_eq!(ShardPlan::build(&cfg, va, 8, 1024).unwrap().sessions(), 3);
        // Streaming: hot first/last layers + window + all KV fit one.
        let p = ShardPlan::build_streaming(&cfg, va, 8, 1024).unwrap();
        assert_eq!(p.sessions(), 1);
        assert!(p.is_streaming());
        let cold: Vec<usize> = (1..cfg.layers - 1).collect();
        assert_eq!(p.streamed, cold);
        assert_eq!(p.stream_layer_bytes, cfg.npu_layer_weight_bytes());
        assert_eq!(p.window_bytes, 2 * cfg.npu_layer_weight_bytes());
        assert_eq!(p.staged_bytes, 26 * cfg.npu_layer_weight_bytes());
        // Device-resident bytes: 2 hot layers + window + every KV slice.
        let kv = cfg.kv_cache_layer_bytes(8 * 1026);
        let expect = 4 * cfg.npu_layer_weight_bytes() + 28 * kv;
        assert_eq!(p.bytes, expect);
        // The schedule carries the streaming fields to the layer walk.
        let schedule = p.schedule();
        assert_eq!(schedule.streamed.len(), 26);
        assert_eq!(schedule.stream_layer_bytes, p.stream_layer_bytes);
    }

    #[test]
    fn resident_plans_carry_no_streaming_fields() {
        use edgellm::config::ModelId;
        let p = plan(ModelId::Qwen7B, &DeviceProfile::v73());
        assert!(!p.is_streaming());
        assert_eq!(p.staged_bytes, 0);
        assert_eq!(p.window_bytes, 0);
        assert!(p.schedule().streamed.is_empty());
    }

    #[test]
    fn streaming_fits_kv_heavy_configs_under_the_session_cap() {
        use edgellm::config::{ModelConfig, ModelId};
        // Qwen-7B at 8K context on the 8 Gen 2: the resident plan wants
        // more sessions than the device can open, the streaming plan
        // stays under the cap.
        let cfg = ModelConfig::for_id(ModelId::Qwen7B);
        let dev = DeviceProfile::v73();
        let resident = ShardPlan::build(&cfg, dev.session_va_bytes, 8, 8192).unwrap();
        assert!(resident.sessions() > dev.max_sessions);
        let streaming = ShardPlan::build_streaming(&cfg, dev.session_va_bytes, 8, 8192).unwrap();
        assert!(streaming.sessions() <= dev.max_sessions);
    }

    #[test]
    fn plan_fails_only_when_a_single_buffer_cannot_map() {
        use edgellm::config::{ModelConfig, ModelId};
        let cfg = ModelConfig::for_id(ModelId::Qwen3B);
        // A "session" smaller than one layer's weights cannot hold any
        // placement at all.
        let err = ShardPlan::build(&cfg, cfg.npu_layer_weight_bytes() - 1, 1, 1024).unwrap_err();
        assert!(matches!(err, SimError::VaSpaceExceeded { .. }));
    }

    #[test]
    fn single_session_plans_agree_with_the_heap() {
        // The planner bins whole layers first-fit, the DDR heap enforces
        // an aggregate envelope: on one session both must draw the same
        // line. A resident plan needs exactly one session when a
        // 1-session cost-only context can map the model plus its KV cache
        // at the plan's budget, and the gate refuses the rest.
        use edgellm::config::{ModelConfig, ModelId};
        use edgellm::kv_cache::KvCache;
        use edgellm::model::Model;
        use htpops::gemm::DequantVariant;
        let mut seen = [false; 2];
        for device in DeviceProfile::all() {
            let va = device.session_va_bytes;
            for model in ModelId::on_device() {
                let cfg = ModelConfig::for_id(model);
                for (batch, ctx_len) in [(1, 1024), (8, 2048), (16, 4096), (32, 8192)] {
                    let plan = ShardPlan::build(&cfg, va, batch, ctx_len);
                    let one = plan.as_ref().is_ok_and(|p| p.sessions() == 1);
                    let mut ctx = NpuContext::new(device.clone(), ExecMode::CostOnly);
                    let heap_fits = Model::new(&mut ctx, model, DequantVariant::CoalescedLut, 1)
                        .and_then(|m| KvCache::new(&mut ctx, &m.cfg, batch, batch * (ctx_len + 2)))
                        .is_ok();
                    assert_eq!(
                        one,
                        heap_fits,
                        "{}/{} b{batch} ctx{ctx_len}: plan {:?}",
                        device.arch.soc_label(),
                        model.label(),
                        plan.as_ref().map(ShardPlan::sessions)
                    );
                    match ShardPlan::single_session(&cfg, va, batch, ctx_len) {
                        Ok(gated) => assert_eq!(Ok(gated), plan),
                        Err(err) => {
                            assert!(!one);
                            assert!(matches!(err, SimError::VaSpaceExceeded { .. }));
                        }
                    }
                    seen[usize::from(one)] = true;
                }
            }
        }
        assert_eq!(seen, [true, true], "the grid must cross the gate");
    }

    #[test]
    fn multi_session_splits_large_models() {
        // A ~4.3 GB weight set across 2 GiB sessions needs 3 sessions.
        let mut ms = MultiSession::new(2 * 1024 * 1024 * 1024);
        for _ in 0..6 {
            ms.map(716 * 1024 * 1024).unwrap();
        }
        assert_eq!(ms.sessions(), 3);
        // A single buffer larger than one session cannot map at all.
        assert!(ms.map(3 * 1024 * 1024 * 1024).is_err());
    }
}
