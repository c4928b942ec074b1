//! Decode and prefill measurements over the full model forward.
//!
//! A [`Deployment`] builds the paper's runtime one way: plan the model
//! across 32-bit NPU sessions (a [`ShardPlan`], Section 8), map its
//! weights into a cost-only context that opens the plan's sessions (cold
//! layers parked in DDR staging when the plan streams), and walk the
//! plan's schedule. Its two consuming methods run the real forward pass,
//! every kernel charging the calibrated cost model, price the stages the
//! model records under a [`DispatchMode`] (Section 7.2.2), and report
//! throughput plus engine-level busy times: the raw material for Figures
//! 11, 12, 13, 16 and 17.
//! [`crate::backend::NpuSimBackend`] plans and measures through it, and
//! the serving gateway builds its workers with it.
//!
//! A plan spanning several sessions charges a CPU-side session switch at
//! every shard boundary of the walk (plus the wrap-around back to the
//! first shard), so the Section 8 workaround shows up in the latency
//! model rather than as an error. Callers that want the paper's
//! single-session deployment, with its Section 7.2.1 VA gate, build from
//! [`ShardPlan::single_session`].

use edgellm::config::ModelId;
use edgellm::kv_cache::KvCache;
use edgellm::model::Model;
pub use edgellm::overlap::DispatchMode;
use hexsim::cost::NUM_ENGINES;
use hexsim::prelude::*;
use htpops::gemm::DequantVariant;

use crate::session::ShardPlan;

/// One decode measurement.
#[derive(Clone, Debug)]
pub struct DecodePoint {
    /// Model label ("Q1.5", ...).
    pub model: String,
    /// Device SoC label ("8G3", ...).
    pub device: String,
    /// Decode batch size.
    pub batch: usize,
    /// Context length per sequence at measurement time.
    pub ctx_len: usize,
    /// Wall seconds per decode step.
    pub step_secs: f64,
    /// Decode throughput in tokens/second (batch / step).
    pub tokens_per_sec: f64,
    /// Fraction of the step spent on CPU-side work: the logits pass,
    /// plus session switches when the deployment runs sharded (both are
    /// CPU time the NPU waits on, and both appear in the CPU engine's
    /// busy seconds).
    pub cpu_share: f64,
    /// Busy seconds per engine during the step.
    pub engine_secs: [f64; NUM_ENGINES],
    /// NPU sessions the deployment ran across (1 = single session; > 1 =
    /// the paper's Section 8 multi-session sharding, with session-switch
    /// time included in `step_secs`). Analytic backends report 1.
    pub sessions: usize,
}

/// One prefill measurement.
#[derive(Clone, Debug)]
pub struct PrefillPoint {
    /// Model label.
    pub model: String,
    /// Device SoC label.
    pub device: String,
    /// Prompt length in tokens.
    pub prompt_len: usize,
    /// Wall seconds for the whole prefill.
    pub total_secs: f64,
    /// Prefill throughput in tokens/second.
    pub tokens_per_sec: f64,
    /// NPU sessions the deployment ran across (see
    /// [`DecodePoint::sessions`]).
    pub sessions: usize,
}

impl DecodePoint {
    /// Whether the point carries engine-level activity data. Measured NPU
    /// points always do; analytic roofline points (GPU/QNN/CPU backends)
    /// carry pure throughput and report `false` — power, utilization and
    /// memory-placement models only apply when this holds.
    pub fn has_engine_activity(&self) -> bool {
        self.engine_secs.iter().any(|&s| s > 0.0)
    }
}

/// One model planned and built on one device: a cost-only context that
/// opens the plan's sessions, the model mapped into it walking the plan's
/// schedule, and the dispatch mode that prices its steps. The one place a
/// deployment is built; [`Deployment::decode`] and [`Deployment::prefill`]
/// consume it into a measurement, and the serving gateway takes its
/// context and model apart to drive a decode session (and prices each
/// step itself).
pub struct Deployment {
    /// The simulated NPU context, opened with the plan's session count.
    pub ctx: NpuContext,
    /// The cost-only model bound to `ctx`. It records each step's stages
    /// and leaves their pricing to the deployment.
    pub model: Model,
    sessions: usize,
    dispatch: DispatchMode,
}

impl Deployment {
    /// Builds `model_id` on `device` under `plan` and `dispatch`. The
    /// plan's cold layers (if it streams) park in DDR staging; a resident
    /// plan builds exactly like [`Model::new`]. Errors when the weights do
    /// not map into the plan's sessions.
    ///
    /// # Panics
    ///
    /// Panics if `plan` was built for a different architecture than
    /// `model_id` (its shard boundaries must split `model_id`'s layer
    /// range).
    pub fn new(
        device: &DeviceProfile,
        model_id: ModelId,
        plan: &ShardPlan,
        dispatch: DispatchMode,
    ) -> SimResult<Self> {
        let mut ctx = NpuContext::new_sharded(device.clone(), ExecMode::CostOnly, plan.sessions());
        let schedule = plan.schedule();
        let mut model = Model::new_streamed(
            &mut ctx,
            model_id,
            DequantVariant::CoalescedLut,
            1,
            &schedule.streamed,
        )?;
        model.set_layer_schedule(schedule);
        Ok(Deployment {
            ctx,
            model,
            sessions: plan.sessions(),
            dispatch,
        })
    }

    /// Measures one decode step at `batch` sequences of `ctx_len` tokens
    /// each. Under [`DispatchMode::Overlapped`] the step time is the
    /// steady-state critical path of the pipelined schedule (CPU lm_head
    /// hidden behind the next step's layers, dispatch riding the
    /// double-buffered ring, session switches and weight fetches behind
    /// other layers' kernels) instead of the serial stage sum; per-engine
    /// busy seconds are the same in both modes.
    pub fn decode(mut self, batch: usize, ctx_len: usize) -> SimResult<DecodePoint> {
        let budget = batch * (ctx_len + 2);
        let mut cache = KvCache::new(&mut self.ctx, &self.model.cfg, batch, budget)?;
        for s in 0..batch {
            cache.fast_fill(s, ctx_len);
        }
        let snap = self.ctx.cost.snapshot();
        let out = self
            .model
            .decode_step(&mut self.ctx, &mut cache, &vec![0u32; batch])?;
        let delta = self.ctx.cost.delta_since(&snap, "decode");
        let step_secs = self.dispatch.price(out.cost.wall_secs(), &out.stages, true);
        Ok(DecodePoint {
            model: self.model.cfg.id.label().to_string(),
            device: self.ctx.device().arch.soc_label().to_string(),
            batch,
            ctx_len,
            step_secs,
            tokens_per_sec: batch as f64 / step_secs,
            cpu_share: (out.cost.cpu_secs + out.cost.switch_secs) / step_secs,
            engine_secs: delta.engine_secs,
            sessions: self.sessions,
        })
    }

    /// Measures a full prefill of `prompt_len` tokens: one layer walk for
    /// the whole prompt, so the plan's session switches amortize over
    /// every prompt token. Under [`DispatchMode::Overlapped`] dispatch
    /// and switches hide behind the walk, but there is no next step to
    /// pipeline into.
    pub fn prefill(mut self, prompt_len: usize) -> SimResult<PrefillPoint> {
        let mut cache = KvCache::new(&mut self.ctx, &self.model.cfg, 1, prompt_len + 2)?;
        let out = self
            .model
            .prefill(&mut self.ctx, &mut cache, 0, &vec![0u32; prompt_len])?;
        let total_secs = self
            .dispatch
            .price(out.cost.wall_secs(), &out.stages, false);
        Ok(PrefillPoint {
            model: self.model.cfg.id.label().to_string(),
            device: self.ctx.device().arch.soc_label().to_string(),
            prompt_len,
            total_secs,
            tokens_per_sec: prompt_len as f64 / total_secs,
            sessions: self.sessions,
        })
    }
}

/// Engine utilization (busy fraction of the step wall time), used by the
/// power model.
pub fn engine_utilization(point: &DecodePoint) -> [f64; NUM_ENGINES] {
    let mut util = [0.0; NUM_ENGINES];
    for (i, u) in util.iter_mut().enumerate() {
        *u = (point.engine_secs[i] / point.step_secs).min(1.0);
    }
    util
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgellm::config::ModelConfig;
    use hexsim::cost::Engine;

    fn resident(d: &DeviceProfile, model: ModelId, batch: usize, ctx_len: usize) -> ShardPlan {
        ShardPlan::build(
            &ModelConfig::for_id(model),
            d.session_va_bytes,
            batch,
            ctx_len,
        )
        .unwrap()
    }

    /// The paper's deployment: serial dispatch in one session, refused by
    /// the Section 7.2.1 VA gate when the model does not fit one.
    fn single_session(
        d: &DeviceProfile,
        model: ModelId,
        batch: usize,
        ctx_len: usize,
    ) -> SimResult<Deployment> {
        let cfg = ModelConfig::for_id(model);
        let plan = ShardPlan::single_session(&cfg, d.session_va_bytes, batch, ctx_len)?;
        Deployment::new(d, model, &plan, DispatchMode::Serial)
    }

    fn decode(d: &DeviceProfile, model: ModelId, batch: usize, ctx_len: usize) -> DecodePoint {
        single_session(d, model, batch, ctx_len)
            .and_then(|dep| dep.decode(batch, ctx_len))
            .unwrap()
    }

    fn prefill(d: &DeviceProfile, model: ModelId, prompt_len: usize) -> PrefillPoint {
        single_session(d, model, 1, prompt_len)
            .and_then(|dep| dep.prefill(prompt_len))
            .unwrap()
    }

    #[test]
    fn decode_throughput_increases_with_batch_figure_11() {
        let d = DeviceProfile::v75();
        let t1 = decode(&d, ModelId::Qwen1_5B, 1, 1024);
        let t4 = decode(&d, ModelId::Qwen1_5B, 4, 1024);
        let t16 = decode(&d, ModelId::Qwen1_5B, 16, 1024);
        assert!(t4.tokens_per_sec > t1.tokens_per_sec * 2.0);
        assert!(t16.tokens_per_sec > t4.tokens_per_sec * 1.5);
        // Paper Figure 11 (8G3, Qwen2.5-1.5B): ~10 tok/s at batch 1 rising
        // toward ~100 at batch 16.
        assert!(
            (6.0..22.0).contains(&t1.tokens_per_sec),
            "batch-1 {}",
            t1.tokens_per_sec
        );
        assert!(
            (55.0..160.0).contains(&t16.tokens_per_sec),
            "batch-16 {}",
            t16.tokens_per_sec
        );
    }

    #[test]
    fn devices_order_by_generation() {
        let b = 4;
        let t73 = decode(&DeviceProfile::v73(), ModelId::Llama1B, b, 1024);
        let t75 = decode(&DeviceProfile::v75(), ModelId::Llama1B, b, 1024);
        let t79 = decode(&DeviceProfile::v79(), ModelId::Llama1B, b, 1024);
        assert!(t79.tokens_per_sec > t75.tokens_per_sec);
        assert!(t75.tokens_per_sec > t73.tokens_per_sec);
    }

    #[test]
    fn v73_rejects_3b_models() {
        let err = single_session(&DeviceProfile::v73(), ModelId::Qwen3B, 1, 1024)
            .err()
            .unwrap();
        assert!(matches!(err, SimError::VaSpaceExceeded { .. }));
    }

    #[test]
    fn prefill_speed_matches_figure_13_scale() {
        let d = DeviceProfile::v75();
        let p = prefill(&d, ModelId::Qwen1_5B, 512);
        // Paper Figure 13: Qwen2.5-1.5B prefill in the hundreds to ~1500
        // tokens/s range.
        assert!(
            (300.0..2500.0).contains(&p.tokens_per_sec),
            "prefill {}",
            p.tokens_per_sec
        );
        let p3 = prefill(&d, ModelId::Qwen3B, 512);
        assert!(p3.tokens_per_sec < p.tokens_per_sec);
    }

    #[test]
    fn longer_context_slows_decode_mildly_figure_17() {
        let d = DeviceProfile::v75();
        let short = decode(&d, ModelId::Qwen1_5B, 8, 512);
        let long = decode(&d, ModelId::Qwen1_5B, 8, 4096);
        let drop = 1.0 - long.tokens_per_sec / short.tokens_per_sec;
        // Paper: "relatively subtle" decline from 512 to 4096.
        assert!(drop > 0.01, "some decline expected, got {drop}");
        assert!(drop < 0.45, "decline should be mild, got {drop}");
    }

    #[test]
    fn sharded_decode_costs_exactly_the_switch_overhead_more() {
        // Force a model that fits one V75 session into two shards via an
        // artificially small per-session VA, then compare against the
        // single-session measurement on the same device: the step must
        // cost exactly the plan's switch overhead more.
        let d = DeviceProfile::v75();
        let cfg = ModelConfig::for_id(ModelId::Qwen1_5B);
        let half = cfg.npu_weight_bytes() / 2 + cfg.npu_layer_weight_bytes();
        let plan = ShardPlan::build(&cfg, half, 4, 1024).unwrap();
        assert!(plan.is_sharded(), "plan must shard: {plan:?}");

        let base = decode(&d, ModelId::Qwen1_5B, 4, 1024);
        let sharded = Deployment::new(&d, ModelId::Qwen1_5B, &plan, DispatchMode::Serial)
            .and_then(|dep| dep.decode(4, 1024))
            .unwrap();
        assert_eq!(sharded.sessions, plan.sessions());
        assert_eq!(base.sessions, 1);
        let extra = sharded.step_secs - base.step_secs;
        assert!(
            (extra - plan.switch_overhead_secs()).abs() < 1e-12,
            "extra {extra} vs planned {}",
            plan.switch_overhead_secs()
        );
        // Throughput dips accordingly but stays in the same regime.
        assert!(sharded.tokens_per_sec < base.tokens_per_sec);
        assert!(sharded.tokens_per_sec > base.tokens_per_sec * 0.95);
    }

    #[test]
    fn sharded_decode_unlocks_qwen3b_on_v73() {
        // The headline scenario: Qwen-3B decoding on the Snapdragon 8
        // Gen 2 through a 2-session plan (single-session errors above).
        let d = DeviceProfile::v73();
        let plan = resident(&d, ModelId::Qwen3B, 1, 1024);
        assert_eq!(plan.sessions(), 2);
        let deploy = || Deployment::new(&d, ModelId::Qwen3B, &plan, DispatchMode::Serial);
        let p = deploy().and_then(|dep| dep.decode(1, 1024)).unwrap();
        assert_eq!(p.sessions, 2);
        assert!(p.tokens_per_sec > 0.5, "3B on 8G2: {}", p.tokens_per_sec);
        let pf = deploy().and_then(|dep| dep.prefill(512)).unwrap();
        assert!(pf.tokens_per_sec > 50.0, "prefill {}", pf.tokens_per_sec);
    }

    #[test]
    fn streaming_decode_charges_fetches_and_overlap_hides_them() {
        // Qwen-7B on the 8 Gen 2: 26 cold layers stream per step. Serial
        // dispatch pays every fetch in full; the overlapped schedule hides
        // them behind compute, keeping throughput near the resident plan.
        let d = DeviceProfile::v73();
        let cfg = ModelConfig::for_id(ModelId::Qwen7B);
        let resident_plan = resident(&d, ModelId::Qwen7B, 8, 1024);
        assert_eq!(resident_plan.sessions(), 3);
        let streaming_plan = ShardPlan::build_streaming(&cfg, d.session_va_bytes, 8, 1024).unwrap();
        let run = |plan: &ShardPlan, dispatch| {
            Deployment::new(&d, ModelId::Qwen7B, plan, dispatch)
                .and_then(|dep| dep.decode(8, 1024))
                .unwrap()
        };

        let serial = run(&streaming_plan, DispatchMode::Serial);
        assert_eq!(serial.sessions, 1);
        let resident_serial = run(&resident_plan, DispatchMode::Serial);
        // Serial streaming pays 26 full fetches, minus the 3-session
        // plan's switch overhead the 1-session deployment no longer pays.
        let fetch_secs = 26.0 * cfg.npu_layer_weight_bytes() as f64 / d.ddr_stream_bw;
        let extra = serial.step_secs - resident_serial.step_secs;
        let expect = fetch_secs - resident_plan.switch_overhead_secs();
        assert!(
            (extra - expect).abs() < 1e-9,
            "extra {extra} vs expected {expect}"
        );

        let overlapped = run(&streaming_plan, DispatchMode::Overlapped);
        let resident_overlapped = run(&resident_plan, DispatchMode::Overlapped);
        assert!(
            overlapped.tokens_per_sec >= 0.9 * resident_overlapped.tokens_per_sec,
            "streamed {} vs resident {}",
            overlapped.tokens_per_sec,
            resident_overlapped.tokens_per_sec
        );
        // And streaming is genuinely cheaper in sessions: 1 vs 3.
        assert_eq!(overlapped.sessions, 1);
    }

    #[test]
    fn utilization_fractions_are_sane() {
        let d = DeviceProfile::v75();
        let p = decode(&d, ModelId::Qwen1_5B, 2, 512);
        let util = engine_utilization(&p);
        for (i, u) in util.iter().enumerate() {
            assert!((0.0..=1.0).contains(u), "engine {i} utilization {u}");
        }
        // Dequantization keeps the HVX the busiest *compute* engine, though
        // dispatch overheads dilute its absolute share.
        let hvx = util[Engine::Hvx.index()];
        assert!(hvx > 0.15, "hvx utilization {hvx}");
        assert!(hvx > util[Engine::Hmx.index()]);
    }
}
