//! Cost-only deployments built the way the serving gateway builds its
//! workers: shard plan, sharded context, (streamed) model, overlapped
//! dispatch. Also the stage arithmetic the per-layer metrics read from
//! the public `StepCost` / `StepStages` fields.

use edgellm::config::{ModelConfig, ModelId};
use edgellm::model::{Model, StepCost};
use edgellm::overlap::{lane, steady_state_lane_utilization, DispatchMode, StepStages};
use hexsim::prelude::*;
use htpops::gemm::DequantVariant;
use npuscale::session::ShardPlan;

use crate::report::Metrics;
use crate::trace::Tracer;

/// One planned, built deployment.
pub struct Deployment {
    /// The deployment's simulated NPU context.
    pub ctx: NpuContext,
    /// The cost-only model bound to `ctx`.
    pub model: Model,
    /// NPU sessions the plan spans.
    pub sessions: usize,
    /// Whether the plan streams cold layers.
    pub streamed: bool,
}

/// Plans and builds `model` on `device`: a resident shard plan, or the
/// hot/cold streaming plan when `streaming`, sized for `max_batch` slots of
/// `max_ctx` tokens, under overlapped dispatch.
pub fn build(
    model: ModelId,
    device: &DeviceProfile,
    streaming: bool,
    max_batch: usize,
    max_ctx: usize,
    tracer: &Tracer,
    id: u64,
) -> SimResult<Deployment> {
    let cfg = ModelConfig::for_id(model);
    let plan = tracer.span("session.shard_plan", id, || {
        if streaming {
            ShardPlan::build_streaming(&cfg, device.session_va_bytes, max_batch, max_ctx)
        } else {
            ShardPlan::build(&cfg, device.session_va_bytes, max_batch, max_ctx)
        }
    })?;
    let mut ctx = NpuContext::new_sharded(device.clone(), ExecMode::CostOnly, plan.sessions());
    let schedule = plan.schedule();
    let mut m = tracer.span("model.build", id, || {
        Model::new_streamed(
            &mut ctx,
            model,
            DequantVariant::CoalescedLut,
            1,
            &schedule.streamed,
        )
    })?;
    m.set_layer_schedule(schedule);
    m.set_dispatch_mode(DispatchMode::Overlapped);
    Ok(Deployment {
        ctx,
        model: m,
        sessions: plan.sessions(),
        streamed: plan.is_streaming(),
    })
}

/// The cost of the steps between two snapshots of an accumulated cost.
pub fn cost_delta(after: &StepCost, before: &StepCost) -> StepCost {
    StepCost {
        gemm_secs: after.gemm_secs - before.gemm_secs,
        attn_secs: after.attn_secs - before.attn_secs,
        misc_secs: after.misc_secs - before.misc_secs,
        cpu_secs: after.cpu_secs - before.cpu_secs,
        switch_secs: after.switch_secs - before.switch_secs,
        stream_secs: after.stream_secs - before.stream_secs,
        overlapped_secs: after.overlapped_secs - before.overlapped_secs,
    }
}

/// Simulated seconds of one step by stage, from the public cost and stage
/// fields, in the order of [`STAGES`].
pub fn stage_secs(cost: &StepCost, st: &StepStages) -> [f64; 8] {
    let dispatch: f64 = st.layers.iter().map(|l| l.dispatch_secs).sum();
    let fetch: f64 = st.layers.iter().map(|l| l.weight_fetch_secs).sum();
    let switches =
        st.layers.iter().filter(|l| l.switch_before).count() + usize::from(st.wrap_switch);
    [
        st.cpu_embed_secs,
        cost.gemm_secs,
        cost.attn_secs,
        cost.misc_secs,
        dispatch,
        switches as f64 * st.switch_secs,
        fetch,
        st.cpu_head_secs,
    ]
}

/// Stage names of [`stage_secs`].
pub const STAGES: [&str; 8] = [
    "embed", "gemm", "attn", "misc", "dispatch", "switch", "fetch", "lm_head",
];

/// Lane names and indices reported as `overlap.lane_util.*`.
pub const LANES: [(&str, usize); 5] = [
    ("cpu", lane::CPU),
    ("npu", lane::NPU),
    ("dispatch", lane::DISPATCH),
    ("switch", lane::SWITCH),
    ("dma", lane::DMA),
];

/// Steady-state busy fraction of every reported lane for one step.
pub fn lane_utils(st: &StepStages) -> [f64; 5] {
    LANES.map(|(_, idx)| steady_state_lane_utilization(st, idx))
}

/// Accumulates weighted stage seconds and lane utilizations.
#[derive(Default)]
pub struct StageSums {
    stage_s: [f64; 8],
    lane_x_secs: [f64; 5],
    secs: f64,
}

impl StageSums {
    /// Adds `weight` steps whose stages are `stages`, each lasting
    /// `period_secs` with lane fractions `utils`.
    pub fn add(&mut self, weight: f64, stages: [f64; 8], period_secs: f64, utils: [f64; 5]) {
        for (acc, s) in self.stage_s.iter_mut().zip(stages) {
            *acc += weight * s;
        }
        for (acc, u) in self.lane_x_secs.iter_mut().zip(utils) {
            *acc += weight * period_secs * u;
        }
        self.secs += weight * period_secs;
    }

    /// Writes `model.stage_s.*` and the period-weighted
    /// `overlap.lane_util.*`.
    pub fn report(&self, out: &mut Metrics) {
        for (name, v) in STAGES.iter().zip(self.stage_s) {
            out.put(format!("model.stage_s.{name}"), v, "s");
        }
        for ((name, _), v) in LANES.iter().zip(self.lane_x_secs) {
            let util = if self.secs > 0.0 { v / self.secs } else { 0.0 };
            out.put(format!("overlap.lane_util.{name}"), util, "fraction");
        }
    }
}
