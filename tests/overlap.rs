//! Golden tests for the overlap-aware async-dispatch timeline (paper
//! Section 7.2.2):
//!
//! - overlapped wall time equals the independently recomputed critical
//!   path of the recorded stage graph;
//! - overlapped never exceeds the serial sum, and equals it exactly when
//!   overlap is disabled (the default), so every pre-overlap number still
//!   reproduces;
//! - the overlap is a *time-model* change only: functional logits are
//!   bit-identical in both modes, including sharded multi-session decode;
//! - the paper-facing wins hold: the CPU lm_head share hides at batch >=
//!   8, and the sharded Qwen-7B session-switch overhead is at least
//!   partially hidden.

use edgellm::config::{ModelConfig, ModelId};
use edgellm::kv_cache::KvCache;
use edgellm::model::{LayerSchedule, Model};
use edgellm::overlap::{self, DispatchMode};
use hexsim::prelude::*;
use htpops::gemm::DequantVariant;
use npuscale::backend::{Backend, NpuSimBackend};
use npuscale::pipeline::Deployment;
use npuscale::session::ShardPlan;

/// The single-session deployment of `id` planned for `batch` sequences of
/// `ctx_len` tokens (a prefill of `n` tokens plans as `(1, n)`).
fn deployment(
    device: &DeviceProfile,
    id: ModelId,
    batch: usize,
    ctx_len: usize,
    dispatch: DispatchMode,
) -> Deployment {
    let cfg = ModelConfig::for_id(id);
    let plan = ShardPlan::single_session(&cfg, device.session_va_bytes, batch, ctx_len).unwrap();
    Deployment::new(device, id, &plan, dispatch).unwrap()
}

fn cost_model(device: DeviceProfile, id: ModelId, dispatch: DispatchMode) -> (NpuContext, Model) {
    let mut ctx = NpuContext::new(device, ExecMode::CostOnly);
    let mut model = Model::new(&mut ctx, id, DequantVariant::CoalescedLut, 1).unwrap();
    model.set_dispatch_mode(dispatch);
    (ctx, model)
}

fn decode_once(
    ctx: &mut NpuContext,
    model: &Model,
    batch: usize,
    ctx_len: usize,
) -> edgellm::DecodeOutput {
    let budget = batch * (ctx_len + 2);
    let mut cache = KvCache::new(ctx, &model.cfg, batch, budget).unwrap();
    for s in 0..batch {
        cache.fast_fill(s, ctx_len);
    }
    let out = model
        .decode_step(ctx, &mut cache, &vec![0u32; batch])
        .unwrap();
    cache.free(ctx);
    out
}

#[test]
fn serial_mode_overlapped_equals_wall() {
    // The default dispatch mode reports overlapped_secs == wall_secs,
    // so accumulating StepCosts stays self-consistent.
    let (mut ctx, model) = cost_model(
        DeviceProfile::v75(),
        ModelId::Qwen1_5B,
        DispatchMode::Serial,
    );
    let out = decode_once(&mut ctx, &model, 8, 1024);
    assert_eq!(out.cost.overlapped_secs, out.cost.wall_secs());
    // And an explicitly serial deployment measures the serial backend's
    // point bit-for-bit.
    let a = NpuSimBackend::new(DeviceProfile::v75())
        .decode(ModelId::Qwen1_5B, 8, 1024)
        .unwrap();
    let b = deployment(
        &DeviceProfile::v75(),
        ModelId::Qwen1_5B,
        8,
        1024,
        DispatchMode::Serial,
    )
    .decode(8, 1024)
    .unwrap();
    assert_eq!(a.step_secs, b.step_secs);
    assert_eq!(a.tokens_per_sec, b.tokens_per_sec);
}

#[test]
fn overlapped_wall_is_the_recomputed_critical_path() {
    // The reported overlapped time must equal the critical path computed
    // from the recorded stage graph by the public scheduler entry points
    // (decode: steady-state period; prefill: single pass).
    let (mut ctx, model) = cost_model(
        DeviceProfile::v75(),
        ModelId::Qwen1_5B,
        DispatchMode::Overlapped,
    );
    let out = decode_once(&mut ctx, &model, 8, 1024);
    let recomputed = overlap::steady_state_step_secs(&out.stages);
    assert_eq!(out.cost.overlapped_secs, recomputed);
    assert!(out.cost.overlapped_secs > 0.0);

    let mut cache = KvCache::new(&mut ctx, &model.cfg, 1, 514).unwrap();
    let pf = model
        .prefill(&mut ctx, &mut cache, 0, &vec![0u32; 512])
        .unwrap();
    cache.free(&mut ctx);
    assert_eq!(
        pf.cost.overlapped_secs,
        overlap::single_pass_secs(&pf.stages)
    );
}

#[test]
fn overlapped_never_exceeds_serial_across_the_sweep() {
    for device in DeviceProfile::all() {
        for model in [
            ModelId::Llama1B,
            ModelId::Qwen1_5B,
            ModelId::Qwen3B,
            ModelId::Qwen7B,
        ] {
            for batch in [1usize, 8, 16] {
                let serial = NpuSimBackend::new(device.clone());
                let overlapped = NpuSimBackend::overlapped(device.clone());
                let (Ok(s), Ok(o)) = (
                    serial.decode(model, batch, 1024),
                    overlapped.decode(model, batch, 1024),
                ) else {
                    continue;
                };
                assert!(
                    o.step_secs <= s.step_secs * (1.0 + 1e-12),
                    "{}/{} b{batch}: overlapped {} > serial {}",
                    device.arch.soc_label(),
                    model.label(),
                    o.step_secs,
                    s.step_secs
                );
                assert_eq!(o.sessions, s.sessions);
            }
        }
    }
}

#[test]
fn cpu_lm_head_share_hides_at_batch_8() {
    // Paper Section 7.2.2 / Figure 11: at batch >= 8 the CPU logits pass
    // is a large share of the serial step; the pipelined schedule hides
    // most of it behind the next step's layers.
    let d = DeviceProfile::v75();
    let decode = |dispatch| {
        deployment(&d, ModelId::Qwen1_5B, 8, 1024, dispatch)
            .decode(8, 1024)
            .unwrap()
    };
    let serial = decode(DispatchMode::Serial);
    let over = decode(DispatchMode::Overlapped);
    // A measurable wall-time win (the acceptance bar), driven by hiding
    // both the CPU tail and the per-layer dispatch overhead.
    assert!(
        over.step_secs < serial.step_secs * 0.9,
        "overlap must win >=10% at batch 8: {} vs {}",
        over.step_secs,
        serial.step_secs
    );
    // The hidden share covers most of the CPU tail: what the overlap
    // removed is at least half of the CPU seconds the serial step paid.
    let (mut ctx, model) = cost_model(d, ModelId::Qwen1_5B, DispatchMode::Serial);
    let out = decode_once(&mut ctx, &model, 8, 1024);
    let hidden = serial.step_secs - over.step_secs;
    assert!(
        hidden > 0.5 * out.cost.cpu_secs,
        "hidden {hidden} vs cpu {}",
        out.cost.cpu_secs
    );
}

#[test]
fn batch_1_keeps_the_cpu_on_the_critical_path() {
    // At batch 1 the sampled token feeds the next embedding, so the CPU
    // tail cannot hide — only dispatch overlap remains.
    let d = DeviceProfile::v75();
    let (mut sctx, smodel) = cost_model(d.clone(), ModelId::Qwen1_5B, DispatchMode::Serial);
    let s = decode_once(&mut sctx, &smodel, 1, 1024);
    let (mut octx, omodel) = cost_model(d, ModelId::Qwen1_5B, DispatchMode::Overlapped);
    let o = decode_once(&mut octx, &omodel, 1, 1024);
    let hidden = s.cost.wall_secs() - o.cost.overlapped_secs;
    // Wins something (the per-layer dispatch overhead, which lives inside
    // misc_secs) but cannot hide more than that.
    assert!(hidden > 0.0);
    assert!(hidden <= s.cost.misc_secs + 1e-12);
    // The overlapped step still contains the full CPU block and every
    // kernel: the sampled token gates the next embedding at batch 1.
    assert!(o.cost.overlapped_secs >= s.cost.cpu_secs + s.cost.gemm_secs + s.cost.attn_secs);
}

#[test]
fn sharded_switch_overhead_is_partially_hidden() {
    // Qwen-7B always runs sharded; the serial walk pays every 30 us
    // session switch, while the overlapped walk hides them behind the
    // previous shard's tail kernels and the CPU tail.
    let d = DeviceProfile::v75();
    let serial = NpuSimBackend::new(d.clone());
    let overlapped = NpuSimBackend::overlapped(d.clone());
    let s = serial.decode(ModelId::Qwen7B, 8, 1024).unwrap();
    let o = overlapped.decode(ModelId::Qwen7B, 8, 1024).unwrap();
    assert!(s.sessions > 1 && o.sessions == s.sessions);
    assert!(o.step_secs < s.step_secs);

    // Compare the overlapped sharded step against an overlapped step of
    // the same shapes with no switches (same multi-session VA envelope,
    // empty schedule): the switch cost sticking out of the overlapped
    // schedule is less than the full serial overhead.
    let plan = serial.shard_plan(ModelId::Qwen7B, 8, 1024).unwrap();
    let full_overhead = plan.switch_overhead_secs();
    assert!(full_overhead > 0.0);
    let step = |schedule: LayerSchedule| {
        let mut ctx =
            NpuContext::new_sharded(DeviceProfile::v75(), ExecMode::CostOnly, plan.sessions());
        let mut model =
            Model::new(&mut ctx, ModelId::Qwen7B, DequantVariant::CoalescedLut, 1).unwrap();
        model.set_dispatch_mode(DispatchMode::Overlapped);
        model.set_layer_schedule(schedule);
        decode_once(&mut ctx, &model, 8, 1024)
    };
    let sharded_out = step(plan.schedule());
    let single_out = step(LayerSchedule::single_session());
    let visible = sharded_out.cost.overlapped_secs - single_out.cost.overlapped_secs;
    assert!(
        visible < full_overhead,
        "switches must be at least partially hidden: visible {visible} vs serial {full_overhead}"
    );
    assert!(
        visible >= -1e-12,
        "sharding cannot speed a step up: {visible}"
    );
}

#[test]
fn sharded_overlapped_logits_bit_identical_to_serial_single_session() {
    // Functional mode: overlap + sharding change only the clock, never
    // the numbers.
    let mut base_ctx = NpuContext::new(DeviceProfile::v75(), ExecMode::Functional);
    let base = Model::new(
        &mut base_ctx,
        ModelId::Tiny,
        DequantVariant::CoalescedLut,
        42,
    )
    .unwrap();
    let mut base_cache = KvCache::new(&mut base_ctx, &base.cfg, 4, 256).unwrap();
    let tokens = [2u32, 7, 9, 4];
    let base_pf = base
        .prefill(&mut base_ctx, &mut base_cache, 0, &tokens)
        .unwrap();
    base_cache.broadcast_prompt();
    let base_step = base
        .decode_step(&mut base_ctx, &mut base_cache, &[100, 101, 102, 103])
        .unwrap();

    let mut ctx = NpuContext::new_sharded(DeviceProfile::v75(), ExecMode::Functional, 2);
    let mut model = Model::new(&mut ctx, ModelId::Tiny, DequantVariant::CoalescedLut, 42).unwrap();
    model.set_dispatch_mode(DispatchMode::Overlapped);
    model.set_layer_schedule(LayerSchedule {
        boundaries: vec![1],
        switch_secs: 30e-6,
        ..Default::default()
    });
    let mut cache = KvCache::new(&mut ctx, &model.cfg, 4, 256).unwrap();
    let pf = model.prefill(&mut ctx, &mut cache, 0, &tokens).unwrap();
    cache.broadcast_prompt();
    let step = model
        .decode_step(&mut ctx, &mut cache, &[100, 101, 102, 103])
        .unwrap();

    assert_eq!(base_pf.logits, pf.logits);
    assert_eq!(base_step.logits, step.logits);
    // Engine busy totals are dispatch-mode independent; only the wall
    // composition changed.
    assert!(step.cost.overlapped_secs <= step.cost.wall_secs());
    assert!(base_step.cost.overlapped_secs == base_step.cost.wall_secs());
}

#[test]
fn overlapped_prefill_wins_but_less_than_decode() {
    // Prefill is a single pass: dispatch and switches hide, but there is
    // no cross-step pipelining, so the relative win is smaller than the
    // decode win at the same shapes.
    let d = DeviceProfile::v75();
    let prefill = |dispatch| {
        deployment(&d, ModelId::Qwen1_5B, 1, 512, dispatch)
            .prefill(512)
            .unwrap()
    };
    let decode = |dispatch| {
        deployment(&d, ModelId::Qwen1_5B, 8, 1024, dispatch)
            .decode(8, 1024)
            .unwrap()
    };
    let ps = prefill(DispatchMode::Serial);
    let po = prefill(DispatchMode::Overlapped);
    assert!(po.total_secs <= ps.total_secs);
    assert!(po.tokens_per_sec >= ps.tokens_per_sec);
    let ds = decode(DispatchMode::Serial);
    let do_ = decode(DispatchMode::Overlapped);
    let prefill_win = ps.total_secs / po.total_secs;
    let decode_win = ds.step_secs / do_.step_secs;
    assert!(
        decode_win > prefill_win,
        "decode win {decode_win} vs prefill win {prefill_win}"
    );
}

#[test]
fn decode_session_accumulates_overlapped_time() {
    // DecodeSession rides the model's dispatch mode: overlapped seconds
    // accumulate per step and undercut the serial sum.
    let mut ctx = NpuContext::new(DeviceProfile::v75(), ExecMode::CostOnly);
    let mut model =
        Model::new(&mut ctx, ModelId::Qwen1_5B, DequantVariant::CoalescedLut, 1).unwrap();
    model.set_dispatch_mode(DispatchMode::Overlapped);
    let prompt = vec![0u32; 64];
    let mut session = edgellm::DecodeSession::new(&mut ctx, &model, &prompt, 8, 8 * 80).unwrap();
    for _ in 0..8 {
        session.admit(0, 4).unwrap();
    }
    while session.active_count() > 0 {
        session.step(&mut ctx, |_, _| 0).unwrap();
    }
    assert!(session.decode_overlapped_secs() > 0.0);
    assert!(session.decode_overlapped_secs() < session.decode_secs());
    session.release(&mut ctx);
}
