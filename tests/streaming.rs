//! Golden tests for the weight-streaming hot/cold hierarchy (the DMA
//! prefetch lane):
//!
//! - streaming is a placement + time-model change only: functional logits
//!   are bit-identical to the fully resident build;
//! - the streamed overlapped period equals the independently recomputed
//!   critical path of the recorded stage graph (fetches included);
//! - with streaming disabled, every pinned pre-streaming number still
//!   reproduces exactly;
//! - the paper-facing wins hold: Qwen-7B on the 8 Gen 2 runs in 1 session
//!   instead of 3 at under 10% decode-throughput loss, and a deployment
//!   whose resident plan exceeds the session cap becomes runnable.

use edgellm::config::{ModelConfig, ModelId};
use edgellm::kv_cache::KvCache;
use edgellm::model::{LayerSchedule, Model};
use edgellm::overlap::{self, DispatchMode};
use hexsim::prelude::*;
use htpops::gemm::DequantVariant;
use npuscale::backend::{Backend, NpuSimBackend};
use npuscale::pipeline::Deployment;
use npuscale::session::ShardPlan;

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
fn streamed_logits_bit_identical_to_resident() {
    // Functional mode, full stack: the same tiny model built resident and
    // built with its second layer cold (weights in DDR staging) must
    // produce bit-identical logits through prefill and decode — streaming
    // re-homes weights and charges fetch time, never touching the math.
    let run = |streamed: &[usize]| {
        let mut ctx = NpuContext::new(DeviceProfile::v75(), ExecMode::Functional);
        let mut model = Model::new_streamed(
            &mut ctx,
            ModelId::Tiny,
            DequantVariant::CoalescedLut,
            23,
            streamed,
        )
        .unwrap();
        if !streamed.is_empty() {
            model.set_layer_schedule(LayerSchedule {
                streamed: streamed.to_vec(),
                stream_layer_bytes: 1 << 16,
                ..Default::default()
            });
        }
        let mut cache = KvCache::new(&mut ctx, &model.cfg, 4, 256).unwrap();
        let tokens = [3u32, 11, 5, 8];
        let pf = model.prefill(&mut ctx, &mut cache, 0, &tokens).unwrap();
        cache.broadcast_prompt();
        let step = model
            .decode_step(&mut ctx, &mut cache, &[70, 71, 72, 73])
            .unwrap();
        (pf.logits, step.logits, ctx.ddr_staged_bytes())
    };
    let (base_pf, base_step, base_staged) = run(&[]);
    let (s_pf, s_step, staged) = run(&[1]);
    assert_eq!(base_pf, s_pf, "prefill logits must match bit-for-bit");
    assert_eq!(base_step, s_step, "decode logits must match bit-for-bit");
    assert_eq!(base_staged, 0);
    assert!(staged > 0, "the cold layer must live in DDR staging");
}

#[test]
fn streamed_period_is_the_recomputed_critical_path() {
    // The streamed overlapped step time must equal the critical path the
    // public scheduler recomputes from the recorded stage graph — weight
    // fetches on the DMA lane included.
    let device = DeviceProfile::v73();
    let cfg = ModelConfig::for_id(ModelId::Qwen7B);
    let plan = ShardPlan::build_streaming(&cfg, device.session_va_bytes, 8, 1024).unwrap();
    assert!(plan.is_streaming());
    let mut ctx = NpuContext::new_sharded(device.clone(), ExecMode::CostOnly, plan.sessions());
    let mut model = Model::new_streamed(
        &mut ctx,
        ModelId::Qwen7B,
        DequantVariant::CoalescedLut,
        1,
        &plan.streamed,
    )
    .unwrap();
    model.set_dispatch_mode(DispatchMode::Overlapped);
    model.set_layer_schedule(plan.schedule());
    let out = decode_once(&mut ctx, &model, 8, 1024);
    let recomputed = overlap::steady_state_step_secs(&out.stages);
    assert_eq!(out.cost.overlapped_secs, recomputed);
    // Every cold layer recorded its fetch; hot layers recorded none.
    for (l, stage) in out.stages.layers.iter().enumerate() {
        if plan.streamed.contains(&l) {
            assert!(stage.weight_fetch_secs > 0.0, "layer {l} lost its fetch");
        } else {
            assert_eq!(stage.weight_fetch_secs, 0.0, "hot layer {l} fetched");
        }
    }
    // And a deployment of the same plan reports exactly this period.
    let point = Deployment::new(&device, ModelId::Qwen7B, &plan, DispatchMode::Overlapped)
        .and_then(|deployment| deployment.decode(8, 1024))
        .unwrap();
    assert_eq!(point.step_secs, out.cost.overlapped_secs);
}

#[test]
fn streaming_disabled_reproduces_pinned_numbers() {
    // With no streaming in play, the serial and overlapped paths must
    // reproduce the pinned BENCH_decode.json anchors exactly: streaming
    // is additive, not a re-timing of existing plans.
    let v73 = DeviceProfile::v73();
    let cfg = ModelConfig::for_id(ModelId::Qwen1_5B);
    let plan = ShardPlan::single_session(&cfg, v73.session_va_bytes, 8, 1024).unwrap();
    let decode = |dispatch| {
        Deployment::new(&v73, ModelId::Qwen1_5B, &plan, dispatch)
            .and_then(|deployment| deployment.decode(8, 1024))
            .unwrap()
    };
    let s = decode(DispatchMode::Serial);
    assert!(
        (s.tokens_per_sec - 68.33).abs() < 0.01,
        "{}",
        s.tokens_per_sec
    );
    let o = decode(DispatchMode::Overlapped);
    assert!(
        (o.tokens_per_sec - 171.39).abs() < 0.01,
        "{}",
        o.tokens_per_sec
    );
    let q7 = NpuSimBackend::overlapped(v73.clone())
        .decode(ModelId::Qwen7B, 8, 1024)
        .unwrap();
    assert!(
        (q7.tokens_per_sec - 56.33).abs() < 0.01,
        "{}",
        q7.tokens_per_sec
    );
    assert_eq!(q7.sessions, 3);
    // The serial backend measures the same single-session deployment
    // bit-for-bit.
    let via_trait = NpuSimBackend::new(v73)
        .decode(ModelId::Qwen1_5B, 8, 1024)
        .unwrap();
    assert_eq!(via_trait.step_secs, s.step_secs);
    assert_eq!(via_trait.engine_secs, s.engine_secs);
}

#[test]
fn qwen7b_streams_in_one_session_at_low_loss() {
    // The headline: Qwen-7B batch-8 decode on the 8 Gen 2 drops from 3
    // resident sessions to 1 streamed session, keeping >= 90% of the
    // overlapped throughput (the cold-layer fetches hide behind compute
    // on the DMA lane).
    let device = DeviceProfile::v73();
    let resident = NpuSimBackend::overlapped(device.clone())
        .decode(ModelId::Qwen7B, 8, 1024)
        .unwrap();
    let streamed = NpuSimBackend::streamed(device)
        .decode(ModelId::Qwen7B, 8, 1024)
        .unwrap();
    assert_eq!(resident.sessions, 3);
    assert_eq!(streamed.sessions, 1);
    let ratio = streamed.tokens_per_sec / resident.tokens_per_sec;
    assert!(ratio >= 0.9, "streamed keeps only {ratio} of resident");
    // Fetches fully hide here, and the 1-session plan sheds the resident
    // plan's session switches — so streamed may fractionally *beat*
    // resident, but never by more than those switches are worth.
    assert!(ratio <= 1.01, "streamed implausibly fast: {ratio}");
}

#[test]
fn fits_and_decode_agree_for_larger_than_cap_models() {
    // Qwen-7B at batch 8 / ctx 8192 on the 8 Gen 2: the resident plan
    // wants more sessions than the rpcmem driver exposes, so the resident
    // backend rejects it in both the probe and the measurement; the
    // streaming placement stays under the cap and both accept, agreeing
    // on the session count.
    let device = DeviceProfile::v73();
    let cfg = ModelConfig::for_id(ModelId::Qwen7B);
    let resident_plan = ShardPlan::build(&cfg, device.session_va_bytes, 8, 8192).unwrap();
    assert!(resident_plan.sessions() > device.max_sessions);

    let resident = NpuSimBackend::overlapped(device.clone());
    assert!(resident.fits(ModelId::Qwen7B, 8, 8192).is_err());
    assert!(resident.decode(ModelId::Qwen7B, 8, 8192).is_err());

    let streamed = NpuSimBackend::streamed(device.clone());
    let fit = streamed.fits(ModelId::Qwen7B, 8, 8192).unwrap();
    assert!(fit.sessions <= device.max_sessions);
    let point = streamed.decode(ModelId::Qwen7B, 8, 8192).unwrap();
    assert_eq!(point.sessions, fit.sessions);
    assert!(point.tokens_per_sec > 0.2);
}
