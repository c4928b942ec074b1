//! Thermal/DVFS golden regression layer.
//!
//! Three guarantees pin the thermal feedback loop to the rest of the
//! repo:
//!
//! 1. **Inertness when disabled.** With thermals off (the default
//!    [`ThermalPolicy::Disabled`]) — or running the physics under an
//!    infinite throttle cap — every serving and decode number the
//!    existing `BENCH_decode.json`/`BENCH_serving.json` artifacts report
//!    reproduces bit-for-bit, and functional golden logits are untouched
//!    by the DVFS clock (the clock scales *rates*, never math).
//! 2. **Pinned throttle points.** For the fixed Qwen-3B b8 ctx-1024
//!    workload, the exact step index at which each Snapdragon generation
//!    first throttles is pinned (the simulator is deterministic, so any
//!    drift means the thermal constants or the cost model moved).
//! 3. **DVFS differential.** A throttled decode step recomputed through
//!    the full pipeline on an `at_clock`-scaled profile must match the
//!    from-scratch prediction — every engine lane's busy time dilates by
//!    exactly `1/mult`, including the DMA lane under weight streaming —
//!    while fixed session-switch costs do not dilate.

use npuscale::experiments::thermal_decode_rows;
use npuscale::pipeline::EngineIdx;
use npuscale::serve::{
    poisson_trace, FleetGateway, FleetSpec, GatewayConfig, TenantSpec, ThermalPolicy,
};
use npuscale_repro::prelude::*;

/// A device whose die can never reach its throttle cap: the thermal
/// physics runs but the governor never fires.
fn uncapped(device: &DeviceProfile) -> DeviceProfile {
    let mut d = device.clone();
    d.throttle_temp_c = f64::INFINITY;
    d
}

#[test]
fn decode_points_ignore_the_thermal_constants() {
    // The cost pipeline prices work from rates and capacities; the
    // thermal fields ride along on the profile without perturbing it.
    // This is what keeps the seed benchmarks bit-for-bit reproducible.
    for device in DeviceProfile::all() {
        let base = NpuSimBackend::overlapped(device.clone())
            .decode(ModelId::Qwen1_5B, 8, 1024)
            .unwrap();
        let capped = NpuSimBackend::overlapped(uncapped(&device))
            .decode(ModelId::Qwen1_5B, 8, 1024)
            .unwrap();
        assert_eq!(base.step_secs, capped.step_secs);
        assert_eq!(base.tokens_per_sec, capped.tokens_per_sec);
        assert_eq!(base.engine_secs, capped.engine_secs);
        assert_eq!(base.cpu_share, capped.cpu_share);
    }
}

#[test]
fn disabled_and_uncapped_blind_serving_agree_bit_for_bit() {
    // Running the full thermal physics under an infinite cap must be
    // indistinguishable from not running it at all: same clock, same
    // step durations, so every latency percentile and goodput number in
    // the serving artifact reproduces exactly.
    let tenants = [TenantSpec::interactive("chat"), TenantSpec::batch("bulk")];
    let trace = poisson_trace(&tenants, 3.0, 120, 20260808);

    let run = |spec: FleetSpec, thermal: ThermalPolicy| {
        let config = GatewayConfig {
            thermal,
            ..GatewayConfig::default()
        };
        FleetGateway::new(spec, config)
            .unwrap()
            .serve_trace(&trace)
            .unwrap()
    };

    let mut spec = FleetSpec::heterogeneous(ModelId::Qwen1_5B);
    let disabled = run(spec.clone(), ThermalPolicy::Disabled);
    for w in &mut spec.workers {
        w.device = uncapped(&w.device);
    }
    let blind = run(spec, ThermalPolicy::Blind);

    assert_eq!(disabled.completed, blind.completed);
    assert_eq!(disabled.rejected, blind.rejected);
    assert_eq!(disabled.slo_good, blind.slo_good);
    assert_eq!(disabled.decoded_tokens, blind.decoded_tokens);
    assert_eq!(disabled.peak_queue_depth, blind.peak_queue_depth);
    assert_eq!(disabled.makespan_secs, blind.makespan_secs);
    assert_eq!(disabled.goodput_rps, blind.goodput_rps);
    assert_eq!(disabled.tokens_per_sec, blind.tokens_per_sec);
    assert_eq!(disabled.ttft_p50_secs, blind.ttft_p50_secs);
    assert_eq!(disabled.ttft_p99_secs, blind.ttft_p99_secs);
    assert_eq!(disabled.tbt_p50_secs, blind.tbt_p50_secs);
    assert_eq!(disabled.tbt_p99_secs, blind.tbt_p99_secs);
    assert_eq!(disabled.queue_wait_p50_secs, blind.queue_wait_p50_secs);
    assert_eq!(disabled.queue_wait_p99_secs, blind.queue_wait_p99_secs);
    for (d, b) in disabled.workers.iter().zip(blind.workers.iter()) {
        assert_eq!(d.steps, b.steps, "{}", d.name);
        assert_eq!(d.busy_secs, b.busy_secs, "{}", d.name);
        assert_eq!(d.served, b.served, "{}", d.name);
        assert_eq!(d.decoded_tokens, b.decoded_tokens, "{}", d.name);
        // The uncapped die heats (physics ran) but never throttles; the
        // disabled die never even warms.
        assert_eq!(b.throttled_steps, 0, "{}", b.name);
        assert_eq!(d.throttled_steps, 0, "{}", d.name);
        if b.busy_secs > 0.0 {
            assert!(b.peak_temp_c > d.peak_temp_c, "{}", b.name);
        }
    }
}

#[test]
fn golden_logits_are_untouched_by_the_dvfs_clock() {
    // at_clock reprices time and watts; the functional tensor path must
    // be bitwise identical at any clock.
    let logits = |device: DeviceProfile| {
        let mut ctx = NpuContext::new(device, ExecMode::Functional);
        let model = Model::new(&mut ctx, ModelId::Tiny, DequantVariant::CoalescedLut, 99).unwrap();
        let mut cache = KvCache::new(&mut ctx, &model.cfg, 1, 64).unwrap();
        let tok = Tokenizer::new();
        model
            .prefill(&mut ctx, &mut cache, 0, &tok.encode_with_bos("7*6="))
            .unwrap()
            .logits
    };
    for device in DeviceProfile::all() {
        let hot = device.at_clock(device.sustained_clock_mult);
        assert_eq!(
            logits(device.clone()),
            logits(hot),
            "{}: logits moved with the clock",
            device.name
        );
    }
}

#[test]
fn first_throttle_steps_are_pinned_for_qwen3b_b8() {
    // The fixed workload from the BENCH_power artifact: Qwen-3B, batch 8,
    // ctx 1024, back-to-back decode from a cold die. The step index where
    // each generation first crosses its cap is a golden number — any
    // drift means the cost model, power model, or thermal constants
    // changed and the artifact needs re-pinning.
    let pinned = [("8G2", 298usize), ("8G3", 405), ("8G4", 573)];
    let rows = thermal_decode_rows();
    assert_eq!(rows.len(), pinned.len());
    for (device, step) in pinned {
        let row = rows.iter().find(|r| r.device == device).unwrap();
        assert_eq!(
            row.first_throttle_step,
            Some(step),
            "{device}: first throttle moved (got {:?}, {} s)",
            row.first_throttle_step,
            row.first_throttle_secs.unwrap_or(f64::NAN)
        );
    }
}

#[test]
fn throttled_pipeline_matches_the_scalar_dilation_reference() {
    // Differential test: every engine lane's busy time under a DVFS
    // clock `m` must follow the affine law `lane(m) = F + S/m`, where
    // `F` is fixed host-side overhead (ring dispatch/completion
    // latencies, session switches — they do not stretch with the NPU
    // clock) and `S` is clock-scaled engine work. Solve F and S from
    // scratch out of two probe runs (m = 1 and m = 0.5), then predict
    // the sustained clock point and check the pipeline against it on
    // all six lanes. Weight streaming keeps the DMA lane hot, so the
    // streaming fetch path is covered, not just compute.
    type Ctor = fn(DeviceProfile) -> NpuSimBackend;
    let variants: [(&str, Ctor); 2] = [
        ("overlapped", NpuSimBackend::overlapped),
        ("streamed", NpuSimBackend::streamed),
    ];
    for device in DeviceProfile::all() {
        let mult = device.sustained_clock_mult;
        for (variant, ctor) in variants {
            let probe = |m: f64| {
                let d = if m < 1.0 {
                    device.at_clock(m)
                } else {
                    device.clone()
                };
                ctor(d).decode(ModelId::Qwen1_5B, 8, 1024).unwrap()
            };
            let full = probe(1.0);
            let half = probe(0.5);
            let hot = probe(mult);
            for lane in 0..full.engine_secs.len() {
                // lane(1) = F + S, lane(0.5) = F + 2S.
                let scaled = half.engine_secs[lane] - full.engine_secs[lane];
                let fixed = full.engine_secs[lane] - scaled;
                assert!(
                    scaled >= -1e-9 && fixed >= -1e-9,
                    "{} {variant} lane {lane}: F {fixed} S {scaled}",
                    device.name
                );
                // The subtractive solve amplifies rounding; 5e-8 relative
                // still catches any real mispricing, which is >= O(mult).
                let want = fixed + scaled / mult;
                let got = hot.engine_secs[lane];
                assert!(
                    (got - want).abs() <= want.abs() * 5e-8 + 1e-12,
                    "{} {variant} lane {lane}: {got} vs reference {want}",
                    device.name
                );
            }
            // Structure checks: the scalar lane is pure fixed overhead,
            // the NPU data lanes are pure clock-scaled work.
            let lane = |p: &npuscale::pipeline::DecodePoint, e: hexsim::cost::Engine| {
                p.engine_secs[e.idx_pub()]
            };
            use hexsim::cost::Engine;
            assert_eq!(
                lane(&full, Engine::Scalar),
                lane(&hot, Engine::Scalar),
                "{} {variant}: scalar dispatch overhead must not dilate",
                device.name
            );
            for e in [Engine::Hvx, Engine::Hmx, Engine::Dma, Engine::L2fetch] {
                let want = lane(&full, e) / mult;
                let got = lane(&hot, e);
                // Thousands of per-op charges accumulate last-bit rounding
                // in a different order at each clock; 5e-8 relative still
                // catches any real mispricing.
                assert!(
                    (got - want).abs() <= want.abs() * 5e-8 + 1e-12,
                    "{} {variant} {e:?}: {got} vs pure dilation {want}",
                    device.name
                );
            }
        }
        // The streamed plan must actually exercise the DMA lane.
        let streamed = NpuSimBackend::streamed(device.clone())
            .decode(ModelId::Qwen1_5B, 8, 1024)
            .unwrap();
        let dma = streamed.engine_secs[hexsim::cost::Engine::Dma.idx_pub()];
        assert!(
            dma > 0.0,
            "{}: streaming left the DMA lane idle",
            device.name
        );
    }
}

#[test]
fn sharded_throttled_steps_beat_pure_dilation() {
    // Qwen-3B shards across sessions on every device; the per-step
    // session-switch charge is a fixed hardware cost that does not
    // stretch with the clock, so throttled throughput must stay at or
    // above `burst * mult` — never below.
    for device in DeviceProfile::all() {
        let mult = device.sustained_clock_mult;
        let base = NpuSimBackend::overlapped(device.clone())
            .decode(ModelId::Qwen3B, 8, 1024)
            .unwrap();
        let hot = NpuSimBackend::overlapped(device.at_clock(mult))
            .decode(ModelId::Qwen3B, 8, 1024)
            .unwrap();
        assert!(
            hot.tokens_per_sec >= base.tokens_per_sec * mult * (1.0 - 1e-6),
            "{}: throttled {} below burst {} * mult {}",
            device.name,
            hot.tokens_per_sec,
            base.tokens_per_sec,
            mult
        );
        assert!(hot.tokens_per_sec < base.tokens_per_sec);
    }
}
