//! Determinism guarantees: identical seeds produce identical results at
//! every layer of the stack — the property that makes the experiment
//! harness reproducible run to run.

use npuscale_repro::prelude::*;
use ttscale::best_of_n;

#[test]
fn weights_and_forward_are_seed_deterministic() {
    let run = || {
        let mut ctx = NpuContext::new(DeviceProfile::v75(), ExecMode::Functional);
        let model = Model::new(&mut ctx, ModelId::Tiny, DequantVariant::CoalescedLut, 99).unwrap();
        let mut cache = KvCache::new(&mut ctx, &model.cfg, 1, 64).unwrap();
        let tok = Tokenizer::new();
        let out = model
            .prefill(&mut ctx, &mut cache, 0, &tok.encode_with_bos("7*6="))
            .unwrap();
        out.logits
    };
    assert_eq!(run(), run());
}

#[test]
fn different_seeds_differ() {
    let logits = |seed| {
        let mut ctx = NpuContext::new(DeviceProfile::v75(), ExecMode::Functional);
        let model =
            Model::new(&mut ctx, ModelId::Tiny, DequantVariant::CoalescedLut, seed).unwrap();
        let mut cache = KvCache::new(&mut ctx, &model.cfg, 1, 64).unwrap();
        let tok = Tokenizer::new();
        model
            .prefill(&mut ctx, &mut cache, 0, &tok.encode_with_bos("x"))
            .unwrap()
            .logits
    };
    assert_ne!(logits(1), logits(2));
}

#[test]
fn cost_measurements_are_exactly_repeatable() {
    let measure = || {
        let device = DeviceProfile::v75();
        let cfg = ModelConfig::for_id(ModelId::Qwen1_5B);
        let plan = ShardPlan::single_session(&cfg, device.session_va_bytes, 8, 1024).unwrap();
        let p = Deployment::new(&device, ModelId::Qwen1_5B, &plan, DispatchMode::Serial)
            .and_then(|deployment| deployment.decode(8, 1024))
            .unwrap();
        (p.step_secs, p.cpu_share)
    };
    let (a_secs, a_share) = measure();
    let (b_secs, b_share) = measure();
    assert_eq!(a_secs, b_secs);
    assert_eq!(a_share, b_share);
}

#[test]
fn tts_accuracy_is_seed_stable() {
    let acc = || {
        let policy = CalibratedPolicy::new(ModelId::Qwen1_5B, DatasetKind::Math500Like);
        let tasks = TaskGenerator::new(DatasetKind::Math500Like, 12).take(200);
        best_of_n::accuracy_over_tasks(&policy, &SimOrm::default(), &tasks, 8, 42)
    };
    assert_eq!(acc(), acc());
}

/// Smoke test for the pinned `rand`: seeded `StdRng` streams are stable
/// run to run and across independent instances — the base property every
/// other determinism guarantee in this file builds on. (The vendored shim
/// promises per-seed determinism, not upstream bit-compatibility, so this
/// checks stream self-consistency rather than golden values.)
#[test]
fn seeded_std_rng_streams_are_stable() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let stream = |seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        let floats: Vec<f64> = (0..32).map(|_| rng.gen()).collect();
        let ints: Vec<i64> = (0..32).map(|_| rng.gen_range(-999i64..=999)).collect();
        let units: Vec<f32> = (0..32).map(|_| rng.gen_range(f32::EPSILON..1.0)).collect();
        (floats, ints, units)
    };
    assert_eq!(stream(42), stream(42));
    assert_ne!(stream(42), stream(43));

    // The same property holds one level up, through every consumer of the
    // pinned rand: synthetic weights and workload generation.
    let weights = |seed| tilequant::synth::gaussian_matrix(16, 32, seed, 1.0, 0.05);
    assert_eq!(weights(7), weights(7));
    assert_ne!(weights(7), weights(8));

    let tasks = |seed: u64| {
        TaskGenerator::new(DatasetKind::Math500Like, seed)
            .take(50)
            .into_iter()
            .map(|t| (t.statement, t.answer))
            .collect::<Vec<_>>()
    };
    assert_eq!(tasks(12), tasks(12));
    assert_ne!(tasks(12), tasks(13));
}

#[test]
fn experiment_rows_are_stable() {
    let a = npuscale::experiments::fig8_rows();
    let b = npuscale::experiments::fig8_rows();
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.softmax_pct, y.softmax_pct);
    }
}
