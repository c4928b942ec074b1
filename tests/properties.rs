//! Property-based tests (proptest) on the core data structures and
//! invariants of the stack: binary16 arithmetic, quantization codecs,
//! tile layouts, LUT kernels and softmax.

use hexsim::f16::F16;
use hexsim::hmx::{pack_tile, unpack_tile, TILE_DIM};
use hexsim::prelude::*;
use htpops::exp_lut::ExpLut16;
use htpops::reference::softmax_ref_f64;
use htpops::softmax::{softmax_host, SoftmaxConfig};
use proptest::prelude::*;
use tilequant::block::{BlockQ4_0, BlockQ8_0, GROUP_SIZE};
use tilequant::super_group::SuperBlockQ4;
use tilequant::{QuantScheme, QuantizedMatrix, WeightLayout};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// f16 -> f32 -> f16 is the identity for every non-NaN bit pattern.
    #[test]
    fn f16_f32_roundtrip(bits in 0u16..=0xffff) {
        let h = F16(bits);
        prop_assume!(!h.is_nan());
        prop_assert_eq!(F16::from_f32(h.to_f32()).0, bits);
    }

    /// f32 -> f16 never increases magnitude by more than half an ULP
    /// (monotone rounding), and clamps to +-inf past the max finite value.
    #[test]
    fn f16_rounding_is_monotone(a in -70000.0f32..70000.0, b in -70000.0f32..70000.0) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let hlo = F16::from_f32(lo).to_f32();
        let hhi = F16::from_f32(hi).to_f32();
        prop_assert!(hlo <= hhi, "rounding must preserve order: {} {} -> {} {}", lo, hi, hlo, hhi);
    }

    /// Q4_0 reconstruction error is bounded by one quantization step.
    #[test]
    fn q4_error_bounded(values in prop::collection::vec(-8.0f32..8.0, GROUP_SIZE)) {
        let block = BlockQ4_0::quantize(&values);
        let deq = block.dequantize();
        let step = block.scale.to_f32().abs().max(1e-6);
        for (orig, got) in values.iter().zip(deq.iter()) {
            prop_assert!((orig - got).abs() <= step * 1.01 + 1e-3);
        }
    }

    /// Q8_0 reconstruction error is bounded by one step.
    #[test]
    fn q8_error_bounded(values in prop::collection::vec(-100.0f32..100.0, GROUP_SIZE)) {
        let block = BlockQ8_0::quantize(&values);
        let deq = block.dequantize();
        let step = block.scale.to_f32().abs().max(1e-6);
        for (orig, got) in values.iter().zip(deq.iter()) {
            prop_assert!((orig - got).abs() <= step * 0.75 + 1e-3);
        }
    }

    /// Super-group coalescing is lossless: to_blocks inverts from_blocks.
    #[test]
    fn super_group_roundtrip(values in prop::collection::vec(-4.0f32..4.0, 256)) {
        let blocks: [BlockQ4_0; 8] = std::array::from_fn(|g| {
            BlockQ4_0::quantize(&values[g * 32..(g + 1) * 32])
        });
        let sb = SuperBlockQ4::from_blocks(&blocks);
        prop_assert_eq!(sb.to_blocks(), blocks);
        let wire = SuperBlockQ4::from_bytes(&sb.to_bytes());
        prop_assert_eq!(wire, sb);
    }

    /// The HMX tile layout is a bijection: pack then unpack is identity.
    #[test]
    fn tile_pack_unpack_identity(seed in 0u64..1000) {
        let mut tile = [[F16::ZERO; TILE_DIM]; TILE_DIM];
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        for row in tile.iter_mut() {
            for v in row.iter_mut() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                *v = F16::from_f32(((state >> 40) as f32) / 1e6 - 8.0);
            }
        }
        let packed = pack_tile(&tile);
        let back = unpack_tile(&packed);
        for r in 0..TILE_DIM {
            for c in 0..TILE_DIM {
                prop_assert_eq!(tile[r][c], back[r][c]);
            }
        }
    }

    /// Quantize -> dequantize keeps the layout permutation consistent:
    /// both layouts reconstruct the same matrix up to quantization error.
    #[test]
    fn layouts_agree_up_to_quant_error(seed in 0u64..500) {
        let w = tilequant::synth::gaussian_matrix(32, 64, seed, 1.0, 0.0);
        let a = QuantizedMatrix::quantize(&w, 32, 64, QuantScheme::Q4_0, WeightLayout::ColumnMajorGroups).dequantize();
        let b = QuantizedMatrix::quantize(&w, 32, 64, QuantScheme::Q4_0, WeightLayout::HmxTileGroups).dequantize();
        for ((orig, x), y) in w.iter().zip(&a).zip(&b) {
            prop_assert!((orig - x).abs() < 1.5);
            prop_assert!((orig - y).abs() < 1.5);
        }
    }

    /// The exp LUT agrees with f64 exp (rounded to f16) on all non-positive
    /// finite inputs.
    #[test]
    fn exp_lut_matches_f64(mag_bits in 0u16..0x7c00) {
        let mut ctx = NpuContext::new(DeviceProfile::v75(), ExecMode::Functional);
        let lut = ExpLut16::build(&mut ctx).unwrap();
        let x = F16(mag_bits | 0x8000); // Negative finite.
        let got = lut.exp_scalar(&ctx, x);
        let expect = F16::from_f64((x.to_f32() as f64).exp());
        prop_assert_eq!(got.0, expect.0);
    }
}

proptest! {
    // Softmax runs a full kernel per case; keep the case count lower.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// LUT softmax rows sum to ~1 and match the f64 reference elementwise.
    #[test]
    fn softmax_rows_normalize(values in prop::collection::vec(-6.0f32..6.0, 128)) {
        let mut ctx = NpuContext::new(DeviceProfile::v75(), ExecMode::Functional);
        let lut = ExpLut16::build(&mut ctx).unwrap();
        let cfg = SoftmaxConfig {
            rows: 1,
            cols: 128,
            method: htpops::exp_lut::ExpMethod::Lut16,
        };
        let (got, _) = softmax_host(&mut ctx, &lut, cfg, &values);
        let sum: f32 = got.iter().sum();
        prop_assert!((sum - 1.0).abs() < 0.02, "sum {}", sum);
        let reference = softmax_ref_f64(&values);
        for (g, r) in got.iter().zip(&reference) {
            prop_assert!((*g as f64 - r).abs() < 3e-3);
        }
    }
}

proptest! {
    // Each case runs a full functional decode workload on the tiny model.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The continuous-batching `DecodeSession` never exceeds its
    /// configured max batch, drains every admitted sequence to exactly
    /// its token budget, and emits each sequence's tokens in order.
    #[test]
    fn decode_session_bounds_batch_and_preserves_order(
        lengths8 in prop::collection::vec(1usize..10, 8),
        count in 1usize..9,
        max_batch in 1usize..5
    ) {
        use npuscale_repro::prelude::*;
        use std::collections::HashMap;

        let lengths = &lengths8[..count];

        let mut ctx = NpuContext::new(DeviceProfile::v75(), ExecMode::Functional);
        let model = Model::new(&mut ctx, ModelId::Tiny, DequantVariant::CoalescedLut, 7).unwrap();
        let prompt = Tokenizer::new().encode_with_bos("2*3=");
        let max_len = lengths.iter().copied().max().unwrap();
        let budget = max_batch * (prompt.len() + max_len + 2) + prompt.len();
        let mut session =
            DecodeSession::new(&mut ctx, &model, &prompt, max_batch, budget).unwrap();

        for (i, &len) in lengths.iter().enumerate() {
            let id = session.admit(60 + i as u32, len).unwrap();
            prop_assert_eq!(id, i as SeqId);
            prop_assert!(session.active_count() <= max_batch);
        }

        // Drain, recording every emitted token per sequence in step order
        // and re-checking the batch bound after every step.
        let mut emitted: HashMap<SeqId, Vec<u32>> = HashMap::new();
        let mut counter = 0u32;
        let mut guard = 0usize;
        while session.active_count() > 0 {
            let step = session
                .step(&mut ctx, |_, _| {
                    counter += 1;
                    100 + (counter % 120)
                })
                .unwrap();
            prop_assert!(!step.is_empty());
            prop_assert!(session.active_count() <= max_batch);
            for (id, t) in step {
                emitted.entry(id).or_default().push(t);
            }
            guard += 1;
            prop_assert!(guard <= lengths.iter().sum::<usize>() + 1, "failed to drain");
        }

        prop_assert_eq!(session.finished().len(), lengths.len());
        prop_assert_eq!(
            session.decoded_tokens(),
            lengths.iter().map(|l| l - 1).sum::<usize>()
        );
        for f in session.finished() {
            let len = lengths[f.id as usize];
            prop_assert_eq!(f.tokens.len(), len);
            // First token is the admission token; the rest must appear in
            // exactly the order the steps emitted them.
            prop_assert_eq!(f.tokens[0], 60 + f.id as u32);
            let steps_for_seq = emitted.remove(&f.id).unwrap_or_default();
            prop_assert_eq!(&f.tokens[1..], &steps_for_seq[..]);
        }
    }

    /// Under random interleavings of plain admits, chunked prompt admits,
    /// decode/prefill steps, early-EOS retires, and mid-stream
    /// preempt/resume, the session conserves sequences —
    /// `active + queued + prefilling + held-preempted + finished` equals
    /// the number admitted after every operation — and KV slot accounting
    /// never leaks: the DDR mapping stays flat while sequences churn
    /// (snapshots live on the host, not in DDR) and drops back to the
    /// model-only footprint on release.
    #[test]
    fn decode_session_conserves_sequences_under_random_admit_retire(
        ops in prop::collection::vec(0u8..6, 24),
        seed in 0u64..1000
    ) {
        use npuscale_repro::prelude::*;
        use std::collections::BTreeSet;

        let mut ctx = NpuContext::new(DeviceProfile::v75(), ExecMode::Functional);
        let model = Model::new(&mut ctx, ModelId::Tiny, DequantVariant::CoalescedLut, 7).unwrap();
        let ddr_model_only = ctx.ddr_mapped_bytes();
        let prompt = Tokenizer::new().encode_with_bos("2*3=");
        let (max_batch, max_new) = (3usize, 6usize);
        let budget = max_batch * (prompt.len() + 4 + max_new + 2) + prompt.len();
        let mut session =
            DecodeSession::new(&mut ctx, &model, &prompt, max_batch, budget).unwrap();
        let ddr_serving = ctx.ddr_mapped_bytes();
        prop_assert!(ddr_serving > ddr_model_only, "KV must map DDR");

        let mut admitted = 0usize;
        let mut live: BTreeSet<SeqId> = BTreeSet::new();
        let mut held: Vec<PreemptedSeq> = Vec::new();
        let mut counter = seed as u32;
        let is_eos = |t: u32| t.is_multiple_of(5);
        let run_step = |session: &mut DecodeSession,
                            ctx: &mut NpuContext,
                            counter: &mut u32|
         -> SimResult<Vec<(SeqId, u32)>> {
            if session.prefilling_count() > 0 {
                session.prefill_step(ctx, |_| 77)?;
                Ok(Vec::new())
            } else if session.active_count() > 0 {
                session.step(ctx, |_, _| {
                    *counter += 1;
                    100 + (*counter % 120)
                })
            } else {
                Ok(Vec::new())
            }
        };
        for (n, &op) in ops.iter().enumerate() {
            match op {
                0 => {
                    let id = session.admit(60 + n as u32, 1 + (n + seed as usize) % max_new)
                        .unwrap();
                    admitted += 1;
                    live.insert(id);
                }
                1 => {
                    if session.has_free_slot() {
                        let plen = 1 + (n + seed as usize) % 4;
                        let id = session
                            .admit_prompt(&vec![1u32; plen], max_new, 2)
                            .unwrap();
                        admitted += 1;
                        live.insert(id);
                    }
                }
                2 => {
                    let sampled = run_step(&mut session, &mut ctx, &mut counter).unwrap();
                    // Early EOS: retire the sequence the moment its
                    // sampled token terminates it (unless the budget
                    // already auto-retired it in the same step).
                    for (id, t) in sampled {
                        if is_eos(t)
                            && session.finished().iter().all(|f| f.id != id)
                        {
                            session.retire(id).unwrap();
                        }
                    }
                }
                3 => {
                    // Retire a deterministic live victim — may be active,
                    // queued, or mid-prefill.
                    let victims: Vec<SeqId> = live.iter().copied().collect();
                    if !victims.is_empty() {
                        let pick = victims[(n + seed as usize) % victims.len()];
                        session.retire(pick).unwrap();
                    }
                }
                4 => {
                    // Preempt a deterministic active decode: its KV rows
                    // snapshot to the host, the slot frees, and the
                    // sequence is held outside the session.
                    let ids = session.active_ids();
                    if !ids.is_empty() {
                        let pick = ids[(n + seed as usize) % ids.len()];
                        let paused = session.preempt(pick).unwrap();
                        live.remove(&pick);
                        held.push(paused);
                    }
                }
                _ => {
                    // Resume the most recently held sequence once a slot
                    // is free.
                    if session.has_free_slot() {
                        if let Some(paused) = held.pop() {
                            let id = session.resume(&paused).unwrap();
                            live.insert(id);
                        }
                    }
                }
            }
            for f in session.finished() {
                live.remove(&f.id);
            }
            // Conservation: nothing is ever lost or double-counted —
            // held-preempted sequences count toward the total.
            prop_assert_eq!(
                session.active_count()
                    + session.queued_count()
                    + session.prefilling_count()
                    + held.len()
                    + session.finished().len(),
                admitted,
                "op {} ({})", n, op
            );
            prop_assert!(session.active_count() <= max_batch);
            // KV never leaks while sequences churn through the slots.
            prop_assert_eq!(ctx.ddr_mapped_bytes(), ddr_serving, "op {}", n);
        }
        // Drain whatever is still in flight, resuming held sequences as
        // slots free up.
        let mut guard = 0usize;
        while session.active_count() + session.prefilling_count() > 0 || !held.is_empty() {
            if !held.is_empty() && session.has_free_slot() {
                let paused = held.pop().unwrap();
                let id = session.resume(&paused).unwrap();
                live.insert(id);
                continue;
            }
            run_step(&mut session, &mut ctx, &mut counter).unwrap();
            guard += 1;
            prop_assert!(guard < 1000, "failed to drain");
        }
        prop_assert_eq!(session.queued_count(), 0);
        prop_assert_eq!(session.finished().len(), admitted);
        let finished = session.into_finished(&mut ctx);
        prop_assert_eq!(finished.len(), admitted);
        // Releasing the session returns DDR to the model-only footprint.
        prop_assert_eq!(ctx.ddr_mapped_bytes(), ddr_model_only);
    }

    /// Pausing decodes at arbitrary step indices — while queued
    /// sequences churn through the freed slots and change the batch
    /// composition — and resuming them later yields, for every sequence,
    /// exactly the token stream of an uninterrupted greedy run: the KV
    /// snapshot/restore round-trip is bit-exact under any interleaving.
    #[test]
    fn preempt_resume_decode_is_bit_identical(
        pause_after in prop::collection::vec(1usize..12, 3),
        lens3 in prop::collection::vec(2usize..8, 3),
        seed in 0u64..500
    ) {
        use npuscale_repro::prelude::*;
        use std::collections::HashMap;

        let mut ctx = NpuContext::new(DeviceProfile::v75(), ExecMode::Functional);
        let model = Model::new(&mut ctx, ModelId::Tiny, DequantVariant::CoalescedLut, 7).unwrap();
        let prompt = Tokenizer::new().encode_with_bos("2*3=");
        let greedy = |logits: &[f32]| -> u32 {
            logits
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .unwrap()
                .0 as u32
        };
        let budget = 2 * (prompt.len() + 8 + 2) + prompt.len();
        let run = |ctx: &mut NpuContext,
                       pauses: Option<&[usize]>|
         -> SimResult<HashMap<SeqId, Vec<u32>>> {
            let mut s = DecodeSession::new(ctx, &model, &prompt, 2, budget)?;
            for (i, &len) in lens3.iter().enumerate() {
                s.admit(60 + ((seed as u32 + i as u32) % 8), len)?;
            }
            let mut held: Vec<PreemptedSeq> = Vec::new();
            let mut steps = 0usize;
            let mut guard = 0usize;
            while s.active_count() > 0 || !held.is_empty() {
                guard += 1;
                assert!(guard < 500, "session failed to drain");
                if !held.is_empty() && s.has_free_slot() {
                    let paused = held.pop().unwrap();
                    s.resume(&paused)?;
                    continue;
                }
                if s.active_count() > 0 {
                    s.step(ctx, |_, logits| greedy(logits))?;
                    steps += 1;
                    if pauses.is_some_and(|ps| ps.contains(&steps)) {
                        let ids = s.active_ids();
                        if !ids.is_empty() {
                            let pick = ids[(steps + seed as usize) % ids.len()];
                            held.push(s.preempt(pick)?);
                        }
                    }
                }
            }
            Ok(s.into_finished(ctx).into_iter().map(|f| (f.id, f.tokens)).collect())
        };
        let uninterrupted = run(&mut ctx, None).unwrap();
        let preempted = run(&mut ctx, Some(&pause_after)).unwrap();
        prop_assert_eq!(uninterrupted, preempted);
    }
}

/// Replays an arbitrary proposal stream as a draft model: position in
/// the committed sequence indexes the stream (wrapping), so a fully
/// accepted round never desynchronizes the replay.
struct ReplayDraft {
    stream: Vec<u32>,
    prompt_len: usize,
}

impl ttscale::spec_decode::DraftModel for ReplayDraft {
    fn propose(&mut self, context: &[u32]) -> u32 {
        let pos = context.len() - self.prompt_len;
        self.stream[pos % self.stream.len()]
    }
}

proptest! {
    // Each case runs functional decode workloads on the tiny model.
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Speculation is lossless against *any* draft: whatever token
    /// stream the draft proposes and whatever the draft length, the
    /// accepted sequence is bit-identical to plain greedy decoding, and
    /// the target KV advances by exactly accepted + 1 per verify round.
    /// A host draft costs nothing on the device, and the overlapped
    /// schedule never exceeds the serial stage sum.
    #[test]
    fn speculation_is_lossless_for_any_draft_stream(
        proposals in prop::collection::vec(0u32..256, 32),
        draft_len in 1usize..6,
        new_tokens in 2usize..14
    ) {
        use npuscale_repro::prelude::*;
        use ttscale::spec_decode::{greedy_generate, speculative_generate};

        let mut ctx = NpuContext::new(DeviceProfile::v75(), ExecMode::Functional);
        let model = Model::new(&mut ctx, ModelId::Tiny, DequantVariant::CoalescedLut, 21).unwrap();
        let prompt = vec![1u32, 50, 60, 70];
        let (greedy, _) = greedy_generate(&mut ctx, &model, &prompt, new_tokens).unwrap();
        let mut draft = ReplayDraft { stream: proposals, prompt_len: prompt.len() };
        let spec = speculative_generate(
            &mut ctx, &model, &mut draft, &prompt, new_tokens, draft_len,
        ).unwrap();
        prop_assert_eq!(&spec.tokens, &greedy, "speculation must be lossless");
        let draft_cost = spec.draft_cost;
        prop_assert!(draft_cost.wall_secs() == 0.0 && draft_cost.overlapped_secs == 0.0);
        prop_assert!(spec.overlapped_secs <= spec.serial_secs + 1e-12);
        let mut expect = prompt.len();
        for r in &spec.rounds {
            prop_assert!(r.accepted <= r.draft_len);
            expect += r.accepted + 1;
            prop_assert_eq!(r.kv_len, expect, "KV invariant violated");
        }
    }

    /// The two-model pipeline is lossless under any adaptive-controller
    /// configuration and any draft weights, maintains the per-round KV
    /// invariant, and its overlapped schedule never exceeds the serial
    /// stage sum.
    #[test]
    fn two_model_pipeline_is_lossless_under_any_controller(
        draft_seed in 0u64..1000,
        init in 1usize..5,
        span in 0usize..4,
        new_tokens in 2usize..14
    ) {
        use npuscale_repro::prelude::*;
        use ttscale::spec_decode::{
            greedy_generate, speculative_decode_pipeline, DraftLenController,
        };

        let mut ctx = NpuContext::new(DeviceProfile::v75(), ExecMode::Functional);
        let target = Model::new(&mut ctx, ModelId::Tiny, DequantVariant::CoalescedLut, 21).unwrap();
        let draft = Model::new(
            &mut ctx, ModelId::Tiny, DequantVariant::CoalescedLut, draft_seed,
        ).unwrap();
        let prompt = vec![1u32, 50, 60, 70, 80];
        let (greedy, _) = greedy_generate(&mut ctx, &target, &prompt, new_tokens).unwrap();
        let mut ctrl = DraftLenController::adaptive(init, 1, init + span);
        let out = speculative_decode_pipeline(
            &mut ctx, &target, &draft, &prompt, new_tokens, &mut ctrl,
        ).unwrap();
        prop_assert_eq!(&out.tokens, &greedy, "two-model speculation must be lossless");
        prop_assert!(out.overlapped_secs <= out.serial_secs + 1e-12);
        let mut expect = prompt.len();
        for r in &out.rounds {
            expect += r.accepted + 1;
            prop_assert_eq!(r.kv_len, expect, "KV invariant violated");
        }
    }
}

proptest! {
    // Thermal RC model + DVFS governor invariants. Cheap pure arithmetic,
    // so the full case count is fine.
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Under constant power a die heats monotonically toward (and never
    /// crosses) its equilibrium temperature.
    #[test]
    fn thermal_heating_is_monotone_and_bounded_by_equilibrium(
        dev in 0usize..3,
        power_w in 0.5f64..9.0,
        dt_ms in 5.0f64..200.0,
        steps in 1usize..4000
    ) {
        let device = DeviceProfile::all()[dev].clone();
        let eq = device.equilibrium_temp_c(power_w);
        let mut s = npuscale::thermal::ThermalState::ambient(&device);
        let mut prev = s.temp_c;
        for _ in 0..steps {
            s.step(&device, power_w, dt_ms / 1000.0);
            prop_assert!(s.temp_c >= prev, "cooled under load: {} -> {}", prev, s.temp_c);
            prop_assert!(s.temp_c <= eq + 1e-9, "overshot equilibrium {}: {}", eq, s.temp_c);
            prev = s.temp_c;
        }
    }

    /// A governed die never exceeds its throttle cap by more than the
    /// single step that crossed it: once over the cap the governor is
    /// throttled and the worst-case sustained equilibrium sits below the
    /// cap, so the temperature immediately relaxes.
    #[test]
    fn governed_die_never_exceeds_cap_plus_one_step(
        dev in 0usize..3,
        utils in prop::collection::vec(0.0f64..=1.0, 400),
        dt_ms in 10.0f64..150.0
    ) {
        let device = DeviceProfile::all()[dev].clone();
        let dt = dt_ms / 1000.0;
        // Worst-case dynamic draw: every engine lane at utilization `u`,
        // both memory lanes and all four CPU cores included.
        let dyn_max = device.hvx_power_w
            + device.hmx_power_w
            + 2.0 * device.dma_power_w
            + 4.0 * device.cpu_core_power_w;
        let mult3 = device.sustained_clock_mult.powi(3);
        // One worst-case burst step is the largest possible overshoot:
        // a crossing step always starts below the cap, and while over
        // the cap the governor is throttled, so the die only cools.
        let slack = (device.base_power_w + dyn_max) * dt / device.thermal_capacitance_j_per_c;
        let mut s = npuscale::thermal::ThermalState::ambient(&device);
        let mut governor = npuscale::thermal::DvfsGovernor::new();
        for &u in &utils {
            governor.observe(&device, s.temp_c);
            // Cube-law: throttled steps draw mult^3 of the dynamic power.
            let power_w = if governor.is_throttled() {
                device.base_power_w + u * dyn_max * mult3
            } else {
                device.base_power_w + u * dyn_max
            };
            s.step(&device, power_w, dt);
            prop_assert!(
                s.temp_c <= device.throttle_temp_c + slack + 1e-9,
                "temp {} cap {} slack {}",
                s.temp_c, device.throttle_temp_c, slack
            );
        }
    }

    /// An idle die always relaxes toward ambient: monotone decrease,
    /// never undershooting, and gone after many time constants.
    #[test]
    fn idle_die_relaxes_to_ambient(
        dev in 0usize..3,
        excess in 0.1f64..40.0,
        dt_ms in 5.0f64..500.0
    ) {
        let device = DeviceProfile::all()[dev].clone();
        let dt = dt_ms / 1000.0;
        let mut s = npuscale::thermal::ThermalState {
            temp_c: device.ambient_temp_c + excess,
        };
        let tau = device.thermal_time_constant_secs();
        let steps = (12.0 * tau / dt).ceil() as usize;
        let mut prev = s.temp_c;
        for _ in 0..steps {
            s.step(&device, 0.0, dt);
            prop_assert!(s.temp_c <= prev, "heated while idle");
            prop_assert!(s.temp_c >= device.ambient_temp_c - 1e-9, "undershot ambient");
            prev = s.temp_c;
        }
        // 12 tau: the excess has decayed below e^-12 ~ 6e-6 of its start.
        prop_assert!(
            s.temp_c - device.ambient_temp_c < excess * 1e-4 + 1e-9,
            "still {} above ambient after 12 tau", s.temp_c - device.ambient_temp_c
        );
    }

    /// Energy is conserved across arbitrary step interleavings: the
    /// joules pushed in equal the capacitance delta plus everything
    /// dissipated to ambient, whatever the (power, dt) sequence.
    #[test]
    fn thermal_energy_is_conserved_across_random_interleavings(
        dev in 0usize..3,
        powers in prop::collection::vec(0.0f64..10.0, 300),
        dts_ms in prop::collection::vec(1.0f64..300.0, 300)
    ) {
        let device = DeviceProfile::all()[dev].clone();
        let mut s = npuscale::thermal::ThermalState::ambient(&device);
        let start = s.temp_c;
        let mut joules_in = 0.0f64;
        let mut dissipated = 0.0f64;
        for (&power_w, &dt_ms) in powers.iter().zip(&dts_ms) {
            let dt = dt_ms / 1000.0;
            dissipated += s.step(&device, power_w, dt);
            joules_in += power_w * dt;
        }
        let stored = device.thermal_capacitance_j_per_c * (s.temp_c - start);
        let budget = joules_in.abs().max(1.0);
        prop_assert!(
            (joules_in - stored - dissipated).abs() <= budget * 1e-9,
            "in {} stored {} out {}", joules_in, stored, dissipated
        );
    }
}

proptest! {
    // Each case builds a two-worker gateway and serves a short trace.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The gateway conserves requests under every policy combination: a
    /// random two-tenant trace is served `Ok`, every request completes or
    /// is rejected, and the tenant and worker rows add up to the report.
    /// Both workers cap the context at 512 tokens, so prompts near 480
    /// with large budgets fit nowhere and are rejected, not stuck.
    #[test]
    fn gateway_conserves_requests_under_every_policy(
        n in 1usize..=12,
        tenants in prop::collection::vec(0usize..2, 12),
        arrivals in prop::collection::vec(0.0f64..3.0, 12),
        prompts in prop::collection::vec(1usize..=480, 12),
        budgets in prop::collection::vec(1usize..=64, 12),
        outputs in prop::collection::vec(1usize..=64, 12),
        policy in 0usize..16,
        queue_capacity in 1usize..=4
    ) {
        use npuscale::serve::{PreemptionPolicy, SchedulingPolicy, ThermalPolicy, WorkerSpec};
        use npuscale_repro::prelude::*;

        let specs = [TenantSpec::interactive("chat"), TenantSpec::batch("batch")];
        let trace: Vec<Request> = (0..n)
            .map(|i| {
                let t = &specs[tenants[i]];
                Request {
                    id: i as u64,
                    tenant: t.name.clone(),
                    priority: t.priority,
                    arrival_secs: arrivals[i],
                    prompt_len: prompts[i],
                    output_len: outputs[i].min(budgets[i]),
                    max_new: budgets[i],
                    weight: t.weight,
                }
            })
            .collect();
        let preemption = [PreemptionPolicy::Disabled, PreemptionPolicy::Enabled][policy & 1];
        let config = GatewayConfig {
            queue_capacity,
            prefill: [PrefillMode::Chunked { chunk_tokens: 32 }, PrefillMode::Monolithic]
                [policy >> 1 & 1],
            scheduling: [SchedulingPolicy::StrictPriority, SchedulingPolicy::Wfq][policy >> 2 & 1],
            preemption,
            thermal: [ThermalPolicy::Blind, ThermalPolicy::Aware][policy >> 3],
            ..GatewayConfig::default()
        };
        let worker = |spec: WorkerSpec| WorkerSpec {
            max_batch: 2,
            max_ctx: 512,
            ..spec
        };
        let fleet = FleetSpec {
            model: ModelId::Qwen1_5B,
            workers: vec![
                worker(WorkerSpec::resident(DeviceProfile::v75())),
                worker(WorkerSpec::streamed(DeviceProfile::v73())),
            ],
        };
        let r = FleetGateway::new(fleet, config).unwrap().serve_trace(&trace);
        prop_assert!(r.is_ok(), "{:?}", r.err());
        let r = r.unwrap();
        prop_assert_eq!(r.requests, n);
        prop_assert_eq!(r.completed + r.rejected, n);
        let tenant_sum = |f: fn(&npuscale::serve::TenantReport) -> usize| {
            r.tenants.iter().map(f).sum::<usize>()
        };
        prop_assert_eq!(tenant_sum(|t| t.requests), r.requests);
        prop_assert_eq!(tenant_sum(|t| t.completed), r.completed);
        prop_assert_eq!(tenant_sum(|t| t.rejected), r.rejected);
        prop_assert_eq!(tenant_sum(|t| t.slo_good), r.slo_good);
        prop_assert_eq!(r.workers.iter().map(|w| w.served).sum::<usize>(), r.completed);
        prop_assert_eq!(
            r.workers.iter().map(|w| w.decoded_tokens).sum::<usize>(),
            r.decoded_tokens
        );
        if preemption == PreemptionPolicy::Disabled {
            prop_assert_eq!(r.preemptions, 0);
        }
        prop_assert!(r.ttft_p50_secs <= r.ttft_p99_secs, "{:?}", r);
        prop_assert!(r.tbt_p50_secs <= r.tbt_p99_secs, "{:?}", r);
        prop_assert!(r.queue_wait_p50_secs <= r.queue_wait_p99_secs, "{:?}", r);
    }
}
