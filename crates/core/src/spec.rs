//! Cost-side speculative decoding at paper scale (Section 9's
//! generate-then-verify extension, priced on the calibrated cost model).
//!
//! The functional tier of the pipeline lives in `ttscale::spec_decode`:
//! tiny models, bit-faithful logits, output equivalence against plain
//! greedy decoding. This module prices the *same* pipeline shape at paper
//! scale — a Qwen2.5-0.5B-class draft transformer proposing chunks for a
//! Qwen2.5-1.5B target, both [`Model`]s co-resident in one
//! [`NpuContext`] — and reports accepted-tokens/sec under three dispatch
//! regimes:
//!
//! - **plain**: conventional one-token-per-step decode of the target;
//! - **spec-serial**: verify pass + accept loop + `k` draft steps, fully
//!   sequential;
//! - **spec-overlapped**: the draft round's stage breakdown rides the
//!   verify step's `draft_cpu_secs`/`draft_npu_secs` lanes
//!   ([`edgellm::overlap::lane::DRAFT`]), so draft host work hides behind
//!   the target's verify kernels on the timeline critical path and only
//!   the draft's NPU share serializes.
//!
//! Acceptance is replayed from a seeded [`AcceptanceTrace`], so CI gates
//! compare policies (fixed-`k` vs the acceptance-adaptive
//! [`DraftLenController`]) on identical accept/reject streams. The
//! verify batch is bounded by [`crate::backend::Backend::fits`] through
//! [`max_verify_draft_len`]: `k+1` logit rows must map onto the device
//! before the controller is allowed to grow there.

use edgellm::config::ModelId;
use edgellm::kv_cache::KvCache;
use edgellm::model::{DecodeOutput, Model};
use edgellm::overlap::steady_state_step_secs;
use hexsim::prelude::*;
use htpops::gemm::DequantVariant;
use ttscale::spec_decode::{
    charge_accept_loop, draft_round_lanes, spec_round_secs, AcceptanceTrace, DraftLenController,
};

use crate::backend::{Backend, NpuSimBackend};

/// One paper-scale speculative-decoding measurement: a draft/target pair
/// on one device, decoded for a fixed number of verify rounds against a
/// seeded acceptance trace.
#[derive(Clone, Debug)]
pub struct SpecDecodePoint {
    /// Device SoC label.
    pub device: String,
    /// Target model label.
    pub target: String,
    /// Draft model label.
    pub draft: String,
    /// Context length at measurement time.
    pub ctx_len: usize,
    /// Verify rounds simulated.
    pub rounds: usize,
    /// Mean draft length over the rounds (constant for a fixed
    /// controller; the adaptive controller's trajectory average here).
    pub mean_draft_len: f64,
    /// Mean drafted tokens accepted per round (the bonus token from the
    /// final verify position is *not* counted here).
    pub mean_accepted: f64,
    /// Tokens committed over all rounds (accepted + 1 per round).
    pub committed_tokens: usize,
    /// Plain target decode, serial dispatch, tokens/second.
    pub plain_serial_tps: f64,
    /// Plain target decode, overlap-aware dispatch, tokens/second.
    pub plain_overlapped_tps: f64,
    /// Speculative decode with every stage sequential, committed
    /// (accepted) tokens/second.
    pub spec_serial_tps: f64,
    /// Speculative decode with the draft round overlapped behind the
    /// verify kernels, committed (accepted) tokens/second.
    pub spec_overlapped_tps: f64,
    /// Draft step wall seconds over target step wall seconds — the cost
    /// ratio that makes speculation worthwhile at all.
    pub draft_step_frac: f64,
}

/// Largest draft length `k <= cap` whose `k+1`-row verify batch the
/// device can map for `target` at `ctx_len`, per the backend's
/// [`Backend::fits`] probe (the verify pass scores `k+1` logit rows in
/// one batched forward, so its working set grows with `k` exactly like a
/// decode batch). Returns at least 1: a device that cannot verify a
/// single drafted token cannot speculate at all, and the caller sees that
/// as the measurement erroring instead.
pub fn max_verify_draft_len(
    device: &DeviceProfile,
    target: ModelId,
    ctx_len: usize,
    cap: usize,
) -> usize {
    let backend = NpuSimBackend::new(device.clone());
    (2..=cap)
        .rev()
        .find(|&k| backend.fits(target, k + 1, ctx_len).is_ok())
        .unwrap_or(1)
}

/// Prices the two-model speculative pipeline on `device`: builds the
/// target and draft models co-resident in one cost-only [`NpuContext`],
/// measures the verify pass per draft length and the draft's per-step
/// cost at `ctx_len`, then replays `rounds` accept/reject rounds from
/// `trace` under `ctrl`'s draft-length policy.
///
/// Errors when the pair does not fit the device's session VA space
/// (both models and both KV caches share one session here — paper-scale
/// sharding of the *pair* is out of scope), and with
/// [`SimError::InvalidConfig`] for zero `rounds`, before building
/// anything.
pub fn measure_spec_decode(
    device: &DeviceProfile,
    target_id: ModelId,
    draft_id: ModelId,
    ctx_len: usize,
    ctrl: &mut DraftLenController,
    trace: &mut AcceptanceTrace,
    rounds: usize,
) -> SimResult<SpecDecodePoint> {
    if rounds == 0 {
        return Err(SimError::InvalidConfig {
            reason: "speculative decode needs at least one verify round".into(),
        });
    }
    let max_k = ctrl.max_draft_len();
    let mut ctx = NpuContext::new(device.clone(), ExecMode::CostOnly);
    let target = Model::new(&mut ctx, target_id, DequantVariant::CoalescedLut, 1)?;
    let draft = Model::new(&mut ctx, draft_id, DequantVariant::CoalescedLut, 2)?;
    let budget = ctx_len + max_k + 2;
    let mut tcache = KvCache::new(&mut ctx, &target.cfg, 1, budget)?;
    let mut dcache = KvCache::new(&mut ctx, &draft.cfg, 1, budget)?;
    tcache.fast_fill(0, ctx_len);
    dcache.fast_fill(0, ctx_len);

    // Plain decode baseline: one target step at the same context.
    let plain = target.decode_step(&mut ctx, &mut tcache, &[0])?;
    tcache.truncate_seq(0, ctx_len);
    let plain_serial_secs = plain.cost.wall_secs();
    let plain_overlapped_secs = steady_state_step_secs(&plain.stages);

    // Draft per-step cost at the same context (the draft's context trails
    // the target's by at most one round — the difference is noise at
    // ctx_len scale, and a fixed measurement keeps the replay exact).
    let dstep = draft.decode_step(&mut ctx, &mut dcache, &[0])?;
    dcache.truncate_seq(0, ctx_len);
    let (draft_cpu, draft_npu) = draft_round_lanes(std::slice::from_ref(&dstep.stages));
    let draft_step_secs = dstep.cost.wall_secs();

    // Verify pass per draft length, measured lazily: one batched target
    // forward over the k+1 chunk rows (chunked prefill at ctx_len).
    let mut verify: Vec<Option<DecodeOutput>> = (0..max_k).map(|_| None).collect();
    let vocab = target.cfg.vocab;

    let mut committed = 0usize;
    let mut accepted_total = 0usize;
    let mut k_total = 0usize;
    let mut serial_secs = 0.0;
    let mut overlapped_secs = 0.0;
    for _ in 0..rounds {
        let k = ctrl.draft_len();
        debug_assert!(k >= 1 && k <= max_k);
        if verify[k - 1].is_none() {
            let out = target.prefill(&mut ctx, &mut tcache, 0, &vec![0u32; k + 1])?;
            tcache.truncate_seq(0, ctx_len);
            verify[k - 1] = Some(out);
        }
        let v = verify[k - 1].as_ref().unwrap();
        let accept_secs = charge_accept_loop(&mut ctx, k + 1, vocab);

        serial_secs += v.cost.wall_secs() + accept_secs + k as f64 * draft_step_secs;
        // Overlapped: the next speculation round (k draft steps) rides
        // the verify step's draft lanes.
        let draft_lanes = (k as f64 * draft_cpu, k as f64 * draft_npu);
        overlapped_secs += spec_round_secs(&v.stages, accept_secs, draft_lanes);

        let accepted = trace.round_accepts(k);
        ctrl.record_round(k, accepted);
        committed += accepted + 1;
        accepted_total += accepted;
        k_total += k;
    }

    Ok(SpecDecodePoint {
        device: device.arch.soc_label().to_string(),
        target: target.cfg.id.label().to_string(),
        draft: draft.cfg.id.label().to_string(),
        ctx_len,
        rounds,
        mean_draft_len: k_total as f64 / rounds as f64,
        mean_accepted: accepted_total as f64 / rounds as f64,
        committed_tokens: committed,
        plain_serial_tps: 1.0 / plain_serial_secs,
        plain_overlapped_tps: 1.0 / plain_overlapped_secs,
        spec_serial_tps: committed as f64 / serial_secs,
        spec_overlapped_tps: committed as f64 / overlapped_secs,
        draft_step_frac: draft_step_secs / plain_serial_secs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed_point(device: &DeviceProfile, k: usize, alpha: f64) -> SpecDecodePoint {
        let mut ctrl = DraftLenController::fixed(k);
        let mut trace = AcceptanceTrace::seeded(7, alpha);
        measure_spec_decode(
            device,
            ModelId::Qwen1_5B,
            ModelId::Qwen0_5B,
            1024,
            &mut ctrl,
            &mut trace,
            32,
        )
        .unwrap()
    }

    #[test]
    fn zero_rounds_is_a_typed_error() {
        let err = measure_spec_decode(
            &DeviceProfile::v75(),
            ModelId::Qwen1_5B,
            ModelId::Qwen0_5B,
            1024,
            &mut DraftLenController::fixed(3),
            &mut AcceptanceTrace::seeded(7, 0.7),
            0,
        )
        .unwrap_err();
        assert!(
            matches!(&err, SimError::InvalidConfig { reason } if reason.contains("verify round")),
            "{err}"
        );
    }

    #[test]
    fn draft_steps_are_a_fraction_of_target_steps() {
        let p = fixed_point(&DeviceProfile::v75(), 3, 0.7);
        // The 0.5B draft must be meaningfully cheaper per step than the
        // 1.5B target, or speculation can never pay.
        assert!(
            (0.1..0.7).contains(&p.draft_step_frac),
            "draft/target step ratio {}",
            p.draft_step_frac
        );
        assert_eq!(p.mean_draft_len, 3.0);
        assert_eq!(p.target, "Q1.5");
        assert_eq!(p.draft, "Q0.5");
    }

    #[test]
    fn overlap_hides_draft_work_but_never_invents_time() {
        let p = fixed_point(&DeviceProfile::v75(), 3, 0.7);
        // Overlapped speculation strictly beats its own serial schedule
        // (the draft's host share hides behind verify kernels)...
        assert!(
            p.spec_overlapped_tps > p.spec_serial_tps,
            "overlapped {} vs serial {}",
            p.spec_overlapped_tps,
            p.spec_serial_tps
        );
        // ...and the plain baseline's critical path never exceeds its
        // serial stage sum (the timeline's clamp).
        assert!(p.plain_overlapped_tps >= p.plain_serial_tps);
    }

    #[test]
    fn good_acceptance_beats_plain_decode_on_every_generation() {
        for device in DeviceProfile::all() {
            let p = fixed_point(&device, 3, 0.7);
            assert!(
                p.spec_overlapped_tps > p.plain_serial_tps,
                "{}: spec-overlapped {} vs plain {}",
                p.device,
                p.spec_overlapped_tps,
                p.plain_serial_tps
            );
            // At alpha=0.7, k=3: committed/round ~ 1 + 0.7 + 0.49 + 0.343.
            assert!(
                (0.8..2.2).contains(&p.mean_accepted),
                "{}: mean accepted {}",
                p.device,
                p.mean_accepted
            );
        }
    }

    #[test]
    fn hopeless_acceptance_cannot_beat_plain_decode() {
        // alpha=0: every round commits exactly one token but still pays
        // the k draft steps and the wider verify pass.
        let p = fixed_point(&DeviceProfile::v75(), 3, 0.0);
        assert_eq!(p.mean_accepted, 0.0);
        assert!(p.spec_serial_tps < p.plain_serial_tps);
        assert!(p.spec_overlapped_tps < p.plain_serial_tps);
    }

    #[test]
    fn fits_probe_bounds_the_verify_batch() {
        let k = max_verify_draft_len(&DeviceProfile::v75(), ModelId::Qwen1_5B, 1024, 8);
        assert_eq!(k, 8, "the 1.5B verify batch fits at every k <= 8");
        // A deployment that cannot even map batch 3 collapses to k=1.
        let k73_7b = max_verify_draft_len(&DeviceProfile::v73(), ModelId::Qwen7B, 32768, 8);
        assert!(k73_7b >= 1);
    }

    #[test]
    fn adaptive_controller_walks_down_on_a_cold_trace() {
        let max_k = max_verify_draft_len(&DeviceProfile::v75(), ModelId::Qwen1_5B, 1024, 6);
        let mut ctrl = DraftLenController::adaptive(3, 1, max_k);
        let mut trace = AcceptanceTrace::seeded(11, 0.1);
        let p = measure_spec_decode(
            &DeviceProfile::v75(),
            ModelId::Qwen1_5B,
            ModelId::Qwen0_5B,
            1024,
            &mut ctrl,
            &mut trace,
            48,
        )
        .unwrap();
        // The windowed estimate shrinks k toward 1, so the mean draft
        // length ends well below the fixed starting point.
        assert!(p.mean_draft_len < 3.0, "mean k {}", p.mean_draft_len);
        assert_eq!(ctrl.draft_len(), 1, "cold trace pins k at the floor");
    }
}
