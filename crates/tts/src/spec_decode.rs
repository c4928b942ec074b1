//! Speculative decoding on the free-batch NPU compute (paper Section 9).
//!
//! The paper observes that generalized speculative decoding and parallel
//! test-time scaling both belong to the *generate-then-verify* framework,
//! and that the system "can theoretically support these applications
//! seamlessly": verifying `k` drafted tokens is one target-model forward
//! over `k` positions — rows that ride in the same HMX tiles that
//! Best-of-N samples would occupy. This module executes that extension
//! end to end on the simulated NPU, in two tiers:
//!
//! 1. [`speculative_generate`]: a host-side [`DraftModel`] proposer
//!    (e.g. the deterministic [`BigramDraft`]) speculates `k` tokens, the
//!    target scores all `k+1` positions in one batched chunked-prefill
//!    pass, and greedy verification accepts the agreeing prefix plus one
//!    corrected token. Rejected KV rows are dropped in place with
//!    `KvCache::truncate_seq` — the O(1) rollback real runtimes do.
//! 2. [`speculative_decode_pipeline`]: the real two-model pipeline — a
//!    small *draft transformer* (its own [`Model`] with a co-resident KV
//!    cache in the same [`NpuContext`]) autoregressively proposes the
//!    chunk, and the target verifies it batched. Per round the draft's
//!    stage breakdown is folded into the verify step's [`StepStages`] as
//!    `draft_cpu_secs`/`draft_npu_secs`, so under
//!    [`edgellm::overlap::DispatchMode::Overlapped`] the next speculation
//!    round is scheduled *behind* the target's verify kernels on the
//!    timeline critical path: the measured speedup is
//!    `accepted_per_step × 1/(1 + exposed_draft_fraction)`, not a
//!    policy-level idealization.
//!
//! Draft length adapts to the observed acceptance rate via
//! [`DraftLenController`]: a windowed acceptance estimate grows `k` when
//! the draft is hot and shrinks it when proposals keep getting rejected
//! (PowerInfer-2-style adaptive pipelining). Cost-only experiments replay
//! a deterministic [`AcceptanceTrace`] so CI gates compare policies on
//! identical accept/reject streams.
//!
//! Output equivalence is the correctness contract: the accepted stream is
//! bit-identical to plain greedy decoding of the target model, whatever
//! the draft proposes (tested here and property-tested at the workspace
//! level).

use edgellm::kv_cache::KvCache;
use edgellm::model::{Model, StepCost};
use edgellm::overlap::{steady_state_step_secs, StepStages};
use hexsim::prelude::*;

/// A draft proposer: anything that can guess the next token cheaply.
pub trait DraftModel {
    /// Proposes the next token given the generated-so-far suffix.
    fn propose(&mut self, context: &[u32]) -> u32;

    /// Feedback hook: an accepted transition `prev -> next`. Default: ignore.
    fn observe(&mut self, prev: u32, next: u32) {
        let _ = (prev, next);
    }
}

/// A trivial deterministic bigram proposer: remembers, for each token, the
/// token that most recently followed it. Cheap and wrong often enough to
/// exercise the rejection path.
///
/// The transition table is a `BTreeMap`, not a `HashMap`: iteration order
/// can never leak into proposals, so a run is reproducible byte for byte
/// across processes (the repo's determinism smoke test covers the
/// `spec_decode` example).
#[derive(Default)]
pub struct BigramDraft {
    next: std::collections::BTreeMap<u32, u32>,
    fallback: u32,
}

impl BigramDraft {
    /// Creates a proposer with a fallback token for unseen contexts.
    pub fn new(fallback: u32) -> Self {
        BigramDraft {
            next: std::collections::BTreeMap::new(),
            fallback,
        }
    }
}

impl DraftModel for BigramDraft {
    fn propose(&mut self, context: &[u32]) -> u32 {
        context
            .last()
            .and_then(|t| self.next.get(t).copied())
            .unwrap_or(self.fallback)
    }

    fn observe(&mut self, prev: u32, next: u32) {
        self.next.insert(prev, next);
    }
}

/// Scalar reference argmax over a logits row: strict `>`, first maximum
/// wins (ties and NaN-poisoned rows resolve exactly as the naive loop
/// does). The chunked [`argmax`] is differential-tested against this.
pub fn argmax_scalar(row: &[f32]) -> u32 {
    let mut best = 0usize;
    for (i, &v) in row.iter().enumerate() {
        if v > row[best] {
            best = i;
        }
    }
    best as u32
}

/// Width of the chunked argmax's inner blocks (a vector-register-friendly
/// tile, same treatment as the lm_head row loops).
const ARGMAX_CHUNK: usize = 64;

/// Chunked argmax over a logits row, bit-identical to [`argmax_scalar`]:
/// each 64-wide block reduces to a local `(index, value)` candidate with
/// strict-`>` first-max-wins semantics (NaNs never become candidates, so
/// a NaN inside a block cannot shadow a later real maximum), and blocks
/// combine against the running best with the same strict `>` — which also
/// reproduces the scalar loop's NaN-at-index-0 poisoning, because nothing
/// compares greater than NaN.
pub fn argmax(row: &[f32]) -> u32 {
    if row.is_empty() {
        return 0;
    }
    let mut best = 0usize;
    let mut best_val = row[0];
    for (c, chunk) in row.chunks(ARGMAX_CHUNK).enumerate() {
        let mut local: Option<usize> = None;
        let mut local_val = f32::NEG_INFINITY;
        for (i, &v) in chunk.iter().enumerate() {
            if v > local_val {
                local_val = v;
                local = Some(i);
            }
        }
        if let Some(i) = local {
            if local_val > best_val {
                best_val = local_val;
                best = c * ARGMAX_CHUNK + i;
            }
        }
    }
    best as u32
}

/// One verification round's bookkeeping.
#[derive(Clone, Copy, Debug)]
pub struct SpecRound {
    /// Draft length `k` used this round.
    pub draft_len: usize,
    /// Drafted tokens the target accepted (0..=draft_len).
    pub accepted: usize,
    /// Target KV length after the round's rollback — grows by exactly
    /// `accepted + 1` per round (the committed correction plus the
    /// accepted prefix), the invariant the property tests pin.
    pub kv_len: usize,
}

/// Controls the per-round draft length `k`, optionally adapting it to a
/// windowed acceptance rate: a draft that keeps getting rejected wastes
/// both draft compute and verify rows, so `k` shrinks; a hot draft grows
/// `k` to commit more tokens per target pass. Bounds come from the
/// caller (typically the largest verify batch `Backend::fits` admits).
#[derive(Clone, Debug)]
pub struct DraftLenController {
    k: usize,
    min_k: usize,
    max_k: usize,
    adaptive: bool,
    window_proposed: usize,
    window_accepted: usize,
}

/// Proposals per adaptation window.
pub const ADAPT_WINDOW: usize = 16;
/// Windowed acceptance rate above which `k` grows.
const GROW_THRESHOLD: f64 = 0.8;
/// Windowed acceptance rate below which `k` shrinks.
const SHRINK_THRESHOLD: f64 = 0.4;

impl DraftLenController {
    /// A fixed draft length (the classic configuration).
    pub fn fixed(k: usize) -> Self {
        assert!(k >= 1);
        DraftLenController {
            k,
            min_k: k,
            max_k: k,
            adaptive: false,
            window_proposed: 0,
            window_accepted: 0,
        }
    }

    /// An acceptance-adaptive draft length starting at `init`, clamped to
    /// `[min_k, max_k]`.
    pub fn adaptive(init: usize, min_k: usize, max_k: usize) -> Self {
        assert!(min_k >= 1 && min_k <= init && init <= max_k);
        DraftLenController {
            k: init,
            min_k,
            max_k,
            adaptive: true,
            window_proposed: 0,
            window_accepted: 0,
        }
    }

    /// The draft length to use for the next round.
    pub fn draft_len(&self) -> usize {
        self.k
    }

    /// The largest draft length this controller can ever request (verify
    /// batches are `max_draft_len() + 1` rows).
    pub fn max_draft_len(&self) -> usize {
        self.max_k
    }

    /// Feeds one round's outcome into the acceptance window; once the
    /// window has seen [`ADAPT_WINDOW`] proposals the rate decides whether
    /// `k` grows, shrinks or holds, and the window resets.
    pub fn record_round(&mut self, proposed: usize, accepted: usize) {
        debug_assert!(accepted <= proposed);
        if !self.adaptive {
            return;
        }
        self.window_proposed += proposed;
        self.window_accepted += accepted;
        if self.window_proposed >= ADAPT_WINDOW {
            let rate = self.window_accepted as f64 / self.window_proposed as f64;
            if rate >= GROW_THRESHOLD {
                self.k = (self.k + 1).min(self.max_k);
            } else if rate < SHRINK_THRESHOLD {
                self.k = (self.k - 1).max(self.min_k);
            }
            self.window_proposed = 0;
            self.window_accepted = 0;
        }
    }
}

/// A deterministic seeded accept/reject stream for cost-only experiments:
/// each query accepts with probability `alpha`, driven by a 64-bit LCG so
/// every policy under comparison replays the *identical* trace (the CI
/// gates pin seeds).
#[derive(Clone, Debug)]
pub struct AcceptanceTrace {
    state: u64,
    alpha: f64,
}

impl AcceptanceTrace {
    /// A trace accepting each proposal independently with rate `alpha`.
    pub fn seeded(seed: u64, alpha: f64) -> Self {
        assert!((0.0..=1.0).contains(&alpha));
        AcceptanceTrace {
            state: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1),
            alpha,
        }
    }

    /// The trace's acceptance rate.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Whether the next drafted token is accepted.
    fn next_accept(&mut self) -> bool {
        self.state = self
            .state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.state >> 40) as f64 / (1u64 << 24) as f64) < self.alpha
    }

    /// How many of `k` drafted tokens a verify round accepts under this
    /// trace: acceptance stops at the first rejection (greedy
    /// verification accepts a prefix, never a subset).
    pub fn round_accepts(&mut self, k: usize) -> usize {
        let mut accepted = 0;
        for _ in 0..k {
            if self.next_accept() {
                accepted += 1;
            } else {
                break;
            }
        }
        accepted
    }
}

/// Outcome of a speculative generation run.
#[derive(Debug)]
pub struct SpecDecodeOutcome {
    /// The generated tokens (target-model-faithful: identical to greedy
    /// decoding of the target).
    pub tokens: Vec<u32>,
    /// Target-model steps executed.
    pub target_steps: usize,
    /// Tokens committed per target step (the speedup over plain decode).
    pub mean_accepted: f64,
    /// Total simulated cost.
    pub cost: StepCost,
    /// Per-round bookkeeping (draft length, accepted count, KV length).
    pub rounds: Vec<SpecRound>,
}

/// Charges the verification host loop (argmax + accept compare over
/// `rows` logit rows) to the CPU roofline and returns its seconds. Public
/// so the cost-side paper-scale measurement (`npuscale::spec`) prices the
/// same host loop with the same roofline.
pub fn charge_accept_loop(ctx: &mut NpuContext, rows: usize, vocab: usize) -> f64 {
    let snap = ctx.cost.snapshot();
    ctx.cost
        .charge_cpu((rows * vocab) as u64, (rows * vocab * 4) as u64);
    ctx.cost.delta_since(&snap, "").wall_secs
}

/// Runs greedy speculative decoding with a fixed draft length: drafts
/// `draft_len` tokens per round, verifies them with one batched target
/// forward, accepts the agreeing prefix plus the target's correction.
///
/// The verification trick: each round the committed token plus the
/// drafted chunk go through `prefill_all_logits` — one batched pass whose
/// `k+1` rows score every draft position at once. Rejected positions'
/// KV rows are dropped in place (`KvCache::truncate_seq`), the O(1)
/// rollback of a real runtime, so nothing is recomputed.
///
/// Output equivalence: the accepted stream equals plain greedy decoding of
/// the target model (tested).
///
/// # Panics
///
/// Panics in cost-only mode (this is a functional-path extension).
pub fn speculative_generate(
    ctx: &mut NpuContext,
    model: &Model,
    draft: &mut dyn DraftModel,
    prompt: &[u32],
    max_new_tokens: usize,
    draft_len: usize,
) -> SimResult<SpecDecodeOutcome> {
    let mut ctrl = DraftLenController::fixed(draft_len);
    speculative_generate_with(ctx, model, draft, prompt, max_new_tokens, &mut ctrl)
}

/// [`speculative_generate`] with an explicit [`DraftLenController`] —
/// fixed or acceptance-adaptive draft length.
pub fn speculative_generate_with(
    ctx: &mut NpuContext,
    model: &Model,
    draft: &mut dyn DraftModel,
    prompt: &[u32],
    max_new_tokens: usize,
    ctrl: &mut DraftLenController,
) -> SimResult<SpecDecodeOutcome> {
    assert_eq!(ctx.mode, ExecMode::Functional);
    let vocab = model.cfg.vocab;
    let mut cost = StepCost::default();

    let budget = prompt.len() + max_new_tokens + ctrl.max_draft_len() + 4;
    let mut cache = KvCache::new(ctx, &model.cfg, 1, budget)?;
    let prefill = model.prefill(ctx, &mut cache, 0, prompt)?;
    cost.add(&prefill.cost);

    let mut generated: Vec<u32> = Vec::new();
    let mut next_greedy = argmax(&prefill.logits);
    let mut target_steps = 0usize;
    let mut accepted_total = 0usize;
    let mut rounds: Vec<SpecRound> = Vec::new();

    while generated.len() < max_new_tokens {
        // The target's committed token (from the previous verification).
        generated.push(next_greedy);
        if generated.len() >= max_new_tokens {
            break;
        }
        let draft_len = ctrl.draft_len();
        // Draft a chunk continuing after the committed token.
        let mut chunk = vec![next_greedy];
        let mut draft_ctx: Vec<u32> = prompt.iter().chain(generated.iter()).copied().collect();
        for _ in 0..draft_len {
            let proposal = draft.propose(&draft_ctx);
            chunk.push(proposal);
            draft_ctx.push(proposal);
        }
        // One target pass over the whole chunk (m = draft_len + 1 rows of
        // free tile compute) — returns logits for every chunk position.
        let verify = model.prefill_all_logits(ctx, &mut cache, 0, &chunk)?;
        cost.add(&verify.cost);
        cost.cpu_secs += charge_accept_loop(ctx, draft_len + 1, vocab);
        target_steps += 1;

        // Greedy verification: accept while target argmax == draft.
        let mut accepted = 0usize;
        for pos in 0..draft_len {
            let target_tok = argmax(&verify.logits[pos * vocab..(pos + 1) * vocab]);
            let draft_tok = chunk[pos + 1];
            if target_tok == draft_tok && generated.len() + accepted + 1 < max_new_tokens {
                draft.observe(chunk[pos], draft_tok);
                accepted += 1;
            } else {
                // Reject: the target's own token replaces the draft here.
                next_greedy = target_tok;
                break;
            }
        }
        if accepted == draft_len {
            // Whole draft accepted; the target's next token comes from the
            // final position's logits.
            next_greedy = argmax(&verify.logits[draft_len * vocab..(draft_len + 1) * vocab]);
        }
        // Commit accepted draft tokens.
        for a in 0..accepted {
            generated.push(chunk[a + 1]);
        }
        accepted_total += accepted;
        ctrl.record_round(draft_len, accepted);

        // Roll the cache back past the rejected suffix: drop the stale KV
        // rows in place (O(1) truncation, no recompute, no re-charge).
        if accepted < draft_len {
            cache.truncate_seq(0, prompt.len() + generated.len());
        }
        rounds.push(SpecRound {
            draft_len,
            accepted,
            kv_len: cache.len(0),
        });
    }
    generated.truncate(max_new_tokens);
    cache.free(ctx);

    Ok(SpecDecodeOutcome {
        mean_accepted: 1.0 + accepted_total as f64 / target_steps.max(1) as f64,
        tokens: generated,
        target_steps,
        cost,
        rounds,
    })
}

/// Outcome of a two-model speculative decoding run through the real stack.
#[derive(Debug)]
pub struct SpecPipelineOutcome {
    /// The generated tokens — bit-identical to plain greedy decoding of
    /// the *target* model (the draft can only accelerate, never alter).
    pub tokens: Vec<u32>,
    /// Verify rounds executed (target batched passes).
    pub target_steps: usize,
    /// Tokens committed per verify round.
    pub mean_accepted: f64,
    /// Target-side cost (prefill + verify passes + accept host loops).
    pub target_cost: StepCost,
    /// Draft-side cost (draft prefill + proposal decode steps).
    pub draft_cost: StepCost,
    /// Per-round bookkeeping.
    pub rounds: Vec<SpecRound>,
    /// Serial decode-phase seconds: every verify pass plus every draft
    /// step, fully sequential (prompt prefills excluded from both
    /// pipeline aggregates).
    pub serial_secs: f64,
    /// Overlap-aware decode-phase seconds: per round, the draft's stage
    /// breakdown rides the verify step's [`StepStages`] draft lanes, so
    /// draft CPU work hides behind verify kernels and only the draft's
    /// NPU share serializes (the exposed draft fraction).
    pub overlapped_secs: f64,
}

/// Folds a slice of draft-step stage breakdowns into the
/// `(draft_cpu_secs, draft_npu_secs)` pair of the verify step: host-side
/// work (embedding, lm_head/argmax, command dispatch, session switches)
/// hides on the draft lane, NPU kernel time serializes on the shared
/// accelerator.
pub fn draft_round_lanes(stages: &[StepStages]) -> (f64, f64) {
    let mut cpu = 0.0;
    let mut npu = 0.0;
    for st in stages {
        cpu += st.cpu_embed_secs + st.cpu_head_secs;
        let mut switches = usize::from(st.wrap_switch);
        for l in &st.layers {
            cpu += l.dispatch_secs;
            npu += l.npu_secs + l.weight_fetch_secs;
            switches += usize::from(l.switch_before);
        }
        cpu += switches as f64 * st.switch_secs;
        npu += st.final_npu_secs;
    }
    (cpu, npu)
}

/// Overlap-aware period of one speculative round: the verify step's
/// stages with the accept loop appended to its CPU tail and the next
/// draft round's `(cpu, npu)` seconds (see [`draft_round_lanes`]) on its
/// draft lanes, so draft CPU hides behind the verify kernels while draft
/// NPU kernels queue behind them on the shared accelerator. Speculation
/// alternates identical rounds, so the period is the steady state of
/// this combined stage graph.
pub fn spec_round_secs(verify: &StepStages, accept_secs: f64, draft_lanes: (f64, f64)) -> f64 {
    let mut combined = verify.clone();
    combined.cpu_head_secs += accept_secs;
    (combined.draft_cpu_secs, combined.draft_npu_secs) = draft_lanes;
    steady_state_step_secs(&combined)
}

/// Runs the full two-model speculative pipeline: a small draft [`Model`]
/// autoregressively proposes `k` tokens (its KV cache co-resident with
/// the target's in the same [`NpuContext`]), and the target verifies the
/// chunk in one batched pass. Draft-side KV rolls back in lockstep with
/// the target on rejection, so the draft never re-prefills committed
/// context.
///
/// The outcome carries both the serial decode-phase time and the
/// overlap-aware time in which the draft round is scheduled behind the
/// verify kernels (see [`SpecPipelineOutcome::overlapped_secs`]).
///
/// # Panics
///
/// Panics in cost-only mode (use the cost-side experiment rows for
/// paper-scale models) and if the two models have different vocabularies
/// (draft proposals must be target tokens).
pub fn speculative_decode_pipeline(
    ctx: &mut NpuContext,
    target: &Model,
    draft: &Model,
    prompt: &[u32],
    max_new_tokens: usize,
    ctrl: &mut DraftLenController,
) -> SimResult<SpecPipelineOutcome> {
    assert_eq!(ctx.mode, ExecMode::Functional);
    assert_eq!(
        target.cfg.vocab, draft.cfg.vocab,
        "draft and target must share a vocabulary"
    );
    let vocab = target.cfg.vocab;
    let mut target_cost = StepCost::default();
    let mut draft_cost = StepCost::default();
    let mut serial_secs = 0.0;
    let mut overlapped_secs = 0.0;

    let budget = prompt.len() + max_new_tokens + ctrl.max_draft_len() + 4;
    let mut target_cache = KvCache::new(ctx, &target.cfg, 1, budget)?;
    let mut draft_cache = KvCache::new(ctx, &draft.cfg, 1, budget)?;
    let prefill = target.prefill(ctx, &mut target_cache, 0, prompt)?;
    target_cost.add(&prefill.cost);

    let mut generated: Vec<u32> = Vec::new();
    let mut next_greedy = argmax(&prefill.logits);
    // Tokens of the committed sequence the draft's KV has consumed.
    let mut draft_seen = 0usize;
    let mut target_steps = 0usize;
    let mut accepted_total = 0usize;
    let mut rounds: Vec<SpecRound> = Vec::new();

    while generated.len() < max_new_tokens {
        generated.push(next_greedy);
        if generated.len() >= max_new_tokens {
            break;
        }
        let k = ctrl.draft_len();
        let committed_len = prompt.len() + generated.len();

        // --- Draft round: feed unseen committed tokens, then propose k
        // tokens autoregressively. The first pass catches the draft up on
        // whatever the last round committed (correction token and/or the
        // accepted tail it had not yet consumed).
        let feed: Vec<u32> = prompt
            .iter()
            .chain(generated.iter())
            .copied()
            .skip(draft_seen)
            .collect();
        debug_assert!(!feed.is_empty());
        let mut draft_stages: Vec<StepStages> = Vec::new();
        let first = draft.prefill(ctx, &mut draft_cache, 0, &feed)?;
        draft_cost.add(&first.cost);
        serial_secs += first.cost.wall_secs();
        draft_stages.push(first.stages.clone());
        let mut proposals = vec![argmax(&first.logits)];
        while proposals.len() < k {
            let out = draft.decode_step(ctx, &mut draft_cache, &[*proposals.last().unwrap()])?;
            draft_cost.add(&out.cost);
            serial_secs += out.cost.wall_secs();
            draft_stages.push(out.stages.clone());
            proposals.push(argmax(&out.logits));
        }

        // --- Verify: one batched target pass over the committed token
        // plus the k proposals (k+1 rows sharing the prefix cache).
        let mut chunk = vec![next_greedy];
        chunk.extend_from_slice(&proposals);
        let verify = target.prefill_all_logits(ctx, &mut target_cache, 0, &chunk)?;
        target_cost.add(&verify.cost);
        let accept_secs = charge_accept_loop(ctx, k + 1, vocab);
        target_cost.cpu_secs += accept_secs;
        serial_secs += verify.cost.wall_secs() + accept_secs;
        // Overlap-aware round time: the *next* draft round rides the
        // verify step's draft lanes.
        overlapped_secs += spec_round_secs(
            &verify.stages,
            accept_secs,
            draft_round_lanes(&draft_stages),
        );
        target_steps += 1;

        // --- Accept the agreeing prefix.
        let mut accepted = 0usize;
        for pos in 0..k {
            let target_tok = argmax(&verify.logits[pos * vocab..(pos + 1) * vocab]);
            if target_tok == chunk[pos + 1] && generated.len() + accepted + 1 < max_new_tokens {
                accepted += 1;
            } else {
                next_greedy = target_tok;
                break;
            }
        }
        if accepted == k {
            next_greedy = argmax(&verify.logits[k * vocab..(k + 1) * vocab]);
        }
        for a in 0..accepted {
            generated.push(chunk[a + 1]);
        }
        accepted_total += accepted;
        ctrl.record_round(k, accepted);

        // --- Rollback, both sides in lockstep. The target drops the
        // rejected verify rows; the draft drops its unaccepted proposals
        // (it had consumed proposals p1..p_{k-1} while drafting — of
        // those, only the accepted prefix stays committed).
        if accepted < k {
            target_cache.truncate_seq(0, prompt.len() + generated.len());
        }
        let draft_keep = committed_len + accepted.min(k.saturating_sub(1));
        draft_cache.truncate_seq(0, draft_keep);
        draft_seen = draft_keep;

        rounds.push(SpecRound {
            draft_len: k,
            accepted,
            kv_len: target_cache.len(0),
        });
    }
    generated.truncate(max_new_tokens);
    target_cache.free(ctx);
    draft_cache.free(ctx);

    Ok(SpecPipelineOutcome {
        mean_accepted: 1.0 + accepted_total as f64 / target_steps.max(1) as f64,
        tokens: generated,
        target_steps,
        target_cost,
        draft_cost,
        rounds,
        serial_secs,
        overlapped_secs,
    })
}

/// Plain greedy decoding of the target model, for equivalence testing.
pub fn greedy_generate(
    ctx: &mut NpuContext,
    model: &Model,
    prompt: &[u32],
    max_new_tokens: usize,
) -> SimResult<(Vec<u32>, StepCost)> {
    let mut cost = StepCost::default();
    let mut cache = KvCache::new(ctx, &model.cfg, 1, prompt.len() + max_new_tokens + 2)?;
    let prefill = model.prefill(ctx, &mut cache, 0, prompt)?;
    cost.add(&prefill.cost);
    let mut tokens = vec![argmax(&prefill.logits)];
    while tokens.len() < max_new_tokens {
        let out = model.decode_step(ctx, &mut cache, &[*tokens.last().unwrap()])?;
        cost.add(&out.cost);
        tokens.push(argmax(&out.logits));
    }
    cache.free(ctx);
    Ok((tokens, cost))
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgellm::config::ModelId;
    use htpops::gemm::DequantVariant;

    fn setup() -> (NpuContext, Model) {
        let mut ctx = NpuContext::new(DeviceProfile::v75(), ExecMode::Functional);
        let model = Model::new(&mut ctx, ModelId::Tiny, DequantVariant::CoalescedLut, 21).unwrap();
        (ctx, model)
    }

    #[test]
    fn speculative_output_equals_greedy() {
        let (mut ctx, model) = setup();
        let prompt = vec![1u32, 50, 60, 70];
        let (greedy, _) = greedy_generate(&mut ctx, &model, &prompt, 10).unwrap();
        let mut draft = BigramDraft::new(4);
        let spec = speculative_generate(&mut ctx, &model, &mut draft, &prompt, 10, 3).unwrap();
        assert_eq!(spec.tokens, greedy, "speculation must be lossless");
    }

    #[test]
    fn perfect_draft_accepts_everything() {
        // An oracle draft (clone of the target's greedy stream) should be
        // accepted wholesale: steps ~ tokens / (draft_len + 1).
        struct Oracle {
            stream: Vec<u32>,
            pos: usize,
        }
        impl DraftModel for Oracle {
            fn propose(&mut self, _context: &[u32]) -> u32 {
                let t = self.stream[self.pos.min(self.stream.len() - 1)];
                self.pos += 1;
                t
            }
        }
        let (mut ctx, model) = setup();
        let prompt = vec![1u32, 30, 40];
        let (greedy, _) = greedy_generate(&mut ctx, &model, &prompt, 9).unwrap();
        // The oracle replays greedy[1..] as its proposals. The proposal
        // cursor must follow the *accepted* stream; with full acceptance it
        // advances one per call.
        let mut oracle = Oracle {
            stream: greedy[1..].to_vec(),
            pos: 0,
        };
        let spec = speculative_generate(&mut ctx, &model, &mut oracle, &prompt, 9, 3).unwrap();
        assert_eq!(spec.tokens, greedy);
        assert!(
            spec.mean_accepted > 2.5,
            "oracle draft should accept nearly all: {}",
            spec.mean_accepted
        );
        assert!(spec.target_steps <= 4, "steps {}", spec.target_steps);
    }

    #[test]
    fn hopeless_draft_degenerates_to_greedy_speed() {
        struct Wrong;
        impl DraftModel for Wrong {
            fn propose(&mut self, _c: &[u32]) -> u32 {
                3 // STEP_SEP: essentially never the greedy choice here.
            }
        }
        let (mut ctx, model) = setup();
        let prompt = vec![1u32, 90];
        let spec = speculative_generate(&mut ctx, &model, &mut Wrong, &prompt, 8, 3).unwrap();
        // Every round rejects at the first draft position: one new token
        // per target step.
        assert!(spec.mean_accepted < 1.3, "{}", spec.mean_accepted);
        let (greedy, _) = greedy_generate(&mut ctx, &model, &prompt, 8).unwrap();
        assert_eq!(spec.tokens, greedy);
    }

    #[test]
    fn verification_step_is_cheaper_than_sequential_decode() {
        // The free-compute claim: verifying a 4-token chunk in one pass
        // costs far less than four sequential decode steps.
        let (mut ctx, model) = setup();
        let mut cache = KvCache::new(&mut ctx, &model.cfg, 1, 64).unwrap();
        model
            .prefill(&mut ctx, &mut cache, 0, &[1, 20, 30])
            .unwrap();
        let chunk = model
            .prefill_all_logits(&mut ctx, &mut cache, 0, &[40, 41, 42, 43])
            .unwrap();
        let mut cache2 = KvCache::new(&mut ctx, &model.cfg, 1, 64).unwrap();
        model
            .prefill(&mut ctx, &mut cache2, 0, &[1, 20, 30])
            .unwrap();
        let mut seq_cost = StepCost::default();
        for t in [40u32, 41, 42, 43] {
            let out = model.decode_step(&mut ctx, &mut cache2, &[t]).unwrap();
            seq_cost.add(&out.cost);
        }
        assert!(
            chunk.cost.wall_secs() < 0.5 * seq_cost.wall_secs(),
            "chunk {} vs sequential {}",
            chunk.cost.wall_secs(),
            seq_cost.wall_secs()
        );
    }

    #[test]
    fn kv_length_grows_by_accepted_plus_one_per_round() {
        let (mut ctx, model) = setup();
        let prompt = vec![1u32, 50, 60, 70];
        let mut draft = BigramDraft::new(4);
        let spec = speculative_generate(&mut ctx, &model, &mut draft, &prompt, 12, 3).unwrap();
        let mut expect = prompt.len();
        for r in &spec.rounds {
            expect += r.accepted + 1;
            assert_eq!(r.kv_len, expect, "KV invariant violated at {r:?}");
        }
    }

    #[test]
    fn chunked_argmax_matches_scalar_reference() {
        // Elementwise differential over the hazardous shapes: ties inside
        // and across chunk boundaries, NaN in every position class,
        // -inf-only rows, sizes around the chunk width.
        let cases: Vec<Vec<f32>> = vec![
            vec![],
            vec![0.5],
            vec![f32::NAN],
            vec![f32::NAN, 7.0],
            vec![1.0, f32::NAN, 5.0],
            vec![1.0, f32::NAN, 0.5],
            vec![f32::NEG_INFINITY; 130],
            vec![3.0; 200],
        ];
        for case in cases {
            assert_eq!(argmax(&case), argmax_scalar(&case), "case {case:?}");
        }
        // A tie straddling the 64-wide chunk boundary keeps first-wins.
        let mut tie = vec![0.0f32; 130];
        tie[63] = 9.0;
        tie[64] = 9.0;
        assert_eq!(argmax(&tie), 63);
        assert_eq!(argmax(&tie), argmax_scalar(&tie));
        // NaN leading a later chunk must not shadow the chunk's max.
        let mut shadow = vec![1.0f32; 130];
        shadow[64] = f32::NAN;
        shadow[65] = 8.0;
        assert_eq!(argmax(&shadow), 65);
        assert_eq!(argmax(&shadow), argmax_scalar(&shadow));
        // Deterministic pseudo-random sweep across sizes.
        let mut state = 0x1234_5678_u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        };
        for n in [1usize, 5, 63, 64, 65, 127, 128, 129, 500] {
            let row: Vec<f32> = (0..n).map(|_| next()).collect();
            assert_eq!(argmax(&row), argmax_scalar(&row), "n={n}");
        }
    }

    #[test]
    fn bigram_draft_is_deterministic() {
        // Identical observation streams must yield identical proposal
        // streams — the BTreeMap backing has no iteration-order hazard.
        let mut runs: Vec<Vec<u32>> = Vec::new();
        for _ in 0..2 {
            let mut d = BigramDraft::new(9);
            for (a, b) in [(1u32, 2u32), (2, 3), (1, 4), (7, 1), (3, 3)] {
                d.observe(a, b);
            }
            runs.push((0..10u32).map(|t| d.propose(&[t])).collect());
        }
        assert_eq!(runs[0], runs[1]);
        // Latest observation wins, matching the HashMap insert semantics.
        assert_eq!(runs[0][1], 4);
    }

    #[test]
    fn controller_grows_on_hot_draft_and_shrinks_on_cold() {
        let mut hot = DraftLenController::adaptive(3, 1, 8);
        for _ in 0..8 {
            hot.record_round(3, 3);
        }
        assert!(
            hot.draft_len() > 3,
            "hot draft must grow: {}",
            hot.draft_len()
        );
        let mut cold = DraftLenController::adaptive(3, 1, 8);
        for _ in 0..16 {
            cold.record_round(3, 0);
        }
        assert_eq!(cold.draft_len(), 1, "cold draft must shrink to min");
        let mut fixed = DraftLenController::fixed(4);
        for _ in 0..16 {
            fixed.record_round(4, 0);
        }
        assert_eq!(fixed.draft_len(), 4);
        // Bounds hold under indefinite pressure.
        let mut capped = DraftLenController::adaptive(2, 1, 3);
        for _ in 0..64 {
            capped.record_round(capped.draft_len(), capped.draft_len());
        }
        assert_eq!(capped.draft_len(), 3);
    }

    #[test]
    fn acceptance_trace_is_deterministic_and_calibrated() {
        let mut a = AcceptanceTrace::seeded(7, 0.7);
        let mut b = AcceptanceTrace::seeded(7, 0.7);
        let xs: Vec<bool> = (0..64).map(|_| a.next_accept()).collect();
        let ys: Vec<bool> = (0..64).map(|_| b.next_accept()).collect();
        assert_eq!(xs, ys);
        let mut c = AcceptanceTrace::seeded(11, 0.7);
        let hits = (0..20_000).filter(|_| c.next_accept()).count();
        let rate = hits as f64 / 20_000.0;
        assert!((rate - 0.7).abs() < 0.02, "rate {rate}");
        // Round accepts stop at the first rejection.
        let mut d = AcceptanceTrace::seeded(3, 0.0);
        assert_eq!(d.round_accepts(5), 0);
        let mut e = AcceptanceTrace::seeded(3, 1.0);
        assert_eq!(e.round_accepts(5), 5);
    }

    #[test]
    fn two_model_pipeline_is_lossless() {
        // A *different* draft transformer (other seed, so other weights)
        // proposes; the output must still equal the target's greedy
        // stream bit for bit.
        let mut ctx = NpuContext::new(DeviceProfile::v75(), ExecMode::Functional);
        let target = Model::new(&mut ctx, ModelId::Tiny, DequantVariant::CoalescedLut, 21).unwrap();
        let draft = Model::new(&mut ctx, ModelId::Tiny, DequantVariant::CoalescedLut, 7).unwrap();
        let prompt = vec![1u32, 50, 60, 70, 80];
        let (greedy, _) = greedy_generate(&mut ctx, &target, &prompt, 12).unwrap();
        let mut ctrl = DraftLenController::fixed(3);
        let out =
            speculative_decode_pipeline(&mut ctx, &target, &draft, &prompt, 12, &mut ctrl).unwrap();
        assert_eq!(out.tokens, greedy, "two-model speculation must be lossless");
        assert!(out.target_steps <= 12);
        assert!(out.overlapped_secs <= out.serial_secs + 1e-12);
        assert!(out.draft_cost.wall_secs() > 0.0);
        // KV invariant holds round by round.
        let mut expect = prompt.len();
        for r in &out.rounds {
            expect += r.accepted + 1;
            assert_eq!(r.kv_len, expect, "KV invariant violated at {r:?}");
        }
    }

    #[test]
    fn same_weights_draft_accepts_everything() {
        // Draft == target (same seed): every proposal is the target's own
        // greedy choice, so acceptance is total and rounds commit k+1.
        let mut ctx = NpuContext::new(DeviceProfile::v75(), ExecMode::Functional);
        let target = Model::new(&mut ctx, ModelId::Tiny, DequantVariant::CoalescedLut, 21).unwrap();
        let draft = Model::new(&mut ctx, ModelId::Tiny, DequantVariant::CoalescedLut, 21).unwrap();
        let prompt = vec![1u32, 30, 40];
        let (greedy, _) = greedy_generate(&mut ctx, &target, &prompt, 9).unwrap();
        let mut ctrl = DraftLenController::fixed(3);
        let out =
            speculative_decode_pipeline(&mut ctx, &target, &draft, &prompt, 9, &mut ctrl).unwrap();
        assert_eq!(out.tokens, greedy);
        assert!(
            out.mean_accepted > 2.5,
            "identical draft should accept nearly all: {}",
            out.mean_accepted
        );
        assert!(out.target_steps <= 4, "steps {}", out.target_steps);
    }

    #[test]
    fn adaptive_pipeline_stays_lossless() {
        let mut ctx = NpuContext::new(DeviceProfile::v75(), ExecMode::Functional);
        let target = Model::new(&mut ctx, ModelId::Tiny, DequantVariant::CoalescedLut, 21).unwrap();
        let draft = Model::new(&mut ctx, ModelId::Tiny, DequantVariant::CoalescedLut, 7).unwrap();
        let prompt = vec![1u32, 50, 60];
        let (greedy, _) = greedy_generate(&mut ctx, &target, &prompt, 14).unwrap();
        let mut ctrl = DraftLenController::adaptive(3, 1, 5);
        let out =
            speculative_decode_pipeline(&mut ctx, &target, &draft, &prompt, 14, &mut ctrl).unwrap();
        assert_eq!(out.tokens, greedy, "adaptive speculation must be lossless");
        // Rounds may use different k, but every k stays in bounds.
        for r in &out.rounds {
            assert!((1..=5).contains(&r.draft_len));
        }
    }
}
