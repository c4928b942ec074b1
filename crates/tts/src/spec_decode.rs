//! Speculative decoding on the free-batch NPU compute (paper Section 9).
//!
//! The paper observes that generalized speculative decoding and parallel
//! test-time scaling both belong to the *generate-then-verify* framework,
//! and that the system "can theoretically support these applications
//! seamlessly": verifying `k` drafted tokens is one target-model forward
//! over `k` positions — rows that ride in the same HMX tiles that
//! Best-of-N samples would occupy. This module executes that extension
//! end to end on the simulated NPU with one verify loop: each round the
//! target's committed token plus `k` drafted tokens go through one
//! batched chunked-prefill pass, greedy verification accepts the
//! agreeing prefix plus one corrected token, and rejected KV rows are
//! dropped in place with `KvCache::truncate_seq` — the O(1) rollback real
//! runtimes do. Only the draft source varies between the two entry
//! points:
//!
//! 1. [`speculative_generate`]: a host-side [`DraftModel`] proposer
//!    (e.g. the deterministic [`BigramDraft`]) at a fixed draft length.
//!    It costs nothing on the simulated device and learns from every
//!    accepted transition.
//! 2. [`speculative_decode_pipeline`]: the real two-model pipeline — a
//!    small *draft transformer* (its own [`Model`] with a co-resident KV
//!    cache in the same [`NpuContext`]) autoregressively proposes the
//!    chunk. Per round the draft's stage breakdown is folded into the
//!    verify step's [`StepStages`] as `draft_cpu_secs`/`draft_npu_secs`,
//!    so under [`edgellm::overlap::DispatchMode::Overlapped`] the next
//!    speculation round is scheduled *behind* the target's verify kernels
//!    on the timeline critical path: the measured speedup is
//!    `accepted_per_step × 1/(1 + exposed_draft_fraction)`, not a
//!    policy-level idealization.
//!
//! Both report a [`SpecOutcome`]; a host draft's `draft_cost` is zero.
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
const ADAPT_WINDOW: usize = 16;
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
    /// window has seen 16 proposals the rate decides whether `k` grows,
    /// shrinks or holds, and the window resets.
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

/// Outcome of a speculative decoding run, whatever proposed the drafts.
#[derive(Debug, Default)]
pub struct SpecOutcome {
    /// The generated tokens — bit-identical to plain greedy decoding of
    /// the *target* model (the draft can only accelerate, never alter).
    pub tokens: Vec<u32>,
    /// Verify rounds executed (target batched passes).
    pub target_steps: usize,
    /// Tokens committed per verify round (the speedup over plain decode).
    pub mean_accepted: f64,
    /// Target-side cost (prefill + verify passes + accept host loops).
    pub target_cost: StepCost,
    /// Draft-side cost (draft prefill + proposal decode steps); zero for
    /// a host-side [`DraftModel`].
    pub draft_cost: StepCost,
    /// Per-round bookkeeping (draft length, accepted count, KV length).
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

/// Runs greedy speculative decoding with a host-side [`DraftModel`] and a
/// fixed draft length: drafts `draft_len` tokens per round, verifies them
/// with one batched target forward, accepts the agreeing prefix plus the
/// target's correction, and reports each accepted transition to the
/// draft's [`DraftModel::observe`].
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
) -> SimResult<SpecOutcome> {
    let mut ctrl = DraftLenController::fixed(draft_len);
    speculate(ctx, model, draft, prompt, max_new_tokens, &mut ctrl)
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
/// verify kernels (see [`SpecOutcome::overlapped_secs`]).
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
) -> SimResult<SpecOutcome> {
    assert_eq!(
        target.cfg.vocab, draft.cfg.vocab,
        "draft and target must share a vocabulary"
    );
    let budget = kv_budget(prompt, max_new_tokens, ctrl);
    let mut draft = ModelDraft {
        model: draft,
        cache: KvCache::new(ctx, &draft.cfg, 1, budget)?,
        seen: 0,
    };
    let out = speculate(ctx, target, &mut draft, prompt, max_new_tokens, ctrl);
    draft.cache.free(ctx);
    out
}

/// KV positions a run needs: the prompt, every generated token and one
/// round's longest draft, with slack.
fn kv_budget(prompt: &[u32], max_new_tokens: usize, ctrl: &DraftLenController) -> usize {
    prompt.len() + max_new_tokens + ctrl.max_draft_len() + 4
}

/// Where a round's draft tokens come from: the one thing the
/// generate-then-verify loop ([`speculate`]) varies.
trait Drafter {
    /// Proposes `k` tokens continuing `committed` (the prompt and every
    /// committed token) and returns them with the round's `(cpu, npu)`
    /// draft lanes (see [`draft_round_lanes`]). A draft that runs on the
    /// simulated NPU adds its cost to `out`.
    fn draft(
        &mut self,
        ctx: &mut NpuContext,
        committed: &[u32],
        k: usize,
        out: &mut SpecOutcome,
    ) -> SimResult<(Vec<u32>, (f64, f64))>;

    /// The target accepted the first `accepted` of `proposals`, which
    /// were drafted after `committed`.
    fn accept(&mut self, committed: &[u32], proposals: &[u32], accepted: usize);
}

/// A host-side proposer: free on the simulated device, and it learns
/// from every accepted transition.
impl Drafter for dyn DraftModel + '_ {
    fn draft(
        &mut self,
        _ctx: &mut NpuContext,
        committed: &[u32],
        k: usize,
        _out: &mut SpecOutcome,
    ) -> SimResult<(Vec<u32>, (f64, f64))> {
        let mut context = committed.to_vec();
        for _ in 0..k {
            let proposal = self.propose(&context);
            context.push(proposal);
        }
        Ok((context.split_off(committed.len()), (0.0, 0.0)))
    }

    fn accept(&mut self, committed: &[u32], proposals: &[u32], accepted: usize) {
        let mut prev = committed[committed.len() - 1];
        for &next in &proposals[..accepted] {
            self.observe(prev, next);
            prev = next;
        }
    }
}

/// A draft transformer with its own KV cache in the target's context.
struct ModelDraft<'a> {
    model: &'a Model,
    cache: KvCache,
    /// Tokens of the committed sequence the cache has consumed.
    seen: usize,
}

impl Drafter for ModelDraft<'_> {
    fn draft(
        &mut self,
        ctx: &mut NpuContext,
        committed: &[u32],
        k: usize,
        out: &mut SpecOutcome,
    ) -> SimResult<(Vec<u32>, (f64, f64))> {
        // The first pass catches the draft up on whatever the last round
        // committed (the correction token and any accepted tail it had
        // not consumed); the rest propose autoregressively.
        let mut step = self
            .model
            .prefill(ctx, &mut self.cache, 0, &committed[self.seen..])?;
        let mut proposals = Vec::with_capacity(k);
        let mut stages = Vec::with_capacity(k);
        loop {
            out.draft_cost.add(&step.cost);
            out.serial_secs += step.cost.wall_secs();
            proposals.push(argmax(&step.logits));
            stages.push(step.stages);
            if proposals.len() == k {
                return Ok((proposals, draft_round_lanes(&stages)));
            }
            let last = proposals[proposals.len() - 1];
            step = self.model.decode_step(ctx, &mut self.cache, &[last])?;
        }
    }

    fn accept(&mut self, committed: &[u32], proposals: &[u32], accepted: usize) {
        // The draft consumed proposals p1..p_{k-1} while drafting; of
        // those, only the accepted prefix stays committed.
        self.seen = committed.len() + accepted.min(proposals.len() - 1);
        self.cache.truncate_seq(0, self.seen);
    }
}

/// The generate-then-verify loop both entry points share. Each round
/// commits the target's greedy token, drafts `k` tokens after it, scores
/// the committed token plus the draft with one batched
/// `prefill_all_logits` pass (`k + 1` rows of free tile compute), and
/// accepts the prefix on which the target's argmax agrees; the first
/// disagreement (or the final row) is the next greedy token. Rejected KV
/// rows are dropped in place (`KvCache::truncate_seq`), the O(1) rollback
/// of a real runtime, so nothing is recomputed.
fn speculate<D: Drafter + ?Sized>(
    ctx: &mut NpuContext,
    target: &Model,
    draft: &mut D,
    prompt: &[u32],
    max_new_tokens: usize,
    ctrl: &mut DraftLenController,
) -> SimResult<SpecOutcome> {
    assert_eq!(ctx.mode, ExecMode::Functional);
    let vocab = target.cfg.vocab;
    let mut out = SpecOutcome::default();
    let mut cache = KvCache::new(ctx, &target.cfg, 1, kv_budget(prompt, max_new_tokens, ctrl))?;
    let prefill = target.prefill(ctx, &mut cache, 0, prompt)?;
    out.target_cost.add(&prefill.cost);

    let end = prompt.len() + max_new_tokens;
    let mut committed = prompt.to_vec();
    let mut next = argmax(&prefill.logits);
    let mut accepted_total = 0usize;
    while committed.len() < end {
        committed.push(next);
        if committed.len() == end {
            break;
        }
        let k = ctrl.draft_len();
        let (proposals, draft_lanes) = draft.draft(ctx, &committed, k, &mut out)?;
        let mut chunk = vec![next];
        chunk.extend_from_slice(&proposals);
        let verify = target.prefill_all_logits(ctx, &mut cache, 0, &chunk)?;
        out.target_cost.add(&verify.cost);
        let accept_secs = charge_accept_loop(ctx, k + 1, vocab);
        out.target_cost.cpu_secs += accept_secs;
        out.serial_secs += verify.cost.wall_secs() + accept_secs;
        // The next draft round rides the verify step's draft lanes.
        out.overlapped_secs += spec_round_secs(&verify.stages, accept_secs, draft_lanes);
        out.target_steps += 1;

        // Accept while the target's argmax agrees, within the token
        // budget; the row after the accepted prefix gives the next token.
        let limit = k.min(end - committed.len() - 1);
        let mut accepted = 0;
        next = loop {
            let tok = argmax(&verify.logits[accepted * vocab..(accepted + 1) * vocab]);
            if accepted == limit || tok != proposals[accepted] {
                break tok;
            }
            accepted += 1;
        };
        draft.accept(&committed, &proposals, accepted);
        ctrl.record_round(k, accepted);
        committed.extend_from_slice(&proposals[..accepted]);
        accepted_total += accepted;
        if accepted < k {
            cache.truncate_seq(0, committed.len());
        }
        out.rounds.push(SpecRound {
            draft_len: k,
            accepted,
            kv_len: cache.len(0),
        });
    }
    cache.free(ctx);
    out.tokens = committed.split_off(prompt.len());
    out.mean_accepted = 1.0 + accepted_total as f64 / out.target_steps.max(1) as f64;
    Ok(out)
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

    /// A host draft that replays the target's greedy stream, indexed by
    /// context length so it stays in step through fully accepted rounds,
    /// and records every transition it is told was accepted.
    struct ContextOracle {
        stream: Vec<u32>,
        prompt_len: usize,
        observed: Vec<(u32, u32)>,
    }

    impl ContextOracle {
        fn new(stream: &[u32], prompt_len: usize) -> Self {
            ContextOracle {
                stream: stream.to_vec(),
                prompt_len,
                observed: Vec::new(),
            }
        }
    }

    impl DraftModel for ContextOracle {
        fn propose(&mut self, context: &[u32]) -> u32 {
            let pos = context.len() - self.prompt_len;
            self.stream[pos.min(self.stream.len() - 1)]
        }

        fn observe(&mut self, prev: u32, next: u32) {
            self.observed.push((prev, next));
        }
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
        let (mut ctx, model) = setup();
        let prompt = vec![1u32, 30, 40];
        let (greedy, _) = greedy_generate(&mut ctx, &model, &prompt, 9).unwrap();
        let mut oracle = ContextOracle::new(&greedy, prompt.len());
        let spec = speculative_generate(&mut ctx, &model, &mut oracle, &prompt, 9, 3).unwrap();
        assert_eq!(spec.tokens, greedy);
        assert!(
            spec.mean_accepted > 2.5,
            "oracle draft should accept nearly all: {}",
            spec.mean_accepted
        );
        assert!(spec.target_steps <= 4, "steps {}", spec.target_steps);
        // The draft hears every accepted transition in order, starting
        // from each round's committed token, and nothing else.
        let mut accepted = Vec::new();
        let mut pos = 0;
        for r in &spec.rounds {
            accepted.extend((pos..pos + r.accepted).map(|i| (greedy[i], greedy[i + 1])));
            pos += r.accepted + 1;
        }
        assert_eq!(oracle.observed, accepted);
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

    /// Runs the two-model pipeline with tiny target and draft models of
    /// the given seeds, and checks that it emits the target's greedy
    /// stream and that the target's KV grows by `accepted + 1` a round.
    fn lossless_pipeline(
        (target_seed, draft_seed): (u64, u64),
        prompt: &[u32],
        tokens: usize,
        ctrl: &mut DraftLenController,
    ) -> SpecOutcome {
        let mut ctx = NpuContext::new(DeviceProfile::v75(), ExecMode::Functional);
        let variant = DequantVariant::CoalescedLut;
        let target = Model::new(&mut ctx, ModelId::Tiny, variant, target_seed).unwrap();
        let draft = Model::new(&mut ctx, ModelId::Tiny, variant, draft_seed).unwrap();
        let (greedy, _) = greedy_generate(&mut ctx, &target, prompt, tokens).unwrap();
        let out =
            speculative_decode_pipeline(&mut ctx, &target, &draft, prompt, tokens, ctrl).unwrap();
        assert_eq!(out.tokens, greedy, "two-model speculation must be lossless");
        let mut expect = prompt.len();
        for r in &out.rounds {
            expect += r.accepted + 1;
            assert_eq!(r.kv_len, expect, "KV invariant violated at {r:?}");
        }
        out
    }

    #[test]
    fn two_model_pipeline_is_lossless() {
        // A *different* draft transformer (other seed, so other weights)
        // proposes; the output must still equal the target's greedy
        // stream bit for bit.
        let prompt = [1u32, 50, 60, 70, 80];
        let out = lossless_pipeline((21, 7), &prompt, 12, &mut DraftLenController::fixed(3));
        assert!(out.target_steps <= 12);
        assert!(out.overlapped_secs <= out.serial_secs + 1e-12);
        assert!(out.draft_cost.wall_secs() > 0.0);
    }

    #[test]
    fn partly_accepted_drafts_roll_the_draft_kv_back() {
        // These seeds accept every count from 0 to k = 3. The draft feeds
        // itself p1..p_{k-1} while drafting, so after the round that
        // accepts 1 its KV holds a proposal the target rejected, which
        // `ModelDraft::accept` must drop before the next round drafts.
        // Left in, it steers the later drafts and moves these counts (the
        // stream stays greedy either way).
        let prompt = [1u32, 50, 60, 70, 80];
        let out = lossless_pipeline((3, 4), &prompt, 16, &mut DraftLenController::fixed(3));
        let accepted: Vec<usize> = out.rounds.iter().map(|r| r.accepted).collect();
        assert_eq!(accepted, [3, 3, 0, 1, 0, 2]);
    }

    #[test]
    fn same_weights_draft_accepts_everything() {
        // Draft == target (same seed): every proposal is the target's own
        // greedy choice, so acceptance is total and rounds commit k+1.
        let prompt = [1u32, 30, 40];
        let out = lossless_pipeline((21, 21), &prompt, 9, &mut DraftLenController::fixed(3));
        assert!(
            out.mean_accepted > 2.5,
            "identical draft should accept nearly all: {}",
            out.mean_accepted
        );
        assert!(out.target_steps <= 4, "steps {}", out.target_steps);
    }

    #[test]
    fn adaptive_pipeline_stays_lossless() {
        let mut ctrl = DraftLenController::adaptive(3, 1, 5);
        let out = lossless_pipeline((21, 7), &[1, 50, 60], 14, &mut ctrl);
        // Rounds may use different k, but every k stays in bounds.
        for r in &out.rounds {
            assert!((1..=5).contains(&r.draft_len));
        }
    }

    fn cost_hex(c: &StepCost) -> String {
        let secs = [
            c.gemm_secs,
            c.attn_secs,
            c.misc_secs,
            c.cpu_secs,
            c.switch_secs,
            c.stream_secs,
            c.overlapped_secs,
        ];
        secs.map(|v| format!("{:x}", v.to_bits())).join(" ")
    }

    /// One line of `testdata/spec_outcomes.txt`; a pipeline run adds its
    /// serial and overlapped seconds.
    fn outcome_line(label: &str, out: &SpecOutcome, pipeline: bool) -> String {
        let tokens: Vec<String> = out.tokens.iter().map(u32::to_string).collect();
        let rounds: Vec<String> = out
            .rounds
            .iter()
            .map(|r| format!("{}/{}/{}", r.draft_len, r.accepted, r.kv_len))
            .collect();
        let mut line = format!(
            "{label}: tokens {} | steps {} | rounds {} | target {} | draft {} | mean {:x}",
            tokens.join(" "),
            out.target_steps,
            rounds.join(" "),
            cost_hex(&out.target_cost),
            cost_hex(&out.draft_cost),
            out.mean_accepted.to_bits()
        );
        if pipeline {
            line += &format!(
                " | serial {:x} overlapped {:x}",
                out.serial_secs.to_bits(),
                out.overlapped_secs.to_bits()
            );
        }
        line
    }

    /// On two prompts, one context each: host drafts (a bigram that never
    /// learns, one seeded with the first greedy token so it does, and an
    /// oracle) at k = 1, 3 and 5, then the pipeline with a rejecting and
    /// an accepting draft transformer under a fixed and an adaptive
    /// controller, then the context's mapped DDR bytes. Every run must
    /// equal greedy decoding; costs depend on the context's history, so
    /// the order is part of what is pinned.
    fn pinned_runs() -> Vec<String> {
        let mut lines = Vec::new();
        for (prompt, new_tokens) in [(vec![1u32, 50, 60, 70, 80], 32), (vec![1, 30, 40], 12)] {
            let p = prompt.len();
            let (mut ctx, target) = setup();
            let (greedy, _) = greedy_generate(&mut ctx, &target, &prompt, new_tokens).unwrap();
            for k in [1, 3, 5] {
                let mut bigram = BigramDraft::new(4);
                let mut learning = BigramDraft::new(greedy[0]);
                let mut oracle = ContextOracle::new(&greedy, p);
                let drafts: [(&str, &mut dyn DraftModel); 3] = [
                    ("bigram", &mut bigram),
                    ("learning bigram", &mut learning),
                    ("oracle", &mut oracle),
                ];
                for (name, draft) in drafts {
                    let out =
                        speculative_generate(&mut ctx, &target, draft, &prompt, new_tokens, k)
                            .unwrap();
                    assert_eq!(out.tokens, greedy);
                    lines.push(outcome_line(
                        &format!("prompt {p} {name} k={k}"),
                        &out,
                        false,
                    ));
                }
            }
            for (name, seed) in [("rejecting", 7), ("accepting", 21)] {
                let draft = Model::new(&mut ctx, ModelId::Tiny, DequantVariant::CoalescedLut, seed)
                    .unwrap();
                let ctrls = [
                    ("fixed 3", DraftLenController::fixed(3)),
                    ("adaptive 3 in 1..=5", DraftLenController::adaptive(3, 1, 5)),
                ];
                for (policy, mut ctrl) in ctrls {
                    let out = speculative_decode_pipeline(
                        &mut ctx, &target, &draft, &prompt, new_tokens, &mut ctrl,
                    )
                    .unwrap();
                    assert_eq!(out.tokens, greedy);
                    let label = format!("prompt {p} {name} model, {policy}");
                    lines.push(outcome_line(&label, &out, true));
                }
            }
            lines.push(format!(
                "prompt {p} mapped DDR bytes: {}",
                ctx.ddr_mapped_bytes()
            ));
        }
        lines
    }

    #[test]
    fn outcomes_match_the_pinned_bits() {
        // Pins tokens, rounds and every cost bit of both entry points. A
        // change that moves one re-pins the file and says so.
        let pinned: Vec<&str> = include_str!("../testdata/spec_outcomes.txt")
            .lines()
            .filter(|line| !line.starts_with('#'))
            .collect();
        let runs = pinned_runs();
        assert_eq!(runs.len(), pinned.len());
        for (got, want) in runs.iter().zip(&pinned) {
            assert_eq!(got, want);
        }
    }
}
