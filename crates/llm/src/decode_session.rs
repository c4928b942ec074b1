//! Continuous-batching decode session: `admit` / `step` / `retire`.
//!
//! The paper's motivation for bypassing QNN is that test-time scaling
//! needs *dynamic* batched decode: Best-of-N trajectories finish at
//! different lengths, and a static graph keeps paying for slots whose
//! samples already emitted their answer. [`DecodeSession`] is the dynamic
//! counterpart — a fixed pool of KV slots over one shared prompt, where
//! sequences are admitted ([`DecodeSession::admit`]), stepped as one HMX
//! batch ([`DecodeSession::step`]), and retired either automatically when
//! they exhaust their token budget or explicitly
//! ([`DecodeSession::retire`]). A retirement frees the KV slot *within the
//! same step*, and the head of the admission queue takes it over
//! immediately, so the decode batch (and with it HMX tile occupancy)
//! stays full while any work remains.
//!
//! The session runs in both execution modes: functional (tiny models,
//! real logits flow to the sampling callback) and cost-only (paper-scale
//! models, the callback sees an empty logits row and only the simulated
//! step costs accumulate). It drives [`Model::decode_step_for`], so a
//! model carrying a sharded
//! [`LayerSchedule`](crate::model::LayerSchedule) decodes across NPU
//! sessions transparently.
//!
//! # Examples
//!
//! Admit three samples over a shared prompt into two KV slots, retire
//! one early, and drain — the freed slot is taken by the queued sample
//! within the same step:
//!
//! ```
//! use edgellm::config::ModelId;
//! use edgellm::decode_session::DecodeSession;
//! use edgellm::model::Model;
//! use hexsim::prelude::*;
//! use htpops::gemm::DequantVariant;
//!
//! let mut ctx = NpuContext::new(DeviceProfile::v75(), ExecMode::Functional);
//! let model = Model::new(&mut ctx, ModelId::Tiny, DequantVariant::CoalescedLut, 7).unwrap();
//! let prompt = [2u32, 10, 11];
//! let mut session = DecodeSession::new(&mut ctx, &model, &prompt, 2, 64).unwrap();
//!
//! // Three sequences over two slots: the third queues.
//! let a = session.admit(40, 4).unwrap();
//! let _b = session.admit(41, 3).unwrap();
//! let _c = session.admit(42, 2).unwrap();
//! assert_eq!(session.active_count(), 2);
//! assert_eq!(session.queued_count(), 1);
//!
//! // Retire `a` early (as an EOS would); the queued sample activates.
//! session.retire(a).unwrap();
//! assert_eq!(session.queued_count(), 0);
//!
//! // Step until everything drains, sampling greedily from real logits.
//! while session.active_count() > 0 {
//!     session
//!         .step(&mut ctx, |_, logits| {
//!             logits
//!                 .iter()
//!                 .enumerate()
//!                 .max_by(|x, y| x.1.total_cmp(y.1))
//!                 .map(|(i, _)| i as u32)
//!                 .unwrap()
//!         })
//!         .unwrap();
//! }
//! let finished = session.into_finished(&mut ctx);
//! assert_eq!(finished.len(), 3);
//! ```

use std::collections::VecDeque;

use hexsim::prelude::*;

use crate::kv_cache::{KvCache, KvSeqSnapshot};
use crate::model::{check_prompt, Model, StepCost};
use crate::overlap::StepStages;

/// Stable identifier of one admitted sequence, assigned in admission
/// order starting from zero.
pub type SeqId = u64;

/// A finished sequence: its id and every generated token in order (the
/// first token handed to [`DecodeSession::admit`] included).
#[derive(Clone, Debug)]
pub struct FinishedSeq {
    /// Id returned by [`DecodeSession::admit`].
    pub id: SeqId,
    /// Generated tokens in emission order.
    pub tokens: Vec<u32>,
}

/// A sequence currently occupying a KV slot.
struct ActiveSeq {
    id: SeqId,
    /// Newest token, fed to the next decode step.
    current: u32,
    /// Tokens emitted so far (the admission token counts as one).
    emitted: usize,
    /// Total tokens this sequence may emit.
    max_new: usize,
    /// Every emitted token, in order.
    tokens: Vec<u32>,
}

/// A sequence admitted while all slots were busy.
struct QueuedSeq {
    id: SeqId,
    first: u32,
    max_new: usize,
}

/// A decode paused mid-stream by [`DecodeSession::preempt`]: the
/// sequence's KV rows (bit-exact in functional mode, the length in
/// cost-only mode) plus every token generated so far. Handing this back
/// to [`DecodeSession::resume`] re-installs the sequence into a free
/// slot and the continuation is bit-identical to an uninterrupted
/// decode — preemption is a scheduling choice, never a numeric one.
///
/// The value is owned by the caller while paused: the session frees the
/// KV slot at preemption time, so a scheduler can hand the slot to an
/// interactive arrival and re-queue this state until capacity returns.
#[derive(Clone, Debug)]
pub struct PreemptedSeq {
    id: SeqId,
    snap: KvSeqSnapshot,
    current: u32,
    emitted: usize,
    max_new: usize,
    tokens: Vec<u32>,
}

impl PreemptedSeq {
    /// Id the sequence was admitted under (and resumes under).
    pub fn id(&self) -> SeqId {
        self.id
    }

    /// Tokens the sequence had emitted when it was paused.
    pub fn emitted(&self) -> usize {
        self.emitted
    }

    /// The generated prefix, in emission order.
    pub fn tokens(&self) -> &[u32] {
        &self.tokens
    }
}

/// A sequence whose *own* prompt (unrelated to the session's shared
/// prompt) is being prefilled into its reserved KV slot chunk by chunk
/// (admitted via [`DecodeSession::admit_prompt`]).
struct PrefillingSeq {
    id: SeqId,
    slot: usize,
    prompt: Vec<u32>,
    /// Prompt tokens prefilled into the slot so far.
    fed: usize,
    max_new: usize,
    chunk: usize,
}

/// Progress report of one [`DecodeSession::prefill_step`] chunk: which
/// sequence advanced, how far its prompt has been fed, and the chunk's
/// forward cost/stages — the stages are what a serving scheduler charges
/// into the overlap critical path when it interleaves the chunk with a
/// decode step ([`StepStages::merged`]).
#[derive(Debug)]
pub struct PrefillChunk {
    /// Sequence the chunk belongs to.
    pub id: SeqId,
    /// Prompt tokens fed after this chunk.
    pub fed: usize,
    /// Total prompt length of the sequence.
    pub prompt_len: usize,
    /// Cost of this chunk's forward pass.
    pub cost: StepCost,
    /// Stage breakdown of this chunk's forward pass.
    pub stages: StepStages,
    /// Whether the prompt completed — the sequence sampled its first
    /// token and is now active for decode.
    pub completed: bool,
}

/// Continuous-batching decode over one model and one shared prompt.
pub struct DecodeSession<'m> {
    model: &'m Model,
    cache: KvCache,
    prompt: KvSeqSnapshot,
    prompt_logits: Vec<f32>,
    prefill_cost: StepCost,
    /// One entry per KV slot; `None` marks a slot with no *active*
    /// sequence (it may still be reserved by a prefilling one).
    slots: Vec<Option<ActiveSeq>>,
    queue: VecDeque<QueuedSeq>,
    /// Sequences whose own prompt is mid-prefill, oldest first; each
    /// reserves the slot it is prefilling into.
    prefilling: Vec<PrefillingSeq>,
    finished: Vec<FinishedSeq>,
    next_id: SeqId,
    steps: usize,
    decode_cost: StepCost,
    decoded_tokens: usize,
    /// Stage breakdown of the most recent decode step.
    last_stages: Option<StepStages>,
}

impl<'m> DecodeSession<'m> {
    /// Opens a session: allocates a KV cache of `max_batch` slots with a
    /// shared `kv_budget` (total tokens across slots), prefills the prompt
    /// once, snapshots its KV as the shared admission state, and frees
    /// every slot. Zero slots or an empty prompt is
    /// [`SimError::InvalidConfig`], returned before the cache is mapped or
    /// anything is charged.
    pub fn new(
        ctx: &mut NpuContext,
        model: &'m Model,
        prompt_tokens: &[u32],
        max_batch: usize,
        kv_budget: usize,
    ) -> SimResult<Self> {
        invalid_if(max_batch == 0, "a session needs at least one slot")?;
        check_prompt(prompt_tokens)?;
        let mut cache = KvCache::new(ctx, &model.cfg, max_batch, kv_budget)?;
        let out = match model.prefill(ctx, &mut cache, 0, prompt_tokens) {
            Ok(out) => out,
            Err(e) => {
                // Return the already-mapped KV allocation on failure so
                // repeated failed opens cannot exhaust the session VA.
                cache.free(ctx);
                return Err(e);
            }
        };
        let prompt = cache.snapshot_seq(0);
        cache.reset_seq(0);
        Ok(DecodeSession {
            model,
            cache,
            prompt,
            prompt_logits: out.logits,
            prefill_cost: out.cost,
            slots: (0..max_batch).map(|_| None).collect(),
            queue: VecDeque::new(),
            prefilling: Vec::new(),
            finished: Vec::new(),
            next_id: 0,
            steps: 0,
            decode_cost: StepCost::default(),
            decoded_tokens: 0,
            last_stages: None,
        })
    }

    /// Admits a sequence over the shared prompt KV. `first_token` is its
    /// first generated token (callers sample it from
    /// [`Self::prompt_logits`]); the sequence may emit `max_new_tokens`
    /// tokens in total before it auto-retires. If every slot is busy the
    /// sequence queues and activates as soon as a slot retires.
    ///
    /// **Invariant:** every sequence admitted this way shares the prompt
    /// the session was opened with — activation restores the one prompt
    /// KV snapshot into the freed slot. Heterogeneous per-request
    /// prompts go through [`Self::admit_prompt`], which prefills the
    /// request's own prompt into its slot chunk by chunk instead.
    ///
    /// A zero `max_new_tokens` is [`SimError::InvalidConfig`], returned
    /// before the sequence takes an id.
    pub fn admit(&mut self, first_token: u32, max_new_tokens: usize) -> SimResult<SeqId> {
        invalid_if(max_new_tokens == 0, ZERO_BUDGET)?;
        let id = self.next_id;
        self.next_id += 1;
        if max_new_tokens == 1 {
            // The admission token is the whole output; no slot needed.
            self.finished.push(FinishedSeq {
                id,
                tokens: vec![first_token],
            });
            return Ok(id);
        }
        match self.free_slot() {
            Some(slot) => self.activate(slot, id, first_token, max_new_tokens)?,
            None => self.queue.push_back(QueuedSeq {
                id,
                first: first_token,
                max_new: max_new_tokens,
            }),
        }
        Ok(id)
    }

    /// Admits a sequence with its *own* prompt (heterogeneous prompt
    /// lengths — the serving-gateway admission path): reserves a free KV
    /// slot and registers the prompt to be prefilled into it in chunks
    /// of `chunk_tokens` via [`Self::prefill_step`]. When the last chunk
    /// lands, the sequence samples its first token from that chunk's
    /// final-position logits and joins the decode batch.
    ///
    /// Unlike [`Self::admit`], this requires a free slot up front
    /// (errors otherwise): a gateway holds its own admission queue and
    /// only admits when capacity exists, so queueing whole prompts here
    /// would duplicate that machinery.
    ///
    /// An empty prompt, a zero `max_new_tokens` or a zero `chunk_tokens`
    /// is [`SimError::InvalidConfig`], returned before the sequence takes
    /// an id or a slot.
    pub fn admit_prompt(
        &mut self,
        prompt_tokens: &[u32],
        max_new_tokens: usize,
        chunk_tokens: usize,
    ) -> SimResult<SeqId> {
        check_prompt(prompt_tokens)?;
        invalid_if(max_new_tokens == 0, ZERO_BUDGET)?;
        invalid_if(chunk_tokens == 0, "prompt chunks carry at least one token")?;
        let Some(slot) = self.free_slot() else {
            return Err(SimError::Unsupported {
                reason: format!(
                    "admit_prompt needs a free KV slot ({} active, {} prefilling of {})",
                    self.active_count(),
                    self.prefilling.len(),
                    self.slots.len()
                ),
            });
        };
        let id = self.next_id;
        self.next_id += 1;
        self.cache.reset_seq(slot);
        self.prefilling.push(PrefillingSeq {
            id,
            slot,
            prompt: prompt_tokens.to_vec(),
            fed: 0,
            max_new: max_new_tokens,
            chunk: chunk_tokens,
        });
        Ok(id)
    }

    /// Feeds the next prompt chunk of the oldest prefilling sequence
    /// (FIFO across [`Self::admit_prompt`] admissions). If the chunk
    /// completes the prompt, `sample` maps the chunk's final-position
    /// logits (empty in cost-only mode) to the sequence's first token
    /// and the sequence activates for decode. Returns `None` when no
    /// sequence is prefilling.
    ///
    /// The returned [`PrefillChunk`] carries the chunk's [`StepStages`]
    /// so a scheduler can charge it into the same critical-path model as
    /// the decode step it interleaves with.
    pub fn prefill_step<F>(
        &mut self,
        ctx: &mut NpuContext,
        sample: F,
    ) -> SimResult<Option<PrefillChunk>>
    where
        F: FnOnce(&[f32]) -> u32,
    {
        if self.prefilling.is_empty() {
            return Ok(None);
        }
        let p = &self.prefilling[0];
        let (slot, lo) = (p.slot, p.fed);
        let hi = (lo + p.chunk).min(p.prompt.len());
        let span = p.prompt[lo..hi].to_vec();
        let out = self.model.prefill(ctx, &mut self.cache, slot, &span)?;
        self.prefill_cost.add(&out.cost);
        let p = &mut self.prefilling[0];
        p.fed = hi;
        let completed = hi == p.prompt.len();
        let chunk = PrefillChunk {
            id: p.id,
            fed: hi,
            prompt_len: p.prompt.len(),
            cost: out.cost,
            stages: out.stages,
            completed,
        };
        if completed {
            let p = self.prefilling.remove(0);
            let first = sample(&out.logits);
            if p.max_new == 1 {
                // The first token is the whole output: finish now and
                // hand the slot back (to the shared-prompt queue first,
                // matching retirement order).
                self.cache.reset_seq(p.slot);
                self.finished.push(FinishedSeq {
                    id: p.id,
                    tokens: vec![first],
                });
                if let Some(q) = self.queue.pop_front() {
                    self.activate(p.slot, q.id, q.first, q.max_new)?;
                }
            } else {
                self.slots[p.slot] = Some(ActiveSeq {
                    id: p.id,
                    current: first,
                    emitted: 1,
                    max_new: p.max_new,
                    tokens: vec![first],
                });
            }
        }
        Ok(Some(chunk))
    }

    /// Runs one batched decode step over every active slot. `sample` maps
    /// a sequence's logits row (empty in cost-only mode) to its next
    /// token. Sequences reaching their token budget retire and their slot
    /// is refilled from the queue *within the same step*. Returns the
    /// `(id, token)` pairs emitted this step, in slot order; empty when
    /// nothing is active.
    ///
    /// If a step errors (e.g. KV budget exhaustion) and the session is
    /// abandoned, call [`Self::release`] to return its KV allocation —
    /// the simulated DDR mapping is owned by the context, not dropped
    /// with the session.
    pub fn step<F>(&mut self, ctx: &mut NpuContext, mut sample: F) -> SimResult<Vec<(SeqId, u32)>>
    where
        F: FnMut(SeqId, &[f32]) -> u32,
    {
        let seqs: Vec<usize> = (0..self.slots.len())
            .filter(|&s| self.slots[s].is_some())
            .collect();
        if seqs.is_empty() {
            return Ok(Vec::new());
        }
        let tokens: Vec<u32> = seqs
            .iter()
            .map(|&s| self.slots[s].as_ref().expect("active").current)
            .collect();
        let out = self
            .model
            .decode_step_for(ctx, &mut self.cache, &seqs, &tokens)?;
        self.steps += 1;
        self.decode_cost.add(&out.cost);
        self.last_stages = Some(out.stages);

        let vocab = self.model.cfg.vocab;
        let mut emitted = Vec::with_capacity(seqs.len());
        for (row, &slot) in seqs.iter().enumerate() {
            let finished_now = {
                let active = self.slots[slot].as_mut().expect("active");
                let logits = if out.logits.is_empty() {
                    &[][..]
                } else {
                    &out.logits[row * vocab..(row + 1) * vocab]
                };
                let next = sample(active.id, logits);
                active.current = next;
                active.emitted += 1;
                active.tokens.push(next);
                emitted.push((active.id, next));
                active.emitted >= active.max_new
            };
            self.decoded_tokens += 1;
            if finished_now {
                self.retire_slot(slot)?;
            }
        }
        Ok(emitted)
    }

    /// Retires a sequence early (e.g. on EOS): frees its KV slot — or
    /// removes it from the queue, or abandons its partial prompt prefill
    /// — and refills the slot from the queue. Errors on unknown or
    /// already-finished ids.
    pub fn retire(&mut self, id: SeqId) -> SimResult<()> {
        if let Some(slot) = self
            .slots
            .iter()
            .position(|s| s.as_ref().map(|a| a.id) == Some(id))
        {
            return self.retire_slot(slot);
        }
        if let Some(qi) = self.queue.iter().position(|q| q.id == id) {
            let q = self.queue.remove(qi).expect("indexed");
            self.finished.push(FinishedSeq {
                id: q.id,
                tokens: vec![q.first],
            });
            return Ok(());
        }
        if let Some(pi) = self.prefilling.iter().position(|p| p.id == id) {
            // Abandoned mid-prefill: drop the partial KV, emit nothing.
            let p = self.prefilling.remove(pi);
            self.cache.reset_seq(p.slot);
            self.finished.push(FinishedSeq {
                id: p.id,
                tokens: Vec::new(),
            });
            if let Some(q) = self.queue.pop_front() {
                self.activate(p.slot, q.id, q.first, q.max_new)?;
            }
            return Ok(());
        }
        Err(SimError::Unsupported {
            reason: format!("sequence {id} is not active, queued, or prefilling"),
        })
    }

    /// Pauses an active decode mid-stream: captures the sequence's KV
    /// rows and generation state, then frees its slot. The slot is *not*
    /// refilled from the shared-prompt queue — it is left free for the
    /// caller (a preempting scheduler admits its urgent arrival into
    /// it). Resume later with [`Self::resume`]; the continuation is
    /// bit-identical to never having paused. Errors on ids that are not
    /// currently active (queued and prefilling sequences hold no decode
    /// state worth snapshotting — retire those instead).
    pub fn preempt(&mut self, id: SeqId) -> SimResult<PreemptedSeq> {
        let Some(slot) = self
            .slots
            .iter()
            .position(|s| s.as_ref().map(|a| a.id) == Some(id))
        else {
            return Err(SimError::Unsupported {
                reason: format!("sequence {id} is not an active decode, cannot preempt"),
            });
        };
        let seq = self.slots[slot].take().expect("slot checked active");
        let snap = self.cache.snapshot_seq(slot);
        self.cache.reset_seq(slot);
        Ok(PreemptedSeq {
            id: seq.id,
            snap,
            current: seq.current,
            emitted: seq.emitted,
            max_new: seq.max_new,
            tokens: seq.tokens,
        })
    }

    /// Re-installs a sequence paused by [`Self::preempt`] into a free
    /// slot (not necessarily the one it was paused in): restores its KV
    /// rows and generation state so the next [`Self::step`] continues
    /// exactly where the paused decode left off. Requires a free slot
    /// and KV budget headroom for the paused tokens; the paused state is
    /// untouched on error, so a scheduler can retry once capacity
    /// returns. Callers must not resume the same paused state twice.
    pub fn resume(&mut self, paused: &PreemptedSeq) -> SimResult<SeqId> {
        let Some(slot) = self.free_slot() else {
            return Err(SimError::Unsupported {
                reason: format!(
                    "resume needs a free KV slot ({} active, {} prefilling of {})",
                    self.active_count(),
                    self.prefilling.len(),
                    self.slots.len()
                ),
            });
        };
        self.cache.restore_seq(slot, &paused.snap)?;
        self.slots[slot] = Some(ActiveSeq {
            id: paused.id,
            current: paused.current,
            emitted: paused.emitted,
            max_new: paused.max_new,
            tokens: paused.tokens.clone(),
        });
        Ok(paused.id)
    }

    /// Logits of the shared prompt's final position (empty in cost-only
    /// mode); the distribution admission tokens are sampled from.
    pub fn prompt_logits(&self) -> &[f32] {
        &self.prompt_logits
    }

    /// Cost of the one-time shared-prompt prefill, plus every
    /// per-sequence prompt chunk fed through [`Self::prefill_step`].
    pub fn prefill_cost(&self) -> StepCost {
        self.prefill_cost
    }

    /// Number of sequences currently occupying slots.
    pub fn active_count(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Ids of the sequences currently occupying slots, in slot order.
    /// Preempting schedulers pick victims from this set — only active
    /// decodes hold KV state worth snapshotting.
    pub fn active_ids(&self) -> Vec<SeqId> {
        self.slots.iter().flatten().map(|s| s.id).collect()
    }

    /// Number of admitted sequences waiting for a slot.
    pub fn queued_count(&self) -> usize {
        self.queue.len()
    }

    /// Number of sequences whose own prompt is mid-prefill (admitted via
    /// [`Self::admit_prompt`], each holding a reserved slot).
    pub fn prefilling_count(&self) -> usize {
        self.prefilling.len()
    }

    /// Whether a KV slot is free (neither active nor reserved by a
    /// prefilling sequence) — the gateway's pre-admission check.
    pub fn has_free_slot(&self) -> bool {
        self.free_slot().is_some()
    }

    /// Stage breakdown of the most recent decode step, for schedulers
    /// that interleave prefill chunks with decode on the overlap
    /// critical path (`None` before the first step).
    pub fn last_step_stages(&self) -> Option<&StepStages> {
        self.last_stages.as_ref()
    }

    /// Slot-pool size (the maximum decode batch).
    pub fn max_batch(&self) -> usize {
        self.slots.len()
    }

    /// Finished sequences, in retirement order.
    pub fn finished(&self) -> &[FinishedSeq] {
        &self.finished
    }

    /// Finished sequences sorted by admission id, consuming the session
    /// and returning its KV allocation to the context (so repeated runs
    /// on one context do not exhaust the session VA space).
    pub fn into_finished(mut self, ctx: &mut NpuContext) -> Vec<FinishedSeq> {
        self.cache.free(ctx);
        self.finished.sort_by_key(|f| f.id);
        self.finished
    }

    /// Decode steps executed so far.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Tokens emitted by decode steps (admission tokens excluded — those
    /// come from the shared prefill).
    pub fn decoded_tokens(&self) -> usize {
        self.decoded_tokens
    }

    /// Accumulated cost of every decode step.
    pub fn decode_cost(&self) -> StepCost {
        self.decode_cost
    }

    /// Simulated decode wall seconds so far (serial composition).
    pub fn decode_secs(&self) -> f64 {
        self.decode_cost.wall_secs()
    }

    /// Simulated decode wall seconds under the overlap-aware schedule:
    /// the sum of each step's critical-path period, so the CPU lm_head of
    /// step *t* hides behind the first layers of step *t+1* across
    /// [`DecodeSession::step`] boundaries when the model runs with
    /// [`crate::overlap::DispatchMode::Overlapped`]. Equals
    /// [`DecodeSession::decode_secs`] under serial dispatch.
    pub fn decode_overlapped_secs(&self) -> f64 {
        self.decode_cost.overlapped_secs
    }

    /// Decode throughput in tokens per simulated second.
    pub fn decode_tokens_per_sec(&self) -> f64 {
        let secs = self.decode_secs();
        if secs > 0.0 {
            self.decoded_tokens as f64 / secs
        } else {
            0.0
        }
    }

    /// Releases the session's KV allocation back to the context.
    pub fn release(self, ctx: &mut NpuContext) {
        self.cache.free(ctx);
    }

    fn free_slot(&self) -> Option<usize> {
        (0..self.slots.len())
            .find(|&s| self.slots[s].is_none() && !self.prefilling.iter().any(|p| p.slot == s))
    }

    fn activate(&mut self, slot: usize, id: SeqId, first: u32, max_new: usize) -> SimResult<()> {
        self.cache.restore_seq(slot, &self.prompt)?;
        self.slots[slot] = Some(ActiveSeq {
            id,
            current: first,
            emitted: 1,
            max_new,
            tokens: vec![first],
        });
        Ok(())
    }

    fn retire_slot(&mut self, slot: usize) -> SimResult<()> {
        let done = self.slots[slot].take().expect("retiring an active slot");
        self.cache.reset_seq(slot);
        self.finished.push(FinishedSeq {
            id: done.id,
            tokens: done.tokens,
        });
        if let Some(q) = self.queue.pop_front() {
            self.activate(slot, q.id, q.first, q.max_new)?;
        }
        Ok(())
    }
}

/// Why an admission with a zero `max_new_tokens` is rejected.
const ZERO_BUDGET: &str = "a sequence emits at least one token";

/// [`SimError::InvalidConfig`] with `reason` when `bad` holds.
fn invalid_if(bad: bool, reason: &str) -> SimResult<()> {
    if bad {
        return Err(SimError::InvalidConfig {
            reason: reason.into(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelId;
    use htpops::gemm::DequantVariant;

    fn setup() -> (NpuContext, Model) {
        let mut ctx = NpuContext::new(DeviceProfile::v75(), ExecMode::Functional);
        let model = Model::new(&mut ctx, ModelId::Tiny, DequantVariant::CoalescedLut, 11).unwrap();
        (ctx, model)
    }

    fn drain(
        session: &mut DecodeSession<'_>,
        ctx: &mut NpuContext,
        max_steps: usize,
    ) -> Vec<Vec<(SeqId, u32)>> {
        let mut per_step = Vec::new();
        while session.active_count() > 0 {
            assert!(per_step.len() < max_steps, "session failed to drain");
            per_step.push(session.step(ctx, |id, _| 4 + (id as u32 % 100)).unwrap());
        }
        per_step
    }

    /// Every engine-second bit, the counters and the mapped DDR bytes.
    fn charged(ctx: &NpuContext) -> impl PartialEq + std::fmt::Debug {
        let secs = Engine::ALL.map(|e| ctx.cost.engine_secs(e).to_bits());
        (secs, *ctx.cost.counters(), ctx.ddr_mapped_bytes())
    }

    /// `err` is [`SimError::InvalidConfig`] naming `why`, and the session
    /// is as it was: nothing queued, prefilling or finished, and the next
    /// good admission takes id 0 and the session's one slot.
    fn assert_rejected(s: &mut DecodeSession<'_>, err: SimError, why: &str) {
        assert!(
            matches!(&err, SimError::InvalidConfig { reason } if reason.contains(why)),
            "{err}"
        );
        let counts = (s.active_count(), s.queued_count(), s.prefilling_count());
        assert_eq!(counts, (0, 0, 0));
        assert!(s.finished().is_empty());
        assert_eq!(s.admit(40, 2).unwrap(), 0);
        assert_eq!(s.active_count(), 1);
    }

    #[test]
    fn a_session_without_slots_is_rejected_before_mapping_anything() {
        let (mut ctx, model) = setup();
        let before = charged(&ctx);
        let err = DecodeSession::new(&mut ctx, &model, &[2u32, 10], 0, 32)
            .err()
            .expect("zero slots must not open a session");
        assert!(
            matches!(&err, SimError::InvalidConfig { reason } if reason.contains("one slot")),
            "{err}"
        );
        assert_eq!(charged(&ctx), before);
    }

    #[test]
    fn a_zero_budget_admission_takes_no_id() {
        let (mut ctx, model) = setup();
        let mut s = DecodeSession::new(&mut ctx, &model, &[2u32, 10], 1, 32).unwrap();
        let err = s.admit(40, 0).unwrap_err();
        assert_rejected(&mut s, err, ZERO_BUDGET);
        s.release(&mut ctx);
    }

    #[test]
    fn an_empty_own_prompt_takes_no_id_or_slot() {
        let (mut ctx, model) = setup();
        let mut s = DecodeSession::new(&mut ctx, &model, &[2u32, 10], 1, 32).unwrap();
        let err = s.admit_prompt(&[], 3, 2).unwrap_err();
        assert_rejected(&mut s, err, "empty prompt");
        s.release(&mut ctx);
    }

    #[test]
    fn a_zero_budget_own_prompt_takes_no_id_or_slot() {
        let (mut ctx, model) = setup();
        let mut s = DecodeSession::new(&mut ctx, &model, &[2u32, 10], 1, 32).unwrap();
        let err = s.admit_prompt(&[2u32, 5, 6], 0, 2).unwrap_err();
        assert_rejected(&mut s, err, ZERO_BUDGET);
        s.release(&mut ctx);
    }

    #[test]
    fn zero_token_prompt_chunks_take_no_id_or_slot() {
        let (mut ctx, model) = setup();
        let mut s = DecodeSession::new(&mut ctx, &model, &[2u32, 10], 1, 32).unwrap();
        let err = s.admit_prompt(&[2u32, 5, 6], 3, 0).unwrap_err();
        assert_rejected(&mut s, err, "chunks carry");
        s.release(&mut ctx);
    }

    #[test]
    fn an_empty_prompt_opens_no_session_and_charges_nothing() {
        let mut ctx = NpuContext::new(DeviceProfile::v75(), ExecMode::CostOnly);
        let model =
            Model::new(&mut ctx, ModelId::Qwen1_5B, DequantVariant::CoalescedLut, 1).unwrap();
        let before = charged(&ctx);
        let err = DecodeSession::new(&mut ctx, &model, &[], 8, 8 * 320)
            .err()
            .expect("an empty prompt must not open a session");
        assert!(
            matches!(&err, SimError::InvalidConfig { reason } if reason.contains("empty prompt")),
            "{err}"
        );
        assert_eq!(charged(&ctx), before);
    }

    #[test]
    fn early_retirement_admits_queued_sequences_same_step() {
        let (mut ctx, model) = setup();
        let prompt = [2u32, 10, 11, 12];
        let mut s = DecodeSession::new(&mut ctx, &model, &prompt, 2, 64).unwrap();
        // Two active (lengths 2 and 5), one queued (length 3).
        s.admit(40, 2).unwrap();
        s.admit(41, 5).unwrap();
        let queued = s.admit(42, 3).unwrap();
        assert_eq!(s.active_count(), 2);
        assert_eq!(s.queued_count(), 1);
        // Step 1: sequence 0 hits its budget and retires; the queued
        // sequence takes the freed slot within the same step.
        s.step(&mut ctx, |_, _| 7).unwrap();
        assert_eq!(s.queued_count(), 0);
        assert_eq!(s.active_count(), 2);
        assert_eq!(s.finished().len(), 1);
        assert_eq!(s.finished()[0].tokens, vec![40, 7]);
        drain(&mut s, &mut ctx, 16);
        let ddr_before = ctx.ddr_mapped_bytes();
        let done = s.into_finished(&mut ctx);
        assert!(ctx.ddr_mapped_bytes() < ddr_before, "KV must be freed");
        assert_eq!(done.len(), 3);
        assert_eq!(done[queued as usize].tokens.len(), 3);
        assert_eq!(done[1].tokens.len(), 5);
    }

    #[test]
    fn explicit_retire_frees_slot_and_queue() {
        let (mut ctx, model) = setup();
        let prompt = [2u32, 20, 21];
        let mut s = DecodeSession::new(&mut ctx, &model, &prompt, 1, 32).unwrap();
        let a = s.admit(50, 10).unwrap();
        let b = s.admit(51, 4).unwrap();
        assert_eq!(s.queued_count(), 1);
        // Retiring the active sequence promotes the queued one.
        s.retire(a).unwrap();
        assert_eq!(s.active_count(), 1);
        assert_eq!(s.queued_count(), 0);
        // Retiring a queued-then-active id twice errors.
        s.retire(b).unwrap();
        assert!(s.retire(b).is_err());
        assert!(s.retire(99).is_err());
        assert_eq!(s.finished().len(), 2);
    }

    #[test]
    fn single_token_budget_finishes_without_a_slot() {
        let (mut ctx, model) = setup();
        let prompt = [2u32, 30];
        let mut s = DecodeSession::new(&mut ctx, &model, &prompt, 2, 32).unwrap();
        s.admit(60, 1).unwrap();
        assert_eq!(s.active_count(), 0);
        assert_eq!(s.finished().len(), 1);
        assert_eq!(s.finished()[0].tokens, vec![60]);
        assert_eq!(s.steps(), 0);
    }

    #[test]
    fn failed_open_frees_its_kv_allocation() {
        let (mut ctx, model) = setup();
        let before = ctx.ddr_mapped_bytes();
        // Prompt exceeds the KV budget: prefill fails inside new().
        let prompt = vec![2u32; 16];
        assert!(DecodeSession::new(&mut ctx, &model, &prompt, 2, 4).is_err());
        assert_eq!(ctx.ddr_mapped_bytes(), before, "failed open must not leak");
    }

    fn greedy(logits: &[f32]) -> u32 {
        let mut best = 0usize;
        for (i, &v) in logits.iter().enumerate() {
            if v > logits[best] {
                best = i;
            }
        }
        best as u32
    }

    #[test]
    fn chunked_prompt_admission_matches_single_shot() {
        // The same per-request prompt prefilled in chunks of 2 and in one
        // shot must sample the identical first token and decode the
        // identical continuation: Model::prefill continues from the KV
        // length, so chunking is a scheduling choice, not a numeric one.
        let (mut ctx, model) = setup();
        let shared = [2u32, 10, 11];
        let own_prompt = [2u32, 7, 8, 9, 3];
        let mut tokens_by_chunk: Vec<Vec<u32>> = Vec::new();
        for chunk in [own_prompt.len(), 2] {
            let mut s = DecodeSession::new(&mut ctx, &model, &shared, 2, 64).unwrap();
            let id = s.admit_prompt(&own_prompt, 4, chunk).unwrap();
            assert_eq!(s.prefilling_count(), 1);
            assert_eq!(s.active_count(), 0);
            let mut chunks = 0;
            while s.prefilling_count() > 0 {
                let c = s.prefill_step(&mut ctx, greedy).unwrap().unwrap();
                chunks += 1;
                assert_eq!(c.id, id);
                assert_eq!(c.prompt_len, own_prompt.len());
                assert!(c.fed <= own_prompt.len());
                assert_eq!(c.completed, c.fed == own_prompt.len());
                assert!(c.stages.layers.len() == model.cfg.layers);
            }
            assert_eq!(chunks, own_prompt.len().div_ceil(chunk));
            assert_eq!(s.active_count(), 1);
            drain(&mut s, &mut ctx, 8);
            let done = s.into_finished(&mut ctx);
            assert_eq!(done.len(), 1);
            assert_eq!(done[0].tokens.len(), 4);
            tokens_by_chunk.push(done[0].tokens.clone());
        }
        assert_eq!(tokens_by_chunk[0], tokens_by_chunk[1]);
    }

    #[test]
    fn prefilling_sequences_reserve_their_slot() {
        let (mut ctx, model) = setup();
        let shared = [2u32, 10];
        let mut s = DecodeSession::new(&mut ctx, &model, &shared, 2, 64).unwrap();
        let p = s.admit_prompt(&[2u32, 5, 6], 3, 2).unwrap();
        assert!(s.has_free_slot());
        // The shared-prompt admission takes the one remaining slot...
        s.admit(40, 3).unwrap();
        assert!(!s.has_free_slot());
        // ...so a second own-prompt admission has nowhere to go.
        assert!(s.admit_prompt(&[2u32, 5], 2, 2).is_err());
        // And shared-prompt admissions queue rather than stealing the
        // reserved slot.
        s.admit(41, 3).unwrap();
        assert_eq!(s.queued_count(), 1);
        assert_eq!(s.prefilling_count(), 1);
        // Retiring the mid-prefill sequence abandons it (no tokens) and
        // hands the slot to the queue head.
        s.retire(p).unwrap();
        assert_eq!(s.prefilling_count(), 0);
        assert_eq!(s.queued_count(), 0);
        assert_eq!(s.active_count(), 2);
        let empty = s.finished().iter().find(|f| f.id == p).unwrap();
        assert!(empty.tokens.is_empty());
        drain(&mut s, &mut ctx, 8);
        assert_eq!(s.finished().len(), 3);
        s.release(&mut ctx);
    }

    #[test]
    fn single_token_prompt_budget_finishes_at_prefill_completion() {
        let (mut ctx, model) = setup();
        let mut s = DecodeSession::new(&mut ctx, &model, &[2u32, 10], 1, 32).unwrap();
        s.admit_prompt(&[2u32, 4, 5], 1, 8).unwrap();
        let c = s.prefill_step(&mut ctx, greedy).unwrap().unwrap();
        assert!(c.completed);
        assert_eq!(s.active_count(), 0);
        assert_eq!(s.finished().len(), 1);
        assert_eq!(s.finished()[0].tokens.len(), 1);
        assert!(s.has_free_slot(), "slot returns immediately");
        assert!(s.prefill_step(&mut ctx, greedy).unwrap().is_none());
        s.release(&mut ctx);
    }

    #[test]
    fn prefill_chunks_accumulate_into_prefill_cost() {
        let mut ctx = NpuContext::new(DeviceProfile::v75(), ExecMode::CostOnly);
        let model =
            Model::new(&mut ctx, ModelId::Qwen1_5B, DequantVariant::CoalescedLut, 1).unwrap();
        let mut s = DecodeSession::new(&mut ctx, &model, &[0u32; 8], 2, 256).unwrap();
        let base = s.prefill_cost().wall_secs();
        s.admit_prompt(&vec![0u32; 64], 4, 16).unwrap();
        let mut last = base;
        for _ in 0..4 {
            let c = s.prefill_step(&mut ctx, |_| 0).unwrap().unwrap();
            assert!(c.cost.wall_secs() > 0.0);
            let now = s.prefill_cost().wall_secs();
            assert!(now > last, "each chunk charges prefill cost");
            last = now;
        }
        assert_eq!(s.prefilling_count(), 0);
        assert_eq!(s.active_count(), 1);
        // The chunk stages expose a full layer walk for the overlap
        // scheduler to merge with a decode step's stages.
        s.step(&mut ctx, |_, _| 0).unwrap();
        let decode_st = s.last_step_stages().unwrap().clone();
        assert_eq!(decode_st.layers.len(), model.cfg.layers);
        s.release(&mut ctx);
    }

    #[test]
    fn preempt_resume_is_bit_identical_to_uninterrupted_decode() {
        // A sequence decoded 3 tokens, paused while a distractor churns
        // through its slot, then resumed (landing in a different slot)
        // must emit exactly the tokens of an uninterrupted run: the KV
        // snapshot/restore round-trip is bit-exact.
        let (mut ctx, model) = setup();
        let shared = [2u32, 10, 11];
        let own = [2u32, 7, 8, 9];
        let run = |ctx: &mut NpuContext, preempt_after: Option<usize>| -> Vec<u32> {
            let mut s = DecodeSession::new(ctx, &model, &shared, 2, 64).unwrap();
            let id = s.admit_prompt(&own, 8, own.len()).unwrap();
            while s.prefilling_count() > 0 {
                s.prefill_step(ctx, greedy).unwrap();
            }
            let mut paused: Option<PreemptedSeq> = None;
            let mut did_preempt = false;
            let mut steps = 0usize;
            let mut guard = 0usize;
            loop {
                guard += 1;
                assert!(guard < 64, "session failed to drain");
                if let Some(p) = &paused {
                    // Resume once the distractor has drained the slot.
                    if s.has_free_slot() {
                        assert_eq!(s.resume(p).unwrap(), id);
                        paused = None;
                    }
                }
                if s.active_count() == 0 && paused.is_none() {
                    break;
                }
                if s.active_count() > 0 {
                    s.step(ctx, |_, logits| greedy(logits)).unwrap();
                    steps += 1;
                }
                if preempt_after == Some(steps) && !did_preempt {
                    did_preempt = true;
                    let p = s.preempt(id).unwrap();
                    assert_eq!(p.emitted(), steps + 1);
                    // A distractor occupies (and dirties) the freed slot
                    // while the victim is paused.
                    let d = s.admit(77, 3).unwrap();
                    s.step(ctx, |_, logits| greedy(logits)).unwrap();
                    assert!(s.finished().iter().all(|f| f.id != d));
                    paused = Some(p);
                }
            }
            let done = s.into_finished(ctx);
            done.iter().find(|f| f.id == id).unwrap().tokens.clone()
        };
        let uninterrupted = run(&mut ctx, None);
        let preempted = run(&mut ctx, Some(3));
        assert_eq!(uninterrupted.len(), 8);
        assert_eq!(uninterrupted, preempted);
    }

    #[test]
    fn preempt_frees_the_slot_without_touching_the_queue() {
        let (mut ctx, model) = setup();
        let mut s = DecodeSession::new(&mut ctx, &model, &[2u32, 10], 1, 32).unwrap();
        let a = s.admit(50, 6).unwrap();
        let b = s.admit(51, 4).unwrap();
        assert_eq!(s.queued_count(), 1);
        // Preempting does NOT promote the queued sequence: the slot is
        // reserved for the preempting caller.
        let p = s.preempt(a).unwrap();
        assert_eq!(s.active_count(), 0);
        assert_eq!(s.queued_count(), 1);
        assert!(s.has_free_slot());
        // Only active decodes can be preempted.
        assert!(s.preempt(b).is_err());
        assert!(s.preempt(99).is_err());
        // Resume takes the slot back; the queued sequence keeps waiting.
        s.resume(&p).unwrap();
        assert_eq!(s.active_count(), 1);
        assert_eq!(s.queued_count(), 1);
        // With the slot occupied again, a second resume has nowhere to go.
        assert!(s.resume(&p).is_err());
        drain(&mut s, &mut ctx, 16);
        assert_eq!(s.finished().len(), 2);
        s.release(&mut ctx);
    }

    #[test]
    fn cost_only_session_accumulates_simulated_time() {
        let mut ctx = NpuContext::new(DeviceProfile::v75(), ExecMode::CostOnly);
        let model =
            Model::new(&mut ctx, ModelId::Qwen1_5B, DequantVariant::CoalescedLut, 1).unwrap();
        let prompt = vec![0u32; 64];
        let mut s = DecodeSession::new(&mut ctx, &model, &prompt, 4, 4 * (64 + 8)).unwrap();
        for _ in 0..4 {
            s.admit(0, 3).unwrap();
        }
        while s.active_count() > 0 {
            s.step(&mut ctx, |_, logits| {
                assert!(logits.is_empty());
                0
            })
            .unwrap();
        }
        assert_eq!(s.steps(), 2);
        assert_eq!(s.decoded_tokens(), 8);
        assert!(s.decode_secs() > 0.0);
        assert!(s.decode_tokens_per_sec() > 0.0);
    }
}
