//! End-to-end Best-of-N through the simulated NPU with a real (tiny)
//! transformer: prefill once, share the prompt KV through a
//! [`DecodeSession`], decode N samples with continuous batching, extract
//! and verify answers.
//!
//! This is the integration path that exercises every layer of the stack —
//! tokenizer, batched KV cache with slot reuse, tile-quantized GEMMs, FP16
//! FlashAttention with the `vgather` exp LUT, CPU lm_head, temperature
//! sampling — exactly the way the paper's runtime executes Best-of-N on
//! the phone. The tiny model is untrained, so its *answers* are noise;
//! what this module demonstrates and tests is the machinery and its
//! costs, not task skill (the calibrated policy covers accuracy).
//!
//! [`llm_bon_continuous`] and [`llm_bon_fixed_batch`] run the same
//! variable-length workload through the dynamic session and through a
//! static-graph-style fixed batch respectively; their throughput gap is
//! the paper's core argument for bypassing QNN.

use edgellm::decode_session::DecodeSession;
use edgellm::kv_cache::KvCache;
use edgellm::model::{Model, StepCost};
use edgellm::tokenizer::Tokenizer;
use hexsim::prelude::*;
use mathsynth::mathgen::MathTask;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Temperature + top-k sampler over CPU logits.
#[derive(Clone, Copy, Debug)]
pub struct LlmSampler {
    /// Softmax temperature (0 = greedy).
    pub temperature: f32,
    /// Top-k truncation (0 = disabled).
    pub top_k: usize,
}

impl Default for LlmSampler {
    fn default() -> Self {
        LlmSampler {
            temperature: 0.9,
            top_k: 40,
        }
    }
}

impl LlmSampler {
    /// Samples one token id from a logits row. NaN logits (a poisoned
    /// softmax upstream) are treated as negative infinity: they never
    /// panic the sort and never get sampled.
    pub fn sample(&self, logits: &[f32], rng: &mut StdRng) -> u32 {
        if self.temperature <= 0.0 {
            return argmax(logits);
        }
        assert!(
            u32::try_from(logits.len()).is_ok(),
            "vocabulary must fit in 32 bits"
        );
        // NaN-proof logit accessor: mapping NaN to -inf zeroes its
        // sampling weight.
        let logit = |i: usize| {
            let v = logits[i];
            if v.is_nan() {
                f32::NEG_INFINITY
            } else {
                v
            }
        };
        // Top-k filter: the k best indices in the order a stable sort by
        // descending logit leaves them, i.e. by logit descending (in
        // `total_cmp` order), then by index. Each index gets one integer
        // key in that order: the logit's total-order bits, inverted, above
        // the index. Keys are distinct, so selecting the k smallest and
        // sorting only them gives the same list.
        let key = |i: usize| {
            let bits = logit(i).to_bits();
            // Flip the magnitude of negatives and the sign of all, so
            // unsigned order is `total_cmp` order.
            let total = bits ^ (((bits as i32 >> 31) as u32) >> 1) ^ (1 << 31);
            u64::from(!total) << 32 | i as u64
        };
        let k = if self.top_k == 0 {
            logits.len()
        } else {
            self.top_k.min(logits.len())
        };
        let mut keys: Vec<u64> = (0..logits.len()).map(key).collect();
        if k < keys.len() {
            keys.select_nth_unstable(k - 1);
            keys.truncate(k);
        }
        keys.sort_unstable();
        let kept: Vec<usize> = keys.iter().map(|&key| key as u32 as usize).collect();
        let maxv = logit(kept[0]);
        if !maxv.is_finite() {
            // Every candidate is NaN/-inf; nothing to weight.
            return kept[0] as u32;
        }
        let weights: Vec<f64> = kept
            .iter()
            .map(|&i| (((logit(i) - maxv) / self.temperature) as f64).exp())
            .collect();
        let total: f64 = weights.iter().sum();
        let mut pick = rng.gen_range(0.0..total);
        for (w, &i) in weights.iter().zip(&kept) {
            if pick < *w {
                return i as u32;
            }
            pick -= w;
        }
        kept[k - 1] as u32
    }
}

fn argmax(logits: &[f32]) -> u32 {
    // NaN entries are never selected (unless every entry is NaN, which
    // degrades to index 0), matching the sampled path's NaN handling.
    let mut best = 0usize;
    for (i, &v) in logits.iter().enumerate() {
        if v.is_nan() {
            continue;
        }
        if logits[best].is_nan() || v > logits[best] {
            best = i;
        }
    }
    best as u32
}

/// Extracts the first integer (optionally negative) from generated text.
fn extract_answer(text: &str) -> Option<i64> {
    let bytes = text.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        if bytes[i].is_ascii_digit()
            || (bytes[i] == b'-'
                && bytes
                    .get(i + 1)
                    .map(|c| c.is_ascii_digit())
                    .unwrap_or(false))
        {
            let start = i;
            i += 1;
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
            if let Ok(v) = text[start..i].parse::<i64>() {
                return Some(v);
            }
        }
        i += 1;
    }
    None
}

/// Result of an end-to-end NPU Best-of-N run.
#[derive(Clone, Debug)]
pub struct LlmBonOutcome {
    /// Decoded completions, one per sample.
    pub completions: Vec<String>,
    /// Extracted answers (`None` when no integer was produced).
    pub answers: Vec<Option<i64>>,
    /// Whether any sample verified against the task.
    pub any_correct: bool,
    /// Total decode steps executed.
    pub steps: usize,
    /// Accumulated cost of prefill + all decode steps.
    pub cost: StepCost,
    /// Decode throughput in tokens per second of simulated device time.
    pub decode_tokens_per_sec: f64,
}

/// Runs Best-of-N end to end on the simulated NPU through a
/// [`DecodeSession`]: one shared prefill, then all `n` samples decode as
/// one continuously batched pool (uniform budgets here, so the batch
/// stays at `n` until every sample retires together).
///
/// # Panics
///
/// Panics if `n` is zero or the context is not functional.
pub fn llm_best_of_n(
    ctx: &mut NpuContext,
    model: &Model,
    task: &MathTask,
    n: usize,
    max_new_tokens: usize,
    seed: u64,
) -> SimResult<LlmBonOutcome> {
    assert!(n >= 1);
    // Plain Best-of-N is the uniform-length special case of the
    // continuous-batching runner with every slot occupied at once.
    let lengths = vec![max_new_tokens; n];
    let report = llm_bon_continuous(ctx, model, task, &lengths, n, seed)?;
    let answers: Vec<Option<i64>> = report
        .completions
        .iter()
        .map(|c| extract_answer(c))
        .collect();
    let any_correct = answers
        .iter()
        .any(|a| a.map(|v| task.verify(v)).unwrap_or(false));
    Ok(LlmBonOutcome {
        answers,
        any_correct,
        steps: report.steps,
        cost: report.total_cost,
        decode_tokens_per_sec: report.tokens_per_sec,
        completions: report.completions,
    })
}

/// Decode-side report of one batched Best-of-N machinery run, used to
/// compare scheduling strategies on identical workloads.
#[derive(Clone, Debug)]
pub struct BatchedBonReport {
    /// Decoded completions in admission order.
    pub completions: Vec<String>,
    /// Decode-sampled tokens that landed within a sample's budget (the
    /// admission token is excluded on both sides: it comes from the
    /// shared prefill).
    pub useful_tokens: usize,
    /// Simulated decode wall seconds.
    pub decode_secs: f64,
    /// Useful decode throughput, tokens per simulated second.
    pub tokens_per_sec: f64,
    /// Decode steps executed.
    pub steps: usize,
    /// Accumulated cost of prefill(s) + every decode step.
    pub total_cost: StepCost,
}

/// Runs a variable-length Best-of-N workload (`lengths[i]` = total tokens
/// sample `i` may emit) through the continuous-batching
/// [`DecodeSession`]: at most `max_batch` samples decode concurrently,
/// and every early finisher's slot is re-used by a queued sample in the
/// same step.
pub fn llm_bon_continuous(
    ctx: &mut NpuContext,
    model: &Model,
    task: &MathTask,
    lengths: &[usize],
    max_batch: usize,
    seed: u64,
) -> SimResult<BatchedBonReport> {
    let (report, _) = run_continuous(ctx, model, task, lengths, max_batch, seed, |_| false)?;
    Ok(report)
}

/// The continuous-batching loop behind [`llm_bon_continuous`] and
/// [`llm_serve_eos`]: one shared prompt prefill, every sample admitted up
/// front with its budget `lengths[i]` (admission token included), and
/// decode steps until the pool drains. A sample retires early the moment
/// `is_eos` fires on a token within its budget, and its slot is refilled
/// from the queue in the same step. Returns the report and the finished
/// sequences' tokens in admission order.
fn run_continuous(
    ctx: &mut NpuContext,
    model: &Model,
    task: &MathTask,
    lengths: &[usize],
    max_batch: usize,
    seed: u64,
    is_eos: impl Fn(u32) -> bool,
) -> SimResult<(BatchedBonReport, Vec<Vec<u32>>)> {
    assert!(!lengths.is_empty());
    assert_eq!(
        ctx.mode,
        ExecMode::Functional,
        "end-to-end runs are functional"
    );
    let tok = Tokenizer::new();
    let prompt = format!("{}\nAnswer: ", task.statement);
    let prompt_tokens = tok.encode_with_bos(&prompt);
    let max_len = lengths.iter().copied().max().expect("non-empty");
    let budget = max_batch * (prompt_tokens.len() + max_len + 2) + prompt_tokens.len();

    let mut session = DecodeSession::new(ctx, model, &prompt_tokens, max_batch, budget)?;
    let sampler = LlmSampler::default();
    let mut rng = StdRng::seed_from_u64(seed ^ task.id);
    for &len in lengths {
        let first = sampler.sample(session.prompt_logits(), &mut rng);
        let id = session.admit(first, len)?;
        // An EOS admission token ends the sample before it decodes at all
        // (budget-1 samples already finished inside admit).
        if len > 1 && is_eos(first) {
            session.retire(id)?;
        }
    }
    // Tokens per sample including the admission token, to tell a budget
    // auto-retire (already finished) from an EOS early retire.
    let mut emitted = vec![1usize; lengths.len()];
    while session.active_count() > 0 {
        let sampled = session.step(ctx, |_, row| sampler.sample(row, &mut rng))?;
        for (id, token) in sampled {
            let i = id as usize;
            emitted[i] += 1;
            if is_eos(token) && emitted[i] < lengths[i] {
                session.retire(id)?;
            }
        }
    }

    let useful_tokens = session.decoded_tokens();
    let decode_secs = session.decode_secs();
    let steps = session.steps();
    let mut total_cost = session.prefill_cost();
    total_cost.add(&session.decode_cost());
    let finished: Vec<Vec<u32>> = session
        .into_finished(ctx)
        .into_iter()
        .map(|f| f.tokens)
        .collect();
    let report = BatchedBonReport {
        completions: finished.iter().map(|t| tok.decode(t)).collect(),
        useful_tokens,
        decode_secs,
        tokens_per_sec: if decode_secs > 0.0 {
            useful_tokens as f64 / decode_secs
        } else {
            0.0
        },
        steps,
        total_cost,
    };
    Ok((report, finished))
}

/// The same workload through a static fixed batch, the way a
/// static-graph deployment (QNN-style) has to run it: samples are chunked
/// into waves of `max_batch`, every wave decodes the *full* batch until
/// its longest sample finishes, and slots whose samples finished early —
/// or were never occupied in a ragged final wave — keep burning decode
/// steps because the compiled batch cannot shrink or swap mid-flight.
pub fn llm_bon_fixed_batch(
    ctx: &mut NpuContext,
    model: &Model,
    task: &MathTask,
    lengths: &[usize],
    max_batch: usize,
    seed: u64,
) -> SimResult<BatchedBonReport> {
    assert!(!lengths.is_empty());
    assert!(max_batch >= 1);
    assert_eq!(
        ctx.mode,
        ExecMode::Functional,
        "end-to-end runs are functional"
    );
    let tok = Tokenizer::new();
    let prompt = format!("{}\nAnswer: ", task.statement);
    let prompt_tokens = tok.encode_with_bos(&prompt);
    let sampler = LlmSampler::default();
    let mut rng = StdRng::seed_from_u64(seed ^ task.id);

    let mut completions = Vec::with_capacity(lengths.len());
    let mut useful_tokens = 0usize;
    let mut decode_secs = 0.0f64;
    let mut steps = 0usize;
    let mut total_cost = StepCost::default();
    for wave in lengths.chunks(max_batch) {
        let wave_max = wave.iter().copied().max().expect("non-empty");
        let budget = max_batch * (prompt_tokens.len() + wave_max + 2);
        let mut cache = KvCache::new(ctx, &model.cfg, max_batch, budget)?;
        let prefill = model.prefill(ctx, &mut cache, 0, &prompt_tokens)?;
        total_cost.add(&prefill.cost);
        cache.broadcast_prompt();
        let mut current: Vec<u32> = (0..max_batch)
            .map(|_| sampler.sample(&prefill.logits, &mut rng))
            .collect();
        let mut generated: Vec<Vec<u32>> = current.iter().map(|&t| vec![t]).collect();
        for _ in 1..wave_max {
            let out = model.decode_step(ctx, &mut cache, &current)?;
            decode_secs += out.cost.wall_secs();
            total_cost.add(&out.cost);
            steps += 1;
            for s in 0..max_batch {
                let row = &out.logits[s * model.cfg.vocab..(s + 1) * model.cfg.vocab];
                let next = sampler.sample(row, &mut rng);
                current[s] = next;
                // Tokens past a sample's budget (or in an unoccupied
                // padding slot) are decoded but wasted.
                if s < wave.len() && generated[s].len() < wave[s] {
                    generated[s].push(next);
                    useful_tokens += 1;
                }
            }
        }
        cache.free(ctx);
        completions.extend(generated[..wave.len()].iter().map(|g| tok.decode(g)));
    }
    Ok(BatchedBonReport {
        completions,
        useful_tokens,
        decode_secs,
        tokens_per_sec: if decode_secs > 0.0 {
            useful_tokens as f64 / decode_secs
        } else {
            0.0
        },
        steps,
        total_cost,
    })
}

/// Knobs for [`llm_serve_eos`].
#[derive(Clone, Copy, Debug)]
pub struct ServeEosConfig {
    /// Samples to serve.
    pub n: usize,
    /// Per-sample token budget (the EOS predicate usually fires first).
    pub max_new_tokens: usize,
    /// Concurrent decode slots.
    pub max_batch: usize,
    /// Sampling seed (xored with the task id).
    pub seed: u64,
}

/// Outcome of an EOS-driven serving run: the decode-side numbers plus the
/// realized per-sample lengths the EOS predicate produced.
#[derive(Clone, Debug)]
pub struct ServeEosOutcome {
    /// Decode-side report. Every decoded token is useful here: EOS
    /// retirement means nothing past a sample's end is ever decoded.
    pub report: BatchedBonReport,
    /// Realized lengths in admission order, admission token included.
    pub realized_lengths: Vec<usize>,
    /// Samples whose final token fired the EOS predicate (the rest ran
    /// into the `max_new_tokens` budget).
    pub eos_finishes: usize,
}

/// EOS-driven serving through the continuous-batching [`DecodeSession`]:
/// `n` samples share one prompt prefill and decode under a token budget,
/// but each sample is retired the moment `is_eos` fires on its sampled
/// token, and the freed slot is refilled from the queue in the same step.
/// A static fixed batch has to decode every slot to the longest sample,
/// so on mixed realized lengths the EOS path turns the early finishers'
/// slack into useful throughput — the serving gateway's goodput claim
/// demonstrated at the functional policy layer.
pub fn llm_serve_eos(
    ctx: &mut NpuContext,
    model: &Model,
    task: &MathTask,
    cfg: ServeEosConfig,
    is_eos: impl Fn(u32) -> bool,
) -> SimResult<ServeEosOutcome> {
    assert!(cfg.n >= 1);
    assert!(cfg.max_new_tokens >= 1);
    let lengths = vec![cfg.max_new_tokens; cfg.n];
    let (report, finished) =
        run_continuous(ctx, model, task, &lengths, cfg.max_batch, cfg.seed, &is_eos)?;
    let realized_lengths = finished.iter().map(Vec::len).collect();
    let eos_finishes = finished
        .iter()
        .filter(|t| t.last().map(|&t| is_eos(t)).unwrap_or(false))
        .count();
    Ok(ServeEosOutcome {
        report,
        realized_lengths,
        eos_finishes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgellm::config::ModelId;
    use htpops::gemm::DequantVariant;
    use mathsynth::mathgen::{DatasetKind, TaskGenerator};

    #[test]
    fn extract_answer_parses_integers() {
        assert_eq!(extract_answer("the answer is 42."), Some(42));
        assert_eq!(extract_answer("-17 apples"), Some(-17));
        assert_eq!(extract_answer("x = 3, y = 4"), Some(3));
        assert_eq!(extract_answer("no numbers here"), None);
    }

    #[test]
    fn sampler_greedy_picks_argmax() {
        let s = LlmSampler {
            temperature: 0.0,
            top_k: 0,
        };
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(s.sample(&[0.1, 0.9, 0.3], &mut rng), 1);
    }

    #[test]
    fn sampler_survives_nan_logits() {
        // NaN logits must neither panic the top-k sort nor be sampled.
        let s = LlmSampler {
            temperature: 1.0,
            top_k: 0,
        };
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            let t = s.sample(&[f32::NAN, 1.0, f32::NAN, 2.0], &mut rng);
            assert!(t == 1 || t == 3, "sampled NaN index {t}");
        }
        // All-NaN rows degrade to a deterministic pick instead of a panic.
        let t = s.sample(&[f32::NAN, f32::NAN], &mut rng);
        assert!(t < 2);
        // The greedy path must not pick a NaN either, even at index 0.
        let greedy = LlmSampler {
            temperature: 0.0,
            top_k: 0,
        };
        assert_eq!(greedy.sample(&[f32::NAN, 1.0, 2.0], &mut rng), 2);
    }

    #[test]
    fn sampler_respects_top_k() {
        let s = LlmSampler {
            temperature: 1.0,
            top_k: 2,
        };
        let mut rng = StdRng::seed_from_u64(2);
        // Only the two largest logits may be sampled.
        for _ in 0..200 {
            let t = s.sample(&[5.0, -100.0, 4.9, -100.0], &mut rng);
            assert!(t == 0 || t == 2, "sampled {t}");
        }
    }

    /// Reference sampler: a stable sort of every index by descending
    /// logit, then the same weighted draw over the first k.
    fn sample_by_full_sort(s: &LlmSampler, logits: &[f32], rng: &mut StdRng) -> u32 {
        let logit = |i: usize| {
            let v = logits[i];
            if v.is_nan() {
                f32::NEG_INFINITY
            } else {
                v
            }
        };
        let mut idx: Vec<usize> = (0..logits.len()).collect();
        idx.sort_by(|&a, &b| logit(b).total_cmp(&logit(a)));
        let k = if s.top_k == 0 {
            logits.len()
        } else {
            s.top_k.min(logits.len())
        };
        let kept = &idx[..k];
        let maxv = logit(kept[0]);
        if !maxv.is_finite() {
            return kept[0] as u32;
        }
        let weights: Vec<f64> = kept
            .iter()
            .map(|&i| (((logit(i) - maxv) / s.temperature) as f64).exp())
            .collect();
        let mut pick = rng.gen_range(0.0..weights.iter().sum());
        for (w, &i) in weights.iter().zip(kept) {
            if pick < *w {
                return i as u32;
            }
            pick -= w;
        }
        kept[k - 1] as u32
    }

    #[test]
    fn top_k_selection_samples_like_the_full_stable_sort() {
        // Rows of heavily tied logits (±0.0 among them), then rows that
        // add NaN and -Inf, then rows that add +Inf too.
        let len = 256;
        let mut gen = StdRng::seed_from_u64(17);
        for top_k in [0, 1, 40, len - 1, len, len + 5] {
            let s = LlmSampler {
                temperature: 0.9,
                top_k,
            };
            for row in 0..12 {
                let logits: Vec<f32> = (0..len)
                    .map(|_| match (gen.gen_range(0..32u32), row % 3) {
                        (0, 1 | 2) => f32::NAN,
                        (1, 1 | 2) => f32::NEG_INFINITY,
                        (2, 2) => f32::INFINITY,
                        (3, _) => -0.0,
                        (r, _) => (r % 9) as f32 * 0.5 - 2.0,
                    })
                    .collect();
                let mut a = StdRng::seed_from_u64(row);
                let mut b = StdRng::seed_from_u64(row);
                for draw in 0..40 {
                    assert_eq!(
                        s.sample(&logits, &mut a),
                        sample_by_full_sort(&s, &logits, &mut b),
                        "top_k={top_k} row={row} draw={draw}"
                    );
                }
            }
        }
    }

    #[test]
    fn end_to_end_bon_runs_on_simulated_npu() {
        let mut ctx = NpuContext::new(DeviceProfile::v75(), ExecMode::Functional);
        let model = Model::new(&mut ctx, ModelId::Tiny, DequantVariant::CoalescedLut, 3).unwrap();
        let task = TaskGenerator::new(DatasetKind::Gsm8kLike, 5).next_task();
        let out = llm_best_of_n(&mut ctx, &model, &task, 4, 8, 9).unwrap();
        assert_eq!(out.completions.len(), 4);
        assert_eq!(out.steps, 7);
        assert!(out.cost.wall_secs() > 0.0);
        assert!(out.decode_tokens_per_sec > 0.0);
        // Samples must diverge (independent sampling per sequence).
        assert!(
            out.completions
                .iter()
                .collect::<std::collections::HashSet<_>>()
                .len()
                > 1,
            "all samples identical: {:?}",
            out.completions
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut ctx = NpuContext::new(DeviceProfile::v75(), ExecMode::Functional);
            let model =
                Model::new(&mut ctx, ModelId::Tiny, DequantVariant::CoalescedLut, 3).unwrap();
            let task = TaskGenerator::new(DatasetKind::Gsm8kLike, 5).next_task();
            llm_best_of_n(&mut ctx, &model, &task, 2, 6, 1)
                .unwrap()
                .completions
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn continuous_batching_beats_fixed_batch_when_half_finish_early() {
        // Half the samples emit 2 tokens, half emit 16 — the Best-of-N
        // shape where answers arrive at very different lengths. The fixed
        // batch (static-graph semantics) decodes two full waves to the
        // longest sample; the DecodeSession retires the short ones and
        // refills their slots from the queue in the same step.
        let lengths = [2usize, 16, 2, 16, 2, 16, 2, 16];
        let max_batch = 4;
        let run = |fixed: bool| {
            let mut ctx = NpuContext::new(DeviceProfile::v75(), ExecMode::Functional);
            let model =
                Model::new(&mut ctx, ModelId::Tiny, DequantVariant::CoalescedLut, 3).unwrap();
            let task = TaskGenerator::new(DatasetKind::Gsm8kLike, 5).next_task();
            if fixed {
                llm_bon_fixed_batch(&mut ctx, &model, &task, &lengths, max_batch, 7).unwrap()
            } else {
                llm_bon_continuous(&mut ctx, &model, &task, &lengths, max_batch, 7).unwrap()
            }
        };
        let cont = run(false);
        let fixed = run(true);
        // Identical useful work on both sides: every sample's budget minus
        // its prefill-sampled admission token.
        let expected: usize = lengths.iter().map(|l| l - 1).sum();
        assert_eq!(cont.useful_tokens, expected);
        assert_eq!(fixed.useful_tokens, expected);
        assert_eq!(cont.completions.len(), lengths.len());
        assert_eq!(fixed.completions.len(), lengths.len());
        // The tentpole claim: continuous batching turns the early
        // finishers' slack into useful throughput.
        assert!(
            cont.tokens_per_sec > fixed.tokens_per_sec * 1.2,
            "continuous {} tok/s vs fixed {} tok/s",
            cont.tokens_per_sec,
            fixed.tokens_per_sec
        );
        assert!(cont.decode_secs < fixed.decode_secs);
    }

    #[test]
    fn eos_retirement_beats_fixed_batch_on_realized_lengths() {
        // Lengths are *realized* by an EOS predicate instead of assigned
        // up front — the serving-gateway shape. The EOS path retires each
        // sample the step its terminator is sampled; the fixed batch then
        // replays the same realized lengths with static-graph semantics
        // (each wave decodes to its longest sample).
        let cfg = ServeEosConfig {
            n: 8,
            max_new_tokens: 16,
            max_batch: 4,
            seed: 11,
        };
        let mut ctx = NpuContext::new(DeviceProfile::v75(), ExecMode::Functional);
        let model = Model::new(&mut ctx, ModelId::Tiny, DequantVariant::CoalescedLut, 3).unwrap();
        let task = TaskGenerator::new(DatasetKind::Gsm8kLike, 5).next_task();
        let eos = llm_serve_eos(&mut ctx, &model, &task, cfg, |t| t % 5 == 0).unwrap();
        assert_eq!(eos.realized_lengths.len(), cfg.n);
        let min = *eos.realized_lengths.iter().min().unwrap();
        let max = *eos.realized_lengths.iter().max().unwrap();
        assert!(
            min < max && eos.eos_finishes > 0,
            "predicate produced no length mix: {:?}",
            eos.realized_lengths
        );
        // Every decoded token on the EOS path is useful.
        let expected: usize = eos.realized_lengths.iter().map(|l| l - 1).sum();
        assert_eq!(eos.report.useful_tokens, expected);
        let fixed = llm_bon_fixed_batch(
            &mut ctx,
            &model,
            &task,
            &eos.realized_lengths,
            cfg.max_batch,
            cfg.seed,
        )
        .unwrap();
        assert_eq!(fixed.useful_tokens, expected);
        assert!(
            eos.report.tokens_per_sec > fixed.tokens_per_sec * 1.1,
            "EOS serving {} tok/s vs fixed batch {} tok/s",
            eos.report.tokens_per_sec,
            fixed.tokens_per_sec
        );
    }
}
