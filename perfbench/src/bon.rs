//! `bon_functional`: the paper's technique run bit by bit. The tiny model
//! runs functionally (tile-quantized weights, LUT dequantization, FP16
//! flash attention with the exp LUT, CPU lm_head); each seeded GSM8K-like
//! task makes one `llm_best_of_n` call per width N, and one speculative
//! generation is checked against plain greedy decoding.

use edgellm::config::ModelId;
use edgellm::cpu_ref::forward_reference;
use edgellm::decode_session::DecodeSession;
use edgellm::model::Model;
use edgellm::tokenizer::Tokenizer;
use hexsim::prelude::*;
use htpops::gemm::DequantVariant;
use mathsynth::mathgen::{DatasetKind, MathTask, TaskGenerator};
use ttscale::llm_policy::llm_best_of_n;
use ttscale::spec_decode::{greedy_generate, speculative_decode_pipeline, DraftLenController};

use crate::report::{
    peak_rss_mib, repeat, speed_scale, time_setup, timed, Metrics, Outcome, Tally,
};
use crate::stats::{floor_sum, median, range, Summary};
use crate::trace::Tracer;

/// Workload size.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    /// Seeded tasks per repetition.
    pub tasks: usize,
    /// Tokens each sample generates (first token included).
    pub new_tokens: usize,
    /// Tokens the speculative and greedy generations produce.
    pub spec_tokens: usize,
}

/// The benchmark's size.
pub const FULL: Size = Size {
    tasks: 5,
    new_tokens: 32,
    spec_tokens: 24,
};

/// Best-of-N widths every task runs.
pub const WIDTHS: [usize; 3] = [1, 4, 16];

/// Weight seeds of the target and draft tiny models.
const TARGET_SEED: u64 = 3;
const DRAFT_SEED: u64 = 7;

/// Model set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// Fixed input of the sampled-stream digest check, and the digest this
/// benchmark recorded for it when it was written.
const GOLDEN_SEED: u64 = 20261016;
const GOLDEN_DIGEST: u64 = 0x7387_039d_dcc3_35ff;

/// A functional context with the target and draft models.
struct Stack {
    ctx: NpuContext,
    target: Model,
    draft: Model,
}

fn build(tracer: &Tracer) -> SimResult<Stack> {
    let mut ctx = NpuContext::new(DeviceProfile::v75(), ExecMode::Functional);
    let target = tracer.span("model.build", 0, || {
        Model::new(
            &mut ctx,
            ModelId::Tiny,
            DequantVariant::CoalescedLut,
            TARGET_SEED,
        )
    })?;
    let draft = tracer.span("model.build", 1, || {
        Model::new(
            &mut ctx,
            ModelId::Tiny,
            DequantVariant::CoalescedLut,
            DRAFT_SEED,
        )
    })?;
    Ok(Stack { ctx, target, draft })
}

/// One `llm_best_of_n` call, in simulated time.
#[derive(Clone, Debug, PartialEq)]
struct Call {
    n: usize,
    prompt_tokens: usize,
    prefill_secs: f64,
    decode_secs: f64,
    decoded_tokens: usize,
    steps: usize,
    digest: u64,
}

/// What one repetition produced.
#[derive(Clone, Debug, PartialEq)]
struct Rep {
    calls: Vec<Call>,
    spec_tokens: Vec<u32>,
    greedy_tokens: Vec<u32>,
    /// Model forward passes (prefills and decode steps) of the target and
    /// draft models in the speculative and greedy generations.
    spec_forwards: usize,
    spec_secs: f64,
    greedy_secs: f64,
}

/// FNV-1a over the completions, separated by NUL.
fn digest(completions: &[String]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for c in completions {
        for b in c.bytes().chain([0]) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn best_of_n(
    stack: &mut Stack,
    task: &MathTask,
    n: usize,
    size: Size,
    seed: u64,
) -> SimResult<Call> {
    let out = llm_best_of_n(
        &mut stack.ctx,
        &stack.target,
        task,
        n,
        size.new_tokens,
        seed,
    )?;
    let decoded_tokens = n * (size.new_tokens - 1);
    let decode_secs = if out.decode_tokens_per_sec > 0.0 {
        decoded_tokens as f64 / out.decode_tokens_per_sec
    } else {
        0.0
    };
    let tok = Tokenizer::new();
    Ok(Call {
        n,
        prompt_tokens: tok
            .encode_with_bos(&format!("{}\nAnswer: ", task.statement))
            .len(),
        prefill_secs: out.cost.wall_secs() - decode_secs,
        decode_secs,
        decoded_tokens,
        steps: out.steps,
        digest: digest(&out.completions),
    })
}

/// One repetition on a fresh stack: every task at every width, then the
/// speculative and greedy generations of the first task's prompt. Pushes
/// the host seconds of the build and of every call to `units`.
fn rep(
    tasks: &[MathTask],
    size: Size,
    seed: u64,
    tracer: &Tracer,
    units: &mut Vec<f64>,
) -> SimResult<Rep> {
    let mut stack = timed(units, || build(tracer))?;
    let mut calls = Vec::with_capacity(tasks.len() * WIDTHS.len());
    for task in tasks {
        tracer.span("ttscale.task", task.id, || -> SimResult<()> {
            for n in WIDTHS {
                calls.push(timed(units, || {
                    tracer.span("ttscale.best_of_n", task.id, || {
                        best_of_n(&mut stack, task, n, size, seed)
                    })
                })?);
            }
            Ok(())
        })?;
    }
    let prompt = Tokenizer::new().encode_with_bos(&tasks[0].statement);
    let Stack { ctx, target, draft } = &mut stack;
    let mut ctrl = DraftLenController::adaptive(3, 1, 4);
    let spec = timed(units, || {
        tracer.span("ttscale.spec_decode", 0, || {
            speculative_decode_pipeline(ctx, target, draft, &prompt, size.spec_tokens, &mut ctrl)
        })
    })?;
    let (greedy, greedy_cost) = timed(units, || {
        tracer.span("ttscale.greedy", 0, || {
            greedy_generate(ctx, target, &prompt, size.spec_tokens)
        })
    })?;
    Ok(Rep {
        calls,
        spec_forwards: 1
            + spec.target_steps
            + spec.rounds.iter().map(|r| r.draft_len).sum::<usize>()
            + greedy.len(),
        spec_tokens: spec.tokens,
        greedy_tokens: greedy,
        spec_secs: spec.overlapped_secs,
        greedy_secs: greedy_cost.wall_secs(),
    })
}

/// The seeded tasks.
fn tasks(seed: u64, count: usize) -> Vec<MathTask> {
    let mut gen = TaskGenerator::new(DatasetKind::Gsm8kLike, seed);
    (0..count).map(|_| gen.next_task()).collect()
}

/// Runs the workload for `seconds` of measured host time.
pub fn run(seed: u64, seconds: f64, traced: bool, size: Size) -> Outcome {
    let mut out = Outcome::default();
    let tasks = tasks(seed, size.tasks);
    let off = Tracer::new(false);
    let (setup_s, stack) = time_setup(SETUP_REPS, || build(&off));
    if let Err(e) = stack {
        out.tally.error(e);
        return out;
    }

    let budget = if traced { seconds / 2.0 } else { seconds };
    let mut fingerprints = Vec::new();
    let mut units = Vec::new();
    let (times, result) = repeat(budget, 1, || {
        let mut u = Vec::new();
        let r = rep(&tasks, size, seed, &off, &mut u);
        fingerprints.push(format!("{r:?}"));
        units.push(u);
        r
    });
    let result = match result {
        Ok(r) => r,
        Err(e) => {
            out.tally.error(e);
            return out;
        }
    };
    let t = &mut out.tally;
    t.ops(size.tasks as u64 + 1, 0);
    t.check(fingerprints.windows(2).all(|w| w[0] == w[1]), || {
        "repeated Best-of-N runs disagree".to_string()
    });
    let mismatches = mismatches(&result.spec_tokens, &result.greedy_tokens);
    t.check(mismatches == 0, || {
        format!("speculative stream differs from greedy at {mismatches} positions")
    });
    check_reference_logits(&tasks[0], t);
    check_golden_digest(t);
    record_inputs(&tasks, &result, &mut out.inputs);

    let host_s = median(&times);
    let scale = speed_scale();
    let calls = &result.calls;
    let sim_s: f64 = calls
        .iter()
        .map(|c| c.prefill_secs + c.decode_secs)
        .sum::<f64>()
        + result.spec_secs
        + result.greedy_secs;
    let m = &mut out.end_to_end;
    m.put_n("setup_s", setup_s, "s", SETUP_REPS);

    let forwards = calls.iter().map(|c| 1 + c.steps).sum::<usize>() + result.spec_forwards;
    let host_floor_s = floor_sum(&units[1..]) * scale;
    m.put_n("host_s", host_floor_s, "s", times.len());
    m.put_n("host.median_s", host_s, "s", times.len());
    m.put("host.floor_s", floor_sum(&units[1..]), "s");
    m.put("host.speed_scale", scale, "ratio");
    m.put_n(
        "host_ms_per_step",
        host_floor_s * 1e3 / forwards as f64,
        "ms",
        forwards,
    );
    let ttfts: Vec<f64> = calls
        .iter()
        .flat_map(|c| std::iter::repeat_n(c.prefill_secs, c.n))
        .collect();
    m.put_summary("ttft", "_s", Summary::of(&ttfts), 1.0, "s");
    let tbts: Vec<f64> = calls
        .iter()
        .flat_map(|c| std::iter::repeat_n(c.decode_secs / c.steps.max(1) as f64, c.decoded_tokens))
        .collect();
    m.put_summary("tbt", "_s", Summary::of(&tbts), 1.0, "s");
    let throughput = |cs: &[&Call]| {
        let tokens: usize = cs.iter().map(|c| c.decoded_tokens).sum();
        let secs: f64 = cs.iter().map(|c| c.decode_secs).sum();
        (tokens as f64 / secs, tokens)
    };
    let (tps, tokens) = throughput(&calls.iter().collect::<Vec<_>>());
    m.put_n("decode_tok_s", tps, "tok/s", tokens);
    for n in WIDTHS {
        let (tps, tokens) = throughput(&calls.iter().filter(|c| c.n == n).collect::<Vec<_>>());
        m.put_n(format!("decode_tok_s.n{n}"), tps, "tok/s", tokens);
    }
    let prompt_tokens: usize = calls.iter().map(|c| c.prompt_tokens).sum();
    let prefill_s: f64 = calls.iter().map(|c| c.prefill_secs).sum();
    m.put_n(
        "prefill_tok_s",
        prompt_tokens as f64 / prefill_s,
        "tok/s",
        calls.len(),
    );
    let answers: Vec<f64> = calls
        .iter()
        .map(|c| c.prefill_secs + c.decode_secs)
        .collect();
    m.put_n("answer_latency_s", median(&answers), "s", answers.len());
    m.put("fail_ratio", out.tally.fail_ratio(), "ratio");

    if traced {
        let tracer = Tracer::new(true);
        let mut traced_units = Vec::new();
        let (_, traced) = repeat(budget, 1, || {
            let mut u = Vec::new();
            let r = rep(&tasks, size, seed, &tracer, &mut u);
            traced_units.push(u);
            r
        });
        if let Err(e) = traced {
            out.tally.error(e);
        }
        let pl = &mut out.per_layer;
        let task_ms = Summary::of(&tracer.durations_us("ttscale.task"));
        pl.put_summary("ttscale.bon_task_ms", "", task_ms, 1e-3, "ms");
        let samples: usize = calls.iter().map(|c| c.n).sum();
        pl.put("ttscale.samples", samples as f64, "count");
        pl.put("ttscale.spec_mismatches", mismatches as f64, "count");
        let builds = Summary::of(&tracer.durations_us("model.build"));
        pl.put_n("model.build_ms", builds.p50 / 1e3, "ms", builds.n);
        match build(&off) {
            Ok(mut probe) => crate::kernels::probe_all(&probe.target, &mut probe.ctx, &tracer, pl),
            Err(e) => out.tally.error(e),
        }
        pl.put("sim.realtime_factor", sim_s / host_floor_s, "ratio");
        pl.put(
            "trace.overhead_ratio",
            floor_sum(&traced_units[1..]) / floor_sum(&units[1..]),
            "ratio",
        );
        crate::write_trace(&tracer, "bon_functional", seed);
    }
    out.end_to_end.put("host_rss_mib", peak_rss_mib(), "MiB");
    out
}

fn mismatches(a: &[u32], b: &[u32]) -> usize {
    a.iter().zip(b).filter(|(x, y)| x != y).count() + a.len().abs_diff(b.len())
}

/// The functional prompt logits must agree with the f32 CPU reference
/// forward (cosine similarity above 0.99).
fn check_reference_logits(task: &MathTask, t: &mut Tally) {
    let result = (|| -> SimResult<f32> {
        let mut stack = build(&Tracer::new(false))?;
        let prompt = Tokenizer::new().encode_with_bos(&task.statement);
        let sess = DecodeSession::new(&mut stack.ctx, &stack.target, &prompt, 1, prompt.len() + 4)?;
        let npu = sess.prompt_logits().to_vec();
        sess.release(&mut stack.ctx);
        let vocab = stack.target.cfg.vocab;
        let reference = forward_reference(&stack.target.cfg, &stack.target.weights, &prompt);
        let last = &reference[(prompt.len() - 1) * vocab..];
        let dot: f32 = npu.iter().zip(last).map(|(a, b)| a * b).sum();
        let norm = |v: &[f32]| v.iter().map(|x| x * x).sum::<f32>().sqrt();
        Ok(dot / (norm(&npu) * norm(last)))
    })();
    match result {
        Ok(cos) => t.check(cos > 0.99, || {
            format!("prompt logits cosine {cos} vs the CPU reference")
        }),
        Err(e) => t.error(e),
    }
}

/// Sampled token streams at a fixed input must equal the recorded digest.
fn check_golden_digest(t: &mut Tally) {
    let task = &tasks(GOLDEN_SEED, 1)[0];
    let result =
        build(&Tracer::new(false)).and_then(|mut s| best_of_n(&mut s, task, 4, FULL, GOLDEN_SEED));
    match result {
        Ok(call) => t.check(call.digest == GOLDEN_DIGEST, || {
            format!(
                "sampled streams digest {:#018x}, recorded {GOLDEN_DIGEST:#018x}",
                call.digest
            )
        }),
        Err(e) => t.error(e),
    }
}

fn record_inputs(tasks: &[MathTask], rep: &Rep, m: &mut Metrics) {
    let (lo, hi) = range(rep.calls.iter().map(|c| c.prompt_tokens));
    m.put("input.tasks", tasks.len() as f64, "count");
    m.put("input.prompt_len_min", lo as f64, "tok");
    m.put("input.prompt_len_max", hi as f64, "tok");
    m.put("input.widths", WIDTHS.len() as f64, "count");
    let digest = rep
        .calls
        .iter()
        .fold(0u64, |h, c| h.rotate_left(7) ^ c.digest);
    // The top 52 bits fit a JSON number exactly.
    m.put("input.sampled_digest", (digest >> 12) as f64, "hash");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_separates_completions() {
        assert_ne!(
            digest(&["ab".into(), "c".into()]),
            digest(&["a".into(), "bc".into()])
        );
        assert_eq!(mismatches(&[1, 2, 3], &[1, 5, 3, 4]), 2);
    }

    #[test]
    fn smoke_run_at_minimal_size() {
        let size = Size {
            tasks: 1,
            new_tokens: 4,
            spec_tokens: 4,
        };
        let out = run(9, 0.0, true, size);
        assert!(out.tally.correct(), "{:?}", out.tally.failures);
        assert!(out.end_to_end.get("decode_tok_s").unwrap().value > 0.0);
        assert_eq!(out.per_layer.get("ttscale.samples").unwrap().value, 21.0);
        assert!(
            out.per_layer
                .get("kernels.gemm_mixed_sim_us")
                .unwrap()
                .value
                > 0.0
        );
    }
}
