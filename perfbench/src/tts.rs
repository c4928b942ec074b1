//! `tts_decode`: paper-scale test-time-scaling decode in cost-only mode
//! through `DecodeSession`, no gateway. Each configuration prefills one
//! shared prompt, then decodes N samples; samples retire at seeded EOS
//! points, except sample 0, which is budget-capped so every configuration
//! runs exactly `budget` decode steps whatever the seed.

use std::time::Instant;

use edgellm::config::ModelId;
use edgellm::decode_session::DecodeSession;
use edgellm::overlap::{steady_state_step_secs, StepStages};
use hexsim::prelude::*;
use npuscale::backend::{Backend, NpuSimBackend};

use crate::deploy::{self, Deployment, StageSums};
use crate::json::Json;
use crate::report::{
    calibrate, peak_rss_mib, repeat, speed_scale, time_setup, timed, Metrics, Outcome, Tally,
};
use crate::stats::{floor_sum, median, range, SplitMix, Summary};
use crate::trace::Tracer;

/// One deployment and batch of the sweep.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Label used in messages.
    pub label: &'static str,
    /// Model served.
    pub model: ModelId,
    /// Device architecture.
    pub arch: NpuArch,
    /// Hot/cold weight-streaming plan instead of a resident one.
    pub streaming: bool,
    /// Samples decoded together (Best-of-N width).
    pub n: usize,
    /// NPU sessions the plan must span.
    pub sessions: usize,
}

/// The sweep: Qwen-1.5B resident on V75 at N = 1, 8, 16; Qwen-3B sharded
/// across two sessions on V73; Qwen-7B streamed in one session on V73.
pub const CONFIGS: [Config; 5] = [
    Config {
        label: "v75 qwen1.5b n1",
        model: ModelId::Qwen1_5B,
        arch: NpuArch::V75,
        streaming: false,
        n: 1,
        sessions: 1,
    },
    Config {
        label: "v75 qwen1.5b n8",
        model: ModelId::Qwen1_5B,
        arch: NpuArch::V75,
        streaming: false,
        n: 8,
        sessions: 1,
    },
    Config {
        label: "v75 qwen1.5b n16",
        model: ModelId::Qwen1_5B,
        arch: NpuArch::V75,
        streaming: false,
        n: 16,
        sessions: 1,
    },
    Config {
        label: "v73 qwen3b n8 sharded",
        model: ModelId::Qwen3B,
        arch: NpuArch::V73,
        streaming: false,
        n: 8,
        sessions: 2,
    },
    Config {
        label: "v73 qwen7b n8 streamed",
        model: ModelId::Qwen7B,
        arch: NpuArch::V73,
        streaming: true,
        n: 8,
        sessions: 1,
    },
];

/// Workload size.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    /// Shared prompt tokens prefilled once per configuration.
    pub prompt_tokens: usize,
    /// Decode budget per sample; the budget-capped sample runs all of it.
    pub budget: usize,
    /// How many of [`CONFIGS`] to run, in order.
    pub configs: usize,
}

/// The benchmark's size.
pub const FULL: Size = Size {
    prompt_tokens: 256,
    budget: 64,
    configs: CONFIGS.len(),
};

/// Deployment set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 21;

/// Context length every plan is sized for, matching `BENCH_decode.json`.
const PLAN_CTX: usize = 1024;

fn device(arch: NpuArch) -> DeviceProfile {
    match arch {
        NpuArch::V73 => DeviceProfile::v73(),
        NpuArch::V75 => DeviceProfile::v75(),
        NpuArch::V79 => DeviceProfile::v79(),
    }
}

/// Realized output lengths (first token included) per configuration:
/// sample 0 runs to the budget, the others stop in `[budget/4, budget]`.
pub fn realized_lengths(seed: u64, size: Size) -> Vec<Vec<usize>> {
    let mut rng = SplitMix(seed);
    CONFIGS[..size.configs]
        .iter()
        .map(|c| {
            (0..c.n)
                .map(|i| {
                    if i == 0 {
                        size.budget
                    } else {
                        rng.range((size.budget / 4).max(2), size.budget)
                    }
                })
                .collect()
        })
        .collect()
}

/// What one configuration's decode produced, in simulated time.
#[derive(Clone, Debug, Default, PartialEq)]
struct ConfigRun {
    prefill_secs: f64,
    decode_secs: f64,
    decoded_tokens: usize,
    steps: usize,
    /// Overlapped period of every decode step, with the tokens it emitted.
    periods: Vec<(f64, usize)>,
    /// Stage breakdown of every step (kept in traced runs only).
    stages: Vec<([f64; 8], StepStages)>,
}

/// Decodes one configuration: shared prefill, N samples, EOS retirement.
/// Pushes the host seconds of the prefill and of every step to `units`.
#[allow(clippy::too_many_arguments)]
fn decode_config(
    dep: &mut Deployment,
    prompt: &[u32],
    lens: &[usize],
    size: Size,
    tracer: &Tracer,
    id: u64,
    tally: &mut Tally,
    units: &mut Vec<f64>,
) -> SimResult<ConfigRun> {
    let n = lens.len();
    let kv_budget = n * (prompt.len() + size.budget + 2) + prompt.len();
    let Deployment { ctx, model, .. } = dep;
    let mut sess = timed(units, || {
        tracer.span("decode_session.prefill", id, || {
            DecodeSession::new(ctx, model, prompt, n, kv_budget)
        })
    })?;
    let mut run = ConfigRun {
        prefill_secs: sess.prefill_cost().overlapped_secs,
        ..ConfigRun::default()
    };
    let mut target = Vec::with_capacity(n);
    for &len in lens {
        let id = sess.admit(0, size.budget)?;
        target.push((id, len, 1usize));
    }
    let mut before = sess.decode_cost();
    while sess.active_count() > 0 {
        calibrate();
        let t0 = Instant::now();
        let emitted = tracer.span("decode_session.step", id, || sess.step(ctx, |_, _| 0))?;
        let after = sess.decode_cost();
        let cost = deploy::cost_delta(&after, &before);
        before = after;
        let st = sess.last_step_stages().cloned().expect("a decode step ran");
        let period = tracer.span("overlap.price", id, || steady_state_step_secs(&st));
        let tol = 1e-9 * cost.wall_secs();
        tally.check(cost.overlapped_secs <= cost.wall_secs() + tol, || {
            format!(
                "step overlapped {} s exceeds serial {} s",
                cost.overlapped_secs,
                cost.wall_secs()
            )
        });
        tally.check((period - cost.overlapped_secs).abs() <= tol, || {
            format!(
                "re-priced period {period} s differs from the step's {} s",
                cost.overlapped_secs
            )
        });
        for (sid, _) in &emitted {
            let t = target
                .iter_mut()
                .find(|t| t.0 == *sid)
                .expect("admitted id");
            t.2 += 1;
            if t.2 == t.1 && t.1 < size.budget {
                sess.retire(*sid)?;
            }
        }
        run.steps += 1;
        run.decoded_tokens += emitted.len();
        run.decode_secs += cost.overlapped_secs;
        run.periods.push((cost.overlapped_secs, emitted.len()));
        if tracer.enabled() {
            run.stages.push((deploy::stage_secs(&cost, &st), st));
        }
        units.push(t0.elapsed().as_secs_f64());
    }
    sess.release(ctx);
    Ok(run)
}

/// Builds every configuration's deployment.
fn build_all(size: Size, tracer: &Tracer) -> SimResult<Vec<Deployment>> {
    CONFIGS[..size.configs]
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let max_batch = c.n;
            deploy::build(
                c.model,
                &device(c.arch),
                c.streaming,
                max_batch,
                PLAN_CTX,
                tracer,
                i as u64,
            )
        })
        .collect()
}

/// One repetition: builds fresh deployments, then decodes every
/// configuration in order. Deployments are not reused: a context's cost
/// accumulator carries its running totals into later charges' last bits,
/// so only fresh contexts make the simulated numbers repeat exactly.
fn rep(
    prompt: &[u32],
    lens: &[Vec<usize>],
    size: Size,
    tracer: &Tracer,
    tally: &mut Tally,
    units: &mut Vec<f64>,
) -> SimResult<Vec<ConfigRun>> {
    let mut deps = timed(units, || build_all(size, tracer))?;
    deps.iter_mut()
        .zip(lens)
        .enumerate()
        .map(|(i, (dep, l))| decode_config(dep, prompt, l, size, tracer, i as u64, tally, units))
        .collect()
}

/// Runs the workload for `seconds` of measured host time.
pub fn run(seed: u64, seconds: f64, traced: bool, size: Size) -> Outcome {
    let mut out = Outcome::default();
    let lens = realized_lengths(seed, size);
    let prompt: Vec<u32> = (0..size.prompt_tokens as u32)
        .map(|t| 1 + t % 1000)
        .collect();
    let off = Tracer::new(false);
    let (setup_s, deps) = time_setup(SETUP_REPS, || build_all(size, &off));
    let deps = match deps {
        Ok(d) => d,
        Err(e) => {
            out.tally.error(e);
            return out;
        }
    };
    for (dep, c) in deps.iter().zip(&CONFIGS) {
        out.tally.check(
            dep.sessions == c.sessions && dep.streamed == c.streaming,
            || {
                format!(
                    "{}: planned {} sessions (streamed {}), expected {}",
                    c.label, dep.sessions, dep.streamed, c.sessions
                )
            },
        );
    }

    let budget = if traced { seconds / 2.0 } else { seconds };
    // Output checks of the last repetition count; earlier ones repeat them.
    let mut checks = Tally::default();
    let mut fingerprints = Vec::new();
    let mut units = Vec::new();
    let (times, runs) = repeat(budget, 1, || {
        checks = Tally::default();
        let mut u = Vec::new();
        let r = rep(&prompt, &lens, size, &off, &mut checks, &mut u);
        fingerprints.push(format!("{r:?}"));
        units.push(u);
        r
    });
    out.tally.failed += checks.failed;
    out.tally.failures.extend(checks.failures);
    let runs = match runs {
        Ok(r) => r,
        Err(e) => {
            out.tally.error(e);
            return out;
        }
    };
    out.tally
        .check(fingerprints.windows(2).all(|w| w[0] == w[1]), || {
            "repeated decode sweeps disagree".to_string()
        });
    let steps: usize = runs.iter().map(|r| r.steps).sum();
    out.tally.ops((runs.len() + steps) as u64, 0);
    check_against_artifact(size, &mut out.tally);
    record_inputs(&lens, &runs, size, &mut out.inputs);

    let host_s = median(&times);
    let scale = speed_scale();
    let sim_s: f64 = runs.iter().map(|r| r.prefill_secs + r.decode_secs).sum();
    let m = &mut out.end_to_end;
    m.put_n("setup_s", setup_s, "s", SETUP_REPS);

    let forwards = runs.len() + steps;
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
    let ttfts: Vec<f64> = runs
        .iter()
        .zip(&lens)
        .flat_map(|(r, l)| std::iter::repeat_n(r.prefill_secs, l.len()))
        .collect();
    m.put_summary("ttft", "_s", Summary::of(&ttfts), 1.0, "s");
    let tbts: Vec<f64> = runs
        .iter()
        .flat_map(|r| {
            r.periods
                .iter()
                .flat_map(|&(p, k)| std::iter::repeat_n(p, k))
        })
        .collect();
    m.put_summary("tbt", "_s", Summary::of(&tbts), 1.0, "s");
    let tokens: usize = runs.iter().map(|r| r.decoded_tokens).sum();
    let decode_s: f64 = runs.iter().map(|r| r.decode_secs).sum();
    m.put_n("decode_tok_s", tokens as f64 / decode_s, "tok/s", tokens);
    let prefill_s: f64 = runs.iter().map(|r| r.prefill_secs).sum();
    m.put_n(
        "prefill_tok_s",
        (runs.len() * size.prompt_tokens) as f64 / prefill_s,
        "tok/s",
        runs.len(),
    );
    let answers: Vec<f64> = runs
        .iter()
        .map(|r| r.prefill_secs + r.decode_secs)
        .collect();
    m.put_n("answer_latency_s", median(&answers), "s", answers.len());
    m.put("fail_ratio", out.tally.fail_ratio(), "ratio");

    if traced {
        let tracer = Tracer::new(true);
        let mut traced_units = Vec::new();
        let (_, traced_runs) = repeat(budget, 1, || {
            let mut u = Vec::new();
            let r = rep(&prompt, &lens, size, &tracer, &mut Tally::default(), &mut u);
            traced_units.push(u);
            r
        });
        let traced_runs = match traced_runs {
            Ok(r) => r,
            Err(e) => {
                out.tally.error(e);
                Vec::new()
            }
        };
        let pl = &mut out.per_layer;
        let step = Summary::of(&tracer.durations_us("decode_session.step"));
        pl.put_summary("decode_session.step_us", "", step, 1.0, "us");
        pl.put("decode_session.steps", steps as f64, "count");
        let prefill = Summary::of(&tracer.durations_us("decode_session.prefill"));
        pl.put_n(
            "decode_session.prefill_ms",
            prefill.p50 / 1e3,
            "ms",
            prefill.n,
        );
        let price = Summary::of(&tracer.durations_us("overlap.price"));
        pl.put_summary("overlap.price_us", "", price, 1.0, "us");
        let mut sums = StageSums::default();
        for r in &traced_runs {
            for ((stages, st), &(period, _)) in r.stages.iter().zip(&r.periods) {
                sums.add(1.0, *stages, period, deploy::lane_utils(st));
            }
        }
        sums.report(pl);
        let plans = Summary::of(&tracer.durations_us("session.shard_plan"));
        pl.put_n("session.shard_plan_us", plans.p50, "us", plans.n);
        let builds = Summary::of(&tracer.durations_us("model.build"));
        pl.put_n("model.build_ms", builds.p50 / 1e3, "ms", builds.n);
        pl.put("sim.realtime_factor", sim_s / host_floor_s, "ratio");
        pl.put(
            "trace.overhead_ratio",
            floor_sum(&traced_units[1..]) / floor_sum(&units[1..]),
            "ratio",
        );
        crate::write_trace(&tracer, "tts_decode", seed);
    }
    out.end_to_end.put("host_rss_mib", peak_rss_mib(), "MiB");
    out
}

/// `Backend::decode` at ctx 1024 must reproduce the committed
/// `BENCH_decode.json` rows for the swept deployments bit for bit.
fn check_against_artifact(size: Size, tally: &mut Tally) {
    let doc = match std::fs::read_to_string(crate::repo_file("BENCH_decode.json"))
        .map_err(|e| e.to_string())
        .and_then(|t| Json::parse(&t))
    {
        Ok(d) => d,
        Err(e) => {
            tally.check(false, || format!("reading BENCH_decode.json: {e}"));
            return;
        }
    };
    let rows = |key: &str| {
        doc.get(key)
            .and_then(Json::as_array)
            .unwrap_or(&[])
            .to_vec()
    };
    let (rows, stream_rows) = (rows("rows"), rows("streaming_rows"));
    for c in &CONFIGS[..size.configs] {
        let dev = device(c.arch);
        let soc = c.arch.soc_label();
        let model = c.model.label();
        let matches = |r: &Json| {
            r.get("device").and_then(Json::as_str) == Some(soc)
                && r.get("model").and_then(Json::as_str) == Some(model)
                && r.get("batch").and_then(Json::as_f64) == Some(c.n as f64)
                && r.get("ctx_len").and_then(Json::as_f64) == Some(PLAN_CTX as f64)
        };
        let (backend, row, field) = if c.streaming {
            (
                NpuSimBackend::streamed(dev),
                stream_rows.iter().find(|r| matches(r)),
                "streamed_tps",
            )
        } else {
            (
                NpuSimBackend::overlapped(dev),
                rows.iter().find(|r| matches(r)),
                "overlapped_tps",
            )
        };
        let Some(expected) = row.and_then(|r| r.get(field)).and_then(Json::as_f64) else {
            continue; // no committed row for this deployment
        };
        match backend.decode(c.model, c.n, PLAN_CTX) {
            Ok(p) => tally.check(p.tokens_per_sec.to_bits() == expected.to_bits(), || {
                format!(
                    "{}: Backend::decode gives {} tok/s, BENCH_decode.json has {expected}",
                    c.label, p.tokens_per_sec
                )
            }),
            Err(e) => tally.error(e),
        }
    }
}

fn record_inputs(lens: &[Vec<usize>], runs: &[ConfigRun], size: Size, m: &mut Metrics) {
    let (lo, hi) = range(lens.iter().flatten().copied());
    m.put("input.configs", lens.len() as f64, "count");
    m.put(
        "input.samples",
        lens.iter().map(Vec::len).sum::<usize>() as f64,
        "count",
    );
    m.put("input.prompt_len", size.prompt_tokens as f64, "tok");
    m.put("input.output_len_min", lo as f64, "tok");
    m.put("input.output_len_max", hi as f64, "tok");
    let steps: usize = runs.iter().map(|r| r.steps).sum();
    let share = |pick: fn(&Config) -> bool| {
        runs.iter()
            .zip(&CONFIGS)
            .filter(|(_, c)| pick(c))
            .map(|(r, _)| r.steps)
            .sum::<usize>() as f64
            / steps.max(1) as f64
    };
    m.put(
        "input.sharded_step_share",
        share(|c| c.sessions > 1),
        "fraction",
    );
    m.put(
        "input.streamed_step_share",
        share(|c| c.streaming),
        "fraction",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lengths_are_seeded_and_budget_capped() {
        let a = realized_lengths(3, FULL);
        assert_eq!(a, realized_lengths(3, FULL));
        assert_ne!(a, realized_lengths(4, FULL));
        for (l, c) in a.iter().zip(&CONFIGS) {
            assert_eq!(l.len(), c.n);
            assert_eq!(l[0], FULL.budget);
            assert!(l
                .iter()
                .all(|&x| (FULL.budget / 4..=FULL.budget).contains(&x)));
        }
    }

    #[test]
    fn smoke_run_at_minimal_size() {
        let size = Size {
            prompt_tokens: 8,
            budget: 4,
            configs: 2,
        };
        let out = run(5, 0.0, true, size);
        assert!(out.tally.correct(), "{:?}", out.tally.failures);
        // Two prefills plus three decode steps each: the admission token
        // is the first of the budget's four.
        assert_eq!(out.tally.attempted, 2 + 2 * 3);
        assert!(out.end_to_end.get("decode_tok_s").unwrap().value > 0.0);
        assert_eq!(
            out.per_layer.get("decode_session.steps").unwrap().value,
            6.0
        );
    }
}
