//! `serve_bursty`: an open-loop bursty two-tenant trace through the fleet
//! gateway on the heterogeneous fleet (V79 and V75 resident, V73
//! streamed), with chunked prefill, thermal-aware dispatch, WFQ and
//! mid-stream preemption. Arrivals are simulated-time timestamps.

use edgellm::config::ModelId;
use edgellm::decode_session::DecodeSession;
use edgellm::overlap::{lane, steady_state_lane_utilization, steady_state_step_secs};
use hexsim::prelude::*;
use npuscale::serve::scheduler::plan_worker;
use npuscale::serve::{
    bursty_trace, merge_traces, BurstSpec, FleetGateway, FleetSpec, GatewayConfig,
    PreemptionPolicy, PrefillMode, Request, SchedulingPolicy, ServingReport, TenantSpec,
    ThermalPolicy,
};

use crate::deploy::{self, StageSums};
use crate::report::{calibrate, peak_rss_mib, repeat, speed_scale, time_setup, Metrics, Outcome};
use crate::stats::{floor, median, range, SplitMix, Summary};
use crate::trace::Tracer;

/// Workload size: requests per tenant and admission queue capacity.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    /// Requests of the interactive tenant.
    pub interactive: usize,
    /// Requests of the batch tenant.
    pub batch: usize,
    /// Admission queue capacity.
    pub queue_capacity: usize,
    /// KV slots per worker (the maximum decode batch).
    pub max_batch: usize,
    /// Decode steps replayed per worker in the traced run.
    pub replay_steps: usize,
}

/// The benchmark's size.
pub const FULL: Size = Size {
    interactive: 18,
    batch: 6,
    queue_capacity: 64,
    max_batch: 2,
    replay_steps: 24,
};

/// Gateway set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;

/// Calibration samples taken before each serving repetition.
const CALIBRATIONS_PER_REP: usize = 16;

/// Prompt tokens per chunked-prefill step.
const CHUNK_TOKENS: usize = 32;

/// Each tenant's arrival process: quiet stretches and bursts with 1 s and
/// 0.5 s mean dwell under a 60 s diurnal envelope of depth 0.3. Together
/// the two run at 2 req/s quiet and 24 req/s in bursts.
fn burst(tenant_share: f64) -> BurstSpec {
    BurstSpec {
        base_rps: 2.0 * tenant_share,
        burst_rps: 24.0 * tenant_share,
        mean_quiet_secs: 1.0,
        mean_burst_secs: 0.5,
        diurnal_period_secs: 60.0,
        diurnal_depth: 0.3,
    }
}

/// The tenants with their shares of the arrival rate.
fn tenants() -> [(TenantSpec, f64); 2] {
    [
        (TenantSpec::interactive("interactive"), 0.75),
        (TenantSpec::batch("batch"), 0.25),
    ]
}

/// The seeded trace: one independent bursty process per tenant, with a
/// fixed request count each, merged. Each tenant's prompt and output
/// lengths are then [`stratify`]d, so every seed serves the same work.
pub fn generate(seed: u64, size: Size) -> Vec<Request> {
    let [(chat, chat_share), (batch, batch_share)] = tenants();
    let mut chat_reqs = bursty_trace(
        std::slice::from_ref(&chat),
        &burst(chat_share),
        size.interactive,
        seed,
    );
    let mut batch_reqs = bursty_trace(
        std::slice::from_ref(&batch),
        &burst(batch_share),
        size.batch,
        seed ^ 0xBA7C,
    );
    stratify(&mut chat_reqs, &chat, seed);
    stratify(&mut batch_reqs, &batch, seed ^ 0xBA7C);
    merge_traces(&[chat_reqs, batch_reqs])
}

/// Replaces a tenant's drawn lengths with evenly spaced points of its
/// ranges, dealt out in a seeded order. Seeds then differ in when requests
/// arrive and which request is long, not in the total work, which would
/// otherwise move host time by tens of percent from seed to seed.
pub fn stratify(reqs: &mut [Request], tenant: &TenantSpec, seed: u64) {
    let n = reqs.len();
    let grid = |(lo, hi): (usize, usize)| -> Vec<usize> {
        (0..n)
            .map(|k| lo + (hi - lo) * (2 * k + 1) / (2 * n))
            .collect()
    };
    let mut rng = SplitMix(seed);
    let mut prompts = grid(tenant.prompt_lens);
    let mut outputs = grid(tenant.output_lens);
    rng.shuffle(&mut prompts);
    rng.shuffle(&mut outputs);
    for ((r, p), o) in reqs.iter_mut().zip(prompts).zip(outputs) {
        r.prompt_len = p;
        r.output_len = o;
    }
}

/// The heterogeneous fleet with `max_batch` KV slots per worker: scarce
/// slots make a few dozen requests queue and preempt.
fn fleet(size: Size) -> FleetSpec {
    let mut fleet = FleetSpec::heterogeneous(ModelId::Qwen1_5B);
    for w in &mut fleet.workers {
        w.max_batch = size.max_batch;
    }
    fleet
}

fn config(size: Size) -> GatewayConfig {
    GatewayConfig {
        queue_capacity: size.queue_capacity,
        prefill: PrefillMode::Chunked {
            chunk_tokens: CHUNK_TOKENS,
        },
        thermal: ThermalPolicy::Aware,
        scheduling: SchedulingPolicy::Wfq,
        preemption: PreemptionPolicy::Enabled,
        ..GatewayConfig::default()
    }
}

/// Metric-name label of fleet worker `i`.
fn worker_label(fleet: &FleetSpec, i: usize) -> String {
    let w = &fleet.workers[i];
    let arch = format!("{:?}", w.device.arch).to_lowercase();
    if w.streaming {
        format!("{arch}_streamed")
    } else {
        arch
    }
}

/// Runs the workload for `seconds` of measured host time.
pub fn run(seed: u64, seconds: f64, traced: bool, size: Size) -> Outcome {
    let mut out = Outcome::default();
    let trace_reqs = generate(seed, size);
    record_inputs(&trace_reqs, &mut out.inputs);

    let (setup_s, gw) = time_setup(SETUP_REPS, || FleetGateway::new(fleet(size), config(size)));
    let gw = match gw {
        Ok(gw) => gw,
        Err(e) => {
            out.tally.error(e);
            return out;
        }
    };

    let budget = if traced { seconds / 2.0 } else { seconds };
    let off = Tracer::new(false);
    let mut fingerprints = Vec::new();
    let (times, report) = repeat(budget, 1, || {
        for _ in 0..CALIBRATIONS_PER_REP {
            calibrate();
        }
        let r = serve(&gw, &trace_reqs, &off);
        fingerprints.push(format!("{r:?}"));
        r
    });
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            out.tally.error(e);
            return out;
        }
    };
    out.tally
        .check(fingerprints.windows(2).all(|w| w[0] == w[1]), || {
            "repeated serve runs of one trace disagree".to_string()
        });
    check(&report, &mut out);
    let host_s = median(&times);
    let scale = speed_scale();

    let steps: usize = report.workers.iter().map(|w| w.steps).sum();
    let m = &mut out.end_to_end;
    m.put_n("setup_s", setup_s, "s", SETUP_REPS);
    let host_floor_s = floor(&times) * scale;
    m.put_n("host_s", host_floor_s, "s", times.len());
    m.put_n("host.median_s", host_s, "s", times.len());
    m.put("host.floor_s", floor(&times), "s");
    m.put("host.speed_scale", scale, "ratio");
    m.put_n(
        "host_ms_per_step",
        host_floor_s * 1e3 / steps as f64,
        "ms",
        steps,
    );
    let completed_ttfts = report.tenants.iter().map(|t| t.completed).sum::<usize>();
    m.put_n("ttft_p50_s", report.ttft_p50_secs, "s", completed_ttfts);
    m.put_n("ttft_p99_s", report.ttft_p99_secs, "s", completed_ttfts);
    m.put_n("tbt_p50_s", report.tbt_p50_secs, "s", report.decoded_tokens);
    m.put_n("tbt_p99_s", report.tbt_p99_secs, "s", report.decoded_tokens);
    m.put_n("goodput_rps", report.goodput_rps, "req/s", report.requests);
    // Tokens per second of worker stepping: the fleet's decode rate while
    // it works. Over the makespan (`decode_tok_s.makespan`) the rate
    // follows where a seed's bursts fall.
    let busy_s: f64 = report.workers.iter().map(|w| w.busy_secs).sum();
    let tokens = report.decoded_tokens;
    m.put_n("decode_tok_s", tokens as f64 / busy_s, "tok/s", tokens);
    m.put_n(
        "decode_tok_s.makespan",
        report.tokens_per_sec,
        "tok/s",
        tokens,
    );
    m.put("fail_ratio", out.tally.fail_ratio(), "ratio");

    if traced {
        let tracer = Tracer::new(true);
        let (traced_times, traced) = repeat(budget, 1, || serve(&gw, &trace_reqs, &tracer));
        if let Err(e) = traced {
            out.tally.error(e);
        }
        let pl = &mut out.per_layer;
        per_layer_report(&report, size, pl);
        let serve_s = floor(&tracer.durations_us("gateway.serve_trace")) / 1e6;
        let host_us_per_step = serve_s * 1e6 / steps.max(1) as f64;
        pl.put_n("gateway.serve_trace_s", serve_s, "s", traced_times.len());
        pl.put("gateway.steps", steps as f64, "count");
        pl.put("gateway.host_us_per_step", host_us_per_step, "us");
        setup_layers(size, &tracer, pl);
        match replay(size, &report, &trace_reqs, &tracer, pl) {
            Ok(child_us_per_step) => pl.put(
                "gateway.self_us_per_step_est",
                host_us_per_step - child_us_per_step,
                "us",
            ),
            Err(e) => out.tally.error(e),
        }
        pl.put(
            "sim.realtime_factor",
            report.makespan_secs / host_floor_s,
            "ratio",
        );
        pl.put(
            "trace.overhead_ratio",
            floor(&traced_times) / floor(&times),
            "ratio",
        );
        crate::write_trace(&tracer, "serve_bursty", seed);
    }
    out.end_to_end.put("host_rss_mib", peak_rss_mib(), "MiB");
    out
}

fn serve(gw: &FleetGateway, reqs: &[Request], tracer: &Tracer) -> SimResult<ServingReport> {
    tracer.span("gateway.serve_trace", 0, || gw.serve_trace(reqs))
}

/// Output checks: conservation and per-tenant rows summing to totals.
fn check(r: &ServingReport, out: &mut Outcome) {
    let t = &mut out.tally;
    t.ops(r.requests as u64, (r.requests - r.completed) as u64);
    t.check(r.completed + r.rejected == r.requests, || {
        format!(
            "completed {} + rejected {} != requests {}",
            r.completed, r.rejected, r.requests
        )
    });
    let sum =
        |f: fn(&npuscale::serve::TenantReport) -> usize| r.tenants.iter().map(f).sum::<usize>();
    t.check(
        sum(|x| x.requests) == r.requests
            && sum(|x| x.completed) == r.completed
            && sum(|x| x.rejected) == r.rejected
            && sum(|x| x.slo_good) == r.slo_good,
        || "tenant rows do not sum to the fleet totals".to_string(),
    );
    let share: f64 = r.tenants.iter().map(|x| x.token_share).sum();
    t.check((share - 1.0).abs() < 1e-9, || {
        format!("tenant token shares sum to {share}")
    });
    let decoded: usize = r.workers.iter().map(|w| w.decoded_tokens).sum();
    t.check(decoded == r.decoded_tokens, || {
        "worker decode tokens do not sum to the fleet total".to_string()
    });
}

/// Properties of the generated trace.
fn record_inputs(reqs: &[Request], m: &mut Metrics) {
    let (plo, phi) = range(reqs.iter().map(|r| r.prompt_len));
    let (olo, ohi) = range(reqs.iter().map(|r| r.output_len));
    let last = reqs.iter().map(|r| r.arrival_secs).fold(0.0, f64::max);
    m.put("input.requests", reqs.len() as f64, "count");
    m.put("input.prompt_len_min", plo as f64, "tok");
    m.put("input.prompt_len_max", phi as f64, "tok");
    m.put("input.output_len_min", olo as f64, "tok");
    m.put("input.output_len_max", ohi as f64, "tok");
    m.put(
        "input.arrival_rps",
        reqs.len() as f64 / last.max(f64::MIN_POSITIVE),
        "req/s",
    );
    m.put(
        "input.burst_share",
        burst_share(reqs, &burst(1.0)),
        "fraction",
    );
    for (t, _) in tenants() {
        let n = reqs.iter().filter(|r| r.tenant == t.name).count();
        m.put(
            format!("input.tenant.{}.requests", t.name),
            n as f64,
            "count",
        );
    }
    // Arrivals are simulated-time stamps: the generator cannot run late.
    m.put("input.generator_lateness_s", 0.0, "s");
}

/// Share of requests that arrived inside a burst, estimated from the
/// arrivals alone: a request is in a burst when the arrivals within half a
/// second either side of it imply a rate above the geometric mean of the
/// quiet and burst rates.
pub fn burst_share(reqs: &[Request], spec: &BurstSpec) -> f64 {
    if reqs.is_empty() {
        return 0.0;
    }
    let mut t: Vec<f64> = reqs.iter().map(|r| r.arrival_secs).collect();
    t.sort_by(f64::total_cmp);
    let threshold = (spec.base_rps * spec.burst_rps).sqrt();
    let inside = t
        .iter()
        .filter(|&&a| {
            let lo = t.partition_point(|&x| x < a - 0.5);
            let hi = t.partition_point(|&x| x <= a + 0.5);
            (hi - lo) as f64 > threshold
        })
        .count();
    inside as f64 / t.len() as f64
}

/// Per-layer numbers the serving report itself carries.
fn per_layer_report(r: &ServingReport, size: Size, pl: &mut Metrics) {
    pl.put("scheduler.queue_wait_p50_s", r.queue_wait_p50_secs, "s");
    pl.put("scheduler.queue_wait_p99_s", r.queue_wait_p99_secs, "s");
    pl.put(
        "scheduler.peak_queue_depth",
        r.peak_queue_depth as f64,
        "count",
    );
    pl.put("scheduler.rejected", r.rejected as f64, "count");
    pl.put("scheduler.preemptions", r.preemptions as f64, "count");
    pl.put("scheduler.jain_fairness", r.jain_fairness, "ratio");
    for t in &r.tenants {
        pl.put(
            format!("tenant.{}.ttft_p99_s", t.name),
            t.ttft_p99_secs,
            "s",
        );
        pl.put(
            format!("tenant.{}.token_share", t.name),
            t.token_share,
            "fraction",
        );
    }
    let fleet = fleet(size);
    for (i, w) in r.workers.iter().enumerate() {
        let label = worker_label(&fleet, i);
        pl.put(
            format!("gateway.worker_util.{label}"),
            w.utilization,
            "fraction",
        );
        pl.put(
            format!("gateway.npu_lane_util.{label}"),
            w.npu_lane_utilization,
            "fraction",
        );
    }
    let throttled: usize = r.workers.iter().map(|w| w.throttled_steps).sum();
    let peak = r
        .workers
        .iter()
        .map(|w| w.peak_temp_c)
        .fold(f64::MIN, f64::max);
    pl.put("thermal.throttled_steps", throttled as f64, "count");
    pl.put("thermal.peak_temp_c", peak, "C");
}

/// Times the set-up layers one call at a time: each worker's dispatch
/// oracle (`plan_worker`), shard plan and model build.
fn setup_layers(size: Size, tracer: &Tracer, pl: &mut Metrics) {
    let fleet = fleet(size);
    for (i, w) in fleet.workers.iter().enumerate() {
        let _ = tracer.span("gateway.plan_worker", i as u64, || {
            plan_worker(fleet.model, w)
        });
    }
    let plan_ms: f64 = tracer
        .durations_us("gateway.plan_worker")
        .iter()
        .sum::<f64>()
        / 1e3;
    pl.put_n("gateway.plan_worker_ms", plan_ms, "ms", fleet.workers.len());
}

/// Replays the gateway's per-step child calls on each worker's own
/// deployment: prompt chunks, full-batch decode steps, and the two
/// overlap schedules the gateway runs per step. Records the decode,
/// overlap, stage and set-up layer metrics and returns the estimated
/// child host microseconds per gateway step.
fn replay(
    size: Size,
    r: &ServingReport,
    reqs: &[Request],
    tracer: &Tracer,
    pl: &mut Metrics,
) -> SimResult<f64> {
    let fleet = fleet(size);
    let total_steps: usize = r.workers.iter().map(|w| w.steps).sum::<usize>().max(1);
    let mut sums = StageSums::default();
    let mut child_us = 0.0;
    let mut chunk_us = Vec::new();
    for (i, w) in fleet.workers.iter().enumerate() {
        let id = i as u64;
        let mut dep = deploy::build(
            fleet.model,
            &w.device,
            w.streaming,
            w.max_batch,
            w.max_ctx,
            tracer,
            id,
        )?;
        let budget = w.max_batch * (w.max_ctx + 2);
        let model = &dep.model;
        let ctx = &mut dep.ctx;
        let mut sess = DecodeSession::new(ctx, model, &[0], w.max_batch, budget)?;
        let prompt = vec![1u32; 2 * CHUNK_TOKENS];
        for _ in 0..w.max_batch {
            sess.admit_prompt(&prompt, size.replay_steps + 2, CHUNK_TOKENS)?;
        }
        let first = tracer.spans().len();
        while sess.prefilling_count() > 0 {
            tracer.span("decode_session.prefill_chunk", id, || {
                sess.prefill_step(ctx, |_| 0)
            })?;
        }
        let mut cost_before = sess.decode_cost();
        for _ in 0..size.replay_steps {
            tracer.span("decode_session.step", id, || sess.step(ctx, |_, _| 0))?;
            let st = sess.last_step_stages().cloned().expect("a decode step ran");
            let period = tracer.span("overlap.price", id, || steady_state_step_secs(&st));
            tracer.span("overlap.lane_util", id, || {
                steady_state_lane_utilization(&st, lane::NPU)
            });
            let cost = sess.decode_cost();
            let step_cost = deploy::cost_delta(&cost, &cost_before);
            cost_before = cost;
            let weight = r.workers[i].steps as f64 / size.replay_steps as f64;
            sums.add(
                weight,
                deploy::stage_secs(&step_cost, &st),
                period,
                deploy::lane_utils(&st),
            );
        }
        sess.release(ctx);
        let spans = tracer.spans();
        let mine = &spans[first..];
        let fastest = |name: &str| {
            let us: Vec<f64> = mine
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.dur_ns() as f64 / 1e3)
                .collect();
            floor(&us)
        };
        chunk_us.push(fastest("decode_session.prefill_chunk"));
        let per_step = fastest("decode_session.step")
            + fastest("overlap.price")
            + fastest("overlap.lane_util");
        child_us += r.workers[i].steps as f64 / total_steps as f64 * per_step;
    }
    // Prompt chunks ride gateway steps: one per 32 prompt tokens served.
    let chunks: usize = reqs
        .iter()
        .map(|q| q.prompt_len.div_ceil(CHUNK_TOKENS))
        .sum::<usize>()
        * r.completed
        / r.requests.max(1);
    child_us += chunks as f64 / total_steps as f64 * floor(&chunk_us);

    let steps = Summary::of(&tracer.durations_us("decode_session.step"));
    pl.put_summary("decode_session.step_us", "", steps, 1.0, "us");
    pl.put("decode_session.steps", steps.n as f64, "count");
    let chunk = Summary::of(&tracer.durations_us("decode_session.prefill_chunk"));
    pl.put_n("decode_session.prefill_ms", chunk.p50 / 1e3, "ms", chunk.n);
    let price = Summary::of(&tracer.durations_us("overlap.price"));
    pl.put_summary("overlap.price_us", "", price, 1.0, "us");
    sums.report(pl);
    let plans = Summary::of(&tracer.durations_us("session.shard_plan"));
    pl.put_n("session.shard_plan_us", plans.p50, "us", plans.n);
    let builds = Summary::of(&tracer.durations_us("model.build"));
    pl.put_n("model.build_ms", builds.p50 / 1e3, "ms", builds.n);
    Ok(child_us)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_share_separates_dense_from_sparse_arrivals() {
        let spec = burst(1.0);
        let tenant = TenantSpec::interactive("interactive");
        // Ten arrivals within 0.3 s, then five spread 2 s apart.
        let mut points: Vec<(f64, usize, usize)> =
            (0..10).map(|i| (i as f64 * 0.03, 32, 4)).collect();
        points.extend((0..5).map(|i| (10.0 + i as f64 * 2.0, 32, 4)));
        let reqs = npuscale::serve::replay_trace(&tenant, &points);
        assert!((burst_share(&reqs, &spec) - 10.0 / 15.0).abs() < 1e-12);
    }

    #[test]
    fn stratified_lengths_hold_the_work_fixed() {
        let size = FULL;
        let total = |seed| {
            generate(seed, size)
                .iter()
                .map(|r| (r.prompt_len, r.output_len))
                .fold((0, 0), |(p, o), (a, b)| (p + a, o + b))
        };
        assert_eq!(total(1), total(2));
        let (a, b) = (generate(1, size), generate(2, size));
        assert_ne!(
            a.iter().map(|r| r.prompt_len).collect::<Vec<_>>(),
            b.iter().map(|r| r.prompt_len).collect::<Vec<_>>()
        );
        assert!(a
            .iter()
            .all(|r| r.output_len <= r.max_new && r.output_len >= 1));
    }

    #[test]
    fn smoke_run_at_minimal_size() {
        let size = Size {
            interactive: 3,
            batch: 1,
            queue_capacity: 8,
            max_batch: 2,
            replay_steps: 2,
        };
        let out = run(7, 0.0, true, size);
        assert!(out.tally.correct(), "{:?}", out.tally.failures);
        assert_eq!(out.tally.attempted, 4);
        assert!(out.end_to_end.get("host_s").unwrap().value > 0.0);
        assert!(out.per_layer.get("gateway.steps").unwrap().value > 0.0);
        assert!(
            out.per_layer
                .get("decode_session.step_us_p50")
                .unwrap()
                .value
                > 0.0
        );
    }
}
