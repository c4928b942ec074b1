//! Fleet-scale serving simulation: the `npuscale::serve` gateway driving
//! seeded arrival traces through `DecodeSession`s on simulated device
//! fleets, with the three serving claims CI-gated on every push:
//!
//! 1. **Chunked prefill bounds time-between-tokens.** While a long-prompt
//!    tenant is admitted mid-run, interleaved chunked prefill keeps the
//!    p99 TBT within 2x of the no-arrivals steady-state decode step;
//!    monolithic prefill stalls running decodes for the whole prompt.
//! 2. **EOS-driven retirement raises goodput.** Retiring each request at
//!    its realized output length (and re-admitting from the queue)
//!    outperforms fixed-budget serving on the same mixed-length trace —
//!    shown both at the gateway level (same arrivals, full budgets) and
//!    at the functional policy level (`ttscale::llm_serve_eos` vs
//!    `llm_bon_fixed_batch` on the tiny model).
//! 3. **A heterogeneous fleet absorbs overload no single device can.**
//!    Under a 12 req/s burst, a lone streamed 8 Gen 2 sheds load through
//!    the bounded admission queue; the V73/V75/V79 fleet (streamed plan
//!    included) rejects less and completes more.
//! 4. **Preemption cuts interactive tail latency.** When a bursty
//!    interactive stream lands on a worker saturated by long batch
//!    decodes, pausing batch KV mid-stream (snapshot, serve the burst,
//!    resume bit-identically) cuts the interactive tenant's p99 TTFT by
//!    at least 1.3x with zero lost completions.
//! 5. **WFQ stops priority starvation.** Under a high-priority flood on
//!    a capacity-starved worker, weighted fair queueing keeps the
//!    low-priority tenant's token share at least 2x its strict-priority
//!    share and at least its weight share (from the tenant specs), and
//!    raises the fleet's Jain fairness index.
//!
//! Writes the machine-readable `BENCH_serving.json` and, through
//! `benchutil::gate`, **fails the process** if any claim regresses —
//! including absolute pins on p99 TTFT and goodput for the mixed-tenant
//! trace. Every trace is seeded, so the gate is deterministic.
//!
//! Run with: `cargo run --release --example serving_sim`

use benchutil::gate::Gate;
use benchutil::json::Json;
use npuscale::serve::{
    bursty_trace, merge_traces, poisson_trace, replay_trace, BurstSpec, FleetGateway, FleetSpec,
    GatewayConfig, PreemptionPolicy, PrefillMode, Request, SchedulingPolicy, ServingReport,
    TenantSpec, WorkerSpec,
};
use npuscale_repro::prelude::*;
use ttscale::llm_policy::{llm_bon_fixed_batch, llm_serve_eos, ServeEosConfig};

/// Seed for every stochastic trace in this run (the CI gate relies on it).
const SEED: u64 = 20260808;

/// Claim 1's bound: chunked prefill's p99 TBT over the steady-state step.
const TBT_OVER_STEADY_MAX: f64 = 2.0;

/// Claim 2's functional floor: EOS over fixed-batch useful tok/s.
const FN_EOS_RATIO_MIN: f64 = 1.1;

/// Pinned absolute thresholds for the mixed-tenant EOS run (claim 2's
/// gateway half). Measured 0.741 s p99 TTFT and 2.37 SLO-good req/s at
/// the pinned seed; fail well before the numbers drift user-visible.
const TTFT_P99_MAX_SECS: f64 = 1.0;
const GOODPUT_MIN_RPS: f64 = 1.8;

/// Claim 4's pin: preemption must cut the interactive tenant's p99 TTFT
/// by at least this factor on the burst-over-batch trace.
const PREEMPT_TTFT_GAIN_MIN: f64 = 1.3;

/// Claim 5's pin: the starved tenant's WFQ token share must be at least
/// this multiple of its strict-priority share.
const WFQ_SHARE_GAIN_MIN: f64 = 2.0;

fn main() {
    let mut gate = Gate::default();
    let chunked_json = chunked_prefill_section(&mut gate);
    let eos_json = eos_goodput_section(&mut gate);
    let fleet_json = fleet_section(&mut gate);
    let preempt_json = preemption_section(&mut gate);
    let fairness_json = fairness_section(&mut gate);

    let artifact = Json::obj([
        ("bench", Json::str("serving_gateway")),
        (
            "description",
            Json::str(
                "npuscale::serve fleet gateway: chunked-prefill TBT bound, \
                 EOS-retirement goodput win, heterogeneous-fleet overload \
                 absorption, mid-stream KV preemption TTFT win, WFQ \
                 anti-starvation; regenerated by `cargo run --release \
                 --example serving_sim` (seeded, deterministic)",
            ),
        ),
        ("seed", Json::from(SEED as usize)),
        ("chunked_prefill", chunked_json),
        ("eos_goodput", eos_json),
        ("fleet", fleet_json),
        ("preemption", preempt_json),
        ("fairness", fairness_json),
    ]);
    benchutil::json::write_file("BENCH_serving.json", &artifact)
        .expect("writing BENCH_serving.json");
    println!("\nWrote BENCH_serving.json.");
    gate.finish("serving gateway regression gate tripped");
}

fn print_report(tag: &str, r: &ServingReport) {
    println!(
        "{tag:<12} done {:>2}/{:<2} rej {:>2} | ttft p50/p99 {:>6.3}/{:>6.3} s | \
         tbt p50/p99 {:>6.3}/{:>6.3} s | goodput {:>5.2} req/s | {:>6.1} tok/s",
        r.completed,
        r.requests,
        r.rejected,
        r.ttft_p50_secs,
        r.ttft_p99_secs,
        r.tbt_p50_secs,
        r.tbt_p99_secs,
        r.goodput_rps,
        r.tokens_per_sec
    );
}

fn report_json(r: &ServingReport) -> Json {
    Json::obj([
        ("requests", Json::from(r.requests)),
        ("completed", Json::from(r.completed)),
        ("rejected", Json::from(r.rejected)),
        ("makespan_secs", Json::Num(r.makespan_secs)),
        ("ttft_p50_secs", Json::Num(r.ttft_p50_secs)),
        ("ttft_p99_secs", Json::Num(r.ttft_p99_secs)),
        ("tbt_p50_secs", Json::Num(r.tbt_p50_secs)),
        ("tbt_p99_secs", Json::Num(r.tbt_p99_secs)),
        ("queue_wait_p99_secs", Json::Num(r.queue_wait_p99_secs)),
        ("peak_queue_depth", Json::from(r.peak_queue_depth)),
        ("slo_good", Json::from(r.slo_good)),
        ("goodput_rps", Json::Num(r.goodput_rps)),
        ("tokens_per_sec", Json::Num(r.tokens_per_sec)),
        ("jain_fairness", Json::Num(r.jain_fairness)),
        ("preemptions", Json::from(r.preemptions)),
    ])
}

/// Per-tenant token-share/TTFT rows for the fairness-facing sections.
fn tenant_json(r: &ServingReport) -> Json {
    let rows: Vec<Json> = r
        .tenants
        .iter()
        .map(|t| {
            Json::obj([
                ("name", Json::str(t.name.clone())),
                ("completed", Json::from(t.completed)),
                ("served_tokens", Json::from(t.served_tokens as usize)),
                ("token_share", Json::Num(t.token_share)),
                ("ttft_p99_secs", Json::Num(t.ttft_p99_secs)),
            ])
        })
        .collect();
    Json::Arr(rows)
}

/// Claim 1: chunked prefill keeps p99 TBT within 2x of the no-arrivals
/// steady state while 512/448-token prompts land mid-run; monolithic
/// prefill is strictly worse.
fn chunked_prefill_section(gate: &mut Gate) -> Json {
    println!("=== Chunked prefill vs monolithic (single V75, Qwen-1.5B) ===");
    let tenant = TenantSpec {
        name: "mixed".into(),
        priority: 1,
        weight: 1.0,
        prompt_lens: (64, 512),
        output_lens: (4, 16),
    };
    // Four short interactive decodes running, then two long prompts
    // arrive mid-decode — the TTFT-vs-TBT collision the interleave solves.
    let trace = replay_trace(
        &tenant,
        &[
            (0.0, 64, 16),
            (0.0, 64, 16),
            (0.0, 64, 16),
            (0.0, 64, 16),
            (0.4, 512, 16),
            (0.8, 448, 16),
        ],
    );
    let fleet = || FleetSpec::single(ModelId::Qwen1_5B, DeviceProfile::v75(), false);
    let run = |prefill: PrefillMode| {
        let gw = FleetGateway::new(
            fleet(),
            GatewayConfig {
                queue_capacity: 8,
                prefill,
                ..GatewayConfig::default()
            },
        )
        .expect("fleet must plan");
        gw.serve_trace(&trace).expect("trace must serve")
    };
    let gw = FleetGateway::new(fleet(), GatewayConfig::default()).expect("fleet must plan");
    let steady_step = gw.oracles()[0].decode_step_secs;
    let chunked = run(PrefillMode::Chunked { chunk_tokens: 32 });
    let mono = run(PrefillMode::Monolithic);
    print_report("chunked", &chunked);
    print_report("monolithic", &mono);
    let ratio = chunked.tbt_p99_secs / steady_step;
    println!(
        "steady-state decode step {:.4} s; chunked p99 TBT = {:.2}x steady, \
         monolithic = {:.2}x",
        steady_step,
        ratio,
        mono.tbt_p99_secs / steady_step
    );
    gate.fail_if(ratio > TBT_OVER_STEADY_MAX, || {
        format!("chunked p99 TBT {ratio:.2}x exceeds {TBT_OVER_STEADY_MAX}x steady state")
    });
    gate.fail_if(mono.tbt_p99_secs <= chunked.tbt_p99_secs, || {
        "monolithic prefill no longer stalls worse than chunked"
    });
    Json::obj([
        ("steady_step_secs", Json::Num(steady_step)),
        ("tbt_p99_over_steady", Json::Num(ratio)),
        ("chunked", report_json(&chunked)),
        ("monolithic", report_json(&mono)),
    ])
}

/// Claim 2: EOS-driven retirement + re-admission beats fixed-budget
/// serving on a mixed-length trace, at the gateway and at the functional
/// policy layer.
fn eos_goodput_section(gate: &mut Gate) -> Json {
    println!("\n=== EOS retirement vs fixed budgets (mixed-tenant trace) ===");
    let tenants = [TenantSpec::interactive("chat"), TenantSpec::batch("batch")];
    let trace = poisson_trace(&tenants, 2.0, 16, SEED);
    // Fixed-budget serving: same arrivals, but every request decodes its
    // full token budget (a static deployment cannot stop at EOS).
    let fixed_trace: Vec<Request> = trace
        .iter()
        .cloned()
        .map(|mut r| {
            r.output_len = r.max_new;
            r
        })
        .collect();
    let gw = FleetGateway::new(
        FleetSpec::single(ModelId::Qwen1_5B, DeviceProfile::v75(), false),
        GatewayConfig::default(),
    )
    .expect("fleet must plan");
    let eos = gw.serve_trace(&trace).expect("trace must serve");
    let fixed = gw.serve_trace(&fixed_trace).expect("trace must serve");
    print_report("eos-retire", &eos);
    print_report("fixed", &fixed);
    gate.fail_if(eos.goodput_rps <= fixed.goodput_rps, || {
        "EOS retirement no longer beats fixed budgets on goodput"
    });
    gate.fail_if(eos.ttft_p99_secs > TTFT_P99_MAX_SECS, || {
        format!(
            "p99 TTFT {:.3} s exceeds the pinned {:.3} s",
            eos.ttft_p99_secs, TTFT_P99_MAX_SECS
        )
    });
    gate.fail_if(eos.goodput_rps < GOODPUT_MIN_RPS, || {
        format!(
            "goodput {:.3} req/s below the pinned {:.3}",
            eos.goodput_rps, GOODPUT_MIN_RPS
        )
    });

    // The same claim with real tokens: functional tiny-model serving
    // where an EOS predicate realizes the lengths, vs static waves.
    let mut ctx = NpuContext::new(DeviceProfile::v75(), ExecMode::Functional);
    let model = Model::new(&mut ctx, ModelId::Tiny, DequantVariant::CoalescedLut, 3)
        .expect("tiny model builds");
    let task =
        mathsynth::mathgen::TaskGenerator::new(mathsynth::mathgen::DatasetKind::Gsm8kLike, 5)
            .next_task();
    let cfg = ServeEosConfig {
        n: 8,
        max_new_tokens: 16,
        max_batch: 4,
        seed: 11,
    };
    let eos_fn =
        llm_serve_eos(&mut ctx, &model, &task, cfg, |t| t % 5 == 0).expect("eos serving runs");
    let fixed_fn = llm_bon_fixed_batch(
        &mut ctx,
        &model,
        &task,
        &eos_fn.realized_lengths,
        cfg.max_batch,
        cfg.seed,
    )
    .expect("fixed batch runs");
    let fn_ratio = eos_fn.report.tokens_per_sec / fixed_fn.tokens_per_sec;
    println!(
        "functional policy: eos {:>6.1} useful tok/s vs fixed {:>6.1} ({:.2}x, \
         {} of {} samples ended at EOS)",
        eos_fn.report.tokens_per_sec, fixed_fn.tokens_per_sec, fn_ratio, eos_fn.eos_finishes, cfg.n
    );
    gate.fail_if(fn_ratio <= FN_EOS_RATIO_MIN, || {
        format!("functional EOS serving ratio {fn_ratio:.2}x fell to <= {FN_EOS_RATIO_MIN}x")
    });
    Json::obj([
        ("eos", report_json(&eos)),
        ("fixed_budget", report_json(&fixed)),
        (
            "functional_eos_tokens_per_sec",
            Json::Num(eos_fn.report.tokens_per_sec),
        ),
        (
            "functional_fixed_tokens_per_sec",
            Json::Num(fixed_fn.tokens_per_sec),
        ),
        ("functional_ratio", Json::Num(fn_ratio)),
        ("ttft_p99_max_secs", Json::Num(TTFT_P99_MAX_SECS)),
        ("goodput_min_rps", Json::Num(GOODPUT_MIN_RPS)),
    ])
}

/// Claim 3: the V73/V75/V79 fleet (streamed plan included) absorbs a
/// burst that overloads any single device's bounded queue.
fn fleet_section(gate: &mut Gate) -> Json {
    println!("\n=== Heterogeneous fleet vs single device (12 req/s burst) ===");
    let tenants = [TenantSpec::interactive("chat"), TenantSpec::batch("batch")];
    let trace = poisson_trace(&tenants, 12.0, 24, SEED ^ 0xF1EE7);
    let config = || GatewayConfig {
        queue_capacity: 4,
        ..GatewayConfig::default()
    };
    let single = FleetGateway::new(
        FleetSpec::single(ModelId::Qwen1_5B, DeviceProfile::v73(), true),
        config(),
    )
    .expect("single device must plan");
    let fleet = FleetGateway::new(FleetSpec::heterogeneous(ModelId::Qwen1_5B), config())
        .expect("fleet must plan");
    let alone = single.serve_trace(&trace).expect("trace must serve");
    let spread = fleet.serve_trace(&trace).expect("trace must serve");
    print_report("single-8G2", &alone);
    print_report("fleet", &spread);
    println!(
        "\n{:<14} {:>8} {:>7} {:>7} {:>10} {:>9} {:>10}",
        "worker", "sessions", "served", "steps", "busy s", "util", "npu lane"
    );
    for w in &spread.workers {
        println!(
            "{:<14} {:>8} {:>7} {:>7} {:>10.3} {:>8.1}% {:>9.1}%",
            w.name,
            w.sessions,
            w.served,
            w.steps,
            w.busy_secs,
            w.utilization * 100.0,
            w.npu_lane_utilization * 100.0
        );
    }
    gate.fail_if(alone.rejected == 0, || {
        "single device no longer sheds load at 12 req/s"
    });
    gate.fail_if(
        spread.rejected >= alone.rejected || spread.completed <= alone.completed,
        || {
            format!(
                "fleet ({} rejected, {} completed) no longer absorbs what the \
                 single device sheds ({} rejected, {} completed)",
                spread.rejected, spread.completed, alone.rejected, alone.completed
            )
        },
    );
    let workers_json: Vec<Json> = spread
        .workers
        .iter()
        .map(|w| {
            Json::obj([
                ("name", Json::str(w.name.clone())),
                ("sessions", Json::from(w.sessions)),
                ("served", Json::from(w.served)),
                ("utilization", Json::Num(w.utilization)),
                ("npu_lane_utilization", Json::Num(w.npu_lane_utilization)),
            ])
        })
        .collect();
    Json::obj([
        ("single", report_json(&alone)),
        ("fleet", report_json(&spread)),
        ("fleet_workers", Json::Arr(workers_json)),
    ])
}

/// Claim 4: mid-stream KV preemption cuts the interactive tenant's p99
/// TTFT by >= 1.3x on a burst-over-batch trace, completing exactly the
/// same set of requests (paused decodes resume bit-identically).
fn preemption_section(gate: &mut Gate) -> Json {
    println!("\n=== Preemption under a bursty interactive stream (single V75) ===");
    let batch = TenantSpec {
        name: "batch".into(),
        priority: 1,
        weight: 1.0,
        prompt_lens: (64, 64),
        output_lens: (64, 64),
    };
    let chat = TenantSpec {
        name: "chat".into(),
        priority: 2,
        weight: 3.0,
        prompt_lens: (32, 32),
        output_lens: (4, 8),
    };
    // Eight long batch decodes saturate the worker's slots at t=0; a
    // bursty on/off interactive stream (the production shape, not a
    // memoryless Poisson) then collides with the full batch.
    let backlog: Vec<(f64, usize, usize)> = (0..8).map(|i| (i as f64 * 0.001, 64, 64)).collect();
    let burst = BurstSpec {
        base_rps: 0.5,
        burst_rps: 6.0,
        mean_quiet_secs: 2.0,
        mean_burst_secs: 1.5,
        diurnal_period_secs: 30.0,
        diurnal_depth: 0.3,
    };
    let trace = merge_traces(&[
        replay_trace(&batch, &backlog),
        bursty_trace(std::slice::from_ref(&chat), &burst, 10, SEED ^ 0xB0057),
    ]);
    let fleet = || FleetSpec::single(ModelId::Qwen1_5B, DeviceProfile::v75(), false);
    let plain = FleetGateway::new(fleet(), GatewayConfig::default())
        .expect("fleet must plan")
        .serve_trace(&trace)
        .expect("trace must serve");
    let preempting = FleetGateway::new(
        fleet(),
        GatewayConfig {
            preemption: PreemptionPolicy::Enabled,
            ..GatewayConfig::default()
        },
    )
    .expect("fleet must plan")
    .serve_trace(&trace)
    .expect("trace must serve");
    print_report("fifo-hold", &plain);
    print_report("preempting", &preempting);
    let chat_ttft = |r: &ServingReport| {
        r.tenants
            .iter()
            .find(|t| t.name == "chat")
            .expect("chat tenant reported")
            .ttft_p99_secs
    };
    let gain = chat_ttft(&plain) / chat_ttft(&preempting);
    println!(
        "interactive p99 TTFT {:.3} s -> {:.3} s ({gain:.2}x) with {} preemptions",
        chat_ttft(&plain),
        chat_ttft(&preempting),
        preempting.preemptions
    );
    gate.fail_if(gain < PREEMPT_TTFT_GAIN_MIN, || {
        format!("preemption TTFT gain {gain:.2}x below the pinned {PREEMPT_TTFT_GAIN_MIN:.1}x")
    });
    gate.fail_if(
        preempting.completed != plain.completed || preempting.completed != trace.len(),
        || {
            format!(
                "preemption changed completions ({} vs {} of {})",
                preempting.completed,
                plain.completed,
                trace.len()
            )
        },
    );
    gate.fail_if(preempting.preemptions == 0, || {
        "the burst no longer triggers any preemption"
    });
    Json::obj([
        ("ttft_gain", Json::Num(gain)),
        ("ttft_gain_min", Json::Num(PREEMPT_TTFT_GAIN_MIN)),
        ("no_preemption", report_json(&plain)),
        ("preempting", report_json(&preempting)),
        ("preempting_tenants", tenant_json(&preempting)),
    ])
}

/// Claim 5: WFQ keeps the starved tenant's token share >= 2x its
/// strict-priority share and >= its weight share under a high-priority
/// flood, and raises the Jain fairness index.
fn fairness_section(gate: &mut Gate) -> Json {
    println!("\n=== WFQ vs strict priority under a flood (streamed V73) ===");
    let chat = TenantSpec {
        name: "chat".into(),
        priority: 2,
        weight: 3.0,
        prompt_lens: (32, 32),
        output_lens: (8, 8),
    };
    let batch = TenantSpec {
        name: "batch".into(),
        priority: 1,
        weight: 1.0,
        prompt_lens: (128, 128),
        output_lens: (16, 16),
    };
    // Sixty interactive arrivals every 50 ms swamp a two-slot streamed
    // V73 with a two-deep admission queue; ten batch requests trickle in
    // underneath. Strict priority plus overflow eviction starves them.
    let chat_points: Vec<(f64, usize, usize)> = (0..60).map(|i| (i as f64 * 0.05, 32, 8)).collect();
    let batch_points: Vec<(f64, usize, usize)> =
        (0..10).map(|i| (0.1 + i as f64 * 0.2, 128, 16)).collect();
    let trace = merge_traces(&[
        replay_trace(&chat, &chat_points),
        replay_trace(&batch, &batch_points),
    ]);
    let fleet = || FleetSpec {
        model: ModelId::Qwen1_5B,
        workers: vec![WorkerSpec {
            device: DeviceProfile::v73(),
            streaming: true,
            max_batch: 2,
            max_ctx: 1024,
        }],
    };
    let config = GatewayConfig {
        queue_capacity: 2,
        ..GatewayConfig::default()
    };
    let strict = FleetGateway::new(fleet(), config)
        .expect("fleet must plan")
        .serve_trace(&trace)
        .expect("trace must serve");
    let wfq = FleetGateway::new(
        fleet(),
        GatewayConfig {
            scheduling: SchedulingPolicy::Wfq,
            ..config
        },
    )
    .expect("fleet must plan")
    .serve_trace(&trace)
    .expect("trace must serve");
    print_report("strict", &strict);
    print_report("wfq", &wfq);
    let batch_share = |r: &ServingReport| {
        r.tenants
            .iter()
            .find(|t| t.name == "batch")
            .expect("batch tenant reported")
            .token_share
    };
    println!(
        "batch token share {:.3} -> {:.3}; Jain fairness {:.3} -> {:.3}",
        batch_share(&strict),
        batch_share(&wfq),
        strict.jain_fairness,
        wfq.jain_fairness
    );
    gate.fail_if(
        batch_share(&wfq) < WFQ_SHARE_GAIN_MIN * batch_share(&strict),
        || {
            format!(
                "WFQ batch share {:.3} below {WFQ_SHARE_GAIN_MIN:.1}x the strict share {:.3}",
                batch_share(&wfq),
                batch_share(&strict)
            )
        },
    );
    // The strict share is 0 on this trace, so the gain check alone would
    // pass any WFQ share; the weight share is the floor that bites.
    let weight_share = batch.weight / (batch.weight + chat.weight);
    gate.fail_if(batch_share(&wfq) < weight_share, || {
        format!(
            "WFQ batch share {:.3} below its weight share {weight_share:.3}",
            batch_share(&wfq)
        )
    });
    gate.fail_if(wfq.jain_fairness <= strict.jain_fairness, || {
        format!(
            "WFQ Jain fairness {:.3} no longer beats strict {:.3}",
            wfq.jain_fairness, strict.jain_fairness
        )
    });
    Json::obj([
        ("share_gain_min", Json::Num(WFQ_SHARE_GAIN_MIN)),
        ("strict", report_json(&strict)),
        ("wfq", report_json(&wfq)),
        ("strict_tenants", tenant_json(&strict)),
        ("wfq_tenants", tenant_json(&wfq)),
    ])
}
