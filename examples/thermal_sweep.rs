//! Thermal/DVFS sweep: the power-to-latency feedback loop, with three
//! claims CI-gated on every push:
//!
//! 1. **Burst numbers are the pre-thermal numbers.** A cold die at burst
//!    clocks reproduces the exact decode throughput the rest of the
//!    repo's benchmarks report — the thermal layer adds physics without
//!    perturbing the existing cost model (checked bit-for-bit).
//! 2. **Sustained throughput degrades no worse than a pinned factor per
//!    device.** Once the die crosses its throttle cap, the DVFS governor
//!    drops to the sustained clock point; fixed session-switch overheads
//!    do not scale with clock, so the tok/s drop is bounded below by the
//!    clock multiplier (and pinned tighter from measurement).
//! 3. **Thermal-aware fleet dispatch beats thermal-blind.** On the same
//!    multi-minute mixed-tenant trace over the heterogeneous V73/V75/V79
//!    fleet, a completion oracle that projects each worker's temperature
//!    trajectory (analytic time-to-cap, throttled-rate dilation) routes
//!    sustained load around hot dies: higher SLO goodput, no worse p99
//!    TBT, and fewer throttled steps than burst-oracle dispatch.
//!
//! Also emits the sustained-vs-burst efficiency surface (tokens/sec and
//! tokens/sec/watt at both operating points) per device and batch.
//!
//! Writes the machine-readable `BENCH_power.json` and, through
//! `benchutil::gate`, **fails the process** if any claim regresses.
//! Everything is seeded and deterministic.
//!
//! Run with: `cargo run --release --example thermal_sweep`

use benchutil::gate::Gate;
use benchutil::json::Json;
use npuscale::experiments::{
    fleet_thermal_rows, thermal_decode_rows, THERMAL_WINDOW_SECS, THERMAL_WORKLOAD,
};
use npuscale::thermal::{sustained_decode_curve, SustainedCurve};
use npuscale_repro::prelude::*;

/// Seed for the fleet trace (the CI gate relies on it).
const SEED: u64 = 20260808;

/// Pinned per-device floors on `sustained_tps / burst_tps` for the fixed
/// Qwen-3B b8 ctx-1024 workload. Measured 0.6200 / 0.6000 / 0.8192 at
/// the pinned constants; the floor below each catches real regressions
/// while the hard invariant (ratio >= sustained clock multiplier) is
/// checked separately.
const DEGRADATION_FLOORS: [(&str, f64); 3] = [("8G2", 0.61), ("8G3", 0.59), ("8G4", 0.80)];

fn main() {
    let mut gate = Gate::default();
    let decode_json = sustained_decode_section(&mut gate);
    let efficiency_json = efficiency_section();
    let fleet_json = fleet_dispatch_section(&mut gate);

    let artifact = Json::obj([
        ("bench", Json::str("thermal_dvfs")),
        (
            "description",
            Json::str(
                "thermal/DVFS feedback loop: sustained-vs-burst decode \
                 curves per device, tokens/sec/watt at both operating \
                 points, and thermal-aware vs thermal-blind fleet \
                 dispatch; regenerated by `cargo run --release --example \
                 thermal_sweep` (seeded, deterministic)",
            ),
        ),
        ("seed", Json::from(SEED as usize)),
        ("sustained_decode", decode_json),
        ("efficiency", efficiency_json),
        ("fleet_dispatch", fleet_json),
    ]);
    benchutil::json::write_file("BENCH_power.json", &artifact).expect("writing BENCH_power.json");
    println!("\nWrote BENCH_power.json.");
    gate.finish("thermal/DVFS regression gate tripped");
}

/// Claims 1 + 2: burst bit-for-bit against the pre-thermal backend,
/// sustained degradation bounded per device.
fn sustained_decode_section(gate: &mut Gate) -> Json {
    let (model, batch, ctx_len) = THERMAL_WORKLOAD;
    println!(
        "== Sustained-vs-burst decode: {model:?} b{batch} ctx {ctx_len}, \
         {THERMAL_WINDOW_SECS:.0} s of back-to-back decode =="
    );
    let rows = thermal_decode_rows();
    gate.fail_if(rows.len() != DeviceProfile::all().len(), || {
        format!("expected a thermal row per device, got {}", rows.len())
    });
    for r in &rows {
        print_decode_row(r);
        // Claim 1: the burst operating point is the pre-thermal number.
        let device = device_by_label(&r.device);
        let cold = NpuSimBackend::overlapped(device.clone())
            .decode(model, batch, ctx_len)
            .expect("cold decode");
        gate.fail_if(r.burst_tokens_per_sec != cold.tokens_per_sec, || {
            format!(
                "{} burst {} != pre-thermal decode {} (must be bit-for-bit)",
                r.device, r.burst_tokens_per_sec, cold.tokens_per_sec
            )
        });
        // Claim 2: throttling is bounded. The clock multiplier is the
        // hard floor (switch costs do not scale), the pinned measured
        // floor is the regression tripwire.
        let degradation = degradation(r);
        gate.fail_if(
            degradation < device.sustained_clock_mult * (1.0 - 1e-6),
            || {
                format!(
                    "{} degradation {} below the clock multiplier {}",
                    r.device, degradation, device.sustained_clock_mult
                )
            },
        );
        let floor = DEGRADATION_FLOORS
            .iter()
            .find(|(d, _)| *d == r.device)
            .map(|(_, f)| *f)
            .unwrap_or(0.0);
        gate.fail_if(degradation < floor, || {
            format!(
                "{} degradation {} below the pinned floor {}",
                r.device, degradation, floor
            )
        });
        // Sanity: the device actually throttled inside the window and
        // stayed essentially at its cap (one step of overshoot slack).
        gate.fail_if(r.first_throttle_step.is_none(), || {
            format!("{} never throttled in the window", r.device)
        });
        let slack = 0.5;
        gate.fail_if(r.peak_temp_c > device.throttle_temp_c + slack, || {
            format!(
                "{} peak {} exceeds cap {} + {} slack",
                r.device, r.peak_temp_c, device.throttle_temp_c, slack
            )
        });
    }
    Json::Arr(rows.iter().map(decode_row_json).collect())
}

/// Tokens/sec/watt at both operating points across batch sizes.
fn efficiency_section() -> Json {
    println!("\n== Efficiency surface: tokens/sec/watt, burst vs sustained ==");
    let mut out = Vec::new();
    for device in DeviceProfile::all() {
        for batch in [1, 4, 8] {
            // Duration 0: operating points only, no trajectory.
            let Ok(p) = sustained_decode_curve(&device, ModelId::Qwen1_5B, batch, 1024, 0.0) else {
                continue;
            };
            println!(
                "{:<4} b{:<2} | burst {:>7.2} tok/s {:>6.2} tok/s/W | \
                 sustained {:>7.2} tok/s {:>6.2} tok/s/W",
                p.device,
                p.batch,
                p.burst_tokens_per_sec,
                p.burst_tokens_per_joule,
                p.sustained_tokens_per_sec,
                p.sustained_tokens_per_joule
            );
            out.push(Json::obj([
                ("device", Json::str(&p.device)),
                ("model", Json::str(&p.model)),
                ("batch", Json::from(p.batch)),
                ("burst_tps", Json::from(p.burst_tokens_per_sec)),
                ("sustained_tps", Json::from(p.sustained_tokens_per_sec)),
                ("burst_tps_per_watt", Json::from(p.burst_tokens_per_joule)),
                (
                    "sustained_tps_per_watt",
                    Json::from(p.sustained_tokens_per_joule),
                ),
            ]));
        }
    }
    Json::Arr(out)
}

/// Claim 3: thermal-aware dispatch beats thermal-blind on the same trace.
fn fleet_dispatch_section(gate: &mut Gate) -> Json {
    println!("\n== Fleet dispatch: thermal-blind vs thermal-aware, seed {SEED} ==");
    let [blind, aware] = fleet_thermal_rows(SEED).expect("fleet thermal rows");
    let rows = [("blind", &blind), ("aware", &aware)];
    for (policy, r) in rows {
        print_fleet_row(policy, r);
    }
    gate.fail_if(aware.goodput_rps < blind.goodput_rps, || {
        format!(
            "aware goodput {} below blind {}",
            aware.goodput_rps, blind.goodput_rps
        )
    });
    gate.fail_if(aware.tbt_p99_secs > blind.tbt_p99_secs, || {
        format!(
            "aware p99 TBT {} above blind {}",
            aware.tbt_p99_secs, blind.tbt_p99_secs
        )
    });
    gate.fail_if(throttled_steps(&blind) == 0, || {
        "trace never throttled the blind fleet — comparison is vacuous"
    });
    gate.fail_if(throttled_steps(&aware) >= throttled_steps(&blind), || {
        format!(
            "aware throttled {} steps, blind {} — routing around hot dies \
             should reduce throttling",
            throttled_steps(&aware),
            throttled_steps(&blind)
        )
    });
    Json::Arr(
        rows.iter()
            .map(|&(policy, r)| fleet_row_json(policy, r))
            .collect(),
    )
}

fn device_by_label(label: &str) -> DeviceProfile {
    DeviceProfile::all()
        .into_iter()
        .find(|d| d.arch.soc_label() == label)
        .unwrap_or_else(|| panic!("unknown device label {label}"))
}

/// Sustained over burst tokens/sec.
fn degradation(c: &SustainedCurve) -> f64 {
    c.sustained_tokens_per_sec / c.burst_tokens_per_sec
}

/// Steps the whole fleet ran at the sustained clock point.
fn throttled_steps(r: &ServingReport) -> usize {
    r.workers.iter().map(|w| w.throttled_steps).sum()
}

/// Hottest die temperature across the fleet.
fn peak_temp_c(r: &ServingReport) -> f64 {
    r.workers.iter().map(|w| w.peak_temp_c).fold(0.0, f64::max)
}

fn print_decode_row(c: &SustainedCurve) {
    let throttle = match (c.first_throttle_step, c.first_throttle_secs) {
        (Some(step), Some(secs)) => format!("step {step} @ {secs:.1} s"),
        _ => "never".to_string(),
    };
    println!(
        "{:<4} | burst {:>7.2} tok/s {:>5.2} W | sustained {:>7.2} tok/s \
         {:>5.2} W | x{:.4} | throttles {throttle} | peak {:.2} C",
        c.device,
        c.burst_tokens_per_sec,
        c.burst_power_w,
        c.sustained_tokens_per_sec,
        c.sustained_power_w,
        degradation(c),
        c.peak_temp_c
    );
}

fn decode_row_json(c: &SustainedCurve) -> Json {
    Json::obj([
        ("device", Json::str(&c.device)),
        ("model", Json::str(&c.model)),
        ("batch", Json::from(c.batch)),
        ("ctx_len", Json::from(c.ctx_len)),
        ("burst_tps", Json::from(c.burst_tokens_per_sec)),
        ("sustained_tps", Json::from(c.sustained_tokens_per_sec)),
        ("avg_tps", Json::from(c.avg_tokens_per_sec)),
        ("degradation", Json::from(degradation(c))),
        ("burst_power_w", Json::from(c.burst_power_w)),
        ("sustained_power_w", Json::from(c.sustained_power_w)),
        (
            "burst_tokens_per_joule",
            Json::from(c.burst_tokens_per_joule),
        ),
        (
            "sustained_tokens_per_joule",
            Json::from(c.sustained_tokens_per_joule),
        ),
        (
            "first_throttle_step",
            c.first_throttle_step.map(Json::from).unwrap_or(Json::Null),
        ),
        (
            "first_throttle_secs",
            c.first_throttle_secs.map(Json::from).unwrap_or(Json::Null),
        ),
        ("peak_temp_c", Json::from(c.peak_temp_c)),
    ])
}

fn print_fleet_row(policy: &str, r: &ServingReport) {
    println!(
        "{:<6} | done {:>3} rej {:>2} good {:>3} | goodput {:>6.3} req/s | \
         ttft p99 {:>6.3} s tbt p99 {:>6.4} s | makespan {:>6.1} s | \
         throttled {:>5} steps | peak {:.2} C",
        policy,
        r.completed,
        r.rejected,
        r.slo_good,
        r.goodput_rps,
        r.ttft_p99_secs,
        r.tbt_p99_secs,
        r.makespan_secs,
        throttled_steps(r),
        peak_temp_c(r)
    );
}

fn fleet_row_json(policy: &str, r: &ServingReport) -> Json {
    Json::obj([
        ("policy", Json::str(policy)),
        ("completed", Json::from(r.completed)),
        ("rejected", Json::from(r.rejected)),
        ("slo_good", Json::from(r.slo_good)),
        ("goodput_rps", Json::from(r.goodput_rps)),
        ("ttft_p99_secs", Json::from(r.ttft_p99_secs)),
        ("tbt_p99_secs", Json::from(r.tbt_p99_secs)),
        ("makespan_secs", Json::from(r.makespan_secs)),
        ("tokens_per_sec", Json::from(r.tokens_per_sec)),
        ("throttled_steps", Json::from(throttled_steps(r))),
        ("peak_temp_c", Json::from(peak_temp_c(r))),
    ])
}
