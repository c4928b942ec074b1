//! Prints every table and figure of the paper's evaluation (Section 7)
//! in the paper's layout: Tables 1-5 and Figures 5, 8 and 10-17, then two
//! extensions (the scaling-method comparison and the per-device sweep).
//! Each section prints the rows of one `npuscale::experiments` row
//! generator (Figure 10's panels come from `npuscale::pareto`). Latencies
//! are simulated device time, not host time, and every row is seeded, so
//! CI diffs the output against `tests/stdout/paper_figures.txt`.
//!
//! Run with: `cargo run --release --example paper_figures`

use npuscale::backend::{decode_sweep, SweepOutcome};
use npuscale::experiments;
use npuscale::memory::measure_overhead;
use npuscale::pareto::{pareto_panel, Method};
use npuscale::DecodePoint;
use npuscale_repro::prelude::*;

fn main() {
    table1();
    table2_and_3();
    table4();
    table5();
    fig5();
    fig8();
    fig10();
    fig11();
    fig12();
    fig13();
    fig14();
    fig15();
    fig16();
    fig17();
    ext_methods();
    ext_device_sweep();
}

/// Prints a section banner.
fn banner(title: &str, paper_ref: &str) {
    println!();
    println!("==================================================================");
    println!("{title}");
    println!("(reproduces {paper_ref})");
    println!("==================================================================");
}

/// Formats seconds as an adaptive human unit.
fn fmt_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.2} s")
    } else if s >= 1e-3 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{:.1} us", s * 1e6)
    }
}

/// The runtime with serial and with overlap-aware async dispatch (V75).
fn serial_and_async() -> Vec<Box<dyn Backend>> {
    let [serial, overlapped, _] = NpuSimBackend::variants(&DeviceProfile::v75());
    vec![Box::new(serial), Box::new(overlapped)]
}

fn table1() {
    banner(
        "Table 1 - quantization scheme vs reasoning accuracy (Llama3.2-1B)",
        "paper Table 1: AWQ 15.9/32.6/19.42 vs QNN 2.1/3.4/28.99",
    );
    println!("scheme                         rmse_rel   MATH500     GSM8K   logitKL   PPL(map)");
    for r in experiments::table1_rows(7) {
        println!(
            "{:<28} {:>10.4} {:>8.1}% {:>8.1}% {:>9.3} {:>10.2}",
            r.scheme, r.weight_rmse_rel, r.math500_pct, r.gsm8k_pct, r.logit_kl, r.wiki_ppl_mapped
        );
    }
    println!("\npaper:   AutoAWQ  MATH500 15.9  GSM8K 32.6  Wiki PPL 19.42");
    println!("paper:   QNN      MATH500  2.1  GSM8K  3.4  Wiki PPL 28.99");
}

fn table2_and_3() {
    banner(
        "Table 2 - HVX vs HMX FP16 GEMM and read bandwidth (V75)",
        "paper Table 2: HVX 32.93 GFLOPS / 26 GB/s; HMX 12032.54 GFLOPS / 60 GB/s",
    );
    for r in experiments::table2_rows() {
        let (unit, gflops, bw) = (r.unit, r.gemm_gflops, r.read_bw_gbs);
        println!("{unit:<16} GEMM {gflops:>9.2} GFLOPS   read {bw:>6.1} GB/s");
    }
    banner("Table 3 - evaluation devices", "paper Table 3");
    for d in DeviceProfile::all() {
        let (name, soc, arch, label) = (d.name, d.soc, d.arch, d.arch.soc_label());
        println!("{name:<18} {soc:<22} NPU {arch:?} ({label})");
    }
}

fn table4() {
    banner(
        "Table 4 - tile quantization groups vs conventional groups vs F16",
        "paper Table 4: 62.56/63.35/64.61 WinoGrande; 35.47/35.27/34.82 MMLU",
    );
    println!("variant                rmse_rel   WinoGrande     MMLU   tiny PPL");
    for r in experiments::table4_rows(3) {
        println!(
            "{:<20} {:>10.5} {:>11.1}% {:>7.1}% {:>10.2}",
            r.variant, r.weight_rmse_rel, r.winogrande_pct, r.mmlu_pct, r.tiny_ppl
        );
    }
}

fn table5() {
    banner(
        "Table 5 - LUT16 FP16 FlashAttention vs conventional F32 attention",
        "paper Table 5: 62.80 vs 62.56 WinoGrande; 35.21 vs 35.47 MMLU (equivalent)",
    );
    println!("variant                  logit KL   WinoGrande     MMLU");
    for r in experiments::table5_rows(5) {
        println!(
            "{:<22} {:>10.5} {:>11.1}% {:>7.1}%",
            r.variant, r.logit_kl, r.winogrande_pct, r.mmlu_pct
        );
    }
}

fn fig5() {
    banner(
        "Figure 5 - Best-of-N scaling on MATH500",
        "paper Fig 5: accuracy climbs with budget, ~20%->~50% (L1)",
    );
    let mut model = String::new();
    for r in experiments::fig5_rows(11) {
        if r.model != model {
            model = r.model;
            println!("\n{model}\n  budget   accuracy");
        }
        println!("{:>8} {:>9.1}%", r.budget, r.accuracy_pct);
    }
}

fn fig8() {
    banner(
        "Figure 8 - FlashAttention latency breakdown (Qwen2.5-1.5B, prompt 4096)",
        "paper Fig 8: load/store 58.3% at q=4 shrinking to 11.3%; softmax to 84.6%",
    );
    println!("     q     QKVO ld/st     MatMul    Softmax");
    for r in experiments::fig8_rows() {
        println!(
            "{:>6} {:>13.1}% {:>9.1}% {:>9.1}%",
            r.q_len, r.load_store_pct, r.matmul_pct, r.softmax_pct
        );
    }
}

fn fig10() {
    banner(
        "Figure 10 - accuracy vs per-token decode latency",
        "paper Fig 10: TTS series dominate larger base models",
    );
    for device in [DeviceProfile::v75(), DeviceProfile::v79()] {
        let soc = device.arch.soc_label();
        for dataset in [DatasetKind::Math500Like, DatasetKind::Gsm8kLike] {
            for method in [Method::BestOfN, Method::BeamSearch] {
                println!("\n--- {} - {soc} - {} ---", dataset.label(), method.label());
                println!("series      budget   accuracy  latency/token");
                for p in pareto_panel(&device, dataset, method, 42) {
                    let latency = fmt_secs(p.per_token_latency_s);
                    println!(
                        "{:<10} {:>7} {:>9.1}% {latency:>14}",
                        p.series, p.budget, p.accuracy_pct
                    );
                }
            }
        }
    }
}

fn fig11() {
    banner(
        "Figure 11 - decode throughput vs batch across devices (ctx 1024)",
        "paper Fig 11: throughput rises strongly but sublinearly with batch",
    );
    let mut device = String::new();
    for r in experiments::fig11_rows() {
        if r.device != device {
            device = r.device;
            println!("\n=== {device} ===");
        }
        let (model, batch) = (r.model, r.batch);
        match r.tokens_per_sec {
            Some(tps) => println!("{model:<6} batch {batch:>2}: {tps:>7.1} tok/s"),
            None => println!("{model:<6} batch {batch:>2}: (does not fit: session VA limit)"),
        }
    }
}

/// Energy per step is also shown normalized to each model's first batch.
fn fig12() {
    banner(
        "Figure 12 - decode power and normalized energy (OnePlus 12)",
        "paper Fig 12: <5 W; 1.5B rises with batch; 3B ~4.3 W",
    );
    println!("model   batch     power       E/step   E/step norm      E/token");
    let (mut model, mut base) = (String::new(), 0.0);
    for p in experiments::fig12_rows() {
        if p.model != model {
            model = p.model.clone();
            base = p.step_energy_j;
        }
        println!(
            "{:<6} {:>6} {:>7.2} W {:>10.3} J {:>13.2} {:>10.4} J",
            p.model,
            p.batch,
            p.power_w,
            p.step_energy_j,
            p.step_energy_j / base,
            p.energy_per_token_j
        );
    }
}

/// The paper's legend (ours, GPU, QNN), then "Ours (async)": the Section
/// 7.2.2 overlap-aware dispatch.
fn fig13() {
    banner(
        "Figure 13 - inference throughput vs llama.cpp-OpenCL and QNN FP16",
        "paper Fig 13: GPU wins batch-1 decode; ours wins batched decode + prefill",
    );
    let [serial, overlapped, _] = NpuSimBackend::variants(&DeviceProfile::v75());
    let [gpu, qnn, _] = baselines();
    let backends: Vec<Box<dyn Backend>> = vec![Box::new(serial), gpu, qnn, Box::new(overlapped)];
    println!("--- decode (tok/s) ---");
    println!("system             model   batch      tok/s");
    for (system, p) in experiments::fig13_decode_rows(&backends) {
        let (model, batch, tps) = (p.model, p.batch, p.tokens_per_sec);
        println!("{system:<18} {model:<6} {batch:>6} {tps:>10.1}");
    }
    println!("\n--- prefill (tok/s) ---");
    println!("system             model    prompt      tok/s");
    for (system, p) in experiments::fig13_prefill_rows(&backends) {
        let (model, prompt, tps) = (p.model, p.prompt_len, p.tokens_per_sec);
        println!("{system:<18} {model:<6} {prompt:>8} {tps:>10.1}");
    }
}

fn fig14() {
    banner(
        "Figure 14 - softmax latency: F32 exp vs F16 exp vs LUT16 exp (V75)",
        "paper Fig 14: LUT16 1.26-2.19x vs F32, up to 1.60x vs F16",
    );
    println!("    Nkv    Nq method          latency  LUT16 speedup");
    for r in experiments::fig14_rows() {
        let latency = fmt_secs(r.latency_us * 1e-6);
        println!(
            "{:>7} {:>5} {:<10} {latency:>12} {:>13.2}x",
            r.nkv, r.nq, r.method, r.lut_speedup
        );
    }
}

fn fig15() {
    banner(
        "Figure 15 - GEMV dequantization ablation (V75)",
        "paper Fig 15: ours 9.65-19.04x vs baseline; ~27% off the no-dequant bound",
    );
    println!("config           variant             latency   ours speedup");
    let mut cfg = String::new();
    let (mut base_ratios, mut bound_ratios) = (Vec::new(), Vec::new());
    for r in experiments::fig15_rows() {
        if r.config != cfg {
            cfg = r.config.clone();
            println!();
        }
        let latency = fmt_secs(r.latency_us * 1e-6);
        println!(
            "{:<16} {:<14} {latency:>12} {:>13.2}x",
            r.config, r.variant, r.ours_speedup
        );
        match r.variant.as_str() {
            "baseline" => base_ratios.push(r.ours_speedup),
            "no dequant." => bound_ratios.push(1.0 / r.ours_speedup),
            _ => {}
        }
    }
    println!(
        "\nspeedup vs baseline: {:.2}-{:.2}x (paper 9.65-19.04x)",
        base_ratios.iter().cloned().fold(f64::INFINITY, f64::min),
        base_ratios.iter().cloned().fold(0.0, f64::max)
    );
    let mean_bound = bound_ratios.iter().sum::<f64>() / bound_ratios.len() as f64;
    let slowdown_pct = (mean_bound - 1.0) * 100.0;
    println!("mean slowdown vs no-dequant bound: {slowdown_pct:.0}% (paper ~27%)");
}

/// Async dispatch packs the same CPU busy time into a shorter step, so
/// its CPU utilization reads higher.
fn fig16() {
    banner(
        "Figure 16 - CPU memory and utilization during decode",
        "paper Fig 16 + Sec 7.5: RSS ~250-300 MiB; dmabuf 1056/2090 MiB; CPU 320-340%",
    );
    println!("system   model   batch      CPU RSS       dmabuf   CPU util");
    for r in experiments::fig16_rows(&serial_and_async()) {
        println!(
            "{:<8} {:<6} {:>6} {:>8.0} MiB {:>8.0} MiB {:>9.0}%",
            r.system, r.model, r.batch, r.cpu_rss_mib, r.dmabuf_mib, r.cpu_util_pct
        );
    }
}

fn fig17() {
    banner(
        "Figure 17 - decode throughput vs prompt length",
        "paper Fig 17: mild decline from 512 to 4096 tokens",
    );
    println!("system   model    prompt  batch      tok/s");
    for (system, p) in experiments::fig17_rows(&serial_and_async()) {
        println!(
            "{:<8} {:<6} {:>8} {:>6} {:>10.1}",
            system, p.model, p.ctx_len, p.batch, p.tokens_per_sec
        );
    }
}

/// All four parallel scaling strategies at matched budgets (Section 2.1's
/// method space), including the oracle bound.
fn ext_methods() {
    banner(
        "Extension - scaling method comparison at matched budgets (MATH500)",
        "paper Section 2.1's method space; oracle = pass@N upper bound",
    );
    for model in [ModelId::Llama1B, ModelId::Qwen1_5B] {
        println!("\n{}", ModelConfig::for_id(model).name);
        println!("  budget  Best-of-N   BeamSearch   SelfConsist.    oracle");
        for r in experiments::ext_method_comparison_rows(model, 11) {
            println!(
                "{:>8} {:>9.1}% {:>11.1}% {:>13.1}% {:>8.1}%",
                r.budget, r.best_of_n_pct, r.beam_search_pct, r.self_consistency_pct, r.oracle_pct
            );
        }
    }
}

/// Figures 11, 12 and 16 in one table on every Snapdragon generation:
/// decode throughput on every backend, power and dmabuf for the NPU
/// runtime. A model that exceeds one 32-bit session runs the paper's
/// Section 8 multi-session sharding and prints its session count.
fn ext_device_sweep() {
    banner(
        "Extension - device sweep (decode / power / memory, all backends)",
        "paper Figs 11+12+16 across Hexagon V73/V75/V79 + GPU/QNN/CPU baselines",
    );
    for device in DeviceProfile::all() {
        println!(
            "\n{} / {} (Hexagon {:?})",
            device.name, device.soc, device.arch
        );
        println!(
            "system             model     b1 tok/s  b8 tok/s b16 tok/s    W @ b8   dmabuf MiB  \
             sessions"
        );
        let pm = PowerModel::new(device.clone());
        // The runtime's serial, async and streamed variants, then the
        // analytic baselines.
        let mut backends: Vec<Box<dyn Backend>> = NpuSimBackend::variants(&device)
            .into_iter()
            .map(|b| Box::new(b) as Box<dyn Backend>)
            .collect();
        backends.extend(baselines());
        for model in [
            ModelId::Llama1B,
            ModelId::Qwen1_5B,
            ModelId::Qwen3B,
            ModelId::Qwen7B,
        ] {
            for b in &backends {
                let (name, label) = (b.name(), model.label());
                let sweep = decode_sweep(b.as_ref(), model, 1024, &[1, 8, 16]);
                // "xN" on a sharded row; "x3-4" where KV growth adds a
                // session at the larger batches.
                let shard = sweep.shard_tag().unwrap_or_else(|| "1".to_string());
                let points = match sweep {
                    SweepOutcome::CannotRun(reason) => {
                        println!("{name:<18} {label:<8} cannot run: {reason}");
                        continue;
                    }
                    SweepOutcome::Ran(points) => points,
                };
                let tps = |p: &Option<DecodePoint>| match p {
                    Some(p) => format!("{:>9.1}", p.tokens_per_sec),
                    None => format!("{:>9}", "-"),
                };
                // Power and dmabuf describe only the NPU runtime: analytic
                // points carry no engine activity.
                let (power, dmabuf) = match &points[1] {
                    Some(p8) if p8.has_engine_activity() => (
                        format!("{:>9.2}", pm.measure(p8).power_w),
                        format!(
                            "{:>12.0}",
                            measure_overhead(model, p8, 4096, name).dmabuf_mib
                        ),
                    ),
                    _ => (format!("{:>9}", "-"), format!("{:>12}", "-")),
                };
                let (b1, b8, b16) = (tps(&points[0]), tps(&points[1]), tps(&points[2]));
                println!("{name:<18} {label:<8} {b1} {b8} {b16} {power} {dmabuf} {shard:>9}");
            }
        }
    }
}
