//! Integration checks that every regenerated exhibit preserves the shape
//! of the paper's result: who wins, by roughly what factor, and where the
//! crossovers fall.

use mathsynth::mathgen::DatasetKind;
use npuscale::experiments;
use npuscale::pareto::{pareto_panel, Method};
use npuscale_repro::prelude::*;

/// The serial NPU runtime alone: Figures 16 and 17 measure *our*
/// runtime's overheads and context sensitivity.
fn serial_npu(device: &DeviceProfile) -> Vec<Box<dyn Backend>> {
    let [serial, _, _] = NpuSimBackend::variants(device);
    vec![Box::new(serial)]
}

#[test]
fn fig5_accuracy_is_monotone_in_budget() {
    let rows = experiments::fig5_rows(2);
    for model in ["Llama3.2-1B-Instruct", "Qwen2.5-1.5B-Instruct"] {
        let series: Vec<f64> = rows
            .iter()
            .filter(|r| r.model == model)
            .map(|r| r.accuracy_pct)
            .collect();
        assert_eq!(series.len(), 7);
        for w in series.windows(2) {
            assert!(w[1] >= w[0] - 2.0, "{model}: non-monotone {series:?}");
        }
        // Budget 16 delivers a large gain over budget 1 (paper: ~2-3x).
        assert!(series[6] > series[0] * 1.7, "{model}: {series:?}");
    }
}

#[test]
fn fig8_softmax_share_grows_and_dominates() {
    let rows = experiments::fig8_rows();
    for w in rows.windows(2) {
        assert!(w[1].softmax_pct > w[0].softmax_pct);
        assert!(w[1].load_store_pct < w[0].load_store_pct);
    }
    assert!(rows.last().unwrap().softmax_pct > 75.0);
}

#[test]
fn fig11_throughput_ordering() {
    let rows = experiments::fig11_rows();
    // 3B models are absent on 8G2 and present elsewhere.
    let gate = rows
        .iter()
        .filter(|r| r.device == "8G2" && (r.model == "Q3" || r.model == "L3"))
        .all(|r| r.tokens_per_sec.is_none());
    assert!(gate, "8G2 must reject 3B models");
    // Throughput at batch 16 exceeds batch 1 everywhere it runs.
    for device in ["8G2", "8G3", "8G4"] {
        for model in ["L1", "Q1.5"] {
            let get = |b: usize| {
                rows.iter()
                    .find(|r| r.device == device && r.model == model && r.batch == b)
                    .and_then(|r| r.tokens_per_sec)
                    .unwrap()
            };
            assert!(get(16) > 4.0 * get(1), "{device}/{model}");
        }
    }
}

#[test]
fn fig13_crossover_gpu_vs_npu() {
    // The Figure 13 set: the serial NPU runtime, then the GPU and QNN
    // baselines in the paper's legend order.
    let [gpu, qnn, _] = baselines();
    let mut backends = serial_npu(&DeviceProfile::v75());
    backends.extend([gpu, qnn]);
    let rows = experiments::fig13_decode_rows(&backends);
    let get = |system: &str, batch: usize| {
        rows.iter()
            .find(|(s, p)| *s == system && p.model == "Q1.5" && p.batch == batch)
            .map(|(_, p)| p.tokens_per_sec)
            .unwrap()
    };
    // Paper: GPU decodes faster at batch 1; ours wins at large batch.
    assert!(get("llama.cpp-OpenCL", 1) > get("Ours", 1) * 0.85);
    assert!(get("Ours", 16) > get("llama.cpp-OpenCL", 16) * 1.5);

    // Prefill: ours consistently above the GPU.
    let prefill = experiments::fig13_prefill_rows(&backends);
    for prompt in [512usize, 1024, 2048] {
        let point = |system: &str| {
            prefill
                .iter()
                .find(|(s, p)| *s == system && p.model == "Q1.5" && p.prompt_len == prompt)
                .map(|(_, p)| p)
                .unwrap()
        };
        let (ours, gpu) = (point("Ours"), point("llama.cpp-OpenCL"));
        assert!(
            ours.tokens_per_sec > gpu.tokens_per_sec,
            "prompt {prompt}: ours {} vs gpu {}",
            ours.tokens_per_sec,
            gpu.tokens_per_sec
        );
    }
}

#[test]
fn fig16_dmabuf_constant_and_rss_mild() {
    let rows = experiments::fig16_rows(&serial_npu(&DeviceProfile::v75()));
    let q15: Vec<_> = rows.iter().filter(|r| r.model == "Q1.5").collect();
    let dmabuf0 = q15[0].dmabuf_mib;
    for r in &q15 {
        assert!(
            (r.dmabuf_mib - dmabuf0).abs() < 1e-9,
            "dmabuf must not vary"
        );
        assert!(r.cpu_util_pct <= 400.0);
    }
    let rss_first = q15.first().unwrap().cpu_rss_mib;
    let rss_last = q15.last().unwrap().cpu_rss_mib;
    assert!(rss_last > rss_first);
    assert!(rss_last < rss_first * 1.4, "RSS growth must stay mild");
}

#[test]
fn fig17_prompt_length_effect_is_mild() {
    let rows = experiments::fig17_rows(&serial_npu(&DeviceProfile::v75()));
    for model in ["Q1.5", "Q3"] {
        for batch in [1usize, 8] {
            let get = |prompt: usize| {
                rows.iter()
                    .find(|(_, p)| p.model == model && p.batch == batch && p.ctx_len == prompt)
                    .map(|(_, p)| p.tokens_per_sec)
                    .unwrap()
            };
            let drop = 1.0 - get(4096) / get(512);
            assert!((0.0..0.5).contains(&drop), "{model}@b{batch}: drop {drop}");
        }
    }
}

#[test]
fn fig10_tts_advances_the_frontier() {
    // One panel suffices for the integration check; the paper_figures
    // example prints all eight.
    let points = pareto_panel(
        &DeviceProfile::v75(),
        DatasetKind::Math500Like,
        Method::BestOfN,
        17,
    );
    let best_q15 = points
        .iter()
        .filter(|p| p.series == "Q1.5-TTS")
        .map(|p| p.accuracy_pct)
        .fold(0.0f64, f64::max);
    let q3_base = points
        .iter()
        .find(|p| p.series == "Q3-base")
        .unwrap()
        .accuracy_pct;
    assert!(
        best_q15 > q3_base,
        "Q1.5+TTS {best_q15}% must beat Q3 base {q3_base}%"
    );
}
