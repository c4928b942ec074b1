//! Memory and CPU-utilization accounting (Figure 16, Section 7.5).
//!
//! The paper reports three runtime footprints during decode: dmabuf (NPU
//! shared memory: weights + KV cache, constant in batch), CPU resident
//! memory (lm_head weights, logits buffers, runtime — growing mildly with
//! batch), and CPU utilization (pinned near 3-3.5 of 4 big cores, rising
//! with the vocabulary-projection load).

use edgellm::config::{ModelConfig, ModelId};

use crate::pipeline::DecodePoint;

/// One memory/CPU overhead measurement.
#[derive(Clone, Debug)]
pub struct OverheadPoint {
    /// System label (the backend the decode point came from).
    pub system: String,
    /// Model label.
    pub model: String,
    /// Decode batch size.
    pub batch: usize,
    /// CPU resident memory in MiB.
    pub cpu_rss_mib: f64,
    /// NPU shared-memory (dmabuf) footprint in MiB.
    pub dmabuf_mib: f64,
    /// CPU utilization in percent (400% = four cores saturated).
    pub cpu_util_pct: f64,
}

/// Fixed runtime overhead resident on the CPU (code, allocator, tokenizer,
/// graph metadata), MiB.
const RUNTIME_RSS_MIB: f64 = 22.0;

/// Computes the overhead point for a decode measurement at a context
/// budget (4096 in the paper's Section 7.5). `system` labels the backend
/// the point was measured on.
pub fn measure_overhead(
    model: ModelId,
    point: &DecodePoint,
    ctx_budget: usize,
    system: &str,
) -> OverheadPoint {
    let cfg = ModelConfig::for_id(model);
    let mib = |b: f64| b / (1024.0 * 1024.0);

    // CPU RSS: lm_head weights (~1 byte/weight on the CPU path), logits
    // (f32 per batch row), activations staged for the NPU handoff.
    let lm_head = cfg.cpu_lm_head_bytes() as f64;
    let logits = (point.batch * cfg.vocab * 4) as f64;
    let staging = (point.batch * cfg.hidden * 4 * 8) as f64;
    let cpu_rss_mib = mib(lm_head + logits + staging) + RUNTIME_RSS_MIB;

    // dmabuf: constant in batch (weights + KV budget + pools).
    let dmabuf_mib = mib(cfg.dmabuf_bytes(ctx_budget) as f64);

    // CPU utilization: ~3 cores of polling/orchestration baseline plus the
    // logits share of the step mapped onto the big cores.
    let cpu_util_pct = 100.0 * (3.0 + 0.6 * point.cpu_share * 4.0).min(4.0);

    OverheadPoint {
        system: system.to_string(),
        model: point.model.clone(),
        batch: point.batch,
        cpu_rss_mib,
        dmabuf_mib,
        cpu_util_pct,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Deployment, DispatchMode};
    use crate::session::ShardPlan;
    use hexsim::prelude::*;

    /// Serial single-session decode on the paper's primary device.
    fn point(model: ModelId, batch: usize) -> OverheadPoint {
        let d = DeviceProfile::v75();
        let p =
            ShardPlan::single_session(&ModelConfig::for_id(model), d.session_va_bytes, batch, 1024)
                .and_then(|plan| Deployment::new(&d, model, &plan, DispatchMode::Serial))
                .and_then(|dep| dep.decode(batch, 1024))
                .unwrap();
        measure_overhead(model, &p, 4096, "Ours")
    }

    #[test]
    fn dmabuf_matches_paper_section_7_5() {
        // Paper: 1056 MiB (1.5B) and 2090 MiB (3B) at a 4096 context
        // budget, constant across batch sizes.
        let q15_b1 = point(ModelId::Qwen1_5B, 1);
        let q15_b16 = point(ModelId::Qwen1_5B, 16);
        assert!((q15_b1.dmabuf_mib - q15_b16.dmabuf_mib).abs() < 1e-9);
        assert!(
            (900.0..1250.0).contains(&q15_b1.dmabuf_mib),
            "1.5B dmabuf {} MiB (paper 1056)",
            q15_b1.dmabuf_mib
        );
        let q3 = point(ModelId::Qwen3B, 1);
        assert!(
            (1800.0..2400.0).contains(&q3.dmabuf_mib),
            "3B dmabuf {} MiB (paper 2090)",
            q3.dmabuf_mib
        );
    }

    #[test]
    fn cpu_rss_in_figure_16_range_and_growing() {
        let b1 = point(ModelId::Qwen1_5B, 1);
        let b16 = point(ModelId::Qwen1_5B, 16);
        // Paper Figure 16a: ~250-300 MiB, rising mildly with batch.
        assert!(
            (180.0..340.0).contains(&b1.cpu_rss_mib),
            "batch-1 rss {}",
            b1.cpu_rss_mib
        );
        assert!(b16.cpu_rss_mib > b1.cpu_rss_mib);
        assert!(b16.cpu_rss_mib - b1.cpu_rss_mib < 80.0);
    }

    #[test]
    fn cpu_utilization_limited_to_four_cores() {
        let b1 = point(ModelId::Qwen1_5B, 1);
        let b16 = point(ModelId::Qwen1_5B, 16);
        // Paper Figure 16b: ~320% rising to ~340%, never above 400%.
        assert!(b1.cpu_util_pct >= 295.0 && b1.cpu_util_pct <= 400.0);
        assert!(b16.cpu_util_pct > b1.cpu_util_pct);
        assert!(b16.cpu_util_pct <= 400.0);
    }
}
