//! The uniform execution interface every decode/prefill engine plugs
//! into.
//!
//! The paper's evaluation (Figure 13) is a comparison across *systems* —
//! the NPU runtime, llama.cpp's OpenCL backend on the Adreno GPU, QNN's
//! FP16 deployment — and the roadmap adds more (a CPU fallback today;
//! real OpenCL/QNN backends in the llm.npu / PowerInfer-2 direction
//! later). [`Backend`] is the trait they all implement, so row
//! generators and the device-sweep and paper-figures examples iterate one
//! `&[Box<dyn Backend>]` instead of hard-coding each engine:
//!
//! - [`Backend::fits`] — capacity probe. For the simulated NPU this
//!   builds the [`crate::session::ShardPlan`] VA placement and *reports*
//!   how many 32-bit sessions the model needs instead of erroring, so
//!   callers can distinguish "runs sharded" from "cannot run at all".
//!   For QNN it rejects `batch > 1`: static graphs cannot express the
//!   dynamic batch test-time scaling needs.
//! - [`Backend::decode`] — one measured decode step at a batch and
//!   context length, as a [`DecodePoint`].
//! - [`Backend::prefill`] — a measured prompt prefill, as a
//!   [`PrefillPoint`].
//!
//! Implementations: [`NpuSimBackend`] (the full simulator pipeline),
//! [`GpuBaseline`], [`QnnFp16Baseline`] and [`CpuRefBackend`] (analytic
//! rooflines from [`crate::baselines`]). Analytic backends report zero
//! engine activity in their points; power/engine-utilization consumers
//! treat such points as opaque throughput numbers.
//!
//! Deployments larger than one 32-bit session are not errors: the NPU
//! backend builds a [`crate::session::ShardPlan`] and runs the paper's
//! Section 8 multi-session sharding automatically.
//!
//! # Examples
//!
//! Probe and decode through the trait — including a model that only
//! runs sharded on the Snapdragon 8 Gen 2:
//!
//! ```
//! use edgellm::config::ModelId;
//! use hexsim::prelude::*;
//! use npuscale::backend::{Backend, NpuSimBackend};
//!
//! let v73 = NpuSimBackend::new(DeviceProfile::v73());
//! // Qwen-3B exceeds one ~2 GiB session: fits reports the shard count...
//! let fit = v73.fits(ModelId::Qwen3B, 1, 1024).unwrap();
//! assert_eq!(fit.sessions, 2);
//! // ...and decode executes that plan instead of erroring.
//! let point = v73.decode(ModelId::Qwen3B, 1, 1024).unwrap();
//! assert_eq!(point.sessions, 2);
//! assert!(point.tokens_per_sec > 0.5);
//!
//! // Smaller models stay on the single-session path.
//! let small = v73.decode(ModelId::Qwen1_5B, 1, 1024).unwrap();
//! assert_eq!(small.sessions, 1);
//! ```

use edgellm::config::{ModelConfig, ModelId};
use hexsim::cost::NUM_ENGINES;
use hexsim::prelude::*;

use crate::baselines::{CpuRefBackend, GpuBaseline, QnnFp16Baseline};
use crate::pipeline::{DecodePoint, Deployment, DispatchMode, PrefillPoint};
use crate::session::ShardPlan;

/// Result of a [`Backend::fits`] capacity probe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FitReport {
    /// Number of NPU sessions (32-bit VA spaces) the deployment needs.
    /// `1` means it runs in one session today; `> 1` means it only runs
    /// with the paper's Section 8 multi-session sharding. Non-NPU
    /// backends always report `1`.
    pub sessions: usize,
    /// Total device-resident bytes the probe accounted (weights + KV).
    pub bytes: u64,
}

/// A decode/prefill execution engine: the simulated NPU runtime or one of
/// the comparison systems.
pub trait Backend {
    /// System label, as used in the paper's figure legends.
    fn name(&self) -> &'static str;

    /// Probes whether `model` at `batch`/`ctx_len` can run, without
    /// running it. Errors only when the backend cannot express the
    /// configuration at all (e.g. QNN's static graphs at `batch > 1`, or
    /// a single buffer larger than one NPU session's VA space).
    fn fits(&self, model: ModelId, batch: usize, ctx_len: usize) -> SimResult<FitReport>;

    /// Measures one decode step.
    fn decode(&self, model: ModelId, batch: usize, ctx_len: usize) -> SimResult<DecodePoint>;

    /// Measures a full prefill.
    fn prefill(&self, model: ModelId, prompt_len: usize) -> SimResult<PrefillPoint>;
}

/// Builds a [`DecodePoint`] for an analytic (roofline) backend: pure
/// throughput, no engine activity, no CPU share. A zero batch is
/// [`SimError::InvalidConfig`], as it is on the NPU.
fn analytic_decode_point(
    device: &str,
    model: ModelId,
    batch: usize,
    ctx_len: usize,
    tokens_per_sec: f64,
) -> SimResult<DecodePoint> {
    if batch == 0 {
        return Err(SimError::InvalidConfig {
            reason: "empty decode step: a decode step needs at least one sequence".into(),
        });
    }
    Ok(DecodePoint {
        model: model.label().to_string(),
        device: device.to_string(),
        batch,
        ctx_len,
        step_secs: batch as f64 / tokens_per_sec,
        tokens_per_sec,
        cpu_share: 0.0,
        engine_secs: [0.0; NUM_ENGINES],
        sessions: 1,
    })
}

/// Builds a [`PrefillPoint`] for an analytic backend. An empty prompt is
/// [`SimError::InvalidConfig`], as it is on the NPU.
fn analytic_prefill_point(
    device: &str,
    model: ModelId,
    prompt_len: usize,
    tokens_per_sec: f64,
) -> SimResult<PrefillPoint> {
    if prompt_len == 0 {
        return Err(SimError::InvalidConfig {
            reason: "empty prompt: a prefill needs at least one token".into(),
        });
    }
    Ok(PrefillPoint {
        model: model.label().to_string(),
        device: device.to_string(),
        prompt_len,
        total_secs: prompt_len as f64 / tokens_per_sec,
        tokens_per_sec,
        sessions: 1,
    })
}

/// The paper's runtime on the simulated Hexagon NPU — the "Ours" series
/// of every figure: it plans each deployment and measures it through a
/// [`Deployment`]. [`NpuSimBackend::overlapped`] builds the async-dispatch
/// variant ("Ours (async)"): same kernels, same logits, but wall time is
/// the critical path of the Section 7.2.2 pipelined schedule instead of
/// the serial stage sum. [`NpuSimBackend::streamed`] adds the hot/cold
/// weight hierarchy on top of async dispatch ("Ours (streamed)"): cold
/// transformer layers live in a CPU-owned DDR staging region and stream
/// through a double-buffered window on the timeline's DMA lane, so a
/// deployment occupies far fewer sessions (or becomes runnable at all).
#[derive(Clone, Debug)]
pub struct NpuSimBackend {
    /// Device profile the pipeline simulates.
    pub device: DeviceProfile,
    /// Serial (historical, the default) or overlap-aware timing.
    pub dispatch: DispatchMode,
    /// When set, plans the hot/cold streaming placement
    /// ([`ShardPlan::build_streaming`]) instead of the fully resident one.
    pub streaming: bool,
}

impl NpuSimBackend {
    /// Backend for a device profile with serial dispatch (reproduces
    /// every pre-overlap number bit-for-bit).
    pub fn new(device: DeviceProfile) -> Self {
        NpuSimBackend {
            device,
            dispatch: DispatchMode::Serial,
            streaming: false,
        }
    }

    /// Backend with overlap-aware async dispatch: the CPU lm_head hides
    /// behind the next step's layers, command submission rides the
    /// double-buffered ring, and session switches overlap the previous
    /// shard's tail kernels.
    pub fn overlapped(device: DeviceProfile) -> Self {
        NpuSimBackend {
            device,
            dispatch: DispatchMode::Overlapped,
            streaming: false,
        }
    }

    /// Backend with the weight-streaming placement under overlap-aware
    /// dispatch: hot layers (entry and exit) stay resident while cold
    /// layers stream from DDR through a double-buffered window, their
    /// fetches prefetched on the DMA lane one layer ahead so steady-state
    /// decode only pays the *exposed* (non-hidden) fetch time. Streaming
    /// only makes sense with overlap — serial dispatch would expose every
    /// fetch — so the dispatch mode is fixed to
    /// [`DispatchMode::Overlapped`].
    pub fn streamed(device: DeviceProfile) -> Self {
        NpuSimBackend {
            device,
            dispatch: DispatchMode::Overlapped,
            streaming: true,
        }
    }

    /// The three runtime variants on one device, in fixed order: serial
    /// ("Ours"), overlap-aware ("Ours (async)"), weight-streamed
    /// ("Ours (streamed)"). With [`baselines`], the single construction
    /// point of every exhibit's backend set — destructure and pick the
    /// ones an exhibit needs.
    pub fn variants(device: &DeviceProfile) -> [NpuSimBackend; 3] {
        [
            NpuSimBackend::new(device.clone()),
            NpuSimBackend::overlapped(device.clone()),
            NpuSimBackend::streamed(device.clone()),
        ]
    }

    /// Plans the deployment's session placement: contiguous layer shards
    /// (each layer's weights plus its KV slice) across as many 32-bit
    /// sessions as the device needs (1 for everything that fits — the
    /// common case), or the hot/cold streaming placement when this
    /// backend streams. This is the plan [`Backend::decode`] executes;
    /// [`Backend::prefill`] of `n` tokens executes the plan for one
    /// sequence at context `n`.
    pub fn shard_plan(&self, model: ModelId, batch: usize, ctx_len: usize) -> SimResult<ShardPlan> {
        let cfg = ModelConfig::for_id(model);
        if self.streaming {
            ShardPlan::build_streaming(&cfg, self.device.session_va_bytes, batch, ctx_len)
        } else {
            ShardPlan::build(&cfg, self.device.session_va_bytes, batch, ctx_len)
        }
    }

    /// Plans `model` for `batch` sequences of `ctx_len` tokens, holds the
    /// plan to the device's session cap, and builds it under this
    /// backend's dispatch mode.
    pub(crate) fn deployment(
        &self,
        model: ModelId,
        batch: usize,
        ctx_len: usize,
    ) -> SimResult<Deployment> {
        let plan = self.shard_plan(model, batch, ctx_len)?;
        self.check_session_cap(&plan)?;
        Deployment::new(&self.device, model, &plan, self.dispatch)
    }

    /// Rejects plans that need more concurrent NPU sessions than the
    /// device exposes ([`DeviceProfile::max_sessions`] — the rpcmem
    /// driver's per-process session cap). The cap is inclusive: a plan
    /// using exactly `max_sessions` still runs. This is the capacity
    /// pressure weight streaming relieves — the same deployment planned
    /// with [`NpuSimBackend::streamed`] needs fewer sessions.
    fn check_session_cap(&self, plan: &ShardPlan) -> SimResult<()> {
        if plan.sessions() > self.device.max_sessions {
            return Err(SimError::Unsupported {
                reason: format!(
                    "plan needs {} NPU sessions but {} exposes only {} \
                     (try the weight-streaming placement)",
                    plan.sessions(),
                    self.device.arch.soc_label(),
                    self.device.max_sessions
                ),
            });
        }
        Ok(())
    }
}

impl Backend for NpuSimBackend {
    fn name(&self) -> &'static str {
        if self.streaming {
            return "Ours (streamed)";
        }
        match self.dispatch {
            DispatchMode::Serial => "Ours",
            DispatchMode::Overlapped => "Ours (async)",
        }
    }

    /// Builds the [`ShardPlan`] — per-layer [`crate::session::MultiSession`]
    /// placement of each layer's weights and KV slice (a layer never
    /// splits across sessions, matching the paper's Section 8 sharding
    /// sketch) — and reports its session count: the VA gate becomes a
    /// shard count instead of a panic. Errors when one layer cannot map
    /// into a whole session, or when the plan exceeds the device's
    /// session cap (where the streaming backend may still fit).
    fn fits(&self, model: ModelId, batch: usize, ctx_len: usize) -> SimResult<FitReport> {
        let plan = self.shard_plan(model, batch, ctx_len)?;
        self.check_session_cap(&plan)?;
        Ok(FitReport {
            sessions: plan.sessions(),
            bytes: plan.bytes,
        })
    }

    /// Decodes through the shard plan: a one-session resident plan is
    /// the paper's single-session deployment, larger ones run the
    /// Section 8 multi-session execution (e.g. Qwen-3B on the 8 Gen 2
    /// decodes across 2 sessions instead of erroring), and streaming
    /// plans run the hot/cold layer walk.
    fn decode(&self, model: ModelId, batch: usize, ctx_len: usize) -> SimResult<DecodePoint> {
        self.deployment(model, batch, ctx_len)?
            .decode(batch, ctx_len)
    }

    fn prefill(&self, model: ModelId, prompt_len: usize) -> SimResult<PrefillPoint> {
        self.deployment(model, 1, prompt_len)?.prefill(prompt_len)
    }
}

impl Backend for GpuBaseline {
    fn name(&self) -> &'static str {
        "llama.cpp-OpenCL"
    }

    fn fits(&self, _model: ModelId, _batch: usize, _ctx_len: usize) -> SimResult<FitReport> {
        // Unified memory: no per-session VA gate on the GPU path.
        Ok(FitReport {
            sessions: 1,
            bytes: 0,
        })
    }

    fn decode(&self, model: ModelId, batch: usize, ctx_len: usize) -> SimResult<DecodePoint> {
        analytic_decode_point(
            "GPU",
            model,
            batch,
            ctx_len,
            self.decode_tps(model, batch, ctx_len),
        )
    }

    fn prefill(&self, model: ModelId, prompt_len: usize) -> SimResult<PrefillPoint> {
        analytic_prefill_point(
            "GPU",
            model,
            prompt_len,
            self.prefill_tps(model, prompt_len),
        )
    }
}

impl Backend for QnnFp16Baseline {
    fn name(&self) -> &'static str {
        "QNN FP16"
    }

    fn fits(&self, _model: ModelId, batch: usize, _ctx_len: usize) -> SimResult<FitReport> {
        if batch > 1 {
            return Err(SimError::Unsupported {
                reason: format!("QNN static graphs fix the decode batch at 1 (requested {batch})"),
            });
        }
        Ok(FitReport {
            sessions: 1,
            bytes: 0,
        })
    }

    fn decode(&self, model: ModelId, batch: usize, ctx_len: usize) -> SimResult<DecodePoint> {
        self.fits(model, batch, ctx_len)?;
        analytic_decode_point("QNN", model, batch, ctx_len, self.decode_tps(model))
    }

    fn prefill(&self, model: ModelId, prompt_len: usize) -> SimResult<PrefillPoint> {
        analytic_prefill_point(
            "QNN",
            model,
            prompt_len,
            self.prefill_tps(model, prompt_len),
        )
    }
}

impl Backend for CpuRefBackend {
    fn name(&self) -> &'static str {
        "CPU (cpu_ref)"
    }

    fn fits(&self, _model: ModelId, _batch: usize, _ctx_len: usize) -> SimResult<FitReport> {
        Ok(FitReport {
            sessions: 1,
            bytes: 0,
        })
    }

    fn decode(&self, model: ModelId, batch: usize, ctx_len: usize) -> SimResult<DecodePoint> {
        analytic_decode_point(
            "CPU",
            model,
            batch,
            ctx_len,
            self.decode_tps(model, batch, ctx_len),
        )
    }

    fn prefill(&self, model: ModelId, prompt_len: usize) -> SimResult<PrefillPoint> {
        analytic_prefill_point(
            "CPU",
            model,
            prompt_len,
            self.prefill_tps(model, prompt_len),
        )
    }
}

/// The analytic comparison systems, in the paper's legend order:
/// llama.cpp-OpenCL on the GPU, QNN FP16, then the CPU fallback. An
/// exhibit's backend set is the [`NpuSimBackend::variants`] it needs
/// followed by the baselines it compares against.
pub fn baselines() -> [Box<dyn Backend>; 3] {
    [
        Box::new(GpuBaseline::default()),
        Box::new(QnnFp16Baseline::default()),
        Box::new(CpuRefBackend::default()),
    ]
}

/// One backend's decode sweep over several batch sizes — the shared
/// row logic of the device-sweep surfaces (`device_sweep` and
/// `paper_figures`).
pub enum SweepOutcome {
    /// The smallest batch runs (possibly across several NPU sessions —
    /// multi-session sharded execution is a first-class outcome, not a
    /// failure). One entry per requested batch; `None` where that batch
    /// cannot run (QNN past batch 1, KV pushing past every session).
    /// Each point carries its own [`DecodePoint::sessions`] — the count
    /// can grow with batch as the KV cache grows.
    Ran(Vec<Option<DecodePoint>>),
    /// The configuration cannot run at all; carries the decode error.
    CannotRun(String),
}

impl SweepOutcome {
    /// Session counts across the measured points, deduplicated and
    /// ascending — `[1]` for a single-session row, `[2]`/`[3]`/... for a
    /// uniformly sharded one, several values when KV growth forces more
    /// sessions at larger batches. Empty for [`SweepOutcome::CannotRun`].
    fn session_counts(&self) -> Vec<usize> {
        let SweepOutcome::Ran(points) = self else {
            return Vec::new();
        };
        let mut counts: Vec<usize> = points.iter().flatten().map(|p| p.sessions).collect();
        counts.sort_unstable();
        counts.dedup();
        counts
    }

    /// Display tag for a sharded row — `"x2"`, or `"x3-4"` when KV
    /// growth pushes larger batches into more sessions — shared by the
    /// device-sweep surfaces. Only sharded points contribute (a row
    /// whose small batches run single-session while batch 16 spills to
    /// two sessions tags `"x2"`, not `"x1-2"`). `None` for rows with no
    /// sharded point and for [`SweepOutcome::CannotRun`].
    pub fn shard_tag(&self) -> Option<String> {
        let sharded: Vec<String> = self
            .session_counts()
            .into_iter()
            .filter(|&s| s > 1)
            .map(|s| s.to_string())
            .collect();
        if sharded.is_empty() {
            return None;
        }
        Some(format!("x{}", sharded.join("-")))
    }
}

/// Probes `backend` at each batch in `batches` (each independently —
/// KV growth can gate large batches even when batch 1 fits).
pub fn decode_sweep(
    backend: &dyn Backend,
    model: ModelId,
    ctx_len: usize,
    batches: &[usize],
) -> SweepOutcome {
    assert!(!batches.is_empty());
    let first = backend.decode(model, batches[0], ctx_len);
    if let Err(e) = &first {
        return SweepOutcome::CannotRun(e.to_string());
    }
    let mut points = vec![first.ok()];
    for &b in &batches[1..] {
        points.push(backend.decode(model, b, ctx_len).ok());
    }
    SweepOutcome::Ran(points)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Figure 13 comparison set: the serial NPU runtime plus the GPU
    /// and QNN baselines, in legend order.
    fn figure13_set(device: &DeviceProfile) -> Vec<Box<dyn Backend>> {
        let [serial, _, _] = NpuSimBackend::variants(device);
        let [gpu, qnn, _] = baselines();
        vec![Box::new(serial), gpu, qnn]
    }

    // -----------------------------------------------------------------
    // Golden parity: every Backend impl must reproduce the pre-redesign
    // numbers bit-for-bit.
    // -----------------------------------------------------------------

    #[test]
    fn npu_backend_matches_pipeline_bit_for_bit() {
        // The backend's plan for a model that fits is the paper's
        // single-session deployment, measured bit-for-bit.
        let device = DeviceProfile::v75();
        let cfg = ModelConfig::for_id(ModelId::Qwen1_5B);
        let deploy = |batch, ctx_len| {
            let plan =
                ShardPlan::single_session(&cfg, device.session_va_bytes, batch, ctx_len).unwrap();
            Deployment::new(&device, ModelId::Qwen1_5B, &plan, DispatchMode::Serial).unwrap()
        };
        let b = NpuSimBackend::new(device.clone());
        let via_trait = b.decode(ModelId::Qwen1_5B, 8, 1024).unwrap();
        let direct = deploy(8, 1024).decode(8, 1024).unwrap();
        assert_eq!(via_trait.step_secs, direct.step_secs);
        assert_eq!(via_trait.tokens_per_sec, direct.tokens_per_sec);
        assert_eq!(via_trait.cpu_share, direct.cpu_share);
        assert_eq!(via_trait.engine_secs, direct.engine_secs);
        let p_trait = b.prefill(ModelId::Qwen1_5B, 512).unwrap();
        let p_direct = deploy(1, 512).prefill(512).unwrap();
        assert_eq!(p_trait.total_secs, p_direct.total_secs);
        assert_eq!(p_trait.tokens_per_sec, p_direct.tokens_per_sec);
    }

    #[test]
    fn baseline_backends_match_rooflines_bit_for_bit() {
        let gpu = GpuBaseline::default();
        let qnn = QnnFp16Baseline::default();
        let cpu = CpuRefBackend::default();
        for model in [ModelId::Qwen1_5B, ModelId::Qwen3B] {
            for batch in [1usize, 4, 16] {
                assert_eq!(
                    Backend::decode(&gpu, model, batch, 1024)
                        .unwrap()
                        .tokens_per_sec,
                    gpu.decode_tps(model, batch, 1024)
                );
                assert_eq!(
                    Backend::decode(&cpu, model, batch, 1024)
                        .unwrap()
                        .tokens_per_sec,
                    cpu.decode_tps(model, batch, 1024)
                );
            }
            assert_eq!(
                Backend::decode(&qnn, model, 1, 1024)
                    .unwrap()
                    .tokens_per_sec,
                qnn.decode_tps(model)
            );
            for prompt in [256usize, 1024] {
                assert_eq!(
                    Backend::prefill(&gpu, model, prompt)
                        .unwrap()
                        .tokens_per_sec,
                    gpu.prefill_tps(model, prompt)
                );
                assert_eq!(
                    Backend::prefill(&qnn, model, prompt)
                        .unwrap()
                        .tokens_per_sec,
                    qnn.prefill_tps(model, prompt)
                );
                assert_eq!(
                    Backend::prefill(&cpu, model, prompt)
                        .unwrap()
                        .tokens_per_sec,
                    cpu.prefill_tps(model, prompt)
                );
            }
        }
    }

    // -----------------------------------------------------------------
    // The Figure 13 crossovers, via the trait.
    // -----------------------------------------------------------------

    #[test]
    fn gpu_wins_batch_1_ours_wins_batched() {
        let backends = figure13_set(&DeviceProfile::v75());
        let tps = |name: &str, batch: usize| {
            backends
                .iter()
                .find(|b| b.name() == name)
                .unwrap()
                .decode(ModelId::Qwen1_5B, batch, 1024)
                .unwrap()
                .tokens_per_sec
        };
        // Paper Figure 13: GPU edges out the NPU at batch 1...
        assert!(tps("llama.cpp-OpenCL", 1) > tps("Ours", 1) * 0.85);
        // ...but saturates early while ours keeps scaling.
        assert!(tps("Ours", 16) > tps("llama.cpp-OpenCL", 16) * 1.5);
    }

    #[test]
    fn qnn_decode_pays_the_fp16_penalty() {
        let backends = figure13_set(&DeviceProfile::v75());
        let qnn = backends.iter().find(|b| b.name() == "QNN FP16").unwrap();
        let ours = backends.iter().find(|b| b.name() == "Ours").unwrap();
        let qnn_b1 = qnn
            .decode(ModelId::Qwen1_5B, 1, 1024)
            .unwrap()
            .tokens_per_sec;
        // FP16 streams ~3.3 GB/step -> ~18 tok/s upper bound at 60 GB/s.
        assert!((10.0..25.0).contains(&qnn_b1), "qnn decode {qnn_b1}");
        // Static graphs cannot batch: the dynamic path laps it at batch 16.
        assert!(qnn.decode(ModelId::Qwen1_5B, 16, 1024).is_err());
        assert!(qnn.fits(ModelId::Qwen1_5B, 16, 1024).is_err());
        let ours_b16 = ours
            .decode(ModelId::Qwen1_5B, 16, 1024)
            .unwrap()
            .tokens_per_sec;
        assert!(ours_b16 > 3.0 * qnn_b1, "ours {ours_b16} vs qnn {qnn_b1}");
    }

    #[test]
    fn gpu_saturates_at_large_batch() {
        let gpu = GpuBaseline::default();
        let t1 = gpu.decode_tps(ModelId::Qwen1_5B, 1, 1024);
        let t8 = gpu.decode_tps(ModelId::Qwen1_5B, 8, 1024);
        let t16 = gpu.decode_tps(ModelId::Qwen1_5B, 16, 1024);
        // Paper Figure 13: GPU ~12-15 tok/s at batch 1 on the 1.5B model.
        assert!((8.0..20.0).contains(&t1), "gpu batch-1 {t1}");
        assert!(t8 > t1, "some batch benefit expected");
        // Compute-bound saturation: 16 is barely better than 8.
        assert!(t16 < t8 * 1.6, "t8 {t8} t16 {t16}");
    }

    #[test]
    fn prefill_ordering_matches_figure_13() {
        let qnn = QnnFp16Baseline::default();
        let gpu = GpuBaseline::default();
        // Paper Figure 13: QNN FP16 prefill around 1000-1700 tok/s, GPU in
        // the few-hundred range.
        let q = qnn.prefill_tps(ModelId::Qwen1_5B, 1024);
        assert!((700.0..2500.0).contains(&q), "qnn prefill {q}");
        let g = gpu.prefill_tps(ModelId::Qwen1_5B, 1024);
        assert!((100.0..900.0).contains(&g), "gpu prefill {g}");
    }

    #[test]
    fn cpu_ref_trails_every_accelerated_path() {
        let cpu = CpuRefBackend::default();
        let gpu = GpuBaseline::default();
        let npu = NpuSimBackend::new(DeviceProfile::v75());
        // Batch-1 decode is memory-bound around 10 tok/s on the big cores.
        let c1 = cpu.decode_tps(ModelId::Qwen1_5B, 1, 1024);
        assert!((5.0..16.0).contains(&c1), "cpu batch-1 {c1}");
        // The CPU saturates below the GPU and far below the batched NPU.
        let c16 = cpu.decode_tps(ModelId::Qwen1_5B, 16, 1024);
        assert!(c16 < gpu.decode_tps(ModelId::Qwen1_5B, 16, 1024));
        let n16 = npu
            .decode(ModelId::Qwen1_5B, 16, 1024)
            .unwrap()
            .tokens_per_sec;
        assert!(n16 > 4.0 * c16, "npu {n16} vs cpu {c16}");
        // CPU prefill is an order of magnitude below the NPU's.
        let cp = cpu.prefill_tps(ModelId::Qwen1_5B, 512);
        let np = npu.prefill(ModelId::Qwen1_5B, 512).unwrap().tokens_per_sec;
        assert!(np > 5.0 * cp, "npu prefill {np} vs cpu {cp}");
    }

    // -----------------------------------------------------------------
    // The fits probe and the VA gate.
    // -----------------------------------------------------------------

    #[test]
    fn sharded_decode_replaces_the_va_gate() {
        // The Figure 11 gate: Qwen3B exceeds the 8G2's per-session VA
        // space. The single-session gate still refuses its plan, but the
        // backend decodes through the 2-session shard.
        let v73 = NpuSimBackend::new(DeviceProfile::v73());
        let cfg = ModelConfig::for_id(ModelId::Qwen3B);
        let va = DeviceProfile::v73().session_va_bytes;
        assert!(matches!(
            ShardPlan::single_session(&cfg, va, 1, 1024),
            Err(SimError::VaSpaceExceeded { .. })
        ));
        let fit = v73.fits(ModelId::Qwen3B, 1, 1024).unwrap();
        assert_eq!(fit.sessions, 2, "needs sharding: {fit:?}");
        let point = v73.decode(ModelId::Qwen3B, 1, 1024).unwrap();
        assert_eq!(point.sessions, 2);
        assert!(point.tokens_per_sec > 0.5);
        let prefill = v73.prefill(ModelId::Qwen3B, 512).unwrap();
        assert_eq!(prefill.sessions, 2);
        // On the paper's primary device one session suffices.
        let v75 = NpuSimBackend::new(DeviceProfile::v75());
        assert_eq!(v75.fits(ModelId::Qwen3B, 1, 1024).unwrap().sessions, 1);
        assert_eq!(v75.decode(ModelId::Qwen3B, 1, 1024).unwrap().sessions, 1);
    }

    #[test]
    fn qwen7b_runs_sharded_where_it_never_fit() {
        // The 7B deployment needs 2 sessions even on the 4 GiB-VA devices
        // and 3 on the 8 Gen 2 — previously unreachable configurations.
        for (device, sessions) in [
            (DeviceProfile::v73(), 3),
            (DeviceProfile::v75(), 2),
            (DeviceProfile::v79(), 2),
        ] {
            let b = NpuSimBackend::new(device.clone());
            let fit = b.fits(ModelId::Qwen7B, 1, 1024).unwrap();
            assert_eq!(
                fit.sessions,
                sessions,
                "{}: {fit:?}",
                device.arch.soc_label()
            );
            let p = b.decode(ModelId::Qwen7B, 1, 1024).unwrap();
            assert_eq!(p.sessions, sessions);
            assert!(
                p.tokens_per_sec > 0.2,
                "{}: 7B decode {}",
                device.arch.soc_label(),
                p.tokens_per_sec
            );
        }
    }

    #[test]
    fn decode_sweep_classifies_every_outcome() {
        // NPU on 8G2 with Qwen3B: runs sharded across 2 sessions.
        let v73 = NpuSimBackend::new(DeviceProfile::v73());
        let sweep = decode_sweep(&v73, ModelId::Qwen3B, 1024, &[1, 8]);
        assert_eq!(sweep.session_counts(), vec![2]);
        match sweep {
            SweepOutcome::Ran(points) => assert!(points.iter().all(|p| p.is_some())),
            _ => panic!("Qwen3B must run sharded on 8G2"),
        }
        // QNN runs batch 1 and dashes out the batched columns.
        let qnn = QnnFp16Baseline::default();
        let sweep = decode_sweep(&qnn, ModelId::Qwen1_5B, 1024, &[1, 8, 16]);
        assert_eq!(sweep.session_counts(), vec![1]);
        match sweep {
            SweepOutcome::Ran(points) => {
                assert!(points[0].is_some());
                assert!(points[1].is_none() && points[2].is_none());
            }
            _ => panic!("QNN batch 1 must run"),
        }
        // The GPU roofline runs everything.
        match decode_sweep(
            &GpuBaseline::default(),
            ModelId::Qwen1_5B,
            1024,
            &[1, 8, 16],
        ) {
            SweepOutcome::Ran(points) => assert!(points.iter().all(|p| p.is_some())),
            _ => panic!("GPU must run"),
        }
        // KV growth can raise the session count within one row: Qwen7B
        // on 8G2 decodes x3 at small batches and x4 at batch 16.
        let counts = decode_sweep(&v73, ModelId::Qwen7B, 1024, &[1, 8, 16]).session_counts();
        assert_eq!(counts.first(), Some(&3));
        assert!(counts.iter().all(|&c| c >= 3));
    }

    #[test]
    fn shard_tag_reports_only_sharded_points() {
        let point = |sessions: usize| {
            Some(DecodePoint {
                model: "Q3".to_string(),
                device: "8G3".to_string(),
                batch: 1,
                ctx_len: 8192,
                step_secs: 0.1,
                tokens_per_sec: 10.0,
                cpu_share: 0.2,
                engine_secs: [0.0; NUM_ENGINES],
                sessions,
            })
        };
        // A row where batch 1 runs single-session but batch 16's KV
        // spills to two sessions tags "x2" — not "x1-2".
        let mixed = SweepOutcome::Ran(vec![point(1), point(2)]);
        assert_eq!(mixed.session_counts(), vec![1, 2]);
        assert_eq!(mixed.shard_tag(), Some("x2".to_string()));
        // Fully sharded rows span their counts; unsharded rows tag None.
        let grown = SweepOutcome::Ran(vec![point(3), point(4)]);
        assert_eq!(grown.shard_tag(), Some("x3-4".to_string()));
        let single = SweepOutcome::Ran(vec![point(1), None]);
        assert_eq!(single.shard_tag(), None);
        assert_eq!(
            SweepOutcome::CannotRun("nope".to_string()).shard_tag(),
            None
        );
    }

    #[test]
    fn fits_agrees_with_decode_across_devices_and_models() {
        // Since sharded execution landed, every deployment fits() accepts
        // must actually decode, at exactly the planned session count.
        for device in DeviceProfile::all() {
            let b = NpuSimBackend::new(device.clone());
            for model in ModelId::on_device() {
                let fit = b.fits(model, 1, 1024).unwrap();
                let point = b.decode(model, 1, 1024).unwrap_or_else(|e| {
                    panic!(
                        "{}/{}: fits {:?} but decode failed: {e}",
                        device.arch.soc_label(),
                        model.label(),
                        fit
                    )
                });
                assert_eq!(
                    point.sessions,
                    fit.sessions,
                    "{}/{}",
                    device.arch.soc_label(),
                    model.label()
                );
            }
        }
    }

    #[test]
    fn fits_agrees_with_decode_at_kv_heavy_configurations() {
        // Large batch x context makes the per-layer KV slices rival the
        // weights, which is exactly where a planner/heap placement
        // divergence would make fits() accept what decode() rejects
        // (weights allocate before KV, packing sessions differently from
        // the plan's combined per-layer units). The heap's envelope
        // semantics make allocation order irrelevant; this pins that.
        let b = NpuSimBackend::new(DeviceProfile::v75());
        for (model, batch, ctx_len) in [
            (ModelId::Qwen1_5B, 32, 8192),
            (ModelId::Qwen3B, 16, 8192),
            (ModelId::Llama3B, 16, 8192),
            (ModelId::Qwen1_5B, 16, 2048),
        ] {
            match b.fits(model, batch, ctx_len) {
                Ok(fit) => {
                    let point = b.decode(model, batch, ctx_len).unwrap_or_else(|e| {
                        panic!(
                            "{}@b{batch}/ctx{ctx_len}: fits {fit:?} but decode failed: {e}",
                            model.label()
                        )
                    });
                    assert_eq!(point.sessions, fit.sessions);
                }
                Err(_) => assert!(b.decode(model, batch, ctx_len).is_err()),
            }
        }
        // The original repro: Qwen1.5B at batch 32 / ctx 8192 on the
        // paper's primary device needs 2 sessions and must run there.
        let fit = b.fits(ModelId::Qwen1_5B, 32, 8192).unwrap();
        assert!(fit.sessions > 1, "{fit:?}");
    }

    // -----------------------------------------------------------------
    // The weight-streaming backend and the session cap.
    // -----------------------------------------------------------------

    #[test]
    fn streamed_backend_matches_streaming_measure_bit_for_bit() {
        let device = DeviceProfile::v73();
        let b = NpuSimBackend::streamed(device.clone());
        assert_eq!(b.name(), "Ours (streamed)");
        let via_trait = b.decode(ModelId::Qwen7B, 8, 1024).unwrap();
        let cfg = ModelConfig::for_id(ModelId::Qwen7B);
        let plan = ShardPlan::build_streaming(&cfg, device.session_va_bytes, 8, 1024).unwrap();
        let direct = Deployment::new(&device, ModelId::Qwen7B, &plan, DispatchMode::Overlapped)
            .and_then(|dep| dep.decode(8, 1024))
            .unwrap();
        assert_eq!(via_trait.step_secs, direct.step_secs);
        assert_eq!(via_trait.tokens_per_sec, direct.tokens_per_sec);
        assert_eq!(via_trait.engine_secs, direct.engine_secs);
        // The streaming placement collapses the 7B's 3 resident sessions
        // on the 8 Gen 2 to a single one, and fits() reports the same.
        assert_eq!(via_trait.sessions, 1);
        let fit = b.fits(ModelId::Qwen7B, 8, 1024).unwrap();
        assert_eq!(fit.sessions, 1);
        let resident = NpuSimBackend::overlapped(device);
        assert_eq!(resident.fits(ModelId::Qwen7B, 8, 1024).unwrap().sessions, 3);
    }

    #[test]
    fn session_cap_gates_resident_but_streaming_still_runs() {
        // Qwen-7B at batch 8 / ctx 8192 on the 8 Gen 2: the resident plan
        // needs more sessions than the rpcmem driver exposes, so both the
        // probe and the measurement reject it — while the streaming
        // placement stays under the cap and decodes.
        let device = DeviceProfile::v73();
        let resident = NpuSimBackend::overlapped(device.clone());
        let streamed = NpuSimBackend::streamed(device.clone());
        let fit_err = resident.fits(ModelId::Qwen7B, 8, 8192).unwrap_err();
        assert!(matches!(fit_err, SimError::Unsupported { .. }), "{fit_err}");
        assert!(resident.decode(ModelId::Qwen7B, 8, 8192).is_err());
        let fit = streamed.fits(ModelId::Qwen7B, 8, 8192).unwrap();
        assert!(fit.sessions <= device.max_sessions, "{fit:?}");
        let point = streamed.decode(ModelId::Qwen7B, 8, 8192).unwrap();
        assert_eq!(point.sessions, fit.sessions);
        assert!(point.tokens_per_sec > 0.2, "{}", point.tokens_per_sec);
        // The cap is inclusive: the resident 7B batch-16 plan lands on
        // exactly max_sessions and must keep running.
        let at_cap = NpuSimBackend::new(device.clone());
        let fit = at_cap.fits(ModelId::Qwen7B, 16, 1024).unwrap();
        assert_eq!(fit.sessions, device.max_sessions);
        assert!(at_cap.decode(ModelId::Qwen7B, 16, 1024).is_ok());
    }

    /// All six backends: the three runtime variants, then the baselines.
    fn every_backend(device: &DeviceProfile) -> Vec<Box<dyn Backend>> {
        let variants = NpuSimBackend::variants(device).map(|b| Box::new(b) as Box<dyn Backend>);
        variants.into_iter().chain(baselines()).collect()
    }

    #[test]
    fn a_zero_batch_decode_is_a_typed_error() {
        for backend in every_backend(&DeviceProfile::v75()) {
            let err = backend.decode(ModelId::Qwen1_5B, 0, 1024).unwrap_err();
            assert!(
                matches!(&err, SimError::InvalidConfig { reason } if reason.contains("empty decode step")),
                "{}: {err}",
                backend.name()
            );
        }
    }

    #[test]
    fn an_empty_prompt_prefill_is_a_typed_error() {
        for backend in every_backend(&DeviceProfile::v75()) {
            let err = backend.prefill(ModelId::Qwen1_5B, 0).unwrap_err();
            assert!(
                matches!(&err, SimError::InvalidConfig { reason } if reason.contains("empty prompt")),
                "{}: {err}",
                backend.name()
            );
        }
    }
}
