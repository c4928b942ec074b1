//! Accuracy-vs-latency joins for the test-time-scaling trade-off
//! (Figure 10).
//!
//! Combines the calibrated accuracy of a scaling method at budget `N`
//! (from `ttscale`) with the measured per-token decode latency at batch
//! `N` (from the pipeline), including the context growth that test-time
//! scaling causes and the reward-model scoring overhead (the paper notes
//! its cost axis "accounts for the increased context length introduced by
//! TTS").

use edgellm::config::{ModelConfig, ModelId};
use hexsim::prelude::*;
use mathsynth::mathgen::{DatasetKind, TaskGenerator};
use ttscale::beam_search::{self, BeamSearchConfig};
use ttscale::best_of_n;
use ttscale::calib::mean_completion_tokens;
use ttscale::policy::CalibratedPolicy;
use ttscale::verifier::{SimOrm, SimPrm};

use crate::pipeline::{Deployment, DispatchMode};
use crate::session::ShardPlan;

/// Scaling method of a Pareto point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    /// Conventional single-sample decoding.
    Base,
    /// Best-of-N with the outcome reward model.
    BestOfN,
    /// Step-level beam search with the process reward model.
    BeamSearch,
}

impl Method {
    /// Label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Method::Base => "base",
            Method::BestOfN => "Best-of-N",
            Method::BeamSearch => "Beam Search",
        }
    }
}

/// One point of the Figure 10 trade-off space.
#[derive(Clone, Debug)]
pub struct ParetoPoint {
    /// Series label as in the paper's legend ("Q1.5-TTS", "Q3-base", ...).
    pub series: String,
    /// Method.
    pub method: Method,
    /// Dataset label.
    pub dataset: String,
    /// Device label.
    pub device: String,
    /// Generation budget (decode batch).
    pub budget: usize,
    /// Task accuracy in percent.
    pub accuracy_pct: f64,
    /// Average per-token decode latency in seconds (the cost axis).
    pub per_token_latency_s: f64,
}

/// Number of tasks evaluated per accuracy point.
const TASKS_PER_POINT: usize = 400;
/// Prompt length assumed for the latency coupling.
const PROMPT_LEN: usize = 256;

/// Decode latency per token at a batch size, with TTS context growth, in
/// the paper's single-session serial deployment (errors where the VA
/// gate refuses the model).
fn per_token_latency(
    device: &DeviceProfile,
    model: ModelId,
    dataset: DatasetKind,
    batch: usize,
) -> SimResult<f64> {
    // Mid-generation context: prompt plus half the mean completion per
    // sample (every sample lengthens its own context).
    let ctx = PROMPT_LEN + mean_completion_tokens(dataset) / 2;
    let cfg = ModelConfig::for_id(model);
    let plan = ShardPlan::single_session(&cfg, device.session_va_bytes, batch, ctx)?;
    let point = Deployment::new(device, model, &plan, DispatchMode::Serial)?.decode(batch, ctx)?;
    Ok(point.step_secs)
}

/// Reward-model scoring overhead per generated token: the PRM/ORM (a
/// Skywork-1.5B-class scorer) prefills every candidate's new tokens, so the
/// amortized per-token overhead is `batch / prm_prefill_tps`.
fn scorer_overhead_per_token(device: &DeviceProfile, batch: usize) -> SimResult<f64> {
    let scorer = ModelId::Qwen1_5B;
    let cfg = ModelConfig::for_id(scorer);
    let plan = ShardPlan::single_session(&cfg, device.session_va_bytes, 1, 256)?;
    let prm = Deployment::new(device, scorer, &plan, DispatchMode::Serial)?.prefill(256)?;
    Ok(batch as f64 / prm.tokens_per_sec)
}

/// Computes the Figure 10 points for one (device, dataset) panel.
///
/// TTS series: Q1.5/Q3/L1/L3 at budgets {1, 2, 4, 8, 16}; base series:
/// Q3/L3/Q7 at batch 1. Models that do not fit the device's session VA
/// (e.g. Qwen-7B on a 4 GiB session) are estimated through the
/// multi-session extension (Section 8), i.e. with the VA gate lifted.
pub fn pareto_panel(
    device: &DeviceProfile,
    dataset: DatasetKind,
    method: Method,
    seed: u64,
) -> Vec<ParetoPoint> {
    let budgets = [1usize, 2, 4, 8, 16];
    let tts_models = [
        ModelId::Qwen1_5B,
        ModelId::Qwen3B,
        ModelId::Llama1B,
        ModelId::Llama3B,
    ];
    let base_models = [ModelId::Qwen3B, ModelId::Llama3B, ModelId::Qwen7B];
    let mut tasks = TaskGenerator::new(dataset, seed);
    let tasks = tasks.take(TASKS_PER_POINT);
    let mut out = Vec::new();

    for model in tts_models {
        let policy = CalibratedPolicy::new(model, dataset);
        for &budget in &budgets {
            let accuracy = match method {
                Method::BestOfN | Method::Base => best_of_n::accuracy_over_tasks(
                    &policy,
                    &SimOrm::default(),
                    &tasks,
                    budget,
                    seed,
                ),
                Method::BeamSearch => {
                    let cfg = beam_width_for_budget(budget);
                    beam_search::accuracy_over_tasks(&policy, &SimPrm::default(), &tasks, cfg, seed)
                }
            };
            let Ok(mut latency) = per_token_latency(device, model, dataset, budget) else {
                continue; // Model does not fit this device.
            };
            if budget > 1 {
                if let Ok(overhead) = scorer_overhead_per_token(device, budget) {
                    latency += overhead;
                }
            }
            out.push(ParetoPoint {
                series: format!("{}-TTS", model.label()),
                method,
                dataset: dataset.label().to_string(),
                device: device.arch.soc_label().to_string(),
                budget,
                accuracy_pct: accuracy,
                per_token_latency_s: latency,
            });
        }
    }

    for model in base_models {
        let policy = CalibratedPolicy::new(model, dataset);
        let accuracy = best_of_n::accuracy_over_tasks(&policy, &SimOrm::default(), &tasks, 1, seed);
        // Q7 exceeds a single session's VA space: estimate through the
        // multi-session extension by lifting the gate.
        let mut dev = device.clone();
        if model == ModelId::Qwen7B {
            dev.session_va_bytes = 16 * 1024 * 1024 * 1024;
        }
        let Ok(latency) = per_token_latency(&dev, model, dataset, 1) else {
            continue;
        };
        out.push(ParetoPoint {
            series: format!("{}-base", model.label()),
            method: Method::Base,
            dataset: dataset.label().to_string(),
            device: device.arch.soc_label().to_string(),
            budget: 1,
            accuracy_pct: accuracy,
            per_token_latency_s: latency,
        });
    }
    out
}

/// Maps a generation budget to a beam configuration (width x expansion =
/// budget, following the common W = E = sqrt(N) split).
pub fn beam_width_for_budget(budget: usize) -> BeamSearchConfig {
    match budget {
        1 => BeamSearchConfig {
            width: 1,
            expansion: 1,
        },
        2 => BeamSearchConfig {
            width: 1,
            expansion: 2,
        },
        4 => BeamSearchConfig {
            width: 2,
            expansion: 2,
        },
        8 => BeamSearchConfig {
            width: 2,
            expansion: 4,
        },
        16 => BeamSearchConfig {
            width: 4,
            expansion: 4,
        },
        n => {
            let w = (n as f64).sqrt().floor().max(1.0) as usize;
            BeamSearchConfig {
                width: w,
                expansion: n.div_ceil(w),
            }
        }
    }
}

/// Returns `true` if `candidate` dominates `other` (no worse on both axes,
/// strictly better on one).
pub fn dominates(candidate: &ParetoPoint, other: &ParetoPoint) -> bool {
    let acc_ge = candidate.accuracy_pct >= other.accuracy_pct;
    let lat_le = candidate.per_token_latency_s <= other.per_token_latency_s;
    let strict = candidate.accuracy_pct > other.accuracy_pct
        || candidate.per_token_latency_s < other.per_token_latency_s;
    acc_ge && lat_le && strict
}

#[cfg(test)]
mod tests {
    use super::*;

    fn panel(method: Method) -> Vec<ParetoPoint> {
        pareto_panel(&DeviceProfile::v75(), DatasetKind::Math500Like, method, 42)
    }

    #[test]
    fn tts_beats_larger_base_models_figure_10() {
        // The paper's headline: Qwen2.5-1.5B + TTS surpasses the Qwen2.5-3B
        // baseline accuracy at comparable or lower latency.
        let points = panel(Method::BestOfN);
        let q15_best = points
            .iter()
            .filter(|p| p.series == "Q1.5-TTS")
            .max_by(|a, b| a.accuracy_pct.partial_cmp(&b.accuracy_pct).unwrap())
            .unwrap();
        let q3_base = points.iter().find(|p| p.series == "Q3-base").unwrap();
        assert!(
            q15_best.accuracy_pct > q3_base.accuracy_pct,
            "Q1.5-TTS best {} vs Q3-base {}",
            q15_best.accuracy_pct,
            q3_base.accuracy_pct
        );
    }

    #[test]
    fn q3_tts_approaches_q7_base() {
        let points = panel(Method::BestOfN);
        let q3_best = points
            .iter()
            .filter(|p| p.series == "Q3-TTS")
            .map(|p| p.accuracy_pct)
            .fold(0.0f64, f64::max);
        let q7_base = points.iter().find(|p| p.series == "Q7-base").unwrap();
        assert!(
            q3_best > q7_base.accuracy_pct - 6.0,
            "Q3-TTS best {} vs Q7-base {}",
            q3_best,
            q7_base.accuracy_pct
        );
    }

    #[test]
    fn latency_grows_with_budget_but_sublinearly() {
        let points = panel(Method::BestOfN);
        let q15: Vec<&ParetoPoint> = points.iter().filter(|p| p.series == "Q1.5-TTS").collect();
        let lat1 = q15
            .iter()
            .find(|p| p.budget == 1)
            .unwrap()
            .per_token_latency_s;
        let lat16 = q15
            .iter()
            .find(|p| p.budget == 16)
            .unwrap()
            .per_token_latency_s;
        assert!(lat16 > lat1);
        assert!(
            lat16 < lat1 * 8.0,
            "batch-16 latency {lat16} should be far below 16x batch-1 {lat1}"
        );
    }

    #[test]
    fn latencies_in_paper_axis_range() {
        // Figure 10's x-axis spans roughly 0.05-0.4 s/token.
        let points = panel(Method::BestOfN);
        for p in &points {
            assert!(
                (0.01..0.8).contains(&p.per_token_latency_s),
                "{}@{}: {} s",
                p.series,
                p.budget,
                p.per_token_latency_s
            );
        }
    }

    #[test]
    fn beam_search_panel_produces_points() {
        let points = panel(Method::BeamSearch);
        assert!(points.iter().any(|p| p.series == "Q1.5-TTS"));
        // Beam accuracy at budget 16 beats budget 1.
        let q15: Vec<&ParetoPoint> = points.iter().filter(|p| p.series == "Q1.5-TTS").collect();
        let a1 = q15.iter().find(|p| p.budget == 1).unwrap().accuracy_pct;
        let a16 = q15.iter().find(|p| p.budget == 16).unwrap().accuracy_pct;
        assert!(a16 > a1 + 8.0, "beam a1={a1} a16={a16}");
    }

    #[test]
    fn dominates_is_a_strict_partial_order() {
        let mk = |acc, lat| ParetoPoint {
            series: "x".into(),
            method: Method::Base,
            dataset: "d".into(),
            device: "v".into(),
            budget: 1,
            accuracy_pct: acc,
            per_token_latency_s: lat,
        };
        let a = mk(50.0, 0.1);
        let b = mk(40.0, 0.2);
        assert!(dominates(&a, &b));
        assert!(!dominates(&b, &a));
        assert!(!dominates(&a, &a));
    }

    #[test]
    fn budget_to_beam_config() {
        assert_eq!(beam_width_for_budget(16).budget(), 16);
        assert_eq!(beam_width_for_budget(4).budget(), 4);
        assert!(beam_width_for_budget(12).budget() >= 12);
    }
}
