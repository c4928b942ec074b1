//! Calibration of policy skill and quantization-damage mappings.
//!
//! Skill parameters are fitted numerically so that the calibrated policy's
//! expected pass@1 over the dataset's difficulty distribution matches the
//! paper's reported baseline accuracies (the "base" points in Figures 5
//! and 10). The constants quoted below next to each target are the paper
//! values.

use edgellm::config::ModelId;
use mathsynth::mathgen::DatasetKind;

/// Steepness of the per-task solve-probability logistic. Large values give
/// the heavy-tailed task hardness that makes parallel-scaling curves
/// saturate the way Figure 5 does.
const SOLVE_STEEPNESS: f64 = 12.0;

/// Paper-reported pass@1 baselines (percent), read from Figures 5/10 and
/// Table 1: `(model, dataset) -> accuracy`.
fn paper_base_accuracy(model: ModelId, dataset: DatasetKind) -> f64 {
    match (model, dataset) {
        (ModelId::Llama1B, DatasetKind::Math500Like) => 18.0,
        (ModelId::Llama1B, DatasetKind::Gsm8kLike) => 47.0,
        (ModelId::Qwen1_5B, DatasetKind::Math500Like) => 30.0,
        (ModelId::Qwen1_5B, DatasetKind::Gsm8kLike) => 62.0,
        (ModelId::Qwen3B, DatasetKind::Math500Like) => 48.0,
        (ModelId::Qwen3B, DatasetKind::Gsm8kLike) => 80.0,
        (ModelId::Llama3B, DatasetKind::Math500Like) => 38.0,
        (ModelId::Llama3B, DatasetKind::Gsm8kLike) => 72.0,
        (ModelId::Qwen7B, DatasetKind::Math500Like) => 60.0,
        (ModelId::Qwen7B, DatasetKind::Gsm8kLike) => 88.0,
        // Draft model for speculative decoding: weak as a solver, but it
        // only ever proposes tokens the target verifies.
        (ModelId::Qwen0_5B, DatasetKind::Math500Like) => 14.0,
        (ModelId::Qwen0_5B, DatasetKind::Gsm8kLike) => 34.0,
        // The tiny test model is far below task competence.
        (ModelId::Tiny, _) => 2.0,
    }
}

/// Deterministic difficulty grid matching a dataset's distribution
/// (inverse-CDF sampling; see `mathsynth::mathgen`).
fn difficulty_grid(dataset: DatasetKind, n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let u = (i as f64 + 0.5) / n as f64;
            match dataset {
                DatasetKind::Math500Like => u.sqrt(),
                DatasetKind::Gsm8kLike => u * u,
            }
        })
        .collect()
}

/// Logistic solve probability for skill `s` at difficulty `d`.
pub fn solve_prob(skill: f64, difficulty: f64) -> f64 {
    1.0 / (1.0 + (-(SOLVE_STEEPNESS) * (skill - difficulty)).exp())
}

/// Expected pass@1 (percent) of skill `s` over a dataset grid.
fn expected_pass1(skill: f64, dataset: DatasetKind) -> f64 {
    let grid = difficulty_grid(dataset, 2000);
    let mean: f64 = grid.iter().map(|&d| solve_prob(skill, d)).sum::<f64>() / grid.len() as f64;
    mean * 100.0
}

/// Fits the skill parameter so expected pass@1 matches the paper baseline
/// (bisection; monotone in skill).
pub fn fit_skill(model: ModelId, dataset: DatasetKind) -> f64 {
    let target = paper_base_accuracy(model, dataset);
    let (mut lo, mut hi) = (-0.5f64, 2.0f64);
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if expected_pass1(mid, dataset) < target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Maps measured relative weight-reconstruction RMSE to a capability
/// multiplier on skill.
///
/// Calibrated against the paper's Table 1 (Llama3.2-1B, MATH500) using the
/// RMSE this project's synthetic outlier-bearing weights actually measure:
/// AWQ group quantization lands at relative RMSE ~0.10 and must retain
/// near-baseline capability (~0.88), while QNN per-channel quantization
/// lands at ~0.41 and must collapse to ~0.32 (15.9% -> 2.1% on MATH500).
/// Fitting `capability = exp(-beta * r^gamma)` through those anchors gives
/// `beta ~ 4.43`, `gamma ~ 1.53`.
pub fn quant_capability(relative_rmse: f64) -> f64 {
    (-4.43 * relative_rmse.powf(1.525)).exp()
}

/// Maps measured relative weight-reconstruction RMSE to an *additive*
/// skill penalty for reasoning tasks.
///
/// Calibrated against Table 1 (Llama3.2-1B, MATH500) at the measured RMSE
/// anchors of the synthetic outlier-bearing weights: group quantization
/// (r ~0.10) costs ~0.025 skill (18% -> ~16%), per-channel (r ~0.41) costs
/// ~0.28 skill (18% -> ~2%). Fitting `penalty = beta * r^gamma` through
/// both anchors gives `beta ~ 2.81`, `gamma ~ 2.05` (the channel anchor is
/// set to 0.45 so the easy-skewed GSM8K profile collapses to the paper's
/// ~3% as well). The additive form reproduces the paper's observation that
/// the collapse hits *both* MATH500 and GSM8K catastrophically.
pub fn quant_skill_penalty(relative_rmse: f64) -> f64 {
    2.81 * relative_rmse.powf(2.05)
}

/// Mean completion length in tokens for a dataset (used by the latency
/// coupling: test-time scaling lengthens contexts, which the paper's
/// Figure 10 cost axis accounts for).
pub fn mean_completion_tokens(dataset: DatasetKind) -> usize {
    match dataset {
        DatasetKind::Math500Like => 350,
        DatasetKind::Gsm8kLike => 220,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fitted_skill_reproduces_base_accuracy() {
        for model in [ModelId::Llama1B, ModelId::Qwen1_5B, ModelId::Qwen7B] {
            for dataset in [DatasetKind::Math500Like, DatasetKind::Gsm8kLike] {
                let skill = fit_skill(model, dataset);
                let acc = expected_pass1(skill, dataset);
                let target = paper_base_accuracy(model, dataset);
                assert!(
                    (acc - target).abs() < 0.5,
                    "{model:?}/{dataset:?}: fitted {acc} vs target {target}"
                );
            }
        }
    }

    #[test]
    fn skill_ordering_matches_model_scale() {
        let d = DatasetKind::Math500Like;
        let l1 = fit_skill(ModelId::Llama1B, d);
        let q15 = fit_skill(ModelId::Qwen1_5B, d);
        let q3 = fit_skill(ModelId::Qwen3B, d);
        let q7 = fit_skill(ModelId::Qwen7B, d);
        assert!(l1 < q15 && q15 < q3 && q3 < q7);
    }

    #[test]
    fn quant_capability_matches_table1_anchors() {
        // Group quantization barely dents capability; per-channel wrecks it
        // (anchors at the measured RMSE of the synthetic weight sample).
        let group = quant_capability(0.10);
        let channel = quant_capability(0.41);
        assert!((0.82..0.95).contains(&group), "group {group}");
        assert!((0.25..0.40).contains(&channel), "channel {channel}");
        assert!((quant_capability(0.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn quant_skill_penalty_matches_table1_anchors() {
        let group = quant_skill_penalty(0.10);
        let channel = quant_skill_penalty(0.41);
        assert!((0.015..0.04).contains(&group), "group {group}");
        assert!((0.35..0.55).contains(&channel), "channel {channel}");
    }

    #[test]
    fn difficulty_grids_match_generators() {
        // Grid means must match the empirical generator means.
        let grid_hard = difficulty_grid(DatasetKind::Math500Like, 1000);
        let mean: f64 = grid_hard.iter().sum::<f64>() / 1000.0;
        assert!((mean - 2.0 / 3.0).abs() < 0.01); // E[sqrt(U)] = 2/3.
        let grid_easy = difficulty_grid(DatasetKind::Gsm8kLike, 1000);
        let mean: f64 = grid_easy.iter().sum::<f64>() / 1000.0;
        assert!((mean - 1.0 / 3.0).abs() < 0.01); // E[U^2] = 1/3.
    }
}
