//! Synthetic LLM-like weight and activation generators.
//!
//! Real checkpoints are unavailable in this reproduction;
//! the accuracy-bearing quantization experiments instead use weights whose
//! *distributional* properties match what the quantization literature
//! reports for transformer weights: approximately zero-mean Gaussian bulk
//! (the paper's own assumption in Section 5.1.1) plus a small fraction of
//! high-magnitude outlier weights concentrated in a few channels
//! ("systematic outliers", Kovaleva et al. 2024 — the paper's reference
//! 27). The outliers are what make coarse per-channel quantization
//! collapse in Table 1, so generating them faithfully matters.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Samples a standard normal via Box-Muller (keeps `rand` at its base
/// feature set — no `rand_distr` dependency).
fn normal(rng: &mut StdRng) -> f32 {
    let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
    let u2: f32 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

/// Generates a row-major `[k, n]` weight matrix: `N(0, std^2)` bulk with a
/// fraction `outlier_frac` of elements drawn at 8x the base std, clustered
/// into hot input channels (every 16th channel hosts outliers), mimicking
/// the systematic-outlier structure of transformer weights.
pub fn gaussian_matrix(k: usize, n: usize, seed: u64, std: f32, outlier_frac: f32) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut out = Vec::with_capacity(k * n);
    for ki in 0..k {
        let hot_channel = ki % 16 == 0;
        for _ in 0..n {
            let mut v = normal(&mut rng) * std;
            if hot_channel && rng.gen::<f32>() < outlier_frac * 16.0 {
                v = normal(&mut rng) * std * 8.0;
            }
            out.push(v);
        }
    }
    out
}

/// Per-input-channel activation absolute maxima for AWQ calibration:
/// log-normal-ish magnitudes with a few hot channels, which is the shape
/// SmoothQuant/AWQ report for transformer activations.
pub fn activation_amax(k: usize, seed: u64, hot_scale: f32) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0xd134_2543_de82_ef95));
    (0..k)
        .map(|ki| {
            let base = (normal(&mut rng) * 0.5).exp();
            if ki % 24 == 0 {
                base * hot_scale
            } else {
                base
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let a = gaussian_matrix(32, 32, 7, 1.0, 0.01);
        let b = gaussian_matrix(32, 32, 7, 1.0, 0.01);
        assert_eq!(a, b);
        let c = gaussian_matrix(32, 32, 8, 1.0, 0.01);
        assert_ne!(a, c);
    }

    #[test]
    fn bulk_statistics_are_standard_normal() {
        let w = gaussian_matrix(128, 128, 3, 1.0, 0.0);
        let n = w.len() as f64;
        let mean: f64 = w.iter().map(|&v| v as f64).sum::<f64>() / n;
        let var: f64 = w.iter().map(|&v| (v as f64 - mean).powi(2)).sum::<f64>() / n;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn outliers_widen_the_tails() {
        let clean = gaussian_matrix(256, 64, 3, 1.0, 0.0);
        let dirty = gaussian_matrix(256, 64, 3, 1.0, 0.02);
        let amax = |v: &[f32]| v.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
        assert!(amax(&dirty) > amax(&clean) * 1.5);
    }

    #[test]
    fn activation_amax_has_hot_channels() {
        let act = activation_amax(96, 1, 10.0);
        // Channel 0 is hot; median channel is not.
        let mut sorted = act.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = sorted[48];
        assert!(act[0] > median * 3.0);
    }
}
