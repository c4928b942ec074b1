//! AWQ-lite: activation-aware weight equalization before group quantization.
//!
//! AWQ (Lin et al., MLSys '24) observes that the weights multiplying
//! high-magnitude activation channels matter most, and protects them by
//! scaling input channels up before quantization (and folding the inverse
//! scale into the preceding operator). The paper uses AutoAWQ W4A16 as its
//! accuracy baseline (Table 1). This module implements the per-input-channel
//! equalization search with the standard `alpha` grid, enough to reproduce
//! the group-vs-channel accuracy comparison on synthetic weights.

use crate::layout::{QuantScheme, QuantizedMatrix, WeightLayout};

/// Result of AWQ scaling: the chosen per-input-channel scales and the
/// dequantized (already de-scaled) weights.
#[derive(Clone, Debug)]
pub struct AwqResult {
    /// Chosen equalization exponent.
    pub alpha: f32,
    /// Per-input-channel scales applied before quantization.
    pub scales: Vec<f32>,
    /// Reconstructed weights after quantize -> dequantize -> unscale.
    pub dequantized: Vec<f32>,
    /// Reconstruction error weighted by activation magnitude.
    pub weighted_mse: f64,
}

/// Computes AWQ-style scales `s_k = act[k]^alpha / wmax[k]^(1-alpha)` for
/// one candidate alpha, quantizes the scaled matrix per-group, and measures
/// activation-weighted reconstruction error.
fn try_alpha(
    weights: &[f32],
    k: usize,
    n: usize,
    act_amax: &[f32],
    alpha: f32,
    scheme: QuantScheme,
) -> AwqResult {
    // Per-input-channel weight magnitude (row of W).
    let mut wmax = vec![1e-8f32; k];
    for ki in 0..k {
        for ni in 0..n {
            wmax[ki] = wmax[ki].max(weights[ki * n + ni].abs());
        }
    }
    let scales: Vec<f32> = (0..k)
        .map(|ki| {
            let a = act_amax[ki].max(1e-8);
            let s = a.powf(alpha) / wmax[ki].powf(1.0 - alpha);
            s.clamp(1e-4, 1e4)
        })
        .collect();

    // Scale rows, quantize, dequantize, unscale.
    let mut scaled = vec![0.0f32; k * n];
    for ki in 0..k {
        for ni in 0..n {
            scaled[ki * n + ni] = weights[ki * n + ni] * scales[ki];
        }
    }
    let qm = QuantizedMatrix::quantize(&scaled, k, n, scheme, WeightLayout::ColumnMajorGroups);
    let mut deq = qm.dequantize();
    for ki in 0..k {
        for ni in 0..n {
            deq[ki * n + ni] /= scales[ki];
        }
    }

    // Activation-weighted MSE approximates output-error, the AWQ objective.
    let mut werr = 0.0f64;
    let mut wsum = 0.0f64;
    for ki in 0..k {
        let a2 = (act_amax[ki] * act_amax[ki]) as f64;
        for ni in 0..n {
            let d = (weights[ki * n + ni] - deq[ki * n + ni]) as f64;
            werr += a2 * d * d;
            wsum += a2;
        }
    }
    AwqResult {
        alpha,
        scales,
        dequantized: deq,
        weighted_mse: werr / wsum.max(1e-30),
    }
}

/// Runs the AWQ grid search over `alpha in {0, 0.1, ..., 1.0}` and returns
/// the best result by activation-weighted reconstruction error.
///
/// `act_amax[k]` is the per-input-channel absolute maximum observed on
/// calibration activations (the "small amounts of calibration data" of the
/// original method).
///
/// # Panics
///
/// Panics if `weights.len() != k * n` or `act_amax.len() != k`.
pub fn awq_quantize(
    weights: &[f32],
    k: usize,
    n: usize,
    act_amax: &[f32],
    scheme: QuantScheme,
) -> AwqResult {
    assert_eq!(weights.len(), k * n);
    assert_eq!(act_amax.len(), k);
    let mut best: Option<AwqResult> = None;
    for step in 0..=10 {
        let alpha = step as f32 / 10.0;
        let r = try_alpha(weights, k, n, act_amax, alpha, scheme);
        if best
            .as_ref()
            .map(|b| r.weighted_mse < b.weighted_mse)
            .unwrap_or(true)
        {
            best = Some(r);
        }
    }
    best.expect("grid search is non-empty")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::QuantError;
    use crate::synth::{activation_amax, gaussian_matrix};

    #[test]
    fn awq_beats_plain_rtn_on_weighted_error() {
        let (k, n) = (128, 64);
        let w = gaussian_matrix(k, n, 21, 1.0, 0.02);
        let act = activation_amax(k, 21, 4.0);
        let awq = awq_quantize(&w, k, n, &act, QuantScheme::Q4_0);
        // Baseline: alpha = 0 degenerates to (almost) plain RTN grouping.
        let rtn = try_alpha(&w, k, n, &act, 0.0, QuantScheme::Q4_0);
        assert!(
            awq.weighted_mse <= rtn.weighted_mse * 1.0001,
            "awq {} rtn {}",
            awq.weighted_mse,
            rtn.weighted_mse
        );
    }

    #[test]
    fn awq_selects_intermediate_alpha_with_spiky_activations() {
        let (k, n) = (64, 64);
        let w = gaussian_matrix(k, n, 33, 1.0, 0.0);
        let mut act = vec![1.0f32; k];
        // A few very hot activation channels.
        act[3] = 50.0;
        act[17] = 80.0;
        let r = awq_quantize(&w, k, n, &act, QuantScheme::Q4_0);
        assert!(r.alpha > 0.0, "expected nonzero alpha, got {}", r.alpha);
        // Hot channels must receive larger protection scales.
        assert!(r.scales[17] > r.scales[0]);
    }

    #[test]
    fn awq_reconstruction_shape() {
        let (k, n) = (32, 32);
        let w = gaussian_matrix(k, n, 2, 1.0, 0.0);
        let act = activation_amax(k, 2, 2.0);
        let r = awq_quantize(&w, k, n, &act, QuantScheme::Q4_0);
        assert_eq!(r.dequantized.len(), k * n);
        assert_eq!(r.scales.len(), k);
        let err = QuantError::measure(&w, &r.dequantized);
        assert!(err.rmse < 0.25, "rmse {}", err.rmse);
    }

    #[test]
    fn q8_awq_is_tighter_than_q4_awq() {
        let (k, n) = (64, 32);
        let w = gaussian_matrix(k, n, 8, 1.0, 0.01);
        let act = activation_amax(k, 8, 3.0);
        let q4 = awq_quantize(&w, k, n, &act, QuantScheme::Q4_0);
        let q8 = awq_quantize(&w, k, n, &act, QuantScheme::Q8_0);
        assert!(q8.weighted_mse < q4.weighted_mse / 4.0);
    }
}
