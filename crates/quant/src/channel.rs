//! Coarse-grained quantization: per-channel symmetric INT4, the weight
//! scheme QNN supports (paper Section 3.3).
//!
//! Table 1 of the paper shows that per-channel W4 quantization collapses
//! mathematical-reasoning accuracy (MATH500 15.9 -> 2.1) while fine-grained
//! group quantization survives. The mechanism is scale dilution: one scale
//! must cover an entire output channel (thousands of weights), so outlier
//! weights inflate the step size for everyone. This implementation exists
//! to reproduce that comparison.

use hexsim::f16::F16;

/// Per-output-channel symmetric INT4 quantization of a `[k, n]` matrix.
#[derive(Clone, Debug)]
pub struct PerChannelQ4 {
    /// Accumulation dimension.
    pub k: usize,
    /// Output channels.
    pub n: usize,
    /// One scale per output channel.
    pub scales: Vec<F16>,
    /// 4-bit codes, element `(ki, ni)` at flat index `ki * n + ni`; two
    /// codes per byte in flat order.
    pub quants: Vec<u8>,
}

impl PerChannelQ4 {
    /// Quantizes a row-major `[k, n]` matrix with one scale per column.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != k * n` or `k * n` is odd.
    pub fn quantize(weights: &[f32], k: usize, n: usize) -> Self {
        assert_eq!(weights.len(), k * n);
        assert_eq!((k * n) % 2, 0);
        // One symmetric scale per output channel (column).
        let mut scales = vec![F16::ZERO; n];
        for ni in 0..n {
            let mut amax = 0.0f32;
            for ki in 0..k {
                amax = amax.max(weights[ki * n + ni].abs());
            }
            scales[ni] = F16::from_f32(amax / 7.0);
        }
        let mut quants = vec![0u8; k * n / 2];
        for flat in 0..k * n {
            let ni = flat % n;
            let d = scales[ni].to_f32();
            let id = if d != 0.0 { 1.0 / d } else { 0.0 };
            let q = ((weights[flat] * id).round().clamp(-8.0, 7.0) as i32 + 8) as u8;
            if flat % 2 == 0 {
                quants[flat / 2] |= q;
            } else {
                quants[flat / 2] |= q << 4;
            }
        }
        PerChannelQ4 {
            k,
            n,
            scales,
            quants,
        }
    }

    /// Dequantizes back to a row-major f32 matrix.
    pub fn dequantize(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.k * self.n];
        for (flat, o) in out.iter_mut().enumerate() {
            let ni = flat % self.n;
            let byte = self.quants[flat / 2];
            let q = if flat % 2 == 0 { byte & 0xf } else { byte >> 4 };
            *o = (q as i32 - 8) as f32 * self.scales[ni].to_f32();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{QuantScheme, QuantizedMatrix, WeightLayout};
    use crate::metrics::QuantError;
    use crate::synth::gaussian_matrix;

    #[test]
    fn per_channel_roundtrip_on_smooth_weights() {
        let (k, n) = (64, 32);
        let w = gaussian_matrix(k, n, 11, 0.5, 0.0);
        let pc = PerChannelQ4::quantize(&w, k, n);
        let deq = pc.dequantize();
        let err = QuantError::measure(&w, &deq);
        assert!(err.rmse < 0.08, "rmse {}", err.rmse);
    }

    #[test]
    fn outliers_destroy_per_channel_but_not_groups() {
        // The Table 1 mechanism: with outlier weights (heavy-tailed LLM
        // channels), per-channel scales dilute and error explodes relative
        // to 32-element groups.
        let (k, n) = (256, 64);
        let w = gaussian_matrix(k, n, 5, 1.0, 0.02);
        let pc = PerChannelQ4::quantize(&w, k, n).dequantize();
        let grouped =
            QuantizedMatrix::quantize(&w, k, n, QuantScheme::Q4_0, WeightLayout::ColumnMajorGroups)
                .dequantize();
        let e_pc = QuantError::measure(&w, &pc);
        let e_g = QuantError::measure(&w, &grouped);
        assert!(
            e_pc.mse > 3.0 * e_g.mse,
            "per-channel mse {} vs group mse {}",
            e_pc.mse,
            e_g.mse
        );
    }

    #[test]
    fn zero_matrix_is_fixed_point() {
        let w = vec![0.0f32; 64];
        let pc = PerChannelQ4::quantize(&w, 8, 8);
        assert!(pc.dequantize().iter().all(|&v| v == 0.0));
    }
}
