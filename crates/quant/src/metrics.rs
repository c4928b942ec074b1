//! Quantization error metrics used by the accuracy experiments.

/// Reconstruction error statistics between an original tensor and its
/// quantize-dequantize reconstruction.
#[derive(Clone, Copy, Debug, Default)]
pub struct QuantError {
    /// Mean squared error.
    pub mse: f64,
    /// Root mean squared error.
    pub rmse: f64,
    /// Maximum absolute error.
    pub max_abs: f64,
    /// Signal-to-quantization-noise ratio in dB (higher is better).
    pub sqnr_db: f64,
    /// Cosine similarity between original and reconstruction.
    pub cosine: f64,
}

impl QuantError {
    /// Measures error statistics between `original` and `reconstructed`.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths or are empty.
    pub fn measure(original: &[f32], reconstructed: &[f32]) -> Self {
        assert_eq!(original.len(), reconstructed.len());
        assert!(!original.is_empty());
        let n = original.len() as f64;
        let mut se = 0.0f64;
        let mut max_abs = 0.0f64;
        let mut sig = 0.0f64;
        let mut dot = 0.0f64;
        let mut norm_r = 0.0f64;
        for (&a, &b) in original.iter().zip(reconstructed) {
            let (a, b) = (a as f64, b as f64);
            let d = a - b;
            se += d * d;
            max_abs = max_abs.max(d.abs());
            sig += a * a;
            dot += a * b;
            norm_r += b * b;
        }
        let mse = se / n;
        let sqnr_db = if se > 0.0 {
            10.0 * (sig / se).log10()
        } else {
            f64::INFINITY
        };
        let cosine = if sig > 0.0 && norm_r > 0.0 {
            dot / (sig.sqrt() * norm_r.sqrt())
        } else {
            1.0
        };
        QuantError {
            mse,
            rmse: mse.sqrt(),
            max_abs,
            sqnr_db,
            cosine,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_reconstruction() {
        let x = vec![1.0f32, -2.0, 3.0];
        let e = QuantError::measure(&x, &x);
        assert_eq!(e.mse, 0.0);
        assert!(e.sqnr_db.is_infinite());
        assert!((e.cosine - 1.0).abs() < 1e-12);
    }

    #[test]
    fn known_error_values() {
        let x = vec![1.0f32, 1.0, 1.0, 1.0];
        let y = vec![1.5f32, 0.5, 1.0, 1.0];
        let e = QuantError::measure(&x, &y);
        assert!((e.mse - 0.125).abs() < 1e-12);
        assert!((e.max_abs - 0.5).abs() < 1e-12);
        // SQNR = 10 log10(4 / 0.5) = ~9.03 dB.
        assert!((e.sqnr_db - 9.0309).abs() < 1e-3);
    }

    #[test]
    fn sqnr_decreases_with_noise() {
        let x: Vec<f32> = (0..256).map(|i| (i as f32).sin()).collect();
        let small: Vec<f32> = x.iter().map(|v| v + 0.01).collect();
        let large: Vec<f32> = x.iter().map(|v| v + 0.1).collect();
        let e_small = QuantError::measure(&x, &small);
        let e_large = QuantError::measure(&x, &large);
        assert!(e_small.sqnr_db > e_large.sqnr_db);
    }
}
