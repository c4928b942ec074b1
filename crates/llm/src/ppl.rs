//! Perplexity and logit-divergence measurement.
//!
//! The paper's Tables 1/4/5 report Wikitext-2 perplexity for quantization
//! and attention variants. This reproduction measures the same quantities
//! on the tiny functional model over a synthetic token stream: perplexity
//! via teacher forcing on the float forward, and (the more sensitive
//! instrument at tiny scale) the KL divergence between variant logits and
//! the FP32 baseline's.

use crate::config::ModelConfig;
use crate::cpu_ref::forward_float;
use crate::weights::LayerFloatWeights;

/// Softmax in f64.
fn softmax_f64(logits: &[f32]) -> Vec<f64> {
    let m = logits.iter().cloned().fold(f32::NEG_INFINITY, f32::max) as f64;
    let exps: Vec<f64> = logits.iter().map(|&x| ((x as f64) - m).exp()).collect();
    let sum: f64 = exps.iter().sum();
    exps.iter().map(|e| e / sum).collect()
}

/// Teacher-forced perplexity over explicit float weight variants.
///
/// # Panics
///
/// Panics if `tokens` has fewer than two entries.
pub fn perplexity_float(
    cfg: &ModelConfig,
    float_layers: &[LayerFloatWeights],
    embed: &[f32],
    tokens: &[u32],
) -> f64 {
    assert!(tokens.len() >= 2);
    let logits = forward_float(cfg, float_layers, embed, tokens);
    ppl_from_logits(cfg, &logits, tokens)
}

fn ppl_from_logits(cfg: &ModelConfig, logits: &[f32], tokens: &[u32]) -> f64 {
    let mut nll = 0.0f64;
    let n = tokens.len() - 1;
    for i in 0..n {
        let p = softmax_f64(&logits[i * cfg.vocab..(i + 1) * cfg.vocab]);
        let target = tokens[i + 1] as usize;
        nll -= p[target].max(1e-300).ln();
    }
    (nll / n as f64).exp()
}

/// Mean KL divergence `KL(p_base || p_variant)` between two logit
/// sequences, per position. The sensitive instrument for ranking
/// quantization/attention variants at tiny model scale.
///
/// # Panics
///
/// Panics if lengths differ or are not multiples of `vocab`.
pub fn mean_kl(base_logits: &[f32], variant_logits: &[f32], vocab: usize) -> f64 {
    assert_eq!(base_logits.len(), variant_logits.len());
    assert_eq!(base_logits.len() % vocab, 0);
    let rows = base_logits.len() / vocab;
    let mut total = 0.0f64;
    for r in 0..rows {
        let p = softmax_f64(&base_logits[r * vocab..(r + 1) * vocab]);
        let q = softmax_f64(&variant_logits[r * vocab..(r + 1) * vocab]);
        let mut kl = 0.0f64;
        for (pi, qi) in p.iter().zip(&q) {
            if *pi > 0.0 {
                kl += pi * (pi / qi.max(1e-300)).ln();
            }
        }
        total += kl;
    }
    total / rows as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelId;
    use crate::weights::ModelWeights;

    #[test]
    fn perplexity_is_finite_and_near_uniform_for_random_model() {
        let cfg = ModelConfig::for_id(ModelId::Tiny);
        let (layers, embed) = ModelWeights::generate_float(&cfg, 3);
        let tokens: Vec<u32> = (0..48).map(|i| 4 + (i * 7) % 200).collect();
        let ppl = perplexity_float(&cfg, &layers, &embed, &tokens);
        assert!(ppl.is_finite() && ppl > 1.0);
        // An untrained model should be within an order of magnitude of the
        // uniform bound (vocab = 260).
        assert!(ppl < 26_000.0, "ppl {ppl}");
    }

    #[test]
    fn kl_zero_for_identical_logits() {
        let logits = vec![0.1f32, 0.4, -0.2, 0.9];
        assert!(mean_kl(&logits, &logits, 4).abs() < 1e-12);
    }

    #[test]
    fn kl_positive_and_monotone_in_perturbation() {
        let base: Vec<f32> = (0..16).map(|i| (i as f32 * 0.37).sin()).collect();
        let small: Vec<f32> = base.iter().map(|v| v + 0.01).collect();
        let mut large = base.clone();
        large[3] += 1.0;
        large[7] -= 1.0;
        let kl_small = mean_kl(&base, &small, 16);
        let kl_large = mean_kl(&base, &large, 16);
        assert!(kl_small >= 0.0);
        assert!(kl_large > kl_small * 10.0);
    }
}
