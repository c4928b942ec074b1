//! K-way multiple-choice evaluation items (WinoGrande / MMLU analogs).
//!
//! Each item carries a latent *signal strength*: how strongly the correct
//! option is preferred by a fully capable model. An agent with capability
//! `c` observes `signal * c + noise` per option and picks the argmax, so
//! accuracy is a smooth, monotone function of capability — exactly the
//! instrument needed to translate measured quantization damage into the
//! paper's Table 1/4/5 accuracy deltas.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One multiple-choice item.
#[derive(Clone, Debug)]
pub struct ChoiceItem {
    /// Stable identifier.
    pub id: u64,
    /// Number of options (2 for WinoGrande-like, 4 for MMLU-like).
    pub options: usize,
    /// Index of the correct option.
    pub correct: usize,
    /// Latent signal strength in `[0, inf)`; higher = easier.
    pub signal: f64,
}

/// Benchmark profile for choice items.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ChoiceKind {
    /// Binary commonsense items (WinoGrande analog: ~62-65% for small
    /// models, i.e. weak signal).
    WinoGrandeLike,
    /// Four-way knowledge items (MMLU analog: ~35% for 1.5B models,
    /// barely above the 25% floor).
    MmluLike,
}

impl ChoiceKind {
    /// Label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            ChoiceKind::WinoGrandeLike => "WinoGrande",
            ChoiceKind::MmluLike => "MMLU",
        }
    }

    /// Option count for the profile.
    fn options(self) -> usize {
        match self {
            ChoiceKind::WinoGrandeLike => 2,
            ChoiceKind::MmluLike => 4,
        }
    }

    /// Mean latent signal, calibrated so a capability-1.0 model scores in
    /// the paper's Table 4 range (WinoGrande ~64.6%, MMLU ~34.8% for
    /// Qwen2.5-1.5B at F16).
    fn mean_signal(self) -> f64 {
        match self {
            ChoiceKind::WinoGrandeLike => 0.53,
            ChoiceKind::MmluLike => 0.33,
        }
    }
}

/// Generates a deterministic item set.
pub fn generate_items(kind: ChoiceKind, n: usize, seed: u64) -> Vec<ChoiceItem> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC401CE);
    (0..n as u64)
        .map(|id| {
            let options = kind.options();
            // Exponentially distributed signal around the profile mean.
            let u: f64 = rng.gen_range(1e-6..1.0f64);
            let signal = -u.ln() * kind.mean_signal();
            ChoiceItem {
                id,
                options,
                correct: rng.gen_range(0..options),
                signal,
            }
        })
        .collect()
}

/// Answers an item set with capability `c` (1.0 = the unquantized model)
/// and returns accuracy in percent.
pub fn evaluate(items: &[ChoiceItem], capability: f64, seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E3779B97F4A7C15));
    let mut correct = 0usize;
    for item in items {
        let mut best = f64::NEG_INFINITY;
        let mut pick = 0usize;
        for o in 0..item.options {
            let mean = if o == item.correct {
                item.signal * capability
            } else {
                0.0
            };
            // Gumbel-ish noise via inverse transform of a logistic.
            let u: f64 = rng.gen_range(1e-9..1.0 - 1e-9);
            let noise = (u / (1.0 - u)).ln() * 0.5;
            let score = mean + noise;
            if score > best {
                best = score;
                pick = o;
            }
        }
        if pick == item.correct {
            correct += 1;
        }
    }
    correct as f64 / items.len() as f64 * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_capability_lands_in_paper_range() {
        let wino = generate_items(ChoiceKind::WinoGrandeLike, 4000, 1);
        let mmlu = generate_items(ChoiceKind::MmluLike, 4000, 2);
        let wino_acc = evaluate(&wino, 1.0, 3);
        let mmlu_acc = evaluate(&mmlu, 1.0, 4);
        // Paper Table 4 F16 column: WinoGrande 64.6, MMLU 34.8.
        assert!((58.0..70.0).contains(&wino_acc), "wino {wino_acc}");
        assert!((31.0..40.0).contains(&mmlu_acc), "mmlu {mmlu_acc}");
    }

    #[test]
    fn zero_capability_hits_chance_floor() {
        let wino = generate_items(ChoiceKind::WinoGrandeLike, 4000, 5);
        let mmlu = generate_items(ChoiceKind::MmluLike, 4000, 6);
        let wino_acc = evaluate(&wino, 0.0, 7);
        let mmlu_acc = evaluate(&mmlu, 0.0, 8);
        assert!((45.0..55.0).contains(&wino_acc), "wino {wino_acc}");
        assert!((20.0..30.0).contains(&mmlu_acc), "mmlu {mmlu_acc}");
    }

    #[test]
    fn accuracy_is_monotone_in_capability() {
        let items = generate_items(ChoiceKind::WinoGrandeLike, 4000, 9);
        let lo = evaluate(&items, 0.3, 10);
        let mid = evaluate(&items, 0.8, 10);
        let hi = evaluate(&items, 1.5, 10);
        assert!(lo < mid && mid < hi, "{lo} {mid} {hi}");
    }

    #[test]
    fn small_capability_deltas_produce_small_accuracy_deltas() {
        // Table 4's point: tile grouping changes accuracy by well under a
        // percentage point relative to conventional grouping.
        let items = generate_items(ChoiceKind::WinoGrandeLike, 20_000, 11);
        let a = evaluate(&items, 0.97, 12);
        let b = evaluate(&items, 0.96, 12);
        assert!((a - b).abs() < 1.5, "delta {}", (a - b).abs());
    }
}
