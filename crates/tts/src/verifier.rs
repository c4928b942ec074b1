//! Simulated reward models (Skywork-1.5B-PRM stand-ins).
//!
//! Reward models are noisy observers of latent correctness: an ORM scores
//! complete trajectories, a PRM scores individual steps. The
//! `discrimination` parameter (signal-to-noise of the score) is the single
//! calibration knob; the default of 1.8 yields Best-of-N selection quality
//! consistent with the paper's Figure 5 scaling curves.

use rand::rngs::StdRng;
use rand::Rng;

use crate::policy::{Step, Trajectory};

/// Default discrimination for both reward models.
const DEFAULT_DISCRIMINATION: f64 = 1.8;

/// Gaussian sample via Box-Muller.
fn normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Outcome reward model: scores a finished trajectory.
#[derive(Clone, Copy, Debug)]
pub struct SimOrm {
    /// Mean score separation between correct and incorrect trajectories,
    /// in units of the score noise's standard deviation.
    pub discrimination: f64,
}

impl Default for SimOrm {
    fn default() -> Self {
        SimOrm {
            discrimination: DEFAULT_DISCRIMINATION,
        }
    }
}

impl SimOrm {
    /// Scores one trajectory (higher = believed better).
    pub fn score(&self, traj: &Trajectory, truth: i64, rng: &mut StdRng) -> f64 {
        let correct = traj.answer == truth;
        self.discrimination * (correct as i32 as f64) + normal(rng)
    }
}

/// Process reward model: scores individual reasoning steps.
#[derive(Clone, Copy, Debug)]
pub struct SimPrm {
    /// Mean score separation between correct and incorrect steps.
    pub discrimination: f64,
}

impl Default for SimPrm {
    fn default() -> Self {
        SimPrm {
            discrimination: DEFAULT_DISCRIMINATION,
        }
    }
}

impl SimPrm {
    /// Scores one step.
    pub fn score_step(&self, step: &Step, rng: &mut StdRng) -> f64 {
        self.discrimination * (step.correct as i32 as f64) + normal(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn traj(correct: bool) -> Trajectory {
        Trajectory {
            steps: vec![Step {
                correct,
                tokens: 30,
            }],
            answer: if correct { 7 } else { 8 },
            tokens: 45,
        }
    }

    #[test]
    fn orm_separates_correct_from_incorrect_on_average() {
        let orm = SimOrm::default();
        let mut rng = StdRng::seed_from_u64(1);
        let n = 4000;
        let mean = |correct: bool, rng: &mut StdRng| {
            (0..n)
                .map(|_| orm.score(&traj(correct), 7, rng))
                .sum::<f64>()
                / n as f64
        };
        let good = mean(true, &mut rng);
        let bad = mean(false, &mut rng);
        assert!((good - bad - DEFAULT_DISCRIMINATION).abs() < 0.1);
    }

    #[test]
    fn prm_step_scores_are_noisy_but_informative() {
        let prm = SimPrm::default();
        let mut rng = StdRng::seed_from_u64(2);
        let mut correct_wins = 0;
        let n = 2000;
        for _ in 0..n {
            let good = prm.score_step(
                &Step {
                    correct: true,
                    tokens: 30,
                },
                &mut rng,
            );
            let bad = prm.score_step(
                &Step {
                    correct: false,
                    tokens: 30,
                },
                &mut rng,
            );
            if good > bad {
                correct_wins += 1;
            }
        }
        let win_rate = correct_wins as f64 / n as f64;
        // d' = 1.8 -> P(correct scores higher) ~ Phi(1.8/sqrt(2)) ~ 0.90.
        assert!((0.85..0.95).contains(&win_rate), "win rate {win_rate}");
    }

    #[test]
    fn zero_discrimination_is_chance() {
        let orm = SimOrm {
            discrimination: 0.0,
        };
        let mut rng = StdRng::seed_from_u64(3);
        let mut wins = 0;
        for _ in 0..2000 {
            let g = orm.score(&traj(true), 7, &mut rng);
            let b = orm.score(&traj(false), 7, &mut rng);
            if g > b {
                wins += 1;
            }
        }
        let rate = wins as f64 / 2000.0;
        assert!((0.45..0.55).contains(&rate), "rate {rate}");
    }
}
