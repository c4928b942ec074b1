//! The calibrated stochastic policy: step-level trajectory sampling.
//!
//! A trajectory is a sequence of reasoning steps, each latently correct or
//! not; the final answer is the task's true answer iff every step is
//! correct (mirroring how a single flawed reasoning step derails chain-of-
//! thought). The per-step success rate is derived from the task-level
//! solve probability, so pass@1 matches the calibration targets while the
//! *step structure* gives process reward models something real to score.

use mathsynth::mathgen::MathTask;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use edgellm::config::ModelId;
use mathsynth::mathgen::DatasetKind;

use crate::calib::{fit_skill, solve_prob};

/// One reasoning step of a sampled trajectory.
#[derive(Clone, Copy, Debug)]
pub struct Step {
    /// Latent correctness (what an oracle PRM would see).
    pub correct: bool,
    /// Tokens the step consumed.
    pub tokens: usize,
}

/// One complete sampled solution.
#[derive(Clone, Debug)]
pub struct Trajectory {
    /// Reasoning steps.
    pub steps: Vec<Step>,
    /// Proposed final answer.
    pub answer: i64,
    /// Total generated tokens.
    pub tokens: usize,
}

impl Trajectory {
    /// Whether the trajectory solves the task.
    pub fn is_correct(&self, task: &MathTask) -> bool {
        task.verify(self.answer)
    }
}

/// Policy with paper-calibrated skill, optionally degraded by
/// quantization damage.
#[derive(Clone, Debug)]
pub struct CalibratedPolicy {
    /// Model identity (for reports).
    pub model: ModelId,
    /// Dataset profile the skill was fitted on.
    pub dataset: DatasetKind,
    /// Fitted skill parameter.
    pub skill: f64,
    /// Capability multiplier (1.0 = undamaged; see
    /// [`crate::calib::quant_capability`]).
    pub capability: f64,
    /// Additive skill penalty (0.0 = undamaged; see
    /// [`crate::calib::quant_skill_penalty`]). Models the catastrophic
    /// reasoning collapse coarse quantization causes (Table 1).
    pub skill_penalty: f64,
}

impl CalibratedPolicy {
    /// Builds a policy with skill fitted to the paper's baseline accuracy.
    pub fn new(model: ModelId, dataset: DatasetKind) -> Self {
        CalibratedPolicy {
            model,
            dataset,
            skill: fit_skill(model, dataset),
            capability: 1.0,
            skill_penalty: 0.0,
        }
    }

    /// Same policy with an additive skill penalty applied.
    pub fn with_skill_penalty(mut self, penalty: f64) -> Self {
        self.skill_penalty = penalty;
        self
    }

    /// Task-level solve probability.
    pub fn solve_prob(&self, task: &MathTask) -> f64 {
        solve_prob(
            self.skill * self.capability - self.skill_penalty,
            task.difficulty,
        )
    }

    /// Per-step success rate such that a full trajectory of `n` steps
    /// succeeds with the task-level probability.
    fn step_success_rate(&self, task: &MathTask) -> f64 {
        let p = self.solve_prob(task).clamp(1e-9, 1.0 - 1e-12);
        let n = task.steps.max(1) as f64;
        p.powf(1.0 / n)
    }

    /// Samples one step.
    pub fn sample_step(&self, task: &MathTask, rng: &mut StdRng) -> Step {
        Step {
            correct: rng.gen::<f64>() < self.step_success_rate(task),
            tokens: 25 + rng.gen_range(0..30),
        }
    }

    /// Samples a complete trajectory.
    pub fn sample_trajectory(&self, task: &MathTask, rng: &mut StdRng) -> Trajectory {
        let n = task.steps.max(1);
        let mut steps = Vec::with_capacity(n);
        let mut all_correct = true;
        let mut tokens = 0usize;
        for _ in 0..n {
            let s = self.sample_step(task, rng);
            all_correct &= s.correct;
            tokens += s.tokens;
            steps.push(s);
        }
        tokens += 15; // Final-answer tokens.
        let answer = if all_correct {
            task.answer
        } else {
            wrong_answer(task.answer, rng)
        };
        Trajectory {
            steps,
            answer,
            tokens,
        }
    }

    /// Deterministic per-task RNG (stable across methods for pairing).
    pub fn task_rng(&self, task: &MathTask, sample: u64) -> StdRng {
        StdRng::seed_from_u64(
            task.id
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(sample)
                .wrapping_add((self.model as u64) << 32),
        )
    }
}

/// Generates a wrong answer distinct from the truth. Wrong answers are
/// dispersed so that self-consistency's majority vote rarely collides on
/// the same mistake (empirically true for numeric tasks).
fn wrong_answer(truth: i64, rng: &mut StdRng) -> i64 {
    loop {
        let delta = rng.gen_range(-999i64..=999);
        if delta != 0 {
            return truth + delta;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mathsynth::mathgen::TaskGenerator;

    fn policy() -> CalibratedPolicy {
        CalibratedPolicy::new(ModelId::Qwen1_5B, DatasetKind::Math500Like)
    }

    #[test]
    fn empirical_pass1_matches_calibration() {
        let p = policy();
        let tasks = TaskGenerator::new(DatasetKind::Math500Like, 17).take(3000);
        let mut correct = 0usize;
        for t in &tasks {
            let mut rng = p.task_rng(t, 0);
            if p.sample_trajectory(t, &mut rng).is_correct(t) {
                correct += 1;
            }
        }
        let acc = correct as f64 / tasks.len() as f64 * 100.0;
        // Paper baseline: Qwen2.5-1.5B on MATH500 ~30%.
        assert!((25.0..35.0).contains(&acc), "empirical pass@1 {acc}");
    }

    #[test]
    fn trajectory_correct_iff_all_steps_correct() {
        let p = policy();
        let tasks = TaskGenerator::new(DatasetKind::Math500Like, 3).take(200);
        for t in &tasks {
            let mut rng = p.task_rng(t, 1);
            let traj = p.sample_trajectory(t, &mut rng);
            let all = traj.steps.iter().all(|s| s.correct);
            assert_eq!(all, traj.is_correct(t));
        }
    }

    #[test]
    fn capability_degrades_accuracy() {
        let full = policy();
        let mut damaged = policy();
        damaged.capability = 0.3;
        let tasks = TaskGenerator::new(DatasetKind::Math500Like, 5).take(1500);
        let acc = |p: &CalibratedPolicy| {
            tasks
                .iter()
                .filter(|t| {
                    let mut rng = p.task_rng(t, 0);
                    p.sample_trajectory(t, &mut rng).is_correct(t)
                })
                .count() as f64
                / tasks.len() as f64
                * 100.0
        };
        let a_full = acc(&full);
        let a_damaged = acc(&damaged);
        assert!(
            a_damaged < a_full / 3.0,
            "damaged {a_damaged} vs full {a_full}"
        );
    }

    #[test]
    fn easy_tasks_are_solved_more_often() {
        let p = policy();
        let mut easy = 0;
        let mut hard = 0;
        let tasks = TaskGenerator::new(DatasetKind::Math500Like, 9).take(2000);
        for t in &tasks {
            let mut rng = p.task_rng(t, 0);
            let ok = p.sample_trajectory(t, &mut rng).is_correct(t);
            if t.difficulty < 0.3 && ok {
                easy += 1;
            }
            if t.difficulty > 0.7 && ok {
                hard += 1;
            }
        }
        assert!(easy > hard * 3, "easy {easy} hard {hard}");
    }

    #[test]
    fn wrong_answers_never_equal_truth() {
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..1000 {
            assert_ne!(wrong_answer(42, &mut rng), 42);
        }
    }

    #[test]
    fn token_counts_scale_with_steps() {
        let p = policy();
        let tasks = TaskGenerator::new(DatasetKind::Math500Like, 13).take(300);
        for t in &tasks {
            let mut rng = p.task_rng(t, 0);
            let traj = p.sample_trajectory(t, &mut rng);
            assert!(traj.tokens >= 25 * t.steps.max(1));
            assert_eq!(traj.steps.len(), t.steps.max(1));
        }
    }
}
